//! The serving wire protocol: length-prefixed binary frames over TCP.
//!
//! This is the boundary the ROADMAP's "service for millions of users"
//! item asks for: a remote client opens sensing sessions against a
//! [`ServeEngine`](crate::ServeEngine) and receives outputs and the
//! merged event stream back — with **bitwise** fidelity to the
//! in-process path. No external deps: the codec is hand-rolled
//! little-endian, like every other serialization in this workspace.
//!
//! # Framing
//!
//! A connection opens with the 4-byte magic `b"WIVI"` (which is also
//! how the listener tells protocol traffic from an HTTP `/metrics`
//! scrape — see [`crate::net`]). After the magic, the stream is a
//! sequence of frames:
//!
//! ```text
//! ┌────────────┬─────────┬──────────┬──────────────┐
//! │ len: u32 LE│ ver: u8 │ type: u8 │ payload ...  │
//! └────────────┴─────────┴──────────┴──────────────┘
//!               └──────────── len bytes ───────────┘
//! ```
//!
//! `len` counts everything after the length field (version + type +
//! payload) and is bounded by [`MAX_FRAME_LEN`]. Both sides speak
//! exactly [`WIRE_VERSION`]; any other version byte is a hard
//! [`WireError::BadVersion`], which the server answers with a stable
//! `wire` ERROR before closing the connection.
//!
//! # Frame types and the session conversation
//!
//! ```text
//! client                                 server
//!   ── magic "WIVI" ──────────────────────▶
//!   ── HELLO(token) ──────────────────────▶   auth
//!   ◀───────────────────────── HELLO_OK ──
//!   ── OPEN(id, scene, config, mode, …) ──▶   admission → shard queue
//!   ◀───────────────── OPEN_OK(id, shard)──       (or ERROR(code, id))
//!   ── CLOSE(id) ─────────────────────────▶   early close of a session
//!                                            opened here (optional)
//!   ── FINISH ────────────────────────────▶   no more commands
//!   ◀──────────────── EVENT × n (merged) ──   when all sessions drain:
//!   ◀──────────────── OUTPUT × m (id order)
//!   ◀───────────────────────────── BYE ────   then the server closes
//! ```
//!
//! All integers are little-endian; floats travel as `f64::to_bits` so
//! the wire is exact to the last ulp. Strings are `u32` length +
//! UTF-8. `Option<T>` is a `u8` flag then `T`.
//!
//! # Canonical output encoding
//!
//! [`encode_session_output`] defines *the* canonical byte encoding of a
//! [`SessionOutput`]: identity and lifecycle fields, the session's full
//! event list, and the mode payload encoded field-for-field (every
//! `f64` by bit pattern). Wall-clock telemetry (`calibrate_s`,
//! `stream_s`) is deliberately excluded — the wire carries
//! observations, not scheduling accidents — as is the tracker's `cfg`
//! (a pure function of the session's effective config, not an
//! observation). The loopback acceptance test pins that a
//! net-served session's OUTPUT/EVENT frames are byte-identical to this
//! encoding of the in-process [`ServeReport`](crate::ServeReport).

use wivi_core::gesture::GestureDecode;
use wivi_core::AngleSpectrogram;
use wivi_image::{ImageFix, ImagingReport, PositionTrack};
use wivi_num::Kalman2;
use wivi_track::{EventKind, TrackEvent, TrackStatus, TrackingReport};

use crate::engine::ServeEvent;
use crate::mode::ModeOutput;
use crate::session::{SessionId, SessionOutput};

/// Connection preamble: lets the listener tell protocol traffic from an
/// HTTP metrics scrape on the same port.
pub const MAGIC: [u8; 4] = *b"WIVI";

/// Wire format version carried in every frame header. Version 2 added
/// the optional trace-context field to OPEN; version 1 is no longer
/// accepted.
pub const WIRE_VERSION: u8 = 2;

/// Upper bound on `len` (bytes after the length field): a corrupt or
/// hostile length cannot make the reader allocate unboundedly.
pub const MAX_FRAME_LEN: usize = 1 << 28;

/// Frame type tags (the `type` byte). Crate-visible: the reactor
/// writes OUTPUT/EVENT frames by framing the canonical payload bytes
/// directly, so what goes on the wire IS [`encode_session_output`] /
/// [`encode_serve_event`] by construction, not by round-trip.
pub(crate) mod tag {
    pub const HELLO: u8 = 1;
    pub const HELLO_OK: u8 = 2;
    pub const OPEN: u8 = 3;
    pub const OPEN_OK: u8 = 4;
    pub const CLOSE: u8 = 5;
    pub const FINISH: u8 = 6;
    pub const EVENT: u8 = 7;
    pub const OUTPUT: u8 = 8;
    pub const ERROR: u8 = 9;
    pub const BYE: u8 = 10;
}

/// What a wire `OPEN` asks for. Scenes and configs are referenced by
/// the names the server registered them under
/// ([`WireServerConfig`](crate::net::WireServerConfig)) — a remote
/// radio streams *into* a scene catalog, it does not upload geometry —
/// and the mode by its [`Mode`](crate::Mode) tag.
#[derive(Clone, Debug, PartialEq)]
pub struct OpenRequest {
    pub id: SessionId,
    /// Deterministic seed for the session's radio noise/trajectories.
    pub seed: u64,
    /// Recording duration, simulated seconds.
    pub duration_s: f64,
    /// Serving-clock offset of the session start.
    pub start_s: f64,
    /// Tag of the sensing mode to run.
    pub mode: String,
    /// Name of a server-registered scene.
    pub scene: String,
    /// Name of a server-registered device configuration.
    pub config: String,
    /// Request trace id: links the client-side open span to the
    /// server-side session spans under one 64-bit id. `None` for
    /// untraced opens.
    pub trace: Option<u64>,
}

/// One decoded frame. `Output` carries the decoded common surface plus
/// the raw canonical payload bytes (the client does not decode a
/// payload; byte-level comparison is the contract).
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client hello: auth token.
    Hello { token: String },
    /// Server accepts the hello.
    HelloOk,
    /// Open a session.
    Open(OpenRequest),
    /// The session was admitted and queued on `shard`.
    OpenOk { id: SessionId, shard: u32 },
    /// Close a session early.
    Close { id: SessionId },
    /// No more commands on this connection; drain and report.
    Finish,
    /// One event of the connection's merged stream.
    Event(ServeEvent),
    /// One finished session.
    Output(WireOutput),
    /// A refused operation. `code` is a stable machine tag (e.g.
    /// `auth`, `quota`, `overloaded`, `duplicate_id`, `unknown_mode`,
    /// `unknown_scene`, `unknown_config`, `shutting_down`); `id` is the
    /// session it concerns (0 for connection-level errors).
    Error {
        code: String,
        id: SessionId,
        message: String,
    },
    /// The server is done with this connection.
    Bye,
}

/// The decoded common surface of an OUTPUT frame. `payload` holds the
/// canonical mode-payload bytes exactly as encoded by
/// [`encode_mode_payload`] server-side.
#[derive(Clone, Debug, PartialEq)]
pub struct WireOutput {
    pub id: SessionId,
    pub shard: u64,
    pub mode: String,
    pub start_s: f64,
    pub n_requested: u64,
    pub n_samples: u64,
    pub n_columns: u64,
    pub closed_early: bool,
    pub nulling_db: f64,
    pub events: Vec<TrackEvent>,
    pub payload: Vec<u8>,
}

/// Decode failures. The reactor answers these with an `ERROR` frame
/// and closes the connection — a malformed client cannot wedge or
/// crash the server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WireError {
    /// The buffer ended inside a field.
    Truncated,
    /// Frame header carried an unsupported version.
    BadVersion(u8),
    /// Unknown frame type byte.
    BadFrameType(u8),
    /// A length field exceeded [`MAX_FRAME_LEN`].
    Oversized(u64),
    /// A string field was not UTF-8.
    BadUtf8,
    /// An enum tag or flag byte was out of range.
    BadValue(&'static str),
    /// A frame body had bytes left after its last field.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::Oversized(n) => write!(f, "length {n} exceeds frame bound"),
            WireError::BadUtf8 => write!(f, "string field not UTF-8"),
            WireError::BadValue(what) => write!(f, "bad value in field '{what}'"),
            WireError::TrailingBytes => write!(f, "trailing bytes after frame body"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------- put

#[inline]
fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

#[inline]
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Writes a collection/string length as `u32`. Every length this codec
/// emits is bounded by [`MAX_FRAME_LEN`] (1 << 28, far below
/// `u32::MAX`) because the whole frame must fit under it; the assert
/// keeps the cast honest if that bound ever moves.
#[inline]
fn put_len(buf: &mut Vec<u8>, n: usize) {
    debug_assert!(n <= MAX_FRAME_LEN, "length {n} exceeds MAX_FRAME_LEN");
    put_u32(buf, n as u32); // bounds: asserted ≤ MAX_FRAME_LEN above
}

#[inline]
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

#[inline]
fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_len(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

#[inline]
fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, u8::from(v));
}

fn put_opt_f64(buf: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            put_u8(buf, 1);
            put_f64(buf, x);
        }
        None => put_u8(buf, 0),
    }
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            put_u8(buf, 1);
            put_u64(buf, x);
        }
        None => put_u8(buf, 0),
    }
}

fn put_f64s(buf: &mut Vec<u8>, xs: &[f64]) {
    put_len(buf, xs.len());
    for &x in xs {
        put_f64(buf, x);
    }
}

fn put_usizes(buf: &mut Vec<u8>, xs: &[usize]) {
    put_len(buf, xs.len());
    for &x in xs {
        put_usize(buf, x);
    }
}

// --------------------------------------------------------------- take

/// A bounds-checked reader over one frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let out = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    /// The next `N` bytes as a fixed array — the panic-free spelling of
    /// `bytes(N)?.try_into().unwrap()` for the integer readers below.
    fn arr<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.bytes(N)?
            .first_chunk::<N>()
            .copied()
            .ok_or(WireError::Truncated)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let [b] = self.arr::<1>()?;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.arr()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.arr()?))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue("bool")),
        }
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME_LEN {
            return Err(WireError::Oversized(n as u64));
        }
        std::str::from_utf8(self.bytes(n)?)
            .map(str::to_owned)
            .map_err(|_| WireError::BadUtf8)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

// ------------------------------------------------------ event codecs

fn put_track_event(buf: &mut Vec<u8>, e: &TrackEvent) {
    put_usize(buf, e.window);
    put_f64(buf, e.time_s);
    match e.track_id {
        Some(t) => {
            put_u8(buf, 1);
            put_u32(buf, t);
        }
        None => put_u8(buf, 0),
    }
    match e.kind {
        EventKind::Entry { theta_deg } => {
            put_u8(buf, 0);
            put_f64(buf, theta_deg);
        }
        EventKind::Exit { theta_deg } => {
            put_u8(buf, 1);
            put_f64(buf, theta_deg);
        }
        EventKind::Crossing { direction } => {
            put_u8(buf, 2);
            // bounds: i8 → u8 is a bit-for-bit reinterpretation (the
            // decoder casts back), not a length truncation.
            put_u8(buf, direction as u8);
        }
        EventKind::CountChange { count } => {
            put_u8(buf, 3);
            put_usize(buf, count);
        }
    }
}

fn take_track_event(c: &mut Cursor) -> Result<TrackEvent, WireError> {
    let window = c.u64()? as usize;
    let time_s = c.f64()?;
    let track_id = match c.u8()? {
        0 => None,
        1 => Some(c.u32()?),
        _ => Err(WireError::BadValue("track_id flag"))?,
    };
    let kind = match c.u8()? {
        0 => EventKind::Entry {
            theta_deg: c.f64()?,
        },
        1 => EventKind::Exit {
            theta_deg: c.f64()?,
        },
        2 => EventKind::Crossing {
            direction: c.u8()? as i8,
        },
        3 => EventKind::CountChange {
            count: c.u64()? as usize,
        },
        _ => Err(WireError::BadValue("event kind"))?,
    };
    Ok(TrackEvent {
        window,
        time_s,
        track_id,
        kind,
    })
}

/// Canonical encoding of one merged-stream event — the EVENT frame
/// payload.
pub fn encode_serve_event(e: &ServeEvent) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_f64(&mut buf, e.time_s);
    put_u64(&mut buf, e.session);
    put_usize(&mut buf, e.seq);
    put_track_event(&mut buf, &e.event);
    buf
}

fn take_serve_event(c: &mut Cursor) -> Result<ServeEvent, WireError> {
    Ok(ServeEvent {
        time_s: c.f64()?,
        session: c.u64()?,
        seq: c.u64()? as usize,
        event: take_track_event(c)?,
    })
}

// ----------------------------------------------------- mode payloads

fn put_kalman2(buf: &mut Vec<u8>, k: &Kalman2) {
    put_f64(buf, k.x[0]);
    put_f64(buf, k.x[1]);
    for row in &k.p {
        for &v in row {
            put_f64(buf, v);
        }
    }
}

fn status_tag(s: TrackStatus) -> u8 {
    match s {
        TrackStatus::Tentative => 0,
        TrackStatus::Confirmed => 1,
        TrackStatus::Coasting => 2,
        TrackStatus::Dead => 3,
    }
}

fn put_spectrogram(buf: &mut Vec<u8>, s: &AngleSpectrogram) {
    put_f64s(buf, &s.thetas_deg);
    put_f64s(buf, &s.times_s);
    put_len(buf, s.power.len());
    for row in &s.power {
        put_f64s(buf, row);
    }
}

fn put_tracking_report(buf: &mut Vec<u8>, r: &TrackingReport) {
    put_len(buf, r.tracks.len());
    for t in &r.tracks {
        put_u32(buf, t.id);
        put_usize(buf, t.born_window);
        put_opt_u64(buf, t.confirmed_window.map(|w| w as u64));
        put_usize(buf, t.last_observed_window);
        put_u8(buf, status_tag(t.status));
        put_kalman2(buf, &t.filter);
        // The `hits` slot: matched windows, which is `observed_windows`.
        put_usize(buf, t.observed_windows);
        put_usize(buf, t.misses);
        put_usize(buf, t.observed_windows);
        put_usize(buf, t.extra.led_windows);
        put_f64s(buf, &t.extra.recent_gaps_db);
        put_bool(buf, t.announced);
        put_len(buf, t.history.len());
        for p in &t.history {
            put_usize(buf, p.window);
            put_f64(buf, p.time_s);
            put_f64(buf, p.theta_deg);
            put_f64(buf, p.theta_vel);
            put_opt_f64(buf, p.observed);
        }
    }
    put_len(buf, r.events.len());
    for e in &r.events {
        put_track_event(buf, e);
    }
    put_usizes(buf, &r.confirmed_counts);
    put_f64s(buf, &r.times_s);
    // `r.cfg` is deliberately not encoded: it is a pure function of the
    // session's effective configuration, not an observation.
}

fn put_gesture_decode(buf: &mut Vec<u8>, d: &GestureDecode) {
    put_f64s(buf, &d.track);
    put_f64s(buf, &d.matched);
    put_f64s(buf, &d.times_s);
    put_len(buf, d.gestures.len());
    for g in &d.gestures {
        put_f64(buf, g.time_s);
        // bounds: polarity is ±1; i8 → u8 is a bit-for-bit
        // reinterpretation, not a length truncation.
        put_u8(buf, g.polarity as u8);
        put_f64(buf, g.snr_db);
    }
    put_len(buf, d.bits.len());
    for b in &d.bits {
        match b {
            None => put_u8(buf, 0),
            Some(false) => put_u8(buf, 1),
            Some(true) => put_u8(buf, 2),
        }
    }
}

fn put_image_fix(buf: &mut Vec<u8>, f: &ImageFix) {
    put_f64(buf, f.x_m);
    put_f64(buf, f.y_m);
    put_f64(buf, f.power_db);
    put_f64(buf, f.snr_db);
    put_usize(buf, f.ix);
    put_usize(buf, f.iy);
}

fn put_position_track(buf: &mut Vec<u8>, t: &PositionTrack) {
    put_u32(buf, t.id);
    put_usize(buf, t.born_window);
    put_opt_u64(buf, t.confirmed_window.map(|w| w as u64));
    put_usize(buf, t.last_observed_window);
    put_u8(buf, status_tag(t.status));
    t.filter.iter().for_each(|k| put_kalman2(buf, k));
    put_usize(buf, t.misses);
    put_usize(buf, t.observed_windows);
    match t.extra.mirror_of {
        Some(m) => {
            put_u8(buf, 1);
            put_u32(buf, m);
        }
        None => put_u8(buf, 0),
    }
    put_len(buf, t.history.len());
    for p in &t.history {
        put_usize(buf, p.window);
        put_f64(buf, p.time_s);
        put_f64(buf, p.x_m);
        put_f64(buf, p.y_m);
        put_f64(buf, p.vx);
        put_f64(buf, p.vy);
        match &p.observed {
            Some(f) => {
                put_u8(buf, 1);
                put_image_fix(buf, f);
            }
            None => put_u8(buf, 0),
        }
    }
}

fn put_imaging_report(buf: &mut Vec<u8>, r: &ImagingReport) {
    put_f64(buf, r.grid.x0);
    put_f64(buf, r.grid.y0);
    put_f64(buf, r.grid.cell_x_m);
    put_f64(buf, r.grid.cell_y_m);
    put_usize(buf, r.grid.nx);
    put_usize(buf, r.grid.ny);
    put_f64s(buf, &r.times_s);
    put_len(buf, r.fixes.len());
    for frame in &r.fixes {
        put_len(buf, frame.len());
        for f in frame {
            put_image_fix(buf, f);
        }
    }
    put_len(buf, r.tracks.len());
    for t in &r.tracks {
        put_position_track(buf, t);
    }
    put_usizes(buf, &r.confirmed_counts);
}

/// Encodes a mode payload canonically: a presence flag (`2` when a
/// payload follows, `1` for an absent `Option` payload), then every
/// field, floats by bit pattern.
pub fn encode_mode_payload(out: &ModeOutput, buf: &mut Vec<u8>) {
    fn put_opt<T>(buf: &mut Vec<u8>, v: &Option<T>, put: impl Fn(&mut Vec<u8>, &T)) {
        match v {
            Some(x) => {
                put_u8(buf, 2);
                put(buf, x);
            }
            None => put_u8(buf, 1),
        }
    }
    match out {
        ModeOutput::Track(spec) => put_opt(buf, spec, put_spectrogram),
        ModeOutput::TrackTargets(report) => {
            put_u8(buf, 2);
            put_tracking_report(buf, report);
        }
        ModeOutput::Count(mean) => put_opt(buf, mean, |b, &m| put_f64(b, m)),
        ModeOutput::Gestures(decode) => put_opt(buf, decode, put_gesture_decode),
        ModeOutput::Image(report) => {
            put_u8(buf, 2);
            put_imaging_report(buf, report);
        }
    }
}

/// Canonical encoding of one finished session — the OUTPUT frame
/// payload, and the byte string the loopback acceptance test compares
/// against the in-process report. Wall-clock telemetry is excluded by
/// design (see the module docs).
pub fn encode_session_output(out: &SessionOutput) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    put_u64(&mut buf, out.id);
    put_usize(&mut buf, out.shard);
    put_str(&mut buf, out.mode);
    put_f64(&mut buf, out.start_s);
    put_usize(&mut buf, out.n_requested);
    put_usize(&mut buf, out.n_samples);
    put_usize(&mut buf, out.n_columns);
    put_bool(&mut buf, out.closed_early);
    put_f64(&mut buf, out.nulling_db);
    let events = out.result.events();
    put_len(&mut buf, events.len());
    for e in events {
        put_track_event(&mut buf, e);
    }
    encode_mode_payload(&out.result, &mut buf);
    buf
}

fn take_wire_output(c: &mut Cursor) -> Result<WireOutput, WireError> {
    let id = c.u64()?;
    let shard = c.u64()?;
    let mode = c.str()?;
    let start_s = c.f64()?;
    let n_requested = c.u64()?;
    let n_samples = c.u64()?;
    let n_columns = c.u64()?;
    let closed_early = c.bool()?;
    let nulling_db = c.f64()?;
    let n_events = c.u32()? as usize;
    let mut events = Vec::with_capacity(n_events.min(4096));
    for _ in 0..n_events {
        events.push(take_track_event(c)?);
    }
    // Everything after the common surface is the canonical payload
    // block, kept as raw bytes (bytes are the contract).
    let payload = c.buf.get(c.pos..).unwrap_or(&[]).to_vec();
    c.pos = c.buf.len();
    Ok(WireOutput {
        id,
        shard,
        mode,
        start_s,
        n_requested,
        n_samples,
        n_columns,
        closed_early,
        nulling_db,
        events,
        payload,
    })
}

// -------------------------------------------------------- frame codec

impl Frame {
    fn type_tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => tag::HELLO,
            Frame::HelloOk => tag::HELLO_OK,
            Frame::Open(_) => tag::OPEN,
            Frame::OpenOk { .. } => tag::OPEN_OK,
            Frame::Close { .. } => tag::CLOSE,
            Frame::Finish => tag::FINISH,
            Frame::Event(_) => tag::EVENT,
            Frame::Output(_) => tag::OUTPUT,
            Frame::Error { .. } => tag::ERROR,
            Frame::Bye => tag::BYE,
        }
    }

    /// Appends the frame's full on-wire bytes (length, versioned
    /// header, payload).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        put_u32(buf, 0); // length back-patched below
        put_u8(buf, WIRE_VERSION);
        put_u8(buf, self.type_tag());
        match self {
            Frame::Hello { token } => put_str(buf, token),
            Frame::HelloOk | Frame::Finish | Frame::Bye => {}
            Frame::Open(req) => {
                put_u64(buf, req.id);
                put_u64(buf, req.seed);
                put_f64(buf, req.duration_s);
                put_f64(buf, req.start_s);
                put_str(buf, &req.mode);
                put_str(buf, &req.scene);
                put_str(buf, &req.config);
                put_opt_u64(buf, req.trace);
            }
            Frame::OpenOk { id, shard } => {
                put_u64(buf, *id);
                put_u32(buf, *shard);
            }
            Frame::Close { id } => put_u64(buf, *id),
            Frame::Event(e) => buf.extend_from_slice(&encode_serve_event(e)),
            Frame::Output(o) => {
                // Re-encoding a decoded output reproduces the original
                // bytes: the common surface re-encodes field-for-field
                // and the payload block is carried verbatim.
                put_u64(buf, o.id);
                put_u64(buf, o.shard);
                put_str(buf, &o.mode);
                put_f64(buf, o.start_s);
                put_u64(buf, o.n_requested);
                put_u64(buf, o.n_samples);
                put_u64(buf, o.n_columns);
                put_bool(buf, o.closed_early);
                put_f64(buf, o.nulling_db);
                put_len(buf, o.events.len());
                for e in &o.events {
                    put_track_event(buf, e);
                }
                buf.extend_from_slice(&o.payload);
            }
            Frame::Error { code, id, message } => {
                put_str(buf, code);
                put_u64(buf, *id);
                put_str(buf, message);
            }
        }
        let len = buf.len() - start - 4;
        debug_assert!(len <= MAX_FRAME_LEN, "encoded frame exceeds MAX_FRAME_LEN");
        // bounds: asserted ≤ MAX_FRAME_LEN (≪ u32::MAX) just above.
        buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    }

    /// The frame as one owned byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.encode_into(&mut buf);
        buf
    }

    /// Builds the OUTPUT frame for a finished session, server-side.
    pub fn output_of(out: &SessionOutput) -> Frame {
        // Round-trip through the canonical encoding so the frame the
        // server sends IS encode_session_output(out), bit for bit.
        let body = encode_session_output(out);
        let mut c = Cursor::new(&body);
        let decoded = take_wire_output(&mut c).expect("canonical encoding must decode");
        Frame::Output(decoded)
    }

    /// Decodes one frame *body* (the `len` bytes after the length
    /// field: version, type, payload).
    pub fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
        let mut c = Cursor::new(body);
        let ver = c.u8()?;
        if ver != WIRE_VERSION {
            return Err(WireError::BadVersion(ver));
        }
        let t = c.u8()?;
        let frame = match t {
            tag::HELLO => Frame::Hello { token: c.str()? },
            tag::HELLO_OK => Frame::HelloOk,
            tag::OPEN => Frame::Open(OpenRequest {
                id: c.u64()?,
                seed: c.u64()?,
                duration_s: c.f64()?,
                start_s: c.f64()?,
                mode: c.str()?,
                scene: c.str()?,
                config: c.str()?,
                trace: match c.u8()? {
                    0 => None,
                    1 => Some(c.u64()?),
                    _ => return Err(WireError::BadValue("trace flag")),
                },
            }),
            tag::OPEN_OK => Frame::OpenOk {
                id: c.u64()?,
                shard: c.u32()?,
            },
            tag::CLOSE => Frame::Close { id: c.u64()? },
            tag::FINISH => Frame::Finish,
            tag::EVENT => Frame::Event(take_serve_event(&mut c)?),
            tag::OUTPUT => Frame::Output(take_wire_output(&mut c)?),
            tag::ERROR => Frame::Error {
                code: c.str()?,
                id: c.u64()?,
                message: c.str()?,
            },
            tag::BYE => Frame::Bye,
            other => return Err(WireError::BadFrameType(other)),
        };
        c.finish()?;
        Ok(frame)
    }
}

/// Tries to split one complete frame off the front of `buf`. Returns
/// `Ok(None)` if more bytes are needed, `Ok(Some((frame, consumed)))`
/// on success.
pub fn split_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    let Some(len_bytes) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len as u64));
    }
    if len < 2 {
        return Err(WireError::Truncated);
    }
    let Some(body) = buf.get(4..4 + len) else {
        return Ok(None);
    };
    Ok(Some((Frame::decode_body(body)?, 4 + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(f: Frame) {
        let bytes = f.encode();
        let (back, used) = split_frame(&bytes).unwrap().expect("complete");
        assert_eq!(used, bytes.len());
        assert_eq!(back, f);
        // Byte-stability: re-encoding the decoded frame reproduces the
        // original wire bytes exactly.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn all_frame_types_round_trip_byte_stable() {
        round_trip(Frame::Hello {
            token: "secret-token".into(),
        });
        round_trip(Frame::HelloOk);
        round_trip(Frame::Open(OpenRequest {
            id: 42,
            seed: 7,
            duration_s: 2.5,
            start_s: 0.75,
            mode: "track_targets".into(),
            scene: "conference-small".into(),
            config: "fast_test".into(),
            trace: Some(0xdead_beef_cafe_f00d),
        }));
        round_trip(Frame::Open(OpenRequest {
            id: 43,
            seed: 8,
            duration_s: 1.0,
            start_s: 0.0,
            mode: "count".into(),
            scene: "room".into(),
            config: "fast".into(),
            trace: None,
        }));
        round_trip(Frame::OpenOk { id: 42, shard: 3 });
        round_trip(Frame::Close { id: 42 });
        round_trip(Frame::Finish);
        round_trip(Frame::Event(ServeEvent {
            time_s: 1.25,
            session: 42,
            seq: 9,
            event: TrackEvent {
                window: 17,
                time_s: 1.25,
                track_id: Some(2),
                kind: EventKind::Entry { theta_deg: -12.5 },
            },
        }));
        round_trip(Frame::Error {
            code: "overloaded".into(),
            id: 42,
            message: "shard queue full".into(),
        });
        round_trip(Frame::Bye);
    }

    #[test]
    fn every_event_kind_round_trips() {
        for kind in [
            EventKind::Entry { theta_deg: 3.5 },
            EventKind::Exit { theta_deg: -7.25 },
            EventKind::Crossing { direction: -1 },
            EventKind::CountChange { count: 3 },
        ] {
            round_trip(Frame::Event(ServeEvent {
                time_s: 0.5,
                session: 1,
                seq: 0,
                event: TrackEvent {
                    window: 4,
                    time_s: 0.5,
                    track_id: None,
                    kind,
                },
            }));
        }
    }

    #[test]
    fn partial_buffers_ask_for_more_bytes() {
        let bytes = Frame::Close { id: 9 }.encode();
        for cut in 0..bytes.len() {
            assert_eq!(split_frame(&bytes[..cut]).unwrap(), None, "cut at {cut}");
        }
        // Two frames back to back: the first splits off cleanly.
        let mut two = bytes.clone();
        two.extend_from_slice(&Frame::Finish.encode());
        let (f, used) = split_frame(&two).unwrap().unwrap();
        assert_eq!(f, Frame::Close { id: 9 });
        assert_eq!(used, bytes.len());
        let (f2, _) = split_frame(&two[used..]).unwrap().unwrap();
        assert_eq!(f2, Frame::Finish);
    }

    #[test]
    fn malformed_frames_error_instead_of_panicking() {
        // Bad version.
        let mut bytes = Frame::Finish.encode();
        bytes[4] = 99;
        assert_eq!(
            Frame::decode_body(&bytes[4..]),
            Err(WireError::BadVersion(99))
        );
        // Unknown type.
        let mut bytes = Frame::Finish.encode();
        bytes[5] = 200;
        assert_eq!(
            Frame::decode_body(&bytes[4..]),
            Err(WireError::BadFrameType(200))
        );
        // Hostile length field.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.extend_from_slice(&[WIRE_VERSION, 6]);
        assert!(matches!(split_frame(&huge), Err(WireError::Oversized(_))));
        // Trailing garbage inside a frame body.
        let mut bytes = Frame::Finish.encode();
        bytes.extend_from_slice(&[0, 0]);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            Frame::decode_body(&bytes[4..]),
            Err(WireError::TrailingBytes)
        );
        // Truncated string.
        let mut hello = Frame::Hello {
            token: "tok".into(),
        }
        .encode();
        hello.truncate(hello.len() - 1);
        let len = (hello.len() - 4) as u32;
        hello[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(Frame::decode_body(&hello[4..]), Err(WireError::Truncated));
    }

    #[test]
    fn only_the_current_version_decodes() {
        // A v1 header is refused whatever the body: v1 is gone.
        let mut hello = vec![1u8, tag::HELLO];
        put_str(&mut hello, "tok");
        assert_eq!(Frame::decode_body(&hello), Err(WireError::BadVersion(1)));
        for ver in [0, WIRE_VERSION + 1] {
            assert_eq!(
                Frame::decode_body(&[ver, tag::FINISH]),
                Err(WireError::BadVersion(ver))
            );
        }
        // An OPEN with a mangled trace flag is rejected.
        let mut bad = vec![WIRE_VERSION, tag::OPEN];
        put_u64(&mut bad, 5);
        put_u64(&mut bad, 99);
        put_f64(&mut bad, 1.5);
        put_f64(&mut bad, 0.25);
        for s in ["count", "room", "fast"] {
            put_str(&mut bad, s);
        }
        bad.push(7);
        assert_eq!(
            Frame::decode_body(&bad),
            Err(WireError::BadValue("trace flag"))
        );
    }

    /// The bytes of the three `Option` payloads (track, count,
    /// gestures), `Some` and `None`, pinned as literals: a codec change
    /// that moves a flag, a field or its order fails here, across
    /// commits, not only against another encoding from the same build.
    #[test]
    #[rustfmt::skip]
    fn option_payloads_encode_to_pinned_bytes() {
        use wivi_core::gesture::DetectedGesture;
        let spec = AngleSpectrogram {
            thetas_deg: vec![-90.0, 0.0, 90.0],
            times_s: vec![0.5, 1.0],
            power: vec![vec![1.0, 2.0, 4.0], vec![0.25, 0.5, 8.0]],
        };
        let decode = GestureDecode {
            track: vec![1.0, -1.0],
            matched: vec![0.5],
            times_s: vec![0.25, 0.75],
            gestures: vec![DetectedGesture { time_s: 0.5, polarity: -1, snr_db: 3.0 }],
            bits: vec![Some(true), None],
        };
        let cases: [(ModeOutput, &[u8]); 6] = [
            (ModeOutput::Track(Some(spec)), &[
                2,                                         // present
                3, 0, 0, 0,                                // 3 angles
                0, 0, 0, 0, 0, 0x80, 0x56, 0xc0,           // -90.0
                0, 0, 0, 0, 0, 0, 0, 0,                    // 0.0
                0, 0, 0, 0, 0, 0x80, 0x56, 0x40,           // 90.0
                2, 0, 0, 0,                                // 2 windows
                0, 0, 0, 0, 0, 0, 0xe0, 0x3f,              // 0.5
                0, 0, 0, 0, 0, 0, 0xf0, 0x3f,              // 1.0
                2, 0, 0, 0,                                // 2 rows
                3, 0, 0, 0,                                // row 0: 3 powers
                0, 0, 0, 0, 0, 0, 0xf0, 0x3f,              // 1.0
                0, 0, 0, 0, 0, 0, 0, 0x40,                 // 2.0
                0, 0, 0, 0, 0, 0, 0x10, 0x40,              // 4.0
                3, 0, 0, 0,                                // row 1: 3 powers
                0, 0, 0, 0, 0, 0, 0xd0, 0x3f,              // 0.25
                0, 0, 0, 0, 0, 0, 0xe0, 0x3f,              // 0.5
                0, 0, 0, 0, 0, 0, 0x20, 0x40,              // 8.0
            ]),
            (ModeOutput::Track(None), &[1]),
            (ModeOutput::Count(Some(1.5)), &[
                2,                                         // present
                0, 0, 0, 0, 0, 0, 0xf8, 0x3f,              // 1.5
            ]),
            (ModeOutput::Count(None), &[1]),
            (ModeOutput::Gestures(Some(decode)), &[
                2,                                         // present
                2, 0, 0, 0,                                // track: 2
                0, 0, 0, 0, 0, 0, 0xf0, 0x3f,              // 1.0
                0, 0, 0, 0, 0, 0, 0xf0, 0xbf,              // -1.0
                1, 0, 0, 0,                                // matched: 1
                0, 0, 0, 0, 0, 0, 0xe0, 0x3f,              // 0.5
                2, 0, 0, 0,                                // times: 2
                0, 0, 0, 0, 0, 0, 0xd0, 0x3f,              // 0.25
                0, 0, 0, 0, 0, 0, 0xe8, 0x3f,              // 0.75
                1, 0, 0, 0,                                // 1 gesture
                0, 0, 0, 0, 0, 0, 0xe0, 0x3f,              //   time 0.5
                0xff,                                      //   polarity -1
                0, 0, 0, 0, 0, 0, 0x08, 0x40,              //   snr 3.0
                2, 0, 0, 0,                                // 2 bits
                2,                                         // Some(true)
                0,                                         // None
            ]),
            (ModeOutput::Gestures(None), &[1]),
        ];
        for (out, want) in &cases {
            let mut got = Vec::new();
            encode_mode_payload(out, &mut got);
            assert_eq!(&got[..], *want, "{out:?} payload bytes moved");
        }
    }

    #[test]
    fn output_frame_is_byte_identical_to_canonical_encoding() {
        use wivi_core::MusicConfig;
        use wivi_track::TrackerConfig;
        let report = TrackingReport {
            tracks: Vec::new(),
            events: vec![TrackEvent {
                window: 2,
                time_s: 0.5,
                track_id: None,
                kind: EventKind::CountChange { count: 1 },
            }],
            confirmed_counts: vec![0, 0, 1, 1],
            times_s: vec![0.125, 0.25, 0.375, 0.5],
            cfg: TrackerConfig::for_music(&MusicConfig::wivi_default()),
        };
        let out = SessionOutput {
            id: 11,
            shard: 1,
            mode: "track_targets",
            start_s: 0.75,
            n_requested: 320,
            n_samples: 320,
            n_columns: 4,
            closed_early: false,
            nulling_db: -27.5,
            result: ModeOutput::TrackTargets(report),
            calibrate_s: 123.0, // wall-clock: must NOT affect the wire
            stream_s: 456.0,
        };
        let frame = Frame::output_of(&out);
        let body = frame.encode();
        // The frame payload (after [len][ver][type]) IS the canonical
        // encoding.
        assert_eq!(&body[6..], &encode_session_output(&out)[..]);
        // And wall-clock fields are invisible.
        let mut out2 = out.clone();
        out2.calibrate_s = 0.0;
        out2.stream_s = 0.0;
        assert_eq!(encode_session_output(&out), encode_session_output(&out2));
        // Decoded common surface matches.
        match frame {
            Frame::Output(w) => {
                assert_eq!(w.id, 11);
                assert_eq!(w.mode, "track_targets");
                assert_eq!(w.events, out.result.events());
                assert!(!w.payload.is_empty());
            }
            other => panic!("expected Output, got {other:?}"),
        }
    }
}
