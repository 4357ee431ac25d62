//! The network front: one listener, one reactor thread, many
//! connections, zero dependencies.
//!
//! [`WireServer::start`] binds a TCP listener and spawns a single
//! reactor thread that *owns* the [`ServeEngine`], the
//! [`Admission`] gate, and every connection. Ownership — not locking —
//! is the concurrency model: the shard threads already provide the
//! parallelism, so the network side stays a small poll loop over
//! nonblocking sockets (std offers no epoll; with the workspace's
//! zero-dependency rule, readiness is a read that returns
//! `WouldBlock`). An idle turn parks the thread until one of three
//! things happens: a shard pushes a finished session (the push unparks
//! it), [`WireServer::shutdown`] unparks it, or the park times out. The
//! timeout starts at 20 µs, doubles on each idle turn up to 500 µs, and
//! drops back to 20 µs whenever a turn makes progress: a client's next
//! frame is caught within tens of µs, and an idle server polls at most
//! 2,000 times a second.
//!
//! Data flow per connection:
//!
//! ```text
//! bytes in ──▶ sniff (WIVI magic | HTTP GET)
//!   WIVI: frames ──▶ HELLO→auth, OPEN→admission→shard queue,
//!                    CLOSE, FINISH
//!   HTTP: GET /metrics ──▶ Prometheus text from the engine registry,
//!                          plus rolling 10 s/60 s gauges
//!         GET /healthz ──▶ shard liveness + queue depths + shed rate
//!                          + SLO burn rate, JSON
//!         GET /tracez  ──▶ recent traces (flight-recorder spans
//!                          grouped by trace id) + incident buffer,
//!                          JSON
//!         a head past 8 KiB with no blank line ──▶ 431, then close
//!   a client frame declared past 64 KiB ──▶ ERROR frame_too_large,
//!                                            BYE, then close
//! shards ──▶ completion queue ──▶ reactor keeps each finished
//!   session in its one output list and routes its index to the owning
//!   connection; when a FINISHed connection's sessions have all
//!   completed, the reactor replays the engine's event merge over that
//!   connection's outputs and writes EVENT* OUTPUT* BYE
//! ```
//!
//! The reactor also owns the rolling windows: every turn ticks one
//! [`TickRing`] with the totals the rolling `/metrics` and `/healthz`
//! lines diff, so the shards' batch steps tick nothing and an idle
//! server's windows age out.
//!
//! The wire path adds *no* computation of its own: outputs are encoded
//! with [`wire::encode_session_output`] and events with
//! [`wire::encode_serve_event`], the same public functions a test can
//! apply to an in-process [`ServeReport`] — which
//! is how `tests/serving_net.rs` pins the served bytes to the
//! in-process bytes, bit for bit.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wivi_core::WiViConfig;
use wivi_num::hash::{fnv1a, fnv1a_more};
use wivi_obs::spans::clock_ns;
use wivi_obs::{
    fmt_trace, Counter, HistogramSnapshot, Incident, SpanRecord, TickRing, TraceIdGen,
    WINDOW_10S_NS, WINDOW_60S_NS,
};
use wivi_rf::SceneHandle;

use crate::admission::{Admission, AdmissionConfig};
use crate::engine::{merge_session_events, ServeConfig, ServeEngine, ServeEvent, ServeReport};
use crate::mode::Mode;
use crate::session::{SessionId, SessionOutput, SessionSpec};
use crate::wire::{self, Frame, OpenRequest, WireError, WireOutput, MAGIC};

/// Everything a [`WireServer`] needs: engine sizing, admission policy,
/// and the server-side catalogs a wire `OPEN` resolves its scene and
/// config names against (its mode tag resolves through
/// [`Mode::from_tag`]).
pub struct WireServerConfig {
    pub serve: ServeConfig,
    pub admission: AdmissionConfig,
    /// Named scenes an `OPEN` may reference.
    pub scenes: Vec<(String, SceneHandle)>,
    /// Named device configurations an `OPEN` may reference.
    pub configs: Vec<(String, WiViConfig)>,
    /// Bind address; `127.0.0.1:0` (loopback, ephemeral port) by
    /// default.
    pub bind: String,
    /// How long `shutdown()` lets in-flight connections drain before
    /// dropping them.
    pub shutdown_grace: Duration,
}

impl WireServerConfig {
    /// Open-access loopback server — the test and bench baseline. Add
    /// scenes/configs before starting.
    pub fn new(serve: ServeConfig) -> Self {
        Self {
            serve,
            admission: AdmissionConfig::open_access(),
            scenes: Vec::new(),
            configs: Vec::new(),
            bind: "127.0.0.1:0".to_owned(),
            shutdown_grace: Duration::from_secs(10),
        }
    }

    /// Registers a named scene.
    pub fn scene(mut self, name: impl Into<String>, scene: impl Into<SceneHandle>) -> Self {
        self.scenes.push((name.into(), scene.into()));
        self
    }

    /// Registers a named device configuration.
    pub fn config(mut self, name: impl Into<String>, cfg: WiViConfig) -> Self {
        self.configs.push((name.into(), cfg));
        self
    }
}

/// What the reactor hands back at [`WireServer::shutdown`].
pub struct WireServerReport {
    /// The engine's final report — same type, same contents as the
    /// in-process path's [`ServeEngine::finish`].
    pub report: ServeReport,
    /// Connections accepted over the server's lifetime.
    pub connections: usize,
    /// Sessions admitted through the wire.
    pub admitted: u64,
    /// Sessions shed at the admission boundary (placed shard queue
    /// full).
    pub shed: u64,
}

/// Handle to a running wire server. Dropping without
/// [`shutdown`](Self::shutdown) leaks the reactor thread; tests and
/// binaries should always shut down.
pub struct WireServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<std::io::Result<WireServerReport>>>,
}

impl WireServer {
    /// Binds, spawns the reactor, returns once the socket is live.
    pub fn start(cfg: WireServerConfig) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(&cfg.bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("wivi-net".into())
            .spawn(move || Reactor::new(cfg, listener, flag).run())?;
        Ok(WireServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains in-flight connections (bounded by the
    /// configured grace), finishes the engine, and returns the final
    /// report.
    pub fn shutdown(mut self) -> std::io::Result<WireServerReport> {
        // ordering: Release — pairs with the reactor's Acquire load so
        // everything written before shutdown is visible to it.
        self.stop.store(true, Ordering::Release);
        let handle = self.handle.take().expect("shutdown called once");
        // After the store: a reactor parked while idle wakes to see it.
        handle.thread().unpark();
        handle
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p))
    }
}

// ------------------------------------------------------------ reactor

/// The reactor's first idle park. A client's next frame usually lands
/// within tens of µs of the previous response, so short early polls
/// catch it.
const IDLE_PARK_MIN: Duration = Duration::from_micros(20);

/// The idle park's ceiling: the park doubles on each idle turn up to
/// this, which bounds how late a new connection or frame is noticed.
const IDLE_PARK_MAX: Duration = Duration::from_micros(500);

/// Bytes one socket read takes, into a buffer reused across reads.
const READ_CHUNK: usize = 16 * 1024;

/// The most an HTTP request head may buffer before its blank line: a
/// connection past it is read no further and answered 431. The
/// `/healthz`, `/metrics` and `/tracez` heads are about 100 B.
const HTTP_HEAD_CAP: usize = 8 * 1024;

/// The longest frame a client may send (its `len`, the bytes after the
/// length field): a connection that declares a longer one gets a
/// `frame_too_large` ERROR and is closed. A client's largest frame is
/// an OPEN, which carries three short names. Server frames are bounded
/// by [`wire::MAX_FRAME_LEN`] alone.
const CLIENT_FRAME_CAP: usize = 64 * 1024;

/// The answer to a head past [`HTTP_HEAD_CAP`].
const HEAD_TOO_LARGE: &str =
    "HTTP/1.1 431 Request Header Fields Too Large\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";

/// Per-connection protocol position.
enum ConnState {
    /// Waiting for the 4 sniff bytes: `WIVI` magic or an HTTP method.
    Sniff,
    /// Magic seen; the first frame must be HELLO.
    AwaitHello,
    /// Authenticated; accepts OPEN / CLOSE / FINISH.
    Active { token: String },
    /// FINISH received: no more commands; drain sessions then report.
    Finished,
    /// An HTTP request is accumulating (until the blank line).
    Http,
    /// Everything queued; close once the write buffer empties.
    Draining,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    rbuf: Vec<u8>,
    /// Prefix of `rbuf` already scanned for an HTTP head's blank line,
    /// so each read resumes the scan instead of restarting it.
    head_scanned: usize,
    wbuf: Vec<u8>,
    /// Prefix of `wbuf` already written to the socket.
    wpos: usize,
    /// Sessions admitted on this connection, still running.
    pending: usize,
    /// Its finished sessions: indices into the reactor's output list.
    done: Vec<usize>,
    closed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            state: ConnState::Sniff,
            rbuf: Vec::new(),
            head_scanned: 0,
            wbuf: Vec::new(),
            wpos: 0,
            pending: 0,
            done: Vec::new(),
            closed: false,
        }
    }

    /// Whether the connection holds all the unparsed input it may
    /// buffer, so that reading stops for this turn: an HTTP head past
    /// [`HTTP_HEAD_CAP`] (which `process` refuses), or one whole client
    /// frame of the largest size, length field included (`process`
    /// parses what it holds, and the next turn reads on).
    fn read_full(&self) -> bool {
        match self.state {
            ConnState::Sniff | ConnState::Http => self.rbuf.len() > HTTP_HEAD_CAP,
            _ => self.rbuf.len() >= 4 + CLIENT_FRAME_CAP,
        }
    }

    fn queue_frame(&mut self, f: &Frame) {
        f.encode_into(&mut self.wbuf);
    }

    /// Frames `payload` under `tag` straight into the write buffer —
    /// the canonical bytes go on the wire untouched.
    fn queue_raw(&mut self, tag: u8, payload: &[u8]) {
        let len = (payload.len() + 2) as u32;
        self.wbuf.extend_from_slice(&len.to_le_bytes());
        self.wbuf.push(wire::WIRE_VERSION);
        self.wbuf.push(tag);
        self.wbuf.extend_from_slice(payload);
    }

    fn queue_error(&mut self, code: &str, id: SessionId, message: String) {
        self.queue_frame(&Frame::Error {
            code: code.to_owned(),
            id,
            message,
        });
    }

    /// Queues an error and ends the conversation.
    fn fail(&mut self, code: &str, message: String) {
        self.queue_error(code, 0, message);
        self.queue_frame(&Frame::Bye);
        self.state = ConnState::Draining;
    }
}

/// The cumulative values the rolling `/metrics` and `/healthz` lines
/// diff, read together so that every rolling value spans one interval.
#[derive(Clone)]
struct Totals {
    /// All shards' batch latency, merged.
    batch_latency_ns: HistogramSnapshot,
    /// `serve.slo.windows`.
    slo_windows: u64,
    /// `serve.slo.windows_over`.
    slo_windows_over: u64,
    /// `serve.admission.shed`.
    shed: u64,
}

impl Totals {
    fn read(engine: &ServeEngine, shed: &Counter) -> Self {
        let snap = engine.snapshot();
        Self {
            batch_latency_ns: snap.batch_latency_ns(),
            slo_windows: snap.slo.windows,
            slo_windows_over: snap.slo.windows_over,
            shed: shed.value(),
        }
    }

    /// What accrued since `base`, an earlier reading; everything when
    /// there is none.
    fn since(&self, base: Option<&Self>) -> Self {
        let Some(base) = base else {
            return self.clone();
        };
        Self {
            batch_latency_ns: self.batch_latency_ns.diff(&base.batch_latency_ns),
            slo_windows: self.slo_windows.saturating_sub(base.slo_windows),
            slo_windows_over: self.slo_windows_over.saturating_sub(base.slo_windows_over),
            shed: self.shed.saturating_sub(base.shed),
        }
    }
}

struct Reactor {
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    engine: ServeEngine,
    /// Every output drained from the engine, in drain order; handed
    /// back to the engine at shutdown so the final report holds them.
    outputs: Vec<SessionOutput>,
    admission: Admission,
    scenes: Vec<(String, SceneHandle)>,
    configs: Vec<(String, WiViConfig)>,
    grace: Duration,
    conns: Vec<Option<Conn>>,
    /// session id → slot in `conns`, for completion routing.
    owner: HashMap<SessionId, usize>,
    accepted: usize,
    /// The admission gate's shed counter (`serve.admission.shed`).
    shed: Counter,
    /// [`Totals`] once a second, ticked every turn: the baselines of the
    /// rolling lines.
    ticks: TickRing<Totals>,
    /// Scratch every socket read fills, allocated once so that no
    /// turn zeroes a fresh buffer per connection.
    read_buf: Box<[u8]>,
    /// HTTP heads refused for passing [`HTTP_HEAD_CAP`]
    /// (`serve.http.head_too_large`).
    heads_too_large: Counter,
    /// Client frames refused for declaring a length past
    /// [`CLIENT_FRAME_CAP`] (`serve.wire.frame_too_large`).
    frames_too_large: Counter,
}

impl Reactor {
    fn new(cfg: WireServerConfig, listener: TcpListener, stop: Arc<AtomicBool>) -> Self {
        let engine = ServeEngine::start(cfg.serve);
        let admission = Admission::new(cfg.admission, engine.registry());
        // Same get-or-create name the admission gate records into, so
        // this is the live counter, not a copy.
        let shed = engine.registry().counter("serve.admission.shed");
        let heads_too_large = engine.registry().counter("serve.http.head_too_large");
        let frames_too_large = engine.registry().counter("serve.wire.frame_too_large");
        Reactor {
            listener,
            stop,
            engine,
            outputs: Vec::new(),
            admission,
            scenes: cfg.scenes,
            configs: cfg.configs,
            grace: cfg.shutdown_grace,
            conns: Vec::new(),
            owner: HashMap::new(),
            accepted: 0,
            shed,
            ticks: TickRing::default(),
            read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
            heads_too_large,
            frames_too_large,
        }
    }

    fn run(mut self) -> std::io::Result<WireServerReport> {
        self.engine.completions().register_waker();
        let mut stopping: Option<Instant> = None;
        let mut idle_park = IDLE_PARK_MIN;
        loop {
            let mut progressed = false;
            if stopping.is_none() {
                progressed |= self.accept_new();
                // ordering: Acquire — pairs with the Release store in
                // shutdown(); see there.
                if self.stop.load(Ordering::Acquire) {
                    stopping = Some(Instant::now());
                }
            }
            progressed |= self.pump_reads();
            progressed |= self.route_completions();
            self.flush_finished();
            progressed |= self.pump_writes();
            self.reap();
            self.ticks
                .tick(clock_ns(), || Totals::read(&self.engine, &self.shed));
            if let Some(t0) = stopping {
                let drained = self.conns.iter().all(Option::is_none);
                if drained || t0.elapsed() > self.grace {
                    break;
                }
            }
            if progressed {
                idle_park = IDLE_PARK_MIN;
            } else {
                // A completion push or shutdown() unparks at once;
                // sockets are found by the next poll.
                std::thread::park_timeout(idle_park);
                idle_park = (idle_park * 2).min(IDLE_PARK_MAX);
            }
        }
        // Snapshot admission counters before the engine (and its
        // registry) is consumed by finish().
        let snap = self.engine.registry().snapshot(false);
        let admitted = snap.counter("serve.admission.admitted").unwrap_or(0);
        let shed = snap.counter("serve.admission.shed").unwrap_or(0);
        let report = self.engine.finish_with(self.outputs);
        Ok(WireServerReport {
            report,
            connections: self.accepted,
            admitted,
            shed,
        })
    }

    fn accept_new(&mut self) -> bool {
        let mut any = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    self.accepted += 1;
                    any = true;
                    let conn = Conn::new(stream);
                    match self.conns.iter().position(Option::is_none) {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        any
    }

    fn pump_reads(&mut self) -> bool {
        let mut any = false;
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if conn.closed || matches!(conn.state, ConnState::Draining) {
                continue;
            }
            while !conn.read_full() {
                match conn.stream.read(&mut self.read_buf) {
                    Ok(0) => {
                        conn.closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&self.read_buf[..n]);
                        any = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.closed = true;
                        break;
                    }
                }
            }
            self.process(slot);
        }
        any
    }

    /// Advances one connection's protocol as far as its read buffer
    /// allows.
    fn process(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            match &conn.state {
                ConnState::Sniff => {
                    if conn.rbuf.len() < 4 {
                        return;
                    }
                    if conn.rbuf[..4] == MAGIC {
                        conn.rbuf.drain(..4);
                        conn.state = ConnState::AwaitHello;
                    } else {
                        // Anything else is treated as HTTP (in practice
                        // `GET `): the same port serves /metrics.
                        conn.state = ConnState::Http;
                    }
                }
                ConnState::Http => {
                    // Resume 3 bytes back: a terminator may straddle
                    // the last read.
                    let from = conn.head_scanned.saturating_sub(3);
                    let Some(end) = find_blank_line(&conn.rbuf, from) else {
                        if conn.rbuf.len() > HTTP_HEAD_CAP {
                            conn.rbuf = Vec::new();
                            conn.wbuf.extend_from_slice(HEAD_TOO_LARGE.as_bytes());
                            conn.state = ConnState::Draining;
                            self.heads_too_large.inc();
                        } else {
                            conn.head_scanned = conn.rbuf.len();
                        }
                        return;
                    };
                    let head = String::from_utf8_lossy(&conn.rbuf[..end]).into_owned();
                    conn.rbuf.clear();
                    let response = self.http_response(&head);
                    let conn = self.conns[slot].as_mut().expect("slot live");
                    conn.wbuf.extend_from_slice(response.as_bytes());
                    conn.state = ConnState::Draining;
                }
                ConnState::Draining | ConnState::Finished => return,
                ConnState::AwaitHello | ConnState::Active { .. } => {
                    let declared = conn.rbuf.first_chunk::<4>().map(|b| u32::from_le_bytes(*b));
                    if let Some(len) = declared.filter(|&n| n as usize > CLIENT_FRAME_CAP) {
                        conn.rbuf = Vec::new();
                        conn.fail(
                            "frame_too_large",
                            format!("frame of {len} B exceeds the {CLIENT_FRAME_CAP} B cap"),
                        );
                        self.frames_too_large.inc();
                        return;
                    }
                    let frame = match wire::split_frame(&conn.rbuf) {
                        Ok(Some((frame, used))) => {
                            conn.rbuf.drain(..used);
                            frame
                        }
                        Ok(None) => return,
                        Err(e) => {
                            conn.fail("wire", format!("malformed frame: {e}"));
                            return;
                        }
                    };
                    self.handle_frame(slot, frame);
                }
            }
        }
    }

    fn handle_frame(&mut self, slot: usize, frame: Frame) {
        let conn = self.conns[slot].as_mut().expect("slot live");
        match (&conn.state, frame) {
            (ConnState::AwaitHello, Frame::Hello { token }) => {
                match self.admission.authenticate(&token) {
                    Ok(()) => {
                        conn.queue_frame(&Frame::HelloOk);
                        conn.state = ConnState::Active { token };
                    }
                    Err(e) => conn.fail(e.code(), e.to_string()),
                }
            }
            (ConnState::AwaitHello, _) => {
                conn.fail("protocol", "first frame must be HELLO".into());
            }
            (ConnState::Active { token }, Frame::Open(req)) => {
                let token = token.clone();
                self.handle_open(slot, &token, req);
            }
            (ConnState::Active { .. }, Frame::Close { id }) => {
                // Only the connection that opened a session may close
                // it. Other ids draw no ERROR, as the shard ignores
                // unknown and finished ids: an owner's CLOSE that races
                // its session's completion lands here too.
                if self.owner.get(&id) != Some(&slot) {
                    return;
                }
                if let Err(e) = self.engine.close(id) {
                    let conn = self.conns[slot].as_mut().expect("slot live");
                    conn.queue_error(e.tag(), id, e.to_string());
                }
            }
            (ConnState::Active { .. }, Frame::Finish) => {
                conn.state = ConnState::Finished;
            }
            (ConnState::Active { .. }, other) => {
                conn.fail("protocol", format!("unexpected client frame: {other:?}"));
            }
            // Unreachable by construction: process() stops feeding
            // frames in the other states.
            (_, _) => {}
        }
    }

    fn handle_open(&mut self, slot: usize, token: &str, req: OpenRequest) {
        let id = req.id;
        let Some(mode) = Mode::from_tag(&req.mode) else {
            let conn = self.conns[slot].as_mut().expect("slot live");
            conn.queue_error("unknown_mode", id, format!("no mode '{}'", req.mode));
            return;
        };
        let Some(scene) = self
            .scenes
            .iter()
            .find(|(n, _)| *n == req.scene)
            .map(|(_, s)| s.clone())
        else {
            let conn = self.conns[slot].as_mut().expect("slot live");
            conn.queue_error("unknown_scene", id, format!("no scene '{}'", req.scene));
            return;
        };
        let Some(config) = self
            .configs
            .iter()
            .find(|(n, _)| *n == req.config)
            .map(|(_, c)| *c)
        else {
            let conn = self.conns[slot].as_mut().expect("slot live");
            conn.queue_error("unknown_config", id, format!("no config '{}'", req.config));
            return;
        };
        let spec = SessionSpec {
            id,
            scene,
            config,
            seed: req.seed,
            duration_s: req.duration_s,
            start_s: req.start_s,
            mode,
            trace: req.trace.unwrap_or(0),
        };
        match self.admission.admit(token, &mut self.engine, spec) {
            Ok(shard) => {
                self.owner.insert(id, slot);
                let conn = self.conns[slot].as_mut().expect("slot live");
                conn.pending += 1;
                conn.queue_frame(&Frame::OpenOk {
                    id,
                    shard: shard as u32,
                });
            }
            Err(e) => {
                let conn = self.conns[slot].as_mut().expect("slot live");
                conn.queue_error(e.code(), id, e.to_string());
            }
        }
    }

    /// Drains the completion queue onto the output list and hands each
    /// finished session's index to the connection that opened it.
    fn route_completions(&mut self) -> bool {
        let from = self.outputs.len();
        self.engine.completions().drain_into(&mut self.outputs);
        for i in from..self.outputs.len() {
            let id = self.outputs[i].id;
            self.admission.session_done(id);
            let Some(slot) = self.owner.remove(&id) else {
                continue; // session opened in-process or conn long gone
            };
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.pending = conn.pending.saturating_sub(1);
                conn.done.push(i);
            }
        }
        self.outputs.len() > from
    }

    /// For each FINISHed connection whose sessions have all completed:
    /// replay the engine's event merge over its outputs, then write
    /// EVENT* OUTPUT* BYE — the same deterministic function of the
    /// session set as the in-process report.
    fn flush_finished(&mut self) {
        for conn in self.conns.iter_mut().flatten() {
            if !matches!(conn.state, ConnState::Finished) || conn.pending > 0 {
                continue;
            }
            let mut done = std::mem::take(&mut conn.done);
            done.sort_by_key(|&i| self.outputs[i].id);
            let done = done.iter().map(|&i| &self.outputs[i]);
            for e in &merge_session_events(done.clone()) {
                conn.queue_raw(wire::tag::EVENT, &wire::encode_serve_event(e));
            }
            for out in done {
                conn.queue_raw(wire::tag::OUTPUT, &wire::encode_session_output(out));
            }
            conn.queue_frame(&Frame::Bye);
            conn.state = ConnState::Draining;
        }
    }

    fn pump_writes(&mut self) -> bool {
        let mut any = false;
        for conn in self.conns.iter_mut().flatten() {
            if conn.closed {
                continue;
            }
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        conn.closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.wpos += n;
                        any = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.closed = true;
                        break;
                    }
                }
            }
            if conn.wpos == conn.wbuf.len() && conn.wpos > 0 {
                conn.wbuf.clear();
                conn.wpos = 0;
            }
        }
        any
    }

    /// Releases connections that are done: drained and flushed, or
    /// dead. Their still-running sessions keep running (the engine owns
    /// them); their completions will simply find no owner.
    fn reap(&mut self) {
        for slot in 0..self.conns.len() {
            let done = match &self.conns[slot] {
                Some(c) => {
                    c.closed
                        || (matches!(c.state, ConnState::Draining)
                            && c.wpos == c.wbuf.len()
                            && c.wbuf.is_empty())
                }
                None => false,
            };
            if done {
                if let Some(c) = self.conns[slot].take().filter(|c| !c.closed) {
                    // FIN before close: bytes the peer sent that were
                    // never read (a refused head's tail) turn the close
                    // into a reset, and the FIN ahead of it lets the
                    // peer read the answer and then a clean end of
                    // stream.
                    let _ = c.stream.shutdown(Shutdown::Write);
                }
                self.owner.retain(|_, s| *s != slot);
            }
        }
    }

    fn http_response(&self, head: &str) -> String {
        let path = head.split_whitespace().nth(1).unwrap_or("/");
        match path {
            "/metrics" => {
                let mut snap = self.engine.registry().snapshot(false);
                self.append_rolling(&mut snap);
                wivi_obs::export::to_prometheus_http(&snap)
            }
            "/healthz" => {
                let (status, body) = self.healthz_json();
                http_json(status, &body)
            }
            "/tracez" => http_json("200 OK", &self.tracez_json()),
            _ => "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
                .to_owned(),
        }
    }

    /// The [`Totals`] accrued over each trailing window in `windows_ns`,
    /// from one reading: now minus the ring's baseline, or since start
    /// while the server is younger than the window.
    fn rolling<const N: usize>(&self, windows_ns: [u64; N]) -> [Totals; N] {
        let now_ns = clock_ns();
        let current = Totals::read(&self.engine, &self.shed);
        windows_ns.map(|w| current.since(self.ticks.baseline(w, now_ns)))
    }

    /// Appends the rolling 10 s/60 s views as gauges, so `/metrics`
    /// carries "latency now" next to the cumulative series. Gauges, not
    /// histograms: a rolling quantile is a point-in-time readout.
    fn append_rolling(&self, snap: &mut wivi_obs::Snapshot) {
        let rolls = self.rolling([WINDOW_10S_NS, WINDOW_60S_NS]);
        for (label, roll) in ["10s", "60s"].into_iter().zip(rolls) {
            let batch = &roll.batch_latency_ns;
            for (name, value) in [
                ("batch_latency_ns.p50", batch.quantile(50.0)),
                ("batch_latency_ns.p99", batch.quantile(99.0)),
                ("batch_latency_ns.count", batch.count as f64),
                ("slo.windows", roll.slo_windows as f64),
                ("slo.windows_over", roll.slo_windows_over as f64),
                ("admission.shed", roll.shed as f64),
            ] {
                snap.gauges.push((format!("serve.{name}.{label}"), value));
            }
        }
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// The `/healthz` body: per-shard liveness and queue depth,
    /// admission totals with the rolling shed rate, and the SLO
    /// aggregate. Status 503 when any shard thread has died.
    fn healthz_json(&self) -> (&'static str, String) {
        let n_shards = self.engine.config().n_shards;
        let mut all_alive = true;
        let mut shards = String::new();
        for i in 0..n_shards {
            let alive = self.engine.shard_alive(i);
            all_alive &= alive;
            if i > 0 {
                shards.push(',');
            }
            shards.push_str(&format!(
                r#"{{"shard":{i},"alive":{alive},"queue":{}}}"#,
                self.engine.queue_len(i)
            ));
        }
        let snap = self.engine.registry().snapshot(false);
        let admitted = snap.counter("serve.admission.admitted").unwrap_or(0);
        let shed = snap.counter("serve.admission.shed").unwrap_or(0);
        let slo = self.engine.slo_summary();
        let [roll] = self.rolling([WINDOW_60S_NS]);
        let body = format!(
            concat!(
                r#"{{"status":"{status}","shards":[{shards}],"#,
                r#""connections":{conns},"admitted":{admitted},"shed":{shed},"#,
                r#""shed_per_sec_60s":{shed_rate:.6},"#,
                r#""slo":{{"budget_ns":{budget},"windows":{windows},"#,
                r#""windows_over":{over},"burn_rate":{burn:.6},"#,
                r#""burn_rate_60s":{burn60:.6},"worst_ns":{worst},"#,
                r#""breached_sessions":{breached}}},"#,
                r#""obs_enabled":{obs}}}"#
            ),
            status = if all_alive { "ok" } else { "degraded" },
            shards = shards,
            conns = self.accepted,
            admitted = admitted,
            shed = shed,
            shed_rate = roll.shed as f64 * 1e9 / WINDOW_60S_NS as f64,
            budget = slo.budget_ns,
            windows = slo.windows,
            over = slo.windows_over,
            burn = slo.burn_rate(),
            burn60 = if roll.slo_windows == 0 {
                0.0
            } else {
                roll.slo_windows_over as f64 / roll.slo_windows as f64
            },
            worst = slo.worst_ns,
            breached = slo.breached_sessions,
            obs = wivi_obs::enabled(),
        );
        (
            if all_alive {
                "200 OK"
            } else {
                "503 Service Unavailable"
            },
            body,
        )
    }

    /// The `/tracez` body: a non-destructive snapshot of the span
    /// flight recorder grouped by trace id (untraced spans are left to
    /// the drain path), plus the incident buffer.
    fn tracez_json(&self) -> String {
        let spans = wivi_obs::snapshot_spans();
        let mut order: Vec<u64> = Vec::new();
        let mut groups: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        for rec in &spans {
            if rec.trace == 0 {
                continue;
            }
            groups
                .entry(rec.trace)
                .or_insert_with(|| {
                    order.push(rec.trace);
                    Vec::new()
                })
                .push(rec);
        }
        let mut traces = String::new();
        for (i, trace) in order.iter().enumerate() {
            if i > 0 {
                traces.push(',');
            }
            traces.push_str(&format!(
                r#"{{"trace":"{}","spans":[{}]}}"#,
                fmt_trace(*trace),
                join_spans(groups[trace].iter().copied())
            ));
        }
        let incidents = wivi_obs::incidents();
        let mut inc = String::new();
        for (i, it) in incidents.iter().enumerate() {
            if i > 0 {
                inc.push(',');
            }
            inc.push_str(&incident_json(it));
        }
        format!(
            r#"{{"traces":[{traces}],"incidents":[{inc}],"spans_overwritten":{}}}"#,
            wivi_obs::overwritten()
        )
    }
}

/// Wraps a JSON body in a minimal HTTP/1.1 response.
fn http_json(status: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

fn span_json(rec: &SpanRecord) -> String {
    format!(
        r#"{{"name":"{}","arg":{},"start_ns":{},"dur_ns":{},"thread":{}}}"#,
        rec.name, rec.arg, rec.start_ns, rec.dur_ns, rec.thread
    )
}

fn join_spans<'a>(recs: impl Iterator<Item = &'a SpanRecord>) -> String {
    let mut out = String::new();
    for (i, rec) in recs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&span_json(rec));
    }
    out
}

/// One incident row. The captured spans are bounded at the source
/// ([`wivi_obs::spans::INCIDENT_SPAN_CAP`]); the JSON keeps only the
/// newest few per incident and reports the full count.
fn incident_json(it: &Incident) -> String {
    const JSON_SPAN_CAP: usize = 32;
    let tail = &it.spans[it.spans.len().saturating_sub(JSON_SPAN_CAP)..];
    format!(
        concat!(
            r#"{{"seq":{},"reason":"{}","arg":{},"trace":"{}","#,
            r#""worst_ns":{},"at_ns":{},"spans_total":{},"spans":[{}]}}"#
        ),
        it.seq,
        it.reason,
        it.arg,
        fmt_trace(it.trace),
        it.worst_ns,
        it.at_ns,
        it.spans.len(),
        join_spans(tail.iter())
    )
}

/// The end of an HTTP head (just past its first `\r\n\r\n`), scanning
/// from byte `from`.
fn find_blank_line(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| from + i + 4)
}

// ------------------------------------------------------------- client

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    Wire(WireError),
    /// The server answered with an `ERROR` frame.
    Server {
        code: String,
        id: SessionId,
        message: String,
    },
    /// The server sent a legal frame the client did not expect here.
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Server { code, id, message } => {
                write!(f, "server error [{code}] session {id}: {message}")
            }
            ClientError::Protocol(what) => write!(f, "protocol: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// What [`WireClient::finish`] collects: the connection's merged event
/// stream and its outputs (id order), both decoded *and* as the raw
/// payload bytes the server sent — the bytes are the equivalence
/// contract.
pub struct FinishReport {
    pub events: Vec<ServeEvent>,
    pub outputs: Vec<WireOutput>,
    /// Raw EVENT frame payloads, in arrival (= merge) order.
    pub event_bytes: Vec<Vec<u8>>,
    /// Raw OUTPUT frame payloads, in arrival (= id) order.
    pub output_bytes: Vec<Vec<u8>>,
}

/// A small blocking client for the wire protocol — what tests, the
/// bench soak, and the CI smoke speak.
pub struct WireClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Scratch every socket read fills, allocated once so that no
    /// frame zeroes a fresh buffer.
    read_buf: Box<[u8]>,
    /// Trace-id source for opens that did not bring their own id:
    /// seeded from the token *and* the connection's local socket
    /// address (no wall clock), stepped once per traced open.
    traces: TraceIdGen,
    /// The trace id the last [`open`](Self::open) carried (0 =
    /// untraced).
    last_trace: u64,
}

impl WireClient {
    /// Connects, sends the magic, and authenticates. The client's
    /// trace-id generator is seeded from the token mixed with the
    /// connection's local socket address — two concurrent clients
    /// sharing a token still get disjoint id streams, without a wall
    /// clock. For a fully deterministic replay, reseed explicitly
    /// with [`Self::trace_seed`].
    pub fn connect(addr: SocketAddr, token: &str) -> Result<WireClient, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.write_all(&MAGIC)?;
        let mut seed = fnv1a(token.as_bytes());
        if let Ok(local) = stream.local_addr() {
            seed = fnv1a_more(seed, local.to_string().as_bytes());
        }
        let mut client = WireClient {
            stream,
            rbuf: Vec::new(),
            read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
            traces: TraceIdGen::new(seed),
            last_trace: 0,
        };
        client.send(&Frame::Hello {
            token: token.to_owned(),
        })?;
        match client.read_frame()?.0 {
            Frame::HelloOk => Ok(client),
            Frame::Error { code, id, message } => Err(ClientError::Server { code, id, message }),
            _ => Err(ClientError::Protocol("expected HELLO_OK")),
        }
    }

    /// Reseeds the trace-id generator — the deterministic-replay
    /// override: the default seed mixes in the ephemeral local port,
    /// so a driver that needs reproducible ids sets its own seed here.
    pub fn trace_seed(&mut self, seed: u64) {
        self.traces = TraceIdGen::new(seed);
    }

    /// The trace id the most recent [`open`](Self::open) carried, 0
    /// when it ran untraced — what a caller correlates against
    /// `/tracez` and the server-side session spans.
    pub fn last_trace(&self) -> u64 {
        self.last_trace
    }

    fn send(&mut self, f: &Frame) -> Result<(), ClientError> {
        self.stream.write_all(&f.encode())?;
        Ok(())
    }

    /// Reads one frame; returns it plus its raw payload bytes (after
    /// the version and type bytes).
    fn read_frame(&mut self) -> Result<(Frame, Vec<u8>), ClientError> {
        loop {
            if let Some((frame, used)) = wire::split_frame(&self.rbuf)? {
                // split_frame only succeeds with `used` = 4 + len ≥ 6
                // and the whole frame buffered; get() spells the
                // invariant without a panic path.
                let payload = self.rbuf.get(6..used).unwrap_or(&[]).to_vec();
                self.rbuf.drain(..used);
                return Ok((frame, payload));
            }
            let n = self.stream.read(&mut self.read_buf)?;
            if n == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed mid-frame",
                )));
            }
            self.rbuf
                .extend_from_slice(self.read_buf.get(..n).unwrap_or(&self.read_buf));
        }
    }

    /// Opens a session; returns the shard it was placed on.
    ///
    /// With observability on, an `OPEN` that did not bring its own
    /// trace id gets one from the client's generator; the id rides the
    /// wire into the server-side session spans, and the whole
    /// OPEN → OPEN_OK round trip is recorded client-side as a
    /// `client.open_rtt` span under the same id — one trace links both
    /// ends.
    pub fn open(&mut self, mut req: OpenRequest) -> Result<u32, ClientError> {
        if req.trace.is_none() && wivi_obs::enabled() {
            req.trace = Some(self.traces.next_id());
        }
        self.last_trace = req.trace.unwrap_or(0);
        let _span = wivi_obs::span_traced("client.open_rtt", req.id, self.last_trace);
        let want = req.id;
        self.send(&Frame::Open(req))?;
        match self.read_frame()?.0 {
            Frame::OpenOk { id, shard } if id == want => Ok(shard),
            Frame::OpenOk { .. } => Err(ClientError::Protocol("OPEN_OK for a different id")),
            Frame::Error { code, id, message } => Err(ClientError::Server { code, id, message }),
            _ => Err(ClientError::Protocol("expected OPEN_OK")),
        }
    }

    /// Requests an early close of `id`, a session this connection
    /// opened; the server ignores any other id.
    pub fn close_session(&mut self, id: SessionId) -> Result<(), ClientError> {
        self.send(&Frame::Close { id })
    }

    /// Declares the conversation over and blocks until the server has
    /// drained every session opened here, returning the merged events
    /// and outputs.
    pub fn finish(mut self) -> Result<FinishReport, ClientError> {
        self.send(&Frame::Finish)?;
        let mut report = FinishReport {
            events: Vec::new(),
            outputs: Vec::new(),
            event_bytes: Vec::new(),
            output_bytes: Vec::new(),
        };
        loop {
            let (frame, payload) = self.read_frame()?;
            match frame {
                Frame::Event(e) => {
                    report.events.push(e);
                    report.event_bytes.push(payload);
                }
                Frame::Output(o) => {
                    report.outputs.push(o);
                    report.output_bytes.push(payload);
                }
                Frame::Error { code, id, message } => {
                    return Err(ClientError::Server { code, id, message })
                }
                Frame::Bye => return Ok(report),
                _ => return Err(ClientError::Protocol("unexpected frame during drain")),
            }
        }
    }
}
