//! Sessions: what one subscriber asks the serving engine to sense.
//!
//! A [`SessionSpec`] is a self-contained description of one sensing
//! session — the scene behind the wall (owned, or shared through a
//! [`SceneHandle`] from a [`SceneStore`](wivi_rf::SceneStore)), the
//! device configuration, the deterministic seed, how long to record,
//! and which [`Mode`] to run. The engine routes it to a worker shard,
//! which owns the session through its lifecycle (open → stream → drain
//! → close) and produces a [`SessionOutput`].
//!
//! The per-session streaming state (`ActiveSession`, crate-private) is
//! the device plus the mode's session, which owns its per-window engine
//! and so its scratch (the correlation matrix, the eigendecomposition
//! workspace, the image buffer); the engines' steering tables are shared
//! by the whole process through [`wivi_core::TableStore`].

use std::time::Duration;

use wivi_core::{WiViConfig, WiViDevice};
use wivi_num::Complex64;
use wivi_rf::SceneHandle;

use crate::mode::{Mode, ModeOutput, ModeSession};
use crate::shard::SessionMetrics;

/// Session identity. Must be unique across the engine's lifetime; ties
/// in the merged event stream break by it, and shard routing hashes it.
pub type SessionId = u64;

/// One session request, self-contained and owned (it moves to a shard
/// thread). Construct with [`SessionSpec::new`] or, field by field, with
/// [`SessionSpec::builder`].
pub struct SessionSpec {
    pub id: SessionId,
    /// The scene this session senses. A [`SceneHandle`] is a shared
    /// immutable view: fleet-style sessions observing the same room
    /// clone the handle (an `Arc` bump), not the scene. An owned
    /// [`Scene`](wivi_rf::Scene) converts implicitly.
    pub scene: SceneHandle,
    pub config: WiViConfig,
    /// Deterministic seed for the session's radio noise and trajectories.
    pub seed: u64,
    /// Recording duration, simulated seconds.
    pub duration_s: f64,
    /// Serving-clock offset of the session's start: event timestamps in
    /// the engine's merged stream are `start_s` + the session-relative
    /// window time.
    pub start_s: f64,
    /// The sensing mode to run.
    pub mode: Mode,
    /// Request trace id linking this session's open/step/drain spans to
    /// the client-side open span (0 = untraced). Observability only:
    /// the session's outputs and events are bitwise independent of it.
    pub trace: u64,
}

impl SessionSpec {
    /// A spec starting at serving-clock zero. `scene` may be owned or a
    /// shared handle.
    pub fn new(
        id: SessionId,
        scene: impl Into<SceneHandle>,
        config: WiViConfig,
        seed: u64,
        duration_s: f64,
        mode: Mode,
    ) -> Self {
        Self {
            id,
            scene: scene.into(),
            config,
            seed,
            duration_s,
            start_s: 0.0,
            mode,
            trace: 0,
        }
    }

    /// Starts a field-by-field builder for session `id`.
    pub fn builder(id: SessionId) -> SessionSpecBuilder {
        SessionSpecBuilder {
            id,
            scene: None,
            config: WiViConfig::paper_default(),
            seed: 0,
            duration_s: None,
            start_s: 0.0,
            mode: None,
            trace: 0,
        }
    }
}

/// Builder for [`SessionSpec`]: scene, duration, and mode are required;
/// the configuration defaults to [`WiViConfig::paper_default`], the
/// seed to 0, and the start offset to serving-clock zero.
///
/// ```
/// use wivi_rf::{Material, Scene, SceneStore};
/// use wivi_serve::{Mode, SessionSpec};
///
/// let mut store = SceneStore::new();
/// let room = store.insert("lab", Scene::new(Material::HollowWall6In));
/// let spec = SessionSpec::builder(7)
///     .scene(room.clone()) // an Arc bump, not a scene copy
///     .seed(42)
///     .duration_s(4.0)
///     .start_s(1.5)
///     .mode(Mode::Count)
///     .build();
/// assert_eq!(spec.mode.tag(), "count");
/// ```
pub struct SessionSpecBuilder {
    id: SessionId,
    scene: Option<SceneHandle>,
    config: WiViConfig,
    seed: u64,
    duration_s: Option<f64>,
    start_s: f64,
    mode: Option<Mode>,
    trace: u64,
}

impl SessionSpecBuilder {
    /// The scene to sense — an owned [`Scene`](wivi_rf::Scene) or a
    /// shared [`SceneHandle`]. Required.
    pub fn scene(mut self, scene: impl Into<SceneHandle>) -> Self {
        self.scene = Some(scene.into());
        self
    }

    /// The device configuration (default: the paper's parameters).
    pub fn config(mut self, config: WiViConfig) -> Self {
        self.config = config;
        self
    }

    /// The deterministic seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Recording duration, simulated seconds. Required.
    pub fn duration_s(mut self, duration_s: f64) -> Self {
        self.duration_s = Some(duration_s);
        self
    }

    /// Serving-clock offset of the session's start (default 0).
    pub fn start_s(mut self, start_s: f64) -> Self {
        self.start_s = start_s;
        self
    }

    /// The sensing mode. Required.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// The request trace id carried into the session's spans
    /// (default 0 = untraced).
    pub fn trace(mut self, trace: u64) -> Self {
        self.trace = trace;
        self
    }

    /// Assembles the spec.
    ///
    /// # Panics
    /// Panics if the scene, duration, or mode was not set.
    pub fn build(self) -> SessionSpec {
        let id = self.id;
        SessionSpec {
            id,
            scene: self
                .scene
                .unwrap_or_else(|| panic!("session {id}: no scene set")),
            config: self.config,
            seed: self.seed,
            duration_s: self
                .duration_s
                .unwrap_or_else(|| panic!("session {id}: no duration set")),
            start_s: self.start_s,
            mode: self
                .mode
                .unwrap_or_else(|| panic!("session {id}: no mode set")),
            trace: self.trace,
        }
    }
}

/// Everything one session produced, plus serving telemetry.
#[derive(Clone, Debug)]
pub struct SessionOutput {
    pub id: SessionId,
    /// The shard that served the session.
    pub shard: usize,
    /// The tag of the mode the session ran ([`Mode::tag`]).
    pub mode: &'static str,
    pub start_s: f64,
    /// Channel samples requested (`duration_s` at the radio's rate).
    pub n_requested: usize,
    /// Channel samples actually streamed (< requested iff the session
    /// was closed early).
    pub n_samples: usize,
    /// Spectrogram columns (analysis windows) processed.
    pub n_columns: usize,
    /// `true` if an external `close()` cut the session short.
    pub closed_early: bool,
    /// Nulling achieved at session open, dB.
    pub nulling_db: f64,
    /// The mode's payload; its tracker events are
    /// [`ModeOutput::events`].
    pub result: ModeOutput,
    /// Calibration wall-clock at open, seconds.
    pub calibrate_s: f64,
    /// Summed per-batch processing wall-clock, seconds.
    pub stream_s: f64,
}

/// A session being served by a shard: the device plus the mode's
/// streaming session.
pub(crate) struct ActiveSession {
    pub(crate) id: SessionId,
    mode: Mode,
    start_s: f64,
    dev: WiViDevice,
    session: Box<dyn ModeSession>,
    n_requested: usize,
    remaining: usize,
    nulling_db: f64,
    calibrate: Duration,
    /// Summed per-batch processing wall-clock.
    pub(crate) stream: Duration,
    /// Set by an external close: drain at the next batch boundary.
    pub(crate) closing: bool,
    /// Request trace id carried into every lifecycle span (0 =
    /// untraced).
    pub(crate) trace: u64,
    /// Set by the shard at the session's first batch window over the
    /// SLO hop budget, so the breach is counted and captured once.
    pub(crate) breached: bool,
}

impl ActiveSession {
    /// Opens the session: builds the device, calibrates (timing it), and
    /// opens the mode's session against the *effective*
    /// configuration (the device derives the MUSIC noise floor from the
    /// radio), exactly as the standalone entry points do.
    pub(crate) fn open(spec: SessionSpec) -> Self {
        let _span = wivi_obs::span_traced("session.open", spec.id, spec.trace);
        let SessionSpec {
            id,
            scene,
            config,
            seed,
            duration_s,
            start_s,
            mode,
            trace,
        } = spec;
        let mut dev = WiViDevice::new(scene, config, seed);
        let t0 = std::time::Instant::now();
        let nulling_db = dev.calibrate().nulling_db();
        let calibrate = t0.elapsed();
        let eff = *dev.config();
        let session = mode.open(&dev, &eff);
        let n_requested = dev.trace_len(duration_s);
        Self {
            id,
            mode,
            start_s,
            dev,
            session,
            n_requested,
            remaining: n_requested,
            nulling_db,
            calibrate,
            stream: Duration::ZERO,
            closing: false,
            trace,
            breached: false,
        }
    }

    /// `true` once the session has nothing left to stream (exhausted or
    /// closing) and should be drained.
    pub(crate) fn done_streaming(&self) -> bool {
        self.remaining == 0 || self.closing
    }

    /// Advances the session by one batch of at most `batch_len` samples.
    /// `scratch` is the shard's reused sample buffer.
    pub(crate) fn step(&mut self, batch_len: usize, scratch: &mut Vec<Complex64>) {
        let n = batch_len.min(self.remaining);
        if n == 0 {
            return;
        }
        let _span = wivi_obs::span_traced("session.step", self.id, self.trace);
        self.dev.observe_batch_into(n, scratch);
        self.remaining -= n;
        self.session.step(scratch);
    }

    /// Drains the session into its output (the close step of the
    /// lifecycle) and records it in the engine's per-session
    /// histograms. Consumes the session; the device is dropped here.
    pub(crate) fn finalize(self, shard: usize, metrics: &SessionMetrics) -> SessionOutput {
        let _span = wivi_obs::span_traced("session.drain", self.id, self.trace);
        metrics.record(self.mode, self.calibrate, self.stream, self.nulling_db);
        let n_samples = self.n_requested - self.remaining;
        let closed_early = self.remaining > 0;
        let n_columns = self.session.columns();
        let result = self.session.finish();
        SessionOutput {
            id: self.id,
            shard,
            mode: self.mode.tag(),
            start_s: self.start_s,
            n_requested: self.n_requested,
            n_samples,
            n_columns,
            closed_early,
            nulling_db: self.nulling_db,
            result,
            calibrate_s: self.calibrate.as_secs_f64(),
            stream_s: self.stream.as_secs_f64(),
        }
    }
}
