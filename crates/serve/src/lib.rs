//! `wivi-serve` — the sharded multi-session serving engine.
//!
//! The paper's end state is a device that continuously sees through a
//! wall; the roadmap's end state is that capability *as a service* —
//! many concurrent sensing sessions multiplexed on one machine. This
//! crate is that serving layer:
//!
//! * [`SensingMode`] — the pluggable read-out API: one radio, many
//!   inference heads. The five built-ins live in [`modes`]
//!   (track / track-targets / count / gestures / image); any crate can
//!   define a sixth (see the example below) — the engine dispatches
//!   through type-erased [`ModeRef`]s and never enumerates modes.
//! * [`ModeRegistry`] — the one table mapping stable tags to modes;
//!   [`ModeRegistry::builtin`] holds the native five.
//! * [`SessionSpec`] — one session: a scene (owned, or shared through a
//!   [`SceneHandle`](wivi_rf::SceneHandle) from a copy-on-write
//!   [`SceneStore`](wivi_rf::SceneStore) so fleet sessions observing the
//!   same room share one scene), a device configuration, a seed, a
//!   duration, and a mode. Built with [`SessionSpec::new`] or the
//!   [`SessionSpec::builder`].
//! * [`ServeEngine`] — owns N worker shards; sessions route to shards by
//!   a stable hash of their id, stream incrementally in fixed-size
//!   batches, and obey the lifecycle open → stream → drain → close.
//!   Each shard's bounded command queue gives [`ServeEngine::open`]
//!   backpressure semantics; [`ServeEngine::close`] cuts a session short
//!   at its next batch boundary.
//! * [`ServeReport`] — per-session outputs plus the unified
//!   timestamp-ordered event stream merged across sessions
//!   ([`wivi_num::merge_streams`]) and per-shard utilization / batch
//!   latency telemetry.
//!
//! Shards extend the PR-1 zero-allocation design from per-device to
//! per-shard: all sessions on a shard share one set of per-window
//! engines (steering tables, correlation matrix, eig workspace) through
//! the keyed [`EngineCache`] — a registry open to any engine type via
//! [`ShardEngine`], so new modes bring their own shard-resident engines.
//!
//! **The serving contract is bitwise.** A served session runs the same
//! per-mode session type as the device's own entry points (see
//! [`modes`]), so it produces exactly the standalone output for every
//! shard count and submission order (`tests/serving_equivalence.rs` and
//! the determinism matrix pin this). Determinism is inherited, not
//! re-proven: sessions own all their state, shared engines hold no
//! cross-window state, and the event merge is a deterministic function
//! of the output set.
//!
//! ```no_run
//! use wivi_core::WiViConfig;
//! use wivi_rf::{Material, Scene, SceneStore};
//! use wivi_serve::{modes::TrackTargets, ServeConfig, ServeEngine, SessionSpec};
//!
//! // Fleet serving: 64 sessions observing ONE shared room.
//! let mut scenes = SceneStore::new();
//! let room = scenes.insert(
//!     "conference-small",
//!     Scene::new(Material::HollowWall6In).with_office_clutter(Scene::conference_room_small()),
//! );
//! let mut engine = ServeEngine::start(ServeConfig::with_shards(4));
//! for id in 0..64 {
//!     engine
//!         .open(
//!             SessionSpec::builder(id)
//!                 .scene(room.clone()) // an Arc bump — no per-session scene copy
//!                 .config(WiViConfig::paper_default())
//!                 .seed(1000 + id)
//!                 .duration_s(4.0)
//!                 .mode(TrackTargets)
//!                 .build(),
//!         )
//!         .unwrap();
//! }
//! let report = engine.finish();
//! println!(
//!     "{} sessions, {} events, {:.0} samples/sec",
//!     report.outputs.len(),
//!     report.events.len(),
//!     report.samples_per_sec()
//! );
//! ```
//!
//! # Defining a sensing mode outside this crate
//!
//! The mode API is the extension point: implement [`SensingMode`]
//! (bringing your own shard-resident engine through [`ShardEngine`] if
//! you need heavy per-window scratch), register it, and serve sessions
//! with it — no edits to `wivi-serve`. The example below defines a toy
//! "mean residual power" mode and runs it end-to-end:
//!
//! ```
//! use wivi_core::{EngineCache, ShardEngine, WiViConfig, WiViDevice};
//! use wivi_num::Complex64;
//! use wivi_rf::{Material, Scene};
//! use wivi_serve::{
//!     ModeOutput, ModeRegistry, SensingMode, ServeConfig, ServeEngine, SessionSpec,
//! };
//! use wivi_track::TrackEvent;
//!
//! /// A (trivial) shard-resident engine: proves downstream modes can
//! /// host their own engines in the shard's keyed cache.
//! struct PowerEngine {
//!     scale: f64,
//! }
//! impl ShardEngine for PowerEngine {
//!     type Config = u32; // cached per distinct value, like any engine
//!     fn build(cfg: &u32) -> Self {
//!         PowerEngine { scale: *cfg as f64 }
//!     }
//! }
//!
//! /// The sixth mode: mean |h|² of the nulled residual, scaled.
//! struct MeanPower;
//! struct MeanPowerState {
//!     sum: f64,
//!     n: usize,
//! }
//! impl SensingMode for MeanPower {
//!     type State = MeanPowerState;
//!     fn tag(&self) -> &'static str {
//!         "mean_power"
//!     }
//!     fn open(&self, _dev: &WiViDevice, _eff: &WiViConfig) -> MeanPowerState {
//!         MeanPowerState { sum: 0.0, n: 0 }
//!     }
//!     fn step(&self, st: &mut MeanPowerState, engines: &mut EngineCache, h: &[Complex64]) {
//!         let engine = engines.engine::<PowerEngine>(&1); // shared per shard
//!         st.sum += h.iter().map(|z| z.norm_sqr() * engine.scale).sum::<f64>();
//!         st.n += h.len();
//!     }
//!     fn columns(&self, st: &MeanPowerState) -> usize {
//!         st.n // every sample is a "window" for this toy
//!     }
//!     fn finalize(&self, st: MeanPowerState) -> (ModeOutput, Vec<TrackEvent>) {
//!         let mean = (st.n > 0).then(|| st.sum / st.n as f64);
//!         (ModeOutput::new(self.tag(), mean), Vec::new())
//!     }
//! }
//!
//! // Register it next to the built-ins and serve a session with it.
//! let mut registry = ModeRegistry::builtin();
//! let mean_power = registry.register(MeanPower);
//! assert_eq!(registry.get("mean_power").unwrap().tag(), "mean_power");
//!
//! let scene = Scene::new(Material::HollowWall6In)
//!     .with_office_clutter(Scene::conference_room_small());
//! let mut engine = ServeEngine::start(ServeConfig::with_shards(1));
//! engine
//!     .open(SessionSpec::new(
//!         1,
//!         scene,
//!         WiViConfig::fast_test(),
//!         9,
//!         0.25,
//!         mean_power,
//!     ))
//!     .unwrap();
//! let report = engine.finish();
//! let out = report.output(1).unwrap();
//! assert_eq!(out.mode, "mean_power");
//! let mean = out.result.expect::<Option<f64>>();
//! assert!(mean.unwrap() > 0.0);
//! ```

pub mod admission;
pub mod engine;
pub mod error;
pub mod mode;
pub mod modes;
pub mod net;
pub mod session;
pub mod shard;
pub mod wire;

pub use admission::{Admission, AdmissionConfig, AdmitError, TokenSpec};
pub use engine::{
    shard_of, CompletionQueue, ServeConfig, ServeEngine, ServeEvent, ServeReport, ServeSnapshot,
    DEFAULT_SLO_BUDGET_NS,
};
pub use error::ServeError;
pub use mode::{ModeOutput, ModeRef, ModeRegistry, SensingMode};
pub use net::{WireClient, WireServer, WireServerConfig, WireServerReport};
pub use session::{SessionId, SessionOutput, SessionSpec, SessionSpecBuilder};
pub use shard::{ShardSnapshot, SloSummary};
pub use wire::{Frame, OpenRequest, WireError, WIRE_VERSION};
// Re-exported so mode implementors depend only on this crate's surface.
pub use wivi_core::{EngineCache, ShardEngine};
