//! `wivi-serve` — the sharded multi-session serving engine.
//!
//! The paper's end state is a device that continuously sees through a
//! wall; the roadmap's end state is that capability *as a service* —
//! many concurrent sensing sessions multiplexed on one machine. This
//! crate is that serving layer:
//!
//! * [`Mode`] — the device's closed set of read-outs (track /
//!   track-targets / count / gestures / image), each with a stable tag,
//!   and [`ModeOutput`], one payload variant per mode.
//! * [`SessionSpec`] — one session: a scene (owned, or shared through a
//!   [`SceneHandle`](wivi_rf::SceneHandle) from a copy-on-write
//!   [`SceneStore`](wivi_rf::SceneStore) so fleet sessions observing the
//!   same room share one scene), a device configuration, a seed, a
//!   duration, and a [`Mode`]. Built with [`SessionSpec::new`] or the
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
//! Every session owns its per-window engine (correlation matrix, eig
//! workspace, image scratch), exactly as a standalone run does, and
//! every engine in the process takes its steering tables from one
//! [`TableStore`](wivi_core::TableStore) per table type, so N live
//! sessions hold N sets of scratch but one table per configuration.
//!
//! **The serving contract is bitwise.** A served session runs the same
//! per-mode session type as the device's own entry points (see
//! [`mode`]), so it produces exactly the standalone output for every
//! shard count and submission order (`tests/serving_equivalence.rs` and
//! the determinism matrix pin this). Determinism is inherited, not
//! re-proven: sessions own all their state, engines hold no
//! cross-window state, and the event merge is a deterministic function
//! of the output set.
//!
//! ```no_run
//! use wivi_core::WiViConfig;
//! use wivi_rf::{Material, Scene, SceneStore};
//! use wivi_serve::{Mode, ServeConfig, ServeEngine, SessionSpec};
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
//!                 .mode(Mode::TrackTargets)
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

pub mod admission;
pub mod engine;
pub mod error;
pub mod mode;
pub mod net;
pub mod session;
pub mod shard;
pub mod wire;

pub use admission::{Admission, AdmissionConfig, AdmitError, TokenSpec};
pub use engine::{
    shard_of, ServeConfig, ServeEngine, ServeEvent, ServeReport, ServeSnapshot,
    DEFAULT_SLO_BUDGET_NS,
};
pub use error::ServeError;
pub use mode::{Mode, ModeOutput};
pub use net::{WireClient, WireServer, WireServerConfig, WireServerReport};
pub use session::{SessionId, SessionOutput, SessionSpec, SessionSpecBuilder};
pub use shard::{ShardSnapshot, SloSummary};
pub use wire::{Frame, OpenRequest, WireError, WIRE_VERSION};
