//! `wivi-track` — multi-target detection, association and Kalman
//! tracking over Wi-Vi angle spectrograms.
//!
//! The core pipeline stops at the angle–time spectrogram `A′[θ, n]`: the
//! paper's tracking results (Fig. 6) are ridges read off by eye, and the
//! counting statistic collapses a whole trace to one scalar. This crate
//! turns those ridges into *persistent per-person tracks* and a
//! serving-grade event stream:
//!
//! * [`detect`] — per-window ridge-peak detection (sub-bin parabolic
//!   interpolation over the same dB threshold and DC guard the counter
//!   uses).
//! * [`lifecycle`] — the track lifecycle every tracker shares: gated,
//!   globally-optimal association ([`wivi_num::solve_assignment`]),
//!   Kalman filtering, and tentative → confirmed → coasting → dead aging.
//! * [`tracker`] — the angle tracker, a [`TrackPolicy`] over that core
//!   with `(θ, θ̇)` Kalman filters, the announcement veto and merging.
//! * [`events`] — entry/exit, DC-line crossings, count changes, and
//!   per-track gesture attribution.
//! * [`device_ext`] — [`TrackTargetsSession`], the mode's one
//!   per-session implementation (also what the serving engine runs),
//!   and [`TrackTargets`], the `WiViDevice` extension trait whose
//!   offline and streaming entry points both run it.
//!
//! ```no_run
//! use wivi_core::{WiViConfig, WiViDevice};
//! use wivi_rf::{ConfinedRandomWalk, Material, Mover, Scene};
//! use wivi_track::TrackTargets;
//!
//! let room = Scene::conference_room_small();
//! let scene = Scene::new(Material::HollowWall6In)
//!     .with_office_clutter(room)
//!     .with_mover(Mover::human(ConfinedRandomWalk::new(room, 7, 1.0, 30.0)));
//! let mut device = WiViDevice::new(scene, WiViConfig::paper_default(), 42);
//! device.calibrate();
//! let report = device.track_targets_streaming(10.0, 16);
//! for event in &report.events {
//!     println!("{event:?}");
//! }
//! ```

pub mod detect;
pub mod device_ext;
pub mod events;
pub mod lifecycle;
pub mod tracker;

pub use detect::{detect_column, Detection, DetectorConfig};
pub use device_ext::{TrackTargets, TrackTargetsSession};
pub use events::{EventKind, TrackEvent};
pub use lifecycle::{Lifecycle, TrackPolicy, TrackRecord, TrackStatus, TrackingSummary};
pub use tracker::{
    track_spectrogram, Dominance, MultiTargetTracker, Track, TrackPoint, TrackerConfig,
    TrackingReport,
};
