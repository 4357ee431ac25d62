//! Wi-Vi — see through walls with Wi-Fi.
//!
//! A from-scratch Rust reproduction of *"See Through Walls with WiFi!"*
//! (Adib & Katabi, ACM SIGCOMM 2013): MIMO interference nulling to remove
//! the wall's "flash", inverse-SAR tracking of moving humans with the
//! smoothed MUSIC algorithm, spatial-variance human counting, and a
//! through-wall gesture communication channel — all running against a
//! simulated 2.4 GHz MIMO software radio (the hardware substitution is
//! documented in `DESIGN.md`).
//!
//! This umbrella crate re-exports the whole stack:
//!
//! * [`num`] — complex arithmetic, FFT plans, Hermitian eigendecomposition,
//!   the deterministic RNG.
//! * [`rf`] — the through-wall propagation simulator and motion models.
//! * [`sdr`] — the OFDM MIMO front-end (USRP N210 stand-in) with its
//!   batched observation stream.
//! * [`core`] — nulling, ISAR, MUSIC, the streaming stages, counting,
//!   gestures, the device.
//! * [`track`] — multi-target tracking over the spectrogram: ridge
//!   detection, optimal data association, per-track Kalman filters, and
//!   the entry/exit/crossing/count event stream
//!   ([`TrackTargets`](track::TrackTargets) extends the device).
//! * [`image`] — through-wall 2-D imaging: near-field holographic
//!   backprojection of the nulled residual onto a room grid, CA-CFAR
//!   detection of per-window (x, y) fixes, and position tracking
//!   ([`ImageThroughWall`](image::ImageThroughWall) extends the
//!   device).
//! * [`serve`] — the sharded multi-session serving engine: many
//!   concurrent sessions hash-routed to worker shards, streamed in
//!   batches with backpressure, their tracker events merged into one
//!   timestamp-ordered stream — bitwise identical to running each
//!   session standalone. A session names one [`Mode`](serve::Mode) of
//!   the device's closed set of read-outs, and fleet sessions share
//!   scenes copy-on-write through [`SceneStore`](rf::SceneStore).
//! * [`obs`] — zero-dependency observability: lock-light metrics
//!   (counters, gauges, log-linear histograms), span tracing into
//!   per-thread flight-recorder rings, kernel-level probes, and JSON /
//!   Prometheus exporters. Off by default; `WIVI_OBS=1` turns it on,
//!   and enabling it is bitwise invisible to every result (DESIGN.md
//!   §13).
//!
//! ```no_run
//! use wivi::prelude::*;
//!
//! let room = Scene::conference_room_small();
//! let scene = Scene::new(Material::HollowWall6In)
//!     .with_office_clutter(room)
//!     .with_mover(Mover::human(ConfinedRandomWalk::new(room, 7, 1.0, 30.0)));
//! let mut device = WiViDevice::new(scene, WiViConfig::paper_default(), 42);
//! device.calibrate();
//! let spectrogram = device.track(7.0);
//! println!("{}", spectrogram.render_ascii(19, 72));
//! ```
//!
//! The device also runs in its real-time shape — observations stream in
//! fixed-size batches and spectrogram columns appear as analysis windows
//! complete, bitwise identical to the offline pass:
//!
//! ```no_run
//! # use wivi::prelude::*;
//! # let scene = Scene::new(Material::HollowWall6In);
//! # let mut device = WiViDevice::new(scene, WiViConfig::paper_default(), 42);
//! # device.calibrate();
//! let spectrogram = device.track_streaming(7.0, 16);
//! ```

pub use wivi_core as core;
pub use wivi_image as image;
pub use wivi_num as num;
pub use wivi_obs as obs;
pub use wivi_rf as rf;
pub use wivi_sdr as sdr;
pub use wivi_serve as serve;
pub use wivi_track as track;

/// The most common imports for working with Wi-Vi.
pub mod prelude {
    pub use wivi_core::counting::{mean_spatial_variance, StreamingVariance, VarianceClassifier};
    pub use wivi_core::{
        AngleSpectrogram, Stage, StreamingBeamform, StreamingMusic, WiViConfig, WiViDevice,
    };
    pub use wivi_image::{ImageConfig, ImageThroughWall, ImagingReport};
    pub use wivi_rf::{
        ConfinedRandomWalk, GestureScript, GestureStyle, Material, Mover, Point, Rect, Scene,
        SceneHandle, SceneStore, Vec2, WaypointWalker,
    };
    pub use wivi_serve::{Mode, ModeOutput, ServeConfig, ServeEngine, ServeReport, SessionSpec};
    pub use wivi_track::{
        MultiTargetTracker, TrackEvent, TrackTargets, TrackerConfig, TrackingReport,
    };
}
