//! `wivi-image` — through-wall 2-D imaging over the nulled residual.
//!
//! The paper's pipeline stops at the 1-D angle–time spectrogram
//! `A′[θ, n]`: *at what angle-of-motion* is each body. This crate
//! answers *where in the room* each body is, from exactly the same
//! nulled channel stream, by generalizing the §5.1 emulated-ISAR
//! aperture from far-field direction scoring to near-field holographic
//! backprojection (Holl & Reinhard's Wi-Fi holography and Zhong et
//! al.'s 2.4 GHz commodity through-wall imaging, both in PAPERS.md):
//!
//! * [`ImageConfig`] / [`GridSpec`] — the room grid and the aperture
//!   geometry (window, hop, assumed speed, device antenna positions).
//! * [`ImagingEngine`] — the resident backprojector: one per-cell
//!   round-trip steering table, TX 1's, in single precision, whose
//!   mirror image is TX 2's ([`engine::ImagingTables`], built once per
//!   configuration per process and shared), a reused image buffer,
//!   CA-CFAR detection ([`wivi_num::cfar`]) with sub-cell parabolic
//!   refinement and mirror-ghost suppression, emitting per-window
//!   [`ImageFix`]es.
//! * [`ImageSession`] — the mode's one per-session implementation
//!   (windowing over the engine it owns, fixes, position tracking), run
//!   by the device entry points, the benchmarks and the serving engine
//!   alike; [`StreamingImage`] is another name for it.
//! * [`PositionTracker`] — per-axis constant-velocity Kalman filtering
//!   over the fixes, as a policy over `wivi-track`'s shared track
//!   lifecycle ([`wivi_track::lifecycle`]), so tracks carry `(x, y)` in
//!   metres instead of bare angles; a mirror-side vote at the end marks
//!   conjugate ghost tracks.
//! * [`ImageThroughWall`] — the device extension:
//!   `WiViDevice::image{,_streaming}`, both running an
//!   [`ImageSession`] through `WiViDevice::run_session`.

pub mod config;
pub mod device_ext;
pub mod engine;
pub mod stage;
pub mod track2d;

pub use config::{GridSpec, ImageConfig};
pub use device_ext::{nulling_tx_weight, ImageThroughWall};
pub use engine::{ImageFix, ImagingEngine};
pub use stage::{ImageSession, ImagingReport, StreamingImage};
pub use track2d::{
    MirrorVote, PositionTrack, PositionTracker, PositionTrackerConfig, PositionTrackingSummary,
};
