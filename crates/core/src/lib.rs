//! Wi-Vi core: the paper's primary contribution.
//!
//! This crate implements the complete Wi-Vi pipeline of *"See Through
//! Walls with Wi-Fi!"* (Adib & Katabi, SIGCOMM 2013) on top of the
//! simulated radio front-end in `wivi-sdr`:
//!
//! * [`nulling`] — MIMO interference nulling (Algorithm 1): initial
//!   nulling, power boosting, and iterative nulling with the exponential
//!   convergence of Lemma 4.1.1. This removes the "flash" — reflections
//!   from the wall and every other static object — so the minute
//!   reflections of moving bodies become measurable.
//! * [`isar`] — inverse synthetic aperture processing (§5.1): consecutive
//!   channel samples are treated as an emulated antenna array and
//!   beamformed in time rather than space.
//! * [`music`] — the smoothed MUSIC direction estimator (§5.2), the
//!   super-resolution variant used for all the paper's figures.
//! * [`spectrogram`] — the `A′[θ, n]` angle–time representation shared by
//!   the trackers, plus ASCII heatmap rendering of the paper's figures.
//! * [`counting`] — spatial-variance human counting (Eq. 5.4–5.5,
//!   Table 7.1).
//! * [`gesture`] — the through-wall gesture channel (Ch. 6): matched
//!   filters, peak detection with the 3 dB SNR rule, and bit decoding
//!   with erasures.
//! * [`stage`] — the composable streaming pipeline: the [`Stage`]
//!   trait and [`Streaming`], which windows samples through the
//!   per-window engine it owns and emits `A′[θ, n]` columns as analysis
//!   windows complete.
//! * [`session`] — one [`Session`] type per read-out
//!   ([`TrackSession`], [`CountSession`], [`GestureSession`]): the code
//!   every entry point — offline, streaming, served — runs.
//! * [`cache`] — the process-wide [`TableStore`] every engine takes its
//!   immutable steering tables from, built once per configuration.
//! * [`device`] — [`WiViDevice`], the end-to-end device tying all stages
//!   together in the paper's two operating modes; one batch loop
//!   ([`WiViDevice::run_session`]) drives every read-out, one-shot or
//!   streaming.
//! * [`baseline`] — comparison systems: conventional beamforming (what
//!   MUSIC is shown to beat in §5.2) and a narrowband Doppler detector
//!   without nulling (the related-work approach the flash defeats, §2.1).

pub mod baseline;
pub mod cache;
pub mod counting;
pub mod device;
pub mod gesture;
pub mod isar;
pub mod music;
pub mod nulling;
pub mod session;
pub mod spectrogram;
pub mod stage;

pub use cache::{TableStore, TABLE_STORE_CAPACITY};
pub use device::{WiViConfig, WiViDevice};
pub use isar::{BeamformEngine, IsarConfig};
pub use music::{MusicConfig, MusicEngine};
pub use nulling::{NullingConfig, NullingReport};
pub use session::{CountSession, GestureSession, Session, TrackSession};
pub use spectrogram::AngleSpectrogram;
pub use stage::{ColumnEngine, Stage, Streaming, StreamingBeamform, StreamingMusic, WindowBuffer};
