//! Target tracking as a sensing session (mode 1, extended), plus the
//! `WiViDevice` entry points that run it.
//!
//! `wivi-track` layers *above* `wivi-core`, so the device grows its
//! tracking mode through an extension trait rather than an inherent
//! method: `use wivi_track::TrackTargets;` (re-exported by the umbrella
//! crate's prelude) and every device can `track_targets(..)`.
//!
//! [`TrackTargetsSession`] is the one implementation of the mode: a
//! sink-only MUSIC stage whose columns fold straight into the tracker
//! as each analysis window completes — no trace, no spectrogram is ever
//! materialized. The device methods run it through
//! [`WiViDevice::run_session`] (offline is a single batch), and the
//! serving engine's `track_targets` mode runs the same type on its
//! shards.

use wivi_core::device::ONE_BATCH;
use wivi_core::{Session, Stage, StreamingMusic, WiViConfig, WiViDevice};
use wivi_num::Complex64;

use crate::tracker::{MultiTargetTracker, TrackerConfig, TrackingReport};

/// One multi-target tracking session: smoothed-MUSIC columns folded
/// into a [`MultiTargetTracker`] with the default tracker configuration
/// for the device's MUSIC settings. Finishes into the
/// [`TrackingReport`] (empty if no window completed).
pub struct TrackTargetsSession {
    stage: StreamingMusic,
    /// Boxed: the tracker (live tracks, histories) dwarfs the stage.
    tracker: Box<MultiTargetTracker>,
}

impl TrackTargetsSession {
    /// Opens a session for the device's effective configuration.
    pub fn new(cfg: &WiViConfig) -> Self {
        Self {
            stage: StreamingMusic::sink_only(cfg.music),
            tracker: Box::new(MultiTargetTracker::new(TrackerConfig::for_music(
                &cfg.music,
            ))),
        }
    }
}

impl Session for TrackTargetsSession {
    type Output = TrackingReport;

    fn step(&mut self, samples: &[Complex64]) {
        let tracker = &mut self.tracker;
        self.stage
            .push_with(samples, &mut |thetas, row| tracker.push_column(thetas, row));
    }

    fn columns(&self) -> usize {
        self.stage.n_columns()
    }

    fn finish(self) -> TrackingReport {
        self.tracker.finish()
    }
}

/// Device-level tracking entry points (mode 1 of the paper, extended
/// from "render the spectrogram" to "maintain per-person tracks").
pub trait TrackTargets {
    /// Observes `duration_s` seconds in one batch and tracks the ridge
    /// peaks of the smoothed-MUSIC spectrogram. Offline one-shot shape
    /// of [`Self::track_targets_streaming`].
    ///
    /// # Panics
    /// Panics if the device has not been calibrated.
    fn track_targets(&mut self, duration_s: f64) -> TrackingReport;

    /// Streaming shape: observations flow in `batch_len`-sample batches
    /// through a [`TrackTargetsSession`]. Memory stays bounded by one
    /// analysis window plus the live tracks.
    ///
    /// # Panics
    /// Panics if the device has not been calibrated or `batch_len == 0`.
    fn track_targets_streaming(&mut self, duration_s: f64, batch_len: usize) -> TrackingReport;
}

impl TrackTargets for WiViDevice {
    fn track_targets(&mut self, duration_s: f64) -> TrackingReport {
        self.track_targets_streaming(duration_s, ONE_BATCH)
    }

    fn track_targets_streaming(&mut self, duration_s: f64, batch_len: usize) -> TrackingReport {
        let session = TrackTargetsSession::new(self.config());
        self.run_session(session, duration_s, batch_len)
    }
}
