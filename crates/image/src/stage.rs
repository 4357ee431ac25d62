//! The imaging read-out as a sensing session.
//!
//! [`ImageSession`] is the mode's one per-session implementation: it
//! owns its engine — image scratch over the process-wide steering
//! tables — beside the per-session state (window buffer, nulling
//! weight, position tracker, retained fixes). The device entry points
//! ([`WiViDevice::run_session`]), the benchmarks and served `image`
//! sessions all run it. Frames depend only on the configuration, the
//! window contents, and the nulling weight
//! ([`ImagingEngine::process_window_fixes`]), so every drive emits the
//! same bits.

use wivi_core::{Session, WiViDevice, WindowBuffer};
use wivi_num::Complex64;

use crate::config::{GridSpec, ImageConfig};
use crate::device_ext::nulling_tx_weight;
use crate::engine::{ImageFix, ImagingEngine};
use crate::track2d::{
    PositionTrack, PositionTracker, PositionTrackerConfig, PositionTrackingSummary,
};

/// Everything an imaging run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ImagingReport {
    /// The imaged grid.
    pub grid: GridSpec,
    /// Window centre times, seconds.
    pub times_s: Vec<f64>,
    /// Per-window CFAR fixes, in window order.
    pub fixes: Vec<Vec<ImageFix>>,
    /// Confirmed (x, y) tracks over the run, in id order.
    pub tracks: Vec<PositionTrack>,
    /// Per-window confirmed-track count (coasting included).
    pub confirmed_counts: Vec<usize>,
}

impl ImagingReport {
    /// Assembles a report from the retained per-window fixes and the
    /// tracker's summary.
    pub fn assemble(
        grid: GridSpec,
        fixes: Vec<Vec<ImageFix>>,
        summary: PositionTrackingSummary,
    ) -> Self {
        assert_eq!(fixes.len(), summary.times_s.len(), "frame count mismatch");
        Self {
            grid,
            times_s: summary.times_s,
            fixes,
            tracks: summary.tracks,
            confirmed_counts: summary.confirmed_counts,
        }
    }

    /// Number of imaging windows processed.
    pub fn n_windows(&self) -> usize {
        self.times_s.len()
    }

    /// Total fixes across all windows.
    pub fn n_fixes(&self) -> usize {
        self.fixes.iter().map(Vec::len).sum()
    }

    /// Ids of confirmed tracks the tracker-level mirror-side vote
    /// marked as conjugate ghosts (see [`crate::MirrorVote::mirror_of`]).
    pub fn mirror_ghost_ids(&self) -> Vec<u32> {
        self.tracks
            .iter()
            .filter(|t| t.extra.mirror_of.is_some())
            .map(|t| t.id)
            .collect()
    }

    /// The per-window fixes with every fix that fed a mirror-ghost
    /// track removed — the view to *score* (and display) by. The raw
    /// [`Self::fixes`] are untouched: they are what the golden traces
    /// pin, and the per-window detector genuinely emitted them; the
    /// vote is hindsight only a whole track's history can provide.
    pub fn credible_fixes(&self) -> Vec<Vec<ImageFix>> {
        let mut out = self.fixes.clone();
        for ghost in self.tracks.iter().filter(|t| t.extra.mirror_of.is_some()) {
            for p in &ghost.history {
                let Some(observed) = p.observed else { continue };
                if let Some(win) = out.get_mut(p.window) {
                    if let Some(k) = win.iter().position(|f| *f == observed) {
                        win.remove(k);
                    }
                }
            }
        }
        out
    }
}

/// One imaging session — the mode's single per-session implementation,
/// run by the device entry points, the benchmarks and served `image`
/// sessions alike. Windows samples through its own [`ImagingEngine`],
/// focuses each completed aperture with the session's nulling weight,
/// and folds the per-window CFAR fixes into a [`PositionTracker`].
/// Finishes into the [`ImagingReport`] (empty if no aperture filled).
pub struct ImageSession {
    engine: ImagingEngine,
    tx_weight: Complex64,
    wb: WindowBuffer,
    /// Boxed: live position tracks carry whole histories.
    tracker: Box<PositionTracker>,
    fixes: Vec<Vec<ImageFix>>,
}

/// The imaging session under the name the offline benchmarks use for
/// the standalone stage.
pub type StreamingImage = ImageSession;

impl ImageSession {
    /// Opens a session for `cfg`, focusing with the nulling weight
    /// `tx_weight` on the second transmit path.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: ImageConfig, tx_weight: Complex64) -> Self {
        Self {
            engine: ImagingEngine::new(cfg),
            tx_weight,
            wb: WindowBuffer::new(cfg.window, cfg.hop),
            tracker: Box::new(PositionTracker::new(PositionTrackerConfig::for_image(&cfg))),
            fixes: Vec::new(),
        }
    }

    /// Opens a session on a calibrated device with the device's nulling
    /// weight ([`nulling_tx_weight`]), after checking that `cfg`'s
    /// antenna geometry matches the device's scene layout: the steering
    /// tables are built from `cfg.tx`/`cfg.rx`, so a device bound to a
    /// different layout would silently defocus.
    ///
    /// # Panics
    /// Panics if the device has not been calibrated or its antenna
    /// layout differs from `cfg`'s.
    pub fn for_device(dev: &WiViDevice, cfg: &ImageConfig) -> Self {
        let layout = &dev.frontend().scene().device;
        assert_eq!(
            (layout.tx, layout.rx),
            (cfg.tx, cfg.rx),
            "imaging configuration's antenna geometry does not match the device's scene layout"
        );
        Self::new(*cfg, nulling_tx_weight(dev))
    }

    /// Feeds a batch of nulled channel samples (any length). Returns the
    /// number of new frames.
    pub fn push(&mut self, samples: &[Complex64]) -> usize {
        let Self {
            engine,
            tx_weight,
            wb,
            tracker,
            fixes,
        } = self;
        wb.push(samples, |_start, win| {
            let frame = engine.process_window_fixes(win, *tx_weight);
            tracker.push_fixes(&frame);
            fixes.push(frame);
        })
    }

    /// Drains the session into its report.
    pub fn finish(self) -> ImagingReport {
        ImagingReport::assemble(self.engine.cfg().grid, self.fixes, self.tracker.finish())
    }
}

impl Session for ImageSession {
    type Output = ImagingReport;

    fn step(&mut self, samples: &[Complex64]) {
        self.push(samples);
    }

    fn columns(&self) -> usize {
        self.fixes.len()
    }

    fn finish(self) -> ImagingReport {
        ImageSession::finish(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wivi_rf::{Point, Vec2};

    fn pacer_trace(cfg: &ImageConfig, n: usize, wt: Complex64) -> Vec<Complex64> {
        ImagingEngine::synthetic_subject_trace(
            cfg,
            n,
            Point::new(-1.8, 2.45),
            Vec2::new(1.0, 0.0),
            1.0,
            wt,
        )
    }

    #[test]
    fn stage_is_batch_shape_invariant() {
        let cfg = ImageConfig::fast_test();
        let wt = Complex64::new(-0.8, 0.4);
        let trace = pacer_trace(&cfg, cfg.window + 3 * cfg.hop, wt);

        let mut offline = ImageSession::new(cfg, wt);
        offline.push(&trace);
        let reference = offline.finish();
        assert_eq!(reference.n_windows(), 4);

        for batch in [1usize, 17, 160, trace.len()] {
            let mut stage = ImageSession::new(cfg, wt);
            let mut produced = 0;
            for chunk in trace.chunks(batch) {
                produced += stage.push(chunk);
            }
            assert_eq!(produced, reference.n_windows(), "batch {batch}");
            let report = stage.finish();
            assert_eq!(report, reference, "batch {batch}");
        }
    }

    #[test]
    fn frames_appear_incrementally() {
        let cfg = ImageConfig::fast_test();
        let wt = Complex64::ONE;
        let trace = pacer_trace(&cfg, cfg.window + cfg.hop, wt);
        let mut stage = ImageSession::new(cfg, wt);
        assert_eq!(stage.push(&trace[..cfg.window - 1]), 0);
        assert_eq!(stage.columns(), 0);
        assert_eq!(stage.push(&trace[cfg.window - 1..cfg.window]), 1);
        assert_eq!(stage.push(&trace[cfg.window..]), 1);
        assert_eq!(stage.columns(), 2);
    }

    #[test]
    fn credible_fixes_drop_exactly_the_ghost_tracks_observations() {
        use crate::track2d::{PositionTracker, PositionTrackerConfig};

        let cfg = ImageConfig::fast_test();
        let tcfg = PositionTrackerConfig::for_image(&cfg);
        let mut tracker = PositionTracker::new(tcfg);
        let mk = |x: f64, y: f64| ImageFix {
            x_m: x,
            y_m: y,
            power_db: -30.0,
            snr_db: 12.0,
            ix: 0,
            iy: 0,
        };
        let mut fixes: Vec<Vec<ImageFix>> = Vec::new();
        let dt = tcfg.window_dt_s();
        for k in 0..10 {
            let x = -2.0 + 0.8 * k as f64 * dt;
            let mut frame = vec![mk(x, 2.0)];
            if k < 4 {
                frame.push(mk(-x, 2.0)); // mirror-side error windows
            }
            tracker.push_fixes(&frame);
            fixes.push(frame);
        }
        let report = ImagingReport::assemble(cfg.grid, fixes, tracker.finish());

        let ghosts = report.mirror_ghost_ids();
        assert_eq!(ghosts.len(), 1, "expected exactly one voted ghost");
        let credible = report.credible_fixes();
        // Raw fixes keep everything (the golden-trace view)…
        assert_eq!(report.n_fixes(), 14);
        // …while the credible view drops exactly the ghost's matched
        // observations and keeps every real fix.
        let ghost = report
            .tracks
            .iter()
            .find(|t| t.extra.mirror_of.is_some())
            .unwrap();
        let dropped = ghost
            .history
            .iter()
            .filter(|p| p.observed.is_some())
            .count();
        let credible_total: usize = credible.iter().map(Vec::len).sum();
        assert_eq!(credible_total, report.n_fixes() - dropped);
        for (w, win) in credible.iter().enumerate() {
            assert!(
                win.iter()
                    .any(|f| (f.x_m - (-2.0 + 0.8 * w as f64 * dt)).abs() < 1e-9),
                "window {w} lost its real fix"
            );
        }
    }
}
