//! Composable streaming stages.
//!
//! The real Wi-Vi device is a *streaming* system: the paper drops the OFDM
//! bandwidth from 20 MHz to 5 MHz precisely so that nulling and tracking
//! keep up with the channel rate (§7.1). A stage consumes nulled channel
//! samples in whatever batch sizes the radio delivers and emits
//! `A′[θ, n]` columns incrementally, as soon as each analysis window
//! completes.
//!
//! The pipeline composes as
//!
//! ```text
//! nulling (calibration)            wivi_core::nulling::run_nulling
//!   → batches of residual samples  WiViDevice::observe_batch_into
//!     → windowing + retention      Streaming<E>, which owns its engine
//!       → per-window compute       MusicEngine / BeamformEngine (ColumnEngine)
//!         → the mode's sink        crate::session (spectrogram, counting, gestures)
//! ```
//!
//! Windowing and column retention exist once, in [`Streaming`], the
//! stage every entry point runs — offline helpers, benchmarks, and the
//! sessions of [`crate::session`] that every device method and serving
//! shard drives. Each stage owns its [`ColumnEngine`] and so its
//! per-window scratch (correlation matrix, eig workspace); the engine's
//! steering tables come from a process-wide
//! [`TableStore`](crate::cache::TableStore), so a stage built for an
//! already-seen configuration allocates only that scratch.
//! Window-rate processing reuses the scratch with zero heap allocation
//! beyond the emitted rows, and the sample buffer is trimmed as windows
//! complete. Retention is the caller's choice: a tracking run keeps the
//! columns for the final spectrogram, while a pure sink pipeline
//! ([`Streaming::sink_only`]) keeps nothing, so its memory stays bounded
//! by the window length — not the trial length.

use std::sync::Arc;

use wivi_num::Complex64;

use crate::isar::{BeamformEngine, IsarConfig};
use crate::music::{MusicConfig, MusicEngine};
use crate::spectrogram::AngleSpectrogram;

/// A streaming tracker stage: push channel-sample batches in, get
/// spectrogram columns out.
///
/// Implementations must be *batch-shape invariant*: any partition of the
/// same sample sequence into pushes yields the same columns.
///
/// By default a stage retains every emitted column so [`Stage::finish`]
/// can assemble the spectrogram — an O(trial-length) cost that is the
/// point of the tracking mode. Sinks that fold columns on the fly (the
/// counting statistic) should use a non-retaining stage (e.g.
/// [`StreamingMusic::sink_only`]) together with [`Stage::push_with`], so
/// the whole pipeline stays bounded by one analysis window.
pub trait Stage {
    /// Feeds a batch of nulled channel samples (any length, including
    /// empty), invoking `on_column(thetas_deg, row)` for each newly
    /// completed spectrogram column before the stage decides whether to
    /// retain it. Returns the number of new columns.
    fn push_with(
        &mut self,
        samples: &[Complex64],
        on_column: &mut dyn FnMut(&[f64], &[f64]),
    ) -> usize;

    /// [`Stage::push_with`] without a column observer.
    fn push(&mut self, samples: &[Complex64]) -> usize {
        self.push_with(samples, &mut |_, _| {})
    }

    /// Number of columns produced so far.
    fn n_columns(&self) -> usize;

    /// The angle grid shared by all columns.
    fn thetas_deg(&self) -> &[f64];

    /// The columns produced so far (partial spectrogram), one row per
    /// completed analysis window.
    fn rows(&self) -> &[Vec<f64>];

    /// Centre times of the completed windows, seconds.
    fn times_s(&self) -> &[f64];

    /// Finalizes the stage into a spectrogram, draining the accumulated
    /// columns (the stage is empty afterwards).
    ///
    /// # Panics
    /// Panics if no columns were produced (the trace never filled one
    /// analysis window).
    fn finish(&mut self) -> AngleSpectrogram;
}

/// Sliding-window bookkeeping shared by every stage: accumulates
/// samples, hands out every complete `(start, window)` pair exactly once,
/// and trims the buffer so it never holds more than one window plus one
/// batch.
#[derive(Clone, Debug)]
pub struct WindowBuffer {
    window: usize,
    hop: usize,
    /// Samples not yet discarded; `buf[0]` is absolute index `base`.
    buf: Vec<Complex64>,
    base: usize,
    /// Absolute start index of the next window to emit.
    next_start: usize,
}

impl WindowBuffer {
    /// Creates a buffer emitting `window`-sample windows every `hop`
    /// samples.
    ///
    /// # Panics
    /// Panics if `window` or `hop` is zero.
    pub fn new(window: usize, hop: usize) -> Self {
        assert!(window >= 1 && hop >= 1);
        Self {
            window,
            hop,
            buf: Vec::with_capacity(window * 2),
            base: 0,
            next_start: 0,
        }
    }

    /// Appends `samples`, invoking `emit(start, window)` for each newly
    /// completed analysis window. Returns the number of windows emitted.
    pub fn push(
        &mut self,
        samples: &[Complex64],
        mut emit: impl FnMut(usize, &[Complex64]),
    ) -> usize {
        self.buf.extend_from_slice(samples);
        let mut emitted = 0;
        while self.next_start + self.window <= self.base + self.buf.len() {
            let lo = self.next_start - self.base;
            emit(self.next_start, &self.buf[lo..lo + self.window]);
            self.next_start += self.hop;
            emitted += 1;
        }
        // Drop samples no future window can reach.
        let keep_from = self
            .next_start
            .saturating_sub(self.base)
            .min(self.buf.len());
        if keep_from > 0 {
            self.buf.drain(..keep_from);
            self.base += keep_from;
        }
        emitted
    }

    /// Total samples seen.
    pub fn n_seen(&self) -> usize {
        self.base + self.buf.len()
    }
}

/// A per-window engine that turns one analysis window into one
/// angle-spectrum column — the shape both trackers share. Column output
/// depends only on the configuration and the window contents: an engine
/// carries no state from one window to the next.
pub trait ColumnEngine: Sized {
    /// The configuration that fully determines the engine.
    type Config;

    /// Validates `cfg` (panicking on a degenerate one) and returns its
    /// windowing geometry.
    fn windowing(cfg: &Self::Config) -> IsarConfig;

    /// Builds the engine for `cfg`: its own scratch, plus an `Arc` of
    /// its tables from the engine type's
    /// [`TableStore`](crate::cache::TableStore).
    fn build(cfg: &Self::Config) -> Self;

    /// Processes one analysis window into a spectrogram column.
    fn column(&mut self, window: &[Complex64]) -> Vec<f64>;

    /// The angle grid of every column, shared with the engine's tables.
    fn thetas_deg(&self) -> &Arc<[f64]>;
}

impl ColumnEngine for MusicEngine {
    type Config = MusicConfig;

    fn windowing(cfg: &MusicConfig) -> IsarConfig {
        cfg.validate();
        cfg.isar
    }

    fn build(cfg: &MusicConfig) -> Self {
        MusicEngine::new(*cfg)
    }

    fn column(&mut self, window: &[Complex64]) -> Vec<f64> {
        self.process_window(window).0
    }

    fn thetas_deg(&self) -> &Arc<[f64]> {
        MusicEngine::thetas_deg(self)
    }
}

impl ColumnEngine for BeamformEngine {
    type Config = IsarConfig;

    fn windowing(cfg: &IsarConfig) -> IsarConfig {
        cfg.validate();
        *cfg
    }

    fn build(cfg: &IsarConfig) -> Self {
        BeamformEngine::new(*cfg)
    }

    fn column(&mut self, window: &[Complex64]) -> Vec<f64> {
        self.process_window(window)
    }

    fn thetas_deg(&self) -> &Arc<[f64]> {
        BeamformEngine::thetas_deg(self)
    }
}

/// A streaming stage over its own [`ColumnEngine`]: the engine, the
/// sliding [`WindowBuffer`], the column counter, and (unless built
/// [`sink_only`](Self::sink_only)) the retained columns and their window
/// centre times. The angle grid is the engine's, shared with its tables.
pub struct Streaming<E: ColumnEngine> {
    engine: E,
    isar: IsarConfig,
    wb: WindowBuffer,
    /// Whether emitted columns are stored for [`Stage::finish`].
    retain: bool,
    emitted: usize,
    rows: Vec<Vec<f64>>,
    times: Vec<f64>,
}

/// The smoothed-MUSIC tracker as a streaming stage (mode 1).
pub type StreamingMusic = Streaming<MusicEngine>;

/// The classic-beamforming (Eq. 5.1) tracker as a streaming stage — the
/// amplitude-bearing spectrum the gesture decoder consumes (mode 2), and
/// the §5.2 baseline.
pub type StreamingBeamform = Streaming<BeamformEngine>;

impl<E: ColumnEngine> Streaming<E> {
    /// Creates the stage (column-retaining: [`Stage::finish`] available).
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: E::Config) -> Self {
        let isar = E::windowing(&cfg);
        Self {
            engine: E::build(&cfg),
            isar,
            wb: WindowBuffer::new(isar.window, isar.hop),
            retain: true,
            emitted: 0,
            rows: Vec::new(),
            times: Vec::new(),
        }
    }

    /// Creates a non-retaining stage for pure sink pipelines: columns are
    /// only handed to [`Stage::push_with`]'s observer, never stored, so a
    /// monitoring run of any length holds one analysis window of samples
    /// and nothing else. [`Stage::finish`] is unavailable on such a stage.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn sink_only(cfg: E::Config) -> Self {
        Self {
            retain: false,
            ..Self::new(cfg)
        }
    }
}

impl<E: ColumnEngine> Stage for Streaming<E> {
    fn push_with(
        &mut self,
        samples: &[Complex64],
        on_column: &mut dyn FnMut(&[f64], &[f64]),
    ) -> usize {
        let Self {
            engine,
            isar,
            wb,
            retain,
            rows,
            times,
            ..
        } = self;
        let n = wb.push(samples, |start, win| {
            let row = engine.column(win);
            on_column(engine.thetas_deg(), &row);
            if *retain {
                rows.push(row);
                times.push(isar.window_center_s(start));
            }
        });
        self.emitted += n;
        n
    }

    fn n_columns(&self) -> usize {
        self.emitted
    }

    fn thetas_deg(&self) -> &[f64] {
        self.engine.thetas_deg()
    }

    fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    fn times_s(&self) -> &[f64] {
        &self.times
    }

    fn finish(&mut self) -> AngleSpectrogram {
        assert!(
            self.retain,
            "finish() requires a column-retaining stage; this one was built sink_only()"
        );
        assert!(
            !self.rows.is_empty(),
            "trace shorter ({}) than the analysis window ({})",
            self.wb.n_seen(),
            self.isar.window
        );
        self.emitted = 0;
        AngleSpectrogram::new(
            Arc::clone(self.engine.thetas_deg()),
            std::mem::take(&mut self.times),
            std::mem::take(&mut self.rows),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isar::synthetic_target_trace;
    use wivi_num::rng::{complex_gaussian, Rng64};

    fn noisy_trace(n: usize, seed: u64) -> Vec<Complex64> {
        let cfg = IsarConfig::fast_test();
        let mut rng = Rng64::seed_from_u64(seed);
        let mut t = synthetic_target_trace(&cfg, n, 1.0, 4.0, 0.5);
        for z in t.iter_mut() {
            *z += complex_gaussian(&mut rng, 0.05);
        }
        t
    }

    #[test]
    fn window_buffer_emits_every_window_once_and_trims() {
        let mut wb = WindowBuffer::new(8, 3);
        let samples: Vec<Complex64> = (0..40).map(|i| Complex64::from_re(i as f64)).collect();
        let mut starts = Vec::new();
        // Push in awkward chunk sizes.
        for chunk in samples.chunks(5) {
            wb.push(chunk, |start, win| {
                assert_eq!(win.len(), 8);
                assert_eq!(win[0].re, start as f64);
                starts.push(start);
            });
        }
        let expected: Vec<usize> = (0..=32).step_by(3).collect();
        assert_eq!(starts, expected);
        // The retained buffer never grows past one window + one batch.
        assert!(
            wb.buf.len() <= 8 + 5,
            "buffer kept {} samples",
            wb.buf.len()
        );
    }

    #[test]
    fn music_stage_is_batch_shape_invariant() {
        let cfg = MusicConfig::fast_test();
        let trace = noisy_trace(150, 9);

        // Reference: every window straight through a fresh engine.
        let mut engine = MusicEngine::new(cfg);
        let w = cfg.isar.window;
        let expect: Vec<Vec<f64>> = (0..=trace.len() - w)
            .step_by(cfg.isar.hop)
            .map(|s| engine.process_window(&trace[s..s + w]).0)
            .collect();

        for batch in [1usize, 7, 40, 150] {
            let mut stage = StreamingMusic::new(cfg);
            let mut produced = 0;
            for chunk in trace.chunks(batch) {
                produced += stage.push(chunk);
            }
            assert_eq!(produced, expect.len());
            let spec = stage.finish();
            assert_eq!(spec.power, expect, "batch {batch}");
            let times: Vec<f64> = (0..expect.len())
                .map(|k| cfg.isar.window_center_s(k * cfg.isar.hop))
                .collect();
            assert_eq!(spec.times_s, times, "batch {batch}");
        }
    }

    #[test]
    fn beamform_stage_is_batch_shape_invariant() {
        let cfg = IsarConfig::fast_test();
        let trace = noisy_trace(130, 10);
        let offline = crate::isar::beamform_spectrum(&trace, &cfg);
        for batch in [1usize, 13, 130] {
            let mut stage = StreamingBeamform::new(cfg);
            for chunk in trace.chunks(batch) {
                stage.push(chunk);
            }
            let spec = stage.finish();
            assert_eq!(spec.power, offline.power, "batch {batch}");
            assert_eq!(spec.times_s, offline.times_s, "batch {batch}");
        }
    }

    #[test]
    fn partial_columns_appear_as_samples_arrive() {
        let cfg = MusicConfig::fast_test(); // window 40, hop 8
        let trace = noisy_trace(64, 11);
        let mut stage = StreamingMusic::new(cfg);
        assert_eq!(stage.push(&trace[..39]), 0, "no column before one window");
        assert_eq!(stage.n_columns(), 0);
        assert_eq!(stage.push(&trace[39..40]), 1, "first column at window fill");
        assert_eq!(stage.rows().len(), 1);
        assert_eq!(stage.times_s().len(), 1);
        // 24 more samples: windows at starts 8, 16, 24 complete.
        assert_eq!(stage.push(&trace[40..64]), 3);
        assert_eq!(stage.n_columns(), 4);
    }

    #[test]
    fn sink_only_stage_emits_identical_columns_but_stores_nothing() {
        let cfg = MusicConfig::fast_test();
        let trace = noisy_trace(120, 12);

        let mut retaining = StreamingMusic::new(cfg);
        retaining.push(&trace);
        let stored = retaining.rows().to_vec();

        let mut sink = StreamingMusic::sink_only(cfg);
        let mut observed: Vec<Vec<f64>> = Vec::new();
        for chunk in trace.chunks(16) {
            sink.push_with(chunk, &mut |_, row| observed.push(row.to_vec()));
        }
        assert_eq!(
            observed, stored,
            "sink columns differ from retained columns"
        );
        assert_eq!(sink.n_columns(), stored.len());
        assert!(sink.rows().is_empty(), "sink_only stage retained rows");
        assert!(sink.times_s().is_empty());
    }

    #[test]
    #[should_panic(expected = "sink_only")]
    fn finish_panics_on_sink_only_stage() {
        let mut stage = StreamingMusic::sink_only(MusicConfig::fast_test());
        stage.push(&noisy_trace(60, 13));
        let _ = stage.finish();
    }

    #[test]
    #[should_panic(expected = "shorter")]
    fn finish_requires_a_full_window() {
        let mut stage = StreamingBeamform::new(IsarConfig::fast_test());
        stage.push(&[Complex64::ONE; 10]);
        let _ = stage.finish();
    }
}
