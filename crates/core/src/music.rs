//! The smoothed MUSIC super-resolution direction estimator (paper §5.2).
//!
//! With several humans moving at once the received trace is a
//! superposition of their emulated arrays, and — because everyone reflects
//! the *same* transmitted signal — the components are mutually correlated.
//! Plain MUSIC fails on coherent sources, so Wi-Vi uses *spatially
//! smoothed* MUSIC (Shan, Wax & Kailath, ref.\[32\]):
//!
//! 1. split each length-`w` window into overlapping subarrays of size
//!    `w′ < w`;
//! 2. average the subarray correlation matrices: `R = Σ_s h_s·h_s^H`
//!    (Eq. 5.2) — the different spatial shifts de-correlate the bodies;
//! 3. eigendecompose `R`, split signal subspace (large eigenvalues: the
//!    movers plus the DC) from noise subspace;
//! 4. score each direction by the inverse of its projection onto the
//!    noise subspace (Eq. 5.3) — steering vectors orthogonal to the noise
//!    space (i.e. real sources) spike sharply.
//!
//! Implementation note: the noise-space norm is computed via the signal
//! space, `‖U_N^H e‖² = ‖e‖² − ‖U_S^H e‖²`, which needs only
//! `k_signal ≪ w′` inner products per angle.

use std::sync::Arc;

use wivi_num::eig::{hermitian_eig_in, EigWorkspace};
use wivi_num::{simd, CMatrix, Complex64};

use crate::cache::TableStore;
use crate::isar::IsarConfig;
use crate::spectrogram::AngleSpectrogram;
use crate::stage::{Stage, StreamingMusic};

/// Smoothed-MUSIC parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MusicConfig {
    /// The emulated-array parameters (window `w`, hop, spacing, angles).
    pub isar: IsarConfig,
    /// Subarray size `w′` (< window). The paper does not state its value;
    /// `w/2` is the standard smoothing choice and resolves up to `w/2 − 1`
    /// coherent sources.
    pub subarray: usize,
    /// Upper bound on the signal-subspace dimension (movers × body parts
    /// + DC). Eigenvalues beyond this count are noise regardless of size.
    pub max_sources: usize,
    /// An eigenvalue is "signal" if it exceeds the noise floor by this
    /// many dB.
    pub signal_threshold_db: f64,
    /// The trace's per-sample noise power `E|n|²` (the thermal floor of
    /// the subcarrier-combined channel samples), when known. A real
    /// receiver measures this once with a terminated input; the device
    /// layer computes it from the radio configuration. With the floor
    /// known, signal/noise subspace separation is an *absolute* test —
    /// noise eigenvalues of the smoothed correlation concentrate at the
    /// floor (±2.5 dB empirically) while bodies sit 6–30 dB above.
    /// Without it (`None`), a lower-quartile heuristic is used, which is
    /// markedly less reliable for the large `w′ = 50` windows.
    pub noise_floor_power: Option<f64>,
}

impl MusicConfig {
    /// The paper's configuration: w = 100, w′ = 50.
    pub fn wivi_default() -> Self {
        Self {
            isar: IsarConfig::wivi_default(),
            subarray: 50,
            max_sources: 12,
            signal_threshold_db: 5.0,
            noise_floor_power: None,
        }
    }

    /// Reduced configuration for fast unit tests (w = 40, w′ = 20).
    pub fn fast_test() -> Self {
        Self {
            isar: IsarConfig::fast_test(),
            subarray: 20,
            max_sources: 8,
            signal_threshold_db: 6.0,
            noise_floor_power: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    pub fn validate(&self) {
        self.isar.validate();
        assert!(
            self.subarray >= 2 && self.subarray < self.isar.window,
            "subarray w′ must satisfy 2 <= w' < w"
        );
        assert!(self.max_sources >= 1 && self.max_sources < self.subarray);
        assert!(self.signal_threshold_db > 0.0);
    }
}

/// Computes the smoothed correlation matrix of one window (Eq. 5.2 with
/// the §5.2 smoothing step).
pub fn smoothed_correlation(window: &[Complex64], subarray: usize) -> CMatrix {
    let mut r = CMatrix::zeros(subarray, subarray);
    smoothed_correlation_into(window, subarray, &mut r);
    r
}

/// [`smoothed_correlation`] into a caller-provided (reused) matrix — the
/// allocation-free accumulation step of the streaming tracker. The matrix
/// is zeroed first, so a reused buffer is indistinguishable from a fresh
/// one.
///
/// # Panics
/// Panics if `subarray > window.len()` or the matrix is not
/// `subarray × subarray`.
pub fn smoothed_correlation_into(window: &[Complex64], subarray: usize, r: &mut CMatrix) {
    assert!(subarray <= window.len(), "subarray larger than window");
    assert_eq!(
        (r.rows(), r.cols()),
        (subarray, subarray),
        "correlation buffer shape mismatch"
    );
    let n_sub = window.len() - subarray + 1;
    r.fill_zero();
    for s in 0..n_sub {
        r.add_outer(&window[s..s + subarray], 1.0 / n_sub as f64);
    }
}

/// The configuration-only half of a [`MusicEngine`]: the angle grid and
/// the steering table, built once per configuration per process and
/// shared by every engine through a process-wide [`TableStore`].
pub struct MusicTables {
    /// The angle grid, shared with every spectrogram the engines emit.
    thetas: Arc<[f64]>,
    /// The steering table in antenna-major order: row `i` holds element
    /// `i` of every angle's steering vector (`sub × n_angles`).
    /// Angle-contiguous rows let the projection run as one
    /// [`simd::caxpy`] per (eigenvector, antenna) pair instead of an
    /// angle-at-a-time scalar dot; the per-angle accumulation order
    /// (over `i`, then over signal index `j`) is unchanged, so the row
    /// is bitwise identical to the historical nested loop.
    steer_flat: Vec<Complex64>,
}

impl MusicTables {
    /// Builds the tables for `cfg`, bypassing the store — the cold cost
    /// the first engine per configuration pays. Expects a validated
    /// configuration.
    pub fn build(cfg: &MusicConfig) -> Self {
        let thetas = cfg.isar.thetas_deg();
        let n_angles = thetas.len();
        let mut steer_flat = vec![Complex64::ZERO; cfg.subarray * n_angles];
        for (ang, &th) in thetas.iter().enumerate() {
            let e = cfg.isar.steering_vector(th, cfg.subarray);
            for (i, ei) in e.into_iter().enumerate() {
                steer_flat[i * n_angles + ang] = ei;
            }
        }
        Self {
            thetas: thetas.into(),
            steer_flat,
        }
    }
}

/// The process-wide store of [`MusicTables`], keyed by the full MUSIC
/// configuration.
static MUSIC_TABLES: TableStore<MusicConfig, MusicTables> = TableStore::new("music");

/// The reusable per-window smoothed-MUSIC processor: shared
/// configuration tables ([`MusicTables`]) plus correlation /
/// eigendecomposition scratch of its own. Every MUSIC read-out —
/// [`music_spectrum`] and the [`StreamingMusic`] stage every MUSIC
/// session owns — runs its windows through this engine; window-rate
/// processing performs no heap allocation beyond the emitted row and
/// eigenvalue list.
pub struct MusicEngine {
    cfg: MusicConfig,
    tables: Arc<MusicTables>,
    /// `‖e‖²` for the unit-modulus steering vectors.
    e_norm_sqr: f64,
    corr: CMatrix,
    eig_ws: EigWorkspace,
    /// Per-angle complex projection accumulator (one eigenvector at a
    /// time), reused across windows.
    proj: Vec<Complex64>,
    /// Per-angle `Σ_j |u_j^H e|²` accumulator, reused across windows.
    sig_proj: Vec<f64>,
}

impl MusicEngine {
    /// Builds an engine for `cfg`: fresh scratch, and the configuration's
    /// tables from the process-wide store (built there on first use).
    ///
    /// # Panics
    /// Panics on an invalid configuration (see [`MusicConfig::validate`]).
    pub fn new(cfg: MusicConfig) -> Self {
        cfg.validate();
        // Resolve the process's one-time SIMD detection here, so no
        // window pays its `WIVI_NO_SIMD` read (which allocates).
        simd::level();
        let tables = MUSIC_TABLES.get_or_build(&cfg, MusicTables::build);
        let n_angles = tables.thetas.len();
        Self {
            cfg,
            tables,
            e_norm_sqr: cfg.subarray as f64,
            corr: CMatrix::zeros(cfg.subarray, cfg.subarray),
            eig_ws: EigWorkspace::new(cfg.subarray),
            proj: vec![Complex64::ZERO; n_angles],
            sig_proj: vec![0.0; n_angles],
        }
    }

    /// The engine's configuration.
    pub fn cfg(&self) -> &MusicConfig {
        &self.cfg
    }

    /// The angle grid shared by every emitted row (and, through an
    /// `Arc`, by every spectrogram built from them).
    pub fn thetas_deg(&self) -> &Arc<[f64]> {
        &self.tables.thetas
    }

    /// Processes one analysis window into a pseudospectrum row (Eq. 5.3)
    /// plus its estimated signal-subspace dimension.
    ///
    /// # Panics
    /// Panics if `window.len()` differs from the configured window.
    pub fn process_window(&mut self, window: &[Complex64]) -> (Vec<f64>, usize) {
        assert_eq!(window.len(), self.cfg.isar.window, "window length mismatch");
        let _span = wivi_obs::span("music.window");
        smoothed_correlation_into(window, self.cfg.subarray, &mut self.corr);
        hermitian_eig_in(&self.corr, &mut self.eig_ws);
        let n_signal = signal_subspace_dim(
            self.eig_ws.values(),
            self.cfg.signal_threshold_db,
            self.cfg.max_sources,
            self.cfg.noise_floor_power,
        );

        let u = self.eig_ws.vectors();
        let e_norm_sqr = self.e_norm_sqr;
        // ‖U_N^H e‖² = ‖e‖² − Σ_signal |u_j^H e|², with the inner
        // product accumulated angle-parallel: one caxpy per
        // (eigenvector, antenna) pair over the angle-contiguous steering
        // row. Each angle still sums its terms in the historical
        // `i`-then-`j` order, so the row is bitwise unchanged.
        let n_angles = self.tables.thetas.len();
        let sub = self.cfg.subarray;
        let steer_flat = &self.tables.steer_flat;
        self.sig_proj.iter_mut().for_each(|s| *s = 0.0);
        for j in 0..n_signal {
            self.proj.iter_mut().for_each(|p| *p = Complex64::ZERO);
            for i in 0..sub {
                let x = &steer_flat[i * n_angles..(i + 1) * n_angles];
                simd::caxpy(&mut self.proj, x, u[(i, j)].conj());
            }
            for (sp, pj) in self.sig_proj.iter_mut().zip(&self.proj) {
                *sp += pj.norm_sqr();
            }
        }
        // One aggregated probe flush for the whole projection loop.
        wivi_num::probe::count_kernel(wivi_num::probe::Kernel::Caxpy, (n_signal * sub) as u64);
        let row: Vec<f64> = self
            .sig_proj
            .iter()
            .map(|&sig_proj| {
                let noise_norm = (e_norm_sqr - sig_proj).max(e_norm_sqr * 1e-12);
                // Normalized so that a steering vector with *no* signal
                // alignment scores exactly 1: the pseudospectrum has an
                // absolute floor, which downstream statistics (ridge
                // thresholds, spatial variance) rely on.
                e_norm_sqr / noise_norm
            })
            .collect();
        (row, n_signal)
    }
}

/// Estimates the signal-subspace dimension from a descending eigenvalue
/// sequence: eigenvalues more than `threshold_db` above the noise floor,
/// capped at `max_sources`, and at least 1 (the DC component is always
/// present).
///
/// The floor is `noise_floor_power` when the receiver knows it (see
/// [`MusicConfig::noise_floor_power`]); otherwise it falls back to the
/// lower-quartile eigenvalue.
pub fn signal_subspace_dim(
    eigenvalues: &[f64],
    threshold_db: f64,
    max_sources: usize,
    noise_floor_power: Option<f64>,
) -> usize {
    let floor = noise_floor_power.unwrap_or_else(|| {
        let mut sorted = eigenvalues.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted[sorted.len() / 4]
    });
    let cut = floor.max(1e-300) * 10f64.powf(threshold_db / 10.0);
    eigenvalues
        .iter()
        .take(max_sources)
        .filter(|&&l| l > cut)
        .count()
        .max(1)
}

/// Runs smoothed MUSIC over a nulled-channel trace, producing the paper's
/// `A′[θ, n]` (Eq. 5.3) as an [`AngleSpectrogram`].
///
/// This is the *offline* entry point: the trace goes through a
/// [`StreamingMusic`] stage in one push, so batch-incremental and
/// one-shot processing agree bit for bit.
///
/// # Panics
/// Panics on an invalid configuration or a trace shorter than one
/// analysis window.
pub fn music_spectrum(trace: &[Complex64], cfg: &MusicConfig) -> AngleSpectrogram {
    let mut stage = StreamingMusic::new(*cfg);
    stage.push(trace);
    stage.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isar::synthetic_target_trace;
    use wivi_num::hermitian_eig;
    use wivi_num::rng::{complex_gaussian, Rng64};

    fn add_noise(trace: &mut [Complex64], sigma: f64, seed: u64) {
        let mut rng = Rng64::seed_from_u64(seed);
        for z in trace.iter_mut() {
            *z += complex_gaussian(&mut rng, sigma);
        }
    }

    fn add_traces(a: &mut [Complex64], b: &[Complex64]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x += *y;
        }
    }

    #[test]
    fn single_target_spikes_at_true_angle() {
        let cfg = MusicConfig::fast_test();
        let mut trace = synthetic_target_trace(&cfg.isar, 200, 1.0, 4.0, 0.5);
        add_noise(&mut trace, 0.05, 1);
        let spec = music_spectrum(&trace, &cfg);
        let th = spec.dominant_angle(0, 0.0).unwrap();
        assert!(
            (th - 30.0).abs() <= 6.0,
            "MUSIC peak at {th}° (expected 30°)"
        );
    }

    #[test]
    fn dc_plus_target_shows_both() {
        let cfg = MusicConfig::fast_test();
        let mut trace = vec![Complex64::new(0.8, -0.2); 200]; // DC
        let target = synthetic_target_trace(&cfg.isar, 200, 0.6, 4.0, -0.6);
        add_traces(&mut trace, &target);
        add_noise(&mut trace, 0.02, 2);
        let spec = music_spectrum(&trace, &cfg);
        let db = spec.db_floor_normalized();
        let dc_bin = spec.angle_index(0.0);
        let tgt_bin = spec.angle_index(-36.9); // sinθ = −0.6
        let floor_bin = spec.angle_index(60.0);
        assert!(db[0][dc_bin] > db[0][floor_bin] + 3.0, "no DC ridge");
        assert!(db[0][tgt_bin] > db[0][floor_bin] + 3.0, "no target ridge");
    }

    #[test]
    fn two_coherent_targets_resolved_by_smoothing() {
        // Two bodies reflecting the same signal: correlated returns. The
        // smoothing step must still resolve both angles.
        let cfg = MusicConfig::fast_test();
        let mut trace = synthetic_target_trace(&cfg.isar, 240, 1.0, 4.0, 0.7);
        let second = synthetic_target_trace(&cfg.isar, 240, 1.0, 6.0, -0.45);
        add_traces(&mut trace, &second);
        add_noise(&mut trace, 0.03, 3);
        let spec = music_spectrum(&trace, &cfg);
        let db = spec.db_floor_normalized();
        let floor = spec.angle_index(10.0);
        let b1 = spec.angle_index(44.4); // sinθ = 0.7
        let b2 = spec.angle_index(-26.7); // sinθ = −0.45
        let mut hits = 0;
        for row in &db {
            if row[b1] > row[floor] + 3.0 && row[b2] > row[floor] + 3.0 {
                hits += 1;
            }
        }
        assert!(
            hits * 2 >= spec.n_times(),
            "both targets visible in only {hits}/{} windows",
            spec.n_times()
        );
    }

    #[test]
    fn eigen_count_tracks_source_count() {
        let cfg = MusicConfig::fast_test();
        // One clean synthetic target: signal dimension should stay small.
        let mut one = synthetic_target_trace(&cfg.isar, 200, 1.0, 4.0, 0.5);
        add_noise(&mut one, 0.01, 4);
        let mean_n_signal = |trace: &[Complex64]| {
            let mut engine = MusicEngine::new(cfg);
            let w = cfg.isar.window;
            let starts: Vec<usize> = (0..=trace.len() - w).step_by(cfg.isar.hop).collect();
            let total: usize = starts
                .iter()
                .map(|&s| engine.process_window(&trace[s..s + w]).1)
                .sum();
            total as f64 / starts.len() as f64
        };
        let mean1 = mean_n_signal(&one);

        let mut three = synthetic_target_trace(&cfg.isar, 200, 1.0, 4.0, 0.5);
        add_traces(
            &mut three,
            &synthetic_target_trace(&cfg.isar, 200, 1.0, 5.0, -0.4),
        );
        add_traces(
            &mut three,
            &synthetic_target_trace(&cfg.isar, 200, 1.0, 6.0, 0.9),
        );
        add_noise(&mut three, 0.01, 5);
        let mean3 = mean_n_signal(&three);

        assert!(
            mean3 > mean1,
            "signal dimension did not grow: {mean1:.2} vs {mean3:.2}"
        );
    }

    #[test]
    fn music_peaks_sharper_than_beamforming() {
        // §5.2: "MUSIC achieves sharper peaks ... often termed a
        // super-resolution technique". Compare half-power widths.
        let cfg = MusicConfig::fast_test();
        let mut trace = synthetic_target_trace(&cfg.isar, 200, 1.0, 4.0, 0.5);
        add_noise(&mut trace, 0.02, 6);

        let width = |spec: &AngleSpectrogram| {
            let row = &spec.power[0];
            let peak = row.iter().copied().fold(0.0f64, f64::max);
            row.iter().filter(|&&p| p > peak / 2.0).count()
        };
        let bf = crate::isar::beamform_spectrum(&trace, &cfg.isar);
        let mu = music_spectrum(&trace, &cfg);
        assert!(
            width(&mu) < width(&bf),
            "MUSIC ({}) not sharper than beamforming ({})",
            width(&mu),
            width(&bf)
        );
    }

    #[test]
    fn signal_dim_estimator_quartile_fallback() {
        // Lower quartile of [100, 50, 0.01 ×4] is 0.01: both large
        // eigenvalues clear a 9 dB cut above it.
        assert_eq!(
            signal_subspace_dim(&[100.0, 50.0, 0.01, 0.01, 0.01, 0.01], 9.0, 8, None),
            2
        );
        // Flat (pure-noise) spectrum: nothing clears the cut → DC minimum.
        assert_eq!(
            signal_subspace_dim(&[1.1, 1.05, 1.0, 0.95, 0.9], 9.0, 8, None),
            1
        );
        // Always at least 1.
        assert_eq!(signal_subspace_dim(&[0.0], 9.0, 8, None), 1);
    }

    #[test]
    fn signal_dim_estimator_absolute_floor() {
        // With a known noise floor the cut is absolute: floor 1.0, 6 dB
        // cut → eigenvalues above ~4.0 are signal, even if half of them
        // are strong.
        let eig = [100.0, 90.0, 80.0, 70.0, 1.3, 1.1, 0.9, 0.8];
        assert_eq!(signal_subspace_dim(&eig, 6.0, 8, Some(1.0)), 4);
        // Cap respected.
        assert_eq!(signal_subspace_dim(&eig, 6.0, 3, Some(1.0)), 3);
        // Nothing above the floor → DC minimum of 1.
        assert_eq!(signal_subspace_dim(&[0.5, 0.4], 6.0, 8, Some(1.0)), 1);
    }

    #[test]
    fn smoothed_correlation_is_hermitian_psd() {
        let cfg = MusicConfig::fast_test();
        let mut trace = synthetic_target_trace(&cfg.isar, 64, 1.0, 3.0, 0.4);
        add_noise(&mut trace, 0.1, 7);
        let r = smoothed_correlation(&trace[..cfg.isar.window], cfg.subarray);
        assert!(r.hermitian_deviation() < 1e-12);
        let eig = hermitian_eig(&r);
        assert!(eig.values.iter().all(|&l| l > -1e-10));
    }

    #[test]
    #[should_panic(expected = "w' < w")]
    fn rejects_subarray_not_smaller_than_window() {
        let mut cfg = MusicConfig::fast_test();
        cfg.subarray = cfg.isar.window;
        cfg.validate();
    }
}
