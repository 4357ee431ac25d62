//! Inverse synthetic aperture processing (paper §5.1).
//!
//! Wi-Vi has one receive antenna, so at any instant it captures a single
//! measurement — but a *moving* target samples space as it moves, and by
//! channel reciprocity consecutive time samples of the nulled channel
//! `h[n]` correspond to consecutive spatial positions of the target. The
//! tracker therefore groups `w` consecutive channel samples into an
//! emulated antenna array with element spacing `Δ = 2·v·T` (`v` the
//! assumed human speed, `T` the sampling period; the factor 2 accounts for
//! the round trip) and beamforms it:
//!
//! ```text
//! A[θ, n] = Σ_{i=1..w} h[n+i] · e^{−j·(2π/λ)·i·Δ·sinθ}      (Eq. 5.1)
//! ```
//!
//! Sign convention: `θ > 0` ⇔ the target moves *toward* the device
//! (closing range ⇒ the channel phase advances ⇒ matched by positive
//! `sinθ`), matching Fig. 1-1(b) and the gesture figures. A static
//! environment (or the residual DC after nulling) accumulates coherently
//! only at `θ = 0` — the paper's "zero line".

use std::sync::Arc;

use wivi_num::Complex64;

use crate::cache::TableStore;
use crate::spectrogram::AngleSpectrogram;
use crate::stage::{Stage, StreamingBeamform};

/// Parameters of the emulated array.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IsarConfig {
    /// Emulated array size `w` (§7.1 uses 100).
    pub window: usize,
    /// Hop between successive analysis windows, in samples.
    pub hop: usize,
    /// Channel sampling period `T`, seconds (§7.1: 0.32 s / 100 = 3.2 ms).
    pub sample_period_s: f64,
    /// Assumed target speed `v` in m/s (§5.1 defaults to 1 m/s, the
    /// comfortable walking speed of ref.\[11\]; errors in `v` scale the angle
    /// estimate but never flip its sign).
    pub assumed_speed: f64,
    /// Carrier wavelength λ, metres.
    pub wavelength: f64,
    /// Number of angle bins across [−90°, +90°].
    pub n_angles: usize,
}

impl IsarConfig {
    /// The paper's configuration: `w = 100` over 0.32 s, v = 1 m/s,
    /// 1° angle resolution.
    pub fn wivi_default() -> Self {
        Self {
            window: 100,
            hop: 16,
            sample_period_s: 0.32 / 100.0,
            assumed_speed: 1.0,
            wavelength: wivi_rf::carrier_wavelength(),
            n_angles: 181,
        }
    }

    /// A reduced configuration for fast unit tests (w = 40, 61 angles).
    pub fn fast_test() -> Self {
        Self {
            window: 40,
            hop: 8,
            n_angles: 61,
            ..Self::wivi_default()
        }
    }

    /// Emulated element spacing `Δ = 2·v·T` (×2 for the round trip).
    pub fn element_spacing(&self) -> f64 {
        2.0 * self.assumed_speed * self.sample_period_s
    }

    /// The angle grid in degrees.
    pub fn thetas_deg(&self) -> Vec<f64> {
        (0..self.n_angles)
            .map(|i| -90.0 + 180.0 * i as f64 / (self.n_angles - 1) as f64)
            .collect()
    }

    /// Steering vector of length `len` for spatial angle `theta_deg`:
    /// element `i` is `e^{+j·(2π/λ)·i·Δ·sinθ}` — the phase signature of a
    /// target closing range at `v·sinθ`.
    pub fn steering_vector(&self, theta_deg: f64, len: usize) -> Vec<Complex64> {
        let k = std::f64::consts::TAU / self.wavelength
            * self.element_spacing()
            * theta_deg.to_radians().sin();
        (0..len).map(|i| Complex64::cis(k * i as f64)).collect()
    }

    /// Centre time of the analysis window starting at absolute sample
    /// `start` — the one expression every surface (streaming stages, the
    /// tracker's report, the serving engine) uses for window timestamps,
    /// so they can never round differently.
    pub fn window_center_s(&self, start: usize) -> f64 {
        (start as f64 + self.window as f64 / 2.0) * self.sample_period_s
    }

    /// Centre times of the analysis windows for a trace of `n` samples.
    pub fn window_times(&self, n: usize) -> Vec<f64> {
        let mut out = Vec::new();
        let mut start = 0usize;
        while start + self.window <= n {
            out.push(self.window_center_s(start));
            start += self.hop;
        }
        out
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    pub fn validate(&self) {
        assert!(self.window >= 4, "window too small");
        assert!(self.hop >= 1, "hop must be at least 1");
        assert!(self.sample_period_s > 0.0 && self.assumed_speed > 0.0);
        assert!(self.wavelength > 0.0);
        assert!(self.n_angles >= 3, "need at least 3 angle bins");
    }
}

/// The configuration-only state of a [`BeamformEngine`]: the angle grid
/// and its window-length steering vectors, built once per configuration
/// per process and shared through a process-wide [`TableStore`].
struct BeamformTables {
    /// The angle grid, shared with every spectrogram the engines emit.
    thetas: Arc<[f64]>,
    /// Per-angle steering vectors of window length, angle-major
    /// (`n_angles × window`).
    steering: Vec<Complex64>,
}

impl BeamformTables {
    /// Builds the tables for `cfg`. Expects a validated configuration.
    fn build(cfg: &IsarConfig) -> Self {
        let thetas = cfg.thetas_deg();
        let steering = thetas
            .iter()
            .flat_map(|&th| cfg.steering_vector(th, cfg.window))
            .collect();
        Self {
            thetas: thetas.into(),
            steering,
        }
    }
}

/// The process-wide store of [`BeamformTables`].
static BEAMFORM_TABLES: TableStore<IsarConfig, BeamformTables> = TableStore::new("beamform");

/// The reusable per-window Bartlett beamformer (Eq. 5.1): steering
/// vectors shared process-wide, applied to one emulated-array window at
/// a time. Shared by the offline [`beamform_spectrum`], the
/// incremental [`StreamingBeamform`] stage, and served gesture sessions.
pub struct BeamformEngine {
    cfg: IsarConfig,
    tables: Arc<BeamformTables>,
}

impl BeamformEngine {
    /// Builds an engine for `cfg` over the configuration's tables from
    /// the process-wide store (built there on first use).
    ///
    /// # Panics
    /// Panics on an invalid configuration (see [`IsarConfig::validate`]).
    pub fn new(cfg: IsarConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            tables: BEAMFORM_TABLES.get_or_build(&cfg, BeamformTables::build),
        }
    }

    /// The angle grid shared by every emitted row (and, through an
    /// `Arc`, by every spectrogram built from them).
    pub fn thetas_deg(&self) -> &Arc<[f64]> {
        &self.tables.thetas
    }

    /// Beamforms one window into a `|A[θ, n]|²` row.
    ///
    /// # Panics
    /// Panics if `window.len()` differs from the configured window.
    pub fn process_window(&mut self, window: &[Complex64]) -> Vec<f64> {
        assert_eq!(window.len(), self.cfg.window, "window length mismatch");
        let _span = wivi_obs::span("beamform.window");
        self.tables
            .steering
            .chunks_exact(self.cfg.window)
            .map(|s| {
                let a: Complex64 = window.iter().zip(s).map(|(h, e)| *h * e.conj()).sum();
                a.norm_sqr() / self.cfg.window as f64
            })
            .collect()
    }
}

/// Classic (Bartlett) beamforming of a nulled-channel trace: Eq. 5.1
/// evaluated over sliding windows. Returns `|A[θ, n]|²` as an
/// [`AngleSpectrogram`]. This is both §5.1's tracker and the baseline the
/// smoothed-MUSIC estimator is compared against (§5.2 footnote 6: "more
/// noise ... significant side lobes").
///
/// Offline entry point over the same [`StreamingBeamform`] stage the
/// incremental pipeline uses, so the two agree bit-for-bit.
pub fn beamform_spectrum(trace: &[Complex64], cfg: &IsarConfig) -> AngleSpectrogram {
    let mut stage = StreamingBeamform::new(*cfg);
    stage.push(trace);
    stage.finish()
}

/// Synthesizes the ideal nulled channel of a point target closing range at
/// `radial_speed` m/s from initial round-trip-phase distance `range0_m` —
/// useful for tests, calibration and the ablation benches.
pub fn synthetic_target_trace(
    cfg: &IsarConfig,
    n: usize,
    amplitude: f64,
    range0_m: f64,
    radial_speed: f64,
) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            let t = i as f64 * cfg.sample_period_s;
            let d = range0_m - radial_speed * t;
            Complex64::from_polar(amplitude, -2.0 * std::f64::consts::TAU * d / cfg.wavelength)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_spacing_accounts_for_round_trip() {
        let cfg = IsarConfig::wivi_default();
        assert!((cfg.element_spacing() - 2.0 * 1.0 * 0.0032).abs() < 1e-12);
    }

    #[test]
    fn angle_grid_spans_plus_minus_90() {
        let cfg = IsarConfig::wivi_default();
        let th = cfg.thetas_deg();
        assert_eq!(th.len(), 181);
        assert_eq!(th[0], -90.0);
        assert_eq!(*th.last().unwrap(), 90.0);
        assert_eq!(th[90], 0.0);
    }

    #[test]
    fn steering_vector_is_unit_modulus() {
        let cfg = IsarConfig::wivi_default();
        for v in cfg.steering_vector(37.0, 50) {
            assert!((v.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn dc_trace_peaks_at_zero_angle() {
        let cfg = IsarConfig::fast_test();
        let trace = vec![Complex64::new(1.0, 0.5); 200];
        let spec = beamform_spectrum(&trace, &cfg);
        for t in 0..spec.n_times() {
            let peak = spec.dominant_angle(t, 0.0).unwrap();
            assert!(peak.abs() < 4.0, "DC peaked at {peak}°");
        }
    }

    #[test]
    fn approaching_target_yields_positive_angle() {
        let cfg = IsarConfig::fast_test();
        // Closing at 0.5 m/s with assumed v = 1 m/s ⇒ sinθ = 0.5 ⇒ 30°.
        let trace = synthetic_target_trace(&cfg, 200, 1.0, 4.0, 0.5);
        let spec = beamform_spectrum(&trace, &cfg);
        let th = spec.dominant_angle(0, 0.0).unwrap();
        assert!((th - 30.0).abs() <= 6.0, "peak at {th}° (expected ≈ 30°)");
    }

    #[test]
    fn receding_target_yields_negative_angle() {
        let cfg = IsarConfig::fast_test();
        let trace = synthetic_target_trace(&cfg, 200, 1.0, 4.0, -0.5);
        let spec = beamform_spectrum(&trace, &cfg);
        let th = spec.dominant_angle(0, 0.0).unwrap();
        assert!((th + 30.0).abs() <= 6.0, "peak at {th}° (expected ≈ −30°)");
    }

    #[test]
    fn full_speed_target_lands_at_90_degrees() {
        let cfg = IsarConfig::fast_test();
        let trace = synthetic_target_trace(&cfg, 200, 1.0, 4.0, 1.0);
        let spec = beamform_spectrum(&trace, &cfg);
        let th = spec.dominant_angle(0, 0.0).unwrap();
        assert!(th > 75.0, "peak at {th}° (expected ≈ +90°)");
    }

    #[test]
    fn speed_error_scales_but_does_not_flip_angle() {
        // §5.1: "errors in the value of v translate to an under/over
        // estimation of the direction ... but do not prevent tracking
        // whether the human is moving closer or away".
        let mut cfg = IsarConfig::fast_test();
        cfg.assumed_speed = 1.3; // subject actually moves 0.5 m/s
        let trace = synthetic_target_trace(&cfg, 200, 1.0, 4.0, 0.5);
        let spec = beamform_spectrum(&trace, &cfg);
        let th = spec.dominant_angle(0, 0.0).unwrap();
        assert!(th > 5.0, "sign flipped: {th}°");
        assert!((th - 30.0).abs() > 3.0, "angle should be biased, got {th}°");
    }

    #[test]
    fn resolution_improves_with_aperture() {
        // §1.2: a narrow beam needs ≈ 4λ of target motion. Compare the
        // −3 dB beamwidth of a short and a long window.
        let beamwidth = |window: usize| {
            let cfg = IsarConfig {
                window,
                hop: window,
                ..IsarConfig::fast_test()
            };
            let trace = synthetic_target_trace(&cfg, window + 1, 1.0, 4.0, 0.5);
            let spec = beamform_spectrum(&trace, &cfg);
            let row = &spec.power[0];
            let peak = row.iter().copied().fold(0.0f64, f64::max);
            row.iter().filter(|&&p| p > peak / 2.0).count()
        };
        let wide = beamwidth(16); //  16·Δ ≈ 0.10 m ≈ 0.8λ aperture
        let narrow = beamwidth(128); // 128·Δ ≈ 0.82 m ≈ 6.7λ aperture
        assert!(
            narrow * 2 < wide,
            "beamwidth did not shrink: {wide} bins → {narrow} bins"
        );
    }

    #[test]
    fn window_times_are_centered_and_hop_spaced() {
        let cfg = IsarConfig::fast_test();
        let times = cfg.window_times(100);
        assert!(!times.is_empty());
        let dt = times[1] - times[0];
        assert!((dt - cfg.hop as f64 * cfg.sample_period_s).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shorter")]
    fn rejects_short_traces() {
        let cfg = IsarConfig::wivi_default();
        let _ = beamform_spectrum(&[Complex64::ONE; 10], &cfg);
    }
}
