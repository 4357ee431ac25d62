//! The angle–time representation `A′[θ, n]` and its rendering.
//!
//! Every tracker in this crate (classic beamforming, smoothed MUSIC)
//! produces an [`AngleSpectrogram`]: power as a function of spatial angle
//! `θ ∈ [−90°, +90°]` and time. The paper's Figs. 5-2, 5-3, 6-1 and 7-2
//! are heatmaps of this object; [`AngleSpectrogram::render_ascii`]
//! reproduces them in a terminal.

use std::sync::Arc;

/// Absolute dB of a linear power, clamped away from `log(0)`:
/// `10·log₁₀(max(p, 1e−30))`. The one conversion shared by the ridge
/// maps, the counting statistic and the tracker's detector, so their
/// notions of "ridge" can never drift apart.
pub fn power_db(p: f64) -> f64 {
    10.0 * p.max(1e-30).log10()
}

/// The shared per-bin ridge test: a spectrogram bin is *ridge support*
/// when it lies outside the DC guard and its absolute dB clears the
/// threshold. Valid for spectra with a calibrated unit floor (the
/// normalized MUSIC pseudospectrum scores exactly 1 where steering
/// vectors see no signal). This is the predicate
/// [`crate::counting::window_spatial_variance`] sums over and the
/// detector extracts peaks from.
pub fn is_ridge_bin(theta_deg: f64, p: f64, threshold_db: f64, dc_guard_deg: f64) -> bool {
    theta_deg.abs() >= dc_guard_deg && power_db(p) >= threshold_db
}

/// One ridge peak extracted from a spectrogram column — a local maximum
/// of the ridge support with its position refined below the angle-bin
/// quantum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RidgePeak {
    /// Index of the peak's angle bin.
    pub bin: usize,
    /// Sub-bin interpolated peak angle, degrees.
    pub theta_deg: f64,
    /// Interpolated peak height, absolute dB.
    pub power_db: f64,
}

/// Extracts the ridge peaks of one spectrogram column: every strict local
/// maximum of the ridge support (see [`is_ridge_bin`]), position-refined
/// by a three-point parabolic fit in the dB domain (the standard sub-bin
/// interpolation; the offset is clamped to ±½ bin so a degenerate fit can
/// never leave the peak's cell). Peaks are returned in ascending angle
/// order. Plateaus yield their leftmost bin, so the output is
/// deterministic bit-for-bit.
///
/// This is the per-column kernel shared by the spatial-variance counter
/// (which only needs the support) and the multi-target tracker's
/// detector (which needs the refined peaks).
pub fn ridge_peaks(
    thetas_deg: &[f64],
    power_row: &[f64],
    threshold_db: f64,
    dc_guard_deg: f64,
) -> Vec<RidgePeak> {
    assert_eq!(
        thetas_deg.len(),
        power_row.len(),
        "one power value per angle"
    );
    let n = power_row.len();
    let mut peaks = Vec::new();
    for i in 0..n {
        if !is_ridge_bin(thetas_deg[i], power_row[i], threshold_db, dc_guard_deg) {
            continue;
        }
        let p = power_row[i];
        let left_lower = i == 0 || power_row[i - 1] < p;
        let right_not_higher = i + 1 == n || power_row[i + 1] <= p;
        if !(left_lower && right_not_higher) {
            continue;
        }
        let c = power_db(p);
        let (theta, height) = if i == 0 || i + 1 == n {
            (thetas_deg[i], c)
        } else {
            let l = power_db(power_row[i - 1]);
            let r = power_db(power_row[i + 1]);
            let denom = l - 2.0 * c + r;
            if denom >= 0.0 {
                // Flat or non-concave neighbourhood: no refinement.
                (thetas_deg[i], c)
            } else {
                let delta = (0.5 * (l - r) / denom).clamp(-0.5, 0.5);
                let bin_width = thetas_deg[i + 1] - thetas_deg[i];
                (
                    thetas_deg[i] + delta * bin_width,
                    c - 0.25 * (l - r) * delta,
                )
            }
        };
        peaks.push(RidgePeak {
            bin: i,
            theta_deg: theta,
            power_db: height,
        });
    }
    peaks
}

/// Power (linear) over a grid of spatial angles × time windows.
#[derive(Clone, Debug)]
pub struct AngleSpectrogram {
    /// Angle grid in degrees, ascending (typically −90 ..= +90). A
    /// spectrogram from an engine shares its configuration's grid with
    /// the engine's tables rather than owning a copy.
    pub thetas_deg: Arc<[f64]>,
    /// Centre time of each analysis window, seconds.
    pub times_s: Vec<f64>,
    /// `power[t][a]`: linear power at `times_s[t]`, `thetas_deg[a]`.
    pub power: Vec<Vec<f64>>,
}

impl AngleSpectrogram {
    /// Creates a spectrogram, validating shapes. The angle grid may be
    /// an owned `Vec` or a shared `Arc<[f64]>`.
    ///
    /// # Panics
    /// Panics on inconsistent dimensions or empty grids.
    pub fn new(thetas_deg: impl Into<Arc<[f64]>>, times_s: Vec<f64>, power: Vec<Vec<f64>>) -> Self {
        let thetas_deg = thetas_deg.into();
        assert!(!thetas_deg.is_empty() && !times_s.is_empty());
        assert_eq!(power.len(), times_s.len(), "one power row per time window");
        for row in &power {
            assert_eq!(row.len(), thetas_deg.len(), "one power value per angle");
        }
        Self {
            thetas_deg,
            times_s,
            power,
        }
    }

    /// Number of time windows.
    pub fn n_times(&self) -> usize {
        self.times_s.len()
    }

    /// Number of angle bins.
    pub fn n_angles(&self) -> usize {
        self.thetas_deg.len()
    }

    /// Index of the angle bin closest to `deg`.
    pub fn angle_index(&self, deg: f64) -> usize {
        self.thetas_deg
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - deg).abs().partial_cmp(&(b.1 - deg).abs()).unwrap())
            .unwrap()
            .0
    }

    /// Per-window dB map relative to that window's noise floor — the
    /// *median* power across angles, clamped below at 0 dB:
    /// `w[t][a] = max(0, 10·log10(p[t][a] / median_a p[t][a]))`.
    /// Ridges (the DC spike, moving bodies) occupy few angle bins, so the
    /// median tracks the grass level and ridge heights stay comparable
    /// across windows regardless of how many bodies are present (a
    /// min-based floor would compress ridges whenever the pseudospectrum
    /// floor rises). This is the weighting used by the spatial-variance
    /// human counter.
    pub fn db_floor_normalized(&self) -> Vec<Vec<f64>> {
        self.power
            .iter()
            .map(|row| {
                let mut sorted = row.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let floor = sorted[sorted.len() / 2].max(1e-30);
                row.iter()
                    .map(|p| (10.0 * (p / floor).log10()).max(0.0))
                    .collect()
            })
            .collect()
    }

    /// The angle (degrees) of maximum power in window `t`, ignoring bins
    /// within `dc_guard_deg` of zero (the DC line).
    pub fn dominant_angle(&self, t: usize, dc_guard_deg: f64) -> Option<f64> {
        let mut best: Option<(f64, f64)> = None;
        for (a, &th) in self.thetas_deg.iter().enumerate() {
            if th.abs() < dc_guard_deg {
                continue;
            }
            let p = self.power[t][a];
            if best.is_none_or(|(bp, _)| p > bp) {
                best = Some((p, th));
            }
        }
        best.map(|(_, th)| th)
    }

    /// Per-window dB map with a ridge threshold applied: values below
    /// `threshold_db` above the window floor are zeroed. MUSIC noise
    /// "grass" — the speckle visible in the background of the paper's
    /// Fig. 7-2 — sits below ~10 dB; real ridges (DC, bodies) sit well
    /// above, so thresholding isolates the structure that the counting
    /// and gesture statistics are meant to measure.
    pub fn db_ridges(&self, threshold_db: f64) -> Vec<Vec<f64>> {
        let mut db = self.db_floor_normalized();
        for row in &mut db {
            for v in row.iter_mut() {
                if *v < threshold_db {
                    *v = 0.0;
                }
            }
        }
        db
    }

    /// Absolute-scale dB map `max(0, 10·log10 p)` with a ridge threshold.
    /// Valid for spectra with a calibrated unit floor — the normalized
    /// MUSIC pseudospectrum of [`crate::music::music_spectrum`] scores
    /// exactly 1 where steering vectors see no signal — so, unlike
    /// [`Self::db_ridges`], ridge heights do not compress when other
    /// bodies raise the window's overall level: per-body ridge mass stays
    /// additive, which the human counter depends on.
    pub fn db_ridges_absolute(&self, threshold_db: f64) -> Vec<Vec<f64>> {
        self.power
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&p| {
                        let db = power_db(p);
                        if db < threshold_db {
                            0.0
                        } else {
                            db
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The [`ridge_peaks`] of window `t`'s column.
    pub fn ridge_peaks(&self, t: usize, threshold_db: f64, dc_guard_deg: f64) -> Vec<RidgePeak> {
        ridge_peaks(&self.thetas_deg, &self.power[t], threshold_db, dc_guard_deg)
    }

    /// Signed angle-energy track used by the gesture decoder: for each
    /// window, (sum of ridge dB at θ > guard) − (same at θ < −guard),
    /// with sub-ridge grass removed by `threshold_db` (see
    /// [`Self::db_ridges`]). Forward steps drive it positive, backward
    /// steps negative; the DC line near θ = 0 is excluded.
    pub fn signed_energy(&self, dc_guard_deg: f64, threshold_db: f64) -> Vec<f64> {
        let db = self.db_ridges(threshold_db);
        db.iter()
            .map(|row| {
                let mut s = 0.0;
                for (a, &th) in self.thetas_deg.iter().enumerate() {
                    if th > dc_guard_deg {
                        s += row[a];
                    } else if th < -dc_guard_deg {
                        s -= row[a];
                    }
                }
                s
            })
            .collect()
    }

    /// Renders the spectrogram as an ASCII heatmap (angle on y, +90° at
    /// the top as in the paper's figures; time on x), `rows × cols`
    /// characters plus axes.
    pub fn render_ascii(&self, rows: usize, cols: usize) -> String {
        assert!(rows >= 2 && cols >= 2);
        const RAMP: &[u8] = b" .:-=+*#%@";
        let db = self.db_floor_normalized();
        let max_db = db
            .iter()
            .flat_map(|r| r.iter().copied())
            .fold(0.0f64, f64::max)
            .max(1e-9);

        let mut out = String::new();
        for r in 0..rows {
            // Top row = +90°.
            let fa = (rows - 1 - r) as f64 / (rows - 1) as f64;
            let a = (fa * (self.n_angles() - 1) as f64).round() as usize;
            let theta = self.thetas_deg[a];
            out.push_str(&format!("{theta:>5.0}° |"));
            for c in 0..cols {
                let ft = c as f64 / (cols - 1) as f64;
                let t = (ft * (self.n_times() - 1) as f64).round() as usize;
                let level = (db[t][a] / max_db).clamp(0.0, 1.0);
                let idx = ((RAMP.len() - 1) as f64 * level).round() as usize;
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "       +{}\n        t = {:.1}s .. {:.1}s\n",
            "-".repeat(cols),
            self.times_s.first().unwrap(),
            self.times_s.last().unwrap()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> AngleSpectrogram {
        // 3 angles × 2 windows; a hot spot at (+90°, t1).
        AngleSpectrogram::new(
            vec![-90.0, 0.0, 90.0],
            vec![0.0, 1.0],
            vec![vec![1.0, 10.0, 1.0], vec![1.0, 10.0, 100.0]],
        )
    }

    #[test]
    fn floor_normalization_is_nonnegative_and_median_referenced() {
        let db = demo().db_floor_normalized();
        for row in &db {
            assert!(row.iter().all(|&v| v >= 0.0));
        }
        // Window 0: median 1 → the 10× spike reads 10 dB.
        assert!((db[0][1] - 10.0).abs() < 1e-9);
        // Window 1: median 10 → the 100× spike reads 10 dB, floor clamps.
        assert!((db[1][2] - 10.0).abs() < 1e-9);
        assert_eq!(db[1][0], 0.0);
    }

    #[test]
    fn dominant_angle_skips_dc() {
        let s = demo();
        // Window 0: max is at θ=0 (DC) but guard excludes it → ±90 tie,
        // either is acceptable; window 1: clear peak at +90.
        assert_eq!(s.dominant_angle(1, 5.0), Some(90.0));
        // Without a guard the DC wins in window 0.
        assert_eq!(s.dominant_angle(0, 0.0), Some(0.0));
    }

    #[test]
    fn signed_energy_sign_convention() {
        let s = demo();
        let e = s.signed_energy(5.0, 0.0);
        // Window 1 has strong +90° energy → positive.
        assert!(e[1] > 0.0);
        // Window 0 is symmetric at the floor → zero.
        assert!(e[0].abs() < 1e-9);
    }

    #[test]
    fn ridge_threshold_zeroes_grass() {
        let s = demo();
        // Median-referenced: window 0 → [0, 10, 0]; window 1 → [0, 0, 10].
        // An 8 dB ridge threshold keeps only the 10 dB spikes.
        let r = s.db_ridges(8.0);
        assert_eq!(r[0], vec![0.0, 10.0, 0.0]);
        assert_eq!(r[1], vec![0.0, 0.0, 10.0]);
        // Thresholded signed energy in window 1 counts only the ridge.
        let e = s.signed_energy(5.0, 8.0);
        assert!((e[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn angle_index_nearest() {
        let s = demo();
        assert_eq!(s.angle_index(80.0), 2);
        assert_eq!(s.angle_index(-1.0), 1);
    }

    #[test]
    fn ascii_render_has_expected_shape() {
        let art = demo().render_ascii(3, 10);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 5); // 3 rows + axis + time label
        assert!(lines[0].contains("90°"));
        assert!(lines[0].contains('|'));
        // Hot spot renders as the densest character somewhere in row 0.
        assert!(lines[0].contains('@'));
    }

    #[test]
    #[should_panic(expected = "one power value per angle")]
    fn shape_validation() {
        let _ = AngleSpectrogram::new(vec![0.0], vec![0.0], vec![vec![1.0, 2.0]]);
    }

    #[test]
    fn ridge_peaks_respect_threshold_and_guard() {
        let thetas: Vec<f64> = (0..19).map(|i| -90.0 + 10.0 * i as f64).collect();
        let mut row = vec![1.0; 19];
        row[9] = 1e6; // DC spike (θ = 0) — must be guarded out.
        row[13] = 100.0; // +40°, 20 dB — a ridge.
        row[3] = 5.0; // −60°, 7 dB — below a 10 dB threshold.
        let peaks = ridge_peaks(&thetas, &row, 10.0, 10.0);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].bin, 13);
        assert!((peaks[0].theta_deg - 40.0).abs() < 5.0);
        assert!(peaks[0].power_db >= 20.0);
    }

    #[test]
    fn ridge_peak_interpolation_is_sub_bin() {
        // A peak whose true maximum lies between bins 12 (+30°) and
        // 13 (+40°): the right neighbour is hotter than the left, so the
        // refined angle must sit above the +30° grid point.
        let thetas: Vec<f64> = (0..19).map(|i| -90.0 + 10.0 * i as f64).collect();
        let mut row = vec![1.0; 19];
        row[11] = 50.0;
        row[12] = 400.0;
        row[13] = 300.0;
        let peaks = ridge_peaks(&thetas, &row, 10.0, 10.0);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].bin, 12);
        assert!(
            peaks[0].theta_deg > 30.0 && peaks[0].theta_deg < 35.0,
            "interpolated {}",
            peaks[0].theta_deg
        );
        // The refined height can only exceed the sampled bin height.
        assert!(peaks[0].power_db >= power_db(400.0));
    }

    #[test]
    fn ridge_peaks_split_two_bodies() {
        let thetas: Vec<f64> = (0..19).map(|i| -90.0 + 10.0 * i as f64).collect();
        let mut row = vec![1.0; 19];
        row[4] = 200.0; // −50°
        row[14] = 150.0; // +50°
        let peaks = ridge_peaks(&thetas, &row, 10.0, 10.0);
        assert_eq!(peaks.len(), 2);
        assert!(peaks[0].theta_deg < 0.0 && peaks[1].theta_deg > 0.0);
    }

    #[test]
    fn ridge_peak_plateau_yields_single_leftmost_peak() {
        let thetas: Vec<f64> = (0..19).map(|i| -90.0 + 10.0 * i as f64).collect();
        let mut row = vec![1.0; 19];
        row[13] = 100.0;
        row[14] = 100.0;
        let peaks = ridge_peaks(&thetas, &row, 10.0, 10.0);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].bin, 13);
    }

    #[test]
    fn ridge_peak_at_grid_edge_is_not_interpolated() {
        let thetas: Vec<f64> = (0..19).map(|i| -90.0 + 10.0 * i as f64).collect();
        let mut row = vec![1.0; 19];
        row[18] = 100.0; // +90°, the last bin
        let peaks = ridge_peaks(&thetas, &row, 10.0, 10.0);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].theta_deg, 90.0);
        assert_eq!(peaks[0].power_db, power_db(100.0));
    }

    #[test]
    fn spectrogram_method_matches_free_function() {
        let s = demo();
        for t in 0..s.n_times() {
            assert_eq!(
                s.ridge_peaks(t, 10.0, 10.0),
                ridge_peaks(&s.thetas_deg, &s.power[t], 10.0, 10.0)
            );
        }
    }
}
