//! Cell-averaging CFAR detection over 2-D power images.
//!
//! The imaging pipeline's detector: a cell is a target when its power
//! exceeds the *locally estimated* noise level by a configured factor.
//! The noise estimate is the mean over a square training ring around the
//! cell (a guard ring in between keeps the target's own energy out of
//! the estimate) — the classic cell-averaging CFAR, whose false-alarm
//! rate is independent of the absolute noise power because the test is a
//! pure ratio. Detections are additionally required to be local maxima
//! of their 3×3 neighbourhood, so one target produces one detection, not
//! a plateau of threshold crossings.
//!
//! Everything is deterministic: cells are scanned in flat row-major
//! order and ties between equal-power neighbours break toward the lower
//! flat index.

use crate::grid2d::Grid2d;
use crate::stats::from_db;

/// Cell-averaging CFAR tuning.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CfarConfig {
    /// Guard ring half-width, cells: the square `(2·guard+1)²` block
    /// around the cell under test is excluded from the noise estimate
    /// (it may contain the target's own skirt).
    pub guard: usize,
    /// Training ring width, cells: the noise is averaged over the square
    /// annulus between the guard ring and `guard + train` cells away.
    pub train: usize,
    /// Detection threshold over the local noise estimate, dB.
    pub threshold_db: f64,
    /// Minimum number of training cells required for a valid noise
    /// estimate — cells whose (grid-clipped) training ring is smaller
    /// are never detected. Guards the grid corners, where the ring
    /// collapses to a handful of cells and the estimate is worthless.
    pub min_train_cells: usize,
}

impl Default for CfarConfig {
    fn default() -> Self {
        Self {
            guard: 2,
            train: 3,
            threshold_db: 7.0,
            min_train_cells: 8,
        }
    }
}

impl CfarConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    pub fn validate(&self) {
        assert!(self.train >= 1, "need at least one training-ring cell");
        assert!(self.threshold_db > 0.0, "threshold must be positive dB");
        assert!(self.min_train_cells >= 1);
    }
}

/// One CFAR detection: a cell whose power cleared the local threshold
/// and peaked over its neighbourhood.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CfarDetection {
    /// Cell coordinates.
    pub ix: usize,
    pub iy: usize,
    /// The cell's power (linear, whatever units the image carries).
    pub power: f64,
    /// The local noise estimate the threshold was formed from.
    pub noise: f64,
}

impl CfarDetection {
    /// Detection-to-noise ratio, dB.
    pub fn snr_db(&self) -> f64 {
        10.0 * (self.power / self.noise.max(1e-300)).log10()
    }
}

/// Runs cell-averaging CFAR over a flat row-major `power` image of shape
/// `grid`, returning detections in flat-index (row-major) order.
///
/// # Panics
/// Panics if `power.len() != grid.len()` or the configuration is
/// invalid.
pub fn ca_cfar_2d(power: &[f64], grid: Grid2d, cfg: &CfarConfig) -> Vec<CfarDetection> {
    let mut out = Vec::new();
    ca_cfar_2d_into(power, grid, cfg, &mut out);
    out
}

/// [`ca_cfar_2d`] into a caller-owned list: clears `out`, then pushes
/// the detections in flat-index order, so a list reused across images
/// allocates only when it outgrows every earlier one.
///
/// # Panics
/// Panics if `power.len() != grid.len()` or the configuration is
/// invalid.
pub fn ca_cfar_2d_into(
    power: &[f64],
    grid: Grid2d,
    cfg: &CfarConfig,
    out: &mut Vec<CfarDetection>,
) {
    cfg.validate();
    assert_eq!(power.len(), grid.len(), "image shape mismatch");
    out.clear();
    let reach = (cfg.guard + cfg.train) as isize;
    let guard = cfg.guard as isize;
    let factor = from_db(cfg.threshold_db);
    for i in 0..grid.len() {
        let (ix, iy) = grid.coords(i);
        let p = power[i];
        // Local 3×3 peak test first (cheap): ties break to the lower
        // flat index so a plateau yields exactly one detection.
        let mut is_peak = true;
        'peak: for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let (jx, jy) = (ix as isize + dx, iy as isize + dy);
                if !grid.contains(jx, jy) {
                    continue;
                }
                let j = grid.idx(jx as usize, jy as usize);
                if power[j] > p || (power[j] == p && j < i) {
                    is_peak = false;
                    break 'peak;
                }
            }
        }
        if !is_peak {
            continue;
        }
        // Noise: mean over the training ring, clipped to the grid.
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for dy in -reach..=reach {
            for dx in -reach..=reach {
                if dx.abs() <= guard && dy.abs() <= guard {
                    continue;
                }
                let (jx, jy) = (ix as isize + dx, iy as isize + dy);
                if !grid.contains(jx, jy) {
                    continue;
                }
                sum += power[grid.idx(jx as usize, jy as usize)];
                n += 1;
            }
        }
        if n < cfg.min_train_cells {
            continue;
        }
        let noise = sum / n as f64;
        if p > noise * factor {
            out.push(CfarDetection {
                ix,
                iy,
                power: p,
                noise,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_image(grid: Grid2d, level: f64) -> Vec<f64> {
        vec![level; grid.len()]
    }

    #[test]
    fn flat_image_yields_no_detections() {
        let g = Grid2d::new(12, 10);
        let img = flat_image(g, 3.7);
        assert!(ca_cfar_2d(&img, g, &CfarConfig::default()).is_empty());
    }

    #[test]
    fn single_spike_is_detected_at_its_cell() {
        let g = Grid2d::new(12, 10);
        let mut img = flat_image(g, 1.0);
        img[g.idx(5, 4)] = 100.0;
        let d = ca_cfar_2d(&img, g, &CfarConfig::default());
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].ix, d[0].iy), (5, 4));
        assert!(d[0].snr_db() > 15.0);
    }

    #[test]
    fn two_separated_spikes_both_detected_in_index_order() {
        let g = Grid2d::new(16, 12);
        let mut img = flat_image(g, 1.0);
        img[g.idx(3, 2)] = 50.0;
        img[g.idx(12, 9)] = 80.0;
        let d = ca_cfar_2d(&img, g, &CfarConfig::default());
        assert_eq!(d.len(), 2);
        assert_eq!((d[0].ix, d[0].iy), (3, 2));
        assert_eq!((d[1].ix, d[1].iy), (12, 9));
    }

    #[test]
    fn plateau_produces_exactly_one_detection() {
        let g = Grid2d::new(12, 10);
        let mut img = flat_image(g, 1.0);
        // A 2×2 plateau of equal power: exactly one detection (the
        // lowest flat index).
        for (ix, iy) in [(5usize, 4usize), (6, 4), (5, 5), (6, 5)] {
            img[g.idx(ix, iy)] = 60.0;
        }
        let d = ca_cfar_2d(&img, g, &CfarConfig::default());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!((d[0].ix, d[0].iy), (5, 4));
    }

    #[test]
    fn skirt_inside_guard_ring_does_not_mask_the_peak() {
        let g = Grid2d::new(12, 10);
        let mut img = flat_image(g, 1.0);
        img[g.idx(5, 4)] = 100.0;
        // Target skirt in the 8 adjacent cells — inside the guard ring,
        // so the noise estimate must not swallow it.
        for dy in -1i32..=1 {
            for dx in -1i32..=1 {
                if dx != 0 || dy != 0 {
                    img[g.idx((5 + dx) as usize, (4 + dy) as usize)] = 30.0;
                }
            }
        }
        let d = ca_cfar_2d(&img, g, &CfarConfig::default());
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].ix, d[0].iy), (5, 4));
    }

    #[test]
    fn corner_with_starved_training_ring_is_suppressed() {
        let g = Grid2d::new(8, 8);
        let mut img = flat_image(g, 1.0);
        img[g.idx(0, 0)] = 1e6;
        let cfg = CfarConfig {
            guard: 1,
            train: 1,
            // The clipped corner ring has at most 5 cells.
            min_train_cells: 6,
            ..CfarConfig::default()
        };
        assert!(ca_cfar_2d(&img, g, &cfg).is_empty());
    }

    #[test]
    fn into_a_reused_list_replaces_its_contents() {
        let g = Grid2d::new(16, 12);
        let mut img = flat_image(g, 1.0);
        img[g.idx(3, 2)] = 50.0;
        img[g.idx(12, 9)] = 80.0;
        let mut out = Vec::new();
        ca_cfar_2d_into(&img, g, &CfarConfig::default(), &mut out);
        assert_eq!(out, ca_cfar_2d(&img, g, &CfarConfig::default()));
        // A second image overwrites the list instead of appending to it.
        img[g.idx(3, 2)] = 1.0;
        ca_cfar_2d_into(&img, g, &CfarConfig::default(), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].ix, out[0].iy), (12, 9));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn rejects_wrong_image_length() {
        let g = Grid2d::new(4, 4);
        let _ = ca_cfar_2d(&[1.0; 15], g, &CfarConfig::default());
    }
}
