//! Imaging configuration: the room grid and the aperture geometry.
//!
//! Imaging reuses the tracker's emulated-ISAR premise (§5.1: consecutive
//! channel samples of a moving subject are consecutive spatial samples)
//! but drops the far-field approximation: instead of scoring *directions*
//! against a linear phase ramp, every room cell is scored against the
//! exact round-trip phase history a subject at that cell would produce
//! over the analysis window — near-field backprojection. Because range
//! only enters through wavefront curvature across the emulated aperture,
//! the imaging window is several times the tracking window: the subject
//! must walk a couple of metres per window for the Fresnel curvature to
//! separate ranges.

use wivi_core::WiViConfig;
use wivi_num::{CfarConfig, Grid2d};
use wivi_rf::{DeviceLayout, Point, Rect, Scene};

/// A uniform grid over the imaged room, in scene coordinates (wall at
/// `y = 0`, room at `y > 0`). Cells are anisotropic by design: the
/// emulated aperture runs along x, so azimuth (x) resolution —
/// `≈ λ·d / (2L)`, centimetres for a metres-long aperture — is far
/// finer than range (y) resolution, which comes from Fresnel wavefront
/// curvature (`≈ 2λ(d/L)²`, several decimetres). A grid sampled
/// coarser than the azimuth main lobe would drop subjects that walk
/// between cell centres.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridSpec {
    /// Minimum corner of the covered region, metres.
    pub x0: f64,
    pub y0: f64,
    /// Cell extent along x (azimuth), metres.
    pub cell_x_m: f64,
    /// Cell extent along y (range), metres.
    pub cell_y_m: f64,
    /// Cells along x / y.
    pub nx: usize,
    pub ny: usize,
}

impl GridSpec {
    /// The smallest grid of `cell_x_m × cell_y_m` cells covering
    /// `rect`.
    ///
    /// # Panics
    /// Panics if either cell extent is non-positive.
    pub fn cover(rect: Rect, cell_x_m: f64, cell_y_m: f64) -> Self {
        assert!(
            cell_x_m > 0.0 && cell_y_m > 0.0,
            "cell size must be positive"
        );
        Self {
            x0: rect.min.x,
            y0: rect.min.y,
            cell_x_m,
            cell_y_m,
            nx: (rect.width() / cell_x_m).ceil().max(1.0) as usize,
            ny: (rect.height() / cell_y_m).ceil().max(1.0) as usize,
        }
    }

    /// The flat-buffer shape of this grid.
    pub fn grid2d(&self) -> Grid2d {
        Grid2d::new(self.nx, self.ny)
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// `true` if the grid covers no cells (impossible for a constructed
    /// grid).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Centre of cell `(ix, iy)`, metres.
    pub fn cell_center(&self, ix: usize, iy: usize) -> Point {
        Point::new(
            self.x0 + (ix as f64 + 0.5) * self.cell_x_m,
            self.y0 + (iy as f64 + 0.5) * self.cell_y_m,
        )
    }

    /// Cell diagonal, metres — the localization-error yardstick the
    /// acceptance tests use.
    pub fn diagonal_m(&self) -> f64 {
        self.cell_x_m.hypot(self.cell_y_m)
    }

    /// Validates the grid.
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    pub fn validate(&self) {
        assert!(
            self.cell_x_m > 0.0 && self.cell_y_m > 0.0,
            "cell size must be positive"
        );
        assert!(self.nx >= 2 && self.ny >= 2, "grid must be at least 2×2");
        assert!(self.x0.is_finite() && self.y0.is_finite());
    }
}

/// Full imaging configuration. Geometry only — the per-session nulling
/// weight is a *runtime* parameter of the engine, so sessions whose
/// nulling converged differently share one set of precomputed tables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImageConfig {
    /// The imaged region.
    pub grid: GridSpec,
    /// Analysis window (emulated aperture) length, channel samples.
    /// Several× the tracking window: range needs Fresnel curvature.
    pub window: usize,
    /// Hop between successive windows, samples.
    pub hop: usize,
    /// Channel sampling period `T`, seconds.
    pub sample_period_s: f64,
    /// Assumed subject speed, m/s (§5.1's `v`, shared with the tracker).
    pub assumed_speed: f64,
    /// Carrier wavelength λ, metres.
    pub wavelength: f64,
    /// Transmit antenna positions (the two nulling antennas).
    pub tx: [Point; 2],
    /// Receive antenna position.
    pub rx: Point,
    /// The CFAR detector over the focused image.
    pub cfar: CfarConfig,
    /// Keep at most this many fixes per window (strongest first). Must
    /// stay within [`wivi_num::assign::MAX_COLS`] for the tracker's
    /// association step.
    pub max_fixes: usize,
    /// Mirror-ghost suppression tolerance, metres (0 disables): the
    /// receive antenna sits on the `x = 0` axis, so a subject at
    /// `(x, y)` leaves a conjugate image near `(−x, y)`, broken only by
    /// the TX-pair asymmetry — often less than a dB below the true
    /// peak. Of a mirror pair, only the stronger member survives (ties
    /// break to the lower cell index); a genuinely mirror-symmetric
    /// pair of subjects is therefore seen as one — the same geometric
    /// blind spot the angle detector's conjugate-image rule has.
    pub mirror_tol_m: f64,
    /// Minimum separation between kept fixes, metres: of two fixes
    /// closer than this, only the stronger survives (a walking body is
    /// several scatterers; its focused blob can crest twice).
    pub min_separation_m: f64,
    /// Grid rows excluded from detection at each range (y) extreme. The
    /// nearest and farthest rows integrate every return the grid does
    /// not model — bodies beyond the imaged region and the broadband
    /// smear of limb micro-Doppler — exactly as the angle detector's
    /// ±90° edge bins do, so peaks there are artefacts, not fixes.
    pub edge_guard_cells: usize,
}

impl ImageConfig {
    /// The imaging configuration derived from a device configuration —
    /// the one the serving engine and the default device entry points
    /// use, so the two can never disagree. Aperture: 2 s of channel
    /// samples (a ~2 m emulated aperture at the assumed 1 m/s — range
    /// resolution comes from Fresnel curvature `~2λ(d/L)²`, so the
    /// aperture `L` must be metres, not the tracking window's 0.32 m),
    /// hopped every 0.4 s; grid: the small conference room at
    /// 0.125 × 0.5 m cells (azimuth × range, matched to the two axes'
    /// native resolutions); device geometry: the standard layout every
    /// [`Scene`] is built with.
    pub fn for_wivi(cfg: &WiViConfig) -> Self {
        let isar = &cfg.music.isar;
        let layout = DeviceLayout::standard(1.0);
        Self {
            grid: GridSpec::cover(Scene::conference_room_small(), 0.125, 0.5),
            window: (2.0 / isar.sample_period_s).round() as usize,
            hop: (0.4 / isar.sample_period_s).round() as usize,
            sample_period_s: isar.sample_period_s,
            assumed_speed: isar.assumed_speed,
            wavelength: isar.wavelength,
            tx: layout.tx,
            rx: layout.rx,
            cfar: CfarConfig::default(),
            max_fixes: 4,
            mirror_tol_m: 0.8,
            min_separation_m: 1.0,
            edge_guard_cells: 1,
        }
    }

    /// The paper-parameter configuration.
    pub fn wivi_default() -> Self {
        Self::for_wivi(&WiViConfig::paper_default())
    }

    /// Emulated element spacing along the aperture, metres (`v·T`; the
    /// round trip is handled by the exact two-leg path lengths, not a
    /// spacing factor as in the far-field [`wivi_core::IsarConfig`]).
    pub fn element_spacing(&self) -> f64 {
        self.assumed_speed * self.sample_period_s
    }

    /// Centre time of the analysis window starting at absolute sample
    /// `start` — the same expression the tracking stages use.
    pub fn window_center_s(&self, start: usize) -> f64 {
        (start as f64 + self.window as f64 / 2.0) * self.sample_period_s
    }

    /// Time between consecutive windows, seconds.
    pub fn window_dt_s(&self) -> f64 {
        self.hop as f64 * self.sample_period_s
    }

    /// Validates the configuration.
    ///
    /// The engine stores one steering table, TX 1's, and reads TX 2's as
    /// its mirror image across `x = 0`. That needs the receive antenna
    /// on `x = 0`, the transmit pair mirrored across it and cell centres
    /// that mirror exactly, as [`Self::for_wivi`]'s standard layout over
    /// the small conference room has; anything else is rejected.
    ///
    /// # Panics
    /// Panics on degenerate parameters or a geometry without that
    /// mirror symmetry.
    pub fn validate(&self) {
        self.grid.validate();
        self.cfar.validate();
        assert!(self.window >= 8, "imaging window too small");
        assert!(self.hop >= 1, "hop must be at least 1");
        assert!(self.sample_period_s > 0.0 && self.assumed_speed > 0.0);
        assert!(self.wavelength > 0.0);
        assert!(
            self.max_fixes >= 1 && self.max_fixes <= wivi_num::assign::MAX_COLS,
            "max_fixes must be in 1..={}",
            wivi_num::assign::MAX_COLS
        );
        assert!(self.mirror_tol_m >= 0.0);
        assert!(self.min_separation_m >= 0.0);
        assert!(
            2 * self.edge_guard_cells < self.grid.ny,
            "edge guard swallows the whole grid"
        );
        assert!(
            self.rx.x == 0.0,
            "imaging RX must sit on x = 0, midway between the TX pair (got x = {})",
            self.rx.x
        );
        let [t1, t2] = self.tx;
        assert!(
            t2.x == -t1.x && t2.y == t1.y,
            "imaging TX pair must mirror across x = 0 (got {t1:?} and {t2:?})"
        );
        let g = &self.grid;
        assert!(
            (0..g.nx).all(|ix| g.cell_center(g.nx - 1 - ix, 0).x == -g.cell_center(ix, 0).x),
            "imaging grid cell centres must mirror exactly across x = 0 \
             (x0 = {}, {} cells of {} m)",
            g.x0,
            g.nx,
            g.cell_x_m
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_tiles_the_room() {
        let g = GridSpec::cover(Scene::conference_room_small(), 0.125, 0.5);
        assert_eq!(g.nx, 56);
        assert_eq!(g.ny, 8);
        assert_eq!(g.len(), 56 * 8);
        assert!(!g.is_empty());
        let c = g.cell_center(0, 0);
        assert!((c.x - (-3.5 + 0.0625)).abs() < 1e-12);
        assert!((c.y - 0.45).abs() < 1e-12);
        assert!((g.diagonal_m() - 0.125f64.hypot(0.5)).abs() < 1e-12);
    }

    #[test]
    fn derived_config_is_valid_and_matched_to_the_radio() {
        for cfg in [WiViConfig::paper_default(), WiViConfig::fast_test()] {
            let img = ImageConfig::for_wivi(&cfg);
            img.validate();
            // 2 s aperture, 0.4 s hop at the radio's 312.5 Hz rate.
            assert_eq!(img.window, 625);
            assert_eq!(img.hop, 125);
            assert_eq!(img.sample_period_s, cfg.music.isar.sample_period_s);
            assert!((img.window_dt_s() - img.hop as f64 * img.sample_period_s).abs() < 1e-15);
        }
    }

    #[test]
    fn window_center_matches_isar_convention() {
        let img = ImageConfig::wivi_default();
        let t = img.window_center_s(100);
        assert!((t - (100.0 + img.window as f64 / 2.0) * img.sample_period_s).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn validate_rejects_tiny_window() {
        let mut img = ImageConfig::wivi_default();
        img.window = 4;
        img.validate();
    }

    #[test]
    #[should_panic(expected = "imaging RX must sit on x = 0")]
    fn validate_rejects_an_off_axis_rx() {
        let mut img = ImageConfig::wivi_default();
        img.rx.x = 0.05;
        img.validate();
    }

    #[test]
    #[should_panic(expected = "imaging TX pair must mirror across x = 0")]
    fn validate_rejects_an_unmirrored_tx_pair() {
        let mut img = ImageConfig::wivi_default();
        img.tx[1].x += 0.01;
        img.validate();
    }

    #[test]
    #[should_panic(expected = "imaging grid cell centres must mirror exactly")]
    fn validate_rejects_a_shifted_grid() {
        let mut img = ImageConfig::wivi_default();
        img.grid.x0 += 0.01;
        img.validate();
    }
}
