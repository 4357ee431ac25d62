//! The resident backprojection engine: the shared per-cell steering
//! table, the reused image buffer, and the CFAR fix extractor.
//!
//! # The holographic matched filter
//!
//! Over one imaging window the subject's motion emulates an aperture:
//! sample `i` of the nulled residual sees the subject at a slightly
//! different position, so the window is a spatial sampling of the
//! incident wavefront — the premise that lets a single static receiver
//! reconstruct *where* the reflector is, not just how fast its range
//! changes (Holl & Reinhard's Wi-Fi holography, and the 2.4 GHz
//! through-wall imaging of Zhong et al., both in PAPERS.md).
//!
//! For a cell at `p` the engine hypothesizes a subject at `p` at the
//! window centre, walking at the assumed speed `v` *along the wall*
//! (the tangential direction x̂ — the same "constant comfortable speed"
//! fiction §5.1 uses, promoted from a scalar to a trajectory), so its
//! hypothesized position at element `i` is `p_i = p + (i − c)·v·T·x̂`.
//! The model channel is the exact two-path bistatic round trip
//!
//! ```text
//! q_i(p) = s¹_i + w·s²_i,   sᵏ_i = e^{−j·(2π/λ)·(|txₖ − p_i| + |p_i − rx|)}
//! ```
//!
//! where `w` is the *nulling weight* the calibration installed on the
//! second transmit antenna (subcarrier-averaged): after nulling, a
//! mover's residual really is its TX-1 path plus `w` times its TX-2
//! path. The image is the normalized coherent correlation
//! `I(p) = max_±|⟨h, q(p)⟩|² / ‖q(p)‖²`, the `±` scanning both walking
//! directions (the reversed aperture reuses the same table traversed
//! backwards). In the far field this reduces exactly to Eq. 5.1's
//! `e^{−j(2π/λ)·i·Δ·sinθ}` ramp with `Δ = 2vT`; near field, the
//! wavefront curvature across the aperture separates ranges and the
//! TX-pair phase difference separates bearings.
//!
//! The window's complex mean is removed before correlating — the
//! residual DC (nulling drift, §5.1 fn. 4) would otherwise flood the
//! zero-Doppler cells on the boresight line, exactly as it floods θ = 0
//! in the spectrogram.
//!
//! # Residency contract
//!
//! Mirroring [`wivi_core::MusicEngine`], an engine is shared tables
//! plus scratch of its own. The tables ([`ImagingTables`]: one steering
//! table, TX 1's, and the per-cell cross terms) are a pure function of
//! the configuration and come from a process-wide [`TableStore`], so a
//! process builds them once per configuration however many engines it
//! opens, and a table outlives its last engine while the store holds it
//! (up to [`wivi_core::TABLE_STORE_CAPACITY`] configurations, 4 487 168
//! bytes each at the paper's configuration). TX 2's table is not
//! stored: the receive antenna sits midway between the transmit pair
//! (§3.1), so TX 2's phasor at element `i` of cell `c` is bit for bit
//! TX 1's at element `window − 1 − i` of the mirror cell across `x = 0`
//! ([`ImageConfig::validate`] rejects configurations without that
//! symmetry).
//! The scratch — the image buffer, the per-cell directions, the
//! mean-removal window — is allocated once per engine and reused every
//! window; window-rate processing allocates nothing beyond the emitted
//! fix list. Every imaging session owns one engine, whether the device
//! entry points, a benchmark or a serving shard drives it, so all are
//! bitwise identical by construction: the output depends only on the
//! configuration, the window contents, and the nulling weight.

use std::sync::Arc;

use wivi_core::TableStore;
use wivi_num::{ca_cfar_2d, simd, Complex64, Grid2d};
use wivi_rf::Point;

use crate::config::ImageConfig;

/// One localized target in one imaging window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImageFix {
    /// Sub-cell refined position, metres (scene coordinates).
    pub x_m: f64,
    pub y_m: f64,
    /// Focused power at the peak cell, dB (10·log₁₀ of the image value).
    pub power_db: f64,
    /// Peak-to-local-noise ratio from the CFAR test, dB.
    pub snr_db: f64,
    /// The peak cell.
    pub ix: usize,
    pub iy: usize,
}

/// The configuration-only half of an [`ImagingEngine`]: TX 1's
/// steering table and the per-cell cross terms, built once per
/// configuration per process and shared through a process-wide
/// [`TableStore`]. TX 2's table is TX 1's mirror image (see the module
/// docs) and is never stored.
pub struct ImagingTables {
    /// TX 1's conjugated steering table, cell-major:
    /// `steer[c·window + i] = e^{+j·(2π/λ)·R₁(p_c, i)}`. TX 2's entry is
    /// `steer[mirror(c)·window + (window − 1 − i)]`.
    steer: Vec<Complex64>,
    /// Per-cell `Σ_i s²_i·conj(s¹_i)` — the cross term of `‖q‖²`.
    cross: Vec<Complex64>,
    /// The table's layout: cells, and phasors per cell.
    grid: Grid2d,
    window: usize,
}

/// The cell mirrored across `x = 0`: the same row, the column counted
/// from the other edge. [`ImageConfig::validate`] requires cell centres
/// that mirror exactly, so this is the geometric mirror, and the cell
/// the mirror ambiguity couples.
fn mirror_cell(grid: Grid2d, c: usize) -> usize {
    let (ix, iy) = grid.coords(c);
    grid.idx(grid.nx - 1 - ix, iy)
}

impl ImagingTables {
    /// Builds the tables for `cfg` (`cells × window` phasors), bypassing
    /// the store — the cold cost the first engine per configuration
    /// pays. Expects a validated configuration.
    ///
    /// TX 2's phasors are computed only to fold the cross terms, in the
    /// same order as TX 1's, and never stored.
    ///
    /// # Panics
    /// Panics if a TX-2 phasor differs in any bit from the mirrored TX-1
    /// entry that stands in for it.
    pub fn build(cfg: &ImageConfig) -> Self {
        let grid = cfg.grid.grid2d();
        let n_cells = grid.len();
        let w = cfg.window;
        let k_wave = std::f64::consts::TAU / cfg.wavelength;
        let half = (w as f64 - 1.0) / 2.0;
        let spacing = cfg.element_spacing();
        // The conjugated steering phasor from `tx` at element `i` of the
        // aperture centred on cell `c`, ready for `h·t`.
        let phasor = |tx: Point, c: usize, i: usize| {
            let (ix, iy) = grid.coords(c);
            let center = cfg.grid.cell_center(ix, iy);
            let p_i = Point::new(center.x + (i as f64 - half) * spacing, center.y);
            Complex64::cis(k_wave * (tx.distance(p_i) + p_i.distance(cfg.rx)))
        };

        let mut steer = Vec::with_capacity(n_cells * w);
        for c in 0..n_cells {
            for i in 0..w {
                steer.push(phasor(cfg.tx[0], c, i));
            }
        }
        let mut cross = Vec::with_capacity(n_cells);
        for c in 0..n_cells {
            let m = mirror_cell(grid, c);
            let mut x = Complex64::ZERO;
            for i in 0..w {
                let s2 = phasor(cfg.tx[1], c, i);
                let stored = steer[m * w + (w - 1 - i)];
                assert!(
                    s2.re.to_bits() == stored.re.to_bits()
                        && s2.im.to_bits() == stored.im.to_bits(),
                    "TX-2 phasor of cell {c} element {i} is not the mirrored TX-1 entry"
                );
                // The model cross term s²_i·conj(s¹_i) = conj(t²)·t¹
                // in terms of the stored conjugates.
                x += s2.conj() * steer[c * w + i];
            }
            cross.push(x);
        }
        Self {
            steer,
            cross,
            grid,
            window: w,
        }
    }

    /// Cell `c`'s TX-1 steering row and its mirror cell's, which read
    /// backwards is cell `c`'s TX-2 row.
    fn rows(&self, c: usize) -> (&[Complex64], &[Complex64]) {
        let w = self.window;
        let m = mirror_cell(self.grid, c);
        (
            &self.steer[c * w..(c + 1) * w],
            &self.steer[m * w..(m + 1) * w],
        )
    }
}

/// The process-wide store of [`ImagingTables`], keyed by the full
/// imaging configuration.
static IMAGING_TABLES: TableStore<ImageConfig, ImagingTables> = TableStore::new("imaging");

/// The reusable per-window backprojector: shared [`ImagingTables`] plus
/// the image, direction and centred-window scratch of its own.
pub struct ImagingEngine {
    cfg: ImageConfig,
    grid: Grid2d,
    tables: Arc<ImagingTables>,
    /// The focused image, reused every window.
    image: Vec<f64>,
    /// Per-cell winning traversal direction (`true` = forward).
    dirs: Vec<bool>,
    /// Mean-removed window scratch (the CLEAN loop subtracts detected
    /// targets from it in place).
    centered: Vec<Complex64>,
}

impl ImagingEngine {
    /// Builds an engine for `cfg`: fresh scratch, and the configuration's
    /// tables from the process-wide store (built there on first use).
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: ImageConfig) -> Self {
        cfg.validate();
        let grid = cfg.grid.grid2d();
        let n_cells = grid.len();
        Self {
            cfg,
            grid,
            tables: IMAGING_TABLES.get_or_build(&cfg, ImagingTables::build),
            image: vec![0.0; n_cells],
            dirs: vec![true; n_cells],
            centered: vec![Complex64::ZERO; cfg.window],
        }
    }

    /// The engine's configuration.
    pub fn cfg(&self) -> &ImageConfig {
        &self.cfg
    }

    /// The flat-buffer shape of the focused image.
    pub fn grid(&self) -> Grid2d {
        self.grid
    }

    /// The most recently focused image (flat row-major, x fastest).
    pub fn image(&self) -> &[f64] {
        &self.image
    }

    /// Focuses one analysis window onto the room grid with the
    /// session's nulling weight `tx_weight` on the second transmit
    /// path, returning the focused image. Overwrites (and returns) the
    /// resident image buffer; no other state is carried between calls.
    ///
    /// # Panics
    /// Panics if `window.len()` differs from the configured window.
    pub fn process_window(&mut self, window: &[Complex64], tx_weight: Complex64) -> &[f64] {
        let _span = wivi_obs::span("image.window");
        self.center_window(window);
        self.focus(tx_weight);
        &self.image
    }

    /// DC removal: subtracts the window's complex mean (the nulling
    /// residual's static line) into the resident scratch.
    fn center_window(&mut self, window: &[Complex64]) {
        let w = self.cfg.window;
        assert_eq!(window.len(), w, "window length mismatch");
        let mean = window.iter().copied().sum::<Complex64>() / w as f64;
        for (dst, src) in self.centered.iter_mut().zip(window) {
            *dst = *src - mean;
        }
    }

    /// Backprojects the resident (centred) window onto the grid,
    /// filling the image and per-cell direction buffers, one cell after
    /// another.
    fn focus(&mut self, tx_weight: Complex64) {
        let w = self.cfg.window;
        let wt = tx_weight;
        let wt_conj = wt.conj();
        let wt_sq = wt.norm_sqr();
        let tables: &ImagingTables = &self.tables;
        // One cell: the dispatched four-accumulator correlation (two TX
        // paths × two walking directions — the reversed aperture is the
        // same row backwards; TX 2's row is the mirror cell's TX-1 row
        // backwards), then the direction pick.
        for (c, (img, dir)) in self.image.iter_mut().zip(&mut self.dirs).enumerate() {
            let (t1, m) = tables.rows(c);
            let [a1f, a2f, a1r, a2r] = simd::focus_accumulate(&self.centered, t1, m);
            let fwd = (a1f + wt_conj * a2f).norm_sqr();
            let rev = (a1r + wt_conj * a2r).norm_sqr();
            // ‖q‖² = w·(1 + |wt|²) + 2·Re(wt·Σ s²conj(s¹)); identical
            // for both traversal directions (the sum just reorders).
            let qn = (w as f64 * (1.0 + wt_sq) + 2.0 * (wt * tables.cross[c]).re).max(1e-12);
            *img = fwd.max(rev) / qn;
            *dir = fwd >= rev;
        }
    }

    /// The model vector element `q_j` for cell `c` traversed in
    /// direction `forward`, given the nulling weight.
    #[inline]
    fn model_at(&self, c: usize, forward: bool, wt: Complex64, j: usize) -> Complex64 {
        let w = self.cfg.window;
        let idx = if forward { j } else { w - 1 - j };
        let (t1, m) = self.tables.rows(c);
        t1[idx].conj() + wt * m[w - 1 - idx].conj()
    }

    /// Resolves the mirror ambiguity of a candidate at cell `c` by
    /// *joint* least squares: fit the residual window with both the
    /// cell's model and its mirror-cell reversed-traversal model
    /// simultaneously, and keep the side with the larger solved
    /// amplitude. The single-sided image powers differ by well under a
    /// dB (the TX-pair asymmetry), so noise flips them; the joint solve
    /// removes each side's leakage into the other before comparing.
    /// Returns the winning cell.
    fn resolve_mirror_side(&self, c: usize, tx_weight: Complex64) -> usize {
        // The ghost's crest is not at the exact mirror cell — sub-cell
        // offsets and range–azimuth skew shift it by a cell or two — so
        // pit the candidate against the *strongest* cell of a small
        // neighbourhood around its mirror. The search respects the
        // range-edge guard: a fix must never be re-anchored into a row
        // the detector itself excludes as artefact.
        let guard = self.cfg.edge_guard_cells;
        let in_range_rows =
            |iy: isize| iy >= guard as isize && (iy as usize) < self.grid.ny - guard;
        let m = {
            let mut best = mirror_cell(self.grid, c);
            let (mx, my) = self.grid.coords(best);
            for dy in -1isize..=1 {
                for dx in -2isize..=2 {
                    let (jx, jy) = (mx as isize + dx, my as isize + dy);
                    if self.grid.contains(jx, jy) && in_range_rows(jy) {
                        let j = self.grid.idx(jx as usize, jy as usize);
                        if self.image[j] > self.image[best] {
                            best = j;
                        }
                    }
                }
            }
            // The exact mirror cell shares the candidate's (guarded)
            // row, so `best` is always in range.
            best
        };
        if m == c {
            return c;
        }
        let w = self.cfg.window;
        let wt = tx_weight;
        let fwd = self.dirs[c];
        // The mirror hypothesis of a target is the mirror cell walked
        // the opposite way (the RX-path phase histories then coincide).
        let mut g12 = Complex64::ZERO;
        let mut r1 = Complex64::ZERO;
        let mut r2 = Complex64::ZERO;
        for j in 0..w {
            let q1 = self.model_at(c, fwd, wt, j);
            let q2 = self.model_at(m, !fwd, wt, j);
            g12 += q1.conj() * q2;
            r1 += self.centered[j] * q1.conj();
            r2 += self.centered[j] * q2.conj();
        }
        let qn = |cell: usize| {
            (w as f64 * (1.0 + wt.norm_sqr()) + 2.0 * (wt * self.tables.cross[cell]).re).max(1e-12)
        };
        let (g11, g22) = (qn(c), qn(m));
        let det = g11 * g22 - g12.norm_sqr();
        if det <= 1e-9 * g11 * g22 {
            return c; // hypotheses indistinguishable (cell near x = 0)
        }
        // Solve [g11 g12; g12* g22]·[a1; a2] = [r1; r2].
        let a1 = (r1 * g22 - g12 * r2) / det;
        let a2 = (r2 * g11 - g12.conj() * r1) / det;
        if a2.norm_sqr() > a1.norm_sqr() {
            m
        } else {
            c
        }
    }

    /// CLEAN step: estimates the complex amplitude of a target at cell
    /// `c` (winning traversal direction) by least squares and subtracts
    /// its modelled response from the resident window, so the next
    /// focus pass can surface weaker targets buried under its
    /// sidelobes.
    fn subtract_cell(&mut self, c: usize, tx_weight: Complex64) {
        let w = self.cfg.window;
        let (t1, m) = self.tables.rows(c);
        let forward = self.dirs[c];
        let wt = tx_weight;
        let mut r = Complex64::ZERO;
        for j in 0..w {
            let idx = if forward { j } else { w - 1 - j };
            // ⟨h, q⟩ with q_j = conj(t1[idx]) + wt·conj(t2[idx]), where
            // t2[idx] = m[w − 1 − idx].
            r += self.centered[j] * (t1[idx] + wt.conj() * m[w - 1 - idx]);
        }
        let qn =
            (w as f64 * (1.0 + wt.norm_sqr()) + 2.0 * (wt * self.tables.cross[c]).re).max(1e-12);
        let a = r / qn;
        for j in 0..w {
            let idx = if forward { j } else { w - 1 - j };
            let q = t1[idx].conj() + wt * m[w - 1 - idx].conj();
            self.centered[j] -= a * q;
        }
    }

    /// Focuses a window and extracts its fixes by CLEAN-style
    /// successive cancellation: CFAR-detect the strongest target,
    /// subtract its modelled response from the window, re-focus, and
    /// repeat — so a weaker body buried under a stronger body's
    /// sidelobes still surfaces. Each accepted fix passes sub-cell
    /// parabolic refinement, mirror-ghost suppression, and non-maximum
    /// suppression against the already-accepted set; the loop stops at
    /// [`ImageConfig::max_fixes`] or when a pass yields no new
    /// candidate. Fully deterministic. Afterwards [`Self::image`] holds
    /// the final residual image.
    ///
    /// # Panics
    /// Panics if `window.len()` differs from the configured window.
    pub fn process_window_fixes(
        &mut self,
        window: &[Complex64],
        tx_weight: Complex64,
    ) -> Vec<ImageFix> {
        let _span = wivi_obs::span("image.window_fixes");
        self.center_window(window);
        let mut fixes: Vec<ImageFix> = Vec::new();
        for pass in 0..self.cfg.max_fixes {
            self.focus(tx_weight);
            match self.best_candidate(&fixes) {
                Some(mut f) => {
                    let mut cell = self.grid.idx(f.ix, f.iy);
                    let winner = self.resolve_mirror_side(cell, tx_weight);
                    if winner != cell {
                        // The joint test placed the target on the other
                        // side: re-anchor the fix there (the CFAR SNR is
                        // kept — it scored the pair, not the side).
                        cell = winner;
                        let (ix, iy) = self.grid.coords(cell);
                        let (off_x, off_y) = self.refine_subcell(ix, iy);
                        let center = self.cfg.grid.cell_center(ix, iy);
                        f = ImageFix {
                            x_m: center.x + off_x * self.cfg.grid.cell_x_m,
                            y_m: center.y + off_y * self.cfg.grid.cell_y_m,
                            power_db: 10.0 * self.image[cell].max(1e-300).log10(),
                            snr_db: f.snr_db,
                            ix,
                            iy,
                        };
                    }
                    fixes.push(f);
                    if pass + 1 < self.cfg.max_fixes {
                        self.subtract_cell(cell, tx_weight);
                    }
                }
                None => break,
            }
        }
        // Canonical order: ascending flat cell index.
        fixes.sort_by_key(|f| f.iy * self.grid.nx + f.ix);
        fixes
    }

    /// Extracts the strongest acceptable fix from the resident image:
    /// CFAR detections, sub-cell refined, with candidates suppressed
    /// when they fall within the separation radius of an accepted fix,
    /// or mirror an (at least as strong) accepted fix or same-pass
    /// detection (see [`ImageConfig::mirror_tol_m`]).
    fn best_candidate(&self, accepted: &[ImageFix]) -> Option<ImageFix> {
        let cfg = &self.cfg;
        let mut dets = ca_cfar_2d(&self.image, self.grid, &cfg.cfar);
        // Range-edge guard (see [`ImageConfig::edge_guard_cells`]).
        dets.retain(|d| d.iy >= cfg.edge_guard_cells && d.iy < self.grid.ny - cfg.edge_guard_cells);
        let fixes: Vec<ImageFix> = dets
            .iter()
            .map(|d| {
                let (off_x, off_y) = self.refine_subcell(d.ix, d.iy);
                let center = cfg.grid.cell_center(d.ix, d.iy);
                ImageFix {
                    x_m: center.x + off_x * cfg.grid.cell_x_m,
                    y_m: center.y + off_y * cfg.grid.cell_y_m,
                    power_db: 10.0 * d.power.max(1e-300).log10(),
                    snr_db: d.snr_db(),
                    ix: d.ix,
                    iy: d.iy,
                }
            })
            .collect();

        let flat = |f: &ImageFix| f.iy * self.grid.nx + f.ix;
        let mirror = |a: &ImageFix, b: &ImageFix| {
            cfg.mirror_tol_m > 0.0
                && (a.x_m + b.x_m).abs() <= cfg.mirror_tol_m
                && (a.y_m - b.y_m).abs() <= cfg.mirror_tol_m
        };
        fixes
            .iter()
            .filter(|f| {
                // Not a remnant of an already-subtracted target…
                accepted.iter().all(|k| {
                    (k.x_m - f.x_m).hypot(k.y_m - f.y_m) >= cfg.min_separation_m
                        && !mirror(k, f)
                })
                // …and not the weak side of a same-pass mirror pair.
                    && !fixes.iter().any(|s| {
                        (s.ix, s.iy) != (f.ix, f.iy)
                            && mirror(s, f)
                            && (s.power_db > f.power_db
                                || (s.power_db == f.power_db && flat(s) < flat(f)))
                    })
            })
            .min_by(|a, b| {
                // "Less" = better: strongest power, then lowest index.
                b.power_db
                    .partial_cmp(&a.power_db)
                    .unwrap()
                    .then(flat(a).cmp(&flat(b)))
            })
            .copied()
    }

    /// Parabolic sub-cell peak refinement along each axis (in dB, like
    /// the spectrogram's sub-bin ridge interpolation). Edge cells and
    /// degenerate (non-concave) neighbourhoods stay at the cell centre.
    fn refine_subcell(&self, ix: usize, iy: usize) -> (f64, f64) {
        let db = |i: usize| 10.0 * self.image[i].max(1e-300).log10();
        let axis = |lo: Option<usize>, c: usize, hi: Option<usize>| -> f64 {
            match (lo, hi) {
                (Some(l), Some(h)) => {
                    let (yl, yc, yh) = (db(l), db(c), db(h));
                    let denom = yl - 2.0 * yc + yh;
                    if denom < -1e-12 {
                        (0.5 * (yl - yh) / denom).clamp(-0.5, 0.5)
                    } else {
                        0.0
                    }
                }
                _ => 0.0,
            }
        };
        let g = self.grid;
        let c = g.idx(ix, iy);
        let off_x = axis(
            (ix > 0).then(|| g.idx(ix - 1, iy)),
            c,
            (ix + 1 < g.nx).then(|| g.idx(ix + 1, iy)),
        );
        let off_y = axis(
            (iy > 0).then(|| g.idx(ix, iy - 1)),
            c,
            (iy + 1 < g.ny).then(|| g.idx(ix, iy + 1)),
        );
        (off_x, off_y)
    }

    /// Synthesizes the ideal nulled residual of a point subject at
    /// `start` walking at `velocity` (m/s) — the exact signal the
    /// engine's matched filter is built for, used by tests and the
    /// focusing diagnostics.
    pub fn synthetic_subject_trace(
        cfg: &ImageConfig,
        n: usize,
        start: Point,
        velocity: wivi_rf::Vec2,
        amplitude: f64,
        tx_weight: Complex64,
    ) -> Vec<Complex64> {
        let k_wave = std::f64::consts::TAU / cfg.wavelength;
        (0..n)
            .map(|i| {
                let t = i as f64 * cfg.sample_period_s;
                let p = start + velocity * t;
                let mut h = Complex64::ZERO;
                for (k, tx) in cfg.tx.iter().enumerate() {
                    let r = tx.distance(p) + p.distance(cfg.rx);
                    let w = if k == 0 { Complex64::ONE } else { tx_weight };
                    h += w * Complex64::from_polar(amplitude, -k_wave * r);
                }
                h
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wivi_rf::Vec2;

    fn test_cfg() -> ImageConfig {
        ImageConfig::fast_test()
    }

    fn peak_cell(engine: &ImagingEngine) -> (usize, usize) {
        let (i, _) = engine
            .image()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        engine.grid().coords(i)
    }

    #[test]
    fn synthetic_pacer_focuses_at_its_cell() {
        let cfg = test_cfg();
        let mut engine = ImagingEngine::new(cfg);
        let wt = Complex64::new(-0.9, 0.3);
        // A subject pacing +x through (0.55, 2.45) at the assumed speed;
        // the trace below is centred on that crossing.
        let half_t = (cfg.window as f64 - 1.0) / 2.0 * cfg.sample_period_s;
        let start = Point::new(0.55 - half_t, 2.45);
        let trace = ImagingEngine::synthetic_subject_trace(
            &cfg,
            cfg.window,
            start,
            Vec2::new(1.0, 0.0),
            1.0,
            wt,
        );
        let img = engine.process_window(&trace, wt);
        assert_eq!(img.len(), cfg.grid.len());
        let (ix, iy) = peak_cell(&engine);
        let p = cfg.grid.cell_center(ix, iy);
        assert!(
            (p.x - 0.55).abs() <= cfg.grid.cell_x_m && (p.y - 2.45).abs() <= cfg.grid.cell_y_m,
            "peak at ({:.2}, {:.2}), subject at (0.55, 2.45)",
            p.x,
            p.y
        );
    }

    #[test]
    fn reverse_walker_focuses_at_the_same_cell() {
        let cfg = test_cfg();
        let mut engine = ImagingEngine::new(cfg);
        let wt = Complex64::new(0.8, -0.5);
        let half_t = (cfg.window as f64 - 1.0) / 2.0 * cfg.sample_period_s;
        let start = Point::new(-1.25 + half_t, 1.95);
        let trace = ImagingEngine::synthetic_subject_trace(
            &cfg,
            cfg.window,
            start,
            Vec2::new(-1.0, 0.0),
            1.0,
            wt,
        );
        engine.process_window(&trace, wt);
        let (ix, iy) = peak_cell(&engine);
        let p = cfg.grid.cell_center(ix, iy);
        // The subject straddles cell centres, so range–azimuth coupling
        // may skew the peak by a cell on each axis.
        assert!(
            (p.x - (-1.25)).abs() <= 2.0 * cfg.grid.cell_x_m
                && (p.y - 1.95).abs() <= cfg.grid.cell_y_m + 1e-9,
            "peak at ({:.2}, {:.2}), subject at (−1.25, 1.95)",
            p.x,
            p.y
        );
    }

    #[test]
    fn dc_residual_produces_a_flat_image() {
        // A purely static residual (the nulling drift line) must be
        // removed by the mean subtraction, leaving no focused peak.
        let cfg = test_cfg();
        let mut engine = ImagingEngine::new(cfg);
        let trace = vec![Complex64::new(0.7, -0.4); cfg.window];
        let img = engine.process_window(&trace, Complex64::ONE);
        assert!(img.iter().all(|&p| p < 1e-12), "DC leaked into the image");
        assert!(engine
            .process_window_fixes(&trace, Complex64::ONE)
            .is_empty());
    }

    #[test]
    fn fixes_locate_the_synthetic_subject_with_subcell_error() {
        let cfg = test_cfg();
        let mut engine = ImagingEngine::new(cfg);
        let wt = Complex64::new(-1.02, 0.11);
        let half_t = (cfg.window as f64 - 1.0) / 2.0 * cfg.sample_period_s;
        // Near a cell centre: the precision claim is about the refined
        // fix, not the worst-case both-axes-straddling skew (the
        // showcase acceptance tests cover realistic positions).
        let subject = Point::new(1.44, 2.95);
        let start = Point::new(subject.x - half_t, subject.y);
        let trace = ImagingEngine::synthetic_subject_trace(
            &cfg,
            cfg.window,
            start,
            Vec2::new(1.0, 0.0),
            1.0,
            wt,
        );
        let fixes = engine.process_window_fixes(&trace, wt);
        assert!(!fixes.is_empty(), "no fix on a clean subject");
        let best = fixes
            .iter()
            .min_by(|a, b| {
                let da = (a.x_m - subject.x).hypot(a.y_m - subject.y);
                let db = (b.x_m - subject.x).hypot(b.y_m - subject.y);
                da.partial_cmp(&db).unwrap()
            })
            .unwrap();
        let err = (best.x_m - subject.x).hypot(best.y_m - subject.y);
        assert!(
            err <= cfg.grid.diagonal_m(),
            "fix at ({:.2}, {:.2}), {err:.2} m from the subject",
            best.x_m,
            best.y_m
        );
    }

    #[test]
    fn processing_is_deterministic_and_buffer_reuse_is_invisible() {
        let cfg = test_cfg();
        let mut engine = ImagingEngine::new(cfg);
        let wt = Complex64::new(0.4, 0.9);
        let half_t = (cfg.window as f64 - 1.0) / 2.0 * cfg.sample_period_s;
        let t1 = ImagingEngine::synthetic_subject_trace(
            &cfg,
            cfg.window,
            Point::new(-2.0 - half_t, 1.2),
            Vec2::new(1.0, 0.0),
            1.0,
            wt,
        );
        let t2 = ImagingEngine::synthetic_subject_trace(
            &cfg,
            cfg.window,
            Point::new(2.0 + half_t, 3.8),
            Vec2::new(-1.0, 0.0),
            0.5,
            wt,
        );
        let a1 = engine.process_window(&t1, wt).to_vec();
        let _ = engine.process_window(&t2, wt); // dirty the buffer
        let a1_again = engine.process_window(&t1, wt).to_vec();
        for (x, y) in a1.iter().zip(&a1_again) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // A fresh engine agrees too.
        let mut fresh = ImagingEngine::new(cfg);
        let b1 = fresh.process_window(&t1, wt).to_vec();
        for (x, y) in a1.iter().zip(&b1) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn tx2_steering_is_the_mirrored_tx1_table_bitwise() {
        // Re-derive TX 2's phasors the way a two-table build stored them
        // and compare each with the TX-1 entry the engine reads instead.
        for cfg in [ImageConfig::wivi_default(), ImageConfig::fast_test()] {
            cfg.validate();
            let tables = ImagingTables::build(&cfg);
            let grid = cfg.grid.grid2d();
            let w = cfg.window;
            assert_eq!(tables.steer.len(), grid.len() * w);
            let k_wave = std::f64::consts::TAU / cfg.wavelength;
            let half = (w as f64 - 1.0) / 2.0;
            for c in 0..grid.len() {
                let (ix, iy) = grid.coords(c);
                let center = cfg.grid.cell_center(ix, iy);
                let (_, m) = tables.rows(c);
                for i in 0..w {
                    let p_i = Point::new(
                        center.x + (i as f64 - half) * cfg.element_spacing(),
                        center.y,
                    );
                    let r = cfg.tx[1].distance(p_i) + p_i.distance(cfg.rx);
                    let t2 = Complex64::cis(k_wave * r);
                    let got = m[w - 1 - i];
                    assert_eq!(
                        (t2.re.to_bits(), t2.im.to_bits()),
                        (got.re.to_bits(), got.im.to_bits()),
                        "cell {c} element {i}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_wrong_window_length() {
        let cfg = test_cfg();
        let mut engine = ImagingEngine::new(cfg);
        let _ = engine.process_window(&[Complex64::ONE; 10], Complex64::ONE);
    }
}
