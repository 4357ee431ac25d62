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
//! # Two sums per row
//!
//! `⟨h, q(p)⟩` takes four sums per cell: TX 1's and TX 2's rows, each
//! walked forward and reversed. A focus pass computes only two per
//! steering-table row, in one [`simd::focus_rows`] call over TX 1's
//! table: `F = Σ_k h[k]·t[k]` and `R = Σ_k h[n−1−k]·t[k]`. Because a
//! cell's TX-2 row is its mirror cell's TX-1 row reversed (below), the
//! cell `c` with mirror `m` has `[a1f, a2f, a1r, a2r] = [F(c), R(m),
//! R(c), F(m)]`: half the multiplies of four sums per cell, and each
//! row read once per pass. The TX-1 sums add their terms in the order a
//! four-sum loop does; the TX-2 sums add the same terms in the opposite
//! order, so they differ from it in the last bits only.
//!
//! # Single precision
//!
//! The steering table is a [`PhasorTable`]: each phasor rounded to
//! `f32`, eight cells to a block. A unit phasor's parts then carry at
//! most `2⁻²⁵` of error each, under `6e-8` in modulus — about a
//! nanometre of round-trip path at 2.4 GHz — while the model itself
//! assumes a subject walking along the wall at exactly the assumed
//! speed. At the paper's 448 cells × 625 elements the table is
//! 2 240 000 bytes, half the `f64` table's 4 480 000.
//!
//! The focus pass computes in single precision as well: each pass
//! rounds the centred window once to `f32` ([`simd::focus_pairs`]),
//! multiplies it with the stored phasors in `f32`, and carries each
//! row's sums in `f64` over runs of `f32` partial sums, so every sum is
//! within `FOCUS_ERROR·Σ_k |h_k|·|t_k|` of the exact one
//! ([`simd::FOCUS_ERROR`] is about `1.6e-6`). Everything after the row
//! sums stays `f64`: a cell's image value, the CLEAN subtraction,
//! mirror resolution, and `‖q‖²`, whose cross terms are folded from the
//! rounded phasors so the norm describes the model the table stores.
//!
//! # Residency contract
//!
//! Mirroring [`wivi_core::MusicEngine`], an engine is shared tables
//! plus scratch of its own. The tables ([`ImagingTables`]: one steering
//! table, TX 1's, and the per-cell cross terms) are a pure function of
//! the configuration and come from a process-wide [`TableStore`], so a
//! process builds them once per configuration however many engines it
//! opens, and a table outlives its last engine while the store holds it
//! (up to [`wivi_core::TABLE_STORE_CAPACITY`] configurations, 2 247 168
//! bytes each at the paper's configuration). TX 2's table is not
//! stored: the receive antenna sits midway between the transmit pair
//! (§3.1), so TX 2's phasor at element `i` of cell `c` is bit for bit
//! TX 1's at element `window − 1 − i` of the mirror cell across `x = 0`
//! ([`ImageConfig::validate`] rejects configurations without that
//! symmetry); the build checks every one before rounding it.
//! The scratch — the image buffer, the focus pass's row sums (from
//! which a cell's walking direction is read back), the mean-removal
//! window and its `f32` rounding, and the CLEAN loop's detection and
//! candidate lists — is allocated once per engine and reused every
//! window:
//! [`ImagingEngine::process_window`] allocates nothing, and
//! [`ImagingEngine::process_window_fixes`] only the fixes it returns
//! once its lists have grown to the window's detections. Every imaging
//! session owns one engine, whether the device entry points, a
//! benchmark or a serving shard drives it, so all are bitwise identical
//! by construction: the output depends only on the configuration, the
//! window contents, and the nulling weight.

use std::sync::Arc;

use wivi_core::TableStore;
use wivi_num::{ca_cfar_2d_into, simd, CfarDetection, Complex64, Grid2d, PhasorTable};
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
/// docs) and is never stored; a focus pass reads each row of TX 1's
/// once and multiplies its phasors in single precision, as stored. The
/// table holds single-precision phasors, 2 240 000 bytes at the paper's
/// configuration; the cross terms are `f64`.
pub struct ImagingTables {
    /// TX 1's conjugated steering table, one row per cell: row `c`,
    /// element `i` is `e^{+j·(2π/λ)·R₁(p_c, i)}` rounded to `f32`. TX
    /// 2's entry is row `mirror(c)`, element `window − 1 − i`.
    steer: PhasorTable,
    /// Per-cell `Σ_i s²_i·conj(s¹_i)` over the stored phasors — the
    /// cross term of `‖q‖²`.
    cross: Vec<Complex64>,
    /// The table's cells, and phasors per cell.
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

/// `cfg`'s steering phasors in full precision: the conjugated phasor
/// from `tx` at element `i` of the aperture centred on cell `c`, ready
/// for `h·t`, is `phasor(tx, c, i)`.
fn steering_phasors(cfg: &ImageConfig) -> impl Fn(Point, usize, usize) -> Complex64 + '_ {
    let grid = cfg.grid.grid2d();
    let k_wave = std::f64::consts::TAU / cfg.wavelength;
    let half = (cfg.window as f64 - 1.0) / 2.0;
    let spacing = cfg.element_spacing();
    move |tx, c, i| {
        let (ix, iy) = grid.coords(c);
        let center = cfg.grid.cell_center(ix, iy);
        let p_i = Point::new(center.x + (i as f64 - half) * spacing, center.y);
        Complex64::cis(k_wave * (tx.distance(p_i) + p_i.distance(cfg.rx)))
    }
}

impl ImagingTables {
    /// Builds the tables for `cfg` (`cells × window` phasors), bypassing
    /// the store — the cold cost the first engine per configuration
    /// pays. Expects a validated configuration.
    ///
    /// Each TX-1 phasor is compared with the TX-2 phasor it stands in
    /// for before it is rounded; TX 2's phasors are never stored. The
    /// cross terms are then folded from the stored phasors, in element
    /// order.
    ///
    /// # Panics
    /// Panics if a TX-2 phasor differs in any bit from the unrounded,
    /// mirrored TX-1 phasor that stands in for it.
    pub fn build(cfg: &ImageConfig) -> Self {
        let grid = cfg.grid.grid2d();
        let w = cfg.window;
        let phasor = steering_phasors(cfg);
        let mut steer = PhasorTable::zeros(grid.len(), w);
        for c in 0..grid.len() {
            let m = mirror_cell(grid, c);
            for i in 0..w {
                let t1 = phasor(cfg.tx[0], c, i);
                let t2 = phasor(cfg.tx[1], m, w - 1 - i);
                assert!(
                    t2.re.to_bits() == t1.re.to_bits() && t2.im.to_bits() == t1.im.to_bits(),
                    "TX-2 phasor of cell {m} element {} is not the mirrored TX-1 entry",
                    w - 1 - i
                );
                steer.set(c, i, t1);
            }
        }
        let cross = (0..grid.len())
            .map(|c| {
                // The model cross term s²_i·conj(s¹_i) = conj(t²_i)·t¹_i
                // in terms of the stored conjugates, t² being the
                // mirror cell's row reversed.
                let m = mirror_cell(grid, c);
                steer
                    .row(m)
                    .rev()
                    .zip(steer.row(c))
                    .fold(Complex64::ZERO, |x, (t2, t1)| x + t2.conj() * t1)
            })
            .collect();
        Self {
            steer,
            cross,
            grid,
            window: w,
        }
    }

    /// Cell `c`'s stored steering rows.
    fn cell(&self, c: usize) -> CellRows<'_> {
        CellRows {
            steer: &self.steer,
            c,
            mirror: mirror_cell(self.grid, c),
        }
    }

    /// `‖q(p_c)‖²` under nulling weight `wt`:
    /// `window·(1 + |wt|²) + 2·Re(wt·Σ s²·conj(s¹))`, floored at
    /// `1e-12`. The same for both walking directions (the sum only
    /// reorders).
    fn model_norm(&self, c: usize, wt: Complex64) -> f64 {
        (self.window as f64 * (1.0 + wt.norm_sqr()) + 2.0 * (wt * self.cross[c]).re).max(1e-12)
    }
}

/// One cell's stored steering rows: TX 1's, and TX 2's, which is the
/// mirror cell's TX-1 row read backwards.
#[derive(Clone, Copy)]
struct CellRows<'a> {
    steer: &'a PhasorTable,
    c: usize,
    mirror: usize,
}

impl CellRows<'_> {
    /// The cell's TX-1 and TX-2 phasors at element `i`.
    fn at(&self, i: usize) -> (Complex64, Complex64) {
        let last = self.steer.row_len() - 1;
        (
            self.steer.get(self.c, i),
            self.steer.get(self.mirror, last - i),
        )
    }
}

/// Cell `c`'s correlation power walked forward and reversed, from the
/// focus pass's row sums: the cell's `[a1f, a2f, a1r, a2r]` is
/// `[F(c), R(m), R(c), F(m)]` with `m` its mirror cell, because the
/// cell's TX-2 row is `m`'s TX-1 row reversed.
fn walk_powers(sums: &[[Complex64; 2]], grid: Grid2d, c: usize, wt_conj: Complex64) -> (f64, f64) {
    let [f_c, r_c] = sums[c];
    let [f_m, r_m] = sums[mirror_cell(grid, c)];
    (
        (f_c + wt_conj * r_m).norm_sqr(),
        (r_c + wt_conj * f_m).norm_sqr(),
    )
}

/// The process-wide store of [`ImagingTables`], keyed by the full
/// imaging configuration.
static IMAGING_TABLES: TableStore<ImageConfig, ImagingTables> = TableStore::new("imaging");

/// The reusable per-window backprojector: shared [`ImagingTables`] plus
/// the image, row-sum, centred-window and CLEAN-list scratch of its
/// own.
pub struct ImagingEngine {
    cfg: ImageConfig,
    grid: Grid2d,
    tables: Arc<ImagingTables>,
    /// The focused image, reused every window.
    image: Vec<f64>,
    /// The last focus pass's `[F, R]` per steering-table row (see
    /// [`simd::focus_rows`]); a cell's walking direction is read back
    /// from its own and its mirror cell's pair.
    sums: Vec<[Complex64; 2]>,
    /// Mean-removed window scratch (the CLEAN loop subtracts detected
    /// targets from it in place).
    centered: Vec<Complex64>,
    /// `centered` rounded to `f32` for the focus kernel, refilled every
    /// pass (see [`simd::focus_pairs`]).
    pairs: Vec<[f32; 4]>,
    /// A CLEAN pass's CFAR detections and candidate fixes, refilled
    /// every pass; empty, and unallocated, until the first
    /// [`Self::process_window_fixes`].
    dets: Vec<CfarDetection>,
    candidates: Vec<ImageFix>,
}

impl ImagingEngine {
    /// Builds an engine for `cfg`: fresh scratch, and the configuration's
    /// tables from the process-wide store (built there on first use).
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: ImageConfig) -> Self {
        cfg.validate();
        // Resolve the process's one-time SIMD detection here, so no
        // window pays its `WIVI_NO_SIMD` read (which allocates).
        simd::level();
        let grid = cfg.grid.grid2d();
        let n_cells = grid.len();
        Self {
            cfg,
            grid,
            tables: IMAGING_TABLES.get_or_build(&cfg, ImagingTables::build),
            image: vec![0.0; n_cells],
            sums: vec![[Complex64::ZERO; 2]; n_cells],
            centered: vec![Complex64::ZERO; cfg.window],
            pairs: vec![[0.0; 4]; cfg.window],
            dets: Vec::new(),
            candidates: Vec::new(),
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

    /// Backprojects the resident (centred) window onto the grid: rounds
    /// it to `f32` into the engine's pair buffer, makes one
    /// [`simd::focus_rows`] pass over TX 1's single-precision table
    /// (`f32` products, `f32` runs of 16, row sums in `f64`), then
    /// computes each cell's image value in `f64` from its own and its
    /// mirror cell's row sums.
    fn focus(&mut self, tx_weight: Complex64) {
        let tables: &ImagingTables = &self.tables;
        simd::focus_pairs(&self.centered, &mut self.pairs);
        simd::focus_rows(&self.pairs, &tables.steer, &mut self.sums);
        let wt_conj = tx_weight.conj();
        for (c, img) in self.image.iter_mut().enumerate() {
            let (fwd, rev) = walk_powers(&self.sums, self.grid, c, wt_conj);
            *img = fwd.max(rev) / tables.model_norm(c, tx_weight);
        }
    }

    /// Whether cell `c` won the last focus pass walking forward.
    fn walks_forward(&self, c: usize, tx_weight: Complex64) -> bool {
        let (fwd, rev) = walk_powers(&self.sums, self.grid, c, tx_weight.conj());
        fwd >= rev
    }

    /// The model vector element `q_j` for the cell of `rows` traversed
    /// in direction `forward`, given the nulling weight.
    #[inline]
    fn model_at(&self, rows: CellRows, forward: bool, wt: Complex64, j: usize) -> Complex64 {
        let w = self.cfg.window;
        let idx = if forward { j } else { w - 1 - j };
        let (t1, t2) = rows.at(idx);
        t1.conj() + wt * t2.conj()
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
        let fwd = self.walks_forward(c, wt);
        // The mirror hypothesis of a target is the mirror cell walked
        // the opposite way (the RX-path phase histories then coincide).
        let (rows_c, rows_m) = (self.tables.cell(c), self.tables.cell(m));
        let mut g12 = Complex64::ZERO;
        let mut r1 = Complex64::ZERO;
        let mut r2 = Complex64::ZERO;
        for j in 0..w {
            let q1 = self.model_at(rows_c, fwd, wt, j);
            let q2 = self.model_at(rows_m, !fwd, wt, j);
            g12 += q1.conj() * q2;
            r1 += self.centered[j] * q1.conj();
            r2 += self.centered[j] * q2.conj();
        }
        let (g11, g22) = (self.tables.model_norm(c, wt), self.tables.model_norm(m, wt));
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
        let rows = self.tables.cell(c);
        let forward = self.walks_forward(c, tx_weight);
        let wt = tx_weight;
        let mut r = Complex64::ZERO;
        for j in 0..w {
            let idx = if forward { j } else { w - 1 - j };
            // ⟨h, q⟩ with q_j = conj(t1[idx]) + wt·conj(t2[idx]).
            let (t1, t2) = rows.at(idx);
            r += self.centered[j] * (t1 + wt.conj() * t2);
        }
        let a = r / self.tables.model_norm(c, wt);
        for j in 0..w {
            let q = self.model_at(rows, forward, wt, j);
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
    /// detection (see [`ImageConfig::mirror_tol_m`]). Refills the
    /// engine's detection and candidate lists.
    fn best_candidate(&mut self, accepted: &[ImageFix]) -> Option<ImageFix> {
        let mut dets = std::mem::take(&mut self.dets);
        let mut fixes = std::mem::take(&mut self.candidates);
        let cfg = &self.cfg;
        ca_cfar_2d_into(&self.image, self.grid, &cfg.cfar, &mut dets);
        // Range-edge guard (see [`ImageConfig::edge_guard_cells`]).
        dets.retain(|d| d.iy >= cfg.edge_guard_cells && d.iy < self.grid.ny - cfg.edge_guard_cells);
        fixes.clear();
        fixes.extend(dets.iter().map(|d| {
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
        }));

        let flat = |f: &ImageFix| f.iy * self.grid.nx + f.ix;
        let mirror = |a: &ImageFix, b: &ImageFix| {
            cfg.mirror_tol_m > 0.0
                && (a.x_m + b.x_m).abs() <= cfg.mirror_tol_m
                && (a.y_m - b.y_m).abs() <= cfg.mirror_tol_m
        };
        let best = fixes
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
            .copied();
        self.dets = dets;
        self.candidates = fixes;
        best
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
    use wivi_num::ca_cfar_2d;
    use wivi_rf::Vec2;

    fn test_cfg() -> ImageConfig {
        ImageConfig::wivi_default()
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
        // Re-derive both transmitters' phasors in full precision: the
        // table must hold each TX-1 phasor rounded to f32, and the entry
        // read for TX 2 must be TX 2's phasor rounded the same way.
        let round = |z: Complex64| (z.re as f32, z.im as f32);
        let cfg = ImageConfig::wivi_default();
        cfg.validate();
        let tables = ImagingTables::build(&cfg);
        let phasor = steering_phasors(&cfg);
        let grid = cfg.grid.grid2d();
        let w = cfg.window;
        assert_eq!(
            (tables.steer.rows(), tables.steer.row_len()),
            (grid.len(), w)
        );
        for c in 0..grid.len() {
            for i in 0..w {
                let (t1, t2) = tables.cell(c).at(i);
                for (tx, got) in [(cfg.tx[0], t1), (cfg.tx[1], t2)] {
                    let want = round(phasor(tx, c, i));
                    assert_eq!(
                        (want.0.to_bits(), want.1.to_bits()),
                        ((got.re as f32).to_bits(), (got.im as f32).to_bits()),
                        "cell {c} element {i}"
                    );
                }
            }
        }
    }

    /// The image a per-cell four-sum focus makes from a table's TX-1 and
    /// TX-2 phasors (`phasors(c, i)`) and model norms (`norm(c)`): each
    /// cell correlated against both rows, walked forward and reversed,
    /// with every sum in ascending element order. Over the stored
    /// phasors it reads the same products as the row sums but adds the
    /// TX-2 ones in the opposite order.
    fn four_sum_image(
        engine: &ImagingEngine,
        wt: Complex64,
        phasors: impl Fn(usize, usize) -> (Complex64, Complex64),
        norm: impl Fn(usize) -> f64,
    ) -> Vec<f64> {
        let h = &engine.centered;
        let n = h.len();
        (0..engine.grid.len())
            .map(|c| {
                let mut a = [Complex64::ZERO; 4];
                for i in 0..n {
                    let (hf, hr) = (h[i], h[n - 1 - i]);
                    let (t1, t2) = phasors(c, i);
                    a[0] += hf * t1;
                    a[1] += hf * t2;
                    a[2] += hr * t1;
                    a[3] += hr * t2;
                }
                let fwd = (a[0] + wt.conj() * a[1]).norm_sqr();
                let rev = (a[2] + wt.conj() * a[3]).norm_sqr();
                fwd.max(rev) / norm(c)
            })
            .collect()
    }

    /// Two subjects pacing opposite ways on either side of the
    /// boresight, the second weaker and deeper, centred on one window.
    fn two_subject_window(cfg: &ImageConfig, wt: Complex64) -> Vec<Complex64> {
        let half_t = (cfg.window as f64 - 1.0) / 2.0 * cfg.sample_period_s;
        let pacer = |x: f64, y: f64, vx: f64, amplitude: f64| {
            ImagingEngine::synthetic_subject_trace(
                cfg,
                cfg.window,
                Point::new(x - vx * half_t, y),
                Vec2::new(vx, 0.0),
                amplitude,
                wt,
            )
        };
        pacer(1.55, 2.45, 1.0, 1.0)
            .iter()
            .zip(pacer(-2.05, 3.95, -1.0, 0.6))
            .map(|(a, b)| *a + b)
            .collect()
    }

    /// Requires every cell `c` of `got` within `tol(c)` of `want`, and
    /// the same CFAR detections (at least two) in both images.
    fn assert_same_image(
        engine: &ImagingEngine,
        got: &[f64],
        want: &[f64],
        tol: impl Fn(usize) -> f64,
    ) {
        for (c, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= tol(c),
                "cell {c}: {g} vs {w} (tolerance {:e})",
                tol(c)
            );
        }
        let cells = |img: &[f64]| -> Vec<(usize, usize)> {
            ca_cfar_2d(img, engine.grid(), &engine.cfg.cfar)
                .iter()
                .map(|d| (d.ix, d.iy))
                .collect()
        };
        let detections = cells(got);
        assert!(detections.len() >= 2, "{detections:?}");
        assert_eq!(detections, cells(want));
    }

    /// The largest image value in `img`.
    fn peak(img: &[f64]) -> f64 {
        let peak = img.iter().copied().fold(0.0, f64::max);
        assert!(peak > 0.0);
        peak
    }

    #[test]
    fn row_sum_focus_matches_the_four_sum_focus() {
        let cfg = ImageConfig::wivi_default();
        let mut engine = ImagingEngine::new(cfg);
        let wt = Complex64::new(-0.9, 0.3);
        let image = engine
            .process_window(&two_subject_window(&cfg, wt), wt)
            .to_vec();
        let tables = &engine.tables;
        let norm = |c| tables.model_norm(c, wt);
        let want = four_sum_image(&engine, wt, |c, i| tables.cell(c).at(i), norm);
        // Each of a cell's four sums is within FOCUS_ERROR·Σ|h_k|·|t_k|
        // of the f64 loop's, and every stored phasor has modulus at
        // most 1 + 2⁻²⁴ (each part within 2⁻²⁵ of a unit phasor's),
        // so a walk's sum `A = a1 + w̄·a2` moves by at most
        // δ = FOCUS_ERROR·(1 + 2⁻²⁴)·Σ|h_k|·(1 + |w|), and its image
        // value |A|²/‖q‖² by at most δ·(2|A| + δ)/‖q‖².
        let h_mass: f64 = engine.centered.iter().map(|z| z.abs()).sum();
        let delta = simd::FOCUS_ERROR * (1.0 + (-24f64).exp2()) * h_mass * (1.0 + wt.abs());
        // That bound is a worst case, 4.6e-6 of the peak at the peak
        // cell. The image strays 2.2e-8 of the peak on this window, so
        // every cell must also lie within a fixed 5e-8 of the peak:
        // runs of 32 elements read 6.5e-8 here, whole-row f32 sums
        // 6.0e-7.
        let ceiling = 5e-8 * peak(&want);
        let tol = |c: usize| {
            let a = (image[c].max(want[c]) * norm(c)).sqrt();
            (delta * (2.0 * a + delta) / norm(c)).min(ceiling)
        };
        assert_same_image(&engine, &image, &want, tol);
    }

    #[test]
    fn f32_table_image_matches_the_f64_table_image() {
        let cfg = ImageConfig::wivi_default();
        let mut engine = ImagingEngine::new(cfg);
        let wt = Complex64::new(-0.9, 0.3);
        let image = engine
            .process_window(&two_subject_window(&cfg, wt), wt)
            .to_vec();
        // The unrounded model: both transmitters' phasors and the
        // cross terms in f64.
        let (grid, w) = (engine.grid(), cfg.window);
        let phasor = steering_phasors(&cfg);
        let steer: Vec<Complex64> = (0..grid.len() * w)
            .map(|k| phasor(cfg.tx[0], k / w, k % w))
            .collect();
        let phasors = |c: usize, i: usize| {
            let m = mirror_cell(grid, c);
            (steer[c * w + i], steer[m * w + (w - 1 - i)])
        };
        let norm = |c: usize| {
            let cross = (0..w).fold(Complex64::ZERO, |x, i| {
                let (t1, t2) = phasors(c, i);
                x + t2.conj() * t1
            });
            (w as f64 * (1.0 + wt.norm_sqr()) + 2.0 * (wt * cross).re).max(1e-12)
        };
        let want = four_sum_image(&engine, wt, phasors, norm);
        let tol = 1e-6 * peak(&want);
        assert_same_image(&engine, &image, &want, |_| tol);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_wrong_window_length() {
        let cfg = test_cfg();
        let mut engine = ImagingEngine::new(cfg);
        let _ = engine.process_window(&[Complex64::ONE; 10], Complex64::ONE);
    }
}
