//! Runtime-dispatched SIMD kernels for the complex hot loops.
//!
//! The whole pipeline funnels into a handful of inner loops — the Jacobi
//! eigensolver's Givens rotations, the correlation outer-product
//! accumulation, the MUSIC steering projection, and the imaging focus
//! pass ([`focus_rows`]: two sums per row of a single-precision
//! [`PhasorTable`], one eight-row block per AVX2 step). This module
//! vectorizes exactly those (the FFT butterflies stay scalar in
//! [`crate::fft`]: an AVX2 body measured no faster), with a dispatch
//! contract the golden-trace suite depends on:
//!
//! **Bitwise pinning.** Every kernel in this module produces output
//! *bit-identical* to its `*_scalar` reference on every input, at every
//! dispatch level. This is achievable because the kernels vectorize
//! across *independent outputs* (different matrix entries, different
//! accumulators, different table rows) while keeping each output's
//! arithmetic sequence — operand order, rounding points, no FMA
//! contraction — exactly the scalar one. Two IEEE-754 facts carry the proofs: `a·b`
//! and `b·a` round identically (so complex multiplication commutes
//! bitwise), and negation is a sign-bit flip (so conjugation via XOR
//! mask equals the scalar `-im`). The AVX2 paths therefore use explicit
//! `mul`/`add`/`sub`/`addsub` — never `fma` — and the golden fixtures
//! pass unchanged whichever level dispatch lands on. The focus pass is
//! the one kernel that computes in single precision: both of its paths
//! multiply and add in `f32` in the same order, one table block at a
//! time, and widen each run's partial sums exactly to `f64` before
//! adding them (see [`focus_rows`]).
//!
//! **Dispatch.** [`level`] detects AVX2 once (`is_x86_feature_detected!`)
//! and honours two overrides: the `WIVI_NO_SIMD=1` environment variable
//! (read once, for CI's forced-scalar leg) and the runtime
//! [`set_forced`] hook (for in-process scalar-vs-SIMD comparisons in
//! tests and the kernels bench). On non-x86 targets everything resolves
//! to the portable scalar fallbacks, which are unrolled four-wide where
//! it helps the autovectorizer but remain per-output sequential.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::{Complex64, PhasorTable};

/// The instruction set a kernel call will use. Levels are ordered:
/// forcing a level above what the CPU supports clamps down.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar fallback (always available, the reference).
    Scalar,
    /// AVX2 256-bit paths (x86-64 with runtime-detected support).
    Avx2,
}

impl SimdLevel {
    /// Stable lower-case name for reports (`"scalar"` / `"avx2"`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Set while [`set_forced`] pins dispatch to the scalar reference.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);
static DETECTED: OnceLock<SimdLevel> = OnceLock::new();

fn detected() -> SimdLevel {
    *DETECTED.get_or_init(|| {
        if std::env::var("WIVI_NO_SIMD").is_ok_and(|v| v == "1") || !avx2_supported() {
            SimdLevel::Scalar
        } else {
            SimdLevel::Avx2
        }
    })
}

/// The dispatch level kernel calls resolve to right now.
pub fn level() -> SimdLevel {
    // ordering: Relaxed — a standalone flag; callers that need a crisp
    // cutover (tests, the kernels bench) serialize around it themselves.
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        SimdLevel::Scalar
    } else {
        detected()
    }
}

/// Overrides dispatch at runtime: `Some(Scalar)` forces the reference
/// path; `Some(Avx2)` and `None` restore auto-detection, which is AVX2
/// wherever the CPU supports it and `WIVI_NO_SIMD` is unset. Intended
/// for the kernels bench and the scalar-vs-SIMD property tests; affects
/// all threads.
pub fn set_forced(level: Option<SimdLevel>) {
    // ordering: Relaxed — see level().
    FORCE_SCALAR.store(level == Some(SimdLevel::Scalar), Ordering::Relaxed);
}

/// `true` if the CPU supports the AVX2 paths (regardless of overrides).
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// Givens rotation (the Jacobi eigensolver's inner loop)
// ---------------------------------------------------------------------------

/// Applies one complex Givens rotation to a pair of equal-length slices,
/// in place:
///
/// ```text
/// x[k] ← x[k]·c − (e·y[k])·s
/// y[k] ← (ē·x[k])·s + y[k]·c      (ē = conj(e), x[k] the original value)
/// ```
///
/// This is the Jacobi sweep's row update (`A ← V^H·A`, `e = e^{+iφ}`) and
/// its eigenvector update (`U ← U·V` on the rows of the transposed
/// accumulator, `e = e^{−iφ}`); the column update `A ← A·V` is mirrored
/// from the rotated rows by [`rotate_rows_mirror`]. Bitwise pinned to
/// [`givens_rotate_scalar`].
///
/// # Panics
/// Panics if the slices differ in length.
pub fn givens_rotate(x: &mut [Complex64], y: &mut [Complex64], c: f64, s: f64, e: Complex64) {
    assert_eq!(x.len(), y.len(), "rotation pair length mismatch");
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: level() reports AVX2 only after runtime CPU detection
        // confirmed it.
        return unsafe { avx2::givens_rotate(x, y, c, s, e) };
    }
    givens_rotate_scalar(x, y, c, s, e);
}

/// Scalar reference for [`givens_rotate`].
pub fn givens_rotate_scalar(
    x: &mut [Complex64],
    y: &mut [Complex64],
    c: f64,
    s: f64,
    e: Complex64,
) {
    assert_eq!(x.len(), y.len(), "rotation pair length mismatch");
    let ec = e.conj();
    for (xk, yk) in x.iter_mut().zip(y.iter_mut()) {
        let x0 = *xk;
        let y0 = *yk;
        *xk = x0.scale(c) - (e * y0).scale(s);
        *yk = (ec * x0).scale(s) + y0.scale(c);
    }
}

/// Hermitian mirror of one rotated row pair of a square row-major
/// matrix: writes `data[k·stride + p] = conj(data[p·stride + k])` and
/// `data[k·stride + q] = conj(data[q·stride + k])` for every `k`
/// outside `{p, q}`. Conjugation is exact (a sign-bit flip), so this
/// reproduces the bits a direct column rotation of a bit-Hermitian
/// matrix would produce — see [`crate::eig`]. Pure data movement, no
/// dispatch: one tight branch-free pass per column.
///
/// # Panics
/// Panics unless the buffer is square (`stride × stride`) and
/// `p != q` are in range.
fn conj_mirror_cols(data: &mut [Complex64], stride: usize, p: usize, q: usize) {
    assert!(
        stride > 0 && data.len() == stride * stride,
        "mirror requires a square buffer"
    );
    assert!(p < stride && q < stride && p != q, "bad column pair");
    let (lo, hi) = if p < q { (p, q) } else { (q, p) };
    // SAFETY: all offsets are `k·stride + c` with `k, c < stride`, in
    // bounds by the asserts above. The reads come from rows p and q and
    // the writes go to rows k ∉ {p, q}, so no write clobbers a pending
    // read.
    unsafe {
        let base = data.as_mut_ptr();
        let row_p = base.add(p * stride) as *const Complex64;
        let row_q = base.add(q * stride) as *const Complex64;
        let mirror_range = |from: usize, to: usize| {
            for k in from..to {
                *base.add(k * stride + p) = (*row_p.add(k)).conj();
                *base.add(k * stride + q) = (*row_q.add(k)).conj();
            }
        };
        mirror_range(0, lo);
        mirror_range(lo + 1, hi);
        mirror_range(hi + 1, stride);
    }
}

/// Fused Jacobi pivot update for a bit-Hermitian square matrix: applies
/// the row rotation [`givens_rotate`] to rows `p` and `q` (`e` is the
/// row-update phase `e^{+iφ}`), then writes each rotated row's conjugate
/// into columns `p` and `q` of every other row — one pass, one dispatch
/// per pivot.
///
/// The mirror **skips** `k ∈ {p, q}`: mirroring `k = p` mid-pass would
/// overwrite `data[p·stride + q]` (= `conj` of the rotated `row_q[p]`)
/// before the rotation of index `q` reads the original value, changing
/// the result. The caller clamps the four `{p, q} × {p, q}` entries
/// afterwards exactly as it would after the unfused sequence.
///
/// Bitwise pinned to [`rotate_rows_mirror_scalar`] (the mirror is pure
/// sign-bit data movement of final rotated values, so fusing does not
/// change any arithmetic).
///
/// # Panics
/// Panics unless the buffer is square (`stride × stride`) and
/// `p < q < stride`.
pub fn rotate_rows_mirror(
    data: &mut [Complex64],
    stride: usize,
    p: usize,
    q: usize,
    c: f64,
    s: f64,
    e: Complex64,
) {
    assert!(
        stride > 0 && data.len() == stride * stride,
        "mirror requires a square buffer"
    );
    assert!(p < q && q < stride, "row pair must satisfy p < q < stride");
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: level() reports AVX2 only after runtime CPU detection
        // confirmed it.
        return unsafe { avx2::rotate_rows_mirror(data, stride, p, q, c, s, e) };
    }
    rotate_rows_mirror_scalar(data, stride, p, q, c, s, e);
}

/// Scalar reference for [`rotate_rows_mirror`]: the unfused
/// rotate-then-mirror sequence.
pub fn rotate_rows_mirror_scalar(
    data: &mut [Complex64],
    stride: usize,
    p: usize,
    q: usize,
    c: f64,
    s: f64,
    e: Complex64,
) {
    assert!(
        stride > 0 && data.len() == stride * stride,
        "mirror requires a square buffer"
    );
    assert!(p < q && q < stride, "row pair must satisfy p < q < stride");
    {
        let (head, tail) = data.split_at_mut(q * stride);
        let row_p = &mut head[p * stride..(p + 1) * stride];
        let row_q = &mut tail[..stride];
        givens_rotate_scalar(row_p, row_q, c, s, e);
    }
    conj_mirror_cols(data, stride, p, q);
}

// ---------------------------------------------------------------------------
// caxpy (the MUSIC steering projection)
// ---------------------------------------------------------------------------

/// `acc[k] += a·x[k]` — the accumulation step of the loop-interchanged
/// MUSIC projection (one signal-row scalar against the angle-contiguous
/// steering table). Bitwise pinned to [`caxpy_scalar`].
///
/// # Panics
/// Panics if the slices differ in length.
pub fn caxpy(acc: &mut [Complex64], x: &[Complex64], a: Complex64) {
    assert_eq!(acc.len(), x.len(), "caxpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: level() reports AVX2 only after runtime CPU detection
        // confirmed it.
        return unsafe { avx2::caxpy(acc, x, a) };
    }
    caxpy_scalar(acc, x, a);
}

/// Scalar reference for [`caxpy`] (4-wide unrolled; per-element results
/// are independent so the unroll is bitwise-neutral).
pub fn caxpy_scalar(acc: &mut [Complex64], x: &[Complex64], a: Complex64) {
    assert_eq!(acc.len(), x.len(), "caxpy length mismatch");
    let mut ai = acc.chunks_exact_mut(4);
    let mut xi = x.chunks_exact(4);
    for (ac, xc) in ai.by_ref().zip(xi.by_ref()) {
        ac[0] += a * xc[0];
        ac[1] += a * xc[1];
        ac[2] += a * xc[2];
        ac[3] += a * xc[3];
    }
    for (ac, &xk) in ai.into_remainder().iter_mut().zip(xi.remainder()) {
        *ac += a * xk;
    }
}

// ---------------------------------------------------------------------------
// Outer-product row accumulation (smoothed correlation)
// ---------------------------------------------------------------------------

/// `row[k] += (x·conj(v[k]))·s` — one row of the correlation
/// accumulation `R += s·h·h^H` (`x = h[r]`, `v = h`). Bitwise pinned to
/// [`accumulate_outer_row_scalar`].
///
/// # Panics
/// Panics if the slices differ in length.
pub fn accumulate_outer_row(row: &mut [Complex64], v: &[Complex64], x: Complex64, s: f64) {
    assert_eq!(row.len(), v.len(), "outer-row length mismatch");
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: level() reports AVX2 only after runtime CPU detection
        // confirmed it.
        return unsafe { avx2::accumulate_outer_row(row, v, x, s) };
    }
    accumulate_outer_row_scalar(row, v, x, s);
}

/// Scalar reference for [`accumulate_outer_row`].
pub fn accumulate_outer_row_scalar(row: &mut [Complex64], v: &[Complex64], x: Complex64, s: f64) {
    assert_eq!(row.len(), v.len(), "outer-row length mismatch");
    for (rc, &vc) in row.iter_mut().zip(v) {
        *rc += (x * vc.conj()).scale(s);
    }
}

// ---------------------------------------------------------------------------
// Imaging focus rows
// ---------------------------------------------------------------------------

/// Window elements per single-precision partial sum in [`focus_rows`].
const FOCUS_RUN: usize = 16;

/// The bound on [`focus_rows`]' rounding error, relative to the mass
/// of the products it sums: every returned `F` (and `R`) is within
/// `FOCUS_ERROR · Σ_k |h_k|·|t_k|` of the exact sum of the unrounded
/// window's products with the stored phasors.
///
/// The real or imaginary part of a term `h_k·t_k` is rounded at most
/// three times before it joins its run (the window part to `f32`, its
/// product with a phasor part, the difference or sum of two such
/// products) and then by the 15 `f32` additions of a run of 16, so its
/// error is at most `(3 + 15)·2⁻²⁴` of `|h_k|·|t_k|`. One more `2⁻²⁴`
/// covers the second-order terms and the `f64` additions of the run
/// sums, for windows of up to 2²⁸ elements, and a complex error is at
/// most `√2` times its parts' common bound: `√2·(16 + 3)·2⁻²⁴ ≈ 1.6e-6`.
/// The bound assumes every nonzero part of the window and of its
/// products lies in `f32`'s normal range; below it, each rounding can
/// add up to `2⁻¹⁵⁰` more.
pub const FOCUS_ERROR: f64 = std::f64::consts::SQRT_2 * (FOCUS_RUN + 3) as f64 / 16_777_216.0;

/// Rounds the centred window `h` to the element pairs [`focus_rows`]
/// reads: `pairs[k] = [h[k].re, h[k].im, h[n−1−k].re, h[n−1−k].im]`,
/// each part rounded to the nearest `f32`.
///
/// # Panics
/// Panics if `pairs` and `h` differ in length.
pub fn focus_pairs(h: &[Complex64], pairs: &mut [[f32; 4]]) {
    assert_eq!(h.len(), pairs.len(), "focus window length mismatch");
    for ((p, f), r) in pairs.iter_mut().zip(h).zip(h.iter().rev()) {
        *p = [f.re as f32, f.im as f32, r.re as f32, r.im as f32];
    }
}

/// One imaging focus pass: correlates the centred window, rounded to
/// `f32` by [`focus_pairs`] (`ĥ`, length `n`), with every row `t` of
/// the single-precision steering `table` (`sums.len()` rows of `n`
/// phasors), walked forward and reversed:
///
/// ```text
/// sums[r] = [F, R],   F = Σ_k ĥ[k]·t[k],   R = Σ_k ĥ[n−1−k]·t[k]
/// ```
///
/// Each product is the crate's no-FMA complex product computed in
/// `f32` (`re = ĥ.re·t.re − ĥ.im·t.im`, `im = ĥ.re·t.im + ĥ.im·t.re`).
/// A row's products are added in ascending `k`, in `f32`, over runs of
/// 16 elements starting from zero; each run's sum is widened exactly to
/// `f64` and added to the row's `f64` sum, also in ascending order. A
/// sum is within [`FOCUS_ERROR`]` · Σ_k |h_k|·|t_k|` of the exact one,
/// provided the window's parts and their products with the table are
/// zero or in `f32`'s normal range, from `2⁻¹²⁶` (about `1.2e-38`) to
/// `f32::MAX` (about `3.4e38`) with room for a run's sum of 16
/// products; imaging windows sit many decades inside it, and a part
/// beyond `f32::MAX` becomes infinite. The imaging engine assembles a
/// cell's four directional sums from its own row's pair and its mirror
/// cell's. The AVX2 body runs one [`PhasorTable`] block of eight rows
/// at a time, one row per lane, and computes padding rows it never
/// stores; the scalar reference walks the same blocks with eight lane
/// sums per element. Bitwise pinned to [`focus_rows_scalar`]; the probe
/// counts one [`Kernel::Focus`](crate::probe::Kernel::Focus) per row,
/// padding excluded.
///
/// # Panics
/// Panics unless the table has `sums.len()` rows of `pairs.len()`
/// phasors.
pub fn focus_rows(pairs: &[[f32; 4]], table: &PhasorTable, sums: &mut [[Complex64; 2]]) {
    // The AVX2 body's block walk relies on this shape.
    assert!(
        table.rows() == sums.len() && table.row_len() == pairs.len(),
        "focus table shape mismatch"
    );
    crate::probe::count_kernel(crate::probe::Kernel::Focus, sums.len() as u64);
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: level() reports AVX2 only after runtime CPU detection
        // confirmed it.
        return unsafe { avx2::focus_rows(pairs, table, sums) };
    }
    focus_rows_scalar(pairs, table, sums);
}

/// Scalar reference for [`focus_rows`]: one block at a time, each
/// element read once into its eight rows' run sums.
///
/// # Panics
/// Panics unless the table has `sums.len()` rows of `pairs.len()`
/// phasors.
pub fn focus_rows_scalar(pairs: &[[f32; 4]], table: &PhasorTable, sums: &mut [[Complex64; 2]]) {
    assert!(
        table.rows() == sums.len() && table.row_len() == pairs.len(),
        "focus table shape mismatch"
    );
    const LANES: usize = PhasorTable::BLOCK_ROWS;
    for (block, out) in table.blocks().zip(sums.chunks_mut(LANES)) {
        // [F.re, F.im, R.re, R.im], one lane per row of the block.
        let mut acc = [[0.0f64; LANES]; 4];
        for (run, hs) in block.chunks(FOCUS_RUN).zip(pairs.chunks(FOCUS_RUN)) {
            let mut part = [[0.0f32; LANES]; 4];
            for (e, &[hfr, hfi, hrr, hri]) in run.iter().zip(hs) {
                for (l, (&tr, &ti)) in e.re.iter().zip(&e.im).enumerate() {
                    part[0][l] += hfr * tr - hfi * ti;
                    part[1][l] += hfr * ti + hfi * tr;
                    part[2][l] += hrr * tr - hri * ti;
                    part[3][l] += hrr * ti + hri * tr;
                }
            }
            for (a, p) in acc.iter_mut().zip(&part) {
                for (x, &y) in a.iter_mut().zip(p) {
                    *x += f64::from(y);
                }
            }
        }
        // Padding rows have no slot in `out`.
        for (j, o) in out.iter_mut().enumerate() {
            let [f_re, f_im, r_re, r_im] = acc.map(|a| a[j]);
            *o = [Complex64::new(f_re, f_im), Complex64::new(r_re, r_im)];
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 implementations
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Complex64, PhasorTable, FOCUS_RUN};
    use std::arch::x86_64::*;

    /// `[w.re, w.im, w.re, w.im]` — one complex broadcast to both slots.
    // SAFETY: register-only intrinsic arithmetic, no memory access;
    // every caller runs inside an AVX2 target_feature context that
    // the level() dispatch proved at runtime.
    #[inline]
    unsafe fn broadcast(w: Complex64) -> __m256d {
        _mm256_setr_pd(w.re, w.im, w.re, w.im)
    }

    /// Per-slot complex multiply of two ymm registers holding two
    /// interleaved complexes each. No FMA: `addsub(x·wr, swap(x)·wi)`
    /// reproduces the scalar operator's products and rounding exactly
    /// (the scalar `im` sums the same two products in the commuted
    /// order, which rounds identically).
    // SAFETY: register-only intrinsic arithmetic, no memory access;
    // every caller runs inside an AVX2 target_feature context that
    // the level() dispatch proved at runtime.
    #[inline]
    unsafe fn cmul(x: __m256d, w: __m256d) -> __m256d {
        let wr = _mm256_movedup_pd(w); //          [w0r, w0r, w1r, w1r]
        let wi = _mm256_permute_pd(w, 0b1111); //  [w0i, w0i, w1i, w1i]
        let xs = _mm256_permute_pd(x, 0b0101); //  [x0i, x0r, x1i, x1r]
        _mm256_addsub_pd(_mm256_mul_pd(x, wr), _mm256_mul_pd(xs, wi))
    }

    // SAFETY: callable only with AVX2 present — the level() dispatch
    // proves that at runtime. Every pointer offset below stays inside
    // the argument slices: the vector body covers whole pairs of
    // complexes and the odd tail is handled separately.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn givens_rotate(
        x: &mut [Complex64],
        y: &mut [Complex64],
        c: f64,
        s: f64,
        e: Complex64,
    ) {
        let n = x.len();
        let cv = _mm256_set1_pd(c);
        let sv = _mm256_set1_pd(s);
        let ev = broadcast(e);
        let ecv = broadcast(e.conj());
        let xp = x.as_mut_ptr() as *mut f64;
        let yp = y.as_mut_ptr() as *mut f64;
        let pairs = n / 2;
        for k in 0..pairs {
            let xv = _mm256_loadu_pd(xp.add(4 * k));
            let yv = _mm256_loadu_pd(yp.add(4 * k));
            let m = cmul(yv, ev); //  e·y
            let w = cmul(xv, ecv); // ē·x
            let xn = _mm256_sub_pd(_mm256_mul_pd(xv, cv), _mm256_mul_pd(m, sv));
            let yn = _mm256_add_pd(_mm256_mul_pd(w, sv), _mm256_mul_pd(yv, cv));
            _mm256_storeu_pd(xp.add(4 * k), xn);
            _mm256_storeu_pd(yp.add(4 * k), yn);
        }
        if n % 2 == 1 {
            super::givens_rotate_scalar(&mut x[n - 1..], &mut y[n - 1..], c, s, e);
        }
    }

    // SAFETY: callable only with AVX2 present — the level() dispatch
    // proves that at runtime. Every pointer offset below stays inside
    // the argument slices: the vector body covers whole pairs of
    // complexes and the odd tail is handled separately.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rotate_rows_mirror(
        data: &mut [Complex64],
        stride: usize,
        p: usize,
        q: usize,
        c: f64,
        s: f64,
        e: Complex64,
    ) {
        let cv = _mm256_set1_pd(c);
        let sv = _mm256_set1_pd(s);
        let ev = broadcast(e);
        let ecv = broadcast(e.conj());
        let ec = e.conj();
        let conj_mask = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
        // SAFETY: all offsets are `r·stride + j` with `r, j < stride`,
        // in bounds by the caller's square-buffer assert. Rotation
        // touches only rows p and q; mirror writes go to rows
        // k ∉ {p, q} — never a pending rotation input.
        let base = data.as_mut_ptr();
        let xp = base.add(p * stride) as *mut f64;
        let yp = base.add(q * stride) as *mut f64;
        // Column-store helper: mirror one rotated element pair into row
        // j's (p, q) slots, skipping the pivot block. The conjugates
        // come straight from registers — re-loading the just-stored row
        // would defeat store-to-load forwarding.
        let mirror = |j: usize, xcj: __m128d, ycj: __m128d| {
            if j != p && j != q {
                _mm_storeu_pd(base.add(j * stride + p) as *mut f64, xcj);
                _mm_storeu_pd(base.add(j * stride + q) as *mut f64, ycj);
            }
        };
        let mut k = 0;
        while k + 2 <= stride {
            let xv = _mm256_loadu_pd(xp.add(2 * k));
            let yv = _mm256_loadu_pd(yp.add(2 * k));
            let m = cmul(yv, ev);
            let w = cmul(xv, ecv);
            let xn = _mm256_sub_pd(_mm256_mul_pd(xv, cv), _mm256_mul_pd(m, sv));
            let yn = _mm256_add_pd(_mm256_mul_pd(w, sv), _mm256_mul_pd(yv, cv));
            _mm256_storeu_pd(xp.add(2 * k), xn);
            _mm256_storeu_pd(yp.add(2 * k), yn);
            let xc = _mm256_xor_pd(xn, conj_mask);
            let yc = _mm256_xor_pd(yn, conj_mask);
            mirror(k, _mm256_castpd256_pd128(xc), _mm256_castpd256_pd128(yc));
            mirror(
                k + 1,
                _mm256_extractf128_pd(xc, 1),
                _mm256_extractf128_pd(yc, 1),
            );
            k += 2;
        }
        while k < stride {
            let x0 = *base.add(p * stride + k);
            let y0 = *base.add(q * stride + k);
            let xn = x0.scale(c) - (e * y0).scale(s);
            let yn = (ec * x0).scale(s) + y0.scale(c);
            *base.add(p * stride + k) = xn;
            *base.add(q * stride + k) = yn;
            if k != p && k != q {
                *base.add(k * stride + p) = xn.conj();
                *base.add(k * stride + q) = yn.conj();
            }
            k += 1;
        }
    }

    // SAFETY: callable only with AVX2 present — the level() dispatch
    // proves that at runtime. Every pointer offset below stays inside
    // the argument slices: the vector body covers whole pairs of
    // complexes and the odd tail is handled separately.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn caxpy(acc: &mut [Complex64], x: &[Complex64], a: Complex64) {
        let n = acc.len();
        let av = broadcast(a);
        let ap = acc.as_mut_ptr() as *mut f64;
        let xp = x.as_ptr() as *const f64;
        let pairs = n / 2;
        for k in 0..pairs {
            let xv = _mm256_loadu_pd(xp.add(4 * k));
            let av0 = _mm256_loadu_pd(ap.add(4 * k));
            _mm256_storeu_pd(ap.add(4 * k), _mm256_add_pd(av0, cmul(xv, av)));
        }
        if n % 2 == 1 {
            acc[n - 1] += a * x[n - 1];
        }
    }

    // SAFETY: callable only with AVX2 present — the level() dispatch
    // proves that at runtime. Every pointer offset below stays inside
    // the argument slices: the vector body covers whole pairs of
    // complexes and the odd tail is handled separately.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_outer_row(
        row: &mut [Complex64],
        v: &[Complex64],
        x: Complex64,
        s: f64,
    ) {
        let n = row.len();
        let xb = broadcast(x);
        let sv = _mm256_set1_pd(s);
        // Conjugation = flipping the imaginary sign bits (IEEE negation).
        let conj_mask = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
        let rp = row.as_mut_ptr() as *mut f64;
        let vp = v.as_ptr() as *const f64;
        let pairs = n / 2;
        for k in 0..pairs {
            let vv = _mm256_xor_pd(_mm256_loadu_pd(vp.add(4 * k)), conj_mask);
            let prod = _mm256_mul_pd(cmul(vv, xb), sv);
            let r0 = _mm256_loadu_pd(rp.add(4 * k));
            _mm256_storeu_pd(rp.add(4 * k), _mm256_add_pd(r0, prod));
        }
        if n % 2 == 1 {
            row[n - 1] += (x * v[n - 1].conj()).scale(s);
        }
    }

    // SAFETY: callable only with AVX2 present — the level() dispatch
    // proves that at runtime. The pointer reads are a block element's
    // eight-lane `re` and `im` arrays, and the pointer writes fill whole
    // local `[f64; 4]` arrays.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn focus_rows(
        pairs: &[[f32; 4]],
        table: &PhasorTable,
        sums: &mut [[Complex64; 2]],
    ) {
        for (block, out) in table.blocks().zip(sums.chunks_mut(PhasorTable::BLOCK_ROWS)) {
            // [F.re, F.im, R.re, R.im] of the block's rows in f64, rows
            // 0–3 in half 0 and rows 4–7 in half 1.
            let mut acc = [[_mm256_setzero_pd(); 4]; 2];
            for (run, hs) in block.chunks(FOCUS_RUN).zip(pairs.chunks(FOCUS_RUN)) {
                // The run's f32 sums, one row per lane.
                let mut part = [_mm256_setzero_ps(); 4];
                for (e, h) in run.iter().zip(hs) {
                    let tr = _mm256_loadu_ps(e.re.as_ptr());
                    let ti = _mm256_loadu_ps(e.im.as_ptr());
                    let (hfr, hfi) = (_mm256_set1_ps(h[0]), _mm256_set1_ps(h[1]));
                    let (hrr, hri) = (_mm256_set1_ps(h[2]), _mm256_set1_ps(h[3]));
                    // h·t without FMA, the scalar product's roundings:
                    // re = h.re·t.re − h.im·t.im, im = h.re·t.im + h.im·t.re.
                    let f_re = _mm256_sub_ps(_mm256_mul_ps(hfr, tr), _mm256_mul_ps(hfi, ti));
                    let f_im = _mm256_add_ps(_mm256_mul_ps(hfr, ti), _mm256_mul_ps(hfi, tr));
                    let r_re = _mm256_sub_ps(_mm256_mul_ps(hrr, tr), _mm256_mul_ps(hri, ti));
                    let r_im = _mm256_add_ps(_mm256_mul_ps(hrr, ti), _mm256_mul_ps(hri, tr));
                    part[0] = _mm256_add_ps(part[0], f_re);
                    part[1] = _mm256_add_ps(part[1], f_im);
                    part[2] = _mm256_add_ps(part[2], r_re);
                    part[3] = _mm256_add_ps(part[3], r_im);
                }
                for (q, p) in part.into_iter().enumerate() {
                    let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(p));
                    let hi = _mm256_cvtps_pd(_mm256_extractf128_ps(p, 1));
                    acc[0][q] = _mm256_add_pd(acc[0][q], lo);
                    acc[1][q] = _mm256_add_pd(acc[1][q], hi);
                }
            }
            // Padding rows have no slot in `out`.
            let mut lanes = [[[0.0f64; 4]; 4]; 2];
            for (l, a) in lanes.iter_mut().zip(&acc) {
                for (dst, v) in l.iter_mut().zip(a) {
                    _mm256_storeu_pd(dst.as_mut_ptr(), *v);
                }
            }
            for (j, o) in out.iter_mut().enumerate() {
                let [f_re, f_im, r_re, r_im] = lanes[j / 4].map(|v| v[j % 4]);
                *o = [Complex64::new(f_re, f_im), Complex64::new(r_re, r_im)];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use std::sync::{Mutex, MutexGuard};

    /// `FORCE_SCALAR` is process-global; tests that mutate it serialize here
    /// (and restore auto-detection on drop via [`forced_guard`]).
    static FORCE_LOCK: Mutex<()> = Mutex::new(());

    struct ForcedGuard(#[allow(dead_code)] MutexGuard<'static, ()>);
    impl Drop for ForcedGuard {
        fn drop(&mut self) {
            set_forced(None);
        }
    }

    fn forced_guard() -> ForcedGuard {
        ForcedGuard(FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Every level the running CPU can actually execute.
    fn available_levels() -> Vec<SimdLevel> {
        let mut levels = vec![SimdLevel::Scalar];
        if avx2_supported() {
            levels.push(SimdLevel::Avx2);
        }
        levels
    }

    fn vecs(n: usize, seed: u64) -> (Vec<Complex64>, Vec<Complex64>) {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut g = || Complex64::new(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0));
        ((0..n).map(|_| g()).collect(), (0..n).map(|_| g()).collect())
    }

    #[test]
    fn level_override_roundtrip() {
        let _guard = forced_guard();
        let auto = level();
        set_forced(Some(SimdLevel::Scalar));
        assert_eq!(level(), SimdLevel::Scalar);
        set_forced(None);
        assert_eq!(level(), auto);
        // Forcing a level the CPU supports lands exactly there; forcing
        // one it doesn't clamps down to what it can run.
        for want in available_levels() {
            set_forced(Some(want));
            assert_eq!(level(), want.min(auto), "forcing {:?}", want);
        }
        set_forced(Some(SimdLevel::Avx2));
        assert!(level() <= auto, "forced level must clamp to hardware");
        set_forced(None);
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
    }

    #[test]
    fn dispatched_kernels_match_scalar_bitwise() {
        // The heart of the pinning contract, at every available dispatch
        // level and every length class the pipeline uses (even/odd,
        // tiny, hot-path sizes).
        let _guard = forced_guard();
        for forced in available_levels() {
            set_forced(Some(forced));
            // The small sizes cover the odd tails; 50, 181 and 625 are
            // the Jacobi rows, the MUSIC angle grid and the aperture.
            for n in [1usize, 2, 3, 4, 5, 7, 8, 16, 50, 63, 100, 181, 625] {
                let (x, y) = vecs(n, 1000 + n as u64);
                let e = Complex64::cis(0.7);
                let (c, s) = (0.8, 0.6);

                let (mut xs, mut ys) = (x.clone(), y.clone());
                givens_rotate_scalar(&mut xs, &mut ys, c, s, e);
                let (mut xv, mut yv) = (x.clone(), y.clone());
                givens_rotate(&mut xv, &mut yv, c, s, e);
                assert_bits(&xs, &xv, "givens x");
                assert_bits(&ys, &yv, "givens y");

                let a = Complex64::new(0.3, -1.2);
                let mut accs = y.clone();
                caxpy_scalar(&mut accs, &x, a);
                let mut accv = y.clone();
                caxpy(&mut accv, &x, a);
                assert_bits(&accs, &accv, "caxpy");

                let mut rows = y.clone();
                accumulate_outer_row_scalar(&mut rows, &x, a, 0.25);
                let mut rowv = y.clone();
                accumulate_outer_row(&mut rowv, &x, a, 0.25);
                assert_bits(&rows, &rowv, "outer row");

                // Nine rows: one whole block of the vector body and one
                // row of a padded block.
                let (rows, _) = vecs(9 * n, 2000 + n as u64);
                let mut table = PhasorTable::zeros(9, n);
                for (i, &z) in rows.iter().enumerate() {
                    table.set(i / n, i % n, z);
                }
                let mut pairs = vec![[0.0f32; 4]; n];
                focus_pairs(&x, &mut pairs);
                let mut fs = [[Complex64::ZERO; 2]; 9];
                focus_rows_scalar(&pairs, &table, &mut fs);
                let mut fv = [[Complex64::ZERO; 2]; 9];
                focus_rows(&pairs, &table, &mut fv);
                assert_bits(fs.as_flattened(), fv.as_flattened(), "focus");
            }
        }
    }

    #[test]
    fn fused_rotate_mirror_matches_unfused_bitwise() {
        let _guard = forced_guard();
        for forced in available_levels() {
            set_forced(Some(forced));
            // Square sizes spanning both remainder classes, with pivot
            // pairs that sit inside, straddle, and bound the vector
            // chunks.
            for n in [2usize, 3, 4, 5, 7, 8, 13, 50] {
                let (data, _) = vecs(n * n, 4242 + n as u64);
                for (p, q) in [(0usize, 1usize), (0, n - 1), (n / 2, n - 1)] {
                    if p >= q {
                        continue;
                    }
                    let e = Complex64::cis(0.9);
                    let (c, s) = (0.28, 0.96);
                    let mut expect = data.clone();
                    rotate_rows_mirror_scalar(&mut expect, n, p, q, c, s, e);
                    let mut got = data.clone();
                    rotate_rows_mirror(&mut got, n, p, q, c, s, e);
                    assert_bits(&expect, &got, "fused rotate+mirror");
                }
            }
        }
    }

    fn assert_bits(a: &[Complex64], b: &[Complex64], what: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: lane {i} differs ({x} vs {y})"
            );
        }
    }
}
