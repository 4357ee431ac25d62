//! Runtime-dispatched SIMD kernels for the complex hot loops.
//!
//! The whole pipeline funnels into a handful of inner loops — the Jacobi
//! eigensolver's Givens rotations, the correlation outer-product
//! accumulation, the FFT butterflies, the MUSIC steering projection, and
//! the imaging focus sweep. This module vectorizes exactly those, with a
//! dispatch contract the golden-trace suite depends on:
//!
//! **Bitwise pinning.** Every kernel in this module produces output
//! *bit-identical* to its `*_scalar` reference on every input, at every
//! dispatch level. This is achievable because the kernels vectorize
//! across *independent outputs* (different matrix entries, different
//! accumulators, different cells) while keeping each output's arithmetic
//! sequence — operand order, rounding points, no FMA contraction —
//! exactly the scalar one. Two IEEE-754 facts carry the proofs: `a·b`
//! and `b·a` round identically (so complex multiplication commutes
//! bitwise), and negation is a sign-bit flip (so conjugation via XOR
//! mask equals the scalar `-im`). The AVX2 paths therefore use explicit
//! `mul`/`add`/`sub`/`addsub` — never `fma` — and the golden fixtures
//! pass unchanged whichever level dispatch lands on.
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

use crate::Complex64;

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
/// This is both the row update (`A ← V^H·A`, `e = e^{+iφ}`) and — via
/// [`givens_rotate_cols`] on strided columns — the column updates
/// (`A ← A·V`, `U ← U·V`, `e = e^{−iφ}`) of the Jacobi sweep. Bitwise
/// pinned to [`givens_rotate_scalar`].
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

/// [`givens_rotate`] over the two strided columns `p` and `q` of a
/// row-major `rows × stride` buffer: rotates the element pairs
/// `(data[k·stride + p], data[k·stride + q])` for `k = 0..rows`.
/// Bitwise pinned to the scalar reference.
///
/// # Panics
/// Panics if the buffer is not `rows·stride` long or a column index is
/// out of range.
pub fn givens_rotate_cols(
    data: &mut [Complex64],
    stride: usize,
    p: usize,
    q: usize,
    c: f64,
    s: f64,
    e: Complex64,
) {
    assert!(
        stride > 0 && data.len().is_multiple_of(stride),
        "ragged buffer"
    );
    assert!(p < stride && q < stride && p != q, "bad column pair");
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: level() reports AVX2 only after runtime CPU detection
        // confirmed it.
        return unsafe { avx2::givens_rotate_cols(data, stride, p, q, c, s, e) };
    }
    givens_rotate_cols_scalar(data, stride, p, q, c, s, e);
}

/// Scalar reference for [`givens_rotate_cols`].
pub fn givens_rotate_cols_scalar(
    data: &mut [Complex64],
    stride: usize,
    p: usize,
    q: usize,
    c: f64,
    s: f64,
    e: Complex64,
) {
    let ec = e.conj();
    let rows = data.len() / stride;
    for k in 0..rows {
        let base = k * stride;
        let x0 = data[base + p];
        let y0 = data[base + q];
        data[base + p] = x0.scale(c) - (e * y0).scale(s);
        data[base + q] = (ec * x0).scale(s) + y0.scale(c);
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
pub fn conj_mirror_cols(data: &mut [Complex64], stride: usize, p: usize, q: usize) {
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
/// row-update phase `e^{+iφ}`), then mirrors the rotated rows into
/// columns `p` and `q` as in [`conj_mirror_cols`] — one pass, one
/// dispatch per pivot.
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
// FFT butterflies
// ---------------------------------------------------------------------------

/// One radix-2 butterfly stage over a block split into its low and high
/// halves: `lo[k], hi[k] ← lo[k] + hi[k]·w[k], lo[k] − hi[k]·w[k]`.
/// Bitwise pinned to [`butterflies_scalar`].
///
/// # Panics
/// Panics if the three slices differ in length.
pub fn butterflies(lo: &mut [Complex64], hi: &mut [Complex64], w: &[Complex64]) {
    assert!(
        lo.len() == hi.len() && lo.len() == w.len(),
        "butterfly length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: level() reports AVX2 only after runtime CPU detection
        // confirmed it.
        return unsafe { avx2::butterflies(lo, hi, w) };
    }
    butterflies_scalar(lo, hi, w);
}

/// Scalar reference for [`butterflies`].
pub fn butterflies_scalar(lo: &mut [Complex64], hi: &mut [Complex64], w: &[Complex64]) {
    for ((l, h), &wk) in lo.iter_mut().zip(hi.iter_mut()).zip(w) {
        let u = *l;
        let v = *h * wk;
        *l = u + v;
        *h = u - v;
    }
}

// ---------------------------------------------------------------------------
// Imaging focus accumulation
// ---------------------------------------------------------------------------

/// The per-cell backprojection inner loop: correlates the centred
/// window `h` against the two TX steering tables `t1`, `t2`, traversed
/// forward and reversed, returning `[a1f, a2f, a1r, a2r]` where
///
/// ```text
/// a1f = Σ_i h[i]·t1[i]          a2f = Σ_i h[i]·t2[i]
/// a1r = Σ_i h[n−1−i]·t1[i]      a2r = Σ_i h[n−1−i]·t2[i]
/// ```
///
/// Each accumulator's addition sequence is the scalar loop's, so the
/// result is bitwise pinned to [`focus_accumulate_scalar`].
///
/// # Panics
/// Panics if the slices differ in length.
pub fn focus_accumulate(h: &[Complex64], t1: &[Complex64], t2: &[Complex64]) -> [Complex64; 4] {
    assert!(
        h.len() == t1.len() && h.len() == t2.len(),
        "focus length mismatch"
    );
    crate::probe::count_kernel(crate::probe::Kernel::Focus, 1);
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: level() reports AVX2 only after runtime CPU detection
        // confirmed it.
        return unsafe { avx2::focus_accumulate(h, t1, t2) };
    }
    focus_accumulate_scalar(h, t1, t2)
}

/// Scalar reference for [`focus_accumulate`].
pub fn focus_accumulate_scalar(
    h: &[Complex64],
    t1: &[Complex64],
    t2: &[Complex64],
) -> [Complex64; 4] {
    let n = h.len();
    let mut a1f = Complex64::ZERO;
    let mut a2f = Complex64::ZERO;
    let mut a1r = Complex64::ZERO;
    let mut a2r = Complex64::ZERO;
    for i in 0..n {
        let hf = h[i];
        let hr = h[n - 1 - i];
        a1f += hf * t1[i];
        a2f += hf * t2[i];
        a1r += hr * t1[i];
        a2r += hr * t2[i];
    }
    [a1f, a2f, a1r, a2r]
}

// ---------------------------------------------------------------------------
// AVX2 implementations
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Complex64;
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
    pub(super) unsafe fn givens_rotate_cols(
        data: &mut [Complex64],
        stride: usize,
        p: usize,
        q: usize,
        c: f64,
        s: f64,
        e: Complex64,
    ) {
        let rows = data.len() / stride;
        let cv = _mm256_set1_pd(c);
        let sv = _mm256_set1_pd(s);
        let ev = broadcast(e);
        let ecv = broadcast(e.conj());
        let base = data.as_mut_ptr() as *mut f64;
        let mut k = 0;
        // Two rows per iteration: gather the strided (k, k+1) column
        // elements into full ymm registers, rotate, scatter back.
        while k + 2 <= rows {
            let p0 = base.add(2 * (k * stride + p));
            let p1 = base.add(2 * ((k + 1) * stride + p));
            let q0 = base.add(2 * (k * stride + q));
            let q1 = base.add(2 * ((k + 1) * stride + q));
            let xv = _mm256_set_m128d(_mm_loadu_pd(p1), _mm_loadu_pd(p0));
            let yv = _mm256_set_m128d(_mm_loadu_pd(q1), _mm_loadu_pd(q0));
            let m = cmul(yv, ev);
            let w = cmul(xv, ecv);
            let xn = _mm256_sub_pd(_mm256_mul_pd(xv, cv), _mm256_mul_pd(m, sv));
            let yn = _mm256_add_pd(_mm256_mul_pd(w, sv), _mm256_mul_pd(yv, cv));
            _mm_storeu_pd(p0, _mm256_castpd256_pd128(xn));
            _mm_storeu_pd(p1, _mm256_extractf128_pd(xn, 1));
            _mm_storeu_pd(q0, _mm256_castpd256_pd128(yn));
            _mm_storeu_pd(q1, _mm256_extractf128_pd(yn, 1));
            k += 2;
        }
        if k < rows {
            let b = k * stride;
            let ec = e.conj();
            let x0 = data[b + p];
            let y0 = data[b + q];
            data[b + p] = x0.scale(c) - (e * y0).scale(s);
            data[b + q] = (ec * x0).scale(s) + y0.scale(c);
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
    // proves that at runtime. Every pointer offset below stays inside
    // the argument slices: the vector body covers whole pairs of
    // complexes and the odd tail is handled separately.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn butterflies(lo: &mut [Complex64], hi: &mut [Complex64], w: &[Complex64]) {
        let n = lo.len();
        let lp = lo.as_mut_ptr() as *mut f64;
        let hp = hi.as_mut_ptr() as *mut f64;
        let wp = w.as_ptr() as *const f64;
        let pairs = n / 2;
        for k in 0..pairs {
            let u = _mm256_loadu_pd(lp.add(4 * k));
            let hv = _mm256_loadu_pd(hp.add(4 * k));
            let wv = _mm256_loadu_pd(wp.add(4 * k));
            let v = cmul(hv, wv);
            _mm256_storeu_pd(lp.add(4 * k), _mm256_add_pd(u, v));
            _mm256_storeu_pd(hp.add(4 * k), _mm256_sub_pd(u, v));
        }
        if n % 2 == 1 {
            let u = lo[n - 1];
            let v = hi[n - 1] * w[n - 1];
            lo[n - 1] = u + v;
            hi[n - 1] = u - v;
        }
    }

    // SAFETY: callable only with AVX2 present — the level() dispatch
    // proves that at runtime. Every pointer offset below stays inside
    // the argument slices: the vector body covers whole pairs of
    // complexes and the odd tail is handled separately.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn focus_accumulate(
        h: &[Complex64],
        t1: &[Complex64],
        t2: &[Complex64],
    ) -> [Complex64; 4] {
        let n = h.len();
        // accf = [a1f, a2f], accr = [a1r, a2r]: lane pairing keeps each
        // accumulator's own (scalar) addition order.
        let mut accf = _mm256_setzero_pd();
        let mut accr = _mm256_setzero_pd();
        let t1p = t1.as_ptr() as *const f64;
        let t2p = t2.as_ptr() as *const f64;
        for i in 0..n {
            let hf = broadcast(*h.get_unchecked(i));
            let hr = broadcast(*h.get_unchecked(n - 1 - i));
            let tv = _mm256_set_m128d(_mm_loadu_pd(t2p.add(2 * i)), _mm_loadu_pd(t1p.add(2 * i)));
            accf = _mm256_add_pd(accf, cmul(tv, hf));
            accr = _mm256_add_pd(accr, cmul(tv, hr));
        }
        let mut out = [Complex64::ZERO; 4];
        let op = out.as_mut_ptr() as *mut f64;
        _mm256_storeu_pd(op, accf);
        _mm256_storeu_pd(op.add(4), accr);
        // accf layout: [a1f, a2f]; accr: [a1r, a2r] — already the
        // documented return order.
        out
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

                let (w, _) = vecs(n, 2000 + n as u64);
                let (mut los, mut his) = (x.clone(), y.clone());
                butterflies_scalar(&mut los, &mut his, &w);
                let (mut lov, mut hiv) = (x.clone(), y.clone());
                butterflies(&mut lov, &mut hiv, &w);
                assert_bits(&los, &lov, "butterfly lo");
                assert_bits(&his, &hiv, "butterfly hi");

                let fs = focus_accumulate_scalar(&x, &y, &w);
                let fv = focus_accumulate(&x, &y, &w);
                assert_bits(&fs, &fv, "focus");
            }
        }
    }

    #[test]
    fn strided_column_rotation_matches_scalar_bitwise() {
        let _guard = forced_guard();
        for forced in available_levels() {
            set_forced(Some(forced));
            for (rows, stride) in [(1usize, 4usize), (2, 4), (5, 7), (50, 50), (8, 3)] {
                let (data, _) = vecs(rows * stride, 31 * rows as u64 + stride as u64);
                let (p, q) = (0, stride - 1);
                let e = Complex64::cis(-1.3);
                let mut ds = data.clone();
                givens_rotate_cols_scalar(&mut ds, stride, p, q, 0.6, 0.8, e);
                let mut dv = data.clone();
                givens_rotate_cols(&mut dv, stride, p, q, 0.6, 0.8, e);
                assert_bits(&ds, &dv, "strided rotation");
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
