//! Property tests pinning the SIMD complex kernels to their scalar
//! references — the contract that lets the golden traces survive
//! vectorization.
//!
//! The container has no third-party crates, so instead of `proptest`
//! these drive each invariant over a deterministic [`Rng64`] sample
//! sweep. Every dispatched kernel is exercised at every SIMD level the
//! host supports, across odd lengths, unaligned sub-slices, and
//! denormal-adjacent magnitudes, and must match its scalar reference
//! **bitwise**: rotations, caxpy, outer-product rows, focus row sums,
//! the fused rotate-and-mirror, and the whole eigensolver end to end.
//!
//! The focus row sums are computed in single precision, so they have
//! two more oracles. A row-major loop written here from the kernel's
//! contract alone (the window rounded to `f32`, `f32` products, `f32`
//! runs of 16, `f64` run sums) must equal the scalar reference bit for
//! bit. The row-major `f64` loop the kernel replaced, run over the same
//! phasors widened back to `f64`, is the precision oracle: every sum
//! must lie within `c·2⁻²⁴·Σ_k |h_k|·|t_k|` of it, `c` derived below
//! from the run length. So must each cell's four directional sums,
//! assembled the way the imaging engine assembles them, against the
//! four-sum two-table `f64` loop before it.
//!
//! The eigensolver never computes the column half of a rotation outside
//! the 2×2 pivot block: it writes the conjugates of the freshly rotated
//! rows there, which reproduces the direct column update only while the
//! working matrix is Hermitian to the bit. A scalar textbook Jacobi
//! (column rotation, then row rotation, with the solver's angle, stop
//! rule, clamps and descending sort) keeps that direct update as the
//! reference, and the solver must match it on correlation matrices
//! accumulated the way the pipeline accumulates them. The solver reads
//! one triangle: a change below the diagonal within the Hermitian
//! tolerance must change no output bit. These 50 × 50 solves live here,
//! not among the `--lib` unit tests, which the Miri job runs.
//!
//! Forcing a SIMD level mutates process-global state, so every test
//! serializes on one mutex and restores auto-detection on drop.

use std::sync::{Mutex, MutexGuard, OnceLock};

use wivi_num::rng::Rng64;
use wivi_num::simd::{self, SimdLevel};
use wivi_num::{hermitian_eig, CMatrix, Complex64, HermitianEig, PhasorTable};

/// Serializes tests that force a global SIMD level.
fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Restores auto-detection when a forcing test exits (even on panic).
struct ForcedGuard;
impl Drop for ForcedGuard {
    fn drop(&mut self) {
        simd::set_forced(None);
    }
}

fn force(level: SimdLevel) -> ForcedGuard {
    simd::set_forced(Some(level));
    ForcedGuard
}

/// Every level the host can actually run (scalar always).
fn available_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    if simd::avx2_supported() {
        levels.push(SimdLevel::Avx2);
    }
    levels
}

/// Odd, prime, and power-of-two lengths: covers the vector body and the
/// scalar tail.
const LENGTHS: &[usize] = &[1, 2, 3, 5, 7, 8, 13, 31, 50, 64, 127, 255, 256, 257, 625];

/// Magnitude scales: normal-range values and denormal-adjacent ones
/// whose products underflow — SIMD lanes must flush identically to the
/// scalar loop (Rust never enables FTZ/DAZ).
const SCALES: &[f64] = &[1.0, 1e-300];

fn signal(rng: &mut Rng64, len: usize, scale: f64) -> Vec<Complex64> {
    (0..len)
        .map(|_| {
            Complex64::new(
                scale * rng.gen_range(-10.0, 10.0),
                scale * rng.gen_range(-10.0, 10.0),
            )
        })
        .collect()
}

fn assert_bits_eq(a: &[Complex64], b: &[Complex64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: element {i} drifted: {x:?} vs {y:?}"
        );
    }
}

/// Runs `op` once per (level, length, scale, alignment-offset) case,
/// handing it a fresh deterministic RNG so SIMD and scalar see the same
/// inputs.
fn sweep(scales: &[f64], mut op: impl FnMut(SimdLevel, usize, f64, usize, &mut Rng64)) {
    for &level in &available_levels() {
        for &len in LENGTHS {
            for &scale in scales {
                // Offset 1 breaks 32- and 64-byte vector alignment
                // (Complex64 keeps 16-byte alignment).
                for offset in [0usize, 1] {
                    let mut rng = Rng64::seed_from_u64(
                        0x51AD ^ (len as u64) << 16 ^ scale.to_bits() >> 32 ^ offset as u64,
                    );
                    op(level, len, scale, offset, &mut rng);
                }
            }
        }
    }
}

#[test]
fn givens_rotate_is_bitwise_scalar_at_every_level() {
    let _l = force_lock();
    sweep(SCALES, |level, len, scale, offset, rng| {
        let x0 = signal(rng, len + offset, scale);
        let y0 = signal(rng, len + offset, scale);
        let (c, s) = (rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0));
        let e = Complex64::new(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0));

        let (mut xs, mut ys) = (x0.clone(), y0.clone());
        simd::givens_rotate_scalar(&mut xs[offset..], &mut ys[offset..], c, s, e);

        let _g = force(level);
        let (mut xv, mut yv) = (x0, y0);
        simd::givens_rotate(&mut xv[offset..], &mut yv[offset..], c, s, e);
        let what = format!(
            "givens_rotate {} n={len} scale={scale:e} off={offset}",
            level.name()
        );
        assert_bits_eq(&xv, &xs, &what);
        assert_bits_eq(&yv, &ys, &what);
    });
}

#[test]
fn caxpy_and_outer_row_are_bitwise_scalar_at_every_level() {
    let _l = force_lock();
    sweep(SCALES, |level, len, scale, offset, rng| {
        let acc0 = signal(rng, len + offset, scale);
        let x = signal(rng, len + offset, scale);
        let a = Complex64::new(rng.gen_range(-2.0, 2.0), rng.gen_range(-2.0, 2.0));
        let s = rng.gen_range(0.0, 2.0);

        let mut acc_s = acc0.clone();
        simd::caxpy_scalar(&mut acc_s[offset..], &x[offset..], a);
        let mut row_s = acc0.clone();
        simd::accumulate_outer_row_scalar(&mut row_s[offset..], &x[offset..], a, s);

        let _g = force(level);
        let mut acc_v = acc0.clone();
        simd::caxpy(&mut acc_v[offset..], &x[offset..], a);
        let mut row_v = acc0;
        simd::accumulate_outer_row(&mut row_v[offset..], &x[offset..], a, s);
        let what = format!("{} n={len} scale={scale:e} off={offset}", level.name());
        assert_bits_eq(&acc_v, &acc_s, &format!("caxpy {what}"));
        assert_bits_eq(&row_v, &row_s, &format!("accumulate_outer_row {what}"));
    });
}

/// Window magnitudes for the focus kernel's bitwise pins: unit scale;
/// parts near `f32`'s smallest normal, so that products underflow into
/// its subnormals; and parts that round to zero in `f32`. Every level
/// must round, underflow and flush exactly as the scalar reference does
/// (Rust never enables FTZ/DAZ).
const FOCUS_BIT_SCALES: &[f64] = &[1.0, 1e-39, 1e-300];

/// Window magnitudes for the focus kernel's error bound, which assumes
/// the window and its products lie in `f32`'s normal range: unit scale,
/// and a small one still well inside that range.
const FOCUS_BOUND_SCALES: &[f64] = &[1.0, 1e-30];

/// Elements per `f32` run in the focus kernel's contract.
const RUN: usize = 16;

/// The focus error bound's constant, `|ΔS| ≤ c·2⁻²⁴·Σ_k |h_k|·|t_k|`
/// for every sum `S` against the exact (or the `f64`-loop) value. Each
/// part of a term `h_k·t_k` is rounded at most three times before it
/// joins its run (the window part to `f32`, its product with a phasor
/// part, the difference or sum of the two products), and then by the
/// run's `RUN − 1` additions: `RUN + 2` roundings of at most `2⁻²⁴`
/// of `|h_k|·|t_k|` each. One more `2⁻²⁴` bounds the second-order terms,
/// the `f64` additions of the run sums and the `f64` loop's own error
/// (about `n·2⁻⁵³`), for `n` up to 2²⁸. A complex error is at most `√2`
/// times its parts' common bound.
const FOCUS_C: f64 = std::f64::consts::SQRT_2 * (RUN + 3) as f64;

/// The two-table focus loop the row kernel replaced: both TX rows
/// stored, read forward, four sums per cell, all in `f64`.
fn two_table_focus(h: &[Complex64], t1: &[Complex64], t2: &[Complex64]) -> [Complex64; 4] {
    let n = h.len();
    let mut acc = [Complex64::ZERO; 4];
    for i in 0..n {
        let (hf, hr) = (h[i], h[n - 1 - i]);
        acc[0] += hf * t1[i];
        acc[1] += hf * t2[i];
        acc[2] += hr * t1[i];
        acc[3] += hr * t2[i];
    }
    acc
}

/// The row-major `f64` focus loop the single-precision kernel replaced,
/// over an `f64` table of `sums.len()` rows of `h.len()` phasors:
/// `[F, R]` per row, each in ascending `k`.
fn row_major_focus(h: &[Complex64], table: &[Complex64], sums: &mut [[Complex64; 2]]) {
    let n = h.len();
    for (i, out) in sums.iter_mut().enumerate() {
        let row = &table[i * n..(i + 1) * n];
        let (mut f, mut r) = (Complex64::ZERO, Complex64::ZERO);
        for ((&hf, &hr), &t) in h.iter().zip(h.iter().rev()).zip(row) {
            f += hf * t;
            r += hr * t;
        }
        *out = [f, r];
    }
}

/// The focus kernel's contract as a row-major loop, independent of the
/// block layout: the window rounded to `f32`, and per row, in ascending
/// `k`, the `f32` no-FMA products added in `f32` over runs of `RUN`
/// elements, each run's sum widened and added in `f64`.
fn f32_run_focus(h: &[Complex64], table: &[Complex64], sums: &mut [[Complex64; 2]]) {
    let n = h.len();
    let round = |z: Complex64| (z.re as f32, z.im as f32);
    let h32: Vec<(f32, f32)> = h.iter().map(|&z| round(z)).collect();
    for (i, out) in sums.iter_mut().enumerate() {
        let mut acc = [0.0f64; 4];
        for start in (0..n).step_by(RUN) {
            let mut run = [0.0f32; 4];
            for k in start..(start + RUN).min(n) {
                let ((fr, fi), (rr, ri)) = (h32[k], h32[n - 1 - k]);
                let (tr, ti) = round(table[i * n + k]);
                run[0] += fr * tr - fi * ti;
                run[1] += fr * ti + fi * tr;
                run[2] += rr * tr - ri * ti;
                run[3] += rr * ti + ri * tr;
            }
            for (a, r) in acc.iter_mut().zip(run) {
                *a += f64::from(r);
            }
        }
        *out = [
            Complex64::new(acc[0], acc[1]),
            Complex64::new(acc[2], acc[3]),
        ];
    }
}

/// A `rows × n` phasor table of `values` (row-major, each rounded to
/// `f32`), and the table's phasors widened back to a row-major `f64`
/// table.
fn phasor_table(values: &[Complex64], rows: usize, n: usize) -> (PhasorTable, Vec<Complex64>) {
    let mut table = PhasorTable::zeros(rows, n);
    for (i, &z) in values.iter().enumerate() {
        table.set(i / n, i % n, z);
    }
    let widened = (0..rows).flat_map(|r| table.row(r)).collect();
    (table, widened)
}

/// The focus kernel's `[F, R]` for every row of `table`, at the forced
/// `level`, through the public rounding step.
fn focus(level: SimdLevel, h: &[Complex64], table: &PhasorTable) -> Vec<[Complex64; 2]> {
    let mut pairs = vec![[0.0f32; 4]; h.len()];
    simd::focus_pairs(h, &mut pairs);
    let mut sums = vec![[Complex64::ZERO; 2]; table.rows()];
    let _g = force(level);
    simd::focus_rows(&pairs, table, &mut sums);
    sums
}

/// `Σ_k |a_k|·|b_k|`, the scale of a sum of the products `a_k·b_k`.
fn abs_mass<'a>(a: impl Iterator<Item = &'a Complex64>, b: &[Complex64]) -> f64 {
    a.zip(b).map(|(x, y)| x.abs() * y.abs()).sum()
}

/// Requires `got` within the focus error bound of `want`, the sum of
/// products with mass `mass`.
fn assert_focus_bound(got: Complex64, want: Complex64, mass: f64, what: &str) {
    let tol = FOCUS_C * (-24f64).exp2() * mass;
    assert!(
        (got - want).abs() <= tol,
        "{what}: {got:?} vs {want:?}: |Δ| {:e} over the bound {tol:e}",
        (got - want).abs()
    );
}

#[test]
fn focus_is_bitwise_scalar_at_every_level() {
    let _l = force_lock();
    // Row counts on both sides of the 8-row block, padded ones
    // included, and around the imaging grid's 448 cells; window lengths
    // with odd and even mirrors, on both sides of one and two 16-element
    // runs, and the paper's 625-sample aperture. The scalar reference
    // must equal the row-major f32-run loop, and the kernel at every
    // level the scalar reference, bit for bit.
    let row_counts: Vec<usize> = (1..=17).chain([447, 448, 449, 456]).collect();
    for n in [1usize, 2, 3, 15, 16, 17, 32, 33, 625] {
        for &rows in &row_counts {
            for &scale in FOCUS_BIT_SCALES {
                for offset in [0usize, 1] {
                    let mut rng = Rng64::seed_from_u64(
                        0xF0C5 ^ (n as u64) << 20 ^ (rows as u64) << 8 ^ offset as u64,
                    );
                    let h = signal(&mut rng, n + offset, scale);
                    let h = &h[offset..];
                    let (table, widened) = phasor_table(&signal(&mut rng, rows * n, 1.0), rows, n);
                    let mut want = vec![[Complex64::ZERO; 2]; rows + offset];
                    f32_run_focus(h, &widened, &mut want[offset..]);
                    let mut pairs = vec![[0.0f32; 4]; n + offset];
                    simd::focus_pairs(h, &mut pairs[offset..]);
                    let mut scalar = vec![[Complex64::ZERO; 2]; rows + offset];
                    simd::focus_rows_scalar(&pairs[offset..], &table, &mut scalar[offset..]);
                    let what = format!("n={n} rows={rows} scale={scale:e} off={offset}");
                    assert_bits_eq(
                        scalar.as_flattened(),
                        want.as_flattened(),
                        &format!("focus_rows_scalar {what}"),
                    );
                    for &level in &available_levels() {
                        let mut got = vec![[Complex64::ZERO; 2]; rows + offset];
                        let _g = force(level);
                        simd::focus_rows(&pairs[offset..], &table, &mut got[offset..]);
                        assert_bits_eq(
                            got.as_flattened(),
                            scalar.as_flattened(),
                            &format!("focus_rows {} {what}", level.name()),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn focus_stays_within_its_bound_of_the_f64_loop() {
    let _l = force_lock();
    // The kernel publishes the bound derived here.
    assert_eq!(simd::FOCUS_ERROR, FOCUS_C * (-24f64).exp2());
    // Random windows at both magnitude scales, and a window that
    // cancels against row 0 of a unit-phasor table (alternating signs
    // over that row's conjugates, jittered by 1e-3), where
    // |F| ≪ Σ|h|·|t| and the bound is all mass.
    const ROWS: usize = 9;
    for &len in LENGTHS {
        for &scale in FOCUS_BOUND_SCALES {
            for cancel in [false, true] {
                let mut rng = Rng64::seed_from_u64(0xB0D ^ (len as u64) << 8 ^ cancel as u64);
                let mut values = signal(&mut rng, ROWS * len, 1.0);
                let mut h = signal(&mut rng, len, scale);
                if cancel {
                    for z in &mut values {
                        *z = z.scale(1.0 / z.abs());
                    }
                    for (k, z) in h.iter_mut().enumerate() {
                        let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
                        let jitter = 1.0 + 1e-3 * (z.re / (10.0 * scale));
                        *z = values[k].conj().scale(sign * jitter * scale);
                    }
                }
                let (table, widened) = phasor_table(&values, ROWS, len);
                let mut want = vec![[Complex64::ZERO; 2]; ROWS];
                row_major_focus(&h, &widened, &mut want);
                for &level in &available_levels() {
                    let got = focus(level, &h, &table);
                    for r in 0..ROWS {
                        let row = &widened[r * len..(r + 1) * len];
                        let what = format!(
                            "{} n={len} scale={scale:e} cancel={cancel} row={r}",
                            level.name()
                        );
                        let f_mass = abs_mass(h.iter(), row);
                        if cancel && r == 0 && len >= 50 {
                            assert!(want[0][0].abs() < 1e-2 * f_mass, "{what}: no cancellation");
                        }
                        assert_focus_bound(got[r][0], want[r][0], f_mass, &format!("F {what}"));
                        let r_mass = abs_mass(h.iter().rev(), row);
                        assert_focus_bound(got[r][1], want[r][1], r_mass, &format!("R {what}"));
                    }
                }
            }
        }
    }
}

#[test]
fn assembled_focus_rows_match_the_two_table_loop() {
    let _l = force_lock();
    // A one-row grid of ten cells, cell c mirroring cell 9 − c: one
    // whole block and two rows of a padded one.
    const CELLS: usize = 10;
    sweep(FOCUS_BOUND_SCALES, |level, len, scale, offset, rng| {
        let h = signal(rng, len + offset, scale);
        let (table, widened) = phasor_table(&signal(rng, CELLS * len, 1.0), CELLS, len);
        let h = &h[offset..];
        let sums = focus(level, h, &table);
        for c in 0..CELLS {
            let m = CELLS - 1 - c;
            let t1 = &widened[c * len..(c + 1) * len];
            // The cell's TX-2 row is its mirror cell's row reversed.
            let t2: Vec<Complex64> = widened[m * len..(m + 1) * len]
                .iter()
                .rev()
                .copied()
                .collect();
            let [a1f, a2f, a1r, a2r] = two_table_focus(h, t1, &t2);
            let what = format!(
                "{} n={len} scale={scale:e} off={offset} cell={c}",
                level.name()
            );
            // F(c) and R(c) add the loop's products in its own order;
            // R(m) and F(m) add the same products in the opposite order.
            for (got, want, mass, name) in [
                (sums[c][0], a1f, abs_mass(h.iter(), t1), "a1f"),
                (sums[c][1], a1r, abs_mass(h.iter().rev(), t1), "a1r"),
                (sums[m][1], a2f, abs_mass(h.iter(), &t2), "a2f"),
                (sums[m][0], a2r, abs_mass(h.iter().rev(), &t2), "a2r"),
            ] {
                assert_focus_bound(got, want, mass, &format!("{name} {what}"));
            }
        }
    });
}

#[test]
fn fused_rotate_mirror_is_bitwise_scalar_at_every_level() {
    let _l = force_lock();
    for &level in &available_levels() {
        for &n in &[2usize, 3, 5, 8, 13, 50] {
            for &scale in SCALES {
                let mut rng = Rng64::seed_from_u64(0xF0CA ^ n as u64);
                let m0 = signal(&mut rng, n * n, scale);
                let (c, s) = (rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0));
                let e = Complex64::new(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0));
                for &(p, q) in &[(0, 1), (0, n - 1), (n / 2, n - 1)] {
                    if p >= q {
                        continue;
                    }
                    let mut ms = m0.clone();
                    simd::rotate_rows_mirror_scalar(&mut ms, n, p, q, c, s, e);

                    let _g = force(level);
                    let mut mv = m0.clone();
                    simd::rotate_rows_mirror(&mut mv, n, p, q, c, s, e);
                    assert_bits_eq(
                        &mv,
                        &ms,
                        &format!(
                            "rotate_rows_mirror {} n={n} p={p} q={q} scale={scale:e}",
                            level.name()
                        ),
                    );
                }
            }
        }
    }
}

#[test]
fn whole_eigensolver_is_bitwise_identical_at_every_level() {
    let _l = force_lock();
    for &n in &[5usize, 13, 50] {
        let mut rng = Rng64::seed_from_u64(0xE16 ^ n as u64);
        let a = CMatrix::from_fn(n, n, |_, _| {
            Complex64::new(rng.gen_range(-10.0, 10.0), rng.gen_range(-10.0, 10.0))
        });
        // (A + A^H)/2 is bit-Hermitian: both (i,j) and (j,i) fold the
        // same two values through one commuting add, as in the
        // correlation matrices the pipeline builds.
        let mut h = &a + &a.hermitian();
        h.scale_mut(0.5);

        let reference = {
            let _g = force(SimdLevel::Scalar);
            hermitian_eig(&h)
        };
        for &level in &available_levels()[1..] {
            let _g = force(level);
            let got = hermitian_eig(&h);
            for (i, (ev_ref, ev_got)) in reference.values.iter().zip(&got.values).enumerate() {
                assert_eq!(
                    ev_ref.to_bits(),
                    ev_got.to_bits(),
                    "eigenvalue {i} drifted at {} (n={n})",
                    level.name()
                );
            }
            assert_bits_eq(
                got.vectors.as_slice(),
                reference.vectors.as_slice(),
                &format!("eigenvectors at {} (n={n})", level.name()),
            );
        }
    }
}

/// `Σ k·v·v^H` over `count` random vectors of magnitude ~`scale`, with
/// `k = 1/count`: the correlation matrices `hermitian_eig` serves, built
/// through the same `add_outer` step.
fn correlation(n: usize, count: usize, scale: f64, seed: u64) -> CMatrix {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut r = CMatrix::zeros(n, n);
    for _ in 0..count {
        let v: Vec<Complex64> = (0..n)
            .map(|_| {
                Complex64::new(
                    scale * rng.gen_range(-1.0, 1.0),
                    scale * rng.gen_range(-1.0, 1.0),
                )
            })
            .collect();
        r.add_outer(&v, 1.0 / count as f64);
    }
    r
}

/// `A ← A·V` on columns `p` and `q`, every row:
/// `a[k][p] = akp·c − (e⁻·akq)·s`, `a[k][q] = (e⁺·akp)·s + akq·c`.
fn rotate_cols(a: &mut CMatrix, p: usize, q: usize, c: f64, s: f64, e_neg: Complex64) {
    let e_pos = e_neg.conj();
    for k in 0..a.rows() {
        let (akp, akq) = (a[(k, p)], a[(k, q)]);
        a[(k, p)] = akp.scale(c) - (e_neg * akq).scale(s);
        a[(k, q)] = (e_pos * akp).scale(s) + akq.scale(c);
    }
}

/// The textbook cyclic Jacobi the solver must reproduce: the solver's
/// stop rule (`MAX_SWEEPS` = 64, off-diagonal norm against
/// `1e-14·(1 + ‖A‖_F)·n`), pivot skip, angle, clamps and stable
/// descending sort, with the column half of every rotation computed
/// directly and `U` kept untransposed.
fn textbook_eig(a: &CMatrix) -> HermitianEig {
    let n = a.rows();
    let tol = 1e-14 * (1.0 + a.frobenius_norm());
    let mut m = a.clone();
    let mut u = CMatrix::identity(n);
    for _sweep in 0..64 {
        if m.off_diagonal_energy().sqrt() <= tol * n as f64 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                let r = apq.abs();
                if r <= tol {
                    continue;
                }
                let (alpha, beta) = (m[(p, p)].re, m[(q, q)].re);
                let tau = (beta - alpha) / (2.0 * r);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                let e_pos = Complex64::cis(apq.arg());
                let e_neg = e_pos.conj();

                rotate_cols(&mut m, p, q, c, s, e_neg);
                // A ← V^H·A on rows p and q, every column.
                for k in 0..n {
                    let (apk, aqk) = (m[(p, k)], m[(q, k)]);
                    m[(p, k)] = apk.scale(c) - (e_pos * aqk).scale(s);
                    m[(q, k)] = (e_neg * apk).scale(s) + aqk.scale(c);
                }
                m[(p, q)] = Complex64::ZERO;
                m[(q, p)] = Complex64::ZERO;
                m[(p, p)] = Complex64::from_re(m[(p, p)].re);
                m[(q, q)] = Complex64::from_re(m[(q, q)].re);
                rotate_cols(&mut u, p, q, c, s, e_neg);
            }
        }
    }
    let lambdas: Vec<f64> = (0..n).map(|i| m[(i, i)].re).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| lambdas[j].partial_cmp(&lambdas[i]).unwrap());
    HermitianEig {
        values: order.iter().map(|&i| lambdas[i]).collect(),
        vectors: CMatrix::from_fn(n, n, |r, c| u[(r, order[c])]),
    }
}

fn assert_same_eig(got: &HermitianEig, want: &HermitianEig, what: &str) {
    for (i, (g, w)) in got.values.iter().zip(&want.values).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: eigenvalue {i}: {g} vs {w}"
        );
    }
    assert_bits_eq(
        got.vectors.as_slice(),
        want.vectors.as_slice(),
        &format!("{what}: eigenvectors"),
    );
}

/// Sizes around the pipeline's w′ = 50, each with fewer and with more
/// outer products than its dimension, at unit and small magnitude.
fn cases() -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    for n in [5usize, 13, 20, 50] {
        for count in [1, n / 2, n - 1, n + 1, 3 * n] {
            for scale in [1.0, 1e-4] {
                out.push((n, count, scale));
            }
        }
    }
    out
}

#[test]
fn solver_equals_the_textbook_loop_bitwise_at_every_level() {
    let _l = force_lock();
    for (i, (n, count, scale)) in cases().into_iter().enumerate() {
        let a = correlation(n, count, scale, 0x7AC0 + i as u64);
        let want = textbook_eig(&a);
        for &level in &available_levels() {
            let _g = force(level);
            let got = hermitian_eig(&a);
            assert_same_eig(
                &got,
                &want,
                &format!("{} n={n} count={count} scale={scale:e}", level.name()),
            );
        }
    }
}

#[test]
fn an_ulp_below_the_diagonal_changes_no_bit() {
    let _l = force_lock();
    for n in [5usize, 13, 50] {
        let a = correlation(n, n + 1, 1.0, 0x0E1F + n as u64);
        let reference = hermitian_eig(&a);
        // One strictly lower entry at a time, its real or its imaginary
        // part one ulp up: still Hermitian within tolerance, but not to
        // the bit.
        for (r, c, imag) in [(n - 1, 0, false), (1, 0, true), (n - 1, n - 2, false)] {
            let mut b = a.clone();
            let z = b[(r, c)];
            let bump = |x: f64| f64::from_bits(x.to_bits() + 1);
            b[(r, c)] = if imag {
                Complex64::new(z.re, bump(z.im))
            } else {
                Complex64::new(bump(z.re), z.im)
            };
            assert!(b != a, "the perturbation must change the input");
            for &level in &available_levels() {
                let _g = force(level);
                assert_same_eig(
                    &hermitian_eig(&b),
                    &reference,
                    &format!("{} n={n} entry ({r},{c}) imag={imag}", level.name()),
                );
            }
        }
    }
}
