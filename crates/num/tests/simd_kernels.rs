//! Property tests pinning the SIMD complex kernels to their scalar
//! references — the contract that lets the golden traces survive
//! vectorization.
//!
//! The container has no third-party crates, so instead of `proptest`
//! these drive each invariant over a deterministic [`Rng64`] sample
//! sweep. Every dispatched kernel is exercised at every SIMD level the
//! host supports, across odd lengths, unaligned sub-slices, and
//! denormal-adjacent magnitudes, and must match its scalar reference
//! **bitwise**: rotations, caxpy, outer-product rows, focus sums, the
//! fused rotate-and-mirror, and the whole eigensolver end to end. The
//! focus sums are also pinned to the two-table formula they replaced.
//!
//! Forcing a SIMD level mutates process-global state, so every test
//! serializes on one mutex and restores auto-detection on drop.

use std::sync::{Mutex, MutexGuard, OnceLock};

use wivi_num::rng::Rng64;
use wivi_num::simd::{self, SimdLevel};
use wivi_num::{hermitian_eig, CMatrix, Complex64};

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
fn sweep(mut op: impl FnMut(SimdLevel, usize, f64, usize, &mut Rng64)) {
    for &level in &available_levels() {
        for &len in LENGTHS {
            for &scale in SCALES {
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
    sweep(|level, len, scale, offset, rng| {
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
    sweep(|level, len, scale, offset, rng| {
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

/// The two-table focus loop the kernel replaced: both TX rows stored,
/// read forward.
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

#[test]
fn focus_is_bitwise_scalar_at_every_level() {
    let _l = force_lock();
    sweep(|level, len, scale, offset, rng| {
        let h = signal(rng, len + offset, scale);
        let t1 = signal(rng, len + offset, 1.0);
        let m = signal(rng, len + offset, 1.0);
        let focus_s = simd::focus_accumulate_scalar(&h[offset..], &t1[offset..], &m[offset..]);
        // Reading the mirror row backwards is the two-table formula on
        // the reversed row, bit for bit.
        let t2: Vec<Complex64> = m[offset..].iter().rev().copied().collect();
        let what = format!("{} n={len} scale={scale:e} off={offset}", level.name());
        assert_bits_eq(
            &focus_s,
            &two_table_focus(&h[offset..], &t1[offset..], &t2),
            &format!("two-table focus {what}"),
        );

        let _g = force(level);
        let focus_v = simd::focus_accumulate(&h[offset..], &t1[offset..], &m[offset..]);
        assert_bits_eq(&focus_v, &focus_s, &format!("focus_accumulate {what}"));
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
        // same two values through one commuting add, so the mirror
        // fast path engages exactly as it does on real correlation
        // matrices.
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
