//! Microbenchmarks for the dispatched complex kernels in
//! [`wivi_num::simd`].
//!
//! Each kernel is timed at every dispatch level the running CPU supports
//! (scalar reference, AVX2), on the buffer sizes the pipeline actually
//! uses: length-50 Jacobi rows, the 50×50 correlation matrix, the
//! 181-angle MUSIC grid, the 625-sample imaging aperture, the 64-point
//! OFDM FFT. The levels are forced through
//! [`wivi_num::simd::set_forced`], so one process measures all paths.
//! `cargo bench -p wivi-bench` prints the resulting per-level table.

use std::hint::black_box;
use std::time::Instant;

use wivi_core::isar::IsarConfig;
use wivi_num::eig::{hermitian_eig_in, EigWorkspace};
use wivi_num::rng::Rng64;
use wivi_num::{simd, CMatrix, Complex64, FftPlan};

/// Side of the Jacobi working matrix (the MUSIC subarray dimension).
pub const EIG_N: usize = 50;
/// Imaging aperture length (focus correlation window).
pub const APERTURE: usize = 625;
/// OFDM FFT size.
pub const FFT_N: usize = 64;

/// ns/op of one kernel at every level measured, in measurement order
/// (scalar first).
#[derive(Clone, Debug)]
pub struct KernelTiming {
    /// Kernel name with its benchmarked size, e.g. `"caxpy_181"`.
    pub kernel: String,
    /// `(level name, ns per op)` pairs, scalar first.
    pub ns_per_op: Vec<(String, f64)>,
}

impl KernelTiming {
    /// ns/op of the scalar reference.
    pub fn scalar_ns(&self) -> f64 {
        self.ns_per_op
            .iter()
            .find(|(l, _)| l == "scalar")
            .map(|(_, ns)| *ns)
            .unwrap_or(f64::NAN)
    }

    /// Best (lowest) ns/op across all levels.
    pub fn best(&self) -> (&str, f64) {
        self.ns_per_op
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(l, ns)| (l.as_str(), *ns))
            .unwrap_or(("scalar", f64::NAN))
    }

    /// Scalar-to-best speedup factor.
    pub fn speedup(&self) -> f64 {
        self.scalar_ns() / self.best().1
    }
}

/// The full kernels report: one [`KernelTiming`] per kernel plus the
/// CPU capability snapshot.
#[derive(Clone, Debug)]
pub struct KernelsReport {
    pub timings: Vec<KernelTiming>,
    /// Dispatch level auto-detection resolves to in this process.
    pub auto_level: String,
    pub avx2: bool,
}

fn cvec(n: usize, rng: &mut Rng64) -> Vec<Complex64> {
    (0..n)
        .map(|_| Complex64::new(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0)))
        .collect()
}

/// Times `reps` calls of `f` after a short warmup, returning ns/call.
fn time_ns<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    for _ in 0..reps / 10 + 1 {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_nanos() as f64 / reps as f64
}

/// The levels this CPU can execute, scalar first.
fn levels() -> Vec<simd::SimdLevel> {
    let mut out = vec![simd::SimdLevel::Scalar];
    if simd::avx2_supported() {
        out.push(simd::SimdLevel::Avx2);
    }
    out
}

/// Runs every kernel × level combination and returns the report.
/// Restores auto-detection before returning. `quick` shrinks rep counts
/// ~8× for iterating.
pub fn run_kernels_bench(quick: bool) -> KernelsReport {
    let div = if quick { 8 } else { 1 };
    let mut rng = Rng64::seed_from_u64(0xBEEF);

    // Shared inputs, realistic sizes.
    let row_a = cvec(EIG_N, &mut rng);
    let row_b = cvec(EIG_N, &mut rng);
    let ap_a = cvec(APERTURE, &mut rng);
    let ap_b = cvec(APERTURE, &mut rng);
    let ap_c = cvec(APERTURE, &mut rng);
    let n_angles = IsarConfig::wivi_default().n_angles;
    let grid_a = cvec(n_angles, &mut rng);
    let grid_b = cvec(n_angles, &mut rng);
    let e = Complex64::cis(0.7);
    let a = Complex64::new(0.3, -1.2);

    // A bit-Hermitian correlation matrix (the mirror fast path) built the
    // way the pipeline builds one: rank-1 outer-product accumulation.
    let mut corr = CMatrix::zeros(EIG_N, EIG_N);
    for _ in 0..3 * EIG_N {
        let v = cvec(EIG_N, &mut rng);
        corr.add_outer(&v, 1.0 / (3 * EIG_N) as f64);
    }
    let plan = FftPlan::new(FFT_N);
    let fft_buf = cvec(FFT_N, &mut rng);

    let mut timings: Vec<KernelTiming> = Vec::new();
    let mut bench = |kernel: &str, reps: usize, run: &mut dyn FnMut()| {
        let mut ns = Vec::new();
        for level in levels() {
            simd::set_forced(Some(level));
            ns.push((level.name().to_string(), time_ns(&mut *run, reps / div)));
        }
        simd::set_forced(None);
        timings.push(KernelTiming {
            kernel: kernel.to_string(),
            ns_per_op: ns,
        });
    };

    // caxpy over one steering-table row (the MUSIC projection shape).
    bench(&format!("caxpy_{n_angles}"), 400_000, &mut {
        let (mut acc, x) = (grid_a.clone(), grid_b.clone());
        move || {
            simd::caxpy(black_box(&mut acc), black_box(&x), a);
        }
    });

    // Givens rotation of one Jacobi row pair (rotations are unitary, so
    // repeated application stays bounded).
    bench(&format!("givens_rotate_{EIG_N}"), 400_000, &mut {
        let (mut x, mut y) = (row_a.clone(), row_b.clone());
        move || {
            simd::givens_rotate(black_box(&mut x), black_box(&mut y), 0.8, 0.6, e);
        }
    });

    // The fused Jacobi pivot update on the full working matrix.
    bench(
        &format!("rotate_rows_mirror_{EIG_N}x{EIG_N}"),
        200_000,
        &mut {
            let mut m = corr.clone();
            move || {
                simd::rotate_rows_mirror(black_box(m.as_mut_slice()), EIG_N, 3, 29, 0.8, 0.6, e);
            }
        },
    );

    // One correlation row accumulation.
    bench(&format!("accumulate_outer_row_{EIG_N}"), 400_000, &mut {
        let (mut row, v) = (row_a.clone(), row_b.clone());
        move || {
            simd::accumulate_outer_row(black_box(&mut row), black_box(&v), a, 0.25);
        }
    });

    // Planned 64-point FFT round trip (forward + normalized inverse keeps
    // the buffer bounded across reps).
    bench(&format!("fft_roundtrip_{FFT_N}"), 100_000, &mut {
        let mut buf = fft_buf.clone();
        move || {
            plan.forward(black_box(&mut buf));
            plan.inverse(black_box(&mut buf));
        }
    });

    // The imaging focus correlation (4 accumulators over the aperture).
    bench(&format!("focus_accumulate_{APERTURE}"), 100_000, &mut {
        let (h, t1, t2) = (ap_a.clone(), ap_b.clone(), ap_c.clone());
        move || {
            black_box(simd::focus_accumulate(
                black_box(&h),
                black_box(&t1),
                black_box(&t2),
            ));
        }
    });

    // The full eigensolve — the composite the pipeline actually feels.
    bench(&format!("hermitian_eig_{EIG_N}x{EIG_N}"), 200, &mut {
        let corr = corr.clone();
        let mut ws = EigWorkspace::new(EIG_N);
        move || {
            hermitian_eig_in(black_box(&corr), &mut ws);
        }
    });

    KernelsReport {
        timings,
        auto_level: simd::level().name().to_string(),
        avx2: simd::avx2_supported(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_bench_runs_and_reports_every_level() {
        let report = run_kernels_bench(true);
        assert!(!report.timings.is_empty());
        let n_levels = levels().len();
        for t in &report.timings {
            assert_eq!(t.ns_per_op.len(), n_levels, "{}", t.kernel);
            assert_eq!(t.ns_per_op[0].0, "scalar");
            for (_, ns) in &t.ns_per_op {
                assert!(ns.is_finite() && *ns > 0.0, "{}: bad timing {ns}", t.kernel);
            }
            assert!(t.speedup().is_finite(), "{}", t.kernel);
        }
        // Auto-detection is restored after the forced sweeps.
        assert_eq!(
            simd::level().name(),
            report.auto_level,
            "bench must restore auto dispatch"
        );
    }
}
