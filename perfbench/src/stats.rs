//! The benchmark's metric math: percentiles and the tail rule, failure
//! accounting, and the eigendecomposition residual that exposes a
//! Jacobi solve which stopped before converging.

use wivi_num::{CMatrix, Complex64};

/// Samples a latency needs before its p99 is reported: at least ten
/// samples must lie beyond the percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Residual ([`eig_residual`]) above which a replayed window counts as
/// unconverged: 20× the point where the cyclic Jacobi solver of a
/// 50 × 50 matrix stops (off-diagonal norm ≤ 50 · 1e-14 on the same
/// scale). Converged solves of the tracking grid's windows measure
/// 1e-13 to 5e-13.
pub const EIG_RESIDUAL_TOL: f64 = 1e-11;

/// `num / den`, or 0 when nothing was measured (`den` ≤ 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The mean of the samples (0 for none).
pub fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// splitmix64 of `a` and `b`: derives every trial and session seed
/// from the workload seed, decorrelating neighbouring indices.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `p`-th percentile (0–100) by linear interpolation between the
/// closest ranks of the sorted samples; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (rank - lo as f64) * (v[hi] - v[lo])
}

/// The median of the samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The `p`-th percentile of time-ordered samples, robust to a passing
/// disturbance: the samples are cut into consecutive chunks just large
/// enough that each chunk supports the percentile, and the median of
/// the chunk percentiles is returned. With too few samples for two
/// chunks it is the plain percentile.
pub fn chunked_percentile(samples: &[f64], p: u32) -> f64 {
    let chunk = min_samples_for(p);
    if samples.len() < 2 * chunk {
        return percentile(samples, f64::from(p));
    }
    let k = samples.len() / chunk;
    let per: Vec<f64> = (0..k)
        .map(|i| {
            let lo = i * samples.len() / k;
            let hi = (i + 1) * samples.len() / k;
            percentile(&samples[lo..hi], f64::from(p))
        })
        .collect();
    median(&per)
}

/// The fewest samples that put [`MIN_TAIL_SAMPLES`] beyond the `p`-th
/// percentile (1000 for p99).
pub fn min_samples_for(p: u32) -> usize {
    (1..)
        .find(|&n| supports_percentile(n, p))
        .expect("some n supports p < 100")
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile's
/// rank: `n − ⌈n·p/100⌉`, in exact integer arithmetic for whole `p`.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    n - (n * p as usize).div_ceil(100)
}

/// `true` when `n` samples support reporting the `p`-th percentile.
pub fn supports_percentile(n: usize, p: u32) -> bool {
    samples_beyond(n, p) >= MIN_TAIL_SAMPLES
}

/// Operations attempted and failed in one run. A failure is anything a
/// user would see as a missing or wrong result: a shed or refused
/// request, an ERROR frame, a lost or short output, or a failed output
/// check. Each failure keeps its reason for the run's log.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation that failed, for `reason`.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 20 {
            self.reasons.push(reason.into());
        }
    }

    /// Records a check that is not itself an operation (a start-up
    /// comparison): only a failing check is counted, as one failed
    /// operation.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.fail(reason());
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Why a served session did not deliver a full output, if it did not:
/// the output must exist and carry every sample the session requested.
pub fn output_shortfall(id: u64, output: Option<&wivi_serve::wire::WireOutput>) -> Option<String> {
    match output {
        None => Some(format!("session {id}: no OUTPUT")),
        Some(o) if o.closed_early || o.n_samples != o.n_requested => Some(format!(
            "session {id}: short output {}/{} samples",
            o.n_samples, o.n_requested
        )),
        Some(_) => None,
    }
}

/// The reconstruction residual of an eigendecomposition,
/// `‖R − Σᵢ λᵢ vᵢvᵢᴴ‖_F / (1 + ‖R‖_F)`, with `vᵢ` column `i` of
/// `vectors`. The denominator is the scale the Jacobi solver's own stop
/// rule uses: a nulled channel's correlation has `‖R‖_F` near 1e-6, so
/// a residual relative to `‖R‖_F` alone reads 1e-7 to 1e-4 on windows
/// the solver considers converged.
pub fn eig_residual(r: &CMatrix, values: &[f64], vectors: &CMatrix) -> f64 {
    let n = r.rows();
    let mut rebuilt = CMatrix::zeros(n, n);
    for (i, &lambda) in values.iter().enumerate() {
        rebuilt.add_outer(&vectors.col(i), lambda);
    }
    let mut diff = 0.0;
    for row in 0..n {
        for col in 0..n {
            let d: Complex64 = r[(row, col)] - rebuilt[(row, col)];
            diff += d.norm_sqr();
        }
    }
    diff.sqrt() / (1.0 + r.frobenius_norm())
}

/// Peak resident set size of this process, MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wivi_num::{hermitian_eig, Rng64};

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 25.0) - 1.75).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn chunked_percentile_ignores_a_disturbed_chunk() {
        assert_eq!(min_samples_for(99), 1000);
        assert_eq!(min_samples_for(50), 20);
        // Three chunks of 1000; the middle one is disturbed throughout.
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[1000..2000] {
            *x += 1000.0;
        }
        let plain = percentile(&v, 99.0);
        assert!(plain > 1000.0, "one bad chunk owns the plain p99: {plain}");
        let robust = chunked_percentile(&v, 99);
        assert!((robust - percentile(&v[..1000], 99.0)).abs() < 1e-12);
        // Below two chunks it is the plain percentile.
        assert_eq!(
            chunked_percentile(&v[..1999], 99),
            percentile(&v[..1999], 99.0)
        );
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 99), 10);
        assert!(supports_percentile(1000, 99));
        assert_eq!(samples_beyond(999, 99), 9);
        assert!(!supports_percentile(999, 99));
        assert_eq!(samples_beyond(1009, 99), 10);
        assert!(supports_percentile(20, 50));
        assert!(!supports_percentile(19, 50));
        assert_eq!(samples_beyond(0, 99), 0);
    }

    fn wire_output(
        n_requested: u64,
        n_samples: u64,
        closed_early: bool,
    ) -> wivi_serve::wire::WireOutput {
        wivi_serve::wire::WireOutput {
            id: 1,
            shard: 0,
            mode: "count".into(),
            start_s: 0.0,
            n_requested,
            n_samples,
            n_columns: 0,
            closed_early,
            nulling_db: 40.0,
            events: Vec::new(),
            payload: Vec::new(),
        }
    }

    #[test]
    fn failed_frac_counts_shed_error_and_short_outputs() {
        let mut t = Tally::default();
        t.ok();
        t.ok();
        // A shed OPEN and an ERROR frame are failures of their request.
        t.fail("session 3: shed (overloaded)");
        t.fail("session 4: ERROR unknown_scene");
        // Output checks: missing, short, and cut-short outputs fail.
        for (id, out) in [
            (5, None),
            (6, Some(wire_output(125, 112, false))),
            (7, Some(wire_output(125, 125, true))),
            (8, Some(wire_output(125, 125, false))),
        ] {
            match output_shortfall(id, out.as_ref()) {
                Some(why) => t.fail(why),
                None => t.ok(),
            }
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(t.failed, 5);
        assert!((t.failed_frac() - 5.0 / 8.0).abs() < 1e-15);
        assert!(t.reasons[2].contains("no OUTPUT"));
        assert!(t.reasons[3].contains("112/125"));

        // A passing check is not an operation; a failing one counts once.
        let mut c = Tally::default();
        c.check(true, || unreachable!());
        assert_eq!((c.attempted, c.failed), (0, 0));
        c.check(false, || "mismatch".into());
        assert_eq!((c.attempted, c.failed), (1, 1));
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    /// A random Hermitian positive semi-definite matrix, like a smoothed
    /// correlation.
    fn correlation(n: usize, seed: u64) -> CMatrix {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut r = CMatrix::zeros(n, n);
        for _ in 0..2 * n {
            let v: Vec<Complex64> = (0..n)
                .map(|_| Complex64::new(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0)))
                .collect();
            r.add_outer(&v, 1.0);
        }
        r
    }

    #[test]
    fn residual_accepts_a_converged_solve_and_flags_an_unconverged_one() {
        let r = correlation(12, 5);
        let eig = hermitian_eig(&r);
        let converged = eig_residual(&r, &eig.values, &eig.vectors);
        assert!(
            converged < EIG_RESIDUAL_TOL,
            "converged residual {converged}"
        );

        // A solve stopped before its first sweep: the identity as
        // eigenvectors and the diagonal as eigenvalues — what a Jacobi
        // loop cut off at its sweep cap leaves behind.
        let diag: Vec<f64> = (0..12).map(|i| r[(i, i)].re).collect();
        let stopped = eig_residual(&r, &diag, &CMatrix::identity(12));
        assert!(stopped > EIG_RESIDUAL_TOL, "unconverged residual {stopped}");

        // One sweep's worth of damage: a single perturbed eigenvector.
        let mut v = eig.vectors.clone();
        v[(0, 0)] += Complex64::new(1e-4, 0.0);
        assert!(eig_residual(&r, &eig.values, &v) > EIG_RESIDUAL_TOL);

        // At a nulled channel's scale the same holds.
        let mut tiny = r.clone();
        tiny.scale_mut(1e-6);
        let eig = hermitian_eig(&tiny);
        assert!(eig_residual(&tiny, &eig.values, &eig.vectors) < EIG_RESIDUAL_TOL);
        let diag: Vec<f64> = (0..12).map(|i| tiny[(i, i)].re).collect();
        assert!(eig_residual(&tiny, &diag, &CMatrix::identity(12)) > EIG_RESIDUAL_TOL);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
