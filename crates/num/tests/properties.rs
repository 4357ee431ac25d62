//! Property-style tests for the numerics substrate.
//!
//! The container has no third-party crates, so instead of `proptest` these
//! drive each invariant over a deterministic [`Rng64`] sample sweep — same
//! properties, reproducible cases.

use wivi_num::rng::Rng64;
use wivi_num::{fft, hermitian_eig, CMatrix, Complex64};

const CASES: u64 = 64;

fn random_complex(rng: &mut Rng64) -> Complex64 {
    Complex64::new(rng.gen_range(-10.0, 10.0), rng.gen_range(-10.0, 10.0))
}

fn random_signal(rng: &mut Rng64, len: usize) -> Vec<Complex64> {
    (0..len).map(|_| random_complex(rng)).collect()
}

fn random_hermitian(rng: &mut Rng64, n: usize) -> CMatrix {
    let a = CMatrix::from_fn(n, n, |_, _| random_complex(rng));
    // (A + A^H)/2 is Hermitian for any A.
    let mut h = &a + &a.hermitian();
    h.scale_mut(0.5);
    h
}

#[test]
fn fft_ifft_round_trip() {
    let mut rng = Rng64::seed_from_u64(101);
    for _ in 0..CASES {
        let x = random_signal(&mut rng, 64);
        let y = fft::ifft_owned(&fft::fft_owned(&x));
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }
}

#[test]
fn fft_preserves_energy() {
    let mut rng = Rng64::seed_from_u64(102);
    for _ in 0..CASES {
        let x = random_signal(&mut rng, 32);
        let time: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq: f64 = fft::fft_owned(&x).iter().map(|z| z.norm_sqr()).sum::<f64>() / 32.0;
        assert!((time - freq).abs() <= 1e-9 * (1.0 + time));
    }
}

#[test]
fn fft_is_linear() {
    let mut rng = Rng64::seed_from_u64(103);
    for _ in 0..CASES {
        let x = random_signal(&mut rng, 16);
        let y = random_signal(&mut rng, 16);
        let k = rng.gen_range(-5.0, 5.0);
        let lhs: Vec<Complex64> = x.iter().zip(&y).map(|(a, b)| *a + b.scale(k)).collect();
        let f_lhs = fft::fft_owned(&lhs);
        let fx = fft::fft_owned(&x);
        let fy = fft::fft_owned(&y);
        for i in 0..16 {
            assert!((f_lhs[i] - (fx[i] + fy[i].scale(k))).abs() < 1e-8);
        }
    }
}

#[test]
fn eig_reconstructs_hermitian() {
    let mut rng = Rng64::seed_from_u64(104);
    for case in 0..CASES {
        let a = random_hermitian(&mut rng, 6);
        let e = hermitian_eig(&a);
        let err = (&e.reconstruct() - &a).frobenius_norm();
        assert!(
            err < 1e-8 * (1.0 + a.frobenius_norm()),
            "case {case}: err {err}"
        );
    }
}

#[test]
fn eig_vectors_orthonormal() {
    let mut rng = Rng64::seed_from_u64(105);
    for _ in 0..CASES {
        let a = random_hermitian(&mut rng, 5);
        let e = hermitian_eig(&a);
        let gram = &e.vectors.hermitian() * &e.vectors;
        assert!((&gram - &CMatrix::identity(5)).frobenius_norm() < 1e-8);
    }
}

#[test]
fn eig_values_sorted_and_real_trace_preserved() {
    let mut rng = Rng64::seed_from_u64(106);
    for _ in 0..CASES {
        let a = random_hermitian(&mut rng, 5);
        let e = hermitian_eig(&a);
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        let trace: f64 = (0..5).map(|i| a[(i, i)].re).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-8 * (1.0 + trace.abs()));
    }
}

#[test]
fn complex_field_axioms() {
    let mut rng = Rng64::seed_from_u64(107);
    for _ in 0..CASES {
        let a = random_complex(&mut rng);
        let b = random_complex(&mut rng);
        let c = random_complex(&mut rng);
        // Distributivity and associativity within numeric tolerance.
        assert!(
            ((a + b) * c - (a * c + b * c)).abs() < 1e-9 * (1.0 + c.abs() * (a.abs() + b.abs()))
        );
        assert!(((a * b) * c - a * (b * c)).abs() < 1e-9 * (1.0 + a.abs() * b.abs() * c.abs()));
        // |ab| = |a||b|.
        assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9 * (1.0 + a.abs() * b.abs()));
    }
}

#[test]
fn percentile_is_monotone() {
    let mut rng = Rng64::seed_from_u64(108);
    for _ in 0..CASES {
        let len = 3 + rng.gen_below(37) as usize;
        let mut xs: Vec<f64> = (0..len).map(|_| rng.gen_range(-100.0, 100.0)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p1 = rng.gen_range(0.0, 100.0);
        let p2 = rng.gen_range(0.0, 100.0);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = wivi_num::stats::percentile(&xs, lo);
        let b = wivi_num::stats::percentile(&xs, hi);
        assert!(a <= b + 1e-12);
    }
}

#[test]
fn cdf_bounds_and_monotonicity() {
    let mut rng = Rng64::seed_from_u64(109);
    for _ in 0..CASES {
        let len = 1 + rng.gen_below(49) as usize;
        let xs: Vec<f64> = (0..len).map(|_| rng.gen_range(-50.0, 50.0)).collect();
        let q = rng.next_f64();
        let cdf = wivi_num::stats::Cdf::new(&xs);
        let v = cdf.quantile(q);
        assert!(v >= cdf.min() - 1e-12 && v <= cdf.max() + 1e-12);
        assert!(cdf.eval(cdf.min() - 1.0) == 0.0);
        assert!(cdf.eval(cdf.max()) == 1.0);
    }
}

/// Brute-force optimal assignment: enumerate every per-row choice
/// (a column or a miss), reject column collisions, take the minimum.
fn brute_force_assignment(costs: &[Vec<f64>], miss: f64) -> f64 {
    let n_rows = costs.len();
    let n_cols = costs.first().map_or(0, Vec::len);
    let mut best = f64::INFINITY;
    // Each row's choice encoded in base (n_cols + 1); digit n_cols = miss.
    let total = (n_cols as u64 + 1).pow(n_rows as u32);
    for code in 0..total {
        let mut c = code;
        let mut used = 0u32;
        let mut cost = 0.0;
        let mut ok = true;
        for row in costs {
            let pick = (c % (n_cols as u64 + 1)) as usize;
            c /= n_cols as u64 + 1;
            if pick == n_cols {
                cost += miss;
            } else {
                if used & (1 << pick) != 0 {
                    ok = false;
                    break;
                }
                used |= 1 << pick;
                cost += row[pick];
            }
        }
        if ok && cost < best {
            best = cost;
        }
    }
    best
}

#[test]
fn assignment_solver_matches_brute_force() {
    let mut rng = Rng64::seed_from_u64(110);
    for case in 0..CASES {
        let n_rows = 1 + rng.gen_below(4) as usize;
        let n_cols = 1 + rng.gen_below(4) as usize;
        let costs: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| {
                (0..n_cols)
                    .map(|_| {
                        // ~20 % of pairings gated out.
                        if rng.gen_bool(0.2) {
                            f64::INFINITY
                        } else {
                            rng.gen_range(0.0, 10.0)
                        }
                    })
                    .collect()
            })
            .collect();
        let miss = rng.gen_range(0.0, 10.0);

        let solved = wivi_num::solve_assignment(&costs.concat(), n_rows, miss);
        let brute = brute_force_assignment(&costs, miss);
        assert!(
            (solved.total_cost - brute).abs() < 1e-9,
            "case {case}: solver {} vs brute force {brute} ({costs:?}, miss {miss:?})",
            solved.total_cost
        );

        // The reported pairing must be feasible and must reproduce the
        // reported total cost.
        let mut used = vec![false; n_cols];
        let mut replay = 0.0;
        for (i, p) in solved.pairing.iter().enumerate() {
            match p {
                None => replay += miss,
                Some(j) => {
                    assert!(!used[*j], "case {case}: column {j} assigned twice");
                    assert!(costs[i][*j].is_finite(), "case {case}: gated pairing used");
                    used[*j] = true;
                    replay += costs[i][*j];
                }
            }
        }
        assert!((replay - solved.total_cost).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn kalman_tracks_random_constant_velocity_targets() {
    let mut rng = Rng64::seed_from_u64(111);
    for case in 0..CASES {
        let v_true = rng.gen_range(-20.0, 20.0);
        let x0 = rng.gen_range(-60.0, 60.0);
        let r: f64 = 0.5;
        let dt = 0.05;
        let mut kf = wivi_num::Kalman2::from_observation(x0, 4.0, 100.0);
        for i in 1..300 {
            let t = i as f64 * dt;
            kf.predict(dt, 1.0);
            let z = x0 + v_true * t + wivi_num::rng::normal(&mut rng, 0.0, r.sqrt());
            kf.update(z, r);
        }
        assert!(
            (kf.velocity() - v_true).abs() < 2.0,
            "case {case}: v̂ {} vs {v_true}",
            kf.velocity()
        );
    }
}
