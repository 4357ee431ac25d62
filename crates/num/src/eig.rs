//! Eigendecomposition of complex Hermitian matrices.
//!
//! Smoothed MUSIC (paper §5.2) needs the full eigensystem of the w′×w′
//! correlation matrix `R = E[h·h^H]` — eigenvalues to split signal from
//! noise subspace, eigenvectors to project steering vectors onto the noise
//! subspace. The matrices are Hermitian positive semi-definite and small
//! (w′ = 50 at the paper's parameters), so the classic cyclic Jacobi method
//! with complex (phase-aware) Givens rotations is the right tool: simple,
//! unconditionally stable, and accurate to machine precision.
//!
//! The rotation for pivot `(p, q)` zeroes `A[p][q] = r·e^{iφ}` with the
//! unitary
//!
//! ```text
//! V[p,p] =  c          V[p,q] = s·e^{iφ}
//! V[q,p] = -s·e^{-iφ}  V[q,q] = c
//! ```
//!
//! where `t = tan θ` solves `t² + 2τt − 1 = 0`, `τ = (A[q,q] − A[p,p])/(2r)`
//! — the textbook real-Jacobi angle applied to the off-diagonal *magnitude*.
//!
//! The solver reads one triangle, as LAPACK's `zheev` with `UPLO = 'U'`
//! does: its working copy keeps the input's diagonal and strictly upper
//! triangle and sets each strictly lower entry to the conjugate of its
//! upper mirror. Matrices accumulated through [`CMatrix::add_outer`] are
//! already Hermitian to the bit, so for them the copy changes nothing.

use crate::{simd, CMatrix, Complex64};

/// The result of [`hermitian_eig`]: `A = U·diag(λ)·U^H`.
///
/// Eigenvalues are returned in **descending** order (MUSIC convention:
/// signal eigenvalues first), with `vectors.col(i)` the unit-norm
/// eigenvector for `values[i]`.
#[derive(Clone, Debug)]
pub struct HermitianEig {
    /// Real eigenvalues, sorted descending.
    pub values: Vec<f64>,
    /// Unitary matrix whose columns are the corresponding eigenvectors.
    pub vectors: CMatrix,
}

impl HermitianEig {
    /// Reconstructs `U·diag(λ)·U^H`; used by tests to validate round-trips.
    pub fn reconstruct(&self) -> CMatrix {
        let n = self.values.len();
        let mut m = CMatrix::zeros(n, n);
        for (i, &lambda) in self.values.iter().enumerate() {
            let v = self.vectors.col(i);
            m.add_outer(&v, lambda);
        }
        m
    }

    /// Number of eigenvalues exceeding `threshold` — MUSIC's signal-subspace
    /// dimension for a given noise floor estimate.
    pub fn count_above(&self, threshold: f64) -> usize {
        self.values.iter().filter(|&&v| v > threshold).count()
    }
}

/// Maximum number of full Jacobi sweeps before giving up. Convergence is
/// quadratic; well-conditioned correlation matrices converge in < 10 sweeps.
const MAX_SWEEPS: usize = 64;

/// Reusable scratch for [`hermitian_eig_in`]: the working copy of the
/// matrix, the accumulated rotations, and the sorted output buffers.
///
/// The streaming MUSIC tracker eigendecomposes one `w′ × w′` correlation
/// matrix per analysis window at the channel rate; allocating five fresh
/// `O(n²)` buffers per window dominated the allocator profile. A workspace
/// is created once per tracker and reused for every window with **zero
/// per-call heap allocation**. Results are bitwise identical to
/// [`hermitian_eig`] (same sweep order, same rotation arithmetic).
#[derive(Clone, Debug)]
pub struct EigWorkspace {
    n: usize,
    /// Working copy, diagonalized in place.
    m: CMatrix,
    /// Accumulated unitary.
    u: CMatrix,
    /// Unsorted diagonal.
    lambdas: Vec<f64>,
    /// Descending-eigenvalue permutation.
    order: Vec<usize>,
    /// Sorted eigenvalues (the public output).
    values: Vec<f64>,
    /// Sorted eigenvectors (the public output).
    vectors: CMatrix,
}

impl EigWorkspace {
    /// Creates a workspace for `n × n` problems.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            m: CMatrix::zeros(n, n),
            u: CMatrix::zeros(n, n),
            lambdas: vec![0.0; n],
            order: (0..n).collect(),
            values: vec![0.0; n],
            vectors: CMatrix::zeros(n, n),
        }
    }

    /// The problem dimension this workspace serves.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Eigenvalues of the most recent [`hermitian_eig_in`] call, descending.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Eigenvector matrix of the most recent call (column `i` pairs with
    /// `values()[i]`).
    pub fn vectors(&self) -> &CMatrix {
        &self.vectors
    }

    /// Number of eigenvalues exceeding `threshold` (MUSIC's signal-subspace
    /// dimension test, mirroring [`HermitianEig::count_above`]).
    pub fn count_above(&self, threshold: f64) -> usize {
        self.values.iter().filter(|&&v| v > threshold).count()
    }

    /// Copies the current result out as an owned [`HermitianEig`].
    pub fn to_eig(&self) -> HermitianEig {
        HermitianEig {
            values: self.values.clone(),
            vectors: self.vectors.clone(),
        }
    }
}

/// Computes the eigendecomposition of a Hermitian matrix by cyclic Jacobi
/// rotations, reusing `ws` for all scratch and output storage (zero heap
/// allocation per call). Results land in [`EigWorkspace::values`] /
/// [`EigWorkspace::vectors`].
///
/// The input is **assumed Hermitian**; only numerical (rounding-level)
/// deviation is tolerated. Use [`CMatrix::hermitian_deviation`] upstream if
/// the provenance of the matrix is in doubt. Within that tolerance only
/// the diagonal and the strictly upper triangle are read: inputs that
/// share them give the same bits.
///
/// # Panics
/// Panics if `a` is not square, if its dimension differs from the
/// workspace's, or if it deviates from Hermitian symmetry by more than
/// `1e-8 · (1 + ‖A‖_F)`.
pub fn hermitian_eig_in(a: &CMatrix, ws: &mut EigWorkspace) {
    assert!(a.is_square(), "eigendecomposition requires a square matrix");
    let n = a.rows();
    assert_eq!(n, ws.n, "workspace dimension mismatch");
    let scale = 1.0 + a.frobenius_norm();
    assert!(
        a.hermitian_deviation() <= 1e-8 * scale,
        "matrix is not Hermitian (deviation {} vs norm {})",
        a.hermitian_deviation(),
        scale
    );

    ws.m.copy_from(a);
    for r in 1..n {
        for c in 0..r {
            ws.m[(r, c)] = ws.m[(c, r)].conj();
        }
    }
    ws.u.set_identity();
    jacobi_diagonalize(&mut ws.m, &mut ws.u, scale);

    // Extract and sort descending.
    let m = &ws.m;
    for (i, l) in ws.lambdas.iter_mut().enumerate() {
        *l = m[(i, i)].re;
    }
    for (i, o) in ws.order.iter_mut().enumerate() {
        *o = i;
    }
    let lambdas = &ws.lambdas;
    ws.order
        .sort_by(|&i, &j| lambdas[j].partial_cmp(&lambdas[i]).unwrap());
    // ws.u holds U transposed (rows are eigenvectors) — see
    // `jacobi_diagonalize`; eigenvector c is its row order[c].
    for c in 0..n {
        ws.values[c] = ws.lambdas[ws.order[c]];
        let src = ws.u.row(ws.order[c]);
        for (r, &z) in src.iter().enumerate() {
            ws.vectors[(r, c)] = z;
        }
    }
}

/// Computes the eigendecomposition of a Hermitian matrix by cyclic Jacobi
/// rotations. Convenience wrapper over [`hermitian_eig_in`] that allocates
/// a fresh workspace; hot paths should hold an [`EigWorkspace`] instead.
///
/// # Panics
/// Panics if `a` is not square, or if it deviates from Hermitian symmetry
/// by more than `1e-8 · (1 + ‖A‖_F)`.
pub fn hermitian_eig(a: &CMatrix) -> HermitianEig {
    let mut ws = EigWorkspace::new(a.rows());
    hermitian_eig_in(a, &mut ws);
    HermitianEig {
        values: ws.values,
        vectors: ws.vectors,
    }
}

/// The cyclic-Jacobi sweep loop shared by the planned and unplanned entry
/// points: diagonalizes `m` in place, accumulating rotations into `ut` —
/// the **transpose** of the unitary (row `i` of `ut` is eigenvector `i`),
/// so the rotation touches two contiguous rows instead of two strided
/// columns. Per-element arithmetic is unchanged; only the layout is.
///
/// Every update funnels through the bitwise-pinned kernels in
/// [`wivi_num::simd`](crate::simd), so results are identical on every
/// dispatch level. `m` must be Hermitian to the bit off the diagonal,
/// as [`hermitian_eig_in`]'s working copy is, and the mirror keeps it
/// so. The column half of each rotation is therefore not recomputed but
/// *mirrored* from the freshly rotated rows: for `k ∉ {p,q}` the scalar
/// column update `akp·c − (e⁻·akq)·s` is the exact conjugate of the row
/// update `apk·c − (e⁺·aqk)·s` — conjugation distributes bitwise over
/// IEEE multiply/add/subtract — so writing `conj(m[(p,k)])` reproduces
/// the textbook loop's bits while keeping all arithmetic on contiguous
/// rows. `crates/num/tests/simd_kernels.rs` pins this on complex
/// correlation matrices. Where an entry cancels to an exact zero the two
/// loops can disagree on its sign, so on real-valued inputs the
/// eigenvectors' rounding-level imaginary parts can differ in sign from
/// the textbook loop's.
fn jacobi_diagonalize(m: &mut CMatrix, ut: &mut CMatrix, scale: f64) {
    let n = m.rows();

    // Absolute threshold under which an off-diagonal entry counts as zero.
    let tol = 1e-14 * scale;

    // Probe counts aggregate in locals and flush once per solve — the
    // pivot body is ~100 ns, far too hot for per-call counting.
    let mut sweeps = 0u64;
    let mut rotations = 0u64;

    for _sweep in 0..MAX_SWEEPS {
        if m.off_diagonal_energy().sqrt() <= tol * n as f64 {
            break;
        }
        sweeps += 1;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                let r = apq.abs();
                if r <= tol {
                    continue;
                }
                let phi = apq.arg();
                let alpha = m[(p, p)].re;
                let beta = m[(q, q)].re;

                // Stable tangent of the rotation angle.
                let tau = (beta - alpha) / (2.0 * r);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                let e_pos = Complex64::cis(phi); //  e^{+iφ}
                let e_neg = e_pos.conj(); //          e^{-iφ}

                // A ← A·V   (columns p and q):
                //   m[(k,p)] = akp·c − (e⁻·akq)·s
                //   m[(k,q)] = (e⁺·akp)·s + akq·c
                // Only the 2×2 pivot block needs the column update
                // computed directly (the row update below reads it);
                // every other column entry is mirrored from the freshly
                // rotated rows.
                let app = m[(p, p)];
                let apq2 = m[(p, q)];
                let aqp = m[(q, p)];
                let aqq = m[(q, q)];
                m[(p, p)] = app.scale(c) - (e_neg * apq2).scale(s);
                m[(p, q)] = (e_pos * app).scale(s) + apq2.scale(c);
                m[(q, p)] = aqp.scale(c) - (e_neg * aqq).scale(s);
                m[(q, q)] = (e_pos * aqp).scale(s) + aqq.scale(c);
                // A ← V^H·A  (rows p and q):
                //   m[(p,k)] = apk·c − (e⁺·aqk)·s
                //   m[(q,k)] = (e⁻·apk)·s + aqk·c
                // fused with the conjugate column images outside the
                // pivot block (bitwise equal to the direct column update
                // — see the function docs).
                simd::rotate_rows_mirror(m.as_mut_slice(), n, p, q, c, s, e_pos);
                // Clamp the now-annihilated pair and enforce real diagonal,
                // preventing rounding drift from accumulating over sweeps.
                m[(p, q)] = Complex64::ZERO;
                m[(q, p)] = Complex64::ZERO;
                m[(p, p)] = Complex64::from_re(m[(p, p)].re);
                m[(q, q)] = Complex64::from_re(m[(q, q)].re);

                // U ← U·V — in transposed storage the two columns are the
                // contiguous rows p and q of ut, same arithmetic:
                //   ut[(p,k)] = ukp·c − (e⁻·ukq)·s
                //   ut[(q,k)] = (e⁺·ukp)·s + ukq·c
                let (ut_p, ut_q) = ut.row_pair_mut(p, q);
                simd::givens_rotate(ut_p, ut_q, c, s, e_neg);
                rotations += 1;
            }
        }
    }
    crate::probe::count_eig(sweeps, rotations);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn random_hermitian(n: usize, seed: u64) -> CMatrix {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut a = CMatrix::zeros(n, n);
        for r in 0..n {
            a[(r, r)] = Complex64::from_re(rng.gen_range(-2.0, 2.0));
            for c in (r + 1)..n {
                let z = Complex64::new(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0));
                a[(r, c)] = z;
                a[(c, r)] = z.conj();
            }
        }
        a
    }

    #[test]
    fn workspace_reuse_matches_fresh_allocation_bitwise() {
        // One workspace across many different matrices must behave exactly
        // like allocating fresh buffers per call — no state may leak from
        // one decomposition into the next.
        let mut ws = EigWorkspace::new(8);
        for seed in 0..6 {
            let a = random_hermitian(8, seed);
            hermitian_eig_in(&a, &mut ws);
            let fresh = hermitian_eig(&a);
            assert_eq!(
                ws.values(),
                fresh.values.as_slice(),
                "values differ at seed {seed}"
            );
            assert_eq!(
                *ws.vectors(),
                fresh.vectors,
                "vectors differ at seed {seed}"
            );
        }
    }

    #[test]
    fn workspace_accessors_are_consistent() {
        let a = random_hermitian(5, 42);
        let mut ws = EigWorkspace::new(5);
        hermitian_eig_in(&a, &mut ws);
        assert_eq!(ws.n(), 5);
        let owned = ws.to_eig();
        assert_eq!(owned.values, ws.values());
        let thresh = ws.values()[2];
        assert_eq!(ws.count_above(thresh), owned.count_above(thresh));
    }

    #[test]
    #[should_panic(expected = "workspace dimension mismatch")]
    fn workspace_dimension_checked() {
        let a = random_hermitian(4, 1);
        let mut ws = EigWorkspace::new(5);
        hermitian_eig_in(&a, &mut ws);
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let mut d = CMatrix::zeros(3, 3);
        d[(0, 0)] = Complex64::from_re(3.0);
        d[(1, 1)] = Complex64::from_re(-1.0);
        d[(2, 2)] = Complex64::from_re(0.5);
        let e = hermitian_eig(&d);
        assert_eq!(e.values, vec![3.0, 0.5, -1.0]);
    }

    #[test]
    fn two_by_two_known_eigenvalues() {
        // [[2, i], [-i, 2]] has eigenvalues 3 and 1.
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 0)] = Complex64::from_re(2.0);
        a[(0, 1)] = Complex64::I;
        a[(1, 0)] = -Complex64::I;
        a[(1, 1)] = Complex64::from_re(2.0);
        let e = hermitian_eig(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_matches_input() {
        for seed in 0..5 {
            let a = random_hermitian(8, seed);
            let e = hermitian_eig(&a);
            let r = e.reconstruct();
            let err = (&r - &a).frobenius_norm();
            assert!(
                err < 1e-10 * (1.0 + a.frobenius_norm()),
                "seed {seed}: err {err}"
            );
        }
    }

    #[test]
    fn eigenvectors_satisfy_definition() {
        let a = random_hermitian(6, 42);
        let e = hermitian_eig(&a);
        for i in 0..6 {
            let v = e.vectors.col(i);
            let av = a.mul_vec(&v);
            for k in 0..6 {
                let expect = v[k].scale(e.values[i]);
                assert!((av[k] - expect).abs() < 1e-9, "A·v != λ·v at ({i},{k})");
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = random_hermitian(7, 7);
        let e = hermitian_eig(&a);
        let gram = &e.vectors.hermitian() * &e.vectors;
        let dev = (&gram - &CMatrix::identity(7)).frobenius_norm();
        assert!(dev < 1e-10, "U^H·U deviates from I by {dev}");
    }

    #[test]
    fn rank_one_outer_product_has_single_nonzero_eigenvalue() {
        let v = vec![
            Complex64::new(1.0, 0.5),
            Complex64::new(-0.5, 0.2),
            Complex64::new(0.0, 1.0),
        ];
        let norm_sq: f64 = v.iter().map(|z| z.norm_sqr()).sum();
        let mut a = CMatrix::zeros(3, 3);
        a.add_outer(&v, 1.0);
        let e = hermitian_eig(&a);
        assert!((e.values[0] - norm_sq).abs() < 1e-10);
        assert!(e.values[1].abs() < 1e-10);
        assert!(e.values[2].abs() < 1e-10);
    }

    #[test]
    fn count_above_splits_signal_from_noise() {
        let mut a = CMatrix::zeros(4, 4);
        a.add_outer(
            &[Complex64::ONE, Complex64::I, Complex64::ONE, Complex64::I],
            10.0,
        );
        for i in 0..4 {
            a[(i, i)] += Complex64::from_re(0.01);
        }
        let e = hermitian_eig(&a);
        assert_eq!(e.count_above(1.0), 1);
        assert_eq!(e.count_above(0.001), 4);
    }

    #[test]
    #[should_panic(expected = "not Hermitian")]
    fn rejects_non_hermitian_input() {
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 1)] = Complex64::ONE;
        // a[(1,0)] left at zero: not Hermitian.
        let _ = hermitian_eig(&a);
    }

    #[test]
    fn psd_correlation_matrix_has_nonnegative_spectrum() {
        let mut rng = Rng64::seed_from_u64(99);
        let mut r = CMatrix::zeros(10, 10);
        for _ in 0..25 {
            let v: Vec<Complex64> = (0..10)
                .map(|_| Complex64::new(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0)))
                .collect();
            r.add_outer(&v, 1.0);
        }
        let e = hermitian_eig(&r);
        for &lambda in &e.values {
            assert!(
                lambda > -1e-9,
                "PSD matrix produced negative eigenvalue {lambda}"
            );
        }
    }
}
