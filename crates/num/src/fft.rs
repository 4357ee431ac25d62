//! Iterative radix-2 FFT.
//!
//! The OFDM PHY in `wivi-sdr` maps 64 subcarriers per symbol, so the only
//! sizes this library ever transforms are small powers of two. A textbook
//! in-place, bit-reversal, decimation-in-time Cooley–Tukey transform is both
//! simple and fast enough (the FFT is nowhere near the pipeline bottleneck —
//! MUSIC's eigendecomposition is).
//!
//! Conventions: [`fft`] computes the *unnormalized* forward DFT
//! `X[k] = Σ_n x[n]·e^{-2πikn/N}`; [`ifft`] applies the `1/N` factor so that
//! `ifft(fft(x)) == x`.
//!
//! The streaming radio front-end transforms two blocks per channel sample
//! at 312.5 Hz, so the per-call trigonometry and the bit-reversal index
//! arithmetic are worth hoisting: [`FftPlan`] precomputes both once and
//! then transforms in place with **zero per-call heap allocation**. The
//! free functions are convenience wrappers that plan on every call.

use crate::Complex64;

/// A precomputed transform plan for one power-of-two length: bit-reversal
/// permutation plus per-stage twiddle tables for both directions.
///
/// [`FftPlan::forward`] and [`FftPlan::inverse`] are in-place and perform
/// no heap allocation — the workhorse API for the per-sample OFDM path.
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    /// `bitrev[i]` = bit-reversed index of `i` (only entries with
    /// `bitrev[i] > i` trigger a swap, mirroring the in-place permutation).
    bitrev: Vec<u32>,
    /// Forward twiddles, stages concatenated: for each butterfly length
    /// `len = 2, 4, …, n`, the `len/2` factors `w^k`. Total `n − 1` entries.
    fwd: Vec<Complex64>,
    /// Inverse twiddles, same layout.
    inv: Vec<Complex64>,
}

impl FftPlan {
    /// Plans transforms of length `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            is_power_of_two(n),
            "FFT length must be a power of two, got {n}"
        );
        let bits = n.trailing_zeros();
        let bitrev = (0..n)
            .map(|i| {
                if n == 1 {
                    0
                } else {
                    (i.reverse_bits() >> (usize::BITS - bits)) as u32
                }
            })
            .collect();

        let mut fwd = Vec::with_capacity(n.saturating_sub(1));
        let mut inv = Vec::with_capacity(n.saturating_sub(1));
        for (table, sign) in [(&mut fwd, -1.0), (&mut inv, 1.0)] {
            let mut len = 2;
            while len <= n {
                let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
                let wlen = Complex64::cis(ang);
                let mut w = Complex64::ONE;
                for _ in 0..len / 2 {
                    table.push(w);
                    w *= wlen;
                }
                len <<= 1;
            }
        }
        crate::probe::count_fft_plan();
        Self {
            n,
            bitrev,
            fwd,
            inv,
        }
    }

    /// The planned transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate length-0 plan (never constructible — kept
    /// for API completeness alongside [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward DFT. Allocation-free.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the planned length.
    pub fn forward(&self, data: &mut [Complex64]) {
        self.run(data, &self.fwd);
    }

    /// In-place inverse DFT including the `1/N` normalization.
    /// Allocation-free.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the planned length.
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.run(data, &self.inv);
        let scale = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
    }

    fn run(&self, data: &mut [Complex64], twiddles: &[Complex64]) {
        assert_eq!(data.len(), self.n, "buffer length does not match the plan");
        let n = self.n;
        if n <= 1 {
            return;
        }
        // One flush per transform (n/2·log₂n butterfly pairs), not one
        // per block — the probe stays off the per-stage path.
        crate::probe::count_fft_run((n as u64 / 2) * n.trailing_zeros() as u64);
        for i in 0..n {
            let j = self.bitrev[i] as usize;
            if j > i {
                data.swap(i, j);
            }
        }
        let mut len = 2;
        let mut offset = 0;
        while len <= n {
            let stage = &twiddles[offset..offset + len / 2];
            for start in (0..n).step_by(len) {
                // Each block's butterflies pair its low and high halves.
                let (lo, hi) = data[start..start + len].split_at_mut(len / 2);
                for ((l, h), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                    let u = *l;
                    let v = *h * w;
                    *l = u + v;
                    *h = u - v;
                }
            }
            offset += len / 2;
            len <<= 1;
        }
    }
}

/// Returns `true` if `n` is a power of two (and nonzero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// In-place forward DFT of a power-of-two-length buffer.
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn fft(data: &mut [Complex64]) {
    FftPlan::new(data.len()).forward(data);
}

/// In-place inverse DFT (including the `1/N` normalization).
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn ifft(data: &mut [Complex64]) {
    FftPlan::new(data.len()).inverse(data);
}

/// Convenience wrapper: forward DFT of a borrowed slice into a new vector.
pub fn fft_owned(data: &[Complex64]) -> Vec<Complex64> {
    let mut buf = data.to_vec();
    fft(&mut buf);
    buf
}

/// Convenience wrapper: inverse DFT of a borrowed slice into a new vector.
pub fn ifft_owned(data: &[Complex64]) -> Vec<Complex64> {
    let mut buf = data.to_vec();
    ifft(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "mismatch: {x} vs {y} (tol {tol})");
        }
    }

    /// Direct O(N²) DFT reference used to validate the fast transform.
    fn dft_reference(x: &[Complex64]) -> Vec<Complex64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|t| {
                        x[t] * Complex64::cis(
                            -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64,
                        )
                    })
                    .sum()
            })
            .collect()
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        fft(&mut x);
        for z in &x {
            assert!((*z - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_on_one_bin() {
        let n = 64;
        let bin = 5;
        let mut x: Vec<Complex64> = (0..n)
            .map(|t| Complex64::cis(2.0 * std::f64::consts::PI * (bin * t) as f64 / n as f64))
            .collect();
        fft(&mut x);
        for (k, z) in x.iter().enumerate() {
            if k == bin {
                assert!((z.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "leakage at bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    fn matches_direct_dft() {
        let x: Vec<Complex64> = (0..16)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 1.21).cos()))
            .collect();
        let fast = fft_owned(&x);
        let slow = dft_reference(&x);
        assert_close(&fast, &slow, 1e-10);
    }

    #[test]
    fn ifft_inverts_fft() {
        let x: Vec<Complex64> = (0..64)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let y = ifft_owned(&fft_owned(&x));
        assert_close(&x, &y, 1e-10);
    }

    #[test]
    fn length_one_is_identity() {
        let mut x = vec![Complex64::new(2.0, -3.0)];
        fft(&mut x);
        assert_eq!(x[0], Complex64::new(2.0, -3.0));
        ifft(&mut x);
        assert_eq!(x[0], Complex64::new(2.0, -3.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut x = vec![Complex64::ZERO; 12];
        fft(&mut x);
    }

    #[test]
    fn plan_is_reusable() {
        let plan = FftPlan::new(16);
        let x: Vec<Complex64> = (0..16).map(|i| Complex64::from_re(i as f64)).collect();
        let mut a = x.clone();
        plan.forward(&mut a);
        plan.inverse(&mut a);
        let mut b = x.clone();
        plan.forward(&mut b);
        plan.inverse(&mut b);
        assert_eq!(a, b);
        for (orig, rt) in x.iter().zip(&a) {
            assert!((*orig - *rt).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "does not match the plan")]
    fn plan_rejects_wrong_length() {
        let plan = FftPlan::new(8);
        let mut x = vec![Complex64::ZERO; 16];
        plan.forward(&mut x);
    }

    #[test]
    fn parseval_energy_preserved() {
        let x: Vec<Complex64> = (0..32)
            .map(|i| Complex64::new((i as f64 * 0.9).cos(), (i as f64 * 0.3).sin()))
            .collect();
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let spec = fft_owned(&x);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }
}
