//! Through-wall gesture decoding (paper Ch. 6).
//!
//! The encoder side lives in `wivi-rf::motion` ([`wivi_rf::GestureScript`]:
//! a '0' bit is a step forward then a step backward; a '1' bit the
//! reverse — a Manchester-like code). This module is the receiver:
//!
//! 1. collapse the angle–time spectrum into a signed angle-energy track
//!    (forward steps drive it positive, backward steps negative —
//!    Fig. 6-1's triangles above/below the zero line);
//! 2. apply the two matched filters — "a triangle above the zero line,
//!    and an inverted triangle below the zero line" — and sum their
//!    outputs (Fig. 6-3(a));
//! 3. detect peaks; a gesture is accepted only if its matched-filter SNR
//!    exceeds 3 dB ("Wi-Vi decodes a gesture only when its SNR is greater
//!    than 3 dB", Fig. 7-4), which makes failures *erasures*, never bit
//!    flips (§7.5);
//! 4. pair consecutive gestures into bits: (+, −) → '0', (−, +) → '1'
//!    (Fig. 6-3(b)).

use crate::spectrogram::AngleSpectrogram;

/// Decoder tuning.
#[derive(Clone, Copy, Debug)]
pub struct GestureDecoderConfig {
    /// Matched-filter template duration, seconds — the duration of one
    /// step's motion (≈ 40 % of the ≈ 2.2 s gesture slot).
    pub template_duration_s: f64,
    /// Minimum matched-filter SNR to accept a gesture, dB (paper: 3 dB).
    pub snr_threshold_db: f64,
    /// Minimum temporal separation between detected gestures, seconds.
    pub min_separation_s: f64,
    /// Angle guard around the DC line, degrees (energy within ±guard is
    /// ignored; must exceed the beamformer's mainlobe half-width so the
    /// DC ridge cannot leak into the track).
    pub dc_guard_deg: f64,
    /// Length of the gesture-free lead-in used as the noise reference,
    /// seconds. The subject stands still for this long before signalling;
    /// the peak matched-filter output over the lead-in defines the 0 dB
    /// reference, so pure noise can never clear the 3 dB threshold —
    /// which is what makes Wi-Vi's failures erasures rather than bit
    /// flips (§7.5).
    pub noise_reference_s: f64,
}

impl Default for GestureDecoderConfig {
    fn default() -> Self {
        Self {
            template_duration_s: 0.9,
            snr_threshold_db: 3.0,
            min_separation_s: 1.4,
            dc_guard_deg: 20.0,
            noise_reference_s: 1.5,
        }
    }
}

/// One detected gesture.
#[derive(Clone, Copy, Debug)]
pub struct DetectedGesture {
    /// Peak time, seconds.
    pub time_s: f64,
    /// `+1` = step forward (toward the device), `−1` = step backward.
    pub polarity: i8,
    /// Matched-filter SNR of this gesture, dB.
    pub snr_db: f64,
}

/// Full decoder output.
#[derive(Clone, Debug)]
pub struct GestureDecode {
    /// The signed angle-energy track fed to the matched filter.
    pub track: Vec<f64>,
    /// Summed matched-filter output (Fig. 6-3(a)).
    pub matched: Vec<f64>,
    /// Window centre times, seconds.
    pub times_s: Vec<f64>,
    /// Gestures that passed the SNR threshold, in time order.
    pub gestures: Vec<DetectedGesture>,
    /// Decoded bits; each is `Some(bit)` or `None` for an erasure.
    pub bits: Vec<Option<bool>>,
}

impl GestureDecode {
    /// SNR of the weakest accepted gesture (the bit-level SNR the paper's
    /// Fig. 7-5 reports), or `None` if nothing was detected.
    pub fn min_gesture_snr_db(&self) -> Option<f64> {
        self.gestures
            .iter()
            .map(|g| g.snr_db)
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }
}

/// Symmetric triangle template of `len` taps, unit peak, zero mean is NOT
/// enforced (the track is already floor-referenced).
fn triangle(len: usize) -> Vec<f64> {
    assert!(len >= 3);
    (0..len)
        .map(|i| 1.0 - (2.0 * i as f64 / (len - 1) as f64 - 1.0).abs())
        .collect()
}

/// Normalized cross-correlation of `signal` with `template`, same-length
/// output (zero-padded edges).
pub fn matched_filter(signal: &[f64], template: &[f64]) -> Vec<f64> {
    let n = signal.len();
    let m = template.len();
    let norm: f64 = template
        .iter()
        .map(|t| t * t)
        .sum::<f64>()
        .sqrt()
        .max(1e-12);
    (0..n)
        .map(|center| {
            let mut acc = 0.0;
            for (j, &t) in template.iter().enumerate() {
                // Template centred on `center`.
                let idx = center as isize + j as isize - (m / 2) as isize;
                if idx >= 0 && (idx as usize) < n {
                    acc += signal[idx as usize] * t;
                }
            }
            acc / norm
        })
        .collect()
}

/// Robust noise scale of a matched-filter output: median absolute value /
/// 0.6745 (consistent with σ for Gaussian noise, insensitive to the
/// gesture peaks themselves).
pub fn robust_noise_sigma(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    let mut mags: Vec<f64> = xs.iter().map(|x| x.abs()).collect();
    mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = mags[mags.len() / 2];
    (median / 0.6745).max(1e-12)
}

/// The 0 dB detection reference: the peak matched-filter magnitude over
/// the gesture-free lead-in (`noise_reference_s`). Falls back to 3× the
/// robust sigma of the whole output when the lead-in is too short to be
/// meaningful.
fn noise_reference(matched: &[f64], times: &[f64], cfg: &GestureDecoderConfig) -> f64 {
    let lead: Vec<f64> = matched
        .iter()
        .zip(times)
        .take_while(|(_, &t)| t <= times[0] + cfg.noise_reference_s)
        .map(|(&m, _)| m.abs())
        .collect();
    let robust_floor = 3.0 * robust_noise_sigma(matched);
    if lead.len() >= 5 {
        lead.iter()
            .copied()
            .fold(0.0f64, f64::max)
            .max(robust_floor)
            .max(1e-12)
    } else {
        robust_floor
    }
}

/// Finds alternating-sign peaks above the SNR threshold with a minimum
/// separation, greedily from the strongest down. `reference` is the 0 dB
/// level (see [`noise_reference`]).
fn detect_peaks(
    matched: &[f64],
    times: &[f64],
    reference: f64,
    cfg: &GestureDecoderConfig,
) -> Vec<DetectedGesture> {
    let thresh = reference * 10f64.powf(cfg.snr_threshold_db / 20.0);
    // Candidate local extrema.
    let mut candidates: Vec<usize> = (1..matched.len().saturating_sub(1))
        .filter(|&i| {
            let m = matched[i].abs();
            m >= thresh && m >= matched[i - 1].abs() && m >= matched[i + 1].abs()
        })
        .collect();
    candidates.sort_by(|&a, &b| matched[b].abs().partial_cmp(&matched[a].abs()).unwrap());

    let mut picked: Vec<usize> = Vec::new();
    for c in candidates {
        if picked
            .iter()
            .all(|&p| (times[p] - times[c]).abs() >= cfg.min_separation_s)
        {
            picked.push(c);
        }
    }
    picked.sort_unstable();
    picked
        .into_iter()
        .map(|i| DetectedGesture {
            time_s: times[i],
            polarity: if matched[i] >= 0.0 { 1 } else { -1 },
            snr_db: 20.0 * (matched[i].abs() / reference).log10(),
        })
        .collect()
}

/// Pairs consecutive gestures into bits: (+, −) → '0', (−, +) → '1';
/// same-polarity pairs or a trailing unpaired gesture are erasures.
fn pair_bits(gestures: &[DetectedGesture]) -> Vec<Option<bool>> {
    let mut bits = Vec::new();
    let mut iter = gestures.chunks_exact(2);
    for pair in &mut iter {
        bits.push(match (pair[0].polarity, pair[1].polarity) {
            (1, -1) => Some(false),
            (-1, 1) => Some(true),
            _ => None,
        });
    }
    if !iter.remainder().is_empty() {
        bits.push(None);
    }
    bits
}

/// The signed *amplitude* track for gesture decoding: per window,
/// `Σ_{θ > guard} |A[θ]| − Σ_{θ < −guard} |A[θ]|`.
///
/// Unlike the MUSIC pseudospectrum (whose peak heights measure subspace
/// alignment, not signal strength), the Bartlett amplitude `|A[θ, n]|`
/// scales with the received reflection, so the matched-filter SNR falls
/// off with distance and wall attenuation the way Figs. 7-4/7-5/7-6
/// require. The DC ridge's sidelobes are symmetric about θ = 0 and cancel
/// in the signed sum; its mainlobe is excluded by the guard.
pub fn signed_amplitude_track(spec: &AngleSpectrogram, dc_guard_deg: f64) -> Vec<f64> {
    spec.power
        .iter()
        .map(|row| {
            let mut s = 0.0;
            for (a, &th) in spec.thetas_deg.iter().enumerate() {
                if th > dc_guard_deg {
                    s += row[a].sqrt();
                } else if th < -dc_guard_deg {
                    s -= row[a].sqrt();
                }
            }
            s
        })
        .collect()
}

/// Fewest spectrogram columns [`decode`] accepts: the shortest
/// triangular matched-filter template spans three windows.
pub const MIN_DECODE_WINDOWS: usize = 3;

/// Decodes the gesture message carried by a *beamformed* (Bartlett,
/// Eq. 5.1) angle–time spectrogram — see [`signed_amplitude_track`] for
/// why the amplitude-bearing spectrum, rather than the MUSIC
/// pseudospectrum, feeds the matched filter.
///
/// # Panics
/// Panics if the spectrogram has fewer than [`MIN_DECODE_WINDOWS`]
/// columns.
pub fn decode(spec: &AngleSpectrogram, cfg: &GestureDecoderConfig) -> GestureDecode {
    assert!(
        spec.n_times() >= MIN_DECODE_WINDOWS,
        "spectrogram too short to decode"
    );
    let track = signed_amplitude_track(spec, cfg.dc_guard_deg);
    let dt = if spec.times_s.len() >= 2 {
        spec.times_s[1] - spec.times_s[0]
    } else {
        1.0
    };
    let len =
        ((cfg.template_duration_s / dt).round() as usize).clamp(MIN_DECODE_WINDOWS, track.len());
    let matched = matched_filter(&track, &triangle(len));
    let reference = noise_reference(&matched, &spec.times_s, cfg);
    let gestures = detect_peaks(&matched, &spec.times_s, reference, cfg);
    let bits = pair_bits(&gestures);
    GestureDecode {
        track,
        matched,
        times_s: spec.times_s.clone(),
        gestures,
        bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a synthetic spectrogram with gesture-like blobs: each
    /// (time-window range, +1/−1) paints energy at ±45°.
    fn gesture_spec(n_windows: usize, blobs: &[(usize, usize, i8)]) -> AngleSpectrogram {
        let thetas: Vec<f64> = (0..37).map(|i| -90.0 + 5.0 * i as f64).collect();
        let dt = 0.05;
        let times: Vec<f64> = (0..n_windows).map(|i| i as f64 * dt).collect();
        let mut power = vec![vec![1.0; 37]; n_windows];
        for &(start, end, pol) in blobs {
            for (t, row) in power
                .iter_mut()
                .enumerate()
                .take(end.min(n_windows))
                .skip(start)
            {
                // Triangular envelope over the blob.
                let frac = (t - start) as f64 / (end - start) as f64;
                let env = 1.0 - (2.0 * frac - 1.0).abs();
                let idx = if pol > 0 { 27 } else { 9 }; // ±45°
                row[idx] = 1.0 + 100.0 * env;
            }
        }
        AngleSpectrogram::new(thetas, times, power)
    }

    #[test]
    fn triangle_template_shape() {
        let t = triangle(5);
        assert_eq!(t, vec![0.0, 0.5, 1.0, 0.5, 0.0]);
    }

    #[test]
    fn matched_filter_peaks_at_pattern_center() {
        let mut signal = vec![0.0; 64];
        // Plant a triangle at 20..29.
        for (j, v) in triangle(9).iter().enumerate() {
            signal[20 + j] = *v;
        }
        let out = matched_filter(&signal, &triangle(9));
        let peak = out
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((peak as isize - 24).abs() <= 1, "peak at {peak}");
    }

    #[test]
    fn decodes_bit_zero_forward_then_backward() {
        let cfg = GestureDecoderConfig {
            template_duration_s: 0.5,
            min_separation_s: 0.8,
            noise_reference_s: 0.3,
            ..Default::default()
        };
        // Forward blob at windows 10..25, backward at 40..55.
        let spec = gesture_spec(80, &[(10, 25, 1), (40, 55, -1)]);
        let d = decode(&spec, &cfg);
        assert_eq!(d.gestures.len(), 2, "gestures: {:?}", d.gestures);
        assert_eq!(d.gestures[0].polarity, 1);
        assert_eq!(d.gestures[1].polarity, -1);
        assert_eq!(d.bits, vec![Some(false)]);
    }

    #[test]
    fn decodes_bit_one_backward_then_forward() {
        let cfg = GestureDecoderConfig {
            template_duration_s: 0.5,
            min_separation_s: 0.8,
            noise_reference_s: 0.3,
            ..Default::default()
        };
        let spec = gesture_spec(80, &[(10, 25, -1), (40, 55, 1)]);
        let d = decode(&spec, &cfg);
        assert_eq!(d.bits, vec![Some(true)]);
    }

    #[test]
    fn decodes_multibit_message() {
        let cfg = GestureDecoderConfig {
            template_duration_s: 0.5,
            min_separation_s: 0.8,
            noise_reference_s: 0.3,
            ..Default::default()
        };
        // 0 then 1: (+,−), (−,+).
        let spec = gesture_spec(
            160,
            &[(10, 25, 1), (40, 55, -1), (80, 95, -1), (115, 130, 1)],
        );
        let d = decode(&spec, &cfg);
        assert_eq!(d.bits, vec![Some(false), Some(true)]);
    }

    #[test]
    fn flat_spectrogram_yields_no_gestures() {
        let spec = gesture_spec(60, &[]);
        let d = decode(&spec, &GestureDecoderConfig::default());
        assert!(d.gestures.is_empty());
        assert!(d.bits.is_empty());
    }

    #[test]
    fn single_orphan_gesture_is_an_erasure() {
        let cfg = GestureDecoderConfig {
            template_duration_s: 0.5,
            min_separation_s: 0.8,
            noise_reference_s: 0.3,
            ..Default::default()
        };
        let spec = gesture_spec(80, &[(30, 45, 1)]);
        let d = decode(&spec, &cfg);
        assert_eq!(d.gestures.len(), 1);
        assert_eq!(d.bits, vec![None]);
    }

    #[test]
    fn erasures_not_bit_flips_under_weak_signal() {
        // §7.5: "Wi-Vi never mistook a '0' bit for a '1' bit or the
        // inverse. When it failed to decode a bit, it was because it could
        // not register enough energy." Weak blobs must vanish, not flip.
        let cfg = GestureDecoderConfig {
            template_duration_s: 0.5,
            min_separation_s: 0.8,
            noise_reference_s: 0.3,
            ..Default::default()
        };
        let thetas: Vec<f64> = (0..37).map(|i| -90.0 + 5.0 * i as f64).collect();
        let times: Vec<f64> = (0..80).map(|i| i as f64 * 0.05).collect();
        // Noise-only spectrogram with tiny fluctuations.
        let power: Vec<Vec<f64>> = (0..80)
            .map(|t| {
                (0..37)
                    .map(|a| 1.0 + 0.01 * ((t * 7 + a * 13) % 11) as f64)
                    .collect()
            })
            .collect();
        let spec = AngleSpectrogram::new(thetas, times, power);
        let d = decode(&spec, &cfg);
        for b in &d.bits {
            assert!(b.is_none(), "weak signal produced a hard bit {b:?}");
        }
    }

    #[test]
    fn snr_reported_above_threshold() {
        let cfg = GestureDecoderConfig {
            template_duration_s: 0.5,
            min_separation_s: 0.8,
            noise_reference_s: 0.3,
            ..Default::default()
        };
        let spec = gesture_spec(80, &[(10, 25, 1), (40, 55, -1)]);
        let d = decode(&spec, &cfg);
        for g in &d.gestures {
            assert!(g.snr_db >= cfg.snr_threshold_db);
        }
        assert!(d.min_gesture_snr_db().unwrap() >= cfg.snr_threshold_db);
    }

    #[test]
    fn robust_sigma_ignores_outliers() {
        let mut xs = vec![1.0; 100];
        xs[3] = 1000.0;
        let s = robust_noise_sigma(&xs);
        assert!(s < 2.0, "sigma {s} corrupted by outlier");
    }

    #[test]
    fn same_polarity_pair_is_erasure() {
        let g = |p: i8| DetectedGesture {
            time_s: 0.0,
            polarity: p,
            snr_db: 10.0,
        };
        assert_eq!(pair_bits(&[g(1), g(1)]), vec![None]);
        assert_eq!(pair_bits(&[g(-1), g(-1)]), vec![None]);
    }
}
