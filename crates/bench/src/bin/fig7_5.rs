//! Figure 7-5 — CDFs of the matched-filter SNR of the '0' and '1'
//! gestures over all distances.

use wivi_bench::report;
use wivi_bench::scenarios::GestureTrial;
use wivi_bench::trials;
use wivi_num::par::parallel_map;
use wivi_rf::Material;

fn main() {
    report::header(
        "Fig. 7-5",
        "CDF of gesture SNRs (all distances)",
        "bit '0' enjoys a higher SNR than bit '1': the forward-first gesture keeps \
         the subject closer on average, and backward steps are shorter",
    );
    let per_point = trials(6, 2);
    let specs: Vec<(u64, u64, bool)> = (1..=8u64)
        .flat_map(|d| (0..per_point as u64).flat_map(move |s| [(d, s, false), (d, s, true)]))
        .collect();
    let out = parallel_map(&specs, |&(d, s, bit)| {
        let trial = GestureTrial {
            material: Material::HollowWall6In,
            distance_m: d as f64,
            bits: vec![bit],
            subject: s + 1,
            seed: 750 + d * 37 + s * 2 + bit as u64,
        };
        let o = trial.run();
        // Bit-level SNR: the weaker of the two gestures (a bit needs both).
        (bit, o.decode.min_gesture_snr_db())
    });
    for bit in [false, true] {
        let snrs: Vec<f64> = out
            .iter()
            .filter(|(b, _)| *b == bit)
            .filter_map(|(_, s)| *s)
            .collect();
        if snrs.is_empty() {
            println!("bit '{}': no decodes", bit as u8);
            continue;
        }
        report::print_cdf(&format!("bit '{}' SNR (dB)", bit as u8), &snrs, 9);
    }
}
