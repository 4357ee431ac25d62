//! Figure 7-4 — accuracy of gesture decoding as a function of the
//! subject's distance from the wall.

use wivi_bench::report;
use wivi_bench::scenarios::GestureTrial;
use wivi_bench::trials;
use wivi_num::par::parallel_map;
use wivi_rf::Material;

fn main() {
    report::header(
        "Fig. 7-4",
        "Gesture decoding accuracy vs distance (6\" hollow wall)",
        "100% at ≤ 5 m, 93.75% at 6–7 m, 75% at 8 m, 0% at 9 m (3 dB SNR rule → \
         sharp cutoff); failures are erasures, never bit flips",
    );
    let per_point = trials(8, 3);
    let specs: Vec<(u64, u64, bool)> = (1..=14u64)
        .flat_map(|d| {
            (0..per_point as u64).map(move |s| (d, s, s % 2 == 0 /* bit */))
        })
        .collect();
    let out = parallel_map(&specs, |&(d, s, bit)| {
        let trial = GestureTrial {
            material: Material::HollowWall6In,
            distance_m: d as f64,
            bits: vec![bit],
            subject: s + 1,
            seed: 740 + d * 31 + s,
        };
        let o = trial.run();
        (d, bit, o.all_correct(), o.any_flip())
    });

    println!(
        "\n{:>9} {:>12} {:>12} {:>7}",
        "distance", "bit '0' %", "bit '1' %", "flips"
    );
    let mut any_flip_total = false;
    for d in 1..=14u64 {
        let pct = |bit: bool| {
            let sel: Vec<_> = out
                .iter()
                .filter(|(dd, b, _, _)| *dd == d && *b != bit)
                .collect();
            // note: bit '0' == false
            if sel.is_empty() {
                return f64::NAN;
            }
            100.0 * sel.iter().filter(|(_, _, ok, _)| *ok).count() as f64 / sel.len() as f64
        };
        let flips = out.iter().any(|(dd, _, _, f)| *dd == d && *f);
        any_flip_total |= flips;
        println!(
            "{:>7} m {:>11.0}% {:>11.0}% {:>7}",
            d,
            pct(true),
            pct(false),
            flips
        );
    }
    println!(
        "\nbit flips observed anywhere: {} (paper: never — erasures only)",
        any_flip_total
    );
}
