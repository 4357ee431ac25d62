//! Figure 7-6 — gesture detection across building materials: detection
//! accuracy (a) and SNR with min/max bars (b).

use wivi_bench::report;
use wivi_bench::scenarios::GestureTrial;
use wivi_bench::trials;
use wivi_num::par::parallel_map;
use wivi_num::stats;
use wivi_rf::Material;

fn main() {
    report::header(
        "Fig. 7-6",
        "Gesture detection in different building structures ('0' bit at 3 m)",
        "100% through free space / glass / wood / hollow wall, 87.5% through 8\" \
         concrete; SNR decreases as the material gets denser",
    );
    let per_material = trials(8, 3);
    let specs: Vec<(Material, u64)> = Material::SURVEY
        .iter()
        .flat_map(|&m| (0..per_material as u64).map(move |s| (m, s)))
        .collect();
    let out = parallel_map(&specs, |&(m, s)| {
        let trial = GestureTrial {
            material: m,
            distance_m: 3.0,
            bits: vec![false],
            subject: s + 1,
            seed: 760 + s * 5,
        };
        let o = trial.run();
        (m, o.all_correct(), o.decode.min_gesture_snr_db())
    });

    let rows: Vec<Vec<String>> = Material::SURVEY
        .iter()
        .map(|&m| {
            let sel: Vec<_> = out.iter().filter(|(mm, _, _)| *mm == m).collect();
            let acc = 100.0 * sel.iter().filter(|(_, ok, _)| *ok).count() as f64 / sel.len() as f64;
            let snrs: Vec<f64> = sel.iter().filter_map(|(_, _, s)| *s).collect();
            let (mean, min, max) = if snrs.is_empty() {
                (f64::NAN, f64::NAN, f64::NAN)
            } else {
                (
                    stats::mean(&snrs),
                    snrs.iter().copied().fold(f64::INFINITY, f64::min),
                    snrs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                )
            };
            vec![
                m.label().to_string(),
                format!("{acc:.0}%"),
                format!("{mean:.1}"),
                format!("{min:.1}"),
                format!("{max:.1}"),
            ]
        })
        .collect();
    println!();
    report::print_table(
        &["material", "detection", "SNR mean dB", "min", "max"],
        &rows,
    );
}
