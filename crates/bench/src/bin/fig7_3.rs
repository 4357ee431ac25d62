//! Figure 7-3 — CDF of the spatial variance of the MUSIC image for 0–3
//! moving humans.

use wivi_bench::report;
use wivi_bench::scenarios::{run_counting_trial, Room, COUNTING_TRIAL_S};
use wivi_bench::trials;
use wivi_num::par::parallel_map;
use wivi_num::stats;

fn main() {
    report::header(
        "Fig. 7-3",
        "CDF of spatial variance for 0–3 moving humans",
        "variance increases with the number of humans; the separation between \
         successive CDFs shrinks as the count grows (confined space)",
    );
    let per_class = trials(12, 4);
    let specs: Vec<(usize, u64)> = (0..4usize)
        .flat_map(|n| (0..per_class as u64).map(move |s| (n, 730 + 16 * n as u64 + s)))
        .collect();
    let vars = parallel_map(&specs, |&(n, seed)| {
        (
            n,
            run_counting_trial(Room::Small, n, seed, COUNTING_TRIAL_S),
        )
    });
    for n in 0..4usize {
        let class: Vec<f64> = vars
            .iter()
            .filter(|(k, _)| *k == n)
            .map(|(_, v)| *v)
            .collect();
        report::print_cdf(&format!("{n} humans (variance)"), &class, 9);
    }
    println!("\nclass medians (variance grows with count, diminishing steps):");
    for n in 0..4usize {
        let class: Vec<f64> = vars
            .iter()
            .filter(|(k, _)| *k == n)
            .map(|(_, v)| *v)
            .collect();
        println!("  {n} humans: median {:>12.0}", stats::median(&class));
    }
}
