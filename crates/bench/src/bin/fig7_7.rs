//! Figure 7-7 — CDF of achieved nulling: the reduction in power received
//! along static paths, over many scenes/trials.

use wivi_bench::report;
use wivi_bench::scenarios::run_nulling_trial;
use wivi_bench::trials;
use wivi_num::par::parallel_map;
use wivi_num::stats;
use wivi_rf::Material;

fn main() {
    report::header(
        "Fig. 7-7",
        "CDF of achieved nulling (static-path power reduction over a 25 s trace)",
        "median ≈ 40 dB (mean 42 dB): enough to remove the flash of common \
         materials, not enough for reinforced concrete",
    );
    let per_material = trials(10, 3);
    let specs: Vec<(Material, u64)> = [
        Material::TintedGlass,
        Material::SolidWoodDoor,
        Material::HollowWall6In,
        Material::ConcreteWall8In,
    ]
    .iter()
    .flat_map(|&m| (0..per_material as u64).map(move |s| (m, s)))
    .collect();
    let nulls = parallel_map(&specs, |&(m, s)| run_nulling_trial(m, 770 + s * 7, 25.0));
    report::print_cdf("achieved nulling (dB)", &nulls, 11);
    println!(
        "\nmedian {:.1} dB, mean {:.1} dB  (paper: median 40 dB, mean 42 dB)",
        stats::median(&nulls),
        stats::mean(&nulls)
    );
}
