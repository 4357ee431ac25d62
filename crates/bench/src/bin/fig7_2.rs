//! Figure 7-2 — tracking traces for one, two and three humans moving at
//! will in a closed room (3 trials per count).

use wivi_bench::report;
use wivi_bench::scenarios::{counting_scene, Room};
use wivi_bench::trials;
use wivi_core::{WiViConfig, WiViDevice};
use wivi_num::par::parallel_map;

fn main() {
    report::header(
        "Fig. 7-2",
        "A'[θ, n] traces for 1 / 2 / 3 humans (smoothed MUSIC)",
        "as many fuzzy curved lines as simultaneously moving humans, plus the DC \
         line; fuzzier with more people",
    );
    let n_trials = trials(3, 1);
    let specs: Vec<(usize, u64)> = (1..=3usize)
        .flat_map(|n| (0..n_trials as u64).map(move |s| (n, s)))
        .collect();
    let panels = parallel_map(&specs, |&(n, s)| {
        let seed = 720 + 10 * n as u64 + s;
        let scene = counting_scene(Room::Small, n, seed, 7.0);
        let mut dev = WiViDevice::new(scene, WiViConfig::paper_default(), seed);
        dev.calibrate();
        let spec = dev.track(7.0);
        (n, s, spec.render_ascii(13, 64))
    });
    for (n, s, art) in panels {
        println!("\n--- {n} human(s), trial {} ---", s + 1);
        println!("{art}");
    }
}
