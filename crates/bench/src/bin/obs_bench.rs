//! The obs benchmark: regenerates `BENCH_obs.json`. `--quick` shortens the
//! microbenchmark rep counts; the on-vs-off pipeline probe runs at
//! full length either way (it has to resolve < 1 % against scheduler
//! noise). Pair with `obs_gate` to enforce the budgets the artifact
//! declares.

use wivi_bench::obs::{run_obs_bench, write_obs_json};
use wivi_bench::{quick_mode, report};

fn main() {
    report::header(
        "BENCH obs",
        "Cost of the observability layer itself",
        "budget: ≤ 20 ns/counter, ≤ 100 ns/span per thread; < 1 % pipeline overhead",
    );
    let mode = if quick_mode() { "quick" } else { "standard" };
    let obs = run_obs_bench(quick_mode());
    let rows: Vec<Vec<String>> = obs
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.threads),
                format!("{:.1}", r.counter_ns),
                format!("{:.1}", r.histogram_ns),
                format!("{:.1}", r.span_ns),
                format!("{:.1}", r.span_disabled_ns),
            ]
        })
        .collect();
    report::print_table(
        &["threads", "counter ns", "hist ns", "span ns", "off ns"],
        &rows,
    );
    println!(
        "obs overhead: median {:.3}s off vs {:.3}s on per {:.0}s streamed ⇒ {:.3}% gated \
         (raw {:+.3}%, noise floor {:.3}%)",
        obs.overhead.off_s,
        obs.overhead.on_s,
        obs.overhead.duration_s,
        100.0 * obs.overhead.overhead_frac(),
        100.0 * obs.overhead.raw_frac,
        100.0 * obs.overhead.noise_frac,
    );
    let path = "BENCH_obs.json";
    write_obs_json(path, &obs, mode).expect("failed to write BENCH_obs.json");
    println!("wrote {path} ({mode} mode)");
}
