//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload track_crossing --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: each unit of work runs once
//! untraced and once traced, the two outputs must agree bit for bit,
//! and the traced pass yields the per-layer ledger. Every run checks
//! the program's outputs, prints each metric with its unit, and ends
//! with one JSON line `{"correct", "attempted", "failed", "metrics"}`.
//! A failed check exits with status 1. The workloads, metrics and
//! their bounds live in [`catalog`]; `README.md` explains them.

mod catalog;
mod served;
mod standalone;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use stats::Tally;

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Metric values by name: the end-to-end set untraced, the
    /// per-layer set traced.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable context printed ahead of the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

struct Args {
    workload: &'static catalog::Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = catalog::DEFAULT_SEED;
    let mut seconds = catalog::RUN_SECONDS as f64;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    catalog::workload(&value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds '{value}'"))?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                };
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.traced {
        // Room for a whole traced pass between drains, set before the
        // first span allocates its ring.
        std::env::set_var("WIVI_OBS_RING", "262144");
    }
    // The untraced run measures the program as users run it; the
    // traced run switches observability on only around its traced
    // passes.
    wivi_obs::set_enabled(Some(false));

    let (seed, seconds, traced) = (args.seed, args.seconds, args.traced);
    // A session that panics inside the server leaves its client
    // waiting for an OUTPUT that never comes; end such a run as failed
    // instead of hanging.
    let limit = std::time::Duration::from_secs_f64((10.0 * seconds).max(170.0));
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "perfbench: run exceeded {} s; a client is stuck",
            limit.as_secs()
        );
        std::process::exit(1);
    });
    let outcome = match args.workload.name {
        "track_crossing" => standalone::track_crossing(seed, seconds, traced),
        "image_pacers" => standalone::image_pacers(seed, seconds, traced),
        "serve_steady" => served::serve_steady(seed, seconds, traced),
        "serve_churn" => served::serve_churn(seed, seconds, traced),
        other => unreachable!("catalog workload {other} has no implementation"),
    };
    report(&args, outcome)
}

/// Prints the run's notes, every metric with its unit (and, traced,
/// the end-to-end metric it should move), and the result line.
fn report(args: &Args, mut out: Outcome) -> ExitCode {
    println!(
        "workload {} seed {} (default {}, hold-out {}) seconds {} trace {}",
        args.workload.name,
        args.seed,
        catalog::DEFAULT_SEED,
        catalog::HOLDOUT_SEED,
        args.seconds,
        args.traced as u8
    );
    println!("  why: {}", args.workload.why);
    for note in &out.notes {
        println!("  {note}");
    }
    // (name, unit, what the line adds, measured on this workload)
    let expected: Vec<(&str, &str, String, bool)> = if args.traced {
        catalog::PER_LAYER
            .iter()
            .map(|m| {
                let about = format!("{} better -> {}", m.better.as_str(), m.moves);
                (m.name, m.unit, about, m.on.contains(&args.workload.name))
            })
            .collect()
    } else {
        catalog::END_TO_END
            .iter()
            .map(|m| {
                let bound = format!("{} better, bound {}%", m.better.as_str(), m.bound * 100.0);
                (m.name, m.unit, bound, true)
            })
            .collect()
    };
    let mut json = Vec::with_capacity(expected.len());
    for (name, unit, about, measured_here) in expected {
        // A layer this workload does not exercise reads 0. A metric it
        // should have measured but did not is a failure (a run cut short
        // by an earlier failure, or a missing measurement).
        let value = match out.values.get(name).copied() {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                out.tally.fail(format!("metric {name} is not finite ({v})"));
                0.0
            }
            None if !measured_here => 0.0,
            None => {
                out.tally.fail(format!("metric {name} was not measured"));
                0.0
            }
        };
        println!("{name:<40} {value:>16.6} {unit:<13} {about}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "failed_frac {} ({} of {} operations)",
        out.tally.failed_frac(),
        out.tally.failed,
        out.tally.attempted
    );
    for reason in &out.tally.reasons {
        println!("  FAILED: {reason}");
    }
    let correct = out.tally.failed == 0 && out.tally.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted.max(1),
        out.tally.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
