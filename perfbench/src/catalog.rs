//! What the benchmark measures: its workloads, its end-to-end metrics
//! with their regression bounds, and its per-layer metrics with the
//! end-to-end metric and workload each should move. `BENCHMARK.json`
//! at the repository root is generated from these tables
//! ([`benchmark_json`]); a test keeps the two identical.

/// Whether a larger value of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Why it was chosen (one line, for `BENCHMARK.json`).
    pub why: &'static str,
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric of the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metrics this layer metric should move, on which
    /// workloads, and where it should stay flat.
    pub moves: &'static str,
    /// The workloads that measure it; elsewhere the layer does no such
    /// work and the metric reads 0.
    pub on: &'static [&'static str],
}

/// Seed of the default runs; a claim made on it must also hold on
/// [`HOLDOUT_SEED`], which no change should be tuned against.
pub const DEFAULT_SEED: u64 = 1;
pub const HOLDOUT_SEED: u64 = 7919;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 15;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "track_crossing",
        why: "Streaming MUSIC tracking over the crossing grid (2 rooms, 0-3 movers), one trial at a time on one thread: eigensolve and simulator own the clock; eig and tracker changes show here",
    },
    Workload {
        name: "image_pacers",
        why: "The four imaging trials streamed through StreamingImage on one thread: simulator-heavy plus focus and CFAR, and no eigensolve, so an eigensolver change must leave it flat",
    },
    Workload {
        name: "serve_steady",
        why: "Five-mode soak mix of 4 s sessions over a loopback WireServer (2 shards x 1 worker), one connection opens all then drains: the serving hot path; does a kernel win survive serving",
    },
    Workload {
        name: "serve_churn",
        why: "Short count/track/gestures sessions, each connect-HELLO-OPEN-FINISH-OUTPUT-BYE, 2 connections in a closed loop: per-session open costs (accept, admission, nulling) dominate",
    },
];

/// The end-to-end metrics. Every workload reports every one. The
/// bounds are wide because the benchmark host's speed drifts by up to
/// ~20 % over minutes (shared machine); each run already reports
/// medians over passes, rounds or time slices. The unit
/// of work behind the latency and throughput metrics is a 16-sample
/// batch on `track_crossing`, `image_pacers` and `serve_steady`, and a
/// whole connect-to-BYE request on `serve_churn`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "samples_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "sessions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
];

const SIM_MOVES: &str =
    "samples_per_s, latency_p50_ms: image_pacers (most), track_crossing; latency_p50_ms: serve_churn";
const NULLING_MOVES: &str = "latency_p50_ms, sessions_per_s: serve_churn; setup_s elsewhere";
const MUSIC_MOVES: &str =
    "samples_per_s, latency_p99_ms: track_crossing, serve_steady; flat on image_pacers";
const TRACK_MOVES: &str = "samples_per_s: track_crossing";
const IMAGE_MOVES: &str =
    "latency_p99_ms, samples_per_s: image_pacers; samples_per_s: serve_steady (1 of 5 modes)";
const SERVE_MOVES: &str = "samples_per_s, latency_p99_ms: serve_steady";
const NET_MOVES: &str =
    "latency_p50_ms, latency_p99_ms, sessions_per_s: serve_churn; open-path changes show here";
const ADMISSION_MOVES: &str = "failures (the run's failed count): serve_churn, serve_steady";
const BENCH_MOVES: &str = "none: checks on the ledger itself";

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

// Which workloads exercise a layer.
const ALL: &[&str] = &[
    "track_crossing",
    "image_pacers",
    "serve_steady",
    "serve_churn",
];
const STANDALONE: &[&str] = &["track_crossing", "image_pacers"];
const TRACKING: &[&str] = &["track_crossing"];
const IMAGING: &[&str] = &["image_pacers"];
const MUSIC: &[&str] = &["track_crossing", "serve_steady", "serve_churn"];
const FOCUS: &[&str] = &["image_pacers", "serve_steady"];
const SERVING: &[&str] = &["serve_steady", "serve_churn"];

use Better::{Higher, Lower};

/// The per-layer metrics.
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    // Simulator: wivi-rf scene tracing + wivi-sdr OFDM front end.
    layer("sim.ns_per_sample", "ns/sample", Lower, SIM_MOVES, ALL),
    layer("sim.share", "fraction", Lower, SIM_MOVES, ALL),
    layer("sim.fft_runs_per_sample", "count/sample", Lower, SIM_MOVES, ALL),
    layer("sim.saturated_frac", "fraction", Lower, SIM_MOVES, STANDALONE),
    // Algorithm 1 nulling (wivi-core::nulling).
    layer("nulling.ms_per_call", "ms/call", Lower, NULLING_MOVES, ALL),
    layer("nulling.depth_db", "dB", Higher, NULLING_MOVES, ALL),
    // Smoothed MUSIC (wivi-core::music) and its eigensolver (wivi-num::eig).
    layer("music.windows_per_session", "count/session", Higher, MUSIC_MOVES, MUSIC),
    layer("music.ns_per_window", "ns/window", Lower, MUSIC_MOVES, MUSIC),
    layer("music.share", "fraction", Lower, MUSIC_MOVES, MUSIC),
    layer("music.corr_ns_per_window", "ns/window", Lower, MUSIC_MOVES, TRACKING),
    layer("music.eig_ns_per_window", "ns/window", Lower, MUSIC_MOVES, TRACKING),
    layer("music.proj_ns_per_window", "ns/window", Lower, MUSIC_MOVES, TRACKING),
    layer("music.eig_share", "fraction", Lower, MUSIC_MOVES, TRACKING),
    layer("music.eig_sweeps_per_window", "count/window", Lower, MUSIC_MOVES, MUSIC),
    layer("music.eig_rotations_per_window", "count/window", Lower, MUSIC_MOVES, MUSIC),
    layer("music.eig_unconverged", "count", Lower, MUSIC_MOVES, TRACKING),
    // Multi-target tracker (wivi-track).
    layer("track.ns_per_column", "ns/column", Lower, TRACK_MOVES, TRACKING),
    layer("track.share", "fraction", Lower, TRACK_MOVES, TRACKING),
    layer("track.tracks_confirmed", "count/session", Higher, TRACK_MOVES, TRACKING),
    layer("track.count_accuracy", "fraction", Higher, TRACK_MOVES, TRACKING),
    layer("track.purity", "fraction", Higher, TRACK_MOVES, TRACKING),
    // Backprojection imaging (wivi-image).
    layer("image.windows_per_session", "count/session", Higher, IMAGE_MOVES, FOCUS),
    layer("image.ns_per_window", "ns/window", Lower, IMAGE_MOVES, FOCUS),
    layer("image.share", "fraction", Lower, IMAGE_MOVES, FOCUS),
    layer("image.cells_per_s", "1/s", Higher, IMAGE_MOVES, FOCUS),
    layer("image.focus_calls_per_window", "count/window", Lower, IMAGE_MOVES, FOCUS),
    layer("image.useful_fix_frac", "fraction", Higher, IMAGE_MOVES, IMAGING),
    layer("image.detection_rate", "fraction", Higher, IMAGE_MOVES, IMAGING),
    layer("image.loc_error_m", "m", Lower, IMAGE_MOVES, IMAGING),
    // Serving engine (wivi-serve shards, engine cache, SLO accounting).
    layer("serve.core_occupancy", "fraction", Higher, SERVE_MOVES, SERVING),
    layer("serve.engines_resident", "count", Lower, SERVE_MOVES, SERVING),
    layer("serve.engine_cache_hit_frac", "fraction", Higher, SERVE_MOVES, SERVING),
    layer("serve.slo_burn", "fraction", Lower, SERVE_MOVES, SERVING),
    layer("serve.queue_depth_max", "count", Lower, SERVE_MOVES, SERVING),
    layer("serve.stream_ms_per_session.count", "ms/session", Lower, SERVE_MOVES, SERVING),
    layer("serve.stream_ms_per_session.track", "ms/session", Lower, SERVE_MOVES, SERVING),
    layer("serve.stream_ms_per_session.track_targets", "ms/session", Lower, SERVE_MOVES, SERVING),
    layer("serve.stream_ms_per_session.gestures", "ms/session", Lower, SERVE_MOVES, SERVING),
    layer("serve.stream_ms_per_session.image", "ms/session", Lower, SERVE_MOVES, SERVING),
    // Network front, admission and wire codec (wivi-serve::net/admission/wire).
    layer("net.connect_us", "us/connect", Lower, NET_MOVES, SERVING),
    layer("net.open_rtt_p50_us", "us/open", Lower, NET_MOVES, SERVING),
    layer("net.open_rtt_p99_us", "us/open", Lower, NET_MOVES, SERVING),
    layer("admission.admitted", "count", Higher, ADMISSION_MOVES, SERVING),
    layer("admission.shed", "count", Lower, ADMISSION_MOVES, SERVING),
    layer("admission.rejected", "count", Lower, ADMISSION_MOVES, SERVING),
    layer("wire.bytes_per_session", "B/session", Lower, NET_MOVES, SERVING),
    layer("wire.encode_ns_per_output", "ns/output", Lower, NET_MOVES, SERVING),
    layer("wire.decode_ns_per_frame", "ns/frame", Lower, NET_MOVES, SERVING),
    // The ledger's own closure and cost.
    layer("bench.attributed_frac", "fraction", Higher, BENCH_MOVES, ALL),
    layer("bench.trace_overhead_frac", "fraction", Lower, BENCH_MOVES, ALL),
    layer("bench.compute_s_per_25s_trace", "s/trace", Lower, SIM_MOVES, ALL),
];

/// The workload named `name`, if any.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The text of the repository's `BENCHMARK.json`.
#[cfg(test)]
fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_generated_from_this_catalog() {
        let committed = include_str!("../../BENCHMARK.json");
        let expected = benchmark_json();
        assert!(
            committed == expected,
            "BENCHMARK.json is stale; regenerate it as:\n{expected}"
        );
    }

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_are_within_the_format() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(names.iter().all(|n| valid_name(n)), "bad name in {names:?}");
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        for m in END_TO_END {
            assert!(
                valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        for m in PER_LAYER {
            assert!(valid_unit(m.unit) && !m.moves.is_empty(), "{}", m.name);
            assert!(m.on.iter().all(|w| workload(w).is_some()), "{}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        // setup_s carries the largest bound, so work moved into set-up
        // is caught without the noisiest metric tripping first.
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn direction_follows_what_the_metric_counts() {
        // Rates are better higher; times, sizes and costs lower; the
        // quality fractions are listed explicitly.
        let quality_higher = [
            "serve.core_occupancy",
            "serve.engine_cache_hit_frac",
            "track.count_accuracy",
            "track.purity",
            "image.useful_fix_frac",
            "image.detection_rate",
            "bench.attributed_frac",
        ];
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)));
        for (name, unit, better) in all {
            let expected = match unit {
                "1/s" | "count/session" | "dB" => Better::Higher,
                "fraction" if quality_higher.contains(&name) => Better::Higher,
                "count" if name == "admission.admitted" => Better::Higher,
                _ => Better::Lower,
            };
            assert_eq!(better, expected, "{name} ({unit})");
        }
    }
}
