//! Microbenchmarks for the observability layer itself: what one
//! counter increment, histogram record, or span record costs, and what
//! `WIVI_OBS=1` does to an end-to-end pipeline run.
//!
//! The acceptance budget (DESIGN.md §13) is ≤ 20 ns per counter
//! increment and ≤ 100 ns per span record single-threaded, and < 1 %
//! wall-clock overhead on the standard tracking run with observability
//! enabled. `write_obs_json` emits `BENCH_obs.json` so future PRs
//! regress against all three.

use std::io::Write as _;
use std::sync::Barrier;
use std::time::Instant;

use wivi_core::WiViConfig;
use wivi_rf::{Material, Mover, Point, Scene, WaypointWalker};
use wivi_track::TrackTargets as _;

/// ns/event of each primitive at one concurrency level. Multi-thread
/// rows report *throughput-derived per-thread cost*:
/// `wall_ns × min(threads, cores) / total_events`. The earlier
/// per-thread wall-clock mean scaled linearly with thread count on a
/// single-core host — pure time-slicing, zero contention — and tripped
/// the budget on CI; normalizing by the host's effective parallelism
/// makes the number mean "CPU cost of one event" on any core count,
/// so the per-thread budget is enforceable everywhere.
#[derive(Clone, Debug)]
pub struct ObsTimingRow {
    /// Threads recording concurrently into the *same* instruments.
    pub threads: usize,
    /// One `Counter::inc` (striped relaxed fetch-add), ns.
    pub counter_ns: f64,
    /// One `Histogram::record` (bucket index + two stripe adds), ns.
    pub histogram_ns: f64,
    /// One open→drop span (two clock reads + a ring push), ns.
    pub span_ns: f64,
    /// One span call with observability disabled (the branch-only
    /// path every instrumented site pays in production), ns.
    pub span_disabled_ns: f64,
}

/// `WIVI_OBS` on-vs-off wall-clock of a short streaming tracking run.
/// Passes interleave off/on and each side reports its *median* pass:
/// interleaving cancels drift, the median discards scheduler outliers,
/// and unlike a minimum it converges with a handful of passes.
///
/// The headline [`overhead_frac`](Self::overhead_frac) is *drift
/// corrected*: the raw estimate is the median of the per-pass
/// fractional deltas (each pass times off and on back to back, so
/// slow process drift — allocator growth, thermal throttle — cancels
/// within the pass), and it is floored at the measured pass-to-pass
/// noise. An earlier build reported the signed ratio of the two
/// global medians and published `-0.030` — the enabled side happening
/// to draw quieter scheduler slots — which is not a number a budget
/// gate can act on. Negative or within-noise estimates now read as
/// zero; only genuine positive overhead beyond the noise floor
/// survives into the gated value. The raw signed estimate is kept for
/// diagnosis.
#[derive(Clone, Debug)]
pub struct ObsOverheadProbe {
    /// Simulated seconds streamed per run.
    pub duration_s: f64,
    /// Median wall-clock with observability disabled, seconds.
    pub off_s: f64,
    /// Median wall-clock with observability enabled, seconds.
    pub on_s: f64,
    /// Median of per-pass `(on - off) / off` — drift-corrected but
    /// still signed and noisy.
    pub raw_frac: f64,
    /// Noise floor: twice the median absolute deviation of the
    /// per-pass fractional deltas (never below 0.2 %, the timer's
    /// practical resolution at these run lengths).
    pub noise_frac: f64,
}

impl ObsOverheadProbe {
    /// Floor below which pass-to-pass spread is treated as timer
    /// resolution even on an unnaturally quiet host.
    pub const MIN_NOISE_FRAC: f64 = 0.002;

    /// Computes the drift-corrected estimate from per-pass (off, on)
    /// wall-clock pairs.
    pub fn from_passes(duration_s: f64, offs: &[f64], ons: &[f64]) -> Self {
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let mut fracs: Vec<f64> = offs
            .iter()
            .zip(ons)
            .map(|(off, on)| (on - off) / off.max(1e-12))
            .collect();
        let raw_frac = median(&mut fracs);
        let mut devs: Vec<f64> = fracs.iter().map(|x| (x - raw_frac).abs()).collect();
        let noise_frac = (2.0 * median(&mut devs)).max(Self::MIN_NOISE_FRAC);
        let (mut offs, mut ons) = (offs.to_vec(), ons.to_vec());
        ObsOverheadProbe {
            duration_s,
            off_s: median(&mut offs),
            on_s: median(&mut ons),
            raw_frac,
            noise_frac,
        }
    }

    /// Fractional overhead of enabling observability, gated on the
    /// measured noise floor: zero unless the drift-corrected estimate
    /// is positive and exceeds the pass-to-pass noise.
    pub fn overhead_frac(&self) -> f64 {
        if self.raw_frac > self.noise_frac {
            self.raw_frac
        } else {
            0.0
        }
    }
}

/// Everything the obs stage measured.
#[derive(Clone, Debug)]
pub struct ObsBenchReport {
    /// One row per concurrency level, ascending thread count.
    pub rows: Vec<ObsTimingRow>,
    pub overhead: ObsOverheadProbe,
}

/// Times `reps` iterations of `f` after a warmup, returning ns/iter of
/// the *best* of 8 equal chunks — one scheduler preemption inside a
/// single long timed loop would otherwise smear milliseconds across
/// every iteration, and on a one-core host that happens routinely.
fn time_ns<F: FnMut(u64)>(mut f: F, reps: u64) -> f64 {
    for i in 0..reps / 10 + 1 {
        f(i);
    }
    let chunk = (reps / 8).max(1);
    let mut best = f64::MAX;
    let mut i = 0u64;
    while i < reps {
        let n = chunk.min(reps - i);
        let t0 = Instant::now();
        for j in i..i + n {
            f(j);
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / n as f64);
        i += n;
    }
    best
}

/// Throughput-derived per-thread ns/iter with `threads` threads
/// hammering `f` concurrently: `wall_ns × min(threads, cores) /
/// total_events`, best of a few trials. Each trial lines the threads up
/// on a ready barrier, reads the clock, and only then releases them
/// through a second barrier, so the timed phase covers all of their
/// work even when the timing thread is descheduled between the
/// barriers (reading the clock after a single barrier could miss work
/// that finished before it ran, and report near-zero costs). Dividing wall
/// time by *total* events and multiplying back by the host's effective
/// parallelism reports CPU cost per event: on a one-core host the
/// threads time-share (wall = threads × reps × t, effective = 1) and
/// the ratio still comes out `t`, where the old per-thread wall-clock
/// mean reported `threads × t` — a pure measurement artifact that
/// tripped the budget. Real contention (cache-line bouncing, lock
/// convoys) still stretches wall time and shows up.
fn time_ns_threaded<F: Fn(u64) + Sync>(f: F, threads: usize, reps: u64) -> f64 {
    if threads == 1 {
        return time_ns(&f, reps);
    }
    for i in 0..reps / 10 + 1 {
        f(i);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let effective = threads.min(cores) as f64;
    let total_events = (threads as u64 * reps) as f64;
    let trials = 4;
    let mut best = f64::MAX;
    for _ in 0..trials {
        let (ready, go) = (Barrier::new(threads + 1), Barrier::new(threads + 1));
        let wall_ns = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let (f, ready, go) = (&f, &ready, &go);
                    scope.spawn(move || {
                        ready.wait();
                        go.wait();
                        for j in 0..reps {
                            f(j);
                        }
                    })
                })
                .collect();
            ready.wait();
            let t0 = Instant::now();
            go.wait();
            for h in handles {
                h.join().unwrap();
            }
            t0.elapsed().as_nanos() as f64
        });
        best = best.min(wall_ns * effective / total_events);
    }
    best
}

/// The scene the overhead probe streams: one walker behind drywall.
fn probe_scene() -> Scene {
    Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(-2.0, 2.5), Point::new(2.0, 2.5)],
            1.0,
        )))
}

/// One timed `track_targets_streaming` run at the device's default
/// batching.
fn timed_tracking_run(config: &WiViConfig, duration_s: f64) -> f64 {
    let mut dev = wivi_core::WiViDevice::new(probe_scene(), *config, 4242);
    dev.calibrate();
    let t0 = Instant::now();
    let _ = dev.track_targets_streaming(duration_s, wivi_core::device::DEFAULT_BATCH_LEN);
    t0.elapsed().as_secs_f64()
}

/// Runs the obs microbenchmarks at 1/2/4 threads plus the on-vs-off
/// pipeline probe. Forces observability on for the span measurements and
/// restores the environment-driven setting before returning.
pub fn run_obs_bench(quick: bool) -> ObsBenchReport {
    let reps: u64 = if quick { 200_000 } else { 2_000_000 };
    let reg = wivi_obs::Registry::new();
    let counter = reg.counter("bench.obs.counter");
    let hist = reg.histogram("bench.obs.histogram");

    let mut rows = Vec::new();
    for threads in [1usize, 2, 4] {
        let counter_ns = time_ns_threaded(|_| counter.inc(), threads, reps);
        let histogram_ns = time_ns_threaded(|i| hist.record(i & 0xFFFF), threads, reps);
        // Spans need the switch on; ring pushes are the dominant cost.
        wivi_obs::set_enabled(Some(true));
        let span_ns = time_ns_threaded(
            |i| drop(wivi_obs::span_with("bench.span", i)),
            threads,
            reps / 4,
        );
        wivi_obs::set_enabled(Some(false));
        let span_disabled_ns = time_ns_threaded(
            |i| drop(wivi_obs::span_with("bench.span", i)),
            threads,
            reps,
        );
        wivi_obs::set_enabled(None);
        rows.push(ObsTimingRow {
            threads,
            counter_ns,
            histogram_ns,
            span_ns,
            span_disabled_ns,
        });
    }
    // Drop the flood of bench spans so later drains see real telemetry.
    let _ = wivi_obs::drain();

    // On-vs-off pipeline overhead: interleaved off/on runs after a
    // warmup, each side keeping its median pass. The order within a
    // pass alternates (off/on, then on/off) so monotonic process drift
    // — allocator growth, thermal throttle — cannot systematically
    // charge one side. Same run length in both modes: the probe must
    // resolve < 1 % of a run against ~0.5 ms of scheduler noise, so
    // runs have to be long; quick mode only trims pass counts elsewhere.
    let duration_s = 4.0;
    let cfg = WiViConfig::paper_default();
    let _ = timed_tracking_run(&cfg, duration_s); // warmup
    let passes = 7;
    let (mut offs, mut ons) = (Vec::new(), Vec::new());
    for pass in 0..passes {
        let order = if pass % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for on in order {
            wivi_obs::set_enabled(Some(on));
            let t = timed_tracking_run(&cfg, duration_s);
            if on { &mut ons } else { &mut offs }.push(t);
        }
    }
    wivi_obs::set_enabled(None);
    let _ = wivi_obs::drain();

    ObsBenchReport {
        rows,
        overhead: ObsOverheadProbe::from_passes(duration_s, &offs, &ons),
    }
}

/// Writes `BENCH_obs.json`.
pub fn write_obs_json(path: &str, report: &ObsBenchReport, mode: &str) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"benchmark\": \"wivi_obs_overhead\",")?;
    let mode = mode.replace('\\', "\\\\").replace('"', "\\\"");
    writeln!(f, "  \"mode\": \"{mode}\",")?;
    // Budgets apply to every row's throughput-derived per-thread cost —
    // the obs_gate bin enforces them at each thread count, not just 1.
    writeln!(
        f,
        "  \"budget\": {{\"per_thread\": true, \"counter_ns\": 20, \"histogram_ns\": 25, \
         \"span_ns\": 100, \"pipeline_overhead_frac\": 0.01}},"
    )?;
    writeln!(f, "  \"events_ns\": [")?;
    for (i, r) in report.rows.iter().enumerate() {
        let comma = if i + 1 == report.rows.len() { "" } else { "," };
        writeln!(
            f,
            "    {{\"threads\": {}, \"counter_ns\": {:.2}, \"histogram_ns\": {:.2}, \
             \"span_ns\": {:.2}, \"span_disabled_ns\": {:.2}}}{comma}",
            r.threads, r.counter_ns, r.histogram_ns, r.span_ns, r.span_disabled_ns,
        )?;
    }
    writeln!(f, "  ],")?;
    let o = &report.overhead;
    writeln!(
        f,
        "  \"pipeline_overhead\": {{\"duration_s\": {:.1}, \"off_s\": {:.6}, \
         \"on_s\": {:.6}, \"raw_frac\": {:.6}, \"noise_frac\": {:.6}, \
         \"overhead_frac\": {:.6}}}",
        o.duration_s,
        o.off_s,
        o.on_s,
        o.raw_frac,
        o.noise_frac,
        o.overhead_frac(),
    )?;
    writeln!(f, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_bench_measures_and_writes_json() {
        let reg = wivi_obs::Registry::new();
        let c = reg.counter("bench.obs.test");
        let ns = time_ns_threaded(|_| c.inc(), 2, 10_000);
        assert!(ns > 0.0 && ns.is_finite());
        // Warmup (reps/10 + 1) plus 4 trials of 2 threads × reps each.
        assert_eq!(c.value(), (10_000 / 10 + 1) + 4 * 2 * 10_000);

        let report = ObsBenchReport {
            rows: vec![ObsTimingRow {
                threads: 1,
                counter_ns: 3.0,
                histogram_ns: 9.0,
                span_ns: 60.0,
                span_disabled_ns: 1.0,
            }],
            overhead: ObsOverheadProbe::from_passes(1.0, &[0.50, 0.51, 0.50], &[0.55, 0.56, 0.55]),
        };
        assert!((report.overhead.raw_frac - 0.1).abs() < 0.01);
        assert!(
            report.overhead.overhead_frac() > 0.05,
            "genuine overhead must survive"
        );

        let path = std::env::temp_dir().join("wivi_bench_obs_test.json");
        let path = path.to_str().unwrap();
        write_obs_json(path, &report, "quick").unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"benchmark\": \"wivi_obs_overhead\""));
        assert!(body.contains("\"events_ns\""));
        assert!(body.contains("\"span_disabled_ns\""));
        assert!(body.contains("\"pipeline_overhead\""));
        assert!(body.contains("\"per_thread\": true"));
        assert!(body.contains("\"noise_frac\""));
        assert!(body.contains("\"overhead_frac\""));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn overhead_noise_floor_zeroes_artifacts_but_not_real_overhead() {
        // The published artifact: enabled runs drawing quieter slots
        // produced a *negative* global-median ratio. Drift-corrected
        // per-pass medians plus the noise floor must read this as 0.
        let p = ObsOverheadProbe::from_passes(4.0, &[0.197, 0.196, 0.198], &[0.191, 0.192, 0.190]);
        assert!(p.raw_frac < 0.0, "raw stays signed for diagnosis");
        assert_eq!(p.overhead_frac(), 0.0, "negative estimates never gate");

        // A tiny positive estimate inside the noise band also reads 0.
        let p = ObsOverheadProbe::from_passes(4.0, &[0.200, 0.190, 0.210], &[0.201, 0.205, 0.196]);
        assert!(p.noise_frac >= ObsOverheadProbe::MIN_NOISE_FRAC);
        assert!(p.raw_frac.abs() <= p.noise_frac, "test setup: within noise");
        assert_eq!(p.overhead_frac(), 0.0);

        // Unambiguous 10 % overhead on a quiet host survives untouched.
        let p = ObsOverheadProbe::from_passes(4.0, &[0.200, 0.200, 0.200], &[0.220, 0.220, 0.220]);
        assert!((p.overhead_frac() - 0.1).abs() < 1e-9);
    }
}
