//! The standalone workloads: one trial at a time on one thread, driven
//! 16-sample batch by batch exactly as the device's `*_streaming` entry
//! points drive themselves, so the benchmark can time each layer call
//! from outside the program.
//!
//! * `track_crossing` — `ScenarioGrid::tracking` (both rooms, 6″ hollow
//!   wall, 0–3 crossing subjects): front-end batches → sink-only
//!   `StreamingMusic` → `MultiTargetTracker`, as
//!   `track_targets_streaming` does.
//! * `image_pacers` — the four `imaging_trials`: front-end batches →
//!   `StreamingImage`, as `image_streaming` does.
//!
//! Both are closed loops over whole passes of their trial set, each
//! trial seeded from the workload seed, the pass and the trial index.

use std::time::{Duration, Instant};

use wivi_bench::engine::{ground_truth_thetas, score_tracking, ScenarioGrid, ScenarioSpec};
use wivi_bench::imaging::{
    ground_truth_positions, imaging_trials, score_imaging, ImagingTrialSpec,
    IMAGING_SHOWCASE_DURATION_S, MATCH_RADIUS_M,
};
use wivi_bench::serving::REALTIME_RATE;
use wivi_core::device::DEFAULT_BATCH_LEN;
use wivi_core::music::smoothed_correlation_into;
use wivi_core::stage::Stage;
use wivi_core::{MusicConfig, MusicEngine, StreamingMusic, WiViConfig, WiViDevice};
use wivi_image::{nulling_tx_weight, ImageConfig, ImageThroughWall, ImagingReport, StreamingImage};
use wivi_num::eig::hermitian_eig_in;
use wivi_num::probe::{self, ProbeSnapshot};
use wivi_num::{CMatrix, Complex64, EigWorkspace};
use wivi_sdr::Observation;
use wivi_track::tracker::{
    MultiTargetTracker, TrackerConfig, TrackingReport, DOMINANCE_GAP_WINDOW,
};
use wivi_track::TrackTargets;

use crate::stats::{self, mean, mix, ratio, Tally};
use crate::Outcome;

/// Quality floors over a run's trials, about two thirds of what this
/// commit measures (count accuracy ~0.6, purity ~0.98, detection
/// ~0.87, error ~0.38 m): a program that still agrees with itself bit
/// for bit but has stopped tracking or imaging fails here.
const MIN_COUNT_ACCURACY: f64 = 0.4;
const MIN_TRACK_PURITY: f64 = 0.9;
const MIN_DETECTION_RATE: f64 = 0.6;
const MAX_LOC_ERROR_M: f64 = 0.6;

/// Per-layer busy time and work counts of a traced pass.
#[derive(Default)]
struct Layers {
    /// Scene build, device bring-up and engine tables (set-up other
    /// than nulling).
    setup: Duration,
    nulling: Duration,
    nulling_calls: usize,
    nulling_db: f64,
    /// Front-end batches plus subcarrier combining.
    sim: Duration,
    observations: usize,
    saturated: usize,
    music: Duration,
    windows: usize,
    /// Tracker time; the tracker takes one column per MUSIC window.
    track: Duration,
    image: Duration,
    image_windows: usize,
    /// Wall-clock of the traced trials, set-up included.
    wall: Duration,
    probes: ProbeSnapshot,
}

impl Layers {
    fn attributed(&self) -> Duration {
        self.setup + self.nulling + self.sim + self.music + self.track + self.image
    }
}

/// How one pass drives its trials, and what it accumulates.
struct Drive {
    traced: bool,
    layers: Layers,
    batch_ms: Vec<f64>,
    setup_s: Vec<f64>,
    stream_s: f64,
    samples: usize,
    trials: usize,
    /// A traced tracking trial leaves its effective MUSIC configuration
    /// and combined samples here for the replay.
    recorded: Vec<(MusicConfig, Vec<Complex64>)>,
    /// Per pass: (samples per stream second, trials per busy second).
    pass_rates: Vec<(f64, f64)>,
    /// (samples, stream s, trials, busy s) when the last pass closed.
    pass_totals: (f64, f64, f64, f64),
}

impl Drive {
    fn new(traced: bool) -> Self {
        Self {
            traced,
            layers: Layers::default(),
            batch_ms: Vec::new(),
            setup_s: Vec::new(),
            stream_s: 0.0,
            samples: 0,
            trials: 0,
            recorded: Vec::new(),
            pass_rates: Vec::new(),
            pass_totals: (0.0, 0.0, 0.0, 0.0),
        }
    }

    /// Set-up plus stream seconds so far.
    fn busy_s(&self) -> f64 {
        self.stream_s + self.setup_s.iter().sum::<f64>()
    }

    /// Books the rates of the pass that just ended.
    fn close_pass(&mut self) {
        let before = self.pass_totals;
        let now = (
            self.samples as f64,
            self.stream_s,
            self.trials as f64,
            self.busy_s(),
        );
        self.pass_rates.push((
            ratio(now.0 - before.0, now.1 - before.1),
            ratio(now.2 - before.2, now.3 - before.3),
        ));
        self.pass_totals = now;
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn add_probes(acc: &mut ProbeSnapshot, d: &ProbeSnapshot) {
    let add = |a: &mut [u64; probe::N_LEVELS], b: [u64; probe::N_LEVELS]| {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
    };
    add(&mut acc.focus, d.focus);
    add(&mut acc.rotations, d.rotations);
    acc.eig_calls += d.eig_calls;
    acc.eig_sweeps += d.eig_sweeps;
    acc.fft_runs += d.fft_runs;
}

/// Runs the batch loop of one calibrated device: pulls `total`
/// observations in 16-sample batches and hands each combined batch to
/// `consume`, timing the front end (traced) and the whole batch.
fn stream_batches(
    dev: &mut WiViDevice,
    total: usize,
    d: &mut Drive,
    keep: Option<&mut Vec<Complex64>>,
    mut consume: impl FnMut(&[Complex64], &mut Layers),
) {
    let traced = d.traced;
    let mut keep = keep;
    let mut stream = dev.frontend_mut().observe_stream(total, DEFAULT_BATCH_LEN);
    let mut batch: Vec<Observation> = Vec::with_capacity(DEFAULT_BATCH_LEN);
    let mut samples: Vec<Complex64> = Vec::with_capacity(DEFAULT_BATCH_LEN);
    loop {
        let b0 = Instant::now();
        if stream.next_batch_into(&mut batch) == 0 {
            break;
        }
        samples.clear();
        samples.extend(batch.iter().map(Observation::combined));
        if traced {
            d.layers.sim += b0.elapsed();
            d.layers.observations += batch.len();
            d.layers.saturated += batch.iter().filter(|o| o.saturated()).count();
            if let Some(k) = keep.as_deref_mut() {
                k.extend_from_slice(&samples);
            }
        }
        consume(&samples, &mut d.layers);
        d.batch_ms.push(ms(b0.elapsed()));
    }
    d.samples += total;
}

/// One tracking trial through the hand-driven batch loop.
fn track_trial(spec: &ScenarioSpec, cfg: &WiViConfig, d: &mut Drive) -> TrackingReport {
    let before = d.traced.then(probe::snapshot);
    let t0 = Instant::now();
    let mut dev = WiViDevice::new(spec.build_scene(), *cfg, spec.seed());
    let t1 = Instant::now();
    let nulling_db = dev.calibrate().nulling_db();
    let t2 = Instant::now();
    let music = dev.config().music;
    let mut stage = StreamingMusic::sink_only(music);
    let mut tracker = MultiTargetTracker::new(TrackerConfig::for_music(&music));
    let total = dev.trace_len(spec.duration_s);
    let ready = Instant::now();
    let mut keep = Vec::new();
    let traced = d.traced;
    stream_batches(
        &mut dev,
        total,
        d,
        traced.then_some(&mut keep),
        |samples, layers| {
            if traced {
                let m0 = Instant::now();
                let mut in_tracker = Duration::ZERO;
                let n = stage.push_with(samples, &mut |thetas, row| {
                    let c0 = Instant::now();
                    tracker.push_column(thetas, row);
                    in_tracker += c0.elapsed();
                });
                layers.music += m0.elapsed() - in_tracker;
                layers.track += in_tracker;
                layers.windows += n;
            } else {
                stage.push_with(samples, &mut |thetas, row| tracker.push_column(thetas, row));
            }
        },
    );
    let f0 = Instant::now();
    let report = tracker.finish();
    let end = Instant::now();
    finish_trial(d, t0, t1, t2, ready, end, nulling_db, before);
    if traced {
        d.layers.track += end - f0;
        d.recorded.push((music, keep));
    }
    report
}

/// One imaging trial through the hand-driven batch loop.
fn image_trial(spec: &ImagingTrialSpec, cfg: &WiViConfig, d: &mut Drive) -> ImagingReport {
    let before = d.traced.then(probe::snapshot);
    let t0 = Instant::now();
    let mut dev = WiViDevice::new(spec.build_scene(), *cfg, spec.seed);
    let t1 = Instant::now();
    let nulling_db = dev.calibrate().nulling_db();
    let t2 = Instant::now();
    let img = ImageConfig::for_wivi(dev.config());
    let mut stage = StreamingImage::new(img, nulling_tx_weight(&dev));
    let total = dev.trace_len(spec.duration_s);
    let ready = Instant::now();
    let traced = d.traced;
    stream_batches(&mut dev, total, d, None, |samples, layers| {
        if traced {
            let i0 = Instant::now();
            layers.image_windows += stage.push(samples);
            layers.image += i0.elapsed();
        } else {
            stage.push(samples);
        }
    });
    let f0 = Instant::now();
    let report = stage.finish();
    let end = Instant::now();
    finish_trial(d, t0, t1, t2, ready, end, nulling_db, before);
    if traced {
        d.layers.image += end - f0;
    }
    report
}

/// Books one trial's set-up and stream times (and, traced, its layer
/// split of the set-up and its probe counts).
#[allow(clippy::too_many_arguments)]
fn finish_trial(
    d: &mut Drive,
    t0: Instant,
    t1: Instant,
    t2: Instant,
    ready: Instant,
    end: Instant,
    nulling_db: f64,
    before: Option<ProbeSnapshot>,
) {
    d.setup_s.push((ready - t0).as_secs_f64());
    d.stream_s += (end - ready).as_secs_f64();
    d.trials += 1;
    if d.traced {
        let l = &mut d.layers;
        l.setup += (t1 - t0) + (ready - t2);
        l.nulling += t2 - t1;
        l.nulling_calls += 1;
        l.nulling_db += nulling_db;
        l.wall += end - t0;
        if let Some(b) = before {
            add_probes(&mut l.probes, &probe::snapshot().since(&b));
        }
    }
}

/// The tracking grid's trial `k` of pass `pass` under workload `seed`.
fn track_spec(cell: &ScenarioSpec, seed: u64, pass: u64, k: usize) -> ScenarioSpec {
    ScenarioSpec {
        trial: mix(seed, (pass << 32) | k as u64),
        ..*cell
    }
}

fn image_spec(base: &ImagingTrialSpec, seed: u64, pass: u64, k: usize) -> ImagingTrialSpec {
    ImagingTrialSpec {
        seed: mix(seed ^ 0x1A6E, (pass << 32) | k as u64),
        ..base.clone()
    }
}

/// Whether a timed loop that started at `start` has run long enough.
/// An untraced run needs `seconds` of measurement and enough latency
/// samples for a p99; a traced run needs only the time.
pub fn budget_spent(start: Instant, seconds: f64, traced: bool, latency_samples: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    if traced {
        return elapsed >= seconds;
    }
    (elapsed >= seconds && stats::supports_percentile(latency_samples, 99))
        || elapsed >= 6.0 * seconds
}

/// Tracking quality over a run.
#[derive(Default)]
struct TrackScore {
    accuracy: Vec<f64>,
    purity: Vec<f64>,
    tracks: usize,
}

fn score_track(spec: &ScenarioSpec, cfg: &WiViConfig, report: &TrackingReport, s: &mut TrackScore) {
    // The device consumes its scene; ground truth comes from a copy.
    let gt = ground_truth_thetas(&spec.build_scene(), cfg, &report.times_s);
    let latency = report.cfg.confirm_hits + DOMINANCE_GAP_WINDOW;
    let (acc, purity) = score_tracking(report, &gt, latency);
    s.accuracy.push(acc);
    s.purity.push(purity);
    s.tracks += report.tracks.len();
}

/// Imaging quality over a run.
#[derive(Default)]
struct ImageScore {
    detectable: usize,
    detected: usize,
    errors_m: Vec<f64>,
    fixes: usize,
    useful_fixes: usize,
}

fn score_image(spec: &ImagingTrialSpec, report: &ImagingReport, rx_x: f64, s: &mut ImageScore) {
    let gt = ground_truth_positions(&spec.build_scene(), &report.times_s);
    let score = score_imaging(report, &gt, rx_x, 1);
    s.detectable += score.n_detectable;
    s.detected += score.n_detected;
    s.errors_m.extend(score.errors_m);
    for (fixes, truth) in report.fixes.iter().zip(&gt) {
        for f in fixes {
            s.fixes += 1;
            if truth
                .iter()
                .any(|p| (f.x_m - p.x).hypot(f.y_m - p.y) <= MATCH_RADIUS_M)
            {
                s.useful_fixes += 1;
            }
        }
    }
}

/// The end-to-end metrics of an untraced drive.
fn end_to_end(out: &mut Outcome, d: &Drive, tally: &mut Tally) {
    // Rates are medians over passes and the tail a median over
    // 1000-batch chunks, so a neighbour's burst moves one pass or
    // chunk, not the run.
    let rates = |f: fn(&(f64, f64)) -> f64| -> f64 {
        stats::median(&d.pass_rates.iter().map(f).collect::<Vec<_>>())
    };
    out.set("setup_s", stats::median(&d.setup_s));
    out.set("samples_per_s", rates(|r| r.0));
    out.set("sessions_per_s", rates(|r| r.1));
    out.set("latency_p50_ms", stats::percentile(&d.batch_ms, 50.0));
    tally.check(stats::supports_percentile(d.batch_ms.len(), 99), || {
        format!("only {} batch latencies for a p99", d.batch_ms.len())
    });
    out.set("latency_p99_ms", stats::chunked_percentile(&d.batch_ms, 99));
    out.set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
    out.notes.push(format!(
        "{} trials, {} channel samples, {} batches; {:.2} real-time sessions per core",
        d.trials,
        d.samples,
        d.batch_ms.len(),
        ratio(d.samples as f64, d.stream_s) / REALTIME_RATE
    ));
}

/// The layer metrics a traced standalone drive measures directly. The
/// serving-only layers read 0 here.
fn standalone_layers(out: &mut Outcome, d: &Drive, untraced_wall: f64) {
    let l = &d.layers;
    let wall = l.wall.as_secs_f64();
    let samples = d.samples as f64;
    let trials = d.trials as f64;
    let p = &l.probes;
    out.set("sim.ns_per_sample", ratio(l.sim.as_nanos() as f64, samples));
    out.set("sim.share", ratio(l.sim.as_secs_f64(), wall));
    out.set("sim.fft_runs_per_sample", ratio(p.fft_runs as f64, samples));
    out.set(
        "sim.saturated_frac",
        ratio(l.saturated as f64, l.observations as f64),
    );
    out.set(
        "nulling.ms_per_call",
        ratio(ms(l.nulling), l.nulling_calls as f64),
    );
    out.set(
        "nulling.depth_db",
        ratio(l.nulling_db, l.nulling_calls as f64),
    );
    out.set("music.windows_per_session", ratio(l.windows as f64, trials));
    out.set(
        "music.ns_per_window",
        ratio(l.music.as_nanos() as f64, l.windows as f64),
    );
    out.set("music.share", ratio(l.music.as_secs_f64(), wall));
    out.set(
        "music.eig_sweeps_per_window",
        ratio(p.eig_sweeps as f64, p.eig_calls as f64),
    );
    out.set(
        "music.eig_rotations_per_window",
        ratio(p.rotations.iter().sum::<u64>() as f64, p.eig_calls as f64),
    );
    out.set(
        "track.ns_per_column",
        ratio(l.track.as_nanos() as f64, l.windows as f64),
    );
    out.set("track.share", ratio(l.track.as_secs_f64(), wall));
    out.set(
        "image.windows_per_session",
        ratio(l.image_windows as f64, trials),
    );
    out.set(
        "image.ns_per_window",
        ratio(l.image.as_nanos() as f64, l.image_windows as f64),
    );
    out.set("image.share", ratio(l.image.as_secs_f64(), wall));
    out.set(
        "image.focus_calls_per_window",
        ratio(p.focus.iter().sum::<u64>() as f64, l.image_windows as f64),
    );
    let compute = (l.sim + l.music + l.track + l.image).as_secs_f64();
    out.set(
        "bench.compute_s_per_25s_trace",
        ratio(compute, samples) * 25.0 * REALTIME_RATE,
    );
    out.set(
        "bench.attributed_frac",
        ratio(l.attributed().as_secs_f64(), wall),
    );
    out.set(
        "bench.trace_overhead_frac",
        ratio(wall, untraced_wall) - 1.0,
    );
}

/// The MUSIC split, from replaying each traced trial's windows right
/// after the trial: the whole window through a `MusicEngine`, then its
/// correlation and eigensolve alone. The projection is the difference.
/// Every replayed solve also gets the residual check that exposes a
/// Jacobi loop stopped unconverged.
struct Replay {
    engine: MusicEngine,
    r: CMatrix,
    ws: EigWorkspace,
    windows: usize,
    full: Duration,
    corr: Duration,
    eig: Duration,
    unconverged: usize,
    /// The largest residual relative to `‖R‖_F` alone.
    worst_relative: f64,
}

impl Replay {
    /// A replay under `music`, the device's effective MUSIC
    /// configuration (noise floor filled in).
    fn new(music: MusicConfig) -> Self {
        Self {
            engine: MusicEngine::new(music),
            r: CMatrix::zeros(music.subarray, music.subarray),
            ws: EigWorkspace::new(music.subarray),
            windows: 0,
            full: Duration::ZERO,
            corr: Duration::ZERO,
            eig: Duration::ZERO,
            unconverged: 0,
            worst_relative: 0.0,
        }
    }

    fn trial(&mut self, trace: &[Complex64]) {
        let music = *self.engine.cfg();
        let (w, sub) = (music.isar.window, music.subarray);
        for start in (0..trace.len().saturating_sub(w - 1)).step_by(music.isar.hop) {
            let window = &trace[start..start + w];
            let t0 = Instant::now();
            std::hint::black_box(self.engine.process_window(window));
            let t1 = Instant::now();
            smoothed_correlation_into(window, sub, &mut self.r);
            let t2 = Instant::now();
            hermitian_eig_in(&self.r, &mut self.ws);
            let t3 = Instant::now();
            self.full += t1 - t0;
            self.corr += t2 - t1;
            self.eig += t3 - t2;
            let res = stats::eig_residual(&self.r, self.ws.values(), self.ws.vectors());
            let norm = self.r.frobenius_norm();
            self.worst_relative = self.worst_relative.max(res * (1.0 + norm) / norm);
            if res > stats::EIG_RESIDUAL_TOL {
                self.unconverged += 1;
            }
            self.windows += 1;
        }
    }

    fn per_window_ns(&self, d: Duration) -> f64 {
        ratio(d.as_nanos() as f64, self.windows as f64)
    }
}

/// Runs trials pass by pass until the budget is spent. Untraced, it
/// returns one drive. Traced, every trial runs twice — untraced and
/// traced, alternating which goes first so drift cancels — and the two
/// outputs must be equal; the second drive holds the traced pass.
/// Returns the drives and every trial's spec and untraced output.
fn drive_passes<S, R: PartialEq>(
    seconds: f64,
    traced: bool,
    specs: impl Fn(u64) -> Vec<S>,
    mut trial: impl FnMut(&S, &mut Drive) -> R,
    tally: &mut Tally,
) -> (Drive, Drive, Vec<(S, R)>) {
    let start = Instant::now();
    let (mut plain, mut ledger) = (Drive::new(false), Drive::new(true));
    let mut done = Vec::new();
    for pass in 0.. {
        for spec in specs(pass) {
            let output = if !traced {
                trial(&spec, &mut plain)
            } else if done.len() % 2 == 0 {
                let untraced = trial(&spec, &mut plain);
                let again = traced_call(&mut trial, &spec, &mut ledger);
                tally.check(again == untraced, || {
                    format!("trial {}: traced output differs from untraced", done.len())
                });
                untraced
            } else {
                let again = traced_call(&mut trial, &spec, &mut ledger);
                let untraced = trial(&spec, &mut plain);
                tally.check(again == untraced, || {
                    format!("trial {}: traced output differs from untraced", done.len())
                });
                untraced
            };
            done.push((spec, output));
        }
        plain.close_pass();
        if budget_spent(start, seconds, traced, plain.batch_ms.len()) {
            break;
        }
    }
    (plain, ledger, done)
}

/// One trial with observability on: spans, kernel probes and the
/// engine-cache counters record only here.
fn traced_call<S, R>(trial: &mut impl FnMut(&S, &mut Drive) -> R, spec: &S, d: &mut Drive) -> R {
    wivi_obs::set_enabled(Some(true));
    let r = trial(spec, d);
    wivi_obs::set_enabled(Some(false));
    r
}

pub fn track_crossing(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let cfg = WiViConfig::paper_default();
    let cells = ScenarioGrid::tracking().specs();
    let specs = |pass: u64| -> Vec<ScenarioSpec> {
        cells
            .iter()
            .enumerate()
            .map(|(k, c)| track_spec(c, seed, pass, k))
            .collect()
    };
    let mut tally = Tally::default();

    // Start-up check: the hand-driven loop reproduces the device's own
    // streaming entry point bit for bit (two crossing subjects).
    let probe_spec = track_spec(&cells[2], seed, u64::MAX, 2);
    let mut check = Drive::new(false);
    let ours = track_trial(&probe_spec, &cfg, &mut check);
    let mut dev = WiViDevice::new(probe_spec.build_scene(), cfg, probe_spec.seed());
    dev.calibrate();
    let theirs = dev.track_targets_streaming(probe_spec.duration_s, DEFAULT_BATCH_LEN);
    tally.check(ours == theirs, || {
        "hand-driven batch loop differs from track_targets_streaming".into()
    });

    let mut replay: Option<Replay> = None;
    let (d, t, done) = drive_passes(
        seconds,
        traced,
        specs,
        |s, d| {
            let report = track_trial(s, &cfg, d);
            if let Some((music, trace)) = d.recorded.pop() {
                // The replay is the benchmark's own work: untraced.
                wivi_obs::set_enabled(Some(false));
                replay
                    .get_or_insert_with(|| Replay::new(music))
                    .trial(&trace);
            }
            report
        },
        &mut tally,
    );
    let mut quality = TrackScore::default();
    for (spec, report) in &done {
        score_track(spec, &cfg, report, &mut quality);
        tally.ok();
    }
    let (accuracy, purity) = (mean(&quality.accuracy), mean(&quality.purity));
    tally.check(
        accuracy >= MIN_COUNT_ACCURACY && purity >= MIN_TRACK_PURITY,
        || format!("tracking quality fell to accuracy {accuracy:.3}, purity {purity:.3}"),
    );
    let mut out = Outcome::default();
    if !traced {
        end_to_end(&mut out, &d, &mut tally);
    } else {
        standalone_layers(&mut out, &t, d.busy_s());
        let replay = replay.expect("a traced run replays at least one trial");
        tally.check(replay.windows == t.layers.windows, || {
            format!(
                "replayed {} windows of {}",
                replay.windows, t.layers.windows
            )
        });
        let (full, corr, eig) = (
            replay.per_window_ns(replay.full),
            replay.per_window_ns(replay.corr),
            replay.per_window_ns(replay.eig),
        );
        out.set("music.corr_ns_per_window", corr);
        out.set("music.eig_ns_per_window", eig);
        out.set("music.proj_ns_per_window", full - corr - eig);
        // The replay's split applied to the traced pass's MUSIC time, so
        // drift between the two cannot skew the share.
        let music_share = ratio(t.layers.music.as_secs_f64(), t.layers.wall.as_secs_f64());
        out.set("music.eig_share", music_share * ratio(eig, full));
        out.set("music.eig_unconverged", replay.unconverged as f64);
        out.set(
            "track.tracks_confirmed",
            ratio(quality.tracks as f64, done.len() as f64),
        );
        out.set("track.count_accuracy", accuracy);
        out.set("track.purity", purity);
        out.notes.push(format!(
            "traced {} trials: {} MUSIC windows replayed, eig residual tolerance {:e}; \
             worst residual relative to ||R|| alone {:.2e}",
            t.trials,
            replay.windows,
            stats::EIG_RESIDUAL_TOL,
            replay.worst_relative
        ));
    }
    out.notes.push(format!(
        "count accuracy {accuracy:.3}, track purity {purity:.3}, {:.2} confirmed tracks per trial",
        ratio(quality.tracks as f64, done.len() as f64)
    ));
    out.tally = tally;
    out
}

pub fn image_pacers(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let cfg = WiViConfig::paper_default();
    let img = ImageConfig::for_wivi(&cfg);
    let bases = imaging_trials(IMAGING_SHOWCASE_DURATION_S);
    let specs = |pass: u64| -> Vec<ImagingTrialSpec> {
        bases
            .iter()
            .enumerate()
            .map(|(k, b)| image_spec(b, seed, pass, k))
            .collect()
    };
    let mut tally = Tally::default();

    // Start-up check: the hand-driven loop reproduces the device's
    // streaming imaging entry point bit for bit (two pacers).
    let probe_spec = image_spec(&bases[1], seed, u64::MAX, 1);
    let mut check = Drive::new(false);
    let ours = image_trial(&probe_spec, &cfg, &mut check);
    let mut dev = WiViDevice::new(probe_spec.build_scene(), cfg, probe_spec.seed);
    dev.calibrate();
    let theirs = dev.image_streaming(probe_spec.duration_s, DEFAULT_BATCH_LEN);
    tally.check(ours == theirs, || {
        "hand-driven batch loop differs from image_streaming".into()
    });

    let (d, t, done) = drive_passes(
        seconds,
        traced,
        specs,
        |s, d| image_trial(s, &cfg, d),
        &mut tally,
    );
    let mut quality = ImageScore::default();
    for (spec, report) in &done {
        score_image(spec, report, img.rx.x, &mut quality);
        tally.ok();
    }
    let detection = ratio(quality.detected as f64, quality.detectable as f64);
    let error_m = mean(&quality.errors_m);
    tally.check(
        detection >= MIN_DETECTION_RATE && error_m <= MAX_LOC_ERROR_M,
        || format!("imaging quality fell to detection {detection:.3}, error {error_m:.3} m"),
    );
    let mut out = Outcome::default();
    if !traced {
        end_to_end(&mut out, &d, &mut tally);
    } else {
        standalone_layers(&mut out, &t, d.busy_s());
        out.set(
            "image.cells_per_s",
            ratio(
                (t.layers.image_windows * img.grid.len()) as f64,
                t.layers.image.as_secs_f64(),
            ),
        );
        out.set(
            "image.useful_fix_frac",
            ratio(quality.useful_fixes as f64, quality.fixes as f64),
        );
        out.set("image.detection_rate", detection);
        out.set("image.loc_error_m", error_m);
    }
    out.notes.push(format!(
        "detection rate {detection:.3}, mean localization error {error_m:.3} m, {} of {} fixes within {} m",
        quality.useful_fixes,
        quality.fixes,
        MATCH_RADIUS_M
    ));
    out.tally = tally;
    out
}
