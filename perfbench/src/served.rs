//! The serving workloads, driven over a loopback `WireServer` by at
//! most two client threads and connections:
//!
//! * `serve_steady` — rounds of the five-mode soak mix (`soak_sessions`,
//!   4 s sessions) on 2 shards × 1 worker. Each round starts a server,
//!   one connection OPENs every session, FINISHes and drains, and the
//!   server shuts down.
//! * `serve_churn` — one server; 2 connections in a closed loop, each
//!   request a whole connect → HELLO → OPEN → FINISH → OUTPUT → BYE of
//!   one short session (a few MUSIC windows) cycling count, track and
//!   gestures over the tracking grid's scenes. Each connection's
//!   session ids map to its own shard.
//!
//! A serving run's `setup_s` is the median, over [`SETUPS`] fresh
//! servers, of the time from the first scene built to the first OUTPUT
//! of a one-batch session.
//!
//! Per-layer numbers come from what the crates already expose: the
//! span rings (`session.*`, `music.window`, `beamform.window`,
//! `image.window_fixes`), the kernel probes, `ServeReport`,
//! `WireServerReport`, the engine-cache counters and `GET /healthz`.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use wivi_bench::engine::ScenarioGrid;
use wivi_bench::serving::{soak_sessions, REALTIME_RATE};
use wivi_core::WiViConfig;
use wivi_image::ImageConfig;
use wivi_num::probe::{self, ProbeSnapshot};
use wivi_serve::net::{ClientError, FinishReport};
use wivi_serve::wire::{self, Frame};
use wivi_serve::{
    shard_of, OpenRequest, ServeConfig, ServeReport, WireClient, WireServer, WireServerConfig,
    WireServerReport,
};

use crate::standalone::budget_spent;
use crate::stats::{self, mean, mix, output_shortfall, ratio, Tally};
use crate::Outcome;

/// Each serving mode and its per-session stream-time metric.
const MODE_STREAM_MS: [(&str, &str); 5] = [
    ("count", "serve.stream_ms_per_session.count"),
    ("track", "serve.stream_ms_per_session.track"),
    ("track_targets", "serve.stream_ms_per_session.track_targets"),
    ("gestures", "serve.stream_ms_per_session.gestures"),
    ("image", "serve.stream_ms_per_session.image"),
];

/// Sessions per `serve_steady` round: two cycles of the five modes.
const STEADY_SESSIONS: usize = 10;
const STEADY_DURATION_S: f64 = 4.0;
/// `serve_churn` session length: 156 samples, four analysis windows
/// (w = 100, hop = 16). The gesture decoder needs at least three; a
/// shorter gestures session panics its shard at drain.
const CHURN_DURATION_S: f64 = 0.5;
const CHURN_MODES: [&str; 3] = ["count", "track", "gestures"];
const CHURN_CLIENTS: usize = 2;
/// Server set-ups timed per run: set-up takes well under a
/// millisecond, so one run times many and reports the median.
const SETUPS: usize = 31;
/// Slices a `serve_churn` run is cut into for its median rates.
const CHURN_SLICES: usize = 8;
const TOKEN: &str = "perfbench";
const CONFIG: &str = "paper";

/// Shards of every server, one worker each.
const SHARDS: usize = 2;

fn serve_config() -> ServeConfig {
    ServeConfig {
        batch_len: wivi_core::device::DEFAULT_BATCH_LEN,
        ..ServeConfig::with_shards_workers(SHARDS, 1)
    }
}

/// A server's wire output for one request: the OUTPUT payload plus the
/// EVENT payloads, exactly as received.
#[derive(PartialEq)]
struct Received {
    output: Vec<u8>,
    events: Vec<Vec<u8>>,
}

/// What a client saw of its sessions.
#[derive(Default)]
struct ClientSide {
    /// Session id → wire bytes received.
    received: BTreeMap<u64, Received>,
    /// Per completed request: (completion s since the pass began,
    /// samples, connect-to-BYE ms).
    done: Vec<(f64, f64, f64)>,
    connect_us: Vec<f64>,
    open_rtt_us: Vec<f64>,
    wire_bytes: usize,
    samples: u64,
    completed: usize,
    shed: u64,
    rejected: u64,
    queue_max: usize,
}

impl ClientSide {
    fn absorb(&mut self, other: ClientSide) {
        self.received.extend(other.received);
        self.done.extend(other.done);
        self.connect_us.extend(other.connect_us);
        self.open_rtt_us.extend(other.open_rtt_us);
        self.wire_bytes += other.wire_bytes;
        self.samples += other.samples;
        self.completed += other.completed;
        self.shed += other.shed;
        self.rejected += other.rejected;
        self.queue_max = self.queue_max.max(other.queue_max);
    }
}

/// Classifies a failed OPEN: shed at the queue-full boundary, or
/// refused (any other ERROR frame), or a transport failure.
fn open_failed(e: &ClientError, id: u64, side: &mut ClientSide, tally: &mut Tally) {
    match e {
        ClientError::Server { code, .. } if code == "overloaded" => {
            side.shed += 1;
            tally.fail(format!("session {id}: shed"));
        }
        ClientError::Server { code, .. } => {
            side.rejected += 1;
            tally.fail(format!("session {id}: ERROR {code}"));
        }
        other => tally.fail(format!("session {id}: {other}")),
    }
}

/// Checks a connection's drain: one full OUTPUT per admitted id, and
/// books the bytes received.
fn absorb_finish(fin: FinishReport, admitted: &[u64], side: &mut ClientSide, tally: &mut Tally) {
    side.wire_bytes += fin
        .output_bytes
        .iter()
        .chain(&fin.event_bytes)
        .map(|b| b.len() + 6)
        .sum::<usize>();
    let mut events: BTreeMap<u64, Vec<Vec<u8>>> = BTreeMap::new();
    for (e, bytes) in fin.events.iter().zip(fin.event_bytes) {
        events.entry(e.session).or_default().push(bytes);
    }
    for &id in admitted {
        let found = fin.outputs.iter().position(|o| o.id == id);
        match output_shortfall(id, found.map(|i| &fin.outputs[i])) {
            Some(why) => tally.fail(why),
            None => {
                let i = found.expect("shortfall checked the output exists");
                tally.ok();
                side.samples += fin.outputs[i].n_samples;
                side.completed += 1;
                side.received.insert(
                    id,
                    Received {
                        output: fin.output_bytes[i].clone(),
                        events: events.remove(&id).unwrap_or_default(),
                    },
                );
            }
        }
    }
}

/// Polls `GET /healthz` until `stop`, returning the deepest shard queue
/// seen.
fn poll_queue_depth(addr: SocketAddr, stop: &AtomicBool) -> usize {
    let mut deepest = 0;
    // ordering: Acquire pairs with the Release store that ends the
    // round; the flag publishes nothing else.
    while !stop.load(Ordering::Acquire) {
        deepest = deepest.max(healthz_queue_depth(addr).unwrap_or(0));
        std::thread::sleep(Duration::from_millis(5));
    }
    deepest
}

/// The deepest shard queue one `GET /healthz` reports.
fn healthz_queue_depth(addr: SocketAddr) -> Option<usize> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    s.write_all(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n")
        .ok()?;
    let mut body = String::new();
    s.read_to_string(&mut body).ok()?;
    body.split("\"queue\":")
        .skip(1)
        .filter_map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .max()
}

/// Span totals by name over a traced pass: (count, total ns).
fn span_totals() -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals = BTreeMap::new();
    for rec in wivi_obs::drain() {
        let e = totals.entry(rec.name).or_insert((0u64, 0u64));
        e.0 += 1;
        e.1 += rec.dur_ns;
    }
    totals
}

fn engine_cache_counts() -> (u64, u64) {
    let snap = wivi_obs::global().snapshot(false);
    (
        snap.counter("core.engine_cache.hits").unwrap_or(0),
        snap.counter("core.engine_cache.misses").unwrap_or(0),
    )
}

/// Everything a traced pass over a server collected.
struct TracedPass {
    server: WireServerReport,
    client: ClientSide,
    spans: BTreeMap<&'static str, (u64, u64)>,
    probes: ProbeSnapshot,
    cache: (u64, u64),
    wall_s: f64,
    spans_lost: u64,
}

/// Starts a traced pass's books: clears the span rings and snapshots
/// the counters. Spans and counters record only while observability is
/// switched on.
fn trace_begin() -> (ProbeSnapshot, (u64, u64), u64) {
    drop(wivi_obs::drain());
    (
        probe::snapshot(),
        engine_cache_counts(),
        wivi_obs::overwritten(),
    )
}

fn trace_end(
    begun: (ProbeSnapshot, (u64, u64), u64),
    server: WireServerReport,
    client: ClientSide,
    wall_s: f64,
) -> TracedPass {
    let spans = span_totals();
    let probes = probe::snapshot().since(&begun.0);
    let cache = engine_cache_counts();
    let spans_lost = wivi_obs::overwritten() - begun.2;
    TracedPass {
        server,
        client,
        spans,
        probes,
        cache: (cache.0 - begun.1 .0, cache.1 - begun.1 .1),
        wall_s,
        spans_lost,
    }
}

/// The per-layer ledger of a traced serving pass.
fn serve_layers(
    out: &mut Outcome,
    t: &TracedPass,
    untraced_wall_s: f64,
    codec: &Codec,
    tally: &mut Tally,
) {
    let report: &ServeReport = &t.server.report;
    let span = |name: &str| t.spans.get(name).copied().unwrap_or((0, 0));
    let (n_music, music_ns) = span("music.window");
    let (_, beam_ns) = span("beamform.window");
    let (n_image, image_ns) = span("image.window_fixes");
    let (_, open_ns) = span("session.open");
    let (_, step_ns) = span("session.step");
    let sessions = report.outputs.len() as f64;
    let samples = report.total_samples() as f64;
    let busy_s: f64 = report.shards().iter().map(|s| s.busy_s).sum();
    let alive_s: f64 = report.shards().iter().map(|s| s.alive_s).sum();
    let busy_ns = busy_s * 1e9;
    // A step is one front-end batch plus the mode's DSP; what the DSP
    // spans do not cover is the front end (and the mode's column fold).
    let sim_ns = step_ns.saturating_sub(music_ns + beam_ns + image_ns) as f64;
    let p = &t.probes;
    tally.check(t.spans_lost == 0, || {
        format!("{} spans overwritten before the drain", t.spans_lost)
    });

    out.set("sim.ns_per_sample", ratio(sim_ns, samples));
    out.set("sim.share", ratio(sim_ns, busy_ns));
    out.set("sim.fft_runs_per_sample", ratio(p.fft_runs as f64, samples));
    let cal_s: Vec<f64> = report.outputs.iter().map(|o| o.calibrate_s).collect();
    let depth: Vec<f64> = report.outputs.iter().map(|o| o.nulling_db).collect();
    out.set("nulling.ms_per_call", 1e3 * mean(&cal_s));
    out.set("nulling.depth_db", mean(&depth));
    out.set("music.windows_per_session", ratio(n_music as f64, sessions));
    out.set(
        "music.ns_per_window",
        ratio(music_ns as f64, n_music as f64),
    );
    out.set("music.share", ratio(music_ns as f64, busy_ns));
    out.set(
        "music.eig_sweeps_per_window",
        ratio(p.eig_sweeps as f64, p.eig_calls as f64),
    );
    out.set(
        "music.eig_rotations_per_window",
        ratio(p.rotations.iter().sum::<u64>() as f64, p.eig_calls as f64),
    );
    out.set("image.windows_per_session", ratio(n_image as f64, sessions));
    out.set(
        "image.ns_per_window",
        ratio(image_ns as f64, n_image as f64),
    );
    out.set("image.share", ratio(image_ns as f64, busy_ns));
    let cells = ImageConfig::for_wivi(&WiViConfig::paper_default())
        .grid
        .len();
    out.set(
        "image.cells_per_s",
        ratio((n_image as usize * cells) as f64, image_ns as f64 * 1e-9),
    );
    out.set(
        "image.focus_calls_per_window",
        ratio(p.focus.iter().sum::<u64>() as f64, n_image as f64),
    );

    out.set("serve.core_occupancy", ratio(busy_s, alive_s));
    out.set(
        "serve.engines_resident",
        report.shards().iter().map(|s| s.engines).sum::<usize>() as f64,
    );
    out.set(
        "serve.engine_cache_hit_frac",
        ratio(t.cache.0 as f64, (t.cache.0 + t.cache.1) as f64),
    );
    out.set("serve.slo_burn", report.snapshot.slo.burn_rate());
    out.set("serve.queue_depth_max", t.client.queue_max as f64);
    for (mode, name) in MODE_STREAM_MS {
        let stream_s: Vec<f64> = report
            .outputs
            .iter()
            .filter(|o| o.mode == mode)
            .map(|o| o.stream_s)
            .collect();
        out.set(name, 1e3 * mean(&stream_s));
    }

    let c = &t.client;
    out.set("net.connect_us", mean(&c.connect_us));
    out.set(
        "net.open_rtt_p50_us",
        stats::percentile(&c.open_rtt_us, 50.0),
    );
    out.set(
        "net.open_rtt_p99_us",
        stats::percentile(&c.open_rtt_us, 99.0),
    );
    out.set("admission.admitted", t.server.admitted as f64);
    out.set("admission.shed", t.server.shed as f64);
    out.set("admission.rejected", c.rejected as f64);
    out.set(
        "wire.bytes_per_session",
        ratio(c.wire_bytes as f64, c.completed as f64),
    );
    out.set("wire.encode_ns_per_output", codec.encode_ns());
    out.set("wire.decode_ns_per_frame", codec.decode_ns());

    out.set(
        "bench.attributed_frac",
        ratio((open_ns + step_ns) as f64, busy_ns),
    );
    out.set(
        "bench.trace_overhead_frac",
        ratio(t.wall_s, untraced_wall_s) - 1.0,
    );
    out.set(
        "bench.compute_s_per_25s_trace",
        ratio(busy_s, samples) * 25.0 * REALTIME_RATE,
    );
    out.notes.push(format!(
        "traced pass: {} sessions, {} channel samples, shard busy {:.3} s of {:.3} s alive",
        report.outputs.len(),
        report.total_samples(),
        busy_s,
        alive_s
    ));
}

/// Codec timings over a traced pass.
#[derive(Default)]
struct Codec {
    encode: Duration,
    decode: Duration,
    n: u32,
}

impl Codec {
    const REPEATS: u32 = 5;

    /// Re-encodes every served output in process and decodes its
    /// frame, timing both; the in-process bytes must equal the bytes
    /// the client received.
    fn time(
        &mut self,
        report: &ServeReport,
        received: &BTreeMap<u64, Received>,
        tally: &mut Tally,
    ) {
        for out in &report.outputs {
            let Some(got) = received.get(&out.id) else {
                continue;
            };
            let t0 = Instant::now();
            let mut bytes = Vec::new();
            for _ in 0..Self::REPEATS {
                bytes = std::hint::black_box(wire::encode_session_output(out));
            }
            self.encode += t0.elapsed();
            tally.check(bytes == got.output, || {
                format!(
                    "session {}: wire bytes differ from the in-process encoding",
                    out.id
                )
            });
            let frame = Frame::output_of(out).encode();
            let t1 = Instant::now();
            for _ in 0..Self::REPEATS {
                let decoded = wire::split_frame(std::hint::black_box(&frame));
                tally.check(matches!(decoded, Ok(Some((Frame::Output(_), _)))), || {
                    format!("session {}: OUTPUT frame does not decode", out.id)
                });
            }
            self.decode += t1.elapsed();
            self.n += Self::REPEATS;
        }
    }

    fn encode_ns(&self) -> f64 {
        ratio(self.encode.as_nanos() as f64, f64::from(self.n))
    }

    fn decode_ns(&self) -> f64 {
        ratio(self.decode.as_nanos() as f64, f64::from(self.n))
    }
}

/// Compares the traced pass's bytes with the untraced pass's, session
/// by session.
fn compare_passes(untraced: &ClientSide, traced: &ClientSide, tally: &mut Tally) {
    tally.check(untraced.received.len() == traced.received.len(), || {
        format!(
            "traced pass completed {} sessions, untraced {}",
            traced.received.len(),
            untraced.received.len()
        )
    });
    for (id, bytes) in &untraced.received {
        if traced.received.get(id) == Some(bytes) {
            tally.ok();
        } else {
            tally.fail(format!(
                "session {id}: traced output bytes differ from untraced"
            ));
        }
    }
}

// ------------------------------------------------------------ steady

/// One `serve_steady` round's server and session requests.
fn steady_server(seed: u64, round: u64) -> std::io::Result<(WireServer, Vec<OpenRequest>)> {
    let cfg = WiViConfig::paper_default();
    let sessions = soak_sessions(STEADY_SESSIONS, STEADY_DURATION_S, &cfg);
    let mut wcfg = WireServerConfig::new(serve_config()).config(CONFIG, cfg);
    let mut requests = Vec::with_capacity(sessions.len());
    for (i, s) in sessions.into_iter().enumerate() {
        let scene = format!("scene-{i}");
        requests.push(OpenRequest {
            id: s.id,
            seed: mix(seed, (round << 32) | i as u64),
            duration_s: s.duration_s,
            start_s: s.start_s,
            mode: s.mode.tag().to_owned(),
            scene: scene.clone(),
            config: CONFIG.into(),
            trace: None,
        });
        wcfg.scenes.push((scene, s.scene));
    }
    Ok((WireServer::start(wcfg)?, requests))
}

struct SteadyRound {
    wall_s: f64,
    client: ClientSide,
    server: WireServerReport,
}

/// Runs one round: set up a server, open every session on one
/// connection, drain, shut down. Traced rounds also poll `/healthz`
/// from a second thread.
fn steady_round(
    seed: u64,
    round: u64,
    poll: bool,
    tally: &mut Tally,
) -> Result<SteadyRound, String> {
    let (server, requests) =
        steady_server(seed, round).map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();
    let c0 = Instant::now();
    let client = WireClient::connect(addr, TOKEN);
    let connect_us = c0.elapsed().as_secs_f64() * 1e6;
    let client = match client {
        Ok(c) => c,
        Err(e) => {
            let _ = server.shutdown();
            return Err(format!("connect: {e}"));
        }
    };
    let stop = AtomicBool::new(false);
    let (client, wall_s) = std::thread::scope(|scope| {
        let poller = poll.then(|| scope.spawn(|| poll_queue_depth(addr, &stop)));
        let t1 = Instant::now();
        let mut client = steady_client(client, requests, tally);
        let wall_s = t1.elapsed().as_secs_f64();
        client.connect_us.push(connect_us);
        // ordering: Release pairs with the poller's Acquire load.
        stop.store(true, Ordering::Release);
        if let Some(p) = poller {
            client.queue_max = p.join().expect("healthz poller panicked");
        }
        (client, wall_s)
    });
    let server = server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    tally.check(server.shed == client.shed, || {
        format!("server shed {} but client saw {}", server.shed, client.shed)
    });
    Ok(SteadyRound {
        wall_s,
        client,
        server,
    })
}

/// Opens every session on one connection, then FINISHes and drains.
fn steady_client(
    mut client: WireClient,
    requests: Vec<OpenRequest>,
    tally: &mut Tally,
) -> ClientSide {
    let mut side = ClientSide::default();
    let mut admitted = Vec::with_capacity(requests.len());
    for req in requests {
        let id = req.id;
        let t = Instant::now();
        match client.open(req) {
            Ok(_) => {
                side.open_rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
                admitted.push(id);
            }
            Err(e) => open_failed(&e, id, &mut side, tally),
        }
    }
    match client.finish() {
        Ok(fin) => absorb_finish(fin, &admitted, &mut side, tally),
        Err(e) => tally.fail(format!("drain: {e}")),
    }
    side
}

pub fn serve_steady(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut tally = Tally::default();
    let mut out = Outcome::default();
    let mut plain: Vec<SteadyRound> = Vec::new();
    let mut batch_hist = wivi_obs::HistogramSnapshot::empty();
    // Traced: every round also runs traced, alternating which goes
    // first; the pass totals accumulate here.
    let mut ledger: Option<(WireServerReport, ClientSide, f64)> = None;
    let mut codec = Codec::default();
    let begun = traced.then(trace_begin);
    let start = Instant::now();
    for round in 0.. {
        let run = |traced_round: bool, tally: &mut Tally| {
            wivi_obs::set_enabled(Some(traced_round));
            let r = steady_round(seed, round, traced_round, tally);
            wivi_obs::set_enabled(Some(false));
            r.map_err(|e| tally.fail(e)).ok()
        };
        let (untraced, again) = match (traced, round % 2) {
            (false, _) => (run(false, &mut tally), None),
            (true, 0) => {
                let u = run(false, &mut tally);
                (u, run(true, &mut tally))
            }
            (true, _) => {
                let t = run(true, &mut tally);
                (run(false, &mut tally), t)
            }
        };
        let Some(untraced) = untraced else { break };
        batch_hist.merge(&untraced.server.report.snapshot.batch_latency_ns());
        if let Some(t) = again {
            compare_passes(&untraced.client, &t.client, &mut tally);
            codec.time(&t.server.report, &t.client.received, &mut tally);
            ledger = Some(match ledger {
                None => (t.server, t.client, t.wall_s),
                Some((server, mut client, wall)) => {
                    client.absorb(t.client);
                    (merge_reports(server, t.server), client, wall + t.wall_s)
                }
            });
        }
        plain.push(untraced);
        if budget_spent(start, seconds, traced, batch_hist.count as usize) {
            break;
        }
    }
    let wall: f64 = plain.iter().map(|r| r.wall_s).sum();
    if let (Some(begun), Some((server, client, traced_wall))) = (begun, ledger) {
        let t = trace_end(begun, server, client, traced_wall);
        serve_layers(&mut out, &t, wall, &codec, &mut tally);
    } else if traced {
        tally.fail("no traced round completed");
    } else {
        let samples: u64 = plain.iter().map(|r| r.client.samples).sum();
        let (setups, last) = time_setups(
            "scene-0",
            || steady_server(seed, 0).map(|(s, _)| s),
            &mut tally,
        );
        if let Some(s) = last {
            shut_down(s, &mut tally);
        }
        // Rates are medians over rounds, and the tail a median over
        // runs of rounds holding at least 1000 batches each, so a
        // neighbour's burst moves one round, not the run.
        let per_round = |f: fn(&SteadyRound) -> f64| -> f64 {
            stats::median(&plain.iter().map(f).collect::<Vec<_>>())
        };
        let mut tails = Vec::new();
        let mut chunk = wivi_obs::HistogramSnapshot::empty();
        for r in &plain {
            chunk.merge(&r.server.report.snapshot.batch_latency_ns());
            if chunk.count as usize >= stats::min_samples_for(99) {
                tails.push(chunk.quantile(99.0) * 1e-6);
                chunk = wivi_obs::HistogramSnapshot::empty();
            }
        }
        out.set("setup_s", stats::median(&setups));
        out.set(
            "samples_per_s",
            per_round(|r| ratio(r.client.samples as f64, r.wall_s)),
        );
        out.set(
            "sessions_per_s",
            per_round(|r| ratio(r.client.completed as f64, r.wall_s)),
        );
        out.set("latency_p50_ms", batch_hist.quantile(50.0) * 1e-6);
        tally.check(
            stats::supports_percentile(batch_hist.count as usize, 99),
            || format!("only {} batch latencies for a p99", batch_hist.count),
        );
        out.set("latency_p99_ms", stats::median(&tails));
        out.set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
        out.notes.push(format!(
            "{} rounds of {STEADY_SESSIONS} sessions, {samples} channel samples, {} engine batches; \
             {:.2} real-time sessions sustained",
            plain.len(),
            batch_hist.count,
            ratio(samples as f64, wall) / REALTIME_RATE
        ));
    }
    out.tally = tally;
    out
}

/// Folds one traced round's server report into the pass total.
fn merge_reports(mut acc: WireServerReport, next: WireServerReport) -> WireServerReport {
    acc.admitted += next.admitted;
    acc.shed += next.shed;
    acc.connections += next.connections;
    let (a, b) = (&mut acc.report, next.report);
    a.outputs.extend(b.outputs);
    a.wall_s += b.wall_s;
    for (sa, sb) in a.snapshot.shards.iter_mut().zip(b.snapshot.shards) {
        sa.busy_s += sb.busy_s;
        sa.alive_s += sb.alive_s;
        sa.engines = sa.engines.max(sb.engines);
    }
    let slo = &mut a.snapshot.slo;
    slo.windows += b.snapshot.slo.windows;
    slo.windows_over += b.snapshot.slo.windows_over;
    acc
}

// ------------------------------------------------------------- churn

/// Starts the churn server with the tracking grid's scenes for this
/// seed registered.
fn churn_server(seed: u64) -> std::io::Result<WireServer> {
    let grid = ScenarioGrid {
        duration_s: CHURN_DURATION_S,
        ..ScenarioGrid::tracking()
    };
    let mut wcfg =
        WireServerConfig::new(serve_config()).config(CONFIG, WiViConfig::paper_default());
    for (k, cell) in grid.specs().iter().enumerate() {
        let spec = wivi_bench::engine::ScenarioSpec {
            trial: mix(seed ^ 0xC4A2, k as u64),
            ..*cell
        };
        wcfg.scenes
            .push((format!("scene-{k}"), spec.build_scene().into()));
    }
    WireServer::start(wcfg)
}

fn churn_scenes() -> usize {
    ScenarioGrid::tracking().len()
}

/// How long a churn client keeps issuing requests.
enum Plan<'a> {
    /// Until the run's budget is spent across all clients.
    Budget {
        start: Instant,
        seconds: f64,
        traced: bool,
        completed: &'a AtomicUsize,
    },
    /// Exactly this many requests (the traced rerun).
    Count(u64),
}

/// One churn client: request after request, each on a fresh
/// connection. Returns what it saw and how many requests it issued.
fn churn_client(
    addr: SocketAddr,
    seed: u64,
    epoch: Instant,
    client: u64,
    plan: Plan<'_>,
    poll: bool,
    tally: &mut Tally,
) -> (ClientSide, u64) {
    let mut side = ClientSide::default();
    let n_scenes = churn_scenes() as u64;
    // Each connection's sessions are placed on its own shard, so the
    // two closed loops never queue behind each other and a request
    // measures one session's fixed costs, not a placement collision.
    let mut candidates = (0u64..).map(|j| (client << 32) | j);
    let mut k = 0u64;
    loop {
        let more = match &plan {
            Plan::Budget {
                start,
                seconds,
                traced,
                completed,
            } => !budget_spent(*start, *seconds, *traced, completed.load(Ordering::Relaxed)),
            Plan::Count(n) => k < *n,
        };
        if !more {
            break;
        }
        let id = candidates
            .find(|&id| shard_of(id, SHARDS) == client as usize % SHARDS)
            .expect("ids are unbounded");
        let req = OpenRequest {
            id,
            seed: mix(seed, id),
            duration_s: CHURN_DURATION_S,
            start_s: 0.0,
            mode: CHURN_MODES[(k % CHURN_MODES.len() as u64) as usize].into(),
            scene: format!("scene-{}", k % n_scenes),
            config: CONFIG.into(),
            trace: None,
        };
        churn_request(addr, req, epoch, &mut side, tally);
        if let Plan::Budget { completed, .. } = &plan {
            // ordering: Relaxed — a progress count read only to decide
            // when to stop; it publishes no other data.
            completed.fetch_add(1, Ordering::Relaxed);
        }
        if poll && k.is_multiple_of(8) {
            side.queue_max = side.queue_max.max(healthz_queue_depth(addr).unwrap_or(0));
        }
        k += 1;
    }
    (side, k)
}

/// One connect → HELLO → OPEN → FINISH → OUTPUT → BYE request;
/// completion times are booked relative to `epoch`.
fn churn_request(
    addr: SocketAddr,
    req: OpenRequest,
    epoch: Instant,
    side: &mut ClientSide,
    tally: &mut Tally,
) {
    let id = req.id;
    let t0 = Instant::now();
    let mut client = match WireClient::connect(addr, TOKEN) {
        Ok(c) => c,
        Err(e) => {
            tally.fail(format!("session {id}: connect: {e}"));
            return;
        }
    };
    side.connect_us.push(t0.elapsed().as_secs_f64() * 1e6);
    let t1 = Instant::now();
    if let Err(e) = client.open(req) {
        open_failed(&e, id, side, tally);
        return;
    }
    side.open_rtt_us.push(t1.elapsed().as_secs_f64() * 1e6);
    match client.finish() {
        Ok(fin) => {
            let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
            let samples = side.samples;
            absorb_finish(fin, &[id], side, tally);
            let done_s = (Instant::now() - epoch).as_secs_f64();
            side.done
                .push((done_s, (side.samples - samples) as f64, latency_ms));
        }
        Err(e) => tally.fail(format!("session {id}: drain: {e}")),
    }
}

/// Runs the churn clients against a started server, in a closed loop.
fn churn_pass(
    addr: SocketAddr,
    seed: u64,
    plans: Vec<Plan<'_>>,
    poll: bool,
    tally: &mut Tally,
) -> (ClientSide, Vec<u64>, f64) {
    let t0 = Instant::now();
    let results: Vec<(ClientSide, u64, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .into_iter()
            .enumerate()
            .map(|(c, plan)| {
                scope.spawn(move || {
                    let mut t = Tally::default();
                    let (side, n) = churn_client(addr, seed, t0, c as u64, plan, poll, &mut t);
                    (side, n, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("churn client panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut side = ClientSide::default();
    let mut counts = Vec::new();
    for (s, n, t) in results {
        side.absorb(s);
        counts.push(n);
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        tally.reasons.extend(t.reasons);
    }
    (side, counts, wall_s)
}

/// Median (requests/s, samples/s) over `k` equal time slices of a
/// pass that lasted `wall_s`, from each request's completion time and
/// samples.
fn slice_rates(done: &[(f64, f64, f64)], wall_s: f64, k: usize) -> (f64, f64) {
    let width = wall_s / k as f64;
    let mut count = vec![0.0; k];
    let mut samples = vec![0.0; k];
    for &(t, n, _) in done {
        let i = ((t / width) as usize).min(k - 1);
        count[i] += 1.0;
        samples[i] += n;
    }
    let rate = |v: &[f64]| stats::median(&v.iter().map(|x| x / width).collect::<Vec<_>>());
    (rate(&count), rate(&samples))
}

/// Brings up [`SETUPS`] servers with `start`, timing each from the
/// first scene built to the first OUTPUT of a one-batch count session
/// on `scene`: server start, scene and config registration, engine
/// spin-up, HELLO, admission, device bring-up, calibration, engine
/// tables and the first streamed batch. Returns the times and the last
/// server, still running; the others are shut down.
fn time_setups(
    scene: &str,
    start: impl Fn() -> std::io::Result<WireServer>,
    tally: &mut Tally,
) -> (Vec<f64>, Option<WireServer>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(s) = last.take() {
            shut_down(s, tally);
        }
        let t0 = Instant::now();
        let server = match start() {
            Ok(s) => s,
            Err(e) => {
                tally.fail(format!("server start: {e}"));
                continue;
            }
        };
        let first = WireClient::connect(server.addr(), TOKEN).and_then(|mut c| {
            c.open(OpenRequest {
                id: u64::MAX,
                seed: 0,
                duration_s: wivi_core::device::DEFAULT_BATCH_LEN as f64 / REALTIME_RATE,
                start_s: 0.0,
                mode: "count".into(),
                scene: scene.into(),
                config: CONFIG.into(),
                trace: None,
            })?;
            c.finish()
        });
        match first {
            Ok(fin) if fin.outputs.len() == 1 => times.push(t0.elapsed().as_secs_f64()),
            Ok(fin) => tally.fail(format!("set-up session: {} outputs", fin.outputs.len())),
            Err(e) => tally.fail(format!("set-up session: {e}")),
        }
        last = Some(server);
    }
    (times, last)
}

fn shut_down(server: WireServer, tally: &mut Tally) {
    if let Err(e) = server.shutdown() {
        tally.fail(format!("server shutdown: {e}"));
    }
}

pub fn serve_churn(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut tally = Tally::default();
    let mut out = Outcome::default();

    let (setups, server) = time_setups("scene-0", || churn_server(seed), &mut tally);
    let Some(server) = server else {
        out.tally = tally;
        return out;
    };

    // Traced, half the time goes to the untraced pass and half to
    // rerunning exactly its requests traced.
    let completed = AtomicUsize::new(0);
    let start = Instant::now();
    let plans = (0..CHURN_CLIENTS)
        .map(|_| Plan::Budget {
            start,
            seconds: if traced { seconds / 2.0 } else { seconds },
            traced,
            completed: &completed,
        })
        .collect();
    let (side, counts, wall_s) = churn_pass(server.addr(), seed, plans, false, &mut tally);
    let shut = server.shutdown();
    match &shut {
        Ok(r) => tally.check(r.shed == side.shed, || {
            format!("server shed {} but clients saw {}", r.shed, side.shed)
        }),
        Err(e) => tally.fail(format!("server shutdown: {e}")),
    }

    if !traced {
        // Rates are medians over time slices of the run, so a
        // neighbour's burst moves one slice, not the run.
        let (sessions, samples) = slice_rates(&side.done, wall_s, CHURN_SLICES);
        let mut by_completion = side.done.clone();
        by_completion.sort_by(|a, b| a.0.total_cmp(&b.0));
        let latency: Vec<f64> = by_completion.iter().map(|d| d.2).collect();
        out.set("setup_s", stats::median(&setups));
        out.set("samples_per_s", samples);
        out.set("sessions_per_s", sessions);
        out.set("latency_p50_ms", stats::percentile(&latency, 50.0));
        tally.check(stats::supports_percentile(latency.len(), 99), || {
            format!("only {} request latencies for a p99", latency.len())
        });
        out.set("latency_p99_ms", stats::chunked_percentile(&latency, 99));
        out.set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
        out.notes.push(format!(
            "{} requests over {CHURN_CLIENTS} connections ({:?} per connection), {} channel samples",
            side.completed, counts, side.samples
        ));
    } else {
        // Rerun exactly the same requests, traced, on a fresh server.
        let begun = trace_begin();
        match churn_server(seed) {
            Ok(server) => {
                let plans = counts.iter().map(|&n| Plan::Count(n)).collect();
                wivi_obs::set_enabled(Some(true));
                let (traced_side, _, traced_wall) =
                    churn_pass(server.addr(), seed, plans, true, &mut tally);
                compare_passes(&side, &traced_side, &mut tally);
                let shut = server.shutdown();
                wivi_obs::set_enabled(Some(false));
                match shut {
                    Ok(report) => {
                        let mut codec = Codec::default();
                        codec.time(&report.report, &traced_side.received, &mut tally);
                        let t = trace_end(begun, report, traced_side, traced_wall);
                        serve_layers(&mut out, &t, wall_s, &codec, &mut tally);
                    }
                    Err(e) => tally.fail(format!("server shutdown: {e}")),
                }
            }
            Err(e) => tally.fail(format!("server start: {e}")),
        }
    }
    out.tally = tally;
    out
}
