//! The serving soak: many concurrent sensing sessions through the
//! sharded [`ServeEngine`], timed and scored for `BENCH_serving.json`.
//!
//! The workload mixes the engine's five session modes over varied
//! scenario cells (rooms × materials × subject counts × motion models,
//! reusing the [`crate::engine`] grid generators), staggers session
//! start offsets so the merged event stream exercises the serving clock,
//! and reports two throughput comparisons:
//!
//! * **compute speedup** — aggregate channel-samples/sec versus one
//!   standalone streaming session on the same machine. This measures
//!   parallelism and is bounded by the core count (≈ 1 on a single-core
//!   container, ≥ shards on big hosts).
//! * **real-time multiplex** — aggregate channel-samples/sec versus the
//!   paper's §7.1 per-session channel rate (312.5 samples/sec). A real
//!   deployment's sessions each arrive at the radio's rate; this is how
//!   many such live sessions one box sustains, and the serving
//!   acceptance bar (≥ 4 concurrent real-time sessions) reads from it.

use std::io::Write as _;
use std::time::Instant;

use wivi_core::WiViConfig;
use wivi_rf::{
    GestureScript, GestureStyle, Material, Mover, Point, Scene, SceneHandle, SceneStore, Vec2,
    WaypointWalker,
};
use wivi_serve::net::ClientError;
use wivi_serve::{
    Mode, OpenRequest, ServeConfig, ServeEngine, ServeReport, SessionSpec, WireClient, WireServer,
    WireServerConfig,
};
use wivi_track::TrackTargets;

use crate::engine::{json_escape, MotionModel, ScenarioSpec};
use crate::scenarios::Room;

/// The paper's per-session channel rate (§7.1), samples/sec — what one
/// live radio delivers.
pub const REALTIME_RATE: f64 = 312.5;

/// A through-wall gesture scene for soak gesture sessions: office
/// clutter plus one signaller stepping a two-bit message, laterally
/// offset per session index. The script starts at t = 0 (no lead-in) so
/// even short soak sessions record actual gesture motion — the soak
/// measures serving throughput, not decode quality, but it must not
/// "exercise" the gesture path on a statue.
fn gesture_scene(i: usize) -> Scene {
    let x = -1.0 + 0.25 * (i % 9) as f64;
    let script = GestureScript::for_bits(
        Point::new(x, 3.0),
        Vec2::new(0.0, -1.0),
        GestureStyle::default(),
        0.0,
        &[false, true],
    );
    Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(script))
}

/// Builds the soak's session list: `n` sessions cycling through the
/// five modes and a varied scenario grid, with staggered serving-clock
/// start offsets. Deterministic in `(n, duration_s)`. Imaging sessions
/// get a small-room pacing scene — the imaging grid covers the small
/// conference room — with the subject count still cycling.
pub fn soak_sessions(n: usize, duration_s: f64, config: &WiViConfig) -> Vec<SessionSpec> {
    let rooms = [Room::Small, Room::Large];
    let materials = [
        Material::TintedGlass,
        Material::HollowWall6In,
        Material::ConcreteWall8In,
    ];
    let motions = [
        MotionModel::RandomWalk,
        MotionModel::Pacing,
        MotionModel::Crossing,
    ];
    (0..n)
        .map(|i| {
            let mode = match i % 5 {
                0 => Mode::TrackTargets,
                1 => Mode::Count,
                2 => Mode::Track,
                3 => Mode::Gestures,
                _ => Mode::Image,
            };
            let imaging = mode == Mode::Image;
            let scenario = ScenarioSpec {
                room: if imaging {
                    Room::Small
                } else {
                    rooms[i % rooms.len()]
                },
                material: materials[i % materials.len()],
                n_humans: 1 + i % 3,
                motion: if imaging {
                    MotionModel::Pacing
                } else {
                    motions[i % motions.len()]
                },
                trial: i as u64,
                duration_s,
            };
            let scene = if mode == Mode::Gestures {
                gesture_scene(i)
            } else {
                scenario.build_scene()
            };
            SessionSpec::builder(i as u64)
                .scene(scene)
                .config(*config)
                .seed(scenario.seed())
                .duration_s(duration_s)
                .start_s((i % 8) as f64 * 0.5)
                .mode(mode)
                .build()
        })
        .collect()
}

/// Mean per-session open cost — scene acquisition plus calibration —
/// of the shared-scene path (every session clones one
/// [`SceneHandle`] out of a [`SceneStore`]) versus the owned path
/// (every session deep-clones its own [`Scene`]), measured over a
/// fleet of zero-duration sessions so nothing but the open cost is
/// timed.
#[derive(Clone, Debug)]
pub struct OpenCostProbe {
    /// Sessions per path.
    pub n_sessions: usize,
    /// Mean wall-clock to acquire one session's scene, seconds.
    pub shared_acquire_s: f64,
    pub owned_acquire_s: f64,
    /// Mean per-session calibration wall-clock, seconds.
    pub shared_calibrate_s: f64,
    pub owned_calibrate_s: f64,
}

impl OpenCostProbe {
    /// Mean total open cost of a shared-scene session, seconds.
    pub fn shared_open_s(&self) -> f64 {
        self.shared_acquire_s + self.shared_calibrate_s
    }

    /// Mean total open cost of an owned-scene session, seconds.
    pub fn owned_open_s(&self) -> f64 {
        self.owned_acquire_s + self.owned_calibrate_s
    }
}

/// The room the open-cost fleet observes.
fn fleet_room() -> Scene {
    Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(-2.0, 2.5), Point::new(2.0, 2.5)],
            1.0,
        )))
}

/// Serves `n` zero-duration counting sessions whose scenes come from
/// `acquire`, returning (mean acquire seconds, mean calibrate seconds).
fn timed_fleet_open(
    n: usize,
    n_shards: usize,
    config: &WiViConfig,
    mut acquire: impl FnMut() -> SceneHandle,
) -> (f64, f64) {
    let mut engine = ServeEngine::start(ServeConfig::with_shards(n_shards));
    let mut acquire_s = 0.0;
    for id in 0..n as u64 {
        let t0 = Instant::now();
        let scene = acquire();
        acquire_s += t0.elapsed().as_secs_f64();
        engine
            .open(
                SessionSpec::builder(id)
                    .scene(scene)
                    .config(*config)
                    .seed(500 + id)
                    .duration_s(0.0)
                    .mode(Mode::Count)
                    .build(),
            )
            .unwrap();
    }
    let report = engine.finish();
    let calibrate_s: f64 = report.outputs.iter().map(|o| o.calibrate_s).sum();
    (acquire_s / n as f64, calibrate_s / n as f64)
}

/// Measures shared-vs-owned per-session open cost over `n` sessions per
/// path (the ROADMAP's cross-session scene-sharing item, quantified).
pub fn probe_open_cost(n: usize, n_shards: usize, config: &WiViConfig) -> OpenCostProbe {
    let mut store = SceneStore::new();
    let room = store.insert("fleet-room", fleet_room());

    // Untimed warm-up fleet: one-time process costs (allocator growth,
    // first engine spin-up, page faults) must not be charged to
    // whichever path happens to run first.
    let warm = room.clone();
    let _ = timed_fleet_open(4.min(n), n_shards, config, || {
        SceneHandle::new(warm.scene().clone())
    });

    // Owned path: each session deep-clones the room (what every session
    // did before the scene store existed).
    let template = room.clone();
    let (owned_acquire_s, owned_calibrate_s) = timed_fleet_open(n, n_shards, config, || {
        SceneHandle::new(template.scene().clone())
    });

    // Shared path: each session bumps the store handle.
    let (shared_acquire_s, shared_calibrate_s) =
        timed_fleet_open(n, n_shards, config, || room.clone());

    OpenCostProbe {
        n_sessions: n,
        shared_acquire_s,
        owned_acquire_s,
        shared_calibrate_s,
        owned_calibrate_s,
    }
}

/// One standalone streaming session, timed — the compute-speedup
/// baseline. Uses the soak's first (track-targets) scenario.
pub struct SingleSessionBaseline {
    pub n_samples: usize,
    pub stream_s: f64,
}

impl SingleSessionBaseline {
    pub fn samples_per_sec(&self) -> f64 {
        self.n_samples as f64 / self.stream_s.max(1e-12)
    }
}

/// Runs the baseline: one device, calibrated, streamed through
/// `track_targets_streaming` for `duration_s`.
pub fn single_session_baseline(
    config: &WiViConfig,
    duration_s: f64,
    batch_len: usize,
) -> SingleSessionBaseline {
    let scenario = ScenarioSpec {
        room: Room::Small,
        material: Material::TintedGlass,
        n_humans: 1,
        motion: MotionModel::RandomWalk,
        trial: 0,
        duration_s,
    };
    let mut dev = wivi_core::WiViDevice::new(scenario.build_scene(), *config, scenario.seed());
    dev.calibrate();
    let n_samples = dev.trace_len(duration_s);
    let t0 = Instant::now();
    let _ = dev.track_targets_streaming(duration_s, batch_len);
    SingleSessionBaseline {
        n_samples,
        stream_s: t0.elapsed().as_secs_f64(),
    }
}

/// Everything the serving soak measured.
pub struct ServingSoak {
    pub report: ServeReport,
    pub baseline: SingleSessionBaseline,
    /// Shared-vs-owned scene open-cost comparison.
    pub open_cost: OpenCostProbe,
    pub n_sessions: usize,
    pub n_shards: usize,
    /// Worker threads inside each shard; total serving threads are
    /// `n_shards × workers_per_shard`.
    pub workers_per_shard: usize,
    pub batch_len: usize,
    pub duration_s: f64,
}

impl ServingSoak {
    /// Aggregate serving throughput over the compute baseline — one
    /// standalone session streaming on one thread — i.e. the speedup
    /// versus 1 thread, bounded by the host's core count.
    pub fn speedup_vs_single_session(&self) -> f64 {
        self.report.samples_per_sec() / self.baseline.samples_per_sec().max(1e-12)
    }

    /// Worker threads that executed session batches.
    pub fn threads_used(&self) -> usize {
        self.report.threads_used()
    }

    /// Concurrent *real-time* sessions this run sustains: aggregate
    /// throughput over the §7.1 per-session channel rate.
    pub fn realtime_multiplex(&self) -> f64 {
        self.report.samples_per_sec() / REALTIME_RATE
    }
}

/// Runs the soak: baseline first, then `n_sessions` concurrent sessions
/// across `n_shards` shards of `workers_per_shard` threads each.
pub fn run_serving_soak(
    n_sessions: usize,
    n_shards: usize,
    workers_per_shard: usize,
    duration_s: f64,
    batch_len: usize,
    config: &WiViConfig,
) -> ServingSoak {
    let baseline = single_session_baseline(config, duration_s, batch_len);
    let open_cost = probe_open_cost(n_sessions.max(16), n_shards, config);
    let sessions = soak_sessions(n_sessions, duration_s, config);
    let mut engine = ServeEngine::start(ServeConfig {
        batch_len,
        ..ServeConfig::with_shards_workers(n_shards, workers_per_shard)
    });
    for s in sessions {
        engine.open(s).unwrap();
    }
    let report = engine.finish();
    ServingSoak {
        report,
        baseline,
        open_cost,
        n_sessions,
        n_shards,
        workers_per_shard,
        batch_len,
        duration_s,
    }
}

/// What the wire soak measured: the same mixed-mode workload as the
/// in-process soak, but arriving through the loopback TCP front —
/// admission, framing, and completion routing included.
pub struct NetSoak {
    pub n_sessions: usize,
    /// Sessions the admission gate accepted onto shard queues.
    pub admitted: u64,
    /// Sessions shed at the queue-full boundary.
    pub shed: u64,
    /// Mean OPEN → OPEN_OK round trip over loopback, seconds.
    pub open_rtt_s: f64,
    /// Client-side wall-clock from connect to BYE.
    pub wall_s: f64,
    /// Aggregate engine throughput behind the wire, samples/sec.
    pub samples_per_sec: f64,
    /// Events + outputs delivered to the client.
    pub events_delivered: usize,
    pub outputs_delivered: usize,
}

impl NetSoak {
    /// Shed fraction of all OPEN attempts.
    pub fn shed_rate(&self) -> f64 {
        self.shed as f64 / (self.admitted + self.shed).max(1) as f64
    }

    /// Concurrent real-time sessions the wire path sustains.
    pub fn realtime_multiplex(&self) -> f64 {
        self.samples_per_sec / REALTIME_RATE
    }
}

/// Runs the network soak: the mixed-mode session list served over a
/// loopback [`WireServer`], one connection, default queue bound. A shed
/// count > 0 here means the box cannot even enqueue the workload — the
/// stage reports it rather than hiding it behind a blocking open.
pub fn run_net_soak(
    n_sessions: usize,
    n_shards: usize,
    workers_per_shard: usize,
    duration_s: f64,
    batch_len: usize,
    config: &WiViConfig,
) -> NetSoak {
    let sessions = soak_sessions(n_sessions, duration_s, config);
    let mut cfg = WireServerConfig::new(ServeConfig {
        batch_len,
        ..ServeConfig::with_shards_workers(n_shards, workers_per_shard)
    });
    cfg.configs.push(("soak".into(), *config));
    let requests: Vec<OpenRequest> = sessions
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let scene_name = format!("scene-{i}");
            cfg.scenes.push((scene_name.clone(), s.scene.clone()));
            OpenRequest {
                id: s.id,
                seed: s.seed,
                duration_s: s.duration_s,
                start_s: s.start_s,
                mode: s.mode.tag().to_owned(),
                scene: scene_name,
                config: "soak".into(),
                trace: None,
            }
        })
        .collect();

    let server = WireServer::start(cfg).expect("bind loopback");
    let t0 = Instant::now();
    let mut client = WireClient::connect(server.addr(), "soak").expect("connect loopback");
    let (mut admitted, mut shed, mut rtt_s) = (0u64, 0u64, 0.0f64);
    for req in requests {
        let t = Instant::now();
        match client.open(req) {
            Ok(_) => {
                rtt_s += t.elapsed().as_secs_f64();
                admitted += 1;
            }
            Err(ClientError::Server { code, .. }) if code == "overloaded" => shed += 1,
            Err(e) => panic!("net soak open failed: {e}"),
        }
    }
    let fin = client.finish().expect("net soak drain");
    let wall_s = t0.elapsed().as_secs_f64();
    let report = server.shutdown().expect("net soak shutdown");
    assert_eq!(
        report.admitted, admitted,
        "server/client admit disagreement"
    );
    assert_eq!(report.shed, shed, "server/client shed disagreement");
    NetSoak {
        n_sessions,
        admitted,
        shed,
        open_rtt_s: rtt_s / admitted.max(1) as f64,
        wall_s,
        samples_per_sec: report.report.samples_per_sec(),
        events_delivered: fin.events.len(),
        outputs_delivered: fin.outputs.len(),
    }
}

/// Writes `BENCH_serving.json`. Field documentation lives in the README
/// ("Serving" section) and DESIGN.md §9/§14. `net` adds the wire-front
/// soak block when that stage ran.
pub fn write_serving_json(
    path: &str,
    soak: &ServingSoak,
    mode: &str,
    net: Option<&NetSoak>,
) -> std::io::Result<()> {
    let r = &soak.report;
    let cores = r.snapshot.cores_available;
    let batch_budget_ms = 1e3 * soak.batch_len as f64 / REALTIME_RATE;

    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"benchmark\": \"wivi_serving_engine\",")?;
    writeln!(f, "  \"mode\": \"{}\",", json_escape(mode))?;
    writeln!(f, "  \"session_duration_s\": {:.3},", soak.duration_s)?;
    writeln!(f, "  \"sessions\": {},", soak.n_sessions)?;
    writeln!(f, "  \"shards\": {},", soak.n_shards)?;
    writeln!(f, "  \"workers_per_shard\": {},", soak.workers_per_shard)?;
    writeln!(f, "  \"batch_len\": {},", soak.batch_len)?;
    writeln!(f, "  \"threads_used\": {},", soak.threads_used())?;
    writeln!(f, "  \"cores_available\": {cores},")?;
    writeln!(f, "  \"wall_clock_s\": {:.6},", r.wall_s)?;
    writeln!(f, "  \"total_channel_samples\": {},", r.total_samples())?;
    writeln!(f, "  \"sessions_per_sec\": {:.3},", r.sessions_per_sec())?;
    writeln!(f, "  \"samples_per_sec\": {:.2},", r.samples_per_sec())?;
    writeln!(
        f,
        "  \"single_session_samples_per_sec\": {:.2},",
        soak.baseline.samples_per_sec()
    )?;
    writeln!(
        f,
        "  \"speedup_vs_1_thread\": {:.3},",
        soak.speedup_vs_single_session()
    )?;
    writeln!(f, "  \"realtime_rate_per_session\": {REALTIME_RATE},")?;
    writeln!(
        f,
        "  \"realtime_sessions_sustained\": {:.1},",
        soak.realtime_multiplex()
    )?;
    writeln!(
        f,
        "  \"batch_latency_p50_ms\": {:.4},",
        1e3 * r.batch_latency_percentile_s(50.0)
    )?;
    writeln!(
        f,
        "  \"batch_latency_p99_ms\": {:.4},",
        1e3 * r.batch_latency_percentile_s(99.0)
    )?;
    writeln!(f, "  \"batch_budget_ms\": {batch_budget_ms:.4},")?;
    // The merged per-batch latency histogram the percentiles above are
    // read from: log-linear buckets (≤6.25 % relative width), sparse
    // (zero-count buckets omitted), nanoseconds.
    let hist = r.snapshot.batch_latency_ns();
    writeln!(
        f,
        "  \"batch_latency_hist\": {{\"unit\": \"ns\", \"count\": {}, \"buckets\": [",
        hist.count
    )?;
    let nz = hist.nonzero_buckets();
    for (i, (lo, hi, count)) in nz.iter().enumerate() {
        let comma = if i + 1 == nz.len() { "" } else { "," };
        writeln!(
            f,
            "    {{\"lo\": {lo}, \"hi\": {hi}, \"count\": {count}}}{comma}"
        )?;
    }
    writeln!(f, "  ]}},")?;
    let oc = &soak.open_cost;
    writeln!(
        f,
        "  \"open_cost\": {{\"sessions_per_path\": {}, \
         \"shared_scene_acquire_us\": {:.4}, \"owned_scene_acquire_us\": {:.4}, \
         \"shared_calibrate_ms\": {:.4}, \"owned_calibrate_ms\": {:.4}, \
         \"shared_open_ms\": {:.4}, \"owned_open_ms\": {:.4}}},",
        oc.n_sessions,
        1e6 * oc.shared_acquire_s,
        1e6 * oc.owned_acquire_s,
        1e3 * oc.shared_calibrate_s,
        1e3 * oc.owned_calibrate_s,
        1e3 * oc.shared_open_s(),
        1e3 * oc.owned_open_s(),
    )?;
    if let Some(n) = net {
        writeln!(
            f,
            "  \"net\": {{\"sessions\": {}, \"admitted\": {}, \"shed\": {}, \
             \"shed_rate\": {:.4}, \"open_rtt_us\": {:.2}, \"wall_clock_s\": {:.6}, \
             \"samples_per_sec\": {:.2}, \"realtime_sessions_sustained\": {:.1}, \
             \"events_delivered\": {}, \"outputs_delivered\": {}}},",
            n.n_sessions,
            n.admitted,
            n.shed,
            n.shed_rate(),
            1e6 * n.open_rtt_s,
            n.wall_s,
            n.samples_per_sec,
            n.realtime_multiplex(),
            n.events_delivered,
            n.outputs_delivered,
        )?;
    }
    writeln!(f, "  \"merged_events\": {},", r.events.len())?;
    writeln!(f, "  \"shard_stats\": [")?;
    for (i, s) in r.shards().iter().enumerate() {
        let comma = if i + 1 == r.shards().len() { "" } else { "," };
        writeln!(
            f,
            "    {{\"shard\": {}, \"workers\": {}, \"sessions\": {}, \
             \"batches\": {}, \"busy_cpu_s\": {:.6}, \"alive_s\": {:.6}, \
             \"core_occupancy\": {:.4}, \"engines\": {}}}{comma}",
            s.shard,
            s.workers,
            s.sessions,
            s.batches,
            s.busy_s,
            s.alive_s,
            s.utilization(),
            s.engines,
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"sessions_detail\": [")?;
    for (i, o) in r.outputs.iter().enumerate() {
        let comma = if i + 1 == r.outputs.len() { "" } else { "," };
        writeln!(
            f,
            "    {{\"id\": {}, \"mode\": \"{}\", \"shard\": {}, \
             \"n_samples\": {}, \"n_columns\": {}, \"events\": {}, \
             \"nulling_db\": {:.3}, \"stream_s\": {:.6}}}{comma}",
            o.id,
            o.mode,
            o.shard,
            o.n_samples,
            o.n_columns,
            o.result.events().len(),
            o.nulling_db,
            o.stream_s,
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_sessions_cycle_modes_and_are_deterministic() {
        let cfg = WiViConfig::fast_test();
        let a = soak_sessions(10, 1.0, &cfg);
        let b = soak_sessions(10, 1.0, &cfg);
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.mode, y.mode);
            assert_eq!(x.start_s, y.start_s);
        }
        let tags: Vec<&str> = a.iter().map(|s| s.mode.tag()).collect();
        assert_eq!(
            &tags[..5],
            &["track_targets", "count", "track", "gestures", "image"]
        );
        // Every mode appears in a cycle-length prefix.
        for mode in Mode::ALL {
            assert!(tags.contains(&mode.tag()), "{mode:?} missing from the mix");
        }
    }

    #[test]
    fn shared_scene_path_opens_no_slower_than_owned() {
        // The CI smoke for the scene store: acquiring a session's scene
        // from a shared handle (an Arc bump) must not be slower than
        // deep-cloning an owned scene, and the total open cost must not
        // regress. Means over a large fleet plus a retry loop keep a
        // single scheduler preemption landing inside one timed acquire
        // from flipping the comparison; calibration gets slack because
        // it is identical work on both paths and only timer noise
        // differs.
        let mut last = None;
        for _ in 0..3 {
            let probe = probe_open_cost(96, 2, &WiViConfig::fast_test());
            if probe.shared_acquire_s <= probe.owned_acquire_s
                && probe.shared_open_s() <= probe.owned_open_s() * 1.5
            {
                return;
            }
            last = Some(probe);
        }
        let probe = last.unwrap();
        panic!(
            "shared path opened slower than owned on every attempt: \
             scene-acquire {:.3}us vs {:.3}us, open {:.3}ms vs {:.3}ms",
            1e6 * probe.shared_acquire_s,
            1e6 * probe.owned_acquire_s,
            1e3 * probe.shared_open_s(),
            1e3 * probe.owned_open_s()
        );
    }

    #[test]
    fn small_soak_serves_everything_and_writes_json() {
        let cfg = WiViConfig::fast_test();
        let soak = run_serving_soak(5, 2, 2, 1.0, 16, &cfg);
        assert_eq!(soak.report.outputs.len(), 5);
        for o in &soak.report.outputs {
            assert_eq!(o.n_samples, o.n_requested);
            assert!(!o.closed_early);
        }
        assert!(soak.report.samples_per_sec() > 0.0);
        assert!(soak.baseline.samples_per_sec() > 0.0);

        // A tiny wire soak rides along so the JSON gains its "net"
        // block: same workload shape, served over loopback TCP.
        let net = run_net_soak(4, 2, 1, 0.25, 16, &cfg);
        assert_eq!(net.admitted, 4);
        assert_eq!(net.shed, 0, "default queue must not shed 4 sessions");
        assert_eq!(net.outputs_delivered, 4);
        assert!(net.open_rtt_s >= 0.0 && net.samples_per_sec > 0.0);

        let path = std::env::temp_dir().join("wivi_bench_serving_test.json");
        let path = path.to_str().unwrap();
        write_serving_json(path, &soak, "quick", Some(&net)).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"benchmark\": \"wivi_serving_engine\""));
        assert!(body.contains("\"net\": {\"sessions\": 4, \"admitted\": 4, \"shed\": 0,"));
        assert!(body.contains("\"open_rtt_us\""));
        assert!(body.contains("\"speedup_vs_1_thread\""));
        assert!(body.contains("\"threads_used\": 4"));
        assert!(body.contains("\"workers_per_shard\": 2"));
        assert!(body.contains("\"cores_available\""));
        assert!(body.contains("\"core_occupancy\""));
        assert!(body.contains("\"realtime_sessions_sustained\""));
        assert!(body.contains("\"batch_latency_p99_ms\""));
        assert!(body.contains("\"batch_latency_hist\""));
        assert!(body.contains("\"shard_stats\""));
        assert!(body.contains("\"open_cost\""));
        assert!(body.contains("\"shared_scene_acquire_us\""));
        std::fs::remove_file(path).ok();
    }
}
