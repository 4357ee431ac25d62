//! Session-lifecycle edge cases: early close mid-stream, zero-duration
//! sessions, more sessions than shards, and a full queue exercising
//! backpressure — each asserting that no events (or sessions) are lost
//! or duplicated.

use wivi_core::gesture::MIN_DECODE_WINDOWS;
use wivi_core::{WiViConfig, WiViDevice};
use wivi_rf::{Material, Mover, Point, Scene, WaypointWalker};
use wivi_serve::{Mode, ModeOutput, ServeConfig, ServeEngine, SessionOutput, SessionSpec};
use wivi_track::{TrackTargets, TrackingReport};

fn crossing_scene() -> Scene {
    Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(-1.5, 3.8), Point::new(0.5, 1.0)],
            0.8,
        )))
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(0.9, 1.1), Point::new(1.6, 3.7)],
            0.5,
        )))
}

fn spec(id: u64, duration_s: f64, mode: Mode) -> SessionSpec {
    SessionSpec::new(
        id,
        crossing_scene(),
        WiViConfig::fast_test(),
        81,
        duration_s,
        mode,
    )
}

#[test]
fn zero_duration_sessions_drain_cleanly() {
    let mut engine = ServeEngine::start(ServeConfig::with_shards(2));
    engine.open(spec(1, 0.0, Mode::Track)).unwrap();
    engine.open(spec(2, 0.0, Mode::TrackTargets)).unwrap();
    engine.open(spec(3, 0.0, Mode::Count)).unwrap();
    engine.open(spec(4, 0.0, Mode::Gestures)).unwrap();
    engine.open(spec(5, 0.0, Mode::Image)).unwrap();
    // Gestures sessions long enough for exactly one and exactly two
    // analysis windows — still short of the decoder's minimum — drain
    // to `None` too instead of panicking their shard.
    let cfg = WiViConfig::fast_test();
    let isar = cfg.music.isar;
    let short = [(6, 1usize), (7, 2)];
    for (id, windows) in short {
        let n = isar.window + (windows - 1) * isar.hop;
        let duration_s = n as f64 / cfg.radio.channel_rate_hz;
        engine.open(spec(id, duration_s, Mode::Gestures)).unwrap();
    }
    let report = engine.finish();
    assert_eq!(report.outputs.len(), 7);
    assert!(report.events.is_empty());
    for (id, windows) in short {
        let out = report.output(id).expect("short gestures session drained");
        assert_eq!(out.n_columns, windows);
        assert!(windows < MIN_DECODE_WINDOWS);
        assert!(matches!(out.result, ModeOutput::Gestures(None)));
    }
    for out in report.outputs.iter().filter(|o| o.id <= 5) {
        assert_eq!(out.n_requested, 0);
        assert_eq!(out.n_samples, 0);
        assert_eq!(out.n_columns, 0);
        assert!(!out.closed_early, "a zero-duration session is complete");
        assert!(out.result.events().is_empty());
        match &out.result {
            ModeOutput::Track(spec) => assert!(spec.is_none()),
            ModeOutput::TrackTargets(r) => {
                assert_eq!(r.n_windows(), 0);
                assert!(r.tracks.is_empty() && r.events.is_empty());
            }
            ModeOutput::Count(mean) => assert!(mean.is_none()),
            ModeOutput::Gestures(decode) => assert!(decode.is_none()),
            ModeOutput::Image(r) => {
                assert_eq!(r.n_windows(), 0);
                assert!(r.fixes.is_empty() && r.tracks.is_empty());
            }
        }
    }
}

#[test]
fn more_sessions_than_shards_all_complete_exactly_once() {
    let n = 6usize;
    let mut engine = ServeEngine::start(ServeConfig::with_shards(2));
    for id in 0..n as u64 {
        engine.open(spec(id, 1.5, Mode::TrackTargets)).unwrap();
    }
    let report = engine.finish();
    assert_eq!(report.outputs.len(), n);
    let mut ids: Vec<u64> = report.outputs.iter().map(|o| o.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "a session was duplicated or lost");
    assert_eq!(
        report.shards().iter().map(|s| s.sessions).sum::<usize>(),
        n,
        "shard session counts disagree with outputs"
    );

    // Identical seeds/scenes ⇒ identical outputs; multiplexing ≥ 3
    // same-config sessions per shard must not perturb any of them. Each
    // live session owns one engine, so a shard's peak engine count lies
    // between one and the sessions it served.
    let mut dev = WiViDevice::new(crossing_scene(), WiViConfig::fast_test(), 81);
    dev.calibrate();
    let reference = dev.track_targets_streaming(1.5, engine_batch());
    for out in &report.outputs {
        let r = tracking_report(out);
        assert_eq!(r, &reference, "session {}", out.id);
        assert_eq!(out.result.events(), reference.events);
    }
    for s in report.shards() {
        if s.sessions > 0 {
            assert!(
                (1..=s.sessions).contains(&s.engines),
                "shard {}: {} engines for {} sessions",
                s.shard,
                s.engines,
                s.sessions
            );
        }
    }
}

fn tracking_report(out: &SessionOutput) -> &TrackingReport {
    match &out.result {
        ModeOutput::TrackTargets(report) => report,
        _ => panic!("session {} is not a tracking session", out.id),
    }
}

fn engine_batch() -> usize {
    ServeConfig::with_shards(1).batch_len
}

#[test]
fn closing_mid_stream_yields_an_exact_prefix_with_no_event_loss() {
    // One long tracking session; close it while it streams. The output
    // must equal a standalone run truncated to exactly the samples the
    // engine processed — same columns, same events, nothing lost or
    // duplicated at the cut.
    let duration = 60.0; // ~18'750 samples ≈ seconds of compute: close lands mid-stream
    let mut engine = ServeEngine::start(ServeConfig::with_shards(1));
    engine.open(spec(9, duration, Mode::TrackTargets)).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(300));
    engine.close(9).unwrap();
    let report = engine.finish();

    let out = report.output(9).expect("closed session must still report");
    assert!(
        out.closed_early,
        "close arrived after completion — lengthen the trial"
    );
    assert!(out.n_samples < out.n_requested);
    assert_eq!(
        out.n_samples % engine_batch(),
        0,
        "close must land on a batch boundary"
    );

    // Standalone reference over exactly the streamed prefix.
    let rate = WiViConfig::fast_test().radio.channel_rate_hz;
    let truncated_duration = out.n_samples as f64 / rate;
    let mut dev = WiViDevice::new(crossing_scene(), WiViConfig::fast_test(), 81);
    dev.calibrate();
    assert_eq!(dev.trace_len(truncated_duration), out.n_samples);
    let reference = dev.track_targets_streaming(truncated_duration, engine_batch());

    let r = tracking_report(out);
    assert_eq!(r.n_windows(), reference.n_windows());
    assert_eq!(
        r.events, reference.events,
        "events lost or duplicated at close"
    );
    assert_eq!(r, &reference, "closed session is not an exact prefix");
    // The merged stream carries exactly the session's events.
    assert_eq!(report.events.len(), out.result.events().len());
}

#[test]
fn full_queue_backpressures_and_loses_nothing() {
    // One shard, queue bound 1. The shard spends a long time opening
    // (calibrating) the first session, so the queue stays full long
    // enough for try_open to observe backpressure deterministically.
    let mut engine = ServeEngine::start(ServeConfig {
        queue_capacity: 1,
        batch_len: 16,
        ..ServeConfig::with_shards_workers(1, 1)
    });
    engine.open(spec(0, 0.5, Mode::Count)).unwrap();
    engine.open(spec(1, 0.5, Mode::Count)).unwrap();

    let mut rejected = 0usize;
    let mut pending = spec(2, 0.5, Mode::Count);
    loop {
        match engine.try_open(pending) {
            Ok(()) => break,
            Err(e) => {
                rejected += 1;
                assert_eq!(e.tag(), "queue_full");
                let back = e.into_spec().expect("QueueFull hands the spec back");
                assert_eq!(back.id, 2, "rejected spec must come back intact");
                pending = *back;
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
        assert!(rejected < 10_000, "backpressure never cleared");
    }
    assert!(
        rejected > 0,
        "queue of capacity 1 with a busy shard never backpressured"
    );

    let report = engine.finish();
    assert_eq!(report.outputs.len(), 3, "backpressure dropped a session");
    let mut ids: Vec<u64> = report.outputs.iter().map(|o| o.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2]);
    for out in &report.outputs {
        assert!(!out.closed_early);
        assert_eq!(out.n_samples, out.n_requested);
    }
}

#[test]
fn duplicate_session_ids_are_rejected() {
    let mut engine = ServeEngine::start(ServeConfig::with_shards(1));
    engine.open(spec(5, 0.5, Mode::Count)).unwrap();
    let err = engine
        .open(spec(5, 0.5, Mode::Count))
        .expect_err("duplicate id must be refused");
    assert!(matches!(err, wivi_serve::ServeError::DuplicateId(5)));
    // try_open enforces the same uniqueness.
    let err = engine
        .try_open(spec(5, 0.5, Mode::Count))
        .expect_err("duplicate id must be refused on try_open too");
    assert_eq!(err.tag(), "duplicate_id");
    let report = engine.finish();
    assert_eq!(report.outputs.len(), 1, "the refused opens must not run");
}

#[test]
fn closing_unknown_or_finished_sessions_is_harmless() {
    let mut engine = ServeEngine::start(ServeConfig::with_shards(2));
    engine.open(spec(1, 0.5, Mode::Count)).unwrap();
    engine.close(999).unwrap(); // never existed
    let report = engine.finish();
    assert_eq!(report.outputs.len(), 1);
    assert!(!report.outputs[0].closed_early);
}

#[test]
fn shard_stats_are_consistent() {
    let mut engine = ServeEngine::start(ServeConfig::with_shards(3));
    for id in 0..5u64 {
        engine.open(spec(id, 1.0, Mode::Count)).unwrap();
    }
    let report = engine.finish();
    assert_eq!(report.shards().len(), 3);
    let mut total_batches = 0usize;
    for s in report.shards() {
        assert!(s.utilization() >= 0.0 && s.utilization() <= 1.0);
        assert_eq!(s.batches, s.batch_latency_ns.count as usize);
        total_batches += s.batches;
    }
    // 1.0s at 312.5 Hz = 313 samples = ⌈313/16⌉ = 20 batches per session.
    assert_eq!(total_batches, 5 * 20);
    assert!(report.batch_latency_percentile_s(50.0) > 0.0);
    assert!(report.batch_latency_percentile_s(99.0) >= report.batch_latency_percentile_s(50.0));
}
