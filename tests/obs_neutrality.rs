//! Observability neutrality: turning `WIVI_OBS` on is *bitwise
//! invisible* to every result the pipeline produces. The obs layer is
//! write-only telemetry — counters, histograms, and span rings that
//! nothing on the compute path ever reads — so the standard mixed-mode
//! session set must produce identical outputs and an identical merged
//! event stream with observability enabled, across the full determinism
//! matrix (1/2/8 shards × 1/2/4 workers). The CI `WIVI_OBS=1` leg
//! additionally replays the golden traces with the switch on.

mod common;

use std::sync::{Mutex, MutexGuard};

use common::*;
use wivi::prelude::*;

/// Serializes tests that flip the process-global obs switch (tests in
/// this binary run on parallel threads).
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn run_engine(shards: usize, workers: usize) -> wivi::serve::ServeReport {
    let mut engine = ServeEngine::start(ServeConfig::with_shards_workers(shards, workers));
    for i in 0..N_SESSIONS {
        engine.open(session(i)).unwrap();
    }
    engine.finish()
}

#[test]
fn serving_is_bitwise_invariant_under_observability() {
    let _g = guard();
    wivi_obs::set_enabled(Some(false));
    let baseline = run_engine(1, 1);
    assert_eq!(baseline.outputs.len(), N_SESSIONS);

    wivi_obs::set_enabled(Some(true));
    for shards in [1usize, 2, 8] {
        for workers in [1usize, 2, 4] {
            let report = run_engine(shards, workers);
            assert_eq!(report.outputs.len(), baseline.outputs.len());
            for (a, b) in baseline.outputs.iter().zip(&report.outputs) {
                assert_eq!(a.id, b.id, "output order must be id-sorted");
                assert_eq!(a.n_samples, b.n_samples);
                assert_eq!(a.n_columns, b.n_columns);
                assert_eq!(
                    a.result.events(),
                    b.result.events(),
                    "session {} events drifted with obs on",
                    a.id
                );
                assert_result_eq(
                    &a.result,
                    &b.result,
                    &format!(
                        "session {} with obs on at {shards} shards x {workers} workers",
                        a.id
                    ),
                );
            }
            assert_eq!(
                report.events, baseline.events,
                "merged stream drifted with obs on at {shards} shards x {workers} workers"
            );
        }
    }
    wivi_obs::set_enabled(None);
    let _ = wivi_obs::drain();
}

#[test]
fn spans_record_when_enabled_and_stay_silent_when_disabled() {
    let _g = guard();

    wivi_obs::set_enabled(Some(false));
    let _ = wivi_obs::drain();
    let off = run_engine(2, 2);
    assert_eq!(off.outputs.len(), N_SESSIONS);
    assert!(
        wivi_obs::drain().is_empty(),
        "disabled run must record no spans"
    );

    wivi_obs::set_enabled(Some(true));
    let on = run_engine(2, 2);
    assert_eq!(on.outputs.len(), N_SESSIONS);
    let records = wivi_obs::drain();
    wivi_obs::set_enabled(None);

    for name in ["session.open", "session.step", "session.drain"] {
        assert!(
            records.iter().filter(|r| r.name == name).count() >= N_SESSIONS,
            "expected at least one '{name}' span per session"
        );
    }
    // Per-window pipeline spans from the engines underneath the modes.
    assert!(
        records.iter().any(|r| r.name == "music.window"),
        "MUSIC windows must appear in the flight recorder"
    );
    // The drain is globally ordered by span completion time.
    for w in records.windows(2) {
        assert!(
            w[0].end_ns() <= w[1].end_ns(),
            "drained records out of order"
        );
    }
}
