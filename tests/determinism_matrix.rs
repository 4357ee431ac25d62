//! The determinism matrix: the PR-1 coordinate-hashed-seed guarantee —
//! results depend on *what* is computed, never on how the work is
//! scheduled — extended to the serving layer. `ScenarioRunner` must be
//! bitwise identical at 1, 2, and 8 worker threads; the serve engine
//! must be bitwise identical at 1, 2, and 8 shards **and** under
//! shuffled session-submission order.

mod common;

use common::*;
use wivi::prelude::*;
use wivi_bench::engine::{MotionModel, ScenarioGrid, ScenarioRunner};
use wivi_bench::scenarios::Room;
use wivi_num::Rng64;

#[test]
fn scenario_runner_is_identical_at_1_2_and_8_threads() {
    let grid = ScenarioGrid {
        rooms: vec![Room::Small],
        materials: vec![Material::HollowWall6In],
        human_counts: vec![0, 1, 2],
        motions: vec![MotionModel::RandomWalk],
        trials_per_cell: 1,
        duration_s: 0.5,
    };
    let run = |threads| {
        ScenarioRunner::new(WiViConfig::fast_test())
            .with_threads(threads)
            .run(&grid)
    };
    let baseline = run(1);
    for threads in [2usize, 8] {
        let out = run(threads);
        assert_eq!(out.len(), baseline.len());
        for (a, b) in baseline.iter().zip(&out) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(
                a.variance.to_bits(),
                b.variance.to_bits(),
                "{} differs at {threads} threads",
                a.spec.label()
            );
            assert_eq!(a.nulling_db.to_bits(), b.nulling_db.to_bits());
        }
    }
}

#[test]
fn tracking_runner_is_identical_at_1_2_and_8_threads() {
    let grid = ScenarioGrid {
        rooms: vec![Room::Small],
        materials: vec![Material::HollowWall6In],
        human_counts: vec![2],
        motions: vec![MotionModel::Crossing],
        trials_per_cell: 1,
        duration_s: 1.5,
    };
    let run = |threads| {
        ScenarioRunner::new(WiViConfig::fast_test())
            .with_threads(threads)
            .run_tracking(&grid)
    };
    let baseline = run(1);
    for threads in [2usize, 8] {
        let out = run(threads);
        for (a, b) in baseline.iter().zip(&out) {
            assert_eq!(a.n_tracks, b.n_tracks, "at {threads} threads");
            assert_eq!(a.count_accuracy.to_bits(), b.count_accuracy.to_bits());
            assert_eq!(a.track_purity.to_bits(), b.track_purity.to_bits());
        }
    }
}

/// Runs the standard mixed-mode session set through an engine with
/// `shards` shards of `workers` threads each, submitting in the order
/// given by `order`.
fn run_engine_workers(shards: usize, workers: usize, order: &[usize]) -> wivi::serve::ServeReport {
    let mut engine = ServeEngine::start(ServeConfig::with_shards_workers(shards, workers));
    for &i in order {
        engine.open(session(i)).unwrap();
    }
    engine.finish()
}

fn run_engine(shards: usize, order: &[usize]) -> wivi::serve::ServeReport {
    run_engine_workers(shards, 1, order)
}

#[test]
fn serve_engine_is_identical_at_1_2_and_8_shards_and_any_submission_order() {
    let in_order: Vec<usize> = (0..N_SESSIONS).collect();
    let baseline = run_engine(1, &in_order);
    assert_eq!(baseline.outputs.len(), N_SESSIONS);

    // Seeded shuffles of the submission order.
    let mut rng = Rng64::seed_from_u64(42);
    let mut shuffles: Vec<Vec<usize>> = Vec::new();
    for _ in 0..2 {
        let mut order = in_order.clone();
        for i in (1..order.len()).rev() {
            let j = rng.gen_below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        shuffles.push(order);
    }

    for shards in [1usize, 2, 8] {
        for order in std::iter::once(&in_order).chain(&shuffles) {
            if shards == 1 && order == &in_order {
                continue; // the baseline itself
            }
            let report = run_engine(shards, order);
            assert_eq!(report.outputs.len(), baseline.outputs.len());
            for (a, b) in baseline.outputs.iter().zip(&report.outputs) {
                assert_eq!(a.id, b.id, "output order must be id-sorted");
                assert_eq!(a.n_samples, b.n_samples);
                assert_eq!(a.n_columns, b.n_columns);
                assert_eq!(
                    a.result.events(),
                    b.result.events(),
                    "session {} events drifted",
                    a.id
                );
                assert_result_eq(
                    &a.result,
                    &b.result,
                    &format!("session {} at {shards} shards, order {order:?}", a.id),
                );
            }
            // The merged stream is a pure function of the outputs.
            assert_eq!(
                report.events, baseline.events,
                "merged stream drifted at {shards} shards, order {order:?}"
            );
        }
    }
}

#[test]
fn serve_engine_is_identical_under_multi_threaded_shards() {
    // The worker-thread axis of the matrix: shards that advance their
    // sessions on 1, 2, or 4 scoped worker threads must produce the
    // same outputs and the same merged stream, bit for bit — true
    // multi-core execution may only change wall-clock.
    let in_order: Vec<usize> = (0..N_SESSIONS).collect();
    let baseline = run_engine_workers(2, 1, &in_order);
    assert_eq!(baseline.outputs.len(), N_SESSIONS);
    for (shards, workers) in [(1usize, 2usize), (2, 2), (2, 4), (8, 2)] {
        let report = run_engine_workers(shards, workers, &in_order);
        assert_eq!(report.threads_used(), shards * workers);
        assert_eq!(report.outputs.len(), baseline.outputs.len());
        for (a, b) in baseline.outputs.iter().zip(&report.outputs) {
            assert_eq!(a.id, b.id, "output order must be id-sorted");
            assert_eq!(a.n_samples, b.n_samples);
            assert_eq!(a.n_columns, b.n_columns);
            assert_eq!(
                a.result.events(),
                b.result.events(),
                "session {} events drifted",
                a.id
            );
            assert_result_eq(
                &a.result,
                &b.result,
                &format!("session {} at {shards} shards x {workers} workers", a.id),
            );
        }
        assert_eq!(
            report.events, baseline.events,
            "merged stream drifted at {shards} shards x {workers} workers"
        );
    }
}
