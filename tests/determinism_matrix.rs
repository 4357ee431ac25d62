//! The determinism matrix: the PR-1 coordinate-hashed-seed guarantee —
//! results depend on *what* is computed, never on how the work is
//! scheduled — extended to the serving layer. A scenario grid's trials,
//! mapped over worker threads, must be bitwise identical at 1, 2, and 8
//! threads; the serve engine must be bitwise identical at 1, 2, and 8
//! shards **and** under shuffled session-submission order.

mod common;

use common::*;
use wivi::prelude::*;
use wivi_bench::engine::{
    ground_truth_thetas, score_tracking, MotionModel, ScenarioGrid, ScenarioSpec,
};
use wivi_bench::scenarios::Room;
use wivi_num::par::parallel_map_threads;
use wivi_num::Rng64;
use wivi_track::tracker::DOMINANCE_GAP_WINDOW;

/// Per-trial outcome of a counting trial: seed, mean spatial variance,
/// and achieved nulling (dB).
fn variance_trial(spec: &ScenarioSpec) -> (u64, f64, f64) {
    let mut dev = WiViDevice::new(spec.build_scene(), WiViConfig::fast_test(), spec.seed());
    let nulling_db = dev.calibrate().nulling_db();
    let variance = dev.measure_spatial_variance_streaming(spec.duration_s, BATCH);
    (spec.seed(), variance, nulling_db)
}

/// Per-trial outcome of a tracking trial scored against ground truth:
/// confirmed tracks, count accuracy, and track purity.
fn tracking_trial(spec: &ScenarioSpec) -> (usize, f64, f64) {
    let cfg = WiViConfig::fast_test();
    let mut dev = WiViDevice::new(spec.build_scene(), cfg, spec.seed());
    dev.calibrate();
    let report = dev.track_targets_streaming(spec.duration_s, BATCH);
    let gt = ground_truth_thetas(&spec.build_scene(), &cfg, &report.times_s);
    let latency = report.cfg.confirm_hits + DOMINANCE_GAP_WINDOW;
    let (count_accuracy, track_purity) = score_tracking(&report, &gt, latency);
    (report.tracks.len(), count_accuracy, track_purity)
}

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
    let specs = grid.specs();
    let run = |threads| parallel_map_threads(&specs, variance_trial, Some(threads));
    let baseline = run(1);
    for threads in [2usize, 8] {
        let out = run(threads);
        assert_eq!(out.len(), baseline.len());
        for ((spec, &(seed_a, var_a, null_a)), &(seed_b, var_b, null_b)) in
            specs.iter().zip(&baseline).zip(&out)
        {
            assert_eq!(seed_a, seed_b);
            assert_eq!(
                var_a.to_bits(),
                var_b.to_bits(),
                "{spec:?} differs at {threads} threads"
            );
            assert_eq!(null_a.to_bits(), null_b.to_bits());
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
    let specs = grid.specs();
    let run = |threads| parallel_map_threads(&specs, tracking_trial, Some(threads));
    let baseline = run(1);
    for threads in [2usize, 8] {
        let out = run(threads);
        for (&(tracks_a, acc_a, purity_a), &(tracks_b, acc_b, purity_b)) in
            baseline.iter().zip(&out)
        {
            assert_eq!(tracks_a, tracks_b, "at {threads} threads");
            assert_eq!(acc_a.to_bits(), acc_b.to_bits());
            assert_eq!(purity_a.to_bits(), purity_b.to_bits());
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
