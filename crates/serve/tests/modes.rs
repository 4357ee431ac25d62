//! Mode coverage: every [`Mode`] actually serves end-to-end and returns
//! its own [`ModeOutput`] variant. The `match` below pairs each mode
//! with its payload and has no fallback arm, so a new mode does not
//! compile here until its payload check is spelled out. Each mode's
//! sessions are also counted in the engine's per-session histograms.

use wivi_core::WiViConfig;
use wivi_rf::{Material, Mover, Point, Scene, WaypointWalker};
use wivi_serve::{Mode, ModeOutput, ServeConfig, ServeEngine, SessionSpec};

fn scene() -> Scene {
    Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(-2.0, 2.5), Point::new(2.0, 2.5)],
            1.0,
        )))
}

#[test]
fn every_registered_mode_serves_and_returns_its_own_payload() {
    let mut engine = ServeEngine::start(ServeConfig::with_shards(2));
    for (i, mode) in Mode::ALL.into_iter().enumerate() {
        engine
            .open(
                SessionSpec::builder(i as u64)
                    .scene(scene())
                    .config(WiViConfig::fast_test())
                    .seed(100 + i as u64)
                    .duration_s(2.5)
                    .mode(mode)
                    .build(),
            )
            .unwrap();
    }
    let report = engine.finish();
    assert_eq!(report.outputs.len(), Mode::ALL.len());
    for (i, mode) in Mode::ALL.into_iter().enumerate() {
        let out = report.output(i as u64).expect("session served");
        assert_eq!(out.mode, mode.tag());
        assert_eq!(out.n_samples, out.n_requested);
        assert!(out.n_columns > 0, "{} produced no windows", mode.tag());
        match (mode, &out.result) {
            (Mode::Track, ModeOutput::Track(spec)) => assert!(spec.is_some()),
            (Mode::TrackTargets, ModeOutput::TrackTargets(report)) => {
                assert!(!report.times_s.is_empty());
            }
            (Mode::Count, ModeOutput::Count(mean)) => assert!(mean.is_some()),
            (Mode::Gestures, ModeOutput::Gestures(decode)) => assert!(decode.is_some()),
            (Mode::Image, ModeOutput::Image(report)) => assert!(report.n_windows() > 0),
            (Mode::Track | Mode::TrackTargets | Mode::Count | Mode::Gestures | Mode::Image, _) => {
                panic!("mode '{}' returned another mode's payload", mode.tag())
            }
        }
    }
}

/// A duration in seconds as whole nanoseconds. Exact for the
/// `Duration::as_secs_f64` values sessions report: their relative error
/// is far below half a nanosecond at these magnitudes.
fn ns(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

#[test]
fn per_session_histograms_count_each_mode_once_and_sum_the_outputs() {
    let mut engine = ServeEngine::start(ServeConfig::with_shards(2));
    let registry = engine.registry().clone();
    for (i, mode) in Mode::ALL.into_iter().enumerate() {
        engine
            .open(
                SessionSpec::builder(i as u64)
                    .scene(scene())
                    .config(WiViConfig::fast_test())
                    .seed(200 + i as u64)
                    .duration_s(1.0)
                    .mode(mode)
                    .build(),
            )
            .unwrap();
    }
    let report = engine.finish();
    let snap = registry.snapshot(false);
    let hist = |name: &str| {
        snap.histogram(name)
            .unwrap_or_else(|| panic!("{name} is not registered"))
            .clone()
    };

    // The engine-wide histograms: one sample per session, summing the
    // durations each output reports in seconds.
    let calibrate = hist("serve.session.calibrate_ns");
    assert_eq!(calibrate.count, Mode::ALL.len() as u64);
    let want: u64 = report.outputs.iter().map(|o| ns(o.calibrate_s)).sum();
    assert_eq!(calibrate.sum, want, "calibration sum");
    let nulling = hist("serve.session.nulling_mdb");
    assert_eq!(nulling.count, Mode::ALL.len() as u64);
    let want: u64 = report
        .outputs
        .iter()
        .map(|o| (o.nulling_db * 1e3).round().max(0.0) as u64)
        .sum();
    assert_eq!(nulling.sum, want, "nulling sum");
    assert!(nulling.sum > 0, "calibration nulled nothing");

    // One stream histogram per mode, each holding its one session.
    for (i, mode) in Mode::ALL.into_iter().enumerate() {
        let stream = hist(&format!("serve.session.stream_ns.{}", mode.tag()));
        let out = report.output(i as u64).expect("session served");
        assert_eq!(stream.count, 1, "{} sessions", mode.tag());
        assert_eq!(stream.sum, ns(out.stream_s), "{} stream sum", mode.tag());
    }
}
