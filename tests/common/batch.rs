//! The batch-invariance table: a mode's output must not depend on how
//! its observations are batched. Each device entry point runs the mode's
//! one session type through the same batch loop, so every streaming
//! batch length and a single whole-trace batch (the offline one-shot
//! methods) must all agree bit for bit.

use super::assert_result_eq;
use wivi::prelude::*;
use wivi::rf::{GestureScript, GestureStyle, Point as P, Vec2};

/// Streaming batch lengths every row is checked at, against the offline
/// (one whole-trace batch) output.
pub const BATCH_LENS: [usize; 4] = [1, 7, 16, 100];

fn walled_scene() -> Scene {
    Scene::new(Material::HollowWall6In).with_office_clutter(Scene::conference_room_small())
}

pub fn walker_scene() -> Scene {
    walled_scene().with_mover(Mover::human(WaypointWalker::new(
        vec![P::new(-1.5, 3.5), P::new(0.5, 1.2), P::new(1.5, 3.5)],
        1.0,
    )))
}

pub fn crossing_scene() -> Scene {
    walled_scene()
        .with_mover(Mover::human(WaypointWalker::new(
            vec![P::new(-1.5, 3.8), P::new(0.5, 1.0)],
            0.8,
        )))
        .with_mover(Mover::human(WaypointWalker::new(
            vec![P::new(0.9, 1.1), P::new(1.6, 3.7)],
            0.5,
        )))
}

fn gesture_script() -> GestureScript {
    GestureScript::for_bits(
        P::new(0.0, 3.0),
        Vec2::new(0.0, -1.0),
        GestureStyle::default(),
        3.0,
        &[false],
    )
}

fn gesture_scene() -> Scene {
    walled_scene().with_mover(Mover::human(gesture_script()))
}

/// A calibrated fast-test device over `scene`.
pub fn device(scene: Scene, seed: u64) -> WiViDevice {
    let mut dev = WiViDevice::new(scene, WiViConfig::fast_test(), seed);
    dev.calibrate();
    dev
}

/// One row of the table: a mode and the trial it is run on.
pub struct Case {
    pub mode: Mode,
    pub scene: fn() -> Scene,
    pub seed: u64,
    pub duration_s: f64,
}

/// One row per mode, in [`Mode::ALL`] order.
pub fn cases() -> [Case; 5] {
    let case = |mode, scene, seed, duration_s| Case {
        mode,
        scene,
        seed,
        duration_s,
    };
    [
        case(Mode::Track, walker_scene as fn() -> Scene, 71, 2.0),
        case(Mode::TrackTargets, crossing_scene, 81, 2.5),
        case(Mode::Count, walker_scene, 72, 2.0),
        case(
            Mode::Gestures,
            gesture_scene,
            73,
            3.0 + gesture_script().duration() + 1.0,
        ),
        // 4 s covers several 2 s imaging apertures of the derived config.
        case(Mode::Image, walker_scene, 75, 4.0),
    ]
}

/// Runs `case` through the device entry point for its mode: streaming
/// at `Some(batch_len)`, the offline one-shot method at `None`.
pub fn run(case: &Case, batch: Option<usize>) -> ModeOutput {
    let mut dev = device((case.scene)(), case.seed);
    let d = case.duration_s;
    match (case.mode, batch) {
        (Mode::Track, None) => ModeOutput::Track(Some(dev.track(d))),
        (Mode::Track, Some(b)) => ModeOutput::Track(Some(dev.track_streaming(d, b))),
        (Mode::TrackTargets, None) => ModeOutput::TrackTargets(dev.track_targets(d)),
        (Mode::TrackTargets, Some(b)) => {
            ModeOutput::TrackTargets(dev.track_targets_streaming(d, b))
        }
        (Mode::Count, None) => ModeOutput::Count(Some(dev.measure_spatial_variance(d))),
        (Mode::Count, Some(b)) => {
            ModeOutput::Count(Some(dev.measure_spatial_variance_streaming(d, b)))
        }
        (Mode::Gestures, None) => ModeOutput::Gestures(Some(dev.decode_gestures(d))),
        (Mode::Gestures, Some(b)) => {
            ModeOutput::Gestures(Some(dev.decode_gestures_streaming(d, b)))
        }
        (Mode::Image, None) => ModeOutput::Image(dev.image(d)),
        (Mode::Image, Some(b)) => ModeOutput::Image(dev.image_streaming(d, b)),
    }
}

/// Guards against comparing empty outputs: each trial must exercise its
/// mode.
fn assert_nontrivial(out: &ModeOutput) {
    match out {
        ModeOutput::Track(spec) => assert!(spec.is_some()),
        ModeOutput::TrackTargets(report) => assert!(
            !report.tracks.is_empty(),
            "scenario produced no tracks to compare"
        ),
        ModeOutput::Count(mean) => assert!(mean.is_some()),
        ModeOutput::Gestures(decoded) => {
            assert_eq!(decoded.as_ref().unwrap().bits.first(), Some(&Some(false)));
        }
        ModeOutput::Image(report) => {
            assert!(report.n_windows() >= 3, "trial too short to mean anything")
        }
    }
}

/// The table row for `mode`.
pub fn case(mode: Mode) -> Case {
    cases()
        .into_iter()
        .find(|c| c.mode == mode)
        .unwrap_or_else(|| panic!("no table row for mode {mode:?}"))
}

/// Checks `mode`'s row: the offline output is non-trivial and every
/// streaming batch length in [`BATCH_LENS`] reproduces it bit for bit.
/// Returns the offline output for mode-specific follow-up checks.
pub fn assert_batch_invariant(mode: Mode) -> ModeOutput {
    let case = case(mode);
    let offline = run(&case, None);
    assert_nontrivial(&offline);
    for batch_len in BATCH_LENS {
        let streamed = run(&case, Some(batch_len));
        let ctx = format!("{} at batch {batch_len}", mode.tag());
        assert_result_eq(&streamed, &offline, &ctx);
    }
    offline
}
