//! The batch-invariance table: a mode's output must not depend on how
//! its observations are batched. Each device entry point runs the mode's
//! one session type through the same batch loop, so every streaming
//! batch length and a single whole-trace batch (the offline one-shot
//! methods) must all agree bit for bit.

use super::assert_result_eq;
use wivi::core::gesture::GestureDecode;
use wivi::core::AngleSpectrogram;
use wivi::prelude::*;
use wivi::rf::{GestureScript, GestureStyle, Point as P, Vec2};
use wivi::track::TrackingReport;

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
    pub tag: &'static str,
    pub scene: fn() -> Scene,
    pub seed: u64,
    pub duration_s: f64,
}

/// One row per built-in mode, in registry order.
pub fn cases() -> [Case; 5] {
    let case = |tag, scene, seed, duration_s| Case {
        tag,
        scene,
        seed,
        duration_s,
    };
    [
        case("track", walker_scene as fn() -> Scene, 71, 2.0),
        case("track_targets", crossing_scene, 81, 2.5),
        case("count", walker_scene, 72, 2.0),
        case(
            "gestures",
            gesture_scene,
            73,
            3.0 + gesture_script().duration() + 1.0,
        ),
        // 4 s covers several 2 s imaging apertures of the derived config.
        case("image", walker_scene, 75, 4.0),
    ]
}

/// Runs `case` through the device entry point for its mode: streaming
/// at `Some(batch_len)`, the offline one-shot method at `None`.
pub fn run(case: &Case, batch: Option<usize>) -> ModeOutput {
    let mut dev = device((case.scene)(), case.seed);
    let d = case.duration_s;
    let tag = case.tag;
    match (tag, batch) {
        ("track", None) => ModeOutput::new(tag, Some(dev.track(d))),
        ("track", Some(b)) => ModeOutput::new(tag, Some(dev.track_streaming(d, b))),
        ("track_targets", None) => ModeOutput::new(tag, dev.track_targets(d)),
        ("track_targets", Some(b)) => ModeOutput::new(tag, dev.track_targets_streaming(d, b)),
        ("count", None) => ModeOutput::new(tag, Some(dev.measure_spatial_variance(d))),
        ("count", Some(b)) => {
            ModeOutput::new(tag, Some(dev.measure_spatial_variance_streaming(d, b)))
        }
        ("gestures", None) => ModeOutput::new(tag, Some(dev.decode_gestures(d))),
        ("gestures", Some(b)) => ModeOutput::new(tag, Some(dev.decode_gestures_streaming(d, b))),
        ("image", None) => ModeOutput::new(tag, dev.image(d)),
        ("image", Some(b)) => ModeOutput::new(tag, dev.image_streaming(d, b)),
        (other, _) => panic!("unknown mode '{other}'"),
    }
}

/// Guards against comparing empty outputs: each trial must exercise its
/// mode.
fn assert_nontrivial(out: &ModeOutput) {
    match out.tag() {
        "track" => assert!(out.expect::<Option<AngleSpectrogram>>().is_some()),
        "track_targets" => assert!(
            !out.expect::<TrackingReport>().tracks.is_empty(),
            "scenario produced no tracks to compare"
        ),
        "count" => assert!(out.expect::<Option<f64>>().is_some()),
        "gestures" => {
            let decoded = out.expect::<Option<GestureDecode>>();
            assert_eq!(decoded.as_ref().unwrap().bits.first(), Some(&Some(false)));
        }
        "image" => assert!(
            out.expect::<ImagingReport>().n_windows() >= 3,
            "trial too short to mean anything"
        ),
        other => panic!("unknown mode '{other}'"),
    }
}

/// The table row for `tag`.
pub fn case(tag: &str) -> Case {
    cases()
        .into_iter()
        .find(|c| c.tag == tag)
        .unwrap_or_else(|| panic!("no table row for mode '{tag}'"))
}

/// Checks `tag`'s row: the offline output is non-trivial and every
/// streaming batch length in [`BATCH_LENS`] reproduces it bit for bit.
/// Returns the offline output for mode-specific follow-up checks.
pub fn assert_batch_invariant(tag: &str) -> ModeOutput {
    let case = case(tag);
    let offline = run(&case, None);
    assert_nontrivial(&offline);
    for batch_len in BATCH_LENS {
        let streamed = run(&case, Some(batch_len));
        assert_result_eq(&streamed, &offline, &format!("{tag} at batch {batch_len}"));
    }
    offline
}
