//! Shared fixtures for the integration tests: a small deterministic
//! mixed-mode session set, standalone reference runs, exact (bit-level)
//! result comparison, and the batch-invariance table ([`batch`]).
#![allow(dead_code)]

pub mod batch;

use wivi::core::gesture::GestureDecode;
use wivi::core::AngleSpectrogram;
use wivi::prelude::*;
use wivi::rf::{GestureScript, GestureStyle, Point, Vec2};
use wivi::serve::SessionId;
use wivi_bench::engine::{MotionModel, ScenarioSpec};
use wivi_bench::scenarios::Room;

/// Observation batch size used throughout (the device default).
pub const BATCH: usize = 16;

/// Trial duration for non-gesture sessions, seconds.
pub const DUR: f64 = 2.5;

/// The number of sessions in the standard mixed-mode set (≥ one full
/// cycle of all five modes).
pub const N_SESSIONS: usize = 6;

/// The scenario cell behind non-gesture session `i` — varied rooms,
/// materials, subject counts, and motion models.
fn scenario(i: usize) -> ScenarioSpec {
    let rooms = [Room::Small, Room::Large];
    let materials = [Material::HollowWall6In, Material::TintedGlass];
    let motions = [MotionModel::Crossing, MotionModel::RandomWalk];
    ScenarioSpec {
        room: rooms[i % 2],
        material: materials[i % 2],
        n_humans: 1 + i % 2,
        motion: motions[(i / 2) % 2],
        trial: i as u64,
        duration_s: DUR,
    }
}

/// A gesture scene: office clutter plus one signaller stepping one bit.
fn gesture_scene() -> Scene {
    let script = GestureScript::for_bits(
        Point::new(0.0, 3.0),
        Vec2::new(0.0, -1.0),
        GestureStyle::default(),
        3.0,
        &[false],
    );
    Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(script))
}

/// Gesture sessions record long enough for the script plus lead-in/out.
pub fn gesture_duration() -> f64 {
    let script = GestureScript::for_bits(
        Point::new(0.0, 3.0),
        Vec2::new(0.0, -1.0),
        GestureStyle::default(),
        3.0,
        &[false],
    );
    3.0 + script.duration() + 1.0
}

/// Session `i`'s mode: the set cycles through every mode.
pub fn mode_of(i: usize) -> Mode {
    Mode::ALL[i % Mode::ALL.len()]
}

/// Ids deliberately non-contiguous so hash routing is exercised.
pub fn id_of(i: usize) -> SessionId {
    7 + 13 * i as u64
}

pub fn seed_of(i: usize) -> u64 {
    scenario(i).seed()
}

pub fn duration_of(i: usize) -> f64 {
    match mode_of(i) {
        Mode::Gestures => gesture_duration(),
        _ => DUR,
    }
}

fn scene_of(i: usize) -> Scene {
    match mode_of(i) {
        Mode::Gestures => gesture_scene(),
        _ => scenario(i).build_scene(),
    }
}

/// Builds session `i` of the mixed-mode set (sessions are consumed by
/// the engine, so tests rebuild them per run — construction is
/// deterministic).
pub fn session(i: usize) -> SessionSpec {
    SessionSpec::builder(id_of(i))
        .scene(scene_of(i))
        .config(WiViConfig::fast_test())
        .seed(seed_of(i))
        .duration_s(duration_of(i))
        .start_s((i % 3) as f64 * 0.75)
        .mode(mode_of(i))
        .build()
}

/// Runs session `i` standalone through the device's own `*_streaming`
/// entry point, wrapping the payload exactly as the serving mode does —
/// the reference the serving engine must match bit for bit.
pub fn run_standalone(i: usize) -> ModeOutput {
    let mut dev = WiViDevice::new(scene_of(i), WiViConfig::fast_test(), seed_of(i));
    dev.calibrate();
    let duration = duration_of(i);
    match mode_of(i) {
        Mode::Track => ModeOutput::Track(Some(dev.track_streaming(duration, BATCH))),
        Mode::TrackTargets => {
            ModeOutput::TrackTargets(dev.track_targets_streaming(duration, BATCH))
        }
        Mode::Count => ModeOutput::Count(Some(
            dev.measure_spatial_variance_streaming(duration, BATCH),
        )),
        Mode::Gestures => {
            ModeOutput::Gestures(Some(dev.decode_gestures_streaming(duration, BATCH)))
        }
        Mode::Image => ModeOutput::Image(dev.image_streaming(duration, BATCH)),
    }
}

fn assert_spectrogram_eq(a: &AngleSpectrogram, b: &AngleSpectrogram, ctx: &str) {
    assert_eq!(a.thetas_deg, b.thetas_deg, "{ctx}: angle grids differ");
    assert_eq!(a.times_s.len(), b.times_s.len(), "{ctx}: window counts");
    for (x, y) in a.times_s.iter().zip(&b.times_s) {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: window times differ");
    }
    for (t, (ra, rb)) in a.power.iter().zip(&b.power).enumerate() {
        for (x, y) in ra.iter().zip(rb) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: power differs at window {t}"
            );
        }
    }
}

fn assert_decode_eq(a: &GestureDecode, b: &GestureDecode, ctx: &str) {
    assert_eq!(a.bits, b.bits, "{ctx}: decoded bits differ");
    assert_eq!(a.gestures.len(), b.gestures.len(), "{ctx}: gesture counts");
    for (x, y) in a.gestures.iter().zip(&b.gestures) {
        assert_eq!(
            x.time_s.to_bits(),
            y.time_s.to_bits(),
            "{ctx}: gesture time"
        );
        assert_eq!(x.polarity, y.polarity, "{ctx}: gesture polarity");
        assert_eq!(x.snr_db.to_bits(), y.snr_db.to_bits(), "{ctx}: gesture SNR");
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&a.track), bits(&b.track), "{ctx}: amplitude track");
    assert_eq!(bits(&a.matched), bits(&b.matched), "{ctx}: matched filter");
}

fn assert_imaging_eq(a: &ImagingReport, b: &ImagingReport, ctx: &str) {
    assert_eq!(a.grid, b.grid, "{ctx}: imaging grids differ");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&a.times_s), bits(&b.times_s), "{ctx}: window times");
    assert_eq!(a.fixes.len(), b.fixes.len(), "{ctx}: frame counts");
    for (w, (fa, fb)) in a.fixes.iter().zip(&b.fixes).enumerate() {
        assert_eq!(fa.len(), fb.len(), "{ctx}: fixes at window {w}");
        for (x, y) in fa.iter().zip(fb) {
            assert_eq!((x.ix, x.iy), (y.ix, y.iy), "{ctx}: window {w} cell");
            assert_eq!(x.x_m.to_bits(), y.x_m.to_bits(), "{ctx}: window {w} x");
            assert_eq!(x.y_m.to_bits(), y.y_m.to_bits(), "{ctx}: window {w} y");
            assert_eq!(
                x.power_db.to_bits(),
                y.power_db.to_bits(),
                "{ctx}: window {w} power"
            );
            assert_eq!(
                x.snr_db.to_bits(),
                y.snr_db.to_bits(),
                "{ctx}: window {w} snr"
            );
        }
    }
    assert_eq!(a.confirmed_counts, b.confirmed_counts, "{ctx}: counts");
    assert_eq!(a.tracks, b.tracks, "{ctx}: position tracks");
}

/// Exact comparison of two mode outputs — every f64 by bit pattern.
pub fn assert_result_eq(a: &ModeOutput, b: &ModeOutput, ctx: &str) {
    match (a, b) {
        (ModeOutput::Track(x), ModeOutput::Track(y)) => match (x, y) {
            (Some(x), Some(y)) => assert_spectrogram_eq(x, y, ctx),
            (None, None) => {}
            _ => panic!("{ctx}: one Track result empty"),
        },
        (ModeOutput::TrackTargets(x), ModeOutput::TrackTargets(y)) => {
            assert_eq!(
                x.confirmed_counts, y.confirmed_counts,
                "{ctx}: per-window counts differ"
            );
            assert_eq!(x.events, y.events, "{ctx}: event streams differ");
            assert_eq!(x, y, "{ctx}: tracking reports differ");
        }
        (ModeOutput::Count(x), ModeOutput::Count(y)) => assert_eq!(
            x.map(f64::to_bits),
            y.map(f64::to_bits),
            "{ctx}: variance differs"
        ),
        (ModeOutput::Gestures(x), ModeOutput::Gestures(y)) => match (x, y) {
            (Some(x), Some(y)) => assert_decode_eq(x, y, ctx),
            (None, None) => {}
            _ => panic!("{ctx}: one Gestures result empty"),
        },
        (ModeOutput::Image(x), ModeOutput::Image(y)) => assert_imaging_eq(x, y, ctx),
        _ => panic!("{ctx}: mode mismatch"),
    }
}
