//! The serving workload: the mixed-mode session list the serving
//! benchmark submits to [`wivi_serve::ServeEngine`] through the wire
//! front.
//!
//! The list cycles the engine's five session modes over varied scenario
//! cells (rooms × materials × subject counts × motion models, reusing
//! the [`crate::engine`] grid generators) and staggers session start
//! offsets so the merged event stream exercises the serving clock.
//! [`REALTIME_RATE`] is the paper's per-session channel rate that
//! throughput is read against.

use wivi_core::WiViConfig;
use wivi_rf::{GestureScript, GestureStyle, Material, Mover, Point, Scene, Vec2};
use wivi_serve::{Mode, SessionSpec};

use crate::engine::{MotionModel, ScenarioSpec};
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
}
