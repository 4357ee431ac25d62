//! The scene store's serving contract: sessions opened from a shared
//! [`SceneHandle`] are **bitwise identical** to sessions each owning a
//! deep clone of the same [`Scene`]. Scene sharing is an ownership
//! optimization; it must be invisible to every output bit. Invariance
//! across shard counts and submission orders is pinned once, in
//! `determinism_matrix.rs`.

mod common;

use common::{assert_result_eq, mode_of};
use wivi::prelude::*;
use wivi::rf::{SceneHandle, SceneStore};
use wivi_num::Rng64;

/// Sessions in the fleet (≥ one full cycle of the modes).
const N: usize = 6;
const DUR: f64 = 2.0;

/// The one room every fleet session observes.
fn room() -> Scene {
    Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(-2.2, 1.8), Point::new(2.2, 1.8)],
            1.0,
        )))
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(1.9, 3.2), Point::new(-2.1, 3.2)],
            0.8,
        )))
}

fn spec_with(i: usize, scene: impl Into<SceneHandle>) -> SessionSpec {
    SessionSpec::builder(3 + 11 * i as u64) // non-contiguous: exercise routing
        .scene(scene)
        .config(WiViConfig::fast_test())
        .seed(9000 + i as u64)
        .duration_s(DUR)
        .start_s((i % 4) as f64 * 0.4)
        .mode(mode_of(i))
        .build()
}

fn run(shards: usize, order: &[usize], mut scene_of: impl FnMut() -> SceneHandle) -> ServeReport {
    let mut engine = ServeEngine::start(ServeConfig::with_shards(shards));
    for &i in order {
        engine.open(spec_with(i, scene_of())).unwrap();
    }
    engine.finish()
}

#[test]
fn shared_scene_sessions_equal_owned_clones() {
    let mut store = SceneStore::new();
    let shared = store.insert("fleet-room", room());

    // The owned-scene reference: every session deep-clones the room.
    let in_order: Vec<usize> = (0..N).collect();
    let owned_template = shared.clone();
    let reference = run(2, &in_order, || {
        SceneHandle::new(owned_template.scene().clone())
    });
    assert_eq!(reference.outputs.len(), N);

    // The shared-handle run, submitted in a seeded shuffle.
    let mut rng = Rng64::seed_from_u64(7);
    let mut order = in_order;
    for i in (1..order.len()).rev() {
        let j = rng.gen_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    let report = run(2, &order, || shared.clone());
    assert_eq!(report.outputs.len(), reference.outputs.len());
    for (a, b) in reference.outputs.iter().zip(&report.outputs) {
        assert_eq!(a.id, b.id, "output order must be id-sorted");
        assert_eq!(a.mode, b.mode);
        assert_eq!(a.n_samples, b.n_samples);
        assert_eq!(a.n_columns, b.n_columns);
        assert_eq!(
            a.result.events(),
            b.result.events(),
            "session {} events drifted",
            a.id
        );
        assert_eq!(
            a.nulling_db.to_bits(),
            b.nulling_db.to_bits(),
            "session {} calibration drifted",
            a.id
        );
        assert_result_eq(
            &a.result,
            &b.result,
            &format!("shared-scene session {}, order {order:?}", a.id),
        );
    }
    assert_eq!(
        report.events, reference.events,
        "merged stream drifted, order {order:?}"
    );
}

#[test]
fn fleet_sessions_actually_share_one_scene() {
    let mut store = SceneStore::new();
    let shared = store.insert("fleet-room", room());
    let specs: Vec<SessionSpec> = (0..N).map(|i| spec_with(i, shared.clone())).collect();
    // Store + local handle + one per spec: one allocation serves all.
    assert_eq!(shared.shared_count(), 2 + N);
    for s in &specs {
        assert!(SceneHandle::ptr_eq(&s.scene, &shared));
    }
    drop(specs);
    assert_eq!(shared.shared_count(), 2);
}
