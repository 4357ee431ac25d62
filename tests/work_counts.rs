//! Deterministic work counts: exact heap-allocation counts for the
//! serving sample loop, engine, table and session construction, session
//! steps, a warm imaging window, one front-end observation and a front
//! end's static-path cache, and the bytes an imaging table build and a
//! histogram's registration and first record request.
//!
//! Wall time drifts from run to run; allocation counts of a fixed
//! `fast_test` scenario do not, so they are pinned exactly. A counting
//! global allocator tallies allocations per thread, so tests running in
//! parallel cannot pollute each other's counts. Observability is
//! switched off around every measurement (its first span on a thread
//! allocates a ring), which keeps the counts equal under `WIVI_OBS=1`,
//! and the SIMD tier allocates nothing, so they hold under
//! `WIVI_NO_SIMD=1` too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

use wivi::core::{
    CountSession, GestureSession, MusicConfig, MusicEngine, Session, TrackSession, WiViConfig,
    WiViDevice,
};
use wivi::image::engine::ImagingTables;
use wivi::image::{ImageConfig, ImageSession, ImagingEngine};
use wivi::num::Complex64;
use wivi::obs::{Registry, N_BUCKETS};
use wivi::rf::{Material, Mover, Point, Scene, Vec2, WaypointWalker};
use wivi::sdr::{MimoFrontend, RadioConfig};

/// `System`, plus a per-thread count of allocation calls (`alloc`,
/// `alloc_zeroed` and `realloc`; frees are not counted) and of the
/// bytes they request (a `realloc` counts its new size).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc(bytes: usize) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, and returns what `System`
// returned. The only other work is bumping two const-initialized
// thread-local `Cell`s, which have no destructor to register and so
// never allocate or re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Serializes the measurements: the observability switch is
/// process-wide, so one test restoring it must not turn it back on in
/// the middle of another's count.
static OBS_OFF: Mutex<()> = Mutex::new(());

/// Holds observability off until dropped, then restores the
/// `WIVI_OBS` default.
struct ObsOff(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ObsOff {
    fn new() -> Self {
        let guard = OBS_OFF.lock().unwrap_or_else(PoisonError::into_inner);
        wivi::obs::set_enabled(Some(false));
        Self(guard)
    }
}

impl Drop for ObsOff {
    fn drop(&mut self) {
        wivi::obs::set_enabled(None);
    }
}

/// Allocations `f` makes on this thread, and the bytes they request.
fn heap_use<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let (calls, bytes) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let r = f();
    (
        ALLOCS.with(Cell::get) - calls,
        BYTES.with(Cell::get) - bytes,
        r,
    )
}

/// Allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let (n, _, r) = heap_use(f);
    (n, r)
}

/// A calibrated `fast_test` device watching one walker cross the small
/// conference room.
fn walker_device() -> WiViDevice {
    let scene = Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(-1.5, 4.0), Point::new(1.5, 2.0)],
            1.0,
        )));
    let mut dev = WiViDevice::new(scene, WiViConfig::fast_test(), 7);
    dev.calibrate();
    dev
}

#[test]
fn serving_sample_loop_allocates_nothing_once_warm() {
    let mut dev = walker_device();
    let _obs = ObsOff::new();
    let mut batch: Vec<Complex64> = Vec::new();
    dev.observe_batch_into(64, &mut batch); // warm-up: the buffer grows
    for _ in 0..3 {
        let (n, ()) = allocations(|| dev.observe_batch_into(64, &mut batch));
        assert_eq!(n, 0, "observe_batch_into(64) allocated {n} times");
        assert_eq!(batch.len(), 64);
    }
}

#[test]
fn front_end_observe_allocates_its_observation_only() {
    let mut dev = walker_device();
    let _obs = ObsOff::new();
    let fe = dev.frontend_mut();
    fe.observe(); // warm-up
    let (n, subcarriers) = allocations(|| {
        let mut subcarriers = 0;
        for _ in 0..16 {
            subcarriers += fe.observe().h.len();
        }
        subcarriers
    });
    assert_eq!(n, 16, "16 observe() calls allocated {n} times");
    assert_eq!(subcarriers, 16 * 16);
}

#[test]
fn a_front_end_sums_its_static_paths_once_in_one_allocation() {
    let _obs = ObsOff::new();
    let cfg = RadioConfig::fast_test();
    let k = cfg.ofdm.n_subcarriers as u64;
    let observation = 16 * k;
    // Clutter and no movers, so no transmission traces a path into the
    // mover scratch buffer.
    let scene =
        Scene::new(Material::HollowWall6In).with_office_clutter(Scene::conference_room_small());
    let mut fe = MimoFrontend::new(scene, cfg, 7);
    // The first transmission sums the static paths of both antennas at
    // every subcarrier into one 2 × k cache, beside its observation.
    let (n, bytes, _) = heap_use(|| fe.sound(0));
    assert_eq!(n, 1 + 1, "the first sound() allocated {n} times");
    assert_eq!(
        bytes,
        2 * 16 * k + observation,
        "the first sound() requested {bytes} B"
    );
    // Every later transmission, on either antenna, reads the cache.
    for tx in [1, 0] {
        let (n, bytes, _) = heap_use(|| fe.sound(tx));
        assert_eq!((n, bytes), (1, observation), "sound({tx}) after the first");
    }
    // A scene change drops the sums; they are rebuilt in place.
    fe.scene_mut().clutter.pop();
    let (n, bytes, _) = heap_use(|| fe.sound(0));
    assert_eq!((n, bytes), (1, observation), "sound(0) after scene_mut");
}

#[test]
fn a_histogram_allocates_a_bucket_stripe_per_recording_thread() {
    let _obs = ObsOff::new();
    let registry = Registry::new();
    let stripe = 8 * N_BUCKETS as u64;
    assert_eq!(stripe, 7_808);
    // Registration allocates the handle, its name and the registry's
    // slot; any bucket stripe alone would be 7 808 B.
    let (_, bytes, hist) = heap_use(|| registry.histogram("serve.session.calibrate_ns"));
    assert!(
        bytes < stripe,
        "registering a histogram requested {bytes} B"
    );
    // This thread's first record allocates its stripe; later ones
    // allocate nothing.
    let (n, bytes, ()) = heap_use(|| hist.record(1_234));
    assert_eq!((n, bytes), (1, stripe), "the first record");
    let (n, ()) = allocations(|| hist.record(5_678));
    assert_eq!(n, 0, "a second record allocated {n} times");
    assert_eq!(hist.count(), 2);
}

#[test]
fn an_imaging_table_build_allocates_one_steering_table() {
    let _obs = ObsOff::new();
    // TX 1's steering table, 448 cells × 625 phasors of 2 × 4 B (56
    // whole eight-cell blocks), and the 448 cross terms of 16 B; TX 2's
    // table is TX 1's mirror image and is never allocated, and no f64
    // copy of the table is made, not even while the phasors are checked
    // and the cross terms folded.
    let (n, bytes, _tables) = heap_use(|| ImagingTables::build(&ImageConfig::wivi_default()));
    assert_eq!(n, 2, "ImagingTables::build allocated {n} times");
    assert_eq!(
        bytes,
        448 * 625 * 8 + 448 * 16,
        "ImagingTables::build requested {bytes} B"
    );
}

#[test]
fn a_second_engine_for_a_built_configuration_allocates_only_its_scratch() {
    let _obs = ObsOff::new();
    let image_cfg = ImageConfig::wivi_default();
    let music_cfg = MusicConfig::fast_test();
    // The first engines build (or find) the tables.
    let first = (ImagingEngine::new(image_cfg), MusicEngine::new(music_cfg));

    // Imaging scratch: the image, the per-cell row sums, the centred
    // window and its f32 rounding for the focus kernel (a buffer of its
    // own, so no pass allocates one); the CLEAN lists start empty.
    let (n, image) = allocations(|| ImagingEngine::new(image_cfg));
    assert_eq!(n, 1 + 1 + 1 + 1, "ImagingEngine::new allocated {n} times");
    // MUSIC scratch: the correlation matrix (1), the eigen workspace
    // (3 matrices, 3 vectors) and the two per-angle accumulators (2).
    let (n, music) = allocations(|| MusicEngine::new(music_cfg));
    assert_eq!(n, 1 + 6 + 2, "MusicEngine::new allocated {n} times");
    drop((first, image, music));
}

#[test]
fn a_warm_imaging_window_allocates_nothing() {
    let cfg = ImageConfig::wivi_default();
    let _obs = ObsOff::new();
    let wt = Complex64::new(0.4, 0.9);
    let window = ImagingEngine::synthetic_subject_trace(
        &cfg,
        cfg.window,
        Point::new(-2.0, 1.2),
        Vec2::new(1.0, 0.0),
        1.0,
        wt,
    );
    let mut engine = ImagingEngine::new(cfg);
    engine.process_window(&window, wt);
    // The focus sweep writes only the engine's own buffers.
    for _ in 0..3 {
        let (n, cells) = allocations(|| engine.process_window(&window, wt).len());
        assert_eq!(n, 0, "a warm process_window allocated {n} times");
        assert_eq!(cells, engine.grid().len());
    }
    // The CLEAN loop refills the engine's detection and candidate lists
    // every pass; once the first window has grown them, a window
    // allocates only the fixes it returns.
    engine.process_window_fixes(&window, wt);
    for _ in 0..3 {
        let (n, fixes) = allocations(|| engine.process_window_fixes(&window, wt).len());
        assert_eq!(
            (n, fixes),
            (1, 4),
            "a warm process_window_fixes allocated {n} times for {fixes} fixes"
        );
    }
}

#[test]
fn sessions_allocate_their_engine_at_open_and_nothing_per_idle_step() {
    let mut dev = walker_device();
    let cfg = *dev.config();
    let image_cfg = ImageConfig::for_wivi(&cfg);
    let _obs = ObsOff::new();
    // The first sessions build (or find) every table they use, and
    // their engines resolve the process's one-time SIMD detection
    // (reading `WIVI_NO_SIMD` allocates when it is set), so no window
    // below pays for it.
    let first = (
        CountSession::new(&cfg),
        GestureSession::new(&cfg),
        ImageSession::for_device(&dev, &image_cfg),
    );
    let mut batch: Vec<Complex64> = Vec::new();

    // A MUSIC session: the engine's 9 scratch buffers and the window
    // buffer. The angle grid is the tables', shared, not copied.
    let (n, mut count) = allocations(|| CountSession::new(&cfg));
    assert_eq!(n, 9 + 1, "CountSession::new allocated {n} times");
    let (n, mut track) = allocations(|| TrackSession::new(&cfg));
    assert_eq!(n, 9 + 1, "TrackSession::new allocated {n} times");
    // The beamformer has no scratch: the window buffer.
    let (n, mut gesture) = allocations(|| GestureSession::new(&cfg));
    assert_eq!(n, 1, "GestureSession::new allocated {n} times");
    // Imaging: the engine's 4 scratch buffers, the window buffer and
    // the boxed position tracker.
    let (n, mut image) = allocations(|| ImageSession::for_device(&dev, &image_cfg));
    assert_eq!(n, 4 + 1 + 1, "ImageSession::for_device allocated {n} times");

    // fast_test MUSIC windows are 40 samples with an 8-sample hop (the
    // imaging window is longer): a 16-sample batch completes no window
    // anywhere, and 24 more complete exactly one MUSIC window.
    dev.observe_batch_into(16, &mut batch);
    let idle = [
        allocations(|| count.step(&batch)).0,
        allocations(|| track.step(&batch)).0,
        allocations(|| gesture.step(&batch)).0,
        allocations(|| image.step(&batch)).0,
    ];
    assert_eq!(idle, [0; 4], "steps that complete no window allocated");
    assert_eq!(count.columns() + image.columns(), 0);
    dev.observe_batch_into(24, &mut batch);
    // One window: the spectrum row.
    let (n, ()) = allocations(|| count.step(&batch));
    assert_eq!(n, 1, "a one-window CountSession step allocated {n} times");
    assert_eq!(count.columns(), 1);
    drop((first, count, track, gesture, image));
}
