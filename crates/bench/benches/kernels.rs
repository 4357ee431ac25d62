//! Benchmarks for the Wi-Vi compute kernels (`cargo bench -p wivi-bench`).
//!
//! First the per-level table of the dispatched SIMD kernels
//! ([`wivi_bench::kernels::run_kernels_bench`]: ns/op at scalar and
//! AVX2), then the kernel rows below. Hand-rolled timing harness
//! (median of repeated batches) — criterion is not available offline.
//! Each row also contrasts the planned / workspace-reuse hot path against
//! the allocating convenience API, so the zero-allocation refactor's
//! payoff stays measured, and the engine rows split what the first
//! engine per configuration pays (the cold table build) from what every
//! later one pays (a warm `new`: scratch only). `observe_batch_into_64`
//! times the simulator: one 64-sample batch of a calibrated device, and
//! `imaging_window_fixes_warm` one imaging window through the CLEAN
//! loop.

use std::hint::black_box;
use std::time::Instant;

use wivi_bench::engine::ScenarioGrid;
use wivi_bench::kernels::run_kernels_bench;
use wivi_bench::report;
use wivi_core::gesture::matched_filter;
use wivi_core::isar::{beamform_spectrum, synthetic_target_trace, IsarConfig};
use wivi_core::music::{
    music_spectrum, smoothed_correlation, MusicConfig, MusicEngine, MusicTables,
};
use wivi_core::nulling::iterate_nulling_ideal;
use wivi_core::{WiViConfig, WiViDevice};
use wivi_image::engine::ImagingTables;
use wivi_image::{ImageConfig, ImagingEngine};
use wivi_num::eig::{hermitian_eig_in, EigWorkspace};
use wivi_num::{fft, hermitian_eig, Complex64, FftPlan};
use wivi_rf::{Point, Vec2};

/// Times `f` over batches and reports the median per-iteration time.
fn bench(name: &str, iters_per_batch: usize, mut f: impl FnMut()) {
    const BATCHES: usize = 9;
    let mut per_iter: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters_per_batch {
                f();
            }
            t0.elapsed().as_secs_f64() / iters_per_batch as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = per_iter[BATCHES / 2];
    let unit = if median < 1e-6 {
        format!("{:.1} ns", median * 1e9)
    } else if median < 1e-3 {
        format!("{:.2} µs", median * 1e6)
    } else {
        format!("{:.3} ms", median * 1e3)
    };
    println!("{name:<44} {unit:>12}/iter");
}

/// Prints the dispatched kernels' ns/op at every level this CPU runs.
fn print_simd_levels() {
    let kreport = run_kernels_bench(false);
    println!(
        "SIMD kernels: auto level {} (avx2 {})",
        kreport.auto_level, kreport.avx2
    );
    let rows: Vec<Vec<String>> = kreport
        .timings
        .iter()
        .map(|t| {
            let mut row = vec![t.kernel.clone()];
            row.extend(t.ns_per_op.iter().map(|(_, ns)| format!("{ns:.0}")));
            row.push(format!("{} ({:.2}x)", t.best().0, t.speedup()));
            row
        })
        .collect();
    let mut headers = vec!["kernel"];
    if let Some(first) = kreport.timings.first() {
        headers.extend(first.ns_per_op.iter().map(|(l, _)| match l.as_str() {
            "scalar" => "scalar ns",
            "avx2" => "avx2 ns",
            _ => "ns",
        }));
    }
    headers.push("best");
    report::print_table(&headers, &rows);
}

fn main() {
    print_simd_levels();
    println!("\nwivi kernel benchmarks (median of 9 batches)\n");

    // FFT: allocating round trip vs planned in-place round trip.
    let x: Vec<Complex64> = (0..64).map(|i| Complex64::cis(i as f64 * 0.37)).collect();
    bench("fft64_roundtrip_alloc", 2000, || {
        let mut buf = x.clone();
        fft::fft(&mut buf);
        fft::ifft(&mut buf);
        black_box(buf[0]);
    });
    let plan = FftPlan::new(64);
    let mut buf = x.clone();
    bench("fft64_roundtrip_planned", 2000, || {
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        black_box(buf[0]);
    });

    // The simulator: one 64-sample serving batch at the paper
    // configuration, over the tracking grid's one-walker scene (small
    // room, office clutter), from a calibrated device.
    let walker = ScenarioGrid::tracking()
        .specs()
        .into_iter()
        .find(|s| s.n_humans == 1)
        .expect("the tracking grid has a one-walker trial");
    let mut dev = WiViDevice::new(
        walker.build_scene(),
        WiViConfig::paper_default(),
        walker.seed(),
    );
    dev.calibrate();
    let mut samples = Vec::new();
    bench("observe_batch_into_64", 20, || {
        dev.observe_batch_into(64, &mut samples);
        black_box(samples[0]);
    });

    // Eigendecomposition: fresh allocation vs workspace reuse.
    let cfg = MusicConfig::wivi_default();
    let trace = synthetic_target_trace(&cfg.isar, cfg.isar.window, 1.0, 4.0, 0.5);
    let r = smoothed_correlation(&trace, cfg.subarray);
    bench("hermitian_eig_50x50_alloc", 5, || {
        black_box(hermitian_eig(&r).values[0]);
    });
    let mut ws = EigWorkspace::new(cfg.subarray);
    bench("hermitian_eig_50x50_workspace", 5, || {
        hermitian_eig_in(&r, &mut ws);
        black_box(ws.values()[0]);
    });

    bench("smoothed_correlation_w100_sub50", 50, || {
        black_box(smoothed_correlation(&trace, cfg.subarray).frobenius_norm());
    });

    // One full MUSIC window: one-shot vs resident engine.
    let mut one_win = MusicConfig::wivi_default();
    one_win.isar.hop = one_win.isar.window; // exactly one window
    let win_trace = synthetic_target_trace(&one_win.isar, one_win.isar.window, 1.0, 4.0, 0.5);
    bench("music_window_w100_sub50_oneshot", 5, || {
        black_box(music_spectrum(&win_trace, &one_win).power[0][90]);
    });
    let mut engine = MusicEngine::new(one_win);
    bench("music_window_w100_sub50_engine", 5, || {
        black_box(engine.process_window(&win_trace).0[90]);
    });

    // Engine construction: the cold table build that the first engine
    // per configuration per process pays (bypassing the store), then a
    // warm `new` that takes the tables from the store and allocates
    // only its scratch.
    let music = MusicConfig::wivi_default();
    bench("music_tables_build_cold", 20, || {
        black_box(MusicTables::build(&music));
    });
    let _resident = MusicEngine::new(music);
    bench("music_engine_new_warm", 200, || {
        black_box(MusicEngine::new(music));
    });
    let img = ImageConfig::wivi_default();
    bench("imaging_tables_build_cold", 2, || {
        black_box(ImagingTables::build(&img));
    });
    let _resident = ImagingEngine::new(img);
    bench("imaging_engine_new_warm", 200, || {
        black_box(ImagingEngine::new(img));
    });

    // One imaging window at the paper configuration through a warm
    // engine's CLEAN loop (a focus pass, CFAR and mirror resolution per
    // fix): two subjects pacing opposite ways, centred on the window,
    // which take three passes.
    let wt = Complex64::new(-0.9, 0.3);
    let half_t = (img.window as f64 - 1.0) / 2.0 * img.sample_period_s;
    let pacer = |x: f64, y: f64, vx: f64, amplitude: f64| {
        let start = Point::new(x - vx * half_t, y);
        ImagingEngine::synthetic_subject_trace(
            &img,
            img.window,
            start,
            Vec2::new(vx, 0.0),
            amplitude,
            wt,
        )
    };
    let two: Vec<Complex64> = pacer(1.55, 2.45, 1.0, 1.0)
        .iter()
        .zip(pacer(-2.05, 3.95, -1.0, 0.6))
        .map(|(a, b)| *a + b)
        .collect();
    let mut imager = ImagingEngine::new(img);
    bench("imaging_window_fixes_warm", 20, || {
        black_box(imager.process_window_fixes(&two, wt).len());
    });

    let bf = IsarConfig {
        hop: 100,
        ..IsarConfig::wivi_default()
    };
    let bf_trace = synthetic_target_trace(&bf, bf.window, 1.0, 4.0, 0.5);
    bench("beamform_window_w100_181angles", 100, || {
        black_box(beamform_spectrum(&bf_trace, &bf).power[0][90]);
    });

    let h1 = Complex64::new(0.8, -0.3);
    let h2 = Complex64::new(0.5, 0.4);
    let d1 = Complex64::new(0.01, -0.02);
    let d2 = Complex64::new(-0.015, 0.01);
    bench("iterative_nulling_8_steps", 10_000, || {
        black_box(iterate_nulling_ideal(h1, h2, d1, d2, 8)[8]);
    });

    let signal: Vec<f64> = (0..512).map(|i| (i as f64 * 0.1).sin()).collect();
    let template: Vec<f64> = (0..18)
        .map(|i| 1.0 - (2.0 * i as f64 / 17.0 - 1.0).abs())
        .collect();
    bench("gesture_matched_filter_512x18", 1000, || {
        black_box(matched_filter(&signal, &template)[256]);
    });
}
