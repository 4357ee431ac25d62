//! Benchmarks for the Wi-Vi compute kernels (`cargo bench -p wivi-bench`).
//!
//! First the per-level table of the dispatched SIMD kernels
//! ([`wivi_bench::kernels::run_kernels_bench`]: ns/op at scalar and
//! AVX2), then the kernel rows below. Hand-rolled timing harness
//! (median of repeated batches) — criterion is not available offline.
//! Each row also contrasts the planned / workspace-reuse hot path against
//! the allocating convenience API, so the zero-allocation refactor's
//! payoff stays measured.

use std::hint::black_box;
use std::time::Instant;

use wivi_bench::kernels::run_kernels_bench;
use wivi_bench::report;
use wivi_core::gesture::matched_filter;
use wivi_core::isar::{beamform_spectrum, synthetic_target_trace, IsarConfig};
use wivi_core::music::{music_spectrum, smoothed_correlation, MusicConfig, MusicEngine};
use wivi_core::nulling::iterate_nulling_ideal;
use wivi_num::eig::{hermitian_eig_in, EigWorkspace};
use wivi_num::{fft, hermitian_eig, Complex64, FftPlan};

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
