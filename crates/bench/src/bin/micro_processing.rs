//! §7.1 microbenchmark — offline processing time of a 25-second trace
//! with the smoothed MUSIC pipeline (paper: 1.0564 s ± 0.2561 s per trace
//! in Matlab on an i7).
//!
//! The trace is a simulated one: 25 s of the nulled residual channel,
//! recorded by a calibrated device at the paper's parameters from one
//! person moving at will in the small conference room. It is timed with
//! the device's effective MUSIC configuration.

use std::time::Instant;

use wivi_bench::report;
use wivi_bench::scenarios::{counting_scene, Room, COUNTING_TRIAL_S};
use wivi_core::music::music_spectrum;
use wivi_core::{WiViConfig, WiViDevice};

fn main() {
    report::header(
        "§7.1 micro",
        "Smoothed-MUSIC processing time for a 25 s trace",
        "1.0564 s mean, 0.2561 s std (Matlab R2012a, Intel i7)",
    );
    let seed = 710;
    let scene = counting_scene(Room::Small, 1, seed, COUNTING_TRIAL_S);
    let mut dev = WiViDevice::new(scene, WiViConfig::paper_default(), seed);
    dev.calibrate();
    let trace = dev.record_trace(COUNTING_TRIAL_S);
    let cfg = dev.config().music;

    let mut times = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let spec = music_spectrum(&trace, &cfg);
        let dt = t0.elapsed().as_secs_f64();
        assert!(spec.n_times() > 0);
        times.push(dt);
    }
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    println!(
        "\nper-trace processing time over {} runs: mean {:.3} s  (runs: {:?})",
        times.len(),
        mean,
        times.iter().map(|t| format!("{t:.3}")).collect::<Vec<_>>()
    );
}
