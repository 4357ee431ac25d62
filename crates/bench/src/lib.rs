//! Experiment harness for the Wi-Vi reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md §4 for the full index). This library
//! holds what they share:
//!
//! * [`scenarios`] — the workload generators: counting trials in the two
//!   conference rooms, gesture trials at parametric distance / material /
//!   subject, and the standard scene builders.
//! * [`engine`] — the multi-scenario engine: declarative
//!   (room × material × count × motion) grids with coordinate-hashed
//!   seeds, and tracking ground truth and scoring.
//! * [`serving`] — the mixed-mode session list the serving workloads
//!   submit to [`wivi_serve::ServeEngine`].
//! * [`kernels`] — ns/op microbenchmarks of the dispatched SIMD complex
//!   kernels (scalar vs AVX2 vs AVX-512), printed by
//!   `cargo bench -p wivi-bench`.
//! * [`obs`] — ns/event microbenchmarks of the observability layer
//!   (counter / histogram / span at 1–4 threads), the `WIVI_OBS`
//!   on-vs-off pipeline overhead probe, and `BENCH_obs.json` emission.
//! * [`imaging`] — the 2-D localization workload over `wivi-image`:
//!   showcase scenes with known positions and detection/localization
//!   scoring.
//! * [`report`] — uniform stdout formatting: CDF tables, bar charts,
//!   confusion matrices, figure headers.

pub mod engine;
pub mod imaging;
pub mod kernels;
pub mod obs;
pub mod report;
pub mod scenarios;
pub mod serving;

/// Returns `true` if `--quick` was passed — binaries then run a reduced
/// trial count (useful while iterating; the full runs match the paper's
/// trial counts).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Trial-count helper: `full` normally, `quick` under `--quick`.
pub fn trials(full: usize, quick: usize) -> usize {
    if quick_mode() {
        quick
    } else {
        full
    }
}
