//! The observability master switch and the kernel-probe counters.
//!
//! This module is the bottom of the observability stack (the `wivi-obs`
//! crate builds its registry on top of it): it owns the process-wide
//! `WIVI_OBS` toggle, a stable small integer per thread
//! ([`thread_slot`], which the obs crate also uses to stripe its metric
//! cells), and the hot-kernel profiling counters — SIMD dispatch-level
//! call counts, eigensolver sweep counts, FFT plan builds and runs.
//!
//! **Overhead contract.** The whole module is built so that
//! observability costs nothing measurable:
//!
//! * Disabled (the default), every probe is a single static load and a
//!   predictable branch — [`enabled`] reads one `AtomicU8`.
//! * Enabled, counters are *single-writer*: each thread owns a private
//!   cell block and bumps it with a relaxed load + store (no `lock`
//!   prefix, no sharing). Readers sum the blocks — counts are exact
//!   because every cell has exactly one writer.
//! * The sub-100 ns kernels (Givens rotations, the fused Jacobi pivot,
//!   per-row axpy) are **never** counted per call: their callers
//!   aggregate locally in registers and flush one [`count_kernel`] per
//!   natural loop boundary (one per eigensolve, one per FFT run, one
//!   per correlation update). The imaging focus pass
//!   (`simd::focus_rows`) books one count per steering-table row, once
//!   per pass.
//!   DESIGN.md §13 records the budget.
//!
//! Counts are monotone from process start; consumers diff two
//! [`snapshot`]s to meter an interval. There is deliberately no reset —
//! resetting would break the single-writer invariant.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of SIMD dispatch levels tracked (scalar / AVX2 — mirrors
/// `simd::SimdLevel`'s order).
pub const N_LEVELS: usize = 2;

/// The per-level kernel-call counters. `Rotations` counts Jacobi pivot
/// updates (aggregated per eigensolve), `AxpyRows` correlation rows
/// (aggregated per outer-product update), `Butterflies` FFT butterfly
/// pairs (aggregated per transform), `Caxpy` MUSIC projection axpys
/// (aggregated per window), `Focus` imaging cells focused (one per
/// steering-table row, aggregated per focus pass).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Caxpy,
    AxpyRows,
    Butterflies,
    Focus,
    Rotations,
}

const N_KERNELS: usize = 5;

// Flat cell layout: kernel × level grid, then the scalar counters.
const IDX_EIG_CALLS: usize = N_KERNELS * N_LEVELS;
const IDX_EIG_SWEEPS: usize = IDX_EIG_CALLS + 1;
const IDX_FFT_PLANS: usize = IDX_EIG_CALLS + 2;
const IDX_FFT_RUNS: usize = IDX_EIG_CALLS + 3;
const N_CELLS: usize = IDX_EIG_CALLS + 4;

// ---------------------------------------------------------------------
// The WIVI_OBS switch.

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// `true` when observability is on: the `WIVI_OBS` environment variable
/// is `1`/`true` (read once, at the first probe), or a runtime
/// [`set_enabled`] override is active. The off path is one relaxed
/// static load and a branch.
#[inline(always)]
pub fn enabled() -> bool {
    // ordering: Relaxed — STATE is a standalone tri-state flag; a
    // stale read only costs one extra trip through init_enabled, which
    // converges to the same value.
    match STATE.load(Ordering::Relaxed) {
        STATE_OFF => false,
        STATE_ON => true,
        _ => init_enabled(),
    }
}

#[cold]
fn init_enabled() -> bool {
    let on = std::env::var("WIVI_OBS").is_ok_and(|v| {
        let v = v.trim();
        v == "1" || v.eq_ignore_ascii_case("true")
    });
    // ordering: Relaxed — every racer computes the same value from the
    // same environment, so publication order cannot matter.
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Overrides the switch at runtime: `Some(true)`/`Some(false)` force it,
/// `None` restores the `WIVI_OBS` environment default (re-read at the
/// next probe). Affects all threads; intended for in-process
/// neutrality tests and the obs bench.
pub fn set_enabled(on: Option<bool>) {
    let state = match on {
        None => STATE_UNINIT,
        Some(false) => STATE_OFF,
        Some(true) => STATE_ON,
    };
    // ordering: Relaxed — the override is a standalone flag; callers
    // that need a crisp cutover (tests) serialize around it themselves.
    STATE.store(state, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Thread slots.

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // ordering: Relaxed — the fetch_add's atomicity alone guarantees
    // each thread a distinct slot; no other memory rides on it.
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// A small, stable, process-unique integer for the calling thread
/// (assigned on first use, in thread-first-probe order). The obs
/// crate's sharded metric cells stripe on it.
#[inline]
pub fn thread_slot() -> usize {
    SLOT.with(|s| *s)
}

// ---------------------------------------------------------------------
// Single-writer per-thread cells.

struct ThreadCells {
    cells: [AtomicU64; N_CELLS],
}

impl ThreadCells {
    fn new() -> Self {
        Self {
            cells: [const { AtomicU64::new(0) }; N_CELLS],
        }
    }

    /// Single-writer bump: only the owning thread calls this, so a
    /// relaxed load + store cannot lose updates and needs no `lock`.
    #[inline]
    fn bump(&self, idx: usize, n: u64) {
        let c = &self.cells[idx];
        // ordering: Relaxed — single-writer cell; readers aggregate a
        // snapshot and tolerate a bump landing one scrape late.
        c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    }
}

fn all_cells() -> &'static Mutex<Vec<std::sync::Arc<ThreadCells>>> {
    static ALL: OnceLock<Mutex<Vec<std::sync::Arc<ThreadCells>>>> = OnceLock::new();
    ALL.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static MINE: std::sync::Arc<ThreadCells> = {
        let mine = std::sync::Arc::new(ThreadCells::new());
        all_cells().lock().expect("probe registry poisoned").push(std::sync::Arc::clone(&mine));
        mine
    };
}

#[inline]
fn bump(idx: usize, n: u64) {
    MINE.with(|c| c.bump(idx, n));
}

/// Records `n` calls (or aggregated units) of `kernel` at SIMD dispatch
/// level `level` (0 = scalar, 1 = AVX2; clamped). No-op
/// when observability is off.
#[inline]
pub fn count_kernel_at(kernel: Kernel, level: usize, n: u64) {
    if !enabled() {
        return;
    }
    bump(kernel as usize * N_LEVELS + level.min(N_LEVELS - 1), n);
}

/// [`count_kernel_at`] at the current auto-dispatch level.
#[inline]
pub fn count_kernel(kernel: Kernel, n: u64) {
    if !enabled() {
        return;
    }
    bump(
        kernel as usize * N_LEVELS + crate::simd::level() as usize,
        n,
    );
}

/// Records one eigensolve of `sweeps` Jacobi sweeps applying
/// `rotations` pivot updates (flushed once per solve by the caller).
#[inline]
pub fn count_eig(sweeps: u64, rotations: u64) {
    if !enabled() {
        return;
    }
    bump(IDX_EIG_CALLS, 1);
    bump(IDX_EIG_SWEEPS, sweeps);
    bump(
        Kernel::Rotations as usize * N_LEVELS + crate::simd::level() as usize,
        rotations,
    );
}

/// Records one FFT plan construction.
#[inline]
pub fn count_fft_plan() {
    if !enabled() {
        return;
    }
    bump(IDX_FFT_PLANS, 1);
}

/// Records one planned transform execution of `butterflies` butterfly
/// pairs (the plan-hit counter: `fft_runs / fft_plans` is the reuse
/// degree). Butterflies always run scalar, so they book at that level.
#[inline]
pub fn count_fft_run(butterflies: u64) {
    if !enabled() {
        return;
    }
    bump(IDX_FFT_RUNS, 1);
    bump(
        Kernel::Butterflies as usize * N_LEVELS + crate::simd::SimdLevel::Scalar as usize,
        butterflies,
    );
}

// ---------------------------------------------------------------------
// Snapshots.

/// Per-level call/unit counts of one kernel: `[scalar, avx2]`.
pub type LevelCounts = [u64; N_LEVELS];

/// A monotone snapshot of every probe counter, summed across threads.
/// Exact (every cell is single-writer); diff two snapshots to meter an
/// interval.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeSnapshot {
    /// MUSIC projection `caxpy` calls per level (caller-aggregated).
    pub caxpy: LevelCounts,
    /// Correlation rows accumulated per level (caller-aggregated).
    pub axpy_rows: LevelCounts,
    /// FFT butterfly pairs per level (aggregated per transform).
    pub butterflies: LevelCounts,
    /// Imaging cells focused per level (one per `simd::focus_rows`
    /// row, aggregated per pass).
    pub focus: LevelCounts,
    /// Jacobi pivot updates per level (aggregated per eigensolve).
    pub rotations: LevelCounts,
    /// Hermitian eigensolves completed.
    pub eig_calls: u64,
    /// Jacobi sweeps executed across all eigensolves.
    pub eig_sweeps: u64,
    /// FFT plans constructed.
    pub fft_plans: u64,
    /// Planned FFT executions (plan hits).
    pub fft_runs: u64,
}

impl ProbeSnapshot {
    /// The counters gained between `earlier` and `self` (saturating).
    pub fn since(&self, earlier: &ProbeSnapshot) -> ProbeSnapshot {
        let d = |a: LevelCounts, b: LevelCounts| {
            let mut out = [0u64; N_LEVELS];
            for i in 0..N_LEVELS {
                out[i] = a[i].saturating_sub(b[i]);
            }
            out
        };
        ProbeSnapshot {
            caxpy: d(self.caxpy, earlier.caxpy),
            axpy_rows: d(self.axpy_rows, earlier.axpy_rows),
            butterflies: d(self.butterflies, earlier.butterflies),
            focus: d(self.focus, earlier.focus),
            rotations: d(self.rotations, earlier.rotations),
            eig_calls: self.eig_calls.saturating_sub(earlier.eig_calls),
            eig_sweeps: self.eig_sweeps.saturating_sub(earlier.eig_sweeps),
            fft_plans: self.fft_plans.saturating_sub(earlier.fft_plans),
            fft_runs: self.fft_runs.saturating_sub(earlier.fft_runs),
        }
    }

    /// `(name, per-level counts)` rows for the kernel counters, in a
    /// stable order (exporters iterate this).
    pub fn kernel_rows(&self) -> [(&'static str, LevelCounts); N_KERNELS] {
        [
            ("caxpy", self.caxpy),
            ("axpy_rows", self.axpy_rows),
            ("butterflies", self.butterflies),
            ("focus", self.focus),
            ("rotations", self.rotations),
        ]
    }

    /// Stable lower-case dispatch level names, index-aligned with
    /// [`LevelCounts`].
    pub fn level_names() -> [&'static str; N_LEVELS] {
        ["scalar", "avx2"]
    }
}

/// Sums every thread's probe cells into a [`ProbeSnapshot`].
pub fn snapshot() -> ProbeSnapshot {
    let mut cells = [0u64; N_CELLS];
    for t in all_cells().lock().expect("probe registry poisoned").iter() {
        for (acc, c) in cells.iter_mut().zip(t.cells.iter()) {
            // ordering: Relaxed — counts are advisory telemetry; a
            // snapshot racing a bump may be one count stale, which the
            // probe contract allows.
            *acc = acc.wrapping_add(c.load(Ordering::Relaxed));
        }
    }
    let grid = |k: Kernel| {
        let mut out = [0u64; N_LEVELS];
        out.copy_from_slice(&cells[k as usize * N_LEVELS..(k as usize + 1) * N_LEVELS]);
        out
    };
    ProbeSnapshot {
        caxpy: grid(Kernel::Caxpy),
        axpy_rows: grid(Kernel::AxpyRows),
        butterflies: grid(Kernel::Butterflies),
        focus: grid(Kernel::Focus),
        rotations: grid(Kernel::Rotations),
        eig_calls: cells[IDX_EIG_CALLS],
        eig_sweeps: cells[IDX_EIG_SWEEPS],
        fft_plans: cells[IDX_FFT_PLANS],
        fft_runs: cells[IDX_FFT_RUNS],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the process-wide switch (cargo runs
    /// tests on parallel threads). Assertions below only use `Caxpy`
    /// cells: nothing else in this test binary counts that kernel, so
    /// the counts are exact even with other modules' tests running.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn thread_slots_are_stable_and_distinct() {
        let a = thread_slot();
        assert_eq!(a, thread_slot());
        let b = std::thread::spawn(thread_slot).join().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn counters_are_inert_when_disabled_and_exact_when_enabled() {
        let _g = guard();
        set_enabled(Some(false));
        let before = snapshot();
        count_kernel_at(Kernel::Caxpy, 0, 5);
        count_kernel_at(Kernel::Caxpy, 1, 2);
        assert_eq!(
            snapshot().since(&before).caxpy,
            [0, 0],
            "disabled probes must not count"
        );

        set_enabled(Some(true));
        count_kernel_at(Kernel::Caxpy, 0, 5);
        count_kernel_at(Kernel::Caxpy, 1, 2);
        count_fft_plan();
        set_enabled(None);

        let after = snapshot().since(&before);
        assert_eq!(after.caxpy, [5, 2]);
        assert!(after.fft_plans >= 1);
    }

    #[test]
    fn snapshot_sums_across_threads() {
        let _g = guard();
        set_enabled(Some(true));
        let before = snapshot();
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| count_kernel_at(Kernel::Caxpy, 1, 10)))
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(None);
        assert_eq!(snapshot().since(&before).caxpy[1], 40);
    }
}
