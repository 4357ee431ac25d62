//! Sliding-window views over cumulative metrics: rolling p50/p99 and
//! rates that answer "what is latency *now*", next to the since-boot
//! aggregates the cumulative registry keeps.
//!
//! Design (DESIGN.md §15): a [`WindowedHistogram`] wraps an ordinary
//! [`Histogram`] and keeps a short ring of *cumulative* snapshots
//! ("ticks"), one roughly per [`tick interval`](WindowedHistogram::with_params).
//! A rolling view over the last `W` ns is the current cumulative state
//! minus the newest tick at least `W` old — a bucket-wise saturating
//! difference ([`HistogramSnapshot::diff`]). Because cumulative
//! snapshots merge element-wise, *diff commutes with merge*: the diff
//! of merged cumulatives equals the merge of per-shard diffs, so
//! rolling quantiles inherit the same order- and partition-invariance
//! the cumulative ones have. No per-sample timestamping, no decay
//! math — recording stays the untouched three-`fetch_add` hot path and
//! only the ~1 Hz tick takes a snapshot.
//!
//! Ticking is cooperative: shards call
//! [`maybe_tick`](WindowedHistogram::maybe_tick) once per batch round
//! (a cheap atomic compare against the last tick time when it is not
//! due). If ticks stall — an idle server records nothing anyway — the
//! rolling view degrades gracefully to "since the last activity".
//! When the process is younger than the window the baseline is empty
//! and the rolling view equals the cumulative one.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::{Counter, Histogram, HistogramSnapshot};
use crate::spans::clock_ns;

/// Default spacing between retained cumulative snapshots.
pub const DEFAULT_TICK_NS: u64 = 1_000_000_000; // 1 s
/// Default retention horizon — enough for a 60 s window plus slack.
pub const DEFAULT_RETAIN_NS: u64 = 90_000_000_000; // 90 s
/// The two windows the serving stack exports by convention.
pub const WINDOW_10S_NS: u64 = 10_000_000_000;
/// See [`WINDOW_10S_NS`].
pub const WINDOW_60S_NS: u64 = 60_000_000_000;

struct Ticks<T> {
    /// `(tick time ns, cumulative state at that time)`, ascending.
    ring: VecDeque<(u64, T)>,
}

impl<T> Ticks<T> {
    fn new() -> Self {
        Self {
            ring: VecDeque::new(),
        }
    }

    fn push(&mut self, now_ns: u64, state: T, retain_ns: u64) {
        self.ring.push_back((now_ns, state));
        while let Some(&(t, _)) = self.ring.front() {
            // Keep one tick older than the horizon so a full-width
            // window always has a baseline.
            if self.ring.len() > 1 && now_ns.saturating_sub(t) > retain_ns {
                self.ring.pop_front();
            } else {
                break;
            }
        }
    }

    /// The newest tick at or before `now - window` (the rolling
    /// baseline), or `None` when the history is younger than the
    /// window.
    fn baseline(&self, window_ns: u64, now_ns: u64) -> Option<&T> {
        let cutoff = now_ns.saturating_sub(window_ns);
        self.ring
            .iter()
            .rev()
            .find(|(t, _)| *t <= cutoff)
            .map(|(_, s)| s)
    }
}

/// A histogram plus a ring of cumulative snapshots giving rolling
/// quantiles over arbitrary trailing windows.
pub struct WindowedHistogram {
    hist: Histogram,
    ticks: Mutex<Ticks<HistogramSnapshot>>,
    /// Last tick time, checked lock-free so the per-round
    /// [`maybe_tick`](Self::maybe_tick) is one relaxed load when not
    /// due.
    last_tick_ns: AtomicU64,
    tick_ns: u64,
    retain_ns: u64,
}

impl WindowedHistogram {
    /// Wraps `hist` with the default 1 s tick / 90 s retention.
    pub fn new(hist: Histogram) -> Self {
        Self::with_params(hist, DEFAULT_TICK_NS, DEFAULT_RETAIN_NS)
    }

    /// Wraps `hist` with explicit tick spacing and retention horizon.
    pub fn with_params(hist: Histogram, tick_ns: u64, retain_ns: u64) -> Self {
        Self {
            hist,
            ticks: Mutex::new(Ticks::new()),
            last_tick_ns: AtomicU64::new(0),
            tick_ns: tick_ns.max(1),
            retain_ns,
        }
    }

    /// The wrapped histogram (recording goes straight through it).
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Takes a cumulative snapshot if one is due; cheap no-op
    /// otherwise. Call from any periodic loop (shards call it once per
    /// batch round).
    pub fn maybe_tick(&self) {
        self.maybe_tick_at(clock_ns());
    }

    /// [`maybe_tick`](Self::maybe_tick) with an explicit clock (tests).
    pub fn maybe_tick_at(&self, now_ns: u64) {
        // Lock-free early-out for the common not-due case; the real
        // decision repeats under the ring lock so the time update and
        // the push are atomic together — a winner cannot be preempted
        // between them and insert an older tick after a newer one (the
        // ring must stay ascending for baseline() and retention).
        // ordering: Relaxed everywhere on last_tick_ns — it is only a
        // hint out here, and under the lock the Mutex orders it.
        let last = self.last_tick_ns.load(Ordering::Relaxed);
        if now_ns.saturating_sub(last) < self.tick_ns && last != 0 {
            return;
        }
        let mut ticks = self.ticks.lock().expect("window ticks poisoned");
        let last = self.last_tick_ns.load(Ordering::Relaxed);
        if now_ns.saturating_sub(last) < self.tick_ns && last != 0 {
            return; // another ticker won while we took the lock
        }
        self.last_tick_ns.store(now_ns, Ordering::Relaxed);
        let snap = self.hist.snapshot();
        ticks.push(now_ns, snap, self.retain_ns);
    }

    /// The samples recorded in the trailing `window_ns`: current
    /// cumulative state minus the newest tick at least that old. When
    /// the history is younger than the window this equals the
    /// cumulative snapshot.
    pub fn rolling(&self, window_ns: u64) -> HistogramSnapshot {
        self.rolling_at(window_ns, clock_ns())
    }

    /// [`rolling`](Self::rolling) with an explicit clock (tests).
    pub fn rolling_at(&self, window_ns: u64, now_ns: u64) -> HistogramSnapshot {
        let current = self.hist.snapshot();
        let ticks = self.ticks.lock().expect("window ticks poisoned");
        match ticks.baseline(window_ns, now_ns) {
            Some(base) => current.diff(base),
            None => current,
        }
    }
}

/// A counter plus tick history giving trailing-window deltas and rates
/// (the `/healthz` shed rate).
pub struct WindowedCounter {
    counter: Counter,
    ticks: Mutex<Ticks<u64>>,
    last_tick_ns: AtomicU64,
    tick_ns: u64,
    retain_ns: u64,
}

impl WindowedCounter {
    /// Wraps `counter` with the default 1 s tick / 90 s retention.
    pub fn new(counter: Counter) -> Self {
        Self::with_params(counter, DEFAULT_TICK_NS, DEFAULT_RETAIN_NS)
    }

    /// Wraps `counter` with explicit tick spacing and retention.
    pub fn with_params(counter: Counter, tick_ns: u64, retain_ns: u64) -> Self {
        Self {
            counter,
            ticks: Mutex::new(Ticks::new()),
            last_tick_ns: AtomicU64::new(0),
            tick_ns: tick_ns.max(1),
            retain_ns,
        }
    }

    /// The wrapped counter.
    pub fn counter(&self) -> &Counter {
        &self.counter
    }

    /// Takes a tick if one is due (see
    /// [`WindowedHistogram::maybe_tick`]).
    pub fn maybe_tick(&self) {
        self.maybe_tick_at(clock_ns());
    }

    /// [`maybe_tick`](Self::maybe_tick) with an explicit clock (tests).
    pub fn maybe_tick_at(&self, now_ns: u64) {
        // See WindowedHistogram::maybe_tick_at: due-check and push are
        // one critical section so the ring stays ascending.
        // ordering: Relaxed on last_tick_ns — advisory outside the
        // lock, Mutex-ordered inside it.
        let last = self.last_tick_ns.load(Ordering::Relaxed);
        if now_ns.saturating_sub(last) < self.tick_ns && last != 0 {
            return;
        }
        let mut ticks = self.ticks.lock().expect("window ticks poisoned");
        let last = self.last_tick_ns.load(Ordering::Relaxed);
        if now_ns.saturating_sub(last) < self.tick_ns && last != 0 {
            return;
        }
        self.last_tick_ns.store(now_ns, Ordering::Relaxed);
        let v = self.counter.value();
        ticks.push(now_ns, v, self.retain_ns);
    }

    /// Increments in the trailing `window_ns`.
    pub fn rolling(&self, window_ns: u64) -> u64 {
        self.rolling_at(window_ns, clock_ns())
    }

    /// [`rolling`](Self::rolling) with an explicit clock (tests).
    pub fn rolling_at(&self, window_ns: u64, now_ns: u64) -> u64 {
        let current = self.counter.value();
        let ticks = self.ticks.lock().expect("window ticks poisoned");
        match ticks.baseline(window_ns, now_ns) {
            Some(&base) => current.saturating_sub(base),
            None => current,
        }
    }

    /// Increments per second over the trailing `window_ns`.
    pub fn rate_per_sec(&self, window_ns: u64) -> f64 {
        if window_ns == 0 {
            return 0.0;
        }
        self.rolling(window_ns) as f64 * 1e9 / window_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    const S: u64 = 1_000_000_000;

    fn windowed(r: &Registry, name: &str) -> WindowedHistogram {
        WindowedHistogram::with_params(r.histogram(name), S, 90 * S)
    }

    #[test]
    fn rolling_excludes_samples_older_than_the_window() {
        let r = Registry::new();
        let w = windowed(&r, "lat");
        // t=1s: a burst of slow samples, then tick.
        for _ in 0..100 {
            w.histogram().record(10_000);
        }
        w.maybe_tick_at(S);
        // t=5..=14s: steady fast samples, ticking each second.
        for t in 5..=14u64 {
            for _ in 0..10 {
                w.histogram().record(100);
            }
            w.maybe_tick_at(t * S);
        }
        // A 10 s window at t=15s spans (5s, 15s]: only the fast phase,
        // and of it only the 9 batches ticked *after* the 5 s cutoff.
        let roll = w.rolling_at(10 * S, 15 * S);
        assert_eq!(roll.count, 90, "slow burst must age out");
        assert!(roll.quantile(99.0) < 150.0, "p99 {}", roll.quantile(99.0));
        // The cumulative view still sees everything.
        let cum = w.histogram().snapshot();
        assert_eq!(cum.count, 200);
        assert!(cum.quantile(99.0) > 5_000.0);
        // A 60 s window sees both phases.
        let wide = w.rolling_at(60 * S, 15 * S);
        assert_eq!(wide.count, 200);
    }

    #[test]
    fn young_history_falls_back_to_cumulative() {
        let r = Registry::new();
        let w = windowed(&r, "lat");
        w.histogram().record(42);
        let roll = w.rolling_at(10 * S, S / 2);
        assert_eq!(roll.count, 1, "no baseline yet ⇒ cumulative");
    }

    #[test]
    fn rolling_diff_commutes_with_merge_across_shards() {
        // The invariance the serving export relies on: merging per-shard
        // rolling views equals the rolling view of the merged stream.
        let r = Registry::new();
        let shards: Vec<WindowedHistogram> =
            (0..3).map(|i| windowed(&r, &format!("s{i}"))).collect();
        let samples: Vec<u64> = (0..300u64).map(|i| (i * 2654435761) % 50_000).collect();
        // Phase 1 (before the window), spread round-robin; tick at 1s.
        for (i, &v) in samples.iter().take(150).enumerate() {
            shards[i % 3].histogram().record(v);
        }
        for s in &shards {
            s.maybe_tick_at(S);
        }
        // Phase 2 (inside the window).
        for (i, &v) in samples.iter().skip(150).enumerate() {
            shards[i % 3].histogram().record(v);
        }
        // Merge of per-shard rolling views at t=8s, window 5s.
        let mut merged = HistogramSnapshot::empty();
        for s in &shards {
            merged.merge(&s.rolling_at(5 * S, 8 * S));
        }
        // Reference: one histogram fed only phase 2.
        let reference = {
            let h = r.histogram("ref");
            for &v in samples.iter().skip(150) {
                h.record(v);
            }
            h.snapshot()
        };
        assert_eq!(merged, reference, "diff must commute with merge");
    }

    #[test]
    fn ticks_retain_a_baseline_beyond_the_horizon() {
        let r = Registry::new();
        let w = windowed(&r, "lat");
        for t in 1..=200u64 {
            w.histogram().record(t);
            w.maybe_tick_at(t * S);
        }
        // 200 ticks at 1 s spacing with a 90 s horizon: the ring stays
        // bounded but always keeps one tick ≥ the horizon old.
        let roll = w.rolling_at(60 * S, 200 * S);
        assert_eq!(roll.count, 60, "rolling 60 s must see the last 60 samples");
    }

    #[test]
    fn windowed_counter_rates() {
        let r = Registry::new();
        let wc = WindowedCounter::with_params(r.counter("shed"), S, 90 * S);
        wc.counter().add(50);
        wc.maybe_tick_at(S);
        wc.counter().add(7);
        assert_eq!(wc.rolling_at(10 * S, 11 * S), 7);
        assert_eq!(wc.rolling_at(60 * S, 11 * S), 57, "young history ⇒ total");
        assert_eq!(wc.counter().value(), 57);
    }

    #[test]
    fn concurrent_tickers_keep_the_ring_ascending() {
        // Threads racing maybe_tick_at with interleaved clocks: the
        // ring must come out strictly ascending (baseline()'s reverse
        // scan and retention pruning both rely on it), with no
        // duplicate tick times.
        let r = Registry::new();
        let w = WindowedHistogram::with_params(r.histogram("lat"), S, 1000 * S);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let w = &w;
                scope.spawn(move || {
                    for step in 0..200u64 {
                        w.histogram().record(1);
                        // Every thread walks the same clock but hits
                        // each instant in its own order.
                        w.maybe_tick_at((step + t * 7) % 200 * S + S);
                    }
                });
            }
        });
        let ticks = w.ticks.lock().unwrap();
        let times: Vec<u64> = ticks.ring.iter().map(|(t, _)| *t).collect();
        assert!(!times.is_empty());
        assert!(
            times.windows(2).all(|p| p[0] < p[1]),
            "tick ring out of order: {times:?}"
        );
    }

    #[test]
    fn maybe_tick_is_idempotent_within_the_interval() {
        let r = Registry::new();
        let w = windowed(&r, "lat");
        w.histogram().record(1);
        w.maybe_tick_at(S);
        w.maybe_tick_at(S + 1); // not due: must not add a tick
        w.histogram().record(2);
        w.maybe_tick_at(2 * S);
        let ticks = w.ticks.lock().unwrap();
        assert_eq!(ticks.ring.len(), 2);
        assert_eq!(ticks.ring[0].1.count, 1);
        assert_eq!(ticks.ring[1].1.count, 2);
    }
}
