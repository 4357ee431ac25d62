//! Rolling views over cumulative metrics: rolling p50/p99 and rates
//! that answer "what is latency *now*", next to the since-boot
//! aggregates the cumulative registry keeps.
//!
//! Design (DESIGN.md §15): a [`TickRing`] keeps a short ring of
//! *cumulative* states ("ticks"), one a second over the last 90 s. A
//! rolling view over the last `W` ns is the current cumulative state
//! minus the newest tick at least `W` old — for a histogram a
//! bucket-wise saturating difference ([`HistogramSnapshot::diff`]).
//! Because cumulative snapshots merge element-wise, *diff commutes
//! with merge*: the diff of merged cumulatives equals the merge of
//! per-shard diffs, so rolling quantiles inherit the same order- and
//! partition-invariance the cumulative ones have. No per-sample
//! timestamping, no decay math — recording stays the untouched
//! three-`fetch_add` hot path.
//!
//! A ring has one owner, the loop that both ticks and reads it (the
//! serving reactor), so it takes no lock. That loop ticks on every
//! turn, idle or not, so an idle server's windows age out. While the
//! history is younger than the window there is no baseline and the
//! rolling view equals the cumulative one.
//!
//! [`HistogramSnapshot::diff`]: crate::HistogramSnapshot::diff

use std::collections::VecDeque;

/// Spacing between the states a [`TickRing`] keeps.
const TICK_NS: u64 = 1_000_000_000; // 1 s
/// How far back a [`TickRing`] reaches: a 60 s window plus slack.
const HORIZON_NS: u64 = 90_000_000_000; // 90 s
/// The two windows the serving stack exports by convention.
pub const WINDOW_10S_NS: u64 = 10_000_000_000;
/// See [`WINDOW_10S_NS`].
pub const WINDOW_60S_NS: u64 = 60_000_000_000;

/// Cumulative states of type `T`, one a second over the last 90 s,
/// from which a rolling view over any window up to 90 s is the current
/// state minus [`baseline`](Self::baseline).
pub struct TickRing<T> {
    /// `(tick time ns, cumulative state at that time)`, ascending.
    ring: VecDeque<(u64, T)>,
}

impl<T> Default for TickRing<T> {
    fn default() -> Self {
        Self {
            ring: VecDeque::new(),
        }
    }
}

impl<T> TickRing<T> {
    /// Records `state()`, the cumulative state at `now_ns`, if a second
    /// has passed since the last tick or none was taken; otherwise
    /// leaves `state` uncalled.
    pub fn tick(&mut self, now_ns: u64, state: impl FnOnce() -> T) {
        if let Some(&(last, _)) = self.ring.back() {
            if now_ns.saturating_sub(last) < TICK_NS {
                return;
            }
        }
        self.ring.push_back((now_ns, state()));
        // Keep the newest tick at or past the horizon, so a window up
        // to the horizon always has a baseline.
        while self
            .ring
            .get(1)
            .is_some_and(|&(t, _)| now_ns - t >= HORIZON_NS)
        {
            self.ring.pop_front();
        }
    }

    /// The newest state at least `window_ns` old at `now_ns` (the
    /// rolling baseline), or `None` while the history is younger than
    /// the window.
    pub fn baseline(&self, window_ns: u64, now_ns: u64) -> Option<&T> {
        let cutoff = now_ns.checked_sub(window_ns)?;
        self.ring
            .iter()
            .rev()
            .find(|(t, _)| *t <= cutoff)
            .map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{HistogramSnapshot, Registry};

    const S: u64 = 1_000_000_000;

    /// The rolling view the serving reactor takes: current minus
    /// baseline, or the whole history while it is young.
    fn rolling(
        ring: &TickRing<HistogramSnapshot>,
        current: &HistogramSnapshot,
        window_ns: u64,
        now_ns: u64,
    ) -> HistogramSnapshot {
        match ring.baseline(window_ns, now_ns) {
            Some(base) => current.diff(base),
            None => current.clone(),
        }
    }

    #[test]
    fn rolling_excludes_samples_older_than_the_window() {
        let r = Registry::new();
        let h = r.histogram("lat");
        let mut ring = TickRing::default();
        // t=1s: a burst of slow samples, then tick.
        for _ in 0..100 {
            h.record(10_000);
        }
        ring.tick(S, || h.snapshot());
        // t=5..=14s: steady fast samples, ticking each second.
        for t in 5..=14u64 {
            for _ in 0..10 {
                h.record(100);
            }
            ring.tick(t * S, || h.snapshot());
        }
        // A 10 s window at t=15s spans (5s, 15s]: only the fast phase,
        // and of it only the 9 batches ticked *after* the 5 s cutoff.
        let cum = h.snapshot();
        let roll = rolling(&ring, &cum, 10 * S, 15 * S);
        assert_eq!(roll.count, 90, "slow burst must age out");
        assert!(roll.quantile(99.0) < 150.0, "p99 {}", roll.quantile(99.0));
        // The cumulative view still sees everything.
        assert_eq!(cum.count, 200);
        assert!(cum.quantile(99.0) > 5_000.0);
        // A 60 s window sees both phases.
        assert_eq!(rolling(&ring, &cum, 60 * S, 15 * S).count, 200);
    }

    #[test]
    fn young_history_falls_back_to_cumulative() {
        let r = Registry::new();
        let h = r.histogram("lat");
        let mut ring = TickRing::default();
        ring.tick(0, || h.snapshot());
        h.record(42);
        assert!(ring.baseline(10 * S, S / 2).is_none(), "no baseline yet");
        assert_eq!(rolling(&ring, &h.snapshot(), 10 * S, S / 2).count, 1);
    }

    #[test]
    fn rolling_diff_commutes_with_merge_across_shards() {
        // The invariance the serving export relies on: merging per-shard
        // rolling views equals the rolling view of the merged stream.
        let r = Registry::new();
        let shards: Vec<_> = (0..3).map(|i| r.histogram(&format!("s{i}"))).collect();
        let mut rings: Vec<TickRing<HistogramSnapshot>> =
            (0..3).map(|_| TickRing::default()).collect();
        let samples: Vec<u64> = (0..300u64).map(|i| (i * 2654435761) % 50_000).collect();
        // Phase 1 (before the window), spread round-robin; tick at 1s.
        for (i, &v) in samples.iter().take(150).enumerate() {
            shards[i % 3].record(v);
        }
        for (ring, h) in rings.iter_mut().zip(&shards) {
            ring.tick(S, || h.snapshot());
        }
        // Phase 2 (inside the window).
        for (i, &v) in samples.iter().skip(150).enumerate() {
            shards[i % 3].record(v);
        }
        // Merge of per-shard rolling views at t=8s, window 5s.
        let mut merged = HistogramSnapshot::empty();
        for (ring, h) in rings.iter().zip(&shards) {
            merged.merge(&rolling(ring, &h.snapshot(), 5 * S, 8 * S));
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
        let mut ring = TickRing::default();
        for t in 1..=200u64 {
            ring.tick(t * S, || t);
        }
        // 200 ticks at 1 s spacing with a 90 s horizon: the ring stays
        // bounded but always keeps one tick at the horizon.
        assert_eq!(ring.ring.len(), 91);
        assert_eq!(ring.baseline(60 * S, 200 * S), Some(&140));
        assert_eq!(ring.baseline(90 * S, 200 * S), Some(&110));
    }

    #[test]
    fn tick_is_idempotent_within_the_interval() {
        let mut ring = TickRing::default();
        ring.tick(S, || 1);
        ring.tick(S + 1, || unreachable!("not due: the state is not read"));
        ring.tick(2 * S, || 2);
        let states: Vec<(u64, u64)> = ring.ring.iter().copied().collect();
        assert_eq!(states, [(S, 1), (2 * S, 2)]);
    }
}
