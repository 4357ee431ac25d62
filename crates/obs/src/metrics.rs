//! The lock-light metrics registry: counters, gauges, and log-linear
//! histograms with mergeable per-thread sharded cells.
//!
//! Design (DESIGN.md §13):
//!
//! * Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//!   clones. Registration (get-or-create by name) takes the registry
//!   mutex; every subsequent increment is lock-free.
//! * Counters and histograms stripe their cells across
//!   cache-line-padded shards indexed by
//!   [`wivi_num::probe::thread_slot`], so threads on different slots
//!   never contend on a cache line. Reads sum the stripes.
//! * Histogram buckets are **log-linear**: exact for values below 16,
//!   then 16 linear sub-buckets per power of two, giving ≤ 1/16 ≈ 6.25 %
//!   relative width across the full `u64` range with a fixed 976-bucket
//!   table. Bucket boundaries are a pure function of the index, so
//!   snapshots merge by element-wise bucket addition — merging is
//!   associative and commutative, which makes quantiles independent of
//!   thread count and merge order *by construction* (the property the
//!   serving determinism matrix needs).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use wivi_num::probe::thread_slot;

/// Stripes per sharded metric. Power of two; slot index is masked.
/// 16 stripes × 64-byte padding keeps a counter at 1 KiB while giving
/// every thread slot its own stripe up to 16 concurrent recorders —
/// the shard×worker counts we run never collide on a stripe, so the
/// recording path is contention-free by construction (widened from 8
/// after the obs bench flagged multi-thread event costs).
const N_STRIPES: usize = 16;

/// One cache line per stripe so concurrent writers never false-share.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

impl PaddedU64 {
    const fn new() -> Self {
        Self(AtomicU64::new(0))
    }
}

fn stripes() -> Box<[PaddedU64]> {
    (0..N_STRIPES).map(|_| PaddedU64::new()).collect()
}

#[inline]
fn my_stripe() -> usize {
    thread_slot() & (N_STRIPES - 1)
}

// ---------------------------------------------------------------------
// Counter

struct CounterInner {
    name: String,
    cells: Box<[PaddedU64]>,
}

/// A monotone counter. `inc`/`add` are a thread-slot lookup plus one
/// relaxed `fetch_add` on a striped cell — ~10 ns uncontended, no lock.
#[derive(Clone)]
pub struct Counter(Arc<CounterInner>);

impl Counter {
    fn new(name: &str) -> Self {
        Self(Arc::new(CounterInner {
            name: name.to_string(),
            cells: stripes(),
        }))
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — the counter is a monotone tally read by
        // scrapers; no other memory is published with it, so the only
        // guarantee needed is atomicity of the add itself.
        self.0.cells[my_stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total (sum over stripes; exact once writers quiesce).
    pub fn value(&self) -> u64 {
        self.0
            .cells
            .iter()
            // ordering: Relaxed — a scrape may race adds and land a
            // count stale; monotone counters make that harmless.
            .map(|c| c.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

// ---------------------------------------------------------------------
// Gauge

struct GaugeInner {
    name: String,
    bits: AtomicU64,
}

/// A last-write-wins instantaneous value (stored as `f64` bits).
/// Gauges are set at state transitions, not on hot paths, so a single
/// unsharded atomic is enough.
#[derive(Clone)]
pub struct Gauge(Arc<GaugeInner>);

impl Gauge {
    fn new(name: &str) -> Self {
        Self(Arc::new(GaugeInner {
            name: name.to_string(),
            bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        // ordering: Relaxed — last-writer-wins is the gauge contract;
        // the one word carries the whole value.
        self.0.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger — an atomic max, so
    /// concurrent writers cannot lose a larger value the way a
    /// read-then-`set` can (high-water marks like `serve.slo.worst_ns`
    /// are recorded from every shard worker).
    pub fn set_max(&self, v: f64) {
        // ordering: Relaxed/Relaxed — only this one word is contended;
        // the CAS loop inside fetch_update already guarantees the max
        // is not lost, and readers sample the gauge in isolation.
        let _ = self
            .0
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v > f64::from_bits(bits)).then(|| v.to_bits())
            });
    }

    /// The current value.
    pub fn value(&self) -> f64 {
        // ordering: Relaxed — samples one self-contained word.
        f64::from_bits(self.0.bits.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------
// Histogram

/// Linear sub-buckets per octave = 2^SUB_BITS.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Total buckets: values 0..16 exact, then 16 per octave for
/// msb 4..=63 → 16 + 60·16 = 976.
pub const N_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// The bucket index recording `v` lands in.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // ≥ SUB_BITS
        let block = (msb - SUB_BITS + 1) as usize;
        let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        block * SUB + sub
    }
}

/// The `[lo, hi)` value range of bucket `i` (`hi` saturates at
/// `u64::MAX` for the top bucket).
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < N_BUCKETS, "bucket index out of range");
    if i < SUB {
        (i as u64, i as u64 + 1)
    } else {
        let block = (i / SUB) as u32;
        let sub = (i % SUB) as u64;
        let msb = block + SUB_BITS - 1;
        let width = 1u64 << (msb - SUB_BITS);
        let lo = (1u64 << msb) + sub * width;
        (lo, lo.saturating_add(width))
    }
}

struct HistShard {
    /// Hot pair on their own cache line: `count` is line-aligned and
    /// `sum` shares it — both are touched by the same (sole) writer of
    /// this stripe, never by its neighbors.
    count: PaddedU64,
    sum: AtomicU64,
    /// Separate allocation per shard, so two shards' bucket arrays
    /// never share a line even at allocation edges. Allocated by the
    /// stripe's first record: a histogram pays 7 808 B per stripe that
    /// a thread records into, not 16 stripes' worth at registration.
    buckets: OnceLock<Box<[AtomicU64]>>,
}

impl HistShard {
    fn new() -> Self {
        Self {
            count: PaddedU64::new(),
            sum: AtomicU64::new(0),
            buckets: OnceLock::new(),
        }
    }

    fn buckets(&self) -> &[AtomicU64] {
        self.buckets
            .get_or_init(|| (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect())
    }
}

struct HistogramInner {
    name: String,
    shards: Box<[HistShard]>,
}

/// A log-linear-bucket histogram of `u64` samples (typically
/// nanoseconds). Recording is three relaxed `fetch_add`s on a
/// thread-striped shard (the stripe's first record allocates its
/// buckets); snapshots merge across shards (and across histograms) by
/// bucket addition, so quantiles are independent of the recording
/// thread count and of merge order.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(name: &str) -> Self {
        Self(Arc::new(HistogramInner {
            name: name.to_string(),
            shards: (0..N_STRIPES).map(|_| HistShard::new()).collect(),
        }))
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let shard = &self.0.shards[my_stripe()];
        // ordering: Relaxed on all three adds — bucket, count, and sum
        // are independent tallies; a scraper may see them mid-update
        // (count ahead of sum) and the snapshot merge tolerates that
        // skew, so no release/acquire pairing buys anything here.
        shard.buckets()[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        shard.count.0.fetch_add(1, Ordering::Relaxed); // ordering: see above
        shard.sum.fetch_add(v, Ordering::Relaxed); // ordering: see above
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.0
            .shards
            .iter()
            // ordering: Relaxed — same scrape-skew tolerance as
            // Counter::value above.
            .map(|s| s.count.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    /// A mergeable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        // ordering: Relaxed on every load — the snapshot is advisory;
        // count/sum/buckets may each be one racing record apart and the
        // rollup consumers tolerate that.
        for s in &self.0.shards {
            out.count = out.count.wrapping_add(s.count.0.load(Ordering::Relaxed));
            out.sum = out.sum.wrapping_add(s.sum.load(Ordering::Relaxed));
            // A stripe no thread has recorded into has no buckets yet,
            // which reads the same as all-zero buckets.
            let Some(buckets) = s.buckets.get() else {
                continue;
            };
            for (acc, b) in out.buckets.iter_mut().zip(buckets.iter()) {
                *acc = acc.wrapping_add(b.load(Ordering::Relaxed));
            }
        }
        out
    }
}

/// An owned, mergeable histogram state: dense bucket counts plus total
/// count and sum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping).
    pub sum: u64,
    /// Dense per-bucket counts, [`N_BUCKETS`] long.
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An all-zero snapshot.
    pub fn empty() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: vec![0; N_BUCKETS],
        }
    }

    /// Adds `other` in (element-wise bucket addition — associative and
    /// commutative, so fold order never changes the result).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.wrapping_add(*b);
        }
    }

    /// The samples in `self` but not in `earlier` — the rolling-window
    /// primitive: for cumulative snapshots `later.diff(&earlier)` is
    /// exactly what was recorded between the two, bucket by bucket.
    /// Counts subtract saturating per element, so a stale or unrelated
    /// baseline degrades to zeros instead of wrapping; `sum` subtracts
    /// wrapping — it is modular by definition (merge wraps it too), so
    /// wrapping is its exact inverse.
    ///
    /// Diff commutes with [`merge`](Self::merge): the diff of merged
    /// cumulatives equals the merge of per-part diffs, which is what
    /// keeps rolling quantiles order- and partition-invariant.
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.wrapping_sub(earlier.sum),
            buckets: self.buckets.clone(),
        };
        for (a, b) in out.buckets.iter_mut().zip(&earlier.buckets) {
            *a = a.saturating_sub(*b);
        }
        out
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`0 ≤ p ≤ 100`), linearly interpolated
    /// inside the landing bucket; exact to the ≤ 6.25 % bucket width.
    /// Returns 0 when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (p.clamp(0.0, 100.0) / 100.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if next as f64 >= target {
                let (lo, hi) = bucket_bounds(i);
                let frac = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                return lo as f64 + frac * (hi - lo) as f64;
            }
            cum = next;
        }
        // All mass consumed without crossing the target (p ≈ 100):
        // the upper edge of the last occupied bucket.
        match self.buckets.iter().rposition(|&c| c > 0) {
            Some(i) => bucket_bounds(i).1 as f64,
            None => 0.0,
        }
    }

    /// The occupied buckets as `(lo, hi, count)` rows (what the JSON
    /// exporter emits).
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Registry

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn name(&self) -> &str {
        match self {
            Metric::Counter(c) => c.name(),
            Metric::Gauge(g) => g.name(),
            Metric::Histogram(h) => h.name(),
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    metrics: Mutex<Vec<Metric>>,
}

/// A named collection of metrics. Cloning shares the underlying store;
/// `ServeEngine` owns a private registry per engine (test isolation)
/// while kernel-adjacent hooks use [`global`].
#[derive(Clone, Default)]
pub struct Registry(Arc<RegistryInner>);

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert<T: Clone>(
        &self,
        name: &str,
        pick: impl Fn(&Metric) -> Option<T>,
        make: impl FnOnce(&str) -> (Metric, T),
    ) -> T {
        let mut metrics = self.0.metrics.lock().expect("metrics registry poisoned");
        if let Some(m) = metrics.iter().find(|m| m.name() == name) {
            return pick(m).unwrap_or_else(|| {
                panic!("metric {name:?} already registered with a different type")
            });
        }
        let (metric, handle) = make(name);
        metrics.push(metric);
        handle
    }

    /// Get-or-create the counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is registered as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or_insert(
            name,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            |n| {
                let c = Counter::new(n);
                (Metric::Counter(c.clone()), c)
            },
        )
    }

    /// Get-or-create the gauge `name`.
    ///
    /// # Panics
    /// Panics if `name` is registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get_or_insert(
            name,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            |n| {
                let g = Gauge::new(n);
                (Metric::Gauge(g.clone()), g)
            },
        )
    }

    /// Get-or-create the histogram `name`.
    ///
    /// # Panics
    /// Panics if `name` is registered as a different metric type.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.get_or_insert(
            name,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            |n| {
                let h = Histogram::new(n);
                (Metric::Histogram(h.clone()), h)
            },
        )
    }

    /// A point-in-time copy of every metric, sorted by name (the
    /// exporters' input). `include_probes` folds the `wivi_num::probe`
    /// kernel counters in as `num.*` counters.
    pub fn snapshot(&self, include_probes: bool) -> Snapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for m in self
            .0
            .metrics
            .lock()
            .expect("metrics registry poisoned")
            .iter()
        {
            match m {
                Metric::Counter(c) => counters.push((c.name().to_string(), c.value())),
                Metric::Gauge(g) => gauges.push((g.name().to_string(), g.value())),
                Metric::Histogram(h) => histograms.push((h.name().to_string(), h.snapshot())),
            }
        }
        if include_probes {
            let p = wivi_num::probe::snapshot();
            let levels = wivi_num::probe::ProbeSnapshot::level_names();
            for (kernel, counts) in p.kernel_rows() {
                for (level, n) in levels.iter().zip(counts) {
                    if n > 0 {
                        counters.push((format!("num.simd.{kernel}.{level}"), n));
                    }
                }
            }
            counters.push(("num.eig.calls".to_string(), p.eig_calls));
            counters.push(("num.eig.sweeps".to_string(), p.eig_sweeps));
            counters.push(("num.fft.plans".to_string(), p.fft_plans));
            counters.push(("num.fft.runs".to_string(), p.fft_runs));
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A point-in-time copy of a registry, name-sorted for deterministic
/// export.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, total)` counter rows.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge rows.
    pub gauges: Vec<(String, f64)>,
    /// `(name, state)` histogram rows.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// The counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// The process-wide default registry (kernel-adjacent hooks:
/// `TableStore` hit/miss, imaging focus chunk timings).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_and_bounds_are_inverse() {
        let cases = [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            65_535,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX / 2,
            u64::MAX,
        ];
        for v in cases {
            let i = bucket_of(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "{v} not in [{lo},{hi})"
            );
        }
        // Bucket index is monotone in the value.
        let mut values: Vec<u64> = (0..2000u64).chain((0..64).map(|i| 1u64 << i)).collect();
        values.sort_unstable();
        let mut prev = 0;
        for v in values {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket_of not monotone at {v}");
            prev = b;
        }
        assert!(bucket_of(u64::MAX) < N_BUCKETS);
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        for v in [20u64, 100, 5_000, 1 << 30, (1 << 50) + 7] {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            let rel = (hi - lo) as f64 / lo as f64;
            assert!(rel <= 1.0 / 16.0 + 1e-12, "bucket at {v} too wide: {rel}");
        }
    }

    #[test]
    fn counter_sums_across_threads() {
        let r = Registry::new();
        let c = r.counter("test.hits");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 4000);
    }

    #[test]
    fn registry_returns_same_handle_and_rejects_type_clash() {
        let r = Registry::new();
        let a = r.counter("x");
        a.add(3);
        let b = r.counter("x");
        assert_eq!(b.value(), 3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.histogram("x")));
        assert!(caught.is_err(), "type clash must panic");
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let r = Registry::new();
        let h = r.histogram("lat");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        let p50 = snap.quantile(50.0);
        let p99 = snap.quantile(99.0);
        // ≤ 6.25 % bucket width plus interpolation slack.
        assert!((p50 - 500.0).abs() / 500.0 < 0.07, "p50 {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.07, "p99 {p99}");
        assert!(p99 >= p50);
        assert!((snap.mean() - 500.5).abs() < 1e-9);
        assert_eq!(snap.quantile(0.0), 0.0 + snap.quantile(0.0)); // finite
        let empty = HistogramSnapshot::empty();
        assert_eq!(empty.quantile(50.0), 0.0);
    }

    #[test]
    fn histogram_stripes_allocate_on_their_first_record() {
        let h = Histogram::new("lazy");
        let allocated = |h: &Histogram| {
            h.0.shards
                .iter()
                .filter(|s| s.buckets.get().is_some())
                .count()
        };
        assert_eq!(allocated(&h), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::empty());
        h.record(7);
        h.record(700);
        assert_eq!(allocated(&h), 1);
        let other = std::thread::scope(|s| {
            s.spawn(|| {
                h.record(70);
                my_stripe()
            })
            .join()
            .unwrap()
        });
        let expect = if other == my_stripe() { 1 } else { 2 };
        assert_eq!(allocated(&h), expect, "a thread allocates only its stripe");
        let snap = h.snapshot();
        assert_eq!((snap.count, snap.sum), (3, 777));
        assert_eq!(snap.nonzero_buckets().len(), 3);
    }

    #[test]
    fn histogram_merge_is_order_and_partition_invariant() {
        // Property: however samples are partitioned across histograms
        // (threads), and in whatever order the parts are merged, the
        // result is identical.
        let samples: Vec<u64> = (0..500u64).map(|i| (i * 2654435761) % 100_000).collect();

        let whole = {
            let h = Histogram::new("w");
            for &v in &samples {
                h.record(v);
            }
            h.snapshot()
        };

        for n_parts in [1usize, 2, 3, 7] {
            let parts: Vec<HistogramSnapshot> = (0..n_parts)
                .map(|p| {
                    let h = Histogram::new("p");
                    for (i, &v) in samples.iter().enumerate() {
                        if i % n_parts == p {
                            h.record(v);
                        }
                    }
                    h.snapshot()
                })
                .collect();

            // Forward order.
            let mut fwd = HistogramSnapshot::empty();
            for p in &parts {
                fwd.merge(p);
            }
            // Reverse order.
            let mut rev = HistogramSnapshot::empty();
            for p in parts.iter().rev() {
                rev.merge(p);
            }
            assert_eq!(fwd, rev, "merge order changed the result");
            assert_eq!(fwd, whole, "partitioning into {n_parts} changed the result");
            assert_eq!(fwd.quantile(99.0), whole.quantile(99.0));
        }
    }

    #[test]
    fn diff_inverts_merge_and_saturates_on_stale_baselines() {
        let h = Histogram::new("d");
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let early = h.snapshot();
        for v in [1_000u64, 2_000] {
            h.record(v);
        }
        let late = h.snapshot();
        let d = late.diff(&early);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 3_000);
        assert_eq!(d.buckets[bucket_of(1_000)], 1);
        assert_eq!(d.buckets[bucket_of(10)], 0, "old samples cancel");
        // diff ∘ merge is identity: early.merge(d) == late.
        let mut rebuilt = early.clone();
        rebuilt.merge(&d);
        assert_eq!(rebuilt, late);
        // A baseline from the future (stale/unrelated) yields zeros,
        // not wrapped garbage.
        let stale = late.diff(&{
            let mut bigger = late.clone();
            bigger.merge(&late);
            bigger
        });
        assert_eq!(stale.count, 0);
        assert!(stale.buckets.iter().all(|&b| b == 0));
    }

    #[test]
    fn snapshot_is_name_sorted_and_optionally_includes_probes() {
        let _g = crate::test_guard();
        let r = Registry::new();
        r.counter("z.last").inc();
        r.counter("a.first").inc();
        r.gauge("g").set(2.5);
        r.histogram("h").record(7);
        let s = r.snapshot(false);
        assert_eq!(s.counters[0].0, "a.first");
        assert_eq!(s.counters[1].0, "z.last");
        assert_eq!(s.counter("a.first"), Some(1));
        assert!(s.histogram("h").is_some());

        wivi_num::probe::set_enabled(Some(true));
        wivi_num::probe::count_fft_plan();
        wivi_num::probe::set_enabled(None);
        let s = r.snapshot(true);
        assert!(s.counter("num.fft.plans").unwrap_or(0) >= 1);
    }
}
