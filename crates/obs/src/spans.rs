//! The span flight recorder: fixed-capacity per-thread ring buffers of
//! structured span records, drained as one time-ordered stream via
//! [`wivi_num::merge_streams`].
//!
//! Semantics (DESIGN.md §13):
//!
//! * [`span`]/[`span_with`] return a guard; dropping it records
//!   `{start_ns, dur_ns, name, arg, thread}` into the calling thread's
//!   ring. When the `WIVI_OBS` switch is off the guard is empty and the
//!   whole path is one static load and a branch.
//! * Each ring holds [`ring_capacity`] records (`WIVI_OBS_RING`
//!   overrides, default 4096) and **overwrites oldest** when full —
//!   flight-recorder semantics: after an incident the last N spans per
//!   thread are always there, and a hot loop can never grow memory
//!   unboundedly. Overwritten records are counted, never silently lost
//!   ([`overwritten`]).
//! * Records append at span *end*, so a thread's ring is ascending in
//!   completion time (`start_ns + dur_ns`) even when spans nest.
//!   [`drain`] therefore merges rings keyed by completion time with the
//!   thread slot as tie-break tag — the same deterministic k-way merge
//!   the serving engine uses for session events.
//!
//! Timestamps are nanoseconds since the first use of the recorder in
//! this process ([`clock_ns`]), from a single shared monotonic origin,
//! so cross-thread span times are directly comparable.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use wivi_num::merge::{merge_streams, TimedStream};
use wivi_num::probe::{enabled, thread_slot};

/// Default per-thread ring capacity, in records.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// One completed span (or instantaneous event, `dur_ns == 0`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Start time, ns since the process clock origin.
    pub start_ns: u64,
    /// Duration in ns (0 for events).
    pub dur_ns: u64,
    /// Static span name, e.g. `"session.step"`.
    pub name: &'static str,
    /// Caller argument (session id, window index, …).
    pub arg: u64,
    /// Request trace id ([`crate::trace::UNTRACED`] = 0 when the span
    /// was opened outside any trace context).
    pub trace: u64,
    /// Recording thread's [`thread_slot`].
    pub thread: u32,
}

impl SpanRecord {
    /// Completion time, ns — the key rings are ordered by.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// ns since the recorder's process-wide monotonic origin.
#[inline]
pub fn clock_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    // u64 math throughout: `as_nanos()` would drag u128 multiplies into
    // the span hot path, and u64 holds ~584 years of process uptime.
    let d = origin.elapsed();
    d.as_secs()
        .saturating_mul(1_000_000_000)
        .saturating_add(u64::from(d.subsec_nanos()))
}

/// The per-thread ring capacity in effect (`WIVI_OBS_RING`, read once).
pub fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("WIVI_OBS_RING")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_RING_CAPACITY)
    })
}

struct RingInner {
    /// Stored records; grows to capacity then stays fixed.
    buf: Vec<SpanRecord>,
    /// Next write index once `buf` is at capacity.
    next: usize,
}

struct Ring {
    thread: u32,
    /// [`ring_capacity`], cached at construction — the push path must
    /// not pay a `OnceLock` load per record.
    cap: usize,
    /// Spinlock over `inner`. Uncontended in steady state — the owning
    /// thread takes it per record, [`drain`] briefly per collection —
    /// and a raw CAS + release store costs about half an uncontended
    /// futex mutex round-trip, which matters inside the 100 ns span
    /// budget. Contention is rare and bounded (a drain copying a full
    /// ring holds it for ~µs), so spinning never degenerates.
    locked: AtomicBool,
    inner: UnsafeCell<RingInner>,
    overwritten: AtomicU64,
}

// SAFETY: `inner` is only reached through `lock()`, whose guard provides
// mutual exclusion (acquire CAS in, release store out).
unsafe impl Sync for Ring {}

struct RingGuard<'a>(&'a Ring);

impl std::ops::Deref for RingGuard<'_> {
    type Target = RingInner;
    fn deref(&self) -> &RingInner {
        // SAFETY: the guard holds the spinlock.
        unsafe { &*self.0.inner.get() }
    }
}

impl std::ops::DerefMut for RingGuard<'_> {
    fn deref_mut(&mut self) -> &mut RingInner {
        // SAFETY: the guard holds the spinlock.
        unsafe { &mut *self.0.inner.get() }
    }
}

impl Drop for RingGuard<'_> {
    fn drop(&mut self) {
        // ordering: Release — publishes every write made under the
        // guard to the next thread whose Acquire CAS takes the lock.
        self.0.locked.store(false, Ordering::Release);
    }
}

impl Ring {
    #[inline]
    fn lock(&self) -> RingGuard<'_> {
        // ordering: Acquire on success pairs with the guard's Release
        // unlock, making the previous holder's ring writes visible;
        // Relaxed on failure is fine — a failed CAS publishes nothing
        // and the loop just retries.
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        RingGuard(self)
    }

    fn push(&self, rec: SpanRecord) {
        let mut r = self.lock();
        if r.buf.len() < self.cap {
            r.buf.push(rec);
        } else {
            let next = r.next;
            r.buf[next] = rec;
            r.next = if next + 1 == self.cap { 0 } else { next + 1 };
            // ordering: Relaxed — a plain drop tally; the ring contents
            // it describes are already protected by the spinlock.
            self.overwritten.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copies out in insertion (completion-time) order and clears.
    fn take_ordered(&self) -> Vec<SpanRecord> {
        let mut r = self.lock();
        let out = Self::ordered_copy(&r);
        r.buf.clear();
        r.next = 0;
        out
    }

    /// Copies out in order *without* clearing — the incident capture
    /// path, which must not steal spans from a later [`drain`].
    fn copy_ordered(&self) -> Vec<SpanRecord> {
        let r = self.lock();
        Self::ordered_copy(&r)
    }

    fn ordered_copy(r: &RingInner) -> Vec<SpanRecord> {
        // `next` only advances once the buffer is at capacity, so it
        // being nonzero is exactly "the ring wrapped".
        let mut out = Vec::with_capacity(r.buf.len());
        if r.next > 0 {
            out.extend_from_slice(&r.buf[r.next..]);
            out.extend_from_slice(&r.buf[..r.next]);
        } else {
            out.extend_from_slice(&r.buf);
        }
        out
    }
}

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static MY_RING: Arc<Ring> = {
        let ring = Arc::new(Ring {
            thread: thread_slot() as u32,
            cap: ring_capacity(),
            locked: AtomicBool::new(false),
            inner: UnsafeCell::new(RingInner { buf: Vec::new(), next: 0 }),
            overwritten: AtomicU64::new(0),
        });
        rings().lock().expect("span recorder poisoned").push(Arc::clone(&ring));
        ring
    };
}

/// An open span; records itself into the flight recorder on drop.
/// Empty (a no-op) when observability is off at open time.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    open: Option<(&'static str, u64, u64, u64)>, // (name, arg, trace, start_ns)
}

impl Span {
    /// Closes the span now (equivalent to dropping it).
    pub fn done(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, arg, trace, start_ns)) = self.open.take() {
            let end = clock_ns();
            // One thread-local access does both the ring lookup and the
            // thread tag — the ring already knows whose it is.
            MY_RING.with(|r| {
                r.push(SpanRecord {
                    start_ns,
                    dur_ns: end.saturating_sub(start_ns),
                    name,
                    arg,
                    trace,
                    thread: r.thread,
                });
            });
        }
    }
}

/// Opens a span named `name` (no argument).
#[inline]
pub fn span(name: &'static str) -> Span {
    span_with(name, 0)
}

/// Opens a span named `name` carrying `arg` (session id, window index).
#[inline]
pub fn span_with(name: &'static str, arg: u64) -> Span {
    span_traced(name, arg, 0)
}

/// Opens a span carrying both `arg` and a request `trace` id (from a
/// [`crate::TraceIdGen`]) — the recording end of request tracing. Pass
/// trace `0` (untraced) to get exactly [`span_with`].
#[inline]
pub fn span_traced(name: &'static str, arg: u64, trace: u64) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    Span {
        open: Some((name, arg, trace, clock_ns())),
    }
}

/// Records an instantaneous event (`dur_ns == 0`).
#[inline]
pub fn event(name: &'static str, arg: u64) {
    if !enabled() {
        return;
    }
    let now = clock_ns();
    MY_RING.with(|r| {
        r.push(SpanRecord {
            start_ns: now,
            dur_ns: 0,
            name,
            arg,
            trace: 0,
            thread: r.thread,
        });
    });
}

/// Drains every thread's ring into one stream ordered by
/// `(completion time, thread slot)`, clearing the rings. Uses the same
/// deterministic k-way merge as the serving event stream.
pub fn drain() -> Vec<SpanRecord> {
    let streams: Vec<TimedStream<SpanRecord>> = rings()
        .lock()
        .expect("span recorder poisoned")
        .iter()
        .map(|r| TimedStream {
            tag: r.thread as u64,
            items: r.take_ordered(),
        })
        .collect();
    merge_streams(&streams, |rec| rec.end_ns() as f64)
        .into_iter()
        .map(|(_, rec)| rec)
        .collect()
}

/// A copy of every ring's current contents, merged into one
/// time-ordered stream *without clearing anything* — the read used by
/// `/tracez` and incident capture, which must not steal spans from a
/// later [`drain`].
pub fn snapshot_spans() -> Vec<SpanRecord> {
    let streams: Vec<TimedStream<SpanRecord>> = rings()
        .lock()
        .expect("span recorder poisoned")
        .iter()
        .map(|r| TimedStream {
            tag: r.thread as u64,
            items: r.copy_ordered(),
        })
        .collect();
    merge_streams(&streams, |rec| rec.end_ns() as f64)
        .into_iter()
        .map(|(_, rec)| rec)
        .collect()
}

// ---------------------------------------------------------------------
// Incident buffer: the flight-recorder dump an SLO breach triggers.

/// Bound on retained incidents.
pub const INCIDENT_CAPACITY: usize = 32;

/// Spans kept per incident — the *newest* records across all rings at
/// capture time; older context is cut so a burst of breaches cannot
/// hold megabytes of span copies alive.
pub const INCIDENT_SPAN_CAP: usize = 512;

/// One captured flight-recorder dump: the spans that were in the rings
/// when an SLO breach (or any other trigger) fired.
#[derive(Clone, Debug)]
pub struct Incident {
    /// Monotone capture sequence number (process-wide).
    pub seq: u64,
    /// Static trigger name, e.g. `"slo.hop_budget"`.
    pub reason: &'static str,
    /// The offending entity (session id for SLO breaches).
    pub arg: u64,
    /// Trace id of the offending request (0 when untraced).
    pub trace: u64,
    /// The measured value that crossed the budget, in ns.
    pub worst_ns: u64,
    /// Capture time, ns on the [`clock_ns`] scale.
    pub at_ns: u64,
    /// The newest ≤ [`INCIDENT_SPAN_CAP`] spans at capture time,
    /// completion-time ordered.
    pub spans: Vec<SpanRecord>,
}

fn incidents_store() -> &'static Mutex<std::collections::VecDeque<Incident>> {
    static STORE: OnceLock<Mutex<std::collections::VecDeque<Incident>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(std::collections::VecDeque::new()))
}

/// Captures a flight-recorder dump: copies the newest spans from every
/// ring into the bounded incident buffer (drop-oldest when full).
/// A no-op with the observability switch off. Returns the capture's
/// sequence number, or `None` when disabled.
pub fn capture_incident(reason: &'static str, arg: u64, trace: u64, worst_ns: u64) -> Option<u64> {
    if !enabled() {
        return None;
    }
    static SEQ: AtomicU64 = AtomicU64::new(0);
    // ordering: Relaxed — fetch_add alone guarantees unique, monotone
    // sequence numbers; the incident payload travels under the
    // incident-buffer mutex, not via this atomic.
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut spans = snapshot_spans();
    if spans.len() > INCIDENT_SPAN_CAP {
        spans.drain(..spans.len() - INCIDENT_SPAN_CAP);
    }
    let incident = Incident {
        seq,
        reason,
        arg,
        trace,
        worst_ns,
        at_ns: clock_ns(),
        spans,
    };
    let mut store = incidents_store().lock().expect("incident buffer poisoned");
    if store.len() >= INCIDENT_CAPACITY {
        store.pop_front();
    }
    store.push_back(incident);
    Some(seq)
}

/// The retained incidents, oldest first (a copy; the buffer keeps
/// them).
pub fn incidents() -> Vec<Incident> {
    incidents_store()
        .lock()
        .expect("incident buffer poisoned")
        .iter()
        .cloned()
        .collect()
}

/// Empties the incident buffer (tests and explicit operator reset).
pub fn clear_incidents() {
    incidents_store()
        .lock()
        .expect("incident buffer poisoned")
        .clear();
}

/// Total records overwritten (dropped to make room) across all rings
/// since process start.
pub fn overwritten() -> u64 {
    rings()
        .lock()
        .expect("span recorder poisoned")
        .iter()
        // ordering: Relaxed — a drop tally read for reporting only.
        .map(|r| r.overwritten.load(Ordering::Relaxed))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wivi_num::probe::set_enabled;

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = crate::test_guard();
        set_enabled(Some(false));
        drop(span("quiet"));
        event("quiet.event", 1);
        set_enabled(None);
        assert!(
            !drain().iter().any(|r| r.name.starts_with("quiet")),
            "disabled span must not record"
        );
    }

    #[test]
    fn spans_record_and_drain_ordered_across_threads() {
        let _g = crate::test_guard();
        set_enabled(Some(true));
        let _ = drain(); // start clean
        {
            let s = span_with("outer", 7);
            drop(span("inner"));
            std::thread::sleep(std::time::Duration::from_millis(1));
            s.done();
        }
        std::thread::scope(|sc| {
            for t in 0..3 {
                sc.spawn(move || {
                    for i in 0..5 {
                        drop(span_with("worker", t * 10 + i));
                    }
                });
            }
        });
        event("marker", 42);
        set_enabled(None);

        let recs = drain();
        assert!(recs.iter().any(|r| r.name == "outer" && r.arg == 7));
        assert!(recs.iter().any(|r| r.name == "inner"));
        assert_eq!(recs.iter().filter(|r| r.name == "worker").count(), 15);
        let marker = recs.iter().find(|r| r.name == "marker").unwrap();
        assert_eq!((marker.arg, marker.dur_ns), (42, 0));
        // Globally ordered by completion time.
        for w in recs.windows(2) {
            assert!(w[0].end_ns() <= w[1].end_ns(), "drain out of order");
        }
        // Nested: inner completes before outer, outer started first.
        let outer = recs.iter().find(|r| r.name == "outer").unwrap();
        let inner = recs.iter().find(|r| r.name == "inner").unwrap();
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.end_ns() <= outer.end_ns());
        assert!(outer.dur_ns >= 1_000_000, "outer slept ≥ 1 ms");

        // Drain cleared everything.
        assert!(drain().is_empty());
    }

    #[test]
    fn traced_spans_carry_ids_and_snapshot_does_not_steal() {
        let _g = crate::test_guard();
        set_enabled(Some(true));
        let _ = drain();
        drop(span_traced("traced.step", 5, 0xfeed));
        drop(span_with("untraced", 1));
        let peek = snapshot_spans();
        assert!(peek
            .iter()
            .any(|r| r.name == "traced.step" && r.trace == 0xfeed));
        assert!(peek.iter().any(|r| r.name == "untraced" && r.trace == 0));
        // Peeking is non-destructive: drain still sees everything.
        let recs = drain();
        set_enabled(None);
        assert!(recs
            .iter()
            .any(|r| r.name == "traced.step" && r.trace == 0xfeed));
        assert!(recs.iter().any(|r| r.name == "untraced"));
    }

    #[test]
    fn incident_capture_is_bounded_and_preserves_rings() {
        let _g = crate::test_guard();
        set_enabled(Some(true));
        clear_incidents();
        let _ = drain();
        drop(span_traced("slow.step", 9, 0xabc));
        let seq = capture_incident("slo.hop_budget", 9, 0xabc, 500_000_000)
            .expect("enabled capture returns a seq");
        let inc = incidents();
        assert_eq!(inc.len(), 1);
        assert_eq!(inc[0].seq, seq);
        assert_eq!(
            (inc[0].reason, inc[0].arg, inc[0].trace, inc[0].worst_ns),
            ("slo.hop_budget", 9, 0xabc, 500_000_000)
        );
        assert!(inc[0].spans.iter().any(|r| r.name == "slow.step"));
        // Capture did not consume the rings.
        assert!(drain().iter().any(|r| r.name == "slow.step"));

        // The buffer is bounded drop-oldest.
        for i in 0..2 * INCIDENT_CAPACITY as u64 {
            capture_incident("flood", i, 0, 0);
        }
        let inc = incidents();
        assert_eq!(inc.len(), INCIDENT_CAPACITY);
        assert_eq!(inc.last().unwrap().arg, 2 * INCIDENT_CAPACITY as u64 - 1);
        for w in inc.windows(2) {
            assert!(w[0].seq < w[1].seq, "incidents stay ordered");
        }
        clear_incidents();
        // Force-off (None would re-arm the env read, which may say on
        // when the suite itself runs under WIVI_OBS=1).
        set_enabled(Some(false));
        assert!(
            capture_incident("off", 0, 0, 0).is_none(),
            "disabled ⇒ no capture"
        );
        assert!(incidents().is_empty());
        set_enabled(None);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let _g = crate::test_guard();
        set_enabled(Some(true));
        let _ = drain();
        let before = overwritten();
        let cap = ring_capacity();
        // Overflow this thread's ring by half its capacity again.
        for i in 0..(cap + cap / 2) as u64 {
            event("flood", i);
        }
        set_enabled(None);
        let recs: Vec<SpanRecord> = drain()
            .into_iter()
            .filter(|r| r.name == "flood" && r.thread == thread_slot() as u32)
            .collect();
        assert_eq!(recs.len(), cap, "ring keeps exactly its capacity");
        // The survivors are the *newest* cap records, still in order.
        assert_eq!(recs.first().unwrap().arg, (cap / 2) as u64);
        assert_eq!(recs.last().unwrap().arg, (cap + cap / 2 - 1) as u64);
        assert_eq!(overwritten() - before, (cap / 2) as u64);
    }
}
