//! Observability substrate for the Wi-Vi serving stack: lock-light
//! metrics, a span flight recorder, and in-house exporters — zero
//! third-party dependencies.
//!
//! Three pieces (design rationale in DESIGN.md §13):
//!
//! * [`metrics`] — [`Registry`] of [`Counter`]s, [`Gauge`]s, and
//!   log-linear-bucket [`Histogram`]s whose cells are striped per
//!   thread slot and merge exactly (order- and
//!   thread-count-invariant). The serving engine keeps one registry per
//!   engine; kernel-adjacent hooks share [`metrics::global`].
//! * [`spans`] — [`span`]/[`span_with`] guards writing into
//!   fixed-capacity per-thread ring buffers with overwrite-oldest
//!   flight-recorder semantics, drained time-ordered through
//!   `wivi_num::merge_streams`.
//! * [`export`] — [`export::to_json`] (versioned schema) and
//!   [`export::to_prometheus`] (text exposition format) over any
//!   [`Snapshot`].
//!
//! Two request-scoped layers ride on top (DESIGN.md §15):
//!
//! * [`trace`] — seeded 64-bit trace ids ([`TraceIdGen`]) that link a
//!   session's client-side and server-side spans under one id;
//!   [`span_traced`] is the recording end, and [`capture_incident`]/
//!   [`incidents`] the bounded flight-recorder dump an SLO breach
//!   triggers.
//! * [`window`] — [`TickRing`]: cumulative states a second apart,
//!   owned and ticked by the loop that reads them, so a rolling
//!   10 s/60 s view is one diff ([`HistogramSnapshot::diff`]),
//!   merge-invariant like the cumulative histograms it diffs.
//!
//! Everything is gated by the process-wide `WIVI_OBS` switch living in
//! [`wivi_num::probe`] (re-exported here as [`enabled`]/
//! [`set_enabled`]): off — the default — every probe, span, and hook
//! is a single static load and a predictable branch, and the golden
//! traces are bitwise identical either way. The only always-on metrics
//! are the serving shard counters, which the bench suite needs with the
//! switch off too.

pub mod export;
pub mod metrics;
pub mod spans;
pub mod trace;
pub mod window;

pub use metrics::{
    bucket_bounds, bucket_of, global, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    Snapshot, N_BUCKETS,
};
pub use spans::{
    capture_incident, clear_incidents, drain, event, incidents, overwritten, snapshot_spans, span,
    span_traced, span_with, Incident, Span, SpanRecord,
};
pub use trace::{fmt_trace, TraceIdGen, UNTRACED};
pub use window::{TickRing, WINDOW_10S_NS, WINDOW_60S_NS};
pub use wivi_num::probe::{enabled, set_enabled, thread_slot};

/// Serializes tests that flip the process-wide [`set_enabled`] switch
/// or drain the global span recorder (cargo runs tests on parallel
/// threads in one process).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}
