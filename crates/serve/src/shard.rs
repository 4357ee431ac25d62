//! Worker shards: each owns a set of live sessions, and each session
//! owns its per-window engine.
//!
//! A shard is one plain `std::thread` looping over rounds: drain the
//! bounded command queue, then advance every live session by one
//! fixed-size batch, in ascending session-id order, through one reused
//! sample buffer. Ordering by id — not by arrival — plus the fact that
//! sessions share no mutable state makes every session's output
//! independent of submission order and shard count; the id order exists
//! so the *wall-clock interleave* is reproducible too, not just the
//! outputs. Sessions spread over shards are the engine's only parallel
//! unit: one core keeps a session well ahead of the channel rate.
//!
//! A session builds its engine when it opens and drops it when it
//! drains, so a shard holds one set of per-window scratch per live
//! session. Engines take their steering tables from the process-wide
//! [`TableStore`](wivi_core::TableStore)s, so every session on every
//! shard shares one table per configuration.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use wivi_num::Complex64;
use wivi_obs::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, WindowedCounter, WindowedHistogram,
};

use crate::mode::Mode;
use crate::session::{ActiveSession, SessionId, SessionOutput, SessionSpec};

/// A command routed to a shard.
pub(crate) enum Command {
    /// Admit a session (boxed: a spec carries a full device
    /// configuration plus scene and mode handles, and moves through
    /// queues and `try_open` round trips).
    Open(Box<SessionSpec>),
    /// Close a session early: it drains at its next batch boundary.
    Close(SessionId),
}

/// The bounded per-shard work queue. Producers (the engine's `open`)
/// block on [`Self::push_blocking`] while the queue is at capacity —
/// that is the engine's backpressure; the shard thread blocks on
/// [`Self::take`] only when it has no live sessions to advance.
pub(crate) struct ShardChannel {
    state: Mutex<QueueState>,
    /// Signals producers: space freed.
    can_push: Condvar,
    /// Signals the shard thread: work arrived or shutdown.
    has_work: Condvar,
}

struct QueueState {
    pending: VecDeque<Command>,
    capacity: usize,
    shut: bool,
}

/// The channel has been shut down: the command was not (and will never
/// be) enqueued. Returned instead of panicking so a producer racing
/// `finish()` gets a clean error and the queue mutex is never poisoned.
#[derive(Debug)]
pub(crate) struct ShutDown;

/// Why [`ShardChannel::try_push`] refused a command.
pub(crate) enum TryPushError {
    /// The queue is at capacity; the command is handed back for retry.
    Full(Command),
    /// The channel is shut down; the command can never be delivered.
    Shut,
}

impl ShardChannel {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        Self {
            state: Mutex::new(QueueState {
                pending: VecDeque::with_capacity(capacity),
                capacity,
                shut: false,
            }),
            can_push: Condvar::new(),
            has_work: Condvar::new(),
        }
    }

    /// Enqueues, blocking while the queue is full (backpressure).
    /// Returns [`ShutDown`] — instead of panicking and poisoning the
    /// mutex — if the channel shuts down while this producer waits (or
    /// already had): a connection racing `finish()` must not kill the
    /// engine.
    pub(crate) fn push_blocking(&self, cmd: Command) -> Result<(), ShutDown> {
        let mut st = self.state.lock().expect("shard queue poisoned");
        loop {
            if st.shut {
                return Err(ShutDown);
            }
            if st.pending.len() < st.capacity {
                break;
            }
            st = self.can_push.wait(st).expect("shard queue poisoned");
        }
        st.pending.push_back(cmd);
        self.has_work.notify_one();
        Ok(())
    }

    /// Enqueues without blocking; hands the command back if the queue is
    /// full, and reports shutdown as an error rather than a panic.
    pub(crate) fn try_push(&self, cmd: Command) -> Result<(), TryPushError> {
        let mut st = self.state.lock().expect("shard queue poisoned");
        if st.shut {
            return Err(TryPushError::Shut);
        }
        if st.pending.len() >= st.capacity {
            return Err(TryPushError::Full(cmd));
        }
        st.pending.push_back(cmd);
        self.has_work.notify_one();
        Ok(())
    }

    /// Queued commands right now (for backpressure introspection).
    pub(crate) fn queue_len(&self) -> usize {
        self.state
            .lock()
            .expect("shard queue poisoned")
            .pending
            .len()
    }

    /// Marks the stream of commands complete: the shard finishes its
    /// live sessions and exits.
    pub(crate) fn shutdown(&self) {
        let mut st = self.state.lock().expect("shard queue poisoned");
        st.shut = true;
        self.has_work.notify_all();
        self.can_push.notify_all();
    }

    /// Drains all queued commands. Blocks until work or shutdown when
    /// `block` (the shard is otherwise idle); returns immediately when
    /// not. The second value is the shutdown flag.
    fn take(&self, block: bool) -> (Vec<Command>, bool) {
        let mut st = self.state.lock().expect("shard queue poisoned");
        if block {
            while st.pending.is_empty() && !st.shut {
                st = self.has_work.wait(st).expect("shard queue poisoned");
            }
        }
        let cmds: Vec<Command> = st.pending.drain(..).collect();
        let shut = st.shut;
        drop(st);
        if !cmds.is_empty() {
            self.can_push.notify_all();
        }
        (cmds, shut)
    }
}

/// The obs-registry handles one shard records its serving telemetry
/// into: always on (the bench suite reads them with `WIVI_OBS` off
/// too), and shared by value between the shard thread and the engine —
/// metrics are `Arc`-backed atomics, so the shard records *directly*
/// while the engine reads them live.
#[derive(Clone)]
pub(crate) struct ShardMetrics {
    pub(crate) shard: usize,
    /// Sessions served to completion.
    sessions: Counter,
    /// Nanoseconds computing (calibration + batch steps).
    busy_ns: Counter,
    /// Wall-clock nanoseconds from shard start to exit.
    alive_ns: Counter,
    /// Most engines resident at once: the peak live-session count, since
    /// each live session owns one engine.
    engines: Gauge,
    /// Per-batch processing wall-clock, nanoseconds.
    batch_latency_ns: Histogram,
    /// Rolling view over `batch_latency_ns` (~1 s ticks): what the
    /// `/metrics` rolling p50/p99 lines read. `Arc`: the window's tick
    /// ring is shared between the shard and the engine.
    batch_window: Arc<WindowedHistogram>,
    /// Engine-wide SLO accounting the shard tallies into after every
    /// batch step.
    pub(crate) slo: SloMetrics,
    /// Engine-wide per-session histograms, recorded as sessions drain.
    session: SessionMetrics,
}

impl ShardMetrics {
    /// Registers (or re-attaches to) shard `shard`'s metrics in `reg`.
    pub(crate) fn register(
        reg: &Registry,
        shard: usize,
        slo: SloMetrics,
        session: SessionMetrics,
    ) -> Self {
        let name = |metric: &str| format!("serve.shard{shard}.{metric}");
        let batch_latency_ns = reg.histogram(&name("batch_latency_ns"));
        Self {
            shard,
            sessions: reg.counter(&name("sessions")),
            busy_ns: reg.counter(&name("busy_ns")),
            alive_ns: reg.counter(&name("alive_ns")),
            engines: reg.gauge(&name("engines")),
            batch_window: Arc::new(WindowedHistogram::new(batch_latency_ns.clone())),
            batch_latency_ns,
            slo,
            session,
        }
    }

    #[inline]
    fn record_step(&self, d: std::time::Duration) {
        self.busy_ns
            .add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        self.batch_latency_ns.record_duration(d);
        self.batch_window.maybe_tick();
    }

    /// The rolling batch-latency view over the trailing `window_ns`.
    pub(crate) fn rolling_batch(&self, window_ns: u64) -> HistogramSnapshot {
        self.batch_window.rolling(window_ns)
    }

    /// The shard's current telemetry as one owned row.
    pub(crate) fn snapshot(&self) -> ShardSnapshot {
        let batch_latency_ns = self.batch_latency_ns.snapshot();
        ShardSnapshot {
            shard: self.shard,
            sessions: self.sessions.value() as usize,
            batches: batch_latency_ns.count as usize,
            busy_s: self.busy_ns.value() as f64 / 1e9,
            alive_s: self.alive_ns.value() as f64 / 1e9,
            engines: self.engines.value() as usize,
            batch_latency_ns,
        }
    }
}

/// Serving telemetry of one shard, snapshotted from the obs registry.
#[derive(Clone, Debug)]
pub struct ShardSnapshot {
    pub shard: usize,
    /// Sessions this shard served to completion.
    pub sessions: usize,
    /// Batch steps executed (the latency histogram's sample count).
    pub batches: usize,
    /// Seconds spent computing (calibration + batch steps).
    pub busy_s: f64,
    /// Wall-clock from shard start to shard exit, seconds.
    pub alive_s: f64,
    /// Most engines resident on the shard at once: its peak number of
    /// live sessions, each of which owns one engine.
    pub engines: usize,
    /// Per-batch processing latency, nanoseconds — the mergeable
    /// histogram that replaced the raw latency vector.
    pub batch_latency_ns: HistogramSnapshot,
}

impl ShardSnapshot {
    /// Busy fraction of the shard thread over its lifetime:
    /// `busy_s / alive_s`.
    pub fn utilization(&self) -> f64 {
        if self.alive_s > 0.0 {
            (self.busy_s / self.alive_s).min(1.0)
        } else {
            0.0
        }
    }

    /// The `p`-th percentile (0–100) of this shard's batch latency,
    /// seconds.
    pub fn batch_latency_percentile_s(&self, p: f64) -> f64 {
        self.batch_latency_ns.quantile(p) / 1e9
    }
}

/// Engine-wide SLO accounting against the serving hop budget (the
/// paper's 400 ms end-to-end window budget by default): every batch
/// window is tallied under/over, and a session's *first* breach dumps
/// the span flight recorder into the bounded incident buffer
/// ([`wivi_obs::capture_incident`]). Registered once per engine under
/// `serve.slo.*`; cloned into every shard's [`ShardMetrics`] so the
/// `Arc`-backed rolling windows share one tick ring.
#[derive(Clone)]
pub(crate) struct SloMetrics {
    /// The hop budget one batch window is held to, nanoseconds.
    pub(crate) budget_ns: u64,
    /// All batch windows measured (`serve.slo.windows`), with a rolling
    /// view for burn-rate-over-the-last-minute readouts.
    windows: Arc<WindowedCounter>,
    /// Windows over budget (`serve.slo.windows_over`).
    windows_over: Arc<WindowedCounter>,
    /// Sessions that breached at least once
    /// (`serve.slo.breached_sessions`).
    breached_sessions: Counter,
    /// Worst window seen, ns (`serve.slo.worst_ns`).
    worst: Gauge,
}

impl SloMetrics {
    /// Registers the engine-wide `serve.slo.*` metrics in `reg`.
    pub(crate) fn register(reg: &Registry, budget_ns: u64) -> Self {
        Self {
            budget_ns,
            windows: Arc::new(WindowedCounter::new(reg.counter("serve.slo.windows"))),
            windows_over: Arc::new(WindowedCounter::new(reg.counter("serve.slo.windows_over"))),
            breached_sessions: reg.counter("serve.slo.breached_sessions"),
            worst: reg.gauge("serve.slo.worst_ns"),
        }
    }

    /// Tallies one batch window of `d_ns` for session `s`. On the
    /// session's first breach, bumps the breach counter and captures a
    /// flight-recorder incident carrying the session's trace id.
    fn note_step(&self, s: &mut ActiveSession, d_ns: u64) {
        self.windows.counter().inc();
        // Worst window over ALL measured windows (matching the
        // SloSummary docs), breached or not; atomic max so concurrent
        // shards cannot lose a larger value.
        self.worst.set_max(d_ns as f64);
        if d_ns > self.budget_ns {
            self.windows_over.counter().inc();
            if !s.breached {
                s.breached = true;
                self.breached_sessions.inc();
                wivi_obs::capture_incident("slo.hop_budget", s.id, s.trace, d_ns);
            }
        }
        self.windows.maybe_tick();
        self.windows_over.maybe_tick();
    }

    /// Rolling `(windows, windows_over)` counts over the trailing
    /// `window_ns`.
    pub(crate) fn rolling(&self, window_ns: u64) -> (u64, u64) {
        (
            self.windows.rolling(window_ns),
            self.windows_over.rolling(window_ns),
        )
    }

    /// The cumulative aggregate, as surfaced in
    /// [`ServeSnapshot`](crate::ServeSnapshot).
    pub(crate) fn summary(&self) -> SloSummary {
        SloSummary {
            budget_ns: self.budget_ns,
            windows: self.windows.counter().value(),
            windows_over: self.windows_over.counter().value(),
            breached_sessions: self.breached_sessions.value(),
            worst_ns: self.worst.value() as u64,
        }
    }
}

/// Engine-wide per-session histograms, recorded once per session as it
/// drains: calibration time, nulling depth and stream time per mode.
/// Registered once per engine, as [`SloMetrics`] is, and cloned into
/// every shard's [`ShardMetrics`]. They live only in the registry —
/// `/metrics` exports their `_sum` and `_count` — and are not copied
/// into [`ServeSnapshot`](crate::ServeSnapshot), which callers keep one
/// of per run.
#[derive(Clone)]
pub(crate) struct SessionMetrics {
    /// Calibration wall-clock at open (`serve.session.calibrate_ns`).
    calibrate_ns: Histogram,
    /// Nulling depth at open in milli-dB, clamped at 0
    /// (`serve.session.nulling_mdb`).
    nulling_mdb: Histogram,
    /// Summed batch wall-clock of one session, one histogram per mode in
    /// [`Mode::ALL`] order (`serve.session.stream_ns.<tag>`).
    stream_ns: [Histogram; Mode::ALL.len()],
}

impl SessionMetrics {
    /// Registers the engine-wide `serve.session.*` histograms in `reg`.
    pub(crate) fn register(reg: &Registry) -> Self {
        Self {
            calibrate_ns: reg.histogram("serve.session.calibrate_ns"),
            nulling_mdb: reg.histogram("serve.session.nulling_mdb"),
            stream_ns: Mode::ALL
                .map(|m| reg.histogram(&format!("serve.session.stream_ns.{}", m.tag()))),
        }
    }

    /// Records one drained session of `mode`.
    pub(crate) fn record(
        &self,
        mode: Mode,
        calibrate: Duration,
        stream: Duration,
        nulling_db: f64,
    ) {
        self.calibrate_ns.record_duration(calibrate);
        // `as` saturates, and `max` maps NaN to 0.
        self.nulling_mdb
            .record((nulling_db * 1e3).round().max(0.0) as u64);
        let k = Mode::ALL
            .iter()
            .position(|&m| m == mode)
            .expect("every mode is in Mode::ALL");
        self.stream_ns[k].record_duration(stream);
    }
}

/// The engine's SLO accounting, aggregated: how the serving run did
/// against its hop budget.
#[derive(Clone, Copy, Debug, Default)]
pub struct SloSummary {
    /// The budget each batch window was held to, nanoseconds.
    pub budget_ns: u64,
    /// Batch windows measured.
    pub windows: u64,
    /// Windows that went over budget.
    pub windows_over: u64,
    /// Sessions that breached at least once (each triggered one
    /// flight-recorder incident).
    pub breached_sessions: u64,
    /// The worst window seen, nanoseconds.
    pub worst_ns: u64,
}

impl SloSummary {
    /// Fraction of measured windows that went over budget (0 when
    /// nothing was measured).
    pub fn burn_rate(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.windows_over as f64 / self.windows as f64
        }
    }
}

/// Advances `s` by one batch through the shard's sample buffer
/// `scratch` unless it is done streaming, then records the step's
/// wall-clock: session stream time, shard busy time and batch latency,
/// and the SLO tally. The shard's one step path.
fn step(
    s: &mut ActiveSession,
    batch_len: usize,
    scratch: &mut Vec<Complex64>,
    metrics: &ShardMetrics,
) {
    if s.done_streaming() {
        return;
    }
    let t0 = Instant::now();
    s.step(batch_len, scratch);
    let d = t0.elapsed();
    s.stream += d;
    metrics.record_step(d);
    metrics
        .slo
        .note_step(s, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

/// The shard thread body: rounds of (drain commands → advance each live
/// session one batch, in id order → drain finished sessions), until
/// shutdown and empty.
pub(crate) fn run_shard(
    shard_idx: usize,
    chan: std::sync::Arc<ShardChannel>,
    batch_len: usize,
    metrics: ShardMetrics,
    completions: Option<crate::engine::CompletionQueue>,
) -> Vec<SessionOutput> {
    let started = Instant::now();
    let mut scratch: Vec<Complex64> = Vec::with_capacity(batch_len);
    let mut active: Vec<ActiveSession> = Vec::new();
    let mut outputs: Vec<SessionOutput> = Vec::new();
    // Reused across rounds by the finished-session partition pass, so
    // draining allocates only while the live set is still growing.
    let mut keep: Vec<ActiveSession> = Vec::new();

    loop {
        let (cmds, shut) = chan.take(active.is_empty());
        for cmd in cmds {
            match cmd {
                Command::Open(spec) => {
                    let t0 = Instant::now();
                    let session = ActiveSession::open(*spec);
                    metrics
                        .busy_ns
                        .add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    active.push(session);
                    // Rounds advance sessions in ascending id order so
                    // the interleave is submission-order-independent.
                    active.sort_by_key(|s| s.id);
                }
                Command::Close(id) => {
                    wivi_obs::event("session.close", id);
                    if let Some(s) = active.iter_mut().find(|s| s.id == id) {
                        s.closing = true;
                    }
                }
            }
        }
        if active.is_empty() {
            if shut {
                break;
            }
            continue;
        }
        metrics.engines.set_max(active.len() as f64);
        for s in active.iter_mut() {
            step(s, batch_len, &mut scratch, &metrics);
        }
        // Drain: move finished sessions out in a single order-preserving
        // partition pass (the old `remove(i)`-in-a-loop was O(n²) per
        // round at wire-front session counts). `keep` is reused, so the
        // common all-still-streaming round does no work at all.
        if active.iter().any(ActiveSession::done_streaming) {
            for s in active.drain(..) {
                if s.done_streaming() {
                    let out = s.finalize(shard_idx, &metrics.session);
                    metrics.sessions.inc();
                    if let Some(q) = &completions {
                        q.push(out.clone());
                    }
                    outputs.push(out);
                } else {
                    keep.push(s);
                }
            }
            std::mem::swap(&mut active, &mut keep);
        }
    }

    metrics
        .alive_ns
        .add(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn close_cmd(id: u64) -> Command {
        Command::Close(id)
    }

    /// Regression (PR 8): a producer blocked in `push_blocking` while
    /// the channel shuts down must get a clean `ShutDown`, not an
    /// assert that poisons the mutex — the exact race a networked
    /// client opening against a finishing engine hits.
    #[test]
    fn blocked_push_gets_shutdown_error_without_poisoning() {
        let chan = Arc::new(ShardChannel::new(1));
        chan.push_blocking(close_cmd(0)).expect("first push fits");

        let producer = {
            let chan = Arc::clone(&chan);
            std::thread::spawn(move || chan.push_blocking(close_cmd(1)))
        };
        // Let the producer reach the full-queue wait, then shut down.
        std::thread::sleep(std::time::Duration::from_millis(50));
        chan.shutdown();
        let res = producer.join().expect("producer must not panic");
        assert!(res.is_err(), "blocked push must observe the shutdown");

        // The mutex survived: the channel still answers, and the one
        // command enqueued before shutdown is still there (drainable).
        assert_eq!(chan.queue_len(), 1, "pre-shutdown command lost");
        let (cmds, shut) = chan.take(false);
        assert_eq!(cmds.len(), 1);
        assert!(shut);
    }

    /// Pushes after shutdown fail cleanly on both entry points.
    #[test]
    fn push_after_shutdown_is_an_error_not_a_panic() {
        let chan = ShardChannel::new(4);
        chan.shutdown();
        assert!(chan.push_blocking(close_cmd(1)).is_err());
        assert!(matches!(
            chan.try_push(close_cmd(2)),
            Err(TryPushError::Shut)
        ));
        assert_eq!(chan.queue_len(), 0);
    }

    /// No lost commands under a storm of producers racing shutdown:
    /// every `Ok` push is delivered exactly once, every failed push is
    /// absent, and nobody panics.
    #[test]
    fn racing_producers_lose_nothing_and_never_poison() {
        for trial in 0..8u64 {
            let chan = Arc::new(ShardChannel::new(2));
            let producers: Vec<_> = (0..4u64)
                .map(|p| {
                    let chan = Arc::clone(&chan);
                    std::thread::spawn(move || {
                        let mut delivered = Vec::new();
                        for k in 0..16u64 {
                            let id = p * 1000 + k;
                            if chan.push_blocking(Command::Close(id)).is_ok() {
                                delivered.push(id);
                            } else {
                                // Shut: every later push must fail too.
                                assert!(chan.push_blocking(Command::Close(id)).is_err());
                                break;
                            }
                        }
                        delivered
                    })
                })
                .collect();

            // A consumer draining concurrently, then a mid-stream shutdown.
            let consumer = {
                let chan = Arc::clone(&chan);
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    loop {
                        let (cmds, shut) = chan.take(true);
                        for c in cmds {
                            match c {
                                Command::Close(id) => seen.push(id),
                                Command::Open(_) => unreachable!(),
                            }
                        }
                        if shut {
                            // One final non-blocking sweep after the flag.
                            let (rest, _) = chan.take(false);
                            for c in rest {
                                if let Command::Close(id) = c {
                                    seen.push(id);
                                }
                            }
                            return seen;
                        }
                    }
                })
            };
            std::thread::sleep(std::time::Duration::from_millis(1 + trial % 3));
            chan.shutdown();

            let mut delivered: Vec<u64> = producers
                .into_iter()
                .flat_map(|p| p.join().expect("producer panicked"))
                .collect();
            let mut seen = consumer.join().expect("consumer panicked");
            delivered.sort_unstable();
            seen.sort_unstable();
            assert_eq!(
                delivered, seen,
                "acknowledged pushes were lost or duplicated"
            );
        }
    }
}
