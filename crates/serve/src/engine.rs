//! The serving engine: session routing, backpressure, and the unified
//! event stream.
//!
//! [`ServeEngine::start`] spawns N worker shards ([`crate::shard`]).
//! [`ServeEngine::open`] routes a [`SessionSpec`] to the shard selected
//! by a stable FNV-1a hash of its session id — never by load, arrival
//! order, or thread scheduling — and blocks while that shard's bounded
//! queue is full (the backpressure surface; [`ServeEngine::try_open`] is
//! the non-blocking variant). Sessions stream to completion on their
//! shard, can be cut short with [`ServeEngine::close`], and
//! [`ServeEngine::finish`] drains everything into a [`ServeReport`].
//!
//! **Determinism.** Each session's output depends only on its spec:
//! sessions own their scene, device, RNG and per-window engine; and the
//! merged event stream orders by `(timestamp, session id, emission
//! order)` through [`wivi_num::merge_streams`]. Shard count, submission order, and
//! scheduling therefore cannot change a single bit of the report's
//! outputs or events — the `serving_equivalence` and determinism-matrix
//! integration tests pin this.

use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Thread;
use std::time::Instant;

use wivi_num::{merge_streams, TimedStream};
use wivi_obs::{HistogramSnapshot, Registry};
use wivi_track::TrackEvent;

use crate::error::ServeError;
use crate::session::{SessionId, SessionOutput, SessionSpec};
use crate::shard::{
    run_shard, Command, SessionMetrics, ShardChannel, ShardMetrics, ShardSnapshot, SloMetrics,
    SloSummary, TryPushError,
};

/// Engine sizing.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker shards. Sessions hash-route here; more shards than cores
    /// is legal (they time-share).
    pub n_shards: usize,
    /// Worker threads *inside* each shard: every round, the shard
    /// round-robin partitions its id-sorted live sessions across this
    /// many scoped threads, each owning a private sample buffer.
    /// Sessions share no mutable state, so outputs and the merged event
    /// stream are bit-identical for every worker count; only wall-clock
    /// changes. `1` is the classic single-threaded shard.
    pub workers_per_shard: usize,
    /// Channel samples each session advances per turn — the serving
    /// analogue of the UHD frame chunk.
    pub batch_len: usize,
    /// Bound of each shard's command queue; `open` blocks when the
    /// target shard's queue is at capacity.
    pub queue_capacity: usize,
    /// The SLO hop budget each batch window is held to, nanoseconds
    /// (the paper's 400 ms end-to-end window budget by default).
    /// Accounting only — nothing is throttled on a breach: the window
    /// is tallied in `serve.slo.*`, and a session's first breach dumps
    /// the span flight recorder into the incident buffer.
    pub slo_budget_ns: u64,
}

/// The default SLO hop budget: the paper's 400 ms end-to-end window.
pub const DEFAULT_SLO_BUDGET_NS: u64 = 400_000_000;

impl ServeConfig {
    /// `n_shards` shards with the device's default batching, a
    /// 32-command queue bound, and the `WIVI_SERVE_WORKERS` worker
    /// count (default 1).
    pub fn with_shards(n_shards: usize) -> Self {
        Self::with_shards_workers(n_shards, default_workers_per_shard())
    }

    /// `n_shards` shards × `workers_per_shard` threads, with the
    /// device's default batching and a 32-command queue bound.
    pub fn with_shards_workers(n_shards: usize, workers_per_shard: usize) -> Self {
        Self {
            n_shards,
            workers_per_shard,
            batch_len: wivi_core::device::DEFAULT_BATCH_LEN,
            queue_capacity: 32,
            slo_budget_ns: DEFAULT_SLO_BUDGET_NS,
        }
    }

    /// Total worker threads this configuration spins up.
    pub fn threads(&self) -> usize {
        self.n_shards * self.workers_per_shard
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on zero shards, workers, batch length, or queue capacity.
    pub fn validate(&self) {
        assert!(self.n_shards >= 1, "need at least one shard");
        assert!(
            self.workers_per_shard >= 1,
            "need at least one worker per shard"
        );
        assert!(self.batch_len >= 1, "batch length must be positive");
        assert!(self.queue_capacity >= 1, "queue capacity must be positive");
        assert!(self.slo_budget_ns >= 1, "SLO budget must be positive");
    }
}

/// The `WIVI_SERVE_WORKERS` default worker count, read once per
/// process: unset, unparsable, or zero mean 1 worker per shard.
pub fn default_workers_per_shard() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::env::var("WIVI_SERVE_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    })
}

/// One event of the engine's unified stream: a tracker event stamped
/// with its session and the serving-clock time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeEvent {
    /// Serving-clock timestamp: session `start_s` + the event's
    /// session-relative window time.
    pub time_s: f64,
    pub session: SessionId,
    /// The event's emission index within its session (the merge's final
    /// tie-break, and the key to re-derive per-session order).
    pub seq: usize,
    pub event: TrackEvent,
}

/// Engine-wide serving telemetry, assembled from the engine's obs
/// registry ([`ServeEngine::registry`]) at [`ServeEngine::finish`]: one
/// [`ShardSnapshot`] row per shard plus the machine-level context
/// (threads spun up, cores available) that used to be scattered across
/// callers.
#[derive(Clone, Debug)]
pub struct ServeSnapshot {
    /// Total worker threads that executed session batches: the sum of
    /// every shard's worker count.
    pub threads_used: usize,
    /// Logical cores the host reports
    /// ([`std::thread::available_parallelism`]).
    pub cores_available: usize,
    /// Per-shard serving telemetry, in shard order.
    pub shards: Vec<ShardSnapshot>,
    /// How the run did against its SLO hop budget.
    pub slo: SloSummary,
}

impl ServeSnapshot {
    /// All shards' per-batch latency histograms merged into one, in
    /// nanoseconds. Merging is element-wise and order-invariant, so the
    /// result is identical however the shards interleaved.
    pub fn batch_latency_ns(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for s in &self.shards {
            merged.merge(&s.batch_latency_ns);
        }
        merged
    }
}

/// Everything a serving run produced.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// One output per opened session, in session-id order.
    pub outputs: Vec<SessionOutput>,
    /// The unified cross-session event stream, ordered by
    /// `(time, session id, emission order)`.
    pub events: Vec<ServeEvent>,
    /// Engine-wide telemetry: per-shard rows plus thread/core context.
    pub snapshot: ServeSnapshot,
    /// Engine wall-clock from start to finish, seconds.
    pub wall_s: f64,
}

impl ServeReport {
    /// The output of session `id`, if it was served. `outputs` is
    /// id-sorted (the engine sorts at `finish`), so this is a binary
    /// search — O(log n) at wire-front session counts, where the old
    /// linear scan made report post-processing quadratic.
    pub fn output(&self, id: SessionId) -> Option<&SessionOutput> {
        self.outputs
            .binary_search_by_key(&id, |o| o.id)
            .ok()
            .map(|i| &self.outputs[i])
    }

    /// Total channel samples streamed across all sessions.
    pub fn total_samples(&self) -> usize {
        self.outputs.iter().map(|o| o.n_samples).sum()
    }

    /// Aggregate streaming throughput, channel samples per wall-clock
    /// second.
    pub fn samples_per_sec(&self) -> f64 {
        self.total_samples() as f64 / self.wall_s.max(1e-12)
    }

    /// Sessions served per wall-clock second.
    pub fn sessions_per_sec(&self) -> f64 {
        self.outputs.len() as f64 / self.wall_s.max(1e-12)
    }

    /// Per-shard telemetry rows, in shard order.
    pub fn shards(&self) -> &[ShardSnapshot] {
        &self.snapshot.shards
    }

    /// Total worker threads that executed session batches: the sum of
    /// every shard's worker count.
    pub fn threads_used(&self) -> usize {
        self.snapshot.threads_used
    }

    /// The `p`-th percentile (0–100) of per-batch processing latency
    /// across all shards, seconds; 0 if no batches ran. Read from the
    /// merged latency histogram (≤6.25 % relative bucket width), not a
    /// raw sample vector.
    pub fn batch_latency_percentile_s(&self, p: f64) -> f64 {
        self.snapshot.batch_latency_ns().quantile(p) / 1e9
    }
}

/// Stable shard routing: FNV-1a over the session id's little-endian
/// bytes. Depends only on (id, n_shards) — never on submission order or
/// load — so a given deployment shape always places a session
/// identically.
pub fn shard_of(id: SessionId, n_shards: usize) -> usize {
    (wivi_num::hash::fnv1a(&id.to_le_bytes()) % n_shards as u64) as usize
}

/// Finished sessions, delivered live. Shards push a clone of each
/// [`SessionOutput`] here the moment the session finalizes — hundreds
/// of batch rounds before `finish()` would surface it — so a serving
/// front can stream results back to clients while the engine keeps
/// running. The clone deep-copies the payload, because `ModeOutput`
/// holds it inline. Cloning the queue handle shares the same underlying
/// queue, and its waker: the wire reactor registers its thread, and
/// every push unparks it.
#[derive(Clone, Default)]
pub struct CompletionQueue(Arc<Completions>);

#[derive(Default)]
struct Completions {
    queue: Mutex<VecDeque<SessionOutput>>,
    /// The thread each push unparks: the wire reactor, which parks
    /// while idle. Unset for an in-process engine.
    waker: OnceLock<Thread>,
}

impl CompletionQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the calling thread as the one every push unparks. The
    /// first registration sticks. A push that lands while the thread is
    /// running leaves the park token set, so its next park returns at
    /// once and no completion is slept through.
    pub(crate) fn register_waker(&self) {
        let _ = self.0.waker.set(std::thread::current());
    }

    pub(crate) fn push(&self, out: SessionOutput) {
        self.0
            .queue
            .lock()
            .expect("completion queue poisoned")
            .push_back(out);
        // The guard dropped with the statement above, so the woken
        // thread never finds the lock still held.
        if let Some(t) = self.0.waker.get() {
            t.unpark();
        }
    }

    /// Takes everything completed since the last drain, in completion
    /// order (per shard; cross-shard interleave is scheduling). Never
    /// blocks.
    pub fn drain(&self) -> Vec<SessionOutput> {
        self.0
            .queue
            .lock()
            .expect("completion queue poisoned")
            .drain(..)
            .collect()
    }

    /// Completed-but-undrained outputs right now.
    pub fn len(&self) -> usize {
        self.0
            .queue
            .lock()
            .expect("completion queue poisoned")
            .len()
    }

    /// `true` if nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The sharded multi-session serving engine.
pub struct ServeEngine {
    cfg: ServeConfig,
    channels: Vec<Arc<ShardChannel>>,
    workers: Vec<std::thread::JoinHandle<Vec<SessionOutput>>>,
    /// This engine's private metrics registry: shard workers record
    /// into it live, [`Self::finish`] snapshots it into the report.
    registry: Registry,
    metrics: Vec<ShardMetrics>,
    slo: SloMetrics,
    /// Every id this engine has accepted, for the O(log n) duplicate
    /// check on both open paths.
    opened_ids: BTreeSet<SessionId>,
    started: Instant,
}

impl ServeEngine {
    /// Starts the engine: spawns `cfg.n_shards` worker threads, each
    /// with its own bounded command queue.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn start(cfg: ServeConfig) -> Self {
        Self::start_inner(cfg, None)
    }

    /// [`Self::start`], plus a live [`CompletionQueue`] the shards push
    /// every finished session into — what the network front drains to
    /// stream outputs back without waiting for [`Self::finish`].
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn start_with_completions(cfg: ServeConfig) -> (Self, CompletionQueue) {
        let q = CompletionQueue::new();
        (Self::start_inner(cfg, Some(q.clone())), q)
    }

    fn start_inner(cfg: ServeConfig, completions: Option<CompletionQueue>) -> Self {
        cfg.validate();
        let registry = Registry::new();
        let channels: Vec<Arc<ShardChannel>> = (0..cfg.n_shards)
            .map(|_| Arc::new(ShardChannel::new(cfg.queue_capacity)))
            .collect();
        let slo = SloMetrics::register(&registry, cfg.slo_budget_ns);
        let session = SessionMetrics::register(&registry);
        let metrics: Vec<ShardMetrics> = (0..cfg.n_shards)
            .map(|i| {
                ShardMetrics::register(
                    &registry,
                    i,
                    cfg.workers_per_shard,
                    slo.clone(),
                    session.clone(),
                )
            })
            .collect();
        let workers = channels
            .iter()
            .enumerate()
            .map(|(i, chan)| {
                let chan = Arc::clone(chan);
                let batch_len = cfg.batch_len;
                let m = metrics[i].clone();
                let q = completions.clone();
                std::thread::Builder::new()
                    .name(format!("wivi-shard-{i}"))
                    .spawn(move || run_shard(i, chan, batch_len, m, q))
                    .expect("failed to spawn shard worker")
            })
            .collect();
        Self {
            cfg,
            channels,
            workers,
            registry,
            metrics,
            slo,
            opened_ids: BTreeSet::new(),
            started: Instant::now(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The engine's metrics registry. Shard telemetry
    /// (`serve.shard{i}.*`) accumulates here *while the engine runs* —
    /// snapshot or export it live for a `/metrics`-style endpoint, or
    /// wait for the aggregated [`ServeSnapshot`] in the final report.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The shard session `id` routes to.
    pub fn shard_of(&self, id: SessionId) -> usize {
        shard_of(id, self.cfg.n_shards)
    }

    /// Commands currently queued at `shard` (backpressure
    /// introspection).
    pub fn queue_len(&self, shard: usize) -> usize {
        self.channels[shard].queue_len()
    }

    /// `true` while shard `shard`'s worker thread is still running —
    /// the `/healthz` liveness probe. A shard exits only at shutdown or
    /// on a panic, so `false` before `finish()` means the shard died.
    pub fn shard_alive(&self, shard: usize) -> bool {
        !self.workers[shard].is_finished()
    }

    /// The engine's live SLO aggregate: windows under/over the hop
    /// budget, the worst window, and sessions that breached.
    pub fn slo_summary(&self) -> SloSummary {
        self.slo.summary()
    }

    /// Rolling `(windows, windows_over)` SLO counts over the trailing
    /// `window_ns` — the burn-rate-right-now readout behind
    /// `/healthz`.
    pub fn slo_rolling(&self, window_ns: u64) -> (u64, u64) {
        self.slo.rolling(window_ns)
    }

    /// All shards' rolling batch-latency views over the trailing
    /// `window_ns`, merged into one snapshot. Snapshot diff commutes
    /// with merge, so this equals the rolling view of one engine-wide
    /// histogram — partitioning across shards cannot change it.
    pub fn rolling_batch_latency(&self, window_ns: u64) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for m in &self.metrics {
            merged.merge(&m.rolling_batch(window_ns));
        }
        merged
    }

    /// Opens a session, blocking while its shard's queue is full — the
    /// engine's backpressure. The session streams to completion (or
    /// [`Self::close`]) on its shard.
    ///
    /// The id is registered only once the push succeeds (the same
    /// contract as [`Self::try_open`]): a failed push does not burn the
    /// id. Errors with [`ServeError::ShutDown`] — instead of panicking —
    /// if the engine shuts down while this call blocks, and
    /// [`ServeError::DuplicateId`] on an id reuse.
    pub fn open(&mut self, spec: SessionSpec) -> Result<(), ServeError> {
        self.check_unique(spec.id)?;
        let shard = self.shard_of(spec.id);
        let id = spec.id;
        self.channels[shard]
            .push_blocking(Command::Open(Box::new(spec)))
            .map_err(|_| ServeError::ShutDown)?;
        self.opened_ids.insert(id);
        Ok(())
    }

    /// Non-blocking [`Self::open`]: errors with
    /// [`ServeError::QueueFull`] — handing the spec back (boxed — it
    /// owns a whole scene) — if the target shard's queue is at
    /// capacity. The id is then *not* considered used, so the caller
    /// may retry; this queue-full boundary is where the admission
    /// layer's overload shedding engages.
    pub fn try_open(&mut self, spec: SessionSpec) -> Result<(), ServeError> {
        self.check_unique(spec.id)?;
        let shard = self.shard_of(spec.id);
        let id = spec.id;
        match self.channels[shard].try_push(Command::Open(Box::new(spec))) {
            Ok(()) => {
                self.opened_ids.insert(id);
                Ok(())
            }
            Err(TryPushError::Full(Command::Open(spec))) => Err(ServeError::QueueFull(spec)),
            Err(TryPushError::Full(Command::Close(_))) => unreachable!("pushed an Open"),
            Err(TryPushError::Shut) => Err(ServeError::ShutDown),
        }
    }

    fn check_unique(&self, id: SessionId) -> Result<(), ServeError> {
        if self.opened_ids.contains(&id) {
            return Err(ServeError::DuplicateId(id));
        }
        Ok(())
    }

    /// Requests an early close: the session drains at its next batch
    /// boundary, producing a prefix of its full output (no events lost
    /// or duplicated — the drain runs the normal finalize path).
    /// Unknown or already-finished ids are ignored by the shard. Errors
    /// with [`ServeError::ShutDown`] if the engine shut down first.
    pub fn close(&mut self, id: SessionId) -> Result<(), ServeError> {
        let shard = self.shard_of(id);
        self.channels[shard]
            .push_blocking(Command::Close(id))
            .map_err(|_| ServeError::ShutDown)
    }

    /// Declares the command stream complete, drains every shard, joins
    /// the workers, and assembles the report: outputs in session-id
    /// order and the timestamp-ordered merged event stream.
    ///
    /// # Panics
    /// Panics if a shard worker panicked.
    pub fn finish(self) -> ServeReport {
        for chan in &self.channels {
            chan.shutdown();
        }
        // Extend the first shard's vector with the others' outputs
        // rather than copy every shard's into a fresh one.
        let mut joined = self
            .workers
            .into_iter()
            .map(|w| w.join().expect("shard worker panicked"));
        let mut outputs: Vec<SessionOutput> = joined.next().unwrap_or_default();
        for shard_outputs in joined {
            outputs.extend(shard_outputs);
        }
        // `check_unique` refuses an id already opened, so ids are unique
        // and an unstable sort gives the stable sort's order without its
        // scratch buffer (up to the size of the whole output array, taken
        // while every output is resident). If ids may ever be reused,
        // this must become a stable sort again.
        outputs.sort_unstable_by_key(|o| o.id);
        let events = merge_session_events(&outputs);
        // Shards have exited, so the registry is quiescent: the
        // snapshot rows are final (and already in shard order).
        let shards: Vec<ShardSnapshot> = self.metrics.iter().map(|m| m.snapshot()).collect();
        let snapshot = ServeSnapshot {
            threads_used: shards.iter().map(|s| s.workers).sum(),
            cores_available: std::thread::available_parallelism().map_or(1, |n| n.get()),
            shards,
            slo: self.slo.summary(),
        };
        ServeReport {
            outputs,
            events,
            snapshot,
            wall_s: self.started.elapsed().as_secs_f64(),
        }
    }
}

/// Builds the unified stream: per session, stamp events with the serving
/// clock and their emission index, pre-sort by time (entry events are
/// back-dated, so emission order is not time order), then k-way merge
/// with ties broken by session id and emission order.
///
/// `pub(crate)`: the wire server replays this exact merge over each
/// connection's own outputs, so a connection's EVENT stream is the same
/// deterministic function of its session set as the in-process report's.
pub(crate) fn merge_session_events(outputs: &[SessionOutput]) -> Vec<ServeEvent> {
    let streams: Vec<TimedStream<ServeEvent>> = outputs
        .iter()
        .filter(|o| !o.result.events().is_empty())
        .map(|o| {
            let mut items: Vec<ServeEvent> = o
                .result
                .events()
                .iter()
                .enumerate()
                .map(|(seq, &event)| ServeEvent {
                    time_s: o.start_s + event.time_s,
                    session: o.id,
                    seq,
                    event,
                })
                .collect();
            // Stable: equal times keep emission order.
            items.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
            TimedStream { tag: o.id, items }
        })
        .collect();
    merge_streams(&streams, |e| e.time_s)
        .into_iter()
        .map(|(_, e)| e)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_spreads() {
        for id in 0..64u64 {
            assert_eq!(shard_of(id, 4), shard_of(id, 4));
        }
        // All shards get some of the first 64 ids.
        for shard in 0..4 {
            assert!(
                (0..64u64).any(|id| shard_of(id, 4) == shard),
                "shard {shard} never selected"
            );
        }
        // Single shard degenerates correctly.
        assert!((0..64u64).all(|id| shard_of(id, 1) == 0));
    }

    #[test]
    fn config_validation() {
        let cfg = ServeConfig::with_shards(2);
        cfg.validate();
        let bad = ServeConfig { n_shards: 0, ..cfg };
        assert!(std::panic::catch_unwind(|| bad.validate()).is_err());
    }

    fn tiny_spec(id: SessionId) -> SessionSpec {
        SessionSpec::new(
            id,
            wivi_rf::Scene::new(wivi_rf::Material::HollowWall6In),
            wivi_core::WiViConfig::fast_test(),
            1,
            0.0,
            crate::Mode::Count,
        )
    }

    /// Regression (PR 8): `open`/`close` racing a shutdown return a
    /// clean [`ServeError::ShutDown`] — the old assert panicked and
    /// poisoned the shard queue. The failed open must not burn the id.
    #[test]
    fn open_and_close_after_shutdown_error_cleanly() {
        let mut engine = ServeEngine::start(ServeConfig::with_shards(1));
        for ch in &engine.channels {
            ch.shutdown();
        }
        let err = engine.open(tiny_spec(7)).unwrap_err();
        assert!(matches!(err, ServeError::ShutDown), "got {err:?}");
        assert!(
            engine.opened_ids.is_empty(),
            "a failed open must not register the id"
        );
        assert!(matches!(engine.close(7), Err(ServeError::ShutDown)));
        // A second attempt with the same id still reports ShutDown, not
        // DuplicateId — the id was never consumed.
        assert!(matches!(
            engine.open(tiny_spec(7)),
            Err(ServeError::ShutDown)
        ));
        let report = engine.finish();
        assert!(report.outputs.is_empty());
    }

    /// Duplicate ids are a clean error on both open paths (a malicious
    /// or buggy wire client must not be able to panic the engine).
    #[test]
    fn duplicate_ids_error_on_both_open_paths() {
        let mut engine = ServeEngine::start(ServeConfig::with_shards(1));
        engine.open(tiny_spec(3)).unwrap();
        assert!(matches!(
            engine.open(tiny_spec(3)),
            Err(ServeError::DuplicateId(3))
        ));
        assert!(matches!(
            engine.try_open(tiny_spec(3)),
            Err(ServeError::DuplicateId(3))
        ));
        let report = engine.finish();
        assert_eq!(report.outputs.len(), 1);
    }

    #[test]
    fn report_output_binary_search_finds_every_id() {
        let mut engine = ServeEngine::start(ServeConfig::with_shards(2));
        let ids: Vec<SessionId> = (0..9).map(|i| 5 + 11 * i).collect();
        for &id in &ids {
            engine.open(tiny_spec(id)).unwrap();
        }
        let report = engine.finish();
        for &id in &ids {
            assert_eq!(report.output(id).expect("served").id, id);
        }
        assert!(report.output(4).is_none());
        assert!(report.output(9999).is_none());
    }

    #[test]
    fn completion_queue_sees_every_session_before_finish() {
        let (mut engine, completions) =
            ServeEngine::start_with_completions(ServeConfig::with_shards(2));
        for id in 0..4u64 {
            engine.open(tiny_spec(id)).unwrap();
        }
        // Zero-duration sessions finalize on their first round; poll the
        // live queue without finishing the engine.
        let mut live = Vec::new();
        let t0 = Instant::now();
        while live.len() < 4 && t0.elapsed().as_secs() < 30 {
            live.extend(completions.drain());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(live.len(), 4, "completions not delivered live");
        let report = engine.finish();
        assert_eq!(report.outputs.len(), 4);
        assert!(completions.is_empty(), "nothing new after the last drain");
        let mut ids: Vec<u64> = live.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    /// A push unparks the registered waker: a thread parked with a 30 s
    /// timeout sees the completion long before the timeout. Without the
    /// unpark it would sleep the full 30 s.
    #[test]
    fn completion_wakes_a_parked_waker() {
        let q = CompletionQueue::new();
        let (registered, ready) = std::sync::mpsc::channel();
        let waiter = {
            let q = q.clone();
            std::thread::spawn(move || {
                q.register_waker();
                registered.send(()).expect("test thread alive");
                let t0 = Instant::now();
                let deadline = t0 + std::time::Duration::from_secs(30);
                while q.is_empty() {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    std::thread::park_timeout(deadline - now);
                }
                (q.len(), t0.elapsed())
            })
        };
        ready.recv().expect("waiter registered");
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(SessionOutput {
            id: 1,
            shard: 0,
            mode: "count",
            start_s: 0.0,
            n_requested: 0,
            n_samples: 0,
            n_columns: 0,
            closed_early: false,
            nulling_db: 0.0,
            result: crate::ModeOutput::Count(None),
            calibrate_s: 0.0,
            stream_s: 0.0,
        });
        let (seen, waited) = waiter.join().expect("waiter panicked");
        assert_eq!(seen, 1, "the waiter must see the pushed output");
        assert!(
            waited < std::time::Duration::from_secs(5),
            "waiter slept {waited:?}: the push did not unpark it"
        );
    }
}
