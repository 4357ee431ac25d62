//! The keyed engine registry serving shards hold their per-window
//! scratch in.
//!
//! A serving shard multiplexes many sessions, and all sessions with the
//! same configuration share one resident engine — one steering table,
//! one correlation matrix, one eigendecomposition workspace (the PR-1
//! zero-allocation design extended from per-device to per-shard). The
//! original cache hard-coded one accessor per engine type, which made
//! the serving layer a closed shop: a new sensing mode with its own
//! engine meant editing the cache. [`EngineCache`] is the open
//! replacement — a registry keyed by *engine type* and *configuration
//! value*, so any crate can teach shards to host its engine by
//! implementing [`ShardEngine`] and calling
//! [`EngineCache::engine::<E>(&cfg)`](EngineCache::engine).
//!
//! Engines must hold no cross-window state (the serving determinism
//! contract): an engine borrowed per batch by interleaved sessions must
//! produce, for each session, exactly what a privately owned engine
//! would. Every engine registered here honours that.

use std::any::{Any, TypeId};

use crate::isar::{BeamformEngine, IsarConfig};
use crate::music::{MusicConfig, MusicEngine};

/// A heavy per-window engine that serving shards may host and share
/// across same-configuration sessions.
///
/// Implementors promise the engine is a pure function of
/// (configuration, window contents, per-call runtime parameters): no
/// state survives from one window to the next, so borrowing one engine
/// from many interleaved sessions is bitwise-invisible.
pub trait ShardEngine: Send + 'static {
    /// The configuration that fully determines the engine. Engines are
    /// cached per distinct configuration *value*.
    type Config: PartialEq + Clone + Send + 'static;

    /// Builds the engine for `cfg` (the expensive step the cache
    /// amortizes across sessions).
    fn build(cfg: &Self::Config) -> Self;
}

impl ShardEngine for MusicEngine {
    type Config = MusicConfig;

    fn build(cfg: &MusicConfig) -> Self {
        MusicEngine::new(*cfg)
    }
}

impl ShardEngine for BeamformEngine {
    type Config = IsarConfig;

    fn build(cfg: &IsarConfig) -> Self {
        BeamformEngine::new(*cfg)
    }
}

/// One cache slot: every engine of a single concrete type, keyed by
/// configuration. Object-safe so the cache can hold slots for engine
/// types it has never heard of.
trait EngineSlot: Send {
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Engines resident in this slot.
    fn count(&self) -> usize;
}

/// The typed storage behind a slot: a linear scan over configuration
/// keys (shards see a handful of distinct configurations at most).
struct SlotVec<E: ShardEngine>(Vec<(E::Config, E)>);

impl<E: ShardEngine> EngineSlot for SlotVec<E> {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn count(&self) -> usize {
        self.0.len()
    }
}

/// Configuration-keyed engine pool, one per serving shard (and one
/// private pool per [`WiViDevice::run_session`](crate::WiViDevice::run_session)
/// call): any number of engine types, any number of configurations per
/// type, each engine built on first use and shared by every session that
/// asks for the same `(type, configuration)` pair thereafter.
#[derive(Default)]
pub struct EngineCache {
    slots: Vec<(TypeId, Box<dyn EngineSlot>)>,
}

impl EngineCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The resident engine of type `E` for `cfg`, building it on first
    /// use. Same-configuration callers share one engine — N
    /// same-config sessions on a shard mean one steering table, not N.
    pub fn engine<E: ShardEngine>(&mut self, cfg: &E::Config) -> &mut E {
        let tid = TypeId::of::<E>();
        let slot = match self.slots.iter().position(|(t, _)| *t == tid) {
            Some(i) => i,
            None => {
                self.slots.push((tid, Box::new(SlotVec::<E>(Vec::new()))));
                self.slots.len() - 1
            }
        };
        let vec = &mut self.slots[slot]
            .1
            .as_any_mut()
            .downcast_mut::<SlotVec<E>>()
            .expect("slot type pinned by TypeId")
            .0;
        match vec.iter().position(|(c, _)| c == cfg) {
            Some(i) => {
                hooks::cache_hit();
                &mut vec[i].1
            }
            None => {
                hooks::cache_miss();
                vec.push((cfg.clone(), E::build(cfg)));
                &mut vec.last_mut().unwrap().1
            }
        }
    }

    /// Number of distinct engines currently resident, across all engine
    /// types — the shard's sharing-degree telemetry (N same-config
    /// sessions still mean one engine).
    pub fn len(&self) -> usize {
        self.slots.iter().map(|(_, s)| s.count()).sum()
    }

    /// `true` if no engine has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Hit/miss counters on the global obs registry, `WIVI_OBS`-gated.
/// Handles are built once (registration takes a lock) and the gated
/// fast path is a static load + branch when observability is off.
mod hooks {
    use std::sync::OnceLock;
    use wivi_obs::Counter;

    fn counter(which: &str) -> wivi_obs::Counter {
        wivi_obs::global().counter(&format!("core.engine_cache.{which}"))
    }

    #[inline]
    pub(super) fn cache_hit() {
        if !wivi_obs::enabled() {
            return;
        }
        static HITS: OnceLock<Counter> = OnceLock::new();
        HITS.get_or_init(|| counter("hits")).inc();
    }

    #[inline]
    pub(super) fn cache_miss() {
        if !wivi_obs::enabled() {
            return;
        }
        static MISSES: OnceLock<Counter> = OnceLock::new();
        MISSES.get_or_init(|| counter("misses")).inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy engine: proves the registry is open to engine types this
    /// crate has never heard of.
    struct Counter {
        built_for: u32,
    }

    impl ShardEngine for Counter {
        type Config = u32;

        fn build(cfg: &u32) -> Self {
            Counter { built_for: *cfg }
        }
    }

    #[test]
    fn same_config_shares_one_engine() {
        let mut cache = EngineCache::new();
        assert!(cache.is_empty());
        let cfg = MusicConfig::fast_test();
        let a = cache.engine::<MusicEngine>(&cfg) as *mut MusicEngine;
        let b = cache.engine::<MusicEngine>(&cfg) as *mut MusicEngine;
        assert_eq!(a, b, "same configuration must yield the same engine");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_configs_and_types_get_distinct_engines() {
        let mut cache = EngineCache::new();
        let cfg = MusicConfig::fast_test();
        cache.engine::<MusicEngine>(&cfg);
        cache.engine::<BeamformEngine>(&cfg.isar);
        cache.engine::<Counter>(&7);
        assert_eq!(cache.engine::<Counter>(&7).built_for, 7);
        assert_eq!(cache.engine::<Counter>(&9).built_for, 9);
        assert_eq!(cache.len(), 4);
    }
}
