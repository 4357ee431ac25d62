//! Where engines take their immutable tables from: the process-wide
//! table store.
//!
//! An engine is two things with different lifetimes. Its *tables* —
//! angle grids, steering vectors, per-cell cross terms — are pure
//! functions of the configuration and never change after they are
//! built. Its *scratch* — the correlation matrix, the eigendecomposition
//! workspace, projection accumulators, the focused image, the centred
//! window — is overwritten by every window. Scratch belongs to the one
//! stage or session that owns the engine; tables come from a
//! [`TableStore`], one `static` per table type, so a process builds each
//! configuration's tables once no matter how many engines it opens:
//! every standalone stage, every
//! [`WiViDevice::run_session`](crate::WiViDevice::run_session) call, and
//! every session on every serving shard shares one `Arc` of them.
//!
//! A shared table is read-only and an engine carries no state from one
//! window to the next, so sharing tables is bitwise-invisible.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use wivi_obs::Counter;

/// Entries each [`TableStore`] keeps: the number of distinct
/// configurations whose tables stay built after their last engine is
/// dropped. At the paper's configuration an imaging table is
/// 2 247 168 bytes (one 448-cell × 625-sample steering table, TX 1's,
/// in single precision, plus the cross terms; TX 2's is its mirror
/// image), so the imaging store retains at most 8 988 672 bytes
/// (8.6 MiB); a MUSIC table is 146 248 bytes and a beamforming table
/// 291 048 bytes.
pub const TABLE_STORE_CAPACITY: usize = 4;

/// A process-wide, configuration-keyed store of immutable engine
/// tables, meant to live in a `static` — one per table type.
///
/// [`Self::get_or_build`] returns the table for a key as an `Arc`,
/// building it on first use. The build runs under the store's lock, so
/// threads racing for one configuration (shards opening the same mode
/// at once) build it once and all receive the same `Arc`. The
/// store keeps at most [`TABLE_STORE_CAPACITY`] entries and evicts the
/// least recently used one; an engine still holding an evicted table
/// keeps it alive, and the next request for that key builds a fresh
/// copy (same bits: tables are pure functions of their key). So a table
/// outlives its last engine, up to the store's capacity.
///
/// Lookups are a linear scan over a handful of keys, and happen when an
/// engine is built — never per window. Hits and misses count on the
/// global obs registry as `core.table_store.<name>.{hits,misses}`.
pub struct TableStore<K, T> {
    name: &'static str,
    /// Least recently used first.
    entries: Mutex<Vec<(K, Arc<T>)>>,
    hits: OnceLock<Counter>,
    misses: OnceLock<Counter>,
}

impl<K: PartialEq + Clone, T> TableStore<K, T> {
    /// An empty store whose metrics are named after `name`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            entries: Mutex::new(Vec::new()),
            hits: OnceLock::new(),
            misses: OnceLock::new(),
        }
    }

    /// The table for `key`, built by `build` if the store does not hold
    /// one. Callers validate the configuration before calling, so a
    /// `build` panic is a bug; it still leaves the store usable, because
    /// an entry is pushed only once its build has returned.
    pub fn get_or_build(&self, key: &K, build: impl FnOnce(&K) -> T) -> Arc<T> {
        // A poisoned lock only means a build panicked: every update of
        // `entries` below completes before anything else can panic, so
        // the list is valid whatever the poison says.
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(i) = entries.iter().position(|(k, _)| k == key) {
            // Move the hit to the most-recently-used end.
            let entry = entries.remove(i);
            let table = Arc::clone(&entry.1);
            entries.push(entry);
            count(&self.hits, || self.metric("hits"));
            return table;
        }
        count(&self.misses, || self.metric("misses"));
        let table = Arc::new(build(key));
        if entries.len() == TABLE_STORE_CAPACITY {
            entries.remove(0);
        }
        entries.push((key.clone(), Arc::clone(&table)));
        table
    }

    /// Tables currently held.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    fn metric(&self, which: &str) -> String {
        format!("core.table_store.{}.{which}", self.name)
    }
}

/// Bumps the global-registry counter behind `cell`, `WIVI_OBS`-gated:
/// with observability off this is a static load and a branch, and the
/// handle is registered (which takes a lock) only once.
fn count(cell: &OnceLock<Counter>, name: impl FnOnce() -> String) {
    if wivi_obs::enabled() {
        cell.get_or_init(|| wivi_obs::global().counter(&name()))
            .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A local store per test (never the engines' statics), so tests
    /// running in parallel cannot evict each other's entries.
    fn local_store() -> TableStore<usize, Vec<usize>> {
        TableStore::new("test")
    }

    #[test]
    fn equal_keys_share_one_table_and_distinct_keys_do_not() {
        let store = local_store();
        let a = store.get_or_build(&1, |k| vec![*k; 3]);
        let b = store.get_or_build(&1, |_| unreachable!("second request must hit"));
        let c = store.get_or_build(&2, |k| vec![*k; 3]);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(*c, vec![2; 3]);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn least_recently_used_entry_is_evicted_and_held_tables_stay_valid() {
        let store = local_store();
        let builds = std::cell::Cell::new(0);
        let get = |k: usize| {
            store.get_or_build(&k, |k| {
                builds.set(builds.get() + 1);
                vec![*k; 4]
            })
        };
        let held: Vec<Arc<Vec<usize>>> = (0..TABLE_STORE_CAPACITY).map(&get).collect();
        get(0); // 1 is now the least recently used
        get(TABLE_STORE_CAPACITY); // capacity + 1 keys: evicts 1
        assert_eq!(store.len(), TABLE_STORE_CAPACITY);
        assert_eq!(builds.get(), TABLE_STORE_CAPACITY + 1);
        assert!(Arc::ptr_eq(&held[0], &get(0)), "0 was used recently");
        assert_eq!(builds.get(), TABLE_STORE_CAPACITY + 1);
        // The caller's Arc keeps the evicted table alive and intact…
        assert_eq!(*held[1], vec![1; 4]);
        // …and the store rebuilds the key afresh.
        let one_again = get(1);
        assert_eq!(builds.get(), TABLE_STORE_CAPACITY + 2);
        assert!(!Arc::ptr_eq(&held[1], &one_again));
        assert_eq!(*one_again, *held[1]);
    }

    #[test]
    fn racing_threads_build_one_configuration_once() {
        const THREADS: usize = 8;
        let store = local_store();
        let builds = std::sync::atomic::AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(THREADS);
        let tables: Vec<Arc<Vec<usize>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        store.get_or_build(&7, |k| {
                            builds.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            vec![*k; 16]
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        assert_eq!(builds.into_inner(), 1);
        assert!(tables.iter().all(|t| Arc::ptr_eq(t, &tables[0])));
    }

    #[test]
    fn a_panicking_build_leaves_the_store_usable() {
        let store = local_store();
        let kept = store.get_or_build(&1, |k| vec![*k]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.get_or_build(&2, |_| panic!("build failed"))
        }));
        assert!(r.is_err());
        assert_eq!(store.len(), 1, "a failed build adds no entry");
        assert!(Arc::ptr_eq(&kept, &store.get_or_build(&1, |_| vec![])));
        assert_eq!(*store.get_or_build(&2, |k| vec![*k]), vec![2]);
        assert_eq!(store.len(), 2);
    }
}
