//! Order-preserving parallel map over scoped OS threads.
//!
//! Its consumers are the figure and table binaries, which sweep a
//! scenario grid's independent trials, and the determinism tests,
//! which pin that sweep bitwise at 1, 2 and 8 threads. They map a
//! function over independent items on `std::thread`s and get the
//! results back **in input order**, so the output is independent of
//! the thread count and of scheduling. Workers pull item indices from
//! an atomic counter and write into per-slot cells; determinism lives
//! in the items, not the executor. The library crates do not use it: a
//! serving shard advances its sessions on its own thread, and an
//! imaging focus pass is one kernel call on its caller's thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` in parallel, preserving order.
///
/// Uses up to `available_parallelism` worker threads (never more than the
/// item count). Panics in workers propagate.
pub fn parallel_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    parallel_map_threads(items, f, None)
}

/// [`parallel_map`] with an explicit worker-thread cap (`None` ⇒
/// `available_parallelism`). `Some(1)` degenerates to a sequential map —
/// the determinism baseline the scenario engine's tests compare against.
pub fn parallel_map_threads<I, T, F>(items: &[I], f: F, threads: Option<usize>) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let n_threads = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
        .max(1)
        .min(items.len());

    if n_threads == 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for _ in 0..n_threads {
            s.spawn(|| loop {
                // ordering: Relaxed — the counter only hands out
                // distinct indices; each result is published through
                // its slot's Mutex, which does the synchronizing.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(&items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("result slot poisoned")
                .expect("missing trial result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_completeness() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(&Vec::<u32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let items: Vec<u64> = (0..64).collect();
        let sequential = parallel_map_threads(&items, |&x| x.wrapping_mul(0x9E37), Some(1));
        for threads in [2, 4, 16] {
            let parallel = parallel_map_threads(&items, |&x| x.wrapping_mul(0x9E37), Some(threads));
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }
}
