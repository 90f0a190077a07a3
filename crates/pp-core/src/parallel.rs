//! The shared parallel execution layer: deterministic work partitioning
//! over scoped worker threads.
//!
//! Two engines in this workspace advance many independent pieces of
//! simulation state side by side — [`crate::shard::ShardedEngine`] spreads
//! shards over workers within one run, and
//! [`crate::ensemble::EnsembleEngine`] spreads replicas over
//! workers across runs, each replica advancing through its own engine.
//! This module is the single layer both build on:
//!
//! * [`Parallelism`] — the worker-thread knob every parallel engine
//!   exposes, resolving `auto` to the machine's available parallelism and
//!   capping at the task count.
//! * [`run_partitioned`] / [`map_chunks`] — scoped fork/join execution over
//!   a deterministic partition of a task slice.
//!
//! # Determinism contract
//!
//! Parallel execution in this workspace must never change *results*, only
//! wall-clock.  The layer guarantees it structurally:
//!
//! 1. **Deterministic partitioning.**  Tasks are split into contiguous
//!    chunks of `ceil(len / workers)` items, in index order.  Which worker
//!    advances which task is a pure function of `(len, workers)` — never of
//!    scheduling, load, or timing.
//! 2. **No shared mutable state.**  A worker gets exclusive `&mut` access
//!    to its chunk and (at most) shared `&` access to read-only data frozen
//!    for the duration of the call (the ensemble's stop condition and
//!    window limit, the shard engine's boundary snapshots).  Anything a worker needs to
//!    mutate — RNG streams, scratch buffers, per-task accumulators — lives
//!    *inside* its tasks.
//! 3. **Ordered reduction.**  [`map_chunks`] returns per-chunk outputs in
//!    chunk-index order, so any cross-worker reduction (event counts,
//!    statistics) folds in a scheduling-independent order.
//!
//! Under these rules every task's trajectory depends only on its own state
//! and RNG, so an engine built on this layer produces bit-identical results
//! for *every* thread count — pinned for the ensemble by the `threads=1` vs
//! `threads=T` cases in `tests/ensemble_equivalence.rs` and for the sharded
//! engine by `runs_are_deterministic_per_seed`.
//!
//! Threads are scoped (`std::thread::scope`), so borrowed data flows in
//! without `'static` bounds and a worker panic propagates to the caller.
//! Spawning costs tens of microseconds per call; callers amortize it by
//! batching enough work per call (the sharded engine runs sub-millisecond
//! epochs inline, the ensemble advances whole scheduling windows of rounds
//! per call).

use crate::telemetry::Telemetry;
use serde::{Deserialize, Serialize};

/// The worker-thread knob shared by every parallel engine
/// ([`crate::ensemble::EnsembleChoice`], [`crate::shard::ShardPlan`]).
///
/// `Parallelism` separates what the user *requested* (a fixed count, or
/// "whatever the machine has") from what a given workload *resolves to*
/// (never more workers than tasks, never zero).  Thread count never affects
/// results — see the [module docs](self) for the determinism contract — so
/// the default is [`Parallelism::auto`].
///
/// # Examples
///
/// ```
/// use pp_core::parallel::Parallelism;
///
/// assert_eq!(Parallelism::single().resolve(8), 1);
/// assert_eq!(Parallelism::fixed(4).resolve(8), 4);
/// // Never more workers than tasks.
/// assert_eq!(Parallelism::fixed(4).resolve(2), 2);
/// assert!(Parallelism::auto().resolve(64) >= 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Parallelism {
    threads: Option<usize>,
}

impl Parallelism {
    /// Use the machine's available parallelism (the default).
    #[must_use]
    pub const fn auto() -> Self {
        Parallelism { threads: None }
    }

    /// Run single-threaded (workers execute inline on the calling thread).
    #[must_use]
    pub const fn single() -> Self {
        Parallelism { threads: Some(1) }
    }

    /// Cap the worker count at `threads`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn fixed(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        Parallelism {
            threads: Some(threads),
        }
    }

    /// The requested thread count, if one was fixed (`None` = auto).
    #[must_use]
    pub fn requested(&self) -> Option<usize> {
        self.threads
    }

    /// The worker count this knob resolves to for `tasks` parallel tasks on
    /// this machine: the requested count (or the available parallelism),
    /// capped at the task count and floored at one.
    #[must_use]
    pub fn resolve(&self, tasks: usize) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
            .min(tasks)
            .max(1)
    }
}

/// The deterministic chunk size of the partition: `items` tasks over at
/// most `workers` chunks, contiguous in index order.
#[must_use]
pub fn chunk_size(items: usize, workers: usize) -> usize {
    items.div_ceil(workers.max(1)).max(1)
}

/// Runs `f` over every chunk of the deterministic partition of `items` into
/// at most `workers` contiguous chunks, in parallel, and returns the
/// per-chunk outputs in chunk-index order.  `f` receives the chunk index
/// and the mutable chunk.  With one worker (or one chunk) everything runs
/// inline on the calling thread — same partition, no spawn cost.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn map_chunks<T, R, F>(workers: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let chunk = chunk_size(items.len(), workers);
    if workers <= 1 || items.len() <= chunk {
        return items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, chunk)| f(c, chunk))
            .collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, chunk)| scope.spawn(move || f(c, chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// [`map_chunks`] with telemetry: the whole fork/join is bracketed in a
/// `{label}.forkjoin` span on the coordinator track and each worker's busy
/// time in a `{label}` span on track `1 + chunk_index`, so the chrome trace
/// shows one lane per worker.  With a disabled handle this is exactly
/// [`map_chunks`] — no clock reads, no allocation.
///
/// Timing never feeds back into the partition or the reduction order, so
/// the determinism contract is untouched.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn map_chunks_traced<T, R, F>(
    workers: usize,
    tel: &Telemetry,
    label: &str,
    items: &mut [T],
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    if !tel.is_enabled() {
        return map_chunks(workers, items, f);
    }
    let _forkjoin = tel.span(&format!("{label}.forkjoin"));
    map_chunks(workers, items, |c, chunk| {
        let _busy = tel.span_on(label, u32::try_from(c + 1).unwrap_or(u32::MAX));
        f(c, chunk)
    })
}

/// Runs `f` once per task, spread over at most `workers` threads with the
/// deterministic contiguous partition.  `f` receives each task's global
/// index.  The per-item counterpart of [`map_chunks`] for callers without
/// per-chunk outputs (the sharded engine's intra-shard and reconcile
/// passes).
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn run_partitioned<T, F>(workers: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    run_partitioned_traced(workers, &Telemetry::disabled(), "", items, f);
}

/// [`run_partitioned`] with telemetry (see [`map_chunks_traced`] for the
/// span layout).
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn run_partitioned_traced<T, F>(
    workers: usize,
    tel: &Telemetry,
    label: &str,
    items: &mut [T],
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let chunk = chunk_size(items.len(), workers);
    map_chunks_traced(workers, tel, label, items, |c, tasks| {
        for (offset, task) in tasks.iter_mut().enumerate() {
            f(c * chunk + offset, task);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallelism_resolves_with_caps() {
        assert_eq!(Parallelism::single().resolve(100), 1);
        assert_eq!(Parallelism::fixed(8).resolve(3), 3);
        assert_eq!(Parallelism::fixed(2).resolve(100), 2);
        assert_eq!(Parallelism::fixed(5).resolve(0), 1);
        assert!(Parallelism::auto().resolve(1_000) >= 1);
        assert_eq!(Parallelism::default(), Parallelism::auto());
        assert_eq!(Parallelism::fixed(3).requested(), Some(3));
        assert_eq!(Parallelism::auto().requested(), None);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_fixed_threads_are_rejected() {
        let _ = Parallelism::fixed(0);
    }

    #[test]
    fn partition_is_contiguous_and_deterministic() {
        assert_eq!(chunk_size(10, 3), 4);
        assert_eq!(chunk_size(10, 1), 10);
        assert_eq!(chunk_size(0, 4), 1);
        assert_eq!(chunk_size(3, 16), 1);
        // Every item is visited exactly once, with its global index.
        for workers in 1..=6 {
            let mut items: Vec<usize> = vec![usize::MAX; 11];
            run_partitioned(workers, &mut items, |i, slot| *slot = i);
            assert_eq!(items, (0..11).collect::<Vec<_>>(), "workers = {workers}");
        }
    }

    #[test]
    fn map_chunks_returns_outputs_in_chunk_order() {
        let mut items: Vec<u64> = (0..10).collect();
        for workers in [1, 3, 10] {
            let sums = map_chunks(workers, &mut items, |c, chunk| {
                (c, chunk.iter().sum::<u64>())
            });
            // Chunk indices are ascending and the totals cover every item.
            assert!(sums.windows(2).all(|w| w[0].0 < w[1].0));
            assert_eq!(sums.iter().map(|(_, s)| s).sum::<u64>(), 45);
        }
        assert!(map_chunks(4, &mut Vec::<u64>::new(), |_, _| 0).is_empty());
    }

    #[test]
    fn workers_actually_run_every_task_in_parallel_mode() {
        let counter = AtomicUsize::new(0);
        let mut items = vec![(); 64];
        run_partitioned(4, &mut items, |_, ()| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn traced_fork_join_records_per_worker_spans() {
        let tel = Telemetry::enabled();
        let mut items: Vec<u64> = (0..8).collect();
        let sums = map_chunks_traced(4, &tel, "work", &mut items, |_, c| c.iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), 28);
        let spans = tel.spans();
        assert!(spans
            .iter()
            .any(|s| s.name == "work.forkjoin" && s.tid == 0));
        let worker_tids: std::collections::BTreeSet<u32> = spans
            .iter()
            .filter(|s| s.name == "work")
            .map(|s| s.tid)
            .collect();
        assert_eq!(worker_tids, (1..=4).collect());
        crate::telemetry::check_span_nesting(&spans).unwrap();
        // Disabled telemetry records nothing and produces the same outputs.
        let silent = map_chunks_traced(4, &Telemetry::disabled(), "work", &mut items, |_, c| {
            c.iter().sum::<u64>()
        });
        assert_eq!(silent, sums);
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn worker_panics_propagate() {
        let mut items = vec![0u8; 8];
        run_partitioned(4, &mut items, |i, _| assert!(i != 5, "boom"));
    }
}
