//! The workspace's one task pool: independent tasks over scoped worker
//! threads.
//!
//! Everything in this workspace that runs work side by side goes through
//! [`run_tasks`]: the [`crate::ensemble::EnsembleEngine`] runs each replica
//! as a task, [`crate::shard::ShardedEngine`] each shard's epoch pass, and
//! the experiment harness each trial.  This module provides:
//!
//! * [`Parallelism`] — the worker-thread knob every parallel engine
//!   exposes, resolving `auto` to the machine's available parallelism and
//!   capping every request at it and at the task count.
//! * [`run_tasks`] / [`run_tasks_traced`] — one fork/join over a list of
//!   tasks: each worker takes the next task as soon as it is free, and the
//!   outputs come back in task order.
//!
//! # Determinism contract
//!
//! Parallel execution in this workspace must never change *results*, only
//! wall-clock.  The pool guarantees it structurally:
//!
//! 1. **A task's result never depends on which worker runs it.**  Tasks go
//!    to workers in whatever order the workers free up, so the assignment
//!    depends on timing; nothing a task computes may.  Outputs are returned
//!    in task order, so any cross-task reduction (event counts,
//!    statistics) folds in a scheduling-independent order.
//! 2. **No shared mutable state.**  A task owns its inputs (typically
//!    `&mut` borrows of one replica, shard or result slot) and gets at most
//!    shared `&` access to read-only data frozen for the duration of the
//!    call (the ensemble's stop condition, the shard engine's boundary
//!    snapshots).  Anything a task needs to mutate — RNG streams, scratch
//!    buffers, accumulators — lives *inside* it.
//!
//! Under these rules every task's trajectory depends only on its own state
//! and RNG, so an engine built on the pool produces bit-identical results
//! for *every* thread count — pinned for the ensemble by the `threads=1` vs
//! `threads=T` cases in `tests/ensemble_equivalence.rs` and for the sharded
//! engine by `runs_are_deterministic_per_seed`.
//!
//! Threads are scoped (`std::thread::scope`), so borrowed data flows in
//! without `'static` bounds and a worker panic propagates to the caller.
//! Spawning costs tens of microseconds per call, so callers hand the pool
//! whole runs rather than slices of them: the ensemble forks once per
//! [`crate::ensemble::EnsembleEngine::run_windows`] call, and the sharded
//! engine runs sub-millisecond epochs inline.

use crate::telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::sync::{Mutex, OnceLock};

/// The worker-thread knob shared by every parallel engine
/// ([`crate::ensemble::EnsembleChoice`], [`crate::shard::ShardPlan`]).
///
/// `Parallelism` separates what the user *requested* (a fixed count, or
/// "whatever the machine has") from what a given workload *resolves to*
/// (never more workers than the machine's available parallelism or than
/// tasks, never zero).  Thread count never affects results — see the
/// [module docs](self) for the determinism contract — so the default is
/// [`Parallelism::auto`], and capping a request costs nothing but the
/// threads the machine could not run at once.
///
/// # Examples
///
/// ```
/// use pp_core::parallel::Parallelism;
///
/// let cores = Parallelism::auto().resolve(usize::MAX);
/// assert!(cores >= 1);
/// assert_eq!(Parallelism::single().resolve(8), 1);
/// // Never more workers than tasks…
/// assert_eq!(Parallelism::fixed(4).resolve(2), 2.min(cores));
/// // …nor than the machine runs at once.
/// assert_eq!(Parallelism::fixed(10_000).resolve(20_000), cores);
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
    /// this machine: the requested count (all of it for `auto`), capped at
    /// the machine's available parallelism and at the task count, and
    /// floored at one.
    #[must_use]
    pub fn resolve(&self, tasks: usize) -> usize {
        self.threads
            .unwrap_or(usize::MAX)
            .min(available_parallelism())
            .min(tasks)
            .max(1)
    }
}

/// The machine's available parallelism, read once per process (the query
/// costs microseconds, and [`Parallelism::resolve`] runs on every
/// ensemble call).
fn available_parallelism() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Runs `f` on every task over at most `workers` threads and returns the
/// outputs in task order.  Each worker takes the next task as soon as it
/// is free, so tasks of uneven length keep every worker busy; tasks are
/// handed out in stride order (`0, s, 2s, …, 1, 1 + s, …` for
/// `s = ⌈len/workers⌉`), so the tasks running side by side are far apart
/// in the list.  With one worker (or one task) everything runs inline on
/// the calling thread, in task order.
///
/// # Panics
///
/// Propagates a panic from any task.
pub fn run_tasks<T, R, F>(workers: usize, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    run_tasks_traced(workers, &Telemetry::disabled(), "", tasks, f)
}

/// [`run_tasks`] with telemetry: the whole fork/join is bracketed in a
/// `{label}.forkjoin` span on the coordinator track and each worker's busy
/// time in a `{label}` span on track `1 + worker_index`, so the chrome
/// trace shows one lane per worker.  With a disabled handle this is
/// exactly [`run_tasks`] — no clock reads, no allocation.
///
/// # Panics
///
/// Propagates a panic from any task.
pub fn run_tasks_traced<T, R, F>(
    workers: usize,
    tel: &Telemetry,
    label: &str,
    tasks: Vec<T>,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.min(tasks.len());
    let _forkjoin = tel
        .is_enabled()
        .then(|| tel.span(&format!("{label}.forkjoin")));
    if workers <= 1 {
        let _busy = tel.span_on(label, 1);
        return tasks.into_iter().map(f).collect();
    }
    // Tasks next to each other in the list usually own state next to each
    // other in memory, and two workers advancing neighbours side by side
    // contend for shared cache lines: eight USD replicas at n = 10⁶ ran no
    // faster on two threads than on one.  Handing tasks out in stride
    // order runs task `i` beside task `i + ⌈len/workers⌉` instead.
    let stride = tasks.len().div_ceil(workers);
    let mut order: Vec<_> = tasks.into_iter().enumerate().collect();
    order.sort_by_key(|&(i, _)| (i % stride, i / stride));
    let queue = Mutex::new(order.into_iter());
    let mut outputs: Vec<(usize, R)> = std::thread::scope(|scope| {
        let (queue, f) = (&queue, &f);
        let handles: Vec<_> = (1..=workers)
            .map(|track| {
                scope.spawn(move || {
                    let _busy = tel.span_on(label, u32::try_from(track).unwrap_or(u32::MAX));
                    let mut done = Vec::new();
                    loop {
                        let next = queue.lock().expect("task queue poisoned").next();
                        let Some((i, task)) = next else {
                            return done;
                        };
                        done.push((i, f(task)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    outputs.sort_unstable_by_key(|&(i, _)| i);
    outputs.into_iter().map(|(_, output)| output).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallelism_resolves_with_caps() {
        let cores = available_parallelism();
        assert_eq!(Parallelism::single().resolve(100), 1);
        assert_eq!(Parallelism::fixed(8).resolve(3), 3.min(cores));
        assert_eq!(Parallelism::fixed(2).resolve(100), 2.min(cores));
        assert_eq!(Parallelism::fixed(5).resolve(0), 1);
        assert!(Parallelism::auto().resolve(1_000) >= 1);
        assert_eq!(Parallelism::default(), Parallelism::auto());
        assert_eq!(Parallelism::fixed(3).requested(), Some(3));
        assert_eq!(Parallelism::auto().requested(), None);
    }

    #[test]
    fn requests_are_capped_at_the_available_parallelism() {
        // A served scenario may ask for any thread count; it never gets
        // more workers than the machine runs at once.
        let cores = available_parallelism();
        assert_eq!(
            cores,
            std::thread::available_parallelism().map_or(1, |p| p.get())
        );
        assert_eq!(Parallelism::fixed(10_000).resolve(20_000), cores);
        assert_eq!(Parallelism::fixed(usize::MAX).resolve(usize::MAX), cores);
        assert_eq!(Parallelism::auto().resolve(usize::MAX), cores);
        assert_eq!(Parallelism::fixed(10_000).resolve(1), 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_fixed_threads_are_rejected() {
        let _ = Parallelism::fixed(0);
    }

    #[test]
    fn run_tasks_returns_outputs_in_task_order() {
        // Tasks of uneven length finish out of order; outputs never do.
        for workers in 1..=6 {
            let outputs = run_tasks(workers, (0..11u64).collect(), |i| {
                std::thread::sleep(std::time::Duration::from_micros((11 - i) * 50));
                i * i
            });
            let expected: Vec<u64> = (0..11).map(|i| i * i).collect();
            assert_eq!(outputs, expected, "workers = {workers}");
        }
        assert!(run_tasks(4, Vec::<u64>::new(), |i| i).is_empty());
    }

    #[test]
    fn workers_actually_run_every_task_in_parallel_mode() {
        let counter = AtomicUsize::new(0);
        let mut items = [0u8; 64];
        run_tasks(4, items.iter_mut().collect(), |item| {
            *item += 1;
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert!(items.iter().all(|&item| item == 1));
    }

    #[test]
    fn traced_fork_join_records_per_worker_spans() {
        let tel = Telemetry::enabled();
        let sums = run_tasks_traced(4, &tel, "work", (0..8u64).collect(), |i| i * 2);
        assert_eq!(sums.iter().sum::<u64>(), 56);
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
        let silent = run_tasks_traced(
            4,
            &Telemetry::disabled(),
            "work",
            (0..8u64).collect(),
            |i| i * 2,
        );
        assert_eq!(silent, sums);
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn worker_panics_propagate() {
        run_tasks(4, (0..8).collect(), |i: usize| assert!(i != 5, "boom"));
    }
}
