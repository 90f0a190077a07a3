//! A small parallel trial runner.
//!
//! Experiments repeat every measurement over independent trials.  The runner
//! derives one child seed per trial from the experiment's master seed (so
//! results are reproducible regardless of thread interleaving) and runs the
//! trials as tasks on the workspace's task pool,
//! [`pp_core::parallel::run_tasks`].

use pp_core::parallel::run_tasks;
use pp_core::SimSeed;

/// Runs `trials` independent trials of `f` (each receiving its trial index and
/// a derived seed) across up to `max_threads` worker threads, and returns the
/// results ordered by trial index.
///
/// The closure must be `Sync` because multiple worker threads call it
/// concurrently (on disjoint trial indices).
///
/// # Panics
///
/// Panics if `max_threads == 0` or a worker thread panics.
///
/// # Examples
///
/// ```
/// use usd_experiments::run_trials;
/// use pp_core::SimSeed;
///
/// let squares = run_trials(8, SimSeed::from_u64(1), 4, |trial, _seed| trial * trial);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn run_trials<T, F>(trials: u64, master_seed: SimSeed, max_threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, SimSeed) -> T + Sync,
{
    assert!(max_threads > 0, "need at least one worker thread");
    run_tasks(max_threads, (0..trials).collect(), |trial| {
        f(trial, master_seed.child(trial))
    })
}

/// The default number of worker threads: the available parallelism capped at
/// eight (experiments are memory-light; more threads rarely help).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(4, |p| p.get())
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn results_are_ordered_by_trial() {
        let out = run_trials(20, SimSeed::from_u64(3), 5, |trial, _| trial);
        assert_eq!(out, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_are_distinct_and_reproducible() {
        let seeds_a = run_trials(16, SimSeed::from_u64(9), 4, |_, seed| seed.value());
        let seeds_b = run_trials(16, SimSeed::from_u64(9), 2, |_, seed| seed.value());
        assert_eq!(
            seeds_a, seeds_b,
            "seeds must not depend on the thread count"
        );
        let unique: HashSet<u64> = seeds_a.iter().copied().collect();
        assert_eq!(unique.len(), seeds_a.len());
    }

    #[test]
    fn zero_trials_yield_empty_output() {
        let out: Vec<u64> = run_trials(0, SimSeed::from_u64(1), 4, |t, _| t);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_still_works() {
        let out = run_trials(5, SimSeed::from_u64(2), 1, |t, _| t * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
