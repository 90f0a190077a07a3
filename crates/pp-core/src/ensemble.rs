//! Multi-replica simulation with parallel replica advancement.
//!
//! Every Monte Carlo experiment in this workspace (hitting times, phase
//! durations, bias sweeps) averages over independent replicas of the same
//! protocol and initial configuration.  [`EnsembleEngine`] runs `R` such
//! replicas as one job: each replica is one task on the workspace's task
//! pool ([`crate::parallel::run_tasks`]) and runs its own
//! [`StepEngine::leg`]s — the standalone skip-ahead path, with its own
//! maintained row table or activation law — until it meets the stop
//! condition.  Replicas share nothing, so they need no barrier: a run
//! forks once, and every worker takes the next replica as soon as it is
//! free.
//!
//! Pausing is counted in *windows* of 256 events per replica (see
//! [`EnsembleEngine::run_windows`]): a `w`-window call leaves each replica
//! after at most `256·w` events, and returns a result only once every
//! replica has met its stop with a window to spare.  The pause points are
//! thus a function of the replicas' trajectories alone, never of timing or
//! thread count, and checkpoints written at them by any build resume to
//! the same results.  A paused run forks once per call.
//!
//! # Exactness
//!
//! The ensemble is *bit-exact*, not merely exact in distribution — at every
//! thread count: replica `i` produces the same trajectory, interaction
//! counter and [`RunResult`] (its maintenance and telemetry counters
//! included) as a standalone engine constructed with the same seed
//! (conventionally `master.child(i)`, see [`EnsembleChoice::seeds`]).  The
//! argument has two parts:
//!
//! * each replica *is* a standalone engine: it owns its RNG stream and
//!   advances only through its own `leg`s, so running replicas side by
//!   side never reorders draws *within* one stream, and
//! * replica tasks share no mutable state and their results are collected
//!   in replica order (see the [`crate::parallel`] determinism contract),
//!   so thread count and scheduling affect only which core advances a
//!   replica, never what it computes.
//!
//! `tests/ensemble_equivalence.rs` pins this claim for the USD and for all
//! five sampling dynamics, including `threads = 1` vs `threads = T`
//! bit-equality.
//!
//! # Example
//!
//! ```
//! use pp_core::ensemble::{EnsembleChoice, EnsembleEngine};
//! use pp_core::prelude::*;
//!
//! struct TinyUsd;
//! impl OpinionProtocol for TinyUsd {
//!     fn num_opinions(&self) -> usize { 2 }
//!     fn respond(&self, r: AgentState, i: AgentState) -> AgentState {
//!         match (r, i) {
//!             (AgentState::Decided(a), AgentState::Decided(b)) if a != b => AgentState::Undecided,
//!             (AgentState::Undecided, AgentState::Decided(b)) => AgentState::Decided(b),
//!             _ => r,
//!         }
//!     }
//! }
//!
//! let config = Configuration::from_counts(vec![900, 100], 0).unwrap();
//! let choice = EnsembleChoice::new(8);
//! let replicas: Vec<_> = choice
//!     .seeds(SimSeed::from_u64(7))
//!     .into_iter()
//!     .map(|seed| BatchedEngine::new(TinyUsd, config.clone(), seed))
//!     .collect();
//! let mut ensemble = EnsembleEngine::try_new(replicas)
//!     .unwrap()
//!     .with_parallelism(choice.parallelism());
//! let outcome = ensemble.run(StopCondition::consensus().or_max_interactions(10_000_000));
//! assert!(outcome.all_reached_goal());
//! assert_eq!(outcome.len(), 8);
//! ```

use crate::checkpoint::{
    Checkpoint, EngineCheckpoint, EngineState, EnsembleSnapshot, ReplicaCheckpoint,
};
use crate::engine::{Advance, EngineChoice, StepEngine};
use crate::error::PpError;
use crate::parallel::{self, Parallelism};
use crate::recorder::{NullRecorder, Recorder};
use crate::rng::SimSeed;
use crate::run::{MaintenanceStats, RunOutcome, RunResult};
use crate::stopping::StopCondition;
use crate::telemetry::{MetricsSnapshot, Telemetry};
use serde::{Deserialize, Serialize};

/// Workers are only forked when every worker gets at least this many
/// replicas.
const MIN_REPLICAS_PER_WORKER: usize = 2;

/// Events per replica in one window of an [`EnsembleEngine::run_windows`]
/// budget.
const CHUNK_EVENTS: u64 = 256;

/// An `EngineChoice`-adjacent selector for ensemble runs: how many
/// replicas to advance, which per-replica backend drives each of them, and
/// how many worker threads spread the replicas.
///
/// Only the batched backend is a valid base — ensembles exist for the
/// large populations only skip-ahead reaches, the sharded backend spawns
/// threads of its own, and the mean-field backend is a deterministic ODE
/// with nothing to average.  Those combinations are rejected by
/// [`EnsembleChoice::validate`] with an [`PpError::UnsupportedEngine`]
/// naming the offending nesting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnsembleChoice {
    replicas: usize,
    base: EngineChoice,
    /// Defaulted so pre-knob serialized choices keep deserializing once the
    /// real serde is swapped back in (the vendored derive is a no-op).
    #[serde(default)]
    parallelism: Parallelism,
}

impl EnsembleChoice {
    /// An ensemble of `replicas` copies on the batched base backend, with
    /// automatic worker parallelism (thread count never affects results —
    /// see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    #[must_use]
    pub fn new(replicas: usize) -> Self {
        assert!(replicas >= 1, "an ensemble needs at least one replica");
        EnsembleChoice {
            replicas,
            base: EngineChoice::Batched,
            parallelism: Parallelism::auto(),
        }
    }

    /// Overrides the per-replica base backend (validation will reject
    /// everything but [`EngineChoice::Batched`]; the setter exists so
    /// callers can funnel a user-selected engine through
    /// [`EnsembleChoice::validate`] and get the precise diagnostic).
    #[must_use]
    pub fn with_base(mut self, base: EngineChoice) -> Self {
        self.base = base;
        self
    }

    /// Selects the worker-thread knob (default [`Parallelism::auto`]).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Caps the worker threads at `threads` (shorthand for
    /// [`EnsembleChoice::with_parallelism`] with [`Parallelism::fixed`]).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn threads(self, threads: usize) -> Self {
        self.with_parallelism(Parallelism::fixed(threads))
    }

    /// Number of replicas.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The per-replica base backend.
    #[must_use]
    pub fn base(&self) -> EngineChoice {
        self.base
    }

    /// The worker-thread knob.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Checks that the base backend can run inside the ensemble.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::UnsupportedEngine`] for every base but
    /// [`EngineChoice::Batched`] (`"exact-inside-ensemble"`,
    /// `"sharded-inside-ensemble"`, `"mean-field-inside-ensemble"`,
    /// `"hybrid-inside-ensemble"`).
    pub fn validate(&self) -> Result<(), PpError> {
        match self.base {
            EngineChoice::Batched => Ok(()),
            EngineChoice::Exact => Err(PpError::UnsupportedEngine {
                requested: "exact-inside-ensemble",
            }),
            EngineChoice::Sharded => Err(PpError::UnsupportedEngine {
                requested: "sharded-inside-ensemble",
            }),
            EngineChoice::MeanField => Err(PpError::UnsupportedEngine {
                requested: "mean-field-inside-ensemble",
            }),
            EngineChoice::Hybrid => Err(PpError::UnsupportedEngine {
                requested: "hybrid-inside-ensemble",
            }),
        }
    }

    /// The per-replica seeds of an ensemble run: replica `i` gets
    /// `master.child(i)`.  This is the workspace-wide convention the
    /// bit-exactness guarantee is stated against — a standalone engine
    /// seeded with `master.child(i)` reproduces ensemble replica `i`
    /// exactly.
    #[must_use]
    pub fn seeds(&self, master: SimSeed) -> Vec<SimSeed> {
        (0..self.replicas as u64).map(|i| master.child(i)).collect()
    }
}

/// The aggregate outcome of one [`EnsembleEngine::run`]: every replica's
/// [`RunResult`] (index-aligned with the construction order) plus the
/// worker count the throughput experiments report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleRunResult {
    results: Vec<RunResult>,
    workers: u64,
}

impl EnsembleRunResult {
    /// Per-replica results, in construction order (replica `i` matches a
    /// standalone run with seed `master.child(i)`).
    #[must_use]
    pub fn results(&self) -> &[RunResult] {
        &self.results
    }

    /// The result of replica `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn replica(&self, i: usize) -> &RunResult {
        &self.results[i]
    }

    /// Number of replicas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the ensemble held no replicas (never true for results
    /// produced by [`EnsembleEngine::run`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// The worker-thread count the completing call resolved to.
    #[must_use]
    pub fn workers(&self) -> u64 {
        self.workers
    }

    /// The run's worker count and the replicas' engine counters as
    /// one flat [`MetricsSnapshot`] under the canonical metric names — the
    /// surface `usd_run` serializes and the summary printers read.
    ///
    /// Per-replica counters (`batched.*`, `maintenance.*`,
    /// `engine.rejection_misses`) are summed across replicas; the
    /// `maintenance.*_fraction` gauges are recomputed from the aggregated
    /// counters rather than absorbed (a gauge absorb is last-write-wins).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        let mut agg = MaintenanceStats::default();
        for result in &self.results {
            if let Some(t) = result.telemetry() {
                snap.absorb(t);
            } else {
                if let Some(misses) = result.rejection_misses() {
                    snap.add_counter("engine.rejection_misses", misses);
                }
                if let Some(stats) = result.maintenance() {
                    snap.absorb_maintenance(&stats);
                }
            }
            if let Some(stats) = result.maintenance() {
                agg.absorb(stats);
            }
        }
        if let Some(f) = agg.rows_patched_fraction() {
            snap.set_gauge("maintenance.rows_patched_fraction", f);
        }
        if let Some(f) = agg.law_patched_fraction() {
            snap.set_gauge("maintenance.law_patched_fraction", f);
        }
        snap.set_gauge("ensemble.replicas", self.results.len() as f64);
        snap.set_gauge("ensemble.workers", self.workers as f64);
        snap
    }

    /// Total interactions advanced across all replicas (the numerator of
    /// the aggregate interactions/sec metric).
    #[must_use]
    pub fn total_interactions(&self) -> u128 {
        self.results
            .iter()
            .map(|r| u128::from(r.interactions()))
            .sum()
    }

    /// Whether every replica reached its structural goal (consensus or
    /// settlement) rather than running out of budget.
    #[must_use]
    pub fn all_reached_goal(&self) -> bool {
        self.results.iter().all(|r| r.outcome().is_goal())
    }
}

/// Runs one replica as a task of a [`EnsembleEngine::run_windows_recorded`]
/// call: its legs toward `stop`, feeding every event to `recorder`, within
/// a budget of `max_windows` windows of [`CHUNK_EVENTS`] events.  No leg
/// crosses a window boundary, and the replica's result is collected in the
/// window after the one in which it met its stop, so a call pauses exactly
/// where a loop of one-window calls would.  Returns the result (`None`
/// when the budget ran out first) and the events advanced.
fn run_replica<E: StepEngine, R: Recorder>(
    replica: &mut E,
    recorder: &mut R,
    stop: &StopCondition,
    max_windows: u64,
) -> (Option<RunResult>, u64) {
    let limit = stop.max_interactions().unwrap_or(u64::MAX);
    let mut windows = 0u64;
    let mut events = 0u64;
    loop {
        if let Some(outcome) = stop.outcome(replica.configuration(), replica.interactions()) {
            let result = (windows < max_windows).then(|| finish(replica, outcome));
            return (result, events);
        }
        let left = CHUNK_EVENTS - events % CHUNK_EVENTS;
        if left == CHUNK_EVENTS {
            if windows == max_windows {
                return (None, events);
            }
            windows += 1;
        }
        let leg = replica.leg(limit, u64::MAX, left, recorder);
        events += leg.events;
        if leg.end == Advance::Absorbed {
            assert!(
                stop.max_interactions().is_some() || stop.goal_met(replica.configuration()),
                "absorbing configuration {} can never meet the stop condition",
                replica.configuration()
            );
        }
    }
}

/// Advances `R` replicas of one protocol/configuration as tasks on the
/// shared task pool (module docs have the design and exactness argument).
///
/// Worker threads come from the shared [`crate::parallel`] layer; select
/// the count with [`EnsembleEngine::with_parallelism`].  Thread count never
/// affects results, only wall-clock.
#[derive(Debug)]
pub struct EnsembleEngine<E> {
    replicas: Vec<E>,
    parallelism: Parallelism,
    tel: Telemetry,
}

impl<E: StepEngine> EnsembleEngine<E> {
    /// Builds an ensemble over the given replicas (conventionally all
    /// constructed from one configuration with seeds
    /// [`EnsembleChoice::seeds`]).
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Config`] (empty population) when `replicas` is
    /// empty and [`PpError::OpinionCountMismatch`] when the replicas
    /// disagree on the opinion count.
    pub fn try_new(replicas: Vec<E>) -> Result<Self, PpError> {
        let Some(first) = replicas.first() else {
            return Err(PpError::Config(crate::error::ConfigError::EmptyPopulation));
        };
        let k = first.configuration().num_opinions();
        for replica in &replicas {
            if replica.configuration().num_opinions() != k {
                return Err(PpError::OpinionCountMismatch {
                    protocol: k,
                    configuration: replica.configuration().num_opinions(),
                });
            }
        }
        Ok(EnsembleEngine {
            replicas,
            parallelism: Parallelism::auto(),
            tel: Telemetry::disabled(),
        })
    }

    /// Attaches a telemetry handle: every [`EnsembleEngine::run_windows`]
    /// call opens an `ensemble.window` span, each worker an `ensemble.chunk`
    /// span on its worker track, and each completed run folds its
    /// `ensemble.*` counters into the registry.  Telemetry never consumes
    /// randomness, so attaching a handle cannot change any replica's
    /// trajectory (see [`crate::telemetry`]).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Selects the worker-thread knob (default [`Parallelism::auto`]).
    /// Never affects results, only wall-clock — see the module docs.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The worker-thread knob this engine runs with.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The replicas, in construction order.
    #[must_use]
    pub fn replicas(&self) -> &[E] {
        &self.replicas
    }

    /// Number of replicas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the ensemble holds no replicas (construction rejects this).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Runs every replica until it meets the stop condition, one task per
    /// replica on the shared task pool, and returns the index-aligned
    /// per-replica results.  Each replica's result is
    /// identical to what the standalone `run_engine` would return for the
    /// same seed, at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if the stop condition is unbounded, or if a replica reaches an
    /// absorbing configuration that cannot meet a budget-less stop
    /// condition (the same loud-failure contract as
    /// [`StepEngine::run_engine_recorded`]).
    pub fn run(&mut self, stop: StopCondition) -> EnsembleRunResult
    where
        E: Send,
    {
        let mut recorders = vec![NullRecorder; self.replicas.len()];
        self.run_recorded(stop, &mut recorders)
    }

    /// Runs every replica like [`EnsembleEngine::run`], feeding replica
    /// `i`'s initial and every changed configuration to `recorders[i]` —
    /// the same observation stream [`StepEngine::run_engine_recorded`]
    /// produces for a standalone same-seed run: one `record` call with the
    /// starting configuration, then one per state-changing event (skipped
    /// null interactions are not observed; budget-exhausted forwarding
    /// records nothing, exactly like the standalone skip-ahead path).
    ///
    /// Recorders run on the worker threads (hence `R: Send`) but only ever
    /// observe their own replica, in that replica's event order.
    ///
    /// # Panics
    ///
    /// Panics if `recorders.len() != self.len()`, plus everything
    /// [`EnsembleEngine::run`] panics on.
    pub fn run_recorded<R>(&mut self, stop: StopCondition, recorders: &mut [R]) -> EnsembleRunResult
    where
        E: Send,
        R: Recorder + Send,
    {
        self.run_windows_recorded(stop, recorders, u64::MAX)
            .expect("an unbounded window budget can never pause")
    }

    /// Runs at most `max_windows` windows toward the stop condition,
    /// recording nothing: each replica advances at most `256 × max_windows`
    /// events, in one task per replica.  Returns `None` when some replica
    /// has not met its stop with a window to spare (see the module docs) —
    /// the *pause* point the checkpoint layer captures at (see
    /// [`crate::checkpoint`]): call [`Checkpoint::capture`] on the paused
    /// engine, and resume (here or in a restored engine) by calling this
    /// again **with the same `stop`**.
    /// The completing call recomputes every replica's [`RunResult`] purely
    /// from replica state, so per-replica results are bit-identical to an
    /// uninterrupted [`EnsembleEngine::run`].
    ///
    /// # Panics
    ///
    /// Everything [`EnsembleEngine::run`] panics on.
    pub fn run_windows(
        &mut self,
        stop: StopCondition,
        max_windows: u64,
    ) -> Option<EnsembleRunResult>
    where
        E: Send,
    {
        let mut recorders = vec![NullRecorder; self.replicas.len()];
        self.run_windows_recorded(stop, &mut recorders, max_windows)
    }

    /// Recorded counterpart of [`EnsembleEngine::run_windows`].  Every call
    /// re-records each replica's current configuration first (the same
    /// leading snapshot [`StepEngine::run_engine_recorded`] emits), so a
    /// resumed run's stream starts with a duplicate of the pause-point
    /// entry; splice streams accordingly.
    ///
    /// # Panics
    ///
    /// Everything [`EnsembleEngine::run_recorded`] panics on.
    pub fn run_windows_recorded<R>(
        &mut self,
        stop: StopCondition,
        recorders: &mut [R],
        max_windows: u64,
    ) -> Option<EnsembleRunResult>
    where
        E: Send,
        R: Recorder + Send,
    {
        assert!(
            stop.is_bounded(),
            "stop condition can never terminate the run"
        );
        assert_eq!(
            recorders.len(),
            self.replicas.len(),
            "one recorder per replica"
        );
        let workers = self
            .parallelism
            .resolve(self.replicas.len() / MIN_REPLICAS_PER_WORKER);
        let _window = self.tel.span("ensemble.window");
        let tasks: Vec<_> = self.replicas.iter_mut().zip(recorders.iter_mut()).collect();
        let runs = parallel::run_tasks_traced(
            workers,
            &self.tel,
            "ensemble.chunk",
            tasks,
            |(replica, recorder)| {
                recorder.record(replica.interactions(), replica.configuration());
                run_replica(replica, recorder, &stop, max_windows)
            },
        );
        // Events observed by the recorders this call (one `record` call per
        // event), drained into the registry as `ensemble.recorded_events`.
        let events: u64 = runs.iter().map(|&(_, events)| events).sum();
        // A paused call drops the finished replicas' results: the
        // completing call recomputes them, bit-identically.
        let result = EnsembleRunResult {
            results: runs
                .into_iter()
                .map(|(result, _)| result)
                .collect::<Option<_>>()?,
            workers: workers as u64,
        };
        if self.tel.is_enabled() {
            self.tel.counter("ensemble.recorded_events").add(events);
            self.tel
                .gauge("ensemble.replicas")
                .set(result.results.len() as f64);
            self.tel
                .gauge("ensemble.workers")
                .set(result.workers as f64);
        }
        Some(result)
    }

    /// Snapshots the ensemble's trajectory-relevant state for
    /// [`Checkpoint::capture`]: every replica's [`EngineSnapshot`], in
    /// construction order.  Capture only at a *pause* point — between
    /// [`EnsembleEngine::run_windows`] calls.
    ///
    /// [`EngineSnapshot`]: crate::checkpoint::EngineSnapshot
    pub fn capture_state(&self) -> EnsembleSnapshot
    where
        E: ReplicaCheckpoint,
    {
        EnsembleSnapshot {
            replicas: self
                .replicas
                .iter()
                .map(ReplicaCheckpoint::capture_replica)
                .collect(),
        }
    }

    /// Restores an ensemble from a checkpoint captured by
    /// [`Checkpoint::capture`] on an [`EnsembleEngine`].  Resuming with
    /// [`EnsembleEngine::run_windows`] **under the same stop condition** the
    /// interrupted run used produces per-replica results bit-identical to
    /// the uninterrupted run, at every thread count (parallelism and
    /// telemetry are construction-time knobs — reapply them with the usual
    /// builders; neither affects results).
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the checkpoint holds a
    /// different engine kind, and propagates replica-restore and
    /// [`EnsembleEngine::try_new`] validation errors.
    pub fn restore(ctx: &E::Context, checkpoint: &Checkpoint) -> Result<Self, PpError>
    where
        E: ReplicaCheckpoint,
    {
        match checkpoint.engine() {
            EngineState::Ensemble(snapshot) => Self::restore_snapshot(ctx, snapshot),
            _ => Err(checkpoint.kind_mismatch("ensemble")),
        }
    }

    /// Restores an ensemble directly from an [`EnsembleSnapshot`] (the
    /// payload [`EnsembleEngine::restore`] unwraps).
    ///
    /// # Errors
    ///
    /// Propagates per-replica restore errors and
    /// [`EnsembleEngine::try_new`] validation errors.
    pub fn restore_snapshot(ctx: &E::Context, snapshot: &EnsembleSnapshot) -> Result<Self, PpError>
    where
        E: ReplicaCheckpoint,
    {
        let replicas = snapshot
            .replicas
            .iter()
            .map(|s| E::restore_replica(ctx, s))
            .collect::<Result<Vec<_>, _>>()?;
        Self::try_new(replicas)
    }
}

impl<E: StepEngine + ReplicaCheckpoint> EngineCheckpoint for EnsembleEngine<E> {
    fn capture_engine(&self) -> EngineState {
        EngineState::Ensemble(self.capture_state())
    }
}

/// A finished replica's result, carrying the same metadata the standalone
/// `run_engine` records.
fn finish<E: StepEngine>(replica: &E, outcome: RunOutcome) -> RunResult {
    RunResult::new(
        outcome,
        replica.interactions(),
        replica.configuration().clone(),
    )
    .with_scheduler(replica.scheduler_name())
    .with_rejection_misses(replica.rejection_misses())
    .with_maintenance(replica.maintenance())
    .with_telemetry(replica.telemetry())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::engine::BatchedEngine;
    use crate::opinion::AgentState;
    use crate::protocol::OpinionProtocol;

    /// The 2-opinion USD.
    #[derive(Debug, Clone)]
    struct Usd2;

    impl OpinionProtocol for Usd2 {
        fn num_opinions(&self) -> usize {
            2
        }
        fn respond(&self, r: AgentState, i: AgentState) -> AgentState {
            match (r, i) {
                (AgentState::Decided(a), AgentState::Decided(b)) if a != b => AgentState::Undecided,
                (AgentState::Undecided, AgentState::Decided(b)) => AgentState::Decided(b),
                _ => r,
            }
        }
        fn name(&self) -> &str {
            "usd-2"
        }
    }

    fn ensemble(
        counts: Vec<u64>,
        undecided: u64,
        replicas: usize,
    ) -> EnsembleEngine<BatchedEngine<Usd2>> {
        let config = Configuration::from_counts(counts, undecided).unwrap();
        let members = EnsembleChoice::new(replicas)
            .seeds(SimSeed::from_u64(99))
            .into_iter()
            .map(|seed| BatchedEngine::new(Usd2, config.clone(), seed))
            .collect();
        EnsembleEngine::try_new(members).unwrap()
    }

    #[test]
    fn replicas_match_standalone_runs_bit_for_bit() {
        let config = Configuration::from_counts(vec![400, 100], 0).unwrap();
        let stop = StopCondition::consensus().or_max_interactions(5_000_000);
        let mut ens = ensemble(vec![400, 100], 0, 6);
        let outcome = ens.run(stop);
        for (i, seed) in EnsembleChoice::new(6)
            .seeds(SimSeed::from_u64(99))
            .into_iter()
            .enumerate()
        {
            let mut standalone = BatchedEngine::new(Usd2, config.clone(), seed);
            let expected = standalone.run_engine(stop);
            assert_eq!(outcome.replica(i), &expected, "replica {i} diverged");
        }
        assert!(outcome.all_reached_goal());
        assert!(outcome.workers() >= 1);
    }

    #[test]
    fn every_thread_count_produces_identical_results() {
        // The worker partition is deterministic and workers share no
        // mutable state, so the thread knob trades wall-clock only.
        let stop = StopCondition::consensus().or_max_interactions(5_000_000);
        let reference = ensemble(vec![400, 150], 50, 7)
            .with_parallelism(Parallelism::single())
            .run(stop);
        for threads in [2usize, 3, 8] {
            let outcome = ensemble(vec![400, 150], 50, 7)
                .with_parallelism(Parallelism::fixed(threads))
                .run(stop);
            assert_eq!(
                outcome.results(),
                reference.results(),
                "threads = {threads} diverged"
            );
        }
        let auto = ensemble(vec![400, 150], 50, 7)
            .with_parallelism(Parallelism::auto())
            .run(stop);
        assert_eq!(auto.results(), reference.results(), "auto diverged");
    }

    #[test]
    fn budget_exhaustion_matches_standalone_accounting() {
        let stop = StopCondition::consensus().or_max_interactions(200);
        let mut ens = ensemble(vec![500, 500], 0, 3);
        let outcome = ens.run(stop);
        for result in outcome.results() {
            if result.outcome() == RunOutcome::BudgetExhausted {
                assert_eq!(result.interactions(), 200);
            } else {
                assert!(result.interactions() <= 200);
            }
        }
    }

    #[test]
    fn absorbed_replicas_exhaust_the_budget() {
        // Every agent undecided: the USD can never change anything.
        let mut ens = ensemble(vec![0, 0], 64, 3);
        let outcome = ens.run(StopCondition::consensus().or_max_interactions(10_000));
        for result in outcome.results() {
            assert_eq!(result.outcome(), RunOutcome::BudgetExhausted);
            assert_eq!(result.interactions(), 10_000);
        }
    }

    #[test]
    fn empty_ensembles_are_rejected() {
        let err = EnsembleEngine::<BatchedEngine<Usd2>>::try_new(Vec::new()).unwrap_err();
        assert!(matches!(err, PpError::Config(_)));
    }

    #[test]
    fn ensemble_choice_validates_bases_and_derives_seeds() {
        let choice = EnsembleChoice::new(4);
        assert_eq!(choice.replicas(), 4);
        assert_eq!(choice.base(), EngineChoice::Batched);
        assert_eq!(choice.parallelism(), Parallelism::auto());
        assert!(choice.validate().is_ok());
        let seeds = choice.seeds(SimSeed::from_u64(5));
        assert_eq!(seeds.len(), 4);
        assert_eq!(seeds[2], SimSeed::from_u64(5).child(2));
        for (base, name) in [
            (EngineChoice::Exact, "exact-inside-ensemble"),
            (EngineChoice::Sharded, "sharded-inside-ensemble"),
            (EngineChoice::MeanField, "mean-field-inside-ensemble"),
            (EngineChoice::Hybrid, "hybrid-inside-ensemble"),
        ] {
            let err = choice.with_base(base).validate().unwrap_err();
            assert_eq!(err, PpError::UnsupportedEngine { requested: name });
        }
        // The thread knob rides along without affecting validation.
        let threaded = choice.threads(3);
        assert_eq!(threaded.parallelism(), Parallelism::fixed(3));
        assert!(threaded.validate().is_ok());
        assert_eq!(threaded.replicas(), 4);
    }

    #[test]
    fn run_result_aggregates_are_consistent() {
        let mut ens = ensemble(vec![190, 10], 0, 5);
        let outcome = ens.run(StopCondition::consensus().or_max_interactions(2_000_000));
        assert_eq!(outcome.len(), 5);
        assert!(!outcome.is_empty());
        let total: u128 = outcome
            .results()
            .iter()
            .map(|r| u128::from(r.interactions()))
            .sum();
        assert_eq!(outcome.total_interactions(), total);
    }

    /// A recorder that keeps the full observation stream, for comparing the
    /// ensemble's per-replica callbacks against the standalone driver's.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    struct Log(Vec<(u64, Vec<u64>, u64)>);

    impl Recorder for Log {
        fn record(&mut self, interactions: u64, config: &Configuration) {
            self.0
                .push((interactions, config.supports().to_vec(), config.undecided()));
        }
    }

    #[test]
    fn recorder_streams_match_standalone_runs() {
        let config = Configuration::from_counts(vec![300, 100], 20).unwrap();
        let stop = StopCondition::consensus().or_max_interactions(2_000_000);
        let expected: Vec<Log> = EnsembleChoice::new(5)
            .seeds(SimSeed::from_u64(99))
            .into_iter()
            .map(|seed| {
                let mut log = Log::default();
                BatchedEngine::new(Usd2, config.clone(), seed).run_engine_recorded(stop, &mut log);
                log
            })
            .collect();
        assert!(expected.iter().all(|log| log.0.len() > 1));
        // Every thread count must produce the standalone observation stream.
        for threads in [1usize, 3] {
            let mut ens =
                ensemble(vec![300, 100], 20, 5).with_parallelism(Parallelism::fixed(threads));
            let mut recorders = vec![Log::default(); 5];
            let outcome = ens.run_recorded(stop, &mut recorders);
            assert!(outcome.all_reached_goal());
            assert_eq!(recorders, expected, "{threads} threads diverged");
        }
    }

    #[test]
    fn recorder_count_must_match_replica_count() {
        let mut ens = ensemble(vec![50, 50], 0, 3);
        let mut recorders = vec![Log::default(); 2];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ens.run_recorded(
                StopCondition::consensus().or_max_interactions(100),
                &mut recorders,
            )
        }));
        assert!(result.is_err());
    }

    #[test]
    fn telemetry_records_window_spans_without_changing_results() {
        let stop = StopCondition::consensus().or_max_interactions(5_000_000);
        let silent = ensemble(vec![400, 100], 30, 6)
            .with_parallelism(Parallelism::fixed(2))
            .run(stop);
        let tel = Telemetry::enabled();
        let mut ens = ensemble(vec![400, 100], 30, 6).with_parallelism(Parallelism::fixed(2));
        ens.set_telemetry(tel.clone());
        let traced = ens.run(stop);
        // Attaching telemetry must not perturb a single replica.
        assert_eq!(silent.results(), traced.results());
        let spans = tel.spans();
        assert!(spans.iter().any(|s| s.name == "ensemble.window"));
        assert!(spans.iter().any(|s| s.name == "ensemble.chunk.forkjoin"));
        assert!(spans
            .iter()
            .any(|s| s.name == "ensemble.chunk" && s.tid >= 1));
        crate::telemetry::check_span_nesting(&spans).expect("window spans must nest");
        let snap = tel.snapshot();
        assert!(snap.counter("ensemble.recorded_events").unwrap() > 0);
        assert_eq!(snap.gauge("ensemble.replicas"), Some(6.0));
    }

    #[test]
    fn metrics_snapshot_aggregates_replica_counters() {
        let mut ens = ensemble(vec![500, 100], 0, 4);
        let outcome = ens.run(StopCondition::consensus().or_max_interactions(5_000_000));
        let snap = outcome.metrics_snapshot();
        assert_eq!(snap.gauge("ensemble.replicas"), Some(4.0));
        // Replica engine counters fold in under the canonical names.
        let drawn = snap.counter("batched.events_drawn").unwrap();
        assert!(drawn > 0);
        let total_events: u64 = outcome
            .results()
            .iter()
            .map(|r| {
                r.telemetry()
                    .unwrap()
                    .counter("batched.events_drawn")
                    .unwrap()
            })
            .sum();
        assert_eq!(drawn, total_events);
        // Fraction gauges are recomputed from the aggregate, not absorbed.
        let agg: MaintenanceStats =
            outcome
                .results()
                .iter()
                .fold(MaintenanceStats::default(), |mut acc, r| {
                    acc.absorb(r.maintenance().unwrap());
                    acc
                });
        assert_eq!(
            snap.gauge("maintenance.rows_patched_fraction"),
            agg.rows_patched_fraction()
        );
    }

    #[test]
    fn checkpoint_restores_the_identical_trajectory_tail_at_any_thread_count() {
        // Uninterrupted reference run.
        let stop = StopCondition::consensus().or_max_interactions(5_000_000);
        let expected = ensemble(vec![400, 100], 30, 6).run(stop);

        for threads in [1usize, 3] {
            // Interrupted run: spend a few scheduling windows, pause with
            // live replicas, capture, and throw the engine away.
            let mut paused =
                ensemble(vec![400, 100], 30, 6).with_parallelism(Parallelism::fixed(threads));
            assert!(
                paused.run_windows(stop, 2).is_none(),
                "two windows must not finish six replicas"
            );
            let json = Checkpoint::capture(&paused).to_json();
            drop(paused);

            // Restore from the serialized checkpoint and finish under the
            // same stop condition.
            let checkpoint = Checkpoint::from_json(&json).unwrap();
            let mut restored = EnsembleEngine::<BatchedEngine<Usd2>>::restore(&Usd2, &checkpoint)
                .unwrap()
                .with_parallelism(Parallelism::fixed(threads));
            let resumed = restored
                .run_windows(stop, u64::MAX)
                .expect("an unbounded window budget always finishes");
            assert_eq!(
                resumed.results(),
                expected.results(),
                "restored tail diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn pause_and_resume_in_place_matches_the_uninterrupted_run() {
        // Pausing the *same* engine (no serialization round-trip) and
        // resuming must also be invisible to the per-replica results.
        let stop = StopCondition::consensus().or_max_interactions(5_000_000);
        let expected = ensemble(vec![300, 100], 20, 5).run(stop);
        let mut ens = ensemble(vec![300, 100], 20, 5);
        let mut outcome = ens.run_windows(stop, 1);
        let mut pauses = 0u32;
        while outcome.is_none() {
            pauses += 1;
            assert!(pauses < 1_000_000, "run never completed");
            outcome = ens.run_windows(stop, 1);
        }
        assert!(pauses > 0, "a one-window budget must pause at least once");
        assert_eq!(outcome.unwrap().results(), expected.results());
    }

    #[test]
    fn restore_rejects_foreign_kinds() {
        let ens = ensemble(vec![50, 50], 0, 2);
        let replica_only = Checkpoint::capture(&ens.replicas()[0]);
        let err = EnsembleEngine::<BatchedEngine<Usd2>>::restore(&Usd2, &replica_only).unwrap_err();
        match err {
            PpError::Checkpoint { reason } => {
                assert!(reason.contains("batched"), "{reason}");
                assert!(reason.contains("ensemble"), "{reason}");
            }
            other => panic!("expected a checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn ensemble_engines_and_shared_tables_cross_threads() {
        // The parallel path moves replicas to workers: pin the auto-trait
        // obligations so a regression (an Rc or RefCell sneaking into an
        // engine or the knobs) fails here, not in a consumer crate.
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send::<BatchedEngine<Usd2>>();
        assert_send_sync::<Parallelism>();
        assert_send_sync::<EnsembleChoice>();
    }
}
