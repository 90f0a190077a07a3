//! The sharded population engine: parallel per-shard batched stepping with
//! multinomial reconciliation.
//!
//! For populations beyond what one [`BatchedEngine`] can push through a
//! single core, [`ShardedEngine`] splits the count vector into `S` shards
//! (each a fixed sub-population; see
//! [`multinomial::split_configuration`]) and advances them in *reconciliation
//! epochs* of `E` interactions:
//!
//! 1. **Allocate** — the epoch's `E` interactions are assigned to ordered
//!    shard pairs `(a, b)` by one multinomial draw with weights `n_a · n_b`,
//!    exactly the probability that a uniform ordered agent pair has its
//!    responder in shard `a` and its initiator in shard `b`.
//! 2. **Advance** — every shard consumes its *intra*-shard quota `N_aa`
//!    independently on its own [`BatchedEngine`] (geometric skip-ahead,
//!    `O(k)` per event), one task per shard on the shared
//!    [`crate::parallel`] task pool (the same pool the replica ensemble
//!    uses; per-shard RNGs and outputs in shard order keep results
//!    independent of the thread count).
//! 3. **Reconcile** — the *cross*-shard quotas `N_ab` (`a ≠ b`) are realized
//!    against boundary snapshots of the initiator shards by the batched
//!    sampler in the private `reconcile` module; responder updates land in
//!    shard `a`, and the pass again parallelizes over responder shards
//!    because every shard's writes are disjoint.
//!
//! Shard populations never change (an interaction only rewrites the
//! responder's *state*), so the allocation weights are constant and the
//! merged population is conserved exactly — by construction, not by
//! accounting.
//!
//! # Fidelity
//!
//! The scheme is *documented-approximate*, tunable via
//! [`ShardPlan::epoch_interactions`]: within an epoch, intra-shard stepping
//! does not see concurrent cross-shard updates, and cross blocks read
//! initiator counts frozen at the start of the reconcile pass (i.e. after
//! the epoch's intra-shard advancement).  Counts move by at most
//! one agent per interaction, so over an epoch of `E = εn` interactions
//! every transition probability the engine uses is within `O(ε)` relative
//! error of the exactly interleaved chain's; as `ε → 0` (epoch length 1) the
//! construction degenerates to the exact single-interaction chain.  At the
//! default `ε = 1/32` the bias is below statistical resolution: the sharded
//! backend passes the same chi-squared trajectory-equivalence suite that
//! pins the batched engine to the exact engine (`tests/sharded_equivalence`),
//! and experiment E14 measures the residual hitting-time bias directly.
//!
//! Epoch granularity also quantizes observability: `advance` lands on epoch
//! boundaries, so recorded trajectories and stop conditions see the
//! configuration every `E` interactions rather than every event.
//!
//! # Example
//!
//! ```
//! use pp_core::shard::{ShardPlan, ShardedEngine};
//! use pp_core::prelude::*;
//!
//! #[derive(Clone)]
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
//! let config = Configuration::from_counts(vec![1_800, 200], 0).unwrap();
//! let mut engine = ShardedEngine::new(TinyUsd, config, SimSeed::from_u64(7), &ShardPlan::new(4));
//! let result = engine.run_engine(StopCondition::consensus().or_max_interactions(50_000_000));
//! assert!(result.reached_consensus());
//! ```

pub mod multinomial;
mod plan;
pub(crate) mod reconcile;

pub use plan::{ShardPlan, EPOCH_AUTO_DENOMINATOR};

use crate::checkpoint::{
    Checkpoint, EngineCheckpoint, EngineState, ShardSnapshot, ShardedSnapshot,
};
use crate::config::Configuration;
use crate::engine::{Advance, BatchedEngine, StepEngine};
use crate::error::PpError;
use crate::parallel;
use crate::protocol::OpinionProtocol;
use crate::recorder::NullRecorder;
use crate::rng::SimSeed;
use crate::run::MaintenanceStats;
use crate::telemetry::{MetricsSnapshot, Telemetry};
use multinomial::{
    merge_configurations, sample_multinomial, shard_populations, split_configuration,
};
use rand::rngs::SmallRng;

/// Epochs shorter than this run the shard passes inline even when the plan
/// allows more worker threads: two thread-scope spawn/join rounds cost tens
/// of microseconds, which sub-millisecond epochs cannot amortize.
const PARALLEL_EPOCH_MIN: u64 = 4_096;

/// The scheduler the sharded engine realizes: the uniform ordered-pair
/// scheduler, approximated at reconciliation-epoch granularity.
pub const SHARDED_EPOCH_SCHEDULER_NAME: &str =
    "uniform ordered pairs (sharded epochs, self-interactions allowed)";

/// One shard: its batched engine plus per-epoch scheduling state.
#[derive(Debug)]
struct ShardState<P> {
    engine: BatchedEngine<P>,
    /// RNG driving this shard's cross-block reconciliation (owned per shard,
    /// so results do not depend on thread scheduling).
    cross_rng: SmallRng,
    /// Intra-shard interactions allocated for the current epoch.
    intra_quota: u64,
    /// Cross-shard interactions allocated per initiator shard.
    cross_quotas: Vec<u64>,
    /// Scratch for the reconciliation sampler's row weights.
    rows: Vec<u128>,
    /// State-changing events this shard produced in the current epoch.
    events: u64,
}

impl<P: OpinionProtocol> ShardState<P> {
    /// Consumes the epoch's intra-shard quota on the local batched engine,
    /// in legs that end only at the quota (or absorption) or at an event
    /// that empties its source.
    fn advance_intra(&mut self) {
        let target = self.engine.interactions() + self.intra_quota;
        loop {
            let leg = self
                .engine
                .leg(target, u64::MAX, u64::MAX, &mut NullRecorder);
            self.events += leg.events;
            if leg.end != Advance::Event {
                break;
            }
        }
    }

    /// Realizes the epoch's cross-shard quotas against the boundary
    /// snapshots (`snapshots[b]` is initiator shard `b`'s configuration at
    /// the start of the reconcile pass; the own-shard entry is unused).
    fn reconcile_cross(&mut self, own_index: usize, snapshots: &[Configuration]) {
        for (b, snapshot) in snapshots.iter().enumerate() {
            if b == own_index {
                continue;
            }
            let quota = self.cross_quotas[b];
            if quota == 0 {
                continue;
            }
            let (protocol, config) = self.engine.parts_mut();
            self.events += reconcile::reconcile_cross_block(
                protocol,
                config,
                snapshot,
                quota,
                &mut self.rows,
                &mut self.cross_rng,
            );
        }
    }
}

/// The sharded step engine (see the [module docs](self) for the scheme).
///
/// Construct it directly, or — for the USD — through
/// `UsdSimulator::with_engine` with `EngineChoice::Sharded` in `usd-core`.
#[derive(Debug)]
pub struct ShardedEngine<P> {
    shards: Vec<ShardState<P>>,
    /// Constant allocation weights `n_a · n_b`, row-major over `(a, b)`.
    pair_weights: Vec<u128>,
    /// The merged configuration, refreshed at every epoch boundary.
    merged: Configuration,
    interactions: u64,
    epochs: u64,
    epoch_len: u64,
    threads: usize,
    rebalance_every: Option<u64>,
    alloc_rng: SmallRng,
    /// Telemetry handle (disabled by default; see [`crate::telemetry`]).
    /// Recording only reads the clock — trajectories are bit-identical with
    /// telemetry on or off.
    tel: Telemetry,
}

impl<P: OpinionProtocol + Clone> ShardedEngine<P> {
    /// Creates a sharded engine by splitting `config` according to `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the protocol's `num_opinions()` differs from the
    /// configuration's.
    #[must_use]
    pub fn new(protocol: P, config: Configuration, seed: SimSeed, plan: &ShardPlan) -> Self {
        Self::try_new(protocol, config, seed, plan)
            .expect("protocol/configuration opinion count mismatch")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::OpinionCountMismatch`] if the protocol and the
    /// configuration disagree on `k`.
    pub fn try_new(
        protocol: P,
        config: Configuration,
        seed: SimSeed,
        plan: &ShardPlan,
    ) -> Result<Self, PpError> {
        let shards = plan.effective_shards(config.population());
        let populations = shard_populations(config.population(), shards);
        let parts = split_configuration(&config, &populations);
        Self::from_shards(protocol, parts, seed, plan)
    }

    /// Creates a sharded engine from pre-split shard configurations (e.g. a
    /// `pp-workloads` sharded initial split).  The plan's shard count is
    /// ignored in favour of `parts.len()`; epoch length, threads and
    /// re-balance cadence apply as given.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::OpinionCountMismatch`] if the protocol and the
    /// shards disagree on `k`.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the shards disagree on `k` among
    /// themselves.
    pub fn from_shards(
        protocol: P,
        parts: Vec<Configuration>,
        seed: SimSeed,
        plan: &ShardPlan,
    ) -> Result<Self, PpError> {
        assert!(!parts.is_empty(), "need at least one shard");
        let merged = merge_configurations(&parts);
        let populations: Vec<u64> = parts.iter().map(Configuration::population).collect();
        let shard_count = parts.len();
        let mut pair_weights = Vec::with_capacity(shard_count * shard_count);
        for &na in &populations {
            for &nb in &populations {
                pair_weights.push(u128::from(na) * u128::from(nb));
            }
        }
        let shards = parts
            .into_iter()
            .enumerate()
            .map(|(i, part)| {
                Ok(ShardState {
                    engine: BatchedEngine::try_new(
                        protocol.clone(),
                        part,
                        seed.child(0x5_0000 + i as u64),
                    )?,
                    cross_rng: seed.child(0xC_0000 + i as u64).rng(),
                    intra_quota: 0,
                    cross_quotas: vec![0; shard_count],
                    rows: Vec::new(),
                    events: 0,
                })
            })
            .collect::<Result<Vec<_>, PpError>>()?;
        let epoch_len = plan.epoch_for(merged.population());
        Ok(ShardedEngine {
            shards,
            pair_weights,
            merged,
            interactions: 0,
            epochs: 0,
            epoch_len,
            threads: plan.resolved_threads().min(shard_count),
            rebalance_every: plan.rebalance_cadence(),
            alloc_rng: seed.child(0xA_110C).rng(),
            tel: Telemetry::disabled(),
        })
    }

    /// Attaches a telemetry handle: reconciliation epochs are bracketed in
    /// `shard.epoch` spans with per-worker `shard.intra` / `shard.reconcile`
    /// busy spans underneath (see [`crate::telemetry`] for the trace
    /// layout).  Telemetry never consumes RNG, so attaching a live handle
    /// cannot change the trajectory.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// The number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The reconciliation epoch length in interactions.
    #[must_use]
    pub fn epoch_length(&self) -> u64 {
        self.epoch_len
    }

    /// Reconciliation epochs completed so far.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The configuration currently owned by shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn shard_configuration(&self, s: usize) -> &Configuration {
        self.shards[s].engine.configuration()
    }

    /// The probability that the next interaction changes the state, computed
    /// from the merged counts (diagnostics and absorption detection).
    #[must_use]
    pub fn productive_probability(&self) -> f64 {
        let n = self.merged.population() as f64;
        self.merged_productive_weight() as f64 / (n * n)
    }

    fn merged_productive_weight(&self) -> u128 {
        let protocol = self.shards[0].engine.protocol();
        reconcile::cross_productive_weight(protocol, &self.merged, &self.merged)
    }

    /// Runs one reconciliation epoch of exactly `epoch` interactions and
    /// returns the number of state-changing events it produced.
    fn run_epoch(&mut self, epoch: u64) -> u64
    where
        P: Send,
    {
        // Short epochs (e.g. single-interaction stepping through
        // `UsdSimulator::step`, or a limit clipping the final epoch) carry
        // too little work to amortize two thread::scope spawn/join rounds —
        // run them inline regardless of the plan's thread count.
        let threads = if epoch < PARALLEL_EPOCH_MIN {
            1
        } else {
            self.threads
        };
        let shard_count = self.shards.len();
        let _epoch_span = self.tel.span("shard.epoch");
        let allocation = sample_multinomial(&mut self.alloc_rng, epoch, &self.pair_weights);
        for (a, shard) in self.shards.iter_mut().enumerate() {
            shard.events = 0;
            shard.intra_quota = allocation[a * shard_count + a];
            for b in 0..shard_count {
                shard.cross_quotas[b] = if a == b {
                    0
                } else {
                    allocation[a * shard_count + b]
                };
            }
        }

        // Pass 1: independent intra-shard advancement, one task per shard
        // on the shared task pool.
        parallel::run_tasks_traced(
            threads,
            &self.tel,
            "shard.intra",
            self.shards.iter_mut().collect(),
            ShardState::advance_intra,
        );

        // Pass 2: cross-shard reconciliation against boundary snapshots.
        // Writes stay within each responder shard, so the pass parallelizes
        // over responder shards (the snapshots are frozen read-only data,
        // exactly the sharing shape the parallel layer's determinism
        // contract allows).
        let snapshots: Vec<Configuration> = self
            .shards
            .iter()
            .map(|s| s.engine.configuration().clone())
            .collect();
        parallel::run_tasks_traced(
            threads,
            &self.tel,
            "shard.reconcile",
            self.shards.iter_mut().enumerate().collect(),
            |(a, shard)| shard.reconcile_cross(a, &snapshots),
        );

        self.epochs += 1;
        self.merged = merge_configurations(
            &self
                .shards
                .iter()
                .map(|s| s.engine.configuration().clone())
                .collect::<Vec<_>>(),
        );
        if let Some(cadence) = self.rebalance_every {
            if self.epochs.is_multiple_of(cadence) {
                self.rebalance();
            }
        }
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Captures this engine's resumable state: every shard's batched engine
    /// and cross-reconciliation RNG, the epoch allocator RNG, and the epoch
    /// schedule.  The merged configuration, pair weights and per-epoch
    /// quota/scratch buffers are *not* captured — captures land between
    /// `advance` calls, i.e. on epoch boundaries, where all of them are
    /// either recomputable from the shards or dead.  See
    /// [`crate::checkpoint`] for the exactness rules.
    #[must_use]
    pub fn capture_state(&self) -> ShardedSnapshot {
        ShardedSnapshot {
            shards: self
                .shards
                .iter()
                .map(|s| ShardSnapshot {
                    engine: s.engine.capture_state(),
                    cross_rng: s.cross_rng.state(),
                })
                .collect(),
            alloc_rng: self.alloc_rng.state(),
            interactions: self.interactions,
            epochs: self.epochs,
            epoch_len: self.epoch_len,
            threads: self.threads as u64,
            rebalance_every: self.rebalance_every,
        }
    }

    /// Rebuilds an engine from a checkpoint captured by
    /// [`ShardedEngine::capture_state`].  The snapshot is self-contained
    /// (epoch length, thread cap and re-balance cadence ride along), so no
    /// [`ShardPlan`] is needed; the restored engine walks the identical
    /// trajectory tail at every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the checkpoint holds a
    /// different engine kind, no shards, or invalid counts, and
    /// [`PpError::OpinionCountMismatch`] when the protocol disagrees with
    /// the captured counts on `k`.
    pub fn restore(protocol: P, checkpoint: &Checkpoint) -> Result<Self, PpError> {
        let EngineState::Sharded(snapshot) = checkpoint.engine() else {
            return Err(checkpoint.kind_mismatch("sharded"));
        };
        Self::restore_snapshot(protocol, snapshot)
    }

    /// Snapshot-level counterpart of [`ShardedEngine::restore`].
    ///
    /// # Errors
    ///
    /// Same as [`ShardedEngine::restore`], minus the kind check.
    pub fn restore_snapshot(protocol: P, snapshot: &ShardedSnapshot) -> Result<Self, PpError> {
        if snapshot.shards.is_empty() {
            return Err(PpError::Checkpoint {
                reason: "sharded checkpoint holds no shards".to_string(),
            });
        }
        let shard_count = snapshot.shards.len();
        let mut shards = Vec::with_capacity(shard_count);
        for shard in &snapshot.shards {
            shards.push(ShardState {
                engine: BatchedEngine::restore_snapshot(protocol.clone(), &shard.engine)?,
                cross_rng: SmallRng::from_state(shard.cross_rng),
                intra_quota: 0,
                cross_quotas: vec![0; shard_count],
                rows: Vec::new(),
                events: 0,
            });
        }
        let parts: Vec<Configuration> = shards
            .iter()
            .map(|s| s.engine.configuration().clone())
            .collect();
        let merged = merge_configurations(&parts);
        let populations: Vec<u64> = parts.iter().map(Configuration::population).collect();
        let mut pair_weights = Vec::with_capacity(shard_count * shard_count);
        for &na in &populations {
            for &nb in &populations {
                pair_weights.push(u128::from(na) * u128::from(nb));
            }
        }
        Ok(ShardedEngine {
            shards,
            pair_weights,
            merged,
            interactions: snapshot.interactions,
            epochs: snapshot.epochs,
            epoch_len: snapshot.epoch_len.max(1),
            threads: usize::try_from(snapshot.threads)
                .unwrap_or(1)
                .clamp(1, shard_count),
            rebalance_every: snapshot.rebalance_every,
            alloc_rng: SmallRng::from_state(snapshot.alloc_rng),
            tel: Telemetry::disabled(),
        })
    }

    /// Re-splits the merged counts proportionally across the (fixed) shard
    /// populations — a load-leveling relabeling that leaves the merged
    /// configuration untouched (see [`ShardPlan::rebalance_every`]).
    fn rebalance(&mut self) {
        let populations: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.engine.configuration().population())
            .collect();
        let fresh = split_configuration(&self.merged, &populations);
        for (shard, part) in self.shards.iter_mut().zip(fresh) {
            *shard.engine.parts_mut().1 = part;
        }
    }
}

impl<P: OpinionProtocol + Clone> EngineCheckpoint for ShardedEngine<P> {
    fn capture_engine(&self) -> EngineState {
        EngineState::Sharded(self.capture_state())
    }
}

impl<P: OpinionProtocol + Clone + Send> StepEngine for ShardedEngine<P> {
    fn configuration(&self) -> &Configuration {
        &self.merged
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn engine_name(&self) -> &'static str {
        "sharded"
    }

    fn scheduler_name(&self) -> &'static str {
        SHARDED_EPOCH_SCHEDULER_NAME
    }

    /// Sums the per-shard engines' patch/rebuild counters.  Intra-shard
    /// windows patch incrementally inside each [`BatchedEngine`]; the
    /// cross-block reconciler edits counts through `parts_mut`, which
    /// invalidates the shard's row table and shows up here as rebuilds.
    fn maintenance(&self) -> Option<MaintenanceStats> {
        let mut stats = MaintenanceStats::default();
        for shard in &self.shards {
            stats.absorb(shard.engine.maintenance_stats());
        }
        Some(stats)
    }

    /// Aggregates the per-shard batched snapshots (skip/draw/patch counts)
    /// and adds the epoch counters.
    fn telemetry(&self) -> Option<MetricsSnapshot> {
        let mut snap = MetricsSnapshot::new();
        for shard in &self.shards {
            if let Some(s) = shard.engine.telemetry() {
                snap.absorb(&s);
            }
        }
        snap.refresh_maintenance_fractions();
        snap.add_counter("shard.epochs", self.epochs);
        snap.set_gauge("shard.shards", self.shards.len() as f64);
        Some(snap)
    }

    /// Advances by whole reconciliation epochs until at least one
    /// state-changing event lands (returning [`Advance::Event`] with the
    /// configuration and counter at the epoch boundary), the limit is
    /// reached, or the merged configuration is absorbing.
    fn advance(&mut self, limit: u64) -> Advance {
        if self.interactions >= limit {
            return Advance::LimitReached;
        }
        loop {
            if self.merged_productive_weight() == 0 {
                self.interactions = limit;
                return Advance::Absorbed;
            }
            let epoch = self.epoch_len.min(limit - self.interactions);
            let events = self.run_epoch(epoch);
            self.interactions += epoch;
            if events > 0 {
                return Advance::Event;
            }
            if self.interactions >= limit {
                return Advance::LimitReached;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opinion::AgentState;
    use crate::run::RunOutcome;
    use crate::stopping::StopCondition;

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

    #[test]
    fn sharded_engine_reaches_consensus_on_a_biased_instance() {
        let config = Configuration::from_counts(vec![1_800, 200], 0).unwrap();
        let mut engine = ShardedEngine::new(Usd2, config, SimSeed::from_u64(5), &ShardPlan::new(4));
        assert_eq!(engine.num_shards(), 4);
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(50_000_000));
        assert!(result.reached_consensus());
        assert_eq!(result.winner().unwrap().index(), 0);
        assert_eq!(result.scheduler(), Some(SHARDED_EPOCH_SCHEDULER_NAME));
    }

    #[test]
    fn population_and_shard_populations_are_conserved() {
        let config = Configuration::from_counts(vec![300, 200], 100).unwrap();
        let mut engine = ShardedEngine::new(Usd2, config, SimSeed::from_u64(9), &ShardPlan::new(3));
        let shard_pops: Vec<u64> = (0..3)
            .map(|s| engine.shard_configuration(s).population())
            .collect();
        assert_eq!(shard_pops, vec![200, 200, 200]);
        for _ in 0..50 {
            if engine.advance(u64::MAX) != Advance::Event {
                break;
            }
            assert_eq!(engine.configuration().population(), 600);
            assert!(engine.configuration().is_consistent());
            for (s, &pop) in shard_pops.iter().enumerate() {
                assert_eq!(engine.shard_configuration(s).population(), pop);
            }
        }
        assert!(engine.epochs() > 0);
    }

    #[test]
    fn budget_is_respected_exactly() {
        let config = Configuration::from_counts(vec![500, 500], 0).unwrap();
        let mut engine = ShardedEngine::new(Usd2, config, SimSeed::from_u64(3), &ShardPlan::new(4));
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(10_000));
        if result.outcome() == RunOutcome::BudgetExhausted {
            assert_eq!(result.interactions(), 10_000);
        } else {
            assert!(result.interactions() <= 10_000);
        }
    }

    #[test]
    fn absorbing_configuration_is_detected() {
        // All agents undecided: the USD can never change anything.
        let config = Configuration::from_counts(vec![0, 0], 100).unwrap();
        let mut engine = ShardedEngine::new(Usd2, config, SimSeed::from_u64(8), &ShardPlan::new(4));
        assert_eq!(engine.advance(1_000_000), Advance::Absorbed);
        assert_eq!(engine.interactions(), 1_000_000);
    }

    #[test]
    fn single_shard_plan_degenerates_to_plain_batching() {
        let config = Configuration::from_counts(vec![900, 100], 0).unwrap();
        let mut engine = ShardedEngine::new(Usd2, config, SimSeed::from_u64(4), &ShardPlan::new(1));
        assert_eq!(engine.num_shards(), 1);
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(20_000_000));
        assert!(result.reached_consensus());
    }

    #[test]
    fn shard_count_is_capped_at_the_population() {
        let config = Configuration::from_counts(vec![2, 1], 0).unwrap();
        let engine = ShardedEngine::new(Usd2, config, SimSeed::from_u64(1), &ShardPlan::new(16));
        assert_eq!(engine.num_shards(), 3);
    }

    #[test]
    fn telemetry_records_epoch_spans_without_changing_the_run() {
        let config = Configuration::from_counts(vec![700, 300], 0).unwrap();
        let run = |tel: Option<Telemetry>| {
            let plan = ShardPlan::new(4).threads(2);
            let mut engine = ShardedEngine::new(Usd2, config.clone(), SimSeed::from_u64(11), &plan);
            let handle = tel.unwrap_or_default();
            engine.set_telemetry(handle.clone());
            let result =
                engine.run_engine(StopCondition::consensus().or_max_interactions(20_000_000));
            (result, handle)
        };
        let (silent, _) = run(None);
        let (traced, tel) = run(Some(Telemetry::enabled()));
        // Bit-identity: telemetry only reads the clock.
        assert_eq!(silent, traced);
        let spans = tel.spans();
        assert!(spans.iter().any(|s| s.name == "shard.epoch"));
        assert!(spans.iter().any(|s| s.name == "shard.intra.forkjoin"));
        assert!(spans.iter().any(|s| s.name == "shard.reconcile"));
        crate::telemetry::check_span_nesting(&spans).unwrap();
        let snap = traced
            .telemetry()
            .expect("sharded engine reports telemetry");
        assert!(snap.counter("shard.epochs").unwrap() > 0);
        assert!(snap.counter("batched.events_drawn").unwrap() > 0);
        assert!(snap.counter("maintenance.rows_rebuilt").unwrap() > 0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let config = Configuration::from_counts(vec![700, 300], 0).unwrap();
        let run = |threads: usize| {
            let plan = ShardPlan::new(4).threads(threads);
            let mut engine = ShardedEngine::new(Usd2, config.clone(), SimSeed::from_u64(11), &plan);
            let result =
                engine.run_engine(StopCondition::consensus().or_max_interactions(20_000_000));
            (result.interactions(), result.winner())
        };
        // Identical across repeats *and* across thread counts: per-shard RNGs
        // make the result independent of scheduling.
        assert_eq!(run(1), run(1));
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn unit_epochs_realize_single_interactions() {
        let plan = ShardPlan::new(3).epoch_interactions(1);
        let config = Configuration::from_counts(vec![60, 40], 0).unwrap();
        let mut engine = ShardedEngine::new(Usd2, config, SimSeed::from_u64(2), &plan);
        for step in 1..=200u64 {
            let local = engine.interactions();
            assert!(matches!(
                engine.advance(local + 1),
                Advance::Event | Advance::LimitReached
            ));
            assert_eq!(engine.interactions(), step);
            assert!(engine.configuration().is_consistent());
        }
    }

    #[test]
    fn rebalancing_preserves_the_merged_configuration() {
        let plan = ShardPlan::new(4).rebalance_every(1);
        let config = Configuration::from_counts(vec![500, 300], 200).unwrap();
        let mut engine = ShardedEngine::new(Usd2, config, SimSeed::from_u64(6), &plan);
        for _ in 0..20 {
            if engine.advance(u64::MAX) != Advance::Event {
                break;
            }
            let remerged = merge_configurations(
                &(0..engine.num_shards())
                    .map(|s| engine.shard_configuration(s).clone())
                    .collect::<Vec<_>>(),
            );
            assert_eq!(&remerged, engine.configuration());
            assert_eq!(remerged.population(), 1_000);
        }
        assert!(engine.epochs() >= 1);
    }

    #[test]
    fn checkpoint_restores_the_identical_trajectory_tail_at_any_thread_count() {
        let config = Configuration::from_counts(vec![1_400, 600], 0).unwrap();
        let stop = StopCondition::consensus().or_max_interactions(50_000_000);
        let limit = stop.max_interactions().unwrap();
        let plan = ShardPlan::new(4).threads(2);
        let mut reference = ShardedEngine::new(Usd2, config.clone(), SimSeed::from_u64(23), &plan);
        let mut interrupted = ShardedEngine::new(Usd2, config, SimSeed::from_u64(23), &plan);
        for _ in 0..10 {
            assert_eq!(reference.advance(limit), interrupted.advance(limit));
        }
        let checkpoint = Checkpoint::capture(&interrupted);
        assert_eq!(checkpoint.kind(), "sharded");
        // Round-trip through the serialized document, like a real resume.
        let reloaded = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
        drop(interrupted);
        let mut restored = ShardedEngine::restore(Usd2, &reloaded).unwrap();
        assert_eq!(restored.num_shards(), 4);
        assert_eq!(restored.epoch_length(), reference.epoch_length());
        assert_eq!(restored.configuration(), reference.configuration());
        assert_eq!(restored.interactions(), reference.interactions());
        let expected = reference.run_engine(stop);
        let resumed = restored.run_engine(stop);
        assert_eq!(resumed, expected);
    }

    #[test]
    fn restore_rejects_foreign_kinds_and_empty_shard_lists() {
        let config = Configuration::from_counts(vec![100, 100], 0).unwrap();
        let engine = ShardedEngine::new(Usd2, config, SimSeed::from_u64(1), &ShardPlan::new(2));
        let mut snapshot = engine.capture_state();
        snapshot.shards.clear();
        assert!(matches!(
            ShardedEngine::restore_snapshot(Usd2, &snapshot),
            Err(PpError::Checkpoint { .. })
        ));
        let foreign = Checkpoint::new(EngineState::Sharded(engine.capture_state()));
        assert!(matches!(
            crate::count_sim::CountSimulator::restore(Usd2, &foreign),
            Err(PpError::Checkpoint { .. })
        ));
    }

    #[test]
    fn mismatched_opinion_counts_are_rejected() {
        #[derive(Debug, Clone)]
        struct ThreeOpinions;
        impl OpinionProtocol for ThreeOpinions {
            fn num_opinions(&self) -> usize {
                3
            }
            fn respond(&self, r: AgentState, _i: AgentState) -> AgentState {
                r
            }
        }
        let config = Configuration::from_counts(vec![10, 10], 0).unwrap();
        let err = ShardedEngine::try_new(
            ThreeOpinions,
            config,
            SimSeed::from_u64(0),
            &ShardPlan::new(2),
        )
        .unwrap_err();
        assert!(matches!(err, PpError::OpinionCountMismatch { .. }));
    }
}
