//! Shard-plan configuration: how a population is split and scheduled.

use crate::parallel::Parallelism;
use serde::{Deserialize, Serialize};

/// Default denominator of the automatic epoch length: an epoch spans
/// `n / EPOCH_AUTO_DENOMINATOR` interactions (at least one).
///
/// The epoch length is the sharded engine's accuracy/throughput dial: counts
/// move by at most one agent per interaction, so over an epoch of `εn`
/// interactions every category count drifts by at most a fraction `ε` of the
/// population, and the frozen-initiator reconciliation error per epoch is
/// `O(ε)` in the transition probabilities.  `1/32` keeps the measured bias
/// well below statistical noise (see the E14 bias check and the sharded
/// equivalence test suite) while leaving the per-epoch scheduling overhead —
/// `O(S² + S·k)` for `S` shards — negligible against the event work.
pub const EPOCH_AUTO_DENOMINATOR: u64 = 32;

/// Configuration of a [`crate::shard::ShardedEngine`]: shard count, epoch
/// length, worker threads and the optional re-balancing cadence.
///
/// # Examples
///
/// ```
/// use pp_core::shard::ShardPlan;
///
/// let plan = ShardPlan::new(8).epoch_interactions(100_000).threads(4);
/// assert_eq!(plan.shards(), 8);
/// assert_eq!(plan.epoch_for(1_000_000), 100_000);
/// // The automatic epoch length tracks the population size.
/// assert_eq!(ShardPlan::new(8).epoch_for(3_200), 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlan {
    shards: usize,
    epoch_interactions: Option<u64>,
    /// Defaulted so pre-knob serialized plans keep deserializing once the
    /// real serde is swapped back in (the vendored derive is a no-op).
    #[serde(default)]
    parallelism: Parallelism,
    rebalance_every: Option<u64>,
}

impl ShardPlan {
    /// A plan with `shards` shards, automatic epoch length (`n / 32`),
    /// automatic thread count (the machine's available parallelism, capped at
    /// the shard count) and no re-balancing.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a sharded engine needs at least one shard");
        ShardPlan {
            shards,
            epoch_interactions: None,
            parallelism: Parallelism::auto(),
            rebalance_every: None,
        }
    }

    /// The number of shards the population is split into.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Fixes the reconciliation epoch length to the given number of
    /// interactions (the default derives it from the population size).
    ///
    /// # Panics
    ///
    /// Panics if `interactions == 0`.
    #[must_use]
    pub fn epoch_interactions(mut self, interactions: u64) -> Self {
        assert!(
            interactions >= 1,
            "an epoch must span at least one interaction"
        );
        self.epoch_interactions = Some(interactions);
        self
    }

    /// The epoch length used for a population of `n` agents.
    #[must_use]
    pub fn epoch_for(&self, n: u64) -> u64 {
        self.epoch_interactions
            .unwrap_or_else(|| (n / EPOCH_AUTO_DENOMINATOR).max(1))
    }

    /// Caps the number of worker threads (the default is the machine's
    /// available parallelism, via the shared [`Parallelism`] knob).  The
    /// thread count is additionally capped at the shard count; with one
    /// thread the engine runs the shard loop inline, which keeps tiny
    /// populations cheap.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn threads(self, threads: usize) -> Self {
        self.with_parallelism(Parallelism::fixed(threads))
    }

    /// Selects the worker-thread knob directly (the same [`Parallelism`]
    /// the replica ensemble's `EnsembleChoice` carries).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The worker-thread knob.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The worker-thread count the plan resolves to on this machine.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        self.parallelism.resolve(self.shards)
    }

    /// Re-splits the merged counts across shards every `epochs` epochs.
    ///
    /// Shard labels are exchangeable — the merged trajectory law does not
    /// depend on which agents carry which label — so a periodic proportional
    /// re-split is a pure load-leveling heuristic: it keeps every shard's
    /// composition close to the global mix (useful when a long run drives
    /// some shards into absorbing local states ahead of others) without
    /// changing the merged counts at the instant of the re-split.
    ///
    /// # Panics
    ///
    /// Panics if `epochs == 0`.
    #[must_use]
    pub fn rebalance_every(mut self, epochs: u64) -> Self {
        assert!(epochs >= 1, "re-balance cadence must be at least one epoch");
        self.rebalance_every = Some(epochs);
        self
    }

    /// The re-balance cadence, if any.
    #[must_use]
    pub fn rebalance_cadence(&self) -> Option<u64> {
        self.rebalance_every
    }

    /// The effective shard count for a population of `n` agents: shards never
    /// outnumber agents (every shard must own at least one agent).
    #[must_use]
    pub fn effective_shards(&self, n: u64) -> usize {
        usize::try_from(n).map_or(self.shards, |n| self.shards.min(n.max(1)))
    }
}

impl Default for ShardPlan {
    /// Four shards, automatic epoch length and thread count, no re-balancing.
    fn default() -> Self {
        ShardPlan::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_epoch_tracks_population() {
        let plan = ShardPlan::new(4);
        assert_eq!(plan.epoch_for(3200), 100);
        assert_eq!(plan.epoch_for(10), 1);
        assert_eq!(plan.epoch_for(0), 1);
    }

    #[test]
    fn explicit_epoch_overrides_auto() {
        let plan = ShardPlan::new(4).epoch_interactions(7);
        assert_eq!(plan.epoch_for(1_000_000), 7);
    }

    #[test]
    fn threads_are_capped_at_shards() {
        let plan = ShardPlan::new(2).threads(16);
        assert_eq!(plan.resolved_threads(), 2);
        assert!(ShardPlan::new(64).resolved_threads() >= 1);
    }

    #[test]
    fn parallelism_knob_round_trips() {
        assert_eq!(ShardPlan::new(4).parallelism(), Parallelism::auto());
        let plan = ShardPlan::new(4).threads(3);
        assert_eq!(plan.parallelism(), Parallelism::fixed(3));
        let cores = Parallelism::auto().resolve(usize::MAX);
        assert_eq!(plan.resolved_threads(), 3.min(cores));
        let plan = ShardPlan::new(4).with_parallelism(Parallelism::single());
        assert_eq!(plan.resolved_threads(), 1);
    }

    #[test]
    fn effective_shards_never_exceed_population() {
        let plan = ShardPlan::new(8);
        assert_eq!(plan.effective_shards(3), 3);
        assert_eq!(plan.effective_shards(1_000), 8);
        assert_eq!(plan.effective_shards(1), 1);
    }

    #[test]
    fn rebalance_cadence_round_trips() {
        assert_eq!(ShardPlan::new(2).rebalance_cadence(), None);
        assert_eq!(
            ShardPlan::new(2).rebalance_every(5).rebalance_cadence(),
            Some(5)
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_are_rejected() {
        let _ = ShardPlan::new(0);
    }
}
