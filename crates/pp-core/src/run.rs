//! Run results.

use crate::config::Configuration;
use crate::opinion::Opinion;
use crate::telemetry::MetricsSnapshot;
use serde::{Deserialize, Serialize};

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// All agents agree on one opinion (`x_i = n`).
    Consensus,
    /// At most one opinion retains non-zero support (undecided agents may
    /// remain, but the eventual winner is already determined).
    OpinionSettled,
    /// The interaction budget was exhausted before the goal was reached.
    BudgetExhausted,
}

impl RunOutcome {
    /// Returns `true` if the run reached its structural goal (consensus or
    /// settlement) rather than running out of budget.
    #[must_use]
    pub fn is_goal(self) -> bool {
        !matches!(self, RunOutcome::BudgetExhausted)
    }
}

/// How an engine kept its sampling law (row table or activation law) in sync
/// with the evolving counts over one run: how often the law was *patched* in
/// `O(delta)` from the applied event versus *rebuilt* from scratch.
///
/// Incremental maintenance is bit-identical to rebuilding by construction
/// (all maintained weights are exact integers), so these counters measure
/// cost, not accuracy: a run dominated by `rows_rebuilt`/`law_rebuilds` is
/// paying the full per-event law cost the incremental layer exists to avoid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaintenanceStats {
    /// Row tables updated in place by applying the event's `(from, to)` delta.
    pub rows_patched: u64,
    /// Row tables recomputed from the full counts (first event, invalidation
    /// after external count edits, or a protocol without the delta rule).
    pub rows_rebuilt: u64,
    /// Activation laws updated in place across a `±1` counts change.
    pub law_patches: u64,
    /// Activation laws recomputed from the full counts on purpose (first
    /// event, parameter change, or incremental maintenance disabled).
    pub law_rebuilds: u64,
    /// Activation laws recomputed because the integer closed form ran out of
    /// headroom and the evaluation fell back to the floating-point program —
    /// a *per-event* cost (e.g. the j-Majority at `j = 7`, `n = 10⁶`), kept
    /// separate from `law_rebuilds` so the u128-headroom caveat is visible
    /// instead of lumped in with intentional cold rebuilds.
    pub law_fallback_rebuilds: u64,
}

impl MaintenanceStats {
    /// Accumulates another engine's counters into this one (used when a run
    /// aggregates several engines, e.g. ensemble replicas or shards).
    pub fn absorb(&mut self, other: MaintenanceStats) {
        self.rows_patched += other.rows_patched;
        self.rows_rebuilt += other.rows_rebuilt;
        self.law_patches += other.law_patches;
        self.law_rebuilds += other.law_rebuilds;
        self.law_fallback_rebuilds += other.law_fallback_rebuilds;
    }

    /// Fraction of row-table refreshes served by the incremental patch, if
    /// any refresh happened.
    #[must_use]
    pub fn rows_patched_fraction(&self) -> Option<f64> {
        let total = self.rows_patched + self.rows_rebuilt;
        (total > 0).then(|| self.rows_patched as f64 / total as f64)
    }

    /// Fraction of activation-law refreshes served by the incremental patch,
    /// if any refresh happened.  Fallback rebuilds count toward the
    /// denominator: a workload past the integer-headroom gate pays the full
    /// law cost per event, and this fraction should say so.
    #[must_use]
    pub fn law_patched_fraction(&self) -> Option<f64> {
        let total = self.law_patches + self.law_rebuilds + self.law_fallback_rebuilds;
        (total > 0).then(|| self.law_patches as f64 / total as f64)
    }
}

/// The result of a single simulation run.
///
/// # Examples
///
/// ```
/// use pp_core::{Configuration, RunOutcome, RunResult};
///
/// let final_config = Configuration::from_counts(vec![100, 0], 0).unwrap();
/// let r = RunResult::new(RunOutcome::Consensus, 12_345, final_config);
/// assert!(r.reached_consensus());
/// assert_eq!(r.winner().unwrap().index(), 0);
/// assert!((r.parallel_time() - 123.45).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    outcome: RunOutcome,
    interactions: u64,
    final_configuration: Configuration,
    scheduler: Option<String>,
    rejection_misses: Option<u64>,
    #[serde(default)]
    maintenance: Option<MaintenanceStats>,
    #[serde(default)]
    telemetry: Option<MetricsSnapshot>,
}

/// Equality compares what the run *computed* — outcome, interaction count,
/// final configuration, scheduler, rejection counters — and deliberately
/// ignores the [`MaintenanceStats`] and the telemetry snapshot:
/// patch-vs-rebuild counts, cache statistics and timings describe how an
/// engine kept its tables in sync and may legitimately differ between
/// bit-identical runs (a restored run rebuilds the tables and laws its
/// checkpoint left out; timings differ on every run).
impl PartialEq for RunResult {
    fn eq(&self, other: &Self) -> bool {
        self.outcome == other.outcome
            && self.interactions == other.interactions
            && self.final_configuration == other.final_configuration
            && self.scheduler == other.scheduler
            && self.rejection_misses == other.rejection_misses
    }
}

impl RunResult {
    /// Creates a run result (with no scheduler recorded; see
    /// [`RunResult::with_scheduler`]).
    #[must_use]
    pub fn new(outcome: RunOutcome, interactions: u64, final_configuration: Configuration) -> Self {
        RunResult {
            outcome,
            interactions,
            final_configuration,
            scheduler: None,
            rejection_misses: None,
            maintenance: None,
            telemetry: None,
        }
    }

    /// Records the name of the interaction scheduler that produced this run,
    /// so experiment reports can identify it.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: impl Into<String>) -> Self {
        self.scheduler = Some(scheduler.into());
        self
    }

    /// The name of the interaction scheduler that produced this run, if the
    /// simulator recorded one.
    #[must_use]
    pub fn scheduler(&self) -> Option<&str> {
        self.scheduler.as_deref()
    }

    /// Records how many unproductive draws the engine discarded in
    /// rejection-sampling fallbacks during this run (`None` = the engine has
    /// no rejection path; see `StepEngine::rejection_misses`).
    #[must_use]
    pub fn with_rejection_misses(mut self, misses: Option<u64>) -> Self {
        self.rejection_misses = misses;
        self
    }

    /// The number of unproductive draws discarded by rejection-sampling
    /// fallbacks, if the engine counted any — the measured baseline for
    /// replacing rejection loops with closed-form conditional samplers.
    #[must_use]
    pub fn rejection_misses(&self) -> Option<u64> {
        self.rejection_misses
    }

    /// Records the engine's law-maintenance counters (`None` = the engine
    /// does not maintain laws across events; see `StepEngine::maintenance`).
    #[must_use]
    pub fn with_maintenance(mut self, maintenance: Option<MaintenanceStats>) -> Self {
        self.maintenance = maintenance;
        self
    }

    /// How the engine's sampling laws were kept in sync with the counts
    /// (patched in `O(delta)` vs rebuilt from scratch), if it counted.
    #[must_use]
    pub fn maintenance(&self) -> Option<MaintenanceStats> {
        self.maintenance
    }

    /// Records the engine's flat telemetry snapshot (`None` = the engine
    /// exposes no metrics; see `StepEngine::telemetry`).  Like the
    /// maintenance counters, the snapshot is ignored by equality.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Option<MetricsSnapshot>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The engine's unified metrics snapshot for this run (the one-surface
    /// replacement for the bespoke `rejection_misses` / `maintenance`
    /// accessors, which remain as deprecated-in-spirit aliases).
    #[must_use]
    pub fn telemetry(&self) -> Option<&MetricsSnapshot> {
        self.telemetry.as_ref()
    }

    /// Why the run stopped.
    #[must_use]
    pub fn outcome(&self) -> RunOutcome {
        self.outcome
    }

    /// Number of interactions performed.
    #[must_use]
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Interactions divided by the population size `n` — the standard
    /// conversion between the population protocol model's interaction count
    /// and the gossip model's parallel rounds.
    #[must_use]
    pub fn parallel_time(&self) -> f64 {
        self.interactions as f64 / self.final_configuration.population() as f64
    }

    /// The configuration at the end of the run.
    #[must_use]
    pub fn final_configuration(&self) -> &Configuration {
        &self.final_configuration
    }

    /// Returns `true` if the final configuration is a consensus.
    #[must_use]
    pub fn reached_consensus(&self) -> bool {
        self.final_configuration.is_consensus()
    }

    /// Returns `true` if the final configuration has at most one live opinion.
    #[must_use]
    pub fn opinion_settled(&self) -> bool {
        self.final_configuration.is_opinion_settled()
    }

    /// The winning opinion: the consensus opinion if consensus was reached,
    /// or the unique surviving opinion if the run settled, otherwise `None`.
    #[must_use]
    pub fn winner(&self) -> Option<Opinion> {
        if self.final_configuration.is_consensus() {
            self.final_configuration.consensus_opinion()
        } else if self.final_configuration.is_opinion_settled()
            && self.final_configuration.max_support() > 0
        {
            Some(self.final_configuration.max_opinion())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn winner_for_settled_but_not_consensus() {
        let cfg = Configuration::from_counts(vec![0, 40, 0], 60).unwrap();
        let r = RunResult::new(RunOutcome::OpinionSettled, 99, cfg);
        assert!(!r.reached_consensus());
        assert!(r.opinion_settled());
        assert_eq!(r.winner(), Some(Opinion::new(1)));
    }

    #[test]
    fn no_winner_when_budget_exhausted_with_multiple_live_opinions() {
        let cfg = Configuration::from_counts(vec![40, 40], 20).unwrap();
        let r = RunResult::new(RunOutcome::BudgetExhausted, 1000, cfg);
        assert_eq!(r.winner(), None);
        assert!(!r.outcome().is_goal());
    }

    #[test]
    fn outcome_goal_flags() {
        assert!(RunOutcome::Consensus.is_goal());
        assert!(RunOutcome::OpinionSettled.is_goal());
        assert!(!RunOutcome::BudgetExhausted.is_goal());
    }

    #[test]
    fn rejection_misses_are_recorded_when_provided() {
        let cfg = Configuration::from_counts(vec![10, 0], 0).unwrap();
        let r = RunResult::new(RunOutcome::Consensus, 5, cfg);
        assert_eq!(r.rejection_misses(), None);
        let r = r.with_rejection_misses(Some(42));
        assert_eq!(r.rejection_misses(), Some(42));
    }

    #[test]
    fn maintenance_stats_are_recorded_and_aggregated() {
        let cfg = Configuration::from_counts(vec![10, 0], 0).unwrap();
        let r = RunResult::new(RunOutcome::Consensus, 5, cfg);
        assert_eq!(r.maintenance(), None);
        let mut stats = MaintenanceStats {
            rows_patched: 30,
            rows_rebuilt: 10,
            law_patches: 0,
            law_rebuilds: 0,
            law_fallback_rebuilds: 0,
        };
        stats.absorb(MaintenanceStats {
            rows_patched: 0,
            rows_rebuilt: 0,
            law_patches: 3,
            law_rebuilds: 1,
            law_fallback_rebuilds: 4,
        });
        let r = r.with_maintenance(Some(stats));
        let recorded = r.maintenance().unwrap();
        assert_eq!(recorded.rows_patched, 30);
        assert_eq!(recorded.law_rebuilds, 1);
        assert_eq!(recorded.law_fallback_rebuilds, 4);
        assert_eq!(recorded.rows_patched_fraction(), Some(0.75));
        assert_eq!(recorded.law_patched_fraction(), Some(0.375));
        assert_eq!(MaintenanceStats::default().rows_patched_fraction(), None);
    }

    #[test]
    fn equality_ignores_maintenance_counters() {
        // Bit-identical trajectories can run under different maintenance
        // schedules (a restored run rebuilds what its checkpoint left out);
        // equality must not distinguish them.
        let cfg = Configuration::from_counts(vec![10, 0], 0).unwrap();
        let bare = RunResult::new(RunOutcome::Consensus, 5, cfg);
        let counted = bare.clone().with_maintenance(Some(MaintenanceStats {
            rows_patched: 4,
            rows_rebuilt: 1,
            law_patches: 0,
            law_rebuilds: 0,
            law_fallback_rebuilds: 0,
        }));
        assert_eq!(bare, counted);
        let other = RunResult::new(
            RunOutcome::Consensus,
            6,
            Configuration::from_counts(vec![10, 0], 0).unwrap(),
        );
        assert_ne!(bare, other);
    }

    #[test]
    fn scheduler_name_is_recorded_when_provided() {
        let cfg = Configuration::from_counts(vec![10, 0], 0).unwrap();
        let bare = RunResult::new(RunOutcome::Consensus, 5, cfg.clone());
        assert_eq!(bare.scheduler(), None);
        let named = bare.with_scheduler("uniform ordered pairs (self-interactions allowed)");
        assert_eq!(
            named.scheduler(),
            Some("uniform ordered pairs (self-interactions allowed)")
        );
    }
}
