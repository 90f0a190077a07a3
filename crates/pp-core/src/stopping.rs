//! Stopping conditions for simulation runs.

use crate::config::Configuration;
use crate::run::RunOutcome;
use serde::{Deserialize, Serialize};

/// When a simulation run should stop.
///
/// A condition is a combination of (optional) structural goals — consensus or
/// opinion-settlement — and an (optional) interaction budget.  The run stops
/// as soon as *any* enabled goal holds or the budget is exhausted.
///
/// # Examples
///
/// ```
/// use pp_core::StopCondition;
///
/// // Stop at consensus, but give up after 10^7 interactions.
/// let stop = StopCondition::consensus().or_max_interactions(10_000_000);
/// assert_eq!(stop.max_interactions(), Some(10_000_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StopCondition {
    stop_on_consensus: bool,
    stop_on_settled: bool,
    max_interactions: Option<u64>,
}

impl StopCondition {
    /// Stop when all agents support the same opinion (`x_i = n`).
    #[must_use]
    pub fn consensus() -> Self {
        StopCondition {
            stop_on_consensus: true,
            stop_on_settled: false,
            max_interactions: None,
        }
    }

    /// Stop as soon as at most one opinion has non-zero support (the winner is
    /// determined even though undecided agents may remain).
    #[must_use]
    pub fn opinion_settled() -> Self {
        StopCondition {
            stop_on_consensus: false,
            stop_on_settled: true,
            max_interactions: None,
        }
    }

    /// Stop only when the interaction budget is exhausted.
    #[must_use]
    pub fn after_interactions(budget: u64) -> Self {
        StopCondition {
            stop_on_consensus: false,
            stop_on_settled: false,
            max_interactions: Some(budget),
        }
    }

    /// Adds an interaction budget to an existing condition.
    #[must_use]
    pub fn or_max_interactions(mut self, budget: u64) -> Self {
        self.max_interactions = Some(budget);
        self
    }

    /// Also stop when the configuration is opinion-settled.
    #[must_use]
    pub fn or_opinion_settled(mut self) -> Self {
        self.stop_on_settled = true;
        self
    }

    /// The interaction budget, if any.
    #[must_use]
    pub fn max_interactions(&self) -> Option<u64> {
        self.max_interactions
    }

    /// Returns `true` if the *structural* part of the condition is met by the
    /// given configuration (ignores the budget).
    #[must_use]
    pub fn goal_met(&self, config: &Configuration) -> bool {
        (self.stop_on_consensus && config.is_consensus())
            || (self.stop_on_settled && config.is_opinion_settled())
    }

    /// Returns `true` if a run at `interactions` steps with configuration
    /// `config` should stop.
    #[must_use]
    pub fn should_stop(&self, config: &Configuration, interactions: u64) -> bool {
        self.outcome(config, interactions).is_some()
    }

    /// How a run at `interactions` steps with configuration `config` ends,
    /// or `None` while it goes on.  The goal is checked before the budget, so
    /// a run that meets its goal on the budget's last interaction reports
    /// the goal.
    #[must_use]
    pub fn outcome(&self, config: &Configuration, interactions: u64) -> Option<RunOutcome> {
        if self.goal_met(config) {
            Some(if config.is_consensus() {
                RunOutcome::Consensus
            } else {
                RunOutcome::OpinionSettled
            })
        } else if self.max_interactions.is_some_and(|b| interactions >= b) {
            Some(RunOutcome::BudgetExhausted)
        } else {
            None
        }
    }

    /// Returns `true` if the condition can ever stop a run (it has a goal or a
    /// budget).  A condition with neither would loop forever on a
    /// non-absorbing process.
    #[must_use]
    pub fn is_bounded(&self) -> bool {
        self.stop_on_consensus || self.stop_on_settled || self.max_interactions.is_some()
    }
}

impl Default for StopCondition {
    /// The default stops at consensus (no budget).
    fn default() -> Self {
        StopCondition::consensus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consensus_goal() {
        let stop = StopCondition::consensus();
        let done = Configuration::from_counts(vec![10, 0], 0).unwrap();
        let not_done = Configuration::from_counts(vec![9, 0], 1).unwrap();
        assert!(stop.goal_met(&done));
        assert!(!stop.goal_met(&not_done));
        assert!(stop.should_stop(&done, 0));
        assert!(!stop.should_stop(&not_done, u64::MAX));
    }

    #[test]
    fn settled_goal_ignores_undecided() {
        let stop = StopCondition::opinion_settled();
        let settled = Configuration::from_counts(vec![9, 0], 1).unwrap();
        assert!(stop.goal_met(&settled));
    }

    #[test]
    fn budget_stops_runs() {
        let stop = StopCondition::consensus().or_max_interactions(100);
        let cfg = Configuration::from_counts(vec![5, 5], 0).unwrap();
        assert!(!stop.should_stop(&cfg, 99));
        assert!(stop.should_stop(&cfg, 100));
    }

    #[test]
    fn outcome_reports_the_goal_before_the_budget() {
        let stop = StopCondition::consensus()
            .or_opinion_settled()
            .or_max_interactions(100);
        let live = Configuration::from_counts(vec![5, 5], 0).unwrap();
        let settled = Configuration::from_counts(vec![9, 0], 1).unwrap();
        let done = Configuration::from_counts(vec![10, 0], 0).unwrap();
        assert_eq!(stop.outcome(&live, 99), None);
        assert_eq!(stop.outcome(&live, 100), Some(RunOutcome::BudgetExhausted));
        // A goal met exactly at the budget reports the goal.
        assert_eq!(stop.outcome(&done, 100), Some(RunOutcome::Consensus));
        assert_eq!(
            stop.outcome(&settled, 100),
            Some(RunOutcome::OpinionSettled)
        );
    }

    #[test]
    fn boundedness() {
        assert!(StopCondition::consensus().is_bounded());
        assert!(StopCondition::after_interactions(1).is_bounded());
        assert!(StopCondition::default().is_bounded());
    }
}
