//! The five-phase structure of the paper's analysis (Section 2.1).
//!
//! | Phase | End condition | Paper's running time | Horizon gap, closed per event by ≤ |
//! |---|---|---|---|
//! | 1 | `u ≥ (n − x_max)/2` | `O(n log n)` | `n − x_max − 2u`, 2 |
//! | 2 | exactly one significant opinion | `O(n² log n / x_max)` | `⌊α·√(n·ln n)⌋ − 1 − (x_max − x_2nd)`, 2 |
//! | 3 | `x_max ≥ 2·x_i` for all other `i` | `O(n² log n / x_max)` | `2·x_2nd − x_max`, 3 |
//! | 4 | `x_max ≥ 2n/3` | `O(n²/x_max + n log n)` | `2n − 3·x_max`, 3 |
//! | 5 | `x_max = n` | `O(n log n)` | `n − x_max`, 1 |
//!
//! [`PhaseTracker`] is a [`Recorder`] that measures the hitting times
//! `T1..T5` of a run, defined cumulatively as in the paper
//! (`T_i = inf{t ≥ T_{i−1} : condition_i}`).
//!
//! An event moves one agent, which changes `u` and each order statistic of
//! the supports (`x_max`, the runner-up `x_2nd`) by at most one, and `u`
//! rises only when an agent leaves an opinion, which raises no support.  So
//! no end condition can hold before the gap in the last column closes (Phase
//! 2's keeps one agent of margin for its `f64` threshold), which makes
//! [`PhaseTracker::horizon`] a certified number of events to run between
//! judgements; `UsdSimulator::run_with_phases` runs each as one leg.

use pp_core::{Configuration, Recorder};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The five analysis phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// "Rise of the undecided": until `u ≥ (n − x_max)/2`.
    RiseOfUndecided,
    /// "Generation of an additive bias": until one opinion is uniquely
    /// significant.
    AdditiveBias,
    /// "From additive to multiplicative bias": until `x_max ≥ 2·x_i` for all
    /// other opinions.
    MultiplicativeBias,
    /// "From multiplicative bias to absolute majority": until
    /// `x_max ≥ 2n/3`.
    AbsoluteMajority,
    /// "From absolute majority to consensus": until `x_max = n`.
    Consensus,
}

impl Phase {
    /// All phases in order.
    pub const ALL: [Phase; 5] = [
        Phase::RiseOfUndecided,
        Phase::AdditiveBias,
        Phase::MultiplicativeBias,
        Phase::AbsoluteMajority,
        Phase::Consensus,
    ];

    /// The 1-based phase number used in the paper.
    #[must_use]
    pub fn number(self) -> usize {
        match self {
            Phase::RiseOfUndecided => 1,
            Phase::AdditiveBias => 2,
            Phase::MultiplicativeBias => 3,
            Phase::AbsoluteMajority => 4,
            Phase::Consensus => 5,
        }
    }

    /// Returns `true` if the phase's *end condition* holds in the given
    /// configuration (using significance threshold multiplier `alpha` for
    /// Phase 2).
    #[must_use]
    pub fn end_condition_met(self, config: &Configuration, alpha: f64) -> bool {
        let n = config.population();
        let xmax = config.max_support();
        match self {
            Phase::RiseOfUndecided => 2 * config.undecided() >= n.saturating_sub(xmax),
            Phase::AdditiveBias => config.has_unique_significant_opinion(alpha),
            Phase::MultiplicativeBias => {
                let max_idx = config.max_opinion().index();
                config
                    .supports()
                    .iter()
                    .enumerate()
                    .all(|(i, &x)| i == max_idx || xmax >= 2 * x)
            }
            Phase::AbsoluteMajority => 3 * xmax >= 2 * n,
            Phase::Consensus => config.is_consensus(),
        }
    }

    /// The paper's asymptotic bound on the number of interactions spent in
    /// this phase, evaluated (up to the stated constants where the paper gives
    /// them) for a population of `n` agents whose plurality opinion has
    /// support `x_max` at the start of the phase.
    #[must_use]
    pub fn interaction_bound(self, n: u64, x_max: u64) -> f64 {
        let n_f = n as f64;
        let x = (x_max.max(1)) as f64;
        let log_n = n_f.max(2.0).ln();
        match self {
            Phase::RiseOfUndecided => 7.0 * n_f * log_n,
            Phase::AdditiveBias => 40.0 * n_f * n_f * log_n / x,
            Phase::MultiplicativeBias => 420.0 * n_f * n_f * log_n / x,
            Phase::AbsoluteMajority => 7.0 * n_f * log_n + 444.0 * n_f * n_f / x,
            Phase::Consensus => 7.0 * n_f * log_n,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Phase::RiseOfUndecided => "phase 1 (rise of the undecided)",
            Phase::AdditiveBias => "phase 2 (generation of an additive bias)",
            Phase::MultiplicativeBias => "phase 3 (additive to multiplicative bias)",
            Phase::AbsoluteMajority => "phase 4 (multiplicative bias to absolute majority)",
            Phase::Consensus => "phase 5 (absolute majority to consensus)",
        };
        f.write_str(name)
    }
}

/// The hitting times `T1..T5` of a run (in interactions), if reached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimes {
    times: [Option<u64>; 5],
}

impl PhaseTimes {
    /// The hitting time of the given phase's end condition, if it was reached.
    #[must_use]
    pub fn hitting_time(&self, phase: Phase) -> Option<u64> {
        self.times[phase.number() - 1]
    }

    /// The number of interactions spent *inside* the given phase:
    /// `T_i − T_{i−1}` (with `T_0 = 0`), if both endpoints were reached.
    #[must_use]
    pub fn duration(&self, phase: Phase) -> Option<u64> {
        let end = self.hitting_time(phase)?;
        let start = match phase.number() {
            1 => 0,
            i => self.times[i - 2]?,
        };
        Some(end - start)
    }

    /// Returns `true` if every phase completed.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.times.iter().all(Option::is_some)
    }

    /// The last phase whose end condition was observed, if any.
    #[must_use]
    pub fn last_completed(&self) -> Option<Phase> {
        Phase::ALL
            .iter()
            .copied()
            .rfind(|p| self.hitting_time(*p).is_some())
    }
}

/// A [`Recorder`] that measures the phase hitting times of a run.
///
/// The tracker follows the paper's cumulative definition: the end condition of
/// phase `i` is only checked once phase `i − 1` has ended, so e.g. a
/// configuration that starts with a huge bias registers `T1` only when the
/// undecided pool first satisfies the Phase 1 condition, even though later
/// phase conditions may already hold.
///
/// # Examples
///
/// ```
/// use usd_core::{PhaseTracker, UsdSimulator, Phase};
/// use pp_core::{SimSeed, StopCondition, Configuration};
///
/// let config = Configuration::from_counts(vec![600, 250, 150], 0).unwrap();
/// let mut tracker = PhaseTracker::new(1.0);
/// let mut sim = UsdSimulator::new(config, SimSeed::from_u64(2));
/// sim.run_recorded(StopCondition::consensus().or_max_interactions(10_000_000), &mut tracker);
/// let times = tracker.times();
/// assert!(times.hitting_time(Phase::Consensus).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTracker {
    alpha: f64,
    times: PhaseTimes,
}

impl PhaseTracker {
    /// Creates a tracker using significance threshold `α·√(n·ln n)` for the
    /// Phase 2 end condition.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        PhaseTracker {
            alpha,
            times: PhaseTimes::default(),
        }
    }

    /// The significance multiplier `α`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The hitting times measured so far.
    #[must_use]
    pub fn times(&self) -> PhaseTimes {
        self.times
    }

    /// The phase the run is currently in (the first phase whose end condition
    /// has not yet been registered), or `None` if all phases completed.
    #[must_use]
    pub fn current_phase(&self) -> Option<Phase> {
        Phase::ALL
            .iter()
            .copied()
            .find(|p| self.times.hitting_time(*p).is_none())
    }

    /// How many events, each moving one agent of `config`, must pass before
    /// the current phase's end condition can first hold (see the module
    /// docs): at least 1, and `u64::MAX` once every phase completed.
    #[must_use]
    pub fn horizon(&self, config: &Configuration) -> u64 {
        let Some(phase) = self.current_phase() else {
            return u64::MAX;
        };
        let (mut first, mut second) = (0, 0);
        for &x in config.supports() {
            if x > first {
                (first, second) = (x, first);
            } else if x > second {
                second = x;
            }
        }
        let [n, u, first, second] =
            [config.population(), config.undecided(), first, second].map(u128::from);
        let (gap, per_event) = match phase {
            Phase::RiseOfUndecided => ((n - first).saturating_sub(2 * u), 2),
            // Below 2⁵² agents every count converts to `f64` exactly and the
            // threshold subtraction rounds by at most half an agent.
            Phase::AdditiveBias if n < 1 << 52 => {
                let need = config.significance_threshold(self.alpha).floor() - 1.0;
                ((need as u128).saturating_sub(first - second), 2)
            }
            Phase::AdditiveBias => (0, 1),
            Phase::MultiplicativeBias => ((2 * second).saturating_sub(first), 3),
            Phase::AbsoluteMajority => ((2 * n).saturating_sub(3 * first), 3),
            Phase::Consensus => (n - first, 1),
        };
        u64::try_from(gap.div_ceil(per_event)).map_or(u64::MAX, |h| h.max(1))
    }
}

impl Recorder for PhaseTracker {
    fn record(&mut self, interactions: u64, config: &Configuration) {
        // Register as many consecutive phase completions as currently hold;
        // several conditions can first hold simultaneously (e.g. a run that
        // starts at consensus).
        while let Some(phase) = self.current_phase() {
            if phase.end_condition_met(config, self.alpha) {
                self.times.times[phase.number() - 1] = Some(interactions);
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(counts: Vec<u64>, u: u64) -> Configuration {
        Configuration::from_counts(counts, u).unwrap()
    }

    #[test]
    fn phase_numbers_and_ordering() {
        let numbers: Vec<usize> = Phase::ALL.iter().map(|p| p.number()).collect();
        assert_eq!(numbers, vec![1, 2, 3, 4, 5]);
        assert!(Phase::RiseOfUndecided < Phase::Consensus);
    }

    #[test]
    fn phase1_condition_is_undecided_threshold() {
        // n = 100, xmax = 40: condition u >= 30.
        assert!(!Phase::RiseOfUndecided.end_condition_met(&cfg(vec![40, 31], 29), 1.0));
        assert!(Phase::RiseOfUndecided.end_condition_met(&cfg(vec![40, 30], 30), 1.0));
    }

    #[test]
    fn phase2_condition_is_unique_significance() {
        // n = 10_000, sqrt(n ln n) ~ 303.
        let tied = cfg(vec![3_000, 2_900, 100], 4_000);
        assert!(!Phase::AdditiveBias.end_condition_met(&tied, 1.0));
        let separated = cfg(vec![3_000, 2_000, 1_000], 4_000);
        assert!(Phase::AdditiveBias.end_condition_met(&separated, 1.0));
    }

    #[test]
    fn phase3_condition_requires_factor_two_over_every_rival() {
        let ok = cfg(vec![500, 250, 100], 150);
        assert!(Phase::MultiplicativeBias.end_condition_met(&ok, 1.0));
        let not_ok = cfg(vec![500, 300, 100], 100);
        assert!(!Phase::MultiplicativeBias.end_condition_met(&not_ok, 1.0));
        // Zero-support rivals are fine.
        let ok = cfg(vec![500, 0, 0], 500);
        assert!(Phase::MultiplicativeBias.end_condition_met(&ok, 1.0));
    }

    #[test]
    fn phase4_and_phase5_conditions() {
        assert!(Phase::AbsoluteMajority.end_condition_met(&cfg(vec![67, 33], 0), 1.0));
        assert!(!Phase::AbsoluteMajority.end_condition_met(&cfg(vec![66, 34], 0), 1.0));
        assert!(Phase::Consensus.end_condition_met(&cfg(vec![100, 0], 0), 1.0));
        assert!(!Phase::Consensus.end_condition_met(&cfg(vec![99, 0], 1), 1.0));
    }

    #[test]
    fn interaction_bounds_scale_as_stated() {
        let n = 100_000u64;
        // With x_max = n/k, phase 2 bound is ~ k n log n.
        let k = 10u64;
        let b = Phase::AdditiveBias.interaction_bound(n, n / k);
        let expected = 40.0 * (k as f64) * (n as f64) * (n as f64).ln();
        assert!((b - expected).abs() / expected < 1e-9);
        // Phase 1 and 5 bounds are ~ n log n, independent of x_max.
        assert_eq!(
            Phase::RiseOfUndecided.interaction_bound(n, 1),
            Phase::RiseOfUndecided.interaction_bound(n, n)
        );
    }

    #[test]
    fn tracker_registers_phases_in_order() {
        let mut tracker = PhaseTracker::new(1.0);
        // Interaction 0: nothing holds (biasless, no undecided).
        tracker.record(0, &cfg(vec![50, 50], 0));
        assert_eq!(tracker.times().hitting_time(Phase::RiseOfUndecided), None);
        // Interaction 10: undecided pool has risen.
        tracker.record(10, &cfg(vec![30, 30], 40));
        assert_eq!(
            tracker.times().hitting_time(Phase::RiseOfUndecided),
            Some(10)
        );
        assert_eq!(tracker.times().hitting_time(Phase::AdditiveBias), None);
        // Interaction 20: one opinion dominant and 2/3 majority reached, so
        // phases 2, 3, 4 all register at once; consensus not yet.
        tracker.record(20, &cfg(vec![90, 2], 8));
        assert_eq!(tracker.times().hitting_time(Phase::AdditiveBias), Some(20));
        assert_eq!(
            tracker.times().hitting_time(Phase::MultiplicativeBias),
            Some(20)
        );
        assert_eq!(
            tracker.times().hitting_time(Phase::AbsoluteMajority),
            Some(20)
        );
        assert_eq!(tracker.times().hitting_time(Phase::Consensus), None);
        // Interaction 30: consensus.
        tracker.record(30, &cfg(vec![100, 0], 0));
        let times = tracker.times();
        assert!(times.completed());
        assert_eq!(times.hitting_time(Phase::Consensus), Some(30));
        assert_eq!(times.duration(Phase::Consensus), Some(10));
        assert_eq!(times.duration(Phase::RiseOfUndecided), Some(10));
        assert_eq!(times.last_completed(), Some(Phase::Consensus));
        assert_eq!(tracker.current_phase(), None);
    }

    #[test]
    fn durations_are_none_when_phase_not_reached() {
        let mut tracker = PhaseTracker::new(1.0);
        tracker.record(0, &cfg(vec![50, 50], 0));
        let times = tracker.times();
        assert_eq!(times.duration(Phase::AdditiveBias), None);
        assert_eq!(times.last_completed(), None);
        assert!(!times.completed());
        assert_eq!(tracker.current_phase(), Some(Phase::RiseOfUndecided));
    }

    /// Moves one agent from category `from` to category `to`.
    fn shift(config: &mut Configuration, from: usize, to: usize) {
        let k = config.num_opinions();
        let state = |cat| pp_core::AgentState::from_category(cat, k);
        config.apply_move(state(from), state(to)).unwrap();
    }

    /// A tracker inside `phase` (every earlier phase registered at 0).
    fn tracker_in(phase: Phase) -> PhaseTracker {
        let mut tracker = PhaseTracker::new(1.0);
        for earlier in &mut tracker.times.times[..phase.number() - 1] {
            *earlier = Some(0);
        }
        tracker
    }

    /// The horizon at `start` is tight: `moves`, one per event, first meet
    /// the current phase's end condition at the last of them.
    fn assert_tight(phase: Phase, start: Configuration, moves: &[(usize, usize)]) {
        let tracker = tracker_in(phase);
        assert_eq!(
            tracker.horizon(&start),
            moves.len() as u64,
            "{phase} at {start}"
        );
        let mut config = start;
        for (done, &(from, to)) in moves.iter().enumerate() {
            assert!(
                !phase.end_condition_met(&config, 1.0),
                "{phase} after {done} moves"
            );
            shift(&mut config, from, to);
        }
        assert!(phase.end_condition_met(&config, 1.0), "{phase} at {config}");
    }

    #[test]
    fn horizons_are_tight_where_every_event_can_close_the_gap_fully() {
        // Categories: opinions 0 and 1, then the undecided pool (2).
        // Phase 1: 60 − 50 − 2·0 = 10, closed by 2 per decided-to-⊥ move.
        assert_tight(Phase::RiseOfUndecided, cfg(vec![50, 10], 0), &[(1, 2); 5]);
        // Phase 3: 2·10 − 10 = 10, closed by 3 per move from the runner-up
        // to the plurality.
        assert_tight(
            Phase::MultiplicativeBias,
            cfg(vec![10, 10], 0),
            &[(1, 0); 4],
        );
        // Phase 4: 2·30 − 3·15 = 15, closed by 3 per move that raises x_max.
        assert_tight(Phase::AbsoluteMajority, cfg(vec![15, 15], 0), &[(1, 0); 5]);
        // Phase 5: 60 − 58 = 2 undecided agents still to adopt.
        assert_tight(Phase::Consensus, cfg(vec![58, 0], 2), &[(2, 0); 2]);
    }

    #[test]
    fn the_phase_two_horizon_keeps_one_agent_of_margin() {
        // n = 10_000: threshold 303.5, so the gap under the 302 agents of
        // margin is 302 − (3_000 − 2_900) = 202, closed by 2 per event.
        let config = cfg(vec![3_000, 2_900, 100], 4_000);
        assert_eq!(tracker_in(Phase::AdditiveBias).horizon(&config), 101);
        // The 101st move from the runner-up to the plurality still leaves
        // the condition unmet; it first holds at the 102nd.
        let mut moved = config.clone();
        for _ in 0..101 {
            shift(&mut moved, 1, 0);
        }
        assert!(!Phase::AdditiveBias.end_condition_met(&moved, 1.0));
        shift(&mut moved, 1, 0);
        assert!(Phase::AdditiveBias.end_condition_met(&moved, 1.0));
        // A threshold no configuration can clear gives no margin to keep.
        let mut tracker = tracker_in(Phase::AdditiveBias);
        tracker.alpha = -1.0;
        assert_eq!(tracker.horizon(&config), 1);
        // A finished tracker has no phase to end.
        tracker.times.times = [Some(0); 5];
        assert_eq!(tracker.horizon(&config), u64::MAX);
    }

    #[test]
    fn display_contains_phase_number_text() {
        assert!(Phase::AdditiveBias.to_string().contains("phase 2"));
    }

    #[test]
    fn small_population_phase1_condition_saturates() {
        // xmax = n: condition is u >= 0, always true.
        assert!(Phase::RiseOfUndecided.end_condition_met(&cfg(vec![5, 0], 0), 1.0));
    }
}
