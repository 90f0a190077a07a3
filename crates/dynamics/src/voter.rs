//! The Voter and TwoChoices processes.

use crate::sampling::SamplingDynamics;
use pp_core::engine::uniform_u128_below;
use pp_core::{AgentState, Configuration, OpinionProtocol};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Draws a decided opinion proportionally to support, optionally excluding
/// one opinion (`exclude`), given the total weight of the eligible supports.
fn sample_decided_opinion<R: Rng + ?Sized>(
    config: &Configuration,
    exclude: Option<usize>,
    total: u128,
    rng: &mut R,
) -> AgentState {
    debug_assert!(total > 0);
    let mut target = uniform_u128_below(rng, total);
    for (i, &x) in config.supports().iter().enumerate() {
        if Some(i) == exclude || x == 0 {
            continue;
        }
        if target < u128::from(x) {
            return AgentState::decided(i);
        }
        target -= u128::from(x);
    }
    unreachable!("eligible support weight {total} exceeded the available counts")
}

/// The Voter process (`j = 1`): the activated agent adopts the opinion of a
/// single uniformly random agent.  Undecided samples are ignored (the agent
/// keeps its state), and an undecided agent adopts any decided sample.
///
/// # Examples
///
/// ```
/// use consensus_dynamics::{SequentialSampler, Voter};
/// use pp_core::{Configuration, SimSeed, StopCondition};
///
/// let config = Configuration::from_counts(vec![90, 10], 0).unwrap();
/// let mut sim = SequentialSampler::new(Voter::new(2), config, SimSeed::from_u64(1));
/// let result = sim.run(StopCondition::consensus().or_max_interactions(2_000_000));
/// assert!(result.reached_consensus());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Voter {
    opinions: usize,
}

impl Voter {
    /// Creates the Voter process for `k` opinions.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "the Voter process needs at least one opinion");
        Voter { opinions: k }
    }
}

impl SamplingDynamics for Voter {
    fn num_opinions(&self) -> usize {
        self.opinions
    }

    fn sample_size(&self) -> usize {
        1
    }

    fn update<R: Rng + ?Sized>(
        &self,
        current: AgentState,
        samples: &[AgentState],
        _rng: &mut R,
    ) -> AgentState {
        match samples[0] {
            AgentState::Decided(_) => samples[0],
            AgentState::Undecided => current,
        }
    }

    fn name(&self) -> &str {
        "voter"
    }

    /// Closed form: an activation is null iff the sample is undecided (any
    /// current state) or decided with the activated agent's own opinion —
    /// weight `n·u + Σ x_a²` over `n²` activations.
    fn null_activation_probability(&self, config: &Configuration) -> Option<f64> {
        let n = config.population() as f64;
        let u = config.undecided() as f64;
        let sum_sq = config.sum_of_squares() as f64;
        Some((n * u + sum_sq) / (n * n))
    }

    /// Closed form: productive activations are (current `a` decided, sample
    /// `b` decided, `b ≠ a`) with weight `x_a·x_b`, and (current `⊥`, sample
    /// `b` decided) with weight `u·x_b`.
    fn sample_productive_move<R: Rng + ?Sized>(
        &self,
        config: &Configuration,
        rng: &mut R,
    ) -> Option<(AgentState, AgentState)> {
        let k = config.num_opinions();
        let d = u128::from(config.decided());
        let u = u128::from(config.undecided());
        let total = d * d - config.sum_of_squares() + u * d;
        debug_assert!(total > 0, "no productive activation exists");
        let mut target = uniform_u128_below(rng, total);
        for cat in 0..=k {
            let row = if cat == k {
                u * d
            } else {
                let x = u128::from(config.support(cat));
                x * (d - x)
            };
            if target >= row {
                target -= row;
                continue;
            }
            // Found the activated agent's category; draw the adopted opinion.
            return Some(if cat == k {
                (
                    AgentState::Undecided,
                    sample_decided_opinion(config, None, d, rng),
                )
            } else {
                let x = u128::from(config.support(cat));
                (
                    AgentState::decided(cat),
                    sample_decided_opinion(config, Some(cat), d - x, rng),
                )
            });
        }
        unreachable!("productive weight {total} exceeded the row sums")
    }
}

/// The Voter process expressed as a one-way pairwise protocol over
/// *(responder, initiator)* pairs — the `j = 1` sampling dynamic and this
/// protocol induce the same count-vector Markov chain, so the Voter can run
/// on every [`pp_core::StepEngine`] backend, [`pp_core::BatchedEngine`]
/// included.
///
/// # Examples
///
/// ```
/// use consensus_dynamics::PairwiseVoter;
/// use pp_core::engine::{BatchedEngine, StepEngine};
/// use pp_core::{Configuration, SimSeed, StopCondition};
///
/// let config = Configuration::from_counts(vec![90, 10], 0).unwrap();
/// let mut engine = BatchedEngine::new(PairwiseVoter::new(2), config, SimSeed::from_u64(1));
/// let result = engine.run_engine(StopCondition::consensus().or_max_interactions(2_000_000));
/// assert!(result.reached_consensus());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairwiseVoter {
    opinions: usize,
}

impl PairwiseVoter {
    /// Creates the pairwise Voter for `k` opinions.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "the Voter process needs at least one opinion");
        PairwiseVoter { opinions: k }
    }
}

impl OpinionProtocol for PairwiseVoter {
    fn num_opinions(&self) -> usize {
        self.opinions
    }

    fn respond(&self, responder: AgentState, initiator: AgentState) -> AgentState {
        match initiator {
            AgentState::Decided(_) => initiator,
            AgentState::Undecided => responder,
        }
    }

    fn name(&self) -> &str {
        "voter (pairwise)"
    }
}

/// The TwoChoices process (`j = 2`): the activated agent samples two agents;
/// if both hold the same opinion it adopts that opinion, otherwise it keeps
/// its own (lazy tie-breaking toward the original opinion, as in the analysis
/// of Ghaffari and Lengler).  An undecided agent adopts the common opinion of
/// its two samples if they agree, and otherwise stays undecided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TwoChoices {
    opinions: usize,
}

impl TwoChoices {
    /// Creates the TwoChoices process for `k` opinions.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "the TwoChoices process needs at least one opinion");
        TwoChoices { opinions: k }
    }
}

impl SamplingDynamics for TwoChoices {
    fn num_opinions(&self) -> usize {
        self.opinions
    }

    fn sample_size(&self) -> usize {
        2
    }

    fn update<R: Rng + ?Sized>(
        &self,
        current: AgentState,
        samples: &[AgentState],
        _rng: &mut R,
    ) -> AgentState {
        match (samples[0], samples[1]) {
            (AgentState::Decided(a), AgentState::Decided(b)) if a == b => samples[0],
            _ => current,
        }
    }

    fn name(&self) -> &str {
        "two-choices"
    }

    /// Closed form: an activation changes the agent iff both samples are
    /// decided with the same opinion `b` and the agent's state differs from
    /// `b` — weight `Σ_b x_b²·(n − x_b)` over `n³` activations.
    fn null_activation_probability(&self, config: &Configuration) -> Option<f64> {
        let n = config.population() as f64;
        let productive: f64 = config
            .supports()
            .iter()
            .map(|&x| {
                let x = x as f64;
                x * x * (n - x)
            })
            .sum();
        Some(1.0 - productive / (n * n * n))
    }

    /// Closed form: draw the agreeing opinion `b` proportionally to
    /// `x_b²·(n − x_b)`, then the activated agent's category proportionally
    /// to counts, excluding `b` itself.
    fn sample_productive_move<R: Rng + ?Sized>(
        &self,
        config: &Configuration,
        rng: &mut R,
    ) -> Option<(AgentState, AgentState)> {
        let k = config.num_opinions();
        let n = u128::from(config.population());
        let total: u128 = config
            .supports()
            .iter()
            .map(|&x| {
                let x = u128::from(x);
                x * x * (n - x)
            })
            .sum();
        debug_assert!(total > 0, "no productive activation exists");
        let mut target = uniform_u128_below(rng, total);
        let mut winner = 0usize;
        for (i, &x) in config.supports().iter().enumerate() {
            let x = u128::from(x);
            let w = x * x * (n - x);
            if target < w {
                winner = i;
                break;
            }
            target -= w;
        }
        // The activated agent: any category except the winner itself.
        let x_b = u128::from(config.support(winner));
        let mut ctarget = uniform_u128_below(rng, n - x_b);
        for cat in 0..=k {
            if cat == winner {
                continue;
            }
            let c = u128::from(config.category_count(cat));
            if ctarget < c {
                return Some((
                    AgentState::from_category(cat, k),
                    AgentState::decided(winner),
                ));
            }
            ctarget -= c;
        }
        unreachable!("activated-agent weight exceeded the available counts")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SequentialSampler;
    use pp_core::{Configuration, SimSeed, StopCondition};

    #[test]
    fn voter_update_rules() {
        let v = Voter::new(3);
        let mut rng = SimSeed::from_u64(0).rng();
        assert_eq!(
            v.update(AgentState::decided(0), &[AgentState::decided(2)], &mut rng),
            AgentState::decided(2)
        );
        assert_eq!(
            v.update(AgentState::decided(0), &[AgentState::Undecided], &mut rng),
            AgentState::decided(0)
        );
        assert_eq!(
            v.update(AgentState::Undecided, &[AgentState::decided(1)], &mut rng),
            AgentState::decided(1)
        );
    }

    #[test]
    fn two_choices_update_rules() {
        let t = TwoChoices::new(3);
        let mut rng = SimSeed::from_u64(0).rng();
        // Agreeing samples win.
        assert_eq!(
            t.update(
                AgentState::decided(0),
                &[AgentState::decided(1), AgentState::decided(1)],
                &mut rng
            ),
            AgentState::decided(1)
        );
        // Disagreeing samples: keep own opinion (lazy).
        assert_eq!(
            t.update(
                AgentState::decided(0),
                &[AgentState::decided(1), AgentState::decided(2)],
                &mut rng
            ),
            AgentState::decided(0)
        );
        // Undecided sample breaks the pair.
        assert_eq!(
            t.update(
                AgentState::decided(0),
                &[AgentState::decided(1), AgentState::Undecided],
                &mut rng
            ),
            AgentState::decided(0)
        );
    }

    #[test]
    fn two_choices_with_bias_converges_to_plurality() {
        let config = Configuration::from_counts(vec![700, 200, 100], 0).unwrap();
        let mut sim = SequentialSampler::new(TwoChoices::new(3), config, SimSeed::from_u64(5));
        let result = sim.run(StopCondition::consensus().or_max_interactions(5_000_000));
        assert!(result.reached_consensus());
        assert_eq!(result.winner().unwrap().index(), 0);
    }

    #[test]
    fn voter_eventually_reaches_consensus_even_from_a_tie() {
        let config = Configuration::from_counts(vec![100, 100], 0).unwrap();
        let mut sim = SequentialSampler::new(Voter::new(2), config, SimSeed::from_u64(6));
        let result = sim.run(StopCondition::consensus().or_max_interactions(10_000_000));
        assert!(result.reached_consensus());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Voter::new(2).name(), "voter");
        assert_eq!(TwoChoices::new(2).name(), "two-choices");
        assert_eq!(
            pp_core::OpinionProtocol::name(&PairwiseVoter::new(2)),
            "voter (pairwise)"
        );
    }

    #[test]
    fn voter_null_probability_matches_enumeration() {
        let config = Configuration::from_counts(vec![300, 200], 500).unwrap();
        // Null weight: n·u + Σx² = 1000·500 + 130_000 = 630_000 over n².
        let p = Voter::new(2).null_activation_probability(&config).unwrap();
        assert!((p - 0.63).abs() < 1e-12, "p = {p}");
    }

    #[test]
    fn two_choices_null_probability_matches_enumeration() {
        let config = Configuration::from_counts(vec![600, 400], 0).unwrap();
        // Productive: 600²·400 + 400²·600 = 2.4e8·600/… compute directly.
        let productive = 600.0f64 * 600.0 * 400.0 + 400.0 * 400.0 * 600.0;
        let expected = 1.0 - productive / 1e9;
        let p = TwoChoices::new(2)
            .null_activation_probability(&config)
            .unwrap();
        assert!((p - expected).abs() < 1e-12, "p = {p}");
    }

    #[test]
    fn voter_conditional_moves_are_productive_and_consistent() {
        let config = Configuration::from_counts(vec![50, 30], 20).unwrap();
        let mut rng = SimSeed::from_u64(7).rng();
        for _ in 0..2_000 {
            let (from, to) = Voter::new(2)
                .sample_productive_move(&config, &mut rng)
                .unwrap();
            assert_ne!(from, to);
            assert!(to.is_decided(), "voter moves always adopt an opinion");
            let mut c = config.clone();
            c.apply_move(from, to).expect("move must be applicable");
        }
    }

    #[test]
    fn two_choices_conditional_moves_adopt_the_agreeing_opinion() {
        let config = Configuration::from_counts(vec![70, 20], 10).unwrap();
        let mut rng = SimSeed::from_u64(8).rng();
        for _ in 0..2_000 {
            let (from, to) = TwoChoices::new(2)
                .sample_productive_move(&config, &mut rng)
                .unwrap();
            assert_ne!(from, to);
            assert!(to.is_decided());
            let mut c = config.clone();
            c.apply_move(from, to).expect("move must be applicable");
        }
    }

    #[test]
    fn pairwise_voter_runs_on_both_count_engines() {
        use pp_core::engine::StepEngine;
        use pp_core::{CountEngine, EngineChoice};
        let config = Configuration::from_counts(vec![180, 20], 0).unwrap();
        for choice in [EngineChoice::Exact, EngineChoice::Batched] {
            let mut engine = CountEngine::new(
                PairwiseVoter::new(2),
                config.clone(),
                SimSeed::from_u64(5),
                choice,
            );
            let result =
                engine.run_engine(StopCondition::consensus().or_max_interactions(2_000_000));
            assert!(
                result.reached_consensus(),
                "{choice} voter failed to converge"
            );
        }
    }
}
