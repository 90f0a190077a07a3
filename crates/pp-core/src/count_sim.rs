//! The count-based simulator.
//!
//! For opinion dynamics over `{1..k, ⊥}` the process is a Markov chain on the
//! count vector: the probability that the next interaction involves a
//! responder of category `a` and an initiator of category `b` is
//! `count(a)·count(b)/n²` (self-interactions allowed, matching the paper's
//! scheduler).  [`CountSimulator`] therefore samples the two *categories*
//! directly — `O(log k)` per interaction via a Fenwick tree — instead of
//! touching individual agents, which makes runs of `Θ(k·n·log n)` interactions
//! on populations of 10⁵–10⁶ agents practical on a laptop.
//!
//! The sampling is *exact*: it induces precisely the same distribution over
//! configuration trajectories as the agent-level simulator (this is verified
//! statistically in the integration tests).

use crate::checkpoint::{Checkpoint, EngineCheckpoint, EngineSnapshot, EngineState};
use crate::config::Configuration;
use crate::engine::StepEngine;
use crate::error::PpError;
use crate::fenwick::FenwickTree;
use crate::opinion::AgentState;
use crate::protocol::OpinionProtocol;
use crate::recorder::Recorder;
use crate::rng::SimSeed;
use crate::run::RunResult;
use crate::stopping::StopCondition;
use rand::rngs::SmallRng;

/// A count-based simulator for an [`OpinionProtocol`].
///
/// # Examples
///
/// ```
/// use pp_core::prelude::*;
///
/// struct Voter { k: usize }
/// impl OpinionProtocol for Voter {
///     fn num_opinions(&self) -> usize { self.k }
///     fn respond(&self, r: AgentState, i: AgentState) -> AgentState {
///         if i.is_decided() { i } else { r }
///     }
/// }
///
/// let config = Configuration::from_counts(vec![90, 10], 0).unwrap();
/// let mut sim = CountSimulator::new(Voter { k: 2 }, config, SimSeed::from_u64(1));
/// let result = sim.run(StopCondition::consensus().or_max_interactions(1_000_000));
/// assert!(result.reached_consensus());
/// ```
#[derive(Debug)]
pub struct CountSimulator<P> {
    protocol: P,
    config: Configuration,
    weights: FenwickTree,
    interactions: u64,
    rng: SmallRng,
}

impl<P: OpinionProtocol> CountSimulator<P> {
    /// Creates a simulator for `protocol` starting from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the protocol's `num_opinions()` differs from the
    /// configuration's.  Use [`CountSimulator::try_new`] for a fallible
    /// constructor.
    #[must_use]
    pub fn new(protocol: P, config: Configuration, seed: SimSeed) -> Self {
        Self::try_new(protocol, config, seed)
            .expect("protocol/configuration opinion count mismatch")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::OpinionCountMismatch`] if the protocol and the
    /// configuration disagree on `k`.
    pub fn try_new(protocol: P, config: Configuration, seed: SimSeed) -> Result<Self, PpError> {
        if protocol.num_opinions() != config.num_opinions() {
            return Err(PpError::OpinionCountMismatch {
                protocol: protocol.num_opinions(),
                configuration: config.num_opinions(),
            });
        }
        let k = config.num_opinions();
        let mut weights = Vec::with_capacity(k + 1);
        weights.extend_from_slice(config.supports());
        weights.push(config.undecided());
        Ok(CountSimulator {
            protocol,
            weights: FenwickTree::from_weights(&weights),
            config,
            interactions: 0,
            rng: seed.rng(),
        })
    }

    /// The current configuration.
    #[must_use]
    pub fn configuration(&self) -> &Configuration {
        &self.config
    }

    /// Number of interactions performed so far.
    #[must_use]
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// The protocol driving this simulator.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Performs one interaction and returns `true` if it was productive
    /// (the responder changed state).
    pub fn step(&mut self) -> bool {
        let k = self.config.num_opinions();
        let responder_cat = self.weights.sample(&mut self.rng);
        let initiator_cat = self.weights.sample(&mut self.rng);
        self.interactions += 1;

        let responder = AgentState::from_category(responder_cat, k);
        let initiator = AgentState::from_category(initiator_cat, k);

        // Self-interaction nuance: sampling the two categories independently
        // matches drawing two agent indices independently (the paper's model).
        // When both indices denote the *same* agent the transition is applied
        // to a pair of equal states, which for every dynamic in this
        // repository is unproductive; category sampling is therefore exact.
        let new_responder = self.protocol.respond(responder, initiator);
        if new_responder == responder {
            return false;
        }
        self.config
            .apply_move(responder, new_responder)
            .expect("transition produced an inconsistent move");
        self.weights.add(responder.category(k), -1);
        self.weights.add(new_responder.category(k), 1);
        true
    }

    /// Runs until the stop condition is met, recording nothing.
    pub fn run(&mut self, stop: StopCondition) -> RunResult {
        self.run_recorded(stop, &mut crate::recorder::NullRecorder)
    }

    /// Runs until the stop condition is met, feeding the initial and every
    /// changed configuration to the recorder: this engine's
    /// [`StepEngine::run_engine_recorded`].
    ///
    /// # Panics
    ///
    /// Panics if the stop condition is unbounded (no goal and no budget), or
    /// if the configuration is absorbing and can never meet a budget-less
    /// stop condition.
    pub fn run_recorded<R: Recorder>(
        &mut self,
        stop: StopCondition,
        recorder: &mut R,
    ) -> RunResult {
        StepEngine::run_engine_recorded(self, stop, recorder)
    }

    /// Runs for exactly `budget` further interactions (or until the structural
    /// goal of `stop` is met, whichever comes first).
    pub fn run_for<R: Recorder>(
        &mut self,
        budget: u64,
        stop: StopCondition,
        recorder: &mut R,
    ) -> RunResult {
        let capped = stop.or_max_interactions(self.interactions + budget);
        self.run_recorded(capped, recorder)
    }

    /// Jumps the interaction counter forward to `target` (used by the engine
    /// layer once a configuration is known to be absorbing: the skipped
    /// interactions are all provably null).
    pub(crate) fn skip_to(&mut self, target: u64) {
        self.interactions = self.interactions.max(target);
    }

    /// Consumes the simulator and returns the final configuration.
    #[must_use]
    pub fn into_configuration(self) -> Configuration {
        self.config
    }

    /// Captures this simulator's resumable state (counts, interaction
    /// counter, RNG stream position).  Call between steps/`advance` calls —
    /// see [`crate::checkpoint`] for the exactness rules.
    #[must_use]
    pub fn capture_state(&self) -> EngineSnapshot {
        EngineSnapshot {
            supports: self.config.supports().to_vec(),
            undecided: self.config.undecided(),
            interactions: self.interactions,
            rng: self.rng.state(),
            counters: Vec::new(),
        }
    }

    /// Rebuilds a simulator from a checkpoint captured by
    /// [`CountSimulator::capture_state`].  The Fenwick tree is rebuilt
    /// deterministically from the counts; the restored simulator walks the
    /// identical trajectory tail the interrupted run would have.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the checkpoint holds a
    /// different engine kind or invalid counts, and
    /// [`PpError::OpinionCountMismatch`] when the protocol disagrees with
    /// the captured counts on `k`.
    pub fn restore(protocol: P, checkpoint: &Checkpoint) -> Result<Self, PpError> {
        let snapshot = checkpoint.expect_single("exact")?;
        Self::restore_snapshot(protocol, snapshot)
    }

    /// Snapshot-level counterpart of [`CountSimulator::restore`].
    ///
    /// # Errors
    ///
    /// Same as [`CountSimulator::restore`], minus the kind check.
    pub fn restore_snapshot(protocol: P, snapshot: &EngineSnapshot) -> Result<Self, PpError> {
        let config = snapshot.configuration()?;
        let mut sim = Self::try_new(protocol, config, SimSeed::from_u64(0))?;
        sim.rng = SmallRng::from_state(snapshot.rng);
        sim.interactions = snapshot.interactions;
        Ok(sim)
    }

    /// Probability that the next interaction is productive, computed from the
    /// current counts (used by tests and by variance-reduction experiments).
    #[must_use]
    pub fn productive_probability(&self) -> f64 {
        let k = self.config.num_opinions();
        let n = self.config.population() as f64;
        let mut productive_pairs = 0.0f64;
        for r in 0..=k {
            let cr = self.config.category_count(r) as f64;
            if cr == 0.0 {
                continue;
            }
            for i in 0..=k {
                let ci = self.config.category_count(i) as f64;
                if ci == 0.0 {
                    continue;
                }
                let rs = AgentState::from_category(r, k);
                let is = AgentState::from_category(i, k);
                if self.protocol.respond(rs, is) != rs {
                    productive_pairs += cr * ci;
                }
            }
        }
        productive_pairs / (n * n)
    }
}

impl<P: OpinionProtocol> EngineCheckpoint for CountSimulator<P> {
    fn capture_engine(&self) -> EngineState {
        EngineState::Exact(self.capture_state())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opinion::AgentState;
    use crate::run::RunOutcome;

    /// The 2-opinion USD, used as a self-contained test protocol.
    #[derive(Debug)]
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
    fn mismatched_opinion_counts_are_rejected() {
        let cfg = Configuration::uniform(10, 3).unwrap();
        let err = CountSimulator::try_new(Usd2, cfg, SimSeed::from_u64(0)).unwrap_err();
        assert!(matches!(
            err,
            PpError::OpinionCountMismatch {
                protocol: 2,
                configuration: 3
            }
        ));
    }

    #[test]
    fn population_is_conserved_across_steps() {
        let cfg = Configuration::from_counts(vec![40, 60], 0).unwrap();
        let mut sim = CountSimulator::new(Usd2, cfg, SimSeed::from_u64(11));
        for _ in 0..5_000 {
            sim.step();
            assert!(sim.configuration().is_consistent());
            assert_eq!(sim.configuration().population(), 100);
        }
    }

    #[test]
    fn usd2_with_large_bias_reaches_consensus_on_plurality() {
        let cfg = Configuration::from_counts(vec![900, 100], 0).unwrap();
        let mut sim = CountSimulator::new(Usd2, cfg, SimSeed::from_u64(5));
        let result = sim.run(StopCondition::consensus().or_max_interactions(2_000_000));
        assert!(result.reached_consensus());
        assert_eq!(result.winner().unwrap().index(), 0);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let cfg = Configuration::from_counts(vec![500, 500], 0).unwrap();
        let mut sim = CountSimulator::new(Usd2, cfg, SimSeed::from_u64(5));
        let result = sim.run(StopCondition::consensus().or_max_interactions(10));
        assert_eq!(result.outcome(), RunOutcome::BudgetExhausted);
        assert_eq!(result.interactions(), 10);
    }

    #[test]
    fn weights_stay_in_sync_with_configuration() {
        let cfg = Configuration::from_counts(vec![30, 30, 40], 0).unwrap();
        #[derive(Debug)]
        struct Usd3;
        impl OpinionProtocol for Usd3 {
            fn num_opinions(&self) -> usize {
                3
            }
            fn respond(&self, r: AgentState, i: AgentState) -> AgentState {
                match (r, i) {
                    (AgentState::Decided(a), AgentState::Decided(b)) if a != b => {
                        AgentState::Undecided
                    }
                    (AgentState::Undecided, AgentState::Decided(b)) => AgentState::Decided(b),
                    _ => r,
                }
            }
        }
        let mut sim = CountSimulator::new(Usd3, cfg, SimSeed::from_u64(123));
        for _ in 0..2_000 {
            sim.step();
            let mut expected: Vec<u64> = sim.configuration().supports().to_vec();
            expected.push(sim.configuration().undecided());
            assert_eq!(sim.weights.to_weights(), expected);
        }
    }

    #[test]
    fn productive_probability_matches_closed_form() {
        // For x = (300, 700), u = 0: productive pairs are the discordant
        // decided pairs: 2·300·700 / 1000² = 0.42.
        let cfg = Configuration::from_counts(vec![300, 700], 0).unwrap();
        let sim = CountSimulator::new(Usd2, cfg, SimSeed::from_u64(77));
        assert!((sim.productive_probability() - 0.42).abs() < 1e-12);

        // With undecided agents the undecided-adopts pairs also count:
        // x = (200, 300), u = 500:
        //   discordant decided pairs: 2·200·300 = 120 000
        //   undecided responder + decided initiator: 500·(200+300) = 250 000
        //   => p = 370 000 / 1 000 000 = 0.37.
        let cfg = Configuration::from_counts(vec![200, 300], 500).unwrap();
        let sim = CountSimulator::new(Usd2, cfg, SimSeed::from_u64(77));
        assert!((sim.productive_probability() - 0.37).abs() < 1e-12);
    }

    #[test]
    fn first_step_productive_rate_matches_probability_across_seeds() {
        // Estimate the probability that the *first* interaction is productive
        // by re-sampling it across many independent seeds; the configuration
        // does not drift because each trial takes a single step.
        let cfg = Configuration::from_counts(vec![300, 700], 0).unwrap();
        let trials = 4_000u32;
        let mut productive = 0u32;
        for s in 0..trials {
            let mut sim =
                CountSimulator::new(Usd2, cfg.clone(), SimSeed::from_u64(1000 + u64::from(s)));
            if sim.step() {
                productive += 1;
            }
        }
        let frac = f64::from(productive) / f64::from(trials);
        assert!((frac - 0.42).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn checkpoint_restore_resumes_the_exact_trajectory() {
        let cfg = Configuration::from_counts(vec![700, 300], 0).unwrap();
        let mut reference = CountSimulator::new(Usd2, cfg.clone(), SimSeed::from_u64(5));
        let mut interrupted = CountSimulator::new(Usd2, cfg, SimSeed::from_u64(5));
        for _ in 0..500 {
            reference.step();
            interrupted.step();
        }
        let checkpoint = Checkpoint::capture(&interrupted);
        assert_eq!(checkpoint.kind(), "exact");
        drop(interrupted);
        let mut restored = CountSimulator::restore(Usd2, &checkpoint).unwrap();
        assert_eq!(restored.interactions(), reference.interactions());
        for _ in 0..2_000 {
            assert_eq!(reference.step(), restored.step());
            assert_eq!(reference.configuration(), restored.configuration());
            assert_eq!(reference.interactions(), restored.interactions());
        }
    }

    #[test]
    fn restore_rejects_foreign_kinds_and_mismatched_protocols() {
        let cfg = Configuration::from_counts(vec![10, 10], 0).unwrap();
        let sim = CountSimulator::new(Usd2, cfg, SimSeed::from_u64(1));
        let snapshot = sim.capture_state();
        let foreign = Checkpoint::new(EngineState::Batched(snapshot.clone()));
        assert!(matches!(
            CountSimulator::restore(Usd2, &foreign),
            Err(PpError::Checkpoint { .. })
        ));
        #[derive(Debug)]
        struct ThreeOpinions;
        impl OpinionProtocol for ThreeOpinions {
            fn num_opinions(&self) -> usize {
                3
            }
            fn respond(&self, r: AgentState, _i: AgentState) -> AgentState {
                r
            }
        }
        assert!(matches!(
            CountSimulator::restore_snapshot(ThreeOpinions, &snapshot),
            Err(PpError::OpinionCountMismatch { .. })
        ));
    }

    #[test]
    fn run_recorded_feeds_initial_configuration() {
        let cfg = Configuration::from_counts(vec![10, 0], 0).unwrap();
        let mut sim = CountSimulator::new(Usd2, cfg, SimSeed::from_u64(3));
        let mut first: Option<u64> = None;
        let mut rec = |t: u64, _c: &Configuration| {
            if first.is_none() {
                first = Some(t);
            }
        };
        let result = sim.run_recorded(StopCondition::consensus(), &mut rec);
        assert_eq!(first, Some(0));
        assert!(result.reached_consensus());
        assert_eq!(result.interactions(), 0);
    }
}
