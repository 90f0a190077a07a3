//! The agent-level simulator.
//!
//! [`AgentSimulator`] keeps an explicit `Vec<AgentState>` of all `n` agents
//! and draws ordered pairs through an [`InteractionScheduler`].  It is slower
//! than [`crate::CountSimulator`] (each interaction is `O(1)` but the state is
//! `O(n)` and cache-unfriendly for huge `n`), but it is the ground truth
//! implementation of the model: the count simulator is validated against it.

use crate::config::Configuration;
use crate::error::PpError;
use crate::opinion::AgentState;
use crate::protocol::OpinionProtocol;
use crate::recorder::Recorder;
use crate::rng::SimSeed;
use crate::run::RunResult;
use crate::scheduler::{InteractionScheduler, UniformPairScheduler};
use crate::stopping::StopCondition;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

/// An explicit-agent simulator for an [`OpinionProtocol`].
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
/// let config = Configuration::from_counts(vec![30, 10], 0).unwrap();
/// let mut sim = AgentSimulator::new(Voter { k: 2 }, &config, SimSeed::from_u64(9));
/// let result = sim.run(StopCondition::consensus().or_max_interactions(200_000));
/// assert!(result.reached_consensus());
/// ```
#[derive(Debug)]
pub struct AgentSimulator<P, S = UniformPairScheduler> {
    protocol: P,
    agents: Vec<AgentState>,
    config: Configuration,
    scheduler: S,
    interactions: u64,
    rng: SmallRng,
}

impl<P: OpinionProtocol> AgentSimulator<P, UniformPairScheduler> {
    /// Creates a simulator with the paper's uniform-pair scheduler.  Agent
    /// states are laid out from the configuration and then shuffled (agent
    /// identity is irrelevant to the dynamics but the shuffle keeps any
    /// index-dependent instrumentation honest).
    ///
    /// # Panics
    ///
    /// Panics if the protocol and configuration disagree on `k`.
    #[must_use]
    pub fn new(protocol: P, config: &Configuration, seed: SimSeed) -> Self {
        Self::with_scheduler(
            protocol,
            config,
            UniformPairScheduler::with_self_interactions(),
            seed,
        )
        .expect("protocol/configuration opinion count mismatch")
    }
}

impl<P: OpinionProtocol, S: InteractionScheduler> AgentSimulator<P, S> {
    /// Creates a simulator with an explicit scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::OpinionCountMismatch`] if the protocol and the
    /// configuration disagree on `k`.
    pub fn with_scheduler(
        protocol: P,
        config: &Configuration,
        scheduler: S,
        seed: SimSeed,
    ) -> Result<Self, PpError> {
        if protocol.num_opinions() != config.num_opinions() {
            return Err(PpError::OpinionCountMismatch {
                protocol: protocol.num_opinions(),
                configuration: config.num_opinions(),
            });
        }
        let mut rng = seed.rng();
        let mut agents = config.to_states();
        agents.shuffle(&mut rng);
        Ok(AgentSimulator {
            protocol,
            agents,
            config: config.clone(),
            scheduler,
            interactions: 0,
            rng,
        })
    }

    /// The current configuration (maintained incrementally).
    #[must_use]
    pub fn configuration(&self) -> &Configuration {
        &self.config
    }

    /// The individual agent states.
    #[must_use]
    pub fn agents(&self) -> &[AgentState] {
        &self.agents
    }

    /// Number of interactions performed so far.
    #[must_use]
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Performs one interaction; returns `true` if the responder changed state.
    pub fn step(&mut self) -> bool {
        let n = self.agents.len();
        let pair = self.scheduler.next_pair(n, &mut self.rng);
        self.interactions += 1;
        let responder = self.agents[pair.responder];
        let initiator = self.agents[pair.initiator];
        let new_responder = self.protocol.respond(responder, initiator);
        if new_responder == responder {
            return false;
        }
        self.agents[pair.responder] = new_responder;
        self.config
            .apply_move(responder, new_responder)
            .expect("transition produced an inconsistent move");
        true
    }

    /// Runs until the stop condition is met, recording nothing.
    pub fn run(&mut self, stop: StopCondition) -> RunResult {
        self.run_recorded(stop, &mut crate::recorder::NullRecorder)
    }

    /// Runs until the stop condition is met, feeding every changed
    /// configuration to the recorder.
    ///
    /// # Panics
    ///
    /// Panics if the stop condition is unbounded.
    pub fn run_recorded<R: Recorder>(
        &mut self,
        stop: StopCondition,
        recorder: &mut R,
    ) -> RunResult {
        assert!(
            stop.is_bounded(),
            "stop condition can never terminate the run"
        );
        recorder.record(self.interactions, &self.config);
        loop {
            if let Some(outcome) = stop.outcome(&self.config, self.interactions) {
                return RunResult::new(outcome, self.interactions, self.config.clone())
                    .with_scheduler(self.scheduler.name());
            }
            if self.step() {
                recorder.record(self.interactions, &self.config);
            }
        }
    }

    /// The scheduler driving this simulator.
    #[must_use]
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn configuration_tracks_agent_array() {
        let cfg = Configuration::from_counts(vec![20, 20], 10).unwrap();
        let mut sim = AgentSimulator::new(Usd2, &cfg, SimSeed::from_u64(4));
        for _ in 0..2_000 {
            sim.step();
            let rebuilt = Configuration::from_states(sim.agents(), 2).unwrap();
            assert_eq!(&rebuilt, sim.configuration());
        }
    }

    #[test]
    fn biased_two_opinion_run_converges_to_plurality() {
        let cfg = Configuration::from_counts(vec![180, 20], 0).unwrap();
        let mut sim = AgentSimulator::new(Usd2, &cfg, SimSeed::from_u64(21));
        let r = sim.run(StopCondition::consensus().or_max_interactions(500_000));
        assert!(r.reached_consensus());
        assert_eq!(r.winner().unwrap().index(), 0);
    }

    #[test]
    fn mismatch_rejected() {
        let cfg = Configuration::uniform(10, 3).unwrap();
        let res = AgentSimulator::with_scheduler(
            Usd2,
            &cfg,
            UniformPairScheduler::with_self_interactions(),
            SimSeed::from_u64(0),
        );
        assert!(res.is_err());
    }

    #[test]
    fn interactions_counter_advances_even_on_unproductive_steps() {
        let cfg = Configuration::from_counts(vec![10, 0], 0).unwrap();
        let mut sim = AgentSimulator::new(Usd2, &cfg, SimSeed::from_u64(2));
        for _ in 0..50 {
            let productive = sim.step();
            assert!(
                !productive,
                "all-agree configuration can never be productive"
            );
        }
        assert_eq!(sim.interactions(), 50);
    }
}
