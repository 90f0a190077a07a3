//! A synchronized (phase-clocked) variant of the USD.
//!
//! The related work discussed in the paper (Bankhamer et al., Ghaffari–Parter,
//! Berenbrink et al.) obtains polylogarithmic convergence by synchronizing the
//! population: the system alternates between a *USD step*, in which every
//! agent performs one undecided-state-dynamics interaction, and a
//! *re-adoption step*, in which every undecided agent adopts the opinion of a
//! random decided-looking partner.  The synchronization is what the paper
//! calls "less natural": it needs a phase clock and extra states.  This module
//! implements an idealized version of that synchronized variant (the phase
//! clock is assumed perfect) so the experiment harness can illustrate the
//! qualitative gap: polylogarithmic rounds for the synchronized variant versus
//! `Θ(k·log n)` parallel time for the plain USD.

use pp_core::{AgentState, Configuration, OpinionProtocol, RunOutcome, RunResult, SimSeed};
use rand::rngs::SmallRng;
use rand::Rng;
use usd_protocol::UndecidedStateDynamics;

// The synchronized variant reuses the plain USD transition for its first
// half-round; to avoid a dependency cycle the protocol is re-implemented here
// in a private module with identical semantics.
mod usd_protocol {
    use pp_core::{AgentState, OpinionProtocol};

    /// The plain USD transition, duplicated locally (see module docs).
    #[derive(Debug, Clone, Copy)]
    pub struct UndecidedStateDynamics {
        k: usize,
    }

    impl UndecidedStateDynamics {
        pub fn new(k: usize) -> Self {
            UndecidedStateDynamics { k }
        }
    }

    impl OpinionProtocol for UndecidedStateDynamics {
        fn num_opinions(&self) -> usize {
            self.k
        }
        fn respond(&self, responder: AgentState, initiator: AgentState) -> AgentState {
            match (responder, initiator) {
                (AgentState::Decided(a), AgentState::Decided(b)) if a != b => AgentState::Undecided,
                (AgentState::Undecided, AgentState::Decided(b)) => AgentState::Decided(b),
                _ => responder,
            }
        }
        fn name(&self) -> &str {
            "undecided state dynamics (synchronized variant)"
        }
    }
}

/// The synchronized USD: alternating synchronous USD and re-adoption rounds.
///
/// # Examples
///
/// ```
/// use consensus_dynamics::SynchronizedUsd;
/// use pp_core::{Configuration, SimSeed};
///
/// let config = Configuration::from_counts(vec![400, 350, 250], 0).unwrap();
/// let mut sim = SynchronizedUsd::new(&config, SimSeed::from_u64(5));
/// let result = sim.run(10_000);
/// assert!(result.reached_consensus());
/// ```
#[derive(Debug)]
pub struct SynchronizedUsd {
    protocol: UndecidedStateDynamics,
    agents: Vec<AgentState>,
    config: Configuration,
    rounds: u64,
    rng: SmallRng,
}

impl SynchronizedUsd {
    /// Creates the synchronized USD from an initial configuration.
    #[must_use]
    pub fn new(config: &Configuration, seed: SimSeed) -> Self {
        SynchronizedUsd {
            protocol: UndecidedStateDynamics::new(config.num_opinions()),
            agents: config.to_states(),
            config: config.clone(),
            rounds: 0,
            rng: seed.rng(),
        }
    }

    /// The current configuration.
    #[must_use]
    pub fn configuration(&self) -> &Configuration {
        &self.config
    }

    /// Number of full rounds (USD step + re-adoption step) executed.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Executes one full round: a synchronous USD step followed by a
    /// synchronous re-adoption step for undecided agents.
    pub fn round(&mut self) {
        let n = self.agents.len();

        // Half-round 1: every agent performs one USD interaction against the
        // old state vector.
        let old = self.agents.clone();
        for idx in 0..n {
            let partner = old[self.rng.gen_range(0..n)];
            self.agents[idx] = self.protocol.respond(old[idx], partner);
        }

        // Half-round 2: every (now) undecided agent adopts the opinion of a
        // random partner from the intermediate state, if that partner is
        // decided.
        let intermediate = self.agents.clone();
        for idx in 0..n {
            if intermediate[idx].is_undecided() {
                let partner = intermediate[self.rng.gen_range(0..n)];
                if partner.is_decided() {
                    self.agents[idx] = partner;
                }
            }
        }

        self.rounds += 1;
        self.config = Configuration::from_states(&self.agents, self.config.num_opinions())
            .expect("synchronized round preserves the population");
    }

    /// Runs until consensus or until `max_rounds` rounds; the returned
    /// result's interaction count is the number of rounds.
    pub fn run(&mut self, max_rounds: u64) -> RunResult {
        while self.rounds < max_rounds && !self.config.is_consensus() {
            self.round();
        }
        let outcome = if self.config.is_consensus() {
            RunOutcome::Consensus
        } else {
            RunOutcome::BudgetExhausted
        };
        RunResult::new(outcome, self.rounds, self.config.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::engine::{check_transition_table, transition_table};

    #[test]
    fn transition_table_matches_respond() {
        for k in 1..=8 {
            let protocol = UndecidedStateDynamics::new(k);
            let table = transition_table(&protocol).expect("the USD opts into the table");
            assert_eq!(check_transition_table(&protocol, &table), Ok(()));
        }
    }

    #[test]
    fn population_is_conserved_per_round() {
        let config = Configuration::uniform(1_000, 5).unwrap();
        let mut sim = SynchronizedUsd::new(&config, SimSeed::from_u64(1));
        for _ in 0..10 {
            sim.round();
            assert_eq!(sim.configuration().population(), 1_000);
        }
    }

    #[test]
    fn converges_in_polylogarithmic_rounds_with_bias() {
        let config = Configuration::from_counts(vec![600, 250, 150], 0).unwrap();
        let mut sim = SynchronizedUsd::new(&config, SimSeed::from_u64(2));
        let result = sim.run(10_000);
        assert!(result.reached_consensus());
        assert!(
            result.interactions() < 200,
            "synchronized USD took {} rounds",
            result.interactions()
        );
    }

    #[test]
    fn converges_even_without_initial_bias() {
        let config = Configuration::uniform(2_000, 10).unwrap();
        let mut sim = SynchronizedUsd::new(&config, SimSeed::from_u64(3));
        let result = sim.run(50_000);
        assert!(result.reached_consensus());
    }

    #[test]
    fn strong_plurality_usually_wins() {
        let mut wins = 0;
        let trials = 10;
        for t in 0..trials {
            let config = Configuration::from_counts(vec![1_200, 400, 400], 0).unwrap();
            let mut sim = SynchronizedUsd::new(&config, SimSeed::from_u64(100 + t));
            let result = sim.run(10_000);
            if result.winner().map(|w| w.index()) == Some(0) {
                wins += 1;
            }
        }
        assert!(
            wins >= 8,
            "plurality won only {wins}/{trials} synchronized runs"
        );
    }
}
