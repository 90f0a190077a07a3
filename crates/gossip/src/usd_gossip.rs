//! The k-opinion USD in the parallel gossip model (Becchetti et al.).

use crate::engine::GossipSimulator;
use pp_core::{AgentState, Configuration, OpinionProtocol, Recorder, RunResult, SimSeed};

/// The USD transition, defined locally for the gossip engine (identical to
/// `usd_core::UndecidedStateDynamics`; duplicated to keep the gossip crate
/// independent of the core crate's build).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipUsdProtocol {
    k: usize,
}

impl OpinionProtocol for GossipUsdProtocol {
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
        "undecided state dynamics (gossip model)"
    }
}

/// The k-opinion USD running in synchronous gossip rounds, as analyzed by
/// Becchetti et al. (SODA 2015).
///
/// # Examples
///
/// ```
/// use gossip_model::UsdGossip;
/// use pp_core::{Configuration, SimSeed};
///
/// let config = Configuration::from_counts(vec![600, 250, 150], 0).unwrap();
/// let mut sim = UsdGossip::new(&config, SimSeed::from_u64(9));
/// let result = sim.run(5_000);
/// assert!(result.reached_consensus());
/// ```
#[derive(Debug)]
pub struct UsdGossip {
    inner: GossipSimulator<GossipUsdProtocol>,
    initial: Configuration,
}

impl UsdGossip {
    /// Creates the gossip-model USD from an initial configuration.
    #[must_use]
    pub fn new(config: &Configuration, seed: SimSeed) -> Self {
        UsdGossip {
            inner: GossipSimulator::new(
                GossipUsdProtocol {
                    k: config.num_opinions(),
                },
                config,
                seed,
            ),
            initial: config.clone(),
        }
    }

    /// The initial configuration.
    #[must_use]
    pub fn initial_configuration(&self) -> &Configuration {
        &self.initial
    }

    /// The current configuration.
    #[must_use]
    pub fn configuration(&self) -> &Configuration {
        self.inner.configuration()
    }

    /// Rounds executed so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.inner.rounds()
    }

    /// Executes one synchronous round.
    pub fn round(&mut self) {
        self.inner.round();
    }

    /// Runs until consensus or `max_rounds` (the result's interaction count is
    /// the round count).
    pub fn run(&mut self, max_rounds: u64) -> RunResult {
        self.inner.run(max_rounds)
    }

    /// Runs with a recorder keyed by round number.
    pub fn run_recorded<R: Recorder>(&mut self, max_rounds: u64, recorder: &mut R) -> RunResult {
        self.inner.run_recorded(max_rounds, recorder)
    }

    /// The Becchetti et al. round bound `md(x(0))·ln n` (unit constant), where
    /// `md` is the monochromatic distance of the initial configuration.  The
    /// Appendix D comparison experiment contrasts this with the paper's
    /// population-model bound converted to parallel time.
    #[must_use]
    pub fn becchetti_round_bound(&self) -> f64 {
        let n = self.initial.population() as f64;
        let md = self.initial.monochromatic_distance().unwrap_or(1.0);
        md * n.max(2.0).ln()
    }

    /// The paper's Theorem 2 multiplicative-bias bound converted to parallel
    /// time (`log n + n/x₁(0)`, unit constants), for the Appendix D
    /// comparison.
    #[must_use]
    pub fn population_parallel_bound(&self) -> f64 {
        let n = self.initial.population() as f64;
        let x1 = self.initial.max_support().max(1) as f64;
        n.max(2.0).ln() + n / x1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::engine::{check_transition_table, transition_table};

    #[test]
    fn transition_table_matches_respond() {
        for k in 1..=8 {
            let protocol = GossipUsdProtocol { k };
            let table = transition_table(&protocol).expect("the USD opts into the table");
            assert_eq!(check_transition_table(&protocol, &table), Ok(()));
        }
    }

    #[test]
    fn becchetti_bound_uses_monochromatic_distance() {
        // Uniform over k opinions: md = k, so the bound is ~ k ln n.
        let config = Configuration::uniform(10_000, 10).unwrap();
        let sim = UsdGossip::new(&config, SimSeed::from_u64(1));
        let bound = sim.becchetti_round_bound();
        let expected = 10.0 * 10_000f64.ln();
        assert!(
            (bound - expected).abs() / expected < 0.01,
            "bound = {bound}"
        );
    }

    #[test]
    fn appendix_d_crossover_direction() {
        // When x1 is close to the average opinion size, the population-model
        // parallel bound (log n + n/x1 ≈ log n + k) beats the gossip bound
        // (md log n ≈ k log n); when x1 is much larger than n log n / k the
        // direction flips.  We check the first direction, which is the
        // paper's headline improvement.
        let n = 100_000u64;
        let k = 50usize;
        let config = Configuration::uniform(n, k).unwrap();
        let sim = UsdGossip::new(&config, SimSeed::from_u64(2));
        assert!(
            sim.population_parallel_bound() < sim.becchetti_round_bound(),
            "population bound {} should beat gossip bound {} for x1 ≈ n/k",
            sim.population_parallel_bound(),
            sim.becchetti_round_bound()
        );
    }

    #[test]
    fn multiplicative_bias_run_converges_and_plurality_wins() {
        let config = Configuration::from_counts(vec![4_000, 1_000, 1_000], 0).unwrap();
        let mut sim = UsdGossip::new(&config, SimSeed::from_u64(3));
        let result = sim.run(50_000);
        assert!(result.reached_consensus());
        assert_eq!(result.winner().unwrap().index(), 0);
        // Rounds should be well within a small multiple of md·ln n.
        assert!((result.interactions() as f64) < 20.0 * sim.becchetti_round_bound());
    }

    #[test]
    fn initial_configuration_is_kept() {
        let config = Configuration::from_counts(vec![80, 20], 0).unwrap();
        let mut sim = UsdGossip::new(&config, SimSeed::from_u64(4));
        sim.run(10_000);
        assert_eq!(sim.initial_configuration(), &config);
    }
}
