//! The asynchronous (continuous-time) gossip model of Boyd et al. /
//! Perron et al.
//!
//! Each agent carries an independent Poisson clock of rate 1; when an agent's
//! clock rings it contacts a uniformly random partner.  This is the
//! continuous-time variant of the population protocol model: interaction
//! *counts* are identical in distribution, and continuous time advances by an
//! exponential with rate `n` between interactions.  The paper notes its
//! results transfer to this model directly; the reproduction includes it so
//! the three time scales (interactions, parallel time, continuous time) can
//! be compared explicitly.
//!
//! The simulator is built on the unified step-engine layer: it can drive the
//! discrete chain through [`pp_core::ExactEngine`] or
//! [`pp_core::BatchedEngine`].  With the batched backend a block of `m`
//! skipped interactions elapses `Gamma(m, n)` of continuous time in one draw
//! (the exact distribution of a sum of `m` independent `Exp(n)` waits), so
//! the continuous clock stays exact-in-distribution under skip-ahead.

use pp_core::engine::{Advance, StepEngine};
use pp_core::{
    Configuration, CountEngine, EngineChoice, OpinionProtocol, PpError, RunResult, SimSeed,
    StopCondition,
};
use rand::rngs::SmallRng;
use rand::Rng;

/// Draws a standard normal via Box–Muller.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws `Gamma(shape, 1)` for integer `shape ≥ 1` via Marsaglia–Tsang
/// (exact; no shape restriction beyond `shape ≥ 1`).
fn gamma_integer_shape<R: Rng + ?Sized>(rng: &mut R, shape: u64) -> f64 {
    debug_assert!(shape >= 1);
    if shape == 1 {
        // Exponential: the common case (per-step waits).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return -u.ln();
    }
    let d = shape as f64 - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// A continuous-time simulator for any [`OpinionProtocol`].
///
/// Internally this drives the discrete count-based chain through a selectable
/// step engine and accumulates the exponential (or, for skipped blocks,
/// Gamma-distributed) waiting times between interactions.
///
/// # Examples
///
/// ```
/// use gossip_model::PoissonGossip;
/// use pp_core::{AgentState, Configuration, EngineChoice, OpinionProtocol, SimSeed, StopCondition};
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
/// let mut sim = PoissonGossip::with_engine(
///     Voter { k: 2 }, config, SimSeed::from_u64(1), EngineChoice::Batched,
/// ).unwrap();
/// let result = sim.run(StopCondition::consensus().or_max_interactions(1_000_000));
/// assert!(result.reached_consensus());
/// assert!(sim.continuous_time() > 0.0);
/// ```
#[derive(Debug)]
pub struct PoissonGossip<P> {
    inner: CountEngine<P>,
    continuous_time: f64,
    clock_rng: SmallRng,
}

impl<P: OpinionProtocol> PoissonGossip<P> {
    /// Creates a continuous-time simulator on the exact backend.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::OpinionCountMismatch`] if the protocol and the
    /// configuration disagree on `k`.
    pub fn new(protocol: P, config: Configuration, seed: SimSeed) -> Result<Self, PpError> {
        Self::with_engine(protocol, config, seed, EngineChoice::Exact)
    }

    /// Creates a continuous-time simulator on the selected count-based
    /// backend (exact or batched).
    ///
    /// # Errors
    ///
    /// Returns [`PpError::OpinionCountMismatch`] on a `k` mismatch and
    /// [`PpError::UnsupportedEngine`] for the mean-field backend (which has
    /// no interaction-level clock to couple to) and the sharded backend
    /// (its reconciliation epochs bundle many events into one jump, so the
    /// Gamma waiting-time coupling per state change does not apply).
    pub fn with_engine(
        protocol: P,
        config: Configuration,
        seed: SimSeed,
        choice: EngineChoice,
    ) -> Result<Self, PpError> {
        Ok(PoissonGossip {
            inner: CountEngine::try_new(protocol, config, seed.child(0), choice)?,
            continuous_time: 0.0,
            clock_rng: seed.child(1).rng(),
        })
    }

    /// The current configuration.
    #[must_use]
    pub fn configuration(&self) -> &Configuration {
        self.inner.configuration()
    }

    /// Elapsed continuous time (expected `t/n` after `t` interactions).
    #[must_use]
    pub fn continuous_time(&self) -> f64 {
        self.continuous_time
    }

    /// Number of discrete interactions performed.
    #[must_use]
    pub fn interactions(&self) -> u64 {
        self.inner.interactions()
    }

    /// The backend identifier of the underlying engine.
    #[must_use]
    pub fn engine_name(&self) -> &'static str {
        self.inner.engine_name()
    }

    /// Elapses the continuous time of `m` consecutive interactions: one
    /// `Gamma(m, n)` draw, the exact law of a sum of `m` rate-`n`
    /// exponentials.
    fn elapse(&mut self, m: u64) {
        if m == 0 {
            return;
        }
        let n = self.configuration().population() as f64;
        self.continuous_time += gamma_integer_shape(&mut self.clock_rng, m) / n;
    }

    /// Performs one interaction, advancing continuous time by an
    /// `Exponential(n)` waiting time; returns `true` if it was productive.
    pub fn step(&mut self) -> bool {
        let before = self.interactions();
        let advance = self.inner.advance(before + 1);
        let elapsed = self.interactions() - before;
        self.elapse(elapsed);
        advance == Advance::Event
    }

    /// Runs until the stop condition is met (budget counts interactions).
    ///
    /// # Panics
    ///
    /// Panics if the stop condition is unbounded.
    pub fn run(&mut self, stop: StopCondition) -> RunResult {
        assert!(
            stop.is_bounded(),
            "stop condition can never terminate the run"
        );
        let limit = stop.max_interactions().unwrap_or(u64::MAX);
        loop {
            if let Some(outcome) = stop.outcome(self.configuration(), self.interactions()) {
                return RunResult::new(outcome, self.interactions(), self.configuration().clone())
                    .with_scheduler(self.inner.scheduler_name());
            }
            let before = self.interactions();
            let advance = self.inner.advance(limit);
            let elapsed = self.interactions() - before;
            self.elapse(elapsed);
            if advance == Advance::Absorbed {
                assert!(
                    stop.max_interactions().is_some() || stop.goal_met(self.configuration()),
                    "absorbing configuration {} can never meet the stop condition",
                    self.configuration()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::AgentState;

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
    }

    #[test]
    fn continuous_time_tracks_interactions_over_n() {
        let config = Configuration::from_counts(vec![500, 500], 0).unwrap();
        let mut sim = PoissonGossip::new(Usd2, config, SimSeed::from_u64(1)).unwrap();
        for _ in 0..100_000 {
            sim.step();
        }
        let expected = sim.interactions() as f64 / 1_000.0;
        let measured = sim.continuous_time();
        assert!(
            (measured - expected).abs() / expected < 0.05,
            "continuous time {measured} vs expected {expected}"
        );
    }

    #[test]
    fn batched_continuous_time_matches_interaction_count_too() {
        let config = Configuration::from_counts(vec![1_500, 500], 0).unwrap();
        let mut sim =
            PoissonGossip::with_engine(Usd2, config, SimSeed::from_u64(4), EngineChoice::Batched)
                .unwrap();
        let result = sim.run(StopCondition::consensus().or_max_interactions(50_000_000));
        assert!(result.reached_consensus());
        let expected = sim.interactions() as f64 / 2_000.0;
        let measured = sim.continuous_time();
        // Gamma batch waits must aggregate to the same time scale.
        assert!(
            (measured - expected).abs() / expected < 0.2,
            "continuous time {measured} vs expected {expected}"
        );
    }

    #[test]
    fn biased_run_converges_in_logarithmic_continuous_time() {
        let config = Configuration::from_counts(vec![1_800, 200], 0).unwrap();
        let mut sim = PoissonGossip::new(Usd2, config, SimSeed::from_u64(2)).unwrap();
        let result = sim.run(StopCondition::consensus().or_max_interactions(50_000_000));
        assert!(result.reached_consensus());
        // Perron et al.: O(log n) continuous time; allow a generous constant.
        let log_n = 2_000f64.ln();
        assert!(
            sim.continuous_time() < 40.0 * log_n,
            "continuous time {} vs log n {log_n}",
            sim.continuous_time()
        );
    }

    #[test]
    fn mismatch_is_reported() {
        let config = Configuration::uniform(100, 3).unwrap();
        assert!(PoissonGossip::new(Usd2, config, SimSeed::from_u64(0)).is_err());
    }

    #[test]
    fn mean_field_backend_is_rejected() {
        let config = Configuration::uniform(100, 2).unwrap();
        let err =
            PoissonGossip::with_engine(Usd2, config, SimSeed::from_u64(0), EngineChoice::MeanField)
                .unwrap_err();
        assert!(matches!(err, PpError::UnsupportedEngine { .. }));
    }

    #[test]
    fn sharded_backend_is_rejected_with_a_clear_error() {
        // Epoch-granular engines cannot drive the per-event Gamma clock.
        let config = Configuration::uniform(100, 2).unwrap();
        let err =
            PoissonGossip::with_engine(Usd2, config, SimSeed::from_u64(0), EngineChoice::Sharded)
                .unwrap_err();
        assert!(matches!(
            err,
            PpError::UnsupportedEngine {
                requested: "sharded"
            }
        ));
    }

    #[test]
    fn unsupported_engine_errors_render_an_actionable_diagnostic() {
        // The error an operator actually sees: it must name the rejected
        // backend, and the accepted backends must still construct — the
        // diagnostic contract `usd_run`-style frontends rely on.
        let config = Configuration::uniform(100, 2).unwrap();
        for (choice, name) in [
            (EngineChoice::MeanField, "mean-field"),
            (EngineChoice::Sharded, "sharded"),
        ] {
            let err =
                PoissonGossip::with_engine(Usd2, config.clone(), SimSeed::from_u64(0), choice)
                    .unwrap_err();
            let message = err.to_string();
            assert!(
                message.contains(name) && message.contains("not available"),
                "diagnostic for {choice} should name the backend: {message:?}"
            );
        }
        for choice in [EngineChoice::Exact, EngineChoice::Batched] {
            assert!(
                PoissonGossip::with_engine(Usd2, config.clone(), SimSeed::from_u64(0), choice)
                    .is_ok(),
                "{choice} must stay constructible"
            );
        }
    }

    #[test]
    fn gamma_sampler_matches_mean_and_variance() {
        let mut rng = SimSeed::from_u64(77).rng();
        for &shape in &[1u64, 2, 7, 50] {
            let trials = 20_000;
            let draws: Vec<f64> = (0..trials)
                .map(|_| gamma_integer_shape(&mut rng, shape))
                .collect();
            let mean = draws.iter().sum::<f64>() / trials as f64;
            let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (trials - 1) as f64;
            let s = shape as f64;
            assert!(
                (mean - s).abs() < 0.1 * s.max(1.0),
                "shape {shape}: mean {mean}"
            );
            assert!(
                (var - s).abs() < 0.2 * s.max(1.0),
                "shape {shape}: var {var}"
            );
        }
    }
}
