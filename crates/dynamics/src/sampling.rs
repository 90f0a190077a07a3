//! The sampling-dynamics trait and its two runners.

use crate::law_maintenance::ActivationLaw;
use pp_core::checkpoint::{EngineSnapshot, ReplicaCheckpoint};
use pp_core::engine::{Advance, StepEngine};
use pp_core::ensemble::{EnsembleChoice, EnsembleEngine};
use pp_core::{
    AgentState, Configuration, FenwickTree, MaintenanceStats, PpError, Recorder, RunOutcome,
    RunResult, SimSeed, StopCondition,
};
use rand::rngs::SmallRng;
use rand::Rng;

/// A consensus dynamic in which an activated agent updates its opinion based
/// on the opinions of `sample_size` uniformly random population members.
///
/// The Voter process (`j = 1`), TwoChoices (`j = 2`), the j-Majority dynamics
/// and the MedianRule are all instances.
pub trait SamplingDynamics {
    /// Number of opinions `k` the dynamic is configured for.
    fn num_opinions(&self) -> usize;

    /// Number of agents sampled per activation.
    fn sample_size(&self) -> usize;

    /// New state of the activated agent given its current state and the
    /// states of the sampled agents (in sampling order).
    fn update<R: Rng + ?Sized>(
        &self,
        current: AgentState,
        samples: &[AgentState],
        rng: &mut R,
    ) -> AgentState;

    /// A short human-readable name used in reports.
    fn name(&self) -> &str {
        "unnamed sampling dynamic"
    }

    /// Probability that one activation from `config` leaves the activated
    /// agent unchanged (a *null* activation), exactly (up to floating-point
    /// rounding of the count arithmetic).
    ///
    /// This is the opt-in hook that lets [`SequentialSampler`] skip null
    /// activations geometrically instead of simulating them one by one.
    /// The conservative default returns `None` ("no closed form known"),
    /// which makes the runner fall back to plain per-activation stepping —
    /// so each dynamic opts in incrementally.
    fn null_activation_probability(&self, config: &Configuration) -> Option<f64> {
        let _ = config;
        None
    }

    /// Draws the `(current, new)` state transition of a state-changing
    /// activation from its exact conditional distribution.
    ///
    /// Companion hook to
    /// [`null_activation_probability`](SamplingDynamics::null_activation_probability).
    /// Dynamics with closed-form conditionals (Voter, TwoChoices) override it
    /// so a skipped-ahead event costs `O(k)`; the default returns `None`,
    /// making the runner realize the event by rejection sampling (drawing
    /// activations until one is productive — exact, but no cheaper than
    /// stepping).
    fn sample_productive_move<R: Rng + ?Sized>(
        &self,
        config: &Configuration,
        rng: &mut R,
    ) -> Option<(AgentState, AgentState)> {
        let _ = (config, rng);
        None
    }

    /// Whether this dynamic provides the closed-form skip-ahead hook for the
    /// given configuration — i.e. whether
    /// [`null_activation_probability`](SamplingDynamics::null_activation_probability)
    /// returns `Some`.  Consumers that let the user *request* batched
    /// stepping explicitly (`usd_run --engine batched`, the throughput
    /// experiments) use this to fail with a clear diagnostic instead of
    /// silently falling back to per-activation stepping.
    fn supports_skip_ahead(&self, config: &Configuration) -> bool {
        self.null_activation_probability(config).is_some()
    }

    /// The activation law [`SequentialSampler`] owns for this dynamic and
    /// maintains across events (see [`crate::law_maintenance`]), built cold
    /// for `config`'s population.  The default `None` suits dynamics whose
    /// stateless hooks keep no per-run state: the sampler then calls them
    /// on every event.
    fn activation_law(&self, config: &Configuration) -> Option<ActivationLaw> {
        let _ = config;
        None
    }
}

/// Asynchronous (sequential) execution of a sampling dynamic over the count
/// vector: each step activates one uniformly random agent, which samples
/// `j` agents *with replacement* from the current population and updates.
///
/// One step corresponds to one interaction of the population protocol model,
/// so `steps / n` is the parallel time.
#[derive(Debug)]
pub struct SequentialSampler<D> {
    dynamics: D,
    config: Configuration,
    /// Category weights for per-activation draws ([`SequentialSampler::step`]
    /// and the rejection fallback).  A pure function of the counts, so the
    /// skip-ahead path leaves it stale and it is rebuilt on first use.
    weights: FenwickTree,
    weights_fresh: bool,
    steps: u64,
    rng: SmallRng,
    sample_buf: Vec<AgentState>,
    /// Skip-ahead events realized by the rejection fallback (the dynamic
    /// provided no closed-form conditional sampler).
    rejection_fallbacks: u64,
    /// Unproductive draws discarded inside the rejection fallback.
    rejection_misses: u64,
    /// The dynamic's maintained activation law, if it has one; refreshed
    /// once per event.
    law: Option<ActivationLaw>,
    /// The law's patches and rebuilds.
    law_stats: MaintenanceStats,
}

impl<D: SamplingDynamics> SequentialSampler<D> {
    /// Creates a sequential runner.
    ///
    /// # Panics
    ///
    /// Panics if the dynamic and the configuration disagree on `k`.
    #[must_use]
    pub fn new(dynamics: D, config: Configuration, seed: SimSeed) -> Self {
        Self::try_new(dynamics, config, seed).expect("dynamic/configuration opinion count mismatch")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::OpinionCountMismatch`] when the dynamic and the
    /// configuration disagree on `k`.
    pub fn try_new(dynamics: D, config: Configuration, seed: SimSeed) -> Result<Self, PpError> {
        if dynamics.num_opinions() != config.num_opinions() {
            return Err(PpError::OpinionCountMismatch {
                protocol: dynamics.num_opinions(),
                configuration: config.num_opinions(),
            });
        }
        let sample_size = dynamics.sample_size();
        Ok(SequentialSampler {
            weights: FenwickTree::new(config.num_opinions() + 1),
            weights_fresh: false,
            law: dynamics.activation_law(&config),
            dynamics,
            config,
            steps: 0,
            rng: seed.rng(),
            sample_buf: Vec::with_capacity(sample_size),
            rejection_fallbacks: 0,
            rejection_misses: 0,
            law_stats: MaintenanceStats::default(),
        })
    }

    /// The current configuration.
    #[must_use]
    pub fn configuration(&self) -> &Configuration {
        &self.config
    }

    /// Number of activations performed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The dynamic driving the runner.
    #[must_use]
    pub fn dynamics(&self) -> &D {
        &self.dynamics
    }

    /// How many skip-ahead events were realized by the rejection fallback
    /// because [`SamplingDynamics::sample_productive_move`] returned `None`.
    #[must_use]
    pub fn rejection_fallbacks(&self) -> u64 {
        self.rejection_fallbacks
    }

    /// Verifies the dynamic opts into geometric skip-ahead, for consumers
    /// where the batched backend was *requested* rather than opportunistic.
    ///
    /// [`StepEngine::advance`] transparently falls back to per-activation
    /// stepping when the dynamic provides no
    /// [`SamplingDynamics::null_activation_probability`] — correct, but a
    /// silent no-op as an optimization.  Call this first when the user asked
    /// for batched stepping explicitly so they get a diagnostic instead of
    /// quietly paying exact-engine cost.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::UnsupportedEngine`] when the dynamic lacks the
    /// skip-ahead hook.
    pub fn require_skip_ahead(&self) -> Result<(), PpError> {
        if self.dynamics.supports_skip_ahead(&self.config) {
            Ok(())
        } else {
            Err(PpError::UnsupportedEngine {
                requested: "batched",
            })
        }
    }

    /// How many unproductive draws the rejection fallback discarded — the
    /// measured cost a closed-form conditional sampler would remove (see the
    /// "batched conditionals" item in `ROADMAP.md`).
    #[must_use]
    pub fn rejection_miss_count(&self) -> u64 {
        self.rejection_misses
    }

    /// Performs one activation; returns `true` if the agent changed state.
    pub fn step(&mut self) -> bool {
        self.steps += 1;
        let (current, new_state) = self.draw_activation();
        if new_state == current {
            return false;
        }
        self.apply_transition(current, new_state);
        true
    }

    /// Draws one unconditional activation through the category weights:
    /// the activated agent's state and the state it updates to.
    fn draw_activation(&mut self) -> (AgentState, AgentState) {
        if !self.weights_fresh {
            let mut weights = Vec::with_capacity(self.config.num_opinions() + 1);
            weights.extend_from_slice(self.config.supports());
            weights.push(self.config.undecided());
            self.weights = FenwickTree::from_weights(&weights);
            self.weights_fresh = true;
        }
        let k = self.config.num_opinions();
        let current = AgentState::from_category(self.weights.sample(&mut self.rng), k);
        self.sample_buf.clear();
        for _ in 0..self.dynamics.sample_size() {
            let cat = self.weights.sample(&mut self.rng);
            self.sample_buf.push(AgentState::from_category(cat, k));
        }
        // Split the borrow: the update may need randomness.
        let samples = std::mem::take(&mut self.sample_buf);
        let new_state = self.dynamics.update(current, &samples, &mut self.rng);
        self.sample_buf = samples;
        (current, new_state)
    }

    /// Runs until the stop condition is met (budget counts activations).
    pub fn run(&mut self, stop: StopCondition) -> RunResult {
        self.run_recorded(stop, &mut pp_core::NullRecorder)
    }

    /// Runs until the stop condition is met, feeding changed configurations to
    /// the recorder.
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
        recorder.record(self.steps, &self.config);
        loop {
            if let Some(result) = self.finished(&stop) {
                return result;
            }
            if self.step() {
                recorder.record(self.steps, &self.config);
            }
        }
    }

    /// The run's result if `stop` ends it at the current state.
    fn finished(&self, stop: &StopCondition) -> Option<RunResult> {
        let outcome = stop.outcome(&self.config, self.steps)?;
        Some(
            RunResult::new(outcome, self.steps, self.config.clone())
                .with_scheduler(SEQUENTIAL_ACTIVATION_SCHEDULER_NAME)
                .with_rejection_misses(Some(self.rejection_misses)),
        )
    }

    /// Runs like [`SequentialSampler::run_recorded`] (per-activation
    /// stepping, same [`RunResult`] construction), but polls `pause` with
    /// the activation count after every step — the boundary where
    /// [`ReplicaCheckpoint::capture_replica`] is exact — and returns `None`
    /// when it asks to stop.  Pausing consumes no randomness, so slicing a
    /// run over any number of pauses leaves the trajectory bit-identical;
    /// unlike the uninterrupted twin this method never records the entry
    /// state, so re-entering after a pause emits no duplicate sample.
    ///
    /// # Panics
    ///
    /// Panics if the stop condition is unbounded.
    pub fn run_interruptible<R: Recorder>(
        &mut self,
        stop: StopCondition,
        recorder: &mut R,
        pause: &mut dyn FnMut(u64) -> bool,
    ) -> Option<RunResult> {
        assert!(
            stop.is_bounded(),
            "stop condition can never terminate the run"
        );
        loop {
            if let Some(result) = self.finished(&stop) {
                return Some(result);
            }
            if self.step() {
                recorder.record(self.steps, &self.config);
            }
            if pause(self.steps) {
                return None;
            }
        }
    }

    /// Applies a state transition to the configuration, the category
    /// weights (while they are in use) and the activation law.
    fn apply_transition(&mut self, from: AgentState, to: AgentState) {
        self.config
            .apply_move(from, to)
            .expect("sampling dynamic produced an inconsistent move");
        if self.weights_fresh {
            let k = self.config.num_opinions();
            self.weights.add(from.category(k), -1);
            self.weights.add(to.category(k), 1);
        }
        if let Some(law) = &mut self.law {
            law.apply_move(from, to, &self.config);
        }
    }

    /// Realizes one state-changing activation by rejection: draws activations
    /// from the unconditional distribution until one is productive.  Exact,
    /// used when the dynamic provides no closed-form conditional sampler.
    fn rejection_sample_move(&mut self) -> (AgentState, AgentState) {
        loop {
            let (current, new_state) = self.draw_activation();
            if new_state != current {
                return (current, new_state);
            }
            self.rejection_misses += 1;
        }
    }
}

/// The activation scheduler the sequential runner realizes: one uniformly
/// random agent activated per step, samples drawn with replacement.
pub const SEQUENTIAL_ACTIVATION_SCHEDULER_NAME: &str =
    "uniform sequential activations (samples with replacement)";

impl<D: SamplingDynamics> StepEngine for SequentialSampler<D> {
    fn configuration(&self) -> &Configuration {
        &self.config
    }

    fn interactions(&self) -> u64 {
        self.steps
    }

    fn engine_name(&self) -> &'static str {
        "sequential-sampling"
    }

    fn scheduler_name(&self) -> &'static str {
        SEQUENTIAL_ACTIVATION_SCHEDULER_NAME
    }

    fn rejection_misses(&self) -> Option<u64> {
        Some(self.rejection_misses)
    }

    /// The patches and rebuilds of this sampler's own activation law, so an
    /// ensemble replica reports what a standalone same-seed run does.
    fn maintenance(&self) -> Option<MaintenanceStats> {
        Some(self.law_stats)
    }

    /// Advances to the next state-changing activation.  When the dynamic
    /// provides [`SamplingDynamics::null_activation_probability`], the null
    /// activations in between are skipped with one geometric draw (and the
    /// event realized via the conditional sampler, falling back to rejection);
    /// otherwise activations are stepped one by one.  A dynamic with a
    /// maintained law answers both from it, refreshed once per event.
    fn advance(&mut self, limit: u64) -> Advance {
        if self.steps >= limit {
            return Advance::LimitReached;
        }
        let p_null = match &mut self.law {
            Some(law) => {
                law.refresh(&self.config, &mut self.law_stats);
                Some(law.null_probability(&self.config))
            }
            None => self.dynamics.null_activation_probability(&self.config),
        };
        let Some(p_null) = p_null else {
            while self.steps < limit {
                if self.step() {
                    return Advance::Event;
                }
            }
            return Advance::LimitReached;
        };
        debug_assert!(
            (0.0..=1.0).contains(&p_null),
            "null probability {p_null} out of range"
        );
        let p = 1.0 - p_null;
        if p <= 0.0 {
            self.steps = limit;
            return Advance::Absorbed;
        }
        let headroom = limit - self.steps;
        let Some(skip) = pp_core::engine::geometric_skip(&mut self.rng, p, headroom) else {
            self.steps = limit;
            return Advance::LimitReached;
        };
        self.steps += skip + 1;
        let drawn = match &self.law {
            Some(law) => law.sample_move(&self.config, &mut self.rng),
            None => self
                .dynamics
                .sample_productive_move(&self.config, &mut self.rng),
        };
        let (from, to) = match drawn {
            Some(transition) => transition,
            None => {
                self.rejection_fallbacks += 1;
                self.rejection_sample_move()
            }
        };
        debug_assert_ne!(from, to, "sampled event must change the agent's state");
        self.apply_transition(from, to);
        Advance::Event
    }
}

impl<D: SamplingDynamics + Clone> ReplicaCheckpoint for SequentialSampler<D> {
    type Context = D;

    /// Snapshots the sampler's trajectory-relevant state: counts, step
    /// counter and RNG state, plus the reporting counters.  The category
    /// weights and the activation law are pure functions of the counts and
    /// are not captured: a restored sampler builds its law cold at its
    /// first refresh, with bit-identical results (laws never consume
    /// randomness).
    fn capture_replica(&self) -> EngineSnapshot {
        EngineSnapshot {
            supports: self.config.supports().to_vec(),
            undecided: self.config.undecided(),
            interactions: self.steps,
            rng: self.rng.state(),
            counters: vec![
                ("rejection_fallbacks".into(), self.rejection_fallbacks),
                ("rejection_misses".into(), self.rejection_misses),
                ("law_patches".into(), self.law_stats.law_patches),
                ("law_rebuilds".into(), self.law_stats.law_rebuilds),
                (
                    "law_fallback_rebuilds".into(),
                    self.law_stats.law_fallback_rebuilds,
                ),
            ],
        }
    }

    fn restore_replica(ctx: &D, snapshot: &EngineSnapshot) -> Result<Self, PpError> {
        let config = snapshot.configuration()?;
        let mut sampler = Self::try_new(ctx.clone(), config, SimSeed::from_u64(0))?;
        sampler.rng = SmallRng::from_state(snapshot.rng);
        sampler.steps = snapshot.interactions;
        sampler.rejection_fallbacks = snapshot.counter("rejection_fallbacks").unwrap_or(0);
        sampler.rejection_misses = snapshot.counter("rejection_misses").unwrap_or(0);
        sampler.law_stats.law_patches = snapshot.counter("law_patches").unwrap_or(0);
        sampler.law_stats.law_rebuilds = snapshot.counter("law_rebuilds").unwrap_or(0);
        sampler.law_stats.law_fallback_rebuilds =
            snapshot.counter("law_fallback_rebuilds").unwrap_or(0);
        Ok(sampler)
    }
}

/// Builds an [`EnsembleEngine`] of `choice.replicas()` sequential samplers
/// of `dynamics`, all starting from `config`, with the standard
/// per-replica seed derivation (`master.child(i)` — see
/// [`EnsembleChoice::seeds`]) and the choice's worker parallelism.  Works
/// for every shipped sampling dynamic; the live replicas spread over
/// `choice.parallelism()` worker threads (every shipped dynamic is
/// `Send + Sync`, so samplers move freely between workers; results are
/// bit-identical at every thread count).
///
/// # Errors
///
/// Returns [`PpError::UnsupportedEngine`] when `choice` selects a
/// non-batched base backend or when the dynamic provides no closed-form
/// skip-ahead hooks, and [`PpError::OpinionCountMismatch`] when the dynamic
/// and the configuration disagree on `k`.
pub fn sampler_ensemble<D: SamplingDynamics + Clone>(
    dynamics: &D,
    config: &Configuration,
    master: SimSeed,
    choice: EnsembleChoice,
) -> Result<EnsembleEngine<SequentialSampler<D>>, PpError> {
    choice.validate()?;
    let replicas = choice
        .seeds(master)
        .into_iter()
        .map(|seed| SequentialSampler::try_new(dynamics.clone(), config.clone(), seed))
        .collect::<Result<Vec<_>, _>>()?;
    if !dynamics.supports_skip_ahead(config) {
        return Err(PpError::UnsupportedEngine {
            requested: "ensemble",
        });
    }
    Ok(EnsembleEngine::try_new(replicas)?.with_parallelism(choice.parallelism()))
}

/// Synchronous (gossip-round) execution of a sampling dynamic over an explicit
/// agent array: in every round each agent draws its samples from the *old*
/// state vector and all agents update simultaneously.
#[derive(Debug)]
pub struct SynchronousRunner<D> {
    dynamics: D,
    agents: Vec<AgentState>,
    config: Configuration,
    rounds: u64,
    rng: SmallRng,
}

impl<D: SamplingDynamics> SynchronousRunner<D> {
    /// Creates a synchronous runner.
    ///
    /// # Panics
    ///
    /// Panics if the dynamic and the configuration disagree on `k`.
    #[must_use]
    pub fn new(dynamics: D, config: &Configuration, seed: SimSeed) -> Self {
        assert_eq!(
            dynamics.num_opinions(),
            config.num_opinions(),
            "dynamic/configuration opinion count mismatch"
        );
        SynchronousRunner {
            dynamics,
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

    /// Number of synchronous rounds executed so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Executes one synchronous round.
    pub fn round(&mut self) {
        let n = self.agents.len();
        let old = self.agents.clone();
        let j = self.dynamics.sample_size();
        let mut samples = vec![AgentState::Undecided; j];
        for idx in 0..n {
            for s in samples.iter_mut() {
                *s = old[self.rng.gen_range(0..n)];
            }
            self.agents[idx] = self.dynamics.update(old[idx], &samples, &mut self.rng);
        }
        self.rounds += 1;
        self.config = Configuration::from_states(&self.agents, self.config.num_opinions())
            .expect("synchronous round preserves the population");
    }

    /// Runs until consensus or until `max_rounds` rounds have elapsed;
    /// returns the result with the *round count* in the interactions field.
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

    /// A trivial dynamic: always adopt the first sample if decided.
    #[derive(Debug)]
    struct AdoptFirst {
        k: usize,
    }

    impl SamplingDynamics for AdoptFirst {
        fn num_opinions(&self) -> usize {
            self.k
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
            "adopt-first"
        }
    }

    #[test]
    fn sequential_sampler_conserves_population() {
        let config = Configuration::from_counts(vec![40, 40, 20], 0).unwrap();
        let mut sim = SequentialSampler::new(AdoptFirst { k: 3 }, config, SimSeed::from_u64(1));
        for _ in 0..5_000 {
            sim.step();
            assert_eq!(sim.configuration().population(), 100);
            assert!(sim.configuration().is_consistent());
        }
    }

    #[test]
    fn sequential_sampler_reaches_consensus() {
        let config = Configuration::from_counts(vec![80, 20], 0).unwrap();
        let mut sim = SequentialSampler::new(AdoptFirst { k: 2 }, config, SimSeed::from_u64(2));
        let result = sim.run(StopCondition::consensus().or_max_interactions(1_000_000));
        assert!(result.reached_consensus());
    }

    #[test]
    fn mismatched_opinion_counts_are_rejected() {
        let config = Configuration::uniform(100, 4).unwrap();
        assert!(
            SequentialSampler::try_new(AdoptFirst { k: 2 }, config, SimSeed::from_u64(0)).is_err()
        );
    }

    #[test]
    fn synchronous_runner_counts_rounds() {
        let config = Configuration::from_counts(vec![190, 10], 0).unwrap();
        let mut sim = SynchronousRunner::new(AdoptFirst { k: 2 }, &config, SimSeed::from_u64(3));
        let result = sim.run(10_000);
        assert!(result.reached_consensus());
        assert_eq!(result.interactions(), sim.rounds());
        assert!(
            sim.rounds() < 200,
            "voter-like dynamic should converge quickly: {}",
            sim.rounds()
        );
    }

    #[test]
    fn synchronous_runner_population_is_stable() {
        let config = Configuration::uniform(500, 5).unwrap();
        let mut sim = SynchronousRunner::new(AdoptFirst { k: 5 }, &config, SimSeed::from_u64(4));
        for _ in 0..20 {
            sim.round();
            assert_eq!(sim.configuration().population(), 500);
        }
    }

    #[test]
    fn step_engine_fallback_matches_plain_stepping_semantics() {
        // AdoptFirst provides no hooks, so `advance` steps one by one.
        let config = Configuration::from_counts(vec![80, 20], 0).unwrap();
        let mut sim = SequentialSampler::new(AdoptFirst { k: 2 }, config, SimSeed::from_u64(6));
        let result = sim.run_engine(StopCondition::consensus().or_max_interactions(1_000_000));
        assert!(result.reached_consensus());
        assert_eq!(
            result.scheduler(),
            Some(SEQUENTIAL_ACTIVATION_SCHEDULER_NAME)
        );
    }

    #[test]
    fn skip_ahead_engine_converges_for_voter() {
        use crate::voter::Voter;
        let config = Configuration::from_counts(vec![450, 50], 0).unwrap();
        let mut sim = SequentialSampler::new(Voter::new(2), config, SimSeed::from_u64(9));
        let result = sim.run_engine(StopCondition::consensus().or_max_interactions(5_000_000));
        assert!(result.reached_consensus());
        assert_eq!(sim.engine_name(), "sequential-sampling");
    }

    #[test]
    fn skip_ahead_respects_budgets_exactly() {
        use crate::voter::TwoChoices;
        let config = Configuration::from_counts(vec![500, 500], 0).unwrap();
        let mut sim = SequentialSampler::new(TwoChoices::new(2), config, SimSeed::from_u64(10));
        while let Advance::Event = sim.advance(25_000) {
            assert!(sim.steps() <= 25_000);
        }
        assert_eq!(sim.steps(), 25_000);
        assert!(sim.configuration().is_consistent());
    }

    /// A dynamic that opts into skip-ahead (closed-form null probability)
    /// but provides no conditional sampler, forcing the rejection fallback:
    /// the activated agent adopts the first sample when both are decided and
    /// differ.
    #[derive(Debug)]
    struct AdoptFirstSkipping {
        k: usize,
    }

    impl SamplingDynamics for AdoptFirstSkipping {
        fn num_opinions(&self) -> usize {
            self.k
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
                AgentState::Decided(_) if samples[0] != current => samples[0],
                _ => current,
            }
        }
        fn null_activation_probability(&self, config: &Configuration) -> Option<f64> {
            // Null iff the sample is undecided or matches the activated
            // agent's state: P = u/n + Σ_c (π_c)².
            let n = config.population() as f64;
            let mut p = config.undecided() as f64 / n;
            for i in 0..config.num_opinions() {
                let x = config.support(i) as f64 / n;
                p += x * x;
            }
            Some(p)
        }
    }

    #[test]
    fn rejection_fallback_misses_are_counted_and_reported() {
        let config = Configuration::from_counts(vec![60, 40], 0).unwrap();
        let mut sim =
            SequentialSampler::new(AdoptFirstSkipping { k: 2 }, config, SimSeed::from_u64(12));
        let result = sim.run_engine(StopCondition::consensus().or_max_interactions(1_000_000));
        assert!(result.reached_consensus());
        assert!(
            sim.rejection_fallbacks() > 0,
            "the fallback must have been exercised"
        );
        assert!(sim.rejection_miss_count() >= sim.rejection_fallbacks() / 10);
        assert_eq!(result.rejection_misses(), Some(sim.rejection_miss_count()));
    }

    #[test]
    fn closed_form_dynamics_report_zero_misses() {
        use crate::voter::Voter;
        let config = Configuration::from_counts(vec![450, 50], 0).unwrap();
        let mut sim = SequentialSampler::new(Voter::new(2), config, SimSeed::from_u64(13));
        let result = sim.run_engine(StopCondition::consensus().or_max_interactions(5_000_000));
        assert!(result.reached_consensus());
        assert_eq!(result.rejection_misses(), Some(0));
        assert_eq!(sim.rejection_fallbacks(), 0);
    }

    #[test]
    fn explicit_batched_requests_are_rejected_without_hooks() {
        // AdoptFirst has no skip-ahead hook: the opportunistic engine falls
        // back silently, but an explicit batched request must fail loudly.
        let config = Configuration::from_counts(vec![80, 20], 0).unwrap();
        let sim = SequentialSampler::new(AdoptFirst { k: 2 }, config.clone(), SimSeed::from_u64(7));
        assert!(!sim.dynamics().supports_skip_ahead(&config));
        let err = sim.require_skip_ahead().unwrap_err();
        assert!(matches!(
            err,
            PpError::UnsupportedEngine {
                requested: "batched"
            }
        ));
        // Dynamics with hooks pass the same gate.
        use crate::voter::Voter;
        let sim = SequentialSampler::new(Voter::new(2), config, SimSeed::from_u64(7));
        assert!(sim.require_skip_ahead().is_ok());
    }

    #[test]
    fn back_to_back_runs_on_one_thread_never_patch_each_others_memos() {
        // Two samplers with the same dynamic parameters but different
        // counts, interleaved on one thread: each owns its law, so the
        // second sampler's first refresh is a cold rebuild of its own law,
        // and from then on each run patches only from its own previous
        // counts — what a standalone run reports, for the `j = 4` integer
        // tables and the `j ≤ 3` closed form alike.
        use crate::majority::JMajority;
        for j in [4usize, 3] {
            let mut a = SequentialSampler::new(
                JMajority::new(3, j),
                Configuration::from_counts(vec![400, 300, 200], 100).unwrap(),
                SimSeed::from_u64(41),
            );
            let mut b = SequentialSampler::new(
                JMajority::new(3, j),
                Configuration::from_counts(vec![50, 800, 50], 100).unwrap(),
                SimSeed::from_u64(42),
            );
            assert_eq!(a.advance(u64::MAX), Advance::Event);
            assert_eq!(b.advance(u64::MAX), Advance::Event);
            let stats = b.maintenance().expect("samplers count law work");
            assert_eq!(
                stats.law_patches, 0,
                "j = {j}: a fresh run must not patch another run's law"
            );
            assert_eq!(
                stats.law_rebuilds, 1,
                "j = {j}: first refresh is a cold rebuild"
            );
            for _ in 0..2 {
                assert_eq!(a.advance(u64::MAX), Advance::Event);
                assert_eq!(b.advance(u64::MAX), Advance::Event);
            }
            for stats in [a.maintenance().unwrap(), b.maintenance().unwrap()] {
                assert_eq!((stats.law_rebuilds, stats.law_patches), (1, 2), "j = {j}");
            }
        }
    }

    #[test]
    fn sampler_checkpoints_restore_the_exact_trajectory_tail() {
        // Standalone sampler: run, capture mid-flight, restore, and check
        // the tails agree draw for draw (JMajority exercises the maintained
        // law, which a restored sampler builds cold).
        use crate::majority::JMajority;
        use pp_core::Checkpoint;
        let config = Configuration::from_counts(vec![400, 300, 200], 100).unwrap();
        let mut warm =
            SequentialSampler::new(JMajority::new(3, 3), config.clone(), SimSeed::from_u64(77));
        for _ in 0..200 {
            assert_eq!(warm.advance(u64::MAX), Advance::Event);
        }
        let snapshot = warm.capture_replica();
        let mut cold =
            SequentialSampler::<JMajority>::restore_replica(&JMajority::new(3, 3), &snapshot)
                .unwrap();
        assert_eq!(cold.configuration(), warm.configuration());
        assert_eq!(cold.steps(), warm.steps());
        for _ in 0..500 {
            assert_eq!(warm.advance(u64::MAX), cold.advance(u64::MAX));
            assert_eq!(cold.configuration(), warm.configuration());
            assert_eq!(cold.steps(), warm.steps());
        }
        // Reporting counters survive the round trip (the restored law is
        // built from the counts, never patched from the dead run's law).
        assert_eq!(cold.rejection_miss_count(), warm.rejection_miss_count());

        // Ensemble of samplers: pause on a window budget, checkpoint
        // through the serialized form, and finish both legs identically.
        use crate::voter::Voter;
        let config = Configuration::from_counts(vec![700, 300], 0).unwrap();
        let stop = StopCondition::consensus().or_max_interactions(5_000_000);
        let choice = EnsembleChoice::new(4);
        let mut uninterrupted =
            sampler_ensemble(&Voter::new(2), &config, SimSeed::from_u64(5), choice).unwrap();
        let expected = uninterrupted
            .run_windows(stop, u64::MAX)
            .expect("unbounded window budget always finishes");
        let mut paused =
            sampler_ensemble(&Voter::new(2), &config, SimSeed::from_u64(5), choice).unwrap();
        assert!(paused.run_windows(stop, 1).is_none());
        let json = Checkpoint::capture(&paused).to_json();
        let restored = Checkpoint::from_json(&json).unwrap();
        let mut resumed =
            EnsembleEngine::<SequentialSampler<Voter>>::restore(&Voter::new(2), &restored).unwrap();
        let outcome = resumed
            .run_windows(stop, u64::MAX)
            .expect("unbounded window budget always finishes");
        assert_eq!(outcome.results(), expected.results());
    }

    #[test]
    fn skip_ahead_detects_absorbing_configurations() {
        use crate::voter::Voter;
        // All agents undecided: the Voter can never change anyone.
        let config = Configuration::from_counts(vec![0, 0], 50).unwrap();
        let mut sim = SequentialSampler::new(Voter::new(2), config, SimSeed::from_u64(11));
        assert_eq!(sim.advance(1_000), Advance::Absorbed);
        assert_eq!(sim.steps(), 1_000);
    }
}
