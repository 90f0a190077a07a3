//! The [`InitialConfig`] builder.

use crate::generators;
use pp_core::{
    ConfigError, Configuration, EngineChoice, EnsembleChoice, FidelityConfig, Parallelism,
    ShardPlan, SimSeed,
};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// How the plurality opinion is biased relative to the others.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BiasSpec {
    /// No bias: supports split as evenly as possible.
    None,
    /// Additive bias of the given absolute number of agents.
    Additive(u64),
    /// Additive bias expressed in units of `√(n·ln n)` (the paper's natural
    /// scale for Theorem 2.2 and the significance threshold).
    AdditiveInSqrtNLogN(f64),
    /// Multiplicative bias: the plurality leads every rival by this factor
    /// (must be `> 1`).
    Multiplicative(f64),
    /// Exactly two tied leading opinions holding the given fraction of the
    /// population between them.
    TwoWayTie(f64),
    /// Power-law supports with the given exponent.
    PowerLaw(f64),
    /// Random supports from a symmetric Dirichlet-like distribution with the
    /// given integer shape parameter.
    DirichletLike(u32),
}

/// How many agents start undecided.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum UndecidedSpec {
    /// No undecided agents (the common case in the paper's theorems).
    None,
    /// An absolute number of undecided agents.
    Count(u64),
    /// A fraction of the population, capped at the paper's admissibility
    /// bound `u(0) ≤ (n − x₁(0))/2` when `clamp_to_admissible` is used.
    Fraction(f64),
    /// The largest admissible undecided pool, `⌊(n − x₁(0))/2⌋`.
    MaxAdmissible,
}

/// Error raised by [`InitialConfig::build`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// The underlying configuration could not be constructed.
    Config(ConfigError),
    /// A builder parameter was out of range.
    InvalidParameter(String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Config(e) => write!(f, "invalid configuration: {e}"),
            WorkloadError::InvalidParameter(msg) => write!(f, "invalid workload parameter: {msg}"),
        }
    }
}

impl Error for WorkloadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorkloadError::Config(e) => Some(e),
            WorkloadError::InvalidParameter(_) => None,
        }
    }
}

impl From<ConfigError> for WorkloadError {
    fn from(e: ConfigError) -> Self {
        WorkloadError::Config(e)
    }
}

/// Builder for initial configurations.
///
/// The builder first lays out the decided agents according to the bias
/// specification, then (optionally) converts part of the population into an
/// undecided pool by removing agents *proportionally* from every opinion, so
/// the requested bias structure is preserved.
///
/// # Examples
///
/// ```
/// use pp_workloads::InitialConfig;
/// use pp_core::SimSeed;
///
/// // Theorem 2.1 regime: multiplicative bias 1.5, no undecided agents.
/// let c = InitialConfig::new(50_000, 16)
///     .multiplicative_bias(1.5)
///     .build(SimSeed::from_u64(3))
///     .unwrap();
/// assert!(c.multiplicative_bias().unwrap() >= 1.45);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InitialConfig {
    population: u64,
    opinions: usize,
    bias: BiasSpec,
    undecided: UndecidedSpec,
    engine: EngineChoice,
    shards: Option<usize>,
    replicas: Option<usize>,
    /// Defaulted so pre-knob serialized specs keep deserializing once the
    /// real serde is swapped back in (the vendored derive is a no-op).
    #[serde(default)]
    parallelism: Parallelism,
    /// Defaulted for the same forward-compatibility reason as `parallelism`.
    #[serde(default)]
    fidelity: Option<FidelityConfig>,
}

impl InitialConfig {
    /// Starts a builder for `n` agents and `k` opinions with no bias, no
    /// undecided agents, and the exact step engine.
    #[must_use]
    pub fn new(population: u64, opinions: usize) -> Self {
        InitialConfig {
            population,
            opinions,
            bias: BiasSpec::None,
            undecided: UndecidedSpec::None,
            engine: EngineChoice::Exact,
            shards: None,
            replicas: None,
            parallelism: Parallelism::auto(),
            fidelity: None,
        }
    }

    /// Selects the step-engine backend simulations of this workload should
    /// run on (consumed by the simulator constructors downstream, e.g.
    /// `UsdSimulator::with_engine`; the builder itself only produces the
    /// initial configuration).  Defaults to [`EngineChoice::Exact`].
    #[must_use]
    pub fn engine(mut self, choice: EngineChoice) -> Self {
        self.engine = choice;
        self
    }

    /// The step-engine backend selected for this workload.
    #[must_use]
    pub fn engine_choice(&self) -> EngineChoice {
        self.engine
    }

    /// Selects the shard count for sharded simulations of this workload
    /// (consumed by [`InitialConfig::build_sharded`] and by downstream
    /// simulator constructors through [`InitialConfig::shard_plan`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "a sharded workload needs at least one shard");
        self.shards = Some(shards);
        self
    }

    /// The shard count selected for this workload, if any.
    #[must_use]
    pub fn shard_count(&self) -> Option<usize> {
        self.shards
    }

    /// Selects the fidelity-controller thresholds for hybrid simulations of
    /// this workload (consumed by downstream simulator constructors through
    /// [`InitialConfig::fidelity_config`]; ignored by every non-hybrid
    /// engine).
    ///
    /// # Panics
    ///
    /// Panics if the thresholds are invalid under
    /// [`FidelityConfig::validate`] (e.g. a demote ratio at or above the
    /// promote ratio, which would defeat the hysteresis band).
    #[must_use]
    pub fn fidelity(mut self, config: FidelityConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid fidelity configuration: {msg}");
        }
        self.fidelity = Some(config);
        self
    }

    /// The fidelity thresholds selected for this workload, if any.
    #[must_use]
    pub fn fidelity_override(&self) -> Option<FidelityConfig> {
        self.fidelity
    }

    /// The [`FidelityConfig`] this workload resolves to: the selected
    /// thresholds, or the defaults when none were given.
    #[must_use]
    pub fn fidelity_config(&self) -> FidelityConfig {
        self.fidelity.unwrap_or_default()
    }

    /// Selects the lockstep replica count for ensemble simulations of this
    /// workload (consumed by [`InitialConfig::build_ensemble`] and by
    /// downstream ensemble constructors through
    /// [`InitialConfig::ensemble_choice`]).
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    #[must_use]
    pub fn replicas(mut self, replicas: usize) -> Self {
        assert!(replicas >= 1, "an ensemble needs at least one replica");
        self.replicas = Some(replicas);
        self
    }

    /// The lockstep replica count selected for this workload, if any.
    #[must_use]
    pub fn replica_count(&self) -> Option<usize> {
        self.replicas
    }

    /// Caps the worker threads of parallel simulations of this workload
    /// (the sharded engine's shard workers through
    /// [`InitialConfig::shard_plan`], the replica ensemble's workers
    /// through [`InitialConfig::ensemble_choice`]).  Defaults to the
    /// machine's available parallelism; thread count never affects results.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.parallelism = Parallelism::fixed(threads);
        self
    }

    /// Selects the worker-thread knob directly.
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The worker-thread knob selected for this workload.
    #[must_use]
    pub fn parallelism_choice(&self) -> Parallelism {
        self.parallelism
    }

    /// The [`EnsembleChoice`] this workload resolves to: the selected
    /// replica count (1 when none was given) on the workload's engine as
    /// base backend — only [`EngineChoice::Batched`] survives
    /// [`EnsembleChoice::validate`], which is how downstream consumers turn
    /// an unsupported nesting (e.g. sharded-inside-ensemble) into a clear
    /// diagnostic.
    #[must_use]
    pub fn ensemble_choice(&self) -> EnsembleChoice {
        EnsembleChoice::new(self.replicas.unwrap_or(1))
            .with_base(self.engine)
            .with_parallelism(self.parallelism)
    }

    /// Builds the ensemble workload: the shared initial configuration every
    /// replica starts from, together with the *validated*
    /// [`EnsembleChoice`] to hand to the ensemble constructors
    /// (`UsdEnsemble::try_new`, `sampler_ensemble`).  Replicas differ only
    /// through their RNG streams, seeded `master.child(i)` downstream.
    ///
    /// # Errors
    ///
    /// Returns an error if the workload parameters are out of range or if
    /// the selected engine cannot run inside the lockstep ensemble
    /// (validated through [`InitialConfig::ensemble_choice`]).
    pub fn build_ensemble(
        &self,
        seed: SimSeed,
    ) -> Result<(Configuration, EnsembleChoice), WorkloadError> {
        let choice = self.ensemble_choice();
        choice.validate().map_err(|e| {
            WorkloadError::InvalidParameter(format!(
                "{e}: the replica ensemble runs skip-ahead replicas, \
                 so only the batched base engine is supported"
            ))
        })?;
        Ok((self.build(seed)?, choice))
    }

    /// The [`ShardPlan`] this workload resolves to: the selected shard count
    /// (or the plan default when none was given), automatic epoch length and
    /// the workload's worker-thread knob.
    #[must_use]
    pub fn shard_plan(&self) -> ShardPlan {
        self.shards
            .map_or_else(ShardPlan::default, ShardPlan::new)
            .with_parallelism(self.parallelism)
    }

    /// Builds the configuration and splits it into per-shard count vectors
    /// (populations as even as possible, every category allocated
    /// proportionally) — the input shape for
    /// `pp_core::shard::ShardedEngine::from_shards`.  Merging the shards
    /// back reproduces the global configuration exactly.
    ///
    /// # Errors
    ///
    /// Returns an error if the workload parameters are out of range or if
    /// the shard count exceeds the population.
    pub fn build_sharded(&self, seed: SimSeed) -> Result<Vec<Configuration>, WorkloadError> {
        let config = self.build(seed)?;
        let shards = self.shard_plan().effective_shards(config.population());
        if self.shards.is_some_and(|s| s as u64 > config.population()) {
            return Err(WorkloadError::InvalidParameter(format!(
                "cannot split {} agents into {} non-empty shards",
                config.population(),
                self.shards.unwrap_or_default()
            )));
        }
        let populations =
            pp_core::shard::multinomial::shard_populations(config.population(), shards);
        Ok(pp_core::shard::multinomial::split_configuration(
            &config,
            &populations,
        ))
    }

    /// Population size `n`.
    #[must_use]
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Number of opinions `k`.
    #[must_use]
    pub fn opinions(&self) -> usize {
        self.opinions
    }

    /// The bias specification selected for this workload.
    #[must_use]
    pub fn bias_spec(&self) -> BiasSpec {
        self.bias
    }

    /// The undecided-seeding specification selected for this workload.
    #[must_use]
    pub fn undecided_spec(&self) -> UndecidedSpec {
        self.undecided
    }

    /// Uses the given bias specification.
    #[must_use]
    pub fn bias(mut self, bias: BiasSpec) -> Self {
        self.bias = bias;
        self
    }

    /// Additive bias of `beta` agents.
    #[must_use]
    pub fn additive_bias(mut self, beta: u64) -> Self {
        self.bias = BiasSpec::Additive(beta);
        self
    }

    /// Additive bias of `alpha·√(n·ln n)` agents.
    #[must_use]
    pub fn additive_bias_in_sqrt_n_log_n(mut self, alpha: f64) -> Self {
        self.bias = BiasSpec::AdditiveInSqrtNLogN(alpha);
        self
    }

    /// Multiplicative bias of the given factor (`> 1`).
    #[must_use]
    pub fn multiplicative_bias(mut self, factor: f64) -> Self {
        self.bias = BiasSpec::Multiplicative(factor);
        self
    }

    /// Two tied leaders holding `fraction` of the population.
    #[must_use]
    pub fn two_way_tie(mut self, fraction: f64) -> Self {
        self.bias = BiasSpec::TwoWayTie(fraction);
        self
    }

    /// Power-law supports with the given exponent.
    #[must_use]
    pub fn power_law(mut self, exponent: f64) -> Self {
        self.bias = BiasSpec::PowerLaw(exponent);
        self
    }

    /// Random Dirichlet-like supports with the given shape.
    #[must_use]
    pub fn dirichlet_like(mut self, shape: u32) -> Self {
        self.bias = BiasSpec::DirichletLike(shape);
        self
    }

    /// Uses the given undecided specification.
    #[must_use]
    pub fn undecided(mut self, spec: UndecidedSpec) -> Self {
        self.undecided = spec;
        self
    }

    /// Starts with `count` undecided agents.
    #[must_use]
    pub fn undecided_count(mut self, count: u64) -> Self {
        self.undecided = UndecidedSpec::Count(count);
        self
    }

    /// Starts with a `fraction` of the population undecided.
    #[must_use]
    pub fn undecided_fraction(mut self, fraction: f64) -> Self {
        self.undecided = UndecidedSpec::Fraction(fraction);
        self
    }

    /// Starts with the largest undecided pool admissible under the paper's
    /// assumption `u(0) ≤ (n − x₁(0))/2`.
    #[must_use]
    pub fn max_admissible_undecided(mut self) -> Self {
        self.undecided = UndecidedSpec::MaxAdmissible;
        self
    }

    /// Builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the parameters are out of range (e.g. a
    /// multiplicative factor `≤ 1`, an undecided fraction outside `[0, 1)`,
    /// or an additive bias at least `n`).
    pub fn build(&self, seed: SimSeed) -> Result<Configuration, WorkloadError> {
        let n = self.population;
        let k = self.opinions;
        let decided = match self.bias {
            BiasSpec::None => generators::uniform(n, k)?,
            BiasSpec::Additive(beta) => generators::with_additive_bias(n, k, beta)?,
            BiasSpec::AdditiveInSqrtNLogN(alpha) => {
                if alpha < 0.0 || !alpha.is_finite() {
                    return Err(WorkloadError::InvalidParameter(format!(
                        "additive bias multiplier {alpha} must be non-negative"
                    )));
                }
                let n_f = n as f64;
                let beta = (alpha * (n_f * n_f.max(2.0).ln()).sqrt()).round() as u64;
                if beta == 0 {
                    generators::uniform(n, k)?
                } else {
                    generators::with_additive_bias(n, k, beta.min(n.saturating_sub(1)))?
                }
            }
            BiasSpec::Multiplicative(factor) => {
                if factor <= 1.0 || !factor.is_finite() {
                    return Err(WorkloadError::InvalidParameter(format!(
                        "multiplicative bias factor {factor} must exceed 1"
                    )));
                }
                generators::with_multiplicative_bias(n, k, factor)?
            }
            BiasSpec::TwoWayTie(fraction) => {
                if !(fraction > 0.0 && fraction <= 1.0) {
                    return Err(WorkloadError::InvalidParameter(format!(
                        "tied fraction {fraction} must be in (0, 1]"
                    )));
                }
                generators::two_way_tie(n, k, fraction)?
            }
            BiasSpec::PowerLaw(exponent) => {
                if exponent < 0.0 || !exponent.is_finite() {
                    return Err(WorkloadError::InvalidParameter(format!(
                        "power-law exponent {exponent} must be non-negative"
                    )));
                }
                generators::power_law(n, k, exponent)?
            }
            BiasSpec::DirichletLike(shape) => {
                if shape == 0 {
                    return Err(WorkloadError::InvalidParameter(
                        "dirichlet shape must be positive".to_string(),
                    ));
                }
                let mut rng = seed.rng();
                generators::dirichlet_like(n, k, shape, &mut rng)?
            }
        };

        let undecided_target = match self.undecided {
            UndecidedSpec::None => 0,
            UndecidedSpec::Count(c) => {
                if c >= n {
                    return Err(WorkloadError::InvalidParameter(format!(
                        "undecided count {c} must be smaller than the population {n}"
                    )));
                }
                c
            }
            UndecidedSpec::Fraction(f) => {
                if !(0.0..1.0).contains(&f) {
                    return Err(WorkloadError::InvalidParameter(format!(
                        "undecided fraction {f} must be in [0, 1)"
                    )));
                }
                (n as f64 * f).round() as u64
            }
            UndecidedSpec::MaxAdmissible => (n - decided.max_support()) / 2,
        };
        if undecided_target == 0 {
            return Ok(decided);
        }
        Ok(convert_to_undecided(&decided, undecided_target))
    }

    /// The paper's admissibility bound on the initial undecided count for the
    /// decided layout this builder would produce (without the undecided pool):
    /// `⌊(n − x₁(0))/2⌋`.
    ///
    /// # Errors
    ///
    /// Propagates parameter errors from the bias specification.
    pub fn admissible_undecided_bound(&self, seed: SimSeed) -> Result<u64, WorkloadError> {
        let no_undecided = InitialConfig {
            undecided: UndecidedSpec::None,
            ..*self
        };
        let decided = no_undecided.build(seed)?;
        Ok((decided.population() - decided.max_support()) / 2)
    }
}

/// Converts `target` decided agents into undecided ones, removing them from
/// each opinion proportionally to its support (largest-remainder rounding) so
/// that the bias structure of the decided layout is preserved.
fn convert_to_undecided(decided: &Configuration, target: u64) -> Configuration {
    let n = decided.population();
    let target = target.min(n - 1);
    let decided_total = decided.decided();
    let mut removed: Vec<u64> = decided
        .supports()
        .iter()
        .map(|&s| ((s as u128 * target as u128) / decided_total as u128) as u64)
        .collect();
    let mut removed_total: u64 = removed.iter().sum();
    // Round-robin the remainder over opinions that still have agents left.
    let k = removed.len();
    let mut i = 0usize;
    while removed_total < target {
        let idx = i % k;
        if removed[idx] < decided.support(idx) {
            removed[idx] += 1;
            removed_total += 1;
        }
        i += 1;
        if i > 10 * k + target as usize {
            break; // cannot remove more than exists; safety valve
        }
    }
    let counts: Vec<u64> = decided
        .supports()
        .iter()
        .zip(&removed)
        .map(|(&s, &r)| s - r)
        .collect();
    Configuration::from_counts(counts, removed_total)
        .expect("undecided conversion preserves the population")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed() -> SimSeed {
        SimSeed::from_u64(42)
    }

    #[test]
    fn default_builder_is_uniform() {
        let c = InitialConfig::new(1000, 4).build(seed()).unwrap();
        assert_eq!(c.supports(), &[250, 250, 250, 250]);
        assert_eq!(c.undecided(), 0);
    }

    #[test]
    fn engine_selection_defaults_to_exact_and_round_trips() {
        let spec = InitialConfig::new(1000, 4);
        assert_eq!(spec.engine_choice(), EngineChoice::Exact);
        let spec = spec.engine(EngineChoice::Batched);
        assert_eq!(spec.engine_choice(), EngineChoice::Batched);
        // Engine selection never affects the generated configuration.
        let a = InitialConfig::new(1000, 4).build(seed()).unwrap();
        let b = spec.build(seed()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn additive_bias_in_natural_units() {
        let c = InitialConfig::new(40_000, 8)
            .additive_bias_in_sqrt_n_log_n(1.0)
            .build(seed())
            .unwrap();
        let n_f = 40_000f64;
        let expected = (n_f * n_f.ln()).sqrt();
        assert!(c.additive_bias().unwrap() as f64 >= expected * 0.9);
    }

    #[test]
    fn undecided_fraction_preserves_bias_direction() {
        let c = InitialConfig::new(30_000, 5)
            .multiplicative_bias(2.0)
            .undecided_fraction(0.3)
            .build(seed())
            .unwrap();
        assert_eq!(c.population(), 30_000);
        let u = c.undecided();
        assert!((u as f64 - 9_000.0).abs() <= 5.0, "u = {u}");
        assert_eq!(c.max_opinion().index(), 0);
        assert!(c.multiplicative_bias().unwrap() > 1.8);
    }

    #[test]
    fn max_admissible_undecided_respects_paper_bound() {
        let c = InitialConfig::new(10_000, 4)
            .max_admissible_undecided()
            .build(seed())
            .unwrap();
        // Bound is computed from the decided layout: u(0) <= (n - x1(0))/2.
        let decided_layout = InitialConfig::new(10_000, 4).build(seed()).unwrap();
        let bound = (10_000 - decided_layout.max_support()) / 2;
        assert!(c.undecided() <= bound);
        assert!(c.undecided() >= bound - 4);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(matches!(
            InitialConfig::new(100, 3)
                .multiplicative_bias(1.0)
                .build(seed()),
            Err(WorkloadError::InvalidParameter(_))
        ));
        assert!(matches!(
            InitialConfig::new(100, 3)
                .undecided_fraction(1.0)
                .build(seed()),
            Err(WorkloadError::InvalidParameter(_))
        ));
        assert!(matches!(
            InitialConfig::new(100, 3)
                .undecided_count(100)
                .build(seed()),
            Err(WorkloadError::InvalidParameter(_))
        ));
        assert!(matches!(
            InitialConfig::new(100, 3).power_law(-1.0).build(seed()),
            Err(WorkloadError::InvalidParameter(_))
        ));
        assert!(matches!(
            InitialConfig::new(100, 3).dirichlet_like(0).build(seed()),
            Err(WorkloadError::InvalidParameter(_))
        ));
        assert!(matches!(
            InitialConfig::new(100, 3).two_way_tie(0.0).build(seed()),
            Err(WorkloadError::InvalidParameter(_))
        ));
        assert!(matches!(
            InitialConfig::new(100, 3)
                .additive_bias_in_sqrt_n_log_n(-2.0)
                .build(seed()),
            Err(WorkloadError::InvalidParameter(_))
        ));
    }

    #[test]
    fn sharded_split_conserves_the_global_configuration() {
        let spec = InitialConfig::new(10_000, 5)
            .multiplicative_bias(2.0)
            .undecided_fraction(0.2)
            .shards(7)
            .engine(EngineChoice::Sharded);
        assert_eq!(spec.shard_count(), Some(7));
        assert_eq!(spec.shard_plan().shards(), 7);
        let global = spec.build(seed()).unwrap();
        let shards = spec.build_sharded(seed()).unwrap();
        assert_eq!(shards.len(), 7);
        let merged = pp_core::shard::multinomial::merge_configurations(&shards);
        assert_eq!(merged, global);
        for shard in &shards {
            assert!(shard.population() >= 10_000 / 7);
        }
    }

    #[test]
    fn sharded_split_rejects_more_shards_than_agents() {
        let spec = InitialConfig::new(5, 2).shards(10);
        assert!(matches!(
            spec.build_sharded(seed()),
            Err(WorkloadError::InvalidParameter(_))
        ));
        // Without an explicit shard count the default plan is clamped.
        let shards = InitialConfig::new(3, 2).build_sharded(seed()).unwrap();
        assert_eq!(shards.len(), 3);
    }

    #[test]
    fn ensemble_workloads_build_the_shared_configuration_and_choice() {
        let spec = InitialConfig::new(5_000, 3)
            .multiplicative_bias(2.0)
            .engine(EngineChoice::Batched)
            .replicas(6);
        assert_eq!(spec.replica_count(), Some(6));
        let (config, choice) = spec.build_ensemble(seed()).unwrap();
        assert_eq!(choice.replicas(), 6);
        assert_eq!(choice.base(), EngineChoice::Batched);
        assert_eq!(config, spec.build(seed()).unwrap());
        // Without an explicit replica count the ensemble degenerates to one.
        let single = InitialConfig::new(100, 2).engine(EngineChoice::Batched);
        assert_eq!(single.replica_count(), None);
        let (_, choice) = single.build_ensemble(seed()).unwrap();
        assert_eq!(choice.replicas(), 1);
    }

    #[test]
    fn threads_knob_flows_into_plans_and_choices() {
        let spec = InitialConfig::new(1_000, 2)
            .shards(4)
            .replicas(8)
            .threads(3);
        assert_eq!(spec.parallelism_choice(), Parallelism::fixed(3));
        let cores = Parallelism::auto().resolve(usize::MAX);
        assert_eq!(spec.shard_plan().resolved_threads(), 3.min(cores));
        assert_eq!(spec.ensemble_choice().parallelism(), Parallelism::fixed(3));
        // Default: automatic parallelism everywhere.
        let auto = InitialConfig::new(1_000, 2);
        assert_eq!(auto.parallelism_choice(), Parallelism::auto());
        assert_eq!(auto.ensemble_choice().parallelism(), Parallelism::auto());
        // The knob never affects the generated configuration.
        assert_eq!(
            spec.build(seed()).unwrap(),
            InitialConfig::new(1_000, 2)
                .shards(4)
                .replicas(8)
                .build(seed())
                .unwrap()
        );
    }

    #[test]
    fn fidelity_knob_flows_into_config_resolution() {
        let spec = InitialConfig::new(1_000, 2).engine(EngineChoice::Hybrid);
        assert_eq!(spec.fidelity_override(), None);
        assert_eq!(spec.fidelity_config(), FidelityConfig::default());
        let custom = FidelityConfig {
            promote_ratio: 16.0,
            demote_ratio: 2.0,
            mass_floor: 8.0,
            min_dwell: 500,
        };
        let spec = spec.fidelity(custom);
        assert_eq!(spec.fidelity_override(), Some(custom));
        assert_eq!(spec.fidelity_config(), custom);
        // The knob never affects the generated configuration.
        assert_eq!(
            spec.build(seed()).unwrap(),
            InitialConfig::new(1_000, 2).build(seed()).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "invalid fidelity configuration")]
    fn invalid_fidelity_thresholds_panic() {
        let _ = InitialConfig::new(100, 2).fidelity(FidelityConfig {
            promote_ratio: 2.0,
            demote_ratio: 4.0,
            mass_floor: 4.0,
            min_dwell: 0,
        });
    }

    #[test]
    fn ensemble_builds_reject_non_batched_bases() {
        for engine in [
            EngineChoice::Exact,
            EngineChoice::Sharded,
            EngineChoice::MeanField,
        ] {
            let err = InitialConfig::new(100, 2)
                .engine(engine)
                .replicas(4)
                .build_ensemble(seed())
                .unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("inside-ensemble") && msg.contains("batched"),
                "diagnostic for {engine} lacks context: {msg}"
            );
        }
    }

    #[test]
    fn dirichlet_builds_are_reproducible_per_seed() {
        let spec = InitialConfig::new(20_000, 6).dirichlet_like(3);
        let a = spec.build(SimSeed::from_u64(9)).unwrap();
        let b = spec.build(SimSeed::from_u64(9)).unwrap();
        let c = spec.build(SimSeed::from_u64(10)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn admissible_bound_matches_manual_computation() {
        let spec = InitialConfig::new(1_000, 2).additive_bias(200);
        let bound = spec.admissible_undecided_bound(seed()).unwrap();
        let decided = spec.build(seed()).unwrap();
        assert_eq!(bound, (1_000 - decided.max_support()) / 2);
    }

    #[test]
    fn two_way_tie_builder_round_trips() {
        let c = InitialConfig::new(9_999, 7)
            .two_way_tie(0.6)
            .build(seed())
            .unwrap();
        assert_eq!(c.population(), 9_999);
        let s = c.supports();
        assert!(s[0] >= s[2] && s[1] >= s[2]);
    }

    #[test]
    fn error_display_mentions_the_problem() {
        let err = InitialConfig::new(100, 3)
            .multiplicative_bias(0.5)
            .build(seed())
            .unwrap_err();
        assert!(err.to_string().contains("must exceed 1"));
    }

    #[test]
    fn convert_to_undecided_is_exact() {
        let decided = Configuration::from_counts(vec![600, 300, 100], 0).unwrap();
        let with_u = convert_to_undecided(&decided, 250);
        assert_eq!(with_u.population(), 1000);
        assert_eq!(with_u.undecided(), 250);
        // Proportional removal keeps opinion 0 dominant.
        assert_eq!(with_u.max_opinion().index(), 0);
    }
}
