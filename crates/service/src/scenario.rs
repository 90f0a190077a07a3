//! Versioned, serializable descriptions of a complete simulation run.
//!
//! A [`ScenarioConfig`] is the one description of a run — population and
//! opinion count, initial bias and undecided seeding, the dynamic, the
//! step-engine backend with its shard/ensemble/parallelism plan, the stop
//! budget and the master seed — and serializes as one JSON document that a
//! job server can queue, persist and replay.  Every front-end executes it
//! through [`crate::runner::run_scenario`]: `pp_serve` workers,
//! `usd_run --scenario`, and `usd_run`'s hand-typed flags, which are only a
//! syntax that builds a `ScenarioConfig`.  A flag set and the equivalent
//! document are therefore the same run by construction, not by mirrored
//! code (`crates/experiments/tests/scenario_cli.rs` checks a table of
//! them).
//!
//! ## Schema (version 1)
//!
//! ```json
//! {
//!   "scenario": 1,
//!   "seed": 7,
//!   "n": 100000,
//!   "k": 8,
//!   "dynamic": "usd",
//!   "replicas": 1,
//!   "samples": 400,
//!   "bias": {"kind": "additive-sqrt-n-log-n", "mult": 2.0},
//!   "undecided": {"kind": "fraction", "fraction": 0.2},
//!   "engine": "batched",
//!   "shards": 8,
//!   "epoch": 1000000,
//!   "fidelity": {"promote": 8.0, "demote": 1.5, "mass-floor": 0.25, "dwell": 100000},
//!   "threads": 4,
//!   "budget": 500000000,
//!   "j": 5
//! }
//! ```
//!
//! * `scenario` (required) is the format version; this build reads 1.
//! * `seed`, `n`, `k`, `dynamic`, `replicas` and `samples` are always
//!   written; the remaining fields are optional and omitted when unset, so
//!   serialize → parse → serialize is byte-stable.
//! * `bias` mirrors [`BiasSpec`] (kinds `additive`, `additive-sqrt-n-log-n`,
//!   `multiplicative`, `two-way-tie`, `power-law`, `dirichlet-like`);
//!   `undecided` mirrors [`UndecidedSpec`] (kinds `count`, `fraction`,
//!   `max-admissible`).
//! * `engine` is one of `exact`, `batched`, `sharded`, `mean-field`,
//!   `hybrid`; when absent the run uses the CLI's defaulting rule (exact,
//!   or batched when `replicas > 1`).
//! * `fidelity` tunes the hybrid engine's fluctuation detector (the
//!   `usd_run --fidelity-*` flags): `promote`/`demote` are the
//!   drift-to-noise switch ratios, `mass-floor` the `√n`-scaled
//!   minimum-mass guard, `dwell` the post-switch dwell in interactions
//!   (0 = one parallel-time unit `n`).  Subfields are optional and default
//!   like the flags; the whole object is only legal with
//!   `"engine": "hybrid"`.
//! * `j` carries the j-majority sample count and is only written (and only
//!   legal) when `dynamic` is `j-majority` — the same rule as `usd_run --j`.
//! * `budget` overrides the derived interaction budget
//!   `⌊400·k·n·ln n⌋ + 10⁷`; leave it unset for CLI equivalence.
//! * Unknown fields are rejected by name, so schema drift fails loudly.
//!
//! [`ScenarioConfig::validate`] owns every cross-field rule.  Its
//! diagnostics name the `usd_run` flags (field ↔ flag names map 1:1), and
//! `usd_run` prints them as they are.

use crate::json::{Json, ObjBuilder};
use pp_core::ensemble::EnsembleChoice;
use pp_core::{EngineChoice, FidelityConfig, Parallelism, ShardPlan};
use pp_workloads::{BiasSpec, InitialConfig, UndecidedSpec};

/// The scenario format version this build writes and reads.
pub const SCENARIO_FORMAT_VERSION: u32 = 1;

/// Which process a scenario drives — the USD or a baseline sampling
/// dynamic (same names as `usd_run --dynamic`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dynamic {
    /// The k-opinion undecided state dynamics (default; all five engines).
    Usd,
    /// The voter model (copy one sampled opinion).
    Voter,
    /// Two-choices (adopt when two samples agree).
    TwoChoices,
    /// 3-majority (majority of three samples).
    ThreeMajority,
    /// j-majority with a configurable sample count.
    JMajority,
    /// The median rule over the opinion order.
    Median,
}

impl Dynamic {
    /// Every dynamic, in documentation order.
    pub const ALL: [Dynamic; 6] = [
        Dynamic::Usd,
        Dynamic::Voter,
        Dynamic::TwoChoices,
        Dynamic::ThreeMajority,
        Dynamic::JMajority,
        Dynamic::Median,
    ];

    /// The canonical name (the `usd_run --dynamic` spelling).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Dynamic::Usd => "usd",
            Dynamic::Voter => "voter",
            Dynamic::TwoChoices => "two-choices",
            Dynamic::ThreeMajority => "3-majority",
            Dynamic::JMajority => "j-majority",
            Dynamic::Median => "median",
        }
    }

    /// Parses a dynamic name (same diagnostics as the CLI).
    ///
    /// # Errors
    ///
    /// Returns the CLI's unknown-dynamic message.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "usd" => Ok(Dynamic::Usd),
            "voter" => Ok(Dynamic::Voter),
            "two-choices" => Ok(Dynamic::TwoChoices),
            "3-majority" => Ok(Dynamic::ThreeMajority),
            "j-majority" => Ok(Dynamic::JMajority),
            "median" => Ok(Dynamic::Median),
            other => Err(format!(
                "unknown dynamic {other:?} (expected usd, voter, two-choices, 3-majority, \
                 j-majority, or median)"
            )),
        }
    }
}

impl std::fmt::Display for Dynamic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete, versioned description of one simulation run.
///
/// Build with [`ScenarioConfig::new`] plus the `with_*` setters, or parse a
/// JSON document with [`ScenarioConfig::from_json`]; [`validate`] applies
/// the cross-field rules, [`to_initial_config`] hands the workload
/// half to [`InitialConfig`].
///
/// [`validate`]: ScenarioConfig::validate
/// [`to_initial_config`]: ScenarioConfig::to_initial_config
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// The master seed (the run itself uses `SimSeed::from_u64(seed)` and
    /// its children, exactly like `usd_run --seed`).
    pub seed: u64,
    /// Population size `n`.
    pub population: u64,
    /// Number of opinions `k`.
    pub opinions: usize,
    /// Initial bias specification.
    pub bias: BiasSpec,
    /// Initial undecided seeding.
    pub undecided: UndecidedSpec,
    /// The process to drive.
    pub dynamic: Dynamic,
    /// The j-majority sample count (meaningful only for that dynamic).
    pub majority_samples: usize,
    /// The step-engine backend; `None` applies the CLI defaulting rule
    /// (exact, or batched when `replicas > 1`).
    pub engine: Option<EngineChoice>,
    /// Shard count for the sharded backend.
    pub shards: Option<usize>,
    /// Epoch length override for the sharded backend.
    pub epoch: Option<u64>,
    /// Fidelity-controller thresholds for the hybrid backend.
    pub fidelity: Option<FidelityConfig>,
    /// Lockstep replica count (`1` = a single run).
    pub replicas: usize,
    /// Worker-thread cap for the parallel engines.
    pub threads: Option<usize>,
    /// Trajectory sample count (sets the recorder period; never affects
    /// the result).
    pub samples: u64,
    /// Explicit interaction budget; `None` derives the CLI's
    /// `⌊400·k·n·ln n⌋ + 10⁷`.
    pub budget: Option<u64>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 1,
            population: 100_000,
            opinions: 8,
            bias: BiasSpec::None,
            undecided: UndecidedSpec::None,
            dynamic: Dynamic::Usd,
            majority_samples: 3,
            engine: None,
            shards: None,
            epoch: None,
            fidelity: None,
            replicas: 1,
            threads: None,
            samples: 400,
            budget: None,
        }
    }
}

impl ScenarioConfig {
    /// A scenario over `n` agents and `k` opinions with the CLI's defaults
    /// everywhere else.
    #[must_use]
    pub fn new(n: u64, k: usize) -> Self {
        ScenarioConfig {
            population: n,
            opinions: k,
            ..ScenarioConfig::default()
        }
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the bias specification.
    #[must_use]
    pub fn with_bias(mut self, bias: BiasSpec) -> Self {
        self.bias = bias;
        self
    }

    /// Sets the undecided seeding.
    #[must_use]
    pub fn with_undecided(mut self, undecided: UndecidedSpec) -> Self {
        self.undecided = undecided;
        self
    }

    /// Sets the dynamic.
    #[must_use]
    pub fn with_dynamic(mut self, dynamic: Dynamic) -> Self {
        self.dynamic = dynamic;
        self
    }

    /// Sets the j-majority sample count.
    #[must_use]
    pub fn with_majority_samples(mut self, j: usize) -> Self {
        self.majority_samples = j;
        self
    }

    /// Selects a step-engine backend explicitly.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineChoice) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Sets the shard count (sharded backend).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Sets the sharded epoch length.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Sets the hybrid backend's fidelity thresholds.
    #[must_use]
    pub fn with_fidelity(mut self, fidelity: FidelityConfig) -> Self {
        self.fidelity = Some(fidelity);
        self
    }

    /// Sets the lockstep replica count.
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Caps the parallel engines' worker threads.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the trajectory sample count.
    #[must_use]
    pub fn with_samples(mut self, samples: u64) -> Self {
        self.samples = samples;
        self
    }

    /// Overrides the derived interaction budget.
    #[must_use]
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The backend the run actually uses: the explicit choice, or the
    /// CLI's default (exact; batched when `replicas > 1`).
    #[must_use]
    pub fn effective_engine(&self) -> EngineChoice {
        self.engine.unwrap_or(if self.replicas > 1 {
            EngineChoice::Batched
        } else {
            EngineChoice::Exact
        })
    }

    /// The CLI's derived interaction budget: `⌊400·k·n·ln n⌋ + 10⁷`.
    #[must_use]
    pub fn derived_budget(&self) -> u64 {
        let n_f = self.population as f64;
        (400.0 * self.opinions as f64 * n_f * n_f.ln()) as u64 + 10_000_000
    }

    /// The budget the run chases: the explicit override, else the derived
    /// formula.
    #[must_use]
    pub fn interaction_budget(&self) -> u64 {
        self.budget.unwrap_or_else(|| self.derived_budget())
    }

    /// The fidelity thresholds the run resolves to: the explicit object, or
    /// the controller defaults (the CLI's `--fidelity-*` defaulting rule).
    #[must_use]
    pub fn effective_fidelity(&self) -> FidelityConfig {
        self.fidelity.unwrap_or_default()
    }

    /// The trajectory recorder's sample period (the CLI's
    /// `(budget / samples).max(1).min(n)` rule).
    #[must_use]
    pub fn sample_period(&self) -> u64 {
        (self.interaction_budget() / self.samples)
            .max(1)
            .min(self.population.max(1))
    }

    /// Applies the cross-field rules (scenario fields map 1:1 onto the
    /// flags the messages name).
    ///
    /// # Errors
    ///
    /// Returns the lowercase sentence `usd_run` prints for the equivalent
    /// flag combination.
    pub fn validate(&self) -> Result<(), String> {
        if self.samples == 0 {
            return Err("--samples must be positive".to_string());
        }
        if self.majority_samples == 0 {
            return Err("--j must be positive".to_string());
        }
        let engine = self.effective_engine();
        if self.dynamic != Dynamic::Usd
            && matches!(
                engine,
                EngineChoice::Sharded | EngineChoice::MeanField | EngineChoice::Hybrid
            )
        {
            return Err(format!(
                "the {engine} engine only drives the USD: sampling dynamics update from \
                 j-agent samples, so the pairwise cross-shard reconciliation and the USD's \
                 ODE limit (which the hybrid engine switches into) do not apply — use \
                 --engine exact or --engine batched"
            ));
        }
        if (self.shards.is_some() || self.epoch.is_some()) && engine != EngineChoice::Sharded {
            return Err("--shards/--epoch require --engine sharded".to_string());
        }
        if self.fidelity.is_some() && engine != EngineChoice::Hybrid {
            return Err(
                "--fidelity-promote/--fidelity-demote/--fidelity-mass-floor/--fidelity-dwell \
                 tune the hybrid fidelity controller; they require --engine hybrid"
                    .to_string(),
            );
        }
        if let Err(msg) = self.effective_fidelity().validate() {
            return Err(format!("invalid fidelity thresholds: {msg}"));
        }
        if self.shards == Some(0) {
            return Err("--shards must be positive".to_string());
        }
        if self.epoch == Some(0) {
            return Err("--epoch must be positive".to_string());
        }
        if self.replicas == 0 {
            return Err("--replicas must be positive".to_string());
        }
        if self.threads == Some(0) {
            return Err("--threads must be positive".to_string());
        }
        if self.budget == Some(0) {
            return Err("budget must be positive".to_string());
        }
        if self.threads.is_some() && engine != EngineChoice::Sharded && self.replicas <= 1 {
            return Err(
                "--threads caps the parallel engines' workers; it requires --engine sharded \
                 or --replicas > 1"
                    .to_string(),
            );
        }
        if self.replicas > 1 {
            self.ensemble_choice().validate().map_err(|e| {
                format!(
                    "{e}: the replica ensemble runs skip-ahead replicas, so only \
                     the batched base engine can run inside it — use --engine batched (or \
                     drop --replicas)"
                )
            })?;
        }
        Ok(())
    }

    /// The workload spec this scenario builds: every front-end's
    /// configuration (and therefore trajectory) comes from it.
    #[must_use]
    pub fn to_initial_config(&self) -> InitialConfig {
        let mut spec = InitialConfig::new(self.population, self.opinions)
            .bias(self.bias)
            .undecided(self.undecided)
            .engine(self.effective_engine());
        if let Some(shards) = self.shards {
            spec = spec.shards(shards);
        }
        if let Some(fidelity) = self.fidelity {
            spec = spec.fidelity(fidelity);
        }
        if self.replicas > 1 {
            spec = spec.replicas(self.replicas);
        }
        if let Some(threads) = self.threads {
            spec = spec.threads(threads);
        }
        spec
    }

    /// Recovers a scenario from a workload spec (a USD run; sampling
    /// dynamics carry no workload-side marker).  The inverse of
    /// [`ScenarioConfig::to_initial_config`] up to the engine-defaulting
    /// rule: the spec's engine is always explicit, so the round trip pins
    /// it rather than re-deriving the default.
    #[must_use]
    pub fn from_initial_config(spec: &InitialConfig, seed: u64) -> Self {
        let mut scenario = ScenarioConfig::new(spec.population(), spec.opinions())
            .with_seed(seed)
            .with_bias(spec.bias_spec())
            .with_undecided(spec.undecided_spec())
            .with_engine(spec.engine_choice());
        if let Some(shards) = spec.shard_count() {
            scenario = scenario.with_shards(shards);
        }
        if let Some(fidelity) = spec.fidelity_override() {
            scenario = scenario.with_fidelity(fidelity);
        }
        if let Some(replicas) = spec.replica_count() {
            scenario.replicas = replicas;
        }
        if let Some(threads) = spec.parallelism_choice().requested() {
            scenario = scenario.with_threads(threads);
        }
        scenario
    }

    /// The ensemble choice a `replicas > 1` scenario runs under (same
    /// construction as [`InitialConfig::ensemble_choice`]).
    #[must_use]
    pub fn ensemble_choice(&self) -> EnsembleChoice {
        EnsembleChoice::new(self.replicas)
            .with_base(self.effective_engine())
            .with_parallelism(self.parallelism())
    }

    /// The shard plan a single USD run uses: the workload's shard count
    /// and worker-thread knob, plus the epoch override.
    #[must_use]
    pub fn shard_plan(&self) -> ShardPlan {
        let plan = self.to_initial_config().shard_plan();
        match self.epoch {
            Some(epoch) => plan.epoch_interactions(epoch),
            None => plan,
        }
    }

    /// The parallelism knob the scenario resolves to.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        match self.threads {
            Some(t) => Parallelism::fixed(t),
            None => Parallelism::auto(),
        }
    }

    /// Serializes the scenario as its canonical version-1 JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// The scenario as a [`Json`] tree (canonical field order).
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        ObjBuilder::new()
            .field("scenario", Json::U64(u64::from(SCENARIO_FORMAT_VERSION)))
            .field("seed", Json::U64(self.seed))
            .field("n", Json::U64(self.population))
            .field("k", Json::U64(self.opinions as u64))
            .field("dynamic", Json::Str(self.dynamic.name().to_string()))
            .opt(
                "j",
                (self.dynamic == Dynamic::JMajority)
                    .then_some(Json::U64(self.majority_samples as u64)),
            )
            .opt("bias", bias_to_json(self.bias))
            .opt("undecided", undecided_to_json(self.undecided))
            .opt(
                "engine",
                self.engine.map(|e| Json::Str(e.name().to_string())),
            )
            .opt("shards", self.shards.map(|s| Json::U64(s as u64)))
            .opt("epoch", self.epoch.map(Json::U64))
            .opt("fidelity", self.fidelity.map(fidelity_to_json))
            .field("replicas", Json::U64(self.replicas as u64))
            .opt("threads", self.threads.map(|t| Json::U64(t as u64)))
            .field("samples", Json::U64(self.samples))
            .opt("budget", self.budget.map(Json::U64))
            .build()
    }

    /// Parses a version-1 scenario document, rejecting unknown fields and
    /// out-of-domain values by name.
    ///
    /// # Errors
    ///
    /// Returns a named diagnostic for malformed JSON, a missing or
    /// unsupported `scenario` version, unknown fields, or field values of
    /// the wrong type; cross-field rules are [`ScenarioConfig::validate`]'s
    /// job, not the parser's.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("malformed scenario JSON: {e}"))?;
        Self::from_json_value(&doc)
    }

    /// [`ScenarioConfig::from_json`] over an already-parsed tree.
    ///
    /// # Errors
    ///
    /// Same contract as [`ScenarioConfig::from_json`].
    pub fn from_json_value(doc: &Json) -> Result<Self, String> {
        let pairs = doc
            .as_object()
            .ok_or_else(|| "a scenario must be a JSON object".to_string())?;
        let version = doc
            .get("scenario")
            .ok_or_else(|| {
                "missing \"scenario\" version field (this build writes scenario 1)".to_string()
            })?
            .as_u64()
            .ok_or_else(|| "\"scenario\" must be an unsigned integer".to_string())?;
        if version != u64::from(SCENARIO_FORMAT_VERSION) {
            return Err(format!(
                "unsupported scenario version {version} (this build reads version 1)"
            ));
        }
        let mut scenario = ScenarioConfig::default();
        let mut j_given = false;
        for (key, value) in pairs {
            match key.as_str() {
                "scenario" => {}
                "seed" => scenario.seed = field_u64(value, "seed")?,
                "n" => scenario.population = field_u64(value, "n")?,
                "k" => scenario.opinions = field_usize(value, "k")?,
                "dynamic" => {
                    scenario.dynamic = Dynamic::parse(
                        value
                            .as_str()
                            .ok_or_else(|| "\"dynamic\" must be a string".to_string())?,
                    )?;
                }
                "j" => {
                    j_given = true;
                    scenario.majority_samples = field_usize(value, "j")?;
                }
                "bias" => scenario.bias = bias_from_json(value)?,
                "undecided" => scenario.undecided = undecided_from_json(value)?,
                "engine" => {
                    let name = value
                        .as_str()
                        .ok_or_else(|| "\"engine\" must be a string".to_string())?;
                    scenario.engine = Some(name.parse().map_err(|e| format!("engine: {e}"))?);
                }
                "shards" => scenario.shards = Some(field_usize(value, "shards")?),
                "epoch" => scenario.epoch = Some(field_u64(value, "epoch")?),
                "fidelity" => scenario.fidelity = Some(fidelity_from_json(value)?),
                "replicas" => scenario.replicas = field_usize(value, "replicas")?,
                "threads" => scenario.threads = Some(field_usize(value, "threads")?),
                "samples" => scenario.samples = field_u64(value, "samples")?,
                "budget" => scenario.budget = Some(field_u64(value, "budget")?),
                other => {
                    return Err(format!(
                        "unknown scenario field {other:?} (scenario 1 fields: scenario, seed, \
                         n, k, dynamic, j, bias, undecided, engine, shards, epoch, fidelity, \
                         replicas, threads, samples, budget)"
                    ))
                }
            }
        }
        if j_given && scenario.dynamic != Dynamic::JMajority {
            return Err("--j only applies to --dynamic j-majority".to_string());
        }
        Ok(scenario)
    }
}

fn field_u64(value: &Json, name: &str) -> Result<u64, String> {
    value
        .as_u64()
        .ok_or_else(|| format!("{name:?} must be an unsigned integer"))
}

fn field_usize(value: &Json, name: &str) -> Result<usize, String> {
    let v = field_u64(value, name)?;
    usize::try_from(v).map_err(|_| format!("{name:?} does not fit a usize"))
}

fn field_f64(value: &Json, name: &str) -> Result<f64, String> {
    value
        .as_f64()
        .ok_or_else(|| format!("{name:?} must be a number"))
}

fn fidelity_to_json(fidelity: FidelityConfig) -> Json {
    ObjBuilder::new()
        .field("promote", Json::F64(fidelity.promote_ratio))
        .field("demote", Json::F64(fidelity.demote_ratio))
        .field("mass-floor", Json::F64(fidelity.mass_floor))
        .field("dwell", Json::U64(fidelity.min_dwell))
        .build()
}

fn fidelity_from_json(value: &Json) -> Result<FidelityConfig, String> {
    let pairs = value
        .as_object()
        .ok_or_else(|| "\"fidelity\" must be an object".to_string())?;
    let mut fidelity = FidelityConfig::default();
    for (key, subvalue) in pairs {
        match key.as_str() {
            "promote" => fidelity.promote_ratio = field_f64(subvalue, "promote")?,
            "demote" => fidelity.demote_ratio = field_f64(subvalue, "demote")?,
            "mass-floor" => fidelity.mass_floor = field_f64(subvalue, "mass-floor")?,
            "dwell" => fidelity.min_dwell = field_u64(subvalue, "dwell")?,
            other => {
                return Err(format!(
                    "unknown fidelity field {other:?} (fidelity fields: promote, demote, \
                     mass-floor, dwell)"
                ))
            }
        }
    }
    Ok(fidelity)
}

fn bias_to_json(bias: BiasSpec) -> Option<Json> {
    let tagged = |kind: &str, field: &str, value: Json| {
        ObjBuilder::new()
            .field("kind", Json::Str(kind.to_string()))
            .field(field, value)
            .build()
    };
    match bias {
        BiasSpec::None => None,
        BiasSpec::Additive(beta) => Some(tagged("additive", "beta", Json::U64(beta))),
        BiasSpec::AdditiveInSqrtNLogN(mult) => {
            Some(tagged("additive-sqrt-n-log-n", "mult", Json::F64(mult)))
        }
        BiasSpec::Multiplicative(factor) => {
            Some(tagged("multiplicative", "factor", Json::F64(factor)))
        }
        BiasSpec::TwoWayTie(fraction) => {
            Some(tagged("two-way-tie", "fraction", Json::F64(fraction)))
        }
        BiasSpec::PowerLaw(exponent) => Some(tagged("power-law", "exponent", Json::F64(exponent))),
        BiasSpec::DirichletLike(shape) => Some(tagged(
            "dirichlet-like",
            "shape",
            Json::U64(u64::from(shape)),
        )),
    }
}

fn bias_from_json(value: &Json) -> Result<BiasSpec, String> {
    if value.is_null() {
        return Ok(BiasSpec::None);
    }
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "\"bias\" must be an object with a \"kind\" string".to_string())?;
    let req = |field: &str| {
        value
            .get(field)
            .ok_or_else(|| format!("bias kind {kind:?} requires a {field:?} field"))
    };
    match kind {
        "additive" => Ok(BiasSpec::Additive(field_u64(req("beta")?, "beta")?)),
        "additive-sqrt-n-log-n" => Ok(BiasSpec::AdditiveInSqrtNLogN(field_f64(
            req("mult")?,
            "mult",
        )?)),
        "multiplicative" => Ok(BiasSpec::Multiplicative(field_f64(
            req("factor")?,
            "factor",
        )?)),
        "two-way-tie" => Ok(BiasSpec::TwoWayTie(field_f64(
            req("fraction")?,
            "fraction",
        )?)),
        "power-law" => Ok(BiasSpec::PowerLaw(field_f64(req("exponent")?, "exponent")?)),
        "dirichlet-like" => {
            let shape = field_u64(req("shape")?, "shape")?;
            u32::try_from(shape)
                .map(BiasSpec::DirichletLike)
                .map_err(|_| "\"shape\" does not fit a u32".to_string())
        }
        other => Err(format!(
            "unknown bias kind {other:?} (expected additive, additive-sqrt-n-log-n, \
             multiplicative, two-way-tie, power-law, or dirichlet-like)"
        )),
    }
}

fn undecided_to_json(undecided: UndecidedSpec) -> Option<Json> {
    match undecided {
        UndecidedSpec::None => None,
        UndecidedSpec::Count(count) => Some(
            ObjBuilder::new()
                .field("kind", Json::Str("count".to_string()))
                .field("count", Json::U64(count))
                .build(),
        ),
        UndecidedSpec::Fraction(fraction) => Some(
            ObjBuilder::new()
                .field("kind", Json::Str("fraction".to_string()))
                .field("fraction", Json::F64(fraction))
                .build(),
        ),
        UndecidedSpec::MaxAdmissible => Some(
            ObjBuilder::new()
                .field("kind", Json::Str("max-admissible".to_string()))
                .build(),
        ),
    }
}

fn undecided_from_json(value: &Json) -> Result<UndecidedSpec, String> {
    if value.is_null() {
        return Ok(UndecidedSpec::None);
    }
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "\"undecided\" must be an object with a \"kind\" string".to_string())?;
    match kind {
        "count" => {
            let count = value
                .get("count")
                .ok_or_else(|| "undecided kind \"count\" requires a \"count\" field".to_string())?;
            Ok(UndecidedSpec::Count(field_u64(count, "count")?))
        }
        "fraction" => {
            let fraction = value.get("fraction").ok_or_else(|| {
                "undecided kind \"fraction\" requires a \"fraction\" field".to_string()
            })?;
            Ok(UndecidedSpec::Fraction(field_f64(fraction, "fraction")?))
        }
        "max-admissible" => Ok(UndecidedSpec::MaxAdmissible),
        other => Err(format!(
            "unknown undecided kind {other:?} (expected count, fraction, or max-admissible)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trips_byte_stable() {
        let scenario = ScenarioConfig::new(2_000, 3).with_seed(7);
        let json = scenario.to_json();
        let back = ScenarioConfig::from_json(&json).unwrap();
        assert_eq!(back, scenario);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn every_field_round_trips() {
        let scenario = ScenarioConfig::new(50_000, 6)
            .with_seed(99)
            .with_bias(BiasSpec::AdditiveInSqrtNLogN(2.5))
            .with_undecided(UndecidedSpec::Fraction(0.125))
            .with_engine(EngineChoice::Sharded)
            .with_shards(8)
            .with_epoch(1_000_000)
            .with_threads(4)
            .with_samples(100)
            .with_budget(123_456_789);
        let json = scenario.to_json();
        let back = ScenarioConfig::from_json(&json).unwrap();
        assert_eq!(back, scenario);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn unknown_fields_and_versions_fail_by_name() {
        let err = ScenarioConfig::from_json("{\"scenario\":1,\"frobnicate\":1}").unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");
        let err = ScenarioConfig::from_json("{\"scenario\":2,\"n\":10}").unwrap_err();
        assert!(err.contains("unsupported scenario version 2"), "{err}");
        let err = ScenarioConfig::from_json("{\"n\":10}").unwrap_err();
        assert!(err.contains("missing \"scenario\""), "{err}");
    }

    #[test]
    fn validation_matches_cli_diagnostics() {
        let sharded_sampler = ScenarioConfig::new(1_000, 3)
            .with_dynamic(Dynamic::Voter)
            .with_engine(EngineChoice::Sharded);
        let err = sharded_sampler.validate().unwrap_err();
        assert!(
            err.starts_with("the sharded engine only drives the USD"),
            "{err}"
        );

        let exact_ensemble = ScenarioConfig::new(1_000, 3)
            .with_replicas(4)
            .with_engine(EngineChoice::Exact);
        let err = exact_ensemble.validate().unwrap_err();
        assert!(err.contains("only the batched base engine"), "{err}");

        let stray_shards = ScenarioConfig::new(1_000, 3).with_shards(4);
        assert_eq!(
            stray_shards.validate().unwrap_err(),
            "--shards/--epoch require --engine sharded"
        );

        let stray_threads = ScenarioConfig::new(1_000, 3).with_threads(4);
        assert!(stray_threads
            .validate()
            .unwrap_err()
            .contains("--threads caps"));
    }

    #[test]
    fn engine_defaulting_matches_the_cli() {
        assert_eq!(
            ScenarioConfig::new(10, 2).effective_engine(),
            EngineChoice::Exact
        );
        assert_eq!(
            ScenarioConfig::new(10, 2)
                .with_replicas(4)
                .effective_engine(),
            EngineChoice::Batched
        );
        // A replica ensemble scenario validates like `--replicas R` with no
        // explicit engine: the default base is batched, which is legal.
        ScenarioConfig::new(10, 2)
            .with_replicas(4)
            .validate()
            .unwrap();
    }

    #[test]
    fn initial_config_round_trip_preserves_the_spec() {
        let scenario = ScenarioConfig::new(30_000, 5)
            .with_seed(11)
            .with_bias(BiasSpec::Multiplicative(1.5))
            .with_undecided(UndecidedSpec::MaxAdmissible)
            .with_engine(EngineChoice::Batched);
        let spec = scenario.to_initial_config();
        let back = ScenarioConfig::from_initial_config(&spec, 11);
        assert_eq!(back.to_initial_config(), spec);
        assert_eq!(back.bias, scenario.bias);
        assert_eq!(back.undecided, scenario.undecided);
        assert_eq!(back.engine, Some(EngineChoice::Batched));
    }

    #[test]
    fn fidelity_round_trips_and_validates() {
        let scenario = ScenarioConfig::new(50_000, 3)
            .with_engine(EngineChoice::Hybrid)
            .with_fidelity(FidelityConfig {
                promote_ratio: 12.0,
                demote_ratio: 3.0,
                mass_floor: 6.0,
                min_dwell: 25_000,
            });
        scenario.validate().unwrap();
        let json = scenario.to_json();
        let back = ScenarioConfig::from_json(&json).unwrap();
        assert_eq!(back, scenario);
        assert_eq!(back.to_json(), json);
        // The workload-spec round trip carries the thresholds too.
        let spec = scenario.to_initial_config();
        assert_eq!(spec.fidelity_override(), scenario.fidelity);
        assert_eq!(
            ScenarioConfig::from_initial_config(&spec, 1).fidelity,
            scenario.fidelity
        );
    }

    #[test]
    fn fidelity_diagnostics_match_the_cli() {
        let stray = ScenarioConfig::new(1_000, 2).with_fidelity(FidelityConfig::default());
        assert!(
            stray
                .validate()
                .unwrap_err()
                .ends_with("they require --engine hybrid"),
            "{}",
            stray.validate().unwrap_err()
        );
        let bad = ScenarioConfig::new(1_000, 2)
            .with_engine(EngineChoice::Hybrid)
            .with_fidelity(FidelityConfig {
                promote_ratio: 2.0,
                demote_ratio: 4.0,
                ..FidelityConfig::default()
            });
        assert!(
            bad.validate()
                .unwrap_err()
                .starts_with("invalid fidelity thresholds"),
            "{}",
            bad.validate().unwrap_err()
        );
        // Partial objects default like the flags; unknown subfields fail by
        // name, the same rule as the top-level schema.
        let partial = ScenarioConfig::from_json(
            "{\"scenario\":1,\"engine\":\"hybrid\",\"fidelity\":{\"promote\":10.0}}",
        )
        .unwrap();
        assert_eq!(
            partial.fidelity,
            Some(FidelityConfig {
                promote_ratio: 10.0,
                ..FidelityConfig::default()
            })
        );
        let err =
            ScenarioConfig::from_json("{\"scenario\":1,\"fidelity\":{\"haste\":1}}").unwrap_err();
        assert!(err.contains("haste"), "{err}");
    }

    #[test]
    fn j_rides_only_with_j_majority() {
        let scenario = ScenarioConfig::new(1_000, 3)
            .with_dynamic(Dynamic::JMajority)
            .with_majority_samples(5);
        let back = ScenarioConfig::from_json(&scenario.to_json()).unwrap();
        assert_eq!(back.majority_samples, 5);
        // For other dynamics the field is omitted on write and rejected on
        // read — the CLI's `--j only applies` rule.
        let voter = ScenarioConfig::new(1_000, 3).with_dynamic(Dynamic::Voter);
        assert!(!voter.to_json().contains("\"j\""));
        let err = ScenarioConfig::from_json("{\"scenario\":1,\"dynamic\":\"voter\",\"j\":5}")
            .unwrap_err();
        assert_eq!(err, "--j only applies to --dynamic j-majority");
    }
}
