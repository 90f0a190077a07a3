//! A convenience simulator for the USD, generic over the step-engine layer.
//!
//! [`UsdSimulator`] drives the [`UndecidedStateDynamics`] through any of the
//! five [`StepEngine`] backends ([`pp_core::ExactEngine`],
//! [`pp_core::BatchedEngine`], [`pp_core::ShardedEngine`],
//! [`crate::mean_field::MeanFieldEngine`],
//! [`crate::hybrid::HybridEngine`]) and adds USD-specific helpers:
//! phase-aware runs (with a per-phase engine policy), winner queries, and
//! parallel-time accounting.

use crate::hybrid::HybridEngine;
use crate::mean_field::MeanFieldEngine;
use crate::phases::{EnginePolicy, Phase, PhaseTimes, PhaseTracker};
use crate::protocol::UndecidedStateDynamics;
use pp_core::checkpoint::{Checkpoint, CheckpointJournal, EngineState};
use pp_core::engine::{Advance, Leg, StepEngine};
use pp_core::run::MaintenanceStats;
use pp_core::{
    BatchedEngine, Configuration, CountSimulator, EngineChoice, FidelityConfig, MetricsSnapshot,
    Opinion, PpError, Recorder, RunOutcome, RunResult, ShardPlan, ShardedEngine, SimSeed,
    StopCondition, Telemetry,
};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// The result of a phase-aware USD run: the ordinary [`RunResult`] plus the
/// measured phase hitting times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasedRunResult {
    /// The underlying run result.
    pub run: RunResult,
    /// The measured phase hitting times.
    pub phases: PhaseTimes,
    /// The opinion that was the plurality in the *initial* configuration.
    pub initial_plurality: Opinion,
    /// Whether the final winner (if any) equals the initial plurality opinion.
    pub plurality_won: Option<bool>,
    /// The engine policy that drove the run (`EnginePolicy::describe` form).
    pub engine: String,
}

/// A runtime-selected step engine specialized to the USD.
#[derive(Debug)]
pub enum UsdEngine {
    /// Per-interaction Fenwick sampling.
    Exact(CountSimulator<UndecidedStateDynamics>),
    /// Geometric skip-ahead over null interactions.
    Batched(BatchedEngine<UndecidedStateDynamics>),
    /// Parallel per-shard batching with multinomial reconciliation epochs
    /// (documented-approximate; see [`pp_core::shard`]).
    Sharded(ShardedEngine<UndecidedStateDynamics>),
    /// The deterministic fluid limit (approximation).
    MeanField(MeanFieldEngine),
    /// Adaptive mean-field ↔ batched switching under the online fluctuation
    /// detector (approximation during the ODE stretches; see
    /// [`crate::hybrid`]).
    Hybrid(HybridEngine),
}

impl UsdEngine {
    /// Builds the backend selected by `choice` from an initial configuration
    /// (the sharded backend takes its shard count, epoch length and thread
    /// cap from `plan`; the hybrid backend takes its detector thresholds
    /// from `fidelity`; the other backends ignore both).
    #[must_use]
    pub fn new(
        config: Configuration,
        seed: SimSeed,
        choice: EngineChoice,
        plan: &ShardPlan,
        fidelity: &FidelityConfig,
    ) -> Self {
        let protocol = UndecidedStateDynamics::new(config.num_opinions());
        match choice {
            EngineChoice::Exact => UsdEngine::Exact(CountSimulator::new(protocol, config, seed)),
            EngineChoice::Batched => UsdEngine::Batched(BatchedEngine::new(protocol, config, seed)),
            EngineChoice::Sharded => {
                UsdEngine::Sharded(ShardedEngine::new(protocol, config, seed, plan))
            }
            EngineChoice::MeanField => UsdEngine::MeanField(MeanFieldEngine::new(config)),
            EngineChoice::Hybrid => UsdEngine::Hybrid(HybridEngine::new(config, seed, *fidelity)),
        }
    }

    /// The [`EngineChoice`] this backend realizes.
    #[must_use]
    pub fn choice(&self) -> EngineChoice {
        match self {
            UsdEngine::Exact(_) => EngineChoice::Exact,
            UsdEngine::Batched(_) => EngineChoice::Batched,
            UsdEngine::Sharded(_) => EngineChoice::Sharded,
            UsdEngine::MeanField(_) => EngineChoice::MeanField,
            UsdEngine::Hybrid(_) => EngineChoice::Hybrid,
        }
    }

    /// Attaches a telemetry handle to the backends that emit their own
    /// spans (currently the sharded engine's epoch/reconcile tracks; the
    /// single-threaded backends expose counters through
    /// [`StepEngine::telemetry`] and need no handle).
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        if let UsdEngine::Sharded(e) = self {
            e.set_telemetry(tel.clone());
        }
    }
}

impl StepEngine for UsdEngine {
    fn configuration(&self) -> &Configuration {
        match self {
            UsdEngine::Exact(e) => StepEngine::configuration(e),
            UsdEngine::Batched(e) => StepEngine::configuration(e),
            UsdEngine::Sharded(e) => StepEngine::configuration(e),
            UsdEngine::MeanField(e) => StepEngine::configuration(e),
            UsdEngine::Hybrid(e) => StepEngine::configuration(e),
        }
    }

    fn interactions(&self) -> u64 {
        match self {
            UsdEngine::Exact(e) => StepEngine::interactions(e),
            UsdEngine::Batched(e) => StepEngine::interactions(e),
            UsdEngine::Sharded(e) => StepEngine::interactions(e),
            UsdEngine::MeanField(e) => StepEngine::interactions(e),
            UsdEngine::Hybrid(e) => StepEngine::interactions(e),
        }
    }

    fn engine_name(&self) -> &'static str {
        match self {
            UsdEngine::Exact(e) => e.engine_name(),
            UsdEngine::Batched(e) => e.engine_name(),
            UsdEngine::Sharded(e) => e.engine_name(),
            UsdEngine::MeanField(e) => e.engine_name(),
            UsdEngine::Hybrid(e) => e.engine_name(),
        }
    }

    fn scheduler_name(&self) -> &'static str {
        match self {
            UsdEngine::Exact(e) => e.scheduler_name(),
            UsdEngine::Batched(e) => e.scheduler_name(),
            UsdEngine::Sharded(e) => e.scheduler_name(),
            UsdEngine::MeanField(e) => e.scheduler_name(),
            UsdEngine::Hybrid(e) => e.scheduler_name(),
        }
    }

    fn rejection_misses(&self) -> Option<u64> {
        match self {
            UsdEngine::Exact(e) => e.rejection_misses(),
            UsdEngine::Batched(e) => e.rejection_misses(),
            UsdEngine::Sharded(e) => e.rejection_misses(),
            UsdEngine::MeanField(e) => e.rejection_misses(),
            UsdEngine::Hybrid(e) => e.rejection_misses(),
        }
    }

    fn maintenance(&self) -> Option<MaintenanceStats> {
        match self {
            UsdEngine::Exact(e) => e.maintenance(),
            UsdEngine::Batched(e) => e.maintenance(),
            UsdEngine::Sharded(e) => e.maintenance(),
            UsdEngine::MeanField(e) => e.maintenance(),
            UsdEngine::Hybrid(e) => e.maintenance(),
        }
    }

    fn telemetry(&self) -> Option<MetricsSnapshot> {
        match self {
            UsdEngine::Exact(e) => e.telemetry(),
            UsdEngine::Batched(e) => e.telemetry(),
            UsdEngine::Sharded(e) => e.telemetry(),
            UsdEngine::MeanField(e) => e.telemetry(),
            UsdEngine::Hybrid(e) => e.telemetry(),
        }
    }

    fn advance(&mut self, limit: u64) -> Advance {
        match self {
            UsdEngine::Exact(e) => e.advance(limit),
            UsdEngine::Batched(e) => e.advance(limit),
            UsdEngine::Sharded(e) => e.advance(limit),
            UsdEngine::MeanField(e) => e.advance(limit),
            UsdEngine::Hybrid(e) => e.advance(limit),
        }
    }

    fn leg<R: Recorder>(
        &mut self,
        limit: u64,
        until: u64,
        max_events: u64,
        recorder: &mut R,
    ) -> Leg {
        match self {
            UsdEngine::Exact(e) => e.leg(limit, until, max_events, recorder),
            UsdEngine::Batched(e) => e.leg(limit, until, max_events, recorder),
            UsdEngine::Sharded(e) => e.leg(limit, until, max_events, recorder),
            UsdEngine::MeanField(e) => e.leg(limit, until, max_events, recorder),
            UsdEngine::Hybrid(e) => e.leg(limit, until, max_events, recorder),
        }
    }
}

/// When a drive hands control back to its caller between legs.
enum Pause<'a> {
    /// Never: the drive runs to its stop condition.
    Never,
    /// At the first leg boundary with at least this many interactions.
    At(u64),
    /// When the hook, asked after every event, says so.
    Hook(&'a mut dyn FnMut(u64) -> bool),
}

/// Feeds a recorder the simulator's interaction count — the engine's own
/// plus those of engines retired through policy switches.
struct Offset<'a, R> {
    recorder: &'a mut R,
    by: u64,
}

impl<R: Recorder> Recorder for Offset<'_, R> {
    fn record(&mut self, interactions: u64, config: &Configuration) {
        self.recorder.record(interactions + self.by, config);
    }
}

/// A simulator specialized to the k-opinion USD, backed by a selectable
/// [`StepEngine`].
///
/// # Examples
///
/// ```
/// use usd_core::UsdSimulator;
/// use pp_core::{Configuration, EngineChoice, SimSeed};
///
/// let config = Configuration::from_counts(vec![700, 200, 100], 0).unwrap();
/// // The default backend is the exact per-interaction engine…
/// let mut sim = UsdSimulator::new(config.clone(), SimSeed::from_u64(11));
/// assert!(sim.run_to_consensus(50_000_000).reached_consensus());
///
/// // …and the batched skip-ahead backend is a drop-in replacement.
/// let mut sim = UsdSimulator::with_engine(config, SimSeed::from_u64(11), EngineChoice::Batched);
/// assert!(sim.run_to_consensus(50_000_000).reached_consensus());
/// ```
#[derive(Debug)]
pub struct UsdSimulator {
    engine: UsdEngine,
    initial: Configuration,
    seed: SimSeed,
    /// Shard plan applied whenever the sharded backend is (re)constructed.
    plan: ShardPlan,
    /// Fidelity thresholds applied whenever the hybrid backend is
    /// (re)constructed.
    fidelity: FidelityConfig,
    /// Interactions accumulated by engines retired through policy switches.
    consumed: u64,
    rebuilds: u64,
    /// Metrics carried over from engines retired through policy switches,
    /// so a phased run's snapshot covers the whole run, not just the engine
    /// that happened to finish it.
    retired: MetricsSnapshot,
    tel: Telemetry,
    /// Periodic checkpoint sink (see [`UsdSimulator::set_checkpoint_sink`]).
    sink: Option<CheckpointSink>,
}

/// Where and how often the drive loop writes periodic checkpoints.
#[derive(Debug)]
struct CheckpointSink {
    journal: CheckpointJournal,
    every: u64,
    /// Interaction count at the last capture (cadence anchor).
    last_capture: u64,
}

impl UsdSimulator {
    /// Creates a USD simulator with the exact (ground-truth) backend.
    #[must_use]
    pub fn new(config: Configuration, seed: SimSeed) -> Self {
        Self::with_engine(config, seed, EngineChoice::Exact)
    }

    /// Creates a USD simulator with the selected backend (the sharded
    /// backend gets the default [`ShardPlan`]; see
    /// [`UsdSimulator::with_engine_plan`] to tune it).
    #[must_use]
    pub fn with_engine(config: Configuration, seed: SimSeed, choice: EngineChoice) -> Self {
        Self::with_engine_plan(config, seed, choice, ShardPlan::default())
    }

    /// Creates a USD simulator with the selected backend and an explicit
    /// shard plan (shard count, epoch length, worker threads) that applies
    /// whenever the sharded backend runs — including per-phase engine
    /// policies that schedule it mid-run.
    #[must_use]
    pub fn with_engine_plan(
        config: Configuration,
        seed: SimSeed,
        choice: EngineChoice,
        plan: ShardPlan,
    ) -> Self {
        Self::with_engine_fidelity(config, seed, choice, plan, FidelityConfig::default())
    }

    /// Creates a USD simulator with the selected backend, an explicit shard
    /// plan, and explicit fidelity thresholds that apply whenever the
    /// hybrid backend runs (see [`crate::hybrid::HybridEngine`]; the other
    /// backends ignore them).
    ///
    /// # Panics
    ///
    /// Panics when `fidelity` fails [`FidelityConfig::validate`] — validate
    /// user-supplied thresholds at the boundary and report the message.
    #[must_use]
    pub fn with_engine_fidelity(
        config: Configuration,
        seed: SimSeed,
        choice: EngineChoice,
        plan: ShardPlan,
        fidelity: FidelityConfig,
    ) -> Self {
        UsdSimulator {
            engine: UsdEngine::new(config.clone(), seed, choice, &plan, &fidelity),
            initial: config,
            seed,
            plan,
            fidelity,
            consumed: 0,
            rebuilds: 0,
            retired: MetricsSnapshot::new(),
            tel: Telemetry::disabled(),
            sink: None,
        }
    }

    /// Attaches a telemetry handle: phase-aware runs open a
    /// `usd.phase.<number>` span per paper phase, the sharded backend (when
    /// scheduled) emits its epoch/worker spans on the same handle, and run
    /// results carry the engine's metrics snapshot.  Telemetry never
    /// consumes randomness, so attaching a handle cannot change a
    /// trajectory (see [`pp_core::telemetry`]).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
        self.engine.set_telemetry(&self.tel);
    }

    /// The unified metrics snapshot for the run so far: the current
    /// engine's [`StepEngine::telemetry`] counters plus everything absorbed
    /// from engines retired by per-phase policy switches (`None` when no
    /// engine reported anything — e.g. a pure exact or mean-field run).
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Option<MetricsSnapshot> {
        let mut snap = self.retired.clone();
        if let Some(current) = self.engine.telemetry() {
            snap.absorb(&current);
        }
        // Fraction gauges absorb last-write-wins; recompute them from the
        // aggregated counters so a mixed run reports whole-run fractions.
        let stats = MaintenanceStats {
            rows_patched: snap.counter("maintenance.rows_patched").unwrap_or(0),
            rows_rebuilt: snap.counter("maintenance.rows_rebuilt").unwrap_or(0),
            law_patches: snap.counter("maintenance.law_patches").unwrap_or(0),
            law_rebuilds: snap.counter("maintenance.law_rebuilds").unwrap_or(0),
            law_fallback_rebuilds: snap
                .counter("maintenance.law_fallback_rebuilds")
                .unwrap_or(0),
        };
        if let Some(f) = stats.rows_patched_fraction() {
            snap.set_gauge("maintenance.rows_patched_fraction", f);
        }
        if let Some(f) = stats.law_patched_fraction() {
            snap.set_gauge("maintenance.law_patched_fraction", f);
        }
        (!snap.is_empty()).then_some(snap)
    }

    /// Captures the simulator's complete resumable state as a
    /// [`Checkpoint`]: the current backend's engine snapshot plus simulator
    /// metadata (master seed, interactions consumed by retired engines,
    /// engine-switch count, and the initial configuration) stamped into the
    /// checkpoint's `meta` section.  Call between `advance` boundaries only
    /// — the drive loop and the phase-boundary hook do; see
    /// [`pp_core::checkpoint`] for the bit-exactness rules.
    ///
    /// Metrics retired by earlier engine switches are *not* captured (they
    /// are reporting state; a restored run's snapshot covers the restored
    /// leg only).
    ///
    /// # Errors
    ///
    /// Infallible for every current backend (the mean-field engine stores
    /// its `f64` ODE state as exact IEEE-754 bit patterns); the `Result`
    /// stays so future non-checkpointable backends can fail by name.
    pub fn capture(&self) -> Result<Checkpoint, PpError> {
        let checkpoint = match &self.engine {
            UsdEngine::Exact(e) => Checkpoint::capture(e),
            UsdEngine::Batched(e) => Checkpoint::capture(e),
            UsdEngine::Sharded(e) => Checkpoint::capture(e),
            UsdEngine::MeanField(e) => Checkpoint::capture(e),
            // The hybrid engine stamps its controller state and interaction
            // bookkeeping into the meta section itself.
            UsdEngine::Hybrid(e) => e.checkpoint(),
        };
        let mut checkpoint = checkpoint
            .with_meta("sim.seed", self.seed.value())
            .with_meta("sim.consumed", self.consumed)
            .with_meta("sim.rebuilds", self.rebuilds)
            .with_meta("sim.initial.undecided", self.initial.undecided());
        for (i, &support) in self.initial.supports().iter().enumerate() {
            checkpoint = checkpoint.with_meta(&format!("sim.initial.support.{i}"), support);
        }
        Ok(checkpoint)
    }

    /// Restores a simulator from a checkpoint captured by
    /// [`UsdSimulator::capture`].  Resuming toward the **same stop
    /// condition** the interrupted run used produces a bit-identical
    /// trajectory tail (see [`pp_core::checkpoint`]); `plan` applies if a
    /// per-phase policy later schedules the sharded backend (the restored
    /// sharded engine itself carries its own plan inside the checkpoint).
    ///
    /// Telemetry starts detached and retired-engine metrics start empty —
    /// both are reporting state; reattach a handle with
    /// [`UsdSimulator::set_telemetry`].
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the checkpoint was captured
    /// from a bare engine (no simulator metadata), holds an ensemble state
    /// (restore those through [`crate::UsdEnsemble`]), or fails the
    /// engine-level restore validation.
    pub fn restore(checkpoint: &Checkpoint, plan: ShardPlan) -> Result<Self, PpError> {
        let seed = checkpoint
            .meta("sim.seed")
            .ok_or_else(|| PpError::Checkpoint {
                reason: "checkpoint carries no simulator metadata (sim.seed); \
                     it was captured from a bare engine, not a UsdSimulator"
                    .to_string(),
            })?;
        let seed = SimSeed::from_u64(seed);
        // A hybrid capture carries the *active backend's* engine state
        // (batched or mean-field) plus `hybrid.*` metadata — dispatch on the
        // metadata first, or the run would resume as the bare backend and
        // lose the fidelity controller.
        let engine = if HybridEngine::is_hybrid_checkpoint(checkpoint) {
            UsdEngine::Hybrid(HybridEngine::restore(checkpoint)?)
        } else {
            match checkpoint.engine() {
                EngineState::Exact(s) => {
                    let protocol = UndecidedStateDynamics::new(s.supports.len());
                    UsdEngine::Exact(CountSimulator::restore(protocol, checkpoint)?)
                }
                EngineState::Batched(s) => {
                    let protocol = UndecidedStateDynamics::new(s.supports.len());
                    UsdEngine::Batched(BatchedEngine::restore(protocol, checkpoint)?)
                }
                EngineState::Sharded(s) => {
                    let k = s
                        .shards
                        .first()
                        .map(|shard| shard.engine.supports.len())
                        .unwrap_or(0);
                    let protocol = UndecidedStateDynamics::new(k);
                    UsdEngine::Sharded(ShardedEngine::restore(protocol, checkpoint)?)
                }
                EngineState::Ensemble(_) => {
                    return Err(PpError::Checkpoint {
                        reason: "checkpoint holds \"ensemble\" engine state; restore it through \
                             UsdEnsemble, not UsdSimulator"
                            .to_string(),
                    })
                }
                EngineState::MeanField(_) => {
                    UsdEngine::MeanField(MeanFieldEngine::restore(checkpoint)?)
                }
            }
        };
        let k = StepEngine::configuration(&engine).num_opinions();
        let initial = match checkpoint.meta("sim.initial.undecided") {
            Some(undecided) => {
                let supports = (0..k)
                    .map(|i| {
                        checkpoint
                            .meta(&format!("sim.initial.support.{i}"))
                            .ok_or_else(|| PpError::Checkpoint {
                                reason: format!(
                                    "simulator metadata is missing sim.initial.support.{i}"
                                ),
                            })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Configuration::from_counts(supports, undecided).map_err(|e| {
                    PpError::Checkpoint {
                        reason: format!(
                            "captured initial counts are not a valid configuration: {e}"
                        ),
                    }
                })?
            }
            None => StepEngine::configuration(&engine).clone(),
        };
        // A restored hybrid engine carries its thresholds in the metadata;
        // keep applying them if a later policy switch rebuilds it.
        let fidelity = match &engine {
            UsdEngine::Hybrid(e) => *e.fidelity_config(),
            _ => FidelityConfig::default(),
        };
        Ok(UsdSimulator {
            engine,
            initial,
            seed,
            plan,
            fidelity,
            consumed: checkpoint.meta("sim.consumed").unwrap_or(0),
            rebuilds: checkpoint.meta("sim.rebuilds").unwrap_or(0),
            retired: MetricsSnapshot::new(),
            tel: Telemetry::disabled(),
            sink: None,
        })
    }

    /// Configures periodic checkpointing: every `every_interactions`
    /// interactions (at the first event that reaches the due count: the
    /// drive ends each leg there, so spacing is quantized to events) and at
    /// every phase boundary of a phase-aware run, the drive loop captures a
    /// checkpoint and appends it to the [`CheckpointJournal`] at `path`,
    /// whose last whole line is then the newest capture.  When telemetry is
    /// attached, each write bumps `checkpoint.captures` and adds the
    /// document size to `checkpoint.bytes`.
    ///
    /// Runs that never advance past `every_interactions` write only the
    /// phase-boundary captures, if any.
    ///
    /// # Panics
    ///
    /// The drive loop panics if a periodic checkpoint cannot be written —
    /// a dead checkpoint path defeats the crash-recovery purpose, so it
    /// fails loudly rather than silently dropping captures.
    pub fn set_checkpoint_sink(&mut self, path: impl Into<PathBuf>, every_interactions: u64) {
        self.sink = Some(CheckpointSink {
            journal: CheckpointJournal::new(path),
            every: every_interactions.max(1),
            last_capture: self.interactions(),
        });
    }

    /// Writes a checkpoint to the sink if one is configured, the backend is
    /// checkpointable, and (when `respect_cadence`) the cadence has
    /// elapsed.  Called between legs only.
    fn sink_checkpoint(&mut self, respect_cadence: bool) {
        let Some(sink) = &self.sink else { return };
        if respect_cadence && self.interactions().saturating_sub(sink.last_capture) < sink.every {
            return;
        }
        self.checkpoint_now()
            .unwrap_or_else(|e| panic!("periodic checkpoint failed: {e}"));
    }

    /// Appends a capture to the checkpoint sink now, off its cadence — the
    /// final capture of a run that is being halted, so the sink stays the
    /// only writer of its file.  Call between `advance` calls only.
    /// Returns `false` when no sink is configured.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the capture cannot be written.
    pub fn checkpoint_now(&mut self) -> Result<bool, PpError> {
        if self.sink.is_none() {
            return Ok(false);
        }
        let checkpoint = self.capture()?;
        let at = self.interactions();
        let Some(sink) = &mut self.sink else {
            return Ok(false);
        };
        let bytes = sink.journal.append(&checkpoint)?;
        sink.last_capture = at;
        if self.tel.is_enabled() {
            self.tel.counter("checkpoint.captures").add(1);
            self.tel.counter("checkpoint.bytes").add(bytes);
        }
        Ok(true)
    }

    /// Builds a lockstep replica ensemble over `config` — the Monte Carlo
    /// counterpart of [`UsdSimulator::with_engine`]: `choice.replicas()`
    /// batched USD copies advance together, with replica `i` bit-identical to a standalone batched run seeded
    /// `master.child(i)` (see [`crate::UsdEnsemble`]).
    ///
    /// # Errors
    ///
    /// Returns [`pp_core::PpError::UnsupportedEngine`] when `choice` selects
    /// a non-batched base backend (exact, sharded and mean-field cannot run
    /// inside the lockstep ensemble).
    pub fn ensemble(
        config: Configuration,
        master: SimSeed,
        choice: pp_core::EnsembleChoice,
    ) -> Result<crate::UsdEnsemble, pp_core::PpError> {
        crate::UsdEnsemble::try_new(config, master, choice)
    }

    /// The shard plan applied to the sharded backend.
    #[must_use]
    pub fn shard_plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The initial configuration of the run.
    #[must_use]
    pub fn initial_configuration(&self) -> &Configuration {
        &self.initial
    }

    /// The current configuration.
    #[must_use]
    pub fn configuration(&self) -> &Configuration {
        StepEngine::configuration(&self.engine)
    }

    /// The backend currently driving the simulation.
    #[must_use]
    pub fn engine_choice(&self) -> EngineChoice {
        self.engine.choice()
    }

    /// Number of interactions performed so far (across engine switches).
    #[must_use]
    pub fn interactions(&self) -> u64 {
        self.consumed + StepEngine::interactions(&self.engine)
    }

    /// Performs one interaction; returns `true` if it was productive.
    ///
    /// Works on every backend: the engine is advanced by exactly one
    /// interaction, which either realizes the next state-changing event or
    /// passes as a null interaction.
    pub fn step(&mut self) -> bool {
        let local = StepEngine::interactions(&self.engine);
        self.engine.advance(local + 1) == Advance::Event
    }

    /// Replaces the engine with the given backend, restarting it from the
    /// current configuration (interaction accounting is preserved).
    fn switch_engine(&mut self, choice: EngineChoice) {
        if self.engine.choice() == choice {
            return;
        }
        self.consumed += StepEngine::interactions(&self.engine);
        self.rebuilds += 1;
        if let Some(snap) = self.engine.telemetry() {
            self.retired.absorb(&snap);
        }
        let config = self.configuration().clone();
        // Derive a fresh child seed per switch so engine streams never
        // overlap (the mean-field backend ignores it).
        let seed = self.seed.child(0x5EED_u64 + self.rebuilds);
        self.engine = UsdEngine::new(config, seed, choice, &self.plan, &self.fidelity);
        self.engine.set_telemetry(&self.tel);
    }

    /// The driver shared by all run methods: like
    /// [`StepEngine::run_engine_recorded`], but budget accounting spans
    /// engine switches.
    fn drive<R: Recorder>(&mut self, stop: StopCondition, recorder: &mut R) -> RunResult {
        self.drive_pausable(stop, recorder, Pause::Never)
            .expect("a never-pausing drive always finishes")
    }

    /// [`UsdSimulator::drive`] with a cooperative pause rule, checked
    /// between legs only — the same boundary where periodic checkpoints are
    /// exact.  Each leg stops at the sink's next due count and at a
    /// [`Pause::At`] threshold; a [`Pause::Hook`] runs one-event legs, so
    /// the hook sees every event.  Returns `None` when the rule asked to
    /// pause; the simulator state is then a valid capture point and a later
    /// call toward the **same** stop condition continues the identical
    /// trajectory (pausing consumes no RNG and never shrinks an `advance`
    /// limit, so the drawn event sequence is unchanged).
    fn drive_pausable<R: Recorder>(
        &mut self,
        stop: StopCondition,
        recorder: &mut R,
        mut pause: Pause<'_>,
    ) -> Option<RunResult> {
        assert!(
            stop.is_bounded(),
            "stop condition can never terminate the run"
        );
        // One coordinator span covering the whole drive, so even backends
        // that only report counters (exact, batched) produce a loadable
        // chrome trace.  Spans consume no RNG — the trajectory is
        // unaffected (pinned by tests/telemetry_equivalence.rs).
        let _run_span = self.tel.span("usd.run");
        let (pause_at, max_events) = match pause {
            Pause::Never => (u64::MAX, u64::MAX),
            Pause::At(at) => (at, u64::MAX),
            Pause::Hook(_) => (u64::MAX, 1),
        };
        loop {
            if stop.goal_met(self.configuration()) {
                let outcome = if self.configuration().is_consensus() {
                    RunOutcome::Consensus
                } else {
                    RunOutcome::OpinionSettled
                };
                return Some(
                    RunResult::new(outcome, self.interactions(), self.configuration().clone())
                        .with_scheduler(self.engine.scheduler_name())
                        .with_rejection_misses(self.engine.rejection_misses())
                        .with_maintenance(self.engine.maintenance())
                        .with_telemetry(self.telemetry_snapshot()),
                );
            }
            let limit = match stop.max_interactions() {
                Some(budget) if self.interactions() >= budget => {
                    return Some(
                        RunResult::new(
                            RunOutcome::BudgetExhausted,
                            self.interactions(),
                            self.configuration().clone(),
                        )
                        .with_scheduler(self.engine.scheduler_name())
                        .with_rejection_misses(self.engine.rejection_misses())
                        .with_maintenance(self.engine.maintenance())
                        .with_telemetry(self.telemetry_snapshot()),
                    );
                }
                Some(budget) => budget - self.consumed,
                None => u64::MAX,
            };
            let sink_due = self.sink.as_ref().map_or(u64::MAX, |sink| {
                sink.last_capture.saturating_add(sink.every)
            });
            let until = pause_at.min(sink_due).saturating_sub(self.consumed);
            let mut recorder = Offset {
                recorder: &mut *recorder,
                by: self.consumed,
            };
            let leg = self.engine.leg(limit, until, max_events, &mut recorder);
            if leg.end == Advance::Absorbed {
                assert!(
                    stop.max_interactions().is_some() || stop.goal_met(self.configuration()),
                    "absorbing configuration {} can never meet the stop condition",
                    self.configuration()
                );
            }
            // Between legs — the only place a capture is exact.
            self.sink_checkpoint(true);
            let at = self.interactions();
            let paused = match &mut pause {
                Pause::Never => false,
                Pause::At(threshold) => at >= *threshold,
                Pause::Hook(hook) => hook(at),
            };
            if paused {
                return None;
            }
        }
    }

    /// Runs until consensus (or until the safety budget is exhausted).
    pub fn run_to_consensus(&mut self, max_interactions: u64) -> RunResult {
        let mut sink = pp_core::NullRecorder;
        self.run_recorded(
            StopCondition::consensus().or_max_interactions(max_interactions),
            &mut sink,
        )
    }

    /// Runs until the winner is determined (at most one live opinion), which
    /// is cheaper than waiting for every undecided agent to decide.
    pub fn run_to_settlement(&mut self, max_interactions: u64) -> RunResult {
        let mut sink = pp_core::NullRecorder;
        self.run_recorded(
            StopCondition::opinion_settled().or_max_interactions(max_interactions),
            &mut sink,
        )
    }

    /// Runs with an arbitrary stop condition and recorder (the recorder sees
    /// the initial configuration and every state change, as with
    /// [`pp_core::CountSimulator::run_recorded`]).
    pub fn run_recorded<R: Recorder>(
        &mut self,
        stop: StopCondition,
        recorder: &mut R,
    ) -> RunResult {
        recorder.record(self.interactions(), self.configuration());
        self.drive(stop, recorder)
    }

    /// Runs like [`UsdSimulator::run_recorded`], but checks the cooperative
    /// `pause` hook after every event (and after an `advance` that ends
    /// without one) and returns `None` when it asks to stop — with the
    /// simulator parked at an exact capture point.
    ///
    /// The hook receives the interaction count so far.  Closure hooks still
    /// see every event: the drive runs one-event legs for them, so a hook
    /// costs a driver round trip per event.  A pause that only waits for an
    /// interaction count should use [`UsdSimulator::run_until`], which
    /// pauses at the same point without the per-event round trips.
    ///
    /// Pausing consumes no RNG and never shrinks an `advance` limit, so
    /// calling this again with the **same** stop condition continues the
    /// bit-identical trajectory; the final [`RunResult`] equals an
    /// uninterrupted run's.  This is the seam job servers use to multiplex
    /// long runs: pause, emit progress or a [`Checkpoint`], then resume (or
    /// hand the capture to a fresh process via [`UsdSimulator::restore`]).
    ///
    /// Unlike [`UsdSimulator::run_recorded`], the recorder does *not* see
    /// the initial configuration on every call — only the first segment of
    /// an interrupted run should record it, so the caller does so once.
    pub fn run_interruptible<R: Recorder>(
        &mut self,
        stop: StopCondition,
        recorder: &mut R,
        pause: &mut dyn FnMut(u64) -> bool,
    ) -> Option<RunResult> {
        self.drive_pausable(stop, recorder, Pause::Hook(pause))
    }

    /// Runs like [`UsdSimulator::run_interruptible`] with the hook
    /// `|i| i >= pause_at`: returns `None` at the first event (or
    /// event-less `advance`) after which at least `pause_at` interactions
    /// have elapsed, at the same state, recorder stream, checkpoint sink
    /// writes and RNG position as that hook.  The threshold is checked
    /// between the engine's legs (see [`StepEngine::leg`]), so the batched
    /// backend runs its events in one loop up to the boundary.
    pub fn run_until<R: Recorder>(
        &mut self,
        stop: StopCondition,
        recorder: &mut R,
        pause_at: u64,
    ) -> Option<RunResult> {
        self.drive_pausable(stop, recorder, Pause::At(pause_at))
    }

    /// Runs to consensus while tracking the paper's five phase hitting times
    /// with significance multiplier `alpha`, using the simulator's current
    /// backend for every phase.
    pub fn run_with_phases(&mut self, alpha: f64, max_interactions: u64) -> PhasedRunResult {
        let policy = EnginePolicy::uniform(self.engine.choice());
        self.run_with_phases_policy(alpha, max_interactions, &policy)
    }

    /// Runs to consensus while tracking phase hitting times, picking the
    /// step-engine backend *per phase* according to `policy`.
    ///
    /// Exact and batched backends induce the same trajectory distribution,
    /// so mixing them changes only the run's cost; scheduling the mean-field
    /// backend for a phase swaps in the deterministic fluid limit for that
    /// stretch of the run (an approximation — see
    /// [`crate::mean_field::MeanFieldEngine`]).
    pub fn run_with_phases_policy(
        &mut self,
        alpha: f64,
        max_interactions: u64,
        policy: &EnginePolicy,
    ) -> PhasedRunResult {
        let initial_plurality = self.initial.max_opinion();
        let mut tracker = PhaseTracker::new(alpha);
        tracker.record(self.interactions(), self.configuration());
        // Scheduler names actually realized, in order of first use — a
        // mixed policy (e.g. sharded for one phase only) must not label the
        // whole run with whichever engine happened to finish it.
        let mut schedulers: Vec<&'static str> = Vec::new();
        // One `usd.phase.<number>` span per paper phase, rotated at phase
        // boundaries (the previous span must close before the next opens so
        // the coordinator track stays properly nested).
        let mut span_phase: Option<Phase> = None;
        let mut phase_span: Option<pp_core::telemetry::Span> = None;
        let run = loop {
            let Some(phase) = tracker.current_phase() else {
                // All five phases registered; Phase 5's end condition is
                // consensus, so the goal is reached.
                break RunResult::new(
                    RunOutcome::Consensus,
                    self.interactions(),
                    self.configuration().clone(),
                );
            };
            if span_phase != Some(phase) {
                // Close the outgoing phase's span before opening the next one
                // — two live spans on the coordinator track would overlap.
                drop(phase_span.take());
                phase_span = Some(self.tel.span(&format!("usd.phase.{}", phase.number())));
                // Phase boundaries sit between `advance` calls, so they are
                // valid capture points: write a checkpoint regardless of the
                // periodic cadence when a sink is configured (skipped for
                // the very first phase — nothing has run yet).
                if span_phase.is_some() {
                    self.sink_checkpoint(false);
                }
                span_phase = Some(phase);
            }
            self.switch_engine(policy.choice_for(phase));
            let scheduler = self.engine.scheduler_name();
            if !schedulers.contains(&scheduler) {
                schedulers.push(scheduler);
            }
            if self.interactions() >= max_interactions {
                break RunResult::new(
                    RunOutcome::BudgetExhausted,
                    self.interactions(),
                    self.configuration().clone(),
                );
            }
            match self.engine.advance(max_interactions - self.consumed) {
                Advance::Event => tracker.record(self.interactions(), self.configuration()),
                Advance::LimitReached => {}
                Advance::Absorbed => {
                    // Frozen non-consensus state: the budget check above
                    // terminates on the next iteration.
                }
            }
        };
        drop(phase_span);
        if schedulers.is_empty() {
            schedulers.push(self.engine.scheduler_name());
        }
        let run = run
            .with_scheduler(schedulers.join(" + "))
            .with_rejection_misses(self.engine.rejection_misses())
            .with_maintenance(self.engine.maintenance())
            .with_telemetry(self.telemetry_snapshot());
        let plurality_won = run.winner().map(|w| w == initial_plurality);
        PhasedRunResult {
            run,
            phases: tracker.times(),
            initial_plurality,
            plurality_won,
            engine: policy.describe(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::Phase;

    #[test]
    fn biased_run_converges_and_plurality_wins() {
        let config = Configuration::from_counts(vec![2_000, 500, 500], 0).unwrap();
        let mut sim = UsdSimulator::new(config, SimSeed::from_u64(1));
        let result = sim.run_with_phases(1.0, 100_000_000);
        assert!(result.run.reached_consensus());
        assert_eq!(result.plurality_won, Some(true));
        assert!(result.phases.completed());
        assert_eq!(result.engine, "exact,exact,exact,exact,exact");
        // Phase hitting times are monotone.
        let mut last = 0;
        for p in Phase::ALL {
            let t = result.phases.hitting_time(p).unwrap();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn settlement_is_no_later_than_consensus() {
        let config = Configuration::from_counts(vec![900, 100], 0).unwrap();
        let mut a = UsdSimulator::new(config.clone(), SimSeed::from_u64(5));
        let mut b = UsdSimulator::new(config, SimSeed::from_u64(5));
        let settled = a.run_to_settlement(50_000_000);
        let consensus = b.run_to_consensus(50_000_000);
        assert!(settled.interactions() <= consensus.interactions());
        assert_eq!(settled.winner(), consensus.winner());
    }

    #[test]
    fn initial_configuration_is_preserved() {
        let config = Configuration::from_counts(vec![60, 40], 0).unwrap();
        let mut sim = UsdSimulator::new(config.clone(), SimSeed::from_u64(2));
        sim.run_to_consensus(10_000_000);
        assert_eq!(sim.initial_configuration(), &config);
        assert_ne!(sim.configuration(), &config);
    }

    #[test]
    fn uniform_no_bias_still_converges_for_small_n() {
        let config = Configuration::uniform(300, 3).unwrap();
        let mut sim = UsdSimulator::new(config, SimSeed::from_u64(7));
        let result = sim.run_to_consensus(50_000_000);
        assert!(result.reached_consensus(), "no-bias run failed to converge");
    }

    #[test]
    fn every_backend_converges_on_a_biased_instance() {
        let config = Configuration::from_counts(vec![1_500, 300, 200], 0).unwrap();
        for choice in EngineChoice::ALL {
            let mut sim = UsdSimulator::with_engine(config.clone(), SimSeed::from_u64(3), choice);
            assert_eq!(sim.engine_choice(), choice);
            let result = sim.run_to_consensus(100_000_000);
            assert!(
                result.reached_consensus(),
                "{choice} backend failed to converge"
            );
            assert_eq!(
                result.winner().unwrap().index(),
                0,
                "{choice} picked a minority"
            );
            let expected_scheduler = match choice {
                EngineChoice::Sharded => pp_core::shard::SHARDED_EPOCH_SCHEDULER_NAME,
                _ => pp_core::engine::UNIFORM_PAIR_SCHEDULER_NAME,
            };
            assert_eq!(result.scheduler(), Some(expected_scheduler));
        }
    }

    #[test]
    fn step_works_on_every_backend() {
        let config = Configuration::from_counts(vec![300, 200], 0).unwrap();
        for choice in EngineChoice::ALL {
            let mut sim = UsdSimulator::with_engine(config.clone(), SimSeed::from_u64(9), choice);
            for _ in 0..500 {
                sim.step();
                assert!(sim.configuration().is_consistent());
                assert_eq!(sim.configuration().population(), 500);
            }
            assert_eq!(sim.interactions(), 500, "{choice} step must advance by one");
        }
    }

    #[test]
    fn phase_policy_switches_engines_and_still_converges() {
        let config = Configuration::from_counts(vec![2_000, 500, 500], 0).unwrap();
        let policy = EnginePolicy::recommended();
        let mut sim = UsdSimulator::new(config, SimSeed::from_u64(21));
        let result = sim.run_with_phases_policy(1.0, 100_000_000, &policy);
        assert!(result.run.reached_consensus());
        assert!(result.phases.completed());
        assert_eq!(result.engine, "exact,batched,batched,batched,batched");
        assert_eq!(result.run.interactions(), sim.interactions());
        // After Phase 1 the simulator must have switched to the batched
        // backend at least once.
        assert_eq!(sim.engine_choice(), EngineChoice::Batched);
        let mut last = 0;
        for p in Phase::ALL {
            let t = result.phases.hitting_time(p).unwrap();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn mixed_policy_run_labels_every_scheduler_it_used() {
        // Batched for Phase 1, sharded afterwards: the scheduler label must
        // name both realized schedulers, in order of first use.
        let config = Configuration::from_counts(vec![2_000, 500, 500], 0).unwrap();
        let policy = EnginePolicy::uniform(EngineChoice::Sharded)
            .with_phase(Phase::RiseOfUndecided, EngineChoice::Batched);
        let mut sim = UsdSimulator::new(config, SimSeed::from_u64(31));
        let result = sim.run_with_phases_policy(1.0, 100_000_000, &policy);
        assert!(result.run.reached_consensus());
        let scheduler = result.run.scheduler().unwrap();
        assert_eq!(
            scheduler,
            format!(
                "{} + {}",
                pp_core::engine::UNIFORM_PAIR_SCHEDULER_NAME,
                pp_core::shard::SHARDED_EPOCH_SCHEDULER_NAME
            ),
            "mixed policies must label every scheduler used"
        );
    }

    #[test]
    fn telemetry_spans_cover_every_phase_without_changing_the_run() {
        let config = Configuration::from_counts(vec![2_000, 500, 500], 0).unwrap();
        let policy = EnginePolicy::recommended();
        let mut silent = UsdSimulator::new(config.clone(), SimSeed::from_u64(21));
        let expected = silent.run_with_phases_policy(1.0, 100_000_000, &policy);
        let tel = Telemetry::enabled();
        let mut sim = UsdSimulator::new(config, SimSeed::from_u64(21));
        sim.set_telemetry(tel.clone());
        let traced = sim.run_with_phases_policy(1.0, 100_000_000, &policy);
        // Attaching telemetry must not perturb the trajectory or the
        // measured hitting times.
        assert_eq!(traced.run, expected.run);
        assert_eq!(traced.phases, expected.phases);
        let spans = tel.spans();
        // A phase the run never spent an event in (its end condition
        // registered together with the previous phase's) opens no span;
        // every phase with a positive duration must have one.
        assert!(spans.iter().any(|s| s.name.starts_with("usd.phase.")));
        for p in Phase::ALL {
            if traced.phases.duration(p).unwrap_or(0) == 0 {
                continue;
            }
            let label = format!("usd.phase.{}", p.number());
            assert!(
                spans.iter().any(|s| s.name == label),
                "missing span {label}"
            );
        }
        pp_core::telemetry::check_span_nesting(&spans).expect("phase spans must nest");
        // The policy retires the exact engine after Phase 1; the run's
        // snapshot still covers the batched stretch of the run.
        let snap = traced
            .run
            .telemetry()
            .expect("batched phases report metrics");
        assert!(snap.counter("batched.events_drawn").unwrap() > 0);
        assert_eq!(
            snap.counter("maintenance.rows_patched").unwrap()
                + snap.counter("maintenance.rows_rebuilt").unwrap(),
            traced
                .run
                .maintenance()
                .map_or(0, |m| m.rows_patched + m.rows_rebuilt),
            "snapshot and alias accessors agree on the final engine's counters"
        );
    }

    #[test]
    fn checkpoint_sink_restores_bit_identical_runs_on_every_backend() {
        let dir = std::env::temp_dir().join("usd_core_simulator_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let config = Configuration::from_counts(vec![900, 300, 300], 0).unwrap();
        for choice in [
            EngineChoice::Exact,
            EngineChoice::Batched,
            EngineChoice::Sharded,
        ] {
            // Uninterrupted reference.
            let mut reference =
                UsdSimulator::with_engine(config.clone(), SimSeed::from_u64(17), choice);
            let expected = reference.run_to_consensus(100_000_000);
            assert!(expected.reached_consensus());

            // Same run with a periodic sink: the sink must not perturb the
            // trajectory, and the file must hold a resumable mid-run state.
            let path = dir.join(format!("{choice}.ckpt.json"));
            let mut observed =
                UsdSimulator::with_engine(config.clone(), SimSeed::from_u64(17), choice);
            observed.set_checkpoint_sink(&path, expected.interactions() / 3);
            assert_eq!(observed.run_to_consensus(100_000_000), expected);

            // Restore from the last periodic capture and finish under the
            // same stop condition: bit-identical tail.
            let checkpoint = Checkpoint::load(&path).unwrap();
            let mut restored = UsdSimulator::restore(&checkpoint, ShardPlan::default()).unwrap();
            assert_eq!(restored.engine_choice(), choice);
            assert_eq!(restored.initial_configuration(), &config);
            assert!(restored.interactions() < expected.interactions());
            assert_eq!(
                restored.run_to_consensus(100_000_000),
                expected,
                "{choice} restored tail diverged"
            );
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn phase_boundaries_write_checkpoints_and_count_captures() {
        let dir = std::env::temp_dir().join("usd_core_phase_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("phased.ckpt.json");
        let config = Configuration::from_counts(vec![2_000, 500, 500], 0).unwrap();
        let mut silent = UsdSimulator::new(config.clone(), SimSeed::from_u64(21));
        let expected = silent.run_with_phases(1.0, 100_000_000);
        let tel = Telemetry::enabled();
        let mut sim = UsdSimulator::new(config, SimSeed::from_u64(21));
        sim.set_telemetry(tel.clone());
        // A cadence far beyond the budget: only phase boundaries capture.
        sim.set_checkpoint_sink(&path, u64::MAX);
        let traced = sim.run_with_phases(1.0, 100_000_000);
        assert_eq!(traced.run, expected.run, "sink perturbed the trajectory");
        assert_eq!(traced.phases, expected.phases);
        let snap = tel.snapshot();
        let captures = snap.counter("checkpoint.captures").unwrap_or(0);
        assert!(captures > 0, "phase boundaries must capture");
        assert!(snap.counter("checkpoint.bytes").unwrap() > 0);
        // The file on disk is a loadable simulator checkpoint.
        let checkpoint = Checkpoint::load(&path).unwrap();
        assert!(UsdSimulator::restore(&checkpoint, ShardPlan::default()).is_ok());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn mean_field_pause_capture_and_restore_are_bit_exact() {
        let config = Configuration::from_counts(vec![600, 400], 0).unwrap();
        let stop = StopCondition::consensus().or_max_interactions(100_000_000);
        let mut reference = UsdSimulator::with_engine(
            config.clone(),
            SimSeed::from_u64(3),
            EngineChoice::MeanField,
        );
        let expected = reference.run_to_consensus(100_000_000);
        assert!(expected.reached_consensus());

        // Pause via the cooperative hook after the first advance; the
        // simulator is then a valid capture point.
        let mut paused = UsdSimulator::with_engine(
            config.clone(),
            SimSeed::from_u64(3),
            EngineChoice::MeanField,
        );
        let mut sink = pp_core::NullRecorder;
        let mut fired = false;
        let segment = paused.run_interruptible(stop, &mut sink, &mut |_| {
            !std::mem::replace(&mut fired, true)
        });
        assert!(segment.is_none(), "the hook pauses the first segment");
        assert!(paused.interactions() < expected.interactions());
        let checkpoint = paused.capture().unwrap();
        assert_eq!(checkpoint.kind(), "mean-field");

        // A fresh process restores the capture and finishes identically.
        let mut restored = UsdSimulator::restore(&checkpoint, ShardPlan::default()).unwrap();
        assert_eq!(restored.engine_choice(), EngineChoice::MeanField);
        assert_eq!(restored.run_to_consensus(100_000_000), expected);

        // Resuming the paused simulator in place is also bit-exact.
        assert_eq!(
            paused.run_interruptible(stop, &mut sink, &mut |_| false),
            Some(expected.clone())
        );

        // The periodic sink handles the mean-field backend too (it used to
        // reject it), without perturbing the run, and the file on disk is a
        // loadable, finishable capture.
        let dir = std::env::temp_dir().join("usd_core_mean_field_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mean-field.ckpt.json");
        let mut observed = UsdSimulator::with_engine(
            config.clone(),
            SimSeed::from_u64(3),
            EngineChoice::MeanField,
        );
        observed.set_checkpoint_sink(&path, expected.interactions() / 3);
        assert_eq!(observed.run_to_consensus(100_000_000), expected);
        let sunk = Checkpoint::load(&path).unwrap();
        assert_eq!(sunk.kind(), "mean-field");
        let mut resumed = UsdSimulator::restore(&sunk, ShardPlan::default()).unwrap();
        assert_eq!(resumed.run_to_consensus(100_000_000), expected);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn foreign_restores_fail_by_name() {
        let config = Configuration::from_counts(vec![600, 400], 0).unwrap();
        // A bare engine checkpoint (no simulator metadata) is rejected.
        let exact = UsdSimulator::new(config, SimSeed::from_u64(3));
        let bare = match &exact.engine {
            UsdEngine::Exact(e) => Checkpoint::capture(e),
            _ => unreachable!(),
        };
        let err = UsdSimulator::restore(&bare, ShardPlan::default()).unwrap_err();
        assert!(
            matches!(&err, PpError::Checkpoint { reason } if reason.contains("sim.seed")),
            "{err:?}"
        );
    }

    #[test]
    fn batched_backend_run_with_phases_matches_contract() {
        let config = Configuration::from_counts(vec![900, 300, 300], 0).unwrap();
        let mut sim =
            UsdSimulator::with_engine(config, SimSeed::from_u64(13), EngineChoice::Batched);
        let result = sim.run_with_phases(1.0, 100_000_000);
        assert!(result.run.reached_consensus());
        assert!(result.phases.completed());
        assert_eq!(result.engine, "batched,batched,batched,batched,batched");
    }
}
