//! A convenience simulator for the USD, generic over the step-engine layer.
//!
//! [`UsdSimulator`] drives the [`UndecidedStateDynamics`] through any of the
//! five [`StepEngine`] backends ([`pp_core::ExactEngine`],
//! [`pp_core::BatchedEngine`], [`pp_core::ShardedEngine`],
//! [`crate::mean_field::MeanFieldEngine`],
//! [`crate::hybrid::HybridEngine`]) and adds USD-specific helpers:
//! phase-aware runs, periodic checkpoints, pausable runs and winner
//! queries.  Every run goes through one drive: the engine's
//! [`StepEngine::run_engine_pausable`] with the checkpoint sink serviced
//! between its pauses.

use crate::hybrid::HybridEngine;
use crate::mean_field::MeanFieldEngine;
use crate::phases::{Phase, PhaseTimes, PhaseTracker};
use crate::protocol::UndecidedStateDynamics;
use pp_core::checkpoint::{Captures, Checkpoint, CheckpointJournal, CheckpointSink, EngineState};
use pp_core::engine::{Advance, Leg, Pause, StepEngine};
use pp_core::run::MaintenanceStats;
use pp_core::telemetry::Counter;
use pp_core::{
    BatchedEngine, Configuration, CountSimulator, EngineChoice, FidelityConfig, MetricsSnapshot,
    Opinion, PpError, Recorder, RunResult, ShardPlan, ShardedEngine, SimSeed, StopCondition,
    Telemetry,
};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
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
    tel: Telemetry,
    /// Periodic checkpoint sink (see [`UsdSimulator::attach_checkpoint_sink`]).
    sink: Option<PeriodicCaptures>,
}

/// Where and how often the drive loop writes periodic checkpoints.
#[derive(Debug)]
struct PeriodicCaptures {
    captures: Captures,
    /// The simulator metadata every capture carries (see
    /// [`UsdSimulator::capture`]), built once.
    stamp: Vec<(String, u64)>,
    every: u64,
    /// Interaction count at the last capture (cadence anchor).
    last_capture: u64,
    /// The `checkpoint.captures` and `checkpoint.bytes` counters, resolved
    /// at the first capture with telemetry attached.
    counters: Option<(Counter, Counter)>,
}

/// The recorder of a phase-aware run: feeds every event to its
/// [`PhaseTracker`] and flags the event that completes a phase.
struct PhaseWatch<'a> {
    tracker: &'a mut PhaseTracker,
    completed: &'a Cell<bool>,
}

impl Recorder for PhaseWatch<'_> {
    fn record(&mut self, interactions: u64, config: &Configuration) {
        let phase = self.tracker.current_phase();
        self.tracker.record(interactions, config);
        if self.tracker.current_phase() != phase {
            self.completed.set(true);
        }
    }
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
    /// shard plan (shard count, epoch length, worker threads) for the
    /// sharded backend.
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
    /// plan, and explicit fidelity thresholds for the hybrid backend (see
    /// [`crate::hybrid::HybridEngine`]; the other backends ignore them).
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
            tel: Telemetry::disabled(),
            sink: None,
        }
    }

    /// Attaches a telemetry handle: phase-aware runs open a
    /// `usd.phase.<number>` span per paper phase, the sharded backend emits
    /// its epoch/worker spans on the same handle, and run results carry the
    /// engine's metrics snapshot.  Telemetry never consumes randomness, so
    /// attaching a handle cannot change a trajectory (see
    /// [`pp_core::telemetry`]).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
        if let Some(sink) = &mut self.sink {
            sink.counters = None;
        }
        self.engine.set_telemetry(&self.tel);
    }

    /// The unified metrics snapshot for the run so far: the engine's
    /// [`StepEngine::telemetry`] counters (`None` when the engine reports
    /// nothing — e.g. an exact or mean-field run).
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Option<MetricsSnapshot> {
        self.engine.telemetry()
    }

    /// Captures the simulator's complete resumable state as a
    /// [`Checkpoint`]: the backend's engine snapshot plus simulator
    /// metadata (master seed and the initial configuration) stamped into
    /// the checkpoint's `meta` section.  Call between `advance` boundaries
    /// only — the drive loop and the phase-boundary hook do; see
    /// [`pp_core::checkpoint`] for the bit-exactness rules.
    ///
    /// # Errors
    ///
    /// Infallible for every current backend (the mean-field engine stores
    /// its `f64` ODE state as exact IEEE-754 bit patterns); the `Result`
    /// stays so future non-checkpointable backends can fail by name.
    pub fn capture(&self) -> Result<Checkpoint, PpError> {
        let mut checkpoint = self.engine_checkpoint();
        for (name, value) in self.stamp() {
            checkpoint = checkpoint.with_meta(&name, value);
        }
        Ok(checkpoint)
    }

    /// The backend's checkpoint, without the simulator metadata.
    fn engine_checkpoint(&self) -> Checkpoint {
        match &self.engine {
            UsdEngine::Exact(e) => Checkpoint::capture(e),
            UsdEngine::Batched(e) => Checkpoint::capture(e),
            UsdEngine::Sharded(e) => Checkpoint::capture(e),
            UsdEngine::MeanField(e) => Checkpoint::capture(e),
            // The hybrid engine stamps its controller state and interaction
            // bookkeeping into the meta section itself.
            UsdEngine::Hybrid(e) => e.checkpoint(),
        }
    }

    /// The simulator metadata of a capture: the master seed and the
    /// initial configuration, constant over a run.
    fn stamp(&self) -> Vec<(String, u64)> {
        let mut stamp = vec![
            ("sim.seed".to_string(), self.seed.value()),
            (
                "sim.initial.undecided".to_string(),
                self.initial.undecided(),
            ),
        ];
        for (i, &support) in self.initial.supports().iter().enumerate() {
            stamp.push((format!("sim.initial.support.{i}"), support));
        }
        stamp
    }

    /// Restores a simulator from a checkpoint captured by
    /// [`UsdSimulator::capture`].  Resuming toward the **same stop
    /// condition** the interrupted run used produces a bit-identical
    /// trajectory tail (see [`pp_core::checkpoint`]).  `_plan` is ignored: a
    /// restored sharded engine carries its own plan inside the checkpoint.
    ///
    /// Telemetry starts detached — it is reporting state; reattach a handle
    /// with [`UsdSimulator::set_telemetry`].
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the checkpoint was captured
    /// from a bare engine (no simulator metadata), holds an ensemble state
    /// (restore those through [`crate::UsdEnsemble`]), was captured after a
    /// mid-run engine switch (non-zero `sim.consumed`, which older builds
    /// wrote), or fails the engine-level restore validation.
    pub fn restore(checkpoint: &Checkpoint, _plan: ShardPlan) -> Result<Self, PpError> {
        let seed = checkpoint
            .meta("sim.seed")
            .ok_or_else(|| PpError::Checkpoint {
                reason: "checkpoint carries no simulator metadata (sim.seed); \
                     it was captured from a bare engine, not a UsdSimulator"
                    .to_string(),
            })?;
        if let Some(consumed @ 1..) = checkpoint.meta("sim.consumed") {
            return Err(PpError::Checkpoint {
                reason: format!(
                    "checkpoint was captured after a mid-run engine switch \
                     (sim.consumed = {consumed}), which this build cannot resume"
                ),
            });
        }
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
        Ok(UsdSimulator {
            engine,
            initial,
            seed,
            tel: Telemetry::disabled(),
            sink: None,
        })
    }

    /// Configures periodic checkpointing into the [`CheckpointJournal`] at
    /// `path`, whose last whole line is then the newest capture (see
    /// [`UsdSimulator::attach_checkpoint_sink`]).
    ///
    /// # Panics
    ///
    /// The drive loop panics if a periodic checkpoint cannot be written —
    /// a dead checkpoint path defeats the crash-recovery purpose, so it
    /// fails loudly rather than silently dropping captures.
    pub fn set_checkpoint_sink(&mut self, path: impl Into<PathBuf>, every_interactions: u64) {
        self.attach_checkpoint_sink(Box::new(CheckpointJournal::new(path)), every_interactions);
    }

    /// Configures periodic checkpointing: every `every_interactions`
    /// interactions (at the first event that reaches the due count: the
    /// drive ends each leg there, so spacing is quantized to events) and at
    /// every phase boundary of a phase-aware run, the drive loop captures a
    /// checkpoint and stores it in `sink`.  Each capture is encoded into a
    /// buffer the sink keeps, with the simulator metadata stamped once per
    /// run, and its document is byte for byte
    /// [`UsdSimulator::capture`]'s.  When telemetry is attached, each
    /// store bumps `checkpoint.captures` and adds the document size to
    /// `checkpoint.bytes`.
    ///
    /// Runs that never advance past `every_interactions` write only the
    /// phase-boundary captures, if any.
    ///
    /// # Panics
    ///
    /// The drive loop panics if `sink` fails to store a periodic
    /// checkpoint.
    pub fn attach_checkpoint_sink(
        &mut self,
        sink: Box<dyn CheckpointSink>,
        every_interactions: u64,
    ) {
        self.sink = Some(PeriodicCaptures {
            captures: Captures::new(sink),
            stamp: self.stamp(),
            every: every_interactions.max(1),
            last_capture: self.interactions(),
            counters: None,
        });
    }

    /// The interaction count at which the sink's next periodic capture is
    /// due (`u64::MAX` without a sink).
    fn sink_due(&self) -> u64 {
        self.sink.as_ref().map_or(u64::MAX, |sink| {
            sink.last_capture.saturating_add(sink.every)
        })
    }

    /// Writes a checkpoint to the sink if one is configured and the capture
    /// is due: at the cadence, or off it (`boundary`) unless the sink
    /// captured this very state already.  Called between legs only.
    fn sink_checkpoint(&mut self, boundary: bool) {
        let Some(sink) = &self.sink else { return };
        let at = self.interactions();
        let due = if boundary {
            sink.last_capture != at
        } else {
            at.saturating_sub(sink.last_capture) >= sink.every
        };
        if due {
            self.checkpoint_now()
                .unwrap_or_else(|e| panic!("periodic checkpoint failed: {e}"));
        }
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
        let checkpoint = self.engine_checkpoint();
        let at = self.interactions();
        let Some(sink) = &mut self.sink else {
            return Ok(false);
        };
        let bytes = sink.captures.store(&checkpoint, &sink.stamp)?;
        sink.last_capture = at;
        if self.tel.is_enabled() {
            let (captures, written) = sink.counters.get_or_insert_with(|| {
                (
                    self.tel.counter("checkpoint.captures"),
                    self.tel.counter("checkpoint.bytes"),
                )
            });
            captures.add(1);
            written.add(bytes);
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

    /// The backend driving the simulation.
    #[must_use]
    pub fn engine_choice(&self) -> EngineChoice {
        self.engine.choice()
    }

    /// Number of interactions performed so far.
    #[must_use]
    pub fn interactions(&self) -> u64 {
        StepEngine::interactions(&self.engine)
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

    /// The driver shared by all run methods: the engine's
    /// [`StepEngine::run_engine_pausable`], with the checkpoint sink
    /// serviced between its pauses.  Each leg also stops at the sink's next
    /// due count, where the capture is taken before the caller's `pause`
    /// rule is asked.  Returns `None` when that rule asked to pause; the
    /// simulator state is then a valid capture point and a later call
    /// toward the **same** stop condition continues the identical
    /// trajectory.
    fn drive<R: Recorder>(
        &mut self,
        stop: StopCondition,
        recorder: &mut R,
        pause: Pause<'_>,
    ) -> Option<RunResult> {
        // One coordinator span covering the whole drive, so even backends
        // that only report counters (exact, batched) produce a loadable
        // chrome trace.  Spans consume no RNG — the trajectory is
        // unaffected (pinned by tests/telemetry_equivalence.rs).
        let _run_span = self.tel.span("usd.run");
        let (pause_at, mut hook) = match pause {
            Pause::Never => (u64::MAX, None),
            Pause::At(at) => (at, None),
            Pause::Hook(hook) => (u64::MAX, Some(hook)),
        };
        loop {
            let due = self.sink_due();
            // Whether the caller's hook, asked inside the engine's loop,
            // is what paused it.
            let mut hooked = false;
            let finished = match &mut hook {
                None => {
                    let at = pause_at.min(due);
                    let pause = if at == u64::MAX {
                        Pause::Never
                    } else {
                        Pause::At(at)
                    };
                    self.engine.run_engine_pausable(stop, recorder, pause)
                }
                Some(hook) => {
                    let mut until_due = |i: u64| {
                        hooked = i < due && hook(i);
                        hooked || i >= due
                    };
                    self.engine
                        .run_engine_pausable(stop, recorder, Pause::Hook(&mut until_due))
                }
            };
            if finished.is_some() {
                return finished;
            }
            // Between legs — the only place a capture is exact.
            self.sink_checkpoint(false);
            let at = self.interactions();
            let paused = match &mut hook {
                None => at >= pause_at,
                Some(hook) => hooked || hook(at),
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
        self.drive(stop, recorder, Pause::Never)
            .expect("a never-pausing drive always finishes")
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
        self.drive(stop, recorder, Pause::Hook(pause))
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
        self.drive(stop, recorder, Pause::At(pause_at))
    }

    /// Runs to consensus while tracking the paper's five phase hitting times
    /// with significance multiplier `alpha`.
    ///
    /// This is [`UsdSimulator::run_recorded`]'s drive with a
    /// [`PhaseTracker`] as the recorder, pausing after each event that
    /// completes a phase (one-event legs, as for a
    /// [`run_interruptible`](UsdSimulator::run_interruptible) hook).  There
    /// it rotates the `usd.phase.<number>` telemetry span and, when a
    /// checkpoint sink is set, captures the phase boundary; the sink's
    /// periodic captures happen as in every other run.  The run ends when
    /// the tracker holds all five hitting times (Phase 5 ends at consensus)
    /// or at `max_interactions`; an `alpha` under which Phase 2 cannot end
    /// at consensus runs to the budget.
    pub fn run_with_phases(&mut self, alpha: f64, max_interactions: u64) -> PhasedRunResult {
        let initial_plurality = self.initial.max_opinion();
        let mut tracker = PhaseTracker::new(alpha);
        tracker.record(self.interactions(), self.configuration());
        // Phase 5 ends at consensus, and Phases 1, 3 and 4 hold there too;
        // Phase 2 does unless `alpha` puts its threshold out of reach.
        let mut supports = vec![0; self.initial.num_opinions()];
        supports[0] = self.initial.population();
        let consensus = Configuration::from_counts(supports, 0)
            .expect("a consensus of the initial population is a configuration");
        let stop = if Phase::AdditiveBias.end_condition_met(&consensus, alpha) {
            StopCondition::consensus().or_max_interactions(max_interactions)
        } else {
            StopCondition::after_interactions(max_interactions)
        };
        let phase_span = |tracker: &PhaseTracker, tel: &Telemetry| {
            let phase = tracker.current_phase()?;
            Some(tel.span(&format!("usd.phase.{}", phase.number())))
        };
        let completed = Cell::new(false);
        let mut span = phase_span(&tracker, &self.tel);
        let run = loop {
            let mut watch = PhaseWatch {
                tracker: &mut tracker,
                completed: &completed,
            };
            if let Some(run) = self.drive(stop, &mut watch, Pause::Hook(&mut |_| completed.get())) {
                break run;
            }
            completed.set(false);
            // The outgoing phase's span closes before the next one opens,
            // so the coordinator track stays properly nested.
            drop(span.take());
            span = phase_span(&tracker, &self.tel);
            if span.is_some() {
                self.sink_checkpoint(true);
            }
        };
        drop(span);
        let plurality_won = run.winner().map(|w| w == initial_plurality);
        PhasedRunResult {
            run,
            phases: tracker.times(),
            initial_plurality,
            plurality_won,
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
        assert_eq!(
            result.run.scheduler(),
            Some(pp_core::engine::UNIFORM_PAIR_SCHEDULER_NAME)
        );
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
    fn telemetry_spans_cover_every_phase_without_changing_the_run() {
        let config = Configuration::from_counts(vec![2_000, 500, 500], 0).unwrap();
        for choice in [EngineChoice::Exact, EngineChoice::Batched] {
            let mut silent =
                UsdSimulator::with_engine(config.clone(), SimSeed::from_u64(21), choice);
            let expected = silent.run_with_phases(1.0, 100_000_000);
            let tel = Telemetry::enabled();
            let mut sim = UsdSimulator::with_engine(config.clone(), SimSeed::from_u64(21), choice);
            sim.set_telemetry(tel.clone());
            let traced = sim.run_with_phases(1.0, 100_000_000);
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
                    "{choice}: missing span {label}"
                );
            }
            pp_core::telemetry::check_span_nesting(&spans).expect("phase spans must nest");
            if choice == EngineChoice::Exact {
                assert_eq!(traced.run.telemetry(), None, "exact runs report no metrics");
                continue;
            }
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
                "snapshot and alias accessors agree on the engine's counters"
            );
        }
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
    fn sink_documents_are_the_capture_documents_on_every_backend() {
        use std::sync::{Arc, Mutex};
        struct Keep(Arc<Mutex<Vec<String>>>);
        impl CheckpointSink for Keep {
            fn store(&mut self, document: &str) -> Result<(), PpError> {
                self.0.lock().unwrap().push(document.to_string());
                Ok(())
            }
        }
        let config = Configuration::from_counts(vec![9_000, 3_000, 2_000], 1_000).unwrap();
        let stop = StopCondition::consensus().or_max_interactions(100_000_000);
        for choice in [
            EngineChoice::Exact,
            EngineChoice::Batched,
            EngineChoice::Sharded,
            EngineChoice::MeanField,
            EngineChoice::Hybrid,
        ] {
            let mut sim = UsdSimulator::with_engine(config.clone(), SimSeed::from_u64(5), choice);
            let docs = Arc::new(Mutex::new(Vec::new()));
            sim.attach_checkpoint_sink(Box::new(Keep(Arc::clone(&docs))), u64::MAX);
            for at in [1_000, 40_000] {
                assert!(sim
                    .run_until(stop, &mut pp_core::NullRecorder, at)
                    .is_none());
                assert!(sim.checkpoint_now().unwrap());
                let stored = docs.lock().unwrap().last().cloned();
                assert_eq!(stored, Some(sim.capture().unwrap().to_json()), "{choice}");
            }
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
    fn phased_runs_take_the_periodic_captures_too() {
        let dir = std::env::temp_dir().join("usd_core_phased_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let config = Configuration::from_counts(vec![1_200, 1_000, 800], 0).unwrap();
        let captures = |sim: &mut UsdSimulator, phased: bool| {
            let tel = Telemetry::enabled();
            sim.set_telemetry(tel.clone());
            let run = if phased {
                sim.run_with_phases(1.0, 100_000_000).run
            } else {
                sim.run_to_consensus(100_000_000)
            };
            (
                run,
                tel.snapshot().counter("checkpoint.captures").unwrap_or(0),
            )
        };
        for choice in [EngineChoice::Exact, EngineChoice::Batched] {
            let seed = SimSeed::from_u64(21);
            let every = UsdSimulator::with_engine(config.clone(), seed, choice)
                .run_to_consensus(100_000_000)
                .interactions()
                / 10;
            let path = dir.join(format!("{choice}.ckpt.json"));
            let mut plain = UsdSimulator::with_engine(config.clone(), seed, choice);
            plain.set_checkpoint_sink(&path, every);
            let (_, plain_captures) = captures(&mut plain, false);
            let _ = std::fs::remove_file(&path);
            let mut phased = UsdSimulator::with_engine(config.clone(), seed, choice);
            phased.set_checkpoint_sink(&path, every);
            let (run, phased_captures) = captures(&mut phased, true);
            assert!(
                phased_captures >= plain_captures,
                "{choice}: the phased run journaled {phased_captures} captures, \
                 run_to_consensus {plain_captures}"
            );
            // The last line restores and finishes the phased run's run.
            let checkpoint = Checkpoint::load(&path).unwrap();
            let mut restored = UsdSimulator::restore(&checkpoint, ShardPlan::default()).unwrap();
            assert_eq!(restored.run_to_consensus(100_000_000), run, "{choice}");
            let _ = std::fs::remove_file(path);
        }
    }

    /// A batched capture taken at interaction 2,004 of a run from
    /// `[300, 200, 100]` seeded 5, by a build that still stamped
    /// `sim.consumed` and `sim.rebuilds`.
    const OLDER_CAPTURE: &str = r#"{"format":1,"kind":"batched","engine":{"supports":[262,127,29],"undecided":182,"interactions":2004,"rng":[16762832583990783629,11156893146322126752,9434047617175935872,7476534621346659124],"counters":{"events_drawn":1028,"nulls_skipped":976,"refreshes":1029,"rows_patched":1028,"rows_rebuilt":1,"law_patches":0,"law_rebuilds":0,"law_fallback_rebuilds":0,"incremental":1}},"meta":{"sim.seed":5,"sim.consumed":0,"sim.rebuilds":0,"sim.initial.undecided":0,"sim.initial.support.0":300,"sim.initial.support.1":200,"sim.initial.support.2":100}}"#;

    #[test]
    fn older_captures_resume_unless_taken_after_an_engine_switch() {
        let config = Configuration::from_counts(vec![300, 200, 100], 0).unwrap();
        let mut fresh =
            UsdSimulator::with_engine(config.clone(), SimSeed::from_u64(5), EngineChoice::Batched);
        assert_eq!(fresh.capture().unwrap().meta("sim.consumed"), None);
        let expected = fresh.run_to_consensus(10_000_000);
        assert_eq!(expected.interactions(), 8_561);

        let older = Checkpoint::from_json(OLDER_CAPTURE).unwrap();
        let mut restored = UsdSimulator::restore(&older, ShardPlan::default()).unwrap();
        assert_eq!(restored.initial_configuration(), &config);
        assert_eq!(restored.run_to_consensus(10_000_000), expected);

        // A capture taken after a mid-run engine switch counted interactions
        // outside its engine; resuming it would restart the count.
        let switched = OLDER_CAPTURE.replace("\"sim.consumed\":0", "\"sim.consumed\":1500");
        let switched = Checkpoint::from_json(&switched).unwrap();
        let err = UsdSimulator::restore(&switched, ShardPlan::default()).unwrap_err();
        assert!(
            matches!(&err, PpError::Checkpoint { reason } if reason.contains("sim.consumed")),
            "{err:?}"
        );
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
        assert_eq!(
            result.run.scheduler(),
            Some(pp_core::engine::UNIFORM_PAIR_SCHEDULER_NAME)
        );
    }
}
