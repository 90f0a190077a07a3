//! The one place a [`ScenarioConfig`] turns into a running simulation.
//!
//! Every front-end calls [`run_scenario`] — `pp_serve`'s worker threads,
//! `usd_run --scenario` and `usd_run`'s flags — so "submit a job" and "run
//! it by hand" are the same code path, and the determinism contract (same
//! scenario + seed ⇒ bit-identical result, regardless of queueing,
//! concurrency, pauses or crash/resume cycles) reduces to the engine-layer
//! contracts already pinned in `pp_core`/`usd_core`.
//!
//! ## One description, one path
//!
//! `usd_run`'s hand-typed flags are a syntax for a [`ScenarioConfig`]: the
//! binary builds one and calls [`run_scenario`] exactly once, attaching its
//! trajectory CSV and phase tracker as the [`RunControl::recorder`] and its
//! `--trace`/`--metrics` registry as [`RunControl::telemetry`].  Flags,
//! scenario files and server jobs therefore share every derivation by
//! construction — the configuration from the scenario's
//! [`InitialConfig`](pp_workloads::InitialConfig), the run seed
//! `SimSeed::from_u64(seed).child(1)` (replica `i` of an ensemble seeded
//! `master.child(i)`), and the consensus-or-budget stop condition.
//! Attaching recorders, telemetry, checkpoints or progress callbacks consumes
//! no randomness, so none of the service machinery can move a trajectory.
//! A run with neither a progress nor an interrupt hook never pauses, so
//! its telemetry spans and counters are those of one uninterrupted drive.
//!
//! ## Interrupts
//!
//! Every pause is a plain interaction count, and the runner polls the
//! interrupt once per pause.  Single USD runs pause at the first event past
//! each boundary via `UsdSimulator::run_until`, which checks it (and the
//! checkpoint cadence) between the engine's legs; replica ensembles pause
//! between lockstep windows via `UsdEnsemble::run_windows`; single
//! sampling-dynamic runs pause at the first activation past it (exact
//! stepping, `SequentialSampler::run_interruptible`) or the first
//! skip-ahead `advance` past it (batched, the sampler's
//! `StepEngine::run_engine_pausable` with `Pause::at`).  All three resume
//! bit-exactly — in place or from a persisted [`Checkpoint`] in a fresh
//! process.  Sampler
//! checkpoints carry the replica snapshot in the `exact` engine slot,
//! stamped with `sampler.format`/`sampler.dynamic` meta so feeding one to
//! a USD scenario (or vice versa, or to the wrong dynamic) fails loudly
//! instead of silently diverging, and a checkpoint captured from another
//! population, opinion count or named engine is refused with a
//! `checkpoint mismatch` error on every resume path.  Sampling *ensembles* remain the one
//! seam-free path: they run to completion and re-run from scratch after a
//! crash (determinism makes the re-run's result identical — it just costs
//! wall time).

use crate::scenario::{Dynamic, ScenarioConfig};
use consensus_dynamics::{
    sampler_ensemble, JMajority, MedianRule, SamplingDynamics, SequentialSampler, ThreeMajority,
    TwoChoices, Voter,
};
use pp_core::checkpoint::{
    Captures, CheckpointJournal, CheckpointSink, EngineState, ReplicaCheckpoint,
};
use pp_core::ensemble::EnsembleRunResult;
use pp_core::{
    Checkpoint, Configuration, EngineChoice, MetricsSnapshot, NullRecorder, Pause, Recorder,
    RunOutcome, RunResult, SimSeed, StepEngine, StopCondition, Telemetry,
};
use std::path::Path;

/// How many lockstep windows a replica ensemble advances between interrupt
/// polls and progress events.
const ENSEMBLE_WINDOWS_PER_SLICE: u64 = 4;

/// The deterministic outcome of a scenario run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOutcome {
    /// A single trajectory (`replicas == 1`).
    Single(RunResult),
    /// A lockstep replica ensemble (`replicas > 1`).
    Ensemble(EnsembleRunResult),
}

/// Why a run stopped before reaching its stop condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The job was cancelled; it will not resume.
    Cancelled,
    /// The server is going down; the job stays resumable (checkpointed
    /// when a sink is configured).
    Halted,
}

/// What [`run_scenario`] produced.
// One verdict exists per (milliseconds-to-minutes) run, so the size gap
// between the outcome-carrying and marker variants costs nothing; boxing
// would only complicate every matcher.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum RunVerdict {
    /// The stop condition was reached; the outcome is canonical.
    Finished(ScenarioOutcome),
    /// An interrupt stopped the run first.
    Interrupted(Interrupt),
}

/// A streamed progress snapshot, taken at a pause boundary (so it is also
/// always a valid capture point).
#[derive(Debug, Clone)]
pub struct ProgressEvent {
    /// Interactions consumed so far (`None` where the backend exposes no
    /// mid-run counter, e.g. the replica ensemble between windows).
    pub interactions: Option<u64>,
    /// Per-opinion support counts at the pause point.
    pub supports: Option<Vec<u64>>,
    /// Undecided count at the pause point.
    pub undecided: Option<u64>,
    /// Cumulative metrics registry snapshot (diff consecutive events for
    /// deltas); `None` when empty.
    pub metrics: Option<MetricsSnapshot>,
}

/// Hooks the front-ends thread through a run.  `RunControl::default()`
/// runs to completion silently — exactly what `usd_run --scenario` wants.
#[derive(Default)]
pub struct RunControl<'a> {
    /// Progress event sink.
    pub progress: Option<&'a mut dyn FnMut(ProgressEvent)>,
    /// Interactions between progress events (`0` = one parallel-time unit,
    /// i.e. `n`).
    pub progress_every: u64,
    /// Polled at pause boundaries; returning `Some` stops the run.
    pub interrupt: Option<&'a dyn Fn() -> Option<Interrupt>>,
    /// Periodic checkpoint sink `(path, cadence)`: a
    /// [`CheckpointJournal`] each capture appends a line to.  A `Halted`
    /// interrupt appends one more capture, so the resume point is never
    /// stale.
    pub checkpoint: Option<(&'a Path, u64)>,
    /// The same, into any [`CheckpointSink`] (a job server passes its job
    /// log); it takes the place of `checkpoint` when both are set.  Single
    /// USD runs, single sampling-dynamic runs and the halt capture of a
    /// USD ensemble all store their captures here.
    pub sink: Option<(Box<dyn CheckpointSink>, u64)>,
    /// Resume from this capture instead of building the initial state
    /// (single USD, USD-ensemble, and single sampling-dynamic
    /// checkpoints).  It must come from a run with the scenario's `n` and
    /// `k` (and its engine, when the scenario names one).
    pub resume: Option<&'a Checkpoint>,
    /// Per-event observer of a single run (replica ensembles ignore it):
    /// it sees the starting configuration once, then every state change.
    pub recorder: Option<&'a mut dyn Recorder>,
    /// The metrics registry the run reports into.  `None` keeps the
    /// runner's own, which is enabled exactly when a progress hook is
    /// attached (progress events carry its counters).
    pub telemetry: Option<Telemetry>,
}

impl std::fmt::Debug for RunControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunControl")
            .field("progress", &self.progress.is_some())
            .field("progress_every", &self.progress_every)
            .field("interrupt", &self.interrupt.is_some())
            .field("checkpoint", &self.checkpoint)
            .field("sink", &self.sink.as_ref().map(|(_, every)| every))
            .field("resume", &self.resume.map(Checkpoint::kind))
            .field("recorder", &self.recorder.is_some())
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

impl RunControl<'_> {
    fn poll(&self) -> Option<Interrupt> {
        self.interrupt.and_then(|f| f())
    }

    /// Whether a progress or interrupt hook listens at pause boundaries;
    /// a run without one drives straight through, so its telemetry spans
    /// and counters are those of one uninterrupted drive.
    fn pauses(&self) -> bool {
        self.progress.is_some() || self.interrupt.is_some()
    }

    /// The run's checkpoint sink and cadence: [`RunControl::sink`], else a
    /// journal at [`RunControl::checkpoint`]'s path.
    fn take_sink(&mut self) -> Option<(Box<dyn CheckpointSink>, u64)> {
        self.sink.take().or_else(|| {
            self.checkpoint.map(|(path, every)| {
                let journal: Box<dyn CheckpointSink> = Box::new(CheckpointJournal::new(path));
                (journal, every)
            })
        })
    }

    /// [`RunControl::take_sink`] with its encode buffer.
    fn take_captures(&mut self) -> Option<(Captures, u64)> {
        self.take_sink()
            .map(|(sink, every)| (Captures::new(sink), every))
    }

    /// Interactions between pause boundaries for a population of `n`.
    fn pause_every(&self, n: u64) -> u64 {
        match (self.pauses(), self.progress_every) {
            (false, _) => u64::MAX,
            (true, 0) => n.max(1),
            (true, every) => every,
        }
    }
}

/// Runs a scenario to its stop condition (or first interrupt).  Every
/// front-end — `pp_serve` workers, `usd_run --scenario` and `usd_run`'s
/// flags — goes through here; see the module docs.
///
/// # Errors
///
/// Returns the named diagnostics for invalid scenarios, impossible
/// configurations, unsupported engine/dynamic combinations, and resume
/// checkpoints that are broken or belong to a different run.
pub fn run_scenario(
    scenario: &ScenarioConfig,
    mut control: RunControl<'_>,
) -> Result<RunVerdict, String> {
    scenario.validate()?;
    // The recorder is dispatched once per run: without one, every drive
    // loop stays monomorphised on the no-op recorder.
    match control.recorder.take() {
        Some(recorder) => run_recorded(
            scenario,
            &mut control,
            |interactions: u64, config: &Configuration| recorder.record(interactions, config),
        ),
        None => run_recorded(scenario, &mut control, NullRecorder),
    }
}

fn run_recorded<R: Recorder>(
    scenario: &ScenarioConfig,
    control: &mut RunControl<'_>,
    mut recorder: R,
) -> Result<RunVerdict, String> {
    let spec = scenario.to_initial_config();
    let seed = SimSeed::from_u64(scenario.seed);
    let stop = StopCondition::consensus().or_max_interactions(scenario.interaction_budget());
    let tel = control.telemetry.clone().unwrap_or_else(|| {
        if control.progress.is_some() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
    });

    if scenario.replicas > 1 {
        let (config, choice) = spec
            .build_ensemble(seed)
            .map_err(|e| format!("invalid configuration: {e}"))?;
        let run_seed = seed.child(1);
        if scenario.dynamic == Dynamic::Usd {
            let mut ensemble = match control.resume {
                Some(checkpoint) => {
                    if let EngineState::Ensemble(snapshot) = checkpoint.engine() {
                        if let Some(replica) = snapshot.replicas.first() {
                            let captured = replica
                                .configuration()
                                .map_err(|e| format!("cannot resume: {e}"))?;
                            check_resume_matches(scenario, &captured, None)?;
                        }
                    }
                    usd_core::UsdEnsemble::restore(checkpoint, choice)
                        .map_err(|e| format!("cannot resume: {e}"))?
                }
                None => usd_core::UsdEnsemble::try_new(config, run_seed, choice)
                    .map_err(|e| e.to_string())?,
            };
            ensemble.set_telemetry(tel.clone());
            let mut captures = control.take_captures();
            let windows = if control.pauses() {
                ENSEMBLE_WINDOWS_PER_SLICE
            } else {
                u64::MAX
            };
            loop {
                if let Some(outcome) = ensemble.run_windows(stop, windows) {
                    return Ok(RunVerdict::Finished(ScenarioOutcome::Ensemble(outcome)));
                }
                if let Some(kind) = control.poll() {
                    if let (Interrupt::Halted, Some((captures, _))) = (kind, &mut captures) {
                        captures
                            .store(&ensemble.capture(), &[])
                            .map_err(|e| format!("cannot checkpoint: {e}"))?;
                    }
                    return Ok(RunVerdict::Interrupted(kind));
                }
                emit(&mut control.progress, &tel, None, None);
            }
        }
        let outcome = match scenario.dynamic {
            Dynamic::Voter => run_sampling_ensemble(
                Voter::new(scenario.opinions),
                config,
                run_seed,
                choice,
                stop,
                &tel,
            ),
            Dynamic::TwoChoices => run_sampling_ensemble(
                TwoChoices::new(scenario.opinions),
                config,
                run_seed,
                choice,
                stop,
                &tel,
            ),
            Dynamic::ThreeMajority => run_sampling_ensemble(
                ThreeMajority::new(scenario.opinions),
                config,
                run_seed,
                choice,
                stop,
                &tel,
            ),
            Dynamic::JMajority => run_sampling_ensemble(
                JMajority::new(scenario.opinions, scenario.majority_samples),
                config,
                run_seed,
                choice,
                stop,
                &tel,
            ),
            Dynamic::Median => run_sampling_ensemble(
                MedianRule::new(scenario.opinions),
                config,
                run_seed,
                choice,
                stop,
                &tel,
            ),
            Dynamic::Usd => unreachable!("handled above"),
        }?;
        return Ok(RunVerdict::Finished(ScenarioOutcome::Ensemble(outcome)));
    }

    if scenario.dynamic == Dynamic::Usd {
        return run_single_usd(scenario, &spec, seed, stop, &tel, control, &mut recorder);
    }

    // Single sampling dynamic: pauses between activations (exact) or
    // skip-ahead `advance` calls (batched) — the capture-exact boundaries.
    let config = match control.resume {
        // A resumed run takes its counts from the checkpoint.
        Some(_) => None,
        None => Some(
            spec.build(seed)
                .map_err(|e| format!("invalid configuration: {e}"))?,
        ),
    };
    let sampler = SamplerRun {
        scenario,
        config,
        seed: seed.child(1),
        stop,
        tel: &tel,
    };
    match scenario.dynamic {
        Dynamic::Voter => sampler.run(Voter::new(scenario.opinions), control, &mut recorder),
        Dynamic::TwoChoices => {
            sampler.run(TwoChoices::new(scenario.opinions), control, &mut recorder)
        }
        Dynamic::ThreeMajority => sampler.run(
            ThreeMajority::new(scenario.opinions),
            control,
            &mut recorder,
        ),
        Dynamic::JMajority => sampler.run(
            JMajority::new(scenario.opinions, scenario.majority_samples),
            control,
            &mut recorder,
        ),
        Dynamic::Median => sampler.run(MedianRule::new(scenario.opinions), control, &mut recorder),
        Dynamic::Usd => unreachable!("handled above"),
    }
}

/// Refuses a resume checkpoint captured from another run: a different
/// population or opinion count than the scenario's (the budget derives from
/// `n` and `k`, so the run would chase the wrong budget and the result
/// would be served as this scenario's), or a different backend than the
/// one the scenario names.
fn check_resume_matches(
    scenario: &ScenarioConfig,
    captured: &Configuration,
    captured_engine: Option<EngineChoice>,
) -> Result<(), String> {
    let (n, k) = (captured.population(), captured.num_opinions());
    if n != scenario.population || k != scenario.opinions {
        return Err(format!(
            "cannot resume: checkpoint mismatch: the checkpoint was captured from a run with \
             n={n}, k={k}, but the scenario says n={}, k={}: the interaction budget derives \
             from n and k, and resuming toward a different budget breaks bit-exactness — pass \
             the original values",
            scenario.population, scenario.opinions
        ));
    }
    if let (Some(held), Some(named)) = (captured_engine, scenario.engine) {
        if held != named {
            return Err(format!(
                "cannot resume: checkpoint mismatch: the checkpoint holds {held} engine state \
                 but the scenario says engine {named}: the backend rides in the checkpoint, so \
                 drop the engine or pass the matching one"
            ));
        }
    }
    Ok(())
}

/// A single USD run through the cooperative pause seam.
fn run_single_usd<R: Recorder>(
    scenario: &ScenarioConfig,
    spec: &pp_workloads::InitialConfig,
    seed: SimSeed,
    stop: StopCondition,
    tel: &Telemetry,
    control: &mut RunControl<'_>,
    recorder: &mut R,
) -> Result<RunVerdict, String> {
    let plan = scenario.shard_plan();
    let mut sim = match control.resume {
        Some(checkpoint) => {
            if checkpoint.meta(SAMPLER_FORMAT_META).is_some() {
                return Err(
                    "cannot resume: the checkpoint was captured from a sampling-dynamic run, \
                     not a USD run"
                        .to_string(),
                );
            }
            let sim = usd_core::UsdSimulator::restore(checkpoint, plan)
                .map_err(|e| format!("cannot resume: {e}"))?;
            check_resume_matches(
                scenario,
                sim.initial_configuration(),
                Some(sim.engine_choice()),
            )?;
            sim
        }
        None => {
            let config = spec
                .build(seed)
                .map_err(|e| format!("invalid configuration: {e}"))?;
            usd_core::UsdSimulator::with_engine_fidelity(
                config,
                seed.child(1),
                spec.engine_choice(),
                plan,
                spec.fidelity_config(),
            )
        }
    };
    sim.set_telemetry(tel.clone());
    if let Some((sink, every)) = control.take_sink() {
        sim.attach_checkpoint_sink(sink, every);
    }
    let pause_every = control.pause_every(scenario.population);
    recorder.record(sim.interactions(), sim.configuration());
    let mut next_pause = sim.interactions().saturating_add(pause_every);
    loop {
        if let Some(result) = sim.run_until(stop, recorder, next_pause) {
            return Ok(RunVerdict::Finished(ScenarioOutcome::Single(result)));
        }
        if let Some(kind) = control.interrupt.and_then(|f| f()) {
            if kind == Interrupt::Halted {
                sim.checkpoint_now()
                    .map_err(|e| format!("cannot checkpoint: {e}"))?;
            }
            return Ok(RunVerdict::Interrupted(kind));
        }
        emit(
            &mut control.progress,
            tel,
            Some(sim.interactions()),
            Some(sim.configuration()),
        );
        next_pause = sim.interactions().saturating_add(pause_every);
    }
}

/// Sends one progress event, snapshotting the metrics registry (empty
/// snapshots collapse to `None`).
fn emit(
    progress: &mut Option<&mut dyn FnMut(ProgressEvent)>,
    tel: &Telemetry,
    interactions: Option<u64>,
    config: Option<&Configuration>,
) {
    let Some(callback) = progress else { return };
    let metrics = tel.snapshot();
    callback(ProgressEvent {
        interactions,
        supports: config.map(|c| c.supports().to_vec()),
        undecided: config.map(Configuration::undecided),
        metrics: (!metrics.is_empty()).then_some(metrics),
    });
}

/// The meta stamp marking a checkpoint as a sampling-dynamic capture (the
/// snapshot itself rides in the `exact` engine slot — the sampler *is* a
/// per-activation engine).
const SAMPLER_FORMAT_META: &str = "sampler.format";
/// The meta stamp naming which dynamic captured the checkpoint (an index
/// into [`Dynamic::ALL`]), so resuming under a different dynamic fails
/// loudly instead of silently diverging.
const SAMPLER_DYNAMIC_META: &str = "sampler.dynamic";

fn dynamic_index(dynamic: Dynamic) -> u64 {
    Dynamic::ALL
        .iter()
        .position(|&d| d == dynamic)
        .expect("every dynamic is listed in Dynamic::ALL") as u64
}

fn capture_sampler<D: SamplingDynamics + Clone>(
    sim: &SequentialSampler<D>,
    dynamic: Dynamic,
) -> Checkpoint {
    Checkpoint::new(pp_core::checkpoint::EngineState::Exact(
        sim.capture_replica(),
    ))
    .with_meta(SAMPLER_FORMAT_META, 1)
    .with_meta(SAMPLER_DYNAMIC_META, dynamic_index(dynamic))
}

fn restore_sampler<D: SamplingDynamics + Clone>(
    dynamics: &D,
    dynamic: Dynamic,
    checkpoint: &Checkpoint,
) -> Result<SequentialSampler<D>, String> {
    match checkpoint.meta(SAMPLER_FORMAT_META) {
        Some(1) => {}
        Some(version) => {
            return Err(format!(
                "cannot resume: sampler checkpoint format {version} is not supported \
                 (this build reads format 1)"
            ))
        }
        None => {
            return Err(format!(
                "cannot resume: the {} checkpoint was not captured from a sampling-dynamic \
                 run (missing the \"sampler.format\" stamp)",
                checkpoint.kind()
            ))
        }
    }
    let stamped = checkpoint.meta(SAMPLER_DYNAMIC_META);
    if stamped != Some(dynamic_index(dynamic)) {
        let stamped_name = stamped
            .and_then(|i| usize::try_from(i).ok())
            .and_then(|i| Dynamic::ALL.get(i))
            .map_or("an unknown dynamic", |d| d.name());
        return Err(format!(
            "cannot resume: the checkpoint was captured from {stamped_name}, not {dynamic}"
        ));
    }
    let snapshot = checkpoint
        .expect_single("exact")
        .map_err(|e| format!("cannot resume: {e}"))?;
    SequentialSampler::restore_replica(dynamics, snapshot)
        .map_err(|e| format!("cannot resume: {e}"))
}

/// What a single sampling-dynamic run needs besides the dynamic itself.
struct SamplerRun<'s> {
    scenario: &'s ScenarioConfig,
    /// The initial configuration; `None` when resuming.
    config: Option<Configuration>,
    seed: SimSeed,
    stop: StopCondition,
    tel: &'s Telemetry,
}

impl SamplerRun<'_> {
    /// Drives one sampling dynamic through
    /// [`SequentialSampler::run_interruptible`] (exact) or
    /// [`StepEngine::run_engine_pausable`] (batched):
    /// interrupts, progress events and checkpoint captures all happen at
    /// activation or `advance`-call boundaries, where the replica snapshot
    /// is exact.
    fn run<D: SamplingDynamics + Clone, R: Recorder>(
        self,
        dynamics: D,
        control: &mut RunControl<'_>,
        recorder: &mut R,
    ) -> Result<RunVerdict, String> {
        let dynamic = self.scenario.dynamic;
        let engine = self.scenario.effective_engine();
        let name = dynamics.name().to_string();
        let mut sim = match (control.resume, self.config) {
            (Some(checkpoint), _) => {
                let sim = restore_sampler(&dynamics, dynamic, checkpoint)?;
                check_resume_matches(self.scenario, sim.configuration(), None)?;
                sim
            }
            (None, Some(config)) => SequentialSampler::try_new(dynamics, config, self.seed)
                .map_err(|e| e.to_string())?,
            (None, None) => unreachable!("run_scenario builds a configuration when not resuming"),
        };
        if engine == EngineChoice::Batched {
            sim.require_skip_ahead().map_err(|e| {
                format!(
                    "{e}: the {name} dynamic provides no closed-form skip-ahead hooks \
                     — use --engine exact"
                )
            })?;
        }
        let population = sim.configuration().population();
        let every = control.pause_every(population);
        let mut captures = control.take_captures();
        let checkpoint_every = match &captures {
            Some((_, 0)) => population.max(1),
            Some((_, cadence)) => *cadence,
            None => u64::MAX,
        };
        let mut write_checkpoint = |sim: &SequentialSampler<D>| match &mut captures {
            Some((captures, _)) => captures
                .store(&capture_sampler(sim, dynamic), &[])
                .map(drop)
                .map_err(|e| format!("cannot checkpoint: {e}")),
            None => Ok(()),
        };
        recorder.record(sim.steps(), sim.configuration());
        let mut next_progress = sim.steps().saturating_add(every);
        let mut next_checkpoint = sim.steps().saturating_add(checkpoint_every);
        loop {
            let pause_at = next_progress.min(next_checkpoint);
            let result = match engine {
                EngineChoice::Exact => sim.run_interruptible(self.stop, recorder, pause_at),
                EngineChoice::Batched => {
                    sim.run_engine_pausable(self.stop, recorder, Pause::at(pause_at))
                }
                other => unreachable!("validate rejects {other} for sampling dynamics"),
            };
            if let Some(result) = result {
                return Ok(RunVerdict::Finished(ScenarioOutcome::Single(result)));
            }
            // Same one-shot interrupt contract as the USD seam: poll once
            // per pause boundary.  Pausing consumes no RNG.
            if let Some(kind) = control.interrupt.and_then(|f| f()) {
                if kind == Interrupt::Halted {
                    write_checkpoint(&sim)?;
                }
                return Ok(RunVerdict::Interrupted(kind));
            }
            if sim.steps() >= next_checkpoint {
                write_checkpoint(&sim)?;
                next_checkpoint = sim.steps().saturating_add(checkpoint_every);
            }
            if sim.steps() >= next_progress {
                emit(
                    &mut control.progress,
                    self.tel,
                    Some(sim.steps()),
                    Some(sim.configuration()),
                );
                next_progress = sim.steps().saturating_add(every);
            }
        }
    }
}

/// Runs a baseline sampling dynamic as a lockstep replica ensemble
/// (`Send` because the ensemble spreads replicas over worker threads).
fn run_sampling_ensemble<D: SamplingDynamics + Clone + Send>(
    dynamics: D,
    config: Configuration,
    seed: SimSeed,
    choice: pp_core::ensemble::EnsembleChoice,
    stop: StopCondition,
    tel: &Telemetry,
) -> Result<EnsembleRunResult, String> {
    let name = dynamics.name().to_string();
    let mut ensemble = sampler_ensemble(&dynamics, &config, seed, choice).map_err(|e| {
        format!(
            "{e}: the {name} dynamic cannot run under the replica ensemble \
             (it provides no closed-form skip-ahead hooks)"
        )
    })?;
    ensemble.set_telemetry(tel.clone());
    Ok(ensemble.run(stop))
}

/// Renders a finished outcome as the service's canonical result JSON: only
/// fields the determinism contract covers (no wall-clock times, no worker
/// counts), so the same scenario always yields the same bytes — the payload
/// `pp_serve` stores and `usd_run --scenario` prints are compared verbatim
/// in `tests/service_equivalence.rs`.  Ensemble scheduling bookkeeping
/// (window and worker counts) stays out too: it describes how the run was
/// scheduled, not what it computed, so it is reported through the metrics
/// snapshot instead.
#[must_use]
pub fn result_json(outcome: &ScenarioOutcome) -> String {
    use crate::json::{Json, ObjBuilder};
    fn outcome_name(outcome: RunOutcome) -> &'static str {
        match outcome {
            RunOutcome::Consensus => "consensus",
            RunOutcome::OpinionSettled => "opinion-settled",
            RunOutcome::BudgetExhausted => "budget-exhausted",
        }
    }
    fn run_json(result: &RunResult) -> Json {
        ObjBuilder::new()
            .field(
                "outcome",
                Json::Str(outcome_name(result.outcome()).to_string()),
            )
            .field("interactions", Json::U64(result.interactions()))
            .field("parallel_time", Json::F64(result.parallel_time()))
            .field(
                "winner",
                result
                    .winner()
                    .map_or(Json::Null, |w| Json::U64(w.index() as u64)),
            )
            .field(
                "scheduler",
                result
                    .scheduler()
                    .map_or(Json::Null, |s| Json::Str(s.to_string())),
            )
            .field(
                "rejection_misses",
                result.rejection_misses().map_or(Json::Null, Json::U64),
            )
            .field(
                "final",
                ObjBuilder::new()
                    .field(
                        "supports",
                        Json::Arr(
                            result
                                .final_configuration()
                                .supports()
                                .iter()
                                .map(|&s| Json::U64(s))
                                .collect(),
                        ),
                    )
                    .field(
                        "undecided",
                        Json::U64(result.final_configuration().undecided()),
                    )
                    .build(),
            )
            .build()
    }
    let doc = match outcome {
        ScenarioOutcome::Single(result) => ObjBuilder::new()
            .field("result", Json::U64(1))
            .field("mode", Json::Str("single".to_string()))
            .field("run", run_json(result))
            .build(),
        ScenarioOutcome::Ensemble(outcome) => ObjBuilder::new()
            .field("result", Json::U64(1))
            .field("mode", Json::Str("ensemble".to_string()))
            .field("replicas", Json::U64(outcome.len() as u64))
            .field(
                "total_interactions",
                // u128 in-core; a real total always fits u64 (budgets are u64
                // per replica and replica counts are small).
                Json::U64(u64::try_from(outcome.total_interactions()).unwrap_or(u64::MAX)),
            )
            .field(
                "results",
                Json::Arr(outcome.results().iter().map(run_json).collect()),
            )
            .build(),
    };
    doc.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScenarioConfig {
        ScenarioConfig::new(600, 3).with_seed(5)
    }

    #[test]
    fn plain_run_finishes_with_consensus() {
        let verdict = run_scenario(&small(), RunControl::default()).unwrap();
        let RunVerdict::Finished(ScenarioOutcome::Single(result)) = verdict else {
            panic!("uninterrupted run must finish: {verdict:?}");
        };
        assert!(result.reached_consensus());
    }

    #[test]
    fn progress_and_interrupt_hooks_never_move_the_trajectory() {
        let RunVerdict::Finished(reference) =
            run_scenario(&small(), RunControl::default()).unwrap()
        else {
            panic!("reference run must finish");
        };
        let mut events = Vec::new();
        let mut on_progress = |event: ProgressEvent| events.push(event);
        let control = RunControl {
            progress: Some(&mut on_progress),
            progress_every: 100,
            interrupt: Some(&|| None),
            ..RunControl::default()
        };
        let RunVerdict::Finished(observed) = run_scenario(&small(), control).unwrap() else {
            panic!("hooked run must finish");
        };
        assert_eq!(observed, reference, "hooks perturbed the trajectory");
        assert!(!events.is_empty(), "progress cadence 100 must fire");
        let event = &events[0];
        assert!(event.interactions.is_some());
        assert_eq!(
            event.supports.as_ref().map(Vec::len),
            Some(3),
            "progress snapshots carry per-opinion counts"
        );
    }

    #[test]
    fn the_interrupt_is_polled_once_per_pause_boundary() {
        // The USD seam and both sampler paths: skip-ahead `advance` calls
        // (batched) and per-activation stepping (exact).
        let voter = |engine| small().with_dynamic(Dynamic::Voter).with_engine(engine);
        for scenario in [
            small(),
            voter(EngineChoice::Batched),
            voter(EngineChoice::Exact),
        ] {
            let polls = std::cell::Cell::new(0_u64);
            let poll = || {
                polls.set(polls.get() + 1);
                None
            };
            let mut boundaries = 0_u64;
            let mut on_progress = |_| boundaries += 1;
            let verdict = run_scenario(
                &scenario,
                RunControl {
                    progress: Some(&mut on_progress),
                    progress_every: 100,
                    interrupt: Some(&poll),
                    ..RunControl::default()
                },
            )
            .unwrap();
            assert!(matches!(verdict, RunVerdict::Finished(_)));
            // Every boundary crossed polls once and then emits its event.
            assert!(boundaries > 1, "cadence 100 must pause");
            assert_eq!(polls.get(), boundaries, "{}", scenario.to_json());
        }
    }

    #[test]
    fn cancelled_runs_report_the_interrupt() {
        let verdict = run_scenario(
            &small(),
            RunControl {
                interrupt: Some(&|| Some(Interrupt::Cancelled)),
                ..RunControl::default()
            },
        )
        .unwrap();
        assert_eq!(verdict, RunVerdict::Interrupted(Interrupt::Cancelled));
    }

    #[test]
    fn halt_checkpoint_resume_is_bit_exact() {
        let dir = std::env::temp_dir().join("pp_service_runner_halt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("halt.ckpt.json");
        let RunVerdict::Finished(reference) =
            run_scenario(&small(), RunControl::default()).unwrap()
        else {
            panic!("reference run must finish");
        };
        // Halt after the first pause boundary, checkpointing on the way
        // out; a "fresh process" resumes from the file and must finish on
        // the reference trajectory.
        use std::sync::atomic::{AtomicBool, Ordering};
        let fired = AtomicBool::new(false);
        let halt = move || {
            if fired.swap(true, Ordering::Relaxed) {
                None
            } else {
                Some(Interrupt::Halted)
            }
        };
        let verdict = run_scenario(
            &small(),
            RunControl {
                interrupt: Some(&halt),
                checkpoint: Some((&path, u64::MAX)),
                progress_every: 50,
                ..RunControl::default()
            },
        )
        .unwrap();
        assert_eq!(verdict, RunVerdict::Interrupted(Interrupt::Halted));
        let checkpoint = Checkpoint::load(&path).unwrap();
        let resumed = run_scenario(
            &small(),
            RunControl {
                resume: Some(&checkpoint),
                ..RunControl::default()
            },
        )
        .unwrap();
        assert_eq!(resumed, RunVerdict::Finished(reference));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn sampler_halt_checkpoint_resume_is_bit_exact() {
        let scenario = ScenarioConfig::new(600, 3)
            .with_seed(5)
            .with_dynamic(Dynamic::Voter)
            .with_engine(EngineChoice::Batched);
        let dir = std::env::temp_dir().join("pp_service_runner_sampler_halt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("halt.ckpt.json");
        let RunVerdict::Finished(reference) =
            run_scenario(&scenario, RunControl::default()).unwrap()
        else {
            panic!("reference run must finish");
        };
        use std::sync::atomic::{AtomicBool, Ordering};
        let fired = AtomicBool::new(false);
        let halt = move || {
            if fired.swap(true, Ordering::Relaxed) {
                None
            } else {
                Some(Interrupt::Halted)
            }
        };
        let verdict = run_scenario(
            &scenario,
            RunControl {
                interrupt: Some(&halt),
                checkpoint: Some((&path, u64::MAX)),
                progress_every: 50,
                ..RunControl::default()
            },
        )
        .unwrap();
        assert_eq!(verdict, RunVerdict::Interrupted(Interrupt::Halted));
        let checkpoint = Checkpoint::load(&path).unwrap();
        assert_eq!(checkpoint.meta(SAMPLER_FORMAT_META), Some(1));
        let resumed = run_scenario(
            &scenario,
            RunControl {
                resume: Some(&checkpoint),
                ..RunControl::default()
            },
        )
        .unwrap();
        assert_eq!(resumed, RunVerdict::Finished(reference));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn sampler_hooks_never_move_the_trajectory() {
        let scenario = ScenarioConfig::new(500, 3)
            .with_seed(11)
            .with_dynamic(Dynamic::ThreeMajority);
        let RunVerdict::Finished(reference) =
            run_scenario(&scenario, RunControl::default()).unwrap()
        else {
            panic!("reference run must finish");
        };
        let mut events = Vec::new();
        let mut on_progress = |event: ProgressEvent| events.push(event);
        let control = RunControl {
            progress: Some(&mut on_progress),
            progress_every: 75,
            interrupt: Some(&|| None),
            ..RunControl::default()
        };
        let RunVerdict::Finished(observed) = run_scenario(&scenario, control).unwrap() else {
            panic!("hooked run must finish");
        };
        assert_eq!(observed, reference, "hooks perturbed the trajectory");
        assert!(!events.is_empty(), "progress cadence 75 must fire");
        assert_eq!(events[0].supports.as_ref().map(Vec::len), Some(3));
    }

    /// Runs `scenario` until its first pause boundary, halts it there and
    /// returns the checkpoint the halt captured.
    fn capture_halted(scenario: &ScenarioConfig, file: &str) -> Checkpoint {
        use std::sync::atomic::{AtomicBool, Ordering};
        let dir = std::env::temp_dir().join("pp_service_runner_capture_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(file);
        let fired = AtomicBool::new(false);
        let halt = move || {
            if fired.swap(true, Ordering::Relaxed) {
                None
            } else {
                Some(Interrupt::Halted)
            }
        };
        let verdict = run_scenario(
            scenario,
            RunControl {
                interrupt: Some(&halt),
                checkpoint: Some((&path, u64::MAX)),
                ..RunControl::default()
            },
        )
        .unwrap();
        assert_eq!(verdict, RunVerdict::Interrupted(Interrupt::Halted));
        let checkpoint = Checkpoint::load(&path).unwrap();
        let _ = std::fs::remove_file(path);
        checkpoint
    }

    #[test]
    fn cross_restores_between_usd_and_sampler_checkpoints_fail_loudly() {
        let usd = small();
        let voter = small().with_dynamic(Dynamic::Voter);
        let usd_ckpt = capture_halted(&usd, "usd.ckpt.json");
        let voter_ckpt = capture_halted(&voter, "voter.ckpt.json");
        // USD checkpoint into a sampler scenario: missing sampler stamp.
        let err = run_scenario(
            &voter,
            RunControl {
                resume: Some(&usd_ckpt),
                ..RunControl::default()
            },
        )
        .unwrap_err();
        assert!(
            err.contains("not captured from a sampling-dynamic run"),
            "diagnostic must name the mismatch: {err}"
        );
        // Sampler checkpoint into a USD scenario: rejected by the stamp.
        let err = run_scenario(
            &usd,
            RunControl {
                resume: Some(&voter_ckpt),
                ..RunControl::default()
            },
        )
        .unwrap_err();
        assert!(
            err.contains("captured from a sampling-dynamic run, not a USD run"),
            "diagnostic must name the mismatch: {err}"
        );
        // Sampler checkpoint into the wrong dynamic: rejected by name.
        let err = run_scenario(
            &small().with_dynamic(Dynamic::Median),
            RunControl {
                resume: Some(&voter_ckpt),
                ..RunControl::default()
            },
        )
        .unwrap_err();
        assert!(
            err.contains("captured from voter, not median"),
            "diagnostic must name both dynamics: {err}"
        );
    }

    #[test]
    fn resume_refuses_checkpoints_from_another_run() {
        let resume = |scenario: &ScenarioConfig, checkpoint: &Checkpoint| {
            run_scenario(
                scenario,
                RunControl {
                    resume: Some(checkpoint),
                    ..RunControl::default()
                },
            )
        };
        // One capture per resume path: single USD, replica ensemble and
        // single sampling dynamic, each resumed under a scenario of
        // another population (and, for one, another opinion count).
        let ensemble = ScenarioConfig::new(2_000, 3).with_seed(5).with_replicas(3);
        let voter = small().with_dynamic(Dynamic::Voter);
        for (captured, file, other) in [
            (
                small(),
                "usd.ckpt.json",
                ScenarioConfig::new(601, 3).with_seed(5),
            ),
            (
                small(),
                "usd-k.ckpt.json",
                ScenarioConfig::new(600, 4).with_seed(5),
            ),
            (
                ensemble,
                "ensemble.ckpt.json",
                ScenarioConfig::new(2_001, 3).with_seed(5).with_replicas(3),
            ),
            (
                voter,
                "voter.ckpt.json",
                ScenarioConfig::new(601, 3)
                    .with_seed(5)
                    .with_dynamic(Dynamic::Voter),
            ),
        ] {
            let checkpoint = capture_halted(&captured, file);
            let err = resume(&other, &checkpoint).unwrap_err();
            assert!(
                err.starts_with(
                    "cannot resume: checkpoint mismatch: the checkpoint was captured \
                     from a run with"
                ),
                "{file}: {err}"
            );
            assert!(
                err.contains(&format!(
                    "but the scenario says n={}, k={}",
                    other.population, other.opinions
                )),
                "{file}: the diagnostic must name both runs: {err}"
            );
            // The matching scenario still resumes.
            assert!(matches!(
                resume(&captured, &checkpoint),
                Ok(RunVerdict::Finished(_))
            ));
        }
        // An engine the scenario names must be the one the checkpoint holds.
        let exact = capture_halted(&small(), "exact.ckpt.json");
        let err = resume(&small().with_engine(EngineChoice::Batched), &exact).unwrap_err();
        assert!(
            err.starts_with(
                "cannot resume: checkpoint mismatch: the checkpoint holds exact engine state but \
                 the scenario says engine batched"
            ),
            "{err}"
        );
    }

    #[test]
    fn recorder_and_telemetry_hooks_observe_without_moving_the_run() {
        let scenario = small().with_engine(EngineChoice::Batched);
        let RunVerdict::Finished(reference) =
            run_scenario(&scenario, RunControl::default()).unwrap()
        else {
            panic!("reference run must finish");
        };
        let mut seen: Vec<u64> = Vec::new();
        let mut recorder = |interactions: u64, _: &Configuration| seen.push(interactions);
        let tel = Telemetry::enabled();
        let RunVerdict::Finished(observed) = run_scenario(
            &scenario,
            RunControl {
                recorder: Some(&mut recorder),
                telemetry: Some(tel.clone()),
                ..RunControl::default()
            },
        )
        .unwrap() else {
            panic!("observed run must finish");
        };
        let ScenarioOutcome::Single(result) = &observed else {
            panic!("a single run");
        };
        // The starting configuration once, then one record per event.
        assert_eq!(seen.first(), Some(&0));
        assert_eq!(seen.last(), Some(&result.interactions()));
        assert!(
            tel.chrome_trace_json().contains("usd.run"),
            "the handed-in registry receives the run's spans"
        );
        assert_eq!(result_json(&observed), result_json(&reference));
    }

    #[test]
    fn result_json_is_deterministic_and_parseable() {
        let RunVerdict::Finished(outcome) = run_scenario(&small(), RunControl::default()).unwrap()
        else {
            panic!("run must finish");
        };
        let a = result_json(&outcome);
        let b = result_json(&outcome);
        assert_eq!(a, b);
        let doc = crate::json::Json::parse(&a).unwrap();
        assert_eq!(
            doc.get("mode").and_then(crate::json::Json::as_str),
            Some("single")
        );
        assert!(doc.get("run").is_some());
    }

    #[test]
    fn ensemble_documents_do_not_depend_on_window_slicing_or_resume() {
        // One `run()` call, a one-window-at-a-time loop and a capture ->
        // restore -> finish leg must render the same canonical document.
        let scenario = ScenarioConfig::new(20_000, 2)
            .with_seed(4)
            .with_replicas(4)
            .with_bias(pp_workloads::BiasSpec::Multiplicative(4.0));
        let stop = StopCondition::consensus().or_max_interactions(scenario.interaction_budget());
        let doc = |outcome: EnsembleRunResult| result_json(&ScenarioOutcome::Ensemble(outcome));
        let RunVerdict::Finished(reference) =
            run_scenario(&scenario, RunControl::default()).unwrap()
        else {
            panic!("reference run must finish");
        };
        let reference = result_json(&reference);
        for threads in [1, 2] {
            let scenario = scenario.with_threads(threads);
            let seed = SimSeed::from_u64(scenario.seed);
            let (config, choice) = scenario.to_initial_config().build_ensemble(seed).unwrap();
            let fresh =
                || usd_core::UsdEnsemble::try_new(config.clone(), seed.child(1), choice).unwrap();
            let whole = fresh().run(stop);
            let mut windowed = fresh();
            let windowed = loop {
                if let Some(outcome) = windowed.run_windows(stop, 1) {
                    break outcome;
                }
            };
            let mut paused = fresh();
            assert!(paused.run_windows(stop, 2).is_none(), "must pause mid-run");
            let checkpoint = Checkpoint::from_json(&paused.capture().to_json()).unwrap();
            let resumed = usd_core::UsdEnsemble::restore(&checkpoint, choice)
                .unwrap()
                .run(stop);
            for (leg, outcome) in [
                ("run()", whole),
                ("run_windows(1)", windowed),
                ("resume", resumed),
            ] {
                assert_eq!(
                    doc(outcome),
                    reference,
                    "threads = {threads}: the {leg} document diverged"
                );
            }
        }
    }

    #[test]
    fn ensemble_scenarios_run_and_serialize() {
        let scenario = ScenarioConfig::new(400, 3).with_seed(9).with_replicas(3);
        let RunVerdict::Finished(outcome) = run_scenario(&scenario, RunControl::default()).unwrap()
        else {
            panic!("ensemble run must finish");
        };
        let ScenarioOutcome::Ensemble(ref ensemble) = outcome else {
            panic!("replicas > 1 must produce an ensemble outcome");
        };
        assert_eq!(ensemble.len(), 3);
        let doc = crate::json::Json::parse(&result_json(&outcome)).unwrap();
        assert_eq!(
            doc.get("replicas").and_then(crate::json::Json::as_u64),
            Some(3)
        );
        assert_eq!(
            doc.get("results")
                .and_then(crate::json::Json::as_array)
                .map(<[_]>::len),
            Some(3)
        );
    }
}
