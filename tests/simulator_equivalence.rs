//! The count-based simulator and the agent-level simulator implement the same
//! stochastic process.  These tests compare the two engines statistically on
//! small populations.
//!
//! The boundary-equivalence cases pin the leg-driven drivers (see
//! `pp_core::engine`, "The event loop") to one-event stepping: a
//! `UsdSimulator` paused by `run_until` and one paused by the per-event hook
//! `run_interruptible(|i| i >= at)` must give the same result, recorded
//! events, pause points, progress events and checkpoint-journal bytes, and
//! so must a batched ensemble whose replicas run whole legs and one whose
//! replicas run one event per leg.

use k_opinion_usd::prelude::*;
use k_opinion_usd::service::protocol::progress_event;
use k_opinion_usd::service::{JobId, ProgressEvent};
use pp_analysis::Summary;
use pp_core::checkpoint::{EngineSnapshot, ReplicaCheckpoint};
use pp_core::engine::Advance;
use pp_core::ensemble::EnsembleRunResult;
use pp_core::parallel::Parallelism;
use pp_core::recorder::Snapshot;
use pp_core::run::MaintenanceStats;
use pp_core::{
    AgentSimulator, Checkpoint, CountSimulator, EnsembleEngine, FidelityConfig, MetricsSnapshot,
    PpError, RunOutcome, ShardPlan, StopCondition, Telemetry, TraceRecorder,
};
use std::path::{Path, PathBuf};

fn consensus_times<F: Fn(u64) -> u64>(run: F, trials: u64) -> Summary {
    Summary::from_u64((0..trials).map(run))
}

#[test]
fn count_and_agent_simulators_have_matching_time_distributions() {
    let n = 400u64;
    let k = 3usize;
    let trials = 30;
    let budget = 10_000_000;
    let config = InitialConfig::new(n, k)
        .multiplicative_bias(2.0)
        .build(SimSeed::from_u64(1))
        .unwrap();

    let count_times = consensus_times(
        |t| {
            let mut sim = CountSimulator::new(
                UndecidedStateDynamics::new(k),
                config.clone(),
                SimSeed::from_u64(10_000 + t),
            );
            sim.run(StopCondition::consensus().or_max_interactions(budget))
                .interactions()
        },
        trials,
    );
    let agent_times = consensus_times(
        |t| {
            let mut sim = AgentSimulator::new(
                UndecidedStateDynamics::new(k),
                &config,
                SimSeed::from_u64(20_000 + t),
            );
            sim.run(StopCondition::consensus().or_max_interactions(budget))
                .interactions()
        },
        trials,
    );

    // The two engines simulate the same Markov chain, so their mean
    // convergence times must agree up to sampling error.  Use a tolerant
    // threshold: 35% relative difference of means with 30 trials each.
    let rel_diff = (count_times.mean() - agent_times.mean()).abs() / agent_times.mean();
    assert!(
        rel_diff < 0.35,
        "count simulator mean {} vs agent simulator mean {} (relative difference {rel_diff:.2})",
        count_times.mean(),
        agent_times.mean()
    );
}

#[test]
fn winner_distributions_match_between_engines() {
    // From a configuration with a moderate bias, both engines should let the
    // plurality win at comparable (high) rates.
    let n = 300u64;
    let k = 2usize;
    let trials = 40;
    let budget = 5_000_000;
    let config = InitialConfig::new(n, k)
        .additive_bias(40)
        .build(SimSeed::from_u64(2))
        .unwrap();

    let mut count_wins = 0u32;
    let mut agent_wins = 0u32;
    for t in 0..trials {
        let mut cs = CountSimulator::new(
            UndecidedStateDynamics::new(k),
            config.clone(),
            SimSeed::from_u64(30_000 + t),
        );
        if cs
            .run(StopCondition::consensus().or_max_interactions(budget))
            .winner()
            .map(|w| w.index())
            == Some(0)
        {
            count_wins += 1;
        }
        let mut asim = AgentSimulator::new(
            UndecidedStateDynamics::new(k),
            &config,
            SimSeed::from_u64(40_000 + t),
        );
        if asim
            .run(StopCondition::consensus().or_max_interactions(budget))
            .winner()
            .map(|w| w.index())
            == Some(0)
        {
            agent_wins += 1;
        }
    }
    let diff = (f64::from(count_wins) - f64::from(agent_wins)).abs() / trials as f64;
    assert!(
        diff < 0.3,
        "win rates diverge: count {count_wins}/{trials} vs agent {agent_wins}/{trials}"
    );
    assert!(
        count_wins as u64 > trials / 2,
        "plurality should usually win ({count_wins}/{trials})"
    );
}

#[test]
fn productive_step_fractions_agree_with_the_analytic_probability() {
    // Check the count engine's sampling against the closed-form productive
    // probability of Appendix B on a frozen configuration: take single steps
    // from many freshly-seeded simulators.
    let config = pp_core::Configuration::from_counts(vec![150, 100, 50], 100).unwrap();
    let analytic = k_opinion_usd::usd::potential::productive_probability(&config);
    let trials = 3_000u32;
    let mut productive = 0u32;
    for t in 0..trials {
        let mut sim = CountSimulator::new(
            UndecidedStateDynamics::new(3),
            config.clone(),
            SimSeed::from_u64(50_000 + u64::from(t)),
        );
        if sim.step() {
            productive += 1;
        }
    }
    let measured = f64::from(productive) / f64::from(trials);
    assert!(
        (measured - analytic).abs() < 0.04,
        "measured productive fraction {measured} vs analytic {analytic}"
    );
}

/// How a segmented drive pauses: at interaction thresholds checked between
/// legs, or by the per-event hook `|i| i >= at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drive {
    Legs,
    OneEvent,
}

/// Everything a segmented drive lets a caller observe.
#[derive(Debug, PartialEq)]
struct Observed {
    result: RunResult,
    /// Every recorded `(interactions, configuration)`, the start included.
    events: Vec<Snapshot>,
    /// The interaction count at every pause.
    pauses: Vec<u64>,
    /// The progress line a job server would emit at every pause.
    progress: Vec<String>,
    /// The checkpoint journal's lines when the run finished.
    journal: Vec<String>,
}

/// A unique scratch path for one drive's checkpoint journal.
fn journal_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "usd_sim_eq_{name}_{}.ckpt.json",
        std::process::id()
    ))
}

fn journal_lines(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines().map(str::to_string).collect()
}

/// Drives `sim` to `stop` in pause segments of `every` interactions,
/// journaling a checkpoint every `cadence` interactions, and emits a
/// progress line (the runner's, with the registry and the engine counters
/// as metrics) at every pause.
fn segmented(
    mut sim: UsdSimulator,
    stop: StopCondition,
    every: u64,
    cadence: u64,
    drive: Drive,
    journal: &Path,
) -> Observed {
    let _ = std::fs::remove_file(journal);
    let tel = Telemetry::enabled();
    sim.set_telemetry(tel.clone());
    sim.set_checkpoint_sink(journal, cadence);
    let mut recorder = TraceRecorder::every(1);
    recorder.record(sim.interactions(), sim.configuration());
    let (mut pauses, mut progress) = (Vec::new(), Vec::new());
    let result = loop {
        let at = sim.interactions().saturating_add(every);
        let done = match drive {
            Drive::Legs => sim.run_until(stop, &mut recorder, at),
            Drive::OneEvent => sim.run_interruptible(stop, &mut recorder, &mut |i| i >= at),
        };
        if let Some(result) = done {
            break result;
        }
        let mut metrics = tel.snapshot();
        if let Some(engine) = sim.telemetry_snapshot() {
            metrics.absorb(&engine);
        }
        let event = ProgressEvent {
            interactions: Some(sim.interactions()),
            supports: Some(sim.configuration().supports().to_vec()),
            undecided: Some(sim.configuration().undecided()),
            metrics: Some(metrics),
        };
        progress.push(progress_event(JobId(1), pauses.len() as u64, &event));
        pauses.push(sim.interactions());
    };
    let observed = Observed {
        result,
        events: recorder.into_snapshots(),
        pauses,
        progress,
        journal: journal_lines(journal),
    };
    let _ = std::fs::remove_file(journal);
    observed
}

/// Drives both ways from `make()` and requires identical observations;
/// returns them.
fn assert_drives_agree(
    name: &str,
    make: &dyn Fn() -> UsdSimulator,
    stop: StopCondition,
    every: u64,
    cadence: u64,
) -> Observed {
    let one_event = segmented(
        make(),
        stop,
        every,
        cadence,
        Drive::OneEvent,
        &journal_path(&format!("{name}_one")),
    );
    let legs = segmented(
        make(),
        stop,
        every,
        cadence,
        Drive::Legs,
        &journal_path(&format!("{name}_legs")),
    );
    assert_eq!(legs, one_event, "{name}: leg-driven run diverged");
    legs
}

/// Drives one USD backend both ways, then resumes from every journal line
/// both ways: each resumed pair must agree, and each must finish on the
/// uninterrupted run's outcome, count, configuration and event tail.
fn assert_boundary_equivalence(name: &str, make: &dyn Fn() -> UsdSimulator, cadence: u64) {
    let stop = StopCondition::consensus().or_max_interactions(200_000_000);
    let every = cadence / 3 + 1;
    let reference = assert_drives_agree(name, make, stop, every, cadence);
    assert!(reference.result.reached_consensus(), "{name}");
    assert!(reference.pauses.len() >= 3, "{name}: the run must pause");
    assert!(
        reference.journal.len() >= 3 && reference.journal.len() < 64,
        "{name}: {} journal lines; the journal must keep every capture",
        reference.journal.len()
    );
    // Consensus arrives mid-leg: after the last pause, short of the next one.
    let last_pause = *reference.pauses.last().expect("the run paused");
    assert!(
        reference.result.interactions() < last_pause + every,
        "{name}"
    );

    for (line_no, line) in reference.journal.iter().enumerate() {
        let checkpoint = Checkpoint::from_json(line).expect("journal lines are checkpoints");
        let restore = || UsdSimulator::restore(&checkpoint, ShardPlan::default()).unwrap();
        let from = restore().interactions();
        let resumed = assert_drives_agree(
            &format!("{name}_resume{line_no}"),
            &restore,
            stop,
            every,
            cadence,
        );
        assert_eq!(
            resumed.result.outcome(),
            reference.result.outcome(),
            "{name}"
        );
        assert_eq!(
            resumed.result.interactions(),
            reference.result.interactions()
        );
        assert_eq!(
            resumed.result.final_configuration(),
            reference.result.final_configuration()
        );
        let tail: Vec<&Snapshot> = reference
            .events
            .iter()
            .filter(|s| s.interactions > from)
            .collect();
        let resumed_tail: Vec<&Snapshot> = resumed
            .events
            .iter()
            .filter(|s| s.interactions > from)
            .collect();
        assert_eq!(resumed_tail, tail, "{name}: resume from line {line_no}");
    }
}

fn usd_sim(engine: EngineChoice, counts: Vec<u64>, seed: u64) -> UsdSimulator {
    let config = Configuration::from_counts(counts, 0).unwrap();
    UsdSimulator::with_engine_fidelity(
        config,
        SimSeed::from_u64(seed),
        engine,
        ShardPlan::default(),
        FidelityConfig::default(),
    )
}

#[test]
fn threshold_drives_match_one_event_drives_on_the_batched_backend() {
    assert_boundary_equivalence(
        "batched_k8",
        &|| {
            usd_sim(
                EngineChoice::Batched,
                vec![400, 300, 250, 200, 150, 120, 100, 80],
                81,
            )
        },
        4_000,
    );
    assert_boundary_equivalence(
        "batched_k2",
        &|| usd_sim(EngineChoice::Batched, vec![1_200, 800], 82),
        3_000,
    );
}

#[test]
fn threshold_drives_match_one_event_drives_on_the_exact_backend() {
    assert_boundary_equivalence(
        "exact_k3",
        &|| usd_sim(EngineChoice::Exact, vec![300, 200, 100], 83),
        1_500,
    );
}

#[test]
fn threshold_drives_match_one_event_drives_on_the_hybrid_backend() {
    assert_boundary_equivalence(
        "hybrid_k3",
        &|| usd_sim(EngineChoice::Hybrid, vec![15_000, 3_000, 2_000], 84),
        40_000,
    );
}

#[test]
fn budgets_ending_on_an_event_stop_both_drives_at_the_same_point() {
    let make = || usd_sim(EngineChoice::Batched, vec![500, 300, 200], 85);
    let open = StopCondition::consensus().or_max_interactions(200_000_000);
    let reference = assert_drives_agree("budget_ref", &make, open, 700, 1_000);
    // An event's own interaction count as the budget, one below it and one
    // past it.
    let event_at = reference.events[reference.events.len() / 2].interactions;
    for budget in [event_at - 1, event_at, event_at + 1] {
        let stop = StopCondition::consensus().or_max_interactions(budget);
        let observed = assert_drives_agree(&format!("budget_{budget}"), &make, stop, 700, 1_000);
        assert_eq!(observed.result.outcome(), RunOutcome::BudgetExhausted);
        assert_eq!(observed.result.interactions(), budget);
        let last = observed.events.last().expect("events were recorded");
        let expected_last = reference
            .events
            .iter()
            .rev()
            .find(|s| s.interactions <= budget)
            .expect("the start is recorded");
        assert_eq!(last, expected_last, "budget {budget}");
    }
    // A never-pausing threshold runs the whole budget-less drive as legs.
    let whole = assert_drives_agree("whole", &make, open, u64::MAX, u64::MAX);
    assert!(whole.pauses.is_empty() && whole.journal.is_empty());
    assert_eq!(whole.result, reference.result);
}

/// A batched USD replica whose legs are one `advance` each (the provided
/// [`StepEngine::leg`]): the reference the leg-running replicas must match.
#[derive(Debug)]
struct OneEventReplica(BatchedEngine<UndecidedStateDynamics>);

impl StepEngine for OneEventReplica {
    fn configuration(&self) -> &Configuration {
        StepEngine::configuration(&self.0)
    }

    fn interactions(&self) -> u64 {
        StepEngine::interactions(&self.0)
    }

    fn engine_name(&self) -> &'static str {
        self.0.engine_name()
    }

    fn maintenance(&self) -> Option<MaintenanceStats> {
        self.0.maintenance()
    }

    fn telemetry(&self) -> Option<MetricsSnapshot> {
        self.0.telemetry()
    }

    fn advance(&mut self, limit: u64) -> Advance {
        self.0.advance(limit)
    }
}

impl ReplicaCheckpoint for OneEventReplica {
    type Context = UndecidedStateDynamics;

    fn capture_replica(&self) -> EngineSnapshot {
        self.0.capture_replica()
    }

    fn restore_replica(ctx: &Self::Context, snapshot: &EngineSnapshot) -> Result<Self, PpError> {
        BatchedEngine::restore_replica(ctx, snapshot).map(OneEventReplica)
    }
}

/// Runs `ensemble` to `stop` in pauses of `windows` scheduling windows;
/// returns the result, each replica's recorded events and the checkpoint
/// captured at every pause.
fn ensemble_drive<E>(
    mut ensemble: EnsembleEngine<E>,
    stop: StopCondition,
    windows: u64,
) -> (EnsembleRunResult, Vec<Vec<Snapshot>>, Vec<String>)
where
    E: StepEngine + ReplicaCheckpoint + Send,
{
    let mut recorders = vec![TraceRecorder::every(1); ensemble.len()];
    let mut captures = Vec::new();
    let result = loop {
        if let Some(result) = ensemble.run_windows_recorded(stop, &mut recorders, windows) {
            break result;
        }
        captures.push(Checkpoint::capture(&ensemble).to_json());
    };
    let events = recorders
        .into_iter()
        .map(TraceRecorder::into_snapshots)
        .collect();
    (result, events, captures)
}

#[test]
fn leg_running_ensembles_match_one_event_ensembles() {
    let config = Configuration::from_counts(vec![900, 700, 400], 0).unwrap();
    let usd = UndecidedStateDynamics::new(3);
    let master = SimSeed::from_u64(86);
    let replicas = |i: u64| BatchedEngine::new(usd, config.clone(), master.child(i));
    let legs = |ensemble: EnsembleEngine<BatchedEngine<UndecidedStateDynamics>>| {
        ensemble.with_parallelism(Parallelism::fixed(2))
    };
    let one = |ensemble: EnsembleEngine<OneEventReplica>| {
        ensemble.with_parallelism(Parallelism::fixed(2))
    };
    // One replica's budget ends mid-run; the others reach consensus.
    for stop in [
        StopCondition::consensus().or_max_interactions(200_000_000),
        StopCondition::consensus().or_max_interactions(40_000),
    ] {
        let reference = ensemble_drive(
            one(
                EnsembleEngine::try_new((0..6).map(|i| OneEventReplica(replicas(i))).collect())
                    .unwrap(),
            ),
            stop,
            7,
        );
        let observed = ensemble_drive(
            legs(EnsembleEngine::try_new((0..6).map(replicas).collect()).unwrap()),
            stop,
            7,
        );
        assert_eq!(observed.0.results(), reference.0.results());
        assert_eq!(observed.0.rounds(), reference.0.rounds());
        assert_eq!(observed.1, reference.1, "recorded events");
        assert_eq!(observed.2, reference.2, "pause captures");
        assert!(reference.2.len() >= 2, "the ensemble must pause");
        // Every capture resumes, both ways, to the same results.
        for capture in &reference.2 {
            let checkpoint = Checkpoint::from_json(capture).unwrap();
            let resumed = ensemble_drive(
                legs(EnsembleEngine::restore(&usd, &checkpoint).unwrap()),
                stop,
                7,
            );
            let resumed_one = ensemble_drive(
                one(EnsembleEngine::restore(&usd, &checkpoint).unwrap()),
                stop,
                7,
            );
            assert_eq!(resumed.0.results(), resumed_one.0.results());
            assert_eq!(resumed.0.rounds(), reference.0.rounds());
            assert_eq!(resumed.1, resumed_one.1);
            assert_eq!(resumed.2, resumed_one.2);
        }
    }
}
