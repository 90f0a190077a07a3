//! Bit-identity of instrumented runs: attaching a [`Telemetry`] handle must
//! never change a trajectory.
//!
//! The observability layer (`pp_core::telemetry`) promises that spans and
//! counters are pure observers — they consume no randomness and take no
//! branch the uninstrumented run would not take.  This suite pins that
//! promise the same way `ensemble_equivalence` pins the replica engine:
//!
//! * **USD engines** — exact, batched and sharded (the latter at several
//!   worker-thread counts) run with `Telemetry::enabled()` vs
//!   `Telemetry::disabled()` and are compared `==`, *including the full
//!   recorded `(interactions, configuration)` trajectory*, plus phased
//!   runs on the exact and batched engines.
//! * **All five sampling dynamics** — Voter, TwoChoices, 3-Majority,
//!   j-Majority and MedianRule through the replica ensemble, instrumented
//!   vs silent, across thread counts, compared `==` per replica.
//! * **A proptest** drives random populations, opinion counts, seeds,
//!   engines and thread counts against the uninstrumented reference.
//! * **Chrome-trace validity** — the `--trace` artifact parses as JSON,
//!   every complete event carries the Perfetto-required fields, span
//!   counts match the registry, and per-track timestamps nest properly
//!   (via `pp_core::telemetry::check_span_nesting`), with worker tracks
//!   present for multi-threaded runs.

use consensus_dynamics::{
    sampler_ensemble, JMajority, MedianRule, SamplingDynamics, ThreeMajority, TwoChoices, Voter,
};
use pp_core::ensemble::EnsembleChoice;
use pp_core::json::Json;
use pp_core::telemetry::{check_span_nesting, COORDINATOR_TID};
use pp_core::{
    Configuration, EngineChoice, RunResult, ShardPlan, SimSeed, StopCondition, Telemetry,
};
use proptest::prelude::*;
use usd_core::UsdSimulator;

const MASTER: u64 = 0x07E1_E0B5;

fn stop(budget: u64) -> StopCondition {
    StopCondition::consensus().or_max_interactions(budget)
}

/// Runs a USD simulator with or without telemetry attached, returning the
/// result, the full recorded trajectory, and the handle (disabled handles
/// simply report nothing).
fn usd_run(
    config: &Configuration,
    seed: u64,
    choice: EngineChoice,
    plan: ShardPlan,
    budget: u64,
    instrumented: bool,
) -> (RunResult, Vec<(u64, Configuration)>, Telemetry) {
    let tel = if instrumented {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let mut sim =
        UsdSimulator::with_engine_plan(config.clone(), SimSeed::from_u64(seed), choice, plan);
    sim.set_telemetry(tel.clone());
    let mut trace: Vec<(u64, Configuration)> = Vec::new();
    let mut recorder = |t: u64, c: &Configuration| trace.push((t, c.clone()));
    let result = sim.run_recorded(stop(budget), &mut recorder);
    (result, trace, tel)
}

#[test]
fn telemetry_is_invisible_to_every_usd_engine() {
    let config = Configuration::from_counts(vec![900, 400, 200], 0).unwrap();
    let cases: Vec<(EngineChoice, ShardPlan)> = vec![
        (EngineChoice::Exact, ShardPlan::default()),
        (EngineChoice::Batched, ShardPlan::default()),
        (EngineChoice::Sharded, ShardPlan::new(4).threads(1)),
        (EngineChoice::Sharded, ShardPlan::new(4).threads(2)),
        (EngineChoice::Sharded, ShardPlan::new(4).threads(3)),
    ];
    for (choice, plan) in cases {
        let (silent, silent_trace, _) = usd_run(&config, MASTER, choice, plan, 50_000_000, false);
        let (traced, traced_trace, tel) = usd_run(&config, MASTER, choice, plan, 50_000_000, true);
        assert_eq!(
            traced, silent,
            "{choice:?}: attaching telemetry changed the run result"
        );
        assert_eq!(
            traced_trace, silent_trace,
            "{choice:?}: attaching telemetry changed the recorded trajectory"
        );
        // The instrumented run actually observed something — equality above
        // must not hold because telemetry was silently dropped.  (Batched
        // counters live on the result snapshot; sharded epochs also hit the
        // live registry as spans.)
        if choice != EngineChoice::Exact {
            assert!(
                traced.telemetry().is_some_and(|snap| !snap.is_empty()),
                "{choice:?}: instrumented run carries no metrics snapshot"
            );
        }
        if choice == EngineChoice::Sharded {
            assert!(
                !tel.spans().is_empty(),
                "sharded run emitted no epoch spans"
            );
        }
    }
}

#[test]
fn telemetry_is_invisible_to_phased_runs() {
    let config = Configuration::from_counts(vec![2_000, 600, 400], 0).unwrap();
    for choice in [EngineChoice::Exact, EngineChoice::Batched] {
        let seed = SimSeed::from_u64(MASTER ^ 3);
        let mut silent = UsdSimulator::with_engine(config.clone(), seed, choice);
        let expected = silent.run_with_phases(1.0, 100_000_000);
        let tel = Telemetry::enabled();
        let mut sim = UsdSimulator::with_engine(config.clone(), seed, choice);
        sim.set_telemetry(tel.clone());
        let traced = sim.run_with_phases(1.0, 100_000_000);
        assert_eq!(traced.run, expected.run, "{choice}");
        assert_eq!(traced.phases, expected.phases, "{choice}");
        // The phase spans land on the coordinator track and nest.
        let spans = tel.spans();
        assert!(spans.iter().any(|s| s.name.starts_with("usd.phase.")));
        check_span_nesting(&spans).expect("phase spans must nest");
    }
}

/// Pins a sampling dynamic: ensemble runs with an enabled handle equal
/// silent runs, per replica, at every thread count.
fn pin_sampler_telemetry<D: SamplingDynamics + Clone + Send>(
    dynamics: D,
    config: Configuration,
    replicas: usize,
    budget: u64,
) {
    let master = SimSeed::from_u64(MASTER ^ 0x5A);
    for threads in [1usize, 3] {
        let choice = EnsembleChoice::new(replicas).threads(threads);
        let silent = sampler_ensemble(&dynamics, &config, master, choice)
            .expect("shipped dynamics support the ensemble")
            .run(stop(budget));
        let tel = Telemetry::enabled();
        let mut instrumented = sampler_ensemble(&dynamics, &config, master, choice).unwrap();
        instrumented.set_telemetry(tel.clone());
        let outcome = instrumented.run(stop(budget));
        assert_eq!(
            outcome,
            silent,
            "{} diverged under telemetry at threads={threads}",
            dynamics.name()
        );
        // Every window span the run emitted nests properly per track.
        check_span_nesting(&tel.spans()).expect("ensemble spans must nest");
        assert!(
            tel.snapshot()
                .counter("ensemble.recorded_events")
                .unwrap_or(0)
                > 0,
            "{} recorded no ensemble events",
            dynamics.name()
        );
    }
}

#[test]
fn telemetry_is_invisible_to_all_five_sampling_dynamics() {
    let biased = Configuration::from_counts(vec![600, 250], 0).unwrap();
    let with_undecided = Configuration::from_counts(vec![400, 200], 200).unwrap();
    pin_sampler_telemetry(Voter::new(2), with_undecided, 4, 5_000_000);
    pin_sampler_telemetry(TwoChoices::new(2), biased.clone(), 4, 5_000_000);
    pin_sampler_telemetry(ThreeMajority::new(2), biased, 4, 5_000_000);
    pin_sampler_telemetry(
        JMajority::new(3, 5),
        Configuration::from_counts(vec![450, 300, 150], 0).unwrap(),
        4,
        5_000_000,
    );
    pin_sampler_telemetry(
        MedianRule::new(3),
        Configuration::from_counts(vec![350, 300, 250], 0).unwrap(),
        4,
        5_000_000,
    );
}

#[test]
fn chrome_traces_parse_with_nested_per_track_spans() {
    // A multi-threaded ensemble run populates worker tracks beyond the
    // coordinator's.
    let config = Configuration::from_counts(vec![3_000, 1_000, 1_000], 0).unwrap();
    let tel = Telemetry::enabled();
    let mut ensemble = UsdSimulator::ensemble(
        config,
        SimSeed::from_u64(MASTER ^ 0xC4),
        EnsembleChoice::new(8).threads(3),
    )
    .unwrap();
    ensemble.set_telemetry(tel.clone());
    let outcome = ensemble.run(stop(50_000_000));
    assert!(outcome.all_reached_goal());

    let spans = tel.spans();
    assert!(!spans.is_empty(), "instrumented ensemble emitted no spans");
    check_span_nesting(&spans).expect("registry spans must nest per track");
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(
        tids.contains(&COORDINATOR_TID) && tids.len() >= 2,
        "expected coordinator + worker tracks, got tids {tids:?}"
    );

    // The exported chrome trace mirrors the registry: one "ph":"X" complete
    // event per span, each carrying the fields Perfetto requires, with
    // monotone non-negative timestamps.
    let doc = Json::parse(&tel.chrome_trace_json()).expect("chrome trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("trace has a traceEvents array");
    let complete: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert_eq!(
        complete.len(),
        spans.len(),
        "one complete event per recorded span"
    );
    for event in complete {
        assert!(event.get("name").and_then(Json::as_str).is_some());
        let num = |key: &str| event.get(key).and_then(Json::as_f64).unwrap();
        assert!(num("pid") > 0.0);
        assert!(num("tid") >= 0.0);
        assert!(num("ts") >= 0.0);
        assert!(num("dur") >= 0.0);
    }
    // Thread-name metadata labels each track for the trace viewer.
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("M")),
        "trace carries thread_name metadata events"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bit-identity as a property: random populations, opinion counts,
    /// seeds, engines and thread counts — the instrumented run equals the
    /// silent run, result and trajectory both.
    #[test]
    fn instrumented_runs_equal_silent_runs(
        lead in 200u64..1_200,
        trail in 50u64..400,
        extra in 0u64..300,
        engine_pick in 0usize..3,
        threads in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let config = Configuration::from_counts(vec![lead + trail, trail], extra).unwrap();
        let (choice, plan) = match engine_pick {
            0 => (EngineChoice::Batched, ShardPlan::default()),
            1 => (EngineChoice::Sharded, ShardPlan::new(2).threads(threads)),
            _ => (EngineChoice::Sharded, ShardPlan::new(4).threads(threads)),
        };
        let (silent, silent_trace, _) = usd_run(&config, seed, choice, plan, 20_000_000, false);
        let (traced, traced_trace, tel) = usd_run(&config, seed, choice, plan, 20_000_000, true);
        prop_assert_eq!(traced, silent);
        prop_assert_eq!(traced_trace, silent_trace);
        prop_assert!(check_span_nesting(&tel.spans()).is_ok());
    }
}
