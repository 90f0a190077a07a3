//! Checkpoint/restore round-trips are bit-exact across the engine stack.
//!
//! The contract under test (`pp_core::checkpoint`): a run restored from a
//! checkpoint captured at event *t* produces the **identical** trajectory
//! tail as the uninterrupted run — same events at the same interaction
//! counts, same final configuration, same winner — at every thread count,
//! after a full serialize → deserialize round trip through the JSON
//! document (including a trip through the filesystem for the simulator
//! paths, mirroring real crash recovery).
//!
//! Interrupt points are exercised both at fixed cadences and, via proptest,
//! at randomized cadences and seeds, because the bit-exactness argument
//! leans on a subtle invariant: captures land *between* `advance` calls of
//! a run chasing its final stop limit, where the batched engine's
//! geometric-skip overshoot is memoryless.

use k_opinion_usd::prelude::*;
use pp_core::ensemble::EnsembleChoice;
use pp_core::{Checkpoint, Configuration, EngineChoice, Recorder, RunResult, StopCondition};
use proptest::prelude::*;
use usd_core::UsdEnsemble;

const BUDGET: u64 = 100_000_000;

/// Records every event at or past `after` interactions — the trajectory
/// tail two runs must agree on.
struct Tail {
    after: u64,
    events: Vec<(u64, Vec<u64>, u64)>,
}

impl Tail {
    fn new(after: u64) -> Self {
        Tail {
            after,
            events: Vec::new(),
        }
    }

    /// The recorded events strictly after `at` (drops the initial echo a
    /// resumed run records at its own starting point).
    fn events_after(&self, at: u64) -> Vec<(u64, Vec<u64>, u64)> {
        self.events
            .iter()
            .filter(|(i, _, _)| *i > at)
            .cloned()
            .collect()
    }
}

impl Recorder for Tail {
    fn record(&mut self, interactions: u64, config: &Configuration) {
        if interactions >= self.after {
            self.events
                .push((interactions, config.supports().to_vec(), config.undecided()));
        }
    }
}

/// A unique scratch path for one test's checkpoint file.
fn scratch(name: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("usd_ckpt_eq_{name}_{}.json", std::process::id()));
    path
}

/// Drives `engine` to consensus four times over: uninterrupted (the
/// reference), with a periodic checkpoint sink (must not perturb), resumed
/// from the sunk checkpoint file (must replay the identical tail), and
/// interrupted deterministically at `interrupt` interactions via
/// `step()`/`capture()` — the original's continuation and the restored
/// copy's continuation must be event-for-event identical.
fn assert_simulator_roundtrip(
    name: &str,
    spec: &InitialConfig,
    engine: EngineChoice,
    seed: u64,
    cadence: u64,
    interrupt: u64,
) {
    let master = SimSeed::from_u64(seed);
    let config = spec.build(master).unwrap();
    let plan = spec.shard_plan();
    let stop = StopCondition::consensus().or_max_interactions(BUDGET);

    let mut reference =
        UsdSimulator::with_engine_plan(config.clone(), master.child(1), engine, plan);
    let mut reference_tail = Tail::new(0);
    let expected = reference.run_recorded(stop, &mut reference_tail);
    assert!(
        expected.reached_consensus(),
        "{name}: reference run must converge within the budget"
    );

    // Leg 2: the same run with a checkpoint sink attached. Captures are
    // pure reads — the trajectory must not move by a single event.
    let path = scratch(name);
    let mut sunk = UsdSimulator::with_engine_plan(config, master.child(1), engine, plan);
    sunk.set_checkpoint_sink(&path, cadence);
    let sunk_result = sunk.run_to_consensus(BUDGET);
    assert_eq!(
        sunk_result, expected,
        "{name}: attaching the checkpoint sink perturbed the run"
    );

    // Leg 3: restore the last sunk checkpoint from disk and resume toward
    // the same stop condition.  (The last periodic capture may coincide
    // with the final event when late-run event gaps exceed the cadence —
    // the tail comparison is then vacuous, which leg 4 compensates for.)
    let checkpoint = Checkpoint::load(&path).expect("the sink wrote a loadable checkpoint");
    let mut resumed = UsdSimulator::restore(&checkpoint, plan).expect("restore succeeds");
    let at = resumed.interactions();
    assert!(
        at > 0 && at <= expected.interactions(),
        "{name}: the interrupt point {at} should fall inside the run"
    );
    let mut resumed_tail = Tail::new(0);
    let resumed_result = resumed.run_recorded(stop, &mut resumed_tail);
    assert_eq!(
        resumed_result, expected,
        "{name}: resumed run diverged from the uninterrupted run"
    );
    assert_eq!(
        resumed_tail.events_after(at),
        reference_tail.events_after(at),
        "{name}: trajectory tail after interaction {at} is not bit-identical"
    );
    let _ = std::fs::remove_file(&path);

    // Leg 4: a deterministic interior interrupt.  Step an independent copy
    // exactly `interrupt` interactions in, capture between advances, and
    // round-trip through the JSON document.  From that shared mid-state,
    // the original and the restored copy chase the same stop condition —
    // their continuations must agree event for event.
    let mut original =
        UsdSimulator::with_engine_plan(spec.build(master).unwrap(), master.child(1), engine, plan);
    for _ in 0..interrupt {
        original.step();
    }
    let json = original
        .capture()
        .expect("interior capture succeeds")
        .to_json();
    let restored = Checkpoint::from_json(&json).expect("checkpoint JSON round-trips");
    let mut resumed = UsdSimulator::restore(&restored, plan).expect("restore succeeds");
    assert_eq!(resumed.interactions(), original.interactions());
    let mut original_tail = Tail::new(0);
    let mut resumed_tail = Tail::new(0);
    assert_eq!(
        original.run_recorded(stop, &mut original_tail),
        resumed.run_recorded(stop, &mut resumed_tail),
        "{name}: the restored copy's continuation diverged from the original's"
    );
    assert_eq!(
        original_tail.events, resumed_tail.events,
        "{name}: continuation tails after interaction {interrupt} differ"
    );
}

#[test]
fn exact_runs_resume_bit_identically() {
    let spec = InitialConfig::new(900, 3)
        .multiplicative_bias(1.5)
        .engine(EngineChoice::Exact);
    assert_simulator_roundtrip("exact", &spec, EngineChoice::Exact, 11, 4_000, 5_000);
}

#[test]
fn batched_runs_resume_bit_identically() {
    let spec = InitialConfig::new(4_000, 4)
        .multiplicative_bias(1.4)
        .engine(EngineChoice::Batched);
    assert_simulator_roundtrip("batched", &spec, EngineChoice::Batched, 7, 30_000, 45_000);
}

#[test]
fn sharded_runs_resume_bit_identically_at_two_thread_counts() {
    // The checkpointed/resumed legs run on the snapshot's own worker count;
    // the references run on one and three threads.  All four trajectories
    // must coincide — restore composes with the sharded engine's
    // thread-count independence.
    let base = InitialConfig::new(3_000, 3)
        .multiplicative_bias(1.6)
        .engine(EngineChoice::Sharded)
        .shards(4);
    let single = base.threads(1);
    let multi = base.threads(3);

    let master = SimSeed::from_u64(23);
    let mut reference = UsdSimulator::with_engine_plan(
        multi.build(master).unwrap(),
        master.child(1),
        EngineChoice::Sharded,
        multi.shard_plan(),
    );
    let multi_result = reference.run_to_consensus(BUDGET);

    assert_simulator_roundtrip(
        "sharded_t1",
        &single,
        EngineChoice::Sharded,
        23,
        50_000,
        60_000,
    );

    // The single-thread spec produced the run the roundtrip verified;
    // pin that it matches the three-thread reference too.
    let mut single_ref = UsdSimulator::with_engine_plan(
        single.build(master).unwrap(),
        master.child(1),
        EngineChoice::Sharded,
        single.shard_plan(),
    );
    assert_eq!(
        single_ref.run_to_consensus(BUDGET),
        multi_result,
        "sharded runs must be thread-count independent"
    );
}

#[test]
fn ensembles_resume_bit_identically_at_two_thread_counts() {
    let spec = InitialConfig::new(1_200, 3).multiplicative_bias(1.5);
    let master = SimSeed::from_u64(5);
    let config = spec.build(master).unwrap();
    let stop = StopCondition::consensus().or_max_interactions(BUDGET);

    let mut results: Vec<Vec<RunResult>> = Vec::new();
    for threads in [1usize, 3] {
        let choice = EnsembleChoice::new(5).threads(threads);
        let mut reference = UsdEnsemble::try_new(config.clone(), master.child(1), choice).unwrap();
        let expected = reference.run(stop);

        // Pause after two lockstep windows, round-trip the checkpoint
        // through its JSON document, and finish from the restored copy.
        let mut paused = UsdEnsemble::try_new(config.clone(), master.child(1), choice).unwrap();
        assert!(
            paused.run_windows(stop, 2).is_none(),
            "a two-window budget must pause mid-run at this scale"
        );
        let json = paused.capture().to_json();
        let restored = Checkpoint::from_json(&json).unwrap();
        let mut resumed = UsdEnsemble::restore(&restored, choice).unwrap();
        let outcome = resumed
            .run_windows(stop, u64::MAX)
            .expect("an unbounded window budget cannot pause");

        assert_eq!(
            outcome.results(),
            expected.results(),
            "resumed ensemble diverged at {threads} thread(s)"
        );
        results.push(expected.results().to_vec());
    }
    assert_eq!(
        results[0], results[1],
        "ensemble outcomes must be thread-count independent"
    );
}

#[test]
fn parent_format_ensemble_checkpoints_still_restore() {
    // Ensemble checkpoints used to carry `rounds` and `dormant_events`
    // counters after the replicas.  Neither key is written any more, and a
    // document that still has them must restore and finish exactly like
    // the uninterrupted run.
    let spec = InitialConfig::new(1_200, 3).multiplicative_bias(1.5);
    let master = SimSeed::from_u64(6);
    let config = spec.build(master).unwrap();
    let stop = StopCondition::consensus().or_max_interactions(BUDGET);
    let choice = EnsembleChoice::new(4);
    let expected = UsdEnsemble::try_new(config.clone(), master.child(1), choice)
        .unwrap()
        .run(stop);

    let mut paused = UsdEnsemble::try_new(config, master.child(1), choice).unwrap();
    assert!(paused.run_windows(stop, 2).is_none(), "must pause mid-run");
    let json = paused.capture().to_json();
    assert!(!json.contains("dormant_events"), "{json}");
    assert!(!json.contains("rounds"), "{json}");
    let replicas = json
        .strip_suffix("]}}")
        .expect("the replicas array ends the document");
    let parent_format = format!("{replicas}],\"rounds\":2,\"dormant_events\":1024}}}}");

    let restored = Checkpoint::from_json(&parent_format).unwrap();
    let outcome = UsdEnsemble::restore(&restored, choice)
        .unwrap()
        .run_windows(stop, u64::MAX)
        .expect("an unbounded window budget cannot pause");
    assert_eq!(outcome.results(), expected.results());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seeds and random interrupt cadences: the restored run's
    /// endpoint and trajectory tail match the uninterrupted run exactly, on
    /// both per-activation (exact) and skip-ahead (batched) backends.
    #[test]
    fn restored_runs_are_bit_identical_at_random_interrupts(
        seed in 0u64..10_000,
        cadence in 2_000u64..40_000,
        engine_idx in 0usize..2,
    ) {
        let engine = if engine_idx == 1 { EngineChoice::Batched } else { EngineChoice::Exact };
        let spec = InitialConfig::new(800, 3)
            .multiplicative_bias(1.6)
            .engine(engine);
        let master = SimSeed::from_u64(seed);
        let config = spec.build(master).unwrap();
        let plan = spec.shard_plan();
        let stop = StopCondition::consensus().or_max_interactions(BUDGET);

        let mut reference =
            UsdSimulator::with_engine_plan(config.clone(), master.child(1), engine, plan);
        let mut reference_tail = Tail::new(0);
        let expected = reference.run_recorded(stop, &mut reference_tail);
        prop_assume!(expected.reached_consensus());

        let path = scratch(&format!("prop_{seed}_{cadence}_{engine_idx}"));
        let mut sunk = UsdSimulator::with_engine_plan(config, master.child(1), engine, plan);
        sunk.set_checkpoint_sink(&path, cadence);
        prop_assert_eq!(&sunk.run_to_consensus(BUDGET), &expected);

        // Short runs may finish before the first cadence tick; the sink
        // then wrote nothing and there is no interrupt to test.
        let Ok(checkpoint) = Checkpoint::load(&path) else {
            return Ok(());
        };
        let mut resumed = UsdSimulator::restore(&checkpoint, plan).unwrap();
        let at = resumed.interactions();
        let mut resumed_tail = Tail::new(0);
        prop_assert_eq!(&resumed.run_recorded(stop, &mut resumed_tail), &expected);
        prop_assert_eq!(
            resumed_tail.events_after(at),
            reference_tail.events_after(at)
        );
        let _ = std::fs::remove_file(&path);
    }
}
