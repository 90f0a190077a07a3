//! Bit-exactness and conservation of the lockstep replica ensemble.
//!
//! The ensemble layer (`pp_core::ensemble`) claims more than distributional
//! equivalence: replica `i` of an [`EnsembleEngine`] run must be
//! *bit-identical* to a standalone engine seeded `master.child(i)` — same
//! trajectory, same interaction counter, same final configuration, same
//! [`RunResult`] metadata — because each replica advances through its own
//! standalone `advance` on its own RNG stream.  This suite pins that claim:
//!
//! * **Per-replica bit-exactness** — for the USD (batched backend) and for
//!   all five sampling dynamics (Voter, TwoChoices, 3-Majority, j-Majority,
//!   MedianRule through [`SequentialSampler`]), ensemble results are
//!   compared `==` against standalone same-seed runs, including full
//!   recorded trajectories for the USD, and each replica's maintenance and
//!   telemetry counters against the standalone run's.
//! * **Thread-count invariance** — the parallel worker pool
//!   (`pp_core::parallel`) must be a pure wall-clock dial: `threads = 1`
//!   and `threads = T` runs are compared `==` per replica for the USD and
//!   all five dynamics, and a proptest drives random thread counts against
//!   the single-threaded reference.
//! * **Distributional sanity** — on top of exact equality, hitting times of
//!   ensemble replicas are chi-squared against freshly seeded standalone
//!   runs through `pp_analysis::conformance` (the same harness the other
//!   equivalence suites use).
//! * **Conservation** — a proptest drives random ensembles over random
//!   configurations and verifies population conservation, configuration
//!   consistency and budget accounting for every replica.
//! * **Counters and diagnostics** — `rejection_misses` stays `Some(0)` for
//!   every shipped dynamic under the ensemble backend, and unsupported
//!   nestings (exact/sharded/mean-field inside the ensemble) fail with
//!   their named `UnsupportedEngine` diagnostics.

use consensus_dynamics::{
    sampler_ensemble, JMajority, MedianRule, SamplingDynamics, SequentialSampler, ThreeMajority,
    TwoChoices, Voter,
};
use pp_analysis::conformance::Conformance;
use pp_core::engine::StepEngine;
use pp_core::ensemble::{EnsembleChoice, EnsembleEngine};
use pp_core::parallel::Parallelism;
use pp_core::{
    BatchedEngine, Configuration, EngineChoice, PpError, RunResult, SimSeed, StopCondition,
};
use proptest::prelude::*;
use usd_core::{UndecidedStateDynamics, UsdEnsemble};

const MASTER: u64 = 0xE25E_7B1E;

fn stop(budget: u64) -> StopCondition {
    StopCondition::consensus().or_max_interactions(budget)
}

/// Standalone reference run for sampling dynamics: the sequential sampler's
/// own skip-ahead driver with the ensemble's per-replica seed convention.
fn standalone_sampler<D: SamplingDynamics + Clone>(
    dynamics: &D,
    config: &Configuration,
    seed: SimSeed,
    budget: u64,
) -> RunResult {
    let mut sim = SequentialSampler::new(dynamics.clone(), config.clone(), seed);
    sim.run_engine(stop(budget))
}

/// Pins every ensemble replica of `dynamics` to its standalone same-seed
/// run, exactly (`Send` because the ensemble spreads replicas over worker
/// threads).
fn pin_sampler_ensemble<D: SamplingDynamics + Clone + Send>(
    dynamics: D,
    config: Configuration,
    replicas: usize,
    budget: u64,
) {
    let master = SimSeed::from_u64(MASTER);
    let choice = EnsembleChoice::new(replicas);
    let mut ensemble =
        sampler_ensemble(&dynamics, &config, master, choice).expect("shipped dynamics support it");
    let outcome = ensemble.run(stop(budget));
    assert_eq!(outcome.len(), replicas);
    for (i, seed) in choice.seeds(master).into_iter().enumerate() {
        let expected = standalone_sampler(&dynamics, &config, seed, budget);
        assert_eq!(
            outcome.replica(i),
            &expected,
            "{} replica {i} diverged from its standalone run",
            dynamics.name()
        );
    }
    // The shipped dynamics never fall back to rejection sampling.
    for result in outcome.results() {
        assert_eq!(
            result.rejection_misses(),
            Some(0),
            "{} rejection path fired under the ensemble backend",
            dynamics.name()
        );
    }
}

#[test]
fn all_five_dynamics_are_bit_exact_under_the_ensemble() {
    let biased = Configuration::from_counts(vec![700, 300], 0).unwrap();
    let with_undecided = Configuration::from_counts(vec![500, 250], 250).unwrap();
    pin_sampler_ensemble(Voter::new(2), with_undecided.clone(), 5, 5_000_000);
    pin_sampler_ensemble(TwoChoices::new(2), biased.clone(), 5, 5_000_000);
    pin_sampler_ensemble(ThreeMajority::new(2), biased.clone(), 5, 5_000_000);
    pin_sampler_ensemble(
        JMajority::new(3, 5),
        Configuration::from_counts(vec![500, 300, 200], 0).unwrap(),
        4,
        5_000_000,
    );
    pin_sampler_ensemble(
        MedianRule::new(3),
        Configuration::from_counts(vec![400, 350, 250], 0).unwrap(),
        4,
        5_000_000,
    );
}

#[test]
fn usd_ensemble_matches_standalone_batched_runs_and_trajectories() {
    let config = Configuration::from_counts(vec![1_200, 500, 300], 0).unwrap();
    let master = SimSeed::from_u64(MASTER ^ 1);
    let choice = EnsembleChoice::new(6);
    let mut ensemble = UsdEnsemble::try_new(config.clone(), master, choice).unwrap();
    let outcome = ensemble.run(stop(50_000_000));
    assert!(outcome.all_reached_goal());
    for (i, seed) in choice.seeds(master).into_iter().enumerate() {
        // Bit-exact final results…
        let mut standalone =
            BatchedEngine::new(UndecidedStateDynamics::new(3), config.clone(), seed);
        let expected = standalone.run_engine(stop(50_000_000));
        assert_eq!(outcome.replica(i), &expected, "replica {i} diverged");
        // …including the whole recorded trajectory: replaying the replica's
        // seed standalone visits the same (interactions, configuration)
        // sequence the ensemble replica walked to its final state.
        let mut replay = BatchedEngine::new(UndecidedStateDynamics::new(3), config.clone(), seed);
        let mut trace: Vec<(u64, Configuration)> = Vec::new();
        let mut recorder = |t: u64, c: &Configuration| trace.push((t, c.clone()));
        replay.run_engine_recorded(stop(50_000_000), &mut recorder);
        let (final_t, final_c) = trace.last().expect("trajectory is non-empty");
        assert_eq!(*final_t, outcome.replica(i).interactions());
        assert_eq!(final_c, outcome.replica(i).final_configuration());
        assert!(trace.windows(2).all(|w| w[0].0 < w[1].0));
    }
}

/// Pins the `threads = 1` vs `threads = T` bit-identity of a sampler
/// ensemble: the worker pool must be a pure wall-clock dial.
fn pin_sampler_threads<D: SamplingDynamics + Clone + Send>(
    dynamics: D,
    config: Configuration,
    replicas: usize,
    budget: u64,
) {
    let master = SimSeed::from_u64(MASTER ^ 7);
    let single = sampler_ensemble(
        &dynamics,
        &config,
        master,
        EnsembleChoice::new(replicas).threads(1),
    )
    .expect("shipped dynamics support the ensemble")
    .run(stop(budget));
    for threads in [2usize, 4] {
        let outcome = sampler_ensemble(
            &dynamics,
            &config,
            master,
            EnsembleChoice::new(replicas).threads(threads),
        )
        .unwrap()
        .run(stop(budget));
        assert_eq!(
            outcome.results(),
            single.results(),
            "{} diverged between threads=1 and threads={threads}",
            dynamics.name()
        );
    }
    // The single-threaded arm is itself pinned to standalone runs, so the
    // multi-threaded arms are transitively standalone-exact; spot-check
    // replica 0 anyway to keep the chain visible.
    let expected = standalone_sampler(&dynamics, &config, master.child(0), budget);
    assert_eq!(single.replica(0), &expected);
}

#[test]
fn all_five_dynamics_are_thread_count_invariant() {
    let biased = Configuration::from_counts(vec![600, 250], 0).unwrap();
    let with_undecided = Configuration::from_counts(vec![400, 200], 200).unwrap();
    pin_sampler_threads(Voter::new(2), with_undecided.clone(), 6, 5_000_000);
    pin_sampler_threads(TwoChoices::new(2), biased.clone(), 6, 5_000_000);
    pin_sampler_threads(ThreeMajority::new(2), biased, 6, 5_000_000);
    pin_sampler_threads(
        JMajority::new(3, 5),
        Configuration::from_counts(vec![450, 300, 150], 0).unwrap(),
        6,
        5_000_000,
    );
    pin_sampler_threads(
        MedianRule::new(3),
        Configuration::from_counts(vec![350, 300, 250], 0).unwrap(),
        6,
        5_000_000,
    );
}

#[test]
fn usd_ensemble_is_thread_count_invariant() {
    let config = Configuration::from_counts(vec![900, 400, 200], 0).unwrap();
    let master = SimSeed::from_u64(MASTER ^ 8);
    let single = UsdEnsemble::try_new(config.clone(), master, EnsembleChoice::new(8).threads(1))
        .unwrap()
        .run(stop(50_000_000));
    assert!(single.all_reached_goal());
    for threads in [2usize, 3, 8] {
        let outcome = UsdEnsemble::try_new(
            config.clone(),
            master,
            EnsembleChoice::new(8).threads(threads),
        )
        .unwrap()
        .run(stop(50_000_000));
        assert_eq!(
            outcome.results(),
            single.results(),
            "USD ensemble diverged between threads=1 and threads={threads}"
        );
    }
    // And against standalone batched runs, closing the triangle.
    for (i, seed) in EnsembleChoice::new(8).seeds(master).into_iter().enumerate() {
        let mut standalone =
            BatchedEngine::new(UndecidedStateDynamics::new(3), config.clone(), seed);
        assert_eq!(
            single.replica(i),
            &standalone.run_engine(stop(50_000_000)),
            "replica {i} diverged from its standalone run"
        );
    }
}

/// Pins every replica's `maintenance()` and telemetry counters — which
/// `RunResult` equality ignores — to the standalone same-seed run's.
fn assert_counters_match(outcome: &[RunResult], expected: &[RunResult], label: &str) {
    assert_eq!(outcome.len(), expected.len());
    for (i, (got, want)) in outcome.iter().zip(expected).enumerate() {
        assert!(
            want.maintenance().is_some(),
            "{label} reports no maintenance"
        );
        assert_eq!(
            got.maintenance(),
            want.maintenance(),
            "{label} replica {i} maintenance diverged"
        );
        assert_eq!(
            got.telemetry(),
            want.telemetry(),
            "{label} replica {i} telemetry diverged"
        );
    }
}

#[test]
fn replica_counters_match_standalone_runs() {
    let master = SimSeed::from_u64(MASTER ^ 2);
    let usd_config = Configuration::from_counts(vec![600, 250, 100], 50).unwrap();
    let usd_expected: Vec<RunResult> = EnsembleChoice::new(5)
        .seeds(master)
        .into_iter()
        .map(|seed| {
            BatchedEngine::new(UndecidedStateDynamics::new(3), usd_config.clone(), seed)
                .run_engine(stop(50_000_000))
        })
        .collect();
    let maj_config = Configuration::from_counts(vec![600, 250], 150).unwrap();
    let dynamics = ThreeMajority::new(2);
    let maj_expected: Vec<RunResult> = EnsembleChoice::new(5)
        .seeds(master)
        .into_iter()
        .map(|seed| standalone_sampler(&dynamics, &maj_config, seed, 5_000_000))
        .collect();
    for threads in [1usize, 3] {
        let choice = EnsembleChoice::new(5).threads(threads);
        let usd = UsdEnsemble::try_new(usd_config.clone(), master, choice)
            .unwrap()
            .run(stop(50_000_000));
        assert_eq!(usd.results(), &usd_expected[..]);
        assert_counters_match(usd.results(), &usd_expected, &format!("usd/{threads}t"));
        let maj = sampler_ensemble(&dynamics, &maj_config, master, choice)
            .unwrap()
            .run(stop(5_000_000));
        assert_eq!(maj.results(), &maj_expected[..]);
        assert_counters_match(
            maj.results(),
            &maj_expected,
            &format!("3-majority/{threads}t"),
        );
    }
}

#[test]
fn table_and_median_law_counters_match_standalone_runs() {
    // The j ≥ 4 integer tables and the MedianRule sums are per-run state:
    // replicas interleaved on shared worker threads must patch their own
    // laws, never rebuild them cold at each scheduling window.
    let master = SimSeed::from_u64(MASTER ^ 9);
    let maj_config = Configuration::from_counts(vec![450, 300, 150], 100).unwrap();
    let med_config = Configuration::from_counts(vec![350, 300, 250], 100).unwrap();
    let majority = JMajority::new(3, 5);
    let median = MedianRule::new(3);
    let expected = |run: &dyn Fn(SimSeed) -> RunResult| -> Vec<RunResult> {
        EnsembleChoice::new(4)
            .seeds(master)
            .into_iter()
            .map(run)
            .collect()
    };
    let maj_expected =
        expected(&|seed| standalone_sampler(&majority, &maj_config, seed, 5_000_000));
    let med_expected = expected(&|seed| standalone_sampler(&median, &med_config, seed, 5_000_000));
    for threads in [1usize, 3] {
        let choice = EnsembleChoice::new(4).threads(threads);
        let maj = sampler_ensemble(&majority, &maj_config, master, choice)
            .unwrap()
            .run(stop(5_000_000));
        assert_eq!(maj.results(), &maj_expected[..]);
        assert_counters_match(
            maj.results(),
            &maj_expected,
            &format!("j-majority/{threads}t"),
        );
        let med = sampler_ensemble(&median, &med_config, master, choice)
            .unwrap()
            .run(stop(5_000_000));
        assert_eq!(med.results(), &med_expected[..]);
        assert_counters_match(med.results(), &med_expected, &format!("median/{threads}t"));
    }
}

#[test]
fn ensemble_hitting_times_conform_to_fresh_standalone_runs() {
    // Beyond same-seed equality: ensemble replicas with seeds 0..runs and
    // *independently seeded* standalone runs must draw from one hitting-time
    // distribution (trajectory pinning via the conformance harness).
    let config = Configuration::from_counts(vec![160, 40], 0).unwrap();
    let conf = Conformance::default();
    let dynamics = ThreeMajority::new(2);
    let ensemble_times: Vec<f64> = {
        let mut ensemble = sampler_ensemble(
            &dynamics,
            &config,
            SimSeed::from_u64(0xA),
            EnsembleChoice::new(conf.runs as usize),
        )
        .unwrap();
        ensemble
            .run(stop(5_000_000))
            .results()
            .iter()
            .map(|r| r.interactions() as f64)
            .collect()
    };
    let mut i = 0usize;
    conf.pin_scalar(
        "3-majority hitting times: ensemble replicas vs fresh standalone seeds",
        |seed| {
            standalone_sampler(
                &dynamics,
                &config,
                SimSeed::from_u64(0xB00 + seed),
                5_000_000,
            )
            .interactions() as f64
        },
        |_seed| {
            let t = ensemble_times[i];
            i += 1;
            t
        },
    )
    .assert_consistent();
}

#[test]
fn unsupported_nestings_are_rejected_with_named_diagnostics() {
    let config = Configuration::from_counts(vec![60, 40], 0).unwrap();
    for (base, name) in [
        (EngineChoice::Exact, "exact-inside-ensemble"),
        (EngineChoice::Sharded, "sharded-inside-ensemble"),
        (EngineChoice::MeanField, "mean-field-inside-ensemble"),
    ] {
        let choice = EnsembleChoice::new(2).with_base(base);
        let err = UsdEnsemble::try_new(config.clone(), SimSeed::from_u64(1), choice).unwrap_err();
        assert_eq!(err, PpError::UnsupportedEngine { requested: name });
        let err =
            sampler_ensemble(&Voter::new(2), &config, SimSeed::from_u64(1), choice).unwrap_err();
        assert_eq!(err, PpError::UnsupportedEngine { requested: name });
    }
    // A dynamic without skip-ahead hooks is rejected at construction.
    #[derive(Debug, Clone)]
    struct NoHooks;
    impl SamplingDynamics for NoHooks {
        fn num_opinions(&self) -> usize {
            2
        }
        fn sample_size(&self) -> usize {
            1
        }
        fn update<R: rand::Rng + ?Sized>(
            &self,
            current: pp_core::AgentState,
            samples: &[pp_core::AgentState],
            _rng: &mut R,
        ) -> pp_core::AgentState {
            match samples[0] {
                pp_core::AgentState::Decided(_) => samples[0],
                pp_core::AgentState::Undecided => current,
            }
        }
    }
    let err = sampler_ensemble(
        &NoHooks,
        &config,
        SimSeed::from_u64(1),
        EnsembleChoice::new(2),
    )
    .unwrap_err();
    assert_eq!(
        err,
        PpError::UnsupportedEngine {
            requested: "ensemble"
        }
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation over the ensemble's *parallel* path: every replica
    /// keeps its population, stays internally consistent, and respects the
    /// budget exactly, for random configurations, replica counts, worker
    /// thread counts and budgets.
    #[test]
    fn ensemble_conserves_population_and_budget(
        counts in proptest::collection::vec(1u64..60, 2..5),
        undecided in 0u64..40,
        replicas in 1usize..6,
        threads in 1usize..5,
        budget in 1_000u64..40_000,
        seed in 0u64..1_000,
    ) {
        let population: u64 = counts.iter().sum::<u64>() + undecided;
        let config = Configuration::from_counts(counts, undecided).unwrap();
        let protocol = UndecidedStateDynamics::new(config.num_opinions());
        let members: Vec<_> = EnsembleChoice::new(replicas)
            .seeds(SimSeed::from_u64(seed))
            .into_iter()
            .map(|s| BatchedEngine::new(protocol, config.clone(), s))
            .collect();
        let mut ensemble = EnsembleEngine::try_new(members)
            .unwrap()
            .with_parallelism(Parallelism::fixed(threads));
        let outcome = ensemble.run(stop(budget));
        prop_assert_eq!(outcome.len(), replicas);
        for result in outcome.results() {
            prop_assert!(result.interactions() <= budget);
            prop_assert_eq!(result.final_configuration().population(), population);
            prop_assert!(result.final_configuration().is_consistent());
            if result.outcome() == pp_core::RunOutcome::BudgetExhausted {
                prop_assert_eq!(result.interactions(), budget);
            }
        }
    }

    /// Thread-count invariance as a property: random two-opinion majorities
    /// under random worker counts equal the single-threaded reference bit
    /// for bit.
    #[test]
    fn parallel_replicas_equal_single_threaded_runs(
        lead in 30u64..150,
        trail in 1u64..80,
        replicas in 2usize..7,
        threads in 2usize..6,
        seed in 0u64..300,
    ) {
        let config = Configuration::from_counts(vec![lead + trail, trail], 0).unwrap();
        let dynamics = ThreeMajority::new(2);
        let master = SimSeed::from_u64(seed);
        let single = sampler_ensemble(
            &dynamics,
            &config,
            master,
            EnsembleChoice::new(replicas).threads(1),
        )
        .unwrap()
        .run(stop(2_000_000));
        let parallel = sampler_ensemble(
            &dynamics,
            &config,
            master,
            EnsembleChoice::new(replicas).threads(threads),
        )
        .unwrap()
        .run(stop(2_000_000));
        prop_assert_eq!(parallel.results(), single.results());
    }

    /// Bit-exactness as a property: for random two-opinion majorities the
    /// ensemble replicas equal standalone same-seed runs.
    #[test]
    fn sampler_replicas_equal_standalone_runs(
        lead in 30u64..200,
        trail in 1u64..100,
        replicas in 1usize..5,
        seed in 0u64..500,
    ) {
        let config = Configuration::from_counts(vec![lead + trail, trail], 0).unwrap();
        let dynamics = ThreeMajority::new(2);
        let master = SimSeed::from_u64(seed);
        let choice = EnsembleChoice::new(replicas);
        let mut ensemble = sampler_ensemble(&dynamics, &config, master, choice).unwrap();
        let outcome = ensemble.run(stop(2_000_000));
        for (i, s) in choice.seeds(master).into_iter().enumerate() {
            let expected = standalone_sampler(&dynamics, &config, s, 2_000_000);
            prop_assert_eq!(outcome.replica(i), &expected);
        }
    }
}
