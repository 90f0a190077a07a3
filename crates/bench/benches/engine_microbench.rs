//! Micro-benchmarks of the simulation engines themselves: interactions per
//! second for the count-based engine (as a function of `k`), the batched
//! skip-ahead and sharded engines head-to-head against the exact engine on
//! the USD workload (the acceptance metric of the engine layer), a
//! shard-count sweep, the lockstep replica ensemble against a loop of
//! standalone runs (the acceptance metric of the ensemble layer), the
//! agent-level engine, and the gossip round engine.

use consensus_dynamics::{
    sampler_ensemble, set_incremental_laws, MedianRule, SamplingDynamics, SequentialSampler,
    ThreeMajority,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pp_core::engine::StepEngine;
use pp_core::ensemble::EnsembleChoice;
use pp_core::{
    AgentSimulator, BatchedEngine, Configuration, CountSimulator, EngineChoice, SimSeed,
    StopCondition,
};
use pp_workloads::InitialConfig;
use usd_bench::BENCH_SEED;
use usd_core::{UndecidedStateDynamics, UsdEnsemble, UsdSimulator};

fn count_simulator_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/count_simulator_step");
    group.sample_size(20);
    for &k in &[2usize, 8, 32, 128] {
        let n = 100_000u64;
        let config = Configuration::uniform(n, k).unwrap();
        group.throughput(Throughput::Elements(10_000));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter_batched(
                || {
                    CountSimulator::new(
                        UndecidedStateDynamics::new(k),
                        config.clone(),
                        SimSeed::from_u64(BENCH_SEED),
                    )
                },
                |mut sim| {
                    for _ in 0..10_000 {
                        sim.step();
                    }
                    sim
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// The engine-layer acceptance benchmark: full consensus runs of the USD on
/// the exact vs the batched backend.  Both backends induce the same
/// trajectory distribution, so the wall-clock ratio is the interactions/sec
/// speedup.  Two workload regimes are measured: the many-opinion mild-bias
/// regime (k = 8, bias 2; nulls are a minority, so batching wins modestly)
/// and the two-opinion deep-bias approximate-majority regime (k = 2,
/// bias 4; null-dominated, where the batched engine must sustain ≥ 5× at
/// n = 10⁶).
fn engine_consensus_run_comparison(c: &mut Criterion) {
    for (k, bias) in [(8usize, 2.0f64), (2, 4.0)] {
        let mut group = c.benchmark_group(format!("engine/usd_consensus_run_k{k}_bias{bias}"));
        group.sample_size(3);
        for &n in &[100_000u64, 1_000_000] {
            let config = InitialConfig::new(n, k)
                .multiplicative_bias(bias)
                .build(SimSeed::from_u64(BENCH_SEED))
                .expect("bench workload is valid");
            let budget = 2_000 * n * (k as u64);
            for engine in [
                EngineChoice::Exact,
                EngineChoice::Batched,
                EngineChoice::Sharded,
            ] {
                group.bench_with_input(
                    BenchmarkId::new(engine.name(), n),
                    &engine,
                    |b, &engine| {
                        b.iter_batched(
                            || {
                                UsdSimulator::with_engine(
                                    config.clone(),
                                    SimSeed::from_u64(BENCH_SEED),
                                    engine,
                                )
                            },
                            |mut sim| {
                                let result = sim.run_to_consensus(budget);
                                assert!(result.reached_consensus());
                                result.interactions()
                            },
                            criterion::BatchSize::SmallInput,
                        );
                    },
                );
            }
        }
        group.finish();
    }
}

/// Per-event cost of the batched engine in the null-dominated endgame, where
/// the skip-ahead advances thousands of interactions per event.
fn batched_engine_endgame(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/batched_endgame_block");
    group.sample_size(10);
    for &n in &[100_000u64, 1_000_000] {
        // Deep phase-5 configuration: 99% of agents already converged.
        let leader = n - n / 100;
        let rest = n / 100;
        let config = Configuration::from_counts(vec![leader, rest / 2], rest / 2).unwrap();
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_batched(
                || {
                    pp_core::BatchedEngine::new(
                        UndecidedStateDynamics::new(2),
                        config.clone(),
                        SimSeed::from_u64(BENCH_SEED),
                    )
                },
                |mut engine| {
                    // Advance one parallel-time unit (n interactions).
                    engine.run_engine(StopCondition::after_interactions(n));
                    engine
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn agent_simulator_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/agent_simulator_step");
    group.sample_size(20);
    for &n in &[1_000u64, 10_000, 100_000] {
        let k = 8;
        let config = Configuration::uniform(n, k).unwrap();
        group.throughput(Throughput::Elements(10_000));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter_batched(
                || {
                    AgentSimulator::new(
                        UndecidedStateDynamics::new(k),
                        &config,
                        SimSeed::from_u64(BENCH_SEED),
                    )
                },
                |mut sim| {
                    for _ in 0..10_000 {
                        sim.step();
                    }
                    sim
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Shard-count sweep of the sharded engine on the deep-bias two-opinion
/// workload (the E14 regime at bench scale): full consensus runs per shard
/// count, against the single-threaded batched reference measured in
/// `engine_consensus_run_comparison`.
fn sharded_engine_shard_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/sharded_shard_count");
    group.sample_size(3);
    let n = 1_000_000u64;
    let config = InitialConfig::new(n, 2)
        .multiplicative_bias(4.0)
        .build(SimSeed::from_u64(BENCH_SEED))
        .expect("bench workload is valid");
    let budget = 4_000 * n;
    for &shards in &[2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                b.iter_batched(
                    || {
                        UsdSimulator::with_engine_plan(
                            config.clone(),
                            SimSeed::from_u64(BENCH_SEED),
                            EngineChoice::Sharded,
                            pp_core::ShardPlan::new(shards),
                        )
                    },
                    |mut sim| {
                        let result = sim.run_to_consensus(budget);
                        assert!(result.reached_consensus());
                        result.interactions()
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

/// Exact-vs-batched comparison for one multi-sample dynamic: full consensus
/// runs through the sequential sampler, per-activation stepping against the
/// geometric skip-ahead with the closed-form conditional sampler.
fn sampling_dynamic_comparison<D: SamplingDynamics + Clone>(
    c: &mut Criterion,
    label: &str,
    dynamics: D,
    bias: f64,
) {
    let n = 1_000_000u64;
    let k = dynamics.num_opinions();
    let config = InitialConfig::new(n, k)
        .multiplicative_bias(bias)
        .build(SimSeed::from_u64(BENCH_SEED))
        .expect("bench workload is valid");
    let budget = 4_000 * n * (k as u64);
    let mut group = c.benchmark_group(format!("engine/sampling_skip_ahead_{label}"));
    group.sample_size(3);
    for batched in [false, true] {
        let mode = if batched { "batched" } else { "exact" };
        group.bench_with_input(BenchmarkId::new(mode, n), &batched, |b, &batched| {
            b.iter_batched(
                || {
                    SequentialSampler::new(
                        dynamics.clone(),
                        config.clone(),
                        SimSeed::from_u64(BENCH_SEED),
                    )
                },
                |mut sim| {
                    let stop = StopCondition::consensus().or_max_interactions(budget);
                    let result = if batched {
                        sim.require_skip_ahead()
                            .expect("shipped dynamics provide skip-ahead hooks");
                        sim.run_engine(stop)
                    } else {
                        sim.run(stop)
                    };
                    assert!(result.reached_consensus());
                    result.interactions()
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// The closed-form-conditionals acceptance benchmark: j-Majority and
/// MedianRule consensus runs at n = 10⁶, per-activation vs skip-ahead, in
/// the null-dominated regimes the conditional samplers target (two-opinion
/// deep bias for 3-Majority, ordered central plurality for the MedianRule).
fn sampling_dynamics_skip_ahead(c: &mut Criterion) {
    sampling_dynamic_comparison(c, "3majority", ThreeMajority::new(2), 4.0);
    sampling_dynamic_comparison(c, "median", MedianRule::new(5), 2.0);
}

/// The ensemble-layer acceptance benchmark: R = 32 same-seed replicas at
/// n = 10⁶ run through the `EnsembleEngine` single-threaded (`ensemble`),
/// through the worker-parallel pool at the machine's available
/// parallelism (`ensemble-mt`), and as a plain loop of standalone batched
/// runs (`replica-loop`).  The replicas are bit-identical across all three
/// modes, so the wall-clock ratios are the ensemble's scheduling overhead
/// and the worker pool's speedup (on a single-core box `ensemble-mt`
/// resolves to one worker and measures pure scheduling overhead), for
/// 3-Majority and for the USD.
fn ensemble_lockstep_comparison(c: &mut Criterion) {
    let n = 1_000_000u64;
    let replicas = 32usize;
    let config = InitialConfig::new(n, 2)
        .multiplicative_bias(4.0)
        .build(SimSeed::from_u64(BENCH_SEED))
        .expect("bench workload is valid");
    let budget = 4_000 * n;
    let stop = StopCondition::consensus().or_max_interactions(budget);
    let choice = EnsembleChoice::new(replicas).threads(1);
    let mt_choice = EnsembleChoice::new(replicas);
    let seeds = choice.seeds(SimSeed::from_u64(BENCH_SEED));

    let mut group = c.benchmark_group("engine/ensemble_consensus_3majority");
    group.sample_size(3);
    group.bench_with_input(
        BenchmarkId::new("replica-loop", replicas),
        &replicas,
        |b, _| {
            b.iter_batched(
                || (config.clone(), seeds.clone(), stop),
                |(config, seeds, stop)| {
                    let mut total = 0u64;
                    for seed in seeds {
                        let mut sim =
                            SequentialSampler::new(ThreeMajority::new(2), config.clone(), seed);
                        let result = sim.run_engine(stop);
                        assert!(result.reached_consensus());
                        total += result.interactions();
                    }
                    total
                },
                criterion::BatchSize::SmallInput,
            );
        },
    );
    for (id, ensemble_choice) in [("ensemble", choice), ("ensemble-mt", mt_choice)] {
        group.bench_with_input(BenchmarkId::new(id, replicas), &replicas, |b, _| {
            b.iter_batched(
                || {
                    sampler_ensemble(
                        &ThreeMajority::new(2),
                        &config,
                        SimSeed::from_u64(BENCH_SEED),
                        ensemble_choice,
                    )
                    .expect("3-majority provides skip-ahead hooks")
                },
                |mut ensemble| {
                    let outcome = ensemble.run(stop);
                    assert!(outcome.all_reached_goal());
                    outcome.total_interactions()
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();

    let mut group = c.benchmark_group("engine/ensemble_consensus_usd");
    group.sample_size(3);
    group.bench_with_input(
        BenchmarkId::new("replica-loop", replicas),
        &replicas,
        |b, _| {
            b.iter_batched(
                || (config.clone(), seeds.clone(), stop),
                |(config, seeds, stop)| {
                    let mut total = 0u64;
                    for seed in seeds {
                        let mut engine = BatchedEngine::new(
                            UndecidedStateDynamics::new(2),
                            config.clone(),
                            seed,
                        );
                        let result = engine.run_engine(stop);
                        assert!(result.reached_consensus());
                        total += result.interactions();
                    }
                    total
                },
                criterion::BatchSize::SmallInput,
            );
        },
    );
    for (id, ensemble_choice) in [("ensemble", choice), ("ensemble-mt", mt_choice)] {
        group.bench_with_input(BenchmarkId::new(id, replicas), &replicas, |b, _| {
            b.iter_batched(
                || {
                    UsdEnsemble::try_new(
                        config.clone(),
                        SimSeed::from_u64(BENCH_SEED),
                        ensemble_choice,
                    )
                    .expect("batched base is always supported")
                },
                |mut ensemble| {
                    let outcome = ensemble.run(stop);
                    assert!(outcome.all_reached_goal());
                    outcome.total_interactions()
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// The incremental-maintenance acceptance benchmark (E13): full consensus
/// runs with the `O(delta)` patch paths on vs off, everything else equal.
///
/// * `incremental_rows_usd` — the batched USD engine at n = 10⁶, k = 8,
///   where the per-event work without patching is the `O(k)` row refill plus
///   the alias/CDF rebuild over it.  Patching must never lose ground
///   (acceptance: ≥ 0.95× the rebuild arm) and typically wins modestly,
///   because the row table is small but the rebuild runs on *every* event.
/// * `incremental_laws_3majority` — the sequential sampler at n = 10⁶,
///   k = 8, where the per-event work without the incremental path is the
///   fresh `O(k²·j³)` integer adoption DP.  For `j = 3` the incremental
///   path evaluates the `O(k)` closed-form law (the same integers), so the
///   win scales with k (acceptance: ≥ 1.5× the rebuild arm at k = 8).
///
/// Both arms of each pair are bit-identical trajectories (pinned by
/// `tests/incremental_equivalence.rs`), so the wall-clock ratio is purely
/// the maintenance saving.
fn incremental_maintenance_comparison(c: &mut Criterion) {
    let n = 1_000_000u64;
    let k = 8usize;
    let config = InitialConfig::new(n, k)
        .multiplicative_bias(2.0)
        .build(SimSeed::from_u64(BENCH_SEED))
        .expect("bench workload is valid");
    let budget = 4_000 * n * (k as u64);
    let stop = StopCondition::consensus().or_max_interactions(budget);

    let mut group = c.benchmark_group("engine/incremental_rows_usd");
    group.sample_size(3);
    for patched in [true, false] {
        let mode = if patched { "patched" } else { "rebuild" };
        group.bench_with_input(BenchmarkId::new(mode, n), &patched, |b, &patched| {
            b.iter_batched(
                || {
                    let mut engine = BatchedEngine::new(
                        UndecidedStateDynamics::new(k),
                        config.clone(),
                        SimSeed::from_u64(BENCH_SEED),
                    );
                    engine.set_incremental_rows(patched);
                    engine
                },
                |mut engine| {
                    let result = engine.run_engine(stop);
                    assert!(result.reached_consensus());
                    result.interactions()
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();

    let mut group = c.benchmark_group("engine/incremental_laws_3majority");
    group.sample_size(3);
    for patched in [true, false] {
        let mode = if patched { "patched" } else { "rebuild" };
        group.bench_with_input(BenchmarkId::new(mode, n), &patched, |b, &patched| {
            b.iter_batched(
                || {
                    SequentialSampler::new(
                        ThreeMajority::new(k),
                        config.clone(),
                        SimSeed::from_u64(BENCH_SEED),
                    )
                },
                |mut sim| {
                    // The switch is thread-local and criterion runs the
                    // routine on the bench thread, so set it per run and
                    // restore the default afterwards.
                    set_incremental_laws(patched);
                    let result = sim.run_engine(stop);
                    set_incremental_laws(true);
                    assert!(result.reached_consensus());
                    result.interactions()
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// The observability acceptance benchmark: the batched deep-bias consensus
/// run at n = 10⁶ with the telemetry registry detached (`telemetry-off`)
/// vs attached and live (`telemetry-on`).  Telemetry never consumes RNG,
/// so both arms advance the identical trajectory and the wall-clock ratio
/// is purely the instrumentation overhead (acceptance: telemetry-on within
/// 5% of telemetry-off; the quick-scale arm of this pair is gated by
/// `bench_trend` through the `telemetry-on` entries E13 stamps).
fn telemetry_overhead_comparison(c: &mut Criterion) {
    let n = 1_000_000u64;
    let config = InitialConfig::new(n, 2)
        .multiplicative_bias(4.0)
        .build(SimSeed::from_u64(BENCH_SEED))
        .expect("bench workload is valid");
    let budget = 4_000 * n;
    let mut group = c.benchmark_group("engine/telemetry_overhead");
    group.sample_size(3);
    for enabled in [false, true] {
        let mode = if enabled {
            "telemetry-on"
        } else {
            "telemetry-off"
        };
        group.bench_with_input(BenchmarkId::new(mode, n), &enabled, |b, &enabled| {
            b.iter_batched(
                || {
                    let mut sim = UsdSimulator::with_engine(
                        config.clone(),
                        SimSeed::from_u64(BENCH_SEED),
                        EngineChoice::Batched,
                    );
                    sim.set_telemetry(if enabled {
                        pp_core::Telemetry::enabled()
                    } else {
                        pp_core::Telemetry::disabled()
                    });
                    sim
                },
                |mut sim| {
                    let result = sim.run_to_consensus(budget);
                    assert!(result.reached_consensus());
                    result.interactions()
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn gossip_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/gossip_round");
    group.sample_size(20);
    for &n in &[1_000u64, 10_000] {
        let config = Configuration::uniform(n, 8).unwrap();
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter_batched(
                || gossip_model::UsdGossip::new(&config, SimSeed::from_u64(BENCH_SEED)),
                |mut sim| {
                    sim.round();
                    sim
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    count_simulator_steps,
    engine_consensus_run_comparison,
    batched_engine_endgame,
    sharded_engine_shard_counts,
    sampling_dynamics_skip_ahead,
    incremental_maintenance_comparison,
    telemetry_overhead_comparison,
    ensemble_lockstep_comparison,
    agent_simulator_steps,
    gossip_rounds
);
criterion_main!(benches);
