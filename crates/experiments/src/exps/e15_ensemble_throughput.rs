//! E15 (extension) — throughput of the replica ensemble.
//!
//! Monte Carlo experiments average over independent replicas; the
//! `pp_core::ensemble` layer runs those replicas as one job — each
//! replica a task on the workspace's task pool, advancing through its own
//! skip-ahead path — while staying *bit-exact*: replica `i`
//! of the ensemble and standalone run `i` of the loop see the same seed and
//! produce the same trajectory.  This experiment prices it: for each
//! `(workload, n, R)` cell it runs the identical replica set through
//! [`usd_core::UsdEnsemble`] / `sampler_ensemble` and as a plain loop of
//! standalone batched runs, and reports the aggregate interactions/sec of
//! every arm, the ensemble-over-loop ratio, and the 95% CI half-width of
//! the hitting time (via the streaming accumulators in
//! `pp_analysis::streaming`).  Because the arms are bit-identical, their
//! total interaction counts are asserted equal — the ratio is pure
//! wall-clock.
//!
//! Each cell runs three arms over the identical replica set: the
//! `replica-loop` baseline (a serial loop of standalone engines), the
//! `ensemble` at `threads = 1` (the ensemble's own overhead in isolation),
//! and the `parallel-ensemble` at `threads = 2` (the task pool's
//! scaling).  The parallel arm never resolves to more workers than the
//! machine's available parallelism, so on a single-core box it measures
//! the single-threaded ensemble again; the `threads` column records what
//! it resolved to.  Every arm is timed as the median of
//! [`EnsembleThroughputExperiment::runs`] repetitions, each repeated up to
//! [`EnsembleThroughputExperiment::min_sample_seconds`]: the quick cells
//! are millisecond-scale, where a single shot swings by more than the trend
//! gate's tolerance.
//!
//! `engine_bench` stamps each cell into `BENCH_engines.json` as
//! `E15`/`E15/3-majority` entries (replica count in the `shards` column;
//! `engine` is `ensemble`, `parallel-ensemble` or `replica-loop`), and the
//! CI `bench_trend` gate guards the ensemble and parallel-ensemble rows'
//! speedup like the batched and sharded engines'.

use super::{at_least, Timed};
use crate::report::{fmt_f64, ExperimentReport};
use crate::trend::BenchEntry;
use crate::Scale;
use consensus_dynamics::{sampler_ensemble, SequentialSampler, ThreeMajority};
use pp_analysis::streaming::StreamingSummary;
use pp_core::engine::StepEngine;
use pp_core::ensemble::{EnsembleChoice, EnsembleRunResult};
use pp_core::parallel::Parallelism;
use pp_core::{Configuration, RunResult, SimSeed, StopCondition};
use pp_workloads::InitialConfig;
use std::time::Instant;
use usd_core::UsdEnsemble;

/// A workload the ensemble sweep measures (both in the two-opinion
/// deep-bias regime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnsembleWorkload {
    /// The USD at `k = 2`, multiplicative bias 4.
    Usd,
    /// 3-Majority at `k = 2`, multiplicative bias 4.
    ThreeMajority,
}

impl EnsembleWorkload {
    /// Stable identifier used in report rows.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            EnsembleWorkload::Usd => "usd",
            EnsembleWorkload::ThreeMajority => "3-majority",
        }
    }

    /// The stamped experiment key (`E15` for the USD, `E15/<dynamic>` for
    /// the sampling rows, mirroring E13's namespacing).
    #[must_use]
    pub fn experiment_key(self) -> String {
        match self {
            EnsembleWorkload::Usd => "E15".to_string(),
            EnsembleWorkload::ThreeMajority => "E15/3-majority".to_string(),
        }
    }

    const K: usize = 2;
    const BIAS: f64 = 4.0;
}

/// One measured arm of a cell: the per-replica results plus the wall time
/// and the worker threads the arm resolved to.
#[derive(Debug)]
struct ArmSample {
    results: Vec<RunResult>,
    seconds: f64,
    workers: u64,
}

impl ArmSample {
    fn total_interactions(&self) -> u128 {
        self.results
            .iter()
            .map(|r| u128::from(r.interactions()))
            .sum()
    }

    fn aggregate_ips(&self) -> f64 {
        self.total_interactions() as f64 / self.seconds
    }
}

impl Timed for ArmSample {
    fn seconds_mut(&mut self) -> &mut f64 {
        &mut self.seconds
    }
}

/// Parameters of the ensemble-throughput experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleThroughputExperiment {
    /// Measured cells as `(workload, population, replica count)`.
    pub cells: Vec<(EnsembleWorkload, u64, usize)>,
    /// Runs per cell and arm; the median run time is reported.
    pub runs: u64,
    /// The least measured time per run: a run is repeated (the identical
    /// replica set) until the repetitions add up to this many seconds, and
    /// its time is the mean per repetition.  `0.0` times each run once.
    pub min_sample_seconds: f64,
    /// Scale preset used for budgets.
    pub scale: Scale,
}

impl EnsembleThroughputExperiment {
    /// Standard parameters for the given scale: a replica-count sweep at the
    /// base population plus larger-`n` probes at a fixed replica count.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        let cells = match scale {
            Scale::Quick => vec![
                (EnsembleWorkload::Usd, 10_000, 4),
                (EnsembleWorkload::Usd, 10_000, 8),
                (EnsembleWorkload::ThreeMajority, 10_000, 4),
                (EnsembleWorkload::ThreeMajority, 10_000, 8),
            ],
            Scale::Full => vec![
                (EnsembleWorkload::Usd, 1_000_000, 8),
                (EnsembleWorkload::Usd, 1_000_000, 32),
                (EnsembleWorkload::Usd, 10_000_000, 8),
                (EnsembleWorkload::Usd, 100_000_000, 4),
                (EnsembleWorkload::ThreeMajority, 1_000_000, 8),
                (EnsembleWorkload::ThreeMajority, 1_000_000, 32),
                (EnsembleWorkload::ThreeMajority, 10_000_000, 8),
            ],
        };
        EnsembleThroughputExperiment {
            cells,
            // Every arm is the median of 5 runs: quick cells are
            // millisecond-scale, and the CI trend gate guards their speedup.
            runs: 5,
            min_sample_seconds: match scale {
                Scale::Quick => 0.1,
                Scale::Full => 0.0,
            },
            scale,
        }
    }

    /// The initial configuration of one cell.
    fn cell_config(workload: EnsembleWorkload, n: u64, seed: SimSeed) -> Configuration {
        let _ = workload;
        InitialConfig::new(n, EnsembleWorkload::K)
            .multiplicative_bias(EnsembleWorkload::BIAS)
            .build(seed.child(0))
            .expect("throughput workload is valid")
    }

    /// Times one ensemble arm of one cell (single-threaded when
    /// `parallelism` is [`Parallelism::single`], worker-parallel otherwise).
    fn timed_ensemble(
        &self,
        workload: EnsembleWorkload,
        config: &Configuration,
        replicas: usize,
        parallelism: Parallelism,
        seed: SimSeed,
        budget: u64,
    ) -> ArmSample {
        let choice = EnsembleChoice::new(replicas).with_parallelism(parallelism);
        let stop = StopCondition::consensus().or_max_interactions(budget);
        let (outcome, seconds): (EnsembleRunResult, f64) = match workload {
            EnsembleWorkload::Usd => {
                let mut ensemble = UsdEnsemble::try_new(config.clone(), seed.child(1), choice)
                    .expect("batched base is always supported");
                let start = Instant::now();
                let outcome = ensemble.run(stop);
                (outcome, start.elapsed().as_secs_f64().max(1e-9))
            }
            EnsembleWorkload::ThreeMajority => {
                let dynamics = ThreeMajority::new(EnsembleWorkload::K);
                let mut ensemble = sampler_ensemble(&dynamics, config, seed.child(1), choice)
                    .expect("3-majority provides skip-ahead hooks");
                let start = Instant::now();
                let outcome = ensemble.run(stop);
                (outcome, start.elapsed().as_secs_f64().max(1e-9))
            }
        };
        assert!(
            outcome.all_reached_goal(),
            "ensemble throughput run did not converge (workload = {}, n = {}, R = {replicas})",
            workload.name(),
            config.population()
        );
        ArmSample {
            workers: outcome.workers(),
            results: outcome.results().to_vec(),
            seconds,
        }
    }

    /// Times the baseline arm: the same replicas run one at a time as
    /// standalone batched engines with the identical per-replica seeds.
    fn timed_loop(
        &self,
        workload: EnsembleWorkload,
        config: &Configuration,
        replicas: usize,
        seed: SimSeed,
        budget: u64,
    ) -> ArmSample {
        let seeds = EnsembleChoice::new(replicas).seeds(seed.child(1));
        let stop = StopCondition::consensus().or_max_interactions(budget);
        let start = Instant::now();
        let results: Vec<RunResult> = match workload {
            EnsembleWorkload::Usd => seeds
                .into_iter()
                .map(|s| {
                    let protocol = usd_core::UndecidedStateDynamics::new(config.num_opinions());
                    pp_core::BatchedEngine::new(protocol, config.clone(), s).run_engine(stop)
                })
                .collect(),
            EnsembleWorkload::ThreeMajority => seeds
                .into_iter()
                .map(|s| {
                    let dynamics = ThreeMajority::new(EnsembleWorkload::K);
                    let mut sampler = SequentialSampler::new(dynamics, config.clone(), s);
                    sampler
                        .require_skip_ahead()
                        .expect("3-majority provides skip-ahead hooks");
                    sampler.run_engine(stop)
                })
                .collect(),
        };
        let seconds = start.elapsed().as_secs_f64().max(1e-9);
        assert!(
            results.iter().all(|r| r.outcome().is_goal()),
            "replica-loop throughput run did not converge (workload = {}, n = {})",
            workload.name(),
            config.population()
        );
        ArmSample {
            results,
            seconds,
            workers: 1,
        }
    }

    /// Runs the experiment.
    #[must_use]
    pub fn run(&self, seed: SimSeed) -> ExperimentReport {
        self.run_with_samples(seed).0
    }

    /// Runs the experiment and additionally returns the stamped
    /// [`BenchEntry`] records `engine_bench` persists for cross-PR trend
    /// checks.
    ///
    /// # Panics
    ///
    /// Panics if the two arms of a cell disagree on any replica's result —
    /// the bit-exactness contract of the ensemble layer.
    #[must_use]
    pub fn run_with_samples(&self, seed: SimSeed) -> (ExperimentReport, Vec<BenchEntry>) {
        let mut entries = Vec::new();
        let mut report = ExperimentReport::new(
            "E15",
            "replica-ensemble throughput: ensemble (single- and multi-thread) vs loop of standalone runs",
            "running R same-seed replicas as one ensemble costs about what running them one at a time costs, at bit-identical per-replica results; the parallel arm spreads the replicas over worker threads",
            vec![
                "workload".into(),
                "n".into(),
                "k".into(),
                "bias".into(),
                "replicas".into(),
                "mode".into(),
                "threads".into(),
                "interactions".into(),
                "seconds".into(),
                "agg interactions/sec".into(),
                "speedup vs loop".into(),
                "hit-time CI95 ±".into(),
            ],
        );

        for (ci, &(workload, n, replicas)) in self.cells.iter().enumerate() {
            let budget = self.scale.interaction_budget(n, EnsembleWorkload::K);
            let mut timed: [Vec<ArmSample>; 3] = Default::default();
            // One seed per cell, shared by every timing repetition and all
            // arms: all `runs` repeats simulate the *identical* replica
            // set, so the median selection compares bit-equal work and the
            // grouped rows report one set of results.
            let cell_seed = seed.child(0xE15_0000_0000 | (ci as u64) << 16);
            let config = Self::cell_config(workload, n, cell_seed);
            for _ in 0..self.runs {
                let floor = self.min_sample_seconds;
                let ensemble = |parallelism| {
                    at_least(floor, || {
                        self.timed_ensemble(
                            workload,
                            &config,
                            replicas,
                            parallelism,
                            cell_seed,
                            budget,
                        )
                    })
                };
                let arms = [
                    at_least(floor, || {
                        self.timed_loop(workload, &config, replicas, cell_seed, budget)
                    }),
                    ensemble(Parallelism::single()),
                    ensemble(Parallelism::fixed(2)),
                ];
                // The bit-exactness contract: identical replicas, identical
                // results across every arm and thread count, so the speedup
                // columns are pure wall-clock.
                for arm in &arms[1..] {
                    assert_eq!(
                        arms[0].results,
                        arm.results,
                        "an ensemble arm diverged from the replica loop \
                         (workload = {}, n = {n}, R = {replicas})",
                        workload.name()
                    );
                }
                for (samples, arm) in timed.iter_mut().zip(arms) {
                    samples.push(arm);
                }
            }
            let [looped, ensembled, parallel] = timed.map(median_arm);
            let loop_ips = looped.aggregate_ips();

            for (mode, arm) in [
                ("replica-loop", &looped),
                ("ensemble", &ensembled),
                ("parallel-ensemble", &parallel),
            ] {
                let speedup_value = arm.aggregate_ips() / loop_ips;
                let mut hit_times = StreamingSummary::new();
                for result in &arm.results {
                    hit_times.push(result.interactions() as f64);
                }
                let total = arm.total_interactions();
                entries.push(BenchEntry {
                    experiment: workload.experiment_key(),
                    engine: mode.to_string(),
                    // The replica count plays the row-multiplicity role the
                    // shard count plays for E14.
                    shards: replicas as u64,
                    n,
                    k: EnsembleWorkload::K as u64,
                    bias: EnsembleWorkload::BIAS,
                    interactions: u64::try_from(total).unwrap_or(u64::MAX),
                    seconds: arm.seconds,
                    interactions_per_sec: arm.aggregate_ips(),
                    speedup: speedup_value,
                    telemetry: Vec::new(),
                });
                report.push_row(vec![
                    workload.name().to_string(),
                    n.to_string(),
                    EnsembleWorkload::K.to_string(),
                    fmt_f64(EnsembleWorkload::BIAS),
                    replicas.to_string(),
                    mode.to_string(),
                    arm.workers.to_string(),
                    total.to_string(),
                    fmt_f64(arm.seconds),
                    fmt_f64(arm.aggregate_ips()),
                    fmt_f64(speedup_value),
                    fmt_f64(hit_times.ci_half_width(1.96)),
                ]);
            }
        }
        report.push_note(format!(
            "all three arms run the identical replica set (seeds master.child(i)); per-replica results are asserted bit-equal, so the speedup columns are pure wall-clock; each cell reports the median of {} runs",
            self.runs
        ));
        if self.min_sample_seconds > 0.0 {
            report.push_note(format!(
                "every run is repeated on its own seed until at least {} s are measured; the seconds column is the mean per repetition",
                self.min_sample_seconds
            ));
        }
        report.push_note(format!(
            "the parallel-ensemble arm asks for 2 threads, capped at the measuring box's available parallelism ({} here); on a single-core box it is the single-threaded ensemble again",
            Parallelism::auto().resolve(usize::MAX)
        ));
        report.push_note(
            "CI95 column: half-width of the normal-approximation confidence interval of the mean hitting time, from the streaming Welford accumulator — identical across arms by bit-exactness".to_string(),
        );
        (report, entries)
    }
}

/// The arm sample with the median wall time (the upper median for an even
/// count).  Every sample holds the same bit-equal results.
fn median_arm(mut samples: Vec<ArmSample>) -> ArmSample {
    assert!(!samples.is_empty(), "at least one run per arm");
    samples.sort_by(|a, b| a.seconds.total_cmp(&b.seconds));
    samples.swap_remove(samples.len() / 2)
}

impl super::Experiment for EnsembleThroughputExperiment {
    fn id(&self) -> &'static str {
        "E15"
    }
    fn run(&self, seed: SimSeed) -> ExperimentReport {
        EnsembleThroughputExperiment::run(self, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_groups_loop_and_ensemble_arms_per_cell() {
        let exp = EnsembleThroughputExperiment {
            cells: vec![
                (EnsembleWorkload::Usd, 2_000, 3),
                (EnsembleWorkload::ThreeMajority, 2_000, 3),
            ],
            runs: 1,
            min_sample_seconds: 0.0,
            scale: Scale::Quick,
        };
        let (report, entries) = exp.run_with_samples(SimSeed::from_u64(5));
        assert_eq!(report.rows.len(), 6);
        assert_eq!(entries.len(), 6);
        for arms in report.rows.chunks(3) {
            assert_eq!(arms[0][5], "replica-loop");
            assert_eq!(arms[1][5], "ensemble");
            assert_eq!(arms[2][5], "parallel-ensemble");
            // The single-threaded arms resolve to one worker; the parallel
            // arm resolves to at least one.
            assert_eq!(arms[0][6], "1");
            assert_eq!(arms[1][6], "1");
            assert!(arms[2][6].parse::<u64>().unwrap() >= 1);
            // Bit-exact arms advance the same interactions.
            assert_eq!(arms[0][7], arms[1][7]);
            assert_eq!(arms[0][7], arms[2][7]);
        }
        for (entry, row) in entries.iter().zip(&report.rows) {
            assert_eq!(entry.engine, row[5]);
            assert_eq!(entry.shards, 3);
            assert!(entry.interactions_per_sec > 0.0);
        }
        assert_eq!(entries[0].experiment, "E15");
        assert_eq!(entries[3].experiment, "E15/3-majority");
        assert_eq!(entries[0].speedup, 1.0);
        assert!(entries[1].speedup > 0.0);
        assert!(entries[2].speedup > 0.0);
    }
}
