//! E16 (extension) — job throughput of the `pp-service` layer.
//!
//! The service crate promises that wrapping a run in a scenario document,
//! queueing it behind a job scheduler and streaming its lifecycle adds
//! bookkeeping, not physics: every job's result is **bit-identical** to the
//! standalone `run_scenario` call, whatever the queue order or pool width.
//! This experiment measures what the wrapper costs and what the pool buys:
//! for each `(n, jobs)` cell it runs the identical scenario batch three
//! ways — a plain serial loop over [`pp_service::run_scenario`] (the
//! baseline), an in-process [`pp_service::Server`] with a single worker
//! (pure queue/lifecycle overhead), and a server with an automatically
//! sized worker pool (the multiplexing win) — and reports jobs/sec, the
//! aggregate interactions/sec and the speedup of each arm over the loop.
//! The per-job result strings are asserted byte-equal across all three
//! arms, so the speedup columns are pure wall-clock.
//!
//! `engine_bench` stamps each cell into `BENCH_engines.json` as `E16`
//! entries (job count in the `shards` column; `engine` is `scenario-loop`,
//! `service` or `service-pool`), and the CI `bench_trend` gate guards the
//! two service arms' throughput like the batched and sharded engines'.

use crate::report::{fmt_f64, ExperimentReport};
use crate::trend::BenchEntry;
use crate::Scale;
use pp_core::parallel::Parallelism;
use pp_core::SimSeed;
use pp_service::runner::{result_json, run_scenario, RunControl, RunVerdict, ScenarioOutcome};
use pp_service::scenario::ScenarioConfig;
use pp_service::server::{Server, ServerConfig};
use pp_workloads::BiasSpec;
use std::time::Instant;

/// One measured arm of a cell: the per-job canonical result strings plus
/// the wall time and the worker count the arm resolved to.
#[derive(Debug)]
struct ArmSample {
    results: Vec<String>,
    seconds: f64,
    workers: u64,
}

/// Parameters of the service-throughput experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceThroughputExperiment {
    /// Measured cells as `(population, job count)`.
    pub cells: Vec<(u64, usize)>,
    /// Runs per cell and arm; the fastest run is reported.
    pub runs: u64,
    /// Scale preset used for the sweep.
    pub scale: Scale,
}

impl ServiceThroughputExperiment {
    /// Opinions per scenario (k = 3: the smallest genuinely multi-opinion
    /// USD, so jobs are short enough to measure queueing, not simulation).
    const K: usize = 3;
    /// Multiplicative plurality bias — deep-bias regime, fast consensus.
    const BIAS: f64 = 4.0;

    /// Standard parameters for the given scale: a job-count sweep at the
    /// base population plus a larger-`n` probe.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        let cells = match scale {
            Scale::Quick => vec![(4_000, 8), (4_000, 16)],
            Scale::Full => vec![(100_000, 16), (100_000, 64), (1_000_000, 16)],
        };
        ServiceThroughputExperiment {
            cells,
            // Quick cells are millisecond-scale; best-of-3 stabilizes the
            // speedup the CI trend gate guards.
            runs: match scale {
                Scale::Quick => 3,
                Scale::Full => 1,
            },
            scale,
        }
    }

    /// The identical job batch every arm of a cell runs.
    fn cell_scenarios(n: u64, jobs: usize, cell_seed: SimSeed) -> Vec<ScenarioConfig> {
        (0..jobs)
            .map(|j| {
                let mut scenario =
                    ScenarioConfig::new(n, Self::K).with_seed(cell_seed.child(j as u64).value());
                scenario.bias = BiasSpec::Multiplicative(Self::BIAS);
                scenario
            })
            .collect()
    }

    /// Times the baseline arm: the batch run one scenario at a time through
    /// the bare runner, no queue, no server.  Also returns the aggregate
    /// interaction count the bit-equal service arms share.
    fn timed_loop(scenarios: &[ScenarioConfig]) -> (ArmSample, u128) {
        let start = Instant::now();
        let outcomes: Vec<ScenarioOutcome> = scenarios
            .iter()
            .map(|s| {
                let RunVerdict::Finished(outcome) =
                    run_scenario(s, RunControl::default()).expect("throughput scenario is valid")
                else {
                    unreachable!("a default RunControl cannot be interrupted");
                };
                outcome
            })
            .collect();
        let seconds = start.elapsed().as_secs_f64().max(1e-9);
        let interactions = outcomes
            .iter()
            .map(|o| match o {
                ScenarioOutcome::Single(r) => u128::from(r.interactions()),
                ScenarioOutcome::Ensemble(e) => e.total_interactions(),
            })
            .sum();
        let results = outcomes.iter().map(result_json).collect();
        (
            ArmSample {
                results,
                seconds,
                workers: 1,
            },
            interactions,
        )
    }

    /// Times one server arm: submit the whole batch, then wait for every
    /// job.  `workers = None` resolves the pool automatically.
    fn timed_service(scenarios: &[ScenarioConfig], workers: Option<usize>) -> ArmSample {
        let server = Server::open(ServerConfig {
            workers,
            ..ServerConfig::default()
        })
        .expect("in-memory server always opens");
        let resolved = workers
            .unwrap_or_else(|| Parallelism::auto().resolve(usize::MAX))
            .max(1) as u64;
        let start = Instant::now();
        let ids: Vec<_> = scenarios
            .iter()
            .map(|s| server.submit(*s, 0).expect("throughput scenario is valid"))
            .collect();
        let results = ids
            .into_iter()
            .map(|id| {
                let status = server.wait(id).expect("job exists");
                status.result.unwrap_or_else(|| {
                    panic!("job {id} ended {} ({:?})", status.state, status.error)
                })
            })
            .collect();
        let seconds = start.elapsed().as_secs_f64().max(1e-9);
        server.shutdown();
        ArmSample {
            results,
            seconds,
            workers: resolved,
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
    /// Panics if any service arm's per-job result differs from the serial
    /// loop's — the service determinism contract.
    #[must_use]
    pub fn run_with_samples(&self, seed: SimSeed) -> (ExperimentReport, Vec<BenchEntry>) {
        let mut entries = Vec::new();
        let mut report = ExperimentReport::new(
            "E16",
            "service job throughput: scheduler + worker pool vs a serial loop of standalone runs",
            "queueing scenario jobs behind the pp-service scheduler multiplexes them across a worker pool at bit-identical per-job results; the single-worker arm prices the queue/lifecycle overhead, the pool arm the multiplexing win",
            vec![
                "n".into(),
                "k".into(),
                "bias".into(),
                "jobs".into(),
                "mode".into(),
                "workers".into(),
                "interactions".into(),
                "seconds".into(),
                "jobs/sec".into(),
                "agg interactions/sec".into(),
                "speedup vs loop".into(),
            ],
        );

        for (ci, &(n, jobs)) in self.cells.iter().enumerate() {
            let cell_seed = seed.child(0xE16_0000_0000 | (ci as u64) << 16);
            let scenarios = Self::cell_scenarios(n, jobs, cell_seed);
            let mut best: [Option<ArmSample>; 3] = [None, None, None];
            let mut interactions: u128 = 0;
            for _ in 0..self.runs {
                let (looped, total) = Self::timed_loop(&scenarios);
                interactions = total;
                let arms = [
                    looped,
                    Self::timed_service(&scenarios, Some(1)),
                    Self::timed_service(&scenarios, None),
                ];
                // The determinism contract: every arm runs the identical
                // batch to byte-identical result documents, so the speedup
                // columns are pure wall-clock.
                for arm in &arms[1..] {
                    assert_eq!(
                        arms[0].results, arm.results,
                        "a service arm diverged from the serial loop (n = {n}, jobs = {jobs})"
                    );
                }
                for (slot, arm) in best.iter_mut().zip(arms) {
                    if slot.as_ref().is_none_or(|b| arm.seconds < b.seconds) {
                        *slot = Some(arm);
                    }
                }
            }
            let arms = best.map(|b| b.expect("at least one run"));
            let loop_seconds = arms[0].seconds;

            for (mode, arm) in ["scenario-loop", "service", "service-pool"]
                .iter()
                .zip(&arms)
            {
                let speedup_value = loop_seconds / arm.seconds;
                let ips = interactions as f64 / arm.seconds;
                entries.push(BenchEntry {
                    experiment: "E16".to_string(),
                    engine: (*mode).to_string(),
                    // The job count plays the row-multiplicity role the
                    // replica count plays for E15.
                    shards: jobs as u64,
                    n,
                    k: Self::K as u64,
                    bias: Self::BIAS,
                    interactions: u64::try_from(interactions).unwrap_or(u64::MAX),
                    seconds: arm.seconds,
                    interactions_per_sec: ips,
                    speedup: speedup_value,
                    telemetry: Vec::new(),
                });
                report.push_row(vec![
                    n.to_string(),
                    Self::K.to_string(),
                    fmt_f64(Self::BIAS),
                    jobs.to_string(),
                    (*mode).to_string(),
                    arm.workers.to_string(),
                    interactions.to_string(),
                    fmt_f64(arm.seconds),
                    fmt_f64(jobs as f64 / arm.seconds),
                    fmt_f64(ips),
                    fmt_f64(speedup_value),
                ]);
            }
        }
        report.push_note(format!(
            "all three arms run the identical scenario batch (job seeds cell.child(j)); per-job result documents are asserted byte-equal, so the speedup columns are pure wall-clock; each cell reports the fastest of {} runs",
            self.runs
        ));
        report.push_note(format!(
            "the service-pool arm resolves its worker count automatically (available parallelism here: {}); on a single-core box it degenerates to the single-worker service arm, so its speedup column is only meaningful on multi-core hardware",
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        ));
        report.push_note(
            "the single-worker service arm prices everything the service layer adds over the bare runner — scenario validation, queue locking, lifecycle events and result serialization — which is why the trend gate guards it: a scheduling regression shows up here before it is masked by pool parallelism".to_string(),
        );
        (report, entries)
    }
}

impl super::Experiment for ServiceThroughputExperiment {
    fn id(&self) -> &'static str {
        "E16"
    }
    fn run(&self, seed: SimSeed) -> ExperimentReport {
        ServiceThroughputExperiment::run(self, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_groups_loop_and_service_arms_per_cell() {
        let exp = ServiceThroughputExperiment {
            cells: vec![(1_000, 4)],
            runs: 1,
            scale: Scale::Quick,
        };
        let (report, entries) = exp.run_with_samples(SimSeed::from_u64(5));
        assert_eq!(report.rows.len(), 3);
        assert_eq!(entries.len(), 3);
        let arms = &report.rows;
        assert_eq!(arms[0][4], "scenario-loop");
        assert_eq!(arms[1][4], "service");
        assert_eq!(arms[2][4], "service-pool");
        // The loop and single-worker arms report one worker; the pool arm
        // resolves to at least one.
        assert_eq!(arms[0][5], "1");
        assert_eq!(arms[1][5], "1");
        assert!(arms[2][5].parse::<u64>().unwrap() >= 1);
        // Bit-equal arms share one aggregate interaction count.
        assert_eq!(arms[0][6], arms[1][6]);
        assert_eq!(arms[0][6], arms[2][6]);
        for (entry, row) in entries.iter().zip(&report.rows) {
            assert_eq!(entry.experiment, "E16");
            assert_eq!(entry.engine, row[4]);
            assert_eq!(entry.shards, 4);
            assert_eq!(entry.k, 3);
            assert!(entry.interactions_per_sec > 0.0);
        }
        assert_eq!(entries[0].speedup, 1.0);
        assert!(entries[1].speedup > 0.0);
        assert!(entries[2].speedup > 0.0);
    }
}
