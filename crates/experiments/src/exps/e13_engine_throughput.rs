//! E13 (extension) — throughput of the step-engine backends.
//!
//! The engine layer promises that [`pp_core::BatchedEngine`]'s geometric
//! skip-ahead makes large-`n` USD runs dramatically cheaper than the exact
//! per-interaction loop while inducing the same trajectory distribution.
//! This experiment measures it: for each population size it runs the same
//! biased USD workload to consensus on the exact and the batched backend and
//! reports wall-clock time, interactions advanced per second, and the
//! batched-over-exact speedup.  Since the multi-sample dynamics gained
//! closed-form conditional samplers, the sweep also covers the baseline
//! sampling dynamics (3-Majority, MedianRule) through the sequential
//! sampler's per-activation vs skip-ahead modes — pinned to zero rejection
//! misses.  The `engine_bench` binary wraps this experiment and records the
//! report as `BENCH_engines.json` (sampling-dynamics cells are stamped as
//! `E13/<dynamic>` so their batched rows are regression-gated alongside the
//! USD's), establishing the performance trajectory PR over PR.

use crate::report::{fmt_f64, ExperimentReport};
use crate::trend::BenchEntry;
use crate::Scale;
use consensus_dynamics::{
    set_incremental_laws, MedianRule, SamplingDynamics, SequentialSampler, ThreeMajority,
};
use pp_core::engine::StepEngine;
use pp_core::{BatchedEngine, Configuration, EngineChoice, SimSeed, StopCondition, Telemetry};
use pp_workloads::InitialConfig;
use std::time::Instant;
use usd_core::{UndecidedStateDynamics, UsdSimulator};

/// One timed telemetry-arm sample: interactions, seconds, and the flat
/// counter/gauge payload stamped into the bench entry.
type TelemetrySample = (u64, f64, Vec<(String, f64)>);

/// A baseline sampling dynamic swept per-activation vs skip-ahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingWorkload {
    /// 3-Majority in the two-opinion deep-bias regime (null-dominated, the
    /// regime the conditional sampler was built for).
    ThreeMajority,
    /// MedianRule over ordered opinions from a multiplicative-bias start.
    MedianRule,
}

impl SamplingWorkload {
    /// Stable identifier used in report rows and stamped entry keys.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            SamplingWorkload::ThreeMajority => "3-majority",
            SamplingWorkload::MedianRule => "median-rule",
        }
    }
}

/// An incremental-maintenance cell, swept with the `O(delta)` patch path on
/// (`incremental`) vs off (`rebuild`, the per-event from-scratch reference).
/// Both arms are bit-identical trajectories (pinned by
/// `tests/incremental_equivalence.rs`), so the speedup column is purely the
/// maintenance saving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceWorkload {
    /// Batched USD engine: the per-event productive-row refill and weight
    /// resummation vs the `(from, to)` delta patch.
    UsdRows,
    /// 3-Majority through the sequential sampler: the per-event `O(k²·j³)`
    /// integer adoption DP rebuild vs the `O(k)` closed-form law (for
    /// `j ≤ 3` the incremental path evaluates the closed form instead of
    /// patching the DP tables; both are the same integers).
    MajorityLaws,
}

impl MaintenanceWorkload {
    /// Stable identifier used in report rows and stamped entry keys.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            MaintenanceWorkload::UsdRows => "usd-rows",
            MaintenanceWorkload::MajorityLaws => "3-majority-laws",
        }
    }
}

/// Parameters of the engine-throughput experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineThroughputExperiment {
    /// Population sizes to sweep.
    pub populations: Vec<u64>,
    /// USD workloads to sweep as `(k, multiplicative bias)` — the null
    /// fraction (and with it the batched engine's edge) grows as `k` drops
    /// and the bias deepens, so the sweep spans both a many-opinion
    /// mild-bias regime and the paper's two-opinion (approximate-majority)
    /// deep-bias regime.
    pub workloads: Vec<(usize, f64)>,
    /// Runs per (population, engine) cell; the run with the median
    /// interactions/sec is reported.
    pub runs: u64,
    /// Scale preset used for budgets.
    pub scale: Scale,
    /// Baseline sampling dynamics swept per-activation vs skip-ahead, as
    /// `(dynamic, k, multiplicative bias)`.
    pub sampling_workloads: Vec<(SamplingWorkload, usize, f64)>,
    /// Population sizes for the sampling-dynamics sweep (per-activation
    /// stepping bounds the affordable `n`, so it is capped lower than the
    /// USD sweep at full scale).
    pub sampling_populations: Vec<u64>,
    /// Incremental-maintenance cells swept rebuild vs patched, as
    /// `(workload, k, multiplicative bias)`.  The many-opinion mild-bias
    /// regime maximises per-event maintenance churn (large row tables /
    /// adoption DPs, frequent productive events), which is what the
    /// `O(delta)` layer targets.
    pub maintenance_workloads: Vec<(MaintenanceWorkload, usize, f64)>,
    /// Population sizes for the maintenance sweep.
    pub maintenance_populations: Vec<u64>,
    /// Population sizes for the telemetry-overhead sweep: the same batched
    /// deep-bias consensus run with the metrics registry detached
    /// (`telemetry-off`, the reference) vs attached and live
    /// (`telemetry-on`).  Both arms share the seed — telemetry never
    /// consumes RNG, so the trajectories are bit-identical and the speedup
    /// column is purely the instrumentation overhead.
    pub telemetry_populations: Vec<u64>,
}

impl EngineThroughputExperiment {
    /// Standard parameters for the given scale.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        EngineThroughputExperiment {
            populations: match scale {
                Scale::Quick => vec![10_000, 50_000],
                Scale::Full => vec![100_000, 1_000_000, 10_000_000],
            },
            workloads: vec![(8, 2.0), (2, 4.0)],
            // Quick cells are millisecond-scale: the median of 5 steadies
            // the speedup the CI trend check gates on.
            runs: match scale {
                Scale::Quick => 5,
                Scale::Full => 3,
            },
            scale,
            sampling_workloads: vec![
                (SamplingWorkload::ThreeMajority, 2, 4.0),
                (SamplingWorkload::MedianRule, 5, 2.0),
            ],
            sampling_populations: match scale {
                Scale::Quick => vec![10_000, 50_000],
                Scale::Full => vec![100_000, 1_000_000],
            },
            maintenance_workloads: vec![
                (MaintenanceWorkload::UsdRows, 8, 2.0),
                (MaintenanceWorkload::MajorityLaws, 8, 2.0),
            ],
            maintenance_populations: match scale {
                Scale::Quick => vec![10_000, 50_000],
                Scale::Full => vec![100_000, 1_000_000],
            },
            telemetry_populations: match scale {
                Scale::Quick => vec![10_000, 50_000],
                // The 5%-overhead budget is stated at n = 10⁶.
                Scale::Full => vec![100_000, 1_000_000],
            },
        }
    }

    /// One timed consensus run; returns (interactions, seconds).
    fn timed_run(
        &self,
        n: u64,
        opinions: usize,
        bias_factor: f64,
        engine: EngineChoice,
        seed: SimSeed,
    ) -> (u64, f64) {
        let config = InitialConfig::new(n, opinions)
            .multiplicative_bias(bias_factor)
            .engine(engine)
            .build(seed.child(0))
            .expect("throughput workload is valid");
        let budget = self.scale.interaction_budget(n, opinions);
        let mut sim = UsdSimulator::with_engine(config, seed.child(1), engine);
        let start = Instant::now();
        let result = sim.run_to_consensus(budget);
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        // A truncated run must never masquerade as a throughput sample: the
        // speedup column compares like-for-like consensus runs only.
        assert!(
            result.reached_consensus(),
            "throughput run did not converge (n = {n}, k = {opinions}, bias = {bias_factor}, \
             engine = {engine}): budget {budget} too small"
        );
        (result.interactions(), elapsed)
    }

    /// One timed consensus run of a sampling dynamic through the sequential
    /// sampler; `batched` selects skip-ahead vs per-activation stepping.
    fn timed_sampling_run(
        &self,
        workload: SamplingWorkload,
        n: u64,
        opinions: usize,
        bias_factor: f64,
        batched: bool,
        seed: SimSeed,
    ) -> (u64, f64) {
        let config = InitialConfig::new(n, opinions)
            .multiplicative_bias(bias_factor)
            .build(seed.child(0))
            .expect("throughput workload is valid");
        let budget = self.scale.interaction_budget(n, opinions);
        match workload {
            SamplingWorkload::ThreeMajority => {
                time_sampler(ThreeMajority::new(opinions), config, seed, batched, budget)
            }
            SamplingWorkload::MedianRule => {
                time_sampler(MedianRule::new(opinions), config, seed, batched, budget)
            }
        }
    }

    /// One timed consensus run of an incremental-maintenance cell with the
    /// `O(delta)` patch path on or off; returns (interactions, seconds).
    fn timed_maintenance_run(
        &self,
        workload: MaintenanceWorkload,
        n: u64,
        opinions: usize,
        bias_factor: f64,
        patched: bool,
        seed: SimSeed,
    ) -> (u64, f64) {
        let config = InitialConfig::new(n, opinions)
            .multiplicative_bias(bias_factor)
            .build(seed.child(0))
            .expect("throughput workload is valid");
        let budget = self.scale.interaction_budget(n, opinions);
        let stop = StopCondition::consensus().or_max_interactions(budget);
        match workload {
            MaintenanceWorkload::UsdRows => {
                let mut engine = BatchedEngine::new(
                    UndecidedStateDynamics::new(opinions),
                    config,
                    seed.child(1),
                );
                engine.set_incremental_rows(patched);
                let start = Instant::now();
                let result = engine.run_engine(stop);
                let elapsed = start.elapsed().as_secs_f64().max(1e-9);
                assert!(
                    result.reached_consensus(),
                    "usd-rows maintenance run did not converge within {budget} interactions"
                );
                (result.interactions(), elapsed)
            }
            MaintenanceWorkload::MajorityLaws => {
                // The law switch is thread-local, so flip it for the timed
                // run and restore the default afterwards.
                let mut sim =
                    SequentialSampler::new(ThreeMajority::new(opinions), config, seed.child(1));
                set_incremental_laws(patched);
                let start = Instant::now();
                let result = sim.run_engine(stop);
                let elapsed = start.elapsed().as_secs_f64().max(1e-9);
                set_incremental_laws(true);
                assert!(
                    result.reached_consensus(),
                    "3-majority maintenance run did not converge within {budget} interactions"
                );
                (result.interactions(), elapsed)
            }
        }
    }

    /// One timed batched consensus run with the telemetry registry enabled
    /// or disabled; returns (interactions, seconds, stamped payload).
    fn timed_telemetry_run(
        &self,
        n: u64,
        opinions: usize,
        bias_factor: f64,
        enabled: bool,
        seed: SimSeed,
    ) -> TelemetrySample {
        let config = InitialConfig::new(n, opinions)
            .multiplicative_bias(bias_factor)
            .engine(EngineChoice::Batched)
            .build(seed.child(0))
            .expect("throughput workload is valid");
        let budget = self.scale.interaction_budget(n, opinions);
        let mut sim = UsdSimulator::with_engine(config, seed.child(1), EngineChoice::Batched);
        let tel = if enabled {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        sim.set_telemetry(tel);
        let start = Instant::now();
        let result = sim.run_to_consensus(budget);
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        assert!(
            result.reached_consensus(),
            "telemetry-overhead run did not converge within {budget} interactions"
        );
        let payload = result.telemetry().map_or_else(Vec::new, |snap| {
            snap.counters()
                .iter()
                .map(|(name, v)| (name.clone(), *v as f64))
                .chain(snap.gauges().iter().cloned())
                .collect()
        });
        (result.interactions(), elapsed, payload)
    }

    /// Runs the experiment.
    #[must_use]
    pub fn run(&self, seed: SimSeed) -> ExperimentReport {
        self.run_with_samples(seed).0
    }

    /// Runs the experiment and additionally returns the stamped
    /// [`BenchEntry`] records `engine_bench` persists for cross-PR trend
    /// checks.
    #[must_use]
    pub fn run_with_samples(&self, seed: SimSeed) -> (ExperimentReport, Vec<BenchEntry>) {
        let mut entries = Vec::new();
        let mut report = ExperimentReport::new(
            "E13",
            "step-engine throughput: exact vs batched",
            "the batched engine advances the same count-vector chain orders of magnitude faster per interaction once null interactions dominate, at identical trajectory distribution",
            vec![
                "workload".into(),
                "n".into(),
                "k".into(),
                "bias".into(),
                "engine".into(),
                "interactions".into(),
                "seconds".into(),
                "interactions/sec".into(),
                "speedup vs exact".into(),
            ],
        );

        for (wi, &(opinions, bias)) in self.workloads.iter().enumerate() {
            for (ni, &n) in self.populations.iter().enumerate() {
                let mut ips_by_engine = [0.0f64; 2];
                for (ei, engine) in [EngineChoice::Exact, EngineChoice::Batched]
                    .into_iter()
                    .enumerate()
                {
                    let samples = (0..self.runs)
                        .map(|r| {
                            let cell_seed = seed.child(
                                (wi as u64) << 48 | (ni as u64) << 32 | (ei as u64) << 16 | r,
                            );
                            self.timed_run(n, opinions, bias, engine, cell_seed)
                        })
                        .collect();
                    let (interactions, secs) = median_by_rate(samples, |&(i, s)| i as f64 / s);
                    let ips = interactions as f64 / secs;
                    ips_by_engine[ei] = ips;
                    let speedup_value = if ei == 1 && ips_by_engine[0] > 0.0 {
                        ips / ips_by_engine[0]
                    } else {
                        1.0
                    };
                    let speedup = if ei == 1 {
                        fmt_f64(speedup_value)
                    } else {
                        "1.00".to_string()
                    };
                    entries.push(BenchEntry {
                        experiment: "E13".into(),
                        engine: engine.name().to_string(),
                        shards: 1,
                        n,
                        k: opinions as u64,
                        bias,
                        interactions,
                        seconds: secs,
                        interactions_per_sec: ips,
                        speedup: speedup_value,
                        telemetry: Vec::new(),
                    });
                    report.push_row(vec![
                        "usd".to_string(),
                        n.to_string(),
                        opinions.to_string(),
                        fmt_f64(bias),
                        engine.name().to_string(),
                        interactions.to_string(),
                        fmt_f64(secs),
                        fmt_f64(ips),
                        speedup,
                    ]);
                }
            }
        }

        // The baseline sampling dynamics, per-activation vs skip-ahead.
        for (wi, &(workload, opinions, bias)) in self.sampling_workloads.iter().enumerate() {
            for (ni, &n) in self.sampling_populations.iter().enumerate() {
                let mut ips_by_mode = [0.0f64; 2];
                for (ei, batched) in [false, true].into_iter().enumerate() {
                    let samples = (0..self.runs)
                        .map(|r| {
                            let cell_seed = seed.child(
                                0xD0_0000_0000_0000
                                    | (wi as u64) << 48
                                    | (ni as u64) << 32
                                    | (ei as u64) << 16
                                    | r,
                            );
                            self.timed_sampling_run(workload, n, opinions, bias, batched, cell_seed)
                        })
                        .collect();
                    let (interactions, secs) = median_by_rate(samples, |&(i, s)| i as f64 / s);
                    let ips = interactions as f64 / secs;
                    ips_by_mode[ei] = ips;
                    let speedup_value = if ei == 1 && ips_by_mode[0] > 0.0 {
                        ips / ips_by_mode[0]
                    } else {
                        1.0
                    };
                    let engine_name = if batched { "batched" } else { "exact" };
                    entries.push(BenchEntry {
                        // Namespaced so sampling cells never collide with the
                        // USD cells sharing (engine, n, k, bias) — and so the
                        // trend gate guards their batched rows individually.
                        experiment: format!("E13/{}", workload.name()),
                        engine: engine_name.to_string(),
                        shards: 1,
                        n,
                        k: opinions as u64,
                        bias,
                        interactions,
                        seconds: secs,
                        interactions_per_sec: ips,
                        speedup: speedup_value,
                        telemetry: Vec::new(),
                    });
                    report.push_row(vec![
                        workload.name().to_string(),
                        n.to_string(),
                        opinions.to_string(),
                        fmt_f64(bias),
                        engine_name.to_string(),
                        interactions.to_string(),
                        fmt_f64(secs),
                        fmt_f64(ips),
                        if ei == 1 {
                            fmt_f64(speedup_value)
                        } else {
                            "1.00".to_string()
                        },
                    ]);
                }
            }
        }
        // The incremental-maintenance arm: the same consensus workload with
        // the O(delta) patch path off (per-event rebuild) vs on.
        for (wi, &(workload, opinions, bias)) in self.maintenance_workloads.iter().enumerate() {
            for (ni, &n) in self.maintenance_populations.iter().enumerate() {
                let mut ips_by_mode = [0.0f64; 2];
                for (ei, patched) in [false, true].into_iter().enumerate() {
                    let samples = (0..self.runs)
                        .map(|r| {
                            // Unlike the engine sweeps, both arms share the
                            // seed: patched and rebuild runs are bit-identical,
                            // so the comparison is like-for-like per trajectory.
                            let cell_seed = seed.child(
                                0xE0_0000_0000_0000 | (wi as u64) << 48 | (ni as u64) << 32 | r,
                            );
                            self.timed_maintenance_run(
                                workload, n, opinions, bias, patched, cell_seed,
                            )
                        })
                        .collect();
                    let (interactions, secs) = median_by_rate(samples, |&(i, s)| i as f64 / s);
                    let ips = interactions as f64 / secs;
                    ips_by_mode[ei] = ips;
                    let speedup_value = if ei == 1 && ips_by_mode[0] > 0.0 {
                        ips / ips_by_mode[0]
                    } else {
                        1.0
                    };
                    let engine_name = if patched { "incremental" } else { "rebuild" };
                    entries.push(BenchEntry {
                        // Namespaced per workload; the "incremental" rows are
                        // in GUARDED_ENGINES, so the patched-over-rebuild
                        // speedup is regression-gated across PRs.
                        experiment: format!("E13/{}", workload.name()),
                        engine: engine_name.to_string(),
                        shards: 1,
                        n,
                        k: opinions as u64,
                        bias,
                        interactions,
                        seconds: secs,
                        interactions_per_sec: ips,
                        speedup: speedup_value,
                        telemetry: Vec::new(),
                    });
                    report.push_row(vec![
                        workload.name().to_string(),
                        n.to_string(),
                        opinions.to_string(),
                        fmt_f64(bias),
                        engine_name.to_string(),
                        interactions.to_string(),
                        fmt_f64(secs),
                        fmt_f64(ips),
                        if ei == 1 {
                            fmt_f64(speedup_value)
                        } else {
                            "1.00".to_string()
                        },
                    ]);
                }
            }
        }

        // The telemetry-overhead arm: the same batched deep-bias run with
        // the registry detached vs live.  Shared seed per repetition, so
        // the arms advance bit-identical trajectories.
        for (ni, &n) in self.telemetry_populations.iter().enumerate() {
            let (opinions, bias) = (2usize, 4.0f64);
            let mut ips_by_mode = [0.0f64; 2];
            for (ei, enabled) in [false, true].into_iter().enumerate() {
                let samples = (0..self.runs)
                    .map(|r| {
                        let cell_seed = seed.child(0xF0_0000_0000_0000 | (ni as u64) << 32 | r);
                        self.timed_telemetry_run(n, opinions, bias, enabled, cell_seed)
                    })
                    .collect();
                let (interactions, secs, telemetry): TelemetrySample =
                    median_by_rate(samples, |(i, s, _)| *i as f64 / s);
                let ips = interactions as f64 / secs;
                ips_by_mode[ei] = ips;
                let speedup_value = if ei == 1 && ips_by_mode[0] > 0.0 {
                    ips / ips_by_mode[0]
                } else {
                    1.0
                };
                let engine_name = if enabled {
                    "telemetry-on"
                } else {
                    "telemetry-off"
                };
                entries.push(BenchEntry {
                    // "telemetry-on" is in GUARDED_ENGINES: its speedup
                    // against the telemetry-off reference is the
                    // observability overhead the trend check gates.
                    experiment: "E13/telemetry".into(),
                    engine: engine_name.to_string(),
                    shards: 1,
                    n,
                    k: opinions as u64,
                    bias,
                    interactions,
                    seconds: secs,
                    interactions_per_sec: ips,
                    speedup: speedup_value,
                    telemetry,
                });
                report.push_row(vec![
                    "telemetry".to_string(),
                    n.to_string(),
                    opinions.to_string(),
                    fmt_f64(bias),
                    engine_name.to_string(),
                    interactions.to_string(),
                    fmt_f64(secs),
                    fmt_f64(ips),
                    if ei == 1 {
                        fmt_f64(speedup_value)
                    } else {
                        "1.00".to_string()
                    },
                ]);
            }
        }

        report.push_note(format!(
            "USD consensus runs from a multiplicative-bias start; each cell reports the median-interactions/sec run of {} runs; both engines induce the same trajectory distribution (verified by the equivalence test suite)",
            self.runs
        ));
        report.push_note(
            "the batched engine's edge scales with the null-interaction fraction: modest in the many-opinion mild-bias regime, large in the two-opinion deep-bias (approximate-majority) regime and in every endgame".to_string(),
        );
        report.push_note(
            "sampling-dynamics rows (3-majority, median-rule) compare per-activation stepping against the geometric skip-ahead with closed-form conditional samplers; rejection misses are asserted to be exactly 0, and the batched rows are stamped as E13/<dynamic> entries so the CI trend gate guards them like the USD engines".to_string(),
        );
        report.push_note(
            "maintenance rows (usd-rows, 3-majority-laws) compare per-event from-scratch row-table / activation-law rebuilds against the O(delta) incremental patch path on otherwise identical (bit-exact) runs (for 3-majority-laws the incremental row is the O(k) closed-form law and the rebuild row the integer DP); the incremental rows are stamped as E13/<workload> entries and regression-gated by the trend check".to_string(),
        );
        report.push_note(
            "telemetry rows compare the batched deep-bias run with the metrics registry detached vs live on bit-identical trajectories; the telemetry-on speedup is the observability overhead (budget: within 5% of telemetry-off), and each entry is stamped with the run's counter snapshot".to_string(),
        );
        (report, entries)
    }
}

/// The sample with the median `rate` (the upper median for an even count).
fn median_by_rate<S>(mut samples: Vec<S>, rate: impl Fn(&S) -> f64) -> S {
    assert!(!samples.is_empty(), "at least one run per cell");
    samples.sort_by(|a, b| rate(a).total_cmp(&rate(b)));
    samples.swap_remove(samples.len() / 2)
}

/// Times one sampling-dynamics consensus run.  Skip-ahead mode asserts the
/// dynamic's closed-form hooks are present (no silent fallback) and that the
/// rejection path stayed untouched.
fn time_sampler<D: SamplingDynamics>(
    dynamics: D,
    config: Configuration,
    seed: SimSeed,
    batched: bool,
    budget: u64,
) -> (u64, f64) {
    let name = dynamics.name().to_string();
    let mut sim = SequentialSampler::new(dynamics, config, seed.child(1));
    let stop = StopCondition::consensus().or_max_interactions(budget);
    let start = Instant::now();
    let result = if batched {
        sim.require_skip_ahead()
            .expect("every shipped sampling dynamic provides skip-ahead hooks");
        sim.run_engine(stop)
    } else {
        sim.run(stop)
    };
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    assert!(
        result.reached_consensus(),
        "{name} throughput run did not converge within {budget} interactions"
    );
    if batched {
        assert_eq!(
            result.rejection_misses(),
            Some(0),
            "{name} skip-ahead fell back to rejection sampling"
        );
    }
    (result.interactions(), elapsed)
}

impl super::Experiment for EngineThroughputExperiment {
    fn id(&self) -> &'static str {
        "E13"
    }
    fn run(&self, seed: SimSeed) -> ExperimentReport {
        EngineThroughputExperiment::run(self, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_both_engines_per_population() {
        let exp = EngineThroughputExperiment {
            populations: vec![2_000],
            workloads: vec![(4, 2.0), (2, 4.0)],
            runs: 1,
            scale: Scale::Quick,
            sampling_workloads: vec![],
            sampling_populations: vec![],
            maintenance_workloads: vec![],
            maintenance_populations: vec![],
            telemetry_populations: vec![],
        };
        let (report, entries) = exp.run_with_samples(SimSeed::from_u64(5));
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.rows[0][4], "exact");
        assert_eq!(report.rows[1][4], "batched");
        for row in &report.rows {
            assert_eq!(row[0], "usd");
            assert!(
                row[7].parse::<f64>().is_ok() || row[7].contains('e'),
                "ips cell: {}",
                row[7]
            );
        }
        // The stamped entries mirror the rows one-to-one.
        assert_eq!(entries.len(), report.rows.len());
        for (entry, row) in entries.iter().zip(&report.rows) {
            assert_eq!(entry.engine, row[4]);
            assert_eq!(entry.shards, 1);
            assert_eq!(entry.n.to_string(), row[1]);
            assert!(entry.interactions_per_sec > 0.0);
        }
    }

    #[test]
    fn sampling_dynamics_rows_are_stamped_and_namespaced() {
        let exp = EngineThroughputExperiment {
            populations: vec![],
            workloads: vec![],
            runs: 1,
            scale: Scale::Quick,
            sampling_workloads: vec![
                (SamplingWorkload::ThreeMajority, 2, 4.0),
                (SamplingWorkload::MedianRule, 4, 2.0),
            ],
            sampling_populations: vec![2_000],
            maintenance_workloads: vec![],
            maintenance_populations: vec![],
            telemetry_populations: vec![],
        };
        let (report, entries) = exp.run_with_samples(SimSeed::from_u64(8));
        // Two workloads × one population × {exact, batched}.
        assert_eq!(report.rows.len(), 4);
        assert_eq!(entries.len(), 4);
        for (entry, row) in entries.iter().zip(&report.rows) {
            assert_eq!(entry.experiment, format!("E13/{}", row[0]));
            assert_eq!(entry.engine, row[4]);
            assert!(entry.interactions_per_sec > 0.0);
        }
        // The batched rows carry a real speedup measurement (the gated
        // metric), the exact rows are their own reference.
        assert_eq!(entries[0].speedup, 1.0);
        assert!(entries[1].speedup > 0.0);
        assert_eq!(entries[1].engine, "batched");
    }

    #[test]
    fn maintenance_rows_are_stamped_with_guarded_incremental_cells() {
        let exp = EngineThroughputExperiment {
            populations: vec![],
            workloads: vec![],
            runs: 1,
            scale: Scale::Quick,
            sampling_workloads: vec![],
            sampling_populations: vec![],
            maintenance_workloads: vec![
                (MaintenanceWorkload::UsdRows, 4, 2.0),
                (MaintenanceWorkload::MajorityLaws, 4, 2.0),
            ],
            maintenance_populations: vec![2_000],
            telemetry_populations: vec![],
        };
        let (report, entries) = exp.run_with_samples(SimSeed::from_u64(11));
        // Two workloads × one population × {rebuild, incremental}.
        assert_eq!(report.rows.len(), 4);
        assert_eq!(entries.len(), 4);
        for (entry, row) in entries.iter().zip(&report.rows) {
            assert_eq!(entry.experiment, format!("E13/{}", row[0]));
            assert_eq!(entry.engine, row[4]);
            assert!(entry.interactions_per_sec > 0.0);
        }
        // The rebuild rows are their own reference; the incremental rows
        // carry the patched-over-rebuild speedup the trend check gates, and
        // their engine name is in the guarded set.
        assert_eq!(entries[0].engine, "rebuild");
        assert_eq!(entries[0].speedup, 1.0);
        assert_eq!(entries[1].engine, "incremental");
        assert!(entries[1].speedup > 0.0);
        assert!(crate::trend::GUARDED_ENGINES.contains(&"incremental"));
        // Both arms of one cell run the same workload: the interaction
        // counts agree bit-for-bit (same seed, same trajectory).
        assert_eq!(entries[0].interactions, entries[1].interactions);
        assert_eq!(entries[2].interactions, entries[3].interactions);
    }

    #[test]
    fn telemetry_rows_are_stamped_with_the_run_counters() {
        let exp = EngineThroughputExperiment {
            populations: vec![],
            workloads: vec![],
            runs: 1,
            scale: Scale::Quick,
            sampling_workloads: vec![],
            sampling_populations: vec![],
            maintenance_workloads: vec![],
            maintenance_populations: vec![],
            telemetry_populations: vec![2_000],
        };
        let (report, entries) = exp.run_with_samples(SimSeed::from_u64(13));
        // One population × {telemetry-off, telemetry-on}.
        assert_eq!(report.rows.len(), 2);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].engine, "telemetry-off");
        assert_eq!(entries[0].speedup, 1.0);
        assert_eq!(entries[1].engine, "telemetry-on");
        assert!(entries[1].speedup > 0.0);
        assert!(crate::trend::GUARDED_ENGINES.contains(&"telemetry-on"));
        // Attaching the registry never consumes RNG: with a single shared
        // seed both arms advance the identical trajectory.
        assert_eq!(entries[0].interactions, entries[1].interactions);
        // Both arms stamp the run's counters (the batched engine keeps its
        // plain counters even with the registry detached).
        for entry in &entries {
            assert!(
                entry
                    .telemetry
                    .iter()
                    .any(|(name, v)| name == "batched.events_drawn" && *v > 0.0),
                "{} row lacks the batched.events_drawn stamp",
                entry.engine
            );
        }
    }
}
