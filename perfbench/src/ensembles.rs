//! `replica-ensembles`: a closed loop with one client running lockstep
//! replica ensembles (`replicas = 8`, `threads = 1`) through
//! `run_scenario`, on two arms that use the shared-table cache in opposite
//! ways: 3-Majority, whose activation-law DP is dear and whose tables are
//! reused, and a two-opinion USD, whose O(k) rows are cheap.
//!
//! The timed loop runs on one thread pinned to one CPU: a second worker
//! thread would run on another CPU of a shared host, at a speed the
//! calibration kernel (see `speed`) does not read.  It builds each
//! ensemble as `run_scenario` does and runs it `segment_windows` lockstep
//! windows per call, timing each call as a segment (see
//! `common::closed_loop`); pausing never moves a replica, and every
//! document is checked like `run_scenario`'s.
//!
//! The traced phase drives the ensembles as `run_scenario` does and, once
//! per run, measures the two comparisons the parallel and ensemble layers
//! answer to: the same ensemble at `threads = 2`, and a serial loop over
//! the eight standalone engines with the replicas' seeds (which must
//! reproduce every replica exactly).

use crate::common::{self, check_result, Expect, InputRng};
use crate::trace::{Tracer, ROOT};
use crate::{Args, Report};
use consensus_dynamics::{sampler_ensemble, SequentialSampler, ThreeMajority};
use pp_core::ensemble::EnsembleRunResult;
use pp_core::{
    Configuration, EngineChoice, MetricsSnapshot, Recorder, RunResult, SimSeed, StepEngine,
    StopCondition,
};
use pp_service::{result_json, Dynamic, ScenarioConfig, ScenarioOutcome};
use pp_workloads::BiasSpec;
use std::time::Instant;

const REPLICAS: usize = 8;
const THREADS: usize = 1;
/// Lockstep windows per traced USD slice (the runner's own slice length;
/// the USD arm's bookkeeping therefore covers its completing slice, as in
/// the service's result document).
const WINDOWS_PER_SLICE: u64 = 4;
/// Lockstep windows per timed segment, per arm: about 10 ms of work (a
/// 3-Majority window covers many more interactions than a USD one).
fn segment_windows(dynamic: Dynamic) -> u64 {
    match dynamic {
        Dynamic::Usd => 64,
        _ => 4,
    }
}

/// One pass: each arm three times, with three seeds, interleaved.  The
/// 3-Majority arm carries a multiplicative bias: a weaker one makes its
/// slowest-of-eight hitting time, and so the run time, vary too much
/// between seeds.
fn arms(seed: u64) -> [ScenarioConfig; 6] {
    let mut rng = InputRng::new(seed.wrapping_mul(0x2_0000_0003));
    let majority = ScenarioConfig::new(8_000, 4)
        .with_bias(BiasSpec::Multiplicative(2.0))
        .with_dynamic(Dynamic::ThreeMajority);
    let usd = ScenarioConfig::new(400_000, 2).with_bias(BiasSpec::Multiplicative(4.0));
    [majority, usd, majority, usd, majority, usd].map(|s| {
        s.with_seed(rng.next_u64())
            .with_replicas(REPLICAS)
            .with_threads(THREADS)
    })
}

/// The scenario files of one pass; every pass of a run repeats them.
fn pass_inputs(seed: u64) -> Vec<String> {
    arms(seed).iter().map(ScenarioConfig::to_json).collect()
}

pub fn run(args: &Args, tr: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    if tr.is_on() {
        traced(args, tr, &mut report);
    } else {
        crate::speed::pin_to_current_cpu()?;
        let inputs = pass_inputs(args.seed);
        common::closed_loop(
            &inputs,
            args.seconds,
            &mut report,
            || common::setup(|| pass_inputs(args.seed)),
            timed_job,
        )?;
    }
    Ok(report)
}

/// A timed job: parse, build and run the ensemble `segment_windows`
/// windows per call, `result_json`.
fn timed_job(text: &str) -> common::TimedJob {
    let mut segments = common::Segments::start();
    let scenario = common::parse_scenario(text)?;
    let slice = Some(segment_windows(scenario.dynamic));
    let outcome = run_windowed(&Tracer::new(false), &scenario, slice, || segments.close())?;
    let doc = result_json(&ScenarioOutcome::Ensemble(outcome));
    Ok((scenario, doc, segments.finish()))
}

/// Builds one ensemble as `run_scenario` does and runs it `slice` lockstep
/// windows per call (`None`: in one call), calling `between` after every
/// call that leaves it unfinished; a span covers each call.
fn run_windowed(
    tr: &Tracer,
    scenario: &ScenarioConfig,
    slice: Option<u64>,
    between: impl FnMut(),
) -> Result<EnsembleRunResult, String> {
    let seed = SimSeed::from_u64(scenario.seed);
    let spec = scenario.to_initial_config();
    let (config, choice) = tr
        .span("pp-workloads.builder.build", || spec.build_ensemble(seed))
        .map_err(|e| e.to_string())?;
    let stop = stop_of(scenario);
    let run_seed = seed.child(1);
    match scenario.dynamic {
        Dynamic::Usd => {
            let mut ensemble = usd_core::UsdEnsemble::try_new(config, run_seed, choice)
                .map_err(|e| e.to_string())?;
            Ok(drive(tr, slice, |w| ensemble.run_windows(stop, w), between))
        }
        Dynamic::ThreeMajority => {
            let dynamics = ThreeMajority::new(scenario.opinions);
            let mut ensemble = sampler_ensemble(&dynamics, &config, run_seed, choice)
                .map_err(|e| e.to_string())?;
            // `run_scenario` runs sampling ensembles in one call, and an
            // ensemble result's bookkeeping (`rounds`, cache counters)
            // covers only the call that completes it.
            Ok(match slice {
                None => tr.span("pp-core.ensemble", || ensemble.run(stop)),
                Some(_) => drive(tr, slice, |w| ensemble.run_windows(stop, w), between),
            })
        }
        other => Err(format!("no ensemble arm runs {other}")),
    }
}

/// Calls `step` with `slice` windows (all, when `None`) until the
/// ensemble finishes, a span around each call and `between` after each
/// call that leaves it unfinished.
fn drive(
    tr: &Tracer,
    slice: Option<u64>,
    mut step: impl FnMut(u64) -> Option<EnsembleRunResult>,
    mut between: impl FnMut(),
) -> EnsembleRunResult {
    loop {
        if let Some(outcome) = tr.span("pp-core.ensemble", || step(slice.unwrap_or(u64::MAX))) {
            return outcome;
        }
        between();
    }
}

fn stop_of(scenario: &ScenarioConfig) -> StopCondition {
    StopCondition::consensus().or_max_interactions(scenario.interaction_budget())
}

struct EventCounter(u64);

impl Recorder for EventCounter {
    fn record(&mut self, _interactions: u64, _config: &Configuration) {
        self.0 += 1;
    }
}

/// One arm's serial loop over standalone engines seeded like the replicas.
struct ReplicaLoop {
    seconds: f64,
    events: u64,
    results: Vec<RunResult>,
}

fn replica_loop(tr: &Tracer, scenario: &ScenarioConfig) -> Result<ReplicaLoop, String> {
    let seed = SimSeed::from_u64(scenario.seed);
    let (config, choice) = scenario
        .to_initial_config()
        .build_ensemble(seed)
        .map_err(|e| e.to_string())?;
    let stop = stop_of(scenario);
    let mut out = ReplicaLoop {
        seconds: 0.0,
        events: 0,
        results: Vec::new(),
    };
    for replica_seed in choice.seeds(seed.child(1)) {
        let t0 = Instant::now();
        let mut counter = EventCounter(0);
        let result = match scenario.dynamic {
            Dynamic::Usd => tr.span("pp-core.engine", || {
                usd_core::UsdSimulator::with_engine(
                    config.clone(),
                    replica_seed,
                    EngineChoice::Batched,
                )
                .run_recorded(stop, &mut counter)
            }),
            _ => tr.span("consensus-dynamics.sampler", || {
                SequentialSampler::try_new(
                    ThreeMajority::new(scenario.opinions),
                    config.clone(),
                    replica_seed,
                )
                .map(|mut s| s.run_engine_recorded(stop, &mut counter))
                .map_err(|e| e.to_string())
            })?,
        };
        out.seconds += t0.elapsed().as_secs_f64();
        // The recorder also sees the initial configuration.
        out.events += counter.0.saturating_sub(1);
        out.results.push(result);
    }
    Ok(out)
}

fn same_run(a: &RunResult, b: &RunResult) -> bool {
    a.interactions() == b.interactions()
        && a.final_configuration().supports() == b.final_configuration().supports()
        && a.final_configuration().undecided() == b.final_configuration().undecided()
}

fn traced(args: &Args, tr: &Tracer, report: &mut Report) {
    let reference_start = Instant::now();
    let inputs = pass_inputs(args.seed);
    let mut plain = Vec::new();
    let mut reference = Vec::new();
    for text in &inputs {
        let t0 = Instant::now();
        reference.push(common::run_job(text).map(|(_, doc)| doc));
        plain.push(t0.elapsed().as_secs_f64());
    }
    let untraced_wall: f64 = plain.iter().sum();

    let mut snap = MetricsSnapshot::new();
    let mut passes = 0_u64;
    let mut pass0_wall = 0.0;
    let mut t2 = Vec::new();
    let mut loops = Vec::new();
    // The reference pass counts toward the run's `--seconds`.
    tr.span(ROOT, || {
        while passes == 0 || reference_start.elapsed().as_secs_f64() < args.seconds {
            let pass_start = Instant::now();
            let mut outcomes = Vec::new();
            for (i, text) in inputs.iter().enumerate() {
                report.attempted += 1;
                let traced_job = tr
                    .span("pp-service.scenario.parse", || common::parse_scenario(text))
                    .and_then(|scenario| {
                        let slice = match scenario.dynamic {
                            Dynamic::Usd => Some(WINDOWS_PER_SLICE),
                            _ => None,
                        };
                        Ok((scenario, run_windowed(tr, &scenario, slice, || {})?))
                    });
                let (scenario, outcome) = match traced_job {
                    Ok(job) => job,
                    Err(e) => {
                        report.fail(text, &e);
                        continue;
                    }
                };
                snap.absorb(&outcome.metrics_snapshot());
                let outcome = ScenarioOutcome::Ensemble(outcome);
                let doc = tr.span("pp-service.runner.result_json", || result_json(&outcome));
                tr.span("bench.check", || {
                    let checked = Expect::of(&scenario).and_then(|e| check_result(&doc, e));
                    if let Err(e) = checked {
                        report.wrong(text, &e);
                    } else if reference[i].as_ref() != Ok(&doc) {
                        report.wrong(text, "the windowed layer path diverged from run_scenario");
                    }
                });
                outcomes.push((scenario, outcome));
            }
            if passes == 0 {
                pass0_wall = pass_start.elapsed().as_secs_f64();
                // The two comparisons, once per run and arm, on pass 0's
                // first job of each arm.
                for (i, (scenario, outcome)) in outcomes.iter().enumerate().take(2) {
                    report.attempted += 2;
                    let parallel = scenario.with_threads(2);
                    let t0 = Instant::now();
                    let doc = tr.span("pp-core.parallel.two_threads", || {
                        common::run_to_finish(&parallel).map(|o| result_json(&o))
                    });
                    t2.push(t0.elapsed().as_secs_f64());
                    tr.span("bench.check", || match doc {
                        Ok(doc) if reference[i].as_ref() == Ok(&doc) => {}
                        Ok(_) => report.wrong(&inputs[i], "threads = 2 changed the result"),
                        Err(e) => report.fail(&inputs[i], &e),
                    });
                    let ScenarioOutcome::Ensemble(ensemble) = outcome else {
                        continue;
                    };
                    match replica_loop(tr, scenario) {
                        Ok(l) => {
                            tr.span("bench.check", || {
                                let same = l.results.len() == ensemble.len()
                                    && l.results
                                        .iter()
                                        .zip(ensemble.results())
                                        .all(|(a, b)| same_run(a, b));
                                if !same {
                                    report.wrong(
                                        &inputs[i],
                                        "a standalone engine diverged from its ensemble replica",
                                    );
                                }
                            });
                            loops.push((scenario.dynamic, l));
                        }
                        Err(e) => report.fail(&inputs[i], &e),
                    }
                }
            }
            passes += 1;
        }
    });

    let per_pass = 1.0 / passes as f64;
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    report.note(format!(
        "{passes} traced passes; per-pass figures are totals / {passes}"
    ));
    let names = ["3-majority", "usd"];
    for (i, name) in names.iter().enumerate() {
        if let (Some(a), Some(b)) = (plain.get(i), t2.get(i)) {
            report.note(format!(
                "  {name}: threads=1 {a:.4} s / threads=2 {b:.4} s = {:.3}x",
                a / b
            ));
        }
        if let (Some((_, l)), Some(b)) = (loops.get(i), plain.get(i)) {
            report.note(format!(
                "  {name}: serial loop of {REPLICAS} engines {:.4} s / ensemble {b:.4} s = {:.3}x",
                l.seconds,
                l.seconds / b
            ));
        }
    }
    // Both ratios compare against the untraced threads = 1 run of the same
    // two jobs.
    let base: f64 = plain.iter().take(2).sum();
    let loop_total: f64 = loops.iter().map(|(_, l)| l.seconds).sum();
    report.set(
        "pp-core.parallel.speedup_2t",
        common::ratio(base, t2.iter().sum()),
    );
    report.set(
        "pp-core.ensemble.vs_replica_loop",
        common::ratio(loop_total, base),
    );
    report.set(
        "pp-core.ensemble.busy_s",
        tr.layer("pp-core.ensemble").busy_s() * per_pass,
    );
    report.set("pp-core.ensemble.rounds", c("ensemble.rounds") * per_pass);
    report.set(
        "pp-core.ensemble.shared_reuse_fraction",
        common::ratio(
            c("ensemble.shared_hits"),
            c("ensemble.shared_hits") + c("ensemble.shared_misses"),
        ),
    );
    report.set(
        "pp-core.ensemble.shared_derived",
        c("ensemble.shared_derived") * per_pass,
    );
    report.set(
        "pp-core.ensemble.dormant_events",
        c("ensemble.dormant_events") * per_pass,
    );
    report.set(
        "pp-core.ensemble.cache_evictions",
        c("ensemble.cache_evictions") * per_pass,
    );

    // Engine and law figures come from the standalone loops, where every
    // event and law update is attributed to one engine.
    for (dynamic, l) in &loops {
        let mut s = MetricsSnapshot::new();
        for r in &l.results {
            if let Some(t) = r.telemetry() {
                s.absorb(t);
            }
            if let Some(m) = r.maintenance() {
                if r.telemetry().is_none() {
                    s.absorb_maintenance(&m);
                }
            }
        }
        let k = |name: &str| s.counter(name).unwrap_or(0) as f64;
        if *dynamic == Dynamic::Usd {
            let events = k("batched.events_drawn");
            let nulls = k("batched.nulls_skipped");
            report.set("pp-core.engine.busy_s", l.seconds);
            report.set("pp-core.engine.events", events);
            report.set("pp-core.engine.nulls_skipped", nulls);
            report.set(
                "pp-core.engine.event_fraction",
                common::ratio(events, events + nulls),
            );
            report.set(
                "pp-core.engine.ns_per_event",
                common::ratio(l.seconds * 1e9, l.events as f64),
            );
            report.set(
                "pp-core.engine.rows_patched_fraction",
                common::ratio(
                    k("maintenance.rows_patched"),
                    k("maintenance.rows_patched") + k("maintenance.rows_rebuilt"),
                ),
            );
            report.set(
                "pp-core.engine.table_refreshes",
                k("batched.table_refreshes"),
            );
        } else {
            let patches = k("maintenance.law_patches");
            let rebuilds = k("maintenance.law_rebuilds");
            let fallbacks = k("maintenance.law_fallback_rebuilds");
            report.set("consensus-dynamics.law.patches", patches);
            report.set("consensus-dynamics.law.rebuilds", rebuilds);
            report.set("consensus-dynamics.law.fallback_rebuilds", fallbacks);
            report.set(
                "consensus-dynamics.law.patched_fraction",
                common::ratio(patches, patches + rebuilds + fallbacks),
            );
            report.set(
                "consensus-dynamics.sampler.ns_per_event",
                common::ratio(l.seconds * 1e9, l.events as f64),
            );
        }
    }
    common::set_common_layers(report, tr);
    report.set(
        "trace.overhead_fraction",
        common::ratio(pass0_wall, untraced_wall) - 1.0,
    );
}
