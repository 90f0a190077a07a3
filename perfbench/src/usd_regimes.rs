//! `usd-paper-regimes`: a closed loop with one client running single USD
//! trajectories back to back through `run_scenario` — the
//! `usd_run --scenario` path — over the regimes of the paper's three
//! theorems (no bias, additive bias, multiplicative bias), plus the hybrid
//! engine in its favoured regime and in the paper's regime.
//!
//! The traced phase drives the same scenarios through the layers
//! directly (parse, builder, `UsdSimulator` in one-parallel-time slices,
//! `result_json`) and checks that it reproduces `run_scenario` byte for
//! byte.

use crate::common::{self, check_result, Expect, InputRng};
use crate::trace::{Tracer, ROOT};
use crate::{Args, Report};
use pp_core::{EngineChoice, NullRecorder, RunResult};
use pp_service::{result_json, ScenarioConfig, ScenarioOutcome};
use pp_workloads::BiasSpec;
use std::time::Instant;

#[derive(Clone, Copy)]
enum Bias {
    None,
    /// `2·√n·ln n` agents (Theorem: the initial plurality wins).
    PaperAdditive,
    Multiplicative(f64),
}

struct Regime {
    n: u64,
    k: usize,
    bias: Bias,
    engine: EngineChoice,
}

const REGIMES: [Regime; 5] = [
    Regime {
        n: 300_000,
        k: 8,
        bias: Bias::None,
        engine: EngineChoice::Batched,
    },
    Regime {
        n: 500_000,
        k: 8,
        bias: Bias::PaperAdditive,
        engine: EngineChoice::Batched,
    },
    Regime {
        n: 1_000_000,
        k: 8,
        bias: Bias::Multiplicative(2.0),
        engine: EngineChoice::Batched,
    },
    // The hybrid engine's favoured regime…
    Regime {
        n: 2_000_000,
        k: 3,
        bias: Bias::Multiplicative(4.0),
        engine: EngineChoice::Hybrid,
    },
    // …and the paper's regime, where it gains little.
    Regime {
        n: 500_000,
        k: 4,
        bias: Bias::PaperAdditive,
        engine: EngineChoice::Hybrid,
    },
];

/// The scenario files of one pass (one scenario per regime), as the JSON
/// text a user would hand to `usd_run --scenario`.  Every pass of a run
/// repeats them.
fn pass_inputs(seed: u64) -> Vec<String> {
    let mut rng = InputRng::new(seed.wrapping_mul(0x1_0000_0001));
    REGIMES
        .iter()
        .map(|r| {
            let bias = match r.bias {
                Bias::None => BiasSpec::None,
                Bias::PaperAdditive => common::paper_additive_bias(r.n),
                Bias::Multiplicative(f) => BiasSpec::Multiplicative(f),
            };
            ScenarioConfig::new(r.n, r.k)
                .with_seed(rng.next_u64())
                .with_bias(bias)
                .with_engine(r.engine)
                .to_json()
        })
        .collect()
}

pub fn run(args: &Args, tr: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    if tr.is_on() {
        traced(args, tr, &mut report);
    } else {
        let inputs = pass_inputs(args.seed);
        common::closed_loop(
            &inputs,
            args.seconds,
            &mut report,
            || common::setup(|| pass_inputs(args.seed)),
            common::run_job_segments,
        )?;
    }
    Ok(report)
}

/// Drives one single-USD scenario through the layers `run_scenario` calls,
/// with a span per builder call and per one-parallel-time engine slice.
fn run_sliced(tr: &Tracer, scenario: &ScenarioConfig) -> Result<RunResult, String> {
    let (mut sim, stop, layer) = common::usd_simulator(tr, scenario)?;
    let slice = scenario.population.max(1);
    loop {
        let until = sim.interactions().saturating_add(slice);
        let done = tr.span(layer, || {
            sim.run_interruptible(stop, &mut NullRecorder, &mut |i| i >= until)
        });
        if let Some(result) = done {
            return Ok(result);
        }
    }
}

fn traced(args: &Args, tr: &Tracer, report: &mut Report) {
    // Untraced reference pass: the overhead base, and the documents the
    // sliced path must reproduce.
    let inputs = pass_inputs(args.seed);
    let reference_start = Instant::now();
    let reference: Vec<Result<String, String>> = inputs
        .iter()
        .map(|text| common::run_job(text).map(|(_, doc)| doc))
        .collect();
    let untraced_wall = reference_start.elapsed().as_secs_f64();

    let mut counts = common::EngineCounts::default();
    let mut pass0_wall = 0.0;
    let mut passes = 0_u64;
    // The reference pass counts toward the run's `--seconds`.
    tr.span(ROOT, || {
        while passes == 0 || reference_start.elapsed().as_secs_f64() < args.seconds {
            let pass_start = Instant::now();
            for (i, text) in inputs.iter().enumerate() {
                report.attempted += 1;
                let traced_job = tr
                    .span("pp-service.scenario.parse", || common::parse_scenario(text))
                    .and_then(|scenario| {
                        let result = run_sliced(tr, &scenario)?;
                        Ok((scenario, result))
                    });
                let (scenario, result) = match traced_job {
                    Ok(job) => job,
                    Err(e) => {
                        report.fail(text, &e);
                        continue;
                    }
                };
                counts.add(&scenario, &result);
                let doc = tr.span("pp-service.runner.result_json", || {
                    result_json(&ScenarioOutcome::Single(result))
                });
                tr.span("bench.check", || {
                    let checked = Expect::of(&scenario).and_then(|e| check_result(&doc, e));
                    if let Err(e) = checked {
                        report.wrong(text, &e);
                    } else if reference[i].as_ref() != Ok(&doc) {
                        report.wrong(text, "the sliced layer path diverged from run_scenario");
                    }
                });
            }
            if passes == 0 {
                pass0_wall = pass_start.elapsed().as_secs_f64();
            }
            passes += 1;
        }
    });

    report.note(format!(
        "{passes} traced passes; per-pass figures are totals / {passes}"
    ));
    counts.report(report, tr, 1.0 / passes as f64);
    common::set_common_layers(report, tr);
    report.set(
        "trace.overhead_fraction",
        common::ratio(pass0_wall, untraced_wall) - 1.0,
    );
}
