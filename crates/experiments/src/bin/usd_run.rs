//! Runs one simulation from the command line and dumps its trajectory as
//! CSV — handy for plotting individual runs.
//!
//! ```text
//! usd_run --n 100000 --k 10 --bias-mult 2.0 [--mult-bias 1.5] [--undecided 0.2]
//!         [--dynamic usd|voter|two-choices|3-majority|j-majority|median]
//!         [--j 5] [--engine exact|batched|sharded|mean-field|hybrid] [--shards 8]
//!         [--epoch 1000000] [--fidelity-promote 8 --fidelity-demote 1.5]
//!         [--fidelity-mass-floor 0.25 --fidelity-dwell 100000]
//!         [--replicas 32] [--threads 4] [--seed 7]
//!         [--samples 500] [--output trajectory.csv]
//! usd_run --scenario run.json
//! ```
//!
//! The run-describing flags are a syntax for one
//! [`pp_service::ScenarioConfig`]: each maps onto the matching scenario
//! field (`--bias-mult` is the additive bias in `sqrt(n ln n)` units,
//! `--mult-bias` the multiplicative factor, `--undecided` a fraction, and
//! the `--fidelity-*` flags fold into one fidelity object).  The tool
//! builds that scenario, runs it through [`pp_service::run_scenario`] —
//! the runner behind `pp_serve` jobs and `--scenario` files — and formats
//! the outcome.  Flags, scenario files and server jobs are therefore the
//! same run by construction, and every cross-field rule and its
//! diagnostic is [`pp_service::ScenarioConfig::validate`]'s; this file
//! keeps only the rules about the command-line syntax and its sinks.
//!
//! The scenario documents the dynamics, engines and their combinations.
//! Briefly: the USD runs on all five engines; the baseline sampling
//! dynamics run on `exact` (per-activation stepping) or `batched`
//! (skip-ahead); `--replicas R` runs a lockstep ensemble of batched
//! replicas over `--threads T` workers and prints a streaming summary
//! (hitting-time mean/CI, consensus proportion, throughput) instead of a
//! CSV, with `--output path` adding a JSON document of the summary and the
//! per-replica results.
//!
//! Observability (enabling it never changes a trajectory):
//!
//! * `--trace out.json` writes a chrome-trace JSON of the run's timing
//!   spans (load in Perfetto or `chrome://tracing`).
//! * `--metrics` prints the run's flat metrics snapshot as a one-line
//!   `{"metrics":{...}}` JSON object on stdout — the same object the
//!   ensemble `--output` document embeds under `"metrics"`.
//!   Human-readable summaries go to stderr, so stdout stays
//!   machine-parseable.
//!
//! Crash recovery (single USD runs only; the library API checkpoints the
//! rest):
//!
//! * `--checkpoint ckpt.json [--checkpoint-every N]` captures a resumable
//!   snapshot of the complete engine state every `N` interactions
//!   (default: `n`, one parallel-time unit), at the first event that
//!   reaches each due count.  Captures never perturb the trajectory.  The file
//!   is a journal: each capture appends one JSON line (the capture after
//!   the 64th line starts the file over), its last whole line is the
//!   resume point — a kill mid-append leaves the previous capture
//!   readable — and any single line is a standalone checkpoint.
//! * `--resume ckpt.json` restores the snapshot (a journal's last whole
//!   line) and drives it to the run's usual stop condition.  Pass the
//!   original `--n`/`--k`: the interaction
//!   budget derives from them, so the runner refuses a checkpoint captured
//!   from a different population, opinion count or (when `--engine` is
//!   given) backend.  The resumed trajectory tail is bit-identical to the
//!   uninterrupted run's.
//!
//! `--scenario run.json` (alone — it *is* the whole command line) loads a
//! versioned scenario document and prints the canonical result JSON on
//! stdout, bit-identical to submitting the document to a `pp_serve` job.

use pp_analysis::streaming::summarize_ensemble;
use pp_core::ensemble::EnsembleRunResult;
use pp_core::json::write_f64;
use pp_core::recorder::PairRecorder;
use pp_core::{
    Checkpoint, Configuration, EngineChoice, MetricsSnapshot, Recorder, RunOutcome, RunResult,
    Telemetry,
};
use pp_service::{Dynamic, RunControl, RunVerdict, ScenarioConfig, ScenarioOutcome};
use pp_workloads::{BiasSpec, UndecidedSpec};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use usd_core::{HybridEngine, Phase, PhaseTracker, Trajectory};

const USAGE: &str = "usage: usd_run --scenario <scenario json> | \
     usd_run --n <agents> --k <opinions> [--bias-mult <x> | --mult-bias <f>] \
         [--undecided <fraction>] \
         [--dynamic usd|voter|two-choices|3-majority|j-majority|median] [--j <samples>] \
         [--engine exact|batched|sharded|mean-field|hybrid] \
         [--shards <count>] [--epoch <interactions>] \
         [--fidelity-promote <ratio>] [--fidelity-demote <ratio>] \
         [--fidelity-mass-floor <x>] [--fidelity-dwell <interactions>] \
         [--replicas <count>] \
         [--threads <count>] [--seed <u64>] [--samples <count>] \
         [--output <csv, or json with --replicas>] \
         [--trace <chrome-trace json>] [--metrics] \
         [--checkpoint <path> [--checkpoint-every <interactions>]] \
         [--resume <path>]";

/// Where a run's results go — everything on the command line that is not
/// part of the scenario.
#[derive(Debug, Default)]
struct Sinks {
    output: Option<String>,
    trace: Option<String>,
    metrics: bool,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    resume: Option<String>,
}

/// The value after `args[*i]`, advancing `i` past it.
fn value<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    let flag = &args[*i];
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// [`value`], parsed; a parse failure names the flag.
fn parsed<T>(args: &[String], i: &mut usize) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let flag = &args[*i];
    value(args, i)?.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Reads the flags into the scenario they describe plus its sinks, then
/// validates the scenario, so every diagnostic comes before any output.
fn parse_args(args: &[String]) -> Result<(ScenarioConfig, Sinks), String> {
    let mut scenario = ScenarioConfig::default();
    let mut sinks = Sinks::default();
    let mut additive_mult: Option<f64> = None;
    let mut mult_bias: Option<f64> = None;
    let mut undecided = 0.0_f64;
    let mut j_given = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--n" => scenario.population = parsed(args, &mut i)?,
            "--k" => scenario.opinions = parsed(args, &mut i)?,
            "--bias-mult" => additive_mult = Some(parsed(args, &mut i)?),
            "--mult-bias" => mult_bias = Some(parsed(args, &mut i)?),
            "--undecided" => undecided = parsed(args, &mut i)?,
            "--dynamic" => scenario.dynamic = Dynamic::parse(value(args, &mut i)?)?,
            "--j" => {
                j_given = true;
                scenario.majority_samples = parsed(args, &mut i)?;
            }
            "--engine" => scenario.engine = Some(parsed(args, &mut i)?),
            "--shards" => scenario.shards = Some(parsed(args, &mut i)?),
            "--epoch" => scenario.epoch = Some(parsed(args, &mut i)?),
            "--replicas" => scenario.replicas = parsed(args, &mut i)?,
            "--threads" => scenario.threads = Some(parsed(args, &mut i)?),
            "--seed" => scenario.seed = parsed(args, &mut i)?,
            "--samples" => scenario.samples = parsed(args, &mut i)?,
            "--fidelity-promote" => {
                let ratio = parsed(args, &mut i)?;
                scenario.fidelity.get_or_insert_default().promote_ratio = ratio;
            }
            "--fidelity-demote" => {
                let ratio = parsed(args, &mut i)?;
                scenario.fidelity.get_or_insert_default().demote_ratio = ratio;
            }
            "--fidelity-mass-floor" => {
                let floor = parsed(args, &mut i)?;
                scenario.fidelity.get_or_insert_default().mass_floor = floor;
            }
            "--fidelity-dwell" => {
                let dwell = parsed(args, &mut i)?;
                scenario.fidelity.get_or_insert_default().min_dwell = dwell;
            }
            "--output" => sinks.output = Some(value(args, &mut i)?.to_string()),
            "--trace" => sinks.trace = Some(value(args, &mut i)?.to_string()),
            "--metrics" => sinks.metrics = true,
            "--checkpoint" => sinks.checkpoint = Some(value(args, &mut i)?.to_string()),
            "--checkpoint-every" => sinks.checkpoint_every = Some(parsed(args, &mut i)?),
            "--resume" => sinks.resume = Some(value(args, &mut i)?.to_string()),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    if additive_mult.is_some() && mult_bias.is_some() {
        return Err("give at most one of --bias-mult and --mult-bias".to_string());
    }
    if let Some(mult) = additive_mult {
        scenario.bias = BiasSpec::AdditiveInSqrtNLogN(mult);
    }
    if let Some(factor) = mult_bias {
        scenario.bias = BiasSpec::Multiplicative(factor);
    }
    if undecided > 0.0 {
        scenario.undecided = UndecidedSpec::Fraction(undecided);
    }
    if j_given && scenario.dynamic != Dynamic::JMajority {
        return Err("--j only applies to --dynamic j-majority".to_string());
    }
    check_sinks(&scenario, &sinks)?;
    scenario.validate()?;
    Ok((scenario, sinks))
}

/// The rules about checkpoint and resume sinks (the scenario's own rules
/// are `ScenarioConfig::validate`'s).
fn check_sinks(scenario: &ScenarioConfig, sinks: &Sinks) -> Result<(), String> {
    if sinks.checkpoint_every == Some(0) {
        return Err("--checkpoint-every must be positive".to_string());
    }
    if sinks.checkpoint_every.is_some() && sinks.checkpoint.is_none() {
        return Err(
            "--checkpoint-every sets the cadence of --checkpoint; give --checkpoint <path> too"
                .to_string(),
        );
    }
    if sinks.checkpoint.is_none() && sinks.resume.is_none() {
        return Ok(());
    }
    if scenario.dynamic != Dynamic::Usd {
        return Err(
            "--checkpoint/--resume drive the USD simulator; the baseline sampling \
             dynamics checkpoint through the library API (ReplicaCheckpoint), not the CLI"
                .to_string(),
        );
    }
    if scenario.replicas > 1 {
        return Err(
            "--checkpoint/--resume cover single runs; the replica ensemble checkpoints \
             through the library API (UsdEnsemble::capture), not the CLI"
                .to_string(),
        );
    }
    if sinks.resume.is_none() {
        return Ok(());
    }
    if scenario.bias != BiasSpec::None || scenario.undecided != UndecidedSpec::None {
        return Err(
            "--bias-mult/--mult-bias/--undecided shape the initial configuration, which \
             --resume takes from the checkpoint — drop them"
                .to_string(),
        );
    }
    if scenario.fidelity.is_some() {
        return Err(
            "--fidelity-* configure a fresh fidelity controller, which --resume restores \
             from the checkpoint (thresholds ride in the snapshot) — drop them"
                .to_string(),
        );
    }
    if sinks.output.is_some() {
        return Err(
            "--output records the trajectory from the start of the run, but a resumed run \
             cannot reconstruct the pre-checkpoint samples — drop --output (use --metrics \
             or --trace for resumed-leg observability)"
                .to_string(),
        );
    }
    Ok(())
}

/// Renders the ensemble outcome as a JSON document — the `--output` form of
/// the streaming summary, plus the per-replica hitting times the printed
/// summary aggregates away.
fn ensemble_summary_json(
    outcome: &EnsembleRunResult,
    elapsed: f64,
    scenario: &ScenarioConfig,
) -> String {
    use std::fmt::Write as _;
    let summary = summarize_ensemble(outcome);
    let (goal, wilson_lo, wilson_hi) = summary.goal_proportion();
    let mut replicas_json = String::new();
    for (i, result) in outcome.results().iter().enumerate() {
        if i > 0 {
            replicas_json.push(',');
        }
        let outcome_name = match result.outcome() {
            RunOutcome::Consensus => "consensus",
            RunOutcome::OpinionSettled => "opinion-settled",
            RunOutcome::BudgetExhausted => "budget-exhausted",
        };
        let _ = write!(
            replicas_json,
            "{{\"replica\":{i},\"outcome\":\"{outcome_name}\",\"interactions\":{},\
             \"parallel_time\":{},\"winner\":{},\"rejection_misses\":{}}}",
            result.interactions(),
            write_f64(result.parallel_time()),
            result
                .winner()
                .map_or_else(|| "null".to_string(), |w| w.index().to_string()),
            result
                .rejection_misses()
                .map_or_else(|| "null".to_string(), |m| m.to_string()),
        );
    }
    let hitting_json = if summary.hitting_time.count() > 0 {
        let (ci_lo, ci_hi) = summary.hitting_time.mean_confidence_interval(1.96);
        format!(
            "{{\"count\":{},\"mean\":{},\"ci95\":[{},{}],\"std_dev\":{},\"median\":{},\
             \"min\":{},\"max\":{}}}",
            summary.hitting_time.count(),
            write_f64(summary.hitting_time.mean()),
            write_f64(ci_lo),
            write_f64(ci_hi),
            write_f64(summary.hitting_time.std_dev()),
            summary
                .hitting_time
                .median()
                .map_or_else(|| "null".to_string(), write_f64),
            write_f64(summary.hitting_time.min()),
            write_f64(summary.hitting_time.max()),
        )
    } else {
        "null".to_string()
    };
    let total = outcome.total_interactions();
    // The canonical per-run metrics object (same names as `--metrics` and
    // the printed summaries).  The flat `maintenance` field below
    // duplicates it and is a deprecated alias, kept for one release
    // so existing consumers keep parsing — it is read back from the
    // snapshot itself, so the alias can never drift from the canonical
    // values (telemetry_check asserts the equality).
    let snap = outcome.metrics_snapshot();
    let metrics_json = snap.to_json();
    let maintenance_counters = [
        "maintenance.rows_patched",
        "maintenance.rows_rebuilt",
        "maintenance.law_patches",
        "maintenance.law_rebuilds",
        "maintenance.law_fallback_rebuilds",
    ];
    let maintenance_json = if maintenance_counters
        .iter()
        .any(|name| snap.counter(name).is_some())
    {
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        format!(
            "{{\"rows_patched\":{},\"rows_rebuilt\":{},\"law_patches\":{},\
             \"law_rebuilds\":{},\"law_fallback_rebuilds\":{}}}",
            count("maintenance.rows_patched"),
            count("maintenance.rows_rebuilt"),
            count("maintenance.law_patches"),
            count("maintenance.law_rebuilds"),
            count("maintenance.law_fallback_rebuilds"),
        )
    } else {
        "null".to_string()
    };
    format!(
        "{{\"tool\":\"usd_run\",\"mode\":\"ensemble\",\"n\":{},\"k\":{},\"seed\":{},\
         \"replicas\":{},\"workers\":{},\"rounds\":{},\
         \"metrics\":{metrics_json},\
         \"maintenance\":{maintenance_json},\
         \"consensus\":{{\"reached\":{},\"proportion\":{},\"wilson95\":[{},{}]}},\
         \"hitting_time\":{hitting_json},\
         \"total_interactions\":{total},\"seconds\":{},\"interactions_per_sec\":{},\
         \"results\":[{replicas_json}]}}",
        scenario.population,
        scenario.opinions,
        scenario.seed,
        outcome.len(),
        outcome.workers(),
        outcome.rounds(),
        summary.goal_reached,
        write_f64(goal),
        write_f64(wilson_lo),
        write_f64(wilson_hi),
        write_f64(elapsed),
        write_f64(total as f64 / elapsed.max(1e-9)),
    )
}

/// Prints the engine-counter lines shared by the single-run and ensemble
/// summaries, reading the canonical metric names of the unified snapshot so
/// both modes report the same fields in the same shape (on stderr, like the
/// rest of the human-readable summary).
fn print_engine_metrics(snap: &MetricsSnapshot) {
    if let Some(misses) = snap.counter("engine.rejection_misses") {
        eprintln!("rejection misses: {misses}");
    }
    let rows_patched = snap.counter("maintenance.rows_patched").unwrap_or(0);
    let rows_rebuilt = snap.counter("maintenance.rows_rebuilt").unwrap_or(0);
    let law_patches = snap.counter("maintenance.law_patches").unwrap_or(0);
    let law_rebuilds = snap.counter("maintenance.law_rebuilds").unwrap_or(0);
    if rows_patched + rows_rebuilt + law_patches + law_rebuilds > 0 {
        let pct = |gauge: Option<f64>| {
            gauge.map_or_else(|| "n/a".to_string(), |f| format!("{:.1}%", 100.0 * f))
        };
        eprintln!(
            "law maintenance: rows {rows_patched} patched / {rows_rebuilt} rebuilt \
             ({} incremental), laws {law_patches} patched / {law_rebuilds} rebuilt \
             ({} incremental)",
            pct(snap.gauge("maintenance.rows_patched_fraction")),
            pct(snap.gauge("maintenance.law_patched_fraction")),
        );
        // Rebuild provenance: guardrail fallbacks are rebuilds the
        // incremental path *should* have avoided, so they get their own
        // line instead of hiding inside the rebuild total.
        let law_fallbacks = snap
            .counter("maintenance.law_fallback_rebuilds")
            .unwrap_or(0);
        if law_rebuilds > 0 {
            eprintln!(
                "law rebuild causes: {law_fallbacks} guardrail fallbacks / {} scheduled or cold",
                law_rebuilds.saturating_sub(law_fallbacks),
            );
        }
    }
    if let Some(captures) = snap.counter("checkpoint.captures") {
        eprintln!(
            "checkpoints: {captures} captured ({} bytes written)",
            snap.counter("checkpoint.bytes").unwrap_or(0),
        );
    }
}

/// The run's canonical metrics snapshot: the one the engine attached, or —
/// for backends predating the registry — one reconstructed from the legacy
/// per-run accessors, so every code path reports the same field names.
fn run_metrics_snapshot(result: &RunResult) -> MetricsSnapshot {
    result.telemetry().cloned().unwrap_or_else(|| {
        let mut snap = MetricsSnapshot::new();
        if let Some(misses) = result.rejection_misses() {
            snap.add_counter("engine.rejection_misses", misses);
        }
        if let Some(stats) = result.maintenance() {
            snap.absorb_maintenance(&stats);
        }
        snap
    })
}

/// Writes the chrome trace (`--trace`) and prints the run's metrics
/// snapshot (`--metrics`) once the run is over.  The metrics line is the
/// only thing `--metrics` puts on stdout besides the CSV, so it stays
/// machine-parseable.
fn emit_telemetry(
    tel: Option<&Telemetry>,
    sinks: &Sinks,
    snap: &MetricsSnapshot,
) -> Result<(), String> {
    if let (Some(path), Some(tel)) = (&sinks.trace, tel) {
        std::fs::write(path, tel.chrome_trace_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("chrome trace written to {path} (load in Perfetto or chrome://tracing)");
    }
    if sinks.metrics {
        println!("{{\"metrics\":{}}}", snap.to_json());
    }
    Ok(())
}

/// Prints the streaming ensemble summary (satisfies `--replicas`): hitting
/// time statistics, goal proportion and aggregate throughput.  Everything
/// goes to stderr, matching the single-run summary, so stdout carries
/// machine output (`--metrics`) only.
fn print_ensemble_summary(outcome: &EnsembleRunResult, elapsed: f64) {
    let summary = summarize_ensemble(outcome);
    let (goal, lo, hi) = summary.goal_proportion();
    eprintln!(
        "ensemble: {} replicas over {} worker threads, {} scheduling windows",
        summary.replicas,
        outcome.workers(),
        outcome.rounds(),
    );
    eprintln!(
        "consensus: {}/{} replicas ({:.1}%, Wilson 95% [{:.3}, {:.3}])",
        summary.goal_reached,
        summary.replicas,
        100.0 * goal,
        lo,
        hi
    );
    // Hitting-time statistics cover goal-reaching replicas only —
    // budget-exhausted replicas stop at the censoring cap, which is not a
    // hitting time.
    if summary.hitting_time.count() > 0 {
        let (ci_lo, ci_hi) = summary.hitting_time.mean_confidence_interval(1.96);
        eprintln!(
            "hitting time (interactions, {} converged replicas): mean {:.0} \
             (95% CI [{:.0}, {:.0}]), std-dev {:.0}, median ~{:.0}, min {:.0}, max {:.0}",
            summary.hitting_time.count(),
            summary.hitting_time.mean(),
            ci_lo,
            ci_hi,
            summary.hitting_time.std_dev(),
            summary.hitting_time.median().unwrap_or(f64::NAN),
            summary.hitting_time.min(),
            summary.hitting_time.max(),
        );
    } else {
        eprintln!("hitting time: no replica reached the goal within the budget");
    }
    if summary.goal_reached < summary.replicas {
        eprintln!(
            "interactions at stop (all replicas, incl. {} budget-capped): mean {:.0}",
            summary.replicas - summary.goal_reached,
            summary.interactions.mean(),
        );
    }
    eprintln!(
        "parallel time: mean {:.2}, std-dev {:.2}",
        summary.parallel_time.mean(),
        summary.parallel_time.std_dev()
    );
    let total = outcome.total_interactions();
    eprintln!(
        "aggregate throughput: {:.3e} interactions/sec ({} interactions across all replicas \
         in {:.3} s)",
        total as f64 / elapsed.max(1e-9),
        total,
        elapsed
    );
    print_engine_metrics(&outcome.metrics_snapshot());
}

/// Describes a single run's starting point on stderr: the initial
/// configuration and backend of a fresh run, or the checkpoint a resumed
/// run continues from.
fn announce_start(
    scenario: &ScenarioConfig,
    resume: Option<&(&str, Checkpoint)>,
    interactions: u64,
    config: &Configuration,
) {
    if let Some((path, checkpoint)) = resume {
        // A hybrid capture carries its active backend's state plus hybrid
        // metadata, so the checkpoint's own kind would name the backend.
        let engine = if HybridEngine::is_hybrid_checkpoint(checkpoint) {
            EngineChoice::Hybrid.name()
        } else {
            checkpoint.kind()
        };
        eprintln!(
            "resumed from {path}: engine {engine}, {interactions} interactions already consumed"
        );
        return;
    }
    eprintln!("initial configuration: {config}");
    let engine = scenario.effective_engine();
    if scenario.dynamic != Dynamic::Usd {
        eprintln!("dynamic: {}; step engine: {engine}", scenario.dynamic);
        return;
    }
    match engine {
        EngineChoice::Sharded => {
            let plan = scenario.shard_plan();
            eprintln!(
                "step engine: sharded ({} shards, epoch {} interactions, {} threads)",
                plan.shards(),
                plan.epoch_for(scenario.population),
                plan.resolved_threads(),
            );
        }
        EngineChoice::Hybrid => {
            let f = scenario.effective_fidelity();
            eprintln!(
                "step engine: hybrid (promote ratio {}, demote ratio {}, mass floor {}, \
                 dwell {} interactions)",
                f.promote_ratio,
                f.demote_ratio,
                f.mass_floor,
                f.resolved_dwell(scenario.population),
            );
        }
        choice => eprintln!("step engine: {choice}"),
    }
}

/// Runs a `--scenario FILE` document through the service layer's shared
/// runner and prints the canonical result JSON on stdout (bit-identical to
/// submitting the same file to a `pp_serve` job server).
fn run_scenario_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let scenario = match ScenarioConfig::from_json(&text) {
        Ok(scenario) => scenario,
        Err(message) => {
            eprintln!("{path}: {message}");
            return ExitCode::from(2);
        }
    };
    match pp_service::run_scenario(&scenario, RunControl::default()) {
        Ok(RunVerdict::Finished(outcome)) => {
            println!("{}", pp_service::result_json(&outcome));
            ExitCode::SUCCESS
        }
        Ok(RunVerdict::Interrupted(_)) => {
            unreachable!("a default RunControl carries no interrupt hook")
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|flag| flag == "--scenario") {
        // The scenario document *is* the command line; mixing it with
        // flags would create two sources of truth for one run.
        if args.len() != 2 || args[0] != "--scenario" {
            eprintln!("--scenario takes exactly one file and no other flags");
            return ExitCode::from(2);
        }
        return run_scenario_file(&args[1]);
    }
    let (scenario, sinks) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let resume = match &sinks.resume {
        Some(path) => match Checkpoint::load(Path::new(path)) {
            Ok(checkpoint) => Some((path.as_str(), checkpoint)),
            Err(e) => {
                eprintln!("cannot resume from {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    // One registry for the whole run, enabled only when an export sink was
    // requested.  Telemetry never consumes RNG either way.
    let telemetry = (sinks.trace.is_some() || sinks.metrics).then(Telemetry::enabled);
    let checkpoint_every = sinks.checkpoint_every.unwrap_or(scenario.population.max(1));
    if let (Some(path), None) = (&sinks.checkpoint, &resume) {
        eprintln!("checkpointing to {path} every {checkpoint_every} interactions");
    }
    if scenario.replicas > 1 {
        let dynamic = match scenario.dynamic {
            Dynamic::Usd => String::new(),
            other => format!("dynamic: {other}; "),
        };
        eprintln!(
            "{dynamic}step engine: lockstep ensemble of {} batched replicas",
            scenario.replicas
        );
    }

    // The trajectory CSV and the paper's phase hitting times observe every
    // state change of a single run.
    let mut sink = PairRecorder::new(
        Trajectory::sampled_every(scenario.sample_period(), 1.0),
        PhaseTracker::new(1.0),
    );
    let mut started = false;
    let mut recorder = |interactions: u64, config: &Configuration| {
        if !started {
            started = true;
            announce_start(&scenario, resume.as_ref(), interactions, config);
        }
        sink.record(interactions, config);
    };
    let control = RunControl {
        checkpoint: sinks
            .checkpoint
            .as_deref()
            .map(|path| (Path::new(path), checkpoint_every)),
        resume: resume.as_ref().map(|(_, checkpoint)| checkpoint),
        recorder: Some(&mut recorder),
        telemetry: telemetry.clone(),
        ..RunControl::default()
    };
    let start = Instant::now();
    let verdict = pp_service::run_scenario(&scenario, control);
    let elapsed = start.elapsed().as_secs_f64();
    let outcome = match verdict {
        Ok(RunVerdict::Finished(outcome)) => outcome,
        Ok(RunVerdict::Interrupted(_)) => unreachable!("usd_run attaches no interrupt hook"),
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let result = match outcome {
        ScenarioOutcome::Ensemble(outcome) => {
            print_ensemble_summary(&outcome, elapsed);
            if let Some(path) = &sinks.output {
                let json = ensemble_summary_json(&outcome, elapsed, &scenario);
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("ensemble summary written to {path}");
            }
            if let Err(e) = emit_telemetry(telemetry.as_ref(), &sinks, &outcome.metrics_snapshot())
            {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
            return ExitCode::SUCCESS;
        }
        ScenarioOutcome::Single(result) => result,
    };
    eprintln!(
        "finished after {} interactions (parallel time {:.1}); consensus: {}",
        result.interactions(),
        result.parallel_time(),
        result.reached_consensus()
    );
    if let Some(winner) = result.winner() {
        eprintln!("winner: {winner}");
    }
    // A resumed run saw only the tail of the trajectory, so it reports
    // neither phase times nor a CSV.
    let fresh = resume.is_none();
    if fresh && scenario.dynamic == Dynamic::Usd {
        for phase in Phase::ALL {
            if let Some(t) = sink.second.times().hitting_time(phase) {
                eprintln!("T{} = {t}", phase.number());
            }
        }
    }
    let snap = run_metrics_snapshot(&result);
    print_engine_metrics(&snap);
    if let Err(e) = emit_telemetry(telemetry.as_ref(), &sinks, &snap) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if !fresh {
        return ExitCode::SUCCESS;
    }
    let csv = sink.first.to_csv();
    match &sinks.output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, csv) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("trajectory written to {path}");
        }
        None => print!("{csv}"),
    }
    ExitCode::SUCCESS
}
