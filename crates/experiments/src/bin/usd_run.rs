//! A small command-line tool for running a single simulation and dumping
//! its trajectory as CSV — handy for plotting individual runs.
//!
//! ```text
//! usd_run --n 100000 --k 10 --bias-mult 2.0 [--mult-bias 1.5] [--undecided 0.2]
//!         [--dynamic usd|voter|two-choices|3-majority|j-majority|median]
//!         [--j 5] [--engine exact|batched|sharded|mean-field|hybrid] [--shards 8]
//!         [--epoch 1000000] [--fidelity-promote 8 --fidelity-demote 1.5]
//!         [--fidelity-mass-floor 0.25 --fidelity-dwell 100000]
//!         [--replicas 32] [--threads 4] [--seed 7]
//!         [--samples 500] [--output trajectory.csv]
//! ```
//!
//! Exactly one of `--bias-mult` (additive bias in `sqrt(n ln n)` units) or
//! `--mult-bias` (multiplicative factor) may be given; with neither the run
//! starts from the uniform configuration.
//!
//! `--dynamic` selects the process: the USD (default, all five engines) or
//! one of the baseline sampling dynamics, which run through the sequential
//! sampler with `--engine exact` (per-activation stepping) or
//! `--engine batched` (geometric skip-ahead over null activations — every
//! shipped dynamic now provides the closed-form conditional samplers this
//! needs; requesting it for a dynamic without the hooks is a hard error, not
//! a silent fallback).  The sharded, mean-field, and hybrid backends are
//! USD-only: sampling dynamics touch `j` agents per activation, so the
//! pairwise cross-shard reconciliation and the USD's ODE limit do not apply.
//!
//! `--engine hybrid` runs the multi-fidelity engine: an online fluctuation
//! detector switches between the batched stochastic backend and the
//! mean-field ODE at pause boundaries (`usd_core::hybrid::HybridEngine`).
//! The `--fidelity-*` flags tune its thresholds (promote/demote drift-to-
//! noise ratios, the `√n`-scaled minimum-mass floor, and the post-switch
//! dwell in interactions; dwell 0 means one parallel-time unit `n`).
//!
//! `--replicas R` (with `R > 1`) runs a lockstep ensemble instead of a
//! single trajectory: `R` batched replicas advance together sharing their
//! per-counts tables across `--threads T` worker threads (default: the
//! machine's available parallelism; results are bit-identical at every
//! thread count), and the tool prints a streaming summary
//! (mean/variance/CI of the hitting time, aggregate interactions/sec)
//! instead of a trajectory CSV.  With `--output path` the summary — plus
//! the per-replica hitting times — is additionally written as a JSON
//! document.  Works for the USD and every baseline dynamic; combinations
//! the ensemble backend rejects (e.g. `--engine sharded --replicas 8`,
//! sharded-inside-ensemble) fail with a clear diagnostic.  `--threads`
//! also caps the sharded engine's shard workers.
//!
//! Observability (`pp_core::telemetry`; enabling it never changes a
//! trajectory):
//!
//! * `--trace out.json` writes a chrome-trace JSON of the run's timing
//!   spans (load in Perfetto or `chrome://tracing`): shard epochs and
//!   per-worker reconcile tracks for `--engine sharded`, lockstep windows
//!   and per-worker advancement tracks for `--replicas R`.
//! * `--metrics` prints the run's flat metrics snapshot as a one-line
//!   `{"metrics":{...}}` JSON object on stdout — the same object the
//!   ensemble `--output` document embeds under `"metrics"` (skip/draw
//!   counts, law-maintenance patch rates, scheduling-window counts).
//!   Human-readable summaries go to stderr in both modes, so stdout stays
//!   machine-parseable.
//!
//! Crash recovery (`pp_core::checkpoint`; single USD runs only):
//!
//! * `--checkpoint ckpt.json [--checkpoint-every N]` writes a resumable
//!   snapshot of the complete engine state to `ckpt.json` every `N`
//!   interactions (default: `n`, one parallel-time unit) and at every
//!   phase boundary of phase-aware runs.  Captures never perturb the
//!   trajectory; each write bumps the `checkpoint.captures` /
//!   `checkpoint.bytes` telemetry counters.
//! * `--resume ckpt.json` restores the snapshot and drives it to the
//!   run's usual stop condition.  Pass the original `--n`/`--k` — the
//!   interaction budget derives from them, and resuming toward a
//!   different budget would break the bit-exactness contract, so a
//!   mismatch against the checkpoint's captured initial configuration is
//!   a hard error.  The resumed trajectory tail is bit-identical to the
//!   uninterrupted run's.  Every backend checkpoints, including the
//!   mean-field ODE (its `f64` state rides as exact bit patterns); the
//!   replica ensemble checkpoints through the library API
//!   (`UsdEnsemble::capture`), not these flags.
//!
//! Scenario files (`pp_service::ScenarioConfig`):
//!
//! * `--scenario run.json` (alone — it *is* the whole command line) loads
//!   a versioned scenario document, runs it through the service layer's
//!   `run_scenario`, and prints the canonical result JSON on stdout.  The
//!   result is bit-identical to submitting the same document to a
//!   `pp_serve` job server, and to the equivalent hand-typed flags —
//!   `tests/service_equivalence.rs` pins all three.

use consensus_dynamics::{
    sampler_ensemble, JMajority, MedianRule, SamplingDynamics, SequentialSampler, ThreeMajority,
    TwoChoices, Voter,
};
use pp_analysis::streaming::summarize_ensemble;
use pp_core::engine::StepEngine;
use pp_core::ensemble::{EnsembleChoice, EnsembleRunResult};
use pp_core::{
    Checkpoint, Configuration, EngineChoice, FidelityConfig, MetricsSnapshot, RunResult, ShardPlan,
    SimSeed, StopCondition, Telemetry,
};
use pp_workloads::InitialConfig;
use std::process::ExitCode;
use std::time::Instant;
use usd_core::{Phase, PhaseTracker, Trajectory, UsdEnsemble, UsdSimulator};

/// Which process the run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dynamic {
    Usd,
    Voter,
    TwoChoices,
    ThreeMajority,
    JMajority,
    Median,
}

impl Dynamic {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "usd" => Ok(Dynamic::Usd),
            "voter" => Ok(Dynamic::Voter),
            "two-choices" => Ok(Dynamic::TwoChoices),
            "3-majority" => Ok(Dynamic::ThreeMajority),
            "j-majority" => Ok(Dynamic::JMajority),
            "median" => Ok(Dynamic::Median),
            other => Err(format!(
                "unknown dynamic {other:?} (expected usd, voter, two-choices, 3-majority, \
                 j-majority, or median)"
            )),
        }
    }
}

#[derive(Debug)]
struct Options {
    n: u64,
    k: usize,
    additive_mult: Option<f64>,
    mult_bias: Option<f64>,
    undecided: f64,
    dynamic: Dynamic,
    majority_samples: usize,
    engine: EngineChoice,
    engine_given: bool,
    shards: Option<usize>,
    epoch: Option<u64>,
    replicas: usize,
    threads: Option<usize>,
    seed: u64,
    samples: u64,
    output: Option<String>,
    trace: Option<String>,
    metrics: bool,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    resume: Option<String>,
    fidelity_promote: Option<f64>,
    fidelity_demote: Option<f64>,
    fidelity_mass_floor: Option<f64>,
    fidelity_dwell: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            n: 100_000,
            k: 8,
            additive_mult: None,
            mult_bias: None,
            undecided: 0.0,
            dynamic: Dynamic::Usd,
            majority_samples: 3,
            engine: EngineChoice::Exact,
            engine_given: false,
            shards: None,
            epoch: None,
            replicas: 1,
            threads: None,
            seed: 1,
            samples: 400,
            output: None,
            trace: None,
            metrics: false,
            checkpoint: None,
            checkpoint_every: None,
            resume: None,
            fidelity_promote: None,
            fidelity_demote: None,
            fidelity_mass_floor: None,
            fidelity_dwell: None,
        }
    }
}

impl Options {
    /// The fidelity thresholds the run resolves to: the defaults with any
    /// `--fidelity-*` overrides applied.
    fn fidelity_config(&self) -> FidelityConfig {
        let mut config = FidelityConfig::default();
        if let Some(v) = self.fidelity_promote {
            config.promote_ratio = v;
        }
        if let Some(v) = self.fidelity_demote {
            config.demote_ratio = v;
        }
        if let Some(v) = self.fidelity_mass_floor {
            config.mass_floor = v;
        }
        if let Some(v) = self.fidelity_dwell {
            config.min_dwell = v;
        }
        config
    }

    /// `Some` when any `--fidelity-*` flag was given.
    fn fidelity_override(&self) -> Option<FidelityConfig> {
        let given = self.fidelity_promote.is_some()
            || self.fidelity_demote.is_some()
            || self.fidelity_mass_floor.is_some()
            || self.fidelity_dwell.is_some();
        given.then(|| self.fidelity_config())
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut j_given = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag {
            "--n" => opts.n = value(&mut i)?.parse().map_err(|e| format!("--n: {e}"))?,
            "--k" => opts.k = value(&mut i)?.parse().map_err(|e| format!("--k: {e}"))?,
            "--bias-mult" => {
                opts.additive_mult = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--bias-mult: {e}"))?,
                )
            }
            "--mult-bias" => {
                opts.mult_bias = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--mult-bias: {e}"))?,
                )
            }
            "--undecided" => {
                opts.undecided = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--undecided: {e}"))?
            }
            "--dynamic" => opts.dynamic = Dynamic::parse(&value(&mut i)?)?,
            "--j" => {
                j_given = true;
                opts.majority_samples = value(&mut i)?.parse().map_err(|e| format!("--j: {e}"))?
            }
            "--engine" => {
                opts.engine_given = true;
                opts.engine = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--engine: {e}"))?
            }
            "--shards" => {
                opts.shards = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--shards: {e}"))?,
                )
            }
            "--epoch" => {
                opts.epoch = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--epoch: {e}"))?,
                )
            }
            "--replicas" => {
                opts.replicas = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--replicas: {e}"))?
            }
            "--threads" => {
                opts.threads = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--seed" => opts.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--samples" => {
                opts.samples = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--samples: {e}"))?
            }
            "--output" => opts.output = Some(value(&mut i)?),
            "--trace" => opts.trace = Some(value(&mut i)?),
            "--metrics" => opts.metrics = true,
            "--checkpoint" => opts.checkpoint = Some(value(&mut i)?),
            "--checkpoint-every" => {
                opts.checkpoint_every = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--checkpoint-every: {e}"))?,
                )
            }
            "--resume" => opts.resume = Some(value(&mut i)?),
            "--fidelity-promote" => {
                opts.fidelity_promote = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--fidelity-promote: {e}"))?,
                )
            }
            "--fidelity-demote" => {
                opts.fidelity_demote = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--fidelity-demote: {e}"))?,
                )
            }
            "--fidelity-mass-floor" => {
                opts.fidelity_mass_floor = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--fidelity-mass-floor: {e}"))?,
                )
            }
            "--fidelity-dwell" => {
                opts.fidelity_dwell = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--fidelity-dwell: {e}"))?,
                )
            }
            "--help" | "-h" => return Err(
                "usage: usd_run --scenario <scenario json> | \
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
                     [--resume <path>]"
                    .to_string(),
            ),
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    if opts.additive_mult.is_some() && opts.mult_bias.is_some() {
        return Err("give at most one of --bias-mult and --mult-bias".to_string());
    }
    if opts.samples == 0 {
        return Err("--samples must be positive".to_string());
    }
    if opts.majority_samples == 0 {
        return Err("--j must be positive".to_string());
    }
    if j_given && opts.dynamic != Dynamic::JMajority {
        return Err("--j only applies to --dynamic j-majority".to_string());
    }
    if opts.dynamic != Dynamic::Usd
        && matches!(
            opts.engine,
            EngineChoice::Sharded | EngineChoice::MeanField | EngineChoice::Hybrid
        )
    {
        return Err(format!(
            "the {} engine only drives the USD: sampling dynamics update from j-agent \
             samples, so the pairwise cross-shard reconciliation and the USD's ODE limit \
             (which the hybrid engine switches into) do not apply — use --engine exact \
             or --engine batched",
            opts.engine
        ));
    }
    if (opts.shards.is_some() || opts.epoch.is_some()) && opts.engine != EngineChoice::Sharded {
        return Err("--shards/--epoch require --engine sharded".to_string());
    }
    if opts.fidelity_override().is_some() && opts.engine != EngineChoice::Hybrid {
        return Err(
            "--fidelity-promote/--fidelity-demote/--fidelity-mass-floor/--fidelity-dwell \
             tune the hybrid fidelity controller; they require --engine hybrid"
                .to_string(),
        );
    }
    if let Err(msg) = opts.fidelity_config().validate() {
        return Err(format!("invalid fidelity thresholds: {msg}"));
    }
    if opts.shards == Some(0) {
        return Err("--shards must be positive".to_string());
    }
    if opts.epoch == Some(0) {
        return Err("--epoch must be positive".to_string());
    }
    if opts.replicas == 0 {
        return Err("--replicas must be positive".to_string());
    }
    if opts.threads == Some(0) {
        return Err("--threads must be positive".to_string());
    }
    if opts.checkpoint_every == Some(0) {
        return Err("--checkpoint-every must be positive".to_string());
    }
    if opts.checkpoint_every.is_some() && opts.checkpoint.is_none() {
        return Err(
            "--checkpoint-every sets the cadence of --checkpoint; give --checkpoint <path> too"
                .to_string(),
        );
    }
    if opts.checkpoint.is_some() || opts.resume.is_some() {
        if opts.dynamic != Dynamic::Usd {
            return Err(
                "--checkpoint/--resume drive the USD simulator; the baseline sampling \
                 dynamics checkpoint through the library API (ReplicaCheckpoint), not the CLI"
                    .to_string(),
            );
        }
        if opts.replicas > 1 {
            return Err(
                "--checkpoint/--resume cover single runs; the replica ensemble checkpoints \
                 through the library API (UsdEnsemble::capture), not the CLI"
                    .to_string(),
            );
        }
    }
    if opts.resume.is_some()
        && (opts.additive_mult.is_some() || opts.mult_bias.is_some() || opts.undecided > 0.0)
    {
        return Err(
            "--bias-mult/--mult-bias/--undecided shape the initial configuration, which \
             --resume takes from the checkpoint — drop them"
                .to_string(),
        );
    }
    if opts.resume.is_some() && opts.fidelity_override().is_some() {
        return Err(
            "--fidelity-* configure a fresh fidelity controller, which --resume restores \
             from the checkpoint (thresholds ride in the snapshot) — drop them"
                .to_string(),
        );
    }
    if opts.resume.is_some() && opts.output.is_some() {
        return Err(
            "--output records the trajectory from the start of the run, but a resumed run \
             cannot reconstruct the pre-checkpoint samples — drop --output (use --metrics \
             or --trace for resumed-leg observability)"
                .to_string(),
        );
    }
    if opts.threads.is_some() && opts.engine != EngineChoice::Sharded && opts.replicas <= 1 {
        return Err(
            "--threads caps the parallel engines' workers; it requires --engine sharded \
             or --replicas > 1"
                .to_string(),
        );
    }
    if opts.replicas > 1 {
        // The lockstep ensemble runs on the batched base backend only; an
        // unstated engine defaults to it, an explicit other engine is the
        // user asking for an unsupported nesting.
        if !opts.engine_given {
            opts.engine = EngineChoice::Batched;
        }
        EnsembleChoice::new(opts.replicas)
            .with_base(opts.engine)
            .validate()
            .map_err(|e| {
                format!(
                    "{e}: the replica ensemble runs skip-ahead replicas, so only \
                     the batched base engine can run inside it — use --engine batched (or \
                     drop --replicas)"
                )
            })?;
    }
    Ok(opts)
}

/// A finite float as JSON, `null` otherwise (JSON has no NaN/∞).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Renders the ensemble outcome as a JSON document — the `--output` form of
/// the streaming summary, plus the per-replica hitting times the printed
/// summary aggregates away.
fn ensemble_summary_json(outcome: &EnsembleRunResult, elapsed: f64, opts: &Options) -> String {
    use std::fmt::Write as _;
    let summary = summarize_ensemble(outcome);
    let (goal, wilson_lo, wilson_hi) = summary.goal_proportion();
    let mut replicas_json = String::new();
    for (i, result) in outcome.results().iter().enumerate() {
        if i > 0 {
            replicas_json.push(',');
        }
        let outcome_name = match result.outcome() {
            pp_core::RunOutcome::Consensus => "consensus",
            pp_core::RunOutcome::OpinionSettled => "opinion-settled",
            pp_core::RunOutcome::BudgetExhausted => "budget-exhausted",
        };
        let _ = write!(
            replicas_json,
            "{{\"replica\":{i},\"outcome\":\"{outcome_name}\",\"interactions\":{},\
             \"parallel_time\":{},\"winner\":{},\"rejection_misses\":{}}}",
            result.interactions(),
            json_f64(result.parallel_time()),
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
            json_f64(summary.hitting_time.mean()),
            json_f64(ci_lo),
            json_f64(ci_hi),
            json_f64(summary.hitting_time.std_dev()),
            summary
                .hitting_time
                .median()
                .map_or_else(|| "null".to_string(), json_f64),
            json_f64(summary.hitting_time.min()),
            json_f64(summary.hitting_time.max()),
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
        opts.n,
        opts.k,
        opts.seed,
        outcome.len(),
        outcome.workers(),
        outcome.rounds(),
        summary.goal_reached,
        json_f64(goal),
        json_f64(wilson_lo),
        json_f64(wilson_hi),
        json_f64(elapsed),
        json_f64(total as f64 / elapsed.max(1e-9)),
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
/// only thing `--metrics` puts on stdout, so it stays machine-parseable.
fn emit_telemetry(tel: &Telemetry, opts: &Options, snap: &MetricsSnapshot) -> Result<(), String> {
    if let Some(path) = &opts.trace {
        std::fs::write(path, tel.chrome_trace_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("chrome trace written to {path} (load in Perfetto or chrome://tracing)");
    }
    if opts.metrics {
        println!("{{\"metrics\":{}}}", snap.to_json());
    }
    Ok(())
}

/// Prints the streaming ensemble summary (satisfies `--replicas`): hitting
/// time statistics, goal proportion and aggregate throughput.  Everything goes to stderr, matching the single-run summary,
/// so stdout carries machine output (`--metrics`) only.
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

/// Runs a baseline sampling dynamic as a lockstep replica ensemble
/// (`Send` because the ensemble spreads replicas over worker threads).
fn run_sampling_ensemble<D: SamplingDynamics + Clone + Send>(
    dynamics: D,
    config: Configuration,
    seed: SimSeed,
    choice: EnsembleChoice,
    budget: u64,
    tel: &Telemetry,
) -> Result<(EnsembleRunResult, f64), String> {
    let name = dynamics.name().to_string();
    let mut ensemble = sampler_ensemble(&dynamics, &config, seed, choice).map_err(|e| {
        format!(
            "{e}: the {name} dynamic cannot run under the replica ensemble \
             (it provides no closed-form skip-ahead hooks)"
        )
    })?;
    ensemble.set_telemetry(tel.clone());
    eprintln!(
        "dynamic: {name}; step engine: lockstep ensemble of {} batched replicas",
        choice.replicas()
    );
    let start = Instant::now();
    let outcome = ensemble.run(StopCondition::consensus().or_max_interactions(budget));
    Ok((outcome, start.elapsed().as_secs_f64()))
}

/// The shard plan the run resolves to: the workload's shard count (one
/// source of truth — `--shards` lands in the `InitialConfig` spec) plus the
/// command line's optional epoch override.
fn shard_plan(spec: &InitialConfig, opts: &Options) -> ShardPlan {
    let mut plan = spec.shard_plan();
    if let Some(epoch) = opts.epoch {
        plan = plan.epoch_interactions(epoch);
    }
    plan
}

/// The periodic checkpoint cadence: `--checkpoint-every`, or one
/// parallel-time unit (`n` interactions) when only `--checkpoint` was given.
fn checkpoint_cadence(opts: &Options) -> u64 {
    opts.checkpoint_every.unwrap_or(opts.n.max(1))
}

/// Restores a `--resume` checkpoint and drives it to the run's usual stop
/// condition.  `budget` derives from `--n`/`--k`, and the bit-exactness
/// contract requires the resumed run to chase the *same* final limit the
/// interrupted run used (see `pp_core::checkpoint`), so the command line
/// must restate the original parameters — the checkpoint's captured initial
/// configuration is the witness, and a mismatch is a hard error rather than
/// a silently different trajectory.
fn run_resume(
    path: &str,
    spec: &InitialConfig,
    opts: &Options,
    budget: u64,
    tel: &Telemetry,
) -> ExitCode {
    let checkpoint = match Checkpoint::load(std::path::Path::new(path)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot resume from {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut sim = match UsdSimulator::restore(&checkpoint, shard_plan(spec, opts)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot resume from {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let ckpt_n = sim.initial_configuration().population();
    let ckpt_k = sim.initial_configuration().num_opinions();
    if ckpt_n != opts.n || ckpt_k != opts.k {
        eprintln!(
            "checkpoint {path} was captured from a run with n={ckpt_n}, k={ckpt_k}, but the \
             command line says n={}, k={}: the interaction budget derives from n and k, and \
             resuming toward a different budget breaks bit-exactness — pass the original \
             values",
            opts.n, opts.k
        );
        return ExitCode::from(2);
    }
    if opts.engine_given && opts.engine != sim.engine_choice() {
        eprintln!(
            "checkpoint {path} holds {} engine state but the command line says --engine {}: \
             the backend rides in the checkpoint, so drop the flag or pass the matching one",
            sim.engine_choice(),
            opts.engine
        );
        return ExitCode::from(2);
    }
    sim.set_telemetry(tel.clone());
    if let Some(ckpt) = &opts.checkpoint {
        sim.set_checkpoint_sink(ckpt, checkpoint_cadence(opts));
    }
    eprintln!(
        "resumed from {path}: engine {}, {} interactions already consumed",
        sim.engine_choice(),
        sim.interactions()
    );
    let result = sim.run_to_consensus(budget);
    eprintln!(
        "finished after {} interactions (parallel time {:.1}); consensus: {}",
        result.interactions(),
        result.parallel_time(),
        result.reached_consensus()
    );
    if let Some(winner) = result.winner() {
        eprintln!("winner: {winner}");
    }
    let snap = run_metrics_snapshot(&result);
    print_engine_metrics(&snap);
    if let Err(e) = emit_telemetry(tel, opts, &snap) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Runs one baseline sampling dynamic through the sequential sampler on the
/// requested backend, feeding the trajectory recorder.
///
/// `--engine exact` steps per activation; `--engine batched` verifies the
/// dynamic opts into geometric skip-ahead first, so a dynamic without the
/// closed-form hooks is a clear diagnostic rather than a silent fallback.
fn run_sampling_dynamic<D: SamplingDynamics>(
    dynamics: D,
    config: Configuration,
    seed: SimSeed,
    engine: EngineChoice,
    budget: u64,
    trajectory: &mut Trajectory,
) -> Result<RunResult, String> {
    let name = dynamics.name().to_string();
    let mut sim = SequentialSampler::try_new(dynamics, config, seed).map_err(|e| e.to_string())?;
    let stop = StopCondition::consensus().or_max_interactions(budget);
    eprintln!("dynamic: {name}; step engine: {engine}");
    let result = match engine {
        EngineChoice::Exact => sim.run_recorded(stop, trajectory),
        EngineChoice::Batched => {
            sim.require_skip_ahead().map_err(|e| {
                format!(
                    "{e}: the {name} dynamic provides no closed-form skip-ahead hooks \
                     — use --engine exact"
                )
            })?;
            sim.run_engine_recorded(stop, trajectory)
        }
        other => unreachable!("parse_args rejects {other} for sampling dynamics"),
    };
    // Engine counters (rejection misses, law maintenance) are printed by the
    // caller through `print_engine_metrics`, the same formatter the USD and
    // ensemble paths use.
    Ok(result)
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
    let scenario = match pp_service::ScenarioConfig::from_json(&text) {
        Ok(scenario) => scenario,
        Err(message) => {
            eprintln!("{path}: {message}");
            return ExitCode::from(2);
        }
    };
    match pp_service::run_scenario(&scenario, pp_service::RunControl::default()) {
        Ok(pp_service::RunVerdict::Finished(outcome)) => {
            println!("{}", pp_service::result_json(&outcome));
            ExitCode::SUCCESS
        }
        Ok(pp_service::RunVerdict::Interrupted(_)) => {
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
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut spec = InitialConfig::new(opts.n, opts.k);
    if let Some(mult) = opts.additive_mult {
        spec = spec.additive_bias_in_sqrt_n_log_n(mult);
    }
    if let Some(factor) = opts.mult_bias {
        spec = spec.multiplicative_bias(factor);
    }
    if opts.undecided > 0.0 {
        spec = spec.undecided_fraction(opts.undecided);
    }
    spec = spec.engine(opts.engine);
    if let Some(shards) = opts.shards {
        spec = spec.shards(shards);
    }
    if let Some(fidelity) = opts.fidelity_override() {
        spec = spec.fidelity(fidelity);
    }
    if opts.replicas > 1 {
        spec = spec.replicas(opts.replicas);
    }
    if let Some(threads) = opts.threads {
        spec = spec.threads(threads);
    }
    // One registry for the whole run: enabled only when an export sink was
    // requested, so the default path keeps the disabled (no-clock) handle.
    // Telemetry never consumes RNG either way — the trajectory is identical.
    let tel = if opts.trace.is_some() || opts.metrics {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    let seed = SimSeed::from_u64(opts.seed);
    let n_f = opts.n as f64;
    let budget = (400.0 * opts.k as f64 * n_f * n_f.ln()) as u64 + 10_000_000;
    let sample_period = (budget / opts.samples).max(1).min(opts.n.max(1));

    if let Some(path) = &opts.resume {
        // A resumed run rebuilds nothing from the workload spec — the
        // engine state, RNG and initial configuration all ride in the
        // checkpoint.
        return run_resume(path, &spec, &opts, budget, &tel);
    }

    let config = match spec.build(seed) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("invalid configuration: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("initial configuration: {config}");

    if opts.replicas > 1 {
        // The workload spec owns the replica count and (validated) base
        // engine; parse_args already turned invalid nestings into early
        // diagnostics, so this rebuild cannot fail on the choice.
        let (config, choice) = match spec.build_ensemble(seed) {
            Ok(built) => built,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        let run_seed = seed.child(1);
        let outcome = if opts.dynamic == Dynamic::Usd {
            eprintln!(
                "step engine: lockstep ensemble of {} batched replicas",
                choice.replicas()
            );
            match UsdEnsemble::try_new(config, run_seed, choice) {
                Ok(mut ensemble) => {
                    ensemble.set_telemetry(tel.clone());
                    let start = Instant::now();
                    let outcome =
                        ensemble.run(StopCondition::consensus().or_max_interactions(budget));
                    Ok((outcome, start.elapsed().as_secs_f64()))
                }
                Err(e) => Err(e.to_string()),
            }
        } else {
            match opts.dynamic {
                Dynamic::Voter => run_sampling_ensemble(
                    Voter::new(opts.k),
                    config,
                    run_seed,
                    choice,
                    budget,
                    &tel,
                ),
                Dynamic::TwoChoices => run_sampling_ensemble(
                    TwoChoices::new(opts.k),
                    config,
                    run_seed,
                    choice,
                    budget,
                    &tel,
                ),
                Dynamic::ThreeMajority => run_sampling_ensemble(
                    ThreeMajority::new(opts.k),
                    config,
                    run_seed,
                    choice,
                    budget,
                    &tel,
                ),
                Dynamic::JMajority => run_sampling_ensemble(
                    JMajority::new(opts.k, opts.majority_samples),
                    config,
                    run_seed,
                    choice,
                    budget,
                    &tel,
                ),
                Dynamic::Median => run_sampling_ensemble(
                    MedianRule::new(opts.k),
                    config,
                    run_seed,
                    choice,
                    budget,
                    &tel,
                ),
                Dynamic::Usd => unreachable!("handled above"),
            }
        };
        return match outcome {
            Ok((outcome, elapsed)) => {
                print_ensemble_summary(&outcome, elapsed);
                if let Some(path) = &opts.output {
                    let json = ensemble_summary_json(&outcome, elapsed, &opts);
                    if let Err(e) = std::fs::write(path, json) {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("ensemble summary written to {path}");
                }
                if let Err(e) = emit_telemetry(&tel, &opts, &outcome.metrics_snapshot()) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::from(2)
            }
        };
    }

    let (result, trajectory, phases) = if opts.dynamic == Dynamic::Usd {
        let plan = shard_plan(&spec, &opts);
        let mut sim = UsdSimulator::with_engine_fidelity(
            config,
            seed.child(1),
            spec.engine_choice(),
            plan,
            spec.fidelity_config(),
        );
        sim.set_telemetry(tel.clone());
        if let Some(ckpt) = &opts.checkpoint {
            let every = checkpoint_cadence(&opts);
            sim.set_checkpoint_sink(ckpt, every);
            eprintln!("checkpointing to {ckpt} every {every} interactions");
        }
        match sim.engine_choice() {
            EngineChoice::Sharded => eprintln!(
                "step engine: sharded ({} shards, epoch {} interactions, {} threads)",
                plan.shards(),
                plan.epoch_for(opts.n),
                plan.resolved_threads(),
            ),
            EngineChoice::Hybrid => {
                let f = spec.fidelity_config();
                eprintln!(
                    "step engine: hybrid (promote ratio {}, demote ratio {}, mass floor {}, \
                     dwell {} interactions)",
                    f.promote_ratio,
                    f.demote_ratio,
                    f.mass_floor,
                    f.resolved_dwell(opts.n),
                );
            }
            choice => eprintln!("step engine: {choice}"),
        }
        let mut recorder = pp_core::recorder::PairRecorder::new(
            Trajectory::sampled_every(sample_period, 1.0),
            PhaseTracker::new(1.0),
        );
        let result = sim.run_recorded(
            StopCondition::consensus().or_max_interactions(budget),
            &mut recorder,
        );
        (result, recorder.first, Some(recorder.second))
    } else {
        let mut trajectory = Trajectory::sampled_every(sample_period, 1.0);
        let run_seed = seed.child(1);
        let engine = opts.engine;
        let run = match opts.dynamic {
            Dynamic::Voter => run_sampling_dynamic(
                Voter::new(opts.k),
                config,
                run_seed,
                engine,
                budget,
                &mut trajectory,
            ),
            Dynamic::TwoChoices => run_sampling_dynamic(
                TwoChoices::new(opts.k),
                config,
                run_seed,
                engine,
                budget,
                &mut trajectory,
            ),
            Dynamic::ThreeMajority => run_sampling_dynamic(
                ThreeMajority::new(opts.k),
                config,
                run_seed,
                engine,
                budget,
                &mut trajectory,
            ),
            Dynamic::JMajority => run_sampling_dynamic(
                JMajority::new(opts.k, opts.majority_samples),
                config,
                run_seed,
                engine,
                budget,
                &mut trajectory,
            ),
            Dynamic::Median => run_sampling_dynamic(
                MedianRule::new(opts.k),
                config,
                run_seed,
                engine,
                budget,
                &mut trajectory,
            ),
            Dynamic::Usd => unreachable!("handled above"),
        };
        match run {
            Ok(result) => (result, trajectory, None),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
        }
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
    if let Some(phases) = phases {
        for phase in Phase::ALL {
            if let Some(t) = phases.times().hitting_time(phase) {
                eprintln!("T{} = {t}", phase.number());
            }
        }
    }
    let snap = run_metrics_snapshot(&result);
    print_engine_metrics(&snap);
    if let Err(e) = emit_telemetry(&tel, &opts, &snap) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }

    let csv = trajectory.to_csv();
    match &opts.output {
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
