//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <usd-paper-regimes|replica-ensembles|service-jobs> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root.  Inputs come from `--seed` alone; the
//! timed phase lasts about `--seconds`; every output is checked.  With
//! `--trace 0` the last stdout line carries the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of a separate traced phase, whose
//! spans are written to `.bench_out/` as a chrome trace.  End-to-end
//! timings are process CPU time scaled to the host's full CPU speed (see
//! `speed`).  See
//! `BENCHMARK.json` for why each workload exists.

mod common;
mod ensembles;
mod service;
mod speed;
mod trace;
mod usd_regimes;

use std::fmt::Write as _;
use std::process::ExitCode;

/// Where traces and service state directories go, relative to the
/// working directory.
pub const OUT_DIR: &str = ".bench_out";

/// How many times a run repeats its set-up at least; `setup_s` is the
/// median repetition at full host speed.
pub const SETUP_REPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("interactions_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_latency_s.p50", "s"),
    ("job_latency_s.p95", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

const PER_LAYER: [(&str, &str); 45] = [
    ("pp-core.engine.busy_s", "s"),
    ("pp-core.engine.events", "count"),
    ("pp-core.engine.nulls_skipped", "count"),
    ("pp-core.engine.event_fraction", "ratio"),
    ("pp-core.engine.ns_per_event", "ns"),
    ("pp-core.engine.rows_patched_fraction", "ratio"),
    ("pp-core.engine.table_refreshes", "count"),
    ("usd-core.hybrid.busy_s", "s"),
    ("usd-core.hybrid.switches", "count"),
    ("usd-core.hybrid.mean_field_fraction", "ratio"),
    ("consensus-dynamics.law.patches", "count"),
    ("consensus-dynamics.law.rebuilds", "count"),
    ("consensus-dynamics.law.fallback_rebuilds", "count"),
    ("consensus-dynamics.law.patched_fraction", "ratio"),
    ("consensus-dynamics.sampler.ns_per_event", "ns"),
    ("pp-core.ensemble.busy_s", "s"),
    ("pp-core.ensemble.rounds", "count"),
    ("pp-core.ensemble.shared_reuse_fraction", "ratio"),
    ("pp-core.ensemble.shared_derived", "count"),
    ("pp-core.ensemble.dormant_events", "count"),
    ("pp-core.ensemble.cache_evictions", "count"),
    ("pp-core.ensemble.vs_replica_loop", "x"),
    ("pp-core.parallel.speedup_2t", "x"),
    ("pp-core.checkpoint.captures", "count"),
    ("pp-core.checkpoint.bytes", "B"),
    ("pp-core.checkpoint.capture_us", "us"),
    ("pp-core.checkpoint.encode_us", "us"),
    ("pp-core.checkpoint.write_us", "us"),
    ("pp-core.checkpoint.decode_us", "us"),
    ("pp-core.checkpoint.restore_us", "us"),
    ("pp-service.scenario.parse_us", "us"),
    ("pp-service.server.submit_us", "us"),
    ("pp-service.server.queue_wait_s.p50", "s"),
    ("pp-service.server.queue_wait_s.p95", "s"),
    ("pp-service.server.run_s.p50", "s"),
    ("pp-service.server.run_s.p95", "s"),
    ("pp-service.server.persist_bytes", "B"),
    ("pp-service.protocol.event_us", "us"),
    ("pp-service.protocol.events_per_job", "count"),
    ("pp-service.runner.result_json_us", "us"),
    ("pp-workloads.builder.build_s", "s"),
    ("loadgen.lag_s.p50", "s"),
    ("loadgen.lag_s.max", "s"),
    ("ledger.unattributed_fraction", "ratio"),
    ("trace.overhead_fraction", "ratio"),
];

/// One run's tallies and metrics.  Failures and wrong outputs are printed
/// as they happen, so nothing fails silently.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn fail(&mut self, what: &str, err: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}: {err}");
    }

    pub fn wrong(&mut self, what: &str, err: &str) {
        self.wrong += 1;
        eprintln!("perfbench: WRONG {what}: {err}");
    }

    fn print(&self, trace: bool) -> Result<(), String> {
        let spec: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for line in &self.notes {
            println!("{line}");
        }
        let attempted = self.attempted.max(1) as f64;
        println!(
            "failed_ratio {:.6} ({} of {}), wrong_ratio {:.6} ({} of {})",
            self.failed as f64 / attempted,
            self.failed,
            self.attempted,
            self.wrong as f64 / attempted,
            self.wrong,
            self.attempted
        );
        let mut json = String::new();
        for (name, unit) in spec {
            let value = self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1);
            if value.is_none() && !trace {
                return Err(format!("the workload did not measure {name}"));
            }
            let v = value.filter(|v| v.is_finite()).unwrap_or(0.0);
            match value {
                Some(_) => println!("  {name:<42} {v:>18.6} {unit}"),
                None => println!("  {name:<42} {:>18} {unit}", "n/a"),
            }
            if !json.is_empty() {
                json.push(',');
            }
            let _ = write!(json, "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}");
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.wrong == 0,
            self.attempted.max(1),
            self.failed
        );
        Ok(())
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn escape(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '"' | '\\' => format!("\\{c}"),
            c if c.is_control() => format!("\\u{:04x}", c as u32),
            c => c.to_string(),
        })
        .collect()
}

fn command_line(program: &str, arg: &str) -> Option<String> {
    let out = std::process::Command::new(program).arg(arg).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit of a git checkout in the working directory, read from
/// `.git` directly (an exported tree has none).
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment stamp printed with every output.
fn stamp(args: &Args) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let fields = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .to_string(),
        ),
        (
            "nproc",
            command_line("nproc", "--all").unwrap_or_else(|| "unknown".to_string()),
        ),
        ("cpu_model", cpu_model.to_string()),
        (
            "rustc",
            command_line("rustc", "--version").unwrap_or_else(|| "unknown".to_string()),
        ),
        ("git_commit", git_commit()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release (lto = \"thin\", mirrors the root [profile.release])".to_string()
            },
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{}\"", escape(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = stamp(&args);
    println!("stamp {stamp}");
    let tracer = trace::Tracer::new(args.trace);
    let run = match args.workload.as_str() {
        "usd-paper-regimes" => usd_regimes::run(&args, &tracer),
        "replica-ensembles" => ensembles::run(&args, &tracer),
        "service-jobs" => service::run(&args, &tracer),
        other => Err(format!(
            "unknown workload {other:?} (usd-paper-regimes, replica-ensembles, service-jobs)"
        )),
    };
    let mut report = match run {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.set("peak_rss_mb", common::peak_rss_mb());
    if tracer.is_on() {
        let ledger = trace::Ledger::new(&tracer);
        ledger.print();
        report.set("ledger.unattributed_fraction", ledger.unattributed_fraction);
        let path = format!("{OUT_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, tracer.chrome_trace(&stamp)));
        match written {
            Ok(()) => println!("chrome trace written to {path}"),
            Err(e) => {
                eprintln!("perfbench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match report.print(args.trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
