//! Schema-checks the service layer's streamed artifacts, so CI can assert
//! that `pp_serve`'s progress streams and result documents stay loadable
//! PR over PR (the service-side sibling of `telemetry_check`).
//!
//! ```text
//! service_check [--events events.ndjson] [--min-progress N]
//!               [--result result.json]
//! ```
//!
//! * `--events` — a file of streamed event lines (a `watch` transcript).
//!   Every non-empty line must satisfy the protocol schema
//!   (`pp_service::protocol::check_progress_line`), sequence numbers must
//!   be dense from 0, the stream must end in exactly one terminal `done`
//!   event, and at least `--min-progress` progress snapshots must precede
//!   it (default 1).
//! * `--result` — a canonical result document (a `result` reply's payload,
//!   the document of a `jobs.log` result line, or `usd_run --scenario`
//!   output), checked
//!   with `pp_service::protocol::check_result_doc`.
//!
//! Exits 0 when every given artifact passes, 1 with a diagnostic per
//! failure otherwise.  At least one artifact flag is required.

use pp_core::json::Json;
use pp_service::protocol::{check_progress_line, check_result_doc};
use std::process::ExitCode;

struct Options {
    events: Option<String>,
    min_progress: u64,
    result: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        events: None,
        min_progress: 1,
        result: None,
    };
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
            "--events" => opts.events = Some(value(&mut i)?),
            "--min-progress" => {
                opts.min_progress = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--min-progress: {e}"))?;
            }
            "--result" => opts.result = Some(value(&mut i)?),
            "--help" | "-h" => {
                return Err("usage: service_check [--events <ndjson transcript>] \
                     [--min-progress <count>] [--result <result json>]"
                    .to_string())
            }
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    if opts.events.is_none() && opts.result.is_none() {
        return Err("give at least one of --events, --result".to_string());
    }
    Ok(opts)
}

fn check_events(path: &str, min_progress: u64) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut progress = 0_u64;
    let mut done = 0_u64;
    let mut expected_seq = 0_u64;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if done > 0 {
            return Err(format!(
                "{path}:{}: events continue past the terminal line",
                lineno + 1
            ));
        }
        check_progress_line(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let doc = Json::parse(line).expect("validated lines parse");
        let seq = doc
            .get("seq")
            .and_then(Json::as_u64)
            .expect("validated seq");
        if seq != expected_seq {
            return Err(format!(
                "{path}:{}: sequence jumps to {seq} (expected {expected_seq})",
                lineno + 1
            ));
        }
        expected_seq += 1;
        match doc.get("event").and_then(Json::as_str) {
            Some("progress") => progress += 1,
            Some("done") => done += 1,
            _ => unreachable!("validator admits only progress/done"),
        }
    }
    if done != 1 {
        return Err(format!(
            "{path}: stream must end in exactly one terminal event (saw {done})"
        ));
    }
    if progress < min_progress {
        return Err(format!(
            "{path}: only {progress} progress events (needed at least {min_progress})"
        ));
    }
    Ok(())
}

fn check_result_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Accept either a bare result document or a `result` reply that embeds
    // one — the two places CI captures results from.
    let doc = Json::parse(text.trim()).map_err(|e| format!("{path}: not JSON: {e}"))?;
    let payload = match doc.get("result") {
        Some(inner) if inner.as_u64() != Some(1) => inner.clone(),
        _ => doc,
    };
    check_result_doc(&payload).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    if let Some(path) = &opts.events {
        if let Err(message) = check_events(path, opts.min_progress) {
            eprintln!("{message}");
            failed = true;
        }
    }
    if let Some(path) = &opts.result {
        if let Err(message) = check_result_file(path) {
            eprintln!("{message}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
