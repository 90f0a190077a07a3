//! Schema-checks the observability artifacts `usd_run` emits, so CI can
//! assert that `--trace` and `--metrics` stay loadable PR over PR.
//!
//! ```text
//! telemetry_check [--trace trace.json] [--min-tids 2]
//!                 [--metrics metrics.json] [--run summary.json]
//! ```
//!
//! * `--trace` — a chrome-trace JSON (the `usd_run --trace` output).  Must
//!   hold a non-empty `traceEvents` array whose `"ph":"X"` complete events
//!   carry `name`/`pid`/`tid`/`ts`/`dur`, span at least `--min-tids`
//!   distinct tracks (coordinator plus workers), and nest properly per
//!   track: within one tid, spans sorted by start time either follow each
//!   other or contain each other — partial overlap means a corrupted trace
//!   Perfetto would render as garbage.
//! * `--metrics` — a file whose last non-empty line is the
//!   `{"metrics":{...}}` object `usd_run --metrics` prints on stdout; the
//!   metrics object must be present and non-empty.
//! * `--run` — a run/ensemble summary JSON (the `--output` document of an
//!   ensemble run) that must embed a non-empty `"metrics"` object, and
//!   whose deprecated flat `maintenance` alias must equal the snapshot's
//!   canonical values — the alias is derived from the snapshot, so a
//!   disagreement is a reporting bug, not formatting drift.
//!
//! Exits 0 when every given artifact passes, 1 with a diagnostic per
//! failure otherwise.  At least one artifact flag is required.

use pp_core::json::Json;
use std::process::ExitCode;

struct Options {
    trace: Option<String>,
    min_tids: usize,
    metrics: Option<String>,
    run: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        trace: None,
        min_tids: 2,
        metrics: None,
        run: None,
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
            "--trace" => opts.trace = Some(value(&mut i)?),
            "--min-tids" => {
                opts.min_tids = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--min-tids: {e}"))?
            }
            "--metrics" => opts.metrics = Some(value(&mut i)?),
            "--run" => opts.run = Some(value(&mut i)?),
            "--help" | "-h" => {
                return Err("usage: telemetry_check [--trace <chrome-trace json>] \
                     [--min-tids <count>] [--metrics <metrics json>] [--run <summary json>]"
                    .to_string())
            }
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    if opts.trace.is_none() && opts.metrics.is_none() && opts.run.is_none() {
        return Err("give at least one of --trace, --metrics, --run".to_string());
    }
    Ok(opts)
}

/// One `"ph":"X"` complete event, reduced to what the nesting check needs.
struct CompleteEvent {
    name: String,
    tid: u64,
    start: f64,
    end: f64,
}

/// Validates a chrome-trace document: required fields on every complete
/// event, at least `min_tids` distinct tracks, and proper nesting per track.
fn check_trace(text: &str, min_tids: usize) -> Result<String, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("trace has no \"traceEvents\" array")?;
    if events.is_empty() {
        return Err("\"traceEvents\" is empty".to_string());
    }
    let mut complete = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i} lacks \"ph\""))?;
        if ph != "X" {
            continue;
        }
        let f = |key: &str| -> Result<f64, String> {
            event
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("complete event {i} lacks numeric {key:?}"))
        };
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("complete event {i} lacks \"name\""))?;
        let (ts, dur) = (f("ts")?, f("dur")?);
        if f("pid")? <= 0.0 {
            return Err(format!("complete event {i} has a non-positive pid"));
        }
        if dur < 0.0 {
            return Err(format!("complete event {i} has negative duration"));
        }
        complete.push(CompleteEvent {
            name: name.to_string(),
            tid: f("tid")? as u64,
            start: ts,
            end: ts + dur,
        });
    }
    if complete.is_empty() {
        return Err("trace has no \"ph\":\"X\" complete events".to_string());
    }
    let mut tids: Vec<u64> = complete.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    if tids.len() < min_tids {
        return Err(format!(
            "trace spans {} track(s), expected at least {min_tids} (coordinator + workers)",
            tids.len()
        ));
    }
    // Per-track nesting: sorted by (start, widest-first), every span must
    // either start after the enclosing spans end or end within them.
    for &tid in &tids {
        let mut spans: Vec<&CompleteEvent> = complete.iter().filter(|e| e.tid == tid).collect();
        spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(b.end.total_cmp(&a.end)));
        let mut stack: Vec<&CompleteEvent> = Vec::new();
        for span in spans {
            while stack.last().is_some_and(|open| open.end <= span.start) {
                stack.pop();
            }
            if let Some(open) = stack.last() {
                if span.end > open.end {
                    return Err(format!(
                        "tid {tid}: span {:?} [{}, {}] partially overlaps enclosing {:?} [{}, {}]",
                        span.name, span.start, span.end, open.name, open.start, open.end
                    ));
                }
            }
            stack.push(span);
        }
    }
    Ok(format!(
        "{} complete events across {} tracks, properly nested",
        complete.len(),
        tids.len()
    ))
}

/// Validates that `doc` embeds a non-empty `"metrics"` object.
fn check_metrics_object(doc: &Json) -> Result<String, String> {
    match doc.get("metrics") {
        Some(Json::Obj(pairs)) if !pairs.is_empty() => {
            Ok(format!("metrics object with {} entries", pairs.len()))
        }
        Some(Json::Obj(_)) => Err("\"metrics\" object is empty".to_string()),
        Some(_) => Err("\"metrics\" is not an object".to_string()),
        None => Err("document has no \"metrics\" object".to_string()),
    }
}

/// Validates a run/ensemble summary document: the embedded `"metrics"`
/// snapshot must be non-empty, and every key of the deprecated flat
/// `maintenance` alias object must equal the canonical value inside the
/// snapshot.  An absent snapshot counter reads as 0, the
/// same default the alias writer uses.
fn check_run_document(doc: &Json) -> Result<String, String> {
    let detail = check_metrics_object(doc)?;
    let metric = |name: &str| {
        doc.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(Json::as_f64)
    };
    let mut aliases = 0usize;
    if let Some(Json::Obj(pairs)) = doc.get("maintenance") {
        for (key, value) in pairs {
            let Some(value) = value.as_f64() else {
                return Err(format!("maintenance alias {key:?} is not a number"));
            };
            let canonical = format!("maintenance.{key}");
            let snapshot = metric(&canonical).unwrap_or(0.0);
            if value != snapshot {
                return Err(format!(
                    "flat alias \"maintenance\".{key} = {value} disagrees with metrics \
                     {canonical:?} = {snapshot}"
                ));
            }
            aliases += 1;
        }
    }
    Ok(format!(
        "{detail}; {aliases} flat aliases match the snapshot"
    ))
}

/// Validates a `--metrics` capture: the last non-empty line must be the
/// `{"metrics":{...}}` object (tolerates stray preceding stdout lines).
fn check_metrics_file(text: &str) -> Result<String, String> {
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("metrics file is empty")?;
    check_metrics_object(&Json::parse(line)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let mut failures = 0u32;
    let mut check = |label: &str, path: &str, result: Result<String, String>| match result {
        Ok(detail) => eprintln!("ok: {label} {path}: {detail}"),
        Err(msg) => {
            eprintln!("FAIL: {label} {path}: {msg}");
            failures += 1;
        }
    };
    let read =
        |path: &String| std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"));
    if let Some(path) = &opts.trace {
        check(
            "trace",
            path,
            read(path).and_then(|text| check_trace(&text, opts.min_tids)),
        );
    }
    if let Some(path) = &opts.metrics {
        check(
            "metrics",
            path,
            read(path).and_then(|text| check_metrics_file(&text)),
        );
    }
    if let Some(path) = &opts.run {
        check(
            "run",
            path,
            read(path).and_then(|text| check_run_document(&Json::parse(&text)?)),
        );
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD_TRACE: &str = r#"{"displayTimeUnit":"ms","traceEvents":[
        {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"coordinator"}},
        {"name":"outer","cat":"pp","ph":"X","pid":1,"tid":0,"ts":0,"dur":100},
        {"name":"inner","cat":"pp","ph":"X","pid":1,"tid":0,"ts":10,"dur":20},
        {"name":"after","cat":"pp","ph":"X","pid":1,"tid":0,"ts":40,"dur":30},
        {"name":"work","cat":"pp","ph":"X","pid":1,"tid":1,"ts":5,"dur":50}]}"#;

    #[test]
    fn well_formed_traces_pass() {
        let detail = check_trace(GOOD_TRACE, 2).unwrap();
        assert!(detail.contains("4 complete events"));
        assert!(detail.contains("2 tracks"));
    }

    #[test]
    fn partial_overlap_on_one_track_is_rejected() {
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":1,"tid":0,"ts":0,"dur":50},
            {"name":"b","ph":"X","pid":1,"tid":0,"ts":30,"dur":40}]}"#;
        let err = check_trace(bad, 1).unwrap_err();
        assert!(err.contains("partially overlaps"), "{err}");
        // The same intervals on different tracks are fine (workers run
        // concurrently).
        let ok = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":1,"tid":1,"ts":0,"dur":50},
            {"name":"b","ph":"X","pid":1,"tid":2,"ts":30,"dur":40}]}"#;
        assert!(check_trace(ok, 2).is_ok());
    }

    #[test]
    fn missing_fields_and_thin_traces_are_rejected() {
        assert!(check_trace("{}", 1).unwrap_err().contains("traceEvents"));
        assert!(check_trace(r#"{"traceEvents":[]}"#, 1)
            .unwrap_err()
            .contains("empty"));
        let no_dur = r#"{"traceEvents":[{"name":"a","ph":"X","pid":1,"tid":0,"ts":0}]}"#;
        assert!(check_trace(no_dur, 1).unwrap_err().contains("dur"));
        // A single-track trace fails a min-tids=2 requirement.
        let single = r#"{"traceEvents":[{"name":"a","ph":"X","pid":1,"tid":0,"ts":0,"dur":1}]}"#;
        assert!(check_trace(single, 2).unwrap_err().contains("track"));
    }

    #[test]
    fn metrics_lines_and_run_documents_are_validated() {
        assert!(check_metrics_file("{\"metrics\":{\"a\":1}}\n").is_ok());
        // Stray stdout lines above the metrics line are tolerated; trailing
        // garbage after it is not.
        assert!(check_metrics_file("noise\n{\"metrics\":{\"a\":1}}\n").is_ok());
        assert!(check_metrics_file("{\"metrics\":{\"a\":1}}\nnoise\n").is_err());
        assert!(check_metrics_file("{\"metrics\":{}}").is_err());
        assert!(check_metrics_file("").is_err());
        let run = Json::parse(r#"{"tool":"usd_run","metrics":{"shard.epochs":3}}"#).unwrap();
        assert!(check_metrics_object(&run).is_ok());
        let bare = Json::parse(r#"{"tool":"usd_run"}"#).unwrap();
        assert!(check_metrics_object(&bare).is_err());
    }

    #[test]
    fn matching_flat_aliases_pass_the_run_check() {
        let doc = Json::parse(
            r#"{"metrics":{"maintenance.rows_patched":12,
                "maintenance.law_fallback_rebuilds":2},
                "maintenance":{"rows_patched":12,"law_fallback_rebuilds":2,"law_rebuilds":0}}"#,
        )
        .unwrap();
        let detail = check_run_document(&doc).unwrap();
        assert!(detail.contains("3 flat aliases match"), "{detail}");
        // A document without aliases (single-run summaries) still passes —
        // only aliases that are present must agree.
        let plain = Json::parse(r#"{"metrics":{"shard.epochs":3}}"#).unwrap();
        assert!(check_run_document(&plain)
            .unwrap()
            .contains("0 flat aliases"));
    }

    #[test]
    fn drifting_flat_aliases_fail_the_run_check() {
        // The maintenance object is compared key by key against the
        // dotted counters, including the fallback-rebuild split.
        let maintenance = Json::parse(
            r#"{"metrics":{"maintenance.law_fallback_rebuilds":2},
                "maintenance":{"law_fallback_rebuilds":1}}"#,
        )
        .unwrap();
        let err = check_run_document(&maintenance).unwrap_err();
        assert!(
            err.contains("law_fallback_rebuilds") && err.contains("disagrees"),
            "{err}"
        );
        // An alias with no snapshot counterpart must be zero, not dropped.
        let phantom =
            Json::parse(r#"{"metrics":{"x":1},"maintenance":{"law_rebuilds":5}}"#).unwrap();
        assert!(check_run_document(&phantom).is_err());
    }
}
