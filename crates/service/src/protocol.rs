//! The NDJSON wire protocol and event-line formats.
//!
//! Every message — request, response, streamed event — is one JSON object
//! per line.  The same protocol runs over `pp_serve`'s stdin/stdout and its
//! Unix domain socket.
//!
//! ## Requests
//!
//! | op         | fields                         | effect                              |
//! |------------|--------------------------------|-------------------------------------|
//! | `submit`   | `scenario` (object), `priority`| queue a job, reply `{"ok":true,"job":N}` |
//! | `status`   | `job`                          | one job's state snapshot            |
//! | `result`   | `job`                          | the canonical result document       |
//! | `cancel`   | `job`                          | request cancellation                |
//! | `list`     | —                              | all jobs, id order                  |
//! | `watch`    | `job`, optional `from`         | stream events until terminal        |
//! | `wait`     | `job`                          | block until terminal, reply status  |
//! | `shutdown` | —                              | graceful server stop                |
//!
//! ## Responses and events
//!
//! Replies carry `"ok": true` (plus op-specific fields) or
//! `{"ok":false,"error":"..."}`.  `watch` streams sequence-numbered lines:
//! `{"event":"progress","job":N,"seq":K,...}` snapshots and one terminal
//! `{"event":"done","job":N,"seq":K,"state":"done",...}` line — the
//! [`check_progress_line`] / [`check_result_doc`] validators pin both
//! schemas (CI runs them over live streams via `service_check`).

use crate::job::{JobId, JobRecord, JobState};
use crate::json::{write_f64, write_json_string, write_u64, Json, ObjBuilder};
use crate::runner::ProgressEvent;
use crate::scenario::ScenarioConfig;
use pp_core::MetricsSnapshot;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Queue a scenario.
    Submit {
        /// The scenario to run.
        scenario: ScenarioConfig,
        /// Scheduling priority (default 0).
        priority: i64,
    },
    /// One job's state snapshot.
    Status(JobId),
    /// One job's canonical result document.
    Result(JobId),
    /// Request cancellation.
    Cancel(JobId),
    /// Every job, in id order.
    List,
    /// Stream a job's events from a sequence number until it is terminal.
    Watch(JobId, u64),
    /// Block until a job is terminal, then reply with its status.
    Wait(JobId),
    /// Graceful server stop.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a named diagnostic for malformed JSON, unknown ops and missing
/// or mistyped fields.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a string \"op\" field".to_string())?;
    let job = |doc: &Json| -> Result<JobId, String> {
        doc.get("job")
            .and_then(Json::as_u64)
            .map(JobId)
            .ok_or_else(|| format!("op {op:?} needs an unsigned integer \"job\" field"))
    };
    match op {
        "submit" => {
            let scenario = doc
                .get("scenario")
                .ok_or_else(|| "op \"submit\" needs a \"scenario\" object".to_string())?;
            let scenario = ScenarioConfig::from_json_value(scenario)?;
            let priority = match doc.get("priority") {
                None => 0,
                Some(Json::U64(v)) => {
                    i64::try_from(*v).map_err(|_| "\"priority\" does not fit an i64".to_string())?
                }
                Some(Json::I64(v)) => *v,
                Some(_) => return Err("\"priority\" must be an integer".to_string()),
            };
            Ok(Request::Submit { scenario, priority })
        }
        "status" => Ok(Request::Status(job(&doc)?)),
        "result" => Ok(Request::Result(job(&doc)?)),
        "cancel" => Ok(Request::Cancel(job(&doc)?)),
        "list" => Ok(Request::List),
        "watch" => {
            let from = match doc.get("from") {
                None => 0,
                Some(value) => value
                    .as_u64()
                    .ok_or_else(|| "\"from\" must be an unsigned integer".to_string())?,
            };
            Ok(Request::Watch(job(&doc)?, from))
        }
        "wait" => Ok(Request::Wait(job(&doc)?)),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown op {other:?} (expected submit, status, result, cancel, list, watch, wait, \
             or shutdown)"
        )),
    }
}

/// Builds the error reply line (no trailing newline).
#[must_use]
pub fn error_reply(message: &str) -> String {
    ObjBuilder::new()
        .field("ok", Json::Bool(false))
        .field("error", Json::Str(message.to_string()))
        .build()
        .to_json()
}

/// Builds an `{"ok":true,...}` reply from extra fields.
#[must_use]
pub fn ok_reply(fields: Vec<(String, Json)>) -> String {
    let mut builder = ObjBuilder::new().field("ok", Json::Bool(true));
    for (key, value) in fields {
        builder = builder.field(&key, value);
    }
    builder.build().to_json()
}

/// Renders one streamed progress line (no trailing newline): the event,
/// job and sequence number, then whichever of `interactions`, `supports`,
/// `undecided` and `metrics` the event carries.  A running job emits one
/// per pause, so the line is written straight into its buffer; its bytes
/// are what the [`Json`] writer gives for the same fields.
#[must_use]
pub fn progress_event(id: JobId, seq: u64, event: &ProgressEvent) -> String {
    // A job keeps its lines: start at 128 bytes, doubling to 256 for a
    // line with counters, as a growing `Json::to_json` buffer would.
    let mut out = String::with_capacity(128);
    out.push_str("{\"event\":\"progress\",\"job\":");
    write_u64(&mut out, id.0);
    out.push_str(",\"seq\":");
    write_u64(&mut out, seq);
    if let Some(interactions) = event.interactions {
        out.push_str(",\"interactions\":");
        write_u64(&mut out, interactions);
    }
    if let Some(supports) = &event.supports {
        out.push_str(",\"supports\":[");
        for (i, &support) in supports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_u64(&mut out, support);
        }
        out.push(']');
    }
    if let Some(undecided) = event.undecided {
        out.push_str(",\"undecided\":");
        write_u64(&mut out, undecided);
    }
    if let Some(metrics) = &event.metrics {
        out.push_str(",\"metrics\":");
        write_metrics(&mut out, metrics);
    }
    out.push('}');
    out
}

/// Writes a metrics snapshot as nested objects: counter, gauge and
/// histogram maps keyed by metric name, a histogram as its count and sum.
fn write_metrics(out: &mut String, metrics: &MetricsSnapshot) {
    /// Writes `"name":` after a comma unless it is the first entry.
    fn key(out: &mut String, i: usize, name: &str) {
        if i > 0 {
            out.push(',');
        }
        write_json_string(name, out);
        out.push(':');
    }
    out.push_str("{\"counters\":{");
    for (i, (name, value)) in metrics.counters().iter().enumerate() {
        key(out, i, name);
        write_u64(out, *value);
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, value)) in metrics.gauges().iter().enumerate() {
        key(out, i, name);
        out.push_str(&write_f64(*value));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, histogram)) in metrics.histograms().iter().enumerate() {
        key(out, i, name);
        out.push_str("{\"count\":");
        write_u64(out, histogram.count);
        out.push_str(",\"sum\":");
        write_u64(out, histogram.sum);
        out.push('}');
    }
    out.push_str("}}");
}

/// Renders the terminal event line for a job (no trailing newline).  Done
/// jobs embed their canonical result document; failed jobs their error.
/// `result` is spliced in as it is, so it must be canonical JSON — what
/// [`crate::runner::result_json`] writes and a job log stores verbatim.
#[must_use]
pub fn done_event(record: &JobRecord, seq: u64, result: Option<&str>) -> String {
    let mut line = ObjBuilder::new()
        .field("event", Json::Str("done".to_string()))
        .field("job", Json::U64(record.id.0))
        .field("seq", Json::U64(seq))
        .field("state", Json::Str(record.state.name().to_string()))
        .opt("error", record.error.clone().map(Json::Str))
        .build()
        .to_json();
    if let Some(result) = result {
        line.pop();
        line.push_str(",\"result\":");
        line.push_str(result);
        line.push('}');
    }
    line
}

/// Validates one streamed event line against the protocol schema.
///
/// # Errors
///
/// Names the first schema violation.
pub fn check_progress_line(line: &str) -> Result<(), String> {
    let doc = Json::parse(line).map_err(|e| format!("event line is not JSON: {e}"))?;
    let event = doc
        .get("event")
        .and_then(Json::as_str)
        .ok_or_else(|| "event line needs a string \"event\" field".to_string())?;
    doc.get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| "event line needs an unsigned integer \"job\" field".to_string())?;
    doc.get("seq")
        .and_then(Json::as_u64)
        .ok_or_else(|| "event line needs an unsigned integer \"seq\" field".to_string())?;
    match event {
        "progress" => {
            if let Some(supports) = doc.get("supports") {
                let supports = supports
                    .as_array()
                    .ok_or_else(|| "\"supports\" must be an array".to_string())?;
                if !supports.iter().all(|v| v.as_u64().is_some()) {
                    return Err("\"supports\" entries must be unsigned integers".to_string());
                }
            }
            if let Some(undecided) = doc.get("undecided") {
                undecided
                    .as_u64()
                    .ok_or_else(|| "\"undecided\" must be an unsigned integer".to_string())?;
            }
            if let Some(metrics) = doc.get("metrics") {
                for section in ["counters", "gauges", "histograms"] {
                    metrics
                        .get(section)
                        .and_then(Json::as_object)
                        .ok_or_else(|| format!("\"metrics\" needs a {section:?} object"))?;
                }
            }
            Ok(())
        }
        "done" => {
            let state = JobState::parse(
                doc.get("state")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "\"done\" event needs a string \"state\" field".to_string())?,
            )?;
            if !state.is_terminal() {
                return Err(format!("\"done\" event carries non-terminal state {state}"));
            }
            match state {
                JobState::Done => check_result_doc(
                    doc.get("result")
                        .ok_or_else(|| "done jobs must embed their \"result\"".to_string())?,
                ),
                JobState::Failed => doc
                    .get("error")
                    .and_then(Json::as_str)
                    .map(|_| ())
                    .ok_or_else(|| "failed jobs must carry a string \"error\"".to_string()),
                _ => Ok(()),
            }
        }
        other => Err(format!(
            "unknown event kind {other:?} (expected progress or done)"
        )),
    }
}

/// Validates a canonical result document (the payload of `result` replies,
/// `result <id>` lines of a state directory's `jobs.log`, `done` events and
/// `usd_run --scenario` output).
///
/// # Errors
///
/// Names the first schema violation.
pub fn check_result_doc(doc: &Json) -> Result<(), String> {
    fn check_run(run: &Json) -> Result<(), String> {
        let outcome = run
            .get("outcome")
            .and_then(Json::as_str)
            .ok_or_else(|| "run needs a string \"outcome\"".to_string())?;
        if !matches!(
            outcome,
            "consensus" | "opinion-settled" | "budget-exhausted"
        ) {
            return Err(format!("unknown run outcome {outcome:?}"));
        }
        run.get("interactions")
            .and_then(Json::as_u64)
            .ok_or_else(|| "run needs an unsigned integer \"interactions\"".to_string())?;
        run.get("parallel_time")
            .and_then(Json::as_f64)
            .ok_or_else(|| "run needs a numeric \"parallel_time\"".to_string())?;
        let fin = run
            .get("final")
            .ok_or_else(|| "run needs a \"final\" object".to_string())?;
        let supports = fin
            .get("supports")
            .and_then(Json::as_array)
            .ok_or_else(|| "\"final\" needs a \"supports\" array".to_string())?;
        if supports.is_empty() || !supports.iter().all(|v| v.as_u64().is_some()) {
            return Err(
                "\"final.supports\" must be a non-empty unsigned-integer array".to_string(),
            );
        }
        fin.get("undecided")
            .and_then(Json::as_u64)
            .ok_or_else(|| "\"final\" needs an unsigned integer \"undecided\"".to_string())?;
        Ok(())
    }
    if doc.get("result").and_then(Json::as_u64) != Some(1) {
        return Err("result document must carry \"result\": 1".to_string());
    }
    match doc.get("mode").and_then(Json::as_str) {
        Some("single") => check_run(
            doc.get("run")
                .ok_or_else(|| "single results need a \"run\" object".to_string())?,
        ),
        Some("ensemble") => {
            let replicas = doc
                .get("replicas")
                .and_then(Json::as_u64)
                .ok_or_else(|| "ensemble results need a \"replicas\" count".to_string())?;
            let results = doc
                .get("results")
                .and_then(Json::as_array)
                .ok_or_else(|| "ensemble results need a \"results\" array".to_string())?;
            if results.len() as u64 != replicas {
                return Err(format!(
                    "\"results\" holds {} runs but \"replicas\" says {replicas}",
                    results.len()
                ));
            }
            results.iter().try_for_each(check_run)
        }
        _ => Err("result document needs \"mode\": \"single\" or \"ensemble\"".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_with_named_diagnostics() {
        let submit = parse_request(
            r#"{"op":"submit","scenario":{"scenario":1,"seed":3,"n":500,"k":3,"dynamic":"usd","replicas":1,"samples":400},"priority":2}"#,
        )
        .unwrap();
        let Request::Submit { scenario, priority } = submit else {
            panic!("expected a submit request");
        };
        assert_eq!(priority, 2);
        assert_eq!(scenario.seed, 3);
        assert_eq!(scenario.population, 500);

        assert_eq!(
            parse_request(r#"{"op":"status","job":4}"#).unwrap(),
            Request::Status(JobId(4))
        );
        assert_eq!(
            parse_request(r#"{"op":"watch","job":4,"from":10}"#).unwrap(),
            Request::Watch(JobId(4), 10)
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert!(parse_request(r#"{"op":"status"}"#)
            .unwrap_err()
            .contains("\"job\""));
        assert!(parse_request(r#"{"op":"poke"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(parse_request("not json")
            .unwrap_err()
            .contains("malformed request"));
    }

    #[test]
    fn event_lines_satisfy_their_own_validator() {
        let progress = progress_event(
            JobId(3),
            0,
            &ProgressEvent {
                interactions: Some(500),
                supports: Some(vec![10, 20]),
                undecided: Some(5),
                metrics: None,
            },
        );
        check_progress_line(&progress).unwrap();

        let record = JobRecord {
            id: JobId(3),
            priority: 0,
            state: JobState::Failed,
            scenario: ScenarioConfig::new(100, 2),
            error: Some("boom".to_string()),
        };
        check_progress_line(&done_event(&record, 1, None)).unwrap();
        assert!(check_progress_line(r#"{"event":"progress","job":1}"#).is_err());
        assert!(
            check_progress_line(r#"{"event":"done","job":1,"seq":0,"state":"queued"}"#).is_err()
        );
    }

    #[test]
    fn progress_lines_are_what_the_json_writer_gives_for_their_fields() {
        // What `progress_event` rendered before it wrote the line directly.
        let tree = |id: JobId, seq: u64, event: &ProgressEvent| {
            let metrics = event.metrics.as_ref().map(|m| {
                let map = |pairs: Vec<(String, Json)>| Json::Obj(pairs);
                ObjBuilder::new()
                    .field(
                        "counters",
                        map(m
                            .counters()
                            .iter()
                            .map(|(n, v)| (n.clone(), Json::U64(*v)))
                            .collect()),
                    )
                    .field(
                        "gauges",
                        map(m
                            .gauges()
                            .iter()
                            .map(|(n, v)| (n.clone(), Json::F64(*v)))
                            .collect()),
                    )
                    .field(
                        "histograms",
                        map(m
                            .histograms()
                            .iter()
                            .map(|(n, h)| {
                                let h = ObjBuilder::new()
                                    .field("count", Json::U64(h.count))
                                    .field("sum", Json::U64(h.sum))
                                    .build();
                                (n.clone(), h)
                            })
                            .collect()),
                    )
                    .build()
            });
            ObjBuilder::new()
                .field("event", Json::Str("progress".to_string()))
                .field("job", Json::U64(id.0))
                .field("seq", Json::U64(seq))
                .opt("interactions", event.interactions.map(Json::U64))
                .opt(
                    "supports",
                    event
                        .supports
                        .as_ref()
                        .map(|s| Json::Arr(s.iter().map(|&v| Json::U64(v)).collect())),
                )
                .opt("undecided", event.undecided.map(Json::U64))
                .opt("metrics", metrics)
                .build()
                .to_json()
        };
        let tel = pp_core::Telemetry::enabled();
        tel.counter("checkpoint.captures").add(62);
        tel.counter("weird \"name\"\n").add(u64::MAX);
        tel.gauge("ratio").set(0.1 + 0.2);
        tel.gauge("nan").set(f64::NAN);
        tel.histogram("latency_ns").record(1_234);
        tel.histogram("latency_ns").record(7);
        let full = ProgressEvent {
            interactions: Some(u64::MAX),
            supports: Some(vec![0, 17, 1 << 40]),
            undecided: Some(3),
            metrics: Some(tel.snapshot()),
        };
        let empty_metrics = ProgressEvent {
            metrics: Some(pp_core::Telemetry::enabled().snapshot()),
            ..full.clone()
        };
        let bare = ProgressEvent {
            interactions: None,
            supports: Some(Vec::new()),
            undecided: None,
            metrics: None,
        };
        for event in [full, empty_metrics, bare] {
            let line = progress_event(JobId(9), 4, &event);
            assert_eq!(line, tree(JobId(9), 4, &event));
            check_progress_line(&line).unwrap();
        }
    }

    #[test]
    fn done_events_splice_the_result_as_the_parse_and_reencode_did() {
        use crate::runner::{result_json, run_scenario, RunControl, RunVerdict};
        use crate::scenario::Dynamic;
        use pp_core::EngineChoice;
        // What `done_event` rendered before it spliced: the result parsed
        // and re-encoded as the last field.
        let reencoded = |record: &JobRecord, seq: u64, result: &str| {
            ObjBuilder::new()
                .field("event", Json::Str("done".to_string()))
                .field("job", Json::U64(record.id.0))
                .field("seq", Json::U64(seq))
                .field("state", Json::Str(record.state.name().to_string()))
                .opt("error", record.error.clone().map(Json::Str))
                .field("result", Json::parse(result).unwrap())
                .build()
                .to_json()
        };
        let base = ScenarioConfig::new(400, 3).with_seed(4);
        let scenarios = [
            base.with_engine(EngineChoice::Exact),
            base.with_engine(EngineChoice::Batched),
            base.with_engine(EngineChoice::Sharded).with_shards(2),
            base.with_engine(EngineChoice::MeanField),
            ScenarioConfig::new(4_000, 3)
                .with_seed(4)
                .with_engine(EngineChoice::Hybrid),
            base.with_replicas(3),
            base.with_dynamic(Dynamic::ThreeMajority),
            base.with_dynamic(Dynamic::Voter)
                .with_engine(EngineChoice::Exact),
        ];
        for scenario in scenarios {
            let RunVerdict::Finished(outcome) =
                run_scenario(&scenario, RunControl::default()).unwrap()
            else {
                panic!("an uninterruptible run finishes");
            };
            let result = result_json(&outcome);
            let record = JobRecord {
                id: JobId(17),
                priority: 0,
                state: JobState::Done,
                scenario,
                error: None,
            };
            let line = done_event(&record, 9, Some(&result));
            assert_eq!(
                line,
                reencoded(&record, 9, &result),
                "{}",
                scenario.to_json()
            );
            check_progress_line(&line).unwrap();
        }
    }

    #[test]
    fn result_docs_validate_by_schema() {
        let good = r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":10,"parallel_time":0.5,"winner":0,"scheduler":null,"rejection_misses":null,"final":{"supports":[100,0],"undecided":0}}}"#;
        check_result_doc(&Json::parse(good).unwrap()).unwrap();
        let bad = r#"{"result":1,"mode":"ensemble","replicas":2,"results":[]}"#;
        assert!(check_result_doc(&Json::parse(bad).unwrap())
            .unwrap_err()
            .contains("replicas"));
    }
}
