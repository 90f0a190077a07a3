//! Job identity, lifecycle states and on-disk persistence records.
//!
//! A job is one queued [`ScenarioConfig`] with a priority.  Its lifecycle
//! is strictly `Queued → Running → {Done, Failed, Cancelled}`; a server
//! kill can park a `Running` job back on disk (with a checkpoint) so the
//! next [`crate::server::Server::open`] re-queues it — that re-queue is
//! invisible in the result, which is pinned bit-identical either way.
//!
//! Persistence layout (inside the server's state directory):
//!
//! * `jobs.log` — the [`JobLog`], appended one line per persisted change:
//!   a [`JobRecord`] (version, id, priority, state, scenario, and the
//!   failure message for failed jobs) as its version-1 JSON document, or
//!   `result <id> <document>` for a done job's canonical result
//!   ([`crate::runner::result_json`] bytes, stored verbatim so replaying a
//!   `result` request after a restart returns the identical bytes).  The
//!   last record line of a job is its state.  Opening the server rewrites
//!   the log to its live lines through [`pp_core::checkpoint::write_atomic`]
//!   (so `jobs.log.tmp` is its previous version), and keeps the lines it
//!   could not parse in `jobs.log.corrupt`.
//! * `ckpt-<id>.json` — a [`pp_core::checkpoint::CheckpointJournal`] for a
//!   job halted mid-run, removed when the job reaches a terminal state.

use crate::json::{Json, ObjBuilder};
use crate::scenario::ScenarioConfig;
use pp_core::checkpoint::write_atomic;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// The job-record format version.
pub const JOB_FORMAT_VERSION: u32 = 1;

/// A queue-unique job identifier (dense, starting at 1, in submission
/// order — ids double as FIFO sequence numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker.
    Queued,
    /// A worker is driving it.
    Running,
    /// Finished; the canonical result is available.
    Done,
    /// The scenario was rejected or the run errored; see the message.
    Failed,
    /// Cancelled before completion; it will not resume.
    Cancelled,
}

impl JobState {
    /// The canonical lowercase name (protocol and persistence spelling).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses a state name.
    ///
    /// # Errors
    ///
    /// Names the unknown state.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "failed" => Ok(JobState::Failed),
            "cancelled" => Ok(JobState::Cancelled),
            other => Err(format!(
                "unknown job state {other:?} (expected queued, running, done, failed, or \
                 cancelled)"
            )),
        }
    }

    /// Whether the state is terminal (no further transitions).
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The persisted job description.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job's identifier.
    pub id: JobId,
    /// Scheduling priority (higher first; ties run in submission order).
    pub priority: i64,
    /// Lifecycle state at the last persist.
    pub state: JobState,
    /// The scenario to run.
    pub scenario: ScenarioConfig,
    /// The failure message, for failed jobs.
    pub error: Option<String>,
}

impl JobRecord {
    /// Serializes the record as its version-1 JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        ObjBuilder::new()
            .field("job", Json::U64(u64::from(JOB_FORMAT_VERSION)))
            .field("id", Json::U64(self.id.0))
            .field("priority", priority_json(self.priority))
            .field("state", Json::Str(self.state.name().to_string()))
            .field("scenario", self.scenario.to_json_value())
            .opt("error", self.error.clone().map(Json::Str))
            .build()
            .to_json()
    }

    /// Parses a version-1 job record.
    ///
    /// # Errors
    ///
    /// Returns a named diagnostic for malformed or wrong-version records.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("malformed job record: {e}"))?;
        let version = doc
            .get("job")
            .and_then(Json::as_u64)
            .ok_or_else(|| "missing \"job\" version field".to_string())?;
        if version != u64::from(JOB_FORMAT_VERSION) {
            return Err(format!(
                "unsupported job record version {version} (this build reads version 1)"
            ));
        }
        let id = doc
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| "\"id\" must be an unsigned integer".to_string())?;
        let priority = match doc.get("priority") {
            None => 0,
            Some(Json::U64(v)) => {
                i64::try_from(*v).map_err(|_| "\"priority\" does not fit an i64".to_string())?
            }
            Some(Json::I64(v)) => *v,
            Some(_) => return Err("\"priority\" must be an integer".to_string()),
        };
        let state = JobState::parse(
            doc.get("state")
                .and_then(Json::as_str)
                .ok_or_else(|| "\"state\" must be a string".to_string())?,
        )?;
        let scenario = ScenarioConfig::from_json_value(
            doc.get("scenario")
                .ok_or_else(|| "missing \"scenario\" object".to_string())?,
        )?;
        let error = doc.get("error").and_then(Json::as_str).map(str::to_string);
        Ok(JobRecord {
            id: JobId(id),
            priority,
            state,
            scenario,
            error,
        })
    }

    /// The resume-checkpoint file for a job.
    #[must_use]
    pub fn checkpoint_path_in(dir: &Path, id: JobId) -> PathBuf {
        dir.join(format!("ckpt-{}.json", id.0))
    }
}

/// Priorities serialize through the exact-integer JSON variants.
fn priority_json(priority: i64) -> Json {
    if priority >= 0 {
        Json::U64(priority as u64)
    } else {
        Json::I64(priority)
    }
}

/// The job log's file name inside a state directory.
pub const JOB_LOG: &str = "jobs.log";

/// The prefix of a result line.
const RESULT_PREFIX: &str = "result ";

/// A record's log line, newline included.
fn record_line(record: &JobRecord) -> String {
    record.to_json() + "\n"
}

/// A done job's result line, newline included.
fn result_line(id: JobId, result: &str) -> String {
    format!("{RESULT_PREFIX}{id} {result}\n")
}

/// The append-only job log of a state directory (see the module docs).
///
/// Each append is one `write` of whole lines to a handle opened at the
/// first append, so a kill at any byte leaves every earlier line whole
/// and at most a torn last line, which [`replay`] ignores.
#[derive(Debug)]
pub(crate) struct JobLog {
    path: PathBuf,
    /// The append handle; `None` before the first append and after a
    /// failed one.
    file: Option<File>,
    /// A failed write may have left part of a line: the next append
    /// starts with a newline so that part never merges with its lines.
    torn: bool,
    /// Appends and rewrites that failed.
    failures: u64,
}

impl JobLog {
    /// The log of state directory `dir`; nothing is opened yet.
    pub(crate) fn new(dir: &Path) -> Self {
        JobLog {
            path: dir.join(JOB_LOG),
            file: None,
            torn: false,
            failures: 0,
        }
    }

    /// The log file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Persisted changes that failed to reach the file.
    pub(crate) fn failures(&self) -> u64 {
        self.failures
    }

    /// Appends a record line.
    pub(crate) fn append_record(&mut self, record: &JobRecord) {
        self.append(&record_line(record));
    }

    /// Appends a done record and its result line with one write.
    pub(crate) fn append_done(&mut self, record: &JobRecord, result: &str) {
        self.append(&(record_line(record) + &result_line(record.id, result)));
    }

    /// Best effort: a failure is counted and drops the handle, and the job
    /// goes on in memory.
    fn append(&mut self, lines: &str) {
        let file = match self.file.take() {
            Some(file) => Ok(file),
            None => OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path),
        };
        let Ok(mut file) = file else {
            self.failures += 1;
            return;
        };
        let written = if self.torn {
            file.write_all(format!("\n{lines}").as_bytes())
        } else {
            file.write_all(lines.as_bytes())
        };
        if written.is_ok() {
            self.file = Some(file);
            self.torn = false;
        } else {
            self.failures += 1;
            self.torn = true;
        }
    }

    /// Replaces the log with `jobs`' live lines: each job's record, and
    /// the result of a done one.  Called before the first append.
    pub(crate) fn compact<'a>(
        &mut self,
        jobs: impl Iterator<Item = (&'a JobRecord, Option<&'a str>)>,
    ) {
        let mut text = String::new();
        for (record, result) in jobs {
            text.push_str(&record_line(record));
            if let Some(result) = result {
                text.push_str(&result_line(record.id, result));
            }
        }
        if write_atomic(&self.path, text.as_bytes()).is_err() {
            self.failures += 1;
        }
    }
}

/// A whole log line [`replay`] could not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BadLine {
    /// The 1-based line number.
    pub(crate) line: usize,
    /// Why it did not parse.
    pub(crate) reason: String,
    /// The line's bytes, newline excluded.
    pub(crate) bytes: Vec<u8>,
}

/// What a job log holds.
#[derive(Debug, Default)]
pub(crate) struct LogReplay {
    /// Each job's last record line, by id.
    pub(crate) records: BTreeMap<u64, JobRecord>,
    /// Each job's last result line, by id.
    pub(crate) results: BTreeMap<u64, String>,
    /// The whole lines that did not parse, in file order.
    pub(crate) bad: Vec<BadLine>,
    /// One past the highest id a whole line names, parsed or not (`0` when
    /// none does).
    pub(crate) next_id: u64,
}

/// Reads a job log's bytes.  Bytes after the last newline are a torn
/// append and are ignored; empty lines are skipped.
pub(crate) fn replay(bytes: &[u8]) -> LogReplay {
    let mut out = LogReplay::default();
    let Some(end) = bytes.iter().rposition(|&b| b == b'\n') else {
        return out;
    };
    for (i, line) in bytes[..end].split(|&b| b == b'\n').enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(id) = named_id(line) {
            out.next_id = out.next_id.max(id.saturating_add(1));
        }
        let text = std::str::from_utf8(line).map_err(|e| format!("not UTF-8: {e}"));
        let parsed = text.and_then(|text| match text.strip_prefix(RESULT_PREFIX) {
            Some(rest) => parse_result(rest).map(|(id, doc)| {
                out.results.insert(id, doc.to_string());
            }),
            None => JobRecord::from_json(text).map(|record| {
                out.records.insert(record.id.0, record);
            }),
        });
        if let Err(reason) = parsed {
            out.bad.push(BadLine {
                line: i + 1,
                reason,
                bytes: line.to_vec(),
            });
        }
    }
    out
}

/// Parses the `<id> <document>` rest of a result line.
fn parse_result(rest: &str) -> Result<(u64, &str), String> {
    let (id, doc) = rest
        .split_once(' ')
        .ok_or_else(|| "result line without a document".to_string())?;
    let id = id
        .parse::<u64>()
        .map_err(|_| format!("result line with a bad job id {id:?}"))?;
    Json::parse(doc).map_err(|e| format!("malformed result document: {e}"))?;
    Ok((id, doc))
}

/// The job id a line names, read from its start even when the rest does
/// not parse (a version-1 record line starts `{"job":1,"id":<id>`).
fn named_id(line: &[u8]) -> Option<u64> {
    let rest = line
        .strip_prefix(RESULT_PREFIX.as_bytes())
        .or_else(|| line.strip_prefix(br#"{"job":1,"id":"#))?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let record = JobRecord {
            id: JobId(7),
            priority: -3,
            state: JobState::Failed,
            scenario: ScenarioConfig::new(1_000, 4).with_seed(2),
            error: Some("invalid configuration: boom".to_string()),
        };
        let json = record.to_json();
        let back = JobRecord::from_json(&json).unwrap();
        assert_eq!(back, record);
        assert_eq!(back.to_json(), json);
    }

    fn record(id: u64, state: JobState) -> JobRecord {
        JobRecord {
            id: JobId(id),
            priority: 0,
            state,
            scenario: ScenarioConfig::new(100, 2).with_seed(id),
            error: None,
        }
    }

    #[test]
    fn replay_keeps_each_jobs_last_lines_and_names_the_bad_ones() {
        let text = [
            record_line(&record(3, JobState::Queued)),
            "\n".to_string(),
            record_line(&record(3, JobState::Done)),
            result_line(JobId(3), r#"{"a":1}"#),
            "result x {}\n".to_string(),
            "{\"job\":1,\"id\":9,\"pri\n".to_string(),
            // A torn append: ignored, and names no id.
            "{\"job\":1,\"id\":12".to_string(),
        ]
        .concat();
        let replayed = replay(text.as_bytes());
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.records[&3], record(3, JobState::Done));
        assert_eq!(replayed.results[&3], r#"{"a":1}"#);
        let bad: Vec<usize> = replayed.bad.iter().map(|b| b.line).collect();
        assert_eq!(bad, [5, 6]);
        assert_eq!(replayed.bad[1].bytes, b"{\"job\":1,\"id\":9,\"pri");
        assert_eq!(replayed.next_id, 10, "a bad line still reserves its id");
        assert_eq!(replay(b"{\"job\":1,\"id\":4").next_id, 0);
    }

    #[test]
    fn an_append_after_a_failed_one_starts_on_a_new_line() {
        let dir = std::env::temp_dir().join(format!("pp_service_job_log_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut log = JobLog::new(&dir);
        // The log path is a directory: the append fails and is counted.
        std::fs::create_dir(log.path()).unwrap();
        log.append_record(&record(1, JobState::Queued));
        assert_eq!(log.failures(), 1);
        std::fs::remove_dir(log.path()).unwrap();
        // A failed write that left part of its line behind.
        let partial = &record_line(&record(1, JobState::Running))[..20];
        std::fs::write(log.path(), partial).unwrap();
        log.torn = true;
        log.append_record(&record(1, JobState::Done));
        assert_eq!(log.failures(), 1);
        let replayed = replay(&std::fs::read(log.path()).unwrap());
        assert_eq!(replayed.records[&1], record(1, JobState::Done));
        assert_eq!(replayed.bad.len(), 1);
        assert_eq!(replayed.bad[0].bytes, partial.as_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn states_round_trip_by_name() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::parse(state.name()), Ok(state));
        }
        assert!(JobState::parse("paused").is_err());
    }
}
