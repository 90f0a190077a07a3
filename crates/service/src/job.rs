//! Job identity, lifecycle states and on-disk persistence records.
//!
//! A job is one queued [`ScenarioConfig`] with a priority.  Its lifecycle
//! is strictly `Queued → Running → {Done, Failed, Cancelled}`; a server
//! kill can park a `Running` job back on disk (with a checkpoint) so the
//! next [`crate::server::Server::open`] re-queues it — that re-queue is
//! invisible in the result, which is pinned bit-identical either way.
//!
//! Persistence layout: a server's state directory holds one file,
//! `jobs.log` (plus `jobs.log.tmp`, the version a rewrite replaced, and
//! `jobs.log.corrupt` once a line was set aside).  The `JobLog` appends one
//! line per persisted change:
//!
//! * a [`JobRecord`] (version, id, priority, state, scenario, and the
//!   failure message for failed jobs) as its version-1 JSON document; a
//!   job's last record line is its state;
//! * `result <id> <checksum> <document>` for a done job's canonical result
//!   ([`crate::runner::result_json`] bytes, stored verbatim so replaying a
//!   `result` request after a restart returns the identical bytes; the
//!   checksum is the document's FNV-1a 64 hash as 16 lowercase hex
//!   digits, so a damaged document that still parses is never served);
//! * `ckpt <id> <checksum> <document>` for each checkpoint a running job
//!   captures (a [`pp_core::Checkpoint`] document; the checksum is the
//!   same FNV-1a 64 hash, taken over `<id> <document>` so that a capture
//!   is never read as another job's).  A job resumes from its last
//!   checkpoint line whose checksum holds.
//!
//! The live lines are each job's last record line, a done job's result
//! line and a job's last checkpoint line until it reaches a terminal
//! state.  The log is rewritten to them through
//! [`pp_core::checkpoint::write_atomic`] when the server opens, and while
//! it runs whenever the file has grown past twice their bytes plus
//! [`LOG_SLACK`], so its size stays bounded however many captures the
//! jobs take.  Opening keeps the lines it could not use in
//! `jobs.log.corrupt`: lines that do not parse, result and checkpoint lines
//! whose checksum is missing or wrong, results whose document fails
//! [`crate::protocol::check_result_doc`], and a running job's checkpoint
//! that is no checkpoint document.

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

/// The prefix of a checkpoint line.
const CKPT_PREFIX: &str = "ckpt ";

/// How many bytes beyond twice its live lines the job log may hold before
/// it is rewritten to them (see the module docs).
pub const LOG_SLACK: u64 = 1 << 20;

/// A record's log line, newline included.
fn record_line(record: &JobRecord) -> String {
    record.to_json() + "\n"
}

/// Folds `bytes` into an FNV-1a 64 hash.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The FNV-1a 64 hash a result line carries for its document.
fn checksum(doc: &str) -> u64 {
    fnv1a(0xcbf2_9ce4_8422_2325, doc.as_bytes())
}

/// A done job's result line, newline included: `result <id> <checksum>
/// <document>` (see the module docs).
#[must_use]
pub fn result_line(id: JobId, result: &str) -> String {
    format!("{RESULT_PREFIX}{id} {:016x} {result}\n", checksum(result))
}

/// The FNV-1a 64 hash a checkpoint line carries: over `<id> <document>`.
fn ckpt_checksum(id: &str, doc: &str) -> u64 {
    fnv1a(fnv1a(checksum(id), b" "), doc.as_bytes())
}

/// Writes a checkpoint line into `line` (emptied first), newline
/// included: `ckpt <id> <checksum> <document>` (see the module docs).
pub fn write_ckpt_line(line: &mut String, id: JobId, document: &str) {
    use std::fmt::Write as _;
    line.clear();
    let _ = write!(line, "{CKPT_PREFIX}{id}");
    let sum = ckpt_checksum(&line[CKPT_PREFIX.len()..], document);
    let _ = write!(line, " {sum:016x} ");
    line.push_str(document);
    line.push('\n');
}

/// The bytes of one job's live lines (see the module docs).
#[derive(Debug, Default)]
struct LiveLines {
    /// Its last record line's bytes.
    record: u64,
    /// Its result line's bytes (`0` unless done).
    result: u64,
    /// Its last checkpoint line (empty once the job is terminal).
    capture: String,
}

impl LiveLines {
    fn bytes(&self) -> u64 {
        self.record + self.result + self.capture.len() as u64
    }
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
    /// failed one or a rewrite.
    file: Option<File>,
    /// A failed write may have left part of a line: the next append
    /// starts with a newline so that part never merges with its lines.
    torn: bool,
    /// Appends and rewrites that failed.
    failures: u64,
    /// The file's bytes, as far as this log wrote them.
    len: u64,
    /// Each job's live lines, by id.
    lines: BTreeMap<u64, LiveLines>,
    /// The sum of their bytes.
    live: u64,
    /// The file is rewritten once it holds more than `2 · live + slack`
    /// bytes ([`LOG_SLACK`]; tests lower it).
    pub(crate) slack: u64,
}

impl JobLog {
    /// The log of state directory `dir`; nothing is opened yet.
    pub(crate) fn new(dir: &Path) -> Self {
        JobLog {
            path: dir.join(JOB_LOG),
            file: None,
            torn: false,
            failures: 0,
            len: 0,
            lines: BTreeMap::new(),
            live: 0,
            slack: LOG_SLACK,
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

    /// The file's bytes and its live lines' bytes.
    #[cfg(test)]
    pub(crate) fn sizes(&self) -> (u64, u64) {
        (self.len, self.live)
    }

    /// Whether the file has outgrown its bound and should be rewritten.
    pub(crate) fn over_bound(&self) -> bool {
        self.len > 2 * self.live + self.slack
    }

    /// Appends a record line.
    pub(crate) fn append_record(&mut self, record: &JobRecord) {
        let line = record_line(record);
        self.append(&line);
        self.set_live(record, line.len() as u64, 0);
    }

    /// Appends a done record and its result line with one write.
    pub(crate) fn append_done(&mut self, record: &JobRecord, result: &str) {
        let (line, result) = (record_line(record), result_line(record.id, result));
        self.append(&(line.clone() + &result));
        self.set_live(record, line.len() as u64, result.len() as u64);
    }

    /// Appends a running job's checkpoint line (see [`write_ckpt_line`]).
    pub(crate) fn append_capture(&mut self, id: JobId, line: &str) {
        self.append(line);
        self.keep_capture(id, line);
    }

    /// Makes `line` the job's live checkpoint line.
    pub(crate) fn keep_capture(&mut self, id: JobId, line: &str) {
        let live = self.lines.entry(id.0).or_default();
        self.live = self.live - live.capture.len() as u64 + line.len() as u64;
        live.capture.clear();
        live.capture.push_str(line);
    }

    /// Makes `record` the job's live record line, with a result line of
    /// `result` bytes; a terminal job's checkpoint is no longer live.
    fn set_live(&mut self, record: &JobRecord, line: u64, result: u64) {
        let live = self.lines.entry(record.id.0).or_default();
        self.live -= live.bytes();
        live.record = line;
        live.result = result;
        if record.state.is_terminal() {
            live.capture = String::new();
        }
        self.live += live.bytes();
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
            self.len += lines.len() as u64 + u64::from(self.torn);
            self.file = Some(file);
            self.torn = false;
        } else {
            self.failures += 1;
            self.torn = true;
        }
    }

    /// Replaces the log with the live lines of `jobs` (every job the
    /// server knows): each one's record, the result of a done one, and the
    /// last checkpoint line of one that is not terminal.  A failed rewrite
    /// is counted, and the next one waits for another bound's worth of
    /// appends.
    pub(crate) fn compact<'a>(
        &mut self,
        jobs: impl Iterator<Item = (&'a JobRecord, Option<&'a str>)>,
    ) {
        let mut captures = std::mem::take(&mut self.lines);
        let mut text = String::with_capacity(self.live as usize);
        for (record, result) in jobs {
            let start = text.len();
            text.push_str(&record_line(record));
            let mut live = LiveLines {
                record: (text.len() - start) as u64,
                ..LiveLines::default()
            };
            if let Some(result) = result {
                let start = text.len();
                text.push_str(&result_line(record.id, result));
                live.result = (text.len() - start) as u64;
            }
            if let Some(kept) = captures.remove(&record.id.0) {
                if !record.state.is_terminal() && !kept.capture.is_empty() {
                    text.push_str(&kept.capture);
                    live.capture = kept.capture;
                }
            }
            self.lines.insert(record.id.0, live);
        }
        self.live = text.len() as u64;
        self.len = self.live;
        // The append handle points at the replaced file.
        self.file = None;
        self.torn = false;
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
    /// The 1-based line number of each job's last result line, by id.
    pub(crate) result_lines: BTreeMap<u64, usize>,
    /// Each job's last checkpoint line whose checksum holds, by id: its
    /// 1-based line number and its document.
    pub(crate) captures: BTreeMap<u64, (usize, String)>,
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
        let parsed = text.and_then(|text| {
            if let Some(rest) = text.strip_prefix(RESULT_PREFIX) {
                parse_result(rest).map(|(id, doc)| {
                    out.results.insert(id, doc.to_string());
                    out.result_lines.insert(id, i + 1);
                })
            } else if let Some(rest) = text.strip_prefix(CKPT_PREFIX) {
                parse_ckpt(rest).map(|(id, doc)| {
                    out.captures.insert(id, (i + 1, doc.to_string()));
                })
            } else {
                JobRecord::from_json(text).map(|record| {
                    out.records.insert(record.id.0, record);
                })
            }
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

/// A line's checked parts: the id, as written and parsed, the checksum
/// when it is 16 lowercase hex digits, and the document.
struct Checked<'a> {
    id_text: &'a str,
    id: u64,
    sum: Option<u64>,
    doc: &'a str,
}

/// Splits the `<id> <checksum> <document>` rest of a `kind` line.
fn split_checked<'a>(rest: &'a str, kind: &str) -> Result<Checked<'a>, String> {
    let (id_text, rest) = rest
        .split_once(' ')
        .ok_or_else(|| format!("{kind} line without a document"))?;
    let id = id_text
        .parse::<u64>()
        .map_err(|_| format!("{kind} line with a bad job id {id_text:?}"))?;
    let lower_hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
    Ok(match rest.split_once(' ') {
        Some((sum, doc)) if sum.len() == 16 && sum.bytes().all(lower_hex) => Checked {
            id_text,
            id,
            sum: u64::from_str_radix(sum, 16).ok(),
            doc,
        },
        _ => Checked {
            id_text,
            id,
            sum: None,
            doc: rest,
        },
    })
}

/// Checks a line's claimed checksum against the hash of what it covers.
fn verify(kind: &str, what: &str, claimed: Option<u64>, actual: u64) -> Result<(), String> {
    match claimed {
        None => Err(format!("{kind} line without a checksum")),
        Some(sum) if sum != actual => Err(format!(
            "{kind} checksum mismatch: the line says {sum:016x}, {what} hashes to {actual:016x}"
        )),
        Some(_) => Ok(()),
    }
}

/// Parses the `<id> <checksum> <document>` rest of a result line.
fn parse_result(rest: &str) -> Result<(u64, &str), String> {
    let line = split_checked(rest, "result")?;
    Json::parse(line.doc).map_err(|e| format!("malformed result document: {e}"))?;
    verify("result", "the document", line.sum, checksum(line.doc))?;
    Ok((line.id, line.doc))
}

/// Parses the `<id> <checksum> <document>` rest of a checkpoint line.  The
/// document is only hashed: a server parses the capture a job resumes
/// from, not the earlier ones.
fn parse_ckpt(rest: &str) -> Result<(u64, &str), String> {
    let line = split_checked(rest, "checkpoint")?;
    let hashed = ckpt_checksum(line.id_text, line.doc);
    verify("checkpoint", "\"<id> <document>\"", line.sum, hashed)?;
    Ok((line.id, line.doc))
}

/// The job id a line names, read from its start even when the rest does
/// not parse (a version-1 record line starts `{"job":1,"id":<id>`).
fn named_id(line: &[u8]) -> Option<u64> {
    let rest = line
        .strip_prefix(RESULT_PREFIX.as_bytes())
        .or_else(|| line.strip_prefix(CKPT_PREFIX.as_bytes()))
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
    fn a_result_line_without_its_checksum_is_a_bad_line() {
        let doc = r#"{"result":1,"interactions":4096}"#;
        let good = result_line(JobId(5), doc);
        assert!(good.starts_with("result 5 "), "{good}");
        assert_eq!(replay(good.as_bytes()).results[&5], doc);
        let reason = |line: &str| {
            let replayed = replay(line.as_bytes());
            assert!(replayed.results.is_empty(), "{line} was kept");
            replayed.bad[0].reason.clone()
        };
        // The earlier format, with no checksum.
        assert_eq!(
            reason(&format!("result 5 {doc}\n")),
            "result line without a checksum"
        );
        // A flipped digit that still parses as a result document.
        let damaged = good.replace("4096", "4097");
        assert!(
            reason(&damaged).starts_with("result checksum mismatch"),
            "{damaged}"
        );
        // A damaged checksum.
        let sum_at = "result 5 ".len();
        let mut bytes = good.clone().into_bytes();
        bytes[sum_at] = if bytes[sum_at] == b'0' { b'1' } else { b'0' };
        let damaged = String::from_utf8(bytes).unwrap();
        assert!(reason(&damaged).starts_with("result checksum mismatch"));
    }

    #[test]
    fn a_checkpoint_line_verifies_its_id_and_document() {
        let doc = r#"{"format":1,"kind":"exact","engine":{}}"#;
        let mut line = String::new();
        write_ckpt_line(&mut line, JobId(12), doc);
        assert!(line.starts_with("ckpt 12 ") && line.ends_with(&format!(" {doc}\n")));
        let replayed = replay(line.as_bytes());
        assert_eq!(replayed.captures[&12], (1, doc.to_string()));
        assert_eq!(replayed.next_id, 13);
        let reason = |line: &str| {
            let replayed = replay(line.as_bytes());
            assert!(replayed.captures.is_empty(), "{line} was kept");
            replayed.bad[0].reason.clone()
        };
        // Another job's id, a changed document, and an uppercase checksum.
        for damaged in [
            line.replacen("ckpt 12 ", "ckpt 13 ", 1),
            line.replace("exact", "exacT"),
        ] {
            assert!(
                reason(&damaged).starts_with("checkpoint checksum mismatch"),
                "{damaged}"
            );
        }
        let upper = format!("ckpt 12 {} {doc}\n", &line[8..24].to_uppercase());
        assert_eq!(reason(&upper), "checkpoint line without a checksum");
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
