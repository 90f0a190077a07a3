//! The job queue, scheduler and worker pool.
//!
//! A [`Server`] owns a priority FIFO of jobs and a bounded pool of worker
//! threads (sized through [`pp_core::Parallelism`]).  Workers multiplex
//! concurrent jobs — each job's simulation state is self-contained (own
//! engines, own RNG streams derived from its scenario seed), so scheduling
//! order, pool size and neighbouring jobs can never move a trajectory:
//! submitting the same scenario twice, alone or among twenty rivals,
//! yields bit-identical results (pinned by `tests/service_equivalence.rs`).
//!
//! ## Lifecycle and crash recovery
//!
//! Jobs move `Queued → Running → {Done, Failed, Cancelled}`.  With a state
//! directory configured, every transition persists (see [`crate::job`]),
//! running single-trajectory jobs checkpoint periodically, and
//! [`Server::kill`] halts workers at the next pause boundary with a final
//! checkpoint (a USD ensemble captures only then) — so a killed (or
//! crashed) server reopened on the same directory re-queues in-flight jobs
//! and resumes them from their captures, finishing on the bit-identical
//! trajectory.  Jobs without a pause seam (sampling-dynamic ensembles)
//! restart from scratch instead; determinism makes the re-run's result
//! equal, it just repays the wall time.
//!
//! Job records, results and checkpoints are lines of one append-only
//! `jobs.log` (see [`crate::job`]), so a job creates, renames and unlinks
//! no file: each transition appends one line, a done job appends its
//! record and result together, and each checkpoint a running job captures
//! is one checksummed `ckpt` line, each with one `write` to a handle the
//! server keeps open.  A kill at any byte leaves every earlier line whole
//! and at most a torn last line, so a job's last whole checkpoint line is
//! what it resumes from.  A write that fails is counted
//! ([`Server::persist_failures`]) and the job goes on in memory.  Once
//! the log has grown past twice its live lines plus
//! [`job::LOG_SLACK`], it is rewritten to them
//! ([`pp_core::checkpoint::write_atomic`], so `jobs.log.tmp` holds the
//! version it replaced), which keeps its size bounded while the server
//! runs.
//!
//! Reopening replays the log: each job is in the state of its last whole
//! record line, and a torn last line is ignored.  A whole line that does
//! not parse is kept in `jobs.log.corrupt`, and so is a record, result or
//! checkpoint line whose checksum is missing or wrong, a result whose
//! document fails [`protocol::check_result_doc`], and a running job's last
//! checkpoint that is no checkpoint document; a job no parsed line names
//! is forgotten, and new jobs still get ids above it.  A done job without a
//! valid result line runs again (determinism makes the re-run store the
//! identical document).  A running job resumes from its last checkpoint
//! line whose checksum holds, and restarts from scratch without one.
//! `job-N.json`, `result-N.json` and `ckpt-N.json` files of an earlier
//! per-job layout are not loaded (a job whose checkpoint was such a file
//! restarts).  [`Server::quarantined`] names each of these with its
//! reason, and the rest of the directory opens normally.  Open then
//! rewrites the log to its live lines.
//!
//! ## Streaming progress
//!
//! Workers append JSON progress events (sequence-numbered, see
//! [`crate::protocol`]) to each job; [`Server::events`] reads them by
//! sequence range and [`Server::wait_events`] blocks for more — the
//! primitive the front-ends' `watch` op streams from.

use crate::job::{self, JobId, JobLog, JobRecord, JobState, LogReplay, JOB_LOG};
use crate::protocol;
use crate::runner::{self, Interrupt, RunControl, RunVerdict};
use crate::scenario::ScenarioConfig;
use pp_core::checkpoint::CheckpointSink;
use pp_core::{Checkpoint, Parallelism, PpError};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Server construction knobs.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Worker pool size; `None` resolves like the parallel engines
    /// (machine parallelism).  An explicit size is the operator's and is
    /// not capped.
    pub workers: Option<usize>,
    /// Persistence root; `None` keeps everything in memory (no crash
    /// recovery, no checkpoints).
    pub state_dir: Option<PathBuf>,
    /// Interactions between progress events (`0` = one parallel-time
    /// unit, i.e. the job's `n`).
    pub progress_every: u64,
    /// Interactions between periodic job checkpoints (`0` = the job's
    /// `n`) — meaningful only with a state directory.
    pub checkpoint_every: u64,
}

/// A point-in-time public view of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job's identifier.
    pub id: JobId,
    /// Scheduling priority.
    pub priority: i64,
    /// Lifecycle state.
    pub state: JobState,
    /// Progress events emitted so far.
    pub events: u64,
    /// The failure message, for failed jobs.
    pub error: Option<String>,
    /// The canonical result document, for done jobs.
    pub result: Option<String>,
}

struct Job {
    record: JobRecord,
    result: Option<String>,
    events: Vec<String>,
    cancel: Arc<AtomicBool>,
    /// The capture a re-queued job resumes from (loaded at open).
    resume: Option<Checkpoint>,
}

struct ServerState {
    next_id: u64,
    jobs: BTreeMap<u64, Job>,
    /// Pending job ids; [`pop_next`] picks highest priority, then lowest
    /// id (submission order).
    queue: Vec<u64>,
    shutdown: bool,
    /// The state directory's job log; `None` without one.
    log: Option<JobLog>,
}

struct ServerInner {
    cfg: ServerConfig,
    state: Mutex<ServerState>,
    /// Wakes workers (new job, shutdown, kill).
    work_cv: Condvar,
    /// Wakes watchers (new event, state change).
    watch_cv: Condvar,
    /// Wakes [`Server::wait`] callers (a job became terminal).
    done_cv: Condvar,
    /// Cooperative crash switch: workers halt at the next pause boundary,
    /// leaving running jobs resumable on disk.
    kill: AtomicBool,
}

/// State [`Server::open`] could not use: a log line, or a file of an
/// earlier layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRecord {
    /// What was skipped: `jobs.log:<line>` for a whole log line it could
    /// not use (kept in `jobs.log.corrupt`), `jobs.log` for a log that
    /// cannot be read, or `job-N.json` / `result-N.json` / `ckpt-N.json`
    /// from an earlier per-job layout (left in place).
    pub file: String,
    /// Why it was skipped, and where it went.
    pub reason: String,
}

/// Names the job log's unparsable lines and appends them to
/// `jobs.log.corrupt`, since the compaction that follows drops them.
fn keep_bad_lines(dir: &Path, bad: &[job::BadLine]) -> Vec<QuarantinedRecord> {
    if bad.is_empty() {
        return Vec::new();
    }
    let aside = format!("{JOB_LOG}.corrupt");
    let mut bytes = Vec::new();
    for line in bad {
        bytes.extend_from_slice(&line.bytes);
        bytes.push(b'\n');
    }
    let kept = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(&aside))
        .and_then(|mut file| file.write_all(&bytes));
    let place = match kept {
        Ok(()) => format!("kept in {aside}"),
        Err(e) => format!("cannot keep it in {aside}: {e}"),
    };
    bad.iter()
        .map(|line| QuarantinedRecord {
            file: format!("{JOB_LOG}:{}", line.line),
            reason: format!("{} ({place})", line.reason),
        })
        .collect()
}

/// Whether a stored result document passes
/// [`protocol::check_result_doc`], with the reason when it does not.
fn valid_result(doc: &str) -> Result<(), String> {
    let parsed = pp_core::json::Json::parse(doc).map_err(|e| format!("malformed result: {e}"))?;
    protocol::check_result_doc(&parsed).map_err(|e| format!("invalid result document: {e}"))
}

/// The `job-N.json`, `result-N.json` and `ckpt-N.json` files of the
/// earlier per-job layout, with their ids, in name order.
fn earlier_layout(dir: &Path) -> Result<Vec<(u64, String)>, String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot scan state directory {}: {e}", dir.display()))?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot scan state directory: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let id = name
            .strip_prefix("job-")
            .or_else(|| name.strip_prefix("result-"))
            .or_else(|| name.strip_prefix("ckpt-"))
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|id| id.parse::<u64>().ok());
        if let Some(id) = id {
            found.push((id, name));
        }
    }
    found.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(found)
}

/// The job server.  Dropping it without [`Server::shutdown`] or
/// [`Server::kill`] kills it (workers are halted, not detached).
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    quarantined: Vec<QuarantinedRecord>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers.len())
            .field("cfg", &self.inner.cfg)
            .finish()
    }
}

impl Server {
    /// Opens a server: restores persisted jobs from the state directory's
    /// job log (if any), re-queues unfinished ones, rewrites the log to its
    /// live lines, and starts the worker pool.  What it cannot use is
    /// listed by [`Server::quarantined`] (see the module docs): new jobs
    /// still get ids above every id the log or an earlier layout's file
    /// names, so none reuses a quarantined job's id.
    ///
    /// # Errors
    ///
    /// Returns a named diagnostic when the state directory cannot be
    /// created or scanned.
    pub fn open(cfg: ServerConfig) -> Result<Self, String> {
        let mut state = ServerState {
            next_id: 1,
            jobs: BTreeMap::new(),
            queue: Vec::new(),
            shutdown: false,
            log: None,
        };
        let mut quarantined = Vec::new();
        if let Some(dir) = &cfg.state_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create state directory {}: {e}", dir.display()))?;
            let mut log = JobLog::new(dir);
            let (replay, compact) = match std::fs::read(log.path()) {
                Ok(bytes) => (job::replay(&bytes), true),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => (LogReplay::default(), false),
                Err(e) => {
                    quarantined.push(QuarantinedRecord {
                        file: JOB_LOG.to_string(),
                        reason: format!("cannot read: {e}; no job was loaded from it"),
                    });
                    (LogReplay::default(), false)
                }
            };
            state.next_id = state.next_id.max(replay.next_id);
            let LogReplay {
                records,
                mut results,
                result_lines,
                mut captures,
                mut bad,
                ..
            } = replay;
            // A result line that parses but is no result document is set
            // aside like an unparsable line: a damaged result is never
            // served, and its job runs again.
            results.retain(|id, doc| match valid_result(doc) {
                Ok(()) => true,
                Err(reason) => {
                    bad.push(job::BadLine {
                        line: result_lines[id],
                        reason,
                        bytes: job::result_line(JobId(*id), doc).trim_end().into(),
                    });
                    false
                }
            });
            for (id, mut record) in records {
                let mut result = None;
                let mut resume = None;
                if record.state == JobState::Done {
                    result = results.remove(&id);
                    if result.is_none() {
                        record.state = JobState::Queued;
                    }
                } else if !record.state.is_terminal() {
                    // A `running` job was interrupted by a kill or crash;
                    // it goes back on the queue, resuming from its last
                    // checkpoint line when that holds a checkpoint.
                    record.state = JobState::Queued;
                    if let Some((line, doc)) = captures.remove(&id) {
                        let mut kept = String::new();
                        job::write_ckpt_line(&mut kept, record.id, &doc);
                        match Checkpoint::from_json(&doc) {
                            Ok(checkpoint) => {
                                log.keep_capture(record.id, &kept);
                                resume = Some(checkpoint);
                            }
                            Err(e) => bad.push(job::BadLine {
                                line,
                                reason: e.to_string(),
                                bytes: kept.trim_end().into(),
                            }),
                        }
                    }
                }
                if record.state == JobState::Queued {
                    state.queue.push(id);
                }
                let job = Job {
                    record,
                    result,
                    events: Vec::new(),
                    cancel: Arc::new(AtomicBool::new(false)),
                    resume,
                };
                state.jobs.insert(id, job);
            }
            bad.sort_by_key(|line| line.line);
            quarantined.extend(keep_bad_lines(dir, &bad));
            for (id, file) in earlier_layout(dir)? {
                state.next_id = state.next_id.max(id.saturating_add(1));
                quarantined.push(QuarantinedRecord {
                    file,
                    reason: "per-job file from an earlier layout; not loaded".to_string(),
                });
            }
            if compact {
                log.compact(
                    state
                        .jobs
                        .values()
                        .map(|job| (&job.record, job.result.as_deref())),
                );
            }
            state.log = Some(log);
        }
        let workers = cfg
            .workers
            .unwrap_or_else(|| Parallelism::auto().resolve(usize::MAX))
            .max(1);
        let inner = Arc::new(ServerInner {
            cfg,
            state: Mutex::new(state),
            work_cv: Condvar::new(),
            watch_cv: Condvar::new(),
            done_cv: Condvar::new(),
            kill: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(Server {
            inner,
            workers: handles,
            quarantined,
        })
    }

    /// What [`Server::open`] could not use, with its reasons: log lines in
    /// file order, then files of an earlier layout.
    #[must_use]
    pub fn quarantined(&self) -> &[QuarantinedRecord] {
        &self.quarantined
    }

    /// How many job-log writes have failed since [`Server::open`]; each
    /// failed job went on in memory.
    #[must_use]
    pub fn persist_failures(&self) -> u64 {
        self.inner.lock().log.as_ref().map_or(0, JobLog::failures)
    }

    /// Submits a scenario with a priority (higher runs first; ties run in
    /// submission order).  The scenario is validated up front so a broken
    /// config fails the submit, not the worker.
    ///
    /// # Errors
    ///
    /// Returns the scenario's own validation diagnostic.
    pub fn submit(&self, scenario: ScenarioConfig, priority: i64) -> Result<JobId, String> {
        scenario.validate()?;
        let mut state = self.inner.lock();
        if state.shutdown {
            return Err("the server is shutting down".to_string());
        }
        let id = JobId(state.next_id);
        state.next_id += 1;
        let record = JobRecord {
            id,
            priority,
            state: JobState::Queued,
            scenario,
            error: None,
        };
        state.jobs.insert(
            id.0,
            Job {
                record: record.clone(),
                result: None,
                events: Vec::new(),
                cancel: Arc::new(AtomicBool::new(false)),
                resume: None,
            },
        );
        state.persist_record(&record);
        state.queue.push(id.0);
        drop(state);
        self.inner.work_cv.notify_one();
        Ok(id)
    }

    /// A snapshot of one job.
    #[must_use]
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let state = self.inner.lock();
        state.jobs.get(&id.0).map(snapshot)
    }

    /// Snapshots of every job, in id (= submission) order.
    #[must_use]
    pub fn list(&self) -> Vec<JobStatus> {
        let state = self.inner.lock();
        state.jobs.values().map(snapshot).collect()
    }

    /// Requests cancellation.  Queued jobs cancel immediately; running
    /// jobs cancel at their next pause boundary (sampling-dynamic jobs
    /// have none and finish anyway — see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a named diagnostic for unknown or already-terminal jobs.
    pub fn cancel(&self, id: JobId) -> Result<(), String> {
        let mut state = self.inner.lock();
        let job = state
            .jobs
            .get_mut(&id.0)
            .ok_or_else(|| format!("no such job: {id}"))?;
        match job.record.state {
            JobState::Queued => {
                job.record.state = JobState::Cancelled;
                let record = job.record.clone();
                push_terminal_event(job, &record, None);
                state.persist_record(&record);
                state.queue.retain(|&q| q != id.0);
                drop(state);
                self.inner.watch_cv.notify_all();
                self.inner.done_cv.notify_all();
                Ok(())
            }
            JobState::Running => {
                job.cancel.store(true, Ordering::Relaxed);
                Ok(())
            }
            terminal => Err(format!("job {id} is already {terminal}")),
        }
    }

    /// Copies events `[from, ..)` for a job, plus whether its state is
    /// terminal (the stream is complete once both the copy drains and the
    /// job is terminal).
    ///
    /// # Errors
    ///
    /// Returns a named diagnostic for unknown jobs.
    pub fn events(&self, id: JobId, from: u64) -> Result<(Vec<String>, bool), String> {
        let state = self.inner.lock();
        let job = state
            .jobs
            .get(&id.0)
            .ok_or_else(|| format!("no such job: {id}"))?;
        let from = (from as usize).min(job.events.len());
        Ok((job.events[from..].to_vec(), job.record.state.is_terminal()))
    }

    /// Blocks until the job has events past `from` or reaches a terminal
    /// state, then behaves like [`Server::events`].
    ///
    /// # Errors
    ///
    /// Returns a named diagnostic for unknown jobs.
    pub fn wait_events(&self, id: JobId, from: u64) -> Result<(Vec<String>, bool), String> {
        let mut state = self.inner.lock();
        loop {
            let job = state
                .jobs
                .get(&id.0)
                .ok_or_else(|| format!("no such job: {id}"))?;
            let terminal = job.record.state.is_terminal();
            if job.events.len() > from as usize || terminal {
                let from = (from as usize).min(job.events.len());
                return Ok((job.events[from..].to_vec(), terminal));
            }
            state = self
                .inner
                .watch_cv
                .wait(state)
                .map_err(|e| format!("server state poisoned: {e}"))?;
        }
    }

    /// Blocks until the job reaches a terminal state and returns its final
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Returns a named diagnostic for unknown jobs.
    pub fn wait(&self, id: JobId) -> Result<JobStatus, String> {
        let mut state = self.inner.lock();
        loop {
            let job = state
                .jobs
                .get(&id.0)
                .ok_or_else(|| format!("no such job: {id}"))?;
            if job.record.state.is_terminal() {
                return Ok(snapshot(job));
            }
            state = self
                .inner
                .done_cv
                .wait(state)
                .map_err(|e| format!("server state poisoned: {e}"))?;
        }
    }

    /// Graceful shutdown: stops accepting submissions, lets running jobs
    /// finish, leaves queued jobs persisted for the next open.  Returns
    /// [`Server::persist_failures`] as of the last job's end.
    pub fn shutdown(mut self) -> u64 {
        {
            let mut state = self.inner.lock();
            state.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        self.join();
        self.persist_failures()
    }

    /// Simulated crash: halts workers at their next pause boundary.
    /// Running USD jobs write a final checkpoint and stay `running` on
    /// disk, so a later [`Server::open`] on the same state directory
    /// resumes them bit-exactly.
    pub fn kill(mut self) {
        self.halt();
    }

    /// Sets the crash switch, wakes the workers and joins them.  The
    /// switch is set under the state lock: an idle worker tests it under
    /// that lock just before it waits, so the wake-up cannot fall between
    /// its test and its wait and leave it asleep.
    fn halt(&mut self) {
        {
            let _state = self.inner.lock();
            self.inner.kill.store(true, Ordering::SeqCst);
        }
        self.inner.work_cv.notify_all();
        self.join();
    }

    fn join(&mut self) {
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.halt();
        }
    }
}

fn snapshot(job: &Job) -> JobStatus {
    JobStatus {
        id: job.record.id,
        priority: job.record.priority,
        state: job.record.state,
        events: job.events.len() as u64,
        error: job.record.error.clone(),
        result: job.result.clone(),
    }
}

impl ServerState {
    /// Best-effort persistence; an unwritable state directory degrades to
    /// in-memory operation (counted by the log) rather than failing the
    /// job.  The job's in-memory state must already be `record`, since the
    /// append may rewrite the log from memory.
    fn persist_record(&mut self, record: &JobRecord) {
        if let Some(log) = &mut self.log {
            log.append_record(record);
        }
        self.rewrite_log_if_due();
    }

    /// Persists a done job's record and result.
    fn persist_done(&mut self, id: u64) {
        if let (Some(log), Some(job)) = (&mut self.log, self.jobs.get(&id)) {
            if let Some(result) = &job.result {
                log.append_done(&job.record, result);
            }
        }
        self.rewrite_log_if_due();
    }

    /// Rewrites the log to its live lines once it has outgrown its bound.
    fn rewrite_log_if_due(&mut self) {
        if let Some(log) = &mut self.log {
            if log.over_bound() {
                log.compact(
                    self.jobs
                        .values()
                        .map(|job| (&job.record, job.result.as_deref())),
                );
            }
        }
    }
}

/// A running job's [`CheckpointSink`]: each capture is one `ckpt` line of
/// the job log (see [`crate::job`]), written under the server's lock.
struct JobLogSink {
    inner: Arc<ServerInner>,
    id: JobId,
    /// The line being written, reused across captures.
    line: String,
}

impl CheckpointSink for JobLogSink {
    /// Best effort, like every job-log write: a failure is counted by the
    /// log and the job goes on.
    fn store(&mut self, document: &str) -> Result<(), PpError> {
        job::write_ckpt_line(&mut self.line, self.id, document);
        let mut state = self.inner.lock();
        if let Some(log) = &mut state.log {
            log.append_capture(self.id, &self.line);
        }
        state.rewrite_log_if_due();
        Ok(())
    }
}

impl ServerInner {
    fn lock(&self) -> std::sync::MutexGuard<'_, ServerState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Appends the terminal `done` event for a job (the watcher streams end on
/// it).  Caller persists the record and notifies `watch_cv`.
fn push_terminal_event(job: &mut Job, record: &JobRecord, result: Option<&str>) {
    let seq = job.events.len() as u64;
    job.events.push(protocol::done_event(record, seq, result));
}

/// Picks the next runnable job: highest priority first, submission order
/// within a priority.
fn pop_next(state: &mut ServerState) -> Option<u64> {
    let best = state.queue.iter().copied().min_by_key(|id| {
        let priority = state.jobs[id].record.priority;
        (std::cmp::Reverse(priority), *id)
    })?;
    state.queue.retain(|&q| q != best);
    Some(best)
}

fn worker_loop(inner: &Arc<ServerInner>) {
    loop {
        let claimed = {
            let mut state = inner.lock();
            loop {
                if inner.kill.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = pop_next(&mut state) {
                    let job = state.jobs.get_mut(&id).expect("queued job exists");
                    job.record.state = JobState::Running;
                    let claimed = (
                        id,
                        job.record.clone(),
                        Arc::clone(&job.cancel),
                        job.resume.take(),
                    );
                    state.persist_record(&claimed.1);
                    break Some(claimed);
                }
                if state.shutdown {
                    return;
                }
                state = inner
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let Some((id, record, cancel, resume)) = claimed else {
            return;
        };
        run_job(inner, id, &record, &cancel, resume);
    }
}

/// Drives one job through the shared scenario runner, wiring the server's
/// interrupt, progress and checkpoint hooks.
fn run_job(
    inner: &Arc<ServerInner>,
    id: u64,
    record: &JobRecord,
    cancel: &AtomicBool,
    resume: Option<Checkpoint>,
) {
    let job_id = JobId(id);
    let scenario = record.scenario;
    let checkpoint_every = if inner.cfg.checkpoint_every == 0 {
        scenario.population.max(1)
    } else {
        inner.cfg.checkpoint_every
    };
    let sink = inner.cfg.state_dir.as_ref().map(|_| {
        let sink: Box<dyn CheckpointSink> = Box::new(JobLogSink {
            inner: Arc::clone(inner),
            id: job_id,
            line: String::new(),
        });
        (sink, checkpoint_every)
    });
    let interrupt = || {
        if inner.kill.load(Ordering::SeqCst) {
            Some(Interrupt::Halted)
        } else if cancel.load(Ordering::Relaxed) {
            Some(Interrupt::Cancelled)
        } else {
            None
        }
    };
    let mut seq = 0_u64;
    let mut on_progress = |event: runner::ProgressEvent| {
        let line = protocol::progress_event(job_id, seq, &event);
        seq += 1;
        let mut state = inner.lock();
        if let Some(job) = state.jobs.get_mut(&id) {
            job.events.push(line);
        }
        drop(state);
        inner.watch_cv.notify_all();
    };
    let control = RunControl {
        progress: Some(&mut on_progress),
        progress_every: inner.cfg.progress_every,
        interrupt: Some(&interrupt),
        sink,
        resume: resume.as_ref(),
        ..RunControl::default()
    };
    let verdict = runner::run_scenario(&scenario, control);

    let mut guard = inner.lock();
    let state = &mut *guard;
    let Some(job) = state.jobs.get_mut(&id) else {
        return;
    };
    match verdict {
        Ok(RunVerdict::Finished(outcome)) => {
            let result = runner::result_json(&outcome);
            job.record.state = JobState::Done;
            let record = job.record.clone();
            push_terminal_event(job, &record, Some(&result));
            job.result = Some(result);
            state.persist_done(id);
        }
        Ok(RunVerdict::Interrupted(Interrupt::Cancelled)) => {
            job.record.state = JobState::Cancelled;
            let record = job.record.clone();
            push_terminal_event(job, &record, None);
            state.persist_record(&record);
        }
        Ok(RunVerdict::Interrupted(Interrupt::Halted)) => {
            // The server is going down; the job stays `running` on disk
            // (with its last checkpoint line) so the next open re-queues
            // it.  In memory nothing more to do — the process is exiting.
        }
        Err(message) => {
            job.record.state = JobState::Failed;
            job.record.error = Some(message);
            let record = job.record.clone();
            push_terminal_event(job, &record, None);
            state.persist_record(&record);
        }
    }
    drop(guard);
    inner.watch_cv.notify_all();
    inner.done_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_scenario;

    fn scenario(seed: u64) -> ScenarioConfig {
        ScenarioConfig::new(500, 3).with_seed(seed)
    }

    fn standalone_json(config: &ScenarioConfig) -> String {
        let RunVerdict::Finished(outcome) = run_scenario(config, RunControl::default()).unwrap()
        else {
            panic!("standalone run must finish");
        };
        runner::result_json(&outcome)
    }

    #[test]
    fn jobs_finish_with_standalone_identical_results() {
        let server = Server::open(ServerConfig {
            workers: Some(2),
            ..ServerConfig::default()
        })
        .unwrap();
        let ids: Vec<_> = (0..4)
            .map(|i| server.submit(scenario(100 + i), 0).unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            let status = server.wait(*id).unwrap();
            assert_eq!(status.state, JobState::Done);
            assert_eq!(
                status.result.as_deref(),
                Some(standalone_json(&scenario(100 + i as u64)).as_str()),
                "job {id} diverged from its standalone run"
            );
        }
        server.shutdown();
    }

    #[test]
    fn priorities_order_the_queue_and_cancel_works() {
        // One worker, and a long-running decoy submitted first so the
        // queue holds the contested jobs while we reorder them.
        let server = Server::open(ServerConfig {
            workers: Some(1),
            ..ServerConfig::default()
        })
        .unwrap();
        let decoy = server
            .submit(ScenarioConfig::new(20_000, 8).with_seed(1), 0)
            .unwrap();
        let low = server.submit(scenario(1), -1).unwrap();
        let high = server.submit(scenario(2), 5).unwrap();
        server.cancel(low).unwrap();
        let status = server.wait(low).unwrap();
        assert_eq!(status.state, JobState::Cancelled);
        let status = server.wait(high).unwrap();
        assert_eq!(status.state, JobState::Done);
        let _ = server.cancel(decoy);
        let listed = server.list();
        assert_eq!(listed.len(), 3);
        assert!(
            listed.windows(2).all(|w| w[0].id < w[1].id),
            "list is id-ordered"
        );
        server.shutdown();
    }

    #[test]
    fn invalid_scenarios_fail_at_submit_with_cli_diagnostics() {
        let server = Server::open(ServerConfig::default()).unwrap();
        let err = server.submit(scenario(1).with_shards(4), 0).unwrap_err();
        assert_eq!(err, "--shards/--epoch require --engine sharded");
        server.shutdown();
    }

    #[test]
    fn kill_and_reopen_resumes_to_identical_results() {
        let dir = std::env::temp_dir().join(format!(
            "pp_service_server_kill_test_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let expected = standalone_json(&scenario(7));
        let cfg = || ServerConfig {
            workers: Some(1),
            state_dir: Some(dir.clone()),
            progress_every: 50,
            checkpoint_every: 50,
        };
        let server = Server::open(cfg()).unwrap();
        let id = server.submit(scenario(7), 0).unwrap();
        // Let the job actually start before pulling the plug, so the kill
        // path (checkpoint + `running` on disk) is what we exercise.
        let (_events, _) = server.wait_events(id, 0).unwrap();
        server.kill();

        let reopened = Server::open(cfg()).unwrap();
        let status = reopened.wait(id).unwrap();
        assert_eq!(status.state, JobState::Done);
        assert_eq!(status.result.as_deref(), Some(expected.as_str()));
        reopened.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn fresh_state_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pp_service_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn one_worker(dir: &Path) -> ServerConfig {
        ServerConfig {
            workers: Some(1),
            state_dir: Some(dir.to_path_buf()),
            ..ServerConfig::default()
        }
    }

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// A sink that keeps every capture's document.
    struct Collect(Arc<Mutex<Vec<String>>>);

    impl CheckpointSink for Collect {
        fn store(&mut self, document: &str) -> Result<(), PpError> {
            self.0.lock().unwrap().push(document.to_string());
            Ok(())
        }
    }

    /// Runs `config` until its `boundaries`-th pause boundary (cadence 50)
    /// and halts it there; returns the documents it captured (every 50
    /// interactions, and at the halt).
    fn halted_captures(config: &ScenarioConfig, boundaries: u32) -> Vec<String> {
        let polls = std::cell::Cell::new(0);
        let halt = || {
            polls.set(polls.get() + 1);
            (polls.get() >= boundaries).then_some(Interrupt::Halted)
        };
        let docs = Arc::new(Mutex::new(Vec::new()));
        let verdict = run_scenario(
            config,
            RunControl {
                progress_every: 50,
                interrupt: Some(&halt),
                sink: Some((Box::new(Collect(Arc::clone(&docs))), 50)),
                ..RunControl::default()
            },
        )
        .unwrap();
        assert!(matches!(
            verdict,
            RunVerdict::Interrupted(Interrupt::Halted)
        ));
        let docs = docs.lock().unwrap().clone();
        docs
    }

    /// The documents a server job of `config` captures under the default
    /// cadences (progress events and checkpoints every `n`).
    fn server_captures(config: &ScenarioConfig) -> Vec<String> {
        let docs = Arc::new(Mutex::new(Vec::new()));
        let mut on_progress = |_| {};
        let verdict = run_scenario(
            config,
            RunControl {
                progress: Some(&mut on_progress),
                interrupt: Some(&|| None),
                sink: Some((Box::new(Collect(Arc::clone(&docs))), config.population)),
                ..RunControl::default()
            },
        )
        .unwrap();
        assert!(matches!(verdict, RunVerdict::Finished(_)));
        let docs = docs.lock().unwrap().clone();
        docs
    }

    /// Job `id`'s checkpoint line for `document`.
    fn ckpt_line(id: JobId, document: &str) -> String {
        let mut line = String::new();
        job::write_ckpt_line(&mut line, id, document);
        line
    }

    #[test]
    fn a_corrupt_record_is_quarantined_and_the_rest_is_served() {
        let dir = fresh_state_dir("server_corrupt_test");
        let server = Server::open(one_worker(&dir)).unwrap();
        let first = server.submit(scenario(3), 0).unwrap();
        let done = server.wait(first).unwrap();
        assert_eq!(done.state, JobState::Done);
        let second = server.submit(scenario(4), 0).unwrap();
        server.wait(second).unwrap();
        server.shutdown();
        // Job 2's first record line torn by a failed append, which the
        // next append closed with a newline; its later lines never landed.
        let log = dir.join(JOB_LOG);
        let text = std::fs::read_to_string(&log).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let result = lines
            .iter()
            .position(|line| line.starts_with("result 1 "))
            .unwrap_or_else(|| panic!("{text}"));
        let second_record = lines[result + 1];
        assert!(second_record.starts_with("record 2 "), "{text}");
        let torn = &second_record[..second_record.len() / 2];
        let kept = lines[..=result].join("\n");
        std::fs::write(&log, format!("{kept}\n{torn}\n")).unwrap();

        let reopened = Server::open(one_worker(&dir)).unwrap();
        let skipped = reopened.quarantined();
        assert_eq!(skipped.len(), 1, "{skipped:?}");
        assert_eq!(skipped[0].file, format!("jobs.log:{}", result + 2));
        assert!(
            skipped[0].reason.starts_with("malformed job record")
                && skipped[0].reason.ends_with("(kept in jobs.log.corrupt)"),
            "{skipped:?}"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("jobs.log.corrupt")).unwrap(),
            format!("{torn}\n")
        );
        let status = reopened.status(first).expect("job 1 is still known");
        assert_eq!(status.result, done.result);
        assert!(reopened.status(second).is_none());
        let third = reopened.submit(scenario(5), 0).unwrap();
        assert_eq!(third, JobId(3), "no new job reuses the quarantined id");
        reopened.wait(third).unwrap();
        reopened.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_with_a_damaged_scenario_is_quarantined_and_never_runs() {
        let dir = fresh_state_dir("server_damaged_record_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut log = JobLog::new(&dir);
        log.append_record(&JobRecord {
            id: JobId(1),
            priority: 0,
            state: JobState::Queued,
            scenario: scenario(3),
            error: None,
        });
        drop(log);
        // The damaged scenario still parses: only the checksum tells.
        let text = std::fs::read_to_string(dir.join(JOB_LOG)).unwrap();
        let damaged = text.replacen("\"seed\":3", "\"seed\":2", 1);
        assert_ne!(damaged, text);
        std::fs::write(dir.join(JOB_LOG), &damaged).unwrap();

        let server = Server::open(one_worker(&dir)).unwrap();
        let skipped = server.quarantined();
        assert_eq!(skipped.len(), 1, "{skipped:?}");
        assert_eq!(skipped[0].file, "jobs.log:1");
        assert!(
            skipped[0].reason.starts_with("record checksum mismatch")
                && skipped[0].reason.ends_with("(kept in jobs.log.corrupt)"),
            "{skipped:?}"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("jobs.log.corrupt")).unwrap(),
            damaged
        );
        assert!(
            server.status(JobId(1)).is_none(),
            "the damaged job is known"
        );
        assert!(server.list().is_empty());
        let next = server.submit(scenario(5), 0).unwrap();
        assert_eq!(next, JobId(2), "no new job reuses the quarantined id");
        server.wait(next).unwrap();
        server.shutdown();
        let replayed = job::replay(&std::fs::read(dir.join(JOB_LOG)).unwrap());
        assert_eq!(replayed.records.keys().collect::<Vec<_>>(), [&2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bare_record_line_of_an_earlier_server_still_runs_and_is_reframed() {
        let dir = fresh_state_dir("server_bare_record_test");
        std::fs::create_dir_all(&dir).unwrap();
        let record = JobRecord {
            id: JobId(1),
            priority: 0,
            state: JobState::Queued,
            scenario: scenario(9),
            error: None,
        };
        std::fs::write(dir.join(JOB_LOG), record.to_json() + "\n").unwrap();

        let server = Server::open(one_worker(&dir)).unwrap();
        assert!(server.quarantined().is_empty());
        let text = std::fs::read_to_string(dir.join(JOB_LOG)).unwrap();
        assert!(text.starts_with("record 1 "), "open reframes it: {text}");
        let status = server.wait(JobId(1)).unwrap();
        assert_eq!(status.state, JobState::Done);
        assert_eq!(
            status.result.as_deref(),
            Some(standalone_json(&scenario(9)).as_str())
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_checkpoint_is_quarantined_and_its_job_restarts() {
        let dir = fresh_state_dir("server_torn_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let config = scenario(8);
        let id = JobId(1);
        // A job a crash left `running`, with the first checkpoint its run
        // captured before the crash torn in half by a failed append, which
        // the next append closed with a newline.
        let mut log = JobLog::new(&dir);
        log.append_record(&JobRecord {
            id,
            priority: 0,
            state: JobState::Running,
            scenario: config,
            error: None,
        });
        drop(log);
        let captures = halted_captures(&config, 3);
        let line = ckpt_line(id, &captures[0]);
        let torn = &line[..line.len() / 2];
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(JOB_LOG))
            .unwrap();
        file.write_all(format!("{torn}\n").as_bytes()).unwrap();
        drop(file);

        let server = Server::open(one_worker(&dir)).unwrap();
        let skipped = server.quarantined();
        assert_eq!(skipped.len(), 1, "{skipped:?}");
        assert_eq!(skipped[0].file, "jobs.log:2");
        assert!(
            skipped[0].reason.contains("checkpoint")
                && skipped[0].reason.ends_with("(kept in jobs.log.corrupt)"),
            "{skipped:?}"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("jobs.log.corrupt")).unwrap(),
            format!("{torn}\n")
        );
        let status = server.wait(id).unwrap();
        assert_eq!(status.state, JobState::Done);
        assert_eq!(
            status.result.as_deref(),
            Some(standalone_json(&config).as_str())
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_or_torn_result_is_quarantined_and_its_job_reruns() {
        let dir = fresh_state_dir("server_result_test");
        let server = Server::open(one_worker(&dir)).unwrap();
        let missing = server.submit(scenario(11), 0).unwrap();
        let torn = server.submit(scenario(12), 0).unwrap();
        let served = [server.wait(missing).unwrap(), server.wait(torn).unwrap()];
        server.shutdown();
        // Job 1's result line is gone; job 2's was torn by a failed append
        // that the next append closed with a newline.
        let log = dir.join(JOB_LOG);
        let text = std::fs::read_to_string(&log).unwrap();
        let kept: Vec<&str> = text
            .lines()
            .filter(|line| !line.starts_with("result 1 "))
            .map(|line| match line.strip_prefix("result 2 ") {
                Some(_) => &line[..line.len() / 2],
                None => line,
            })
            .collect();
        let torn_line = 1 + kept
            .iter()
            .position(|l| l.starts_with("result 2 "))
            .unwrap();
        std::fs::write(&log, kept.join("\n") + "\n").unwrap();

        let reopened = Server::open(one_worker(&dir)).unwrap();
        let skipped = reopened.quarantined();
        assert_eq!(skipped.len(), 1, "{skipped:?}");
        assert_eq!(skipped[0].file, format!("jobs.log:{torn_line}"));
        assert!(
            skipped[0].reason.starts_with("malformed result document"),
            "{skipped:?}"
        );
        for (id, done) in [missing, torn].into_iter().zip(&served) {
            let status = reopened.wait(id).unwrap();
            assert_eq!(status.state, JobState::Done);
            assert_eq!(status.result, done.result, "job {id} re-ran differently");
        }
        reopened.shutdown();
        let stored = job::replay(&std::fs::read(&log).unwrap()).results;
        for (id, done) in [missing, torn].into_iter().zip(&served) {
            assert_eq!(stored.get(&id.0), done.result.as_ref());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persisted_state_is_one_log_and_leftovers_are_ignored() {
        let dir = fresh_state_dir("server_log_test");
        let server = Server::open(one_worker(&dir)).unwrap();
        let id = server.submit(scenario(6), 0).unwrap();
        let done = server.wait(id).unwrap();
        server.shutdown();
        // No record, result or checkpoint file.
        assert_eq!(file_names(&dir), ["jobs.log"]);

        // A kill mid-compaction leaves a torn spare, and one mid-append a
        // torn last line; reopen must ignore both.
        std::fs::write(dir.join("jobs.log.tmp"), "{\"torn").unwrap();
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(JOB_LOG))
            .unwrap();
        log.write_all(br#"{"job":1,"id":2,"prio"#).unwrap();
        drop(log);
        let reopened = Server::open(one_worker(&dir)).unwrap();
        assert!(reopened.quarantined().is_empty());
        assert_eq!(reopened.list().len(), 1);
        assert_eq!(reopened.status(id).unwrap().result, done.result);
        let next = reopened.submit(scenario(7), 0).unwrap();
        let next_done = reopened.wait(next).unwrap();
        assert_eq!(reopened.shutdown(), 0);
        assert_eq!(file_names(&dir), ["jobs.log", "jobs.log.tmp"]);
        let replayed = job::replay(&std::fs::read(dir.join(JOB_LOG)).unwrap());
        assert!(replayed.bad.is_empty());
        assert_eq!(replayed.results.get(&id.0), done.result.as_ref());
        assert_eq!(replayed.results.get(&next.0), next_done.result.as_ref());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn earlier_layout_files_are_listed_and_not_loaded() {
        let dir = fresh_state_dir("server_earlier_layout_test");
        std::fs::create_dir_all(&dir).unwrap();
        let record = JobRecord {
            id: JobId(4),
            priority: 0,
            state: JobState::Queued,
            scenario: scenario(2),
            error: None,
        };
        std::fs::write(dir.join("job-4.json"), record.to_json()).unwrap();
        std::fs::write(dir.join("result-4.json"), "{}").unwrap();
        let server = Server::open(one_worker(&dir)).unwrap();
        let skipped: Vec<(&str, &str)> = server
            .quarantined()
            .iter()
            .map(|q| (q.file.as_str(), q.reason.as_str()))
            .collect();
        let reason = "per-job file from an earlier layout; not loaded";
        assert_eq!(skipped, [("job-4.json", reason), ("result-4.json", reason)]);
        assert!(server.list().is_empty());
        assert_eq!(server.submit(scenario(2), 0).unwrap(), JobId(5));
        server.shutdown();
        assert!(dir.join("job-4.json").exists() && dir.join("result-4.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_log_writes_are_counted_and_jobs_finish_in_memory() {
        let dir = fresh_state_dir("server_failed_write_test");
        std::fs::create_dir_all(dir.join(JOB_LOG)).unwrap();
        let server = Server::open(one_worker(&dir)).unwrap();
        let skipped = server.quarantined();
        assert_eq!(skipped.len(), 1, "{skipped:?}");
        assert_eq!(skipped[0].file, JOB_LOG);
        let id = server.submit(scenario(9), 0).unwrap();
        let status = server.wait(id).unwrap();
        assert_eq!(status.state, JobState::Done);
        assert_eq!(
            status.result.as_deref(),
            Some(standalone_json(&scenario(9)).as_str())
        );
        // Its queued, running and done appends all failed, and so did
        // every checkpoint it captured.
        let failed = 3 + server_captures(&scenario(9)).len() as u64;
        assert!(failed > 3, "the job captured no checkpoint");
        assert_eq!(server.persist_failures(), failed);
        assert_eq!(server.shutdown(), failed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_torn_at_any_byte_reopens_to_its_last_whole_lines() {
        let dir = fresh_state_dir("server_torn_log_test");
        std::fs::create_dir_all(&dir).unwrap();
        let configs = [
            ScenarioConfig::new(120, 3).with_seed(21),
            ScenarioConfig::new(120, 3).with_seed(22),
            ScenarioConfig::new(120, 3).with_seed(23),
        ];
        let docs: Vec<String> = configs.iter().map(standalone_json).collect();
        let record = |id: u64, state| JobRecord {
            id: JobId(id),
            priority: 0,
            state,
            scenario: configs[id as usize - 1],
            error: None,
        };
        // Job 1 done, job 2 running with two checkpoints, job 3 queued.
        let mut log = JobLog::new(&dir);
        log.append_record(&record(1, JobState::Queued));
        log.append_record(&record(1, JobState::Running));
        log.append_done(&record(1, JobState::Done), &docs[0]);
        log.append_record(&record(2, JobState::Queued));
        log.append_record(&record(3, JobState::Queued));
        log.append_record(&record(2, JobState::Running));
        for capture in &halted_captures(&configs[1], 2)[..2] {
            log.append_capture(JobId(2), &ckpt_line(JobId(2), capture));
        }
        drop(log);
        let bytes = std::fs::read(dir.join(JOB_LOG)).unwrap();

        for cut in 0..=bytes.len() {
            let torn = &bytes[..cut];
            // The state of each job's last whole record line, and whether
            // job 1's result line is whole.
            let whole = torn.iter().rposition(|&b| b == b'\n').map_or(0, |e| e + 1);
            let whole = std::str::from_utf8(&torn[..whole]).unwrap();
            let mut last = BTreeMap::new();
            for line in whole.lines() {
                // `record <id> <checksum> <document>`.
                let doc = line
                    .strip_prefix("record ")
                    .and_then(|rest| rest.splitn(3, ' ').nth(2));
                if let Some(r) = doc.and_then(|doc| JobRecord::from_json(doc).ok()) {
                    last.insert(r.id.0, r.state);
                }
            }
            let result_whole = whole.contains("\nresult 1 ");
            let replayed = job::replay(torn);
            let states: BTreeMap<u64, JobState> = replayed
                .records
                .iter()
                .map(|(&id, r)| (id, r.state))
                .collect();
            assert_eq!(states, last, "cut {cut}");
            assert!(replayed.bad.is_empty(), "cut {cut}");

            std::fs::write(dir.join(JOB_LOG), torn).unwrap();
            let server = Server::open(one_worker(&dir)).unwrap();
            assert!(server.quarantined().is_empty(), "cut {cut}");
            for status in server.list() {
                let expected = &docs[status.id.0 as usize - 1];
                assert!(
                    status.result.is_none() || status.result.as_ref() == Some(expected),
                    "cut {cut}: job {} served a torn result",
                    status.id
                );
            }
            if result_whole {
                let status = server.status(JobId(1)).unwrap();
                assert_eq!(status.state, JobState::Done, "cut {cut}");
            }
            for id in 1..=3_u64 {
                if !last.contains_key(&id) {
                    assert!(server.status(JobId(id)).is_none(), "cut {cut}");
                    continue;
                }
                let status = server.wait(JobId(id)).unwrap();
                assert_eq!(status.state, JobState::Done, "cut {cut}");
                assert_eq!(
                    status.result.as_deref(),
                    Some(docs[id as usize - 1].as_str()),
                    "cut {cut}: job {id}"
                );
            }
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_leftover_checkpoint_file_is_listed_and_its_job_restarts() {
        let dir = fresh_state_dir("server_leftover_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let config = scenario(13);
        let id = JobId(1);
        JobLog::new(&dir).append_record(&JobRecord {
            id,
            priority: 0,
            state: JobState::Running,
            scenario: config,
            error: None,
        });
        // The earlier layout's per-job checkpoint journal.
        let leftover = dir.join("ckpt-1.json");
        std::fs::write(&leftover, halted_captures(&config, 2)[0].clone() + "\n").unwrap();
        let server = Server::open(one_worker(&dir)).unwrap();
        let skipped: Vec<(&str, &str)> = server
            .quarantined()
            .iter()
            .map(|q| (q.file.as_str(), q.reason.as_str()))
            .collect();
        assert_eq!(
            skipped,
            [(
                "ckpt-1.json",
                "per-job file from an earlier layout; not loaded"
            )]
        );
        let status = server.wait(id).unwrap();
        assert_eq!(status.state, JobState::Done);
        assert_eq!(
            status.result.as_deref(),
            Some(standalone_json(&config).as_str())
        );
        // It restarted: its first progress event comes one cadence (the
        // job's `n`) after the start, not after the capture.
        let (events, _) = server.events(id, 0).unwrap();
        let first = pp_core::json::Json::parse(&events[0]).unwrap();
        let interactions = first
            .get("interactions")
            .and_then(pp_core::json::Json::as_u64);
        assert!(
            interactions.is_some_and(|i| i < 2 * config.population),
            "{events:?}"
        );
        server.shutdown();
        assert!(leftover.exists(), "the leftover stays where it was");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn served_jobs_create_no_file_and_the_log_stays_within_its_bound() {
        let dir = fresh_state_dir("server_bounded_log_test");
        let cfg = ServerConfig {
            workers: Some(1),
            state_dir: Some(dir.clone()),
            progress_every: 40,
            checkpoint_every: 40,
        };
        let server = Server::open(cfg.clone()).unwrap();
        let slack = 16 << 10;
        server.inner.lock().log.as_mut().unwrap().slack = slack;
        let configs: Vec<ScenarioConfig> = (0..10).map(|i| scenario(40 + i)).collect();
        let mut served = Vec::new();
        for config in &configs {
            let id = server.submit(*config, 0).unwrap();
            let status = server.wait(id).unwrap();
            assert_eq!(status.state, JobState::Done);
            assert_eq!(
                status.result.as_deref(),
                Some(standalone_json(config).as_str())
            );
            served.push((id, status.result.unwrap()));
            let text = std::fs::read_to_string(dir.join(JOB_LOG)).unwrap();
            let (len, live) = server.inner.lock().log.as_ref().unwrap().sizes();
            assert_eq!(len, text.len() as u64, "the log counts what it wrote");
            // Every append that carries the log past its bound rewrites it.
            assert!(len <= 2 * live + slack, "{len} bytes, {live} live");
            let names = file_names(&dir);
            assert!(
                names.iter().all(|n| n == "jobs.log" || n == "jobs.log.tmp"),
                "{names:?}"
            );
        }
        assert_eq!(server.shutdown(), 0);
        assert_eq!(
            file_names(&dir),
            ["jobs.log", "jobs.log.tmp"],
            "the log was rewritten while the server ran"
        );
        // Reopening rewrites it to the live lines: every record and result,
        // and no checkpoint of a done job.
        Server::open(cfg).unwrap().shutdown();
        let replayed = job::replay(&std::fs::read(dir.join(JOB_LOG)).unwrap());
        assert!(replayed.bad.is_empty());
        assert!(replayed.captures.is_empty());
        assert_eq!(replayed.records.len(), configs.len());
        for (id, result) in &served {
            assert_eq!(replayed.results.get(&id.0), Some(result));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
