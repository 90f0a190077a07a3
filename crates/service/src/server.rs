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
//! running USD jobs checkpoint periodically, and [`Server::kill`] halts
//! workers at the next pause boundary with a final checkpoint — so a
//! killed (or crashed) server reopened on the same directory re-queues
//! in-flight jobs and resumes them from their captures, finishing on the
//! bit-identical trajectory.  Jobs without a pause seam (the sampling
//! dynamics) restart from scratch instead; determinism makes the re-run's
//! result equal, it just repays the wall time.
//!
//! Job records and results are lines of one append-only `jobs.log` (see
//! [`crate::job`]): each transition appends one line, and a done job
//! appends its record and result together, with one `write` to a handle
//! the server keeps open, so a kill at any byte leaves every earlier line
//! whole and at most a torn last line.  A job's checkpoint `ckpt-N.json`
//! is a [`pp_core::checkpoint::CheckpointJournal`]: each capture appends
//! one line, and a kill at any byte leaves the previous capture as the
//! last whole line, which is what the job resumes from.  A finished job's
//! checkpoint is deleted with its spare.  A write that fails is counted
//! ([`Server::persist_failures`]) and the job goes on in memory.
//!
//! Reopening replays the log: each job is in the state of its last whole
//! record line, and a torn last line is ignored.  A whole line that does
//! not parse is kept in `jobs.log.corrupt`, and so is a result line whose
//! checksum is missing or wrong or whose document fails
//! [`protocol::check_result_doc`]; a job no parsed line
//! names is forgotten, and new jobs still get ids above it.  A done job
//! without a valid result line runs again (determinism makes the re-run
//! store the identical document).  A checkpoint that does not load is set
//! aside as `ckpt-N.json.corrupt` and its job restarts from scratch.
//! `job-N.json` and `result-N.json` files of an earlier per-job layout are
//! not loaded.  [`Server::quarantined`] names each of these with its
//! reason, and the rest of the directory opens normally.  Open then
//! rewrites the log to its live lines ([`pp_core::checkpoint::write_atomic`]),
//! the only time the log is rewritten.
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
use pp_core::checkpoint::remove_atomic;
use pp_core::{Checkpoint, Parallelism};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Server construction knobs.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Worker pool size; `None` resolves like the parallel engines
    /// (machine parallelism).
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

/// State [`Server::open`] could not use: a log line, a checkpoint, or a
/// file of an earlier layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRecord {
    /// What was skipped: `jobs.log:<line>` for a whole log line that does
    /// not parse (kept in `jobs.log.corrupt`), `jobs.log` for a log that
    /// cannot be read, `ckpt-N.json` for a checkpoint that does not load
    /// (moved aside with an extra `.corrupt` suffix), or `job-N.json` /
    /// `result-N.json` from an earlier per-job layout (left in place).
    pub file: String,
    /// Why it was skipped, and where it went.
    pub reason: String,
}

/// Moves `path` aside as `<path>.corrupt` (when it exists) and names it
/// with `reason`.
fn quarantine(path: &Path, reason: &str) -> QuarantinedRecord {
    let file = path
        .file_name()
        .map_or_else(String::new, |name| name.to_string_lossy().into_owned());
    let mut aside = path.as_os_str().to_owned();
    aside.push(".corrupt");
    let reason = match std::fs::rename(path, &aside) {
        Ok(()) => format!("{reason} (moved to {file}.corrupt)"),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => reason.to_string(),
        Err(e) => format!("{reason} (cannot move it aside: {e})"),
    };
    QuarantinedRecord { file, reason }
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

/// The `job-N.json` and `result-N.json` files of the earlier per-job
/// layout, with their ids, in name order.
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
    /// still get ids above every id the log names, so none reuses a
    /// quarantined job's id or checkpoint.
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
            let (mut bad, mut results) = (replay.bad, replay.results);
            // A result line that parses but is no result document is set
            // aside like an unparsable line: a damaged result is never
            // served, and its job runs again.
            results.retain(|id, doc| match valid_result(doc) {
                Ok(()) => true,
                Err(reason) => {
                    bad.push(job::BadLine {
                        line: replay.result_lines[id],
                        reason,
                        bytes: job::result_line(JobId(*id), doc).trim_end().into(),
                    });
                    false
                }
            });
            bad.sort_by_key(|line| line.line);
            quarantined.extend(keep_bad_lines(dir, &bad));
            for (id, mut record) in replay.records {
                let mut result = None;
                let mut resume = None;
                if record.state == JobState::Done {
                    result = results.remove(&id);
                    if result.is_none() {
                        record.state = JobState::Queued;
                    }
                } else if !record.state.is_terminal() {
                    // A `running` job was interrupted by a kill or crash;
                    // it goes back on the queue, resuming from its
                    // checkpoint when one loads.
                    record.state = JobState::Queued;
                    let path = JobRecord::checkpoint_path_in(dir, record.id);
                    if path.exists() {
                        match Checkpoint::load(&path) {
                            Ok(checkpoint) => resume = Some(checkpoint),
                            Err(e) => quarantined.push(quarantine(&path, &e.to_string())),
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
            .map_or_else(Parallelism::auto, Parallelism::fixed)
            .resolve(usize::MAX)
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
    /// file order, then checkpoints, then files of an earlier layout.
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
        state.persist_record(&record);
        state.jobs.insert(
            id.0,
            Job {
                record,
                result: None,
                events: Vec::new(),
                cancel: Arc::new(AtomicBool::new(false)),
                resume: None,
            },
        );
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
                remove_checkpoint(&self.inner, id);
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
    /// job.
    fn persist_record(&mut self, record: &JobRecord) {
        if let Some(log) = &mut self.log {
            log.append_record(record);
        }
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

fn worker_loop(inner: &ServerInner) {
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
    inner: &ServerInner,
    id: u64,
    record: &JobRecord,
    cancel: &AtomicBool,
    resume: Option<Checkpoint>,
) {
    let job_id = JobId(id);
    let scenario = record.scenario;
    let checkpoint_path = inner
        .cfg
        .state_dir
        .as_ref()
        .map(|dir| JobRecord::checkpoint_path_in(dir, job_id));
    let checkpoint_every = if inner.cfg.checkpoint_every == 0 {
        scenario.population.max(1)
    } else {
        inner.cfg.checkpoint_every
    };
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
        checkpoint: checkpoint_path
            .as_deref()
            .map(|path| (path, checkpoint_every)),
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
            if let Some(log) = &mut state.log {
                log.append_done(&record, &result);
            }
            job.result = Some(result);
            remove_checkpoint(inner, job_id);
        }
        Ok(RunVerdict::Interrupted(Interrupt::Cancelled)) => {
            job.record.state = JobState::Cancelled;
            let record = job.record.clone();
            push_terminal_event(job, &record, None);
            state.persist_record(&record);
            remove_checkpoint(inner, job_id);
        }
        Ok(RunVerdict::Interrupted(Interrupt::Halted)) => {
            // The server is going down; the job stays `running` on disk
            // (with its checkpoint) so the next open re-queues it.  In
            // memory nothing more to do — the process is exiting.
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

/// Deletes a finished job's checkpoint with its spare.
fn remove_checkpoint(inner: &ServerInner, id: JobId) {
    if let Some(dir) = &inner.cfg.state_dir {
        let _ = remove_atomic(&JobRecord::checkpoint_path_in(dir, id));
    }
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

    /// Runs `config` until its `boundaries`-th pause boundary (cadence 50)
    /// and halts it there, checkpointing into `path`.
    fn halted_checkpoint(config: &ScenarioConfig, path: &Path, boundaries: u32) {
        let polls = std::cell::Cell::new(0);
        let halt = || {
            polls.set(polls.get() + 1);
            (polls.get() >= boundaries).then_some(Interrupt::Halted)
        };
        let verdict = run_scenario(
            config,
            RunControl {
                progress_every: 50,
                interrupt: Some(&halt),
                checkpoint: Some((path, 50)),
                ..RunControl::default()
            },
        )
        .unwrap();
        assert!(matches!(
            verdict,
            RunVerdict::Interrupted(Interrupt::Halted)
        ));
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
        assert!(lines[3].starts_with("result 1 "), "{text}");
        assert!(lines[4].starts_with(r#"{"job":1,"id":2,"#), "{text}");
        let torn = &lines[4][..lines[4].len() / 2];
        std::fs::write(&log, format!("{}\n{torn}\n", lines[..4].join("\n"))).unwrap();

        let reopened = Server::open(one_worker(&dir)).unwrap();
        let skipped = reopened.quarantined();
        assert_eq!(skipped.len(), 1, "{skipped:?}");
        assert_eq!(skipped[0].file, "jobs.log:5");
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
    fn a_torn_checkpoint_is_quarantined_and_its_job_restarts() {
        let dir = fresh_state_dir("server_torn_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let config = scenario(8);
        let id = JobId(1);
        // A job a crash left `running`, with the checkpoint its run sank
        // before the crash.
        JobLog::new(&dir).append_record(&JobRecord {
            id,
            priority: 0,
            state: JobState::Running,
            scenario: config,
            error: None,
        });
        let checkpoint = JobRecord::checkpoint_path_in(&dir, id);
        halted_checkpoint(&config, &checkpoint, 3);
        // Torn inside its first line.
        let text = std::fs::read_to_string(&checkpoint).unwrap();
        let first_line = text.find('\n').expect("the journal has a whole line");
        std::fs::write(&checkpoint, &text[..first_line / 2]).unwrap();

        let server = Server::open(one_worker(&dir)).unwrap();
        let skipped = server.quarantined();
        assert_eq!(skipped.len(), 1, "{skipped:?}");
        assert_eq!(skipped[0].file, "ckpt-1.json");
        assert!(skipped[0].reason.contains("checkpoint"), "{skipped:?}");
        assert!(dir.join("ckpt-1.json.corrupt").exists());
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
        // No record or result file, and the checkpoint left with its spare.
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
        // Its queued, running and done appends all failed.
        assert_eq!(server.persist_failures(), 3);
        assert_eq!(server.shutdown(), 3);
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
        // Job 1 done, job 2 running with a checkpoint, job 3 queued.
        let mut log = JobLog::new(&dir);
        log.append_record(&record(1, JobState::Queued));
        log.append_record(&record(1, JobState::Running));
        log.append_done(&record(1, JobState::Done), &docs[0]);
        log.append_record(&record(2, JobState::Queued));
        log.append_record(&record(3, JobState::Queued));
        log.append_record(&record(2, JobState::Running));
        drop(log);
        let bytes = std::fs::read(dir.join(JOB_LOG)).unwrap();
        let checkpoint = JobRecord::checkpoint_path_in(&dir, JobId(2));
        halted_checkpoint(&configs[1], &checkpoint, 1);
        let capture = std::fs::read(&checkpoint).unwrap();

        for cut in 0..=bytes.len() {
            let torn = &bytes[..cut];
            // The state of each job's last whole record line, and whether
            // job 1's result line is whole.
            let whole = torn.iter().rposition(|&b| b == b'\n').map_or(0, |e| e + 1);
            let whole = std::str::from_utf8(&torn[..whole]).unwrap();
            let mut last = BTreeMap::new();
            for line in whole.lines() {
                if let Ok(r) = JobRecord::from_json(line) {
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
            std::fs::write(&checkpoint, &capture).unwrap();
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
}
