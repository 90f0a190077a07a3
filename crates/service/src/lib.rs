//! Simulation-as-a-service for the k-opinion USD engine stack.
//!
//! This crate turns the simulators under `pp-core`/`usd-core` into a
//! long-lived job server without weakening any of their guarantees.  It is
//! four layers, each usable on its own:
//!
//! * [`scenario`] — [`ScenarioConfig`], a versioned JSON description of one
//!   complete run: seed, population and opinion count, bias and undecided
//!   seeding, the dynamic, the engine choice with its shard / ensemble /
//!   parallelism plan, the stop budget, and the progress-sampling knobs.
//!   See the module docs for the full schema reference.
//! * [`runner`] — [`run_scenario`], the single code path that executes a
//!   scenario, shared by the server's workers, `usd_run --scenario` and
//!   `usd_run`'s flags.  [`RunControl`] threads in progress, interrupt,
//!   checkpoint, resume, recorder and telemetry hooks; none of them
//!   consumes randomness.
//! * [`job`] + [`server`] — a [`JobId`]-keyed priority FIFO with a bounded
//!   worker pool, lifecycle tracking (`Queued → Running → Done / Failed /
//!   Cancelled`), sequence-numbered streamed progress events, cancellation,
//!   and crash-consistent persistence (an append-only log of job records
//!   and canonical results, and resume checkpoints, in a state directory).
//! * [`protocol`] — the NDJSON wire format the `pp_serve` binary speaks
//!   over stdin/stdout and a Unix domain socket, with schema validators
//!   (`service_check` runs them in CI).  See the module docs for the
//!   message reference.
//!
//! ## Determinism contract
//!
//! Submitting a scenario to a server yields a result **bit-identical** to
//! running the same scenario standalone (`usd_run --scenario`, or the
//! equivalent hand-typed flags).  This holds by construction: the flags
//! are a syntax for a [`ScenarioConfig`], every front-end runs it through
//! [`run_scenario`], and the service machinery (recorders, telemetry,
//! progress pauses, checkpoints) never touches the RNG stream.  The contract is independent of queue order, priority, worker
//! pool size and whatever other jobs run concurrently — each job owns its
//! engines and RNG streams outright.  `tests/service_equivalence.rs` pins
//! it with concurrent-job and socket round trips.
//!
//! ## Resume contract
//!
//! With a state directory, a killed server (crash or [`Server::kill`])
//! leaves every in-flight job as a `running` record plus, for a single
//! trajectory or a USD ensemble, a checkpoint line captured at an exact
//! pause boundary; reopening the directory re-queues and resumes those
//! jobs, and their results are bit-identical to the never-interrupted run.
//! Sampling-dynamic ensembles have no mid-run capture seam — they restart
//! from scratch and reach the same result by determinism alone, repaying
//! only wall time.  Canonical result documents
//! are stored verbatim, so `result` replies survive restarts byte-for-byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod job;
pub mod protocol;
pub mod runner;
pub mod scenario;
pub mod server;

/// The workspace's JSON codec, re-exported under its earlier path.
pub use pp_core::json;

pub use job::{JobId, JobRecord, JobState, JOB_FORMAT_VERSION};
pub use protocol::{check_progress_line, check_result_doc, parse_request, Request};
pub use runner::{
    result_json, run_scenario, Interrupt, ProgressEvent, RunControl, RunVerdict, ScenarioOutcome,
};
pub use scenario::{Dynamic, ScenarioConfig, SCENARIO_FORMAT_VERSION};
pub use server::{JobStatus, QuarantinedRecord, Server, ServerConfig};
