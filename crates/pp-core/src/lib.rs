//! # pp-core — a population protocol engine
//!
//! This crate provides the simulation substrate used by the reproduction of
//! *"Fast Convergence of k-Opinion Undecided State Dynamics in the Population
//! Protocol Model"* (PODC 2023).
//!
//! It implements the population protocol model of computation: `n` anonymous
//! agents, each holding a state from a finite state space, interacting in
//! ordered pairs *(responder, initiator)* drawn uniformly at random (with
//! self-interactions allowed, exactly as in the paper).
//!
//! ## The step-engine layer
//!
//! All count-based simulation goes through the [`engine::StepEngine`] trait,
//! which abstracts *how* the count-vector Markov chain is advanced.  Pick a
//! backend with [`EngineChoice`]:
//!
//! * [`ExactEngine`] (= [`CountSimulator`]) — the canonical ground-truth
//!   backend: one interaction per step, category sampling through a Fenwick
//!   tree in `O(log k)` independent of `n`.  Use it when per-interaction
//!   observability matters or as the reference in equivalence tests.
//! * [`BatchedEngine`] — exact-in-distribution skip-ahead: jumps over the
//!   geometrically distributed runs of *null* interactions and draws only
//!   the state-changing events.  Same trajectory law, orders of magnitude
//!   faster whenever nulls dominate (deep-bias regimes, every consensus
//!   endgame).  Use it for large populations; protocols opt into `O(k)`
//!   events via [`OpinionProtocol::null_interaction_weight`] /
//!   [`OpinionProtocol::productive_responder_weight`].
//! * [`ShardedEngine`] — the count vector split into `S` shards, each owned
//!   by a batched engine and advanced in parallel worker threads, with
//!   cross-shard interactions allocated to shard pairs by multinomial draws
//!   and reconciled at epoch boundaries.  Built for `n ≥ 10⁹`; tunably
//!   approximate (see [`shard`] for the fidelity discussion).
//! * `MeanFieldEngine` (in `usd-core`) — the deterministic ODE limit behind
//!   the same trait.  Instant at any `n`, but an approximation: use it for
//!   exploration, never for distributional statistics.
//! * `HybridEngine` (in `usd-core`) — adaptive multi-fidelity: mean-field
//!   speed through drift-dominated bulk transit, dropping back to batched
//!   stochastic sampling whenever the [`hybrid`] fluctuation detector trips
//!   (hysteresis + minimum dwell; see the module docs for the derivation
//!   and the determinism contract).
//!
//! Monte Carlo estimates over many independent runs go through the
//! [`ensemble::EnsembleEngine`], which advances `R` replicas of one
//! protocol/configuration in scheduling windows: each window, every live
//! replica runs a chunk of events through its own [`StepEngine::advance`],
//! and the live replicas spread over the worker threads of the shared
//! [`parallel`] layer.  Per-replica RNG streams and the layer's deterministic partition
//! keep every replica *bit-identical* to a standalone same-seed run at
//! every thread count — see [`ensemble`] for the exactness argument.
//!
//! Both parallel engines (sharded, ensemble) draw their workers from
//! [`parallel`]: a [`Parallelism`] knob plus scoped fork/join execution
//! over a deterministic contiguous partition, under a shared determinism
//! contract (see the module docs) that makes thread count a pure
//! wall-clock dial.
//!
//! [`AgentSimulator`] remains as the explicit agent-array ground truth for
//! fidelity cross-checks and protocols with per-agent state.
//!
//! The crate also provides [`Configuration`] (the count vector with its
//! bias/support metrics), stopping rules, trace recorders and reproducible
//! seed management.
//!
//! Every JSON document the workspace reads or writes — checkpoints, run
//! results, scenarios, job records, protocol lines, metrics and benchmark
//! records — goes through the one codec in [`json`].
//!
//! Observability goes through [`telemetry`]: a zero-dependency metrics
//! registry (counters / gauges / log-bucket histograms) plus RAII timing
//! spans with a chrome-trace export, attached to engines via a cloneable
//! [`Telemetry`] handle.  Telemetry never consumes randomness — enabling it
//! cannot change a trajectory (see the module docs for the contract).
//!
//! ## Example
//!
//! ```
//! use pp_core::prelude::*;
//!
//! /// The 2-opinion undecided-state dynamics written directly against the
//! /// `OpinionProtocol` trait (the full k-opinion version lives in `usd-core`).
//! struct TinyUsd;
//!
//! impl OpinionProtocol for TinyUsd {
//!     fn num_opinions(&self) -> usize { 2 }
//!     fn respond(&self, responder: AgentState, initiator: AgentState) -> AgentState {
//!         match (responder, initiator) {
//!             (AgentState::Decided(a), AgentState::Decided(b)) if a != b => AgentState::Undecided,
//!             (AgentState::Undecided, AgentState::Decided(b)) => AgentState::Decided(b),
//!             (r, _) => r,
//!         }
//!     }
//! }
//!
//! let config = Configuration::from_counts(vec![70, 30], 0).unwrap();
//! let mut sim = CountSimulator::new(TinyUsd, config, SimSeed::from_u64(7));
//! let result = sim.run(StopCondition::consensus().or_max_interactions(10_000_000));
//! assert!(result.reached_consensus());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agent_sim;
pub mod checkpoint;
pub mod config;
pub mod count_sim;
pub mod engine;
pub mod ensemble;
pub mod error;
pub mod fenwick;
pub mod hybrid;
pub mod json;
pub mod opinion;
pub mod parallel;
pub mod protocol;
pub mod recorder;
pub mod rng;
pub mod run;
pub mod scheduler;
pub mod shard;
pub mod stopping;
pub mod telemetry;

pub use agent_sim::AgentSimulator;
pub use checkpoint::{
    Checkpoint, EngineCheckpoint, EngineSnapshot, EngineState, EnsembleSnapshot, MeanFieldSnapshot,
    ReplicaCheckpoint, ShardSnapshot, ShardedSnapshot, CHECKPOINT_FORMAT_VERSION,
};
pub use config::Configuration;
pub use count_sim::CountSimulator;
pub use engine::{
    Advance, BatchedEngine, CountEngine, EngineChoice, ExactEngine, Leg, Pause, StepEngine,
};
pub use ensemble::{EnsembleChoice, EnsembleEngine, EnsembleRunResult};
pub use error::{ConfigError, PpError};
pub use fenwick::FenwickTree;
pub use hybrid::{Fidelity, FidelityConfig, FidelityController, FidelitySignal};
pub use opinion::{AgentState, Opinion, UNDECIDED_INDEX};
pub use parallel::Parallelism;
pub use protocol::{OpinionProtocol, PairwiseProtocol};
pub use recorder::{NullRecorder, Recorder, Snapshot, TraceRecorder};
pub use rng::{SimSeed, SplitMix64};
pub use run::{MaintenanceStats, RunOutcome, RunResult};
pub use scheduler::{InteractionScheduler, OrderedPair, UniformPairScheduler};
pub use shard::{ShardPlan, ShardedEngine};
pub use stopping::StopCondition;
pub use telemetry::{MetricsSnapshot, Telemetry};

/// Convenience prelude re-exporting the types needed by most users.
pub mod prelude {
    pub use crate::agent_sim::AgentSimulator;
    pub use crate::checkpoint::{Checkpoint, EngineCheckpoint, ReplicaCheckpoint};
    pub use crate::config::Configuration;
    pub use crate::count_sim::CountSimulator;
    pub use crate::engine::{
        Advance, BatchedEngine, CountEngine, EngineChoice, ExactEngine, StepEngine,
    };
    pub use crate::ensemble::{EnsembleChoice, EnsembleEngine, EnsembleRunResult};
    pub use crate::error::{ConfigError, PpError};
    pub use crate::hybrid::{Fidelity, FidelityConfig, FidelityController, FidelitySignal};
    pub use crate::opinion::{AgentState, Opinion};
    pub use crate::parallel::Parallelism;
    pub use crate::protocol::{OpinionProtocol, PairwiseProtocol};
    pub use crate::recorder::{NullRecorder, Recorder, Snapshot, TraceRecorder};
    pub use crate::rng::SimSeed;
    pub use crate::run::{MaintenanceStats, RunOutcome, RunResult};
    pub use crate::shard::{ShardPlan, ShardedEngine};
    pub use crate::stopping::StopCondition;
    pub use crate::telemetry::{MetricsSnapshot, Telemetry};
}
