//! # usd-core — the k-opinion Undecided State Dynamics
//!
//! This crate is the reproduction of the primary contribution of
//! *"Fast Convergence of k-Opinion Undecided State Dynamics in the Population
//! Protocol Model"* (PODC 2023): the k-opinion USD itself, together with the
//! analytical machinery the paper builds around it.
//!
//! * [`UndecidedStateDynamics`] — the protocol (transition function of
//!   Section 2), pluggable into every simulator and step engine of
//!   [`pp_core`]; the batched backend tabulates it once and draws its
//!   state-changing events in `O(k)`.
//! * [`UsdSimulator`] — the USD driver over the unified step-engine layer,
//!   with USD-specific helpers (phase-aware runs, bias queries).  Pick a
//!   backend per run with [`UsdSimulator::with_engine`] — `Exact` for ground
//!   truth, `Batched` for large-`n` speed at identical trajectory law,
//!   `Sharded` for parallel per-shard batching at `n ≥ 10⁸` (tunably
//!   approximate; plan it with [`UsdSimulator::with_engine_plan`]),
//!   `MeanField` for instant ODE approximation, `Hybrid` for adaptive
//!   mean-field ↔ batched switching under an online fluctuation detector
//!   ([`hybrid::HybridEngine`]).  A run keeps its backend throughout;
//!   `Hybrid` is the adaptive engine mix, changing fidelity mid-run where
//!   the detector says it is safe.  For Monte Carlo estimates over many runs,
//!   [`UsdEnsemble`] ([`UsdSimulator::ensemble`]) advances `R` batched
//!   replicas over a pool of worker threads, each replica bit-identical to
//!   a standalone same-seed run.
//! * [`phases`] — the five-phase structure of the paper's analysis
//!   (Section 2.1) with a [`phases::PhaseTracker`] that measures the hitting
//!   times `T1..T5` of a run.
//! * [`potential`] — the potential functions `Z_α(t) = n − 2u(t) − α·x_max(t)`
//!   and the exact transition probabilities of Appendix B.
//! * [`bounds`] — evaluators for the paper's quantitative claims
//!   (Lemma 3/4 undecided-count envelope, Theorem 2 interaction bounds).
//! * [`coupling`] — the Lemma 17 coupling of the k-opinion process with a
//!   2-opinion process, used in Phase 5.
//! * [`two_opinion`] — the `k = 2` specialization (approximate majority of
//!   Angluin et al.).
//!
//! ## Quickstart
//!
//! ```
//! use usd_core::prelude::*;
//!
//! // 10 000 agents, 8 opinions, additive bias of 2·sqrt(n ln n) for opinion 0.
//! let config = pp_workloads::InitialConfig::new(10_000, 8)
//!     .additive_bias_in_sqrt_n_log_n(2.0)
//!     .build(SimSeed::from_u64(7))
//!     .unwrap();
//!
//! let mut sim = UsdSimulator::new(config, SimSeed::from_u64(8));
//! let result = sim.run_to_consensus(200_000_000);
//! assert!(result.reached_consensus());
//! assert_eq!(result.winner().unwrap().index(), 0); // plurality wins
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounds;
pub mod coupling;
pub mod ensemble;
pub mod exact;
pub mod hybrid;
pub mod mean_field;
pub mod phases;
pub mod potential;
pub mod protocol;
pub mod simulator;
pub mod trajectory;
pub mod two_opinion;

pub use coupling::CoupledUsd;
pub use ensemble::UsdEnsemble;
pub use exact::TwoOpinionChain;
pub use hybrid::HybridEngine;
pub use mean_field::{MeanFieldEngine, MeanFieldState};
pub use phases::{Phase, PhaseTimes, PhaseTracker};
pub use protocol::UndecidedStateDynamics;
pub use simulator::{PhasedRunResult, UsdEngine, UsdSimulator};
pub use trajectory::Trajectory;
pub use two_opinion::ApproximateMajority;

/// Convenience prelude re-exporting the types needed by most users, including
/// the relevant parts of `pp-core`.
pub mod prelude {
    pub use crate::bounds;
    pub use crate::ensemble::UsdEnsemble;
    pub use crate::exact::TwoOpinionChain;
    pub use crate::hybrid::HybridEngine;
    pub use crate::mean_field::{MeanFieldEngine, MeanFieldState};
    pub use crate::phases::{Phase, PhaseTimes, PhaseTracker};
    pub use crate::potential;
    pub use crate::protocol::UndecidedStateDynamics;
    pub use crate::simulator::{PhasedRunResult, UsdEngine, UsdSimulator};
    pub use crate::trajectory::Trajectory;
    pub use crate::two_opinion::ApproximateMajority;
    pub use pp_core::prelude::*;
}
