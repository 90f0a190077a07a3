//! # consensus-dynamics — baseline consensus dynamics
//!
//! The paper situates the USD among a family of lightweight consensus
//! dynamics (Section 1.2).  This crate implements the standard comparators so
//! the experiment harness can contrast the USD's convergence behaviour with
//! them at equal population size, opinion count and bias:
//!
//! * [`Voter`] — the 1-sample Voter process,
//! * [`TwoChoices`] — the 2-sample TwoChoices process with lazy tie-breaking,
//! * [`ThreeMajority`] / [`JMajority`] — the 3-sample (and general j-sample)
//!   majority dynamics,
//! * [`MedianRule`] — the median rule of Doerr et al. (requires ordered
//!   opinions),
//! * [`SynchronizedUsd`] — the phase-clocked synchronized USD variant
//!   discussed in the related work (alternating USD step / re-adoption step).
//!
//! The first four are *sampling dynamics*: in each activation an agent looks
//! at `j` uniformly random members of the population and updates its own
//! opinion.  They can be executed either asynchronously (one activation per
//! step, the natural analogue of the population protocol model — see
//! [`SequentialSampler`]) or in synchronous gossip rounds
//! ([`SynchronousRunner`]).
//!
//! ## Closed-form conditional sampling
//!
//! Every sampling dynamic opts into the sequential sampler's geometric
//! skip-ahead by providing two closed forms
//! ([`SamplingDynamics::null_activation_probability`] and
//! [`SamplingDynamics::sample_productive_move`]): the exact probability that
//! one activation changes nothing, and a direct draw of the productive
//! `(current, new)` transition from its conditional law.  The common
//! structure is that the adopted opinion depends only on the *samples*, so
//! the productive pairs factorize as `count(current) × adoption-weight(new)`
//! with the diagonal removed:
//!
//! * **Voter / TwoChoices** — adoption weights are single products of
//!   counts (`x_b`, `x_b²·(n − x_b)`): pure integer arithmetic, `O(k)`.
//! * **j-Majority / 3-Majority** — the adoption law `q_o` marginalizes the
//!   multinomial sample composition through a chain of conditional
//!   binomials (a small dynamic program over samples-left × ties, pruning
//!   compositions where any rival exceeds the candidate's count); see
//!   [`majority`] for the derivation.
//! * **MedianRule** — order statistics reduce to prefix/suffix sums of the
//!   counts: a decided agent moves only when both samples fall strictly on
//!   one side of it, an undecided agent adopts its first decided sample;
//!   see [`median`].  Pure `u128` integer arithmetic, `O(k)`.
//!
//! With the hooks in place the rejection fallback never fires — the
//! `rejection misses` counter threaded through
//! [`pp_core::RunResult::rejection_misses`] is pinned to 0 by the
//! `conformance` integration suite, which also chi-squares each conditional
//! sampler against its per-activation reference (via
//! `pp_analysis::conformance`).
//!
//! The expensive laws are *maintained*, not recomputed: the j-Majority
//! adoption law and the MedianRule prefix/suffix sums are an
//! [`ActivationLaw`] the sequential sampler owns, **patched in `O(delta)`**
//! from each applied move (exact-integer formulations, so patched and
//! rebuilt laws are bit-identical — see [`majority`] and [`median`] for the
//! delta rules) and rebuilt only on a run's first refresh or past the
//! integer headroom.  The sampler counts each refresh into its
//! `pp_core::MaintenanceStats`; [`law_maintenance`] holds the law and the
//! [`set_incremental_laws`] baseline switch.
//!
//! ## Replica ensembles
//!
//! Monte Carlo sweeps over many same-configuration runs go through
//! [`sampler_ensemble`], which builds a `pp_core::ensemble::EnsembleEngine`
//! of [`SequentialSampler`] replicas: each replica advances through its own
//! skip-ahead path on its own RNG stream, so every replica is
//! bit-identical to a standalone same-seed run
//! (`tests/ensemble_equivalence.rs` pins all five dynamics).
//!
//! ## Example
//!
//! ```
//! use consensus_dynamics::{SequentialSampler, ThreeMajority};
//! use pp_core::{Configuration, SimSeed, StopCondition};
//!
//! let config = Configuration::from_counts(vec![600, 250, 150], 0).unwrap();
//! let mut sim = SequentialSampler::new(ThreeMajority::new(3), config, SimSeed::from_u64(1));
//! let result = sim.run(StopCondition::consensus().or_max_interactions(5_000_000));
//! assert!(result.reached_consensus());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod law_maintenance;
pub mod majority;
pub mod median;
pub mod sampling;
pub mod sync_usd;
pub mod voter;

pub use law_maintenance::{incremental_laws_enabled, set_incremental_laws, ActivationLaw};
pub use majority::{JMajority, ThreeMajority};
pub use median::MedianRule;
pub use sampling::{
    sampler_ensemble, SamplingDynamics, SequentialSampler, SynchronousRunner,
    SEQUENTIAL_ACTIVATION_SCHEDULER_NAME,
};
pub use sync_usd::SynchronizedUsd;
pub use voter::{PairwiseVoter, TwoChoices, Voter};
