//! The unified step-engine layer.
//!
//! Every count-based simulation in this workspace advances the same Markov
//! chain over [`Configuration`]s; what differs is *how* the chain is driven.
//! This module abstracts the driving strategy behind one trait so every
//! consumer (USD runs, baseline dynamics, gossip variants, experiments,
//! benches) can switch strategy without touching its own logic:
//!
//! * [`ExactEngine`] (= [`CountSimulator`]) — the canonical per-interaction
//!   Fenwick sampler: one category pair per step, `O(log k)` each.
//! * [`BatchedEngine`] — exact-in-distribution skip-ahead.  From the current
//!   counts it computes the probability `p` that an interaction changes the
//!   state, samples the geometrically distributed number of *null*
//!   interactions (pairs that provably leave the counts unchanged, e.g.
//!   decided-meets-same-opinion in the USD), jumps straight over them, and
//!   then draws the category pair of the next state-changing event from the
//!   exact conditional distribution.  One unit of work per *event* instead of
//!   per *interaction*: in the long null-dominated stretches of a run (the
//!   coupon-collector endgame of Phase 5, deep-bias regimes) this is orders
//!   of magnitude faster, and the induced distribution over recorded
//!   trajectories is the same as the exact engine's.
//! * [`crate::shard::ShardedEngine`] — the count vector split into shards,
//!   each advanced by its own batched engine in parallel, with cross-shard
//!   interactions reconciled by multinomial epoch allocation (tunably
//!   approximate; built for `n ≥ 10⁹`).
//! * `MeanFieldEngine` (in `usd-core`) — the deterministic ODE limit lifted
//!   behind the same trait for instant large-`n` approximation.
//!
//! # The transition table
//!
//! The responder's next state is a pure function of the (responder,
//! initiator) category pair (the [`OpinionProtocol`] contract), so
//! [`BatchedEngine`] tabulates it once, at construction, as a flat `(k+1)²`
//! **transition table** `next[r·(k+1) + i] = respond(r, i)` (as a
//! category; see [`transition_table`]), and from then on reads only the
//! table.  A pair is productive exactly when `next[r][i] ≠ r`, so each row
//! factors as `row_cat = c_cat · S_cat` with `S_cat` the count-weighted sum
//! of productive initiator categories; a full rebuild computes every
//! `S_cat` from the table and the counts in `O(k²)`.
//!
//! # Incremental row maintenance
//!
//! Between rebuilds, the engine maintains its row table *across* events
//! instead of recomputing it before each one.  The invariants:
//!
//! * A state-changing event moves exactly one agent `from → to`; every
//!   `S_cat` shifts by `gain[to][cat] − gain[from][cat]`, where the
//!   transposed `(k+1)²` byte table `gain[c][cat] = [next[cat][c] ≠ cat]`
//!   is built beside `next` at construction, and the table is re-derived as
//!   `c_cat · S_cat` — `O(k)` exact integer adds per event, read from two
//!   contiguous `gain` rows.
//! * The event draw itself works on categories only.  One uniform unit
//!   below the total picks the responder category as the number of row
//!   prefix sums `≤` the unit; the unit's offset past the last of them,
//!   modulo the maintained `S_r`, picks the initiator as the number of
//!   prefix sums of `c_i · [next[r][i] ≠ r]` `≤` it; and the move is read
//!   off table row `r`.  Prefix sums never decrease, so these counts are
//!   the categories a stop-at-first scan would find, without its
//!   data-dependent exits.  Nothing on the per-event path calls the
//!   protocol.
//! * The draw has one data-dependent branch: whether responder row `r` has
//!   a **destination**, the one category every productive initiator moves
//!   a category-`r` responder to ([`row_destinations`], derived from the
//!   table at construction).  Then the move is known once `r` is, and the
//!   draw skips the modulo and the initiator count.  In the USD every
//!   decided row has destination `⊥`, so every clash event (about half of
//!   all events at k = 8) takes it.  The branch follows the drawn
//!   responder, so it is mispredicted often; it still pays.  On a 2-core
//!   x86-64 VM, a release build of the batched k = 8 USD (n = 10⁶, from a
//!   uniform start with n/4 undecided, legs of 10⁶ events) took 0.88–0.99×
//!   the time per event of the build without the branch, in 10 of 10
//!   interleaved pairs; the repository benchmark's `usd-paper-regimes`
//!   wall time fell 6.6–7.4% (medians of 10 pairs, two rounds).  The RNG words drawn are
//!   the same either way, so the trajectory does not depend on the branch.
//! * All weights are exact integers, so the patched table is
//!   **bit-identical** to a full rebuild: trajectories do not depend on
//!   whether maintenance was on.
//!
//! # The null skip
//!
//! Every skip-ahead engine (the batched engine, the sequential sampler in
//! `consensus-dynamics`, shard reconciliation) draws the number of null
//! interactions before each event through [`geometric_skip`]:
//! `floor(ln U / ln(1−p))` from one RNG word.  The two logs were the
//! dearest step of a batched event, so the function first decides skips
//! below 8 by comparing `U` with the powers `(1−p)^1 … (1−p)^8` — nine
//! multiplications and sixteen compares, no branches — and calls the logs
//! only for larger skips or a `U` within `10⁻⁶` relative of a power (about
//! 1–3% of draws in the paper's k = 8 regimes).  Both paths give the same
//! integer and consume the same word, so trajectories do not depend on
//! which one ran.
//!
//! # The event loop
//!
//! The drivers ([`StepEngine::run_engine_pausable`], which every
//! single-engine run goes through, and the ensemble's replica tasks)
//! do not call [`StepEngine::advance`] once per event: they call
//! [`StepEngine::leg`], which runs events until the first of
//!
//! 1. the hard `limit`: the `advance` that would cross it forwards the
//!    counter to it (or finds the configuration absorbed) and ends the leg;
//! 2. a soft interaction boundary `until`: the leg ends after the first
//!    event that brings the counter to `until` or past it;
//! 3. a cap of `max_events` events;
//! 4. an event that empties its source category,
//!
//! and check their goal, budget, checkpoint cadence and pause rule only
//! between legs.  The pause rule is data, not a callback: a [`Pause`] is an
//! interaction bound, which becomes the legs' `until`, and an event cap,
//! which becomes their `max_events`, so no driver runs caller code per
//! event.  The goal check is still exact.  An event moves one agent
//! from its source category to a different one, so an event that leaves
//! its source non-empty empties no category: afterwards both the source and
//! the destination are non-empty, which is not a consensus, and no opinion
//! died, so the number of live opinions did not fall and a run that was
//! not opinion-settled before the event is not settled after it.  The
//! drivers start a leg only when the goal is unmet, so only an event of
//! kind 4 can meet it, and the leg stops there.  The budget is the leg's
//! `limit`; the cadence and pause boundaries are its `until`.
//!
//! The RNG stream is unchanged: a leg is the same sequence of `advance`
//! calls one at a time would make — each event draws its
//! [`geometric_skip`] against the headroom to the same hard `limit`, and
//! ending a leg early, or a driver checking something between legs,
//! consumes no randomness and moves no limit.  [`BatchedEngine`] runs the
//! whole leg in one loop over its row table (its `advance` is that loop
//! capped at one event).  The hybrid engine (`usd-core`) runs legs too: it
//! judges its fidelity detector once per leg and runs up to the end of its
//! dwell or of a certified quiet horizon (see its module docs).  The other
//! engines keep the provided leg, one `advance` per event.
//!
//! # Weight width
//!
//! Every weight in the table is bounded by `n²`: `S_cat ≤ n` (it counts
//! agents), so `row_cat = c_cat · S_cat ≤ c_cat · n` and the total
//! `Σ c_cat · S_cat ≤ n · n`.  For `n ≤ 2³² − 1` that is below `2⁶⁴`, so
//! the engine keeps the table in `u64` and pays for no 128-bit multiplies,
//! adds, compares or divisions; larger populations keep it in `u128`.  The
//! width is re-chosen from the population at every full rebuild (and so
//! after every external count edit).  Both widths hold the same exact
//! integers, draw through the same RNG words ([`uniform_u64_below`] is the
//! `u64` branch of [`uniform_u128_below`]) and convert to the same `f64`,
//! so the trajectory does not depend on the width.  The debug cross-checks
//! stay in `u128`.
//!
//! # Rebuilds and checks
//!
//! The engine rebuilds the full row table from the transition table when
//! maintenance is disabled via [`BatchedEngine::set_incremental_rows`] (the
//! baseline that E13 and `engine_microbench` measure the patch against), and
//! after external count edits (the shard reconciler's cross-shard updates
//! invalidate the maintained state).  Patch/rebuild counts are reported
//! through [`StepEngine::maintenance`] into [`RunResult`].  The rows have one
//! reference: debug builds cross-check a sample (every 64th refresh, rebuilt
//! or patched) of tables against direct enumeration of `respond` over the
//! counts, and at the same cadence resolve the event's initiator and assert
//! that the applied move is the one `respond` gives for the drawn pair (and,
//! on a row with a destination, the one the table gives); the
//! `exhaustive-checks` feature checks every refresh and every event.
//!
//! # Example
//!
//! ```
//! use pp_core::engine::{BatchedEngine, StepEngine};
//! use pp_core::prelude::*;
//!
//! struct TinyUsd;
//! impl OpinionProtocol for TinyUsd {
//!     fn num_opinions(&self) -> usize { 2 }
//!     fn respond(&self, r: AgentState, i: AgentState) -> AgentState {
//!         match (r, i) {
//!             (AgentState::Decided(a), AgentState::Decided(b)) if a != b => AgentState::Undecided,
//!             (AgentState::Undecided, AgentState::Decided(b)) => AgentState::Decided(b),
//!             _ => r,
//!         }
//!     }
//! }
//!
//! let config = Configuration::from_counts(vec![900, 100], 0).unwrap();
//! let mut engine = BatchedEngine::new(TinyUsd, config, SimSeed::from_u64(7));
//! let result = engine.run_engine(StopCondition::consensus().or_max_interactions(10_000_000));
//! assert!(result.reached_consensus());
//! ```

use crate::checkpoint::{
    Checkpoint, EngineCheckpoint, EngineSnapshot, EngineState, ReplicaCheckpoint,
};
use crate::config::Configuration;
use crate::count_sim::CountSimulator;
use crate::error::PpError;
use crate::opinion::AgentState;
use crate::protocol::OpinionProtocol;
use crate::recorder::{NullRecorder, Recorder};
use crate::rng::SimSeed;
use crate::run::{MaintenanceStats, RunResult};
use crate::stopping::StopCondition;
use crate::telemetry::MetricsSnapshot;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{AddAssign, Mul, SubAssign};
use std::str::FromStr;

/// Which stepping backend a consumer wants.
///
/// `Exact` and `Batched` induce the same distribution over trajectories;
/// `MeanField` replaces the stochastic process by its deterministic fluid
/// limit (only available for protocols that provide one, currently the USD).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineChoice {
    /// Per-interaction Fenwick sampling (the ground-truth backend).
    #[default]
    Exact,
    /// Geometric skip-ahead over null interactions plus conditional event
    /// draws; exact in distribution, much faster when nulls dominate.
    Batched,
    /// Parallel per-shard batched stepping with multinomial reconciliation
    /// epochs (documented-approximate; see [`crate::shard`]).
    Sharded,
    /// The deterministic ODE limit (approximation; `usd-core` only).
    MeanField,
    /// Adaptive multi-fidelity switching between the mean-field ODE and the
    /// batched stochastic backend under an online fluctuation detector
    /// (approximation; `usd-core` only — see [`crate::hybrid`]).
    Hybrid,
}

impl EngineChoice {
    /// The stable identifier used in reports and on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineChoice::Exact => "exact",
            EngineChoice::Batched => "batched",
            EngineChoice::Sharded => "sharded",
            EngineChoice::MeanField => "mean-field",
            EngineChoice::Hybrid => "hybrid",
        }
    }

    /// All selectable backends.
    pub const ALL: [EngineChoice; 5] = [
        EngineChoice::Exact,
        EngineChoice::Batched,
        EngineChoice::Sharded,
        EngineChoice::MeanField,
        EngineChoice::Hybrid,
    ];
}

impl fmt::Display for EngineChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for EngineChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(EngineChoice::Exact),
            "batched" => Ok(EngineChoice::Batched),
            "sharded" => Ok(EngineChoice::Sharded),
            "mean-field" | "meanfield" => Ok(EngineChoice::MeanField),
            "hybrid" => Ok(EngineChoice::Hybrid),
            other => Err(format!(
                "unknown engine {other:?} (expected exact, batched, sharded, mean-field, or \
                 hybrid)"
            )),
        }
    }
}

/// What [`StepEngine::advance`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// A state-changing event occurred; the configuration and interaction
    /// counter reflect it.
    Event,
    /// The interaction limit was reached before the next state change; the
    /// counter equals the limit and the configuration is unchanged.
    LimitReached,
    /// No state change is possible from the current configuration, ever.
    /// The counter was advanced to the limit (when one is finite).
    Absorbed,
}

/// What one [`StepEngine::leg`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leg {
    /// State-changing events the leg ran (each one fed to its recorder).
    pub events: u64,
    /// How its last [`advance`](StepEngine::advance) ended:
    /// [`Advance::Event`] when the leg stopped after an event (at its soft
    /// boundary, at its event cap, or on an event that emptied its source
    /// category), otherwise the [`Advance::LimitReached`] or
    /// [`Advance::Absorbed`] that stopped it.
    pub end: Advance,
}

/// A strategy for advancing a count-vector Markov chain.
///
/// The narrow waist is [`advance`](StepEngine::advance): move the simulation
/// forward to the *next state-changing event*, but never past `limit` total
/// interactions.  The provided `run_engine*` drivers build every stopping
/// behaviour the workspace needs on top of it, so exact, batched and
/// mean-field backends stay interchangeable in every consumer.
pub trait StepEngine {
    /// The current configuration.
    fn configuration(&self) -> &Configuration;

    /// Interactions elapsed so far (null interactions included).
    fn interactions(&self) -> u64;

    /// The stable backend identifier ("exact", "batched", "mean-field").
    fn engine_name(&self) -> &'static str;

    /// The name of the interaction scheduler this engine realizes, recorded
    /// into every [`RunResult`] the provided drivers produce.
    fn scheduler_name(&self) -> &'static str {
        UNIFORM_PAIR_SCHEDULER_NAME
    }

    /// The number of unproductive draws this engine has discarded in
    /// rejection-sampling fallbacks so far, if it uses any (see
    /// `SamplingDynamics::sample_productive_move` in `consensus-dynamics`).
    /// Engines without a rejection path report `None`; the provided drivers
    /// record a `Some` value into the [`RunResult`].  Every shipped sampling
    /// dynamic now provides a closed-form conditional sampler, so a non-zero
    /// value only ever comes from a third-party dynamic that opted into
    /// skip-ahead without one — the conformance suite pins the shipped
    /// dynamics to exactly `Some(0)`.
    fn rejection_misses(&self) -> Option<u64> {
        None
    }

    /// How this engine kept its sampling laws in sync with the counts so far
    /// (tables patched in `O(delta)` vs rebuilt from scratch), if it
    /// maintains any.  Engines without a maintained law report `None`; the
    /// provided drivers record a `Some` value into the [`RunResult`].
    fn maintenance(&self) -> Option<MaintenanceStats> {
        None
    }

    /// The engine's unified observability surface: one flat
    /// [`MetricsSnapshot`] covering everything the bespoke accessors
    /// ([`rejection_misses`](StepEngine::rejection_misses),
    /// [`maintenance`](StepEngine::maintenance)) expose, under the canonical registry names
    /// (`engine.rejection_misses`, `maintenance.rows_patched`, …).  The
    /// provided drivers record it into every [`RunResult`]; engines with
    /// richer instrumentation (batched skip/draw counts, shard epochs)
    /// override the default, which assembles the snapshot from the legacy
    /// accessors.
    fn telemetry(&self) -> Option<MetricsSnapshot> {
        let mut snap = MetricsSnapshot::new();
        if let Some(misses) = self.rejection_misses() {
            snap.add_counter("engine.rejection_misses", misses);
        }
        if let Some(stats) = self.maintenance() {
            snap.absorb_maintenance(&stats);
        }
        (!snap.is_empty()).then_some(snap)
    }

    /// Advances to the next state-changing event, or to `limit` interactions,
    /// whichever comes first.
    fn advance(&mut self, limit: u64) -> Advance;

    /// Runs [`advance`](StepEngine::advance)`(limit)` repeatedly, feeding
    /// the interaction count and configuration after every event to
    /// `recorder`, and stops at the first of (see "The event loop" in the
    /// module docs):
    ///
    /// * an `advance` that ends without an event (`limit` reached, or the
    ///   configuration absorbed);
    /// * an event after which at least `until` interactions have elapsed;
    /// * the `max_events`-th event;
    /// * an event that empties the category its agent left.
    ///
    /// The drivers check their goal, budget, checkpoint cadence and pause
    /// rule between legs only: the last rule makes that exact for the
    /// consensus and opinion-settled goals.  The events, the RNG stream and
    /// every recorded configuration are those of the same `advance` calls
    /// made one at a time.
    ///
    /// The provided body is a single `advance` (engines whose events are not
    /// single-agent moves, or whose per-event bookkeeping must surface to
    /// the driver, keep it); [`BatchedEngine`] runs the whole leg in one
    /// loop.  `max_events` must be at least 1.
    fn leg<R: Recorder>(&mut self, limit: u64, until: u64, max_events: u64, recorder: &mut R) -> Leg
    where
        Self: Sized,
    {
        // A single event is within every soft bound.
        let _ = (until, max_events);
        let end = self.advance(limit);
        if end != Advance::Event {
            return Leg { events: 0, end };
        }
        recorder.record(self.interactions(), self.configuration());
        Leg { events: 1, end }
    }

    /// Runs until the stop condition is met, recording nothing.
    fn run_engine(&mut self, stop: StopCondition) -> RunResult
    where
        Self: Sized,
    {
        self.run_engine_recorded(stop, &mut crate::recorder::NullRecorder)
    }

    /// Runs until the stop condition is met, feeding the initial and every
    /// changed configuration to the recorder (the same observable sequence
    /// the exact per-interaction loop produces).
    ///
    /// # Panics
    ///
    /// Panics if the stop condition is unbounded, or if the chain reaches an
    /// absorbing configuration that cannot meet a budget-less stop condition
    /// (the exact loop would spin forever; the engine layer fails loudly).
    fn run_engine_recorded<R: Recorder>(
        &mut self,
        stop: StopCondition,
        recorder: &mut R,
    ) -> RunResult
    where
        Self: Sized,
    {
        recorder.record(self.interactions(), self.configuration());
        self.run_engine_pausable(stop, recorder, Pause::NEVER)
            .expect("a never-pausing run always finishes")
    }

    /// The drive loop every single-engine run goes through: runs
    /// [`leg`](StepEngine::leg)s toward `stop`, feeding every event to
    /// `recorder`, and checks the goal, the budget and the `pause` rule
    /// between legs only (see "The event loop" in the module docs).
    /// Returns `None` when the rule asked to pause; the engine is then at a
    /// valid capture point, and a later call toward the **same** stop
    /// condition continues the identical trajectory: pausing consumes no
    /// RNG and never shrinks a leg's hard limit, which is always the full
    /// budget.  Unlike [`run_engine_recorded`](StepEngine::run_engine_recorded),
    /// the recorder does not see the entry configuration.
    ///
    /// # Panics
    ///
    /// As [`run_engine_recorded`](StepEngine::run_engine_recorded).
    fn run_engine_pausable<R: Recorder>(
        &mut self,
        stop: StopCondition,
        recorder: &mut R,
        pause: Pause,
    ) -> Option<RunResult>
    where
        Self: Sized,
    {
        assert!(
            stop.is_bounded(),
            "stop condition can never terminate the run"
        );
        let limit = stop.max_interactions().unwrap_or(u64::MAX);
        loop {
            if let Some(outcome) = stop.outcome(self.configuration(), self.interactions()) {
                return Some(
                    RunResult::new(outcome, self.interactions(), self.configuration().clone())
                        .with_scheduler(self.scheduler_name())
                        .with_rejection_misses(self.rejection_misses())
                        .with_maintenance(self.maintenance())
                        .with_telemetry(self.telemetry()),
                );
            }
            if self.leg(limit, pause.at, pause.events, recorder).end == Advance::Absorbed {
                assert!(
                    stop.max_interactions().is_some() || stop.goal_met(self.configuration()),
                    "absorbing configuration {} can never meet the stop condition",
                    self.configuration()
                );
            }
            if pause.pauses_at(self.interactions()) {
                return None;
            }
        }
    }
}

/// When [`StepEngine::run_engine_pausable`] hands control back to its
/// caller between legs (see "The event loop" in the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pause {
    /// Pause at the first leg boundary with at least this many interactions.
    pub at: u64,
    /// Cap every leg at this many events (at least 1), and pause after each
    /// leg unless the cap is `u64::MAX`.
    pub events: u64,
}

impl Pause {
    /// Never: the run goes on to its stop condition.
    pub const NEVER: Pause = Pause {
        at: u64::MAX,
        events: u64::MAX,
    };

    /// At the first leg boundary with at least `at` interactions.
    #[must_use]
    pub const fn at(at: u64) -> Pause {
        Pause { at, ..Pause::NEVER }
    }

    /// After one leg of at most `events` events.
    #[must_use]
    pub const fn events(events: u64) -> Pause {
        Pause {
            events,
            ..Pause::NEVER
        }
    }

    /// Whether the drive pauses at a leg boundary after `interactions`.
    #[must_use]
    pub const fn pauses_at(self, interactions: u64) -> bool {
        self.events < u64::MAX || interactions >= self.at
    }
}

/// The scheduler every count-based engine realizes implicitly: both category
/// draws correspond to independent uniform agent indices.
pub const UNIFORM_PAIR_SCHEDULER_NAME: &str = "uniform ordered pairs (self-interactions allowed)";

/// The canonical per-interaction backend, as a named alias of
/// [`CountSimulator`].
pub type ExactEngine<P> = CountSimulator<P>;

impl<P: OpinionProtocol> StepEngine for CountSimulator<P> {
    fn configuration(&self) -> &Configuration {
        CountSimulator::configuration(self)
    }

    fn interactions(&self) -> u64 {
        CountSimulator::interactions(self)
    }

    fn engine_name(&self) -> &'static str {
        "exact"
    }

    fn advance(&mut self, limit: u64) -> Advance {
        // Periodic absorption check: every `CHECK_MASK + 1` consecutive null
        // steps, test whether any state change is still possible.  Amortized
        // free on live configurations, and it upholds the trait contract —
        // an absorbing configuration yields `Absorbed` instead of spinning
        // until the heat death of the budget (or forever without one).
        const CHECK_MASK: u64 = (1 << 20) - 1;
        let mut nulls = 0u64;
        while CountSimulator::interactions(self) < limit {
            if self.step() {
                return Advance::Event;
            }
            nulls += 1;
            if nulls & CHECK_MASK == 0 && self.productive_probability() == 0.0 {
                self.skip_to(limit);
                return Advance::Absorbed;
            }
        }
        Advance::LimitReached
    }
}

/// Draws a uniform `u64` below `bound` by Lemire's widening multiply-shift
/// with rejection of the biased overhang (exactly uniform; one RNG word per
/// attempt).
///
/// # Panics
///
/// Panics in debug builds if `bound == 0`.
pub fn uniform_u64_below<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    let mut m = u128::from(rng.next_u64()) * u128::from(bound);
    if (m as u64) < bound {
        let t = bound.wrapping_neg() % bound;
        while (m as u64) < t {
            m = u128::from(rng.next_u64()) * u128::from(bound);
        }
    }
    (m >> 64) as u64
}

/// Draws a uniform `u128` below `bound` (exactly uniform in both paths).
/// A bound that fits `u64` is drawn by [`uniform_u64_below`], so it returns
/// the same value and consumes the same RNG words as that function; larger
/// bounds (count-pair weights of populations of 2³² or more) fall back to
/// 128-bit rejection.
///
/// # Panics
///
/// Panics in debug builds if `bound == 0`.
pub fn uniform_u128_below<R: Rng + ?Sized>(rng: &mut R, bound: u128) -> u128 {
    debug_assert!(bound > 0);
    if let Ok(b) = u64::try_from(bound) {
        return u128::from(uniform_u64_below(rng, b));
    }
    // 2^128 mod bound: values below this threshold are the biased overhang.
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let x = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
        if x >= threshold {
            return x % bound;
        }
    }
}

/// Samples the geometrically distributed number of null interactions
/// preceding the next state-changing event, given per-interaction event
/// probability `p`.  Returns `None` when the skip provably overshoots
/// `max_skip` — memorylessness makes re-sampling on a later call exact, so
/// callers can treat `None` as "the limit arrives first".
///
/// Shared by every skip-ahead engine ([`BatchedEngine`], the sequential
/// sampler in `consensus-dynamics`, shard reconciliation), so the edge-case
/// handling — `p ≥ 1`, `p` rounding toward 0, overshoot — lives in exactly
/// one place.
///
/// # Cost and exactness
///
/// The skip is `floor(ln U / ln(1−p))` — two libm calls, the dearest step of
/// a batched event.  Most skips are small, and `floor(ln U / ln(1−p)) = m`
/// exactly when `(1−p)^{m+1} < U ≤ (1−p)^m`, so the function first counts
/// the powers `(1−p)^1 … (1−p)^K`, `K = 8`, that are `≥ U`: a branch-free
/// product tree of seven multiplications, and sixteen compares of the
/// powers with `U·(1+η)` and `U·(1−η)`, `η = 10⁻⁶`.  When both counts agree,
/// `U` is at least `η` (relative) away from every power, and their common
/// value `m < K` is returned through the same `max_skip` rule; otherwise
/// the logs are evaluated exactly as before.  The result is the one the
/// logs give, provided libm's `ln`/`ln_1p` are accurate to `2⁻⁴⁰` relative
/// (glibc, musl and Apple's libm are within about `2⁻⁵²`):
///
/// * the computed quotient is then `q·(1+θ)` with `|θ| < 2⁻³⁸`, where
///   `q = ln U / ln(1−p)`, so it is within `K·2⁻³⁸` of `q` when `q < K`;
/// * each computed power is within `2⁻⁴⁸` (relative) of `(1−p)^j`,
///   counting the rounding of `1 − p`, and every `f64` `p < 1` has
///   `|ln(1−p)| ≤ 36.8`, so `U` clear of power `j` by `η` puts `q` at
///   least `η / 36.8 ≈ 2.7·10⁻⁸` away from `j` — on the same side as the
///   computed quotient;
/// * hence both floors equal `m`.  The argument needs `η ≳ 2·10⁻⁹`;
///   `10⁻⁶` leaves a factor of ~500.
///
/// `p` rounding `1−p` to 1 and `U = MIN_POSITIVE` give `m = K`, and a `NaN`
/// `p` is excluded by name, so all three take the logs.  The uniform is
/// drawn before either path, one RNG word per call as before, so the RNG
/// stream and every trajectory are unchanged.  `tests/hot_path_oracles.rs`
/// pins the function against the log formula on boundary-hugging words.
pub fn geometric_skip<R: Rng + ?Sized>(rng: &mut R, p: f64, max_skip: u64) -> Option<u64> {
    debug_assert!(p > 0.0, "event probability must be positive");
    if p >= 1.0 {
        return Some(0);
    }
    // Inversion: floor(ln U / ln(1-p)), U uniform in (0, 1).
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    if let Some(m) = small_skip(u, p) {
        debug_assert_eq!((u.ln() / (-p).ln_1p()) as u64, m, "u = {u:e}, p = {p:e}");
        // `m < K` converts to `f64` exactly: this is the rule below.
        return (m < max_skip).then_some(m);
    }
    let skip = u.ln() / (-p).ln_1p();
    if !skip.is_finite() || skip >= max_skip as f64 {
        None
    } else {
        Some(skip as u64)
    }
}

/// `K`: how many powers of `1 − p` [`small_skip`] compares `U` with.
const SKIP_POWERS: u64 = 8;

/// `η`: how far (relative) `U` must be from every power for [`small_skip`]
/// to decide without the logs.
const SKIP_BAND: f64 = 1e-6;

/// `floor(ln u / ln(1−p))` without logs when it is below [`SKIP_POWERS`] and
/// `u` is [`SKIP_BAND`]-clear of every power; `None` sends the caller to the
/// logs (see [`geometric_skip`] for why the two agree).
#[inline]
fn small_skip(u: f64, p: f64) -> Option<u64> {
    let q1 = 1.0 - p;
    let q2 = q1 * q1;
    let q3 = q2 * q1;
    let q4 = q2 * q2;
    let powers = [q1, q2, q3, q4, q4 * q1, q4 * q2, q4 * q3, q4 * q4];
    // `u` is clear of every band exactly when `u·(1+η)` and `u·(1−η)` sit
    // on the same side of every power: then both counts equal
    // `#{j : u ≤ (1−p)^j}`.  A NaN `p` would make both counts 0, so it is
    // sent to the logs explicitly.
    let (high, low) = (u * (1.0 + SKIP_BAND), u * (1.0 - SKIP_BAND));
    let (mut m_high, mut m_low) = (0, 0);
    for q in powers {
        m_high += u64::from(high <= q);
        m_low += u64::from(low <= q);
    }
    (m_high == m_low && m_high < SKIP_POWERS && !p.is_nan()).then_some(m_high)
}

/// An exact unsigned integer type for the batched engine's row table: `u64`
/// for populations up to `2³² − 1`, `u128` above (see the module docs).
/// Each operation returns the same integer, RNG draw and `f64` in both
/// widths.
trait Weight:
    Copy + Default + Ord + From<u64> + Into<u128> + Mul<Output = Self> + AddAssign + SubAssign
{
    /// A uniform draw below `bound`.
    fn uniform_below<R: Rng + ?Sized>(rng: &mut R, bound: Self) -> Self;

    /// `self mod modulus`.
    fn modulo(self, modulus: Self) -> Self;

    /// The nearest `f64`.
    fn to_f64(self) -> f64;
}

impl Weight for u64 {
    fn uniform_below<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
        uniform_u64_below(rng, bound)
    }

    fn modulo(self, modulus: u64) -> u64 {
        self % modulus
    }

    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Weight for u128 {
    fn uniform_below<R: Rng + ?Sized>(rng: &mut R, bound: u128) -> u128 {
        uniform_u128_below(rng, bound)
    }

    /// On the 64-bit fast path when both fit `u64`, avoiding the 128-bit
    /// division intrinsics.
    fn modulo(self, modulus: u128) -> u128 {
        match (u64::try_from(self), u64::try_from(modulus)) {
            (Ok(t), Ok(m)) => u128::from(t % m),
            _ => self % modulus,
        }
    }

    /// A value that fits `u64` converts through `u64`: the same `f64` (both
    /// conversions round the exact integer to nearest), without the
    /// `u128 → f64` conversion routine.
    fn to_f64(self) -> f64 {
        match u64::try_from(self) {
            Ok(t) => t as f64,
            Err(_) => self as f64,
        }
    }
}

/// The per-interaction event probability `total / n²`.
fn event_probability<W: Weight>(total: W, population: u64) -> f64 {
    let n = population as f64;
    total.to_f64() / (n * n)
}

/// Whether a population's row weights need `u128` (see the module docs).
fn needs_wide_weights(population: u64) -> bool {
    population > u64::from(u32::MAX)
}

/// The category a uniform unit `target < Σ weights` falls in, and its offset
/// within that category: the number of prefix sums `weights[0] + … +
/// weights[j]` that are `≤ target`, and `target` minus the last of them.
/// The prefix sums never decrease, so this is the category a scan that
/// skips `target < weight` would stop at, found without a data-dependent
/// exit.  The last prefix is the whole sum, which exceeds `target`, so the
/// last weight is never read.
fn select_unit<W: Weight>(weights: &[W], target: W) -> (usize, W) {
    let init = &weights[..weights.len().saturating_sub(1)];
    let mut prefix = W::default();
    let mut below = W::default();
    let mut cat = 0;
    for &weight in init {
        prefix += weight;
        let passed = prefix <= target;
        cat += usize::from(passed);
        below = if passed { prefix } else { below };
    }
    let mut offset = target;
    offset -= below;
    (cat, offset)
}

/// The initiator category of a unit `itarget < S_r` of responder
/// category `responder`'s productive initiator weight: the number of prefix
/// sums of `c_i · [dests[i] ≠ responder]` that are `≤ itarget` (the rule of
/// [`select_unit`]), over the opinions' `supports`.  The undecided
/// category's prefix is `S_r` itself, which exceeds `itarget`, so its count
/// is never read.
fn select_initiator<W: Weight>(
    dests: &[u32],
    supports: &[u64],
    responder: usize,
    itarget: W,
) -> usize {
    let responder = responder as u32;
    let mut prefix = W::default();
    let mut cat = 0;
    for (&dest, &count) in dests.iter().zip(supports) {
        // All ones when the pair is productive, zero otherwise.
        let mask = u64::from(dest != responder).wrapping_neg();
        prefix += W::from(count & mask);
        cat += usize::from(prefix <= itarget);
    }
    cat
}

/// The batched engine's row state in one weight width.
#[derive(Debug, Default)]
struct RowTable<W> {
    /// Productive weight per responder category (`row_cat = c_cat · S_cat`).
    rows: Vec<W>,
    /// The per-category productive initiator sums `S_cat` behind `rows`.
    sums: Vec<W>,
    /// `Σ rows`.
    total: W,
}

impl<W: Weight> RowTable<W> {
    /// An all-zero table for `k` opinions.
    fn new(k: usize) -> Self {
        RowTable {
            rows: vec![W::default(); k + 1],
            sums: vec![W::default(); k + 1],
            total: W::default(),
        }
    }
}

/// The row table in the width the population needs.
#[derive(Debug)]
enum WeightTable {
    /// Populations up to `2³² − 1`.
    Narrow(RowTable<u64>),
    /// Larger populations.
    Wide(RowTable<u128>),
}

impl WeightTable {
    /// An all-zero table for `k` opinions in the chosen width.
    fn new(k: usize, wide: bool) -> Self {
        if wide {
            WeightTable::Wide(RowTable::new(k))
        } else {
            WeightTable::Narrow(RowTable::new(k))
        }
    }

    fn is_wide(&self) -> bool {
        matches!(self, WeightTable::Wide(_))
    }
}

/// The flat `(k+1)²` category transition table of `protocol`: entry
/// `[r·(k+1) + i]` is the category that
/// [`respond`](OpinionProtocol::respond) moves a category-`r` responder to
/// when it meets a category-`i` initiator (categories `0..k` are the
/// opinions, `k` is `⊥`).  The pair is productive exactly when the entry
/// differs from `r`.
///
/// Debug builds and the `exhaustive-checks` feature run
/// [`check_transition_table`] on every table built.
///
/// # Panics
///
/// Panics if `respond` produces an opinion outside `0..k`.
pub fn transition_table<P: OpinionProtocol + ?Sized>(protocol: &P) -> Vec<u32> {
    let k = protocol.num_opinions();
    let mut table = Vec::with_capacity((k + 1) * (k + 1));
    for r in 0..=k {
        let responder = AgentState::from_category(r, k);
        for i in 0..=k {
            let next = protocol.respond(responder, AgentState::from_category(i, k));
            if let AgentState::Decided(o) = next {
                assert!(
                    o.index() < k,
                    "respond({responder}, category {i}) produced {next}, outside the {k} opinions"
                );
            }
            table.push(u32::try_from(next.category(k)).expect("category count fits u32"));
        }
    }
    #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
    if let Err(reason) = check_transition_table(protocol, &table) {
        panic!("{reason}");
    }
    table
}

/// Checks `table` against `protocol` for every category pair: the entry must
/// be the category [`respond`](OpinionProtocol::respond) yields.
///
/// # Errors
///
/// Names the first disagreeing pair, or a table that is not a flat `(k+1)²`
/// table.
pub fn check_transition_table<P: OpinionProtocol + ?Sized>(
    protocol: &P,
    table: &[u32],
) -> Result<(), String> {
    let k = protocol.num_opinions();
    if table.len() != (k + 1) * (k + 1) {
        return Err(format!(
            "transition table ({}) must be a flat (k+1)² = {} table",
            table.len(),
            (k + 1) * (k + 1)
        ));
    }
    for (slot, &dest) in table.iter().enumerate() {
        let (r, i) = (slot / (k + 1), slot % (k + 1));
        let next = protocol.respond(
            AgentState::from_category(r, k),
            AgentState::from_category(i, k),
        );
        if dest as usize != next.category(k) {
            return Err(format!(
                "transition table says category {dest} at ({r}, {i}) but respond yields {next}"
            ));
        }
    }
    Ok(())
}

/// The row destinations of a flat `(k+1)²` transition table (see
/// [`transition_table`]): entry `r` is the one category that every
/// productive initiator moves a category-`r` responder to, or `None` when
/// that category depends on the initiator (or no initiator is productive).
/// On a row with a destination the batched event draw applies the move
/// without resolving the initiator (see [`BatchedEngine`]).  In the USD
/// with `k ≥ 2` every decided row's destination is `⊥` and the `⊥` row has
/// none; in the pairwise voter with `k ≥ 3` no row has one.
///
/// # Panics
///
/// Panics if `table` is not a flat square table.
#[must_use]
pub fn row_destinations(table: &[u32]) -> Vec<Option<u32>> {
    let width = table.len().isqrt();
    assert!(
        width > 0 && width * width == table.len(),
        "a transition table is a flat (k+1)² table, not {} entries",
        table.len()
    );
    table
        .chunks_exact(width)
        .enumerate()
        .map(|(r, row)| {
            let mut productive = row.iter().filter(|&&dest| dest as usize != r);
            let first = *productive.next()?;
            productive.all(|&dest| dest == first).then_some(first)
        })
        .collect()
}

/// The initiator category that the batched event draw resolves for a
/// category-`responder` responder and an initiator unit `unit < S_r` (`S_r`
/// the summed count of the row's productive initiators in `config`): the
/// resolution that a row with a [`row_destinations`] entry skips.  It runs
/// in the weight width the engine keeps for `config`'s population (`u64`
/// up to `2³² − 1`, `u128` above; see the module docs).
///
/// # Panics
///
/// Panics if `table` is shorter than `config`'s `(k+1)²` entries or
/// `responder > k`.
#[must_use]
pub fn resolve_initiator(
    table: &[u32],
    config: &Configuration,
    responder: usize,
    unit: u64,
) -> usize {
    let width = config.num_opinions() + 1;
    let row = &table[responder * width..][..width];
    if needs_wide_weights(config.population()) {
        select_initiator(row, config.supports(), responder, u128::from(unit))
    } else {
        select_initiator(row, config.supports(), responder, unit)
    }
}

/// A protocol's category transitions in the layouts the batched kernel
/// reads (boxed slices: they never grow, and the engine stays as small as
/// it was with two of them).
#[derive(Debug)]
struct Transitions {
    /// The flat `(k+1)²` transition table (see [`transition_table`]), row
    /// `r` for a category-`r` responder.
    next: Box<[u32]>,
    /// The transposed productivity table: `gain[c·(k+1) + cat]` is 1 when a
    /// category-`c` initiator is productive for a category-`cat` responder
    /// (`next[cat][c] ≠ cat`), so an agent entering category `c` raises
    /// `S_cat` by it and one leaving lowers `S_cat` by it.
    gain: Box<[u8]>,
    /// Each row's destination ([`row_destinations`]).
    dest: Box<[Option<u32>]>,
}

impl Transitions {
    /// The layouts of the flat `(k+1)²` transition table `next`.
    fn new(next: Vec<u32>) -> Self {
        let width = next.len().isqrt();
        let gain = (0..width * width)
            .map(|slot| {
                let (c, cat) = (slot / width, slot % width);
                u8::from(next[cat * width + c] as usize != cat)
            })
            .collect();
        let dest = row_destinations(&next).into();
        Transitions {
            next: next.into(),
            gain,
            dest,
        }
    }
}

/// Exact-in-distribution skip-ahead engine.
///
/// Instead of simulating interactions one by one, the engine works on the
/// *embedded jump chain* of state-changing events: from the current counts it
/// computes the total weight `W` of productive ordered category pairs,
/// samples the geometric number of null interactions preceding the next
/// event (success probability `W/n²`), and then draws the event's category
/// pair with probability proportional to `c_r · c_i` restricted to
/// productive pairs.  Both draws use the exact conditional distributions of
/// the underlying chain, so trajectories (configurations indexed by
/// interaction count) have the same law as under [`ExactEngine`] — this is
/// verified statistically in the test suite.
///
/// Cost: `O(k)` exact integer adds, compares and table lookups per
/// state-changing event while the incremental delta rule holds (see the
/// module docs) — with *no* protocol calls on the hot path: prefix counts
/// over the row table and over the counts pick the responder and the
/// initiator, and the category transition and productivity tables built at
/// construction give the responder's move and the row patch.  The one
/// data-dependent branch skips the initiator when the responder's row has
/// a destination ([`row_destinations`]; measured in the module docs).
/// Each event also pays one [`geometric_skip`]: a few
/// multiplications and compares for the common small skip, two libm logs
/// for the rest (see the module docs).  A full rebuild reads the whole
/// transition table, `O(k²)` — but nothing is ever proportional to the
/// number of skipped null interactions.  The integers are `u64` for
/// populations up to `2³² − 1` and `u128` beyond (the width rule in the
/// module docs); one generic kernel serves both, so the common case pays
/// for no 128-bit arithmetic.
#[derive(Debug)]
pub struct BatchedEngine<P> {
    protocol: P,
    config: Configuration,
    interactions: u64,
    rng: SmallRng,
    /// The row table, maintained across events while `rows_valid`.
    table: WeightTable,
    /// Whether `table` describes the current counts.
    rows_valid: bool,
    /// Keep the table in `u128` whatever the population (tests only: the
    /// wide path must walk the narrow path's trajectory).
    #[cfg(test)]
    force_wide: bool,
    /// The category transitions: the engine's only description of the
    /// protocol after construction.
    transitions: Transitions,
    /// Runtime switch for the delta rule (off = the rebuild-every-event
    /// baseline that E13 and `engine_microbench` measure against).
    incremental: bool,
    /// Refreshes served so far, for the sampled debug cross-check.
    refreshes: u64,
    stats: MaintenanceStats,
    /// State-changing events drawn so far.
    events_drawn: u64,
    /// Null interactions jumped over by geometric skips (and limit
    /// forwarding) so far.
    nulls_skipped: u64,
}

impl<P: OpinionProtocol> BatchedEngine<P> {
    /// Creates a batched engine for `protocol` starting from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the protocol's `num_opinions()` differs from the
    /// configuration's.
    #[must_use]
    pub fn new(protocol: P, config: Configuration, seed: SimSeed) -> Self {
        Self::try_new(protocol, config, seed)
            .expect("protocol/configuration opinion count mismatch")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::OpinionCountMismatch`] if the protocol and the
    /// configuration disagree on `k`.
    pub fn try_new(protocol: P, config: Configuration, seed: SimSeed) -> Result<Self, PpError> {
        if protocol.num_opinions() != config.num_opinions() {
            return Err(PpError::OpinionCountMismatch {
                protocol: protocol.num_opinions(),
                configuration: config.num_opinions(),
            });
        }
        let transitions = Transitions::new(transition_table(&protocol));
        let table = WeightTable::new(
            config.num_opinions(),
            needs_wide_weights(config.population()),
        );
        Ok(BatchedEngine {
            protocol,
            config,
            interactions: 0,
            rng: seed.rng(),
            table,
            rows_valid: false,
            #[cfg(test)]
            force_wide: false,
            transitions,
            incremental: true,
            refreshes: 0,
            stats: MaintenanceStats::default(),
            events_drawn: 0,
            nulls_skipped: 0,
        })
    }

    /// An engine whose row table stays `u128` at every population.
    #[cfg(test)]
    fn new_wide(protocol: P, config: Configuration, seed: SimSeed) -> Self {
        let mut engine = Self::new(protocol, config, seed);
        engine.force_wide = true;
        engine.table = WeightTable::new(engine.config.num_opinions(), true);
        engine
    }

    /// Enables or disables incremental row maintenance at runtime.  Disabled,
    /// the engine rebuilds the full row table before every event — exactly
    /// the pre-incremental behaviour, used as the measured baseline by E13
    /// and `engine_microbench` (the repository benchmark keeps it on).
    /// Trajectories are bit-identical either way.
    pub fn set_incremental_rows(&mut self, enabled: bool) {
        self.incremental = enabled;
        if !enabled {
            self.rows_valid = false;
        }
    }

    /// The engine's patch/rebuild counters so far.
    #[must_use]
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        self.stats
    }

    /// The protocol driving this engine.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Consumes the engine and returns the final configuration.
    #[must_use]
    pub fn into_configuration(self) -> Configuration {
        self.config
    }

    /// Simultaneous access to the protocol and the mutable configuration —
    /// the shard reconciler applies cross-shard responder updates directly to
    /// a shard's counts (without advancing the local interaction counter).
    /// Handing out the mutable configuration invalidates the maintained row
    /// table: the next event rebuilds from the edited counts.
    pub(crate) fn parts_mut(&mut self) -> (&P, &mut Configuration) {
        self.rows_valid = false;
        (&self.protocol, &mut self.config)
    }

    /// Productive weight of responder category `cat` by direct enumeration:
    /// `c_cat · Σ_{i : productive} c_i`.
    #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
    fn enumerated_row(&self, cat: usize) -> u128 {
        // The single-population weight is the cross-shard weight with the
        // responder and initiator sides drawn from the same configuration;
        // sharing the enumeration keeps this engine and the shard
        // reconciler exactly in sync.
        crate::shard::reconcile::productive_row(&self.protocol, &self.config, &self.config, cat)
    }

    /// Asserts `rows`/`total` for the current counts against direct
    /// enumeration of `respond` — the one reference for the rows, whether
    /// rebuilt from the transition table or patched.  `O(k²)`: debug builds
    /// run it on a sample of refreshes (every 64th); the `exhaustive-checks`
    /// feature on every one.
    #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
    fn cross_check_rows<W: Weight>(&self, rows: &[W], total: W) {
        let total: u128 = total.into();
        let mut enumerated_total = 0u128;
        for (cat, &row) in rows.iter().enumerate() {
            let enumerated = self.enumerated_row(cat);
            assert_eq!(
                row.into(),
                enumerated,
                "row weight disagrees with enumeration for category {cat} at {}",
                self.config
            );
            enumerated_total += enumerated;
        }
        assert_eq!(
            total, enumerated_total,
            "row total disagrees with enumeration at {}",
            self.config
        );
    }

    /// Whether this refresh is one of the sampled debug cross-checks.
    #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
    fn should_cross_check(&self) -> bool {
        cfg!(feature = "exhaustive-checks") || self.refreshes.is_multiple_of(64)
    }

    /// Takes the row table out of the engine for one generic pass, first
    /// re-choosing its width from the population when the table is about to
    /// be rebuilt anyway.  The caller hands it back by assigning `table`.
    fn take_table(&mut self) -> WeightTable {
        if !self.rows_valid {
            let wide = needs_wide_weights(self.config.population());
            #[cfg(test)]
            let wide = wide || self.force_wide;
            if wide != self.table.is_wide() {
                self.table = WeightTable::new(self.config.num_opinions(), wide);
            }
        }
        std::mem::replace(&mut self.table, WeightTable::Narrow(RowTable::default()))
    }

    /// Rebuilds `sums`, `rows` and `total` from the transition table and the
    /// full counts: `S_cat` sums the counts of row `cat`'s productive
    /// initiators, and `row_cat = c_cat · S_cat`.
    fn rebuild_rows<W: Weight>(&mut self, table: &mut RowTable<W>) -> W {
        let width = self.config.num_opinions() + 1;
        let mut total = W::default();
        for (cat, ((sum_slot, row_slot), next)) in table
            .sums
            .iter_mut()
            .zip(table.rows.iter_mut())
            .zip(self.transitions.next.chunks_exact(width))
            .enumerate()
        {
            let mut s = W::default();
            for (i, &dest) in next.iter().enumerate() {
                if dest as usize != cat {
                    s += W::from(self.config.category_count(i));
                }
            }
            *sum_slot = s;
            *row_slot = W::from(self.config.category_count(cat)) * s;
            total += *row_slot;
        }
        table.total = total;
        self.rows_valid = true;
        self.refreshes += 1;
        self.stats.rows_rebuilt += 1;
        #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
        if self.should_cross_check() {
            self.cross_check_rows(&table.rows, total);
        }
        total
    }

    /// The row total for the current counts, from the maintained table when
    /// it is valid and from a full rebuild otherwise.
    fn ensure_rows<W: Weight>(&mut self, table: &mut RowTable<W>) -> W {
        if self.rows_valid {
            table.total
        } else {
            self.rebuild_rows(table)
        }
    }

    /// Patches `sums`, `rows` and `total` across an applied move of one agent
    /// from category `from_cat` to `to_cat` (the delta rule; see the module
    /// docs), or invalidates the table when maintenance is disabled.  Every
    /// `S_cat` gains `gain[to][cat] − gain[from][cat]` without a
    /// per-category branch; the undecided category, whose count is not in
    /// `supports()`, is patched after the opinions.
    fn apply_row_delta<W: Weight>(
        &mut self,
        table: &mut RowTable<W>,
        from_cat: usize,
        to_cat: usize,
    ) {
        if !self.incremental {
            self.rows_valid = false;
            return;
        }
        let width = self.config.num_opinions() + 1;
        let gain = &self.transitions.gain;
        let gain_to = &gain[to_cat * width..][..width];
        let gain_from = &gain[from_cat * width..][..width];
        let shift = |s: &mut W, up: u8, down: u8| {
            *s += W::from(u64::from(up));
            debug_assert!(
                *s >= W::from(u64::from(down)),
                "productive initiator sum underflow"
            );
            *s -= W::from(u64::from(down));
        };
        let mut total = W::default();
        let (undecided_sum, sums) = table.sums.split_last_mut().expect("k + 1 categories");
        let (undecided_row, rows) = table.rows.split_last_mut().expect("k + 1 categories");
        for ((((s, row), &count), &up), &down) in sums
            .iter_mut()
            .zip(rows.iter_mut())
            .zip(self.config.supports())
            .zip(gain_to)
            .zip(gain_from)
        {
            shift(s, up, down);
            *row = W::from(count) * *s;
            total += *row;
        }
        shift(undecided_sum, gain_to[width - 1], gain_from[width - 1]);
        *undecided_row = W::from(self.config.undecided()) * *undecided_sum;
        total += *undecided_row;
        table.total = total;
        self.rows_valid = true;
        self.refreshes += 1;
        self.stats.rows_patched += 1;
        #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
        if self.should_cross_check() {
            self.cross_check_rows(&table.rows, total);
        }
    }

    /// Records `skip` null interactions plus the event interaction itself.
    fn record_event_interactions(&mut self, skip: u64) {
        self.interactions += skip + 1;
        self.nulls_skipped += skip;
        self.events_drawn += 1;
    }

    /// Forwards the interaction counter to `limit` without an event.
    fn forward_to(&mut self, limit: u64) {
        self.nulls_skipped += limit.saturating_sub(self.interactions);
        self.interactions = limit;
    }

    /// Draws the category pair of the next state-changing event from the
    /// given row table and applies it.  One draw picks the whole event: a unit
    /// below `total` decomposes as (responder category, responder identity
    /// within the category, initiator unit).  The responder category is the
    /// number of row prefix sums `≤` the unit, and the unit's offset past the
    /// last of them is its remainder ([`select_unit`]); because `row = c_r ·
    /// S_r` factors into independent responder-identity and initiator-weight
    /// parts, the remainder modulo `S_r` is an exact uniform draw of the
    /// initiator unit.
    ///
    /// With a row destination for `r` ([`row_destinations`]), that
    /// destination is the move and the initiator is not resolved (debug
    /// builds resolve it on the sampled cross-check cadence, and there
    /// assert every applied move against `respond`).  Otherwise `S_r` is the
    /// maintained `sums[r]`, the initiator is the number of prefix sums of
    /// `c_i · [next[r][i] ≠ r]` `≤` that unit ([`select_initiator`]), and the
    /// responder's new category is read off table row `r`.  That row test is
    /// the draw's one data-dependent branch (its measurement is in the
    /// module docs); the RNG words drawn do not depend on it.
    ///
    /// Returns the applied `(from, to)` responder move as categories and
    /// invalidates the maintained row table (callers on the incremental path
    /// re-validate it by patching).
    fn draw_and_apply_event<W: Weight>(&mut self, table: &RowTable<W>) -> (usize, usize) {
        let target = W::uniform_below(&mut self.rng, table.total);
        let (responder_cat, remainder) = select_unit(&table.rows, target);
        debug_assert!(self.config.category_count(responder_cat) > 0);
        let Transitions { next, dest, .. } = &self.transitions;
        // The initiator category and the responder's move it selects.
        let resolve = || {
            let width = self.config.num_opinions() + 1;
            let row = &next[responder_cat * width..][..width];
            let itarget = remainder.modulo(table.sums[responder_cat]);
            let initiator = select_initiator(row, self.config.supports(), responder_cat, itarget);
            (initiator, row[initiator] as usize)
        };
        let to_cat = dest[responder_cat].map_or_else(|| resolve().1, |to| to as usize);
        // The move against the table's row and against `respond`: an entry
        // that changes a move but not its productivity passes the row checks.
        #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
        if self.should_cross_check() {
            let (initiator, resolved) = resolve();
            assert_eq!(
                to_cat, resolved,
                "row {responder_cat}'s destination {to_cat} disagrees with the resolved \
                 initiator's move to {resolved} at {}",
                self.config
            );
            let state = |cat| AgentState::from_category(cat, self.config.num_opinions());
            let expected = self
                .protocol
                .respond(state(responder_cat), state(initiator));
            assert_eq!(
                state(to_cat),
                expected,
                "the move {responder_cat} → {to_cat} disagrees with respond on the pair \
                 ({responder_cat}, {initiator}) at {}",
                self.config
            );
        }
        debug_assert_ne!(to_cat, responder_cat, "sampled event must be productive");
        self.config.move_category(responder_cat, to_cat);
        self.rows_valid = false;
        (responder_cat, to_cat)
    }

    /// Captures this engine's resumable state.  The maintained row table is
    /// *not* captured: it is a pure function of the counts and the first
    /// event after restore rebuilds it bit-identically (showing up as one
    /// extra `rows_rebuilt` in the restored run's maintenance counters).
    /// Call between `advance` calls — see [`crate::checkpoint`].
    #[must_use]
    pub fn capture_state(&self) -> EngineSnapshot {
        EngineSnapshot {
            supports: self.config.supports().to_vec(),
            undecided: self.config.undecided(),
            interactions: self.interactions,
            rng: self.rng.state(),
            counters: vec![
                ("events_drawn".into(), self.events_drawn),
                ("nulls_skipped".into(), self.nulls_skipped),
                ("refreshes".into(), self.refreshes),
                ("rows_patched".into(), self.stats.rows_patched),
                ("rows_rebuilt".into(), self.stats.rows_rebuilt),
                ("law_patches".into(), self.stats.law_patches),
                ("law_rebuilds".into(), self.stats.law_rebuilds),
                (
                    "law_fallback_rebuilds".into(),
                    self.stats.law_fallback_rebuilds,
                ),
                ("incremental".into(), u64::from(self.incremental)),
            ],
        }
    }

    /// Rebuilds an engine from a checkpoint captured by
    /// [`BatchedEngine::capture_state`].  The restored engine walks the
    /// identical trajectory tail the interrupted run would have.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the checkpoint holds a
    /// different engine kind or invalid counts, and
    /// [`PpError::OpinionCountMismatch`] when the protocol disagrees with
    /// the captured counts on `k`.
    pub fn restore(protocol: P, checkpoint: &Checkpoint) -> Result<Self, PpError> {
        let snapshot = checkpoint.expect_single("batched")?;
        Self::restore_snapshot(protocol, snapshot)
    }

    /// Snapshot-level counterpart of [`BatchedEngine::restore`].
    ///
    /// # Errors
    ///
    /// Same as [`BatchedEngine::restore`], minus the kind check.
    pub fn restore_snapshot(protocol: P, snapshot: &EngineSnapshot) -> Result<Self, PpError> {
        let config = snapshot.configuration()?;
        let mut engine = Self::try_new(protocol, config, SimSeed::from_u64(0))?;
        engine.rng = SmallRng::from_state(snapshot.rng);
        engine.interactions = snapshot.interactions;
        engine.incremental = snapshot.counter("incremental") != Some(0);
        engine.refreshes = snapshot.counter("refreshes").unwrap_or(0);
        engine.stats = MaintenanceStats {
            rows_patched: snapshot.counter("rows_patched").unwrap_or(0),
            rows_rebuilt: snapshot.counter("rows_rebuilt").unwrap_or(0),
            law_patches: snapshot.counter("law_patches").unwrap_or(0),
            law_rebuilds: snapshot.counter("law_rebuilds").unwrap_or(0),
            law_fallback_rebuilds: snapshot.counter("law_fallback_rebuilds").unwrap_or(0),
        };
        engine.events_drawn = snapshot.counter("events_drawn").unwrap_or(0);
        engine.nulls_skipped = snapshot.counter("nulls_skipped").unwrap_or(0);
        Ok(engine)
    }

    /// The probability that the next interaction changes the state, computed
    /// from the current counts (used by tests and diagnostics).
    #[must_use]
    pub fn productive_probability(&mut self) -> f64 {
        let mut table = self.take_table();
        let p = match &mut table {
            WeightTable::Narrow(t) => self.probability_on(t),
            WeightTable::Wide(t) => self.probability_on(t),
        };
        self.table = table;
        p
    }

    fn probability_on<W: Weight>(&mut self, table: &mut RowTable<W>) -> f64 {
        let total = self.ensure_rows(table);
        event_probability(total, self.config.population())
    }

    /// [`StepEngine::leg`] on a row table of one width: the engine's one
    /// event loop ([`StepEngine::advance`] is a leg capped at one event).
    /// Each pass is one `advance` — the limit check before the table is
    /// touched, the row total, one [`geometric_skip`] against the headroom,
    /// the event draw and the row patch — so the RNG stream and every
    /// counter are those of one `advance` call per event.
    fn leg_on<W: Weight, R: Recorder>(
        &mut self,
        table: &mut RowTable<W>,
        limit: u64,
        until: u64,
        max_events: u64,
        recorder: &mut R,
    ) -> Leg {
        debug_assert!(max_events > 0, "a leg runs at least one event");
        let mut events = 0;
        loop {
            if self.interactions >= limit {
                return Leg {
                    events,
                    end: Advance::LimitReached,
                };
            }
            let total = self.ensure_rows(table);
            if total == W::default() {
                self.forward_to(limit);
                return Leg {
                    events,
                    end: Advance::Absorbed,
                };
            }
            let p = event_probability(total, self.config.population());

            // How many interactions may still elapse before the limit; the
            // event itself occupies one, so the skip must stay strictly below
            // this.
            let headroom = limit - self.interactions;
            let Some(skip) = geometric_skip(&mut self.rng, p, headroom) else {
                self.forward_to(limit);
                return Leg {
                    events,
                    end: Advance::LimitReached,
                };
            };
            // Debug builds check the goal-soundness rule below: an event that
            // leaves its source non-empty empties no category, so it cannot
            // reach consensus or settle a run that was not settled before it.
            let settled_before = cfg!(debug_assertions) && self.config.is_opinion_settled();
            self.record_event_interactions(skip);
            let (from_cat, to_cat) = self.draw_and_apply_event(table);
            self.apply_row_delta(table, from_cat, to_cat);
            events += 1;
            recorder.record(self.interactions, &self.config);
            debug_assert!(
                self.config.category_count(from_cat) == 0
                    || !(self.config.is_consensus()
                        || self.config.is_opinion_settled() && !settled_before),
                "an event that left its source non-empty met a goal at {}",
                self.config
            );
            if events >= max_events
                || self.interactions >= until
                || self.config.category_count(from_cat) == 0
            {
                return Leg {
                    events,
                    end: Advance::Event,
                };
            }
        }
    }
}

impl<P: OpinionProtocol> StepEngine for BatchedEngine<P> {
    fn configuration(&self) -> &Configuration {
        &self.config
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn engine_name(&self) -> &'static str {
        "batched"
    }

    fn maintenance(&self) -> Option<MaintenanceStats> {
        Some(self.stats)
    }

    fn telemetry(&self) -> Option<MetricsSnapshot> {
        let mut snap = MetricsSnapshot::new();
        snap.add_counter("batched.events_drawn", self.events_drawn);
        snap.add_counter("batched.nulls_skipped", self.nulls_skipped);
        snap.add_counter("batched.table_refreshes", self.refreshes);
        snap.absorb_maintenance(&self.stats);
        Some(snap)
    }

    fn advance(&mut self, limit: u64) -> Advance {
        self.leg(limit, u64::MAX, 1, &mut NullRecorder).end
    }

    fn leg<R: Recorder>(
        &mut self,
        limit: u64,
        until: u64,
        max_events: u64,
        recorder: &mut R,
    ) -> Leg {
        let mut table = self.take_table();
        let leg = match &mut table {
            WeightTable::Narrow(t) => self.leg_on(t, limit, until, max_events, recorder),
            WeightTable::Wide(t) => self.leg_on(t, limit, until, max_events, recorder),
        };
        self.table = table;
        leg
    }
}

impl<P: OpinionProtocol> EngineCheckpoint for BatchedEngine<P> {
    fn capture_engine(&self) -> EngineState {
        EngineState::Batched(self.capture_state())
    }
}

impl<P: OpinionProtocol + Clone> ReplicaCheckpoint for BatchedEngine<P> {
    type Context = P;

    fn capture_replica(&self) -> EngineSnapshot {
        self.capture_state()
    }

    fn restore_replica(ctx: &P, snapshot: &EngineSnapshot) -> Result<Self, PpError> {
        Self::restore_snapshot(ctx.clone(), snapshot)
    }
}

/// A runtime-selectable count-based engine (exact or batched) over one
/// protocol — the concrete type consumers hold when the backend is a run
/// parameter rather than a compile-time choice.
#[derive(Debug)]
pub enum CountEngine<P> {
    /// Per-interaction stepping.
    Exact(ExactEngine<P>),
    /// Skip-ahead stepping.
    Batched(BatchedEngine<P>),
}

impl<P: OpinionProtocol> CountEngine<P> {
    /// Creates the engine selected by `choice`.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::OpinionCountMismatch`] on a protocol/configuration
    /// mismatch and [`PpError::UnsupportedEngine`] for
    /// [`EngineChoice::MeanField`] and [`EngineChoice::Hybrid`] (the ODE
    /// limit and the fidelity controller built on it are protocol-specific;
    /// see `usd-core`) and [`EngineChoice::Sharded`] (the sharded engine
    /// needs a [`crate::shard::ShardPlan`] and `Clone + Send` protocols —
    /// construct [`crate::shard::ShardedEngine`] directly).
    pub fn try_new(
        protocol: P,
        config: Configuration,
        seed: SimSeed,
        choice: EngineChoice,
    ) -> Result<Self, PpError> {
        match choice {
            EngineChoice::Exact => Ok(CountEngine::Exact(CountSimulator::try_new(
                protocol, config, seed,
            )?)),
            EngineChoice::Batched => Ok(CountEngine::Batched(BatchedEngine::try_new(
                protocol, config, seed,
            )?)),
            EngineChoice::Sharded => Err(PpError::UnsupportedEngine {
                requested: "sharded",
            }),
            EngineChoice::MeanField => Err(PpError::UnsupportedEngine {
                requested: "mean-field",
            }),
            EngineChoice::Hybrid => Err(PpError::UnsupportedEngine {
                requested: "hybrid",
            }),
        }
    }

    /// Panicking counterpart of [`CountEngine::try_new`].
    ///
    /// # Panics
    ///
    /// Panics on mismatch or unsupported choice.
    #[must_use]
    pub fn new(protocol: P, config: Configuration, seed: SimSeed, choice: EngineChoice) -> Self {
        Self::try_new(protocol, config, seed, choice).expect("failed to construct engine")
    }
}

impl<P: OpinionProtocol> StepEngine for CountEngine<P> {
    fn configuration(&self) -> &Configuration {
        match self {
            CountEngine::Exact(e) => StepEngine::configuration(e),
            CountEngine::Batched(e) => StepEngine::configuration(e),
        }
    }

    fn interactions(&self) -> u64 {
        match self {
            CountEngine::Exact(e) => StepEngine::interactions(e),
            CountEngine::Batched(e) => StepEngine::interactions(e),
        }
    }

    fn engine_name(&self) -> &'static str {
        match self {
            CountEngine::Exact(e) => e.engine_name(),
            CountEngine::Batched(e) => e.engine_name(),
        }
    }

    fn maintenance(&self) -> Option<MaintenanceStats> {
        match self {
            CountEngine::Exact(e) => e.maintenance(),
            CountEngine::Batched(e) => e.maintenance(),
        }
    }

    fn rejection_misses(&self) -> Option<u64> {
        match self {
            CountEngine::Exact(e) => e.rejection_misses(),
            CountEngine::Batched(e) => e.rejection_misses(),
        }
    }

    fn telemetry(&self) -> Option<MetricsSnapshot> {
        match self {
            CountEngine::Exact(e) => e.telemetry(),
            CountEngine::Batched(e) => e.telemetry(),
        }
    }

    fn advance(&mut self, limit: u64) -> Advance {
        match self {
            CountEngine::Exact(e) => e.advance(limit),
            CountEngine::Batched(e) => e.advance(limit),
        }
    }

    fn leg<R: Recorder>(
        &mut self,
        limit: u64,
        until: u64,
        max_events: u64,
        recorder: &mut R,
    ) -> Leg {
        match self {
            CountEngine::Exact(e) => e.leg(limit, until, max_events, recorder),
            CountEngine::Batched(e) => e.leg(limit, until, max_events, recorder),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunOutcome;

    /// The 2-opinion USD.
    #[derive(Debug)]
    struct Usd2Plain;

    impl OpinionProtocol for Usd2Plain {
        fn num_opinions(&self) -> usize {
            2
        }
        fn respond(&self, r: AgentState, i: AgentState) -> AgentState {
            match (r, i) {
                (AgentState::Decided(a), AgentState::Decided(b)) if a != b => AgentState::Undecided,
                (AgentState::Undecided, AgentState::Decided(b)) => AgentState::Decided(b),
                _ => r,
            }
        }
        fn name(&self) -> &str {
            "usd-2"
        }
    }

    #[test]
    fn incremental_rows_produce_the_same_trajectory_as_rebuilds() {
        // Same seed, maintenance on vs off: the two engines must walk
        // bit-identical trajectories (the rows are exact integers either
        // way), differing only in their maintenance counters.
        let config = Configuration::from_counts(vec![600, 300], 100).unwrap();
        let mut patched = BatchedEngine::new(Usd2Plain, config.clone(), SimSeed::from_u64(21));
        let mut rebuilt = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(21));
        rebuilt.set_incremental_rows(false);
        let mut events = 0u64;
        loop {
            let a = patched.advance(u64::MAX);
            let b = rebuilt.advance(u64::MAX);
            assert_eq!(a, b);
            assert_eq!(patched.configuration(), rebuilt.configuration());
            assert_eq!(patched.interactions(), rebuilt.interactions());
            if a != Advance::Event {
                break;
            }
            events += 1;
        }
        assert!(events > 10, "run too short to exercise the patch path");
        let stats = patched.maintenance_stats();
        assert_eq!(stats.rows_rebuilt, 1, "only the first refresh rebuilds");
        assert_eq!(stats.rows_patched, events);
        let baseline = rebuilt.maintenance_stats();
        assert_eq!(baseline.rows_patched, 0);
        assert_eq!(baseline.rows_rebuilt, events + 1);
    }

    #[test]
    fn transition_tables_follow_respond() {
        let table = transition_table(&Usd2Plain);
        // Rows: opinion 0, opinion 1, undecided (category 2).
        assert_eq!(table, vec![0, 2, 0, 2, 1, 1, 0, 1, 2]);
        assert_eq!(check_transition_table(&Usd2Plain, &table), Ok(()));
    }

    /// A protocol that moves agents to an opinion it does not have.
    #[derive(Debug)]
    struct OutOfRange;

    impl OpinionProtocol for OutOfRange {
        fn num_opinions(&self) -> usize {
            2
        }
        fn respond(&self, r: AgentState, _i: AgentState) -> AgentState {
            match r {
                AgentState::Undecided => AgentState::decided(2),
                decided => decided,
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the 2 opinions")]
    fn out_of_range_transitions_are_rejected_at_construction() {
        let config = Configuration::from_counts(vec![5, 5], 5).unwrap();
        let _ = BatchedEngine::new(OutOfRange, config, SimSeed::from_u64(1));
    }

    /// FNV-1a over every `(interactions, supports, undecided)` a run visits
    /// in its first `events` events or up to consensus.
    fn trajectory_fingerprint<E: StepEngine>(engine: &mut E, events: u64) -> (u64, u64) {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for _ in 0..events {
            if engine.configuration().is_consensus() {
                break;
            }
            assert_eq!(engine.advance(u64::MAX), Advance::Event);
            mix(engine.interactions());
            engine
                .configuration()
                .supports()
                .iter()
                .for_each(|&s| mix(s));
            mix(engine.configuration().undecided());
        }
        (engine.interactions(), hash)
    }

    #[test]
    fn usd_rows_have_their_destinations() {
        // Rows: opinion 0, opinion 1, undecided (category 2).
        let table = transition_table(&Usd2Plain);
        assert_eq!(row_destinations(&table), [Some(2), Some(2), None]);
        // A row with no productive initiator has no destination.
        assert_eq!(row_destinations(&[0, 0, 0, 1]), [None, Some(0)]);
    }

    /// A batched k = 2 USD engine whose opinion-1 row destination is
    /// corrupted from `⊥` to opinion 0: a clash then moves an opinion-1
    /// responder to opinion 0 instead of making it undecided.
    fn misdirected_usd() -> BatchedEngine<Usd2Plain> {
        let config = Configuration::from_counts(vec![600, 300], 100).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(33));
        let dest = &mut engine.transitions.dest;
        assert_eq!(dest[1], Some(2));
        dest[1] = Some(0);
        engine
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
    #[should_panic(
        expected = "row 1's destination 0 disagrees with the resolved initiator's move to 2"
    )]
    fn a_corrupted_row_destination_fails_the_debug_cross_check() {
        let _ = misdirected_usd()
            .run_engine(StopCondition::consensus().or_max_interactions(10_000_000));
    }

    #[test]
    #[cfg(not(feature = "exhaustive-checks"))]
    fn a_corrupted_row_destination_changes_the_trajectory() {
        // Debug builds first cross-check a destination at the 64th event's
        // draw, so 48 events run unchecked in every build without the
        // feature (under it the first corrupted move panics, which the test
        // above shows).
        let config = Configuration::from_counts(vec![600, 300], 100).unwrap();
        let mut sound = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(33));
        assert_ne!(
            trajectory_fingerprint(&mut misdirected_usd(), 48),
            trajectory_fingerprint(&mut sound, 48)
        );
    }

    /// `Usd2Plain`'s transitions with one table entry corrupted: an
    /// opinion-0 responder that meets an opinion-1 initiator keeps its
    /// opinion instead of becoming undecided, so row 0 loses all its
    /// productive weight.  The layouts are re-derived from the corrupted
    /// table, so the engine is consistent with itself and only enumeration
    /// of `respond` can tell.
    fn corrupted_usd_transitions() -> Transitions {
        let mut next = transition_table(&Usd2Plain);
        assert_eq!(next[1], 2);
        next[1] = 0;
        Transitions::new(next)
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
    #[should_panic(expected = "row weight disagrees with enumeration for category 0")]
    fn a_corrupted_transition_table_fails_the_debug_cross_check() {
        // 62 sound events leave 63 refreshes (one rebuild, 62 patches), so
        // the rebuild after the corruption is the 64th refresh, which every
        // debug build cross-checks.
        let config = Configuration::from_counts(vec![600, 300], 100).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(33));
        for _ in 0..62 {
            assert_eq!(engine.advance(u64::MAX), Advance::Event);
        }
        assert_eq!(engine.refreshes, 63);
        engine.transitions = corrupted_usd_transitions();
        engine.rows_valid = false;
        let _ = engine.productive_probability();
    }

    #[test]
    #[cfg(not(feature = "exhaustive-checks"))]
    fn a_corrupted_transition_table_changes_the_trajectory() {
        // Debug builds first cross-check the rows at the 64th refresh, so 48
        // events run unchecked in every build without the feature.
        let config = Configuration::from_counts(vec![600, 300], 100).unwrap();
        let mut sound = BatchedEngine::new(Usd2Plain, config.clone(), SimSeed::from_u64(33));
        let mut corrupted = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(33));
        corrupted.transitions = corrupted_usd_transitions();
        assert_ne!(
            trajectory_fingerprint(&mut corrupted, 48),
            trajectory_fingerprint(&mut sound, 48)
        );
    }

    /// `Usd2Plain`'s transitions with one table entry corrupted: an
    /// undecided responder that meets an opinion-0 initiator adopts
    /// opinion 1.  Every pair keeps its productivity, so the rows still
    /// agree with enumeration, and the re-derived `⊥` row gains destination
    /// 1, so the destination check agrees with the table: only the move
    /// check sees it.
    fn misadopting_usd_transitions() -> Transitions {
        let mut next = transition_table(&Usd2Plain);
        assert_eq!(next[2 * 3], 0);
        next[2 * 3] = 1;
        Transitions::new(next)
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
    #[should_panic(expected = "the move 2 → 1 disagrees with respond on the pair (2, 0)")]
    fn a_misdirected_adoption_fails_the_debug_move_check() {
        // Most events here are adoptions, most of them of opinion 0, so
        // one of the sampled cross-checks meets the corrupted pair early.
        let config = Configuration::from_counts(vec![300, 100], 600).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(33));
        engine.transitions = misadopting_usd_transitions();
        assert_eq!(engine.transitions.dest[2], Some(1));
        let _ = engine.run_engine(StopCondition::consensus().or_max_interactions(10_000_000));
    }

    #[test]
    fn maintenance_counters_flow_into_run_results() {
        let config = Configuration::from_counts(vec![900, 100], 0).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(5));
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(5_000_000));
        let stats = result.maintenance().expect("batched engine counts");
        assert_eq!(stats.rows_rebuilt, 1);
        assert!(stats.rows_patched > 0);
        assert_eq!(stats.law_patches, 0);
        assert_eq!(stats.law_rebuilds, 0);
    }

    #[test]
    fn batched_telemetry_counts_skips_draws_and_patches() {
        let config = Configuration::from_counts(vec![900, 100], 0).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(5));
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(5_000_000));
        let snap = result
            .telemetry()
            .expect("batched engine reports telemetry");
        let events = snap.counter("batched.events_drawn").unwrap();
        assert!(events > 0);
        // Every interaction is either a drawn event or a skipped null.
        assert_eq!(
            events + snap.counter("batched.nulls_skipped").unwrap(),
            result.interactions()
        );
        // The snapshot carries the maintenance counters under canonical names.
        let stats = result.maintenance().unwrap();
        assert_eq!(
            snap.counter("maintenance.rows_patched"),
            Some(stats.rows_patched)
        );
        assert_eq!(
            snap.counter("maintenance.rows_rebuilt"),
            Some(stats.rows_rebuilt)
        );
    }

    #[test]
    fn default_telemetry_reflects_bespoke_accessors() {
        // The exact engine has no counters of its own: its default
        // `telemetry()` surfaces nothing beyond what the legacy accessors
        // say (no maintenance, no rejection path → no snapshot).
        let config = Configuration::from_counts(vec![9, 1], 0).unwrap();
        let engine = CountSimulator::new(Usd2Plain, config, SimSeed::from_u64(5));
        assert!(StepEngine::telemetry(&engine).is_none());
    }

    #[test]
    fn engine_choice_round_trips_through_strings() {
        for choice in EngineChoice::ALL {
            assert_eq!(choice.name().parse::<EngineChoice>().unwrap(), choice);
        }
        assert!("nope".parse::<EngineChoice>().is_err());
        assert_eq!(EngineChoice::default(), EngineChoice::Exact);
    }

    #[test]
    fn batched_engine_reaches_consensus_with_plain_protocol() {
        let config = Configuration::from_counts(vec![900, 100], 0).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(5));
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(5_000_000));
        assert!(result.reached_consensus());
        assert_eq!(result.winner().unwrap().index(), 0);
        assert_eq!(result.scheduler(), Some(UNIFORM_PAIR_SCHEDULER_NAME));
    }

    #[test]
    fn batched_population_is_conserved_across_events() {
        let config = Configuration::from_counts(vec![40, 60], 0).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(11));
        for _ in 0..200 {
            match engine.advance(u64::MAX) {
                Advance::Event => {
                    assert!(engine.configuration().is_consistent());
                    assert_eq!(engine.configuration().population(), 100);
                }
                _ => break,
            }
        }
        assert!(engine.interactions() > 0);
    }

    #[test]
    fn batched_budget_is_respected_exactly() {
        let config = Configuration::from_counts(vec![500, 500], 0).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(3));
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(10_000));
        if result.outcome() == RunOutcome::BudgetExhausted {
            assert_eq!(result.interactions(), 10_000);
        } else {
            assert!(result.interactions() <= 10_000);
        }
    }

    #[test]
    fn absorbed_configuration_exhausts_budget_without_spinning() {
        // A frozen non-consensus state: every agent undecided (the USD can
        // never change it).
        let config = Configuration::from_counts(vec![0, 0], 100).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(8));
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(1_000_000));
        assert_eq!(result.outcome(), RunOutcome::BudgetExhausted);
        assert_eq!(result.interactions(), 1_000_000);
    }

    #[test]
    fn exact_engine_detects_absorption_instead_of_spinning() {
        // Frozen non-consensus state: the absorption check must fire after a
        // bounded number of null steps even with no (finite) limit.
        let config = Configuration::from_counts(vec![0, 0], 100).unwrap();
        let mut engine = CountSimulator::new(Usd2Plain, config, SimSeed::from_u64(1));
        assert_eq!(
            StepEngine::advance(&mut engine, u64::MAX),
            Advance::Absorbed
        );
    }

    #[test]
    #[should_panic(expected = "can never meet the stop condition")]
    fn exact_engine_fails_loudly_on_absorbing_goal_only_runs() {
        // Same loud-failure contract as the batched backend: a goal-only
        // stop on an absorbing configuration panics instead of hanging.
        let config = Configuration::from_counts(vec![0, 0], 100).unwrap();
        let mut engine = CountSimulator::new(Usd2Plain, config, SimSeed::from_u64(1));
        let _ = engine.run_engine(StopCondition::consensus());
    }

    #[test]
    fn geometric_skip_matches_the_distribution_mean() {
        let mut rng = SimSeed::from_u64(42).rng();
        let p = 0.2f64;
        let trials = 50_000;
        let total: u64 = (0..trials)
            .map(|_| geometric_skip(&mut rng, p, u64::MAX).expect("no overshoot"))
            .sum();
        let mean = total as f64 / trials as f64;
        let expected = (1.0 - p) / p;
        assert!((mean - expected).abs() < 0.1, "mean {mean} vs {expected}");
        // p = 1 means the event is immediate, and overshoots report None.
        assert_eq!(geometric_skip(&mut rng, 1.0, 10), Some(0));
        assert_eq!(geometric_skip(&mut rng, 1e-18, 1), None);
    }

    #[test]
    fn exact_engine_advance_matches_stepwise_semantics() {
        let config = Configuration::from_counts(vec![80, 20], 0).unwrap();
        let mut engine = CountSimulator::new(Usd2Plain, config, SimSeed::from_u64(2));
        let adv = StepEngine::advance(&mut engine, 1_000_000);
        assert_eq!(adv, Advance::Event);
        assert!(StepEngine::interactions(&engine) >= 1);
        let now = StepEngine::interactions(&engine);
        let adv = StepEngine::advance(&mut engine, now);
        assert_eq!(adv, Advance::LimitReached);
    }

    #[test]
    fn count_engine_dispatches_both_backends() {
        for choice in [EngineChoice::Exact, EngineChoice::Batched] {
            let config = Configuration::from_counts(vec![900, 100], 0).unwrap();
            let mut engine = CountEngine::new(Usd2Plain, config, SimSeed::from_u64(4), choice);
            let result =
                engine.run_engine(StopCondition::consensus().or_max_interactions(5_000_000));
            assert!(result.reached_consensus(), "{choice} failed to converge");
            assert_eq!(engine.engine_name(), choice.name());
        }
        let config = Configuration::from_counts(vec![10, 10], 0).unwrap();
        let err = CountEngine::try_new(
            Usd2Plain,
            config,
            SimSeed::from_u64(0),
            EngineChoice::MeanField,
        )
        .unwrap_err();
        assert!(matches!(err, PpError::UnsupportedEngine { .. }));
    }

    #[test]
    fn productive_probability_matches_closed_form() {
        // x = (300, 700), u = 0: p = 2·300·700/1000² = 0.42.
        let config = Configuration::from_counts(vec![300, 700], 0).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(77));
        assert!((engine.productive_probability() - 0.42).abs() < 1e-12);
    }

    #[test]
    fn gen_u128_below_stays_in_range_and_covers_small_bounds() {
        let mut rng = SimSeed::from_u64(1).rng();
        let mut seen = [false; 5];
        for _ in 0..2_000 {
            let x = uniform_u128_below(&mut rng, 5);
            assert!(x < 5);
            seen[x as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "some residues never sampled: {seen:?}"
        );
    }

    /// The k-opinion USD, for random-k properties.
    #[derive(Debug)]
    struct UsdK {
        k: usize,
    }

    impl OpinionProtocol for UsdK {
        fn num_opinions(&self) -> usize {
            self.k
        }
        fn respond(&self, r: AgentState, i: AgentState) -> AgentState {
            Usd2Plain.respond(r, i)
        }
    }

    #[test]
    fn uniform_u64_below_handles_the_extreme_bounds() {
        for bound in [
            1,
            2,
            3,
            u64::MAX / 2,
            u64::MAX / 2 + 2,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut narrow = SimSeed::from_u64(bound).rng();
            let mut wide = SimSeed::from_u64(bound).rng();
            for _ in 0..64 {
                let x = uniform_u64_below(&mut narrow, bound);
                assert!(x < bound);
                assert_eq!(
                    u128::from(x),
                    uniform_u128_below(&mut wide, u128::from(bound))
                );
            }
            assert_eq!(narrow.state(), wide.state());
        }
    }

    #[test]
    fn the_table_width_follows_the_population_across_count_edits() {
        let small = Configuration::from_counts(vec![600, 300], 100).unwrap();
        let large = u64::from(u32::MAX);
        let mut engine = BatchedEngine::new(Usd2Plain, small.clone(), SimSeed::from_u64(2));
        assert_eq!(engine.advance(u64::MAX), Advance::Event);
        assert!(!engine.table.is_wide());
        *engine.parts_mut().1 = Configuration::from_counts(vec![large, 1], 1).unwrap();
        assert_eq!(engine.advance(u64::MAX), Advance::Event);
        assert!(engine.table.is_wide(), "n = 2³² + 1 needs u128 weights");
        *engine.parts_mut().1 = Configuration::from_counts(vec![large - 1, 1], 0).unwrap();
        assert_eq!(engine.advance(u64::MAX), Advance::Event);
        assert!(!engine.table.is_wide(), "n = 2³² − 1 fits u64 weights");
        *engine.parts_mut().1 = small;
        assert_eq!(engine.advance(u64::MAX), Advance::Event);
        assert!(!engine.table.is_wide());
    }

    /// The responder scan [`select_unit`] replaced: walk the rows, stop at
    /// the first one the remaining target falls below.
    fn scan_responder<W: Weight>(rows: &[W], mut target: W) -> (usize, W) {
        let mut responder_cat = rows.len() - 1;
        for (cat, &row) in rows.iter().enumerate() {
            if target < row {
                responder_cat = cat;
                break;
            }
            target -= row;
        }
        (responder_cat, target)
    }

    /// The initiator scan [`select_initiator`] replaced, over all `k + 1`
    /// category counts: skip unproductive categories, stop at the first
    /// count the remaining target falls below.
    fn scan_initiator<W: Weight>(
        dests: &[u32],
        counts: &[u64],
        responder: usize,
        mut itarget: W,
    ) -> usize {
        let mut initiator_cat = dests.len() - 1;
        for (i, &dest) in dests.iter().enumerate() {
            if dest as usize == responder {
                continue;
            }
            let c_i = W::from(counts[i]);
            if itarget < c_i {
                initiator_cat = i;
                break;
            }
            itarget -= c_i;
        }
        initiator_cat
    }

    /// Targets below `total` at 0, `total − 1` and every prefix boundary of
    /// `weights` ±1.
    fn boundary_targets(weights: &[u64]) -> Vec<u64> {
        let total: u64 = weights.iter().sum();
        let mut targets = vec![0, total - 1];
        let mut prefix = 0;
        for &w in weights {
            prefix += w;
            targets.extend([prefix.saturating_sub(1), prefix, prefix + 1]);
        }
        targets.retain(|&t| t < total);
        targets
    }

    /// Checks both selections against their scans at every boundary target,
    /// in `u64` and in `u128` (there also scaled past `2⁶⁴`).
    fn assert_selections_match_scans(rows: &[u64], dests: &[u32], counts: &[u64], r: usize) {
        let k = counts.len() - 1;
        if rows.iter().sum::<u64>() > 0 {
            for t in boundary_targets(rows) {
                assert_eq!(
                    select_unit(rows, t),
                    scan_responder(rows, t),
                    "{rows:?} at {t}"
                );
                for shift in [0, 40, 64] {
                    let wide: Vec<u128> = rows.iter().map(|&w| u128::from(w) << shift).collect();
                    for t in [u128::from(t) << shift, (u128::from(t) << shift) + 1] {
                        let t = t.min((u128::from(rows.iter().sum::<u64>()) << shift) - 1);
                        assert_eq!(select_unit(&wide, t), scan_responder(&wide, t));
                    }
                }
            }
        }
        let productive: Vec<u64> = counts
            .iter()
            .zip(dests)
            .map(|(&c, &dest)| if dest as usize == r { 0 } else { c })
            .collect();
        if productive.iter().sum::<u64>() > 0 {
            for t in boundary_targets(&productive) {
                let expected = scan_initiator(dests, counts, r, t);
                assert_eq!(select_initiator(dests, &counts[..k], r, t), expected);
                let wide = u128::from(t);
                assert_eq!(select_initiator(dests, &counts[..k], r, wide), expected);
                assert_eq!(scan_initiator(dests, counts, r, wide), expected);
            }
        }
    }

    #[test]
    fn selections_find_a_lone_non_zero_last_category() {
        for k in 1..9 {
            let mut weights = vec![0; k + 1];
            weights[k] = 5;
            // Every initiator productive for responder 0 except itself.
            let mut dests = vec![k as u32; k + 1];
            dests[0] = 0;
            assert_selections_match_scans(&weights, &dests, &weights, 0);
            assert_eq!(select_unit(&weights, 4u64), (k, 4));
            assert_eq!(select_initiator(&dests, &weights[..k], 0, 4u64), k);
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// `k + 1` weights from raw draws: those whose bit is set in
        /// `zeros` are zero, and with `lone` all but the last are.
        fn shape(raw: &[u64], k: usize, zeros: u64, lone: bool) -> Vec<u64> {
            raw[..=k]
                .iter()
                .enumerate()
                .map(|(i, &w)| {
                    let zero = zeros >> i & 1 == 1 || (lone && i < k);
                    if zero {
                        0
                    } else {
                        w
                    }
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn prefix_selection_picks_what_the_scans_picked(
                k in 1usize..10,
                raw_rows in proptest::collection::vec(0u64..u64::from(u32::MAX), 10..11),
                raw_counts in proptest::collection::vec(0u64..1_000, 10..11),
                raw_dests in proptest::collection::vec(0u32..10, 10..11),
                zeros in (0u64..1024, 0u64..1024),
                lone in (0u8..4, 0u8..4),
                small in 0u8..2,
                r in 0usize..10,
            ) {
                let mut rows = shape(&raw_rows, k, zeros.0, lone.0 == 0);
                if small == 1 {
                    rows.iter_mut().for_each(|w| *w %= 8);
                }
                let counts = shape(&raw_counts, k, zeros.1, lone.1 == 0);
                let dests: Vec<u32> = raw_dests[..=k].iter().map(|&d| d % (k as u32 + 1)).collect();
                assert_selections_match_scans(&rows, &dests, &counts, r % (k + 1));
            }

            #[test]
            fn uniform_u64_below_draws_like_uniform_u128_below(
                seed in 0u64..u64::MAX,
                raw in 0u64..u64::MAX,
                bits in 1u32..65,
            ) {
                // Bounds of every magnitude in 1..2⁶⁴.
                let bound = (raw >> (64 - bits)).max(1);
                let mut narrow = SimSeed::from_u64(seed).rng();
                let mut wide = SimSeed::from_u64(seed).rng();
                for _ in 0..16 {
                    let x = uniform_u64_below(&mut narrow, bound);
                    prop_assert!(x < bound);
                    prop_assert_eq!(u128::from(x), uniform_u128_below(&mut wide, u128::from(bound)));
                }
                prop_assert_eq!(narrow.state(), wide.state());
            }

            #[test]
            fn a_wide_table_walks_the_narrow_trajectory(
                supports in proptest::collection::vec(0u64..300, 1..9),
                undecided in 0u64..300,
                seed in 0u64..u64::MAX,
                mode in 0u8..2,
            ) {
                prop_assume!(supports.iter().sum::<u64>() + undecided > 0);
                let k = supports.len();
                let config = Configuration::from_counts(supports, undecided).unwrap();
                // Mode 0: patched rows; 1: rebuilt rows.
                let protocol = || UsdK { k };
                let mut narrow = BatchedEngine::new(protocol(), config.clone(), SimSeed::from_u64(seed));
                let mut wide = BatchedEngine::new_wide(protocol(), config, SimSeed::from_u64(seed));
                narrow.set_incremental_rows(mode == 0);
                wide.set_incremental_rows(mode == 0);
                prop_assert!(!narrow.table.is_wide() && wide.table.is_wide());
                // Uneven limits exercise the limit-reached path as well.
                let mut limit = 0u64;
                for step in 0..2_000u64 {
                    limit += 1 + step % 7;
                    let a = narrow.advance(limit);
                    prop_assert_eq!(a, wide.advance(limit));
                    prop_assert_eq!(narrow.configuration(), wide.configuration());
                    prop_assert_eq!(narrow.interactions(), wide.interactions());
                    if a == Advance::Absorbed {
                        break;
                    }
                }
                prop_assert_eq!(narrow.telemetry(), wide.telemetry());
            }
        }
    }

    #[test]
    fn batched_checkpoint_restores_the_identical_trajectory_tail() {
        let config = Configuration::from_counts(vec![600, 300], 100).unwrap();
        let stop = StopCondition::consensus().or_max_interactions(5_000_000);
        let limit = stop.max_interactions().unwrap();
        let mut reference = BatchedEngine::new(Usd2Plain, config.clone(), SimSeed::from_u64(77));
        let mut interrupted = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(77));
        // Interrupt between `advance` calls, against the same final limit —
        // the two rules the checkpoint contract requires.
        for _ in 0..40 {
            assert_eq!(reference.advance(limit), interrupted.advance(limit));
        }
        let checkpoint = Checkpoint::capture(&interrupted);
        assert_eq!(checkpoint.kind(), "batched");
        drop(interrupted);
        let mut restored = BatchedEngine::restore(Usd2Plain, &checkpoint).unwrap();
        assert_eq!(
            StepEngine::configuration(&restored),
            StepEngine::configuration(&reference)
        );
        // The bookkeeping counters continue where the interrupted run left
        // off (a checkpoint after 40 events carries 40 draws).
        let snapshot = restored.capture_state();
        assert_eq!(
            snapshot.counter("events_drawn"),
            Some(reference.events_drawn)
        );
        // A capture names its counters without allocating.
        assert_eq!(snapshot.counters.len(), 9);
        assert!(snapshot
            .counters
            .iter()
            .all(|(name, _)| matches!(name, std::borrow::Cow::Borrowed(_))));
        let expected = reference.run_engine(stop);
        let resumed = restored.run_engine(stop);
        // RunResult equality covers outcome, interactions, the final
        // configuration, the scheduler and rejection misses; maintenance
        // counters legitimately differ by the restore's one warm-up rebuild.
        assert_eq!(resumed, expected);
        let warm = expected.maintenance().unwrap();
        let cold = resumed.maintenance().unwrap();
        assert_eq!(cold.rows_rebuilt, warm.rows_rebuilt + 1);
        assert_eq!(cold.rows_patched, warm.rows_patched);
    }

    #[test]
    fn recorder_sees_initial_and_event_configurations() {
        let config = Configuration::from_counts(vec![90, 10], 0).unwrap();
        let mut engine = BatchedEngine::new(Usd2Plain, config, SimSeed::from_u64(9));
        let mut times: Vec<u64> = Vec::new();
        let mut rec = |t: u64, _c: &Configuration| times.push(t);
        engine.run_engine_recorded(
            StopCondition::consensus().or_max_interactions(1_000_000),
            &mut rec,
        );
        assert_eq!(times[0], 0);
        assert!(
            times.windows(2).all(|w| w[0] < w[1]),
            "event times must increase"
        );
    }
}
