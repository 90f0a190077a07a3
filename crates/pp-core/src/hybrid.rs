//! The multi-fidelity switching policy: an online controller that decides,
//! from cheap deterministic statistics of the live counts, whether a run
//! should currently be driven at **stochastic** fidelity (batched/exact
//! event sampling) or at **mean-field** fidelity (the deterministic ODE
//! limit, `O(k)` per step independent of `n`).
//!
//! This module owns the *policy* — [`FidelityController`], its
//! [`FidelityConfig`] thresholds and the [`FidelitySignal`] it consumes.
//! The concrete engine that acts on the policy (`HybridEngine`) lives in
//! `usd-core`, because switching needs the USD's `MeanFieldEngine` and
//! protocol; the controller itself is protocol-agnostic and fully
//! deterministic.
//!
//! # Detector derivation
//!
//! Let `x = (x₁, …, x_k, u)` be the live counts over a population of `n`
//! agents and `a_i = x_i / n`, `w = u / n` the fractions.  The mean-field
//! ODE gives the *drift* of each category: over one interaction the
//! expected change of category `i` is `d_i / n` agents, where `d_i` is the
//! ODE derivative of `a_i` (for the USD: `ȧ_i = a_i(2w + a_i − 1)`,
//! `ẇ = Σ a_i(1 − w − a_i) − w(1 − w)`).  Over a horizon of `n`
//! interactions (one parallel-time unit) the drift moves category `i` by
//! `≈ n·|d_i|` agents, while the intrinsic sampling fluctuation of a count
//! of size `x_i` is on the scale `√x_i`.  Their quotient
//!
//! ```text
//! ratio_i = n·|d_i| / √max(x_i, 1)
//! ```
//!
//! is the per-category **drift/noise ratio**; the signal's
//! [`noise_ratio`](FidelitySignal::noise_ratio) is the *minimum* over the
//! live categories (supports with `x_i > 0`, plus the undecided pool when
//! non-empty), i.e. the fidelity of the most fluctuation-exposed category.
//! When that minimum is large, every live category is drift-dominated and
//! the deterministic ODE tracks the stochastic process to within its
//! fluctuation band — the run can transit at mean-field speed.  When it is
//! small, random fluctuations shape the outcome (tie-breaking, absorption,
//! near-extinction of a minority) and only stochastic sampling is honest.
//!
//! Two absolute guards complement the ratio, both in units of `√n` (the
//! universal fluctuation scale of a population protocol):
//! [`min_live_mass`](FidelitySignal::min_live_mass) — the smallest live
//! category — must stay above `mass_floor·√n`, because a category of a few
//! agents can die by chance no matter how strong its drift; and
//! [`gap_to_absorption`](FidelitySignal::gap_to_absorption) — `n` minus the
//! largest support — must stay above the same floor, because the endgame
//! coupon-collector stretch near consensus is fluctuation-driven.
//!
//! # Hysteresis and dwell
//!
//! Promotion (stochastic → mean-field) requires the ratio to clear
//! [`promote_ratio`](FidelityConfig::promote_ratio) *and* both mass guards;
//! demotion (mean-field → stochastic) fires as soon as the ratio falls
//! below the lower [`demote_ratio`](FidelityConfig::demote_ratio) or a
//! guard fails.  The band between the two thresholds is the hysteresis
//! that keeps a signal hovering near one threshold from flapping the
//! backend.
//!
//! The default band is deliberately **asymmetric** (promote at 8, demote
//! at 1.5).  Promotion demands a clearly drift-dominated signal.  But the
//! minimum ratio is not monotone along a transit: when a minority opinion
//! crosses its quasi-stationary saddle (`2w + a_i − 1 ≈ 0`) its drift
//! briefly vanishes and the minimum ratio dips, even though the bulk is
//! still far from absorption and the dip's depth grows with `√n` — at
//! large `n` the dip bottoms out well above the demote line, while at
//! small `n` it pierces it and the run honestly falls back to sampling.
//! Setting the demote threshold low therefore lets large-`n` runs ride the
//! ODE through the saddle (this is where the order-of-magnitude speedups
//! come from), and leaves the *endgame* demotion to the absolute mass
//! guards: near absorption the gap guard, not the ratio, hands the run
//! back to stochastic sampling.  On top of the band, a **minimum dwell**
//! ([`FidelityConfig::min_dwell`] interactions, defaulting to `n` — one
//! parallel-time unit) must elapse after a switch before the next one; the
//! very first switch of a run is exempt, so a deeply biased start promotes
//! immediately.  Inside that window the decision cannot change, so
//! [`FidelityController::dwelling`] lets the host skip building the signal
//! at all.
//!
//! # Rounding / conservation scheme
//!
//! Fidelity switches transfer state through the checkpoint snapshot
//! vehicle of [`crate::checkpoint`]:
//!
//! * **stochastic → mean-field** is lossless: the integer counts become
//!   `f64` fractions `x_i / n` exactly (every count up to `2⁵³` is exactly
//!   representable).
//! * **mean-field → stochastic** quantizes the `f64` state back to integer
//!   counts by **largest-remainder rounding** over all `k + 1` categories:
//!   each category takes `⌊n·a_i⌋` and the remaining agents (at most `k`)
//!   go to the categories with the largest fractional parts, ties broken
//!   by category index.  The rounded counts always sum to exactly `n` —
//!   population conservation is exact, never approximate — and the scheme
//!   is a pure function of the `f64` state, so it is deterministic.
//!
//! # Determinism contract
//!
//! The controller consumes **no randomness** and reads only the live
//! counts: two runs with the same seed and thresholds evaluate the same
//! signals at the same pause boundaries and switch at the same
//! interactions.  Both fidelities are single-threaded per run, so hybrid
//! trajectories are bit-identical at every thread count; and because the
//! controller state (current fidelity, switch count, last switch point)
//! rides in the checkpoint metadata, a run resumed mid-ODE-phase or across
//! a switch replays the identical tail — the same contract every other
//! backend honours, pinned by `tests/hybrid_equivalence.rs`.

use crate::checkpoint::Checkpoint;
use std::fmt;

/// Which fidelity the hybrid engine is currently running at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Event-exact stochastic sampling (the batched backend).
    Stochastic,
    /// The deterministic ODE limit (the mean-field backend).
    MeanField,
}

impl Fidelity {
    /// The stable identifier used in telemetry and diagnostics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Fidelity::Stochastic => "stochastic",
            Fidelity::MeanField => "mean-field",
        }
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The deterministic per-evaluation statistics the controller consumes
/// (see the [module docs](self) for the derivation).  Computed from the
/// live counts by the engine that hosts the controller; building one
/// consumes no randomness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelitySignal {
    /// `min_i n·|d_i| / √max(x_i, 1)` over the live categories — the
    /// drift/fluctuation quotient of the most fluctuation-exposed one.
    pub noise_ratio: f64,
    /// The smallest live category mass (supports `> 0`, plus the undecided
    /// pool when non-empty); `u64::MAX` when everything is extinct.
    pub min_live_mass: u64,
    /// `n` minus the largest support — the remaining distance to the
    /// absorbing consensus configuration.
    pub gap_to_absorption: u64,
    /// The population `n` (sets the `√n` fluctuation scale and the default
    /// dwell).
    pub population: u64,
}

/// Detector thresholds for the [`FidelityController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityConfig {
    /// Promote to mean-field when the noise ratio is at least this
    /// (must exceed [`demote_ratio`](FidelityConfig::demote_ratio) — the
    /// gap is the hysteresis band).
    pub promote_ratio: f64,
    /// Demote to stochastic when the noise ratio falls below this.
    pub demote_ratio: f64,
    /// Both mass guards (minimum live mass, gap to absorption) must stay
    /// at or above `mass_floor · √n` for mean-field fidelity.
    pub mass_floor: f64,
    /// Minimum interactions between consecutive switches (the thrash
    /// guard; the first switch of a run is exempt).  `0` means "derive
    /// from the population": one parallel-time unit, `n` interactions.
    pub min_dwell: u64,
}

impl Default for FidelityConfig {
    fn default() -> Self {
        FidelityConfig {
            promote_ratio: 8.0,
            demote_ratio: 1.5,
            mass_floor: 0.25,
            min_dwell: 0,
        }
    }
}

impl FidelityConfig {
    /// Checks the thresholds are usable: finite, positive ratios with
    /// `promote_ratio > demote_ratio` (a non-empty hysteresis band) and a
    /// finite non-negative mass floor.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.promote_ratio.is_finite() && self.promote_ratio > 0.0) {
            return Err(format!(
                "fidelity promote ratio {} must be a positive finite number",
                self.promote_ratio
            ));
        }
        if !(self.demote_ratio.is_finite() && self.demote_ratio > 0.0) {
            return Err(format!(
                "fidelity demote ratio {} must be a positive finite number",
                self.demote_ratio
            ));
        }
        if self.promote_ratio <= self.demote_ratio {
            return Err(format!(
                "fidelity promote ratio {} must exceed the demote ratio {} — the gap between \
                 them is the hysteresis band that prevents backend thrashing",
                self.promote_ratio, self.demote_ratio
            ));
        }
        if !(self.mass_floor.is_finite() && self.mass_floor >= 0.0) {
            return Err(format!(
                "fidelity mass floor {} must be a non-negative finite number",
                self.mass_floor
            ));
        }
        Ok(())
    }

    /// The dwell this config resolves to for a population of `n`:
    /// [`min_dwell`](FidelityConfig::min_dwell), or `n` (one parallel-time
    /// unit) when left at `0`.
    #[must_use]
    pub fn resolved_dwell(&self, population: u64) -> u64 {
        if self.min_dwell == 0 {
            population
        } else {
            self.min_dwell
        }
    }
}

/// Checkpoint metadata keys the controller writes (all values `u64`;
/// `f64` thresholds ride as exact bit patterns).
const META_PROMOTE: &str = "hybrid.promote_ratio_bits";
const META_DEMOTE: &str = "hybrid.demote_ratio_bits";
const META_MASS_FLOOR: &str = "hybrid.mass_floor_bits";
const META_DWELL: &str = "hybrid.min_dwell";
const META_FIDELITY: &str = "hybrid.fidelity";
const META_SWITCHES: &str = "hybrid.switches";
const META_SWITCHED: &str = "hybrid.switched";
const META_LAST_SWITCH: &str = "hybrid.last_switch_at";

/// The online fidelity controller: thresholds plus the current switching
/// state (see the [module docs](self) for the decision rule).
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityController {
    config: FidelityConfig,
    current: Fidelity,
    /// The interaction count of the last switch, `None` before the first.
    last_switch_at: Option<u64>,
    switches: u64,
}

impl FidelityController {
    /// Starts a controller at stochastic fidelity.
    #[must_use]
    pub fn new(config: FidelityConfig) -> Self {
        FidelityController {
            config,
            current: Fidelity::Stochastic,
            last_switch_at: None,
            switches: 0,
        }
    }

    /// The thresholds this controller runs under.
    #[must_use]
    pub fn config(&self) -> &FidelityConfig {
        &self.config
    }

    /// The fidelity the run is currently at.
    #[must_use]
    pub fn current(&self) -> Fidelity {
        self.current
    }

    /// How many fidelity switches have happened so far.
    #[must_use]
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// The pure decision: which fidelity the signal asks for, with
    /// hysteresis relative to the current one (no dwell, no state change).
    #[must_use]
    pub fn desired(&self, signal: &FidelitySignal) -> Fidelity {
        let sqrt_n = (signal.population as f64).sqrt();
        let floor = self.config.mass_floor * sqrt_n;
        let guards_hold =
            (signal.min_live_mass as f64) >= floor && (signal.gap_to_absorption as f64) >= floor;
        match self.current {
            Fidelity::Stochastic => {
                if guards_hold && signal.noise_ratio >= self.config.promote_ratio {
                    Fidelity::MeanField
                } else {
                    Fidelity::Stochastic
                }
            }
            Fidelity::MeanField => {
                if !guards_hold || signal.noise_ratio < self.config.demote_ratio {
                    Fidelity::Stochastic
                } else {
                    Fidelity::MeanField
                }
            }
        }
    }

    /// Whether a pause boundary after `interactions` total interactions (of
    /// a population of `population`) falls inside the minimum-dwell window:
    /// a switch has happened and fewer than
    /// [`resolved_dwell`](FidelityConfig::resolved_dwell) interactions have
    /// elapsed since.  Inside the window
    /// [`evaluate`](FidelityController::evaluate) returns the current
    /// fidelity whatever the signal says, so a host may skip computing the
    /// signal.  Always `false` before the first switch.
    #[must_use]
    pub fn dwelling(&self, interactions: u64, population: u64) -> bool {
        self.last_switch_at.is_some_and(|at| {
            interactions.saturating_sub(at) < self.config.resolved_dwell(population)
        })
    }

    /// Evaluates the signal at a pause boundary reached after
    /// `interactions` total interactions and returns the fidelity to run
    /// at next, applying hysteresis and the minimum-dwell guard (skipped
    /// before the first switch, so a strongly biased start can promote
    /// immediately).
    pub fn evaluate(&mut self, signal: &FidelitySignal, interactions: u64) -> Fidelity {
        if self.dwelling(interactions, signal.population) {
            return self.current;
        }
        let desired = self.desired(signal);
        if desired == self.current {
            return self.current;
        }
        self.current = desired;
        self.last_switch_at = Some(interactions);
        self.switches += 1;
        self.current
    }

    /// Stamps the controller (thresholds + switching state) into a
    /// checkpoint's metadata, so a resumed run continues under the exact
    /// same policy state.
    #[must_use]
    pub fn write_meta(&self, checkpoint: Checkpoint) -> Checkpoint {
        checkpoint
            .with_meta(META_PROMOTE, self.config.promote_ratio.to_bits())
            .with_meta(META_DEMOTE, self.config.demote_ratio.to_bits())
            .with_meta(META_MASS_FLOOR, self.config.mass_floor.to_bits())
            .with_meta(META_DWELL, self.config.min_dwell)
            .with_meta(
                META_FIDELITY,
                match self.current {
                    Fidelity::Stochastic => 0,
                    Fidelity::MeanField => 1,
                },
            )
            .with_meta(META_SWITCHES, self.switches)
            .with_meta(META_SWITCHED, u64::from(self.last_switch_at.is_some()))
            .with_meta(META_LAST_SWITCH, self.last_switch_at.unwrap_or(0))
    }

    /// Rebuilds a controller from checkpoint metadata written by
    /// [`FidelityController::write_meta`]; `None` when the metadata is
    /// absent or incomplete (not a hybrid checkpoint).
    #[must_use]
    pub fn read_meta(checkpoint: &Checkpoint) -> Option<Self> {
        let config = FidelityConfig {
            promote_ratio: f64::from_bits(checkpoint.meta(META_PROMOTE)?),
            demote_ratio: f64::from_bits(checkpoint.meta(META_DEMOTE)?),
            mass_floor: f64::from_bits(checkpoint.meta(META_MASS_FLOOR)?),
            min_dwell: checkpoint.meta(META_DWELL)?,
        };
        let current = match checkpoint.meta(META_FIDELITY)? {
            0 => Fidelity::Stochastic,
            _ => Fidelity::MeanField,
        };
        let last_switch_at = if checkpoint.meta(META_SWITCHED)? == 0 {
            None
        } else {
            Some(checkpoint.meta(META_LAST_SWITCH)?)
        };
        Some(FidelityController {
            config,
            current,
            last_switch_at,
            switches: checkpoint.meta(META_SWITCHES)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{EngineSnapshot, EngineState};

    fn signal(noise_ratio: f64, min_mass: u64, gap: u64, n: u64) -> FidelitySignal {
        FidelitySignal {
            noise_ratio,
            min_live_mass: min_mass,
            gap_to_absorption: gap,
            population: n,
        }
    }

    #[test]
    fn default_config_validates_and_resolves_dwell() {
        let config = FidelityConfig::default();
        config.validate().unwrap();
        assert_eq!(config.resolved_dwell(50_000), 50_000);
        let fixed = FidelityConfig {
            min_dwell: 7,
            ..config
        };
        assert_eq!(fixed.resolved_dwell(50_000), 7);
    }

    #[test]
    fn invalid_configs_are_named() {
        let bad_band = FidelityConfig {
            promote_ratio: 3.0,
            demote_ratio: 3.0,
            ..FidelityConfig::default()
        };
        assert!(bad_band.validate().unwrap_err().contains("hysteresis"));
        let bad_floor = FidelityConfig {
            mass_floor: f64::NAN,
            ..FidelityConfig::default()
        };
        assert!(bad_floor.validate().is_err());
        let bad_ratio = FidelityConfig {
            promote_ratio: 0.0,
            ..FidelityConfig::default()
        };
        assert!(bad_ratio.validate().is_err());
    }

    #[test]
    fn promotion_requires_ratio_and_both_guards() {
        // n = 1_000_000 → √n = 1000, floor = 0.25·√n = 250 agents.
        let mut ctl = FidelityController::new(FidelityConfig::default());
        assert_eq!(ctl.current(), Fidelity::Stochastic);
        // Strong drift but a guard fails: stay stochastic.
        assert_eq!(
            ctl.evaluate(&signal(100.0, 100, 500_000, 1_000_000), 0),
            Fidelity::Stochastic
        );
        assert_eq!(
            ctl.evaluate(&signal(100.0, 500_000, 100, 1_000_000), 0),
            Fidelity::Stochastic
        );
        // Ratio below the promote threshold: stay stochastic.
        assert_eq!(
            ctl.evaluate(&signal(7.9, 500_000, 500_000, 1_000_000), 0),
            Fidelity::Stochastic
        );
        // Everything clears: promote (first switch needs no dwell).
        assert_eq!(
            ctl.evaluate(&signal(8.0, 500_000, 500_000, 1_000_000), 0),
            Fidelity::MeanField
        );
        assert_eq!(ctl.switches(), 1);
    }

    #[test]
    fn hysteresis_band_prevents_flapping() {
        let mut ctl = FidelityController::new(FidelityConfig {
            min_dwell: 1,
            ..FidelityConfig::default()
        });
        let n = 1_000_000;
        assert_eq!(
            ctl.evaluate(&signal(10.0, 500_000, 500_000, n), 0),
            Fidelity::MeanField
        );
        // Inside the band (demote 1.5 ≤ ratio < promote 8): hold mean-field.
        assert_eq!(
            ctl.evaluate(&signal(5.0, 500_000, 500_000, n), 10),
            Fidelity::MeanField
        );
        // Below the demote threshold: drop back.
        assert_eq!(
            ctl.evaluate(&signal(1.4, 500_000, 500_000, n), 20),
            Fidelity::Stochastic
        );
        // Back inside the band: hold stochastic (promotion needs ≥ 8).
        assert_eq!(
            ctl.evaluate(&signal(5.0, 500_000, 500_000, n), 30),
            Fidelity::Stochastic
        );
        assert_eq!(ctl.switches(), 2);
    }

    #[test]
    fn dwell_guard_defers_the_second_switch() {
        let mut ctl = FidelityController::new(FidelityConfig::default()); // dwell = n
        let n = 1_000;
        assert_eq!(
            ctl.evaluate(&signal(100.0, 400, 600, n), 50),
            Fidelity::MeanField
        );
        // A demote-worthy signal arrives before the dwell elapses: held.
        assert_eq!(
            ctl.evaluate(&signal(0.1, 400, 600, n), 500),
            Fidelity::MeanField
        );
        // After the dwell it goes through.
        assert_eq!(
            ctl.evaluate(&signal(0.1, 400, 600, n), 1_050),
            Fidelity::Stochastic
        );
        assert_eq!(ctl.switches(), 2);
    }

    #[test]
    fn meta_round_trips_the_full_controller_state() {
        let mut ctl = FidelityController::new(FidelityConfig {
            promote_ratio: 6.5,
            demote_ratio: 2.25,
            mass_floor: 3.5,
            min_dwell: 1234,
        });
        ctl.evaluate(&signal(100.0, 400, 600, 1_000), 77);
        let ckpt = Checkpoint::new(EngineState::Exact(EngineSnapshot {
            supports: vec![1, 2],
            undecided: 0,
            interactions: 0,
            rng: [0; 4],
            counters: Vec::new(),
        }));
        let stamped = ctl.write_meta(ckpt.clone());
        assert_eq!(FidelityController::read_meta(&stamped), Some(ctl));
        // A checkpoint without the metadata is not a hybrid checkpoint.
        assert_eq!(FidelityController::read_meta(&ckpt), None);
    }
}
