//! The multi-fidelity hybrid engine: adaptive mean-field ↔ stochastic
//! switching behind the unified [`StepEngine`] trait.
//!
//! [`HybridEngine`] drives a USD run through two backends of very different
//! cost: the [`BatchedEngine`] (event-exact stochastic sampling, cost
//! proportional to the number of productive events) and the
//! [`MeanFieldEngine`] (the deterministic ODE limit, `O(k)` per step
//! *independent of `n`*).  An online [`FidelityController`]
//! (see [`pp_core::hybrid`] for the detector derivation, the hysteresis /
//! minimum-dwell policy, the rounding/conservation scheme and the
//! determinism contract) watches cheap deterministic statistics of the live
//! counts — the drift/√noise ratio of the most fluctuation-exposed
//! category, the minimum live mass and the gap to absorption, computed with
//! [`pp_analysis::fluctuation`] — and switches backends at `advance`
//! boundaries, the same pause points where checkpoints are exact.
//!
//! The detector runs at every `advance` entry, so it is kept cheap: the
//! signal is computed in one allocation-free pass over the counts, and it is
//! not computed at all inside the controller's minimum-dwell window, where
//! the decision cannot change.
//!
//! State transfer between the fidelities goes through the same snapshot
//! vehicle checkpoints use: integer counts become `f64` fractions exactly on
//! promotion, and the mean-field engine's largest-remainder quantization
//! (exact population conservation, deterministic) produces the counts a
//! rebuilt stochastic backend starts from on demotion.
//!
//! Two contracts worth calling out:
//!
//! * **Degeneration** — a hybrid run whose detector never promotes is
//!   *bit-identical* to a pure batched run with the same seed (the initial
//!   stochastic backend is seeded with the engine's own seed; child seeds
//!   are only drawn on rebuilds).
//! * **Resumability** — the controller state and the interaction
//!   bookkeeping ride in checkpoint metadata (`hybrid.*` keys), so a run
//!   restored mid-ODE-phase or across a fidelity switch replays the
//!   identical tail.
//!
//! The price of the speed is distributional: stretches driven at mean-field
//! fidelity have no sampling noise, so hitting-time *variance* is
//! compressed even though the transit itself is only entered when drift
//! dominates that noise.  Use hybrid for large-`n` transit speed at matched
//! outcomes, and a pure stochastic backend when the fluctuation statistics
//! themselves are the measurement (see `tests/hybrid_equivalence.rs`).

use crate::mean_field::MeanFieldEngine;
use crate::protocol::UndecidedStateDynamics;
use pp_analysis::fluctuation::drift_noise_ratio;
use pp_core::checkpoint::{Checkpoint, EngineState};
use pp_core::engine::{Advance, StepEngine, UNIFORM_PAIR_SCHEDULER_NAME};
use pp_core::hybrid::{Fidelity, FidelityConfig, FidelityController, FidelitySignal};
use pp_core::run::MaintenanceStats;
use pp_core::{BatchedEngine, Configuration, MetricsSnapshot, PpError, SimSeed};

/// Engine-level checkpoint metadata keys (the controller writes its own —
/// see [`FidelityController::write_meta`]).
const META_FORMAT: &str = "hybrid.format";
const META_CONSUMED: &str = "hybrid.consumed";
const META_REBUILDS: &str = "hybrid.rebuilds";
const META_SEED: &str = "hybrid.seed";
const META_MF_INTERACTIONS: &str = "hybrid.mean_field_interactions";

/// The hybrid checkpoint layout version stamped into [`META_FORMAT`].
const HYBRID_FORMAT: u64 = 1;

/// The two concrete backends the controller switches between.
#[derive(Debug)]
enum Backend {
    /// Event-exact stochastic sampling.
    Stochastic(BatchedEngine<UndecidedStateDynamics>),
    /// The deterministic fluid limit.
    MeanField(MeanFieldEngine),
}

impl Backend {
    fn fidelity(&self) -> Fidelity {
        match self {
            Backend::Stochastic(_) => Fidelity::Stochastic,
            Backend::MeanField(_) => Fidelity::MeanField,
        }
    }
}

/// A USD step engine that adaptively switches between mean-field and
/// batched stochastic fidelity under an online fluctuation detector.
///
/// # Examples
///
/// ```
/// use usd_core::hybrid::HybridEngine;
/// use pp_core::{Configuration, FidelityConfig, SimSeed, StopCondition};
/// use pp_core::engine::StepEngine;
///
/// let config = Configuration::from_counts(vec![1_500, 300, 200], 0).unwrap();
/// let mut engine = HybridEngine::new(config, SimSeed::from_u64(7), FidelityConfig::default());
/// let result = engine.run_engine(StopCondition::consensus().or_max_interactions(100_000_000));
/// assert!(result.reached_consensus());
/// assert_eq!(result.winner().unwrap().index(), 0);
/// ```
#[derive(Debug)]
pub struct HybridEngine {
    backend: Backend,
    controller: FidelityController,
    seed: SimSeed,
    /// Interactions accumulated by backends retired through fidelity
    /// switches.
    consumed: u64,
    /// Backend rebuilds so far (drives the per-rebuild child-seed
    /// derivation, so stochastic RNG streams never overlap).
    rebuilds: u64,
    /// Interactions driven at mean-field fidelity (for the
    /// `hybrid.mean_field_fraction` gauge).
    mean_field_interactions: u64,
    /// Metrics carried over from retired backends.
    retired: MetricsSnapshot,
}

impl HybridEngine {
    /// Creates a hybrid engine starting at stochastic fidelity.
    ///
    /// # Panics
    ///
    /// Panics when the fidelity thresholds are invalid (see
    /// [`FidelityConfig::validate`]) — validate user-supplied configs at
    /// the boundary and report the message instead.
    #[must_use]
    pub fn new(config: Configuration, seed: SimSeed, fidelity: FidelityConfig) -> Self {
        fidelity
            .validate()
            .unwrap_or_else(|reason| panic!("invalid fidelity config: {reason}"));
        let protocol = UndecidedStateDynamics::new(config.num_opinions());
        HybridEngine {
            // The engine's own seed, not a child: a run the detector never
            // promotes is bit-identical to a pure batched run.
            backend: Backend::Stochastic(BatchedEngine::new(protocol, config, seed)),
            controller: FidelityController::new(fidelity),
            seed,
            consumed: 0,
            rebuilds: 0,
            mean_field_interactions: 0,
            retired: MetricsSnapshot::new(),
        }
    }

    /// The fidelity currently driving the run.
    #[must_use]
    pub fn fidelity(&self) -> Fidelity {
        self.backend.fidelity()
    }

    /// The detector thresholds the run switches under.
    #[must_use]
    pub fn fidelity_config(&self) -> &FidelityConfig {
        self.controller.config()
    }

    /// Fidelity switches performed so far.
    #[must_use]
    pub fn switches(&self) -> u64 {
        self.controller.switches()
    }

    /// The fraction of all interactions so far driven at mean-field
    /// fidelity (0 before the first interaction).
    #[must_use]
    pub fn mean_field_fraction(&self) -> f64 {
        let total = StepEngine::interactions(self);
        if total == 0 {
            0.0
        } else {
            self.mean_field_interactions as f64 / total as f64
        }
    }

    /// The deterministic detector signal at the current counts (consumes no
    /// randomness; see [`pp_core::hybrid`] for the derivation).  Computed
    /// without allocating: one pass over the supports for the mean-field
    /// undecided drift `d_u = Σ a_i(1 − w − a_i) − w(1 − w)`, then one pass
    /// that takes the minimum drift/noise ratio, the minimum live mass and
    /// the largest support, with the undecided pool last.
    #[must_use]
    pub fn signal(&self) -> FidelitySignal {
        let config = self.backend_configuration();
        let n = config.population();
        let population = n as f64;
        let undecided = config.undecided();
        let w = undecided as f64 / population;
        let d_undecided = config
            .supports()
            .iter()
            .map(|&x| {
                let a = x as f64 / population;
                a * (1.0 - w - a)
            })
            .sum::<f64>()
            - w * (1.0 - w);
        // Live categories are the supports plus the undecided pool: any of
        // them can fluctuate against its drift.
        let mut noise_ratio = f64::INFINITY;
        let mut min_live_mass = u64::MAX;
        let mut max_support = 0;
        for &x in config.supports() {
            max_support = max_support.max(x);
            if x > 0 {
                let a = x as f64 / population;
                noise_ratio = noise_ratio.min(drift_noise_ratio(n, x, a * (2.0 * w + a - 1.0)));
                min_live_mass = min_live_mass.min(x);
            }
        }
        if undecided > 0 {
            noise_ratio = noise_ratio.min(drift_noise_ratio(n, undecided, d_undecided));
            min_live_mass = min_live_mass.min(undecided);
        }
        FidelitySignal {
            noise_ratio,
            min_live_mass,
            gap_to_absorption: n - max_support,
            population: n,
        }
    }

    fn backend_configuration(&self) -> &Configuration {
        match &self.backend {
            Backend::Stochastic(e) => StepEngine::configuration(e),
            Backend::MeanField(e) => StepEngine::configuration(e),
        }
    }

    fn backend_interactions(&self) -> u64 {
        match &self.backend {
            Backend::Stochastic(e) => StepEngine::interactions(e),
            Backend::MeanField(e) => StepEngine::interactions(e),
        }
    }

    /// Retires the current backend and rebuilds the other fidelity from the
    /// current counts.  Promotion (→ mean-field) lifts the integer counts
    /// to exact `f64` fractions; demotion (→ stochastic) starts from the
    /// mean-field engine's largest-remainder quantization — both directions
    /// conserve the population exactly and consume no randomness beyond the
    /// deterministic child-seed derivation for the rebuilt sampler.
    fn switch_to(&mut self, fidelity: Fidelity) {
        self.consumed += self.backend_interactions();
        self.rebuilds += 1;
        if let Some(snap) = match &self.backend {
            Backend::Stochastic(e) => e.telemetry(),
            Backend::MeanField(e) => e.telemetry(),
        } {
            self.retired.absorb(&snap);
        }
        let config = self.backend_configuration().clone();
        self.backend = match fidelity {
            Fidelity::MeanField => Backend::MeanField(MeanFieldEngine::new(config)),
            Fidelity::Stochastic => {
                let protocol = UndecidedStateDynamics::new(config.num_opinions());
                // A fresh child stream per rebuild: never reuse the retired
                // sampler's stream, never overlap a future one.
                let seed = self.seed.child(0xF1DE_u64 + self.rebuilds);
                Backend::Stochastic(BatchedEngine::new(protocol, config, seed))
            }
        };
    }

    /// Captures the engine's complete resumable state: the active backend's
    /// snapshot plus the controller state and interaction bookkeeping in
    /// the checkpoint's `meta` section (`hybrid.*` keys).
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        let checkpoint = match &self.backend {
            Backend::Stochastic(e) => Checkpoint::capture(e),
            Backend::MeanField(e) => Checkpoint::capture(e),
        };
        self.controller
            .write_meta(checkpoint)
            .with_meta(META_FORMAT, HYBRID_FORMAT)
            .with_meta(META_CONSUMED, self.consumed)
            .with_meta(META_REBUILDS, self.rebuilds)
            .with_meta(META_SEED, self.seed.value())
            .with_meta(META_MF_INTERACTIONS, self.mean_field_interactions)
    }

    /// Whether a checkpoint was captured from a hybrid engine (and must be
    /// restored through [`HybridEngine::restore`], whatever backend kind
    /// its engine snapshot carries).
    #[must_use]
    pub fn is_hybrid_checkpoint(checkpoint: &Checkpoint) -> bool {
        checkpoint.meta(META_FORMAT).is_some()
    }

    /// Restores an engine from a checkpoint captured by
    /// [`HybridEngine::checkpoint`].  Resuming toward the same stop
    /// condition replays the bit-identical tail — across fidelity switches
    /// and mid-ODE-phase alike, because the active backend's state rides
    /// bit-exactly in the snapshot and the controller state (thresholds,
    /// current fidelity, switch count, last switch point) rides in the
    /// metadata.
    ///
    /// Retired-backend metrics are reporting state and start empty.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the hybrid metadata is missing
    /// or inconsistent with the engine snapshot, or when the backend-level
    /// restore fails validation.
    pub fn restore(checkpoint: &Checkpoint) -> Result<Self, PpError> {
        let fail = |reason: String| PpError::Checkpoint { reason };
        match checkpoint.meta(META_FORMAT) {
            Some(HYBRID_FORMAT) => {}
            Some(v) => {
                return Err(fail(format!(
                    "hybrid checkpoint format {v} is not supported (expected {HYBRID_FORMAT})"
                )))
            }
            None => {
                return Err(fail(
                    "checkpoint carries no hybrid metadata (hybrid.format); it was not \
                     captured from a hybrid engine"
                        .to_string(),
                ))
            }
        }
        let controller = FidelityController::read_meta(checkpoint).ok_or_else(|| {
            fail("hybrid checkpoint is missing fidelity-controller metadata".to_string())
        })?;
        controller.config().validate().map_err(|reason| {
            fail(format!(
                "hybrid checkpoint thresholds are invalid: {reason}"
            ))
        })?;
        let seed = checkpoint
            .meta(META_SEED)
            .ok_or_else(|| fail("hybrid checkpoint is missing hybrid.seed".to_string()))?;
        let backend = match checkpoint.engine() {
            EngineState::Batched(s) => {
                let protocol = UndecidedStateDynamics::new(s.supports.len());
                Backend::Stochastic(BatchedEngine::restore(protocol, checkpoint)?)
            }
            EngineState::MeanField(_) => Backend::MeanField(MeanFieldEngine::restore(checkpoint)?),
            other => {
                return Err(fail(format!(
                    "hybrid checkpoint holds {:?} engine state; only \"batched\" and \
                     \"mean-field\" backends run inside the hybrid engine",
                    other.kind()
                )))
            }
        };
        if backend.fidelity() != controller.current() {
            return Err(fail(format!(
                "hybrid checkpoint metadata says the run is at {} fidelity but the engine \
                 snapshot holds a {:?} backend — the checkpoint is corrupt",
                controller.current(),
                checkpoint.kind()
            )));
        }
        Ok(HybridEngine {
            backend,
            controller,
            seed: SimSeed::from_u64(seed),
            consumed: checkpoint.meta(META_CONSUMED).unwrap_or(0),
            rebuilds: checkpoint.meta(META_REBUILDS).unwrap_or(0),
            mean_field_interactions: checkpoint.meta(META_MF_INTERACTIONS).unwrap_or(0),
            retired: MetricsSnapshot::new(),
        })
    }
}

impl StepEngine for HybridEngine {
    fn configuration(&self) -> &Configuration {
        self.backend_configuration()
    }

    fn interactions(&self) -> u64 {
        self.consumed + self.backend_interactions()
    }

    fn engine_name(&self) -> &'static str {
        "hybrid"
    }

    fn scheduler_name(&self) -> &'static str {
        // Both backends realize (or approximate, for the fluid limit) the
        // uniform ordered-pair scheduler.
        UNIFORM_PAIR_SCHEDULER_NAME
    }

    fn rejection_misses(&self) -> Option<u64> {
        match &self.backend {
            Backend::Stochastic(e) => e.rejection_misses(),
            Backend::MeanField(e) => e.rejection_misses(),
        }
    }

    fn maintenance(&self) -> Option<MaintenanceStats> {
        match &self.backend {
            Backend::Stochastic(e) => e.maintenance(),
            Backend::MeanField(e) => e.maintenance(),
        }
    }

    fn telemetry(&self) -> Option<MetricsSnapshot> {
        let mut snap = self.retired.clone();
        if let Some(current) = match &self.backend {
            Backend::Stochastic(e) => e.telemetry(),
            Backend::MeanField(e) => e.telemetry(),
        } {
            snap.absorb(&current);
        }
        snap.refresh_maintenance_fractions();
        snap.add_counter("hybrid.switches", self.controller.switches());
        snap.set_gauge("hybrid.mean_field_fraction", self.mean_field_fraction());
        Some(snap)
    }

    fn advance(&mut self, limit: u64) -> Advance {
        let total = StepEngine::interactions(self);
        if total >= limit {
            return Advance::LimitReached;
        }
        // Every `advance` entry is a pause boundary: evaluate the detector
        // on the current counts (deterministic, no RNG) and switch the
        // backend if the controller asks for the other fidelity.  Inside the
        // minimum-dwell window the controller keeps the current fidelity
        // whatever the signal, so the signal is not built there.
        let population = self.backend_configuration().population();
        if !self.controller.dwelling(total, population) {
            let desired = self.controller.evaluate(&self.signal(), total);
            if desired != self.backend.fidelity() {
                self.switch_to(desired);
            }
        }
        let before = self.backend_interactions();
        let local_limit = limit.saturating_sub(self.consumed);
        let advance = match &mut self.backend {
            Backend::Stochastic(e) => e.advance(local_limit),
            Backend::MeanField(e) => e.advance(local_limit),
        };
        if matches!(self.backend, Backend::MeanField(_)) {
            self.mean_field_interactions += self.backend_interactions() - before;
        }
        advance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::StopCondition;

    #[test]
    fn biased_run_switches_and_converges_on_the_plurality() {
        let config = Configuration::from_counts(vec![15_000, 3_000, 2_000], 0).unwrap();
        let mut engine =
            HybridEngine::new(config, SimSeed::from_u64(11), FidelityConfig::default());
        assert_eq!(engine.fidelity(), Fidelity::Stochastic);
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(500_000_000));
        assert!(result.reached_consensus());
        assert_eq!(result.winner().unwrap().index(), 0);
        assert!(engine.switches() > 0, "the detector never promoted");
        assert!(
            engine.mean_field_fraction() > 0.0,
            "no interactions ran at mean-field fidelity"
        );
        let snap = engine.telemetry().unwrap();
        assert_eq!(snap.counter("hybrid.switches"), Some(engine.switches()));
        assert!(snap.gauge("hybrid.mean_field_fraction").unwrap() > 0.0);
    }

    #[test]
    fn never_promoting_run_is_bit_identical_to_batched() {
        // Thresholds so high no realizable signal promotes.
        let fidelity = FidelityConfig {
            promote_ratio: 1e18,
            demote_ratio: 1e17,
            ..FidelityConfig::default()
        };
        let config = Configuration::from_counts(vec![900, 300, 300], 0).unwrap();
        let seed = SimSeed::from_u64(23);
        let protocol = UndecidedStateDynamics::new(3);
        let mut batched = BatchedEngine::new(protocol, config.clone(), seed);
        let expected =
            batched.run_engine(StopCondition::consensus().or_max_interactions(50_000_000));
        let mut hybrid = HybridEngine::new(config, seed, fidelity);
        let observed =
            hybrid.run_engine(StopCondition::consensus().or_max_interactions(50_000_000));
        assert_eq!(observed.interactions(), expected.interactions());
        assert_eq!(
            observed.final_configuration(),
            expected.final_configuration()
        );
        assert_eq!(hybrid.switches(), 0);
        assert_eq!(hybrid.mean_field_fraction(), 0.0);
    }

    #[test]
    fn checkpoint_round_trips_across_a_switch() {
        let config = Configuration::from_counts(vec![15_000, 3_000, 2_000], 0).unwrap();
        let stop = StopCondition::consensus().or_max_interactions(500_000_000);
        let mut reference = HybridEngine::new(
            config.clone(),
            SimSeed::from_u64(3),
            FidelityConfig::default(),
        );
        let expected = reference.run_engine(stop);
        assert!(expected.reached_consensus());
        assert!(reference.switches() > 0);

        // Drive a twin to just past the first switch, capture, restore,
        // finish: the tail must be identical.
        let mut twin = HybridEngine::new(config, SimSeed::from_u64(3), FidelityConfig::default());
        while twin.switches() == 0 {
            assert_ne!(twin.advance(500_000_000), Advance::LimitReached);
        }
        let checkpoint = twin.checkpoint();
        assert!(HybridEngine::is_hybrid_checkpoint(&checkpoint));
        let parsed = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
        let mut restored = HybridEngine::restore(&parsed).unwrap();
        assert_eq!(restored.fidelity(), twin.fidelity());
        assert_eq!(
            StepEngine::interactions(&restored),
            StepEngine::interactions(&twin)
        );
        let resumed = restored.run_engine(stop);
        assert_eq!(resumed.interactions(), expected.interactions());
        assert_eq!(
            resumed.final_configuration(),
            expected.final_configuration()
        );
        assert_eq!(restored.switches(), reference.switches());
    }

    #[test]
    fn restore_rejects_foreign_and_corrupt_checkpoints() {
        let config = Configuration::from_counts(vec![600, 400], 0).unwrap();
        let engine = HybridEngine::new(
            config.clone(),
            SimSeed::from_u64(5),
            FidelityConfig::default(),
        );
        // A plain batched checkpoint has no hybrid metadata.
        let protocol = UndecidedStateDynamics::new(2);
        let plain =
            Checkpoint::capture(&BatchedEngine::new(protocol, config, SimSeed::from_u64(5)));
        assert!(!HybridEngine::is_hybrid_checkpoint(&plain));
        let err = HybridEngine::restore(&plain).unwrap_err();
        assert!(
            matches!(&err, PpError::Checkpoint { reason } if reason.contains("hybrid.format")),
            "{err:?}"
        );
        // Fidelity metadata contradicting the snapshot kind is corrupt.
        let lying = engine.checkpoint().with_meta("hybrid.fidelity", 1);
        let err = HybridEngine::restore(&lying).unwrap_err();
        assert!(
            matches!(&err, PpError::Checkpoint { reason } if reason.contains("corrupt")),
            "{err:?}"
        );
    }

    #[test]
    fn population_is_conserved_across_every_switch() {
        let config = Configuration::from_counts(vec![40_000, 6_000, 4_000], 0).unwrap();
        let mut engine = HybridEngine::new(config, SimSeed::from_u64(7), FidelityConfig::default());
        let mut last_switches = 0;
        while let Advance::Event = engine.advance(500_000_000) {
            assert_eq!(engine.configuration().population(), 50_000);
            assert!(engine.configuration().is_consistent());
            if engine.switches() != last_switches {
                last_switches = engine.switches();
            }
            if engine.configuration().is_consensus() {
                break;
            }
        }
        assert!(last_switches > 0, "run never exercised a switch");
    }
}
