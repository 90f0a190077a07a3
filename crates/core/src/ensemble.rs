//! The replica ensemble specialized to the USD.
//!
//! [`UsdEnsemble`] wraps `pp_core::ensemble::EnsembleEngine` over batched
//! USD replicas: `R` independent copies of one initial configuration, each
//! a task on the shared task pool, with every replica bit-identical to a
//! standalone [`crate::UsdSimulator`] run on the batched backend with seed
//! `master.child(i)`.

use crate::protocol::UndecidedStateDynamics;
use pp_core::checkpoint::{Checkpoint, EngineState};
use pp_core::ensemble::{EnsembleChoice, EnsembleEngine, EnsembleRunResult};
use pp_core::{BatchedEngine, Configuration, PpError, SimSeed, StopCondition};

/// An ensemble of batched USD replicas (see [`crate::UsdSimulator`]
/// for single runs; construct through [`UsdEnsemble::try_new`] or
/// [`crate::UsdSimulator::ensemble`]).
///
/// # Examples
///
/// ```
/// use pp_core::ensemble::EnsembleChoice;
/// use pp_core::{Configuration, SimSeed, StopCondition};
/// use usd_core::UsdEnsemble;
///
/// let config = Configuration::from_counts(vec![900, 100], 0).unwrap();
/// let mut ensemble =
///     UsdEnsemble::try_new(config, SimSeed::from_u64(7), EnsembleChoice::new(8)).unwrap();
/// let outcome = ensemble.run(StopCondition::consensus().or_max_interactions(50_000_000));
/// assert!(outcome.all_reached_goal());
/// ```
#[derive(Debug)]
pub struct UsdEnsemble {
    inner: EnsembleEngine<BatchedEngine<UndecidedStateDynamics>>,
    choice: EnsembleChoice,
}

impl UsdEnsemble {
    /// Builds `choice.replicas()` batched USD replicas of `config`, seeded
    /// `master.child(i)` (the convention the bit-exactness guarantee is
    /// stated against).
    ///
    /// # Errors
    ///
    /// Returns [`PpError::UnsupportedEngine`] when `choice` selects a
    /// non-batched base backend (`exact-inside-ensemble`,
    /// `sharded-inside-ensemble`, `mean-field-inside-ensemble`).
    pub fn try_new(
        config: Configuration,
        master: SimSeed,
        choice: EnsembleChoice,
    ) -> Result<Self, PpError> {
        choice.validate()?;
        let protocol = UndecidedStateDynamics::new(config.num_opinions());
        let replicas = choice
            .seeds(master)
            .into_iter()
            .map(|seed| BatchedEngine::try_new(protocol, config.clone(), seed))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(UsdEnsemble {
            inner: EnsembleEngine::try_new(replicas)?.with_parallelism(choice.parallelism()),
            choice,
        })
    }

    /// Overrides the worker-thread knob (normally carried by the
    /// [`EnsembleChoice`] this ensemble was built from).  Never affects
    /// results, only wall-clock.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: pp_core::Parallelism) -> Self {
        self.inner = self.inner.with_parallelism(parallelism);
        self
    }

    /// The ensemble selector this engine was built from.
    #[must_use]
    pub fn choice(&self) -> EnsembleChoice {
        self.choice
    }

    /// Number of replicas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the ensemble holds no replicas (construction rejects this).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Attaches a telemetry handle (call spans, worker tracks, `ensemble.*`
    /// counters — see `pp_core::ensemble::EnsembleEngine::set_telemetry`).
    /// Never affects results.
    pub fn set_telemetry(&mut self, tel: pp_core::Telemetry) {
        self.inner.set_telemetry(tel);
    }

    /// Runs every replica until the stop condition is met (per-replica
    /// results identical to standalone batched runs).
    ///
    /// # Panics
    ///
    /// Panics if the stop condition is unbounded.
    pub fn run(&mut self, stop: StopCondition) -> EnsembleRunResult {
        self.inner.run(stop)
    }

    /// Runs like [`UsdEnsemble::run`] with one [`pp_core::Recorder`] per
    /// replica: recorder `i` sees replica `i`'s initial configuration and
    /// every state-changing event, exactly the stream a standalone
    /// [`crate::UsdSimulator::run_recorded`] on the batched backend with
    /// seed `master.child(i)` would see.
    ///
    /// # Panics
    ///
    /// Panics if `recorders.len() != self.len()` or the stop condition is
    /// unbounded.
    pub fn run_recorded<R: pp_core::Recorder + Send>(
        &mut self,
        stop: StopCondition,
        recorders: &mut [R],
    ) -> EnsembleRunResult {
        self.inner.run_recorded(stop, recorders)
    }

    /// Runs every replica to consensus (or until the safety budget is
    /// exhausted).
    pub fn run_to_consensus(&mut self, max_interactions: u64) -> EnsembleRunResult {
        self.run(StopCondition::consensus().or_max_interactions(max_interactions))
    }

    /// Runs at most `max_windows` windows toward the stop condition: each
    /// replica advances at most `256 × max_windows` events, in one fork
    /// over the replicas.  `None` means some replica has not met its stop
    /// with a window to spare — the pause point [`UsdEnsemble::capture`]
    /// snapshots at; resume (here or in a restored ensemble) by calling
    /// again **with the same `stop`** (see
    /// `pp_core::ensemble::EnsembleEngine::run_windows`).
    ///
    /// # Panics
    ///
    /// Panics if the stop condition is unbounded.
    pub fn run_windows(
        &mut self,
        stop: StopCondition,
        max_windows: u64,
    ) -> Option<EnsembleRunResult> {
        self.inner.run_windows(stop, max_windows)
    }

    /// Captures every replica's resumable state as a [`Checkpoint`].  Call
    /// only at a pause point — between [`UsdEnsemble::run_windows`] calls
    /// (see [`pp_core::checkpoint`] for the bit-exactness rules).
    #[must_use]
    pub fn capture(&self) -> Checkpoint {
        Checkpoint::capture(&self.inner)
    }

    /// Restores an ensemble from a checkpoint captured by
    /// [`UsdEnsemble::capture`].  `choice` supplies the run-time knobs the
    /// checkpoint deliberately omits (worker parallelism — wall-clock
    /// only); its replica count must match the captured state.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the checkpoint holds a
    /// non-ensemble engine state or its replica count disagrees with
    /// `choice`, and propagates `choice` validation and replica-restore
    /// errors.
    pub fn restore(checkpoint: &Checkpoint, choice: EnsembleChoice) -> Result<Self, PpError> {
        choice.validate()?;
        let EngineState::Ensemble(snapshot) = checkpoint.engine() else {
            return Err(PpError::Checkpoint {
                reason: format!(
                    "checkpoint holds {:?} engine state, expected \"ensemble\"",
                    checkpoint.kind()
                ),
            });
        };
        if snapshot.replicas.len() != choice.replicas() {
            return Err(PpError::Checkpoint {
                reason: format!(
                    "checkpoint holds {} replicas but the ensemble choice requests {}",
                    snapshot.replicas.len(),
                    choice.replicas()
                ),
            });
        }
        let k = snapshot
            .replicas
            .first()
            .map(|r| r.supports.len())
            .unwrap_or(0);
        let protocol = UndecidedStateDynamics::new(k);
        let inner =
            EnsembleEngine::restore(&protocol, checkpoint)?.with_parallelism(choice.parallelism());
        Ok(UsdEnsemble { inner, choice })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UsdSimulator;
    use pp_core::{EngineChoice, StepEngine};

    #[test]
    fn replicas_match_standalone_batched_usd_runs() {
        let config = Configuration::from_counts(vec![700, 200, 100], 0).unwrap();
        let master = SimSeed::from_u64(31);
        let mut ensemble =
            UsdEnsemble::try_new(config.clone(), master, EnsembleChoice::new(5)).unwrap();
        let outcome = ensemble.run_to_consensus(100_000_000);
        assert!(outcome.all_reached_goal());
        for (i, seed) in EnsembleChoice::new(5).seeds(master).into_iter().enumerate() {
            let protocol = UndecidedStateDynamics::new(3);
            let mut standalone = BatchedEngine::new(protocol, config.clone(), seed);
            let expected =
                standalone.run_engine(StopCondition::consensus().or_max_interactions(100_000_000));
            assert_eq!(outcome.replica(i), &expected, "replica {i} diverged");
        }
    }

    #[test]
    fn non_batched_bases_are_rejected_with_diagnostics() {
        let config = Configuration::from_counts(vec![60, 40], 0).unwrap();
        for (base, name) in [
            (EngineChoice::Exact, "exact-inside-ensemble"),
            (EngineChoice::Sharded, "sharded-inside-ensemble"),
            (EngineChoice::MeanField, "mean-field-inside-ensemble"),
        ] {
            let err = UsdEnsemble::try_new(
                config.clone(),
                SimSeed::from_u64(1),
                EnsembleChoice::new(2).with_base(base),
            )
            .unwrap_err();
            assert_eq!(err, PpError::UnsupportedEngine { requested: name });
        }
    }

    #[test]
    fn per_replica_recorders_observe_standalone_streams() {
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        struct Log(Vec<(u64, u64)>);
        impl pp_core::Recorder for Log {
            fn record(&mut self, interactions: u64, config: &Configuration) {
                self.0.push((interactions, config.undecided()));
            }
        }
        let config = Configuration::from_counts(vec![400, 100], 0).unwrap();
        let master = SimSeed::from_u64(17);
        let stop = StopCondition::consensus().or_max_interactions(50_000_000);
        let mut ensemble =
            UsdEnsemble::try_new(config.clone(), master, EnsembleChoice::new(4)).unwrap();
        let mut recorders = vec![Log::default(); 4];
        ensemble.run_recorded(stop, &mut recorders);
        for (i, seed) in EnsembleChoice::new(4).seeds(master).into_iter().enumerate() {
            let protocol = UndecidedStateDynamics::new(2);
            let mut expected = Log::default();
            BatchedEngine::new(protocol, config.clone(), seed)
                .run_engine_recorded(stop, &mut expected);
            assert_eq!(recorders[i], expected, "replica {i} stream diverged");
        }
    }

    #[test]
    fn paused_ensembles_restore_to_bit_identical_outcomes() {
        let config = Configuration::from_counts(vec![700, 200, 100], 0).unwrap();
        let master = SimSeed::from_u64(31);
        let stop = StopCondition::consensus().or_max_interactions(100_000_000);
        let mut reference =
            UsdEnsemble::try_new(config.clone(), master, EnsembleChoice::new(5)).unwrap();
        let expected = reference.run(stop);
        let mut paused = UsdEnsemble::try_new(config, master, EnsembleChoice::new(5)).unwrap();
        assert!(paused.run_windows(stop, 2).is_none());
        let json = paused.capture().to_json();
        let checkpoint = Checkpoint::from_json(&json).unwrap();
        // A replica-count mismatch is rejected by name.
        let err = UsdEnsemble::restore(&checkpoint, EnsembleChoice::new(4)).unwrap_err();
        assert!(
            matches!(&err, PpError::Checkpoint { reason } if reason.contains("5")),
            "{err:?}"
        );
        let mut restored = UsdEnsemble::restore(&checkpoint, EnsembleChoice::new(5)).unwrap();
        let outcome = restored
            .run_windows(stop, u64::MAX)
            .expect("unbounded window budget always finishes");
        assert_eq!(outcome.results(), expected.results());
    }

    #[test]
    fn simulator_entry_point_builds_the_ensemble() {
        let config = Configuration::from_counts(vec![90, 10], 0).unwrap();
        let mut ensemble =
            UsdSimulator::ensemble(config, SimSeed::from_u64(2), EnsembleChoice::new(3)).unwrap();
        assert_eq!(ensemble.len(), 3);
        assert!(!ensemble.is_empty());
        assert_eq!(ensemble.choice().replicas(), 3);
        let outcome = ensemble.run_to_consensus(10_000_000);
        assert_eq!(outcome.len(), 3);
    }
}
