//! One module per reproduced paper claim (experiment index E1–E10 in
//! `DESIGN.md`).

pub mod e10_drift_and_coupling;
pub mod e11_undecided_sensitivity;
pub mod e12_mean_field;
pub mod e13_engine_throughput;
pub mod e14_sharded_throughput;
pub mod e15_ensemble_throughput;
pub mod e16_service_throughput;
pub mod e17_hybrid_fidelity;
pub mod e1_phase_table;
pub mod e2_multiplicative_bias;
pub mod e3_additive_bias;
pub mod e4_no_bias;
pub mod e5_undecided_bounds;
pub mod e6_two_opinions;
pub mod e7_gossip_comparison;
pub mod e8_baselines;
pub mod e9_winner_probability;

use crate::report::ExperimentReport;
use pp_core::SimSeed;

/// A timed sample whose seconds [`at_least`] can average.
pub(crate) trait Timed {
    fn seconds_mut(&mut self) -> &mut f64;
}

impl Timed for (u64, f64) {
    fn seconds_mut(&mut self) -> &mut f64 {
        &mut self.1
    }
}

/// Times `run` repeatedly until the repetitions add up to `floor` seconds
/// and returns the first sample with its seconds replaced by the mean per
/// repetition.  Every repetition runs the same seed, so the rest of the
/// sample is the same in each.  The throughput experiments (E13, E15) use
/// it to keep millisecond-scale quick cells from flapping on timer and
/// scheduler noise.
pub(crate) fn at_least<S: Timed>(floor: f64, mut run: impl FnMut() -> S) -> S {
    let mut sample = run();
    let mut total = *sample.seconds_mut();
    let mut repetitions = 1u32;
    while total < floor {
        total += *run().seconds_mut();
        repetitions += 1;
    }
    *sample.seconds_mut() = total / f64::from(repetitions);
    sample
}

/// Common interface implemented by every experiment, used by the
/// `run_experiments` binary.
pub trait Experiment {
    /// The experiment identifier ("E1" … "E10").
    fn id(&self) -> &'static str;

    /// Runs the experiment and produces its report.
    fn run(&self, seed: SimSeed) -> ExperimentReport;
}

/// Instantiates every experiment at the given scale, in index order.
#[must_use]
pub fn all_experiments(scale: crate::Scale) -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(e1_phase_table::PhaseTableExperiment::new(scale)),
        Box::new(e2_multiplicative_bias::MultiplicativeBiasExperiment::new(
            scale,
        )),
        Box::new(e3_additive_bias::AdditiveBiasExperiment::new(scale)),
        Box::new(e4_no_bias::NoBiasExperiment::new(scale)),
        Box::new(e5_undecided_bounds::UndecidedBoundsExperiment::new(scale)),
        Box::new(e6_two_opinions::TwoOpinionExperiment::new(scale)),
        Box::new(e7_gossip_comparison::GossipComparisonExperiment::new(scale)),
        Box::new(e8_baselines::BaselineExperiment::new(scale)),
        Box::new(e9_winner_probability::WinnerProbabilityExperiment::new(
            scale,
        )),
        Box::new(e10_drift_and_coupling::DriftAndCouplingExperiment::new(
            scale,
        )),
        Box::new(e11_undecided_sensitivity::UndecidedSensitivityExperiment::new(scale)),
        Box::new(e12_mean_field::MeanFieldExperiment::new(scale)),
        Box::new(e13_engine_throughput::EngineThroughputExperiment::new(
            scale,
        )),
        Box::new(e14_sharded_throughput::ShardedThroughputExperiment::new(
            scale,
        )),
        Box::new(e15_ensemble_throughput::EnsembleThroughputExperiment::new(
            scale,
        )),
        Box::new(e16_service_throughput::ServiceThroughputExperiment::new(
            scale,
        )),
        Box::new(e17_hybrid_fidelity::HybridFidelityExperiment::new(scale)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_are_registered_in_order() {
        let exps = all_experiments(crate::Scale::Quick);
        let ids: Vec<&str> = exps.iter().map(|e| e.id()).collect();
        assert_eq!(
            ids,
            vec![
                "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13",
                "E14", "E15", "E16", "E17"
            ]
        );
    }
}
