//! Oracles for the per-event hot paths of the batched and hybrid engines.
//!
//! * The batched engine's category transition table must equal `respond`
//!   on every category pair, for every shipped protocol.
//! * `HybridEngine::signal` is computed without allocating; it must equal,
//!   bit for bit, the `Vec`-based computation kept here as the reference
//!   (mean-field derivative vectors plus the `pp_analysis::fluctuation`
//!   helpers over the masses with the undecided pool appended).
//! * Inside the controller's minimum-dwell window `evaluate` must return
//!   the current fidelity for any signal — the property that lets the
//!   hybrid engine skip building the signal there.

use k_opinion_usd::analysis::fluctuation::{
    gap_to_absorption, min_drift_noise_ratio, min_live_mass,
};
use k_opinion_usd::core::engine::{check_transition_table, transition_table};
use k_opinion_usd::core::{
    AgentState, Configuration, FidelityConfig, FidelityController, FidelitySignal, OpinionProtocol,
    SimSeed,
};
use k_opinion_usd::dynamics::PairwiseVoter;
use k_opinion_usd::usd::{HybridEngine, MeanFieldState, UndecidedStateDynamics};
use proptest::prelude::*;

fn assert_table_matches_respond<P: OpinionProtocol>(protocol: &P) {
    let k = protocol.num_opinions();
    let table = transition_table(protocol).expect("shipped protocols opt into the table");
    assert_eq!(table.len(), (k + 1) * (k + 1));
    for r in 0..=k {
        for i in 0..=k {
            let next = protocol.respond(
                AgentState::from_category(r, k),
                AgentState::from_category(i, k),
            );
            assert_eq!(
                table[r * (k + 1) + i] as usize,
                next.category(k),
                "{} at k = {k}: pair ({r}, {i})",
                protocol.name()
            );
        }
    }
    assert_eq!(check_transition_table(protocol, &table), Ok(()));
}

#[test]
fn transition_tables_equal_respond_for_the_shipped_protocols() {
    for k in 1..=8 {
        assert_table_matches_respond(&UndecidedStateDynamics::new(k));
        assert_table_matches_respond(&PairwiseVoter::new(k));
    }
}

#[test]
fn check_transition_table_names_a_tampered_entry() {
    let protocol = UndecidedStateDynamics::new(3);
    let mut table = transition_table(&protocol).unwrap();
    // Decided(0) meeting Decided(1) goes undecided (category 3), not to 2.
    table[1] = 2;
    let err = check_transition_table(&protocol, &table).unwrap_err();
    assert!(err.contains("(0, 1)"), "{err}");
    assert!(check_transition_table(&protocol, &table[1..]).is_err());
}

/// The detector signal as the hybrid engine computed it before the
/// allocation-free pass: derivative vectors, masses with the undecided pool
/// appended, and the `pp_analysis::fluctuation` reductions over them.
fn reference_signal(config: &Configuration) -> FidelitySignal {
    let n = config.population();
    let d = MeanFieldState::from_configuration(config).derivative();
    let mut masses = config.supports().to_vec();
    masses.push(config.undecided());
    let mut drifts = d.d_fractions;
    drifts.push(d.d_undecided);
    FidelitySignal {
        noise_ratio: min_drift_noise_ratio(n, &masses, &drifts),
        min_live_mass: min_live_mass(&masses),
        gap_to_absorption: gap_to_absorption(n, config.supports()),
        population: n,
    }
}

fn assert_signal_matches_reference(supports: Vec<u64>, undecided: u64) {
    let config = Configuration::from_counts(supports, undecided).unwrap();
    let expected = reference_signal(&config);
    let engine = HybridEngine::new(
        config.clone(),
        SimSeed::from_u64(1),
        FidelityConfig::default(),
    );
    let observed = engine.signal();
    assert_eq!(
        observed.noise_ratio.to_bits(),
        expected.noise_ratio.to_bits(),
        "noise ratio at {config}: {} vs {}",
        observed.noise_ratio,
        expected.noise_ratio
    );
    assert_eq!(observed.min_live_mass, expected.min_live_mass, "{config}");
    assert_eq!(
        observed.gap_to_absorption, expected.gap_to_absorption,
        "{config}"
    );
    assert_eq!(observed.population, expected.population, "{config}");
}

#[test]
fn signal_matches_the_reference_at_the_edges() {
    // All undecided (every support extinct), u = 0, consensus, consensus
    // with undecided agents left, a single opinion, and n = 10⁹.
    assert_signal_matches_reference(vec![0, 0, 0], 1_000);
    assert_signal_matches_reference(vec![600, 300, 100], 0);
    assert_signal_matches_reference(vec![0, 5_000, 0], 0);
    assert_signal_matches_reference(vec![0, 4_000, 0], 1_000);
    assert_signal_matches_reference(vec![7], 3);
    assert_signal_matches_reference(vec![400_000_000, 350_000_000, 0, 150_000_000], 100_000_000);
    assert_signal_matches_reference(vec![1_000_000_000, 0], 0);
}

/// Magnitudes spread over many decades, with a one-in-four chance of an
/// extinct category.
fn count(raw: u64, decades: u32, extinct: u8) -> u64 {
    if extinct == 0 {
        0
    } else {
        raw % 10u64.pow(decades)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn signal_is_bit_identical_to_the_vec_based_reference(
        supports in proptest::collection::vec((0u64..111_111_111, 1u32..10, 0u8..4), 1..9),
        undecided in (0u64..111_111_111, 1u32..10, 0u8..4),
    ) {
        let supports: Vec<u64> = supports.into_iter().map(|(r, d, e)| count(r, d, e)).collect();
        let undecided = count(undecided.0, undecided.1, undecided.2);
        prop_assume!(supports.iter().sum::<u64>() + undecided > 0);
        assert_signal_matches_reference(supports, undecided);
    }

    #[test]
    fn evaluate_holds_the_current_fidelity_while_dwelling(
        dwell in 0u64..5_000,
        population in 1u64..1_000_000,
        steps in proptest::collection::vec((0f64..20.0, 0u64..2_000_000, 0u64..2_000_000, 0u64..3_000), 1..40),
    ) {
        let mut ctl = FidelityController::new(FidelityConfig {
            min_dwell: dwell,
            ..FidelityConfig::default()
        });
        let mut interactions = 0u64;
        for (ratio, mass, gap, elapsed) in steps {
            interactions += elapsed;
            let signal = FidelitySignal {
                noise_ratio: ratio,
                min_live_mass: mass,
                gap_to_absorption: gap,
                population,
            };
            if ctl.switches() == 0 {
                prop_assert!(!ctl.dwelling(interactions, population));
            }
            if ctl.dwelling(interactions, population) {
                let before = ctl.clone();
                let current = ctl.current();
                prop_assert_eq!(ctl.evaluate(&signal, interactions), current);
                prop_assert_eq!(&ctl, &before);
            } else {
                ctl.evaluate(&signal, interactions);
            }
        }
    }
}
