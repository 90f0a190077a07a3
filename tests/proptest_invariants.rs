//! Property-based tests of the core invariants, spanning the workload
//! generators, the configuration algebra, the USD protocol and the coupling.

use k_opinion_usd::dynamics::PairwiseVoter;
use k_opinion_usd::prelude::*;
use pp_core::{AgentState, Configuration, OpinionProtocol, StopCondition, TraceRecorder};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The USD never invents opinions: running from any configuration can only
    /// shrink the set of opinions with non-zero support.
    #[test]
    fn usd_never_creates_new_opinions(
        counts in proptest::collection::vec(0u64..50, 2..6),
        undecided in 0u64..50,
        steps in 1u64..2_000,
        seed in 0u64..1_000,
    ) {
        prop_assume!(counts.iter().sum::<u64>() + undecided > 0);
        let config = Configuration::from_counts(counts.clone(), undecided).unwrap();
        let live_before: Vec<bool> = counts.iter().map(|&c| c > 0).collect();
        let mut sim = UsdSimulator::new(config, SimSeed::from_u64(seed));
        for _ in 0..steps {
            sim.step();
        }
        for (i, &was_live) in live_before.iter().enumerate() {
            if !was_live {
                prop_assert_eq!(sim.configuration().support(i), 0,
                    "opinion {} appeared out of nowhere", i);
            }
        }
        prop_assert!(sim.configuration().is_consistent());
        prop_assert_eq!(sim.configuration().population(), counts.iter().sum::<u64>() + undecided);
    }

    /// The USD transition function is exactly the paper's table for arbitrary
    /// state pairs.
    #[test]
    fn usd_transition_matches_paper_table(k in 1usize..12, r in 0usize..13, i in 0usize..13) {
        let usd = UndecidedStateDynamics::new(k);
        let to_state = |idx: usize| if idx >= k { AgentState::Undecided } else { AgentState::decided(idx) };
        let responder = to_state(r.min(k));
        let initiator = to_state(i.min(k));
        let out = usd.respond(responder, initiator);
        let expected = match (responder, initiator) {
            (AgentState::Decided(a), AgentState::Decided(b)) if a != b => AgentState::Undecided,
            (AgentState::Undecided, AgentState::Decided(b)) => AgentState::Decided(b),
            _ => responder,
        };
        prop_assert_eq!(out, expected);
    }

    /// Workload builders always produce configurations with the requested
    /// population, opinion count and (when applicable) bias direction.
    #[test]
    fn workload_builder_invariants(
        n in 50u64..5_000,
        k in 2usize..10,
        bias_mult in 0.0f64..3.0,
        undecided_frac in 0.0f64..0.5,
        seed in 0u64..500,
    ) {
        let config = InitialConfig::new(n, k)
            .additive_bias_in_sqrt_n_log_n(bias_mult)
            .undecided_fraction(undecided_frac)
            .build(SimSeed::from_u64(seed))
            .unwrap();
        prop_assert_eq!(config.population(), n);
        prop_assert_eq!(config.num_opinions(), k);
        prop_assert!(config.is_consistent());
        // Opinion 0 is always a (possibly tied) plurality for these builders.
        prop_assert_eq!(config.max_opinion().index(), 0);
        let expected_u = (n as f64 * undecided_frac).round() as u64;
        prop_assert!(config.undecided().abs_diff(expected_u) <= k as u64 + 1);
    }

    /// The multiplicative-bias generator respects the requested factor.
    #[test]
    fn multiplicative_bias_generator_respects_factor(
        n in 500u64..20_000,
        k in 2usize..12,
        factor in 1.05f64..5.0,
    ) {
        let config = pp_workloads::with_multiplicative_bias(n, k, factor).unwrap();
        prop_assert_eq!(config.population(), n);
        let measured = config.multiplicative_bias().unwrap();
        prop_assert!(measured >= factor * 0.98,
            "requested factor {} but measured {}", factor, measured);
    }

    /// Configuration::apply_move conserves the population and round-trips
    /// through the explicit agent-state representation.
    #[test]
    fn configuration_moves_and_round_trips(
        counts in proptest::collection::vec(0u64..30, 1..6),
        undecided in 0u64..30,
        moves in proptest::collection::vec((0usize..7, 0usize..7), 0..40),
    ) {
        prop_assume!(counts.iter().sum::<u64>() + undecided > 0);
        let k = counts.len();
        let mut config = Configuration::from_counts(counts, undecided).unwrap();
        let population = config.population();
        for (from, to) in moves {
            let from_state = if from >= k { AgentState::Undecided } else { AgentState::decided(from) };
            let to_state = if to >= k { AgentState::Undecided } else { AgentState::decided(to) };
            // Ignore invalid moves; valid ones must preserve the population.
            let _ = config.apply_move(from_state, to_state);
            prop_assert_eq!(config.population(), population);
            prop_assert!(config.is_consistent());
        }
        let rebuilt = Configuration::from_states(&config.to_states(), k).unwrap();
        prop_assert_eq!(rebuilt, config);
    }

    /// The Lemma 17 coupling never violates majorization, from any starting
    /// configuration (not only the Phase 5 precondition).
    #[test]
    fn coupling_invariant_holds_from_arbitrary_starts(
        counts in proptest::collection::vec(1u64..40, 2..5),
        undecided in 0u64..40,
        steps in 1u64..3_000,
        seed in 0u64..300,
    ) {
        let config = Configuration::from_counts(counts, undecided).unwrap();
        let mut coupled = CoupledUsd::new(&config, SimSeed::from_u64(seed));
        for _ in 0..steps {
            prop_assert!(coupled.step(), "majorization violated at step {}", coupled.interactions());
        }
        prop_assert_eq!(coupled.k_configuration().population(), config.population());
        prop_assert_eq!(coupled.two_configuration().population(), config.population());
    }

    /// Small biased instances settle on the plurality often enough to be
    /// consistent with the w.h.p. statement (sanity, not a sharp bound).
    #[test]
    fn strongly_biased_small_runs_settle(
        seed in 0u64..30,
    ) {
        let config = Configuration::from_counts(vec![300, 50, 50], 0).unwrap();
        let mut sim = UsdSimulator::new(config, SimSeed::from_u64(seed));
        let result = sim.run_to_settlement(20_000_000);
        prop_assert!(result.opinion_settled());
    }

    /// Stop conditions behave monotonically: a run that stops at settlement
    /// never uses more interactions than one that stops at consensus.
    #[test]
    fn settlement_never_slower_than_consensus(seed in 0u64..40) {
        let config = Configuration::from_counts(vec![120, 60, 20], 0).unwrap();
        let mut a = UsdSimulator::new(config.clone(), SimSeed::from_u64(seed));
        let mut b = UsdSimulator::new(config, SimSeed::from_u64(seed));
        let settled = a.run_to_settlement(50_000_000);
        let consensus = b.run_to_consensus(50_000_000);
        prop_assert!(settled.interactions() <= consensus.interactions());
    }

    /// Goal soundness of the batched engine's legs: a leg stops after any
    /// event that empties its source category, which is the only kind of
    /// event that can reach consensus or settle a run, so a leg-driven run
    /// stops at the first configuration meeting its goal.  Every event of
    /// the run is recorded; none before the last may meet the run's goal,
    /// consensus or opinion-settled.
    #[test]
    fn leg_driven_runs_stop_at_the_first_configuration_meeting_the_goal(
        k_index in 0usize..3,
        voter in 0u8..2,
        settled in 0u8..2,
        counts in proptest::collection::vec(0u64..20, 8..9),
        undecided in 0u64..40,
        seed in 0u64..1_000,
    ) {
        let k = [2, 3, 8][k_index];
        let counts = counts[..k].to_vec();
        prop_assume!(counts.iter().sum::<u64>() + undecided > 0);
        let config = Configuration::from_counts(counts, undecided).unwrap();
        let goal = if settled == 1 {
            StopCondition::opinion_settled()
        } else {
            StopCondition::consensus()
        };
        let stop = goal.or_max_interactions(50_000_000);
        let seed = SimSeed::from_u64(seed);
        let mut recorder = TraceRecorder::every(1);
        let result = if voter == 1 {
            BatchedEngine::new(PairwiseVoter::new(k), config, seed)
                .run_engine_recorded(stop, &mut recorder)
        } else {
            BatchedEngine::new(UndecidedStateDynamics::new(k), config, seed)
                .run_engine_recorded(stop, &mut recorder)
        };
        let snapshots = recorder.into_snapshots();
        let (last, before) = snapshots.split_last().unwrap();
        prop_assert_eq!(&last.configuration, result.final_configuration());
        for snapshot in before {
            prop_assert!(
                !goal.goal_met(&snapshot.configuration),
                "{} met the goal at {} interactions, before the run stopped at {}",
                snapshot.configuration,
                snapshot.interactions,
                last.interactions
            );
        }
    }

    /// The gossip engine preserves the population for any protocol round.
    #[test]
    fn gossip_rounds_preserve_population(
        counts in proptest::collection::vec(1u64..60, 2..5),
        rounds in 1u64..20,
        seed in 0u64..200,
    ) {
        let config = Configuration::from_counts(counts, 0).unwrap();
        let mut sim = gossip_model::UsdGossip::new(&config, SimSeed::from_u64(seed));
        for _ in 0..rounds {
            sim.round();
            prop_assert_eq!(sim.configuration().population(), config.population());
            prop_assert!(sim.configuration().is_consistent());
        }
    }
}

#[test]
fn stop_condition_without_goal_or_budget_is_rejected_by_simulators() {
    // Not a proptest: a single deterministic check that unbounded stop
    // conditions are refused loudly rather than looping forever.
    let unbounded = StopCondition::after_interactions(0);
    assert!(unbounded.is_bounded());
}
