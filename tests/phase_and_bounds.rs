//! Integration tests for the phase structure (Section 2.1) and the
//! undecided-count bounds (Lemmas 3 and 4) on full runs.

use k_opinion_usd::prelude::*;
use pp_core::{Configuration, EngineChoice, Recorder, StopCondition};
use proptest::prelude::*;

#[test]
fn phases_complete_in_order_on_biased_and_uniform_starts() {
    let n = 1_500;
    let k = 4;
    let budget = (200.0 * k as f64 * n as f64 * (n as f64).ln()) as u64;
    for (idx, spec) in [
        InitialConfig::new(n, k),
        InitialConfig::new(n, k).additive_bias_in_sqrt_n_log_n(2.0),
        InitialConfig::new(n, k).multiplicative_bias(2.0),
    ]
    .into_iter()
    .enumerate()
    {
        let seed = SimSeed::from_u64(900 + idx as u64);
        let config = spec.build(seed).unwrap();
        let mut sim = UsdSimulator::new(config, seed.child(1));
        let result = sim.run_with_phases(1.0, budget);
        assert!(
            result.run.reached_consensus(),
            "start {idx} did not converge"
        );
        assert!(
            result.phases.completed(),
            "start {idx} did not register all phases"
        );
        let mut last = 0;
        for phase in Phase::ALL {
            let t = result.phases.hitting_time(phase).unwrap();
            assert!(
                t >= last,
                "phase {phase} hit at {t} before its predecessor at {last}"
            );
            last = t;
        }
        // T5 equals the consensus time.
        assert_eq!(
            result.phases.hitting_time(Phase::Consensus).unwrap(),
            result.run.interactions()
        );
    }
}

#[test]
fn phase_one_completes_within_a_small_multiple_of_seven_n_ln_n() {
    let n: u64 = 3_000;
    let k = 4;
    let bound = 7.0 * n as f64 * (n as f64).ln();
    for trial in 0..5 {
        let seed = SimSeed::from_u64(1_000 + trial);
        let config = InitialConfig::new(n, k).build(seed).unwrap();
        let mut sim = UsdSimulator::new(config, seed.child(1));
        let result = sim.run_with_phases(1.0, (100.0 * bound) as u64);
        let t1 = result.phases.hitting_time(Phase::RiseOfUndecided).unwrap();
        assert!(
            (t1 as f64) <= bound,
            "T1 = {t1} exceeds the Lemma 1 bound 7 n ln n = {bound:.0}"
        );
    }
}

/// Tracks the undecided envelope online (max over the whole run, min of the
/// Lemma 4 margin after Phase 1).
#[derive(Default)]
struct Envelope {
    after_t1: bool,
    max_u: u64,
    min_margin: f64,
}

impl Recorder for Envelope {
    fn record(&mut self, _t: u64, config: &Configuration) {
        self.max_u = self.max_u.max(config.undecided());
        if !self.after_t1 && Phase::RiseOfUndecided.end_condition_met(config, 1.0) {
            self.after_t1 = true;
            self.min_margin = f64::INFINITY;
        }
        if self.after_t1 {
            let margin = config.undecided() as f64
                - (config.population() as f64 - config.max_support() as f64) / 2.0;
            self.min_margin = self.min_margin.min(margin);
        }
    }
}

#[test]
fn undecided_count_respects_the_lemma_3_and_4_envelope() {
    let n: u64 = 3_000;
    let k = 4;
    let n_f = n as f64;
    let budget = (100.0 * k as f64 * n_f * n_f.ln()) as u64;
    for trial in 0..4 {
        let seed = SimSeed::from_u64(1_100 + trial);
        let config = InitialConfig::new(n, k).build(seed).unwrap();
        let mut sim = UsdSimulator::new(config, seed.child(1));
        let mut env = Envelope::default();
        let result = sim.run_recorded(
            StopCondition::consensus().or_max_interactions(budget),
            &mut env,
        );
        assert!(result.reached_consensus());
        // Lemma 3: u(t) stays below n/2 (we use the plain n/2 form since the
        // 1/(5c) correction is tiny at this scale).
        assert!(
            (env.max_u as f64) < n_f / 2.0,
            "max undecided {} reached n/2",
            env.max_u
        );
        // Lemma 4: after T1 the margin never drops below -8 sqrt(n ln n).
        let slack = -8.0 * (n_f * n_f.ln()).sqrt();
        assert!(
            env.min_margin >= slack,
            "Lemma 4 margin {} fell below {slack}",
            env.min_margin
        );
    }
}

#[test]
fn lemma2_bias_survival_holds_at_the_end_of_phase_one() {
    // Start with an additive bias and check that at T1 the bias retained at
    // least a third of its initial value (Lemma 2, statement 1).
    let n: u64 = 4_000;
    let k = 3;
    let seed = SimSeed::from_u64(1_200);
    let config = InitialConfig::new(n, k)
        .additive_bias_in_sqrt_n_log_n(3.0)
        .build(seed)
        .unwrap();
    let survival = bounds::lemma2_survival(&config);

    struct AtT1 {
        bias_at_t1: Option<u64>,
        plurality_at_t1: Option<u64>,
    }
    impl Recorder for AtT1 {
        fn record(&mut self, _t: u64, config: &Configuration) {
            if self.bias_at_t1.is_none() && Phase::RiseOfUndecided.end_condition_met(config, 1.0) {
                self.bias_at_t1 = config.additive_bias();
                self.plurality_at_t1 = Some(config.max_support());
            }
        }
    }
    let mut probe = AtT1 {
        bias_at_t1: None,
        plurality_at_t1: None,
    };
    let mut sim = UsdSimulator::new(config, seed.child(1));
    sim.run_recorded(
        StopCondition::consensus().or_max_interactions(1_000_000_000),
        &mut probe,
    );
    let bias_at_t1 = probe.bias_at_t1.expect("phase 1 completed") as f64;
    let plurality_at_t1 = probe.plurality_at_t1.unwrap() as f64;
    assert!(
        bias_at_t1 >= survival.additive_bias_floor,
        "bias at T1 ({bias_at_t1}) below the Lemma 2 floor ({})",
        survival.additive_bias_floor
    );
    assert!(
        plurality_at_t1 >= survival.plurality_support_floor,
        "plurality support at T1 ({plurality_at_t1}) below the Lemma 2 floor ({})",
        survival.plurality_support_floor
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A phased run, which judges its tracker only at the end of each
    /// horizon leg, gives the run and the hitting times of a tracker that
    /// judges every event: on the batched engine's multi-event legs and the
    /// exact engine's one-event legs, from random starts with ties and
    /// empty opinions, with budgets that end some runs mid-phase, and with
    /// the Phase 2 threshold within a few agents of the start's gap, so
    /// that its horizons are short.
    #[test]
    fn horizon_legs_give_the_phase_times_of_judging_every_event(
        (k_idx, exact, seed) in (0usize..3, 0u8..2, 0u64..1_000_000),
        supports in collection::vec(0u64..60, 8..9),
        (undecided, offset, cut) in (0u64..100, 0u64..9, 0u64..40),
    ) {
        let k = [2, 3, 8][k_idx];
        let supports = supports[..k].to_vec();
        prop_assume!(supports.iter().sum::<u64>() > 0);
        let mut sorted = supports.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let gap = sorted[0] - sorted.get(1).copied().unwrap_or(0);
        let config = Configuration::from_counts(supports, undecided).unwrap();
        let n = config.population();
        // Within (−3, +5) agents of the gap, and reachable at consensus, so
        // that the phased run stops there too.
        let threshold = (gap as f64 + offset as f64 - 3.0).clamp(0.5, (n as f64 - 1.0).max(0.5));
        let alpha = threshold / config.significance_threshold(1.0);
        let engine = if exact == 1 { EngineChoice::Exact } else { EngineChoice::Batched };
        let budget = if cut < 20 { n * (cut + 1) } else { 100_000_000 };
        let seed = SimSeed::from_u64(seed);
        let phased = UsdSimulator::with_engine(config.clone(), seed, engine)
            .run_with_phases(alpha, budget);
        let mut tracker = PhaseTracker::new(alpha);
        let stop = StopCondition::consensus().or_max_interactions(budget);
        let run = UsdSimulator::with_engine(config, seed, engine).run_recorded(stop, &mut tracker);
        prop_assert_eq!(phased.phases, tracker.times());
        prop_assert_eq!(phased.run, run);
    }
}
