//! Equivalence contracts of the multi-fidelity hybrid engine.
//!
//! The hybrid backend (`usd_core::HybridEngine` under the
//! `pp_core::hybrid` fidelity controller) promises four things beyond raw
//! speed, and this suite pins each one through the public simulator API:
//!
//! 1. **Thread-count bit-identity** — both fidelities are single-threaded
//!    per run, so the trajectory is independent of the shard plan's worker
//!    count, event for event.
//! 2. **Checkpoint/resume across a fidelity switch** — a run captured
//!    mid-ODE-phase (after the detector promoted) replays the identical
//!    tail, because the controller state rides in the checkpoint metadata.
//! 3. **Outcome conformance** — the winner-identity distribution over
//!    independently seeded runs matches the batched stochastic reference
//!    under the two-sample chi-squared check.  Hitting-time *variance* is
//!    deliberately out of scope: ODE stretches carry no sampling noise, so
//!    the hybrid compresses the hitting-time distribution by construction
//!    (the mean transit is preserved, the spread is not) — pinning winner
//!    identity is the honest accuracy contract.
//! 4. **Degeneration** — with promotion thresholds no realizable signal
//!    clears, the hybrid is the batched engine, bit for bit; the adaptive
//!    machinery costs nothing when it never fires.
//!
//! 5. **Legs are one-event legs** — a leg judges the counts once and runs
//!    up to the dwell end or the certified quiet horizon; every pause
//!    pattern of the engine's drive (`Pause::NEVER`, `Pause::at`) must give
//!    the run, event stream, switches and mean-field share that one-event
//!    legs (`Pause::events(1)`, the per-event oracle) give, also resumed from a
//!    checkpoint taken at a leg pause — while building the signal far less
//!    often.
//!
//! The telemetry counters (`hybrid.switches`, `hybrid.mean_field_fraction`)
//! double as evidence that the conformance runs actually exercised the
//! detector — a hybrid that never promoted would pass trivially.

use pp_analysis::Conformance;
use pp_core::engine::{Pause, StepEngine};
use pp_core::recorder::NullRecorder;
use pp_core::{
    Checkpoint, Configuration, EngineChoice, FidelityConfig, FidelityController, Recorder,
    RunResult, ShardPlan, SimSeed, StopCondition, Telemetry,
};
use pp_workloads::InitialConfig;
use proptest::prelude::*;
use usd_core::{HybridEngine, UsdSimulator};

const BUDGET: u64 = 500_000_000;

/// A deep-bias three-opinion workload at `n = 20_000`: drift-dominated
/// enough that the detector promotes at the first pause boundary, small
/// enough for debug-build test time.
fn deep_bias_config() -> Configuration {
    Configuration::from_counts(vec![15_000, 3_000, 2_000], 0).unwrap()
}

#[test]
fn hybrid_trajectories_are_bit_identical_across_thread_counts() {
    let seed = SimSeed::from_u64(0x4B1D);
    let narrow = ShardPlan::new(1).threads(1);
    let wide = ShardPlan::new(8).threads(4);
    let mut on_narrow = UsdSimulator::with_engine_fidelity(
        deep_bias_config(),
        seed,
        EngineChoice::Hybrid,
        narrow,
        FidelityConfig::default(),
    );
    let mut on_wide = UsdSimulator::with_engine_fidelity(
        deep_bias_config(),
        seed,
        EngineChoice::Hybrid,
        wide,
        FidelityConfig::default(),
    );
    // Lockstep comparison interaction by interaction, not just at the
    // endpoints (`step` returns whether the interaction was productive —
    // that must agree too).
    while !on_narrow.configuration().is_consensus() && on_narrow.interactions() < BUDGET {
        let productive_narrow = on_narrow.step();
        let productive_wide = on_wide.step();
        assert_eq!(productive_narrow, productive_wide);
        assert_eq!(
            on_narrow.interactions(),
            on_wide.interactions(),
            "interaction counts diverged across thread counts"
        );
        assert_eq!(
            on_narrow.configuration(),
            on_wide.configuration(),
            "configurations diverged at interaction {}",
            on_narrow.interactions()
        );
    }
    assert!(
        on_narrow.configuration().is_consensus(),
        "the lockstep run must reach consensus within the budget"
    );
}

#[test]
fn resume_across_a_fidelity_switch_replays_the_identical_tail() {
    let seed = SimSeed::from_u64(0x5EAB);
    let make = || {
        UsdSimulator::with_engine_fidelity(
            deep_bias_config(),
            seed,
            EngineChoice::Hybrid,
            ShardPlan::default(),
            FidelityConfig::default(),
        )
    };
    let mut reference = make();
    let expected = reference.run_to_consensus(BUDGET);
    assert!(expected.reached_consensus());

    // Interrupt a copy mid-ODE through the cooperative pause seam (checked
    // between `advance` calls, where captures are exact and pausing is
    // documented not to perturb the trajectory).  The ODE stretch's span in
    // *interactions* depends on the workload, so scan forward in small
    // pause increments until the capture sits inside the mean-field phase —
    // that is the seam this test exists for.  The controller state is
    // readable straight from the checkpoint metadata.
    let stop = StopCondition::consensus().or_max_interactions(BUDGET);
    let mut interrupted = make();
    let mut at = 0u64;
    let checkpoint = loop {
        let next = at + 2_000;
        let paused =
            interrupted.run_interruptible(stop, &mut NullRecorder, &mut |done| done >= next);
        assert!(
            paused.is_none(),
            "the run finished before a capture landed inside the ODE phase"
        );
        at = interrupted.interactions();
        let checkpoint = interrupted.capture().expect("mid-run capture succeeds");
        let controller = FidelityController::read_meta(&checkpoint)
            .expect("a hybrid checkpoint carries its controller");
        if controller.current() == pp_core::Fidelity::MeanField {
            assert!(controller.switches() >= 1);
            break checkpoint;
        }
    };

    // JSON round trip, restore, and the continuation must converge to the
    // same consensus at the same interaction count as the uninterrupted
    // reference — and so must the interrupted original.
    let restored =
        Checkpoint::from_json(&checkpoint.to_json()).expect("checkpoint JSON round-trips");
    let mut resumed =
        UsdSimulator::restore(&restored, ShardPlan::default()).expect("restore succeeds");
    assert_eq!(resumed.interactions(), interrupted.interactions());
    let resumed_result = resumed
        .run_interruptible(stop, &mut NullRecorder, &mut |_| false)
        .expect("a never-pausing continuation finishes");
    let original_result = interrupted
        .run_interruptible(stop, &mut NullRecorder, &mut |_| false)
        .expect("a never-pausing continuation finishes");
    assert_eq!(
        resumed_result, original_result,
        "the restored copy's continuation diverged from the original's"
    );
    assert_eq!(
        resumed_result.interactions(),
        expected.interactions(),
        "the resumed run did not rejoin the uninterrupted trajectory"
    );
    assert_eq!(resumed_result.winner(), expected.winner());
}

#[test]
fn never_promoting_hybrid_degenerates_to_batched_bit_for_bit() {
    // Thresholds no realizable signal clears: the controller never fires
    // and the hybrid must BE the batched engine on the same seed.
    let fidelity = FidelityConfig {
        promote_ratio: 1e18,
        demote_ratio: 1e17,
        ..FidelityConfig::default()
    };
    let seed = SimSeed::from_u64(0xDE6E);
    let config = Configuration::from_counts(vec![1_800, 600, 600], 0).unwrap();
    let mut batched = UsdSimulator::with_engine(config.clone(), seed, EngineChoice::Batched);
    let mut hybrid = UsdSimulator::with_engine_fidelity(
        config,
        seed,
        EngineChoice::Hybrid,
        ShardPlan::default(),
        fidelity,
    );
    let expected = batched.run_to_consensus(BUDGET);
    let observed = hybrid.run_to_consensus(BUDGET);
    assert!(expected.reached_consensus());
    assert_eq!(observed.interactions(), expected.interactions());
    assert_eq!(observed.winner(), expected.winner());
    assert_eq!(batched.configuration(), hybrid.configuration());
}

/// One seeded winner index under the given backend, from a decisive
/// multiplicative-bias start (the regime where winner identity is a sharp
/// observable; near-tie starts are exactly where the ODE is *not*
/// trustworthy and the detector refuses to promote).
fn winner(choice: EngineChoice, seed: u64) -> usize {
    let spec = InitialConfig::new(10_000, 3)
        .multiplicative_bias(2.0)
        .engine(choice);
    let master = SimSeed::from_u64(seed);
    let config = spec.build(master).unwrap();
    let mut sim = UsdSimulator::with_engine(config, master.child(1), choice);
    let result = sim.run_to_consensus(BUDGET);
    assert!(result.reached_consensus(), "run {seed:#x} did not converge");
    result.winner().expect("consensus has a winner").index()
}

#[test]
fn winner_identity_is_conformant_with_the_batched_reference() {
    let conformance = Conformance::default();
    let mut batched_tally = vec![0u64; 3];
    let mut hybrid_tally = vec![0u64; 3];
    for i in 0..48 {
        batched_tally[winner(EngineChoice::Batched, 0xBA7_000 + i)] += 1;
        hybrid_tally[winner(EngineChoice::Hybrid, 0x4B1_000 + i)] += 1;
    }
    conformance
        .pin_counts(
            "USD winner identity, batched vs hybrid",
            &batched_tally,
            &hybrid_tally,
        )
        .assert_consistent();
}

#[test]
fn telemetry_counters_record_non_trivial_switching() {
    let mut sim = UsdSimulator::with_engine_fidelity(
        deep_bias_config(),
        SimSeed::from_u64(0x7E1E),
        EngineChoice::Hybrid,
        ShardPlan::default(),
        FidelityConfig::default(),
    );
    sim.set_telemetry(Telemetry::enabled());
    let result = sim.run_to_consensus(BUDGET);
    assert!(result.reached_consensus());
    let snap = result.telemetry().expect("telemetry was enabled");
    let switches = snap
        .counter("hybrid.switches")
        .expect("switch counter present");
    // At least the initial promotion and the guard-driven endgame demotion.
    assert!(
        switches >= 2,
        "expected a promote and an endgame demote, saw {switches} switches"
    );
    let fraction = snap
        .gauges()
        .iter()
        .find(|(name, _)| name == "hybrid.mean_field_fraction")
        .map(|(_, v)| *v)
        .expect("mean-field fraction gauge present");
    assert!(
        fraction > 0.0 && fraction < 1.0,
        "the run should split interactions across both fidelities, saw {fraction}"
    );
}

/// Digests of a recorded event stream: all of it, and the tail strictly
/// after `after` interactions (for comparing a resumed run's continuation).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct EventDigest {
    after: u64,
    events: u64,
    all: u64,
    tail: u64,
}

impl EventDigest {
    fn after(after: u64) -> Self {
        EventDigest {
            after,
            ..EventDigest::default()
        }
    }
}

fn fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

impl Recorder for EventDigest {
    fn record(&mut self, interactions: u64, config: &Configuration) {
        let mut h = fold(0xCBF2_9CE4_8422_2325, interactions);
        for &x in config.supports() {
            h = fold(h, x);
        }
        h = fold(h, config.undecided());
        self.events += 1;
        self.all = fold(self.all, h);
        if interactions > self.after {
            self.tail = fold(self.tail, h);
        }
    }
}

/// What a hybrid run is compared on.
#[derive(Debug, PartialEq)]
struct HybridRun {
    result: RunResult,
    switches: u64,
    mean_field_fraction: u64,
    /// How many events were recorded, and their digest.
    events: (u64, u64),
}

/// Drives `engine` to `stop` in one-event legs, pausing after each: the
/// per-event oracle that every leg pattern must reproduce.
fn one_event_legs<R: Recorder>(
    engine: &mut HybridEngine,
    stop: StopCondition,
    recorder: &mut R,
) -> RunResult {
    loop {
        if let Some(result) = engine.run_engine_pausable(stop, recorder, Pause::events(1)) {
            return result;
        }
    }
}

fn finish(engine: &HybridEngine, result: RunResult, events: &EventDigest) -> HybridRun {
    HybridRun {
        result,
        switches: engine.switches(),
        mean_field_fraction: engine.mean_field_fraction().to_bits(),
        events: (events.events, events.all),
    }
}

/// A start of `n` agents over `k` opinions and thresholds around its own
/// noise ratio, so quiet horizons are short and switches frequent.
///
/// With a `minority` the opinions but the first hold that many agents
/// each: a small minority that the drift shrinks (`2U + x < n`), the
/// bottleneck unless the undecided pool is tiny, with `promote_ratio` less
/// than 1% above the start's noise ratio.
fn hybrid_start(
    n: u64,
    k: usize,
    (bias, undecided, minority): (f64, u64, Option<u64>),
    seed: u64,
    (promote, demote, floor, dwell): (f64, f64, f64, u64),
) -> (Configuration, FidelityConfig) {
    let config = match minority {
        Some(mass) => {
            let mut supports = vec![mass; k];
            supports[0] = n - mass * (k as u64 - 1) - undecided;
            Configuration::from_counts(supports, undecided).unwrap()
        }
        None => InitialConfig::new(n, k)
            .multiplicative_bias(bias)
            .undecided_count(undecided)
            .build(SimSeed::from_u64(seed))
            .unwrap(),
    };
    let start = HybridEngine::new(
        config.clone(),
        SimSeed::from_u64(seed),
        FidelityConfig::default(),
    )
    .signal()
    .noise_ratio;
    let promote = match minority {
        Some(_) => 1.0 + (promote - 0.5) / 100.0,
        None => promote,
    };
    let promote_ratio = start.max(0.05) * promote;
    let fidelity = FidelityConfig {
        promote_ratio,
        demote_ratio: promote_ratio * demote,
        mass_floor: floor,
        min_dwell: dwell,
    };
    (config, fidelity)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Legs driven without pauses and with `Pause::at` pauses reproduce the
    /// one-event-leg oracle exactly, budgets ending the runs mid-leg; a run
    /// resumed from a checkpoint captured at a leg pause replays the
    /// oracle's tail.
    #[test]
    fn legs_reproduce_the_one_event_leg_oracle(
        (k_idx, n, seed) in (0usize..4, 500u64..20_000, 0u64..1_000_000),
        (bias, undecided) in (1.0f64..3.0, 0.0f64..0.4),
        (promote, demote, floor, dwell) in (0.5f64..1.2, 0.3f64..0.95, 0.0f64..1.5, 0u64..4_000),
        (budget, step, capture) in (1.0f64..25.0, 0.05f64..2.0, 0usize..6),
        minority in 0u64..160,
    ) {
        let k = [2, 3, 4, 8][k_idx];
        // A quarter of the starts hold a small shrinking minority.
        let minority = (minority < 40).then_some(minority + 2);
        // A quarter of the starts put the undecided pool under the mass
        // guard's floor, where it then grows up through it.
        let undecided = if undecided < 0.1 {
            (undecided * 10.0 * floor * (n as f64).sqrt()) as u64
        } else {
            (undecided * n as f64) as u64
        };
        let (config, fidelity) = hybrid_start(
            n,
            k,
            (bias, undecided, minority),
            seed,
            (promote, demote, floor, dwell),
        );
        let budget = (budget * n as f64) as u64;
        let step = ((step * n as f64) as u64).max(1);
        let stop = StopCondition::consensus().or_max_interactions(budget);
        let engine_seed = SimSeed::from_u64(seed ^ 0x4B1D);
        let make = || HybridEngine::new(config.clone(), engine_seed, fidelity);

        // Pause::at legs, capturing a checkpoint at one of the pauses.
        let mut paused = make();
        let mut at_events = EventDigest::default();
        let mut captured = None;
        let mut pauses = 0;
        let at_result = loop {
            let next = StepEngine::interactions(&paused).saturating_add(step);
            if let Some(result) = paused.run_engine_pausable(stop, &mut at_events, Pause::at(next)) {
                break result;
            }
            if pauses == capture {
                captured = Some((StepEngine::interactions(&paused), paused.checkpoint()));
            }
            pauses += 1;
        };
        let after = captured.as_ref().map_or(u64::MAX, |(at, _)| *at);

        // The one-event-leg oracle.
        let mut oracle = make();
        let mut oracle_events = EventDigest::after(after);
        let oracle_result = one_event_legs(&mut oracle, stop, &mut oracle_events);
        let expected = finish(&oracle, oracle_result, &oracle_events);

        let mut never = make();
        let mut never_events = EventDigest::default();
        let never_result = never
            .run_engine_pausable(stop, &mut never_events, Pause::NEVER)
            .expect("a never-pausing run finishes");
        prop_assert_eq!(&finish(&never, never_result, &never_events), &expected);
        prop_assert_eq!(&finish(&paused, at_result, &at_events), &expected);
        prop_assert!(never.detector_evaluations() <= oracle.detector_evaluations());

        if let Some((at, checkpoint)) = captured {
            let checkpoint = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
            let mut resumed = HybridEngine::restore(&checkpoint).unwrap();
            prop_assert_eq!(StepEngine::interactions(&resumed), at);
            let mut tail = EventDigest::after(at);
            let result = resumed
                .run_engine_pausable(stop, &mut tail, Pause::NEVER)
                .expect("a never-pausing run finishes");
            prop_assert_eq!(&result, &expected.result);
            prop_assert_eq!(tail.tail, oracle_events.tail);
            prop_assert_eq!(resumed.switches(), expected.switches);
        }
    }
}

#[test]
fn legs_build_the_signal_far_less_often_than_one_event_legs() {
    let n = 100_000;
    let seed = SimSeed::from_u64(0xA11D);
    let config = InitialConfig::new(n, 4)
        .additive_bias_in_sqrt_n_log_n(2.0)
        .build(seed)
        .unwrap();
    let stop = StopCondition::consensus().or_max_interactions(BUDGET);
    let mut legged = HybridEngine::new(config.clone(), seed, FidelityConfig::default());
    let mut oracle = HybridEngine::new(config, seed, FidelityConfig::default());
    let expected = one_event_legs(&mut oracle, stop, &mut NullRecorder);
    let observed = legged.run_engine(stop);
    assert_eq!(observed, expected);
    assert_eq!(legged.switches(), oracle.switches());
    let (legs, events) = (legged.detector_evaluations(), oracle.detector_evaluations());
    assert!(
        legs * 4 <= events,
        "legs built the signal {legs} times against {events} for one-event legs"
    );
}
