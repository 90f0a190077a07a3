//! Cross-commit trajectory goldens: small scenario documents and the exact
//! canonical result document each one must produce.
//!
//! The equivalence suites compare two paths *within one build* (server vs
//! standalone, resumed vs uninterrupted, one thread vs many); nothing there
//! notices when every path drifts together.  These documents were recorded
//! once and are never re-recorded to make a change pass: a hot-path
//! optimisation that claims bit-identity must reproduce them byte for byte.
//! The table covers the batched USD at k ∈ {2, 3, 8} under no, additive and
//! multiplicative bias, two hybrid runs (one switching at least twice), one
//! exact run and one 4-replica USD ensemble, all at n ≤ 2·10⁵.
//!
//! A second table pins the batched USD at the population sizes where its
//! exact integer weights change width: n = 2³² − 1 (the largest population
//! whose weights `c·S ≤ n²` fit `u64`), n = 2³² and n = 10¹⁰.  Each entry is
//! the final counts, interaction count and drawn events after a fixed
//! interaction budget.
//!
//! A third table pins phase-aware runs (`UsdSimulator::run_with_phases`) on
//! every single-run backend at k ∈ {2, 3, 8}: where each run stopped, its
//! hitting times T1–T5, winner, whether the initial plurality won, and the
//! scheduler label.  Two seeds per cell run to consensus; the third stops
//! on a budget that ends it mid-run.

use k_opinion_usd::core::engine::{BatchedEngine, StepEngine};
use k_opinion_usd::core::{Configuration, EngineChoice, SimSeed, StopCondition};
use k_opinion_usd::service::runner::{
    result_json, run_scenario, RunControl, RunVerdict, ScenarioOutcome,
};
use k_opinion_usd::service::scenario::ScenarioConfig;
use k_opinion_usd::usd::{Phase, UndecidedStateDynamics, UsdSimulator};

/// `(scenario document, expected result document)`.
const GOLDENS: &[(&str, &str)] = &[
    (
        r#"{"scenario":1,"seed":101,"n":100000,"k":2,"dynamic":"usd","engine":"batched","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":4498719,"parallel_time":44.98719,"winner":0,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[100000,0],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":102,"n":100000,"k":2,"dynamic":"usd","bias":{"kind":"additive-sqrt-n-log-n","mult":1.0},"engine":"batched","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":2858908,"parallel_time":28.58908,"winner":0,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[100000,0],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":103,"n":100000,"k":2,"dynamic":"usd","bias":{"kind":"multiplicative","factor":2.0},"engine":"batched","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":1587516,"parallel_time":15.87516,"winner":0,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[100000,0],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":104,"n":50000,"k":3,"dynamic":"usd","engine":"batched","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":2180093,"parallel_time":43.60186,"winner":1,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[0,50000,0],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":105,"n":50000,"k":3,"dynamic":"usd","bias":{"kind":"additive","beta":3000},"engine":"batched","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":1218154,"parallel_time":24.36308,"winner":0,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[50000,0,0],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":106,"n":50000,"k":3,"dynamic":"usd","bias":{"kind":"multiplicative","factor":1.5},"engine":"batched","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":1189797,"parallel_time":23.79594,"winner":0,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[50000,0,0],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":107,"n":20000,"k":8,"dynamic":"usd","engine":"batched","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":1186764,"parallel_time":59.3382,"winner":7,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[0,0,0,0,0,0,0,20000],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":108,"n":20000,"k":8,"dynamic":"usd","bias":{"kind":"additive-sqrt-n-log-n","mult":2.0},"engine":"batched","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":1009305,"parallel_time":50.46525,"winner":0,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[20000,0,0,0,0,0,0,0],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":109,"n":20000,"k":8,"dynamic":"usd","bias":{"kind":"multiplicative","factor":2.0},"engine":"batched","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":512148,"parallel_time":25.6074,"winner":0,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[20000,0,0,0,0,0,0,0],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":110,"n":20000,"k":3,"dynamic":"usd","bias":{"kind":"multiplicative","factor":5.0},"engine":"hybrid","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":275353,"parallel_time":13.76765,"winner":0,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[20000,0,0],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":111,"n":200000,"k":4,"dynamic":"usd","bias":{"kind":"additive-sqrt-n-log-n","mult":2.0},"engine":"hybrid","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":7437318,"parallel_time":37.18659,"winner":0,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[200000,0,0,0],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":112,"n":2000,"k":3,"dynamic":"usd","bias":{"kind":"multiplicative","factor":1.5},"engine":"exact","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":38526,"parallel_time":19.263,"winner":0,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[2000,0,0],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":113,"n":5000,"k":3,"dynamic":"usd","bias":{"kind":"multiplicative","factor":1.5},"replicas":4,"samples":400}"#,
        r#"{"result":1,"mode":"ensemble","replicas":4,"total_interactions":396467,"results":[{"outcome":"consensus","interactions":86432,"parallel_time":17.2864,"winner":0,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[5000,0,0],"undecided":0}},{"outcome":"consensus","interactions":90674,"parallel_time":18.1348,"winner":0,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[5000,0,0],"undecided":0}},{"outcome":"consensus","interactions":122778,"parallel_time":24.5556,"winner":0,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[5000,0,0],"undecided":0}},{"outcome":"consensus","interactions":96583,"parallel_time":19.3166,"winner":0,"scheduler":"uniform ordered pairs (self-interactions allowed)","rejection_misses":null,"final":{"supports":[5000,0,0],"undecided":0}}]}"#,
    ),
];

fn run(doc: &str) -> ScenarioOutcome {
    let scenario = ScenarioConfig::from_json(doc).expect("golden scenario parses");
    match run_scenario(&scenario, RunControl::default()).expect("golden scenario runs") {
        RunVerdict::Finished(outcome) => outcome,
        RunVerdict::Interrupted(why) => panic!("uninterruptible run stopped: {why:?}"),
    }
}

#[test]
fn scenarios_reproduce_their_recorded_result_documents() {
    let mut diverged = Vec::new();
    for (scenario, expected) in GOLDENS {
        let observed = result_json(&run(scenario));
        if observed != *expected {
            diverged.push(format!(
                "scenario {scenario}\n  expected {expected}\n  observed {observed}"
            ));
        }
    }
    assert!(diverged.is_empty(), "{}", diverged.join("\n"));
}

#[test]
fn a_hybrid_golden_switches_fidelity_at_least_twice() {
    let most = GOLDENS
        .iter()
        .filter(|(doc, _)| {
            ScenarioConfig::from_json(doc).unwrap().effective_engine() == EngineChoice::Hybrid
        })
        .map(|(doc, _)| match run(doc) {
            ScenarioOutcome::Single(result) => result
                .telemetry()
                .and_then(|t| t.counter("hybrid.switches"))
                .expect("hybrid runs report hybrid.switches"),
            ScenarioOutcome::Ensemble(_) => panic!("hybrid goldens are single runs"),
        })
        .max()
        .expect("the table holds hybrid goldens");
    assert!(most >= 2, "no hybrid golden switched twice (max {most})");
}

/// Interactions each width-boundary run may take.
const BOUNDARY_BUDGET: u64 = 20_000;

/// `(k, n, final supports, final undecided, interactions, events drawn)`
/// for a batched USD run seeded `n ^ k` from `boundary_start(k, n)`.
type Fingerprint = (usize, u64, &'static [u64], u64, u64, u64);

const BOUNDARY_FINGERPRINTS: &[Fingerprint] = &[
    (
        2,
        4_294_967_295,
        &[1_879_045_427, 1_879_045_383],
        536_876_485,
        20_000,
        9_902,
    ),
    (
        2,
        4_294_967_296,
        &[1_879_045_534, 1_879_045_444],
        536_876_318,
        20_000,
        9_682,
    ),
    (
        2,
        10_000_000_000,
        &[4_374_997_221, 4_374_997_422],
        1_250_005_357,
        20_000,
        9_695,
    ),
    (
        8,
        4_294_967_295,
        &[
            469_760_767,
            469_760_673,
            469_760_609,
            469_760_674,
            469_760_680,
            469_760_622,
            469_760_637,
            469_760_607,
        ],
        536_882_026,
        20_000,
        15_601,
    ),
    (
        8,
        4_294_967_296,
        &[
            469_760_634,
            469_760_626,
            469_760_691,
            469_760_585,
            469_760_557,
            469_760_621,
            469_760_663,
            469_760_699,
        ],
        536_882_220,
        20_000,
        15_658,
    ),
    (
        8,
        10_000_000_000,
        &[
            1_093_748_576,
            1_093_748_527,
            1_093_748_654,
            1_093_748_604,
            1_093_748_550,
            1_093_748_603,
            1_093_748_666,
            1_093_748_629,
        ],
        1_250_011_191,
        20_000,
        15_649,
    ),
];

/// One eighth of the population undecided, the rest split evenly over the
/// `k` opinions with the remainder on opinion 0: every row weight is within
/// a small factor of `n²`.
fn boundary_start(k: usize, n: u64) -> Configuration {
    let undecided = n / 8;
    let decided = n - undecided;
    let mut supports = vec![decided / k as u64; k];
    supports[0] += decided % k as u64;
    Configuration::from_counts(supports, undecided).expect("valid boundary configuration")
}

#[test]
fn width_boundary_runs_reproduce_their_fingerprints() {
    let mut observed = Vec::new();
    for k in [2usize, 8] {
        for n in [u64::from(u32::MAX), u64::from(u32::MAX) + 1, 10_000_000_000] {
            let mut engine = BatchedEngine::new(
                UndecidedStateDynamics::new(k),
                boundary_start(k, n),
                SimSeed::from_u64(n ^ k as u64),
            );
            let result =
                engine.run_engine(StopCondition::consensus().or_max_interactions(BOUNDARY_BUDGET));
            let events = result
                .telemetry()
                .and_then(|t| t.counter("batched.events_drawn"))
                .expect("batched runs count their events");
            let end = result.final_configuration();
            observed.push((
                k,
                n,
                end.supports().to_vec(),
                end.undecided(),
                result.interactions(),
                events,
            ));
        }
    }
    let expected: Vec<_> = BOUNDARY_FINGERPRINTS
        .iter()
        .map(|&(k, n, supports, u, t, e)| (k, n, supports.to_vec(), u, t, e))
        .collect();
    assert_eq!(observed, expected);
}

/// The scheduler label of every unsharded backend.
const PAIRS: &str = "uniform ordered pairs (self-interactions allowed)";
/// The scheduler label of the sharded backend.
const SHARDED: &str = "uniform ordered pairs (sharded epochs, self-interactions allowed)";

/// `(engine, k, seed, budget, interactions, T1–T5, winner, plurality won,
/// scheduler)` for `run_with_phases(1.0, budget)` from `phase_start(k)`.
type PhaseFingerprint = (
    &'static str,
    usize,
    u64,
    u64,
    u64,
    [Option<u64>; 5],
    Option<usize>,
    Option<bool>,
    &'static str,
);

#[rustfmt::skip]
const PHASE_FINGERPRINTS: &[PhaseFingerprint] = &[
    ("exact", 2, 1, 100000000, 18345, [Some(1482), Some(1482), Some(2724), Some(5595), Some(18345)], Some(0), Some(true), PAIRS),
    ("exact", 2, 2, 100000000, 16287, [Some(1708), Some(1708), Some(2846), Some(6028), Some(16287)], Some(0), Some(true), PAIRS),
    ("exact", 2, 3, 4000, 4000, [Some(1700), Some(1700), Some(3721), None, None], None, None, PAIRS),
    ("exact", 3, 1, 100000000, 20939, [Some(1949), Some(1949), Some(4911), Some(10820), Some(20939)], Some(0), Some(true), PAIRS),
    ("exact", 3, 2, 100000000, 19135, [Some(2124), Some(2124), Some(3953), Some(9660), Some(19135)], Some(0), Some(true), PAIRS),
    ("exact", 3, 3, 9000, 9000, [Some(2101), Some(2101), Some(6593), None, None], None, None, PAIRS),
    ("exact", 8, 1, 100000000, 49787, [Some(5280), Some(5618), Some(13990), Some(31981), Some(49787)], Some(0), Some(true), PAIRS),
    ("exact", 8, 2, 100000000, 61107, [Some(4702), Some(12548), Some(24852), Some(38893), Some(61107)], Some(0), Some(true), PAIRS),
    ("exact", 8, 3, 40000, 40000, [Some(4630), Some(13590), Some(15996), Some(38466), None], None, None, PAIRS),
    ("batched", 2, 1, 100000000, 12240, [Some(1862), Some(1862), Some(2652), Some(5692), Some(12240)], Some(0), Some(true), PAIRS),
    ("batched", 2, 2, 100000000, 16737, [Some(1277), Some(1277), Some(2112), Some(5587), Some(16737)], Some(0), Some(true), PAIRS),
    ("batched", 2, 3, 4000, 4000, [Some(1449), Some(1449), Some(2099), None, None], None, None, PAIRS),
    ("batched", 3, 1, 100000000, 20284, [Some(2193), Some(2193), Some(6148), Some(10647), Some(20284)], Some(0), Some(true), PAIRS),
    ("batched", 3, 2, 100000000, 24629, [Some(2224), Some(2224), Some(4289), Some(9996), Some(24629)], Some(0), Some(true), PAIRS),
    ("batched", 3, 3, 9000, 9000, [Some(2294), Some(2294), Some(5335), None, None], None, None, PAIRS),
    ("batched", 8, 1, 100000000, 56431, [Some(4386), Some(12455), Some(17276), Some(36303), Some(56431)], Some(0), Some(true), PAIRS),
    ("batched", 8, 2, 100000000, 63748, [Some(3922), Some(11005), Some(32550), Some(44890), Some(63748)], Some(0), Some(true), PAIRS),
    ("batched", 8, 3, 40000, 40000, [Some(4894), Some(10575), Some(11703), Some(33906), None], None, None, PAIRS),
    ("sharded", 2, 1, 100000000, 15035, [Some(1581), Some(1581), Some(2418), Some(5301), Some(15035)], Some(0), Some(true), SHARDED),
    ("sharded", 2, 2, 100000000, 13826, [Some(1612), Some(1612), Some(2108), Some(5301), Some(13826)], Some(0), Some(true), SHARDED),
    ("sharded", 2, 3, 4000, 4000, [Some(2294), Some(2294), Some(3472), None, None], None, None, SHARDED),
    ("sharded", 3, 1, 100000000, 22163, [Some(1924), Some(1924), Some(5587), Some(10619), Some(22163)], Some(0), Some(true), SHARDED),
    ("sharded", 3, 2, 100000000, 24827, [Some(2072), Some(2072), Some(4995), Some(9694), Some(24827)], Some(0), Some(true), SHARDED),
    ("sharded", 3, 3, 9000, 9000, [Some(2294), Some(2294), Some(6031), None, None], None, None, SHARDED),
    ("sharded", 8, 1, 100000000, 68882, [Some(4712), Some(23684), Some(28768), Some(43896), Some(68882)], Some(0), Some(true), SHARDED),
    ("sharded", 8, 2, 100000000, 62000, [Some(3906), Some(22878), Some(26784), Some(45446), Some(62000)], Some(0), Some(true), SHARDED),
    ("sharded", 8, 3, 40000, 40000, [Some(5642), Some(9796), Some(23560), None, None], None, None, SHARDED),
    ("hybrid", 2, 1, 100000000, 15893, [Some(1679), Some(1679), Some(2831), Some(6169), Some(15893)], Some(0), Some(true), PAIRS),
    ("hybrid", 2, 2, 100000000, 13706, [Some(1559), Some(1559), Some(2358), Some(5376), Some(13706)], Some(0), Some(true), PAIRS),
    ("hybrid", 2, 3, 4000, 4000, [Some(1670), Some(1670), Some(2706), None, None], None, None, PAIRS),
    ("hybrid", 3, 1, 100000000, 24924, [Some(2267), Some(2267), Some(8125), Some(12503), Some(24924)], Some(0), Some(true), PAIRS),
    ("hybrid", 3, 2, 100000000, 17111, [Some(2027), Some(2027), Some(3650), Some(9156), Some(17111)], Some(0), Some(true), PAIRS),
    ("hybrid", 3, 3, 9000, 9000, [Some(2030), Some(2030), Some(5695), None, None], None, None, PAIRS),
    ("hybrid", 8, 1, 100000000, 47394, [Some(4098), Some(5476), Some(6467), Some(27931), Some(47394)], Some(0), Some(true), PAIRS),
    ("hybrid", 8, 2, 100000000, 51596, [Some(3688), Some(9053), Some(13896), Some(36063), Some(51596)], Some(0), Some(true), PAIRS),
    ("hybrid", 8, 3, 40000, 40000, [Some(4956), Some(12702), Some(16622), Some(33629), None], None, None, PAIRS),
    ("mean-field", 2, 1, 100000000, 15420, [Some(1610), Some(1610), Some(2800), Some(5980), Some(15420)], Some(0), Some(true), PAIRS),
    ("mean-field", 2, 2, 100000000, 15420, [Some(1610), Some(1610), Some(2800), Some(5980), Some(15420)], Some(0), Some(true), PAIRS),
    ("mean-field", 2, 3, 4000, 4000, [Some(1610), Some(1610), Some(2800), None, None], None, None, PAIRS),
    ("mean-field", 3, 1, 100000000, 21972, [Some(2148), Some(2148), Some(5100), Some(10608), Some(21972)], Some(0), Some(true), PAIRS),
    ("mean-field", 3, 2, 100000000, 21972, [Some(2148), Some(2148), Some(5100), Some(10608), Some(21972)], Some(0), Some(true), PAIRS),
    ("mean-field", 3, 3, 9000, 9000, [Some(2148), Some(2148), Some(5100), None, None], None, None, PAIRS),
    ("mean-field", 8, 1, 100000000, 54900, [Some(4580), Some(11420), Some(15380), Some(35140), Some(54900)], Some(0), Some(true), PAIRS),
    ("mean-field", 8, 2, 100000000, 54900, [Some(4580), Some(11420), Some(15380), Some(35140), Some(54900)], Some(0), Some(true), PAIRS),
    ("mean-field", 8, 3, 40000, 40000, [Some(4580), Some(11420), Some(15380), Some(35140), None], None, None, PAIRS),
];

/// A biased start whose phases each take a few hundred events or more.
fn phase_start(k: usize) -> Configuration {
    let supports = match k {
        2 => vec![560, 440],
        3 => vec![500, 400, 300],
        _ => vec![400, 300, 250, 250, 200, 200, 200, 200],
    };
    Configuration::from_counts(supports, 0).expect("valid phase start")
}

/// The third seed of each cell stops on this budget, before consensus.
fn short_budget(k: usize) -> u64 {
    match k {
        2 => 4_000,
        3 => 9_000,
        _ => 40_000,
    }
}

#[test]
fn phased_runs_reproduce_their_fingerprints() {
    let mut observed = Vec::new();
    for engine in [
        EngineChoice::Exact,
        EngineChoice::Batched,
        EngineChoice::Sharded,
        EngineChoice::Hybrid,
        EngineChoice::MeanField,
    ] {
        for k in [2usize, 3, 8] {
            for seed in 1..=3u64 {
                let budget = if seed == 3 {
                    short_budget(k)
                } else {
                    100_000_000
                };
                let mut sim =
                    UsdSimulator::with_engine(phase_start(k), SimSeed::from_u64(seed), engine);
                let phased = sim.run_with_phases(1.0, budget);
                observed.push((
                    engine.name(),
                    k,
                    seed,
                    budget,
                    phased.run.interactions(),
                    Phase::ALL.map(|p| phased.phases.hitting_time(p)),
                    phased.run.winner().map(|w| w.index()),
                    phased.plurality_won,
                    phased.run.scheduler().unwrap_or_default().to_string(),
                ));
            }
        }
    }
    let expected: Vec<_> = PHASE_FINGERPRINTS
        .iter()
        .map(|&(e, k, s, b, t, times, w, p, sched)| (e, k, s, b, t, times, w, p, sched.to_string()))
        .collect();
    assert_eq!(observed, expected);
}
