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

use k_opinion_usd::core::engine::{BatchedEngine, StepEngine};
use k_opinion_usd::core::{Configuration, EngineChoice, SimSeed, StopCondition};
use k_opinion_usd::service::runner::{
    result_json, run_scenario, RunControl, RunVerdict, ScenarioOutcome,
};
use k_opinion_usd::service::scenario::ScenarioConfig;
use k_opinion_usd::usd::UndecidedStateDynamics;

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
