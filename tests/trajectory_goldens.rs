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

use k_opinion_usd::core::EngineChoice;
use k_opinion_usd::service::runner::{
    result_json, run_scenario, RunControl, RunVerdict, ScenarioOutcome,
};
use k_opinion_usd::service::scenario::ScenarioConfig;

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
