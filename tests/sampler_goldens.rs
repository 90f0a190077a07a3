//! Cross-commit goldens for the sequential sampler's activation laws.
//!
//! `tests/trajectory_goldens.rs` pins the USD engines; this table pins the
//! sampling dynamics through the same `run_scenario` path: the 3-Majority
//! closed form (a single batched run and a 4-replica ensemble), the
//! j-Majority integer tables at j = 5 (the patch path), one j = 7 run past
//! the `u128` headroom gate (the float fallback, kept small by its budget),
//! MedianRule, Voter and TwoChoices, plus one per-activation (exact) run
//! that draws through the sampler's Fenwick tree.  The documents were
//! recorded once and are never re-recorded to make a change pass: a change
//! to the law code that claims bit-identity must reproduce them byte for
//! byte.

use k_opinion_usd::service::runner::{
    result_json, run_scenario, RunControl, RunVerdict, ScenarioOutcome,
};
use k_opinion_usd::service::scenario::ScenarioConfig;

/// `(scenario document, expected result document)`.
const GOLDENS: &[(&str, &str)] = &[
    (
        r#"{"scenario":1,"seed":201,"n":20000,"k":3,"dynamic":"3-majority","bias":{"kind":"multiplicative","factor":1.5},"engine":"batched","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":282500,"parallel_time":14.125,"winner":0,"scheduler":"uniform sequential activations (samples with replacement)","rejection_misses":0,"final":{"supports":[20000,0,0],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":202,"n":5000,"k":4,"dynamic":"3-majority","replicas":4,"samples":400}"#,
        r#"{"result":1,"mode":"ensemble","replicas":4,"total_interactions":423112,"results":[{"outcome":"consensus","interactions":92947,"parallel_time":18.5894,"winner":0,"scheduler":"uniform sequential activations (samples with replacement)","rejection_misses":0,"final":{"supports":[5000,0,0,0],"undecided":0}},{"outcome":"consensus","interactions":96163,"parallel_time":19.2326,"winner":3,"scheduler":"uniform sequential activations (samples with replacement)","rejection_misses":0,"final":{"supports":[0,0,0,5000],"undecided":0}},{"outcome":"consensus","interactions":112849,"parallel_time":22.5698,"winner":1,"scheduler":"uniform sequential activations (samples with replacement)","rejection_misses":0,"final":{"supports":[0,5000,0,0],"undecided":0}},{"outcome":"consensus","interactions":121153,"parallel_time":24.2306,"winner":1,"scheduler":"uniform sequential activations (samples with replacement)","rejection_misses":0,"final":{"supports":[0,5000,0,0],"undecided":0}}]}"#,
    ),
    (
        r#"{"scenario":1,"seed":203,"n":3000,"k":4,"dynamic":"j-majority","j":5,"engine":"batched","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":35301,"parallel_time":11.767,"winner":2,"scheduler":"uniform sequential activations (samples with replacement)","rejection_misses":0,"final":{"supports":[0,0,3000,0],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":204,"n":70000,"k":2,"dynamic":"j-majority","j":7,"bias":{"kind":"multiplicative","factor":1.5},"engine":"batched","replicas":1,"samples":400,"budget":60000}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"budget-exhausted","interactions":60000,"parallel_time":0.8571428571428571,"winner":null,"scheduler":"uniform sequential activations (samples with replacement)","rejection_misses":0,"final":{"supports":[51131,18869],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":205,"n":5000,"k":5,"dynamic":"median","engine":"batched","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":56841,"parallel_time":11.3682,"winner":2,"scheduler":"uniform sequential activations (samples with replacement)","rejection_misses":0,"final":{"supports":[0,0,5000,0,0],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":206,"n":2000,"k":3,"dynamic":"voter","bias":{"kind":"multiplicative","factor":2},"engine":"batched","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":1544963,"parallel_time":772.4815,"winner":1,"scheduler":"uniform sequential activations (samples with replacement)","rejection_misses":0,"final":{"supports":[0,2000,0],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":207,"n":10000,"k":3,"dynamic":"two-choices","engine":"batched","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":217604,"parallel_time":21.7604,"winner":1,"scheduler":"uniform sequential activations (samples with replacement)","rejection_misses":0,"final":{"supports":[0,10000,0],"undecided":0}}}"#,
    ),
    (
        r#"{"scenario":1,"seed":208,"n":1000,"k":3,"dynamic":"3-majority","engine":"exact","replicas":1,"samples":400}"#,
        r#"{"result":1,"mode":"single","run":{"outcome":"consensus","interactions":14753,"parallel_time":14.753,"winner":0,"scheduler":"uniform sequential activations (samples with replacement)","rejection_misses":0,"final":{"supports":[1000,0,0],"undecided":0}}}"#,
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
fn sampler_scenarios_reproduce_their_recorded_result_documents() {
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
fn the_goldens_exercise_each_law_path() {
    let maintenance = |seed: &str| {
        let (doc, _) = GOLDENS
            .iter()
            .find(|(doc, _)| doc.contains(seed))
            .expect("the table holds the seed");
        match run(doc) {
            ScenarioOutcome::Single(result) => result.maintenance().expect("samplers count"),
            ScenarioOutcome::Ensemble(_) => panic!("{seed} is a single run"),
        }
    };
    let closed_form = maintenance("\"seed\":201");
    assert_eq!(closed_form.law_rebuilds, 1, "3-majority: {closed_form:?}");
    assert!(closed_form.law_patches > 0, "3-majority: {closed_form:?}");
    let tables = maintenance("\"seed\":203");
    assert_eq!(tables.law_rebuilds, 1, "j = 5: {tables:?}");
    assert!(tables.law_patches > 0, "j = 5: {tables:?}");
    let float = maintenance("\"seed\":204");
    assert_eq!(
        (float.law_patches, float.law_rebuilds),
        (0, 0),
        "j = 7: {float:?}"
    );
    assert!(float.law_fallback_rebuilds > 0, "j = 7: {float:?}");
    let median = maintenance("\"seed\":205");
    assert_eq!(median.law_rebuilds, 1, "median: {median:?}");
    assert!(median.law_patches > 0, "median: {median:?}");
}
