//! `usd_run --scenario FILE` is a front-end over `pp_service::run_scenario`;
//! its stdout must be the same canonical result bytes, and scenario-file
//! diagnostics must match the CLI's named sentences.

use pp_service::runner::{result_json, run_scenario, RunControl, RunVerdict};
use pp_service::scenario::ScenarioConfig;

fn standalone_json(scenario: &ScenarioConfig) -> String {
    let RunVerdict::Finished(outcome) =
        run_scenario(scenario, RunControl::default()).expect("standalone scenario run failed")
    else {
        panic!("a default RunControl cannot be interrupted");
    };
    result_json(&outcome)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("usd_run_scenario_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn scenario_flag_matches_standalone_bytes() {
    let scenario = ScenarioConfig::new(640, 3).with_seed(13);
    let expected = standalone_json(&scenario);
    let dir = temp_dir("ok");
    let file = dir.join("scenario.json");
    std::fs::write(&file, scenario.to_json()).expect("write scenario");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_usd_run"))
        .args(["--scenario", file.to_str().unwrap()])
        .output()
        .expect("run usd_run --scenario");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&output.stdout).trim(),
        expected,
        "usd_run --scenario diverged from the in-process runner"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_flag_rejects_invalid_files_with_named_diagnostics() {
    let dir = temp_dir("bad");
    let file = dir.join("scenario.json");
    // An invalid cross-field combination must fail with the CLI's sentence.
    let mut bad = ScenarioConfig::new(100, 3);
    bad.samples = 0;
    std::fs::write(&file, bad.to_json()).expect("write scenario");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_usd_run"))
        .args(["--scenario", file.to_str().unwrap()])
        .output()
        .expect("run usd_run --scenario");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--samples must be positive"),
        "unexpected diagnostic: {stderr}"
    );
    // Mixing --scenario with other flags is refused outright.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_usd_run"))
        .args(["--scenario", file.to_str().unwrap(), "--n", "100"])
        .output()
        .expect("run usd_run with mixed flags");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr)
        .contains("--scenario takes exactly one file and no other flags"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(interactions, winner)` per replica, as the canonical result document
/// reports them (`winner` is the 0-based opinion index, `None` without one).
fn scenario_runs(doc: &str) -> Vec<(u64, Option<u64>)> {
    use pp_service::json::Json;
    let doc = Json::parse(doc).expect("result document is JSON");
    let run = |run: &Json| {
        (
            run.get("interactions").and_then(Json::as_u64).unwrap(),
            run.get("winner").and_then(Json::as_u64),
        )
    };
    match doc.get("run") {
        Some(single) => vec![run(single)],
        None => doc
            .get("results")
            .and_then(Json::as_array)
            .expect("an ensemble document lists its replicas")
            .iter()
            .map(run)
            .collect(),
    }
}

/// The same per-replica pairs from a hand-typed `usd_run` invocation: the
/// `finished after` / `winner:` stderr lines of a single run, or the
/// `--output` summary of an ensemble.
fn flag_runs(dir: &std::path::Path, flags: &[&str]) -> Vec<(u64, Option<u64>)> {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_usd_run"))
        .args(flags)
        .current_dir(dir)
        .output()
        .expect("run usd_run");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "usd_run {flags:?} failed: {stderr}"
    );
    if flags.contains(&"--output") {
        let summary = std::fs::read_to_string(dir.join("summary.json")).expect("summary");
        return scenario_runs(&summary);
    }
    let interactions = stderr
        .lines()
        .find_map(|line| line.strip_prefix("finished after "))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|count| count.parse().ok())
        .expect("a finished-after line");
    let winner = stderr
        .lines()
        .find_map(|line| line.strip_prefix("winner: opinion "))
        .map(|paper_index| paper_index.parse::<u64>().unwrap() - 1);
    vec![(interactions, winner)]
}

/// The module docs of `pp_service`'s scenario, runner and crate root promise
/// that hand-typed flags and the equivalent scenario document describe the
/// same run.  Every engine, a sampling dynamic and a replica ensemble.
#[test]
fn flags_and_scenario_documents_describe_the_same_run() {
    use pp_core::{EngineChoice, FidelityConfig};
    use pp_service::scenario::Dynamic;
    use pp_workloads::{BiasSpec, UndecidedSpec};
    let cases: Vec<(&[&str], ScenarioConfig)> = vec![
        (
            &["--n", "3000", "--k", "3", "--seed", "3"],
            ScenarioConfig::new(3_000, 3).with_seed(3),
        ),
        (
            &[
                "--n",
                "3000",
                "--k",
                "4",
                "--seed",
                "4",
                "--engine",
                "batched",
                "--mult-bias",
                "2",
            ],
            ScenarioConfig::new(3_000, 4)
                .with_seed(4)
                .with_engine(EngineChoice::Batched)
                .with_bias(BiasSpec::Multiplicative(2.0)),
        ),
        (
            &[
                "--n", "4000", "--k", "3", "--seed", "5", "--engine", "sharded", "--shards", "4",
            ],
            ScenarioConfig::new(4_000, 3)
                .with_seed(5)
                .with_engine(EngineChoice::Sharded)
                .with_shards(4),
        ),
        (
            &[
                "--n",
                "5000",
                "--k",
                "3",
                "--seed",
                "6",
                "--engine",
                "mean-field",
                "--bias-mult",
                "1",
            ],
            ScenarioConfig::new(5_000, 3)
                .with_seed(6)
                .with_engine(EngineChoice::MeanField)
                .with_bias(BiasSpec::AdditiveInSqrtNLogN(1.0)),
        ),
        (
            &[
                "--n",
                "20000",
                "--k",
                "3",
                "--seed",
                "7",
                "--engine",
                "hybrid",
                "--undecided",
                "0.2",
                "--fidelity-dwell",
                "5000",
            ],
            ScenarioConfig::new(20_000, 3)
                .with_seed(7)
                .with_engine(EngineChoice::Hybrid)
                .with_undecided(UndecidedSpec::Fraction(0.2))
                .with_fidelity(FidelityConfig {
                    min_dwell: 5_000,
                    ..FidelityConfig::default()
                }),
        ),
        (
            &[
                "--n",
                "600",
                "--k",
                "3",
                "--seed",
                "8",
                "--dynamic",
                "3-majority",
                "--engine",
                "batched",
            ],
            ScenarioConfig::new(600, 3)
                .with_seed(8)
                .with_dynamic(Dynamic::ThreeMajority)
                .with_engine(EngineChoice::Batched),
        ),
        (
            &[
                "--n",
                "2000",
                "--k",
                "3",
                "--seed",
                "9",
                "--replicas",
                "3",
                "--output",
                "summary.json",
            ],
            ScenarioConfig::new(2_000, 3).with_seed(9).with_replicas(3),
        ),
    ];
    let dir = temp_dir("flags");
    let file = dir.join("scenario.json");
    for (flags, scenario) in cases {
        std::fs::write(&file, scenario.to_json()).expect("write scenario");
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_usd_run"))
            .args(["--scenario", file.to_str().unwrap()])
            .output()
            .expect("run usd_run --scenario");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let from_document = scenario_runs(String::from_utf8_lossy(&output.stdout).trim());
        assert_eq!(
            flag_runs(&dir, flags),
            from_document,
            "usd_run {flags:?} and its scenario document {} ran differently",
            scenario.to_json()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
