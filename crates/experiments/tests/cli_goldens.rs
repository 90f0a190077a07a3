//! Goldens for `usd_run`'s hand-typed flag front-end.
//!
//! Every case runs the binary on small inputs and compares one observation
//! string against a recorded golden:
//!
//! * the exit code;
//! * the FNV-1a 64 hash of stdout (the trajectory CSV, or nothing);
//! * the stderr lines that carry the run's result — `finished after`,
//!   `winner:`, the phase hitting times `T<i> =` and `resumed from`;
//! * for ensembles, the `--output` summary document with its wall-clock
//!   fields removed (see [`WALL_CLOCK_KEYS`] and [`TIMING_METRIC_SUFFIXES`]);
//! * for a failing run, its whole stderr.
//!
//! The diagnostics table pins every flag-parsing error path: exit code 2 and
//! the exact, single stderr line.

use pp_service::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Top-level keys of the ensemble `--output` document that measure wall
/// time, so they differ between runs of the same command.
const WALL_CLOCK_KEYS: [&str; 2] = ["seconds", "interactions_per_sec"];

/// Metric-name suffixes that mark a timing-valued entry of the document's
/// `"metrics"` object (seconds, microseconds, nanoseconds).
const TIMING_METRIC_SUFFIXES: [&str; 3] = ["_s", "_us", "_ns"];

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("usd_run_goldens_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

fn usd_run(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_usd_run"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run usd_run")
}

/// The ensemble summary document without its wall-clock fields.
fn strip_wall_clock(doc: &str) -> String {
    let Json::Obj(pairs) = Json::parse(doc).expect("ensemble --output is JSON") else {
        panic!("ensemble --output must be a JSON object");
    };
    let pairs = pairs
        .into_iter()
        .filter(|(key, _)| !WALL_CLOCK_KEYS.contains(&key.as_str()))
        .map(|(key, value)| match (key.as_str(), value) {
            ("metrics", Json::Obj(metrics)) => (
                key,
                Json::Obj(
                    metrics
                        .into_iter()
                        .filter(|(name, _)| {
                            !TIMING_METRIC_SUFFIXES
                                .iter()
                                .any(|suffix| name.ends_with(suffix))
                        })
                        .collect(),
                ),
            ),
            (_, value) => (key, value),
        })
        .collect();
    Json::Obj(pairs).to_json()
}

/// Runs one case in `dir` and renders everything the goldens pin.
fn observe(dir: &Path, args: &[&str]) -> String {
    let _ = std::fs::remove_file(dir.join("summary.json"));
    let output = usd_run(dir, args);
    let mut lines = vec![
        format!("exit {:?}", output.status.code()),
        format!("stdout {:016x}", fnv64(&output.stdout)),
    ];
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !output.status.success() {
        lines.push(format!("stderr {}", stderr.trim_end()));
    }
    lines.extend(
        stderr
            .lines()
            .filter(|line| {
                line.starts_with("finished after")
                    || line.starts_with("winner:")
                    || line.starts_with("resumed from")
                    || (line.starts_with('T') && line.contains(" = "))
            })
            .map(str::to_string),
    );
    if let Ok(doc) = std::fs::read_to_string(dir.join("summary.json")) {
        lines.push(format!("output {}", strip_wall_clock(&doc)));
    }
    lines.join("\n")
}

/// `(name, arguments, golden observation)`.
const RUNS: &[(&str, &[&str], &str)] = &[
    (
        "usd-exact",
        &["--n", "3000", "--k", "3", "--seed", "3", "--samples", "50"],
        "exit Some(0)\nstdout 6b057c159b3b33a2\nfinished after 88476 interactions (parallel time 29.5); consensus: true\nwinner: opinion 1\nT1 = 11890\nT2 = 28783\nT3 = 44170\nT4 = 55581\nT5 = 88476",
    ),
    (
        "usd-batched",
        &["--n", "3000", "--k", "4", "--seed", "4", "--engine", "batched", "--samples", "50"],
        "exit Some(0)\nstdout cebf127adeb7e131\nfinished after 117226 interactions (parallel time 39.1); consensus: true\nwinner: opinion 1\nT1 = 10970\nT2 = 39798\nT3 = 63505\nT4 = 76532\nT5 = 117226",
    ),
    (
        "usd-sharded",
        &["--n", "4000", "--k", "3", "--seed", "5", "--engine", "sharded", "--shards", "4", "--samples", "50"],
        "exit Some(0)\nstdout 4a0bc023aca52f13\nfinished after 120625 interactions (parallel time 30.2); consensus: true\nwinner: opinion 2\nT1 = 15625\nT2 = 38000\nT3 = 53625\nT4 = 76000\nT5 = 120625",
    ),
    (
        "usd-sharded-epoch-threads",
        &["--n", "4000", "--k", "3", "--seed", "6", "--engine", "sharded", "--shards", "4", "--epoch", "700", "--threads", "2", "--samples", "40"],
        "exit Some(0)\nstdout aba35e1bec404b25\nfinished after 105000 interactions (parallel time 26.2); consensus: true\nwinner: opinion 1\nT1 = 14700\nT2 = 27300\nT3 = 52500\nT4 = 68600\nT5 = 105000",
    ),
    (
        "usd-mean-field",
        &["--n", "5000", "--k", "3", "--seed", "7", "--engine", "mean-field", "--samples", "50"],
        "exit Some(0)\nstdout a1ca9b291af1fa26\nfinished after 61103159 interactions (parallel time 12220.6); consensus: false\nT1 = 37150",
    ),
    (
        "usd-hybrid",
        &["--n", "20000", "--k", "3", "--seed", "42", "--engine", "hybrid", "--samples", "50"],
        "exit Some(0)\nstdout a32268401ce5db74\nfinished after 686271 interactions (parallel time 34.3); consensus: true\nwinner: opinion 1\nT1 = 88724\nT2 = 189847\nT3 = 352017\nT4 = 451980\nT5 = 686271",
    ),
    (
        "usd-hybrid-fidelity",
        &["--n", "20000", "--k", "3", "--seed", "8", "--engine", "hybrid", "--fidelity-promote", "10", "--fidelity-demote", "2", "--fidelity-mass-floor", "4", "--fidelity-dwell", "5000", "--samples", "50"],
        "exit Some(0)\nstdout 28c713c4e33cdba7\nfinished after 775072 interactions (parallel time 38.8); consensus: true\nwinner: opinion 1\nT1 = 74055\nT2 = 189788\nT3 = 360444\nT4 = 464094\nT5 = 775072",
    ),
    (
        "usd-bias-mult",
        &["--n", "3000", "--k", "4", "--seed", "9", "--engine", "batched", "--bias-mult", "1.5", "--samples", "50"],
        "exit Some(0)\nstdout acbeede62b8cb15f\nfinished after 72897 interactions (parallel time 24.3); consensus: true\nwinner: opinion 1\nT1 = 6717\nT2 = 6717\nT3 = 23214\nT4 = 47462\nT5 = 72897",
    ),
    (
        "usd-mult-bias",
        &["--n", "3000", "--k", "4", "--seed", "10", "--mult-bias", "2.0", "--samples", "50"],
        "exit Some(0)\nstdout be9e5bdf3cafe53e\nfinished after 51378 interactions (parallel time 17.1); consensus: true\nwinner: opinion 1\nT1 = 3888\nT2 = 3888\nT3 = 3888\nT4 = 24600\nT5 = 51378",
    ),
    (
        "usd-undecided",
        &["--n", "3000", "--k", "3", "--seed", "11", "--engine", "batched", "--undecided", "0.3", "--samples", "50"],
        "exit Some(0)\nstdout d8f85be971ee8774\nfinished after 93472 interactions (parallel time 31.2); consensus: true\nwinner: opinion 1\nT1 = 5170\nT2 = 36080\nT3 = 48799\nT4 = 63035\nT5 = 93472",
    ),
    (
        "usd-defaults-k",
        &["--n", "2500", "--k", "2", "--samples", "30"],
        "exit Some(0)\nstdout 0301f89a35d00779\nfinished after 61226 interactions (parallel time 24.5); consensus: true\nwinner: opinion 1\nT1 = 7615\nT2 = 14022\nT3 = 26886\nT4 = 35149\nT5 = 61226",
    ),
    (
        "voter-exact",
        &["--n", "400", "--k", "3", "--seed", "12", "--dynamic", "voter", "--engine", "exact", "--samples", "40"],
        "exit Some(0)\nstdout 78cbc5efbf667fc8\nfinished after 41510 interactions (parallel time 103.8); consensus: true\nwinner: opinion 2",
    ),
    (
        "voter-batched",
        &["--n", "400", "--k", "3", "--seed", "12", "--dynamic", "voter", "--engine", "batched", "--samples", "40"],
        "exit Some(0)\nstdout 4ccb445209540739\nfinished after 96691 interactions (parallel time 241.7); consensus: true\nwinner: opinion 2",
    ),
    (
        "two-choices-exact",
        &["--n", "600", "--k", "3", "--seed", "13", "--dynamic", "two-choices", "--samples", "40"],
        "exit Some(0)\nstdout 1929d3a70f3d6f73\nfinished after 10637 interactions (parallel time 17.7); consensus: true\nwinner: opinion 2",
    ),
    (
        "two-choices-batched",
        &["--n", "600", "--k", "3", "--seed", "13", "--dynamic", "two-choices", "--engine", "batched", "--samples", "40"],
        "exit Some(0)\nstdout fe6877678271d113\nfinished after 11162 interactions (parallel time 18.6); consensus: true\nwinner: opinion 2",
    ),
    (
        "3-majority-exact",
        &["--n", "600", "--k", "3", "--seed", "14", "--dynamic", "3-majority", "--samples", "40"],
        "exit Some(0)\nstdout 3080874dafd56076\nfinished after 6701 interactions (parallel time 11.2); consensus: true\nwinner: opinion 1",
    ),
    (
        "3-majority-batched",
        &["--n", "600", "--k", "3", "--seed", "14", "--dynamic", "3-majority", "--engine", "batched", "--samples", "40"],
        "exit Some(0)\nstdout d2c705e4bc25f1d1\nfinished after 9630 interactions (parallel time 16.1); consensus: true\nwinner: opinion 3",
    ),
    (
        "j-majority-exact",
        &["--n", "600", "--k", "3", "--seed", "15", "--dynamic", "j-majority", "--j", "5", "--samples", "40"],
        "exit Some(0)\nstdout cd5c692fa0c20864\nfinished after 4926 interactions (parallel time 8.2); consensus: true\nwinner: opinion 3",
    ),
    (
        "j-majority-batched",
        &["--n", "600", "--k", "3", "--seed", "15", "--dynamic", "j-majority", "--j", "5", "--engine", "batched", "--samples", "40"],
        "exit Some(0)\nstdout 7f708b4ef474f83e\nfinished after 7905 interactions (parallel time 13.2); consensus: true\nwinner: opinion 2",
    ),
    (
        "j-majority-default-j",
        &["--n", "600", "--k", "3", "--seed", "16", "--dynamic", "j-majority", "--engine", "batched", "--samples", "40"],
        "exit Some(0)\nstdout f29f210be26737ab\nfinished after 10000 interactions (parallel time 16.7); consensus: true\nwinner: opinion 1",
    ),
    (
        "median-exact",
        &["--n", "600", "--k", "3", "--seed", "17", "--dynamic", "median", "--samples", "40"],
        "exit Some(0)\nstdout 77bd9d666e3dc0d6\nfinished after 6252 interactions (parallel time 10.4); consensus: true\nwinner: opinion 2",
    ),
    (
        "median-batched",
        &["--n", "600", "--k", "3", "--seed", "17", "--dynamic", "median", "--engine", "batched", "--mult-bias", "1.5", "--samples", "40"],
        "exit Some(0)\nstdout 3522b9f334bb82f6\nfinished after 5159 interactions (parallel time 8.6); consensus: true\nwinner: opinion 2",
    ),
    (
        "usd-ensemble",
        &["--n", "2000", "--k", "3", "--seed", "18", "--replicas", "3", "--threads", "2", "--output", "summary.json"],
        "exit Some(0)\nstdout cbf29ce484222325\noutput {\"tool\":\"usd_run\",\"mode\":\"ensemble\",\"n\":2000,\"k\":3,\"seed\":18,\"replicas\":3,\"workers\":1,\"metrics\":{\"batched.events_drawn\":51146,\"batched.nulls_skipped\":111224,\"batched.table_refreshes\":51149,\"maintenance.law_fallback_rebuilds\":0,\"maintenance.law_patches\":0,\"maintenance.law_rebuilds\":0,\"maintenance.rows_patched\":51146,\"maintenance.rows_rebuilt\":3,\"ensemble.replicas\":3,\"ensemble.workers\":1,\"maintenance.rows_patched_fraction\":0.999941347826937},\"consensus\":{\"reached\":3,\"proportion\":1,\"wilson95\":[0.43849391955098227,1]},\"hitting_time\":{\"count\":3,\"mean\":54123.333333333336,\"ci95\":[39895.14345432046,68351.52321234622],\"std_dev\":12573.442739891621,\"median\":50758,\"min\":43575,\"max\":68037},\"total_interactions\":162370,\"results\":[{\"replica\":0,\"outcome\":\"consensus\",\"interactions\":68037,\"parallel_time\":34.0185,\"winner\":2,\"rejection_misses\":null},{\"replica\":1,\"outcome\":\"consensus\",\"interactions\":43575,\"parallel_time\":21.7875,\"winner\":0,\"rejection_misses\":null},{\"replica\":2,\"outcome\":\"consensus\",\"interactions\":50758,\"parallel_time\":25.379,\"winner\":2,\"rejection_misses\":null}]}",
    ),
    (
        "usd-ensemble-bias",
        &["--n", "2000", "--k", "2", "--seed", "19", "--replicas", "3", "--threads", "1", "--engine", "batched", "--mult-bias", "3.0", "--output", "summary.json"],
        "exit Some(0)\nstdout cbf29ce484222325\noutput {\"tool\":\"usd_run\",\"mode\":\"ensemble\",\"n\":2000,\"k\":2,\"seed\":19,\"replicas\":3,\"workers\":1,\"metrics\":{\"batched.events_drawn\":7002,\"batched.nulls_skipped\":62787,\"batched.table_refreshes\":7005,\"maintenance.law_fallback_rebuilds\":0,\"maintenance.law_patches\":0,\"maintenance.law_rebuilds\":0,\"maintenance.rows_patched\":7002,\"maintenance.rows_rebuilt\":3,\"ensemble.replicas\":3,\"ensemble.workers\":1,\"maintenance.rows_patched_fraction\":0.9995717344753747},\"consensus\":{\"reached\":3,\"proportion\":1,\"wilson95\":[0.43849391955098227,1]},\"hitting_time\":{\"count\":3,\"mean\":23263,\"ci95\":[19385.72745836286,27140.27254163714],\"std_dev\":3426.343386177165,\"median\":24168,\"min\":19475,\"max\":26146},\"total_interactions\":69789,\"results\":[{\"replica\":0,\"outcome\":\"consensus\",\"interactions\":26146,\"parallel_time\":13.073,\"winner\":0,\"rejection_misses\":null},{\"replica\":1,\"outcome\":\"consensus\",\"interactions\":19475,\"parallel_time\":9.7375,\"winner\":0,\"rejection_misses\":null},{\"replica\":2,\"outcome\":\"consensus\",\"interactions\":24168,\"parallel_time\":12.084,\"winner\":0,\"rejection_misses\":null}]}",
    ),
    (
        "3-majority-ensemble",
        &["--n", "600", "--k", "3", "--seed", "20", "--dynamic", "3-majority", "--replicas", "3", "--threads", "2", "--output", "summary.json"],
        "exit Some(0)\nstdout cbf29ce484222325\noutput {\"tool\":\"usd_run\",\"mode\":\"ensemble\",\"n\":600,\"k\":3,\"seed\":20,\"replicas\":3,\"workers\":1,\"metrics\":{\"engine.rejection_misses\":0,\"maintenance.law_fallback_rebuilds\":0,\"maintenance.law_patches\":10706,\"maintenance.law_rebuilds\":3,\"maintenance.rows_patched\":0,\"maintenance.rows_rebuilt\":0,\"ensemble.replicas\":3,\"ensemble.workers\":1,\"maintenance.law_patched_fraction\":0.9997198617984873},\"consensus\":{\"reached\":3,\"proportion\":1,\"wilson95\":[0.43849391955098227,1]},\"hitting_time\":{\"count\":3,\"mean\":8887.333333333334,\"ci95\":[8276.650116672592,9498.016549994076],\"std_dev\":539.6603870336729,\"median\":9054,\"min\":8284,\"max\":9324},\"total_interactions\":26662,\"results\":[{\"replica\":0,\"outcome\":\"consensus\",\"interactions\":9324,\"parallel_time\":15.54,\"winner\":1,\"rejection_misses\":0},{\"replica\":1,\"outcome\":\"consensus\",\"interactions\":9054,\"parallel_time\":15.09,\"winner\":1,\"rejection_misses\":0},{\"replica\":2,\"outcome\":\"consensus\",\"interactions\":8284,\"parallel_time\":13.806666666666667,\"winner\":0,\"rejection_misses\":0}]}",
    ),
    (
        "voter-ensemble-no-output",
        &["--n", "300", "--k", "2", "--seed", "21", "--dynamic", "voter", "--replicas", "3", "--threads", "2"],
        "exit Some(0)\nstdout cbf29ce484222325",
    ),
];

/// `(name, arguments, exact stderr)`; every case exits with code 2.
const DIAGNOSTICS: &[(&str, &[&str], &str)] = &[
    (
        "value-missing",
        &["--n"],
        "--n requires a value",
    ),
    (
        "bad-n",
        &["--n", "x"],
        "--n: invalid digit found in string",
    ),
    (
        "bad-k",
        &["--k", "x"],
        "--k: invalid digit found in string",
    ),
    (
        "bad-bias-mult",
        &["--bias-mult", "x"],
        "--bias-mult: invalid float literal",
    ),
    (
        "bad-mult-bias",
        &["--mult-bias", "x"],
        "--mult-bias: invalid float literal",
    ),
    (
        "bad-undecided",
        &["--undecided", "x"],
        "--undecided: invalid float literal",
    ),
    (
        "bad-j",
        &["--j", "x"],
        "--j: invalid digit found in string",
    ),
    (
        "bad-engine",
        &["--engine", "warp"],
        "--engine: unknown engine \"warp\" (expected exact, batched, sharded, mean-field, or hybrid)",
    ),
    (
        "bad-shards",
        &["--shards", "x"],
        "--shards: invalid digit found in string",
    ),
    (
        "bad-epoch",
        &["--epoch", "x"],
        "--epoch: invalid digit found in string",
    ),
    (
        "bad-replicas",
        &["--replicas", "x"],
        "--replicas: invalid digit found in string",
    ),
    (
        "bad-threads",
        &["--threads", "x"],
        "--threads: invalid digit found in string",
    ),
    (
        "bad-seed",
        &["--seed", "x"],
        "--seed: invalid digit found in string",
    ),
    (
        "bad-samples",
        &["--samples", "x"],
        "--samples: invalid digit found in string",
    ),
    (
        "bad-checkpoint-every",
        &["--checkpoint-every", "x"],
        "--checkpoint-every: invalid digit found in string",
    ),
    (
        "bad-fidelity-promote",
        &["--fidelity-promote", "x"],
        "--fidelity-promote: invalid float literal",
    ),
    (
        "bad-fidelity-demote",
        &["--fidelity-demote", "x"],
        "--fidelity-demote: invalid float literal",
    ),
    (
        "bad-fidelity-mass-floor",
        &["--fidelity-mass-floor", "x"],
        "--fidelity-mass-floor: invalid float literal",
    ),
    (
        "bad-fidelity-dwell",
        &["--fidelity-dwell", "x"],
        "--fidelity-dwell: invalid digit found in string",
    ),
    (
        "bad-dynamic",
        &["--dynamic", "nope"],
        "unknown dynamic \"nope\" (expected usd, voter, two-choices, 3-majority, j-majority, or median)",
    ),
    (
        "help",
        &["--help"],
        "usage: usd_run --scenario <scenario json> | usd_run --n <agents> --k <opinions> [--bias-mult <x> | --mult-bias <f>] [--undecided <fraction>] [--dynamic usd|voter|two-choices|3-majority|j-majority|median] [--j <samples>] [--engine exact|batched|sharded|mean-field|hybrid] [--shards <count>] [--epoch <interactions>] [--fidelity-promote <ratio>] [--fidelity-demote <ratio>] [--fidelity-mass-floor <x>] [--fidelity-dwell <interactions>] [--replicas <count>] [--threads <count>] [--seed <u64>] [--samples <count>] [--output <csv, or json with --replicas>] [--trace <chrome-trace json>] [--metrics] [--checkpoint <path> [--checkpoint-every <interactions>]] [--resume <path>]",
    ),
    (
        "help-short",
        &["-h"],
        "usage: usd_run --scenario <scenario json> | usd_run --n <agents> --k <opinions> [--bias-mult <x> | --mult-bias <f>] [--undecided <fraction>] [--dynamic usd|voter|two-choices|3-majority|j-majority|median] [--j <samples>] [--engine exact|batched|sharded|mean-field|hybrid] [--shards <count>] [--epoch <interactions>] [--fidelity-promote <ratio>] [--fidelity-demote <ratio>] [--fidelity-mass-floor <x>] [--fidelity-dwell <interactions>] [--replicas <count>] [--threads <count>] [--seed <u64>] [--samples <count>] [--output <csv, or json with --replicas>] [--trace <chrome-trace json>] [--metrics] [--checkpoint <path> [--checkpoint-every <interactions>]] [--resume <path>]",
    ),
    (
        "unknown-flag",
        &["--bogus"],
        "unknown flag: --bogus",
    ),
    (
        "two-biases",
        &["--bias-mult", "1", "--mult-bias", "2"],
        "give at most one of --bias-mult and --mult-bias",
    ),
    (
        "zero-samples",
        &["--samples", "0"],
        "--samples must be positive",
    ),
    (
        "zero-j",
        &["--dynamic", "j-majority", "--j", "0"],
        "--j must be positive",
    ),
    (
        "stray-j",
        &["--j", "5"],
        "--j only applies to --dynamic j-majority",
    ),
    (
        "sampler-sharded",
        &["--dynamic", "voter", "--engine", "sharded"],
        "the sharded engine only drives the USD: sampling dynamics update from j-agent samples, so the pairwise cross-shard reconciliation and the USD's ODE limit (which the hybrid engine switches into) do not apply — use --engine exact or --engine batched",
    ),
    (
        "sampler-mean-field",
        &["--dynamic", "two-choices", "--engine", "mean-field"],
        "the mean-field engine only drives the USD: sampling dynamics update from j-agent samples, so the pairwise cross-shard reconciliation and the USD's ODE limit (which the hybrid engine switches into) do not apply — use --engine exact or --engine batched",
    ),
    (
        "sampler-hybrid",
        &["--dynamic", "median", "--engine", "hybrid"],
        "the hybrid engine only drives the USD: sampling dynamics update from j-agent samples, so the pairwise cross-shard reconciliation and the USD's ODE limit (which the hybrid engine switches into) do not apply — use --engine exact or --engine batched",
    ),
    (
        "stray-shards",
        &["--shards", "4"],
        "--shards/--epoch require --engine sharded",
    ),
    (
        "stray-epoch",
        &["--engine", "batched", "--epoch", "100"],
        "--shards/--epoch require --engine sharded",
    ),
    (
        "stray-fidelity",
        &["--fidelity-promote", "10"],
        "--fidelity-promote/--fidelity-demote/--fidelity-mass-floor/--fidelity-dwell tune the hybrid fidelity controller; they require --engine hybrid",
    ),
    (
        "bad-fidelity",
        &["--engine", "hybrid", "--fidelity-promote", "2", "--fidelity-demote", "4"],
        "invalid fidelity thresholds: fidelity promote ratio 2 must exceed the demote ratio 4 — the gap between them is the hysteresis band that prevents backend thrashing",
    ),
    (
        "zero-shards",
        &["--engine", "sharded", "--shards", "0"],
        "--shards must be positive",
    ),
    (
        "zero-epoch",
        &["--engine", "sharded", "--epoch", "0"],
        "--epoch must be positive",
    ),
    (
        "zero-replicas",
        &["--replicas", "0"],
        "--replicas must be positive",
    ),
    (
        "zero-threads",
        &["--engine", "sharded", "--threads", "0"],
        "--threads must be positive",
    ),
    (
        "zero-checkpoint-every",
        &["--checkpoint", "c.json", "--checkpoint-every", "0"],
        "--checkpoint-every must be positive",
    ),
    (
        "stray-checkpoint-every",
        &["--checkpoint-every", "100"],
        "--checkpoint-every sets the cadence of --checkpoint; give --checkpoint <path> too",
    ),
    (
        "sampler-checkpoint",
        &["--dynamic", "voter", "--checkpoint", "c.json"],
        "--checkpoint/--resume drive the USD simulator; the baseline sampling dynamics checkpoint through the library API (ReplicaCheckpoint), not the CLI",
    ),
    (
        "sampler-resume",
        &["--dynamic", "3-majority", "--resume", "c.json"],
        "--checkpoint/--resume drive the USD simulator; the baseline sampling dynamics checkpoint through the library API (ReplicaCheckpoint), not the CLI",
    ),
    (
        "ensemble-checkpoint",
        &["--replicas", "3", "--checkpoint", "c.json"],
        "--checkpoint/--resume cover single runs; the replica ensemble checkpoints through the library API (UsdEnsemble::capture), not the CLI",
    ),
    (
        "ensemble-resume",
        &["--replicas", "3", "--resume", "c.json"],
        "--checkpoint/--resume cover single runs; the replica ensemble checkpoints through the library API (UsdEnsemble::capture), not the CLI",
    ),
    (
        "resume-bias",
        &["--resume", "c.json", "--bias-mult", "1"],
        "--bias-mult/--mult-bias/--undecided shape the initial configuration, which --resume takes from the checkpoint — drop them",
    ),
    (
        "resume-mult-bias",
        &["--resume", "c.json", "--mult-bias", "2"],
        "--bias-mult/--mult-bias/--undecided shape the initial configuration, which --resume takes from the checkpoint — drop them",
    ),
    (
        "resume-undecided",
        &["--resume", "c.json", "--undecided", "0.2"],
        "--bias-mult/--mult-bias/--undecided shape the initial configuration, which --resume takes from the checkpoint — drop them",
    ),
    (
        "resume-fidelity",
        &["--resume", "c.json", "--engine", "hybrid", "--fidelity-promote", "10"],
        "--fidelity-* configure a fresh fidelity controller, which --resume restores from the checkpoint (thresholds ride in the snapshot) — drop them",
    ),
    (
        "resume-output",
        &["--resume", "c.json", "--output", "o.csv"],
        "--output records the trajectory from the start of the run, but a resumed run cannot reconstruct the pre-checkpoint samples — drop --output (use --metrics or --trace for resumed-leg observability)",
    ),
    (
        "stray-threads",
        &["--threads", "2"],
        "--threads caps the parallel engines' workers; it requires --engine sharded or --replicas > 1",
    ),
    (
        "exact-ensemble",
        &["--replicas", "3", "--engine", "exact"],
        "the exact-inside-ensemble engine is not available in this context: the replica ensemble runs skip-ahead replicas, so only the batched base engine can run inside it — use --engine batched (or drop --replicas)",
    ),
    (
        "sharded-ensemble",
        &["--replicas", "3", "--engine", "sharded"],
        "the sharded-inside-ensemble engine is not available in this context: the replica ensemble runs skip-ahead replicas, so only the batched base engine can run inside it — use --engine batched (or drop --replicas)",
    ),
    (
        "scenario-mixed",
        &["--scenario", "s.json", "--n", "5"],
        "--scenario takes exactly one file and no other flags",
    ),
];

fn check_runs(dir: &Path, cases: &[(&str, &[&str], &str)]) {
    let mut failures = Vec::new();
    for (name, args, expected) in cases {
        let observed = observe(dir, args);
        if observed != *expected {
            failures.push(format!(
                "case {name}:\n--- expected\n{expected}\n--- observed\n{observed}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn flag_runs_match_their_goldens() {
    let dir = work_dir("runs");
    check_runs(&dir, RUNS);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpointing run followed by a resume from its last capture, then the
/// two resume mismatches (population and engine) against that capture.
#[test]
fn checkpoint_then_resume_matches_its_goldens() {
    let dir = work_dir("resume");
    check_runs(&dir, RESUME);
    let _ = std::fs::remove_dir_all(&dir);
}

const RESUME: &[(&str, &[&str], &str)] = &[
    (
        "batched-checkpoint",
        &["--n", "20000", "--k", "3", "--engine", "batched", "--seed", "42", "--checkpoint", "ckpt.json", "--checkpoint-every", "4000"],
        "exit Some(0)\nstdout 67e73b0e80aea0b0\nfinished after 738113 interactions (parallel time 36.9); consensus: true\nwinner: opinion 1\nT1 = 76039\nT2 = 271899\nT3 = 398689\nT4 = 485707\nT5 = 738113",
    ),
    (
        "batched-resume",
        &["--n", "20000", "--k", "3", "--resume", "ckpt.json"],
        "exit Some(0)\nstdout cbf29ce484222325\nresumed from ckpt.json: engine batched, 738113 interactions already consumed\nfinished after 738113 interactions (parallel time 36.9); consensus: true\nwinner: opinion 1",
    ),
    (
        "batched-resume-explicit-engine",
        &["--n", "20000", "--k", "3", "--engine", "batched", "--resume", "ckpt.json"],
        "exit Some(0)\nstdout cbf29ce484222325\nresumed from ckpt.json: engine batched, 738113 interactions already consumed\nfinished after 738113 interactions (parallel time 36.9); consensus: true\nwinner: opinion 1",
    ),
    (
        "resume-population-mismatch",
        &["--n", "20001", "--k", "3", "--resume", "ckpt.json"],
        "exit Some(2)\nstdout cbf29ce484222325\nstderr cannot resume: checkpoint mismatch: the checkpoint was captured from a run with n=20000, k=3, but the scenario says n=20001, k=3: the interaction budget derives from n and k, and resuming toward a different budget breaks bit-exactness — pass the original values",
    ),
    (
        "resume-opinions-mismatch",
        &["--n", "20000", "--k", "4", "--resume", "ckpt.json"],
        "exit Some(2)\nstdout cbf29ce484222325\nstderr cannot resume: checkpoint mismatch: the checkpoint was captured from a run with n=20000, k=3, but the scenario says n=20000, k=4: the interaction budget derives from n and k, and resuming toward a different budget breaks bit-exactness — pass the original values",
    ),
    (
        "resume-engine-mismatch",
        &["--n", "20000", "--k", "3", "--engine", "exact", "--resume", "ckpt.json"],
        "exit Some(2)\nstdout cbf29ce484222325\nstderr cannot resume: checkpoint mismatch: the checkpoint holds batched engine state but the scenario says engine exact: the backend rides in the checkpoint, so drop the engine or pass the matching one",
    ),
    (
        "hybrid-checkpoint",
        &["--n", "20000", "--k", "3", "--engine", "hybrid", "--seed", "42", "--checkpoint", "hybrid.json", "--checkpoint-every", "3000"],
        "exit Some(0)\nstdout a32268401ce5db74\nfinished after 686271 interactions (parallel time 34.3); consensus: true\nwinner: opinion 1\nT1 = 88724\nT2 = 189847\nT3 = 352017\nT4 = 451980\nT5 = 686271",
    ),
    (
        "hybrid-resume",
        &["--n", "20000", "--k", "3", "--resume", "hybrid.json"],
        "exit Some(0)\nstdout cbf29ce484222325\nresumed from hybrid.json: engine hybrid, 686271 interactions already consumed\nfinished after 686271 interactions (parallel time 34.3); consensus: true\nwinner: opinion 1",
    ),
    (
        "resume-missing-file",
        &["--n", "20000", "--k", "3", "--resume", "missing.json"],
        "exit Some(2)\nstdout cbf29ce484222325\nstderr cannot resume from missing.json: checkpoint error: failed to read checkpoint missing.json: No such file or directory (os error 2)",
    ),
];

#[test]
fn flag_errors_exit_2_with_their_exact_diagnostic() {
    let dir = work_dir("diagnostics");
    let mut failures = Vec::new();
    for (name, args, expected) in DIAGNOSTICS {
        let output = usd_run(&dir, args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        if output.status.code() != Some(2) || stderr.trim_end() != *expected {
            failures.push(format!(
                "case {name}: exit {:?}\n--- expected\n{expected}\n--- observed\n{}",
                output.status.code(),
                stderr.trim_end()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
    let _ = std::fs::remove_dir_all(&dir);
}
