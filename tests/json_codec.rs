//! The workspace's one JSON codec (`pp_core::json`) against every document
//! the workspace writes, and every parser entry point against hostile bytes.
//!
//! * **Canonical round trip.**  Each document — the committed
//!   `BENCH_engines*.json` records, one captured checkpoint per backend, a
//!   single and an ensemble result, a scenario, a progress and a done line,
//!   a job record — re-serializes to itself byte for byte through
//!   `Json::parse(doc).to_json()`.  This pins the writers that do not build
//!   a `Json` value (the streaming checkpoint writer, the metrics and trace
//!   writers) to exactly what the shared writer would emit.
//! * **Arbitrary bytes.**  `Json::parse`, `Checkpoint::from_json`,
//!   `ScenarioConfig::from_json`, `JobRecord::from_json`, `parse_request`
//!   and `Server::open` (on a `jobs.log` holding the bytes) see random
//!   JSON-ish byte strings and every truncation and single-byte flip of a
//!   valid document.  None may panic, every error must say something, a
//!   checkpoint error must be `PpError::Checkpoint`, and a reopened server
//!   must never serve a result that fails `check_result_doc`.
//! * **Checkpoint lines.**  A `jobs.log` holding a running job's `ckpt`
//!   lines, cut at every byte and with each capture byte flipped: the
//!   reopened server resumes the job from its last whole capture whose
//!   checksum holds, names every damaged line, and finishes on the
//!   standalone result.

use k_opinion_usd::prelude::*;
use pp_core::checkpoint::CheckpointSink;
use pp_core::ensemble::EnsembleChoice;
use pp_core::json::Json;
use pp_core::{
    Checkpoint, EngineChoice, EngineState, NullRecorder, PpError, ShardPlan, StopCondition,
};
use pp_service::protocol::{check_progress_line, check_result_doc, parse_request};
use pp_service::{
    job, result_json, run_scenario, Interrupt, JobId, JobRecord, JobState, RunControl, RunVerdict,
    ScenarioConfig, Server, ServerConfig,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use usd_core::UsdEnsemble;

/// Asserts that `doc` is the canonical serialization of its own parse.
fn assert_canonical(what: &str, doc: &str) {
    let parsed = Json::parse(doc).unwrap_or_else(|e| panic!("{what} does not parse: {e}"));
    let again = parsed.to_json();
    if again != doc {
        let at = again
            .bytes()
            .zip(doc.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| again.len().min(doc.len()));
        let from = at.saturating_sub(40);
        panic!(
            "{what} does not re-serialize to itself: first difference at byte {at}\n  \
             written: {:?}\n  codec:   {:?}",
            &doc[from..(at + 40).min(doc.len())],
            &again[from..(at + 40).min(again.len())],
        );
    }
}

fn run(scenario: &ScenarioConfig) -> String {
    let RunVerdict::Finished(outcome) =
        run_scenario(scenario, RunControl::default()).expect("scenario runs")
    else {
        panic!("a default RunControl cannot be interrupted");
    };
    result_json(&outcome)
}

/// A USD simulator on `engine`, paused a few thousand interactions in and
/// captured (with the simulator's `meta`).
fn captured(engine: EngineChoice, plan: ShardPlan) -> Checkpoint {
    let config = Configuration::from_counts(vec![400, 300, 200], 100).unwrap();
    let mut sim = UsdSimulator::with_engine_plan(config, SimSeed::from_u64(9), engine, plan);
    let stop = StopCondition::consensus().or_max_interactions(10_000_000);
    let paused = sim.run_interruptible(stop, &mut NullRecorder, &mut |done| done >= 3_000);
    assert!(paused.is_none(), "{engine:?} finished before the pause");
    sim.capture().expect("capture succeeds")
}

/// One captured checkpoint per backend, named.
fn checkpoints() -> Vec<(&'static str, Checkpoint)> {
    let config = Configuration::from_counts(vec![500, 400, 300], 0).unwrap();
    let mut ensemble =
        UsdEnsemble::try_new(config, SimSeed::from_u64(4), EnsembleChoice::new(3)).unwrap();
    let stop = StopCondition::consensus().or_max_interactions(10_000_000);
    assert!(
        ensemble.run_windows(stop, 2).is_none(),
        "must pause mid-run"
    );
    vec![
        ("exact", captured(EngineChoice::Exact, ShardPlan::default())),
        (
            "batched",
            captured(EngineChoice::Batched, ShardPlan::default()),
        ),
        (
            "sharded",
            captured(EngineChoice::Sharded, ShardPlan::new(3)),
        ),
        (
            "mean-field",
            captured(EngineChoice::MeanField, ShardPlan::default()),
        ),
        (
            "hybrid",
            captured(EngineChoice::Hybrid, ShardPlan::default()),
        ),
        ("ensemble", ensemble.capture()),
    ]
}

fn single_scenario() -> ScenarioConfig {
    ScenarioConfig::new(600, 3).with_seed(5).with_samples(400)
}

fn ensemble_scenario() -> ScenarioConfig {
    ScenarioConfig::new(500, 3).with_seed(6).with_replicas(3)
}

/// A failed record with a negative priority: every scalar kind a record
/// carries.
fn job_record() -> JobRecord {
    JobRecord {
        id: JobId(12),
        priority: -3,
        state: JobState::Failed,
        scenario: single_scenario(),
        error: Some("invalid configuration: \"n\" must be positive\tsee docs".to_string()),
    }
}

#[test]
fn committed_bench_records_are_canonical() {
    for name in ["BENCH_engines.json", "BENCH_engines_quick.json"] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_canonical(name, text.trim_end_matches('\n'));
    }
}

#[test]
fn every_backends_checkpoint_is_canonical() {
    for (kind, checkpoint) in checkpoints() {
        if kind != "hybrid" {
            assert_eq!(checkpoint.kind(), kind);
        }
        let doc = checkpoint.to_json();
        if kind != "ensemble" {
            assert!(doc.contains("\"sim.seed\":9"), "{kind}: {doc}");
        }
        assert_canonical(kind, &doc);
        assert_eq!(Checkpoint::from_json(&doc).unwrap(), checkpoint);
    }
}

#[test]
fn result_scenario_and_record_documents_are_canonical() {
    let single = run(&single_scenario());
    let ensemble = run(&ensemble_scenario());
    for doc in [&single, &ensemble] {
        check_result_doc(&Json::parse(doc).unwrap()).unwrap();
    }
    assert_canonical("single result", &single);
    assert_canonical("ensemble result", &ensemble);
    assert_canonical("scenario", &ensemble_scenario().to_json());
    assert_canonical("job record", &job_record().to_json());
}

#[test]
fn progress_and_done_lines_are_canonical() {
    let server = Server::open(ServerConfig {
        workers: Some(1),
        progress_every: 200,
        ..ServerConfig::default()
    })
    .unwrap();
    let id = server.submit(single_scenario(), 0).unwrap();
    assert_eq!(server.wait(id).unwrap().state, JobState::Done);
    let (lines, terminal) = server.events(id, 0).unwrap();
    assert!(terminal && lines.len() >= 2, "{lines:?}");
    for line in &lines {
        check_progress_line(line).unwrap();
    }
    assert_canonical("progress line", &lines[0]);
    assert_canonical("done line", lines.last().unwrap());
    server.shutdown();
}

// --- Arbitrary bytes --------------------------------------------------------

/// A string parser entry point, reduced to its verdict and message.
type Parser = fn(&str) -> Result<(), String>;

const PARSERS: [(&str, Parser); 5] = [
    ("Json::parse", |text| Json::parse(text).map(drop)),
    (
        "Checkpoint::from_json",
        |text| match Checkpoint::from_json(text) {
            Ok(_) => Ok(()),
            Err(PpError::Checkpoint { reason }) => Err(reason),
            Err(other) => panic!("Checkpoint::from_json gave {other:?} for {text:?}"),
        },
    ),
    ("ScenarioConfig::from_json", |text| {
        ScenarioConfig::from_json(text).map(drop)
    }),
    ("JobRecord::from_json", |text| {
        JobRecord::from_json(text).map(drop)
    }),
    ("parse_request", |text| parse_request(text).map(drop)),
];

/// Feeds `bytes` (lossy UTF-8) to `parser`: it may fail, with a message.
fn feed((name, parser): (&str, Parser), bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Err(e) = parser(&text) {
        assert!(!e.is_empty(), "{name} gave an empty error for {text:?}");
    }
}

/// A state directory for one test, emptied.
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("json_codec_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Opens a server on `dir` whose `jobs.log` holds `log`, checks every
/// result it would serve, and halts it.
fn open_on_log(dir: &std::path::Path, log: &[u8]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("jobs.log"), log).unwrap();
    let server = Server::open(ServerConfig {
        workers: Some(1),
        state_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| panic!("open failed on {:?}: {e}", String::from_utf8_lossy(log)));
    for record in server.quarantined() {
        assert!(!record.reason.is_empty(), "{record:?}");
    }
    for status in server.list() {
        if let Some(result) = &status.result {
            let doc = Json::parse(result)
                .unwrap_or_else(|e| panic!("job {} serves unparsable {result:?}: {e}", status.id));
            check_result_doc(&doc).unwrap_or_else(|e| {
                panic!(
                    "job {} serves a result failing check_result_doc ({e}) from log {:?}",
                    status.id,
                    String::from_utf8_lossy(log)
                )
            });
        }
    }
    server.kill();
}

/// A job log with a done job (record and result line) and a cancelled one.
fn valid_log() -> Vec<u8> {
    let scenario = ScenarioConfig::new(60, 2).with_seed(3);
    let done = JobRecord {
        id: JobId(1),
        priority: 0,
        state: JobState::Done,
        scenario,
        error: None,
    };
    let cancelled = JobRecord {
        id: JobId(2),
        priority: -1,
        state: JobState::Cancelled,
        ..done.clone()
    };
    format!(
        "{}\n{}{}\n",
        done.to_json(),
        job::result_line(JobId(1), &run(&scenario)),
        cancelled.to_json()
    )
    .into_bytes()
}

/// Every prefix of `doc`, then `doc` with each byte XOR-ed by each mask.
fn truncations_and_flips(doc: &[u8], masks: &[u8], mut check: impl FnMut(&[u8])) {
    for end in 0..doc.len() {
        check(&doc[..end]);
    }
    let mut flipped = doc.to_vec();
    for i in 0..doc.len() {
        for &mask in masks {
            flipped[i] ^= mask;
            check(&flipped);
            flipped[i] ^= mask;
        }
    }
}

const EVERY_BIT: [u8; 8] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80];

#[test]
fn every_truncation_and_flip_of_a_valid_document_fails_cleanly() {
    let request = format!(
        "{{\"op\":\"submit\",\"scenario\":{},\"priority\":-2}}",
        single_scenario().to_json()
    );
    // One valid document per parser, in `PARSERS` order.
    let docs = [
        run(&ensemble_scenario()),
        captured(EngineChoice::Sharded, ShardPlan::new(3)).to_json(),
        single_scenario().to_json(),
        job_record().to_json(),
        request,
    ];
    for (parser, doc) in PARSERS.into_iter().zip(&docs) {
        assert_eq!(
            parser.1(doc),
            Ok(()),
            "{} rejects its valid document",
            parser.0
        );
        truncations_and_flips(doc.as_bytes(), &EVERY_BIT, |bytes| feed(parser, bytes));
    }
}

#[test]
fn a_reopened_server_never_serves_a_damaged_result() {
    let dir = state_dir("flips");
    let log = valid_log();
    truncations_and_flips(&log, &[0x01], |bytes| open_on_log(&dir, bytes));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_result_with_a_flipped_interactions_digit_is_not_served() {
    // The damaged document still parses and passes `check_result_doc`;
    // only the line's checksum tells it apart.  The reopened server sets
    // the line aside and runs the job again, which stores the original.
    let dir = state_dir("interactions");
    let log = String::from_utf8(valid_log()).unwrap();
    let doc = run(&ScenarioConfig::new(60, 2).with_seed(3));
    let at = doc.find("\"interactions\":").unwrap() + "\"interactions\":".len();
    let digit = doc.as_bytes()[at];
    assert!(digit.is_ascii_digit(), "{doc}");
    let flipped = if digit == b'9' { b'8' } else { digit + 1 };
    let mut damaged_doc = doc.clone().into_bytes();
    damaged_doc[at] = flipped;
    let damaged_doc = String::from_utf8(damaged_doc).unwrap();
    check_result_doc(&Json::parse(&damaged_doc).unwrap()).expect("still a result document");
    let damaged_log = log.replacen(&doc, &damaged_doc, 1);
    assert_ne!(damaged_log, log);

    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("jobs.log"), &damaged_log).unwrap();
    let server = Server::open(ServerConfig {
        workers: Some(1),
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let skipped = server.quarantined();
    assert_eq!(skipped.len(), 1, "{skipped:?}");
    assert_eq!(skipped[0].file, "jobs.log:2");
    assert!(
        skipped[0].reason.starts_with("result checksum mismatch"),
        "{skipped:?}"
    );
    let status = server.wait(JobId(1)).unwrap();
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.result.as_deref(), Some(doc.as_str()));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sink that keeps every capture's document.
struct Collect(Arc<Mutex<Vec<String>>>);

impl CheckpointSink for Collect {
    fn store(&mut self, document: &str) -> Result<(), PpError> {
        self.0.lock().unwrap().push(document.to_string());
        Ok(())
    }
}

/// Progress cadence of the reopened servers below.
const RESUMED_PROGRESS: u64 = 40;
/// Checkpoint cadence of the captured run below.
const CAPTURE_EVERY: u64 = 100;

/// A job log holding job 1 `running` and three of its checkpoint lines,
/// with the byte range of each checkpoint line (newline included), the
/// captures' interaction counts, and the job's standalone result.
fn running_log() -> (Vec<u8>, Vec<std::ops::Range<usize>>, Vec<u64>, String) {
    let scenario = ScenarioConfig::new(200, 3)
        .with_seed(3)
        .with_engine(EngineChoice::Batched);
    let docs = Arc::new(Mutex::new(Vec::new()));
    let boundaries = std::cell::Cell::new(0);
    let halt = || {
        boundaries.set(boundaries.get() + 1);
        (boundaries.get() > 8).then_some(Interrupt::Halted)
    };
    let verdict = run_scenario(
        &scenario,
        RunControl {
            progress_every: RESUMED_PROGRESS,
            interrupt: Some(&halt),
            sink: Some((Box::new(Collect(Arc::clone(&docs))), CAPTURE_EVERY)),
            ..RunControl::default()
        },
    )
    .unwrap();
    assert!(matches!(
        verdict,
        RunVerdict::Interrupted(Interrupt::Halted)
    ));
    // The periodic captures, at least `CAPTURE_EVERY` apart (the halt's
    // own capture comes last and is left out).
    let docs: Vec<String> = docs.lock().unwrap()[..3].to_vec();
    let record = JobRecord {
        id: JobId(1),
        priority: 0,
        state: JobState::Running,
        scenario,
        error: None,
    };
    let mut log = record.to_json() + "\n";
    let (mut lines, mut at) = (Vec::new(), Vec::new());
    for doc in &docs {
        let mut line = String::new();
        job::write_ckpt_line(&mut line, JobId(1), doc);
        lines.push(log.len()..log.len() + line.len());
        log.push_str(&line);
        let checkpoint = Checkpoint::from_json(doc).unwrap();
        let EngineState::Batched(snapshot) = checkpoint.engine() else {
            panic!("a batched run captures batched state");
        };
        at.push(snapshot.interactions);
    }
    assert!(
        at.windows(2).all(|w| w[1] >= w[0] + CAPTURE_EVERY),
        "{at:?}"
    );
    (log.into_bytes(), lines, at, run(&scenario))
}

/// Opens a server on a copy of `log`, runs job 1 to its end and returns
/// what it quarantined and the interactions of the job's first progress
/// event (`None` when the log no longer names the job).
fn reopen_running(dir: &std::path::Path, log: &[u8], golden: &str) -> (Vec<String>, Option<u64>) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("jobs.log"), log).unwrap();
    let server = Server::open(ServerConfig {
        workers: Some(1),
        state_dir: Some(dir.to_path_buf()),
        progress_every: RESUMED_PROGRESS,
        checkpoint_every: u64::MAX,
    })
    .unwrap();
    let skipped = server
        .quarantined()
        .iter()
        .map(|q| {
            assert!(!q.reason.is_empty(), "{q:?}");
            q.file.clone()
        })
        .collect();
    let first = server.status(JobId(1)).map(|_| {
        let status = server.wait(JobId(1)).unwrap();
        assert_eq!(status.state, JobState::Done);
        assert_eq!(status.result.as_deref(), Some(golden), "the job moved");
        let (events, _) = server.events(JobId(1), 0).unwrap();
        Json::parse(&events[0])
            .unwrap()
            .get("interactions")
            .and_then(Json::as_u64)
            .expect("the job emits progress before it ends")
    });
    server.shutdown();
    (skipped, first)
}

/// Whether a job's first progress event shows it resumed from a capture
/// at `from` interactions (`0`: it started over): the event comes at the
/// first event one progress cadence after that, before the next capture.
fn resumed_from(first: Option<u64>, from: u64) -> bool {
    first.is_some_and(|i| (from + RESUMED_PROGRESS..from + CAPTURE_EVERY).contains(&i))
}

#[test]
fn a_reopened_server_resumes_from_the_last_whole_verified_capture() {
    let dir = state_dir("captures");
    let (log, lines, at, golden) = running_log();
    // Where a job resumes whose usable capture lines are the first
    // `whole` ones.
    let resume_at = |whole: usize| if whole == 0 { 0 } else { at[whole - 1] };

    // A kill at any byte: the job resumes from its last whole capture line,
    // and a torn one is no damage to report.
    for end in 0..=log.len() {
        let (skipped, first) = reopen_running(&dir, &log[..end], &golden);
        assert!(skipped.is_empty(), "cut {end}: {skipped:?}");
        if end < lines[0].start {
            assert_eq!(first, None, "cut {end}: the record line is torn");
            continue;
        }
        let whole = lines.iter().filter(|l| l.end <= end).count();
        assert!(
            resumed_from(first, resume_at(whole)),
            "cut {end}: first progress at {first:?}, want a resume from {}",
            resume_at(whole)
        );
    }

    // A flipped bit in a capture line: the line is named and set aside,
    // and the job resumes from the last capture line left whole — never
    // from a damaged one.  A flipped newline merges the line with the
    // next, or, the last one, leaves a torn tail.
    let mut flipped = log.clone();
    for (j, line) in lines.iter().enumerate() {
        for i in line.clone() {
            flipped[i] ^= 0x01;
            let (skipped, first) = reopen_running(&dir, &flipped, &golden);
            flipped[i] ^= 0x01;
            let last = lines.len() - 1;
            let damaged = if i == line.end - 1 {
                j..j + 2
            } else {
                j..j + 1
            };
            let usable = (0..=last).rev().find(|l| !damaged.contains(l));
            let want: Vec<String> = if i == log.len() - 1 {
                Vec::new()
            } else {
                vec![format!("jobs.log:{}", j + 2)]
            };
            assert_eq!(skipped, want, "flip at byte {i}");
            let from = resume_at(usable.map_or(0, |l| l + 1));
            assert!(
                resumed_from(first, from),
                "flip at byte {i}: first progress at {first:?}, want a resume from {from}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// JSON fragments mixed into the random byte strings, so cases get past
/// the first byte.
const FRAGMENTS: [&str; 24] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u00",
    "null",
    "true",
    "-",
    "0",
    "18446744073709551616",
    "1e999",
    "2.5",
    "\"op\":",
    "\"submit\"",
    "\"scenario\":",
    "\"format\":1",
    "\"kind\":\"sharded\"",
    "\"engine\":",
    "\"job\":1,\"id\":",
    "result 1 ",
];

/// Random bytes: values below 256 are raw bytes, the rest pick a fragment.
fn hostile(picks: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    for &p in picks {
        match u8::try_from(p) {
            Ok(b) => out.push(b),
            Err(_) => out.extend_from_slice(FRAGMENTS[p as usize % FRAGMENTS.len()].as_bytes()),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn random_bytes_never_panic_a_parser(picks in proptest::collection::vec(0u32..512, 0..160)) {
        let bytes = hostile(&picks);
        for parser in PARSERS {
            feed(parser, &bytes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_job_logs_never_panic_or_serve_bad_results(
        picks in proptest::collection::vec(0u32..512, 0..120),
    ) {
        let dir = state_dir("random");
        let mut log = hostile(&picks);
        log.push(b'\n');
        open_on_log(&dir, &log);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
