//! Fault injection for the checkpoint journal (`pp_core::checkpoint::
//! CheckpointJournal`): a run's checkpoint file is cut at every byte
//! offset, as a kill mid-append would leave it, and each cut must load the
//! last whole capture — which resumes to the uninterrupted run's result —
//! or, inside the first line, fail with a named checkpoint error.

use k_opinion_usd::service::runner::{
    result_json, run_scenario, Interrupt, RunControl, RunVerdict,
};
use k_opinion_usd::service::scenario::{Dynamic, ScenarioConfig};
use pp_core::checkpoint::{remove_atomic, CheckpointJournal, JOURNAL_MAX_LINES};
use pp_core::{Checkpoint, EngineChoice, PpError};
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ckpt_journal_{name}_{}.json", std::process::id()))
}

/// Runs `scenario` to its end (optionally sinking checkpoints, optionally
/// resuming) and returns the canonical result document.
fn run(
    scenario: &ScenarioConfig,
    checkpoint: Option<(&Path, u64)>,
    resume: Option<&Checkpoint>,
) -> String {
    let control = RunControl {
        checkpoint,
        resume,
        ..RunControl::default()
    };
    let RunVerdict::Finished(outcome) = run_scenario(scenario, control).expect("run failed") else {
        panic!("a run without an interrupt hook finishes");
    };
    result_json(&outcome)
}

/// The byte offsets of the journal's newlines.
fn line_ends(journal: &[u8]) -> Vec<usize> {
    journal
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .map(|(i, _)| i)
        .collect()
}

/// Sinks `scenario`'s checkpoints every `cadence` interactions, then cuts
/// the journal at every byte offset and checks what `Checkpoint::load`
/// makes of each cut.
fn cut_at_every_byte(name: &str, scenario: &ScenarioConfig, cadence: u64) {
    let path = scratch(name);
    let expected = run(scenario, None, None);
    assert_eq!(
        run(scenario, Some((&path, cadence)), None),
        expected,
        "checkpointing moved the run"
    );
    let journal = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let ends = line_ends(&journal);
    assert!(
        ends.len() >= 3,
        "want ≥3 captures, the journal has {}",
        ends.len()
    );
    assert_eq!(
        ends.last(),
        Some(&(journal.len() - 1)),
        "the journal ends on a whole line"
    );

    let cut = scratch(&format!("{name}_cut"));
    let mut resumed = vec![false; ends.len()];
    for len in 0..=journal.len() {
        std::fs::write(&cut, &journal[..len]).unwrap();
        let loaded = Checkpoint::load(&cut);
        let whole = ends.iter().take_while(|&&end| end < len).count();
        if whole == 0 {
            if len == ends[0] {
                // The first document without its newline is a legacy
                // single-document file, parsed whole.
                let legacy = loaded.unwrap_or_else(|e| panic!("legacy file: {e}"));
                assert_eq!(legacy.to_json().as_bytes(), &journal[..len]);
            } else {
                match loaded {
                    Err(PpError::Checkpoint { reason }) => {
                        assert!(!reason.is_empty(), "cut at byte {len}");
                    }
                    other => panic!("cut at byte {len} inside the first line gave {other:?}"),
                }
            }
            continue;
        }
        let start = if whole == 1 { 0 } else { ends[whole - 2] + 1 };
        let line = std::str::from_utf8(&journal[start..ends[whole - 1]]).unwrap();
        let checkpoint = loaded.unwrap_or_else(|e| panic!("cut at byte {len}: {e}"));
        assert_eq!(checkpoint.to_json(), line, "cut at byte {len}");
        if !resumed[whole - 1] {
            resumed[whole - 1] = true;
            assert_eq!(
                run(scenario, None, Some(&checkpoint)),
                expected,
                "resuming from capture {whole} moved the run"
            );
        }
    }
    let _ = std::fs::remove_file(&cut);
}

#[test]
fn a_batched_usd_journal_cut_at_any_byte_loads_its_last_whole_capture() {
    let scenario = ScenarioConfig::new(3_000, 3)
        .with_seed(5)
        .with_engine(EngineChoice::Batched);
    cut_at_every_byte("usd", &scenario, 6_000);
}

#[test]
fn a_batched_sampler_journal_cut_at_any_byte_loads_its_last_whole_capture() {
    let scenario = ScenarioConfig::new(3_000, 3)
        .with_seed(6)
        .with_dynamic(Dynamic::ThreeMajority)
        .with_engine(EngineChoice::Batched);
    cut_at_every_byte("sampler", &scenario, 1_500);
}

#[test]
fn the_journal_starts_over_after_its_line_cap() {
    let scenario = ScenarioConfig::new(2_000, 3).with_seed(7);
    let path = scratch("cap");
    // One capture of a real run, stamped apart per append.
    run(&scenario, Some((&path, 2_000)), None);
    let base = Checkpoint::load(&path).unwrap();
    let mut journal = CheckpointJournal::new(&path);
    for i in 1..=3 * JOURNAL_MAX_LINES + 5 {
        let checkpoint = base.clone().with_meta("test.capture", i as u64);
        let bytes = journal.append(&checkpoint).unwrap();
        assert_eq!(
            bytes,
            checkpoint.to_json().len() as u64,
            "bytes exclude the newline"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.lines().count(),
            (i - 1) % JOURNAL_MAX_LINES + 1,
            "capture {i}"
        );
        assert_eq!(Checkpoint::load(&path).unwrap(), checkpoint);
    }
    // `save` writes a one-line journal over whatever was there.
    base.save(&path).unwrap();
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        base.to_json() + "\n"
    );
    let _ = remove_atomic(&path);
}

#[test]
fn a_halted_run_appends_its_final_capture_behind_the_periodic_ones() {
    let scenario = ScenarioConfig::new(3_000, 3)
        .with_seed(8)
        .with_engine(EngineChoice::Batched);
    let expected = run(&scenario, None, None);
    let path = scratch("halt");
    // Halt after five progress events, 5 000 interactions in: past two
    // periodic captures.
    let events = std::cell::Cell::new(0);
    let mut on_progress = |_| events.set(events.get() + 1);
    let halt = || (events.get() >= 5).then_some(Interrupt::Halted);
    let verdict = run_scenario(
        &scenario,
        RunControl {
            progress: Some(&mut on_progress),
            progress_every: 1_000,
            interrupt: Some(&halt),
            checkpoint: Some((&path, 2_000)),
            ..RunControl::default()
        },
    )
    .unwrap();
    assert!(matches!(
        verdict,
        RunVerdict::Interrupted(Interrupt::Halted)
    ));
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.lines().count() >= 2,
        "the halt capture replaced the journal instead of appending to it"
    );
    let checkpoint = Checkpoint::load(&path).unwrap();
    assert_eq!(text.lines().last(), Some(checkpoint.to_json().as_str()));
    assert_eq!(run(&scenario, None, Some(&checkpoint)), expected);
    let _ = std::fs::remove_file(&path);
}
