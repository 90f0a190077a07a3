//! `service-jobs`: one client submits small seeded jobs to an in-process
//! `pp_service::Server` (one worker, a state directory, progress events and
//! checkpoints every `CADENCE` interactions) and waits for each before it
//! submits the next.  The jobs are `TEMPLATES` seeded scenarios, each
//! submitted once per pass; a template's latency is its fastest repeat,
//! counted in the CPU time of the client and the worker and scaled to full
//! host speed (see `speed`).  CPU time leaves out the host's steal and the
//! waits on its shared disk, which moved whole runs by a third on a 2-core
//! Xeon VM; the time the program itself spends writing state files is in
//! it.
//!
//! Per-job fixed costs — validation, queueing, progress events, checkpoint
//! capture/encode/write, `result_json`, persistence — are a large share of
//! the time here and about zero in the closed-loop workloads.
//!
//! The whole process is pinned to one CPU: the worker thread inherits the
//! pin, so the calibration kernel, read by the client next to every job,
//! reads the speed of the CPU the job ran on.  An open loop would need the
//! client and the worker busy at the same time, and a kernel read on one
//! CPU says nothing about the other's speed on a shared host.
//!
//! The traced run offers the same jobs as an open loop at `RATE` jobs/s,
//! so queue waits and load-generator lag show per layer.
//!
//! After the timed phase one job per class is re-run directly and its
//! result document byte-compared with the server's.  In the traced run
//! those replays go through the layers one call at a time, resuming each
//! USD job from its first checkpoint, which measures the checkpoint unit
//! costs the server pays per capture.

use crate::common::{self, check_result, percentile, Expect, InputRng};
use crate::trace::{Tracer, ROOT};
use crate::{speed, Args, Report, OUT_DIR, SETUP_REPS};
use pp_core::{Checkpoint, EngineChoice, NullRecorder, Telemetry};
use pp_service::json::Json;
use pp_service::protocol;
use pp_service::{
    result_json, run_scenario, Dynamic, JobId, JobState, ProgressEvent, RunControl, RunVerdict,
    ScenarioConfig, ScenarioOutcome, Server, ServerConfig,
};
use pp_workloads::{BiasSpec, UndecidedSpec};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const WORKERS: usize = 1;
/// The traced open loop's rate in jobs per second: 40% of the ~40 jobs/s
/// the worker sustains back to back on this job mix (2-core Xeon VM).
const RATE: f64 = 16.0;
/// Interactions between progress events and between checkpoints: `n/4`
/// at the mid-range population.
const CADENCE: u64 = 7_500;
const POLL: Duration = Duration::from_millis(1);
/// How often the submitter reads the calibration kernel.
const CALIBRATE_EVERY: Duration = Duration::from_millis(50);
/// How long the submitter waits for stragglers after the last due time
/// before counting them as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
const CLASSES: usize = 10;
/// Populations per class.
const SIZES: usize = 8;
const TEMPLATES: usize = CLASSES * SIZES;

/// The run's distinct jobs: every class at the midpoints of `SIZES` equal
/// slices of `[1e4, 5e4]`, with seeded scenario seeds.  The populations are
/// fixed so the job sizes, and with them the latency percentiles, do not
/// move with the seed.  Template `t` has class `t % CLASSES`.
fn templates(seed: u64) -> Vec<ScenarioConfig> {
    let mut rng = InputRng::new(seed.wrapping_mul(0x3_0000_0007));
    let slice = 40_000 / SIZES as u64;
    (0..TEMPLATES)
        .map(|t| {
            let n = 10_000 + slice / 2 + (t / CLASSES) as u64 * slice;
            job(t % CLASSES, n, &mut rng)
        })
        .collect()
}

/// The template each job of the traced open loop uses: blocks holding every
/// template once, each block in a seeded order, so every run sees the same
/// mix and every template repeats.
fn schedule(seed: u64, count: usize) -> Vec<usize> {
    let mut rng = InputRng::new(seed.wrapping_mul(0x3_0000_000B));
    let mut order = Vec::with_capacity(count + TEMPLATES);
    while order.len() < count {
        let mut block: Vec<usize> = (0..TEMPLATES).collect();
        rng.shuffle(&mut block);
        order.extend(block);
    }
    order.truncate(count);
    order
}

fn job(class: usize, n: u64, rng: &mut InputRng) -> ScenarioConfig {
    let usd = |k: usize, bias: BiasSpec| {
        ScenarioConfig::new(n, k)
            .with_bias(bias)
            .with_engine(EngineChoice::Batched)
    };
    let scenario = match class {
        0 => usd(2, BiasSpec::None),
        1 => usd(3, BiasSpec::Multiplicative(2.0)),
        2 => usd(8, common::paper_additive_bias(n)),
        3 => usd(2, BiasSpec::Multiplicative(4.0)).with_undecided(UndecidedSpec::Fraction(0.2)),
        4 => usd(3, BiasSpec::TwoWayTie(0.6)),
        5 => usd(8, BiasSpec::Multiplicative(2.0)),
        6 => usd(3, BiasSpec::Multiplicative(4.0)).with_engine(EngineChoice::Hybrid),
        7 => usd(2, common::paper_additive_bias(n)),
        // A strong bias keeps the 3-Majority jobs, slow and with a wide
        // seed-to-seed spread under a weaker one, out of the p95.
        8 => usd(3, BiasSpec::Multiplicative(4.0)).with_dynamic(Dynamic::ThreeMajority),
        _ => usd(3, BiasSpec::None).with_dynamic(Dynamic::Median),
    };
    scenario.with_seed(rng.next_u64())
}

/// The templates (as scenario documents) and the traced open loop's
/// submission order.
struct Inputs {
    texts: Vec<String>,
    scenarios: Vec<ScenarioConfig>,
    expects: Vec<Expect>,
    order: Vec<usize>,
}

/// Input generation, parse and validate, `InitialConfig::build`, server
/// open and one warm-up job.  Returns the open server and the CPU seconds
/// the process spent.
fn setup(args: &Args, count: usize, dir: &Path) -> Result<(Inputs, Server, f64), String> {
    let start = speed::process_cpu_s();
    let texts: Vec<String> = templates(args.seed)
        .iter()
        .map(ScenarioConfig::to_json)
        .collect();
    let order = schedule(args.seed, count);
    let mut scenarios = Vec::with_capacity(TEMPLATES);
    let mut expects = Vec::with_capacity(TEMPLATES);
    for text in &texts {
        let scenario = common::parse_scenario(text)?;
        expects.push(Expect::of(&scenario)?);
        scenarios.push(scenario);
    }
    let _ = std::fs::remove_dir_all(dir);
    let server = Server::open(ServerConfig {
        workers: Some(WORKERS),
        state_dir: Some(dir.to_path_buf()),
        progress_every: CADENCE,
        checkpoint_every: CADENCE,
    })?;
    let warm = common::warm_up_scenario();
    let id = server.submit(warm, 0)?;
    let status = server.wait(id)?;
    let doc = status
        .result
        .ok_or_else(|| format!("warm-up job ended {}: {:?}", status.state, status.error))?;
    check_result(&doc, Expect::of(&warm)?)?;
    let inputs = Inputs {
        texts,
        scenarios,
        expects,
        order,
    };
    Ok((inputs, server, speed::process_cpu_s() - start))
}

#[derive(Default, Clone)]
struct Track {
    id: Option<JobId>,
    lag: f64,
    submitted: Option<Instant>,
    running: Option<Instant>,
    done: Option<Instant>,
    result: Option<String>,
    events: u64,
}

struct Phase {
    tracks: Vec<Track>,
    start: Instant,
    wall_s: f64,
    /// Calibration kernel readings `(when, seconds)`, see `speed`.
    kernel: Vec<(Instant, f64)>,
}

impl Phase {
    /// The factor scaling an interval to the host's full speed: from the
    /// kernel readings inside it, else the last one before its end.
    fn to_full_speed(&self, from: Instant, to: Instant) -> f64 {
        let inside: Vec<f64> = self
            .kernel
            .iter()
            .filter(|(t, _)| *t >= from && *t <= to)
            .map(|(_, k)| *k)
            .collect();
        let k = if inside.is_empty() {
            self.kernel
                .iter()
                .rev()
                .find(|(t, _)| *t <= to)
                .or(self.kernel.first())
                .map_or(speed::KERNEL_FULL_SPEED_S, |(_, k)| *k)
        } else {
            inside.iter().sum::<f64>() / inside.len() as f64
        };
        speed::to_full_speed(k, k)
    }
}

/// The open loop: job `i` is due `i / RATE` seconds after the start and is
/// parsed and submitted then, whatever is still running; between
/// submissions the submitter polls the outstanding jobs' status.
fn open_loop(tr: &Tracer, server: &Server, inputs: &Inputs, report: &mut Report) -> Phase {
    let count = inputs.order.len();
    let text = |i: usize| &inputs.texts[inputs.order[i]];
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / RATE);
    let mut tracks = vec![Track::default(); count];
    let mut outstanding: Vec<usize> = Vec::new();
    let mut kernel = vec![(start, speed::kernel())];
    let mut next = 0;
    loop {
        let now = Instant::now();
        if now.duration_since(kernel[kernel.len() - 1].0) >= CALIBRATE_EVERY {
            kernel.push((now, tr.span("bench.calibrate", speed::kernel)));
        }
        if next < count && now >= due(next) {
            let i = next;
            next += 1;
            report.attempted += 1;
            tracks[i].lag = now.duration_since(due(i)).as_secs_f64();
            let submitted = tr
                .span("pp-service.scenario.parse", || {
                    common::parse_scenario(text(i))
                })
                .and_then(|scenario| {
                    tr.span("pp-service.server.submit", || server.submit(scenario, 0))
                });
            match submitted {
                Ok(id) => {
                    tracks[i].id = Some(id);
                    tracks[i].submitted = Some(Instant::now());
                    outstanding.push(i);
                }
                Err(e) => report.fail(text(i), &format!("rejected: {e}")),
            }
            continue;
        }
        outstanding.retain(|&i| {
            let track = &mut tracks[i];
            let Some(id) = track.id else { return false };
            let status = tr.span("pp-service.server.status", || server.status(id));
            let seen = Instant::now();
            match status {
                Some(s) if s.state == JobState::Queued => true,
                Some(s) if s.state == JobState::Running => {
                    track.running.get_or_insert(seen);
                    true
                }
                Some(s) => {
                    track.running.get_or_insert(seen);
                    track.done = Some(seen);
                    track.events = s.events;
                    match s.result {
                        Some(doc) if s.state == JobState::Done => track.result = Some(doc),
                        _ => report.fail(text(i), &format!("job ended {}: {:?}", s.state, s.error)),
                    }
                    false
                }
                None => {
                    report.fail(text(i), "the server lost the job");
                    false
                }
            }
        });
        if next >= count && outstanding.is_empty() {
            break;
        }
        if next >= count && now > due(count) + DRAIN_LIMIT {
            for &i in &outstanding {
                report.fail(text(i), "not finished within the drain limit");
            }
            break;
        }
        let wake = if next < count {
            due(next).min(now + POLL)
        } else {
            now + POLL
        };
        tr.span("loadgen.idle", || {
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
        });
    }
    let end = tracks.iter().filter_map(|t| t.done).max().unwrap_or(start);
    Phase {
        tracks,
        start,
        wall_s: end.duration_since(start).as_secs_f64(),
        kernel,
    }
}

/// Checks every finished job's document — a template's repeats must all
/// reproduce its first document — and returns the interactions they
/// simulated and each template's fastest full-speed latency from the due
/// time (the minimum over identical repeats, which also drops the repeats
/// that queued behind a slow stretch).
fn check_phase(phase: &Phase, inputs: &Inputs, report: &mut Report) -> (u64, Vec<f64>) {
    let mut interactions = 0;
    let mut best = vec![f64::INFINITY; TEMPLATES];
    let mut first: Vec<Option<(&str, u64)>> = vec![None; TEMPLATES];
    for (i, track) in phase.tracks.iter().enumerate() {
        let (Some(doc), Some(done)) = (&track.result, track.done) else {
            continue;
        };
        let t = inputs.order[i];
        let due = phase.start + Duration::from_secs_f64(i as f64 / RATE);
        let latency = done.saturating_duration_since(due).as_secs_f64();
        best[t] = best[t].min(latency * phase.to_full_speed(due, done));
        match first[t] {
            Some((reference, n)) if reference == doc => interactions += n,
            Some(_) => report.wrong(&inputs.texts[t], "a repeat changed the result document"),
            None => match check_result(doc, inputs.expects[t]) {
                Ok(n) => {
                    interactions += n;
                    first[t] = Some((doc, n));
                }
                Err(e) => report.wrong(&inputs.texts[t], &e),
            },
        }
    }
    let mut slowest: Vec<(f64, usize)> = best.iter().copied().zip(0..).collect();
    slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
    report.note(format!(
        "slowest templates (latency s, class, n): {:?}",
        slowest
            .iter()
            .take(6)
            .map(|&(l, t)| (l, t % CLASSES, inputs.scenarios[t].population))
            .collect::<Vec<_>>()
    ));
    (
        interactions,
        best.into_iter().filter(|b| b.is_finite()).collect(),
    )
}

/// The jobs re-run after the phase: the first finished job of each of the
/// first `CLASSES` templates, i.e. one per class at the smallest
/// populations.
fn replay_jobs(phase: &Phase, inputs: &Inputs) -> Vec<usize> {
    (0..CLASSES)
        .filter_map(|t| {
            (0..phase.tracks.len())
                .find(|&i| inputs.order[i] == t && phase.tracks[i].result.is_some())
        })
        .collect()
}

pub fn run(args: &Args, tr: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let cpu = speed::pin_to_current_cpu()?;
    // A traced run splits `--seconds` between its untraced and traced open
    // loops.
    let count = if tr.is_on() {
        ((RATE * args.seconds / 2.0).round() as usize).max(TEMPLATES)
    } else {
        TEMPLATES
    };
    let dir = PathBuf::from(OUT_DIR).join(format!("service-state-{}", std::process::id()));
    let mut setups = Vec::new();
    let mut opened = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, server)) = opened.take() {
            Server::shutdown(server);
        }
        let before = speed::kernel();
        let (inputs, server, secs) = setup(args, count, &dir)?;
        setups.push(secs * speed::to_full_speed(before, speed::kernel()));
        opened = Some((inputs, server));
    }
    let (inputs, server) = opened.expect("at least one set-up");
    report.set("setup_s", percentile(&setups, 0.5));

    let result = if tr.is_on() {
        let traced = traced(tr, &server, &inputs, &dir, report);
        server.shutdown();
        traced
    } else {
        closed_loop(server, &dir, &inputs, args, setups, &mut report).map(|served| {
            for (t, doc) in served.iter().enumerate().take(CLASSES) {
                if let Some(doc) = doc {
                    replay_plain(&inputs, t, doc, &mut report);
                }
            }
            report.note(format!(
                "{TEMPLATES} templates through {WORKERS} worker, all pinned to CPU {cpu}"
            ));
            report
        })
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The timed phase: the client submits each job and waits for it before
/// the next, pass after pass (every template once per pass, in a seeded
/// order) until `--seconds` have passed.  A job's latency is the CPU time
/// the process spends from its parse and submit to `Server::wait`
/// returning, scaled to full speed by the kernel readings on either side
/// of it (see `speed`).  Every repeat must reproduce the template's first
/// document.  Each pass after the first repeats the set-up, which reopens
/// the server on an emptied state directory: its memory and files stay
/// those of one pass however many passes fit, and `setup_s` is the median
/// set-up of the run.  Returns the documents.
fn closed_loop(
    mut server: Server,
    dir: &Path,
    inputs: &Inputs,
    args: &Args,
    mut setups: Vec<f64>,
    report: &mut Report,
) -> Result<Vec<Option<String>>, String> {
    let mut best = vec![f64::INFINITY; TEMPLATES];
    let mut first: Vec<Option<String>> = vec![None; TEMPLATES];
    let mut interactions = 0;
    let mut rng = InputRng::new(args.seed.wrapping_mul(0x3_0000_000B));
    let start = Instant::now();
    let mut passes = 0;
    let mut kernel = speed::kernel();
    while passes < 2 || start.elapsed().as_secs_f64() < args.seconds {
        if passes > 0 {
            server.shutdown();
            // Emptying the state directory is not part of the set-up.
            let _ = std::fs::remove_dir_all(dir);
            let before = speed::kernel();
            let (_, reopened, secs) = setup(args, TEMPLATES, dir)?;
            setups.push(secs * speed::to_full_speed(before, speed::kernel()));
            server = reopened;
            kernel = speed::kernel();
        }
        let mut order: Vec<usize> = (0..TEMPLATES).collect();
        rng.shuffle(&mut order);
        for t in order {
            report.attempted += 1;
            let text = &inputs.texts[t];
            let job_start = speed::process_cpu_s();
            let status = common::parse_scenario(text)
                .and_then(|scenario| server.submit(scenario, 0))
                .and_then(|id| server.wait(id));
            let cpu = speed::process_cpu_s() - job_start;
            let next = speed::kernel();
            let latency = cpu * speed::to_full_speed(kernel, next);
            kernel = next;
            let doc = match status {
                Err(e) => {
                    report.fail(text, &e);
                    continue;
                }
                Ok(s) => match s.result {
                    Some(doc) if s.state == JobState::Done => doc,
                    _ => {
                        report.fail(text, &format!("job ended {}: {:?}", s.state, s.error));
                        continue;
                    }
                },
            };
            match &first[t] {
                Some(reference) if *reference != doc => {
                    report.wrong(text, "a repeat changed the result document");
                }
                Some(_) => best[t] = best[t].min(latency),
                None => {
                    match check_result(&doc, inputs.expects[t]) {
                        Ok(n) => interactions += n,
                        Err(e) => report.wrong(text, &e),
                    }
                    best[t] = latency;
                    first[t] = Some(doc);
                }
            }
        }
        passes += 1;
    }
    report.note(format!("{passes} passes of {TEMPLATES} jobs"));
    server.shutdown();
    let finished: Vec<f64> = best.into_iter().filter(|b| b.is_finite()).collect();
    common::set_fastest_job_metrics(report, &finished, interactions);
    report.set("setup_s", percentile(&setups, 0.5));
    Ok(first)
}

/// Re-runs template `t` directly and byte-compares its document with the
/// server's.
fn replay_plain(inputs: &Inputs, t: usize, served: &str, report: &mut Report) {
    report.attempted += 1;
    match common::run_to_finish(&inputs.scenarios[t]) {
        Ok(outcome) if result_json(&outcome) == served => {}
        Ok(_) => report.wrong(&inputs.texts[t], "served result differs from a direct run"),
        Err(e) => report.fail(&inputs.texts[t], &e),
    }
}

fn traced(
    tr: &Tracer,
    server: &Server,
    inputs: &Inputs,
    dir: &Path,
    mut report: Report,
) -> Result<Report, String> {
    let count = inputs.order.len();
    // Untraced phase first: the overhead base, and the documents the
    // traced phase's resubmitted jobs must reproduce.
    let untraced = open_loop(&Tracer::new(false), server, inputs, &mut report);
    check_phase(&untraced, inputs, &mut report);

    let ckpt_path = dir.join("replay.ckpt.json");
    let mut phase = None;
    let mut captures = 0;
    let mut capture_bytes = 0;
    let mut counts = common::EngineCounts::default();
    tr.span(ROOT, || {
        let p = open_loop(tr, server, inputs, &mut report);
        tr.span("bench.check", || {
            check_phase(&p, inputs, &mut report);
            for (i, (a, b)) in p.tracks.iter().zip(&untraced.tracks).enumerate() {
                if a.result.is_some() && b.result.is_some() && a.result != b.result {
                    let t = inputs.order[i];
                    report.wrong(&inputs.texts[t], "resubmitting the job changed its result");
                }
            }
            for track in &p.tracks {
                let Some(id) = track.id else { continue };
                let (c, b) = last_checkpoint_counters(server, id);
                captures += c;
                capture_bytes += b;
            }
        });
        for i in replay_jobs(&p, inputs) {
            replay_traced(tr, &p, inputs, i, &ckpt_path, &mut report, &mut counts);
        }
        phase = Some(p);
    });
    let phase = phase.expect("the traced phase ran");

    let waits: Vec<f64> = phase
        .tracks
        .iter()
        .filter_map(|t| Some(t.running?.duration_since(t.submitted?).as_secs_f64()))
        .collect();
    let runs: Vec<f64> = phase
        .tracks
        .iter()
        .filter_map(|t| Some(t.done?.duration_since(t.running?).as_secs_f64()))
        .collect();
    let lags: Vec<f64> = phase.tracks.iter().map(|t| t.lag).collect();
    let events: Vec<f64> = phase
        .tracks
        .iter()
        .filter(|t| t.done.is_some())
        .map(|t| t.events as f64)
        .collect();
    let (persisted, files) = persisted_bytes(dir);
    counts.report(&mut report, tr, 1.0);
    report.set("pp-core.checkpoint.captures", captures as f64);
    report.set("pp-core.checkpoint.bytes", capture_bytes as f64);
    for (metric, span) in [
        (
            "pp-core.checkpoint.capture_us",
            "pp-core.checkpoint.capture",
        ),
        ("pp-core.checkpoint.encode_us", "pp-core.checkpoint.encode"),
        ("pp-core.checkpoint.write_us", "pp-core.checkpoint.write"),
        ("pp-core.checkpoint.decode_us", "pp-core.checkpoint.decode"),
        (
            "pp-core.checkpoint.restore_us",
            "pp-core.checkpoint.restore",
        ),
        ("pp-service.server.submit_us", "pp-service.server.submit"),
        ("pp-service.protocol.event_us", "pp-service.protocol.event"),
    ] {
        report.set(metric, tr.layer(span).mean_us());
    }
    report.set(
        "pp-service.server.queue_wait_s.p50",
        percentile(&waits, 0.5),
    );
    report.set(
        "pp-service.server.queue_wait_s.p95",
        percentile(&waits, 0.95),
    );
    report.set("pp-service.server.run_s.p50", percentile(&runs, 0.5));
    report.set("pp-service.server.run_s.p95", percentile(&runs, 0.95));
    report.set(
        "pp-service.server.persist_bytes",
        common::ratio(persisted as f64, files as f64),
    );
    report.set(
        "pp-service.protocol.events_per_job",
        common::ratio(events.iter().sum(), events.len() as f64),
    );
    report.set("loadgen.lag_s.p50", percentile(&lags, 0.5));
    report.set("loadgen.lag_s.max", percentile(&lags, 1.0));
    common::set_common_layers(&mut report, tr);
    report.set(
        "trace.overhead_fraction",
        common::ratio(phase.wall_s, untraced.wall_s) - 1.0,
    );
    report.note(format!(
        "{count} jobs offered at {RATE} jobs/s per phase; untraced wall {:.3} s, \
         traced wall {:.3} s; {captures} checkpoint captures in the traced phase",
        untraced.wall_s, phase.wall_s
    ));
    Ok(report)
}

/// The `checkpoint.*` counters of a job's last progress event (the
/// server's own telemetry; sampling-dynamic jobs report none).
fn last_checkpoint_counters(server: &Server, id: JobId) -> (u64, u64) {
    let Ok((lines, _)) = server.events(id, 0) else {
        return (0, 0);
    };
    lines
        .iter()
        .rev()
        .filter_map(|line| Json::parse(line).ok())
        .find(|doc| doc.get("event").and_then(Json::as_str) == Some("progress"))
        .and_then(|doc| {
            let counters = doc.get("metrics")?.get("counters")?;
            let c = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
            Some((c("checkpoint.captures"), c("checkpoint.bytes")))
        })
        .unwrap_or((0, 0))
}

/// Total bytes and job records left in the state directory.
fn persisted_bytes(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    let mut bytes = 0;
    let mut jobs = 0;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        if name.starts_with("job-") || name.starts_with("result-") {
            bytes += entry.metadata().map_or(0, |m| m.len());
            jobs += u64::from(name.starts_with("job-"));
        }
    }
    (bytes, jobs)
}

/// Re-runs job `i` through the layers with the server's hooks — progress
/// events and checkpoints every `CADENCE` interactions — and byte-compares
/// the document.  USD jobs resume from their first checkpoint through
/// `Checkpoint::from_json` and `UsdSimulator::restore`.
fn replay_traced(
    tr: &Tracer,
    phase: &Phase,
    inputs: &Inputs,
    i: usize,
    ckpt_path: &Path,
    report: &mut Report,
    counts: &mut common::EngineCounts,
) {
    let (Some(served), Some(id)) = (&phase.tracks[i].result, phase.tracks[i].id) else {
        return;
    };
    let t = inputs.order[i];
    report.attempted += 1;
    let scenario = &inputs.scenarios[t];
    let outcome = if scenario.dynamic == Dynamic::Usd {
        replay_usd(tr, id, scenario, ckpt_path).map(|result| {
            counts.add(scenario, &result);
            ScenarioOutcome::Single(result)
        })
    } else {
        replay_sampler(tr, id, scenario, ckpt_path)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            report.fail(&inputs.texts[t], &e);
            return;
        }
    };
    let doc = tr.span("pp-service.runner.result_json", || result_json(&outcome));
    tr.span("bench.check", || {
        if doc != *served {
            report.wrong(
                &inputs.texts[t],
                "served result differs from the layer replay",
            );
        }
    });
}

fn replay_usd(
    tr: &Tracer,
    id: JobId,
    scenario: &ScenarioConfig,
    ckpt_path: &Path,
) -> Result<pp_core::RunResult, String> {
    let (mut sim, stop, layer) = common::usd_simulator(tr, scenario)?;
    let tel = Telemetry::enabled();
    sim.set_telemetry(tel.clone());
    let mut next_progress = CADENCE;
    let mut last_capture = 0;
    let mut seq = 0;
    let mut resumed = false;
    loop {
        let until = next_progress;
        let done = tr.span(layer, || {
            sim.run_interruptible(stop, &mut NullRecorder, &mut |i| i >= until)
        });
        if let Some(result) = done {
            return Ok(result);
        }
        let at = sim.interactions();
        let metrics = tel.snapshot();
        let event = ProgressEvent {
            interactions: Some(at),
            supports: Some(sim.configuration().supports().to_vec()),
            undecided: Some(sim.configuration().undecided()),
            metrics: (!metrics.is_empty()).then_some(metrics),
        };
        let line = tr.span("pp-service.protocol.event", || {
            protocol::progress_event(id, seq, &event)
        });
        std::hint::black_box(line);
        seq += 1;
        next_progress = at.saturating_add(CADENCE);
        if at - last_capture < CADENCE {
            continue;
        }
        last_capture = at;
        let checkpoint = tr
            .span("pp-core.checkpoint.capture", || sim.capture())
            .map_err(|e| e.to_string())?;
        let text = tr.span("pp-core.checkpoint.encode", || checkpoint.to_json());
        tr.span("pp-core.checkpoint.write", || {
            std::fs::write(ckpt_path, &text)
        })
        .map_err(|e| format!("cannot write {}: {e}", ckpt_path.display()))?;
        if !resumed {
            resumed = true;
            let decoded = tr
                .span("pp-core.checkpoint.decode", || Checkpoint::from_json(&text))
                .map_err(|e| e.to_string())?;
            sim = tr
                .span("pp-core.checkpoint.restore", || {
                    usd_core::UsdSimulator::restore(
                        &decoded,
                        scenario.to_initial_config().shard_plan(),
                    )
                })
                .map_err(|e| e.to_string())?;
            sim.set_telemetry(tel.clone());
        }
    }
}

fn replay_sampler(
    tr: &Tracer,
    id: JobId,
    scenario: &ScenarioConfig,
    ckpt_path: &Path,
) -> Result<ScenarioOutcome, String> {
    let mut seq = 0;
    let mut on_progress = |event: ProgressEvent| {
        let line = tr.span("pp-service.protocol.event", || {
            protocol::progress_event(id, seq, &event)
        });
        std::hint::black_box(line);
        seq += 1;
    };
    let control = RunControl {
        progress: Some(&mut on_progress),
        progress_every: CADENCE,
        checkpoint: Some((ckpt_path, CADENCE)),
        ..RunControl::default()
    };
    match tr.span("consensus-dynamics.sampler", || {
        run_scenario(scenario, control)
    })? {
        RunVerdict::Finished(outcome) => Ok(outcome),
        RunVerdict::Interrupted(kind) => Err(format!("uninterruptible run stopped: {kind:?}")),
    }
}
