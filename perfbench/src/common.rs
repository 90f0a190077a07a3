//! Seeded input generation, order statistics, and the output checks every
//! workload applies to the result documents it gets back.

use crate::trace::Tracer;
use crate::{speed, Report};
use pp_core::{Configuration, EngineChoice, RunResult, SimSeed, StopCondition};
use pp_service::json::Json;
use pp_service::{run_scenario, RunControl, RunVerdict, ScenarioConfig, ScenarioOutcome};
use pp_workloads::BiasSpec;

/// Parses and validates a scenario document (the `usd_run --scenario` and
/// service wire path).
pub fn parse_scenario(text: &str) -> Result<ScenarioConfig, String> {
    let scenario = ScenarioConfig::from_json(text)?;
    scenario.validate()?;
    Ok(scenario)
}

/// `run_scenario` with `RunControl::default()`, which always finishes.
pub fn run_to_finish(scenario: &ScenarioConfig) -> Result<ScenarioOutcome, String> {
    match run_scenario(scenario, RunControl::default())? {
        RunVerdict::Finished(outcome) => Ok(outcome),
        RunVerdict::Interrupted(kind) => Err(format!("uninterruptible run stopped: {kind:?}")),
    }
}

/// One job through the `usd_run --scenario` path: parse and validate,
/// `run_scenario`, `result_json`.
pub fn run_job(text: &str) -> Result<(ScenarioConfig, String), String> {
    let scenario = parse_scenario(text)?;
    let outcome = run_to_finish(&scenario)?;
    Ok((scenario, pp_service::result_json(&outcome)))
}

/// Times a job in segments of process CPU time, each scaled to full speed
/// (see [`speed`]) by the kernel readings at both of its ends; the
/// kernel's own time is excluded.
pub struct Segments {
    kernel: f64,
    start: f64,
    done: Vec<f64>,
}

impl Segments {
    pub fn start() -> Self {
        let kernel = speed::kernel();
        Segments {
            kernel,
            start: speed::process_cpu_s(),
            done: Vec::new(),
        }
    }

    /// Closes the current segment and opens the next.
    pub fn close(&mut self) {
        let cpu = speed::process_cpu_s() - self.start;
        let next = speed::kernel();
        self.done
            .push(cpu * speed::to_full_speed(self.kernel, next));
        self.kernel = next;
        self.start = speed::process_cpu_s();
    }

    /// Closes the last segment and returns every segment's duration.
    pub fn finish(mut self) -> Vec<f64> {
        self.close();
        self.done
    }
}

/// A closed loop's job: parse, run and `result_json` one scenario document,
/// returning the scenario, its document and its full-speed segments.
pub type TimedJob = Result<(ScenarioConfig, String, Vec<f64>), String>;

/// [`run_job`] with a progress hook that only marks each pause boundary
/// (one per `n` interactions for single runs) as a segment end.  Hooks
/// never move a trajectory, so the segments of identical jobs cover
/// identical work.
pub fn run_job_segments(text: &str) -> TimedJob {
    let mut segments = Segments::start();
    let scenario = parse_scenario(text)?;
    let mut on_progress = |_: pp_service::ProgressEvent| segments.close();
    let control = RunControl {
        progress: Some(&mut on_progress),
        ..RunControl::default()
    };
    let outcome = match run_scenario(&scenario, control)? {
        RunVerdict::Finished(outcome) => outcome,
        RunVerdict::Interrupted(kind) => {
            return Err(format!("uninterruptible run stopped: {kind:?}"))
        }
    };
    let doc = pp_service::result_json(&outcome);
    Ok((scenario, doc, segments.finish()))
}

/// Runs the same jobs back to back, pass after pass, until `seconds` have
/// passed, and sets the end-to-end metrics from each job's fastest
/// segments: a job's time is the sum, over its segments, of the fastest
/// pass's full-speed time for that segment.  Scaling to full speed (see
/// [`speed`]) removes the host's slow stretches; the per-segment minimum
/// removes what scaling misses when the speed changes inside a segment.
/// `run` runs one job (see [`TimedJob`]); every repetition must reproduce
/// the first one's document and segment count.
///
/// `setup` runs before every pass (and `SETUP_REPS` times in all before
/// the first), so its repetitions spread over the run; `setup_s` is their
/// median.
pub fn closed_loop(
    texts: &[String],
    seconds: f64,
    report: &mut Report,
    mut setup: impl FnMut() -> Result<f64, String>,
    run: impl Fn(&str) -> TimedJob,
) -> Result<(), String> {
    let mut setups = Vec::new();
    for _ in 1..crate::SETUP_REPS {
        setups.push(at_full_speed(&mut setup)?);
    }
    let mut best: Vec<Vec<f64>> = vec![Vec::new(); texts.len()];
    let mut first: Vec<Option<String>> = vec![None; texts.len()];
    let mut interactions = vec![0_u64; texts.len()];
    let start = std::time::Instant::now();
    let mut passes = 0;
    while passes < 2 || start.elapsed().as_secs_f64() < seconds {
        setups.push(at_full_speed(&mut setup)?);
        for (j, text) in texts.iter().enumerate() {
            report.attempted += 1;
            let (scenario, doc, segments) = match run(text) {
                Ok(job) => job,
                Err(e) => {
                    report.fail(text, &e);
                    continue;
                }
            };
            match &first[j] {
                Some(reference) if *reference != doc || best[j].len() != segments.len() => {
                    report.wrong(text, "a repetition changed the result document");
                    continue;
                }
                Some(_) => {
                    for (b, s) in best[j].iter_mut().zip(&segments) {
                        *b = b.min(*s);
                    }
                }
                None => {
                    match Expect::of(&scenario).and_then(|e| check_result(&doc, e)) {
                        Ok(n) => interactions[j] = n,
                        Err(e) => report.wrong(text, &e),
                    }
                    first[j] = Some(doc);
                    best[j] = segments;
                }
            }
        }
        passes += 1;
    }
    let finished: Vec<f64> = best
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| b.iter().sum())
        .collect();
    report.note(format!(
        "{passes} passes of {} jobs in {:?} segments; fastest latency per job {finished:?} s",
        texts.len(),
        best.iter().map(Vec::len).collect::<Vec<_>>()
    ));
    set_fastest_job_metrics(report, &finished, interactions.iter().sum());
    report.set("setup_s", percentile(&setups, 0.5));
    Ok(())
}

/// Sets the closed loops' throughput and latency metrics from each job's
/// fastest full-speed latency: the jobs run back to back, so their wall
/// time is the sum of those latencies.
pub fn set_fastest_job_metrics(report: &mut Report, finished: &[f64], interactions: u64) {
    let wall: f64 = finished.iter().sum();
    report.set("wall_s", wall);
    report.set("interactions_per_s", ratio(interactions as f64, wall));
    report.set("jobs_per_s", ratio(finished.len() as f64, wall));
    report.set("job_latency_s.p50", percentile(finished, 0.5));
    report.set("job_latency_s.p95", percentile(finished, 0.95));
}

/// Runs a step that reports its own seconds, and scales them to full
/// speed by kernel readings taken before and after it.
fn at_full_speed(step: &mut impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let before = speed::kernel();
    let seconds = step()?;
    Ok(seconds * speed::to_full_speed(before, speed::kernel()))
}

/// A closed loop's set-up: input generation, scenario parse and validate,
/// `InitialConfig::build` (inside [`Expect::of`]) and one warm-up job.
/// Returns the CPU seconds the process spent on it.
pub fn setup(inputs: impl Fn() -> Vec<String>) -> Result<f64, String> {
    let start = speed::process_cpu_s();
    for text in inputs() {
        Expect::of(&parse_scenario(&text)?)?;
    }
    let warm = warm_up_scenario();
    let doc = pp_service::result_json(&run_to_finish(&warm)?);
    check_result(&doc, Expect::of(&warm)?)?;
    Ok(speed::process_cpu_s() - start)
}

/// The set-up's warm-up job: a fixed small scenario, so its cost does not
/// move with the seed.
pub fn warm_up_scenario() -> ScenarioConfig {
    ScenarioConfig::new(200_000, 3)
        .with_seed(1)
        .with_bias(BiasSpec::Multiplicative(2.0))
        .with_engine(EngineChoice::Batched)
}

/// Builds a single-USD scenario's simulator exactly as `run_scenario` does
/// (the builder call in its own span), with the run's stop condition and
/// the layer its engine slices belong to.
pub fn usd_simulator(
    tr: &Tracer,
    scenario: &ScenarioConfig,
) -> Result<(usd_core::UsdSimulator, StopCondition, &'static str), String> {
    let seed = SimSeed::from_u64(scenario.seed);
    let spec = scenario.to_initial_config();
    let config = tr
        .span("pp-workloads.builder.build", || spec.build(seed))
        .map_err(|e| format!("invalid configuration: {e}"))?;
    let sim = usd_core::UsdSimulator::with_engine_fidelity(
        config,
        seed.child(1),
        spec.engine_choice(),
        spec.shard_plan(),
        spec.fidelity_config(),
    );
    let stop = StopCondition::consensus().or_max_interactions(scenario.interaction_budget());
    let layer = match scenario.effective_engine() {
        EngineChoice::Hybrid => "usd-core.hybrid",
        _ => "pp-core.engine",
    };
    Ok((sim, stop, layer))
}

/// Engine counters of single USD runs, from `RunResult::telemetry()`:
/// batched-engine runs feed `pp-core.engine`, hybrid runs feed
/// `usd-core.hybrid`.
#[derive(Default)]
pub struct EngineCounts {
    events: u64,
    nulls: u64,
    refreshes: u64,
    rows_patched: u64,
    rows_rebuilt: u64,
    switches: u64,
    hybrid_interactions: f64,
    mean_field_interactions: f64,
}

impl EngineCounts {
    pub fn add(&mut self, scenario: &ScenarioConfig, result: &RunResult) {
        let Some(t) = result.telemetry() else { return };
        let c = |name: &str| t.counter(name).unwrap_or(0);
        if scenario.effective_engine() == EngineChoice::Hybrid {
            self.switches += c("hybrid.switches");
            let interactions = result.interactions() as f64;
            self.hybrid_interactions += interactions;
            self.mean_field_interactions +=
                interactions * t.gauge("hybrid.mean_field_fraction").unwrap_or(0.0);
        } else {
            self.events += c("batched.events_drawn");
            self.nulls += c("batched.nulls_skipped");
            self.refreshes += c("batched.table_refreshes");
            self.rows_patched += c("maintenance.rows_patched");
            self.rows_rebuilt += c("maintenance.rows_rebuilt");
        }
    }

    /// Sets the `pp-core.engine.*` and `usd-core.hybrid.*` metrics; times
    /// and counts are scaled by `scale` (1 / passes for per-pass figures).
    pub fn report(&self, report: &mut Report, tr: &Tracer, scale: f64) {
        let engine = tr.layer("pp-core.engine");
        let (events, nulls) = (self.events as f64, self.nulls as f64);
        report.set("pp-core.engine.busy_s", engine.busy_s() * scale);
        report.set("pp-core.engine.events", events * scale);
        report.set("pp-core.engine.nulls_skipped", nulls * scale);
        report.set(
            "pp-core.engine.event_fraction",
            ratio(events, events + nulls),
        );
        report.set(
            "pp-core.engine.ns_per_event",
            ratio(engine.busy_ns as f64, events),
        );
        report.set(
            "pp-core.engine.rows_patched_fraction",
            ratio(
                self.rows_patched as f64,
                (self.rows_patched + self.rows_rebuilt) as f64,
            ),
        );
        report.set(
            "pp-core.engine.table_refreshes",
            self.refreshes as f64 * scale,
        );
        report.set(
            "usd-core.hybrid.busy_s",
            tr.layer("usd-core.hybrid").busy_s() * scale,
        );
        report.set("usd-core.hybrid.switches", self.switches as f64 * scale);
        report.set(
            "usd-core.hybrid.mean_field_fraction",
            ratio(self.mean_field_interactions, self.hybrid_interactions),
        );
    }
}

/// The per-call costs every traced workload measures: scenario parse,
/// `result_json`, and the workload builder.
pub fn set_common_layers(report: &mut Report, tr: &Tracer) {
    report.set(
        "pp-service.scenario.parse_us",
        tr.layer("pp-service.scenario.parse").mean_us(),
    );
    report.set(
        "pp-service.runner.result_json_us",
        tr.layer("pp-service.runner.result_json").mean_us(),
    );
    report.set(
        "pp-workloads.builder.build_s",
        tr.layer("pp-workloads.builder.build").mean_us() * 1e-6,
    );
}

/// SplitMix64: the benchmark's own input generator, so inputs depend only
/// on `--seed` and never on the library's RNG plumbing.
pub struct InputRng(u64);

impl InputRng {
    pub fn new(seed: u64) -> Self {
        InputRng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The paper's additive bias scale, `2·√n·ln n` agents.
pub fn paper_additive_bias(n: u64) -> BiasSpec {
    let n_f = n as f64;
    BiasSpec::Additive((2.0 * n_f.sqrt() * n_f.ln()).round() as u64)
}

/// Linear-interpolation percentile (`q` in `[0, 1]`; 0 for no samples).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a scenario's output must satisfy: its population, and the opinion
/// that has to win (the initial plurality, under the additive and
/// multiplicative biases the paper's theorems cover).
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    pub n: u64,
    pub winner: Option<usize>,
}

impl Expect {
    /// Builds the scenario's initial configuration (the same builder call
    /// the runner makes) to find its plurality.
    pub fn of(scenario: &ScenarioConfig) -> Result<Self, String> {
        let config = scenario
            .to_initial_config()
            .build(SimSeed::from_u64(scenario.seed))
            .map_err(|e| format!("invalid configuration: {e}"))?;
        let guaranteed = matches!(
            scenario.bias,
            BiasSpec::Additive(_) | BiasSpec::AdditiveInSqrtNLogN(_) | BiasSpec::Multiplicative(_)
        );
        Ok(Expect {
            n: scenario.population,
            winner: if guaranteed { plurality(&config) } else { None },
        })
    }
}

fn plurality(config: &Configuration) -> Option<usize> {
    let supports = config.supports();
    let max = *supports.iter().max()?;
    let mut leaders = supports.iter().enumerate().filter(|(_, &s)| s == max);
    let (first, _) = leaders.next()?;
    leaders.next().is_none().then_some(first)
}

/// Checks a canonical result document (single or ensemble) and returns the
/// interactions it simulated: every run reaches consensus within its
/// budget, final supports plus undecided sum to `n`, and the expected
/// plurality wins.
pub fn check_result(doc: &str, expect: Expect) -> Result<u64, String> {
    let doc = Json::parse(doc).map_err(|e| format!("result is not JSON: {e}"))?;
    let runs: Vec<&Json> = match doc.get("mode").and_then(Json::as_str) {
        Some("single") => vec![doc.get("run").ok_or("single result without \"run\"")?],
        Some("ensemble") => doc
            .get("results")
            .and_then(Json::as_array)
            .ok_or("ensemble result without \"results\"")?
            .iter()
            .collect(),
        other => return Err(format!("unknown result mode {other:?}")),
    };
    let mut interactions = 0_u64;
    for (i, run) in runs.iter().enumerate() {
        let outcome = run.get("outcome").and_then(Json::as_str);
        if outcome != Some("consensus") {
            return Err(format!("run {i} ended with {outcome:?}, not consensus"));
        }
        let fin = run.get("final").ok_or("run without \"final\"")?;
        let supports = fin
            .get("supports")
            .and_then(Json::as_array)
            .ok_or("final without supports")?;
        let total: u64 = supports.iter().filter_map(Json::as_u64).sum::<u64>()
            + fin.get("undecided").and_then(Json::as_u64).unwrap_or(0);
        if total != expect.n {
            return Err(format!(
                "run {i}: final counts sum to {total}, not n = {}",
                expect.n
            ));
        }
        if let Some(want) = expect.winner {
            let got = run.get("winner").and_then(Json::as_u64);
            if got != Some(want as u64) {
                return Err(format!(
                    "run {i}: opinion {got:?} won, but the initial plurality {want} must win"
                ));
            }
        }
        interactions += run
            .get("interactions")
            .and_then(Json::as_u64)
            .ok_or("run without interactions")?;
    }
    Ok(interactions)
}
