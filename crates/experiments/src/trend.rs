//! Stamped engine-benchmark records and the cross-PR trend check.
//!
//! `engine_bench` writes `BENCH_engines.json` with a top-level stamp
//! (workspace version, scale, seed) and a flat `entries` array — one
//! [`BenchEntry`] per `(engine, shards, n, k, bias)` cell — so successive
//! PRs produce *comparable* records.  The `bench_trend` binary re-reads two
//! such files and fails loudly when the batched or sharded engines'
//! interactions/sec regress beyond a threshold against the committed
//! baseline — or when a guarded cell carries corrupt (non-finite or
//! non-positive) measurements or has vanished from the current record,
//! both of which previously passed silently.
//!
//! Records are written and read back through the workspace's one JSON
//! codec, [`pp_core::json`]: a non-finite measurement is written as `null`
//! and reads back as NaN, so the trend check names the corrupt cell, and
//! the parser's nesting limit turns hostile input into a named error
//! instead of a stack overflow.

use crate::report::{fmt_f64, ExperimentReport};
use pp_core::json::{Json, ObjBuilder};
use std::fmt::Write as _;

/// One benchmark measurement, keyed by `(engine, shards, n, k, bias)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// The experiment that produced this cell ("E13", "E14"), part of the
    /// comparison key so experiments with overlapping sweeps never collide.
    pub experiment: String,
    /// Step-engine backend name (`exact`, `batched`, `sharded`, …).
    pub engine: String,
    /// Shard count (1 for unsharded engines).
    pub shards: u64,
    /// Population size.
    pub n: u64,
    /// Number of opinions.
    pub k: u64,
    /// Multiplicative bias of the workload.
    pub bias: f64,
    /// Interactions advanced by the measured run.
    pub interactions: u64,
    /// Wall-clock seconds of the measured run.
    pub seconds: f64,
    /// Interactions advanced per second.
    pub interactions_per_sec: f64,
    /// Throughput relative to the run's reference engine.
    pub speedup: f64,
    /// Flat engine-counter payload stamped from the measured run's metrics
    /// snapshot (`pp_core::telemetry` names → values).  Context for humans
    /// reading the record, never part of the comparison key; empty for
    /// cells whose backend predates the registry and in old baselines.
    pub telemetry: Vec<(String, f64)>,
}

impl BenchEntry {
    /// The comparison key identifying this cell across runs.
    #[must_use]
    pub fn key(&self) -> (String, String, u64, u64, u64, String) {
        (
            self.experiment.clone(),
            self.engine.clone(),
            self.shards,
            self.n,
            self.k,
            // Avoid f64 keys: two decimals is plenty for bias factors.
            format!("{:.2}", self.bias),
        )
    }

    fn to_json_value(&self) -> Json {
        let telemetry = (!self.telemetry.is_empty()).then(|| {
            Json::Obj(
                self.telemetry
                    .iter()
                    .map(|(name, value)| (name.clone(), Json::F64(*value)))
                    .collect(),
            )
        });
        ObjBuilder::new()
            .field("experiment", Json::Str(self.experiment.clone()))
            .field("engine", Json::Str(self.engine.clone()))
            .field("shards", Json::U64(self.shards))
            .field("n", Json::U64(self.n))
            .field("k", Json::U64(self.k))
            .field("bias", Json::F64(self.bias))
            .field("interactions", Json::U64(self.interactions))
            .field("seconds", Json::F64(self.seconds))
            .field("interactions_per_sec", Json::F64(self.interactions_per_sec))
            .field("speedup", Json::F64(self.speedup))
            .opt("telemetry", telemetry)
            .build()
    }
}

/// Renders the stamped benchmark document `engine_bench` writes: version and
/// run stamp, flat `entries`, and the full experiment reports for human
/// readers.
#[must_use]
pub fn render_stamped_document(
    workspace_version: &str,
    scale: &str,
    seed: u64,
    entries: &[BenchEntry],
    reports: &[ExperimentReport],
) -> String {
    ObjBuilder::new()
        .field(
            "workspace_version",
            Json::Str(workspace_version.to_string()),
        )
        .field("tool", Json::Str("engine_bench".to_string()))
        .field("scale", Json::Str(scale.to_string()))
        .field("seed", Json::U64(seed))
        .field(
            "entries",
            Json::Arr(entries.iter().map(BenchEntry::to_json_value).collect()),
        )
        .field(
            "reports",
            Json::Arr(
                reports
                    .iter()
                    .map(ExperimentReport::to_json_value)
                    .collect(),
            ),
        )
        .build()
        .to_json()
}

/// Reads the `entries` array of a stamped benchmark document.
///
/// # Errors
///
/// Returns an error when the document does not parse (including nesting
/// deeper than [`pp_core::json::MAX_NESTING`]) or lacks the expected
/// fields.  A measurement (`bias`, `seconds`, `interactions_per_sec`,
/// `speedup`) written as `null` — a non-finite value — reads back as NaN,
/// so [`compare_trend`] names the cell when it guards that measurement.
pub fn parse_entries(text: &str) -> Result<Vec<BenchEntry>, String> {
    let doc = Json::parse(text)?;
    let entries = doc
        .get("entries")
        .and_then(Json::as_array)
        .ok_or("document has no \"entries\" array (re-record with this PR's engine_bench)")?;
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let f = |key: &str| -> Result<f64, String> {
                e.get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("entry {i} lacks numeric field {key:?}"))
            };
            let measured = |key: &str| match e.get(key) {
                Some(Json::Null) => Ok(f64::NAN),
                _ => f(key),
            };
            Ok(BenchEntry {
                experiment: e
                    .get("experiment")
                    .and_then(Json::as_str)
                    .ok_or(format!("entry {i} lacks \"experiment\""))?
                    .to_string(),
                engine: e
                    .get("engine")
                    .and_then(Json::as_str)
                    .ok_or(format!("entry {i} lacks \"engine\""))?
                    .to_string(),
                shards: f("shards")? as u64,
                n: f("n")? as u64,
                k: f("k")? as u64,
                bias: measured("bias")?,
                interactions: f("interactions")? as u64,
                seconds: measured("seconds")?,
                interactions_per_sec: measured("interactions_per_sec")?,
                speedup: measured("speedup")?,
                // Optional and lenient: absent in records written before the
                // telemetry registry, and non-numeric values are skipped
                // rather than failing the whole baseline.
                telemetry: match e.get("telemetry") {
                    Some(Json::Obj(pairs)) => pairs
                        .iter()
                        .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                        .collect(),
                    _ => Vec::new(),
                },
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Trend comparison.

/// Which measurement the trend check guards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TrendMetric {
    /// Absolute interactions/sec.  Sensitive to the machine class the
    /// baseline was recorded on — only meaningful when baseline and current
    /// run on comparable hardware.
    #[default]
    InteractionsPerSec,
    /// The cell's speedup against its same-run reference engine (batched vs
    /// exact for E13, sharded vs batched for E14).  Machine-independent,
    /// which makes it the right gate for CI runners that differ from the
    /// machine the committed baseline was recorded on.
    Speedup,
}

impl TrendMetric {
    /// The measurement this metric reads from an entry.
    #[must_use]
    pub fn value(self, entry: &BenchEntry) -> f64 {
        match self {
            TrendMetric::InteractionsPerSec => entry.interactions_per_sec,
            TrendMetric::Speedup => entry.speedup,
        }
    }

    /// Short unit label for reports.
    #[must_use]
    pub fn unit(self) -> &'static str {
        match self {
            TrendMetric::InteractionsPerSec => "ips",
            TrendMetric::Speedup => "speedup",
        }
    }
}

impl std::str::FromStr for TrendMetric {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ips" | "interactions-per-sec" => Ok(TrendMetric::InteractionsPerSec),
            "speedup" => Ok(TrendMetric::Speedup),
            other => Err(format!(
                "unknown metric {other:?} (expected ips or speedup)"
            )),
        }
    }
}

/// The outcome of comparing one benchmark cell across two records.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendLine {
    /// The cell's entry in the baseline record.
    pub baseline: BenchEntry,
    /// The matching entry in the current record.
    pub current: BenchEntry,
    /// `current / baseline` on the guarded metric.
    pub ratio: f64,
    /// Whether the cell regressed beyond the threshold.
    pub regressed: bool,
}

/// The result of a trend check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrendReport {
    /// The measurement that was compared.
    pub metric: TrendMetric,
    /// Per-cell comparisons for the guarded engines.
    pub lines: Vec<TrendLine>,
}

impl TrendReport {
    /// Whether any guarded cell regressed.
    #[must_use]
    pub fn has_regressions(&self) -> bool {
        self.lines.iter().any(|l| l.regressed)
    }

    /// Renders the comparison as an aligned table with a verdict line.
    #[must_use]
    pub fn render(&self, threshold: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "engine trend check (fail below {:.0}% of baseline {})",
            (1.0 - threshold) * 100.0,
            self.metric.unit(),
        );
        for line in &self.lines {
            let _ = writeln!(
                out,
                "  {:<4} {:<8} shards={:<3} n={:<12} k={:<3} bias={:<5} {:>10} -> {:>10} {} ({}x){}",
                line.baseline.experiment,
                line.baseline.engine,
                line.baseline.shards,
                line.baseline.n,
                line.baseline.k,
                fmt_f64(line.baseline.bias),
                fmt_f64(self.metric.value(&line.baseline)),
                fmt_f64(self.metric.value(&line.current)),
                self.metric.unit(),
                fmt_f64(line.ratio),
                if line.regressed { "  REGRESSION" } else { "" },
            );
        }
        out
    }
}

/// Names one benchmark cell in diagnostics.
fn cell_label(entry: &BenchEntry) -> String {
    format!(
        "{}/{} shards={} n={} k={} bias={:.2}",
        entry.experiment, entry.engine, entry.shards, entry.n, entry.k, entry.bias
    )
}

/// Engines whose throughput the trend check guards (the fast backends —
/// including the multi-fidelity hybrid, whose E17 time-to-solution speedup
/// over batched is the gated metric — the incremental-maintenance arm, the
/// telemetry-on arm whose speedup against telemetry-off is the
/// observability overhead, and the two pp-service arms — single-worker
/// queue overhead and the multiplexing pool; the exact engine and the
/// rebuild / replica-loop / scenario-loop / telemetry-off reference arms
/// are their own baselines).
pub const GUARDED_ENGINES: [&str; 9] = [
    "batched",
    "sharded",
    "ensemble",
    "parallel-ensemble",
    "hybrid",
    "incremental",
    "telemetry-on",
    "service",
    "service-pool",
];

/// Compares `current` against `baseline`: every baseline cell of a guarded
/// engine must stay above `(1 - threshold)` of its baseline value on the
/// chosen metric.  Cells present only in `current` never fail (sweeps
/// legitimately grow across PRs).
///
/// # Errors
///
/// Returns a named diagnostic (one line per offending cell) when a guarded
/// baseline cell has no matching current entry — a vanished cell can hide a
/// regression, so shrinking the sweep requires pruning the baseline — or
/// when either side of a guarded comparison carries a non-finite or
/// non-positive metric value.  Both used to slip through silently: a NaN
/// fails every `<` comparison (so a corrupt record always "passed"), and a
/// non-positive baseline read as ratio 1.0.
pub fn compare_trend(
    baseline: &[BenchEntry],
    current: &[BenchEntry],
    threshold: f64,
    metric: TrendMetric,
) -> Result<TrendReport, String> {
    let mut report = TrendReport {
        metric,
        ..TrendReport::default()
    };
    let mut problems: Vec<String> = Vec::new();
    for base in baseline {
        if !GUARDED_ENGINES.contains(&base.engine.as_str()) {
            continue;
        }
        let Some(cur) = current.iter().find(|c| c.key() == base.key()) else {
            problems.push(format!(
                "guarded baseline cell {} has no matching current entry — a vanished cell \
                 can hide a regression; prune the baseline if the sweep shrank on purpose",
                cell_label(base)
            ));
            continue;
        };
        let base_value = metric.value(base);
        let cur_value = metric.value(cur);
        if !base_value.is_finite() || base_value <= 0.0 {
            problems.push(format!(
                "guarded baseline cell {} has unusable {} {base_value} — re-record the \
                 baseline",
                cell_label(base),
                metric.unit()
            ));
            continue;
        }
        if !cur_value.is_finite() || cur_value <= 0.0 {
            problems.push(format!(
                "guarded current cell {} has unusable {} {cur_value} — the measurement \
                 is corrupt",
                cell_label(cur),
                metric.unit()
            ));
            continue;
        }
        let ratio = cur_value / base_value;
        report.lines.push(TrendLine {
            baseline: base.clone(),
            current: cur.clone(),
            ratio,
            regressed: ratio < 1.0 - threshold,
        });
    }
    if !problems.is_empty() {
        return Err(problems.join("\n"));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(engine: &str, shards: u64, n: u64, ips: f64) -> BenchEntry {
        BenchEntry {
            experiment: "E13".to_string(),
            engine: engine.to_string(),
            shards,
            n,
            k: 2,
            bias: 4.0,
            interactions: 1_000,
            seconds: 1.0,
            interactions_per_sec: ips,
            speedup: 1.0,
            telemetry: Vec::new(),
        }
    }

    #[test]
    fn json_parser_handles_the_document_shapes_we_emit() {
        let doc = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true}, "e": null}"#)
            .unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\ny")
        );
        assert_eq!(doc.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("e"), Some(&Json::Null));
        assert!(Json::parse("{\"open\":").is_err());
        assert!(Json::parse("[1, 2] junk").is_err());
    }

    #[test]
    fn json_parser_preserves_unicode() {
        let doc = Json::parse(r#"{"s": "10⁶ agents — fast"}"#).unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some("10⁶ agents — fast"));
    }

    #[test]
    fn deeply_nested_records_fail_with_the_nesting_error() {
        // 300 KB of `[` once overflowed the stack of a depth-unlimited
        // reader; it must be a named diagnostic instead.
        let hostile = "[".repeat(300 * 1024);
        let err = parse_entries(&hostile).unwrap_err();
        assert!(
            err.starts_with(&format!(
                "nesting deeper than the limit of {} arrays/objects",
                pp_service::json::MAX_NESTING
            )),
            "{err}"
        );
    }

    #[test]
    fn stamped_document_round_trips_through_the_parser() {
        let entries = vec![
            entry("batched", 1, 1_000_000, 4.5e8),
            entry("sharded", 4, 1_000_000, 4.0e8),
        ];
        let doc = render_stamped_document("0.1.0", "full", 7, &entries, &[]);
        let parsed = parse_entries(&doc).unwrap();
        assert_eq!(parsed, entries);
        let json = Json::parse(&doc).unwrap();
        assert_eq!(
            json.get("workspace_version").unwrap().as_str(),
            Some("0.1.0")
        );
        assert_eq!(json.get("seed").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn telemetry_payloads_round_trip_and_stay_optional() {
        let mut with_payload = entry("telemetry-on", 1, 1_000_000, 4.2e8);
        with_payload.telemetry = vec![
            ("batched.events_drawn".to_string(), 51119.0),
            ("maintenance.rows_patched_fraction".to_string(), 0.925),
        ];
        let bare = entry("batched", 1, 1_000_000, 4.5e8);
        let doc = render_stamped_document(
            "0.1.0",
            "quick",
            3,
            &[with_payload.clone(), bare.clone()],
            &[],
        );
        let parsed = parse_entries(&doc).unwrap();
        assert_eq!(parsed, vec![with_payload, bare]);
        // Records written before the telemetry registry lack the field
        // entirely; parsing stays lenient instead of failing the baseline.
        let legacy = r#"{"entries":[{"experiment":"E13","engine":"batched","shards":1,
            "n":1000,"k":2,"bias":4.0,"interactions":10,"seconds":1.0,
            "interactions_per_sec":10.0,"speedup":1.0}]}"#;
        assert_eq!(parse_entries(legacy).unwrap()[0].telemetry, Vec::new());
        assert!(GUARDED_ENGINES.contains(&"telemetry-on"));
    }

    #[test]
    fn a_non_finite_measurement_is_written_readably_and_named_by_the_trend_check() {
        let baseline = entry("batched", 1, 1_000_000, 4.5e8);
        let mut corrupt = baseline.clone();
        corrupt.speedup = f64::NAN;
        let doc = render_stamped_document("0.1.0", "quick", 3, &[corrupt], &[]);
        assert!(doc.contains("\"speedup\":null"), "{doc}");
        let current = parse_entries(&doc).unwrap();
        assert!(current[0].speedup.is_nan());
        let err = compare_trend(&[baseline], &current, 0.30, TrendMetric::Speedup).unwrap_err();
        assert!(
            err.contains("guarded current cell E13/batched shards=1 n=1000000 k=2 bias=4.00")
                && err.contains("unusable speedup NaN — the measurement is corrupt"),
            "{err}"
        );
    }

    #[test]
    fn trend_check_flags_only_threshold_violations() {
        let baseline = vec![
            entry("batched", 1, 1_000_000, 1.0e8),
            entry("sharded", 4, 1_000_000, 1.0e8),
            entry("exact", 1, 1_000_000, 1.0e8),
        ];
        let current = vec![
            entry("batched", 1, 1_000_000, 0.8e8),  // -20%: fine at 30%
            entry("sharded", 4, 1_000_000, 0.65e8), // -35%: regression
            entry("exact", 1, 1_000_000, 0.1e8),    // not guarded
        ];
        let report =
            compare_trend(&baseline, &current, 0.30, TrendMetric::InteractionsPerSec).unwrap();
        assert_eq!(report.lines.len(), 2);
        assert!(!report.lines[0].regressed);
        assert!(report.lines[1].regressed);
        assert!(report.has_regressions());
        assert!(report.render(0.30).contains("REGRESSION"));
    }

    #[test]
    fn speedup_metric_ignores_machine_speed_shifts() {
        // Current machine is uniformly 2x slower, but the speedup (measured
        // against the same-run reference engine) is unchanged: no regression
        // on the machine-independent metric, regression on raw ips.
        let mut base = entry("sharded", 4, 1_000, 1.0e8);
        base.speedup = 0.8;
        let mut cur = base.clone();
        cur.interactions_per_sec = 0.5e8;
        let by_speedup =
            compare_trend(&[base.clone()], &[cur.clone()], 0.30, TrendMetric::Speedup).unwrap();
        assert!(!by_speedup.has_regressions());
        assert!(by_speedup.render(0.30).contains("speedup"));
        let by_ips = compare_trend(&[base], &[cur], 0.30, TrendMetric::InteractionsPerSec).unwrap();
        assert!(by_ips.has_regressions());
        assert!("speedup".parse::<TrendMetric>().unwrap() == TrendMetric::Speedup);
        assert!("nope".parse::<TrendMetric>().is_err());
    }

    #[test]
    fn parallel_ensemble_rows_are_guarded() {
        let mut base = entry("parallel-ensemble", 8, 1_000, 1.0e8);
        base.experiment = "E15".to_string();
        let mut cur = base.clone();
        cur.interactions_per_sec = 0.5e8;
        let report = compare_trend(&[base], &[cur], 0.30, TrendMetric::InteractionsPerSec).unwrap();
        assert_eq!(report.lines.len(), 1);
        assert!(report.has_regressions());
    }

    #[test]
    fn missing_guarded_baseline_cells_are_a_hard_error() {
        let baseline = vec![entry("batched", 1, 123, 1.0e8)];
        let err = compare_trend(&baseline, &[], 0.30, TrendMetric::InteractionsPerSec).unwrap_err();
        assert!(err.contains("batched") && err.contains("n=123"), "{err}");
        assert!(err.contains("no matching current entry"), "{err}");
        // Unguarded cells may come and go freely, and cells present only in
        // the current record never fail — sweeps legitimately grow.
        let unguarded = vec![entry("exact", 1, 123, 1.0e8)];
        assert!(
            compare_trend(&unguarded, &[], 0.30, TrendMetric::InteractionsPerSec)
                .unwrap()
                .lines
                .is_empty()
        );
        let grown = compare_trend(
            &[],
            &[entry("batched", 1, 123, 1.0e8)],
            0.30,
            TrendMetric::InteractionsPerSec,
        )
        .unwrap();
        assert!(grown.lines.is_empty());
    }

    #[test]
    fn non_finite_or_zero_guarded_metrics_are_a_hard_error() {
        // A NaN fails every `<` comparison, so before this check a corrupt
        // record sailed through the regression gate unnoticed.
        let good = entry("batched", 1, 123, 1.0e8);
        let nan = entry("batched", 1, 123, f64::NAN);
        let err = compare_trend(
            std::slice::from_ref(&nan),
            std::slice::from_ref(&good),
            0.30,
            TrendMetric::InteractionsPerSec,
        )
        .unwrap_err();
        assert!(err.contains("baseline") && err.contains("NaN"), "{err}");
        let err = compare_trend(
            std::slice::from_ref(&good),
            &[nan],
            0.30,
            TrendMetric::InteractionsPerSec,
        )
        .unwrap_err();
        assert!(err.contains("current") && err.contains("NaN"), "{err}");
        // A non-positive baseline used to read as ratio 1.0 (silent pass).
        let err = compare_trend(
            &[entry("batched", 1, 123, 0.0)],
            &[good],
            0.30,
            TrendMetric::InteractionsPerSec,
        )
        .unwrap_err();
        assert!(err.contains("unusable"), "{err}");
    }
}
