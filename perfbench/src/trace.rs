//! In-memory spans recorded in the benchmark's own code around each call
//! into a layer, the self-time ledger built from them, and the chrome-trace
//! writer (`telemetry_check --trace` accepts its output).
//!
//! A disabled tracer runs the wrapped closure and records nothing, so the
//! untraced runs pay one branch per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Time covered by direct children (spans never overlap on the one
    /// track, so this is a plain sum).
    child_ns: u64,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

impl LayerTotals {
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    /// Mean duration of one call in microseconds (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ns as f64 * 1e-3 / self.calls as f64
        }
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<SpanRec>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (nested under the innermost open
    /// span).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRec {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                child_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        let end = self.now_ns();
        let mut open = self.open.borrow_mut();
        open.pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].end_ns = end;
        let dur = end - spans[index].start_ns;
        if let Some(&parent) = open.last() {
            spans[parent].child_ns += dur;
        }
        out
    }

    /// Per-name call counts, busy time (span durations) and self time (span
    /// minus its children).
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for s in self.spans.borrow().iter() {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns.saturating_sub(s.start_ns);
            t.calls += 1;
            t.busy_ns += dur;
            t.self_ns += dur.saturating_sub(s.child_ns);
        }
        out
    }

    pub fn layer(&self, name: &str) -> LayerTotals {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// The chrome-trace document, with integer-microsecond bounds (floored,
    /// which keeps children inside their parents) and the environment
    /// stamp under `otherData`.  Track 0 holds the recorded spans; track 1
    /// draws the ledger: each layer's self time (and the unattributed
    /// remainder) as one bar, laid end to end across the traced wall.
    pub fn chrome_trace(&self, stamp_json: &str) -> String {
        let mut out = format!(
            "{{\"displayTimeUnit\":\"ms\",\"otherData\":{stamp_json},\"traceEvents\":[\
             {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"perfbench\"}}}},\
             {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"ledger (self time per layer)\"}}}}"
        );
        let mut event = |name: &str, tid: u32, start_ns: u64, end_ns: u64| {
            let ts = start_ns / 1000;
            let _ = write!(
                out,
                ",{{\"name\":\"{name}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\
                 \"tid\":{tid},\"ts\":{ts},\"dur\":{}}}",
                end_ns / 1000 - ts
            );
        };
        let mut root_start = None;
        for s in self.spans.borrow().iter() {
            event(s.name, 0, s.start_ns, s.end_ns);
            if s.name == ROOT {
                root_start.get_or_insert(s.start_ns);
            }
        }
        let mut at = root_start.unwrap_or(0);
        for (name, t) in self.totals() {
            event(name, 1, at, at + t.self_ns);
            at += t.self_ns;
        }
        out.push_str("]}");
        out
    }
}

/// The root span every traced phase runs under; its self time is the part
/// of the traced wall no layer span covers.
pub const ROOT: &str = "bench.traced";

/// The layer ledger of a traced phase: self time per span name, and the
/// unattributed share of the root span.
pub struct Ledger {
    pub wall_s: f64,
    pub unattributed_fraction: f64,
    rows: Vec<(&'static str, LayerTotals)>,
}

impl Ledger {
    pub fn new(tracer: &Tracer) -> Self {
        let totals = tracer.totals();
        let root = totals.get(ROOT).copied().unwrap_or_default();
        let mut rows: Vec<(&'static str, LayerTotals)> = totals
            .into_iter()
            .filter(|(name, _)| *name != ROOT)
            .collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1.self_ns));
        let unattributed_fraction = if root.busy_ns == 0 {
            1.0
        } else {
            root.self_ns as f64 / root.busy_ns as f64
        };
        Ledger {
            wall_s: root.busy_s(),
            unattributed_fraction,
            rows,
        }
    }

    /// Prints the ledger table; the self times plus the unattributed
    /// remainder sum to the traced wall by construction.
    pub fn print(&self) {
        println!(
            "layer ledger (self time; traced wall {:.6} s):",
            self.wall_s
        );
        for (name, t) in &self.rows {
            println!(
                "  {name:<34} {:>12.6} s  {:>6.2}%  {:>9} calls",
                t.self_ns as f64 * 1e-9,
                100.0 * t.self_ns as f64 * 1e-9 / self.wall_s.max(1e-12),
                t.calls
            );
        }
        println!(
            "  {:<34} {:>12.6} s  {:>6.2}%  ({})",
            "(unattributed)",
            self.unattributed_fraction * self.wall_s,
            100.0 * self.unattributed_fraction,
            if self.unattributed_fraction <= 0.10 {
                "within the 10% ledger bound"
            } else {
                "OVER the 10% ledger bound"
            }
        );
    }
}
