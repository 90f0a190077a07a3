//! Unified telemetry: a metrics registry, timing spans, and export sinks.
//!
//! The engine stack previously exposed observability as a scatter of
//! bespoke accessors (`rejection_misses`, [`MaintenanceStats`], the
//! ensemble's `shared_*` counters), each threaded through the result types
//! by hand.  This module is the common substrate: engines and drivers hold
//! a cheap, cloneable [`Telemetry`] handle, record into named counters /
//! gauges / histograms, and bracket coarse units of work (epochs, lockstep
//! windows, run phases, worker bodies) in RAII [`Span`] guards.  Two sinks
//! read the result back out:
//!
//! - [`Telemetry::chrome_trace_json`] renders the recorded spans in the
//!   Chrome Trace Event Format (an object with a `traceEvents` array of
//!   `"ph": "X"` complete events).  The file loads directly in Perfetto or
//!   `about://tracing`; worker index is mapped to `tid`, so parallel
//!   sections appear as per-worker tracks.
//! - [`Telemetry::snapshot`] flattens the registry into a
//!   [`MetricsSnapshot`] — a sorted name → value table that merges into
//!   [`RunResult`](crate::run::RunResult) and the `usd_run` JSON output.
//!
//! # Determinism contract
//!
//! Telemetry NEVER consumes randomness and never feeds back into control
//! flow: handles only read the monotonic clock and bump atomics.  A run
//! with telemetry fully enabled (trace + metrics) is bit-identical to the
//! same run with telemetry off, at every thread count.  This is pinned by
//! `tests/telemetry_equivalence.rs` and enforced in CI.
//!
//! # Overhead model
//!
//! A disabled handle (the [`Telemetry::disabled`] default) carries `None`
//! internally: counter increments are a branch on an `Option` and span
//! construction does not even read the clock — near-zero cost, verified by
//! the `telemetry` pair in `engine_microbench`.  An enabled handle costs
//! one relaxed atomic RMW per counter update and two clock reads plus one
//! short mutex section per span.  Instrumentation is therefore placed at
//! coarse seams (per event-batch, per epoch, per window — not per agent
//! interaction), keeping the enabled overhead ≤ 5% at n = 10⁶.
//!
//! # Examples
//!
//! ```
//! use pp_core::telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! let events = tel.counter("engine.events");
//! {
//!     let _span = tel.span("epoch");
//!     events.add(3);
//! }
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("engine.events"), Some(3));
//! let trace = tel.chrome_trace_json();
//! assert!(trace.contains("\"traceEvents\""));
//! ```

use crate::json;
use crate::run::MaintenanceStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of histogram buckets: one per power of two up to `2^63`, plus a
/// zero bucket.  Fixed so histograms merge without negotiation.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The coordinator's track in the chrome trace (`tid` 0); workers use
/// `1 + worker_index`.
pub const COORDINATOR_TID: u32 = 0;

#[derive(Debug, Default)]
enum MetricSlot {
    #[default]
    Unused,
    Counter(Arc<AtomicU64>),
    /// Gauges store `f64::to_bits`.
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    metrics: Mutex<BTreeMap<String, MetricSlot>>,
    spans: Mutex<Vec<SpanEvent>>,
}

/// A cheap, cloneable telemetry handle.
///
/// The default ([`Telemetry::disabled`]) records nothing; every operation
/// on it is a no-op branch.  [`Telemetry::enabled`] allocates the shared
/// registry and span buffer.  Clones share the same storage, so a handle
/// can be fanned out to engines, shards, and worker threads and read back
/// from the coordinator.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A handle that records nothing (the default).
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A live handle with an empty registry; the clock origin for trace
    /// timestamps is the moment of this call.
    #[must_use]
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                metrics: Mutex::new(BTreeMap::new()),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (creating on first use) the counter `name`.
    ///
    /// Resolution takes the registry lock; call it once at setup and keep
    /// the returned handle for the hot path.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter(None);
        };
        let mut metrics = inner.metrics.lock().expect("telemetry registry poisoned");
        let slot = metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricSlot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            MetricSlot::Counter(cell) => Counter(Some(Arc::clone(cell))),
            _ => panic!("telemetry metric {name:?} is not a counter"),
        }
    }

    /// Resolves (creating on first use) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge(None);
        };
        let mut metrics = inner.metrics.lock().expect("telemetry registry poisoned");
        let slot = metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricSlot::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))));
        match slot {
            MetricSlot::Gauge(cell) => Gauge(Some(Arc::clone(cell))),
            _ => panic!("telemetry metric {name:?} is not a gauge"),
        }
    }

    /// Resolves (creating on first use) the histogram `name` (fixed
    /// log₂-scale buckets, see [`HISTOGRAM_BUCKETS`]).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram(None);
        };
        let mut metrics = inner.metrics.lock().expect("telemetry registry poisoned");
        let slot = metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricSlot::Histogram(Arc::new(HistogramCore::new())));
        match slot {
            MetricSlot::Histogram(cell) => Histogram(Some(Arc::clone(cell))),
            _ => panic!("telemetry metric {name:?} is not a histogram"),
        }
    }

    /// Opens a span on the coordinator track; the guard records a
    /// wall-time begin/end pair when dropped.  On a disabled handle this
    /// does not read the clock.
    pub fn span(&self, name: &str) -> Span {
        self.span_on(name, COORDINATOR_TID)
    }

    /// Opens a span on an explicit track.  Workers pass
    /// `1 + worker_index` so the chrome trace shows per-worker tracks.
    pub fn span_on(&self, name: &str, tid: u32) -> Span {
        match &self.inner {
            None => Span(None),
            Some(inner) => Span(Some(SpanLive {
                inner: Arc::clone(inner),
                name: name.to_string(),
                tid,
                start: Instant::now(),
            })),
        }
    }

    /// The spans recorded so far, in completion order.
    ///
    /// Returns an empty vector on a disabled handle.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner
                .spans
                .lock()
                .expect("telemetry spans poisoned")
                .clone(),
        }
    }

    /// Flattens the registry into a sorted snapshot.
    ///
    /// Returns an empty snapshot on a disabled handle.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let Some(inner) = &self.inner else {
            return snap;
        };
        let metrics = inner.metrics.lock().expect("telemetry registry poisoned");
        for (name, slot) in metrics.iter() {
            match slot {
                MetricSlot::Unused => {}
                MetricSlot::Counter(cell) => {
                    snap.add_counter(name, cell.load(Ordering::Relaxed));
                }
                MetricSlot::Gauge(cell) => {
                    snap.set_gauge(name, f64::from_bits(cell.load(Ordering::Relaxed)));
                }
                MetricSlot::Histogram(core) => {
                    snap.merge_histogram(name, &core.snapshot());
                }
            }
        }
        snap
    }

    /// Renders the recorded spans in the Chrome Trace Event Format.
    ///
    /// The output is one JSON object: `displayTimeUnit`, `traceEvents` with
    /// one `"ph": "M"` `thread_name` metadata event per track followed by
    /// one `"ph": "X"` complete event per span (`ts` / `dur` in
    /// microseconds since the handle was created), sorted by `(tid, ts)`.
    /// Loadable in Perfetto and `about://tracing`.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        let mut events = self.spans();
        events.sort_by_key(|e| (e.tid, e.start_us, e.end_us));
        let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for tid in &tids {
            if !first {
                out.push(',');
            }
            first = false;
            let label = if *tid == COORDINATOR_TID {
                "coordinator".to_string()
            } else {
                format!("worker-{}", tid - 1)
            };
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{label}\"}}}}"
            );
        }
        for e in &events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            json::write_json_string(&e.name, &mut out);
            let _ = write!(
                out,
                ",\"cat\":\"pp\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
                e.tid,
                e.start_us,
                e.end_us - e.start_us,
            );
        }
        out.push_str("]}");
        out
    }
}

/// A completed wall-time span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Span label (e.g. `"shard.reconcile"`).
    pub name: String,
    /// Track: [`COORDINATOR_TID`] or `1 + worker_index`.
    pub tid: u32,
    /// Begin, microseconds since the handle's creation.
    pub start_us: u64,
    /// End, microseconds since the handle's creation (`>= start_us`).
    pub end_us: u64,
}

#[derive(Debug)]
struct SpanLive {
    inner: Arc<Inner>,
    name: String,
    tid: u32,
    start: Instant,
}

/// RAII guard returned by [`Telemetry::span`]; records the begin/end pair
/// when dropped.  A guard from a disabled handle is inert.
#[derive(Debug)]
#[must_use = "a span records its duration when dropped"]
pub struct Span(Option<SpanLive>);

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.0.take() {
            let start_us = live
                .start
                .duration_since(live.inner.origin)
                .as_micros()
                .min(u128::from(u64::MAX)) as u64;
            let end_us = live
                .inner
                .origin
                .elapsed()
                .as_micros()
                .min(u128::from(u64::MAX)) as u64;
            let event = SpanEvent {
                name: live.name,
                tid: live.tid,
                start_us,
                end_us: end_us.max(start_us),
            };
            live.inner
                .spans
                .lock()
                .expect("telemetry spans poisoned")
                .push(event);
        }
    }
}

/// A monotonically increasing counter handle.  Cheap to clone; an
/// increment is one relaxed atomic add (or a no-op branch when resolved
/// from a disabled handle).
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value (0 on a disabled handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A last-write-wins floating-point gauge handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.0 {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current value (0.0 on a disabled handle).
    #[must_use]
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, cell) in self.buckets.iter().enumerate() {
            let c = cell.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push(BucketCount {
                    upper: bucket_upper(i),
                    count: c,
                });
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Bucket index for a recorded value: 0 holds zero, bucket `i >= 1` holds
/// values in `[2^(i-1), 2^i)`.
#[must_use]
fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`, saturating at the top).
#[must_use]
fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log₂-bucketed histogram handle for non-negative integer samples
/// (skip lengths, batch sizes, queue depths).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.0 {
            core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            core.count.fetch_add(1, Ordering::Relaxed);
            core.sum.fetch_add(value, Ordering::Relaxed);
        }
    }
}

/// One non-empty histogram bucket in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket (`2^i - 1`).
    pub upper: u64,
    /// Number of samples in the bucket.
    pub count: u64,
}

/// A frozen histogram: total count, total sum, and the non-empty buckets
/// in ascending bound order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Non-empty buckets, ascending by bound.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Mean sample value, if any samples were recorded.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    fn absorb(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for b in &other.buckets {
            match self.buckets.binary_search_by_key(&b.upper, |x| x.upper) {
                Ok(i) => self.buckets[i].count += b.count,
                Err(i) => self.buckets.insert(i, *b),
            }
        }
    }
}

/// A flat, sorted name → value table: the metrics export sink.
///
/// Snapshots are plain data — they merge into
/// [`RunResult`](crate::run::RunResult), render to JSON with
/// [`MetricsSnapshot::to_json`], and combine across shards / replicas with
/// [`MetricsSnapshot::absorb`] (counters and histograms add, gauges are
/// last-write-wins).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Whether the snapshot holds no metrics at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `value` to counter `name` (creating it at zero first).
    pub fn add_counter(&mut self, name: &str, value: u64) {
        match self
            .counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
        {
            Ok(i) => self.counters[i].1 += value,
            Err(i) => self.counters.insert(i, (name.to_string(), value)),
        }
    }

    /// Sets gauge `name` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        match self.gauges.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
            Ok(i) => self.gauges[i].1 = value,
            Err(i) => self.gauges.insert(i, (name.to_string(), value)),
        }
    }

    /// Merges a histogram snapshot into histogram `name`.
    pub fn merge_histogram(&mut self, name: &str, hist: &HistogramSnapshot) {
        match self
            .histograms
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
        {
            Ok(i) => self.histograms[i].1.absorb(hist),
            Err(i) => self.histograms.insert(i, (name.to_string(), hist.clone())),
        }
    }

    /// The value of counter `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// The value of gauge `name`, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// The histogram `name`, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i].1)
    }

    /// All counters, sorted by name.
    #[must_use]
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// All gauges, sorted by name.
    #[must_use]
    pub fn gauges(&self) -> &[(String, f64)] {
        &self.gauges
    }

    /// All histograms, sorted by name.
    #[must_use]
    pub fn histograms(&self) -> &[(String, HistogramSnapshot)] {
        &self.histograms
    }

    /// Merges `other` into `self`: counters and histograms add, gauges are
    /// last-write-wins (`other` wins).
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            self.add_counter(name, *v);
        }
        for (name, v) in &other.gauges {
            self.set_gauge(name, *v);
        }
        for (name, h) in &other.histograms {
            self.merge_histogram(name, h);
        }
    }

    /// Converts [`MaintenanceStats`] to the canonical registry names
    /// (`maintenance.rows_patched`, …) and merges them in.
    pub fn absorb_maintenance(&mut self, stats: &MaintenanceStats) {
        self.add_counter("maintenance.rows_patched", stats.rows_patched);
        self.add_counter("maintenance.rows_rebuilt", stats.rows_rebuilt);
        self.add_counter("maintenance.law_patches", stats.law_patches);
        self.add_counter("maintenance.law_rebuilds", stats.law_rebuilds);
        self.add_counter(
            "maintenance.law_fallback_rebuilds",
            stats.law_fallback_rebuilds,
        );
        self.set_maintenance_fractions(stats);
    }

    /// Re-derives the `maintenance.*_fraction` gauges from the snapshot's
    /// own maintenance counters: after [`absorb`](Self::absorb)ing several
    /// engines' snapshots the counters are sums, but the gauges are the
    /// last engine's.
    pub fn refresh_maintenance_fractions(&mut self) {
        let count = |name: &str| self.counter(name).unwrap_or(0);
        let stats = MaintenanceStats {
            rows_patched: count("maintenance.rows_patched"),
            rows_rebuilt: count("maintenance.rows_rebuilt"),
            law_patches: count("maintenance.law_patches"),
            law_rebuilds: count("maintenance.law_rebuilds"),
            law_fallback_rebuilds: count("maintenance.law_fallback_rebuilds"),
        };
        self.set_maintenance_fractions(&stats);
    }

    fn set_maintenance_fractions(&mut self, stats: &MaintenanceStats) {
        if let Some(f) = stats.rows_patched_fraction() {
            self.set_gauge("maintenance.rows_patched_fraction", f);
        }
        if let Some(f) = stats.law_patched_fraction() {
            self.set_gauge("maintenance.law_patched_fraction", f);
        }
    }

    /// Renders the snapshot as one flat JSON object, keys sorted (counters,
    /// then gauges, then histograms; the name spaces are disjoint by
    /// construction).  Histograms render as
    /// `{"count":…,"sum":…,"buckets":[[upper,count],…]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            json::write_json_string(name, &mut out);
            let _ = write!(out, ":{v}");
        }
        for (name, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            json::write_json_string(name, &mut out);
            out.push(':');
            out.push_str(&json::write_f64(*v));
        }
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|b| format!("[{},{}]", b.upper, b.count))
                .collect();
            json::write_json_string(name, &mut out);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                h.count,
                h.sum,
                buckets.join(","),
            );
        }
        out.push('}');
        out
    }
}

/// Checks that the spans on each track are monotone and properly nested:
/// sorted by start time, each span either contains or is disjoint from its
/// successor.  Returns a description of the first violation.
///
/// # Errors
///
/// Returns `Err` naming the offending track and spans when overlap without
/// containment (or a negative duration) is found.
pub fn check_span_nesting(events: &[SpanEvent]) -> Result<(), String> {
    let mut by_tid: BTreeMap<u32, Vec<&SpanEvent>> = BTreeMap::new();
    for e in events {
        if e.end_us < e.start_us {
            return Err(format!(
                "span {:?} on tid {} ends before it starts",
                e.name, e.tid
            ));
        }
        by_tid.entry(e.tid).or_default().push(e);
    }
    for (tid, mut spans) in by_tid {
        spans.sort_by_key(|e| (e.start_us, std::cmp::Reverse(e.end_us)));
        // A stack of open end-times: each next span must either nest inside
        // the innermost open span or start at/after its end.
        let mut open: Vec<u64> = Vec::new();
        for s in spans {
            while open.last().is_some_and(|&end| end <= s.start_us) {
                open.pop();
            }
            if let Some(&end) = open.last() {
                if s.end_us > end {
                    return Err(format!(
                        "span {:?} [{}, {}] on tid {tid} overlaps an enclosing span ending at {end}",
                        s.name, s.start_us, s.end_us
                    ));
                }
            }
            open.push(s.end_us);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let c = tel.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = tel.gauge("g");
        g.set(1.5);
        assert_eq!(g.get(), 0.0);
        let h = tel.histogram("h");
        h.record(9);
        drop(tel.span("nothing"));
        assert!(tel.snapshot().is_empty());
        assert!(tel.spans().is_empty());
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let tel = Telemetry::enabled();
        let c = tel.counter("engine.events");
        c.incr();
        c.add(4);
        tel.gauge("cache.hit_rate").set(0.75);
        let h = tel.histogram("skip.len");
        h.record(0);
        h.record(1);
        h.record(7);
        h.record(1 << 40);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("engine.events"), Some(5));
        assert_eq!(snap.gauge("cache.hit_rate"), Some(0.75));
        let hist = snap.histogram("skip.len").unwrap();
        assert_eq!(hist.count, 4);
        assert_eq!(hist.sum, 8 + (1 << 40));
        assert_eq!(hist.mean(), Some((8.0 + (1u64 << 40) as f64) / 4.0));
        // Buckets: 0 -> upper 0; 1 -> [1,1]; 7 -> [4,7]; 2^40 -> [2^40, 2^41).
        let uppers: Vec<u64> = hist.buckets.iter().map(|b| b.upper).collect();
        assert_eq!(uppers, vec![0, 1, 7, (1u64 << 41) - 1]);
    }

    #[test]
    fn handles_are_shared_across_clones() {
        let tel = Telemetry::enabled();
        let a = tel.counter("shared");
        let b = tel.clone().counter("shared");
        a.add(2);
        b.add(3);
        assert_eq!(tel.snapshot().counter("shared"), Some(5));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let tel = Telemetry::enabled();
        let _ = tel.gauge("m");
        let _ = tel.counter("m");
    }

    #[test]
    fn spans_record_nested_monotone_timestamps() {
        let tel = Telemetry::enabled();
        {
            let _outer = tel.span("outer");
            {
                let _inner = tel.span("inner");
            }
        }
        {
            let _worker = tel.span_on("work", 3);
        }
        let spans = tel.spans();
        assert_eq!(spans.len(), 3);
        check_span_nesting(&spans).unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert!(outer.start_us <= inner.start_us);
        assert!(inner.end_us <= outer.end_us);
        assert_eq!(spans.iter().find(|s| s.name == "work").unwrap().tid, 3);
    }

    #[test]
    fn nesting_check_rejects_partial_overlap() {
        let mk = |name: &str, tid, a, b| SpanEvent {
            name: name.to_string(),
            tid,
            start_us: a,
            end_us: b,
        };
        // Disjoint and nested: fine, including across tids.
        check_span_nesting(&[
            mk("a", 0, 0, 10),
            mk("b", 0, 2, 5),
            mk("c", 0, 10, 12),
            mk("d", 1, 3, 20),
        ])
        .unwrap();
        // Partial overlap on one tid: rejected.
        let err = check_span_nesting(&[mk("a", 0, 0, 10), mk("b", 0, 5, 15)]).unwrap_err();
        assert!(err.contains("overlaps"), "{err}");
        // Negative duration: rejected.
        assert!(check_span_nesting(&[mk("a", 0, 5, 3)]).is_err());
    }

    #[test]
    fn chrome_trace_has_metadata_and_complete_events() {
        let tel = Telemetry::enabled();
        {
            let _s = tel.span("alpha");
        }
        {
            let _s = tel.span_on("beta \"quoted\"", 2);
        }
        let json = tel.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"coordinator\""));
        assert!(json.contains("\"worker-1\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"alpha\""));
        assert!(json.contains("beta \\\"quoted\\\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn snapshot_absorb_and_json() {
        let mut a = MetricsSnapshot::new();
        a.add_counter("c", 1);
        a.set_gauge("g", 0.5);
        let h = HistogramSnapshot {
            count: 1,
            sum: 3,
            buckets: vec![BucketCount { upper: 3, count: 1 }],
        };
        a.merge_histogram("h", &h);

        let mut b = MetricsSnapshot::new();
        b.add_counter("c", 2);
        b.set_gauge("g", 0.75);
        b.merge_histogram("h", &h);
        a.absorb(&b);
        assert_eq!(a.counter("c"), Some(3));
        assert_eq!(a.gauge("g"), Some(0.75));
        assert_eq!(a.histogram("h").unwrap().count, 2);

        let json = a.to_json();
        assert_eq!(
            json,
            "{\"c\":3,\"g\":0.75,\"h\":{\"count\":2,\"sum\":6,\"buckets\":[[3,2]]}}"
        );
    }

    #[test]
    fn maintenance_stats_map_to_canonical_names() {
        let stats = MaintenanceStats {
            rows_patched: 9,
            rows_rebuilt: 1,
            law_patches: 4,
            law_rebuilds: 0,
            law_fallback_rebuilds: 12,
        };
        let mut snap = MetricsSnapshot::new();
        snap.absorb_maintenance(&stats);
        assert_eq!(snap.counter("maintenance.rows_patched"), Some(9));
        assert_eq!(snap.counter("maintenance.law_rebuilds"), Some(0));
        assert_eq!(snap.counter("maintenance.law_fallback_rebuilds"), Some(12));
        assert_eq!(snap.gauge("maintenance.rows_patched_fraction"), Some(0.9));
        assert_eq!(snap.gauge("maintenance.law_patched_fraction"), Some(0.25));
    }

    #[test]
    fn non_finite_gauges_render_as_null() {
        let mut snap = MetricsSnapshot::new();
        snap.set_gauge("bad", f64::NAN);
        assert_eq!(snap.to_json(), "{\"bad\":null}");
    }
}
