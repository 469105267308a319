//! The process-wide metrics registry: span statistics, counters, gauges,
//! and per-epoch training curves, behind one mutex. Recording sites are
//! coarse (once per pipeline stage / per training epoch / per diagnosis
//! case), so a mutex is cheap; hot loops accumulate locally and add once.

use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Aggregated statistics of one named span.
#[derive(Debug, Default, Clone)]
pub(crate) struct SpanStat {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    hist: Histogram,
}

/// One recorded training epoch of one model.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPoint {
    /// Epoch index (0-based).
    pub epoch: u32,
    /// Mean training loss of the epoch.
    pub loss: f64,
    /// Optional extra metric (e.g. training accuracy).
    pub metric: Option<f64>,
    /// Wall time of the epoch in milliseconds.
    pub wall_ms: f64,
}

/// One completed span occurrence on the process timeline, for trace
/// export (Chrome Trace Event / Perfetto) and causal-tree reconstruction
/// (`m3d-obsctl explain`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name.
    pub name: String,
    /// Small per-process thread id (1-based, assigned on first span).
    pub tid: u32,
    /// Begin offset from the process epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// The trace (logical request) this span served; 0 = outside any
    /// trace.
    pub trace_id: u64,
    /// Process-unique span id (1-based).
    pub span_id: u64,
    /// Span id of the enclosing span on the same trace; 0 = trace root
    /// (or outside any trace).
    pub parent_id: u64,
}

/// Cap on span events kept in memory per run before new ones are
/// dropped (the count of drops is still tracked). Spans are recorded at
/// pipeline-stage granularity, so this bound is generous; it exists to
/// keep a runaway hot-loop span from exhausting memory. A live stream
/// (`M3D_OBS_STREAM`) carries every event regardless.
pub const EVENT_CAP: usize = 1 << 16;

/// Cap on extra records (pre-serialized NDJSON lines, e.g. diagnosis
/// audits) kept in memory per run before new ones are dropped. One audit
/// is recorded per diagnosed failure log, so this bound is generous.
pub const EXTRA_CAP: usize = 1 << 14;

/// One-shot latches so the first dropped record of each kind is loudly
/// visible in the log instead of only post-hoc in `summarize`.
static EVENT_DROP_WARNED: AtomicBool = AtomicBool::new(false);
static EXTRA_DROP_WARNED: AtomicBool = AtomicBool::new(false);

#[derive(Debug, Default)]
struct Inner {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    curves: BTreeMap<String, Vec<EpochPoint>>,
    events: Vec<SpanEvent>,
    events_dropped: u64,
    extras: Vec<String>,
    extras_dropped: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(true);

fn registry() -> &'static Mutex<Inner> {
    static REG: OnceLock<Mutex<Inner>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Inner::default()))
}

fn locked() -> std::sync::MutexGuard<'static, Inner> {
    registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Globally enables or disables metric recording (spans, counters, gauges,
/// curves). Logging is governed separately by the `M3D_LOG` filter.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether metric recording is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears every recorded metric (used between runs and by tests). The
/// one-shot drop warnings re-arm so the next run warns again.
pub fn reset() {
    {
        let mut inner = locked();
        *inner = Inner::default();
    }
    EVENT_DROP_WARNED.store(false, Ordering::Relaxed);
    EXTRA_DROP_WARNED.store(false, Ordering::Relaxed);
}

/// The process-wide time origin for span events. First call pins it;
/// spans record begin offsets relative to this instant so events from all
/// threads share one timeline.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since the process epoch.
pub(crate) fn epoch_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Small integer id of the calling thread, assigned on first use (the
/// standard `ThreadId` has no stable integer form). Ids start at 1.
pub fn current_tid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Allocates a process-unique span id (1-based; 0 means "none").
pub(crate) fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Allocates a process-unique trace id (1-based; 0 means "none"). Ids are
/// unique, not ordered: concurrent roots claim them in scheduling order.
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Records one completed span duration under `name`.
pub fn record_span(name: &str, duration: Duration) {
    if !enabled() {
        return;
    }
    let ns = duration.as_nanos().min(u128::from(u64::MAX)) as u64;
    record_stat(&mut locked(), name, ns);
}

fn record_stat(inner: &mut Inner, name: &str, ns: u64) {
    let stat = inner.spans.entry(name.to_string()).or_default();
    if stat.count == 0 {
        stat.min_ns = ns;
        stat.max_ns = ns;
    } else {
        stat.min_ns = stat.min_ns.min(ns);
        stat.max_ns = stat.max_ns.max(ns);
    }
    stat.count += 1;
    stat.total_ns += ns;
    stat.hist.record(ns);
}

/// Records one completed span occurrence with its position on the process
/// timeline and in its trace's causal tree: aggregate statistics plus a
/// [`SpanEvent`] for trace export and tree reconstruction. With a live
/// stream (see [`crate::stream`]) the occurrence is also published as a
/// `span_event` NDJSON line — streaming is not subject to the in-memory
/// cap, which is exactly why it exists.
pub fn record_span_event(
    name: &str,
    start_ns: u64,
    dur_ns: u64,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
) {
    if !enabled() {
        return;
    }
    let tid = current_tid();
    if crate::stream::active() {
        crate::stream::publish_line(&crate::report::span_event_line(
            name, tid, start_ns, dur_ns, trace_id, span_id, parent_id,
        ));
    }
    let dropped = {
        let mut inner = locked();
        record_stat(&mut inner, name, dur_ns);
        if inner.events.len() < EVENT_CAP {
            inner.events.push(SpanEvent {
                name: name.to_string(),
                tid,
                start_ns,
                dur_ns,
                trace_id,
                span_id,
                parent_id,
            });
            false
        } else {
            inner.events_dropped += 1;
            true
        }
    };
    // The warning goes out after the registry lock is released: the
    // logger (and a live stream) must never run under it.
    if dropped && !EVENT_DROP_WARNED.swap(true, Ordering::Relaxed) {
        crate::warn!(
            "span-event cap ({EVENT_CAP}) reached — further span events are dropped from \
             the in-memory report (stream with M3D_OBS_STREAM to keep them)"
        );
    }
}

/// Records one extra NDJSON record to be emitted verbatim in the run
/// report (e.g. a `{"type":"audit",...}` diagnosis audit). The caller
/// must pass one complete single-line JSON object with a `type` field the
/// schema's consumers either know or skip; newlines are rejected (the
/// record is dropped and counted) since they would corrupt the stream.
pub fn record_extra(line: String) {
    if !enabled() {
        return;
    }
    if line.contains('\n') {
        // A multi-line record would corrupt both the report and the
        // stream: reject it outright (counted, never framed).
        locked().extras_dropped += 1;
        if !EXTRA_DROP_WARNED.swap(true, Ordering::Relaxed) {
            crate::warn!(
                "extra record rejected: embedded newline would corrupt the NDJSON framing"
            );
        }
        return;
    }
    if crate::stream::active() {
        crate::stream::publish_line(&line);
    }
    let dropped = {
        let mut inner = locked();
        if inner.extras.len() >= EXTRA_CAP {
            inner.extras_dropped += 1;
            true
        } else {
            inner.extras.push(line);
            false
        }
    };
    if dropped && !EXTRA_DROP_WARNED.swap(true, Ordering::Relaxed) {
        crate::warn!(
            "extra-record cap ({EXTRA_CAP}) reached — further audit/extra records are \
             dropped from the in-memory report (stream with M3D_OBS_STREAM to keep them)"
        );
    }
}

/// Adds `delta` to the counter `name` (created at 0 on first use).
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    *locked().counters.entry(name.to_string()).or_insert(0) += delta;
}

/// Sets the gauge `name` to `value` (last write wins).
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    locked().gauges.insert(name.to_string(), value);
}

/// Appends one epoch record to the training curve of `model`.
pub fn record_epoch(model: &str, epoch: usize, loss: f64, metric: Option<f64>, wall: Duration) {
    if !enabled() {
        return;
    }
    locked()
        .curves
        .entry(model.to_string())
        .or_default()
        .push(EpochPoint {
            epoch: epoch as u32,
            loss,
            metric,
            wall_ms: wall.as_secs_f64() * 1e3,
        });
}

/// Point-in-time aggregate of one span for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// Span name.
    pub name: String,
    /// Number of completed spans.
    pub count: u64,
    /// Total (inclusive) time in milliseconds.
    pub total_ms: f64,
    /// Minimum duration in milliseconds.
    pub min_ms: f64,
    /// Mean duration in milliseconds.
    pub mean_ms: f64,
    /// Median duration in milliseconds (histogram estimate).
    pub p50_ms: f64,
    /// 95th-percentile duration in milliseconds (histogram estimate).
    pub p95_ms: f64,
    /// Maximum duration in milliseconds.
    pub max_ms: f64,
}

/// Point-in-time copy of everything the registry holds.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Span aggregates, name-sorted.
    pub spans: Vec<SpanSnapshot>,
    /// Counter values, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Training curves per model, name-sorted.
    pub curves: Vec<(String, Vec<EpochPoint>)>,
    /// Individual span occurrences in recording order (trace export).
    pub events: Vec<SpanEvent>,
    /// Span events discarded after the in-memory cap was reached.
    pub events_dropped: u64,
    /// Extra pre-serialized NDJSON records in recording order (e.g.
    /// diagnosis audits), emitted verbatim by the report writer.
    pub extras: Vec<String>,
    /// Extra records discarded after the in-memory cap was reached.
    pub extras_dropped: u64,
}

impl Snapshot {
    /// The span snapshot named `name`, if recorded.
    pub fn span(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The counter value of `name`, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The training curve of `model`, if recorded.
    pub fn curve(&self, model: &str) -> Option<&[EpochPoint]> {
        self.curves
            .iter()
            .find(|(n, _)| n == model)
            .map(|(_, c)| c.as_slice())
    }
}

/// Cumulative per-span state a [`DeltaCursor`] remembers between deltas.
#[derive(Debug, Default, Clone)]
struct SpanCursor {
    count: u64,
    total_ns: u64,
    hist: Histogram,
}

/// Opaque bookmark for [`take_delta`]: remembers the cumulative registry
/// state already emitted, so each call returns only what was recorded
/// since the previous one. A fresh cursor's first delta therefore covers
/// everything recorded since process start — folding every delta of a
/// stream reconstructs the full registry state, which is the streaming
/// lossless-reconstruction contract.
#[derive(Debug, Default)]
pub struct DeltaCursor {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanCursor>,
}

/// The growth of one span's aggregate since the previous delta.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanDelta {
    /// Span name.
    pub name: String,
    /// Occurrences completed since the last delta.
    pub count: u64,
    /// Nanoseconds accumulated since the last delta.
    pub total_ns: u64,
    /// Cumulative minimum (not a difference — minima only shrink).
    pub min_ns: u64,
    /// Cumulative maximum (not a difference — maxima only grow).
    pub max_ns: u64,
    /// Sparse histogram bucket increments (`(bucket, count)` pairs in the
    /// [`Histogram`] bucket scheme).
    pub hist: Vec<(usize, u64)>,
}

/// Everything recorded since a cursor's previous [`take_delta`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    /// Spans that grew, name-sorted.
    pub spans: Vec<SpanDelta>,
    /// Counter increments (only counters that changed), name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauges whose value changed, with their current value, name-sorted.
    pub gauges: Vec<(String, f64)>,
}

impl Delta {
    /// Whether nothing changed since the cursor's last call.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.gauges.is_empty()
    }
}

/// Computes the registry's growth since `cursor` last saw it and advances
/// the cursor. One registry lock per call; the flusher thread calls this
/// on its emission interval, so recording sites never pay for it.
pub fn take_delta(cursor: &mut DeltaCursor) -> Delta {
    let inner = locked();
    let mut delta = Delta::default();
    for (name, stat) in &inner.spans {
        let seen = cursor.spans.entry(name.clone()).or_default();
        if stat.count == seen.count {
            continue;
        }
        delta.spans.push(SpanDelta {
            name: name.clone(),
            count: stat.count - seen.count,
            total_ns: stat.total_ns - seen.total_ns,
            min_ns: stat.min_ns,
            max_ns: stat.max_ns,
            hist: stat.hist.diff_nonzero(&seen.hist),
        });
        seen.count = stat.count;
        seen.total_ns = stat.total_ns;
        seen.hist = stat.hist.clone();
    }
    for (name, &value) in &inner.counters {
        let seen = cursor.counters.entry(name.clone()).or_insert(0);
        if value > *seen {
            delta.counters.push((name.clone(), value - *seen));
            *seen = value;
        }
    }
    for (name, &value) in &inner.gauges {
        // Bit-compare: gauges are last-write-wins, so "changed" means the
        // exact representation moved (NaN-safe, no epsilon policy).
        let bits = value.to_bits();
        let seen = cursor.gauges.entry(name.clone());
        match seen {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                if *e.get() != bits {
                    e.insert(bits);
                    delta.gauges.push((name.clone(), value));
                }
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(bits);
                delta.gauges.push((name.clone(), value));
            }
        }
    }
    delta
}

const NS_PER_MS: f64 = 1e6;

/// Captures a snapshot of the registry.
pub fn snapshot() -> Snapshot {
    let inner = locked();
    Snapshot {
        spans: inner
            .spans
            .iter()
            .map(|(name, s)| SpanSnapshot {
                name: name.clone(),
                count: s.count,
                total_ms: s.total_ns as f64 / NS_PER_MS,
                min_ms: s.min_ns as f64 / NS_PER_MS,
                mean_ms: s.total_ns as f64 / s.count.max(1) as f64 / NS_PER_MS,
                p50_ms: s.hist.quantile(0.5) as f64 / NS_PER_MS,
                p95_ms: s.hist.quantile(0.95) as f64 / NS_PER_MS,
                max_ms: s.max_ns as f64 / NS_PER_MS,
            })
            .collect(),
        counters: inner
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect(),
        gauges: inner.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        curves: inner
            .curves
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
        events: inner.events.clone(),
        events_dropped: inner.events_dropped,
        extras: inner.extras.clone(),
        extras_dropped: inner.extras_dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_carry_only_growth_and_fold_back_to_totals() {
        // Unique names: the registry is process-global and other tests in
        // this binary may be recording concurrently.
        let mut cursor = DeltaCursor::default();
        counter_add("test.registry.delta_counter", 5);
        record_span("test.registry.delta_span", Duration::from_micros(100));
        let first = take_delta(&mut cursor);
        let c = first
            .counters
            .iter()
            .find(|(n, _)| n == "test.registry.delta_counter")
            .expect("first delta covers everything since process start");
        assert_eq!(c.1, 5);
        let s = first
            .spans
            .iter()
            .find(|s| s.name == "test.registry.delta_span")
            .expect("span in first delta");
        assert_eq!(s.count, 1);
        assert_eq!(s.hist.iter().map(|&(_, n)| n).sum::<u64>(), 1);

        // Nothing new for these names → they vanish from the next delta.
        let quiet = take_delta(&mut cursor);
        assert!(!quiet
            .counters
            .iter()
            .any(|(n, _)| n == "test.registry.delta_counter"));
        assert!(!quiet
            .spans
            .iter()
            .any(|s| s.name == "test.registry.delta_span"));

        counter_add("test.registry.delta_counter", 2);
        record_span("test.registry.delta_span", Duration::from_micros(300));
        let second = take_delta(&mut cursor);
        let c = second
            .counters
            .iter()
            .find(|(n, _)| n == "test.registry.delta_counter")
            .expect("grown counter reappears");
        assert_eq!(c.1, 2, "increment, not cumulative value");
        let s = second
            .spans
            .iter()
            .find(|s| s.name == "test.registry.delta_span")
            .expect("grown span reappears");
        assert_eq!(s.count, 1);
        assert!(s.min_ns <= s.max_ns, "min/max are cumulative bounds");
        // Folding both deltas reconstructs the cumulative aggregate.
        let folded: u64 = [&first, &second]
            .iter()
            .flat_map(|d| d.spans.iter())
            .filter(|s| s.name == "test.registry.delta_span")
            .map(|s| s.count)
            .sum();
        let snap = snapshot();
        assert_eq!(
            folded,
            snap.span("test.registry.delta_span").expect("snap").count
        );
    }

    #[test]
    fn gauge_deltas_use_bit_identity() {
        let mut cursor = DeltaCursor::default();
        gauge_set("test.registry.delta_gauge", 1.25);
        let first = take_delta(&mut cursor);
        assert!(first
            .gauges
            .iter()
            .any(|(n, v)| n == "test.registry.delta_gauge" && *v == 1.25));
        // Rewriting the identical value is not a change.
        gauge_set("test.registry.delta_gauge", 1.25);
        let same = take_delta(&mut cursor);
        assert!(!same
            .gauges
            .iter()
            .any(|(n, _)| n == "test.registry.delta_gauge"));
        gauge_set("test.registry.delta_gauge", 2.5);
        let moved = take_delta(&mut cursor);
        assert!(moved
            .gauges
            .iter()
            .any(|(n, v)| n == "test.registry.delta_gauge" && *v == 2.5));
    }
}
