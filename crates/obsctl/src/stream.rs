//! Reader for `m3d-obs-stream/1` live-telemetry streams: segment
//! discovery across the rotation chain, torn-tail-tolerant NDJSON
//! parsing, and lossless reconstruction of registry totals from `delta`
//! records.
//!
//! A stream is the rotating sink the `m3d-obs` background flusher
//! appends to (`M3D_OBS_STREAM`): `path.N` (oldest kept) … `path.1`,
//! then `path` (active). Every segment opens with a `stream_meta` line
//! carrying a monotonic segment ordinal; a crash can leave at most one
//! incomplete final line in the newest segment, which this reader skips
//! and counts rather than erroring — a live stream is *expected* to have
//! an unterminated tail while the producer is mid-write.
//!
//! Reconstruction folds the stream's `delta` records — counter
//! increments, per-span count/time increments, and sparse histogram
//! bucket diffs — back into cumulative totals. Because the producer's
//! first delta covers everything since process start and histograms
//! transfer as exact bucket counts (same bucket scheme, same quantile
//! rule via [`m3d_obs::Histogram`]), the reconstruction equals the
//! end-of-process report: same counts, same totals, same p50/p95. The
//! streaming integration tests assert that equality.

use crate::report::SpanEvent;
use m3d_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The stream-record schema identifier this reader understands.
pub const STREAM_SCHEMA: &str = "m3d-obs-stream/1";

/// Growth of one span since the previous delta.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanDelta {
    /// Span name.
    pub name: String,
    /// Occurrences completed in the window.
    pub count: u64,
    /// Nanoseconds accumulated in the window.
    pub total_ns: u64,
    /// Cumulative minimum duration, nanoseconds.
    pub min_ns: u64,
    /// Cumulative maximum duration, nanoseconds.
    pub max_ns: u64,
    /// Sparse histogram bucket increments (`(bucket, count)`).
    pub hist: Vec<(usize, u64)>,
}

/// One `delta` record: the registry's growth over one flush window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaRec {
    /// Gap-free 1-based sequence number within the stream.
    pub seq: u64,
    /// Producer wall-clock seconds since the Unix epoch.
    pub unix_secs: u64,
    /// Producer uptime at capture, nanoseconds.
    pub uptime_ns: u64,
    /// Spans that grew in the window.
    pub spans: Vec<SpanDelta>,
    /// Counter increments in the window.
    pub counters: Vec<(String, u64)>,
    /// Gauges that changed, with their current value.
    pub gauges: Vec<(String, f64)>,
}

/// One parsed stream record.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamRecord {
    /// Segment header: ordinal + wall-clock time the segment opened.
    Meta {
        /// 1-based ordinal of the segment across the stream's life.
        segment: u64,
        /// Wall-clock seconds since the Unix epoch.
        unix_secs: u64,
    },
    /// A periodic registry delta snapshot.
    Delta(DeltaRec),
    /// One completed span occurrence, streamed as it happened.
    Span(SpanEvent),
    /// A mirrored log record.
    Log {
        /// Producer uptime, seconds.
        uptime_s: f64,
        /// Severity name (`ERROR` … `TRACE`).
        level: String,
        /// Module path of the logging site.
        target: String,
        /// The formatted message.
        msg: String,
    },
    /// The closing record of a cleanly shut-down stream.
    Summary {
        /// Final delta sequence number.
        seq: u64,
        /// Segments written across the stream's life.
        segments: u64,
        /// Ring records written (span events, extras, logs).
        records: u64,
        /// Records dropped at the ring under backpressure.
        records_dropped: u64,
    },
    /// Any other record (e.g. an `audit` extra), kept verbatim —
    /// producers may stream record kinds this reader predates.
    Extra(Json),
}

impl StreamRecord {
    /// The `type` tag of an extra record, if this is one.
    pub fn extra_type(&self) -> Option<&str> {
        match self {
            StreamRecord::Extra(v) => v.get("type").and_then(Json::as_str),
            _ => None,
        }
    }
}

/// Everything read from one stream (all kept segments, oldest first).
#[derive(Debug, Clone, Default)]
pub struct StreamDump {
    /// Records in stream order.
    pub records: Vec<StreamRecord>,
    /// Incomplete final lines skipped (0 or 1 per segment; a live
    /// producer keeps only the newest segment's tail open).
    pub torn_lines: usize,
}

impl StreamDump {
    /// The closing summary, if the stream shut down cleanly.
    pub fn summary(&self) -> Option<&StreamRecord> {
        self.records
            .iter()
            .rev()
            .find(|r| matches!(r, StreamRecord::Summary { .. }))
    }

    /// All delta records in sequence order.
    pub fn deltas(&self) -> impl Iterator<Item = &DeltaRec> {
        self.records.iter().filter_map(|r| match r {
            StreamRecord::Delta(d) => Some(d),
            _ => None,
        })
    }
}

/// The existing segment files of the stream at `base`, oldest first
/// (`base.N`, …, `base.1`, `base`). Rotated indices are contiguous from
/// 1, so probing stops at the first gap.
pub fn segments(base: &Path) -> Vec<PathBuf> {
    let mut rotated = Vec::new();
    for i in 1.. {
        let p = m3d_obs::stream::rotated_path(base, i);
        if p.exists() {
            rotated.push(p);
        } else {
            break;
        }
    }
    rotated.reverse();
    if base.exists() {
        rotated.push(base.to_path_buf());
    }
    rotated
}

fn u64_of(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn parse_delta(v: &Json) -> DeltaRec {
    let mut rec = DeltaRec {
        seq: u64_of(v, "seq"),
        unix_secs: u64_of(v, "unix_secs"),
        uptime_ns: u64_of(v, "uptime_ns"),
        ..DeltaRec::default()
    };
    if let Some(spans) = v.get("spans").and_then(Json::as_obj) {
        for (name, s) in spans {
            let hist = s
                .get("hist")
                .and_then(Json::as_arr)
                .map(|pairs| {
                    pairs
                        .iter()
                        .filter_map(|p| {
                            let pair = p.as_arr()?;
                            Some((pair.first()?.as_u64()? as usize, pair.get(1)?.as_u64()?))
                        })
                        .collect()
                })
                .unwrap_or_default();
            rec.spans.push(SpanDelta {
                name: name.clone(),
                count: u64_of(s, "count"),
                total_ns: u64_of(s, "total_ns"),
                min_ns: u64_of(s, "min_ns"),
                max_ns: u64_of(s, "max_ns"),
                hist,
            });
        }
    }
    if let Some(counters) = v.get("counters").and_then(Json::as_obj) {
        for (name, val) in counters {
            rec.counters.push((name.clone(), val.as_u64().unwrap_or(0)));
        }
    }
    if let Some(gauges) = v.get("gauges").and_then(Json::as_obj) {
        for (name, val) in gauges {
            rec.gauges
                .push((name.clone(), val.as_f64().unwrap_or(f64::NAN)));
        }
    }
    rec
}

fn parse_record(v: Json) -> StreamRecord {
    match v.get("type").and_then(Json::as_str) {
        Some("stream_meta") => StreamRecord::Meta {
            segment: u64_of(&v, "segment"),
            unix_secs: u64_of(&v, "unix_secs"),
        },
        Some("delta") => StreamRecord::Delta(parse_delta(&v)),
        Some("span_event") => StreamRecord::Span(SpanEvent {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            tid: u64_of(&v, "tid") as u32,
            start_ns: u64_of(&v, "start_ns"),
            dur_ns: u64_of(&v, "dur_ns"),
            trace_id: u64_of(&v, "trace_id"),
            span_id: u64_of(&v, "span_id"),
            parent_id: u64_of(&v, "parent_id"),
        }),
        Some("log") => StreamRecord::Log {
            uptime_s: v.get("uptime_s").and_then(Json::as_f64).unwrap_or(0.0),
            level: v
                .get("level")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            target: v
                .get("target")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            msg: v
                .get("msg")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        },
        Some("stream_summary") => StreamRecord::Summary {
            seq: u64_of(&v, "seq"),
            segments: u64_of(&v, "segments"),
            records: u64_of(&v, "records"),
            records_dropped: u64_of(&v, "records_dropped"),
        },
        _ => StreamRecord::Extra(v),
    }
}

/// Parses the text of one segment into `dump`, skipping (and counting)
/// an unterminated final line.
///
/// # Errors
///
/// Malformed JSON on a *complete* line — a torn tail is tolerated, a
/// corrupt interior is not.
pub fn parse_segment(text: &str, dump: &mut StreamDump) -> Result<(), String> {
    let complete = match text.rfind('\n') {
        Some(last) => {
            if last + 1 < text.len() {
                // Unterminated tail: the producer was mid-write (or the
                // process died mid-line). Skip it — the framing contract
                // says at most one such line exists, at the very end.
                dump.torn_lines += 1;
            }
            &text[..last]
        }
        None => {
            if !text.is_empty() {
                dump.torn_lines += 1;
            }
            ""
        }
    };
    for (idx, line) in complete.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: invalid JSON: {e}", idx + 1))?;
        dump.records.push(parse_record(v));
    }
    Ok(())
}

/// Reads the whole stream at `base`: every kept segment, oldest first.
///
/// # Errors
///
/// No segments at all, unreadable files, or corrupt interior lines.
pub fn read(base: &Path) -> Result<StreamDump, String> {
    let segs = segments(base);
    if segs.is_empty() {
        return Err(format!("{}: no stream segments found", base.display()));
    }
    let mut dump = StreamDump::default();
    for path in &segs {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
        parse_segment(&text, &mut dump).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(dump)
}

/// One span's totals folded back from delta records.
#[derive(Debug, Clone)]
pub struct ReconstructedSpan {
    /// Total completed occurrences.
    pub count: u64,
    /// Total nanoseconds.
    pub total_ns: u64,
    /// Minimum occurrence, nanoseconds.
    pub min_ns: u64,
    /// Maximum occurrence, nanoseconds.
    pub max_ns: u64,
    /// The rebuilt duration histogram (exact bucket counts).
    pub hist: m3d_obs::Histogram,
}

impl ReconstructedSpan {
    /// The duration at quantile `q`, in milliseconds (same bucket scheme
    /// and quantile rule as the producer's end-of-run report).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.hist.quantile(q) as f64 / 1e6
    }
}

/// Cumulative registry state rebuilt by folding every delta of a stream.
#[derive(Debug, Clone, Default)]
pub struct Reconstruction {
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Last-seen gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Per-span totals and histograms.
    pub spans: BTreeMap<String, ReconstructedSpan>,
    /// Delta records folded.
    pub deltas: u64,
    /// Wall-clock window covered, `(first, last)` unix seconds.
    pub window_secs: Option<(u64, u64)>,
    /// Whether delta sequence numbers had gaps (records lost to an
    /// expired rotation segment — totals then under-report).
    pub seq_gap: bool,
    /// Last folded sequence number (gap detection).
    last_seq: u64,
}

impl Reconstruction {
    /// Folds one delta into the running totals.
    pub fn fold(&mut self, d: &DeltaRec) {
        if self.deltas > 0 {
            // Sequence numbers are gap-free at the producer; a hole here
            // means a rotated segment expired out from under us.
            self.seq_gap |= d.seq != self.last_seq + 1;
        }
        self.last_seq = d.seq;
        self.deltas += 1;
        self.window_secs = Some(match self.window_secs {
            None => (d.unix_secs, d.unix_secs),
            Some((first, _)) => (first, d.unix_secs),
        });
        for (name, inc) in &d.counters {
            *self.counters.entry(name.clone()).or_insert(0) += inc;
        }
        for (name, value) in &d.gauges {
            self.gauges.insert(name.clone(), *value);
        }
        for s in &d.spans {
            let entry = self
                .spans
                .entry(s.name.clone())
                .or_insert_with(|| ReconstructedSpan {
                    count: 0,
                    total_ns: 0,
                    min_ns: s.min_ns,
                    max_ns: s.max_ns,
                    hist: m3d_obs::Histogram::new(),
                });
            entry.count += s.count;
            entry.total_ns += s.total_ns;
            // min/max stream as cumulative bounds, not increments.
            entry.min_ns = entry.min_ns.min(s.min_ns);
            entry.max_ns = entry.max_ns.max(s.max_ns);
            for &(bucket, count) in &s.hist {
                entry.hist.add_bucket(bucket, count);
            }
        }
    }

    /// The counter total of `name`, if any delta carried it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }
}

impl Reconstruction {
    /// Rebuilds cumulative totals from every delta in `dump`.
    pub fn from_dump(dump: &StreamDump) -> Reconstruction {
        let mut rec = Reconstruction::default();
        for d in dump.deltas() {
            rec.fold(d);
        }
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torn_tail_is_skipped_and_counted() {
        let text = "{\"type\":\"stream_meta\",\"schema\":\"m3d-obs-stream/1\",\"segment\":1,\"unix_secs\":5}\n{\"type\":\"delta\",\"seq\":1,\"unix_secs\":6,\"uptime_ns\":10,\"spans\":{},\"counters\":{\"a\":2},\"gauges\":{}}\n{\"type\":\"delta\",\"seq\":2,\"unix";
        let mut dump = StreamDump::default();
        parse_segment(text, &mut dump).expect("torn tail tolerated");
        assert_eq!(dump.torn_lines, 1);
        assert_eq!(dump.records.len(), 2);
        let rec = Reconstruction::from_dump(&dump);
        assert_eq!(rec.counter("a"), Some(2));
    }

    #[test]
    fn corrupt_interior_line_is_an_error() {
        let text = "{\"type\":\"stream_meta\",\"schema\":\"m3d-obs-stream/1\",\"segment\":1,\"unix_secs\":5}\nnot json\n{\"type\":\"delta\",\"seq\":1,\"unix_secs\":6,\"uptime_ns\":1,\"spans\":{},\"counters\":{},\"gauges\":{}}\n";
        let mut dump = StreamDump::default();
        assert!(parse_segment(text, &mut dump).is_err());
    }

    #[test]
    fn folding_deltas_accumulates_and_detects_gaps() {
        let mk = |seq: u64, inc: u64| DeltaRec {
            seq,
            unix_secs: 100 + seq,
            uptime_ns: seq * 1_000,
            spans: vec![SpanDelta {
                name: "stage".to_string(),
                count: 1,
                total_ns: inc,
                min_ns: 10,
                max_ns: inc,
                hist: vec![(5, 1)],
            }],
            counters: vec![("c".to_string(), inc)],
            gauges: vec![("g".to_string(), inc as f64)],
        };
        let mut rec = Reconstruction::default();
        rec.fold(&mk(1, 100));
        rec.fold(&mk(2, 50));
        assert!(!rec.seq_gap);
        assert_eq!(rec.counter("c"), Some(150));
        let span = rec.spans.get("stage").expect("span folded");
        assert_eq!(span.count, 2);
        assert_eq!(span.total_ns, 150);
        assert_eq!(span.min_ns, 10);
        assert_eq!(span.max_ns, 100);
        assert_eq!(span.hist.len(), 2);
        assert_eq!(rec.gauges.get("g"), Some(&50.0), "gauges are last-wins");
        assert_eq!(rec.window_secs, Some((101, 102)));
        rec.fold(&mk(5, 1)); // seq 3..4 missing
        assert!(rec.seq_gap, "rotation-expired deltas must be flagged");
    }
}
