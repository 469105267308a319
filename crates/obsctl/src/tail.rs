//! `m3d-obsctl tail` — follow a live telemetry stream like `tail -f`,
//! rendering span events, mirrored logs, and audit records as they
//! arrive, with optional design / span / level filters.
//!
//! Without `--follow` the existing stream contents render once and the
//! command exits. With it, the stream is polled until the producer's
//! closing `stream_summary` appears (a cleanly shut-down run) or the
//! caller interrupts. Rotation is handled by tracking the monotonic
//! segment ordinal plus a per-segment record count, so records are never
//! re-rendered after the active segment rotates away.

use crate::stream::{self, StreamDump, StreamRecord};
use m3d_obs::json::Json;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// Record filters; all unset = render everything. When at least one is
/// set, a record renders only if a filter *applicable to its kind*
/// matches: `span` filters span events (name prefix), `level` filters
/// logs (at least that severe), `design` filters audits (exact `design`
/// field). Kinds with no applicable filter set are hidden, so
/// `--design b14` shows only b14's audits.
#[derive(Debug, Clone, Default)]
pub struct TailFilter {
    /// Exact `design` field an audit must carry.
    pub design: Option<String>,
    /// Span-name prefix a span event must match.
    pub span: Option<String>,
    /// Minimum severity a log record must have (`error` > `warn` > …).
    pub level: Option<m3d_obs::Level>,
}

impl TailFilter {
    fn unfiltered(&self) -> bool {
        self.design.is_none() && self.span.is_none() && self.level.is_none()
    }
}

fn parse_level(s: &str) -> Option<m3d_obs::Level> {
    match s.to_ascii_lowercase().as_str() {
        "error" => Some(m3d_obs::Level::Error),
        "warn" | "warning" => Some(m3d_obs::Level::Warn),
        "info" => Some(m3d_obs::Level::Info),
        "debug" => Some(m3d_obs::Level::Debug),
        "trace" => Some(m3d_obs::Level::Trace),
        _ => None,
    }
}

/// Parses a `--level` argument.
///
/// # Errors
///
/// Unknown level names.
pub fn level_from_arg(s: &str) -> Result<m3d_obs::Level, String> {
    parse_level(s).ok_or_else(|| format!("unknown level `{s}` (error|warn|info|debug|trace)"))
}

fn fmt_dur_ns(ns: u64) -> String {
    let ms = ns as f64 / 1e6;
    if ms >= 1_000.0 {
        format!("{:.2}s", ms / 1e3)
    } else if ms >= 1.0 {
        format!("{ms:.2}ms")
    } else {
        format!("{:.1}us", ms * 1e3)
    }
}

/// Renders one record under `filter`; `None` = filtered out or a record
/// kind `tail` does not show (segment metas and delta snapshots — those
/// are `m3d-obsctl top`'s input, noise in a live tail).
pub fn render_record(record: &StreamRecord, filter: &TailFilter) -> Option<String> {
    match record {
        StreamRecord::Span(e) => {
            match &filter.span {
                Some(prefix) if !e.name.starts_with(prefix.as_str()) => return None,
                Some(_) => {}
                None if filter.unfiltered() => {}
                None => return None,
            }
            let mut out = format!(
                "[{:>9.3}s] span  {} {} tid={}",
                e.start_ns as f64 / 1e9,
                e.name,
                fmt_dur_ns(e.dur_ns),
                e.tid,
            );
            if e.trace_id != 0 {
                let _ = write!(out, " trace={}", e.trace_id);
            }
            Some(out)
        }
        StreamRecord::Log {
            uptime_s,
            level,
            target,
            msg,
        } => {
            match &filter.level {
                Some(min) => {
                    let severity = parse_level(level).unwrap_or(m3d_obs::Level::Trace);
                    if severity > *min {
                        return None;
                    }
                }
                None if filter.unfiltered() => {}
                None => return None,
            }
            Some(format!("[{uptime_s:>9.3}s] {level:5} {target}: {msg}"))
        }
        StreamRecord::Extra(v) => {
            let design = v.get("design").and_then(Json::as_str);
            match &filter.design {
                Some(want) => {
                    if design != Some(want.as_str()) {
                        return None;
                    }
                }
                None if filter.unfiltered() => {}
                None => return None,
            }
            let ty = v.get("type").and_then(Json::as_str).unwrap_or("extra");
            let mut out = format!("[    extra ] {ty}");
            if let Some(map) = v.as_obj() {
                for (k, val) in map {
                    if k == "type" {
                        continue;
                    }
                    match val {
                        Json::Str(s) => {
                            let _ = write!(out, " {k}={s}");
                        }
                        Json::Num(n) => {
                            let _ = write!(out, " {k}={n}");
                        }
                        Json::Bool(b) => {
                            let _ = write!(out, " {k}={b}");
                        }
                        _ => {}
                    }
                }
            }
            Some(out)
        }
        StreamRecord::Summary {
            seq,
            segments,
            records,
            records_dropped,
        } => Some(format!(
            "stream closed: {records} record(s), {records_dropped} dropped, \
             {segments} segment(s), {seq} delta(s)"
        )),
        StreamRecord::Meta { .. } | StreamRecord::Delta(_) => None,
    }
}

/// Cursor over a rotating stream: remembers the newest segment ordinal
/// seen and how many records of it were already consumed, so repeated
/// polls yield each record exactly once even across rotations.
#[derive(Debug, Default)]
pub struct TailCursor {
    last_segment: u64,
    consumed_in_last: usize,
}

impl TailCursor {
    /// Reads the stream and returns the records that appeared since the
    /// previous call (all of them on the first).
    ///
    /// # Errors
    ///
    /// Unreadable or interior-corrupt segments ([`stream::read`]).
    pub fn poll(&mut self, base: &Path) -> Result<Vec<StreamRecord>, String> {
        let dump = stream::read(base)?;
        Ok(self.advance(&dump))
    }

    /// The not-yet-consumed suffix of `dump`, advancing the cursor.
    pub fn advance(&mut self, dump: &StreamDump) -> Vec<StreamRecord> {
        // Split the stream into (segment ordinal, records) groups. A
        // record before any stream_meta (malformed producer) lands in
        // segment 0 and is only ever consumed once, on the first poll.
        let mut fresh = Vec::new();
        let mut segment = 0u64;
        let mut index_in_segment = 0usize;
        for r in &dump.records {
            if let StreamRecord::Meta { segment: ord, .. } = r {
                segment = *ord;
                index_in_segment = 0;
            }
            index_in_segment += 1;
            let seen = segment < self.last_segment
                || (segment == self.last_segment && index_in_segment <= self.consumed_in_last);
            if !seen {
                fresh.push(r.clone());
            }
            if segment > self.last_segment {
                self.last_segment = segment;
                self.consumed_in_last = index_in_segment;
            } else if segment == self.last_segment {
                self.consumed_in_last = self.consumed_in_last.max(index_in_segment);
            }
        }
        fresh
    }
}

/// Runs the tail: renders existing records, then (with `follow`) polls
/// every `poll` until a `stream_summary` arrives. Returns the rendered
/// line count.
///
/// # Errors
///
/// Stream read failures. A vanished-then-recreated stream mid-follow
/// surfaces as whatever the reader reports.
pub fn run(
    base: &Path,
    filter: &TailFilter,
    follow: bool,
    poll: Duration,
) -> Result<usize, String> {
    let mut cursor = TailCursor::default();
    let mut rendered = 0usize;
    loop {
        let fresh = cursor.poll(base)?;
        let mut closed = false;
        for record in &fresh {
            if let Some(line) = render_record(record, filter) {
                m3d_obs::out!("{line}");
                rendered += 1;
            }
            closed |= matches!(record, StreamRecord::Summary { .. });
        }
        if !follow || closed {
            return Ok(rendered);
        }
        std::thread::sleep(poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SpanEvent;

    fn span(name: &str) -> StreamRecord {
        StreamRecord::Span(SpanEvent {
            name: name.to_string(),
            tid: 1,
            start_ns: 5_000_000,
            dur_ns: 2_000_000,
            trace_id: 3,
            span_id: 9,
            parent_id: 0,
        })
    }

    fn log(level: &str) -> StreamRecord {
        StreamRecord::Log {
            uptime_s: 1.0,
            level: level.to_string(),
            target: "m3d_sim".to_string(),
            msg: "hello".to_string(),
        }
    }

    fn audit(design: &str) -> StreamRecord {
        let line = format!("{{\"type\":\"audit\",\"trace_id\":3,\"design\":\"{design}\"}}");
        StreamRecord::Extra(m3d_obs::json::parse(&line).expect("test json"))
    }

    #[test]
    fn unfiltered_tail_shows_all_renderable_kinds() {
        let f = TailFilter::default();
        assert!(render_record(&span("diagnosis.case"), &f).is_some());
        assert!(render_record(&log("WARN"), &f).is_some());
        assert!(render_record(&audit("b14"), &f).is_some());
        assert!(
            render_record(
                &StreamRecord::Meta {
                    segment: 1,
                    unix_secs: 0
                },
                &f
            )
            .is_none(),
            "metas are plumbing, not content"
        );
    }

    #[test]
    fn filters_are_per_kind_and_hide_other_kinds() {
        let f = TailFilter {
            design: Some("b14".to_string()),
            ..TailFilter::default()
        };
        assert!(render_record(&audit("b14"), &f).is_some());
        assert!(render_record(&audit("aes"), &f).is_none());
        assert!(
            render_record(&span("diagnosis.case"), &f).is_none(),
            "a design filter hides span events"
        );
        let f = TailFilter {
            span: Some("diagnosis.".to_string()),
            level: Some(m3d_obs::Level::Warn),
            ..TailFilter::default()
        };
        assert!(render_record(&span("diagnosis.case"), &f).is_some());
        assert!(render_record(&span("atpg.gen"), &f).is_none());
        assert!(render_record(&log("ERROR"), &f).is_some());
        assert!(render_record(&log("INFO"), &f).is_none(), "below min level");
        assert!(render_record(&audit("b14"), &f).is_none());
    }

    #[test]
    fn cursor_consumes_each_record_once_across_rotation() {
        let meta = |ord: u64| StreamRecord::Meta {
            segment: ord,
            unix_secs: 0,
        };
        let mut cursor = TailCursor::default();
        let mut dump = StreamDump {
            records: vec![meta(1), span("a"), span("b")],
            torn_lines: 0,
        };
        assert_eq!(cursor.advance(&dump).len(), 3);
        // Same content again: nothing new.
        assert!(cursor.advance(&dump).is_empty());
        // Segment grows, then rotates into a new one.
        dump.records.push(span("c"));
        dump.records.push(meta(2));
        dump.records.push(span("d"));
        let fresh = cursor.advance(&dump);
        assert_eq!(fresh.len(), 3, "c + meta(2) + d");
        // Oldest segment expires; nothing re-renders.
        let dump2 = StreamDump {
            records: vec![meta(2), span("d")],
            torn_lines: 0,
        };
        assert!(cursor.advance(&dump2).is_empty());
    }

    #[test]
    fn summary_renders_and_levels_parse() {
        let f = TailFilter::default();
        let line = render_record(
            &StreamRecord::Summary {
                seq: 4,
                segments: 2,
                records: 100,
                records_dropped: 3,
            },
            &f,
        )
        .expect("summary always renders");
        assert!(line.contains("3 dropped"));
        assert!(level_from_arg("warn").is_ok());
        assert!(level_from_arg("loud").is_err());
    }
}
