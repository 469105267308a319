//! Machine-readable run reports: an NDJSON serialization of the registry
//! snapshot plus a config echo, written next to a harness binary's
//! table/figure output so perf trajectories are diffable across PRs.
//!
//! One JSON object per line, discriminated by `"type"`:
//!
//! ```text
//! {"type":"meta","schema":"m3d-obs/1","unix_secs":...,"config":{...}}
//! {"type":"span","name":"framework.train","count":1,"total_ms":..., ...}
//! {"type":"counter","name":"policy.candidates_pruned","value":17}
//! {"type":"gauge","name":"framework.t_p","value":0.93}
//! {"type":"epoch","model":"tier-predictor","epoch":0,"loss":0.69,"wall_ms":3.1}
//! {"type":"span_event","name":"framework.train","tid":1,"start_ns":120,"dur_ns":4500,
//!  "trace_id":3,"span_id":9,"parent_id":8}
//! {"type":"audit","trace_id":3,...}
//! ```
//!
//! `span_event` lines carry each span occurrence's begin offset on the
//! process timeline plus the recording thread (what `m3d-obsctl trace`
//! converts to Chrome Trace Event JSON) and its causal ids: `trace_id`
//! groups one logical request's spans, `span_id` is process-unique, and
//! `parent_id` names the enclosing span (0 = root). `m3d-obsctl explain`
//! reconstructs one trace's tree from them. Extra records registered via
//! [`crate::registry::record_extra`] — e.g. per-diagnosis `audit` records
//! — are emitted verbatim, one per line. Consumers must ignore record
//! types they do not know (forward compatibility within schema
//! `m3d-obs/1`).

use crate::registry::{self, Snapshot};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Environment variable naming the report output path.
pub const REPORT_ENV: &str = "M3D_OBS_REPORT";

/// Appends `s` to `out` as an escaped, double-quoted JSON string. Public
/// so crates serializing extra records (e.g. diagnosis audits) share one
/// escaping implementation.
pub fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite number to `out`, or `null` for NaN/infinity (invalid
/// in JSON). Public for the same reason as [`json_string`].
pub fn json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Serializes one span occurrence as a `span_event` NDJSON line (no
/// trailing newline). Shared by the end-of-run report writer and the
/// live stream so both emit byte-identical records.
pub(crate) fn span_event_line(
    name: &str,
    tid: u32,
    start_ns: u64,
    dur_ns: u64,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
) -> String {
    let mut out = String::with_capacity(96 + name.len());
    out.push_str("{\"type\":\"span_event\",\"name\":");
    json_string(&mut out, name);
    out.push_str(&format!(
        ",\"tid\":{tid},\"start_ns\":{start_ns},\"dur_ns\":{dur_ns},\"trace_id\":{trace_id},\"span_id\":{span_id},\"parent_id\":{parent_id}}}"
    ));
    out
}

/// A captured run report: config echo plus a registry snapshot.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Free-form `(key, value)` configuration echo for the meta line.
    pub config: Vec<(String, String)>,
    /// The metrics snapshot.
    pub snapshot: Snapshot,
}

impl RunReport {
    /// Captures the current registry state with a config echo. With the
    /// `alloc-profile` feature active and the counting allocator
    /// installed, global allocation totals are folded in as counters.
    pub fn capture(config: &[(&str, String)]) -> RunReport {
        #[allow(unused_mut)]
        let mut snapshot = registry::snapshot();
        #[cfg(feature = "alloc-profile")]
        if crate::alloc::installed() {
            snapshot.counters.push((
                "alloc.total_bytes".to_string(),
                crate::alloc::total_allocated(),
            ));
            snapshot
                .counters
                .push(("alloc.live_bytes".to_string(), crate::alloc::live_bytes()));
            snapshot.counters.push((
                "alloc.peak_live_bytes".to_string(),
                crate::alloc::peak_live_bytes(),
            ));
            snapshot.counters.sort_by(|a, b| a.0.cmp(&b.0));
        }
        // Streaming backpressure drops are a property of the live sink,
        // not the registry; surface them in the report's counters so
        // `summarize --strict` sees one uniform drop accounting.
        let stream_dropped = crate::stream::records_dropped();
        if stream_dropped > 0 {
            snapshot
                .counters
                .push(("obs.stream_records_dropped".to_string(), stream_dropped));
            snapshot.counters.sort_by(|a, b| a.0.cmp(&b.0));
        }
        RunReport {
            config: config
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            snapshot,
        }
    }

    /// Serializes the report as NDJSON.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"type\":\"meta\",\"schema\":\"m3d-obs/1\",\"unix_secs\":");
        let unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        out.push_str(&format!("{unix}"));
        out.push_str(",\"config\":{");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, k);
            out.push(':');
            json_string(&mut out, v);
        }
        out.push_str("}}\n");

        for s in &self.snapshot.spans {
            out.push_str("{\"type\":\"span\",\"name\":");
            json_string(&mut out, &s.name);
            out.push_str(&format!(",\"count\":{}", s.count));
            for (key, v) in [
                ("total_ms", s.total_ms),
                ("min_ms", s.min_ms),
                ("mean_ms", s.mean_ms),
                ("p50_ms", s.p50_ms),
                ("p95_ms", s.p95_ms),
                ("max_ms", s.max_ms),
            ] {
                out.push_str(&format!(",\"{key}\":"));
                json_number(&mut out, v);
            }
            out.push_str("}\n");
        }
        for (name, value) in &self.snapshot.counters {
            out.push_str("{\"type\":\"counter\",\"name\":");
            json_string(&mut out, name);
            out.push_str(&format!(",\"value\":{value}}}\n"));
        }
        for (name, value) in &self.snapshot.gauges {
            out.push_str("{\"type\":\"gauge\",\"name\":");
            json_string(&mut out, name);
            out.push_str(",\"value\":");
            json_number(&mut out, *value);
            out.push_str("}\n");
        }
        for (model, curve) in &self.snapshot.curves {
            for p in curve {
                out.push_str("{\"type\":\"epoch\",\"model\":");
                json_string(&mut out, model);
                out.push_str(&format!(",\"epoch\":{},\"loss\":", p.epoch));
                json_number(&mut out, p.loss);
                if let Some(m) = p.metric {
                    out.push_str(",\"metric\":");
                    json_number(&mut out, m);
                }
                out.push_str(",\"wall_ms\":");
                json_number(&mut out, p.wall_ms);
                out.push_str("}\n");
            }
        }
        for e in &self.snapshot.events {
            out.push_str(&span_event_line(
                &e.name,
                e.tid,
                e.start_ns,
                e.dur_ns,
                e.trace_id,
                e.span_id,
                e.parent_id,
            ));
            out.push('\n');
        }
        for extra in &self.snapshot.extras {
            out.push_str(extra);
            out.push('\n');
        }
        if self.snapshot.events_dropped > 0 {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"obs.span_events_dropped\",\"value\":{}}}\n",
                self.snapshot.events_dropped
            ));
        }
        if self.snapshot.extras_dropped > 0 {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"obs.extra_records_dropped\",\"value\":{}}}\n",
                self.snapshot.extras_dropped
            ));
        }
        out
    }

    /// Writes the NDJSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file creation/write errors.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_ndjson().as_bytes())
    }
}

/// If `M3D_OBS_REPORT` names a path, captures a report with `config` and
/// writes it there, returning the path written. Call at the end of a
/// harness binary, after the last instrumented work.
///
/// # Errors
///
/// Propagates file creation/write errors.
pub fn write_from_env(config: &[(&str, String)]) -> std::io::Result<Option<PathBuf>> {
    let Ok(path) = std::env::var(REPORT_ENV) else {
        return Ok(None);
    };
    if path.is_empty() {
        return Ok(None);
    }
    let path = PathBuf::from(path);
    RunReport::capture(config).write_ndjson(&path)?;
    crate::info!("run report written to {}", path.display());
    Ok(Some(path))
}

/// Flush-on-drop report and stream guard for a binary. Construct it
/// first thing in `main` with the run's config echo. If `M3D_OBS_STREAM`
/// names a path, live streaming is attached here and the path is echoed
/// as `stream`. On drop — at normal exit *and* during panic unwinding —
/// the echo gains `status` (`ok` or `panicked`), the report is written
/// to `M3D_OBS_REPORT` when set, and the stream closes.
#[derive(Debug)]
#[must_use = "binding to `_` drops immediately and the report would cover nothing"]
pub struct ReportGuard {
    config: Vec<(&'static str, String)>,
}

impl ReportGuard {
    /// Arms the guard with the config echo, in the order it is written.
    pub fn new(mut config: Vec<(&'static str, String)>) -> ReportGuard {
        if crate::stream::init_from_env() {
            if let Ok(stream) = std::env::var(crate::stream::STREAM_ENV) {
                config.push(("stream", stream));
            }
        }
        ReportGuard { config }
    }
}

impl Drop for ReportGuard {
    fn drop(&mut self) {
        let status = if std::thread::panicking() {
            "panicked"
        } else {
            "ok"
        };
        let mut config = std::mem::take(&mut self.config);
        config.push(("status", status.to_string()));
        // A failed report write must not fail (or abort, while
        // unwinding) the run that produced it.
        if let Err(e) = write_from_env(&config) {
            crate::error!("failed to write run report: {e}");
        }
        // After the report (so its stream-drop counter is captured):
        // final delta + stream_summary, then the sink closes.
        crate::stream::shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        let mut s = String::new();
        json_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut s = String::new();
        json_number(&mut s, f64::NAN);
        s.push(' ');
        json_number(&mut s, f64::INFINITY);
        s.push(' ');
        json_number(&mut s, 1.5);
        assert_eq!(s, "null null 1.5");
    }

    #[test]
    fn report_lines_are_json_objects() {
        let report = RunReport {
            config: vec![("scale".into(), "quick".into())],
            snapshot: Snapshot::default(),
        };
        let text = report.to_ndjson();
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("{\"type\":\"meta\""));
        assert!(first.contains("\"scale\":\"quick\""));
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }
}
