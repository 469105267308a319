//! Parsed form of an `m3d-obs/1` NDJSON run report.
//!
//! Parsing is forward-compatible within the schema: records with an
//! unknown `type` are counted and skipped (a newer producer may add
//! record kinds), and unknown fields on known records are ignored.
//! Structurally invalid lines (not JSON, no `type`, known type missing a
//! required field) are hard errors — a truncated or corrupt report must
//! not silently produce an empty summary.

use m3d_obs::json::{self, Json};
use std::fmt;

/// The schema identifier this tooling understands.
pub const SCHEMA: &str = "m3d-obs/1";

/// The `meta` header line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Meta {
    /// Schema identifier (`m3d-obs/1`).
    pub schema: String,
    /// Capture time, seconds since the Unix epoch.
    pub unix_secs: u64,
    /// Free-form config echo (`bin`, `scale`, `git_rev`, …).
    pub config: Vec<(String, String)>,
}

impl Meta {
    /// The config value under `key`, if echoed.
    pub fn config_get(&self, key: &str) -> Option<&str> {
        self.config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Aggregate statistics of one span (a pipeline stage).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Completed occurrences.
    pub count: u64,
    /// Total inclusive milliseconds.
    pub total_ms: f64,
    /// Minimum occurrence, milliseconds.
    pub min_ms: f64,
    /// Mean occurrence, milliseconds.
    pub mean_ms: f64,
    /// Median occurrence, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile occurrence, milliseconds.
    pub p95_ms: f64,
    /// Maximum occurrence, milliseconds.
    pub max_ms: f64,
}

/// One per-epoch training record of one model.
#[derive(Debug, Clone, PartialEq)]
pub struct Epoch {
    /// Model name.
    pub model: String,
    /// Epoch index.
    pub epoch: u32,
    /// Mean training loss.
    pub loss: f64,
    /// Optional extra metric.
    pub metric: Option<f64>,
    /// Epoch wall time in milliseconds.
    pub wall_ms: f64,
}

/// One span occurrence on the process timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name.
    pub name: String,
    /// Recording thread id.
    pub tid: u32,
    /// Begin offset from the process epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Trace the span belongs to (0 = outside any trace; also 0 for
    /// reports from producers predating causal ids).
    pub trace_id: u64,
    /// Process-unique span id (0 on pre-causality reports).
    pub span_id: u64,
    /// Enclosing span's id on the same trace (0 = root).
    pub parent_id: u64,
}

/// One per-diagnosis audit record (`{"type":"audit",...}`), the flight
/// recorder's structured verdict for a single failure log.
#[derive(Debug, Clone, PartialEq)]
pub struct Audit {
    /// Trace id joining the audit to its span tree (0 when the producer
    /// recorded with tracing disabled).
    pub trace_id: u64,
    /// The full record, retained for field-by-field rendering; producers
    /// may add fields without breaking this consumer.
    pub fields: Json,
}

impl Audit {
    /// The string value of a field, if present.
    pub fn str_of(&self, key: &str) -> Option<&str> {
        self.fields.get(key).and_then(Json::as_str)
    }

    /// The numeric value of a field, if present.
    pub fn num_of(&self, key: &str) -> Option<f64> {
        self.fields.get(key).and_then(Json::as_f64)
    }

    /// The boolean value of a field, if present.
    pub fn bool_of(&self, key: &str) -> Option<bool> {
        match self.fields.get(key) {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        }
    }
}

/// A fully parsed run report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// The meta header.
    pub meta: Meta,
    /// Span aggregates in file order.
    pub spans: Vec<SpanStat>,
    /// Counters in file order.
    pub counters: Vec<(String, u64)>,
    /// Gauges in file order.
    pub gauges: Vec<(String, f64)>,
    /// Training epochs in file order.
    pub epochs: Vec<Epoch>,
    /// Span events in file order.
    pub events: Vec<SpanEvent>,
    /// Per-diagnosis audit records in file order.
    pub audits: Vec<Audit>,
    /// Records skipped because their `type` was unknown.
    pub unknown_records: usize,
}

impl RunReport {
    /// The span stat named `name`, if present.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The counter value of `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// A report-parse failure with its line number (1-based).
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Line the failure occurred on.
    pub line: usize,
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn fail(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn str_field(v: &Json, key: &str, line: usize) -> Result<String, ParseError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| fail(line, format!("missing string field `{key}`")))
}

fn num_field(v: &Json, key: &str, line: usize) -> Result<f64, ParseError> {
    // `null` stands for a non-finite number (the producer writes NaN and
    // infinity that way).
    match v.get(key) {
        Some(Json::Null) => Ok(f64::NAN),
        Some(j) => j
            .as_f64()
            .ok_or_else(|| fail(line, format!("field `{key}` is not a number"))),
        None => Err(fail(line, format!("missing numeric field `{key}`"))),
    }
}

fn u64_field(v: &Json, key: &str, line: usize) -> Result<u64, ParseError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| fail(line, format!("missing integer field `{key}`")))
}

/// Parses the NDJSON text of one run report.
pub fn parse(text: &str) -> Result<RunReport, ParseError> {
    let mut report = RunReport::default();
    let mut saw_meta = false;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let v = json::parse(raw).map_err(|e| fail(line_no, format!("invalid JSON: {e}")))?;
        let ty = str_field(&v, "type", line_no)?;
        match ty.as_str() {
            "meta" => {
                let schema = str_field(&v, "schema", line_no)?;
                if schema != SCHEMA {
                    return Err(fail(line_no, format!("unsupported schema `{schema}`")));
                }
                let config = match v.get("config") {
                    Some(Json::Obj(map)) => map
                        .iter()
                        .filter_map(|(k, val)| val.as_str().map(|s| (k.clone(), s.to_string())))
                        .collect(),
                    _ => Vec::new(),
                };
                report.meta = Meta {
                    schema,
                    unix_secs: u64_field(&v, "unix_secs", line_no).unwrap_or(0),
                    config,
                };
                saw_meta = true;
            }
            "span" => report.spans.push(SpanStat {
                name: str_field(&v, "name", line_no)?,
                count: u64_field(&v, "count", line_no)?,
                total_ms: num_field(&v, "total_ms", line_no)?,
                min_ms: num_field(&v, "min_ms", line_no)?,
                mean_ms: num_field(&v, "mean_ms", line_no)?,
                p50_ms: num_field(&v, "p50_ms", line_no)?,
                p95_ms: num_field(&v, "p95_ms", line_no)?,
                max_ms: num_field(&v, "max_ms", line_no)?,
            }),
            "counter" => report.counters.push((
                str_field(&v, "name", line_no)?,
                u64_field(&v, "value", line_no)?,
            )),
            "gauge" => report.gauges.push((
                str_field(&v, "name", line_no)?,
                num_field(&v, "value", line_no)?,
            )),
            "epoch" => report.epochs.push(Epoch {
                model: str_field(&v, "model", line_no)?,
                epoch: u64_field(&v, "epoch", line_no)? as u32,
                loss: num_field(&v, "loss", line_no)?,
                metric: v.get("metric").and_then(Json::as_f64),
                wall_ms: num_field(&v, "wall_ms", line_no)?,
            }),
            "span_event" => report.events.push(SpanEvent {
                name: str_field(&v, "name", line_no)?,
                tid: u64_field(&v, "tid", line_no)? as u32,
                start_ns: u64_field(&v, "start_ns", line_no)?,
                dur_ns: u64_field(&v, "dur_ns", line_no)?,
                // Causal ids default to 0 so reports from producers
                // predating them still parse.
                trace_id: v.get("trace_id").and_then(Json::as_u64).unwrap_or(0),
                span_id: v.get("span_id").and_then(Json::as_u64).unwrap_or(0),
                parent_id: v.get("parent_id").and_then(Json::as_u64).unwrap_or(0),
            }),
            "audit" => report.audits.push(Audit {
                trace_id: u64_field(&v, "trace_id", line_no)?,
                fields: v,
            }),
            _ => report.unknown_records += 1,
        }
    }
    if !saw_meta {
        return Err(fail(0, "no meta record (empty or truncated report)"));
    }
    Ok(report)
}

/// Reads and parses a run report from `path`.
///
/// # Errors
///
/// I/O failures and parse failures, both stringified with the path.
pub fn load(path: &std::path::Path) -> Result<RunReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}
