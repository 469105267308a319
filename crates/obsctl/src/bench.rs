//! `BENCH_<scale>.json` perf snapshots and the regression gate.
//!
//! A snapshot condenses one or more run reports of the same workload into
//! per-stage statistics. Aggregation takes the **minimum** of each timing
//! metric across runs: best-of-N is the classic noise-robust benchmark
//! statistic — scheduler and cache interference only ever add time, so
//! the minimum is the closest observable to the workload's true cost.
//!
//! [`compare`] diffs two snapshots with a relative tolerance plus an
//! absolute floor: a stage regresses only when its current p50 exceeds
//! `base * (1 + rel_tol) + abs_floor_ms`. The floor keeps microsecond
//! stages (pure noise at CI granularity) from flapping the gate.

use crate::report::RunReport;
use m3d_obs::json::{self, Json};
use m3d_obs::report::{json_number, json_string};
use std::fmt::Write as _;

/// Snapshot schema identifier.
pub const BENCH_SCHEMA: &str = "m3d-bench/1";

/// Aggregated statistics of one stage across the snapshot's runs.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStat {
    /// Stage (span) name.
    pub name: String,
    /// Occurrences in the run with the most (runs must agree on shape,
    /// but a partial report from a panicking run may have fewer).
    pub count: u64,
    /// Best (minimum) median milliseconds across runs.
    pub p50_ms: f64,
    /// Best 95th-percentile milliseconds across runs.
    pub p95_ms: f64,
    /// Best maximum milliseconds across runs.
    pub max_ms: f64,
    /// Best total milliseconds across runs.
    pub total_ms: f64,
}

/// A canonical perf snapshot (the contents of a `BENCH_<scale>.json`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchSnapshot {
    /// Workload scale name (`quick`, `medium`, `paper`).
    pub scale: String,
    /// Git revision the runs were produced from.
    pub git_rev: String,
    /// Number of run reports aggregated.
    pub runs: u32,
    /// Per-stage statistics, name-sorted.
    pub stages: Vec<StageStat>,
    /// Work counters (max across runs), name-sorted.
    pub counters: Vec<(String, u64)>,
}

impl BenchSnapshot {
    /// The stage named `name`, if present.
    pub fn stage(&self, name: &str) -> Option<&StageStat> {
        self.stages.iter().find(|s| s.name == name)
    }
}

/// Aggregates run reports into a snapshot. `scale` overrides the value
/// echoed in the reports (they must agree with each other regardless).
///
/// # Errors
///
/// Rejects an empty report list and reports with mismatched scales.
pub fn aggregate(reports: &[RunReport], scale: Option<&str>) -> Result<BenchSnapshot, String> {
    let first = reports.first().ok_or("no run reports to aggregate")?;
    let report_scale = first.meta.config_get("scale").unwrap_or("unknown");
    for r in reports {
        let s = r.meta.config_get("scale").unwrap_or("unknown");
        if s != report_scale {
            return Err(format!("mixed scales in inputs: `{report_scale}` vs `{s}`"));
        }
    }
    let mut snapshot = BenchSnapshot {
        scale: scale.unwrap_or(report_scale).to_string(),
        git_rev: first
            .meta
            .config_get("git_rev")
            .unwrap_or("unknown")
            .to_string(),
        runs: reports.len() as u32,
        stages: Vec::new(),
        counters: Vec::new(),
    };
    for r in reports {
        for s in &r.spans {
            match snapshot.stages.iter_mut().find(|t| t.name == s.name) {
                Some(t) => {
                    t.count = t.count.max(s.count);
                    t.p50_ms = t.p50_ms.min(s.p50_ms);
                    t.p95_ms = t.p95_ms.min(s.p95_ms);
                    t.max_ms = t.max_ms.min(s.max_ms);
                    t.total_ms = t.total_ms.min(s.total_ms);
                }
                None => snapshot.stages.push(StageStat {
                    name: s.name.clone(),
                    count: s.count,
                    p50_ms: s.p50_ms,
                    p95_ms: s.p95_ms,
                    max_ms: s.max_ms,
                    total_ms: s.total_ms,
                }),
            }
        }
        for (name, value) in &r.counters {
            match snapshot.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v = (*v).max(*value),
                None => snapshot.counters.push((name.clone(), *value)),
            }
        }
    }
    snapshot.stages.sort_by(|a, b| a.name.cmp(&b.name));
    snapshot.counters.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(snapshot)
}

/// Serializes the snapshot as pretty-stable JSON (sorted keys, one stage
/// per line — meant to live in git).
pub fn to_json(s: &BenchSnapshot) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\n  \"schema\": \"{BENCH_SCHEMA}\",\n  \"scale\": ");
    json_string(&mut out, &s.scale);
    out.push_str(",\n  \"git_rev\": ");
    json_string(&mut out, &s.git_rev);
    let _ = write!(out, ",\n  \"runs\": {},\n  \"stages\": {{", s.runs);
    for (i, st) in s.stages.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        json_string(&mut out, &st.name);
        let _ = write!(out, ": {{\"count\": {}, \"p50_ms\": ", st.count);
        json_number(&mut out, st.p50_ms);
        out.push_str(", \"p95_ms\": ");
        json_number(&mut out, st.p95_ms);
        out.push_str(", \"max_ms\": ");
        json_number(&mut out, st.max_ms);
        out.push_str(", \"total_ms\": ");
        json_number(&mut out, st.total_ms);
        out.push('}');
    }
    out.push_str("\n  },\n  \"counters\": {");
    for (i, (name, value)) in s.counters.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        json_string(&mut out, name);
        let _ = write!(out, ": {value}");
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Parses a snapshot previously written by [`to_json`].
///
/// # Errors
///
/// Malformed JSON, wrong schema, or missing required fields.
pub fn parse_json(text: &str) -> Result<BenchSnapshot, String> {
    let v = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = v.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != BENCH_SCHEMA {
        return Err(format!("unsupported snapshot schema `{schema}`"));
    }
    let num = |obj: &Json, key: &str| -> Result<f64, String> {
        match obj.get(key) {
            Some(Json::Null) => Ok(f64::NAN),
            Some(j) => j.as_f64().ok_or_else(|| format!("`{key}` is not a number")),
            None => Err(format!("missing stage field `{key}`")),
        }
    };
    let mut snapshot = BenchSnapshot {
        scale: v
            .get("scale")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        git_rev: v
            .get("git_rev")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        runs: v.get("runs").and_then(Json::as_u64).unwrap_or(1) as u32,
        stages: Vec::new(),
        counters: Vec::new(),
    };
    let stages = v
        .get("stages")
        .and_then(Json::as_obj)
        .ok_or("missing `stages` object")?;
    for (name, st) in stages {
        snapshot.stages.push(StageStat {
            name: name.clone(),
            count: st.get("count").and_then(Json::as_u64).unwrap_or(0),
            p50_ms: num(st, "p50_ms")?,
            p95_ms: num(st, "p95_ms")?,
            max_ms: num(st, "max_ms")?,
            total_ms: num(st, "total_ms")?,
        });
    }
    if let Some(counters) = v.get("counters").and_then(Json::as_obj) {
        for (name, val) in counters {
            snapshot
                .counters
                .push((name.clone(), val.as_u64().unwrap_or(0)));
        }
    }
    Ok(snapshot)
}

/// Gate tolerances for [`compare`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Allowed relative p50 growth per stage (0.5 = +50%).
    pub rel: f64,
    /// Absolute slack in milliseconds added on top of the relative bound;
    /// keeps sub-millisecond stages from gating on timer noise.
    pub abs_ms: f64,
}

impl Default for Tolerance {
    /// CI machines are noisy neighbours: ±50% plus 5 ms of slack holds a
    /// best-of-2 quick run stable while still catching the 2–10×
    /// slowdowns a real regression produces on the heavy stages.
    fn default() -> Self {
        Tolerance {
            rel: 0.5,
            abs_ms: 5.0,
        }
    }
}

/// One per-stage comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// p50 exceeded the tolerance envelope — gate failure.
    Regressed {
        /// Stage name.
        name: String,
        /// Baseline p50 in milliseconds.
        base_ms: f64,
        /// Current p50 in milliseconds.
        cur_ms: f64,
        /// The envelope that was exceeded, in milliseconds.
        limit_ms: f64,
    },
    /// p50 shrank below the mirrored envelope — worth refreshing the
    /// baseline, never a failure.
    Improved {
        /// Stage name.
        name: String,
        /// Baseline p50 in milliseconds.
        base_ms: f64,
        /// Current p50 in milliseconds.
        cur_ms: f64,
    },
    /// Stage present in the baseline but absent now (renamed or removed
    /// instrumentation) — informational.
    Missing {
        /// Stage name.
        name: String,
    },
    /// Stage absent from the baseline (new instrumentation) —
    /// informational.
    Added {
        /// Stage name.
        name: String,
    },
}

/// Result of comparing a current snapshot against a baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// Per-stage outcomes, regressions first.
    pub deltas: Vec<Delta>,
}

impl Comparison {
    /// Whether any stage regressed (the gate's exit status).
    pub fn regressed(&self) -> bool {
        self.deltas
            .iter()
            .any(|d| matches!(d, Delta::Regressed { .. }))
    }
}

/// Compares `current` against `baseline` under `tol` (see module docs
/// for the envelope definition).
pub fn compare(baseline: &BenchSnapshot, current: &BenchSnapshot, tol: Tolerance) -> Comparison {
    let mut regressions = Vec::new();
    let mut rest = Vec::new();
    for base in &baseline.stages {
        let Some(cur) = current.stage(&base.name) else {
            rest.push(Delta::Missing {
                name: base.name.clone(),
            });
            continue;
        };
        // NaN stats (serialized nulls) never gate.
        if !base.p50_ms.is_finite() || !cur.p50_ms.is_finite() {
            continue;
        }
        let limit_ms = base.p50_ms * (1.0 + tol.rel) + tol.abs_ms;
        let floor_ms = (base.p50_ms * (1.0 - tol.rel) - tol.abs_ms).max(0.0);
        if cur.p50_ms > limit_ms {
            regressions.push(Delta::Regressed {
                name: base.name.clone(),
                base_ms: base.p50_ms,
                cur_ms: cur.p50_ms,
                limit_ms,
            });
        } else if cur.p50_ms < floor_ms {
            rest.push(Delta::Improved {
                name: base.name.clone(),
                base_ms: base.p50_ms,
                cur_ms: cur.p50_ms,
            });
        }
    }
    for cur in &current.stages {
        if baseline.stage(&cur.name).is_none() {
            rest.push(Delta::Added {
                name: cur.name.clone(),
            });
        }
    }
    regressions.extend(rest);
    Comparison {
        deltas: regressions,
    }
}

/// The wall-clock ratio `total_ms(slow) / total_ms(fast)` between two
/// stages of one snapshot — the statistic behind the `m3d-obsctl speedup`
/// gate (e.g. holding the bitmap back-trace to ≥2x over the reference
/// back-trace at the paper scale).
///
/// # Errors
///
/// Either stage absent from the snapshot, or a non-positive / non-finite
/// `fast` total (a zero-cost stage cannot anchor a ratio).
pub fn speedup(s: &BenchSnapshot, slow: &str, fast: &str) -> Result<f64, String> {
    let total = |name: &str| -> Result<f64, String> {
        let ms = s
            .stage(name)
            .ok_or_else(|| format!("stage `{name}` not in snapshot (scale `{}`)", s.scale))?
            .total_ms;
        if !ms.is_finite() {
            return Err(format!("stage `{name}` has no finite total"));
        }
        Ok(ms)
    };
    let slow_ms = total(slow)?;
    let fast_ms = total(fast)?;
    if fast_ms <= 0.0 {
        return Err(format!(
            "stage `{fast}` total is {fast_ms}ms; cannot anchor a speedup ratio"
        ));
    }
    Ok(slow_ms / fast_ms)
}

/// Renders a comparison as one line per delta (empty string when every
/// stage is within tolerance and unchanged in shape).
pub fn render(cmp: &Comparison) -> String {
    let mut out = String::new();
    for d in &cmp.deltas {
        match d {
            Delta::Regressed {
                name,
                base_ms,
                cur_ms,
                limit_ms,
            } => {
                let _ = writeln!(
                    out,
                    "REGRESSED {name}: p50 {base_ms:.3}ms -> {cur_ms:.3}ms (limit {limit_ms:.3}ms)"
                );
            }
            Delta::Improved {
                name,
                base_ms,
                cur_ms,
            } => {
                let _ = writeln!(
                    out,
                    "improved  {name}: p50 {base_ms:.3}ms -> {cur_ms:.3}ms (consider refreshing the baseline)"
                );
            }
            Delta::Missing { name } => {
                let _ = writeln!(out, "missing   {name}: in baseline but not in current run");
            }
            Delta::Added { name } => {
                let _ = writeln!(out, "added     {name}: not in baseline");
            }
        }
    }
    out
}
