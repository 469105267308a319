//! Human-readable summary of one run report: a per-stage timing table,
//! counters, gauges, and a digest of each model's training curve.

use crate::report::RunReport;
use std::fmt::Write as _;

fn fmt_ms(ms: f64) -> String {
    if !ms.is_finite() {
        "n/a".to_string()
    } else if ms >= 10_000.0 {
        format!("{:.1}s", ms / 1e3)
    } else if ms >= 1.0 {
        format!("{ms:.2}ms")
    } else {
        format!("{:.1}us", ms * 1e3)
    }
}

/// Telemetry records the run dropped anywhere — span events or extras at
/// the in-memory caps, stream records at the ring. `summarize --strict`
/// fails a run whose total is nonzero: a report produced under drop
/// pressure is not trustworthy evidence for per-trace analysis.
pub fn dropped_records(report: &RunReport) -> u64 {
    [
        "obs.span_events_dropped",
        "obs.extra_records_dropped",
        "obs.stream_records_dropped",
    ]
    .iter()
    .filter_map(|name| report.counter(name))
    .sum()
}

/// Renders the summary as plain text (one table per section).
pub fn summarize(report: &RunReport) -> String {
    let mut out = String::new();
    let bin = report.meta.config_get("bin").unwrap_or("?");
    let scale = report.meta.config_get("scale").unwrap_or("?");
    let rev = report.meta.config_get("git_rev").unwrap_or("?");
    let _ = writeln!(out, "run report: bin={bin} scale={scale} git_rev={rev}");
    for (k, v) in &report.meta.config {
        if !matches!(k.as_str(), "bin" | "scale" | "git_rev") {
            let _ = writeln!(out, "  config {k}={v}");
        }
    }

    if !report.spans.is_empty() {
        let name_w = report
            .spans
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(0)
            .max("stage".len());
        let _ = writeln!(
            out,
            "\n{:<name_w$} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "stage", "count", "p50", "p95", "max", "total"
        );
        for s in &report.spans {
            let _ = writeln!(
                out,
                "{:<name_w$} {:>8} {:>10} {:>10} {:>10} {:>10}",
                s.name,
                s.count,
                fmt_ms(s.p50_ms),
                fmt_ms(s.p95_ms),
                fmt_ms(s.max_ms),
                fmt_ms(s.total_ms),
            );
        }
    }

    if !report.counters.is_empty() {
        let _ = writeln!(out, "\ncounters:");
        for (name, value) in &report.counters {
            let _ = writeln!(out, "  {name} = {value}");
        }
    }
    if !report.gauges.is_empty() {
        let _ = writeln!(out, "\ngauges:");
        for (name, value) in &report.gauges {
            let _ = writeln!(out, "  {name} = {value}");
        }
    }

    // Effective kernel throughput: each `gnn.kernel.flops.<stage>` counter
    // divided by its stage span's total wall time ("train" pairs with the
    // `gnn.train` span, "inference" with `inference`, and so on).
    let mut flops_lines: Vec<String> = Vec::new();
    for (name, value) in &report.counters {
        let Some(stage) = name.strip_prefix("gnn.kernel.flops.") else {
            continue;
        };
        let prefixed = format!("gnn.{stage}");
        let span = report.span(&prefixed).or_else(|| report.span(stage));
        flops_lines.push(match span {
            Some(s) if s.total_ms > 0.0 => {
                let gflops = *value as f64 / (s.total_ms / 1e3) / 1e9;
                format!(
                    "  {stage}: {value} flops / {} -> {gflops:.2} GFLOP/s",
                    fmt_ms(s.total_ms)
                )
            }
            _ => format!("  {stage}: {value} flops (no wall time recorded)"),
        });
    }
    if !flops_lines.is_empty() {
        let _ = writeln!(out, "\nkernel throughput:");
        for line in &flops_lines {
            let _ = writeln!(out, "{line}");
        }
    }

    // One digest line per model: epochs, first/last loss, total wall.
    let mut models: Vec<&str> = Vec::new();
    for e in &report.epochs {
        if !models.contains(&e.model.as_str()) {
            models.push(&e.model);
        }
    }
    if !models.is_empty() {
        let _ = writeln!(out, "\ntraining curves:");
        for model in models {
            let pts: Vec<_> = report.epochs.iter().filter(|e| e.model == model).collect();
            let wall: f64 = pts.iter().map(|e| e.wall_ms).sum();
            let first = pts.first().expect("non-empty by construction");
            let last = pts.last().expect("non-empty by construction");
            let _ = writeln!(
                out,
                "  {model}: {} epochs, loss {:.4} -> {:.4}, wall {}",
                pts.len(),
                first.loss,
                last.loss,
                fmt_ms(wall),
            );
        }
    }

    if !report.events.is_empty() {
        let threads: std::collections::BTreeSet<u32> =
            report.events.iter().map(|e| e.tid).collect();
        let _ = writeln!(
            out,
            "\nspan events: {} across {} thread(s) (use `m3d-obsctl trace` for the timeline)",
            report.events.len(),
            threads.len(),
        );
    }
    if !report.audits.is_empty() {
        let degraded = report
            .audits
            .iter()
            .filter(|a| a.str_of("degrade_reason").is_some())
            .count();
        let _ = writeln!(
            out,
            "audits: {} diagnosis record(s), {degraded} degraded (use `m3d-obsctl explain <trace-id>`)",
            report.audits.len(),
        );
    }
    if let Some(dropped) = report.counter("obs.span_events_dropped") {
        if dropped > 0 {
            let _ = writeln!(
                out,
                "\nWARNING: {dropped} span event(s) were DROPPED at the in-memory cap — \
                 the timeline and trace trees above under-report; stream the run \
                 (M3D_OBS_STREAM) or shorten it before trusting per-trace analysis"
            );
        }
    }
    if let Some(dropped) = report.counter("obs.extra_records_dropped") {
        if dropped > 0 {
            let _ = writeln!(
                out,
                "WARNING: {dropped} extra record(s) (diagnosis audits) were DROPPED at \
                 the in-memory cap — audit coverage is incomplete"
            );
        }
    }
    if let Some(dropped) = report.counter("obs.stream_records_dropped") {
        if dropped > 0 {
            let _ = writeln!(
                out,
                "WARNING: {dropped} telemetry stream record(s) were DROPPED at the ring \
                 buffer — the streamed NDJSON under-reports span events/audits (delta \
                 snapshots are unaffected)"
            );
        }
    }
    if report.unknown_records > 0 {
        let _ = writeln!(
            out,
            "({} unknown record(s) skipped — newer producer?)",
            report.unknown_records
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SpanStat;

    fn span(name: &str, total_ms: f64) -> SpanStat {
        SpanStat {
            name: name.to_string(),
            count: 1,
            total_ms,
            min_ms: total_ms,
            mean_ms: total_ms,
            p50_ms: total_ms,
            p95_ms: total_ms,
            max_ms: total_ms,
        }
    }

    /// `gnn.kernel.flops.<stage>` counters pair with their stage spans and
    /// render as GFLOP/s; counters without a span degrade gracefully.
    #[test]
    fn kernel_flops_counters_become_gflops() {
        let report = RunReport {
            spans: vec![span("gnn.train", 2_000.0), span("inference", 500.0)],
            counters: vec![
                ("gnn.kernel.flops.train".to_string(), 4_000_000_000),
                ("gnn.kernel.flops.inference".to_string(), 250_000_000),
                ("gnn.kernel.flops.orphan".to_string(), 7),
                ("atpg.patterns_generated".to_string(), 12),
            ],
            ..RunReport::default()
        };
        let text = summarize(&report);
        assert!(text.contains("kernel throughput:"), "{text}");
        // 4e9 flops over 2s = 2.00 GFLOP/s; 2.5e8 over 0.5s = 0.50.
        assert!(
            text.contains("train: 4000000000 flops / 2000.00ms -> 2.00 GFLOP/s"),
            "{text}"
        );
        assert!(
            text.contains("inference: 250000000 flops / 500.00ms -> 0.50 GFLOP/s"),
            "{text}"
        );
        assert!(
            text.contains("orphan: 7 flops (no wall time recorded)"),
            "{text}"
        );
        assert!(!text.contains("atpg.patterns_generated flops"), "{text}");
    }

    /// No flops counters, no section.
    #[test]
    fn no_kernel_flops_no_throughput_section() {
        let report = RunReport {
            spans: vec![span("gnn.train", 10.0)],
            counters: vec![("atpg.patterns_generated".to_string(), 3)],
            ..RunReport::default()
        };
        assert!(!summarize(&report).contains("kernel throughput"));
    }
}
