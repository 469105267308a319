//! `m3d-obsctl explain`: reconstruct one diagnosis end-to-end.
//!
//! Every `framework.diagnose` call opens a root span with a fresh trace
//! id, and the flight recorder joins three record streams on that id:
//! the causal span tree (`span_event` records with `trace_id` /
//! `span_id` / `parent_id`), the structured [`Audit`] verdict, and the
//! per-design SLO aggregates. [`explain`] renders the first two for a
//! single trace id — the span tree with durations, followed by the audit
//! as a short narrative — so one failing diagnosis can be read top to
//! bottom without grepping raw NDJSON.

use crate::report::{Audit, RunReport, SpanEvent};
use std::fmt::Write as _;

fn fmt_ms(ns: u64) -> String {
    let ms = ns as f64 / 1e6;
    if ms >= 1.0 {
        format!("{ms:.2}ms")
    } else {
        format!("{:.1}us", ms * 1e3)
    }
}

fn fmt_num(n: f64) -> String {
    if !n.is_finite() {
        "non-finite".to_string()
    } else if n == n.trunc() && n.abs() < 1e15 {
        format!("{n}")
    } else {
        let mut s = format!("{n:.4}");
        while s.ends_with('0') {
            s.pop();
        }
        if s.ends_with('.') {
            s.pop();
        }
        s
    }
}

/// Renders the span tree of `events` (all on one trace), children
/// indented under their parent, siblings in start-time order.
fn render_tree(out: &mut String, events: &[&SpanEvent]) {
    // Events are few per trace (a handful of pipeline stages), so the
    // quadratic child scan is fine and keeps this allocation-light.
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (events[i].start_ns, events[i].span_id));
    let is_root = |e: &SpanEvent| {
        e.parent_id == 0
            || !events
                .iter()
                .any(|p| p.span_id == e.parent_id && p.span_id != 0)
    };
    fn emit(out: &mut String, events: &[&SpanEvent], order: &[usize], at: usize, depth: usize) {
        let e = events[at];
        let _ = writeln!(
            out,
            "  {:indent$}{}  {}  (tid {})",
            "",
            e.name,
            fmt_ms(e.dur_ns),
            e.tid,
            indent = depth * 2
        );
        if e.span_id == 0 {
            // Pre-causality report: no ids, so no children to find.
            return;
        }
        for &j in order {
            if events[j].parent_id == e.span_id {
                emit(out, events, order, j, depth + 1);
            }
        }
    }
    for &i in &order {
        if is_root(events[i]) {
            emit(out, events, &order, i, 0);
        }
    }
}

/// Renders the audit record as a short narrative, one aspect per line.
fn render_audit(out: &mut String, a: &Audit) {
    out.push_str("audit:\n");
    if let Some(design) = a.str_of("design") {
        let _ = writeln!(out, "  design     {design}");
    }
    if let (Some(entries), Some(valid)) = (a.num_of("log_entries"), a.bool_of("log_valid")) {
        let _ = writeln!(
            out,
            "  log        {} entries, {}",
            fmt_num(entries),
            if valid { "validated" } else { "INVALID" }
        );
    }
    if let (Some(nodes), Some(mivs)) = (a.num_of("subgraph_nodes"), a.num_of("subgraph_mivs")) {
        let _ = writeln!(
            out,
            "  backtrace  {} node(s), {} MIV(s) (activity checks {}, dropped patterns {})",
            fmt_num(nodes),
            fmt_num(mivs),
            fmt_num(a.num_of("bt_activity_checks").unwrap_or(0.0)),
            fmt_num(a.num_of("bt_dropped_patterns").unwrap_or(0.0)),
        );
    }
    if let Some(finite) = a.bool_of("features_finite") {
        let _ = writeln!(
            out,
            "  features   {}, mean {}",
            if finite { "finite" } else { "NON-FINITE" },
            fmt_num(a.num_of("feature_mean").unwrap_or(f64::NAN)),
        );
    }
    if let Some(probs) = a
        .fields
        .get("tier_probs")
        .and_then(m3d_obs::json::Json::as_arr)
    {
        let rendered: Vec<String> = probs
            .iter()
            .map(|p| fmt_num(p.as_f64().unwrap_or(f64::NAN)))
            .collect();
        let _ = writeln!(
            out,
            "  inference  tier probs [{}], margin {}, predicted tier {}, confidence {}",
            rendered.join(", "),
            fmt_num(a.num_of("argmax_margin").unwrap_or(f64::NAN)),
            fmt_num(a.num_of("predicted_tier").unwrap_or(f64::NAN)),
            fmt_num(a.num_of("confidence").unwrap_or(f64::NAN)),
        );
    }
    if let Some(action) = a.str_of("action") {
        let _ = writeln!(
            out,
            "  policy     {action}; kept {}, dropped {}, faulty MIVs {}, T_P {}{}",
            fmt_num(a.num_of("kept_candidates").unwrap_or(0.0)),
            fmt_num(a.num_of("dropped_candidates").unwrap_or(0.0)),
            fmt_num(a.num_of("faulty_mivs").unwrap_or(0.0)),
            fmt_num(a.num_of("t_p").unwrap_or(f64::NAN)),
            if a.bool_of("t_p_fallback") == Some(true) {
                " (fallback)"
            } else {
                ""
            },
        );
    }
    match a.str_of("degrade_reason") {
        Some(reason) => {
            let _ = writeln!(out, "  degraded   YES: {reason}");
        }
        None => out.push_str("  degraded   no\n"),
    }
    let _ = writeln!(
        out,
        "  timings    atpg {}ms, gnn {}ms, update {}ms",
        fmt_num(a.num_of("t_atpg_ms").unwrap_or(f64::NAN)),
        fmt_num(a.num_of("t_gnn_ms").unwrap_or(f64::NAN)),
        fmt_num(a.num_of("t_update_ms").unwrap_or(f64::NAN)),
    );
}

/// Renders one trace — span tree plus audit narrative — as plain text.
///
/// # Errors
///
/// The trace id must appear in the report (as a span event or an audit
/// record); the error lists the ids that do, so a typo is one retry away.
pub fn explain(report: &RunReport, trace_id: u64) -> Result<String, String> {
    let events: Vec<&SpanEvent> = report
        .events
        .iter()
        .filter(|e| e.trace_id == trace_id && trace_id != 0)
        .collect();
    let audit = report.audits.iter().find(|a| a.trace_id == trace_id);
    if events.is_empty() && audit.is_none() {
        let mut known: Vec<u64> = report
            .events
            .iter()
            .map(|e| e.trace_id)
            .chain(report.audits.iter().map(|a| a.trace_id))
            .filter(|&id| id != 0)
            .collect();
        known.sort_unstable();
        known.dedup();
        if known.is_empty() {
            return Err(format!(
                "trace {trace_id} not found: the report carries no traced records \
                 (produced with span recording disabled, or by a pre-causality build?)"
            ));
        }
        let head: Vec<String> = known.iter().take(12).map(|id| id.to_string()).collect();
        return Err(format!(
            "trace {trace_id} not found; report has {} trace(s): {}{}",
            known.len(),
            head.join(", "),
            if known.len() > head.len() {
                ", …"
            } else {
                ""
            },
        ));
    }

    let mut out = String::new();
    let _ = writeln!(out, "trace {trace_id}: {} span(s)", events.len());
    if !events.is_empty() {
        render_tree(&mut out, &events);
    }
    match audit {
        Some(a) => render_audit(&mut out, a),
        None => out.push_str(
            "audit: none recorded for this trace (spans only — not a diagnosis, \
             or the audit was dropped at the extras cap)\n",
        ),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Audit;
    use m3d_obs::json;

    fn ev(name: &str, start_ns: u64, trace: u64, span: u64, parent: u64) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            tid: 0,
            start_ns,
            dur_ns: 1_500_000,
            trace_id: trace,
            span_id: span,
            parent_id: parent,
        }
    }

    fn audit_record(trace_id: u64) -> Audit {
        audit_record_with(trace_id, "")
    }

    /// An audit line with `extra` spliced in after the subgraph shape.
    fn audit_record_with(trace_id: u64, extra: &str) -> Audit {
        let line = format!(
            "{{\"type\":\"audit\",\"trace_id\":{trace_id},\"design\":\"aes/base\",\
             \"log_entries\":5,\"log_valid\":true,\"subgraph_nodes\":120,\
             \"subgraph_mivs\":14,{extra}\"bt_activity_checks\":250,\
             \"bt_dropped_patterns\":0,\"features_finite\":true,\
             \"feature_mean\":0.0123,\"tier_probs\":[0.91,0.09],\"argmax_margin\":0.82,\
             \"predicted_tier\":0,\"confidence\":0.91,\"action\":\"reordered\",\
             \"kept_candidates\":14,\"dropped_candidates\":0,\"faulty_mivs\":1,\
             \"t_p\":0.4,\"t_p_fallback\":false,\"degrade_reason\":null,\
             \"t_atpg_ms\":1.2,\"t_gnn_ms\":0.3,\"t_update_ms\":0.1}}"
        );
        Audit {
            trace_id,
            fields: json::parse(&line).expect("audit line parses"),
        }
    }

    #[test]
    fn renders_span_tree_with_audit_narrative() {
        let report = RunReport {
            events: vec![
                ev("framework.diagnose", 0, 7, 10, 0),
                ev("inference", 100, 7, 11, 10),
                ev("policy", 200, 7, 12, 10),
                ev("other.trace", 0, 8, 20, 0),
            ],
            audits: vec![audit_record(7)],
            ..RunReport::default()
        };
        let text = explain(&report, 7).expect("trace 7 exists");
        assert!(text.contains("trace 7: 3 span(s)"), "{text}");
        assert!(!text.contains("other.trace"), "{text}");
        // Children indent under the root, in start order.
        let root_at = text.find("framework.diagnose").unwrap();
        let inf_at = text.find("    inference").unwrap();
        let pol_at = text.find("    policy").unwrap();
        assert!(root_at < inf_at && inf_at < pol_at, "{text}");
        assert!(text.contains("design     aes/base"), "{text}");
        assert!(text.contains("degraded   no"), "{text}");
        assert!(text.contains("tier probs [0.91, 0.09]"), "{text}");
        assert!(
            text.contains(
                "backtrace  120 node(s), 14 MIV(s) (activity checks 250, dropped patterns 0)"
            ),
            "{text}"
        );
    }

    /// Reports written before the bitmap back-trace carry two retired
    /// work counters; they are ignored, not an error.
    #[test]
    fn audits_with_retired_backtrace_keys_still_render() {
        let mut report = RunReport::default();
        report.audits.push(audit_record_with(
            4,
            "\"bt_nodes_visited\":300,\"bt_cone_cache_hits\":12,",
        ));
        let text = explain(&report, 4).expect("old audit renders");
        assert!(
            text.contains(
                "backtrace  120 node(s), 14 MIV(s) (activity checks 250, dropped patterns 0)"
            ),
            "{text}"
        );
        assert!(text.contains("tier probs [0.91, 0.09]"), "{text}");
    }

    #[test]
    fn audit_without_spans_still_explains() {
        let mut report = RunReport::default();
        report.audits.push(audit_record(3));
        let text = explain(&report, 3).expect("audit-only trace");
        assert!(text.contains("trace 3: 0 span(s)"), "{text}");
        assert!(text.contains("audit:"), "{text}");
    }

    #[test]
    fn missing_trace_lists_known_ids() {
        let mut report = RunReport::default();
        report.events.push(ev("a", 0, 5, 1, 0));
        report.audits.push(audit_record(9));
        let err = explain(&report, 42).unwrap_err();
        assert!(err.contains("trace 42 not found"), "{err}");
        assert!(err.contains('5') && err.contains('9'), "{err}");
    }

    #[test]
    fn empty_report_gets_a_recording_hint() {
        let report = RunReport::default();
        let err = explain(&report, 1).unwrap_err();
        assert!(err.contains("no traced records"), "{err}");
    }
}
