//! Producer/consumer round-trip over the `m3d-obs/1` NDJSON schema: what
//! `m3d_obs::RunReport` serializes, `m3d_obsctl::report` must parse back
//! verbatim — including escaping-hostile names, empty registries, and
//! training curves — while tolerating record types it does not know.

use m3d_obs::{RunReport, Snapshot};
use m3d_obsctl::report;

/// An empty capture (no spans/counters/curves) still yields a parseable
/// report with a meta line.
#[test]
fn empty_registry_round_trips() {
    let produced = RunReport {
        config: vec![("scale".into(), "quick".into())],
        snapshot: Snapshot::default(),
    };
    let parsed = report::parse(&produced.to_ndjson()).expect("parse");
    assert_eq!(parsed.meta.schema, "m3d-obs/1");
    assert_eq!(parsed.meta.config_get("scale"), Some("quick"));
    assert!(parsed.spans.is_empty());
    assert!(parsed.counters.is_empty());
    assert!(parsed.epochs.is_empty());
    assert!(parsed.events.is_empty());
}

/// Hostile strings in config keys/values and metric names survive the
/// escape/unescape cycle byte-for-byte.
#[test]
fn string_escaping_round_trips() {
    let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{1} unicode\u{1F600}";
    m3d_obs::counter!("test.rt.nasty", 7);
    let mut produced = RunReport {
        config: vec![(nasty.to_string(), nasty.to_string())],
        snapshot: m3d_obs::snapshot(),
    };
    // Inject the hostile name into a span stat as well.
    produced.snapshot.spans.push(m3d_obs::SpanSnapshot {
        name: nasty.to_string(),
        count: 1,
        total_ms: 1.0,
        min_ms: 1.0,
        mean_ms: 1.0,
        p50_ms: 1.0,
        p95_ms: 1.0,
        max_ms: 1.0,
    });
    let parsed = report::parse(&produced.to_ndjson()).expect("parse");
    assert_eq!(parsed.meta.config_get(nasty), Some(nasty));
    assert!(parsed.span(nasty).is_some(), "hostile span name survives");
    assert_eq!(parsed.counter("test.rt.nasty"), Some(7));
}

/// Span stats, counters, gauges, curves, and span events all carry their
/// values across the serialization boundary.
#[test]
fn full_capture_round_trips() {
    {
        let _g = m3d_obs::span!("test.rt.stage");
        m3d_obs::counter!("test.rt.work", 42);
        m3d_obs::gauge!("test.rt.t_p", 0.93);
        m3d_obs::registry::record_epoch(
            "test.rt.model",
            0,
            0.69,
            Some(0.5),
            std::time::Duration::from_millis(3),
        );
        m3d_obs::registry::record_epoch(
            "test.rt.model",
            1,
            0.42,
            None,
            std::time::Duration::from_millis(2),
        );
    }
    let produced = RunReport::capture(&[("bin", "roundtrip".to_string())]);
    let parsed = report::parse(&produced.to_ndjson()).expect("parse");

    let span = parsed.span("test.rt.stage").expect("span parsed");
    assert_eq!(span.count, 1);
    assert!(span.total_ms >= 0.0);
    // p50 comes from a bucketed histogram (midpoint representative, up to
    // 6.25% relative error), so it may slightly overshoot the exact max.
    assert!(span.p50_ms <= span.max_ms * 1.07 + 1e-3);
    assert_eq!(parsed.counter("test.rt.work"), Some(42));
    assert!(parsed
        .gauges
        .iter()
        .any(|(n, v)| n == "test.rt.t_p" && (*v - 0.93).abs() < 1e-12));

    let epochs: Vec<_> = parsed
        .epochs
        .iter()
        .filter(|e| e.model == "test.rt.model")
        .collect();
    assert_eq!(epochs.len(), 2);
    assert_eq!(epochs[0].metric, Some(0.5));
    assert_eq!(epochs[1].metric, None);
    assert!((epochs[1].loss - 0.42).abs() < 1e-12);

    let event = parsed
        .events
        .iter()
        .find(|e| e.name == "test.rt.stage")
        .expect("span event parsed");
    assert!(event.tid >= 1);
    assert_eq!(
        u128::from(event.dur_ns),
        produced
            .snapshot
            .events
            .iter()
            .find(|e| e.name == "test.rt.stage")
            .expect("event captured")
            .dur_ns as u128,
        "event duration survives exactly (integer nanoseconds)"
    );
}

/// Causal ids (trace/span/parent) and audit extras survive the NDJSON
/// boundary: a root+child span pair recorded live keeps its parent link
/// after parsing, and a `record_extra` audit line comes back as a typed
/// [`report::Audit`] joined on the same trace id.
#[test]
fn causal_ids_and_audits_round_trip() {
    let trace_id;
    {
        let root = m3d_obs::SpanGuard::enter_root("test.rt.causal_root");
        trace_id = root.trace_id();
        assert_ne!(trace_id, 0, "root span allocates a trace id");
        let _child = m3d_obs::SpanGuard::enter("test.rt.causal_child");
        m3d_obs::registry::record_extra(format!(
            "{{\"type\":\"audit\",\"trace_id\":{trace_id},\"design\":\"rt/probe\",\
             \"degrade_reason\":null}}"
        ));
    }
    let produced = RunReport::capture(&[("bin", "roundtrip".to_string())]);
    let parsed = report::parse(&produced.to_ndjson()).expect("parse");

    let root = parsed
        .events
        .iter()
        .find(|e| e.name == "test.rt.causal_root" && e.trace_id == trace_id)
        .expect("root event parsed");
    let child = parsed
        .events
        .iter()
        .find(|e| e.name == "test.rt.causal_child" && e.trace_id == trace_id)
        .expect("child event parsed");
    assert_eq!(root.parent_id, 0, "enter_root has no parent");
    assert_ne!(root.span_id, 0);
    assert_eq!(child.parent_id, root.span_id, "child links to root");
    assert_ne!(child.span_id, root.span_id);

    let audit = parsed
        .audits
        .iter()
        .find(|a| a.trace_id == trace_id)
        .expect("audit record parsed");
    assert_eq!(audit.str_of("design"), Some("rt/probe"));
    assert_eq!(audit.str_of("degrade_reason"), None, "null stays absent");

    // The joined view renders: explain finds both streams by trace id.
    let text = m3d_obsctl::explain::explain(&parsed, trace_id).expect("explainable");
    assert!(text.contains("test.rt.causal_root"), "{text}");
    assert!(text.contains("design     rt/probe"), "{text}");
}

/// Span events recorded outside any `enter_root` trace parse back with
/// all-zero causal ids, matching reports from pre-causality producers.
#[test]
fn untraced_events_carry_zero_ids() {
    {
        let _g = m3d_obs::span!("test.rt.untraced");
    }
    let produced = RunReport::capture(&[("bin", "roundtrip".to_string())]);
    let parsed = report::parse(&produced.to_ndjson()).expect("parse");
    let ev = parsed
        .events
        .iter()
        .find(|e| e.name == "test.rt.untraced")
        .expect("event parsed");
    assert_eq!(ev.trace_id, 0);
    assert_eq!(ev.parent_id, 0);
}

/// Unknown record types (a future producer) are skipped and counted, not
/// errors; structurally broken lines still fail loudly.
#[test]
fn forward_compat_and_corruption() {
    let produced = RunReport {
        config: vec![],
        snapshot: Snapshot::default(),
    };
    let mut text = produced.to_ndjson();
    text.push_str("{\"type\":\"flamegraph\",\"payload\":[1,2,3]}\n");
    text.push_str("{\"type\":\"counter\",\"name\":\"x\",\"value\":1,\"unit\":\"bytes\"}\n");
    let parsed = report::parse(&text).expect("unknown types tolerated");
    assert_eq!(parsed.unknown_records, 1);
    assert_eq!(parsed.counter("x"), Some(1), "extra fields ignored");

    for corrupt in [
        "",                                   // no meta at all
        "{\"type\":\"span\",\"name\":\"x\"}", // span without stats, no meta
        "not json",                           // not JSON
        "{\"no_type\":true}",                 // missing discriminator
    ] {
        assert!(report::parse(corrupt).is_err(), "{corrupt:?} must fail");
    }
    // A truncated report (meta plus a half-written span line) fails.
    let mut truncated = produced.to_ndjson();
    truncated.push_str("{\"type\":\"span\",\"name\":\"framework.tr");
    assert!(report::parse(&truncated).is_err());
    // A fractional counter is not an integer field: it fails instead of
    // truncating to 1.
    let mut fractional = produced.to_ndjson();
    fractional.push_str("{\"type\":\"counter\",\"name\":\"x\",\"value\":1.5}\n");
    let err = report::parse(&fractional).expect_err("1.5 is not a counter value");
    assert!(err.to_string().contains("integer field `value`"), "{err}");
}
