//! Chrome-trace export validated against a captured quick-scale run
//! report (`fixtures/quick_run.ndjson`, a real `fig09_runtime --scale
//! quick --profile aes` capture with the span_event tail trimmed).
//!
//! The output must be loadable by `chrome://tracing` / Perfetto: the
//! JSON-array form, complete events (`"ph":"X"`) with microsecond
//! `ts`/`dur`, and `pid`/`tid` on every event.

use m3d_obs::json::{self, Json};
use m3d_obsctl::{chrome_trace, report};

fn fixture() -> report::RunReport {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/quick_run.ndjson");
    report::load(&path).expect("fixture parses")
}

#[test]
fn fixture_is_a_real_quick_scale_capture() {
    let r = fixture();
    assert_eq!(r.meta.schema, "m3d-obs/1");
    assert_eq!(r.meta.config_get("scale"), Some("quick"));
    assert_eq!(r.meta.config_get("bin"), Some("fig09_runtime"));
    assert!(r.meta.config_get("git_rev").is_some());
    assert!(r.span("framework.train").is_some());
    assert!(!r.events.is_empty());
    assert!(!r.epochs.is_empty());
    assert!(r.counter("atpg.patterns_generated").unwrap_or(0) > 0);
}

#[test]
fn trace_output_is_valid_chrome_trace_event_json() {
    let r = fixture();
    let trace = chrome_trace(&r);
    let v = json::parse(&trace).expect("trace output is valid JSON");
    let events = v.as_arr().expect("array-of-events form");
    assert!(!events.is_empty());

    let mut complete = 0usize;
    for e in events {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .expect("every event has a phase");
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("pid").and_then(Json::as_u64).is_some());
        assert!(e.get("tid").and_then(Json::as_u64).is_some());
        match ph {
            "X" => {
                complete += 1;
                let ts = e.get("ts").and_then(Json::as_f64).expect("ts present");
                let dur = e.get("dur").and_then(Json::as_f64).expect("dur present");
                assert!(ts >= 0.0 && dur >= 0.0);
            }
            "M" => {
                assert!(e.get("args").is_some(), "metadata events carry args");
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(
        complete,
        r.events.len(),
        "one complete event per span occurrence"
    );
}

#[test]
fn trace_timestamps_are_microseconds_of_the_event_offsets() {
    let r = fixture();
    let v = json::parse(&chrome_trace(&r)).expect("valid JSON");
    let events = v.as_arr().expect("array");
    // The first complete event corresponds to the first span_event record
    // (export preserves order); ts/dur are its ns offsets divided by 1e3.
    let first_x = events
        .iter()
        .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .expect("at least one complete event");
    let src = &r.events[0];
    let ts = first_x.get("ts").and_then(Json::as_f64).expect("ts");
    let dur = first_x.get("dur").and_then(Json::as_f64).expect("dur");
    assert_eq!(
        first_x.get("name").and_then(Json::as_str),
        Some(src.name.as_str())
    );
    assert!((ts - src.start_ns as f64 / 1e3).abs() < 1e-6);
    assert!((dur - src.dur_ns as f64 / 1e3).abs() < 1e-6);
    assert_eq!(
        first_x.get("tid").and_then(Json::as_u64),
        Some(u64::from(src.tid))
    );
}

#[test]
fn summarize_renders_the_fixture() {
    let text = m3d_obsctl::summarize(&fixture());
    assert!(text.contains("bin=fig09_runtime"));
    assert!(text.contains("framework.train"));
    assert!(text.contains("counters:"));
    assert!(text.contains("training curves:"));
}
