//! The in-memory caps (`registry::EVENT_CAP` / `EXTRA_CAP`). Own test
//! binary: the registry is process-global, so no other test may record
//! into it while the caps fill.

use m3d_obs::registry::{record_extra, EVENT_CAP, EXTRA_CAP};

#[test]
fn default_caps_count_overflow_and_reject_newlines() {
    for _ in 0..EVENT_CAP + 4 {
        let _g = m3d_obs::span!("test.caps.span");
    }
    for i in 0..EXTRA_CAP + 3 {
        record_extra(format!("{{\"type\":\"audit\",\"trace_id\":0,\"i\":{i}}}"));
    }
    // An embedded newline is rejected (counted), never framed.
    record_extra("{\"type\":\"audit\",\n\"bad\":true}".to_string());

    let snap = m3d_obs::snapshot();
    assert_eq!(snap.events.len(), EVENT_CAP, "event cap honoured");
    assert_eq!(snap.events_dropped, 4, "overflowing events counted");
    assert_eq!(snap.extras.len(), EXTRA_CAP, "extra cap honoured");
    assert_eq!(snap.extras_dropped, 4, "3 over cap + 1 newline-rejected");
    assert!(
        snap.extras.iter().all(|r| !r.json_line().contains('\n')),
        "no multi-line record is kept"
    );

    // Aggregates keep counting past the event cap: only the per-event
    // list is bounded, not the statistics.
    let span = snap.span("test.caps.span").expect("span aggregated");
    assert_eq!(span.count, EVENT_CAP as u64 + 4);
}
