//! Chrome Trace Event export: converts the `span_event` records of a run
//! report into the JSON-array trace format that `chrome://tracing` and
//! Perfetto load directly.
//!
//! Each span occurrence becomes a complete event (`"ph":"X"`) with
//! microsecond `ts`/`dur` relative to the process epoch, `pid` 1, and the
//! recording thread's id as `tid`. Metadata events name the process after
//! the producing binary and order threads by first appearance, so the
//! timeline reads top-down in source order.

use crate::report::RunReport;
use m3d_obs::report::{json_number, json_string};

/// Fixed pid: a run report describes exactly one process.
const PID: u32 = 1;

fn push_common(out: &mut String, name: &str, ph: char, tid: u32) {
    out.push_str("{\"name\":");
    json_string(out, name);
    out.push_str(&format!(",\"ph\":\"{ph}\",\"pid\":{PID},\"tid\":{tid}"));
}

/// Renders the report's span events as a Chrome Trace Event JSON array.
pub fn chrome_trace(report: &RunReport) -> String {
    let mut out = String::from("[");
    let mut first = true;
    let mut push_event = |body: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&body);
    };

    let process_name = report.meta.config_get("bin").unwrap_or("m3d-run");
    {
        let mut e = String::new();
        push_common(&mut e, "process_name", 'M', 0);
        e.push_str(",\"args\":{\"name\":");
        json_string(&mut e, process_name);
        e.push_str("}}");
        push_event(e);
    }

    // Threads sorted by first event so the main thread stays on top.
    let mut tids: Vec<u32> = Vec::new();
    for ev in &report.events {
        if !tids.contains(&ev.tid) {
            tids.push(ev.tid);
        }
    }
    for (order, &tid) in tids.iter().enumerate() {
        let mut e = String::new();
        push_common(&mut e, "thread_name", 'M', tid);
        e.push_str(&format!(",\"args\":{{\"name\":\"thread {tid}\"}}}}"));
        push_event(e);
        let mut s = String::new();
        push_common(&mut s, "thread_sort_index", 'M', tid);
        s.push_str(&format!(",\"args\":{{\"sort_index\":{order}}}}}"));
        push_event(s);
    }

    for ev in &report.events {
        let mut e = String::new();
        push_common(&mut e, &ev.name, 'X', ev.tid);
        e.push_str(",\"cat\":\"span\",\"ts\":");
        json_number(&mut e, ev.start_ns as f64 / 1e3);
        e.push_str(",\"dur\":");
        json_number(&mut e, ev.dur_ns as f64 / 1e3);
        e.push('}');
        push_event(e);
    }
    out.push_str("\n]\n");
    out
}
