//! # m3d-obs
//!
//! Zero-dependency observability substrate for the m3d fault-localization
//! pipeline. Everything future perf work measures itself against lives
//! here:
//!
//! - **Span timers** — [`span!`] returns an RAII guard; each named span
//!   aggregates call count, min/mean/max, and p50/p95 from a fixed-bucket
//!   histogram in a thread-safe global registry. Spans nest freely and
//!   carry **causal trace context**: [`SpanGuard::enter_root`] opens a
//!   fresh trace (one per logical request), nested spans parent under the
//!   enclosing one, and [`TraceCtx`] carries the causal position across
//!   thread boundaries so each request's spans reconstruct into a tree.
//! - **Counters and gauges** — [`counter!`] / [`gauge!`] (e.g.
//!   `backtrace.activity_checks`, `atpg.patterns_generated`,
//!   `policy.candidates_pruned`).
//! - **Leveled structured logging** — [`error!`] … [`trace!`] on stderr,
//!   filtered by the `M3D_LOG` environment variable
//!   (`info,m3d_gnn=trace,m3d_sim::atpg=debug`), replacing scattered
//!   `eprintln!` diagnostics. [`out!`] is the sanctioned stdout sink for
//!   primary table/figure output.
//! - **Training metrics** — [`registry::record_epoch`] collects per-epoch
//!   loss / metric / wall-time curves per model.
//! - **Run reports** — [`report::write_from_env`] dumps spans, counters,
//!   gauges, curves, span events, and a config echo as NDJSON to the path
//!   in `M3D_OBS_REPORT`; a binary's [`ReportGuard`] does so on drop,
//!   even while unwinding. The `m3d-obsctl` binary (crate `obsctl`)
//!   consumes these: Chrome-trace export, stage summaries, `BENCH_*.json`
//!   snapshots, and the perf-regression gate.
//! - **JSON reading** — [`json::parse`] is the workspace's one JSON
//!   reader, shared by the `m3d-serve` wire and the `m3d-obsctl` tools.
//! - **Live streaming** — [`mod@stream`] attaches a rotating NDJSON sink
//!   (`M3D_OBS_STREAM`) fed by a background flusher: span events and
//!   audits as they happen, plus periodic **delta snapshots** of
//!   counters/histograms from which the final report's totals
//!   reconstruct exactly. Bounded, drop-counted, never blocks the hot
//!   path; `m3d-obsctl tail` / `top` consume it live.
//! - **Allocation profiling** — with the off-by-default `alloc-profile`
//!   feature, [`mod@alloc`] provides a counting global allocator; spans
//!   then attribute allocated bytes per stage and reports carry
//!   `alloc.*` counters.
//!
//! ```
//! let report = {
//!     let _run = m3d_obs::span!("framework.train");
//!     m3d_obs::counter!("atpg.patterns_generated", 128);
//!     m3d_obs::gauge!("framework.t_p", 0.93);
//!     m3d_obs::info!("trained in {} stages", 3);
//!     m3d_obs::registry::record_epoch(
//!         "tier-predictor", 0, 0.69, None, std::time::Duration::from_millis(3),
//!     );
//!     drop(_run);
//!     m3d_obs::report::RunReport::capture(&[("scale", "quick".to_string())])
//! };
//! assert!(report.to_ndjson().contains("\"atpg.patterns_generated\""));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[cfg(feature = "alloc-profile")]
pub mod alloc;
mod hist;
pub mod json;
pub mod logger;
pub mod registry;
pub mod report;
mod span;
pub mod stream;

pub use hist::Histogram;
pub use logger::{set_filter, Filter, Level};
pub use registry::{
    current_tid, reset, set_enabled, snapshot, EpochPoint, Snapshot, SpanEvent, SpanSnapshot,
};
pub use report::{write_from_env, ReportGuard, RunReport};
pub use span::{timed, SpanGuard, TraceCtx, TraceCtxGuard};

/// Starts an RAII span timer: `let _g = m3d_obs::span!("stage.name");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Adds to a named counter: `m3d_obs::counter!("x.y", 1)`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        $crate::registry::counter_add($name, $delta)
    };
}

/// Sets a named gauge: `m3d_obs::gauge!("x.y", 0.5)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        $crate::registry::gauge_set($name, $value)
    };
}

/// Logs at [`Level::Error`] under the calling module's path.
#[macro_export]
macro_rules! error {
    ($($arg:tt)+) => {
        $crate::logger::log($crate::Level::Error, module_path!(), format_args!($($arg)+))
    };
}

/// Logs at [`Level::Warn`] under the calling module's path.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)+) => {
        $crate::logger::log($crate::Level::Warn, module_path!(), format_args!($($arg)+))
    };
}

/// Logs at [`Level::Info`] under the calling module's path.
#[macro_export]
macro_rules! info {
    ($($arg:tt)+) => {
        $crate::logger::log($crate::Level::Info, module_path!(), format_args!($($arg)+))
    };
}

/// Logs at [`Level::Debug`] under the calling module's path.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)+) => {
        $crate::logger::log($crate::Level::Debug, module_path!(), format_args!($($arg)+))
    };
}

/// Logs at [`Level::Trace`] under the calling module's path.
#[macro_export]
macro_rules! trace {
    ($($arg:tt)+) => {
        $crate::logger::log($crate::Level::Trace, module_path!(), format_args!($($arg)+))
    };
}

/// Emits one line of primary program output (table rows, figure series) on
/// stdout. The workspace denies raw `println!` so diagnostics must choose
/// between the logger and this explicit sink.
#[macro_export]
macro_rules! out {
    () => {
        $crate::logger::out_line(format_args!(""))
    };
    ($($arg:tt)+) => {
        $crate::logger::out_line(format_args!($($arg)+))
    };
}
