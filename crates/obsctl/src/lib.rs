//! # m3d-obsctl
//!
//! Consumer half of the m3d observability stack. `m3d-obs` produces
//! `m3d-obs/1` NDJSON run reports; this crate parses them and turns them
//! into things people and CI can act on:
//!
//! - [`trace`] — Chrome Trace Event JSON from `span_event` records, for
//!   `chrome://tracing` / Perfetto.
//! - [`summarize`] — per-stage count/p50/p95/max tables, counters,
//!   gauges, and training-curve digests.
//! - [`bench`] — aggregation of runs into canonical `BENCH_<scale>.json`
//!   snapshots, plus the noise-aware [`bench::compare`] regression gate
//!   that `ci.sh` runs on every build.
//! - [`explain`] — flight-recorder playback: one diagnosis rendered
//!   end-to-end (causal span tree + audit narrative) from its trace id.
//! - [`slo`] — absolute latency/degradation budgets per design, with the
//!   latency ceiling derived from the committed perf baseline.
//! - [`stream`] — reader for `m3d-obs-stream/1` live-telemetry streams
//!   (rotated segment discovery, torn-tail tolerance) and lossless
//!   reconstruction of registry totals from streamed delta snapshots.
//! - [`tail`] / [`top`] — follow a live stream with design/span/level
//!   filters; hottest spans, counter rates, and per-design SLO health
//!   computed from deltas mid-run.
//! - [`trend`] — the cross-run drift gate: flags stages whose p50 rose
//!   strictly monotonically across the last N archived runs, catching
//!   slow leaks the per-run perf gate's tolerance hides.
//!
//! Every input is read with [`m3d_obs::json`], the workspace's one JSON
//! reader, so a corrupt or hostile file is a parse error, never a crash.
//! The `m3d-obsctl` binary exposes all of it on the command line; see
//! EXPERIMENTS.md § "Profiling & perf gate".

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bench;
pub mod explain;
pub mod report;
pub mod slo;
pub mod stream;
pub mod summarize;
pub mod tail;
pub mod top;
pub mod trace;
pub mod trend;

pub use bench::{aggregate, compare, BenchSnapshot, Comparison, Tolerance};
pub use report::RunReport;
pub use stream::{Reconstruction, StreamDump, StreamRecord};
pub use summarize::summarize;
pub use trace::chrome_trace;
