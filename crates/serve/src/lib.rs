//! # m3d-serve
//!
//! Diagnosis-as-a-service over the `m3d-fault-loc` framework: load
//! persisted `m3d-artifact/1` artifacts into sealed read-only
//! [`DiagnosisSession`](m3d_fault_loc::DiagnosisSession)s, route NDJSON
//! diagnosis requests by design, and answer in batches on a shared
//! [`ExecPool`](m3d_exec::ExecPool) — train once, serve many.
//!
//! The crate splits into:
//!
//! - [`protocol`] — request/response records and their totality
//!   contract (`t_p_fallback` and `degrade_reason` on every record);
//!   requests are read with [`m3d_obs::json`], the workspace's one JSON
//!   reader,
//! - [`registry`] — the design→session routing table,
//! - [`engine`] — bounded admission, batched inference, never-500
//!   semantics over stdin/TCP NDJSON streams.
//!
//! The `m3d-serve` binary wires these behind `train` / `requests` /
//! `run` / `bench` subcommands, with an [`m3d_obs::ReportGuard`]
//! flushing its telemetry; see `DESIGN.md` for the wire format.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod protocol;
pub mod registry;

pub use engine::{process_batch, respond, serve_lines, serve_tcp, ServeConfig, ServeStats};
pub use protocol::{parse_request, Request, Response, Status, RESPONSE_KEYS};
pub use registry::{Registry, RegistryError};
