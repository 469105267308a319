//! End-to-end and per-layer benchmark of the m3d fault-localization
//! system. See `README.md` beside this crate for the workloads, metrics
//! and how to run, trace and compare.

pub mod compare;
pub mod inputs;
pub mod mem;
pub mod quality;
pub mod report;
pub mod stats;
pub mod workloads;
