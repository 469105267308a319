//! # m3d-sim
//!
//! Scan-test simulation substrate: bit-parallel launch-on-capture (LOC)
//! two-pattern logic simulation, the transition-delay-fault (TDF) model,
//! event-driven fault simulation, simulation-based ATPG with pattern
//! compaction, and tester failure-log generation with optional EDT-style
//! XOR response compaction.
//!
//! This crate replaces the commercial ATPG/tester infrastructure of the
//! paper's data-generation flow (Fig. 4): it produces the TDF pattern sets,
//! fault-coverage numbers, and failure log files the diagnosis framework
//! consumes.
//!
//! ```
//! use m3d_netlist::{generate, GeneratorConfig};
//! use m3d_sim::{generate_patterns, AtpgConfig, FaultSimulator, FailureLog, Tdf, Polarity, tdf_list};
//!
//! let nl = generate(&GeneratorConfig::default());
//! let atpg = generate_patterns(&nl, &AtpgConfig {
//!     fault_sample: Some(300),
//!     max_rounds: 4,
//!     ..AtpgConfig::default()
//! });
//! let fsim = FaultSimulator::new(&nl, &atpg.patterns);
//!
//! // Inject a fault, collect its tester failure log.
//! let fault = tdf_list(&nl)
//!     .into_iter()
//!     .find(|f| fsim.detects(std::slice::from_ref(f)))
//!     .expect("detectable fault");
//! let log = FailureLog::uncompacted(&fsim.simulate(&[fault]));
//! assert!(!log.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod atpg;
mod failure;
mod fault;
mod fsim;
mod logfmt;
mod obs;
mod patterns;
mod proptests;
mod sim;

pub use atpg::{generate_patterns, generate_patterns_with_pool, AtpgConfig, AtpgResult};
pub use failure::{FailEntry, FailObs, FailureLog};
pub use fault::{tdf_list, Polarity, Tdf};
pub use fsim::{Detection, FaninCones, FaultSimulator};
pub use logfmt::{parse_failure_log, write_failure_log, ParseLogError};
pub use obs::{is_observing_kind, ObsId, ObsKind, ObsPoint, ObsPoints};
pub use patterns::PatternSet;
pub use sim::{source_count_for, PatternSim};
