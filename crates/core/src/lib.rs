//! # m3d-fault-loc
//!
//! Transferable GNN-based delay-fault localization for monolithic 3D ICs —
//! a from-scratch reproduction of the DATE 2022 / TCAD 2023 framework by
//! Hung et al.
//!
//! The crate implements the paper's contribution end to end:
//!
//! - the **heterogeneous graph** of the circuit under diagnosis (pins +
//!   MIVs at the circuit level; Topnodes/Topedges at the top level),
//! - **back-tracing** of tester failure logs into subgraphs (Fig. 3),
//! - the **Tier-predictor** and **MIV-pinpointer** GCNs (Section III-C),
//! - **dummy-buffer oversampling** and the transfer-learned **Classifier**
//!   (Section V-C),
//! - the **candidate pruning & reordering policy** with its PR-curve
//!   threshold `T_P` and backup dictionary (Section V),
//! - dataset generation across **design configurations**
//!   (Syn-1 / TPI / Syn-2 / Par / random partitions, Section IV), and
//! - the end-to-end [`Framework`] (Fig. 1).
//!
//! ## Quick start
//!
//! ```no_run
//! use m3d_fault_loc::{
//!     DatasetConfig, DesignConfig, DesignContext, PipelineBuilder, TestBench,
//!     TestBenchConfig, TrainingSet,
//! };
//! use m3d_netlist::BenchmarkProfile;
//!
//! // Prepare a (scaled) AES-like M3D design and its diagnosis context:
//! // fault simulation, the heterogeneous graph with one fan-in cone
//! // bitmap per observation point, node features, and one active-node
//! // bitmap per pattern — built once, shared by every back-trace.
//! let cfg = TestBenchConfig::quick(BenchmarkProfile::AesLike, DesignConfig::Syn1);
//! let bench = TestBench::build(&cfg);
//! let ctx = DesignContext::new(&bench);
//!
//! // Configure the pipeline (paper defaults + a worker-pool budget),
//! // generate labelled failure-log samples, and train. Results are
//! // bit-identical at any thread count.
//! let pipeline = PipelineBuilder::new().threads(4).build();
//! let train = pipeline.generate_samples(&ctx, &DatasetConfig::single(200, 1));
//! let mut ts = TrainingSet::new();
//! ts.add(&bench, &train);
//! let framework = pipeline.train(&ts).expect("training set is non-empty");
//!
//! // Persist the whole framework (train once)…
//! let artifact = pipeline.save_artifact(&cfg, &bench, &framework);
//! artifact.save("aes-syn1.m3da").expect("writable path");
//!
//! // …and serve diagnoses from a sealed read-only session (serve many).
//! // `Pipeline::open_session` gives the same endpoint without the disk
//! // round trip; both produce bit-identical results.
//! let session = pipeline
//!     .load_artifact(&artifact, &bench)
//!     .expect("fingerprint matches");
//! let test = pipeline.generate_samples(&ctx, &DatasetConfig::single(10, 2));
//! for sample in &test {
//!     let result = session.diagnose(&sample.log);
//!     m3d_obs::out!(
//!         "tier={} conf={:.2} resolution {} -> {}",
//!         result.outcome.predicted_tier,
//!         result.outcome.confidence,
//!         result.atpg_report.resolution(),
//!         result.outcome.report.resolution(),
//!     );
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod artifact;
mod audit;
mod backtrace;
mod classifier;
mod dataset;
mod design;
mod error;
mod features;
mod framework;
mod hetero;
mod metrics;
mod models;
mod oversample;
mod pipeline;
mod policy;
mod session;

pub use artifact::{design_fingerprint, Artifact, Fnv1a, ARTIFACT_HEADER};
pub use audit::DiagnosisAudit;
pub use backtrace::{
    backtrace, build_subgraph, reference_backtrace, reference_cone, BacktraceConfig,
    BacktraceStats, PatternActivity, Subgraph,
};
pub use classifier::{PruneClassifier, CLASS_PRUNE, CLASS_REORDER};
pub use dataset::{
    generate_samples, generate_samples_with_pool, DatasetConfig, DesignContext, InjectedFault,
    Sample,
};
pub use design::{DesignConfig, TestBench, TestBenchConfig};
pub use error::{Error, Result};
pub use features::{
    feature_names, local_degree_feature, FeatureExtractor, F_DTOP_MEAN, F_DTOP_STD,
    F_FANIN_CIRCUIT, F_FANIN_SUB, F_FANOUT_CIRCUIT, F_FANOUT_SUB, F_LOC, F_LVL, F_MIV, F_NMIV_MEAN,
    F_NMIV_STD, F_N_TOP, F_OUT, N_FEATURES,
};
pub use framework::{
    DegradeReason, Framework, FrameworkConfig, FrameworkResult, GnnEvidence, TrainingSet,
};
pub use hetero::{HNodeId, HNodeKind, HeteroGraph};
pub use metrics::{improvement_pct, pfa_time_saved, single_tier_of, TierLocalization};
pub use models::{
    miv_training_set, tier_training_set, MivPinpointer, ModelTrainConfig, TierPredictor,
};
pub use oversample::{balance_with_buffers, with_dummy_buffers};
pub use pipeline::{Pipeline, PipelineBuilder};
pub use policy::{apply_policy, BackupDictionary, PolicyAction, PolicyConfig, PolicyOutcome};
pub use session::DiagnosisSession;
