//! The builder-style front door of the framework: configure once, get a
//! [`Pipeline`] that owns the worker pool, and drive training / dataset
//! generation through it.
//!
//! ```no_run
//! use m3d_fault_loc::{PipelineBuilder, TrainingSet};
//!
//! let pipeline = PipelineBuilder::new()
//!     .threads(4)
//!     .precision_target(0.99)
//!     .build();
//! let framework = pipeline.train(&TrainingSet::new()); // Err: empty set
//! assert!(framework.is_err());
//! ```

use crate::artifact::{design_fingerprint, Artifact};
use crate::dataset::{generate_samples_with_pool, DatasetConfig, DesignContext, Sample};
use crate::design::{TestBench, TestBenchConfig};
use crate::error::Error;
use crate::framework::{Framework, FrameworkConfig, TrainingSet};
use crate::models::ModelTrainConfig;
use crate::session::DiagnosisSession;
use m3d_diagnosis::DiagnosisConfig;
use m3d_exec::ExecPool;

/// Configures and builds a [`Pipeline`].
///
/// Every knob defaults to the corresponding [`FrameworkConfig`] default,
/// and the thread budget defaults to the environment resolution of
/// [`ExecPool::from_env`] (`M3D_THREADS`, else available parallelism).
#[derive(Debug, Clone, Default)]
pub struct PipelineBuilder {
    cfg: FrameworkConfig,
    threads: Option<usize>,
}

impl PipelineBuilder {
    /// A builder with default configuration.
    pub fn new() -> Self {
        PipelineBuilder::default()
    }

    /// Worker-thread budget for every parallel stage the pipeline runs
    /// (training restarts, dataset generation).
    /// `1` forces fully serial execution.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Precision target for the `T_P` confidence-threshold rule
    /// (default 0.99, as in the paper).
    pub fn precision_target(mut self, p: f64) -> Self {
        self.cfg.precision_target = p;
        self
    }

    /// Model training hyper-parameters (epochs, seeds, widths, restarts).
    pub fn model(mut self, model: ModelTrainConfig) -> Self {
        self.cfg.model = model;
        self
    }

    /// Replaces the whole framework configuration at once (the ablation
    /// switches and the MIV threshold are set only here); `model` and
    /// `precision_target` remain usable afterwards as overrides.
    pub fn framework_config(mut self, cfg: FrameworkConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Resolves the thread budget and builds the [`Pipeline`].
    pub fn build(self) -> Pipeline {
        let pool = match self.threads {
            Some(n) => ExecPool::with_threads(n),
            None => ExecPool::from_env(),
        };
        Pipeline {
            cfg: self.cfg,
            pool,
        }
    }
}

/// A configured pipeline owning the exec pool all its stages share.
#[derive(Debug)]
pub struct Pipeline {
    cfg: FrameworkConfig,
    pool: ExecPool,
}

impl Pipeline {
    /// The framework configuration the pipeline was built with.
    pub fn config(&self) -> &FrameworkConfig {
        &self.cfg
    }

    /// The worker pool shared by every stage (reusable by callers for
    /// their own fan-out, e.g. a per-case diagnosis sweep).
    pub fn pool(&self) -> &ExecPool {
        &self.pool
    }

    /// Trains the full framework (Tier-predictor, optional
    /// MIV-pinpointer and Classifier, `T_P` derivation) on the pool.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyTrainingSet`] when `ts.tier_samples` is empty.
    pub fn train(&self, ts: &TrainingSet) -> crate::Result<Framework> {
        Framework::try_train(ts, &self.cfg, &self.pool)
    }

    /// Generates a dataset on the pool (chips simulate and back-trace in
    /// parallel; output is identical to the serial generator).
    pub fn generate_samples(&self, ctx: &DesignContext<'_>, cfg: &DatasetConfig) -> Vec<Sample> {
        generate_samples_with_pool(ctx, cfg, &self.pool)
    }

    /// Captures a trained framework plus the design recipe it was trained
    /// against into a persistable [`Artifact`] (`m3d-artifact/2` text
    /// format; see [`Artifact::save`]). `bench` must be the bench built
    /// from `bench_cfg` — its fingerprint is recorded and re-verified at
    /// load time.
    pub fn save_artifact(
        &self,
        bench_cfg: &TestBenchConfig,
        bench: &TestBench,
        framework: &Framework,
    ) -> Artifact {
        Artifact::capture(bench_cfg, bench, framework)
    }

    /// Opens a sealed, read-only [`DiagnosisSession`] from a persisted
    /// artifact against `bench` (typically `artifact.build_bench()`).
    ///
    /// Verifies the artifact's design fingerprint against `bench` before
    /// reconstructing the models, so a drifted generator or the wrong
    /// bench cannot silently serve a mismatched circuit.
    ///
    /// # Errors
    ///
    /// [`Error::DesignMismatch`] on fingerprint disagreement; the
    /// artifact's load errors when an embedded model block is corrupt.
    pub fn load_artifact<'a>(
        &self,
        artifact: &Artifact,
        bench: &'a TestBench,
    ) -> crate::Result<DiagnosisSession<'a>> {
        let found = design_fingerprint(bench);
        if found != artifact.fingerprint() {
            return Err(Error::DesignMismatch {
                expected: artifact.fingerprint(),
                found,
            });
        }
        let framework = artifact.rebuild_framework()?;
        Ok(DiagnosisSession::new(
            DesignContext::new(bench),
            framework,
            DiagnosisConfig::default(),
        ))
    }

    /// Seals an in-process training result into a read-only
    /// [`DiagnosisSession`] — the same endpoint [`Pipeline::load_artifact`]
    /// produces, without the disk round trip. Diagnoses are bit-identical
    /// either way.
    pub fn open_session<'a>(
        &self,
        framework: Framework,
        bench: &'a TestBench,
    ) -> DiagnosisSession<'a> {
        DiagnosisSession::new(
            DesignContext::new(bench),
            framework,
            DiagnosisConfig::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    #[test]
    fn builder_defaults_match_framework_config() {
        let p = PipelineBuilder::new().build();
        assert_eq!(p.config(), &FrameworkConfig::default());
        assert!(p.pool().threads() >= 1);
    }

    #[test]
    fn builder_setters_apply() {
        let p = PipelineBuilder::new()
            .threads(3)
            .framework_config(FrameworkConfig {
                use_miv: false,
                use_classifier: false,
                use_tier: false,
                miv_threshold: 0.5,
                ..FrameworkConfig::default()
            })
            .precision_target(0.9)
            .model(ModelTrainConfig {
                epochs: 7,
                ..ModelTrainConfig::default()
            })
            .build();
        assert_eq!(p.pool().threads(), 3);
        let cfg = p.config();
        assert_eq!(cfg.precision_target, 0.9);
        assert_eq!(cfg.model.epochs, 7);
        assert!(!cfg.use_miv && !cfg.use_classifier && !cfg.use_tier);
        assert_eq!(cfg.miv_threshold, 0.5);
    }

    #[test]
    fn empty_training_set_is_an_error_not_a_panic() {
        let p = PipelineBuilder::new().threads(1).build();
        assert_eq!(
            p.train(&TrainingSet::new()).unwrap_err(),
            Error::EmptyTrainingSet
        );
    }
}
