//! The end-to-end diagnosis framework (Fig. 1): train once, then — per
//! failure log — run ATPG diagnosis and GNN inference side by side and
//! fuse them with the pruning/reordering policy.

use crate::audit::DiagnosisAudit;
use crate::backtrace::Subgraph;
use crate::classifier::PruneClassifier;
use crate::dataset::{DesignContext, Sample};
use crate::design::TestBench;
use crate::error::Error;
use crate::models::{
    miv_training_set, tier_training_set, train_tier_and_miv, MivPinpointer, ModelTrainConfig,
    TierPredictor,
};
use crate::policy::{apply_policy, PolicyConfig, PolicyOutcome};
use m3d_diagnosis::{AtpgDiagnosis, DiagnosisReport};
use m3d_exec::ExecPool;
use m3d_gnn::{GraphSample, PrCurve};
use m3d_part::Tier;
use std::time::{Duration, Instant};

/// Framework training configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameworkConfig {
    /// Model hyper-parameters.
    pub model: ModelTrainConfig,
    /// Precision target for the `T_P` rule (paper: 0.99).
    pub precision_target: f64,
    /// MIV fault-probability threshold.
    pub miv_threshold: f32,
    /// Train and use the prune/reorder Classifier.
    pub use_classifier: bool,
    /// Use the Tier-predictor in the policy (Table XI ablation).
    pub use_tier: bool,
    /// Use the MIV-pinpointer in the policy (Table XI ablation).
    pub use_miv: bool,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            model: ModelTrainConfig::default(),
            precision_target: 0.99,
            miv_threshold: 0.8,
            use_classifier: true,
            use_tier: true,
            use_miv: true,
        }
    }
}

/// Pooled training data, possibly drawn from several design
/// configurations (the transferability recipe: Syn-1 plus randomly
/// partitioned netlists).
#[derive(Debug, Default)]
pub struct TrainingSet {
    /// Graph-level tier samples (also the Classifier's).
    pub tier_samples: Vec<GraphSample>,
    /// Node-level MIV samples.
    pub miv_samples: Vec<GraphSample>,
}

impl TrainingSet {
    /// An empty training set.
    pub fn new() -> Self {
        TrainingSet::default()
    }

    /// Adds every usable sample of a bench.
    pub fn add(&mut self, bench: &TestBench, samples: &[Sample]) {
        self.tier_samples.extend(tier_training_set(bench, samples));
        self.miv_samples.extend(miv_training_set(samples));
    }
}

/// Why a case fell back to the unpruned ATPG ranking instead of trusting
/// the GNN.
///
/// Each reason maps to a `framework.fallback.<reason>` counter in the
/// m3d-obs registry (and from there into the run report), so a chaos
/// campaign can reconcile injected corruption counts against observed
/// degradations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The back-traced subgraph was empty — nothing to run the GCN on
    /// (e.g. an empty back-trace intersection or a never-failing log).
    EmptySubgraph,
    /// The subgraph's feature matrix contained NaN/Inf values; inference
    /// was skipped rather than propagating poison through the GCN.
    NonFiniteFeatures,
    /// Inference ran but produced NaN/Inf probabilities (tier or MIV).
    NonFiniteInference,
}

impl DegradeReason {
    /// Stable snake_case label, used in counter names and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeReason::EmptySubgraph => "empty_subgraph",
            DegradeReason::NonFiniteFeatures => "non_finite_features",
            DegradeReason::NonFiniteInference => "non_finite_inference",
        }
    }

    fn counter_name(self) -> &'static str {
        match self {
            DegradeReason::EmptySubgraph => "framework.fallback.empty_subgraph",
            DegradeReason::NonFiniteFeatures => "framework.fallback.non_finite_features",
            DegradeReason::NonFiniteInference => "framework.fallback.non_finite_inference",
        }
    }
}

/// Per-case output of the framework.
#[derive(Debug, Clone)]
pub struct FrameworkResult {
    /// The raw ATPG diagnosis report.
    pub atpg_report: DiagnosisReport,
    /// The policy outcome (final report, prunes, action).
    pub outcome: PolicyOutcome,
    /// `Some(reason)` when the GNN evidence was unusable; `None` for a
    /// healthy case. A degraded case's tier probabilities read `[0.5, 0.5]`
    /// and its MIV evidence is dropped, which need not leave the ATPG
    /// ranking as it was: the tie predicts Tier 1, so the policy reorders
    /// Tier-1 candidates first, and a `T_P ≤ 0.5` opens the prune branch,
    /// where the Classifier decides on the subgraph's readout (no readout,
    /// no prune) and, without a Classifier, the case is pruned.
    pub degraded: Option<DegradeReason>,
    /// `true` when the framework's `T_P` threshold is the unreachable-
    /// precision fallback of 1.0 — the pruning rule never fires, so this
    /// case could only have been reordered (see [`Framework::t_p_is_fallback`]).
    pub t_p_fallback: bool,
    /// Wall time of the ATPG diagnosis stage.
    pub t_atpg: Duration,
    /// Wall time of GNN inference (back-trace inputs assumed ready).
    pub t_gnn: Duration,
    /// Wall time of the pruning/reordering update.
    pub t_update: Duration,
    /// The structured per-case audit record (also registered with the
    /// m3d-obs registry as an `audit` report line when recording is on).
    pub audit: DiagnosisAudit,
}

/// The trained framework.
#[derive(Debug)]
pub struct Framework {
    tier: TierPredictor,
    miv: Option<MivPinpointer>,
    classifier: Option<PruneClassifier>,
    policy: PolicyConfig,
    t_p_fallback: bool,
}

impl Framework {
    /// Trains Tier-predictor and MIV-pinpointer (all restarts of both in
    /// one dispatch on `pool`), derives `T_P` from the Tier-predictor's
    /// training PR curve, and (optionally) trains the Classifier. One pass
    /// of the trained Tier-predictor over its samples yields the PR curve,
    /// the Classifier's gate and its head inputs (the readouts).
    ///
    /// # Errors
    ///
    /// [`Error::EmptyTrainingSet`] when `ts.tier_samples` is empty.
    pub fn try_train(
        ts: &TrainingSet,
        cfg: &FrameworkConfig,
        pool: &ExecPool,
    ) -> Result<Self, Error> {
        if ts.tier_samples.is_empty() {
            return Err(Error::EmptyTrainingSet);
        }
        let _span = m3d_obs::span!("framework.train");
        m3d_obs::info!(
            "training framework: {} tier samples, {} MIV samples",
            ts.tier_samples.len(),
            ts.miv_samples.len(),
        );
        let miv_samples =
            (!ts.miv_samples.is_empty() && cfg.use_miv).then_some(&ts.miv_samples[..]);
        let (tier, miv) = train_tier_and_miv(&ts.tier_samples, miv_samples, &cfg.model, pool);
        let (readouts, scores) = {
            let _span = m3d_obs::span!("framework.score");
            tier.scored(&ts.tier_samples)
        };
        let curve = PrCurve::from_samples(&scores);
        let (t_p, t_p_fallback) = match curve.min_threshold_for_precision(cfg.precision_target) {
            Some(t) => (t, false),
            None => {
                m3d_obs::warn!(
                    "precision target {:.4} unreachable on the training PR curve; \
                     falling back to T_P = 1.0 (pruning disabled)",
                    cfg.precision_target
                );
                (1.0, true)
            }
        };
        let classifier = cfg
            .use_classifier
            .then(|| {
                let _span = m3d_obs::span!("framework.classifier");
                PruneClassifier::train(&tier, &ts.tier_samples, &readouts, &scores, t_p)
            })
            .flatten();
        m3d_obs::gauge!("framework.t_p", f64::from(t_p));
        m3d_obs::info!(
            "framework trained: T_P = {t_p:.4}, miv = {}, classifier = {}",
            miv.is_some(),
            classifier.is_some()
        );
        Ok(Framework {
            tier,
            miv,
            classifier,
            policy: PolicyConfig {
                t_p,
                miv_threshold: cfg.miv_threshold,
                tier_enabled: cfg.use_tier,
            },
            t_p_fallback,
        })
    }

    /// The derived confidence threshold `T_P`.
    pub fn t_p(&self) -> f32 {
        self.policy.t_p
    }

    /// `true` when the precision target was unreachable on the training
    /// PR curve and `T_P` was pinned to the 1.0 fallback, which disables
    /// the pruning half of the policy.
    pub fn t_p_is_fallback(&self) -> bool {
        self.t_p_fallback
    }

    /// The trained Tier-predictor.
    pub fn tier_predictor(&self) -> &TierPredictor {
        &self.tier
    }

    /// The trained MIV-pinpointer, if any.
    pub fn miv_pinpointer(&self) -> Option<&MivPinpointer> {
        self.miv.as_ref()
    }

    /// The trained prune/reorder Classifier, if any.
    pub fn classifier(&self) -> Option<&PruneClassifier> {
        self.classifier.as_ref()
    }

    /// The policy configuration derived at training time (artifact
    /// serialization reads it; it is immutable after training).
    pub(crate) fn policy(&self) -> &PolicyConfig {
        &self.policy
    }

    /// Reassembles a framework from deserialized parts (artifact loading;
    /// the policy carries the persisted `T_P`).
    pub(crate) fn from_parts(
        tier: TierPredictor,
        miv: Option<MivPinpointer>,
        classifier: Option<PruneClassifier>,
        policy: PolicyConfig,
        t_p_fallback: bool,
    ) -> Self {
        Framework {
            tier,
            miv,
            classifier,
            t_p_fallback,
            policy,
        }
    }

    /// Predicts the faulty tier of a subgraph: `(tier, confidence)`.
    ///
    /// # Errors
    ///
    /// [`Error::EmptySubgraph`] when the subgraph is empty (there is no
    /// graph to run the GCN on); [`Error::NonFiniteInference`] when the
    /// model emits NaN/Inf probabilities.
    pub fn predict_tier(&self, sub: &Subgraph) -> Result<(Tier, f32), Error> {
        if sub.is_empty() {
            return Err(Error::EmptySubgraph);
        }
        let p = self.tier.predict(sub);
        if p.iter().any(|v| !v.is_finite()) {
            return Err(Error::NonFiniteInference);
        }
        let t = usize::from(p[1] > p[0]);
        Ok((Tier(t as u8), p[t]))
    }

    /// Runs the full per-chip flow: ATPG diagnosis, GNN inference, and the
    /// policy update.
    ///
    /// Each call opens a fresh trace (`framework.diagnose` root span), so
    /// every diagnosis — wherever its worker thread ran — reconstructs
    /// into its own span tree in the run report, joined by trace id to
    /// the [`DiagnosisAudit`] the call emits.
    pub fn process_case(
        &self,
        ctx: &DesignContext<'_>,
        diag: &AtpgDiagnosis<'_, '_>,
        sample: &Sample,
    ) -> FrameworkResult {
        self.process_log(ctx, diag, &sample.log, &sample.subgraph)
    }

    /// [`Framework::process_case`] on a raw `(failure log, subgraph)`
    /// pair — the serving entry point, where no ground-truth
    /// [`Sample`] exists. The subgraph must be the back-trace of `log`
    /// (see [`DesignContext::backtrace`]); results are bit-identical to
    /// [`Framework::process_case`] on a sample carrying the same pair.
    pub fn process_log(
        &self,
        ctx: &DesignContext<'_>,
        diag: &AtpgDiagnosis<'_, '_>,
        log: &m3d_sim::FailureLog,
        subgraph: &Subgraph,
    ) -> FrameworkResult {
        let _span = m3d_obs::SpanGuard::enter_root("framework.diagnose");
        let trace_id = _span.trace_id();
        let t_case = Instant::now();
        let t0 = Instant::now();
        let atpg_report = diag.diagnose(log);
        let t_atpg = t0.elapsed();

        let t1 = Instant::now();
        let inference = m3d_obs::span!("inference");
        let flops_start = m3d_gnn::kernel_flops();
        let mut degraded: Option<DegradeReason> = None;
        // One Tier trunk pass per chip feeds both heads. A fallback below
        // reads [0.5, 0.5]: the policy still reorders toward Tier 1 and,
        // under a T_P <= 0.5, may prune (see `FrameworkResult::degraded`),
        // the Classifier deciding on this readout even of poisoned features.
        let readout =
            (self.policy.tier_enabled && !subgraph.is_empty()).then(|| self.tier.readout(subgraph));
        let tier_probs = match &readout {
            None if !self.policy.tier_enabled => [0.5, 0.5], // ablation, not degradation
            None => {
                degraded = Some(DegradeReason::EmptySubgraph);
                [0.5, 0.5]
            }
            Some(_) if subgraph.x.has_non_finite() => {
                degraded = Some(DegradeReason::NonFiniteFeatures);
                [0.5, 0.5]
            }
            Some(r) => {
                let p = self.tier.predict_readout(r);
                if p.iter().all(|v| v.is_finite()) {
                    p
                } else {
                    degraded = Some(DegradeReason::NonFiniteInference);
                    [0.5, 0.5]
                }
            }
        };
        // MIV inference on a poisoned subgraph would only add more
        // non-finite probabilities; skip it once the case is degraded.
        let miv_probs = match &self.miv {
            Some(m) if degraded.is_none() => m.predict(subgraph),
            _ => Vec::new(),
        };
        let flops = m3d_gnn::kernel_flops() - flops_start;
        if flops > 0 {
            m3d_obs::counter!("gnn.kernel.flops.inference", flops);
        }
        drop(inference);
        let t_gnn = t1.elapsed();

        let t2 = Instant::now();
        let outcome = apply_policy(
            &atpg_report,
            &ctx.bench.m3d,
            &tier_probs,
            &miv_probs,
            self.classifier.as_ref(),
            readout.as_ref(),
            &self.policy,
        );
        let t_update = t2.elapsed();

        // The policy can detect corruption the framework did not (e.g.
        // non-finite MIV probabilities from a half-poisoned model).
        if degraded.is_none() && outcome.degraded {
            degraded = Some(DegradeReason::NonFiniteInference);
        }
        if let Some(reason) = degraded {
            m3d_obs::counter!(reason.counter_name(), 1);
            m3d_obs::warn!(
                "framework: case degraded to unpruned ATPG ranking ({})",
                reason.as_str()
            );
        }

        // Tester logs only carry channel/position entries when they went
        // through the response compactor; validate in the matching mode.
        let compacted = log
            .entries()
            .iter()
            .any(|e| matches!(e.obs, m3d_sim::FailObs::Channel { .. }));
        let audit = DiagnosisAudit {
            trace_id,
            design: ctx.bench.name.clone(),
            log_entries: log.entries().len(),
            log_valid: ctx.validate_log(log, compacted).is_ok(),
            subgraph_nodes: subgraph.len(),
            subgraph_mivs: subgraph.miv_rows.len(),
            backtrace: subgraph.stats,
            features_finite: !subgraph.x.has_non_finite(),
            feature_mean: feature_mean(&subgraph.x),
            tier_probs,
            argmax_margin: (tier_probs[1] - tier_probs[0]).abs(),
            predicted_tier: outcome.predicted_tier.0,
            confidence: outcome.confidence,
            action: match outcome.action {
                crate::policy::PolicyAction::Pruned => "pruned",
                crate::policy::PolicyAction::Reordered => "reordered",
            },
            kept_candidates: outcome.report.resolution(),
            dropped_candidates: outcome.pruned.len(),
            faulty_mivs: outcome.faulty_mivs.len(),
            t_p: self.policy.t_p,
            t_p_fallback: self.t_p_fallback,
            degrade_reason: degraded.map(DegradeReason::as_str),
            t_atpg_ms: t_atpg.as_secs_f64() * 1e3,
            t_gnn_ms: t_gnn.as_secs_f64() * 1e3,
            t_update_ms: t_update.as_secs_f64() * 1e3,
        };
        // The audit's copy and the per-design SLO keys cost allocations,
        // so the disabled path (obs-overhead budget) skips them entirely.
        if m3d_obs::registry::enabled() {
            m3d_obs::registry::record_extra(audit.clone());
            record_slo(&audit, t_case.elapsed());
        }

        FrameworkResult {
            atpg_report,
            outcome,
            degraded,
            t_p_fallback: self.t_p_fallback,
            t_atpg,
            t_gnn,
            t_update,
            audit,
        }
    }
}

/// Mean of a feature matrix (0 for an empty one) — a coarse drift
/// fingerprint for the audit record.
fn feature_mean(x: &m3d_gnn::Matrix) -> f64 {
    let (rows, cols) = (x.rows(), x.cols());
    if rows == 0 || cols == 0 {
        return 0.0;
    }
    let mut sum = 0.0f64;
    for r in 0..rows {
        for &v in x.row(r) {
            sum += f64::from(v);
        }
    }
    sum / (rows * cols) as f64
}

/// Rolls one diagnosis into the per-design SLO telemetry: a latency
/// histogram (`slo.diagnose.<design>` span) plus counters from which
/// degradation and mean-resolution rates derive
/// (`slo.{cases,degraded,resolution_sum}.<design>`). Callers check the
/// budgets with `m3d-obsctl slo`.
fn record_slo(audit: &DiagnosisAudit, elapsed: Duration) {
    let design = &audit.design;
    m3d_obs::registry::record_span(&format!("slo.diagnose.{design}"), elapsed);
    m3d_obs::counter!(&format!("slo.cases.{design}"), 1);
    if audit.degrade_reason.is_some() {
        m3d_obs::counter!(&format!("slo.degraded.{design}"), 1);
    }
    m3d_obs::counter!(
        &format!("slo.resolution_sum.{design}"),
        audit.kept_candidates as u64
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_samples, DatasetConfig};
    use crate::design::{DesignConfig, TestBenchConfig};
    use m3d_diagnosis::DiagnosisConfig;
    use m3d_netlist::BenchmarkProfile;

    fn quick() -> TestBench {
        TestBench::build(&TestBenchConfig {
            scale: 0.002,
            ..TestBenchConfig::quick(BenchmarkProfile::AesLike, DesignConfig::Syn1)
        })
    }

    #[test]
    fn framework_end_to_end_single_fault() {
        let tb = quick();
        let ctx = DesignContext::new(&tb);
        let train = generate_samples(
            &ctx,
            &DatasetConfig {
                miv_fraction: 0.2,
                ..DatasetConfig::single(50, 3)
            },
        );
        let test = generate_samples(&ctx, &DatasetConfig::single(12, 77));
        let mut ts = TrainingSet::new();
        ts.add(&tb, &train);
        let fw = Framework::try_train(&ts, &FrameworkConfig::default(), &ExecPool::default())
            .expect("non-empty training set");
        assert!(fw.t_p() > 0.0 && fw.t_p() <= 1.0);

        let diag = AtpgDiagnosis::new(&ctx.fsim, None, DiagnosisConfig::default());
        let mut atpg_hits = 0;
        let mut fw_hits = 0;
        for s in &test {
            let r = fw.process_case(&ctx, &diag, s);
            assert_eq!(r.degraded, None, "healthy case must not degrade");
            atpg_hits += usize::from(r.atpg_report.hits_any(&s.truth));
            fw_hits += usize::from(r.outcome.report.hits_any(&s.truth));
            // Union of report + backup preserves everything.
            assert_eq!(
                r.outcome.report.resolution() + r.outcome.pruned.len(),
                r.atpg_report.resolution()
            );
        }
        // Accuracy loss bounded (paper: < 1%; we allow a small-sample
        // slack of 2 cases out of 12).
        assert!(
            atpg_hits - fw_hits <= 2,
            "framework lost too much accuracy ({fw_hits}/{atpg_hits})"
        );
    }

    #[test]
    fn corrupt_subgraphs_degrade_instead_of_panicking() {
        use crate::features::N_FEATURES;
        use m3d_gnn::{Graph, Matrix};

        let tb = quick();
        let ctx = DesignContext::new(&tb);
        let train = generate_samples(&ctx, &DatasetConfig::single(30, 5));
        let mut ts = TrainingSet::new();
        ts.add(&tb, &train);
        let fw = Framework::try_train(&ts, &FrameworkConfig::default(), &ExecPool::default())
            .expect("non-empty training set");
        let diag = AtpgDiagnosis::new(&ctx.fsim, None, DiagnosisConfig::default());

        // NaN feature matrix: inference skipped, case counted as fallback,
        // and no candidate is ever lost (report + backup = ATPG list).
        let mut poisoned = train[0].clone();
        let n = poisoned.subgraph.x.rows();
        assert!(n > 0, "need a non-empty subgraph to poison");
        poisoned.subgraph.x.set(0, 0, f32::NAN);
        let r = fw.process_case(&ctx, &diag, &poisoned);
        assert_eq!(r.degraded, Some(DegradeReason::NonFiniteFeatures));
        assert_eq!(
            r.outcome.report.resolution() + r.outcome.pruned.len(),
            r.atpg_report.resolution()
        );

        // Zero-node subgraph: same guarantee under the EmptySubgraph reason.
        let mut empty = train[0].clone();
        empty.subgraph = crate::backtrace::Subgraph {
            nodes: vec![],
            adj: Graph::new(0).normalize(true),
            x: Matrix::zeros(0, N_FEATURES),
            miv_rows: vec![],
            stats: Default::default(),
        };
        let r = fw.process_case(&ctx, &diag, &empty);
        assert_eq!(r.degraded, Some(DegradeReason::EmptySubgraph));
        assert_eq!(
            r.outcome.report.resolution() + r.outcome.pruned.len(),
            r.atpg_report.resolution()
        );
        assert!(
            fw.predict_tier(&empty.subgraph).is_err(),
            "direct inference on an empty subgraph must error, not panic"
        );
    }

    #[test]
    fn ablated_framework_never_prunes_without_tier() {
        let tb = quick();
        let ctx = DesignContext::new(&tb);
        let train = generate_samples(&ctx, &DatasetConfig::single(30, 5));
        let test = generate_samples(&ctx, &DatasetConfig::single(6, 91));
        let mut ts = TrainingSet::new();
        ts.add(&tb, &train);
        let fw = Framework::try_train(
            &ts,
            &FrameworkConfig {
                use_tier: false,
                use_classifier: false,
                ..FrameworkConfig::default()
            },
            &ExecPool::default(),
        )
        .expect("non-empty training set");
        let diag = AtpgDiagnosis::new(&ctx.fsim, None, DiagnosisConfig::default());
        for s in &test {
            let r = fw.process_case(&ctx, &diag, s);
            assert!(r.outcome.pruned.is_empty(), "tier-less mode cannot prune");
            assert_eq!(r.outcome.report.resolution(), r.atpg_report.resolution());
        }
    }
}
