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
use crate::policy::{apply_policy, PolicyAction, PolicyConfig, PolicyOutcome};
use m3d_diagnosis::{AtpgDiagnosis, DiagnosisReport};
use m3d_exec::ExecPool;
use m3d_gnn::{GraphSample, Matrix, PrCurve};
use m3d_part::{MivId, Tier};
use m3d_sim::FailureLog;
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

/// Why a chip's GNN evidence was unusable, so that [`Framework::fuse`]
/// handed back its ATPG report unchanged.
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
    /// The tier or MIV probabilities were NaN/Inf, or there were no tier
    /// probabilities.
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

    /// Why `subgraph` cannot feed the GCNs, if it cannot.
    fn of_subgraph(subgraph: &Subgraph) -> Option<DegradeReason> {
        if subgraph.is_empty() {
            Some(DegradeReason::EmptySubgraph)
        } else if subgraph.x.has_non_finite() {
            Some(DegradeReason::NonFiniteFeatures)
        } else {
            None
        }
    }
}

/// One chip's GNN outputs, as [`Framework::fuse`] weighs them against its
/// ATPG report.
#[derive(Debug, Clone, Copy)]
pub struct GnnEvidence<'a> {
    /// Tier-predictor probabilities `[p_bottom, p_top]`; empty when
    /// inference did not run.
    pub tier_probs: &'a [f32],
    /// MIV-pinpointer probability per MIV row of the subgraph.
    pub miv_probs: &'a [(MivId, f32)],
    /// The Tier-predictor's readout of the subgraph, which the Classifier
    /// decides on (`None`: no prune).
    pub readout: Option<&'a Matrix>,
    /// Wall time of inference.
    pub t_gnn: Duration,
}

/// Per-case output of the framework.
#[derive(Debug, Clone)]
pub struct FrameworkResult {
    /// The raw ATPG diagnosis report.
    pub atpg_report: DiagnosisReport,
    /// The policy outcome (final report, prunes, action).
    pub outcome: PolicyOutcome,
    /// `Some(reason)` when the GNN evidence was unusable; `None` for a
    /// healthy case. A degraded case's final report is `atpg_report` in
    /// ATPG order: nothing pruned, no MIV promoted, no tier reorder, with
    /// predicted tier 0 and confidence 0.
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

    /// Runs the full per-chip flow: ATPG diagnosis, GNN inference, then
    /// [`Framework::fuse`].
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
    /// The GCNs run only when the subgraph can feed them; [`Framework::fuse`]
    /// degrades any other chip.
    pub fn process_log(
        &self,
        ctx: &DesignContext<'_>,
        diag: &AtpgDiagnosis<'_, '_>,
        log: &FailureLog,
        subgraph: &Subgraph,
    ) -> FrameworkResult {
        let _span = m3d_obs::SpanGuard::enter_root("framework.diagnose");
        let t0 = Instant::now();
        let atpg_report = diag.diagnose(log);
        let t_atpg = t0.elapsed();

        let t1 = Instant::now();
        let inference = m3d_obs::span!("inference");
        let flops_start = m3d_gnn::kernel_flops();
        let runnable = DegradeReason::of_subgraph(subgraph).is_none();
        // One Tier trunk pass per chip feeds both heads.
        let readout = (runnable && self.policy.tier_enabled).then(|| self.tier.readout(subgraph));
        let probs;
        let tier_probs: &[f32] = match &readout {
            Some(r) => {
                probs = self.tier.predict_readout(r);
                &probs
            }
            // The tier-less ablation (Table XI) hands the policy a neutral
            // prior; it is not a degradation.
            None if runnable => &[0.5, 0.5],
            None => &[],
        };
        let miv_probs = match &self.miv {
            Some(m) if runnable => m.predict(subgraph),
            _ => Vec::new(),
        };
        let flops = m3d_gnn::kernel_flops() - flops_start;
        if flops > 0 {
            m3d_obs::counter!("gnn.kernel.flops.inference", flops);
        }
        drop(inference);
        let gnn = GnnEvidence {
            tier_probs,
            miv_probs: &miv_probs,
            readout: readout.as_ref(),
            t_gnn: t1.elapsed(),
        };
        self.fuse(ctx, log, subgraph, atpg_report, t_atpg, gnn)
    }

    /// Fuses one chip's ATPG report with its GNN outputs: decides whether
    /// the evidence is usable, runs the pruning/reordering policy on it,
    /// and records the chip's [`DiagnosisAudit`] and SLO telemetry.
    ///
    /// The evidence is usable when `subgraph` is non-empty with finite
    /// features, `gnn.tier_probs` is non-empty, and every tier and MIV
    /// probability is finite. Otherwise the chip is degraded
    /// ([`FrameworkResult::degraded`]) and its final report is
    /// `atpg_report` unchanged.
    ///
    /// Call it inside the chip's root span: the audit carries that span's
    /// trace id.
    pub fn fuse(
        &self,
        ctx: &DesignContext<'_>,
        log: &FailureLog,
        subgraph: &Subgraph,
        atpg_report: DiagnosisReport,
        t_atpg: Duration,
        gnn: GnnEvidence<'_>,
    ) -> FrameworkResult {
        let start = Instant::now();
        let probs_usable = !gnn.tier_probs.is_empty()
            && gnn
                .tier_probs
                .iter()
                .chain(gnn.miv_probs.iter().map(|(_, p)| p))
                .all(|p| p.is_finite());
        let degraded = DegradeReason::of_subgraph(subgraph)
            .or((!probs_usable).then_some(DegradeReason::NonFiniteInference));
        let outcome = match degraded {
            None => apply_policy(
                &atpg_report,
                &ctx.bench.m3d,
                gnn.tier_probs,
                gnn.miv_probs,
                self.classifier.as_ref(),
                gnn.readout,
                &self.policy,
            ),
            Some(reason) => {
                m3d_obs::counter!(reason.counter_name(), 1);
                m3d_obs::warn!(
                    "framework: case degraded to unpruned ATPG ranking ({})",
                    reason.as_str()
                );
                PolicyOutcome {
                    report: atpg_report.clone(),
                    pruned: Vec::new(),
                    action: PolicyAction::Reordered,
                    predicted_tier: Tier(0),
                    confidence: 0.0,
                    faulty_mivs: Vec::new(),
                    degraded: true,
                }
            }
        };
        let t_update = start.elapsed();

        // Tester logs only carry channel/position entries when they went
        // through the response compactor; validate in the matching mode.
        let compacted = log
            .entries()
            .iter()
            .any(|e| matches!(e.obs, m3d_sim::FailObs::Channel { .. }));
        let tier_probs = [0, 1].map(|i| gnn.tier_probs.get(i).copied().unwrap_or(0.0));
        let audit = DiagnosisAudit {
            trace_id: m3d_obs::TraceCtx::current().trace_id,
            design: ctx.bench.name.clone(),
            log_entries: log.entries().len(),
            log_valid: ctx.validate_log(log, compacted).is_ok(),
            subgraph_nodes: subgraph.len(),
            subgraph_mivs: subgraph.miv_rows.len(),
            backtrace: subgraph.stats,
            features_finite: degraded != Some(DegradeReason::NonFiniteFeatures),
            feature_mean: feature_mean(&subgraph.x),
            tier_probs,
            argmax_margin: (tier_probs[1] - tier_probs[0]).abs(),
            predicted_tier: outcome.predicted_tier.0,
            confidence: outcome.confidence,
            action: match outcome.action {
                PolicyAction::Pruned => "pruned",
                PolicyAction::Reordered => "reordered",
            },
            kept_candidates: outcome.report.resolution(),
            dropped_candidates: outcome.pruned.len(),
            faulty_mivs: outcome.faulty_mivs.len(),
            t_p: self.policy.t_p,
            t_p_fallback: self.t_p_fallback,
            degrade_reason: degraded.map(DegradeReason::as_str),
            t_atpg_ms: t_atpg.as_secs_f64() * 1e3,
            t_gnn_ms: gnn.t_gnn.as_secs_f64() * 1e3,
            t_update_ms: t_update.as_secs_f64() * 1e3,
        };
        // The audit's copy and the per-design SLO keys cost allocations,
        // so the disabled path (obs-overhead budget) skips them entirely.
        if m3d_obs::registry::enabled() {
            m3d_obs::registry::record_extra(audit.clone());
            record_slo(&audit, t_atpg + gnn.t_gnn + start.elapsed());
        }

        FrameworkResult {
            atpg_report,
            outcome,
            degraded,
            t_p_fallback: self.t_p_fallback,
            t_atpg,
            t_gnn: gnn.t_gnn,
            t_update,
            audit,
        }
    }
}

/// Mean of a feature matrix (0 for an empty one) — a coarse drift
/// fingerprint for the audit record.
fn feature_mean(x: &Matrix) -> f64 {
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

    /// Diagnoses an empty and a NaN-feature copy of each chip: every one
    /// degrades with its reason and gets its ATPG report back unchanged.
    fn assert_corrupt_chips_get_atpg_reports(
        fw: &Framework,
        ctx: &DesignContext<'_>,
        chips: &[Sample],
    ) {
        let diag = AtpgDiagnosis::new(&ctx.fsim, None, DiagnosisConfig::default());
        for chip in chips {
            let mut poisoned = chip.clone();
            assert!(
                !poisoned.subgraph.is_empty(),
                "need a non-empty subgraph to poison"
            );
            poisoned.subgraph.x.set(0, 0, f32::NAN);
            let mut empty = chip.clone();
            empty.subgraph = Subgraph {
                nodes: vec![],
                adj: m3d_gnn::Graph::new(0).normalize(true),
                x: Matrix::zeros(0, crate::features::N_FEATURES),
                miv_rows: vec![],
                stats: Default::default(),
            };
            for (case, reason) in [
                (&poisoned, DegradeReason::NonFiniteFeatures),
                (&empty, DegradeReason::EmptySubgraph),
            ] {
                let r = fw.process_case(ctx, &diag, case);
                assert_eq!(r.degraded, Some(reason));
                assert!(
                    r.outcome.pruned.is_empty(),
                    "degraded case pruned {} candidates",
                    r.outcome.pruned.len()
                );
                assert_eq!(
                    r.outcome.report, r.atpg_report,
                    "{reason:?}: ATPG order changed"
                );
                assert_eq!(
                    (r.outcome.predicted_tier, r.outcome.confidence),
                    (Tier(0), 0.0)
                );
            }
        }
    }

    #[test]
    fn corrupt_subgraphs_degrade_instead_of_panicking() {
        let tb = quick();
        let ctx = DesignContext::new(&tb);
        let train = generate_samples(&ctx, &DatasetConfig::single(30, 5));
        let mut ts = TrainingSet::new();
        ts.add(&tb, &train);
        let fw = Framework::try_train(&ts, &FrameworkConfig::default(), &ExecPool::default())
            .expect("non-empty training set");
        assert_corrupt_chips_get_atpg_reports(&fw, &ctx, &train[..1]);
    }

    /// `T_P = 0` without a Classifier prunes every chip whose evidence
    /// reaches the policy, so a degraded chip that reached it would lose
    /// candidates to the backup dictionary.
    #[test]
    fn degraded_chips_get_their_atpg_report_back() {
        let tb = quick();
        let ctx = DesignContext::new(&tb);
        let train = generate_samples(&ctx, &DatasetConfig::single(30, 5));
        let mut ts = TrainingSet::new();
        ts.add(&tb, &train);
        let trained = Framework::try_train(&ts, &FrameworkConfig::default(), &ExecPool::default())
            .expect("non-empty training set");
        let fw = Framework::from_parts(
            trained.tier,
            trained.miv,
            None,
            PolicyConfig {
                t_p: 0.0,
                ..trained.policy
            },
            false,
        );
        assert_corrupt_chips_get_atpg_reports(&fw, &ctx, &train);
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
