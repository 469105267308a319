//! Sealed, read-only diagnosis sessions: the serving-side counterpart of
//! the training [`Pipeline`](crate::Pipeline).
//!
//! A session owns a trained [`Framework`] and the per-design diagnosis
//! state (fault simulator, heterogeneous graph and its cone store) and
//! exposes exactly one capability: turning tester failure logs into
//! [`FrameworkResult`]s. There is no way to retrain, mutate weights, or
//! swap the design through a session — artifacts stay trustworthy in
//! long-lived servers.

use crate::backtrace::BacktraceConfig;
use crate::dataset::DesignContext;
use crate::design::TestBench;
use crate::framework::{Framework, FrameworkResult};
use m3d_diagnosis::{AtpgDiagnosis, DiagnosisConfig};
use m3d_exec::ExecPool;
use m3d_sim::{FailObs, FailureLog};

/// A read-only diagnosis endpoint for one design.
///
/// Created by [`Pipeline::load_artifact`](crate::Pipeline::load_artifact)
/// (from a persisted artifact) or
/// [`Pipeline::open_session`](crate::Pipeline::open_session) (from an
/// in-process training run); both paths produce bit-identical diagnoses.
///
/// Borrows the [`TestBench`] for `'a` — the caller keeps the bench alive
/// (typically on the server's main stack) while sessions serve from it.
pub struct DiagnosisSession<'a> {
    ctx: DesignContext<'a>,
    framework: Framework,
    diag_cfg: DiagnosisConfig,
}

impl std::fmt::Debug for DiagnosisSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiagnosisSession")
            .field("design", &self.design())
            .field("t_p", &self.t_p())
            .field("t_p_fallback", &self.t_p_is_fallback())
            .finish_non_exhaustive()
    }
}

impl<'a> DiagnosisSession<'a> {
    pub(crate) fn new(
        ctx: DesignContext<'a>,
        framework: Framework,
        diag_cfg: DiagnosisConfig,
    ) -> Self {
        DiagnosisSession {
            ctx,
            framework,
            diag_cfg,
        }
    }

    /// The design label (`"<profile>/<config>"`) this session serves.
    pub fn design(&self) -> &str {
        &self.ctx.bench.name
    }

    /// The bench the session diagnoses against.
    pub fn bench(&self) -> &TestBench {
        self.ctx.bench
    }

    /// The trained framework (read-only).
    pub fn framework(&self) -> &Framework {
        &self.framework
    }

    /// The confidence threshold `T_P` in force.
    pub fn t_p(&self) -> f32 {
        self.framework.t_p()
    }

    /// `true` when `T_P` is the unreachable-precision fallback of 1.0
    /// (pruning disabled; cases can only be reordered).
    pub fn t_p_is_fallback(&self) -> bool {
        self.framework.t_p_is_fallback()
    }

    /// Diagnoses one tester failure log: back-trace, ATPG diagnosis, GNN
    /// inference, and the pruning/reordering policy.
    ///
    /// Compaction is auto-detected from the log's entry kinds (channel/
    /// position entries only exist downstream of the response compactor).
    /// The call never fails: corrupt or empty logs degrade to the
    /// unpruned ATPG ranking under the [`DegradeReason`]
    /// (crate::DegradeReason) contracts, exactly like the in-process
    /// pipeline.
    pub fn diagnose(&self, log: &FailureLog) -> FrameworkResult {
        let compacted = log
            .entries()
            .iter()
            .any(|e| matches!(e.obs, FailObs::Channel { .. }));
        let subgraph = self
            .ctx
            .backtrace(log, compacted, &BacktraceConfig::default());
        let diag = AtpgDiagnosis::new(
            &self.ctx.fsim,
            compacted.then(|| self.ctx.chains()),
            self.diag_cfg,
        );
        self.framework.process_log(&self.ctx, &diag, log, &subgraph)
    }

    /// Diagnoses a batch of logs on `pool`, returning results in input
    /// order. Bit-identical at any thread count (each case is
    /// independent; the pool merges in input order).
    pub fn diagnose_batch(&self, logs: &[FailureLog], pool: &ExecPool) -> Vec<FrameworkResult> {
        pool.map(logs, |_, log| self.diagnose(log))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_samples, DatasetConfig};
    use crate::design::{DesignConfig, TestBenchConfig};
    use crate::framework::{FrameworkConfig, TrainingSet};
    use m3d_netlist::BenchmarkProfile;

    #[test]
    fn session_matches_in_process_pipeline() {
        let cfg = TestBenchConfig {
            scale: 0.002,
            ..TestBenchConfig::quick(BenchmarkProfile::AesLike, DesignConfig::Syn1)
        };
        let bench = TestBench::build(&cfg);
        let ctx = DesignContext::new(&bench);
        let train = generate_samples(&ctx, &DatasetConfig::single(40, 3));
        let test = generate_samples(&ctx, &DatasetConfig::single(6, 77));
        let mut ts = TrainingSet::new();
        ts.add(&bench, &train);
        let pool = ExecPool::with_threads(1);
        let fw = Framework::try_train(&ts, &FrameworkConfig::default(), &pool).unwrap();
        let diag = AtpgDiagnosis::new(&ctx.fsim, None, DiagnosisConfig::default());

        let session_ctx = DesignContext::new(&bench);
        let fw2 = Framework::try_train(&ts, &FrameworkConfig::default(), &pool).unwrap();
        let session = DiagnosisSession::new(session_ctx, fw2, DiagnosisConfig::default());
        assert_eq!(session.design(), bench.name);

        for s in &test {
            let a = fw.process_case(&ctx, &diag, s);
            let b = session.diagnose(&s.log);
            assert_eq!(a.outcome.report, b.outcome.report);
            assert_eq!(a.outcome.action, b.outcome.action);
            assert_eq!(a.outcome.predicted_tier, b.outcome.predicted_tier);
            assert_eq!(a.degraded, b.degraded);
        }
        // Batch path returns input-order results identical to serial.
        let logs: Vec<FailureLog> = test.iter().map(|s| s.log.clone()).collect();
        let batch = session.diagnose_batch(&logs, &pool);
        assert_eq!(batch.len(), logs.len());
        for (s, r) in test.iter().zip(&batch) {
            assert_eq!(r.outcome.report, session.diagnose(&s.log).outcome.report);
        }
    }
}
