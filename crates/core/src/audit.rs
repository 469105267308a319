//! Per-diagnosis audit records: the structured "why" behind one failure
//! log's verdict.
//!
//! [`crate::Framework::fuse`] builds one [`DiagnosisAudit`] per case
//! and — when metric recording is enabled — registers it with the
//! m3d-obs registry as an extra record, kept typed and serialized when the
//! report is written, so every run report carries one
//! `{"type":"audit",...}` line per diagnosis.
//! `m3d-obsctl explain <trace-id>` joins the record with the span tree of
//! the same trace to render the diagnosis end-to-end, and a future
//! `m3d-serve` returns the same record to callers.

use crate::backtrace::BacktraceStats;
use m3d_obs::registry::JsonLine;
use m3d_obs::report::{json_number, json_string};

/// Everything a caller needs to audit one diagnosis: what the log looked
/// like, what backtracing produced, what the models said, and what the
/// policy did with it.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisAudit {
    /// Trace id of the `framework.diagnose` root span (joins the audit to
    /// its span tree in the run report; 0 when recording was disabled).
    pub trace_id: u64,
    /// Design the case ran against (`<profile>/<config>`).
    pub design: String,
    /// Failure-log entries after the log's sort+dedup constructor.
    pub log_entries: usize,
    /// Whether the log passed [`crate::DesignContext::validate_log`].
    pub log_valid: bool,
    /// Nodes in the back-traced subgraph.
    pub subgraph_nodes: usize,
    /// MIV rows in the back-traced subgraph.
    pub subgraph_mivs: usize,
    /// Work counters of the backtrace that produced the subgraph.
    pub backtrace: BacktraceStats,
    /// Whether every feature value was finite.
    pub features_finite: bool,
    /// Mean of the feature matrix (coarse drift fingerprint; 0 when the
    /// subgraph is empty).
    pub feature_mean: f64,
    /// Tier-predictor output `[p_bottom, p_top]` as handed to
    /// [`crate::Framework::fuse`] (the `[0.5, 0.5]` neutral prior in the
    /// tier-less ablation; zeros where inference did not run).
    pub tier_probs: [f32; 2],
    /// Argmax margin `|p_top - p_bottom|` of `tier_probs`.
    pub argmax_margin: f32,
    /// The predicted faulty tier index.
    pub predicted_tier: u8,
    /// The Tier-predictor confidence the policy acted on.
    pub confidence: f32,
    /// Which policy branch executed (`"pruned"` / `"reordered"`).
    pub action: &'static str,
    /// Candidates kept in the final report.
    pub kept_candidates: usize,
    /// Candidates pruned into the backup dictionary.
    pub dropped_candidates: usize,
    /// Vias the MIV-pinpointer flagged as faulty.
    pub faulty_mivs: usize,
    /// The confidence threshold `T_P` in effect.
    pub t_p: f32,
    /// Whether `T_P` was the unreachable-precision fallback of 1.0.
    pub t_p_fallback: bool,
    /// Degradation label ([`crate::DegradeReason::as_str`]) when GNN
    /// evidence was unusable; `None` for a healthy case.
    pub degrade_reason: Option<&'static str>,
    /// Wall time of the ATPG diagnosis stage, milliseconds.
    pub t_atpg_ms: f64,
    /// Wall time of GNN inference, milliseconds.
    pub t_gnn_ms: f64,
    /// Wall time of the policy update, milliseconds.
    pub t_update_ms: f64,
}

/// One NDJSON line of type `audit`, matching the m3d-obs run-report
/// schema.
impl JsonLine for DiagnosisAudit {
    fn json_line(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"type\":\"audit\"");
        out.push_str(&format!(",\"trace_id\":{}", self.trace_id));
        out.push_str(",\"design\":");
        json_string(&mut out, &self.design);
        out.push_str(&format!(
            ",\"log_entries\":{},\"log_valid\":{}",
            self.log_entries, self.log_valid
        ));
        out.push_str(&format!(
            ",\"subgraph_nodes\":{},\"subgraph_mivs\":{}",
            self.subgraph_nodes, self.subgraph_mivs
        ));
        out.push_str(&format!(
            ",\"bt_activity_checks\":{},\"bt_dropped_patterns\":{}",
            self.backtrace.activity_checks, self.backtrace.dropped_patterns
        ));
        out.push_str(&format!(",\"features_finite\":{}", self.features_finite));
        out.push_str(",\"feature_mean\":");
        json_number(&mut out, self.feature_mean);
        out.push_str(",\"tier_probs\":[");
        json_number(&mut out, f64::from(self.tier_probs[0]));
        out.push(',');
        json_number(&mut out, f64::from(self.tier_probs[1]));
        out.push_str("],\"argmax_margin\":");
        json_number(&mut out, f64::from(self.argmax_margin));
        out.push_str(&format!(",\"predicted_tier\":{}", self.predicted_tier));
        out.push_str(",\"confidence\":");
        json_number(&mut out, f64::from(self.confidence));
        out.push_str(",\"action\":");
        json_string(&mut out, self.action);
        out.push_str(&format!(
            ",\"kept_candidates\":{},\"dropped_candidates\":{},\"faulty_mivs\":{}",
            self.kept_candidates, self.dropped_candidates, self.faulty_mivs
        ));
        out.push_str(",\"t_p\":");
        json_number(&mut out, f64::from(self.t_p));
        out.push_str(&format!(",\"t_p_fallback\":{}", self.t_p_fallback));
        out.push_str(",\"degrade_reason\":");
        match self.degrade_reason {
            Some(reason) => json_string(&mut out, reason),
            None => out.push_str("null"),
        }
        out.push_str(",\"t_atpg_ms\":");
        json_number(&mut out, self.t_atpg_ms);
        out.push_str(",\"t_gnn_ms\":");
        json_number(&mut out, self.t_gnn_ms);
        out.push_str(",\"t_update_ms\":");
        json_number(&mut out, self.t_update_ms);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit() -> DiagnosisAudit {
        DiagnosisAudit {
            trace_id: 7,
            design: "aes_like/syn1".to_string(),
            log_entries: 12,
            log_valid: true,
            subgraph_nodes: 40,
            subgraph_mivs: 3,
            backtrace: BacktraceStats {
                activity_checks: 50,
                dropped_patterns: 0,
            },
            features_finite: true,
            feature_mean: 0.25,
            tier_probs: [0.2, 0.8],
            argmax_margin: 0.6,
            predicted_tier: 1,
            confidence: 0.8,
            action: "pruned",
            kept_candidates: 5,
            dropped_candidates: 2,
            faulty_mivs: 1,
            t_p: 0.75,
            t_p_fallback: false,
            degrade_reason: None,
            t_atpg_ms: 1.5,
            t_gnn_ms: 0.5,
            t_update_ms: 0.1,
        }
    }

    #[test]
    fn audit_serializes_to_one_json_object_line() {
        let line = audit().json_line();
        assert!(line.starts_with("{\"type\":\"audit\",\"trace_id\":7"));
        assert!(line.ends_with('}'));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"degrade_reason\":null"));
        assert!(line.contains("\"tier_probs\":[0.2"));
    }

    #[test]
    fn degrade_reason_and_non_finite_values_serialize_safely() {
        let mut a = audit();
        a.degrade_reason = Some("non_finite_features");
        a.feature_mean = f64::NAN;
        let line = a.json_line();
        assert!(line.contains("\"degrade_reason\":\"non_finite_features\""));
        assert!(line.contains("\"feature_mean\":null"));
    }
}
