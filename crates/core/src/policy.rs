//! The candidate pruning & reordering policy (Section V, Figs. 7–8).
//!
//! Given an ATPG diagnosis report and the GNN predictions:
//!
//! 1. candidates equivalent to MIVs the MIV-pinpointer flags move to the
//!    top (and become unprunable);
//! 2. if the Tier-predictor's confidence is below `T_P`, the remaining
//!    candidates are *reordered* — predicted-faulty-tier candidates first;
//! 3. otherwise the Classifier decides: *prune* removes fault-free-tier
//!    candidates into the backup dictionary, *reorder* as above.
//!
//! A [`BackupDictionary`] records every pruned candidate so an engineer
//! can recover the full ATPG list when PFA comes up empty — guaranteeing
//! the framework never does worse than ATPG accuracy in practice.

use crate::classifier::PruneClassifier;
use m3d_diagnosis::{Candidate, DiagnosisReport};
use m3d_gnn::Matrix;
use m3d_part::{M3dNetlist, MivId, Tier};
use std::collections::HashMap;

/// Policy tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// Confidence threshold `T_P` from the training PR curve.
    pub t_p: f32,
    /// MIV-pinpointer probability above which a via counts as faulty.
    pub miv_threshold: f32,
    /// Whether tier-based reordering/pruning is active (disabled in the
    /// MIV-pinpointer-standalone ablation of Table XI).
    pub tier_enabled: bool,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            t_p: 0.9,
            miv_threshold: 0.5,
            tier_enabled: true,
        }
    }
}

/// What the policy did to a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAction {
    /// Low confidence: candidates reordered toward the predicted tier.
    Reordered,
    /// High confidence and Classifier approval: fault-free-tier candidates
    /// pruned.
    Pruned,
}

/// The policy's result for one failure log.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The updated report.
    pub report: DiagnosisReport,
    /// Candidates removed by pruning (backup-dictionary payload).
    pub pruned: Vec<Candidate>,
    /// Which branch of Fig. 7 executed.
    pub action: PolicyAction,
    /// The predicted faulty tier.
    pub predicted_tier: Tier,
    /// The Tier-predictor's confidence `max(p_top, p_bottom)`.
    pub confidence: f32,
    /// Vias the MIV-pinpointer flagged as faulty.
    pub faulty_mivs: Vec<MivId>,
    /// `true` when corrupted GNN outputs (empty or non-finite tier
    /// probabilities, non-finite MIV probabilities) forced the policy to
    /// discard that evidence and pass the ATPG ranking through unpruned.
    pub degraded: bool,
}

/// `max_by` comparator under which a NaN probability loses every
/// comparison, so it can never become the predicted tier or the reported
/// confidence. Finite values order by `total_cmp`, which agrees with IEEE
/// `<` on the softmax output range, and `max_by` keeps its
/// last-maximal-element tie rule — bit-identical to the historical
/// `partial_cmp` comparator on healthy inputs.
fn nan_loses(a: f32, b: f32) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.is_nan(), b.is_nan()) {
        (false, false) => a.total_cmp(&b),
        (false, true) => Ordering::Greater,
        (true, false) => Ordering::Less,
        (true, true) => Ordering::Equal,
    }
}

/// Applies the pruning/reordering policy to one report.
///
/// `tier_probs` is the Tier-predictor output, one probability per tier
/// (two-tier designs pass `&[p_bottom, p_top]`); `miv_probs` the
/// MIV-pinpointer output; `classifier` the optional prune/reorder
/// Classifier (standalone Tier-predictor mode — Table XI — passes `None`
/// and prunes whenever confidence clears `T_P`), which decides on
/// `readout`, the Tier-predictor's readout of the subgraph (`None`: no
/// prune).
///
/// Corrupted GNN outputs degrade instead of panicking: when `tier_probs`
/// is empty or its maximum is NaN/Inf the tier evidence is discarded and
/// the ATPG ranking passes through unpruned and unreordered (confidence
/// reported as `0.0`); NaN/Inf MIV probabilities are dropped from
/// consideration. Both paths set [`PolicyOutcome::degraded`] and bump
/// `policy.fallback.*` / `policy.dropped.*` counters.
pub fn apply_policy(
    report: &DiagnosisReport,
    m3d: &M3dNetlist,
    tier_probs: &[f32],
    miv_probs: &[(MivId, f32)],
    classifier: Option<&PruneClassifier>,
    readout: Option<&Matrix>,
    cfg: &PolicyConfig,
) -> PolicyOutcome {
    let _span = m3d_obs::span!("policy");
    let mut degraded = false;

    let non_finite_mivs = miv_probs.iter().filter(|&&(_, p)| !p.is_finite()).count();
    if non_finite_mivs > 0 {
        m3d_obs::counter!("policy.dropped.non_finite_miv_prob", non_finite_mivs as u64);
        m3d_obs::warn!("policy: dropping {non_finite_mivs} NaN/Inf MIV probabilities");
        degraded = true;
    }
    let faulty_mivs: Vec<MivId> = miv_probs
        .iter()
        .filter(|&&(_, p)| p.is_finite() && p >= cfg.miv_threshold)
        .map(|&(m, _)| m)
        .collect();

    let is_miv_equiv = |c: &Candidate| -> bool {
        m3d.site_mivs(c.fault.site)
            .iter()
            .any(|m| faulty_mivs.contains(m))
    };

    // Arg-max with NaN losing every comparison. A non-finite winner (all
    // probabilities NaN, or an Inf logit leaking through softmax) means
    // the tier evidence is unusable: pruning on it could discard the true
    // candidate, so fall back to the raw ATPG ranking.
    let (predicted, raw_confidence) = tier_probs
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| nan_loses(a.1, b.1))
        .unwrap_or((0, f32::NAN));
    let tier_valid = raw_confidence.is_finite();
    if !tier_valid {
        m3d_obs::counter!("policy.fallback.invalid_tier_probs", 1);
        m3d_obs::warn!(
            "policy: tier probabilities unusable ({} entries, non-finite max); \
             passing the ATPG ranking through unpruned",
            tier_probs.len()
        );
        degraded = true;
    }
    let confidence = if tier_valid { raw_confidence } else { 0.0 };
    let predicted_tier = Tier(if tier_valid { predicted as u8 } else { 0 });

    // MIV-equivalent candidates lead the report and are pruning-exempt.
    let mut miv_block: Vec<Candidate> = Vec::new();
    let mut rest: Vec<Candidate> = Vec::new();
    for c in report.candidates() {
        if is_miv_equiv(c) {
            miv_block.push(*c);
        } else {
            rest.push(*c);
        }
    }

    let prune = cfg.tier_enabled
        && tier_valid
        && confidence >= cfg.t_p
        && classifier.is_none_or(|clf| readout.is_some_and(|r| clf.should_prune(r).0));

    let mut pruned = Vec::new();
    let ordered_rest: Vec<Candidate> = if !cfg.tier_enabled || !tier_valid {
        rest
    } else if prune {
        let (keep, cut): (Vec<Candidate>, Vec<Candidate>) = rest
            .into_iter()
            .partition(|c| m3d.tier_of_site(c.fault.site) == predicted_tier);
        pruned = cut;
        keep
    } else {
        // Stable reorder: predicted tier first.
        let (front, back): (Vec<Candidate>, Vec<Candidate>) = rest
            .into_iter()
            .partition(|c| m3d.tier_of_site(c.fault.site) == predicted_tier);
        front.into_iter().chain(back).collect()
    };

    m3d_obs::counter!("policy.candidates_pruned", pruned.len() as u64);
    if !pruned.is_empty() {
        m3d_obs::debug!(
            "policy pruned {} candidates (tier {predicted}, confidence {confidence:.3})",
            pruned.len()
        );
    }
    let mut final_list = miv_block;
    final_list.extend(ordered_rest);
    PolicyOutcome {
        report: DiagnosisReport::new(final_list),
        pruned,
        action: if prune {
            PolicyAction::Pruned
        } else {
            PolicyAction::Reordered
        },
        predicted_tier,
        confidence,
        faulty_mivs,
        degraded,
    }
}

/// The backup dictionary: per-chip pruned candidates, recoverable after an
/// unsuccessful PFA.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackupDictionary {
    entries: HashMap<u64, Vec<Candidate>>,
}

impl BackupDictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        BackupDictionary::default()
    }

    /// Records the pruned candidates of a failing chip.
    pub fn record(&mut self, chip_id: u64, pruned: Vec<Candidate>) {
        if !pruned.is_empty() {
            self.entries.insert(chip_id, pruned);
        }
    }

    /// Looks up the pruned candidates of a chip.
    pub fn lookup(&self, chip_id: u64) -> Option<&[Candidate]> {
        self.entries.get(&chip_id).map(Vec::as_slice)
    }

    /// Number of chips with recorded prunes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing was ever pruned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate memory footprint in bytes (the paper's 246 kB
    /// discussion).
    pub fn approx_size_bytes(&self) -> usize {
        self.entries
            .values()
            .map(|v| v.len() * std::mem::size_of::<Candidate>() + 16)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{generate, GeneratorConfig, PinRef};
    use m3d_part::{MinCutPartitioner, Partitioner};
    use m3d_sim::{Polarity, Tdf};

    fn m3d() -> M3dNetlist {
        let nl = generate(&GeneratorConfig {
            n_comb_gates: 120,
            n_flops: 12,
            n_inputs: 8,
            n_outputs: 6,
            target_depth: 6,
            ..GeneratorConfig::default()
        });
        let part = MinCutPartitioner::default().partition(&nl, 2);
        M3dNetlist::build(nl, part)
    }

    /// The policy without a Classifier, at the default configuration.
    fn policy(
        report: &DiagnosisReport,
        m: &M3dNetlist,
        tier_probs: &[f32],
        miv_probs: &[(MivId, f32)],
    ) -> PolicyOutcome {
        apply_policy(
            report,
            m,
            tier_probs,
            miv_probs,
            None,
            None,
            &PolicyConfig::default(),
        )
    }

    fn cand(site: PinRef) -> Candidate {
        Candidate {
            fault: Tdf::new(site, Polarity::SlowToRise),
            tfsf: 3,
            tfsp: 0,
            tpsf: 0,
        }
    }

    fn mixed_report(m: &M3dNetlist) -> (DiagnosisReport, Vec<Candidate>, Vec<Candidate>) {
        let mut top = Vec::new();
        let mut bottom = Vec::new();
        for pin in m.netlist().fault_sites() {
            let t = m.tier_of_site(pin);
            if t == Tier::TOP && top.len() < 3 {
                top.push(cand(pin));
            } else if t == Tier::BOTTOM && bottom.len() < 3 {
                bottom.push(cand(pin));
            }
            if top.len() == 3 && bottom.len() == 3 {
                break;
            }
        }
        let mut all = bottom.clone();
        all.extend(top.clone());
        (DiagnosisReport::new(all), top, bottom)
    }

    #[test]
    fn low_confidence_reorders_without_loss() {
        let m = m3d();
        let (report, top, _bottom) = mixed_report(&m);
        // Low confidence, top predicted.
        let out = policy(&report, &m, &[0.45, 0.55], &[]);
        assert_eq!(out.action, PolicyAction::Reordered);
        assert_eq!(out.report.resolution(), report.resolution());
        assert!(out.pruned.is_empty());
        // Top-tier candidates lead.
        for (i, c) in out.report.candidates().iter().take(top.len()).enumerate() {
            assert_eq!(
                m.tier_of_site(c.fault.site),
                Tier::TOP,
                "position {i} should be top-tier"
            );
        }
        assert_eq!(out.predicted_tier, Tier::TOP);
    }

    #[test]
    fn high_confidence_prunes_other_tier() {
        let m = m3d();
        let (report, top, bottom) = mixed_report(&m);
        // Standalone Tier-predictor mode (no Classifier) prunes directly.
        let out = policy(&report, &m, &[0.02, 0.98], &[]);
        assert_eq!(out.action, PolicyAction::Pruned);
        assert_eq!(out.report.resolution(), top.len());
        assert_eq!(out.pruned.len(), bottom.len());
        for c in out.report.candidates() {
            assert_eq!(m.tier_of_site(c.fault.site), Tier::TOP);
        }
    }

    #[test]
    fn faulty_miv_candidates_lead_and_survive_pruning() {
        let m = m3d();
        // Pick an MIV whose net has a driver and use the driver pin as the
        // equivalent candidate site (undriven MIV nets are skipped, not
        // unwrapped — they can occur in corrupted partitions).
        let (miv_id, drv) = (0..m.miv_count() as u32)
            .find_map(|i| {
                let id = MivId(i);
                m.netlist().net(m.miv(id).net).driver.map(|d| (id, d))
            })
            .expect("at least one MIV net has a driver");
        let miv_site = PinRef::output(drv);
        let miv_tier = m.tier_of_site(miv_site);
        // Predict the *other* tier faulty with high confidence: without MIV
        // protection this candidate would be pruned.
        let other = Tier(1 - miv_tier.0);
        let probs: &[f32] = if other == Tier::TOP {
            &[0.01, 0.99]
        } else {
            &[0.99, 0.01]
        };
        let (mut report, ..) = mixed_report(&m);
        report.candidates_mut().push(cand(miv_site));
        let out = policy(&report, &m, probs, &[(miv_id, 0.95)]);
        assert_eq!(out.faulty_mivs, vec![miv_id]);
        assert_eq!(out.report.candidates()[0].fault.site, miv_site);
        assert!(out.pruned.iter().all(|c| c.fault.site != miv_site));
    }

    #[test]
    fn empty_tier_probs_degrade_to_atpg_passthrough() {
        let m = m3d();
        let (report, ..) = mixed_report(&m);
        // Zero-node subgraph: the predictor produced nothing.
        let out = policy(&report, &m, &[], &[]);
        assert!(out.degraded);
        assert_eq!(out.action, PolicyAction::Reordered);
        assert!(out.pruned.is_empty());
        assert_eq!(out.confidence, 0.0);
        assert_eq!(out.predicted_tier, Tier(0));
        // The ATPG ranking passes through byte-for-byte.
        assert_eq!(out.report.candidates(), report.candidates());
    }

    #[test]
    fn nan_tier_prob_loses_argmax_and_never_becomes_confidence() {
        let m = m3d();
        let (report, ..) = mixed_report(&m);
        // One tier NaN, the other finite: the finite tier must win even
        // though NaN would tie under the old unwrap_or(Equal) comparator.
        let out = policy(&report, &m, &[f32::NAN, 0.40], &[]);
        assert!(!out.degraded, "a finite max is still usable evidence");
        assert_eq!(out.predicted_tier, Tier::TOP);
        assert_eq!(out.confidence, 0.40);
        assert_eq!(out.action, PolicyAction::Reordered);
    }

    #[test]
    fn all_nan_or_inf_tier_probs_never_prune() {
        let m = m3d();
        let (report, ..) = mixed_report(&m);
        for probs in [
            &[f32::NAN, f32::NAN][..],
            &[f32::INFINITY, 0.01][..], // Inf clears any T_P — must not prune
            &[0.2, f32::NEG_INFINITY, f32::INFINITY][..],
        ] {
            let out = policy(&report, &m, probs, &[]);
            assert!(out.degraded, "probs {probs:?} should degrade");
            assert_eq!(out.action, PolicyAction::Reordered);
            assert!(out.pruned.is_empty(), "probs {probs:?} must not prune");
            assert_eq!(out.confidence, 0.0);
            assert_eq!(out.report.candidates(), report.candidates());
        }
    }

    #[test]
    fn non_finite_miv_probs_are_dropped_not_trusted() {
        let m = m3d();
        let (report, ..) = mixed_report(&m);
        let out = policy(
            &report,
            &m,
            &[0.5, 0.5],
            &[(MivId(0), f32::NAN), (MivId(1), f32::INFINITY)],
        );
        assert!(out.degraded);
        assert!(
            out.faulty_mivs.is_empty(),
            "NaN/Inf must never clear the MIV threshold"
        );
    }

    #[test]
    fn healthy_tie_still_predicts_last_max_tier() {
        // Bit-identity guard: `max_by` keeps the LAST maximal element, so
        // a [0.5, 0.5] tie predicts tier 1 (TOP) exactly as before the
        // total_cmp migration.
        let m = m3d();
        let (report, ..) = mixed_report(&m);
        let out = policy(&report, &m, &[0.5, 0.5], &[]);
        assert!(!out.degraded);
        assert_eq!(out.predicted_tier, Tier::TOP);
        assert_eq!(out.confidence, 0.5);
    }

    #[test]
    fn backup_dictionary_round_trips() {
        let m = m3d();
        let (report, ..) = mixed_report(&m);
        let out = policy(&report, &m, &[0.97, 0.03], &[]);
        let mut dict = BackupDictionary::new();
        dict.record(42, out.pruned.clone());
        assert_eq!(dict.lookup(42).unwrap(), out.pruned.as_slice());
        assert_eq!(dict.lookup(7), None);
        assert!(dict.approx_size_bytes() > 0);
        assert_eq!(dict.len(), 1);
        // Union of final report + backup = original candidates.
        assert_eq!(
            out.report.resolution() + out.pruned.len(),
            report.resolution()
        );
    }
}
