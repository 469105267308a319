//! Diagnosis reports and their quality metrics.
//!
//! A report is a ranked candidate list; the paper evaluates it by
//! *diagnostic resolution* (candidate count), *accuracy* (ground truth
//! present), and *first-hit index* (1-based rank of the first true
//! candidate) — Section II-B.

use m3d_netlist::PinRef;
use m3d_sim::Tdf;

/// One ranked fault candidate with its match-score components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The candidate fault.
    pub fault: Tdf,
    /// Failing tester observations the candidate also fails
    /// (tester-fail/sim-fail).
    pub tfsf: u32,
    /// Failing tester observations the candidate passes
    /// (tester-fail/sim-pass).
    pub tfsp: u32,
    /// Passing tester observations the candidate fails
    /// (tester-pass/sim-fail).
    pub tpsf: u32,
}

impl Candidate {
    /// `true` when the candidate reproduces the tester log exactly.
    pub fn is_exact(&self) -> bool {
        self.tfsp == 0 && self.tpsf == 0
    }
}

/// A ranked diagnosis report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiagnosisReport {
    candidates: Vec<Candidate>,
}

impl DiagnosisReport {
    /// Builds a report from pre-ranked candidates.
    pub fn new(candidates: Vec<Candidate>) -> Self {
        DiagnosisReport { candidates }
    }

    /// The ranked candidates, best first.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Mutable candidate access (the pruning/reordering policy edits
    /// reports in place).
    pub fn candidates_mut(&mut self) -> &mut Vec<Candidate> {
        &mut self.candidates
    }

    /// Diagnostic resolution: the number of candidates.
    pub fn resolution(&self) -> usize {
        self.candidates.len()
    }

    /// Returns `true` if any candidate pinpoints one of the ground-truth
    /// sites (the paper's single-fault accuracy criterion; polarity is not
    /// required to match — diagnosis localizes the defect site).
    pub fn hits_any(&self, truth: &[PinRef]) -> bool {
        self.candidates
            .iter()
            .any(|c| truth.contains(&c.fault.site))
    }

    /// Returns `true` if every ground-truth site appears among the
    /// candidates (the paper's multi-fault accuracy criterion, Table X).
    pub fn hits_all(&self, truth: &[PinRef]) -> bool {
        truth
            .iter()
            .all(|t| self.candidates.iter().any(|c| c.fault.site == *t))
    }

    /// First-hit index: 1-based rank of the first candidate matching a
    /// ground-truth site, or `None` if the report misses.
    pub fn first_hit_index(&self, truth: &[PinRef]) -> Option<usize> {
        self.candidates
            .iter()
            .position(|c| truth.contains(&c.fault.site))
            .map(|i| i + 1)
    }
}

impl FromIterator<Candidate> for DiagnosisReport {
    fn from_iter<T: IntoIterator<Item = Candidate>>(iter: T) -> Self {
        DiagnosisReport::new(iter.into_iter().collect())
    }
}

/// Aggregate quality of a set of reports (one row of Tables V/VII).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReportQuality {
    /// Fraction of reports containing the ground truth.
    pub accuracy: f64,
    /// Mean diagnostic resolution.
    pub mean_resolution: f64,
    /// Standard deviation of resolution.
    pub std_resolution: f64,
    /// Mean first-hit index (over hitting reports).
    pub mean_fhi: f64,
    /// Standard deviation of FHI.
    pub std_fhi: f64,
}

/// Computes aggregate quality over `(report, ground truth)` pairs.
/// `multi_fault` selects the all-faults accuracy criterion.
pub fn report_quality(
    cases: &[(DiagnosisReport, Vec<PinRef>)],
    multi_fault: bool,
) -> ReportQuality {
    let n = cases.len().max(1) as f64;
    let hits = cases
        .iter()
        .filter(|(r, t)| {
            if multi_fault {
                r.hits_all(t)
            } else {
                r.hits_any(t)
            }
        })
        .count() as f64;
    let resolutions: Vec<f64> = cases.iter().map(|(r, _)| r.resolution() as f64).collect();
    let fhis: Vec<f64> = cases
        .iter()
        .filter_map(|(r, t)| r.first_hit_index(t).map(|i| i as f64))
        .collect();
    let (mr, sr) = mean_std(&resolutions);
    let (mf, sf) = mean_std(&fhis);
    ReportQuality {
        accuracy: hits / n,
        mean_resolution: mr,
        std_resolution: sr,
        mean_fhi: mf,
        std_fhi: sf,
    }
}

/// Mean and population standard deviation; `(0, 0)` for empty input.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{GateId, PinRef};
    use m3d_sim::Polarity;

    fn cand(gate: u32, tfsf: u32, tfsp: u32, tpsf: u32) -> Candidate {
        Candidate {
            fault: Tdf::new(PinRef::output(GateId(gate)), Polarity::SlowToRise),
            tfsf,
            tfsp,
            tpsf,
        }
    }

    #[test]
    fn metrics_on_simple_report() {
        let report =
            DiagnosisReport::new(vec![cand(1, 5, 0, 0), cand(2, 5, 0, 0), cand(3, 3, 2, 1)]);
        let truth = vec![PinRef::output(GateId(2))];
        assert_eq!(report.resolution(), 3);
        assert!(report.hits_any(&truth));
        assert_eq!(report.first_hit_index(&truth), Some(2));
        assert!(!report.hits_any(&[PinRef::output(GateId(9))]));
        assert_eq!(report.first_hit_index(&[PinRef::output(GateId(9))]), None);
    }

    #[test]
    fn multi_fault_accuracy_requires_all() {
        let report = DiagnosisReport::new(vec![cand(1, 1, 0, 0), cand(2, 1, 0, 0)]);
        let t1 = vec![PinRef::output(GateId(1)), PinRef::output(GateId(2))];
        let t2 = vec![PinRef::output(GateId(1)), PinRef::output(GateId(5))];
        assert!(report.hits_all(&t1));
        assert!(!report.hits_all(&t2));
        assert!(report.hits_any(&t2));
    }

    #[test]
    fn exactness_and_score() {
        // Exactness reads only the mismatch components of the score.
        assert!(cand(1, 4, 0, 0).is_exact());
        assert!(!cand(1, 4, 1, 0).is_exact());
        assert!(!cand(1, 4, 0, 1).is_exact());
    }

    #[test]
    fn quality_aggregates() {
        let truth = vec![PinRef::output(GateId(1))];
        let good = DiagnosisReport::new(vec![cand(1, 2, 0, 0)]);
        let bad = DiagnosisReport::new(vec![cand(7, 2, 0, 0), cand(8, 1, 0, 0)]);
        let q = report_quality(&[(good, truth.clone()), (bad, truth)], false);
        assert!((q.accuracy - 0.5).abs() < 1e-9);
        assert!((q.mean_resolution - 1.5).abs() < 1e-9);
        assert!((q.mean_fhi - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mean_std_edge_cases() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert!((m - 3.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
    }
}
