//! Precision–recall curves and the paper's confidence-threshold rule.
//!
//! The candidate-pruning policy (Section V-B) derives its confidence
//! threshold `T_P` from the PR curve of the *training* set: the minimum
//! classification threshold at which precision reaches a target
//! (≥ 99% in the paper), so that pruning keeps the accuracy loss below 1%.

/// One scored sample: the classifier's confidence and whether the
/// prediction was actually correct (Actual Positive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredSample {
    /// Confidence of the predicted class (max class probability).
    pub score: f32,
    /// Whether the prediction matched ground truth.
    pub correct: bool,
}

/// One PR-curve point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrPoint {
    /// Classification threshold.
    pub threshold: f32,
    /// Precision at the threshold.
    pub precision: f64,
    /// Recall at the threshold.
    pub recall: f64,
}

/// A precision–recall curve over classification thresholds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PrCurve {
    points: Vec<PrPoint>,
}

impl PrCurve {
    /// Builds the curve by sweeping the threshold over every distinct score
    /// in `samples` (plus 0 and 1).
    ///
    /// Per the paper's confusion matrix (Table IV): at threshold `t`, a
    /// sample is *Predicted Positive* iff `score >= t`; it is *Actual
    /// Positive* iff the prediction was correct. Precision =
    /// TP / (TP + FP), Recall = TP / (TP + FN).
    pub fn from_samples(samples: &[ScoredSample]) -> Self {
        let mut thresholds: Vec<f32> = samples.iter().map(|s| s.score).collect();
        thresholds.push(0.0);
        thresholds.push(1.0);
        thresholds.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        thresholds.dedup();
        let actual_pos = samples.iter().filter(|s| s.correct).count() as f64;
        let points = thresholds
            .into_iter()
            .map(|t| {
                let tp = samples.iter().filter(|s| s.correct && s.score >= t).count() as f64;
                let pp = samples.iter().filter(|s| s.score >= t).count() as f64;
                PrPoint {
                    threshold: t,
                    precision: if pp > 0.0 { tp / pp } else { 1.0 },
                    recall: if actual_pos > 0.0 {
                        tp / actual_pos
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        PrCurve { points }
    }

    /// The curve points, by ascending threshold.
    pub fn points(&self) -> &[PrPoint] {
        &self.points
    }

    /// The paper's `T_P` rule: the minimum threshold whose precision is at
    /// least `min_precision`, among thresholds with a Predicted Positive
    /// (one above every score predicts nothing, so its conventional
    /// precision of 1.0 reaches no target). Returns `None` if none does
    /// (callers then fall back to reorder-only).
    pub fn min_threshold_for_precision(&self, min_precision: f64) -> Option<f32> {
        // Exactly the points that predict nothing read precision 1.0 at
        // recall 0.0 (any True Positive lifts recall above 0).
        self.points
            .iter()
            .find(|p| !(p.precision == 1.0 && p.recall == 0.0) && p.precision >= min_precision)
            .map(|p| p.threshold)
    }

    /// Area under the PR curve (trapezoidal over recall, right-to-left).
    pub fn auc(&self) -> f64 {
        // Points are ascending in threshold ⇒ descending in recall.
        let mut auc = 0.0;
        for w in self.points.windows(2) {
            let dr = w[0].recall - w[1].recall;
            auc += dr * (w[0].precision + w[1].precision) / 2.0;
        }
        auc.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(score: f32, correct: bool) -> ScoredSample {
        ScoredSample { score, correct }
    }

    #[test]
    fn precision_increases_with_threshold_on_separable_data() {
        let samples = vec![
            s(0.95, true),
            s(0.9, true),
            s(0.85, true),
            s(0.6, false),
            s(0.55, true),
            s(0.5, false),
        ];
        let curve = PrCurve::from_samples(&samples);
        let p_low = curve.points().first().unwrap().precision;
        let p_high = curve
            .points()
            .iter()
            .find(|p| p.threshold >= 0.8)
            .unwrap()
            .precision;
        assert!(p_high > p_low);
        assert_eq!(p_high, 1.0);
    }

    #[test]
    fn recall_decreases_with_threshold() {
        let samples = vec![s(0.9, true), s(0.7, true), s(0.3, true)];
        let curve = PrCurve::from_samples(&samples);
        let recalls: Vec<f64> = curve.points().iter().map(|p| p.recall).collect();
        assert!(recalls.windows(2).all(|w| w[0] >= w[1]), "{recalls:?}");
    }

    #[test]
    fn tp_threshold_rule() {
        let samples = vec![
            s(0.99, true),
            s(0.95, true),
            s(0.80, false),
            s(0.70, true),
            s(0.60, false),
        ];
        let curve = PrCurve::from_samples(&samples);
        let t = curve.min_threshold_for_precision(1.0).unwrap();
        // Only at >= 0.95 are all predicted positives correct.
        assert!(t > 0.80 && t <= 0.95, "t = {t}");
        assert!(curve.min_threshold_for_precision(0.0).is_some());
    }

    #[test]
    fn impossible_precision_returns_none() {
        // No sample scores 1.0: the 1.0 point predicts nothing, so its
        // conventional precision of 1.0 reaches no target.
        let curve = PrCurve::from_samples(&[s(0.9, false), s(0.8, true), s(0.7, true)]);
        assert_eq!(curve.points().last().unwrap().precision, 1.0);
        assert_eq!(curve.min_threshold_for_precision(0.99), None);
        assert_eq!(curve.min_threshold_for_precision(0.6), Some(0.0));
        // A score of exactly 1.0 makes the 1.0 point a real one.
        let curve = PrCurve::from_samples(&[s(1.0, true), s(0.8, false)]);
        assert_eq!(curve.min_threshold_for_precision(0.99), Some(1.0));
    }

    #[test]
    fn auc_perfect_classifier_is_one() {
        let samples = vec![s(0.9, true), s(0.8, true), s(0.2, false)];
        let curve = PrCurve::from_samples(&samples);
        assert!((curve.auc() - 1.0).abs() < 1e-9, "{}", curve.auc());
    }
}
