//! The GNN-based *Classifier* (Section V-C): decides whether a
//! high-confidence Tier-predictor sample is safe to **prune** or should
//! only be **reordered**.
//!
//! Built by network-based deep transfer learning: the pretrained GCN
//! trunk of the Tier-predictor stays frozen and extracts features, and
//! fresh classification layers learn on Predicted-Positive samples, with
//! the heavily outnumbered False-Positive class always balanced by
//! dummy-buffer oversampling. A frozen trunk's mean ‖ max readout of a
//! subgraph is a fixed vector, so the Classifier is a [`DenseHead`] over
//! the Tier-predictor's readout: it keeps no trunk of its own.

use crate::models::TierPredictor;
use crate::oversample::balance_with_buffers;
use m3d_gnn::{DenseHead, GraphSample, Matrix, ScoredSample, TrainConfig};

/// Classifier output class: pruning is safe (the tier prediction is
/// trustworthy).
pub const CLASS_PRUNE: usize = 1;
/// Classifier output class: only reorder (the tier prediction may be a
/// False Positive).
pub const CLASS_REORDER: usize = 0;

/// Training epochs for the Classifier's new head.
const EPOCHS: usize = 25;
/// Width of the new head's hidden layer.
const HEAD_HIDDEN: usize = 16;
/// Head-initialization seed (the shuffle seed derives from it).
const SEED: u64 = 0xC1A5;

/// The trained prune/reorder Classifier.
#[derive(Debug)]
pub struct PruneClassifier {
    head: DenseHead,
}

impl PruneClassifier {
    /// Trains the Classifier's head on the Tier-predictor's readouts of
    /// its Predicted-Positive training samples.
    ///
    /// `readouts[i]` and `scores[i]` are `tier`'s readout and scored
    /// prediction of `samples[i]` (see [`TierPredictor::scored`]).
    /// Samples whose confidence is below `t_p` are excluded (they are
    /// Predicted Negative and handled by reordering in the policy). The
    /// label is `CLASS_PRUNE` when the tier prediction is correct (True
    /// Positive) and `CLASS_REORDER` otherwise (False Positive).
    ///
    /// The training set is balanced with dummy-buffer oversampling before
    /// the head trains; only the synthetic copies need a trunk pass.
    ///
    /// Returns `None` when no sample passes the confidence gate.
    ///
    /// # Panics
    ///
    /// Panics if `samples`, `readouts` and `scores` differ in length.
    pub fn train(
        tier: &TierPredictor,
        samples: &[GraphSample],
        readouts: &[Matrix],
        scores: &[ScoredSample],
        t_p: f32,
    ) -> Option<Self> {
        assert_eq!(samples.len(), readouts.len(), "one readout per sample");
        assert_eq!(samples.len(), scores.len(), "one score per sample");
        let mut training: Vec<(Matrix, usize)> = Vec::new();
        let mut graphs = Vec::new();
        for ((sample, readout), scored) in samples.iter().zip(readouts).zip(scores) {
            if scored.score < t_p {
                continue;
            }
            let class = if scored.correct {
                CLASS_PRUNE
            } else {
                CLASS_REORDER
            };
            training.push((readout.clone(), class));
            graphs.push((&sample.adj, &sample.x, class));
        }
        if training.is_empty() {
            return None;
        }
        let model = tier.model();
        training.extend(
            balance_with_buffers(&graphs)
                .into_iter()
                .map(|(adj, x, class)| (model.readout(&adj, &x), class)),
        );
        let mut head = DenseHead::new(model.head().in_dim(), Some(HEAD_HIDDEN), 2, SEED);
        head.train(
            &training,
            &TrainConfig {
                epochs: EPOCHS,
                seed: SEED ^ 0x99,
                label: Some("classifier".to_string()),
                ..TrainConfig::default()
            },
        );
        Some(PruneClassifier { head })
    }

    /// Serializes the trained head as the `head` section of the
    /// `m3d-gnn-model v1` text format.
    pub fn save_text(&self) -> String {
        self.head.save_text()
    }

    /// Loads a Classifier saved by [`PruneClassifier::save_text`] over
    /// `tier`'s readout.
    ///
    /// # Errors
    ///
    /// [`crate::Error::LoadModel`] for a malformed head, or one that does
    /// not map `tier`'s readout to two classes.
    pub fn load_text(text: &str, tier: &TierPredictor) -> crate::Result<Self> {
        let head = DenseHead::load_text(text)?;
        if head.in_dim() != tier.model().head().in_dim() || head.n_classes() != 2 {
            let msg = "classifiers map the tier-predictor's readout to two classes";
            return Err(m3d_gnn::LoadModelError::custom(msg).into());
        }
        Ok(PruneClassifier { head })
    }

    /// Decision for a subgraph from its Tier-predictor readout (see
    /// [`TierPredictor::readout`]): `(should_prune, p_prune)`.
    pub fn should_prune(&self, readout: &Matrix) -> (bool, f32) {
        let p = self.head.predict(readout);
        (p[CLASS_PRUNE] >= p[CLASS_REORDER], p[CLASS_PRUNE])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_samples, DatasetConfig, DesignContext};
    use crate::design::{DesignConfig, TestBench, TestBenchConfig};
    use crate::models::{tier_training_set, ModelTrainConfig};
    use m3d_netlist::BenchmarkProfile;

    fn setup() -> (TestBench, Vec<crate::dataset::Sample>) {
        let tb = TestBench::build(&TestBenchConfig {
            scale: 0.002,
            ..TestBenchConfig::quick(BenchmarkProfile::AesLike, DesignConfig::Syn1)
        });
        let samples = {
            let ctx = DesignContext::new(&tb);
            generate_samples(&ctx, &DatasetConfig::single(50, 13))
        };
        (tb, samples)
    }

    #[test]
    fn classifier_trains_and_decides() {
        let (tb, samples) = setup();
        let tset = tier_training_set(&tb, &samples);
        let tier = TierPredictor::train(&tset, &ModelTrainConfig::default());
        let (readouts, scores) = tier.scored(&tset);
        let clf = PruneClassifier::train(&tier, &tset, &readouts, &scores, 0.5)
            .expect("some predicted positives at t_p = 0.5");
        let (_, p) = clf.should_prune(&tier.readout(&samples[0].subgraph));
        assert!((0.0..=1.0).contains(&p));
        // On a mostly-correct Tier-predictor, the classifier should mostly
        // vote prune on its own training inputs.
        let prune_votes = samples
            .iter()
            .filter(|s| clf.should_prune(&tier.readout(&s.subgraph)).0)
            .count();
        assert!(
            prune_votes * 3 >= samples.len(),
            "{prune_votes}/{} prune votes",
            samples.len()
        );
    }

    #[test]
    fn impossible_gate_returns_none() {
        let (tb, samples) = setup();
        let tset = tier_training_set(&tb, &samples);
        let tier = TierPredictor::train(&tset, &ModelTrainConfig::default());
        let (readouts, scores) = tier.scored(&tset);
        // Confidence can never exceed 1.0.
        assert!(PruneClassifier::train(&tier, &tset, &readouts, &scores, 1.1).is_none());
        // Inputs of different lengths are rejected, not cut to the shortest.
        let short = || PruneClassifier::train(&tier, &tset, &readouts, &scores[1..], 0.5);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(short)).is_err());
    }
}
