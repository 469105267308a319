//! The GNN-based *Classifier* (Section V-C): decides whether a
//! high-confidence Tier-predictor sample is safe to **prune** or should
//! only be **reordered**.
//!
//! Built by network-based deep transfer learning: the pretrained (frozen)
//! GCN trunk of the Tier-predictor extracts features; fresh classification
//! layers are trained on Predicted-Positive samples, with the heavily
//! outnumbered False-Positive class always balanced by dummy-buffer
//! oversampling.

use crate::backtrace::Subgraph;
use crate::models::TierPredictor;
use crate::oversample::balance_with_buffers;
use m3d_gnn::{GcnModel, GraphSample, TrainConfig};

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
    model: GcnModel,
}

impl PruneClassifier {
    /// Trains the Classifier from the Tier-predictor's trunk on
    /// Predicted-Positive training samples.
    ///
    /// `labelled` pairs each subgraph with its true tier; samples whose
    /// Tier-predictor confidence is below `t_p` are excluded (they are
    /// Predicted Negative and handled by reordering in the policy). The
    /// label is `CLASS_PRUNE` when the tier prediction is correct (True
    /// Positive) and `CLASS_REORDER` otherwise (False Positive).
    ///
    /// The training set is balanced with dummy-buffer oversampling before
    /// the new head trains.
    ///
    /// Returns `None` when no sample passes the confidence gate.
    pub fn train(tier: &TierPredictor, labelled: &[(Subgraph, usize)], t_p: f32) -> Option<Self> {
        let mut training: Vec<(Subgraph, usize)> = Vec::new();
        for (sub, true_tier) in labelled {
            if sub.is_empty() {
                continue;
            }
            let p = tier.predict(sub);
            let pred = usize::from(p[1] > p[0]);
            let conf = p[pred];
            if conf < t_p {
                continue;
            }
            let class = if pred == *true_tier {
                CLASS_PRUNE
            } else {
                CLASS_REORDER
            };
            training.push((sub.clone(), class));
        }
        if training.is_empty() {
            return None;
        }
        let synthetic = balance_with_buffers(&training);
        training.extend(synthetic);
        let samples: Vec<GraphSample> = training
            .iter()
            .map(|(sub, class)| GraphSample::graph_level(sub.adj.clone(), sub.x.clone(), *class))
            .collect();
        let mut model = tier.model().transfer(2, Some(HEAD_HIDDEN), SEED);
        model.train(
            &samples,
            &TrainConfig {
                epochs: EPOCHS,
                seed: SEED ^ 0x99,
                label: Some("classifier".to_string()),
                ..TrainConfig::default()
            },
        );
        Some(PruneClassifier { model })
    }

    /// Serializes the trained Classifier to the `m3d-gnn-model v1` text
    /// format (the transferred trunk round-trips via its frozen-layer
    /// count).
    pub fn save_text(&self) -> String {
        self.model.save_text()
    }

    /// Loads a Classifier saved by [`PruneClassifier::save_text`].
    ///
    /// # Errors
    ///
    /// [`crate::Error::LoadModel`] for malformed input, a node-level
    /// model, or a model without a frozen transfer trunk.
    pub fn load_text(text: &str) -> crate::Result<Self> {
        let model = GcnModel::load_text(text)?;
        if model.task() != m3d_gnn::Task::Graph {
            return Err(
                m3d_gnn::LoadModelError::custom("classifiers are graph-level models").into(),
            );
        }
        if model.frozen_layer_count() == 0 {
            return Err(m3d_gnn::LoadModelError::custom(
                "classifiers carry a frozen transfer trunk",
            )
            .into());
        }
        Ok(PruneClassifier { model })
    }

    /// Decision for a subgraph: `(should_prune, p_prune)`.
    pub fn should_prune(&self, sub: &Subgraph) -> (bool, f32) {
        if sub.is_empty() {
            return (false, 0.0);
        }
        let p = self.model.predict_graph(&sub.adj, &sub.x);
        (p[CLASS_PRUNE] >= p[CLASS_REORDER], p[CLASS_PRUNE])
    }

    /// Fraction of labelled cases classified correctly.
    pub fn accuracy(&self, labelled: &[(Subgraph, usize)]) -> f64 {
        if labelled.is_empty() {
            return 0.0;
        }
        let correct = labelled
            .iter()
            .filter(|(sub, class)| {
                let (prune, _) = self.should_prune(sub);
                usize::from(prune) == *class
            })
            .count();
        correct as f64 / labelled.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_samples, DatasetConfig, DesignContext};
    use crate::design::{DesignConfig, TestBench, TestBenchConfig};
    use crate::models::{tier_training_set, ModelTrainConfig};
    use m3d_netlist::BenchmarkProfile;
    use m3d_part::Tier;

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
        let labelled: Vec<(Subgraph, usize)> = samples
            .iter()
            .filter_map(|s| {
                s.fault
                    .tier(&tb)
                    .map(|t: Tier| (s.subgraph.clone(), t.index()))
            })
            .collect();
        let clf = PruneClassifier::train(&tier, &labelled, 0.5)
            .expect("some predicted positives at t_p = 0.5");
        let (decision, p) = clf.should_prune(&samples[0].subgraph);
        assert!((0.0..=1.0).contains(&p));
        let _ = decision;
        // On a mostly-correct Tier-predictor, the classifier should mostly
        // vote prune on its own training inputs.
        let prune_votes = samples
            .iter()
            .filter(|s| clf.should_prune(&s.subgraph).0)
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
        let labelled: Vec<(Subgraph, usize)> = samples
            .iter()
            .filter_map(|s| s.fault.tier(&tb).map(|t| (s.subgraph.clone(), t.index())))
            .collect();
        // Confidence can never exceed 1.0.
        assert!(PruneClassifier::train(&tier, &labelled, 1.1).is_none());
    }
}
