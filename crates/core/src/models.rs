//! The paper's two diagnosis networks: *Tier-predictor* (graph-level) and
//! *MIV-pinpointer* (node-level), Section III-C.

use crate::backtrace::Subgraph;
use crate::dataset::Sample;
use crate::design::TestBench;
use crate::features::N_FEATURES;
use m3d_exec::ExecPool;
use m3d_gnn::{GcnConfig, GcnModel, GraphSample, Matrix, ScoredSample, Task, TrainConfig};
use m3d_part::MivId;

/// Training hyper-parameters shared by both models.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelTrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Weight-init / shuffle seed.
    pub seed: u64,
    /// GCN hidden widths.
    pub hidden: Vec<usize>,
    /// Independent restarts; the run with the best training accuracy wins
    /// (single-sample Adam on small graph datasets is seed-sensitive).
    /// Restarts train concurrently when the driving pool has spare
    /// threads (the framework dispatches both models' restarts at once) —
    /// the winner is identical either way.
    pub restarts: usize,
}

impl Default for ModelTrainConfig {
    fn default() -> Self {
        ModelTrainConfig {
            epochs: 30,
            seed: 0xD1A6,
            hidden: vec![64, 32],
            restarts: 3,
        }
    }
}

/// One model for [`best_of_restarts`] to train.
struct ModelSpec<'a> {
    samples: &'a [GraphSample],
    task: Task,
    n_classes: usize,
    class_weights: Vec<f32>,
    curve_label: &'static str,
}

/// Trains every spec's model `cfg.restarts` times and keeps, per spec, the
/// restart with the best training accuracy, with that restart's readout
/// of each training sample for a graph task (none for a node task).
///
/// All `specs × restarts` jobs are fully independent, so they run in one
/// pool dispatch, the first spec's jobs first; each trains start to
/// finish on one worker. `map_indices` returns in job order, so each
/// model's best-accuracy tie-break (first wins) follows that model's
/// restart order, as a serial loop's would.
fn best_of_restarts(
    specs: &[ModelSpec<'_>],
    cfg: &ModelTrainConfig,
    pool: &ExecPool,
) -> Vec<(GcnModel, Vec<Matrix>)> {
    let restarts = cfg.restarts.max(1);
    let runs = pool.map_indices(specs.len() * restarts, |job| {
        let (spec, r) = (&specs[job / restarts], job % restarts);
        let seed = cfg.seed.wrapping_add(0x9E37 * r as u64);
        let mut model = GcnModel::new(&GcnConfig {
            input_dim: N_FEATURES,
            hidden: cfg.hidden.clone(),
            head_hidden: None,
            n_classes: spec.n_classes,
            task: spec.task,
            seed,
        });
        // Restart 0 keeps the bare label so the primary curve has a
        // stable name; later restarts get a `/r{n}` suffix.
        let label = if r == 0 {
            spec.curve_label.to_string()
        } else {
            format!("{}/r{r}", spec.curve_label)
        };
        model.train(
            spec.samples,
            &TrainConfig {
                epochs: cfg.epochs,
                seed: seed ^ 0xA5A5,
                class_weights: Some(spec.class_weights.clone()),
                label: Some(label),
            },
        );
        let (acc, readouts) = weighted_accuracy(&model, spec.samples, &spec.class_weights);
        (acc, (model, readouts))
    });
    let mut runs = runs.into_iter();
    let mut models = Vec::with_capacity(specs.len());
    for _ in specs {
        let mut best: Option<(f64, (GcnModel, Vec<Matrix>))> = None;
        for (acc, trained) in runs.by_ref().take(restarts) {
            if best.as_ref().is_none_or(|(b, _)| acc > *b) {
                best = Some((acc, trained));
            }
        }
        models.push(best.expect("restarts >= 1").1);
    }
    models
}

/// Trains the Tier-predictor and, when `miv_samples` is given, the
/// MIV-pinpointer: both models' restarts share one dispatch on `pool`.
/// Each model is the one [`TierPredictor::train`] or
/// [`MivPinpointer::train`] would return. Also returns the
/// Tier-predictor's readout of each of `tier_samples`.
///
/// # Panics
///
/// Panics if `tier_samples` or a given `miv_samples` is empty.
pub(crate) fn train_tier_and_miv(
    tier_samples: &[GraphSample],
    miv_samples: Option<&[GraphSample]>,
    cfg: &ModelTrainConfig,
    pool: &ExecPool,
) -> (TierPredictor, Vec<Matrix>, Option<MivPinpointer>) {
    let mut specs = vec![TierPredictor::spec(tier_samples, 2)];
    specs.extend(miv_samples.map(MivPinpointer::spec));
    let mut models = best_of_restarts(&specs, cfg, pool).into_iter();
    let (model, readouts) = models.next().expect("one model per spec");
    let miv = models.next().map(|(model, _)| MivPinpointer { model });
    (TierPredictor { model }, readouts, miv)
}

/// Class-weight-adjusted accuracy, so restart selection cannot favour a
/// majority-class collapse, and for a graph task the readout of each
/// sample it computed on the way.
fn weighted_accuracy(
    model: &GcnModel,
    samples: &[GraphSample],
    weights: &[f32],
) -> (f64, Vec<Matrix>) {
    let mut correct = 0f64;
    let mut total = 0f64;
    let mut readouts = Vec::new();
    for s in samples {
        let readout = model.readout(&s.adj, &s.x);
        let logits = model.head().logits(&readout);
        for &(r, c) in &s.targets {
            let w = f64::from(weights.get(c).copied().unwrap_or(1.0));
            total += w;
            if m3d_gnn::argmax(logits.row(r)) == c {
                correct += w;
            }
        }
        if model.task() == Task::Graph {
            readouts.push(readout);
        }
    }
    (correct / total.max(1e-12), readouts)
}

/// Converts samples to Tier-predictor [`GraphSample`]s (skipping MIV
/// defects and empty subgraphs).
pub fn tier_training_set(bench: &TestBench, samples: &[Sample]) -> Vec<GraphSample> {
    samples
        .iter()
        .filter_map(|s| s.tier_sample(bench))
        .collect()
}

/// Converts samples to MIV-pinpointer [`GraphSample`]s (skipping
/// subgraphs without MIV nodes).
pub fn miv_training_set(samples: &[Sample]) -> Vec<GraphSample> {
    samples.iter().filter_map(Sample::miv_sample).collect()
}

/// The graph-level faulty-tier classifier.
#[derive(Debug)]
pub struct TierPredictor {
    model: GcnModel,
}

impl TierPredictor {
    /// Trains on graph-level samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train(samples: &[GraphSample], cfg: &ModelTrainConfig) -> Self {
        Self::train_multi(samples, 2, cfg)
    }

    /// Trains an `n_tiers`-way tier classifier (the paper's stated
    /// extension: "the dimension of the graph representation vector
    /// \[extends\] to the number of tiers in the CUDs").
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, `n_tiers < 2`, or a label is out of
    /// range.
    pub fn train_multi(samples: &[GraphSample], n_tiers: usize, cfg: &ModelTrainConfig) -> Self {
        let spec = Self::spec(samples, n_tiers);
        let mut models = best_of_restarts(&[spec], cfg, &ExecPool::default());
        TierPredictor {
            model: models.pop().expect("one model per spec").0,
        }
    }

    /// The training spec of an `n_tiers`-way Tier-predictor.
    fn spec(samples: &[GraphSample], n_tiers: usize) -> ModelSpec<'_> {
        assert!(!samples.is_empty(), "need training samples");
        assert!(n_tiers >= 2, "need at least two tiers");
        // Balanced class weights: tier labels skew toward the bottom tier
        // (I/O ports are pinned there), and unweighted training can
        // collapse to the majority class on weak-signal datasets.
        let mut counts = vec![0f32; n_tiers];
        for s in samples {
            assert!(s.targets[0].1 < n_tiers, "tier label out of range");
            counts[s.targets[0].1] += 1.0;
        }
        let total: f32 = counts.iter().sum();
        let k = n_tiers as f32;
        let weights: Vec<f32> = counts
            .iter()
            .map(|&c| if c > 0.0 { total / (k * c) } else { 1.0 })
            .collect();
        ModelSpec {
            samples,
            task: Task::Graph,
            n_classes: n_tiers,
            class_weights: weights,
            curve_label: "tier-predictor",
        }
    }

    /// Number of tiers the model classifies.
    pub fn n_tiers(&self) -> usize {
        self.model.n_classes()
    }

    /// Per-tier probabilities for a subgraph (length [`Self::n_tiers`]).
    ///
    /// # Panics
    ///
    /// Panics if the subgraph is empty.
    pub fn predict_probs(&self, sub: &Subgraph) -> Vec<f32> {
        assert!(!sub.is_empty(), "cannot predict on an empty subgraph");
        self.model.predict_graph(&sub.adj, &sub.x)
    }

    /// Serializes the trained model to the `m3d-gnn-model v1` text format.
    pub fn save_text(&self) -> String {
        self.model.save_text()
    }

    /// Loads a model saved by [`TierPredictor::save_text`].
    ///
    /// # Errors
    ///
    /// [`crate::Error::LoadModel`] for malformed input or a node-level
    /// model.
    pub fn load_text(text: &str) -> crate::Result<Self> {
        let model = GcnModel::load_text(text)?;
        if model.task() != Task::Graph {
            return Err(
                m3d_gnn::LoadModelError::custom("tier predictors are graph-level models").into(),
            );
        }
        Ok(TierPredictor { model })
    }

    /// The graph representation `[p_bottom, p_top]` for a subgraph (class
    /// index = tier index).
    ///
    /// # Panics
    ///
    /// Panics if the subgraph is empty.
    pub fn predict(&self, sub: &Subgraph) -> [f32; 2] {
        self.predict_readout(&self.readout(sub))
    }

    /// The GCN trunk's mean ‖ max readout of a subgraph: the input of
    /// this model's head and of the Classifier's.
    ///
    /// # Panics
    ///
    /// Panics if the subgraph is empty.
    pub fn readout(&self, sub: &Subgraph) -> Matrix {
        assert!(!sub.is_empty(), "cannot predict on an empty subgraph");
        self.model.readout(&sub.adj, &sub.x)
    }

    /// [`TierPredictor::predict`] from the subgraph's readout.
    pub fn predict_readout(&self, readout: &Matrix) -> [f32; 2] {
        let p = self.model.head().predict(readout);
        [p[0], p[1]]
    }

    /// Accuracy over graph-level samples.
    pub fn accuracy(&self, samples: &[GraphSample]) -> f64 {
        self.model.accuracy(samples)
    }

    /// One pass over graph-level samples: each sample's readout, and its
    /// confidence (the maximum class probability) paired with prediction
    /// correctness, for PR-curve threshold derivation.
    pub fn scored(&self, samples: &[GraphSample]) -> (Vec<Matrix>, Vec<ScoredSample>) {
        let readouts: Vec<Matrix> = samples
            .iter()
            .map(|s| self.model.readout(&s.adj, &s.x))
            .collect();
        let scores = self.scores(&readouts, samples);
        (readouts, scores)
    }

    /// [`TierPredictor::scored`]'s scores from the samples' readouts.
    pub(crate) fn scores(&self, readouts: &[Matrix], samples: &[GraphSample]) -> Vec<ScoredSample> {
        readouts
            .iter()
            .zip(samples)
            .map(|(readout, s)| {
                let p = self.predict_readout(readout);
                let pred = usize::from(p[1] > p[0]);
                ScoredSample {
                    score: p[pred],
                    correct: pred == s.targets[0].1,
                }
            })
            .collect()
    }

    /// The underlying model (its readouts feed the Classifier).
    pub fn model(&self) -> &GcnModel {
        &self.model
    }
}

/// The node-level defective-via classifier.
#[derive(Debug)]
pub struct MivPinpointer {
    model: GcnModel,
}

impl MivPinpointer {
    /// Trains on node-level samples; class weights are derived from the
    /// label histogram (faulty vias are rare).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train(samples: &[GraphSample], cfg: &ModelTrainConfig) -> Self {
        let mut models = best_of_restarts(&[Self::spec(samples)], cfg, &ExecPool::default());
        MivPinpointer {
            model: models.pop().expect("one model per spec").0,
        }
    }

    /// The MIV-pinpointer's training spec: the positive class weight is
    /// the negative-to-positive label ratio, clamped to `1..=10`.
    fn spec(samples: &[GraphSample]) -> ModelSpec<'_> {
        assert!(!samples.is_empty(), "need training samples");
        let mut pos = 0f32;
        let mut neg = 0f32;
        for s in samples {
            for &(_, c) in &s.targets {
                if c == 1 {
                    pos += 1.0;
                } else {
                    neg += 1.0;
                }
            }
        }
        let w_pos = if pos > 0.0 {
            (neg / pos).clamp(1.0, 10.0)
        } else {
            1.0
        };
        ModelSpec {
            samples,
            task: Task::Node,
            n_classes: 2,
            class_weights: vec![1.0, w_pos],
            curve_label: "miv-pinpointer",
        }
    }

    /// Serializes the trained model to the `m3d-gnn-model v1` text format.
    pub fn save_text(&self) -> String {
        self.model.save_text()
    }

    /// Loads a model saved by [`MivPinpointer::save_text`].
    ///
    /// # Errors
    ///
    /// [`crate::Error::LoadModel`] for malformed input or a graph-level
    /// model.
    pub fn load_text(text: &str) -> crate::Result<Self> {
        let model = GcnModel::load_text(text)?;
        if model.task() != Task::Node {
            return Err(
                m3d_gnn::LoadModelError::custom("MIV pinpointers are node-level models").into(),
            );
        }
        Ok(MivPinpointer { model })
    }

    /// Per-via fault probabilities for the subgraph's MIV nodes.
    pub fn predict(&self, sub: &Subgraph) -> Vec<(MivId, f32)> {
        if sub.is_empty() || sub.miv_rows.is_empty() {
            return Vec::new();
        }
        let probs = self.model.predict_nodes(&sub.adj, &sub.x);
        // Orphan MIV rows (pointing past the node set — a corrupted
        // subgraph) are dropped rather than indexed out of bounds.
        let orphans = sub
            .miv_rows
            .iter()
            .filter(|&&(row, _)| row >= probs.rows())
            .count();
        if orphans > 0 {
            m3d_obs::counter!("models.dropped.miv_row_out_of_range", orphans as u64);
            m3d_obs::warn!(
                "miv-pinpointer: dropping {orphans} MIV rows outside the \
                 {}-node subgraph",
                probs.rows()
            );
        }
        sub.miv_rows
            .iter()
            .filter(|&&(row, _)| row < probs.rows())
            .map(|&(row, miv)| (miv, probs.get(row, 1)))
            .collect()
    }

    /// Accuracy over node-level samples.
    pub fn accuracy(&self, samples: &[GraphSample]) -> f64 {
        self.model.accuracy(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_samples, DatasetConfig, DesignContext};
    use crate::design::{DesignConfig, TestBenchConfig};
    use m3d_netlist::BenchmarkProfile;

    fn quick_bench() -> TestBench {
        TestBench::build(&TestBenchConfig {
            scale: 0.002,
            ..TestBenchConfig::quick(BenchmarkProfile::AesLike, DesignConfig::Syn1)
        })
    }

    #[test]
    fn tier_predictor_learns_tier() {
        let tb = quick_bench();
        let ctx = DesignContext::new(&tb);
        let train = generate_samples(&ctx, &DatasetConfig::single(60, 5));
        let test = generate_samples(&ctx, &DatasetConfig::single(20, 99));
        let tset = tier_training_set(&tb, &train);
        let predictor = TierPredictor::train(&tset, &ModelTrainConfig::default());
        let train_acc = predictor.accuracy(&tset);
        // ~78–85% at this micro scale; the paper reports "up to 90%" at
        // full scale, which the 0.004-scale probe reproduces.
        assert!(train_acc > 0.7, "train accuracy {train_acc}");
        let test_set = tier_training_set(&tb, &test);
        let test_acc = predictor.accuracy(&test_set);
        assert!(test_acc > 0.7, "test accuracy {test_acc}");
        // Probabilities are a distribution.
        let p = predictor.predict(&test[0].subgraph);
        assert!((p[0] + p[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn confidence_scores_align_with_accuracy() {
        let tb = quick_bench();
        let ctx = DesignContext::new(&tb);
        let train = generate_samples(&ctx, &DatasetConfig::single(40, 7));
        let tset = tier_training_set(&tb, &train);
        let predictor = TierPredictor::train(&tset, &ModelTrainConfig::default());
        let scores = predictor.scored(&tset).1;
        let frac_correct = scores.iter().filter(|s| s.correct).count() as f64 / scores.len() as f64;
        assert!((frac_correct - predictor.accuracy(&tset)).abs() < 1e-9);
        assert!(scores.iter().all(|s| s.score >= 0.5 - 1e-6));
    }

    #[test]
    fn miv_pinpointer_flags_faulty_vias() {
        let tb = quick_bench();
        let ctx = DesignContext::new(&tb);
        let cfg = DatasetConfig {
            miv_fraction: 0.5,
            ..DatasetConfig::single(60, 11)
        };
        let train = generate_samples(&ctx, &cfg);
        let mset = miv_training_set(&train);
        assert!(!mset.is_empty());
        let pin = MivPinpointer::train(&mset, &ModelTrainConfig::default());
        // Class-weighted training trades raw node accuracy for minority
        // recall, so assert ranking quality instead: faulty vias must score
        // above healthy ones on average.
        let mut faulty_p = Vec::new();
        let mut healthy_p = Vec::new();
        for s in &train {
            let faulty = s.fault.faulty_mivs();
            for (miv, p) in pin.predict(&s.subgraph) {
                assert!((0.0..=1.0).contains(&p));
                if faulty.contains(&miv) {
                    faulty_p.push(f64::from(p));
                } else {
                    healthy_p.push(f64::from(p));
                }
            }
        }
        assert!(!faulty_p.is_empty() && !healthy_p.is_empty());
        let mf = faulty_p.iter().sum::<f64>() / faulty_p.len() as f64;
        let mh = healthy_p.iter().sum::<f64>() / healthy_p.len() as f64;
        assert!(
            mf > mh,
            "faulty vias must rank above healthy ({mf:.3} vs {mh:.3})"
        );
        // Predictions cover exactly the MIV rows.
        for s in train.iter().take(5) {
            let preds = pin.predict(&s.subgraph);
            assert_eq!(preds.len(), s.subgraph.miv_rows.len());
        }
    }
}
