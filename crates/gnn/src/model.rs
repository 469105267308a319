//! The GCN model: a stack of graph-convolution layers with ReLU, a
//! mean ‖ max readout for graph-level tasks, and a [`DenseHead`] —
//! trained with Adam on softmax cross-entropy.
//!
//! This is the model class behind all three of the paper's networks:
//!
//! - *Tier-predictor*: `Task::Graph` (mean pool → `[p_top, p_bottom]`),
//! - *MIV-pinpointer*: `Task::Node` (per-node 2-class logits, masked to
//!   MIV nodes),
//! - *Classifier*: a [`DenseHead`] trained on the Tier-predictor's
//!   readouts — the frozen pretrained GCN trunk feeding fresh trainable
//!   classification layers (network-based deep transfer learning).

use crate::adam::AdamState;
use crate::graph::NormAdj;
use crate::head::DenseHead;
use crate::layers::{relu_backward, GcnLayer};
use crate::loss::{argmax, cross_entropy, softmax_row};
use crate::matrix::Matrix;
use crate::workspace::{Grads, HeadWorkspace, Workspace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::OnceLock;

/// What the model predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// One label per graph (mean-pooled representation).
    Graph,
    /// One label per (masked) node.
    Node,
}

/// Model architecture configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GcnConfig {
    /// Input feature width.
    pub input_dim: usize,
    /// GCN layer widths.
    pub hidden: Vec<usize>,
    /// Optional extra dense layer width in the head.
    pub head_hidden: Option<usize>,
    /// Number of output classes.
    pub n_classes: usize,
    /// Graph- or node-level prediction.
    pub task: Task,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl GcnConfig {
    /// A reasonable two-layer default for `input_dim` features and
    /// two-class graph prediction.
    pub fn two_layer(input_dim: usize, task: Task) -> Self {
        GcnConfig {
            input_dim,
            hidden: vec![32, 16],
            head_hidden: None,
            n_classes: 2,
            task,
            seed: 0xC0FFEE,
        }
    }
}

/// One training/evaluation sample: a normalized graph, node features, and
/// `(row, class)` targets (graph-level samples use the single pooled row 0).
///
/// The sample lazily caches `Â·x` — the layer-1 aggregation, constant
/// across every epoch that revisits the sample — so training performs one
/// spmm per sample instead of one per epoch. The cache is never
/// invalidated: `adj` and `x` are treated as immutable after construction
/// (mutate them only by building a fresh sample).
#[derive(Debug, Clone)]
pub struct GraphSample {
    /// Normalized adjacency.
    pub adj: NormAdj,
    /// Node features (`n × input_dim`).
    pub x: Matrix,
    /// Supervision targets.
    pub targets: Vec<(usize, usize)>,
    /// Lazily-computed `Â·x` (layer-1 aggregation cache).
    ax1: OnceLock<Matrix>,
}

impl PartialEq for GraphSample {
    /// Equality over the sample's data; the derived `ax1` cache is a pure
    /// function of `adj` and `x` and does not participate.
    fn eq(&self, other: &Self) -> bool {
        self.adj == other.adj && self.x == other.x && self.targets == other.targets
    }
}

impl GraphSample {
    /// Builds a sample; the `Â·x` cache starts empty.
    pub fn new(adj: NormAdj, x: Matrix, targets: Vec<(usize, usize)>) -> Self {
        GraphSample {
            adj,
            x,
            targets,
            ax1: OnceLock::new(),
        }
    }

    /// Graph-level sample with a single label.
    pub fn graph_level(adj: NormAdj, x: Matrix, label: usize) -> Self {
        GraphSample::new(adj, x, vec![(0, label)])
    }

    /// `Â·x`, computed on first use and cached for the sample's lifetime
    /// (thread-safe; concurrent first calls race benignly on identical
    /// values).
    pub fn ax1(&self) -> &Matrix {
        self.ax1.get_or_init(|| {
            let mut ax = Matrix::default();
            self.adj.spmm_into(&self.x, &mut ax);
            ax
        })
    }
}

/// Training-loop configuration (Adam's hyper-parameters are constants).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Sample-shuffling seed.
    pub seed: u64,
    /// Optional per-class loss weights (imbalance correction).
    pub class_weights: Option<Vec<f32>>,
    /// Observability label: when set, every epoch's mean loss and wall
    /// time is recorded as a training curve under this name in the
    /// `m3d-obs` registry (and hence in run reports).
    pub label: Option<String>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            seed: 1,
            class_weights: None,
            label: None,
        }
    }
}

/// The GCN model.
pub struct GcnModel {
    task: Task,
    pub(crate) gcn: Vec<GcnLayer>,
    /// Adam state per GCN layer: `(weights, bias)`.
    states: Vec<(AdamState, AdamState)>,
    pub(crate) head: DenseHead,
}

/// One reference pass through the GCN stack and readout.
struct Forward {
    /// Cached `Â x` per GCN layer.
    ax: Vec<Matrix>,
    /// Cached pre-activations per GCN layer.
    pre: Vec<Matrix>,
    /// Winning row per feature for the max half of the graph readout.
    max_arg: Vec<usize>,
    /// The head's input (see [`GcnModel::readout`]).
    readout: Matrix,
}

/// The epoch loop every trainer runs: `cfg.epochs` passes over
/// `0..n` in one seeded shuffle stream, `step(i)` taking one gradient
/// step on sample `i` and returning its loss. Returns the mean loss of
/// each epoch, records each epoch's curve point under `cfg.label`, and
/// runs inside a `gnn.train` span with its kernel FLOPs counted.
pub(crate) fn run_epochs(
    n: usize,
    cfg: &TrainConfig,
    mut step: impl FnMut(usize) -> f64,
) -> Vec<f64> {
    let _span = m3d_obs::span!("gnn.train");
    let flops_start = crate::kernels::kernel_flops();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let t0 = std::time::Instant::now();
        order.shuffle(&mut rng);
        let mut total = 0.0;
        for &i in &order {
            total += step(i);
        }
        let loss = total / n.max(1) as f64;
        losses.push(loss);
        if let Some(label) = &cfg.label {
            m3d_obs::registry::record_epoch(label, epoch, loss, None, t0.elapsed());
            m3d_obs::trace!("{label} epoch {epoch}: loss {loss:.6}");
        }
    }
    // Kernel work attributable to this training run (obsctl derives
    // effective GFLOP/s from this counter over the gnn.train span).
    let flops = crate::kernels::kernel_flops() - flops_start;
    m3d_obs::counter!("gnn.kernel.flops.train", flops);
    losses
}

impl GcnModel {
    /// Builds a model from `cfg` with Xavier-initialized parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.hidden` is empty or `n_classes == 0`.
    pub fn new(cfg: &GcnConfig) -> Self {
        assert!(!cfg.hidden.is_empty(), "need at least one GCN layer");
        assert!(cfg.n_classes > 0, "need at least one class");
        let mut gcn = Vec::new();
        let mut d = cfg.input_dim;
        for (i, &h) in cfg.hidden.iter().enumerate() {
            gcn.push(GcnLayer::new(d, h, cfg.seed.wrapping_add(i as u64)));
            d = h;
        }
        let head_in_dim = match cfg.task {
            Task::Graph => 2 * d, // mean ‖ max readout
            Task::Node => d,
        };
        let head = DenseHead::new(
            head_in_dim,
            cfg.head_hidden,
            cfg.n_classes,
            cfg.seed ^ 0x5EED,
        );
        Self::from_parts(cfg.task, gcn, head)
    }

    /// The task this model was built for.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Output class count.
    pub fn n_classes(&self) -> usize {
        self.head.n_classes()
    }

    /// The dense head the readout feeds.
    pub fn head(&self) -> &DenseHead {
        &self.head
    }

    /// The GCN stack and readout on the allocating layer passes, with the
    /// caches the reference backward pass needs.
    fn forward(&self, adj: &NormAdj, x: &Matrix) -> Forward {
        let mut ax_cache = Vec::with_capacity(self.gcn.len());
        let mut pre_cache = Vec::with_capacity(self.gcn.len());
        let mut h = Matrix::default();
        for (l, layer) in self.gcn.iter().enumerate() {
            // Layer 0 borrows the input directly — no defensive copy.
            let input = if l == 0 { x } else { &h };
            let (mut z, ax) = layer.forward(adj, input);
            let pre = z.relu_inplace();
            ax_cache.push(ax);
            pre_cache.push(pre);
            h = z;
        }
        let mut max_arg = Vec::new();
        let readout = match self.task {
            Task::Graph => {
                // Mean ‖ max readout: the mean half captures subgraph
                // composition, the max half the strongest per-feature
                // activation (decisive for near-balanced graphs).
                let mean = h.mean_rows();
                let (mx, arg) = h.max_rows();
                max_arg = arg;
                let d = mean.cols();
                let mut pooled = Matrix::zeros(1, 2 * d);
                pooled.row_mut(0)[..d].copy_from_slice(mean.row(0));
                pooled.row_mut(0)[d..].copy_from_slice(mx.row(0));
                pooled
            }
            Task::Node => h,
        };
        Forward {
            ax: ax_cache,
            pre: pre_cache,
            max_arg,
            readout,
        }
    }

    /// The head's input for a graph: the mean ‖ max readout (`1 × 2d`,
    /// graph task) or the last GCN layer's activations (`N × d`, node
    /// task). [`GcnModel::head`] maps it to logits exactly as
    /// [`GcnModel::logits`] does.
    pub fn readout(&self, adj: &NormAdj, x: &Matrix) -> Matrix {
        self.forward(adj, x).readout
    }

    /// Raw logits for a sample (`1 × C` for graph task, `N × C` for node
    /// task).
    pub fn logits(&self, adj: &NormAdj, x: &Matrix) -> Matrix {
        self.head.logits(&self.readout(adj, x))
    }

    /// Class probabilities for a graph-level sample.
    ///
    /// # Panics
    ///
    /// Panics if the model is a node-level model.
    pub fn predict_graph(&self, adj: &NormAdj, x: &Matrix) -> Vec<f32> {
        assert_eq!(self.task, Task::Graph, "graph-level prediction only");
        softmax_row(self.logits(adj, x).row(0))
    }

    /// Per-node class probabilities (`N × C`).
    ///
    /// # Panics
    ///
    /// Panics if the model is a graph-level model.
    pub fn predict_nodes(&self, adj: &NormAdj, x: &Matrix) -> Matrix {
        assert_eq!(self.task, Task::Node, "node-level prediction only");
        let logits = self.logits(adj, x);
        let mut out = Matrix::zeros(logits.rows(), logits.cols());
        for r in 0..logits.rows() {
            let p = softmax_row(logits.row(r));
            out.row_mut(r).copy_from_slice(&p);
        }
        out
    }

    /// Loss and parameter gradients for one sample — the **reference
    /// path** built on the allocating layer passes (fresh buffers per
    /// call, unfused ReLU, full backward), kept as the model-level oracle
    /// for [`GcnModel::compute_grads_into`] (which the training loop
    /// actually runs) and still used by [`GcnModel::train_sample`].
    fn compute_grads(&self, sample: &GraphSample, class_weights: Option<&[f32]>) -> (f64, Grads) {
        let fwd = self.forward(&sample.adj, &sample.x);
        let head = self.head.forward(fwd.readout.clone());
        let (loss, dlogits) = cross_entropy(&head.logits, &sample.targets, class_weights);
        let (head_grads, d) = self.head.backward(&head, dlogits);

        // --- Pool backward (graph task): mean half distributes uniformly,
        // max half routes to each feature's winning row.
        let mut dh = match self.task {
            Task::Graph => {
                let hk_rows = fwd.pre[self.gcn.len() - 1].rows();
                let n = hk_rows.max(1);
                let dd = d.cols() / 2;
                let mut m = Matrix::zeros(hk_rows, dd);
                for r in 0..hk_rows {
                    for (c, o) in m.row_mut(r).iter_mut().enumerate() {
                        *o = d.get(0, c) / n as f32;
                    }
                }
                for c in 0..dd {
                    let win = fwd.max_arg[c];
                    let cur = m.get(win, c);
                    m.set(win, c, cur + d.get(0, dd + c));
                }
                m
            }
            Task::Node => d,
        };

        // --- GCN backward.
        let mut gcn_grads: Vec<(Matrix, Vec<f32>)> = Vec::with_capacity(self.gcn.len());
        for i in (0..self.gcn.len()).rev() {
            relu_backward(&mut dh, &fwd.pre[i]);
            let (dw, db, dx) = self.gcn[i].backward(&sample.adj, &fwd.ax[i], &dh);
            gcn_grads.push((dw, db));
            dh = dx;
        }
        gcn_grads.reverse();

        (
            loss,
            Grads {
                gcn: gcn_grads,
                head: head_grads,
            },
        )
    }

    /// The fused training hot path: loss and parameter gradients for one
    /// sample computed entirely on the vectorized `*_into` kernels (with
    /// bias/ReLU epilogues fused into the matmul tiles) against the
    /// buffers [`GcnModel::train`] sized for this model — zero heap
    /// allocation once `ws`/`out` reach steady-state capacity.
    ///
    /// Bit-identical to [`GcnModel::compute_grads`] by construction: every
    /// kernel preserves the canonical per-element accumulation order, the
    /// layer-1 aggregation comes from the sample's [`GraphSample::ax1`]
    /// cache (the same value the reference recomputes), and the only work
    /// skipped is layer 0's input gradient, which nothing consumes.
    fn compute_grads_into(
        &self,
        sample: &GraphSample,
        class_weights: Option<&[f32]>,
        ws: &mut Workspace,
        out: &mut Grads,
    ) -> f64 {
        let n_gcn = self.gcn.len();
        let (head_input, head_ws) = self.trunk_forward_into(sample, ws);
        let loss = self.head.pass(
            head_input,
            &sample.targets,
            class_weights,
            head_ws,
            &mut out.head,
            true,
        );
        let g = &mut ws.head;

        // --- Pool backward (graph task): mean half distributes uniformly,
        // max half routes to each feature's winning row.
        if matches!(self.task, Task::Graph) {
            let hk_rows = ws.h[n_gcn - 1].rows();
            let n = hk_rows.max(1);
            let dd = g.dcur.cols() / 2;
            g.dnxt.reset(hk_rows, dd);
            for r in 0..hk_rows {
                for (c, o) in g.dnxt.row_mut(r).iter_mut().enumerate() {
                    *o = g.dcur.get(0, c) / n as f32;
                }
            }
            for c in 0..dd {
                let win = ws.max_arg[c];
                let cur = g.dnxt.get(win, c);
                g.dnxt.set(win, c, cur + g.dcur.get(0, dd + c));
            }
            std::mem::swap(&mut g.dcur, &mut g.dnxt);
        }

        // --- GCN backward; layer 0 needs no input gradient.
        for l in (0..n_gcn).rev() {
            relu_backward(&mut g.dcur, &ws.pre[l]);
            let ax = if l == 0 { sample.ax1() } else { &ws.ax[l] };
            let (gw, gb) = &mut out.gcn[l];
            let dx = (l > 0).then_some((&mut ws.dax, &mut g.dnxt));
            self.gcn[l].backward_into(&sample.adj, ax, &g.dcur, gw, gb, dx);
            if l > 0 {
                std::mem::swap(&mut g.dcur, &mut g.dnxt);
            }
        }

        loss
    }

    /// The GCN forward pass and readout of one sample on the fused
    /// kernels (layer 0 consumes the cached `Â·x`; bias and ReLU are fused
    /// into the matmul epilogue). Returns the head's input — the mean ‖
    /// max readout (graph task) or the last layer's activations (node
    /// task) — beside the head's buffers, which stay free to write.
    fn trunk_forward_into<'w>(
        &self,
        sample: &GraphSample,
        ws: &'w mut Workspace,
    ) -> (&'w Matrix, &'w mut HeadWorkspace) {
        let n_gcn = self.gcn.len();
        for (l, layer) in self.gcn.iter().enumerate() {
            if l == 0 {
                layer.forward_from_ax_relu_into(sample.ax1(), &mut ws.pre[0], &mut ws.h[0]);
            } else {
                // Disjoint h slots: h[l-1] is read while h[l] is written.
                let (h_read, h_write) = ws.h.split_at_mut(l);
                layer.forward_relu_into(
                    &sample.adj,
                    &h_read[l - 1],
                    &mut ws.ax[l],
                    &mut ws.pre[l],
                    &mut h_write[0],
                );
            }
        }
        let hk = &ws.h[n_gcn - 1];
        let head_input = match self.task {
            Task::Graph => {
                hk.mean_rows_into(&mut ws.mean);
                hk.max_rows_into(&mut ws.mx, &mut ws.max_arg);
                let d = ws.mean.cols();
                ws.pooled.reset(1, 2 * d);
                ws.pooled.row_mut(0)[..d].copy_from_slice(ws.mean.row(0));
                ws.pooled.row_mut(0)[d..].copy_from_slice(ws.mx.row(0));
                &ws.pooled
            }
            Task::Node => hk,
        };
        (head_input, &mut ws.head)
    }

    /// One Adam step per parameter from one sample's gradients.
    fn apply_grads(&mut self, g: &Grads) {
        self.head.apply_grads(&g.head);
        for ((layer, (sw, sb)), (gw, gb)) in self.gcn.iter_mut().zip(&mut self.states).zip(&g.gcn) {
            sw.step(layer.w.as_mut_slice(), gw.as_slice());
            sb.step(&mut layer.b, gb);
        }
    }

    /// One gradient step on a single sample through the reference
    /// gradient path; returns its loss.
    pub fn train_sample(&mut self, sample: &GraphSample, class_weights: Option<&[f32]>) -> f64 {
        let (loss, grads) = self.compute_grads(sample, class_weights);
        self.apply_grads(&grads);
        loss
    }

    /// Trains on `samples` for `cfg.epochs` epochs and returns the mean
    /// loss of each epoch. Each epoch visits the samples in a seeded
    /// shuffle order and takes one Adam step per sample, on the fused
    /// gradient path.
    ///
    /// Training runs on the caller's thread, so the weights and the loss
    /// curve depend only on the model, `samples` and `cfg` — never on a
    /// thread count (callers run independent models in parallel, e.g.
    /// restarts; see DESIGN.md "Threading model"). The training buffers
    /// live for this call only.
    pub fn train(&mut self, samples: &[GraphSample], cfg: &TrainConfig) -> Vec<f64> {
        let (n_gcn, n_head) = (self.gcn.len(), self.head.layers.len());
        let mut ws = Workspace::default();
        let mut grads = Grads::default();
        ws.ensure_layers(n_gcn, n_head);
        grads.ensure_layers(n_gcn, n_head);
        let weights = cfg.class_weights.as_deref();
        run_epochs(samples.len(), cfg, |i| {
            let loss = self.compute_grads_into(&samples[i], weights, &mut ws, &mut grads);
            self.apply_grads(&grads);
            loss
        })
    }

    /// Fraction of targets predicted correctly over `samples`.
    pub fn accuracy(&self, samples: &[GraphSample]) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for s in samples {
            let logits = self.logits(&s.adj, &s.x);
            for &(r, c) in &s.targets {
                total += 1;
                if argmax(logits.row(r)) == c {
                    correct += 1;
                }
            }
        }
        correct as f64 / total.max(1) as f64
    }

    /// Assembles a model from its layers with fresh optimizer state.
    pub(crate) fn from_parts(task: Task, gcn: Vec<GcnLayer>, head: DenseHead) -> Self {
        let states = gcn
            .iter()
            .map(|l| AdamState::for_layer(&l.w, &l.b))
            .collect();
        GcnModel {
            task,
            gcn,
            states,
            head,
        }
    }
}

impl std::fmt::Debug for GcnModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GcnModel(task={:?}, gcn={:?}, head={:?})",
            self.task,
            self.gcn.iter().map(GcnLayer::out_dim).collect::<Vec<_>>(),
            self.head
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use rand::Rng;

    /// Synthetic graph-classification task: class 1 graphs are "hubby"
    /// (star), class 0 graphs are paths; features are degree one-hot-ish.
    fn toy_dataset(n_samples: usize, seed: u64) -> Vec<GraphSample> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for _ in 0..n_samples {
            let n = rng.gen_range(5..9usize);
            let label = rng.gen_range(0..2usize);
            let mut g = Graph::new(n);
            if label == 1 {
                for i in 1..n {
                    g.add_edge(0, i as u32);
                }
            } else {
                for i in 1..n {
                    g.add_edge(i as u32 - 1, i as u32);
                }
            }
            let adj = g.normalize(true);
            let mut x = Matrix::zeros(n, 3);
            for i in 0..n {
                x.set(i, 0, 1.0);
                x.set(i, 1, adj.degree(i) as f32 / n as f32);
                // Hub indicator: only the star's center exceeds half the
                // node count — the pooled mean separates the classes, so
                // the test exercises the full learning machinery without
                // demanding structure discovery from 30 epochs.
                x.set(i, 2, f32::from(u8::from(adj.degree(i) > n / 2)));
            }
            out.push(GraphSample::graph_level(adj, x, label));
        }
        out
    }

    #[test]
    fn model_learns_graph_classification() {
        let train = toy_dataset(60, 5);
        let test = toy_dataset(30, 6);
        let mut model = GcnModel::new(&GcnConfig {
            input_dim: 3,
            hidden: vec![16, 8],
            head_hidden: None,
            n_classes: 2,
            task: Task::Graph,
            seed: 3,
        });
        let losses = model.train(&train, &TrainConfig::default());
        assert!(
            losses.last().unwrap() < &losses[0],
            "loss must decrease: {losses:?}"
        );
        let acc = model.accuracy(&test);
        assert!(acc > 0.9, "test accuracy {acc}");
    }

    #[test]
    fn node_task_learns_degree_classes() {
        // Label each node by (degree > 1), learnable from features alone.
        let mut rng = StdRng::seed_from_u64(4);
        let mut samples = Vec::new();
        for _ in 0..40 {
            let n = rng.gen_range(4..8usize);
            let mut g = Graph::new(n);
            for i in 1..n {
                g.add_edge(0, i as u32);
            }
            let adj = g.normalize(true);
            let mut x = Matrix::zeros(n, 2);
            let mut targets = Vec::new();
            for i in 0..n {
                x.set(i, 0, adj.degree(i) as f32);
                x.set(i, 1, 1.0);
                targets.push((i, usize::from(adj.degree(i) > 2)));
            }
            samples.push(GraphSample::new(adj, x, targets));
        }
        let mut model = GcnModel::new(&GcnConfig {
            input_dim: 2,
            hidden: vec![8],
            head_hidden: None,
            n_classes: 2,
            task: Task::Node,
            seed: 1,
        });
        model.train(&samples, &TrainConfig::default());
        assert!(model.accuracy(&samples) > 0.95);
    }

    #[test]
    fn predict_graph_probabilities_sum_to_one() {
        let data = toy_dataset(2, 8);
        let model = GcnModel::new(&GcnConfig::two_layer(3, Task::Graph));
        let p = model.predict_graph(&data[0].adj, &data[0].x);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn training_is_deterministic() {
        let data = toy_dataset(20, 12);
        let mk = || {
            let mut m = GcnModel::new(&GcnConfig::two_layer(3, Task::Graph));
            m.train(
                &data,
                &TrainConfig {
                    epochs: 3,
                    ..TrainConfig::default()
                },
            )
        };
        assert_eq!(mk(), mk());
    }

    /// `run_epochs` written out apart, as its reference: one seeded shuffle
    /// stream, `step(i)` per sample, each epoch's loss averaged over `n`.
    fn reference_epochs(
        n: usize,
        cfg: &TrainConfig,
        mut step: impl FnMut(usize) -> f64,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..n).collect();
        let mut losses = Vec::new();
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            for &i in &order {
                total += step(i);
            }
            losses.push(total / n as f64);
        }
        losses
    }

    #[test]
    fn train_matches_reference_per_sample_path() {
        // `train` must be bitwise identical to stepping the reference
        // `train_sample` in the reference shuffle order, and
        // `DenseHead::train` on a trained model's readouts (hidden ReLU
        // layer included) to stepping the head's reference
        // forward/backward pass in that order.
        let data = toy_dataset(12, 14);
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };
        let fresh = || GcnModel::new(&GcnConfig::two_layer(3, Task::Graph));
        let logits =
            |m: &GcnModel| -> Vec<Matrix> { data.iter().map(|s| m.logits(&s.adj, &s.x)).collect() };
        let (mut fused, mut reference) = (fresh(), fresh());
        let losses = fused.train(&data, &cfg);
        let ref_losses =
            reference_epochs(data.len(), &cfg, |i| reference.train_sample(&data[i], None));
        assert_eq!((losses, logits(&fused)), (ref_losses, logits(&reference)));

        let readouts: Vec<(Matrix, usize)> = data
            .iter()
            .map(|s| (fused.readout(&s.adj, &s.x), s.targets[0].1))
            .collect();
        let fresh = || DenseHead::new(fused.head().in_dim(), Some(8), 2, 77);
        let logits =
            |h: &DenseHead| -> Vec<Matrix> { readouts.iter().map(|(r, _)| h.logits(r)).collect() };
        let (mut head, mut reference) = (fresh(), fresh());
        let losses = head.train(&readouts, &cfg);
        let ref_losses = reference_epochs(readouts.len(), &cfg, |i| {
            let (input, class) = &readouts[i];
            let fwd = reference.forward(input.clone());
            let (loss, dlogits) = cross_entropy(&fwd.logits, &[(0, *class)], None);
            reference.apply_grads(&reference.backward(&fwd, dlogits).0);
            loss
        });
        assert_eq!((losses, logits(&head)), (ref_losses, logits(&reference)));
    }

    #[test]
    fn class_weights_shift_decisions_toward_minority() {
        // 90/10 imbalance; heavy weight on the minority class must raise
        // its recall relative to unweighted training.
        let mut rng = StdRng::seed_from_u64(66);
        let mut data = Vec::new();
        for i in 0..100 {
            let label = usize::from(i % 10 == 0);
            let n = 5;
            let mut g = Graph::new(n);
            for j in 1..n {
                g.add_edge(0, j as u32);
            }
            let adj = g.normalize(true);
            let mut x = Matrix::zeros(n, 2);
            for r in 0..n {
                // Weakly-separable noisy feature.
                x.set(r, 0, label as f32 + rng.gen::<f32>() * 2.0 - 1.0);
                x.set(r, 1, 1.0);
            }
            data.push(GraphSample::graph_level(adj, x, label));
        }
        let minority: Vec<&GraphSample> = data.iter().filter(|s| s.targets[0].1 == 1).collect();
        let recall = |m: &GcnModel| {
            minority
                .iter()
                .filter(|s| argmax(m.logits(&s.adj, &s.x).row(0)) == 1)
                .count() as f64
                / minority.len() as f64
        };
        let mut plain = GcnModel::new(&GcnConfig::two_layer(2, Task::Graph));
        plain.train(
            &data,
            &TrainConfig {
                epochs: 15,
                ..TrainConfig::default()
            },
        );
        let mut weighted = GcnModel::new(&GcnConfig::two_layer(2, Task::Graph));
        weighted.train(
            &data,
            &TrainConfig {
                epochs: 15,
                class_weights: Some(vec![1.0, 9.0]),
                ..TrainConfig::default()
            },
        );
        assert!(
            recall(&weighted) >= recall(&plain),
            "weighted {} < plain {}",
            recall(&weighted),
            recall(&plain)
        );
    }
}
