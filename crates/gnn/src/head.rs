//! The dense classification head every [`GcnModel`](crate::GcnModel) ends
//! in. Trained alone on a frozen trunk's readouts (each a constant per
//! subgraph), it is the paper's transfer-learned *Classifier* (Section V-C).

use crate::adam::AdamState;
use crate::layers::{relu_backward, Linear};
use crate::loss::{cross_entropy_into, softmax_row};
use crate::matrix::Matrix;
use crate::model::{run_epochs, TrainConfig};
use crate::workspace::{Grads, HeadWorkspace, Workspace};

/// Dense layers over a fixed-width input, trained with Adam on softmax
/// cross-entropy.
pub struct DenseHead {
    /// The layers, input side first.
    pub(crate) layers: Vec<Linear>,
    states: Vec<(AdamState, AdamState)>,
}

/// The cached activations of one reference forward pass.
pub(crate) struct HeadForward {
    /// Each layer's input.
    pub inputs: Vec<Matrix>,
    /// Pre-activations of the hidden layers.
    pub pre: Vec<Matrix>,
    /// Final logits.
    pub logits: Matrix,
}

impl DenseHead {
    /// Xavier-initialized layers `in_dim → [hidden →] n_classes`.
    pub fn new(in_dim: usize, hidden: Option<usize>, n_classes: usize, seed: u64) -> Self {
        Self::from_layers(match hidden {
            Some(h) => vec![
                Linear::new(in_dim, h, seed),
                Linear::new(h, n_classes, seed.wrapping_add(1)),
            ],
            None => vec![Linear::new(in_dim, n_classes, seed)],
        })
    }

    /// Assembles a head from its layers with fresh optimizer state.
    pub(crate) fn from_layers(layers: Vec<Linear>) -> Self {
        let states = layers
            .iter()
            .map(|l| AdamState::for_layer(&l.w, &l.b))
            .collect();
        DenseHead { layers, states }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output class count.
    pub fn n_classes(&self) -> usize {
        self.layers.last().expect("head is non-empty").out_dim()
    }

    /// The reference forward pass (allocating layer passes), caching what
    /// [`DenseHead::backward`] needs.
    pub(crate) fn forward(&self, input: Matrix) -> HeadForward {
        let n = self.layers.len();
        let mut inputs = Vec::with_capacity(n);
        let mut pre = Vec::new();
        let mut cur = input;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = layer.forward(&cur);
            if i + 1 < n {
                pre.push(z.relu_inplace());
            }
            // Move (not clone) each layer's input into the cache as its
            // output takes over as the running activation.
            inputs.push(std::mem::replace(&mut cur, z));
        }
        HeadForward {
            inputs,
            pre,
            logits: cur,
        }
    }

    /// The reference backward pass from `dlogits`: each layer's
    /// `(dW, db)` and the gradient of the input.
    pub(crate) fn backward(
        &self,
        fwd: &HeadForward,
        dlogits: Matrix,
    ) -> (Vec<(Matrix, Vec<f32>)>, Matrix) {
        let n = self.layers.len();
        let mut grads = Vec::with_capacity(n);
        let mut d = dlogits;
        for i in (0..n).rev() {
            if i + 1 < n {
                relu_backward(&mut d, &fwd.pre[i]);
            }
            let (dw, db, dx) = self.layers[i].backward(&fwd.inputs[i], &d);
            grads.push((dw, db));
            d = dx;
        }
        grads.reverse();
        (grads, d)
    }

    /// Raw logits for an input (one row per input row).
    pub fn logits(&self, input: &Matrix) -> Matrix {
        self.forward(input.clone()).logits
    }

    /// Class probabilities of a one-row input, such as a graph readout.
    pub fn predict(&self, input: &Matrix) -> Vec<f32> {
        softmax_row(self.logits(input).row(0))
    }

    /// The fused forward pass, loss and backward pass on one input
    /// (bit-identical to [`DenseHead::forward`] + [`DenseHead::backward`]):
    /// writes each layer's `(dW, db)` into `grads` and returns the loss.
    /// With `input_grad`, `hw.dcur` ends up holding the gradient of
    /// `input`; without it, layer 0 computes no input gradient.
    pub(crate) fn pass(
        &self,
        input: &Matrix,
        targets: &[(usize, usize)],
        class_weights: Option<&[f32]>,
        hw: &mut HeadWorkspace,
        grads: &mut [(Matrix, Vec<f32>)],
        input_grad: bool,
    ) -> f64 {
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            if i + 1 < n {
                let (h_read, h_write) = hw.h.split_at_mut(i);
                let x = if i == 0 { input } else { &h_read[i - 1] };
                layer.forward_relu_into(x, &mut hw.pre[i], &mut h_write[0]);
            } else {
                let x = if i == 0 { input } else { &hw.h[i - 1] };
                layer.forward_into(x, &mut hw.pre[i]);
            }
        }

        let loss = cross_entropy_into(
            &hw.pre[n - 1],
            targets,
            class_weights,
            &mut hw.dcur,
            &mut hw.softmax,
        );

        for i in (0..n).rev() {
            if i + 1 < n {
                relu_backward(&mut hw.dcur, &hw.pre[i]);
            }
            let x = if i == 0 { input } else { &hw.h[i - 1] };
            let (gw, gb) = &mut grads[i];
            let wants_dx = i > 0 || input_grad;
            let dx = wants_dx.then_some(&mut hw.dnxt);
            self.layers[i].backward_into(x, &hw.dcur, gw, gb, dx);
            if wants_dx {
                std::mem::swap(&mut hw.dcur, &mut hw.dnxt);
            }
        }
        loss
    }

    /// One Adam step per parameter from one sample's gradients.
    pub(crate) fn apply_grads(&mut self, grads: &[(Matrix, Vec<f32>)]) {
        for ((layer, (sw, sb)), (gw, gb)) in self.layers.iter_mut().zip(&mut self.states).zip(grads)
        {
            sw.step(layer.w.as_mut_slice(), gw.as_slice());
            sb.step(&mut layer.b, gb);
        }
    }

    /// Trains on fixed one-row inputs, each with its class, in the epoch
    /// loop of [`GcnModel::train`](crate::GcnModel::train) (one fused step
    /// per input, seeded shuffle order, caller's thread); returns each
    /// epoch's mean loss.
    pub fn train(&mut self, samples: &[(Matrix, usize)], cfg: &TrainConfig) -> Vec<f64> {
        let (mut ws, mut grads) = (Workspace::default(), Grads::default());
        ws.ensure_layers(0, self.layers.len());
        grads.ensure_layers(0, self.layers.len());
        let (hw, g) = (&mut ws.head, &mut grads.head);
        let weights = cfg.class_weights.as_deref();
        run_epochs(samples.len(), cfg, |i| {
            let (input, class) = &samples[i];
            let loss = self.pass(input, &[(0, *class)], weights, hw, g, false);
            self.apply_grads(g);
            loss
        })
    }
}

impl std::fmt::Debug for DenseHead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let widths: Vec<usize> = self.layers.iter().map(Linear::out_dim).collect();
        write!(f, "DenseHead(in={}, out={widths:?})", self.in_dim())
    }
}
