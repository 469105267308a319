//! Training buffers: the memory model behind the allocation-free
//! gradient steps of [`GcnModel::train`](crate::GcnModel::train) and
//! [`DenseHead::train`](crate::DenseHead::train).
//!
//! A [`Workspace`] owns every intermediate a fused forward+backward pass
//! needs — activations, pre-activations, pooled readouts, ping-pong
//! gradient buffers, matmul scratch. All buffers are plain [`Matrix`]
//! values resized with [`Matrix::reset`], which keeps the backing
//! allocation; once the buffers have held the largest sample, no further
//! heap traffic occurs (asserted by the `alloc_steady_state` integration
//! test under the `alloc-profile` feature). A workspace and a [`Grads`]
//! live for one training call: a trained model carries no buffers.

use crate::matrix::Matrix;

/// Per-parameter gradients of one sample: `(dW, db)` per GCN layer and
/// per head layer, in layer order.
#[derive(Default)]
pub(crate) struct Grads {
    pub gcn: Vec<(Matrix, Vec<f32>)>,
    pub head: Vec<(Matrix, Vec<f32>)>,
}

impl Grads {
    /// Sizes the per-layer slots (buffers themselves are shaped by the
    /// kernels that write them).
    pub fn ensure_layers(&mut self, gcn: usize, head: usize) {
        self.gcn.resize_with(gcn, Default::default);
        self.head.resize_with(head, Default::default);
    }
}

/// Every intermediate buffer of one fused forward+backward pass.
///
/// A pass fully overwrites what it reads. Buffer shapes track the
/// current sample via [`Matrix::reset`]; capacities only grow, so after
/// the first epoch the workspace is allocation-free.
#[derive(Default)]
pub(crate) struct Workspace {
    /// `Â·h` per GCN layer. Slot 0 stays empty: layer 0 reads the sample's
    /// cached aggregation ([`GraphSample::ax1`](crate::GraphSample::ax1)).
    pub ax: Vec<Matrix>,
    /// Pre-activations `z = Â h W + b` per GCN layer.
    pub pre: Vec<Matrix>,
    /// Post-ReLU activations per GCN layer.
    pub h: Vec<Matrix>,
    /// Mean half of the graph readout.
    pub mean: Matrix,
    /// Max half of the graph readout.
    pub mx: Matrix,
    /// Winning row per feature of the max readout (for backprop routing).
    pub max_arg: Vec<usize>,
    /// Concatenated mean ‖ max readout (head input, graph task).
    pub pooled: Matrix,
    /// `dz Wᵀ` scratch of the GCN input-gradient.
    pub dax: Matrix,
    /// The dense head's buffers, apart from the trunk's so that the head
    /// pass can read a trunk buffer while it writes these.
    pub head: HeadWorkspace,
}

/// The dense head's buffers, plus the ping-pong gradient pair that the
/// trunk's backward pass continues from.
#[derive(Default)]
pub(crate) struct HeadWorkspace {
    /// Head pre-activations per head layer (last slot holds the logits).
    pub pre: Vec<Matrix>,
    /// Post-ReLU head activations (all but the last layer).
    pub h: Vec<Matrix>,
    /// Per-row softmax scratch of the loss.
    pub softmax: Vec<f32>,
    /// Ping-pong upstream-gradient buffer (current). After a head pass
    /// that asks for it, it holds the gradient of the head's input.
    pub dcur: Matrix,
    /// Ping-pong upstream-gradient buffer (next).
    pub dnxt: Matrix,
}

impl Workspace {
    /// Sizes the per-layer buffer vectors for a model with `gcn` GCN and
    /// `head` head layers.
    pub fn ensure_layers(&mut self, gcn: usize, head: usize) {
        self.ax.resize_with(gcn, Default::default);
        self.pre.resize_with(gcn, Default::default);
        self.h.resize_with(gcn, Default::default);
        self.head.pre.resize_with(head, Default::default);
        self.head.h.resize_with(head, Default::default);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_ensure_layers_is_idempotent() {
        let mut ws = Workspace::default();
        ws.ensure_layers(3, 2);
        assert_eq!((ws.ax.len(), ws.head.pre.len()), (3, 2));
        ws.h[2].reset(4, 4);
        ws.ensure_layers(3, 2);
        assert_eq!(
            ws.h[2].rows(),
            4,
            "resizing to the same shape keeps buffers"
        );
    }
}
