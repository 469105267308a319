//! GCN and dense layers with explicit forward/backward passes.
//!
//! The GCN layer implements the paper's Eq. (1):
//! `H' = σ(b + Â H W)` with `Â` the symmetrically-normalized adjacency.
//! Activations are applied by the model, which caches pre-activations.

use crate::graph::NormAdj;
use crate::matrix::Matrix;

/// One graph-convolution layer: `z = Â x W + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct GcnLayer {
    /// Weight matrix (`in_dim × out_dim`).
    pub w: Matrix,
    /// Bias row (`out_dim`).
    pub b: Vec<f32>,
}

impl GcnLayer {
    /// Xavier-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        GcnLayer {
            w: Matrix::xavier(in_dim, out_dim, seed),
            b: vec![0.0; out_dim],
        }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Forward pass; returns `(z, ax)` where `ax = Â x` is cached for the
    /// backward pass. [`GcnLayer::forward_into`] on fresh buffers.
    pub fn forward(&self, adj: &NormAdj, x: &Matrix) -> (Matrix, Matrix) {
        let (mut z, mut ax) = (Matrix::default(), Matrix::default());
        self.forward_into(adj, x, &mut ax, &mut z);
        (z, ax)
    }

    /// Backward pass: given `dz = ∂L/∂z` and the cached `ax`, returns
    /// `(dw, db, dx)`. [`GcnLayer::backward_into`] on fresh buffers.
    ///
    /// `Â` is symmetric, so `∂L/∂x = Â (dz Wᵀ)`.
    pub fn backward(&self, adj: &NormAdj, ax: &Matrix, dz: &Matrix) -> (Matrix, Vec<f32>, Matrix) {
        let (mut dw, mut db) = (Matrix::default(), Vec::new());
        let (mut dax, mut dx) = (Matrix::default(), Matrix::default());
        self.backward_into(adj, ax, dz, &mut dw, &mut db, Some((&mut dax, &mut dx)));
        (dw, db, dx)
    }

    /// [`GcnLayer::forward`] on preallocated buffers: `ax` receives `Â x`,
    /// `z` the pre-activation (bias fused into the matmul epilogue).
    pub fn forward_into(&self, adj: &NormAdj, x: &Matrix, ax: &mut Matrix, z: &mut Matrix) {
        adj.spmm_into(x, ax);
        self.forward_from_ax_into(ax, z);
    }

    /// [`GcnLayer::forward_into`] with the ReLU fused as well: `z` keeps
    /// the pre-activation for backprop, `h` receives `relu(z)` from the
    /// same tile pass.
    pub fn forward_relu_into(
        &self,
        adj: &NormAdj,
        x: &Matrix,
        ax: &mut Matrix,
        z: &mut Matrix,
        h: &mut Matrix,
    ) {
        adj.spmm_into(x, ax);
        self.forward_from_ax_relu_into(ax, z, h);
    }

    /// The dense half of the forward pass when `Â x` is already available
    /// (e.g. the per-sample layer-1 aggregation cache): `z = ax W + b`,
    /// bias fused into the matmul epilogue.
    pub fn forward_from_ax_into(&self, ax: &Matrix, z: &mut Matrix) {
        ax.matmul_bias_into(&self.w, &self.b, z);
    }

    /// [`GcnLayer::forward_from_ax_into`] plus a fused ReLU: one tile pass
    /// writes the pre-activation to `z` and `relu(z)` to `h`, instead of a
    /// matmul pass, a bias pass, and a ReLU pass over the whole matrix.
    pub fn forward_from_ax_relu_into(&self, ax: &Matrix, z: &mut Matrix, h: &mut Matrix) {
        ax.matmul_bias_relu_into(&self.w, &self.b, z, h);
    }

    /// [`GcnLayer::backward`] on preallocated buffers. `dx` bundles the
    /// `(dz Wᵀ scratch, dx destination)` pair — pass `None` for the first
    /// layer, where no input gradient is consumed.
    pub fn backward_into(
        &self,
        adj: &NormAdj,
        ax: &Matrix,
        dz: &Matrix,
        dw: &mut Matrix,
        db: &mut Vec<f32>,
        dx: Option<(&mut Matrix, &mut Matrix)>,
    ) {
        ax.matmul_tn_into(dz, dw);
        dz.sum_rows_into_vec(db);
        if let Some((dax, dx)) = dx {
            dz.matmul_nt_into(&self.w, dax);
            adj.spmm_into(dax, dx);
        }
    }
}

/// A dense layer: `z = x W + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Weight matrix (`in_dim × out_dim`).
    pub w: Matrix,
    /// Bias row (`out_dim`).
    pub b: Vec<f32>,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Linear {
            w: Matrix::xavier(in_dim, out_dim, seed),
            b: vec![0.0; out_dim],
        }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Forward pass: [`Linear::forward_into`] on a fresh buffer.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut z = Matrix::default();
        self.forward_into(x, &mut z);
        z
    }

    /// Backward pass: returns `(dw, db, dx)` for `dz = ∂L/∂z`
    /// ([`Linear::backward_into`] on fresh buffers).
    pub fn backward(&self, x: &Matrix, dz: &Matrix) -> (Matrix, Vec<f32>, Matrix) {
        let (mut dw, mut db, mut dx) = (Matrix::default(), Vec::new(), Matrix::default());
        self.backward_into(x, dz, &mut dw, &mut db, Some(&mut dx));
        (dw, db, dx)
    }

    /// [`Linear::forward`] on a preallocated output buffer (bias fused
    /// into the matmul epilogue).
    pub fn forward_into(&self, x: &Matrix, z: &mut Matrix) {
        x.matmul_bias_into(&self.w, &self.b, z);
    }

    /// [`Linear::forward_into`] with a fused ReLU: `z` keeps the
    /// pre-activation, `h` receives `relu(z)` from the same tile pass.
    pub fn forward_relu_into(&self, x: &Matrix, z: &mut Matrix, h: &mut Matrix) {
        x.matmul_bias_relu_into(&self.w, &self.b, z, h);
    }

    /// [`Linear::backward`] on preallocated buffers; `dx` is the input-
    /// gradient destination (computed directly by the NT kernel — no
    /// transpose scratch).
    pub fn backward_into(
        &self,
        x: &Matrix,
        dz: &Matrix,
        dw: &mut Matrix,
        db: &mut Vec<f32>,
        dx: Option<&mut Matrix>,
    ) {
        x.matmul_tn_into(dz, dw);
        dz.sum_rows_into_vec(db);
        if let Some(dx) = dx {
            dz.matmul_nt_into(&self.w, dx);
        }
    }
}

/// Backpropagates through a ReLU: zeroes `grad` where the cached
/// pre-activation was non-positive.
pub fn relu_backward(grad: &mut Matrix, pre: &Matrix) {
    debug_assert_eq!(grad.rows(), pre.rows());
    debug_assert_eq!(grad.cols(), pre.cols());
    for (g, &p) in grad.as_mut_slice().iter_mut().zip(pre.as_slice()) {
        if p <= 0.0 {
            *g = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Finite-difference check of a scalar loss L = sum(z) through the GCN
    /// layer, for every parameter and the input.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn gcn_gradients_match_finite_differences() {
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let adj = g.normalize(true);
        let mut layer = GcnLayer::new(2, 2, 42);
        let x = Matrix::xavier(3, 2, 7);
        let loss = |layer: &GcnLayer, x: &Matrix| -> f32 {
            let (z, _) = layer.forward(&adj, x);
            z.as_slice().iter().sum()
        };
        let (z, ax) = layer.forward(&adj, &x);
        let dz = Matrix::from_vec(z.rows(), z.cols(), vec![1.0; z.rows() * z.cols()]);
        let (dw, db, dx) = layer.backward(&adj, &ax, &dz);

        let eps = 1e-3f32;
        // Weights.
        for i in 0..layer.w.rows() {
            for j in 0..layer.w.cols() {
                let orig = layer.w.get(i, j);
                layer.w.set(i, j, orig + eps);
                let lp = loss(&layer, &x);
                layer.w.set(i, j, orig - eps);
                let lm = loss(&layer, &x);
                layer.w.set(i, j, orig);
                let num = (lp - lm) / (2.0 * eps);
                assert!(
                    (num - dw.get(i, j)).abs() < 1e-2,
                    "dw[{i},{j}]: fd {num} vs {}",
                    dw.get(i, j)
                );
            }
        }
        // Bias.
        for j in 0..layer.b.len() {
            let orig = layer.b[j];
            layer.b[j] = orig + eps;
            let lp = loss(&layer, &x);
            layer.b[j] = orig - eps;
            let lm = loss(&layer, &x);
            layer.b[j] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - db[j]).abs() < 1e-2, "db[{j}]");
        }
        // Input.
        let mut xm = x.clone();
        for i in 0..xm.rows() {
            for j in 0..xm.cols() {
                let orig = xm.get(i, j);
                xm.set(i, j, orig + eps);
                let lp = loss(&layer, &xm);
                xm.set(i, j, orig - eps);
                let lm = loss(&layer, &xm);
                xm.set(i, j, orig);
                let num = (lp - lm) / (2.0 * eps);
                assert!(
                    (num - dx.get(i, j)).abs() < 1e-2,
                    "dx[{i},{j}]: fd {num} vs {}",
                    dx.get(i, j)
                );
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn linear_gradients_match_finite_differences() {
        let mut layer = Linear::new(3, 2, 5);
        let x = Matrix::xavier(4, 3, 9);
        let loss = |l: &Linear, x: &Matrix| -> f32 { l.forward(x).as_slice().iter().sum() };
        let z = layer.forward(&x);
        let dz = Matrix::from_vec(z.rows(), z.cols(), vec![1.0; z.rows() * z.cols()]);
        let (dw, db, dx) = layer.backward(&x, &dz);
        let eps = 1e-3f32;
        for i in 0..layer.w.rows() {
            for j in 0..layer.w.cols() {
                let orig = layer.w.get(i, j);
                layer.w.set(i, j, orig + eps);
                let lp = loss(&layer, &x);
                layer.w.set(i, j, orig - eps);
                let lm = loss(&layer, &x);
                layer.w.set(i, j, orig);
                assert!(((lp - lm) / (2.0 * eps) - dw.get(i, j)).abs() < 1e-2);
            }
        }
        assert!(db.iter().all(|&d| (d - 4.0).abs() < 1e-4), "{db:?}");
        assert_eq!(dx.rows(), 4);
    }

    #[test]
    fn relu_backward_masks() {
        let pre = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        let mut grad = Matrix::from_vec(1, 4, vec![1.0; 4]);
        relu_backward(&mut grad, &pre);
        assert_eq!(grad.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }
}
