//! Dense row-major `f32` matrices with the handful of operations GCN
//! training needs. Deliberately minimal: subgraphs after back-tracing are
//! small (tens to hundreds of nodes), so hand-rolled loops outperform any
//! heavyweight dependency here.
//!
//! Every product writes into a caller-owned destination (the `*_into`
//! family: [`Matrix::matmul_into`], [`Matrix::matmul_bias_relu_into`], …)
//! and dispatches to the 8-lane backend family in [`crate::kernels`], for
//! training and inference alike. Both backends honor the **canonical
//! lane-order contract** (see the `kernels` module docs), so
//! scalar-vs-vector results are bit-identical — the determinism contract
//! of DESIGN.md extends down to the kernels. The scalar backend is the
//! oracle: tests call it directly or force it.
//!
//! The `*_into` family never allocates when the destination's capacity
//! suffices ([`Matrix::reset`] keeps the backing `Vec`'s allocation), which
//! is what lets steady-state training run with zero heap traffic per step.

use crate::kernels;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Buffer/shape mismatch when constructing a [`Matrix`] from a flat
/// buffer: `rows * cols` elements were expected, `len` were supplied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeError {
    /// Requested row count.
    pub rows: usize,
    /// Requested column count.
    pub cols: usize,
    /// Length of the supplied buffer.
    pub len: usize,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "buffer length mismatch: {}x{} needs {} elements, got {}",
            self.rows,
            self.cols,
            self.rows * self.cols,
            self.len
        )
    }
}

impl std::error::Error for ShapeError {}

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`; use
    /// [`Matrix::try_from_vec`] to handle the mismatch instead.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        match Self::try_from_vec(rows, cols, data) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Matrix::from_vec`]: errors instead of panicking when the
    /// buffer length does not equal `rows * cols`.
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Xavier/Glorot-uniform initialization, deterministic in `seed`.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// `true` if any element is NaN or ±Inf — the cheap pre-flight check
    /// that keeps poisoned feature matrices out of inference.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Mutable flat buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Adds a row vector to every row in place (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias width mismatch");
        for r in 0..self.rows {
            for (a, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *a += b;
            }
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// In-place ReLU; returns the pre-activation copy for backprop.
    pub fn relu_inplace(&mut self) -> Matrix {
        let pre = self.clone();
        for a in &mut self.data {
            if *a < 0.0 {
                *a = 0.0;
            }
        }
        pre
    }

    /// Column-wise mean as a `1 × cols` matrix.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
        }
        for r in 0..self.rows {
            for (o, &v) in out.row_mut(0).iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out.scale(1.0 / self.rows as f32);
        out
    }

    /// Column-wise maximum as a `1 × cols` matrix plus the winning row per
    /// column (for max-pool backprop). Zero rows yield zeros and row 0.
    pub fn max_rows(&self) -> (Matrix, Vec<usize>) {
        let mut out = Matrix::zeros(1, self.cols);
        let mut arg = vec![0usize; self.cols];
        if self.rows == 0 {
            return (out, arg);
        }
        out.row_mut(0).copy_from_slice(self.row(0));
        for r in 1..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                if v > out.get(0, c) {
                    out.set(0, c, v);
                    arg[c] = r;
                }
            }
        }
        (out, arg)
    }

    /// Sum of all columns over all rows as a `1 × cols` matrix (bias
    /// gradient).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.row_mut(0).iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Reshapes `self` to `rows × cols` with every element zeroed, keeping
    /// the backing allocation. This is the destination-preparation step of
    /// every `*_into` kernel: once a buffer has grown to its steady-state
    /// capacity, `reset` is a memset — no heap traffic.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// `self @ other` written into `out`, dispatched on `M3D_SIMD` (per
    /// output element the shared dimension is accumulated ascending from
    /// `+0.0`, broadcast-`A` zeros skipped).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        out.reset(self.rows, other.cols);
        kernels::matmul_nn(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
            None,
            None,
        );
    }

    /// `self @ other + bias` written into `out` with the bias broadcast
    /// fused into the matmul tiles (one pass over the output instead of
    /// two). Bit-identical to [`Matrix::matmul_into`] followed by
    /// [`Matrix::add_row_broadcast`]: the bias is added once, after the
    /// full shared-dimension sum.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()` or
    /// `bias.len() != other.cols()`.
    pub fn matmul_bias_into(&self, other: &Matrix, bias: &[f32], out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert_eq!(bias.len(), other.cols, "bias width mismatch");
        out.reset(self.rows, other.cols);
        kernels::matmul_nn(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
            Some(bias),
            None,
        );
    }

    /// `z = self @ other + bias` and `h = relu(z)` in a single fused pass:
    /// the pre-activation lands in `z` (kept for backprop) while the tile
    /// epilogue writes the rectified copy straight into `h`, skipping the
    /// separate full-matrix ReLU sweep. Bit-identical to
    /// [`Matrix::matmul_bias_into`] + [`Matrix::relu_into`] (the epilogue
    /// computes `if z < 0.0 { 0.0 } else { z }`, preserving NaN and `-0.0`).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()` or
    /// `bias.len() != other.cols()`.
    pub fn matmul_bias_relu_into(
        &self,
        other: &Matrix,
        bias: &[f32],
        z: &mut Matrix,
        h: &mut Matrix,
    ) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert_eq!(bias.len(), other.cols, "bias width mismatch");
        z.reset(self.rows, other.cols);
        h.reset(self.rows, other.cols);
        kernels::matmul_nn(
            &self.data,
            &other.data,
            &mut z.data,
            self.rows,
            self.cols,
            other.cols,
            Some(bias),
            Some(&mut h.data),
        );
    }

    /// `selfᵀ @ other` written into `out` without materializing the
    /// transpose (per output element the shared dimension `r` is
    /// accumulated ascending from `+0.0`).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        out.reset(self.cols, other.cols);
        kernels::matmul_tn(
            &self.data,
            &other.data,
            &mut out.data,
            self.cols,
            self.rows,
            other.cols,
        );
    }

    /// `self @ otherᵀ` written into `out`, streaming `other`'s rows
    /// directly — no transpose scratch. Both sides walk the shared
    /// dimension row-major, so each output element follows the canonical
    /// NT lane-split order (8 interleaved partial sums folded by the fixed
    /// reduction tree).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        out.reset(self.rows, other.rows);
        kernels::matmul_nt(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.rows,
        );
    }

    /// ReLU of `self` written into `out` (allocation-free twin of
    /// [`Matrix::relu_inplace`], with `self` untouched as the cached
    /// pre-activation).
    pub fn relu_into(&self, out: &mut Matrix) {
        out.reset(self.rows, self.cols);
        for (o, &v) in out.data.iter_mut().zip(&self.data) {
            *o = if v < 0.0 { 0.0 } else { v };
        }
    }

    /// [`Matrix::sum_rows`] written into `out`.
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.reset(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Column sums accumulated into a plain vector (bias-gradient form of
    /// [`Matrix::sum_rows_into`]); same accumulation order, so bit-identical
    /// to `sum_rows().as_slice()`.
    pub fn sum_rows_into_vec(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// [`Matrix::mean_rows`] written into `out`.
    pub fn mean_rows_into(&self, out: &mut Matrix) {
        self.sum_rows_into(out);
        if self.rows > 0 {
            out.scale(1.0 / self.rows as f32);
        }
    }

    /// [`Matrix::max_rows`] written into `(out, arg)`.
    pub fn max_rows_into(&self, out: &mut Matrix, arg: &mut Vec<usize>) {
        out.reset(1, self.cols);
        arg.clear();
        arg.resize(self.cols, 0);
        if self.rows == 0 {
            return;
        }
        out.data.copy_from_slice(self.row(0));
        for r in 1..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                if v > out.data[c] {
                    out.data[c] = v;
                    arg[c] = r;
                }
            }
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix[{}x{}]", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::LANES;

    fn m(r: usize, c: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(r, c, v.to_vec())
    }

    /// `a @ b` by the scalar oracle kernel, independent of `M3D_SIMD`.
    fn oracle_nn(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        let (n, k, m) = (a.rows, a.cols, b.cols);
        kernels::scalar::matmul_nn(&a.data, &b.data, &mut out.data, n, k, m, None, None);
        out
    }

    /// `aᵀ @ b` by the scalar oracle kernel.
    fn oracle_tn(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols, b.cols);
        kernels::scalar::matmul_tn(&a.data, &b.data, &mut out.data, a.cols, a.rows, b.cols);
        out
    }

    /// `a @ bᵀ` by the scalar oracle kernel.
    fn oracle_nt(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.rows);
        kernels::scalar::matmul_nt(&a.data, &b.data, &mut out.data, a.rows, a.cols, b.rows);
        out
    }

    #[test]
    fn has_non_finite_detects_nan_and_inf() {
        let mut a = m(2, 2, &[1., 2., 3., 4.]);
        assert!(!a.has_non_finite());
        a.set(1, 0, f32::NAN);
        assert!(a.has_non_finite());
        a.set(1, 0, f32::NEG_INFINITY);
        assert!(a.has_non_finite());
        assert!(!Matrix::zeros(0, 4).has_non_finite());
    }

    #[test]
    fn matmul_basic() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = oracle_nn(&a, &b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[1., 0., 0., 1., 1., 1.]);
        // aᵀ b where aᵀ is 2x3.
        let c = oracle_tn(&a, &b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        // aᵀ = [[1,3,5],[2,4,6]]; aᵀb = [[1+0+5, 0+3+5],[2+0+6, 0+4+6]]
        assert_eq!(c.as_slice(), &[6., 8., 8., 10.]);
    }

    #[test]
    fn matmul_nt_matches() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(2, 3, &[1., 1., 1., 0., 1., 0.]);
        let c = oracle_nt(&a, &b);
        assert_eq!(c.as_slice(), &[6., 2., 15., 5.]);
    }

    #[test]
    fn broadcast_and_scale() {
        let mut a = m(2, 2, &[1., 2., 3., 4.]);
        a.add_row_broadcast(&[10., 20.]);
        assert_eq!(a.as_slice(), &[11., 22., 13., 24.]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[5.5, 11., 6.5, 12.]);
    }

    #[test]
    fn relu_and_pre() {
        let mut a = m(1, 4, &[-1., 2., -3., 4.]);
        let pre = a.relu_inplace();
        assert_eq!(a.as_slice(), &[0., 2., 0., 4.]);
        assert_eq!(pre.as_slice(), &[-1., 2., -3., 4.]);
    }

    #[test]
    fn mean_and_sum_rows() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        assert_eq!(a.mean_rows().as_slice(), &[2., 3.]);
        assert_eq!(a.sum_rows().as_slice(), &[4., 6.]);
        assert_eq!(Matrix::zeros(0, 3).mean_rows().as_slice(), &[0., 0., 0.]);
    }

    #[test]
    fn xavier_deterministic_and_bounded() {
        let a = Matrix::xavier(8, 4, 3);
        let b = Matrix::xavier(8, 4, 3);
        assert_eq!(a, b);
        let bound = (6.0f32 / 12.0).sqrt();
        assert!(a.as_slice().iter().all(|v| v.abs() <= bound));
        assert!(a.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        m(2, 2, &[0.; 4]).matmul_into(&m(3, 1, &[0.; 3]), &mut Matrix::default());
    }

    #[test]
    fn try_from_vec_checks_length() {
        assert!(Matrix::try_from_vec(2, 2, vec![0.0; 4]).is_ok());
        let err = Matrix::try_from_vec(2, 3, vec![0.0; 4]).unwrap_err();
        assert_eq!(
            err,
            ShapeError {
                rows: 2,
                cols: 3,
                len: 4
            }
        );
        assert!(err.to_string().contains("needs 6 elements, got 4"));
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn from_vec_still_panics() {
        let _ = Matrix::from_vec(1, 2, vec![0.0; 3]);
    }

    /// Shapes straddling the register-tile edges (rows around the MR=4
    /// band, columns around the 8-lane groups and the NT 2-wide tiles) so
    /// every kernel runs both full and remainder paths.
    fn awkward_shapes() -> Vec<(usize, usize, usize)> {
        vec![
            (1, 1, 1),
            (3, 5, 2),
            (4, LANES, LANES),
            (5, LANES + 1, LANES - 1),
            (2 * LANES + 7, 33, 3 * LANES + 1),
            (600, 13, 64),
        ]
    }

    /// Deterministic matrix with zeros sprinkled in (exact zeros exercise
    /// the broadcast zero-skip: every backend must elide the same terms).
    fn patterned(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = Matrix::xavier(rows, cols, seed);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            if i % 7 == 0 {
                *v = 0.0;
            }
        }
        m
    }

    #[test]
    fn matmul_into_bit_identical_to_reference() {
        for (n, k, m2) in awkward_shapes() {
            let a = patterned(n, k, 1);
            let b = patterned(k, m2, 2);
            let reference = oracle_nn(&a, &b);
            let mut out = Matrix::default();
            a.matmul_into(&b, &mut out);
            assert_eq!(out, reference, "{n}x{k}x{m2}");
        }
    }

    #[test]
    fn matmul_tn_into_bit_identical_to_reference() {
        for (n, k, m2) in awkward_shapes() {
            let a = patterned(k, n, 3);
            let b = patterned(k, m2, 4);
            let reference = oracle_tn(&a, &b);
            let mut out = Matrix::default();
            a.matmul_tn_into(&b, &mut out);
            assert_eq!(out, reference, "{n}x{k}x{m2}");
        }
    }

    #[test]
    fn matmul_nt_into_bit_identical_to_reference() {
        for (n, k, m2) in awkward_shapes() {
            let a = patterned(n, k, 5);
            let b = patterned(m2, k, 6);
            let reference = oracle_nt(&a, &b);
            let mut out = Matrix::default();
            a.matmul_nt_into(&b, &mut out);
            assert_eq!(out, reference, "{n}x{k}x{m2}");
        }
    }

    #[test]
    fn fused_bias_bit_identical_to_two_pass() {
        for (n, k, m2) in awkward_shapes() {
            let a = patterned(n, k, 7);
            let b = patterned(k, m2, 8);
            let bias: Vec<f32> = Matrix::xavier(1, m2, 9).as_slice().to_vec();
            let mut reference = oracle_nn(&a, &b);
            reference.add_row_broadcast(&bias);
            let mut out = Matrix::default();
            a.matmul_bias_into(&b, &bias, &mut out);
            assert_eq!(out, reference, "{n}x{k}x{m2}");
        }
    }

    #[test]
    fn fused_bias_relu_bit_identical_to_three_pass() {
        for (n, k, m2) in awkward_shapes() {
            let a = patterned(n, k, 10);
            let b = patterned(k, m2, 11);
            let bias: Vec<f32> = Matrix::xavier(1, m2, 12).as_slice().to_vec();
            let mut z_ref = oracle_nn(&a, &b);
            z_ref.add_row_broadcast(&bias);
            let mut h_ref = Matrix::default();
            z_ref.relu_into(&mut h_ref);
            let (mut z, mut h) = (Matrix::default(), Matrix::default());
            a.matmul_bias_relu_into(&b, &bias, &mut z, &mut h);
            assert_eq!(z, z_ref, "z {n}x{k}x{m2}");
            assert_eq!(h, h_ref, "h {n}x{k}x{m2}");
        }
    }

    #[test]
    fn fused_relu_preserves_nan_and_negative_zero() {
        // One column, identity-ish product: z = a * 1.0 + 0.0 bias.
        let a = m(4, 1, &[f32::NAN, -0.0, f32::NEG_INFINITY, 2.0]);
        let b = m(1, 1, &[1.0]);
        let (mut z, mut h) = (Matrix::default(), Matrix::default());
        a.matmul_bias_relu_into(&b, &[0.0], &mut z, &mut h);
        assert!(z.get(0, 0).is_nan());
        assert!(h.get(0, 0).is_nan(), "fused ReLU must propagate NaN");
        // -0.0 * 1.0 + 0.0 == +0.0: the bias add normalizes the sign as the
        // unfused add_row_broadcast would.
        assert_eq!(h.get(1, 0).to_bits(), 0.0f32.to_bits());
        assert_eq!(h.get(2, 0), 0.0, "-inf rectifies to 0");
        assert_eq!(h.get(3, 0), 2.0);
    }

    #[test]
    fn into_kernels_reuse_capacity_across_shrinking_shapes() {
        let big_a = Matrix::xavier(64, 32, 7);
        let big_b = Matrix::xavier(32, 48, 8);
        let mut out = Matrix::default();
        big_a.matmul_into(&big_b, &mut out);
        let small_a = Matrix::xavier(2, 3, 9);
        let small_b = Matrix::xavier(3, 4, 10);
        // Stale contents from the big product must not leak into the small.
        big_a.matmul_into(&big_b, &mut out);
        small_a.matmul_into(&small_b, &mut out);
        assert_eq!(out, oracle_nn(&small_a, &small_b));
    }

    #[test]
    fn relu_into_matches_relu_inplace() {
        let src = m(1, 4, &[-1., 2., -3., 4.]);
        let mut dst = Matrix::default();
        src.relu_into(&mut dst);
        let mut inplace = src.clone();
        let pre = inplace.relu_inplace();
        assert_eq!(dst, inplace);
        assert_eq!(pre, src);
    }

    #[test]
    fn row_reductions_into_match_reference() {
        let a = patterned(9, 5, 12);
        let (mut sum, mut mean, mut mx) = (Matrix::default(), Matrix::default(), Matrix::default());
        let mut arg = Vec::new();
        let mut vec_sum = Vec::new();
        a.sum_rows_into(&mut sum);
        a.sum_rows_into_vec(&mut vec_sum);
        a.mean_rows_into(&mut mean);
        a.max_rows_into(&mut mx, &mut arg);
        assert_eq!(sum, a.sum_rows());
        assert_eq!(vec_sum.as_slice(), a.sum_rows().as_slice());
        assert_eq!(mean, a.mean_rows());
        let (rmx, rarg) = a.max_rows();
        assert_eq!(mx, rmx);
        assert_eq!(arg, rarg);
        // Zero-row edge case mirrors the reference.
        let empty = Matrix::zeros(0, 3);
        empty.mean_rows_into(&mut mean);
        assert_eq!(mean, empty.mean_rows());
        empty.max_rows_into(&mut mx, &mut arg);
        assert_eq!(mx.as_slice(), &[0., 0., 0.]);
    }

    #[test]
    fn reset_keeps_capacity() {
        let mut a = Matrix::zeros(10, 10);
        let cap = {
            a.reset(3, 2);
            assert_eq!((a.rows(), a.cols()), (3, 2));
            assert!(a.as_slice().iter().all(|&v| v == 0.0));
            a.data.capacity()
        };
        a.reset(10, 10);
        assert_eq!(a.data.capacity(), cap, "reset must not reallocate");
    }
}
