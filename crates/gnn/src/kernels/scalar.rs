//! The canonical scalar backend: the executable specification of the
//! lane-order contract (see the module docs of [`super`]).
//!
//! Plain loops, no blocking. The vector backend must match these
//! kernels bit-for-bit. They are the kernel oracle: tests call them
//! directly (independent of the `M3D_SIMD` dispatch) or force the
//! `Scalar` backend.

use super::{reduce8, LANES};

/// `out[n×m] = A[n×kk]·B[kk×m]` (+ optional bias row / fused ReLU).
///
/// Per output element: products accumulate in ascending `k` from
/// `+0.0`, **skipping** terms whose broadcast `A` element is exactly
/// zero (`av != 0.0`; ±0.0 both skip, `NaN` in `A` still propagates).
/// ReLU-sparse activations make this elision the dominant win on real
/// training data. Bias is added once after the sum, ReLU written as
/// `if z < 0.0 { 0.0 } else { z }`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_nn(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    n: usize,
    kk: usize,
    m: usize,
    bias: Option<&[f32]>,
    mut relu_out: Option<&mut [f32]>,
) {
    for i in 0..n {
        let arow = &a[i * kk..(i + 1) * kk];
        let orow = &mut out[i * m..(i + 1) * m];
        for j in 0..m {
            let mut acc = 0.0f32;
            for (k, &av) in arow.iter().enumerate() {
                if av != 0.0 {
                    acc += av * b[k * m + j];
                }
            }
            if let Some(bias) = bias {
                acc += bias[j];
            }
            orow[j] = acc;
        }
        if let Some(h) = relu_out.as_deref_mut() {
            let hrow = &mut h[i * m..(i + 1) * m];
            for j in 0..m {
                let z = orow[j];
                hrow[j] = if z < 0.0 { 0.0 } else { z };
            }
        }
    }
}

/// `out[n×m] = A[kk×n]ᵀ·B[kk×m]`: per element, ascending shared-dim
/// `r` from `+0.0` with the same broadcast-`A` zero-skip as
/// [`matmul_nn`], reading both operands strided (no transpose copy).
pub(crate) fn matmul_tn(a: &[f32], b: &[f32], out: &mut [f32], n: usize, kk: usize, m: usize) {
    for i in 0..n {
        for j in 0..m {
            let mut acc = 0.0f32;
            for r in 0..kk {
                let av = a[r * n + i];
                if av != 0.0 {
                    acc += av * b[r * m + j];
                }
            }
            out[i * m + j] = acc;
        }
    }
}

/// `out[n×m] = A[n×kk]·B[m×kk]ᵀ`: both operands stream rows over `k`,
/// so one output element consumes the whole shared dimension. The
/// contract splits `k` into [`LANES`] interleaved partial sums
/// (`k % 8` picks the lane, each lane ascending from `+0.0`) combined
/// by the fixed [`reduce8`] tree — exactly what the 8-wide backends do
/// in registers.
pub(crate) fn matmul_nt(a: &[f32], b: &[f32], out: &mut [f32], n: usize, kk: usize, m: usize) {
    for i in 0..n {
        let arow = &a[i * kk..(i + 1) * kk];
        for j in 0..m {
            let brow = &b[j * kk..(j + 1) * kk];
            let mut lanes = [0.0f32; LANES];
            for (k, (&x, &y)) in arow.iter().zip(brow.iter()).enumerate() {
                lanes[k % LANES] += x * y;
            }
            out[i * m + j] = reduce8(lanes);
        }
    }
}

/// CSR `out[n×m] = Â·X`: per output element, neighbors accumulate in
/// CSR (ascending-column) order from `+0.0`, no zero-skip.
pub(crate) fn spmm(
    indptr: &[u32],
    indices: &[u32],
    values: &[f32],
    x: &[f32],
    out: &mut [f32],
    n: usize,
    m: usize,
) {
    for i in 0..n {
        let (s, e) = (indptr[i] as usize, indptr[i + 1] as usize);
        let orow = &mut out[i * m..(i + 1) * m];
        for j in 0..m {
            let mut acc = 0.0f32;
            for k in s..e {
                acc += values[k] * x[indices[k] as usize * m + j];
            }
            orow[j] = acc;
        }
    }
}
