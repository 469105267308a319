//! The default vector backend: row-axpy kernels written as unit-stride
//! slice loops the stable-Rust autovectorizer lowers to packed mul+add
//! (no FMA contraction — Rust never fuses `a * b + c` — so results stay
//! bit-identical to [`super::scalar`]).
//!
//! # Structure
//!
//! NN/TN/spmm stream whole output rows: each shared-dimension step
//! broadcasts one `a` (or CSR weight) scalar against a full unit-stride
//! `b`/`x` row and accumulates into the output row. Per output element
//! that is exactly the canonical order — the shared dimension ascends,
//! and the broadcast-`A` zero-skip elides a whole `m`-wide axpy with a
//! single branch, which is what makes ReLU-sparse activations cheap.
//! NN additionally holds `JB`-column output chunks in registers across
//! the entire `k` loop (a register-resident axpy: no output-row
//! load/store traffic per step), falling back to the in-memory row
//! axpy for the `m % JB` tail.
//! NT keeps [`LANES`] interleaved lane sums per output element folded
//! by [`reduce8`], in 2×2 register tiles.
//!
//! # Runtime AVX2 twin
//!
//! Every kernel body is an `#[inline(always)]` `*_impl` compiled twice:
//! once at the portable baseline ISA and once inlined into a
//! `#[target_feature(enable = "avx2")]` shell picked at runtime when the
//! CPU has AVX2. The twin runs the *same* Rust code — the feature gate
//! only widens the autovectorizer's registers to 256 bits and never
//! enables FMA — so both copies round identically and the backend stays
//! bit-identical to the scalar spec either way.

// SAFETY: the only unsafe here is calling the `#[target_feature]` AVX2
// shells, and every call site is gated on runtime AVX2 detection.
#![allow(unsafe_code)]

use super::{reduce8, LANES};

/// Whether the AVX2-compiled twins may be called (cached detection).
#[cfg(target_arch = "x86_64")]
#[inline]
fn wide() -> bool {
    use std::sync::OnceLock;
    static WIDE: OnceLock<bool> = OnceLock::new();
    *WIDE.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// `out[n×m] = A[n×kk]·B[kk×m]` (+ optional bias row / fused ReLU).
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_nn(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    n: usize,
    kk: usize,
    m: usize,
    bias: Option<&[f32]>,
    relu_out: Option<&mut [f32]>,
) {
    #[cfg(target_arch = "x86_64")]
    if wide() {
        // SAFETY: `wide()` confirmed AVX2 support.
        unsafe { nn_avx2(a, b, out, n, kk, m, bias, relu_out) };
        return;
    }
    nn_impl(a, b, out, n, kk, m, bias, relu_out);
}

/// # Safety
/// The CPU must support AVX2 (checked by [`wide`]).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn nn_avx2(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    n: usize,
    kk: usize,
    m: usize,
    bias: Option<&[f32]>,
    relu_out: Option<&mut [f32]>,
) {
    nn_impl(a, b, out, n, kk, m, bias, relu_out);
}

/// Output columns per NN register block: a `[f32; JB]` accumulator the
/// backend keeps in 4 YMM (or 8 XMM) registers across the whole `k`
/// loop, so dense rows pay no out-row traffic per step while a single
/// `av != 0.0` branch still skips the block's whole step when sparse.
const JB: usize = 32;

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn nn_impl(
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
        let mut jt = 0;
        while jt + JB <= m {
            let mut acc = [0.0f32; JB];
            for (k, &av) in arow.iter().enumerate() {
                if av != 0.0 {
                    let bseg = &b[k * m + jt..k * m + jt + JB];
                    for (o, &x) in acc.iter_mut().zip(bseg) {
                        *o += av * x;
                    }
                }
            }
            if let Some(bias) = bias {
                for (o, &bv) in acc.iter_mut().zip(&bias[jt..jt + JB]) {
                    *o += bv;
                }
            }
            out[i * m + jt..i * m + jt + JB].copy_from_slice(&acc);
            if let Some(h) = relu_out.as_deref_mut() {
                for (hv, &z) in h[i * m + jt..i * m + jt + JB].iter_mut().zip(&acc) {
                    *hv = if z < 0.0 { 0.0 } else { z };
                }
            }
            jt += JB;
        }
        if jt < m {
            let orow = &mut out[i * m + jt..(i + 1) * m];
            orow.fill(0.0);
            for (k, &av) in arow.iter().enumerate() {
                if av != 0.0 {
                    let bseg = &b[k * m + jt..(k + 1) * m];
                    for (o, &x) in orow.iter_mut().zip(bseg) {
                        *o += av * x;
                    }
                }
            }
            if let Some(bias) = bias {
                for (o, &bv) in orow.iter_mut().zip(&bias[jt..]) {
                    *o += bv;
                }
            }
            if let Some(h) = relu_out.as_deref_mut() {
                for (hv, &z) in h[i * m + jt..(i + 1) * m].iter_mut().zip(&*orow) {
                    *hv = if z < 0.0 { 0.0 } else { z };
                }
            }
        }
    }
}

/// `out[n×m] = A[kk×n]ᵀ·B[kk×m]`: the shared dimension is A's row axis,
/// so each step reads a *contiguous* `A` row as the broadcast column —
/// no transpose copy, same per-element order and zero-skip as NN.
pub(crate) fn matmul_tn(a: &[f32], b: &[f32], out: &mut [f32], n: usize, kk: usize, m: usize) {
    #[cfg(target_arch = "x86_64")]
    if wide() {
        // SAFETY: `wide()` confirmed AVX2 support.
        unsafe { tn_avx2(a, b, out, n, kk, m) };
        return;
    }
    tn_impl(a, b, out, n, kk, m);
}

/// # Safety
/// The CPU must support AVX2 (checked by [`wide`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tn_avx2(a: &[f32], b: &[f32], out: &mut [f32], n: usize, kk: usize, m: usize) {
    tn_impl(a, b, out, n, kk, m);
}

#[inline(always)]
fn tn_impl(a: &[f32], b: &[f32], out: &mut [f32], n: usize, kk: usize, m: usize) {
    out[..n * m].fill(0.0);
    for r in 0..kk {
        let acol = &a[r * n..(r + 1) * n];
        let brow = &b[r * m..(r + 1) * m];
        for (i, &av) in acol.iter().enumerate() {
            if av != 0.0 {
                let orow = &mut out[i * m..(i + 1) * m];
                for (o, &x) in orow.iter_mut().zip(brow) {
                    *o += av * x;
                }
            }
        }
    }
}

/// A-rows / B-rows per NT register tile (`2×2` tiles of `[f32; LANES]`
/// lane accumulators = 8 XMM registers under the SSE2 baseline).
const NT_TILE: usize = 2;

/// `out[n×m] = A[n×kk]·B[m×kk]ᵀ` streaming B rows directly. Each
/// output element keeps [`LANES`] interleaved partial sums over `k`
/// folded by [`reduce8`] — the canonical NT lane split.
pub(crate) fn matmul_nt(a: &[f32], b: &[f32], out: &mut [f32], n: usize, kk: usize, m: usize) {
    #[cfg(target_arch = "x86_64")]
    if wide() {
        // SAFETY: `wide()` confirmed AVX2 support.
        unsafe { nt_avx2(a, b, out, n, kk, m) };
        return;
    }
    nt_impl(a, b, out, n, kk, m);
}

/// # Safety
/// The CPU must support AVX2 (checked by [`wide`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn nt_avx2(a: &[f32], b: &[f32], out: &mut [f32], n: usize, kk: usize, m: usize) {
    nt_impl(a, b, out, n, kk, m);
}

#[inline(always)]
fn nt_impl(a: &[f32], b: &[f32], out: &mut [f32], n: usize, kk: usize, m: usize) {
    let mut it = 0;
    while it + NT_TILE <= n {
        nt_cols::<NT_TILE>(a, b, out, kk, m, it);
        it += NT_TILE;
    }
    while it < n {
        nt_cols::<1>(a, b, out, kk, m, it);
        it += 1;
    }
}

#[inline(always)]
fn nt_cols<const R: usize>(a: &[f32], b: &[f32], out: &mut [f32], kk: usize, m: usize, it: usize) {
    let mut jt = 0;
    while jt + NT_TILE <= m {
        nt_tile::<R, NT_TILE>(a, b, out, kk, m, it, jt);
        jt += NT_TILE;
    }
    while jt < m {
        nt_tile::<R, 1>(a, b, out, kk, m, it, jt);
        jt += 1;
    }
}

// The tile indexes parallel arrays (`acc[r][c]`, `arows[r]`, `brows[c]`)
// by one loop variable; indexed loops keep that pairing visible.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn nt_tile<const R: usize, const C: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    kk: usize,
    m: usize,
    it: usize,
    jt: usize,
) {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[(it + r) * kk..(it + r + 1) * kk]);
    let brows: [&[f32]; C] = std::array::from_fn(|c| &b[(jt + c) * kk..(jt + c + 1) * kk]);
    let mut acc = [[[0.0f32; LANES]; C]; R];
    let full = kk - kk % LANES;
    let mut base = 0;
    while base < full {
        let av: [[f32; LANES]; R] =
            std::array::from_fn(|r| arows[r][base..base + LANES].try_into().expect("lane slice"));
        let bv: [[f32; LANES]; C] =
            std::array::from_fn(|c| brows[c][base..base + LANES].try_into().expect("lane slice"));
        for r in 0..R {
            for c in 0..C {
                for l in 0..LANES {
                    acc[r][c][l] += av[r][l] * bv[c][l];
                }
            }
        }
        base += LANES;
    }
    for k in full..kk {
        let l = k % LANES;
        for r in 0..R {
            for c in 0..C {
                acc[r][c][l] += arows[r][k] * brows[c][k];
            }
        }
    }
    for r in 0..R {
        for c in 0..C {
            out[(it + r) * m + jt + c] = reduce8(acc[r][c]);
        }
    }
}

/// CSR `out[n×m] = Â·X`: neighbors stream in CSR order, each one an
/// `m`-wide weighted axpy into the output row — per-element order
/// identical to the scalar spec (dense: the weights are normalization
/// coefficients, never zero).
pub(crate) fn spmm(
    indptr: &[u32],
    indices: &[u32],
    values: &[f32],
    x: &[f32],
    out: &mut [f32],
    n: usize,
    m: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if wide() {
        // SAFETY: `wide()` confirmed AVX2 support.
        unsafe { spmm_avx2(indptr, indices, values, x, out, n, m) };
        return;
    }
    spmm_impl(indptr, indices, values, x, out, n, m);
}

/// # Safety
/// The CPU must support AVX2 (checked by [`wide`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn spmm_avx2(
    indptr: &[u32],
    indices: &[u32],
    values: &[f32],
    x: &[f32],
    out: &mut [f32],
    n: usize,
    m: usize,
) {
    spmm_impl(indptr, indices, values, x, out, n, m);
}

#[inline(always)]
fn spmm_impl(
    indptr: &[u32],
    indices: &[u32],
    values: &[f32],
    x: &[f32],
    out: &mut [f32],
    n: usize,
    m: usize,
) {
    for i in 0..n {
        let orow = &mut out[i * m..(i + 1) * m];
        orow.fill(0.0);
        for k in indptr[i] as usize..indptr[i + 1] as usize {
            let w = values[k];
            let xrow = &x[indices[k] as usize * m..][..m];
            for (o, &xv) in orow.iter_mut().zip(xrow) {
                *o += w * xv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The AVX2-compiled twin is the same code and must agree bitwise
    /// with the baseline compilation on sparse, denormal-free input.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_twin_is_bit_identical_to_baseline() {
        if !wide() {
            return;
        }
        let (n, kk, m) = (23, 17, 29);
        let a: Vec<f32> = (0..n * kk)
            .map(|i| {
                if i % 5 == 0 {
                    0.0
                } else {
                    ((i * 37 % 97) as f32 - 48.0) / 17.0
                }
            })
            .collect();
        let b: Vec<f32> = (0..kk * m)
            .map(|i| ((i * 53 % 89) as f32 - 44.0) / 13.0)
            .collect();
        let mut base = vec![0.0f32; n * m];
        let mut twin = vec![0.0f32; n * m];
        nn_impl(&a, &b, &mut base, n, kk, m, None, None);
        // SAFETY: `wide()` confirmed AVX2 support.
        unsafe { nn_avx2(&a, &b, &mut twin, n, kk, m, None, None) };
        for (i, (x, y)) in base.iter().zip(&twin).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "NN twin diverges at {i}");
        }
    }
}
