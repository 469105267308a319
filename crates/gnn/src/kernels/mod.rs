//! SIMD dense-kernel backends and their dispatch.
//!
//! # The canonical numeric contract (lane-order)
//!
//! Both matmul/spmm backends — scalar and 8-lane vector — produce
//! **bit-identical** `f32` results for the same inputs. The contract
//! that makes this possible fixes the *accumulation order* per output
//! element:
//!
//! * **NN** (`A·B`), **TN** (`Aᵀ·B`) and **spmm** (`Â·X`): each output
//!   element accumulates its shared-dimension products in strictly
//!   ascending order from `+0.0`. The vector kernels broadcast one `a`
//!   scalar against a full unit-stride `b` row (an `m`-wide axpy into
//!   the output row), so every column is an independent output element
//!   and the per-element order is exactly the scalar order. NN and TN
//!   **skip** any term whose broadcast `A` element is exactly zero
//!   (`av != 0.0`, so ±0.0 both skip and `NaN` in `A` still
//!   propagates) — ReLU-sparse activations and sparse circuit features
//!   make most products zero, one branch elides a whole row of work,
//!   and both backends elide the identical set, so bit-identity is
//!   unaffected. spmm stays dense (its values are normalization
//!   weights, never zero in practice).
//! * **NT** (`A·Bᵀ`): both operands are row-major over `k`, so one
//!   output element consumes 8 lanes at once. The contract splits `k`
//!   into [`LANES`] interleaved partial sums (`k % 8` picks the lane),
//!   each accumulated in ascending `k` from `+0.0`, then combines them
//!   with the fixed tree reduction [`reduce8`]. The scalar backend
//!   reproduces that split-and-tree order literally.
//! * **Epilogues**: a fused bias adds `bias[j]` once *after* the full
//!   sum; a fused ReLU writes `if z < 0.0 { 0.0 } else { z }` (which
//!   preserves `NaN` and `-0.0` exactly like the standalone pass did).
//!
//! # Dispatch (`M3D_SIMD`)
//!
//! | value            | backend                                        |
//! |------------------|------------------------------------------------|
//! | *(unset)*, `on`  | `Vector` — 8-lane unrolled, autovectorized     |
//! | `off`, `scalar`  | `Scalar` — plain loops, same order             |
//!
//! Any other value warns and uses `Vector`. The selected backend is
//! logged once (at `info` level) on first use. The `Vector` backend
//! compiles each kernel body twice — baseline ISA and an AVX2-target
//! twin picked by runtime detection. The twin is the same Rust code
//! (the feature gate widens registers, never enables FMA), so it stays
//! bit-identical and needs no opt-in.
//!
//! [`scalar`] is the oracle: tests call it directly or force the
//! `Scalar` backend, and every public kernel — training and inference
//! alike — runs through the dispatch below.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

pub(crate) mod scalar;
pub(crate) mod vector;

/// Environment variable selecting the kernel backend
/// (`off|scalar|on`; unset means the default `Vector` backend).
pub const SIMD_ENV: &str = "M3D_SIMD";

/// Vector width of the canonical kernels: both backends work in 8-wide
/// `f32` groups (an unrolled `[f32; 8]` the autovectorizer lowers to one
/// AVX2 register or two SSE registers).
pub const LANES: usize = 8;

/// The kernel backend executing the dense/spmm hot paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdMode {
    /// Plain scalar loops reproducing the canonical lane order.
    Scalar,
    /// 8-lane unrolled-array kernels (stable Rust, autovectorized).
    /// Bit-identical to `Scalar`. The default.
    Vector,
}

impl SimdMode {
    /// Short lowercase name as accepted by [`SIMD_ENV`].
    pub fn name(self) -> &'static str {
        match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Vector => "vector",
        }
    }
}

impl std::fmt::Display for SimdMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Pure resolution of a [`SIMD_ENV`] spec to a mode, plus an optional
/// warning explaining a fallback. `None` means the variable was unset.
pub(crate) fn resolve_spec(spec: Option<&str>) -> (SimdMode, Option<String>) {
    match spec.map(str::trim) {
        None | Some("") | Some("on") | Some("vector") | Some("auto") => (SimdMode::Vector, None),
        Some("off") | Some("scalar") => (SimdMode::Scalar, None),
        Some(other) => (
            SimdMode::Vector,
            Some(format!(
                "unknown {SIMD_ENV}={other:?} (expected off|scalar|on); using vector backend"
            )),
        ),
    }
}

/// 0 = no override; otherwise `SimdMode as u8 + 1`.
static MODE_OVERRIDE: AtomicU8 = AtomicU8::new(0);
static ENV_MODE: OnceLock<SimdMode> = OnceLock::new();

/// The kernel backend in effect for every dense/spmm kernel.
///
/// Resolved once from [`SIMD_ENV`] (logging the selection), unless a
/// test/bench override installed via `force_simd_mode` is active.
pub fn simd_mode() -> SimdMode {
    match MODE_OVERRIDE.load(Ordering::Relaxed) {
        1 => return SimdMode::Scalar,
        2 => return SimdMode::Vector,
        _ => {}
    }
    *ENV_MODE.get_or_init(|| {
        let spec = std::env::var(SIMD_ENV).ok();
        let (mode, warning) = resolve_spec(spec.as_deref());
        if let Some(w) = warning {
            m3d_obs::warn!("gnn.kernels: {w}");
        }
        m3d_obs::info!("gnn.kernels: SIMD dispatch = {mode} (set {SIMD_ENV} to override)");
        mode
    })
}

/// Force the kernel backend for tests and benches, bypassing the env
/// resolution. `None` restores env-driven dispatch.
#[doc(hidden)]
pub fn force_simd_mode(mode: Option<SimdMode>) {
    let code = match mode {
        None => 0,
        Some(SimdMode::Scalar) => 1,
        Some(SimdMode::Vector) => 2,
    };
    MODE_OVERRIDE.store(code, Ordering::Relaxed);
}

/// Cumulative multiply-add FLOPs executed by the kernel family
/// (2·n·k·m per dense matmul, 2·nnz·m per spmm), process-wide.
static FLOPS: AtomicU64 = AtomicU64::new(0);

#[inline]
pub(crate) fn add_flops(n: u64) {
    FLOPS.fetch_add(n, Ordering::Relaxed);
}

/// Total kernel FLOPs executed so far in this process. Stage drivers
/// snapshot this before/after and flush the delta as a
/// `gnn.kernel.flops.<stage>` obs counter, from which `obsctl
/// summarize` derives effective GFLOP/s.
pub fn kernel_flops() -> u64 {
    FLOPS.load(Ordering::Relaxed)
}

/// The canonical NT lane combine: a fixed binary tree over the 8
/// interleaved partial sums, folding the high half onto the low half at
/// each level (8 → 4 → 2 → 1). Both backends call this one function.
#[inline(always)]
pub(crate) fn reduce8(l: [f32; 8]) -> f32 {
    let s0 = l[0] + l[4];
    let s1 = l[1] + l[5];
    let s2 = l[2] + l[6];
    let s3 = l[3] + l[7];
    (s0 + s2) + (s1 + s3)
}

/// Dense `out[n×m] = A[n×kk] · B[kk×m]` with optional fused epilogues,
/// dispatched on [`simd_mode`]. `bias` (length `m`) is added once after
/// the full sum; when `relu_out` is given it receives
/// `max(0, out)`-with-NaN-kept while `out` keeps the pre-activation.
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
    add_flops(2 * (n * kk * m) as u64);
    match simd_mode() {
        SimdMode::Scalar => scalar::matmul_nn(a, b, out, n, kk, m, bias, relu_out),
        SimdMode::Vector => vector::matmul_nn(a, b, out, n, kk, m, bias, relu_out),
    }
}

/// Dense `out[n×m] = A[kk×n]ᵀ · B[kk×m]`, dispatched on [`simd_mode`].
pub(crate) fn matmul_tn(a: &[f32], b: &[f32], out: &mut [f32], n: usize, kk: usize, m: usize) {
    add_flops(2 * (n * kk * m) as u64);
    match simd_mode() {
        SimdMode::Scalar => scalar::matmul_tn(a, b, out, n, kk, m),
        SimdMode::Vector => vector::matmul_tn(a, b, out, n, kk, m),
    }
}

/// Dense `out[n×m] = A[n×kk] · B[m×kk]ᵀ` streaming B rows directly (no
/// transpose scratch), dispatched on [`simd_mode`].
pub(crate) fn matmul_nt(a: &[f32], b: &[f32], out: &mut [f32], n: usize, kk: usize, m: usize) {
    add_flops(2 * (n * kk * m) as u64);
    match simd_mode() {
        SimdMode::Scalar => scalar::matmul_nt(a, b, out, n, kk, m),
        SimdMode::Vector => vector::matmul_nt(a, b, out, n, kk, m),
    }
}

/// Sparse·dense `out[n×m] = Â · X` over the CSR triplet, dispatched on
/// [`simd_mode`]. `nnz_flops` pre-computed by the caller as 2·nnz·m.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spmm(
    indptr: &[u32],
    indices: &[u32],
    values: &[f32],
    x: &[f32],
    out: &mut [f32],
    n: usize,
    m: usize,
    nnz_flops: u64,
) {
    add_flops(nnz_flops);
    match simd_mode() {
        SimdMode::Scalar => scalar::spmm(indptr, indices, values, x, out, n, m),
        SimdMode::Vector => vector::spmm(indptr, indices, values, x, out, n, m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_resolution_table() {
        assert_eq!(resolve_spec(None), (SimdMode::Vector, None));
        assert_eq!(resolve_spec(Some("")), (SimdMode::Vector, None));
        assert_eq!(resolve_spec(Some("on")), (SimdMode::Vector, None));
        assert_eq!(resolve_spec(Some("vector")), (SimdMode::Vector, None));
        assert_eq!(resolve_spec(Some("off")), (SimdMode::Scalar, None));
        assert_eq!(resolve_spec(Some("scalar")), (SimdMode::Scalar, None));
        for unknown in ["avx2", "bogus"] {
            let (mode, warn) = resolve_spec(Some(unknown));
            assert_eq!(mode, SimdMode::Vector);
            assert!(warn.expect("unknown spec warns").contains(unknown));
        }
    }

    #[test]
    fn reduce8_is_the_fixed_tree() {
        let l = [1.0f32, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        let expect = ((1.0f32 + 16.0) + (4.0 + 64.0)) + ((2.0 + 32.0) + (8.0 + 128.0));
        assert_eq!(reduce8(l).to_bits(), expect.to_bits());
    }

    #[test]
    fn flops_accumulate() {
        let before = kernel_flops();
        add_flops(123);
        assert!(kernel_flops() >= before + 123);
    }
}
