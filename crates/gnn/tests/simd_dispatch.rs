//! Integration tests of the kernel-backend dispatch (`M3D_SIMD`): env
//! resolution and the bit-identity contract between the scalar and vector
//! backends.

use m3d_gnn::{force_simd_mode, kernel_flops, simd_mode, Matrix, SimdMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serializes tests that force the global kernel backend, so one test's
/// forced window can't leak into another's measurements.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under a forced backend (or restored env dispatch for `None`),
/// with the force window held under [`MODE_LOCK`].
fn with_mode<T>(mode: Option<SimdMode>, f: impl FnOnce() -> T) -> T {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            force_simd_mode(None);
        }
    }
    let _restore = Restore;
    force_simd_mode(mode);
    f()
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

/// `simd_mode` resolves the process environment per the documented table
/// and keeps returning the same answer (the resolution is one-shot).
#[test]
fn env_dispatch_matches_documented_table_and_is_stable() {
    let expected = match std::env::var(m3d_gnn::SIMD_ENV)
        .ok()
        .as_deref()
        .map(str::trim)
    {
        Some("off") | Some("scalar") => SimdMode::Scalar,
        _ => SimdMode::Vector,
    };
    let (first, second) = with_mode(None, || (simd_mode(), simd_mode()));
    assert_eq!(first, expected, "env resolution diverged from the table");
    assert_eq!(second, expected, "dispatch is not stable across calls");
}

/// The scalar and vector backends are bit-identical on every kernel in
/// the family — the heart of the canonical lane-order contract.
#[test]
fn scalar_and_vector_backends_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0x51D);
    let a = random_matrix(&mut rng, 37, 19);
    let b = random_matrix(&mut rng, 19, 21);
    let c = random_matrix(&mut rng, 37, 21);
    let d = random_matrix(&mut rng, 21, 19);
    let bias: Vec<f32> = (0..21).map(|_| rng.gen_range(-0.5..0.5)).collect();

    let run = |mode: SimdMode| {
        with_mode(Some(mode), || {
            let mut nn = Matrix::default();
            let mut tn = Matrix::default();
            let mut nt = Matrix::default();
            let mut z = Matrix::default();
            let mut h = Matrix::default();
            a.matmul_into(&b, &mut nn);
            a.matmul_tn_into(&c, &mut tn);
            a.matmul_nt_into(&d, &mut nt);
            a.matmul_bias_relu_into(&b, &bias, &mut z, &mut h);
            (nn, tn, nt, z, h)
        })
    };
    let scalar = run(SimdMode::Scalar);
    let vector = run(SimdMode::Vector);
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&vector.0), bits(&scalar.0), "NN kernels diverge");
    assert_eq!(bits(&vector.1), bits(&scalar.1), "TN kernels diverge");
    assert_eq!(bits(&vector.2), bits(&scalar.2), "NT kernels diverge");
    assert_eq!(bits(&vector.3), bits(&scalar.3), "fused z diverges");
    assert_eq!(bits(&vector.4), bits(&scalar.4), "fused relu diverges");
}

/// Kernel FLOPs accumulate monotonically with known per-op increments.
#[test]
fn kernel_flops_counter_accumulates() {
    let a = Matrix::from_vec(4, 3, vec![1.0; 12]);
    let b = Matrix::from_vec(3, 5, vec![1.0; 15]);
    let before = kernel_flops();
    a.matmul_into(&b, &mut Matrix::default());
    let after = kernel_flops();
    assert!(
        after >= before + 2 * 4 * 3 * 5,
        "matmul must add 2·n·k·m flops (before {before}, after {after})"
    );
}
