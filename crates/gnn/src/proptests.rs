//! Property-based tests for the numeric core (proptest).

#![cfg(test)]

use crate::graph::{Graph, NormAdj};
use crate::kernels::{force_simd_mode, SimdMode};
use crate::loss::{cross_entropy, cross_entropy_into, softmax_row};
use crate::matrix::Matrix;
use proptest::prelude::*;
use std::sync::Mutex;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// A matrix with exact zeros sprinkled in: the canonical contract skips
/// broadcast-`A` zeros in NN/TN, so every backend must elide the same
/// terms and still agree bitwise.
fn sparse_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    matrix(rows, cols).prop_map(|mut m| {
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }
        m
    })
}

/// Matrix entries including the values that break naive SIMD rewrites:
/// NaN, ±Inf, and `-0.0` alongside ordinary finite floats. The chaos
/// `MustDegrade` contracts rely on non-finite values propagating through
/// the kernels unchanged, whichever backend runs.
fn wild_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(
        prop_oneof![
            10 => -2.0f32..2.0,
            1 => Just(0.0f32),
            1 => Just(-0.0f32),
            1 => Just(f32::NAN),
            1 => Just(f32::INFINITY),
            1 => Just(f32::NEG_INFINITY),
        ],
        rows * cols,
    )
    .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Serializes tests that force the kernel backend. Scalar and vector are
/// bit-identical by contract, so a concurrent test observing a forced
/// mode still computes identical results — the lock only keeps the
/// force/restore windows from interleaving.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under a forced kernel backend, restoring env dispatch after.
fn with_mode<T>(mode: SimdMode, f: impl FnOnce() -> T) -> T {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            force_simd_mode(None);
        }
    }
    let _restore = Restore;
    force_simd_mode(Some(mode));
    f()
}

fn assert_bits_eq(got: &Matrix, want: &Matrix) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "element {i} differs: {x} vs {y} (shape {}x{})",
            got.rows(),
            got.cols()
        );
    }
}

/// Like [`assert_bits_eq`], but any-NaN matches any-NaN: which *payload*
/// survives when two NaNs meet in one add depends on instruction operand
/// order, which separately-compiled backends may legitimately commute.
/// NaN-ness, infinities, and every finite bit pattern must still agree
/// exactly.
fn assert_bits_eq_nan_class(got: &Matrix, want: &Matrix) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        if x.is_nan() && y.is_nan() {
            continue;
        }
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "element {i} differs: {x} vs {y} (shape {}x{})",
            got.rows(),
            got.cols()
        );
    }
}

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-3 * (1.0 + a.abs().max(b.abs()))
}

/// Fresh-output forms of the dispatched kernels: `a @ b` here; `aᵀ @ b`,
/// `a @ bᵀ` and `Â @ x` below.
fn nn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    a.matmul_into(b, &mut out);
    out
}

fn tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    a.matmul_tn_into(b, &mut out);
    out
}

fn nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    a.matmul_nt_into(b, &mut out);
    out
}

fn spmm(adj: &NormAdj, x: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    adj.spmm_into(x, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (A B) C == A (B C) within float tolerance.
    #[test]
    fn matmul_associative(a in matrix(3, 4), b in matrix(4, 2), c in matrix(2, 5)) {
        let left = nn(&nn(&a, &b), &c);
        let right = nn(&a, &nn(&b, &c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!(close(*x, *y), "{x} vs {y}");
        }
    }

    /// `matmul_tn_into(a, b)` equals the explicit transpose product, and
    /// `matmul_nt_into(a, b)` equals `a @ bᵀ`.
    #[test]
    fn transpose_product_forms_agree(a in matrix(4, 3), b in matrix(4, 2), c in matrix(5, 3)) {
        let mut at = Matrix::zeros(3, 4);
        for r in 0..4 {
            for col in 0..3 {
                at.set(col, r, a.get(r, col));
            }
        }
        let want = nn(&at, &b);
        let got = tn(&a, &b);
        for (x, y) in want.as_slice().iter().zip(got.as_slice()) {
            prop_assert!(close(*x, *y));
        }
        // a @ cᵀ via matmul_nt (a is 4×3, c is 5×3 → 4×5).
        let mut ct = Matrix::zeros(3, 5);
        for r in 0..5 {
            for col in 0..3 {
                ct.set(col, r, c.get(r, col));
            }
        }
        let want = nn(&a, &ct);
        let got = nt(&a, &c);
        for (x, y) in want.as_slice().iter().zip(got.as_slice()) {
            prop_assert!(close(*x, *y));
        }
    }

    /// Softmax outputs a probability distribution invariant to shifts.
    #[test]
    fn softmax_is_shift_invariant_distribution(row in proptest::collection::vec(-5.0f32..5.0, 2..6), shift in -10.0f32..10.0) {
        let p = softmax_row(&row);
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        prop_assert!(p.iter().all(|&v| v >= 0.0));
        let shifted: Vec<f32> = row.iter().map(|v| v + shift).collect();
        let q = softmax_row(&shifted);
        for (a, b) in p.iter().zip(&q) {
            prop_assert!(close(*a, *b));
        }
    }

    /// Cross-entropy is non-negative and its gradient rows sum to ~0.
    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero(m in matrix(3, 4), class in 0usize..4) {
        let (loss, grad) = cross_entropy(&m, &[(1, class)], None);
        prop_assert!(loss >= 0.0);
        let s: f32 = grad.row(1).iter().sum();
        prop_assert!(s.abs() < 1e-5, "gradient row sums to {s}");
        prop_assert!(grad.row(0).iter().all(|&v| v == 0.0));
    }

    /// The vector backend is BIT-identical to the forced scalar oracle —
    /// not merely close: same per-element accumulation order, so `to_bits`
    /// must agree everywhere.
    #[test]
    fn vector_kernels_bit_identical_to_reference(
        mats in (1usize..70, 1usize..40, 1usize..70).prop_flat_map(|(n, k, m)| (
            sparse_matrix(n, k),
            sparse_matrix(k, m),
            sparse_matrix(n, m),
            sparse_matrix(m, k),
        ))
    ) {
        let (a, b, c, d) = mats;
        let run = |mode| with_mode(mode, || (nn(&a, &b), tn(&a, &c), nt(&a, &d)));
        let (scalar, vector) = (run(SimdMode::Scalar), run(SimdMode::Vector));
        assert_bits_eq(&vector.0, &scalar.0);
        assert_bits_eq(&vector.1, &scalar.1);
        assert_bits_eq(&vector.2, &scalar.2);
    }

    /// Forced scalar vs. forced vector backends agree to the bit on odd
    /// shapes (1 row/col, lane-edge ±1) even when the inputs contain NaN,
    /// ±Inf, and -0.0 — non-finite propagation is part of the canonical
    /// contract, so a chaos-poisoned matrix degrades identically under
    /// either backend. The fused bias/ReLU epilogues are held to the same
    /// standard.
    #[test]
    fn scalar_and_vector_backends_bit_identical_on_wild_inputs(
        mats in (
            prop_oneof![Just(1usize), Just(2), 3usize..6, 7usize..10, 15usize..18],
            prop_oneof![Just(1usize), 2usize..5, 7usize..10, 31usize..34],
            prop_oneof![Just(1usize), Just(7), Just(8), Just(9), 15usize..18, 23usize..26],
        ).prop_flat_map(|(n, k, m)| (
            wild_matrix(n, k),
            wild_matrix(k, m),
            wild_matrix(n, m),
            wild_matrix(m, k),
            proptest::collection::vec(-1.0f32..1.0, m),
        ))
    ) {
        let (a, b, c, d, bias) = mats;
        let run = |mode: SimdMode| {
            with_mode(mode, || {
                let mut nn = Matrix::default();
                let mut tn = Matrix::default();
                let mut nt = Matrix::default();
                let (mut z, mut h) = (Matrix::default(), Matrix::default());
                a.matmul_into(&b, &mut nn);
                a.matmul_tn_into(&c, &mut tn);
                a.matmul_nt_into(&d, &mut nt);
                a.matmul_bias_relu_into(&b, &bias, &mut z, &mut h);
                (nn, tn, nt, z, h)
            })
        };
        let scalar = run(SimdMode::Scalar);
        let vector = run(SimdMode::Vector);
        assert_bits_eq_nan_class(&vector.0, &scalar.0);
        assert_bits_eq_nan_class(&vector.1, &scalar.1);
        assert_bits_eq_nan_class(&vector.2, &scalar.2);
        assert_bits_eq_nan_class(&vector.3, &scalar.3);
        assert_bits_eq_nan_class(&vector.4, &scalar.4);
    }

    /// The vector spmm is bit-identical to the forced scalar oracle on
    /// random graphs.
    #[test]
    fn vector_spmm_bit_identical_to_reference(
        case in (2usize..40, 1usize..80).prop_flat_map(|(n, e)| (
            sparse_matrix(n, 7),
            proptest::collection::vec((0..n as u32, 0..n as u32), e),
            any::<bool>(),
        ))
    ) {
        let (x, edges, self_loops) = case;
        let adj = Graph::from_edges(x.rows(), edges).normalize(self_loops);
        let run = |mode| with_mode(mode, || spmm(&adj, &x));
        assert_bits_eq(&run(SimdMode::Vector), &run(SimdMode::Scalar));
    }

    /// `cross_entropy_into` on recycled (dirty) buffers is bit-identical to
    /// the allocating form.
    #[test]
    fn cross_entropy_into_bit_identical(m in matrix(4, 5), class in 0usize..5) {
        let (want_loss, want_grad) = cross_entropy(&m, &[(1, class), (3, 0)], Some(&[2.0, 1.0, 1.0, 1.0, 0.5]));
        let mut dl = Matrix::zeros(9, 9); // dirty, wrong-shaped buffer
        let mut scratch = vec![7.0f32; 3];
        let got_loss = cross_entropy_into(&m, &[(1, class), (3, 0)], Some(&[2.0, 1.0, 1.0, 1.0, 0.5]), &mut dl, &mut scratch);
        prop_assert_eq!(got_loss.to_bits(), want_loss.to_bits());
        assert_bits_eq(&dl, &want_grad);
    }

    /// Normalized adjacency rows of a regular-ish graph have bounded sums
    /// and spmm preserves the constant vector's scale on regular graphs.
    #[test]
    fn norm_adj_spectral_bound(n in 3usize..10) {
        // Cycle graph: 2-regular, so every row of D^-1/2 (A+I) D^-1/2 sums
        // to exactly 1 and the constant vector is an eigenvector.
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i as u32, ((i + 1) % n) as u32);
        }
        let adj = g.normalize(true);
        let ones = Matrix::from_vec(n, 1, vec![1.0; n]);
        let y = spmm(&adj, &ones);
        for r in 0..n {
            prop_assert!(close(y.get(r, 0), 1.0), "row {r}: {}", y.get(r, 0));
        }
    }
}
