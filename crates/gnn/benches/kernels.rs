//! Microbenches for the dense/sparse kernels behind the GCN training and
//! inference hot paths: the scalar and vector backends head-to-head, at
//! the shapes the diagnosis models actually run (a 600-node subgraph with
//! 13 input features and the paper's 64/32-wide hidden layers). Honours
//! `M3D_BENCH_SMOKE` via the criterion shim.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use m3d_gnn::{force_simd_mode, Graph, Matrix, SimdMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

/// The kernel backends: the canonical scalar spec and the portable 8-lane
/// vector kernels.
const BACKENDS: [SimdMode; 2] = [SimdMode::Scalar, SimdMode::Vector];

/// Runs `f` with the kernel dispatch forced to `mode`, restoring
/// env-driven dispatch afterwards.
fn with_mode(mode: SimdMode, f: impl FnOnce()) {
    force_simd_mode(Some(mode));
    f();
    force_simd_mode(None);
}

/// The hot GEMM shapes: layer-0 (`Â·X @ W₀`) and layer-1 (`Â·H @ W₁`).
const SHAPES: [(usize, usize, usize); 2] = [(600, 13, 64), (600, 64, 32)];

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut group = c.benchmark_group("matmul");
    group.sample_size(30);
    for (n, k, m) in SHAPES {
        let a = random_matrix(&mut rng, n, k);
        let b = random_matrix(&mut rng, k, m);
        let mut out = Matrix::default();
        for mode in BACKENDS {
            with_mode(mode, || {
                group.bench_with_input(
                    BenchmarkId::new(mode.name(), format!("{n}x{k}x{m}")),
                    &(),
                    |be, ()| be.iter(|| black_box(&a).matmul_into(black_box(&b), &mut out)),
                );
            });
        }
    }
    group.finish();
}

fn bench_fused_relu(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut group = c.benchmark_group("fused_relu");
    group.sample_size(30);
    for (n, k, m) in SHAPES {
        let a = random_matrix(&mut rng, n, k);
        let b = random_matrix(&mut rng, k, m);
        let bias: Vec<f32> = (0..m).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let mut z = Matrix::default();
        let mut h = Matrix::default();
        // The pre-fusion baseline: matmul pass, bias pass, ReLU pass.
        group.bench_with_input(
            BenchmarkId::new("three_pass", format!("{n}x{k}x{m}")),
            &(),
            |be, ()| {
                be.iter(|| {
                    a.matmul_into(black_box(&b), &mut z);
                    z.add_row_broadcast(&bias);
                    h.reset(n, m);
                    for (hv, &zv) in h.as_mut_slice().iter_mut().zip(z.as_slice()) {
                        *hv = if zv < 0.0 { 0.0 } else { zv };
                    }
                })
            },
        );
        for mode in BACKENDS {
            with_mode(mode, || {
                group.bench_with_input(
                    BenchmarkId::new(mode.name(), format!("{n}x{k}x{m}")),
                    &(),
                    |be, ()| {
                        be.iter(|| {
                            black_box(&a).matmul_bias_relu_into(
                                black_box(&b),
                                &bias,
                                &mut z,
                                &mut h,
                            )
                        })
                    },
                );
            });
        }
    }
    group.finish();
}

fn bench_matmul_tn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    let mut group = c.benchmark_group("matmul_tn");
    group.sample_size(30);
    // Weight-gradient shape: Hᵀ(600×64) @ dZ(600×32).
    let a = random_matrix(&mut rng, 600, 64);
    let b = random_matrix(&mut rng, 600, 32);
    let mut out = Matrix::default();
    for mode in BACKENDS {
        with_mode(mode, || {
            group.bench_function(format!("{}/600x64x32", mode.name()), |be| {
                be.iter(|| black_box(&a).matmul_tn_into(black_box(&b), &mut out))
            });
        });
    }
    group.finish();
}

fn bench_matmul_nt(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let mut group = c.benchmark_group("matmul_nt");
    group.sample_size(30);
    // Input-gradient shape: dZ(600×32) @ Wᵀ(64×32), streamed directly
    // from B's rows — no transpose scratch.
    let a = random_matrix(&mut rng, 600, 32);
    let b = random_matrix(&mut rng, 64, 32);
    let mut out = Matrix::default();
    for mode in BACKENDS {
        with_mode(mode, || {
            group.bench_function(format!("{}/600x32x64", mode.name()), |be| {
                be.iter(|| black_box(&a).matmul_nt_into(black_box(&b), &mut out))
            });
        });
    }
    group.finish();
}

fn bench_spmm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(10);
    let n = 600;
    // Ring plus random chords: about the density of a back-traced cone.
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(i as u32, ((i + 1) % n) as u32);
        g.add_edge(i as u32, rng.gen_range(0..n as u32));
        g.add_edge(i as u32, rng.gen_range(0..n as u32));
    }
    let adj = g.normalize(true);
    let x = random_matrix(&mut rng, n, 64);
    let mut out = Matrix::default();
    let mut group = c.benchmark_group("spmm");
    group.sample_size(30);
    for mode in BACKENDS {
        with_mode(mode, || {
            group.bench_function(format!("{}/600x64", mode.name()), |be| {
                be.iter(|| black_box(&adj).spmm_into(black_box(&x), &mut out))
            });
        });
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_matmul,
    bench_fused_relu,
    bench_matmul_tn,
    bench_matmul_nt,
    bench_spmm
);
criterion_main!(kernels);
