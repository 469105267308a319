//! Steady-state allocation gate for the training loops (feature
//! `alloc-profile`): once one warmup call has filled every sample's `Â·X`
//! cache, a training call allocates only its per-call bookkeeping — its
//! workspace and gradient set, the shuffle order, the loss curve and a
//! registry key — and nothing per gradient step.
//!
//! The gate reads the `gnn.train` span's allocation counter, for a GCN
//! model (full gradient pass) and for a dense head trained on that
//! model's readouts (head-only steps, as the Classifier trains). An
//! 8-epoch call must allocate exactly six more loss-curve slots (6 × 8 B)
//! than a 2-epoch call over the same samples, so a single byte allocated
//! per step or per epoch fails it. Buffer sizing happens in each call's
//! first epoch, so it is charged equally to both calls. The reading is
//! sound because span allocation counters are per-thread: a span is
//! charged only for bytes its own thread allocated while it was live, and
//! training runs on the caller's thread.

#![cfg(feature = "alloc-profile")]

use m3d_gnn::{DenseHead, GcnConfig, GcnModel, Graph, GraphSample, Matrix, Task, TrainConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[global_allocator]
static ALLOC: m3d_obs::alloc::CountingAllocator = m3d_obs::alloc::CountingAllocator::new();

/// Uniform-sized samples, so one warmup epoch sizes every buffer for all
/// of them.
fn samples(n: usize, nodes: usize, seed: u64) -> Vec<GraphSample> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut g = Graph::new(nodes);
            for i in 1..nodes {
                g.add_edge(rng.gen_range(0..i) as u32, i as u32);
            }
            let label = rng.gen_range(0..2usize);
            let mut x = Matrix::zeros(nodes, 6);
            for r in 0..nodes {
                for c in 0..6 {
                    x.set(r, c, rng.gen_range(-1.0..1.0) + label as f32 * 0.5);
                }
            }
            GraphSample::graph_level(g.normalize(true), x, label)
        })
        .collect()
}

/// Bytes the `gnn.train` span is charged for one `epochs`-epoch call.
fn train_bytes(train: &mut impl FnMut(&TrainConfig) -> Vec<f64>, epochs: usize) -> u64 {
    const KEY: &str = "alloc.span.gnn.train.bytes";
    let before = m3d_obs::snapshot().counter(KEY).unwrap_or(0);
    train(&TrainConfig {
        epochs,
        ..TrainConfig::default()
    });
    m3d_obs::snapshot()
        .counter(KEY)
        .expect("training must have recorded its gnn.train span")
        - before
}

/// After a 1-epoch warmup call, asserts that an 8-epoch call costs
/// exactly six loss-curve slots more than a 2-epoch call.
fn assert_only_epoch_slots_grow(name: &str, mut train: impl FnMut(&TrainConfig) -> Vec<f64>) {
    train_bytes(&mut train, 1);
    let short = train_bytes(&mut train, 2);
    let long = train_bytes(&mut train, 8);
    assert_eq!(
        long.checked_sub(short),
        Some(6 * 8),
        "{name}: gnn.train charged {short} B at 2 epochs and {long} B \
         at 8: only the 8-byte loss-curve slots may grow with the epoch count"
    );
}

#[test]
fn steady_state_training_allocates_nothing_per_step() {
    let data = samples(16, 20, 42);
    let mut model = GcnModel::new(&GcnConfig::two_layer(6, Task::Graph));
    // The warmup call fills every Â·X cache.
    assert_only_epoch_slots_grow("GCN model", |cfg| model.train(&data, cfg));

    // A head with a hidden ReLU layer on the model's readouts.
    let readouts: Vec<(Matrix, usize)> = data
        .iter()
        .map(|s| (model.readout(&s.adj, &s.x), s.targets[0].1))
        .collect();
    let mut head = DenseHead::new(model.head().in_dim(), Some(8), 2, 7);
    assert_only_epoch_slots_grow("dense head", |cfg| head.train(&readouts, cfg));
}
