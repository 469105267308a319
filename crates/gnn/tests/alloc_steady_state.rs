//! Steady-state allocation gate for the training loop (feature
//! `alloc-profile`): once one warmup call has filled every sample's `Â·X`
//! cache, a training call allocates only its per-call bookkeeping — its
//! workspace and gradient set, a transferred model's once-per-call head
//! inputs, the shuffle order, the loss curve and a registry key — and
//! nothing per gradient step.
//!
//! The gate reads the `gnn.train` span's allocation counter, for a fresh
//! model (full gradient pass) and a transferred one (frozen trunk,
//! head-only steps). An 8-epoch call must allocate exactly six more
//! loss-curve slots (6 × 8 B) than a 2-epoch call over the same samples,
//! so a single byte allocated per step or per epoch fails it. Buffer
//! sizing happens in each call's first epoch, so it is charged equally to
//! both calls. The reading is sound because span allocation counters are
//! per-thread: a span is charged only for bytes its own thread allocated
//! while it was live, and training runs on the caller's thread.

#![cfg(feature = "alloc-profile")]

use m3d_gnn::{GcnConfig, GcnModel, Graph, GraphSample, Matrix, Task, TrainConfig};
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
fn train_bytes(model: &mut GcnModel, data: &[GraphSample], epochs: usize) -> u64 {
    const KEY: &str = "alloc.span.gnn.train.bytes";
    let before = m3d_obs::snapshot().counter(KEY).unwrap_or(0);
    model.train(
        data,
        &TrainConfig {
            epochs,
            ..TrainConfig::default()
        },
    );
    m3d_obs::snapshot()
        .counter(KEY)
        .expect("training must have recorded its gnn.train span")
        - before
}

/// Asserts that an 8-epoch call costs exactly six loss-curve slots more
/// than a 2-epoch call.
fn assert_only_epoch_slots_grow(name: &str, model: &mut GcnModel, data: &[GraphSample]) {
    let short = train_bytes(model, data, 2);
    let long = train_bytes(model, data, 8);
    assert_eq!(
        long.checked_sub(short),
        Some(6 * 8),
        "{name} model: gnn.train charged {short} B at 2 epochs and {long} B \
         at 8: only the 8-byte loss-curve slots may grow with the epoch count"
    );
}

#[test]
fn steady_state_training_allocates_nothing_per_step() {
    let data = samples(16, 20, 42);
    let mut model = GcnModel::new(&GcnConfig::two_layer(6, Task::Graph));
    // Warmup: fills every Â·X cache.
    train_bytes(&mut model, &data, 1);
    assert_only_epoch_slots_grow("fresh", &mut model, &data);

    // Frozen trunk, head with a hidden ReLU layer.
    let mut transferred = model.transfer(2, Some(8), 7);
    train_bytes(&mut transferred, &data, 1);
    assert_only_epoch_slots_grow("transferred", &mut transferred, &data);
}
