//! Criterion benches for heterogeneous-graph construction (O(|V|+|E|) per
//! Topnode set, Section III-A) and GCN training/inference. Back-tracing
//! and fault simulation have their own benches in `crates/core/benches`
//! and `crates/sim/benches`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use m3d_fault_loc::{
    generate_samples, DatasetConfig, DesignConfig, DesignContext, FeatureExtractor, HeteroGraph,
    ModelTrainConfig, TestBench, TestBenchConfig, TierPredictor,
};
use m3d_netlist::BenchmarkProfile;

fn bench_hetero_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("hetero_graph_build");
    group.sample_size(10);
    for scale in [0.002f64, 0.004, 0.008] {
        let tb = TestBench::build(&TestBenchConfig {
            scale,
            ..TestBenchConfig::quick(BenchmarkProfile::AesLike, DesignConfig::Syn1)
        });
        let fsim = m3d_sim::FaultSimulator::new(tb.netlist(), &tb.patterns);
        let gates = tb.netlist().gate_count();
        group.bench_with_input(BenchmarkId::from_parameter(gates), &tb, |b, tb| {
            b.iter(|| {
                let h = HeteroGraph::build(&tb.m3d, fsim.obs());
                FeatureExtractor::compute(&tb.m3d, &h).node_count()
            })
        });
    }
    group.finish();
}

fn bench_gnn(c: &mut Criterion) {
    let tb = TestBench::build(&TestBenchConfig::quick(
        BenchmarkProfile::AesLike,
        DesignConfig::Syn1,
    ));
    let ctx = DesignContext::new(&tb);
    let samples = generate_samples(&ctx, &DatasetConfig::single(40, 5));
    let tset = m3d_fault_loc::tier_training_set(&tb, &samples);
    let mut group = c.benchmark_group("gnn");
    group.sample_size(10);
    group.bench_function("train_tier_predictor_5_epochs", |b| {
        b.iter(|| {
            TierPredictor::train(
                &tset,
                &ModelTrainConfig {
                    epochs: 5,
                    restarts: 1,
                    ..ModelTrainConfig::default()
                },
            )
        })
    });
    let model = TierPredictor::train(
        &tset,
        &ModelTrainConfig {
            epochs: 10,
            restarts: 1,
            ..ModelTrainConfig::default()
        },
    );
    group.bench_function("tier_inference", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let s = &samples[i % samples.len()];
            i += 1;
            model.predict(&s.subgraph)
        })
    });
    group.finish();
}

criterion_group!(kernels, bench_hetero_graph, bench_gnn);
criterion_main!(kernels);
