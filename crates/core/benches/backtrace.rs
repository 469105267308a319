//! Microbench for the back-tracing hot path: [`DesignContext::backtrace`]
//! over bypass logs (one cone row per entry) and compacted logs (the cone
//! rows of a channel's whole ambiguity set ORed per entry). The
//! `hetero_build` group times what the cone store costs to make:
//! [`HeteroGraph::build`] (graph plus one cone walk per observer) on the
//! quick aes design and on the netcard-like netlist at scale 0.05.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use m3d_fault_loc::{
    generate_samples, BacktraceConfig, DatasetConfig, DesignConfig, DesignContext, HeteroGraph,
    TestBench, TestBenchConfig,
};
use m3d_netlist::{generate, BenchmarkProfile, SynthesisCorner};
use m3d_part::{M3dNetlist, MinCutPartitioner, Partitioner};
use m3d_sim::ObsPoints;

fn bench_backtrace(c: &mut Criterion) {
    let tb = TestBench::build(&TestBenchConfig::quick(
        BenchmarkProfile::AesLike,
        DesignConfig::Syn1,
    ));
    let ctx = DesignContext::new(&tb);
    let cfg = BacktraceConfig::default();
    let mut group = c.benchmark_group("backtrace");
    group.sample_size(20);
    for (name, compacted) in [("bypass", false), ("compacted", true)] {
        let samples = generate_samples(
            &ctx,
            &DatasetConfig {
                compacted,
                ..DatasetConfig::single(8, 5)
            },
        );
        assert!(!samples.is_empty());
        group.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                let s = &samples[i % samples.len()];
                i += 1;
                ctx.backtrace(black_box(&s.log), compacted, &cfg).len()
            })
        });
    }
    group.finish();
}

fn bench_hetero_build(c: &mut Criterion) {
    let quick = TestBench::build(&TestBenchConfig::quick(
        BenchmarkProfile::AesLike,
        DesignConfig::Syn1,
    ))
    .m3d;
    let nl = generate(&BenchmarkProfile::NetcardLike.config(0.05, SynthesisCorner::Syn1));
    let part = MinCutPartitioner::default().partition(&nl, 2);
    let netcard = M3dNetlist::build(nl, part);
    let mut group = c.benchmark_group("hetero_build");
    group.sample_size(10);
    for (name, m3d) in [("aes_quick", &quick), ("netcard_0.05", &netcard)] {
        let obs = ObsPoints::collect(m3d.netlist());
        group.bench_function(name, |b| {
            b.iter(|| HeteroGraph::build(black_box(m3d), &obs).node_count())
        });
    }
    group.finish();
}

criterion_group!(cones, bench_backtrace, bench_hetero_build);
criterion_main!(cones);
