//! Microbench for the back-tracing hot path: [`DesignContext::backtrace`]
//! over bypass logs (one cone row per entry) and compacted logs (the cone
//! rows of a channel's whole ambiguity set ORed per entry).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use m3d_fault_loc::{
    generate_samples, BacktraceConfig, DatasetConfig, DesignConfig, DesignContext, TestBench,
    TestBenchConfig,
};
use m3d_netlist::BenchmarkProfile;

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

criterion_group!(cones, bench_backtrace);
criterion_main!(cones);
