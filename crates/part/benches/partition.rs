//! Microbench for [`MinCutPartitioner::partition`], the FM min-cut split
//! of the Syn flows: a whole partition (initial assignment plus every FM
//! pass) of the netcard-like netlist at scale 0.05 and the leon3-like one
//! at scale 0.2, both Syn-1.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use m3d_netlist::{generate, BenchmarkProfile, SynthesisCorner};
use m3d_part::{MinCutPartitioner, Partitioner};

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition");
    group.sample_size(10);
    for (name, profile, scale) in [
        ("netcard_0.05", BenchmarkProfile::NetcardLike, 0.05),
        ("leon3_0.2", BenchmarkProfile::Leon3Like, 0.2),
    ] {
        let nl = generate(&profile.config(scale, SynthesisCorner::Syn1));
        let fm = MinCutPartitioner::default();
        group.bench_function(name, |b| {
            b.iter(|| fm.partition(black_box(&nl), 2).cut_nets(&nl))
        });
    }
    group.finish();
}

criterion_group!(partition, bench_partition);
criterion_main!(partition);
