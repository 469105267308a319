//! The input generator: the seed alone fixes the chips.

use m3d_benchmark::inputs::{Chip, ChipStream};
use m3d_exec::ExecPool;
use m3d_fault_loc::{DesignConfig, DesignContext, TestBench, TestBenchConfig};
use m3d_netlist::BenchmarkProfile;

fn bench() -> TestBench {
    TestBench::try_build(&TestBenchConfig {
        scale: 0.002,
        ..TestBenchConfig::quick(BenchmarkProfile::AesLike, DesignConfig::Syn1)
    })
    .expect("quick aes builds")
}

fn chips(ctx: &DesignContext<'_>, seed: u64, threads: usize, compacted: bool) -> Vec<Chip> {
    ChipStream::new(ctx, compacted, seed, 1)
        .take(24, &ExecPool::with_threads(threads))
        .expect("a quick design yields detectable chips")
}

#[test]
fn same_seed_same_logs_other_seed_other_logs() {
    let tb = bench();
    let ctx = DesignContext::new(&tb);
    let a = chips(&ctx, 7, 2, false);
    let b = chips(&ctx, 7, 2, false);
    assert_eq!(a.len(), 24);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.fault, y.fault);
        assert_eq!(x.log, y.log);
        assert_eq!(x.truth, y.truth);
        assert!(!x.log.is_empty());
    }
    let c = chips(&ctx, 8, 2, false);
    let same = a.iter().zip(&c).filter(|(x, y)| x.log == y.log).count();
    assert!(same < 4, "{same} of 24 logs repeat under another seed");
}

#[test]
fn chips_do_not_depend_on_the_thread_count() {
    let tb = bench();
    let ctx = DesignContext::new(&tb);
    for compacted in [false, true] {
        let serial = chips(&ctx, 11, 1, compacted);
        let parallel = chips(&ctx, 11, 3, compacted);
        for (x, y) in serial.iter().zip(&parallel) {
            assert_eq!(x.log, y.log);
        }
    }
}

#[test]
fn min_entries_filters_short_logs_and_mivs_appear() {
    let tb = bench();
    let ctx = DesignContext::new(&tb);
    let long = ChipStream::new(&ctx, false, 3, 6)
        .take(40, &ExecPool::with_threads(2))
        .expect("enough long logs");
    assert!(long.iter().all(|c| c.log.len() >= 6));
    let mivs = chips(&ctx, 5, 2, false)
        .into_iter()
        .chain(long)
        .filter(|c| c.miv().is_some())
        .count();
    assert!(mivs > 0, "about a tenth of the chips carry an MIV defect");
}
