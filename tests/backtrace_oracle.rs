//! The bitmap back-trace against its definition. `reference_backtrace`
//! walks every candidate observer's cone with a plain reverse BFS and
//! counts support through hash sets; the bitmap path (cone rows built once
//! per design, one active-node row per pattern slot) must produce the same
//! subgraph — nodes, features, MIV rows, dropped-entry count — on every
//! quick evaluation design, bypass and compacted, with the cone store
//! built at 1 and 4 threads. The features the store feeds must equal the
//! f64 fold of the reference cones bit for bit, and corrupt logs must be
//! screened with the same drop counters — patterns in the last word's
//! padding lanes included.

use std::sync::OnceLock;

use m3d_exec::ExecPool;
use m3d_fault_loc::{
    backtrace, generate_samples, reference_backtrace, reference_cone, BacktraceConfig,
    DatasetConfig, DesignConfig, DesignContext, FeatureExtractor, HNodeId, HeteroGraph,
    PatternActivity, Subgraph, TestBench, TestBenchConfig, F_DTOP_MEAN, F_DTOP_STD, F_NMIV_MEAN,
    F_NMIV_STD, F_N_TOP,
};
use m3d_netlist::BenchmarkProfile;
use m3d_sim::{FailEntry, FailObs, FailureLog, ObsId};
use proptest::prelude::*;

fn bench_for(config: DesignConfig) -> TestBench {
    TestBench::build(&TestBenchConfig {
        scale: 0.002,
        ..TestBenchConfig::quick(BenchmarkProfile::AesLike, config)
    })
}

fn assert_identical(got: &Subgraph, want: &Subgraph, what: &str) {
    assert_eq!(got.nodes, want.nodes, "{what}: pruned node set + order");
    assert_eq!(got.x.as_slice(), want.x.as_slice(), "{what}: features");
    assert_eq!(got.miv_rows, want.miv_rows, "{what}: MIV rows");
    assert_eq!(
        got.stats.dropped_patterns, want.stats.dropped_patterns,
        "{what}: dropped patterns"
    );
}

/// A cone store walked on `threads` workers, with everything read from it.
struct Store {
    hetero: HeteroGraph,
    features: FeatureExtractor,
    activity: PatternActivity,
}

fn store(ctx: &DesignContext<'_>, threads: usize) -> Store {
    let m3d = &ctx.bench.m3d;
    let hetero =
        HeteroGraph::build_with_pool(m3d, ctx.fsim.obs(), &ExecPool::with_threads(threads));
    Store {
        features: FeatureExtractor::compute(m3d, &hetero),
        activity: PatternActivity::build(&hetero, ctx.fsim.sim()),
        hetero,
    }
}

#[test]
fn bitmap_backtrace_matches_oracle_on_all_quick_designs() {
    let cfg = BacktraceConfig::default();
    for config in DesignConfig::EVAL {
        let bench = bench_for(config);
        let ctx = DesignContext::new(&bench);
        let stores = [(1, store(&ctx, 1)), (4, store(&ctx, 4))];
        // Compacted logs exercise the multi-observer ambiguity sets whose
        // cone rows are ORed per entry.
        for compacted in [false, true] {
            let samples = generate_samples(
                &ctx,
                &DatasetConfig {
                    compacted,
                    ..DatasetConfig::single(4, 23)
                },
            );
            assert!(!samples.is_empty(), "{}", bench.name);
            for (i, s) in samples.iter().enumerate() {
                let chains = compacted.then(|| ctx.chains());
                let want = reference_backtrace(
                    &ctx.hetero,
                    &ctx.features,
                    ctx.fsim.sim(),
                    ctx.fsim.obs(),
                    chains,
                    &s.log,
                    &cfg,
                );
                let what = format!("{}: sample {i} (compacted={compacted})", bench.name);
                assert_identical(&s.subgraph, &want, &what);
                for (threads, st) in &stores {
                    let got = backtrace(
                        &st.hetero,
                        &st.features,
                        &st.activity,
                        ctx.fsim.obs(),
                        chains,
                        &s.log,
                        &cfg,
                    );
                    assert_identical(&got, &want, &format!("{what}, {threads} threads"));
                }
            }
        }
    }
}

#[test]
fn features_equal_the_oracle_f64_fold_bitwise() {
    for config in DesignConfig::EVAL {
        let bench = bench_for(config);
        let ctx = DesignContext::new(&bench);
        let obs = ctx.fsim.obs();
        let n = ctx.hetero.node_count();
        // The Topedge fold as floating-point sums over reference cones.
        let mut cnt = vec![0u32; n];
        let mut sums = vec![[0f64; 4]; n];
        let mut max_dist = 1f64;
        for (id, _) in obs.iter() {
            for (node, dist, mivs) in reference_cone(&ctx.hetero, obs, id) {
                let (d, m) = (f64::from(dist), f64::from(mivs));
                let s = &mut sums[node.index()];
                cnt[node.index()] += 1;
                s[0] += d;
                s[1] += d * d;
                s[2] += m;
                s[3] += m * m;
                max_dist = max_dist.max(d);
            }
        }
        for threads in [1, 4] {
            let st = store(&ctx, threads);
            for i in 0..n {
                let mut want = [(1.0 + cnt[i] as f32).ln(), 0.0, 0.0, 0.0, 0.0];
                if cnt[i] > 0 {
                    let c = f64::from(cnt[i]);
                    let [dsum, dsq, msum, msq] = sums[i];
                    let (dm, mm) = (dsum / c, msum / c);
                    let dv = (dsq / c - dm * dm).max(0.0);
                    let mv = (msq / c - mm * mm).max(0.0);
                    want[1] = (dm / max_dist) as f32;
                    want[2] = (dv.sqrt() / max_dist) as f32;
                    want[3] = (1.0 + mm).ln() as f32;
                    want[4] = (1.0 + mv.sqrt()).ln() as f32;
                }
                let row = st.features.node_row(HNodeId(i as u32));
                let got =
                    [F_N_TOP, F_DTOP_MEAN, F_DTOP_STD, F_NMIV_MEAN, F_NMIV_STD].map(|c| row[c]);
                assert_eq!(
                    got.map(f32::to_bits),
                    want.map(f32::to_bits),
                    "{}: node {i}, {threads} threads",
                    bench.name
                );
                let default_row = ctx.features.node_row(HNodeId(i as u32));
                assert_eq!(
                    row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    default_row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{}: node {i}, {threads} threads vs default pool",
                    bench.name
                );
            }
        }
    }
}

/// One tiny design shared by every proptest case.
fn shared_bench() -> &'static TestBench {
    static BENCH: OnceLock<TestBench> = OnceLock::new();
    BENCH.get_or_init(|| bench_for(DesignConfig::Syn1))
}

/// Every counter a corrupt entry can bump on the way through back-trace.
const DROP_COUNTERS: [&str; 4] = [
    "failure.dropped.obs_out_of_range",
    "failure.dropped.channel_without_chains",
    "failure.dropped.channel_out_of_range",
    "backtrace.dropped.pattern_out_of_range",
];

/// Runs `f` and returns what it bumped each of [`DROP_COUNTERS`] by. No
/// other test in this binary feeds corrupt logs, so the deltas are this
/// call's own.
fn drop_deltas<T>(f: impl FnOnce() -> T) -> (T, [u64; 4]) {
    let before = m3d_obs::snapshot();
    let out = f();
    let after = m3d_obs::snapshot();
    let delta =
        DROP_COUNTERS.map(|c| after.counter(c).unwrap_or(0) - before.counter(c).unwrap_or(0));
    (out, delta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random logs mixing valid entries with out-of-range patterns,
    /// out-of-range observers, channel entries without chains and empty
    /// channel positions: same subgraph, same drop counters.
    #[test]
    fn random_logs_match_oracle_with_equal_drop_counters(
        raw in collection::vec((0u32..4, 0u32..4096, 0u32..512, 0u32..48), 0..24),
        compacted in any::<bool>(),
        keep_quarters in 1u32..5,
    ) {
        let bench = shared_bench();
        let ctx = DesignContext::new(bench);
        let slots = ctx.activity.slots() as u32;
        assert_eq!(slots as usize, bench.patterns.len());
        // The last pattern word's padding lanes: simulated, never applied.
        let padding = bench.patterns.word_count() as u32 * 64 - slots;
        assert!(padding > 0, "the bench needs padding lanes");
        let n_obs = ctx.fsim.obs().len() as u32;
        let channels = ctx.chains().channel_count() as u32;
        let entries: Vec<FailEntry> = raw
            .iter()
            .map(|&(kind, p, a, b)| FailEntry {
                pattern: match p % 5 {
                    0 => slots + p,
                    1 => slots + p % padding,
                    _ => p % slots,
                },
                obs: match kind {
                    0 => FailObs::Direct(ObsId(a % n_obs)),
                    1 => FailObs::Direct(ObsId(n_obs + a)),
                    2 => FailObs::Channel { channel: (a % channels) as u16, position: b as u16 },
                    _ => FailObs::Channel { channel: (channels + a) as u16, position: b as u16 },
                },
            })
            .collect();
        let log = FailureLog::new(entries);
        let cfg = BacktraceConfig {
            keep_frac: f64::from(keep_quarters) / 4.0,
            ..BacktraceConfig::default()
        };
        let (want, want_drops) = drop_deltas(|| {
            reference_backtrace(
                &ctx.hetero,
                &ctx.features,
                ctx.fsim.sim(),
                ctx.fsim.obs(),
                compacted.then(|| ctx.chains()),
                &log,
                &cfg,
            )
        });
        let (got, got_drops) = drop_deltas(|| ctx.backtrace(&log, compacted, &cfg));
        assert_identical(&got, &want, "random log");
        prop_assert_eq!(got_drops, want_drops);
        let past_end = log.entries().iter().filter(|e| e.pattern >= slots).count();
        prop_assert_eq!(got.stats.dropped_patterns, past_end as u64);
    }
}
