//! One entry point per paper table/figure. Each function prints the
//! paper-style rows/series to stdout and returns the underlying numbers so
//! `run_all` and the integration tests can assert on shapes.

use crate::pipeline::{
    build_bench, evaluate_config, fmt_quality, fmt_quality_vs, fmt_tier_loc, run_profile,
    train_framework, ConfigEval, ExperimentConfig,
};
use crate::scale::Scale;
use m3d_diagnosis::{report_quality, AtpgDiagnosis, DiagnosisConfig, ReportQuality};
use m3d_exec::ExecPool;
use m3d_fault_loc::{
    generate_samples, pfa_time_saved, reference_backtrace, single_tier_of, tier_training_set,
    BacktraceConfig, DatasetConfig, DesignConfig, DesignContext, FrameworkConfig, InjectedFault,
    MivPinpointer, ModelTrainConfig, PipelineBuilder, Subgraph, TierLocalization, TierPredictor,
    TrainingSet,
};
use m3d_gnn::{permutation_significance, Matrix, Pca};
use m3d_netlist::BenchmarkProfile;
use m3d_sim::{generate_patterns, tdf_list, FailureLog};
use std::time::Instant;

/// Table III: the design matrix of the generated M3D benchmarks.
pub fn table03(scale: &Scale) -> Vec<(String, usize, usize, usize, usize, usize, f64)> {
    m3d_obs::out!("== Table III: design matrix (scale = {}) ==", scale.name);
    m3d_obs::out!(
        "{:<10} {:>8} {:>8} {:>10} {:>8} {:>10} {:>7}",
        "design",
        "gates",
        "#MIVs",
        "Nsc(Nch)",
        "chainlen",
        "#patterns",
        "FC"
    );
    let cfg = ExperimentConfig::new(scale.clone(), false);
    let mut rows = Vec::new();
    for profile in BenchmarkProfile::ALL {
        let tb = build_bench(profile, DesignConfig::Syn1, &cfg);
        let stats = tb.netlist().stats();
        let m3d_stats = tb.m3d.stats();
        let atpg = generate_patterns(tb.netlist(), &scale.atpg);
        m3d_obs::out!(
            "{:<10} {:>8} {:>8} {:>5}({:>3}) {:>8} {:>10} {:>6.1}%",
            profile.name(),
            stats.gates,
            m3d_stats.mivs,
            tb.chains.chain_count(),
            tb.chains.channel_count(),
            tb.chains.max_chain_length(),
            tb.patterns.len(),
            100.0 * atpg.coverage,
        );
        rows.push((
            profile.name().to_string(),
            stats.gates,
            m3d_stats.mivs,
            tb.chains.chain_count(),
            tb.chains.max_chain_length(),
            tb.patterns.len(),
            atpg.coverage,
        ));
    }
    rows
}

/// Table II: feature-significance scores of the trained Tier-predictor.
pub fn table02(scale: &Scale) -> Vec<(String, f64)> {
    m3d_obs::out!(
        "== Table II: feature significance (scale = {}) ==",
        scale.name
    );
    let cfg = ExperimentConfig::new(scale.clone(), false);
    let bench = build_bench(BenchmarkProfile::AesLike, DesignConfig::Syn1, &cfg);
    let ctx = DesignContext::new(&bench);
    let samples = generate_samples(&ctx, &DatasetConfig::single(scale.n_train, 11));
    let tset = tier_training_set(&bench, &samples);
    let tier = TierPredictor::train(
        &tset,
        &ModelTrainConfig {
            epochs: scale.epochs,
            ..ModelTrainConfig::default()
        },
    );
    let sig = permutation_significance(tier.model(), &tset, 3, 5);
    m3d_obs::out!("baseline accuracy: {:.3}", sig.baseline_accuracy);
    let names = m3d_fault_loc::feature_names();
    let mut rows = Vec::new();
    for (name, score) in names.iter().zip(&sig.scores) {
        m3d_obs::out!("{name:<28} {score:.4}");
        rows.push((name.to_string(), *score));
    }
    rows
}

/// Fig. 5: PCA of per-subgraph feature vectors across design
/// configurations. Returns `(config, centroid, rms spread)` per config and
/// prints the 2-D point series.
pub fn fig05(scale: &Scale) -> Vec<(String, [f64; 2], f64)> {
    m3d_obs::out!(
        "== Fig. 5: PCA feature visualization (Tate, scale = {}) ==",
        scale.name
    );
    let cfg = ExperimentConfig::new(scale.clone(), false);
    let mut per_config: Vec<(&'static str, Vec<Vec<f32>>)> = Vec::new();
    let n = (scale.n_test / 2).max(20);
    for dc in DesignConfig::EVAL {
        let bench = build_bench(BenchmarkProfile::TateLike, dc, &cfg);
        let ctx = DesignContext::new(&bench);
        let samples = generate_samples(&ctx, &DatasetConfig::single(n, 555));
        // One vector per subgraph: the feature mean over its nodes.
        let vecs: Vec<Vec<f32>> = samples
            .iter()
            .map(|s| s.subgraph.x.mean_rows().as_slice().to_vec())
            .collect();
        per_config.push((dc.name(), vecs));
    }
    let d = per_config[0].1[0].len();
    let total: usize = per_config.iter().map(|(_, v)| v.len()).sum();
    let mut stacked = Matrix::zeros(total, d);
    let mut r = 0;
    for (_, vecs) in &per_config {
        for v in vecs {
            stacked.row_mut(r).copy_from_slice(v);
            r += 1;
        }
    }
    let pca = Pca::fit(&stacked, 2);
    let proj = pca.transform(&stacked);
    let mut out = Vec::new();
    let mut row = 0usize;
    for (name, vecs) in &per_config {
        let k = vecs.len();
        let mut cx = 0f64;
        let mut cy = 0f64;
        for i in row..row + k {
            cx += f64::from(proj.get(i, 0));
            cy += f64::from(proj.get(i, 1));
        }
        cx /= k as f64;
        cy /= k as f64;
        let spread = ((row..row + k)
            .map(|i| {
                let dx = f64::from(proj.get(i, 0)) - cx;
                let dy = f64::from(proj.get(i, 1)) - cy;
                dx * dx + dy * dy
            })
            .sum::<f64>()
            / k as f64)
            .sqrt();
        m3d_obs::out!(
            "{name:<6} centroid = ({cx:+.3}, {cy:+.3})  rms spread = {spread:.3}  n = {k}"
        );
        for i in row..row + k.min(10) {
            m3d_obs::out!("  {name} {:+.3} {:+.3}", proj.get(i, 0), proj.get(i, 1));
        }
        out.push((name.to_string(), [cx, cy], spread));
        row += k;
    }
    // Overlap check: max centroid separation vs mean spread.
    let mean_spread: f64 = out.iter().map(|(_, _, s)| s).sum::<f64>() / out.len() as f64;
    let max_sep = out
        .iter()
        .flat_map(|a| {
            out.iter().map(move |b| {
                let dx = a.1[0] - b.1[0];
                let dy = a.1[1] - b.1[1];
                (dx * dx + dy * dy).sqrt()
            })
        })
        .fold(0.0f64, f64::max);
    m3d_obs::out!("max centroid separation {max_sep:.3} vs mean spread {mean_spread:.3} (overlapped iff separation < spread)");
    out
}

/// Fig. 6 rows: accuracies of dedicated vs transferred models per config,
/// for Tier-predictor and MIV-pinpointer.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRow {
    /// Configuration name.
    pub config: &'static str,
    /// Dedicated Tier-predictor accuracy.
    pub tier_dedicated: f64,
    /// Transferred Tier-predictor accuracy.
    pub tier_transferred: f64,
    /// Transferred-without-augmentation Tier-predictor accuracy (ablation).
    pub tier_no_aug: f64,
    /// Transferred Tier-predictor trained *without the top-level features*
    /// (Topedge counts/lengths/MIV counts zeroed — the Table II ablation).
    pub tier_no_top: f64,
    /// Dedicated MIV-pinpointer accuracy.
    pub miv_dedicated: f64,
    /// Transferred MIV-pinpointer accuracy.
    pub miv_transferred: f64,
}

/// Zeroes the top-level feature columns of graph samples (Topedge count,
/// length mean/std, MIV-count mean/std) for the Table II ablation.
fn strip_top_level_features(samples: &[m3d_gnn::GraphSample]) -> Vec<m3d_gnn::GraphSample> {
    use m3d_fault_loc::{F_DTOP_MEAN, F_DTOP_STD, F_NMIV_MEAN, F_NMIV_STD, F_N_TOP};
    samples
        .iter()
        .map(|s| {
            let mut x = s.x.clone();
            for r in 0..x.rows() {
                for c in [F_N_TOP, F_DTOP_MEAN, F_DTOP_STD, F_NMIV_MEAN, F_NMIV_STD] {
                    x.set(r, c, 0.0);
                }
            }
            m3d_gnn::GraphSample::new(s.adj.clone(), x, s.targets.clone())
        })
        .collect()
}

/// Fig. 6: dedicated vs transferred model accuracy on the Tate profile,
/// plus the data-augmentation ablation.
pub fn fig06(scale: &Scale) -> Vec<TransferRow> {
    m3d_obs::out!(
        "== Fig. 6: transferability (Tate, scale = {}) ==",
        scale.name
    );
    let cfg = ExperimentConfig::new(scale.clone(), false);
    let profile = BenchmarkProfile::TateLike;
    let mcfg = ModelTrainConfig {
        epochs: scale.epochs,
        ..ModelTrainConfig::default()
    };

    // Transferred training set: Syn-1 + two random partitions.
    let mut transferred_ts = TrainingSet::new();
    // No-augmentation ablation: Syn-1 only.
    let mut noaug_ts = TrainingSet::new();
    for (i, (dc, n)) in [
        (DesignConfig::Syn1, scale.n_train),
        (DesignConfig::RandomPart { seed: 101 }, scale.n_rand_train),
        (DesignConfig::RandomPart { seed: 202 }, scale.n_rand_train),
    ]
    .iter()
    .enumerate()
    {
        let bench = build_bench(profile, *dc, &cfg);
        let ctx = DesignContext::new(&bench);
        let samples = generate_samples(
            &ctx,
            &DatasetConfig {
                miv_fraction: 0.3,
                ..DatasetConfig::single(*n, 2000 + i as u64)
            },
        );
        transferred_ts.add(&bench, &samples);
        if i == 0 {
            noaug_ts.add(&bench, &samples);
        }
    }
    let tier_tr = TierPredictor::train(&transferred_ts.tier_samples, &mcfg);
    let tier_na = TierPredictor::train(&noaug_ts.tier_samples, &mcfg);
    let tier_nt = TierPredictor::train(
        &strip_top_level_features(&transferred_ts.tier_samples),
        &mcfg,
    );
    let miv_tr = MivPinpointer::train(&transferred_ts.miv_samples, &mcfg);

    let mut rows = Vec::new();
    m3d_obs::out!(
        "{:<6} {:>10} {:>11} {:>9} {:>9} | {:>10} {:>11}",
        "config",
        "tier-ded",
        "tier-transf",
        "tier-noaug",
        "tier-notop",
        "miv-ded",
        "miv-transf"
    );
    for (i, dc) in DesignConfig::EVAL.iter().enumerate() {
        let bench = build_bench(profile, *dc, &cfg);
        let ctx = DesignContext::new(&bench);
        let train = generate_samples(
            &ctx,
            &DatasetConfig {
                miv_fraction: 0.3,
                ..DatasetConfig::single(scale.n_train, 3000 + i as u64)
            },
        );
        let test = generate_samples(
            &ctx,
            &DatasetConfig {
                miv_fraction: 0.3,
                ..DatasetConfig::single(scale.n_test, 4000 + i as u64)
            },
        );
        let tier_test = tier_training_set(&bench, &test);
        let miv_test = m3d_fault_loc::miv_training_set(&test);
        let tier_ded = TierPredictor::train(&tier_training_set(&bench, &train), &mcfg);
        let miv_ded = MivPinpointer::train(&m3d_fault_loc::miv_training_set(&train), &mcfg);
        let row = TransferRow {
            config: dc.name(),
            tier_dedicated: tier_ded.accuracy(&tier_test),
            tier_transferred: tier_tr.accuracy(&tier_test),
            tier_no_aug: tier_na.accuracy(&tier_test),
            tier_no_top: tier_nt.accuracy(&strip_top_level_features(&tier_test)),
            miv_dedicated: miv_ded.accuracy(&miv_test),
            miv_transferred: miv_tr.accuracy(&miv_test),
        };
        m3d_obs::out!(
            "{:<6} {:>9.1}% {:>10.1}% {:>8.1}% {:>8.1}% | {:>9.1}% {:>10.1}%",
            row.config,
            100.0 * row.tier_dedicated,
            100.0 * row.tier_transferred,
            100.0 * row.tier_no_aug,
            100.0 * row.tier_no_top,
            100.0 * row.miv_dedicated,
            100.0 * row.miv_transferred,
        );
        rows.push(row);
    }
    rows
}

/// Tables V/VII: raw ATPG report quality for every benchmark and config.
pub fn table_atpg_quality(
    scale: &Scale,
    compacted: bool,
) -> Vec<(String, &'static str, ReportQuality)> {
    let which = if compacted { "VII" } else { "V" };
    m3d_obs::out!(
        "== Table {which}: ATPG report quality ({}compaction, scale = {}) ==",
        if compacted { "" } else { "no " },
        scale.name
    );
    let cfg = ExperimentConfig::new(scale.clone(), compacted);
    let mut rows = Vec::new();
    for profile in BenchmarkProfile::ALL {
        for (i, dc) in DesignConfig::EVAL.iter().enumerate() {
            let bench = build_bench(profile, *dc, &cfg);
            let ctx = DesignContext::new(&bench);
            let diag = AtpgDiagnosis::new(
                &ctx.fsim,
                compacted.then(|| ctx.chains()),
                DiagnosisConfig::default(),
            );
            let samples = generate_samples(
                &ctx,
                &DatasetConfig {
                    compacted,
                    ..DatasetConfig::single(scale.n_test, 7_000 + i as u64)
                },
            );
            let cases: Vec<_> = samples
                .iter()
                .map(|s| (diag.diagnose(&s.log), s.truth.clone()))
                .collect();
            let q = report_quality(&cases, false);
            m3d_obs::out!("{:<8} {:<6} {}", profile.name(), dc.name(), fmt_quality(&q));
            rows.push((profile.name().to_string(), dc.name(), q));
        }
    }
    rows
}

/// Tables VI/VIII: localization effectiveness of baseline \[11\], GNN
/// standalone, and GNN + \[11\] for every benchmark and config.
pub fn table_localization(
    scale: &Scale,
    compacted: bool,
    profiles: &[BenchmarkProfile],
) -> Vec<(String, ConfigEval)> {
    let which = if compacted { "VIII" } else { "VI" };
    m3d_obs::out!(
        "== Table {which}: fault localization ({}compaction, scale = {}) ==",
        if compacted { "" } else { "no " },
        scale.name
    );
    let cfg = ExperimentConfig::new(scale.clone(), compacted);
    let mut out = Vec::new();
    for &profile in profiles {
        m3d_obs::out!("--- {} ---", profile.name());
        for eval in run_profile(profile, &cfg) {
            m3d_obs::out!("{:<6} ATPG       {}", eval.config, fmt_quality(&eval.atpg));
            m3d_obs::out!(
                "{:<6} [11]       {}  tier-loc {}",
                eval.config,
                fmt_quality_vs(&eval.baseline.quality, &eval.atpg),
                fmt_tier_loc(eval.baseline.tier_localization)
            );
            m3d_obs::out!(
                "{:<6} GNN        {}  tier-loc {}",
                eval.config,
                fmt_quality_vs(&eval.gnn.quality, &eval.atpg),
                fmt_tier_loc(eval.gnn.tier_localization)
            );
            m3d_obs::out!(
                "{:<6} GNN+[11]   {}",
                eval.config,
                fmt_quality_vs(&eval.gnn_plus.quality, &eval.atpg)
            );
            out.push((profile.name().to_string(), eval));
        }
    }
    out
}

/// Table IX / Fig. 9 data: training and deployment runtimes per benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeRow {
    /// Benchmark name.
    pub design: String,
    /// Feature (hetero-graph) construction seconds.
    pub t_features: f64,
    /// GNN training seconds.
    pub t_training: f64,
    /// Total ATPG diagnosis seconds over the test set.
    pub t_atpg: f64,
    /// Total GNN inference seconds over the test set.
    pub t_gnn: f64,
    /// Total policy-update seconds over the test set.
    pub t_update: f64,
    /// Mean FHI of raw ATPG reports.
    pub fhi_atpg: f64,
    /// Mean FHI after pruning/reordering.
    pub fhi_updated: f64,
}

/// Table IX: runtime analysis on the Syn-2 configuration of every
/// benchmark (as in the paper).
pub fn table09(scale: &Scale, profiles: &[BenchmarkProfile]) -> Vec<RuntimeRow> {
    m3d_obs::out!("== Table IX: runtime analysis (scale = {}) ==", scale.name);
    m3d_obs::out!(
        "{:<10} {:>10} {:>9} {:>9} {:>8} {:>9}",
        "design",
        "features",
        "training",
        "T_ATPG",
        "T_GNN",
        "T_update"
    );
    let cfg = ExperimentConfig::new(scale.clone(), false);
    let mut rows = Vec::new();
    for &profile in profiles {
        let t0 = Instant::now();
        let trained = train_framework(profile, &cfg);
        let _ = t0;
        let eval = evaluate_config(&trained, profile, DesignConfig::Syn2, &cfg, 12_345);
        let row = RuntimeRow {
            design: profile.name().to_string(),
            t_features: trained.t_features.as_secs_f64(),
            t_training: trained.t_training.as_secs_f64(),
            t_atpg: eval.t_atpg.as_secs_f64(),
            t_gnn: eval.t_gnn.as_secs_f64(),
            t_update: eval.t_update.as_secs_f64(),
            fhi_atpg: eval.atpg.mean_fhi,
            fhi_updated: eval.gnn.quality.mean_fhi,
        };
        m3d_obs::out!(
            "{:<10} {:>9.2}s {:>8.2}s {:>8.2}s {:>7.3}s {:>8.4}s",
            row.design,
            row.t_features,
            row.t_training,
            row.t_atpg,
            row.t_gnn,
            row.t_update
        );
        m3d_obs::out!(
            "{:<10} backup dictionary ≈ {} bytes/pruned case, {} degraded case(s) [{}]",
            "",
            eval.backup_bytes,
            eval.degraded_cases,
            eval.degraded_breakdown.render()
        );
        rows.push(row);
    }
    rows
}

/// Fig. 10: PFA time saved vs per-candidate PFA cost `x`, from Table IX
/// runtime rows.
pub fn fig10(rows: &[RuntimeRow]) -> Vec<(String, Vec<(f64, f64)>)> {
    m3d_obs::out!("== Fig. 10: T_diff vs per-candidate PFA cost x ==");
    let xs = [1.0, 5.0, 10.0, 50.0, 100.0];
    let mut out = Vec::new();
    for r in rows {
        let series: Vec<(f64, f64)> = xs
            .iter()
            .map(|&x| {
                (
                    x,
                    pfa_time_saved(r.t_atpg, r.t_gnn, r.t_update, r.fhi_atpg, r.fhi_updated, x),
                )
            })
            .collect();
        let mut line = format!("{:<10}", r.design);
        for (x, t) in &series {
            line.push_str(&format!("  x={x:>5}: {t:>9.1}s"));
        }
        m3d_obs::out!("{line}");
        out.push((r.design.clone(), series));
    }
    out
}

/// Failure logs per design in [`paper_backtrace_probe`].
const PROBE_LOGS: usize = 6;

/// Per-log entry budget in [`paper_backtrace_probe`]: full paper-scale
/// logs can carry thousands of failing observations; a fixed budget keeps
/// the probe's wall-clock bounded while still exercising hundreds of
/// distinct (observer, pattern) cone screens.
const PROBE_ENTRIES: usize = 96;

/// One design's result from [`paper_backtrace_probe`].
#[derive(Debug, Clone, PartialEq)]
pub struct BacktraceProbeRow {
    /// Benchmark name.
    pub design: String,
    /// Combinational gate count of the generated design.
    pub gates: usize,
    /// Heterogeneous-graph node count (pins + MIVs).
    pub nodes: usize,
    /// Observation points (Topnodes, one cone row each).
    pub observers: usize,
    /// Failure logs back-traced per path.
    pub logs: usize,
    /// Reference (graph-walking) back-trace seconds.
    pub t_reference: f64,
    /// Bitmap back-trace seconds.
    pub t_bitmap: f64,
}

impl BacktraceProbeRow {
    /// Reference-over-bitmap wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        if self.t_bitmap > 0.0 {
            self.t_reference / self.t_bitmap
        } else {
            f64::INFINITY
        }
    }
}

/// The `BENCH_paper` workload: Table III-scale designs pushed through the
/// reference and the bitmap back-trace over the same failure logs.
///
/// Emits `paper.backtrace.reference` and `paper.backtrace` spans so the
/// perf snapshot (and the `m3d-obsctl speedup` gate in `ci.sh`) can hold
/// the bitmap path to its advertised win, and panics if the two ever
/// disagree — the bit-identity contract, enforced at ≥100k-gate scale on
/// every CI run rather than only on the quick fixtures.
pub fn paper_backtrace_probe(
    scale: &Scale,
    profiles: &[BenchmarkProfile],
) -> Vec<BacktraceProbeRow> {
    m3d_obs::out!(
        "== Paper-scale back-trace probe (scale = {}) ==",
        scale.name
    );
    m3d_obs::out!(
        "{:<10} {:>9} {:>9} {:>6} {:>5} {:>9} {:>9} {:>8}",
        "design",
        "gates",
        "nodes",
        "obs",
        "logs",
        "reference",
        "bitmap",
        "speedup"
    );
    let cfg = ExperimentConfig::new(scale.clone(), false);
    let bt = BacktraceConfig::default();
    let mut rows = Vec::new();
    for &profile in profiles {
        let bench = {
            let _span = m3d_obs::span!("paper.bench.build");
            build_bench(profile, DesignConfig::Par, &cfg)
        };
        let ctx = {
            let _span = m3d_obs::span!("paper.context.build");
            DesignContext::new(&bench)
        };
        // Logs from detected TDFs spread across the design; alternate
        // bypass and compacted so both paths also chew the multi-observer
        // ambiguity sets of channel entries.
        let faults = tdf_list(bench.netlist());
        let stride = (faults.len() / 97).max(1);
        let mut logs: Vec<(FailureLog, bool)> = Vec::new();
        for (tried, f) in faults.iter().step_by(stride).enumerate() {
            let compacted = logs.len() % 2 == 1;
            let log = ctx.failure_log(&InjectedFault::Single(*f), compacted);
            if !log.is_empty() {
                let log: FailureLog = log.entries().iter().take(PROBE_ENTRIES).copied().collect();
                logs.push((log, compacted));
            }
            if logs.len() >= PROBE_LOGS || tried > 64 {
                break;
            }
        }
        assert!(
            !logs.is_empty(),
            "{}: no detected fault produced a failure log",
            bench.name
        );
        let t0 = Instant::now();
        let reference: Vec<Subgraph> = {
            let _span = m3d_obs::span!("paper.backtrace.reference");
            logs.iter()
                .map(|(log, compacted)| {
                    reference_backtrace(
                        &ctx.hetero,
                        &ctx.features,
                        ctx.fsim.sim(),
                        ctx.fsim.obs(),
                        compacted.then(|| ctx.chains()),
                        log,
                        &bt,
                    )
                })
                .collect()
        };
        let t_reference = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let bitmap: Vec<Subgraph> = {
            let _span = m3d_obs::span!("paper.backtrace");
            logs.iter()
                .map(|(log, compacted)| ctx.backtrace(log, *compacted, &bt))
                .collect()
        };
        let t_bitmap = t1.elapsed().as_secs_f64();
        for (i, (r, b)) in reference.iter().zip(&bitmap).enumerate() {
            assert_eq!(b.nodes, r.nodes, "{}: log {i} pruned node set", bench.name);
            assert_eq!(
                b.x.as_slice(),
                r.x.as_slice(),
                "{}: log {i} features",
                bench.name
            );
            assert_eq!(b.miv_rows, r.miv_rows, "{}: log {i} MIV rows", bench.name);
        }
        let row = BacktraceProbeRow {
            design: profile.name().to_string(),
            gates: bench.netlist().stats().gates,
            nodes: ctx.hetero.node_count(),
            observers: ctx.fsim.obs().len(),
            logs: logs.len(),
            t_reference,
            t_bitmap,
        };
        m3d_obs::out!(
            "{:<10} {:>9} {:>9} {:>6} {:>5} {:>8.2}s {:>8.3}s {:>7.1}x",
            row.design,
            row.gates,
            row.nodes,
            row.observers,
            row.logs,
            row.t_reference,
            row.t_bitmap,
            row.speedup()
        );
        rows.push(row);
    }
    rows
}

/// Table X row: multiple-fault localization for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiFaultRow {
    /// Benchmark name.
    pub design: String,
    /// Raw ATPG quality (all-faults accuracy criterion).
    pub atpg: ReportQuality,
    /// Framework quality.
    pub framework: ReportQuality,
    /// Tier-localization percentage of the framework.
    pub tier_localization: Option<f64>,
}

/// Table X: 2–5 same-tier TDFs; train on Syn-1 multi-fault data, test on
/// Syn-2 (the paper's transfer setting).
pub fn table10(scale: &Scale, profiles: &[BenchmarkProfile]) -> Vec<MultiFaultRow> {
    m3d_obs::out!(
        "== Table X: multiple-fault localization (scale = {}) ==",
        scale.name
    );
    let cfg = ExperimentConfig::new(scale.clone(), false);
    let multi_cfg = |n: usize, seed: u64| DatasetConfig {
        multi: Some((2, 5)),
        backtrace: BacktraceConfig {
            keep_frac: 0.4,
            ..BacktraceConfig::default()
        },
        ..DatasetConfig::single(n, seed)
    };
    let mut rows = Vec::new();
    for &profile in profiles {
        // Train on Syn-1 multi-fault samples.
        let train_bench = build_bench(profile, DesignConfig::Syn1, &cfg);
        let mut ts = TrainingSet::new();
        {
            let ctx = DesignContext::new(&train_bench);
            let samples = generate_samples(&ctx, &multi_cfg(scale.n_train, 5_100));
            ts.add(&train_bench, &samples);
        }
        let pipeline = PipelineBuilder::new()
            .framework_config(FrameworkConfig {
                model: ModelTrainConfig {
                    epochs: scale.epochs,
                    ..ModelTrainConfig::default()
                },
                use_classifier: false, // multi-fault study: tier + reorder focus
                ..FrameworkConfig::default()
            })
            .build();
        let fw = pipeline
            .train(&ts)
            .expect("multi-fault training set is non-empty");
        // Test on Syn-2.
        let bench = build_bench(profile, DesignConfig::Syn2, &cfg);
        let ctx = DesignContext::new(&bench);
        let diag = AtpgDiagnosis::new(&ctx.fsim, None, DiagnosisConfig::default());
        let samples = generate_samples(&ctx, &multi_cfg(scale.n_test, 6_200));
        let case_results = pipeline
            .pool()
            .map(&samples, |_, s| fw.process_case(&ctx, &diag, s));
        let mut atpg_cases = Vec::new();
        let mut fw_cases = Vec::new();
        let mut tl = TierLocalization::new();
        for (s, r) in samples.iter().zip(case_results) {
            let truth_tier = s.fault.tier(&bench).expect("multi-tier faults have a tier");
            tl.add(
                single_tier_of(&r.atpg_report, &bench.m3d).is_some(),
                Some(r.outcome.predicted_tier),
                truth_tier,
            );
            atpg_cases.push((r.atpg_report, s.truth.clone()));
            fw_cases.push((r.outcome.report, s.truth.clone()));
        }
        let row = MultiFaultRow {
            design: profile.name().to_string(),
            atpg: report_quality(&atpg_cases, true),
            framework: report_quality(&fw_cases, true),
            tier_localization: tl.percentage(),
        };
        m3d_obs::out!("{:<10} ATPG      {}", row.design, fmt_quality(&row.atpg));
        m3d_obs::out!(
            "{:<10} proposed  {}  tier-loc {}",
            row.design,
            fmt_quality_vs(&row.framework, &row.atpg),
            fmt_tier_loc(row.tier_localization)
        );
        rows.push(row);
    }
    rows
}

/// Table XI row: one diagnosis mode of the standalone-model ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Mode name.
    pub method: &'static str,
    /// Quality under the mode.
    pub quality: ReportQuality,
}

/// Table XI: ATPG-only vs Tier-predictor standalone vs MIV-pinpointer
/// standalone vs both, on AES Syn-1 with the test set augmented by 10%
/// MIV-fault samples.
pub fn table11(scale: &Scale) -> Vec<AblationRow> {
    m3d_obs::out!(
        "== Table XI: standalone-model ablation (AES Syn-1, scale = {}) ==",
        scale.name
    );
    let cfg = ExperimentConfig::new(scale.clone(), false);
    let profile = BenchmarkProfile::AesLike;
    let bench = build_bench(profile, DesignConfig::Syn1, &cfg);
    let ctx = DesignContext::new(&bench);
    let train = generate_samples(
        &ctx,
        &DatasetConfig {
            miv_fraction: 0.25,
            ..DatasetConfig::single(scale.n_train, 8_100)
        },
    );
    let mut ts = TrainingSet::new();
    ts.add(&bench, &train);

    // Test set: single faults plus 10% MIV-fault augmentation.
    let mut test = generate_samples(&ctx, &DatasetConfig::single(scale.n_test, 8_200));
    let miv_extra = generate_samples(
        &ctx,
        &DatasetConfig {
            miv_fraction: 1.0,
            ..DatasetConfig::single(scale.n_test / 10, 8_300)
        },
    );
    test.extend(miv_extra);

    let diag = AtpgDiagnosis::new(&ctx.fsim, None, DiagnosisConfig::default());
    let modes: [(&'static str, bool, bool); 4] = [
        ("ATPG only", false, false),
        ("Tier-predictor", true, false),
        ("MIV-pinpointer", false, true),
        ("Tier + MIV", true, true),
    ];
    let mut rows = Vec::new();
    let mcfg = ModelTrainConfig {
        epochs: scale.epochs,
        ..ModelTrainConfig::default()
    };
    let pool = ExecPool::default();
    for (name, use_tier, use_miv) in modes {
        let pipeline = PipelineBuilder::new()
            .framework_config(FrameworkConfig {
                model: mcfg.clone(),
                use_tier,
                use_miv,
                use_classifier: use_tier,
                ..FrameworkConfig::default()
            })
            .build();
        let fw = pipeline
            .train(&ts)
            .expect("ablation training set is non-empty");
        let cases: Vec<_> = pool.map(&test, |_, s| {
            let r = fw.process_case(&ctx, &diag, s);
            let report = if name == "ATPG only" {
                r.atpg_report
            } else {
                r.outcome.report
            };
            (report, s.truth.clone())
        });
        let quality = report_quality(&cases, false);
        m3d_obs::out!("{:<16} {}", name, fmt_quality(&quality));
        rows.push(AblationRow {
            method: name,
            quality,
        });
    }
    rows
}
