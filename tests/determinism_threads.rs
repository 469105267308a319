//! Thread-count invariance of the full training + diagnosis pipeline.
//!
//! The exec pool's determinism contract (fixed-order reduction, input-order
//! result merge) promises bit-identical models and predictions at any
//! thread count. These tests hold the whole stack to that promise: dataset
//! generation, Tier-predictor / MIV-pinpointer training (both models'
//! restarts in one dispatch) through [`PipelineBuilder`], the PR-curve
//! threshold `T_P`, the Classifier head trained on the Tier trunk's
//! readouts, and per-case tier predictions must all agree bitwise between
//! a serial run and 2/4-thread runs.

use m3d_exec::ExecPool;
use m3d_fault_loc::{
    generate_samples_with_pool, DatasetConfig, DesignConfig, DesignContext, Framework,
    PipelineBuilder, Sample, TestBench, TestBenchConfig, TrainingSet,
};
use m3d_netlist::BenchmarkProfile;

fn bench() -> TestBench {
    TestBench::build(&TestBenchConfig::quick(
        BenchmarkProfile::AesLike,
        DesignConfig::Syn1,
    ))
}

fn samples_with(ctx: &DesignContext<'_>, threads: usize) -> Vec<Sample> {
    generate_samples_with_pool(
        ctx,
        &DatasetConfig {
            miv_fraction: 0.2,
            ..DatasetConfig::single(48, 7)
        },
        &ExecPool::with_threads(threads),
    )
}

fn train_with(ts: &TrainingSet, threads: usize, precision_target: f64) -> Framework {
    PipelineBuilder::new()
        .threads(threads)
        .precision_target(precision_target)
        .build()
        .train(ts)
        .expect("training set is non-empty")
}

#[test]
fn pipeline_is_thread_count_invariant() {
    let bench = bench();
    let ctx = DesignContext::new(&bench);
    let samples = samples_with(&ctx, 1);
    let mut ts = TrainingSet::new();
    ts.add(&bench, &samples);

    // This 39-sample set's PR curve reaches 0.6 precision at no threshold
    // that predicts a positive: at the default 0.99 target, T_P falls back
    // to 1.0 and no sample reaches the Classifier. At 0.5, T_P is 0 and
    // every sample does, so its training is held to the contract too.
    assert_eq!(ts.tier_samples.len(), 39);
    let fallback = train_with(&ts, 1, 0.99);
    assert_eq!(fallback.t_p(), 1.0);
    assert!(fallback.t_p_is_fallback() && fallback.classifier().is_none());
    let reference = train_with(&ts, 1, 0.5);
    let ref_tier = reference.tier_predictor().save_text();
    let ref_miv = reference.miv_pinpointer().map(|m| m.save_text());
    let ref_classifier = reference.classifier().map(|c| c.save_text());
    assert!(
        ref_classifier.is_some(),
        "the training set must pass the Classifier's confidence gate"
    );

    for threads in [2, 4] {
        let fw = train_with(&ts, threads, 0.5);
        assert_eq!(
            fw.t_p().to_bits(),
            reference.t_p().to_bits(),
            "T_P differs at {threads} threads"
        );
        assert_eq!(
            fw.tier_predictor().save_text(),
            ref_tier,
            "Tier-predictor weights differ at {threads} threads"
        );
        assert_eq!(
            fw.miv_pinpointer().map(|m| m.save_text()),
            ref_miv,
            "MIV-pinpointer weights differ at {threads} threads"
        );
        assert_eq!(
            fw.classifier().map(|c| c.save_text()),
            ref_classifier,
            "Classifier weights differ at {threads} threads"
        );
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(
                reference
                    .tier_predictor()
                    .predict(&s.subgraph)
                    .map(f32::to_bits),
                fw.tier_predictor().predict(&s.subgraph).map(f32::to_bits),
                "tier probabilities differ on sample {i} at {threads} threads"
            );
        }
    }
}

/// The vectorized write-into kernels, the recycled workspace, and the
/// per-sample `Â·X` cache must be pure optimizations: training the same
/// model on the same data gives byte-identical weights and loss curves
/// whether it runs alone on the caller's thread or on pool workers beside
/// another run over the same samples (the way restarts train), and
/// whether the `Â·X` cache starts cold or pre-warmed.
#[test]
fn tiled_kernel_training_is_invariant_to_threads_and_cache_state() {
    use m3d_gnn::{GcnConfig, GcnModel, GraphSample, Matrix, Task, TrainConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0xD15C);
    let make_samples = |rng: &mut StdRng| -> Vec<GraphSample> {
        (0..12)
            .map(|_| {
                let nodes = rng.gen_range(6..14usize);
                let mut g = m3d_gnn::Graph::new(nodes);
                for i in 1..nodes {
                    g.add_edge(rng.gen_range(0..i) as u32, i as u32);
                }
                let mut x = Matrix::zeros(nodes, 5);
                let label = rng.gen_range(0..2usize);
                for r in 0..nodes {
                    for c in 0..5 {
                        x.set(r, c, rng.gen_range(-1.0..1.0) + label as f32);
                    }
                }
                GraphSample::graph_level(g.normalize(true), x, label)
            })
            .collect()
    };
    let samples = make_samples(&mut rng);
    let cfg = TrainConfig {
        epochs: 6,
        ..TrainConfig::default()
    };
    let model_cfg = GcnConfig::two_layer(5, Task::Graph);

    let mut reference = GcnModel::new(&model_cfg);
    let ref_losses = reference.train(&samples, &cfg);
    let bits = |l: &[f64]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

    // Two runs at once on pool workers over shared fresh samples: their
    // first epochs race to fill each cold Â·X cache.
    let fresh: Vec<GraphSample> = samples
        .iter()
        .map(|s| GraphSample::new(s.adj.clone(), s.x.clone(), s.targets.clone()))
        .collect();
    let runs = ExecPool::with_threads(2).map_indices(2, |_| {
        let mut model = GcnModel::new(&model_cfg);
        let losses = model.train(&fresh, &cfg);
        (model.save_text(), bits(&losses))
    });
    for (weights, losses) in runs {
        assert_eq!(weights, reference.save_text());
        assert_eq!(losses, bits(&ref_losses));
    }

    // Pre-warmed Â·X cache.
    let warm: Vec<GraphSample> = samples
        .iter()
        .map(|s| GraphSample::new(s.adj.clone(), s.x.clone(), s.targets.clone()))
        .collect();
    for s in &warm {
        let _ = s.ax1();
    }
    let mut warmed = GcnModel::new(&model_cfg);
    let warm_losses = warmed.train(&warm, &cfg);
    assert_eq!(warmed.save_text(), reference.save_text());
    assert_eq!(bits(&warm_losses), bits(&ref_losses));
}

/// The SIMD lane-order contract, end to end: an entire training run under
/// the forced scalar backend produces byte-identical weights, losses and
/// inference logits to the default 8-lane vector backend. This is what
/// lets `M3D_SIMD=off` serve as a bit-exact reference mode rather than an
/// approximation.
#[test]
fn training_is_invariant_to_simd_backend() {
    use m3d_gnn::{
        force_simd_mode, GcnConfig, GcnModel, GraphSample, Matrix, SimdMode, Task, TrainConfig,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x51AD);
    let samples: Vec<GraphSample> = (0..8)
        .map(|_| {
            let nodes = rng.gen_range(5..12usize);
            let mut g = m3d_gnn::Graph::new(nodes);
            for i in 1..nodes {
                g.add_edge(rng.gen_range(0..i) as u32, i as u32);
            }
            let mut x = Matrix::zeros(nodes, 6);
            let label = rng.gen_range(0..2usize);
            for r in 0..nodes {
                for c in 0..6 {
                    x.set(r, c, rng.gen_range(-1.0..1.0) + label as f32);
                }
            }
            GraphSample::graph_level(g.normalize(true), x, label)
        })
        .collect();
    let cfg = TrainConfig {
        epochs: 4,
        ..TrainConfig::default()
    };
    let model_cfg = GcnConfig::two_layer(6, Task::Graph);

    let run = |mode: SimdMode| {
        force_simd_mode(Some(mode));
        let mut model = GcnModel::new(&model_cfg);
        let losses = model.train(&samples, &cfg);
        let logits: Vec<Vec<u32>> = samples
            .iter()
            .map(|s| {
                let z = model.logits(&s.adj, &s.x);
                z.as_slice().iter().map(|v| v.to_bits()).collect()
            })
            .collect();
        force_simd_mode(None);
        (model.save_text(), losses, logits)
    };
    let (scalar_model, scalar_losses, scalar_logits) = run(SimdMode::Scalar);
    let (vector_model, vector_losses, vector_logits) = run(SimdMode::Vector);
    assert_eq!(
        vector_model, scalar_model,
        "weights differ between scalar and vector backends"
    );
    let bits = |l: &[f64]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&vector_losses),
        bits(&scalar_losses),
        "loss curves differ between scalar and vector backends"
    );
    assert_eq!(
        vector_logits, scalar_logits,
        "inference logits differ between scalar and vector backends"
    );
}

#[test]
fn dataset_generation_is_thread_count_invariant() {
    let bench = bench();
    let ctx = DesignContext::new(&bench);
    let serial = samples_with(&ctx, 1);
    for threads in [2, 4] {
        let parallel = samples_with(&ctx, threads);
        assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a.fault, b.fault, "fault differs on sample {i}");
            assert_eq!(a.log, b.log, "failure log differs on sample {i}");
            assert_eq!(a.truth, b.truth, "truth differs on sample {i}");
            assert_eq!(
                a.subgraph.x.as_slice(),
                b.subgraph.x.as_slice(),
                "features differ on sample {i}"
            );
        }
    }
}
