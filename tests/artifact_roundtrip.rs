//! Artifact persistence acceptance: a framework saved to `m3d-artifact/2`
//! text and loaded back into a sealed [`DiagnosisSession`] must diagnose
//! bit-identically to the in-process pipeline on every quick evaluation
//! design, at any thread count; a wrong bench must be refused by
//! fingerprint; and no byte-level perturbation of the artifact text may
//! ever panic the parser — it either errors or yields a semantically
//! intact artifact.

use std::sync::OnceLock;

use m3d_exec::ExecPool;
use m3d_fault_loc::{
    design_fingerprint, generate_samples, Artifact, DatasetConfig, DesignConfig, DesignContext,
    Error, Framework, FrameworkResult, ModelTrainConfig, Pipeline, PipelineBuilder, TestBench,
    TestBenchConfig, TrainingSet,
};
use m3d_netlist::BenchmarkProfile;
use m3d_sim::FailureLog;
use proptest::prelude::*;

fn quick_cfg(config: DesignConfig) -> TestBenchConfig {
    TestBenchConfig {
        scale: 0.002,
        ..TestBenchConfig::quick(BenchmarkProfile::AesLike, config)
    }
}

/// A small but real training run (the roundtrip compares exact results,
/// not model quality).
fn pipeline() -> Pipeline {
    PipelineBuilder::new()
        .threads(2)
        .model(ModelTrainConfig {
            epochs: 8,
            restarts: 1,
            ..ModelTrainConfig::default()
        })
        .build()
}

fn train(pipeline: &Pipeline, bench: &TestBench) -> Framework {
    let ctx = DesignContext::new(bench);
    let train = pipeline.generate_samples(
        &ctx,
        &DatasetConfig {
            miv_fraction: 0.2,
            ..DatasetConfig::single(40, 3)
        },
    );
    let mut ts = TrainingSet::new();
    ts.add(bench, &train);
    pipeline.train(&ts).expect("training set is non-empty")
}

/// The deterministic projection of a result: everything except wall-clock
/// timings and trace ids (which legitimately differ run to run).
fn canon(r: &FrameworkResult) -> String {
    format!(
        "atpg={:?} report={:?} pruned={:?} action={:?} tier={:?} conf={:08x} mivs={:?} degraded={:?} fallback={}",
        r.atpg_report,
        r.outcome.report,
        r.outcome.pruned,
        r.outcome.action,
        r.outcome.predicted_tier,
        r.outcome.confidence.to_bits(),
        r.outcome.faulty_mivs,
        r.degraded,
        r.t_p_fallback,
    )
}

#[test]
fn save_load_diagnose_matches_in_process_on_all_quick_designs() {
    let pipeline = pipeline();
    for config in DesignConfig::EVAL {
        let cfg = quick_cfg(config);
        let bench = TestBench::build(&cfg);
        let fw = train(&pipeline, &bench);

        // Text round trip is lossless.
        let artifact = pipeline.save_artifact(&cfg, &bench, &fw);
        let text = artifact.to_text();
        let back = Artifact::from_text(&text).expect("self-produced artifact parses");
        assert_eq!(artifact, back, "{}: text round trip", bench.name);

        // The embedded recipe rebuilds the same design.
        let rebuilt = back.build_bench().expect("embedded recipe regenerates");
        assert_eq!(
            design_fingerprint(&rebuilt),
            design_fingerprint(&bench),
            "{}: recipe must rebuild the same design",
            bench.name
        );

        let loaded = pipeline
            .load_artifact(&back, &rebuilt)
            .expect("fingerprint matches");
        let in_process = pipeline.open_session(fw, &bench);

        let ctx = DesignContext::new(&bench);
        let chips = generate_samples(&ctx, &DatasetConfig::single(6, 77));
        let logs: Vec<FailureLog> = chips.iter().map(|s| s.log.clone()).collect();
        for threads in [1usize, 4] {
            let pool = ExecPool::with_threads(threads);
            let a = in_process.diagnose_batch(&logs, &pool);
            let b = loaded.diagnose_batch(&logs, &pool);
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    canon(x),
                    canon(y),
                    "{}: case {i} at {threads} thread(s) must be bit-identical",
                    bench.name
                );
            }
        }
    }
}

#[test]
fn wrong_bench_is_refused_by_fingerprint() {
    let pipeline = pipeline();
    let cfg = quick_cfg(DesignConfig::Syn1);
    let bench = TestBench::build(&cfg);
    let fw = train(&pipeline, &bench);
    let artifact = pipeline.save_artifact(&cfg, &bench, &fw);

    let other = TestBench::build(&quick_cfg(DesignConfig::Par));
    match pipeline.load_artifact(&artifact, &other) {
        Err(Error::DesignMismatch { expected, found }) => {
            assert_eq!(expected, artifact.fingerprint());
            assert_eq!(found, design_fingerprint(&other));
        }
        other => panic!("expected DesignMismatch, got {other:?}"),
    }
}

/// One artifact text shared by every proptest case (training once).
fn artifact_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let pipeline = pipeline();
        let cfg = quick_cfg(DesignConfig::Syn1);
        let bench = TestBench::build(&cfg);
        let fw = train(&pipeline, &bench);
        pipeline.save_artifact(&cfg, &bench, &fw).to_text()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// No truncation, line deletion/duplication, or byte substitution may
    /// panic the parser. Whatever still parses must re-serialize to a
    /// document that parses to the same artifact (idempotence), so a
    /// perturbation can never smuggle in a half-corrupt model.
    #[test]
    fn perturbed_artifacts_never_panic(pos in 0usize..10_000, kind in 0u8..4) {
        let text = artifact_text();
        let mutated = match kind {
            0 => text[..pos % text.len()].to_string(),
            1 => {
                // ASCII-safe byte substitution.
                let mut bytes = text.as_bytes().to_vec();
                let i = pos % bytes.len();
                bytes[i] = if bytes[i] == b'z' { b'q' } else { b'z' };
                String::from_utf8_lossy(&bytes).into_owned()
            }
            2 => {
                let mut lines: Vec<&str> = text.lines().collect();
                lines.remove(pos % lines.len());
                lines.join("\n")
            }
            _ => {
                let mut lines: Vec<&str> = text.lines().collect();
                lines.insert(pos % lines.len(), lines[pos % lines.len()]);
                lines.join("\n")
            }
        };
        if let Ok(parsed) = Artifact::from_text(&mutated) {
            let again = Artifact::from_text(&parsed.to_text()).expect("idempotent");
            prop_assert_eq!(parsed, again);
        }
    }
}
