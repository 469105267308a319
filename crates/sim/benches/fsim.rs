//! Microbench for the per-chip netlist loops of ATPG diagnosis, on the
//! quick aes design and on a 100k-gate generated netlist: full-pattern
//! [`FaultSimulator::simulate`] over a stride of detectable TDFs, the
//! failing-pattern [`FaultSimulator::simulate_masked`] screen over the
//! same faults, and [`AtpgDiagnosis::structural_candidates`] (one fan-in
//! cone walk per failing observer) on their logs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use m3d_diagnosis::{AtpgDiagnosis, DiagnosisConfig};
use m3d_netlist::{generate, BenchmarkProfile, GeneratorConfig, Netlist, SynthesisCorner};
use m3d_sim::{
    generate_patterns, source_count_for, tdf_list, AtpgConfig, FailureLog, FaultSimulator,
    PatternSet, Tdf,
};

/// The netlist and ATPG patterns of the quick aes test bench (aes at
/// scale 0.004, Syn-1).
fn quick_aes() -> (Netlist, PatternSet) {
    let nl = generate(&BenchmarkProfile::AesLike.config(0.004, SynthesisCorner::Syn1));
    let atpg = generate_patterns(
        &nl,
        &AtpgConfig {
            fault_sample: Some(1_000),
            max_rounds: 8,
            ..AtpgConfig::default()
        },
    );
    (nl, atpg.patterns)
}

/// A 100k-gate generated netlist under 128 random patterns.
fn gen_100k() -> (Netlist, PatternSet) {
    let nl = generate(&GeneratorConfig {
        n_comb_gates: 100_000,
        n_flops: 256,
        n_inputs: 64,
        n_outputs: 32,
        target_depth: 34,
        ..GeneratorConfig::default()
    });
    let pats = PatternSet::random(source_count_for(&nl), 128, 7);
    (nl, pats)
}

/// The mask of the patterns `log` fails.
fn failing_mask(log: &FailureLog, words: usize) -> Vec<u64> {
    let mut mask = vec![0u64; words];
    for e in log.entries() {
        mask[e.pattern as usize / 64] |= 1 << (e.pattern % 64);
    }
    mask
}

fn bench_fsim(c: &mut Criterion) {
    for (name, (nl, pats)) in [("aes_quick", quick_aes()), ("gen_100k", gen_100k())] {
        let fsim = FaultSimulator::new(&nl, &pats);
        let all = tdf_list(&nl);
        let faults: Vec<Tdf> = all
            .iter()
            .step_by((all.len() / 400).max(1))
            .filter(|f| fsim.detects(std::slice::from_ref(f)))
            .take(32)
            .copied()
            .collect();
        assert!(!faults.is_empty(), "{name}: no detectable fault");
        let diag = AtpgDiagnosis::new(&fsim, None, DiagnosisConfig::default());
        let logs: Vec<FailureLog> = faults.iter().map(|f| diag.simulate_log(&[*f])).collect();
        let masks: Vec<Vec<u64>> = logs
            .iter()
            .map(|log| failing_mask(log, pats.word_count()))
            .collect();

        let mut group = c.benchmark_group(format!("fsim/{name}"));
        group.sample_size(20);
        group.bench_function("simulate", |b| {
            b.iter(|| {
                faults
                    .iter()
                    .map(|f| fsim.simulate(black_box(std::slice::from_ref(f))).len())
                    .sum::<usize>()
            })
        });
        group.bench_function("simulate_masked", |b| {
            b.iter(|| {
                faults
                    .iter()
                    .zip(&masks)
                    .map(|(f, m)| {
                        fsim.simulate_masked(black_box(std::slice::from_ref(f)), m)
                            .len()
                    })
                    .sum::<usize>()
            })
        });
        group.bench_function("structural_candidates", |b| {
            b.iter(|| {
                logs.iter()
                    .map(|log| diag.structural_candidates(black_box(log)).len())
                    .sum::<usize>()
            })
        });
        group.finish();
    }
}

criterion_group!(fsim, bench_fsim);
criterion_main!(fsim);
