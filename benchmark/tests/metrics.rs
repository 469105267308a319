//! The benchmark's own arithmetic (the tail rule, quartiles, quality
//! aggregation, the `VmHWM` parser) and its agreement with BENCHMARK.json.

use m3d_benchmark::mem::parse_vm_hwm_mib;
use m3d_benchmark::quality::{Case, Digest, Quality};
use m3d_benchmark::stats::{median, quartiles, tail};
use m3d_diagnosis::{Candidate, DiagnosisReport};
use m3d_netlist::{GateId, PinRef};
use m3d_part::{MivId, Tier};
use m3d_sim::{Polarity, Tdf};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();

    let t = tail(&xs(1000)).expect("1000 samples");
    assert_eq!(
        (t.percentile, t.value, t.beyond, t.samples),
        (99.0, 990.0, 10, 1000)
    );

    // One sample short of p99: the rule falls back to p95.
    let t = tail(&xs(999)).expect("999 samples");
    assert_eq!((t.percentile, t.beyond), (95.0, 49));
    assert_eq!(t.value, 950.0);

    let t = tail(&xs(10_000)).expect("10k samples");
    assert_eq!((t.percentile, t.beyond), (99.9, 10));

    assert_eq!(
        tail(&xs(20)).map(|t| (t.percentile, t.beyond)),
        Some((50.0, 10))
    );
    assert_eq!(tail(&xs(19)), None, "not even the median has ten beyond it");
    assert_eq!(tail(&[]), None);
}

#[test]
fn tail_ignores_input_order() {
    let mut xs: Vec<f64> = (1..=200).map(|i| i as f64).collect();
    xs.reverse();
    let t = tail(&xs).expect("200 samples");
    assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from `statistics.quantiles(xs, n=4)`.
    let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
    assert_eq!(q, [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]).unwrap(), [1.0, 2.0, 3.0]);
    assert_eq!(quartiles(&[5.0, 1.0]).unwrap(), [0.0, 3.0, 6.0]);
    assert_eq!(
        quartiles(&[10.0, 12.0, 11.0, 30.0, 9.5]).unwrap(),
        [9.75, 11.0, 21.0]
    );
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
}

#[test]
fn vm_hwm_parses_from_proc_status() {
    let status = "Name:\tm3d-benchmark\nVmPeak:\t 9000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
    assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
    assert_eq!(
        parse_vm_hwm_mib("VmRSS:\t 1024 kB\n"),
        None,
        "no VmHWM line"
    );
    assert_eq!(parse_vm_hwm_mib("VmHWM:\t 12 MB\n"), None, "unknown unit");
    assert_eq!(parse_vm_hwm_mib("VmHWM:\t lots kB\n"), None, "not a number");
    assert!(m3d_benchmark::mem::peak_rss_mib().expect("Linux /proc") > 0.0);
}

fn pin(gate: u32) -> PinRef {
    PinRef::output(GateId(gate))
}

fn report(gates: &[u32]) -> DiagnosisReport {
    DiagnosisReport::new(
        gates
            .iter()
            .map(|&g| Candidate {
                fault: Tdf::new(pin(g), Polarity::SlowToRise),
                tfsf: 1,
                tfsp: 0,
                tpsf: 0,
            })
            .collect(),
    )
}

#[test]
fn quality_aggregates_a_hand_built_case_set() {
    let (top, bottom) = (Tier(1), Tier(0));
    let hit_second = report(&[7, 3, 9]);
    let hit_first = report(&[3]);
    let miss = report(&[8, 9]);
    let miv_report = report(&[5, 6]);
    let truth = [pin(3)];
    let miv_truth = [pin(5)];
    let case = |report, truth_tier, atpg_single_tier, named_tier| Case {
        truth: &truth,
        truth_tier,
        truth_miv: None,
        atpg_single_tier,
        named_tier,
        report,
        faulty_mivs: &[],
    };
    let cases = [
        // Counted for tier localization, named right; hit at rank 2.
        case(&hit_second, Some(top), false, top),
        // Counted, named wrong; hit at rank 1.
        case(&hit_first, Some(top), false, bottom),
        // ATPG already single-tier: excluded from localization; a miss.
        case(&miss, Some(bottom), true, top),
        // MIV defect: no tier; via flagged; hit at rank 1.
        Case {
            truth: &miv_truth,
            truth_tier: None,
            truth_miv: Some(MivId(4)),
            atpg_single_tier: false,
            named_tier: top,
            report: &miv_report,
            faulty_mivs: &[MivId(2), MivId(4)],
        },
        // MIV defect whose via was not flagged; a miss.
        Case {
            truth: &miv_truth,
            truth_tier: None,
            truth_miv: Some(MivId(1)),
            atpg_single_tier: false,
            named_tier: top,
            report: &miss,
            faulty_mivs: &[MivId(2)],
        },
    ];
    let mut q = Quality::default();
    for c in &cases {
        q.add(c);
    }
    assert_eq!(q.chips, 5);
    assert_eq!((q.tier.counted, q.tier.localized), (2, 1));
    assert_eq!(q.tier_loc_pct(), Some(50.0));
    assert_eq!(q.diag_accuracy_pct(), Some(60.0));
    assert_eq!(q.miv_hit_pct(), Some(50.0));
    assert_eq!(q.resolution_mean(), Some((3 + 1 + 2 + 2 + 2) as f64 / 5.0));
    assert_eq!(q.fhi_mean(), Some((2 + 1 + 1) as f64 / 3.0));

    let empty = Quality::default();
    assert_eq!(empty.tier_loc_pct(), None);
    assert_eq!(empty.diag_accuracy_pct(), None);
    assert_eq!(empty.fhi_mean(), None);
}

#[test]
fn digest_sees_rank_order_confidence_and_degradation() {
    let digest = |tier: u8, confidence: f32, gates: &[u32], degrade: Option<&str>| {
        let mut d = Digest::default();
        d.diagnosis(Tier(tier), confidence, &report(gates), degrade);
        d.value()
    };
    let base = digest(1, 0.75, &[3, 7], None);
    assert_eq!(base, digest(1, 0.75, &[3, 7], None));
    assert_ne!(base, digest(0, 0.75, &[3, 7], None));
    assert_ne!(
        base,
        digest(1, f32::from_bits(0.75f32.to_bits() + 1), &[3, 7], None)
    );
    assert_ne!(base, digest(1, 0.75, &[7, 3], None));
    assert_ne!(base, digest(1, 0.75, &[3], None));
    assert_ne!(base, digest(1, 0.75, &[3, 7], Some("empty_subgraph")));
}

#[test]
fn benchmark_json_mirrors_the_metric_catalogue() {
    use m3d_benchmark::report::{Better, END_TO_END, PER_LAYER};
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let better = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    for d in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            d.name,
            d.unit,
            better(d.better),
            d.bound.expect("end-to-end metrics carry a bound")
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for d in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            d.name,
            d.unit,
            better(d.better)
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("\"name\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len() + m3d_benchmark::workloads::Workload::ALL.len(),
        "BENCHMARK.json lists a metric or workload the benchmark does not know"
    );
    for w in m3d_benchmark::workloads::Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
    }
    let seconds = m3d_benchmark::workloads::RUN_SECONDS;
    assert!(json.contains(&format!("\"run_seconds\": {seconds},")));
}
