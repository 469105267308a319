//! The `BENCH_*.json` snapshot format and the regression gate:
//! aggregation is best-of-N, snapshots round-trip through their JSON
//! form, and `compare` flags a synthetically regressed snapshot while
//! passing an unchanged one.

use m3d_obsctl::bench::{self, BenchSnapshot, Delta, StageStat, Tolerance};

fn stage(name: &str, p50_ms: f64) -> StageStat {
    StageStat {
        name: name.to_string(),
        count: 4,
        p50_ms,
        p95_ms: p50_ms * 1.4,
        max_ms: p50_ms * 2.0,
        total_ms: p50_ms * 4.0,
    }
}

fn snapshot(stages: Vec<StageStat>) -> BenchSnapshot {
    BenchSnapshot {
        scale: "quick".to_string(),
        git_rev: "deadbeef".to_string(),
        runs: 2,
        stages,
        counters: vec![("atpg.patterns".to_string(), 128)],
    }
}

#[test]
fn snapshot_json_round_trips() {
    let original = snapshot(vec![
        stage("atpg.generate", 120.0),
        stage("framework.train", 800.0),
        stage("weird \"name\"\\stage", 3.5),
    ]);
    let text = bench::to_json(&original);
    let parsed = bench::parse_json(&text).expect("parse");
    assert_eq!(parsed, original);
}

#[test]
fn aggregate_takes_best_of_n_and_requires_matching_scales() {
    let mk_report = |p50: f64, total: f64| {
        let ndjson = format!(
            concat!(
                "{{\"type\":\"meta\",\"schema\":\"m3d-obs/1\",\"unix_secs\":1,",
                "\"config\":{{\"scale\":\"quick\",\"git_rev\":\"abc\"}}}}\n",
                "{{\"type\":\"span\",\"name\":\"s\",\"count\":4,\"total_ms\":{total},",
                "\"min_ms\":1,\"mean_ms\":2,\"p50_ms\":{p50},\"p95_ms\":9,\"max_ms\":10}}\n",
            ),
            p50 = p50,
            total = total,
        );
        m3d_obsctl::report::parse(&ndjson).expect("synthetic report parses")
    };
    let fast = mk_report(5.0, 20.0);
    let slow = mk_report(8.0, 30.0);
    let snap = bench::aggregate(&[slow.clone(), fast], None).expect("aggregate");
    assert_eq!(snap.runs, 2);
    assert_eq!(snap.scale, "quick");
    assert_eq!(snap.git_rev, "abc");
    let s = snap.stage("s").expect("stage present");
    assert_eq!(s.p50_ms, 5.0, "minimum across runs");
    assert_eq!(s.total_ms, 20.0);

    let mut other = slow;
    other.meta.config = vec![("scale".to_string(), "medium".to_string())];
    assert!(
        bench::aggregate(&[snapshot_report(), other], None).is_err(),
        "mixed scales must be rejected"
    );
    assert!(bench::aggregate(&[], None).is_err(), "empty input rejected");
}

fn snapshot_report() -> m3d_obsctl::RunReport {
    m3d_obsctl::report::parse(
        "{\"type\":\"meta\",\"schema\":\"m3d-obs/1\",\"unix_secs\":1,\"config\":{\"scale\":\"quick\"}}\n",
    )
    .expect("parses")
}

#[test]
fn unchanged_snapshot_passes_the_gate() {
    let base = snapshot(vec![stage("a", 100.0), stage("b", 0.002)]);
    let cmp = bench::compare(&base, &base.clone(), Tolerance::default());
    assert!(!cmp.regressed());
    assert!(cmp.deltas.is_empty(), "no noise from an identical snapshot");
}

#[test]
fn regressed_p50_fails_the_gate() {
    let base = snapshot(vec![
        stage("atpg.generate", 100.0),
        stage("gnn.infer", 40.0),
    ]);
    // gnn.infer p50 doubles: far beyond +50% + 5 ms.
    let current = snapshot(vec![
        stage("atpg.generate", 104.0),
        stage("gnn.infer", 80.0),
    ]);
    let cmp = bench::compare(&base, &current, Tolerance::default());
    assert!(cmp.regressed());
    match &cmp.deltas[0] {
        Delta::Regressed {
            name,
            base_ms,
            cur_ms,
            limit_ms,
        } => {
            assert_eq!(name, "gnn.infer");
            assert_eq!(*base_ms, 40.0);
            assert_eq!(*cur_ms, 80.0);
            assert!(
                (limit_ms - 65.0).abs() < 1e-9,
                "40*1.5+5 = 65, got {limit_ms}"
            );
        }
        other => panic!("expected a regression first, got {other:?}"),
    }
    let rendered = bench::render(&cmp);
    assert!(rendered.contains("REGRESSED gnn.infer"), "{rendered}");
}

#[test]
fn noise_within_tolerance_and_tiny_stages_do_not_gate() {
    let base = snapshot(vec![stage("big", 100.0), stage("tiny", 0.01)]);
    // +40% on the big stage (inside +50%), 100x on a 10 µs stage (inside
    // the 5 ms absolute floor).
    let current = snapshot(vec![stage("big", 140.0), stage("tiny", 1.0)]);
    assert!(!bench::compare(&base, &current, Tolerance::default()).regressed());
    // A tighter tolerance turns the big stage into a failure.
    let strict = Tolerance {
        rel: 0.2,
        abs_ms: 0.0,
    };
    assert!(bench::compare(&base, &current, strict).regressed());
}

#[test]
fn shape_changes_are_reported_but_never_fail() {
    let base = snapshot(vec![stage("kept", 10.0), stage("removed", 10.0)]);
    let current = snapshot(vec![stage("kept", 10.0), stage("added", 10.0)]);
    let cmp = bench::compare(&base, &current, Tolerance::default());
    assert!(!cmp.regressed());
    assert!(cmp
        .deltas
        .iter()
        .any(|d| matches!(d, Delta::Missing { name } if name == "removed")));
    assert!(cmp
        .deltas
        .iter()
        .any(|d| matches!(d, Delta::Added { name } if name == "added")));
}

#[test]
fn speedup_ratio_of_two_stage_totals() {
    let snap = snapshot(vec![
        stage("paper.backtrace.reference", 600.0), // total 2400 ms
        stage("paper.backtrace", 200.0),           // total 800 ms
        stage("zero", 0.0),
    ]);
    let ratio = bench::speedup(&snap, "paper.backtrace.reference", "paper.backtrace")
        .expect("both stages present");
    assert!((ratio - 3.0).abs() < 1e-12, "2400/800 = 3, got {ratio}");
    // Inverted ratios are legal (< 1.0): the gate threshold, not this
    // function, decides pass/fail.
    let inv = bench::speedup(&snap, "paper.backtrace", "paper.backtrace.reference")
        .expect("inverse ratio");
    assert!((inv - 1.0 / 3.0).abs() < 1e-12);
    assert!(
        bench::speedup(&snap, "paper.backtrace.reference", "absent").is_err(),
        "missing stage is a hard error, not a silent pass"
    );
    assert!(
        bench::speedup(&snap, "paper.backtrace.reference", "zero").is_err(),
        "zero-cost denominator cannot anchor a ratio"
    );
}

#[test]
fn improvements_are_surfaced_for_baseline_refresh() {
    let base = snapshot(vec![stage("hot", 200.0)]);
    let current = snapshot(vec![stage("hot", 20.0)]);
    let cmp = bench::compare(&base, &current, Tolerance::default());
    assert!(!cmp.regressed());
    assert!(matches!(&cmp.deltas[0], Delta::Improved { name, .. } if name == "hot"));
}
