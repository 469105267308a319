//! Trend-gate acceptance: a history directory of real snapshot files
//! with an injected 3-run monotonic drift must be flagged, while a flat
//! history of the same shape passes. Exercises the full path the CI step
//! uses: files on disk → `load_history` (filename order, mixed
//! `.json`/`.ndjson`, corrupt-file tolerance) → `analyze` → `render`.

use m3d_obsctl::bench::{BenchSnapshot, StageStat};
use m3d_obsctl::trend;
use std::path::PathBuf;

fn snapshot_json(p50_diagnose: f64, p50_atpg: f64) -> String {
    m3d_obsctl::bench::to_json(&BenchSnapshot {
        scale: "quick".to_string(),
        git_rev: "fixture".to_string(),
        runs: 2,
        stages: vec![
            StageStat {
                name: "framework.diagnose".to_string(),
                count: 100,
                p50_ms: p50_diagnose,
                p95_ms: p50_diagnose * 2.0,
                max_ms: p50_diagnose * 3.0,
                total_ms: p50_diagnose * 100.0,
            },
            StageStat {
                name: "atpg.generate".to_string(),
                count: 10,
                p50_ms: p50_atpg,
                p95_ms: p50_atpg * 1.5,
                max_ms: p50_atpg * 2.0,
                total_ms: p50_atpg * 10.0,
            },
        ],
        counters: vec![("atpg.patterns_generated".to_string(), 640)],
    })
}

fn report_ndjson(p50_diagnose: f64) -> String {
    // A raw m3d-obs/1 run report: trend must condense these on the fly.
    format!(
        concat!(
            "{{\"type\":\"meta\",\"schema\":\"m3d-obs/1\",\"unix_secs\":1,",
            "\"config\":{{\"bin\":\"fixture\",\"scale\":\"quick\",\"git_rev\":\"f\"}}}}\n",
            "{{\"type\":\"span\",\"name\":\"framework.diagnose\",\"count\":100,",
            "\"total_ms\":{total},\"min_ms\":1,\"mean_ms\":{p50},\"p50_ms\":{p50},",
            "\"p95_ms\":{p95},\"max_ms\":{max}}}\n",
            "{{\"type\":\"span\",\"name\":\"atpg.generate\",\"count\":10,",
            "\"total_ms\":80,\"min_ms\":7,\"mean_ms\":8,\"p50_ms\":8.0,",
            "\"p95_ms\":9,\"max_ms\":10}}\n",
        ),
        p50 = p50_diagnose,
        p95 = p50_diagnose * 2.0,
        max = p50_diagnose * 3.0,
        total = p50_diagnose * 100.0,
    )
}

struct Dir(PathBuf);

impl Dir {
    fn new(name: &str) -> Dir {
        let p = std::env::temp_dir().join(format!("m3d-trend-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("mkdir");
        Dir(p)
    }

    fn write(&self, name: &str, content: &str) {
        std::fs::write(self.0.join(name), content).expect("write fixture");
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn flat_history_passes_the_gate() {
    let dir = Dir::new("flat");
    // Jitter both ways around 12ms — realistic CI noise, no trend.
    for (i, p50) in [12.0, 12.6, 11.8, 12.3, 12.1].iter().enumerate() {
        dir.write(
            &format!("000{i}-rev{i}-BENCH_quick.json"),
            &snapshot_json(*p50, 8.0),
        );
    }
    let history = trend::load_history(&dir.0).expect("history loads");
    assert_eq!(history.entries.len(), 5);
    let report = trend::analyze(&history, &trend::TrendConfig::default());
    assert!(
        !report.drifted(),
        "flat history must pass: {:?}",
        report.drifts
    );
    assert_eq!(report.stages_checked, 2);
    let text = trend::render(&report, &history, &trend::TrendConfig::default());
    assert!(text.contains("trend OK"), "{text}");
}

#[test]
fn injected_three_run_monotonic_drift_is_flagged() {
    let dir = Dir::new("drift");
    // Two flat ancient runs, then a sustained +15%/run climb over the
    // last three — exactly the leak the per-run perf gate's +50% hides.
    let p50s = [12.0, 12.1, 12.4, 14.3, 16.5];
    for (i, p50) in p50s.iter().enumerate() {
        dir.write(
            &format!("000{i}-rev{i}-BENCH_quick.json"),
            &snapshot_json(*p50, 8.0),
        );
    }
    let history = trend::load_history(&dir.0).expect("history loads");
    let config = trend::TrendConfig {
        last: 3,
        ..trend::TrendConfig::default()
    };
    let report = trend::analyze(&history, &config);
    assert!(report.drifted(), "monotonic +33% over 3 runs must gate");
    assert_eq!(report.drifts.len(), 1, "the flat atpg stage must not gate");
    assert_eq!(report.drifts[0].name, "framework.diagnose");
    assert!(report.drifts[0].slope_ms_per_run > 1.0);
    let text = trend::render(&report, &history, &config);
    assert!(text.contains("DRIFT framework.diagnose"), "{text}");
    assert!(text.contains("trend gate FAILED"), "{text}");
}

#[test]
fn mixed_snapshot_and_report_history_with_corrupt_file() {
    let dir = Dir::new("mixed");
    dir.write("0001-a-BENCH_quick.json", &snapshot_json(10.0, 8.0));
    dir.write("0002-b-run.ndjson", &report_ndjson(11.5));
    dir.write("0003-c-BENCH_quick.json", &snapshot_json(13.5, 8.0));
    dir.write("0004-junk.json", "{ this is not json");
    dir.write("0005-deep-BENCH_quick.json", &"[".repeat(200_000));
    dir.write("README.md", "not history at all");
    let history = trend::load_history(&dir.0).expect("history loads");
    assert_eq!(history.entries.len(), 3, "json + ndjson, filename order");
    assert_eq!(history.entries[1].label, "0002-b-run.ndjson");
    assert_eq!(
        history.skipped.len(),
        2,
        "corrupt and over-deep files skipped, not fatal"
    );
    let report = trend::analyze(&history, &trend::TrendConfig::default());
    assert!(
        report.drifted(),
        "drift across mixed file kinds still gates"
    );
    let text = trend::render(&report, &history, &trend::TrendConfig::default());
    assert!(text.contains("skipped 0004-junk.json"), "{text}");
    assert!(
        text.contains("skipped 0005-deep-BENCH_quick.json"),
        "{text}"
    );
}

#[test]
fn short_history_reports_gate_inactive() {
    let dir = Dir::new("short");
    dir.write("0001-a-BENCH_quick.json", &snapshot_json(10.0, 8.0));
    dir.write("0002-b-BENCH_quick.json", &snapshot_json(15.0, 8.0));
    let history = trend::load_history(&dir.0).expect("history loads");
    let report = trend::analyze(&history, &trend::TrendConfig::default());
    assert!(report.too_few_runs);
    assert!(!report.drifted(), "2 runs can never gate at min_runs=3");
    let text = trend::render(&report, &history, &trend::TrendConfig::default());
    assert!(text.contains("gate inactive"), "{text}");
}
