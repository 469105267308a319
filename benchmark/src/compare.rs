//! `m3d-benchmark compare <dir-a> <dir-b> [--same-code]`: compares two
//! sets of runs, as written by `benchmark/run.sh`.
//!
//! For each workload and end-to-end metric it prints each side's median
//! and quartiles, the pairs each side won, and a verdict:
//!
//! - **improved**: B wins at least nine tenths of the pairs (ties count
//!   for neither) and the medians differ, in B's favour, by more than A's
//!   quartile spread;
//! - **unresolved**: A's quartile spread is wider than the metric's bound
//!   (as a share of A's median) and B's runs do not all read better than
//!   all of A's;
//! - **worse**: B's median is worse than A's by more than the bound;
//! - **unchanged**: otherwise.
//!
//! `--same-code` instead checks that the two sets agree: medians within the
//! bound of each other, each side's spread within the bound (`setup_s`
//! excepted: a run sets up only a few times, so only its median is
//! held to the bound), every run correct, equal answer digests for every
//! workload and seed both sides ran, and one reference-lot digest per
//! workload across all runs.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::report::{Better, MetricDef, END_TO_END};
use crate::stats;

/// One run, parsed from its `<workload> <metric> <value> <unit>` lines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Numeric metrics.
    pub metrics: BTreeMap<String, f64>,
    /// Non-numeric facts (unit `-`): digest, seed, trace, error, ...
    pub notes: BTreeMap<String, String>,
}

impl Run {
    /// Parses one run's standard output. The JSON result line and blank
    /// lines are skipped; `None` when no metric line names a workload.
    pub fn parse(text: &str) -> Option<Run> {
        let mut run = Run::default();
        for line in text.lines().filter(|l| !l.starts_with('{')) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, name, .., unit] = fields[..] else {
                continue;
            };
            let value = fields[2..fields.len() - 1].join(" ");
            run.workload = workload.to_string();
            match (unit, value.parse::<f64>()) {
                ("-", _) | (_, Err(_)) => {
                    run.notes.insert(name.to_string(), value);
                }
                (_, Ok(v)) => {
                    run.metrics.insert(name.to_string(), v);
                }
            }
        }
        (!run.workload.is_empty()).then_some(run)
    }

    /// Whether this was a traced run.
    pub fn traced(&self) -> bool {
        self.notes.contains_key("trace")
    }
}

/// Loads every `*.txt` run of `dir`, in file-name order.
///
/// # Errors
///
/// An unreadable directory or file.
pub fn load_dir(dir: &Path) -> Result<Vec<Run>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    paths.sort();
    let mut runs = Vec::new();
    for p in paths {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        runs.extend(Run::parse(&text));
    }
    Ok(runs)
}

/// A comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better beyond noise.
    Improved,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// A's own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's order statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Runs.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    /// Statistics of `xs`; `None` with fewer than two runs.
    pub fn of(xs: &[f64]) -> Option<Side> {
        let [q1, _, q3] = stats::quartiles(xs)?;
        Some(Side {
            n: xs.len(),
            q1,
            median: stats::median(xs),
            q3,
        })
    }

    /// Quartile spread as a share of the median.
    pub fn rel_spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The comparison of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Side A (the baseline).
    pub a: Side,
    /// Side B (the change).
    pub b: Side,
    /// Pairs compared (runs matched in order).
    pub pairs: usize,
    /// Pairs where B read better.
    pub b_wins: usize,
    /// Pairs where A read better.
    pub a_wins: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares B against baseline A for a metric with direction `better` and
/// `bound`. `None` when a side has fewer than two runs.
pub fn compare(a: &[f64], b: &[f64], better: Better, bound: f64) -> Option<Comparison> {
    let (sa, sb) = (Side::of(a)?, Side::of(b)?);
    // Positive when `y` is better than `x`.
    let gain = |x: f64, y: f64| match better {
        Better::Lower => x - y,
        Better::Higher => y - x,
    };
    let pairs = a.len().min(b.len());
    let b_wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| gain(**x, **y) > 0.0)
        .count();
    let a_wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| gain(**x, **y) < 0.0)
        .count();
    let median_gain = gain(sa.median, sb.median);
    let all_b_better = b.iter().all(|y| a.iter().all(|x| gain(*x, *y) > 0.0));
    let verdict = if b_wins * 10 >= pairs * 9 && median_gain > sa.q3 - sa.q1 {
        Verdict::Improved
    } else if sa.rel_spread() > bound && !all_b_better {
        Verdict::Unresolved
    } else if -median_gain > bound * sa.median.abs() {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    Some(Comparison {
        a: sa,
        b: sb,
        pairs,
        b_wins,
        a_wins,
        verdict,
    })
}

/// Whether two sets of the same code agree on a metric: medians within
/// the bound of each other and, when `spreads` is set, each side's spread
/// within the bound.
pub fn agrees(c: &Comparison, bound: f64, spreads: bool) -> bool {
    (c.b.median - c.a.median).abs() <= bound * c.a.median.abs()
        && (!spreads || (c.a.rel_spread() <= bound && c.b.rel_spread() <= bound))
}

fn values(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && !r.traced())
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

fn digests(runs: &[Run]) -> BTreeMap<(String, String), String> {
    runs.iter()
        .filter_map(|r| {
            let seed = r.notes.get("seed")?.clone();
            let digest = r.notes.get("digest")?.clone();
            Some(((r.workload.clone(), seed), digest))
        })
        .collect()
}

/// Workloads whose runs disagree on the reference lot's answer digest,
/// which does not depend on the seed.
fn lot_digest_mismatches<'r>(runs: impl IntoIterator<Item = &'r Run>) -> Vec<String> {
    let mut first: BTreeMap<&str, &str> = BTreeMap::new();
    let mut bad = Vec::new();
    for r in runs {
        let Some(d) = r.notes.get("lot_digest") else {
            continue;
        };
        let seen = *first.entry(&r.workload).or_insert(d);
        if seen != d && !bad.contains(&r.workload) {
            bad.push(r.workload.clone());
        }
    }
    bad
}

/// Median traced wall time over median untraced wall time, minus one, in
/// percent, per workload that has both kinds of runs.
fn trace_overhead(runs: &[Run], workload: &str) -> Option<f64> {
    let wall = |traced: bool| {
        let v: Vec<f64> = runs
            .iter()
            .filter(|r| r.workload == workload && r.traced() == traced)
            .filter_map(|r| r.metrics.get("bench.wall_s").copied())
            .collect();
        (!v.is_empty()).then(|| stats::median(&v))
    };
    Some(100.0 * (wall(true)? / wall(false)? - 1.0))
}

fn fmt_side(s: &Side) -> String {
    format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3)
}

/// Entry point of `compare`; returns the process exit code.
pub fn main(args: &[String]) -> ExitCode {
    let same_code = args.iter().any(|a| a == "--same-code");
    let dirs: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [dir_a, dir_b] = dirs[..] else {
        eprintln!("usage: m3d-benchmark compare <dir-a> <dir-b> [--same-code]");
        return ExitCode::from(2);
    };
    let (a, b) = match (load_dir(Path::new(dir_a)), load_dir(Path::new(dir_b))) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("m3d-benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut ok = true;
    println!(
        "{:<16} {:<16} {:>34} {:>34} {:>7} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B won", "A won"
    );
    for w in &workloads {
        for MetricDef {
            name,
            better,
            bound,
            ..
        } in END_TO_END
        {
            let bound = bound.expect("end-to-end metrics carry a bound");
            let Some(c) = compare(&values(&a, w, name), &values(&b, w, name), better, bound) else {
                println!("{w:<16} {name:<16} fewer than two runs on a side");
                ok &= !same_code;
                continue;
            };
            let verdict = if same_code {
                let agree = agrees(&c, bound, name != "setup_s");
                ok &= agree;
                if agree {
                    "agree"
                } else {
                    "DISAGREE"
                }
            } else {
                ok &= c.verdict != Verdict::Worse;
                c.verdict.as_str()
            };
            println!(
                "{w:<16} {name:<16} {:>34} {:>34} {:>4}/{:<2} {:>4}/{:<2}  {verdict} (bound {:.0}%)",
                fmt_side(&c.a),
                fmt_side(&c.b),
                c.b_wins,
                c.pairs,
                c.a_wins,
                c.pairs,
                bound * 100.0
            );
        }
        for (label, runs) in [("A", &a), ("B", &b)] {
            if let Some(pct) = trace_overhead(runs, w) {
                println!("{w:<16} bench.trace_overhead_pct {label}: {pct:.1}%");
            }
        }
    }
    if same_code {
        let (da, db) = (digests(&a), digests(&b));
        for (key, digest) in &da {
            match db.get(key) {
                Some(other) if other != digest => {
                    println!("{} seed {}: digest {digest} != {other}", key.0, key.1);
                    ok = false;
                }
                _ => {}
            }
        }
        let shared = da.keys().filter(|k| db.contains_key(*k)).count();
        println!("digests: {shared} (workload, seed) pairs on both sides");
        ok &= shared > 0;
        for w in lot_digest_mismatches(a.iter().chain(&b)) {
            println!("{w}: reference-lot digests differ between runs");
            ok = false;
        }
    }
    for r in a.iter().chain(&b) {
        if let Some(e) = r.notes.get("error") {
            println!("{}: wrong answer: {e}", r.workload);
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
