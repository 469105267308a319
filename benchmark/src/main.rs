//! `m3d-benchmark`: run one workload, or compare two sets of runs.
//!
//! ```text
//! m3d-benchmark run <workload> [--seed S] [--seconds T] [--trace [0|1]]
//! m3d-benchmark run --workload <workload> ...
//! m3d-benchmark compare <dir-a> <dir-b> [--same-code]
//! ```
//!
//! `run` prints every metric as `<workload> <metric> <value> <unit>`, then
//! one JSON result line. It exits 1 when an answer check fails and 2 on a
//! usage error.

use std::process::ExitCode;

use m3d_benchmark::report::{END_TO_END, PER_LAYER};
use m3d_benchmark::workloads::{self, RunConfig, Workload};

const USAGE: &str = "usage:
  m3d-benchmark run <workload> [--seed S] [--seconds T] [--trace [0|1]]
  m3d-benchmark compare <dir-a> <dir-b> [--same-code]
workloads: train-aes diagnose-bypass serve-compacted paper-netcard";

fn parse_run(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = workloads::RUN_SECONDS;
    let mut trace = false;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            w if !w.starts_with('-') && workload.is_none() => workload = Some(w.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let name = workload.ok_or("which workload?")?;
    let workload =
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err(format!(
            "--seconds must be a non-negative number, got {seconds}"
        ));
    }
    Ok(RunConfig {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &[String]) -> ExitCode {
    let cfg = match parse_run(args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("m3d-benchmark run: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every pool the library resolves from the environment gets the same
    // budget as the benchmark's own pools.
    std::env::set_var(m3d_exec::THREADS_ENV, workloads::THREADS.to_string());
    let report = match workloads::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("m3d-benchmark run {}: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let defs: &[_] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let json = match report.json(defs) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("m3d-benchmark run: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.text());
    println!("{json}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        for e in &report.errors {
            eprintln!(
                "m3d-benchmark run {}: wrong answer: {e}",
                cfg.workload.name()
            );
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => m3d_benchmark::compare::main(&args[1..]),
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
