//! `m3d-serve` — train-once / serve-many front end for the framework.
//!
//! ```text
//! m3d-serve train --profile aes --config syn1 [--scale F] [--samples N]
//!                 [--seed S] [--miv-fraction F] [--epochs N] [--restarts N]
//!                 [--threads N] -o ARTIFACT.m3da
//! m3d-serve requests --artifact ARTIFACT.m3da [-n N] [--seed S]
//! m3d-serve run --artifact A.m3da [--artifact B.m3da ...]
//!               [--stdin | --tcp ADDR] [--batch N] [--queue N]
//!               [--threads N] [--max-conns N]
//! m3d-serve bench --artifact ARTIFACT.m3da [-n N] [--batch N] [--threads N]
//! ```
//!
//! `train` builds the design deterministically, trains the full
//! framework, and persists it as an `m3d-artifact/2` file. `requests`
//! emits an NDJSON request batch for the artifact's design (fresh
//! injected-fault chips). `run` loads artifacts into sealed sessions and
//! serves NDJSON over stdin→stdout or TCP. `bench` measures the batched
//! diagnosis throughput honestly on this machine.
//!
//! Exit codes: 0 ok, 2 usage error, 1 runtime failure. The serving loop
//! itself never exits on bad input — malformed requests come back as
//! `rejected` records (never-500).

#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::time::Instant;

use m3d_fault_loc::{
    generate_samples, Artifact, DatasetConfig, DesignConfig, DesignContext, DiagnosisSession,
    ModelTrainConfig, PipelineBuilder, Sample, TestBench, TestBenchConfig, TrainingSet,
};
use m3d_netlist::BenchmarkProfile;
use m3d_obs::report::json_string;
use m3d_serve::{engine, Registry, ServeConfig};
use m3d_sim::write_failure_log;

fn usage() -> String {
    "usage:
  m3d-serve train --profile <aes|tate|netcard|leon3mp> --config <syn1|tpi|syn2|par|rand:SEED>
                  [--scale F] [--samples N] [--seed S] [--miv-fraction F]
                  [--epochs N] [--restarts N] [--threads N] -o ARTIFACT.m3da
  m3d-serve requests --artifact ARTIFACT.m3da [-n N] [--seed S]
  m3d-serve run --artifact A.m3da [--artifact B.m3da ...]
                [--stdin | --tcp ADDR] [--batch N] [--queue N] [--threads N] [--max-conns N]
  m3d-serve bench --artifact ARTIFACT.m3da [-n N] [--batch N] [--threads N]"
        .to_string()
}

/// A tiny flag cursor over `std::env::args`.
struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Removes `--flag VALUE` (or `-f VALUE`), returning the value.
    fn opt(&mut self, names: &[&str]) -> Result<Option<String>, String> {
        if let Some(i) = self.argv.iter().position(|a| names.contains(&a.as_str())) {
            if i + 1 >= self.argv.len() {
                return Err(format!("{} needs a value", self.argv[i]));
            }
            self.argv.remove(i);
            return Ok(Some(self.argv.remove(i)));
        }
        Ok(None)
    }

    /// Removes every `--flag VALUE` occurrence (repeatable flags).
    fn multi(&mut self, names: &[&str]) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        while let Some(v) = self.opt(names)? {
            out.push(v);
        }
        Ok(out)
    }

    /// Removes a bare `--flag`, returning whether it was present.
    fn switch(&mut self, name: &str) -> bool {
        if let Some(i) = self.argv.iter().position(|a| a == name) {
            self.argv.remove(i);
            true
        } else {
            false
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, names: &[&str]) -> Result<Option<T>, String> {
        match self.opt(names)? {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("bad value `{v}` for {}", names[0])),
        }
    }

    fn finish(self) -> Result<(), String> {
        if self.argv.is_empty() {
            Ok(())
        } else {
            Err(format!("unexpected arguments: {}", self.argv.join(" ")))
        }
    }
}

fn parse_profile(name: &str) -> Result<BenchmarkProfile, String> {
    BenchmarkProfile::ALL
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| format!("unknown profile `{name}` (aes|tate|netcard|leon3mp)"))
}

fn parse_design_config(name: &str) -> Result<DesignConfig, String> {
    match name {
        "syn1" => Ok(DesignConfig::Syn1),
        "tpi" => Ok(DesignConfig::Tpi),
        "syn2" => Ok(DesignConfig::Syn2),
        "par" => Ok(DesignConfig::Par),
        other => match other.strip_prefix("rand:") {
            Some(seed) => seed
                .parse::<u64>()
                .map(|seed| DesignConfig::RandomPart { seed })
                .map_err(|_| format!("bad rand seed in `{other}`")),
            None => Err(format!(
                "unknown design config `{other}` (syn1|tpi|syn2|par|rand:SEED)"
            )),
        },
    }
}

fn builder(threads: Option<usize>) -> PipelineBuilder {
    match threads {
        Some(n) => PipelineBuilder::new().threads(n),
        None => PipelineBuilder::new(),
    }
}

fn cmd_train(mut args: Args) -> Result<(), String> {
    let profile = parse_profile(&args.opt(&["--profile"])?.unwrap_or_else(|| "aes".into()))?;
    let config = parse_design_config(&args.opt(&["--config"])?.unwrap_or_else(|| "syn1".into()))?;
    let scale: Option<f64> = args.parsed(&["--scale"])?;
    let samples: usize = args.parsed(&["--samples"])?.unwrap_or(120);
    let seed: u64 = args.parsed(&["--seed"])?.unwrap_or(3);
    let miv_fraction: f64 = args.parsed(&["--miv-fraction"])?.unwrap_or(0.2);
    let epochs: Option<usize> = args.parsed(&["--epochs"])?;
    let restarts: Option<usize> = args.parsed(&["--restarts"])?;
    let threads: Option<usize> = args.parsed(&["--threads"])?;
    let out = args
        .opt(&["-o", "--out"])?
        .ok_or("train needs -o ARTIFACT.m3da")?;
    args.finish()?;

    let mut cfg = TestBenchConfig::quick(profile, config);
    if let Some(s) = scale {
        cfg.scale = s;
    }
    let mut model = ModelTrainConfig::default();
    if let Some(e) = epochs {
        model.epochs = e;
    }
    if let Some(r) = restarts {
        model.restarts = r;
    }
    let pipeline = builder(threads).model(model).build();

    let t0 = Instant::now();
    let bench = TestBench::try_build(&cfg).map_err(|e| e.to_string())?;
    let ctx = DesignContext::new(&bench);
    let train = pipeline.generate_samples(
        &ctx,
        &DatasetConfig {
            miv_fraction,
            ..DatasetConfig::single(samples, seed)
        },
    );
    let mut ts = TrainingSet::new();
    ts.add(&bench, &train);
    let framework = pipeline.train(&ts).map_err(|e| e.to_string())?;
    let artifact = pipeline.save_artifact(&cfg, &bench, &framework);
    artifact.save(&out).map_err(|e| e.to_string())?;
    eprintln!(
        "trained {} on {} samples in {:.1}s -> {} (T_P {:.3}{})",
        bench.name,
        train.len(),
        t0.elapsed().as_secs_f64(),
        out,
        framework.t_p(),
        if framework.t_p_is_fallback() {
            ", fallback"
        } else {
            ""
        },
    );
    Ok(())
}

fn cmd_requests(mut args: Args) -> Result<(), String> {
    let path = args
        .opt(&["--artifact"])?
        .ok_or("requests needs --artifact ARTIFACT.m3da")?;
    let n: usize = args.parsed(&["-n", "--cases"])?.unwrap_or(32);
    let seed: u64 = args.parsed(&["--seed"])?.unwrap_or(77);
    args.finish()?;

    let artifact = Artifact::load(&path).map_err(|e| e.to_string())?;
    let bench = artifact.build_bench().map_err(|e| e.to_string())?;
    let ctx = DesignContext::new(&bench);
    let chips = generate_samples(&ctx, &DatasetConfig::single(n, seed));
    let mut out = String::new();
    for line in request_lines(artifact.design(), &chips) {
        out.push_str(&line);
        out.push('\n');
    }
    print!("{out}");
    Ok(())
}

/// One NDJSON request line per chip for `design`, ids `case-<i>`.
fn request_lines(design: &str, chips: &[Sample]) -> Vec<String> {
    chips
        .iter()
        .enumerate()
        .map(|(i, chip)| {
            let mut line = format!("{{\"id\":\"case-{i}\",\"design\":");
            json_string(&mut line, design);
            line.push_str(",\"log\":");
            json_string(&mut line, &write_failure_log(&chip.log));
            line.push('}');
            line
        })
        .collect()
}

/// Loads artifacts and hands sealed sessions (plus the benches they
/// borrow) to `f`.
fn with_sessions<T>(
    paths: &[String],
    threads: Option<usize>,
    f: impl FnOnce(&[DiagnosisSession<'_>]) -> Result<T, String>,
) -> Result<T, String> {
    let artifacts: Vec<Artifact> = paths
        .iter()
        .map(|p| Artifact::load(p).map_err(|e| format!("{p}: {e}")))
        .collect::<Result<_, _>>()?;
    let benches: Vec<TestBench> = artifacts
        .iter()
        .zip(paths)
        .map(|(a, p)| a.build_bench().map_err(|e| format!("{p}: {e}")))
        .collect::<Result<_, _>>()?;
    let pipeline = builder(threads).build();
    let sessions: Vec<DiagnosisSession<'_>> = artifacts
        .iter()
        .zip(&benches)
        .map(|(a, b)| pipeline.load_artifact(a, b).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    f(&sessions)
}

fn cmd_run(mut args: Args) -> Result<(), String> {
    let paths = args.multi(&["--artifact"])?;
    if paths.is_empty() {
        return Err("run needs at least one --artifact".to_string());
    }
    let tcp = args.opt(&["--tcp"])?;
    let _stdin = args.switch("--stdin"); // the default; accepted for clarity
    let cfg = ServeConfig {
        batch: args.parsed(&["--batch"])?.unwrap_or(64),
        queue: args.parsed(&["--queue"])?.unwrap_or(256),
    };
    let threads: Option<usize> = args.parsed(&["--threads"])?;
    let max_conns: Option<usize> = args.parsed(&["--max-conns"])?;
    args.finish()?;

    with_sessions(&paths, threads, |sessions| {
        let registry = Registry::new(sessions).map_err(|e| e.to_string())?;
        let pool = builder(threads).build().pool().clone();
        let _guard = m3d_obs::ReportGuard::new(vec![
            ("bin", "m3d-serve".to_string()),
            ("designs", registry.designs().join(",")),
            ("mode", tcp.clone().unwrap_or_else(|| "stdin".to_string())),
        ]);
        eprintln!(
            "serving {} design(s): {} [batch {}, queue {}, {} thread(s)]",
            registry.len(),
            registry.designs().join(", "),
            cfg.batch,
            cfg.queue,
            pool.threads(),
        );
        match tcp {
            Some(addr) => {
                let listener =
                    std::net::TcpListener::bind(&addr).map_err(|e| format!("{addr}: {e}"))?;
                eprintln!(
                    "listening on {}",
                    listener.local_addr().map_err(|e| e.to_string())?
                );
                engine::serve_tcp(&registry, &pool, &cfg, &listener, max_conns)
                    .map_err(|e| e.to_string())
            }
            None => {
                let stdin = std::io::BufReader::new(std::io::stdin());
                let stdout = std::io::stdout();
                let stats = engine::serve_lines(&registry, &pool, &cfg, stdin, stdout.lock())
                    .map_err(|e| e.to_string())?;
                eprintln!(
                    "served {} request(s): {} ok, {} degraded, {} rejected in {} batch(es)",
                    stats.requests, stats.ok, stats.degraded, stats.rejected, stats.batches,
                );
                Ok(())
            }
        }
    })
}

fn cmd_bench(mut args: Args) -> Result<(), String> {
    let path = args
        .opt(&["--artifact"])?
        .ok_or("bench needs --artifact ARTIFACT.m3da")?;
    let n: usize = args.parsed(&["-n", "--cases"])?.unwrap_or(256);
    let batch: usize = args.parsed(&["--batch"])?.unwrap_or(64);
    let threads: Option<usize> = args.parsed(&["--threads"])?;
    args.finish()?;

    let artifact = Artifact::load(&path).map_err(|e| e.to_string())?;
    let bench = artifact.build_bench().map_err(|e| e.to_string())?;
    let ctx = DesignContext::new(&bench);
    let chips = generate_samples(&ctx, &DatasetConfig::single(n, 77));
    let lines = request_lines(artifact.design(), &chips);

    with_sessions(&[path], threads, |sessions| {
        let registry = Registry::new(sessions).map_err(|e| e.to_string())?;
        let pool = builder(threads).build().pool().clone();
        println!(
            "bench: design {}, {} case(s), batch {}, {} thread(s), simd {}",
            artifact.design(),
            lines.len(),
            batch,
            pool.threads(),
            m3d_gnn::simd_mode(),
        );
        // Warm-up pass, then the measured pass.
        for chunk in lines.chunks(batch) {
            let _ = engine::process_batch(&registry, &pool, chunk);
        }
        let t0 = Instant::now();
        let mut served = 0usize;
        for chunk in lines.chunks(batch) {
            served += engine::process_batch(&registry, &pool, chunk).len();
        }
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "{} diagnoses in {:.3}s = {:.0} diagnoses/sec [design {}, batch {}, {} thread(s)]",
            served,
            dt,
            served as f64 / dt,
            artifact.design(),
            batch,
            pool.threads(),
        );
        Ok(())
    })
}

fn main() -> std::process::ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{}", usage());
        return std::process::ExitCode::from(2);
    }
    let cmd = argv.remove(0);
    let args = Args { argv };
    let result = match cmd.as_str() {
        "train" => cmd_train(args),
        "requests" => cmd_requests(args),
        "run" => cmd_run(args),
        "bench" => cmd_bench(args),
        "--help" | "-h" | "help" => {
            eprintln!("{}", usage());
            return std::process::ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("m3d-serve {cmd}: {e}");
            std::process::ExitCode::from(
                if e.starts_with("unknown command") || e.contains("needs") {
                    2
                } else {
                    1
                },
            )
        }
    }
}
