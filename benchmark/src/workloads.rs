//! The four workloads and the phases they share.
//!
//! Each workload runs in its own process on a 2-thread pool, in three
//! phases: *train* (build the training designs, generate labelled samples,
//! train the framework), *setup* (recipe or artifact → a design ready to
//! diagnose) and *diagnose*: the timed reference lot, then the seed's
//! answer set, whose answers are checked. The program is driven only
//! through its public entry points; ground truth stays here.
//!
//! The host the benchmark was measured on is shared: other tenants slow
//! it, at times to half its speed, for seconds to minutes at a time. Timings therefore
//! come from repeated identical work spread over the run: the diagnose
//! phase makes passes over the same chips, and training and setup repeat
//! between passes. A phase timed only in one window of the run would read
//! whatever that window's neighbours were doing. Every reading is a median
//! over the repetitions: on this host the fastest of a few repetitions
//! varied more from run to run, and a mean followed every slowdown.
//!
//! | workload          | stresses                                           |
//! |-------------------|----------------------------------------------------|
//! | `train-aes`       | GCN training (Table IX transfer recipe)            |
//! | `diagnose-bypass` | volume diagnosis: ATPG diagnosis + back-trace      |
//! | `serve-compacted` | 20× compaction back-trace + the NDJSON wire codec  |
//! | `paper-netcard`   | ≥100k-gate setup, memory and sharded back-trace    |

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use m3d_diagnosis::{AtpgDiagnosis, DiagnosisConfig};
use m3d_exec::ExecPool;
use m3d_fault_loc::{
    single_tier_of, Artifact, BacktraceConfig, DatasetConfig, DesignConfig, DesignContext,
    DiagnosisSession, FeatureExtractor, Framework, FrameworkResult, HeteroGraph, ModelTrainConfig,
    Pipeline, PipelineBuilder, PolicyAction, Sample, TestBench, TestBenchConfig, TrainingSet,
};
use m3d_netlist::BenchmarkProfile;
use m3d_obs::{Snapshot, SpanGuard};
use m3d_serve::{parse_request, Registry, Response, ServeConfig, Status};
use m3d_sim::{parse_failure_log, write_failure_log, AtpgConfig, FaultSimulator};

use crate::inputs::{Chip, ChipStream};
use crate::quality::{Case, Digest, Quality};
use crate::report::Report;
use crate::{mem, stats};

/// Worker threads of every pool the benchmark drives.
pub const THREADS: usize = 2;

/// Default length of the measured span, in seconds (`run_seconds` in
/// BENCHMARK.json): diagnose passes, with training and setup repetitions
/// between them.
pub const RUN_SECONDS: f64 = 10.0;

/// Share of the measured span that training repetitions take; `train_s`
/// is their median. The recipes are small so that a run makes several.
const TRAIN_SHARE: f64 = 0.35;

/// Share of the measured span that setup repetitions take; `setup_s` is
/// their median.
const SETUP_SHARE: f64 = 0.1;

/// Repetitions of a timed phase per run, at least.
const MIN_REPS: usize = 3;

/// Chips re-diagnosed on a 1-thread pool to check thread invariance.
const SERIAL_CHECK: usize = 32;

/// Seed of every workload's reference lot: the chips the diagnose phase
/// times, the same in every run. Per-chip cost is heavy-tailed (at
/// `paper-netcard` from tens of milliseconds to about a second), so
/// timing seed-drawn chips would measure the draw as much as the program.
/// `--seed` draws the answer set instead.
const LOT_SEED: u64 = u64::MAX;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GCN training on the Table IX transfer recipe, then diagnosis.
    TrainAes,
    /// Volume diagnosis of distinct bypass-mode chips.
    DiagnoseBypass,
    /// 20×-compacted chips sent as NDJSON through the serving engine.
    ServeCompacted,
    /// A ≥100k-gate design: setup, memory and sharded back-trace.
    PaperNetcard,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::TrainAes,
        Workload::DiagnoseBypass,
        Workload::ServeCompacted,
        Workload::PaperNetcard,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainAes => "train-aes",
            Workload::DiagnoseBypass => "diagnose-bypass",
            Workload::ServeCompacted => "serve-compacted",
            Workload::PaperNetcard => "paper-netcard",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// What to run.
    pub workload: Workload,
    /// Seed of the answer set (training data and the timed lot are part
    /// of the recipe).
    pub seed: u64,
    /// Length of the measured span (diagnose passes with training and
    /// setup repetitions between them), in seconds, at least.
    pub seconds: f64,
    /// Add per-layer attribution and write a trace report.
    pub trace: bool,
}

/// Runs one workload and returns its report.
///
/// # Errors
///
/// A design, artifact or input that cannot be produced; the report's
/// `errors` carry wrong answers instead.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let t0 = Instant::now();
    let mut b = Bench {
        cfg: *cfg,
        pool: ExecPool::with_threads(THREADS),
        report: Report::new(cfg.workload.name()),
        generated: (0.0, 0),
        saves: 0,
    };
    match cfg.workload {
        Workload::TrainAes => train_aes(&mut b)?,
        Workload::DiagnoseBypass => diagnose_bypass(&mut b)?,
        Workload::ServeCompacted => serve_compacted(&mut b)?,
        Workload::PaperNetcard => paper_netcard(&mut b)?,
    }
    let mut report = b.report;
    report.put("peak_rss_mb", mem::peak_rss_mib()?, "MiB");
    report.put("bench.wall_s", t0.elapsed().as_secs_f64(), "s");
    report.note("seed", cfg.seed.to_string());
    report.note("simd", m3d_gnn::simd_mode().to_string());
    report.note("threads", THREADS.to_string());
    report.check(report.attempted > 0, || "no chip was diagnosed".to_string());
    if cfg.trace {
        let path = out_dir()?.join(format!("{}.trace.ndjson", cfg.workload.name()));
        m3d_obs::RunReport::capture(&[
            ("workload", cfg.workload.name().to_string()),
            ("seed", cfg.seed.to_string()),
        ])
        .write_ndjson(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
        report.note("trace", path.display().to_string());
    }
    Ok(report)
}

/// `target/benchmark` under the working directory (created on demand).
fn out_dir() -> Result<PathBuf, String> {
    let dir = Path::new("target").join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Shared run state.
struct Bench {
    cfg: RunConfig,
    pool: ExecPool,
    report: Report,
    /// Seconds in and samples from `generate_samples` since the last
    /// `train` call: one training repetition's dataset share.
    generated: (f64, usize),
    /// Artifacts saved so far (each gets its own file).
    saves: usize,
}

/// A timed phase repeated between diagnose passes, so that its
/// repetitions sample the whole measured span.
struct Repeat<'r> {
    /// Share of the measured span its repetitions take.
    share: f64,
    /// Repetition times, those made before the span included.
    times: Vec<f64>,
    rep: &'r mut dyn FnMut(&mut Bench) -> Result<(), String>,
}

impl Repeat<'_> {
    /// Whether a repetition is due `elapsed` seconds into a span of
    /// `span` seconds: when it is behind its share, or when the span is
    /// over and it has not repeated [`MIN_REPS`] times.
    fn due(&self, elapsed: f64, span: f64) -> bool {
        self.times.iter().sum::<f64>() < self.share * elapsed
            || (elapsed >= span && self.times.len() < MIN_REPS)
    }

    fn run(&mut self, b: &mut Bench) -> Result<(), String> {
        let t = Instant::now();
        (self.rep)(b)?;
        self.times.push(secs(t));
        Ok(())
    }
}

impl Bench {
    /// A `bench.<layer>` span around a layer call, in traced runs only.
    fn span(&self, layer: &'static str) -> Option<SpanGuard> {
        self.cfg.trace.then(|| m3d_obs::span!(layer))
    }

    /// A registry snapshot, in traced runs only.
    fn snapshot(&self) -> Option<Snapshot> {
        self.cfg.trace.then(m3d_obs::snapshot)
    }

    /// `setup_s`: the median of the run's setups.
    fn put_setup(&mut self, times: &[f64]) {
        self.report.put("setup_s", stats::median(times), "s");
        self.report.put("setup.reps", times.len() as f64, "count");
    }

    /// `train_s`: the median of the run's trainings. Each trains from the
    /// same seeds, so all do the same work.
    fn put_train(&mut self, times: &[f64]) {
        self.report.put("train_s", stats::median(times), "s");
        self.report.put("train.reps", times.len() as f64, "count");
    }

    fn mem(&mut self, name: &str) -> Result<(), String> {
        self.report.put(name, mem::peak_rss_mib()?, "MiB");
        Ok(())
    }

    /// The first training repetition, timed. Returns its result and time.
    fn first_train<T>(
        &mut self,
        rep: &mut impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<(T, f64), String> {
        let t = Instant::now();
        let out = {
            let _s = self.span("bench.train");
            rep(self)?
        };
        let time = secs(t);
        self.mem("mem.train_mb")?;
        Ok((out, time))
    }

    /// Builds the design under test, timed, with its ATPG/netlist/
    /// partition span shares in traced runs.
    fn bench_under_test(
        &mut self,
        build: impl FnOnce() -> Result<TestBench, String>,
    ) -> Result<TestBench, String> {
        let before = self.snapshot();
        let t = Instant::now();
        let bench = {
            let _s = self.span("bench.design.build");
            build()?
        };
        self.report.put("design.bench_build_s", secs(t), "s");
        if let (Some(before), Some(after)) = (before, self.snapshot()) {
            for (span, metric) in [
                ("netlist.generate", "netlist.generate_s"),
                ("part.partition", "part.partition_s"),
                ("atpg.generate_patterns", "sim.atpg_s"),
            ] {
                self.report
                    .put_opt(metric, span_delta_s(&before, &after, span), "s");
            }
        }
        self.report
            .put("sim.atpg_patterns", bench.patterns.len() as f64, "count");
        Ok(bench)
    }

    /// Times `DesignContext::new`.
    fn context<'a>(&mut self, bench: &'a TestBench) -> DesignContext<'a> {
        let t = Instant::now();
        let ctx = {
            let _s = self.span("bench.context.new");
            DesignContext::new(bench)
        };
        self.report.put("context.new_s", secs(t), "s");
        self.report
            .put("hetero.nodes", ctx.hetero.node_count() as f64, "count");
        self.report
            .put("hetero.observers", ctx.fsim.obs().len() as f64, "count");
        ctx
    }

    /// Standalone re-runs of the three context layers on `bench`, so each
    /// can be timed on its own (traced runs only).
    fn standalone_layers(&mut self, bench: &TestBench) {
        if !self.cfg.trace {
            return;
        }
        let t = Instant::now();
        let fsim = {
            let _s = self.span("bench.sim.fsim_new");
            FaultSimulator::new(bench.netlist(), &bench.patterns)
        };
        self.report.put("sim.fsim_new_s", secs(t), "s");
        let t = Instant::now();
        let hetero = {
            let _s = self.span("bench.hetero.build");
            HeteroGraph::build(&bench.m3d, fsim.obs())
        };
        self.report.put("hetero.build_s", secs(t), "s");
        let t = Instant::now();
        {
            let _s = self.span("bench.features.compute");
            std::hint::black_box(FeatureExtractor::compute(&bench.m3d, &hetero));
        }
        self.report.put("features.compute_s", secs(t), "s");
    }

    /// Times `Pipeline::generate_samples`, accumulating over the calls of
    /// one training repetition.
    fn generate(
        &mut self,
        pipe: &Pipeline,
        ctx: &DesignContext<'_>,
        cfg: &DatasetConfig,
    ) -> Vec<Sample> {
        let t = Instant::now();
        let samples = {
            let _s = self.span("bench.dataset.generate");
            pipe.generate_samples(ctx, cfg)
        };
        self.generated.0 += secs(t);
        self.generated.1 += samples.len();
        samples
    }

    /// Times `Pipeline::train`, which ends a training repetition, with the
    /// GCN training span share and kernel throughput in traced runs.
    fn fit(&mut self, pipe: &Pipeline, ts: &TrainingSet) -> Result<Framework, String> {
        let (generate_s, samples) = std::mem::take(&mut self.generated);
        self.report.put("dataset.generate_s", generate_s, "s");
        self.report.put("dataset.samples", samples as f64, "count");
        let before = self.snapshot();
        let t = Instant::now();
        let framework = {
            let _s = self.span("bench.framework.train");
            pipe.train(ts).map_err(|e| e.to_string())?
        };
        self.report.put("framework.train_s", secs(t), "s");
        if let (Some(before), Some(after)) = (before, self.snapshot()) {
            let gnn_s = span_delta_s(&before, &after, "gnn.train");
            self.report.put_opt("gnn.train_s", gnn_s, "s");
            let flops = counter_delta(&before, &after, "gnn.kernel.flops.train");
            if let (Some(s), Some(f)) = (gnn_s, flops) {
                self.report
                    .put("gnn.train_gflops", f as f64 / s / 1e9, "GFLOP/s");
            }
            for (counter, metric) in [
                ("gnn.kernel.nanos.nn", "gnn.kernel.nn_s"),
                ("gnn.kernel.nanos.nt", "gnn.kernel.nt_s"),
                ("gnn.kernel.nanos.tn", "gnn.kernel.tn_s"),
                ("gnn.kernel.nanos.spmm", "gnn.kernel.spmm_s"),
                ("gnn.sec.nanos.adam", "gnn.adam_s"),
                ("gnn.sec.nanos.grad", "gnn.grad_s"),
            ] {
                let nanos = counter_delta(&before, &after, counter);
                self.report
                    .put_opt(metric, nanos.map(|n| n as f64 / 1e9), "s");
            }
        }
        Ok(framework)
    }

    /// Times `Artifact::save` to a file of its own and returns the file.
    fn save(&mut self, artifact: &Artifact) -> Result<ArtifactFile, String> {
        self.saves += 1;
        let path = out_dir()?.join(format!(
            "{}-{}-{}.m3da",
            self.cfg.workload.name(),
            std::process::id(),
            self.saves
        ));
        let t = Instant::now();
        {
            let _s = self.span("bench.artifact.save");
            artifact.save(&path).map_err(|e| e.to_string())?;
        }
        self.report.put("artifact.save_s", secs(t), "s");
        let file = ArtifactFile(path);
        let bytes = std::fs::metadata(&file.0).map_err(|e| e.to_string())?.len();
        self.report.put("artifact.bytes", bytes as f64, "bytes");
        Ok(file)
    }

    /// Times `Artifact::load`.
    fn load(&mut self, file: &ArtifactFile) -> Result<Artifact, String> {
        let t = Instant::now();
        let artifact = {
            let _s = self.span("bench.artifact.load");
            Artifact::load(&file.0).map_err(|e| e.to_string())?
        };
        self.report.put("artifact.load_s", secs(t), "s");
        Ok(artifact)
    }

    /// Times `Pipeline::load_artifact`.
    fn open<'a>(
        &mut self,
        pipe: &Pipeline,
        artifact: &Artifact,
        bench: &'a TestBench,
    ) -> Result<DiagnosisSession<'a>, String> {
        let t = Instant::now();
        let session = {
            let _s = self.span("bench.session.open");
            pipe.load_artifact(artifact, bench)
                .map_err(|e| e.to_string())?
        };
        self.report.put("session.open_s", secs(t), "s");
        Ok(session)
    }

    /// The measured span: passes over the timed chips `lot`, in rounds of
    /// `round` chips, with the `repeats` run between passes as they fall
    /// due, until the span has lasted `cfg.seconds` and there have been
    /// [`MIN_PASSES`] passes and [`MIN_REPS`] of each repeat. Each pass
    /// starts from `open` (a fresh session, untimed) and runs every round
    /// with `run_round`, so every pass does the same work. Every pass must
    /// answer alike. Returns the first pass's answers, the span's timings
    /// and the last pass's state.
    fn passes<S, T>(
        &mut self,
        lot: &[Chip],
        round: usize,
        repeats: &mut [Repeat<'_>],
        mut open: impl FnMut(&mut Self) -> Result<S, String>,
        mut run_round: impl FnMut(&mut Self, &S, &[Chip]) -> Result<Round<T>, String>,
        digest: impl Fn(&mut Digest, &T),
    ) -> Result<(Vec<T>, Timing, S), String> {
        let _s = self.span("bench.diagnose");
        let mut timing = Timing::default();
        let mut first: Option<(Vec<T>, Digest)> = None;
        let t0 = Instant::now();
        loop {
            let state = open(self)?;
            let mut answers = Vec::with_capacity(lot.len());
            let (mut wall_s, mut service_s) = (0.0, Vec::with_capacity(lot.len()));
            for chips in lot.chunks(round) {
                let out = run_round(self, &state, chips)?;
                wall_s += out.wall_s;
                service_s.extend(out.service_s);
                answers.extend(out.answers);
            }
            timing.pass_wall_s.push(wall_s);
            timing.service_s.push(service_s);
            let mut d = Digest::default();
            answers.iter().for_each(|a| digest(&mut d, a));
            match &first {
                None => first = Some((answers, d)),
                Some((_, d0)) => self.report.check(*d0 == d, || {
                    format!("pass {} answered unlike pass 1", timing.passes())
                }),
            }
            let span = self.cfg.seconds;
            if timing.passes() >= MIN_PASSES
                && secs(t0) >= span
                && repeats.iter().all(|r| r.times.len() >= MIN_REPS)
            {
                let answers = first.map(|f| f.0).unwrap_or_default();
                return Ok((answers, timing, state));
            }
            for r in repeats.iter_mut() {
                if r.due(secs(t0), span) {
                    r.run(self)?;
                }
            }
        }
    }

    /// Diagnoses `chips` on the pool as one round, timing each call.
    /// Degraded answers and panics count as failed; a panic yields `None`
    /// and no service time.
    fn diagnose_round(
        &mut self,
        chips: &[Chip],
        diagnose: impl Fn(&Chip) -> FrameworkResult + Sync,
    ) -> Round<Option<FrameworkResult>> {
        let t = Instant::now();
        let out = self.pool.map_catch(chips, |_, chip| {
            let t = Instant::now();
            let r = diagnose(chip);
            (r, secs(t))
        });
        let wall_s = secs(t);
        self.report.attempted += chips.len() as u64;
        let mut round = Round {
            answers: Vec::with_capacity(chips.len()),
            service_s: Vec::with_capacity(chips.len()),
            wall_s,
        };
        for o in out {
            match o {
                Ok((r, s)) => {
                    self.report.failed += u64::from(r.degraded.is_some());
                    round.answers.push(Some(r));
                    round.service_s.push(s);
                }
                Err(panic) => {
                    self.report.failed += 1;
                    self.report
                        .errors
                        .push(format!("diagnosis panicked: {panic}"));
                    round.answers.push(None);
                    round.service_s.push(f64::NAN);
                }
            }
        }
        round
    }

    /// End-to-end diagnose metrics of the measured span: medians over
    /// its passes, and the tail over all its diagnoses.
    fn put_service(&mut self, timing: &Timing) {
        let ms = |s: &[f64]| -> Vec<f64> {
            s.iter()
                .filter(|s| s.is_finite())
                .map(|s| s * 1e3)
                .collect()
        };
        let pass_p50: Vec<f64> = timing
            .service_s
            .iter()
            .map(|s| stats::median(&ms(s)))
            .collect();
        let all = ms(&timing.service_s.concat());
        let lot = timing.service_s.first().map_or(0, Vec::len);
        let r = &mut self.report;
        r.put(
            "diagnoses_per_s",
            lot as f64 / stats::median(&timing.pass_wall_s),
            "chips/s",
        );
        r.put("diagnose_p50_ms", stats::median(&pass_p50), "ms");
        r.put("diagnose.passes", timing.passes() as f64, "count");
        r.put("diagnose.samples", all.len() as f64, "count");
        r.put("diagnose.wall_s", timing.wall_s(), "s");
        if let Some(tail) = stats::tail(&all) {
            r.put("diagnose_tail_ms", tail.value, "ms");
            r.put("diagnose_tail_pct", tail.percentile, "percentile");
            r.put("diagnose_tail_beyond", tail.beyond as f64, "count");
        }
    }

    /// The diagnose phase of the in-process workloads: passes over the
    /// first `plan.lot` chips of the reference lot, each on a session from
    /// `open`, with `repeats` between them; the rest of the lot once,
    /// untimed, on the last session; then the seed's answer set, checked
    /// and re-diagnosed on one thread. Chips are generated on `gen_ctx`'s
    /// design, which must be `bench`'s. Returns the answer set and the
    /// last session.
    fn diagnose<S: Sync>(
        &mut self,
        gen_ctx: &DesignContext<'_>,
        bench: &TestBench,
        plan: Plan,
        repeats: &mut [Repeat<'_>],
        open: impl FnMut(&mut Self) -> Result<S, String>,
        diagnose: impl Fn(&S, &Chip) -> FrameworkResult + Sync,
    ) -> Result<(Answers, S), String> {
        let stream = |seed| ChipStream::new(gen_ctx, false, seed, plan.min_entries);
        let lot = stream(LOT_SEED).take(plan.scored, &self.pool)?;
        let (mut results, timing, state) = self.passes(
            &lot[..plan.lot],
            plan.round,
            repeats,
            open,
            |b, state, chips| Ok(b.diagnose_round(chips, |c| diagnose(state, c))),
            |d, r| r.iter().for_each(|r| digest_result(d, r)),
        )?;
        self.put_service(&timing);
        let busy: f64 = timing
            .service_s
            .concat()
            .iter()
            .filter(|s| s.is_finite())
            .sum();
        self.report.put(
            "exec.parallel_efficiency",
            busy / (THREADS as f64 * timing.wall_s()),
            "ratio",
        );
        let diagnose = |c: &Chip| diagnose(&state, c);
        results.extend(self.diagnose_round(&lot[plan.lot..], diagnose).answers);
        self.score(bench, &Answers::pair(lot, results));

        let answers = {
            let _s = self.span("bench.answers");
            let chips = stream(self.cfg.seed).take(plan.answers, &self.pool)?;
            let results = self.diagnose_round(&chips, diagnose).answers;
            Answers::pair(chips, results)
        };
        self.report.check(answers.chips.len() == plan.answers, || {
            "some answer-set diagnoses panicked".to_string()
        });
        self.mem("mem.diagnose_mb")?;
        self.check_answers(&answers);
        self.serial_check(&answers, &diagnose);
        Ok((answers, state))
    }

    /// Quality of the reference lot's answers (paper §VI-A and §II-B). The
    /// lot is the same in every run, so these are exact: they move only
    /// when the program's answers do.
    fn score(&mut self, bench: &TestBench, lot: &Answers) {
        let mut quality = Quality::default();
        let mut digest = Digest::default();
        for (chip, r) in lot.chips.iter().zip(&lot.results) {
            quality.add(&Case {
                truth: &chip.truth,
                truth_tier: chip.fault.tier(bench),
                truth_miv: chip.miv(),
                atpg_single_tier: single_tier_of(&r.atpg_report, &bench.m3d).is_some(),
                named_tier: r.outcome.predicted_tier,
                report: &r.outcome.report,
                faulty_mivs: &r.outcome.faulty_mivs,
            });
            digest_result(&mut digest, r);
        }
        let r = &mut self.report;
        r.put_opt("tier_loc_pct", quality.tier_loc_pct(), "%");
        r.put_opt("diag_accuracy_pct", quality.diag_accuracy_pct(), "%");
        r.put_opt("miv_hit_pct", quality.miv_hit_pct(), "%");
        r.put_opt("resolution_mean", quality.resolution_mean(), "candidates");
        r.put_opt("fhi_mean", quality.fhi_mean(), "rank");
        r.put("scored", quality.chips as f64, "count");
        r.note("lot_digest", format!("{:016x}", digest.value()));
    }

    /// The answer digest and the invariants every answer must satisfy: the
    /// policy keeps or prunes every ATPG candidate, and the final reports
    /// find the true site often enough that a fast but broken diagnosis
    /// cannot pass.
    fn check_answers(&mut self, answers: &Answers) {
        let mut digest = Digest::default();
        let mut hits = 0;
        for (chip, r) in answers.chips.iter().zip(&answers.results) {
            digest_result(&mut digest, r);
            hits += usize::from(r.outcome.report.first_hit_index(&chip.truth).is_some());
            let kept = r.outcome.report.resolution() + r.outcome.pruned.len();
            self.report.check(kept == r.atpg_report.resolution(), || {
                format!(
                    "policy lost candidates: {} kept + {} pruned != {} from ATPG",
                    r.outcome.report.resolution(),
                    r.outcome.pruned.len(),
                    r.atpg_report.resolution()
                )
            });
        }
        let accuracy = 100.0 * hits as f64 / answers.chips.len().max(1) as f64;
        self.report.check(accuracy >= MIN_ACCURACY_PCT, || {
            format!("answer-set accuracy {accuracy:.1}% < {MIN_ACCURACY_PCT}%")
        });
        self.report
            .put("answers", answers.chips.len() as f64, "count");
        self.report
            .note("digest", format!("{:016x}", digest.value()));
    }

    /// Re-diagnoses the first answers on a 1-thread pool: the digest must
    /// not depend on the thread count.
    fn serial_check<F>(&mut self, answers: &Answers, diagnose: &F)
    where
        F: Fn(&Chip) -> FrameworkResult + Sync,
    {
        let _s = self.span("bench.check.serial");
        let n = answers.chips.len().min(SERIAL_CHECK);
        let serial = ExecPool::serial().map(&answers.chips[..n], |_, c| diagnose(c));
        let mut a = Digest::default();
        let mut b = Digest::default();
        for (x, y) in answers.results[..n].iter().zip(&serial) {
            digest_result(&mut a, x);
            digest_result(&mut b, y);
        }
        self.report.check(a == b, || {
            format!("answers differ between {THREADS} threads and 1 thread")
        });
    }

    /// Per-chip attribution (traced runs): back-trace on `ctx`, then
    /// `Framework::process_log`, whose result carries the ATPG, GNN and
    /// policy times. Also times the wire codec over the same chips.
    /// Returns the answers for the caller to check against the measured
    /// ones.
    fn attribute(
        &mut self,
        ctx: &DesignContext<'_>,
        framework: &Framework,
        chips: &[Chip],
        compacted: bool,
        design: &str,
    ) -> Vec<FrameworkResult> {
        let before = m3d_obs::snapshot();
        let out = {
            let _s = self.span("bench.attribute");
            self.pool.map(chips, |_, chip| {
                let t = Instant::now();
                let sub = {
                    let _s = m3d_obs::span!("bench.backtrace");
                    ctx.backtrace(&chip.log, compacted, &BacktraceConfig::default())
                };
                let bt = secs(t);
                let diag = AtpgDiagnosis::new(
                    &ctx.fsim,
                    compacted.then(|| ctx.chains()),
                    DiagnosisConfig::default(),
                );
                let r = {
                    let _s = m3d_obs::span!("bench.process_log");
                    framework.process_log(ctx, &diag, &chip.log, &sub)
                };
                (bt, sub.len(), r)
            })
        };
        let after = m3d_obs::snapshot();
        let bt: Vec<f64> = out.iter().map(|o| o.0 * 1e3).collect();
        let atpg: Vec<f64> = out.iter().map(|o| ms(o.2.t_atpg)).collect();
        let gnn: Vec<f64> = out.iter().map(|o| ms(o.2.t_gnn)).collect();
        let policy: Vec<f64> = out.iter().map(|o| ms(o.2.t_update)).collect();
        let sum_s = |v: &[f64]| v.iter().sum::<f64>() / 1e3;
        let n = out.len().max(1) as f64;
        let r = &mut self.report;
        r.put("backtrace.total_s", sum_s(&bt), "s");
        r.put("backtrace.p50_ms", stats::median(&bt), "ms");
        let nodes: usize = out.iter().map(|o| o.1).sum();
        r.put("backtrace.subgraph_nodes_mean", nodes as f64 / n, "nodes");
        for name in ["activity_checks", "nodes_visited", "cone_cache_hits"] {
            let delta = counter_delta(&before, &after, &format!("backtrace.{name}"));
            r.put_opt(
                &format!("backtrace.{name}"),
                delta.map(|d| d as f64),
                "count",
            );
        }
        r.put("diagnosis.total_s", sum_s(&atpg), "s");
        r.put("diagnosis.p50_ms", stats::median(&atpg), "ms");
        if let Some(tail) = stats::tail(&atpg) {
            r.put("diagnosis.tail_ms", tail.value, "ms");
            r.put("diagnosis.tail_pct", tail.percentile, "percentile");
        }
        let atpg_res: usize = out.iter().map(|o| o.2.atpg_report.resolution()).sum();
        r.put(
            "diagnosis.atpg_resolution_mean",
            atpg_res as f64 / n,
            "candidates",
        );
        r.put("inference.total_s", sum_s(&gnn), "s");
        r.put("inference.p50_ms", stats::median(&gnn), "ms");
        let flops = counter_delta(&before, &after, "gnn.kernel.flops.inference");
        r.put_opt("gnn.infer_flops", flops.map(|f| f as f64), "flop");
        r.put("policy.total_s", sum_s(&policy), "s");
        let pruned = out
            .iter()
            .filter(|o| o.2.outcome.action == PolicyAction::Pruned)
            .count();
        r.put("policy.pruned_frac", pruned as f64 / n, "ratio");

        let lines: Vec<String> = chips
            .iter()
            .enumerate()
            .map(|(i, c)| request_line(i, design, c))
            .collect();
        let t = Instant::now();
        {
            let _s = self.span("bench.serve.codec");
            for (line, (_, _, res)) in lines.iter().zip(&out) {
                let req = parse_request(line).expect("benchmark request lines are well-formed");
                let log = parse_failure_log(&req.log).expect("written logs parse back");
                std::hint::black_box(&log);
                std::hint::black_box(response_of(&req.id, &req.design, res).to_json());
            }
        }
        self.report.put("serve.codec_s", secs(t), "s");
        out.into_iter().map(|o| o.2).collect()
    }

    /// Attribution for the in-process workloads: its answers must equal
    /// the measured ones.
    fn attribute_answers(
        &mut self,
        ctx: &DesignContext<'_>,
        framework: &Framework,
        answers: &Answers,
        design: &str,
    ) {
        let attributed = self.attribute(ctx, framework, &answers.chips, false, design);
        let mut a = Digest::default();
        let mut b = Digest::default();
        for (x, y) in answers.results.iter().zip(&attributed) {
            digest_result(&mut a, x);
            digest_result(&mut b, y);
        }
        self.report.check(a == b, || {
            "attributed answers differ from the measured ones".to_string()
        });
    }
}

/// `paper-netcard` skips logs with fewer entries: ATPG diagnosis of a
/// one-entry log at this size takes tens of seconds, so one or two such
/// chips would set the run length.
const MIN_PAPER_ENTRIES: usize = 8;

/// Every answer set must find the true site on at least this share of
/// its chips.
const MIN_ACCURACY_PCT: f64 = 25.0;

/// A saved artifact, removed when dropped.
struct ArtifactFile(PathBuf);

impl Drop for ArtifactFile {
    fn drop(&mut self) {
        // Best effort: a leftover file under target/ is harmless.
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Chip counts of an in-process diagnose phase.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Reference-lot chips timed in every pass.
    lot: usize,
    /// Reference-lot chips whose answers are scored (the timed ones
    /// first).
    scored: usize,
    /// Chips per timed round (one pool dispatch).
    round: usize,
    /// Size of the seed's answer set.
    answers: usize,
    /// Shortest log kept (see [`ChipStream::new`]).
    min_entries: usize,
}

/// Passes over the timed chips, at least; more run until the span has
/// lasted `--seconds`.
const MIN_PASSES: usize = 3;

/// One timed round: an answer and a service time per chip, and the
/// round's wall time.
struct Round<T> {
    answers: Vec<T>,
    service_s: Vec<f64>,
    wall_s: f64,
}

/// Timings of a measured span, per pass.
#[derive(Default)]
struct Timing {
    /// Wall time of each pass's diagnose rounds (repetitions between
    /// passes excluded).
    pass_wall_s: Vec<f64>,
    /// Each pass's service times (`NaN` for a panicked diagnosis).
    service_s: Vec<Vec<f64>>,
}

impl Timing {
    fn passes(&self) -> usize {
        self.pass_wall_s.len()
    }

    fn wall_s(&self) -> f64 {
        self.pass_wall_s.iter().sum()
    }
}

/// Chips and their answers.
#[derive(Default)]
struct Answers {
    chips: Vec<Chip>,
    results: Vec<FrameworkResult>,
}

impl Answers {
    /// The chips that were answered (a panicked diagnosis has no answer).
    fn pair(chips: Vec<Chip>, results: Vec<Option<FrameworkResult>>) -> Self {
        let (chips, results) = chips
            .into_iter()
            .zip(results)
            .filter_map(|(c, r)| Some((c, r?)))
            .unzip();
        Answers { chips, results }
    }
}

fn digest_result(d: &mut Digest, r: &FrameworkResult) {
    d.diagnosis(
        r.outcome.predicted_tier,
        r.outcome.confidence,
        &r.outcome.report,
        r.degraded.map(|x| x.as_str()),
    );
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn span_delta_s(before: &Snapshot, after: &Snapshot, name: &str) -> Option<f64> {
    let total = |s: &Snapshot| s.span(name).map_or(0.0, |x| x.total_ms);
    after.span(name)?;
    Some((total(after) - total(before)) / 1e3)
}

fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> Option<u64> {
    Some(after.counter(name)? - before.counter(name).unwrap_or(0))
}

/// The quick-scale ATPG of `Scale::quick`.
fn quick_atpg() -> AtpgConfig {
    AtpgConfig {
        fault_sample: Some(2_000),
        max_rounds: 8,
        ..AtpgConfig::default()
    }
}

fn design(profile: BenchmarkProfile, config: DesignConfig, compaction: usize) -> TestBenchConfig {
    TestBenchConfig {
        profile,
        scale: 0.01,
        config,
        compaction_ratio: compaction,
        atpg: quick_atpg(),
        max_scan_flops: None,
        max_outputs: None,
    }
}

fn pipeline(epochs: usize, restarts: usize) -> Pipeline {
    PipelineBuilder::new()
        .threads(THREADS)
        .model(ModelTrainConfig {
            epochs,
            restarts,
            ..ModelTrainConfig::default()
        })
        .precision_target(0.95)
        .build()
}

fn training_data(n: usize, seed: u64, compacted: bool) -> DatasetConfig {
    DatasetConfig {
        miv_fraction: 0.25,
        compacted,
        ..DatasetConfig::single(n, seed)
    }
}

fn try_build(cfg: &TestBenchConfig) -> Result<TestBench, String> {
    TestBench::try_build(cfg).map_err(|e| e.to_string())
}

/// Training designs and chip counts of `train-aes`: Table IX's transfer
/// recipe (Syn-1 plus two random partitions).
const AES_TRAINING: [(DesignConfig, usize); 3] = [
    (DesignConfig::Syn1, 40),
    (DesignConfig::RandomPart { seed: 101 }, 10),
    (DesignConfig::RandomPart { seed: 202 }, 10),
];

/// `train-aes`: Table IX's transfer recipe at the `BENCH_quick` design
/// and scale. GCN training is most of the run.
fn train_aes(b: &mut Bench) -> Result<(), String> {
    let pipe = pipeline(20, 3);
    let mut train = |b: &mut Bench| {
        let mut ts = TrainingSet::new();
        let mut designs_s = 0.0;
        for (i, (config, n)) in AES_TRAINING.into_iter().enumerate() {
            let t = Instant::now();
            let bench = try_build(&design(BenchmarkProfile::AesLike, config, 4))?;
            let ctx = DesignContext::new(&bench);
            designs_s += secs(t);
            let samples = b.generate(&pipe, &ctx, &training_data(n, 1000 + i as u64, false));
            ts.add(&bench, &samples);
        }
        b.report.put("train.designs_s", designs_s, "s");
        b.fit(&pipe, &ts)
    };
    let (framework, first_train) = b.first_train(&mut train)?;

    // Setup: the Syn-2 design the framework transfers to. The first
    // setup's context doubles as the input generator; the second one
    // opens the session under test.
    let syn2 = design(BenchmarkProfile::AesLike, DesignConfig::Syn2, 4);
    let t = Instant::now();
    let gen_bench = try_build(&syn2)?;
    let gen_ctx = DesignContext::new(&gen_bench);
    let mut setups = vec![secs(t)];
    let t = Instant::now();
    let bench = b.bench_under_test(|| try_build(&syn2))?;
    let t_open = Instant::now();
    let session = {
        let _s = b.span("bench.session.open");
        pipe.open_session(framework, &bench)
    };
    b.report.put("session.open_s", secs(t_open), "s");
    setups.push(secs(t));
    b.mem("mem.setup_mb")?;

    let mut train_again = |b: &mut Bench| train(b).map(drop);
    let mut setup_again = |_: &mut Bench| {
        let bench = try_build(&syn2)?;
        drop(DesignContext::new(&bench));
        Ok(())
    };
    let mut repeats = [
        Repeat {
            share: TRAIN_SHARE,
            times: vec![first_train],
            rep: &mut train_again,
        },
        Repeat {
            share: SETUP_SHARE,
            times: setups,
            rep: &mut setup_again,
        },
    ];
    // Later passes open their sessions from the same framework, captured.
    let artifact = pipe.save_artifact(&syn2, &bench, session.framework());
    let plan = Plan {
        lot: 128,
        scored: 256,
        round: 32,
        answers: 200,
        min_entries: 1,
    };
    let mut first = Some(session);
    let (answers, session) = b.diagnose(
        &gen_ctx,
        &bench,
        plan,
        &mut repeats,
        |b| match first.take() {
            Some(s) => Ok(s),
            None => b.open(&pipe, &artifact, &bench),
        },
        |s, c| s.diagnose(&c.log),
    )?;
    b.put_train(&repeats[0].times);
    b.put_setup(&repeats[1].times);
    if b.cfg.trace {
        b.standalone_layers(&bench);
        let ctx = b.context(&bench);
        let file = b.save(&artifact)?;
        b.load(&file)?;
        b.attribute_answers(&ctx, session.framework(), &answers, session.design());
    }
    Ok(())
}

/// A training repetition of the artifact workloads: `n` chips of `ctx`'s
/// design, trained and saved as an artifact.
fn train_to_file<'a>(
    pipe: &'a Pipeline,
    cfg: &'a TestBenchConfig,
    ctx: &'a DesignContext<'a>,
    n: usize,
    compacted: bool,
) -> impl FnMut(&mut Bench) -> Result<ArtifactFile, String> + 'a {
    move |b| {
        let samples = b.generate(pipe, ctx, &training_data(n, 1000, compacted));
        let mut ts = TrainingSet::new();
        ts.add(ctx.bench, &samples);
        let framework = b.fit(pipe, &ts)?;
        b.save(&pipe.save_artifact(cfg, ctx.bench, &framework))
    }
}

/// A setup repetition from a saved artifact: `Artifact::load` +
/// `build_bench` + `load_artifact`.
fn artifact_setup<'a>(
    pipe: &'a Pipeline,
    file: &'a ArtifactFile,
) -> impl FnMut(&mut Bench) -> Result<(), String> + 'a {
    move |_| {
        let artifact = Artifact::load(&file.0).map_err(|e| e.to_string())?;
        let bench = artifact.build_bench().map_err(|e| e.to_string())?;
        drop(
            pipe.load_artifact(&artifact, &bench)
                .map_err(|e| e.to_string())?,
        );
        Ok(())
    }
}

/// `diagnose-bypass`: volume diagnosis, the Fig. 9 deployment flow. Every
/// chip is distinct, so the cone cache sees new failures, not replays.
fn diagnose_bypass(b: &mut Bench) -> Result<(), String> {
    let pipe = pipeline(10, 1);
    let cfg = design(BenchmarkProfile::NetcardLike, DesignConfig::Syn1, 4);
    let gen_bench = try_build(&cfg)?;
    let gen_ctx = DesignContext::new(&gen_bench);
    let mut train = train_to_file(&pipe, &cfg, &gen_ctx, 100, false);
    let (file, first_train) = b.first_train(&mut train)?;

    let t = Instant::now();
    let artifact = b.load(&file)?;
    let bench = b.bench_under_test(|| artifact.build_bench().map_err(|e| e.to_string()))?;
    let session = b.open(&pipe, &artifact, &bench)?;
    let first_setup = secs(t);
    b.mem("mem.setup_mb")?;

    let mut train_again = |b: &mut Bench| train(b).map(drop);
    let mut setup_again = artifact_setup(&pipe, &file);
    let mut repeats = [
        Repeat {
            share: TRAIN_SHARE,
            times: vec![first_train],
            rep: &mut train_again,
        },
        Repeat {
            share: SETUP_SHARE,
            times: vec![first_setup],
            rep: &mut setup_again,
        },
    ];
    let plan = Plan {
        lot: 64,
        scored: 192,
        round: 32,
        answers: 128,
        min_entries: 1,
    };
    let mut first = Some(session);
    let (answers, session) = b.diagnose(
        &gen_ctx,
        &bench,
        plan,
        &mut repeats,
        |b| match first.take() {
            Some(s) => Ok(s),
            None => b.open(&pipe, &artifact, &bench),
        },
        |s, c| s.diagnose(&c.log),
    )?;
    b.put_train(&repeats[0].times);
    b.put_setup(&repeats[1].times);
    if b.cfg.trace {
        b.standalone_layers(&bench);
        let ctx = b.context(&bench);
        b.attribute_answers(&ctx, session.framework(), &answers, session.design());
    }
    Ok(())
}

/// One NDJSON request line.
fn request_line(i: usize, design: &str, chip: &Chip) -> String {
    format!(
        "{{\"id\":\"chip-{i}\",\"design\":\"{}\",\"log\":\"{}\"}}",
        json_escape(design),
        json_escape(&write_failure_log(&chip.log))
    )
}

/// The body of a JSON string literal. The benchmark encodes requests as
/// a client would, without the server's own codec.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

/// The wire record of a diagnosis (as the serving engine builds it).
fn response_of(id: &str, design: &str, r: &FrameworkResult) -> Response {
    Response {
        id: id.to_string(),
        design: design.to_string(),
        status: if r.degraded.is_some() {
            Status::Degraded
        } else {
            Status::Ok
        },
        degrade_reason: r.degraded.map(|x| x.as_str()),
        t_p_fallback: Some(r.t_p_fallback),
        tier: Some(r.outcome.predicted_tier.0),
        confidence: Some(r.outcome.confidence),
        action: Some(match r.outcome.action {
            PolicyAction::Pruned => "pruned",
            PolicyAction::Reordered => "reordered",
        }),
        resolution: Some(r.outcome.report.resolution()),
        atpg_resolution: Some(r.atpg_report.resolution()),
        pruned: Some(r.outcome.pruned.len()),
        error: None,
    }
}

/// Output sink of `serve_lines` that counts engine batches: the engine
/// flushes once per batch.
#[derive(Default)]
struct BatchSink {
    bytes: Vec<u8>,
    lines: usize,
    flushed_lines: usize,
    batches: usize,
}

impl Write for BatchSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.lines += buf.iter().filter(|&&c| c == b'\n').count();
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.lines > self.flushed_lines {
            self.flushed_lines = self.lines;
            self.batches += 1;
        }
        Ok(())
    }
}

/// Value of `"key":` in a response line (quotes stripped). Response
/// records are flat and the benchmark's ids need no escaping.
fn field<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    rest.find([',', '}']).map(|end| &rest[..end])
}

/// Requests per `serve_lines` call (one timed round) in
/// `serve-compacted`: small enough that the phase has many rounds.
const SERVE_BURST: usize = 8;

/// Engine batch (requests per pool dispatch) in `serve-compacted`.
const SERVE_BATCH: usize = 8;

/// Serves `lines` through `serve_lines` as one burst. Returns the round
/// and the number of engine batches. A request's service time is the
/// burst's: a client sending the burst has every answer then. (How the
/// engine splits a burst into batches depends on thread timing, so the
/// time of a request's own batch would be a coin toss.)
fn serve_burst(
    registry: &Registry<'_, '_>,
    pool: &ExecPool,
    lines: &[String],
) -> Result<(Round<String>, usize), String> {
    let mut input = lines.join("\n");
    input.push('\n');
    let mut sink = BatchSink::default();
    let cfg = ServeConfig {
        batch: SERVE_BATCH,
        queue: 256,
    };
    let t = Instant::now();
    m3d_serve::serve_lines(registry, pool, &cfg, input.as_bytes(), &mut sink)
        .map_err(|e| e.to_string())?;
    let wall_s = secs(t);
    let text = String::from_utf8(sink.bytes).map_err(|e| e.to_string())?;
    let round = Round {
        answers: text.lines().map(str::to_string).collect(),
        service_s: vec![wall_s; lines.len()],
        wall_s,
    };
    Ok((round, sink.batches))
}

fn registry<'s, 'a>(sessions: &'s [DiagnosisSession<'a>]) -> Result<Registry<'s, 'a>, String> {
    Registry::new(sessions).map_err(|e| e.to_string())
}

impl Bench {
    /// Serves `lines` on the pool as one burst and checks the framing:
    /// exactly one response per request, in input order, ids echoed.
    /// Responses other than `ok` count as failed.
    fn serve(
        &mut self,
        registry: &Registry<'_, '_>,
        lines: &[String],
    ) -> Result<(Round<String>, usize), String> {
        let (round, batches) = serve_burst(registry, &self.pool, lines)?;
        let responses = &round.answers;
        self.report.attempted += lines.len() as u64;
        self.report.check(responses.len() == lines.len(), || {
            format!("{} responses to {} requests", responses.len(), lines.len())
        });
        for (i, resp) in responses.iter().enumerate() {
            let id = format!("chip-{i}");
            self.report
                .check(field(resp, "id") == Some(id.as_str()), || {
                    format!("response {i} out of order: {resp}")
                });
            self.report.failed += u64::from(field(resp, "status") != Some("ok"));
        }
        Ok((round, batches))
    }

    /// Wire responses must carry what `results` (in-process answers to
    /// the same requests) say, key for key.
    fn check_wire(&mut self, design: &str, responses: &[String], results: &[FrameworkResult]) {
        for (resp, r) in responses.iter().zip(results) {
            let expect = response_of(field(resp, "id").unwrap_or("?"), design, r).to_json();
            self.report.check(*resp == expect, || {
                format!("wire answer {resp} != in-process {expect}")
            });
        }
    }
}

/// `serve-compacted`: tate under the paper's 20× EDT compaction, served
/// over the NDJSON wire protocol. Each channel entry resolves to 20 flops,
/// so back-trace dominates, and the codec is in the path.
fn serve_compacted(b: &mut Bench) -> Result<(), String> {
    const TIMED: usize = 16;
    const SCORED: usize = 24;
    const ANSWERS: usize = 12;
    let pipe = pipeline(10, 1);
    let cfg = design(BenchmarkProfile::TateLike, DesignConfig::Syn1, 20);
    let gen_bench = try_build(&cfg)?;
    let gen_ctx = DesignContext::new(&gen_bench);
    let mut train = train_to_file(&pipe, &cfg, &gen_ctx, 12, true);
    let (file, first_train) = b.first_train(&mut train)?;

    let t = Instant::now();
    let artifact = b.load(&file)?;
    let bench = b.bench_under_test(|| artifact.build_bench().map_err(|e| e.to_string()))?;
    let session = b.open(&pipe, &artifact, &bench)?;
    let first_setup = secs(t);
    b.mem("mem.setup_mb")?;
    let design_name = session.design().to_string();

    let mut train_again = |b: &mut Bench| train(b).map(drop);
    let mut setup_again = artifact_setup(&pipe, &file);
    let mut repeats = [
        Repeat {
            share: TRAIN_SHARE,
            times: vec![first_train],
            rep: &mut train_again,
        },
        Repeat {
            share: SETUP_SHARE,
            times: vec![first_setup],
            rep: &mut setup_again,
        },
    ];

    let stream = |seed| ChipStream::new(&gen_ctx, true, seed, 1);
    let lines = |chips: &[Chip]| -> Vec<String> {
        chips
            .iter()
            .enumerate()
            .map(|(i, c)| request_line(i, &design_name, c))
            .collect()
    };
    let lot = stream(LOT_SEED).take(SCORED, &b.pool)?;
    let mut first = Some(session);
    let mut batches = 0;
    let (responses, timing, sessions) = b.passes(
        &lot[..TIMED],
        SERVE_BURST,
        &mut repeats,
        |b| {
            Ok([match first.take() {
                Some(s) => s,
                None => b.open(&pipe, &artifact, &bench)?,
            }])
        },
        |b, sessions, chips| {
            let (round, n) = b.serve(&registry(sessions)?, &lines(chips))?;
            batches += n;
            Ok(round)
        },
        |d, resp| d.bytes(resp.as_bytes()),
    )?;
    b.put_service(&timing);
    b.put_train(&repeats[0].times);
    b.put_setup(&repeats[1].times);
    b.report.put("serve.batches", batches as f64, "count");
    b.report.put(
        "serve.batch_mean",
        (timing.passes() * TIMED) as f64 / batches as f64,
        "requests",
    );

    // The lot diagnosed in process: the wire must carry the same answers
    // as the timed requests got, and the lot gives the quality.
    let session = &sessions[0];
    let results = b.pool.map(&lot, |_, c| session.diagnose(&c.log));
    b.check_wire(&design_name, &responses, &results);
    b.score(
        &bench,
        &Answers {
            chips: lot,
            results,
        },
    );

    // The answer set: the seed's chips over the wire, untimed, then in
    // process on one thread. The wire answers come from the 2-thread
    // engine, so equal records check the codec and thread invariance.
    let chips = stream(b.cfg.seed).take(ANSWERS, &b.pool)?;
    let (round, _) = {
        let _s = b.span("bench.answers");
        b.serve(&registry(&sessions)?, &lines(&chips))?
    };
    b.mem("mem.diagnose_mb")?;
    let results = {
        let _s = b.span("bench.check.serial");
        ExecPool::serial().map(&chips, |_, c| session.diagnose(&c.log))
    };
    b.check_wire(&design_name, &round.answers, &results);
    let answers = Answers { chips, results };
    b.check_answers(&answers);
    if b.cfg.trace {
        b.standalone_layers(&bench);
        let ctx = b.context(&bench);
        let attributed = b.attribute(
            &ctx,
            session.framework(),
            &answers.chips,
            true,
            &design_name,
        );
        b.check_wire(&design_name, &round.answers, &attributed);
    }
    Ok(())
}

/// Setups per `paper-netcard` run; `setup_s` is their median.
const PAPER_SETUPS: usize = 3;

/// `paper-netcard`: the `Scale::paper_smoke` recipe (netcard at half its
/// Table III size, ~111k gates) copied as constants, with the observation
/// caps at a quarter, so that a run can set up three times. Setup and
/// memory dominate. Diagnosis uses the three calls
/// `DiagnosisSession::diagnose` makes, on the setup context, because a
/// session would build a second paper-scale context.
fn paper_netcard(b: &mut Bench) -> Result<(), String> {
    let cfg = TestBenchConfig {
        profile: BenchmarkProfile::NetcardLike,
        scale: 0.5,
        config: DesignConfig::Syn1,
        compaction_ratio: 20,
        atpg: AtpgConfig {
            fault_sample: Some(2_000),
            max_rounds: 2,
            ..AtpgConfig::default()
        },
        max_scan_flops: Some(256),
        max_outputs: Some(32),
    };
    let pipe = pipeline(4, 1);
    // One design and context at a time, so peak memory is that of one.
    let mut setup = Vec::new();
    while setup.len() < PAPER_SETUPS - 1 {
        let t = Instant::now();
        let bench = try_build(&cfg)?;
        drop(DesignContext::new(&bench));
        setup.push(secs(t));
    }
    let t = Instant::now();
    let bench = b.bench_under_test(|| try_build(&cfg))?;
    let setup_build = secs(t);
    // Standalone layer timings run before the context exists, so the
    // traced run's peak memory stays that of one context.
    b.standalone_layers(&bench);
    let t = Instant::now();
    let ctx = b.context(&bench);
    setup.push(setup_build + secs(t));
    b.put_setup(&setup);
    if let (Some(new), Some(f), Some(h), Some(x)) = (
        b.report.get("context.new_s"),
        b.report.get("sim.fsim_new_s"),
        b.report.get("hetero.build_s"),
        b.report.get("features.compute_s"),
    ) {
        b.report.put("context.cone_s", new - f - h - x, "s");
    }
    b.mem("mem.setup_mb")?;

    let mut train = |b: &mut Bench| {
        let samples = b.generate(&pipe, &ctx, &training_data(8, 1000, false));
        let mut ts = TrainingSet::new();
        ts.add(&bench, &samples);
        b.fit(&pipe, &ts)
    };
    let (framework, first_train) = b.first_train(&mut train)?;

    // Setups do not repeat between passes: a second paper-scale context
    // would double peak memory. The sharded back-trace keeps no cache, so
    // passes need no fresh session.
    let mut train_again = |b: &mut Bench| train(b).map(drop);
    let mut repeats = [Repeat {
        share: TRAIN_SHARE,
        times: vec![first_train],
        rep: &mut train_again,
    }];
    let plan = Plan {
        lot: 16,
        scored: 24,
        round: 8,
        answers: 8,
        min_entries: MIN_PAPER_ENTRIES,
    };
    let (answers, ()) = b.diagnose(
        &ctx,
        &bench,
        plan,
        &mut repeats,
        |_| Ok(()),
        |(), c| {
            let sub = ctx.backtrace(&c.log, false, &BacktraceConfig::default());
            let diag = AtpgDiagnosis::new(&ctx.fsim, None, DiagnosisConfig::default());
            framework.process_log(&ctx, &diag, &c.log, &sub)
        },
    )?;
    b.put_train(&repeats[0].times);
    if b.cfg.trace {
        let file = b.save(&pipe.save_artifact(&cfg, &bench, &framework))?;
        b.load(&file)?;
        b.attribute_answers(&ctx, &framework, &answers, &bench.name);
    }
    Ok(())
}
