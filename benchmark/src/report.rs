//! The metric catalogue and one run's report.
//!
//! Every value a run measures is printed as `<workload> <metric> <value>
//! <unit>`. The last stdout line is one JSON object carrying either the
//! end-to-end metrics (untraced runs) or the per-layer metrics (traced
//! runs); those two lists mirror `BENCHMARK.json` at the repository root.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

/// A metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Largest tolerated worsening of the median, as a share of the
    /// baseline median (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them.
pub const END_TO_END: [MetricDef; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("train_s", "s", Better::Lower, 0.25),
    e2e("diagnoses_per_s", "chips/s", Better::Higher, 0.25),
    e2e("diagnose_p50_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
    e2e("tier_loc_pct", "%", Better::Higher, 0.05),
    e2e("diag_accuracy_pct", "%", Better::Higher, 0.05),
    e2e("resolution_mean", "candidates", Better::Lower, 0.05),
    e2e("fhi_mean", "rank", Better::Lower, 0.05),
];

/// Per-layer metrics of traced runs. Every workload reports every one of
/// them; more layer values are printed as text lines where they exist.
/// They carry no bound.
pub const PER_LAYER: [MetricDef; 33] = [
    layer("design.bench_build_s", "s"),
    layer("netlist.generate_s", "s"),
    layer("part.partition_s", "s"),
    layer("sim.atpg_s", "s"),
    layer("sim.atpg_patterns", "count"),
    layer("context.new_s", "s"),
    layer("sim.fsim_new_s", "s"),
    layer("hetero.build_s", "s"),
    layer("features.compute_s", "s"),
    layer("hetero.nodes", "count"),
    layer("hetero.observers", "count"),
    layer("dataset.generate_s", "s"),
    layer("dataset.samples", "count"),
    layer("framework.train_s", "s"),
    layer("gnn.train_s", "s"),
    MetricDef {
        name: "gnn.train_gflops",
        unit: "GFLOP/s",
        better: Better::Higher,
        bound: None,
    },
    layer("artifact.save_s", "s"),
    layer("artifact.load_s", "s"),
    layer("artifact.bytes", "bytes"),
    layer("backtrace.total_s", "s"),
    layer("backtrace.p50_ms", "ms"),
    layer("backtrace.subgraph_nodes_mean", "nodes"),
    layer("backtrace.activity_checks", "count"),
    layer("diagnosis.total_s", "s"),
    layer("diagnosis.p50_ms", "ms"),
    layer("diagnosis.atpg_resolution_mean", "candidates"),
    layer("inference.total_s", "s"),
    layer("inference.p50_ms", "ms"),
    layer("policy.total_s", "s"),
    layer("serve.codec_s", "s"),
    layer("mem.setup_mb", "MiB"),
    layer("mem.train_mb", "MiB"),
    layer("mem.diagnose_mb", "MiB"),
];

/// One run's measurements and correctness verdict.
#[derive(Debug)]
pub struct Report {
    workload: &'static str,
    values: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, String)>,
    /// Chips (or requests) diagnosed in the measured phase.
    pub attempted: u64,
    /// Of those, how many degraded, were rejected, or panicked.
    pub failed: u64,
    /// Failed correctness checks; empty when the answers are correct.
    pub errors: Vec<String>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            values: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Records a metric (a later value of the same name replaces it).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.values.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit),
            None => self.values.push((name.to_string(), value, unit)),
        }
    }

    /// Records a metric when it exists.
    pub fn put_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.put(name, v, unit);
        }
    }

    /// Records a non-numeric fact (digest, SIMD mode, ...).
    pub fn note(&mut self, name: &str, value: impl Into<String>) {
        self.notes.push((name.to_string(), value.into()));
    }

    /// The value of metric `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// `true` when every correctness check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The `<workload> <metric> <value> <unit>` lines, notes last.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.values {
            out.push_str(&format!("{} {name} {value} {unit}\n", self.workload));
        }
        for (name, value) in &self.notes {
            out.push_str(&format!("{} {name} {value} -\n", self.workload));
        }
        for e in &self.errors {
            out.push_str(&format!(
                "{} error {} -\n",
                self.workload,
                e.replace('\n', " ")
            ));
        }
        out
    }

    /// The result object: `correct`, `attempted`, `failed`, and the
    /// metrics of `defs`.
    ///
    /// # Errors
    ///
    /// Names the first metric of `defs` the run did not record.
    pub fn json(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            let v = self.get(d.name).ok_or_else(|| {
                format!("{}: metric `{}` was not measured", self.workload, d.name)
            })?;
            if !v.is_finite() {
                return Err(format!("{}: metric `{}` is {v}", self.workload, d.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}
