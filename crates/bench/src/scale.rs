//! Experiment scaling.
//!
//! The paper's benchmarks are 98K–338K gates with 5000 samples each; that
//! is hours of compute. Every harness binary accepts a scale so the full
//! table suite reproduces in minutes (`quick`), with `medium`/`paper`
//! approaching the published setup when time allows. Select via the
//! `--scale <name>` argument or the `M3D_SCALE` environment variable.

use m3d_sim::AtpgConfig;

/// Workload scaling parameters shared by all experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Name for report headers.
    pub name: &'static str,
    /// Design size as a fraction of Table III gate counts.
    pub design_scale: f64,
    /// Syn-1 training samples.
    pub n_train: usize,
    /// Training samples per randomly-partitioned augmentation netlist.
    pub n_rand_train: usize,
    /// Test samples per configuration (the paper uses 750 = 15%).
    pub n_test: usize,
    /// GNN training epochs.
    pub epochs: usize,
    /// Samples diagnosed to train the PADRE baseline filter.
    pub n_padre_train: usize,
    /// Chains per compacted output channel (paper: 20).
    pub compaction_ratio: usize,
    /// Precision target for the T_P rule (the paper's 0.99 presumes its
    /// full-scale ~95% Tier-predictor; smaller scales need a looser gate
    /// for the pruning branch to ever fire).
    pub precision_target: f64,
    /// ATPG settings.
    pub atpg: AtpgConfig,
    /// Cap on scan flops per design (`None` = full Table III scaling).
    /// The paper-smoke scale bounds the observation-point count this way
    /// so a ≥100k-gate design stays buildable (every flop is an
    /// observation point whose whole fan-in cone gets indexed).
    pub max_scan_flops: Option<usize>,
    /// Cap on primary outputs per design (`None` = uncapped).
    pub max_outputs: Option<usize>,
}

impl Scale {
    /// Minutes-scale run for CI and quick reproduction.
    pub fn quick() -> Self {
        Scale {
            name: "quick",
            design_scale: 0.01,
            n_train: 400,
            n_rand_train: 100,
            n_test: 80,
            epochs: 50,
            n_padre_train: 50,
            compaction_ratio: 4,
            precision_target: 0.95,
            atpg: AtpgConfig {
                fault_sample: Some(2_000),
                max_rounds: 8,
                ..AtpgConfig::default()
            },
            max_scan_flops: None,
            max_outputs: None,
        }
    }

    /// Tens-of-minutes run with larger designs and sample counts.
    pub fn medium() -> Self {
        Scale {
            name: "medium",
            design_scale: 0.02,
            n_train: 500,
            n_rand_train: 200,
            n_test: 200,
            epochs: 50,
            n_padre_train: 120,
            compaction_ratio: 10,
            precision_target: 0.97,
            atpg: AtpgConfig {
                fault_sample: Some(4_000),
                max_rounds: 10,
                ..AtpgConfig::default()
            },
            max_scan_flops: None,
            max_outputs: None,
        }
    }

    /// Paper-approaching run (hours; full gate counts, 20× compaction,
    /// 5000/750 sample split).
    pub fn paper() -> Self {
        Scale {
            name: "paper",
            design_scale: 1.0,
            n_train: 5_000,
            n_rand_train: 1_500,
            n_test: 750,
            epochs: 60,
            n_padre_train: 400,
            compaction_ratio: 20,
            precision_target: 0.99,
            atpg: AtpgConfig {
                fault_sample: Some(20_000),
                max_rounds: 12,
                ..AtpgConfig::default()
            },
            max_scan_flops: None,
            max_outputs: None,
        }
    }

    /// The CI paper-scale smoke: one ≥100k-gate design (netcard-class at
    /// half Table III), observation points capped for tractability, and
    /// sample counts cut to the bone. This is the scale behind
    /// `BENCH_paper.json` — it exists to exercise and gate the bitmap
    /// back-trace against the reference back-trace at a paper-scale gate
    /// count, not to approach the paper's sample sizes (use `paper` for
    /// that).
    pub fn paper_smoke() -> Self {
        Scale {
            name: "paper-smoke",
            design_scale: 0.5,
            n_train: 8,
            n_rand_train: 4,
            n_test: 6,
            epochs: 4,
            n_padre_train: 4,
            compaction_ratio: 20,
            precision_target: 0.95,
            atpg: AtpgConfig {
                fault_sample: Some(2_000),
                max_rounds: 2,
                ..AtpgConfig::default()
            },
            max_scan_flops: Some(1_024),
            max_outputs: Some(128),
        }
    }

    /// Resolves the scale from CLI args / `M3D_SCALE`, defaulting to
    /// `quick`. Unknown names fall back to `quick` with a warning on
    /// stderr.
    pub fn from_args() -> Self {
        let mut args = std::env::args().skip(1);
        let mut pick: Option<String> = std::env::var("M3D_SCALE").ok();
        while let Some(a) = args.next() {
            if a == "--scale" {
                pick = args.next();
            }
        }
        match pick.as_deref() {
            None | Some("quick") => Scale::quick(),
            Some("medium") => Scale::medium(),
            Some("paper") => Scale::paper(),
            Some("paper-smoke") => Scale::paper_smoke(),
            Some(other) => {
                m3d_obs::warn!("unknown scale `{other}`, using quick");
                Scale::quick()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let q = Scale::quick();
        let m = Scale::medium();
        let p = Scale::paper();
        assert!(q.design_scale < m.design_scale && m.design_scale < p.design_scale);
        assert!(q.n_train < m.n_train && m.n_train < p.n_train);
        assert_eq!(p.compaction_ratio, 20, "paper uses 20x EDT");
        assert_eq!(p.n_test, 750, "paper tests on 750 samples");
    }

    #[test]
    fn paper_smoke_is_paper_scale_with_capped_obs() {
        let s = Scale::paper_smoke();
        assert!(s.design_scale >= 0.5, "must stay a ≥100k-gate profile");
        assert!(s.max_scan_flops.is_some() && s.max_outputs.is_some());
        assert!(s.n_train <= 16, "smoke keeps sample counts tiny");
        assert!(
            Scale::paper().max_scan_flops.is_none(),
            "full paper uncapped"
        );
    }
}
