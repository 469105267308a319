//! Injection campaigns: run many seeded corruption scenarios through the
//! full diagnose flow, under per-item panic isolation, and reconcile the
//! observed degradations against each scenario's contract.

use crate::inject::{inject_log, inject_subgraph};
use crate::scenario::{Expectation, Scenario};
use m3d_diagnosis::AtpgDiagnosis;
use m3d_exec::ExecPool;
use m3d_fault_loc::{
    BacktraceConfig, DesignContext, Fnv1a, Framework, GnnEvidence, PolicyAction, Sample,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Number of scenarios to run (the catalog is cycled; base samples
    /// rotate with the scenario index).
    pub scenarios: usize,
    /// Campaign seed. Every scenario derives its own RNG from
    /// `seed ^ splitmix(index)`, so runs are reproducible and
    /// order-independent.
    pub seed: u64,
    /// Whether the design's failure logs went through the response
    /// compactor (must match how `samples` were generated).
    pub compacted: bool,
}

/// What one scenario did to the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The scenario's stable label.
    pub label: String,
    /// The scenario's degradation contract.
    pub expectation: Expectation,
    /// Whether the framework degraded the case to its ATPG report.
    pub degraded: bool,
    /// The specific [`m3d_fault_loc::DegradeReason`] label attributed in
    /// the scenario's audit record (`None` for a healthy outcome) — every
    /// MustDegrade corruption must be attributable to one.
    pub degrade_reason: Option<String>,
    /// Final report resolution.
    pub resolution: usize,
    /// Number of candidates pruned into the backup dictionary.
    pub pruned: usize,
    /// Whether the policy took the prune branch.
    pub action_pruned: bool,
    /// The predicted tier.
    pub predicted_tier: u8,
    /// Bit pattern of the reported confidence (for exact thread-invariance
    /// hashing).
    pub confidence_bits: u32,
    /// `Some(message)` when the scenario panicked — a contract violation
    /// by definition.
    pub panic: Option<String>,
}

impl ScenarioOutcome {
    /// Whether this outcome violates its scenario's contract.
    pub fn violates(&self) -> bool {
        self.panic.is_some()
            || match self.expectation {
                Expectation::MustDegrade => !self.degraded,
                Expectation::MustNotDegrade => self.degraded,
                Expectation::MayDegrade => false,
            }
    }

    fn fold_into(&self, h: &mut Fnv1a) {
        h.write(self.label.as_bytes());
        h.write(&[u8::from(self.degraded), u8::from(self.action_pruned)]);
        h.write(self.degrade_reason.as_deref().unwrap_or("-").as_bytes());
        h.write_u64(self.resolution as u64);
        h.write_u64(self.pruned as u64);
        h.write(&[self.predicted_tier]);
        h.write(&self.confidence_bits.to_le_bytes());
    }
}

/// The campaign's aggregate result.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Per-scenario outcomes, in scenario order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// FNV-1a fold of every outcome in order — bit-identical across
    /// thread counts for the same `(design, samples, config)`.
    pub outcome_hash: u64,
}

impl CampaignReport {
    /// Number of scenarios that panicked (always 0 under the
    /// graceful-degradation contract).
    pub fn panics(&self) -> usize {
        self.outcomes.iter().filter(|o| o.panic.is_some()).count()
    }

    /// Outcomes violating their scenario's contract.
    pub fn violations(&self) -> Vec<&ScenarioOutcome> {
        self.outcomes.iter().filter(|o| o.violates()).collect()
    }

    /// Number of scenarios that surfaced a degradation.
    pub fn degraded(&self) -> usize {
        self.outcomes.iter().filter(|o| o.degraded).count()
    }

    /// Number of scenarios whose contract requires a degradation —
    /// reconciles injected-corruption counts against observed fallbacks.
    pub fn must_degrade(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.expectation == Expectation::MustDegrade)
            .count()
    }

    /// Degraded-scenario counts broken down by attributed
    /// [`m3d_fault_loc::DegradeReason`] label, label-sorted. Degraded
    /// outcomes with no attribution appear under `"unattributed"` (always
    /// absent under the audit contract).
    pub fn degraded_by_reason(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        for o in self.outcomes.iter().filter(|o| o.degraded) {
            *counts
                .entry(o.degrade_reason.as_deref().unwrap_or("unattributed"))
                .or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }
}

/// Runs one scenario against a base sample and reports what happened.
///
/// Log scenarios corrupt the tester log and re-run the *entire*
/// downstream flow (back-trace, ATPG diagnosis, inference, policy); graph
/// scenarios corrupt the back-traced subgraph; GNN scenarios hand
/// corrupted probability vectors to [`Framework::fuse`] in place of
/// inference.
pub fn run_scenario(
    ctx: &DesignContext<'_>,
    fw: &Framework,
    diag: &AtpgDiagnosis<'_, '_>,
    base: &Sample,
    scenario: &Scenario,
    compacted: bool,
    rng: &mut StdRng,
) -> ScenarioOutcome {
    let r = match scenario {
        Scenario::Healthy => fw.process_case(ctx, diag, base),
        Scenario::Log(chaos) => {
            let log = inject_log(&base.log, chaos, rng);
            let subgraph = ctx.backtrace(&log, compacted, &BacktraceConfig::default());
            let sample = Sample {
                fault: base.fault.clone(),
                log,
                subgraph,
                truth: base.truth.clone(),
            };
            fw.process_case(ctx, diag, &sample)
        }
        Scenario::Graph(chaos) => {
            let sample = Sample {
                fault: base.fault.clone(),
                log: base.log.clone(),
                subgraph: inject_subgraph(&base.subgraph, chaos, rng),
                truth: base.truth.clone(),
            };
            fw.process_case(ctx, diag, &sample)
        }
        Scenario::Gnn(chaos) => {
            // Corrupt probabilities stand in for inference; `fuse` decides,
            // audits and records the case like any other.
            let _span = m3d_obs::SpanGuard::enter_root("chaos.gnn.diagnose");
            let t0 = std::time::Instant::now();
            let report = diag.diagnose(&base.log);
            let t_atpg = t0.elapsed();
            let gnn = GnnEvidence {
                tier_probs: &chaos.tier_probs(),
                miv_probs: &chaos.miv_probs(),
                readout: None,
                t_gnn: std::time::Duration::ZERO,
            };
            fw.fuse(ctx, &base.log, &base.subgraph, report, t_atpg, gnn)
        }
    };
    ScenarioOutcome {
        label: scenario.label(),
        expectation: scenario.expectation(),
        degraded: r.degraded.is_some(),
        degrade_reason: r.degraded.map(|d| d.as_str().to_string()),
        resolution: r.outcome.report.resolution(),
        pruned: r.outcome.pruned.len(),
        action_pruned: r.outcome.action == PolicyAction::Pruned,
        predicted_tier: r.outcome.predicted_tier.0,
        confidence_bits: r.outcome.confidence.to_bits(),
        panic: None,
    }
}

/// Runs a full injection campaign on `pool`.
///
/// Scenarios cycle through [`Scenario::catalog`] and rotate over the base
/// samples; each derives its own seeded RNG, so the campaign is
/// reproducible from the config alone and the outcome hash is
/// bit-identical at any thread count. Scenarios run under
/// [`ExecPool::map_catch`], so a panic (a contract violation) is recorded
/// in the report instead of tearing down the campaign.
///
/// # Panics
///
/// Panics if `samples` is empty — a campaign needs at least one healthy
/// base case to corrupt.
pub fn run_campaign(
    ctx: &DesignContext<'_>,
    fw: &Framework,
    diag: &AtpgDiagnosis<'_, '_>,
    samples: &[Sample],
    cfg: &CampaignConfig,
    pool: &ExecPool,
) -> CampaignReport {
    assert!(!samples.is_empty(), "campaign needs base samples");
    let _span = m3d_obs::span!("chaos.campaign");
    let catalog = Scenario::catalog();
    let plan: Vec<(usize, Scenario)> = (0..cfg.scenarios)
        .map(|i| (i, catalog[i % catalog.len()].clone()))
        .collect();
    let results = pool.map_catch(&plan, |_, (i, scenario)| {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ splitmix(*i as u64));
        let base = &samples[i % samples.len()];
        run_scenario(ctx, fw, diag, base, scenario, cfg.compacted, &mut rng)
    });
    let outcomes: Vec<ScenarioOutcome> = results
        .into_iter()
        .zip(&plan)
        .map(|(r, (_, scenario))| match r {
            Ok(o) => o,
            Err(msg) => {
                m3d_obs::counter!("chaos.scenario_panics", 1);
                ScenarioOutcome {
                    label: scenario.label(),
                    expectation: scenario.expectation(),
                    degraded: false,
                    degrade_reason: None,
                    resolution: 0,
                    pruned: 0,
                    action_pruned: false,
                    predicted_tier: 0,
                    confidence_bits: 0,
                    panic: Some(msg),
                }
            }
        })
        .collect();
    let mut hash = Fnv1a::default();
    for o in &outcomes {
        o.fold_into(&mut hash);
    }
    let outcome_hash = hash.finish();
    m3d_obs::counter!("chaos.scenarios_run", outcomes.len() as u64);
    m3d_obs::counter!(
        "chaos.scenarios_degraded",
        outcomes.iter().filter(|o| o.degraded).count() as u64
    );
    let report = CampaignReport {
        outcomes,
        outcome_hash,
    };
    let by_reason = report
        .degraded_by_reason()
        .iter()
        .map(|(r, n)| format!("{r}={n}"))
        .collect::<Vec<_>>()
        .join(", ");
    m3d_obs::info!(
        "chaos campaign: {} scenarios, {} degraded [{}], {} panics, hash {:#018x}",
        report.outcomes.len(),
        report.degraded(),
        if by_reason.is_empty() {
            "-"
        } else {
            &by_reason
        },
        report.panics(),
        report.outcome_hash
    );
    report
}

/// SplitMix64 finalizer — decorrelates per-scenario seeds.
fn splitmix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
