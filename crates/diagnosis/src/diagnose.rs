//! ATPG-tool-style effect-cause diagnosis.
//!
//! Reproduces the role of the commercial diagnosis step in Fig. 1:
//!
//! 1. **Structural extraction** — for every failing tester observation,
//!    collect the nets in the transition-active fan-in cones of the
//!    (possibly compaction-ambiguous) observation points; intersect across
//!    observations (with a coverage-based fallback for multi-fault logs).
//! 2. **Match scoring** — expand suspect nets to pin-level TDF candidates,
//!    fault-simulate each, compact the simulated failures the same way the
//!    tester did, and score by TFSF/TFSP/TPSF agreement. A screen on the
//!    log's failing patterns fixes each candidate's TFSF first; only a
//!    candidate that could be kept is simulated on the full pattern set
//!    for its TPSF.
//! 3. **Ranking** — exact log matches first (the defect's equivalence
//!    class), then strong partial matches, capped at a report limit.

use crate::report::{Candidate, DiagnosisReport};
use m3d_netlist::{NetId, PinRef, ScanChains};
use m3d_sim::{Detection, FailureLog, FaultSimulator, Polarity, Tdf};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Diagnosis tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagnosisConfig {
    /// Hard cap on report length.
    pub max_candidates: usize,
    /// Keep partial matches explaining at least this fraction of the
    /// failing observations.
    pub partial_floor: f64,
    /// Multi-fault fallback: when the cone intersection is empty, keep nets
    /// appearing in at least this fraction of per-observation suspect sets.
    pub coverage_floor: f64,
}

impl Default for DiagnosisConfig {
    fn default() -> Self {
        DiagnosisConfig {
            max_candidates: 50,
            partial_floor: 0.3,
            coverage_floor: 0.3,
        }
    }
}

/// The emulated commercial diagnosis tool.
#[derive(Debug)]
pub struct AtpgDiagnosis<'a, 'b> {
    fsim: &'b FaultSimulator<'a>,
    chains: Option<&'b ScanChains>,
    cfg: DiagnosisConfig,
}

impl<'a, 'b> AtpgDiagnosis<'a, 'b> {
    /// Creates a diagnosis engine. Pass `chains` when (and only when) the
    /// failure logs were captured through the response compactor.
    pub fn new(
        fsim: &'b FaultSimulator<'a>,
        chains: Option<&'b ScanChains>,
        cfg: DiagnosisConfig,
    ) -> Self {
        AtpgDiagnosis { fsim, chains, cfg }
    }

    /// Whether this engine operates on compacted failure logs.
    pub fn compacted(&self) -> bool {
        self.chains.is_some()
    }

    /// Produces a ranked diagnosis report for `log`.
    ///
    /// Multiple-defect logs are handled the way commercial tools do it:
    /// diagnose, subtract the failures the best candidate explains (its
    /// full simulation, kept from scoring), and re-diagnose the residual
    /// log, so every defect's sensitized path appears in the report
    /// (bounded recursion; single-fault logs never recurse because their
    /// head candidate explains everything).
    ///
    /// Adds the candidates scored and those fault-simulated in full, over
    /// every residual pass, to the `diagnosis.candidates` and
    /// `diagnosis.candidates_simulated` counters.
    pub fn diagnose(&self, log: &FailureLog) -> DiagnosisReport {
        let _span = m3d_obs::span!("diagnosis.diagnose");
        let mut work = ScoreWork::default();
        let report = self.diagnose_residual(log, 0, &mut work);
        m3d_obs::counter!("diagnosis.candidates", work.candidates);
        m3d_obs::counter!("diagnosis.candidates_simulated", work.simulated);
        report
    }

    fn diagnose_residual(
        &self,
        log: &FailureLog,
        depth: usize,
        work: &mut ScoreWork,
    ) -> DiagnosisReport {
        if log.is_empty() {
            return DiagnosisReport::default();
        }
        let nets = self.structural_candidates(log);
        let faults = self.expand_to_faults(&nets);
        let (mut report, head_log) = self.score_and_rank(log, faults, work);

        // Residual pass: if the head candidate leaves a meaningful share of
        // the failures unexplained, another defect is present.
        if depth < 4 {
            if let Some(explained) = head_log {
                let mut residual = Vec::new();
                merge_count(log.entries(), explained.entries(), |e| residual.push(e));
                let sizable = residual.len() >= 2
                    && residual.len() < log.len()
                    && (residual.len() as f64) >= 0.15 * log.len() as f64;
                if sizable {
                    let sub = self.diagnose_residual(&FailureLog::new(residual), depth + 1, work);
                    let mut seen: BTreeSet<Tdf> =
                        report.candidates().iter().map(|c| c.fault).collect();
                    for c in sub.candidates() {
                        if seen.insert(c.fault) {
                            report.candidates_mut().push(*c);
                        }
                    }
                    report
                        .candidates_mut()
                        .truncate(self.cfg.max_candidates * (depth + 2));
                }
            }
        }
        report
    }

    /// Phase 1: suspect nets via transition-active cone intersection.
    ///
    /// An entry's suspects are the nets driven inside the fan-in cones of
    /// its candidate observers that transition under its pattern; the
    /// result is the nets every entry suspects, or failing that the nets
    /// at least `coverage_floor` of the entries suspect, in ascending
    /// [`NetId`] order. Each distinct observer's cone is walked once per
    /// call, over the simulator's flattened netlist.
    ///
    /// Corrupt log entries (pattern numbers at or past
    /// [`PatternSet::len`](m3d_sim::PatternSet::len), the padding lanes of
    /// the last pattern word included, or out-of-range observation points
    /// — tester logs are untrusted input) contribute no suspects:
    /// they are skipped with a `diagnosis.dropped.*` counter and a warning
    /// instead of panicking, and do not count toward the intersection
    /// support either.
    pub fn structural_candidates(&self, log: &FailureLog) -> Vec<NetId> {
        let nl = self.fsim.netlist();
        let sim = self.fsim.sim();
        let n_patterns = sim.pattern_count();
        // Per observer: the nets driven inside its fan-in cone, walked on
        // first use.
        let mut cones: Vec<Option<Vec<NetId>>> = vec![None; self.fsim.obs().len()];
        let mut walker = self.fsim.fanin_cones();
        // Per net: how many entries suspect it, and the 1-based number of
        // the last entry that counted it.
        let mut counts = vec![0u32; nl.net_count()];
        let mut mark = vec![0u32; nl.net_count()];
        let mut used = 0u32;
        for entry in log.entries() {
            if entry.pattern as usize >= n_patterns {
                m3d_obs::counter!("diagnosis.dropped.pattern_out_of_range", 1);
                m3d_obs::warn!(
                    "diagnosis: dropping failure entry with pattern {} (only {n_patterns} \
                     patterns applied; corrupt log?)",
                    entry.pattern
                );
                continue;
            }
            let observers = FailureLog::candidate_observers(entry, self.fsim.obs(), self.chains);
            if observers.is_empty() {
                // Already counted and warned by `candidate_observers`; a
                // phantom entry must not raise the intersection bar for
                // the healthy entries.
                continue;
            }
            used += 1;
            let (w, bit) = (entry.pattern as usize / 64, entry.pattern % 64);
            let (v1, v2) = (sim.v1_row(w), sim.v2_row(w));
            for obs_id in observers {
                let cone = cones[obs_id.index()]
                    .get_or_insert_with(|| walker.nets(self.fsim.obs().point(obs_id).net));
                for &net in cone.iter() {
                    let n = net.index();
                    if mark[n] != used && ((v1[n] ^ v2[n]) >> bit) & 1 == 1 {
                        mark[n] = used;
                        counts[n] += 1;
                    }
                }
            }
        }
        if used == 0 {
            // Every count would equal `used`: no entry, no suspects.
            return Vec::new();
        }
        let exact = nets_where(&counts, |c| c == used);
        if !exact.is_empty() {
            return exact;
        }
        // Multi-fault fallback: nets explaining a meaningful share of the
        // failures.
        let floor = ((used as f64) * self.cfg.coverage_floor).ceil() as u32;
        nets_where(&counts, |c| c >= floor.max(1))
    }

    /// Phase 2a: expand nets to pin-level TDF candidates.
    fn expand_to_faults(&self, nets: &[NetId]) -> Vec<Tdf> {
        let nl = self.fsim.netlist();
        let mut out = Vec::new();
        for &net in nets {
            let record = nl.net(net);
            let mut pins: Vec<PinRef> = Vec::with_capacity(record.loads.len() + 1);
            if let Some(drv) = record.driver {
                pins.push(PinRef::output(drv));
            }
            for &(g, k) in &record.loads {
                pins.push(PinRef::input(g, k));
            }
            for pin in pins {
                for pol in Polarity::BOTH {
                    out.push(Tdf::new(pin, pol));
                }
            }
        }
        out
    }

    /// Phase 2b/3: score candidates against the tester log and rank.
    ///
    /// Each candidate is first simulated on the log's failing patterns
    /// only. Compaction folds per pattern, so that log holds every
    /// predicted failure on those patterns and its overlap with the tester
    /// log is the final TFSF. Only a candidate that could then be kept — an
    /// exact match (TFSF equals the log's length) or a partial match over
    /// the floor — is simulated in full for its TPSF. Returns the report
    /// and, when it is not empty, the full simulated log of its head
    /// candidate, which the residual pass subtracts.
    fn score_and_rank(
        &self,
        log: &FailureLog,
        faults: Vec<Tdf>,
        work: &mut ScoreWork,
    ) -> (DiagnosisReport, Option<FailureLog>) {
        let nl = self.fsim.netlist();
        let observed = log.entries();
        let n_obs = observed.len() as f64;
        let mut failing = vec![0u64; self.fsim.patterns().word_count()];
        for e in observed {
            if let Some(word) = failing.get_mut(e.pattern as usize / 64) {
                *word |= 1 << (e.pattern % 64);
            }
        }
        work.candidates += faults.len() as u64;
        let mut scored: Vec<Candidate> = Vec::new();
        let mut head: Option<(Candidate, FailureLog)> = None;
        for fault in faults {
            // Candidates from `expand_to_faults` always resolve, but
            // `simulate_log` is public and external fault lists may carry
            // dangling sites — skip them instead of panicking downstream.
            if nl.pin_net(fault.site).is_none() {
                m3d_obs::counter!("diagnosis.dropped.dangling_site", 1);
                m3d_obs::warn!("diagnosis: skipping candidate {fault}: site resolves to no net");
                continue;
            }
            let screened = self.fold(&self.fsim.simulate_masked(&[fault], &failing));
            let tfsf = merge_count(observed, screened.entries(), |_| {});
            let partial = f64::from(tfsf as u32) >= self.cfg.partial_floor * n_obs;
            if tfsf == 0 || !(tfsf == observed.len() || partial) {
                continue;
            }
            work.simulated += 1;
            let predicted = self.simulate_log(&[fault]);
            let cand = Candidate {
                fault,
                tfsf: tfsf as u32,
                tfsp: (observed.len() - tfsf) as u32,
                tpsf: (predicted.len() - tfsf) as u32,
            };
            if cand.is_exact() || partial {
                if head
                    .as_ref()
                    .is_none_or(|(h, _)| rank_order(&cand, h).is_lt())
                {
                    head = Some((cand, predicted));
                }
                scored.push(cand);
            }
        }
        let report = rank(scored, self.cfg.max_candidates);
        let head_log = head
            .filter(|(h, _)| report.candidates().first() == Some(h))
            .map(|(_, log)| log);
        (report, head_log)
    }

    /// Simulates a fault list into a failure log in the same observation
    /// mode (compacted or bypass) as the tester.
    pub fn simulate_log(&self, faults: &[Tdf]) -> FailureLog {
        self.fold(&self.fsim.simulate(faults))
    }

    /// Folds detections into a failure log the way the tester observes.
    fn fold(&self, detections: &[Detection]) -> FailureLog {
        match self.chains {
            Some(chains) => FailureLog::compacted(detections, self.fsim.obs(), chains),
            None => FailureLog::uncompacted(detections),
        }
    }
}

/// Candidate-scoring work of one [`AtpgDiagnosis::diagnose`] call,
/// accumulated locally and added to the registry once.
#[derive(Debug, Default)]
struct ScoreWork {
    /// Candidates scored.
    candidates: u64,
    /// Candidates that passed the failing-pattern screen and were
    /// simulated on every pattern.
    simulated: u64,
}

/// Ranks scored candidates and caps the report at `max_candidates`.
///
/// Transition faults are small-delay defects: a candidate predicting
/// *more* failures than observed (TPSF) is entirely plausible — the extra
/// paths simply had slack — so commercial tools rank by the
/// explained-failure count and report the whole tied sensitized-path
/// class, not a fine-grained match order. Ties break by site order (the
/// deterministic listing order of a path-tracing tool).
fn rank(mut scored: Vec<Candidate>, max_candidates: usize) -> DiagnosisReport {
    scored.sort_by(rank_order);
    scored.truncate(max_candidates);
    DiagnosisReport::new(scored)
}

/// The report order of [`rank`]: more explained failures first, then fewer
/// unexplained ones, then site order.
fn rank_order(a: &Candidate, b: &Candidate) -> Ordering {
    b.tfsf
        .cmp(&a.tfsf)
        .then_with(|| a.tfsp.cmp(&b.tfsp))
        .then_with(|| a.fault.cmp(&b.fault))
}

/// The nets whose count passes `keep`, in ascending [`NetId`] order.
fn nets_where(counts: &[u32], keep: impl Fn(u32) -> bool) -> Vec<NetId> {
    (0..counts.len())
        .filter(|&n| keep(counts[n]))
        .map(|n| NetId(n as u32))
        .collect()
}

/// Walks two sorted, deduplicated slices in step: calls `only_a` on each
/// element of `a` missing from `b`, in order, and returns how many
/// elements they share.
fn merge_count<T: Ord + Copy>(a: &[T], b: &[T], mut only_a: impl FnMut(T)) -> usize {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() {
        match b.get(j).map(|y| a[i].cmp(y)) {
            Some(Ordering::Greater) => j += 1,
            Some(Ordering::Equal) => {
                shared += 1;
                i += 1;
                j += 1;
            }
            Some(Ordering::Less) | None => {
                only_a(a[i]);
                i += 1;
            }
        }
    }
    shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{generate, topo, GeneratorConfig, Netlist};
    use m3d_sim::{generate_patterns, tdf_list, AtpgConfig, FailEntry, ObsId, PatternSet};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    struct Fixture {
        nl: Netlist,
        pats: PatternSet,
    }

    fn fixture() -> Fixture {
        let nl = generate(&GeneratorConfig {
            n_comb_gates: 300,
            n_flops: 40,
            n_inputs: 16,
            n_outputs: 8,
            target_depth: 8,
            ..GeneratorConfig::default()
        });
        let atpg = generate_patterns(
            &nl,
            &AtpgConfig {
                fault_sample: Some(600),
                max_rounds: 6,
                ..AtpgConfig::default()
            },
        );
        Fixture {
            nl,
            pats: atpg.patterns,
        }
    }

    fn detectable_faults(fsim: &FaultSimulator<'_>, n: usize, stride: usize) -> Vec<Tdf> {
        tdf_list(fsim.netlist())
            .into_iter()
            .step_by(stride)
            .filter(|f| fsim.detects(std::slice::from_ref(f)))
            .take(n)
            .collect()
    }

    #[test]
    fn diagnosis_finds_injected_fault_uncompacted() {
        let fx = fixture();
        let fsim = FaultSimulator::new(&fx.nl, &fx.pats);
        let diag = AtpgDiagnosis::new(&fsim, None, DiagnosisConfig::default());
        let mut hits = 0;
        let faults = detectable_faults(&fsim, 12, 17);
        assert!(!faults.is_empty());
        let n = faults.len();
        for f in faults {
            let log = diag.simulate_log(&[f]);
            let report = diag.diagnose(&log);
            assert!(report.resolution() >= 1);
            if report.hits_any(&[f.site]) {
                hits += 1;
                // The injected fault reproduces its own (unmasked) log
                // exactly, so an exact match must appear in the report and
                // the head must explain every failure.
                assert!(report.candidates().iter().any(Candidate::is_exact));
                assert_eq!(
                    report.candidates()[0].tfsf as usize,
                    log.len(),
                    "head explains all fails"
                );
            }
        }
        assert_eq!(hits, n, "every injected fault must be diagnosed");
    }

    #[test]
    fn compacted_diagnosis_has_worse_or_equal_resolution() {
        let fx = fixture();
        let chains = ScanChains::stitch(&fx.nl, 8, 4);
        let fsim = FaultSimulator::new(&fx.nl, &fx.pats);
        let diag_u = AtpgDiagnosis::new(&fsim, None, DiagnosisConfig::default());
        let diag_c = AtpgDiagnosis::new(&fsim, Some(&chains), DiagnosisConfig::default());
        let mut worse = 0usize;
        let mut total = 0usize;
        for f in detectable_faults(&fsim, 10, 23) {
            let ru = diag_u.diagnose(&diag_u.simulate_log(&[f]));
            let rc = diag_c.diagnose(&diag_c.simulate_log(&[f]));
            if rc.resolution() >= ru.resolution() {
                worse += 1;
            }
            total += 1;
        }
        assert!(
            worse * 10 >= total * 7,
            "compaction should usually not improve resolution ({worse}/{total})"
        );
    }

    #[test]
    fn empty_log_gives_empty_report() {
        let fx = fixture();
        let fsim = FaultSimulator::new(&fx.nl, &fx.pats);
        let diag = AtpgDiagnosis::new(&fsim, None, DiagnosisConfig::default());
        assert_eq!(diag.diagnose(&FailureLog::default()).resolution(), 0);
    }

    #[test]
    fn structural_candidates_contain_fault_net() {
        let fx = fixture();
        let fsim = FaultSimulator::new(&fx.nl, &fx.pats);
        let diag = AtpgDiagnosis::new(&fsim, None, DiagnosisConfig::default());
        for f in detectable_faults(&fsim, 8, 31) {
            let log = diag.simulate_log(&[f]);
            let nets = diag.structural_candidates(&log);
            let site_net = fx
                .nl
                .pin_net(f.site)
                .expect("tdf_list sites resolve to nets");
            assert!(
                nets.contains(&site_net),
                "suspects must include the defect net for {f}"
            );
        }
    }

    #[test]
    fn corrupt_log_entries_are_skipped_not_fatal() {
        use m3d_sim::{FailObs, ObsId};
        let fx = fixture();
        let fsim = FaultSimulator::new(&fx.nl, &fx.pats);
        let diag = AtpgDiagnosis::new(&fsim, None, DiagnosisConfig::default());
        let f = detectable_faults(&fsim, 1, 17)[0];
        let clean = diag.simulate_log(&[f]);
        let clean_report = diag.diagnose(&clean);
        // Corruption on top of a healthy log: a pattern beyond the
        // simulated range, a pattern in the last word's padding lanes (never
        // applied, yet its nets transition), an out-of-range observation
        // id, and a channel entry reaching a bypass-mode (chain-less)
        // diagnosis.
        assert_ne!(fx.pats.len() % 64, 0, "the fixture needs padding lanes");
        let mut entries = clean.entries().to_vec();
        entries.push(FailEntry {
            pattern: u32::MAX - 1,
            obs: entries[0].obs,
        });
        entries.push(FailEntry {
            pattern: fx.pats.len() as u32,
            obs: entries[0].obs,
        });
        entries.push(FailEntry {
            pattern: 0,
            obs: FailObs::Direct(ObsId(9_999_999)),
        });
        entries.push(FailEntry {
            pattern: 0,
            obs: FailObs::Channel {
                channel: 7,
                position: 3,
            },
        });
        let corrupt = FailureLog::new(entries);
        let report = diag.diagnose(&corrupt);
        // The phantom entries contribute nothing; the healthy entries
        // still localize the injected fault.
        assert_eq!(
            diag.structural_candidates(&corrupt),
            diag.structural_candidates(&clean),
            "corrupt entries must not change the suspects"
        );
        assert!(report.hits_any(&[f.site]));
        assert_eq!(
            report.candidates()[0].fault,
            clean_report.candidates()[0].fault,
            "corrupt entries must not change the head candidate"
        );
    }

    #[test]
    fn multi_fault_log_produces_candidates() {
        let fx = fixture();
        let fsim = FaultSimulator::new(&fx.nl, &fx.pats);
        let diag = AtpgDiagnosis::new(&fsim, None, DiagnosisConfig::default());
        let faults = detectable_faults(&fsim, 3, 41);
        let log = diag.simulate_log(&faults);
        let report = diag.diagnose(&log);
        assert!(report.resolution() > 0, "multi-fault fallback must fire");
    }

    #[test]
    fn report_is_capped() {
        let fx = fixture();
        let fsim = FaultSimulator::new(&fx.nl, &fx.pats);
        let cfg = DiagnosisConfig {
            max_candidates: 3,
            ..DiagnosisConfig::default()
        };
        let diag = AtpgDiagnosis::new(&fsim, None, cfg);
        for f in detectable_faults(&fsim, 5, 29) {
            let report = diag.diagnose(&diag.simulate_log(&[f]));
            assert!(report.resolution() <= 3);
        }
    }

    /// Phase 1 as first written: a fresh fan-in BFS per (entry, observer),
    /// suspects in a `BTreeSet`, support in a `BTreeMap`. Also says whether
    /// the coverage-floor fallback produced the answer.
    fn reference_structural_candidates(
        diag: &AtpgDiagnosis<'_, '_>,
        log: &FailureLog,
    ) -> (Vec<NetId>, bool) {
        let nl = diag.fsim.netlist();
        let sim = diag.fsim.sim();
        let mut counts: BTreeMap<NetId, u32> = BTreeMap::new();
        let mut used = 0u32;
        for entry in log.entries() {
            if entry.pattern as usize >= diag.fsim.patterns().len() {
                continue;
            }
            let observers = FailureLog::candidate_observers(entry, diag.fsim.obs(), diag.chains);
            if observers.is_empty() {
                continue;
            }
            let mut suspects: BTreeSet<NetId> = BTreeSet::new();
            for obs_id in observers {
                let watched = diag.fsim.obs().point(obs_id).net;
                for (g, _) in topo::net_fanin_cone(nl, watched) {
                    if let Some(out) = nl.gate(g).output {
                        if sim.net_transition(out, entry.pattern as usize) {
                            suspects.insert(out);
                        }
                    }
                }
            }
            used += 1;
            for n in suspects {
                *counts.entry(n).or_insert(0) += 1;
            }
        }
        let exact: Vec<NetId> = counts
            .iter()
            .filter(|&(_, &c)| c == used)
            .map(|(&n, _)| n)
            .collect();
        if !exact.is_empty() {
            return (exact, false);
        }
        let floor = ((used as f64) * diag.cfg.coverage_floor).ceil() as u32;
        let fallback = counts
            .into_iter()
            .filter(|&(_, c)| c >= floor.max(1))
            .map(|(n, _)| n)
            .collect();
        (fallback, true)
    }

    #[test]
    fn structural_candidates_match_reference() {
        let fx = fixture();
        let chains = ScanChains::stitch(&fx.nl, 8, 4);
        let fsim = FaultSimulator::new(&fx.nl, &fx.pats);
        let mut floor_cases = 0;
        for chains in [None, Some(&chains)] {
            let diag = AtpgDiagnosis::new(&fsim, chains, DiagnosisConfig::default());
            let singles = detectable_faults(&fsim, 10, 19);
            let mut logs: Vec<FailureLog> =
                singles.iter().map(|f| diag.simulate_log(&[*f])).collect();
            // Multi-fault logs: sites far apart rarely share a suspect, so
            // some of them take the coverage-floor branch.
            for k in 0..6 {
                let faults = detectable_faults(&fsim, 2 + k % 3, 37 + 13 * k);
                logs.push(diag.simulate_log(&faults));
            }
            // A healthy log with corrupt entries riding along, one of them
            // in the last pattern word's padding lanes.
            let mut entries = logs[0].entries().to_vec();
            entries.push(FailEntry {
                pattern: u32::MAX - 1,
                obs: entries[0].obs,
            });
            entries.push(FailEntry {
                pattern: fx.pats.len() as u32,
                obs: entries[0].obs,
            });
            entries.push(FailEntry {
                pattern: 0,
                obs: m3d_sim::FailObs::Direct(ObsId(9_999_999)),
            });
            logs.push(FailureLog::new(entries));
            logs.push(FailureLog::default());
            for (i, log) in logs.iter().enumerate() {
                let (want, floor) = reference_structural_candidates(&diag, log);
                assert_eq!(
                    diag.structural_candidates(log),
                    want,
                    "log {i}, compacted {}",
                    chains.is_some()
                );
                floor_cases += usize::from(floor && !want.is_empty());
            }
        }
        assert!(floor_cases > 0, "no log exercised the coverage floor");
    }

    /// Phase 2b/3 as first written: every candidate fault-simulated on the
    /// full pattern set, with no failing-pattern screen.
    fn reference_score_and_rank(
        diag: &AtpgDiagnosis<'_, '_>,
        log: &FailureLog,
        faults: &[Tdf],
    ) -> DiagnosisReport {
        let observed = log.entries();
        let n_obs = observed.len() as f64;
        let mut scored = Vec::new();
        for &fault in faults {
            if diag.fsim.netlist().pin_net(fault.site).is_none() {
                continue;
            }
            let sim_log = diag.simulate_log(&[fault]);
            let predicted = sim_log.entries();
            let tfsf = merge_count(observed, predicted, |_| {});
            if tfsf == 0 {
                continue;
            }
            let cand = Candidate {
                fault,
                tfsf: tfsf as u32,
                tfsp: (observed.len() - tfsf) as u32,
                tpsf: (predicted.len() - tfsf) as u32,
            };
            if cand.is_exact() || f64::from(cand.tfsf) >= diag.cfg.partial_floor * n_obs {
                scored.push(cand);
            }
        }
        rank(scored, diag.cfg.max_candidates)
    }

    #[test]
    fn screened_scoring_matches_reference() {
        let fx = fixture();
        let chains = ScanChains::stitch(&fx.nl, 8, 4);
        let fsim = FaultSimulator::new(&fx.nl, &fx.pats);
        let singles = detectable_faults(&fsim, 8, 19);
        let mut floor_cases = 0;
        for chains in [None, Some(&chains)] {
            for partial_floor in [0.0, 0.3, 1.5] {
                let cfg = DiagnosisConfig {
                    partial_floor,
                    ..DiagnosisConfig::default()
                };
                let diag = AtpgDiagnosis::new(&fsim, chains, cfg);
                let what = format!("floor {partial_floor}, compacted {}", chains.is_some());
                let mut logs: Vec<FailureLog> =
                    singles.iter().map(|f| diag.simulate_log(&[*f])).collect();
                for k in 0..4 {
                    let faults = detectable_faults(&fsim, 2 + k % 3, 37 + 13 * k);
                    logs.push(diag.simulate_log(&faults));
                }
                let mut entries = logs[0].entries().to_vec();
                entries.push(FailEntry {
                    pattern: u32::MAX - 1,
                    obs: entries[0].obs,
                });
                entries.push(FailEntry {
                    pattern: fx.pats.len() as u32,
                    obs: entries[0].obs,
                });
                entries.push(FailEntry {
                    pattern: 0,
                    obs: m3d_sim::FailObs::Direct(ObsId(9_999_999)),
                });
                logs.push(FailureLog::new(entries));
                logs.push(FailureLog::default());
                let mut work = ScoreWork::default();
                for (i, log) in logs.iter().enumerate() {
                    // The empty log is scored against the first log's
                    // candidates: none may match it.
                    let suspects =
                        diag.structural_candidates(if log.is_empty() { &logs[0] } else { log });
                    let faults = diag.expand_to_faults(&suspects);
                    let (_, floor) = reference_structural_candidates(&diag, log);
                    floor_cases += usize::from(floor && !suspects.is_empty());
                    let (report, head_log) = diag.score_and_rank(log, faults.clone(), &mut work);
                    assert_eq!(
                        report,
                        reference_score_and_rank(&diag, log, &faults),
                        "{what}, log {i}"
                    );
                    assert_eq!(
                        head_log,
                        report
                            .candidates()
                            .first()
                            .map(|h| diag.simulate_log(&[h.fault])),
                        "{what}, log {i}: head log"
                    );
                    if i < singles.len() {
                        // The injected fault reproduces its own log, so an
                        // exact match survives every floor.
                        assert!(
                            report.candidates().iter().any(Candidate::is_exact),
                            "{what}, log {i}: exact match dropped"
                        );
                    }
                }
                assert!(
                    work.simulated < work.candidates,
                    "{what}: the screen simulated all {} candidates",
                    work.candidates
                );
            }
        }
        assert!(floor_cases > 0, "no log exercised the coverage floor");
    }

    /// `diagnose` as first written: the reference phases, and a fresh full
    /// simulation of the head candidate for the residual pass. Counts the
    /// residual passes it takes in `residuals`.
    fn reference_diagnose(
        diag: &AtpgDiagnosis<'_, '_>,
        log: &FailureLog,
        depth: usize,
        residuals: &mut usize,
    ) -> DiagnosisReport {
        if log.is_empty() {
            return DiagnosisReport::default();
        }
        let (nets, _) = reference_structural_candidates(diag, log);
        let faults = diag.expand_to_faults(&nets);
        let mut report = reference_score_and_rank(diag, log, &faults);
        if depth < 4 {
            if let Some(head) = report.candidates().first().copied() {
                let explained = diag.simulate_log(&[head.fault]);
                let residual: Vec<FailEntry> = log
                    .entries()
                    .iter()
                    .filter(|e| !explained.entries().contains(e))
                    .copied()
                    .collect();
                let sizable = residual.len() >= 2
                    && residual.len() < log.len()
                    && (residual.len() as f64) >= 0.15 * log.len() as f64;
                if sizable {
                    *residuals += 1;
                    let sub =
                        reference_diagnose(diag, &FailureLog::new(residual), depth + 1, residuals);
                    let mut seen: BTreeSet<Tdf> =
                        report.candidates().iter().map(|c| c.fault).collect();
                    for c in sub.candidates() {
                        if seen.insert(c.fault) {
                            report.candidates_mut().push(*c);
                        }
                    }
                    report
                        .candidates_mut()
                        .truncate(diag.cfg.max_candidates * (depth + 2));
                }
            }
        }
        report
    }

    #[test]
    fn diagnose_matches_reference_through_residual_passes() {
        let fx = fixture();
        let chains = ScanChains::stitch(&fx.nl, 8, 4);
        let fsim = FaultSimulator::new(&fx.nl, &fx.pats);
        let mut residuals = 0;
        for chains in [None, Some(&chains)] {
            let diag = AtpgDiagnosis::new(&fsim, chains, DiagnosisConfig::default());
            for k in 0..8 {
                let faults = detectable_faults(&fsim, 2 + k % 3, 29 + 11 * k);
                let log = diag.simulate_log(&faults);
                assert_eq!(
                    diag.diagnose(&log),
                    reference_diagnose(&diag, &log, 0, &mut residuals),
                    "{} faults, compacted {}",
                    faults.len(),
                    chains.is_some()
                );
            }
        }
        assert!(residuals > 0, "no log took the residual branch");
    }

    fn sorted_set() -> impl Strategy<Value = Vec<u16>> {
        proptest::collection::vec(0u16..200, 0..60).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The merge counts what `BTreeSet` intersection counts and emits
        /// what its difference yields, in order.
        #[test]
        fn merge_count_matches_btree_sets(a in sorted_set(), b in sorted_set()) {
            let (sa, sb): (BTreeSet<u16>, BTreeSet<u16>) =
                (a.iter().copied().collect(), b.iter().copied().collect());
            let mut only_a = Vec::new();
            let shared = merge_count(&a, &b, |x| only_a.push(x));
            prop_assert_eq!(shared, sa.intersection(&sb).count());
            prop_assert_eq!(only_a, sa.difference(&sb).copied().collect::<Vec<_>>());
            prop_assert_eq!(b.len() - shared, sb.difference(&sa).count());
        }
    }
}
