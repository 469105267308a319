//! The back-tracing algorithm of Fig. 3.
//!
//! For every erroneous tester response, collect the Topnodes that could
//! have captured it (one in bypass mode; the chain-group ambiguity set
//! under compaction), take the union of the transition-active nodes in
//! their fan-in cones, and intersect across responses. The surviving nodes
//! form a homogeneous subgraph whose node features (Table II) feed the GNN
//! models.
//!
//! Multi-fault logs make a strict intersection empty (each response is
//! explained by only one of the faults), so the implementation counts
//! response support per node and keeps nodes supported by at least
//! `keep_frac` of the maximum support — `keep_frac = 1.0` is exactly the
//! paper's intersection for single faults.
//!
//! Cones and transition activity are both node bitmaps (the cone rows of
//! [`HeteroGraph`] and the per-pattern rows of [`PatternActivity`]), so
//! one entry costs an OR over its observers' rows, an AND with its
//! pattern's row, and one support increment per surviving node.
//! [`reference_backtrace`] is the plain graph-walking definition the
//! bitmap path is tested against.

use crate::features::{
    local_degree_feature, FeatureExtractor, F_FANIN_SUB, F_FANOUT_SUB, N_FEATURES,
};
use crate::hetero::{HNodeId, HNodeKind, HeteroGraph};
use m3d_gnn::{Graph, Matrix, NormAdj};
use m3d_netlist::{PinRef, ScanChains};
use m3d_part::MivId;
use m3d_sim::{FailureLog, ObsId, ObsPoints, PatternSim};
use std::collections::{HashMap, HashSet, VecDeque};

/// Back-tracing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BacktraceConfig {
    /// Keep nodes supported by at least this fraction of the maximum
    /// response support (1.0 = strict intersection).
    pub keep_frac: f64,
    /// Hard cap on subgraph size (highest-support nodes win).
    pub max_nodes: usize,
}

impl Default for BacktraceConfig {
    fn default() -> Self {
        BacktraceConfig {
            keep_frac: 1.0,
            max_nodes: 600,
        }
    }
}

/// Transition activity as one node bitmap per applied pattern: bit `n`
/// of row `p` is set iff node `n`'s net switches between V1 and V2 under
/// pattern `p` — the only nodes that can launch a delay fault that
/// pattern detects. Rows span [`PatternSim::pattern_count`] slots: the
/// padding lanes of the last pattern word were never applied, so a log
/// entry naming one is out of range.
#[derive(Debug, Clone)]
pub struct PatternActivity {
    words: usize,
    slots: usize,
    rows: Vec<u64>,
}

impl PatternActivity {
    /// Marks every node of `hetero` under every pattern of `sim`.
    pub fn build(hetero: &HeteroGraph, sim: &PatternSim) -> Self {
        let words = hetero.row_words();
        let slots = sim.pattern_count();
        let mut rows = vec![0u64; slots * words];
        for w in 0..sim.word_count() {
            let live = (slots - w * 64).min(64);
            let lanes = if live == 64 {
                u64::MAX
            } else {
                (1 << live) - 1
            };
            for i in 0..hetero.node_count() {
                let Some(net) = hetero.net_of(HNodeId(i as u32)) else {
                    continue;
                };
                let mut t = sim.transitions(w, net) & lanes;
                while t != 0 {
                    let p = w * 64 + t.trailing_zeros() as usize;
                    rows[p * words + i / 64] |= 1 << (i % 64);
                    t &= t - 1;
                }
            }
        }
        PatternActivity { words, slots, rows }
    }

    /// Number of pattern slots (the number of patterns applied).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The active-node row of `pattern`, or `None` past the applied
    /// patterns (a pattern number from a corrupt log).
    pub fn row(&self, pattern: usize) -> Option<&[u64]> {
        (pattern < self.slots).then(|| &self.rows[pattern * self.words..(pattern + 1) * self.words])
    }
}

/// Work counters of one [`backtrace`] call, carried on the resulting
/// [`Subgraph`] so per-diagnosis audits can report how the subgraph was
/// produced (the `backtrace.*` counters aggregate the same numbers
/// run-wide).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BacktraceStats {
    /// Cone members screened for transition activity: the summed cone
    /// sizes of every candidate observer of every in-range entry.
    pub activity_checks: u64,
    /// Failure entries dropped for out-of-range pattern numbers.
    pub dropped_patterns: u64,
}

/// A back-traced homogeneous subgraph ready for the GNN models.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// The heterogeneous-graph nodes included, ascending.
    pub nodes: Vec<HNodeId>,
    /// Normalized adjacency over the induced circuit-level edges (its
    /// neighbor lists rebuild the edge structure; see
    /// [`NormAdj::neighbors`]).
    pub adj: NormAdj,
    /// Node features (`n × 13`, Table II).
    pub x: Matrix,
    /// Rows that are MIV nodes.
    pub miv_rows: Vec<(usize, MivId)>,
    /// Work counters of the backtrace that produced this subgraph (zeros
    /// for synthetic subgraphs built outside [`backtrace`]).
    pub stats: BacktraceStats,
}

impl Subgraph {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` for the empty subgraph (empty failure log).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Runs back-tracing on a failure log. Pass `chains` iff the log was
/// captured through the response compactor; `activity` must be built
/// from the same graph and the simulation the log's patterns index.
pub fn backtrace(
    hetero: &HeteroGraph,
    features: &FeatureExtractor,
    activity: &PatternActivity,
    obs: &ObsPoints,
    chains: Option<&ScanChains>,
    log: &FailureLog,
    cfg: &BacktraceConfig,
) -> Subgraph {
    let _span = m3d_obs::span!("backtrace");
    let mut support = vec![0u32; hetero.node_count()];
    let mut union = vec![0u64; hetero.row_words()];
    let mut stats = BacktraceStats::default();
    for entry in log.entries() {
        // Tester logs are untrusted input: a pattern number beyond the
        // simulated range cannot be screened for transition activity, so
        // the entry is dropped (counted below).
        let Some(active) = activity.row(entry.pattern as usize) else {
            stats.dropped_patterns += 1;
            continue;
        };
        let observers = FailureLog::candidate_observers(entry, obs, chains);
        let Some((&first, rest)) = observers.split_first() else {
            continue;
        };
        union.copy_from_slice(hetero.cone(first));
        for &o in rest {
            for (u, &c) in union.iter_mut().zip(hetero.cone(o)) {
                *u |= c;
            }
        }
        stats.activity_checks += observers.iter().map(|&o| hetero.cone_size(o)).sum::<u64>();
        for (w, (&u, &a)) in union.iter().zip(active).enumerate() {
            let mut bits = u & a;
            while bits != 0 {
                support[w * 64 + bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
        }
    }
    m3d_obs::counter!("backtrace.activity_checks", stats.activity_checks);
    report_dropped(stats.dropped_patterns, activity.slots());
    // Only nodes at or above the support floor can be selected: hand
    // `select` just those. It finds the same maximum, because the
    // best-supported node clears the floor whenever any node does.
    let max_support = support.iter().copied().max().unwrap_or(0);
    let floor = support_floor(max_support, cfg.keep_frac);
    let supported = support
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c >= floor)
        .map(|(i, c)| (HNodeId(i as u32), c));
    select(hetero, features, supported, cfg, stats)
}

fn report_dropped(dropped_patterns: u64, n_patterns: usize) {
    if dropped_patterns > 0 {
        m3d_obs::counter!("backtrace.dropped.pattern_out_of_range", dropped_patterns);
        m3d_obs::warn!(
            "backtrace: dropped {dropped_patterns} failure entries with pattern numbers \
             beyond the {n_patterns} applied patterns (corrupt log?)"
        );
    }
}

/// The least support a node needs to be selected: `keep_frac` of the best
/// support, rounded up, and at least 1.
fn support_floor(max_support: u32, keep_frac: f64) -> u32 {
    (f64::from(max_support) * keep_frac).ceil().max(1.0) as u32
}

/// The selection tail shared by both back-traces: keep nodes within
/// `keep_frac` of the best support, cap deterministically, and build the
/// subgraph. A pure function of the `node → support` multiset.
fn select(
    hetero: &HeteroGraph,
    features: &FeatureExtractor,
    supported: impl Iterator<Item = (HNodeId, u32)>,
    cfg: &BacktraceConfig,
    stats: BacktraceStats,
) -> Subgraph {
    let supported: Vec<(HNodeId, u32)> = supported.collect();
    let max_support = supported.iter().map(|&(_, c)| c).max().unwrap_or(0);
    if max_support == 0 {
        let mut sub = empty_subgraph();
        sub.stats = stats;
        return sub;
    }
    let floor = support_floor(max_support, cfg.keep_frac);
    let mut picked: Vec<(HNodeId, u32)> =
        supported.into_iter().filter(|&(_, c)| c >= floor).collect();
    // Cap deterministically: strongest support first, then node order.
    picked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    picked.truncate(cfg.max_nodes);
    let mut nodes: Vec<HNodeId> = picked.into_iter().map(|(n, _)| n).collect();
    nodes.sort_unstable();
    let mut sub = build_subgraph(hetero, features, nodes);
    sub.stats = stats;
    sub
}

/// The fan-in cone of observation point `id` by a plain FIFO reverse BFS:
/// `(node, distance, MIVs on the first shortest path found)` in visiting
/// order. The reference definition of the cone store and its Topedge
/// fold.
pub fn reference_cone(
    hetero: &HeteroGraph,
    obs: &ObsPoints,
    id: ObsId,
) -> Vec<(HNodeId, u16, u16)> {
    let start = hetero.pin_of(PinRef::input(obs.point(id).gate, 0));
    let mut dist = vec![u16::MAX; hetero.node_count()];
    let mut mivs = vec![0u16; hetero.node_count()];
    let mut out = Vec::new();
    let mut q = VecDeque::from([start]);
    dist[start.index()] = 0;
    while let Some(u) = q.pop_front() {
        let (d, m) = (dist[u.index()], mivs[u.index()]);
        out.push((u, d, m));
        for &v in hetero.predecessors(u) {
            let v = HNodeId(v);
            if dist[v.index()] == u16::MAX {
                dist[v.index()] = d + 1;
                mivs[v.index()] = m + u16::from(matches!(hetero.kind(v), HNodeKind::Miv(_)));
                q.push_back(v);
            }
        }
    }
    out
}

/// [`backtrace`] by definition — a [`reference_cone`] walk per entry and
/// candidate observer, screened through [`PatternSim::net_transition`]
/// into hash sets — for tests and probes to compare against. Emits the
/// same counters and warnings, apart from `backtrace.activity_checks`.
pub fn reference_backtrace(
    hetero: &HeteroGraph,
    features: &FeatureExtractor,
    sim: &PatternSim,
    obs: &ObsPoints,
    chains: Option<&ScanChains>,
    log: &FailureLog,
    cfg: &BacktraceConfig,
) -> Subgraph {
    let mut support: HashMap<HNodeId, u32> = HashMap::new();
    let mut stats = BacktraceStats::default();
    for entry in log.entries() {
        let pattern = entry.pattern as usize;
        if pattern >= sim.pattern_count() {
            stats.dropped_patterns += 1;
            continue;
        }
        let mut seen = HashSet::new();
        for o in FailureLog::candidate_observers(entry, obs, chains) {
            for (node, _, _) in reference_cone(hetero, obs, o) {
                if hetero
                    .net_of(node)
                    .is_some_and(|net| sim.net_transition(net, pattern))
                {
                    seen.insert(node);
                }
            }
        }
        for node in seen {
            *support.entry(node).or_insert(0) += 1;
        }
    }
    report_dropped(stats.dropped_patterns, sim.pattern_count());
    select(hetero, features, support.into_iter(), cfg, stats)
}

fn empty_subgraph() -> Subgraph {
    Subgraph {
        nodes: vec![],
        adj: Graph::new(0).normalize(true),
        x: Matrix::zeros(0, N_FEATURES),
        miv_rows: vec![],
        stats: BacktraceStats::default(),
    }
}

/// Builds the induced subgraph over `nodes` (sorted, deduplicated by the
/// caller) with Table II features.
pub fn build_subgraph(
    hetero: &HeteroGraph,
    features: &FeatureExtractor,
    nodes: Vec<HNodeId>,
) -> Subgraph {
    debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "sorted unique nodes");
    let index: HashMap<HNodeId, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut g = Graph::new(nodes.len());
    let mut fanin = vec![0usize; nodes.len()];
    let mut fanout = vec![0usize; nodes.len()];
    for (i, &n) in nodes.iter().enumerate() {
        for &succ in hetero.successors(n) {
            if let Some(&j) = index.get(&HNodeId(succ)) {
                g.add_edge(i as u32, j as u32);
                fanout[i] += 1;
                fanin[j] += 1;
            }
        }
    }
    let mut x = Matrix::zeros(nodes.len(), N_FEATURES);
    let mut miv_rows = Vec::new();
    for (i, &n) in nodes.iter().enumerate() {
        x.row_mut(i).copy_from_slice(features.node_row(n));
        x.set(i, F_FANIN_SUB, local_degree_feature(fanin[i]));
        x.set(i, F_FANOUT_SUB, local_degree_feature(fanout[i]));
        if let HNodeKind::Miv(m) = hetero.kind(n) {
            miv_rows.push((i, m));
        }
    }
    Subgraph {
        adj: g.normalize(true),
        nodes,
        x,
        miv_rows,
        stats: BacktraceStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{generate, GeneratorConfig};
    use m3d_part::{M3dNetlist, MinCutPartitioner, Partitioner};
    use m3d_sim::{generate_patterns, tdf_list, AtpgConfig, FaultSimulator, PatternSet, Tdf};

    struct Fixture {
        m3d: M3dNetlist,
        patterns: PatternSet,
    }

    fn fixture() -> Fixture {
        let nl = generate(&GeneratorConfig {
            n_comb_gates: 250,
            n_flops: 32,
            n_inputs: 12,
            n_outputs: 8,
            target_depth: 7,
            ..GeneratorConfig::default()
        });
        let atpg = generate_patterns(
            &nl,
            &AtpgConfig {
                fault_sample: Some(500),
                max_rounds: 5,
                ..AtpgConfig::default()
            },
        );
        let part = MinCutPartitioner::default().partition(&nl, 2);
        Fixture {
            m3d: M3dNetlist::build(nl, part),
            patterns: atpg.patterns,
        }
    }

    /// Everything [`backtrace`] reads, built once per fixture.
    struct Tracer<'a> {
        fsim: FaultSimulator<'a>,
        hetero: HeteroGraph,
        feats: FeatureExtractor,
        activity: PatternActivity,
    }

    impl<'a> Tracer<'a> {
        fn new(m3d: &'a M3dNetlist, patterns: &'a PatternSet) -> Self {
            let fsim = FaultSimulator::new(m3d.netlist(), patterns);
            let hetero = HeteroGraph::build(m3d, fsim.obs());
            let feats = FeatureExtractor::compute(m3d, &hetero);
            let activity = PatternActivity::build(&hetero, fsim.sim());
            Tracer {
                fsim,
                hetero,
                feats,
                activity,
            }
        }

        fn run(
            &self,
            chains: Option<&ScanChains>,
            log: &FailureLog,
            cfg: &BacktraceConfig,
        ) -> Subgraph {
            backtrace(
                &self.hetero,
                &self.feats,
                &self.activity,
                self.fsim.obs(),
                chains,
                log,
                cfg,
            )
        }

        fn reference(
            &self,
            chains: Option<&ScanChains>,
            log: &FailureLog,
            cfg: &BacktraceConfig,
        ) -> Subgraph {
            reference_backtrace(
                &self.hetero,
                &self.feats,
                self.fsim.sim(),
                self.fsim.obs(),
                chains,
                log,
                cfg,
            )
        }
    }

    fn detected(fsim: &FaultSimulator<'_>, n: usize) -> Vec<Tdf> {
        tdf_list(fsim.netlist())
            .into_iter()
            .step_by(13)
            .filter(|f| fsim.detects(std::slice::from_ref(f)))
            .take(n)
            .collect()
    }

    fn assert_identical(got: &Subgraph, want: &Subgraph) {
        assert_eq!(got.nodes, want.nodes);
        assert_eq!(got.x.as_slice(), want.x.as_slice());
        assert_eq!(got.miv_rows, want.miv_rows);
        assert_eq!(got.stats.dropped_patterns, want.stats.dropped_patterns);
    }

    #[test]
    fn subgraph_contains_fault_node() {
        let fx = fixture();
        let t = Tracer::new(&fx.m3d, &fx.patterns);
        for f in detected(&t.fsim, 8) {
            let log = FailureLog::uncompacted(&t.fsim.simulate(&[f]));
            let sub = t.run(None, &log, &BacktraceConfig::default());
            assert!(!sub.is_empty());
            let node = t.hetero.pin_of(f.site);
            assert!(
                sub.nodes.binary_search(&node).is_ok(),
                "fault node must survive intersection for {f}"
            );
        }
    }

    #[test]
    fn subgraph_smaller_than_graph() {
        let fx = fixture();
        let t = Tracer::new(&fx.m3d, &fx.patterns);
        let f = detected(&t.fsim, 1)[0];
        let log = FailureLog::uncompacted(&t.fsim.simulate(&[f]));
        let sub = t.run(None, &log, &BacktraceConfig::default());
        assert!(sub.len() < t.hetero.node_count() / 2, "{}", sub.len());
    }

    #[test]
    fn empty_log_gives_empty_subgraph() {
        let fx = fixture();
        let t = Tracer::new(&fx.m3d, &fx.patterns);
        let sub = t.run(None, &FailureLog::default(), &BacktraceConfig::default());
        assert!(sub.is_empty());
    }

    #[test]
    fn max_nodes_cap_respected() {
        let fx = fixture();
        let t = Tracer::new(&fx.m3d, &fx.patterns);
        let f = detected(&t.fsim, 1)[0];
        let log = FailureLog::uncompacted(&t.fsim.simulate(&[f]));
        let cfg = BacktraceConfig {
            max_nodes: 10,
            ..BacktraceConfig::default()
        };
        assert!(t.run(None, &log, &cfg).len() <= 10);
    }

    #[test]
    fn compacted_backtrace_yields_larger_subgraph() {
        let fx = fixture();
        let chains = ScanChains::stitch(fx.m3d.netlist(), 8, 4);
        let t = Tracer::new(&fx.m3d, &fx.patterns);
        let cfg = BacktraceConfig {
            max_nodes: 100_000,
            ..BacktraceConfig::default()
        };
        let mut larger = 0usize;
        let mut total = 0usize;
        for f in detected(&t.fsim, 6) {
            let det = t.fsim.simulate(&[f]);
            let log_u = FailureLog::uncompacted(&det);
            let log_c = FailureLog::compacted(&det, t.fsim.obs(), &chains);
            if log_c.is_empty() {
                continue;
            }
            let su = t.run(None, &log_u, &cfg);
            let sc = t.run(Some(&chains), &log_c, &cfg);
            total += 1;
            if sc.len() >= su.len() {
                larger += 1;
            }
        }
        assert!(
            larger * 10 >= total * 7,
            "compaction ambiguity should usually widen the search space ({larger}/{total})"
        );
    }

    #[test]
    fn backtrace_is_bit_identical_to_reference() {
        let fx = fixture();
        let t = Tracer::new(&fx.m3d, &fx.patterns);
        let chains = ScanChains::stitch(fx.m3d.netlist(), 8, 4);
        // Every supported node survives: any cone or activity difference
        // shows.
        let wide = BacktraceConfig {
            keep_frac: 0.0,
            max_nodes: 100_000,
        };
        for f in detected(&t.fsim, 3) {
            let det = t.fsim.simulate(&[f]);
            let cases = [
                (FailureLog::uncompacted(&det), None),
                (
                    FailureLog::compacted(&det, t.fsim.obs(), &chains),
                    Some(&chains),
                ),
            ];
            for (log, ch) in &cases {
                for cfg in [BacktraceConfig::default(), wide] {
                    let got = t.run(*ch, log, &cfg);
                    assert_identical(&got, &t.reference(*ch, log, &cfg));
                    let checks: u64 = log
                        .entries()
                        .iter()
                        .flat_map(|e| FailureLog::candidate_observers(e, t.fsim.obs(), *ch))
                        .map(|o| t.hetero.cone_size(o))
                        .sum();
                    assert_eq!(got.stats.activity_checks, checks);
                }
            }
        }
    }

    #[test]
    fn backtrace_screens_corrupt_entries() {
        use m3d_sim::{FailEntry, FailObs};
        let fx = fixture();
        let t = Tracer::new(&fx.m3d, &fx.patterns);
        let slots = t.activity.slots() as u32;
        assert_eq!(slots as usize, fx.patterns.len());
        // The last lane of the last pattern word: padding, never applied.
        let padding = fx.patterns.word_count() as u32 * 64 - 1;
        assert!(padding >= slots, "the fixture needs padding lanes");
        let log: FailureLog = [
            FailEntry {
                pattern: u32::MAX,
                obs: FailObs::Direct(ObsId(0)),
            },
            FailEntry {
                pattern: slots,
                obs: FailObs::Direct(ObsId(1)),
            },
            FailEntry {
                pattern: padding,
                obs: FailObs::Direct(ObsId(2)),
            },
            FailEntry {
                pattern: 0,
                obs: FailObs::Direct(ObsId(u32::MAX)),
            },
            FailEntry {
                pattern: slots - 1,
                obs: FailObs::Direct(ObsId(0)),
            },
        ]
        .into_iter()
        .collect();
        let sub = t.run(None, &log, &BacktraceConfig::default());
        assert_eq!(sub.stats.dropped_patterns, 3);
        assert_eq!(sub.stats.activity_checks, t.hetero.cone_size(ObsId(0)));
        assert_identical(&sub, &t.reference(None, &log, &BacktraceConfig::default()));
    }

    /// Caps below the picked set: the descending-support, ascending-id
    /// order and the truncation decide which nodes survive, on bypass and
    /// compacted logs, single- and multi-fault.
    #[test]
    fn capped_selection_matches_reference() {
        let fx = fixture();
        let t = Tracer::new(&fx.m3d, &fx.patterns);
        let chains = ScanChains::stitch(fx.m3d.netlist(), 8, 4);
        let faults = detected(&t.fsim, 6);
        let mut lists: Vec<Vec<Tdf>> = faults.iter().take(4).map(|&f| vec![f]).collect();
        lists.push(faults[3..6].to_vec());
        let mut capped = 0;
        for list in &lists {
            let det = t.fsim.simulate(list);
            let cases = [
                (FailureLog::uncompacted(&det), None),
                (
                    FailureLog::compacted(&det, t.fsim.obs(), &chains),
                    Some(&chains),
                ),
            ];
            for (log, ch) in &cases {
                for keep_frac in [0.25, 1.0] {
                    let all = t.reference(
                        *ch,
                        log,
                        &BacktraceConfig {
                            keep_frac,
                            max_nodes: 100_000,
                        },
                    );
                    for max_nodes in [5, 10] {
                        let cfg = BacktraceConfig {
                            keep_frac,
                            max_nodes,
                        };
                        let want = t.reference(*ch, log, &cfg);
                        assert_identical(&t.run(*ch, log, &cfg), &want);
                        capped += usize::from(all.len() > max_nodes);
                    }
                }
            }
        }
        assert!(capped >= 20, "only {capped} of 40 cases hit the cap");
    }

    /// Paper-class cones: a 100k-gate design whose few observers each see
    /// most of the graph, traced through a log naming every observer
    /// under several patterns.
    #[test]
    fn backtrace_matches_reference_at_100k_gates() {
        use m3d_part::RandomPartitioner;
        use m3d_sim::{source_count_for, FailEntry, FailObs};
        let nl = generate(&GeneratorConfig {
            n_comb_gates: 100_000,
            n_flops: 12,
            n_inputs: 32,
            n_outputs: 4,
            target_depth: 20,
            ..GeneratorConfig::default()
        });
        assert!(nl.gate_count() >= 100_000, "{}", nl.gate_count());
        let part = RandomPartitioner::new(7).partition(&nl, 2);
        let m3d = M3dNetlist::build(nl, part);
        let patterns = PatternSet::random(source_count_for(m3d.netlist()), 64, 11);
        let t = Tracer::new(&m3d, &patterns);
        let n_obs = t.fsim.obs().len() as u32;
        let log: FailureLog = (0..4u32)
            .flat_map(|p| {
                (0..n_obs).map(move |o| FailEntry {
                    pattern: p,
                    obs: FailObs::Direct(ObsId(o)),
                })
            })
            .collect();
        let cfg = BacktraceConfig {
            keep_frac: 0.25,
            max_nodes: 100_000,
        };
        let got = t.run(None, &log, &cfg);
        assert!(!got.is_empty());
        assert_identical(&got, &t.reference(None, &log, &cfg));
    }

    #[test]
    fn subgraph_features_have_local_degrees() {
        let fx = fixture();
        let t = Tracer::new(&fx.m3d, &fx.patterns);
        let f = detected(&t.fsim, 1)[0];
        let log = FailureLog::uncompacted(&t.fsim.simulate(&[f]));
        let sub = t.run(None, &log, &BacktraceConfig::default());
        // At least one node must have nonzero local degree (the subgraph is
        // connected around the fault's cone).
        let any_local = (0..sub.len())
            .any(|i| sub.x.get(i, F_FANIN_SUB) > 0.0 || sub.x.get(i, F_FANOUT_SUB) > 0.0);
        assert!(any_local);
    }
}
