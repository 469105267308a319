//! Node-feature extraction (Tables I and II).
//!
//! Global features are computed once per design from the heterogeneous
//! graph and reused for every back-traced subgraph; the two subgraph-local
//! columns (fan-in/fan-out *within* the subgraph) are filled during
//! subgraph assembly. All numeric features use scale-free normalizations
//! (log-degree, level fraction, distance fraction) so that the same model
//! transfers across designs of different sizes — the property Section IV
//! depends on.

use crate::hetero::{HNodeId, HNodeKind, HeteroGraph};
use m3d_gnn::Matrix;
use m3d_netlist::topo;
use m3d_part::M3dNetlist;

/// Number of node features (the 13 rows of Table II).
pub const N_FEATURES: usize = 13;

/// Feature column: number of fan-in edges in the circuit.
pub const F_FANIN_CIRCUIT: usize = 0;
/// Feature column: number of fan-out edges in the circuit.
pub const F_FANOUT_CIRCUIT: usize = 1;
/// Feature column: number of Topedges connected.
pub const F_N_TOP: usize = 2;
/// Feature column: tier-level location (0 = bottom, 1 = top, 0.5 = MIV).
pub const F_LOC: usize = 3;
/// Feature column: level in topological order (fraction of depth).
pub const F_LVL: usize = 4;
/// Feature column: whether the node is a gate output pin.
pub const F_OUT: usize = 5;
/// Feature column: whether the node connects to an MIV.
pub const F_MIV: usize = 6;
/// Feature column: number of fan-in edges in the subgraph (local).
pub const F_FANIN_SUB: usize = 7;
/// Feature column: number of fan-out edges in the subgraph (local).
pub const F_FANOUT_SUB: usize = 8;
/// Feature column: mean length of connected Topedges.
pub const F_DTOP_MEAN: usize = 9;
/// Feature column: std-dev of length of connected Topedges.
pub const F_DTOP_STD: usize = 10;
/// Feature column: mean MIVs passed through by connected Topedges.
pub const F_NMIV_MEAN: usize = 11;
/// Feature column: std-dev of MIVs passed through by connected Topedges.
pub const F_NMIV_STD: usize = 12;

/// Human-readable feature names, Table II order.
pub fn feature_names() -> [&'static str; N_FEATURES] {
    [
        "fanin (circuit)",
        "fanout (circuit)",
        "topedges connected",
        "tier location",
        "topological level",
        "is gate output",
        "connects to MIV",
        "fanin (subgraph)",
        "fanout (subgraph)",
        "topedge length mean",
        "topedge length std",
        "topedge MIV count mean",
        "topedge MIV count std",
    ]
}

/// Precomputed global node features.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    x: Matrix,
}

impl FeatureExtractor {
    /// Computes global features for every node of `hetero`.
    pub fn compute(m3d: &M3dNetlist, hetero: &HeteroGraph) -> Self {
        let _span = m3d_obs::span!("features.compute");
        let n = hetero.node_count();
        let nl = m3d.netlist();
        let levels = topo::levels(nl);
        let depth = levels.iter().copied().max().unwrap_or(1).max(1) as f32;
        let mut x = Matrix::zeros(n, N_FEATURES);

        // Topedge aggregates: exact integer sums, so converting them gives
        // the same f64 values as summing the small integers one by one.
        let max_dist = f64::from(hetero.max_topedge_dist().max(1));

        for i in 0..n {
            let node = HNodeId(i as u32);
            let (din, dout) = hetero.degrees(node);
            x.set(i, F_FANIN_CIRCUIT, (1.0 + din as f32).ln());
            x.set(i, F_FANOUT_CIRCUIT, (1.0 + dout as f32).ln());
            let top = hetero.topedge_sums(node);
            x.set(i, F_N_TOP, (1.0 + top.count as f32).ln());
            match hetero.kind(node) {
                HNodeKind::Pin(pin) => {
                    let tier = m3d.tier_of_site(pin);
                    x.set(i, F_LOC, tier.0 as f32);
                    x.set(i, F_LVL, levels[pin.gate.index()] as f32 / depth);
                    x.set(i, F_OUT, f32::from(u8::from(pin.is_output())));
                    let has_miv = hetero
                        .net_of(node)
                        .is_some_and(|net| !m3d.mivs_of_net(net).is_empty());
                    x.set(i, F_MIV, f32::from(u8::from(has_miv)));
                }
                HNodeKind::Miv(_) => {
                    // MIVs belong to no tier (Section VII-B): encode the
                    // boundary value.
                    x.set(i, F_LOC, 0.5);
                    let lvl = hetero
                        .net_of(node)
                        .and_then(|net| nl.net(net).driver)
                        .map_or(0.0, |g| levels[g.index()] as f32 / depth);
                    x.set(i, F_LVL, lvl);
                    x.set(i, F_OUT, 0.0);
                    x.set(i, F_MIV, 1.0);
                }
            }
            if top.count > 0 {
                let c = f64::from(top.count);
                let dm = top.dist as f64 / c;
                let dv = (top.dist_sq as f64 / c - dm * dm).max(0.0);
                let mm = top.mivs as f64 / c;
                let mv = (top.mivs_sq as f64 / c - mm * mm).max(0.0);
                x.set(i, F_DTOP_MEAN, (dm / max_dist) as f32);
                x.set(i, F_DTOP_STD, (dv.sqrt() / max_dist) as f32);
                x.set(i, F_NMIV_MEAN, (1.0 + mm).ln() as f32);
                x.set(i, F_NMIV_STD, (1.0 + mv.sqrt()).ln() as f32);
            }
        }
        FeatureExtractor { x }
    }

    /// The global feature row of a node (subgraph-local columns are zero).
    pub fn node_row(&self, node: HNodeId) -> &[f32] {
        self.x.row(node.index())
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.x.rows()
    }
}

/// Normalizes a subgraph-local degree for the `F_FANIN_SUB`/`F_FANOUT_SUB`
/// columns.
pub fn local_degree_feature(deg: usize) -> f32 {
    (1.0 + deg as f32).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{generate, GeneratorConfig};
    use m3d_part::{MinCutPartitioner, Partitioner};
    use m3d_sim::ObsPoints;

    fn setup() -> (M3dNetlist, HeteroGraph) {
        let nl = generate(&GeneratorConfig {
            n_comb_gates: 150,
            n_flops: 16,
            n_inputs: 8,
            n_outputs: 6,
            target_depth: 6,
            ..GeneratorConfig::default()
        });
        let part = MinCutPartitioner::default().partition(&nl, 2);
        let m3d = M3dNetlist::build(nl, part);
        let obs = ObsPoints::collect(m3d.netlist());
        let h = HeteroGraph::build(&m3d, &obs);
        (m3d, h)
    }

    #[test]
    fn features_cover_all_nodes_and_are_finite() {
        let (m3d, h) = setup();
        let fx = FeatureExtractor::compute(&m3d, &h);
        assert_eq!(fx.node_count(), h.node_count());
        for i in 0..h.node_count() {
            let row = fx.node_row(HNodeId(i as u32));
            assert_eq!(row.len(), N_FEATURES);
            assert!(row.iter().all(|v| v.is_finite()));
            // Local columns start zeroed.
            assert_eq!(row[F_FANIN_SUB], 0.0);
            assert_eq!(row[F_FANOUT_SUB], 0.0);
        }
    }

    #[test]
    fn miv_nodes_have_half_tier_and_miv_flag() {
        let (m3d, h) = setup();
        let fx = FeatureExtractor::compute(&m3d, &h);
        assert!(m3d.miv_count() > 0);
        for i in 0..m3d.miv_count() {
            let n = h.miv_node(m3d_part::MivId(i as u32));
            let row = fx.node_row(n);
            assert_eq!(row[F_LOC], 0.5);
            assert_eq!(row[F_MIV], 1.0);
            assert_eq!(row[F_OUT], 0.0);
        }
    }

    #[test]
    fn pin_tier_feature_matches_partition() {
        let (m3d, h) = setup();
        let fx = FeatureExtractor::compute(&m3d, &h);
        for pin in m3d.netlist().fault_sites().take(200) {
            let row = fx.node_row(h.pin_of(pin));
            assert_eq!(row[F_LOC], m3d.tier_of_site(pin).0 as f32);
        }
    }

    #[test]
    fn topedge_aggregates_bounded() {
        let (m3d, h) = setup();
        let fx = FeatureExtractor::compute(&m3d, &h);
        for i in 0..h.node_count() {
            let row = fx.node_row(HNodeId(i as u32));
            assert!(
                (0.0..=1.0).contains(&row[F_DTOP_MEAN]),
                "{}",
                row[F_DTOP_MEAN]
            );
            assert!((0.0..=1.0).contains(&row[F_DTOP_STD]));
        }
    }

    #[test]
    fn names_match_width() {
        assert_eq!(feature_names().len(), N_FEATURES);
    }
}
