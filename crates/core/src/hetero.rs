//! The heterogeneous graph of Section III-A (Fig. 2).
//!
//! **Circuit level** — one node per fault site (every gate pin) plus one
//! node per MIV. Edges follow signal flow: input-pin → output-pin inside a
//! gate, and stem → branch along each net, routed *through* the net's MIV
//! nodes for tier-crossing connections (this is what makes MIVs
//! pinpointable in constant time).
//!
//! **Top level** — one *Topnode* per scan observation point, connected by
//! *Topedges* to every circuit-level node in its fan-in cone; each Topedge
//! carries the BFS-shortest distance and the number of MIVs on that path
//! (Table I's `D_top` / `N_MIV`). Construction is a single reverse BFS per
//! Topnode, fanned over an [`ExecPool`], run once per design. The cones
//! are kept as one dense bitmap row per Topnode (the cone store that
//! back-tracing intersects); each walk folds its Topedge attributes into
//! per-node integer sums, which is all the features need.

use m3d_exec::ExecPool;
use m3d_netlist::{NetId, Pin, PinRef};
use m3d_part::{M3dNetlist, MivId};
use m3d_sim::{ObsId, ObsPoints};
use std::sync::Mutex;

/// Dense id of a heterogeneous-graph node (a pin or an MIV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HNodeId(pub u32);

impl HNodeId {
    /// Index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a circuit-level node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HNodeKind {
    /// A fault site: one pin of one gate.
    Pin(PinRef),
    /// A monolithic inter-tier via.
    Miv(MivId),
}

/// The Topedges reaching one node, folded over every Topnode whose cone
/// holds it: the count plus the sums and sums of squares of their
/// lengths and MIV counts. Integer sums are exact, so the fold is the
/// same at any thread count and merge order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TopedgeSums {
    /// Number of Topedges (cones containing the node).
    pub(crate) count: u32,
    /// Σ shortest-path distance.
    pub(crate) dist: u64,
    /// Σ distance².
    pub(crate) dist_sq: u64,
    /// Σ MIVs on the first shortest path found.
    pub(crate) mivs: u64,
    /// Σ MIV count².
    pub(crate) mivs_sq: u64,
}

/// The heterogeneous graph of a partitioned design.
#[derive(Debug, Clone)]
pub struct HeteroGraph {
    kinds: Vec<HNodeKind>,
    /// The net carrying each node's signal (pins: their net; MIVs: their
    /// net). `None` only for pins of portless gates (never occurs after
    /// validation).
    net_of: Vec<Option<NetId>>,
    /// CSR forward adjacency (signal-flow direction).
    fwd_ptr: Vec<u32>,
    fwd_idx: Vec<u32>,
    /// CSR reverse adjacency.
    rev_ptr: Vec<u32>,
    rev_idx: Vec<u32>,
    /// Per-gate offset into the pin-node id space.
    pin_offset: Vec<u32>,
    pin_total: u32,
    /// Cone store: `⌈nodes/64⌉` words per Topnode, bit `n` of row `o` set
    /// iff node `n` is in observation point `o`'s fan-in cone.
    cones: Vec<u64>,
    /// Popcount of each cone row.
    cone_sizes: Vec<u64>,
    /// Per-node Topedge fold.
    topedge: Vec<TopedgeSums>,
    /// Longest Topedge over every cone.
    max_topedge_dist: u16,
}

impl HeteroGraph {
    /// Builds the heterogeneous graph for `m3d` with Topnodes for `obs`,
    /// walking the cones on the environment-resolved [`ExecPool`].
    pub fn build(m3d: &M3dNetlist, obs: &ObsPoints) -> Self {
        HeteroGraph::build_with_pool(m3d, obs, &ExecPool::default())
    }

    /// [`HeteroGraph::build`] walking the cones on `pool`; the result is
    /// identical at any thread count.
    pub fn build_with_pool(m3d: &M3dNetlist, obs: &ObsPoints, pool: &ExecPool) -> Self {
        let _span = m3d_obs::span!("hetero.build");
        let nl = m3d.netlist();
        // --- Pin-node id space.
        let mut pin_offset = Vec::with_capacity(nl.gate_count() + 1);
        let mut acc = 0u32;
        for (_, g) in nl.iter_gates() {
            pin_offset.push(acc);
            acc += g.inputs.len() as u32 + u32::from(g.output.is_some());
        }
        pin_offset.push(acc);
        let pin_total = acc;
        let n_nodes = pin_total as usize + m3d.miv_count();

        let mut kinds = Vec::with_capacity(n_nodes);
        let mut net_of = Vec::with_capacity(n_nodes);
        for (id, g) in nl.iter_gates() {
            for (k, &inp) in g.inputs.iter().enumerate() {
                kinds.push(HNodeKind::Pin(PinRef::input(id, k as u8)));
                net_of.push(Some(inp));
            }
            if let Some(out) = g.output {
                kinds.push(HNodeKind::Pin(PinRef::output(id)));
                net_of.push(Some(out));
            }
        }
        for (i, miv) in m3d.mivs().iter().enumerate() {
            kinds.push(HNodeKind::Miv(MivId(i as u32)));
            net_of.push(Some(miv.net));
        }

        let pin_node = |pin: PinRef| -> u32 {
            let g = pin.gate.index();
            match pin.pin {
                Pin::Input(k) => pin_offset[g] + u32::from(k),
                Pin::Output => pin_offset[g] + nl.gate(pin.gate).inputs.len() as u32,
            }
        };
        let miv_node = |m: MivId| -> u32 { pin_total + m.0 };

        // --- Circuit-level edges.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        // Inside gates: every input pin feeds the output pin.
        for (id, g) in nl.iter_gates() {
            if g.output.is_some() {
                for k in 0..g.inputs.len() {
                    edges.push((
                        pin_node(PinRef::input(id, k as u8)),
                        pin_node(PinRef::output(id)),
                    ));
                }
            }
        }
        // Along nets: stem → (MIV chain) → branch.
        for (nid, net) in nl.iter_nets() {
            let Some(drv) = net.driver else { continue };
            let stem = pin_node(PinRef::output(drv));
            let t_drv = m3d.partition().tier_of(drv);
            let mivs = m3d.mivs_of_net(nid);
            for &(g, k) in &net.loads {
                let branch = pin_node(PinRef::input(g, k));
                let t_load = m3d.partition().tier_of(g);
                if mivs.is_empty() || t_load == t_drv {
                    edges.push((stem, branch));
                    continue;
                }
                // Route through the boundary vias between the tiers, in
                // order from the driver's side.
                let (lo, hi) = (t_drv.0.min(t_load.0), t_drv.0.max(t_load.0));
                let mut path: Vec<MivId> = mivs
                    .iter()
                    .copied()
                    .filter(|&m| {
                        let b = m3d.miv(m).boundary.0;
                        b >= lo && b < hi
                    })
                    .collect();
                if t_drv.0 > t_load.0 {
                    path.sort_by_key(|a| std::cmp::Reverse(m3d.miv(*a).boundary));
                } else {
                    path.sort_by_key(|a| m3d.miv(*a).boundary);
                }
                if path.is_empty() {
                    edges.push((stem, branch));
                    continue;
                }
                let mut prev = stem;
                for &m in &path {
                    edges.push((prev, miv_node(m)));
                    prev = miv_node(m);
                }
                edges.push((prev, branch));
            }
        }
        edges.sort_unstable();
        edges.dedup();

        let (fwd_ptr, fwd_idx) = build_csr(n_nodes, edges.iter().copied());
        let (rev_ptr, rev_idx) = build_csr(n_nodes, edges.iter().map(|&(a, b)| (b, a)));
        // The CSRs hold every edge; free the list before the cone walks.
        drop(edges);

        let mut graph = HeteroGraph {
            kinds,
            net_of,
            fwd_ptr,
            fwd_idx,
            rev_ptr,
            rev_idx,
            pin_offset,
            pin_total,
            cones: Vec::new(),
            cone_sizes: Vec::new(),
            topedge: Vec::new(),
            max_topedge_dist: 0,
        };
        graph.build_cones(obs, pool);
        graph
    }

    /// Top level: one reverse BFS per observation point, each writing its
    /// own cone row in place. The walks run over a [`WalkGraph`], a
    /// transient copy of the reverse CSR numbered in reverse-BFS order
    /// from all observers, so consecutive visits touch nearby memory.
    /// Workers share a free list of scratch buffers, so at most one per
    /// worker is ever allocated.
    fn build_cones(&mut self, obs: &ObsPoints, pool: &ExecPool) {
        let words = self.row_words();
        let starts: Vec<u32> = obs
            .iter()
            .map(|(_, p)| self.pin_of(PinRef::input(p.gate, 0)).0)
            .collect();
        let walk_graph = WalkGraph::new(self, &starts);
        let mut cones = vec![0u64; starts.len() * words];
        let rows: Vec<Mutex<&mut [u64]>> = cones.chunks_mut(words.max(1)).map(Mutex::new).collect();
        let spare: Mutex<Vec<ConeWalk>> = Mutex::new(Vec::new());
        pool.map(&rows, |o, row| {
            let mut walk = spare
                .lock()
                .expect("cone scratch list poisoned")
                .pop()
                .unwrap_or_else(|| ConeWalk::new(walk_graph.order.len()));
            walk.run(
                &walk_graph,
                walk_graph.starts[o],
                &mut row.lock().expect("cone row poisoned"),
            );
            spare.lock().expect("cone scratch list poisoned").push(walk);
        });
        drop(rows);

        let mut topedge = vec![TopedgeSums::default(); self.node_count()];
        let mut max_dist = 0u16;
        for walk in spare.into_inner().expect("cone scratch list poisoned") {
            for (&node, w) in walk_graph.order.iter().zip(&walk.sums) {
                let t = &mut topedge[node as usize];
                t.count += w.count;
                t.dist += w.dist;
                t.dist_sq += w.dist_sq;
                t.mivs += w.mivs;
                t.mivs_sq += w.mivs_sq;
            }
            max_dist = max_dist.max(walk.max_dist);
        }
        self.cone_sizes = cones
            .chunks(words.max(1))
            .map(|row| row.iter().map(|w| u64::from(w.count_ones())).sum())
            .collect();
        self.cones = cones;
        self.topedge = topedge;
        self.max_topedge_dist = max_dist;
    }

    /// Total node count (pins + MIVs).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of pin nodes (MIV nodes occupy ids `pin_count()..`).
    #[inline]
    pub fn pin_count(&self) -> usize {
        self.pin_total as usize
    }

    /// The kind of node `n`.
    #[inline]
    pub fn kind(&self, n: HNodeId) -> HNodeKind {
        self.kinds[n.index()]
    }

    /// The net carrying node `n`'s signal.
    #[inline]
    pub fn net_of(&self, n: HNodeId) -> Option<NetId> {
        self.net_of[n.index()]
    }

    /// The node id of a pin.
    ///
    /// # Panics
    ///
    /// Panics if the gate id is out of range.
    pub fn pin_of(&self, pin: PinRef) -> HNodeId {
        let g = pin.gate.index();
        let base = self.pin_offset[g];
        let width = self.pin_offset[g + 1] - base;
        let off = match pin.pin {
            Pin::Input(k) => u32::from(k),
            Pin::Output => width - 1,
        };
        HNodeId(base + off)
    }

    /// The node id of an MIV.
    pub fn miv_node(&self, m: MivId) -> HNodeId {
        HNodeId(self.pin_total + m.0)
    }

    /// Forward (driver → load) neighbors of `n`.
    pub fn successors(&self, n: HNodeId) -> &[u32] {
        let i = n.index();
        &self.fwd_idx[self.fwd_ptr[i] as usize..self.fwd_ptr[i + 1] as usize]
    }

    /// Reverse (load → driver) neighbors of `n`.
    pub fn predecessors(&self, n: HNodeId) -> &[u32] {
        let i = n.index();
        &self.rev_idx[self.rev_ptr[i] as usize..self.rev_ptr[i + 1] as usize]
    }

    /// In-degree / out-degree in the circuit-level graph.
    pub fn degrees(&self, n: HNodeId) -> (usize, usize) {
        (self.predecessors(n).len(), self.successors(n).len())
    }

    /// Words per bitmap row over the node id space (`⌈nodes/64⌉`).
    #[inline]
    pub(crate) fn row_words(&self) -> usize {
        self.node_count().div_ceil(64)
    }

    /// The fan-in cone of an observation point as a node bitmap of
    /// [`HeteroGraph::row_words`] words.
    ///
    /// # Panics
    ///
    /// Panics if `obs` is not an observation point of this graph.
    #[inline]
    pub(crate) fn cone(&self, obs: ObsId) -> &[u64] {
        let words = self.row_words();
        &self.cones[obs.index() * words..(obs.index() + 1) * words]
    }

    /// Number of nodes in the fan-in cone of `obs`.
    #[inline]
    pub(crate) fn cone_size(&self, obs: ObsId) -> u64 {
        self.cone_sizes[obs.index()]
    }

    /// The Topedge fold of node `n`.
    #[inline]
    pub(crate) fn topedge_sums(&self, n: HNodeId) -> TopedgeSums {
        self.topedge[n.index()]
    }

    /// The longest Topedge (BFS distance) over every cone.
    pub(crate) fn max_topedge_dist(&self) -> u16 {
        self.max_topedge_dist
    }
}

/// Set on a [`WalkGraph`] entry whose predecessor is an MIV node.
const MIV_BIT: u32 = 1 << 31;

/// The reverse CSR the cone walks run on, numbered in the order one FIFO
/// reverse BFS from every observer (seeded in observer order) discovers
/// the nodes, unreached nodes last by id. Each predecessor list keeps its
/// original order, so a FIFO walk from one observer discovers the same
/// node sequence as over [`HeteroGraph::predecessors`], and with it the
/// same first shortest path to every node. Dropped once the cones are
/// built.
struct WalkGraph {
    /// `order[i]` is the graph id of walk id `i`.
    order: Vec<u32>,
    /// Each observer's start node, in walk ids.
    starts: Vec<u32>,
    ptr: Vec<u32>,
    /// Predecessor walk ids, [`MIV_BIT`] set on MIV nodes.
    idx: Vec<u32>,
}

impl WalkGraph {
    fn new(g: &HeteroGraph, starts: &[u32]) -> Self {
        let n = g.node_count();
        assert!(n < MIV_BIT as usize, "walk ids need a free top bit");
        let mut walk_id = vec![u32::MAX; n];
        let mut order = Vec::with_capacity(n);
        let mut discover = |v: u32, order: &mut Vec<u32>| {
            if walk_id[v as usize] == u32::MAX {
                walk_id[v as usize] = order.len() as u32;
                order.push(v);
            }
        };
        for &s in starts {
            discover(s, &mut order);
        }
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            for &v in g.predecessors(HNodeId(u)) {
                discover(v, &mut order);
            }
        }
        for v in 0..n as u32 {
            discover(v, &mut order);
        }
        let mut ptr = Vec::with_capacity(n + 1);
        let mut idx = Vec::with_capacity(g.rev_idx.len());
        ptr.push(0);
        for &u in &order {
            idx.extend(g.predecessors(HNodeId(u)).iter().map(|&v| {
                let miv = if v >= g.pin_total { MIV_BIT } else { 0 };
                walk_id[v as usize] | miv
            }));
            ptr.push(idx.len() as u32);
        }
        WalkGraph {
            starts: starts.iter().map(|&s| walk_id[s as usize]).collect(),
            order,
            ptr,
            idx,
        }
    }

    /// The predecessors of walk id `u`.
    #[inline]
    fn predecessors(&self, u: u32) -> &[u32] {
        let i = u as usize;
        &self.idx[self.ptr[i] as usize..self.ptr[i + 1] as usize]
    }
}

/// One worker's reverse-BFS scratch, indexed by walk id. A walk writes
/// `dist_mivs` only at the nodes it discovers, and its fold clears the
/// `seen` words it reads: it costs its cone, not the graph.
struct ConeWalk {
    /// `[distance, MIVs on the first shortest path]` per discovered node.
    dist_mivs: Vec<[u16; 2]>,
    /// The nodes this walk has discovered.
    seen: Vec<u64>,
    /// FIFO of discovered nodes with their `[distance, MIVs]`; one slot
    /// longer than the graph, since every predecessor is written past the
    /// tail before the tail decides whether to keep it.
    queue: Vec<(u32, [u16; 2])>,
    sums: Vec<TopedgeSums>,
    max_dist: u16,
}

impl ConeWalk {
    fn new(n: usize) -> Self {
        ConeWalk {
            dist_mivs: vec![[0; 2]; n],
            seen: vec![0; n.div_ceil(64)],
            queue: vec![(0, [0, 0]); n + 1],
            sums: vec![TopedgeSums::default(); n],
            max_dist: 0,
        }
    }

    /// FIFO reverse BFS from `start` over [`WalkGraph::predecessors`] in
    /// order, marking the cone in `row` by graph id. A node's MIV count
    /// comes from the first shortest path discovered, so the visiting
    /// order is part of the feature definition; the Topedge fold is not,
    /// so it runs afterwards in walk-id order, where `sums` is read
    /// sequentially. The walk loop has no branch on whether a predecessor
    /// is new: it always writes it past the tail, and the tail moves only
    /// over new ones.
    fn run(&mut self, g: &WalkGraph, start: u32, row: &mut [u64]) {
        let queue = &mut self.queue;
        queue[0] = (start, [0, 0]);
        self.seen[start as usize / 64] |= 1 << (start % 64);
        let (mut head, mut tail) = (0, 1);
        while head < tail {
            let (u, [d, m]) = queue[head];
            head += 1;
            self.dist_mivs[u as usize] = [d, m];
            for &e in g.predecessors(u) {
                let v = e & !MIV_BIT;
                let (w, bit) = (v as usize / 64, 1u64 << (v % 64));
                let word = self.seen[w];
                self.seen[w] = word | bit;
                queue[tail] = (v, [d + 1, m + u16::from(e >= MIV_BIT)]);
                tail += usize::from(word & bit == 0);
            }
        }
        for (w, word) in self.seen.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let [d, m] = self.dist_mivs[i];
                let (d64, m64) = (u64::from(d), u64::from(m));
                let s = &mut self.sums[i];
                s.count += 1;
                s.dist += d64;
                s.dist_sq += d64 * d64;
                s.mivs += m64;
                s.mivs_sq += m64 * m64;
                self.max_dist = self.max_dist.max(d);
                let node = g.order[i] as usize;
                row[node / 64] |= 1 << (node % 64);
            }
        }
    }
}

fn build_csr(n: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> (Vec<u32>, Vec<u32>) {
    let mut counts = vec![0u32; n + 1];
    for (a, _) in edges.clone() {
        counts[a as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let mut idx = vec![0u32; counts[n] as usize];
    let mut cursor = counts.clone();
    for (a, b) in edges {
        idx[cursor[a as usize] as usize] = b;
        cursor[a as usize] += 1;
    }
    (counts, idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrace::reference_cone;
    use m3d_netlist::{generate, CellKind, GeneratorConfig, Netlist};
    use m3d_part::{MinCutPartitioner, Partitioner, Tier, TierPartition};

    fn small_m3d() -> M3dNetlist {
        let nl = generate(&GeneratorConfig {
            n_comb_gates: 150,
            n_flops: 16,
            n_inputs: 8,
            n_outputs: 6,
            target_depth: 6,
            ..GeneratorConfig::default()
        });
        let part = MinCutPartitioner::default().partition(&nl, 2);
        M3dNetlist::build(nl, part)
    }

    #[test]
    fn node_count_is_pins_plus_mivs() {
        let m3d = small_m3d();
        let obs = ObsPoints::collect(m3d.netlist());
        let h = HeteroGraph::build(&m3d, &obs);
        assert_eq!(
            h.node_count(),
            m3d.netlist().fault_site_count() + m3d.miv_count()
        );
        assert_eq!(h.pin_count(), m3d.netlist().fault_site_count());
    }

    #[test]
    fn pin_ids_round_trip() {
        let m3d = small_m3d();
        let obs = ObsPoints::collect(m3d.netlist());
        let h = HeteroGraph::build(&m3d, &obs);
        for pin in m3d.netlist().fault_sites() {
            let n = h.pin_of(pin);
            assert_eq!(h.kind(n), HNodeKind::Pin(pin));
            assert_eq!(h.net_of(n), m3d.netlist().pin_net(pin));
        }
        for i in 0..m3d.miv_count() {
            let n = h.miv_node(MivId(i as u32));
            assert_eq!(h.kind(n), HNodeKind::Miv(MivId(i as u32)));
        }
    }

    #[test]
    fn cross_tier_edges_route_through_mivs() {
        // input(t0) -> inv(t1) -> output(t0): both nets cross the boundary.
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let y = nl.add_gate(CellKind::Inv, &[a]).unwrap();
        nl.add_output(y);
        let part = TierPartition::new(vec![Tier(0), Tier(1), Tier(0)], 2);
        let m3d = M3dNetlist::build(nl, part);
        assert_eq!(m3d.miv_count(), 2);
        let obs = ObsPoints::collect(m3d.netlist());
        let h = HeteroGraph::build(&m3d, &obs);
        // Stem (input output-pin) must NOT connect directly to the inv
        // input pin; it goes through the MIV node.
        let stem = h.pin_of(PinRef::output(m3d.netlist().inputs()[0]));
        let succ = h.successors(stem);
        assert_eq!(succ.len(), 1);
        assert!(matches!(h.kind(HNodeId(succ[0])), HNodeKind::Miv(_)));
    }

    #[test]
    fn topnode_cones_contain_upstream_pins() {
        let m3d = small_m3d();
        let obs = ObsPoints::collect(m3d.netlist());
        let h = HeteroGraph::build(&m3d, &obs);
        for (id, point) in obs.iter() {
            let cone = reference_cone(&h, &obs, id);
            assert!(!cone.is_empty());
            // The observed pin itself is in its own cone at distance 0.
            let self_node = h.pin_of(PinRef::input(point.gate, 0));
            assert_eq!(cone[0], (self_node, 0, 0));
            // Distances strictly positive elsewhere, MIV counts consistent.
            for &(node, dist, mivs) in &cone[1..] {
                assert_ne!(node, self_node);
                assert!(dist > 0);
                assert!(mivs <= dist);
            }
        }
    }

    #[test]
    fn miv_nodes_appear_in_cones_with_counts() {
        let m3d = small_m3d();
        let obs = ObsPoints::collect(m3d.netlist());
        let h = HeteroGraph::build(&m3d, &obs);
        let mut seen_miv_edge = false;
        for (id, _) in obs.iter() {
            for (node, _, mivs) in reference_cone(&h, &obs, id) {
                if matches!(h.kind(node), HNodeKind::Miv(_)) {
                    seen_miv_edge = true;
                    assert!(mivs >= 1, "an MIV node's path crosses itself");
                }
            }
        }
        assert!(seen_miv_edge, "some cone must contain an MIV");
    }

    /// How many cone memberships have shortest paths to their observer
    /// with different MIV counts. For those, the MIV count a walk records
    /// is that of the path it discovers first, so it depends on the
    /// visiting order.
    fn order_sensitive_memberships(h: &HeteroGraph, obs: &ObsPoints) -> usize {
        let n = h.node_count();
        let mut found = 0;
        for (id, _) in obs.iter() {
            let cone = reference_cone(h, obs, id);
            let mut dist = vec![u16::MAX; n];
            let (mut lo, mut hi) = (vec![u16::MAX; n], vec![0u16; n]);
            for &(node, d, _) in &cone {
                dist[node.index()] = d;
            }
            lo[cone[0].0.index()] = 0;
            // Visiting order is BFS order: each node's bounds are final
            // before it extends them to its predecessors.
            for &(u, d, _) in &cone {
                for &v in h.predecessors(u) {
                    let v = v as usize;
                    if dist[v] == d + 1 {
                        let miv = u16::from(v >= h.pin_count());
                        lo[v] = lo[v].min(lo[u.index()] + miv);
                        hi[v] = hi[v].max(hi[u.index()] + miv);
                    }
                }
            }
            found += cone
                .iter()
                .filter(|(v, _, _)| lo[v.index()] != hi[v.index()])
                .count();
        }
        found
    }

    #[test]
    fn cone_store_matches_reference_walk_at_any_thread_count() {
        let m3d = small_m3d();
        let obs = ObsPoints::collect(m3d.netlist());
        let reference = HeteroGraph::build_with_pool(&m3d, &obs, &ExecPool::serial());
        // Without such a membership, a walk in any order would pass.
        assert!(order_sensitive_memberships(&reference, &obs) > 0);
        let mut sums = vec![TopedgeSums::default(); reference.node_count()];
        let mut max_dist = 0u16;
        for (id, _) in obs.iter() {
            let cone = reference_cone(&reference, &obs, id);
            let mut row = vec![0u64; reference.row_words()];
            for &(node, dist, mivs) in &cone {
                row[node.index() / 64] |= 1 << (node.index() % 64);
                let (d, m) = (u64::from(dist), u64::from(mivs));
                let s = &mut sums[node.index()];
                s.count += 1;
                s.dist += d;
                s.dist_sq += d * d;
                s.mivs += m;
                s.mivs_sq += m * m;
                max_dist = max_dist.max(dist);
            }
            assert_eq!(reference.cone(id), row.as_slice(), "{id}");
            assert_eq!(reference.cone_size(id), cone.len() as u64);
        }
        for threads in [1, 2, 4] {
            let h = HeteroGraph::build_with_pool(&m3d, &obs, &ExecPool::with_threads(threads));
            assert_eq!(h.cones, reference.cones, "{threads} threads");
            assert_eq!(h.topedge, sums, "{threads} threads");
            assert_eq!(h.max_topedge_dist(), max_dist);
        }
    }

    #[test]
    fn degrees_match_csr() {
        let m3d = small_m3d();
        let obs = ObsPoints::collect(m3d.netlist());
        let h = HeteroGraph::build(&m3d, &obs);
        // The forward and reverse CSRs are transposes of each other.
        let mut fwd = Vec::new();
        let mut rev = Vec::new();
        for i in 0..h.node_count() as u32 {
            let n = HNodeId(i);
            fwd.extend(h.successors(n).iter().map(|&s| (i, s)));
            rev.extend(h.predecessors(n).iter().map(|&p| (p, i)));
        }
        fwd.sort_unstable();
        rev.sort_unstable();
        assert!(!fwd.is_empty());
        assert_eq!(fwd, rev);
    }
}
