//! Fiduccia–Mattheyses min-cut bipartitioning.
//!
//! Models the paper's *Syn-1/Syn-2* partitioning flow (Panth et al. [34]):
//! a cut-aware, area-balanced assignment of standard cells to two tiers.
//! We implement classic FM with hyperedge gains, area-balance constraints,
//! and best-prefix rollback, on top of a seeded random initial assignment.
//!
//! A pass keeps every free cell's gain current with FM's per-net update,
//! which walks a net's members only when the move changes one of their
//! gains, and takes moves from a [`MaxKeySet`] keyed by `(gain, cell)`:
//! the highest gain first, the highest cell id among equal gains. A cell
//! leaves the set when it is taken (moved and locked, or skipped because
//! the move would break the area balance) and re-enters only when its gain
//! changes. The tests keep the lazy-deletion heap this replaced as the
//! reference and pin equal partitions against it.

use crate::partition::{is_pinned, Partitioner, Tier, TierPartition};
use m3d_netlist::{GateId, Netlist};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// FM min-cut partitioner (two tiers).
#[derive(Debug, Clone, PartialEq)]
pub struct MinCutPartitioner {
    /// Seed for the initial random balanced assignment.
    pub seed: u64,
    /// Maximum FM passes (each pass is a full tentative move sequence with
    /// rollback to the best prefix).
    pub max_passes: usize,
    /// Per-side area tolerance around the perfect 50/50 split
    /// (0.1 → each side holds 40–60% of total area).
    pub balance_tolerance: f64,
}

impl Default for MinCutPartitioner {
    fn default() -> Self {
        MinCutPartitioner {
            seed: 7,
            max_passes: 4,
            balance_tolerance: 0.1,
        }
    }
}

impl Partitioner for MinCutPartitioner {
    fn partition(&self, nl: &Netlist, n_tiers: usize) -> TierPartition {
        let _span = m3d_obs::span!("part.partition");
        assert_eq!(n_tiers, 2, "MinCutPartitioner bipartitions (2 tiers)");
        let mut part = crate::random::random_balanced(nl, self.seed);
        let fm = FmState::new(nl, self.balance_tolerance);
        for _ in 0..self.max_passes {
            let improved = fm.pass(&mut part);
            if !improved {
                break;
            }
        }
        part
    }

    fn name(&self) -> &'static str {
        "fm-mincut"
    }
}

struct FmState {
    /// CSR member gates of each net (deduplicated, ascending).
    net_ptr: Vec<u32>,
    net_members: Vec<u32>,
    /// CSR nets incident to each gate (ascending).
    gate_ptr: Vec<u32>,
    gate_nets: Vec<u32>,
    /// Ports and observation points, which never move.
    pinned: Vec<bool>,
    /// Per-gate area.
    area: Vec<f64>,
    total_area: f64,
    tol: f64,
    /// The most nets on one gate: every gain lies in `-max_deg..=max_deg`.
    max_deg: usize,
}

impl FmState {
    fn new(nl: &Netlist, tol: f64) -> Self {
        let mut net_ptr = Vec::with_capacity(nl.net_count() + 1);
        let mut net_members = Vec::new();
        let mut gate_ptr = vec![0u32; nl.gate_count() + 1];
        let mut members: Vec<u32> = Vec::new();
        net_ptr.push(0);
        for (_, net) in nl.iter_nets() {
            members.clear();
            members.extend(net.driver.map(|d| d.0));
            members.extend(net.loads.iter().map(|&(g, _)| g.0));
            members.sort_unstable();
            members.dedup();
            for &g in &members {
                gate_ptr[g as usize + 1] += 1;
            }
            net_members.extend_from_slice(&members);
            net_ptr.push(net_members.len() as u32);
        }
        let max_deg = gate_ptr.iter().copied().max().unwrap_or(0) as usize;
        for g in 0..nl.gate_count() {
            gate_ptr[g + 1] += gate_ptr[g];
        }
        // Nets are visited in id order, so each gate's list is ascending.
        let mut gate_nets = vec![0u32; net_members.len()];
        let mut cursor = gate_ptr.clone();
        for nid in 0..nl.net_count() {
            for &g in &net_members[net_ptr[nid] as usize..net_ptr[nid + 1] as usize] {
                gate_nets[cursor[g as usize] as usize] = nid as u32;
                cursor[g as usize] += 1;
            }
        }
        let area: Vec<f64> = nl
            .iter_gates()
            .map(|(_, g)| g.kind.area(g.inputs.len() as u8).max(0.1))
            .collect();
        let total_area = area.iter().sum();
        FmState {
            net_ptr,
            net_members,
            gate_ptr,
            gate_nets,
            pinned: nl.iter_gates().map(|(_, g)| is_pinned(g.kind)).collect(),
            area,
            total_area,
            tol,
            max_deg,
        }
    }

    fn gate_count(&self) -> usize {
        self.pinned.len()
    }

    /// The member gates of net `nid`.
    fn members(&self, nid: u32) -> &[u32] {
        let n = nid as usize;
        &self.net_members[self.net_ptr[n] as usize..self.net_ptr[n + 1] as usize]
    }

    /// The nets on gate `g`.
    fn nets(&self, g: usize) -> &[u32] {
        &self.gate_nets[self.gate_ptr[g] as usize..self.gate_ptr[g + 1] as usize]
    }

    /// Per-net side counts under `side`.
    fn side_counts(&self, side: &[u8]) -> Vec<[u32; 2]> {
        self.net_ptr
            .windows(2)
            .map(|w| {
                let mut c = [0u32; 2];
                for &g in &self.net_members[w[0] as usize..w[1] as usize] {
                    c[side[g as usize] as usize] += 1;
                }
                c
            })
            .collect()
    }

    /// The area window each side must stay inside.
    fn bounds(&self) -> (f64, f64) {
        (
            self.total_area * (0.5 - self.tol),
            self.total_area * (0.5 + self.tol),
        )
    }

    /// One FM pass; returns `true` if the cut improved.
    fn pass(&self, part: &mut TierPartition) -> bool {
        let n = self.gate_count();
        // side[g] = 0 or 1, mirrors part during tentative moves.
        let mut side: Vec<u8> = part.as_slice().iter().map(|t| t.0).collect();
        let mut count = self.side_counts(&side);
        let initial_cut: i64 = count.iter().filter(|c| c[0] > 0 && c[1] > 0).count() as i64;

        let max_deg = self.max_deg as i64;
        let key = |gain: i64, cell: usize| (gain + max_deg) as usize * n + cell;
        let mut gain: Vec<i64> = vec![0; n];
        let mut free = MaxKeySet::new((2 * self.max_deg + 1) * n);
        for i in (0..n).filter(|&i| !self.pinned[i]) {
            gain[i] = self.cell_gain(i, &side, &count);
            free.insert(key(gain[i], i));
        }
        let mut locked = vec![false; n];
        let mut side_area = [0f64, 0f64];
        for i in 0..n {
            side_area[side[i] as usize] += self.area[i];
        }
        let (lo, hi) = self.bounds();

        let mut moves: Vec<usize> = Vec::new();
        let mut cut = initial_cut;
        let mut best_cut = initial_cut;
        let mut best_prefix = 0usize;
        // Per-move gain changes of the free cells they touch.
        let mut delta: Vec<i64> = vec![0; n];
        let mut touched: Vec<usize> = Vec::new();

        while let Some(k) = free.pop_max() {
            let i = k % n;
            let g = gain[i];
            let from = side[i] as usize;
            let to = 1 - from;
            // Balance check.
            let new_from = side_area[from] - self.area[i];
            let new_to = side_area[to] + self.area[i];
            if new_from < lo || new_to > hi {
                continue; // skip: back in the set only when its gain changes
            }
            // Commit tentative move.
            locked[i] = true;
            side_area[from] = new_from;
            side_area[to] = new_to;
            cut -= g;
            side[i] = to as u8;
            // FM's per-net update from the pre-move counts F (source side)
            // and T (target side): a source-side member gains
            // [F = 2] + [T = 0], a target-side one −[F = 1] − [T = 1].
            for &nid in self.nets(i) {
                let c = &mut count[nid as usize];
                let (f, t) = (c[from], c[to]);
                c[from] -= 1;
                c[to] += 1;
                let src = i64::from(f == 2) + i64::from(t == 0);
                let dst = -i64::from(f == 1) - i64::from(t == 1);
                if src == 0 && dst == 0 {
                    continue;
                }
                for &m in self.members(nid) {
                    let mi = m as usize;
                    if locked[mi] || self.pinned[mi] {
                        continue;
                    }
                    let d = if side[mi] as usize == from { src } else { dst };
                    if d != 0 {
                        delta[mi] += d;
                        touched.push(mi);
                    }
                }
            }
            for mi in touched.drain(..) {
                if delta[mi] != 0 {
                    free.remove(key(gain[mi], mi));
                    gain[mi] += delta[mi];
                    delta[mi] = 0;
                    free.insert(key(gain[mi], mi));
                }
            }
            moves.push(i);
            if cut < best_cut {
                best_cut = cut;
                best_prefix = moves.len();
            }
        }

        if best_cut >= initial_cut {
            return false;
        }
        // Apply the best prefix to the real partition.
        for &i in &moves[..best_prefix] {
            let cur = part.tier_of(GateId(i as u32));
            part.set(GateId(i as u32), Tier(1 - cur.0));
        }
        true
    }

    fn cell_gain(&self, i: usize, side: &[u8], count: &[[u32; 2]]) -> i64 {
        let from = side[i] as usize;
        let to = 1 - from;
        let mut g = 0i64;
        for &nid in self.nets(i) {
            let c = count[nid as usize];
            if c[from] == 1 {
                g += 1; // moving uncuts this net
            }
            if c[to] == 0 {
                g -= 1; // moving cuts this net
            }
        }
        g
    }
}

/// A set of keys in `0..universe` with insert, remove and pop-max in
/// `⌈log₆₄ universe⌉` word steps: level 0 holds one bit per key, and bit
/// `w` of each higher level is set iff word `w` of the level below is
/// non-zero. The top level is a single word.
struct MaxKeySet {
    levels: Vec<Vec<u64>>,
}

impl MaxKeySet {
    fn new(universe: usize) -> Self {
        let mut levels = Vec::new();
        let mut len = universe.max(1);
        loop {
            let words = len.div_ceil(64);
            levels.push(vec![0u64; words]);
            if words == 1 {
                return MaxKeySet { levels };
            }
            len = words;
        }
    }

    fn insert(&mut self, key: usize) {
        let mut i = key;
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            let was_empty = *word == 0;
            *word |= 1 << (i % 64);
            if !was_empty {
                return;
            }
            i /= 64;
        }
    }

    /// Removes `key`; a key not in the set is a no-op.
    fn remove(&mut self, key: usize) {
        let mut i = key;
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            *word &= !(1 << (i % 64));
            if *word != 0 {
                return;
            }
            i /= 64;
        }
    }

    fn pop_max(&mut self) -> Option<usize> {
        let mut i = 0;
        for level in self.levels.iter().rev() {
            let word = level[i];
            if word == 0 {
                return None; // only the top word can be empty
            }
            i = i * 64 + 63 - word.leading_zeros() as usize;
        }
        self.remove(i);
        Some(i)
    }
}

/// Shuffles `items` deterministically with `seed` (shared helper for the
/// partitioners).
pub(crate) fn seeded_shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    items.shuffle(&mut rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{generate, BenchmarkProfile, GeneratorConfig, SynthesisCorner};
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    /// The pass [`FmState::pass`] replaced: after each move every free
    /// neighbour's gain is recomputed from scratch and pushed when it
    /// changed, and the pop skips stale entries. Also returns how many
    /// moves the balance check skipped.
    fn reference_pass(fm: &FmState, part: &mut TierPartition) -> (bool, usize) {
        let n = fm.gate_count();
        let mut side: Vec<u8> = part.as_slice().iter().map(|t| t.0).collect();
        let mut count = fm.side_counts(&side);
        let initial_cut: i64 = count.iter().filter(|c| c[0] > 0 && c[1] > 0).count() as i64;
        let mut gain: Vec<i64> = vec![0; n];
        let mut heap = BinaryHeap::new();
        for i in (0..n).filter(|&i| !fm.pinned[i]) {
            gain[i] = fm.cell_gain(i, &side, &count);
            heap.push((gain[i], i));
        }
        let mut locked = vec![false; n];
        let mut side_area = [0f64, 0f64];
        for i in 0..n {
            side_area[side[i] as usize] += fm.area[i];
        }
        let (lo, hi) = fm.bounds();
        let mut moves: Vec<usize> = Vec::new();
        let (mut cut, mut best_cut, mut best_prefix) = (initial_cut, initial_cut, 0);
        let mut skips = 0;
        while let Some((g, i)) = heap.pop() {
            if locked[i] || g != gain[i] {
                continue; // stale heap entry
            }
            let from = side[i] as usize;
            let to = 1 - from;
            let new_from = side_area[from] - fm.area[i];
            let new_to = side_area[to] + fm.area[i];
            if new_from < lo || new_to > hi {
                skips += 1;
                continue;
            }
            locked[i] = true;
            side_area[from] = new_from;
            side_area[to] = new_to;
            cut -= g;
            for &nid in fm.nets(i) {
                count[nid as usize][from] -= 1;
                count[nid as usize][to] += 1;
            }
            side[i] = to as u8;
            for &nid in fm.nets(i) {
                for &m in fm.members(nid) {
                    let mi = m as usize;
                    if !locked[mi] && !fm.pinned[mi] {
                        let ng = fm.cell_gain(mi, &side, &count);
                        if ng != gain[mi] {
                            gain[mi] = ng;
                            heap.push((ng, mi));
                        }
                    }
                }
            }
            moves.push(i);
            if cut < best_cut {
                best_cut = cut;
                best_prefix = moves.len();
            }
        }
        if best_cut >= initial_cut {
            return (false, skips);
        }
        for &i in &moves[..best_prefix] {
            let cur = part.tier_of(GateId(i as u32));
            part.set(GateId(i as u32), Tier(1 - cur.0));
        }
        (true, skips)
    }

    /// [`MinCutPartitioner::partition`] over [`reference_pass`], with the
    /// balance skips of every pass.
    fn reference_partition(p: &MinCutPartitioner, nl: &Netlist) -> (TierPartition, usize) {
        let mut part = crate::random::random_balanced(nl, p.seed);
        let fm = FmState::new(nl, p.balance_tolerance);
        let mut skips = 0;
        for _ in 0..p.max_passes {
            let (improved, s) = reference_pass(&fm, &mut part);
            skips += s;
            if !improved {
                break;
            }
        }
        (part, skips)
    }

    /// Every profile and corner at two scales and three balance
    /// tolerances: the same partition as the heap reference, in cases
    /// that skip moves for balance.
    #[test]
    fn partitions_match_heap_reference() {
        for profile in BenchmarkProfile::ALL {
            for corner in [SynthesisCorner::Syn1, SynthesisCorner::Syn2] {
                for scale in [0.01, 0.05] {
                    let nl = generate(&profile.config(scale, corner));
                    for tol in [0.1, 0.02, 0.001] {
                        let p = MinCutPartitioner {
                            balance_tolerance: tol,
                            ..MinCutPartitioner::default()
                        };
                        let (want, skips) = reference_partition(&p, &nl);
                        let case = format!("{} {corner:?} {scale} tol {tol}", profile.name());
                        assert_eq!(p.partition(&nl, 2), want, "{case}");
                        assert!(skips > 0, "{case}: no balance skip");
                    }
                }
            }
        }
    }

    fn small_config() -> impl Strategy<Value = (GeneratorConfig, f64)> {
        (
            0u64..1_000,
            4usize..24,
            2usize..12,
            4usize..32,
            60usize..400,
            4u32..12,
            0usize..3,
        )
            .prop_map(
                |(seed, n_inputs, n_outputs, n_flops, n_comb_gates, target_depth, tol)| {
                    let cfg = GeneratorConfig {
                        seed,
                        n_inputs,
                        n_outputs,
                        n_flops,
                        n_comb_gates,
                        target_depth,
                        buffer_high_fanout: seed % 3 == 0,
                        ..GeneratorConfig::default()
                    };
                    (cfg, [0.1, 0.02, 0.001][tol])
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Small generated netlists: the same partition as the heap
        /// reference at any of three balance tolerances.
        #[test]
        fn small_partitions_match_heap_reference(case in small_config()) {
            let (cfg, tol) = case;
            let nl = generate(&cfg);
            let p = MinCutPartitioner {
                seed: cfg.seed,
                balance_tolerance: tol,
                ..MinCutPartitioner::default()
            };
            prop_assert_eq!(p.partition(&nl, 2), reference_partition(&p, &nl).0);
        }
    }

    #[test]
    fn max_key_set_pops_in_descending_order() {
        let mut set = MaxKeySet::new(70_000);
        let keys = [0usize, 1, 63, 64, 4095, 4096, 69_999, 12_345];
        for &k in &keys {
            set.insert(k);
        }
        set.insert(64); // already present
        set.remove(1);
        set.remove(2); // absent
        let mut want: Vec<usize> = keys.iter().copied().filter(|&k| k != 1).collect();
        want.sort_unstable_by(|a, b| b.cmp(a));
        let got: Vec<usize> = std::iter::from_fn(|| set.pop_max()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fm_reduces_cut_vs_random() {
        let nl = generate(&GeneratorConfig::default());
        let random = crate::random::random_balanced(&nl, 7);
        let fm = MinCutPartitioner::default().partition(&nl, 2);
        assert!(
            fm.cut_nets(&nl) < random.cut_nets(&nl),
            "FM {} should beat random {}",
            fm.cut_nets(&nl),
            random.cut_nets(&nl)
        );
    }

    #[test]
    fn fm_respects_balance() {
        let nl = generate(&GeneratorConfig::default());
        let p = MinCutPartitioner::default().partition(&nl, 2);
        assert!(p.area_imbalance(&nl) <= 0.25, "{}", p.area_imbalance(&nl));
    }

    #[test]
    fn fm_pins_ports_to_bottom() {
        let nl = generate(&GeneratorConfig::default());
        let p = MinCutPartitioner::default().partition(&nl, 2);
        for &g in nl.inputs().iter().chain(nl.outputs()) {
            assert_eq!(p.tier_of(g), Tier::BOTTOM);
        }
    }

    #[test]
    fn fm_is_deterministic() {
        let nl = generate(&GeneratorConfig::default());
        let a = MinCutPartitioner::default().partition(&nl, 2);
        let b = MinCutPartitioner::default().partition(&nl, 2);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "bipartitions")]
    fn fm_rejects_three_tiers() {
        let nl = generate(&GeneratorConfig {
            n_comb_gates: 64,
            n_flops: 4,
            ..GeneratorConfig::default()
        });
        MinCutPartitioner::default().partition(&nl, 3);
    }
}
