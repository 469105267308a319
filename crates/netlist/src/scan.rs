//! Scan-chain configuration and chain→channel mapping for EDT-style
//! response compaction.
//!
//! After full-scan insertion, flops are stitched into `n_chains` chains of
//! near-equal length. With response compaction (the paper's 20× EDT
//! configuration), groups of up to `compaction_ratio` chains feed one output
//! channel through a combinational XOR compactor; a bypass mode scans out
//! uncompressed responses.

use crate::ids::GateId;
use crate::netlist::Netlist;

/// Scan-chain stitching of a full-scan netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanChains {
    chains: Vec<Vec<GateId>>,
    compaction_ratio: usize,
    /// Gate index → `(chain, position)` of its scan cell, [`UNSTITCHED`]
    /// for every other gate.
    slot: Vec<(u32, u32)>,
}

/// `slot` marker of a gate that is not in any chain.
const UNSTITCHED: (u32, u32) = (u32::MAX, u32::MAX);

impl ScanChains {
    /// Stitches the flops of `nl` into `n_chains` chains of near-equal
    /// length, in flop creation order (a simple but deterministic stitching
    /// comparable to alphabetical stitching in commercial flows).
    ///
    /// `compaction_ratio` is the maximum number of chains per output channel
    /// (the paper uses 20×).
    ///
    /// # Panics
    ///
    /// Panics if `n_chains == 0` or `compaction_ratio == 0`.
    pub fn stitch(nl: &Netlist, n_chains: usize, compaction_ratio: usize) -> Self {
        assert!(n_chains > 0, "need at least one chain");
        assert!(compaction_ratio > 0, "compaction ratio must be positive");
        let flops = nl.flops();
        let mut chains = vec![Vec::new(); n_chains.min(flops.len().max(1))];
        let mut slot = vec![UNSTITCHED; nl.gate_count()];
        for (i, &ff) in flops.iter().enumerate() {
            let c = i % chains.len();
            slot[ff.index()] = (c as u32, chains[c].len() as u32);
            chains[c].push(ff);
        }
        ScanChains {
            chains,
            compaction_ratio,
            slot,
        }
    }

    /// Number of scan chains.
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// Number of compacted output channels.
    pub fn channel_count(&self) -> usize {
        self.chains.len().div_ceil(self.compaction_ratio)
    }

    /// Maximum chain length (scan-shift cycle count).
    pub fn max_chain_length(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The chains themselves: `chains()[c][p]` is the flop at scan position
    /// `p` of chain `c` (position 0 is closest to scan-out).
    pub fn chains(&self) -> &[Vec<GateId>] {
        &self.chains
    }

    /// Compaction ratio (chains per channel).
    pub fn compaction_ratio(&self) -> usize {
        self.compaction_ratio
    }

    /// The channel a chain feeds.
    pub fn channel_of_chain(&self, chain: usize) -> usize {
        chain / self.compaction_ratio
    }

    /// Locates a flop: returns `(chain, position)` if it is stitched
    /// (`None` for any other gate, including out-of-range ids).
    pub fn locate(&self, flop: GateId) -> Option<(usize, usize)> {
        match self.slot.get(flop.index()) {
            Some(&(c, p)) if (c, p) != UNSTITCHED => Some((c as usize, p as usize)),
            _ => None,
        }
    }

    /// All flops that share channel `channel` at scan position `pos`
    /// (the ambiguity set of a compacted failing cycle).
    pub fn flops_at(&self, channel: usize, pos: usize) -> Vec<GateId> {
        let lo = channel * self.compaction_ratio;
        let hi = (lo + self.compaction_ratio).min(self.chains.len());
        (lo..hi)
            .filter_map(|c| self.chains[c].get(pos).copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorConfig};

    fn netlist_with_flops(n: usize) -> Netlist {
        generate(&GeneratorConfig {
            n_flops: n,
            n_comb_gates: 200,
            ..GeneratorConfig::default()
        })
    }

    #[test]
    fn stitch_balances_chains() {
        let nl = netlist_with_flops(103);
        let sc = ScanChains::stitch(&nl, 10, 4);
        assert_eq!(sc.chain_count(), 10);
        let total: usize = sc.chains().iter().map(Vec::len).sum();
        assert_eq!(total, 103);
        let (min, max) = sc
            .chains()
            .iter()
            .map(Vec::len)
            .fold((usize::MAX, 0), |(a, b), l| (a.min(l), b.max(l)));
        assert!(max - min <= 1, "chains must be balanced");
        assert_eq!(sc.max_chain_length(), 11);
    }

    #[test]
    fn channel_mapping() {
        let nl = netlist_with_flops(64);
        let sc = ScanChains::stitch(&nl, 8, 4);
        assert_eq!(sc.channel_count(), 2);
        assert_eq!(sc.channel_of_chain(0), 0);
        assert_eq!(sc.channel_of_chain(3), 0);
        assert_eq!(sc.channel_of_chain(4), 1);
        assert_eq!(sc.compaction_ratio(), 4);
    }

    #[test]
    fn locate_round_trips() {
        let nl = netlist_with_flops(30);
        let sc = ScanChains::stitch(&nl, 4, 2);
        for (c, chain) in sc.chains().iter().enumerate() {
            for (p, &ff) in chain.iter().enumerate() {
                assert_eq!(sc.locate(ff), Some((c, p)));
            }
        }
    }

    #[test]
    fn locate_finds_every_flop_and_nothing_else() {
        let nl = netlist_with_flops(37);
        let sc = ScanChains::stitch(&nl, 5, 2);
        for &ff in nl.flops() {
            let (c, p) = sc.locate(ff).expect("every flop is stitched");
            assert_eq!(sc.chains()[c][p], ff);
        }
        let plain = nl
            .iter_gates()
            .find(|(_, g)| !g.kind.is_sequential())
            .map(|(id, _)| id)
            .expect("a generated netlist has combinational gates");
        assert_eq!(sc.locate(plain), None);
        assert_eq!(sc.locate(GateId(nl.gate_count() as u32)), None);
        assert_eq!(sc.locate(GateId(u32::MAX)), None);
    }

    #[test]
    fn flops_at_returns_ambiguity_set() {
        let nl = netlist_with_flops(40);
        let sc = ScanChains::stitch(&nl, 8, 4);
        let set = sc.flops_at(0, 0);
        assert_eq!(set.len(), 4, "4 chains share channel 0");
        for f in &set {
            let (c, p) = sc.locate(*f).unwrap();
            assert_eq!(p, 0);
            assert_eq!(sc.channel_of_chain(c), 0);
        }
    }

    #[test]
    fn more_chains_than_flops_degrades_gracefully() {
        let nl = netlist_with_flops(3);
        let sc = ScanChains::stitch(&nl, 10, 20);
        assert_eq!(sc.chain_count(), 3);
        assert_eq!(sc.channel_count(), 1);
    }
}
