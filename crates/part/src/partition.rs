//! Tier assignments and the partitioner interface.

use m3d_netlist::{CellKind, GateId, Netlist};
use std::fmt;

/// A device tier in an M3D stack. `Tier(0)` is the bottom tier (where I/O
/// ports are pinned); higher values are upper tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tier(pub u8);

impl Tier {
    /// The bottom tier.
    pub const BOTTOM: Tier = Tier(0);
    /// The top tier of a two-tier stack.
    pub const TOP: Tier = Tier(1);

    /// Tier index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tier{}", self.0)
    }
}

/// A tier assignment for every gate of a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierPartition {
    tiers: Vec<Tier>,
    n_tiers: usize,
}

impl TierPartition {
    /// Builds a partition from an explicit per-gate assignment.
    ///
    /// # Panics
    ///
    /// Panics if any tier index is `>= n_tiers` or `n_tiers == 0`.
    pub fn new(tiers: Vec<Tier>, n_tiers: usize) -> Self {
        assert!(n_tiers > 0, "need at least one tier");
        assert!(
            tiers.iter().all(|t| t.index() < n_tiers),
            "tier index out of range"
        );
        TierPartition { tiers, n_tiers }
    }

    /// Number of tiers.
    #[inline]
    pub fn tier_count(&self) -> usize {
        self.n_tiers
    }

    /// Tier of gate `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range for the partitioned netlist.
    #[inline]
    pub fn tier_of(&self, g: GateId) -> Tier {
        self.tiers[g.index()]
    }

    /// The raw per-gate tier slice.
    pub fn as_slice(&self) -> &[Tier] {
        &self.tiers
    }

    /// Mutable access for refinement passes.
    pub(crate) fn set(&mut self, g: GateId, t: Tier) {
        self.tiers[g.index()] = t;
    }

    /// Gate count per tier.
    pub fn gate_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.n_tiers];
        for t in &self.tiers {
            h[t.index()] += 1;
        }
        h
    }

    /// Standard-cell area per tier.
    pub fn area_histogram(&self, nl: &Netlist) -> Vec<f64> {
        let mut h = vec![0f64; self.n_tiers];
        for (id, g) in nl.iter_gates() {
            h[self.tier_of(id).index()] += g.kind.area(g.inputs.len() as u8);
        }
        h
    }

    /// Relative area imbalance: `(max - min) / total` over tiers.
    pub fn area_imbalance(&self, nl: &Netlist) -> f64 {
        let h = self.area_histogram(nl);
        let total: f64 = h.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        let max = h.iter().cloned().fold(f64::MIN, f64::max);
        let min = h.iter().cloned().fold(f64::MAX, f64::min);
        (max - min) / total
    }

    /// Number of nets whose driver and loads span more than one tier.
    pub fn cut_nets(&self, nl: &Netlist) -> usize {
        nl.iter_nets()
            .filter(|(_, net)| {
                let Some(drv) = net.driver else { return false };
                let t0 = self.tier_of(drv);
                net.loads.iter().any(|&(g, _)| self.tier_of(g) != t0)
            })
            .count()
    }
}

/// A tier-partitioning algorithm.
///
/// Implementations must pin port gates ([`CellKind::Input`],
/// [`CellKind::Output`], [`CellKind::ObsPoint`]) to [`Tier::BOTTOM`], since
/// I/O pads and DfT taps live on the bottom tier of an M3D stack.
pub trait Partitioner {
    /// Partitions `nl` into `n_tiers` tiers.
    fn partition(&self, nl: &Netlist, n_tiers: usize) -> TierPartition;

    /// Human-readable algorithm name for reports.
    fn name(&self) -> &'static str;
}

/// Returns `true` for gates that must stay on the bottom tier.
pub(crate) fn is_pinned(kind: CellKind) -> bool {
    matches!(
        kind,
        CellKind::Input | CellKind::Output | CellKind::ObsPoint
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{generate, GeneratorConfig};

    #[test]
    fn histogram_and_imbalance() {
        let nl = generate(&GeneratorConfig::default());
        let n = nl.gate_count();
        let tiers: Vec<Tier> = (0..n).map(|i| Tier((i % 2) as u8)).collect();
        let p = TierPartition::new(tiers, 2);
        let h = p.gate_histogram();
        assert_eq!(h.iter().sum::<usize>(), n);
        assert!(p.area_imbalance(&nl) < 0.5);
    }

    #[test]
    #[should_panic(expected = "tier index out of range")]
    fn new_rejects_out_of_range() {
        TierPartition::new(vec![Tier(2)], 2);
    }

    #[test]
    fn cut_nets_counts_spanning_nets() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let y = nl.add_gate(CellKind::Inv, &[a]).unwrap();
        nl.add_output(y);
        // input(g0) t0, inv(g1) t1, output(g2) t0 => both nets cut.
        let p = TierPartition::new(vec![Tier(0), Tier(1), Tier(0)], 2);
        assert_eq!(p.cut_nets(&nl), 2);
        let p0 = TierPartition::new(vec![Tier(0); 3], 2);
        assert_eq!(p0.cut_nets(&nl), 0);
    }
}
