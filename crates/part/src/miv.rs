//! Monolithic inter-tier via (MIV) insertion and the [`M3dNetlist`] view.
//!
//! After tier partitioning, every net whose driver and loads span tiers is
//! routed through MIVs: one via per adjacent-tier boundary the net crosses.
//! MIVs are first-class diagnosable objects in the paper — they are prone
//! to void-induced delay defects and become dedicated nodes in the
//! heterogeneous graph — so we track, for each MIV, its net and the load
//! pins on the far side of the boundary.

use crate::partition::{Tier, TierPartition};
use m3d_netlist::{NetId, Netlist, PinRef};
use std::fmt;

/// Identifier of an MIV within an [`M3dNetlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MivId(pub u32);

impl MivId {
    /// Index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MivId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "miv{}", self.0)
    }
}

/// One monolithic inter-tier via.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Miv {
    /// The net this via carries between tiers.
    pub net: NetId,
    /// Boundary crossed: between `boundary` and `boundary + 1`.
    pub boundary: Tier,
    /// Load input pins of the net that sit on the opposite side of the
    /// boundary from the driver (the pins a defective via delays).
    pub far_loads: Vec<PinRef>,
}

/// Aggregate statistics of an M3D design (Table III reporting).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct M3dStats {
    /// Total MIV count.
    pub mivs: usize,
    /// Nets spanning more than one tier.
    pub cut_nets: usize,
    /// Gates per tier.
    pub gates_per_tier: Vec<usize>,
    /// Standard-cell area per tier.
    pub area_per_tier: Vec<f64>,
}

/// A tier-partitioned netlist with inserted MIVs.
///
/// ```
/// use m3d_netlist::{generate, GeneratorConfig};
/// use m3d_part::{M3dNetlist, MinCutPartitioner, Partitioner};
///
/// let nl = generate(&GeneratorConfig::default());
/// let part = MinCutPartitioner::default().partition(&nl, 2);
/// let m3d = M3dNetlist::build(nl, part);
/// assert!(m3d.miv_count() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct M3dNetlist {
    netlist: Netlist,
    partition: TierPartition,
    mivs: Vec<Miv>,
    /// MIV ids per net, indexed by net id.
    net_mivs: Vec<Vec<MivId>>,
}

impl M3dNetlist {
    /// Inserts MIVs for every tier-crossing net of `netlist` under
    /// `partition`.
    ///
    /// # Panics
    ///
    /// Panics if `partition` does not cover every gate of `netlist`.
    pub fn build(netlist: Netlist, partition: TierPartition) -> Self {
        assert_eq!(
            partition.as_slice().len(),
            netlist.gate_count(),
            "partition must cover every gate"
        );
        let mut mivs = Vec::new();
        let mut net_mivs = vec![Vec::new(); netlist.net_count()];
        for (nid, net) in netlist.iter_nets() {
            let Some(drv) = net.driver else { continue };
            let t_drv = partition.tier_of(drv);
            let mut lo = t_drv;
            let mut hi = t_drv;
            for &(g, _) in &net.loads {
                let t = partition.tier_of(g);
                lo = lo.min(t);
                hi = hi.max(t);
            }
            // One MIV per adjacent-tier boundary the net spans.
            for b in lo.0..hi.0 {
                let boundary = Tier(b);
                // Far side relative to the driver: loads strictly beyond the
                // boundary seen from the driver's side.
                let driver_below = t_drv.0 <= b;
                let far_loads: Vec<PinRef> = net
                    .loads
                    .iter()
                    .filter(|&&(g, _)| {
                        let t = partition.tier_of(g);
                        if driver_below {
                            t.0 > b
                        } else {
                            t.0 <= b
                        }
                    })
                    .map(|&(g, k)| PinRef::input(g, k))
                    .collect();
                let id = MivId(mivs.len() as u32);
                net_mivs[nid.index()].push(id);
                mivs.push(Miv {
                    net: nid,
                    boundary,
                    far_loads,
                });
            }
        }
        M3dNetlist {
            netlist,
            partition,
            mivs,
            net_mivs,
        }
    }

    /// The underlying netlist.
    #[inline]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The tier assignment.
    #[inline]
    pub fn partition(&self) -> &TierPartition {
        &self.partition
    }

    /// Number of MIVs.
    #[inline]
    pub fn miv_count(&self) -> usize {
        self.mivs.len()
    }

    /// All MIVs.
    pub fn mivs(&self) -> &[Miv] {
        &self.mivs
    }

    /// The MIV record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn miv(&self, id: MivId) -> &Miv {
        &self.mivs[id.index()]
    }

    /// MIVs carried by `net` (empty for intra-tier nets).
    pub fn mivs_of_net(&self, net: NetId) -> &[MivId] {
        &self.net_mivs[net.index()]
    }

    /// The tier a fault site (pin) lives on: the tier of its gate.
    pub fn tier_of_site(&self, pin: PinRef) -> Tier {
        self.partition.tier_of(pin.gate)
    }

    /// MIVs a fault site is *equivalent to*: a delay fault at this pin is
    /// indistinguishable (for tier-level purposes) from a defect in the
    /// returned vias. That is the case for the driver output pin of a
    /// tier-crossing net and for the far-side load pins of each via.
    pub fn site_mivs(&self, pin: PinRef) -> Vec<MivId> {
        let Some(net) = self.netlist.pin_net(pin) else {
            return Vec::new();
        };
        self.net_mivs[net.index()]
            .iter()
            .copied()
            .filter(|&m| {
                let miv = &self.mivs[m.index()];
                if pin.is_output() {
                    // The driver pin feeds all its vias.
                    self.netlist.net(net).driver == Some(pin.gate)
                } else {
                    miv.far_loads.contains(&pin)
                }
            })
            .collect()
    }

    /// Computes aggregate M3D statistics.
    pub fn stats(&self) -> M3dStats {
        M3dStats {
            mivs: self.mivs.len(),
            cut_nets: self.partition.cut_nets(&self.netlist),
            gates_per_tier: self.partition.gate_histogram(),
            area_per_tier: self.partition.area_histogram(&self.netlist),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::MinCutPartitioner;
    use crate::partition::Partitioner;
    use crate::random::RandomPartitioner;
    use m3d_netlist::{generate, CellKind, GeneratorConfig};

    fn m3d() -> M3dNetlist {
        let nl = generate(&GeneratorConfig::default());
        let part = MinCutPartitioner::default().partition(&nl, 2);
        M3dNetlist::build(nl, part)
    }

    #[test]
    fn mivs_match_cut_nets_two_tier() {
        let m = m3d();
        assert_eq!(m.miv_count(), m.stats().cut_nets);
        assert!(m.miv_count() > 0);
    }

    #[test]
    fn far_loads_are_cross_tier() {
        let m = m3d();
        for miv in m.mivs() {
            let drv = m.netlist().net(miv.net).driver.unwrap();
            let t_drv = m.partition().tier_of(drv);
            assert!(!miv.far_loads.is_empty());
            for &pin in &miv.far_loads {
                assert_ne!(m.tier_of_site(pin), t_drv);
            }
        }
    }

    #[test]
    fn site_mivs_symmetry() {
        let m = m3d();
        let miv0 = &m.mivs()[0];
        let drv = m.netlist().net(miv0.net).driver.unwrap();
        let drv_pin = PinRef::output(drv);
        assert!(m.site_mivs(drv_pin).contains(&MivId(0)));
        for &pin in &miv0.far_loads {
            assert!(m.site_mivs(pin).contains(&MivId(0)));
        }
    }

    #[test]
    fn intra_tier_nets_have_no_mivs() {
        let m = m3d();
        for (nid, net) in m.netlist().iter_nets() {
            let Some(drv) = net.driver else { continue };
            let t = m.partition().tier_of(drv);
            let same = net
                .loads
                .iter()
                .all(|&(g, _)| m.partition().tier_of(g) == t);
            if same {
                assert!(m.mivs_of_net(nid).is_empty());
            }
        }
    }

    #[test]
    fn random_partition_has_more_mivs_than_fm() {
        let nl = generate(&GeneratorConfig::default());
        let fm = M3dNetlist::build(nl.clone(), MinCutPartitioner::default().partition(&nl, 2));
        let rnd = M3dNetlist::build(nl.clone(), RandomPartitioner::new(3).partition(&nl, 2));
        assert!(rnd.miv_count() > fm.miv_count());
    }

    #[test]
    fn multi_tier_nets_get_one_miv_per_boundary() {
        // Hand-build: input(t0) -> inv(t2) requires 2 MIVs on the net.
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let y = nl.add_gate(CellKind::Inv, &[a]).unwrap();
        nl.add_output(y);
        let part = TierPartition::new(vec![Tier(0), Tier(2), Tier(0)], 3);
        let m = M3dNetlist::build(nl, part);
        // Net a spans t0..t2 => 2 MIVs; net y spans t2..t0 => 2 MIVs.
        assert_eq!(m.miv_count(), 4);
    }
}
