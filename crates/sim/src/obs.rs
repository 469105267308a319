//! Observation points of a scan design.
//!
//! During scan testing, a failure can be observed at three kinds of sites:
//! flip-flop D inputs (captured and scanned out), primary outputs, and
//! observation test points. [`ObsPoints`] assigns each a dense [`ObsId`]
//! and records the net it watches.

use m3d_netlist::{CellKind, GateId, NetId, Netlist};
use std::fmt;

/// Dense identifier of an observation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObsId(pub u32);

impl ObsId {
    /// Index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obs{}", self.0)
    }
}

/// The kind of structure observing a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObsKind {
    /// A scan flip-flop capturing its D input.
    FlopD,
    /// A primary output.
    Po,
    /// An observation test point.
    Tp,
}

/// One observation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsPoint {
    /// What kind of structure observes.
    pub kind: ObsKind,
    /// The observing gate (flop, output port, or test point).
    pub gate: GateId,
    /// The net whose captured value is observed.
    pub net: NetId,
}

/// The full observation-point table of a netlist: flops first (in netlist
/// flop order), then primary outputs, then test points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsPoints {
    points: Vec<ObsPoint>,
    flop_count: usize,
    /// Gate index → its observation point's id, [`NOT_OBSERVING`] for
    /// every other gate.
    by_gate: Vec<u32>,
}

/// `by_gate` marker of a gate that observes nothing.
const NOT_OBSERVING: u32 = u32::MAX;

impl ObsPoints {
    /// Collects the observation points of `nl`.
    ///
    /// # Panics
    ///
    /// Panics if a flop has no connected D input (validate the netlist
    /// first).
    pub fn collect(nl: &Netlist) -> Self {
        let mut points = Vec::new();
        for &ff in nl.flops() {
            let d = *nl
                .gate(ff)
                .inputs
                .first()
                .expect("flop D input must be connected");
            points.push(ObsPoint {
                kind: ObsKind::FlopD,
                gate: ff,
                net: d,
            });
        }
        let flop_count = points.len();
        for &po in nl.outputs() {
            points.push(ObsPoint {
                kind: ObsKind::Po,
                gate: po,
                net: nl.gate(po).inputs[0],
            });
        }
        for &tp in nl.obs_points() {
            points.push(ObsPoint {
                kind: ObsKind::Tp,
                gate: tp,
                net: nl.gate(tp).inputs[0],
            });
        }
        let mut by_gate = vec![NOT_OBSERVING; nl.gate_count()];
        for (i, p) in points.iter().enumerate() {
            by_gate[p.gate.index()] = i as u32;
        }
        ObsPoints {
            points,
            flop_count,
            by_gate,
        }
    }

    /// Total number of observation points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if there are no observation points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of flop observation points (they occupy ids `0..flop_count`).
    #[inline]
    pub fn flop_count(&self) -> usize {
        self.flop_count
    }

    /// The observation point for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn point(&self, id: ObsId) -> ObsPoint {
        self.points[id.index()]
    }

    /// The observation point for `id`, or `None` when the id is out of
    /// range — the checked lookup for ids read from an untrusted tester
    /// log.
    #[inline]
    pub fn get(&self, id: ObsId) -> Option<ObsPoint> {
        self.points.get(id.index()).copied()
    }

    /// Iterates over `(ObsId, ObsPoint)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ObsId, ObsPoint)> + '_ {
        self.points
            .iter()
            .enumerate()
            .map(|(i, &p)| (ObsId(i as u32), p))
    }

    /// Finds the observation point attached to a given observing gate
    /// (`None` for any other gate, including out-of-range ids).
    pub fn of_gate(&self, gate: GateId) -> Option<ObsId> {
        match self.by_gate.get(gate.index()) {
            Some(&i) if i != NOT_OBSERVING => Some(ObsId(i)),
            _ => None,
        }
    }
}

/// Convenience: `true` if a gate kind terminates fault propagation and is
/// observable.
pub fn is_observing_kind(kind: CellKind) -> bool {
    matches!(
        kind,
        CellKind::ScanDff | CellKind::Dff | CellKind::Output | CellKind::ObsPoint
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{generate, insert_observation_points, GeneratorConfig, TestPointConfig};

    #[test]
    fn collect_orders_flops_first() {
        let mut nl = generate(&GeneratorConfig::default());
        insert_observation_points(&mut nl, &TestPointConfig::default());
        let obs = ObsPoints::collect(&nl);
        assert_eq!(obs.flop_count(), nl.flops().len());
        assert_eq!(
            obs.len(),
            nl.flops().len() + nl.outputs().len() + nl.obs_points().len()
        );
        for (id, p) in obs.iter() {
            if id.index() < obs.flop_count() {
                assert_eq!(p.kind, ObsKind::FlopD);
            }
        }
    }

    #[test]
    fn get_is_checked() {
        let nl = generate(&GeneratorConfig::default());
        let obs = ObsPoints::collect(&nl);
        assert_eq!(obs.get(ObsId(0)), Some(obs.point(ObsId(0))));
        assert_eq!(obs.get(ObsId(obs.len() as u32)), None);
    }

    #[test]
    fn of_gate_round_trips() {
        let nl = generate(&GeneratorConfig::default());
        let obs = ObsPoints::collect(&nl);
        for (id, p) in obs.iter() {
            assert_eq!(obs.of_gate(p.gate), Some(id));
        }
        let plain = nl
            .iter_gates()
            .find(|(_, g)| !is_observing_kind(g.kind))
            .map(|(id, _)| id)
            .expect("a generated netlist has combinational gates");
        assert_eq!(obs.of_gate(plain), None);
        assert_eq!(obs.of_gate(GateId(u32::MAX - 1)), None);
    }

    #[test]
    fn observed_nets_are_gate_inputs() {
        let nl = generate(&GeneratorConfig::default());
        let obs = ObsPoints::collect(&nl);
        for (_, p) in obs.iter() {
            assert_eq!(nl.gate(p.gate).inputs[0], p.net);
        }
    }
}
