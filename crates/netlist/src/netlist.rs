//! The gate-level netlist graph.
//!
//! A [`Netlist`] is a bipartite gate/net graph: gates (cell instances) drive
//! and load nets. Primary inputs and outputs are modelled as port *gates* of
//! kind [`CellKind::Input`] / [`CellKind::Output`], and flip-flops as
//! single-input gates whose Q output is a pseudo primary input and whose D
//! input is a pseudo primary output for two-pattern scan testing.

use crate::cell::CellKind;
use crate::error::NetlistError;
use crate::ids::{GateId, NetId, Pin, PinRef};

/// One cell instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Cell kind (logic function / role).
    pub kind: CellKind,
    /// Nets connected to the input pins, in pin order.
    pub inputs: Vec<NetId>,
    /// Net driven by the output pin, if the kind has one.
    pub output: Option<NetId>,
}

impl Gate {
    /// Number of input pins.
    #[inline]
    pub fn arity(&self) -> usize {
        self.inputs.len()
    }

    /// Iterates over all pins of this gate as [`PinRef`]s for gate `id`.
    pub fn pins(&self, id: GateId) -> impl Iterator<Item = PinRef> + '_ {
        let n = self.inputs.len() as u8;
        let has_out = self.output.is_some();
        (0..n)
            .map(move |k| PinRef::input(id, k))
            .chain(has_out.then(|| PinRef::output(id)))
    }
}

/// One net (wire): a driver pin and a set of load pins.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Net {
    /// The gate whose output drives this net (`None` while under
    /// construction; validation requires a driver).
    pub driver: Option<GateId>,
    /// Load pins `(gate, input-pin-index)`, kept sorted so that structural
    /// equality is independent of construction order.
    pub loads: Vec<(GateId, u8)>,
}

impl Net {
    /// Fanout count of this net.
    #[inline]
    pub fn fanout(&self) -> usize {
        self.loads.len()
    }
}

/// Aggregate statistics of a netlist (used by Table III reporting).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetlistStats {
    /// Total gate count, including port and DfT pseudo-cells.
    pub gates: usize,
    /// Combinational logic gates only.
    pub comb_gates: usize,
    /// Flip-flop count.
    pub flops: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Observation test points.
    pub obs_points: usize,
    /// Net count.
    pub nets: usize,
    /// Maximum net fanout.
    pub max_fanout: usize,
    /// Total standard-cell area (relative units).
    pub area: f64,
}

/// A gate-level netlist.
///
/// # Construction
///
/// `Netlist` is built incrementally:
///
/// ```
/// use m3d_netlist::{Netlist, CellKind};
///
/// # fn main() -> Result<(), m3d_netlist::NetlistError> {
/// let mut nl = Netlist::new();
/// let a = nl.add_input();
/// let b = nl.add_input();
/// let y = nl.add_gate(CellKind::Nand, &[a, b])?;
/// nl.add_output(y);
/// nl.validate()?;
/// assert_eq!(nl.gate_count(), 4); // 2 ports + nand + output port
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Netlist {
    gates: Vec<Gate>,
    nets: Vec<Net>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    flops: Vec<GateId>,
    obs_points: Vec<GateId>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Number of gates (including port/DfT pseudo-cells).
    #[inline]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    #[inline]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Returns the gate record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Returns the net record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Primary-input port gates, in creation order.
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary-output port gates, in creation order.
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// Flip-flops, in creation order.
    pub fn flops(&self) -> &[GateId] {
        &self.flops
    }

    /// Observation test points, in creation order.
    pub fn obs_points(&self) -> &[GateId] {
        &self.obs_points
    }

    /// Iterates over `(GateId, &Gate)` pairs.
    pub fn iter_gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// Iterates over `(NetId, &Net)` pairs.
    pub fn iter_nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Iterates over every fault site (every pin of every gate) in a stable
    /// order: by gate id, inputs first, then output.
    pub fn fault_sites(&self) -> impl Iterator<Item = PinRef> + '_ {
        self.iter_gates().flat_map(|(id, g)| g.pins(id))
    }

    /// Number of fault sites.
    pub fn fault_site_count(&self) -> usize {
        self.gates
            .iter()
            .map(|g| g.inputs.len() + usize::from(g.output.is_some()))
            .sum()
    }

    /// Resolves the net attached to a pin, if the pin exists.
    pub fn pin_net(&self, pin: PinRef) -> Option<NetId> {
        let g = self.gates.get(pin.gate.index())?;
        match pin.pin {
            Pin::Input(k) => g.inputs.get(k as usize).copied(),
            Pin::Output => g.output,
        }
    }

    fn new_net(&mut self) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net::default());
        id
    }

    fn add_load(&mut self, net: NetId, gate: GateId, pin: u8) {
        let loads = &mut self.nets[net.index()].loads;
        let pos = loads.partition_point(|&l| l < (gate, pin));
        loads.insert(pos, (gate, pin));
    }

    fn push_gate(&mut self, gate: Gate) -> GateId {
        let id = GateId(self.gates.len() as u32);
        let inputs = gate.inputs.clone();
        if let Some(out) = gate.output {
            self.nets[out.index()].driver = Some(id);
        }
        self.gates.push(gate);
        for (k, &net) in inputs.iter().enumerate() {
            self.add_load(net, id, k as u8);
        }
        id
    }

    /// Adds a primary input; returns the net it drives.
    pub fn add_input(&mut self) -> NetId {
        let net = self.new_net();
        let id = self.push_gate(Gate {
            kind: CellKind::Input,
            inputs: vec![],
            output: Some(net),
        });
        self.inputs.push(id);
        net
    }

    /// Adds a combinational gate of `kind` with the given input nets;
    /// returns the net driven by its output.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if the input count is outside the
    /// kind's arity range, or [`NetlistError::UnknownNet`] if an input net
    /// does not exist.
    pub fn add_gate(&mut self, kind: CellKind, inputs: &[NetId]) -> Result<NetId, NetlistError> {
        let (lo, hi) = kind.arity_range();
        if inputs.len() < lo as usize || inputs.len() > hi as usize {
            return Err(NetlistError::BadArity {
                gate: GateId(self.gates.len() as u32),
                got: inputs.len(),
                expected: (lo, hi),
            });
        }
        for &n in inputs {
            if n.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet(n));
            }
        }
        debug_assert!(kind.is_combinational(), "add_gate is for logic cells");
        let out = self.new_net();
        self.push_gate(Gate {
            kind,
            inputs: inputs.to_vec(),
            output: Some(out),
        });
        Ok(out)
    }

    /// Adds a primary-output port observing `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not exist.
    pub fn add_output(&mut self, net: NetId) -> GateId {
        assert!(net.index() < self.nets.len(), "unknown net {net}");
        let id = self.push_gate(Gate {
            kind: CellKind::Output,
            inputs: vec![net],
            output: None,
        });
        self.outputs.push(id);
        id
    }

    /// Adds an observation test point on `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not exist.
    pub fn add_obs_point(&mut self, net: NetId) -> GateId {
        assert!(net.index() < self.nets.len(), "unknown net {net}");
        let id = self.push_gate(Gate {
            kind: CellKind::ObsPoint,
            inputs: vec![net],
            output: None,
        });
        self.obs_points.push(id);
        id
    }

    /// Adds a flip-flop with a yet-unconnected D input; returns the flop id
    /// and its Q net. Connect the D input later with
    /// [`Netlist::connect_flop_d`].
    pub fn add_flop(&mut self, scan: bool) -> (GateId, NetId) {
        let q = self.new_net();
        let id = self.push_gate(Gate {
            kind: if scan {
                CellKind::ScanDff
            } else {
                CellKind::Dff
            },
            inputs: vec![],
            output: Some(q),
        });
        self.flops.push(id);
        (id, q)
    }

    /// Connects the D input of flop `flop` to `net`.
    ///
    /// # Errors
    ///
    /// Returns an error if `flop` is not a flip-flop, its D input is already
    /// connected, or `net` does not exist.
    pub fn connect_flop_d(&mut self, flop: GateId, net: NetId) -> Result<(), NetlistError> {
        if net.index() >= self.nets.len() {
            return Err(NetlistError::UnknownNet(net));
        }
        let g = self
            .gates
            .get_mut(flop.index())
            .ok_or(NetlistError::UnknownGate(flop))?;
        if !g.kind.is_sequential() {
            return Err(NetlistError::UnknownGate(flop));
        }
        if !g.inputs.is_empty() {
            return Err(NetlistError::BadArity {
                gate: flop,
                got: 2,
                expected: (1, 1),
            });
        }
        g.inputs.push(net);
        self.add_load(net, flop, 0);
        Ok(())
    }

    /// Inserts a buffer after `net`: all existing loads of `net` are moved
    /// to the buffer's output net. Returns `(buffer gate, new net)`.
    ///
    /// This is the structural primitive behind the paper's dummy-buffer
    /// oversampling and our Syn-2 corner modelling.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not exist.
    pub fn insert_buffer(&mut self, net: NetId) -> (GateId, NetId) {
        assert!(net.index() < self.nets.len(), "unknown net {net}");
        let moved = std::mem::take(&mut self.nets[net.index()].loads);
        let out = self.new_net();
        let buf = self.push_gate(Gate {
            kind: CellKind::Buf,
            inputs: vec![net],
            output: Some(out),
        });
        for &(g, k) in &moved {
            self.gates[g.index()].inputs[k as usize] = out;
        }
        self.nets[out.index()].loads = moved;
        (buf, out)
    }

    /// Reconstructs a netlist from a flat gate list and a net count (the
    /// inverse of dumping gates in id order, used by the text format
    /// parser). Net driver/load tables and port/flop indexes are rebuilt.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] if a gate references a net id
    /// `>= net_count`, or any error from [`Netlist::validate`].
    pub fn from_gates(net_count: usize, gates: Vec<Gate>) -> Result<Netlist, NetlistError> {
        let mut nl = Netlist {
            gates: Vec::with_capacity(gates.len()),
            nets: vec![Net::default(); net_count],
            inputs: vec![],
            outputs: vec![],
            flops: vec![],
            obs_points: vec![],
        };
        for gate in gates {
            for &n in gate.inputs.iter().chain(gate.output.iter()) {
                if n.index() >= net_count {
                    return Err(NetlistError::UnknownNet(n));
                }
            }
            let id = GateId(nl.gates.len() as u32);
            match gate.kind {
                CellKind::Input => nl.inputs.push(id),
                CellKind::Output => nl.outputs.push(id),
                CellKind::ObsPoint => nl.obs_points.push(id),
                CellKind::Dff | CellKind::ScanDff => nl.flops.push(id),
                _ => {}
            }
            nl.push_gate(gate);
        }
        nl.validate()?;
        Ok(nl)
    }

    /// Computes aggregate statistics.
    pub fn stats(&self) -> NetlistStats {
        let mut s = NetlistStats {
            gates: self.gates.len(),
            nets: self.nets.len(),
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
            flops: self.flops.len(),
            obs_points: self.obs_points.len(),
            ..NetlistStats::default()
        };
        for g in &self.gates {
            if g.kind.is_combinational() {
                s.comb_gates += 1;
            }
            s.area += g.kind.area(g.inputs.len() as u8);
        }
        s.max_fanout = self.nets.iter().map(Net::fanout).max().unwrap_or(0);
        s
    }

    /// Validates structural invariants: arity ranges, every net driven,
    /// every flop connected, and no combinational cycles.
    ///
    /// Dangling nets (driven but unloaded) are permitted — they occur in
    /// real netlists after optimization; use [`Netlist::dangling_nets`] to
    /// enumerate them.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, g) in self.iter_gates() {
            let (lo, hi) = g.kind.arity_range();
            let n = g.inputs.len();
            if g.kind.is_sequential() && n == 0 {
                return Err(NetlistError::UnconnectedFlop(id));
            }
            if n < lo as usize || n > hi as usize {
                return Err(NetlistError::BadArity {
                    gate: id,
                    got: n,
                    expected: (lo, hi),
                });
            }
            if g.kind.has_output() != g.output.is_some() {
                return Err(NetlistError::UnknownGate(id));
            }
        }
        for (id, net) in self.iter_nets() {
            if net.driver.is_none() {
                return Err(NetlistError::UndrivenNet(id));
            }
        }
        // Cycle check via Kahn's algorithm over the combinational graph
        // (flop outputs are sources, flop inputs are cut).
        let order = crate::topo::topological_order(self);
        let comb: usize = self
            .gates
            .iter()
            .filter(|g| !g.kind.is_sequential())
            .count();
        if order.len() < comb + self.flops.len() {
            let visited: std::collections::HashSet<GateId> = order.into_iter().collect();
            let culprit = self
                .iter_gates()
                .find(|(id, _)| !visited.contains(id))
                .map(|(id, _)| id)
                .unwrap_or(GateId(0));
            return Err(NetlistError::CombinationalCycle(culprit));
        }
        Ok(())
    }

    /// Enumerates nets that are driven but have no loads.
    pub fn dangling_nets(&self) -> Vec<NetId> {
        self.iter_nets()
            .filter(|(_, n)| n.loads.is_empty())
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let y = nl.add_gate(CellKind::And, &[a, b]).unwrap();
        nl.add_output(y);
        nl
    }

    #[test]
    fn build_and_validate_tiny() {
        let nl = tiny();
        assert_eq!(nl.gate_count(), 4);
        assert_eq!(nl.net_count(), 3);
        nl.validate().unwrap();
        assert_eq!(nl.stats().comb_gates, 1);
    }

    #[test]
    fn fault_sites_cover_all_pins() {
        let nl = tiny();
        let sites: Vec<_> = nl.fault_sites().collect();
        // input ports: 1 output pin each (2); and: 2 in + 1 out (3);
        // output port: 1 in (1) => 6 total.
        assert_eq!(sites.len(), 6);
        assert_eq!(sites.len(), nl.fault_site_count());
    }

    #[test]
    fn pin_net_resolution() {
        let nl = tiny();
        let and_gate = GateId(2);
        assert_eq!(nl.pin_net(PinRef::input(and_gate, 0)), Some(NetId(0)));
        assert_eq!(nl.pin_net(PinRef::output(and_gate)), Some(NetId(2)));
        assert_eq!(nl.pin_net(PinRef::input(and_gate, 5)), None);
        assert_eq!(nl.pin_net(PinRef::output(GateId(99))), None);
    }

    #[test]
    fn flop_connection_lifecycle() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let (ff, q) = nl.add_flop(true);
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::UnconnectedFlop(_))
        ));
        let y = nl.add_gate(CellKind::Inv, &[q]).unwrap();
        nl.connect_flop_d(ff, a).unwrap();
        nl.add_output(y);
        nl.validate().unwrap();
        // Double connection rejected.
        assert!(nl.connect_flop_d(ff, a).is_err());
    }

    #[test]
    fn bad_arity_rejected() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        assert!(matches!(
            nl.add_gate(CellKind::And, &[a]),
            Err(NetlistError::BadArity { .. })
        ));
        assert!(nl.add_gate(CellKind::And, &[a, a, a, a, a]).is_err());
    }

    #[test]
    fn unknown_net_rejected() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        assert!(matches!(
            nl.add_gate(CellKind::Inv, &[NetId(42)]),
            Err(NetlistError::UnknownNet(_))
        ));
        let _ = a;
    }

    #[test]
    fn insert_buffer_rewires_loads() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let y1 = nl.add_gate(CellKind::Inv, &[a]).unwrap();
        let y2 = nl.add_gate(CellKind::Buf, &[a]).unwrap();
        nl.add_output(y1);
        nl.add_output(y2);
        let before = nl.net(a).fanout();
        assert_eq!(before, 2);
        let (_, newnet) = nl.insert_buffer(a);
        assert_eq!(nl.net(a).fanout(), 1); // only the buffer now
        assert_eq!(nl.net(newnet).fanout(), 2);
        nl.validate().unwrap();
    }

    #[test]
    fn dangling_nets_reported_not_fatal() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let y = nl.add_gate(CellKind::Inv, &[a]).unwrap();
        // y never consumed.
        assert_eq!(nl.dangling_nets(), vec![y]);
        nl.validate().unwrap();
    }

    #[test]
    fn stats_area_positive() {
        let nl = tiny();
        assert!(nl.stats().area > 0.0);
        assert_eq!(nl.stats().max_fanout, 1);
    }
}
