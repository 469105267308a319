//! Fault-free two-pattern (launch-on-capture) logic simulation.
//!
//! For every pattern, V1 is the scan-loaded state (plus held primary-input
//! values) and V2 is the state after the launch clock: primary inputs are
//! held, and each flop output takes the value its D input had under V1.
//! [`PatternSim`] evaluates both vectors for every net, 64 patterns per
//! word, and exposes the per-net transition words `V1 ^ V2` — the
//! "memorized transitions" of the paper's Table I feature `T_pat`.

use crate::patterns::PatternSet;
use m3d_netlist::{topo, CellKind, NetId, Netlist};

/// Fault-free V1/V2 net values for a pattern set.
#[derive(Debug, Clone)]
pub struct PatternSim {
    n_nets: usize,
    n_words: usize,
    /// `v1[w][net]`, `v2[w][net]`: packed values of every net.
    v1: Vec<Vec<u64>>,
    v2: Vec<Vec<u64>>,
}

impl PatternSim {
    /// Simulates `pats` on `nl`.
    ///
    /// Pattern sources must be ordered primary inputs first, then flops —
    /// the order produced by [`PatternSet::random`] when sized with
    /// [`source_count_for`].
    ///
    /// # Panics
    ///
    /// Panics if `pats.source_count() != source_count_for(nl)` or if the
    /// netlist has a combinational cycle.
    pub fn run(nl: &Netlist, pats: &PatternSet) -> Self {
        assert_eq!(
            pats.source_count(),
            source_count_for(nl),
            "pattern source count must equal PIs + flops"
        );
        let order = topo::topological_order(nl);
        assert_eq!(order.len(), nl.gate_count(), "cyclic netlist");
        let n_nets = nl.net_count();
        let n_words = pats.word_count();
        let mut v1 = vec![vec![0u64; n_nets]; n_words];
        let mut v2 = vec![vec![0u64; n_nets]; n_words];
        let n_pi = nl.inputs().len();
        let mut in_words: Vec<u64> = Vec::with_capacity(4);

        for w in 0..n_words {
            // --- V1: sources from the pattern set, then evaluate.
            for (s, &pi) in nl.inputs().iter().enumerate() {
                let net = nl.gate(pi).output.expect("input port drives a net");
                v1[w][net.index()] = pats.word(s, w);
            }
            for (k, &ff) in nl.flops().iter().enumerate() {
                let net = nl.gate(ff).output.expect("flop drives Q");
                v1[w][net.index()] = pats.word(n_pi + k, w);
            }
            eval_pass(nl, &order, &mut v1[w], &mut in_words);

            // --- V2: launch clock. PIs held; flops capture f(V1).
            for (s, &pi) in nl.inputs().iter().enumerate() {
                let net = nl.gate(pi).output.expect("input port drives a net");
                v2[w][net.index()] = pats.word(s, w);
            }
            for &ff in nl.flops() {
                let q = nl.gate(ff).output.expect("flop drives Q");
                let d = nl.gate(ff).inputs[0];
                v2[w][q.index()] = v1[w][d.index()];
            }
            // Temporary move to satisfy the borrow checker: evaluate into a
            // scratch row then store.
            let mut row = std::mem::take(&mut v2[w]);
            eval_pass(nl, &order, &mut row, &mut in_words);
            v2[w] = row;
        }
        PatternSim {
            n_nets,
            n_words,
            v1,
            v2,
        }
    }

    /// Number of nets simulated.
    #[inline]
    pub fn net_count(&self) -> usize {
        self.n_nets
    }

    /// Number of 64-pattern words.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.n_words
    }

    /// Packed V1 value of `net` in word `w`.
    #[inline]
    pub fn v1(&self, w: usize, net: NetId) -> u64 {
        self.v1[w][net.index()]
    }

    /// Packed V2 value of `net` in word `w`.
    #[inline]
    pub fn v2(&self, w: usize, net: NetId) -> u64 {
        self.v2[w][net.index()]
    }

    /// Full V1 row for word `w` (one value per net).
    #[inline]
    pub fn v1_row(&self, w: usize) -> &[u64] {
        &self.v1[w]
    }

    /// Full V2 row for word `w` (one value per net).
    #[inline]
    pub fn v2_row(&self, w: usize) -> &[u64] {
        &self.v2[w]
    }

    /// Packed transition word of `net`: bit `i` set iff the net switches
    /// between V1 and V2 under pattern `64·w + i`.
    #[inline]
    pub fn transitions(&self, w: usize, net: NetId) -> u64 {
        self.v1[w][net.index()] ^ self.v2[w][net.index()]
    }

    /// Whether `net` transitions under pattern `p`.
    pub fn net_transition(&self, net: NetId, p: usize) -> bool {
        (self.transitions(p / 64, net) >> (p % 64)) & 1 == 1
    }

    /// Exclusive upper bound on the pattern indices
    /// [`PatternSim::net_transition`] can be asked about (the packed word
    /// count times 64). Pattern numbers read from an untrusted tester log
    /// must be screened against this before querying transitions.
    #[inline]
    pub fn pattern_capacity(&self) -> usize {
        self.n_words * 64
    }

    /// Number of patterns (out of `pats.len()`) under which each net
    /// transitions — the `T_pat` feature of Table I.
    pub fn transition_counts(&self, pats: &PatternSet) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_nets];
        for w in 0..self.n_words {
            let mask = pats.tail_mask(w);
            for (net, c) in counts.iter_mut().enumerate() {
                *c += ((self.v1[w][net] ^ self.v2[w][net]) & mask).count_ones();
            }
        }
        counts
    }
}

/// Number of pattern sources `nl` requires: primary inputs plus flops.
pub fn source_count_for(nl: &Netlist) -> usize {
    nl.inputs().len() + nl.flops().len()
}

/// Evaluates all combinational gates over one packed word, in-place on a
/// per-net value row whose source nets are already assigned.
fn eval_pass(
    nl: &Netlist,
    order: &[m3d_netlist::GateId],
    row: &mut [u64],
    in_words: &mut Vec<u64>,
) {
    for &g in order {
        let gate = nl.gate(g);
        match gate.kind {
            CellKind::Input | CellKind::Dff | CellKind::ScanDff => {} // sources
            CellKind::Output | CellKind::ObsPoint => {}               // sinks
            kind => {
                in_words.clear();
                for &inp in &gate.inputs {
                    in_words.push(row[inp.index()]);
                }
                let out = gate.output.expect("combinational gate drives a net");
                row[out.index()] = kind.eval_words(in_words);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{generate, GeneratorConfig, Netlist};

    /// Builds: ff.Q -> INV -> ff.D, plus pi -> AND(pi, q) -> po.
    fn toggler() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let (ff, q) = nl.add_flop(true);
        let inv = nl.add_gate(CellKind::Inv, &[q]).unwrap();
        nl.connect_flop_d(ff, inv).unwrap();
        let y = nl.add_gate(CellKind::And, &[a, q]).unwrap();
        nl.add_output(y);
        nl.validate().unwrap();
        nl
    }

    #[test]
    fn v2_captures_next_state() {
        let nl = toggler();
        // Source order: [pi, ff]. Pattern 0: pi=1, ff=0. Pattern 1: pi=1, ff=1.
        let mut pats = PatternSet::zeroed(2, 2);
        pats.set_bit(0, 0, true);
        pats.set_bit(0, 1, true);
        pats.set_bit(1, 1, true);
        let sim = PatternSim::run(&nl, &pats);
        let q = nl.gate(nl.flops()[0]).output.unwrap();
        // V1: q = scanned value; V2: q = INV(q_v1) (the toggler).
        assert_eq!(sim.v1(0, q) & 0b11, 0b10);
        assert_eq!(sim.v2(0, q) & 0b11, 0b01);
        // q transitions under both patterns.
        assert_eq!(sim.transitions(0, q) & 0b11, 0b11);
        assert!(sim.net_transition(q, 0));
        assert!(sim.net_transition(q, 1));
    }

    #[test]
    fn primary_inputs_never_transition() {
        let nl = toggler();
        let pats = PatternSet::random(2, 64, 3);
        let sim = PatternSim::run(&nl, &pats);
        let pi_net = nl.gate(nl.inputs()[0]).output.unwrap();
        assert_eq!(sim.transitions(0, pi_net), 0);
    }

    #[test]
    fn transition_counts_match_bitwise() {
        let nl = generate(&GeneratorConfig::default());
        let pats = PatternSet::random(source_count_for(&nl), 100, 5);
        let sim = PatternSim::run(&nl, &pats);
        let counts = sim.transition_counts(&pats);
        // Cross-check one net by scalar counting.
        let net = NetId((nl.net_count() / 2) as u32);
        let mut c = 0;
        for p in 0..100 {
            if sim.net_transition(net, p) {
                c += 1;
            }
        }
        assert_eq!(counts[net.index()], c);
        // Some nets must transition under random patterns.
        assert!(counts.iter().any(|&c| c > 0));
    }

    #[test]
    fn deterministic_across_runs() {
        let nl = generate(&GeneratorConfig::default());
        let pats = PatternSet::random(source_count_for(&nl), 128, 7);
        let a = PatternSim::run(&nl, &pats);
        let b = PatternSim::run(&nl, &pats);
        for w in 0..a.word_count() {
            assert_eq!(a.v2_row(w), b.v2_row(w));
        }
    }

    #[test]
    #[should_panic(expected = "source count")]
    fn wrong_source_count_rejected() {
        let nl = toggler();
        let pats = PatternSet::zeroed(5, 8);
        PatternSim::run(&nl, &pats);
    }
}
