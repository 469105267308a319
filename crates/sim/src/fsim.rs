//! Event-driven bit-parallel fault simulation.
//!
//! Injecting a TDF only perturbs the transitive fan-out of its site, so the
//! simulator replays the cached fault-free [`PatternSim`] values 64
//! patterns at a time and re-evaluates only where the faulty circuit
//! differs from them:
//!
//! - **Seeds.** Every gate hosting a fault site is evaluated in every word.
//! - **Waves.** Any other gate is evaluated only when one of its input nets
//!   holds a faulty value in this word. A gate whose recomputed output
//!   equals the fault-free V2 word stops the wave; otherwise its loads are
//!   scheduled. Gates leave a binary min-heap in topological order, so a
//!   gate's faulty inputs are final before it reads them.
//! - **Observers.** Flip-flops, primary outputs and test points that load a
//!   faulty net are collected, never evaluated. At the end of the word each
//!   one's captured value, with the faults on its own input pin applied, is
//!   compared with V2 under the word's pattern mask. A flop is evaluated
//!   only as a seed, for a fault on its Q pin (a slow clock-to-Q delays the
//!   launch transition on the Q net itself).
//!
//! **Pattern masks.** [`FaultSimulator::simulate_masked`] simulates only
//! the patterns whose bits a per-word mask sets; [`FaultSimulator::simulate`]
//! is the all-ones mask. A word whose mask is zero is skipped, a wave stops
//! at a net whose faulty value equals V2 on the mask's bits, and observer
//! differences are taken under the mask. Each pattern pair occupies its own
//! bit lane and every gate function and fault polarity is bitwise, so the
//! lanes outside the mask never reach the lanes inside it: the masked
//! detections are exactly the full detections on the masked patterns.
//!
//! Multi-site fault lists (MIV defects span several load pins; Table X
//! injects 2–5 TDFs per tier) are simulated jointly in one faulty pass:
//! activation masks use the faulty circuit's own site values, so
//! downstream faults see upstream fault effects. The faults at one pin
//! compose in fault-list order, a repeated polarity applying once: input
//! pins act on the gathered input words, the output pin on the evaluated
//! output.
//!
//! **Scratch.** A call takes its working memory from a free list on the
//! simulator and returns it when done, so at most one scratch exists per
//! concurrent caller: faulty net values and per-net word stamps
//! (12 B/net), per-gate queued and observed stamps (8 B/gate), the heap
//! and the word's observer list — about 2.2 MB at netcard scale 0.5. The
//! stamps compare against an epoch that advances per simulated word, so
//! nothing is cleared between words or calls; a full clear happens only
//! when the `u32` epoch wraps.

use crate::fault::Tdf;
use crate::obs::{is_observing_kind, ObsId, ObsPoints};
use crate::patterns::PatternSet;
use crate::sim::PatternSim;
use m3d_netlist::{topo, CellKind, GateId, NetId, Netlist, PinRef};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Mutex;

/// One detected failure: pattern index and failing observation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Detection {
    /// Pattern index.
    pub pattern: u32,
    /// Failing observation point.
    pub obs: ObsId,
}

/// A fault simulator bound to a netlist and a pattern set.
#[derive(Debug)]
pub struct FaultSimulator<'a> {
    nl: &'a Netlist,
    pats: &'a PatternSet,
    sim: PatternSim,
    obs: ObsPoints,
    /// Topological position of every gate, and the gate at each position.
    topo_pos: Vec<u32>,
    order: Vec<GateId>,
    /// The all-ones pattern mask, one word per pattern word.
    every_pattern: Vec<u64>,
    /// Scratch of finished calls, reused by the next ones.
    spare: Mutex<Vec<Scratch>>,
}

/// How far [`FaultSimulator::run_fault`] goes after reporting a detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// Simulate every word.
    Never,
    /// Finish the word that has the detection.
    AfterWord,
    /// Stop at once.
    Now,
}

impl<'a> FaultSimulator<'a> {
    /// Runs the fault-free simulation and builds the simulator.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`PatternSim::run`].
    pub fn new(nl: &'a Netlist, pats: &'a PatternSet) -> Self {
        let sim = PatternSim::run(nl, pats);
        let obs = ObsPoints::collect(nl);
        let order = topo::topological_order(nl);
        let mut topo_pos = vec![0u32; nl.gate_count()];
        for (i, &g) in order.iter().enumerate() {
            topo_pos[g.index()] = i as u32;
        }
        FaultSimulator {
            nl,
            pats,
            sim,
            obs,
            topo_pos,
            order,
            every_pattern: vec![u64::MAX; pats.word_count()],
            spare: Mutex::new(Vec::new()),
        }
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &Netlist {
        self.nl
    }

    /// The pattern set under simulation.
    pub fn patterns(&self) -> &PatternSet {
        self.pats
    }

    /// Cached fault-free simulation results.
    pub fn sim(&self) -> &PatternSim {
        &self.sim
    }

    /// The observation-point table.
    pub fn obs(&self) -> &ObsPoints {
        &self.obs
    }

    /// Simulates a (possibly multi-site) fault and returns every detection,
    /// sorted by `(pattern, obs)`.
    pub fn simulate(&self, faults: &[Tdf]) -> Vec<Detection> {
        self.simulate_masked(faults, &self.every_pattern)
    }

    /// [`FaultSimulator::simulate`] restricted to the patterns whose bits
    /// `mask` sets: bit `p % 64` of word `p / 64` selects pattern `p`.
    /// Words past the end of `mask` select nothing, and bits past the last
    /// pattern are ignored. Returns exactly the detections of `simulate`
    /// on the selected patterns.
    pub fn simulate_masked(&self, faults: &[Tdf], mask: &[u64]) -> Vec<Detection> {
        let mut out = Vec::new();
        self.run_fault(faults, mask, Stop::Never, &mut |w, obs, diff| {
            let mut bits = diff;
            while bits != 0 {
                let b = bits.trailing_zeros();
                out.push(Detection {
                    pattern: (w * 64) as u32 + b,
                    obs,
                });
                bits &= bits - 1;
            }
        });
        out.sort_unstable();
        out
    }

    /// Returns the lowest pattern index that detects the fault, if any.
    pub fn first_detecting_pattern(&self, faults: &[Tdf]) -> Option<u32> {
        let mut best: Option<u32> = None;
        // A later observer of the same word may fail at an earlier bit, but
        // later words only hold larger indices.
        self.run_fault(
            faults,
            &self.every_pattern,
            Stop::AfterWord,
            &mut |w, _obs, diff| {
                let p = (w * 64) as u32 + diff.trailing_zeros();
                best = Some(best.map_or(p, |b| b.min(p)));
            },
        );
        best
    }

    /// Returns `true` if any pattern detects the fault.
    pub fn detects(&self, faults: &[Tdf]) -> bool {
        let mut hit = false;
        self.run_fault(faults, &self.every_pattern, Stop::Now, &mut |_, _, _| {
            hit = true
        });
        hit
    }

    /// Core event-driven faulty evaluation on the patterns `mask` selects.
    /// Calls `on_fail(word, obs, diff)` for every observation point with a
    /// nonzero failing-pattern mask, in no particular order within a word,
    /// and stops as `stop` says.
    fn run_fault(
        &self,
        faults: &[Tdf],
        mask: &[u64],
        stop: Stop,
        on_fail: &mut dyn FnMut(usize, ObsId, u64),
    ) {
        if faults.is_empty() {
            return;
        }
        let mut s = self
            .spare
            .lock()
            .expect("fault-sim scratch list poisoned")
            .pop()
            .unwrap_or_else(|| Scratch::new(self.nl.net_count(), self.nl.gate_count()));
        for (w, &m) in mask.iter().enumerate().take(self.pats.word_count()) {
            let m = m & self.pats.tail_mask(w);
            if m != 0 && self.run_word(faults, w, m, stop, &mut s, on_fail) && stop != Stop::Never {
                break;
            }
        }
        self.spare
            .lock()
            .expect("fault-sim scratch list poisoned")
            .push(s);
    }

    /// Simulates word `w` on the patterns `mask` selects and reports its
    /// failing observers; returns whether there was one.
    fn run_word(
        &self,
        faults: &[Tdf],
        w: usize,
        mask: u64,
        stop: Stop,
        s: &mut Scratch,
        on_fail: &mut dyn FnMut(usize, ObsId, u64),
    ) -> bool {
        let (v1, v2) = (self.sim.v1_row(w), self.sim.v2_row(w));
        s.next_word();
        for f in faults {
            s.schedule(f.site.gate, &self.topo_pos);
        }
        let mut ins = [0u64; 4];
        while let Some(Reverse(pos)) = s.heap.pop() {
            let g = self.order[pos as usize];
            let gate = self.nl.gate(g);
            if is_observing_kind(gate.kind) {
                // Only seeds are queued here: the fault sits on one of the
                // observer's own pins.
                s.observe(g, &self.obs);
                if gate.kind.is_sequential() {
                    let q = gate.output.expect("flop drives Q");
                    let out = apply_faults(faults, PinRef::output(g), v1[q.index()], v2[q.index()]);
                    self.propagate(s, q, out, v2, mask);
                }
                continue;
            }
            let out_net = gate.output.expect("non-observing gates drive a net");
            let hosts_fault = faults.iter().any(|f| f.site.gate == g);
            for (k, &inp) in gate.inputs.iter().enumerate() {
                let v = s.value(inp, v2);
                ins[k] = if hosts_fault {
                    apply_faults(faults, PinRef::input(g, k as u8), v1[inp.index()], v)
                } else {
                    v
                };
            }
            let mut out = if gate.kind == CellKind::Input {
                // PI values are held across launch; output equals V2.
                v2[out_net.index()]
            } else {
                gate.kind.eval_words(&ins[..gate.inputs.len()])
            };
            if hosts_fault {
                out = apply_faults(faults, PinRef::output(g), v1[out_net.index()], out);
            }
            self.propagate(s, out_net, out, v2, mask);
        }

        let mut detected = false;
        for &id in &s.observers {
            let p = self.obs.point(id);
            let v = s.value(p.net, v2);
            let v = apply_faults(faults, PinRef::input(p.gate, 0), v1[p.net.index()], v);
            let diff = (v ^ v2[p.net.index()]) & mask;
            if diff != 0 {
                on_fail(w, id, diff);
                detected = true;
                if stop == Stop::Now {
                    break;
                }
            }
        }
        detected
    }

    /// Records `out` on `net` when it differs from the fault-free V2 word
    /// on the bits of `mask`, and then schedules the net's loads: observers
    /// are collected, any other gate is queued.
    fn propagate(&self, s: &mut Scratch, net: NetId, out: u64, v2: &[u64], mask: u64) {
        if (out ^ v2[net.index()]) & mask == 0 {
            return;
        }
        s.faulty[net.index()] = out;
        s.net_epoch[net.index()] = s.epoch;
        for &(load, _) in &self.nl.net(net).loads {
            if is_observing_kind(self.nl.gate(load).kind) {
                s.observe(load, &self.obs);
            } else {
                s.schedule(load, &self.topo_pos);
            }
        }
    }
}

/// Applies the faults of `faults` sitting at `site` to the word `v`, in
/// fault-list order; a polarity repeated at the same site applies once.
#[inline]
fn apply_faults(faults: &[Tdf], site: PinRef, v1: u64, mut v: u64) -> u64 {
    for (i, f) in faults.iter().enumerate() {
        if f.site == site && !faults[..i].contains(f) {
            v = f.polarity.apply(v1, v);
        }
    }
    v
}

/// One caller's working memory. Every stamp is compared with `epoch`,
/// which advances per simulated word, so a word starts with no faulty
/// net, no queued gate and no observer without clearing anything.
#[derive(Debug)]
struct Scratch {
    epoch: u32,
    /// Faulty value of each net, valid where `net_epoch` equals `epoch`.
    faulty: Vec<u64>,
    net_epoch: Vec<u32>,
    /// Word in which each gate was last queued, and last collected as an
    /// observer.
    queued: Vec<u32>,
    observed: Vec<u32>,
    /// Queued gates by topological position.
    heap: BinaryHeap<Reverse<u32>>,
    /// The word's observers of a faulty net or of a fault on their own pin.
    observers: Vec<ObsId>,
}

impl Scratch {
    fn new(n_nets: usize, n_gates: usize) -> Self {
        Scratch {
            epoch: 0,
            faulty: vec![0; n_nets],
            net_epoch: vec![0; n_nets],
            queued: vec![0; n_gates],
            observed: vec![0; n_gates],
            heap: BinaryHeap::new(),
            observers: Vec::new(),
        }
    }

    /// Starts a word: everything stamped in an earlier one goes stale.
    fn next_word(&mut self) {
        if self.epoch == u32::MAX {
            self.net_epoch.fill(0);
            self.queued.fill(0);
            self.observed.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        // Left over only when a call stopped mid-word.
        self.heap.clear();
        self.observers.clear();
    }

    /// The word's value of `net`: faulty if recorded, else fault-free V2.
    #[inline]
    fn value(&self, net: NetId, v2: &[u64]) -> u64 {
        if self.net_epoch[net.index()] == self.epoch {
            self.faulty[net.index()]
        } else {
            v2[net.index()]
        }
    }

    #[inline]
    fn schedule(&mut self, g: GateId, topo_pos: &[u32]) {
        if self.queued[g.index()] != self.epoch {
            self.queued[g.index()] = self.epoch;
            self.heap.push(Reverse(topo_pos[g.index()]));
        }
    }

    #[inline]
    fn observe(&mut self, g: GateId, obs: &ObsPoints) {
        if self.observed[g.index()] != self.epoch {
            self.observed[g.index()] = self.epoch;
            if let Some(id) = obs.of_gate(g) {
                self.observers.push(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{tdf_list, Polarity};
    use crate::sim::source_count_for;
    use m3d_netlist::{generate, GeneratorConfig, PinRef};

    fn setup() -> (Netlist, PatternSet) {
        let nl = generate(&GeneratorConfig {
            n_comb_gates: 300,
            n_flops: 32,
            n_inputs: 16,
            n_outputs: 8,
            target_depth: 8,
            ..GeneratorConfig::default()
        });
        let pats = PatternSet::random(source_count_for(&nl), 192, 11);
        (nl, pats)
    }

    #[test]
    fn fault_free_circuit_has_no_detections() {
        let (nl, pats) = setup();
        let fsim = FaultSimulator::new(&nl, &pats);
        assert!(fsim.simulate(&[]).is_empty());
    }

    #[test]
    fn some_faults_are_detected_and_sorted() {
        let (nl, pats) = setup();
        let fsim = FaultSimulator::new(&nl, &pats);
        let faults = tdf_list(&nl);
        let mut n_detected = 0;
        for f in faults.iter().take(400) {
            let d = fsim.simulate(std::slice::from_ref(f));
            if !d.is_empty() {
                n_detected += 1;
                assert!(d.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            }
        }
        assert!(n_detected > 50, "only {n_detected}/400 detected");
    }

    #[test]
    fn first_detecting_pattern_matches_simulate() {
        let (nl, pats) = setup();
        let fsim = FaultSimulator::new(&nl, &pats);
        for f in tdf_list(&nl).iter().step_by(37) {
            let d = fsim.simulate(std::slice::from_ref(f));
            let first = fsim.first_detecting_pattern(std::slice::from_ref(f));
            assert_eq!(first, d.first().map(|x| x.pattern), "fault {f}");
            assert_eq!(fsim.detects(std::slice::from_ref(f)), !d.is_empty());
        }
    }

    #[test]
    fn pi_pin_faults_are_untestable_under_loc() {
        let (nl, pats) = setup();
        let fsim = FaultSimulator::new(&nl, &pats);
        // Primary inputs are held between V1 and V2, so TDFs on PI output
        // pins never activate.
        for &pi in nl.inputs().iter().take(5) {
            for p in Polarity::BOTH {
                let f = Tdf::new(PinRef::output(pi), p);
                assert!(!fsim.detects(&[f]), "PI fault {f} must not activate");
            }
        }
    }

    #[test]
    fn str_and_stf_detect_disjoint_patterns_at_same_site() {
        let (nl, pats) = setup();
        let fsim = FaultSimulator::new(&nl, &pats);
        // At any site, a given pattern activates a rise or a fall, never
        // both, so the same (pattern, obs) pair cannot appear for both
        // polarities *due to activation at the site itself*.
        let mut checked = 0;
        for site in nl.fault_sites().step_by(53) {
            let d_str = fsim.simulate(&[Tdf::new(site, Polarity::SlowToRise)]);
            let d_stf = fsim.simulate(&[Tdf::new(site, Polarity::SlowToFall)]);
            if d_str.is_empty() || d_stf.is_empty() {
                continue;
            }
            for a in &d_str {
                assert!(!d_stf.contains(a), "{site}: {a:?} detected by both");
            }
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn multi_site_fault_superset_intuition() {
        // A multi-site fault generally fails at least somewhere when its
        // strongest component does (not strictly guaranteed in theory due to
        // masking, but holds on random logic for sampled sites).
        let (nl, pats) = setup();
        let fsim = FaultSimulator::new(&nl, &pats);
        let faults: Vec<Tdf> = tdf_list(&nl)
            .into_iter()
            .filter(|f| fsim.detects(std::slice::from_ref(f)))
            .take(3)
            .collect();
        assert_eq!(faults.len(), 3);
        let joint = fsim.simulate(&faults);
        assert!(!joint.is_empty());
    }

    #[test]
    fn detection_patterns_within_range() {
        let (nl, pats) = setup();
        let fsim = FaultSimulator::new(&nl, &pats);
        for f in tdf_list(&nl).iter().step_by(101) {
            for d in fsim.simulate(std::slice::from_ref(f)) {
                assert!((d.pattern as usize) < pats.len());
                assert!((d.obs.index()) < fsim.obs().len());
            }
        }
    }
}
