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
//!   scheduled. Scheduled gates wait in one bucket per combinational level
//!   and the buckets are drained in level order: every load sits at a
//!   higher level than its driver and gates of one level never read each
//!   other's outputs, so a gate's faulty inputs are final before it reads
//!   them, whatever the order within a level.
//! - **Observers.** Flip-flops, primary outputs and test points that load a
//!   faulty net are collected, never evaluated. At the end of the word each
//!   one's captured value, with the faults on its own input pin applied, is
//!   compared with V2 under the word's pattern mask. A flop is evaluated
//!   only as a seed, for a fault on its Q pin (a slow clock-to-Q delays the
//!   launch transition on the Q net itself).
//!
//! **Flattened netlist.** [`FaultSimulator::new`] lays the netlist out once
//! in topological order, so the per-word loop reads flat arrays instead of
//! chasing each gate's and net's own heap vectors. Per topological position:
//! the cell kind, the output net, the combinational level, and the fan-in
//! nets in one CSR array; per gate, its position. Per net: the driver's
//! position, and the loads in one CSR array, each a position or, for an
//! observer, its [`ObsId`] under a tag bit. Levels and driver positions
//! come from the same pass over the order the fault-free simulation runs
//! in. At netcard scale 0.5 that is about 26 B per gate and 17 B per net,
//! 4.6 MiB in all. [`FaultSimulator::fanin_cones`] walks fan-in cones over
//! the same arrays, depth first, with one visited stamp per gate for all
//! of a walker's walks.
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
//! (12 B/net), a queued stamp per gate and an observed stamp per
//! observation point (4 B each), the level buckets and the word's observer
//! list — about 1.8 MB at netcard scale 0.5. The stamps compare against an
//! epoch that advances per simulated word, so nothing is cleared between
//! words or calls; a full clear happens only when the `u32` epoch wraps.

use crate::fault::Tdf;
use crate::obs::{is_observing_kind, ObsId, ObsPoints};
use crate::patterns::PatternSet;
use crate::sim::PatternSim;
use m3d_netlist::{topo, CellKind, GateId, NetId, Netlist, PinRef};
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
    flat: Flat,
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
        let _span = m3d_obs::span!("sim.fsim_new");
        let order = topo::topological_order(nl);
        let sim = PatternSim::run_in_order(nl, pats, &order);
        let obs = ObsPoints::collect(nl);
        let flat = Flat::build(nl, &obs, &order);
        FaultSimulator {
            nl,
            pats,
            sim,
            obs,
            flat,
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

    /// A fan-in cone walker over the flattened netlist. It holds one
    /// visited stamp per gate, shared by all of its walks.
    pub fn fanin_cones(&self) -> FaninCones<'_> {
        FaninCones {
            flat: &self.flat,
            visited: vec![0; self.flat.kind.len()],
            walk: 0,
            stack: Vec::new(),
        }
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
            .unwrap_or_else(|| Scratch::new(&self.flat, self.obs.len()));
        s.seeds.clear();
        s.seeds
            .extend(faults.iter().map(|f| self.flat.pos_of[f.site.gate.index()]));
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
        let f = &self.flat;
        let (v1, v2) = (self.sim.v1_row(w), self.sim.v2_row(w));
        s.next_word();
        for k in 0..s.seeds.len() {
            let pos = s.seeds[k];
            s.schedule(pos, f);
        }
        let mut ins = [0u64; 4];
        let mut lvl = s.lo;
        while lvl <= s.hi {
            // Loads sit at higher levels, so this bucket is complete.
            let mut bucket = std::mem::take(&mut s.buckets[lvl]);
            for &pos in &bucket {
                let p = pos as usize;
                let kind = f.kind[p];
                // The gate, when it hosts a fault: `seeds` follows `faults`.
                let host = s
                    .seeds
                    .iter()
                    .position(|&q| q == pos)
                    .map(|k| faults[k].site.gate);
                if is_observing_kind(kind) {
                    // Only seeds are queued here: the fault sits on one of
                    // the observer's own pins.
                    let g = host.expect("observers are queued only as seeds");
                    if let Some(id) = self.obs.of_gate(g) {
                        s.observe(id);
                    }
                    if kind.is_sequential() {
                        let q = f.out[p] as usize;
                        let out = apply_faults(faults, PinRef::output(g), v1[q], v2[q]);
                        self.propagate(s, q, out, v2, mask);
                    }
                    continue;
                }
                let out_net = f.out[p] as usize;
                let fanin = f.fanin(p);
                for (k, &inp) in fanin.iter().enumerate() {
                    let v = s.value(inp as usize, v2);
                    ins[k] = match host {
                        Some(g) => {
                            apply_faults(faults, PinRef::input(g, k as u8), v1[inp as usize], v)
                        }
                        None => v,
                    };
                }
                let mut out = if kind == CellKind::Input {
                    // PI values are held across launch; output equals V2.
                    v2[out_net]
                } else {
                    kind.eval_words(&ins[..fanin.len()])
                };
                if let Some(g) = host {
                    out = apply_faults(faults, PinRef::output(g), v1[out_net], out);
                }
                self.propagate(s, out_net, out, v2, mask);
            }
            bucket.clear();
            s.buckets[lvl] = bucket;
            lvl += 1;
        }

        let mut detected = false;
        for &id in &s.observers {
            let p = self.obs.point(id);
            let v = s.value(p.net.index(), v2);
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
    #[inline]
    fn propagate(&self, s: &mut Scratch, net: usize, out: u64, v2: &[u64], mask: u64) {
        if (out ^ v2[net]) & mask == 0 {
            return;
        }
        s.faulty[net] = out;
        s.net_epoch[net] = s.epoch;
        for &load in self.flat.loads(net) {
            if load & OBS_LOAD != 0 {
                s.observe(ObsId(load & !OBS_LOAD));
            } else {
                s.schedule(load, &self.flat);
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

/// Tag bit of a net load that is an observation point: the bits below it
/// hold the [`ObsId`]. An untagged load is a topological position.
const OBS_LOAD: u32 = 1 << 31;

/// Driver position of a net that no gate drives.
const NO_DRIVER: u32 = u32::MAX;

/// The netlist flattened in topological order.
#[derive(Debug)]
struct Flat {
    /// Each gate's position.
    pos_of: Vec<u32>,
    /// Per position: cell kind, output net ([`NO_DRIVER`] for none) and
    /// combinational level (0 for primary inputs and flops).
    kind: Vec<CellKind>,
    out: Vec<u32>,
    level: Vec<u32>,
    /// Fan-in nets of position `p`: `fanin[fanin_at[p]..fanin_at[p + 1]]`.
    fanin_at: Vec<u32>,
    fanin: Vec<u32>,
    /// Per net: the driver's position ([`NO_DRIVER`] for none), and its
    /// loads `loads[loads_at[n]..loads_at[n + 1]]`, observers under
    /// [`OBS_LOAD`].
    driver: Vec<u32>,
    loads_at: Vec<u32>,
    loads: Vec<u32>,
    /// Highest level plus one.
    n_levels: usize,
}

impl Flat {
    /// Lays `nl` out in `order`, its complete topological order.
    fn build(nl: &Netlist, obs: &ObsPoints, order: &[GateId]) -> Self {
        let (n_gates, n_nets) = (order.len(), nl.net_count());
        assert!(
            n_gates < OBS_LOAD as usize && obs.len() < OBS_LOAD as usize,
            "netlist too large to flatten"
        );
        let mut pos_of = vec![0u32; nl.gate_count()];
        let mut kind = Vec::with_capacity(n_gates);
        let mut out = Vec::with_capacity(n_gates);
        let mut level = Vec::with_capacity(n_gates);
        let mut fanin_at = Vec::with_capacity(n_gates + 1);
        let mut fanin = Vec::with_capacity(n_gates * 2);
        let mut driver = vec![NO_DRIVER; n_nets];
        fanin_at.push(0);
        for (p, &g) in order.iter().enumerate() {
            let gate = nl.gate(g);
            pos_of[g.index()] = p as u32;
            // Every input driver of a non-source precedes it in the order.
            let mut lvl = 0;
            if !is_source(gate.kind) {
                for &inp in &gate.inputs {
                    let d = driver[inp.index()];
                    if d != NO_DRIVER {
                        lvl = lvl.max(level[d as usize] + 1);
                    }
                }
            }
            kind.push(gate.kind);
            level.push(lvl);
            out.push(gate.output.map_or(NO_DRIVER, |n| n.0));
            if let Some(n) = gate.output {
                driver[n.index()] = p as u32;
            }
            fanin.extend(gate.inputs.iter().map(|n| n.0));
            fanin_at.push(fanin.len() as u32);
        }
        let mut loads_at = Vec::with_capacity(n_nets + 1);
        let mut loads = Vec::with_capacity(fanin.len());
        loads_at.push(0);
        for n in 0..n_nets {
            for &(g, _) in &nl.net(NetId(n as u32)).loads {
                if is_observing_kind(nl.gate(g).kind) {
                    if let Some(id) = obs.of_gate(g) {
                        loads.push(OBS_LOAD | id.0);
                    }
                } else {
                    loads.push(pos_of[g.index()]);
                }
            }
            loads_at.push(loads.len() as u32);
        }
        let n_levels = level.iter().max().map_or(0, |&l| l as usize + 1);
        Flat {
            pos_of,
            kind,
            out,
            level,
            fanin_at,
            fanin,
            driver,
            loads_at,
            loads,
            n_levels,
        }
    }

    #[inline]
    fn fanin(&self, p: usize) -> &[u32] {
        &self.fanin[self.fanin_at[p] as usize..self.fanin_at[p + 1] as usize]
    }

    #[inline]
    fn loads(&self, net: usize) -> &[u32] {
        &self.loads[self.loads_at[net] as usize..self.loads_at[net + 1] as usize]
    }
}

/// Whether `kind` starts the combinational graph: primary inputs and flops
/// take their values from the pattern, not from their input nets.
#[inline]
fn is_source(kind: CellKind) -> bool {
    kind == CellKind::Input || kind.is_sequential()
}

/// Fan-in cone walks over a simulator's flattened netlist, from
/// [`FaultSimulator::fanin_cones`].
#[derive(Debug)]
pub struct FaninCones<'s> {
    flat: &'s Flat,
    /// Per position: the number of the last walk that reached it.
    visited: Vec<u32>,
    walk: u32,
    stack: Vec<u32>,
}

impl FaninCones<'_> {
    /// The output nets of the gates in the combinational fan-in cone of
    /// `net`'s driver, in no particular order: the gates
    /// [`topo::net_fanin_cone`] returns, primary inputs and flops included
    /// but never expanded. Empty for an undriven net.
    pub fn nets(&mut self, net: NetId) -> Vec<NetId> {
        let f = self.flat;
        let mut out = Vec::new();
        let start = f.driver[net.index()];
        if start == NO_DRIVER {
            return out;
        }
        if self.walk == u32::MAX {
            self.visited.fill(0);
            self.walk = 0;
        }
        self.walk += 1;
        self.visited[start as usize] = self.walk;
        self.stack.push(start);
        while let Some(p) = self.stack.pop() {
            let p = p as usize;
            out.push(NetId(f.out[p]));
            if is_source(f.kind[p]) {
                continue;
            }
            for &inp in f.fanin(p) {
                let d = f.driver[inp as usize];
                if d != NO_DRIVER && self.visited[d as usize] != self.walk {
                    self.visited[d as usize] = self.walk;
                    self.stack.push(d);
                }
            }
        }
        out
    }
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
    /// Word in which each position was last queued, and each observation
    /// point last collected.
    queued: Vec<u32>,
    observed: Vec<u32>,
    /// Queued positions, one bucket per level; `lo..=hi` spans the
    /// non-empty ones (`lo > hi` when there are none).
    buckets: Vec<Vec<u32>>,
    lo: usize,
    hi: usize,
    /// Positions of the gates hosting a fault of the current call.
    seeds: Vec<u32>,
    /// The word's observers of a faulty net or of a fault on their own pin.
    observers: Vec<ObsId>,
}

impl Scratch {
    fn new(flat: &Flat, n_obs: usize) -> Self {
        Scratch {
            epoch: 0,
            faulty: vec![0; flat.driver.len()],
            net_epoch: vec![0; flat.driver.len()],
            queued: vec![0; flat.kind.len()],
            observed: vec![0; n_obs],
            buckets: vec![Vec::new(); flat.n_levels],
            lo: usize::MAX,
            hi: 0,
            seeds: Vec::new(),
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
        // Every bucket was drained; observers are left over when a call
        // stopped at a detection.
        self.lo = usize::MAX;
        self.hi = 0;
        self.observers.clear();
    }

    /// The word's value of `net`: faulty if recorded, else fault-free V2.
    #[inline]
    fn value(&self, net: usize, v2: &[u64]) -> u64 {
        if self.net_epoch[net] == self.epoch {
            self.faulty[net]
        } else {
            v2[net]
        }
    }

    #[inline]
    fn schedule(&mut self, pos: u32, flat: &Flat) {
        let p = pos as usize;
        if self.queued[p] != self.epoch {
            self.queued[p] = self.epoch;
            let lvl = flat.level[p] as usize;
            self.buckets[lvl].push(pos);
            self.lo = self.lo.min(lvl);
            self.hi = self.hi.max(lvl);
        }
    }

    #[inline]
    fn observe(&mut self, id: ObsId) {
        if self.observed[id.index()] != self.epoch {
            self.observed[id.index()] = self.epoch;
            self.observers.push(id);
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

    /// A scratch crossing the `u32` epoch wrap must clear its stamps: words
    /// after the wrap reuse the small epochs its earlier calls left behind.
    #[test]
    fn answers_hold_across_the_epoch_wrap() {
        let (nl, pats) = setup();
        let fresh = FaultSimulator::new(&nl, &pats);
        let fsim = FaultSimulator::new(&nl, &pats);
        let faults: Vec<Tdf> = tdf_list(&nl).into_iter().step_by(11).take(80).collect();
        for f in &faults {
            fsim.simulate(std::slice::from_ref(f));
        }
        {
            let mut spare = fsim.spare.lock().unwrap();
            assert_eq!(spare.len(), 1);
            assert!(
                spare[0].epoch > 200,
                "stale stamps up to {}",
                spare[0].epoch
            );
            spare[0].epoch = u32::MAX - 1;
        }
        let mut detected = 0;
        for f in &faults {
            let f = std::slice::from_ref(f);
            let want = fresh.simulate(f);
            assert_eq!(fsim.simulate(f), want, "{f:?}");
            assert_eq!(fsim.detects(f), !want.is_empty(), "{f:?}");
            assert_eq!(
                fsim.first_detecting_pattern(f),
                want.first().map(|d| d.pattern),
                "{f:?}"
            );
            detected += usize::from(!want.is_empty());
        }
        assert!(detected > 10, "only {detected} detected");
        let epoch = fsim.spare.lock().unwrap()[0].epoch;
        assert!(epoch < 1000, "the epoch did not wrap: {epoch}");
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
