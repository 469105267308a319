//! The event-driven fault simulator against its definition.
//! `reference_simulate` is the cone-limited simulator as first written:
//! it collects the union fan-out cone of the fault sites, sorts it
//! topologically, keeps each pin's polarities in hash maps and evaluates
//! the whole cone in every 64-pattern word. `simulate`,
//! `first_detecting_pattern` and `detects` must agree with it on
//! generated netlists with test points, for single faults at every pin
//! kind and for multi-site lists, at pattern counts that are not a
//! multiple of 64, on a netlist at least 40 levels deep, and with the
//! three entry points alternating on one simulator — and a simulator
//! shared by four workers must answer exactly as it does serially.
//! `simulate_masked` must return the reference's detections on the masked
//! patterns and no others. The simulator's fan-in cone walk must return
//! the output nets of `topo::net_fanin_cone`'s gates for every observer.

use std::collections::{HashMap, HashSet};

use m3d_exec::ExecPool;
use m3d_netlist::{
    generate, insert_observation_points, topo, CellKind, GateId, GeneratorConfig, NetId, Netlist,
    Pin, PinRef, TestPointConfig,
};
use m3d_sim::{
    source_count_for, tdf_list, Detection, FaultSimulator, ObsId, PatternSet, Polarity, Tdf,
};

/// Every detection of `faults`, sorted by `(pattern, obs)`, computed from
/// the public API only.
fn reference_simulate(fsim: &FaultSimulator<'_>, faults: &[Tdf]) -> Vec<Detection> {
    let (nl, pats, sim, obs) = (fsim.netlist(), fsim.patterns(), fsim.sim(), fsim.obs());
    if faults.is_empty() {
        return Vec::new();
    }
    let mut topo_pos = vec![0u32; nl.gate_count()];
    for (i, g) in topo::topological_order(nl).into_iter().enumerate() {
        topo_pos[g.index()] = i as u32;
    }
    let mut cone: Vec<GateId> = Vec::new();
    let mut seen = HashSet::new();
    for f in faults {
        for (g, _) in topo::fanout_cone(nl, f.site.gate) {
            if seen.insert(g) {
                cone.push(g);
            }
        }
    }
    cone.sort_unstable_by_key(|g| topo_pos[g.index()]);

    let mut in_over: HashMap<(GateId, u8), Vec<Polarity>> = HashMap::new();
    let mut out_over: HashMap<GateId, Vec<Polarity>> = HashMap::new();
    for f in faults {
        let list = match f.site.pin {
            Pin::Input(k) => in_over.entry((f.site.gate, k)).or_default(),
            Pin::Output => out_over.entry(f.site.gate).or_default(),
        };
        if !list.contains(&f.polarity) {
            list.push(f.polarity);
        }
    }
    let observers: Vec<(ObsId, GateId, NetId)> = cone
        .iter()
        .filter(|&&g| m3d_sim::is_observing_kind(nl.gate(g).kind))
        .filter_map(|&g| obs.of_gate(g).map(|id| (id, g, nl.gate(g).inputs[0])))
        .collect();

    let mut out = Vec::new();
    let mut faulty: HashMap<NetId, u64> = HashMap::new();
    for w in 0..pats.word_count() {
        faulty.clear();
        let value = |faulty: &HashMap<NetId, u64>, net: NetId| {
            faulty.get(&net).copied().unwrap_or_else(|| sim.v2(w, net))
        };
        let compose = |pols: Option<&Vec<Polarity>>, v1: u64, mut v: u64| {
            for pol in pols.into_iter().flatten() {
                v = pol.apply(v1, v);
            }
            v
        };
        for &g in &cone {
            let gate = nl.gate(g);
            if gate.kind.is_sequential() {
                if let Some(pols) = out_over.get(&g) {
                    let q = gate.output.expect("flop drives Q");
                    let v = compose(Some(pols), sim.v1(w, q), sim.v2(w, q));
                    if v != sim.v2(w, q) {
                        faulty.insert(q, v);
                    }
                }
                continue;
            }
            if !gate.kind.has_output() {
                continue;
            }
            let out_net = gate.output.expect("has_output");
            let ins: Vec<u64> = gate
                .inputs
                .iter()
                .enumerate()
                .map(|(k, &inp)| {
                    let pols = in_over.get(&(g, k as u8));
                    compose(pols, sim.v1(w, inp), value(&faulty, inp))
                })
                .collect();
            let v = if gate.kind == CellKind::Input {
                sim.v2(w, out_net)
            } else {
                gate.kind.eval_words(&ins)
            };
            let v = compose(out_over.get(&g), sim.v1(w, out_net), v);
            if v != sim.v2(w, out_net) {
                faulty.insert(out_net, v);
            }
        }
        for &(id, g, net) in &observers {
            let v = compose(in_over.get(&(g, 0)), sim.v1(w, net), value(&faulty, net));
            let mut diff = (v ^ sim.v2(w, net)) & pats.tail_mask(w);
            while diff != 0 {
                out.push(Detection {
                    pattern: (w * 64) as u32 + diff.trailing_zeros(),
                    obs: id,
                });
                diff &= diff - 1;
            }
        }
    }
    out.sort_unstable();
    out
}

/// A generated netlist with observation test points.
fn netlist(seed: u64, gates: usize, flops: usize) -> Netlist {
    deep_netlist(seed, gates, flops, 8)
}

/// [`netlist`] at a target logic depth.
fn deep_netlist(seed: u64, gates: usize, flops: usize, depth: u32) -> Netlist {
    let mut nl = generate(&GeneratorConfig {
        seed,
        n_comb_gates: gates,
        n_flops: flops,
        n_inputs: 14,
        n_outputs: 8,
        target_depth: depth,
        ..GeneratorConfig::default()
    });
    insert_observation_points(&mut nl, &TestPointConfig { max_fraction: 0.02 });
    nl
}

/// Single faults: a stride through every (cell kind, pin direction)
/// group, so every pin kind of the netlist is covered.
fn single_faults(nl: &Netlist) -> Vec<Vec<Tdf>> {
    let mut groups: HashMap<(CellKind, bool), Vec<Tdf>> = HashMap::new();
    for f in tdf_list(nl) {
        let kind = nl.gate(f.site.gate).kind;
        groups
            .entry((kind, f.site.is_output()))
            .or_default()
            .push(f);
    }
    let mut keys: Vec<_> = groups.keys().copied().collect();
    keys.sort_unstable();
    for needed in [CellKind::ScanDff, CellKind::Output, CellKind::ObsPoint] {
        assert!(
            keys.iter().any(|&(k, _)| k == needed),
            "netlist has no {needed} pins"
        );
    }
    keys.into_iter()
        .flat_map(|key| {
            let group = &groups[&key];
            let stride = (group.len() / 40).max(1);
            group
                .iter()
                .step_by(stride)
                .map(|f| vec![*f])
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Multi-site lists: a gross-delay pin (STR + STF, and a repeated
/// polarity), MIV-style lists on every load of one net, flop Q faults
/// with a downstream fault, faults on an observer's own input pin with an
/// upstream fault on the same net, and Table X-style random lists.
fn multi_site_lists(nl: &Netlist) -> Vec<Vec<Tdf>> {
    let str_at = |site| Tdf::new(site, Polarity::SlowToRise);
    let stf_at = |site| Tdf::new(site, Polarity::SlowToFall);
    let mut lists = Vec::new();
    for site in nl.fault_sites().step_by(17) {
        lists.push(vec![str_at(site), stf_at(site)]);
        lists.push(vec![stf_at(site), str_at(site), stf_at(site)]);
    }
    let fanout_nets: Vec<NetId> = nl
        .iter_nets()
        .filter(|(_, n)| n.loads.len() >= 2 && n.driver.is_some())
        .map(|(id, _)| id)
        .collect();
    for &net in fanout_nets.iter().step_by(7) {
        let loads: Vec<PinRef> = nl
            .net(net)
            .loads
            .iter()
            .map(|&(g, k)| PinRef::input(g, k))
            .collect();
        lists.push(loads.iter().map(|&p| str_at(p)).collect());
        lists.push(
            loads
                .iter()
                .enumerate()
                .map(|(i, &p)| if i % 2 == 0 { stf_at(p) } else { str_at(p) })
                .collect(),
        );
    }
    for &ff in nl.flops().iter().step_by(3) {
        let q = nl.gate(ff).output.expect("flop drives Q");
        let mut list = vec![str_at(PinRef::output(ff))];
        if let Some(&(load, k)) = nl.net(q).loads.first() {
            list.push(stf_at(PinRef::input(load, k)));
        }
        lists.push(list);
        lists.push(vec![
            stf_at(PinRef::output(ff)),
            str_at(PinRef::input(ff, 0)),
        ]);
    }
    let observers = nl.flops().iter().chain(nl.outputs()).chain(nl.obs_points());
    for &g in observers.step_by(2) {
        let net = nl.gate(g).inputs[0];
        let drv = nl.net(net).driver.expect("observed nets are driven");
        for pol in Polarity::BOTH {
            lists.push(vec![Tdf::new(PinRef::input(g, 0), pol)]);
            lists.push(vec![
                Tdf::new(PinRef::output(drv), pol),
                stf_at(PinRef::input(g, 0)),
            ]);
        }
    }
    let all = tdf_list(nl);
    for i in 0..60 {
        let n = 2 + i % 4;
        lists.push(
            (0..n)
                .map(|j| all[(i * 7919 + j * 104_729) % all.len()])
                .collect(),
        );
    }
    lists
}

/// The detections of `all` whose pattern `mask` selects.
fn on_mask(all: &[Detection], mask: &[u64]) -> Vec<Detection> {
    all.iter()
        .filter(|d| {
            let p = d.pattern as usize;
            mask.get(p / 64).is_some_and(|m| (m >> (p % 64)) & 1 == 1)
        })
        .copied()
        .collect()
}

/// The mask of patterns 1, 4, 7, …
fn every_third(pats: &PatternSet) -> Vec<u64> {
    let mut mask = vec![0u64; pats.word_count()];
    for p in (1..pats.len()).step_by(3) {
        mask[p / 64] |= 1 << (p % 64);
    }
    mask
}

/// Pattern masks over `pats`: none, all, one pattern (the first, the
/// last, and each of `picks`), every third pattern, and a mask setting
/// every bit of the tail word, past the last pattern included.
fn masks(pats: &PatternSet, picks: &[u32]) -> Vec<Vec<u64>> {
    let words = pats.word_count();
    let single = |p: usize| {
        let mut m = vec![0u64; words];
        m[p / 64] |= 1 << (p % 64);
        m
    };
    let mut out = vec![vec![0; words], vec![u64::MAX; words], every_third(pats)];
    out.push(single(0));
    out.push(single(pats.len() - 1));
    out.extend(picks.iter().map(|&p| single(p as usize)));
    let mut tail = vec![0u64; words];
    tail[words - 1] = u64::MAX;
    out.push(tail);
    out
}

fn check_against_reference(fsim: &FaultSimulator<'_>, lists: &[Vec<Tdf>], what: &str) -> usize {
    let mut detected = 0;
    for faults in lists {
        let want = reference_simulate(fsim, faults);
        assert_eq!(fsim.simulate(faults), want, "{what}: simulate {faults:?}");
        // Single-bit masks on a failing pattern of this list, where there
        // is one.
        let picks: Vec<u32> = want.iter().step_by(7).map(|d| d.pattern).collect();
        for mask in masks(fsim.patterns(), &picks) {
            assert_eq!(
                fsim.simulate_masked(faults, &mask),
                on_mask(&want, &mask),
                "{what}: simulate_masked {faults:?} on {mask:x?}"
            );
        }
        assert_eq!(
            fsim.first_detecting_pattern(faults),
            want.first().map(|d| d.pattern),
            "{what}: first_detecting_pattern {faults:?}"
        );
        assert_eq!(
            fsim.detects(faults),
            !want.is_empty(),
            "{what}: detects {faults:?}"
        );
        detected += usize::from(!want.is_empty());
    }
    detected
}

#[test]
fn event_driven_simulation_matches_reference() {
    for (seed, gates, flops, n_patterns) in
        [(3, 320, 36, 150), (8, 480, 48, 129), (21, 260, 24, 37)]
    {
        let nl = netlist(seed, gates, flops);
        let pats = PatternSet::random(source_count_for(&nl), n_patterns, seed + 1);
        let fsim = FaultSimulator::new(&nl, &pats);
        let singles = single_faults(&nl);
        let multis = multi_site_lists(&nl);
        let what = format!("seed {seed}, {n_patterns} patterns");
        let hit_singles = check_against_reference(&fsim, &singles, &what);
        let hit_multis = check_against_reference(&fsim, &multis, &what);
        assert!(
            hit_singles * 4 > singles.len() && hit_multis * 4 > multis.len(),
            "{what}: too few detected lists to mean anything \
             ({hit_singles}/{} singles, {hit_multis}/{} multi-site)",
            singles.len(),
            multis.len()
        );
        assert!(fsim.simulate(&[]).is_empty());
        assert!(fsim.simulate_masked(&[], &[u64::MAX; 3]).is_empty());
    }
}

#[test]
fn shared_simulator_answers_the_same_on_four_workers() {
    let nl = netlist(5, 400, 40);
    let pats = PatternSet::random(source_count_for(&nl), 200, 6);
    let fsim = FaultSimulator::new(&nl, &pats);
    let mut lists = single_faults(&nl);
    lists.extend(multi_site_lists(&nl));
    let thirds = &every_third(&pats);
    let answer = |_: usize, faults: &Vec<Tdf>| {
        (
            fsim.simulate(faults),
            fsim.first_detecting_pattern(faults),
            fsim.detects(faults),
            fsim.simulate_masked(faults, thirds),
        )
    };
    let serial = ExecPool::with_threads(1).map(&lists, answer);
    for round in 0..3 {
        let parallel = ExecPool::with_threads(4).map(&lists, answer);
        assert_eq!(parallel, serial, "round {round}");
    }
    for (faults, got) in lists.iter().zip(&serial).step_by(5) {
        let want = reference_simulate(&fsim, faults);
        assert_eq!(got.3, on_mask(&want, thirds), "{faults:?}");
        assert_eq!(got.0, want, "{faults:?}");
    }
}

/// Deep logic: the faulty waves cross many level buckets per word.
#[test]
fn deep_netlist_matches_reference() {
    let nl = deep_netlist(13, 1600, 40, 300);
    let depth = topo::comb_depth(&nl);
    assert!(depth >= 40, "depth {depth}");
    let pats = PatternSet::random(source_count_for(&nl), 100, 14);
    let fsim = FaultSimulator::new(&nl, &pats);
    let what = format!("depth {depth}");
    let singles = single_faults(&nl);
    let hit = check_against_reference(&fsim, &singles, &what);
    assert!(hit * 4 > singles.len(), "{what}: {hit}/{}", singles.len());
    check_against_reference(&fsim, &multi_site_lists(&nl), &what);
}

/// One single-worker simulator, its three entry points taking turns: a
/// call that stopped early must leave nothing behind for the next one.
#[test]
fn entry_points_alternating_on_one_scratch_match_reference() {
    let nl = netlist(17, 360, 32);
    let pats = PatternSet::random(source_count_for(&nl), 150, 18);
    let fsim = FaultSimulator::new(&nl, &pats);
    let mut lists = single_faults(&nl);
    lists.extend(multi_site_lists(&nl));
    for (i, faults) in lists.iter().enumerate() {
        let want = reference_simulate(&fsim, faults);
        for turn in 0..3 {
            match (i + turn) % 3 {
                0 => assert_eq!(fsim.detects(faults), !want.is_empty(), "{faults:?}"),
                1 => assert_eq!(
                    fsim.first_detecting_pattern(faults),
                    want.first().map(|d| d.pattern),
                    "{faults:?}"
                ),
                _ => assert_eq!(fsim.simulate(faults), want, "{faults:?}"),
            }
        }
    }
}

/// The output nets of `topo::net_fanin_cone`'s gates, sorted.
fn reference_cone_nets(nl: &Netlist, net: NetId) -> Vec<NetId> {
    let mut nets: Vec<NetId> = topo::net_fanin_cone(nl, net)
        .into_iter()
        .filter_map(|(g, _)| nl.gate(g).output)
        .collect();
    nets.sort_unstable();
    nets
}

fn check_cones(nl: &Netlist, pats: &PatternSet) {
    let fsim = FaultSimulator::new(nl, pats);
    let mut cones = fsim.fanin_cones();
    for (id, p) in fsim.obs().iter() {
        let mut got = cones.nets(p.net);
        got.sort_unstable();
        assert_eq!(got, reference_cone_nets(nl, p.net), "{id}");
    }
}

#[test]
fn fanin_cone_walk_matches_topo_on_every_observer() {
    for (seed, gates, flops, depth) in [(3, 320, 36, 8), (8, 480, 48, 8), (13, 1600, 40, 300)] {
        let nl = deep_netlist(seed, gates, flops, depth);
        let pats = PatternSet::random(source_count_for(&nl), 64, seed);
        check_cones(&nl, &pats);
    }
    let nl = generate(&GeneratorConfig {
        n_comb_gates: 100_000,
        n_flops: 24,
        n_inputs: 32,
        n_outputs: 8,
        target_depth: 20,
        ..GeneratorConfig::default()
    });
    assert!(nl.gate_count() >= 100_000, "{}", nl.gate_count());
    check_cones(&nl, &PatternSet::random(source_count_for(&nl), 64, 11));
}
