//! Tester failure logs, with and without response compaction.
//!
//! Without compaction (bypass mode), each failing observation point is
//! reported directly. With EDT-style compaction, flop captures travel
//! through a per-channel combinational XOR compactor: a failing
//! `(pattern, channel, scan position)` is observed iff an *odd* number of
//! the chains feeding that channel carry an erroneous bit at that position
//! (even counts alias and mask the failure). Primary outputs and test
//! points bypass the compactor in both modes.

use crate::fsim::Detection;
use crate::obs::{ObsId, ObsKind, ObsPoints};
use m3d_netlist::ScanChains;

/// Where a failure was observed on the tester.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FailObs {
    /// A directly-observed point (bypass mode, POs, test points).
    Direct(ObsId),
    /// A compacted scan-out channel at a scan-shift position.
    Channel {
        /// Output channel index.
        channel: u16,
        /// Scan position within the unload (0 = first bit out).
        position: u16,
    },
}

/// One failing tester observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FailEntry {
    /// The failing pattern.
    pub pattern: u32,
    /// Where the failure was seen.
    pub obs: FailObs,
}

/// A tester failure log: sorted, deduplicated failing observations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureLog {
    entries: Vec<FailEntry>,
}

impl FailureLog {
    /// Builds a log from raw entries (sorted and deduplicated).
    pub fn new(mut entries: Vec<FailEntry>) -> Self {
        entries.sort_unstable();
        entries.dedup();
        FailureLog { entries }
    }

    /// Bypass-mode log: every detection is reported at its observation
    /// point.
    pub fn uncompacted(detections: &[Detection]) -> Self {
        FailureLog::new(
            detections
                .iter()
                .map(|d| FailEntry {
                    pattern: d.pattern,
                    obs: FailObs::Direct(d.obs),
                })
                .collect(),
        )
    }

    /// Compacted log: flop detections are XOR-folded into channels; other
    /// observation points pass through.
    pub fn compacted(detections: &[Detection], obs: &ObsPoints, chains: &ScanChains) -> Self {
        let mut captures: Vec<(u32, u16, u16)> = Vec::new();
        let mut entries = Vec::new();
        for d in detections {
            let point = obs.point(d.obs);
            if point.kind == ObsKind::FlopD {
                let (chain, pos) = chains
                    .locate(point.gate)
                    .expect("every flop is stitched into a chain");
                let channel = chains.channel_of_chain(chain);
                captures.push((d.pattern, channel as u16, pos as u16));
            } else {
                entries.push(FailEntry {
                    pattern: d.pattern,
                    obs: FailObs::Direct(d.obs),
                });
            }
        }
        // An odd number of erroneous captures at one (pattern, channel,
        // position) survives the XOR; an even number aliases to a pass.
        captures.sort_unstable();
        for run in captures.chunk_by(|a, b| a == b) {
            if run.len() % 2 == 1 {
                let (pattern, channel, position) = run[0];
                entries.push(FailEntry {
                    pattern,
                    obs: FailObs::Channel { channel, position },
                });
            }
        }
        FailureLog::new(entries)
    }

    /// The failing observations, sorted by `(pattern, obs)`.
    pub fn entries(&self) -> &[FailEntry] {
        &self.entries
    }

    /// Number of failing observations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the chip passed every pattern.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The observation points that could have produced `entry`: the single
    /// point in bypass mode, or every flop whose chain feeds the failing
    /// channel at the failing position (the compaction ambiguity set the
    /// paper's back-tracing must handle).
    ///
    /// Corrupt entries degrade instead of panicking: an out-of-range
    /// direct id, a channel entry with no chain info, or an out-of-range
    /// `(channel, position)` all resolve to an empty set, with a
    /// `failure.dropped.*` counter and a warning.
    pub fn candidate_observers(
        entry: &FailEntry,
        obs: &ObsPoints,
        chains: Option<&ScanChains>,
    ) -> Vec<ObsId> {
        match entry.obs {
            FailObs::Direct(id) => {
                if obs.get(id).is_some() {
                    vec![id]
                } else {
                    m3d_obs::counter!("failure.dropped.obs_out_of_range", 1);
                    m3d_obs::warn!(
                        "dropping failure entry at pattern {}: {id} is outside the \
                         design's {} observation points (corrupt log?)",
                        entry.pattern,
                        obs.len()
                    );
                    Vec::new()
                }
            }
            FailObs::Channel { channel, position } => {
                let Some(chains) = chains else {
                    m3d_obs::counter!("failure.dropped.channel_without_chains", 1);
                    m3d_obs::warn!(
                        "dropping compacted failure entry (pattern {}, channel {channel}, \
                         position {position}): no scan-chain info supplied",
                        entry.pattern
                    );
                    return Vec::new();
                };
                let flops = chains.flops_at(channel as usize, position as usize);
                if flops.is_empty() {
                    m3d_obs::counter!("failure.dropped.channel_out_of_range", 1);
                    m3d_obs::warn!(
                        "dropping failure entry at pattern {}: channel {channel} position \
                         {position} maps to no scan flop (corrupt log?)",
                        entry.pattern
                    );
                }
                flops.into_iter().filter_map(|ff| obs.of_gate(ff)).collect()
            }
        }
    }
}

impl FromIterator<FailEntry> for FailureLog {
    fn from_iter<T: IntoIterator<Item = FailEntry>>(iter: T) -> Self {
        FailureLog::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{tdf_list, Tdf};
    use crate::fsim::FaultSimulator;
    use crate::patterns::PatternSet;
    use crate::sim::source_count_for;
    use m3d_netlist::{generate, GeneratorConfig, Netlist};

    fn setup() -> (Netlist, PatternSet) {
        let nl = generate(&GeneratorConfig {
            n_comb_gates: 250,
            n_flops: 40,
            n_inputs: 16,
            n_outputs: 8,
            target_depth: 8,
            ..GeneratorConfig::default()
        });
        let pats = PatternSet::random(source_count_for(&nl), 128, 21);
        (nl, pats)
    }

    fn first_detected_fault(fsim: &FaultSimulator<'_>, nl: &Netlist) -> Tdf {
        tdf_list(nl)
            .into_iter()
            .find(|f| fsim.detects(std::slice::from_ref(f)))
            .expect("some fault detectable")
    }

    #[test]
    fn uncompacted_log_mirrors_detections() {
        let (nl, pats) = setup();
        let fsim = FaultSimulator::new(&nl, &pats);
        let f = first_detected_fault(&fsim, &nl);
        let d = fsim.simulate(&[f]);
        let log = FailureLog::uncompacted(&d);
        assert_eq!(log.len(), d.len());
        assert!(!log.is_empty());
    }

    #[test]
    fn compacted_log_is_smaller_or_equal_with_ambiguity() {
        let (nl, pats) = setup();
        let chains = ScanChains::stitch(&nl, 8, 4);
        let fsim = FaultSimulator::new(&nl, &pats);
        let f = first_detected_fault(&fsim, &nl);
        let d = fsim.simulate(&[f]);
        let log = FailureLog::compacted(&d, fsim.obs(), &chains);
        assert!(log.len() <= d.len());
        // Every channel entry expands to the chain group.
        for e in log.entries() {
            let cands = FailureLog::candidate_observers(e, fsim.obs(), Some(&chains));
            assert!(!cands.is_empty());
            if matches!(e.obs, FailObs::Channel { .. }) {
                assert!(cands.len() > 1, "compaction creates ambiguity");
            }
        }
    }

    #[test]
    fn xor_parity_masks_even_counts() {
        // Two detections on different chains of the same channel at the same
        // position and pattern must cancel.
        let (nl, pats) = setup();
        let chains = ScanChains::stitch(&nl, 8, 4);
        let fsim = FaultSimulator::new(&nl, &pats);
        let obs = fsim.obs();
        // Find two flops on distinct chains sharing a channel & position.
        let f0 = chains.chains()[0][0];
        let f1 = chains.chains()[1][0];
        assert_eq!(chains.channel_of_chain(0), chains.channel_of_chain(1));
        let d = vec![
            Detection {
                pattern: 3,
                obs: obs.of_gate(f0).unwrap(),
            },
            Detection {
                pattern: 3,
                obs: obs.of_gate(f1).unwrap(),
            },
        ];
        let log = FailureLog::compacted(&d, obs, &chains);
        assert!(log.is_empty(), "even parity must alias to a pass");
        // Odd parity survives.
        let log1 = FailureLog::compacted(&d[..1], obs, &chains);
        assert_eq!(log1.len(), 1);
    }

    #[test]
    fn direct_entries_bypass_compactor() {
        let (nl, pats) = setup();
        let chains = ScanChains::stitch(&nl, 8, 4);
        let fsim = FaultSimulator::new(&nl, &pats);
        let obs = fsim.obs();
        // A PO observation passes through unchanged.
        let po_obs = obs
            .iter()
            .find(|(_, p)| p.kind == ObsKind::Po)
            .map(|(id, _)| id)
            .unwrap();
        let d = vec![Detection {
            pattern: 1,
            obs: po_obs,
        }];
        let log = FailureLog::compacted(&d, obs, &chains);
        assert_eq!(
            log.entries(),
            &[FailEntry {
                pattern: 1,
                obs: FailObs::Direct(po_obs)
            }]
        );
    }

    #[test]
    fn corrupt_entries_resolve_to_no_observers() {
        let (nl, pats) = setup();
        let chains = ScanChains::stitch(&nl, 8, 4);
        let fsim = FaultSimulator::new(&nl, &pats);
        let obs = fsim.obs();
        // Out-of-range direct id.
        let bad_direct = FailEntry {
            pattern: 0,
            obs: FailObs::Direct(ObsId(obs.len() as u32 + 7)),
        };
        assert!(FailureLog::candidate_observers(&bad_direct, obs, Some(&chains)).is_empty());
        // Channel entry reaching a bypass-mode (chain-less) diagnosis.
        let orphan_channel = FailEntry {
            pattern: 0,
            obs: FailObs::Channel {
                channel: 0,
                position: 0,
            },
        };
        assert!(FailureLog::candidate_observers(&orphan_channel, obs, None).is_empty());
        // Out-of-range channel / scan position.
        let bad_channel = FailEntry {
            pattern: 0,
            obs: FailObs::Channel {
                channel: 999,
                position: 999,
            },
        };
        assert!(FailureLog::candidate_observers(&bad_channel, obs, Some(&chains)).is_empty());
    }

    #[test]
    fn log_sorted_and_deduped() {
        let e = FailEntry {
            pattern: 5,
            obs: FailObs::Direct(ObsId(1)),
        };
        let log = FailureLog::new(vec![e, e]);
        assert_eq!(log.len(), 1);
    }
}
