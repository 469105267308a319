//! Seeded corruption of the pipeline's boundary data: failure logs,
//! back-traced subgraphs, and GNN output probabilities.

use m3d_fault_loc::{Subgraph, N_FEATURES};
use m3d_gnn::{Graph, Matrix};
use m3d_part::MivId;
use m3d_sim::{FailEntry, FailObs, FailureLog, ObsId};
use rand::rngs::StdRng;
use rand::Rng;

/// Offset added to pattern numbers by [`LogChaos::CorruptPattern`] — far
/// past any simulated pattern capacity, so a corrupted entry is always
/// out of range.
pub(crate) const PATTERN_CORRUPTION_OFFSET: u32 = 1_000_000_000;

/// A failure-log corruption, modelling tester-side damage.
#[derive(Debug, Clone, PartialEq)]
pub enum LogChaos {
    /// Each failing observation is dropped with probability `frac`
    /// (lost tester records).
    DropEntries {
        /// Per-entry drop probability.
        frac: f64,
    },
    /// Each failing observation is duplicated with probability `frac`.
    /// Semantically a no-op: [`FailureLog`] deduplicates on construction.
    DuplicateEntries {
        /// Per-entry duplication probability.
        frac: f64,
    },
    /// Only the first `keep_frac` of the (sorted) entries survive — a
    /// scan response cut short mid-unload.
    TruncateScan {
        /// Fraction of entries kept (ceil; at least one survives when the
        /// log was non-empty and `keep_frac > 0`).
        keep_frac: f64,
    },
    /// The chip never fails: an empty log.
    NeverFailing,
    /// Each entry's pattern number is pushed out of the simulated range
    /// with probability `frac`.
    CorruptPattern {
        /// Per-entry corruption probability.
        frac: f64,
    },
    /// Each entry's observation is rewritten with probability `frac` to
    /// one that cannot resolve: an out-of-range [`ObsId`] or a
    /// channel/position pair no scan chain populates.
    CorruptObs {
        /// Per-entry corruption probability.
        frac: f64,
    },
}

/// Applies a [`LogChaos`] to a failure log, returning the corrupted log
/// (the input is untouched). Deterministic in `rng`'s state.
pub fn inject_log(log: &FailureLog, chaos: &LogChaos, rng: &mut StdRng) -> FailureLog {
    let entries = log.entries();
    let out: Vec<FailEntry> = match chaos {
        LogChaos::DropEntries { frac } => entries
            .iter()
            .copied()
            .filter(|_| !rng.gen_bool(*frac))
            .collect(),
        LogChaos::DuplicateEntries { frac } => {
            let mut v = entries.to_vec();
            for e in entries {
                if rng.gen_bool(*frac) {
                    v.push(*e);
                }
            }
            v
        }
        LogChaos::TruncateScan { keep_frac } => {
            let keep = ((entries.len() as f64) * keep_frac).ceil() as usize;
            entries[..keep.min(entries.len())].to_vec()
        }
        LogChaos::NeverFailing => Vec::new(),
        LogChaos::CorruptPattern { frac } => {
            let mut v = entries.to_vec();
            for e in &mut v {
                if rng.gen_bool(*frac) {
                    e.pattern = e.pattern.saturating_add(PATTERN_CORRUPTION_OFFSET);
                }
            }
            v
        }
        LogChaos::CorruptObs { frac } => {
            let mut v = entries.to_vec();
            for (k, e) in v.iter_mut().enumerate() {
                if rng.gen_bool(*frac) {
                    // Alternate the two unresolvable shapes so a single
                    // scenario exercises both lookup paths.
                    e.obs = if k % 2 == 0 {
                        FailObs::Direct(ObsId(9_000_000 + k as u32))
                    } else {
                        FailObs::Channel {
                            channel: u16::MAX,
                            position: u16::MAX,
                        }
                    };
                }
            }
            v
        }
    };
    FailureLog::new(out)
}

/// A subgraph corruption, modelling damaged partition/back-trace data.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphChaos {
    /// The zero-node subgraph (an empty back-trace intersection).
    Empty,
    /// Each node row's features are overwritten with NaN with probability
    /// `frac`; at least one row is always poisoned.
    NanFeatures {
        /// Per-row poisoning probability.
        frac: f64,
    },
    /// As [`GraphChaos::NanFeatures`] with `+Inf`.
    InfFeatures {
        /// Per-row poisoning probability.
        frac: f64,
    },
    /// Appends an MIV row pointing far past the node set — an orphan MIV
    /// node, as produced by a partition/back-trace mismatch.
    OrphanMivRow,
}

/// Applies a [`GraphChaos`] to a subgraph, returning the corrupted copy.
/// Deterministic in `rng`'s state.
pub fn inject_subgraph(sub: &Subgraph, chaos: &GraphChaos, rng: &mut StdRng) -> Subgraph {
    match chaos {
        GraphChaos::Empty => Subgraph {
            nodes: vec![],
            adj: Graph::new(0).normalize(true),
            x: Matrix::zeros(0, N_FEATURES),
            miv_rows: vec![],
            stats: sub.stats,
        },
        GraphChaos::NanFeatures { frac } => poison_rows(sub, *frac, f32::NAN, rng),
        GraphChaos::InfFeatures { frac } => poison_rows(sub, *frac, f32::INFINITY, rng),
        GraphChaos::OrphanMivRow => {
            let mut s = sub.clone();
            s.miv_rows.push((s.nodes.len() + 100, MivId(u32::MAX / 2)));
            s
        }
    }
}

fn poison_rows(sub: &Subgraph, frac: f64, value: f32, rng: &mut StdRng) -> Subgraph {
    let mut s = sub.clone();
    let rows = s.x.rows();
    let mut any = false;
    for r in 0..rows {
        if rng.gen_bool(frac) {
            for c in 0..s.x.cols() {
                s.x.set(r, c, value);
            }
            any = true;
        }
    }
    // The scenario promises a poisoned matrix; make the guarantee
    // unconditional so its MustDegrade expectation is checkable.
    if !any && rows > 0 {
        s.x.set(0, 0, value);
    }
    s
}

/// A GNN-inference corruption: the probability vectors a broken model (or
/// a bit-flipped accelerator) would hand the framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GnnChaos {
    /// Tier probabilities are all NaN.
    NanTierProbs,
    /// One tier probability is `+Inf` — it clears any `T_P`, so an
    /// unguarded policy would prune on garbage.
    InfTierProbs,
    /// The Tier-predictor returns no probabilities at all.
    EmptyTierProbs,
    /// MIV probabilities are NaN/Inf (tier probabilities healthy).
    NanMivProbs,
}

impl GnnChaos {
    /// The corrupted Tier-predictor output this chaos injects.
    pub fn tier_probs(self) -> Vec<f32> {
        match self {
            GnnChaos::NanTierProbs => vec![f32::NAN, f32::NAN],
            GnnChaos::InfTierProbs => vec![f32::INFINITY, 0.3],
            GnnChaos::EmptyTierProbs => vec![],
            GnnChaos::NanMivProbs => vec![0.5, 0.5],
        }
    }

    /// The corrupted MIV-pinpointer output this chaos injects.
    pub fn miv_probs(self) -> Vec<(MivId, f32)> {
        match self {
            GnnChaos::NanMivProbs => {
                vec![(MivId(0), f32::NAN), (MivId(1), f32::INFINITY)]
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn log_of(n: u32) -> FailureLog {
        FailureLog::new(
            (0..n)
                .map(|i| FailEntry {
                    pattern: i,
                    obs: FailObs::Direct(ObsId(i)),
                })
                .collect(),
        )
    }

    #[test]
    fn duplicates_collapse_to_the_same_log() {
        let log = log_of(20);
        let mut rng = StdRng::seed_from_u64(3);
        let dup = inject_log(&log, &LogChaos::DuplicateEntries { frac: 0.8 }, &mut rng);
        assert_eq!(dup, log);
    }

    #[test]
    fn never_failing_is_empty_and_full_corruption_corrupts_everything() {
        let log = log_of(10);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(inject_log(&log, &LogChaos::NeverFailing, &mut rng).is_empty());
        let pat = inject_log(&log, &LogChaos::CorruptPattern { frac: 1.0 }, &mut rng);
        assert_eq!(pat.len(), 10);
        assert!(pat
            .entries()
            .iter()
            .all(|e| e.pattern >= PATTERN_CORRUPTION_OFFSET));
        let obs = inject_log(&log, &LogChaos::CorruptObs { frac: 1.0 }, &mut rng);
        assert!(obs.entries().iter().all(|e| match e.obs {
            FailObs::Direct(id) => id.0 >= 9_000_000,
            FailObs::Channel { channel, position } => channel == u16::MAX && position == u16::MAX,
        }));
    }

    #[test]
    fn truncation_keeps_a_prefix() {
        let log = log_of(10);
        let mut rng = StdRng::seed_from_u64(5);
        let cut = inject_log(&log, &LogChaos::TruncateScan { keep_frac: 0.25 }, &mut rng);
        assert_eq!(cut.entries(), &log.entries()[..3]);
    }

    #[test]
    fn injection_is_deterministic_in_the_seed() {
        let log = log_of(50);
        let chaos = LogChaos::DropEntries { frac: 0.5 };
        let a = inject_log(&log, &chaos, &mut StdRng::seed_from_u64(9));
        let b = inject_log(&log, &chaos, &mut StdRng::seed_from_u64(9));
        let c = inject_log(&log, &chaos, &mut StdRng::seed_from_u64(10));
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should drop different entries");
    }

    #[test]
    fn gnn_chaos_vectors_are_corrupt_as_labelled() {
        assert!(GnnChaos::NanTierProbs
            .tier_probs()
            .iter()
            .all(|p| p.is_nan()));
        assert!(GnnChaos::EmptyTierProbs.tier_probs().is_empty());
        assert!(GnnChaos::InfTierProbs
            .tier_probs()
            .iter()
            .any(|p| p.is_infinite()));
        assert!(GnnChaos::NanMivProbs
            .miv_probs()
            .iter()
            .all(|(_, p)| !p.is_finite()));
    }
}
