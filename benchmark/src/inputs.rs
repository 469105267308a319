//! Seeded chip generation: the workload inputs.
//!
//! A chip is one injected defect plus the tester failure log it produces.
//! The program under test only ever receives the log; the injected fault
//! and its ground-truth sites stay here for the quality metrics.
//!
//! Chip `i` of a stream depends only on `(seed, attempt)`, never on the
//! thread count or on how many chips were taken before, so the same seed
//! always yields the same logs. Logs come from
//! [`DesignContext::masked_failure_log`], which fault-simulates and runs
//! no back-trace, so generating inputs leaves no warm state behind.

use m3d_exec::ExecPool;
use m3d_fault_loc::{DesignContext, InjectedFault};
use m3d_netlist::PinRef;
use m3d_part::MivId;
use m3d_sim::{FailureLog, Polarity, Tdf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Share of chips that carry a defective MIV instead of a single TDF.
pub const MIV_FRACTION: f64 = 0.1;

/// Probability that each fault effect reaches the tester (the program's
/// small-delay slack model; see `DatasetConfig::single`).
pub const DETECT_PROB: f64 = 0.7;

/// One generated chip.
#[derive(Debug, Clone)]
pub struct Chip {
    /// The injected defect (ground truth).
    pub fault: InjectedFault,
    /// The tester failure log: the only thing the program sees.
    pub log: FailureLog,
    /// Ground-truth defect sites.
    pub truth: Vec<PinRef>,
}

impl Chip {
    /// The defective via, for MIV-defect chips.
    pub fn miv(&self) -> Option<MivId> {
        match self.fault {
            InjectedFault::Miv { miv, .. } => Some(miv),
            _ => None,
        }
    }
}

/// An endless, deterministic stream of chips on one design.
pub struct ChipStream<'c, 'a> {
    ctx: &'c DesignContext<'a>,
    sites: Vec<PinRef>,
    compacted: bool,
    seed: u64,
    min_entries: usize,
    attempts: u64,
}

impl<'c, 'a> ChipStream<'c, 'a> {
    /// A stream of chips on `ctx`'s design. Logs with fewer than
    /// `min_entries` entries (and empty logs) are skipped.
    pub fn new(ctx: &'c DesignContext<'a>, compacted: bool, seed: u64, min_entries: usize) -> Self {
        ChipStream {
            ctx,
            sites: ctx.bench.netlist().fault_sites().collect(),
            compacted,
            seed,
            min_entries: min_entries.max(1),
            attempts: 0,
        }
    }

    /// The next `n` chips, simulated on `pool`.
    ///
    /// # Errors
    ///
    /// When 2000 attempts per requested chip produce too few usable logs.
    pub fn take(&mut self, n: usize, pool: &ExecPool) -> Result<Vec<Chip>, String> {
        let mut out = Vec::with_capacity(n);
        let budget = self.attempts + 2000 * n as u64 + 1000;
        while out.len() < n {
            if self.attempts >= budget {
                return Err(format!(
                    "only {} of {n} chips with >= {} log entries after {} attempts",
                    out.len(),
                    self.min_entries,
                    self.attempts
                ));
            }
            let k = ((n - out.len()) * 2).max(pool.threads() * 2) as u64;
            let attempts: Vec<u64> = (self.attempts..self.attempts + k).collect();
            self.attempts += k;
            let chips = pool.map(&attempts, |_, &attempt| self.chip(attempt));
            out.extend(chips.into_iter().flatten().take(n - out.len()));
        }
        Ok(out)
    }

    fn chip(&self, attempt: u64) -> Option<Chip> {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, attempt));
        let polarity = if rng.gen_bool(0.5) {
            Polarity::SlowToRise
        } else {
            Polarity::SlowToFall
        };
        let n_mivs = self.ctx.bench.m3d.miv_count();
        let fault = if n_mivs > 0 && rng.gen_bool(MIV_FRACTION) {
            InjectedFault::Miv {
                miv: MivId(rng.gen_range(0..n_mivs as u32)),
                polarity,
            }
        } else {
            let site = self.sites[rng.gen_range(0..self.sites.len())];
            InjectedFault::Single(Tdf::new(site, polarity))
        };
        let log =
            self.ctx
                .masked_failure_log(&fault, self.compacted, DETECT_PROB, rng.gen::<u64>());
        (log.len() >= self.min_entries).then(|| Chip {
            truth: fault.truth_sites(self.ctx.bench),
            fault,
            log,
        })
    }
}

/// SplitMix64 finalizer over `(seed, attempt)`: neighbouring attempts and
/// seeds get unrelated RNG streams.
fn mix(seed: u64, attempt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(attempt)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
