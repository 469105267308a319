//! Answer quality (paper §VI-A and §II-B) and the answer digest.

use m3d_diagnosis::DiagnosisReport;
use m3d_fault_loc::TierLocalization;
use m3d_netlist::{Pin, PinRef};
use m3d_part::{MivId, Tier};

/// What the quality metrics need to know about one diagnosed chip.
#[derive(Debug, Clone, Copy)]
pub struct Case<'a> {
    /// Ground-truth defect sites.
    pub truth: &'a [PinRef],
    /// Ground-truth faulty tier (`None` for MIV defects, which belong to
    /// no tier).
    pub truth_tier: Option<Tier>,
    /// The defective via, for MIV-defect chips.
    pub truth_miv: Option<MivId>,
    /// Whether the raw ATPG report already sat in a single tier (such
    /// chips are excluded from tier localization).
    pub atpg_single_tier: bool,
    /// The tier the framework named.
    pub named_tier: Tier,
    /// The final (policy-updated) report.
    pub report: &'a DiagnosisReport,
    /// Vias the MIV-pinpointer flagged.
    pub faulty_mivs: &'a [MivId],
}

/// Quality aggregates over a set of diagnosed chips.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Chips added.
    pub chips: usize,
    /// Tier-localization tally (chips whose ATPG report spans both tiers).
    pub tier: TierLocalization,
    /// Final reports containing a ground-truth site.
    pub hits: usize,
    /// Sum of final report lengths.
    pub resolution_sum: usize,
    /// Sum of first-hit indices over hitting reports.
    pub fhi_sum: usize,
    /// MIV-defect chips.
    pub miv_chips: usize,
    /// MIV-defect chips whose defective via was flagged.
    pub miv_hits: usize,
}

impl Quality {
    /// Adds one chip.
    pub fn add(&mut self, c: &Case<'_>) {
        self.chips += 1;
        if let Some(truth) = c.truth_tier {
            self.tier.add(c.atpg_single_tier, Some(c.named_tier), truth);
        }
        self.resolution_sum += c.report.resolution();
        if let Some(fhi) = c.report.first_hit_index(c.truth) {
            self.hits += 1;
            self.fhi_sum += fhi;
        }
        if let Some(miv) = c.truth_miv {
            self.miv_chips += 1;
            self.miv_hits += usize::from(c.faulty_mivs.contains(&miv));
        }
    }

    /// Paper §VI-A tier localization, in percent.
    pub fn tier_loc_pct(&self) -> Option<f64> {
        self.tier.percentage()
    }

    /// Share of final reports that contain a ground-truth site, in percent.
    pub fn diag_accuracy_pct(&self) -> Option<f64> {
        pct(self.hits, self.chips)
    }

    /// Share of MIV-defect chips whose via was flagged, in percent.
    pub fn miv_hit_pct(&self) -> Option<f64> {
        pct(self.miv_hits, self.miv_chips)
    }

    /// Mean final report length.
    pub fn resolution_mean(&self) -> Option<f64> {
        ratio(self.resolution_sum, self.chips)
    }

    /// Mean first-hit index over hitting reports.
    pub fn fhi_mean(&self) -> Option<f64> {
        ratio(self.fhi_sum, self.hits)
    }
}

fn ratio(num: usize, den: usize) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

fn pct(num: usize, den: usize) -> Option<f64> {
    ratio(num, den).map(|r| 100.0 * r)
}

/// FNV-1a (64-bit) over the answers of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds in one diagnosis: named tier, confidence bits, the final
    /// candidate list in rank order, and the degrade reason.
    pub fn diagnosis(
        &mut self,
        tier: Tier,
        confidence: f32,
        report: &DiagnosisReport,
        degrade: Option<&str>,
    ) {
        self.bytes(&[tier.0]);
        self.bytes(&confidence.to_bits().to_le_bytes());
        self.bytes(&(report.resolution() as u64).to_le_bytes());
        for c in report.candidates() {
            self.bytes(&c.fault.site.gate.0.to_le_bytes());
            self.bytes(&[
                match c.fault.site.pin {
                    Pin::Input(k) => k,
                    Pin::Output => 0xFF,
                },
                c.fault.polarity as u8,
            ]);
        }
        self.bytes(degrade.unwrap_or("-").as_bytes());
        self.bytes(&[0]);
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}
