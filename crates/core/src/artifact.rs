//! Whole-framework artifact persistence: the `m3d-artifact/2` format.
//!
//! A trained [`Framework`](crate::Framework) is only useful across process
//! exits if everything the diagnosis path consumes survives serialization:
//! the Tier-predictor and MIV-pinpointer GCNs, the transfer-learned
//! Classifier head, the PR-curve-derived `T_P` (with its fallback marker),
//! the policy knobs, and — because the models are only meaningful against
//! the exact circuit they were trained on — the design recipe plus a
//! fingerprint of the bench it produces.
//!
//! The format extends the zero-dependency line-oriented text layout of
//! `m3d-gnn-model v1` (exact `f32`/`f64` round-trips via hex-encoded
//! bits): a header, the embedded [`TestBenchConfig`] recipe, the policy
//! state, and up to three embedded model blocks, each preceded by its
//! line count so a reader can slice it without understanding its grammar.
//! The Classifier block is a dense head alone (the `head` section of
//! `m3d-gnn-model v1`) over the Tier-predictor's readout.
//!
//! ```text
//! m3d-artifact/2
//! design aes/Syn-1
//! profile aes
//! scale 3f747ae147ae147b
//! config syn1
//! compaction 4
//! atpg a7b6 256 8 3fef0a3d70a3d70a 1000
//! fingerprint 9e3779b97f4a7c15
//! policy 3f7d70a4 3f4ccccd 1 0
//! tier 9
//! m3d-gnn-model v1
//! ...
//! miv 0
//! classifier 7
//! head 2
//! layer 64 16
//! ...
//! end m3d-artifact
//! ```
//!
//! Loading re-runs the deterministic Fig. 4 design-generation flow from
//! the embedded recipe and refuses to open a session when the rebuilt
//! bench's fingerprint differs from the recorded one (generator drift, or
//! the wrong bench supplied).

use crate::classifier::PruneClassifier;
use crate::design::{DesignConfig, TestBench, TestBenchConfig};
use crate::error::{Error, Result};
use crate::framework::Framework;
use crate::models::{MivPinpointer, TierPredictor};
use crate::policy::PolicyConfig;
use m3d_netlist::BenchmarkProfile;
use m3d_sim::AtpgConfig;
use std::fmt::Write as _;
use std::path::Path;

/// The version header every artifact starts with.
pub const ARTIFACT_HEADER: &str = "m3d-artifact/2";
const ARTIFACT_FOOTER: &str = "end m3d-artifact";

/// A serialized, self-contained diagnosis framework: design recipe +
/// fingerprint + policy state + model parameters.
///
/// Produced by [`Pipeline::save_artifact`](crate::Pipeline::save_artifact)
/// and consumed by
/// [`Pipeline::load_artifact`](crate::Pipeline::load_artifact), which
/// seals it into a read-only [`DiagnosisSession`](crate::DiagnosisSession).
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    design: String,
    bench_cfg: TestBenchConfig,
    fingerprint: u64,
    policy: PolicyConfig,
    t_p_fallback: bool,
    tier_text: String,
    miv_text: Option<String>,
    classifier_text: Option<String>,
}

/// The 64-bit FNV-1a hash: a zero-dependency fold, strong enough to catch
/// drift. It fingerprints designs here and hashes chaos-campaign
/// outcomes.
#[derive(Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// A fresh hash at the FNV-1a offset basis.
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` in, in order.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds `v` in as its 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprints a test bench: design name, netlist size, partition
/// assignment, MIV count, pattern-set size, and ATPG coverage. Any drift
/// in the deterministic design-generation flow changes at least one of
/// these, which is exactly what must invalidate a persisted model.
pub fn design_fingerprint(bench: &TestBench) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bench.name.as_bytes());
    h.write_u64(bench.netlist().gate_count() as u64);
    h.write_u64(bench.m3d.miv_count() as u64);
    for t in bench.m3d.partition().as_slice() {
        h.write(&[t.0]);
    }
    h.write_u64(bench.patterns.len() as u64);
    h.write_u64(bench.coverage.to_bits());
    h.finish()
}

fn err(line: usize, message: impl Into<String>) -> Error {
    Error::Artifact {
        line,
        message: message.into(),
    }
}

struct Cursor<'a> {
    lines: Vec<&'a str>,
    at: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Result<(usize, &'a str)> {
        let line = self
            .lines
            .get(self.at)
            .ok_or_else(|| err(self.at, "unexpected end of artifact"))?;
        self.at += 1;
        Ok((self.at, line))
    }

    /// Reads a `<key> <value>` line, returning the value.
    fn field(&mut self, key: &str) -> Result<(usize, &'a str)> {
        let (n, line) = self.next()?;
        let rest = line
            .strip_prefix(key)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| err(n, format!("expected `{key} <value>`")))?;
        Ok((n, rest.trim()))
    }

    /// Reads a `<key> <value>` line if the next line carries `key`;
    /// leaves the cursor untouched otherwise (for optional fields, which
    /// documents without them simply omit).
    fn optional_field(&mut self, key: &str) -> Option<(usize, &'a str)> {
        let line = self.lines.get(self.at)?;
        let rest = line.strip_prefix(key).and_then(|r| r.strip_prefix(' '))?;
        self.at += 1;
        Some((self.at, rest.trim()))
    }

    /// Reads a counted block: a `<key> <n>` line followed by `n` raw
    /// lines, returned re-joined (empty `n` yields `None`).
    fn block(&mut self, key: &str) -> Result<Option<String>> {
        let (n, count) = self.field(key)?;
        let count: usize = count
            .parse()
            .map_err(|_| err(n, format!("bad `{key}` line count")))?;
        if count == 0 {
            return Ok(None);
        }
        let mut out = String::new();
        for _ in 0..count {
            let (_, line) = self.next()?;
            out.push_str(line);
            out.push('\n');
        }
        Ok(Some(out))
    }
}

fn parse_hex_u64(s: &str, line: usize, what: &str) -> Result<u64> {
    u64::from_str_radix(s, 16).map_err(|_| err(line, format!("bad {what}")))
}

fn parse_hex_f32(s: &str, line: usize, what: &str) -> Result<f32> {
    u32::from_str_radix(s, 16)
        .map(f32::from_bits)
        .map_err(|_| err(line, format!("bad {what}")))
}

fn parse_hex_f64(s: &str, line: usize, what: &str) -> Result<f64> {
    parse_hex_u64(s, line, what).map(f64::from_bits)
}

fn parse_bool(s: &str, line: usize, what: &str) -> Result<bool> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(err(line, format!("bad {what} (expected 0/1)"))),
    }
}

fn profile_by_name(name: &str) -> Option<BenchmarkProfile> {
    BenchmarkProfile::ALL.into_iter().find(|p| p.name() == name)
}

fn write_config(out: &mut String, config: &DesignConfig) {
    let _ = match config {
        DesignConfig::Syn1 => writeln!(out, "config syn1"),
        DesignConfig::Tpi => writeln!(out, "config tpi"),
        DesignConfig::Syn2 => writeln!(out, "config syn2"),
        DesignConfig::Par => writeln!(out, "config par"),
        DesignConfig::RandomPart { seed } => writeln!(out, "config rand {seed:x}"),
    };
}

fn parse_config(value: &str, line: usize) -> Result<DesignConfig> {
    let mut it = value.split_whitespace();
    match (it.next(), it.next()) {
        (Some("syn1"), None) => Ok(DesignConfig::Syn1),
        (Some("tpi"), None) => Ok(DesignConfig::Tpi),
        (Some("syn2"), None) => Ok(DesignConfig::Syn2),
        (Some("par"), None) => Ok(DesignConfig::Par),
        (Some("rand"), Some(seed)) => Ok(DesignConfig::RandomPart {
            seed: parse_hex_u64(seed, line, "random-partition seed")?,
        }),
        _ => Err(err(line, "bad design config")),
    }
}

impl Artifact {
    /// Captures a trained framework together with the design recipe it
    /// was trained against. `bench` must be the bench built from
    /// `bench_cfg` (its fingerprint is recorded for load-time
    /// verification).
    pub(crate) fn capture(
        bench_cfg: &TestBenchConfig,
        bench: &TestBench,
        fw: &Framework,
    ) -> Artifact {
        Artifact {
            design: bench.name.clone(),
            bench_cfg: bench_cfg.clone(),
            fingerprint: design_fingerprint(bench),
            policy: *fw.policy(),
            t_p_fallback: fw.t_p_is_fallback(),
            tier_text: fw.tier_predictor().save_text(),
            miv_text: fw.miv_pinpointer().map(MivPinpointer::save_text),
            classifier_text: fw.classifier().map(PruneClassifier::save_text),
        }
    }

    /// The design label (`"<profile>/<config>"`) the framework serves.
    pub fn design(&self) -> &str {
        &self.design
    }

    /// The embedded design recipe.
    pub fn bench_config(&self) -> &TestBenchConfig {
        &self.bench_cfg
    }

    /// The recorded design fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Re-runs the deterministic design-generation flow on the embedded
    /// recipe. The result is *not* yet verified against the recorded
    /// fingerprint — [`Pipeline::load_artifact`](crate::Pipeline::load_artifact)
    /// does that when opening the session.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidDesign`] when the embedded recipe no longer
    /// generates (e.g. generator drift since the artifact was written) —
    /// a server loading artifacts must get a value, not a panic.
    pub fn build_bench(&self) -> Result<TestBench> {
        TestBench::try_build(&self.bench_cfg)
    }

    /// Reconstructs the framework (models + policy) from the embedded
    /// blocks.
    pub(crate) fn rebuild_framework(&self) -> Result<Framework> {
        let tier = TierPredictor::load_text(&self.tier_text)?;
        let miv = self
            .miv_text
            .as_deref()
            .map(MivPinpointer::load_text)
            .transpose()?;
        let classifier = self
            .classifier_text
            .as_deref()
            .map(|text| PruneClassifier::load_text(text, &tier))
            .transpose()?;
        Ok(Framework::from_parts(
            tier,
            miv,
            classifier,
            self.policy,
            self.t_p_fallback,
        ))
    }

    /// Serializes to the `m3d-artifact/2` text document.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{ARTIFACT_HEADER}");
        let _ = writeln!(s, "design {}", self.design);
        let _ = writeln!(s, "profile {}", self.bench_cfg.profile.name());
        let _ = writeln!(s, "scale {:016x}", self.bench_cfg.scale.to_bits());
        write_config(&mut s, &self.bench_cfg.config);
        let _ = writeln!(s, "compaction {}", self.bench_cfg.compaction_ratio);
        if self.bench_cfg.max_scan_flops.is_some() || self.bench_cfg.max_outputs.is_some() {
            let fmt = |v: Option<usize>| v.map_or_else(|| "-".to_string(), |n| n.to_string());
            let _ = writeln!(
                s,
                "scanbudget {} {}",
                fmt(self.bench_cfg.max_scan_flops),
                fmt(self.bench_cfg.max_outputs),
            );
        }
        let a = &self.bench_cfg.atpg;
        let _ = writeln!(
            s,
            "atpg {:x} {} {} {:016x} {}",
            a.seed,
            a.patterns_per_round,
            a.max_rounds,
            a.target_coverage.to_bits(),
            a.fault_sample
                .map_or_else(|| "-".to_string(), |n| n.to_string()),
        );
        let _ = writeln!(s, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(
            s,
            "policy {:08x} {:08x} {} {}",
            self.policy.t_p.to_bits(),
            self.policy.miv_threshold.to_bits(),
            u8::from(self.policy.tier_enabled),
            u8::from(self.t_p_fallback),
        );
        for (key, block) in [
            ("tier", Some(&self.tier_text)),
            ("miv", self.miv_text.as_ref()),
            ("classifier", self.classifier_text.as_ref()),
        ] {
            match block {
                Some(text) => {
                    let _ = writeln!(s, "{key} {}", text.lines().count());
                    s.push_str(text);
                    if !text.ends_with('\n') {
                        s.push('\n');
                    }
                }
                None => {
                    let _ = writeln!(s, "{key} 0");
                }
            }
        }
        let _ = writeln!(s, "{ARTIFACT_FOOTER}");
        s
    }

    /// Parses an `m3d-artifact/2` document, validating structure, every
    /// numeric encoding, and each embedded model block.
    ///
    /// # Errors
    ///
    /// [`Error::Artifact`] for structural damage (bad header/version,
    /// truncation, corrupt fields, missing footer) and
    /// [`Error::LoadModel`] when an embedded model block is malformed.
    pub fn from_text(text: &str) -> Result<Artifact> {
        let mut cursor = Cursor {
            lines: text.lines().collect(),
            at: 0,
        };
        let (n, header) = cursor.next()?;
        if header.trim() != ARTIFACT_HEADER {
            return Err(err(
                n,
                format!("bad header (expected `{ARTIFACT_HEADER}`, got `{header}`)"),
            ));
        }
        let (_, design) = cursor.field("design")?;
        let design = design.to_string();
        let (n, profile) = cursor.field("profile")?;
        let profile = profile_by_name(profile)
            .ok_or_else(|| err(n, format!("unknown profile `{profile}`")))?;
        let (n, scale) = cursor.field("scale")?;
        let scale = parse_hex_f64(scale, n, "scale")?;
        if !scale.is_finite() || scale <= 0.0 {
            return Err(err(n, "scale must be finite and positive"));
        }
        let (n, config) = cursor.field("config")?;
        let config = parse_config(config, n)?;
        let (n, compaction) = cursor.field("compaction")?;
        let compaction_ratio: usize = compaction
            .parse()
            .map_err(|_| err(n, "bad compaction ratio"))?;
        let mut max_scan_flops = None;
        let mut max_outputs = None;
        if let Some((n, budget)) = cursor.optional_field("scanbudget") {
            let toks: Vec<&str> = budget.split_whitespace().collect();
            let [flops, outputs] = toks.as_slice() else {
                return Err(err(n, "scanbudget line needs 2 fields"));
            };
            let parse_cap = |s: &str, what: &str| -> Result<Option<usize>> {
                if s == "-" {
                    Ok(None)
                } else {
                    s.parse()
                        .map(Some)
                        .map_err(|_| err(n, format!("bad {what}")))
                }
            };
            max_scan_flops = parse_cap(flops, "scanbudget flop cap")?;
            max_outputs = parse_cap(outputs, "scanbudget output cap")?;
        }
        let (n, atpg) = cursor.field("atpg")?;
        let toks: Vec<&str> = atpg.split_whitespace().collect();
        let [seed, ppr, rounds, cov, sample] = toks.as_slice() else {
            return Err(err(n, "atpg line needs 5 fields"));
        };
        let atpg = AtpgConfig {
            seed: parse_hex_u64(seed, n, "atpg seed")?,
            patterns_per_round: ppr
                .parse()
                .map_err(|_| err(n, "bad atpg patterns_per_round"))?,
            max_rounds: rounds.parse().map_err(|_| err(n, "bad atpg max_rounds"))?,
            target_coverage: parse_hex_f64(cov, n, "atpg target_coverage")?,
            fault_sample: if *sample == "-" {
                None
            } else {
                Some(
                    sample
                        .parse()
                        .map_err(|_| err(n, "bad atpg fault_sample"))?,
                )
            },
        };
        let (n, fp) = cursor.field("fingerprint")?;
        let fingerprint = parse_hex_u64(fp, n, "fingerprint")?;
        let (n, policy) = cursor.field("policy")?;
        let toks: Vec<&str> = policy.split_whitespace().collect();
        let [t_p, miv_thr, tier_en, fallback] = toks.as_slice() else {
            return Err(err(n, "policy line needs 4 fields"));
        };
        let policy = PolicyConfig {
            t_p: parse_hex_f32(t_p, n, "policy t_p")?,
            miv_threshold: parse_hex_f32(miv_thr, n, "policy miv_threshold")?,
            tier_enabled: parse_bool(tier_en, n, "policy tier_enabled")?,
        };
        let t_p_fallback = parse_bool(fallback, n, "policy t_p_fallback")?;

        let tier_text = cursor
            .block("tier")?
            .ok_or_else(|| err(cursor.at, "artifact has no tier-predictor block"))?;
        let miv_text = cursor.block("miv")?;
        let classifier_text = cursor.block("classifier")?;
        let (n, footer) = cursor.next()?;
        if footer.trim() != ARTIFACT_FOOTER {
            return Err(err(n, "bad footer (artifact truncated or trailing junk)"));
        }
        if cursor.at < cursor.lines.len() {
            return Err(err(cursor.at + 1, "trailing content after footer"));
        }

        let artifact = Artifact {
            design,
            bench_cfg: TestBenchConfig {
                profile,
                scale,
                config,
                compaction_ratio,
                atpg,
                max_scan_flops,
                max_outputs,
            },
            fingerprint,
            policy,
            t_p_fallback,
            tier_text,
            miv_text,
            classifier_text,
        };
        // Validate the embedded model blocks eagerly, so a corrupt
        // artifact is rejected at parse time rather than at first use.
        artifact.rebuild_framework()?;
        Ok(artifact)
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_text()).map_err(|e| Error::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Reads and parses an artifact from `path`.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the file cannot be read; the
    /// [`Artifact::from_text`] errors for a malformed document.
    pub fn load(path: impl AsRef<Path>) -> Result<Artifact> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| Error::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Artifact::from_text(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_samples, DatasetConfig, DesignContext};
    use crate::framework::{FrameworkConfig, TrainingSet};
    use m3d_exec::ExecPool;
    use m3d_gnn::DenseHead;

    fn tiny_bench() -> (TestBenchConfig, TestBench) {
        let cfg = TestBenchConfig {
            scale: 0.002,
            ..TestBenchConfig::quick(BenchmarkProfile::AesLike, DesignConfig::Syn1)
        };
        let bench = TestBench::build(&cfg);
        (cfg, bench)
    }

    fn trained(bench: &TestBench) -> Framework {
        let ctx = DesignContext::new(bench);
        let train = generate_samples(
            &ctx,
            &DatasetConfig {
                miv_fraction: 0.2,
                ..DatasetConfig::single(40, 3)
            },
        );
        let mut ts = TrainingSet::new();
        ts.add(bench, &train);
        Framework::try_train(&ts, &FrameworkConfig::default(), &ExecPool::with_threads(1))
            .expect("non-empty training set")
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let (cfg, bench) = tiny_bench();
        let fw = trained(&bench);
        let art = Artifact::capture(&cfg, &bench, &fw);
        let text = art.to_text();
        let back = Artifact::from_text(&text).expect("round trip");
        assert_eq!(art, back);
        // Re-serializing the parsed artifact is byte-identical.
        assert_eq!(text, back.to_text());
        assert_eq!(back.design(), bench.name);
        assert_eq!(back.bench_config(), &cfg);
        assert_eq!(back.fingerprint(), design_fingerprint(&bench));
    }

    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        let hash = |bytes: &[u8]| {
            let mut h = Fnv1a::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
        // Folding in pieces equals folding the concatenation.
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), hash(b"foobar"));
    }

    #[test]
    fn fingerprint_separates_designs_and_is_stable() {
        let (cfg, bench) = tiny_bench();
        assert_eq!(design_fingerprint(&bench), design_fingerprint(&bench));
        let rebuilt = TestBench::build(&cfg);
        assert_eq!(design_fingerprint(&bench), design_fingerprint(&rebuilt));
        let other = TestBench::build(&TestBenchConfig {
            scale: 0.002,
            ..TestBenchConfig::quick(BenchmarkProfile::AesLike, DesignConfig::Par)
        });
        assert_ne!(design_fingerprint(&bench), design_fingerprint(&other));
    }

    #[test]
    fn rejects_version_skew_truncation_and_corruption() {
        let (cfg, bench) = tiny_bench();
        let fw = trained(&bench);
        let text = Artifact::capture(&cfg, &bench, &fw).to_text();

        // Version skew, backward and forward.
        for version in ["m3d-artifact/1", "m3d-artifact/3"] {
            let skewed = text.replacen(ARTIFACT_HEADER, version, 1);
            assert!(matches!(
                Artifact::from_text(&skewed),
                Err(Error::Artifact { line: 1, .. })
            ));
        }
        // A Classifier head that does not read the tier-predictor's readout.
        let head = fw.classifier().expect("a trained classifier").save_text();
        let narrow = DenseHead::new(8, Some(16), 2, 1);
        let bad = text.replacen(&head, &narrow.save_text(), 1);
        assert!(matches!(
            Artifact::from_text(&bad),
            Err(Error::LoadModel(_))
        ));
        // Truncation at every 10th line must error, never panic.
        let lines: Vec<&str> = text.lines().collect();
        for cut in (1..lines.len()).step_by(10) {
            let t = lines[..cut].join("\n");
            assert!(
                Artifact::from_text(&t).is_err(),
                "truncation at line {cut} must be rejected"
            );
        }
        // Corrupt policy encoding.
        let bad = text.replacen("policy ", "policy zz", 1);
        assert!(Artifact::from_text(&bad).is_err());
        // Corrupt embedded model float.
        let bad = text.replacen("m3d-gnn-model v1", "m3d-gnn-model v9", 1);
        assert!(matches!(
            Artifact::from_text(&bad),
            Err(Error::LoadModel(_))
        ));
        // Footer junk.
        let bad = format!("{text}trailing\n");
        assert!(Artifact::from_text(&bad).is_err());
        assert!(Artifact::from_text("").is_err());
    }

    #[test]
    fn file_io_round_trips_and_reports_io_errors() {
        let (cfg, bench) = tiny_bench();
        let fw = trained(&bench);
        let art = Artifact::capture(&cfg, &bench, &fw);
        let dir = std::env::temp_dir().join("m3d-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("aes-syn1.m3da");
        art.save(&path).unwrap();
        assert_eq!(Artifact::load(&path).unwrap(), art);
        let missing = dir.join("does-not-exist.m3da");
        assert!(matches!(Artifact::load(&missing), Err(Error::Io { .. })));
    }
}
