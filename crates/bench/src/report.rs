//! Run-report plumbing shared by every harness binary.
//!
//! Each `src/bin` target installs a [`ReportGuard`] right after argument
//! parsing; when `M3D_OBS_REPORT` names a path, the collected spans,
//! counters, gauges, training curves, and span events are written there
//! as NDJSON (schema `m3d-obs/1`) together with a config echo of the
//! binary name, scale, profile filter, and git revision — making
//! table/figure runs diffable across commits (`m3d-obsctl bench` /
//! `compare` consume exactly these reports).
//!
//! The guard writes on drop, so a panicking experiment still flushes the
//! partial report during unwinding (with `"status":"panicked"` in the
//! config echo) instead of silently dropping the whole run.

use crate::scale::Scale;
use m3d_netlist::BenchmarkProfile;

/// The git revision the binary runs from: `M3D_GIT_REV` when set (CI can
/// pin it), else `git rev-parse --short HEAD`, else `"unknown"`.
fn git_rev() -> String {
    if let Ok(rev) = std::env::var("M3D_GIT_REV") {
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn bin_name() -> String {
    std::env::args()
        .next()
        .map(|p| {
            std::path::Path::new(&p)
                .file_stem()
                .map_or_else(|| p.clone(), |s| s.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Flush-on-drop run-report writer. Construct it first thing in `main`
/// (after parsing the scale and profiles); the report is written when it
/// goes out of scope — on normal exit *and* during panic unwinding.
#[derive(Debug)]
#[must_use = "binding to `_` drops immediately and the report would cover nothing"]
pub struct ReportGuard {
    _guard: m3d_obs::ReportGuard,
}

impl ReportGuard {
    /// Arms an [`m3d_obs::ReportGuard`] with the run's config echo:
    /// binary name, scale, profile filter and git revision. If
    /// `M3D_OBS_STREAM` names a path, live telemetry streaming is
    /// attached too, so every harness binary is stream-capable without
    /// per-bin wiring.
    pub fn new(scale: &Scale, profiles: &[BenchmarkProfile]) -> ReportGuard {
        let profile_list = profiles
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(",");
        ReportGuard {
            _guard: m3d_obs::ReportGuard::new(vec![
                ("bin", bin_name()),
                ("scale", scale.name.to_string()),
                ("profiles", profile_list),
                ("git_rev", git_rev()),
            ]),
        }
    }
}
