//! Peak resident memory from `/proc/self/status`.

/// Parses the `VmHWM:` (peak resident set) line of a `/proc/<pid>/status`
/// document into MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kib / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set so far, in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_mib(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
