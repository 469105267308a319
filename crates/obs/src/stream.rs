//! Live telemetry streaming: a bounded ring buffer drained by a
//! background flusher thread into a rotating NDJSON sink.
//!
//! The end-of-run report ([`crate::report`]) buffers everything in memory
//! behind hard caps and only materializes when the process winds down —
//! fine for bounded experiment runs, useless for a long-lived service. A
//! stream (enabled by pointing [`STREAM_ENV`] at a path, or calling
//! [`init`]) continuously appends three record families to the sink:
//!
//! - **`span_event`** lines, published by the span emit path as each
//!   guard drops (byte-identical to the report's records, and *not*
//!   subject to the in-memory event cap);
//! - **extra records** (e.g. per-diagnosis `audit` lines), published as
//!   they are recorded;
//! - **`delta`** snapshots: on every flush interval the flusher computes
//!   the registry's growth since the previous delta
//!   ([`crate::registry::take_delta`]) — counter increments, changed
//!   gauges, and per-span count/time/histogram-bucket increments. Folding
//!   every delta of a stream reconstructs the exact final counter and
//!   histogram totals of the end-of-process report; `m3d-obsctl top` and
//!   the streaming tests rely on this.
//!
//! Log records that pass the `M3D_LOG` filter are additionally mirrored
//! into the stream as `log` lines (see [`crate::logger`]), so
//! `m3d-obsctl tail` can follow a run's diagnostics remotely.
//!
//! **Backpressure, not blocking.** Producers push pre-serialized lines
//! into a bounded ring guarded by a mutex whose critical section is a
//! queue push — they never wait on file I/O. When the ring is full the
//! record is dropped and counted ([`records_dropped`]; the count also
//! lands in the final report as `obs.stream_records_dropped` and in the
//! closing `stream_summary` record). Delta snapshots are immune to ring
//! drops: they are computed from the registry itself, so reconstruction
//! stays lossless even under drop pressure.
//!
//! **Torn-write safety.** Every `write(2)` hands the OS only whole lines,
//! and a segment switch happens only at a line boundary. A crash can
//! therefore leave at most one incomplete *final* line in the newest
//! segment, which readers detect (no trailing newline) and skip.
//!
//! **Rotation.** When appending would push the active segment past
//! `rotate_bytes`, the file rotates: `path` → `path.1` → `path.2` … up to
//! `keep` rotated segments (oldest deleted). Each segment opens with a
//! `stream_meta` line carrying the segment ordinal, so readers can order
//! segments and detect gaps from expired ones.

use crate::registry::{self, Delta, DeltaCursor};
use crate::report::{json_number, json_string};
use std::collections::VecDeque;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Environment variable naming the stream sink path; set it (e.g. in a
/// harness run) to enable streaming via [`init_from_env`].
pub const STREAM_ENV: &str = "M3D_OBS_STREAM";

/// The stream-record schema identifier written in `stream_meta` lines.
pub const STREAM_SCHEMA: &str = "m3d-obs-stream/1";

/// Configuration of one stream sink.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Active segment path; rotated segments get `.1`, `.2`, … appended.
    pub path: PathBuf,
    /// Rotate the active segment once it would exceed this many bytes.
    pub rotate_bytes: u64,
    /// Rotated segments kept before the oldest is deleted (≥ 1).
    pub keep: usize,
    /// Flusher wake-up (drain + delta) interval.
    pub interval: Duration,
    /// Ring capacity in records; pushes beyond it are dropped + counted.
    pub ring_capacity: usize,
}

impl StreamConfig {
    /// A config with the default rotation (8 MiB, 4 kept segments),
    /// interval (200 ms), and ring capacity (16384 records).
    pub fn new(path: impl Into<PathBuf>) -> StreamConfig {
        StreamConfig {
            path: path.into(),
            rotate_bytes: 8 << 20,
            keep: 4,
            interval: Duration::from_millis(200),
            ring_capacity: 1 << 14,
        }
    }

    /// The default config at the path [`STREAM_ENV`] names; `None` when
    /// it is unset or empty.
    pub fn from_env() -> Option<StreamConfig> {
        let path = std::env::var(STREAM_ENV).ok().filter(|p| !p.is_empty())?;
        Some(StreamConfig::new(path))
    }
}

/// The bounded producer-side queue of pre-serialized NDJSON lines.
#[derive(Debug, Default)]
struct Ring {
    lines: VecDeque<String>,
    dropped: u64,
}

/// Sink-side state: only ever touched under its own mutex, by the
/// flusher thread or a synchronous [`flush`]/[`shutdown`] caller.
#[derive(Debug)]
struct Writer {
    file: Option<File>,
    /// Bytes written to the active segment so far.
    bytes: u64,
    /// Bytes of the active segment's `stream_meta` header line.
    header_bytes: u64,
    /// 1-based ordinal of the active segment across the stream's life.
    segment: u64,
    /// Delta sequence number (1-based, gap-free within the stream).
    seq: u64,
    /// Ring records written (span events, extras, logs).
    records: u64,
    cursor: DeltaCursor,
    config: StreamConfig,
}

#[derive(Debug)]
struct Shared {
    ring: Mutex<Ring>,
    writer: Mutex<Writer>,
    /// Stop flag + condvar so shutdown wakes the flusher immediately
    /// instead of waiting out the interval.
    stop: Mutex<bool>,
    stop_cv: Condvar,
    ring_capacity: usize,
    interval: Duration,
}

struct Current {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn current() -> &'static Mutex<Option<Current>> {
    static CUR: OnceLock<Mutex<Option<Current>>> = OnceLock::new();
    CUR.get_or_init(|| Mutex::new(None))
}

fn lock_current() -> std::sync::MutexGuard<'static, Option<Current>> {
    current()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn current_shared() -> Option<Arc<Shared>> {
    lock_current().as_ref().map(|c| Arc::clone(&c.shared))
}

/// Whether a stream sink is currently attached. The hot paths check this
/// single relaxed load before doing any per-record streaming work.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Total records dropped at the ring so far (0 when no stream is
/// active). Folded into run reports as `obs.stream_records_dropped`.
pub fn records_dropped() -> u64 {
    current_shared().map_or(0, |s| lock(&s.ring).dropped)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Attaches a stream sink and starts the background flusher. Any
/// previously active stream is shut down (and fully flushed) first.
///
/// # Errors
///
/// Propagates creation/write failures of the first segment; on error no
/// stream is active.
pub fn init(config: StreamConfig) -> std::io::Result<()> {
    shutdown();
    let interval = config.interval;
    let ring_capacity = config.ring_capacity;
    let mut writer = Writer {
        file: None,
        bytes: 0,
        header_bytes: 0,
        segment: 0,
        seq: 0,
        records: 0,
        cursor: DeltaCursor::default(),
        config,
    };
    writer.open_segment()?;
    let path = writer.config.path.clone();
    let shared = Arc::new(Shared {
        ring: Mutex::new(Ring::default()),
        writer: Mutex::new(writer),
        stop: Mutex::new(false),
        stop_cv: Condvar::new(),
        ring_capacity,
        interval,
    });
    let worker = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("m3d-obs-stream".to_string())
            .spawn(move || flusher(&shared))?
    };
    *lock_current() = Some(Current {
        shared,
        handle: Some(worker),
    });
    ACTIVE.store(true, Ordering::Release);
    crate::info!("telemetry stream attached at {}", path.display());
    Ok(())
}

/// Attaches a stream at the path [`STREAM_ENV`] names unless one is
/// already active. Returns whether a stream is active afterwards.
/// Binaries call this once at startup (the
/// [`ReportGuard`](crate::ReportGuard) does).
pub fn init_from_env() -> bool {
    if active() {
        return true;
    }
    match StreamConfig::from_env() {
        Some(config) => {
            let path = config.path.clone();
            match init(config) {
                Ok(()) => true,
                Err(e) => {
                    crate::error!("cannot attach telemetry stream at {}: {e}", path.display());
                    false
                }
            }
        }
        None => false,
    }
}

/// Enqueues one pre-serialized single-line record (no trailing newline).
/// Never blocks on I/O: a full ring drops the record and counts it. The
/// first drop warns once so backpressure is visible before post-hoc
/// inspection.
pub(crate) fn publish_line(line: &str) {
    let Some(shared) = current_shared() else {
        return;
    };
    let first_drop = {
        let mut ring = lock(&shared.ring);
        if ring.lines.len() >= shared.ring_capacity {
            ring.dropped += 1;
            ring.dropped == 1
        } else {
            ring.lines.push_back(line.to_string());
            false
        }
    };
    if first_drop {
        crate::warn!(
            "stream ring full ({} records) — records are being dropped",
            shared.ring_capacity
        );
    }
}

/// Synchronously drains the ring and emits a delta snapshot now (the
/// flusher does the same on its interval). No-op without an active
/// stream. Useful before reading the sink mid-run (tests, handover).
pub fn flush() {
    if let Some(shared) = current_shared() {
        emit(&shared, false);
    }
}

/// Detaches the active stream: stops the flusher, drains the ring, emits
/// a final delta plus a `stream_summary` record, and closes the sink.
/// No-op when no stream is active. Call after the last instrumented work
/// (the [`ReportGuard`](crate::ReportGuard) does, after writing the run
/// report).
pub fn shutdown() {
    let Some(mut cur) = lock_current().take() else {
        return;
    };
    ACTIVE.store(false, Ordering::Release);
    {
        let mut stop = lock(&cur.shared.stop);
        *stop = true;
        cur.shared.stop_cv.notify_all();
    }
    if let Some(handle) = cur.handle.take() {
        let _ = handle.join();
    }
    emit(&cur.shared, true);
}

fn flusher(shared: &Shared) {
    loop {
        let stopped = {
            let stop = lock(&shared.stop);
            let (stop, _timeout) = shared
                .stop_cv
                .wait_timeout(stop, shared.interval)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *stop
        };
        if stopped {
            // The final drain + summary happens on the shutdown() side,
            // after the join, so it is always last in the file.
            return;
        }
        emit(shared, false);
    }
}

/// One emission cycle: drain the ring, compute a registry delta, write
/// everything (rotating as needed). `final_emit` additionally forces a
/// delta line even when empty and appends the `stream_summary`.
fn emit(shared: &Shared, final_emit: bool) {
    let mut writer = lock(&shared.writer);
    let (lines, dropped) = {
        let mut ring = lock(&shared.ring);
        (std::mem::take(&mut ring.lines), ring.dropped)
    };
    writer.records += lines.len() as u64;
    let mut batch: Vec<String> = lines.into();
    let delta = registry::take_delta(&mut writer.cursor);
    if !delta.is_empty() || final_emit {
        writer.seq += 1;
        batch.push(delta_line(writer.seq, &delta));
    }
    if final_emit {
        batch.push(summary_line(&writer, dropped));
    }
    if let Err(e) = writer.write_lines(&batch) {
        // Telemetry must never take down the instrumented process; a
        // failing sink quietly stops being written this cycle.
        crate::error!(
            "telemetry stream write to {} failed: {e}",
            writer.config.path.display()
        );
    }
}

impl Writer {
    /// Opens a fresh active segment (truncating) and writes its
    /// `stream_meta` header line.
    fn open_segment(&mut self) -> std::io::Result<()> {
        self.segment += 1;
        let mut header = String::new();
        header.push_str("{\"type\":\"stream_meta\",\"schema\":");
        json_string(&mut header, STREAM_SCHEMA);
        header.push_str(&format!(
            ",\"segment\":{},\"unix_secs\":{}}}\n",
            self.segment,
            unix_secs()
        ));
        let mut file = File::create(&self.config.path)?;
        file.write_all(header.as_bytes())?;
        self.bytes = header.len() as u64;
        self.header_bytes = header.len() as u64;
        self.file = Some(file);
        Ok(())
    }

    /// The path of rotated segment `i` (1 = newest rotated).
    fn rotated_path(&self, i: usize) -> PathBuf {
        rotated_path(&self.config.path, i)
    }

    /// Shifts the rotation chain and opens a new active segment.
    fn rotate(&mut self) -> std::io::Result<()> {
        self.file = None;
        let keep = self.config.keep.max(1);
        let _ = std::fs::remove_file(self.rotated_path(keep));
        for i in (1..keep).rev() {
            let _ = std::fs::rename(self.rotated_path(i), self.rotated_path(i + 1));
        }
        std::fs::rename(&self.config.path, self.rotated_path(1))?;
        self.open_segment()
    }

    /// Writes whole lines, rotating at line boundaries. Each physical
    /// write carries only complete lines (torn-write safety).
    fn write_lines(&mut self, lines: &[String]) -> std::io::Result<()> {
        if lines.is_empty() {
            return Ok(());
        }
        let mut pending = String::new();
        for line in lines {
            let projected = self.bytes + pending.len() as u64 + line.len() as u64 + 1;
            if projected > self.config.rotate_bytes
                && self.bytes + pending.len() as u64 > self.header_bytes
            {
                self.write_str(&pending)?;
                pending.clear();
                self.rotate()?;
            }
            pending.push_str(line);
            pending.push('\n');
        }
        self.write_str(&pending)
    }

    fn write_str(&mut self, s: &str) -> std::io::Result<()> {
        if s.is_empty() {
            return Ok(());
        }
        let file = match self.file.as_mut() {
            Some(f) => f,
            None => {
                self.open_segment()?;
                self.file.as_mut().expect("open_segment sets the file")
            }
        };
        file.write_all(s.as_bytes())?;
        self.bytes += s.len() as u64;
        Ok(())
    }
}

/// The rotated-segment path scheme (`report.ndjson` → `report.ndjson.1`),
/// shared with readers.
pub fn rotated_path(base: &Path, i: usize) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".{i}"));
    PathBuf::from(name)
}

fn unix_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// Serializes one delta snapshot as a `delta` NDJSON line.
fn delta_line(seq: u64, delta: &Delta) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"type\":\"delta\",\"seq\":{seq},\"unix_secs\":{},\"uptime_ns\":{}",
        unix_secs(),
        registry::epoch_ns(),
    ));
    out.push_str(",\"spans\":{");
    for (i, s) in delta.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(&mut out, &s.name);
        out.push_str(&format!(
            ":{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\"hist\":[",
            s.count, s.total_ns, s.min_ns, s.max_ns
        ));
        for (j, (bucket, count)) in s.hist.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{bucket},{count}]"));
        }
        out.push_str("]}");
    }
    out.push_str("},\"counters\":{");
    for (i, (name, value)) in delta.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(&mut out, name);
        out.push_str(&format!(":{value}"));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, value)) in delta.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(&mut out, name);
        out.push(':');
        json_number(&mut out, *value);
    }
    out.push_str("}}");
    out
}

/// Serializes the closing `stream_summary` record.
fn summary_line(writer: &Writer, dropped: u64) -> String {
    format!(
        "{{\"type\":\"stream_summary\",\"seq\":{},\"segments\":{},\"records\":{},\"records_dropped\":{dropped},\"unix_secs\":{}}}",
        writer.seq,
        writer.segment,
        writer.records,
        unix_secs()
    )
}
