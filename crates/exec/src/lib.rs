//! # m3d-exec
//!
//! A zero-dependency scoped worker pool for the embarrassingly-parallel
//! hot paths of the pipeline: independent training restarts, per-chip
//! fault simulation / back-tracing, and the per-case diagnosis sweep.
//!
//! The workspace builds offline (no crates.io), so the pool is
//! hand-rolled on `std` alone: [`ExecPool::map`] opens a
//! [`std::thread::scope`], workers claim chunks of the index space from a
//! shared atomic cursor (chunked work stealing), and results are stitched
//! back into **input order** before returning. Because every item is
//! computed independently and the caller consumes results in a fixed
//! order, a parallel run is bit-identical to a serial one — the
//! determinism contract the training loops rely on (see DESIGN.md
//! "Threading model").
//!
//! Thread budget resolution, in priority order:
//!
//! 1. an explicit [`ExecPool::with_threads`] argument,
//! 2. the `M3D_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! A pool is a tiny value (a resolved thread count); build it once and
//! reuse it across epochs/stages so the budget is resolved a single time.
//! With a budget of 1 — or a single item — `map` runs inline on the
//! caller's thread: no threads are spawned and no obs spans are recorded,
//! so single-core hosts pay nothing for the parallel plumbing.
//!
//! Each worker of a parallel region runs under an `exec.worker` obs span,
//! so `m3d-obsctl trace` renders the fan-out as parallel tracks in
//! Perfetto. The caller's [`m3d_obs::TraceCtx`] is captured at the `map`
//! call site and installed on every worker, so worker spans (and any span
//! the mapped closure opens, e.g. a per-diagnosis root) stay causally
//! attached to the submitting span's trace tree across the thread
//! boundary.
//!
//! ```
//! let pool = m3d_exec::ExecPool::with_threads(4);
//! let squares = pool.map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-thread budget.
pub const THREADS_ENV: &str = "M3D_THREADS";

/// A reusable handle on a worker-thread budget.
///
/// Cloning is free; the pool carries no OS resources between calls —
/// workers are scoped to each [`ExecPool::map`] region, which lets them
/// borrow the caller's data without `'static` bounds.
#[derive(Debug, Clone)]
pub struct ExecPool {
    threads: usize,
}

impl Default for ExecPool {
    fn default() -> Self {
        ExecPool::from_env()
    }
}

impl ExecPool {
    /// A pool with the budget from `M3D_THREADS`, falling back to the
    /// host's available parallelism. Unparsable or zero values of the
    /// variable fall back too (with a warning).
    pub fn from_env() -> Self {
        let threads = match std::env::var(THREADS_ENV) {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Some(n),
                _ => {
                    m3d_obs::warn!("ignoring {THREADS_ENV}={v:?}: expected a positive integer");
                    None
                }
            },
            Err(_) => None,
        };
        let threads = threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        ExecPool::with_threads(threads)
    }

    /// A pool with an explicit budget (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        ExecPool {
            threads: threads.max(1),
        }
    }

    /// A serial pool: every `map` runs inline on the caller's thread.
    pub fn serial() -> Self {
        ExecPool::with_threads(1)
    }

    /// The resolved worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item and returns the results **in input
    /// order**. `f` receives `(index, &item)`.
    ///
    /// Work is distributed by chunked work stealing: workers repeatedly
    /// claim the next chunk of indices from a shared atomic cursor, so an
    /// expensive straggler item cannot serialize the tail the way static
    /// slicing would. Which worker computes an item never affects the
    /// result, and the output order is fixed, so the caller observes
    /// bit-identical results at any thread count.
    ///
    /// # Panics
    ///
    /// A panic inside `f` is propagated to the caller once all workers
    /// have stopped (the scope joins every worker before unwinding).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }

        // Chunk size: enough chunks per worker (4) for stealing to
        // rebalance stragglers, but never zero.
        let chunk = (n / (workers * 4)).max(1);
        let cursor = AtomicUsize::new(0);
        // Captured on the submitting thread; installed on each worker so
        // the fan-out stays on the caller's trace.
        let trace_ctx = m3d_obs::TraceCtx::current();
        let mut parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        // Sized for the worst work-stealing imbalance (one
                        // worker takes everything) and allocated before the
                        // span opens, so steady-state `exec.worker` spans
                        // allocate nothing.
                        let mut local: Vec<(usize, R)> = Vec::with_capacity(n);
                        let _trace = trace_ctx.install();
                        let _span = m3d_obs::span!("exec.worker");
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            let end = (start + chunk).min(n);
                            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                                local.push((i, f(i, item)));
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(part) => part,
                    // Re-raise the worker's panic payload on the caller.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });

        // Deterministic fixed-order reduction: chunks are contiguous and
        // each worker's list is internally ascending, so an index-sorted
        // merge restores exact input order.
        let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
        for part in &mut parts {
            tagged.append(part);
        }
        tagged.sort_unstable_by_key(|(i, _)| *i);
        debug_assert_eq!(tagged.len(), n);
        tagged.into_iter().map(|(_, r)| r).collect()
    }

    /// [`ExecPool::map`] over an index range instead of a slice: applies
    /// `f` to `0..n` and returns results in index order.
    pub fn map_indices<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let indices: Vec<usize> = (0..n).collect();
        self.map(&indices, |_, &i| f(i))
    }

    /// [`ExecPool::map`] with per-item panic isolation: a panic inside `f`
    /// is caught and returned as `Err(message)` for that item instead of
    /// tearing down the whole region, so one poisoned work item cannot
    /// take the rest of a batch (or campaign) with it. Each caught panic
    /// bumps the `exec.item_panics` counter.
    ///
    /// The items run under [`std::panic::catch_unwind`], so `f` should not
    /// leave shared state half-mutated on unwind (the usual
    /// `AssertUnwindSafe` caveat; pure per-item closures are always fine).
    pub fn map_catch<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, String>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let out = self.map(items, |i, item| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, item)))
                .map_err(|payload| panic_message(payload.as_ref()))
        });
        let caught = out.iter().filter(|r| r.is_err()).count();
        if caught > 0 {
            m3d_obs::counter!("exec.item_panics", caught as u64);
            m3d_obs::warn!(
                "exec: caught {caught} worker-item panics ({} items)",
                items.len()
            );
        }
        out
    }
}

/// Best-effort extraction of a panic payload's message (`&str` and
/// `String` payloads — everything `panic!` produces; other payload types
/// fall back to a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let pool = ExecPool::with_threads(4);
        let items: Vec<usize> = (0..1000).collect();
        let out = pool.map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..257).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(7);
        let serial = ExecPool::serial().map(&items, f);
        for threads in [2, 3, 8, 64] {
            assert_eq!(ExecPool::with_threads(threads).map(&items, f), serial);
        }
    }

    #[test]
    fn map_catch_isolates_item_panics() {
        // Silence the default hook for the intentional panics below.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [1, 4] {
            let pool = ExecPool::with_threads(threads);
            let items: Vec<u32> = (0..40).collect();
            let out = pool.map_catch(&items, |_, &x| {
                assert!(x % 7 != 3, "poisoned item {x}");
                x * 2
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                if i % 7 == 3 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains("poisoned item"), "got {msg:?}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), (i as u32) * 2);
                }
            }
        }
        std::panic::set_hook(prev);
    }
}
