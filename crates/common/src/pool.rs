//! Morsel-driven worker pool (DESIGN.md §13).
//!
//! The execution layer splits its input into fixed-size row-range
//! *morsels* and fans the morsels out across scoped worker threads. This
//! module holds the shared machinery: the thread-count policy
//! ([`gsj_threads`], the `GSJ_THREADS` environment variable, and
//! per-test overrides), the morsel partitioner ([`morsel_ranges`]), the
//! [`Mergeable`] trait that per-worker partial statistics implement, and
//! the deterministic fan-out primitive [`run_tasks`].
//!
//! Determinism contract: for any task function whose per-task results
//! are independent (which morsel kernels are by construction),
//! `run_tasks` returns *exactly* the same `Result` at every worker
//! count — results are assembled in task order, and the error of the
//! lowest-indexed failing task wins. With one worker (or one task) the
//! tasks run inline on the calling thread: the exact legacy sequential
//! path, no scope, no channels.

use crate::error::{panic_message, GsjError, Result};
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default number of rows per morsel. Large enough that per-morsel
/// overhead (a claim `fetch_add`, a governor check, a `catch_unwind`
/// frame) is amortized over thousands of rows; small enough that a 100k
/// row input yields ~25 morsels — plenty of parallel slack for 8
/// workers and prompt cancellation checks.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

thread_local! {
    /// Test override for the worker count (see [`with_threads`]).
    static THREADS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Test override for the morsel size (see [`with_morsel_rows`]).
    static MORSEL_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Cached `GSJ_THREADS` / core-count default, resolved once per process.
static ENV_THREADS: AtomicUsize = AtomicUsize::new(0);

fn env_threads() -> usize {
    let cached = ENV_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = match std::env::var("GSJ_THREADS") {
        Ok(s) => s.trim().parse::<usize>().ok().filter(|&n| n >= 1),
        Err(_) => None,
    }
    .unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
    .min(256);
    ENV_THREADS.store(n, Ordering::Relaxed);
    n
}

/// The worker count for parallel kernels on this thread: the innermost
/// [`with_threads`] override if one is active, else `GSJ_THREADS`, else
/// the machine's available parallelism. `1` means the exact legacy
/// sequential path.
pub fn gsj_threads() -> usize {
    THREADS_OVERRIDE
        .with(|c| c.get())
        .unwrap_or_else(env_threads)
}

/// Run `f` with the worker count pinned to `n` on this thread (worker
/// threads spawned by the pool do *not* inherit it — nested kernels
/// inside a worker run sequentially unless they consult the environment
/// themselves). Primarily for tests pinning `GSJ_THREADS ∈ {1,2,8}`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREADS_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let out = f();
    THREADS_OVERRIDE.with(|c| c.set(prev));
    out
}

/// The morsel size for parallel kernels on this thread.
pub fn morsel_rows() -> usize {
    MORSEL_OVERRIDE
        .with(|c| c.get())
        .unwrap_or(DEFAULT_MORSEL_ROWS)
}

/// Run `f` with the morsel size pinned to `n` on this thread. Tests use
/// tiny morsels to drive the parallel paths on small fixtures.
pub fn with_morsel_rows<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = MORSEL_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let out = f();
    MORSEL_OVERRIDE.with(|c| c.set(prev));
    out
}

/// Split `0..len` into contiguous morsels of [`morsel_rows`] rows (the
/// last may be short). Empty input yields no ranges.
pub fn morsel_ranges(len: usize) -> Vec<Range<usize>> {
    let step = morsel_rows();
    (0..len)
        .step_by(step)
        .map(|start| start..(start + step).min(len))
        .collect()
}

/// Per-worker partial state that can be folded into a total. Merging is
/// performed *in morsel order*, so implementations may rely on `other`
/// covering strictly later rows than everything already absorbed — this
/// is what lets partial aggregates preserve first-seen group order and
/// per-operator counters sum into one coherent `explain_analyze` tree.
pub trait Mergeable {
    /// Fold `other` (covering later rows) into `self`.
    fn merge(&mut self, other: Self);
}

impl Mergeable for () {
    fn merge(&mut self, _other: Self) {}
}

/// Deterministic parallel fan-out: run `task(i)` for `i in 0..n_tasks`
/// across `workers` threads and return the results in task order.
///
/// - `workers <= 1` or `n_tasks <= 1`: tasks run inline on the calling
///   thread, in order, stopping at the first error — the exact legacy
///   sequential path.
/// - Otherwise: scoped worker threads claim task indices from a shared
///   [`crossbeam::queue::WorkIndex`] (strictly increasing), run each
///   task under `catch_unwind`, and park results. An error or panic
///   aborts the queue — workers finish their claimed task and stop.
///
/// Error determinism: the error of the lowest-indexed failing task is
/// returned. Because claims are handed out in increasing order, every
/// task below the lowest failing index was claimed (and ran to
/// completion) before the abort could take effect, so the selected
/// error is identical to what the sequential path would have produced
/// whenever tasks are independent. A panicking task surfaces as
/// [`GsjError::Internal`] — never an unwind, never a hang (the scope
/// joins every worker before returning).
pub fn run_tasks<R, F>(workers: usize, n_tasks: usize, task: F) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(usize) -> Result<R> + Sync,
{
    if workers <= 1 || n_tasks <= 1 {
        let mut out = Vec::with_capacity(n_tasks);
        for i in 0..n_tasks {
            out.push(task(i)?);
        }
        return Ok(out);
    }
    let queue = crossbeam::queue::WorkIndex::new(n_tasks);
    let done: Mutex<Vec<Option<Result<R>>>> =
        Mutex::new(std::iter::repeat_with(|| None).take(n_tasks).collect());
    let n_workers = workers.min(n_tasks);
    crossbeam::thread::scope(|s| {
        for _ in 0..n_workers {
            s.spawn(|_| {
                // Collect locally; take the shared lock once per batch
                // of claims, not once per task.
                let mut local: Vec<(usize, Result<R>)> = Vec::new();
                while let Some(i) = queue.claim() {
                    let r = match catch_unwind(AssertUnwindSafe(|| task(i))) {
                        Ok(r) => r,
                        Err(payload) => Err(GsjError::Internal(format!(
                            "worker panicked in task {i}: {}",
                            panic_message(&*payload)
                        ))),
                    };
                    let failed = r.is_err();
                    local.push((i, r));
                    if failed {
                        queue.abort();
                        break;
                    }
                }
                let mut slots = done.lock().unwrap_or_else(|e| e.into_inner());
                for (i, r) in local {
                    slots[i] = Some(r);
                }
            });
        }
    })
    .expect("pool scope propagates no panics; workers catch_unwind");
    let slots = done.into_inner().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::with_capacity(n_tasks);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(r)) => out.push(r),
            Some(Err(e)) => return Err(e),
            // Unclaimed because the queue aborted: some lower-indexed
            // task must have failed... unless the failing task had a
            // *higher* index than this unclaimed one, which the
            // increasing-claim-order invariant rules out.
            None => {
                debug_assert!(
                    i > 0,
                    "task 0 is always claimed before any abort can happen"
                );
                return Err(GsjError::Internal(
                    "parallel tasks aborted without a recorded error".into(),
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn threads_override_nests_and_restores() {
        let ambient = gsj_threads();
        with_threads(3, || {
            assert_eq!(gsj_threads(), 3);
            with_threads(8, || assert_eq!(gsj_threads(), 8));
            assert_eq!(gsj_threads(), 3);
        });
        assert_eq!(gsj_threads(), ambient);
        // Zero clamps to one; the override never disables execution.
        with_threads(0, || assert_eq!(gsj_threads(), 1));
    }

    #[test]
    fn morsel_ranges_tile_the_input() {
        with_morsel_rows(10, || {
            assert_eq!(morsel_ranges(0), Vec::<Range<usize>>::new());
            assert_eq!(morsel_ranges(25), vec![0..10, 10..20, 20..25]);
            assert_eq!(morsel_ranges(10), vec![0..10]);
        });
        assert_eq!(morsel_rows(), DEFAULT_MORSEL_ROWS);
    }

    #[test]
    fn run_tasks_matches_sequential_at_every_worker_count() {
        let f = |i: usize| Ok(i * i);
        let expected = run_tasks(1, 100, f).unwrap();
        for workers in [2, 3, 8] {
            assert_eq!(run_tasks(workers, 100, f).unwrap(), expected);
        }
        assert_eq!(run_tasks(4, 0, f).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn lowest_index_error_wins() {
        let f = |i: usize| -> Result<usize> {
            if i == 17 || i == 63 {
                Err(GsjError::Internal(format!("task {i}")))
            } else {
                Ok(i)
            }
        };
        for workers in [1, 2, 8] {
            let err = run_tasks(workers, 100, f).unwrap_err();
            assert_eq!(
                err,
                GsjError::Internal("task 17".into()),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn panicking_task_surfaces_as_internal_error() {
        for workers in [2, 8] {
            let err = run_tasks::<usize, _>(workers, 16, |i| {
                if i == 5 {
                    panic!("boom {i}");
                }
                Ok(i)
            })
            .unwrap_err();
            match err {
                GsjError::Internal(m) => {
                    assert!(m.contains("panicked") && m.contains("boom 5"), "{m}")
                }
                other => panic!("expected Internal, got {other:?}"),
            }
        }
    }

    #[test]
    fn abort_skips_later_tasks() {
        // A failing early task must stop the fan-out early: with the
        // queue aborted, strictly fewer than n_tasks run in total
        // (workers only finish what they already claimed).
        let ran = AtomicU64::new(0);
        let _ = run_tasks::<(), _>(2, 10_000, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                Err(GsjError::Cancelled)
            } else {
                std::thread::sleep(std::time::Duration::from_micros(50));
                Ok(())
            }
        });
        assert!(ran.load(Ordering::Relaxed) < 10_000);
    }
}
