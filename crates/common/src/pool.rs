//! Morsel-driven worker pool (DESIGN.md §13).
//!
//! Every parallel kernel in the workspace — relational operators, BFS
//! levels, RExt's path selection and embedding, the K-means assignment
//! step — splits its input into row ranges and fans them out across
//! scoped worker threads *here*: this module is the only place that
//! decides how many workers run and the only place that starts them. It
//! holds the thread-count policy ([`gsj_threads`], the `GSJ_THREADS`
//! environment variable, and per-test overrides), the range helper
//! kernels call ([`run_ranges`], with [`fans_out`] as its decision), and
//! the deterministic fan-out primitive underneath ([`run_tasks`]).
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

/// Run `f` with the worker count pinned to `n` on this thread. Worker
/// threads spawned by the pool do *not* inherit it (they fall back to
/// `GSJ_THREADS`), which is harmless because no pool task calls a
/// parallel kernel. Primarily for tests pinning `GSJ_THREADS ∈ {1,2,8}`.
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

/// Whether [`run_ranges`] hands an input of `len` rows to pool threads:
/// more than one worker is configured and the input spans more than one
/// `grain`. Kernels with something to do at the fan-out boundary (a
/// fault site, a counter) ask here, so the decision stays in one place.
pub fn fans_out(len: usize, grain: usize) -> bool {
    gsj_threads() > 1 && len > grain
}

/// The one way a kernel goes parallel: run `task` over `0..len` and
/// return its partials in range order.
///
/// `grain` (≥ 1) is the call site's constant — the fewest rows worth a
/// task of their own. When [`fans_out`] says no (one worker, or an input
/// within one grain) the whole input is a single range run inline on the
/// calling thread, the exact sequential path, and an empty input runs
/// nothing. Otherwise `0..len` is cut into `grain`-sized ranges (the last
/// may be short) that [`gsj_threads`] workers claim through
/// [`run_tasks`], which carries its determinism contract over: same
/// partials, same error, at every worker count, and a panicking task is
/// a [`GsjError::Internal`].
///
/// The task's second argument says whether it runs on a pool thread;
/// kernels use it to arm their `pool.worker` fault point (this crate
/// cannot depend on `gsj-faults`).
pub fn run_ranges<R, F>(len: usize, grain: usize, task: F) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(Range<usize>, bool) -> Result<R> + Sync,
{
    if !fans_out(len, grain) {
        return if len == 0 {
            Ok(Vec::new())
        } else {
            Ok(vec![task(0..len, false)?])
        };
    }
    run_tasks(gsj_threads(), len.div_ceil(grain), |i| {
        task(i * grain..((i + 1) * grain).min(len), true)
    })
}

/// The partials of a [`run_ranges`] whose tasks return their range's
/// rows, joined in range order. The first partial is extended in place,
/// so the inline path's only partial comes back as it is.
pub fn concat<T>(parts: Vec<Vec<T>>) -> Vec<T> {
    let mut parts = parts.into_iter();
    let mut all = parts.next().unwrap_or_default();
    parts.for_each(|p| all.extend(p));
    all
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
        let seen = |len, grain| run_ranges(len, grain, |r, pooled| Ok((r, pooled))).unwrap();
        for workers in [1, 2, 8] {
            with_threads(workers, || {
                // One inline range, or grain-sized ranges on the pool.
                assert_eq!(fans_out(25, 10), workers > 1);
                let split = vec![(0..10, true), (10..20, true), (20..25, true)];
                let expected = if workers > 1 {
                    split
                } else {
                    vec![(0..25, false)]
                };
                assert_eq!(seen(25, 10), expected);
                // Within one grain, or empty: never the pool.
                assert_eq!(seen(10, 10), vec![(0..10, false)]);
                assert!(seen(0, 10).is_empty() && !fans_out(0, 10));
            });
        }
        with_morsel_rows(10, || assert_eq!(morsel_rows(), 10));
        assert_eq!(morsel_rows(), DEFAULT_MORSEL_ROWS);
    }

    #[test]
    fn run_ranges_turns_a_pool_panic_into_an_error() {
        let err = with_threads(4, || {
            run_ranges::<(), _>(8, 2, |r, _| {
                if r.start == 4 {
                    panic!("range {r:?}");
                }
                Ok(())
            })
        })
        .unwrap_err();
        assert!(
            matches!(&err, GsjError::Internal(m) if m.contains("range 4..6")),
            "{err:?}"
        );
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
