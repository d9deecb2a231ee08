//! The worker pool of the fan-outs that pay (DESIGN.md §13).
//!
//! A query runs on the thread that started it; the server's concurrency
//! comes from its session workers. The exceptions are the two kernels
//! measured at ≥ 1.5× on two workers, RExt's path selection and its
//! label embeddings (`LabelEmbCache::fill`): they split their inputs into
//! ranges and fan them out across scoped threads *here*. This module is
//! the only place that decides how many workers run ([`gsj_threads`])
//! and the only place that starts them ([`run_ranges`], over the
//! deterministic primitive `run_tasks`).
//!
//! Determinism contract: for any task function whose per-task results
//! are independent, `run_tasks` returns *exactly* the same `Result` at
//! every worker count — results are assembled in task order, and the
//! error of the lowest-indexed failing task wins. With one worker (or one
//! task) the tasks run inline on the calling thread.

use crate::error::{panic_message, GsjError, Result};
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Override of the worker count (see [`with_threads`]).
    static THREADS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The CPUs this process may run on, resolved once per process.
static HOST_THREADS: OnceLock<usize> = OnceLock::new();

/// The worker count of [`run_ranges`] on this thread: the innermost
/// [`with_threads`] override if one is active, else the CPUs this process
/// may run on (its affinity mask, so `taskset -c 0` means one). `1` means
/// the inline path.
pub fn gsj_threads() -> usize {
    THREADS_OVERRIDE.with(|c| c.get()).unwrap_or_else(|| {
        *HOST_THREADS
            .get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(256)))
    })
}

/// Run `f` with the worker count pinned to `n` (at least one) on this
/// thread. Pool threads do not inherit it, which is harmless because no
/// pool task fans out again.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREADS_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let out = f();
    THREADS_OVERRIDE.with(|c| c.set(prev));
    out
}

/// Run `task` over `0..len` and return its partials in range order.
///
/// `grain` (≥ 1) is the call site's constant — the fewest rows worth a
/// task of their own. With one worker, or an input within one grain, the
/// whole input is a single range run inline on the calling thread, and an
/// empty input runs nothing. Otherwise `0..len` is cut into `grain`-sized
/// ranges (the last may be short) that [`gsj_threads`] workers claim
/// through `run_tasks`, which carries its determinism contract over:
/// same partials, same error, at every worker count, and a panicking task
/// is a [`GsjError::Internal`].
pub fn run_ranges<R, F>(len: usize, grain: usize, task: F) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(Range<usize>) -> Result<R> + Sync,
{
    let workers = gsj_threads();
    if workers == 1 || len <= grain {
        return if len == 0 {
            Ok(Vec::new())
        } else {
            Ok(vec![task(0..len)?])
        };
    }
    run_tasks(workers, len.div_ceil(grain), |i| {
        task(i * grain..((i + 1) * grain).min(len))
    })
}

/// Deterministic parallel fan-out: run `task(i)` for `i in 0..n_tasks`
/// across `workers` threads and return the results in task order.
///
/// - `workers <= 1` or `n_tasks <= 1`: tasks run inline on the calling
///   thread, in order, stopping at the first error.
/// - Otherwise: scoped worker threads claim task indices from a shared
///   counter (strictly increasing), run each task under `catch_unwind`,
///   and park results. An error or panic stops further claims — workers
///   finish their claimed task and stop.
///
/// Error determinism: the error of the lowest-indexed failing task is
/// returned. Because claims are handed out in increasing order, every
/// task below the lowest failing index was claimed (and ran to
/// completion) before the stop could take effect, so the selected error
/// is identical to what the sequential path would have produced whenever
/// tasks are independent. A panicking task surfaces as
/// [`GsjError::Internal`] — never an unwind, never a hang (the scope
/// joins every worker before returning).
fn run_tasks<R, F>(workers: usize, n_tasks: usize, task: F) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(usize) -> Result<R> + Sync,
{
    if workers <= 1 || n_tasks <= 1 {
        return (0..n_tasks).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    let claim = || {
        let i = (!stopped.load(Ordering::Acquire)).then(|| next.fetch_add(1, Ordering::Relaxed));
        i.filter(|&i| i < n_tasks)
    };
    let done: Mutex<Vec<Option<Result<R>>>> =
        Mutex::new(std::iter::repeat_with(|| None).take(n_tasks).collect());
    std::thread::scope(|s| {
        for _ in 0..workers.min(n_tasks) {
            s.spawn(|| {
                // Collect locally; take the shared lock once per batch
                // of claims, not once per task.
                let mut local: Vec<(usize, Result<R>)> = Vec::new();
                while let Some(i) = claim() {
                    let r = catch_unwind(AssertUnwindSafe(|| task(i))).unwrap_or_else(|payload| {
                        Err(GsjError::Internal(format!(
                            "worker panicked in task {i}: {}",
                            panic_message(&*payload)
                        )))
                    });
                    let failed = r.is_err();
                    local.push((i, r));
                    if failed {
                        stopped.store(true, Ordering::Release);
                        break;
                    }
                }
                let mut slots = done.lock().unwrap_or_else(|e| e.into_inner());
                for (i, r) in local {
                    slots[i] = Some(r);
                }
            });
        }
    });
    let slots = done.into_inner().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::with_capacity(n_tasks);
    for slot in slots {
        match slot {
            Some(Ok(r)) => out.push(r),
            Some(Err(e)) => return Err(e),
            // Unclaimed because the fan-out stopped: a lower-indexed task
            // failed and returned above (claims are increasing).
            None => {
                return Err(GsjError::Internal(
                    "parallel tasks stopped without a recorded error".into(),
                ))
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
    fn ranges_tile_the_input() {
        let seen = |len, grain| run_ranges(len, grain, |r| Ok((r.start, r.end))).unwrap();
        for workers in [1, 2, 8] {
            with_threads(workers, || {
                // One inline range, or grain-sized ranges on the pool.
                let expected = if workers > 1 {
                    vec![(0, 10), (10, 20), (20, 25)]
                } else {
                    vec![(0, 25)]
                };
                assert_eq!(seen(25, 10), expected);
                // Within one grain, or empty: one range, or none.
                assert_eq!(seen(10, 10), vec![(0, 10)]);
                assert!(seen(0, 10).is_empty());
            });
        }
    }

    #[test]
    fn run_ranges_turns_a_pool_panic_into_an_error() {
        let err = with_threads(4, || {
            run_ranges::<(), _>(8, 2, |r| {
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
        // A failing early task must stop the fan-out early: with claims
        // stopped, strictly fewer than n_tasks run in total (workers only
        // finish what they already claimed).
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
