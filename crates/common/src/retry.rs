//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! Used by IncExt batch application (DESIGN.md §11): a transient failure
//! mid-batch (injected fault, budget pressure) is retried a few times with
//! exponentially growing, jittered sleeps before a typed error surfaces.
//! Only [`GsjError::retryable`] errors are retried — governance verdicts
//! and user errors propagate on the first attempt.
//!
//! There is one policy: 4 attempts, sleeps starting at 10 ms and capped at
//! 500 ms — under the deterministic chaos seed this absorbs a per-site
//! failure probability of 0.05 with residual odds of ~6e-6. Jitter comes
//! from the vendored `rand` under a fixed seed, so a given attempt always
//! sleeps the same amount: chaos runs are reproducible end to end.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::error::{GsjError, Result};

/// Total attempts, including the first.
const MAX_ATTEMPTS: u32 = 4;
/// Sleep before attempt 2; doubles each further attempt.
const BASE_DELAY: Duration = Duration::from_millis(10);
/// Upper bound on any single sleep.
const MAX_DELAY: Duration = Duration::from_millis(500);
/// Seed of the jitter stream.
const SEED: u64 = 0x5eed_9e37;

/// The sleep before retry number `retry` (1-based: the sleep taken after
/// the first failure is `backoff(1)`). Exponential growth with full
/// jitter: uniform in `[half, full]` of the doubled base, capped at
/// [`MAX_DELAY`].
fn backoff(retry: u32) -> Duration {
    let exp = retry.saturating_sub(1).min(20);
    let full_us = BASE_DELAY
        .saturating_mul(1u32 << exp)
        .min(MAX_DELAY)
        .as_micros() as u64;
    // Seed with the retry index so each sleep in a sequence jitters
    // independently but reproducibly.
    let mut rng = SmallRng::seed_from_u64(SEED ^ u64::from(retry));
    Duration::from_micros(rng.random_range(full_us / 2..=full_us))
}

/// Run `op` under the retry policy. `op` receives the 1-based attempt
/// number. Retries only while the error is [`GsjError::retryable`];
/// `on_retry` is invoked before each re-attempt (for metrics / span
/// events) with the attempt that failed and its error.
pub fn run_with<T>(
    mut op: impl FnMut(u32) -> Result<T>,
    mut on_retry: impl FnMut(u32, &GsjError),
) -> Result<T> {
    let mut attempt = 1;
    loop {
        match op(attempt) {
            Ok(v) => return Ok(v),
            Err(e) if e.retryable() && attempt < MAX_ATTEMPTS => {
                on_retry(attempt, &e);
                std::thread::sleep(backoff(attempt));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<T>(op: impl FnMut(u32) -> Result<T>) -> Result<T> {
        run_with(op, |_, _| {})
    }

    #[test]
    fn first_success_needs_no_retry() {
        let mut calls = 0;
        let out = run(|attempt| {
            calls += 1;
            assert_eq!(attempt, 1);
            Ok(42)
        });
        assert_eq!(out, Ok(42));
        assert_eq!(calls, 1);
    }

    #[test]
    fn retryable_errors_retry_until_success() {
        let mut retries_seen = Vec::new();
        let out = run_with(
            |attempt| {
                if attempt < 3 {
                    Err(GsjError::Internal(format!("flake {attempt}")))
                } else {
                    Ok(attempt)
                }
            },
            |attempt, err| {
                assert!(err.retryable());
                retries_seen.push(attempt);
            },
        );
        assert_eq!(out, Ok(3));
        assert_eq!(retries_seen, vec![1, 2]);
    }

    #[test]
    fn attempts_are_bounded() {
        let mut calls = 0;
        let out: Result<()> = run(|_| {
            calls += 1;
            Err(GsjError::ResourceExhausted("always".into()))
        });
        assert!(matches!(out, Err(GsjError::ResourceExhausted(_))));
        assert_eq!(calls, MAX_ATTEMPTS);
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        for err in [
            GsjError::Parse("bad".into()),
            GsjError::Cancelled,
            GsjError::DeadlineExceeded("op".into()),
        ] {
            let mut calls = 0;
            let out: Result<()> = run(|_| {
                calls += 1;
                Err(err.clone())
            });
            assert_eq!(out, Err(err));
            assert_eq!(calls, 1, "non-retryable error must not be retried");
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        // Retry 7 is the first whose doubled base (640 ms) passes the cap.
        let sleeps: Vec<Duration> = (1..=8).map(backoff).collect();
        for (i, s) in sleeps.iter().enumerate() {
            let retry = i as u32 + 1;
            let full = BASE_DELAY
                .saturating_mul(1u32 << (retry - 1))
                .min(MAX_DELAY);
            assert!(*s <= full, "retry {retry}: {s:?} > {full:?}");
            assert!(*s >= full / 2, "retry {retry}: {s:?} < {:?}", full / 2);
        }
        // Deterministic: same retry index, same sleep.
        assert_eq!(backoff(3), backoff(3));
    }
}
