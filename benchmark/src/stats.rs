//! Order statistics for the latency samples and the windowing rule.

/// A percentile is only reported when at least this many samples lie
/// beyond it (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    sorted
        .get(rank(sorted.len(), q) - 1)
        .copied()
        .unwrap_or_default()
}

/// [`nearest_rank`], refused when fewer than [`MIN_BEYOND`] samples lie
/// beyond it: the caller should then fail the run and ask for a longer
/// window instead of printing a number that is really the maximum.
pub fn percentile(sorted: &[u64], q: f64) -> Result<u64, String> {
    let n = sorted.len();
    let beyond = n - rank(n, q).min(n);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} needs at least {MIN_BEYOND} samples beyond it, got {beyond} of {n}: \
             run a longer window (--seconds)",
            q * 100.0
        ));
    }
    Ok(nearest_rank(sorted, q))
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Whole cycles a slice of the window must hold. By the 4 + 1 cycle the p90
/// of `c` cycles' reads is the median of their `c` tail reads, so five
/// cycles give every slice a p90 that is a median of five, not a maximum.
/// (The ten samples beyond p90 are asked of the window as a whole.)
pub const SLICE_CYCLES: usize = 5;
/// A window is cut into at most this many slices.
pub const MAX_SLICES: usize = 10;

/// How many slices a window of `cycles` whole cycles is cut into: as many
/// as hold [`SLICE_CYCLES`] cycles each, at most [`MAX_SLICES`], at least
/// one (the whole window).
pub fn slice_count(cycles: usize) -> usize {
    (cycles / SLICE_CYCLES).clamp(1, MAX_SLICES)
}

/// The slice cycle `cycle` of `cycles` falls into, of `slices`: slices are
/// runs of consecutive whole cycles whose lengths differ by at most one,
/// so every slice has the cycle's exact class shares.
pub fn slice_of(cycle: usize, cycles: usize, slices: usize) -> usize {
    cycle * slices / cycles.max(1)
}

/// Which end of a metric is the good one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The value a quarter of the way in from the better end (nearest rank):
/// what the program does in the quietest quarter of the slices. A busy
/// spell of a shared host only ever adds time to the slices it covers, so
/// this holds still until three quarters of the window are disturbed,
/// where a median over the whole window moves with every spell. A slower
/// program moves every slice and so moves this just the same.
pub fn quiet_quartile(values: &[f64], better: Better) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    v.get(rank(v.len(), 0.25) - 1).copied().unwrap_or(0.0)
}

/// Run whole cycles until `done(cycles_run)` says stop. The check happens
/// only between cycles, so the window always ends on a cycle boundary and
/// the share of each operation class in the samples is exactly the
/// cycle's. Returns the number of cycles run.
pub fn run_cycles(mut cycle: impl FnMut(usize), mut done: impl FnMut(usize) -> bool) -> usize {
    let mut i = 0;
    loop {
        cycle(i);
        i += 1;
        if done(i) {
            return i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        // p90 of 100 samples is rank 90: exactly 10 beyond.
        assert_eq!(percentile(&v, 0.90), Ok(90));
        assert_eq!(percentile(&v, 0.50), Ok(50));
        // 99 samples: rank 90, only 9 beyond.
        assert!(percentile(&v[..99], 0.90).is_err());
        // p99 of 100 samples has one sample beyond: refused.
        assert!(percentile(&v, 0.99).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn percentiles_of_a_four_plus_one_cycle_sit_inside_a_class() {
        // 40 cycles of 4 body (100) + 1 tail (1000): p50 is a body
        // sample, p90 a tail sample.
        let mut v = Vec::new();
        for _ in 0..40 {
            v.extend([100, 100, 100, 100, 1000]);
        }
        v.sort_unstable();
        assert_eq!(percentile(&v, 0.50), Ok(100));
        assert_eq!(percentile(&v, 0.90), Ok(1000));
    }

    #[test]
    fn slices_are_runs_of_at_least_five_whole_cycles() {
        assert_eq!(slice_count(24), 4);
        assert_eq!(slice_count(66), 10);
        assert_eq!(slice_count(460), 10);
        assert_eq!(slice_count(9), 1);
        assert_eq!(slice_count(3), 1);
        // Five cycles of 4 + 1: p90 is the median of the five tails.
        let mut reads = Vec::new();
        for tail in [50, 30, 40, 10, 20] {
            reads.extend([1, 2, 3, 4, tail]);
        }
        reads.sort_unstable();
        assert_eq!(nearest_rank(&reads, 0.90), 30);
        assert_eq!(nearest_rank(&[], 0.90), 0);
        // 24 cycles in 4 slices of 6; 66 in 10 slices of 6 or 7.
        let sizes = |cycles: usize, k: usize| {
            let mut n = vec![0; k];
            for c in 0..cycles {
                n[slice_of(c, cycles, k)] += 1;
            }
            n
        };
        assert_eq!(sizes(24, 4), [6, 6, 6, 6]);
        assert_eq!(sizes(66, 10).iter().sum::<usize>(), 66);
        assert!(sizes(66, 10).iter().all(|&n| n == 6 || n == 7));
        assert!(sizes(2805, 10).iter().all(|&n| n == 280 || n == 281));
        // Consecutive: the slice never decreases with the cycle.
        assert!((1..460).all(|c| slice_of(c - 1, 460, 10) <= slice_of(c, 460, 10)));
    }

    #[test]
    fn quiet_quartile_ignores_the_disturbed_slices() {
        // Ten slices, six of them hit by a busy spell.
        let lat = [
            100.0, 101.0, 160.0, 150.0, 99.0, 170.0, 180.0, 155.0, 165.0, 102.0,
        ];
        assert_eq!(quiet_quartile(&lat, Better::Lower), 101.0);
        let ops = [50.0, 49.0, 30.0, 33.0, 51.0, 29.0, 28.0, 31.0, 30.0, 48.0];
        assert_eq!(quiet_quartile(&ops, Better::Higher), 49.0);
        // Three slices: the best one. One slice: itself.
        assert_eq!(quiet_quartile(&[3.0, 1.0, 2.0], Better::Lower), 1.0);
        assert_eq!(quiet_quartile(&[7.0], Better::Higher), 7.0);
        // A slower program moves every slice, and the value with them.
        let slower: Vec<f64> = lat.iter().map(|x| x * 1.2).collect();
        assert_eq!(quiet_quartile(&slower, Better::Lower), 101.0 * 1.2);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn window_ends_on_a_cycle_boundary() {
        // A "clock" that passes the deadline in the middle of cycle 7:
        // the loop still finishes that cycle, so classes stay 4:1.
        use std::cell::Cell;
        let (body, tail, clock) = (Cell::new(0), Cell::new(0), Cell::new(0));
        let cycles = run_cycles(
            |_| {
                for slot in 0..5 {
                    clock.set(clock.get() + 1);
                    let class = if slot < 4 { &body } else { &tail };
                    class.set(class.get() + 1);
                }
            },
            |_| clock.get() >= 33,
        );
        assert_eq!(cycles, 7);
        assert_eq!((body.get(), tail.get()), (28, 7));
    }
}
