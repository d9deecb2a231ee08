//! Metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! Metrics are cheap enough to leave on unconditionally: a counter
//! increment is one atomic add, a histogram observation is two atomic
//! adds plus a linear bucket scan.  Unlike spans (see [`crate::trace`]),
//! metrics are *cumulative* — they accumulate over the process lifetime
//! and are read out as snapshots by the exporters in [`crate::export`].
//!
//! Naming scheme (see DESIGN.md §10): `gsj_<crate>_<stage>_<what>[_total]`,
//! e.g. `gsj_graph_reach_expanded_total` or `gsj_her_candidates_scored_total`.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A monotonically increasing counter. Increments saturate at
/// `u64::MAX` instead of wrapping, so a long-lived process can never
/// report a small value after an overflow.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Add `n`, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut cur = self.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match self
                .value
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (e.g. current frontier size).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Record `v` if it exceeds the current value (lossy under races,
    /// which is fine for a high-watermark gauge).
    pub fn record_max(&self, v: i64) {
        let mut cur = self.value.load(Ordering::Relaxed);
        while v > cur {
            match self
                .value
                .compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A fixed-bucket histogram. Bucket upper bounds are set at construction
/// and never change; observations land in the first bucket whose upper
/// bound is `>=` the value, or in the implicit `+Inf` bucket.
///
/// Internally counts are stored per-bucket (non-cumulative); the
/// exporters produce Prometheus-style cumulative counts.
#[derive(Debug)]
pub struct Histogram {
    /// Sorted, strictly increasing upper bounds (finite).
    bounds: Vec<f64>,
    /// One count per finite bucket, plus one trailing `+Inf` bucket.
    counts: Vec<AtomicU64>,
    /// Sum of observed values, stored as f64 bits (CAS loop on add).
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Build a histogram with the given finite bucket upper bounds.
    /// Bounds are sorted and deduplicated; NaNs are dropped.
    pub fn new(bounds: &[f64]) -> Self {
        let mut b: Vec<f64> = bounds.iter().copied().filter(|x| !x.is_nan()).collect();
        b.sort_by(|a, c| a.partial_cmp(c).unwrap());
        b.dedup();
        let n = b.len();
        Histogram {
            bounds: b,
            counts: (0..=n).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Exponential buckets: `start, start*factor, ...` (`n` bounds).
    pub fn exponential(start: f64, factor: f64, n: usize) -> Self {
        let mut bounds = Vec::with_capacity(n);
        let mut b = start;
        for _ in 0..n {
            bounds.push(b);
            b *= factor;
        }
        Histogram::new(&bounds)
    }

    /// Default latency buckets in nanoseconds: 1µs .. ~17s, factor 4.
    pub fn latency_ns() -> Self {
        Histogram::exponential(1_000.0, 4.0, 13)
    }

    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&ub| v <= ub)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Observe a duration in nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        self.observe(ns as f64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Finite bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Cumulative counts per bucket, ending with the `+Inf` bucket
    /// (which equals `count()` absent in-flight racing observations).
    pub fn cumulative_counts(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.counts
            .iter()
            .map(|c| {
                acc = acc.saturating_add(c.load(Ordering::Relaxed));
                acc
            })
            .collect()
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) from the cumulative
    /// bucket counts — Prometheus `histogram_quantile` semantics:
    /// linear interpolation inside the target bucket, with the lower
    /// edge of the first bucket taken as 0 and values landing in the
    /// `+Inf` bucket clamped to the largest finite bound. Returns 0.0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_cumulative(&self.bounds, &self.cumulative_counts(), q)
    }
}

/// The estimator behind [`Histogram::quantile`], split out so callers
/// holding scraped cumulative counts (e.g. a parsed `/metrics` dump or
/// `server_load`'s aggregation) can reuse it without a live histogram.
///
/// `bounds` are the finite upper bounds; `cum` has one extra trailing
/// entry for the `+Inf` bucket.
pub fn quantile_from_cumulative(bounds: &[f64], cum: &[u64], q: f64) -> f64 {
    let total = match cum.last() {
        Some(&t) if t > 0 => t,
        _ => return 0.0,
    };
    let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut prev = 0u64;
    for (i, &c) in cum.iter().enumerate() {
        if (c as f64) >= rank {
            if i >= bounds.len() {
                // +Inf bucket: no finite upper edge to interpolate
                // toward; clamp to the largest finite bound.
                return bounds.last().copied().unwrap_or(0.0);
            }
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
            let hi = bounds[i];
            let in_bucket = (c - prev) as f64;
            if in_bucket <= 0.0 {
                return hi;
            }
            return lo + (hi - lo) * ((rank - prev as f64) / in_bucket);
        }
        prev = c;
    }
    bounds.last().copied().unwrap_or(0.0)
}

/// Label set: sorted `(key, value)` pairs, part of a metric's identity.
pub type Labels = Vec<(String, String)>;

fn normalize_labels(labels: &[(&str, &str)]) -> Labels {
    let mut l: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    l
}

/// One registered metric instrument.
#[derive(Debug, Clone)]
pub enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Labels,
}

/// A metrics registry. Instruments are identified by `(name, labels)`;
/// registering the same identity twice returns the existing instrument.
/// A `BTreeMap` keeps export order deterministic.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<MetricKey, (Option<String>, Metric)>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// The process-global registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.counter_with_help(name, labels, None)
    }

    pub fn counter_with_help(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: Option<&str>,
    ) -> Arc<Counter> {
        let key = MetricKey {
            name: name.to_string(),
            labels: normalize_labels(labels),
        };
        let mut m = self.metrics.lock();
        let entry = m.entry(key).or_insert_with(|| {
            (
                help.map(str::to_string),
                Metric::Counter(Arc::new(Counter::new())),
            )
        });
        match &entry.1 {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = MetricKey {
            name: name.to_string(),
            labels: normalize_labels(labels),
        };
        let mut m = self.metrics.lock();
        let entry = m
            .entry(key)
            .or_insert_with(|| (None, Metric::Gauge(Arc::new(Gauge::new()))));
        match &entry.1 {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Arc<Histogram> {
        let key = MetricKey {
            name: name.to_string(),
            labels: normalize_labels(labels),
        };
        let mut m = self.metrics.lock();
        let entry = m
            .entry(key)
            .or_insert_with(|| (None, Metric::Histogram(Arc::new(Histogram::new(bounds)))));
        match &entry.1 {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Visit every metric in deterministic `(name, labels)` order.
    pub fn visit(&self, mut f: impl FnMut(&str, &Labels, Option<&str>, &Metric)) {
        let m = self.metrics.lock();
        for (key, (help, metric)) in m.iter() {
            f(&key.name, &key.labels, help.as_deref(), metric);
        }
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.metrics.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every registered instrument (test isolation).
    pub fn clear(&self) {
        self.metrics.lock().clear();
    }
}

/// A lazily registered global counter, for `static` use at hot-path
/// call sites:
///
/// ```ignore
/// static REACH_EXPANDED: LazyCounter = LazyCounter::new("gsj_graph_reach_expanded_total");
/// REACH_EXPANDED.add(expanded as u64);
/// ```
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    fn get(&self) -> &Counter {
        self.cell
            .get_or_init(|| Registry::global().counter(self.name, &[]))
    }

    pub fn add(&self, n: u64) {
        self.get().add(n);
    }

    pub fn inc(&self) {
        self.get().inc();
    }

    pub fn value(&self) -> u64 {
        self.get().get()
    }
}

/// A lazily registered global gauge, for `static` use at call sites
/// that track a current level (in-flight sessions, queue depth).
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<Arc<Gauge>>,
}

impl LazyGauge {
    pub const fn new(name: &'static str) -> Self {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    fn get(&self) -> &Gauge {
        self.cell
            .get_or_init(|| Registry::global().gauge(self.name, &[]))
    }

    pub fn set(&self, v: i64) {
        self.get().set(v);
    }

    pub fn add(&self, n: i64) {
        self.get().add(n);
    }

    pub fn record_max(&self, v: i64) {
        self.get().record_max(v);
    }

    pub fn value(&self) -> i64 {
        self.get().get()
    }
}

/// A lazily registered global histogram with latency-in-ns buckets.
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    fn get(&self) -> &Histogram {
        self.cell.get_or_init(|| {
            Registry::global().histogram(self.name, &[], Histogram::latency_ns().bounds())
        })
    }

    pub fn observe(&self, v: f64) {
        self.get().observe(v);
    }

    pub fn observe_ns(&self, ns: u64) {
        self.get().observe_ns(ns);
    }

    /// See [`Histogram::quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        self.get().quantile(q)
    }

    pub fn count(&self) -> u64 {
        self.get().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn counter_accumulates_across_threads() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn gauge_set_add_and_max() {
        let g = Gauge::new();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.record_max(10);
        g.record_max(7);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::new(&[1.0, 5.0, 10.0]);
        // Exactly on a bound lands in that bucket (le semantics).
        h.observe(1.0);
        h.observe(1.0000001); // next bucket
        h.observe(5.0);
        h.observe(10.0);
        h.observe(10.5); // +Inf bucket
        h.observe(-3.0); // below the first bound → first bucket
        let cum = h.cumulative_counts();
        assert_eq!(h.bounds(), &[1.0, 5.0, 10.0]);
        // buckets: le1 -> {1.0, -3.0}; le5 -> +{1.0000001, 5.0}; le10 -> +{10.0}; +Inf -> +{10.5}
        assert_eq!(cum, vec![2, 4, 5, 6]);
        assert_eq!(h.count(), 6);
        assert!((h.sum() - (1.0 + 1.0000001 + 5.0 + 10.0 + 10.5 - 3.0)).abs() < 1e-9);
    }

    #[test]
    fn histogram_sorts_and_dedups_bounds() {
        let h = Histogram::new(&[10.0, 1.0, 5.0, 5.0, f64::NAN]);
        assert_eq!(h.bounds(), &[1.0, 5.0, 10.0]);
    }

    #[test]
    fn histogram_concurrent_observations_are_counted() {
        let h = Arc::new(Histogram::new(&[100.0]));
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..500 {
                        h.observe((t * 500 + i) as f64 % 200.0);
                    }
                });
            }
        });
        assert_eq!(h.count(), 2000);
        assert_eq!(*h.cumulative_counts().last().unwrap(), 2000);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let h = Histogram::new(&[10.0, 20.0, 40.0]);
        // 10 observations in (10, 20]: uniform rank → interpolation.
        for _ in 0..10 {
            h.observe(15.0);
        }
        // p50 → rank 5 of 10, all in the (10, 20] bucket: 10 + 10*(5/10).
        assert!((h.quantile(0.5) - 15.0).abs() < 1e-9, "{}", h.quantile(0.5));
        // p100 → upper edge of the occupied bucket.
        assert!((h.quantile(1.0) - 20.0).abs() < 1e-9);
        // p0 clamps to at least rank 1 → 10 + 10*(1/10) = 11.
        assert!((h.quantile(0.0) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_spans_buckets_and_clamps_inf() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.observe(0.5); // le 1
        h.observe(1.5); // le 2
        h.observe(3.0); // le 4
        h.observe(100.0); // +Inf
                          // rank(0.99 * 4) ≈ 3.96 → +Inf bucket → clamp to 4.0.
        assert!((h.quantile(0.99) - 4.0).abs() < 1e-9);
        // rank(0.5 * 4) = 2 → second bucket, fully covers it → 2.0.
        assert!((h.quantile(0.5) - 2.0).abs() < 1e-9);
        // Empty histogram → 0.
        assert_eq!(Histogram::latency_ns().quantile(0.99), 0.0);
    }

    #[test]
    fn quantile_from_cumulative_matches_exact_on_degenerate_buckets() {
        // One observation per bucket: quantiles walk the upper bounds.
        let bounds = [1.0, 2.0, 3.0, 4.0];
        let cum = [1u64, 2, 3, 4, 4];
        assert!((quantile_from_cumulative(&bounds, &cum, 0.25) - 1.0).abs() < 1e-9);
        assert!((quantile_from_cumulative(&bounds, &cum, 0.75) - 3.0).abs() < 1e-9);
        assert_eq!(quantile_from_cumulative(&bounds, &[0, 0], 0.5), 0.0);
    }

    #[test]
    fn registry_dedups_by_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("x_total", &[("k", "v")]);
        let b = r.counter("x_total", &[("k", "v")]);
        let c = r.counter("x_total", &[("k", "w")]);
        a.add(3);
        assert_eq!(b.get(), 3);
        assert_eq!(c.get(), 0);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn registry_visit_is_sorted() {
        let r = Registry::new();
        r.counter("b_total", &[]);
        r.counter("a_total", &[]);
        r.gauge("a_gauge", &[]);
        let mut names = Vec::new();
        r.visit(|name, _, _, _| names.push(name.to_string()));
        assert_eq!(names, vec!["a_gauge", "a_total", "b_total"]);
    }

    #[test]
    fn lazy_counter_registers_globally() {
        static T: LazyCounter = LazyCounter::new("gsj_obs_test_lazy_total");
        T.add(2);
        T.inc();
        assert!(T.value() >= 3);
        let again = Registry::global().counter("gsj_obs_test_lazy_total", &[]);
        assert!(again.get() >= 3);
    }

    #[test]
    fn lazy_gauge_registers_globally() {
        static G: LazyGauge = LazyGauge::new("gsj_obs_test_lazy_gauge");
        G.set(5);
        G.add(-2);
        assert_eq!(G.value(), 3);
        G.record_max(9);
        let again = Registry::global().gauge("gsj_obs_test_lazy_gauge", &[]);
        assert_eq!(again.get(), 9);
    }
}
