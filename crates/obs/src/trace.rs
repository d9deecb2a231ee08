//! The hierarchical span tracer.
//!
//! A [`SpanGuard`] measures one stage of work: it records a label,
//! key/value fields, wall time, the owning thread, and its parent span
//! (the innermost span open on the same thread when it was created).
//! Finished spans land in a sharded global collector;
//! [`take_spans`] drains it and [`render_tree`] pretty-prints the
//! parent/child forest.
//!
//! Tracing is **off by default** and the disabled path is engineered to
//! cost almost nothing: [`span`] performs one relaxed atomic load (after
//! a lazy first-use env parse) and returns an inert guard — no
//! allocation, no clock read, no lock. The `GSJ_TRACE` environment
//! variable selects the [`TraceMode`]: `0` / `false` / `off` / unset is
//! off, `sample:<p>` (e.g. `sample:0.01`) enables per-query
//! probabilistic sampling, anything else enables collection
//! process-wide. The mode is **runtime-overridable**: [`set_tracing`] /
//! [`set_trace_mode`] change it at any point.
//!
//! Tracing *one* piece of work is [`capture`]: spans the calling thread
//! opens inside it are live whatever the process-wide mode says and land
//! in the capture's own buffer, not in the global collector. Nothing
//! process-wide is touched, so concurrent captures neither wait on each
//! other nor see each other's spans, and a `GSJ_TRACE=1` run keeps what
//! it had collected. Spans that *other* threads open on the work's behalf
//! (pool workers) are outside the capture: they follow the global mode,
//! as they always have — a worker starts with an empty span stack, so
//! nothing it records could have attached under the captured tree anyway.
//!
//! In `Sample` mode, span collection stays globally off; callers that
//! own a query boundary ask [`should_trace_query`] whether *this* query
//! won the coin flip, and if so run it inside a [`capture`] (see
//! `GsqlEngine::run_recorded`).
//!
//! The collector is bounded ([`MAX_SPANS_PER_SHARD`] per shard, and the
//! same per capture buffer): once a shard fills, further spans on
//! threads hashing to it are counted in [`dropped_spans`] — and surfaced
//! in the metrics registry as `gsj_obs_trace_dropped_spans_total` —
//! instead of buffered, so a forgotten `GSJ_TRACE=1` cannot grow memory
//! without bound.

use crate::metrics::LazyCounter;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Shard count for the finished-span collector. Threads hash to shards
/// by thread id, so pushes from different threads rarely contend.
const NSHARDS: usize = 16;

/// Per-shard capacity bound (spans beyond it are dropped and counted).
const MAX_SPANS_PER_SHARD: usize = 1 << 16;

/// Packed [`TraceMode`] discriminant: 0 = not yet initialized from the
/// environment, then [`MODE_OFF`] / [`MODE_ON`] / [`MODE_SAMPLE`].
static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);
const MODE_UNINIT: u8 = 0;
const MODE_OFF: u8 = 1;
const MODE_ON: u8 = 2;
const MODE_SAMPLE: u8 = 3;
/// Sampling probability as `f64` bits (only meaningful in sample mode).
static SAMPLE_BITS: AtomicU64 = AtomicU64::new(0);
/// Counter-based stream for the sampling decision; mixed through
/// splitmix64 so consecutive queries get decorrelated coin flips.
static SAMPLE_SEQ: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SHARDS: [Mutex<Vec<SpanRecord>>; NSHARDS] = [const { Mutex::new(Vec::new()) }; NSHARDS];
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Ids of the spans currently open on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// The buffer of the [`capture`] running on this thread, if any.
    static CAPTURE: RefCell<Option<Vec<SpanRecord>>> = const { RefCell::new(None) };
}

/// The process-wide trace epoch: all `start_ns` values are offsets from
/// this instant.
fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch for an `Instant` (0 if it predates
/// the epoch).
pub fn ns_since_epoch(t: Instant) -> u64 {
    t.checked_duration_since(epoch())
        .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Nanoseconds since the trace epoch, now.
pub fn now_ns() -> u64 {
    ns_since_epoch(Instant::now())
}

/// How span collection behaves process-wide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceMode {
    /// Collection off; [`span`] hands out inert guards.
    Off,
    /// Collection on for every span.
    On,
    /// Collection off, but [`should_trace_query`] approves roughly this
    /// fraction of queries for forced per-query collection.
    Sample(f64),
}

/// Parse a `GSJ_TRACE` value into a [`TraceMode`]. Unset/empty/`0`/
/// `false`/`off` → `Off`; `sample:<p>` → `Sample(p)` with `p` clamped
/// to `[0, 1]` (unparseable `p` → `Off`); anything else → `On`.
pub fn parse_trace_env(v: Option<&str>) -> TraceMode {
    match v {
        None | Some("" | "0" | "false" | "off") => TraceMode::Off,
        Some(s) => match s.strip_prefix("sample:") {
            Some(p) => match p.trim().parse::<f64>() {
                Ok(p) if p.is_finite() => TraceMode::Sample(p.clamp(0.0, 1.0)),
                _ => TraceMode::Off,
            },
            None => TraceMode::On,
        },
    }
}

fn store_mode(mode: TraceMode) {
    let tag = match mode {
        TraceMode::Off => MODE_OFF,
        TraceMode::On => MODE_ON,
        TraceMode::Sample(p) => {
            SAMPLE_BITS.store(p.clamp(0.0, 1.0).to_bits(), Ordering::Relaxed);
            MODE_SAMPLE
        }
    };
    MODE.store(tag, Ordering::Relaxed);
}

/// The current mode, lazily seeded from `GSJ_TRACE` on first use; later
/// [`set_trace_mode`] calls always win.
pub fn trace_mode() -> TraceMode {
    match MODE.load(Ordering::Relaxed) {
        MODE_UNINIT => {
            let mode = parse_trace_env(std::env::var("GSJ_TRACE").ok().as_deref());
            store_mode(mode);
            mode
        }
        MODE_ON => TraceMode::On,
        MODE_SAMPLE => TraceMode::Sample(f64::from_bits(SAMPLE_BITS.load(Ordering::Relaxed))),
        _ => TraceMode::Off,
    }
}

/// Set the mode at runtime (overrides whatever `GSJ_TRACE` said).
pub fn set_trace_mode(mode: TraceMode) {
    store_mode(mode);
}

/// Is span collection currently on for every span?
#[inline]
pub fn tracing_enabled() -> bool {
    matches!(trace_mode(), TraceMode::On)
}

/// Turn span collection on or off process-wide (a convenience shim over
/// [`set_trace_mode`]; note it discards a `Sample` rate — callers that
/// need to restore the exact prior state save [`trace_mode`] instead).
pub fn set_tracing(enabled: bool) {
    store_mode(if enabled {
        TraceMode::On
    } else {
        TraceMode::Off
    });
}

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Should the query starting now be traced? `On` → always, `Off` →
/// never, `Sample(p)` → a decorrelated counter-based coin flip that
/// approves a `p` fraction of calls. Callers that win run the query
/// inside a [`capture`] (see `GsqlEngine::run_recorded`).
pub fn should_trace_query() -> bool {
    match trace_mode() {
        TraceMode::Off => false,
        TraceMode::On => true,
        TraceMode::Sample(p) => {
            if p <= 0.0 {
                false
            } else if p >= 1.0 {
                true
            } else {
                let seq = SAMPLE_SEQ.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
                let u = (splitmix64_mix(seq) >> 11) as f64 / (1u64 << 53) as f64;
                u < p
            }
        }
    }
}

/// Number of spans discarded because a collector shard was full. Also
/// exported to Prometheus as `gsj_obs_trace_dropped_spans_total`.
pub fn dropped_spans() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Registry-backed mirror of [`dropped_spans`] so the loss shows up in
/// `/metrics` scrapes instead of only via the in-process accessor.
static DROPPED_METRIC: LazyCounter = LazyCounter::new("gsj_obs_trace_dropped_spans_total");

/// A fresh span id (also used to mint ids for synthetic records bridged
/// from non-span sources, e.g. physical-operator stats).
pub fn next_span_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// One finished (or synthetic) span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the process.
    pub id: u64,
    /// Innermost span open on the same thread at creation, if any.
    pub parent: Option<u64>,
    /// Stage label, e.g. `rext.path_select`.
    pub label: String,
    /// Key/value annotations recorded while the span was open.
    pub fields: Vec<(String, String)>,
    /// Start offset from the process trace epoch, in nanoseconds.
    pub start_ns: u64,
    /// Wall time between creation and drop, in nanoseconds.
    pub dur_ns: u64,
    /// Small per-process ordinal of the recording thread.
    pub thread: u64,
}

struct SpanInner {
    id: u64,
    parent: Option<u64>,
    label: String,
    fields: Vec<(String, String)>,
    start: Instant,
    start_ns: u64,
}

/// An open span; records itself into the collector when dropped.
/// Inert (all methods no-ops) when tracing was disabled at creation.
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl SpanGuard {
    /// Attach a key/value field. No-op on an inert guard.
    pub fn field(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key.to_string(), value.to_string()));
        }
        self
    }

    /// The span id, when active (synthetic children can reference it).
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_ns = inner.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop our own id; tolerate out-of-order drops from guards
            // kept alive past their children.
            if let Some(pos) = s.iter().rposition(|&id| id == inner.id) {
                s.remove(pos);
            }
        });
        push_record(SpanRecord {
            id: inner.id,
            parent: inner.parent,
            label: inner.label,
            fields: inner.fields,
            start_ns: inner.start_ns,
            dur_ns,
            thread: THREAD_ID.with(|t| *t),
        });
    }
}

/// File a finished span: in this thread's [`capture`] buffer when one is
/// running, in the global collector otherwise.
fn push_record(rec: SpanRecord) {
    fn push_bounded(buf: &mut Vec<SpanRecord>, rec: SpanRecord) -> bool {
        let room = buf.len() < MAX_SPANS_PER_SHARD;
        if room {
            buf.push(rec);
        }
        room
    }
    // The shard lock is released before the registry lock is taken.
    let kept = CAPTURE.with(|c| match c.borrow_mut().as_mut() {
        Some(buf) => push_bounded(buf, rec),
        None => push_bounded(&mut SHARDS[(rec.thread as usize) % NSHARDS].lock(), rec),
    });
    if !kept {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        DROPPED_METRIC.inc();
    }
}

/// Are spans live on this thread — collection on process-wide, or a
/// [`capture`] running here?
#[inline]
fn collecting() -> bool {
    tracing_enabled() || CAPTURE.with(|c| c.borrow().is_some())
}

/// Run `f`, returning what it returned and the spans (and events) this
/// thread recorded meanwhile, in completion order. Inside `f` the calling
/// thread's spans are live regardless of [`trace_mode`] and go to the
/// capture's buffer instead of the global collector; no other thread and
/// no process-wide state is affected. A capture nested in `f` keeps its
/// own spans to itself.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    /// Puts the enclosing capture's buffer back, also when `f` unwinds.
    struct Restore(Option<Vec<SpanRecord>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CAPTURE.set(self.0.take());
        }
    }
    let _outer = Restore(CAPTURE.replace(Some(Vec::new())));
    let out = f();
    (out, CAPTURE.take().unwrap_or_default())
}

/// Open a span. Returns an inert guard (near-zero cost) when neither
/// process-wide collection nor a [`capture`] on this thread is on.
#[inline]
pub fn span(label: &str) -> SpanGuard {
    if !collecting() {
        return SpanGuard { inner: None };
    }
    open_span(label)
}

fn open_span(label: &str) -> SpanGuard {
    let id = next_span_id();
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start = Instant::now();
    SpanGuard {
        inner: Some(SpanInner {
            id,
            parent,
            label: label.to_string(),
            fields: Vec::new(),
            start,
            start_ns: ns_since_epoch(start),
        }),
    }
}

/// Record a point-in-time event (a zero-duration span) with fields.
/// No-op when [`span`] would be inert.
pub fn event(label: &str, fields: &[(&str, &dyn std::fmt::Display)]) {
    if !collecting() {
        return;
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    push_record(SpanRecord {
        id: next_span_id(),
        parent,
        label: label.to_string(),
        fields: fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        start_ns: now_ns(),
        dur_ns: 0,
        thread: THREAD_ID.with(|t| *t),
    });
}

/// Drain every collected span, sorted by start time (ties by id).
pub fn take_spans() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for shard in &SHARDS {
        out.append(&mut shard.lock());
    }
    out.sort_by_key(|s| (s.start_ns, s.id));
    out
}

/// Format nanoseconds human-readably (same scheme as `EXPLAIN ANALYZE`).
pub fn format_ns(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.2}µs", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

/// Render a span forest as an indented text tree. Spans whose parent is
/// absent from `spans` (or `None`) become roots; children sort by start
/// time. Spans from threads other than their parent's still attach
/// normally — the parent link is what matters.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    use std::fmt::Write as _;
    let present: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut children: std::collections::HashMap<u64, Vec<usize>> = std::collections::HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) if present.contains(&p) => children.entry(p).or_default().push(i),
            _ => roots.push(i),
        }
    }
    fn walk(
        spans: &[SpanRecord],
        children: &std::collections::HashMap<u64, Vec<usize>>,
        i: usize,
        depth: usize,
        out: &mut String,
    ) {
        let s = &spans[i];
        let mut line = format!("{}{}", "  ".repeat(depth), s.label);
        if s.dur_ns > 0 {
            let _ = write!(line, "  [{}]", format_ns(s.dur_ns));
        }
        for (k, v) in &s.fields {
            let _ = write!(line, " {k}={v}");
        }
        out.push_str(&line);
        out.push('\n');
        if let Some(kids) = children.get(&s.id) {
            for &k in kids {
                walk(spans, children, k, depth + 1, out);
            }
        }
    }
    let mut out = String::new();
    for &r in &roots {
        walk(spans, &children, r, 0, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// The collector and the mode are global; tests that drain or flip
    /// them serialize here so they never steal each other's spans.
    static GLOBAL: Mutex<()> = Mutex::new(());

    fn exclusive_region() -> parking_lot::MutexGuard<'static, ()> {
        GLOBAL.lock()
    }

    #[test]
    fn disabled_guard_is_inert() {
        let _r = exclusive_region();
        let was = tracing_enabled();
        set_tracing(false);
        let _ = take_spans();
        {
            let mut g = span("should.not.record");
            g.field("k", 1);
            assert!(g.id().is_none());
        }
        event("nor.this", &[]);
        assert!(take_spans().is_empty());
        set_tracing(was);
    }

    #[test]
    fn spans_nest_by_thread_stack() {
        let _r = exclusive_region();
        let was = tracing_enabled();
        set_tracing(true);
        let _ = take_spans();
        {
            let outer = span("outer");
            let outer_id = outer.id().unwrap();
            {
                let inner = span("inner");
                assert_ne!(inner.id().unwrap(), outer_id);
            }
            event("tick", &[("n", &3)]);
        }
        set_tracing(was);
        let spans = take_spans();
        let outer = spans.iter().find(|s| s.label == "outer").unwrap();
        let inner = spans.iter().find(|s| s.label == "inner").unwrap();
        let tick = spans.iter().find(|s| s.label == "tick").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(tick.parent, Some(outer.id));
        assert_eq!(tick.dur_ns, 0);
        assert_eq!(tick.fields, vec![("n".to_string(), "3".to_string())]);
        assert!(outer.parent.is_none());
    }

    #[test]
    fn concurrent_threads_collect_without_loss() {
        let _r = exclusive_region();
        let was = tracing_enabled();
        set_tracing(true);
        let _ = take_spans();
        const THREADS: usize = 8;
        const PER_THREAD: usize = 200;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let _parent = span(&format!("t{t}.parent"));
                        let mut child = span(&format!("t{t}.child"));
                        child.field("i", i);
                    }
                });
            }
        });
        set_tracing(was);
        let spans = take_spans();
        assert_eq!(spans.len(), THREADS * PER_THREAD * 2);
        // Every child points at a parent on its own thread.
        for s in spans.iter().filter(|s| s.label.ends_with(".child")) {
            let p = spans.iter().find(|q| Some(q.id) == s.parent).unwrap();
            assert_eq!(p.thread, s.thread);
            assert!(p.label.ends_with(".parent"));
        }
    }

    #[test]
    fn capture_sees_exactly_the_calling_threads_spans() {
        let _r = exclusive_region();
        let was = trace_mode();
        // What a `GSJ_TRACE=1` run had collected before the capture.
        set_tracing(true);
        let _ = take_spans();
        drop(span("collected.before"));
        set_trace_mode(TraceMode::Sample(0.5));
        // A second thread opens spans throughout the capture: the
        // capture does not end before it has seen 100 of its attempts.
        let (attempts, stop) = (AtomicU64::new(0), AtomicBool::new(false));
        let (opened_elsewhere, mine) = std::thread::scope(|scope| {
            let other = scope.spawn(|| {
                let mut live = 0;
                while !stop.load(Ordering::Relaxed) {
                    live += u64::from(span("other.thread").id().is_some());
                    attempts.fetch_add(1, Ordering::Relaxed);
                }
                live
            });
            let ((), mine) = capture(|| {
                let outer = span("mine.outer");
                assert!(outer.id().is_some(), "live although the mode is not On");
                drop(span("mine.inner"));
                event("mine.tick", &[]);
                let seen = attempts.load(Ordering::Relaxed);
                while attempts.load(Ordering::Relaxed) < seen + 100 {
                    std::thread::yield_now();
                }
            });
            stop.store(true, Ordering::Relaxed);
            (other.join().unwrap(), mine)
        });
        let labels: Vec<&str> = mine.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["mine.inner", "mine.tick", "mine.outer"]);
        assert_eq!(mine[0].parent, Some(mine[2].id));
        assert_eq!(opened_elsewhere, 0, "the capture turned no other thread on");
        assert_eq!(trace_mode(), TraceMode::Sample(0.5), "mode untouched");
        assert!(span("after").id().is_none(), "the capture ended with `f`");
        let global: Vec<String> = take_spans().into_iter().map(|s| s.label).collect();
        assert_eq!(
            global,
            ["collected.before"],
            "earlier trace kept, nothing leaked"
        );
        set_trace_mode(was);
    }

    #[test]
    fn render_tree_indents_children() {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: None,
                label: "root".into(),
                fields: vec![("rows".into(), "4".into())],
                start_ns: 0,
                dur_ns: 2_000_000,
                thread: 0,
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                label: "child".into(),
                fields: vec![],
                start_ns: 10,
                dur_ns: 1_000,
                thread: 0,
            },
            SpanRecord {
                id: 3,
                parent: Some(99), // orphan → root
                label: "orphan".into(),
                fields: vec![],
                start_ns: 20,
                dur_ns: 0,
                thread: 1,
            },
        ];
        let text = render_tree(&spans);
        assert!(text.contains("root  [2.00ms] rows=4"), "{text}");
        assert!(text.contains("\n  child  [1.00µs]"), "{text}");
        assert!(text.lines().any(|l| l == "orphan"), "{text}");
    }

    #[test]
    fn trace_env_parses_modes() {
        assert_eq!(parse_trace_env(None), TraceMode::Off);
        assert_eq!(parse_trace_env(Some("")), TraceMode::Off);
        assert_eq!(parse_trace_env(Some("0")), TraceMode::Off);
        assert_eq!(parse_trace_env(Some("off")), TraceMode::Off);
        assert_eq!(parse_trace_env(Some("false")), TraceMode::Off);
        assert_eq!(parse_trace_env(Some("1")), TraceMode::On);
        assert_eq!(parse_trace_env(Some("yes")), TraceMode::On);
        assert_eq!(
            parse_trace_env(Some("sample:0.25")),
            TraceMode::Sample(0.25)
        );
        // Out-of-range rates clamp; garbage rates fall back to off.
        assert_eq!(parse_trace_env(Some("sample:7")), TraceMode::Sample(1.0));
        assert_eq!(parse_trace_env(Some("sample:-1")), TraceMode::Sample(0.0));
        assert_eq!(parse_trace_env(Some("sample:lots")), TraceMode::Off);
    }

    #[test]
    fn trace_mode_is_runtime_overridable() {
        let _r = exclusive_region();
        let was = trace_mode();
        // The old implementation latched the env read in a Once, so a
        // later programmatic toggle after first read was the only
        // override; set_trace_mode must always win, repeatedly.
        set_trace_mode(TraceMode::On);
        assert!(tracing_enabled());
        set_trace_mode(TraceMode::Sample(0.5));
        assert_eq!(trace_mode(), TraceMode::Sample(0.5));
        assert!(
            !tracing_enabled(),
            "sample mode keeps global collection off"
        );
        set_trace_mode(TraceMode::Off);
        assert!(!tracing_enabled());
        set_trace_mode(was);
    }

    #[test]
    fn sampling_decisions_track_the_rate() {
        let _r = exclusive_region();
        let was = trace_mode();
        set_trace_mode(TraceMode::On);
        assert!(should_trace_query());
        set_trace_mode(TraceMode::Off);
        assert!(!should_trace_query());
        set_trace_mode(TraceMode::Sample(0.0));
        assert!(!should_trace_query());
        set_trace_mode(TraceMode::Sample(1.0));
        assert!(should_trace_query());
        set_trace_mode(TraceMode::Sample(0.25));
        let hits = (0..4000).filter(|_| should_trace_query()).count();
        // The counter-based stream is deterministic but well-mixed; a
        // generous band keeps this robust to interleaved callers.
        assert!(
            (400..=1800).contains(&hits),
            "0.25 sampling hit {hits}/4000"
        );
        set_trace_mode(was);
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(5), "5ns");
        assert_eq!(format_ns(1_500), "1.50µs");
        assert_eq!(format_ns(2_500_000), "2.50ms");
        assert_eq!(format_ns(3_000_000_000), "3.00s");
    }
}
