//! The query flight recorder: an always-on, bounded ring of per-query
//! [`QueryRecord`]s.
//!
//! Spans answer "where did *this traced* query spend its time"; metrics
//! answer "how is the process doing in aggregate". The recorder fills
//! the gap between them: **every** query — traced or not — leaves one
//! attributable record (strategy chosen, degraded-path taken, governor
//! verdict, fault hits, wall time, per-phase row counts, memory
//! charged, worker count) so a slow or degraded query on a live server
//! is explainable after the fact without having had tracing on.
//!
//! Design constraints, in order:
//!
//! 1. **~zero overhead.** One record per query, built after the query
//!    finishes from state the engine already has. The hot path costs
//!    two atomic increments (query id, recorded counter) plus one
//!    sharded mutex push at query end.
//! 2. **Bounded.** [`RECORDER_SHARDS`] rings of
//!    [`RECORDS_PER_SHARD`] slots each; the oldest record in a shard is
//!    overwritten when it fills. Heavy payloads (explain-analyze text,
//!    span JSON) are only attached to the slow tail / traced queries.
//! 3. **No torn reads.** Records are written whole under the shard
//!    lock and read out as clones; ids are minted from one global
//!    atomic so they are unique and monotonic across threads.
//!
//! Queries are assigned to shards by `id % RECORDER_SHARDS`, i.e.
//! round-robin: each shard holds the newest records of its residue
//! class, so the union is exactly the newest [`RECORDER_CAPACITY`]
//! records process-wide.

use crate::export::escape_json;
use crate::metrics::LazyCounter;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Shard count for the record ring (power of two, matches `id % N`).
pub const RECORDER_SHARDS: usize = 8;

/// Ring capacity per shard.
pub const RECORDS_PER_SHARD: usize = 128;

/// Total record capacity process-wide.
pub const RECORDER_CAPACITY: usize = RECORDER_SHARDS * RECORDS_PER_SHARD;

/// Query text beyond this many bytes is truncated in the record (the
/// full text is still hashed, so identical long queries stay groupable).
pub const TEXT_CAP: usize = 160;

/// Default slow-query threshold when `GSJ_SLOW_MS` is unset: 100ms.
const DEFAULT_SLOW_NS: u64 = 100_000_000;
/// Sentinel meaning "not yet initialized from the environment".
const SLOW_UNINIT: u64 = u64::MAX;

static ENABLED: AtomicBool = AtomicBool::new(true);
static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1);
static SLOW_NS: AtomicU64 = AtomicU64::new(SLOW_UNINIT);
static RECORDED_TOTAL: LazyCounter = LazyCounter::new("gsj_obs_recorder_queries_total");
static EVICTED_TOTAL: LazyCounter = LazyCounter::new("gsj_obs_recorder_evicted_total");

struct Shard {
    slots: Vec<QueryRecord>,
    /// Next overwrite position once the ring is full. Because slots are
    /// appended in push order, the entry at `next` is always the oldest.
    next: usize,
}

static SHARDS: [Mutex<Shard>; RECORDER_SHARDS] = [const {
    Mutex::new(Shard {
        slots: Vec::new(),
        next: 0,
    })
}; RECORDER_SHARDS];

/// One executed phase (a top-level physical operator) of a query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseStat {
    /// Operator label, e.g. `l-join graph=Movie` (carries the
    /// `[degraded → …]` suffix when a strategy fell back).
    pub label: String,
    pub rows_in: u64,
    pub rows_out: u64,
    pub dur_ns: u64,
}

/// One completed query, as retained by the flight recorder.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryRecord {
    /// Monotonic process-wide query id (never reused).
    pub id: u64,
    /// Trace id as 16 lowercase hex chars, minted from the id.
    pub trace_id: String,
    /// Query start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// FNV-1a hash of the *full* query text.
    pub text_hash: u64,
    /// Query text, truncated to [`TEXT_CAP`] bytes.
    pub text: String,
    /// Execution strategy that ran, e.g. `Optimized`.
    pub strategy: String,
    /// Did any operator take a degraded fallback path?
    pub degraded: bool,
    /// `"ok"`, or the [`GsjError`] code the query failed with
    /// (`DeadlineExceeded`, `RowBudgetExceeded`, …).
    pub verdict: String,
    /// Faults injected process-wide while this query ran (approximate
    /// under concurrency: concurrent queries' hits land in whichever
    /// record's window they fall into).
    pub fault_hits: u64,
    /// End-to-end wall time.
    pub wall_ns: u64,
    /// Rows in the query result (0 on error).
    pub rows_out: u64,
    /// Rows charged against the governor's row budget.
    pub rows_charged: u64,
    /// Bytes charged against the governor's memory budget.
    pub mem_charged: u64,
    /// Worker-pool width the query could draw on.
    pub workers: u64,
    /// Top-level physical operators (capped at [`MAX_PHASES`]).
    pub phases: Vec<PhaseStat>,
    /// Full explain-analyze text, captured at record time for the slow
    /// tail only (`wall_ns >= slow_threshold_ns()`).
    pub slow_explain: Option<String>,
    /// JSON span-tree document, present when the query was traced
    /// (forced via the wire `trace: 1` header or sampled in).
    pub trace_json: Option<String>,
}

/// Phases beyond this count are dropped from the record (the phase list
/// exists for at-a-glance attribution, not full plan reconstruction —
/// that is what `slow_explain`/`trace_json` are for).
pub const MAX_PHASES: usize = 16;

/// Is the recorder currently keeping records? On by default; the
/// overhead benchmark turns it off for its baseline leg.
pub fn recorder_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn record retention on or off process-wide. Ids keep advancing
/// while off so re-enabling never reuses one.
pub fn set_recorder_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Mint the next query id (unique and monotonic process-wide).
pub fn next_query_id() -> u64 {
    NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed)
}

fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The trace id for a query id, as raw bits: a splitmix64 permutation,
/// so ids look opaque on the wire but never collide (the map is a
/// bijection on `u64`).
pub fn trace_id_bits(query_id: u64) -> u64 {
    splitmix64_mix(query_id ^ 0x6773_6a5f_7472_6163) // "gsj_trac"
}

/// Format trace-id bits the way they travel on the wire: 16 lowercase
/// hex chars.
pub fn trace_id_hex(bits: u64) -> String {
    format!("{bits:016x}")
}

/// Mint a `(query id, trace id)` pair for a query that is starting.
pub fn begin_query() -> (u64, String) {
    let id = next_query_id();
    (id, trace_id_hex(trace_id_bits(id)))
}

/// FNV-1a over the raw bytes — the recorder's text-grouping hash.
pub fn text_hash(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Truncate query text to [`TEXT_CAP`] bytes on a char boundary,
/// appending an ellipsis when anything was cut.
pub fn truncate_text(text: &str) -> String {
    if text.len() <= TEXT_CAP {
        return text.to_string();
    }
    let mut end = TEXT_CAP;
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &text[..end])
}

/// Push a completed record into the ring. No-op while the recorder is
/// disabled. The record's `id` decides its shard; records pushed out of
/// id order are fine (readers sort).
pub fn record(rec: QueryRecord) {
    if !recorder_enabled() {
        return;
    }
    let shard = (rec.id as usize) % RECORDER_SHARDS;
    {
        let mut guard = SHARDS[shard].lock();
        if guard.slots.len() < RECORDS_PER_SHARD {
            guard.slots.push(rec);
        } else {
            let at = guard.next;
            guard.slots[at] = rec;
            guard.next = (at + 1) % RECORDS_PER_SHARD;
            EVICTED_TOTAL.inc();
        }
    }
    RECORDED_TOTAL.inc();
}

/// The newest `limit` records, newest first.
pub fn recent(limit: usize) -> Vec<QueryRecord> {
    let mut out = Vec::new();
    for shard in &SHARDS {
        out.extend(shard.lock().slots.iter().cloned());
    }
    out.sort_by_key(|r| std::cmp::Reverse(r.id));
    out.truncate(limit);
    out
}

/// The newest `limit` retained records at or over the slow threshold,
/// newest first.
pub fn slow(limit: usize) -> Vec<QueryRecord> {
    let threshold = slow_threshold_ns();
    let mut out: Vec<QueryRecord> = Vec::new();
    for shard in &SHARDS {
        out.extend(
            shard
                .lock()
                .slots
                .iter()
                .filter(|r| r.wall_ns >= threshold)
                .cloned(),
        );
    }
    out.sort_by_key(|r| std::cmp::Reverse(r.id));
    out.truncate(limit);
    out
}

/// Look a retained record up by its wire trace id (16 hex chars).
pub fn find_by_trace(trace_id: &str) -> Option<QueryRecord> {
    let trace_id = trace_id.trim().to_ascii_lowercase();
    for shard in &SHARDS {
        if let Some(r) = shard.lock().slots.iter().find(|r| r.trace_id == trace_id) {
            return Some(r.clone());
        }
    }
    None
}

/// Total records ever pushed (survives ring eviction).
pub fn recorded_total() -> u64 {
    RECORDED_TOTAL.value()
}

/// The slow-query threshold in nanoseconds. Seeded from `GSJ_SLOW_MS`
/// (default 100ms) on first use; [`set_slow_threshold_ns`] overrides at
/// runtime.
pub fn slow_threshold_ns() -> u64 {
    let cur = SLOW_NS.load(Ordering::Relaxed);
    if cur != SLOW_UNINIT {
        return cur;
    }
    let ns = std::env::var("GSJ_SLOW_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|ms| ms.saturating_mul(1_000_000))
        .unwrap_or(DEFAULT_SLOW_NS);
    // Lossy under a first-use race, but both racers computed the same
    // value from the same environment.
    SLOW_NS.store(ns, Ordering::Relaxed);
    ns
}

/// Override the slow threshold at runtime (tests, live tuning).
pub fn set_slow_threshold_ns(ns: u64) {
    SLOW_NS.store(ns.min(SLOW_UNINIT - 1), Ordering::Relaxed);
}

/// Drop every retained record (test isolation). Ids keep advancing.
pub fn clear() {
    for shard in &SHARDS {
        let mut guard = shard.lock();
        guard.slots.clear();
        guard.next = 0;
    }
}

/// Serialize one record as a JSON object. `include_heavy` controls the
/// `explain` / `spans` payloads (the `/debug/slow` and `/debug/trace`
/// endpoints want them; `/debug/queries` stays light).
pub fn record_json(r: &QueryRecord, include_heavy: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"id\":{},\"trace_id\":\"{}\",\"start_ns\":{},\"text_hash\":\"{:016x}\",\"text\":\"{}\",\
         \"strategy\":\"{}\",\"degraded\":{},\"verdict\":\"{}\",\"fault_hits\":{},\"wall_ns\":{},\
         \"rows_out\":{},\"rows_charged\":{},\"mem_charged\":{},\"workers\":{},\"traced\":{},\"slow\":{}",
        r.id,
        escape_json(&r.trace_id),
        r.start_ns,
        r.text_hash,
        escape_json(&r.text),
        escape_json(&r.strategy),
        r.degraded,
        escape_json(&r.verdict),
        r.fault_hits,
        r.wall_ns,
        r.rows_out,
        r.rows_charged,
        r.mem_charged,
        r.workers,
        r.trace_json.is_some(),
        r.wall_ns >= slow_threshold_ns(),
    );
    out.push_str(",\"phases\":[");
    for (i, p) in r.phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"label\":\"{}\",\"rows_in\":{},\"rows_out\":{},\"dur_ns\":{}}}",
            escape_json(&p.label),
            p.rows_in,
            p.rows_out,
            p.dur_ns
        );
    }
    out.push(']');
    if include_heavy {
        match &r.slow_explain {
            Some(e) => {
                let _ = write!(out, ",\"explain\":\"{}\"", escape_json(e));
            }
            None => out.push_str(",\"explain\":null"),
        }
        match &r.trace_json {
            // trace_json is already a JSON document — embed it raw.
            Some(t) => {
                let _ = write!(out, ",\"trace\":{t}");
            }
            None => out.push_str(",\"trace\":null"),
        }
    }
    out.push('}');
    out
}

/// Serialize a record list as a JSON array (see [`record_json`]).
pub fn records_json(records: &[QueryRecord], include_heavy: bool) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&record_json(r, include_heavy));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::parse_json;

    // The ring is process-global; tests that clear() serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn rec(id: u64, wall_ns: u64) -> QueryRecord {
        QueryRecord {
            id,
            trace_id: trace_id_hex(trace_id_bits(id)),
            text: format!("select q{id}"),
            text_hash: text_hash(&format!("select q{id}")),
            strategy: "Optimized".into(),
            verdict: "ok".into(),
            wall_ns,
            ..QueryRecord::default()
        }
    }

    #[test]
    fn trace_ids_are_distinct_hex() {
        let a = trace_id_hex(trace_id_bits(1));
        let b = trace_id_hex(trace_id_bits(2));
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn text_is_truncated_on_char_boundaries() {
        let long = "é".repeat(TEXT_CAP); // 2 bytes per char
        let t = truncate_text(&long);
        assert!(t.ends_with('…'));
        assert!(t.len() <= TEXT_CAP + '…'.len_utf8());
        assert_eq!(truncate_text("short"), "short");
    }

    #[test]
    fn ring_wraparound_keeps_the_newest_records() {
        let _g = TEST_LOCK.lock();
        clear();
        let first = next_query_id();
        let extra = 50;
        let total = RECORDER_CAPACITY + extra;
        for _ in 0..total {
            let id = next_query_id();
            record(rec(id, 1_000));
        }
        let all = recent(usize::MAX);
        assert_eq!(all.len(), RECORDER_CAPACITY, "ring stays bounded");
        // The union of per-shard rings is exactly the newest records.
        let min_kept = all.iter().map(|r| r.id).min().unwrap();
        assert_eq!(min_kept, first + 1 + extra as u64);
        // Newest first, unique ids.
        for w in all.windows(2) {
            assert!(w[0].id > w[1].id);
        }
        // recent(limit) truncates from the newest end.
        let top = recent(10);
        assert_eq!(top.len(), 10);
        assert_eq!(top[0].id, all[0].id);
        clear();
    }

    #[test]
    fn slow_filter_and_trace_lookup() {
        let _g = TEST_LOCK.lock();
        clear();
        set_slow_threshold_ns(5_000);
        let fast = next_query_id();
        record(rec(fast, 1_000));
        let slow_id = next_query_id();
        record(rec(slow_id, 10_000));
        let s = slow(usize::MAX);
        assert!(s.iter().any(|r| r.id == slow_id));
        assert!(!s.iter().any(|r| r.id == fast));
        let tid = trace_id_hex(trace_id_bits(slow_id));
        let found = find_by_trace(&tid).expect("trace lookup");
        assert_eq!(found.id, slow_id);
        // Lookup is case-insensitive and trims whitespace.
        assert!(find_by_trace(&format!(" {} ", tid.to_uppercase())).is_some());
        assert!(find_by_trace("0000000000000000").is_none());
        clear();
    }

    #[test]
    fn disabled_recorder_drops_records() {
        let _g = TEST_LOCK.lock();
        clear();
        set_recorder_enabled(false);
        let id = next_query_id();
        record(rec(id, 1_000));
        assert!(recent(usize::MAX).is_empty());
        set_recorder_enabled(true);
        let id2 = next_query_id();
        record(rec(id2, 1_000));
        assert!(id2 > id, "ids advance even while disabled");
        assert_eq!(recent(usize::MAX).len(), 1);
        clear();
    }

    #[test]
    fn record_json_parses_and_carries_heavy_fields() {
        let _g = TEST_LOCK.lock();
        let mut r = rec(next_query_id(), 7_000);
        r.text = "select \"x\"\nfrom t".into();
        r.phases.push(PhaseStat {
            label: "l-join [degraded → baseline]".into(),
            rows_in: 10,
            rows_out: 3,
            dur_ns: 123,
        });
        r.slow_explain = Some("plan:\n  scan".into());
        r.trace_json = Some("{\"trace_id\":\"ab\",\"spans\":[]}".into());
        let light = parse_json(&record_json(&r, false)).expect("light json parses");
        assert_eq!(
            light.get("trace_id").unwrap().as_str(),
            Some(r.trace_id.as_str())
        );
        assert_eq!(
            light.get("text").unwrap().as_str(),
            Some("select \"x\"\nfrom t")
        );
        assert!(light.get("explain").is_none());
        let phases = light.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(
            phases[0].get("label").unwrap().as_str(),
            Some("l-join [degraded → baseline]")
        );
        let heavy = parse_json(&record_json(&r, true)).expect("heavy json parses");
        assert_eq!(
            heavy.get("explain").unwrap().as_str(),
            Some("plan:\n  scan")
        );
        assert!(heavy.get("trace").unwrap().get("spans").is_some());
        let arr = parse_json(&records_json(&[r.clone(), rec(next_query_id(), 1)], false)).unwrap();
        assert_eq!(arr.as_arr().unwrap().len(), 2);
    }

    #[test]
    fn concurrent_records_are_all_retained_with_unique_ids() {
        let _g = TEST_LOCK.lock();
        clear();
        const THREADS: usize = 8;
        const PER_THREAD: usize = 100; // 800 < RECORDER_CAPACITY
        let before = recorded_total();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let id = next_query_id();
                        let mut r = rec(id, 1_000 + i as u64);
                        r.strategy = format!("t{t}");
                        record(r);
                    }
                });
            }
        });
        assert_eq!(recorded_total() - before, (THREADS * PER_THREAD) as u64);
        let all = recent(usize::MAX);
        assert_eq!(all.len(), THREADS * PER_THREAD);
        let mut ids: Vec<u64> = all.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), THREADS * PER_THREAD, "ids are unique");
        // No torn fields: every record is internally consistent.
        for r in &all {
            assert_eq!(r.trace_id, trace_id_hex(trace_id_bits(r.id)));
            assert_eq!(r.text, format!("select q{}", r.id));
            assert_eq!(r.text_hash, text_hash(&r.text));
        }
        clear();
    }
}
