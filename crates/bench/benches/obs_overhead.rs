//! Instrumentation-overhead microbench (DESIGN.md §10, §15).
//!
//! Compares a hot loop that carries gsj-obs instrumentation — a hash-join
//! probe — against an uninstrumented copy, with tracing **off**, plus a
//! full gSQL query executed with the flight recorder **on vs off**.
//! Documented threshold: the instrumented / recorder-on variants must stay
//! within **2%** of the plain ones, which holds because the disabled span
//! path is a single atomic load, the aggregate counters are bumped once
//! per *call*, and the recorder writes one fixed-size record per *query*
//! under a sharded lock — never inside the inner loops.

use criterion::{criterion_group, criterion_main, Criterion};
use gsj_common::{FxHashMap, QueryGovernor, Value};
use gsj_core::gsql::exec::{GsqlEngine, Strategy, TraceOpt};
use gsj_obs::{recorder, LazyCounter};
use gsj_relational::{Database, Relation, Schema};

static PROBE_CALLS: LazyCounter = LazyCounter::new("gsj_bench_probe_calls_total");
static PROBE_MATCHES: LazyCounter = LazyCounter::new("gsj_bench_probe_matches_total");

fn probe_table(n: usize) -> (FxHashMap<Value, Vec<usize>>, Vec<Value>) {
    let mut build: FxHashMap<Value, Vec<usize>> = FxHashMap::default();
    for i in 0..n {
        build
            .entry(Value::str(format!("key{}", i % (n / 4))))
            .or_default()
            .push(i);
    }
    let probes: Vec<Value> = (0..n)
        .map(|i| Value::str(format!("key{}", i % n)))
        .collect();
    (build, probes)
}

/// The hash-join probe loop, uninstrumented.
fn probe_plain(build: &FxHashMap<Value, Vec<usize>>, probes: &[Value]) -> usize {
    let mut matches = 0usize;
    for p in probes {
        if let Some(rows) = build.get(p) {
            matches += rows.len();
        }
    }
    matches
}

/// The same probe loop carrying the instrumentation pattern used across
/// the engine: one disabled span at call granularity, counters bumped
/// once per call with the aggregated totals.
fn probe_instrumented(build: &FxHashMap<Value, Vec<usize>>, probes: &[Value]) -> usize {
    let _span = gsj_obs::span("bench.probe");
    let mut matches = 0usize;
    for p in probes {
        if let Some(rows) = build.get(p) {
            matches += rows.len();
        }
    }
    PROBE_CALLS.inc();
    PROBE_MATCHES.add(matches as u64);
    matches
}

fn bench_hash_join_probe(c: &mut Criterion) {
    let (build, probes) = probe_table(40_000);
    let mut group = c.benchmark_group("hash_join_probe");
    group.bench_function("plain", |b| {
        b.iter(|| std::hint::black_box(probe_plain(&build, &probes)))
    });
    group.bench_function("instrumented", |b| {
        b.iter(|| std::hint::black_box(probe_instrumented(&build, &probes)))
    });
    group.finish();
}

/// A graph-free engine over one synthetic relation: plain-select
/// queries exercise the parse → plan → execute → record path without
/// paying for profile construction in a microbench.
fn query_engine(rows: usize) -> GsqlEngine {
    let mut rel = Relation::empty(Schema::of("items", &["id", "name", "score"]));
    for i in 0..rows {
        rel.push_values(vec![
            Value::str(format!("id{i}")),
            Value::str(format!("item {}", i % 97)),
            Value::Int((i % 1000) as i64),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    db.insert(rel);
    GsqlEngine::new(db)
}

/// End-to-end query cost with the flight recorder on vs off. The
/// recorder adds one id allocation, one summary, and one sharded-lock
/// record push per query — amortized over parse + plan + execute it
/// must stay within the 2% envelope.
fn bench_flight_recorder(c: &mut Criterion) {
    let engine = query_engine(2_000);
    let gov = QueryGovernor::builder().build();
    let text = "select name from items where score > 500";
    let mut group = c.benchmark_group("flight_recorder");
    recorder::set_recorder_enabled(false);
    group.bench_function("recorder_off", |b| {
        b.iter(|| {
            let run = engine.run_recorded(text, Strategy::Baseline, &gov, TraceOpt::Off);
            std::hint::black_box(run.result.unwrap().0.len())
        })
    });
    recorder::set_recorder_enabled(true);
    group.bench_function("recorder_on", |b| {
        b.iter(|| {
            let run = engine.run_recorded(text, Strategy::Baseline, &gov, TraceOpt::Off);
            std::hint::black_box(run.result.unwrap().0.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_hash_join_probe, bench_flight_recorder);
criterion_main!(benches);
