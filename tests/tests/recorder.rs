//! Flight-recorder integration tests: many threads hammering one shared
//! [`GsqlEngine`] must each leave exactly one intact record per query in
//! the process-global recorder ring — unique ids, no torn fields —
//! end-to-end through the real parse/plan/execute path (DESIGN.md §15).

use gsj_common::QueryGovernor;
use gsj_core::gsql::exec::{GsqlEngine, Strategy, TraceOpt};
use gsj_datagen::Collection;
use gsj_obs::recorder;
use gsj_server::engine_for_collection;
use gsj_tests::tiny;
use std::collections::HashSet;
use std::sync::OnceLock;

/// The Movie collection + engine, built once and shared read-only.
fn movie() -> &'static (Collection, GsqlEngine) {
    static MOVIE: OnceLock<(Collection, GsqlEngine)> = OnceLock::new();
    MOVIE.get_or_init(|| {
        let col = tiny("Movie");
        let engine = engine_for_collection(&col).unwrap();
        (col, engine)
    })
}

/// 8 threads × 25 queries through one engine: exactly 200 records land
/// in the ring, every id is unique, and no record has torn fields (each
/// field set is internally consistent with its own id).
#[test]
fn concurrent_queries_each_leave_one_intact_record() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 25;

    let (col, engine) = movie();
    let text = format!("select * from {}", col.spec.rel_name);
    let expect_rows = engine
        .run(&text, Strategy::Baseline)
        .expect("warmup query")
        .len() as u64;
    let expect_hash = recorder::text_hash(&text);

    let ids: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let text = &text;
                s.spawn(move || {
                    let gov = QueryGovernor::builder().build();
                    (0..PER_THREAD)
                        .map(|_| {
                            let run =
                                engine.run_recorded(text, Strategy::Baseline, &gov, TraceOpt::Off);
                            run.result.expect("query failed under concurrency");
                            run.query_id
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    assert_eq!(ids.len(), THREADS * PER_THREAD);
    let unique: HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "query ids must be unique");

    // Every issued id must be present in the ring (200 << capacity, and
    // other tests in this binary share the fixture but not the ring
    // window we filter on), with internally consistent fields.
    let records = recorder::recent(recorder::RECORDER_CAPACITY);
    let mut seen = 0usize;
    for rec in &records {
        if !unique.contains(&rec.id) {
            continue;
        }
        seen += 1;
        assert_eq!(
            rec.trace_id,
            recorder::trace_id_hex(recorder::trace_id_bits(rec.id)),
            "torn trace id on record {}",
            rec.id
        );
        assert_eq!(rec.text, text, "torn text on record {}", rec.id);
        assert_eq!(rec.text_hash, expect_hash, "torn hash on record {}", rec.id);
        assert_eq!(rec.verdict, "ok", "record {} not ok", rec.id);
        assert_eq!(rec.strategy, "Baseline", "torn strategy on {}", rec.id);
        assert_eq!(rec.rows_out, expect_rows, "torn rows_out on {}", rec.id);
        assert!(!rec.degraded, "spurious degraded flag on {}", rec.id);
        assert!(rec.workers >= 1, "workers must be at least 1");
    }
    assert_eq!(seen, ids.len(), "every query must leave exactly one record");
}

/// One way to run a query, so one record per call whichever entry point
/// made it: the record's ids are the ones the call returned (where it
/// returns them), it carries the text the entry point had, and it holds
/// a span tree exactly when the call asked for one.
#[test]
fn every_entry_point_leaves_exactly_one_record() {
    let (col, engine) = movie();
    let text = format!("select {} from {}", col.spec.id_attr, col.spec.rel_name);
    let q = engine.parse(&text).unwrap();
    let summary = gsj_core::gsql::summarize_query(&q);
    let gov = QueryGovernor::unlimited();
    let strategy = Strategy::Optimized;
    let recorded = |trace| {
        let run = engine.run_recorded(&text, strategy, &gov, trace);
        run.result.as_ref().expect("run_recorded");
        assert_eq!(run.spans.is_some(), trace == TraceOpt::Force);
        Some((run.query_id, run.trace_id))
    };
    type Ids = Option<(u64, String)>;
    // (entry point, recorded text, traced, the call).
    let cases: [(&str, &str, bool, &dyn Fn() -> Ids); 6] = [
        ("run", &text, false, &|| {
            engine.run(&text, strategy).map(|_| None).unwrap()
        }),
        ("run_query", &summary, false, &|| {
            engine.run_query(&q, strategy).map(|_| None).unwrap()
        }),
        ("run_query_stats", &summary, false, &|| {
            engine.run_query_stats(&q, strategy).map(|_| None).unwrap()
        }),
        ("run_recorded(Off)", &text, false, &|| {
            recorded(TraceOpt::Off)
        }),
        ("run_recorded(Force)", &text, true, &|| {
            recorded(TraceOpt::Force)
        }),
        ("explain_analyze", &summary, true, &|| {
            engine.explain_analyze(&q, strategy).map(|_| None).unwrap()
        }),
    ];
    for (entry, text, traced, call) in cases {
        // Other tests record concurrently: this call's records are the
        // ones with its text inside its id window.
        let before = recorder::next_query_id();
        let returned = call();
        let after = recorder::next_query_id();
        let mine: Vec<_> = recorder::recent(recorder::RECORDER_CAPACITY)
            .into_iter()
            .filter(|r| before < r.id && r.id < after && r.text == text)
            .collect();
        assert_eq!(mine.len(), 1, "{entry}: {mine:?}");
        let rec = &mine[0];
        assert_eq!(rec.verdict, "ok", "{entry}");
        assert_eq!(rec.trace_json.is_some(), traced, "{entry}");
        assert_eq!(
            rec.trace_id,
            recorder::trace_id_hex(recorder::trace_id_bits(rec.id)),
            "{entry}"
        );
        if let Some((id, trace_id)) = returned {
            assert_eq!((rec.id, &rec.trace_id), (id, &trace_id), "{entry}");
        }
    }
}
