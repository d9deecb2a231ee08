//! Execution-governance integration tests: deadlines, budgets and
//! cooperative cancellation observed end-to-end — through the gSQL
//! engine's physical operators, the k-hop BFS loops of link joins, and
//! random-walk corpus generation (DESIGN.md §11).

use gsj_common::{FxHashSet, GsjError, QueryGovernor, Value};
use gsj_core::gsql::exec::{GsqlEngine, Strategy, TraceOpt};
use gsj_core::join::LinkIndex;
use gsj_datagen::queries::workload;
use gsj_datagen::Collection;
use gsj_graph::random_walk::{build_corpus, WalkConfig};
use gsj_graph::LabeledGraph;
use gsj_relational::exec::natural_join;
use gsj_relational::{Relation, Schema};
use gsj_server::engine_for_collection;
use gsj_tests::tiny;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The Movie collection + engine, built once: profile construction is
/// the expensive part of these tests and the engine is shared read-only.
fn movie() -> &'static (Collection, GsqlEngine) {
    static MOVIE: OnceLock<(Collection, GsqlEngine)> = OnceLock::new();
    MOVIE.get_or_init(|| {
        let col = tiny("Movie");
        let engine = engine_for_collection(&col).unwrap();
        (col, engine)
    })
}

/// A governor whose deadline is already in the past.
fn expired() -> QueryGovernor {
    QueryGovernor::builder()
        .deadline_at(Instant::now() - Duration::from_millis(1))
        .build()
}

/// A long chain so BFS loops take enough strided ticks to notice.
fn chain(n: usize) -> (LabeledGraph, Vec<gsj_graph::VertexId>) {
    let mut g = LabeledGraph::new();
    let vs: Vec<_> = (0..n).map(|i| g.add_vertex(&format!("v{i}"))).collect();
    for w in vs.windows(2) {
        g.add_edge(w[0], "e", w[1]);
    }
    (g, vs)
}

#[test]
fn khop_bfs_observes_expired_deadline() {
    // The link index's multi-source BFS, on a build of many batches: a
    // deadline that lapses while it runs stops it with the typed error.
    let (g, vs) = chain(20_000);
    let gov = QueryGovernor::builder()
        .deadline(Duration::from_millis(1))
        .build();
    let err = LinkIndex::build(&g, &vs, &vs, 30, &gov).unwrap_err();
    assert!(matches!(err, GsjError::DeadlineExceeded(_)), "{err:?}");

    // Through the profile: an expired or cancelled governor stops the
    // build of a resident `g_L` over more than one batch of sources, and
    // nothing is installed.
    let col = tiny("Celebrity");
    let engine = engine_for_collection(&col).unwrap();
    let (g, rel) = (engine.graph("G").unwrap(), &col.spec.rel_name);
    let profile = engine.profile("G").unwrap();
    let sources: FxHashSet<_> = profile
        .extraction(rel)
        .unwrap()
        .matches
        .vertices()
        .collect();
    assert!(sources.len() > 64, "{} sources: one batch", sources.len());
    let cancelled = QueryGovernor::unlimited();
    cancelled.cancel();
    let err = profile
        .build_link_index(g, rel, rel, 2, &cancelled)
        .unwrap_err();
    assert_eq!(err, GsjError::Cancelled);
    let err = profile
        .build_link_index(g, rel, rel, 2, &expired())
        .unwrap_err();
    assert!(matches!(err, GsjError::DeadlineExceeded(_)), "{err:?}");
    assert_eq!(profile.link_index_count(), 0);
    // And an unlimited governor builds and installs it.
    let index = profile
        .build_link_index(g, rel, rel, 2, &QueryGovernor::unlimited())
        .unwrap();
    assert!(
        index.pairs() >= sources.len(),
        "every source reaches itself"
    );
    assert_eq!(profile.link_index_count(), 1);
}

#[test]
fn random_walk_corpus_observes_expired_deadline() {
    let (g, _) = chain(300);
    let cfg = WalkConfig::default();
    let err = build_corpus(&g, &cfg, &expired()).unwrap_err();
    assert!(matches!(err, GsjError::DeadlineExceeded(_)), "{err:?}");
}

#[test]
fn gsql_query_observes_expired_deadline() {
    let (col, engine) = movie();
    let q = &workload(col)[0];
    let err = engine
        .run_recorded(&q.text, Strategy::Optimized, &expired(), TraceOpt::Off)
        .result
        .unwrap_err();
    assert!(matches!(err, GsjError::DeadlineExceeded(_)), "{err:?}");
}

#[test]
fn gsql_link_join_observes_deadline_in_bfs_loop() {
    // A deadline that expires *during* execution: ample for planning, far
    // too short for the online HER + k-hop-expansion link join. The error
    // must be the typed governance error, never a panic or a hang.
    let col = tiny("Celebrity");
    let engine = engine_for_collection(&col).unwrap();
    let q = workload(&col).into_iter().find(|q| q.link).unwrap();
    let gov = QueryGovernor::builder()
        .deadline(Duration::from_nanos(1))
        .build();
    // Let the deadline lapse so even the first stage check trips.
    std::thread::sleep(Duration::from_millis(2));
    let err = engine
        .run_recorded(&q.text, Strategy::Baseline, &gov, TraceOpt::Off)
        .result
        .unwrap_err();
    assert!(matches!(err, GsjError::DeadlineExceeded(_)), "{err:?}");
}

#[test]
fn gsql_query_observes_cancellation() {
    let (col, engine) = movie();
    let q = &workload(col)[0];
    let gov = QueryGovernor::unlimited();
    gov.cancel();
    let err = engine
        .run_recorded(&q.text, Strategy::Optimized, &gov, TraceOpt::Off)
        .result
        .unwrap_err();
    assert_eq!(err, GsjError::Cancelled);
}

#[test]
fn row_budget_exhaustion_is_typed() {
    let (col, engine) = movie();
    let q = &workload(col)[0];
    let gov = QueryGovernor::builder().row_budget(1).build();
    let err = engine
        .run_recorded(&q.text, Strategy::Optimized, &gov, TraceOpt::Off)
        .result
        .unwrap_err();
    assert!(matches!(err, GsjError::ResourceExhausted(_)), "{err:?}");
    assert!(err.retryable());
    assert!(!err.is_governance());
}

#[test]
fn unlimited_governor_matches_ungoverned_run() {
    let (col, engine) = movie();
    let q = &workload(col)[0];
    let plain = engine.run(&q.text, Strategy::Optimized).unwrap();
    let gov = QueryGovernor::unlimited();
    let (governed, _) = engine
        .run_recorded(&q.text, Strategy::Optimized, &gov, TraceOpt::Off)
        .result
        .unwrap();
    assert_eq!(plain, governed);
}

#[test]
fn generous_budgets_do_not_interfere() {
    let (col, engine) = movie();
    let q = &workload(col)[0];
    let gov = QueryGovernor::builder()
        .deadline(Duration::from_secs(3600))
        .row_budget(10_000_000)
        .mem_budget(1 << 32)
        .build();
    let (rel, _) = engine
        .run_recorded(&q.text, Strategy::Optimized, &gov, TraceOpt::Off)
        .result
        .unwrap();
    assert_eq!(rel, engine.run(&q.text, Strategy::Optimized).unwrap());
    // The governed run accounted for the rows it produced.
    assert!(gov.rows_charged() > 0);
    assert!(gov.mem_charged() > 0);
}

/// The server's disconnect watcher cancels a query's governor from
/// another thread while the query runs on its session thread. A cancel
/// raised while a large join runs surfaces as `Cancelled` at the join's
/// next governance check.
#[test]
fn cross_thread_cancel_stops_a_running_join() {
    // Three 300k-row relations joined on a string key. The first join's
    // probe charges memory — the handshake that the query is in flight —
    // and the canceller cancels; the second join's build alone spans many
    // scheduler quanta, so the flag is up by the time its probe checks the
    // governor, even on a single-core host.
    let side = |name: &str, attr: &str| {
        let mut rel = Relation::empty(Schema::of(name, &["k", attr]));
        for i in 0..300_000i64 {
            rel.push_values(vec![Value::str(format!("k{i}")), Value::Int(i)])
                .unwrap();
        }
        rel
    };
    let (l, r, r2) = (side("big_l", "a"), side("big_r", "b"), side("big_r2", "c"));
    let gov = QueryGovernor::builder().mem_budget(u64::MAX).build();
    let res = std::thread::scope(|s| {
        s.spawn(|| {
            while gov.mem_charged() == 0 && !gov.is_cancelled() {
                std::thread::yield_now();
            }
            gov.cancel();
        });
        let res = natural_join(&l, &r, &gov).and_then(|lr| natural_join(&lr, &r2, &gov));
        // Releases the canceller should the first join fail before its
        // charge; the result is already decided.
        gov.cancel();
        res
    });
    assert!(
        matches!(res, Err(GsjError::Cancelled)),
        "expected the join to observe the cross-thread cancel, got {:?}",
        res.map(|rel| rel.len())
    );
}
