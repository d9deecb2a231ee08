//! Property tests: the morsel-driven parallel paths (DESIGN.md §13)
//! produce results *identical* to the sequential paths — same rows in
//! the same order — at every worker count. `GSJ_THREADS=1` is the exact
//! legacy code path, so agreement with it at 2 and 8 workers is the
//! determinism contract, not merely multiset equality.
//!
//! Every case runs under [`pool::with_morsel_rows(2)`] so proptest-sized
//! inputs cross the parallel-engagement thresholds that normally keep
//! small relations on the inline path. The last leg puts the RExt half of
//! the pipeline — path selection, both embeddings, K-means — under the
//! same matrix, offline, under IncExt and at query time.

use gsj_common::{pool, GsjError, QueryGovernor, Value};
use gsj_core::gsql::exec::Strategy;
use gsj_core::incext::inc_update_graph;
use gsj_core::rext::Rext;
use gsj_graph::random_walk::{build_corpus, WalkConfig};
use gsj_graph::traversal::{k_hop_set, within_k_hops};
use gsj_graph::update::apply_updates;
use gsj_graph::{LabeledGraph, VertexId};
use gsj_relational::exec::{aggregate, natural_join};
use gsj_relational::physical::filter_rel;
use gsj_relational::{AggFunc, AggSpec, CmpOp, ExecContext, Expr, Relation, Schema};
use gsj_tests::{assert_same_discovery, tiny};
use proptest::prelude::*;
use std::sync::Arc;

/// Run `f` with the pool pinned to `threads` workers and two-row
/// morsels, so even tiny inputs engage the parallel kernels.
fn at<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    pool::with_threads(threads, || pool::with_morsel_rows(2, f))
}

fn relation(name: &str, attrs: &[&str], rows: &[(i64, i64)]) -> Relation {
    let mut r = Relation::empty(Schema::of(name, attrs));
    for &(k, a) in rows {
        let key = if k == 0 { Value::Null } else { Value::Int(k) };
        r.push_values(vec![key, Value::Int(a)]).unwrap();
    }
    r
}

/// A small random graph: 12 vertices, arbitrary directed edges.
fn graph(edges: &[(u8, u8)]) -> (LabeledGraph, Vec<VertexId>) {
    let mut g = LabeledGraph::new();
    let vs: Vec<VertexId> = (0..12).map(|i| g.add_vertex(&format!("v{i}"))).collect();
    for &(a, b) in edges {
        g.add_edge(vs[(a % 12) as usize], "e", vs[(b % 12) as usize]);
    }
    (g, vs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hash natural join: the shared-build / partitioned-probe path
    /// returns row-for-row what the sequential probe returns.
    #[test]
    fn parallel_join_equals_sequential(
        left in prop::collection::vec((0i64..6, -20i64..20), 0..24),
        right in prop::collection::vec((0i64..6, -20i64..20), 0..24),
    ) {
        let l = relation("l", &["k", "a"], &left);
        let r = relation("r", &["k", "b"], &right);
        let gov = QueryGovernor::unlimited();
        let seq = at(1, || natural_join(&l, &r, &gov)).unwrap();
        for threads in [2, 8] {
            let par = at(threads, || natural_join(&l, &r, &gov)).unwrap();
            prop_assert_eq!(&seq, &par, "join diverged at {} workers", threads);
        }
    }

    /// Grouped aggregation: per-worker partial buckets merged in morsel
    /// order preserve first-seen group order and fold results exactly.
    #[test]
    fn parallel_aggregate_equals_sequential(
        rows in prop::collection::vec((0i64..6, -20i64..20), 0..32),
    ) {
        let rel = relation("t", &["k", "a"], &rows);
        let aggs = [
            AggSpec::count_star("n"),
            AggSpec::new(AggFunc::Sum, "a", "total"),
            AggSpec::new(AggFunc::Min, "a", "low"),
        ];
        let gov = QueryGovernor::unlimited();
        let seq = at(1, || aggregate(&rel, &["k".into()], &aggs, &gov)).unwrap();
        for threads in [2, 8] {
            let par = at(threads, || aggregate(&rel, &["k".into()], &aggs, &gov)).unwrap();
            prop_assert_eq!(&seq, &par, "aggregate diverged at {} workers", threads);
        }
    }

    /// Filter (both the vectorized mask kernel and the row-at-a-time
    /// fallback) through the filter operator, morsel-parallel.
    #[test]
    fn parallel_filter_equals_sequential(
        rows in prop::collection::vec((0i64..6, -20i64..20), 0..32),
        threshold in -20i64..20,
    ) {
        use gsj_relational::BinOp;
        let rel = relation("t", &["k", "a"], &rows);
        let vectorized = Expr::cmp(CmpOp::Ge, Expr::col("a"), Expr::lit(threshold));
        let row_path = Expr::cmp(
            CmpOp::Ge,
            Expr::Bin(BinOp::Add, Box::new(Expr::col("a")), Box::new(Expr::lit(0i64))),
            Expr::lit(threshold),
        );
        for pred in [&vectorized, &row_path] {
            let run = || filter_rel(rel.clone(), pred, "Filter", &mut ExecContext::new());
            let seq = at(1, run).unwrap();
            for threads in [2, 8] {
                let par = at(threads, run).unwrap();
                prop_assert_eq!(&seq, &par, "filter diverged at {} workers", threads);
            }
        }
    }

    /// Level-synchronous parallel BFS visits exactly the sequential
    /// frontier sets and reaches the same reachability verdicts.
    #[test]
    fn parallel_bfs_equals_sequential(
        edges in prop::collection::vec((0u8..12, 0u8..12), 0..40),
        start in 0u8..12,
        target in 0u8..12,
        k in 1usize..5,
    ) {
        let (g, vs) = graph(&edges);
        let (s, t) = (vs[start as usize], vs[target as usize]);
        let seq_set = at(1, || k_hop_set(&g, s, k));
        let seq_within = at(1, || within_k_hops(&g, s, t, k));
        for threads in [2, 8] {
            prop_assert_eq!(&seq_set, &at(threads, || k_hop_set(&g, s, k)));
            prop_assert_eq!(seq_within, at(threads, || within_k_hops(&g, s, t, k)));
        }
    }

    /// Corpus building is deliberately sequential (one RNG stream feeds
    /// every walk — DESIGN.md §13), so the worker-count setting must not
    /// change the corpus: discovery quality is pinned to these exact
    /// sentences. Guards against a future "parallelize the walks" change
    /// silently reshuffling the corpus.
    #[test]
    fn walk_corpus_is_thread_count_invariant(
        edges in prop::collection::vec((0u8..12, 0u8..12), 1..40),
        seed in 0u64..1000,
    ) {
        let (g, _) = graph(&edges);
        let cfg = WalkConfig { walks_per_vertex: 3, max_len: 6, seed };
        let gov = QueryGovernor::unlimited();
        let seq = at(1, || build_corpus(&g, &cfg, &gov)).unwrap();
        for threads in [2, 8] {
            prop_assert_eq!(&seq, &at(threads, || build_corpus(&g, &cfg, &gov)).unwrap());
        }
    }
}

/// `h(D,G)` is a function of `(D, G, A)`, not of the machine: offline
/// profiling (`GraphProfile::build`: HER → discover → extract), one IncExt
/// batch over it and one query-time `Baseline` e-join produce the same
/// match relation, discovery, `D_G` and rows at every worker count.
#[test]
fn rext_pipeline_is_worker_count_invariant() {
    let col = tiny("Movie");
    let rext = Arc::new(Rext::train(&col.graph, gsj_server::serving_rext_config()).unwrap());
    let queries = gsj_datagen::queries::workload(&col);
    let ejoin = &queries.iter().find(|q| !q.link).unwrap().text;
    let mut updated_graph = col.graph.clone();
    let ups = gsj_datagen::updates::balanced_updates(&updated_graph, 0.05, 7);
    let report = apply_updates(&mut updated_graph, &ups);
    let run = |workers| {
        at(workers, || {
            let engine = col.engine(Arc::clone(&rext)).unwrap();
            let profile = engine.profile("G").unwrap();
            let offline = profile.extraction(&col.spec.rel_name).unwrap().clone();
            let updated = inc_update_graph(
                &rext,
                &updated_graph,
                col.entity_relation(),
                &col.her_config(),
                &offline,
                &report,
            )
            .unwrap();
            let rows = engine.run(ejoin, Strategy::Baseline).unwrap();
            ([offline, updated], rows)
        })
    };
    let (seq, seq_rows) = run(1);
    assert!(!seq[0].dg.is_empty() && !seq_rows.is_empty());
    for workers in [2, 8] {
        let (par, par_rows) = run(workers);
        for (phase, (a, b)) in ["offline", "IncExt"].iter().zip(seq.iter().zip(&par)) {
            let what = format!("{phase} at {workers} workers");
            assert_eq!(a.matches.pairs(), b.matches.pairs(), "{what}: f(D,G)");
            assert_same_discovery(&a.discovery, &b.discovery, &what);
            assert_eq!(a.dg, b.dg, "{what}: D_G");
        }
        assert_eq!(seq_rows, par_rows, "Baseline e-join at {workers} workers");
    }
}

/// The non-test part (up to the first `#[cfg(test)]`) of every file under
/// `crates/*/src`, as `(path, source)`.
fn engine_sources() -> Vec<(std::path::PathBuf, String)> {
    fn scan(dir: &std::path::Path, out: &mut Vec<(std::path::PathBuf, String)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                scan(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let source = std::fs::read_to_string(&path).unwrap();
                let engine = source.split("#[cfg(test)]").next().unwrap().to_string();
                out.push((path, engine));
            }
        }
    }
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let mut sources = Vec::new();
    let mut scanned = 0;
    for entry in std::fs::read_dir(&crates).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            scan(&path.join("src"), &mut sources);
            scanned += 1;
        }
    }
    assert!(
        scanned >= 11,
        "found only {scanned} crates under {crates:?}"
    );
    sources
}

/// One way to go parallel: outside `gsj_common::pool` (and the server,
/// whose threads are sessions, not kernels) no engine source starts a
/// thread or asks the host for its core count — so a fourth private
/// fan-out cannot grow back unnoticed.
#[test]
fn only_the_pool_starts_threads_or_counts_cores() {
    const FORBIDDEN: [&str; 5] = [
        "thread::scope",
        "thread::spawn",
        "thread::Builder",
        "crossbeam::thread",
        "available_parallelism",
    ];
    let mut offenders = Vec::new();
    for (path, engine) in engine_sources() {
        let exempt = path.ends_with("common/src/pool.rs")
            || path.components().any(|c| c.as_os_str() == "server");
        if exempt {
            continue;
        }
        for (n, line) in engine.lines().enumerate() {
            if FORBIDDEN.iter().any(|f| line.contains(f)) {
                offenders.push(format!("{}:{}: {}", path.display(), n + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "fan out through gsj_common::pool::run_ranges instead:\n{}",
        offenders.join("\n")
    );
}

/// The engine has one `unsafe` block: the call into the AVX2 compile of
/// the `Mρ` training kernel, behind its feature detection (DESIGN.md §8,
/// "Training kernel"). Counts the keyword in code, comments aside; test
/// modules that are files of their own (`reference.rs`) are scanned too,
/// so they stay safe code as well.
#[test]
fn exactly_one_unsafe_block() {
    let mut found = Vec::new();
    for (path, engine) in engine_sources() {
        for (n, line) in engine.lines().enumerate() {
            let code = line.split("//").next().unwrap();
            for _ in code.matches("unsafe") {
                found.push(format!("{}:{}: {}", path.display(), n + 1, line.trim()));
            }
        }
    }
    assert!(
        found.len() == 1 && found[0].contains("nn/src/lm.rs"),
        "expected the one `unsafe` of crates/nn/src/lm.rs, found:\n{}",
        found.join("\n")
    );
}

/// Cancelling the governor from another thread mid-parallel-probe trips
/// promptly: later morsels observe the flag at their `check` and the
/// pool surfaces `Cancelled`, rather than running the probe to
/// completion first.
#[test]
fn cross_thread_cancel_trips_parallel_probe() {
    // 1M probe rows ≈ 245 morsels at the default morsel size, on the
    // generic multi-key probe path (two join columns) so each morsel
    // costs real work and the whole probe spans many scheduler quanta —
    // a runnable canceller thread is guaranteed CPU time mid-probe even
    // on a single-core host. The canceller waits for the first morsel's
    // memory charge (the handshake that the probe is genuinely in
    // flight), then cancels; at most the in-flight morsels can finish,
    // so hundreds of pending morsels must hit the raised flag.
    let mut l = Relation::empty(Schema::of("big_l", &["k1", "k2", "a"]));
    for i in 0..1_000_000i64 {
        l.push_values(vec![Value::Int(5), Value::Int(i % 89), Value::Int(i)])
            .unwrap();
    }
    let mut r = Relation::empty(Schema::of("big_r", &["k1", "k2", "b"]));
    for j in 0..89i64 {
        r.push_values(vec![Value::Int(5), Value::Int(j), Value::Int(j)])
            .unwrap();
    }
    let gov = QueryGovernor::builder().mem_budget(u64::MAX).build();
    let res = std::thread::scope(|s| {
        let g2 = gov.clone();
        s.spawn(move || {
            while g2.mem_charged() == 0 {
                std::thread::yield_now();
            }
            g2.cancel();
        });
        pool::with_threads(2, || natural_join(&l, &r, &gov))
    });
    assert!(
        matches!(res, Err(GsjError::Cancelled)),
        "expected the parallel probe to observe the cross-thread cancel, got {res:?}"
    );
}
