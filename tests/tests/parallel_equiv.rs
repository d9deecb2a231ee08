//! The fan-outs within a query — RExt's path selection and label
//! embeddings (DESIGN.md §13) — leave nothing that depends on the worker
//! count: at 2 and 8 workers the RExt pipeline returns, bit for bit, what
//! one worker (the inline path) returns, offline, under IncExt and at
//! query time; and the random-walk corpus never fans out at all.

use gsj_common::{pool, QueryGovernor};
use gsj_core::gsql::exec::Strategy;
use gsj_core::incext::inc_update_graph;
use gsj_core::rext::Rext;
use gsj_graph::random_walk::{build_corpus, WalkConfig};
use gsj_graph::update::apply_updates;
use gsj_graph::LabeledGraph;
use gsj_tests::{assert_same_discovery, tiny};
use proptest::prelude::*;
use std::sync::Arc;

/// A small random graph: 12 vertices, arbitrary directed edges.
fn graph(edges: &[(u8, u8)]) -> LabeledGraph {
    let mut g = LabeledGraph::new();
    let vs: Vec<_> = (0..12).map(|i| g.add_vertex(&format!("v{i}"))).collect();
    for &(a, b) in edges {
        g.add_edge(vs[(a % 12) as usize], "e", vs[(b % 12) as usize]);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
        let g = graph(&edges);
        let cfg = WalkConfig { walks_per_vertex: 3, max_len: 6, seed };
        let gov = QueryGovernor::unlimited();
        let seq = pool::with_threads(1, || build_corpus(&g, &cfg, &gov)).unwrap();
        for threads in [2, 8] {
            let par = pool::with_threads(threads, || build_corpus(&g, &cfg, &gov)).unwrap();
            prop_assert_eq!(&seq, &par);
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
        pool::with_threads(workers, || {
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
