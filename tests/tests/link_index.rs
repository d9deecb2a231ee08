//! Link joins over the shared `g_L` reachability index with selections
//! pushed below the join: the pushed-down plan must return what the
//! un-pushed one does, the index and the link joins built on it must
//! agree with per-pair BFS, and one
//! index per `(graph, lbase, rbase, k)` must serve every selection until
//! IncExt commits a new extraction.

use gsj_common::{pool, FxHashMap, QueryGovernor, Value};
use gsj_core::discover::Discovery;
use gsj_core::gsql::exec::Strategy;
use gsj_core::heuristic::{heuristic_link, typed_store};
use gsj_core::incext::inc_update_graph;
use gsj_core::join::{connectivity_relation, link_join_with_matches, LinkIndex};
use gsj_core::rext::Rext;
use gsj_core::typed::TypedRelation;
use gsj_datagen::queries::workload;
use gsj_datagen::updates::balanced_updates;
use gsj_datagen::Collection;
use gsj_graph::traversal::{k_hop_set, within_k_hops};
use gsj_graph::update::apply_updates;
use gsj_graph::{GraphUpdate, LabeledGraph, VertexId};
use gsj_her::relation_er::ErConfig;
use gsj_her::MatchRelation;
use gsj_relational::physical::{filter_rel, ExecContext};
use gsj_relational::{Relation, Schema};
use gsj_server::{engine_for_collection, serving_rext_config};
use gsj_tests::{counter, tiny};
use proptest::prelude::*;
use std::sync::Arc;

const K: usize = 2;

/// Sorted rendered rows: the row multiset of a relation.
fn row_multiset(rel: &Relation) -> Vec<String> {
    let mut rows: Vec<String> = rel.rows().map(|t| format!("{t:?}")).collect();
    rows.sort();
    rows
}

/// `q6` and the Q3-form (left side a selected sub-query) of a collection:
/// each as (FROM part, link predicate with quoted constants).
fn link_queries(col: &Collection) -> Vec<(String, String)> {
    let (rel, id) = (&col.spec.rel_name, &col.spec.id_attr);
    let (extra_attr, _, _) = &col.spec.extra_attrs[0];
    let extra_val = col.entity_relation().column(extra_attr).unwrap()[0].to_string();
    let cond = format!(
        "{rel}.{id} = '{}' and not {rel}B.{id} = '{}'",
        col.id_of(0),
        col.id_of(1)
    );
    let q6_from = format!("select * from {rel} l-join <G> {rel} as {rel}B");
    let q6 = &workload(col)[5].text;
    assert!(q6.starts_with(&q6_from), "{q6}");
    vec![
        (q6_from, cond.clone()),
        (
            format!(
                "select * from (select * from {rel} where {extra_attr} = '{extra_val}') \
                 l-join <G> {rel} as {rel}B"
            ),
            cond,
        ),
    ]
}

#[test]
fn pushed_down_link_joins_equal_the_unpushed_reference() {
    for name in gsj_datagen::collections::ALL {
        let col = tiny(name);
        let engine = engine_for_collection(&col).unwrap();
        let (rel_name, id) = (&col.spec.rel_name, &col.spec.id_attr);
        for (from, cond) in link_queries(&col) {
            let pushed = format!("{from} where {cond}");
            let pred = engine.parse(&pushed).unwrap().where_clause.unwrap();
            // Optimized ≡ Baseline too: one expected multiset per query.
            let mut expected: Option<Vec<String>> = None;
            for strategy in [Strategy::Baseline, Strategy::Optimized] {
                for threads in [1, 8] {
                    pool::with_threads(threads, || {
                        let all = engine.run(&from, strategy).unwrap();
                        let reference =
                            filter_rel(all, &pred, "reference", &mut ExecContext::new()).unwrap();
                        let (rel, ctx) = engine
                            .run_query_stats(&engine.parse(&pushed).unwrap(), strategy)
                            .unwrap();
                        assert_eq!(
                            row_multiset(&rel),
                            row_multiset(&reference),
                            "{name} {strategy:?} threads={threads}: {pushed}"
                        );
                        assert_eq!(
                            expected.get_or_insert_with(|| row_multiset(&rel)),
                            &row_multiset(&rel),
                            "{name} {strategy:?} threads={threads}: {pushed}"
                        );
                        // Both conjuncts ran below the join, nothing above it.
                        let ops = ctx.ops();
                        let ljoin = ops.iter().position(|o| o.label.starts_with("LJoin("));
                        for side in [rel_name.to_string(), format!("{rel_name}B")] {
                            let pushed = ops
                                .iter()
                                .find(|o| o.label == format!("Filter({side}.{id})"))
                                .unwrap_or_else(|| panic!("{name}: {}", ctx.render()));
                            assert_eq!(pushed.parent, ljoin, "{name}: {}", ctx.render());
                        }
                        assert!(
                            !ops.iter()
                                .any(|o| o.label.starts_with("Filter") && o.parent.is_none()),
                            "{name}: {}",
                            ctx.render()
                        );
                    });
                }
            }
        }
    }
}

#[test]
fn distinct_selections_share_one_index() {
    // The per-selection cache this replaces kept one full relation per
    // distinct selected vertex set, keyed by an unverified 64-bit hash.
    let col = tiny("Celebrity");
    let engine = engine_for_collection(&col).unwrap();
    let (rel, id) = (&col.spec.rel_name, &col.spec.id_attr);
    let n = col.spec.entities;
    let profile = engine.profile("G").unwrap();
    let (mut bytes, mut index) = (None, None);
    for i in 0..500 {
        let q = format!(
            "select * from {rel} l-join <G> {rel} as {rel}B \
             where {rel}.{id} = {} and not {rel}B.{id} = {}",
            col.id_of(i % n),
            col.id_of((i / n + i + 1) % n)
        );
        engine.run(&q, Strategy::Optimized).unwrap();
        // (An injected `gsql.ljoin` fault may send a run down the online
        // path, which neither reads nor builds the index.)
        let Some(held) = profile.link_index(rel, rel, K) else {
            continue;
        };
        assert_eq!(profile.link_index_count(), 1);
        assert_eq!(
            *bytes.get_or_insert(profile.materialized_bytes()),
            profile.materialized_bytes(),
            "materialized_bytes grew at query {i}"
        );
        // Same contents every time; the same allocation unless an
        // injected `gsql.gl_cache` fault forced a rebuild.
        let first = index.get_or_insert_with(|| held.clone());
        assert_eq!(**first, *held);
        if !gsj_faults::enabled() {
            assert!(Arc::ptr_eq(first, &held));
        }
    }
    assert_eq!(profile.link_index_count(), 1);
}

#[test]
fn incext_commit_invalidates_the_index() {
    let col = tiny("Celebrity");
    let rext = Arc::new(Rext::train(&col.graph, serving_rext_config()).unwrap());
    let mut engine = col.engine(Arc::clone(&rext)).unwrap();
    let rel = col.spec.rel_name.clone();
    let q6 = workload(&col)[5].text.clone();
    engine.run(&q6, Strategy::Optimized).unwrap();

    // ΔG through IncExt, committed the way a serving process does it.
    let ups = balanced_updates(engine.graph("G").unwrap(), 0.10, 99);
    assert!(!ups.is_empty());
    let report = apply_updates(engine.graph_mut("G").unwrap(), &ups);
    let next = inc_update_graph(
        &rext,
        engine.graph("G").unwrap(),
        engine.db.get(&rel).unwrap(),
        &col.her_config(),
        engine.profile("G").unwrap().extraction(&rel).unwrap(),
        &report,
    )
    .unwrap();
    engine
        .profile_mut("G")
        .unwrap()
        .set_extraction(&rel, next.clone());
    assert_eq!(engine.profile("G").unwrap().link_index_count(), 0);

    let misses = counter("gsj_core_gl_cache_misses_total");
    let opt = engine.run(&q6, Strategy::Optimized).unwrap();
    if !gsj_faults::enabled() {
        assert!(counter("gsj_core_gl_cache_misses_total") > misses);
        assert_eq!(engine.profile("G").unwrap().link_index_count(), 1);
    }
    // The rebuilt index reflects the updated graph and matches: the
    // un-selected join equals per-pair BFS over the new `f(D,G)`.
    let base = engine.run(&q6, Strategy::Baseline).unwrap();
    assert_eq!(row_multiset(&opt), row_multiset(&base));
    let all = format!("select * from {rel} l-join <G> {rel} as {rel}B");
    let joined = engine.run(&all, Strategy::Optimized).unwrap();
    let matched: Vec<VertexId> = next.matches.vertices().collect();
    let g = engine.graph("G").unwrap();
    let expected = matched
        .iter()
        .flat_map(|&u| matched.iter().map(move |&v| (u, v)))
        .filter(|&(u, v)| within_k_hops(g, u, v, K))
        .count();
    assert_eq!(joined.len(), expected);
}

/// `connectivity_relation` as it was defined before the per-source
/// expansion: one bidirectional BFS per pair, left-major.
fn connectivity_by_pair_bfs(
    g: &LabeledGraph,
    left: &[VertexId],
    right: &[VertexId],
    k: usize,
) -> Vec<(i64, i64)> {
    let mut rows = Vec::new();
    for &u in left {
        for &v in right {
            if within_k_hops(g, u, v, k) {
                rows.push((u.0 as i64, v.0 as i64));
            }
        }
    }
    rows
}

/// One row `(id, name)` per entry of `rows`, the id being the row number
/// and the name that of the row's vertex (`nobody` for an unmatched row);
/// plus the match relation id → vertex over the matched rows.
fn resolved_side(alias: &str, rows: &[Option<VertexId>]) -> (Relation, MatchRelation) {
    let attrs = vec![format!("{alias}.id"), format!("{alias}.name")];
    let mut rel = Relation::empty(Schema::new(alias.to_string(), attrs).unwrap());
    let mut matches = MatchRelation::new();
    for (i, v) in rows.iter().enumerate() {
        let name = v.map_or("nobody".to_string(), |v| format!("vx{}", v.0));
        rel.push_values(vec![Value::Int(i as i64), Value::str(name)])
            .unwrap();
        if let Some(v) = v {
            matches.push(Value::Int(i as i64), *v);
        }
    }
    (rel, matches)
}

/// A typed store on which tuple ER is the identity of [`resolved_side`]:
/// one `(vid, name)` row per vertex, dead ones included.
fn identity_typed_store(vs: &[VertexId]) -> FxHashMap<String, TypedRelation> {
    let mut relation = Relation::empty(Schema::of("g_thing", &["vid", "name"]));
    for v in vs {
        relation
            .push_values(vec![
                Value::Int(v.0 as i64),
                Value::str(format!("vx{}", v.0)),
            ])
            .unwrap();
    }
    typed_store(vec![TypedRelation {
        ty: "thing".into(),
        discovery: Discovery {
            clusters: vec![],
            schema: relation.schema().clone(),
            refined: vec![],
            paths: Default::default(),
            keyword_embs: vec![],
            total_paths: 0,
            word_dim: 0,
        },
        relation,
    }])
}

/// The index as the per-source build made it: per distinct source, its
/// `k_hop_set` filtered to the distinct targets, ascending.
fn per_source_rows(
    g: &LabeledGraph,
    left: &[VertexId],
    right: &[VertexId],
    k: usize,
) -> Vec<(VertexId, Vec<VertexId>)> {
    let distinct = |vs: &[VertexId]| -> Vec<VertexId> {
        let mut vs = vs.to_vec();
        vs.sort();
        vs.dedup();
        vs
    };
    let targets = distinct(right);
    distinct(left)
        .into_iter()
        .map(|s| {
            let ball = k_hop_set(g, s, k);
            (
                s,
                targets
                    .iter()
                    .copied()
                    .filter(|t| ball.contains(t))
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `LinkIndex::build` ≡ the per-source build, and
    /// `connectivity_relation` ≡ its per-pair definition, across the
    /// 64-source lane boundaries of the multi-source BFS: 0–150 distinct
    /// sources (0 to 3 batches; exactly 0, 1, 64 and 65 forced) listed
    /// with duplicates, targets that are and are not sources, a removed
    /// source and a removed target, `k` 0–4.
    #[test]
    fn link_index_equals_the_per_source_build_across_lanes(
        n in 60usize..201,
        edges in prop::collection::vec((0usize..200, 0usize..200), 30..400),
        // 0–3: exactly 0, 1, 64 or 65 distinct sources from `offset` on,
        // repeated per `picks`; otherwise the sources are `picks` itself.
        shape in 0usize..8,
        offset in 0usize..200,
        picks in prop::collection::vec(0usize..200, 0..151),
        right in prop::collection::vec(0usize..200, 0..151),
        k in 0usize..5,
    ) {
        let mut g = LabeledGraph::new();
        let vs: Vec<VertexId> = (0..n).map(|i| g.add_vertex(&format!("v{i}"))).collect();
        for (a, b) in edges {
            g.add_edge(vs[a % n], "e", vs[b % n]);
        }
        let left: Vec<VertexId> = match [0, 1, 64, 65].get(shape) {
            Some(&c) => {
                let c = c.min(n);
                let set: Vec<VertexId> = (0..c).map(|i| vs[(offset + i) % n]).collect();
                let dups = picks.iter().take(40).filter_map(|p| set.get(p % c.max(1)));
                set.iter().chain(dups).copied().collect()
            }
            None => picks.iter().map(|p| vs[p % n]).collect(),
        };
        let right: Vec<VertexId> = right.iter().map(|p| vs[p % n]).collect();
        for dead in [left.first(), right.last()].into_iter().flatten() {
            apply_updates(&mut g, &[GraphUpdate::RemoveVertex(*dead)]);
        }
        let gov = QueryGovernor::unlimited();

        let index = LinkIndex::build(&g, &left, &right, k, &gov).unwrap();
        let rows = per_source_rows(&g, &left, &right, k);
        for &v in &vs {
            let expected = rows.iter().find(|(s, _)| *s == v).map_or(&[][..], |(_, r)| r.as_slice());
            prop_assert_eq!(index.reachable(v), expected, "v={} k={}", v, k);
        }
        prop_assert_eq!(index.pairs(), rows.iter().map(|(_, r)| r.len()).sum::<usize>());

        let rel = connectivity_relation(&g, &left, &right, k, "g_l", &gov).unwrap();
        let rows: Vec<(i64, i64)> = (0..rel.len())
            .map(|i| {
                (rel.value_at(i, 0).as_int().unwrap(), rel.value_at(i, 1).as_int().unwrap())
            })
            .collect();
        prop_assert_eq!(rows, connectivity_by_pair_bfs(&g, &left, &right, k));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Index membership ≡ `within_k_hops`, `connectivity_relation` ≡ its
    /// per-pair definition, and both index-building link joins ≡ the
    /// per-pair double loop — same rows in the same left-major,
    /// right-ascending order — on random graphs with a dead vertex,
    /// duplicate vertices and unmatched rows on both sides.
    #[test]
    fn link_index_agrees_with_pairwise_bfs(
        edges in prop::collection::vec((0u32..14, 0u32..14), 0..40),
        // 14 and 15 = a row no vertex matches.
        left in prop::collection::vec(0u32..16, 0..10),
        right in prop::collection::vec(0u32..16, 0..10),
        // 14 = no dead vertex.
        dead in 0u32..15,
        k in 0usize..4,
    ) {
        let mut g = LabeledGraph::new();
        let vs: Vec<VertexId> = (0..14).map(|i| g.add_vertex(&format!("v{i}"))).collect();
        for (a, b) in edges {
            g.add_edge(vs[a as usize], "e", vs[b as usize]);
        }
        if let Some(&d) = vs.get(dead as usize) {
            apply_updates(&mut g, &[GraphUpdate::RemoveVertex(d)]);
        }
        let left_rows: Vec<Option<VertexId>> =
            left.into_iter().map(|i| vs.get(i as usize).copied()).collect();
        let right_rows: Vec<Option<VertexId>> =
            right.into_iter().map(|i| vs.get(i as usize).copied()).collect();
        let left: Vec<VertexId> = left_rows.iter().flatten().copied().collect();
        let right: Vec<VertexId> = right_rows.iter().flatten().copied().collect();
        let gov = QueryGovernor::unlimited();

        let index = LinkIndex::build(&g, &left, &right, k, &gov).unwrap();
        for &u in &left {
            let reachable = index.reachable(u);
            prop_assert!(reachable.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            for &v in &right {
                prop_assert_eq!(reachable.contains(&v), within_k_hops(&g, u, v, k));
            }
            prop_assert!(reachable.iter().all(|v| right.contains(v)));
        }

        let rel = connectivity_relation(&g, &left, &right, k, "g_l", &gov).unwrap();
        let rows: Vec<(i64, i64)> = (0..rel.len())
            .map(|i| {
                (rel.value_at(i, 0).as_int().unwrap(), rel.value_at(i, 1).as_int().unwrap())
            })
            .collect();
        prop_assert_eq!(rows, connectivity_by_pair_bfs(&g, &left, &right, k));

        let (s1, m1) = resolved_side("a", &left_rows);
        let (s2, m2) = resolved_side("b", &right_rows);
        let mut expected = Vec::new();
        for (i, u) in left_rows.iter().enumerate() {
            for (j, v) in right_rows.iter().enumerate() {
                if let (Some(u), Some(v)) = (u, v) {
                    if within_k_hops(&g, *u, *v, k) {
                        expected.push(s1.row(i).concat(&s2.row(j)));
                    }
                }
            }
        }
        let online =
            link_join_with_matches(&s1, "a.id", &m1, &s2, "b.id", &m2, &g, k, &gov).unwrap();
        prop_assert_eq!(&online.rows().collect::<Vec<_>>(), &expected);
        let heuristic = heuristic_link(
            &s1,
            Some("a.id"),
            &s2,
            Some("b.id"),
            &identity_typed_store(&vs),
            &g,
            k,
            &ErConfig::default(),
            &gov,
        )
        .unwrap();
        prop_assert_eq!(&heuristic.rows().collect::<Vec<_>>(), &expected);
    }
}
