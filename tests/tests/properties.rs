//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary inputs, checked with proptest.

use gsj_common::{QueryGovernor, Value};
use gsj_graph::{LabeledGraph, Path, VertexId};
use gsj_relational::exec::natural_join;
use gsj_relational::{Relation, Schema};
use proptest::prelude::*;

fn small_relation(name: &'static str, key_vals: Vec<(i64, i64)>) -> Relation {
    let mut r = Relation::empty(Schema::of(name, &["k", name]));
    for (k, v) in key_vals {
        r.push_values(vec![Value::Int(k), Value::Int(v)]).unwrap();
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// |A ⋈ B| is symmetric in its inputs (modulo column order).
    #[test]
    fn natural_join_cardinality_is_symmetric(
        a in prop::collection::vec((0i64..8, 0i64..100), 0..20),
        b in prop::collection::vec((0i64..8, 0i64..100), 0..20),
    ) {
        let ra = small_relation("a", a);
        let rb = small_relation("b", b);
        let gov = QueryGovernor::unlimited();
        let ab = natural_join(&ra, &rb, &gov).unwrap();
        let ba = natural_join(&rb, &ra, &gov).unwrap();
        prop_assert_eq!(ab.len(), ba.len());
    }

    /// Join with an empty relation is empty.
    #[test]
    fn join_with_empty_is_empty(
        a in prop::collection::vec((0i64..8, 0i64..100), 0..20),
    ) {
        let ra = small_relation("a", a);
        let rb = small_relation("b", vec![]);
        let gov = QueryGovernor::unlimited();
        prop_assert_eq!(natural_join(&ra, &rb, &gov).unwrap().len(), 0);
    }

    /// k-hop connectivity is monotone in k.
    #[test]
    fn connectivity_is_monotone_in_k(
        edges in prop::collection::vec((0u32..12, 0u32..12), 1..30),
        k in 1usize..4,
    ) {
        let mut g = LabeledGraph::new();
        let vs: Vec<VertexId> = (0..12).map(|i| g.add_vertex(&format!("v{i}"))).collect();
        for (a, b) in edges {
            if a != b {
                g.add_edge(vs[a as usize], "e", vs[b as usize]);
            }
        }
        for &u in &vs[..4] {
            for &v in &vs[..4] {
                let near = gsj_graph::traversal::within_k_hops(&g, u, v, k);
                let far = gsj_graph::traversal::within_k_hops(&g, u, v, k + 1);
                // within k ⇒ within k+1.
                prop_assert!(!near || far, "monotonicity violated");
            }
        }
    }

    /// Path pattern matching agrees with pattern equality.
    #[test]
    fn pattern_match_is_pattern_equality(
        labels1 in prop::collection::vec(0u32..5, 1..5),
        labels2 in prop::collection::vec(0u32..5, 1..5),
    ) {
        let t = gsj_common::SymbolTable::new();
        let syms: Vec<_> = (0..5).map(|i| t.intern(&format!("l{i}"))).collect();
        let mk = |ls: &[u32], base: u32| {
            let mut p = Path::new(VertexId(base));
            for (i, &l) in ls.iter().enumerate() {
                p.push(syms[l as usize], VertexId(base + 1 + i as u32));
            }
            p
        };
        let p1 = mk(&labels1, 0);
        let p2 = mk(&labels2, 100);
        prop_assert_eq!(
            p1.matches(&p2.pattern()),
            p1.pattern() == p2.pattern()
        );
    }

    /// Majority-vote refinement never invents or loses patterns.
    #[test]
    fn refinement_preserves_pattern_set(
        assignment in prop::collection::vec(0usize..4, 1..30),
        labels in prop::collection::vec(0u32..3, 1..30),
    ) {
        let n = assignment.len().min(labels.len());
        let t = gsj_common::SymbolTable::new();
        let syms: Vec<_> = (0..3).map(|i| t.intern(&format!("e{i}"))).collect();
        let paths: Vec<Path> = labels[..n]
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let mut p = Path::new(VertexId(i as u32 * 10));
                p.push(syms[l as usize], VertexId(i as u32 * 10 + 1));
                p
            })
            .collect();
        let refined = gsj_core::discover::refine_patterns(&paths, &assignment[..n], 4);
        let mut input_patterns: Vec<_> = paths.iter().map(|p| p.pattern()).collect();
        input_patterns.sort();
        input_patterns.dedup();
        let mut output_patterns: Vec<_> = refined.iter().flatten().cloned().collect();
        output_patterns.sort();
        // Each pattern appears in exactly one cluster (no duplicates) and
        // every input pattern survives.
        let mut deduped = output_patterns.clone();
        deduped.dedup();
        prop_assert_eq!(&deduped, &output_patterns, "pattern duplicated across clusters");
        prop_assert_eq!(input_patterns, output_patterns);
    }

    /// F-measure is 1.0 when prediction equals truth, for any table.
    #[test]
    fn f_measure_identity(
        rows in prop::collection::vec((0i64..1000, "[a-z]{1,6}"), 1..20),
    ) {
        let mut r = Relation::empty(Schema::of("t", &["id", "x"]));
        let mut seen = std::collections::HashSet::new();
        for (id, x) in rows {
            if seen.insert(id) {
                r.push_values(vec![Value::Int(id), Value::str(&x)]).unwrap();
            }
        }
        let m = gsj_core::quality::f_measure(
            &r,
            &r,
            "id",
            &[("x".to_string(), "x".to_string())],
        )
        .unwrap();
        prop_assert_eq!(m.f1, 1.0);
    }

    /// The gSQL parser never panics on arbitrary ASCII input.
    #[test]
    fn parser_total_on_ascii(input in "[ -~]{0,80}") {
        let _ = gsj_core::gsql::parse_query(&input);
    }

    /// Round-trip: any query our workload generator emits parses, and the
    /// number of semantic joins is stable under re-parsing.
    #[test]
    fn lexer_total_on_ascii(input in "[ -~]{0,80}") {
        let _ = gsj_core::gsql::lexer::lex(&input);
    }
}
