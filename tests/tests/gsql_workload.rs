//! The full 36-query gSQL workload against all six collections, under all
//! three execution strategies — the integration backbone of Exp-2(II) and
//! Exp-3.

use gsj_core::gsql::exec::{GsqlEngine, Strategy};
use gsj_core::profile::GraphProfile;
use gsj_core::rext::Rext;
use gsj_core::typed::TypedConfig;
use gsj_datagen::queries::{composition, workload};
use gsj_datagen::Collection;
use gsj_tests::{fast_rext_config, tiny};
use std::sync::Arc;

fn engine_for(col: &Collection) -> GsqlEngine {
    let rext = Arc::new(Rext::train(&col.graph, fast_rext_config()).unwrap());
    let mut engine = GsqlEngine::new(col.db.clone());
    engine.set_id_attr(&col.spec.rel_name, &col.spec.id_attr);
    engine.set_her_config(col.her_config());
    let typed_cfg = TypedConfig {
        default_keywords: col.spec.reference_keywords(),
        ..TypedConfig::default()
    };
    let profile = GraphProfile::build(
        &col.graph,
        &engine.db,
        vec![col.relation_spec()],
        &rext,
        &col.her_config(),
        Some(&typed_cfg),
    )
    .unwrap();
    engine.add_graph("G", col.graph.clone());
    engine.set_rext("G", rext);
    engine.set_profile("G", profile);
    engine.set_k(2);
    engine
}

#[test]
fn workload_composition_matches_spec() {
    let cols: Vec<Collection> = gsj_datagen::collections::ALL
        .iter()
        .map(|n| tiny(n))
        .collect();
    let all: Vec<_> = cols.iter().flat_map(workload).collect();
    let c = composition(&all);
    assert_eq!(c.total, 36);
    assert!(c.enrichment >= 30);
    assert!(c.link >= 4);
    assert!(c.dynamic >= 4);
    assert!(c.negation >= 17);
    assert!(c.aggregation >= 4);
}

#[test]
fn all_queries_execute_under_optimized_strategy() {
    for name in gsj_datagen::collections::ALL {
        let col = tiny(name);
        let engine = engine_for(&col);
        for q in workload(&col) {
            let r = engine.run(&q.text, Strategy::Optimized);
            assert!(r.is_ok(), "{}: {:?}\n{}", q.name, r.err(), q.text);
        }
    }
}

#[test]
fn most_workload_queries_are_well_behaved() {
    // The paper finds 32/36 well-behaved; our workload keywords all come
    // from A_R, so every query that traces to a base relation qualifies.
    let mut well = 0usize;
    let mut total = 0usize;
    for name in gsj_datagen::collections::ALL {
        let col = tiny(name);
        let engine = engine_for(&col);
        for q in workload(&col) {
            total += 1;
            if engine.is_well_behaved(&engine.parse(&q.text).unwrap()) {
                well += 1;
            }
        }
    }
    assert_eq!(total, 36);
    assert!(well >= 30, "only {well}/36 well-behaved");
}

#[test]
fn baseline_and_optimized_agree_on_static_enrichment() {
    // For q1 (static enrichment with id selection) the optimized rewrite
    // must return exactly what the conceptual baseline returns, given the
    // same extraction scheme.
    let col = tiny("Movie");
    let engine = engine_for(&col);
    let q = &workload(&col)[0];
    let opt = engine.run(&q.text, Strategy::Optimized).unwrap();
    let base = engine.run(&q.text, Strategy::Baseline).unwrap();
    assert_eq!(opt.len(), base.len(), "{}", q.name);
    // Cell-level agreement on the id and first keyword columns.
    let mut opt_rows: Vec<String> = opt.rows().map(|t| format!("{t:?}")).collect();
    let mut base_rows: Vec<String> = base.rows().map(|t| format!("{t:?}")).collect();
    opt_rows.sort();
    base_rows.sort();
    assert_eq!(opt_rows, base_rows);
}

#[test]
fn heuristic_strategy_answers_every_enrichment_query() {
    let col = tiny("Drugs");
    let engine = engine_for(&col);
    for q in workload(&col) {
        if q.link {
            continue;
        }
        let r = engine.run(&q.text, Strategy::Heuristic);
        assert!(r.is_ok(), "{}: {:?}", q.name, r.err());
    }
}

#[test]
fn link_join_strategies_agree() {
    let col = tiny("Celebrity");
    let engine = engine_for(&col);
    let q = workload(&col).into_iter().find(|q| q.link).unwrap();
    let opt = engine.run(&q.text, Strategy::Optimized).unwrap();
    let base = engine.run(&q.text, Strategy::Baseline).unwrap();
    assert_eq!(opt.len(), base.len(), "{}", q.name);
}

#[test]
fn q1_of_the_paper_round_trips() {
    // The exact Q1 shape from Section I over the Movie collection.
    let col = tiny("Movie");
    let engine = engine_for(&col);
    let id = col.id_of(0);
    let q = format!(
        "select name, director, country from movie e-join G <director, country> as T \
         where T.mid = {id}"
    );
    let r = engine.run(&q, Strategy::Optimized).unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(
        r.schema().attrs(),
        &[
            "name".to_string(),
            "director".to_string(),
            "country".to_string()
        ]
    );
    // The director matches ground truth.
    assert_eq!(r.value_at(0, 1), col.truth.value_at(0, 1));
}

#[test]
fn aggregation_query_counts_by_extracted_attribute() {
    let col = tiny("Drugs");
    let engine = engine_for(&col);
    let q = "select efficacy, count(*) as n from drug e-join G <efficacy> as T";
    let r = engine.run(q, Strategy::Optimized).unwrap();
    assert!(!r.is_empty());
    let total: i64 = (0..r.len())
        .map(|i| r.value_at(i, 1).as_int().unwrap_or(0))
        .sum();
    assert_eq!(total as usize, col.entity_relation().len());
}
