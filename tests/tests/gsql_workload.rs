//! The full 36-query gSQL workload against all six collections, under all
//! three execution strategies — the integration backbone of Exp-2(II) and
//! Exp-3.

use gsj_core::gsql::exec::{GsqlEngine, Strategy};
use gsj_core::rext::Rext;
use gsj_datagen::queries::{composition, workload};
use gsj_datagen::Collection;
use gsj_server::engine_for_collection;
use gsj_tests::tiny;
use std::sync::Arc;

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
        let engine = engine_for_collection(&col).unwrap();
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
        let engine = engine_for_collection(&col).unwrap();
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
    let engine = engine_for_collection(&col).unwrap();
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
    let engine = engine_for_collection(&col).unwrap();
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
    let engine = engine_for_collection(&col).unwrap();
    let q = workload(&col).into_iter().find(|q| q.link).unwrap();
    let opt = engine.run(&q.text, Strategy::Optimized).unwrap();
    let base = engine.run(&q.text, Strategy::Baseline).unwrap();
    assert_eq!(opt.len(), base.len(), "{}", q.name);
}

#[test]
fn q1_of_the_paper_round_trips() {
    // The exact Q1 shape from Section I over the Movie collection.
    let col = tiny("Movie");
    let engine = engine_for_collection(&col).unwrap();
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
    let engine = engine_for_collection(&col).unwrap();
    let q = "select efficacy, count(*) as n from drug e-join G <efficacy> as T";
    let r = engine.run(q, Strategy::Optimized).unwrap();
    assert!(!r.is_empty());
    let total: i64 = (0..r.len())
        .map(|i| r.value_at(i, 1).as_int().unwrap_or(0))
        .sum();
    assert_eq!(total as usize, col.entity_relation().len());
}

/// Row count and FNV-1a hash of the sorted rows of every workload query
/// under `Strategy::Baseline` (HER, pattern discovery and extraction at
/// query time), as returned at the commit before those three were
/// rewritten to compute per distinct input (issue 19). That rewrite
/// claims to preserve every output bit; a change to the HER matcher, the
/// path embedding, K-means or the ranking that moves a row here did not.
const BASELINE_ROWS: &[(&str, usize, u64)] = &[
    ("Drugs-q1", 1, 0x9cff8bd9abdbccda),
    ("Drugs-q2", 31, 0x0a189243286ed1b3),
    ("Drugs-q3", 8, 0x2528ee3481b146c8),
    ("Drugs-q4", 9, 0x5d087b65dd4b5174),
    ("Drugs-q5", 5, 0x7c3a823b8ae3740a),
    ("Drugs-q6", 39, 0x77706725eaf9721c),
    ("FakeNews-q1", 1, 0xd17d12406de7b52d),
    ("FakeNews-q2", 107, 0xdc18fbf813258c6b),
    ("FakeNews-q3", 12, 0x502634156f06125b),
    ("FakeNews-q4", 13, 0x2cbbdefbdb0f3916),
    ("FakeNews-q5", 11, 0x712c0f6a6fc6158f),
    ("FakeNews-q6", 119, 0xa5c02ba7cbc70bbd),
    ("Movie-q1", 1, 0x0a951e5f68637550),
    ("Movie-q2", 195, 0x7f0a68cd0efc45ed),
    ("Movie-q3", 4, 0x33eddf4017f291e4),
    ("Movie-q4", 29, 0xa35f662613ae7e34),
    ("Movie-q5", 48, 0xbffb115c54a0342a),
    ("Movie-q6", 199, 0x88545f84ec4122e4),
    ("MovKB-q1", 1, 0x7159a32b4a3fa574),
    ("MovKB-q2", 196, 0x5faa09901412650c),
    ("MovKB-q3", 3, 0x7d0aebaec99aeeb1),
    ("MovKB-q4", 26, 0xd37b2e88f121c735),
    ("MovKB-q5", 48, 0x8aa75384e6395302),
    ("MovKB-q6", 199, 0xaabecf2f53692b4b),
    ("Paper-q1", 1, 0xd64880d1ce471b54),
    ("Paper-q2", 157, 0x2496c1c8efa74d79),
    ("Paper-q3", 2, 0xe788718593aba129),
    ("Paper-q4", 10, 0x3938dc99055a76f2),
    ("Paper-q5", 40, 0x11cd06f0c4ff7278),
    ("Paper-q6", 159, 0xb9802deb7706efb9),
    ("Celebrity-q1", 1, 0x0bdbffbbe77a87b0),
    ("Celebrity-q2", 70, 0x3dbb178f585a2856),
    ("Celebrity-q3", 9, 0xcc265187ceff8d9e),
    ("Celebrity-q4", 43, 0xabca605656bc833d),
    ("Celebrity-q5", 9, 0x9618c0c5b7122936),
    ("Celebrity-q6", 79, 0x67f376ec98cfa747),
];

fn fingerprint(rel: &gsj_relational::Relation) -> (usize, u64) {
    let mut rows: Vec<String> = rel.rows().map(|t| format!("{t:?}")).collect();
    rows.sort();
    let hash = rows
        .iter()
        .flat_map(|r| r.bytes().chain([b'\n']))
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    (rows.len(), hash)
}

#[test]
fn baseline_strategy_returns_the_recorded_row_multisets() {
    let mut actual: Vec<(String, usize, u64)> = Vec::new();
    for name in gsj_datagen::collections::ALL {
        let col = tiny(name);
        let engine = engine_for_collection(&col).unwrap();
        for q in workload(&col) {
            let rel = engine.run(&q.text, Strategy::Baseline).unwrap();
            let (rows, hash) = fingerprint(&rel);
            actual.push((q.name, rows, hash));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, rows, hash)| format!("    ({name:?}, {rows}, {hash:#018x}),\n"))
        .collect();
    assert_eq!(actual.len(), 36);
    assert!(
        actual
            .iter()
            .map(|(n, r, h)| (n.as_str(), *r, *h))
            .eq(BASELINE_ROWS.iter().copied()),
        "Baseline rows moved; this run returned:\n{table}"
    );
}

/// `Collection::engine` is the one place set-up is written down; the
/// server's `engine_for_collection` must be that recipe under the
/// serving configuration — same answers (or the same refusal) for the
/// whole workload under every strategy.
#[test]
fn the_collection_recipe_is_the_served_engine() {
    let col = tiny("Celebrity");
    let served = engine_for_collection(&col).unwrap();
    let rext = Rext::train(&col.graph, gsj_server::serving_rext_config()).unwrap();
    let recipe = col.engine(Arc::new(rext)).unwrap();
    let answer = |engine: &GsqlEngine, text: &str, strategy| {
        engine
            .run(text, strategy)
            .map(|rel| rel.rows().map(|t| format!("{t:?}")).collect::<Vec<_>>())
            .map_err(|e| e.to_string())
    };
    let queries = workload(&col);
    assert_eq!(queries.len(), 6);
    for q in &queries {
        for strategy in [Strategy::Baseline, Strategy::Optimized, Strategy::Heuristic] {
            let (ours, theirs) = (
                answer(&recipe, &q.text, strategy),
                answer(&served, &q.text, strategy),
            );
            // Under `GSJ_FAULTS` the two engines draw different faults
            // and may degrade differently.
            if !gsj_faults::enabled() {
                assert_eq!(ours, theirs, "{} under {strategy:?}", q.name);
            }
        }
    }
}
