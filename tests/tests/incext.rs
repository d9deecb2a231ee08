//! IncExt integration tests (Section III-B): incremental maintenance under
//! graph updates must agree with re-running RExt from scratch — "there
//! exists no accuracy loss in IncExt compared with RExt starting from
//! scratch, since pattern matching results of RExt and IncExt are the
//! same."

use gsj_common::Value;
use gsj_core::incext::{inc_update_graph, inc_update_keywords, Extraction};
use gsj_core::rext::Rext;
use gsj_datagen::updates::balanced_updates;
use gsj_graph::update::apply_updates;
use gsj_her::her_match;
use gsj_relational::Relation;
use gsj_server::serving_rext_config;
use gsj_tests::tiny;

fn initial_extraction(col: &gsj_datagen::Collection, rext: &Rext) -> Extraction {
    let matches = her_match(&col.graph, col.entity_relation(), &col.her_config()).unwrap();
    let discovery = rext
        .discover(
            &col.graph,
            &matches,
            Some((col.entity_relation(), &col.spec.id_attr)),
            &col.spec.reference_keywords(),
            "h_x",
        )
        .unwrap();
    let dg = rext.extract(&col.graph, &matches, &discovery).unwrap();
    Extraction {
        discovery,
        matches,
        dg,
    }
}

/// Sort rows for order-insensitive comparison.
fn sorted_rows(r: &Relation) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = r
        .rows()
        .map(|t| t.values().iter().map(|v| v.to_string()).collect())
        .collect();
    rows.sort();
    rows
}

#[test]
fn incext_equals_scratch_reextraction_after_updates() {
    let col = tiny("Drugs");
    let rext = Rext::train(&col.graph, serving_rext_config()).unwrap();
    let initial = initial_extraction(&col, &rext);

    let mut g = col.graph.clone();
    let ups = balanced_updates(&g, 0.10, 99);
    assert!(!ups.is_empty());
    let report = apply_updates(&mut g, &ups);

    // Incremental path.
    let inc = inc_update_graph(
        &rext,
        &g,
        col.entity_relation(),
        &col.her_config(),
        &initial,
        &report,
    )
    .unwrap();

    // Scratch path: same discovery (patterns unchanged by definition of
    // IncExt), fresh HER + extraction on the updated graph.
    let matches2 = her_match(&g, col.entity_relation(), &col.her_config()).unwrap();
    let mut scratch_disc = initial.discovery.clone();
    scratch_disc.paths.clear(); // force fresh path selection everywhere
    let dg2 = rext.extract(&g, &matches2, &scratch_disc).unwrap();

    // The match relations agree...
    let mut inc_pairs: Vec<_> = inc
        .matches
        .pairs()
        .iter()
        .map(|(t, v)| (t.to_string(), v.0))
        .collect();
    inc_pairs.sort();
    let mut scr_pairs: Vec<_> = matches2
        .pairs()
        .iter()
        .map(|(t, v)| (t.to_string(), v.0))
        .collect();
    scr_pairs.sort();
    assert_eq!(inc_pairs, scr_pairs, "IncExt match relation diverged");

    // ...and the extracted relations agree row-for-row.
    assert_eq!(
        sorted_rows(&inc.dg),
        sorted_rows(&dg2),
        "IncExt D_G diverged from scratch re-extraction"
    );
}

#[test]
fn incext_handles_vertex_removal() {
    let col = tiny("Celebrity");
    let rext = Rext::train(&col.graph, serving_rext_config()).unwrap();
    let initial = initial_extraction(&col, &rext);

    let mut g = col.graph.clone();
    // Remove an entity vertex outright.
    let victim = col.entity_vertices[3];
    let ups = vec![gsj_graph::GraphUpdate::RemoveVertex(victim)];
    let report = apply_updates(&mut g, &ups);
    let inc = inc_update_graph(
        &rext,
        &g,
        col.entity_relation(),
        &col.her_config(),
        &initial,
        &report,
    )
    .unwrap();
    // No row of D_G may reference the dead vertex.
    let vid_col = inc.dg.column("vid").unwrap();
    assert!(
        !vid_col.contains(&Value::Int(victim.0 as i64)),
        "dead vertex still present in D_G"
    );
    // The corresponding tuple is no longer matched to it.
    for (_, v) in inc.matches.pairs() {
        assert!(g.is_live(*v));
    }
}

#[test]
fn noop_update_changes_nothing() {
    let col = tiny("Movie");
    let rext = Rext::train(&col.graph, serving_rext_config()).unwrap();
    let initial = initial_extraction(&col, &rext);
    let report = gsj_graph::update::UpdateReport::default();
    let inc = inc_update_graph(
        &rext,
        &col.graph,
        col.entity_relation(),
        &col.her_config(),
        &initial,
        &report,
    )
    .unwrap();
    assert_eq!(sorted_rows(&inc.dg), sorted_rows(&initial.dg));
    assert_eq!(inc.matches.len(), initial.matches.len());
}

#[test]
fn keyword_update_reuses_surviving_columns() {
    let col = tiny("Paper");
    let rext = Rext::train(&col.graph, serving_rext_config()).unwrap();
    let initial = initial_extraction(&col, &rext);
    // Shift interest: keep "author", drop the rest, add "grant" (a noise
    // property that exists in the graph).
    let new_kws = vec!["author".to_string(), "grant".to_string()];
    let updated = inc_update_keywords(
        &rext,
        &col.graph,
        Some((col.entity_relation(), &col.spec.id_attr)),
        &initial,
        &new_kws,
    )
    .unwrap();
    assert!(updated.discovery.schema.contains("author"));
    // The surviving column is copied verbatim from the old D_G.
    let old_author = initial.dg.column("author").unwrap();
    let new_author = updated.dg.column("author").unwrap();
    assert_eq!(old_author, new_author);
    // Row count unchanged (same matches).
    assert_eq!(updated.dg.len(), initial.dg.len());
}

#[test]
fn keyword_update_extracts_new_attribute_values() {
    let col = tiny("Movie");
    let rext = Rext::train(&col.graph, serving_rext_config()).unwrap();
    let initial = initial_extraction(&col, &rext);
    // "runtime" is a noise property in the graph but absent from the
    // initial keyword set; shifting interest to it must populate values.
    let new_kws = vec!["runtime".to_string()];
    let updated = inc_update_keywords(
        &rext,
        &col.graph,
        Some((col.entity_relation(), &col.spec.id_attr)),
        &initial,
        &new_kws,
    )
    .unwrap();
    if updated.discovery.schema.contains("runtime") {
        let vals = updated.dg.column("runtime").unwrap();
        let nonnull = vals.iter().filter(|v| !v.is_null()).count();
        assert!(nonnull > 0, "new attribute extracted no values");
    } else {
        panic!(
            "runtime not selected; schema = {:?}",
            updated.discovery.schema.attrs()
        );
    }
}
