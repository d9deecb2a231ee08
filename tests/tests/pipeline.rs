//! End-to-end pipeline tests: build a collection, train, match, discover,
//! extract, join — and verify recovery quality against ground truth
//! (the Exp-2 protocol at test scale).

use gsj_core::join::enrichment_join_precomputed;
use gsj_core::quality::f_measure;
use gsj_core::rext::Rext;
use gsj_her::her_match;
use gsj_server::serving_rext_config;
use gsj_tests::{guided_rext_config, tiny};

fn recover_f1(collection: &str, guided: bool) -> f64 {
    let col = tiny(collection);
    let cfg = if guided {
        guided_rext_config()
    } else {
        serving_rext_config()
    };
    let rext = Rext::train(&col.graph, cfg).unwrap();
    let matches = her_match(&col.graph, col.entity_relation(), &col.her_config()).unwrap();
    let kws = col.spec.reference_keywords();
    let disc = rext
        .discover(
            &col.graph,
            &matches,
            Some((col.entity_relation(), &col.spec.id_attr)),
            &kws,
            "h_x",
        )
        .unwrap();
    let dg = rext.extract(&col.graph, &matches, &disc).unwrap();
    let predicted = enrichment_join_precomputed(
        col.entity_relation(),
        &col.spec.id_attr,
        &matches,
        &dg,
        None,
    )
    .unwrap();
    let pairs: Vec<(String, String)> = kws
        .iter()
        .filter(|k| predicted.schema().contains(k.as_str()))
        .map(|k| (k.clone(), k.clone()))
        .collect();
    if pairs.is_empty() {
        return 0.0;
    }
    f_measure(&predicted, &col.truth, &col.spec.id_attr, &pairs)
        .unwrap()
        .f1
}

#[test]
fn her_matches_every_entity_on_all_collections() {
    for name in gsj_datagen::collections::ALL {
        let col = tiny(name);
        let matches = her_match(&col.graph, col.entity_relation(), &col.her_config()).unwrap();
        let ratio = matches.len() as f64 / col.entity_relation().len() as f64;
        assert!(ratio > 0.95, "{name}: HER matched only {ratio:.2}");
        // And matches must point at the actual entity vertices.
        let correct = matches
            .pairs()
            .iter()
            .filter(|(tid, vid)| {
                let idx: usize = tid
                    .as_str()
                    .and_then(|s| s.trim_start_matches(&col.spec.id_prefix).parse().ok())
                    .unwrap_or(usize::MAX);
                col.entity_vertices.get(idx) == Some(vid)
            })
            .count();
        assert!(
            correct as f64 / matches.len() as f64 > 0.9,
            "{name}: HER precision too low ({correct}/{})",
            matches.len()
        );
    }
}

#[test]
fn guided_recovery_beats_threshold_on_drugs() {
    let f1 = recover_f1("Drugs", true);
    assert!(f1 > 0.8, "Drugs guided F1 = {f1:.3}");
}

#[test]
fn guided_recovery_beats_threshold_on_celebrity() {
    let f1 = recover_f1("Celebrity", true);
    assert!(f1 > 0.7, "Celebrity guided F1 = {f1:.3}");
}

#[test]
fn random_paths_still_recover_something_on_movie() {
    // RndPath is the weak baseline: it must work, just not as well.
    let f1 = recover_f1("Movie", false);
    assert!(f1 > 0.3, "Movie RndPath F1 = {f1:.3}");
}

#[test]
fn typed_extraction_covers_entity_type() {
    let col = tiny("Drugs");
    let rext = Rext::train(&col.graph, serving_rext_config()).unwrap();
    let typed = gsj_core::typed::extract_typed(
        &col.graph,
        &rext,
        &gsj_core::typed::TypedConfig {
            default_keywords: col.spec.reference_keywords(),
            ..Default::default()
        },
    )
    .unwrap();
    let tr = typed.get("Drug").expect("Drug type extracted");
    assert_eq!(tr.relation.len(), col.entity_relation().len());
    assert!(tr.relation.schema().contains("vid"));
}

#[test]
fn profile_materializes_all_pieces() {
    let col = tiny("Movie");
    let rext = Rext::train(&col.graph, serving_rext_config()).unwrap();
    let profile = gsj_core::profile::GraphProfile::build(
        &col.graph,
        &col.db,
        vec![col.relation_spec()],
        &rext,
        &col.her_config(),
        Some(&gsj_core::typed::TypedConfig::default()),
    )
    .unwrap();
    let e = profile.extraction(&col.spec.rel_name).unwrap();
    assert_eq!(e.matches.len(), col.entity_relation().len());
    // D_G has one row per *distinct* matched vertex (several tuples may
    // resolve to one vertex when HER confuses similar names).
    let distinct_vids: std::collections::HashSet<_> = e.matches.vertices().collect();
    assert_eq!(e.dg.len(), distinct_vids.len());
    assert!(e.dg.len() as f64 >= 0.9 * col.entity_relation().len() as f64);
    assert!(profile.covers(&col.spec.rel_name, &col.spec.reference_keywords()));
    assert!(profile.materialized_bytes() > 0);
}
