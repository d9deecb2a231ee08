//! Pattern discovery shares work between paths — one embedding per
//! distinct end label / label sequence / naming pair, bit-identical points
//! clustered once. This file holds it to the *per-path* discovery: every
//! path embedded, named and compared on its own, assembled here from the
//! public pieces, on all six collections — and to itself: the discovery
//! and the `D_G` extracted from it are the same, bit for bit, at 1, 2, 3
//! and 8 path-selection workers (DESIGN.md §13).

use gsj_cluster::{kmeans, KmeansConfig};
use gsj_common::{pool, FxHashMap, FxHashSet, Value};
use gsj_core::config::RExtConfig;
use gsj_core::discover::{
    filter_link_clusters, refine_patterns, select_attributes, Discovery, NameEmbs,
};
use gsj_core::ranking::TupleAttrEmbs;
use gsj_core::rext::Rext;
use gsj_datagen::Collection;
use gsj_graph::{Path, VertexId};
use gsj_her::normalize::value_text;
use gsj_her::{her_match, MatchRelation};
use gsj_nn::lm::SequenceEmbedder;
use gsj_nn::vector::{add_assign, concat, l2_normalize, scale};
use gsj_server::serving_rext_config;
use gsj_tests::{assert_same_discovery, bits, tiny};

/// `Rext::discover` with nothing shared between paths.
fn per_path_discover(
    rext: &Rext,
    col: &Collection,
    matches: &MatchRelation,
    keywords: &[String],
) -> Discovery {
    let g = &col.graph;
    let cfg = rext.config();
    let word = rext.word_embedder();
    let seq: &dyn SequenceEmbedder = rext.language_model().expect("LSTM variant");

    let mut vertices: Vec<VertexId> = matches.vertices().collect();
    vertices.sort();
    vertices.dedup();
    let mut paths: FxHashMap<VertexId, Vec<Path>> = FxHashMap::default();
    let mut flat: Vec<Path> = Vec::new();
    for &v in &vertices {
        let selected = rext.select_paths(g, v);
        flat.extend(selected.iter().cloned());
        paths.insert(v, selected);
    }

    let features: Vec<Vec<f32>> = flat
        .iter()
        .map(|p| {
            let mut x_label = word.embed(&g.vertex_label_str(p.end()));
            l2_normalize(&mut x_label);
            let mut x_path = seq.embed_symbols(p.labels());
            l2_normalize(&mut x_path);
            concat(&x_label, &x_path)
        })
        .collect();
    let assignments = kmeans(
        &features,
        &KmeansConfig {
            k: cfg.h,
            max_iters: cfg.kmeans_iters,
            seed: cfg.seed ^ 0x2222,
            ..KmeansConfig::default()
        },
    )
    .assignments;
    let refined = refine_patterns(&flat, &assignments, cfg.h);
    let refined = if cfg.filter_same_type_ends {
        filter_link_clusters(g, refined, &flat, &cfg.type_edges)
    } else {
        refined
    };

    // One naming embedding per path, each its own "distinct" entry.
    let names = NameEmbs {
        embs: flat
            .iter()
            .map(|p| {
                let mut emb = word.embed(&g.vertex_label_str(p.end()));
                scale(&mut emb, 2.0);
                if let Some(&last) = p.labels().last() {
                    add_assign(&mut emb, &word.embed(&g.symbols().resolve(last)));
                }
                l2_normalize(&mut emb);
                emb
            })
            .collect(),
        of: (0..flat.len() as u32).collect(),
    };
    let keyword_embs: Vec<(String, Vec<f32>)> = keywords
        .iter()
        .map(|k| (k.clone(), word.embed(k)))
        .collect();
    let s = col.entity_relation();
    let id_pos = s.schema().require(&col.spec.id_attr).unwrap();
    let by_tid: FxHashMap<Value, usize> =
        (0..s.len()).map(|i| (s.value_at(i, id_pos), i)).collect();
    let mut tuple_attr_embs = TupleAttrEmbs::default();
    for (tid, vid) in matches.pairs() {
        let Some(&row) = by_tid.get(tid) else {
            continue;
        };
        let embs = (0..s.schema().arity())
            .map(|i| {
                (i != id_pos)
                    .then(|| value_text(&s.value_at(row, i)))
                    .flatten()
                    .map(|text| word.embed(&text))
            })
            .collect();
        tuple_attr_embs.insert(*vid, embs);
    }
    let (clusters, schema) = select_attributes(
        &refined,
        &flat,
        &names,
        &tuple_attr_embs,
        &keyword_embs,
        cfg.m.min(keywords.len().max(1)),
        "h_x",
    )
    .unwrap();
    Discovery {
        clusters,
        schema,
        refined,
        paths,
        keyword_embs,
        total_paths: flat.len(),
        word_dim: word.dim(),
    }
}

/// Field `key` of the one span labelled `label`.
fn field(spans: &[gsj_obs::SpanRecord], label: &str, key: &str) -> usize {
    let mut of_label = spans.iter().filter(|s| s.label == label);
    let span = of_label.next().unwrap_or_else(|| panic!("no {label} span"));
    assert!(of_label.next().is_none(), "more than one {label} span");
    let (_, value) = span
        .fields
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("{label} has no field {key}: {:?}", span.fields));
    value.parse().unwrap()
}

/// The spans say how much of the work was distinct — and the distinct
/// counts are those of the inputs, i.e. each was embedded once.
fn assert_spans_count_distinct_inputs(
    spans: &[gsj_obs::SpanRecord],
    col: &Collection,
    disc: &Discovery,
) {
    let g = &col.graph;
    let flat: Vec<&Path> = disc.paths.values().flatten().collect();
    let distinct = |keys: Vec<String>| keys.into_iter().collect::<FxHashSet<_>>().len();
    let end = |p: &Path| g.vertex_label(p.end()).unwrap();
    let labels = distinct(flat.iter().map(|p| format!("{}", end(p))).collect());
    let patterns = distinct(flat.iter().map(|p| format!("{:?}", p.labels())).collect());
    let names = distinct(
        flat.iter()
            .map(|p| format!("{} {:?}", end(p), p.labels().last()))
            .collect(),
    );
    let points = distinct(
        flat.iter()
            .map(|p| format!("{} {:?}", end(p), p.labels()))
            .collect(),
    );
    assert_eq!(field(spans, "rext.embed", "pairs"), flat.len());
    assert_eq!(field(spans, "rext.embed", "distinct_labels"), labels);
    assert_eq!(field(spans, "rext.embed", "distinct_patterns"), patterns);
    assert_eq!(field(spans, "rext.rank", "distinct_names"), names);
    assert_eq!(field(spans, "cluster.kmeans", "points"), flat.len());
    // Two labels may share an embedding; two embeddings never a label.
    let distinct_points = field(spans, "cluster.kmeans", "distinct_points");
    assert!((1..=points).contains(&distinct_points));
    assert!(labels < flat.len() && patterns < flat.len() && points < flat.len());
}

fn discovery_equals_per_path_discovery(name: &str) {
    let col = tiny(name);
    let (matches, spans) =
        gsj_obs::capture(|| her_match(&col.graph, col.entity_relation(), &col.her_config()));
    let matches = matches.unwrap();
    assert_eq!(
        field(&spans, "her.match", "index_vertices"),
        col.graph.vertex_count()
    );
    let her = |key| field(&spans, "her.match", key);
    assert!(her("scored") >= her("matched"));
    // The bound prunes, and what it prunes is counted.
    assert_eq!(her("scored") + her("pruned"), her("candidates"));
    assert!(
        her("scored") <= her("candidates") / 4,
        "{name}: scored {} of {} candidates",
        her("scored"),
        her("candidates")
    );
    let keywords = col.spec.reference_keywords();
    let rext = Rext::train(&col.graph, serving_rext_config()).unwrap();
    let per_path = per_path_discover(&rext, &col, &matches, &keywords);
    let mut first_dg = None;
    // From two workers up, path selection goes to the pool wherever the
    // collection matches more vertices than one task's grain (32).
    for workers in [1, 2, 3, 8] {
        let what = format!("{name}, {workers} workers");
        let (run, spans) = pool::with_threads(workers, || {
            gsj_obs::capture(|| {
                let shared = rext.discover(
                    &col.graph,
                    &matches,
                    Some((col.entity_relation(), &col.spec.id_attr)),
                    &keywords,
                    "h_x",
                )?;
                let dg = rext.extract(&col.graph, &matches, &shared)?;
                gsj_common::Result::Ok((shared, dg))
            })
        });
        let (shared, dg) = run.unwrap();
        assert!(!shared.clusters.is_empty(), "{name}: nothing discovered");
        assert_spans_count_distinct_inputs(&spans, &col, &shared);
        assert_same_discovery(&shared, &per_path, &what);
        assert_eq!(&dg, first_dg.get_or_insert_with(|| dg.clone()), "{what}");
    }
}

/// One test per collection: each trains its own model.
macro_rules! on_collection {
    ($($test:ident => $name:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                discovery_equals_per_path_discovery($name);
            }
        )*

        #[test]
        fn every_collection_is_covered() {
            assert_eq!([$($name),*], gsj_datagen::collections::ALL);
        }
    };
}

on_collection! {
    drugs => "Drugs",
    fake_news => "FakeNews",
    movie => "Movie",
    mov_kb => "MovKB",
    paper => "Paper",
    celebrity => "Celebrity",
}

/// Offline preparation shares one model between the variants whose
/// [`RExtConfig::lm_key`]s agree: a variant assembled by the experiments'
/// memo must be the scheme its own `Rext::train` builds — same model
/// bits, same discovery — with two trainings for the six variants.
#[test]
fn a_variant_on_the_memos_shared_model_equals_its_own_training() {
    let quick = |mut cfg: RExtConfig| {
        cfg.lm.epochs = 1;
        cfg.lm.max_sentences = 300;
        cfg
    };
    let mut memo = gsj_bench::Memo::new(gsj_datagen::Scale::tiny());
    let col = memo.collection("Drugs");
    let keywords = col.spec.reference_keywords();
    let reference = Some((col.entity_relation(), col.spec.id_attr.as_str()));
    for (name, cfg) in gsj_bench::variants() {
        let prep = memo.prepared("Drugs", quick(cfg.clone()));
        let own = Rext::train(&col.graph, quick(cfg)).unwrap();
        let (shared_lm, own_lm) = (
            prep.rext.language_model().unwrap(),
            own.language_model().unwrap(),
        );
        for &v in prep.matches.vertices().take(8).collect::<Vec<_>>().iter() {
            for p in own.select_paths(&col.graph, v) {
                assert_eq!(
                    bits(&shared_lm.embed_symbols(p.labels())),
                    bits(&own_lm.embed_symbols(p.labels())),
                    "{name}: embedding of {:?}",
                    p.labels()
                );
            }
        }
        let discover = |rext: &Rext| {
            rext.discover(&col.graph, &prep.matches, reference, &keywords, "h_x")
                .unwrap()
        };
        assert_same_discovery(&discover(&prep.rext), &discover(&own), name);
    }
    // RExtShortSeq's 50-wide model is the one that is not shared …
    assert_eq!(memo.models_trained(), 2);
    let (standard, _) = memo.model("Drugs", &quick(RExtConfig::standard())).unwrap();
    assert_eq!(memo.models_trained(), 2);
    // … and handing it the standard one, or a variant none, is a typed
    // error rather than a panic further down.
    for (cfg, lm) in [
        (RExtConfig::short_seq(), Some(standard)),
        (RExtConfig::standard(), None),
    ] {
        let refused = Rext::with_model(&col.graph, quick(cfg), lm);
        assert!(
            matches!(refused, Err(gsj_common::GsjError::Config(_))),
            "{:?}",
            refused.err()
        );
    }
}
