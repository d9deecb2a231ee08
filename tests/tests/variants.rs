//! Every RExt ablation variant must run the full pipeline end-to-end
//! (Exp-2(b)'s six lines), and the LM-guided default must not lose to the
//! RndPath baseline.

use gsj_core::config::RExtConfig;
use gsj_core::join::enrichment_join_precomputed;
use gsj_core::quality::f_measure;
use gsj_core::rext::Rext;
use gsj_her::her_match;
use gsj_nn::LmConfig;
use gsj_tests::tiny;

fn small_lm(mut cfg: RExtConfig) -> RExtConfig {
    cfg.lm = LmConfig {
        embed_dim: 16,
        hidden: if cfg.lm.hidden == 50 { 50 } else { 32 },
        epochs: 3,
        ..LmConfig::default()
    };
    cfg.h = 12;
    cfg.m = 4;
    cfg
}

fn run_variant(cfg: RExtConfig) -> f64 {
    let col = tiny("Drugs");
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
fn rext_standard_runs() {
    assert!(run_variant(small_lm(RExtConfig::standard())) > 0.5);
}

#[test]
fn rext_bert_emb_runs() {
    assert!(run_variant(small_lm(RExtConfig::bert_emb())) > 0.3);
}

#[test]
fn rext_short_emb_runs() {
    assert!(run_variant(small_lm(RExtConfig::short_emb())) > 0.3);
}

#[test]
fn rext_bert_seq_runs() {
    assert!(run_variant(small_lm(RExtConfig::bert_seq())) > 0.3);
}

#[test]
fn rext_short_seq_runs() {
    let mut cfg = RExtConfig::short_seq();
    cfg.h = 12;
    cfg.m = 4;
    cfg.lm.epochs = 3;
    cfg.lm.embed_dim = 16;
    assert!(run_variant(cfg) > 0.3);
}

#[test]
fn rnd_path_runs_but_guided_wins() {
    let rnd = run_variant(small_lm(RExtConfig::rnd_path()));
    let guided = run_variant(small_lm(RExtConfig::standard()));
    assert!(rnd > 0.0, "RndPath produced nothing");
    // The paper reports RExt consistently ~21% above RndPath; at test
    // scale we only require it not to lose.
    assert!(
        guided >= rnd - 0.05,
        "guided ({guided:.3}) lost badly to random ({rnd:.3})"
    );
}
