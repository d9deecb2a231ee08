//! # gsj-tests
//!
//! Cross-crate integration tests for the gsj workspace live in this
//! package's `tests/` directory. The library itself only hosts shared
//! helpers for those tests.

use gsj_core::config::{PathKind, RExtConfig};
use gsj_core::discover::Discovery;
use gsj_datagen::{Collection, Scale};
use gsj_nn::LmConfig;
use gsj_server::serving_rext_config;

/// [`serving_rext_config`] — the configuration the suites share with the
/// server — with LM-guided paths over a small language model.
pub fn guided_rext_config() -> RExtConfig {
    RExtConfig {
        path: PathKind::LmGuided,
        lm: LmConfig {
            embed_dim: 16,
            hidden: 32,
            epochs: 3,
            ..LmConfig::default()
        },
        ..serving_rext_config()
    }
}

/// Build one tiny collection by name.
pub fn tiny(name: &str) -> Collection {
    gsj_datagen::collections::build(name, Scale::tiny(), 42).expect("known collection")
}

/// Current value of an unlabelled counter in the global metrics registry.
pub fn counter(name: &str) -> u64 {
    gsj_obs::metrics::Registry::global()
        .counter(name, &[])
        .get()
}

/// A vector's bit patterns: the equality under which "the same floats"
/// means the same bits.
pub fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|f| f.to_bits()).collect()
}

/// Two discoveries are the same: every field, floats bit for bit.
pub fn assert_same_discovery(a: &Discovery, b: &Discovery, what: &str) {
    assert_eq!(a.clusters.len(), b.clusters.len(), "{what}: cluster count");
    for (x, y) in a.clusters.iter().zip(&b.clusters) {
        assert_eq!(x.patterns, y.patterns, "{what}: patterns of {}", x.attr);
        assert_eq!(x.attr, y.attr, "{what}: attribute name");
        assert_eq!(
            bits(&x.attr_emb),
            bits(&y.attr_emb),
            "{what}: x_A of {}",
            x.attr
        );
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{what}: score of {}",
            x.attr
        );
    }
    assert_eq!(a.schema, b.schema, "{what}: schema");
    assert_eq!(a.refined, b.refined, "{what}: refined clusters");
    assert_eq!(a.paths, b.paths, "{what}: path cache");
    assert_eq!(a.total_paths, b.total_paths, "{what}: |P|");
    assert_eq!(a.word_dim, b.word_dim, "{what}: word dim");
    assert_eq!(
        a.keyword_embs.len(),
        b.keyword_embs.len(),
        "{what}: keywords"
    );
    for ((ka, ea), (kb, eb)) in a.keyword_embs.iter().zip(&b.keyword_embs) {
        assert_eq!(ka, kb, "{what}: keyword");
        assert_eq!(bits(ea), bits(eb), "{what}: embedding of {ka}");
    }
}
