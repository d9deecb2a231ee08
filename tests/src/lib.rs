//! # gsj-tests
//!
//! Cross-crate integration tests for the gsj workspace live in this
//! package's `tests/` directory. The library itself only hosts shared
//! helpers for those tests.

use gsj_core::config::{PathKind, RExtConfig};
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
