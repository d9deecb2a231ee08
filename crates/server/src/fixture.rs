//! Collection loading: build the shared immutable engine state once at
//! startup — train RExt, build the offline [`GraphProfile`] (which
//! includes the `f`/`h` pre-extractions; the `g_L` reachability index is
//! not part of it — the first link join builds one per
//! `(lbase, rbase, k)` and every later one probes it), register the
//! graph — and hand it to the server behind an `Arc`.
//!
//! The recipe mirrors the integration suite's `engine_for` so a served
//! collection behaves exactly like one driven in-process by the tests.

use gsj_common::Result;
use gsj_core::config::{PathKind, RExtConfig};
use gsj_core::gsql::exec::GsqlEngine;
use gsj_core::profile::GraphProfile;
use gsj_core::rext::Rext;
use gsj_core::typed::TypedConfig;
use gsj_datagen::{Collection, Scale};
use std::sync::Arc;

/// The random-path RExt configuration used for serving fixtures:
/// single-threaded and deterministic. Path *selection* is unguided, but
/// the default `SeqKind::Lstm100` path embedding still trains the LSTM
/// (≈ 17 s of set-up at `Scale(100)`).
pub fn serving_rext_config() -> RExtConfig {
    RExtConfig {
        k: 3,
        h: 12,
        m: 4,
        path: PathKind::Random,
        threads: 1,
        seed: 7,
        ..RExtConfig::default()
    }
}

/// Build a ready-to-serve engine over one collection: RExt trained,
/// profile materialized, graph registered as `G`, hop bound `k = 2`.
pub fn engine_for_collection(col: &Collection) -> Result<GsqlEngine> {
    let rext = Arc::new(Rext::train(&col.graph, serving_rext_config())?);
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
    )?;
    engine.add_graph("G", col.graph.clone());
    engine.set_rext("G", rext);
    engine.set_profile("G", profile);
    engine.set_k(2);
    Ok(engine)
}

/// A collection paired with the shared engine built over it.
pub type LoadedCollection = (Collection, Arc<GsqlEngine>);

/// Generate a named collection at `scale` and build its engine.
/// Returns `None` for unknown collection names.
pub fn load_collection(name: &str, scale: Scale, seed: u64) -> Option<Result<LoadedCollection>> {
    let col = gsj_datagen::collections::build(name, scale, seed)?;
    Some(engine_for_collection(&col).map(|e| (col, Arc::new(e))))
}
