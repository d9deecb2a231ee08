//! Collection loading: build the shared immutable engine state once at
//! startup — train RExt, then [`Collection::engine`] (the offline
//! [`gsj_core::profile::GraphProfile`] with the `f`/`h` pre-extractions;
//! the `g_L` reachability index is not part of it — the first link join
//! builds one per `(lbase, rbase, k)` and every later one probes it) —
//! and hand it to the server behind an `Arc`.

use gsj_common::Result;
use gsj_core::config::{PathKind, RExtConfig};
use gsj_core::gsql::exec::GsqlEngine;
use gsj_core::rext::Rext;
use gsj_datagen::{Collection, Scale};
use std::sync::Arc;

/// The random-path RExt configuration used for serving fixtures and the
/// integration suite: deterministic at every worker count (a `Baseline`
/// query served on more than one core fans its path selection out,
/// DESIGN.md §13). Path *selection* is unguided, but the default `SeqKind::Lstm100` path
/// embedding still trains the LSTM (≈ 7 s of set-up at `Scale(100)`).
pub fn serving_rext_config() -> RExtConfig {
    RExtConfig {
        k: 3,
        h: 12,
        m: 4,
        path: PathKind::Random,
        seed: 7,
        ..RExtConfig::default()
    }
}

/// Build a ready-to-serve engine over one collection: RExt trained under
/// [`serving_rext_config`], then the collection's own recipe.
pub fn engine_for_collection(col: &Collection) -> Result<GsqlEngine> {
    let rext = Rext::train(&col.graph, serving_rext_config())?;
    col.engine(Arc::new(rext))
}

/// Generate a named collection at `scale` and build its engine.
/// Returns `None` for unknown collection names.
pub fn load_collection(
    name: &str,
    scale: Scale,
    seed: u64,
) -> Option<Result<(Collection, Arc<GsqlEngine>)>> {
    let col = gsj_datagen::collections::build(name, scale, seed)?;
    Some(engine_for_collection(&col).map(|e| (col, Arc::new(e))))
}
