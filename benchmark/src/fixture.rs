//! Fixtures: the `gsj-serve` start-up recipe, step by step.
//!
//! This mirrors `gsj_server::engine_for_collection` call for call (same
//! `serving_rext_config()`, same profile inputs, same `k = 2`) instead of
//! calling it, for two reasons: the engine does not hand back the trained
//! `Rext` that IncExt needs, and each phase gets its own span. A test pins
//! the two recipes to the same answers.

use crate::span::Tracer;
use gsj_common::{GsjError, Result};
use gsj_core::gsql::exec::GsqlEngine;
use gsj_core::incext::{inc_update_graph, Extraction};
use gsj_core::profile::GraphProfile;
use gsj_core::rext::Rext;
use gsj_core::typed::TypedConfig;
use gsj_datagen::{Collection, Scale};
use gsj_graph::update::apply_updates;
use gsj_graph::{GraphUpdate, LabeledGraph, UpdateReport};
use gsj_relational::Relation;
use gsj_server::{serving_rext_config, Server, ServerConfig, ServerHandle};
use std::sync::Arc;

pub const COLLECTION: &str = "Celebrity";
/// Seed of the generated collection. It is fixed, like a standard data
/// set: collections of different seeds differ by up to 30 % in what the
/// same query costs (K-means over another category split), which would
/// count as noise when runs of different `--seed` are compared. `--seed`
/// drives what is asked of the collection: the rotation of id constants
/// and the ΔG batches.
pub const DATA_SEED: u64 = 11;
/// The name the graph is registered under (`e-join G <...>`).
pub const GRAPH: &str = "G";
/// Session workers of the in-process server: one caller, one spare.
pub const SESSIONS: usize = 2;

pub struct Fixture {
    pub col: Collection,
    /// Shared with the server while one runs; exclusive otherwise.
    pub engine: Arc<GsqlEngine>,
    pub rext: Arc<Rext>,
}

/// Generate the collection and build its engine.
pub fn build(scale: usize, tr: &mut Tracer) -> Result<Fixture> {
    let col = tr
        .time("datagen.build", || {
            gsj_datagen::collections::build(COLLECTION, Scale(scale), DATA_SEED)
        })
        .ok_or_else(|| GsjError::Config(format!("unknown collection {COLLECTION}")))?;
    let rext = Arc::new(tr.time("core.rext.train", || {
        Rext::train(&col.graph, serving_rext_config())
    })?);
    let mut engine = GsqlEngine::new(col.db.clone());
    engine.set_id_attr(&col.spec.rel_name, &col.spec.id_attr);
    engine.set_her_config(col.her_config());
    let typed_cfg = TypedConfig {
        default_keywords: col.spec.reference_keywords(),
        ..TypedConfig::default()
    };
    let profile = tr.time("core.profile.build", || {
        GraphProfile::build(
            &col.graph,
            &engine.db,
            vec![col.relation_spec()],
            &rext,
            &col.her_config(),
            Some(&typed_cfg),
        )
    })?;
    engine.add_graph(GRAPH, col.graph.clone());
    engine.set_rext(GRAPH, rext.clone());
    engine.set_profile(GRAPH, profile);
    engine.set_k(2);
    Ok(Fixture {
        col,
        engine: Arc::new(engine),
        rext,
    })
}

impl Fixture {
    pub fn graph(&self) -> &LabeledGraph {
        self.engine.graph(GRAPH).expect("graph registered")
    }

    pub fn profile(&self) -> &GraphProfile {
        self.engine.profile(GRAPH).expect("profile registered")
    }

    /// The entity relation `S`.
    pub fn relation(&self) -> &Relation {
        self.engine
            .db
            .get(&self.col.spec.rel_name)
            .expect("entity relation")
    }

    /// The maintained `f(D,G)`, discovery and `h(D,G)` of `S`.
    pub fn extraction(&self) -> &Extraction {
        self.profile()
            .extraction(&self.col.spec.rel_name)
            .expect("profiled relation")
    }

    fn exclusive(engine: &mut Arc<GsqlEngine>) -> Result<&mut GsqlEngine> {
        Arc::get_mut(engine)
            .ok_or_else(|| GsjError::Internal("engine is shared with a running server".into()))
    }

    /// First half of a write: apply the ΔG batch to the graph.
    pub fn update_graph(&mut self, batch: &[GraphUpdate], tr: &mut Tracer) -> Result<UpdateReport> {
        let engine = Self::exclusive(&mut self.engine)?;
        let g = engine.graph_mut(GRAPH).expect("graph registered");
        Ok(tr.time("graph.apply_updates", || apply_updates(g, batch)))
    }

    /// Second half: maintain the extraction incrementally and commit it
    /// (which clears the `g_L` cache).
    pub fn maintain(&mut self, report: &UpdateReport, tr: &mut Tracer) -> Result<()> {
        let engine = Self::exclusive(&mut self.engine)?;
        let rel_name = &self.col.spec.rel_name;
        let next = tr.time("core.incext.update", || {
            inc_update_graph(
                &self.rext,
                engine.graph(GRAPH).expect("graph registered"),
                engine.db.get(rel_name)?,
                &self.col.her_config(),
                engine
                    .profile(GRAPH)
                    .expect("profile")
                    .extraction(rel_name)?,
                report,
            )
        })?;
        tr.time("core.profile.set_extraction", || {
            engine
                .profile_mut(GRAPH)
                .expect("profile")
                .set_extraction(rel_name, next)
        });
        Ok(())
    }

    /// One ΔG batch through IncExt.
    pub fn apply(&mut self, batch: &[GraphUpdate], tr: &mut Tracer) -> Result<()> {
        let report = self.update_graph(batch, tr)?;
        self.maintain(&report, tr)
    }

    /// Serve the engine on an ephemeral local port.
    pub fn serve(&self) -> Result<ServerHandle> {
        Server::start(
            self.engine.clone(),
            ServerConfig {
                sessions: SESSIONS,
                ..ServerConfig::default()
            },
        )
    }
}
