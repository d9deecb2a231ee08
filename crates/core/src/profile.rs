//! Offline preprocessing for the efficient semantic-join method
//! (Section IV-A): profile graph `G` once, materialize everything
//! well-behaved queries need, and hold the link-join connectivity
//! relations `g_L` as shared reachability indexes.
//!
//! Concretely, for each input relation `D` of schema `R` the profile
//! holds: (1) the HER matches `f(D,G)`; (2) a set `A_R` of reference
//! keywords; (3) the extracted schema `R_G` and relation `h(D,G)`; and for
//! heuristic joins the typed relations `gτ(G)`.

use crate::incext::Extraction;
use crate::join::LinkIndex;
use crate::rext::Rext;
use crate::typed::{extract_typed, TypedConfig, TypedRelation};
use gsj_common::{FxHashMap, GsjError, QueryGovernor, Result};
use gsj_graph::{LabeledGraph, VertexId};
use gsj_her::{her_match, HerConfig};
use gsj_relational::{CellRef, Database, Relation};
use parking_lot::Mutex;
use std::sync::Arc;

/// What to profile for one base relation.
#[derive(Debug, Clone)]
pub struct RelationSpec {
    /// Base relation name in the catalog.
    pub name: String,
    /// Its tuple-id (primary key) attribute.
    pub id_attr: String,
    /// The reference keywords `A_R` (from query logs / expert users in the
    /// paper; from the workload spec here).
    pub keywords: Vec<String>,
}

impl RelationSpec {
    /// Convenience constructor.
    pub fn new(name: &str, id_attr: &str, keywords: &[&str]) -> Self {
        RelationSpec {
            name: name.into(),
            id_attr: id_attr.into(),
            keywords: keywords.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// The materialized offline state.
pub struct GraphProfile {
    /// Per-relation specs (including `A_R`).
    pub specs: FxHashMap<String, RelationSpec>,
    /// Per-relation extraction state: `f(D,G)`, discovery, `h(D,G)`.
    pub extractions: FxHashMap<String, Extraction>,
    /// Typed relations `gτ(G)` for heuristic joins.
    pub typed: FxHashMap<String, TypedRelation>,
    /// The pre-computed `g_L`: one immutable reachability index per
    /// `(lbase, rbase, k)` over *all* of `f(lbase,G)` × `f(rbase,G)`, so
    /// every selection of either side probes the same index. Built by the
    /// first link join that needs it; emptied by [`Self::set_extraction`].
    /// A handful of entries at most, hence a scanned `Vec`.
    link_indexes: Mutex<Vec<(LinkKey, Arc<LinkIndex>)>>,
}

/// `(lbase, rbase, k)` — the graph is the profile's own.
type LinkKey = (String, String, usize);

impl GraphProfile {
    /// Profile `g` against the given base relations: run HER, pattern
    /// discovery with `A_R`, extraction, and (optionally) typed
    /// extraction. This is the offline pre-computation of Exp-3(I)(b).
    pub fn build(
        g: &LabeledGraph,
        db: &Database,
        specs: Vec<RelationSpec>,
        rext: &Rext,
        her_cfg: &HerConfig,
        typed_cfg: Option<&TypedConfig>,
    ) -> Result<GraphProfile> {
        let mut build_span = gsj_obs::span("profile.build");
        build_span.field("relations", specs.len());
        let mut extractions = FxHashMap::default();
        let mut spec_map = FxHashMap::default();
        for spec in specs {
            let mut span = gsj_obs::span("profile.relation");
            span.field("relation", &spec.name);
            let rel = db.get(&spec.name)?;
            let cfg = HerConfig {
                id_attr: spec.id_attr.clone(),
                ..her_cfg.clone()
            };
            let matches = her_match(g, rel, &cfg)?;
            let discovery = rext.discover(
                g,
                &matches,
                Some((rel, &spec.id_attr)),
                &spec.keywords,
                &format!("h_{}", spec.name),
            )?;
            let dg = rext.extract(g, &matches, &discovery)?;
            extractions.insert(
                spec.name.clone(),
                Extraction {
                    discovery,
                    matches,
                    dg,
                },
            );
            spec_map.insert(spec.name.clone(), spec);
        }
        let typed = match typed_cfg {
            Some(cfg) => {
                let mut span = gsj_obs::span("profile.typed");
                let typed = extract_typed(g, rext, cfg)?;
                span.field("types", typed.len());
                typed
            }
            None => FxHashMap::default(),
        };
        Ok(GraphProfile {
            specs: spec_map,
            extractions,
            typed,
            link_indexes: Mutex::new(Vec::new()),
        })
    }

    /// The reference keywords `A_R` of a base relation.
    pub fn reference_keywords(&self, relation: &str) -> Option<&[String]> {
        self.specs.get(relation).map(|s| s.keywords.as_slice())
    }

    /// `A ⊆ A_R`? — condition (1) of well-behavedness (Section IV-A).
    pub fn covers(&self, relation: &str, keywords: &[String]) -> bool {
        match self.reference_keywords(relation) {
            None => false,
            Some(ar) => keywords.iter().all(|k| ar.contains(k)),
        }
    }

    /// The extraction state of a base relation.
    pub fn extraction(&self, relation: &str) -> Result<&Extraction> {
        self.extractions
            .get(relation)
            .ok_or_else(|| GsjError::NotFound(format!("profile for relation `{relation}`")))
    }

    /// Replace a relation's extraction state (IncExt commits through
    /// here). This is the invalidation point of every `g_L` index: a
    /// committed extraction means the graph or `f(D,G)` changed, so the
    /// next link join rebuilds from the current state. The `D_G` is kept
    /// stored (see [`Relation::materialized`]).
    pub fn set_extraction(&mut self, relation: &str, mut e: Extraction) {
        e.dg = e.dg.materialized();
        self.extractions.insert(relation.to_string(), e);
        self.link_indexes.lock().clear();
    }

    /// The `g_L` index of `f(lbase,G)` × `f(rbase,G)` at `k` hops, if one
    /// has been built since the last [`Self::set_extraction`].
    pub fn link_index(&self, lbase: &str, rbase: &str, k: usize) -> Option<Arc<LinkIndex>> {
        self.link_indexes
            .lock()
            .iter()
            .find(|((l, r, kk), _)| l == lbase && r == rbase && *kk == k)
            .map(|(_, index)| index.clone())
    }

    /// Build the `g_L` index of `f(lbase,G)` × `f(rbase,G)` at `k` hops
    /// over `g` under `gov`, and install it in place of any previous one.
    /// The lock is not held while building: two queries racing on a cold
    /// profile both build, and the later install wins.
    pub fn build_link_index(
        &self,
        g: &LabeledGraph,
        lbase: &str,
        rbase: &str,
        k: usize,
        gov: &QueryGovernor,
    ) -> Result<Arc<LinkIndex>> {
        let matched = |base: &str| -> Result<Vec<VertexId>> {
            Ok(self.extraction(base)?.matches.vertices().collect())
        };
        let index = Arc::new(LinkIndex::build(
            g,
            &matched(lbase)?,
            &matched(rbase)?,
            k,
            gov,
        )?);
        let mut indexes = self.link_indexes.lock();
        indexes.retain(|((l, r, kk), _)| !(l == lbase && r == rbase && *kk == k));
        indexes.push(((lbase.to_string(), rbase.to_string(), k), index.clone()));
        Ok(index)
    }

    /// Number of `g_L` indexes currently held.
    pub fn link_index_count(&self) -> usize {
        self.link_indexes.lock().len()
    }

    /// Rough materialization footprint in bytes (for the "% of raw data"
    /// statistics of Exp-3(I)): rendered value lengths of all
    /// materialized relations, 16 bytes per HER match, and the real
    /// bytes of every `g_L` index.
    pub fn materialized_bytes(&self) -> usize {
        // Cell by cell off the columns: no row is materialized.
        let rel_bytes = |r: &Relation| -> usize {
            r.columns()
                .iter()
                .map(|col| {
                    (0..r.len())
                        .map(|i| match col.cell(i) {
                            CellRef::Str(s) => s.len(),
                            other => other.to_value().to_string().len(),
                        })
                        .sum::<usize>()
                })
                .sum()
        };
        let mut total = 0usize;
        for e in self.extractions.values() {
            total += rel_bytes(&e.dg);
            total += e.matches.len() * 16;
        }
        for t in self.typed.values() {
            total += rel_bytes(&t.relation);
        }
        total += self
            .link_indexes
            .lock()
            .iter()
            .map(|(_, index)| index.approx_bytes())
            .sum::<usize>();
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PathKind, RExtConfig};
    use gsj_common::Value;
    use gsj_relational::Schema;

    fn setting() -> (LabeledGraph, Database) {
        let mut g = LabeledGraph::new();
        let ty = g.add_vertex("Product");
        for i in 0..3 {
            let p = g.add_vertex(&format!("prod-{i}"));
            g.add_edge(p, "type", ty);
            let n = g.add_vertex(&format!("Gadget {i}"));
            g.add_edge(p, "name", n);
            let c = g.add_vertex(&format!("maker{i}"));
            g.add_edge(p, "made_by", c);
        }
        let mut rel = Relation::empty(Schema::of("product", &["pid", "name"]));
        for i in 0..3 {
            rel.push_values(vec![
                Value::str(format!("fd{i}")),
                Value::str(format!("Gadget {i}")),
            ])
            .unwrap();
        }
        let mut db = Database::new();
        db.insert(rel);
        (g, db)
    }

    fn quick_rext(g: &LabeledGraph) -> Rext {
        Rext::train(
            g,
            RExtConfig {
                k: 2,
                h: 6,
                m: 2,
                path: PathKind::Random,
                ..RExtConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn build_profiles_relations_and_types() {
        let (g, db) = setting();
        let rext = quick_rext(&g);
        let profile = GraphProfile::build(
            &g,
            &db,
            vec![RelationSpec::new("product", "pid", &["company", "name"])],
            &rext,
            &HerConfig::default(),
            Some(&TypedConfig::default()),
        )
        .unwrap();
        assert!(profile.covers("product", &["company".to_string()]));
        assert!(!profile.covers("product", &["salary".to_string()]));
        assert!(!profile.covers("nonexistent", &[]));
        let e = profile.extraction("product").unwrap();
        assert_eq!(e.matches.len(), 3);
        assert_eq!(e.dg.len(), 3);
        assert!(profile.typed.contains_key("Product"));
        assert!(profile.materialized_bytes() > 0);
    }

    #[test]
    fn link_cache_roundtrip_and_invalidation() {
        let (g, db) = setting();
        let rext = quick_rext(&g);
        let mut profile = GraphProfile::build(
            &g,
            &db,
            vec![RelationSpec::new("product", "pid", &["name"])],
            &rext,
            &HerConfig::default(),
            None,
        )
        .unwrap();
        let gov = QueryGovernor::unlimited();
        assert!(profile.link_index("product", "product", 2).is_none());
        let without_index = profile.materialized_bytes();
        let built = profile
            .build_link_index(&g, "product", "product", 2, &gov)
            .unwrap();
        // Products share the `Product` type vertex: all 3 × 3 pairs at k=2.
        assert_eq!(built.pairs(), 9);
        let held = profile.link_index("product", "product", 2).unwrap();
        assert!(Arc::ptr_eq(&built, &held), "lookups share one index");
        assert!(profile.link_index("product", "product", 1).is_none());
        assert_eq!(
            profile.materialized_bytes(),
            without_index + built.approx_bytes()
        );
        // Rebuilding replaces, never accumulates.
        profile
            .build_link_index(&g, "product", "product", 2, &gov)
            .unwrap();
        assert_eq!(profile.link_index_count(), 1);
        assert!(profile
            .build_link_index(&g, "product", "nonexistent", 2, &gov)
            .is_err());
        // Committing new extraction state clears every index.
        let e = profile.extraction("product").unwrap().clone();
        profile.set_extraction("product", e);
        assert_eq!(profile.link_index_count(), 0);
    }

    #[test]
    fn materialized_bytes_counts_cells_like_the_row_rendering() {
        let (g, db) = setting();
        let rext = quick_rext(&g);
        let profile = GraphProfile::build(
            &g,
            &db,
            vec![RelationSpec::new("product", "pid", &["company", "name"])],
            &rext,
            &HerConfig::default(),
            Some(&TypedConfig::default()),
        )
        .unwrap();
        let by_rows = |r: &Relation| -> usize {
            r.rows()
                .flat_map(|t| t.into_values())
                .map(|v| v.to_string().len())
                .sum()
        };
        let e = profile.extraction("product").unwrap();
        let expected = by_rows(&e.dg)
            + e.matches.len() * 16
            + profile
                .typed
                .values()
                .map(|t| by_rows(&t.relation))
                .sum::<usize>();
        assert_eq!(profile.materialized_bytes(), expected);
    }
}
