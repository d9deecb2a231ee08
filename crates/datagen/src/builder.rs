//! The generic collection generator.

use crate::spec::{CollectionSpec, PropSpec};
use gsj_common::{FxHashMap, Result, Value};
use gsj_core::gsql::exec::GsqlEngine;
use gsj_core::profile::{GraphProfile, RelationSpec};
use gsj_core::rext::Rext;
use gsj_core::typed::TypedConfig;
use gsj_graph::{LabeledGraph, VertexId};
use gsj_her::HerConfig;
use gsj_relational::{Database, Relation, Schema};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

const ADJECTIVES: &[&str] = &[
    "Crimson", "Silver", "Golden", "Emerald", "Azure", "Ivory", "Obsidian", "Scarlet", "Amber",
    "Cobalt", "Violet", "Copper", "Jade", "Onyx", "Pearl", "Ruby", "Sapphire", "Topaz", "Coral",
    "Indigo", "Maroon", "Ochre", "Teal", "Umber",
];

const NOUNS: &[&str] = &[
    "Falcon", "Harbor", "Meadow", "Summit", "Canyon", "Glacier", "Lagoon", "Prairie", "Thicket",
    "Cascade", "Bluff", "Grove", "Hollow", "Mesa", "Ridge", "Basin", "Fjord", "Delta", "Atoll",
    "Tundra", "Savanna", "Marsh", "Dune", "Reef",
];

/// A generated collection: database, graph, ground truth, and the specs
/// needed to profile it.
#[derive(Clone)]
pub struct Collection {
    /// Collection name.
    pub name: String,
    /// The relational database `D` (entity relation + optional cross
    /// relation).
    pub db: Database,
    /// The knowledge graph `G`.
    pub graph: LabeledGraph,
    /// The generating spec.
    pub spec: CollectionSpec,
    /// Ground truth: `id_attr` + one column per property keyword.
    pub truth: Relation,
    /// Entity vertex per entity index.
    pub entity_vertices: Vec<VertexId>,
    /// Cross links as entity index pairs.
    pub links: Vec<(usize, usize)>,
}

impl Collection {
    /// Tuple id of entity `i`.
    pub fn id_of(&self, i: usize) -> String {
        format!("{}{i}", self.spec.id_prefix)
    }

    /// A HER configuration suited to this collection (the paper picks
    /// JedAI configurations per collection the same way).
    pub fn her_config(&self) -> HerConfig {
        HerConfig {
            id_attr: self.spec.id_attr.clone(),
            min_score: 0.3,
            ..HerConfig::default()
        }
    }

    /// The [`RelationSpec`] for profiling the entity relation with `A_R` =
    /// the property keywords.
    pub fn relation_spec(&self) -> RelationSpec {
        RelationSpec {
            name: self.spec.rel_name.clone(),
            id_attr: self.spec.id_attr.clone(),
            keywords: self.spec.reference_keywords(),
        }
    }

    /// `(predicted_attr, truth_attr)` pairs for the F-measure protocol
    /// over all property keywords.
    pub fn attr_pairs(&self) -> Vec<(String, String)> {
        self.spec
            .reference_keywords()
            .into_iter()
            .map(|k| (k.clone(), k))
            .collect()
    }

    /// The entity relation.
    pub fn entity_relation(&self) -> &Relation {
        self.db
            .get(&self.spec.rel_name)
            .expect("entity relation registered at build time")
    }

    /// The ready-to-query engine over this collection, given a scheme
    /// trained on its graph: the offline profile (`f`/`h` pre-extractions
    /// for `A_R` = the property keywords, typed relations included)
    /// materialized, the graph registered as `G`, hop bound `k = 2`. The
    /// server, the experiments and the test suites all start here.
    pub fn engine(&self, rext: Arc<Rext>) -> Result<GsqlEngine> {
        let mut engine = GsqlEngine::new(self.db.clone());
        engine.set_id_attr(&self.spec.rel_name, &self.spec.id_attr);
        engine.set_her_config(self.her_config());
        let typed_cfg = TypedConfig {
            default_keywords: self.spec.reference_keywords(),
            ..TypedConfig::default()
        };
        let profile = GraphProfile::build(
            &self.graph,
            &engine.db,
            vec![self.relation_spec()],
            &rext,
            &self.her_config(),
            Some(&typed_cfg),
        )?;
        engine.add_graph("G", self.graph.clone());
        engine.set_rext("G", rext);
        engine.set_profile("G", profile);
        engine.set_k(2);
        Ok(engine)
    }
}

fn stable_hash(s: &str, salt: u64) -> u64 {
    use std::hash::Hasher;
    let mut h = gsj_common::FxHasher::default();
    h.write(s.as_bytes());
    h.write_u64(salt);
    h.finish()
}

struct GraphBuilder {
    g: LabeledGraph,
    value_vertices: FxHashMap<String, VertexId>,
    blank_counter: usize,
}

impl GraphBuilder {
    fn value_vertex(&mut self, label: &str) -> VertexId {
        if let Some(&v) = self.value_vertices.get(label) {
            return v;
        }
        let v = self.g.add_vertex(label);
        self.value_vertices.insert(label.to_string(), v);
        v
    }

    fn blank_vertex(&mut self) -> VertexId {
        let v = self.g.add_vertex(&format!("n{}", self.blank_counter));
        self.blank_counter += 1;
        v
    }

    /// Attach a property value at the end of an edge chain from `from`.
    fn attach_chain(&mut self, from: VertexId, edges: &[String], value: &str) {
        let mut current = from;
        for (i, edge) in edges.iter().enumerate() {
            let next = if i + 1 == edges.len() {
                self.value_vertex(value)
            } else {
                self.blank_vertex()
            };
            self.g.add_edge(current, edge, next);
            current = next;
        }
    }
}

/// The property value of entity `i` for `prop`, given already-decided
/// parent values. `None` = NULL.
fn prop_value(
    prop: &PropSpec,
    i: usize,
    decided: &FxHashMap<String, Option<String>>,
    rng: &mut SmallRng,
) -> Option<String> {
    match &prop.via {
        Some(parent) => {
            // Function of the parent value → consistent across entities.
            let parent_val = decided.get(parent.as_str()).cloned().flatten()?;
            let j = stable_hash(&parent_val, 0xfeed) % prop.pool_size.max(1) as u64;
            Some(format!("{}{j}", prop.pool_prefix))
        }
        None => {
            if prop.null_rate > 0.0 && rng.random_range(0.0..1.0) < prop.null_rate {
                return None;
            }
            let j = rng.random_range(0..prop.pool_size.max(1));
            let _ = i;
            Some(format!("{}{j}", prop.pool_prefix))
        }
    }
}

/// Generate a collection from its spec.
pub fn build_collection(spec: CollectionSpec) -> Collection {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut gb = GraphBuilder {
        g: LabeledGraph::new(),
        value_vertices: FxHashMap::default(),
        blank_counter: 0,
    };
    let type_vertex = gb.g.add_vertex(&spec.type_name);

    // Entity relation schema: id, name, extras.
    let mut rel_attrs: Vec<String> = vec![spec.id_attr.clone(), "name".into()];
    rel_attrs.extend(spec.extra_attrs.iter().map(|(a, _, _)| a.clone()));
    let mut entity_rel =
        Relation::empty(Schema::new(spec.rel_name.clone(), rel_attrs).expect("distinct attrs"));

    // Ground truth schema: id + keywords.
    let mut truth_attrs = vec![spec.id_attr.clone()];
    truth_attrs.extend(spec.reference_keywords());
    let mut truth = Relation::empty(
        Schema::new(format!("{}_truth", spec.rel_name), truth_attrs).expect("distinct attrs"),
    );

    let mut entity_vertices = Vec::with_capacity(spec.entities);
    for i in 0..spec.entities {
        let id = format!("{}{i}", spec.id_prefix);
        let name = format!(
            "{} {} {i}",
            ADJECTIVES[rng.random_range(0..ADJECTIVES.len())],
            NOUNS[rng.random_range(0..NOUNS.len())]
        );
        // Relational row.
        let mut row = vec![Value::str(&id), Value::str(&name)];
        let mut extra_vals = Vec::new();
        for (_, prefix, size) in &spec.extra_attrs {
            let val = format!("{prefix}{}", rng.random_range(0..*size.max(&1)));
            extra_vals.push(val.clone());
            row.push(Value::str(val));
        }
        entity_rel.push_values(row).expect("arity");

        // Graph side.
        let ev =
            gb.g.add_vertex(&format!("{}-{i}", spec.type_name.to_lowercase()));
        entity_vertices.push(ev);
        gb.g.add_edge(ev, "type", type_vertex);
        let name_v = gb.value_vertex(&name);
        gb.g.add_edge(ev, "name", name_v);
        // First extra attr is mirrored into the graph so HER has more
        // than the name to match on.
        if let Some(((attr, _, _), val)) = spec.extra_attrs.first().zip(extra_vals.first()) {
            let v = gb.value_vertex(val);
            gb.g.add_edge(ev, attr, v);
        }

        // Properties.
        let mut decided: FxHashMap<String, Option<String>> = FxHashMap::default();
        let mut truth_row = vec![Value::str(&id)];
        for prop in &spec.props {
            let value = prop_value(prop, i, &decided, &mut rng);
            match (&prop.via, &value) {
                (Some(parent), Some(v)) => {
                    // Chain continues from the parent's value vertex.
                    if let Some(Some(pv)) = decided.get(parent.as_str()).cloned() {
                        let from = gb.value_vertex(&pv);
                        gb.attach_chain(from, &prop.edges, v);
                    }
                }
                (None, Some(v)) => gb.attach_chain(ev, &prop.edges, v),
                _ => {}
            }
            truth_row.push(match &value {
                Some(v) => Value::str(v),
                None => Value::Null,
            });
            decided.insert(prop.keyword.clone(), value);
        }
        truth.push_values(truth_row).expect("arity");

        // Noise properties (graph-only).
        for prop in &spec.noise_props {
            if let Some(v) = prop_value(prop, i, &decided, &mut rng) {
                gb.attach_chain(ev, &prop.edges, &v);
            }
        }
    }

    // Background graph: chains of vertices unrelated to D, sparsely
    // attached to the property zone.
    let bg_count = (spec.entities as f64 * spec.background).round() as usize;
    if bg_count > 0 {
        let bg_edges = ["linked", "mentions", "refers_to", "see_also"];
        let mut prev: Option<VertexId> = None;
        let mut bg_vertices = Vec::with_capacity(bg_count);
        for i in 0..bg_count {
            let v = gb.g.add_vertex(&format!("bgnode {i}"));
            bg_vertices.push(v);
            // Chain segments of ~16 vertices.
            if let Some(p) = prev {
                if i % 16 != 0 {
                    gb.g.add_edge(p, bg_edges[i % bg_edges.len()], v);
                }
            }
            prev = Some(v);
            // Occasional long-range background link.
            if i > 4 && rng.random_range(0..10) == 0 {
                let other = bg_vertices[rng.random_range(0..i)];
                if other != v {
                    gb.g.add_edge(v, "see_also", other);
                }
            }
        }
        // Sparse attachment: ~3% of background vertices mention a value
        // vertex of the property zone.
        let values: Vec<VertexId> = gb.value_vertices.values().copied().collect();
        if !values.is_empty() {
            for &v in &bg_vertices {
                if rng.random_range(0..33) == 0 {
                    let target = values[rng.random_range(0..values.len())];
                    gb.g.add_edge(v, "mentions", target);
                }
            }
        }
    }

    // Cross links.
    let mut links: Vec<(usize, usize)> = Vec::new();
    if let Some(cross) = &spec.cross {
        if spec.entities >= 2 {
            let total = (spec.entities as f64 * cross.per_entity).round() as usize;
            for _ in 0..total {
                let a = rng.random_range(0..spec.entities);
                let mut b = rng.random_range(0..spec.entities);
                if a == b {
                    b = (b + 1) % spec.entities;
                }
                gb.g.add_edge(entity_vertices[a], &cross.label, entity_vertices[b]);
                links.push((a, b));
            }
        }
    }

    let mut db = Database::new();
    db.insert(entity_rel);
    if let Some(cross) = &spec.cross {
        if let Some(cr) = &cross.relation {
            let mut rel = Relation::empty(
                Schema::new(
                    cr.name.clone(),
                    vec![cr.id1.clone(), cr.id2.clone(), cr.type_attr.clone()],
                )
                .expect("distinct attrs"),
            );
            for (n, (a, b)) in links.iter().enumerate() {
                rel.push_values(vec![
                    Value::str(format!("{}{a}", spec.id_prefix)),
                    Value::str(format!("{}{b}", spec.id_prefix)),
                    Value::str(&cr.type_pool[n % cr.type_pool.len()]),
                ])
                .expect("arity");
            }
            db.insert(rel);
        }
    }

    Collection {
        name: spec.name.clone(),
        db,
        graph: gb.g,
        spec,
        truth,
        entity_vertices,
        links,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CrossRelation, CrossSpec};

    fn toy_spec() -> CollectionSpec {
        CollectionSpec {
            name: "Toy".into(),
            type_name: "Widget".into(),
            rel_name: "widget".into(),
            id_attr: "wid".into(),
            id_prefix: "w".into(),
            entities: 20,
            extra_attrs: vec![("class".into(), "Class".into(), 3)],
            props: vec![
                PropSpec::direct("maker", "made_by", "Maker", 5),
                PropSpec::via("country", "maker", "registered_in", "Country", 4),
                PropSpec::direct("grade", "graded", "Grade", 3).with_null_rate(0.3),
            ],
            noise_props: vec![PropSpec::direct("junk", "clicked", "Junk", 6)],
            cross: Some(CrossSpec {
                label: "interacts".into(),
                per_entity: 1.0,
                relation: Some(CrossRelation {
                    name: "interact".into(),
                    id1: "wid1".into(),
                    id2: "wid2".into(),
                    type_attr: "itype".into(),
                    type_pool: vec!["-1".into(), "1".into()],
                }),
            }),
            background: 1.0,
            seed: 11,
        }
    }

    #[test]
    fn builds_consistent_sizes() {
        let c = build_collection(toy_spec());
        assert_eq!(c.entity_relation().len(), 20);
        assert_eq!(c.truth.len(), 20);
        assert_eq!(c.entity_vertices.len(), 20);
        assert_eq!(c.db.get("interact").unwrap().len(), c.links.len());
        assert!(c.graph.edge_count() > 20 * 3);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build_collection(toy_spec());
        let b = build_collection(toy_spec());
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
    }

    #[test]
    fn via_property_is_functional_in_parent() {
        let c = build_collection(toy_spec());
        // Same maker value → same country value across all entities.
        let maker_col = c.truth.column("maker").unwrap();
        let country_col = c.truth.column("country").unwrap();
        let mut map: FxHashMap<String, String> = FxHashMap::default();
        for (m, ct) in maker_col.iter().zip(&country_col) {
            if let (Some(m), Some(ct)) = (m.as_str(), ct.as_str()) {
                if let Some(prev) = map.get(m) {
                    assert_eq!(prev, ct, "maker {m} maps to two countries");
                } else {
                    map.insert(m.to_string(), ct.to_string());
                }
            }
        }
    }

    #[test]
    fn truth_values_are_reachable_in_graph() {
        let c = build_collection(toy_spec());
        // Each non-null maker value must be a 1-hop neighbor of the
        // entity vertex via `made_by`.
        let made_by = c.graph.symbols().get("made_by").unwrap();
        for (i, ev) in c.entity_vertices.iter().enumerate() {
            let truth_maker = c.truth.value_at(i, 1);
            if truth_maker.is_null() {
                continue;
            }
            let found = c
                .graph
                .out_edges(*ev)
                .iter()
                .filter(|e| e.label == made_by)
                .any(|e| &*c.graph.vertex_label_str(e.to) == truth_maker.as_str().unwrap());
            assert!(found, "entity {i}: {truth_maker:?} not in graph");
        }
    }

    #[test]
    fn null_rate_produces_nulls() {
        let c = build_collection(toy_spec());
        let grade = c.truth.column("grade").unwrap();
        let nulls = grade.iter().filter(|v| v.is_null()).count();
        assert!(nulls > 0, "expected some NULL grades");
        assert!(nulls < 20, "expected some non-NULL grades");
    }

    #[test]
    fn reference_keywords_match_truth_columns() {
        let c = build_collection(toy_spec());
        let kws = c.spec.reference_keywords();
        assert_eq!(kws, vec!["maker", "country", "grade"]);
        for k in &kws {
            assert!(c.truth.schema().contains(k));
        }
    }
}
