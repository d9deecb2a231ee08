//! Extraction without reference tuples (Section III-A, "Extraction without
//! reference tuples"): for each vertex *type* `τ`, derive a relation schema
//! `Rτ` and instance `gτ(G)` from the graph alone.
//!
//! These typed relations are the offline substrate of *heuristic joins*
//! (Section IV-B), whose assumption is "that graph G is typed, i.e., the
//! types of its entities can be determined by their labels". Here a
//! vertex's type is the label of its neighbor over a typing edge (`type`
//! or `is_a` by default — the typing edges of Fig. 1).

use crate::discover::Discovery;
use crate::rext::Rext;
use gsj_common::{FxHashMap, Result, Value};
use gsj_graph::{LabeledGraph, VertexId};
use gsj_her::MatchRelation;
use gsj_relational::Relation;

/// Typed-extraction parameters.
#[derive(Debug, Clone)]
pub struct TypedConfig {
    /// Edge labels that denote typing.
    pub type_edges: Vec<String>,
    /// Keywords `Aτ` per type (the pre-determined reference keywords of
    /// Section IV); types not present fall back to `default_keywords`.
    pub keywords: FxHashMap<String, Vec<String>>,
    /// Fallback keyword list.
    pub default_keywords: Vec<String>,
    /// Types with fewer entity vertices are skipped.
    pub min_entities: usize,
}

impl Default for TypedConfig {
    fn default() -> Self {
        TypedConfig {
            type_edges: vec!["type".into(), "is_a".into()],
            keywords: FxHashMap::default(),
            default_keywords: vec!["name".into(), "category".into()],
            min_entities: 2,
        }
    }
}

/// One extracted typed relation.
#[derive(Debug, Clone)]
pub struct TypedRelation {
    /// The type `τ`.
    pub ty: String,
    /// The discovery behind `Rτ` (kept for re-use).
    pub discovery: Discovery,
    /// The instance `gτ(G)`, schema `Rτ(vid, A...)`.
    pub relation: Relation,
}

/// Group entity vertices by their type label.
pub fn vertices_by_type(
    g: &LabeledGraph,
    type_edges: &[String],
) -> FxHashMap<String, Vec<VertexId>> {
    let type_syms: Vec<_> = type_edges
        .iter()
        .filter_map(|l| g.symbols().get(l))
        .collect();
    let mut out: FxHashMap<String, Vec<VertexId>> = FxHashMap::default();
    for v in g.vertices() {
        for e in g.out_edges(v) {
            if type_syms.contains(&e.label) {
                let ty = g.vertex_label_str(e.to).to_string();
                out.entry(ty).or_default().push(v);
                break;
            }
        }
    }
    out
}

/// Run typed extraction for every type with enough entities.
///
/// Per the paper, this is the same pipeline as reference-tuple extraction
/// except (1) only the entity vertices of one type are considered at a
/// time and (2) the ranking function's second term is empty.
pub fn extract_typed(
    g: &LabeledGraph,
    rext: &Rext,
    cfg: &TypedConfig,
) -> Result<FxHashMap<String, TypedRelation>> {
    let mut out = FxHashMap::default();
    let mut grouped: Vec<(String, Vec<VertexId>)> =
        vertices_by_type(g, &cfg.type_edges).into_iter().collect();
    grouped.sort_by(|a, b| a.0.cmp(&b.0));
    for (ty, vertices) in grouped {
        if vertices.len() < cfg.min_entities {
            continue;
        }
        // Pseudo match relation: each entity vertex "matches itself".
        let mut matches = MatchRelation::new();
        for &v in &vertices {
            matches.push(Value::Int(v.0 as i64), v);
        }
        let keywords = cfg
            .keywords
            .get(&ty)
            .unwrap_or(&cfg.default_keywords)
            .clone();
        let schema_name = format!("g_{}", gsj_her::normalize::canonical(&ty).replace(' ', "_"));
        let discovery = rext.discover(g, &matches, None, &keywords, &schema_name)?;
        let relation = rext.extract(g, &matches, &discovery)?;
        out.insert(
            ty.clone(),
            TypedRelation {
                ty,
                discovery,
                relation,
            },
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PathKind, RExtConfig};

    fn typed_graph() -> LabeledGraph {
        let mut g = LabeledGraph::new();
        let product_ty = g.add_vertex("Product");
        let person_ty = g.add_vertex("Person");
        for i in 0..3 {
            let p = g.add_vertex(&format!("pid{i}"));
            g.add_edge(p, "type", product_ty);
            let n = g.add_vertex(&format!("Fund {i}"));
            g.add_edge(p, "name", n);
        }
        let solo = g.add_vertex("cid0");
        g.add_edge(solo, "is_a", person_ty);
        g
    }

    #[test]
    fn vertices_grouped_by_type_label() {
        let g = typed_graph();
        let groups = vertices_by_type(&g, &["type".into(), "is_a".into()]);
        assert_eq!(groups["Product"].len(), 3);
        assert_eq!(groups["Person"].len(), 1);
    }

    #[test]
    fn extraction_produces_relation_per_sufficient_type() {
        let g = typed_graph();
        let rext = Rext::train(
            &g,
            RExtConfig {
                k: 2,
                h: 4,
                m: 1,
                path: PathKind::Random,
                ..RExtConfig::default()
            },
        )
        .unwrap();
        let typed = extract_typed(&g, &rext, &TypedConfig::default()).unwrap();
        // Person has 1 vertex < min_entities 2 → skipped.
        assert!(typed.contains_key("Product"));
        assert!(!typed.contains_key("Person"));
        let tr = &typed["Product"];
        assert_eq!(tr.relation.len(), 3);
        assert_eq!(tr.relation.schema().attrs()[0], "vid");
        assert!(tr.relation.schema().name().starts_with("g_product"));
    }

    #[test]
    fn untyped_graph_yields_nothing() {
        let mut g = LabeledGraph::new();
        let a = g.add_vertex("x");
        let b = g.add_vertex("y");
        g.add_edge(a, "rel", b);
        let rext = Rext::train(
            &g,
            RExtConfig {
                path: PathKind::Random,
                ..RExtConfig::default()
            },
        )
        .unwrap();
        let typed = extract_typed(&g, &rext, &TypedConfig::default()).unwrap();
        assert!(typed.is_empty());
    }
}
