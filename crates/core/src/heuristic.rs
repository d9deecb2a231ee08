//! Heuristic joins (Section IV-B): approximate semantic joins for queries
//! that are *not* well-behaved, without calling HER or RExt online.
//!
//! Three steps for an enrichment join `Q ⋈_A G` with result `S = Q(D,G)`:
//! (1) schema-level matching picks the typed relation `gτ(G)` sharing the
//! most attributes with `R_Q` (keyword coverage counts double — the whole
//! point is to fetch `A`); (2) tuple-level ER matches `S` against
//! `gτ(G)`; (3) the join is emitted with the ER matching as join
//! condition. Link joins ride the same machinery: ER resolves each side
//! to vertices, and the link-join kernel of [`crate::join::link`] (index
//! the resolved vertices, probe, gather) does the rest. Both joins emit
//! by matched row-index pairs and one columnar gather.

use crate::join::link::link_join_unindexed;
use crate::typed::TypedRelation;
use gsj_common::{FxHashMap, GsjError, QueryGovernor, Result};
use gsj_graph::{LabeledGraph, VertexId};
use gsj_her::relation_er::{match_relations, ErConfig};
use gsj_relational::{Relation, Schema};

/// Do two attribute names refer to the same concept? Exact base-name
/// equality, or one containing the other (`pname` vs `name`) — the
/// schema-level matching of [20], [21] simplified to string containment.
fn attrs_alike(a: &str, b: &str) -> bool {
    let (a, b) = (
        Schema::base_name(a).to_lowercase(),
        Schema::base_name(b).to_lowercase(),
    );
    a == b || (a.len() >= 3 && b.contains(&a)) || (b.len() >= 3 && a.contains(&b))
}

/// Schema-level matching score: shared (alike) attribute names plus
/// (doubled) coverage of the requested keywords.
fn schema_affinity(s: &Schema, typed: &TypedRelation, keywords: &[String]) -> usize {
    let shared = typed
        .relation
        .schema()
        .attrs()
        .iter()
        .filter(|a| a.as_str() != "vid")
        .filter(|a| s.attrs().iter().any(|sa| attrs_alike(sa, a)))
        .count();
    let kw_cover = keywords
        .iter()
        .filter(|k| typed.relation.schema().contains(k))
        .count();
    shared + 2 * kw_cover
}

/// Pick the typed relation most relevant to `s` ("we mark a relation
/// gτ(G) as relevant to Q if Rτ and RQ share the most common attributes").
pub fn pick_typed<'a>(
    s: &Schema,
    typed: &'a FxHashMap<String, TypedRelation>,
    keywords: &[String],
) -> Result<&'a TypedRelation> {
    let mut entries: Vec<(&String, &TypedRelation)> = typed.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    entries
        .into_iter()
        .map(|(_, t)| (schema_affinity(s, t, keywords), t))
        .max_by_key(|(score, _)| *score)
        .filter(|(score, _)| *score > 0)
        .map(|(_, t)| t)
        .ok_or_else(|| {
            GsjError::Unsupported(
                "heuristic join: no typed relation is relevant to the query schema".into(),
            )
        })
}

/// Heuristic enrichment join: extend each row of `s` with the requested
/// keyword attributes of its ER-matched `gτ(G)` row. Rows with no ER match
/// are dropped (as unmatched tuples are in exact enrichment joins).
pub fn heuristic_enrichment(
    s: &Relation,
    id_attr: Option<&str>,
    keywords: &[String],
    typed: &FxHashMap<String, TypedRelation>,
    er_cfg: &ErConfig,
) -> Result<Relation> {
    let g_tau = pick_typed(s.schema(), typed, keywords)?;
    let pairs = match_relations(s, &g_tau.relation, id_attr, Some("vid"), er_cfg)?;
    // Output schema: S's attrs + vid + the requested keywords that gτ has.
    let mut attrs = s.schema().attrs().to_vec();
    attrs.push("vid".into());
    let kept: Vec<&String> = keywords
        .iter()
        .filter(|k| g_tau.relation.schema().contains(k))
        .collect();
    attrs.extend(kept.iter().map(|k| (*k).clone()));
    let schema = Schema::new(format!("{}_hj", s.schema().name()), attrs)?;
    let mut kept_pos = vec![g_tau.relation.schema().require("vid")?];
    for k in kept {
        kept_pos.push(g_tau.relation.schema().require(k)?);
    }
    let (si, ti): (Vec<u32>, Vec<u32>) = pairs.iter().map(|&(i, j)| (i as u32, j as u32)).unzip();
    Relation::gather_concat(s, &si, &g_tau.relation, &ti, Some(&kept_pos), schema)
}

/// Heuristic link join: resolve each side's rows to vertices through ER
/// against the most relevant typed relation, then join the rows whose
/// vertices are within `k` hops. Schemas must have disjoint attribute
/// names. The index build observes the governor.
#[allow(clippy::too_many_arguments)]
pub fn heuristic_link(
    s1: &Relation,
    id1: Option<&str>,
    s2: &Relation,
    id2: Option<&str>,
    typed: &FxHashMap<String, TypedRelation>,
    g: &LabeledGraph,
    k: usize,
    er_cfg: &ErConfig,
    gov: &QueryGovernor,
) -> Result<Relation> {
    let resolve = |s: &Relation, id: Option<&str>| -> Result<Vec<Option<VertexId>>> {
        let g_tau = pick_typed(s.schema(), typed, &[])?;
        let vid_pos = g_tau.relation.schema().require("vid")?;
        let pairs = match_relations(s, &g_tau.relation, id, Some("vid"), er_cfg)?;
        let mut vids = vec![None; s.len()];
        for (i, j) in pairs {
            vids[i] = VertexId::from_value(&g_tau.relation.value_at(j, vid_pos));
        }
        Ok(vids)
    };
    let v1 = resolve(s1, id1)?;
    let v2 = resolve(s2, id2)?;
    let name = format!("{}_hlj_{}", s1.schema().name(), s2.schema().name());
    link_join_unindexed(s1, &v1, s2, &v2, g, k, name, gov)
}

/// Helper for building typed stores in tests and the engine: index typed
/// relations by type name.
pub fn typed_store(relations: Vec<TypedRelation>) -> FxHashMap<String, TypedRelation> {
    relations.into_iter().map(|t| (t.ty.clone(), t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discover::Discovery;
    use gsj_common::Value;

    fn mk_typed(ty: &str, attrs: &[&str], rows: Vec<Vec<Value>>) -> TypedRelation {
        let mut rel = Relation::empty(Schema::of(&format!("g_{ty}"), attrs));
        for r in rows {
            rel.push_values(r).unwrap();
        }
        TypedRelation {
            ty: ty.into(),
            discovery: Discovery {
                clusters: vec![],
                schema: rel.schema().clone(),
                refined: vec![],
                paths: Default::default(),
                keyword_embs: vec![],
                total_paths: 0,
                word_dim: 0,
            },
            relation: rel,
        }
    }

    fn store() -> FxHashMap<String, TypedRelation> {
        typed_store(vec![
            mk_typed(
                "product",
                &["vid", "name", "company"],
                vec![
                    vec![
                        Value::Int(4),
                        Value::str("RainForest"),
                        Value::str("company2"),
                    ],
                    vec![Value::Int(2), Value::str("Beta"), Value::str("company1")],
                ],
            ),
            mk_typed(
                "person",
                &["vid", "fullname"],
                vec![vec![Value::Int(9), Value::str("Bob Smith")]],
            ),
        ])
    }

    #[test]
    fn picks_schema_with_most_overlap() {
        let s = Schema::of("q", &["pid", "name", "risk"]);
        let typed = store();
        let t = pick_typed(&s, &typed, &["company".to_string()]).unwrap();
        assert_eq!(t.ty, "product");
    }

    #[test]
    fn heuristic_enrichment_attaches_keyword_attrs() {
        // Example 11: answer tuples of Q' linked with gproduct rows by ER.
        let mut s = Relation::empty(Schema::of("q", &["pid", "name", "risk"]));
        s.push_values(vec![
            Value::str("fd4"),
            Value::str("RainForest"),
            Value::str("medium"),
        ])
        .unwrap();
        let r = heuristic_enrichment(
            &s,
            Some("pid"),
            &["company".to_string()],
            &store(),
            &ErConfig::default(),
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        let pos = r.schema().require("company").unwrap();
        assert_eq!(r.value_at(0, pos), Value::str("company2"));
    }

    #[test]
    fn unmatched_rows_are_dropped() {
        let mut s = Relation::empty(Schema::of("q", &["pid", "name", "risk"]));
        s.push_values(vec![
            Value::str("x"),
            Value::str("Unknown Entity Here"),
            Value::str("low"),
        ])
        .unwrap();
        let r = heuristic_enrichment(
            &s,
            Some("pid"),
            &["company".to_string()],
            &store(),
            &ErConfig::default(),
        )
        .unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn empty_typed_store_is_an_error() {
        let s = Relation::empty(Schema::of("q", &["pid"]));
        let empty = FxHashMap::default();
        assert!(matches!(
            heuristic_enrichment(&s, None, &[], &empty, &ErConfig::default()),
            Err(GsjError::Unsupported(_))
        ));
    }

    /// Graph of five vertices with vid4 (RainForest) one hop from vid2
    /// (Beta), and a one-row relation per side naming each product.
    fn link_setting() -> (LabeledGraph, Relation, Relation) {
        let mut g = LabeledGraph::new();
        let ids: Vec<VertexId> = (0..5).map(|i| g.add_vertex(&format!("v{i}"))).collect();
        g.add_edge(ids[4], "rel", ids[2]);
        let mut s1 = Relation::empty(Schema::of("a", &["a.pid", "a.name"]));
        s1.push_values(vec![Value::str("x"), Value::str("RainForest")])
            .unwrap();
        let mut s2 = Relation::empty(Schema::of("b", &["b.pid", "b.name"]));
        s2.push_values(vec![Value::str("y"), Value::str("Beta")])
            .unwrap();
        (g, s1, s2)
    }

    fn link(
        typed: &FxHashMap<String, TypedRelation>,
        k: usize,
        gov: &QueryGovernor,
    ) -> Result<Relation> {
        let (g, s1, s2) = link_setting();
        let er = ErConfig::default();
        heuristic_link(
            &s1,
            Some("a.pid"),
            &s2,
            Some("b.pid"),
            typed,
            &g,
            k,
            &er,
            gov,
        )
    }

    #[test]
    fn heuristic_link_uses_er_plus_connectivity() {
        let gov = QueryGovernor::unlimited();
        let r = link(&store(), 1, &gov).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.schema().attrs(), &["a.pid", "a.name", "b.pid", "b.name"]);
        // k = 0 disconnects them.
        assert!(link(&store(), 0, &gov).unwrap().is_empty());
    }

    #[test]
    fn out_of_range_vid_resolves_to_no_vertex() {
        // Beta's `vid` narrows to 2 under an unchecked `as u32` — a live
        // vertex one hop from RainForest. Checked, it is no vertex at all.
        let wrapped = (1i64 << 32) + 2;
        assert_eq!(VertexId::from_value(&Value::Int(wrapped)), None);
        assert_eq!(VertexId::from_value(&Value::Int(-1)), None);
        let typed = typed_store(vec![mk_typed(
            "product",
            &["vid", "name"],
            vec![
                vec![Value::Int(4), Value::str("RainForest")],
                vec![Value::Int(wrapped), Value::str("Beta")],
            ],
        )]);
        let r = link(&typed, 1, &QueryGovernor::unlimited()).unwrap();
        assert!(r.is_empty(), "joined through VertexId(2): {}", r.to_table());
    }

    #[test]
    fn stopped_governor_stops_heuristic_link() {
        let cancelled = QueryGovernor::unlimited();
        cancelled.cancel();
        assert_eq!(link(&store(), 1, &cancelled), Err(GsjError::Cancelled));
        let expired = QueryGovernor::builder()
            .deadline_at(std::time::Instant::now() - std::time::Duration::from_millis(1))
            .build();
        assert!(matches!(
            link(&store(), 1, &expired),
            Err(GsjError::DeadlineExceeded(_))
        ));
    }
}
