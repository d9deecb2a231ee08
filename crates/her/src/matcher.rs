//! The HER matcher: tuples of a relation against vertices of a graph.

use crate::blocking::{BlockIndex, QueryValue, Vicinity};
use crate::match_relation::MatchRelation;
use crate::normalize::value_text;
use gsj_common::Result;
use gsj_graph::{LabeledGraph, VertexId};
use gsj_relational::Relation;

/// HER parameters.
#[derive(Debug, Clone)]
pub struct HerConfig {
    /// Tuple-id attribute of the input relation (the primary key of
    /// Section II-A).
    pub id_attr: String,
    /// Vicinity radius for blocking/scoring.
    pub hops: usize,
    /// Minimum fraction of non-null attributes that must be found in a
    /// vertex's vicinity to accept the match.
    pub min_score: f64,
    /// Token blocks larger than this are treated as stop words.
    pub max_block: usize,
    /// Token-similarity threshold for a fuzzy attribute hit.
    pub fuzzy_threshold: f64,
}

impl Default for HerConfig {
    fn default() -> Self {
        HerConfig {
            id_attr: "id".into(),
            hops: 1,
            min_score: 0.5,
            max_block: 256,
            fuzzy_threshold: 0.5,
        }
    }
}

impl HerConfig {
    /// Config keyed on a specific id attribute.
    pub fn with_id(id_attr: impl Into<String>) -> Self {
        HerConfig {
            id_attr: id_attr.into(),
            ..HerConfig::default()
        }
    }
}

/// Score one tuple against one vertex vicinity: the fraction of the
/// tuple's non-null, non-id attribute values found in the vicinity either
/// exactly, by token containment, or by token Jaccard with some one label
/// above the fuzzy threshold.
fn score_tuple(values: &[QueryValue], vicinity: &Vicinity<'_>, fuzzy: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let hits = values
        .iter()
        .filter(|val| {
            val.label
                .is_some_and(|l| vicinity.labels.binary_search(&l).is_ok())
                || val.containment(vicinity.tokens) >= 0.99
                || vicinity
                    .label_token_sets()
                    .any(|label| val.jaccard(label) >= fuzzy)
        })
        .count();
    hits as f64 / values.len() as f64
}

/// Compute the match relation `f(S,G)`.
///
/// For each tuple: block on its value tokens, score every candidate
/// vertex's vicinity, and accept the best candidate scoring at least
/// `min_score` (ties broken by lower vertex id, deterministically).
///
/// The block index lives for this call only: once scoring reads
/// precomputed id sets, building it is a small share of the match
/// (DESIGN.md §8), and an index that outlived the call would have to
/// follow every `ΔG`.
pub fn her_match(g: &LabeledGraph, s: &Relation, cfg: &HerConfig) -> Result<MatchRelation> {
    let index = {
        let mut span = gsj_obs::span("her.block_index");
        let index = BlockIndex::build(g, cfg.hops, cfg.max_block);
        span.field("hops", cfg.hops);
        index
    };
    her_match_indexed(s, cfg, &index)
}

/// [`her_match`] over a restricted candidate vertex set: the block index
/// covers only `candidates`. IncExt uses this to re-match tuples against
/// the vertices an update could have affected (plus their previous
/// matches) without re-indexing the whole graph.
pub fn her_match_local(
    g: &LabeledGraph,
    s: &Relation,
    cfg: &HerConfig,
    candidates: impl IntoIterator<Item = VertexId>,
) -> Result<MatchRelation> {
    let index = BlockIndex::build_over(g, candidates, cfg.hops, cfg.max_block);
    her_match_indexed(s, cfg, &index)
}

fn her_match_indexed(s: &Relation, cfg: &HerConfig, index: &BlockIndex) -> Result<MatchRelation> {
    static TUPLES: gsj_obs::LazyCounter = gsj_obs::LazyCounter::new("gsj_her_tuples_total");
    static SCORED: gsj_obs::LazyCounter =
        gsj_obs::LazyCounter::new("gsj_her_candidates_scored_total");
    static MATCHED: gsj_obs::LazyCounter = gsj_obs::LazyCounter::new("gsj_her_matched_total");
    let mut span = gsj_obs::span("her.match");
    // Fault site DESIGN.md §11: critical — a failed HER match has no
    // in-stage recovery; the strategy layer above decides whether to
    // degrade to a different join implementation.
    gsj_faults::fault_point("her.match", gsj_faults::FaultClass::Critical)?;
    let mut scored = 0u64;
    let id_pos = s.schema().require(&cfg.id_attr)?;
    let mut matches = MatchRelation::new();
    for row in 0..s.len() {
        // Normalized attribute values (id excluded — ids are local to D),
        // tokenised and resolved against the index once per tuple.
        let values: Vec<QueryValue> = (0..s.schema().arity())
            .filter(|&i| i != id_pos)
            .filter_map(|i| value_text(&s.value_at(row, i)))
            .map(|text| index.query_value(&text))
            .collect();
        if values.is_empty() {
            continue;
        }
        let mut best: Option<(f64, VertexId)> = None;
        for v in index.candidates(&values) {
            scored += 1;
            let vicinity = index.vicinity(v).expect("candidates are indexed");
            let score = score_tuple(&values, &vicinity, cfg.fuzzy_threshold);
            let better = match best {
                None => true,
                Some((bs, bv)) => score > bs || (score == bs && v < bv),
            };
            if better && score >= cfg.min_score {
                best = Some((score, v));
            }
        }
        if let Some((_, v)) = best {
            matches.push(s.value_at(row, id_pos), v);
        }
    }
    TUPLES.add(s.len() as u64);
    SCORED.add(scored);
    MATCHED.add(matches.len() as u64);
    span.field("tuples", s.len())
        .field("scored", scored)
        .field("index_vertices", index.vertex_count())
        .field("matched", matches.len());
    Ok(matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsj_common::Value;
    use gsj_relational::Schema;

    /// The running example: products in D and product vertices in G whose
    /// name/issuer/type live one hop away.
    fn setting() -> (LabeledGraph, Relation, VertexId, VertexId) {
        let mut g = LabeledGraph::new();
        let pid1 = g.add_vertex("pid1");
        for (lab, val) in [("name", "G&L ESG"), ("issue", "G&L"), ("type", "Funds")] {
            let v = g.add_vertex(val);
            g.add_edge(pid1, lab, v);
        }
        let pid2 = g.add_vertex("pid2");
        for (lab, val) in [("name", "Beta"), ("issue", "company1"), ("type", "Stocks")] {
            let v = g.add_vertex(val);
            g.add_edge(pid2, lab, v);
        }
        let mut s = Relation::empty(Schema::of("product", &["pid", "name", "issuer", "type"]));
        s.push_values(vec![
            Value::str("fd1"),
            Value::str("G&L ESG"),
            Value::str("G&L"),
            Value::str("Funds"),
        ])
        .unwrap();
        s.push_values(vec![
            Value::str("fd2"),
            Value::str("Beta"),
            Value::str("company1"),
            Value::str("Stocks"),
        ])
        .unwrap();
        (g, s, pid1, pid2)
    }

    #[test]
    fn matches_products_to_vertices() {
        let (g, s, pid1, pid2) = setting();
        let m = her_match(&g, &s, &HerConfig::with_id("pid")).unwrap();
        assert_eq!(m.vertex_of(&Value::str("fd1")), Some(pid1));
        assert_eq!(m.vertex_of(&Value::str("fd2")), Some(pid2));
    }

    #[test]
    fn unmatched_tuple_is_absent() {
        let (g, mut s, _, _) = setting();
        s.push_values(vec![
            Value::str("fd9"),
            Value::str("Nonexistent Fund"),
            Value::str("Nobody"),
            Value::str("Mystery"),
        ])
        .unwrap();
        let m = her_match(&g, &s, &HerConfig::with_id("pid")).unwrap();
        assert_eq!(m.vertex_of(&Value::str("fd9")), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn all_null_tuple_is_skipped() {
        let (g, mut s, _, _) = setting();
        s.push_values(vec![
            Value::str("fdx"),
            Value::Null,
            Value::Null,
            Value::Null,
        ])
        .unwrap();
        let m = her_match(&g, &s, &HerConfig::with_id("pid")).unwrap();
        assert_eq!(m.vertex_of(&Value::str("fdx")), None);
    }

    #[test]
    fn min_score_gates_partial_matches() {
        let (g, _, _, _) = setting();
        let mut s = Relation::empty(Schema::of("product", &["pid", "name", "issuer", "type"]));
        // Only one of three attributes matches pid1's vicinity.
        s.push_values(vec![
            Value::str("fdz"),
            Value::str("G&L ESG"),
            Value::str("Wrong Issuer"),
            Value::str("Wrong Type"),
        ])
        .unwrap();
        let strict = HerConfig {
            min_score: 0.9,
            ..HerConfig::with_id("pid")
        };
        assert!(her_match(&g, &s, &strict).unwrap().is_empty());
        let lenient = HerConfig {
            min_score: 0.3,
            ..HerConfig::with_id("pid")
        };
        assert_eq!(her_match(&g, &s, &lenient).unwrap().len(), 1);
    }

    #[test]
    fn missing_id_attr_is_an_error() {
        let (g, s, _, _) = setting();
        let bad = HerConfig::with_id("nope");
        assert!(her_match(&g, &s, &bad).is_err());
    }
}
