//! The HER matcher: tuples of a relation against vertices of a graph.

use crate::blocking::{BlockIndex, Candidates, QueryValue, Vicinity};
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

/// Score one tuple against one vertex vicinity: the number of the
/// tuple's non-null, non-id attribute values found in the vicinity either
/// exactly, by token containment, or by token Jaccard with some one label
/// above the fuzzy threshold. Only values whose bit is set in `mask`
/// ([`Candidates::mask`]) are tried; the others provably miss.
pub(crate) fn score_tuple(
    values: &[QueryValue],
    vicinity: &Vicinity<'_>,
    fuzzy: f64,
    mask: u64,
) -> usize {
    values
        .iter()
        .enumerate()
        .filter(|&(i, val)| {
            (i >= u64::BITS as usize || mask >> i & 1 == 1)
                && (val
                    .label
                    .is_some_and(|l| vicinity.labels.binary_search(&l).is_ok())
                    || val.containment(vicinity.tokens) >= 0.99
                    || vicinity
                        .label_token_sets()
                        .any(|label| val.jaccard(label) >= fuzzy))
        })
        .count()
}

/// The normalized non-null attribute values of one tuple (id excluded —
/// ids are local to D), tokenised and resolved against the index.
pub(crate) fn tuple_values(
    s: &Relation,
    row: usize,
    id_pos: usize,
    index: &BlockIndex,
) -> Vec<QueryValue> {
    (0..s.schema().arity())
        .filter(|&i| i != id_pos)
        .filter_map(|i| value_text(&s.value_at(row, i)))
        .map(|text| index.query_value(&text))
        .collect()
}

/// Compute the match relation `f(S,G)`.
///
/// For each tuple: block on its value tokens, bound every candidate's
/// score by the values that share a token with its vicinity, score the
/// candidates that can still win, best bound first, and accept the best
/// one scoring at least `min_score` (ties broken by lower vertex id,
/// deterministically).
///
/// The block index lives for this call only: building it is about a
/// tenth of a Baseline query (DESIGN.md §8), and an index that outlived
/// the call would have to follow every `ΔG`.
pub fn her_match(g: &LabeledGraph, s: &Relation, cfg: &HerConfig) -> Result<MatchRelation> {
    her_match_local(g, s, cfg, g.vertices())
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
    let index = {
        let mut span = gsj_obs::span("her.block_index");
        let index = BlockIndex::build_over(g, candidates, cfg.hops, cfg.max_block);
        span.field("hops", cfg.hops);
        index
    };
    her_match_indexed(s, cfg, &index)
}

fn her_match_indexed(s: &Relation, cfg: &HerConfig, index: &BlockIndex) -> Result<MatchRelation> {
    static TUPLES: gsj_obs::LazyCounter = gsj_obs::LazyCounter::new("gsj_her_tuples_total");
    static SCORED: gsj_obs::LazyCounter =
        gsj_obs::LazyCounter::new("gsj_her_candidates_scored_total");
    static PRUNED: gsj_obs::LazyCounter =
        gsj_obs::LazyCounter::new("gsj_her_candidates_pruned_total");
    static MATCHED: gsj_obs::LazyCounter = gsj_obs::LazyCounter::new("gsj_her_matched_total");
    let mut span = gsj_obs::span("her.match");
    // Fault site DESIGN.md §11: critical — a failed HER match has no
    // in-stage recovery; the strategy layer above decides whether to
    // degrade to a different join implementation.
    gsj_faults::fault_point("her.match", gsj_faults::FaultClass::Critical)?;
    let (mut generated, mut scored) = (0u64, 0u64);
    let id_pos = s.schema().require(&cfg.id_attr)?;
    let mut matches = MatchRelation::new();
    let mut candidates = Candidates::default();
    let mut group: Vec<u32> = Vec::new();
    for row in 0..s.len() {
        let values = tuple_values(s, row, id_pos, index);
        if values.is_empty() {
            continue;
        }
        index.candidates(&values, cfg.fuzzy_threshold, &mut candidates);
        generated += candidates.slots().len() as u64;
        // Best-first: candidates in (bound descending, vertex id
        // ascending) order, one bound level at a time. A score never
        // exceeds its bound (same division, smaller numerator), so once a
        // level's bound is below `min_score` or below the best score,
        // nothing further down can be accepted or win; at an equal bound
        // only a lower vertex id still can. The winner under "score
        // descending, vertex id ascending" does not depend on the order
        // candidates are visited in. Slots ascend with vertex id, so the
        // best is kept as (score, slot).
        let n = values.len();
        let mut best: Option<(f64, u32)> = None;
        let top = candidates.slots().iter().map(|&c| candidates.max_hits(c));
        let top = top.max().unwrap_or(0);
        for level in (0..=top).rev() {
            let bound = level as f64 / n as f64;
            if bound < cfg.min_score || best.is_some_and(|(bs, _)| bound < bs) {
                break;
            }
            group.clear();
            group.extend((candidates.slots().iter()).filter(|&&c| candidates.max_hits(c) == level));
            group.sort_unstable();
            for &slot in &group {
                if best.is_some_and(|(bs, b)| bs == bound && b < slot) {
                    break; // the rest of the level has higher ids still
                }
                scored += 1;
                let hits = score_tuple(
                    &values,
                    &index.vicinity(slot),
                    cfg.fuzzy_threshold,
                    candidates.mask(slot),
                );
                let score = hits as f64 / n as f64;
                let better = match best {
                    None => true,
                    Some((bs, b)) => score > bs || (score == bs && slot < b),
                };
                if better && score >= cfg.min_score {
                    best = Some((score, slot));
                }
            }
        }
        if let Some((_, slot)) = best {
            matches.push(s.value_at(row, id_pos), index.vertex(slot));
        }
    }
    let pruned = generated - scored;
    TUPLES.add(s.len() as u64);
    SCORED.add(scored);
    PRUNED.add(pruned);
    MATCHED.add(matches.len() as u64);
    span.field("tuples", s.len())
        .field("candidates", generated)
        .field("scored", scored)
        .field("pruned", pruned)
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

    #[test]
    fn more_than_64_values_match_unpruned() {
        // 70 attributes: a candidate's mask has no bit for the last six,
        // so nothing may be pruned — and the pairs are the reference's.
        let names: Vec<String> = (0..70).map(|i| format!("a{i}")).collect();
        let mut attrs = vec!["id"];
        attrs.extend(names.iter().map(String::as_str));
        let mut s = Relation::empty(Schema::of("wide", &attrs));
        let mut g = LabeledGraph::new();
        for e in 0..3 {
            let v = g.add_vertex(&format!("entity{e}"));
            let mut row = vec![Value::Int(e)];
            for i in 0..70 {
                // Entity 0 keeps its last 65 properties in the graph, 1
                // the last 40, 2 the last 10 (below `min_score`): no
                // score reaches the bound of 70/70 every candidate has.
                let text = format!("e{e}p{i} shared{}", i % 7);
                if i >= [5, 30, 60][e as usize] {
                    let p = g.add_vertex(&text);
                    g.add_edge(v, "prop", p);
                }
                row.push(Value::str(text));
            }
            s.push_values(row).unwrap();
        }
        let cfg = HerConfig::default();
        let (m, spans) = gsj_obs::capture(|| her_match(&g, &s, &cfg).unwrap());
        assert_eq!(m.len(), 2);
        assert_eq!(
            m.pairs(),
            crate::reference::her_match_reference(&g, &s, &cfg, None).pairs()
        );
        let fields = &spans
            .iter()
            .find(|sp| sp.label == "her.match")
            .unwrap()
            .fields;
        let pruned = fields.iter().find(|(k, _)| *k == "pruned").unwrap();
        assert_eq!(pruned.1.to_string(), "0");
    }

    #[test]
    fn lower_id_wins_a_tie_from_a_lower_bound_group() {
        // `low` and `high` both score 2/3. `high` shares a token with all
        // three values (bound 3/3, visited first, reached through the
        // first value's block); `low` only with the last two (bound 2/3).
        // An equal bound is not a reason to stop: the lower id wins.
        let mut g = LabeledGraph::new();
        let low = g.add_vertex("low");
        for val in ["beta", "gamma"] {
            let v = g.add_vertex(val);
            g.add_edge(low, "p", v);
        }
        let high = g.add_vertex("high");
        for val in ["alpha w x y z", "beta", "gamma"] {
            let v = g.add_vertex(val);
            g.add_edge(high, "p", v);
        }
        let mut s = Relation::empty(Schema::of("s", &["id", "a", "b", "c"]));
        s.push_values(vec![
            Value::str("t"),
            Value::str("alpha one two"),
            Value::str("beta"),
            Value::str("gamma"),
        ])
        .unwrap();
        let cfg = HerConfig::default();
        let m = her_match(&g, &s, &cfg).unwrap();
        assert_eq!(m.vertex_of(&Value::str("t")), Some(low));
        assert_eq!(
            m.pairs(),
            crate::reference::her_match_reference(&g, &s, &cfg, None).pairs()
        );
        // The same tuple without `low`: `high` is a match on its own.
        let others = g.vertices().filter(|&v| v != low);
        let m = her_match_local(&g, &s, &cfg, others).unwrap();
        assert_eq!(m.vertex_of(&Value::str("t")), Some(high));
    }
}
