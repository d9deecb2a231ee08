//! The matcher as it was before vicinities were interned: `String` sets,
//! every candidate's vicinity re-tokenised per (tuple, candidate) pair.
//! Kept for tests only, as the specification the id-based matcher must
//! reproduce pair for pair.

use crate::match_relation::MatchRelation;
use crate::matcher::HerConfig;
use crate::normalize::{canonical, tokens, value_text};
use crate::similarity::{containment, jaccard};
use gsj_common::{FxHashMap, FxHashSet};
use gsj_graph::traversal::k_hop_set;
use gsj_graph::{LabeledGraph, VertexId};
use gsj_relational::Relation;

struct StringIndex {
    vicinity: FxHashMap<VertexId, FxHashSet<String>>,
    blocks: FxHashMap<String, Vec<VertexId>>,
}

fn build_over(g: &LabeledGraph, candidates: &[VertexId], hops: usize) -> StringIndex {
    let mut vicinity: FxHashMap<VertexId, FxHashSet<String>> = FxHashMap::default();
    let mut blocks: FxHashMap<String, Vec<VertexId>> = FxHashMap::default();
    for &v in candidates {
        if !g.is_live(v) {
            continue;
        }
        let labels: FxHashSet<String> = k_hop_set(g, v, hops)
            .into_iter()
            .map(|u| canonical(&g.vertex_label_str(u)))
            .collect();
        let toks: FxHashSet<String> = labels.iter().flat_map(|l| tokens(l)).collect();
        for t in toks {
            blocks.entry(t).or_default().push(v);
        }
        vicinity.insert(v, labels);
    }
    StringIndex { vicinity, blocks }
}

fn score_tuple(
    values: &[(String, FxHashSet<String>)],
    vicinity: &FxHashSet<String>,
    vicinity_tokens: &FxHashSet<String>,
    fuzzy: f64,
) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut hits = 0usize;
    for (text, toks) in values {
        if vicinity.contains(text) {
            hits += 1;
            continue;
        }
        if !toks.is_empty() && containment(toks, vicinity_tokens) >= 0.99 {
            hits += 1;
            continue;
        }
        if vicinity.iter().any(|label| {
            let lt: FxHashSet<String> = tokens(label).into_iter().collect();
            jaccard(toks, &lt) >= fuzzy
        }) {
            hits += 1;
        }
    }
    hits as f64 / values.len() as f64
}

/// `her_match` (`candidates` = `None`) or `her_match_local` over distinct
/// `candidates`, the old way.
pub fn her_match_reference(
    g: &LabeledGraph,
    s: &Relation,
    cfg: &HerConfig,
    candidates: Option<&[VertexId]>,
) -> MatchRelation {
    let all: Vec<VertexId>;
    let index = build_over(
        g,
        match candidates {
            Some(c) => c,
            None => {
                all = g.vertices().collect();
                &all
            }
        },
        cfg.hops,
    );
    let id_pos = s.schema().require(&cfg.id_attr).unwrap();
    let mut matches = MatchRelation::new();
    for row in 0..s.len() {
        let mut values: Vec<(String, FxHashSet<String>)> = Vec::new();
        let mut query_tokens: Vec<String> = Vec::new();
        for i in 0..s.schema().arity() {
            if i == id_pos {
                continue;
            }
            if let Some(text) = value_text(&s.value_at(row, i)) {
                let toks: FxHashSet<String> = tokens(&text).into_iter().collect();
                query_tokens.extend(toks.iter().cloned());
                values.push((text, toks));
            }
        }
        if values.is_empty() {
            continue;
        }
        let mut seen: FxHashSet<VertexId> = FxHashSet::default();
        let mut best: Option<(f64, VertexId)> = None;
        for t in &query_tokens {
            let Some(block) = index.blocks.get(t) else {
                continue;
            };
            if block.len() > cfg.max_block {
                continue;
            }
            for &v in block {
                if !seen.insert(v) {
                    continue;
                }
                let vicinity = &index.vicinity[&v];
                let vicinity_tokens: FxHashSet<String> =
                    vicinity.iter().flat_map(|l| tokens(l)).collect();
                let score = score_tuple(&values, vicinity, &vicinity_tokens, cfg.fuzzy_threshold);
                let better = match best {
                    None => score >= cfg.min_score,
                    Some((bs, bv)) => score > bs || (score == bs && v < bv),
                };
                if better && score >= cfg.min_score {
                    best = Some((score, v));
                }
            }
        }
        if let Some((_, v)) = best {
            matches.push(s.value_at(row, id_pos), v);
        }
    }
    matches
}

mod exactness {
    use super::her_match_reference;
    use crate::blocking::{BlockIndex, Candidates};
    use crate::matcher::{score_tuple, tuple_values};
    use crate::{her_match, her_match_local, HerConfig};
    use gsj_common::Value;
    use gsj_graph::{LabeledGraph, VertexId};
    use gsj_relational::{Relation, Schema};
    use proptest::prelude::*;

    /// A small vocabulary on purpose: shared tokens make blocks collide
    /// and overflow `max_block`; `"G&L"` / `"g l"` canonicalise to one
    /// label, so a vicinity sees duplicates; `"&&"` and `"--"` have no
    /// tokens at all; `"42"` meets `Value::Int(42)` by exact text only.
    const LABELS: &[&str] = &[
        "G&L",
        "g l",
        "G&L ESG",
        "esg fund",
        "Fund",
        "fund alpha",
        "Alpha Beta",
        "beta",
        "&&",
        "--",
        "42",
        "3 5",
        "alpha beta gamma",
        "Gamma",
    ];

    /// Four draws in five come from `LABELS`; the fifth is `text`.
    fn label((pick, text): &(usize, String)) -> String {
        match LABELS.get(*pick) {
            Some(l) => l.to_string(),
            None => text.clone(),
        }
    }

    fn cell((kind, pick): &(u32, (usize, String))) -> Value {
        match kind {
            0..=5 => Value::str(label(pick)),
            // Tokens no vertex carries: they count in |a| only.
            6 | 7 => Value::str(format!("{} zzz", label(pick))),
            8 => Value::str("qqq"),
            9 => Value::Null,
            10 => Value::Int(42),
            _ => Value::Float(3.5),
        }
    }

    fn graph(labels: &[String], edges: &[(usize, usize)], dead: &[usize]) -> LabeledGraph {
        let mut g = LabeledGraph::new();
        let vs: Vec<VertexId> = labels.iter().map(|l| g.add_vertex(l)).collect();
        for &(a, b) in edges {
            let (a, b) = (a % vs.len(), b % vs.len());
            if a != b {
                g.add_edge(vs[a], "e", vs[b]);
            }
        }
        for &d in dead {
            g.remove_vertex(vs[d % vs.len()]);
        }
        g
    }

    fn relation(rows: &[Vec<Value>]) -> Relation {
        let mut s = Relation::empty(Schema::of("s", &["id", "a", "b", "c"]));
        for (i, row) in rows.iter().enumerate() {
            let mut vals = vec![Value::Int(i as i64)];
            vals.extend(row.iter().cloned());
            s.push_values(vals).unwrap();
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn id_matcher_equals_string_matcher(
            labels in prop::collection::vec((0usize..LABELS.len() * 5 / 4, "[a-c]{1,2} [a-c]{0,2}"), 1..24),
            edges in prop::collection::vec((0usize..24, 0usize..24), 0..40),
            dead in prop::collection::vec(0usize..24, 0..3),
            rows in prop::collection::vec(
                prop::collection::vec((0u32..12, (0usize..LABELS.len() * 5 / 4, "[a-c]{1,2} [a-c]{0,2}")), 3),
                0..12,
            ),
            hops in 0usize..3,
            max_block in 1usize..8,
            min_score in 0usize..4,
            fuzzy_threshold in 0usize..4,
            subset in prop::collection::vec(0u8..2, 24),
        ) {
            const LEVELS: [f64; 4] = [0.0, 0.3, 0.5, 1.0];
            let labels: Vec<String> = labels.iter().map(label).collect();
            let rows: Vec<Vec<Value>> = rows.iter().map(|r| r.iter().map(cell).collect()).collect();
            let g = graph(&labels, &edges, &dead);
            let s = relation(&rows);
            let cfg = HerConfig {
                id_attr: "id".into(),
                hops,
                min_score: LEVELS[min_score],
                max_block,
                fuzzy_threshold: LEVELS[fuzzy_threshold],
            };
            prop_assert_eq!(
                her_match(&g, &s, &cfg).unwrap().pairs(),
                her_match_reference(&g, &s, &cfg, None).pairs()
            );
            // Dead vertices stay in the subset: both sides must skip them.
            // The matcher gets it in the shape IncExt hands in: out of
            // order, every vertex listed twice.
            let local: Vec<VertexId> = (0..labels.len() as u32)
                .map(VertexId)
                .filter(|v| subset[v.index()] == 1)
                .collect();
            let twice = local.iter().rev().flat_map(|&v| [v, v]);
            prop_assert_eq!(
                her_match_local(&g, &s, &cfg, twice).unwrap().pairs(),
                her_match_reference(&g, &s, &cfg, Some(&local)).pairs()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bound the matcher prunes by never undercounts: for every
        /// generated candidate, the mask has a bit for each value the
        /// unmasked rule counts as a hit.
        #[test]
        fn mask_covers_every_hit(
            labels in prop::collection::vec((0usize..LABELS.len() * 5 / 4, "[a-c]{1,2} [a-c]{0,2}"), 1..24),
            edges in prop::collection::vec((0usize..24, 0usize..24), 0..40),
            dead in prop::collection::vec(0usize..24, 0..3),
            rows in prop::collection::vec(
                prop::collection::vec((0u32..12, (0usize..LABELS.len() * 5 / 4, "[a-c]{1,2} [a-c]{0,2}")), 3),
                0..12,
            ),
            hops in 0usize..3,
            max_block in 1usize..8,
            fuzzy_threshold in 0usize..4,
        ) {
            let fuzzy = [0.0, 0.3, 0.5, 1.0][fuzzy_threshold];
            let labels: Vec<String> = labels.iter().map(label).collect();
            let rows: Vec<Vec<Value>> = rows.iter().map(|r| r.iter().map(cell).collect()).collect();
            let g = graph(&labels, &edges, &dead);
            let s = relation(&rows);
            let index = BlockIndex::build_over(&g, g.vertices(), hops, max_block);
            let mut candidates = Candidates::default();
            for row in 0..s.len() {
                let values = tuple_values(&s, row, 0, &index);
                index.candidates(&values, fuzzy, &mut candidates);
                for &slot in candidates.slots() {
                    let vicinity = index.vicinity(slot);
                    let hits = score_tuple(&values, &vicinity, fuzzy, !0);
                    prop_assert!(candidates.max_hits(slot) >= hits);
                    prop_assert_eq!(score_tuple(&values, &vicinity, fuzzy, candidates.mask(slot)), hits);
                }
            }
        }
    }
}
