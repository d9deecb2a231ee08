//! Tuple-vs-tuple entity resolution — the ER join condition of *heuristic
//! joins* (Section IV-B step 2): match the sub-query result `S` against an
//! extracted typed relation `gτ(G)` with "a simple UDF as the join
//! condition ... to check whether t ∈ S and t' ∈ gτ(G) make a match".

use crate::normalize::{tokens, value_text};
use crate::similarity::jaccard;
use gsj_common::{FxHashMap, FxHashSet, Result};
use gsj_relational::Relation;

/// Pairwise tuple-ER parameters.
#[derive(Debug, Clone)]
pub struct ErConfig {
    /// Minimum Jaccard over pooled value tokens to declare a match.
    pub threshold: f64,
    /// Blocks bigger than this are stop words.
    pub max_block: usize,
}

impl Default for ErConfig {
    fn default() -> Self {
        ErConfig {
            threshold: 0.25,
            max_block: 512,
        }
    }
}

fn tuple_tokens(rel: &Relation, row: usize, skip: Option<usize>) -> FxHashSet<String> {
    (0..rel.schema().arity())
        .filter(|i| Some(*i) != skip)
        .filter_map(|i| value_text(&rel.value_at(row, i)))
        .flat_map(|t| tokens(&t))
        .collect()
}

/// Match rows of `a` against rows of `b` by pooled-token Jaccard, with
/// token blocking on `b`. Returns `(row_a, row_b)` index pairs; each row of
/// `a` matches at most its best row of `b` (ties → lower index).
///
/// `skip_a` / `skip_b` optionally exclude an id column (ids are local
/// surrogates and must not influence ER).
pub fn match_relations(
    a: &Relation,
    b: &Relation,
    skip_a: Option<&str>,
    skip_b: Option<&str>,
    cfg: &ErConfig,
) -> Result<Vec<(usize, usize)>> {
    let skip_a = match skip_a {
        Some(attr) => Some(a.schema().require(attr)?),
        None => None,
    };
    let skip_b = match skip_b {
        Some(attr) => Some(b.schema().require(attr)?),
        None => None,
    };
    // Index b by token.
    let mut blocks: FxHashMap<String, Vec<usize>> = FxHashMap::default();
    let mut b_tokens: Vec<FxHashSet<String>> = Vec::with_capacity(b.len());
    for j in 0..b.len() {
        let toks = tuple_tokens(b, j, skip_b);
        for t in &toks {
            blocks.entry(t.clone()).or_default().push(j);
        }
        b_tokens.push(toks);
    }
    let mut out = Vec::new();
    for i in 0..a.len() {
        let toks = tuple_tokens(a, i, skip_a);
        let mut seen: FxHashSet<usize> = FxHashSet::default();
        let mut best: Option<(f64, usize)> = None;
        for t in &toks {
            let Some(rows) = blocks.get(t) else { continue };
            if rows.len() > cfg.max_block {
                continue;
            }
            for &j in rows {
                if !seen.insert(j) {
                    continue;
                }
                let sim = jaccard(&toks, &b_tokens[j]);
                if sim >= cfg.threshold {
                    let better = match best {
                        None => true,
                        Some((bs, bj)) => sim > bs || (sim == bs && j < bj),
                    };
                    if better {
                        best = Some((sim, j));
                    }
                }
            }
        }
        if let Some((_, j)) = best {
            out.push((i, j));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsj_common::Value;
    use gsj_relational::Schema;

    fn rel(name: &str, attrs: &[&str], rows: &[&[&str]]) -> Relation {
        let mut r = Relation::empty(Schema::of(name, attrs));
        for row in rows {
            r.push_values(row.iter().map(|s| Value::str(*s)).collect())
                .unwrap();
        }
        r
    }

    #[test]
    fn matches_same_entity_across_relations() {
        let a = rel(
            "s",
            &["pid", "name", "risk"],
            &[&["fd4", "RainForest", "medium"], &["fd2", "Beta", "high"]],
        );
        let b = rel(
            "g_product",
            &["vid", "name", "company"],
            &[
                &["pid4", "RainForest", "company2"],
                &["pid2", "Beta", "company1"],
            ],
        );
        let pairs =
            match_relations(&a, &b, Some("pid"), Some("vid"), &ErConfig::default()).unwrap();
        assert!(pairs.contains(&(0, 0)));
        assert!(pairs.contains(&(1, 1)));
    }

    #[test]
    fn no_match_below_threshold() {
        let a = rel("s", &["pid", "name"], &[&["x", "Alpha One"]]);
        let b = rel("g", &["vid", "name"], &[&["y", "Totally Different"]]);
        let pairs =
            match_relations(&a, &b, Some("pid"), Some("vid"), &ErConfig::default()).unwrap();
        assert!(pairs.is_empty());
    }

    #[test]
    fn id_columns_are_ignored() {
        // Identical ids but disjoint content must NOT match.
        let a = rel("s", &["pid", "name"], &[&["same-id", "Alpha"]]);
        let b = rel("g", &["vid", "name"], &[&["same-id", "Omega"]]);
        let pairs =
            match_relations(&a, &b, Some("pid"), Some("vid"), &ErConfig::default()).unwrap();
        assert!(pairs.is_empty());
    }

    #[test]
    fn each_left_row_matches_best_right_row() {
        let a = rel("s", &["pid", "name"], &[&["1", "Rain Forest Fund"]]);
        let b = rel(
            "g",
            &["vid", "name"],
            &[&["a", "Rain"], &["b", "Rain Forest Fund"]],
        );
        let pairs =
            match_relations(&a, &b, Some("pid"), Some("vid"), &ErConfig::default()).unwrap();
        assert_eq!(pairs, vec![(0, 1)]);
    }
}
