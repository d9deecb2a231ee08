//! The pattern/attribute ranking function (Section III-A step 4).
//!
//! `r(W_i) = |W_i|/|P|
//!          − max_{φ ∈ [1,kR]} mean cos(x_{L(ρ.vl)}, x_{t_j.Aφ})
//!          + max_{ε ∈ [1,m]}  mean cos(x_{L(ρ.vl)}, x_{Aε})`
//!
//! Higher scores go to pattern clusters that (1) match many paths (fewer
//! nulls in the extracted column), (2) do *not* duplicate information
//! already present in `S`'s attributes, and (3) are semantically close to
//! one of the user's keywords. The keyword maximizing the third term names
//! the attribute.

use gsj_common::FxHashMap;
use gsj_graph::VertexId;
use gsj_nn::vector::cosine;

/// One matching-path record of `W_i`: the start (entity) vertex and the
/// path's naming embedding `x_{L(ρ.v_l)}`, as an index into the distinct
/// naming embeddings of the path set (many paths share one).
#[derive(Debug, Clone, Copy)]
pub struct WEntry {
    /// The matched entity vertex `v_j` the path starts from.
    pub start: VertexId,
    /// Index of the path's naming embedding.
    pub name: u32,
}

/// Per-vertex embeddings of the matched tuple's attribute values
/// (`None` for NULL cells and the id column). Index φ ranges over the
/// arity `kR` of `S`.
pub type TupleAttrEmbs = FxHashMap<VertexId, Vec<Option<Vec<f32>>>>;

/// The decomposed ranking of one cluster.
#[derive(Debug, Clone)]
pub struct RankResult {
    /// First term `|W_i|/|P|`.
    pub coverage: f64,
    /// Second term: max over existing attributes of the mean similarity.
    pub overlap: f64,
    /// Mean similarity per keyword (third-term candidates).
    pub kw_means: Vec<f64>,
    /// The combined score `coverage − overlap + max(kw_means)`.
    pub score: f64,
    /// Argmax keyword of the third term.
    pub best_keyword: Option<usize>,
}

impl RankResult {
    /// The ranking function evaluated for one *specific* keyword:
    /// `coverage − overlap + kw_means[k]`. Attribute assignment compares
    /// clusters per keyword with this.
    pub fn score_for(&self, k: usize) -> f64 {
        self.coverage - self.overlap + self.kw_means[k]
    }
}

/// Score one cluster's match set `entries`, whose naming embeddings are
/// `names[entry.name]`.
///
/// `total_paths` is `|P|`; `keywords` are `(name, embedding)` pairs; an
/// empty `tuple_attr_embs` (extraction without reference tuples,
/// Section III-A) zeroes the second term, and empty `keywords` zero the
/// third.
pub fn rank_cluster_full(
    entries: &[WEntry],
    names: &[Vec<f32>],
    total_paths: usize,
    tuple_attr_embs: &TupleAttrEmbs,
    keywords: &[(String, Vec<f32>)],
) -> RankResult {
    if entries.is_empty() || total_paths == 0 {
        return RankResult {
            coverage: 0.0,
            overlap: 0.0,
            kw_means: vec![f64::NEG_INFINITY; keywords.len()],
            score: f64::NEG_INFINITY,
            best_keyword: None,
        };
    }
    let coverage = entries.len() as f64 / total_paths as f64;

    // Second term: similarity to existing attributes of S (max over φ).
    let arity = tuple_attr_embs.values().map(|v| v.len()).max().unwrap_or(0);
    let mut overlap = 0.0f64;
    for phi in 0..arity {
        let mut sum = 0.0f64;
        for e in entries {
            if let Some(Some(attr_emb)) = tuple_attr_embs.get(&e.start).map(|v| &v[phi]) {
                sum += cosine(&names[e.name as usize], attr_emb) as f64;
            }
        }
        overlap = overlap.max(sum / entries.len() as f64);
    }

    // Third term: similarity to user keywords (max over ε, with argmax).
    // The cosine is taken once per distinct naming embedding; the sum
    // still runs over the entries in order.
    let mut kw_means = Vec::with_capacity(keywords.len());
    let mut interest = 0.0f64;
    let mut best_kw = None;
    let mut cos_of_name: Vec<Option<f32>> = Vec::new();
    for (eps, (_, kw_emb)) in keywords.iter().enumerate() {
        cos_of_name.clear();
        cos_of_name.resize(names.len(), None);
        let sum: f64 = entries
            .iter()
            .map(|e| {
                let n = e.name as usize;
                *cos_of_name[n].get_or_insert_with(|| cosine(&names[n], kw_emb)) as f64
            })
            .sum();
        let mean = sum / entries.len() as f64;
        kw_means.push(mean);
        if best_kw.is_none() || mean > interest {
            interest = mean;
            best_kw = Some(eps);
        }
    }

    RankResult {
        coverage,
        overlap,
        kw_means,
        score: coverage - overlap + interest,
        best_keyword: best_kw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsj_nn::{HashEmbedder, WordEmbedder};

    /// One entry per `(start, label)`, each with a naming embedding of
    /// its own.
    fn entries(items: &[(u32, &str)], emb: &HashEmbedder) -> (Vec<WEntry>, Vec<Vec<f32>>) {
        let names = items.iter().map(|(_, label)| emb.embed(label)).collect();
        let entries = items
            .iter()
            .enumerate()
            .map(|(i, &(start, _))| WEntry {
                start: VertexId(start),
                name: i as u32,
            })
            .collect();
        (entries, names)
    }

    fn rank(
        items: &[(u32, &str)],
        emb: &HashEmbedder,
        total_paths: usize,
        tuple_attr_embs: &TupleAttrEmbs,
        keywords: &[(String, Vec<f32>)],
    ) -> (f64, Option<usize>) {
        let (entries, names) = entries(items, emb);
        let r = rank_cluster_full(&entries, &names, total_paths, tuple_attr_embs, keywords);
        (r.score, r.best_keyword)
    }

    #[test]
    fn keyword_similarity_raises_score_and_names_attribute() {
        let emb = HashEmbedder::new(64);
        let keywords = vec![
            ("company".to_string(), emb.embed("company")),
            ("loc".to_string(), emb.embed("UK US location")),
        ];
        let (score, kw) = rank(
            &[(0, "UK"), (1, "US")],
            &emb,
            10,
            &FxHashMap::default(),
            &keywords,
        );
        assert!(score.is_finite());
        assert_eq!(kw, Some(1), "the loc-ish keyword must win");
    }

    #[test]
    fn overlap_with_existing_attributes_lowers_score() {
        let emb = HashEmbedder::new(64);
        // End labels identical to an existing attribute value → penalized.
        let mut dup: TupleAttrEmbs = FxHashMap::default();
        dup.insert(VertexId(0), vec![Some(emb.embed("Funds"))]);
        let fresh: TupleAttrEmbs = FxHashMap::default();
        let kws = vec![("type".to_string(), emb.embed("type"))];
        let (with_dup, _) = rank(&[(0, "Funds")], &emb, 10, &dup, &kws);
        let (without, _) = rank(&[(0, "Funds")], &emb, 10, &fresh, &kws);
        assert!(
            with_dup < without,
            "duplicate info must rank lower: {with_dup} vs {without}"
        );
    }

    #[test]
    fn coverage_term_prefers_bigger_clusters() {
        let emb = HashEmbedder::new(64);
        let big: Vec<(u32, &str)> = (0..5).map(|i| (i, "x")).collect();
        let none: TupleAttrEmbs = FxHashMap::default();
        let (s_small, _) = rank(&[(0, "x")], &emb, 10, &none, &[]);
        let (s_big, _) = rank(&big, &emb, 10, &none, &[]);
        assert!(s_big > s_small);
    }

    #[test]
    fn empty_cluster_is_unrankable() {
        let emb = HashEmbedder::new(16);
        let (score, kw) = rank(&[], &emb, 10, &FxHashMap::default(), &[]);
        assert_eq!(score, f64::NEG_INFINITY);
        assert_eq!(kw, None);
    }

    #[test]
    fn no_keywords_means_no_attribute_name() {
        let emb = HashEmbedder::new(16);
        let (_, kw) = rank(&[(0, "x")], &emb, 5, &FxHashMap::default(), &[]);
        assert_eq!(kw, None);
    }

    #[test]
    fn shared_naming_embeddings_rank_like_private_copies() {
        // Five paths over two distinct names: indexing the shared
        // embeddings gives the bits that five private copies give.
        let emb = HashEmbedder::new(32);
        let items = [(0, "UK"), (1, "US"), (2, "UK"), (3, "UK"), (4, "US")];
        let keywords = vec![
            ("loc".to_string(), emb.embed("UK location")),
            ("x".to_string(), emb.embed("US")),
        ];
        let mut attrs: TupleAttrEmbs = FxHashMap::default();
        attrs.insert(VertexId(2), vec![None, Some(emb.embed("UK"))]);
        let (private, private_names) = entries(&items, &emb);
        let shared_names = vec![emb.embed("UK"), emb.embed("US")];
        let shared: Vec<WEntry> = items
            .iter()
            .map(|&(start, label)| WEntry {
                start: VertexId(start),
                name: (label == "US") as u32,
            })
            .collect();
        let a = rank_cluster_full(&private, &private_names, 9, &attrs, &keywords);
        let b = rank_cluster_full(&shared, &shared_names, 9, &attrs, &keywords);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.overlap.to_bits(), b.overlap.to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.kw_means), bits(&b.kw_means));
        assert_eq!(a.best_keyword, b.best_keyword);
    }
}
