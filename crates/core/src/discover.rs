//! Pattern discovery phase I (Section III-A): clustering, refinement and
//! selection data structures. The orchestration lives in [`crate::rext`].

use crate::ranking::{rank_cluster_full, RankResult, TupleAttrEmbs, WEntry};
use gsj_common::{FxHashMap, Result};
use gsj_graph::{Path, PathPattern, VertexId};
use gsj_relational::Schema;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A selected pattern cluster `P_i`, carrying the attribute it populates.
#[derive(Debug, Clone)]
pub struct PatternCluster {
    /// The path patterns in this cluster.
    pub patterns: Vec<PathPattern>,
    /// The attribute name `A_i` (the keyword maximizing the ranking
    /// function's third term).
    pub attr: String,
    /// Word embedding of the attribute keyword — the `x_Aj` used by
    /// Algorithm 1's value-ranking function.
    pub attr_emb: Vec<f32>,
    /// The cluster's `r(W_i)` score.
    pub score: f64,
}

/// Everything phase I produces, kept around for phase II (extraction) and
/// for IncExt's keyword updates.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// The selected clusters `P = {P_1, ..., P_m}`, highest score first.
    pub clusters: Vec<PatternCluster>,
    /// The extracted schema `R_G(vid, A_1, ..., A_m)`.
    pub schema: Schema,
    /// *All* refined pattern clusters `P'` (before selection) — keyword
    /// updates re-rank these without re-clustering (Section III-B).
    pub refined: Vec<Vec<PathPattern>>,
    /// Cached selected paths per matched vertex ("It caches and reuses the
    /// paths found during pattern discovery", Algorithm 1).
    pub paths: FxHashMap<VertexId, Vec<Path>>,
    /// Embeddings of the user keywords, aligned with `keywords`.
    pub keyword_embs: Vec<(String, Vec<f32>)>,
    /// `|P|`: total number of selected paths.
    pub total_paths: usize,
    /// Width of the word-embedding half of each feature vector.
    pub word_dim: usize,
}

impl Discovery {
    /// Names of the extracted attributes (without `vid`).
    pub fn attr_names(&self) -> Vec<&str> {
        self.clusters.iter().map(|c| c.attr.as_str()).collect()
    }
}

/// Path pattern refinement (step 3): convert a point clustering into a
/// pattern clustering and keep each pattern only in the cluster holding
/// the majority of its paths (ties → lowest cluster id). Clusters that
/// lose all their patterns vanish (`m' ≤ H`).
pub fn refine_patterns(paths: &[Path], assignments: &[usize], h: usize) -> Vec<Vec<PathPattern>> {
    debug_assert_eq!(paths.len(), assignments.len());
    // counter[pattern][cluster] = #paths of that pattern in that cluster.
    let mut counters: FxHashMap<PathPattern, FxHashMap<usize, usize>> = FxHashMap::default();
    for (p, &c) in paths.iter().zip(assignments) {
        *counters
            .entry(p.pattern())
            .or_default()
            .entry(c)
            .or_insert(0) += 1;
    }
    let mut clusters: Vec<Vec<PathPattern>> = vec![Vec::new(); h];
    // Deterministic iteration: sort patterns.
    let mut patterns: Vec<(PathPattern, FxHashMap<usize, usize>)> = counters.into_iter().collect();
    patterns.sort_by(|a, b| a.0.cmp(&b.0));
    for (pattern, by_cluster) in patterns {
        let winner = by_cluster
            .iter()
            .map(|(&c, &n)| (n, std::cmp::Reverse(c)))
            .max()
            .map(|(_, std::cmp::Reverse(c))| c)
            .expect("pattern seen at least once");
        clusters[winner].push(pattern);
    }
    clusters.retain(|c| !c.is_empty());
    clusters
}

/// Experiment hook (Fig 5(f)): randomly reassign a fraction of points to a
/// uniformly random *other* cluster before refinement, to measure RExt's
/// robustness to clustering noise.
pub fn inject_cluster_noise(assignments: &mut [usize], h: usize, fraction: f64, seed: u64) {
    if h < 2 {
        return;
    }
    let fraction = fraction.clamp(0.0, 1.0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_corrupt = ((assignments.len() as f64) * fraction).round() as usize;
    let mut order: Vec<usize> = (0..assignments.len()).collect();
    use rand::seq::SliceRandom;
    order.shuffle(&mut rng);
    for &i in order.iter().take(n_corrupt) {
        loop {
            let c = rng.random_range(0..h);
            if c != assignments[i] {
                assignments[i] = c;
                break;
            }
        }
    }
}

/// The simulated user-inspection step of pattern/attribute selection
/// (Section III-A: "RExt may interact with the user by presenting matching
/// result ... If the user is satisfied ..."): drop patterns whose paths
/// mostly *end at* — or take their first hop *through* — an entity of the
/// same type as their start vertex. Such paths are peer links
/// (drug→drug, movie→movie) or a peer's properties; both belong to link
/// joins, not to attribute extraction.
pub fn filter_link_clusters(
    g: &gsj_graph::LabeledGraph,
    refined: Vec<Vec<PathPattern>>,
    paths: &[Path],
    type_edges: &[String],
) -> Vec<Vec<PathPattern>> {
    let type_syms: Vec<gsj_common::Symbol> = type_edges
        .iter()
        .filter_map(|l| g.symbols().get(l))
        .collect();
    if type_syms.is_empty() {
        return refined;
    }
    let vtype = |v: VertexId| -> Option<VertexId> {
        g.out_edges(v)
            .iter()
            .find(|e| type_syms.contains(&e.label))
            .map(|e| e.to)
    };
    // Per-pattern (peer-ish, total) counters. A path is peer-ish if it
    // ends at a same-type entity or its first hop lands on one.
    let mut stats: FxHashMap<PathPattern, (usize, usize)> = FxHashMap::default();
    for p in paths {
        let entry = stats.entry(p.pattern()).or_insert((0, 0));
        entry.1 += 1;
        let st = vtype(p.start());
        let peer_end = st.is_some() && st == vtype(p.end());
        let peer_first = p.len() >= 2 && st.is_some() && st == vtype(p.vertices()[1]);
        if peer_end || peer_first {
            entry.0 += 1;
        }
    }
    refined
        .into_iter()
        .filter_map(|mut cluster| {
            // Typing edges classify entities; a path *ending* on one leads
            // to a type vertex, not a property value. And per-pattern,
            // majority-peer-ish patterns are dropped.
            cluster.retain(|pat| {
                let last_ok = pat
                    .labels()
                    .last()
                    .map(|l| !type_syms.contains(l))
                    .unwrap_or(false);
                if !last_ok {
                    return false;
                }
                let (peer, total) = stats.get(pat).copied().unwrap_or((0, 0));
                total == 0 || 2 * peer <= total
            });
            if cluster.is_empty() {
                None
            } else {
                Some(cluster)
            }
        })
        .collect()
}

/// The *naming embeddings* of a path list — the word embedding of each
/// path's end label together with its last edge label — stored once per
/// distinct (end label, last edge label) pair.
///
/// The paper's formula embeds the end label alone, relying on pretrained
/// GloVe to place values near concept words (`UK` near `location`). Our
/// hash embedder has no such world knowledge, so the edge labels carry the
/// concept signal instead — which is the paper's own motivating example:
/// "to retrieve UK from G as the country of company1, one need to select
/// semantically close regloc". See DESIGN.md §2.
#[derive(Debug, Clone, Default)]
pub struct NameEmbs {
    /// The distinct naming embeddings, in order of first occurrence.
    pub embs: Vec<Vec<f32>>,
    /// Path index → index into `embs`.
    pub of: Vec<u32>,
}

/// Build the match set `W_i` for one refined cluster: every selected path
/// conforming to one of the cluster's patterns contributes its start
/// vertex and the index of its naming embedding.
pub fn build_w_entries(cluster: &[PathPattern], paths: &[Path], name_of: &[u32]) -> Vec<WEntry> {
    let pattern_set: std::collections::HashSet<&PathPattern> = cluster.iter().collect();
    paths
        .iter()
        .zip(name_of)
        .filter(|(p, _)| pattern_set.contains(&p.pattern()))
        .map(|(p, &name)| WEntry {
            start: p.start(),
            name,
        })
        .collect()
}

/// Minimum mean keyword similarity for a cluster to claim a keyword as
/// its attribute name. Below this the cluster is semantically unrelated
/// to every remaining user interest and is skipped.
pub const MIN_KEYWORD_AFFINITY: f64 = 0.10;

/// Step 4: rank all refined clusters and greedily select up to `m`
/// attributes, one cluster per (still-unused) keyword. Returns the chosen
/// clusters (score-descending) and the schema `R_G`.
///
/// The paper optionally interacts with the user here; we model the user
/// with auto-acceptance of the top-ranked presentation order.
pub fn select_attributes(
    refined: &[Vec<PathPattern>],
    paths: &[Path],
    names: &NameEmbs,
    tuple_attr_embs: &TupleAttrEmbs,
    keywords: &[(String, Vec<f32>)],
    m: usize,
    schema_name: &str,
) -> Result<(Vec<PatternCluster>, Schema)> {
    // Score every cluster (decomposed, so the assignment below can
    // evaluate the ranking function per keyword).
    let total = paths.len();
    let mut scored: Vec<(usize, RankResult)> = Vec::new();
    for (idx, cluster) in refined.iter().enumerate() {
        let entries = build_w_entries(cluster, paths, &names.of);
        if entries.is_empty() {
            continue;
        }
        let r = rank_cluster_full(&entries, &names.embs, total, tuple_attr_embs, keywords);
        scored.push((idx, r));
    }

    // Global greedy assignment over (cluster, keyword) pairs, each scored
    // by the ranking function evaluated at that keyword:
    // `coverage − overlap + cos-to-keyword`. This models the paper's
    // user-inspection loop: each keyword goes to the cluster whose
    // matches both look like that attribute *and* cover many entities
    // (few NULLs), so a sparse neighbor-chain fragment cannot outrank the
    // dense direct pattern.
    let mut pairs: Vec<(f64, usize, usize)> = Vec::new(); // (score_for, scored idx, kw idx)
    for (si, (_, r)) in scored.iter().enumerate() {
        for ki in 0..keywords.len() {
            if r.kw_means[ki] >= MIN_KEYWORD_AFFINITY {
                pairs.push((r.score_for(ki), si, ki));
            }
        }
    }
    pairs.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    let mut used_kw = vec![false; keywords.len()];
    let mut used_cluster = vec![false; scored.len()];
    let mut chosen: Vec<PatternCluster> = Vec::new();
    for (_, si, ki) in pairs {
        if chosen.len() >= m {
            break;
        }
        if used_kw[ki] || used_cluster[si] {
            continue;
        }
        used_kw[ki] = true;
        used_cluster[si] = true;
        let (name, emb) = &keywords[ki];
        chosen.push(PatternCluster {
            patterns: refined[scored[si].0].clone(),
            attr: name.clone(),
            attr_emb: emb.clone(),
            score: scored[si].1.score,
        });
    }
    chosen.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut attrs = vec!["vid".to_string()];
    attrs.extend(chosen.iter().map(|c| c.attr.clone()));
    let schema = Schema::new(schema_name.to_string(), attrs)?;
    Ok((chosen, schema))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsj_common::SymbolTable;

    fn mk_path(table: &SymbolTable, start: u32, labels: &[&str]) -> Path {
        let mut p = Path::new(VertexId(start));
        for (i, l) in labels.iter().enumerate() {
            p.push(table.intern(l), VertexId(1000 + start * 10 + i as u32));
        }
        p
    }

    #[test]
    fn refinement_keeps_pattern_in_majority_cluster() {
        let t = SymbolTable::new();
        // Pattern [type]: twice in cluster 0, once in cluster 1 (the
        // misclassified (pid3, type, Trust) of Example 5/6).
        let paths = vec![
            mk_path(&t, 0, &["type"]),
            mk_path(&t, 1, &["type"]),
            mk_path(&t, 2, &["type"]),
            mk_path(&t, 3, &["based_on", "type"]),
        ];
        let assignments = vec![0, 0, 1, 1];
        let refined = refine_patterns(&paths, &assignments, 2);
        assert_eq!(refined.len(), 2);
        let type_pat = paths[0].pattern();
        let long_pat = paths[3].pattern();
        // [type] must live only in cluster 0's refined set.
        let holders: Vec<usize> = refined
            .iter()
            .enumerate()
            .filter(|(_, c)| c.contains(&type_pat))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(holders.len(), 1);
        let other: Vec<usize> = refined
            .iter()
            .enumerate()
            .filter(|(_, c)| c.contains(&long_pat))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(other.len(), 1);
        assert_ne!(holders[0], other[0]);
    }

    #[test]
    fn refinement_tie_breaks_deterministically() {
        let t = SymbolTable::new();
        let paths = vec![mk_path(&t, 0, &["x"]), mk_path(&t, 1, &["x"])];
        let refined = refine_patterns(&paths, &[0, 1], 2);
        // 1-1 tie → lowest cluster id wins → exactly one cluster remains.
        assert_eq!(refined.len(), 1);
        assert_eq!(refined[0].len(), 1);
    }

    #[test]
    fn empty_clusters_vanish() {
        let t = SymbolTable::new();
        let paths = vec![mk_path(&t, 0, &["a"])];
        let refined = refine_patterns(&paths, &[3], 5);
        assert_eq!(refined.len(), 1);
    }

    #[test]
    fn noise_injection_changes_requested_fraction() {
        let mut asg = vec![0usize; 100];
        inject_cluster_noise(&mut asg, 4, 0.2, 9);
        let changed = asg.iter().filter(|&&c| c != 0).count();
        assert_eq!(changed, 20);
        // h < 2 is a no-op.
        let mut asg1 = vec![0usize; 10];
        inject_cluster_noise(&mut asg1, 1, 1.0, 9);
        assert!(asg1.iter().all(|&c| c == 0));
    }

    #[test]
    fn w_entries_only_from_conforming_paths() {
        let t = SymbolTable::new();
        let paths = vec![mk_path(&t, 0, &["a"]), mk_path(&t, 1, &["b"])];
        let cluster = vec![paths[1].pattern()];
        let w = build_w_entries(&cluster, &paths, &[7, 9]);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].start, VertexId(1));
        assert_eq!(w[0].name, 9);
    }
}
