//! Algorithm 1: attribute extraction via pattern matching (Section III-A,
//! phase II).
//!
//! For each match `(t_i, v_i) ∈ f(S,G)`: select paths `Π` from `v_i`
//! (reusing the ones cached during discovery when available), and for each
//! selected pattern cluster `P_j` pick the conforming path whose end label
//! maximizes the value-ranking function `cos(x_{L(ρ.v_l)}, x_{A_j})`; its
//! end label becomes `θ_j`, or NULL when no path conforms.

use crate::discover::{Discovery, PatternCluster};
use crate::embed_paths::end_label;
use crate::rext::map_items;
use gsj_common::{first_occurrences, FxHashMap, FxHashSet, Result, Symbol, SymbolTable, Value};
use gsj_graph::{LabeledGraph, Path, VertexId};
use gsj_nn::vector::cosine;
use gsj_nn::WordEmbedder;
use gsj_relational::Relation;

/// Distinct labels per pool task of [`LabelEmbCache::fill`]: the hash
/// embedder takes a microsecond or two per label.
const LABEL_GRAIN: usize = 256;

/// The memo of `Me` over graph labels — vertex or edge, keyed by symbol —
/// so a repeated label (countries, genres, types...) is embedded once.
/// One lives for the length of a discovery or an extraction call.
#[derive(Default)]
pub struct LabelEmbCache {
    map: FxHashMap<Symbol, Vec<f32>>,
}

impl LabelEmbCache {
    /// Embed through the cache.
    pub fn embed(
        &mut self,
        symbols: &SymbolTable,
        word: &dyn WordEmbedder,
        label: Symbol,
    ) -> &[f32] {
        self.map
            .entry(label)
            .or_insert_with(|| word.embed(&symbols.resolve(label)))
    }

    /// Embed those of `labels` not cached yet, each once, through the
    /// worker pool.
    pub(crate) fn fill(
        &mut self,
        symbols: &SymbolTable,
        word: &dyn WordEmbedder,
        labels: impl Iterator<Item = Symbol>,
    ) -> Result<()> {
        let (missing, _) = first_occurrences(labels.filter(|l| !self.map.contains_key(l)));
        let embs = map_items(&missing, LABEL_GRAIN, |&l| word.embed(&symbols.resolve(l)))?;
        self.map.extend(missing.into_iter().zip(embs));
        Ok(())
    }

    /// The embedding of a label [`fill`](Self::fill)ed or embedded before.
    pub(crate) fn get(&self, label: Symbol) -> &[f32] {
        &self.map[&label]
    }
}

/// The selected clusters of a discovery, indexed by pattern: which
/// clusters a path of a given label sequence conforms to. Built once per
/// extraction call, looked up once per path.
pub struct ClusterLookup<'a> {
    clusters: &'a [PatternCluster],
    by_pattern: FxHashMap<&'a [Symbol], Vec<usize>>,
}

impl<'a> ClusterLookup<'a> {
    /// Index `clusters` by their patterns.
    pub fn new(clusters: &'a [PatternCluster]) -> Self {
        let mut by_pattern: FxHashMap<&[Symbol], Vec<usize>> = FxHashMap::default();
        for (i, cluster) in clusters.iter().enumerate() {
            for pattern in &cluster.patterns {
                let of_pattern = by_pattern.entry(pattern.labels()).or_default();
                if of_pattern.last() != Some(&i) {
                    of_pattern.push(i);
                }
            }
        }
        ClusterLookup {
            clusters,
            by_pattern,
        }
    }
}

/// Extract the attribute values `(θ_1, ..., θ_m)` for one vertex from its
/// selected paths (the `Extract` function of Algorithm 1).
pub fn extract_values(
    g: &LabeledGraph,
    paths: &[Path],
    lookup: &ClusterLookup<'_>,
    word: &dyn WordEmbedder,
    cache: &mut LabelEmbCache,
) -> Vec<Value> {
    let symbols = g.symbols();
    // Per cluster (similarity, path length, end label): maximize
    // similarity; on ties prefer the *shorter* path — the entity's own
    // property over the same-shaped property of a neighbor reached through
    // an extra hop — then break lexicographically on the label's text,
    // which only a full tie between two different labels resolves.
    let mut best: Vec<Option<(f32, usize, Symbol)>> = vec![None; lookup.clusters.len()];
    for p in paths {
        let Some(conforms_to) = lookup.by_pattern.get(p.labels()) else {
            continue;
        };
        let end = end_label(g, p);
        let emb = cache.embed(symbols, word, end);
        for &c in conforms_to {
            let sim = cosine(emb, &lookup.clusters[c].attr_emb);
            let better = match best[c] {
                None => true,
                Some((bs, bl, bend)) => {
                    sim > bs
                        || (sim == bs && p.len() < bl)
                        || (sim == bs
                            && p.len() == bl
                            && end != bend
                            && symbols.resolve(end) < symbols.resolve(bend))
                }
            };
            if better {
                best[c] = Some((sim, p.len(), end));
            }
        }
    }
    best.into_iter()
        .map(|b| match b {
            Some((_, _, end)) => Value::Str(symbols.resolve(end)),
            None => Value::Null,
        })
        .collect()
}

/// Run Algorithm 1 over a set of matches, producing the extracted relation
/// `D_G` of schema `R_G(vid, A_1, ..., A_m)`. One row per distinct matched
/// vertex (extraction is a function of the vertex alone).
///
/// `fresh_paths` supplies paths for vertices absent from the discovery
/// cache (IncExt's newly matched vertices); it is handed the vertex id.
/// With `reuse_cached` off it supplies them for *every* vertex: IncExt
/// re-extracts vertices whose vicinity changed after discovery, so what
/// the cache holds for them is stale.
pub fn extract_relation<F>(
    g: &LabeledGraph,
    matched_vertices: impl IntoIterator<Item = VertexId>,
    discovery: &Discovery,
    word: &dyn WordEmbedder,
    reuse_cached: bool,
    mut fresh_paths: F,
) -> Result<Relation>
where
    F: FnMut(VertexId) -> Vec<Path>,
{
    let mut rel = Relation::empty(discovery.schema.clone());
    let lookup = ClusterLookup::new(&discovery.clusters);
    let mut cache = LabelEmbCache::default();
    let mut seen: FxHashSet<VertexId> = FxHashSet::default();
    for v in matched_vertices {
        if !seen.insert(v) || !g.is_live(v) {
            continue;
        }
        let owned;
        let paths: &[Path] = match discovery.paths.get(&v).filter(|_| reuse_cached) {
            Some(cached) => cached,
            None => {
                owned = fresh_paths(v);
                &owned
            }
        };
        let mut row = Vec::with_capacity(1 + discovery.clusters.len());
        row.push(Value::Int(v.0 as i64));
        row.extend(extract_values(g, paths, &lookup, word, &mut cache));
        rel.push_values(row)?;
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsj_nn::HashEmbedder;
    use gsj_relational::Schema;

    /// Hand-built discovery over the Example-1 fragment: cluster "loc"
    /// matches the 2-hop issue→regloc pattern; cluster "company" the 1-hop
    /// issue pattern.
    fn setting() -> (LabeledGraph, VertexId, Discovery, HashEmbedder) {
        let mut g = LabeledGraph::new();
        let pid1 = g.add_vertex("pid1");
        let company = g.add_vertex("company1");
        let country = g.add_vertex("UK");
        g.add_edge(pid1, "issue", company);
        g.add_edge(company, "regloc", country);
        let issue = g.symbols().get("issue").unwrap();
        let regloc = g.symbols().get("regloc").unwrap();

        let word = HashEmbedder::new(32);
        let mut paths_map: FxHashMap<VertexId, Vec<Path>> = FxHashMap::default();
        let mut p1 = Path::new(pid1);
        p1.push(issue, company);
        let mut p2 = p1.clone();
        p2.push(regloc, country);
        paths_map.insert(pid1, vec![p1, p2]);

        let clusters = vec![
            PatternCluster {
                patterns: vec![gsj_graph::PathPattern(vec![issue, regloc])],
                attr: "loc".into(),
                attr_emb: word.embed("loc"),
                score: 1.0,
            },
            PatternCluster {
                patterns: vec![gsj_graph::PathPattern(vec![issue])],
                attr: "company".into(),
                attr_emb: word.embed("company"),
                score: 0.9,
            },
        ];
        let discovery = Discovery {
            clusters,
            schema: Schema::of("h_product", &["vid", "loc", "company"]),
            refined: Vec::new(),
            paths: paths_map,
            keyword_embs: Vec::new(),
            total_paths: 2,
            word_dim: 32,
        };
        (g, pid1, discovery, word)
    }

    #[test]
    fn extracts_values_per_cluster() {
        let (g, pid1, disc, word) = setting();
        let rel = extract_relation(&g, [pid1], &disc, &word, true, |_| Vec::new()).unwrap();
        assert_eq!(rel.len(), 1);
        let row = rel.row(0);
        assert_eq!(row.get(0), &Value::Int(pid1.0 as i64));
        assert_eq!(row.get(1), &Value::str("UK"));
        assert_eq!(row.get(2), &Value::str("company1"));
    }

    #[test]
    fn missing_pattern_yields_null() {
        let (g, pid1, mut disc, word) = setting();
        // Remove the cached 2-hop path: "loc" has no conforming path.
        disc.paths.get_mut(&pid1).unwrap().truncate(1);
        let rel = extract_relation(&g, [pid1], &disc, &word, true, |_| Vec::new()).unwrap();
        assert!(rel.value_at(0, 1).is_null());
        assert_eq!(rel.value_at(0, 2), Value::str("company1"));
    }

    #[test]
    fn duplicate_vertices_extract_once() {
        let (g, pid1, disc, word) = setting();
        let rel =
            extract_relation(&g, [pid1, pid1, pid1], &disc, &word, true, |_| Vec::new()).unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn fresh_paths_used_for_uncached_vertices() {
        let (g, pid1, mut disc, word) = setting();
        let cached = disc.paths.remove(&pid1).unwrap();
        let rel =
            extract_relation(&g, [pid1], &disc, &word, true, move |_| cached.clone()).unwrap();
        assert_eq!(rel.value_at(0, 1), Value::str("UK"));
    }

    #[test]
    fn cache_is_bypassed_on_request() {
        let (g, pid1, disc, word) = setting();
        let rel = extract_relation(&g, [pid1], &disc, &word, false, |_| Vec::new()).unwrap();
        assert!(rel.value_at(0, 1).is_null() && rel.value_at(0, 2).is_null());
    }

    #[test]
    fn dead_vertices_are_skipped() {
        let (mut g, pid1, disc, word) = setting();
        g.remove_vertex(pid1);
        let rel = extract_relation(&g, [pid1], &disc, &word, true, |_| Vec::new()).unwrap();
        assert!(rel.is_empty());
    }

    #[test]
    fn value_ranking_picks_keyword_closest_end_label() {
        // Two 1-hop paths with different end labels conforming to the same
        // pattern: the one semantically closer to the keyword wins.
        let mut g = LabeledGraph::new();
        let e = g.add_vertex("entity");
        let good = g.add_vertex("location value");
        let bad = g.add_vertex("irrelevant junk");
        g.add_edge(e, "prop", good);
        g.add_edge(e, "prop", bad);
        let prop = g.symbols().get("prop").unwrap();
        let word = HashEmbedder::new(64);
        let mut pg = Path::new(e);
        pg.push(prop, good);
        let mut pb = Path::new(e);
        pb.push(prop, bad);
        let mut paths_map: FxHashMap<VertexId, Vec<Path>> = FxHashMap::default();
        paths_map.insert(e, vec![pb, pg]);
        let disc = Discovery {
            clusters: vec![PatternCluster {
                patterns: vec![gsj_graph::PathPattern(vec![prop])],
                attr: "location".into(),
                attr_emb: word.embed("location"),
                score: 1.0,
            }],
            schema: Schema::of("h_x", &["vid", "location"]),
            refined: Vec::new(),
            paths: paths_map,
            keyword_embs: Vec::new(),
            total_paths: 2,
            word_dim: 64,
        };
        let rel = extract_relation(&g, [e], &disc, &word, true, |_| Vec::new()).unwrap();
        assert_eq!(rel.value_at(0, 1), Value::str("location value"));
    }

    #[test]
    fn ties_prefer_the_shorter_path_then_the_smaller_label() {
        // "Beta" and "beta" embed alike: the tie between the two 1-hop
        // paths is broken on the label's text, whichever comes first; the
        // 2-hop path to the same text loses to both.
        let mut g = LabeledGraph::new();
        let e = g.add_vertex("entity");
        let lower = g.add_vertex("beta");
        let upper = g.add_vertex("Beta");
        let far = g.add_vertex("BETA");
        g.add_edge(e, "prop", lower);
        g.add_edge(e, "prop", upper);
        g.add_edge(lower, "prop", far);
        let prop = g.symbols().get("prop").unwrap();
        let word = HashEmbedder::new(64);
        let one_hop = |to| {
            let mut p = Path::new(e);
            p.push(prop, to);
            p
        };
        let mut two_hop = one_hop(lower);
        two_hop.push(prop, far);
        let clusters = [PatternCluster {
            patterns: vec![
                gsj_graph::PathPattern(vec![prop]),
                gsj_graph::PathPattern(vec![prop, prop]),
            ],
            attr: "name".into(),
            attr_emb: word.embed("name"),
            score: 1.0,
        }];
        let lookup = ClusterLookup::new(&clusters);
        for paths in [
            [two_hop.clone(), one_hop(lower), one_hop(upper)],
            [one_hop(upper), one_hop(lower), two_hop.clone()],
        ] {
            let mut cache = LabelEmbCache::default();
            let row = extract_values(&g, &paths, &lookup, &word, &mut cache);
            assert_eq!(row, [Value::str("Beta")]);
        }
    }
}
