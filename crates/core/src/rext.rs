//! The RExt facade: wiring path selection, embedding, clustering,
//! refinement, ranking and extraction into the two-phase scheme of
//! Section III-A (see Fig. 4's workflow diagram).

use crate::config::{EmbedKind, RExtConfig, SeqKind};
use crate::discover::{
    inject_cluster_noise, refine_patterns, select_attributes, Discovery, NameEmbs,
};
use crate::embed_paths::{embed_paths, end_label};
use crate::extract::{extract_relation, LabelEmbCache};
use crate::ranking::TupleAttrEmbs;
use gsj_cluster::{kmeans, KmeansConfig};
use gsj_common::{first_occurrences, pool, FxHashMap, GsjError, Result, Value};
use gsj_graph::random_walk::build_corpus;
use gsj_graph::{LabeledGraph, Path, VertexId};
use gsj_her::normalize::value_text;
use gsj_her::MatchRelation;
use gsj_nn::lm::SequenceEmbedder;
use gsj_nn::{AttnEncoder, HashEmbedder, LanguageModel, WordEmbedder};
use gsj_relational::Relation;
use std::sync::Arc;

static EXTRACTED_ROWS: gsj_obs::LazyCounter =
    gsj_obs::LazyCounter::new("gsj_core_extracted_rows_total");

/// Matched vertices per pool task of path selection: a vertex costs tens
/// of microseconds unguided and hundreds under the language model.
const VERTEX_GRAIN: usize = 32;

/// `f` over `items`, in item order, through [`pool::run_ranges`] with
/// `grain` items per pool task — path selection and
/// [`LabelEmbCache::fill`], the two fan-outs measured paying (DESIGN.md
/// §13). What is computed never depends on the worker count; a panic in
/// `f` on a pool thread is the pool's [`GsjError::Internal`].
pub(crate) fn map_items<T, U, F>(items: &[T], grain: usize, f: F) -> Result<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let parts = pool::run_ranges(items.len(), grain, |range| {
        Ok(items[range].iter().map(&f).collect::<Vec<U>>())
    })?;
    Ok(parts.into_iter().flatten().collect())
}

/// The trained extraction scheme for one graph.
///
/// Construction ([`Rext::train`]) performs the offline part: building the
/// random-walk corpus and training the language model `Mρ`. The online
/// parts are [`Rext::discover`] (pattern discovery for a match relation and
/// keyword set) and [`Rext::extract`] (Algorithm 1). Cloning shares the
/// trained models (they sit behind `Arc`s).
#[derive(Clone)]
pub struct Rext {
    cfg: RExtConfig,
    word: Arc<dyn WordEmbedder>,
    seq: Arc<dyn SequenceEmbedder>,
    lm: Option<Arc<LanguageModel>>,
}

impl Rext {
    /// Train the scheme on a graph (model training is the offline
    /// preprocessing of Exp-3(I)(a)): [`Rext::train_model`], then
    /// [`Rext::with_model`] on its result.
    pub fn train(g: &LabeledGraph, cfg: RExtConfig) -> Result<Self> {
        let _span = gsj_obs::span("rext.train");
        // Before the training time is spent, not after.
        cfg.validate()?;
        let lm = Self::train_model(g, &cfg)?;
        Self::with_model(g, cfg, lm)
    }

    /// The expensive half of [`Rext::train`]: the random-walk corpus and
    /// the language model `Mρ` fitted on it — `None` when the variant
    /// uses neither LM-guided paths nor an LSTM sequence embedding. The
    /// result is a pure function of the graph and [`RExtConfig::lm_key`],
    /// so variants with equal keys can share one model.
    pub fn train_model(g: &LabeledGraph, cfg: &RExtConfig) -> Result<Option<Arc<LanguageModel>>> {
        let Some(key) = cfg.lm_key() else {
            return Ok(None);
        };
        // Training has no deadline.
        let corpus = build_corpus(g, &key.walk, &gsj_common::QueryGovernor::unlimited())?;
        Ok(Some(Arc::new(LanguageModel::train(
            &corpus,
            g.symbols(),
            key.lm,
        ))))
    }

    /// The cheap half of [`Rext::train`]: hang the variant's word and
    /// sequence embedders on an already trained model. A variant that
    /// needs a model and gets none, or gets one whose hidden width is not
    /// `cfg.lm.hidden` (the `RExtShortSeq` model is 50 wide, the others
    /// 100), is a [`GsjError::Config`].
    pub fn with_model(
        g: &LabeledGraph,
        cfg: RExtConfig,
        lm: Option<Arc<LanguageModel>>,
    ) -> Result<Self> {
        cfg.validate()?;
        let lm = match cfg.lm_key() {
            None => None,
            Some(key) => {
                let lm = lm.ok_or_else(|| {
                    GsjError::Config("this RExt variant needs a trained language model".into())
                })?;
                if lm.dim() != key.lm.hidden {
                    return Err(GsjError::Config(format!(
                        "language model is {} wide, {:?} is configured for {}",
                        lm.dim(),
                        cfg.seq,
                        key.lm.hidden
                    )));
                }
                Some(lm)
            }
        };
        let word: Arc<dyn WordEmbedder> = match cfg.embed {
            EmbedKind::Hash100 => Arc::new(HashEmbedder::new(256)),
            EmbedKind::Hash50 => Arc::new(HashEmbedder::short()),
            EmbedKind::Attn => Arc::new(AttnEncoder::for_words(256)),
        };
        let seq: Arc<dyn SequenceEmbedder> = match cfg.seq {
            SeqKind::Lstm100 | SeqKind::Lstm50 => {
                Arc::clone(lm.as_ref().expect("an LSTM variant has a key"))
                    as Arc<dyn SequenceEmbedder>
            }
            SeqKind::Attn => Arc::new(AttnEncoder::for_sequences(100, g.symbols().clone())),
        };
        Ok(Rext { cfg, word, seq, lm })
    }

    /// The configuration this scheme was built with.
    pub fn config(&self) -> &RExtConfig {
        &self.cfg
    }

    /// A shallow clone with a different attribute budget `m` (shares the
    /// trained models; used by the Exp-2 `m` sweep).
    pub fn with_m(&self, m: usize) -> Rext {
        let mut clone = self.clone();
        clone.cfg.m = m;
        clone
    }

    /// A shallow clone with a different cluster count `H` (shares the
    /// trained models; used by the Exp-2 `H` sweep — clustering happens at
    /// discovery time, not training time).
    pub fn with_h(&self, h: usize) -> Rext {
        let mut clone = self.clone();
        clone.cfg.h = h;
        clone
    }

    /// A shallow clone with a different path bound `k` (shares the trained
    /// models; the LM is trained on walks long enough for any `k` in the
    /// Exp-2 sweep range).
    pub fn with_k(&self, k: usize) -> Rext {
        let mut clone = self.clone();
        clone.cfg.k = k;
        clone
    }

    /// The word embedder `Me`.
    pub fn word_embedder(&self) -> &dyn WordEmbedder {
        self.word.as_ref()
    }

    /// The trained language model, when the variant uses one.
    pub fn language_model(&self) -> Option<&LanguageModel> {
        self.lm.as_deref()
    }

    /// Select paths from one vertex under this scheme's path strategy.
    pub fn select_paths(&self, g: &LabeledGraph, v: VertexId) -> Vec<Path> {
        crate::path_select::select_paths(
            g,
            v,
            self.cfg.k,
            self.cfg.path,
            self.lm.as_deref(),
            self.cfg.seed,
        )
    }

    /// Phase I: pattern discovery.
    ///
    /// `reference` optionally carries the tuple set `S` and its id
    /// attribute — used for the ranking function's second term; pass
    /// `None` for extraction without reference tuples (Section III-A's
    /// typed preprocessing). `schema_name` names the produced `R_G`.
    pub fn discover(
        &self,
        g: &LabeledGraph,
        matches: &MatchRelation,
        reference: Option<(&Relation, &str)>,
        keywords: &[String],
        schema_name: &str,
    ) -> Result<Discovery> {
        self.discover_with_noise(g, matches, reference, keywords, schema_name, None)
    }

    /// [`Rext::discover`] with optional clustering-noise injection
    /// `(fraction, seed)` — the Fig 5(f) robustness experiment.
    pub fn discover_with_noise(
        &self,
        g: &LabeledGraph,
        matches: &MatchRelation,
        reference: Option<(&Relation, &str)>,
        keywords: &[String],
        schema_name: &str,
        cluster_noise: Option<(f64, u64)>,
    ) -> Result<Discovery> {
        let mut disc_span = gsj_obs::span("rext.discover");
        gsj_faults::fault_point("rext.discover", gsj_faults::FaultClass::Critical)?;
        static PATHS_SELECTED: gsj_obs::LazyCounter =
            gsj_obs::LazyCounter::new("gsj_core_paths_selected_total");
        // (1) Path selection per distinct matched vertex, in parallel.
        let mut vertices: Vec<VertexId> = matches.vertices().collect();
        vertices.sort();
        vertices.dedup();
        let (paths_map, flat) = {
            let mut span = gsj_obs::span("rext.path_select");
            let per_vertex: Vec<Vec<Path>> =
                map_items(&vertices, VERTEX_GRAIN, |&v| self.select_paths(g, v))?;
            let mut paths_map: FxHashMap<VertexId, Vec<Path>> = FxHashMap::default();
            let mut flat: Vec<Path> = Vec::new();
            for (v, paths) in vertices.iter().zip(per_vertex) {
                flat.extend(paths.iter().cloned());
                paths_map.insert(*v, paths);
            }
            span.field("vertices", vertices.len())
                .field("paths", flat.len());
            PATHS_SELECTED.add(flat.len() as u64);
            (paths_map, flat)
        };

        // (2) Vertex-path pair vectorization: one embedding per distinct
        // end label and per distinct label sequence. `me` carries the
        // end-label embeddings on to the ranking step.
        let word = self.word.as_ref();
        let mut me = LabelEmbCache::default();
        let features: Vec<Vec<f32>> = {
            let mut span = gsj_obs::span("rext.embed");
            let pairs = embed_paths(g, &flat, word, self.seq.as_ref(), &mut me)?;
            span.field("pairs", pairs.features.len())
                .field("distinct_labels", pairs.distinct_labels)
                .field("distinct_patterns", pairs.distinct_patterns);
            pairs.features
        };
        let word_dim = self.word.dim();

        // (3a) KMC.
        let mut assignments = {
            let _span = gsj_obs::span("rext.cluster");
            kmeans(
                &features,
                &KmeansConfig {
                    k: self.cfg.h,
                    max_iters: self.cfg.kmeans_iters,
                    seed: self.cfg.seed ^ 0x2222,
                    ..KmeansConfig::default()
                },
            )
            .assignments
        };
        // Nothing else reads the per-path vectors.
        drop(features);
        if let Some((frac, seed)) = cluster_noise {
            inject_cluster_noise(&mut assignments, self.cfg.h, frac, seed);
        }

        // (3b) Majority-vote pattern refinement, then the simulated user
        // inspection dropping peer-link clusters.
        let refined = {
            let mut span = gsj_obs::span("rext.refine");
            let refined = refine_patterns(&flat, &assignments, self.cfg.h);
            let refined = if self.cfg.filter_same_type_ends {
                crate::discover::filter_link_clusters(g, refined, &flat, &self.cfg.type_edges)
            } else {
                refined
            };
            span.field("clusters", refined.len());
            refined
        };

        // (4) Ranking and attribute selection. Naming embeddings combine
        // the path's last edge label with its end label (see
        // `discover::NameEmbs` for the rationale).
        let mut rank_span = gsj_obs::span("rext.rank");
        let names = naming_embeddings(g, &flat, word, &mut me)?;
        rank_span.field("distinct_names", names.embs.len());
        let keyword_embs: Vec<(String, Vec<f32>)> = keywords
            .iter()
            .map(|k| (k.clone(), self.word.embed(k)))
            .collect();
        let tuple_attr_embs = match reference {
            Some((s, id_attr)) => self.tuple_attr_embeddings(s, id_attr, matches)?,
            None => TupleAttrEmbs::default(),
        };
        let (clusters, schema) = select_attributes(
            &refined,
            &flat,
            &names,
            &tuple_attr_embs,
            &keyword_embs,
            self.cfg.m.min(keywords.len().max(1)),
            schema_name,
        )?;
        rank_span.field("attrs", schema.arity());
        drop(rank_span);
        disc_span
            .field("schema", schema_name)
            .field("paths", flat.len());

        Ok(Discovery {
            clusters,
            schema,
            refined,
            paths: paths_map,
            keyword_embs,
            total_paths: flat.len(),
            word_dim,
        })
    }

    /// Embeddings of each matched tuple's attribute values, keyed by the
    /// matched vertex (the `x_{t_j.Aφ}` of the ranking function). The id
    /// column is excluded — ids are surrogates local to `D`.
    fn tuple_attr_embeddings(
        &self,
        s: &Relation,
        id_attr: &str,
        matches: &MatchRelation,
    ) -> Result<TupleAttrEmbs> {
        let id_pos = s.schema().require(id_attr)?;
        // tid → tuple index.
        let mut by_tid: FxHashMap<Value, usize> = FxHashMap::default();
        for i in 0..s.len() {
            by_tid.insert(s.value_at(i, id_pos), i);
        }
        let mut out = TupleAttrEmbs::default();
        for (tid, vid) in matches.pairs() {
            let Some(&row) = by_tid.get(tid) else {
                continue;
            };
            let embs: Vec<Option<Vec<f32>>> = (0..s.schema().arity())
                .map(|i| {
                    if i == id_pos {
                        return None;
                    }
                    value_text(&s.value_at(row, i)).map(|text| self.word.embed(&text))
                })
                .collect();
            out.insert(*vid, embs);
        }
        Ok(out)
    }

    /// Phase II: Algorithm 1 over all matches, producing `h(S,G)`.
    pub fn extract(
        &self,
        g: &LabeledGraph,
        matches: &MatchRelation,
        discovery: &Discovery,
    ) -> Result<Relation> {
        let mut span = gsj_obs::span("rext.extract");
        gsj_faults::fault_point("rext.extract", gsj_faults::FaultClass::Critical)?;
        let out = extract_relation(
            g,
            matches.vertices(),
            discovery,
            self.word.as_ref(),
            true,
            |v| self.select_paths(g, v),
        )?;
        EXTRACTED_ROWS.add(out.len() as u64);
        span.field("rows", out.len());
        Ok(out)
    }

    /// Algorithm 1 restricted to specific vertices with *fresh* path
    /// selection (IncExt re-extraction; the discovery cache may be stale
    /// for these vertices).
    pub fn extract_vertices(
        &self,
        g: &LabeledGraph,
        vertices: &[VertexId],
        discovery: &Discovery,
    ) -> Result<Relation> {
        // Bypass the discovery cache entirely: these vertices' vicinities
        // changed.
        let mut span = gsj_obs::span("rext.extract");
        let out = extract_relation(
            g,
            vertices.iter().copied(),
            discovery,
            self.word.as_ref(),
            false,
            |v| self.select_paths(g, v),
        )?;
        EXTRACTED_ROWS.add(out.len() as u64);
        span.field("rows", out.len()).field("fresh", vertices.len());
        Ok(out)
    }
}

/// The naming embeddings of `paths`: per distinct (end label, last edge
/// label), the word embedding of the end label (double weight) plus that
/// of the last edge label, L2-normalized. Used by the ranking function's
/// keyword and overlap terms.
///
/// The paper's formula embeds the end label alone, relying on pretrained
/// GloVe to place values near concept words (`UK` near `location`). Our
/// hash embedder has no world knowledge, so the final predicate carries
/// the concept signal instead — the paper's own motivating example: "to
/// retrieve UK from G as the country of company1, one need to select
/// semantically close regloc". Only the *last* edge participates: an
/// attribute is named by where its paths end, and including earlier hops
/// would let `treats_symptom` tokens hijack the `disease` cluster one hop
/// further down the chain.
pub(crate) fn naming_embeddings(
    g: &LabeledGraph,
    paths: &[Path],
    word: &dyn WordEmbedder,
    me: &mut LabelEmbCache,
) -> Result<NameEmbs> {
    let (keys, of) = first_occurrences(
        paths
            .iter()
            .map(|p| (end_label(g, p), p.labels().last().copied())),
    );
    let labels = keys
        .iter()
        .flat_map(|&(end, last)| last.into_iter().chain([end]));
    me.fill(g.symbols(), word, labels)?;
    let embs = keys
        .iter()
        .map(|&(end, last)| {
            let mut emb = me.get(end).to_vec();
            gsj_nn::vector::scale(&mut emb, 2.0);
            if let Some(last) = last {
                gsj_nn::vector::add_assign(&mut emb, me.get(last));
            }
            gsj_nn::vector::l2_normalize(&mut emb);
            emb
        })
        .collect();
    Ok(NameEmbs { embs, of })
}

/// Crate-internal access to [`Rext::tuple_attr_embeddings`] (used by
/// IncExt's keyword-update path).
pub(crate) fn tuple_attr_embeddings_for(
    rext: &Rext,
    s: &Relation,
    id_attr: &str,
    matches: &MatchRelation,
) -> Result<TupleAttrEmbs> {
    rext.tuple_attr_embeddings(s, id_attr, matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PathKind;
    use gsj_nn::LmConfig;
    use gsj_relational::Schema;

    /// A small two-product fintech graph in the shape of Fig. 1, plus the
    /// product relation and a perfect match relation.
    fn setting() -> (LabeledGraph, Relation, MatchRelation) {
        let mut g = LabeledGraph::new();
        let mut matches = MatchRelation::new();
        let mut s = Relation::empty(Schema::of("product", &["pid", "name", "type"]));
        let countries = ["UK", "US", "DE", "FR"];
        #[allow(clippy::needless_range_loop)] // i indexes several parallel pools
        for i in 0..4 {
            let pid = g.add_vertex(&format!("pid{i}"));
            let name = g.add_vertex(&format!("Fund {i}"));
            let company = g.add_vertex(&format!("company{i}"));
            let country = g.add_vertex(countries[i]);
            let ty = g.add_vertex(if i % 2 == 0 { "Funds" } else { "Stocks" });
            g.add_edge(pid, "name", name);
            g.add_edge(pid, "issue", company);
            g.add_edge(company, "regloc", country);
            g.add_edge(pid, "type", ty);
            s.push_values(vec![
                Value::str(format!("fd{i}")),
                Value::str(format!("Fund {i}")),
                Value::str(if i % 2 == 0 { "Funds" } else { "Stocks" }),
            ])
            .unwrap();
            matches.push(Value::str(format!("fd{i}")), pid);
        }
        (g, s, matches)
    }

    fn quick_cfg(path: PathKind) -> RExtConfig {
        RExtConfig {
            k: 3,
            h: 8,
            m: 2,
            path,
            lm: LmConfig {
                embed_dim: 8,
                hidden: 24,
                epochs: 20,
                seed: 5,
                ..LmConfig::default()
            },
            seed: 77,
            ..RExtConfig::default()
        }
    }

    #[test]
    fn end_to_end_discovery_and_extraction_guided() {
        let (g, s, matches) = setting();
        let rext = Rext::train(&g, quick_cfg(PathKind::LmGuided)).unwrap();
        let keywords = vec!["loc".to_string(), "company".to_string()];
        let disc = rext
            .discover(&g, &matches, Some((&s, "pid")), &keywords, "h_product")
            .unwrap();
        assert!(!disc.clusters.is_empty());
        assert!(disc.schema.contains("vid"));
        let dg = rext.extract(&g, &matches, &disc).unwrap();
        assert_eq!(dg.len(), 4);
        // The loc attribute must recover the countries for most products.
        if let Some(loc_col) = disc.schema.attrs().iter().find(|a| a.as_str() == "loc") {
            let vals = dg.column(loc_col).unwrap();
            let recovered = vals
                .iter()
                .filter(|v| matches!(v.as_str(), Some("UK" | "US" | "DE" | "FR")))
                .count();
            assert!(recovered >= 3, "recovered {recovered} locs: {vals:?}");
        } else {
            panic!("`loc` not selected; schema = {:?}", disc.schema.attrs());
        }
    }

    #[test]
    fn train_is_with_model_over_train_model() {
        let (g, s, matches) = setting();
        let cfg = quick_cfg(PathKind::LmGuided);
        let lm = Rext::train_model(&g, &cfg).unwrap();
        let whole = Rext::train(&g, cfg.clone()).unwrap();
        let halves = Rext::with_model(&g, cfg.clone(), lm.clone()).unwrap();
        let dg = |rext: &Rext| {
            let disc = rext
                .discover(&g, &matches, Some((&s, "pid")), &["loc".to_string()], "h_p")
                .unwrap();
            rext.extract(&g, &matches, &disc).unwrap()
        };
        assert_eq!(
            dg(&whole).rows().collect::<Vec<_>>(),
            dg(&halves).rows().collect::<Vec<_>>()
        );
        // A missing or wrong-width model is refused, not unwrapped later.
        let missing = Rext::with_model(&g, cfg.clone(), None);
        assert!(matches!(missing, Err(GsjError::Config(_))));
        let mut wider = cfg;
        wider.lm.hidden += 1;
        assert!(matches!(
            Rext::with_model(&g, wider, lm),
            Err(GsjError::Config(_))
        ));
        // A variant without a key trains nothing and needs nothing.
        let mut no_lm = quick_cfg(PathKind::Random);
        no_lm.seq = SeqKind::Attn;
        assert!(Rext::train_model(&g, &no_lm).unwrap().is_none());
        assert!(Rext::with_model(&g, no_lm, None).is_ok());
    }

    #[test]
    fn random_path_variant_also_extracts() {
        let (g, s, matches) = setting();
        let rext = Rext::train(&g, quick_cfg(PathKind::Random)).unwrap();
        let disc = rext
            .discover(
                &g,
                &matches,
                Some((&s, "pid")),
                &["company".to_string()],
                "h_product",
            )
            .unwrap();
        let dg = rext.extract(&g, &matches, &disc).unwrap();
        assert_eq!(dg.len(), 4);
        assert_eq!(dg.schema().attrs()[0], "vid");
    }

    #[test]
    fn empty_matches_give_empty_extraction() {
        let (g, s, _) = setting();
        let rext = Rext::train(&g, quick_cfg(PathKind::Random)).unwrap();
        let empty = MatchRelation::new();
        let disc = rext
            .discover(&g, &empty, Some((&s, "pid")), &["loc".to_string()], "h_p")
            .unwrap();
        let dg = rext.extract(&g, &empty, &disc).unwrap();
        assert!(dg.is_empty());
    }

    #[test]
    fn noise_injection_path_is_exercised() {
        let (g, s, matches) = setting();
        let rext = Rext::train(&g, quick_cfg(PathKind::Random)).unwrap();
        let disc = rext
            .discover_with_noise(
                &g,
                &matches,
                Some((&s, "pid")),
                &["loc".to_string()],
                "h_p",
                Some((0.3, 1)),
            )
            .unwrap();
        // Refinement keeps the pipeline functional despite 30% noise.
        let dg = rext.extract(&g, &matches, &disc).unwrap();
        assert_eq!(dg.len(), 4);
    }

    #[test]
    fn extract_vertices_matches_full_extraction() {
        let (g, s, matches) = setting();
        let rext = Rext::train(&g, quick_cfg(PathKind::Random)).unwrap();
        let disc = rext
            .discover(
                &g,
                &matches,
                Some((&s, "pid")),
                &["loc".to_string(), "company".to_string()],
                "h_p",
            )
            .unwrap();
        let full = rext.extract(&g, &matches, &disc).unwrap();
        let vids: Vec<VertexId> = matches.vertices().collect();
        let partial = rext.extract_vertices(&g, &vids, &disc).unwrap();
        // Same rows (order may differ) — fresh selection is deterministic
        // and the graph is unchanged.
        let mut a: Vec<_> = full.rows().collect();
        let mut b: Vec<_> = partial.rows().collect();
        a.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        b.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        assert_eq!(a, b);
    }

    #[test]
    fn extract_vertices_follows_the_graph_not_the_cache() {
        let (mut g, s, matches) = setting();
        let rext = Rext::train(&g, quick_cfg(PathKind::Random)).unwrap();
        let disc = rext
            .discover(
                &g,
                &matches,
                Some((&s, "pid")),
                &["loc".to_string(), "company".to_string()],
                "h_p",
            )
            .unwrap();
        let loc = disc.schema.position("loc").expect("`loc` selected");
        let pid0 = matches.vertices().next().unwrap();
        // Cut company0 off its country after discovery: pid0's cached
        // paths still reach "UK", the graph no longer does.
        let company0 = g.out_edges(pid0)[1].to;
        let regloc = g.symbols().get("regloc").unwrap();
        let uk = g.out_edges(company0)[0].to;
        assert!(g.remove_edge_sym(company0, regloc, uk));
        assert!(disc.paths[&pid0].iter().any(|p| p.end() == uk));

        let stale = rext.extract(&g, &matches, &disc).unwrap();
        assert_eq!(stale.value_at(0, loc), Value::str("UK"));
        let fresh = rext.extract_vertices(&g, &[pid0], &disc).unwrap();
        assert_eq!(fresh.len(), 1);
        assert!(fresh.value_at(0, loc).is_null(), "{:?}", fresh.row(0));
    }

    #[test]
    fn naming_embeddings_equal_one_path_at_a_time() {
        /// The naming embedding of one path on its own, as it was taken
        /// for every path before they were shared.
        fn naming_embedding(g: &LabeledGraph, path: &Path, word: &dyn WordEmbedder) -> Vec<f32> {
            let mut emb = word.embed(&g.vertex_label_str(path.end()));
            gsj_nn::vector::scale(&mut emb, 2.0);
            if let Some(&last) = path.labels().last() {
                let edge_emb = word.embed(&g.symbols().resolve(last));
                gsj_nn::vector::add_assign(&mut emb, &edge_emb);
            }
            gsj_nn::vector::l2_normalize(&mut emb);
            emb
        }
        let (g, _, matches) = setting();
        let word = HashEmbedder::new(48);
        let mut paths = vec![Path::new(matches.vertices().next().unwrap())]; // no edge at all
        for v in matches.vertices() {
            paths.extend(crate::path_select::select_paths_random(&g, v, 3, 1));
        }
        let names = naming_embeddings(&g, &paths, &word, &mut Default::default()).unwrap();
        assert!(names.embs.len() < paths.len(), "type labels repeat");
        for (p, &n) in paths.iter().zip(&names.of) {
            let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&names.embs[n as usize]),
                bits(&naming_embedding(&g, p, &word))
            );
        }
    }

    #[test]
    fn a_panicking_embedder_on_a_pool_thread_is_an_error_not_an_unwind() {
        /// `Me` with a bug on one label.
        struct Panicky(HashEmbedder);
        impl WordEmbedder for Panicky {
            fn dim(&self) -> usize {
                self.0.dim()
            }
            fn embed(&self, text: &str) -> Vec<f32> {
                assert_ne!(text, "label 300", "no embedding for {text}");
                self.0.embed(text)
            }
        }
        // More distinct labels than one task of `fill` takes, so two
        // workers put them on the pool.
        let symbols = gsj_common::SymbolTable::new();
        let labels: Vec<_> = (0..600)
            .map(|i| symbols.intern(&format!("label {i}")))
            .collect();
        let word = Panicky(HashEmbedder::new(16));
        let filled = pool::with_threads(2, || {
            LabelEmbCache::default().fill(&symbols, &word, labels.iter().copied())
        });
        match filled {
            Err(GsjError::Internal(m)) => {
                assert!(
                    m.contains("panicked") && m.contains("no embedding for label 300"),
                    "{m}"
                )
            }
            other => panic!("expected Internal, got {other:?}"),
        }
    }
}
