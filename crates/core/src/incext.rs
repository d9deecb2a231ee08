//! IncExt: incremental maintenance of extracted relations (Section III-B).
//!
//! Two update classes are handled:
//!
//! - **Data updates** `ΔG` ([`inc_update_graph`]): re-match, against a
//!   block index over the affected vertices only, the tuples whose match
//!   sits near an update; collect `V_Δ` — (a) vertices those tuples newly
//!   match, and (b) matched vertices in the *pattern zone* of `ΔG`
//!   ([`pattern_affected_zone`]: some path conforming to a selected
//!   pattern from them passes through a touched vertex) — and re-run only
//!   Algorithm 1's lines 3–4 for them. Pattern discovery is *not* redone.
//!   The paper's "no accuracy loss" claim holds exactly on the `tiny`
//!   fixtures `tests/tests/incext.rs` drives; in general it does not yet:
//!   the local index's block sizes and candidate set differ from the full
//!   one's, and re-selected paths follow the edited adjacency order
//!   (0.9944 row agreement at the benchmark's fixture A; ROADMAP item
//!   1(b) has the causes and the fix).
//! - **Keyword updates** ([`inc_update_keywords`]): when the user's
//!   interest `A` shifts, only step (4) of pattern discovery (ranking /
//!   selection) is redone against the retained refined clusters, and only
//!   values of genuinely new attributes are extracted.

use crate::discover::{select_attributes, Discovery};
use crate::extract::{extract_values, ClusterLookup, LabelEmbCache};
use crate::rext::Rext;
use gsj_common::{retry, FxHashSet, Result, Value};
use gsj_graph::traversal::k_hop_balls;
use gsj_graph::update::UpdateReport;
use gsj_graph::{LabeledGraph, VertexId};
use gsj_her::{her_match_local, HerConfig, MatchRelation};
use gsj_relational::{Column, Relation, Schema};

/// The maintained state: discovery, HER matches and the extracted `D_G`.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// Pattern discovery output (schema + clusters + caches).
    pub discovery: Discovery,
    /// The current `f(S,G)`.
    pub matches: MatchRelation,
    /// The current `D_G` of schema `R_G(vid, A...)`.
    pub dg: Relation,
}

/// The live vertices within `hops` undirected hops of a live touched
/// vertex: those whose HER vicinity an update could have changed. A
/// removed vertex is in no ball; a match on one is redone regardless.
fn her_zone(g: &LabeledGraph, touched: &FxHashSet<VertexId>, hops: usize) -> FxHashSet<VertexId> {
    let touched: Vec<VertexId> = touched.iter().copied().collect();
    k_hop_balls(g, &touched, hops).targets.into_iter().collect()
}

/// The extraction-affected vertex set, computed by *label-constrained
/// reverse reachability*: a matched vertex's extracted row can only change
/// if some path conforming to a **selected pattern** from it passes
/// through a touched vertex. So, for every selected pattern
/// `(l1, ..., lm)` and every position `i` a touched vertex could occupy on
/// such a path, walk backwards from the touched set over the reversed
/// label prefix `(li, ..., l1)` (orientation-blind — conforming paths are
/// undirected). This is sound and far tighter than the paper's plain
/// k-hop ball, which in dense graphs reaches everything through shared
/// value hubs (see DESIGN.md §7).
pub fn pattern_affected_zone(
    g: &LabeledGraph,
    touched: &FxHashSet<VertexId>,
    discovery: &Discovery,
) -> FxHashSet<VertexId> {
    let mut out: FxHashSet<VertexId> = touched.clone(); // position 0: v itself
    for cluster in &discovery.clusters {
        for pattern in &cluster.patterns {
            let labels = pattern.labels();
            for i in 1..=labels.len() {
                // Touched vertex at position i → reverse over labels
                // l_i, l_{i-1}, ..., l_1.
                let mut frontier: FxHashSet<VertexId> =
                    touched.iter().copied().filter(|v| g.is_live(*v)).collect();
                for step in (0..i).rev() {
                    let lab = labels[step];
                    let mut next = FxHashSet::default();
                    for &v in &frontier {
                        for (e, _) in g.incident(v) {
                            if e.label == lab {
                                next.insert(e.to);
                            }
                        }
                    }
                    frontier = next;
                    if frontier.is_empty() {
                        break;
                    }
                }
                out.extend(frontier);
            }
        }
    }
    out
}

static INCEXT_RETRIES: gsj_obs::LazyCounter =
    gsj_obs::LazyCounter::new("gsj_core_incext_retry_total");

/// Run one IncExt phase under the retry policy: each attempt first passes
/// the phase's fault point, so injected recoverable faults exercise the
/// backoff path. The phases are deterministic over immutable inputs, which
/// is what makes blind re-execution sound.
fn retried<T>(site: &'static str, mut op: impl FnMut() -> Result<T>) -> Result<T> {
    retry::run_with(
        |_attempt| {
            gsj_faults::fault_point(site, gsj_faults::FaultClass::Recoverable)?;
            op()
        },
        |retry, err| {
            INCEXT_RETRIES.inc();
            gsj_obs::event(
                "incext.retry",
                &[("site", &site), ("retry", &retry), ("error", &err)],
            );
        },
    )
}

/// Apply a data update: `g` must already be the *updated* graph and
/// `report` the [`UpdateReport`] from applying `ΔG`.
///
/// Each phase (zone computation, localized HER, re-extraction) retries
/// with backoff on retryable failures before the whole update fails.
pub fn inc_update_graph(
    rext: &Rext,
    g: &LabeledGraph,
    s: &Relation,
    her_cfg: &HerConfig,
    prev: &Extraction,
    report: &UpdateReport,
) -> Result<Extraction> {
    let mut update_span = gsj_obs::span("incext.update_graph");
    update_span.field("touched", report.touched.len());
    let affected_zone = retried("incext.zone", || {
        let mut span = gsj_obs::span("incext.zone");
        let zone = pattern_affected_zone(g, &report.touched, &prev.discovery);
        span.field("vertices", zone.len());
        Ok(zone)
    })?;
    // HER depends on the (hops-bounded) vicinity, not on patterns: a
    // separate, shallow ball gates match re-computation.
    let her_zone = her_zone(g, &report.touched, her_cfg.hops);

    // --- Re-run HER locally: tuples that were unmatched, or whose match
    // died, or whose matched vertex sits near an update.
    let id_pos = s.schema().require(&her_cfg.id_attr)?;
    let redo_idx: Vec<u32> = (0..s.len())
        .filter(|&r| match prev.matches.vertex_of(&s.value_at(r, id_pos)) {
            None => true,
            Some(v) => !g.is_live(v) || her_zone.contains(&v) || affected_zone.contains(&v),
        })
        .map(|r| r as u32)
        .collect();
    let redo = s.gather(&redo_idx);
    let redo_tids: FxHashSet<Value> = redo.column(&her_cfg.id_attr)?.into_iter().collect();
    let rerun_matches = retried("incext.her_redo", || {
        let mut span = gsj_obs::span("incext.her_redo");
        span.field("redo_rows", redo.len());
        if redo.is_empty() {
            Ok(MatchRelation::new())
        } else {
            // Localized HER: candidates are the vertices whose vicinity an
            // update could have changed, plus the redo tuples' previous
            // matches (so an unchanged match can be re-confirmed); the
            // index takes a vertex listed twice once.
            let previous = redo_tids.iter().filter_map(|t| prev.matches.vertex_of(t));
            let candidates = her_zone.iter().chain(&affected_zone).copied();
            her_match_local(g, &redo, her_cfg, candidates.chain(previous))
        }
    })?;

    // --- Merge into the new match relation.
    let mut new_matches = MatchRelation::new();
    for (tid, vid) in prev.matches.pairs() {
        if !redo_tids.contains(tid) {
            new_matches.push(tid.clone(), *vid);
        }
    }
    for (tid, vid) in rerun_matches.pairs() {
        new_matches.push(tid.clone(), *vid);
    }

    // --- V_Δ: vertices whose extraction could have changed — matches
    // that moved to a *different* vertex, plus any current match inside
    // the pattern-affected zone. A re-confirmed match outside the zone
    // keeps its D_G row untouched (extraction is a function of the vertex
    // and its unaffected paths).
    let mut v_delta: FxHashSet<VertexId> = FxHashSet::default();
    for (tid, v) in rerun_matches.pairs() {
        if prev.matches.vertex_of(tid) != Some(*v) {
            v_delta.insert(*v);
        }
    }
    for (_, v) in new_matches.pairs() {
        if affected_zone.contains(v) {
            v_delta.insert(*v);
        }
    }

    // --- Patch D_G: one gather of the untouched rows, then append the
    // re-extracted V_Δ. A `vid` cell that is no vertex keeps no row.
    let matched_now: FxHashSet<VertexId> = new_matches.vertices().collect();
    let vid_pos = prev.dg.schema().require("vid")?;
    let kept: Vec<u32> = (0..prev.dg.len())
        .filter(|&r| {
            VertexId::from_value(&prev.dg.value_at(r, vid_pos)).is_some_and(|vid| {
                matched_now.contains(&vid) && !v_delta.contains(&vid) && g.is_live(vid)
            })
        })
        .map(|r| r as u32)
        .collect();
    let mut dg = prev.dg.gather(&kept);
    let mut ordered: Vec<VertexId> = v_delta
        .iter()
        .copied()
        .filter(|v| matched_now.contains(v))
        .collect();
    ordered.sort();
    let fresh = retried("incext.re_extract", || {
        let mut span = gsj_obs::span("incext.re_extract");
        span.field("vertices", ordered.len());
        rext.extract_vertices(g, &ordered, &prev.discovery)
    })?;
    dg.append_rows(&fresh)?;
    // Stored, so the new `D_G` does not pin the old one's columns.
    let dg = dg.materialized();

    // --- Refresh the path cache for the re-extracted vertices (the one
    // copy of the discovery an update makes).
    let mut discovery = prev.discovery.clone();
    for v in &v_delta {
        discovery.paths.remove(v);
    }

    Ok(Extraction {
        discovery,
        matches: new_matches,
        dg,
    })
}

/// Apply a keyword update: redo only the ranking/selection step against
/// the retained refined clusters, copy columns of attributes that survive,
/// and extract values only for attributes new to `R_G`.
pub fn inc_update_keywords(
    rext: &Rext,
    g: &LabeledGraph,
    reference: Option<(&Relation, &str)>,
    prev: &Extraction,
    new_keywords: &[String],
) -> Result<Extraction> {
    // Recover the flat path/feature sets from the discovery cache — no
    // path selection, no clustering.
    let mut vertices: Vec<&VertexId> = prev.discovery.paths.keys().collect();
    vertices.sort();
    let mut flat = Vec::new();
    for v in vertices {
        flat.extend(prev.discovery.paths[v].iter().cloned());
    }
    let word = rext.word_embedder();
    let mut cache = LabelEmbCache::default();
    let names = crate::rext::naming_embeddings(g, &flat, word, &mut cache)?;

    let keyword_embs: Vec<(String, Vec<f32>)> = new_keywords
        .iter()
        .map(|k| (k.clone(), word.embed(k)))
        .collect();
    let tuple_attr_embs = match reference {
        Some((s, id_attr)) => {
            // Reuse Rext's embedding logic through a local rebuild.
            crate::rext::tuple_attr_embeddings_for(rext, s, id_attr, &prev.matches)?
        }
        None => Default::default(),
    };
    let m = rext.config().m.min(new_keywords.len().max(1));
    let (clusters, schema) = select_attributes(
        &prev.discovery.refined,
        &flat,
        &names,
        &tuple_attr_embs,
        &keyword_embs,
        m,
        prev.discovery.schema.name(),
    )?;

    let mut discovery = prev.discovery.clone();
    discovery.clusters = clusters;
    discovery.schema = schema.clone();
    discovery.keyword_embs = keyword_embs;

    // Rebuild D_G column by column: surviving attributes share the old
    // column, new ones are extracted per row from the cached paths (a
    // `vid` cell that is no vertex has none), the rest are NULL.
    let old_schema: &Schema = prev.dg.schema();
    let vid_pos = old_schema.require("vid")?;
    let n = prev.dg.len();
    let row_paths: Vec<&[gsj_graph::Path]> = (0..n)
        .map(|r| {
            VertexId::from_value(&prev.dg.value_at(r, vid_pos))
                .and_then(|vid| prev.discovery.paths.get(&vid))
                .map_or(&[][..], Vec::as_slice)
        })
        .collect();
    let mut cols = vec![prev.dg.columns()[vid_pos].clone()];
    for attr in schema.attrs().iter().skip(1) {
        cols.push(if let Some(i) = old_schema.position(attr) {
            prev.dg.columns()[i].clone()
        } else if let Some(cluster) = discovery.clusters.iter().rfind(|c| &c.attr == attr) {
            let single = ClusterLookup::new(std::slice::from_ref(cluster));
            Column::from_values(
                row_paths.iter().map(|paths| {
                    extract_values(g, paths, &single, word, &mut cache).swap_remove(0)
                }),
            )
            .into()
        } else {
            Column::null(n).into()
        });
    }
    let dg = Relation::from_shared_columns(schema, cols, n)?;

    Ok(Extraction {
        discovery,
        matches: prev.matches.clone(),
        dg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_source_ball_covers_all_seeds() {
        let mut g = LabeledGraph::new();
        let vs: Vec<_> = (0..7).map(|i| g.add_vertex(&format!("v{i}"))).collect();
        for w in vs.windows(2) {
            g.add_edge(w[0], "e", w[1]);
        }
        g.remove_vertex(vs[6]);
        let touched: FxHashSet<VertexId> = [vs[0], vs[5], vs[6]].into_iter().collect();
        let mut zone: Vec<VertexId> = her_zone(&g, &touched, 1).into_iter().collect();
        zone.sort();
        // The removed seed is in no ball, its live neighbour only in v5's.
        assert_eq!(zone, [vs[0], vs[1], vs[4], vs[5]]);
    }
}
