//! `SelectPath`: model-guided path selection (Section III-A step 1).
//!
//! From a matched entity vertex `vi`, paths are grown per incident edge
//! (undirected view). At each step the language model is queried for the
//! next-token distribution and the incident edges whose *labels* the model
//! rates highest are taken — the top `BRANCH` (2) distinct labels, each
//! through one deterministic representative edge. The walk stops when (a)
//! the model rates `<eos>` above every feasible continuation, (b) there is
//! no edge to take, (c) the length bound `k` is reached, or (d) the only
//! continuations would close a cycle. Every prefix of a grown path is
//! retained in the output, so properties at all depths `1..=k` are
//! reachable by pattern matching later.
//!
//! The small distinct-label branching factor is a deliberate refinement of
//! the paper's strictly greedy rule: in graphs where value vertices are
//! shared hubs, the majority incident label at a hub points *back into
//! other entities*, and a single greedy chain would never descend to the
//! deeper properties (symptoms, diseases, countries). Branching over
//! distinct labels keeps the selection LM-guided and non-enumerative
//! (≤ `BRANCH^k` chains per seed edge, hard-capped) while restoring
//! coverage of legitimate property chains.
//!
//! The `RndPath` baseline replaces the model's choice with a uniformly
//! random single chain (same stop conditions minus `<eos>`).

use gsj_graph::{Direction, Edge, LabeledGraph, Path, VertexId};
use gsj_nn::lm::EOS;
use gsj_nn::{LanguageModel, LmSession};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// How many paths to retain per start vertex at most (a safety valve for
/// very high-degree vertices).
const MAX_PATHS_PER_VERTEX: usize = 128;

/// Distinct incident labels expanded per step.
const BRANCH: usize = 2;

/// Is taking `(edge, dir)` after having arrived via `(prev_label,
/// prev_dir)` a *sibling bounce* — entering and leaving a shared vertex
/// over the same predicate with flipped orientation (`X -p-> V <-p- Y`)?
/// Such hops connect peers of the hub, not properties, and are excluded
/// from selection. Same label with the *same* orientation is a genuine
/// transitive chain (`A -cites-> B -cites-> C`) and stays allowed.
#[inline]
fn is_sibling_bounce(
    prev: Option<(gsj_common::Symbol, Direction)>,
    edge: &Edge,
    dir: Direction,
) -> bool {
    match prev {
        Some((pl, pd)) => pl == edge.label && pd != dir,
        None => false,
    }
}

/// Select paths from `start`, guided by `lm`.
pub fn select_paths_guided(
    g: &LabeledGraph,
    start: VertexId,
    k: usize,
    lm: &LanguageModel,
) -> Vec<Path> {
    let mut out = Vec::new();
    let Some(start_label) = g.vertex_label(start) else {
        return out;
    };
    for (first_edge, first_dir) in g.incident(start) {
        if out.len() >= MAX_PATHS_PER_VERTEX {
            break;
        }
        let mut path = Path::new(start);
        if !path.push(first_edge.label, first_edge.to) {
            continue;
        }
        // Keep the session consistent with the training distribution:
        // vertex label, edge label, vertex label, ...
        let mut session = lm.session();
        session.feed(start_label);
        session.feed(first_edge.label);
        out.push(path.clone());
        grow(
            g,
            lm,
            path,
            session,
            first_edge.to,
            (first_edge.label, first_dir),
            k,
            &mut out,
        );
    }
    out
}

/// Recursively extend `path` from `current`, branching over the top
/// distinct labels.
#[allow(clippy::too_many_arguments)]
fn grow(
    g: &LabeledGraph,
    lm: &LanguageModel,
    path: Path,
    mut session: LmSession<'_>,
    current: VertexId,
    arrived_via: (gsj_common::Symbol, Direction),
    k: usize,
    out: &mut Vec<Path>,
) {
    if path.len() >= k || out.len() >= MAX_PATHS_PER_VERTEX {
        return;
    }
    let Some(cur_label) = g.vertex_label(current) else {
        return;
    };
    let dist = session.feed(cur_label);
    // One representative edge per distinct incident (label, orientation),
    // skipping cycle-closing hops (stop condition (d)) and sibling
    // bounces; representative = the smallest (label, target) for
    // determinism.
    let mut candidates: Vec<(f32, gsj_graph::Edge, Direction)> = Vec::new();
    for (e, d) in g.incident(current) {
        if path.would_cycle(e.to) || is_sibling_bounce(Some(arrived_via), &e, d) {
            continue;
        }
        let p = dist[lm.token_of(e.label)];
        match candidates
            .iter_mut()
            .find(|(_, c, cd)| c.label == e.label && *cd == d)
        {
            Some((_, c, _)) => {
                if (e.label, e.to) < (c.label, c.to) {
                    *c = e;
                }
            }
            None => candidates.push((p, e, d)),
        }
    }
    // Stop condition (b): nowhere to go.
    if candidates.is_empty() {
        return;
    }
    candidates.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.1.label, a.1.to).cmp(&(b.1.label, b.1.to)))
    });
    // Stop condition (a): the model emits the stop signal — <eos> is the
    // argmax of the whole next-token distribution (the paper's literal
    // rule; mass on infeasible labels must not suppress feasible ones).
    // With a *single* feasible continuation the stop signal must be
    // near-certain to prune it: the signal arbitrates between
    // alternatives, and single-continuation contexts are exactly where a
    // small LM's <eos> estimate is least reliable.
    let global_max = dist.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let eos_stops = dist[EOS] >= global_max && dist[EOS] > candidates[0].0;
    if eos_stops && (candidates.len() > 1 || dist[EOS] > 0.9) {
        return;
    }
    for (_, edge, dir) in candidates.into_iter().take(BRANCH) {
        if out.len() >= MAX_PATHS_PER_VERTEX {
            break;
        }
        let mut next_path = path.clone();
        if !next_path.push(edge.label, edge.to) {
            continue;
        }
        let mut next_session = session.fork();
        next_session.feed(edge.label);
        out.push(next_path.clone());
        grow(
            g,
            lm,
            next_path,
            next_session,
            edge.to,
            (edge.label, dir),
            k,
            out,
        );
    }
}

/// The `RndPath` baseline: random next edges, no model.
pub fn select_paths_random(g: &LabeledGraph, start: VertexId, k: usize, seed: u64) -> Vec<Path> {
    let mut rng = SmallRng::seed_from_u64(seed ^ (start.0 as u64).wrapping_mul(0x9e37_79b9));
    let mut out = Vec::new();
    if !g.is_live(start) {
        return out;
    }
    for (first_edge, _dir) in g.incident(start) {
        if out.len() >= MAX_PATHS_PER_VERTEX {
            break;
        }
        let mut path = Path::new(start);
        if !path.push(first_edge.label, first_edge.to) {
            continue;
        }
        out.push(path.clone());
        let mut current = first_edge.to;
        let mut prev = (first_edge.label, _dir);
        while path.len() < k {
            let options: Vec<(gsj_graph::Edge, Direction)> = g
                .incident(current)
                .filter(|(e, d)| !path.would_cycle(e.to) && !is_sibling_bounce(Some(prev), e, *d))
                .collect();
            if options.is_empty() {
                break;
            }
            let (edge, dir) = options[rng.random_range(0..options.len())];
            if !path.push(edge.label, edge.to) {
                break;
            }
            out.push(path.clone());
            prev = (edge.label, dir);
            current = edge.to;
        }
    }
    out
}

/// Dispatch on [`crate::config::PathKind`].
pub fn select_paths(
    g: &LabeledGraph,
    start: VertexId,
    k: usize,
    kind: crate::config::PathKind,
    lm: Option<&LanguageModel>,
    seed: u64,
) -> Vec<Path> {
    match kind {
        crate::config::PathKind::LmGuided => {
            let lm = lm.expect("LmGuided path selection requires a trained model");
            select_paths_guided(g, start, k, lm)
        }
        crate::config::PathKind::Random => select_paths_random(g, start, k, seed),
    }
}

/// The `_dir` binding above is deliberate: selection treats the graph as
/// undirected, per Section II-A.
#[allow(dead_code)]
fn _doc(_: Direction) {}

#[cfg(test)]
mod tests {
    use super::*;
    use gsj_graph::random_walk::{build_corpus, WalkConfig};
    use gsj_nn::LmConfig;

    /// pid --issue--> company --regloc--> country, plus a distracting
    /// self-contained "noise" branch.
    fn fintech() -> (LabeledGraph, VertexId) {
        let mut g = LabeledGraph::new();
        let pid = g.add_vertex("pid1");
        let company = g.add_vertex("company1");
        let country = g.add_vertex("UK");
        g.add_edge(pid, "issue", company);
        g.add_edge(company, "regloc", country);
        let noise = g.add_vertex("noise-hub");
        g.add_edge(pid, "clicked", noise);
        (g, pid)
    }

    fn tiny_lm(g: &LabeledGraph) -> LanguageModel {
        let corpus = build_corpus(
            g,
            &WalkConfig::default(),
            &gsj_common::QueryGovernor::unlimited(),
        )
        .unwrap();
        LanguageModel::train(
            &corpus,
            g.symbols(),
            LmConfig {
                embed_dim: 8,
                hidden: 16,
                epochs: 8,
                seed: 3,
                ..LmConfig::default()
            },
        )
    }

    #[test]
    fn guided_selection_reaches_deep_properties() {
        let (g, pid) = fintech();
        let lm = tiny_lm(&g);
        let paths = select_paths_guided(&g, pid, 3, &lm);
        assert!(!paths.is_empty());
        // All prefixes retained → a 1-hop path to company1 must exist.
        assert!(paths.iter().any(|p| p.len() == 1));
        // The 2-hop chain issue→regloc must be among the grown paths.
        let issue = g.symbols().get("issue").unwrap();
        let regloc = g.symbols().get("regloc").unwrap();
        assert!(
            paths.iter().any(|p| p.labels() == [issue, regloc]),
            "paths: {:?}",
            paths
                .iter()
                .map(|p| p.labels().to_vec())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn paths_respect_length_bound() {
        let (g, pid) = fintech();
        let lm = tiny_lm(&g);
        for p in select_paths_guided(&g, pid, 1, &lm) {
            assert!(p.len() <= 1);
        }
        for p in select_paths_random(&g, pid, 2, 5) {
            assert!(p.len() <= 2);
        }
    }

    #[test]
    fn paths_are_simple() {
        // A triangle invites cycles; selection must never revisit.
        let mut g = LabeledGraph::new();
        let a = g.add_vertex("a");
        let b = g.add_vertex("b");
        let c = g.add_vertex("c");
        g.add_edge(a, "e1", b);
        g.add_edge(b, "e2", c);
        g.add_edge(c, "e3", a);
        for p in select_paths_random(&g, a, 5, 1) {
            let mut vs = p.vertices().to_vec();
            vs.sort();
            vs.dedup();
            assert_eq!(vs.len(), p.vertices().len(), "cycle in {p:?}");
        }
    }

    #[test]
    fn random_selection_is_deterministic_per_seed() {
        let (g, pid) = fintech();
        assert_eq!(
            select_paths_random(&g, pid, 3, 9),
            select_paths_random(&g, pid, 3, 9)
        );
    }

    #[test]
    fn isolated_vertex_has_no_paths() {
        let mut g = LabeledGraph::new();
        let v = g.add_vertex("alone");
        assert!(select_paths_random(&g, v, 3, 1).is_empty());
    }

    #[test]
    fn dead_vertex_has_no_paths() {
        let (mut g, pid) = fintech();
        g.remove_vertex(pid);
        assert!(select_paths_random(&g, pid, 3, 1).is_empty());
        let lm = tiny_lm(&g);
        assert!(select_paths_guided(&g, pid, 3, &lm).is_empty());
    }
}
