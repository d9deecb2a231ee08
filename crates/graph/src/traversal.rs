//! BFS traversals: k-hop neighborhoods and pairwise k-hop connectivity.
//!
//! Link joins (Section II-B) test whether matching vertices are within `k`
//! hops of each other; IncExt (Section III-B) collects all matched vertices
//! within `k` hops of an update. Both run on the *undirected* view of `G`.
//!
//! The k-hop ball comes in two forms: the classic infallible
//! [`k_hop_set`] and [`k_hop_set_governed`], which takes a
//! [`QueryGovernor`] — the governed form checks cancellation / deadline
//! inside the frontier loop (strided, so the overhead is one `fetch_add`
//! per pop) and carries the `graph.khop` fault-injection point (see
//! DESIGN.md §11). The classic form is a zero-cost wrapper that skips
//! both. [`KHopScratch`] is the classic form into reused buffers, for a
//! caller that takes one small ball per vertex. The pairwise
//! [`within_k_hops`] is ungoverned only: it is the reference link joins
//! are checked against, not a path they run.

use crate::graph::{LabeledGraph, VertexId};
use gsj_common::{pool, FxHashMap, FxHashSet, QueryGovernor, Result};
use gsj_faults::{fault_point, FaultClass};
use gsj_obs::LazyCounter;

// Aggregate counters, bumped once per call (never inside the BFS loops)
// so the hot paths stay cheap. See DESIGN.md §10.
static KHOP_CALLS: LazyCounter = LazyCounter::new("gsj_graph_khop_calls_total");
static KHOP_VISITED: LazyCounter = LazyCounter::new("gsj_graph_khop_visited_total");
static BFS_CALLS: LazyCounter = LazyCounter::new("gsj_graph_bfs_calls_total");
static BFS_VISITED: LazyCounter = LazyCounter::new("gsj_graph_bfs_visited_total");
static BFS_HITS: LazyCounter = LazyCounter::new("gsj_graph_bfs_hits_total");

// INVARIANT(allowlist): with `gov: None` the `_impl` traversals perform
// no governance checks and no fault points — the only fallible paths —
// so unwrapping in the classic wrappers cannot panic. Pool workers
// spawned for large frontiers follow the same rule: their
// `pool.worker` fault point is armed only under a governor.
const UNGOVERNED: &str = "ungoverned traversal is infallible";

/// Frontier vertices per pool task, and the frontier size up to which a
/// BFS level expands inline: pool fan-out only pays off once a level
/// scans thousands of adjacency lists. A lowered
/// [`pool::with_morsel_rows`] override lowers it with it, so equivalence
/// tests can exercise the parallel path on small graphs.
const FRONTIER_GRAIN: usize = 1024;

/// Expand one BFS level: every neighbor of `frontier` for which
/// `is_seen` is false, in frontier order (duplicates included — the
/// caller dedupes as it inserts, which also folds away the races a
/// frozen `is_seen` view cannot observe). Fans the adjacency scans out
/// across the worker pool when the frontier is large; partials
/// concatenate in range order, so the result is identical to the inline
/// scan.
fn expand_level(
    g: &LabeledGraph,
    frontier: &[VertexId],
    is_seen: &(dyn Fn(&VertexId) -> bool + Sync),
    gov: Option<&QueryGovernor>,
) -> Result<Vec<VertexId>> {
    let grain = FRONTIER_GRAIN.min(pool::morsel_rows());
    let parts = pool::run_ranges(frontier.len(), grain, |range, pooled| {
        if pooled && gov.is_some() {
            fault_point("pool.worker", FaultClass::Critical)?;
        }
        let mut out = Vec::new();
        for &w in &frontier[range] {
            if let Some(gov) = gov {
                gov.check_coarse("graph.khop")?;
            }
            for (e, _) in g.incident(w) {
                if !is_seen(&e.to) {
                    out.push(e.to);
                }
            }
        }
        Ok(out)
    })?;
    Ok(pool::concat(parts))
}

/// All live vertices within `k` undirected hops of `start` (including
/// `start` itself at distance 0).
pub fn k_hop_set(g: &LabeledGraph, start: VertexId, k: usize) -> FxHashSet<VertexId> {
    k_hop_set_impl(g, start, k, None).expect(UNGOVERNED)
}

/// [`k_hop_set`] under a governor: the frontier loop observes
/// cancellation, deadline and budgets at stride granularity.
pub fn k_hop_set_governed(
    g: &LabeledGraph,
    start: VertexId,
    k: usize,
    gov: &QueryGovernor,
) -> Result<FxHashSet<VertexId>> {
    k_hop_set_impl(g, start, k, Some(gov))
}

fn k_hop_set_impl(
    g: &LabeledGraph,
    start: VertexId,
    k: usize,
    gov: Option<&QueryGovernor>,
) -> Result<FxHashSet<VertexId>> {
    if gov.is_some() {
        fault_point("graph.khop", FaultClass::Critical)?;
    }
    let mut seen: FxHashSet<VertexId> = FxHashSet::default();
    if !g.is_live(start) {
        return Ok(seen);
    }
    seen.insert(start);
    let mut frontier = vec![start];
    for _ in 0..k {
        if frontier.is_empty() {
            break;
        }
        let candidates = expand_level(g, &frontier, &|v| seen.contains(v), gov)?;
        frontier.clear();
        for v in candidates {
            if seen.insert(v) {
                frontier.push(v);
            }
        }
    }
    KHOP_CALLS.inc();
    KHOP_VISITED.add(seen.len() as u64);
    Ok(seen)
}

/// The buffers of one k-hop ball, reused over a run of them: HER's block
/// index takes a ball per indexed vertex, and a fresh set each would cost
/// more than the walk. Always inline and ungoverned.
#[derive(Default)]
pub struct KHopScratch {
    seen: FxHashSet<VertexId>,
    /// The ball in BFS order; the tail from the last level's start on is
    /// the frontier.
    order: Vec<VertexId>,
}

impl KHopScratch {
    /// The vertices of [`k_hop_set`]`(g, start, k)`, each once, in BFS
    /// order; valid until the next call.
    pub fn ball(&mut self, g: &LabeledGraph, start: VertexId, k: usize) -> &[VertexId] {
        self.seen.clear();
        self.order.clear();
        if g.is_live(start) {
            self.seen.insert(start);
            self.order.push(start);
            let mut level_start = 0;
            for _ in 0..k {
                let level_end = self.order.len();
                for i in level_start..level_end {
                    for (e, _) in g.incident(self.order[i]) {
                        if self.seen.insert(e.to) {
                            self.order.push(e.to);
                        }
                    }
                }
                level_start = level_end;
            }
        }
        KHOP_CALLS.inc();
        KHOP_VISITED.add(self.order.len() as u64);
        &self.order
    }
}

/// Bidirectional BFS: are `u` and `v` connected within `k` undirected hops?
///
/// This is the join condition of the link join `S1 ⋈G S2` (Section IV-A's
/// "check their pairwise distance via a bi-directional BFS search").
///
/// Ungoverned: no engine path probes pairs any more (link joins expand
/// per source through [`k_hop_set_governed`]); this stays as the
/// reference the per-source index is tested and benchmarked against.
pub fn within_k_hops(g: &LabeledGraph, u: VertexId, v: VertexId, k: usize) -> bool {
    BFS_CALLS.inc();
    if !g.is_live(u) || !g.is_live(v) {
        return false;
    }
    if u == v {
        BFS_HITS.inc();
        return true;
    }
    if k == 0 {
        return false;
    }
    // Expand alternately from both ends; meet in the middle.
    let mut from_u: FxHashMap<VertexId, usize> = FxHashMap::default();
    let mut from_v: FxHashMap<VertexId, usize> = FxHashMap::default();
    from_u.insert(u, 0);
    from_v.insert(v, 0);
    let mut frontier_u = vec![u];
    let mut frontier_v = vec![v];
    let (mut du, mut dv) = (0usize, 0usize);

    while du + dv < k && (!frontier_u.is_empty() || !frontier_v.is_empty()) {
        // Expand the smaller frontier first.
        let expand_u = !frontier_u.is_empty()
            && (frontier_v.is_empty() || frontier_u.len() <= frontier_v.len());
        let (frontier, depth, mine, theirs) = if expand_u {
            du += 1;
            (&mut frontier_u, du, &mut from_u, &from_v)
        } else {
            dv += 1;
            (&mut frontier_v, dv, &mut from_v, &from_u)
        };
        // The expensive part — scanning every adjacency list in the
        // frontier — fans out over a frozen view of `mine`; the merge
        // below replays the sequential skip/hit/insert decisions, so
        // the verdict is identical to the inline loop's.
        let candidates =
            expand_level(g, frontier, &|x| mine.contains_key(x), None).expect(UNGOVERNED);
        let mut next = Vec::new();
        for x in candidates {
            if mine.contains_key(&x) {
                continue;
            }
            if let Some(&other_d) = theirs.get(&x) {
                if depth + other_d <= k {
                    BFS_HITS.inc();
                    BFS_VISITED.add((mine.len() + theirs.len()) as u64);
                    return true;
                }
            }
            mine.insert(x, depth);
            next.push(x);
        }
        *frontier = next;
    }
    BFS_VISITED.add((from_u.len() + from_v.len()) as u64);
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LabeledGraph;
    use gsj_common::GsjError;

    /// Chain v0 -> v1 -> ... -> vn.
    fn chain(n: usize) -> (LabeledGraph, Vec<VertexId>) {
        let mut g = LabeledGraph::new();
        let vs: Vec<_> = (0..=n).map(|i| g.add_vertex(&format!("n{i}"))).collect();
        for w in vs.windows(2) {
            g.add_edge(w[0], "next", w[1]);
        }
        (g, vs)
    }

    #[test]
    fn k_hop_set_on_chain() {
        let (g, vs) = chain(5);
        let ball = k_hop_set(&g, vs[2], 2);
        // Undirected: v0..v4.
        assert_eq!(ball.len(), 5);
        assert!(ball.contains(&vs[0]) && ball.contains(&vs[4]));
        assert!(!ball.contains(&vs[5]));
    }

    #[test]
    fn within_k_matches_chain_distance() {
        let (g, vs) = chain(6);
        assert!(within_k_hops(&g, vs[0], vs[0], 0));
        assert!(within_k_hops(&g, vs[0], vs[3], 3));
        assert!(!within_k_hops(&g, vs[0], vs[3], 2));
        assert!(within_k_hops(&g, vs[6], vs[0], 6));
        assert!(!within_k_hops(&g, vs[6], vs[0], 5));
    }

    #[test]
    fn within_k_is_undirected() {
        let mut g = LabeledGraph::new();
        let a = g.add_vertex("a");
        let b = g.add_vertex("b");
        // Only a -> b exists, but connectivity is checked undirected.
        g.add_edge(a, "e", b);
        assert!(within_k_hops(&g, b, a, 1));
    }

    #[test]
    fn disconnected_components_never_link() {
        let mut g = LabeledGraph::new();
        let a = g.add_vertex("a");
        let b = g.add_vertex("b");
        assert!(!within_k_hops(&g, a, b, 10));
    }

    #[test]
    fn dead_vertices_are_unreachable() {
        let (mut g, vs) = chain(3);
        g.remove_vertex(vs[1]);
        assert!(!within_k_hops(&g, vs[0], vs[2], 5));
        assert!(k_hop_set(&g, vs[1], 2).is_empty());
        // The ball around v0 no longer crosses the tombstone.
        assert_eq!(k_hop_set(&g, vs[0], 3).len(), 1);
    }

    #[test]
    fn bidirectional_agrees_with_unidirectional_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..20 {
            let mut g = LabeledGraph::new();
            let n = 30usize;
            let vs: Vec<_> = (0..n).map(|i| g.add_vertex(&format!("x{i}"))).collect();
            for _ in 0..45 {
                let a = vs[rng.random_range(0..n)];
                let b = vs[rng.random_range(0..n)];
                if a != b {
                    g.add_edge(a, "e", b);
                }
            }
            for _ in 0..10 {
                let u = vs[rng.random_range(0..n)];
                let v = vs[rng.random_range(0..n)];
                let k = rng.random_range(0..5);
                let expect = k_hop_set(&g, u, k).contains(&v);
                assert_eq!(within_k_hops(&g, u, v, k), expect, "u={u} v={v} k={k}");
            }
        }
    }

    #[test]
    fn reused_scratch_yields_the_k_hop_set() {
        let (mut g, vs) = chain(6);
        g.add_edge(vs[4], "back", vs[2]);
        g.remove_vertex(vs[0]);
        let mut scratch = KHopScratch::default();
        // Large ball first: nothing of it may leak into the later ones.
        for (start, k) in [(vs[3], 4), (vs[3], 0), (vs[0], 2), (vs[6], 1), (vs[2], 2)] {
            let ball = scratch.ball(&g, start, k).to_vec();
            let set: FxHashSet<VertexId> = ball.iter().copied().collect();
            assert_eq!(set.len(), ball.len(), "a vertex listed twice");
            assert_eq!(set, k_hop_set(&g, start, k), "start={start} k={k}");
        }
    }

    #[test]
    fn governed_traversals_match_classic_when_unlimited() {
        let (g, vs) = chain(6);
        let gov = QueryGovernor::unlimited();
        assert_eq!(
            k_hop_set_governed(&g, vs[2], 2, &gov).unwrap(),
            k_hop_set(&g, vs[2], 2)
        );
    }

    #[test]
    fn governed_traversals_observe_cancellation() {
        // A dense-enough graph that the strided check fires mid-BFS.
        let mut g = LabeledGraph::new();
        let n = 400usize;
        let vs: Vec<_> = (0..n).map(|i| g.add_vertex(&format!("c{i}"))).collect();
        for i in 0..n {
            g.add_edge(vs[i], "e", vs[(i + 1) % n]);
            g.add_edge(vs[i], "e", vs[(i + 7) % n]);
        }
        let gov = QueryGovernor::unlimited();
        gov.cancel();
        assert_eq!(
            k_hop_set_governed(&g, vs[0], 50, &gov),
            Err(GsjError::Cancelled)
        );
    }

    #[test]
    fn governed_traversals_inject_faults() {
        let _x = gsj_faults::exclusive();
        gsj_faults::set_spec(Some("graph.khop:error")).unwrap();
        let (g, vs) = chain(3);
        let gov = QueryGovernor::unlimited();
        let err = k_hop_set_governed(&g, vs[0], 2, &gov).unwrap_err();
        assert!(matches!(err, GsjError::Internal(_)), "{err}");
        // The classic wrapper carries no fault point.
        assert_eq!(k_hop_set(&g, vs[0], 2).len(), 3);
        gsj_faults::set_spec(None).unwrap();
    }
}
