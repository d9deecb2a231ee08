//! BFS traversals: the k-hop neighbourhoods of many sources at once, and
//! two references.
//!
//! Link joins (Section II-B) test whether matching vertices are within `k`
//! hops of each other, IncExt (Section III-B) collects what lies within
//! `k` hops of an update, and HER blocks on each vertex's `hops`-vicinity.
//! All three run on the *undirected* view of `G`, and on one kernel: a
//! bit-parallel multi-source BFS (MS-BFS, Then et al., VLDB 2015) that
//! walks 64 sources in one pass, one bit of a `u64` per source.
//!
//! Two entry points read it out. [`k_hop_reach`] is the link joins' form —
//! which of a set of targets each source reaches — and the one governed
//! traversal: it observes cancellation / deadline per batch and per
//! expanded vertex (strided, one `fetch_add` each) and carries the
//! `graph.khop` fault point (see DESIGN.md §11). [`k_hop_balls`] is each
//! source's whole ball, ungoverned: HER's vicinities and IncExt's HER
//! zone.
//!
//! [`k_hop_set`] (one source's ball) and [`within_k_hops`] (one pair,
//! bidirectional) are the two references: independent of the kernel, they
//! are what it and the link index are tested and benchmarked against. No
//! engine path runs them.

use crate::graph::{LabeledGraph, VertexId};
use gsj_common::{FxHashMap, FxHashSet, QueryGovernor, Result};
use gsj_faults::{fault_point, FaultClass};
use gsj_obs::LazyCounter;
use std::convert::Infallible;

// Bumped once per batch, never inside the BFS loops. See DESIGN.md §10.
static REACH_EXPANDED: LazyCounter = LazyCounter::new("gsj_graph_reach_expanded_total");

/// All live vertices within `k` undirected hops of `start` (including
/// `start` itself at distance 0).
pub fn k_hop_set(g: &LabeledGraph, start: VertexId, k: usize) -> FxHashSet<VertexId> {
    let mut seen: FxHashSet<VertexId> = FxHashSet::default();
    if !g.is_live(start) {
        return seen;
    }
    seen.insert(start);
    let mut frontier = vec![start];
    for _ in 0..k {
        if frontier.is_empty() {
            break;
        }
        for w in std::mem::take(&mut frontier) {
            for (e, _) in g.incident(w) {
                if seen.insert(e.to) {
                    frontier.push(e.to);
                }
            }
        }
    }
    seen
}

/// Sources per pass of the kernel: one bit of a lane word each.
const LANES: usize = u64::BITS as usize;

/// Per-source rows, as [`k_hop_reach`] and [`k_hop_balls`] return them.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Reach {
    /// `targets[offsets[i]..offsets[i + 1]]` belongs to the `i`-th source.
    pub offsets: Vec<usize>,
    /// Per source, the vertices within `k` hops of it ([`k_hop_reach`]:
    /// only the targets, ascending).
    pub targets: Vec<VertexId>,
    /// Passes over the graph: one per 64 sources.
    pub batches: usize,
    /// Vertex expansions: one per vertex per level per batch it was on
    /// the frontier of.
    pub expanded: usize,
}

impl Reach {
    /// The `i`-th source's row.
    pub fn row(&self, i: usize) -> &[VertexId] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Append one batch's `lanes` rows: every vertex of `cells` goes, in
    /// `cells` order, into the row of each lane set in its word. Two
    /// passes: count each row, then fill the rows in place.
    fn push_batch(&mut self, lanes: usize, cells: impl Iterator<Item = (VertexId, u64)> + Clone) {
        let mut cursor = [0usize; LANES];
        for (_, word) in cells.clone() {
            for_each_lane(word, |lane| cursor[lane] += 1);
        }
        let mut end = self.targets.len();
        for row in &mut cursor[..lanes] {
            (*row, end) = (end, end + *row);
            self.offsets.push(end);
        }
        self.targets.resize(end, VertexId(0));
        for (v, word) in cells {
            for_each_lane(word, |lane| {
                self.targets[cursor[lane]] = v;
                cursor[lane] += 1;
            });
        }
        self.batches += 1;
    }
}

/// Call `f` with the index of every set bit of `lanes`, lowest first.
#[inline]
fn for_each_lane(mut lanes: u64, mut f: impl FnMut(usize)) {
    while lanes != 0 {
        f(lanes.trailing_zeros() as usize);
        lanes &= lanes - 1;
    }
}

/// The kernel: the lane words of one multi-source BFS, dense over
/// [`LabeledGraph::id_bound`] (24 bytes per vertex slot), sized by the
/// first walk and reused by the next.
#[derive(Default)]
struct Lanes {
    /// Per vertex, the lanes that reach it.
    seen: Vec<u64>,
    /// Per vertex of `level`, the lanes that reached it on the last level
    /// (stale elsewhere: set whenever a vertex joins `level`).
    frontier: Vec<u64>,
    /// Per vertex, the lanes the level being expanded adds.
    next: Vec<u64>,
    /// The vertices with a non-zero `seen` word, the current frontier,
    /// and the vertices the level being expanded reached: each once.
    touched: Vec<VertexId>,
    level: Vec<VertexId>,
    reached: Vec<VertexId>,
}

impl Lanes {
    /// Walk `k` levels from at most 64 distinct sources, bit `i` standing
    /// for `batch[i]` (a removed source reaches nothing). Afterwards `seen`
    /// holds, per vertex, the lanes within `k` hops of it, and `touched`
    /// lists the vertices with a non-zero word. `expand` runs once per
    /// expanded vertex. Returns the expansions.
    ///
    /// A level expands each vertex whose frontier word is non-zero *once*,
    /// for all its lanes — `next[w] |= frontier[v] & !seen[w]` — so a batch
    /// never scans more adjacency than its 64 separate BFS runs would, and
    /// a neighbourhood the sources share costs up to 64× less. A walk
    /// first resets only the `seen` words the previous one touched.
    fn walk<E>(
        &mut self,
        g: &LabeledGraph,
        batch: &[VertexId],
        k: usize,
        mut expand: impl FnMut() -> std::result::Result<(), E>,
    ) -> std::result::Result<usize, E> {
        debug_assert!(batch.len() <= LANES);
        for words in [&mut self.seen, &mut self.frontier, &mut self.next] {
            words.resize(g.id_bound(), 0);
        }
        // As slices the words keep their bounds in registers across
        // `push`, which may reallocate a list of `self`.
        let (seen, frontier) = (&mut self.seen[..], &mut self.frontier[..]);
        let next = &mut self.next[..];
        for v in self.touched.drain(..) {
            seen[v.index()] = 0;
        }
        for (lane, &s) in batch.iter().enumerate() {
            if g.is_live(s) {
                seen[s.index()] = 1 << lane;
                frontier[s.index()] = 1 << lane;
                self.touched.push(s);
            }
        }
        self.level.clone_from(&self.touched);
        let mut expanded = 0;
        for _ in 0..k {
            for &v in &self.level {
                expand()?;
                let lanes = frontier[v.index()];
                for e in g.out_edges(v).iter().chain(g.in_edges(v)) {
                    let w = e.to.index();
                    let new = lanes & !seen[w];
                    if new != 0 {
                        if next[w] == 0 {
                            self.reached.push(e.to);
                        }
                        next[w] |= new;
                    }
                }
            }
            expanded += self.level.len();
            self.level.clear();
            for &w in &self.reached {
                let lanes = std::mem::take(&mut next[w.index()]);
                if seen[w.index()] == 0 {
                    self.touched.push(w);
                }
                seen[w.index()] |= lanes;
                frontier[w.index()] = lanes;
            }
            std::mem::swap(&mut self.level, &mut self.reached);
        }
        REACH_EXPANDED.add(expanded as u64);
        Ok(expanded)
    }
}

/// For each of `sources`, the members of `targets` within `k` undirected
/// hops of it (itself included, distance 0 ≤ k; a removed source reaches
/// nothing), as rows in source order. Both lists must be ascending and
/// distinct; each row is ascending.
///
/// After a batch's walk a target's `seen` word lists the sources that
/// reach it; walking the targets in ascending order writes every row
/// ascending.
///
/// Governance: `check` up front; per batch the `graph.khop` fault point
/// and a strided `join.connectivity` check; per expanded vertex a strided
/// `graph.khop` check.
pub fn k_hop_reach(
    g: &LabeledGraph,
    sources: &[VertexId],
    targets: &[VertexId],
    k: usize,
    gov: &QueryGovernor,
) -> Result<Reach> {
    gov.check("join.connectivity")?;
    let ascending = |vs: &[VertexId]| vs.windows(2).all(|w| w[0] < w[1]);
    assert!(
        ascending(sources) && ascending(targets),
        "k_hop_reach takes ascending, distinct sources and targets"
    );
    let mut lanes = Lanes::default();
    let mut out = Reach {
        offsets: vec![0],
        ..Reach::default()
    };
    for batch in sources.chunks(LANES) {
        fault_point("graph.khop", FaultClass::Critical)?;
        gov.check_coarse("join.connectivity")?;
        out.expanded += lanes.walk(g, batch, k, || gov.check_coarse("graph.khop"))?;
        // A target outside the graph is reached by no source.
        let word = |t: VertexId| lanes.seen.get(t.index()).copied().unwrap_or(0);
        out.push_batch(batch.len(), targets.iter().map(|&t| (t, word(t))));
    }
    Ok(out)
}

/// Each of `sources`' whole ball — the live vertices within `k` undirected
/// hops of it, itself included; a removed source's is empty — as rows in
/// source order, each vertex once per row, in no particular order.
/// Sources must be distinct, in any order.
///
/// The rows are read off the vertices a batch touched, so no pass scans
/// more than the batch reached. Ungoverned, with no fault point: HER's
/// block index and IncExt's HER zone call it (DESIGN.md §11).
pub fn k_hop_balls(g: &LabeledGraph, sources: &[VertexId], k: usize) -> Reach {
    let mut lanes = Lanes::default();
    let mut out = Reach {
        offsets: vec![0],
        ..Reach::default()
    };
    for batch in sources.chunks(LANES) {
        let Ok(expanded) = lanes.walk(g, batch, k, || Ok::<(), Infallible>(()));
        out.expanded += expanded;
        let cells = lanes.touched.iter().map(|&v| (v, lanes.seen[v.index()]));
        out.push_batch(batch.len(), cells);
    }
    out
}

/// Bidirectional BFS: are `u` and `v` connected within `k` undirected hops?
///
/// This is the join condition of the link join `S1 ⋈G S2` (Section IV-A's
/// "check their pairwise distance via a bi-directional BFS search").
///
/// Ungoverned: no engine path probes pairs any more (link joins build
/// their index with [`k_hop_reach`]); this stays as the reference the
/// index is tested and benchmarked against.
pub fn within_k_hops(g: &LabeledGraph, u: VertexId, v: VertexId, k: usize) -> bool {
    if !g.is_live(u) || !g.is_live(v) {
        return false;
    }
    if u == v {
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
        let mut next = Vec::new();
        for &w in frontier.iter() {
            for (e, _) in g.incident(w) {
                let x = e.to;
                if mine.contains_key(&x) {
                    continue;
                }
                if let Some(&other_d) = theirs.get(&x) {
                    if depth + other_d <= k {
                        return true;
                    }
                }
                mine.insert(x, depth);
                next.push(x);
            }
        }
        *frontier = next;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LabeledGraph;
    use gsj_common::GsjError;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// Chain v0 -> v1 -> ... -> vn.
    fn chain(n: usize) -> (LabeledGraph, Vec<VertexId>) {
        let mut g = LabeledGraph::new();
        let vs: Vec<_> = (0..=n).map(|i| g.add_vertex(&format!("n{i}"))).collect();
        for w in vs.windows(2) {
            g.add_edge(w[0], "next", w[1]);
        }
        (g, vs)
    }

    /// The per-source build [`k_hop_reach`] replaced: one [`k_hop_set`]
    /// per source, then one set probe per target.
    fn per_source_reach(
        g: &LabeledGraph,
        sources: &[VertexId],
        targets: &[VertexId],
        k: usize,
    ) -> (Vec<usize>, Vec<VertexId>) {
        let mut offsets = vec![0];
        let mut reached = Vec::new();
        for &s in sources {
            let ball = k_hop_set(g, s, k);
            reached.extend(targets.iter().filter(|t| ball.contains(t)));
            offsets.push(reached.len());
        }
        (offsets, reached)
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
        let gov = QueryGovernor::unlimited();
        let reach = k_hop_reach(&g, &vs, &vs, 3, &gov).unwrap();
        assert_eq!(reach.offsets, vec![0, 1, 1, 3, 5]);
        assert_eq!(reach.targets, vec![vs[0], vs[2], vs[3], vs[2], vs[3]]);
    }

    #[test]
    fn bidirectional_agrees_with_unidirectional_on_random_graphs() {
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
    fn balls_yield_the_k_hop_set() {
        let (mut g, vs) = chain(6);
        g.add_edge(vs[4], "back", vs[2]);
        g.remove_vertex(vs[0]);
        // Unordered, one removed.
        let starts = [vs[3], vs[6], vs[0], vs[2]];
        for k in 0..5 {
            let balls = k_hop_balls(&g, &starts, k);
            assert_eq!((balls.offsets.len(), balls.batches), (starts.len() + 1, 1));
            for (i, &start) in starts.iter().enumerate() {
                let ball = balls.row(i);
                let set: FxHashSet<VertexId> = ball.iter().copied().collect();
                assert_eq!(set.len(), ball.len(), "a vertex listed twice");
                assert_eq!(set, k_hop_set(&g, start, k), "start={start} k={k}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `k_hop_reach` ≡ one `k_hop_set` per source, across lane
        /// boundaries: 0–150 distinct sources (0 to 3 batches, with exactly
        /// 64 and 65 forced), targets that are and are not sources, one
        /// removed source and one removed target, `k` 0–4. Each
        /// `k_hop_balls` row, as a set, is that source's `k_hop_set`.
        #[test]
        fn reach_equals_the_per_source_reference(
            n in 60usize..201,
            // 0–3: 0, 1, 64 or 65 sources; otherwise `drawn`.
            shape in 0usize..8,
            drawn in 0usize..151,
            seed in 0u64..u64::MAX,
            k in 0usize..5,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut g = LabeledGraph::new();
            let vs: Vec<VertexId> = (0..n).map(|i| g.add_vertex(&format!("v{i}"))).collect();
            for _ in 0..rng.random_range(n / 2..2 * n) {
                let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
                g.add_edge(vs[a], "e", vs[b]);
            }
            let mut pick = |count: usize| -> Vec<VertexId> {
                let mut vs: Vec<VertexId> = vs.clone();
                for i in 0..count.min(n) {
                    let j = rng.random_range(i..n);
                    vs.swap(i, j);
                }
                vs.truncate(count.min(n));
                vs.sort();
                vs
            };
            let sources = pick([0, 1, 64, 65].get(shape).copied().unwrap_or(drawn));
            let targets = pick(drawn);
            if let Some(&s) = sources.first() {
                g.remove_vertex(s);
            }
            if let Some(&t) = targets.last() {
                g.remove_vertex(t);
            }

            let reach = k_hop_reach(&g, &sources, &targets, k, &QueryGovernor::unlimited()).unwrap();
            prop_assert_eq!(reach.batches, sources.len().div_ceil(64));
            prop_assert_eq!(
                (reach.offsets, reach.targets),
                per_source_reach(&g, &sources, &targets, k)
            );

            let balls = k_hop_balls(&g, &sources, k);
            prop_assert_eq!(balls.batches, sources.len().div_ceil(64));
            prop_assert_eq!(balls.offsets.len(), sources.len() + 1);
            for (i, &s) in sources.iter().enumerate() {
                let row: FxHashSet<VertexId> = balls.row(i).iter().copied().collect();
                prop_assert_eq!(row.len(), balls.row(i).len());
                prop_assert_eq!(row, k_hop_set(&g, s, k));
            }
        }
    }

    #[test]
    fn reach_expands_a_shared_neighbourhood_once_per_level() {
        // A star: 64 leaves around one hub. Per source, k = 2 expands the
        // leaf and then the hub, 128 expansions; in one batch the leaves
        // are expanded once each and the hub once, 65.
        let mut g = LabeledGraph::new();
        let hub = g.add_vertex("hub");
        let leaves: Vec<_> = (0..64).map(|i| g.add_vertex(&format!("l{i}"))).collect();
        for &l in &leaves {
            g.add_edge(l, "e", hub);
        }
        let reach = k_hop_reach(&g, &leaves, &leaves, 2, &QueryGovernor::unlimited()).unwrap();
        assert_eq!((reach.batches, reach.expanded), (1, 65));
        assert_eq!(reach.targets.len(), 64 * 64);
    }

    #[test]
    fn governed_traversals_match_classic_when_unlimited() {
        let (mut g, vs) = chain(70);
        g.add_edge(vs[69], "back", vs[3]);
        let gov = QueryGovernor::unlimited();
        for k in [0, 1, 2, 5] {
            let reach = k_hop_reach(&g, &vs, &vs[10..], k, &gov).unwrap();
            assert_eq!(
                (reach.offsets, reach.targets),
                per_source_reach(&g, &vs, &vs[10..], k),
                "k={k}"
            );
        }
    }

    #[test]
    fn governed_traversals_observe_cancellation() {
        let (g, vs) = chain(200);
        let gov = QueryGovernor::unlimited();
        gov.cancel();
        assert_eq!(
            k_hop_reach(&g, &vs, &vs, 50, &gov),
            Err(GsjError::Cancelled)
        );
        let expired = QueryGovernor::builder()
            .deadline_at(std::time::Instant::now() - std::time::Duration::from_millis(1))
            .build();
        let err = k_hop_reach(&g, &vs, &vs, 50, &expired).unwrap_err();
        assert!(matches!(err, GsjError::DeadlineExceeded(_)), "{err:?}");
    }

    #[test]
    fn governed_traversals_inject_faults() {
        let _x = gsj_faults::exclusive();
        let (g, vs) = chain(3);
        let gov = QueryGovernor::unlimited();
        gsj_faults::set_spec(Some("graph.khop:error")).unwrap();
        let err = k_hop_reach(&g, &vs, &vs, 2, &gov).unwrap_err();
        assert!(matches!(err, GsjError::Internal(_)), "{err:?}");
        // No batch, no fault point; and the ungoverned balls carry none.
        assert!(k_hop_reach(&g, &[], &vs, 2, &gov).is_ok());
        assert_eq!(k_hop_balls(&g, &vs, 2).targets.len(), 3 + 4 + 4 + 3);
        assert_eq!(k_hop_set(&g, vs[0], 2).len(), 3);
        gsj_faults::set_spec(None).unwrap();
    }
}
