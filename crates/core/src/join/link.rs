//! Link joins `S1 ⋈_G S2`: join tuples whose matching vertices are within
//! `k` hops of each other in `G` (Section II-B).
//!
//! Every link join is the same three steps over the connectivity
//! relation `g_L` of Section IV-A, held as a [`LinkIndex`]: resolve both
//! id columns to vertices, [`LinkIndex::probe`] for the connected row
//! pairs, gather the output columns once ([`link_join_resolved`]). The
//! implementations differ only in where the vertices and the index come
//! from: the baseline matches by HER and indexes the vertices it matched
//! at query time, the optimized path reads `f(D,G)` and probes the
//! profile's resident index, the heuristic path resolves by ER against
//! `gτ(G)`. No path tests pairs one BFS at a time.

use gsj_common::{QueryGovernor, Result};
use gsj_graph::traversal::k_hop_reach;
use gsj_graph::{LabeledGraph, VertexId};
use gsj_her::{her_match, HerConfig, MatchRelation};
use gsj_relational::{Column, Relation, Schema};

/// The conceptual-level link join: HER on both sides, then connectivity
/// of the matched vertices. Input schemas must have disjoint attribute
/// names (qualify aliases first, as the gSQL rewriter does).
#[allow(clippy::too_many_arguments)]
pub fn link_join(
    s1: &Relation,
    id1: &str,
    s2: &Relation,
    id2: &str,
    g: &LabeledGraph,
    k: usize,
    her_cfg: &HerConfig,
    gov: &QueryGovernor,
) -> Result<Relation> {
    gov.check("her.match")?;
    let m1 = her_match(
        g,
        s1,
        &HerConfig {
            id_attr: id1.into(),
            ..her_cfg.clone()
        },
    )?;
    let m2 = her_match(
        g,
        s2,
        &HerConfig {
            id_attr: id2.into(),
            ..her_cfg.clone()
        },
    )?;
    link_join_with_matches(s1, id1, &m1, s2, id2, &m2, g, k, gov)
}

/// Link join over given match relations, with no resident `g_L`: the
/// index is built over exactly the vertices the two sides matched, under
/// the query's governor.
#[allow(clippy::too_many_arguments)]
pub fn link_join_with_matches(
    s1: &Relation,
    id1: &str,
    m1: &MatchRelation,
    s2: &Relation,
    id2: &str,
    m2: &MatchRelation,
    g: &LabeledGraph,
    k: usize,
    gov: &QueryGovernor,
) -> Result<Relation> {
    let mut span = gsj_obs::span("join.link");
    gsj_faults::fault_point("join.link", gsj_faults::FaultClass::Critical)?;
    let v1s = resolve_ids(s1, id1, m1)?;
    let v2s = resolve_ids(s2, id2, m2)?;
    let name = format!("{}_lj_{}", s1.schema().name(), s2.schema().name());
    let out = link_join_unindexed(s1, &v1s, s2, &v2s, g, k, name, gov)?;
    span.field("k", k).field("rows_out", out.len());
    Ok(out)
}

/// Resolve an id column to vertices through a match relation, one lookup
/// per row (`None` for unmatched rows).
pub(crate) fn resolve_ids(
    rel: &Relation,
    id: &str,
    m: &MatchRelation,
) -> Result<Vec<Option<VertexId>>> {
    let pos = rel.schema().require(id)?;
    Ok((0..rel.len())
        .map(|i| m.vertex_of(&rel.value_at(i, pos)))
        .collect())
}

/// [`link_join_resolved`] for callers without a resident index: build one
/// over the distinct vertices the two sides resolved to, then probe it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn link_join_unindexed(
    s1: &Relation,
    v1s: &[Option<VertexId>],
    s2: &Relation,
    v2s: &[Option<VertexId>],
    g: &LabeledGraph,
    k: usize,
    name: String,
    gov: &QueryGovernor,
) -> Result<Relation> {
    let matched =
        |vs: &[Option<VertexId>]| -> Vec<VertexId> { vs.iter().flatten().copied().collect() };
    let index = LinkIndex::build(g, &matched(v1s), &matched(v2s), k, gov)?;
    link_join_resolved(s1, v1s, s2, v2s, &index, name, gov)
}

/// The link-join kernel every implementation ends in: given each side's
/// rows resolved to vertices (`None` = unmatched, drops out) and a
/// reachability index covering them, emit `s1 ++ s2` for every connected
/// row pair — left-major, right rows ascending — by one probe and one
/// columnar gather. Schemas must have disjoint attribute names.
pub fn link_join_resolved(
    s1: &Relation,
    v1s: &[Option<VertexId>],
    s2: &Relation,
    v2s: &[Option<VertexId>],
    index: &LinkIndex,
    name: String,
    gov: &QueryGovernor,
) -> Result<Relation> {
    let mut attrs = s1.schema().attrs().to_vec();
    attrs.extend(s2.schema().attrs().iter().cloned());
    let schema = Schema::new(name, attrs)?;
    let (li, ri) = index.probe(v1s, v2s);
    gov.charge_mem(8 * li.len() as u64);
    let out = Relation::gather_concat(s1, &li, s2, &ri, None, schema)?;
    gov.charge_rows(out.len() as u64);
    Ok(out)
}

fn sorted_distinct(vs: &[VertexId]) -> Vec<VertexId> {
    let mut vs = vs.to_vec();
    vs.sort_unstable();
    vs.dedup();
    vs
}

/// The pre-computed connectivity relation `g_L` of Section IV-A ("we also
/// pre-compute connectivity relations g_L for vertices of G that match
/// selected tuples in D") as an immutable reachability index: for every
/// source vertex, the sorted list of target vertices within `k` hops
/// (self-pairs included, distance 0 ≤ k), laid out CSR-style so a probe
/// is one binary search over the sources plus a slice borrow.
#[derive(Debug, PartialEq, Eq)]
pub struct LinkIndex {
    /// Distinct source vertices, ascending.
    sources: Vec<VertexId>,
    /// `targets[offsets[i]..offsets[i + 1]]` belongs to `sources[i]`.
    offsets: Vec<usize>,
    /// Per source, the reachable target vertices, ascending.
    targets: Vec<VertexId>,
}

impl LinkIndex {
    /// Index which of `right` lies within `k` hops of each vertex of
    /// `left`: one bit-parallel multi-source BFS over the distinct
    /// sources, 64 at a time ([`k_hop_reach`]), which observes the
    /// governor per batch and per expanded vertex. Charges the index's
    /// bytes and pair count like any other materialization.
    pub fn build(
        g: &LabeledGraph,
        left: &[VertexId],
        right: &[VertexId],
        k: usize,
        gov: &QueryGovernor,
    ) -> Result<LinkIndex> {
        let mut span = gsj_obs::span("join.connectivity");
        gsj_faults::fault_point("join.connectivity", gsj_faults::FaultClass::Critical)?;
        let index = Self::reach(g, left, right, k, gov, &mut span)?;
        gov.charge_mem(index.approx_bytes() as u64);
        gov.charge_rows(index.pairs() as u64);
        Ok(index)
    }

    /// [`Self::build`] without the charges, its fields recorded on the
    /// caller's `join.connectivity` span.
    fn reach(
        g: &LabeledGraph,
        left: &[VertexId],
        right: &[VertexId],
        k: usize,
        gov: &QueryGovernor,
        span: &mut gsj_obs::SpanGuard,
    ) -> Result<LinkIndex> {
        let sources = sorted_distinct(left);
        let among = sorted_distinct(right);
        let reach = k_hop_reach(g, &sources, &among, k, gov)?;
        span.field("sources", sources.len())
            .field("targets", among.len())
            .field("pairs", reach.targets.len())
            .field("k", k)
            .field("batches", reach.batches)
            .field("expanded", reach.expanded);
        Ok(LinkIndex {
            sources,
            offsets: reach.offsets,
            targets: reach.targets,
        })
    }

    /// The indexed targets within `k` hops of `v`, ascending (empty when
    /// `v` is not an indexed source).
    pub fn reachable(&self, v: VertexId) -> &[VertexId] {
        match self.sources.binary_search(&v) {
            Ok(i) => &self.targets[self.offsets[i]..self.offsets[i + 1]],
            Err(_) => &[],
        }
    }

    /// Number of connected `(source, target)` pairs — the row count of
    /// the relation `g_L(vid1, vid2)` this index stands for.
    pub fn pairs(&self) -> usize {
        self.targets.len()
    }

    /// Heap bytes held by the index.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.sources.len() + self.targets.len()) * size_of::<VertexId>()
            + self.offsets.len() * size_of::<usize>()
    }

    /// The link join of two resolved id columns: every row pair `(i, j)`
    /// whose vertices are connected, left-major with `j` ascending.
    /// Unmatched rows (`None`) drop out. Output-sensitive: per left row
    /// one adjacency lookup merged against the right rows sorted by
    /// vertex — never the `|left| × |right|` pair space.
    pub fn probe(
        &self,
        left: &[Option<VertexId>],
        right: &[Option<VertexId>],
    ) -> (Vec<u32>, Vec<u32>) {
        let mut by_vertex: Vec<(VertexId, u32)> = right
            .iter()
            .enumerate()
            .filter_map(|(j, v)| Some(((*v)?, j as u32)))
            .collect();
        by_vertex.sort_unstable();
        let mut li: Vec<u32> = Vec::new();
        let mut ri: Vec<u32> = Vec::new();
        for (i, v1) in left.iter().enumerate() {
            let Some(v1) = *v1 else { continue };
            let first = ri.len();
            let mut adj = self.reachable(v1).iter().peekable();
            for &(v2, j) in &by_vertex {
                while adj.next_if(|&&t| t < v2).is_some() {}
                match adj.peek() {
                    Some(&&t) if t == v2 => ri.push(j),
                    Some(_) => {}
                    None => break,
                }
            }
            ri[first..].sort_unstable();
            li.resize(ri.len(), i as u32);
        }
        (li, ri)
    }
}

/// Materialize a connectivity relation `g_L(vid1, vid2)` for two vertex
/// sets: a row per `(v1, v2) ∈ left × right` within `k` hops, in
/// left-major order, duplicates of either side kept (self-pairs included,
/// distance 0 ≤ k). The index [`LinkIndex::build`] builds, rendered in
/// the caller's vertex order as a relation.
pub fn connectivity_relation(
    g: &LabeledGraph,
    left: &[VertexId],
    right: &[VertexId],
    k: usize,
    name: &str,
    gov: &QueryGovernor,
) -> Result<Relation> {
    let mut span = gsj_obs::span("join.connectivity");
    gsj_faults::fault_point("join.connectivity", gsj_faults::FaultClass::Critical)?;
    span.field("left", left.len()).field("right", right.len());
    let index = LinkIndex::reach(g, left, right, k, gov, &mut span)?;
    // Per left vertex, its row marked in a dense map over the vertex
    // slots (a reached target is a live vertex), then `right` walked in
    // the caller's order.
    let mut in_row = vec![false; g.id_bound()];
    let mut vid1: Vec<i64> = Vec::new();
    let mut vid2: Vec<i64> = Vec::new();
    for &v1 in left {
        let row = index.reachable(v1);
        row.iter().for_each(|t| in_row[t.index()] = true);
        vid2.extend(
            right
                .iter()
                .filter(|v| in_row.get(v.index()) == Some(&true))
                .map(|v| v.0 as i64),
        );
        vid1.resize(vid2.len(), v1.0 as i64);
        row.iter().for_each(|t| in_row[t.index()] = false);
    }
    let rows = vid1.len();
    let rel = Relation::from_shared_columns(
        Schema::of(name, &["vid1", "vid2"]),
        vec![
            Column::from_ints(vid1).into(),
            Column::from_ints(vid2).into(),
        ],
        rows,
    )?;
    gov.charge_mem(rel.approx_bytes());
    gov.charge_rows(rows as u64);
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsj_common::Value;

    /// A social chain: bob - ada - guy, with an isolated eve.
    fn social() -> (LabeledGraph, Vec<VertexId>) {
        let mut g = LabeledGraph::new();
        let bob = g.add_vertex("Bob");
        let ada = g.add_vertex("Ada");
        let guy = g.add_vertex("Guy");
        let eve = g.add_vertex("Eve");
        g.add_edge(bob, "knows", ada);
        g.add_edge(ada, "knows", guy);
        (g, vec![bob, ada, guy, eve])
    }

    fn customers(names: &[&str], alias: &str) -> Relation {
        let mut r = Relation::empty(
            Schema::new(
                alias.to_string(),
                vec![format!("{alias}.cid"), format!("{alias}.name")],
            )
            .unwrap(),
        );
        for (i, n) in names.iter().enumerate() {
            r.push_values(vec![Value::str(format!("c{i}")), Value::str(*n)])
                .unwrap();
        }
        r
    }

    #[test]
    fn link_join_connects_within_k() {
        let gov = QueryGovernor::unlimited();
        let (g, vs) = social();
        let s1 = customers(&["Bob"], "T1");
        let s2 = customers(&["Ada", "Guy", "Eve"], "T2");
        let mut m1 = MatchRelation::new();
        m1.push(Value::str("c0"), vs[0]);
        let mut m2 = MatchRelation::new();
        m2.push(Value::str("c0"), vs[1]);
        m2.push(Value::str("c1"), vs[2]);
        m2.push(Value::str("c2"), vs[3]);
        let r1 =
            link_join_with_matches(&s1, "T1.cid", &m1, &s2, "T2.cid", &m2, &g, 1, &gov).unwrap();
        // k=1: only Ada.
        assert_eq!(r1.len(), 1);
        let r2 =
            link_join_with_matches(&s1, "T1.cid", &m1, &s2, "T2.cid", &m2, &g, 2, &gov).unwrap();
        // k=2: Ada and Guy; Eve never (disconnected).
        assert_eq!(r2.len(), 2);
    }

    #[test]
    fn unmatched_tuples_drop_out() {
        let gov = QueryGovernor::unlimited();
        let (g, vs) = social();
        let s1 = customers(&["Bob", "Stranger"], "T1");
        let s2 = customers(&["Ada"], "T2");
        let mut m1 = MatchRelation::new();
        m1.push(Value::str("c0"), vs[0]); // Stranger (c1) unmatched
        let mut m2 = MatchRelation::new();
        m2.push(Value::str("c0"), vs[1]);
        let r =
            link_join_with_matches(&s1, "T1.cid", &m1, &s2, "T2.cid", &m2, &g, 3, &gov).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn connectivity_relation_materializes_pairs() {
        let gov = QueryGovernor::unlimited();
        let (g, vs) = social();
        let rel =
            connectivity_relation(&g, &[vs[0]], &[vs[1], vs[2], vs[3]], 2, "gl", &gov).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(
            rel.schema().attrs(),
            &["vid1".to_string(), "vid2".to_string()]
        );
        // Left-major in the caller's vertex order, duplicates kept.
        let rel = connectivity_relation(&g, &[vs[2], vs[0]], &[vs[1], vs[0], vs[1]], 1, "gl", &gov)
            .unwrap();
        let ints = |attr: &str| -> Vec<i64> {
            let col = rel.column(attr).unwrap();
            col.iter().map(|v| v.as_int().unwrap()).collect()
        };
        let id = |i: usize| vs[i].0 as i64;
        assert_eq!(ints("vid1"), vec![id(2), id(2), id(0), id(0), id(0)]);
        assert_eq!(ints("vid2"), vec![id(1), id(1), id(1), id(0), id(1)]);
        assert_eq!(rel.col(0).repr_name(), "int");
    }

    #[test]
    fn link_index_lists_sorted_targets_per_source() {
        let gov = QueryGovernor::unlimited();
        let (g, vs) = social();
        let (bob, ada, guy, eve) = (vs[0], vs[1], vs[2], vs[3]);
        // Unsorted input with duplicates: the index sorts and dedups.
        let index =
            LinkIndex::build(&g, &[guy, bob, eve, bob], &[eve, guy, ada, bob], 1, &gov).unwrap();
        assert_eq!(index.reachable(bob), &[bob, ada]);
        assert_eq!(index.reachable(guy), &[ada, guy]);
        assert_eq!(index.reachable(eve), &[eve]);
        assert!(index.reachable(ada).is_empty(), "ada is not a source");
        assert_eq!(index.pairs(), 5);
        assert_eq!(index.approx_bytes(), (3 + 5) * 4 + 4 * 8);
    }

    #[test]
    fn index_build_records_batches_and_expansions() {
        let gov = QueryGovernor::unlimited();
        let (g, vs) = social();
        let (_, spans) = gsj_obs::capture(|| LinkIndex::build(&g, &vs, &vs, 2, &gov).unwrap());
        let span = spans
            .iter()
            .find(|s| s.label == "join.connectivity")
            .unwrap();
        let field = |key: &str| {
            span.fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
        };
        // One batch; level 0 expands all four sources, level 1 the three
        // vertices of the chain that gained a lane.
        assert_eq!(field("batches"), Some("1"));
        assert_eq!(field("expanded"), Some("7"));
        assert_eq!(field("pairs"), Some("10"));
    }

    #[test]
    fn probe_emits_connected_row_pairs_left_major() {
        let gov = QueryGovernor::unlimited();
        let (g, vs) = social();
        let index = LinkIndex::build(&g, &vs, &vs, 1, &gov).unwrap();
        let (bob, ada, guy, eve) = (Some(vs[0]), Some(vs[1]), Some(vs[2]), Some(vs[3]));
        // Unmatched rows drop out on either side; rows sharing a vertex
        // each pair up; `j` ascends within one left row.
        let (li, ri) = index.probe(&[ada, None, eve, bob], &[guy, bob, None, ada, guy, eve]);
        assert_eq!(li, vec![0, 0, 0, 0, 2, 3, 3]);
        assert_eq!(ri, vec![0, 1, 3, 4, 5, 1, 3]);
        assert_eq!(index.probe(&[], &[bob]), (vec![], vec![]));
        assert_eq!(index.probe(&[bob], &[]), (vec![], vec![]));
    }

    #[test]
    fn cancelled_governor_stops_index_build() {
        let (g, vs) = social();
        let gov = QueryGovernor::unlimited();
        gov.cancel();
        assert_eq!(
            LinkIndex::build(&g, &vs, &vs, 2, &gov),
            Err(gsj_common::GsjError::Cancelled)
        );
        assert_eq!(
            connectivity_relation(&g, &vs, &vs, 2, "gl", &gov),
            Err(gsj_common::GsjError::Cancelled)
        );
    }

    #[test]
    fn cancelled_governor_stops_link_join() {
        let (g, vs) = social();
        let s1 = customers(&["Bob"], "T1");
        let s2 = customers(&["Ada"], "T2");
        let mut m1 = MatchRelation::new();
        m1.push(Value::str("c0"), vs[0]);
        let mut m2 = MatchRelation::new();
        m2.push(Value::str("c0"), vs[1]);
        let gov = QueryGovernor::unlimited();
        gov.cancel();
        let r = link_join_with_matches(&s1, "T1.cid", &m1, &s2, "T2.cid", &m2, &g, 2, &gov);
        assert_eq!(r, Err(gsj_common::GsjError::Cancelled));
    }

    #[test]
    fn end_to_end_link_join_with_her() {
        // Entity vertices carry name properties so HER can match them.
        let mut g = LabeledGraph::new();
        let bob = g.add_vertex("person-1");
        let bobn = g.add_vertex("Bob Smith");
        g.add_edge(bob, "name", bobn);
        let ada = g.add_vertex("person-2");
        let adan = g.add_vertex("Ada Lovelace");
        g.add_edge(ada, "name", adan);
        g.add_edge(bob, "knows", ada);
        let mut s1 = Relation::empty(Schema::of("a", &["a.id", "a.name"]));
        s1.push_values(vec![Value::str("x"), Value::str("Bob Smith")])
            .unwrap();
        let mut s2 = Relation::empty(Schema::of("b", &["b.id", "b.name"]));
        s2.push_values(vec![Value::str("y"), Value::str("Ada Lovelace")])
            .unwrap();
        let r = link_join(
            &s1,
            "a.id",
            &s2,
            "b.id",
            &g,
            1,
            &HerConfig::default(),
            &QueryGovernor::unlimited(),
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.schema().arity(), 4);
    }
}
