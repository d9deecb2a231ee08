//! The labeled graph store.

use gsj_common::{FxHashMap, Symbol, SymbolTable, Value};
use std::fmt;

/// A vertex identifier: an index into the graph's vertex arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Read a `vid` cell back into a vertex id. Checked: a non-integer,
    /// negative or ≥ 2³² cell is no vertex — never narrowed onto a
    /// different, possibly live one.
    pub fn from_value(v: &Value) -> Option<VertexId> {
        v.as_int().and_then(|i| u32::try_from(i).ok()).map(VertexId)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A labeled, directed edge endpoint stored in an adjacency list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// The edge label (a predicate, e.g. `issue`, `regloc`).
    pub label: Symbol,
    /// The other endpoint.
    pub to: VertexId,
}

/// Which way an edge is oriented relative to the vertex it was enumerated
/// from. Path selection views `G` as undirected (Section II-A), so incident
/// edges of both orientations are offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// The edge leaves the enumeration vertex.
    Out,
    /// The edge enters the enumeration vertex.
    In,
}

/// A directed labeled multigraph `G = (V, E, L)`.
///
/// Vertices carry a label that may be a value (`UK`, `G&L ESG`) or a type
/// tag; edge labels typify predicates. Vertex removal leaves a tombstone so
/// `VertexId`s stay stable across updates — exactly what IncExt needs to
/// correlate extracted relations with the evolving graph.
#[derive(Clone)]
pub struct LabeledGraph {
    symbols: SymbolTable,
    labels: Vec<Option<Symbol>>,
    out: Vec<Vec<Edge>>,
    inn: Vec<Vec<Edge>>,
    edge_count: usize,
}

impl LabeledGraph {
    /// Create an empty graph with a fresh symbol table.
    pub fn new() -> Self {
        Self::with_symbols(SymbolTable::new())
    }

    /// Create an empty graph sharing an existing symbol table (so relations
    /// and graph intern into the same space).
    fn with_symbols(symbols: SymbolTable) -> Self {
        LabeledGraph {
            symbols,
            labels: Vec::new(),
            out: Vec::new(),
            inn: Vec::new(),
            edge_count: 0,
        }
    }

    /// The shared symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Add a vertex with the given label string, returning its id.
    pub fn add_vertex(&mut self, label: &str) -> VertexId {
        let sym = self.symbols.intern(label);
        self.add_vertex_sym(sym)
    }

    /// Add a vertex with an already-interned label.
    pub fn add_vertex_sym(&mut self, label: Symbol) -> VertexId {
        let id = VertexId(self.labels.len() as u32);
        self.labels.push(Some(label));
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        id
    }

    /// The label of `v`, or `None` if `v` was removed.
    pub fn vertex_label(&self, v: VertexId) -> Option<Symbol> {
        self.labels.get(v.index()).copied().flatten()
    }

    /// The label of `v` as a string. Panics on a removed/unknown vertex.
    pub fn vertex_label_str(&self, v: VertexId) -> std::sync::Arc<str> {
        let sym = self.vertex_label(v).expect("live vertex");
        self.symbols.resolve(sym)
    }

    /// True iff `v` exists and has not been removed.
    pub fn is_live(&self, v: VertexId) -> bool {
        self.vertex_label(v).is_some()
    }

    /// Insert a directed edge `src --label--> dst`. Duplicate
    /// `(src, label, dst)` triples are ignored (E ⊆ V×V per label).
    /// Returns `true` if the edge was new.
    pub fn add_edge(&mut self, src: VertexId, label: &str, dst: VertexId) -> bool {
        let sym = self.symbols.intern(label);
        self.add_edge_sym(src, sym, dst)
    }

    /// [`Self::add_edge`] with a pre-interned label.
    pub fn add_edge_sym(&mut self, src: VertexId, label: Symbol, dst: VertexId) -> bool {
        assert!(self.is_live(src), "add_edge: dead src {src}");
        assert!(self.is_live(dst), "add_edge: dead dst {dst}");
        let e = Edge { label, to: dst };
        if self.out[src.index()].contains(&e) {
            return false;
        }
        self.out[src.index()].push(e);
        self.inn[dst.index()].push(Edge { label, to: src });
        self.edge_count += 1;
        true
    }

    /// Remove a directed edge; returns `true` if it existed.
    pub fn remove_edge_sym(&mut self, src: VertexId, label: Symbol, dst: VertexId) -> bool {
        let fwd = Edge { label, to: dst };
        let Some(pos) = self
            .out
            .get(src.index())
            .and_then(|es| es.iter().position(|e| *e == fwd))
        else {
            return false;
        };
        self.out[src.index()].swap_remove(pos);
        let back = Edge { label, to: src };
        let pos = self.inn[dst.index()]
            .iter()
            .position(|e| *e == back)
            .expect("in-edge mirrors out-edge");
        self.inn[dst.index()].swap_remove(pos);
        self.edge_count -= 1;
        true
    }

    /// Remove a vertex and all incident edges. Its id becomes a tombstone.
    /// Returns the ids of former neighbors (useful for IncExt's touched set).
    pub fn remove_vertex(&mut self, v: VertexId) -> Vec<VertexId> {
        if !self.is_live(v) {
            return Vec::new();
        }
        let mut touched = Vec::new();
        let outs = std::mem::take(&mut self.out[v.index()]);
        for e in outs {
            let back = Edge {
                label: e.label,
                to: v,
            };
            if let Some(pos) = self.inn[e.to.index()].iter().position(|x| *x == back) {
                self.inn[e.to.index()].swap_remove(pos);
            }
            self.edge_count -= 1;
            touched.push(e.to);
        }
        let inns = std::mem::take(&mut self.inn[v.index()]);
        for e in inns {
            let fwd = Edge {
                label: e.label,
                to: v,
            };
            if let Some(pos) = self.out[e.to.index()].iter().position(|x| *x == fwd) {
                self.out[e.to.index()].swap_remove(pos);
            }
            self.edge_count -= 1;
            touched.push(e.to);
        }
        self.labels[v.index()] = None;
        touched
    }

    /// Outgoing edges of `v`.
    pub fn out_edges(&self, v: VertexId) -> &[Edge] {
        &self.out[v.index()]
    }

    /// Incoming edges of `v` (each `Edge::to` is the source).
    pub fn in_edges(&self, v: VertexId) -> &[Edge] {
        &self.inn[v.index()]
    }

    /// All edges incident to `v` under the undirected view, with their
    /// orientation.
    pub fn incident(&self, v: VertexId) -> impl Iterator<Item = (Edge, Direction)> + '_ {
        self.out[v.index()]
            .iter()
            .map(|e| (*e, Direction::Out))
            .chain(self.inn[v.index()].iter().map(|e| (*e, Direction::In)))
    }

    /// Undirected degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.out[v.index()].len() + self.inn[v.index()].len()
    }

    /// Number of live vertices.
    pub fn vertex_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_some()).count()
    }

    /// One past the largest vertex id ever issued, removed ones included:
    /// the length of a dense per-vertex array indexed by
    /// [`VertexId::index`].
    pub fn id_bound(&self) -> usize {
        self.labels.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterate over live vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|_| VertexId(i as u32)))
    }

    /// Histogram of edge labels, for corpus/vocabulary statistics.
    pub fn edge_label_histogram(&self) -> FxHashMap<Symbol, usize> {
        let mut hist: FxHashMap<Symbol, usize> = FxHashMap::default();
        for v in self.vertices() {
            for e in self.out_edges(v) {
                *hist.entry(e.label).or_insert(0) += 1;
            }
        }
        hist
    }
}

impl Default for LabeledGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for LabeledGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LabeledGraph")
            .field("vertices", &self.vertex_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (LabeledGraph, VertexId, VertexId, VertexId) {
        let mut g = LabeledGraph::new();
        let a = g.add_vertex("pid1");
        let b = g.add_vertex("company1");
        let c = g.add_vertex("UK");
        g.add_edge(a, "issue", b);
        g.add_edge(b, "regloc", c);
        (g, a, b, c)
    }

    #[test]
    fn add_and_count() {
        let (g, a, b, c) = tiny();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(&*g.vertex_label_str(a), "pid1");
        assert_eq!(&*g.vertex_label_str(b), "company1");
        assert_eq!(&*g.vertex_label_str(c), "UK");
    }

    #[test]
    fn duplicate_edges_are_rejected() {
        let (mut g, a, b, _) = tiny();
        assert!(!g.add_edge(a, "issue", b));
        assert_eq!(g.edge_count(), 2);
        // Same endpoints, different label is a distinct edge.
        assert!(g.add_edge(a, "owns", b));
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn incident_covers_both_orientations() {
        let (g, _, b, _) = tiny();
        let inc: Vec<_> = g.incident(b).collect();
        assert_eq!(inc.len(), 2);
        assert!(inc.iter().any(|(_, d)| *d == Direction::Out));
        assert!(inc.iter().any(|(_, d)| *d == Direction::In));
        assert_eq!(g.degree(b), 2);
    }

    #[test]
    fn remove_edge_updates_both_sides() {
        let (mut g, a, b, _) = tiny();
        let issue = g.symbols().get("issue").unwrap();
        assert!(g.remove_edge_sym(a, issue, b));
        assert!(!g.remove_edge_sym(a, issue, b));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_edges(a).len(), 0);
        assert_eq!(g.in_edges(b).len(), 0);
    }

    #[test]
    fn remove_vertex_tombstones_and_cleans_edges() {
        let (mut g, a, b, c) = tiny();
        let touched = g.remove_vertex(b);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.id_bound(), 3, "the tombstone keeps its slot");
        assert_eq!(g.edge_count(), 0);
        assert!(!g.is_live(b));
        assert!(g.is_live(a) && g.is_live(c));
        let mut t = touched;
        t.sort();
        assert_eq!(t, vec![a, c]);
        // Ids remain stable.
        assert_eq!(&*g.vertex_label_str(c), "UK");
    }

    #[test]
    fn edge_label_histogram_counts() {
        let (mut g, a, _, c) = tiny();
        g.add_edge(a, "issue", c);
        let hist = g.edge_label_histogram();
        let issue = g.symbols().get("issue").unwrap();
        let regloc = g.symbols().get("regloc").unwrap();
        assert_eq!(hist[&issue], 2);
        assert_eq!(hist[&regloc], 1);
    }
}
