//! Schema-agnostic token blocking over vertex vicinities.
//!
//! For every live vertex we collect its *vicinity*: the normalized strings
//! of its own label and the labels of vertices within `hops` undirected
//! hops (properties of an entity live at the end of short paths, not on
//! the entity vertex itself — the very observation motivating RExt). Each
//! vicinity token indexes the vertex, and a tuple's candidate set is the
//! union of the blocks of its value tokens, with oversized blocks (stop
//! words) dropped.
//!
//! Everything the matcher compares is interned while the index is built:
//! a canonical label is a `u32`, a token is a `u32`, and every set is a
//! sorted `Vec<u32>` row. Scoring a (tuple, candidate) pair is then a
//! handful of integer merges; no string is tokenised, hashed or allocated
//! per pair.

use crate::normalize::{canonical, tokens};
use gsj_common::{FxHashMap, FxHashSet, Symbol};
use gsj_graph::traversal::k_hop_set;
use gsj_graph::{LabeledGraph, VertexId};

/// Rows of sorted, distinct `u32` ids stored back to back.
#[derive(Default)]
struct IdRows {
    /// `offsets[i]..offsets[i + 1]` is row `i` of `ids`.
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl IdRows {
    fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Append `row` sorted and deduplicated.
    fn push(&mut self, row: &mut Vec<u32>) {
        row.sort_unstable();
        row.dedup();
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.ids.extend_from_slice(row);
        self.offsets.push(self.ids.len() as u32);
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Size of the intersection of two sorted, distinct id slices.
fn intersection_len(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// One tuple value, tokenised and looked up in the index once.
pub struct QueryValue {
    /// Id of the canonical label equal to the value's text, if any
    /// indexed vertex carries it.
    pub(crate) label: Option<u32>,
    /// Ids of the value's tokens the index knows, sorted and distinct.
    tokens: Vec<u32>,
    /// Number of distinct tokens of the value, known to the index or not.
    n_tokens: usize,
}

impl QueryValue {
    /// Jaccard similarity of the value's token set and an indexed token
    /// set; two empty sets are equal. Tokens the index has never seen
    /// cannot intersect anything but still count in the union.
    pub(crate) fn jaccard(&self, other: &[u32]) -> f64 {
        if self.n_tokens == 0 && other.is_empty() {
            return 1.0;
        }
        let inter = intersection_len(&self.tokens, other);
        inter as f64 / (self.n_tokens + other.len() - inter) as f64
    }

    /// Containment: the share of the value's tokens found in `other`;
    /// `0.0` for a value without tokens.
    pub(crate) fn containment(&self, other: &[u32]) -> f64 {
        if self.n_tokens == 0 {
            return 0.0;
        }
        intersection_len(&self.tokens, other) as f64 / self.n_tokens as f64
    }
}

/// What the index precomputed for one vertex.
pub struct Vicinity<'a> {
    /// Ids of the canonical labels within `hops`, sorted and distinct.
    pub(crate) labels: &'a [u32],
    /// Union of those labels' token ids, sorted and distinct.
    pub(crate) tokens: &'a [u32],
    label_tokens: &'a IdRows,
}

impl<'a> Vicinity<'a> {
    /// The token ids of each label, in `labels` order.
    pub(crate) fn label_token_sets(&self) -> impl Iterator<Item = &'a [u32]> + '_ {
        self.labels
            .iter()
            .map(|&l| self.label_tokens.row(l as usize))
    }
}

/// Per-vertex vicinity ids plus the token → vertices index.
#[derive(Default)]
pub struct BlockIndex {
    /// Canonical label text → label id.
    label_ids: FxHashMap<String, u32>,
    /// Label id → that label's token ids.
    label_tokens: IdRows,
    /// Token text → token id.
    token_ids: FxHashMap<String, u32>,
    /// Token id → vertices whose vicinity contains it, in indexing order.
    blocks: Vec<Vec<VertexId>>,
    /// Vertex → its row in `vicinity_labels` / `vicinity_tokens`.
    slots: FxHashMap<VertexId, u32>,
    vicinity_labels: IdRows,
    vicinity_tokens: IdRows,
    /// Blocks bigger than this are considered stop words.
    max_block: usize,
}

impl BlockIndex {
    /// Build the index over all live vertices.
    pub fn build(g: &LabeledGraph, hops: usize, max_block: usize) -> Self {
        Self::build_over(g, g.vertices(), hops, max_block)
    }

    /// Build the index over a restricted candidate set — the incremental
    /// matching path of IncExt only considers vertices whose vicinity an
    /// update could have changed. A vertex listed twice is indexed once.
    pub fn build_over(
        g: &LabeledGraph,
        candidates: impl IntoIterator<Item = VertexId>,
        hops: usize,
        max_block: usize,
    ) -> Self {
        let mut index = BlockIndex {
            max_block,
            ..BlockIndex::default()
        };
        // Graph label symbol → label id: each distinct vertex label is
        // canonicalised and tokenised once, however many vicinities it
        // sits in.
        let mut by_symbol: FxHashMap<Symbol, u32> = FxHashMap::default();
        let (mut labels, mut toks) = (Vec::new(), Vec::new());
        for v in candidates {
            if !g.is_live(v) || index.slots.contains_key(&v) {
                continue;
            }
            labels.clear();
            for u in k_hop_set(g, v, hops) {
                let sym = g.vertex_label(u).expect("k_hop_set yields live vertices");
                let id = *by_symbol
                    .entry(sym)
                    .or_insert_with(|| index.intern_label(&canonical(&g.symbols().resolve(sym))));
                labels.push(id);
            }
            index.vicinity_labels.push(&mut labels);
            toks.clear();
            for &l in &labels {
                toks.extend_from_slice(index.label_tokens.row(l as usize));
            }
            index.vicinity_tokens.push(&mut toks);
            for &t in &toks {
                index.blocks[t as usize].push(v);
            }
            index.slots.insert(v, index.slots.len() as u32);
        }
        index
    }

    /// Id of a canonical label, tokenising it on first sight.
    fn intern_label(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let mut toks: Vec<u32> = tokens(label)
            .into_iter()
            .map(|t| {
                let next = self.token_ids.len() as u32;
                *self.token_ids.entry(t).or_insert(next)
            })
            .collect();
        self.blocks.resize_with(self.token_ids.len(), Vec::new);
        self.label_tokens.push(&mut toks);
        let id = self.label_ids.len() as u32;
        self.label_ids.insert(label.to_string(), id);
        id
    }

    /// Tokenise one normalized tuple value and look its text and tokens up.
    pub fn query_value(&self, text: &str) -> QueryValue {
        let mut toks = tokens(text);
        toks.sort_unstable();
        toks.dedup();
        let mut ids: Vec<u32> = toks
            .iter()
            .filter_map(|t| self.token_ids.get(t).copied())
            .collect();
        ids.sort_unstable();
        QueryValue {
            label: self.label_ids.get(text).copied(),
            tokens: ids,
            n_tokens: toks.len(),
        }
    }

    /// Candidate vertices for a tuple's values: the union of their tokens'
    /// blocks, stop words skipped, each vertex once.
    pub fn candidates(&self, values: &[QueryValue]) -> Vec<VertexId> {
        let mut seen: FxHashSet<VertexId> = FxHashSet::default();
        let mut out = Vec::new();
        for &t in values.iter().flat_map(|val| &val.tokens) {
            let block = &self.blocks[t as usize];
            if block.len() > self.max_block {
                continue; // stop word
            }
            out.extend(block.iter().filter(|v| seen.insert(**v)));
        }
        out
    }

    /// The precomputed vicinity of an indexed vertex.
    pub fn vicinity(&self, v: VertexId) -> Option<Vicinity<'_>> {
        let slot = *self.slots.get(&v)? as usize;
        Some(Vicinity {
            labels: self.vicinity_labels.row(slot),
            tokens: self.vicinity_tokens.row(slot),
            label_tokens: &self.label_tokens,
        })
    }

    /// Number of vertices indexed.
    pub fn vertex_count(&self) -> usize {
        self.vicinity_labels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fintech() -> (LabeledGraph, VertexId, VertexId) {
        // pid1 --name--> "G&L ESG", pid1 --issue--> "G&L"
        let mut g = LabeledGraph::new();
        let pid1 = g.add_vertex("pid1");
        let name = g.add_vertex("G&L ESG");
        let issuer = g.add_vertex("G&L");
        g.add_edge(pid1, "name", name);
        g.add_edge(pid1, "issue", issuer);
        let pid2 = g.add_vertex("pid2");
        let name2 = g.add_vertex("Beta");
        g.add_edge(pid2, "name", name2);
        (g, pid1, pid2)
    }

    /// The canonical labels of `v`'s vicinity, sorted.
    fn labels_of(idx: &BlockIndex, v: VertexId) -> Vec<&str> {
        let vic = idx.vicinity(v).unwrap();
        let mut out: Vec<&str> = idx
            .label_ids
            .iter()
            .filter(|(_, id)| vic.labels.contains(id))
            .map(|(text, _)| text.as_str())
            .collect();
        out.sort_unstable();
        out
    }

    fn candidates_of(idx: &BlockIndex, text: &str) -> Vec<VertexId> {
        idx.candidates(&[idx.query_value(text)])
    }

    #[test]
    fn vicinity_includes_neighbors() {
        let (g, pid1, _) = fintech();
        let idx = BlockIndex::build(&g, 1, 100);
        assert_eq!(labels_of(&idx, pid1), ["g l", "g l esg", "pid1"]);
        // Tokens are the union over the labels: g, l, esg, pid1.
        assert_eq!(idx.vicinity(pid1).unwrap().tokens.len(), 4);
    }

    #[test]
    fn candidates_found_via_property_tokens() {
        let (g, pid1, pid2) = fintech();
        let idx = BlockIndex::build(&g, 1, 100);
        let cands = candidates_of(&idx, "esg");
        assert!(cands.contains(&pid1));
        assert!(!cands.contains(&pid2));
    }

    #[test]
    fn oversized_blocks_are_skipped() {
        let mut g = LabeledGraph::new();
        for i in 0..10 {
            g.add_vertex(&format!("common thing {i}"));
        }
        let idx = BlockIndex::build(&g, 0, 5);
        // "common" appears in 10 vicinities > max_block 5: stop word.
        assert!(candidates_of(&idx, "common").is_empty());
        // A rare token ("3" from "common thing 3") still finds its vertex.
        assert_eq!(candidates_of(&idx, "3").len(), 1);
    }

    #[test]
    fn zero_hop_vicinity_is_own_label() {
        let (g, pid1, _) = fintech();
        let idx = BlockIndex::build(&g, 0, 100);
        assert_eq!(labels_of(&idx, pid1), ["pid1"]);
    }

    #[test]
    fn a_vertex_listed_twice_is_indexed_once() {
        let (g, pid1, _) = fintech();
        let idx = BlockIndex::build_over(&g, [pid1, pid1], 1, 100);
        assert_eq!(idx.vertex_count(), 1);
        assert_eq!(candidates_of(&idx, "esg"), [pid1]);
    }

    #[test]
    fn unknown_tokens_count_in_the_union_only() {
        let (g, _, _) = fintech();
        let idx = BlockIndex::build(&g, 0, 100);
        let val = idx.query_value("beta gamma");
        assert_eq!((val.tokens.len(), val.n_tokens), (1, 2));
        let beta = idx.query_value("beta");
        assert_eq!(val.jaccard(&beta.tokens), 0.5);
        assert_eq!(idx.query_value("").jaccard(&[]), 1.0);
    }

    #[test]
    fn sorted_intersection_counts_common_ids() {
        assert_eq!(intersection_len(&[1, 3, 5, 7], &[3, 4, 5, 8]), 2);
        assert_eq!(intersection_len(&[], &[1]), 0);
    }
}
