//! Schema-agnostic token blocking over vertex vicinities.
//!
//! For every live vertex we collect its *vicinity*: the normalized strings
//! of its own label and the labels of vertices within `hops` undirected
//! hops (properties of an entity live at the end of short paths, not on
//! the entity vertex itself — the very observation motivating RExt). Each
//! vicinity token indexes the vertex, and a tuple's candidate set is the
//! union of the blocks of its value tokens, with oversized blocks (stop
//! words) dropped. The union also records which values met each candidate
//! — an exact upper bound on its score, which the matcher prunes by.
//!
//! Everything the matcher compares is interned while the index is built:
//! a canonical label is a `u32`, a token is a `u32`, and every set is a
//! sorted `Vec<u32>` row. Scoring a (tuple, candidate) pair is then a
//! handful of integer merges; no string is tokenised, hashed or allocated
//! per pair.

use crate::normalize::tokens;
use gsj_common::{FxHashMap, Symbol};
use gsj_graph::traversal::k_hop_balls;
use gsj_graph::{LabeledGraph, VertexId};

/// Rows of sorted, distinct `u32` ids stored back to back.
#[derive(Default)]
struct IdRows {
    /// `offsets[i]..offsets[i + 1]` is row `i` of `ids`.
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl IdRows {
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

/// One tuple's candidates with, per candidate, the values that can still
/// hit its vicinity. All three steps of the scoring rule need the value
/// and the vicinity to share a token, and a block holds *every* indexed
/// vertex whose vicinity has the token, so walking value `i`'s blocks
/// finds every candidate value `i` can hit: bit `i` of a candidate's mask
/// is set iff the walk met it there, or the walk proves nothing about
/// value `i` (see [`BlockIndex::candidates`]). The buffers are reused
/// across tuples.
#[derive(Default)]
pub struct Candidates {
    /// Slot → mask; zero for a vertex that is no candidate of this tuple.
    masks: Vec<u64>,
    /// The candidates' slots, in block order.
    slots: Vec<u32>,
    /// Number of values of the tuple; above 64 the masks say nothing.
    n_values: usize,
}

impl Candidates {
    /// The candidates' slots.
    pub(crate) fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// The values the candidate at `slot` may hit: bit `i` clear means
    /// value `i` provably misses. Values past the 64th have no bit and
    /// may always hit.
    pub(crate) fn mask(&self, slot: u32) -> u64 {
        self.masks[slot as usize]
    }

    /// An upper bound on the number of values the candidate at `slot`
    /// hits.
    pub(crate) fn max_hits(&self, slot: u32) -> usize {
        if self.n_values > u64::BITS as usize {
            self.n_values
        } else {
            self.mask(slot).count_ones() as usize
        }
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
    /// Token id → slots of the vertices whose vicinity contains it,
    /// ascending.
    blocks: Vec<Vec<u32>>,
    /// Slot → vertex, ascending; a slot is the vertex's row in
    /// `vicinity_labels` / `vicinity_tokens`.
    vertices: Vec<VertexId>,
    vicinity_labels: IdRows,
    vicinity_tokens: IdRows,
    /// Blocks bigger than this are considered stop words.
    max_block: usize,
}

impl BlockIndex {
    /// Build the index over `candidates` — every live vertex for the full
    /// matcher; for IncExt's incremental matching only the vertices whose
    /// vicinity an update could have changed. The order does not matter,
    /// a vertex listed twice is indexed once, and a removed one not at all.
    pub fn build_over(
        g: &LabeledGraph,
        candidates: impl IntoIterator<Item = VertexId>,
        hops: usize,
        max_block: usize,
    ) -> Self {
        let mut vertices: Vec<_> = candidates.into_iter().filter(|&v| g.is_live(v)).collect();
        vertices.sort_unstable();
        vertices.dedup();
        let balls = k_hop_balls(g, &vertices, hops);
        let mut index = BlockIndex {
            max_block,
            vertices,
            ..BlockIndex::default()
        };
        // Graph label symbol → label id: each distinct vertex label is
        // resolved and tokenised once, however many vicinities it sits in.
        let mut by_symbol: FxHashMap<Symbol, u32> = FxHashMap::default();
        let (mut labels, mut toks) = (Vec::new(), Vec::new());
        for slot in 0..index.vertices.len() {
            labels.clear();
            for &u in balls.row(slot) {
                let sym = g.vertex_label(u).expect("a ball holds live vertices");
                let id = *by_symbol
                    .entry(sym)
                    .or_insert_with(|| index.intern_label(&g.symbols().resolve(sym)));
                labels.push(id);
            }
            index.vicinity_labels.push(&mut labels);
            toks.clear();
            for &l in &labels {
                toks.extend_from_slice(index.label_tokens.row(l as usize));
            }
            index.vicinity_tokens.push(&mut toks);
            for &t in &toks {
                index.blocks[t as usize].push(slot as u32);
            }
        }
        index
    }

    /// Id of the canonical form of a vertex label, tokenised on first
    /// sight — once: the canonical text is the tokens joined, and its
    /// tokens are those same tokens.
    fn intern_label(&mut self, label: &str) -> u32 {
        let mut toks = tokens(label);
        let canonical = toks.join(" ");
        if let Some(&id) = self.label_ids.get(&canonical) {
            return id;
        }
        // Except where lower-casing produced a non-alphanumeric char
        // (`İ` → `i̇`): then the canonical text splits further.
        if !toks.iter().all(|t| t.chars().all(char::is_alphanumeric)) {
            toks = tokens(&canonical);
        }
        let mut ids: Vec<u32> = toks
            .into_iter()
            .map(|t| {
                let next = self.token_ids.len() as u32;
                *self.token_ids.entry(t).or_insert(next)
            })
            .collect();
        self.blocks.resize_with(self.token_ids.len(), Vec::new);
        self.label_tokens.push(&mut ids);
        let id = self.label_ids.len() as u32;
        self.label_ids.insert(canonical, id);
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
    /// blocks, stop words skipped, each vertex once — and for each, the
    /// mask of values that may hit it.
    ///
    /// Besides the bits the walk sets, a value's bit is set on every
    /// candidate when the walk cannot rule a hit out: the value has no
    /// token (it hits by exact label or as the empty set against an empty
    /// label), one of its tokens is a stop word (whose block was not
    /// walked), or `fuzzy <= 0` (any label passes the Jaccard step).
    pub fn candidates(&self, values: &[QueryValue], fuzzy: f64, out: &mut Candidates) {
        for slot in out.slots.drain(..) {
            out.masks[slot as usize] = 0;
        }
        out.masks.resize(self.vertices.len(), 0);
        let n = values.len();
        out.n_values = n;
        let tracked = n <= u64::BITS as usize;
        let all = if n >= u64::BITS as usize {
            !0
        } else {
            (1u64 << n) - 1
        };
        let mut assumed = if tracked && fuzzy > 0.0 { 0 } else { all };
        for (i, val) in values.iter().enumerate() {
            // Untracked: any nonzero mask marks the vertex as seen.
            let bit = if tracked { 1 << i } else { all };
            if val.n_tokens == 0 {
                assumed |= bit;
            }
            for &t in &val.tokens {
                let block = &self.blocks[t as usize];
                if block.len() > self.max_block {
                    assumed |= bit; // stop word
                    continue;
                }
                for &slot in block {
                    let mask = &mut out.masks[slot as usize];
                    if *mask == 0 {
                        out.slots.push(slot);
                    }
                    *mask |= bit;
                }
            }
        }
        if assumed != 0 {
            for &slot in &out.slots {
                out.masks[slot as usize] |= assumed;
            }
        }
    }

    /// The vertex indexed at `slot`.
    pub(crate) fn vertex(&self, slot: u32) -> VertexId {
        self.vertices[slot as usize]
    }

    /// The precomputed vicinity of the vertex at `slot`.
    pub(crate) fn vicinity(&self, slot: u32) -> Vicinity<'_> {
        Vicinity {
            labels: self.vicinity_labels.row(slot as usize),
            tokens: self.vicinity_tokens.row(slot as usize),
            label_tokens: &self.label_tokens,
        }
    }

    /// Number of vertices indexed.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
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

    fn build(g: &LabeledGraph, hops: usize, max_block: usize) -> BlockIndex {
        BlockIndex::build_over(g, g.vertices(), hops, max_block)
    }

    fn vicinity_of(idx: &BlockIndex, v: VertexId) -> Vicinity<'_> {
        let slot = idx.vertices.iter().position(|&u| u == v).unwrap();
        idx.vicinity(slot as u32)
    }

    /// The canonical labels of `v`'s vicinity, sorted.
    fn labels_of(idx: &BlockIndex, v: VertexId) -> Vec<&str> {
        let vic = vicinity_of(idx, v);
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
        let mut out = Candidates::default();
        idx.candidates(&[idx.query_value(text)], 0.5, &mut out);
        out.slots().iter().map(|&c| idx.vertex(c)).collect()
    }

    #[test]
    fn vicinity_includes_neighbors() {
        let (g, pid1, _) = fintech();
        let idx = build(&g, 1, 100);
        assert_eq!(labels_of(&idx, pid1), ["g l", "g l esg", "pid1"]);
        // Tokens are the union over the labels: g, l, esg, pid1.
        assert_eq!(vicinity_of(&idx, pid1).tokens.len(), 4);
    }

    #[test]
    fn candidates_found_via_property_tokens() {
        let (g, pid1, pid2) = fintech();
        let idx = build(&g, 1, 100);
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
        let idx = build(&g, 0, 5);
        // "common" appears in 10 vicinities > max_block 5: stop word.
        assert!(candidates_of(&idx, "common").is_empty());
        // A rare token ("3" from "common thing 3") still finds its vertex.
        assert_eq!(candidates_of(&idx, "3").len(), 1);
    }

    #[test]
    fn zero_hop_vicinity_is_own_label() {
        let (g, pid1, _) = fintech();
        let idx = build(&g, 0, 100);
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
    fn a_label_whose_lower_case_splits_is_tokenised_as_its_canonical_text() {
        // `İ` lower-cases to `i` + a combining dot, which is no
        // alphanumeric: the label is one token, its canonical text two.
        let mut g = LabeledGraph::new();
        let v = g.add_vertex("İx");
        let canonical = crate::normalize::canonical("İx");
        assert_eq!((tokens("İx").len(), tokens(&canonical).len()), (1, 2));
        let idx = build(&g, 0, 100);
        assert_eq!(labels_of(&idx, v), [canonical.as_str()]);
        assert_eq!(vicinity_of(&idx, v).tokens.len(), 2);
        assert_eq!(candidates_of(&idx, "x"), [v]);
    }

    #[test]
    fn unknown_tokens_count_in_the_union_only() {
        let (g, _, _) = fintech();
        let idx = build(&g, 0, 100);
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
