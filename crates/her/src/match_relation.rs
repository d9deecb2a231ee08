//! The match relation `f(S,G)` of schema `Rm(tid, vid)`.

use gsj_common::{FxHashMap, Value};
use gsj_graph::VertexId;
use std::collections::hash_map::Entry;

/// End of a [`MatchRelation`] same-tid chain.
const NO_PAIR: u32 = u32::MAX;

/// The HER output: pairs `(t.id, v.id)` meaning tuple `t` and vertex `v`
/// refer to the same entity (Section II-B).
#[derive(Debug, Clone, Default)]
pub struct MatchRelation {
    pairs: Vec<(Value, VertexId)>,
    /// Per tuple id, the indices of its first and last pair.
    by_tid: FxHashMap<Value, (u32, u32)>,
    /// `next[i]`: the next pair sharing pair `i`'s tuple id, or `NO_PAIR`.
    next: Vec<u32>,
}

impl MatchRelation {
    /// Empty match relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from pairs. Every pair is kept; for a tuple id with several
    /// pairs, [`vertex_of`](Self::vertex_of) answers the last one.
    pub fn from_pairs(pairs: Vec<(Value, VertexId)>) -> Self {
        let mut m = MatchRelation::new();
        for (tid, vid) in pairs {
            m.push(tid, vid);
        }
        m
    }

    /// Add a match.
    pub fn push(&mut self, tid: Value, vid: VertexId) {
        let i = u32::try_from(self.pairs.len()).expect("fewer than 2^32 matches");
        self.next.push(NO_PAIR);
        match self.by_tid.entry(tid.clone()) {
            Entry::Occupied(mut e) => {
                let (_, last) = e.get_mut();
                self.next[*last as usize] = i;
                *last = i;
            }
            Entry::Vacant(e) => {
                e.insert((i, i));
            }
        }
        self.pairs.push((tid, vid));
    }

    /// All pairs.
    pub fn pairs(&self) -> &[(Value, VertexId)] {
        &self.pairs
    }

    /// The vertex matched to a tuple id, if any (the last pair's, when the
    /// id has several).
    pub fn vertex_of(&self, tid: &Value) -> Option<VertexId> {
        self.by_tid
            .get(tid)
            .map(|&(_, last)| self.pairs[last as usize].1)
    }

    /// Every vertex matched to a tuple id, in match order.
    pub fn vertices_of(&self, tid: &Value) -> impl Iterator<Item = VertexId> + '_ {
        let mut i = self.by_tid.get(tid).map_or(NO_PAIR, |&(first, _)| first);
        std::iter::from_fn(move || {
            let pair = self.pairs.get(i as usize)?;
            i = self.next[i as usize];
            Some(pair.1)
        })
    }

    /// Number of matches.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no matches.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// All matched vertices (with duplicates preserved).
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.pairs.iter().map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_lookup() {
        let mut m = MatchRelation::new();
        m.push(Value::str("fd1"), VertexId(3));
        m.push(Value::str("fd2"), VertexId(9));
        assert_eq!(m.len(), 2);
        assert_eq!(m.vertex_of(&Value::str("fd1")), Some(VertexId(3)));
        assert_eq!(m.vertex_of(&Value::str("zzz")), None);
        assert_eq!(m.vertices_of(&Value::str("zzz")).count(), 0);
    }

    #[test]
    fn later_pair_overrides_index() {
        let m = MatchRelation::from_pairs(vec![
            (Value::str("a"), VertexId(1)),
            (Value::str("b"), VertexId(5)),
            (Value::str("a"), VertexId(2)),
        ]);
        assert_eq!(m.vertex_of(&Value::str("a")), Some(VertexId(2)));
        assert_eq!(m.len(), 3);
        // ...while every pair of the id stays reachable, in match order.
        let all: Vec<VertexId> = m.vertices_of(&Value::str("a")).collect();
        assert_eq!(all, vec![VertexId(1), VertexId(2)]);
        // Int and Float ids that compare equal share one entry.
        let m = MatchRelation::from_pairs(vec![
            (Value::Int(3), VertexId(7)),
            (Value::Float(3.0), VertexId(8)),
        ]);
        assert_eq!(m.vertices_of(&Value::Int(3)).count(), 2);
    }
}
