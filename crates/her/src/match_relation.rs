//! The match relation `f(S,G)` of schema `Rm(tid, vid)`.

use gsj_common::{FxHashMap, Value};
use gsj_graph::VertexId;
use gsj_relational::{Relation, Schema};

/// The HER output: pairs `(t.id, v.id)` meaning tuple `t` and vertex `v`
/// refer to the same entity (Section II-B).
#[derive(Debug, Clone, Default)]
pub struct MatchRelation {
    pairs: Vec<(Value, VertexId)>,
    by_tid: FxHashMap<Value, VertexId>,
}

impl MatchRelation {
    /// Empty match relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from pairs. Later pairs for the same tuple id override earlier
    /// ones in the by-tid index (but all pairs are kept in `pairs`).
    pub fn from_pairs(pairs: Vec<(Value, VertexId)>) -> Self {
        let by_tid = pairs.iter().cloned().collect();
        MatchRelation { pairs, by_tid }
    }

    /// Add a match.
    pub fn push(&mut self, tid: Value, vid: VertexId) {
        self.by_tid.insert(tid.clone(), vid);
        self.pairs.push((tid, vid));
    }

    /// All pairs.
    pub fn pairs(&self) -> &[(Value, VertexId)] {
        &self.pairs
    }

    /// The vertex matched to a tuple id, if any.
    pub fn vertex_of(&self, tid: &Value) -> Option<VertexId> {
        self.by_tid.get(tid).copied()
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

    /// Materialize as a relation of schema `Rm(tid, vid)` — the form in
    /// which `f(D,G)` is stored inside the RDBMS for static joins
    /// (Section IV-A). The `tid` column name is configurable so it can
    /// natural-join with the base relation's id attribute.
    pub fn to_relation(&self, name: &str, tid_attr: &str) -> Relation {
        let schema = Schema::of(name, &[tid_attr, "vid"]);
        let mut rel = Relation::empty(schema);
        for (tid, vid) in &self.pairs {
            rel.push_values(vec![tid.clone(), Value::Int(vid.0 as i64)])
                .expect("arity 2");
        }
        rel
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
    }

    #[test]
    fn to_relation_has_rm_schema() {
        let m = MatchRelation::from_pairs(vec![(Value::str("fd1"), VertexId(3))]);
        let r = m.to_relation("f_product", "pid");
        assert_eq!(r.schema().attrs(), &["pid".to_string(), "vid".to_string()]);
        assert_eq!(r.value_at(0, 1), Value::Int(3));
    }

    #[test]
    fn later_pair_overrides_index() {
        let m = MatchRelation::from_pairs(vec![
            (Value::str("a"), VertexId(1)),
            (Value::str("a"), VertexId(2)),
        ]);
        assert_eq!(m.vertex_of(&Value::str("a")), Some(VertexId(2)));
        assert_eq!(m.len(), 2);
    }
}
