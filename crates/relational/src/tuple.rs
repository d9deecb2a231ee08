//! Tuples.

use gsj_common::Value;

/// A tuple: one value per schema attribute.
///
/// Kept as a thin wrapper over `Vec<Value>` so row-oriented consumers
/// stay cache-friendly and the executor can move tuples without
/// indirection. String cells are `Arc<str>` (see [`gsj_common::Value`])
/// so cloning a wide tuple during a join is cheap. The cell vector is
/// private: a tuple read off a [`crate::relation::Relation`] is a copy
/// of one row of its columns, so mutating it would change nothing in
/// the relation — go through [`Tuple::new`]/[`Tuple::into_values`]
/// instead.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple(Vec<Value>);

impl Tuple {
    /// Build from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values)
    }

    /// Value at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Number of cells.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The raw cells.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Take the cells out.
    pub fn into_values(self) -> Vec<Value> {
        self.0
    }

    /// Project onto the given positions.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple(positions.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Concatenate with another tuple.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Tuple(v)
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_and_concat() {
        let t = Tuple::new(vec![Value::Int(1), Value::str("a"), Value::Bool(true)]);
        assert_eq!(
            t.project(&[2, 0]).values(),
            &[Value::Bool(true), Value::Int(1)]
        );
        let u = Tuple::new(vec![Value::Null]);
        let c = t.concat(&u);
        assert_eq!(c.arity(), 4);
        assert!(c.get(3).is_null());
    }

    #[test]
    fn into_values_round_trips() {
        let t = Tuple::new(vec![Value::Int(1), Value::Null]);
        let vs = t.clone().into_values();
        assert_eq!(Tuple::new(vs), t);
    }
}
