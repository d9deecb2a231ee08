//! The dynamically-typed scalar shared by tuples and graph labels.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A scalar value.
///
/// `Value` is used for relational attributes, extracted graph properties and
/// literal constants in gSQL. Strings are `Arc<str>` so that wide relations
/// can be cloned during joins without reallocating every cell.
///
/// Equality and hashing are *structural*: `Null == Null` and floats compare
/// by bit pattern (after normalizing `-0.0` to `0.0`). SQL's three-valued
/// `NULL` semantics are enforced one level up, by the relational operators,
/// which is where the paper's engine (PostgreSQL) enforces them too.
#[derive(Debug, Clone)]
pub enum Value {
    /// The SQL NULL / the paper's "null" extraction result.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Interned-ish string (shared, immutable).
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// True iff this is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: ints widen to floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parse a string with type inference: integers, then floats, then
    /// booleans, then strings; the empty string is NULL. Used by the CSV
    /// importer.
    pub fn parse_infer(s: &str) -> Value {
        if s.is_empty() {
            return Value::Null;
        }
        if let Ok(i) = s.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = s.parse::<f64>() {
            return Value::Float(f);
        }
        match s {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => Value::str(s),
        }
    }

    /// A short name for the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
        }
    }

    /// Canonical bit pattern used for float hashing and NaN-safe
    /// ordering: `-0.0` normalizes to `0.0` and every NaN to one
    /// canonical NaN, so hashing matches equality. Public so columnar
    /// storage can hash/compare unboxed cells exactly like `Value`.
    pub fn canonical_float_bits(f: f64) -> u64 {
        // Normalize -0.0 to 0.0 and all NaNs to one canonical NaN so that
        // hashing matches equality.
        if f == 0.0 {
            0f64.to_bits()
        } else if f.is_nan() {
            f64::NAN.to_bits()
        } else {
            f.to_bits()
        }
    }

    fn float_bits(f: f64) -> u64 {
        Self::canonical_float_bits(f)
    }

    /// Hash a numeric the way `Value` and the columnar `CellRef` both do.
    /// Ints and floats that compare equal must hash equally, so every
    /// numeric goes through its canonical `f64` bits — whose low 32 bits
    /// are zero for every integer below 2²¹ in magnitude. FxHash keeps
    /// low bits zero and hash tables pick the bucket from the low bits, so
    /// the word is mixed first, as rustc-hash 2's `finish` does: an odd
    /// multiply carries the high bits' entropy upwards and a rotation
    /// brings it down.
    pub fn hash_numeric<H: Hasher>(f: f64, state: &mut H) {
        const K: u64 = 0xf135_7aea_2e62_a9c5;
        state.write_u8(2);
        state.write_u64(Self::float_bits(f).wrapping_mul(K).rotate_left(26));
    }

    /// Rank used to order values of different types deterministically.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => Self::float_bits(*a) == Self::float_bits(*b),
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64) == *b
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            Value::Int(i) => Self::hash_numeric(*i as f64, state),
            Value::Float(f) => Self::hash_numeric(*f, state),
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: Null < Bool < numeric < Str; numerics compare by value.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) if a.type_rank() == 2 && b.type_rank() == 2 => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                x.partial_cmp(&y)
                    .unwrap_or_else(|| Self::float_bits(x).cmp(&Self::float_bits(y)))
            }
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FxBuildHasher, FxHashSet};
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::BuildHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn int_float_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
    }

    #[test]
    fn integer_keys_spread_over_the_buckets() {
        // A hash table buckets by the low bits.
        let fx = |i: i64| FxBuildHasher::default().hash_one(Value::Int(i));
        for ints in [0..100_000, -50_000..50_000] {
            let low: FxHashSet<u64> = ints.clone().map(|i| fx(i) & 0xffff).collect();
            assert!(low.len() >= 40_000, "{ints:?}: {} patterns", low.len());
        }
    }

    #[test]
    fn negative_zero_and_nan_are_canonical() {
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(h(&Value::Float(0.0)), h(&Value::Float(-0.0)));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn null_is_structurally_equal() {
        assert_eq!(Value::Null, Value::Null);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn total_order_ranks_types() {
        let mut vs = [
            Value::str("z"),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
            Value::Float(0.5),
        ];
        vs.sort();
        assert!(vs[0].is_null());
        assert_eq!(vs[1], Value::Bool(true));
        assert_eq!(vs[2], Value::Float(0.5));
        assert_eq!(vs[3], Value::Int(1));
        assert_eq!(vs[4], Value::str("z"));
    }

    #[test]
    fn parse_infer_types() {
        assert_eq!(Value::parse_infer("42"), Value::Int(42));
        assert_eq!(Value::parse_infer("4.5"), Value::Float(4.5));
        assert_eq!(Value::parse_infer("true"), Value::Bool(true));
        assert_eq!(Value::parse_infer("Bob"), Value::str("Bob"));
        assert_eq!(Value::parse_infer(""), Value::Null);
    }

    #[test]
    fn display_matches_sql_ish_rendering() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::str("G&L").to_string(), "G&L");
        assert_eq!(Value::Int(-5).to_string(), "-5");
    }

    proptest! {
        #[test]
        fn eq_implies_same_hash(a in -1000i64..1000, b in -1000i64..1000) {
            let (x, y) = (Value::Int(a), Value::Float(b as f64));
            if x == y {
                prop_assert_eq!(h(&x), h(&y));
            }
        }

        #[test]
        fn ord_is_total_and_antisymmetric(a in -100i64..100, b in -100i64..100) {
            let (x, y) = (Value::Int(a), Value::Int(b));
            match x.cmp(&y) {
                Ordering::Less => prop_assert_eq!(y.cmp(&x), Ordering::Greater),
                Ordering::Greater => prop_assert_eq!(y.cmp(&x), Ordering::Less),
                Ordering::Equal => prop_assert_eq!(x, y),
            }
        }

        #[test]
        fn string_roundtrip(s in "[a-zA-Z0-9_ ]{0,24}") {
            let v = Value::str(&s);
            prop_assert_eq!(v.as_str(), Some(s.as_str()));
        }
    }
}
