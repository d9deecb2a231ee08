//! Typed column vectors with validity bitmaps — the storage layer
//! behind [`crate::relation::Relation`].
//!
//! A [`Column`] holds one attribute's cells for every row. Homogeneous
//! columns store unboxed payloads (`Vec<i64>`, `Vec<f64>`, …) plus a
//! [`Bitmap`] marking which slots are valid (non-NULL); heterogeneous
//! columns demote to a boxed [`Value`] vector, and a column that has
//! only ever seen NULLs stays untyped. Cells are read back either as
//! owned [`Value`]s or as borrowed [`CellRef`]s — the latter hash,
//! compare, and order *exactly* like `Value` (canonical float bits,
//! int/float cross-type equality), so vectorized kernels keyed on
//! `CellRef` agree with the row-at-a-time reference semantics.

use gsj_common::Value;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::sync::OnceLock;

/// A validity bitmap: bit `i` set ⇔ row `i` is non-NULL.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitmap of `len` set bits (no NULLs).
    pub fn all_set(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if let (Some(last), tail @ 1..) = (words.last_mut(), len % 64) {
            *last = (1u64 << tail) - 1;
        }
        Bitmap { words, len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one bit.
    #[inline]
    pub fn push(&mut self, valid: bool) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if bit == 0 {
            self.words.push(0);
        }
        if valid {
            self.words[word] |= 1u64 << bit;
        }
        self.len += 1;
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set (valid) bits.
    pub fn count_valid(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when every bit is set.
    pub fn all_valid(&self) -> bool {
        self.count_valid() == self.len
    }

    /// Append every bit of `other`.
    pub fn extend(&mut self, other: &Bitmap) {
        for i in 0..other.len {
            self.push(other.get(i));
        }
    }

    /// The bitmap of `self` at the given row indices.
    pub fn gather(&self, idx: &[u32]) -> Bitmap {
        let mut out = Bitmap::new();
        for &i in idx {
            out.push(self.get(i as usize));
        }
        out
    }

    /// Heap bytes used.
    pub fn approx_bytes(&self) -> u64 {
        (self.words.len() * 8) as u64
    }
}

/// Shared empty string used as the placeholder payload of NULL slots in
/// string columns (so a mostly-NULL column does not allocate per row).
fn empty_str() -> Arc<str> {
    static EMPTY: OnceLock<Arc<str>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from("")).clone()
}

/// One attribute's cells for every row of a relation.
///
/// Pushing a value whose type does not match the column's current
/// representation transitions it: an untyped all-NULL column adopts the
/// value's type (back-filling invalid slots), and a typed column that
/// receives a different scalar type demotes to [`Column::Mixed`]. An
/// `Int` column never silently widens to `Float` — that would break the
/// exact `Value` round-trip (and the integer-typed `SUM` semantics).
#[derive(Debug, Clone)]
pub enum Column {
    /// All-NULL column whose element type is not yet established.
    Null(usize),
    /// Booleans; invalid slots hold `false`.
    Bool { data: Vec<bool>, validity: Bitmap },
    /// 64-bit integers; invalid slots hold `0`.
    Int { data: Vec<i64>, validity: Bitmap },
    /// 64-bit floats; invalid slots hold `0.0`.
    Float { data: Vec<f64>, validity: Bitmap },
    /// Shared strings; invalid slots hold the shared empty string.
    Str {
        data: Vec<Arc<str>>,
        validity: Bitmap,
    },
    /// Heterogeneous fallback: boxed values, NULLs inline.
    Mixed(Vec<Value>),
}

impl Default for Column {
    fn default() -> Self {
        Column::Null(0)
    }
}

impl Column {
    /// An empty, untyped column.
    pub fn new() -> Self {
        Column::Null(0)
    }

    /// An all-NULL column of the given length.
    pub fn null(len: usize) -> Self {
        Column::Null(len)
    }

    /// Build a column from owned values.
    pub fn from_values(vals: impl IntoIterator<Item = Value>) -> Column {
        let mut c = Column::new();
        for v in vals {
            c.push(v);
        }
        c
    }

    /// An `Int` column without NULLs that takes ownership of `data`.
    pub fn from_ints(data: Vec<i64>) -> Column {
        let validity = Bitmap::all_set(data.len());
        Column::Int { data, validity }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Null(n) => *n,
            Column::Bool { data, .. } => data.len(),
            Column::Int { data, .. } => data.len(),
            Column::Float { data, .. } => data.len(),
            Column::Str { data, .. } => data.len(),
            Column::Mixed(vs) => vs.len(),
        }
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A short name for the column's representation (for docs/tests).
    pub fn repr_name(&self) -> &'static str {
        match self {
            Column::Null(_) => "null",
            Column::Bool { .. } => "bool",
            Column::Int { .. } => "int",
            Column::Float { .. } => "float",
            Column::Str { .. } => "str",
            Column::Mixed(_) => "mixed",
        }
    }

    fn repr_tag(&self) -> u8 {
        match self {
            Column::Null(_) => 0,
            Column::Bool { .. } => 1,
            Column::Int { .. } => 2,
            Column::Float { .. } => 3,
            Column::Str { .. } => 4,
            Column::Mixed(_) => 5,
        }
    }

    /// A typed column of `nulls` invalid slots, ready to accept values
    /// of `v`'s type.
    fn typed_with_nulls(v: &Value, nulls: usize) -> Column {
        let mut validity = Bitmap::new();
        for _ in 0..nulls {
            validity.push(false);
        }
        match v {
            Value::Bool(_) => Column::Bool {
                data: vec![false; nulls],
                validity,
            },
            Value::Int(_) => Column::Int {
                data: vec![0; nulls],
                validity,
            },
            Value::Float(_) => Column::Float {
                data: vec![0.0; nulls],
                validity,
            },
            Value::Str(_) => Column::Str {
                data: vec![empty_str(); nulls],
                validity,
            },
            Value::Null => Column::Null(nulls),
        }
    }

    /// Materialize every cell as an owned `Value`.
    fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }

    /// Append one value, transitioning the representation if needed.
    pub fn push(&mut self, v: Value) {
        let compatible = matches!(
            (&*self, &v),
            (Column::Mixed(_), _)
                | (Column::Null(_), Value::Null)
                | (Column::Bool { .. }, Value::Bool(_) | Value::Null)
                | (Column::Int { .. }, Value::Int(_) | Value::Null)
                | (Column::Float { .. }, Value::Float(_) | Value::Null)
                | (Column::Str { .. }, Value::Str(_) | Value::Null)
        );
        if !compatible {
            if matches!(self, Column::Null(_)) {
                *self = Column::typed_with_nulls(&v, self.len());
            } else {
                *self = Column::Mixed(self.to_values());
            }
        }
        match self {
            Column::Null(n) => *n += 1,
            Column::Bool { data, validity } => match v {
                Value::Bool(b) => {
                    data.push(b);
                    validity.push(true);
                }
                _ => {
                    data.push(false);
                    validity.push(false);
                }
            },
            Column::Int { data, validity } => match v {
                Value::Int(i) => {
                    data.push(i);
                    validity.push(true);
                }
                _ => {
                    data.push(0);
                    validity.push(false);
                }
            },
            Column::Float { data, validity } => match v {
                Value::Float(f) => {
                    data.push(f);
                    validity.push(true);
                }
                _ => {
                    data.push(0.0);
                    validity.push(false);
                }
            },
            Column::Str { data, validity } => match v {
                Value::Str(s) => {
                    data.push(s);
                    validity.push(true);
                }
                _ => {
                    data.push(empty_str());
                    validity.push(false);
                }
            },
            Column::Mixed(vs) => vs.push(v),
        }
    }

    /// True when row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Null(_) => true,
            Column::Bool { validity, .. }
            | Column::Int { validity, .. }
            | Column::Float { validity, .. }
            | Column::Str { validity, .. } => !validity.get(i),
            Column::Mixed(vs) => vs[i].is_null(),
        }
    }

    /// Row `i` as a borrowed cell.
    #[inline]
    pub fn cell(&self, i: usize) -> CellRef<'_> {
        match self {
            Column::Null(n) => {
                debug_assert!(i < *n);
                CellRef::Null
            }
            Column::Bool { data, validity } => {
                if validity.get(i) {
                    CellRef::Bool(data[i])
                } else {
                    CellRef::Null
                }
            }
            Column::Int { data, validity } => {
                if validity.get(i) {
                    CellRef::Int(data[i])
                } else {
                    CellRef::Null
                }
            }
            Column::Float { data, validity } => {
                if validity.get(i) {
                    CellRef::Float(data[i])
                } else {
                    CellRef::Null
                }
            }
            Column::Str { data, validity } => {
                if validity.get(i) {
                    CellRef::Str(&data[i])
                } else {
                    CellRef::Null
                }
            }
            Column::Mixed(vs) => CellRef::from_value(&vs[i]),
        }
    }

    /// Row `i` as an owned value (string payloads are `Arc`-shared, not
    /// reallocated).
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Null(n) => {
                debug_assert!(i < *n);
                Value::Null
            }
            Column::Bool { data, validity } => {
                if validity.get(i) {
                    Value::Bool(data[i])
                } else {
                    Value::Null
                }
            }
            Column::Int { data, validity } => {
                if validity.get(i) {
                    Value::Int(data[i])
                } else {
                    Value::Null
                }
            }
            Column::Float { data, validity } => {
                if validity.get(i) {
                    Value::Float(data[i])
                } else {
                    Value::Null
                }
            }
            Column::Str { data, validity } => {
                if validity.get(i) {
                    Value::Str(data[i].clone())
                } else {
                    Value::Null
                }
            }
            Column::Mixed(vs) => vs[i].clone(),
        }
    }

    /// The column restricted to the given row indices, in order
    /// (indices may repeat — joins do).
    pub fn gather(&self, idx: &[u32]) -> Column {
        match self {
            Column::Null(_) => Column::Null(idx.len()),
            Column::Bool { data, validity } => Column::Bool {
                data: idx.iter().map(|&i| data[i as usize]).collect(),
                validity: validity.gather(idx),
            },
            Column::Int { data, validity } => Column::Int {
                data: idx.iter().map(|&i| data[i as usize]).collect(),
                validity: validity.gather(idx),
            },
            Column::Float { data, validity } => Column::Float {
                data: idx.iter().map(|&i| data[i as usize]).collect(),
                validity: validity.gather(idx),
            },
            Column::Str { data, validity } => Column::Str {
                data: idx.iter().map(|&i| data[i as usize].clone()).collect(),
                validity: validity.gather(idx),
            },
            Column::Mixed(vs) => {
                Column::Mixed(idx.iter().map(|&i| vs[i as usize].clone()).collect())
            }
        }
    }

    /// Append every row of `other`, reconciling representations (an
    /// untyped NULL side adopts the other's type; mismatched scalar
    /// types demote to [`Column::Mixed`]).
    pub fn append(&mut self, other: &Column) {
        if other.is_empty() {
            return;
        }
        if matches!(self, Column::Null(_)) && !matches!(other, Column::Null(_)) {
            let mut fresh = Column::Null(self.len());
            for i in 0..other.len() {
                fresh.push(other.value(i));
            }
            *self = fresh;
            return;
        }
        if matches!(other, Column::Null(_)) && !matches!(self, Column::Null(_)) {
            for _ in 0..other.len() {
                self.push(Value::Null);
            }
            return;
        }
        if self.repr_tag() != other.repr_tag() && !matches!(self, Column::Mixed(_)) {
            *self = Column::Mixed(self.to_values());
        }
        match (&mut *self, other) {
            (Column::Null(m), Column::Null(n)) => *m += n,
            (
                Column::Bool { data, validity },
                Column::Bool {
                    data: d2,
                    validity: v2,
                },
            ) => {
                data.extend_from_slice(d2);
                validity.extend(v2);
            }
            (
                Column::Int { data, validity },
                Column::Int {
                    data: d2,
                    validity: v2,
                },
            ) => {
                data.extend_from_slice(d2);
                validity.extend(v2);
            }
            (
                Column::Float { data, validity },
                Column::Float {
                    data: d2,
                    validity: v2,
                },
            ) => {
                data.extend_from_slice(d2);
                validity.extend(v2);
            }
            (
                Column::Str { data, validity },
                Column::Str {
                    data: d2,
                    validity: v2,
                },
            ) => {
                data.extend_from_slice(d2);
                validity.extend(v2);
            }
            (Column::Mixed(vs), o) => vs.extend((0..o.len()).map(|i| o.value(i))),
            _ => unreachable!("representations reconciled above"),
        }
    }

    /// Approximate heap bytes held by this column — real columnar
    /// accounting for the governor's memory budget.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Column::Null(n) => (*n as u64).div_ceil(8),
            Column::Bool { data, validity } => data.len() as u64 + validity.approx_bytes(),
            Column::Int { data, validity } => (data.len() * 8) as u64 + validity.approx_bytes(),
            Column::Float { data, validity } => (data.len() * 8) as u64 + validity.approx_bytes(),
            Column::Str { data, validity } => {
                data.iter().map(|s| 16 + s.len() as u64).sum::<u64>() + validity.approx_bytes()
            }
            Column::Mixed(vs) => vs
                .iter()
                .map(|v| {
                    24 + match v {
                        Value::Str(s) => s.len() as u64,
                        _ => 0,
                    }
                })
                .sum(),
        }
    }
}

/// A borrowed cell: [`Value`] without the allocation. `Eq`/`Hash`/`Ord`
/// mirror `Value` exactly — `-0.0` and NaN are canonicalized, `Int` and
/// `Float` compare (and hash) through their `f64` value, and the total
/// order ranks Null < Bool < numeric < Str.
#[derive(Debug, Clone, Copy)]
pub enum CellRef<'a> {
    /// NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Borrowed string payload.
    Str(&'a str),
}

impl<'a> CellRef<'a> {
    /// Borrow a cell from a boxed value.
    #[inline]
    pub fn from_value(v: &'a Value) -> CellRef<'a> {
        match v {
            Value::Null => CellRef::Null,
            Value::Bool(b) => CellRef::Bool(*b),
            Value::Int(i) => CellRef::Int(*i),
            Value::Float(f) => CellRef::Float(*f),
            Value::Str(s) => CellRef::Str(s),
        }
    }

    /// Box the cell back into an owned value. Allocates a fresh `Arc`
    /// for strings — prefer [`Column::value`] when the source column is
    /// at hand.
    pub fn to_value(self) -> Value {
        match self {
            CellRef::Null => Value::Null,
            CellRef::Bool(b) => Value::Bool(b),
            CellRef::Int(i) => Value::Int(i),
            CellRef::Float(f) => Value::Float(f),
            CellRef::Str(s) => Value::str(s),
        }
    }

    /// True iff NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, CellRef::Null)
    }

    #[inline]
    fn type_rank(&self) -> u8 {
        match self {
            CellRef::Null => 0,
            CellRef::Bool(_) => 1,
            CellRef::Int(_) | CellRef::Float(_) => 2,
            CellRef::Str(_) => 3,
        }
    }

    #[inline]
    fn as_f64(&self) -> Option<f64> {
        match self {
            CellRef::Int(i) => Some(*i as f64),
            CellRef::Float(f) => Some(*f),
            _ => None,
        }
    }
}

impl<'a> From<&'a Value> for CellRef<'a> {
    fn from(v: &'a Value) -> Self {
        CellRef::from_value(v)
    }
}

impl PartialEq for CellRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (CellRef::Null, CellRef::Null) => true,
            (CellRef::Bool(a), CellRef::Bool(b)) => a == b,
            (CellRef::Int(a), CellRef::Int(b)) => a == b,
            (CellRef::Float(a), CellRef::Float(b)) => {
                Value::canonical_float_bits(*a) == Value::canonical_float_bits(*b)
            }
            (CellRef::Int(a), CellRef::Float(b)) | (CellRef::Float(b), CellRef::Int(a)) => {
                (*a as f64) == *b
            }
            (CellRef::Str(a), CellRef::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for CellRef<'_> {}

impl Hash for CellRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            CellRef::Null => state.write_u8(0),
            CellRef::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            CellRef::Int(i) => Value::hash_numeric(*i as f64, state),
            CellRef::Float(f) => Value::hash_numeric(*f, state),
            CellRef::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
}

impl PartialOrd for CellRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CellRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (CellRef::Null, CellRef::Null) => Ordering::Equal,
            (CellRef::Bool(a), CellRef::Bool(b)) => a.cmp(b),
            (CellRef::Int(a), CellRef::Int(b)) => a.cmp(b),
            (CellRef::Str(a), CellRef::Str(b)) => a.cmp(b),
            (a, b) if a.type_rank() == 2 && b.type_rank() == 2 => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                x.partial_cmp(&y).unwrap_or_else(|| {
                    Value::canonical_float_bits(x).cmp(&Value::canonical_float_bits(y))
                })
            }
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::BuildHasher;

    fn vh(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    fn ch(c: &CellRef<'_>) -> u64 {
        let mut s = DefaultHasher::new();
        c.hash(&mut s);
        s.finish()
    }

    #[test]
    fn bitmap_push_get_count() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        assert!(b.get(0) && !b.get(1) && b.get(129));
        assert_eq!(b.count_valid(), (0..130).filter(|i| i % 3 == 0).count());
        assert!(!b.all_valid());
    }

    #[test]
    fn all_set_bitmap_equals_pushing_true() {
        for len in [0, 1, 63, 64, 65, 130] {
            let mut pushed = Bitmap::new();
            for _ in 0..len {
                pushed.push(true);
            }
            assert_eq!(Bitmap::all_set(len), pushed, "len {len}");
        }
        let c = Column::from_ints(vec![7, -1]);
        assert_eq!(c.value(1), Value::Int(-1));
        assert!(!c.is_null(0));
    }

    #[test]
    fn push_establishes_type_and_backfills_nulls() {
        let mut c = Column::new();
        c.push(Value::Null);
        c.push(Value::Null);
        assert_eq!(c.repr_name(), "null");
        c.push(Value::Int(7));
        assert_eq!(c.repr_name(), "int");
        assert_eq!(c.value(0), Value::Null);
        assert_eq!(c.value(2), Value::Int(7));
    }

    #[test]
    fn mismatched_type_demotes_to_mixed_and_round_trips() {
        let mut c = Column::from_values([Value::Int(1), Value::Null]);
        c.push(Value::str("x"));
        assert_eq!(c.repr_name(), "mixed");
        assert_eq!(c.value(0), Value::Int(1));
        assert!(c.value(1).is_null());
        assert_eq!(c.value(2), Value::str("x"));
    }

    #[test]
    fn int_column_does_not_widen_to_float() {
        let mut c = Column::from_values([Value::Int(1)]);
        c.push(Value::Float(2.5));
        assert_eq!(c.repr_name(), "mixed");
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::Float(2.5));
    }

    #[test]
    fn gather_repeats_and_reorders() {
        let c = Column::from_values([Value::Int(10), Value::Null, Value::Int(30)]);
        let g = c.gather(&[2, 2, 0, 1]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.value(0), Value::Int(30));
        assert_eq!(g.value(2), Value::Int(10));
        assert!(g.value(3).is_null());
    }

    #[test]
    fn append_reconciles_representations() {
        // typed ← null
        let mut c = Column::from_values([Value::Int(1)]);
        c.append(&Column::null(2));
        assert_eq!(c.len(), 3);
        assert!(c.value(2).is_null());
        // null ← typed
        let mut n = Column::null(1);
        n.append(&Column::from_values([Value::str("a")]));
        assert_eq!(n.repr_name(), "str");
        assert!(n.value(0).is_null());
        assert_eq!(n.value(1), Value::str("a"));
        // mismatched typed → mixed
        let mut m = Column::from_values([Value::Int(1)]);
        m.append(&Column::from_values([Value::Bool(true)]));
        assert_eq!(m.repr_name(), "mixed");
        assert_eq!(m.value(1), Value::Bool(true));
    }

    #[test]
    fn cellref_mirrors_value_eq_hash_ord() {
        let pairs = [
            (Value::Int(3), Value::Float(3.0)),
            (Value::Float(0.0), Value::Float(-0.0)),
            (Value::Float(f64::NAN), Value::Float(f64::NAN)),
            (Value::str("a"), Value::str("a")),
            (Value::Null, Value::Null),
            (Value::Int(3), Value::Float(3.5)),
            (Value::Bool(true), Value::Int(1)),
            (Value::Null, Value::Int(0)),
        ];
        for (a, b) in &pairs {
            let (ca, cb) = (CellRef::from_value(a), CellRef::from_value(b));
            assert_eq!(a == b, ca == cb, "{a:?} vs {b:?}");
            assert_eq!(a.cmp(b), ca.cmp(&cb), "{a:?} vs {b:?}");
            if ca == cb {
                assert_eq!(ch(&ca), ch(&cb), "{a:?} vs {b:?}");
                // ...and agrees with Value's own hash equivalence.
                assert_eq!(vh(a), vh(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn integer_key_rows_spread_over_the_buckets() {
        // A one-cell `Cells` key, as the multi-key hash join and group-by
        // hash it; a table buckets by the low bits.
        let fx = |i: i64| gsj_common::FxBuildHasher::default().hash_one(vec![CellRef::Int(i)]);
        for ints in [0..100_000, -50_000..50_000] {
            let low: gsj_common::FxHashSet<u64> = ints.clone().map(|i| fx(i) & 0xffff).collect();
            assert!(low.len() >= 40_000, "{ints:?}: {} patterns", low.len());
        }
    }

    #[test]
    fn approx_bytes_tracks_payloads() {
        let ints = Column::from_values((0..10).map(Value::Int));
        assert!(ints.approx_bytes() >= 80);
        let strs = Column::from_values([Value::str("hello"), Value::str("world!")]);
        assert!(strs.approx_bytes() >= 32 + 11);
        assert_eq!(Column::null(16).approx_bytes(), 2);
    }
}
