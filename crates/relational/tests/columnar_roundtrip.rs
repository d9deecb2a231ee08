//! Property tests for the columnar ↔ row-view round trip.
//!
//! `Relation` stores typed column vectors with validity bitmaps and
//! nothing else; rows are materialized on demand by `rows()`. These
//! properties pin the contract: any sequence of rows — homogeneous,
//! mixed-type, or null-riddled — survives `Relation::new` → `rows()` →
//! `Relation::new` unchanged, and `Value::Null` maps exactly onto the
//! validity bitmap.

use gsj_common::Value;
use gsj_relational::{Relation, Schema, Tuple};
use proptest::prelude::*;

const MAX_ROWS: usize = 24;
const MAX_ARITY: usize = 4;
const CELLS: usize = MAX_ROWS * MAX_ARITY;

/// Raw generated material a test case draws cells from. The vendored
/// proptest offers ranges/vecs/patterns only, so values are assembled
/// from parallel pools indexed by cell position.
struct Pool {
    tags: Vec<u8>,
    ints: Vec<i64>,
    floats: Vec<f64>,
    strs: Vec<String>,
}

impl Pool {
    /// Cell for a homogeneous column of type family `kind` (0 = int,
    /// 1 = float, 2 = bool, 3 = str, 4 = all-null). `tag == 0` makes any
    /// cell null; tags 1/2 pick the awkward floats -0.0 and 0.0, which
    /// are distinct bit patterns that compare equal.
    fn typed_cell(&self, kind: u8, idx: usize) -> Value {
        let tag = self.tags[idx];
        if tag == 0 || kind == 4 {
            return Value::Null;
        }
        match kind {
            0 => Value::Int(self.ints[idx]),
            1 => match tag {
                1 => Value::Float(-0.0),
                2 => Value::Float(0.0),
                _ => Value::Float(self.floats[idx]),
            },
            2 => Value::Bool(self.ints[idx] & 1 == 0),
            _ => Value::str(self.strs[idx].clone()),
        }
    }

    /// Cell with a per-cell type: heterogeneous columns that exercise the
    /// `Mixed` fallback representation.
    fn mixed_cell(&self, idx: usize) -> Value {
        self.typed_cell(self.tags[idx] % 4, (idx + 1) % CELLS)
    }
}

/// Build the per-column grid: `cols[c][r]` for `arity` homogeneous columns.
fn typed_grid(pool: &Pool, kinds: &[u8], rows: usize, arity: usize) -> Vec<Vec<Value>> {
    (0..arity)
        .map(|c| {
            (0..rows)
                .map(|r| pool.typed_cell(kinds[c], c * MAX_ROWS + r))
                .collect()
        })
        .collect()
}

fn grid_to_tuples(cols: &[Vec<Value>], rows: usize) -> Vec<Tuple> {
    (0..rows)
        .map(|r| Tuple::new(cols.iter().map(|c| c[r].clone()).collect()))
        .collect()
}

fn schema(arity: usize) -> Schema {
    let names: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    Schema::of("t", &refs)
}

proptest! {
    /// Typed columns with interleaved nulls: rows → columns → rows is the
    /// identity, in both directions.
    #[test]
    fn typed_columns_round_trip(
        rows in 0usize..24,
        arity in 1usize..4,
        kinds in prop::collection::vec(0u8..5, MAX_ARITY),
        tags in prop::collection::vec(0u8..12, CELLS),
        ints in prop::collection::vec(-1_000_000_000i64..1_000_000_000, CELLS),
        floats in prop::collection::vec(-1e9f64..1e9, CELLS),
        strs in prop::collection::vec("[a-z]{0,6}", CELLS),
    ) {
        let pool = Pool { tags, ints, floats, strs };
        let cols = typed_grid(&pool, &kinds, rows, arity);
        let tuples = grid_to_tuples(&cols, rows);
        let rel = Relation::new(schema(arity), tuples.clone()).unwrap();
        prop_assert_eq!(rel.len(), rows);
        let back: Vec<Tuple> = rel.rows().collect();
        prop_assert_eq!(&back, &tuples);
        // And back in again — the reverse direction.
        let rel2 = Relation::new(rel.schema().clone(), back).unwrap();
        prop_assert_eq!(rel2.rows().collect::<Vec<_>>(), tuples);
    }

    /// Heterogeneous per-cell types (the `Mixed` fallback) round trip
    /// identically, and float bit patterns survive storage: -0.0 comes
    /// back as -0.0, not normalized to 0.0.
    #[test]
    fn mixed_columns_round_trip(
        rows in 0usize..24,
        arity in 1usize..4,
        tags in prop::collection::vec(0u8..12, CELLS),
        ints in prop::collection::vec(-1_000_000_000i64..1_000_000_000, CELLS),
        floats in prop::collection::vec(-1e9f64..1e9, CELLS),
        strs in prop::collection::vec("[a-z]{0,6}", CELLS),
    ) {
        let pool = Pool { tags, ints, floats, strs };
        let cols: Vec<Vec<Value>> = (0..arity)
            .map(|c| (0..rows).map(|r| pool.mixed_cell(c * MAX_ROWS + r)).collect())
            .collect();
        let tuples = grid_to_tuples(&cols, rows);
        let rel = Relation::new(schema(arity), tuples.clone()).unwrap();
        prop_assert_eq!(&rel.rows().collect::<Vec<_>>(), &tuples);
        for (r, t) in tuples.iter().enumerate() {
            for c in 0..arity {
                // Bit-level float preservation, stricter than Value eq.
                if let (Value::Float(a), Value::Float(b)) = (t.get(c), &rel.value_at(r, c)) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    /// Null cells and only null cells are invalid in the bitmap: the
    /// column-level `is_null` agrees with the row view everywhere.
    #[test]
    fn nulls_map_onto_validity_bitmap(
        rows in 1usize..24,
        arity in 1usize..4,
        kinds in prop::collection::vec(0u8..5, MAX_ARITY),
        tags in prop::collection::vec(0u8..12, CELLS),
        ints in prop::collection::vec(-1_000_000_000i64..1_000_000_000, CELLS),
        floats in prop::collection::vec(-1e9f64..1e9, CELLS),
        strs in prop::collection::vec("[a-z]{0,6}", CELLS),
    ) {
        let pool = Pool { tags, ints, floats, strs };
        let cols = typed_grid(&pool, &kinds, rows, arity);
        let rel = Relation::new(schema(arity), grid_to_tuples(&cols, rows)).unwrap();
        for (c, col_vals) in cols.iter().enumerate() {
            for (r, v) in col_vals.iter().enumerate() {
                prop_assert_eq!(
                    rel.col(c).is_null(r),
                    matches!(v, Value::Null),
                    "cell ({}, {}) null status diverged", r, c
                );
            }
        }
    }

    /// Building a relation row-by-row with `push` yields the same relation
    /// (cell-wise equality) and the same rows as bulk construction, and
    /// every push is visible to the very next read.
    #[test]
    fn push_matches_bulk_construction(
        rows in 0usize..24,
        arity in 1usize..4,
        kinds in prop::collection::vec(0u8..5, MAX_ARITY),
        tags in prop::collection::vec(0u8..12, CELLS),
        ints in prop::collection::vec(-1_000_000_000i64..1_000_000_000, CELLS),
        floats in prop::collection::vec(-1e9f64..1e9, CELLS),
        strs in prop::collection::vec("[a-z]{0,6}", CELLS),
    ) {
        let pool = Pool { tags, ints, floats, strs };
        let cols = typed_grid(&pool, &kinds, rows, arity);
        let tuples = grid_to_tuples(&cols, rows);
        let bulk = Relation::new(schema(arity), tuples.clone()).unwrap();
        let mut incremental = Relation::empty(schema(arity));
        for (i, t) in tuples.iter().enumerate() {
            // Interleave reads with writes: each read sees exactly the
            // rows pushed so far.
            prop_assert_eq!(incremental.rows().collect::<Vec<_>>(), &tuples[..i]);
            incremental.push(t.clone()).unwrap();
        }
        prop_assert_eq!(&incremental, &bulk);
        prop_assert_eq!(incremental.rows().collect::<Vec<_>>(), tuples);
    }
}
