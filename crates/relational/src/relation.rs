//! Relations: a schema plus a bag of tuples, stored columnar.
//!
//! A relation *is* its columns: one [`Column`] per attribute (typed
//! vectors + validity bitmaps, see [`crate::column`]) behind an `Arc`,
//! plus a row count — there is no second, row-oriented copy. Kernels
//! read cells ([`Relation::col`] + [`Column::cell`]) and materialize
//! output by index vectors + [`Relation::gather`] /
//! [`Relation::gather_concat`]; consumers that want a whole row ask for
//! it ([`Relation::row`], [`Relation::rows`]) and get a fresh [`Tuple`]
//! that the relation does not keep.

use crate::column::{CellRef, Column};
use crate::schema::Schema;
use crate::tuple::Tuple;
use gsj_common::{GsjError, Result, Value};
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// A relation instance (bag semantics, like SQL).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    /// One column per schema attribute. `Arc` so projections, aliasing
    /// and appended-column joins share payloads instead of cloning.
    cols: Vec<Arc<Column>>,
    /// Row count (columns are kept equal-length invariantly; an arity-0
    /// schema still needs an explicit count).
    len: usize,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        if self.schema != other.schema || self.len != other.len {
            return false;
        }
        self.cols
            .iter()
            .zip(&other.cols)
            .all(|(a, b)| Arc::ptr_eq(a, b) || (0..self.len).all(|i| a.cell(i) == b.cell(i)))
    }
}

impl Relation {
    /// An empty relation of the given schema.
    pub fn empty(schema: Schema) -> Self {
        let cols = (0..schema.arity())
            .map(|_| Arc::new(Column::new()))
            .collect();
        Relation {
            schema,
            cols,
            len: 0,
        }
    }

    /// Build from tuples; every tuple must match the schema arity.
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Result<Self> {
        if let Some(bad) = tuples.iter().find(|t| t.arity() != schema.arity()) {
            return Err(GsjError::Schema(format!(
                "tuple arity {} does not match schema `{}` arity {}",
                bad.arity(),
                schema.name(),
                schema.arity()
            )));
        }
        let arity = schema.arity();
        let len = tuples.len();
        let mut builders: Vec<Column> = (0..arity).map(|_| Column::new()).collect();
        for t in tuples {
            for (c, v) in builders.iter_mut().zip(t.into_values()) {
                c.push(v);
            }
        }
        Ok(Relation {
            schema,
            cols: builders.into_iter().map(Arc::new).collect(),
            len,
        })
    }

    /// Build directly from shared columns — the fast path used by the
    /// vectorized kernels. All columns must have the same length.
    pub fn from_shared_columns(schema: Schema, cols: Vec<Arc<Column>>, len: usize) -> Result<Self> {
        if cols.len() != schema.arity() {
            return Err(GsjError::Schema(format!(
                "{} columns do not match schema `{}` arity {}",
                cols.len(),
                schema.name(),
                schema.arity()
            )));
        }
        if let Some(bad) = cols.iter().find(|c| c.len() != len) {
            return Err(GsjError::Schema(format!(
                "column length {} does not match relation length {len}",
                bad.len()
            )));
        }
        Ok(Relation { schema, cols, len })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The columns (one per schema attribute, in order).
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.cols
    }

    /// Column `i`.
    pub fn col(&self, i: usize) -> &Column {
        &self.cols[i]
    }

    /// Cell at (`row`, `col`) as an owned value.
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.cols[col].value(row)
    }

    /// Row `i` materialized as a tuple.
    pub fn row(&self, i: usize) -> Tuple {
        Tuple::new(self.cols.iter().map(|c| c.value(i)).collect())
    }

    /// Every row in order, each materialized on demand; nothing is kept.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Tuple> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a tuple, checking arity.
    pub fn push(&mut self, t: Tuple) -> Result<()> {
        if t.arity() != self.schema.arity() {
            return Err(GsjError::Schema(format!(
                "tuple arity {} does not match schema `{}` arity {}",
                t.arity(),
                self.schema.name(),
                self.schema.arity()
            )));
        }
        for (c, v) in self.cols.iter_mut().zip(t.into_values()) {
            Arc::make_mut(c).push(v);
        }
        self.len += 1;
        Ok(())
    }

    /// Push raw values.
    pub fn push_values(&mut self, values: Vec<Value>) -> Result<()> {
        self.push(Tuple::new(values))
    }

    /// Append every row of `other` (schemas must have equal arity; the
    /// caller is responsible for attribute compatibility, as `UNION`'s
    /// planner already checked it).
    pub fn append_rows(&mut self, other: &Relation) -> Result<()> {
        if other.schema.arity() != self.schema.arity() {
            return Err(GsjError::Schema(format!(
                "cannot append arity {} rows to arity {} relation",
                other.schema.arity(),
                self.schema.arity()
            )));
        }
        if other.is_empty() {
            return Ok(());
        }
        if self.is_empty() {
            self.cols = other.cols.clone();
        } else {
            for (c, o) in self.cols.iter_mut().zip(&other.cols) {
                Arc::make_mut(c).append(o);
            }
        }
        self.len += other.len;
        Ok(())
    }

    /// The relation restricted to the given row indices, in order
    /// (indices may repeat).
    pub fn gather(&self, idx: &[u32]) -> Relation {
        Relation {
            schema: self.schema.clone(),
            cols: self.cols.iter().map(|c| Arc::new(c.gather(idx))).collect(),
            len: idx.len(),
        }
    }

    /// The first `n` rows (whole relation shared when `n >= len`).
    pub fn head(&self, n: usize) -> Relation {
        if n >= self.len {
            return self.clone();
        }
        let idx: Vec<u32> = (0..n as u32).collect();
        self.gather(&idx)
    }

    /// Concatenate gathered rows of two relations side by side: row `r`
    /// of the output is `l[l_idx[r]] ++ r[r_idx[r]]`, keeping only the
    /// right columns in `r_keep` (all of them when `None`). This is the
    /// join materialization kernel — columns are gathered wholesale,
    /// never row by row.
    pub fn gather_concat(
        left: &Relation,
        l_idx: &[u32],
        right: &Relation,
        r_idx: &[u32],
        r_keep: Option<&[usize]>,
        schema: Schema,
    ) -> Result<Relation> {
        debug_assert_eq!(l_idx.len(), r_idx.len());
        let mut cols: Vec<Arc<Column>> = Vec::with_capacity(schema.arity());
        for c in &left.cols {
            cols.push(Arc::new(c.gather(l_idx)));
        }
        match r_keep {
            Some(keep) => {
                for &j in keep {
                    cols.push(Arc::new(right.cols[j].gather(r_idx)));
                }
            }
            None => {
                for c in &right.cols {
                    cols.push(Arc::new(c.gather(r_idx)));
                }
            }
        }
        Relation::from_shared_columns(schema, cols, l_idx.len())
    }

    /// One column's values, by attribute name.
    pub fn column(&self, attr: &str) -> Result<Vec<Value>> {
        let i = self.schema.require(attr)?;
        Ok((0..self.len).map(|r| self.cols[i].value(r)).collect())
    }

    /// Replace the schema name/alias, qualifying attribute names
    /// (`SQL: R as T`). Shares the columns — no data is copied.
    pub fn qualified(&self, alias: &str) -> Relation {
        Relation {
            schema: self.schema.qualify(alias),
            cols: self.cols.clone(),
            len: self.len,
        }
    }

    /// `π`: the columns at `positions`, in that order, under `names`
    /// (positions may repeat; names must be distinct). Shares the
    /// columns — no data is copied.
    pub fn project(&self, positions: &[usize], names: Vec<String>) -> Result<Relation> {
        let schema = Schema::new(self.schema.name().to_string(), names)?;
        let cols = positions.iter().map(|&i| self.cols[i].clone()).collect();
        Relation::from_shared_columns(schema, cols, self.len)
    }

    /// Approximate heap bytes held by the column payloads — the whole
    /// footprint of the relation, and the number the governor's memory
    /// budget charges.
    pub fn approx_bytes(&self) -> u64 {
        self.cols.iter().map(|c| c.approx_bytes()).sum()
    }

    /// Parse a relation from CSV text (header row = attribute names;
    /// RFC-4180-style quoting; empty cells = NULL; cell types inferred
    /// via [`Value::parse_infer`]).
    pub fn from_csv(name: &str, csv: &str) -> Result<Relation> {
        fn split_line(line: &str) -> Vec<String> {
            let mut cells = Vec::new();
            let mut cur = String::new();
            let mut chars = line.chars().peekable();
            let mut quoted = false;
            while let Some(c) = chars.next() {
                match c {
                    '"' if quoted => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            cur.push('"');
                        } else {
                            quoted = false;
                        }
                    }
                    '"' if cur.is_empty() => quoted = true,
                    ',' if !quoted => {
                        cells.push(std::mem::take(&mut cur));
                    }
                    c => cur.push(c),
                }
            }
            cells.push(cur);
            cells
        }
        let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| GsjError::Parse("empty CSV".into()))?;
        let attrs: Vec<String> = split_line(header);
        let schema = Schema::new(name.to_string(), attrs)?;
        let mut rel = Relation::empty(schema);
        for (lineno, line) in lines.enumerate() {
            let cells = split_line(line);
            if cells.len() != rel.schema().arity() {
                return Err(GsjError::Parse(format!(
                    "CSV row {} has {} cells, expected {}",
                    lineno + 2,
                    cells.len(),
                    rel.schema().arity()
                )));
            }
            rel.push_values(cells.iter().map(|c| Value::parse_infer(c)).collect())?;
        }
        Ok(rel)
    }

    /// Render as CSV (RFC-4180-style quoting; NULL cells are empty).
    ///
    /// One pre-sized `String`, written cell by cell off borrowed cells:
    /// strings are pushed as they are (quoted when they hold `,`, `"`,
    /// `\n` or `\r`), integers are formatted in place, and every other
    /// cell is `Value`'s `Display`, which never needs quoting.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(CSV_CELL_GUESS * (self.len + 1) * self.cols.len());
        for (i, a) in self.schema.attrs().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_csv_field(&mut out, a);
        }
        out.push('\n');
        for r in 0..self.len {
            for (i, c) in self.cols.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                // Writing into a `String` cannot fail.
                match c.cell(r) {
                    CellRef::Null => {}
                    CellRef::Str(s) => push_csv_field(&mut out, s),
                    CellRef::Int(v) => {
                        let _ = write!(out, "{v}");
                    }
                    other => {
                        let _ = write!(out, "{}", other.to_value());
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as an aligned text table (for examples and experiment
    /// binaries).
    pub fn to_table(&self) -> String {
        let headers: Vec<&str> = self.schema.attrs().iter().map(|s| s.as_str()).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rows: Vec<Vec<String>> = (0..self.len)
            .map(|r| self.cols.iter().map(|c| c.value(r).to_string()).collect())
            .collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
        out.push_str(&fmt_row(&header_cells, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Bytes [`Relation::to_csv`] reserves per cell up front.
const CSV_CELL_GUESS: usize = 8;

/// Append one CSV field, quoted (with `"` doubled) when it holds a
/// separator, a quote, or a line break — `\r` included, which every
/// `lines()`-based reader would otherwise strip from the row's end.
fn push_csv_field(out: &mut String, s: &str) {
    if !s.bytes().any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r')) {
        out.push_str(s);
        return;
    }
    out.push('"');
    for ch in s.chars() {
        if ch == '"' {
            out.push('"');
        }
        out.push(ch);
    }
    out.push('"');
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}) [{} tuples]",
            self.schema.name(),
            self.schema.attrs().join(", "),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn product() -> Relation {
        let mut r = Relation::empty(Schema::of("product", &["pid", "risk"]));
        r.push_values(vec![Value::str("fd1"), Value::str("medium")])
            .unwrap();
        r.push_values(vec![Value::str("fd2"), Value::str("high")])
            .unwrap();
        r
    }

    #[test]
    fn push_checks_arity() {
        let mut r = product();
        assert!(r.push_values(vec![Value::Int(1)]).is_err());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn column_extraction() {
        let r = product();
        assert_eq!(
            r.column("risk").unwrap(),
            vec![Value::str("medium"), Value::str("high")]
        );
        assert!(r.column("absent").is_err());
    }

    #[test]
    fn qualified_renames_attrs() {
        let r = product().qualified("T");
        assert_eq!(
            r.schema().attrs(),
            &["T.pid".to_string(), "T.risk".to_string()]
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn table_rendering_contains_cells() {
        let text = product().to_table();
        assert!(text.contains("pid") && text.contains("fd2") && text.contains("medium"));
    }

    #[test]
    fn csv_rendering_quotes_and_nulls() {
        let mut r = Relation::empty(Schema::of("t", &["a", "b"]));
        r.push_values(vec![Value::str("x,y"), Value::Null]).unwrap();
        r.push_values(vec![Value::str("quo\"te"), Value::Int(3)])
            .unwrap();
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "\"x,y\",");
        assert_eq!(lines[2], "\"quo\"\"te\",3");
    }

    /// The renderer `to_csv` replaced: a `String` per cell and per row,
    /// quoting on `,`, `"` and `\n` only.
    fn to_csv_per_cell(r: &Relation) -> String {
        let quote = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &r.schema
                .attrs()
                .iter()
                .map(|a| quote(a))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for i in 0..r.len {
            let row: Vec<String> = r
                .cols
                .iter()
                .map(|c| {
                    let cell = c.cell(i);
                    if cell.is_null() {
                        String::new()
                    } else {
                        quote(&cell.to_value().to_string())
                    }
                })
                .collect();
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    #[test]
    fn csv_is_byte_identical_to_the_per_cell_renderer() {
        let rows = [
            [
                Value::Null,
                Value::Bool(true),
                Value::Int(i64::MIN),
                Value::Int(1),
                Value::Float(-0.0),
                Value::str("a,b"),
            ],
            [
                Value::Null,
                Value::Null,
                Value::Int(0),
                Value::str("s\"q"),
                Value::Float(f64::NAN),
                Value::str(""),
            ],
            [
                Value::Null,
                Value::Bool(false),
                Value::Null,
                Value::Bool(true),
                Value::Float(f64::INFINITY),
                Value::Null,
            ],
            [
                Value::Null,
                Value::Null,
                Value::Int(-42),
                Value::Float(2.5),
                Value::Float(f64::NEG_INFINITY),
                Value::str("two\nlines"),
            ],
            [
                Value::Null,
                Value::Bool(false),
                Value::Int(i64::MAX),
                Value::Null,
                Value::Float(1e21),
                Value::str("say \"hi\", then go"),
            ],
            [
                Value::Null,
                Value::Null,
                Value::Int(7),
                Value::str("plain"),
                Value::Float(1e-7),
                Value::str("plain"),
            ],
        ];
        let schema = Schema::of(
            "kinds",
            &["nothing", "flag", "n", "mixed", "x,y", "say \"s\""],
        );
        let mut r = Relation::empty(schema.clone());
        for row in rows {
            r.push_values(row.to_vec()).unwrap();
        }
        let reprs: Vec<&str> = r.columns().iter().map(|c| c.repr_name()).collect();
        assert_eq!(reprs, ["null", "bool", "int", "mixed", "float", "str"]);
        assert_eq!(r.to_csv(), to_csv_per_cell(&r));
        // `""` next to NULL: a present empty string and a NULL both
        // render as an empty field.
        assert!(r.to_csv().lines().nth(2).unwrap().ends_with(','));
        // Zero rows: the header alone.
        let empty = Relation::empty(schema);
        assert_eq!(empty.to_csv(), to_csv_per_cell(&empty));
        assert_eq!(
            empty.to_csv(),
            "nothing,flag,n,mixed,\"x,y\",\"say \"\"s\"\"\"\n"
        );
    }

    #[test]
    fn csv_quotes_a_carriage_return() {
        let mut r = Relation::empty(Schema::of("t", &["a", "b"]));
        r.push_values(vec![Value::str("x\r"), Value::Int(1)])
            .unwrap();
        assert_eq!(r.to_csv(), "a,b\n\"x\r\",1\n");
        // The one byte difference from the per-cell renderer.
        assert_eq!(to_csv_per_cell(&r), "a,b\nx\r,1\n");
    }

    #[test]
    fn csv_round_trip() {
        let mut r = Relation::empty(Schema::of("t", &["id", "name", "score"]));
        r.push_values(vec![Value::Int(1), Value::str("a,b"), Value::Float(0.5)])
            .unwrap();
        r.push_values(vec![Value::Int(2), Value::Null, Value::Int(7)])
            .unwrap();
        let parsed = Relation::from_csv("t", &r.to_csv()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.value_at(0, 1), Value::str("a,b"));
        assert!(parsed.col(1).is_null(1));
        assert_eq!(parsed.value_at(0, 2), Value::Float(0.5));
    }

    #[test]
    fn csv_rejects_ragged_rows() {
        assert!(Relation::from_csv("t", "a,b\n1\n").is_err());
        assert!(Relation::from_csv("t", "").is_err());
    }

    #[test]
    fn new_validates_all_tuples() {
        let bad = Relation::new(
            Schema::of("x", &["a"]),
            vec![Tuple::new(vec![Value::Int(1), Value::Int(2)])],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn push_is_visible_to_the_next_rows_read() {
        let mut r = product();
        assert_eq!(r.rows().len(), 2);
        r.push_values(vec![Value::str("fd3"), Value::str("low")])
            .unwrap();
        assert_eq!(r.rows().len(), 3);
        assert_eq!(r.rows().last().unwrap().get(0), &Value::str("fd3"));
        r.append_rows(&product()).unwrap();
        assert_eq!(r.rows().nth(4).unwrap(), product().row(1));
    }

    #[test]
    fn mixed_and_null_columns_round_trip_through_rows() {
        let mut r = Relation::empty(Schema::of("t", &["a", "b"]));
        r.push_values(vec![Value::Int(1), Value::Null]).unwrap();
        r.push_values(vec![Value::str("s"), Value::Null]).unwrap();
        r.push_values(vec![Value::Null, Value::Null]).unwrap();
        assert_eq!(r.col(0).repr_name(), "mixed");
        assert_eq!(r.col(1).repr_name(), "null");
        let back = Relation::new(r.schema().clone(), r.rows().collect()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn gather_and_head_share_semantics_with_rows() {
        let r = product();
        let g = r.gather(&[1, 0, 1]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.value_at(0, 0), Value::str("fd2"));
        assert_eq!(g.value_at(1, 0), Value::str("fd1"));
        let h = r.head(1);
        assert_eq!(h.len(), 1);
        assert_eq!(h.value_at(0, 1), Value::str("medium"));
    }

    #[test]
    fn append_rows_merges_columns() {
        let mut a = product();
        let b = product();
        a.append_rows(&b).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.value_at(3, 0), Value::str("fd2"));
    }

    #[test]
    fn approx_bytes_reflects_payloads() {
        let r = product();
        // Two rows of two string columns: well above zero, far below the
        // old 32-bytes-per-cell flat estimate × large factor.
        assert!(r.approx_bytes() > 0);
        let empty = Relation::empty(Schema::of("e", &["a"]));
        assert_eq!(empty.approx_bytes(), 0);
    }
}
