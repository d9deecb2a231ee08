//! Relations: a schema plus a bag of tuples, stored columnar.
//!
//! A relation *is* its columns: one [`ColumnSlot`] per attribute plus a
//! row count — there is no second, row-oriented copy. A slot either
//! holds its cells (a [`Column`]: typed vectors + validity bitmaps, see
//! [`crate::column`]) or defers them: a stored source column plus a
//! shared row-index vector, row `r` being the source's row `idx[r]`.
//!
//! Every gather defers ([`Relation::gather`], [`Relation::gather_concat`],
//! [`Relation::head`]): it copies no cell, only builds (or composes) index
//! vectors, so a deferred slot is never more than one level deep. Cells
//! are read through the index ([`Relation::cell`], [`Relation::value_at`],
//! [`Relation::to_csv`]) and move in two places only: a kernel that
//! matches on a whole [`Column`] asks for it ([`Relation::col_governed`],
//! charging the governor; [`Relation::col`] outside a query), which
//! gathers that one column once and keeps it, and a relation that is
//! kept beyond a query is stored ([`Relation::materialized`]), sharing
//! the columns a kernel already gathered. Consumers that want a whole row
//! ask for it ([`Relation::row`], [`Relation::rows`]) and get a fresh
//! [`Tuple`] that the relation does not keep.

use crate::column::{CellRef, Column};
use crate::schema::Schema;
use crate::tuple::Tuple;
use gsj_common::{GsjError, QueryGovernor, Result, Value};
use std::fmt::{self, Write as _};
use std::sync::{Arc, OnceLock};

/// One attribute's cells in a [`Relation`]: stored, or a deferred gather
/// of a stored column (see the module docs). Cheap to clone; clones share
/// the cells, the index vector and the gathered column.
#[derive(Debug, Clone)]
pub struct ColumnSlot(Slot);

#[derive(Debug, Clone)]
enum Slot {
    Stored(Arc<Column>),
    Deferred(Arc<Deferred>),
}

/// A shared row-index vector.
type RowIds = Arc<[u32]>;

/// Row `r` is `src`'s row `idx[r]`; `gathered` holds the cells once a
/// kernel asked for the whole column.
#[derive(Debug)]
struct Deferred {
    src: Arc<Column>,
    idx: RowIds,
    gathered: OnceLock<Arc<Column>>,
}

impl From<Column> for ColumnSlot {
    fn from(c: Column) -> Self {
        ColumnSlot(Slot::Stored(Arc::new(c)))
    }
}

impl ColumnSlot {
    fn deferred(src: Arc<Column>, idx: RowIds) -> Self {
        ColumnSlot(Slot::Deferred(Arc::new(Deferred {
            src,
            idx,
            gathered: OnceLock::new(),
        })))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.0 {
            Slot::Stored(c) => c.len(),
            Slot::Deferred(d) => d.idx.len(),
        }
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `r` as a borrowed cell, read through the index when deferred.
    #[inline]
    pub fn cell(&self, r: usize) -> CellRef<'_> {
        match &self.0 {
            Slot::Stored(c) => c.cell(r),
            Slot::Deferred(d) => d.src.cell(d.idx[r] as usize),
        }
    }

    /// Row `r` as an owned value.
    #[inline]
    pub fn value(&self, r: usize) -> Value {
        match &self.0 {
            Slot::Stored(c) => c.value(r),
            Slot::Deferred(d) => d.src.value(d.idx[r] as usize),
        }
    }

    /// The cells as one [`Column`]. A deferred slot gathers them on the
    /// first call and keeps them.
    pub fn column(&self) -> &Column {
        self.column_gathering().0
    }

    /// The column the cells are stored in and, when deferred, the row
    /// ids into it: row `r` is the column's row `idx[r]`. For kernels that
    /// read a typed column's payloads without gathering them.
    pub(crate) fn parts(&self) -> (&Column, Option<&[u32]>) {
        match &self.0 {
            Slot::Stored(c) => (c, None),
            Slot::Deferred(d) => (&d.src, Some(&d.idx)),
        }
    }

    /// [`ColumnSlot::column`], charging `gov` the gathered cells on the
    /// call that gathers them (and only on that one).
    pub fn column_governed(&self, gov: &QueryGovernor) -> &Column {
        let (c, fresh) = self.column_gathering();
        if fresh {
            gov.charge_mem(c.approx_bytes());
        }
        c
    }

    /// The cells, and whether this call gathered them.
    fn column_gathering(&self) -> (&Column, bool) {
        match &self.0 {
            Slot::Stored(c) => (c, false),
            Slot::Deferred(d) => {
                let mut fresh = false;
                let c = d.gathered.get_or_init(|| {
                    fresh = true;
                    Arc::new(d.src.gather(&d.idx))
                });
                (c, fresh)
            }
        }
    }

    /// This slot with its cells stored: a deferred slot shares the
    /// column a kernel already gathered, or gathers its cells straight
    /// into a new one.
    fn stored(&self) -> ColumnSlot {
        match &self.0 {
            Slot::Stored(_) => self.clone(),
            Slot::Deferred(d) => match d.gathered.get() {
                Some(c) => ColumnSlot(Slot::Stored(c.clone())),
                None => ColumnSlot::from(d.src.gather(&d.idx)),
            },
        }
    }

    /// The stored cells, for appending: a deferred slot is stored first,
    /// a shared one copied.
    fn make_mut(&mut self) -> &mut Column {
        if let Slot::Deferred(_) = self.0 {
            *self = self.stored();
        }
        match &mut self.0 {
            Slot::Stored(c) => Arc::make_mut(c),
            Slot::Deferred(_) => unreachable!("stored above"),
        }
    }
}

/// Defers slots through one index vector: a stored slot shares the
/// vector, a deferred one gets its own vector composed with it — once per
/// distinct vector, so the slots of one earlier gather still share one.
struct Gather<'a> {
    idx: &'a [u32],
    shared: RowIds,
    /// `(earlier vector, it composed with idx)` pairs.
    composed: Vec<(RowIds, RowIds)>,
}

impl<'a> Gather<'a> {
    fn new(idx: &'a [u32]) -> Self {
        Gather {
            idx,
            shared: Arc::from(idx),
            composed: Vec::new(),
        }
    }

    fn slot(&mut self, slot: &ColumnSlot) -> ColumnSlot {
        match &slot.0 {
            Slot::Stored(c) => ColumnSlot::deferred(c.clone(), self.shared.clone()),
            Slot::Deferred(d) => {
                let idx = match self.composed.iter().find(|(k, _)| Arc::ptr_eq(k, &d.idx)) {
                    Some((_, v)) => v.clone(),
                    None => {
                        let v: RowIds = self.idx.iter().map(|&i| d.idx[i as usize]).collect();
                        self.composed.push((d.idx.clone(), v.clone()));
                        v
                    }
                };
                ColumnSlot::deferred(d.src.clone(), idx)
            }
        }
    }
}

/// A relation instance (bag semantics, like SQL).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    /// One slot per schema attribute. Projections, aliasing and gathers
    /// share cells instead of cloning them.
    cols: Vec<ColumnSlot>,
    /// Row count (columns are kept equal-length invariantly; an arity-0
    /// schema still needs an explicit count).
    len: usize,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        if self.schema != other.schema || self.len != other.len {
            return false;
        }
        self.cols.iter().zip(&other.cols).all(|(a, b)| {
            matches!((&a.0, &b.0), (Slot::Stored(x), Slot::Stored(y)) if Arc::ptr_eq(x, y))
                || (0..self.len).all(|i| a.cell(i) == b.cell(i))
        })
    }
}

impl Relation {
    /// An empty relation of the given schema.
    pub fn empty(schema: Schema) -> Self {
        let cols = (0..schema.arity())
            .map(|_| ColumnSlot::from(Column::new()))
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
            cols: builders.into_iter().map(ColumnSlot::from).collect(),
            len,
        })
    }

    /// Build directly from column slots — the fast path used by the
    /// vectorized kernels. All columns must have the same length.
    pub fn from_shared_columns(schema: Schema, cols: Vec<ColumnSlot>, len: usize) -> Result<Self> {
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

    /// The column slots (one per schema attribute, in order).
    pub fn columns(&self) -> &[ColumnSlot] {
        &self.cols
    }

    /// Column `i` as one [`Column`]. A deferred column is gathered on the
    /// first call and kept; prefer [`Relation::cell`] to read a few cells,
    /// and [`Relation::col_governed`] inside a query.
    pub fn col(&self, i: usize) -> &Column {
        self.cols[i].column()
    }

    /// Column `i` as one [`Column`], for kernels that match on its
    /// representation: [`Relation::col`], charging `gov` the cells of a
    /// deferred column on the call that gathers them.
    pub fn col_governed(&self, i: usize, gov: &QueryGovernor) -> &Column {
        self.cols[i].column_governed(gov)
    }

    /// Cell at (`row`, `col`), borrowed.
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> CellRef<'_> {
        self.cols[col].cell(row)
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

    /// Append a tuple, checking arity. Deferred columns are stored first.
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
            c.make_mut().push(v);
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
    /// planner already checked it). Deferred columns are stored first.
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
                c.make_mut().append(o.column());
            }
        }
        self.len += other.len;
        Ok(())
    }

    /// The relation restricted to the given row indices, in order
    /// (indices may repeat). Deferred: no cell is copied.
    pub fn gather(&self, idx: &[u32]) -> Relation {
        let mut g = Gather::new(idx);
        Relation {
            schema: self.schema.clone(),
            cols: self.cols.iter().map(|c| g.slot(c)).collect(),
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
    /// join materialization kernel — it defers every column through the
    /// two index vectors, never row by row and without copying a cell.
    pub fn gather_concat(
        left: &Relation,
        l_idx: &[u32],
        right: &Relation,
        r_idx: &[u32],
        r_keep: Option<&[usize]>,
        schema: Schema,
    ) -> Result<Relation> {
        debug_assert_eq!(l_idx.len(), r_idx.len());
        let mut cols: Vec<ColumnSlot> = Vec::with_capacity(schema.arity());
        let mut lg = Gather::new(l_idx);
        cols.extend(left.cols.iter().map(|c| lg.slot(c)));
        let mut rg = Gather::new(r_idx);
        match r_keep {
            Some(keep) => cols.extend(keep.iter().map(|&j| rg.slot(&right.cols[j]))),
            None => cols.extend(right.cols.iter().map(|c| rg.slot(c))),
        }
        Relation::from_shared_columns(schema, cols, l_idx.len())
    }

    /// The same relation with every column stored: what is kept beyond
    /// a query (a profile's `D_G`, a catalog's relations) is stored this
    /// way, so it never pins the source of a deferred gather.
    pub fn materialized(&self) -> Relation {
        Relation {
            schema: self.schema.clone(),
            cols: self.cols.iter().map(ColumnSlot::stored).collect(),
            len: self.len,
        }
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

    /// Approximate heap bytes the relation holds — the number the
    /// governor's memory budget charges: the payload of every stored
    /// column and every gathered deferred one, plus 4 bytes per row of
    /// each distinct index vector. Cells a deferred column only points
    /// at are not counted: they belong to its source.
    pub fn approx_bytes(&self) -> u64 {
        let mut ids: Vec<&RowIds> = Vec::new();
        let mut bytes = 0;
        for c in &self.cols {
            match &c.0 {
                Slot::Stored(c) => bytes += c.approx_bytes(),
                Slot::Deferred(d) => {
                    if !ids.iter().any(|v| Arc::ptr_eq(v, &d.idx)) {
                        ids.push(&d.idx);
                        bytes += 4 * d.idx.len() as u64;
                    }
                    bytes += d.gathered.get().map_or(0, |c| c.approx_bytes());
                }
            }
        }
        bytes
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
    use crate::expr::{CmpOp, Expr};
    use gsj_common::QueryGovernor;
    use proptest::prelude::*;

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
        let reprs: Vec<&str> = (0..6).map(|i| r.col(i).repr_name()).collect();
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

    /// The gathers the deferred ones replaced: every column copied at
    /// once. The reference of `deferred_chains_equal_the_eager_ones`.
    fn gather_eager(r: &Relation, idx: &[u32]) -> Relation {
        let cols = r.cols.iter().map(|c| c.column().gather(idx).into());
        Relation::from_shared_columns(r.schema.clone(), cols.collect(), idx.len()).unwrap()
    }

    fn gather_concat_eager(
        l: &Relation,
        l_idx: &[u32],
        r: &Relation,
        r_idx: &[u32],
        r_keep: &[usize],
        schema: Schema,
    ) -> Relation {
        let mut cols: Vec<ColumnSlot> = l
            .cols
            .iter()
            .map(|c| c.column().gather(l_idx).into())
            .collect();
        cols.extend(
            r_keep
                .iter()
                .map(|&j| r.cols[j].column().gather(r_idx).into()),
        );
        Relation::from_shared_columns(schema, cols, l_idx.len()).unwrap()
    }

    /// The cell values of each kind the chains draw from, NULL, NaN,
    /// −0.0, `""` and CSV-quoted strings included.
    fn kind_value(kind: usize, pick: u8) -> Value {
        let p = pick as usize % 6;
        match kind {
            0 => Value::Null,
            1 => [Value::Null, Value::Bool(true), Value::Bool(false)][p % 3].clone(),
            2 => [
                Value::Int(0),
                Value::Null,
                Value::Int(-7),
                Value::Int(i64::MAX),
                Value::Int(3),
                Value::Int(3),
            ][p]
                .clone(),
            3 => [
                Value::Float(-0.0),
                Value::Float(f64::NAN),
                Value::Null,
                Value::Float(0.0),
                Value::Float(2.5),
                Value::Float(1e21),
            ][p]
                .clone(),
            4 => [
                Value::str("a"),
                Value::str(""),
                Value::Null,
                Value::str("x,\"y\""),
                Value::str("two\nlines"),
                Value::str("a"),
            ][p]
                .clone(),
            _ => [
                Value::Int(1),
                Value::str("a"),
                Value::Null,
                Value::Float(1.0),
                Value::Bool(true),
                Value::Float(f64::NAN),
            ][p]
                .clone(),
        }
    }

    /// Six columns, one per kind: null, bool, int, float, str, mixed.
    fn kinds_relation(rows: &[Vec<u8>], attrs: &[String]) -> Relation {
        let mut r = Relation::empty(Schema::new("k", attrs.to_vec()).unwrap());
        for row in rows {
            r.push_values((0..6).map(|k| kind_value(k, row[k])).collect())
                .unwrap();
        }
        r
    }

    /// A cell as comparable bits: its type and payload, floats by their
    /// bits (so NaN equals NaN and −0.0 differs from 0.0).
    fn bits(v: &Value) -> (u8, u64, String) {
        match v {
            Value::Null => (0, 0, String::new()),
            Value::Bool(b) => (1, *b as u64, String::new()),
            Value::Int(i) => (2, *i as u64, String::new()),
            Value::Float(f) => (3, f.to_bits(), String::new()),
            Value::Str(s) => (4, 0, s.to_string()),
        }
    }

    #[derive(Debug, Clone)]
    enum Step {
        Gather(Vec<u32>),
        Concat(Vec<(u32, u32)>, Vec<bool>),
        Head(usize),
        Project(Vec<usize>),
        Qualify,
        Filter(usize, u8),
        Sort(usize, bool),
        AppendSelf(Vec<u32>),
        Push([u8; 6]),
    }

    /// A step from drawn numbers: `kind` picks the operation, `a` and
    /// `b` are raw row ids (reduced modulo the length when applied;
    /// repeats and empty vectors included), `x` the scalar knob.
    fn decode(kind: u8, a: &[u32], b: &[u32], x: usize) -> Step {
        match kind {
            0 => Step::Gather(a.to_vec()),
            1 => Step::Concat(
                a.iter().copied().zip(b.iter().copied()).collect(),
                (0..6).map(|j| x >> j & 1 == 1).collect(),
            ),
            2 => Step::Head(x % 8),
            3 => Step::Project(
                std::iter::once(x)
                    .chain(a.iter().take(3).map(|&i| i as usize))
                    .collect(),
            ),
            4 => Step::Qualify,
            5 => Step::Filter(x, (x / 16 % 4) as u8),
            6 => Step::Sort(x, x & 1 == 1),
            7 => Step::AppendSelf(a.to_vec()),
            _ => Step::Push(std::array::from_fn(|j| (x >> j) as u8 ^ j as u8)),
        }
    }

    /// `raw` as row ids of a relation of `len` rows (none when empty).
    fn ids(raw: &[u32], len: usize) -> Vec<u32> {
        if len == 0 {
            return Vec::new();
        }
        raw.iter().map(|&i| i % len as u32).collect()
    }

    /// The filter predicates a chain applies to column `name`.
    fn step_pred(name: &str, kind: u8) -> Expr {
        let col = || Expr::col(name);
        match kind {
            0 => Expr::IsNull(Box::new(col())),
            1 => Expr::Not(Box::new(Expr::IsNull(Box::new(col())))),
            2 => Expr::cmp(CmpOp::Ge, col(), Expr::lit(0i64)),
            _ => Expr::cmp(CmpOp::Eq, col(), Expr::lit("a")),
        }
    }

    /// Apply one step to the deferred relation (through the kernels) and
    /// to the eager one (through the references), side by side.
    fn apply(
        n: usize,
        s: &Step,
        d: Relation,
        e: Relation,
        side: &Relation,
    ) -> (Relation, Relation) {
        let gov = QueryGovernor::unlimited();
        match s {
            Step::Gather(raw) => {
                let idx = ids(raw, d.len());
                (d.gather(&idx), gather_eager(&e, &idx))
            }
            Step::Concat(pairs, keep) => {
                let l: Vec<u32> = pairs.iter().map(|p| p.0).collect();
                let r: Vec<u32> = pairs.iter().map(|p| p.1).collect();
                let (l, r) = (ids(&l, d.len()), ids(&r, side.len()));
                let n_pairs = l.len().min(r.len());
                let (l, r) = (&l[..n_pairs], &r[..n_pairs]);
                let keep: Vec<usize> = (0..6).filter(|&j| keep[j]).collect();
                let names: Vec<String> = (0..6).map(|j| format!("c{n}_{j}")).collect();
                let side = side.project(&[0, 1, 2, 3, 4, 5], names).unwrap();
                let mut attrs = d.schema().attrs().to_vec();
                attrs.extend(keep.iter().map(|&j| side.schema().attrs()[j].clone()));
                let schema = Schema::new("cat", attrs).unwrap();
                (
                    Relation::gather_concat(&d, l, &side, r, Some(&keep), schema.clone()).unwrap(),
                    gather_concat_eager(&e, l, &side, r, &keep, schema),
                )
            }
            Step::Head(k) => {
                let eager = if *k >= e.len() {
                    e.clone()
                } else {
                    gather_eager(&e, &(0..*k as u32).collect::<Vec<_>>())
                };
                (d.head(*k), eager)
            }
            Step::Project(raw) => {
                let pos: Vec<usize> = raw.iter().map(|&p| p % d.schema().arity()).collect();
                let names: Vec<String> = (0..pos.len()).map(|i| format!("p{n}_{i}")).collect();
                (
                    d.project(&pos, names.clone()).unwrap(),
                    e.project(&pos, names).unwrap(),
                )
            }
            Step::Qualify => (d.qualified("Q"), e.qualified("Q")),
            Step::Filter(c, kind) => {
                let name = d.schema().attrs()[c % d.schema().arity()].clone();
                let pred = step_pred(&name, *kind);
                let keep: Vec<u32> = (0..e.len() as u32)
                    .filter(|&i| pred.holds(e.schema(), &e.row(i as usize)).unwrap())
                    .collect();
                let eager = if keep.len() == e.len() {
                    e.clone()
                } else {
                    gather_eager(&e, &keep)
                };
                (crate::exec::filter(d, &pred, &gov).unwrap(), eager)
            }
            Step::Sort(c, desc) => {
                let k = c % d.schema().arity();
                let mut idx: Vec<u32> = (0..e.len() as u32).collect();
                idx.sort_by(|&a, &b| {
                    let o = e.value_at(a as usize, k).cmp(&e.value_at(b as usize, k));
                    if *desc {
                        o.reverse()
                    } else {
                        o
                    }
                });
                let name = d.schema().attrs()[k].clone();
                (
                    crate::exec::sort(d, &[name], *desc, &gov).unwrap(),
                    gather_eager(&e, &idx),
                )
            }
            Step::AppendSelf(raw) => {
                let idx = ids(raw, d.len());
                let (mut d, mut e) = (d, e);
                let (dd, ee) = (d.gather(&idx), gather_eager(&e, &idx));
                d.append_rows(&dd).unwrap();
                e.append_rows(&ee).unwrap();
                (d, e)
            }
            Step::Push(picks) => {
                let arity = d.schema().arity();
                let row: Vec<Value> = (0..arity)
                    .map(|j| kind_value(j % 6, picks[j % 6]))
                    .collect();
                let (mut d, mut e) = (d, e);
                d.push_values(row.clone()).unwrap();
                e.push_values(row).unwrap();
                (d, e)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Chains of gathers, joins, limits, projections, aliases,
        /// filters, sorts, appends and pushes over deferred columns equal
        /// the same chains over columns copied at every step: schema,
        /// every cell's type and bits, CSV bytes, `==`, and — once stored
        /// — the byte count the governor would charge.
        #[test]
        fn deferred_chains_equal_the_eager_ones(
            rows in proptest::collection::vec(proptest::collection::vec(0..6u8, 6), 0..10),
            side_rows in proptest::collection::vec(proptest::collection::vec(0..6u8, 6), 0..6),
            draws in proptest::collection::vec(
                (
                    0..9u8,
                    proptest::collection::vec(0..64u32, 0..9),
                    proptest::collection::vec(0..64u32, 0..9),
                    0..4096usize,
                ),
                1..7,
            ),
        ) {
            let steps: Vec<Step> = draws.iter().map(|(k, a, b, x)| decode(*k, a, b, *x)).collect();
            let attrs: Vec<String> = (0..6).map(|j| format!("a{j}")).collect();
            let base = kinds_relation(&rows, &attrs);
            let side = kinds_relation(&side_rows, &attrs);
            let (mut d, mut e) = (base.clone(), base);
            for (n, s) in steps.iter().enumerate() {
                (d, e) = apply(n, s, d, e, &side);
                prop_assert_eq!(d.schema(), e.schema(), "step {} {:?}", n, s);
                prop_assert_eq!(d.len(), e.len());
                for r in 0..d.len() {
                    for c in 0..d.schema().arity() {
                        prop_assert_eq!(bits(&d.value_at(r, c)), bits(&e.value_at(r, c)));
                        prop_assert_eq!(d.cell(r, c), e.cell(r, c));
                    }
                }
                prop_assert_eq!(d.to_csv(), e.to_csv());
                prop_assert!(d == e);
                let stored = d.materialized();
                for c in 0..d.schema().arity() {
                    prop_assert_eq!(stored.col(c).repr_name(), e.col(c).repr_name());
                    prop_assert_eq!(d.col(c).repr_name(), e.col(c).repr_name());
                }
                prop_assert_eq!(stored.approx_bytes(), e.approx_bytes());
            }
        }
    }

    #[test]
    fn gathers_compose_and_charge_their_ids() {
        let r = product();
        let once = r.gather(&[1, 1, 0]);
        // A deferred relation charges one 4 B id per row per distinct
        // index vector, not the cells it points at.
        assert_eq!(once.approx_bytes(), 3 * 4);
        let twice = once.gather(&[2, 0]);
        assert_eq!(twice.approx_bytes(), 2 * 4);
        assert_eq!(twice.value_at(0, 0), Value::str("fd1"));
        assert_eq!(twice.value_at(1, 1), Value::str("high"));
        // A gather of a gather points at the stored source: one level.
        for slot in twice.columns() {
            let Slot::Deferred(d) = &slot.0 else {
                panic!("a gather defers")
            };
            assert!(matches!(r.columns()[0].0, Slot::Stored(_)));
            assert_eq!(&*d.idx, &[0, 1]);
        }
        // The columns of one gather share one index vector.
        let [Slot::Deferred(a), Slot::Deferred(b)] = [&twice.cols[0].0, &twice.cols[1].0] else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(&a.idx, &b.idx));
        // `col` gathers one column and keeps it; the charge grows by it.
        let before = twice.approx_bytes();
        let col = twice.col(0) as *const Column;
        assert_eq!(twice.col(0) as *const Column, col);
        assert!(twice.approx_bytes() > before);
        assert_eq!(
            twice.materialized().approx_bytes(),
            gather_eager(&r, &[0, 1]).approx_bytes()
        );
        // Storing shares what a kernel gathered instead of copying it.
        let Slot::Stored(kept) = &twice.materialized().cols[0].0 else {
            panic!("materialized columns are stored")
        };
        assert!(std::ptr::eq(&**kept, col));
    }

    #[test]
    fn col_governed_charges_the_gather_once() {
        let r = product();
        let gov = QueryGovernor::builder().mem_budget(1 << 20).build();
        // A stored column is the relation's own: nothing to charge.
        r.col_governed(1, &gov);
        assert_eq!(gov.mem_charged(), 0);
        let g = r.gather(&[1, 0, 1]);
        let col = g.col_governed(1, &gov);
        assert_eq!(gov.mem_charged(), col.approx_bytes());
        g.col_governed(1, &gov);
        g.col(1);
        assert_eq!(gov.mem_charged(), col.approx_bytes());
        // A column gathered outside a query is not charged later.
        g.col(0);
        g.col_governed(0, &gov);
        assert_eq!(gov.mem_charged(), col.approx_bytes());
    }
}
