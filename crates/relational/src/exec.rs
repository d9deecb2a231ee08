//! The operator kernels.
//!
//! Kernels are vectorized over the columnar storage
//! ([`crate::column`]): filters evaluate predicate masks over column
//! slices and gather the surviving rows wholesale, hash joins build and
//! probe on typed key columns (single-key `Int`/`Str` joins never box a
//! `Value` on the hot path) and materialize output via column gathers,
//! and aggregates fold column slices per group. The row-at-a-time path
//! survives as a fallback for predicates containing arithmetic
//! ([`Expr::Bin`]), which can raise per-row errors (type mismatch,
//! division by zero) that a mask evaluation could not order correctly.
//!
//! Joins are hash-based: natural joins key on the common attributes,
//! theta joins hash on the equi-conjuncts (`left.col = right.col`) that
//! [`equi_positions`] mines from the predicate, and the nested loop is
//! only for genuinely non-equi predicates — the same discipline a
//! production engine applies. There is no plan tree in this crate: gSQL's
//! `QueryPlan` (in `gsj-core`) is the only plan type, and it reaches these
//! kernels through the instrumented operators of [`crate::physical`],
//! which add per-operator statistics and the boundary governance checks.
//!
//! Every kernel that can run long takes the query's [`QueryGovernor`]:
//! it checks it before working and charges the buffers it materialized.
//! Callers with nothing to enforce pass [`QueryGovernor::unlimited`].
//! A kernel runs on the thread that called it (DESIGN.md §13).

use crate::column::{CellRef, Column};
use crate::expr::{AggFunc, AggSpec, CmpOp, Expr};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use gsj_common::{FxHashMap, GsjError, QueryGovernor, Result, Value};
use std::cmp::Ordering;

/// Split a predicate into its top-level conjuncts.
fn conjuncts(pred: &Expr) -> Vec<&Expr> {
    match pred {
        Expr::And(a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        other => vec![other],
    }
}

/// Mine hashable equi-conjuncts (`l.col = r.col` with the two sides
/// resolving on opposite inputs) out of a theta predicate. Returns
/// parallel position vectors into the left and right schemas.
pub fn equi_positions(pred: &Expr, ls: &Schema, rs: &Schema) -> (Vec<usize>, Vec<usize>) {
    let mut l_keys = Vec::new();
    let mut r_keys = Vec::new();
    for c in conjuncts(pred) {
        if let Expr::Cmp(CmpOp::Eq, a, b) = c {
            if let (Expr::Col(ca), Expr::Col(cb)) = (a.as_ref(), b.as_ref()) {
                let (la, ra) = (
                    Expr::resolve_column(ls, ca).ok(),
                    Expr::resolve_column(rs, ca).ok(),
                );
                let (lb, rb) = (
                    Expr::resolve_column(ls, cb).ok(),
                    Expr::resolve_column(rs, cb).ok(),
                );
                match (la, ra, lb, rb) {
                    (Some(i), None, None, Some(j)) => {
                        l_keys.push(i);
                        r_keys.push(j);
                    }
                    (None, Some(j), Some(i), None) => {
                        l_keys.push(i);
                        r_keys.push(j);
                    }
                    _ => {}
                }
            }
        }
    }
    (l_keys, r_keys)
}

/// Build/probe cardinalities observed by one hash-join execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinStats {
    /// Rows hashed into the build table.
    pub build_rows: usize,
    /// Rows streamed through the probe side.
    pub probe_rows: usize,
}

/// How a hash join combines its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashJoinMode {
    /// Natural join: output = left attrs ++ right-minus-common; the
    /// smaller input becomes the build side.
    Natural,
    /// Equi join mined from a theta predicate: output is the full
    /// concatenation, the left input is the build side, and the residual
    /// predicate is re-verified on every candidate pair.
    Equi,
}

/// A hash-join build table over borrowed key cells. NULL keys never
/// enter the table. Single-key joins where both the build and probe columns are
/// typed `Int` (resp. `Str`) index the unboxed payloads directly;
/// everything else keys on borrowed [`CellRef`]s, whose hash/eq mirror
/// `Value` (so `Int 3` still matches `Float 3.0` across
/// differently-typed columns).
enum JoinTable<'a> {
    Int(FxHashMap<i64, Vec<u32>>),
    Str(FxHashMap<&'a str, Vec<u32>>),
    Cells(FxHashMap<Vec<CellRef<'a>>, Vec<u32>>),
}

impl<'a> JoinTable<'a> {
    /// Build the table on `build`'s key columns. The probe side is
    /// consulted only to decide whether an unboxed fast path applies.
    fn build(
        build: &'a Relation,
        probe: &'a Relation,
        build_keys: &[usize],
        probe_keys: &[usize],
    ) -> Self {
        if build_keys.len() == 1 {
            match (build.col(build_keys[0]), probe.col(probe_keys[0])) {
                (
                    Column::Int {
                        data: bd,
                        validity: bv,
                    },
                    Column::Int { .. },
                ) => {
                    let mut table: FxHashMap<i64, Vec<u32>> = FxHashMap::default();
                    for (i, &k) in bd.iter().enumerate() {
                        if bv.get(i) {
                            table.entry(k).or_default().push(i as u32);
                        }
                    }
                    return JoinTable::Int(table);
                }
                (
                    Column::Str {
                        data: bd,
                        validity: bv,
                    },
                    Column::Str { .. },
                ) => {
                    let mut table: FxHashMap<&str, Vec<u32>> = FxHashMap::default();
                    for (i, k) in bd.iter().enumerate() {
                        if bv.get(i) {
                            table.entry(k).or_default().push(i as u32);
                        }
                    }
                    return JoinTable::Str(table);
                }
                _ => {}
            }
        }
        let mut table: FxHashMap<Vec<CellRef<'a>>, Vec<u32>> = FxHashMap::default();
        'build: for i in 0..build.len() {
            let mut key = Vec::with_capacity(build_keys.len());
            for &k in build_keys {
                let cell = build.col(k).cell(i);
                if cell.is_null() {
                    continue 'build;
                }
                key.push(cell);
            }
            table.entry(key).or_default().push(i as u32);
        }
        JoinTable::Cells(table)
    }

    /// Stream every probe row through the table, emitting
    /// `(build_row, probe_row)` for every match in probe-major order.
    fn probe(&self, probe: &'a Relation, probe_keys: &[usize], mut emit: impl FnMut(u32, u32)) {
        match self {
            JoinTable::Int(table) => {
                let Column::Int {
                    data: pd,
                    validity: pv,
                } = probe.col(probe_keys[0])
                else {
                    unreachable!("Int build table implies a typed-Int probe column")
                };
                for (j, key) in pd.iter().enumerate() {
                    if pv.get(j) {
                        if let Some(rows) = table.get(key) {
                            for &bi in rows {
                                emit(bi, j as u32);
                            }
                        }
                    }
                }
            }
            JoinTable::Str(table) => {
                let Column::Str {
                    data: pd,
                    validity: pv,
                } = probe.col(probe_keys[0])
                else {
                    unreachable!("Str build table implies a typed-Str probe column")
                };
                for (j, key) in pd.iter().enumerate() {
                    if pv.get(j) {
                        if let Some(rows) = table.get(key.as_ref()) {
                            for &bi in rows {
                                emit(bi, j as u32);
                            }
                        }
                    }
                }
            }
            JoinTable::Cells(table) => {
                'probe: for j in 0..probe.len() {
                    let mut key = Vec::with_capacity(probe_keys.len());
                    for &k in probe_keys {
                        let cell = probe.col(k).cell(j);
                        if cell.is_null() {
                            continue 'probe;
                        }
                        key.push(cell);
                    }
                    if let Some(rows) = table.get(&key) {
                        for &bi in rows {
                            emit(bi, j as u32);
                        }
                    }
                }
            }
        }
    }
}

/// Probe the whole probe side against the build table. `swap` flips the
/// emitted pair to (probe, build) — the natural join uses it when the
/// right input was the build side. Returns the matched (left, right)
/// index vectors in probe-major order, plus the join's stats.
fn probe_all(
    table: &JoinTable<'_>,
    probe: &Relation,
    probe_keys: &[usize],
    build_rows: usize,
    swap: bool,
    gov: &QueryGovernor,
) -> Result<(Vec<u32>, Vec<u32>, JoinStats)> {
    let mut li: Vec<u32> = Vec::new();
    let mut ri: Vec<u32> = Vec::new();
    if !probe.is_empty() {
        gov.check("relational.probe")?;
        table.probe(probe, probe_keys, |bi, pi| {
            if swap {
                li.push(pi);
                ri.push(bi);
            } else {
                li.push(bi);
                ri.push(pi);
            }
        });
        gov.charge_mem(8 * li.len() as u64);
    }
    let stats = JoinStats {
        build_rows,
        probe_rows: probe.len(),
    };
    Ok((li, ri, stats))
}

/// The single hash-join kernel behind [`natural_join`] and the
/// `HashJoin` operator of [`crate::physical::join_rel`]. Matching is
/// index-based: the probe emits `(build, probe)` row-index pairs and the
/// output columns are gathered wholesale — no per-row tuple assembly.
/// The probe checks `gov` and charges its match buffers.
#[allow(clippy::too_many_arguments)]
pub fn hash_join(
    l: &Relation,
    r: &Relation,
    l_keys: &[usize],
    r_keys: &[usize],
    mode: HashJoinMode,
    residual: Option<&Expr>,
    schema: Schema,
    gov: &QueryGovernor,
) -> Result<(Relation, JoinStats)> {
    gsj_faults::fault_point("relational.hash_join", gsj_faults::FaultClass::Critical)?;
    match mode {
        HashJoinMode::Natural => {
            let r_rest: Vec<usize> = (0..r.schema().arity())
                .filter(|i| !r_keys.contains(i))
                .collect();
            // Build on the smaller side.
            let build_left = l.len() <= r.len();
            let (build, probe, build_keys, probe_keys) = if build_left {
                (l, r, l_keys, r_keys)
            } else {
                (r, l, r_keys, l_keys)
            };
            let table = JoinTable::build(build, probe, build_keys, probe_keys);
            let (li, ri, stats) =
                probe_all(&table, probe, probe_keys, build.len(), !build_left, gov)?;
            let out = Relation::gather_concat(l, &li, r, &ri, Some(&r_rest), schema)?;
            Ok((out, stats))
        }
        HashJoinMode::Equi => {
            let table = JoinTable::build(l, r, l_keys, r_keys);
            let (li, ri, stats) = probe_all(&table, r, r_keys, l.len(), false, gov)?;
            let joined = Relation::gather_concat(l, &li, r, &ri, None, schema)?;
            let out = match residual {
                Some(pred) => filter(joined, pred, gov)?,
                None => joined,
            };
            Ok((out, stats))
        }
    }
}

/// The nested-loop kernel: every pair, filtered by `pred` over the
/// concatenated schema, in l-major order. Genuinely non-equi predicates
/// only — stays row-at-a-time because `pred` may raise per-row errors.
pub fn nested_loop(
    l: &Relation,
    r: &Relation,
    pred: &Expr,
    schema: Schema,
    gov: &QueryGovernor,
) -> Result<Relation> {
    if l.is_empty() {
        return Relation::new(schema, Vec::new());
    }
    gov.check("relational.nested_loop")?;
    // The inner side is walked once per outer row: materialize it once.
    let inner: Vec<Tuple> = r.rows().collect();
    let mut rows = Vec::new();
    for i in 0..l.len() {
        let lt = l.row(i);
        for rt in &inner {
            let joined = lt.concat(rt);
            if pred.holds(&schema, &joined)? {
                rows.push(joined);
            }
        }
    }
    gov.charge_mem(rows.len() as u64 * 16);
    Relation::new(schema, rows)
}

/// The concatenated-output schema of a theta-style join; errors when
/// attribute names collide.
pub(crate) fn concat_schema(l: &Relation, r: &Relation, sep: &str, what: &str) -> Result<Schema> {
    let mut attrs = l.schema().attrs().to_vec();
    attrs.extend(r.schema().attrs().iter().cloned());
    Schema::new(
        format!("{}{sep}{}", l.schema().name(), r.schema().name()),
        attrs,
    )
    .map_err(|e| {
        GsjError::Schema(format!(
            "{what} requires distinct attribute names (qualify inputs first): {e}"
        ))
    })
}

/// Natural-join key positions (left, right) and merged output schema.
type NaturalJoinParts = (Vec<usize>, Vec<usize>, Schema);

/// The merged-output schema of a natural join, plus the key positions.
fn natural_join_parts(l: &Relation, r: &Relation) -> Result<Option<NaturalJoinParts>> {
    let common = l.schema().common_attrs(r.schema());
    if common.is_empty() {
        return Ok(None);
    }
    let l_keys: Vec<usize> = common
        .iter()
        .map(|a| l.schema().require(a))
        .collect::<Result<_>>()?;
    let r_keys: Vec<usize> = common
        .iter()
        .map(|a| r.schema().require(a))
        .collect::<Result<_>>()?;
    let mut attrs: Vec<String> = l.schema().attrs().to_vec();
    attrs.extend(
        (0..r.schema().arity())
            .filter(|i| !r_keys.contains(i))
            .map(|i| r.schema().attrs()[i].clone()),
    );
    let schema = Schema::new(
        format!("{}_join_{}", l.schema().name(), r.schema().name()),
        attrs,
    )?;
    Ok(Some((l_keys, r_keys, schema)))
}

/// Natural hash join on all common attribute names (a product when there
/// are none). NULL keys never match (SQL semantics).
pub fn natural_join(l: &Relation, r: &Relation, gov: &QueryGovernor) -> Result<Relation> {
    match natural_join_parts(l, r)? {
        None => product(l, r),
        Some((l_keys, r_keys, schema)) => Ok(hash_join(
            l,
            r,
            &l_keys,
            &r_keys,
            HashJoinMode::Natural,
            None,
            schema,
            gov,
        )?
        .0),
    }
}

/// Cartesian product; attribute names must stay distinct.
pub fn product(l: &Relation, r: &Relation) -> Result<Relation> {
    let schema = concat_schema(l, r, "_x_", "product")?;
    let n = l.len() * r.len();
    let mut li: Vec<u32> = Vec::with_capacity(n);
    let mut ri: Vec<u32> = Vec::with_capacity(n);
    for i in 0..l.len() as u32 {
        for j in 0..r.len() as u32 {
            li.push(i);
            ri.push(j);
        }
    }
    Relation::gather_concat(l, &li, r, &ri, None, schema)
}

/// True when `pred` can be evaluated as a column mask: comparisons and
/// NULL tests over direct column/literal operands, combined with
/// and/or/not. Arithmetic ([`Expr::Bin`]) is excluded — it can raise
/// per-row errors whose ordering the row path defines.
fn mask_vectorizable(pred: &Expr) -> bool {
    fn operand_ok(e: &Expr) -> bool {
        matches!(e, Expr::Col(_) | Expr::Lit(_))
    }
    match pred {
        Expr::Col(_) | Expr::Lit(_) => true,
        Expr::Cmp(_, a, b) => operand_ok(a) && operand_ok(b),
        Expr::And(a, b) | Expr::Or(a, b) => mask_vectorizable(a) && mask_vectorizable(b),
        Expr::Not(e) => mask_vectorizable(e),
        Expr::IsNull(e) => operand_ok(e),
        Expr::Bin(..) => false,
    }
}

/// A comparison operand bound once per batch: a column reference
/// resolved to its column, or a literal.
enum Operand<'a> {
    Col(&'a Column),
    Lit(&'a Value),
}

impl<'a> Operand<'a> {
    fn bind(e: &'a Expr, rel: &'a Relation) -> Result<Operand<'a>> {
        match e {
            Expr::Col(name) => {
                let i = Expr::resolve_column(rel.schema(), name)?;
                Ok(Operand::Col(rel.col(i)))
            }
            Expr::Lit(v) => Ok(Operand::Lit(v)),
            _ => unreachable!("mask_vectorizable admits only Col/Lit operands"),
        }
    }

    #[inline]
    fn cell(&self, row: usize) -> CellRef<'a> {
        match self {
            Operand::Col(c) => c.cell(row),
            Operand::Lit(v) => CellRef::from_value(v),
        }
    }
}

/// Evaluate a vectorizable predicate as a boolean mask over the rows.
///
/// Short-circuit parity with the row path: `And` does not touch (or
/// even name-resolve) its right branch when the left mask has no true
/// bit, and `Or` skips the right branch when the left mask is all true —
/// exactly the cases where the row evaluator would never have evaluated
/// the right branch for any row.
fn eval_mask(pred: &Expr, rel: &Relation) -> Result<Vec<bool>> {
    let range = 0..rel.len();
    match pred {
        Expr::Lit(v) => Ok(vec![v.as_bool().unwrap_or(false); range.len()]),
        Expr::Col(name) => {
            let i = Expr::resolve_column(rel.schema(), name)?;
            let c = rel.col(i);
            Ok(range
                .map(|r| matches!(c.cell(r), CellRef::Bool(true)))
                .collect())
        }
        Expr::Cmp(op, a, b) => {
            let (oa, ob) = (Operand::bind(a, rel)?, Operand::bind(b, rel)?);
            let op = *op;
            Ok(range
                .map(|r| {
                    let (x, y) = (oa.cell(r), ob.cell(r));
                    if x.is_null() || y.is_null() {
                        // SQL: NULL comparisons are unknown; a filter
                        // treats unknown as not satisfied.
                        return false;
                    }
                    match op {
                        CmpOp::Eq => x == y,
                        CmpOp::Ne => x != y,
                        CmpOp::Lt => x < y,
                        CmpOp::Le => x <= y,
                        CmpOp::Gt => x > y,
                        CmpOp::Ge => x >= y,
                    }
                })
                .collect())
        }
        Expr::And(a, b) => {
            let mut m = eval_mask(a, rel)?;
            if m.iter().any(|&x| x) {
                for (x, y) in m.iter_mut().zip(eval_mask(b, rel)?) {
                    *x = *x && y;
                }
            }
            Ok(m)
        }
        Expr::Or(a, b) => {
            let mut m = eval_mask(a, rel)?;
            if !m.iter().all(|&x| x) {
                for (x, y) in m.iter_mut().zip(eval_mask(b, rel)?) {
                    *x = *x || y;
                }
            }
            Ok(m)
        }
        Expr::Not(e) => {
            let mut m = eval_mask(e, rel)?;
            for x in m.iter_mut() {
                *x = !*x;
            }
            Ok(m)
        }
        Expr::IsNull(e) => {
            let o = Operand::bind(e, rel)?;
            Ok(range.map(|r| o.cell(r).is_null()).collect())
        }
        Expr::Bin(..) => unreachable!("Bin is never mask-vectorizable"),
    }
}

/// σ_pred kernel, governed. Also the residual check of an equi
/// [`hash_join`]; the `relational.filter` fault site belongs to the
/// operator ([`crate::physical::filter_rel`]), not to this shared kernel.
pub(crate) fn filter(rel: Relation, pred: &Expr, gov: &QueryGovernor) -> Result<Relation> {
    // The row path never evaluates predicates over zero rows; keep that
    // (a dangling column name in a pred must not error on empty input).
    if rel.is_empty() {
        return Ok(rel);
    }
    gov.check("relational.filter")?;
    // Surviving row indices, increasing.
    let idx: Vec<u32> = if mask_vectorizable(pred) {
        let mask = eval_mask(pred, &rel)?;
        mask.iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i as u32))
            .collect()
    } else {
        // Row fallback for predicates with arithmetic: the scan stops at
        // the first row whose evaluation errors.
        let schema = rel.schema();
        let mut idx = Vec::new();
        for i in 0..rel.len() {
            if pred.holds(schema, &rel.row(i))? {
                idx.push(i as u32);
            }
        }
        idx
    };
    gov.charge_mem(4 * idx.len() as u64);
    if idx.len() == rel.len() {
        return Ok(rel);
    }
    Ok(rel.gather(&idx))
}

/// Stable sort kernel: sorts row indices on the key cells, then gathers
/// once — cells never move until the final gather.
pub(crate) fn sort(rel: Relation, by: &[String], desc: bool) -> Result<Relation> {
    let keys: Vec<usize> = by
        .iter()
        .map(|c| Expr::resolve_column(rel.schema(), c))
        .collect::<Result<_>>()?;
    let mut idx: Vec<u32> = (0..rel.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        let ord = keys
            .iter()
            .map(|&k| {
                rel.col(k)
                    .cell(a as usize)
                    .cmp(&rel.col(k).cell(b as usize))
            })
            .find(|o| !o.is_eq())
            .unwrap_or(Ordering::Equal);
        if desc {
            ord.reverse()
        } else {
            ord
        }
    });
    Ok(rel.gather(&idx))
}

/// Grouping + aggregation kernel. Rows are bucketed into group ids on
/// borrowed key cells (first-seen group order, rows increasing within a
/// group), then each aggregate folds its column's slice of every group
/// directly.
pub fn aggregate(
    rel: &Relation,
    group_by: &[String],
    aggs: &[AggSpec],
    gov: &QueryGovernor,
) -> Result<Relation> {
    let group_pos: Vec<usize> = group_by
        .iter()
        .map(|c| Expr::resolve_column(rel.schema(), c))
        .collect::<Result<_>>()?;
    let agg_pos: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| {
            if a.col == "*" {
                Ok(None)
            } else {
                Expr::resolve_column(rel.schema(), &a.col).map(Some)
            }
        })
        .collect::<Result<_>>()?;

    let mut attrs: Vec<String> = group_pos
        .iter()
        .map(|&i| rel.schema().attrs()[i].clone())
        .collect();
    attrs.extend(aggs.iter().map(|a| a.alias.clone()));
    let schema = Schema::new(format!("{}_agg", rel.schema().name()), attrs)?;

    // Group ids on borrowed keys; ids are assigned in first-seen order.
    let mut group_rows: Vec<Vec<u32>> = Vec::new();
    if !rel.is_empty() {
        gov.check("relational.aggregate")?;
        let mut gid_of: FxHashMap<Vec<CellRef>, usize> = FxHashMap::default();
        for i in 0..rel.len() {
            let key: Vec<CellRef> = group_pos.iter().map(|&p| rel.col(p).cell(i)).collect();
            let next = group_rows.len();
            let gid = *gid_of.entry(key).or_insert(next);
            if gid == next {
                group_rows.push(Vec::new());
            }
            group_rows[gid].push(i as u32);
        }
        gov.charge_mem(4 * rel.len() as u64);
    }
    if group_by.is_empty() && group_rows.is_empty() {
        // Global aggregate over the empty input still yields one row.
        group_rows.push(Vec::new());
    }

    let mut out = Vec::with_capacity(group_rows.len());
    for rows in &group_rows {
        let mut vals: Vec<Value> = group_pos
            .iter()
            .map(|&p| rel.col(p).value(rows[0] as usize))
            .collect();
        for (spec, pos) in aggs.iter().zip(&agg_pos) {
            vals.push(eval_agg_col(spec.func, pos.map(|p| rel.col(p)), rows));
        }
        out.push(Tuple::new(vals));
    }
    Relation::new(schema, out)
}

/// Fold one aggregate over a column's slice of group rows.
fn eval_agg_col(func: AggFunc, col: Option<&Column>, rows: &[u32]) -> Value {
    match func {
        AggFunc::Count => match col {
            None => Value::Int(rows.len() as i64),
            Some(c) => Value::Int(rows.iter().filter(|&&i| !c.is_null(i as usize)).count() as i64),
        },
        AggFunc::Sum | AggFunc::Avg => {
            let Some(c) = col else { return Value::Null };
            let mut sum = 0.0f64;
            let mut n = 0usize;
            let mut all_int = true;
            for &i in rows {
                match c.cell(i as usize) {
                    CellRef::Int(v) => {
                        sum += v as f64;
                        n += 1;
                    }
                    CellRef::Float(v) => {
                        sum += v;
                        n += 1;
                        all_int = false;
                    }
                    CellRef::Null => {}
                    // Non-numeric cells don't contribute to the sum but
                    // do demote an integer-typed result (they are not
                    // `Int | Null`).
                    _ => all_int = false,
                }
            }
            if n == 0 {
                return Value::Null;
            }
            if func == AggFunc::Avg {
                return Value::Float(sum / n as f64);
            }
            if all_int {
                Value::Int(sum as i64)
            } else {
                Value::Float(sum)
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let Some(c) = col else { return Value::Null };
            // Ties keep the first row for Min and the last for Max —
            // the order a stable sort of the cells would produce.
            let mut best: Option<(CellRef<'_>, u32)> = None;
            for &i in rows {
                let cell = c.cell(i as usize);
                if cell.is_null() {
                    continue;
                }
                best = match best {
                    None => Some((cell, i)),
                    Some((b, bi)) => {
                        let replace = if func == AggFunc::Min {
                            cell.cmp(&b) == Ordering::Less
                        } else {
                            cell.cmp(&b) != Ordering::Less
                        };
                        if replace {
                            Some((cell, i))
                        } else {
                            Some((b, bi))
                        }
                    }
                };
            }
            match best {
                None => Value::Null,
                Some((_, i)) => c.value(i as usize),
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::physical::{join_rel, ExecContext};

    /// Four customers; shared with the operator tests in `physical`.
    pub(crate) fn customer() -> Relation {
        let mut customer =
            Relation::empty(Schema::of("customer", &["cid", "name", "credit", "bal"]));
        for (cid, name, credit, bal) in [
            ("cid01", "Bob", "fair", 500),
            ("cid02", "Bob", "good", 110),
            ("cid03", "Guy", "good", 50),
            ("cid04", "Ada", "fair", 100),
        ] {
            customer
                .push_values(vec![
                    Value::str(cid),
                    Value::str(name),
                    Value::str(credit),
                    Value::Int(bal),
                ])
                .unwrap();
        }
        customer
    }

    /// Three orders of two of the customers.
    pub(crate) fn orders() -> Relation {
        let mut orders = Relation::empty(Schema::of("orders", &["cid", "pid"]));
        for (cid, pid) in [("cid01", "fd1"), ("cid02", "fd2"), ("cid02", "fd3")] {
            orders
                .push_values(vec![Value::str(cid), Value::str(pid)])
                .unwrap();
        }
        orders
    }

    fn free() -> QueryGovernor {
        QueryGovernor::unlimited()
    }

    /// The join operator over two materialized inputs; returns the
    /// relation and the label that names the chosen algorithm.
    fn theta(l: &Relation, r: &Relation, pred: &Expr) -> Result<(Relation, String)> {
        let mut ctx = ExecContext::new();
        let out = join_rel(l, r, pred, "t", &mut ctx)?;
        Ok((out, ctx.ops()[0].label.clone()))
    }

    #[test]
    fn select_project() {
        let good = filter(customer(), &Expr::col_eq("credit", "good"), &free()).unwrap();
        let r = good.project(&[0], vec!["cid".into()]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema().attrs(), &["cid".to_string()]);
        assert_eq!(r.column("cid").unwrap(), good.column("cid").unwrap());
    }

    #[test]
    fn natural_join_matches_on_common_attr() {
        let r = natural_join(&customer(), &orders(), &free()).unwrap();
        assert_eq!(r.len(), 3);
        // cid appears once.
        assert_eq!(
            r.schema()
                .attrs()
                .iter()
                .filter(|a| a.as_str() == "cid")
                .count(),
            1
        );
        assert!(r.schema().contains("pid"));
    }

    #[test]
    fn natural_join_skips_null_keys() {
        let mut l = Relation::empty(Schema::of("l", &["k", "a"]));
        l.push_values(vec![Value::Null, Value::Int(1)]).unwrap();
        l.push_values(vec![Value::str("x"), Value::Int(2)]).unwrap();
        let mut r = Relation::empty(Schema::of("r", &["k", "b"]));
        r.push_values(vec![Value::Null, Value::Int(3)]).unwrap();
        r.push_values(vec![Value::str("x"), Value::Int(4)]).unwrap();
        let j = natural_join(&l, &r, &free()).unwrap();
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn typed_int_join_skips_null_keys_and_matches_floats() {
        // Int fast path: NULL validity slots never match.
        let mut l = Relation::empty(Schema::of("l", &["k", "a"]));
        l.push_values(vec![Value::Int(1), Value::str("x")]).unwrap();
        l.push_values(vec![Value::Null, Value::str("y")]).unwrap();
        let mut r = Relation::empty(Schema::of("r", &["k", "b"]));
        r.push_values(vec![Value::Int(1), Value::str("z")]).unwrap();
        r.push_values(vec![Value::Null, Value::str("w")]).unwrap();
        assert_eq!(natural_join(&l, &r, &free()).unwrap().len(), 1);
        // Cross-typed keys (Int vs Float) take the general cell path
        // and still match by numeric value.
        let mut f = Relation::empty(Schema::of("r", &["k", "b"]));
        f.push_values(vec![Value::Float(1.0), Value::str("f")])
            .unwrap();
        assert_eq!(natural_join(&l, &f, &free()).unwrap().len(), 1);
    }

    #[test]
    fn disjoint_schemas_fall_back_to_product() {
        let mut l = Relation::empty(Schema::of("l", &["a"]));
        l.push_values(vec![Value::Int(1)]).unwrap();
        l.push_values(vec![Value::Int(2)]).unwrap();
        let mut r = Relation::empty(Schema::of("r", &["b"]));
        r.push_values(vec![Value::Int(3)]).unwrap();
        let j = natural_join(&l, &r, &free()).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.schema().attrs(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn theta_join_with_equi_and_residual() {
        // Self-join customers with the same name but different ids
        // (Q2-style pattern).
        let pred = Expr::cmp(CmpOp::Eq, Expr::col("T1.name"), Expr::col("T2.name")).and(Expr::cmp(
            CmpOp::Ne,
            Expr::col("T1.cid"),
            Expr::col("T2.cid"),
        ));
        let (r, label) = theta(
            &customer().qualified("T1"),
            &customer().qualified("T2"),
            &pred,
        )
        .unwrap();
        // Bob(cid01)×Bob(cid02) both orders.
        assert_eq!(r.len(), 2);
        assert!(label.starts_with("HashJoin("), "{label}");
    }

    #[test]
    fn theta_join_nested_loop_for_non_equi() {
        let pred = Expr::cmp(CmpOp::Lt, Expr::col("T1.bal"), Expr::col("T2.bal"));
        let (r, label) = theta(
            &customer().qualified("T1"),
            &customer().qualified("T2"),
            &pred,
        )
        .unwrap();
        // Pairs with strictly increasing balances: 50<100<110<500 → 6 pairs.
        assert_eq!(r.len(), 6);
        assert!(label.starts_with("NestedLoopJoin("), "{label}");
    }

    #[test]
    fn aggregate_group_by() {
        let r = aggregate(
            &customer(),
            &["credit".into()],
            &[
                AggSpec::count_star("n"),
                AggSpec::new(AggFunc::Sum, "bal", "total"),
                AggSpec::new(AggFunc::Max, "bal", "biggest"),
            ],
            &free(),
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        let fair_row = r.rows().find(|t| t.get(0) == &Value::str("fair")).unwrap();
        assert_eq!(fair_row.get(1), &Value::Int(2));
        assert_eq!(fair_row.get(2), &Value::Int(600));
        assert_eq!(fair_row.get(3), &Value::Int(500));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let none = filter(customer(), &Expr::col_eq("credit", "excellent"), &free()).unwrap();
        let r = aggregate(
            &none,
            &[],
            &[
                AggSpec::count_star("n"),
                AggSpec::new(AggFunc::Avg, "bal", "avg"),
            ],
            &free(),
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.value_at(0, 0), Value::Int(0));
        assert!(r.value_at(0, 1).is_null());
    }

    #[test]
    fn sort_and_limit() {
        let r = sort(customer(), &["bal".into()], true).unwrap().head(2);
        assert_eq!(r.len(), 2);
        assert_eq!(r.value_at(0, 3), Value::Int(500));
        assert_eq!(r.value_at(1, 3), Value::Int(110));
    }

    #[test]
    fn qualify_then_unqualified_filter() {
        let t = customer().qualified("T");
        let r = filter(t, &Expr::col_eq("credit", "good"), &free()).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn product_rejects_duplicate_names() {
        // Natural self-join on all attrs is fine (it's an intersection)...
        assert!(natural_join(&customer(), &customer(), &free()).is_ok());
        // ...but an unqualified theta self-join must be rejected.
        assert!(theta(&customer(), &customer(), &Expr::lit(true)).is_err());
        assert!(product(&customer(), &customer()).is_err());
    }

    #[test]
    fn equi_positions_mines_cross_input_pairs() {
        let ls = Schema::of("l", &["T1.a", "T1.b"]);
        let rs = Schema::of("r", &["T2.a", "T2.c"]);
        let pred = Expr::cmp(CmpOp::Eq, Expr::col("T1.a"), Expr::col("T2.a"))
            .and(Expr::cmp(CmpOp::Eq, Expr::col("T2.c"), Expr::col("T1.b")))
            .and(Expr::cmp(CmpOp::Lt, Expr::col("T1.b"), Expr::lit(5i64)));
        let (lk, rk) = equi_positions(&pred, &ls, &rs);
        assert_eq!(lk, vec![0, 1]);
        assert_eq!(rk, vec![0, 1]);
    }

    #[test]
    fn vectorized_filter_matches_row_semantics() {
        // Vectorizable: Cmp over Col/Lit with And/Or/Not/IsNull.
        let pred = Expr::cmp(CmpOp::Ge, Expr::col("bal"), Expr::lit(100i64))
            .and(Expr::Not(Box::new(Expr::col_eq("credit", "fair"))));
        assert!(mask_vectorizable(&pred));
        let fast = filter(customer(), &pred, &free()).unwrap();
        assert_eq!(fast.len(), 1, "only cid02");
        // Equivalent row-path predicate (Bin forces the fallback).
        let slow_pred = Expr::cmp(
            CmpOp::Ge,
            Expr::Bin(
                crate::expr::BinOp::Add,
                Box::new(Expr::col("bal")),
                Box::new(Expr::lit(0i64)),
            ),
            Expr::lit(100i64),
        )
        .and(Expr::Not(Box::new(Expr::col_eq("credit", "fair"))));
        assert!(!mask_vectorizable(&slow_pred));
        let slow = filter(customer(), &slow_pred, &free()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn short_circuit_hides_bad_right_branch() {
        // Left of And is all-false, so the dangling column on the right
        // must never be resolved (row-path parity).
        let pred = Expr::col_eq("credit", "excellent").and(Expr::col_eq("no_such_col", "x"));
        assert_eq!(filter(customer(), &pred, &free()).unwrap().len(), 0);
        // With a satisfiable left branch the right branch IS resolved
        // and must error.
        let pred = Expr::col_eq("credit", "good").and(Expr::col_eq("no_such_col", "x"));
        assert!(filter(customer(), &pred, &free()).is_err());
    }

    #[test]
    fn filter_on_empty_input_skips_evaluation() {
        let empty = Relation::empty(Schema::of("e", &["a"]));
        let pred = Expr::col_eq("no_such_col", "x");
        assert!(filter(empty, &pred, &free()).unwrap().is_empty());
    }
}
