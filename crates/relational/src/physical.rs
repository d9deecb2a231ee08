//! The instrumented operators.
//!
//! Each `*_rel` function runs one kernel of [`crate::exec`] over
//! already-materialized relations and threads an [`ExecContext`] through
//! it: the query's governor is checked at the operator boundary and
//! handed to the kernel's workers, the output is charged against the
//! budgets, and rows in/out, build/probe sizes and wall time are recorded
//! for `EXPLAIN ANALYZE`. [`join_rel`] is where the join algorithm is
//! chosen (hash when the predicate has a minable equi-conjunct, nested
//! loop otherwise).
//!
//! This is the whole executor of the crate. The plan that decides which
//! operators run in which order is gSQL's `QueryPlan` in `gsj-core` —
//! the one plan type that can hold scans, relational operators and the
//! semantic joins (`EJoin`, `LJoin`) side by side, which a relational-only
//! tree here never could. Operators with children (a semantic join
//! evaluating its sources) bracket them with [`ExecContext::enter`] /
//! [`ExecContext::exit`], so the flat operator log carries the tree.

use crate::exec::{self, concat_schema, equi_positions, HashJoinMode};
use crate::expr::{AggSpec, Expr};
use crate::relation::Relation;
use gsj_common::{QueryGovernor, Result};
use std::time::Instant;

/// What a relation holds, for [`QueryGovernor::charge_mem`]: the payload
/// bytes of its stored and gathered columns (typed vectors + validity
/// bitmaps + string payloads) and 4 bytes per row of each distinct
/// row-index vector of its deferred ones ([`Relation::approx_bytes`]). Budgets are advisory
/// ceilings, not an allocator — but the charge tracks what the query's
/// relations add, not the cells they share with their inputs.
pub fn approx_rel_bytes(rel: &Relation) -> u64 {
    rel.approx_bytes()
}

/// Counters recorded for one physical operator execution.
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Operator label, e.g. `HashJoin(customer ⋈ orders)`.
    pub label: String,
    /// Total input rows (both sides for joins).
    pub rows_in: usize,
    /// Output rows.
    pub rows_out: usize,
    /// Rows hashed into the build table (hash joins only).
    pub build_rows: Option<usize>,
    /// Rows streamed through the probe side (hash joins only).
    pub probe_rows: Option<usize>,
    /// Wall time spent in the operator itself.
    pub nanos: u128,
    /// Index (into [`ExecContext::ops`]) of the enclosing operator, if
    /// any — set by the context from its open-operator stack, giving
    /// the flat vec an embedded tree structure.
    pub parent: Option<usize>,
    /// Start of the operator's own work as an offset from the gsj-obs
    /// trace epoch, so operator stats can be bridged into a span tree.
    pub start_ns: u64,
}

impl OpStats {
    /// Placeholder slot reserved by [`ExecContext::enter`] until
    /// [`ExecContext::exit`] fills in the real stats.
    fn pending() -> Self {
        OpStats {
            label: String::new(),
            rows_in: 0,
            rows_out: 0,
            build_rows: None,
            probe_rows: None,
            nanos: 0,
            parent: None,
            start_ns: 0,
        }
    }
}

/// Token for an operator slot opened with [`ExecContext::enter`].
#[must_use = "pass the token back to ExecContext::exit"]
pub struct OpToken(usize);

/// Per-operator execution statistics. Operators appear in *pre-order*:
/// [`enter`](ExecContext::enter) reserves a slot before the children
/// run, children link to it via [`OpStats::parent`], and
/// [`exit`](ExecContext::exit) fills the slot when the operator
/// finishes. Leaf recordings ([`record`](ExecContext::record)) append
/// with the innermost open operator as parent.
#[derive(Debug, Clone, Default)]
pub struct ExecContext {
    ops: Vec<OpStats>,
    /// Indices of currently open (entered, not yet exited) operators.
    stack: Vec<usize>,
    /// Governance handle for this execution: deadline / budgets /
    /// cancellation, checked at every operator boundary. Defaults to
    /// [`QueryGovernor::unlimited`].
    gov: QueryGovernor,
}

impl ExecContext {
    /// An empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty context governed by `gov`: every operator boundary run
    /// through this context checks the governor before executing and
    /// charges its output against the governor's budgets after.
    pub fn with_governor(gov: QueryGovernor) -> Self {
        ExecContext {
            gov,
            ..Self::default()
        }
    }

    /// This execution's governance handle (cheap to clone; clones share
    /// cancellation and budget state).
    pub fn governor(&self) -> &QueryGovernor {
        &self.gov
    }

    /// The recorded operators (pre-order; parent indexes embedded).
    pub fn ops(&self) -> &[OpStats] {
        &self.ops
    }

    /// Reserve a slot for an operator whose children are about to run.
    /// Everything recorded before the matching [`exit`](Self::exit)
    /// links to this slot as its parent.
    pub fn enter(&mut self) -> OpToken {
        let idx = self.ops.len();
        let mut slot = OpStats::pending();
        slot.parent = self.stack.last().copied();
        self.ops.push(slot);
        self.stack.push(idx);
        OpToken(idx)
    }

    /// Fill the slot reserved by [`enter`](Self::enter) with the
    /// operator's final stats (the parent link is preserved).
    pub fn exit(&mut self, token: OpToken, mut stats: OpStats) {
        stats.parent = self.ops[token.0].parent;
        self.ops[token.0] = stats;
        if let Some(pos) = self.stack.iter().rposition(|&i| i == token.0) {
            self.stack.truncate(pos);
        }
    }

    /// Record one finished leaf operator under the innermost open one.
    pub fn record(&mut self, mut stats: OpStats) {
        stats.parent = self.stack.last().copied();
        self.ops.push(stats);
    }

    /// Append the operators `other` recorded, in its order, hanging its
    /// roots under the innermost open operator — for sub-plans that ran
    /// against a context of their own before their parent operator
    /// opened (a link join's sides run ahead of the join so that WHERE
    /// can be bound first).
    pub fn absorb(&mut self, other: ExecContext) {
        let base = self.ops.len();
        let open = self.stack.last().copied();
        self.ops.extend(other.ops.into_iter().map(|mut op| {
            op.parent = op.parent.map(|p| p + base).or(open);
            op
        }));
    }

    /// Nesting depth of op `i` (0 for roots), following parent links.
    pub fn depth(&self, i: usize) -> usize {
        let mut depth = 0;
        let mut cur = self.ops[i].parent;
        while let Some(p) = cur {
            depth += 1;
            cur = self.ops[p].parent;
        }
        depth
    }

    /// Total wall time of the root operators. An operator's time covers
    /// its children's, so summing every operator would count a nested
    /// plan once per level.
    fn total_nanos(&self) -> u128 {
        let roots = self.ops.iter().filter(|o| o.parent.is_none());
        roots.map(|o| o.nanos).sum()
    }

    /// Render the counters as an aligned text table (the body of
    /// `EXPLAIN ANALYZE`); nested operators indent under their parent.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>9} {:>9} {:>9} {:>9} {:>12}\n",
            "operator", "rows_in", "rows_out", "build", "probe", "time"
        ));
        let fmt_time = |n: u128| gsj_obs::format_ns(n.min(u64::MAX as u128) as u64);
        for (i, op) in self.ops.iter().enumerate() {
            let fmt_opt = |v: Option<usize>| match v {
                Some(n) => n.to_string(),
                None => "-".to_string(),
            };
            let label = format!("{}{}", "  ".repeat(self.depth(i)), op.label);
            out.push_str(&format!(
                "{:<44} {:>9} {:>9} {:>9} {:>9} {:>12}\n",
                label,
                op.rows_in,
                op.rows_out,
                fmt_opt(op.build_rows),
                fmt_opt(op.probe_rows),
                fmt_time(op.nanos),
            ));
        }
        out.push_str(&format!(
            "total operator time: {}",
            fmt_time(self.total_nanos())
        ));
        out
    }
}

fn op(label: String, rows_in: usize, rows_out: usize, t0: Instant) -> OpStats {
    OpStats {
        label,
        rows_in,
        rows_out,
        build_rows: None,
        probe_rows: None,
        nanos: t0.elapsed().as_nanos(),
        parent: None,
        start_ns: gsj_obs::ns_since_epoch(t0),
    }
}

// ---------------------------------------------------------------------
// Instrumented single-operator helpers over materialized relations.
// ---------------------------------------------------------------------

/// Theta-join two materialized relations, picking hash vs nested loop by
/// mining equi-conjuncts, and record the operator under `label`.
pub fn join_rel(
    l: &Relation,
    r: &Relation,
    pred: &Expr,
    label: impl Into<String>,
    ctx: &mut ExecContext,
) -> Result<Relation> {
    ctx.gov.check("Join")?;
    let t0 = Instant::now();
    let schema = concat_schema(l, r, "_tj_", "theta join")?;
    let split = equi_positions(pred, l.schema(), r.schema());
    let label = label.into();
    let (out, join_stats, label) = if split.l_keys.is_empty() {
        (
            exec::nested_loop(l, r, pred, schema, &ctx.gov)?,
            None,
            format!("NestedLoopJoin({label})"),
        )
    } else {
        let (out, stats) = exec::hash_join(
            l,
            r,
            &split.l_keys,
            &split.r_keys,
            HashJoinMode::Equi,
            split.residual.as_ref(),
            schema,
            &ctx.gov,
        )?;
        (out, Some(stats), format!("HashJoin({label})"))
    };
    let mut stats_op = op(label, l.len() + r.len(), out.len(), t0);
    if let Some(s) = join_stats {
        stats_op.build_rows = Some(s.build_rows);
        stats_op.probe_rows = Some(s.probe_rows);
    }
    ctx.record(stats_op);
    ctx.gov.charge_rows(out.len() as u64);
    ctx.gov.charge_mem(approx_rel_bytes(&out));
    Ok(out)
}

/// Filter a materialized relation, recording the operator under `label`.
pub fn filter_rel(
    rel: Relation,
    pred: &Expr,
    label: impl Into<String>,
    ctx: &mut ExecContext,
) -> Result<Relation> {
    ctx.gov.check("Filter")?;
    let t0 = Instant::now();
    let rows_in = rel.len();
    gsj_faults::fault_point("relational.filter", gsj_faults::FaultClass::Critical)?;
    let out = exec::filter(rel, pred, &ctx.gov)?;
    ctx.record(op(label.into(), rows_in, out.len(), t0));
    ctx.gov.charge_rows(out.len() as u64);
    Ok(out)
}

/// Group/aggregate a materialized relation, recording the operator.
pub fn aggregate_rel(
    rel: &Relation,
    group_by: &[String],
    aggs: &[AggSpec],
    label: impl Into<String>,
    ctx: &mut ExecContext,
) -> Result<Relation> {
    ctx.gov.check("Aggregate")?;
    let t0 = Instant::now();
    let out = exec::aggregate(rel, group_by, aggs, &ctx.gov)?;
    ctx.record(op(label.into(), rel.len(), out.len(), t0));
    ctx.gov.charge_rows(out.len() as u64);
    Ok(out)
}

/// Stable-sort a materialized relation, recording the operator.
pub fn sort_rel(
    rel: Relation,
    by: &[String],
    desc: bool,
    label: impl Into<String>,
    ctx: &mut ExecContext,
) -> Result<Relation> {
    ctx.gov.check("Sort")?;
    let t0 = Instant::now();
    let rows_in = rel.len();
    let out = exec::sort(rel, by, desc, &ctx.gov)?;
    ctx.record(op(label.into(), rows_in, out.len(), t0));
    Ok(out)
}

/// Truncate a materialized relation, recording the operator.
pub fn limit_rel(
    rel: Relation,
    n: usize,
    label: impl Into<String>,
    ctx: &mut ExecContext,
) -> Result<Relation> {
    ctx.gov.check("Limit")?;
    let t0 = Instant::now();
    let rows_in = rel.len();
    let out = rel.head(n);
    ctx.record(op(label.into(), rows_in, out.len(), t0));
    Ok(out)
}

/// Record an externally-executed operator (e.g. a semantic join) with
/// explicit cardinalities and timing.
pub fn record_external(
    label: impl Into<String>,
    rows_in: usize,
    rows_out: usize,
    t0: Instant,
    ctx: &mut ExecContext,
) {
    ctx.record(op(label.into(), rows_in, rows_out, t0));
}

/// Build the [`OpStats`] of an externally-executed operator, for use with
/// [`ExecContext::enter`] / [`ExecContext::exit`] when the operator has
/// children (e.g. a semantic join evaluating its source sub-plan).
pub fn external_stats(
    label: impl Into<String>,
    rows_in: usize,
    rows_out: usize,
    t0: Instant,
) -> OpStats {
    op(label.into(), rows_in, rows_out, t0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{customer, orders};
    use crate::expr::CmpOp;
    use gsj_common::GsjError;

    /// `customer as T1 ⋈ orders as T2` on `cid` through the operator.
    fn join_on_cid(ctx: &mut ExecContext) -> Result<Relation> {
        join_rel(
            &customer().qualified("T1"),
            &orders().qualified("T2"),
            &Expr::cmp(CmpOp::Eq, Expr::col("T1.cid"), Expr::col("T2.cid")),
            "customer ⋈ orders",
            ctx,
        )
    }

    #[test]
    fn stats_row_counts_are_consistent() {
        let mut ctx = ExecContext::new();
        let rel = filter_rel(
            customer(),
            &Expr::col_eq("credit", "good"),
            "Filter",
            &mut ctx,
        )
        .unwrap();
        assert_eq!(rel.len(), 2);
        let filter = ctx.ops().iter().find(|o| o.label == "Filter").unwrap();
        assert_eq!(filter.rows_in, 4);
        assert_eq!(filter.rows_out, 2);
    }

    #[test]
    fn ops_form_a_tree_with_parent_links() {
        // The shape gSQL records for a sub-query item: the enclosing
        // operator opens first, its children run, it closes last.
        let mut ctx = ExecContext::new();
        let t0 = Instant::now();
        let sub = ctx.enter();
        record_external("Scan(customer)", 4, 4, t0, &mut ctx);
        record_external("Scan(orders)", 3, 3, t0, &mut ctx);
        let joined = join_on_cid(&mut ctx).unwrap();
        let sorted = sort_rel(
            joined,
            &["T2.pid".to_string()],
            false,
            "Sort(pid)",
            &mut ctx,
        )
        .unwrap();
        let top = limit_rel(sorted, 2, "Limit(2)", &mut ctx).unwrap();
        ctx.exit(sub, external_stats("Subquery(as s)", 7, top.len(), t0));
        let labels: Vec<&str> = ctx.ops().iter().map(|o| o.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "Subquery(as s)",
                "Scan(customer)",
                "Scan(orders)",
                "HashJoin(customer ⋈ orders)",
                "Sort(pid)",
                "Limit(2)"
            ]
        );
        let parents: Vec<Option<usize>> = ctx.ops().iter().map(|o| o.parent).collect();
        assert_eq!(
            parents,
            vec![None, Some(0), Some(0), Some(0), Some(0), Some(0)]
        );
        assert_eq!(ctx.depth(0), 0);
        assert_eq!(ctx.depth(5), 1);
        // The sub-query's time already covers its children's: the total
        // counts the root once, however deep the plan under it.
        assert_eq!(ctx.total_nanos(), ctx.ops()[0].nanos);
        record_external("Limit(1)", 2, 1, t0, &mut ctx);
        assert_eq!(ctx.ops()[6].parent, None);
        assert_eq!(
            ctx.total_nanos(),
            ctx.ops()[0].nanos + ctx.ops()[6].nanos,
            "a second root adds its own time"
        );
        // Render indents children under their parent.
        let rendered = ctx.render();
        assert!(rendered.contains("\nSubquery(as s)"), "{rendered}");
        assert!(rendered.contains("\n  Limit(2)"), "{rendered}");
    }

    #[test]
    fn absorb_rebases_parent_links_under_the_open_operator() {
        let leaf = |label: &str| op(label.to_string(), 1, 1, Instant::now());
        let mut side = ExecContext::new();
        let sub = side.enter();
        side.record(leaf("Scan(a)"));
        side.exit(sub, leaf("Subquery(as s)"));
        let mut ctx = ExecContext::new();
        ctx.record(leaf("Scan(b)"));
        let join = ctx.enter();
        ctx.absorb(side);
        ctx.record(leaf("Filter(x)"));
        ctx.exit(join, leaf("LJoin(..)"));
        let parents: Vec<Option<usize>> = ctx.ops().iter().map(|o| o.parent).collect();
        // Scan(b), LJoin, Subquery → LJoin, Scan(a) → Subquery, Filter → LJoin.
        assert_eq!(parents, vec![None, None, Some(1), Some(2), Some(1)]);
        assert_eq!(ctx.depth(3), 2);
    }

    #[test]
    fn record_links_leaf_to_open_operator() {
        let mut ctx = ExecContext::new();
        let tok = ctx.enter();
        record_external("inner", 1, 1, Instant::now(), &mut ctx);
        ctx.exit(tok, op("outer".into(), 2, 2, Instant::now()));
        assert_eq!(ctx.ops()[0].label, "outer");
        assert_eq!(ctx.ops()[1].label, "inner");
        assert_eq!(ctx.ops()[1].parent, Some(0));
        assert_eq!(ctx.ops()[0].parent, None);
    }

    #[test]
    fn governed_execution_observes_cancel() {
        let gov = QueryGovernor::unlimited();
        gov.cancel();
        let mut ctx = ExecContext::with_governor(gov);
        assert_eq!(join_on_cid(&mut ctx).unwrap_err(), GsjError::Cancelled);
        let group_by = ["credit".to_string()];
        let aggs = [AggSpec::count_star("n")];
        let err = aggregate_rel(&customer(), &group_by, &aggs, "Aggregate", &mut ctx).unwrap_err();
        assert_eq!(err, GsjError::Cancelled);
        assert!(ctx.ops().is_empty(), "a cancelled operator records nothing");
    }

    #[test]
    fn governed_execution_trips_row_budget() {
        // The join charges its 3 output rows against a budget of 2; the
        // filter above it must observe the overrun at its boundary check.
        let gov = QueryGovernor::builder().row_budget(2).build();
        let mut ctx = ExecContext::with_governor(gov);
        let joined = join_on_cid(&mut ctx).unwrap();
        let err = filter_rel(joined, &Expr::lit(true), "Filter", &mut ctx).unwrap_err();
        assert!(
            matches!(err, GsjError::ResourceExhausted(ref m) if m.contains("row budget")),
            "{err}"
        );
    }

    #[test]
    fn governed_execution_trips_mem_budget() {
        // The first join charges its 3 matched pairs (8 B each) and its
        // output's two row-index vectors (4 B per row each): its columns
        // are deferred, so the cells they point at are the inputs'. A
        // second operator over the same context must trip a 40 B budget.
        let gov = QueryGovernor::builder().mem_budget(40).build();
        let mut ctx = ExecContext::with_governor(gov.clone());
        assert!(join_on_cid(&mut ctx).is_ok());
        assert_eq!(gov.mem_charged(), 3 * 8 + 2 * 3 * 4);
        let err = join_on_cid(&mut ctx).unwrap_err();
        assert!(matches!(err, GsjError::ResourceExhausted(_)), "{err}");
    }

    #[test]
    fn governed_helpers_check_and_charge() {
        let gov = QueryGovernor::builder().row_budget(1000).build();
        let mut ctx = ExecContext::with_governor(gov.clone());
        let out = filter_rel(
            customer(),
            &Expr::col_eq("credit", "good"),
            "Filter",
            &mut ctx,
        )
        .unwrap();
        assert_eq!(gov.rows_charged(), out.len() as u64);
        gov.cancel();
        let err = sort_rel(out, &["name".to_string()], false, "Sort", &mut ctx).unwrap_err();
        assert_eq!(err, GsjError::Cancelled);
    }

    #[test]
    fn ungoverned_context_is_unrestricted() {
        let mut ctx = ExecContext::new();
        assert!(!ctx.governor().is_limited());
        assert!(join_on_cid(&mut ctx).is_ok());
    }

    #[test]
    fn instrumented_helpers_record_ops() {
        let mut ctx = ExecContext::new();
        let joined = join_on_cid(&mut ctx).unwrap();
        assert_eq!(joined.len(), 3);
        assert_eq!(ctx.ops().len(), 1);
        assert!(ctx.ops()[0].label.starts_with("HashJoin("));
        assert_eq!(ctx.ops()[0].build_rows, Some(4));
        assert_eq!(ctx.ops()[0].probe_rows, Some(3));
        let rendered = ctx.render();
        assert!(rendered.contains("rows_out"));
        assert!(rendered.contains("customer ⋈ orders"));
    }
}
