//! The physical operator layer.
//!
//! [`lower`] turns a [`LogicalPlan`] into a [`PhysicalPlan`] operator
//! tree, making the execution strategy explicit: theta joins with
//! minable equi-conjuncts become [`PhysicalPlan::HashJoin`] nodes,
//! everything else a [`PhysicalPlan::NestedLoopJoin`]. [`execute_physical`]
//! runs the tree through the same vectorized columnar kernels as the
//! logical interpreter (see [`crate::exec`]) while threading an [`ExecContext`]
//! that records per-operator counters — rows in/out, build/probe sizes,
//! and wall time — for `EXPLAIN ANALYZE`-style reporting.
//!
//! The instrumented single-operator helpers ([`join_rel`], [`filter_rel`],
//! [`aggregate_rel`], …) let callers that fold over already-materialized
//! relations (the gSQL engine) collect the same statistics without
//! building a tree first.

use crate::catalog::Database;
use crate::exec::{
    self, concat_schema, equi_positions, hash_join_governed, natural_join_parts,
    nested_loop_governed, HashJoinMode,
};
use crate::expr::Expr;
use crate::plan::{AggSpec, JoinKind, LogicalPlan};
use crate::relation::Relation;
use crate::schema::Schema;
use gsj_common::{GsjError, QueryGovernor, Result};
use std::time::Instant;

/// Materialized size of a relation, for [`QueryGovernor::charge_mem`]:
/// the real columnar payload bytes (typed vectors + validity bitmaps +
/// string payloads), not a per-row estimate. Budgets are advisory
/// ceilings, not an allocator — but the charge now tracks what the
/// columns actually hold.
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
    /// Wall time spent in the operator itself (children excluded where
    /// the tree executor runs them separately).
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

    /// Total wall time across all recorded operators.
    pub fn total_nanos(&self) -> u128 {
        self.ops.iter().map(|o| o.nanos).sum()
    }

    /// Render the counters as an aligned text table (the body of
    /// `EXPLAIN ANALYZE`); nested operators indent under their parent.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>9} {:>9} {:>9} {:>9} {:>12}\n",
            "operator", "rows_in", "rows_out", "build", "probe", "time"
        ));
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
                format_nanos(op.nanos),
            ));
        }
        out.push_str(&format!(
            "total operator time: {}",
            format_nanos(self.total_nanos())
        ));
        out
    }
}

fn format_nanos(n: u128) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.2}µs", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

/// A physical operator tree. Column references stay *by name* and are
/// bound against the child's actual schema at execution time, exactly
/// like the logical interpreter — lowering chooses algorithms, not
/// offsets.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Full scan of a base table.
    Scan(String),
    /// An inline relation.
    Values(Relation),
    /// σ_pred.
    Filter {
        input: Box<PhysicalPlan>,
        pred: Expr,
    },
    /// π_cols (bag projection).
    Project {
        input: Box<PhysicalPlan>,
        cols: Vec<String>,
    },
    /// Prefix every attribute with `alias.`.
    Qualify {
        input: Box<PhysicalPlan>,
        alias: String,
    },
    /// Hash join; `keys` decides natural-merge vs equi-concat semantics.
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        keys: JoinKeys,
        /// Residual theta predicate re-verified per candidate pair
        /// (equi mode only).
        residual: Option<Expr>,
    },
    /// Nested-loop join over the concatenated schema.
    NestedLoopJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        pred: Expr,
        /// True when lowered from a natural join with no common
        /// attributes (a cartesian product) — affects the output schema
        /// name and the error message on attribute collisions.
        product: bool,
    },
    /// Bag union (keeps the left schema).
    Union {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
    },
    /// Bag difference `left − right`.
    Difference {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
    },
    /// Duplicate elimination (first occurrence wins).
    Distinct { input: Box<PhysicalPlan> },
    /// Group + aggregate.
    Aggregate {
        input: Box<PhysicalPlan>,
        group_by: Vec<String>,
        aggs: Vec<AggSpec>,
    },
    /// Stable sort.
    Sort {
        input: Box<PhysicalPlan>,
        by: Vec<String>,
        desc: bool,
    },
    /// First `n` rows.
    Limit { input: Box<PhysicalPlan>, n: usize },
}

/// How a [`PhysicalPlan::HashJoin`] keys and combines its inputs.
#[derive(Debug, Clone)]
pub enum JoinKeys {
    /// Key on all common attribute names; merge them in the output.
    Natural,
    /// Key on the mined equi pairs (parallel column-name lists resolved
    /// against each side); concatenate both schemas in the output.
    Equi {
        left: Vec<String>,
        right: Vec<String>,
    },
}

impl PhysicalPlan {
    /// One-line description of this operator (no children).
    pub fn describe(&self) -> String {
        match self {
            PhysicalPlan::Scan(name) => format!("Scan({name})"),
            PhysicalPlan::Values(rel) => {
                format!("Values({}, {} rows)", rel.schema().name(), rel.len())
            }
            PhysicalPlan::Filter { .. } => "Filter".into(),
            PhysicalPlan::Project { cols, .. } => format!("Project({})", cols.join(", ")),
            PhysicalPlan::Qualify { alias, .. } => format!("Qualify({alias})"),
            PhysicalPlan::HashJoin { keys, .. } => match keys {
                JoinKeys::Natural => "HashJoin(natural)".into(),
                JoinKeys::Equi { left, right } => {
                    let pairs: Vec<String> = left
                        .iter()
                        .zip(right)
                        .map(|(l, r)| format!("{l}={r}"))
                        .collect();
                    format!("HashJoin({})", pairs.join(", "))
                }
            },
            PhysicalPlan::NestedLoopJoin { product, .. } => {
                if *product {
                    "NestedLoopJoin(product)".into()
                } else {
                    "NestedLoopJoin(theta)".into()
                }
            }
            PhysicalPlan::Union { .. } => "Union".into(),
            PhysicalPlan::Difference { .. } => "Difference".into(),
            PhysicalPlan::Distinct { .. } => "Distinct".into(),
            PhysicalPlan::Aggregate { group_by, aggs, .. } => format!(
                "Aggregate(group_by=[{}], aggs={})",
                group_by.join(", "),
                aggs.len()
            ),
            PhysicalPlan::Sort { by, desc, .. } => format!(
                "Sort({}{})",
                by.join(", "),
                if *desc { " desc" } else { "" }
            ),
            PhysicalPlan::Limit { n, .. } => format!("Limit({n})"),
        }
    }

    /// Multi-line indented rendering of the whole tree.
    pub fn render(&self) -> String {
        fn walk(p: &PhysicalPlan, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&p.describe());
            out.push('\n');
            for child in p.children() {
                walk(child, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(self, 0, &mut out);
        out
    }

    fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::Scan(_) | PhysicalPlan::Values(_) => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Qualify { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => vec![input],
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::Union { left, right }
            | PhysicalPlan::Difference { left, right } => vec![left, right],
        }
    }
}

/// The output schema a plan will produce against `db`, computed without
/// touching any tuples. Mirrors the interpreter's schema derivations
/// operator by operator.
pub fn output_schema(plan: &LogicalPlan, db: &Database) -> Result<Schema> {
    match plan {
        LogicalPlan::Scan(name) => Ok(db.get(name)?.schema().clone()),
        LogicalPlan::Values(rel) => Ok(rel.schema().clone()),
        LogicalPlan::Select { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Sort { input, .. } => output_schema(input, db),
        LogicalPlan::Limit { input, .. } => output_schema(input, db),
        LogicalPlan::Project { input, cols } => {
            let s = output_schema(input, db)?;
            let positions: Vec<usize> = cols
                .iter()
                .map(|c| Expr::resolve_column(&s, c))
                .collect::<Result<_>>()?;
            let attrs: Vec<String> = positions.iter().map(|&i| s.attrs()[i].clone()).collect();
            Schema::new(s.name().to_string(), attrs)
        }
        LogicalPlan::Qualify { input, alias } => Ok(output_schema(input, db)?.qualify(alias)),
        LogicalPlan::Join { left, right, kind } => {
            let ls = output_schema(left, db)?;
            let rs = output_schema(right, db)?;
            join_schema(&ls, &rs, kind)
        }
        LogicalPlan::Union { left, .. } | LogicalPlan::Difference { left, .. } => {
            output_schema(left, db)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let s = output_schema(input, db)?;
            let mut attrs: Vec<String> = group_by
                .iter()
                .map(|c| Expr::resolve_column(&s, c).map(|i| s.attrs()[i].clone()))
                .collect::<Result<_>>()?;
            attrs.extend(aggs.iter().map(|a| a.alias.clone()));
            Schema::new(format!("{}_agg", s.name()), attrs)
        }
    }
}

fn join_schema(ls: &Schema, rs: &Schema, kind: &JoinKind) -> Result<Schema> {
    match kind {
        JoinKind::Natural => {
            let common = ls.common_attrs(rs);
            if common.is_empty() {
                let mut attrs = ls.attrs().to_vec();
                attrs.extend(rs.attrs().iter().cloned());
                return Schema::new(format!("{}_x_{}", ls.name(), rs.name()), attrs);
            }
            let r_keys: Vec<usize> = common
                .iter()
                .map(|a| rs.require(a))
                .collect::<Result<_>>()?;
            let mut attrs = ls.attrs().to_vec();
            attrs.extend(
                (0..rs.arity())
                    .filter(|i| !r_keys.contains(i))
                    .map(|i| rs.attrs()[i].clone()),
            );
            Schema::new(format!("{}_join_{}", ls.name(), rs.name()), attrs)
        }
        JoinKind::Theta(_) => {
            let mut attrs = ls.attrs().to_vec();
            attrs.extend(rs.attrs().iter().cloned());
            Schema::new(format!("{}_tj_{}", ls.name(), rs.name()), attrs)
        }
    }
}

/// Lower a logical plan to a physical operator tree. Join algorithms are
/// chosen here: theta predicates are mined for equi-conjuncts (hash
/// join) with the rest kept as a residual; natural joins with no common
/// attributes become products.
pub fn lower(plan: &LogicalPlan, db: &Database) -> Result<PhysicalPlan> {
    Ok(match plan {
        LogicalPlan::Scan(name) => PhysicalPlan::Scan(name.clone()),
        LogicalPlan::Values(rel) => PhysicalPlan::Values(rel.clone()),
        LogicalPlan::Select { input, pred } => PhysicalPlan::Filter {
            input: Box::new(lower(input, db)?),
            pred: pred.clone(),
        },
        LogicalPlan::Project { input, cols } => PhysicalPlan::Project {
            input: Box::new(lower(input, db)?),
            cols: cols.clone(),
        },
        LogicalPlan::Qualify { input, alias } => PhysicalPlan::Qualify {
            input: Box::new(lower(input, db)?),
            alias: alias.clone(),
        },
        LogicalPlan::Join { left, right, kind } => {
            let ls = output_schema(left, db)?;
            let rs = output_schema(right, db)?;
            let l = Box::new(lower(left, db)?);
            let r = Box::new(lower(right, db)?);
            match kind {
                JoinKind::Natural => {
                    if ls.common_attrs(&rs).is_empty() {
                        PhysicalPlan::NestedLoopJoin {
                            left: l,
                            right: r,
                            pred: Expr::lit(true),
                            product: true,
                        }
                    } else {
                        PhysicalPlan::HashJoin {
                            left: l,
                            right: r,
                            keys: JoinKeys::Natural,
                            residual: None,
                        }
                    }
                }
                JoinKind::Theta(pred) => {
                    let (l_keys, r_keys) = equi_positions(pred, &ls, &rs);
                    if l_keys.is_empty() {
                        PhysicalPlan::NestedLoopJoin {
                            left: l,
                            right: r,
                            pred: pred.clone(),
                            product: false,
                        }
                    } else {
                        PhysicalPlan::HashJoin {
                            left: l,
                            right: r,
                            keys: JoinKeys::Equi {
                                left: l_keys.iter().map(|&i| ls.attrs()[i].clone()).collect(),
                                right: r_keys.iter().map(|&i| rs.attrs()[i].clone()).collect(),
                            },
                            residual: Some(pred.clone()),
                        }
                    }
                }
            }
        }
        LogicalPlan::Union { left, right } => PhysicalPlan::Union {
            left: Box::new(lower(left, db)?),
            right: Box::new(lower(right, db)?),
        },
        LogicalPlan::Difference { left, right } => PhysicalPlan::Difference {
            left: Box::new(lower(left, db)?),
            right: Box::new(lower(right, db)?),
        },
        LogicalPlan::Distinct { input } => PhysicalPlan::Distinct {
            input: Box::new(lower(input, db)?),
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => PhysicalPlan::Aggregate {
            input: Box::new(lower(input, db)?),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        LogicalPlan::Sort { input, by, desc } => PhysicalPlan::Sort {
            input: Box::new(lower(input, db)?),
            by: by.clone(),
            desc: *desc,
        },
        LogicalPlan::Limit { input, n } => PhysicalPlan::Limit {
            input: Box::new(lower(input, db)?),
            n: *n,
        },
    })
}

/// Execute a physical plan, recording per-operator counters into `ctx`.
/// Produces exactly the relation the logical interpreter would (same
/// schema, same tuple order). Each operator reserves its `ctx` slot
/// *before* running its children, so the recorded stats form a tree
/// (pre-order, [`OpStats::parent`] links) mirroring the plan.
pub fn execute_physical(
    plan: &PhysicalPlan,
    db: &Database,
    ctx: &mut ExecContext,
) -> Result<Relation> {
    // Governance boundary: every operator (the recursion reaches each
    // one) checks cancellation / deadline / budgets before running and
    // charges its output afterwards, so a runaway plan is stopped at
    // operator granularity rather than discovered at the end.
    ctx.gov.check(stage_name(plan))?;
    let out = execute_node(plan, db, ctx)?;
    ctx.gov.charge_rows(out.len() as u64);
    ctx.gov.charge_mem(approx_rel_bytes(&out));
    Ok(out)
}

/// Static stage name for governance errors — `describe()` allocates,
/// and the check runs on every operator entry.
fn stage_name(plan: &PhysicalPlan) -> &'static str {
    match plan {
        PhysicalPlan::Scan(_) => "Scan",
        PhysicalPlan::Values(_) => "Values",
        PhysicalPlan::Filter { .. } => "Filter",
        PhysicalPlan::Project { .. } => "Project",
        PhysicalPlan::Qualify { .. } => "Qualify",
        PhysicalPlan::HashJoin { .. } => "HashJoin",
        PhysicalPlan::NestedLoopJoin { .. } => "NestedLoopJoin",
        PhysicalPlan::Union { .. } => "Union",
        PhysicalPlan::Difference { .. } => "Difference",
        PhysicalPlan::Distinct { .. } => "Distinct",
        PhysicalPlan::Aggregate { .. } => "Aggregate",
        PhysicalPlan::Sort { .. } => "Sort",
        PhysicalPlan::Limit { .. } => "Limit",
    }
}

fn execute_node(plan: &PhysicalPlan, db: &Database, ctx: &mut ExecContext) -> Result<Relation> {
    let token = ctx.enter();
    match plan {
        PhysicalPlan::Scan(name) => {
            let t0 = Instant::now();
            let rel = db.get(name)?.clone();
            let n = rel.len();
            ctx.exit(token, op(plan.describe(), n, n, t0));
            Ok(rel)
        }
        PhysicalPlan::Values(rel) => {
            ctx.exit(
                token,
                op(plan.describe(), rel.len(), rel.len(), Instant::now()),
            );
            Ok(rel.clone())
        }
        PhysicalPlan::Filter { input, pred } => {
            let rel = execute_physical(input, db, ctx)?;
            let t0 = Instant::now();
            let rows_in = rel.len();
            let gov = ctx.gov.clone();
            let out = exec::filter_gov(rel, pred, Some(&gov))?;
            ctx.exit(token, op(plan.describe(), rows_in, out.len(), t0));
            Ok(out)
        }
        PhysicalPlan::Project { input, cols } => {
            let rel = execute_physical(input, db, ctx)?;
            let t0 = Instant::now();
            let out = exec::project(&rel, cols)?;
            ctx.exit(token, op(plan.describe(), rel.len(), out.len(), t0));
            Ok(out)
        }
        PhysicalPlan::Qualify { input, alias } => {
            let rel = execute_physical(input, db, ctx)?;
            let t0 = Instant::now();
            let n = rel.len();
            let out = rel.qualified(alias);
            ctx.exit(token, op(plan.describe(), n, n, t0));
            Ok(out)
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            keys,
            residual,
        } => {
            let l = execute_physical(left, db, ctx)?;
            let r = execute_physical(right, db, ctx)?;
            let t0 = Instant::now();
            let gov = ctx.gov.clone();
            let (out, stats) = match keys {
                JoinKeys::Natural => match natural_join_parts(&l, &r)? {
                    Some((l_keys, r_keys, schema)) => hash_join_governed(
                        &l,
                        &r,
                        &l_keys,
                        &r_keys,
                        HashJoinMode::Natural,
                        None,
                        schema,
                        Some(&gov),
                    )?,
                    None => {
                        return Err(GsjError::Schema(format!(
                            "hash join lowered as natural but {} and {} share no attributes",
                            l.schema().name(),
                            r.schema().name()
                        )))
                    }
                },
                JoinKeys::Equi {
                    left: lc,
                    right: rc,
                } => {
                    let schema = concat_schema(&l, &r, "_tj_", "theta join")?;
                    let l_keys: Vec<usize> = lc
                        .iter()
                        .map(|c| Expr::resolve_column(l.schema(), c))
                        .collect::<Result<_>>()?;
                    let r_keys: Vec<usize> = rc
                        .iter()
                        .map(|c| Expr::resolve_column(r.schema(), c))
                        .collect::<Result<_>>()?;
                    hash_join_governed(
                        &l,
                        &r,
                        &l_keys,
                        &r_keys,
                        HashJoinMode::Equi,
                        residual.as_ref(),
                        schema,
                        Some(&gov),
                    )?
                }
            };
            let mut stats_op = op(plan.describe(), l.len() + r.len(), out.len(), t0);
            stats_op.build_rows = Some(stats.build_rows);
            stats_op.probe_rows = Some(stats.probe_rows);
            ctx.exit(token, stats_op);
            Ok(out)
        }
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            pred,
            product,
        } => {
            let l = execute_physical(left, db, ctx)?;
            let r = execute_physical(right, db, ctx)?;
            let t0 = Instant::now();
            let out = if *product {
                exec::product(&l, &r)?
            } else {
                let schema = concat_schema(&l, &r, "_tj_", "theta join")?;
                let gov = ctx.gov.clone();
                nested_loop_governed(&l, &r, pred, schema, Some(&gov))?
            };
            ctx.exit(token, op(plan.describe(), l.len() + r.len(), out.len(), t0));
            Ok(out)
        }
        PhysicalPlan::Union { left, right } => {
            let l = execute_physical(left, db, ctx)?;
            let r = execute_physical(right, db, ctx)?;
            let t0 = Instant::now();
            let rows_in = l.len() + r.len();
            let out = exec::union(l, r)?;
            ctx.exit(token, op(plan.describe(), rows_in, out.len(), t0));
            Ok(out)
        }
        PhysicalPlan::Difference { left, right } => {
            let l = execute_physical(left, db, ctx)?;
            let r = execute_physical(right, db, ctx)?;
            let t0 = Instant::now();
            let rows_in = l.len() + r.len();
            let out = exec::difference(l, &r)?;
            ctx.exit(token, op(plan.describe(), rows_in, out.len(), t0));
            Ok(out)
        }
        PhysicalPlan::Distinct { input } => {
            let rel = execute_physical(input, db, ctx)?;
            let t0 = Instant::now();
            let rows_in = rel.len();
            let out = exec::distinct(rel);
            ctx.exit(token, op(plan.describe(), rows_in, out.len(), t0));
            Ok(out)
        }
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let rel = execute_physical(input, db, ctx)?;
            let t0 = Instant::now();
            let gov = ctx.gov.clone();
            let out = exec::aggregate_gov(&rel, group_by, aggs, Some(&gov))?;
            ctx.exit(token, op(plan.describe(), rel.len(), out.len(), t0));
            Ok(out)
        }
        PhysicalPlan::Sort { input, by, desc } => {
            let rel = execute_physical(input, db, ctx)?;
            let t0 = Instant::now();
            let rows_in = rel.len();
            let out = exec::sort(rel, by, *desc)?;
            ctx.exit(token, op(plan.describe(), rows_in, out.len(), t0));
            Ok(out)
        }
        PhysicalPlan::Limit { input, n } => {
            let rel = execute_physical(input, db, ctx)?;
            let t0 = Instant::now();
            let rows_in = rel.len();
            let out = rel.head(*n);
            ctx.exit(token, op(plan.describe(), rows_in, out.len(), t0));
            Ok(out)
        }
    }
}

/// Lower and execute in one step, returning the result together with the
/// per-operator statistics.
pub fn execute_with_stats(plan: &LogicalPlan, db: &Database) -> Result<(Relation, ExecContext)> {
    let physical = lower(plan, db)?;
    let mut ctx = ExecContext::new();
    let rel = execute_physical(&physical, db, &mut ctx)?;
    Ok((rel, ctx))
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
    let (l_keys, r_keys) = equi_positions(pred, l.schema(), r.schema());
    let label = label.into();
    let gov = ctx.gov.clone();
    let (out, join_stats, label) = if l_keys.is_empty() {
        (
            nested_loop_governed(l, r, pred, schema, Some(&gov))?,
            None,
            format!("NestedLoopJoin({label})"),
        )
    } else {
        let (out, stats) = hash_join_governed(
            l,
            r,
            &l_keys,
            &r_keys,
            HashJoinMode::Equi,
            Some(pred),
            schema,
            Some(&gov),
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
    let gov = ctx.gov.clone();
    let out = exec::filter_gov(rel, pred, Some(&gov))?;
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
    let gov = ctx.gov.clone();
    let out = exec::aggregate_gov(rel, group_by, aggs, Some(&gov))?;
    ctx.record(op(label.into(), rel.len(), out.len(), t0));
    ctx.gov.charge_rows(out.len() as u64);
    Ok(out)
}

/// Project a materialized relation, recording the operator.
pub fn project_rel(
    rel: &Relation,
    cols: &[String],
    label: impl Into<String>,
    ctx: &mut ExecContext,
) -> Result<Relation> {
    ctx.gov.check("Project")?;
    let t0 = Instant::now();
    let out = exec::project(rel, cols)?;
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
    let out = exec::sort(rel, by, desc)?;
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
    use crate::expr::CmpOp;
    use gsj_common::Value;

    fn db() -> Database {
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
        let mut orders = Relation::empty(Schema::of("orders", &["cid", "pid"]));
        for (cid, pid) in [("cid01", "fd1"), ("cid02", "fd2"), ("cid02", "fd3")] {
            orders
                .push_values(vec![Value::str(cid), Value::str(pid)])
                .unwrap();
        }
        let mut db = Database::new();
        db.insert(customer);
        db.insert(orders);
        db
    }

    fn assert_same(plan: &LogicalPlan, db: &Database) -> ExecContext {
        let expected = exec::execute(plan, db).unwrap();
        let (got, ctx) = execute_with_stats(plan, db).unwrap();
        assert_eq!(expected, got);
        ctx
    }

    #[test]
    fn lower_picks_hash_join_for_equi_theta() {
        let db = db();
        let plan = LogicalPlan::scan("customer").qualify("T1").theta_join(
            LogicalPlan::scan("customer").qualify("T2"),
            Expr::cmp(CmpOp::Eq, Expr::col("T1.name"), Expr::col("T2.name")).and(Expr::cmp(
                CmpOp::Ne,
                Expr::col("T1.cid"),
                Expr::col("T2.cid"),
            )),
        );
        let phys = lower(&plan, &db).unwrap();
        assert!(phys.render().contains("HashJoin(T1.name=T2.name)"));
        let ctx = assert_same(&plan, &db);
        let join = ctx
            .ops()
            .iter()
            .find(|o| o.label.starts_with("HashJoin"))
            .unwrap();
        assert_eq!(join.build_rows, Some(4));
        assert_eq!(join.probe_rows, Some(4));
        assert_eq!(join.rows_out, 2);
    }

    #[test]
    fn lower_picks_nested_loop_for_non_equi() {
        let db = db();
        let plan = LogicalPlan::scan("customer").qualify("T1").theta_join(
            LogicalPlan::scan("customer").qualify("T2"),
            Expr::cmp(CmpOp::Lt, Expr::col("T1.bal"), Expr::col("T2.bal")),
        );
        let phys = lower(&plan, &db).unwrap();
        assert!(phys.render().contains("NestedLoopJoin(theta)"));
        assert_same(&plan, &db);
    }

    #[test]
    fn natural_join_and_product_lowering() {
        let db = db();
        let join = LogicalPlan::scan("customer").natural_join(LogicalPlan::scan("orders"));
        assert!(lower(&join, &db)
            .unwrap()
            .render()
            .contains("HashJoin(natural)"));
        assert_same(&join, &db);

        let product = LogicalPlan::scan("customer")
            .project(&["name"])
            .qualify("A")
            .natural_join(LogicalPlan::scan("orders").project(&["pid"]).qualify("B"));
        assert!(lower(&product, &db)
            .unwrap()
            .render()
            .contains("NestedLoopJoin(product)"));
        assert_same(&product, &db);
    }

    #[test]
    fn full_pipeline_matches_interpreter() {
        let db = db();
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(LogicalPlan::Aggregate {
                    input: Box::new(
                        LogicalPlan::scan("customer").natural_join(LogicalPlan::scan("orders")),
                    ),
                    group_by: vec!["name".into()],
                    aggs: vec![crate::plan::AggSpec::count_star("n")],
                }),
                by: vec!["n".into()],
                desc: true,
            }),
            n: 1,
        };
        let ctx = assert_same(&plan, &db);
        // Scans, join, aggregate, sort, limit all recorded.
        assert_eq!(ctx.ops().len(), 6);
        assert!(ctx.render().contains("Aggregate"));
    }

    #[test]
    fn stats_row_counts_are_consistent() {
        let db = db();
        let plan = LogicalPlan::scan("customer").select(Expr::col_eq("credit", "good"));
        let (rel, ctx) = execute_with_stats(&plan, &db).unwrap();
        assert_eq!(rel.len(), 2);
        let filter = ctx.ops().iter().find(|o| o.label == "Filter").unwrap();
        assert_eq!(filter.rows_in, 4);
        assert_eq!(filter.rows_out, 2);
    }

    #[test]
    fn union_difference_distinct_match() {
        let db = db();
        let good = LogicalPlan::scan("customer")
            .select(Expr::col_eq("credit", "good"))
            .project(&["name"]);
        let fair = LogicalPlan::scan("customer")
            .select(Expr::col_eq("credit", "fair"))
            .project(&["name"]);
        let plan = LogicalPlan::Distinct {
            input: Box::new(LogicalPlan::Union {
                left: Box::new(good.clone()),
                right: Box::new(fair.clone()),
            }),
        };
        assert_same(&plan, &db);
        let diff = LogicalPlan::Difference {
            left: Box::new(good),
            right: Box::new(fair),
        };
        assert_same(&diff, &db);
    }

    #[test]
    fn ops_form_a_tree_with_parent_links() {
        let db = db();
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(
                    LogicalPlan::scan("customer").natural_join(LogicalPlan::scan("orders")),
                ),
                by: vec!["pid".into()],
                desc: false,
            }),
            n: 2,
        };
        let (_, ctx) = execute_with_stats(&plan, &db).unwrap();
        // Pre-order: Limit, Sort, HashJoin, Scan, Scan.
        let labels: Vec<&str> = ctx.ops().iter().map(|o| o.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "Limit(2)",
                "Sort(pid)",
                "HashJoin(natural)",
                "Scan(customer)",
                "Scan(orders)"
            ]
        );
        let parents: Vec<Option<usize>> = ctx.ops().iter().map(|o| o.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(2), Some(2)]);
        assert_eq!(ctx.depth(0), 0);
        assert_eq!(ctx.depth(4), 3);
        // Render indents children under their parent.
        let rendered = ctx.render();
        assert!(rendered.contains("\n  Sort(pid)"), "{rendered}");
        assert!(rendered.contains("\n      Scan(orders)"), "{rendered}");
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
        let db = db();
        let plan = lower(
            &LogicalPlan::scan("customer").natural_join(LogicalPlan::scan("orders")),
            &db,
        )
        .unwrap();
        let gov = QueryGovernor::unlimited();
        gov.cancel();
        let mut ctx = ExecContext::with_governor(gov);
        let err = execute_physical(&plan, &db, &mut ctx).unwrap_err();
        assert_eq!(err, GsjError::Cancelled);
    }

    #[test]
    fn governed_execution_trips_row_budget() {
        let db = db();
        // Scan(4 rows) already exceeds a budget of 3; the join above it
        // must observe the overrun at its boundary check.
        let plan = lower(
            &LogicalPlan::scan("customer").natural_join(LogicalPlan::scan("orders")),
            &db,
        )
        .unwrap();
        let gov = QueryGovernor::builder().row_budget(3).build();
        let mut ctx = ExecContext::with_governor(gov);
        let err = execute_physical(&plan, &db, &mut ctx).unwrap_err();
        assert!(
            matches!(err, GsjError::ResourceExhausted(ref m) if m.contains("row budget")),
            "{err}"
        );
    }

    #[test]
    fn governed_execution_trips_mem_budget() {
        let db = db();
        let plan = lower(&LogicalPlan::scan("customer"), &db).unwrap();
        // The first scan charges the real columnar bytes of the 4-row
        // customer table (well over 100 B of string payloads); a second
        // run over the same context must trip a 100 B budget.
        let gov = QueryGovernor::builder().mem_budget(100).build();
        let mut ctx = ExecContext::with_governor(gov.clone());
        assert!(execute_physical(&plan, &db, &mut ctx).is_ok());
        assert!(gov.mem_charged() > 100);
        let err = execute_physical(&plan, &db, &mut ctx).unwrap_err();
        assert!(matches!(err, GsjError::ResourceExhausted(_)), "{err}");
    }

    #[test]
    fn governed_helpers_check_and_charge() {
        let db = db();
        let customer = db.get("customer").unwrap().clone();
        let gov = QueryGovernor::builder().row_budget(1000).build();
        let mut ctx = ExecContext::with_governor(gov.clone());
        let out = filter_rel(
            customer,
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
        let db = db();
        let plan = lower(&LogicalPlan::scan("customer"), &db).unwrap();
        let mut ctx = ExecContext::new();
        assert!(!ctx.governor().is_limited());
        assert!(execute_physical(&plan, &db, &mut ctx).is_ok());
    }

    #[test]
    fn instrumented_helpers_record_ops() {
        let db = db();
        let customer = db.get("customer").unwrap().qualified("T1");
        let orders = db.get("orders").unwrap().qualified("T2");
        let mut ctx = ExecContext::new();
        let joined = join_rel(
            &customer,
            &orders,
            &Expr::cmp(CmpOp::Eq, Expr::col("T1.cid"), Expr::col("T2.cid")),
            "EJoin-ish",
            &mut ctx,
        )
        .unwrap();
        assert_eq!(joined.len(), 3);
        assert_eq!(ctx.ops().len(), 1);
        assert!(ctx.ops()[0].label.starts_with("HashJoin("));
        assert_eq!(ctx.ops()[0].build_rows, Some(4));
        let rendered = ctx.render();
        assert!(rendered.contains("rows_out"));
        assert!(rendered.contains("EJoin-ish"));
    }
}
