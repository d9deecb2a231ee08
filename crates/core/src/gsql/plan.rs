//! gSQL planning and plan execution.
//!
//! [`GsqlEngine::plan_query`] turns a parsed [`Query`] into a
//! [`QueryPlan`] whose FROM items are physical: semantic joins appear as
//! first-class operators ([`ItemPlan::EJoin`], [`ItemPlan::LJoin`]) with
//! the implementation chosen up front by the strategy rewrites in
//! [`super::strategies`]. [`GsqlEngine::execute_plan`] then runs the
//! plan through the instrumented relational helpers
//! ([`gsj_relational::physical`]), so every operator — scans, semantic
//! joins, pushed-down filters, the left-to-right theta-join fold,
//! aggregation, sort, limit — records rows in/out and wall time into an
//! [`ExecContext`] for `EXPLAIN ANALYZE`. `EXPLAIN` itself is
//! [`GsqlEngine::render_plan`]: the same [`QueryPlan`], printed.
//!
//! WHERE is bound *before* any link join runs: a link join's output
//! schema is the concatenation of its two qualified sides, so the full
//! FROM schema is known once every item's sources are evaluated, and
//! every conjunct that resolves on one side of an `l-join` is applied to
//! that side first (`Filter(..)` nested under `LJoin(..)`). All three
//! implementations resolve tuples to vertices one tuple at a time (HER
//! scores a tuple against the graph's block index, `vertex_of` and the
//! heuristic ER look one row up), so selection commutes with the join.
//! Enrichment joins are *not* pushed below: `EJoinImpl::Online` discovers
//! its extraction scheme from the input relation.

use super::analyze::{is_well_behaved, source_base};
use super::ast::{FromItem, Projection, Query, Source};
use super::exec::{GsqlEngine, Strategy};
use super::strategies::{self, EJoinImpl, LJoinImpl};
use gsj_common::{GsjError, Result, Value};
use gsj_relational::physical::{self, ExecContext};
use gsj_relational::{AggSpec, Expr, Relation, Schema};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A planned query: the original AST plus one physical item per FROM
/// entry, with every semantic join's implementation already chosen.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The parsed query (projections, WHERE, ORDER BY, ... drive the
    /// relational tail of the pipeline).
    pub query: Query,
    /// One physical operator per FROM item.
    pub items: Vec<ItemPlan>,
    /// The strategy the plan was built for.
    pub strategy: Strategy,
}

/// A planned FROM-item source.
#[derive(Debug, Clone)]
pub enum SourcePlan {
    /// A base relation scanned from the catalog.
    Base(String),
    /// A planned sub-query.
    Sub(Box<QueryPlan>),
}

/// A planned enrichment join.
#[derive(Debug, Clone)]
pub struct EJoinPlan {
    /// The input source.
    pub source: SourcePlan,
    /// The traced base relation (carries the id attribute).
    pub base: String,
    /// The graph joined against.
    pub graph: String,
    /// Requested enrichment keywords `G<A>`.
    pub keywords: Vec<String>,
    /// Output alias.
    pub alias: Option<String>,
    /// The chosen implementation.
    pub imp: EJoinImpl,
}

/// A planned link join.
#[derive(Debug, Clone)]
pub struct LJoinPlan {
    /// Left source and its traced base / qualification alias.
    pub left: SourcePlan,
    /// Left traced base relation.
    pub lbase: String,
    /// Left qualification alias.
    pub lalias: String,
    /// Right source.
    pub right: SourcePlan,
    /// Right traced base relation.
    pub rbase: String,
    /// Right qualification alias.
    pub ralias: String,
    /// The graph providing connectivity.
    pub graph: String,
    /// The chosen implementation.
    pub imp: LJoinImpl,
}

/// One physical FROM item.
#[derive(Debug, Clone)]
pub enum ItemPlan {
    /// A plain (non-semantic) source, qualified under `name`.
    Plain {
        /// The source.
        source: SourcePlan,
        /// Qualification alias.
        name: String,
    },
    /// An enrichment join.
    EJoin(EJoinPlan),
    /// A link join.
    LJoin(LJoinPlan),
}

impl ItemPlan {
    /// One-line description (the FROM-item lines of `EXPLAIN ANALYZE`).
    pub fn describe(&self, k: usize) -> String {
        match self {
            ItemPlan::Plain { source, name } => match source {
                SourcePlan::Base(b) => format!("Scan({b} as {name})"),
                SourcePlan::Sub(_) => format!("Subquery(as {name})"),
            },
            ItemPlan::EJoin(p) => format!(
                "EJoin({}<{}> over {}, {})",
                p.graph,
                p.keywords.join(", "),
                p.base,
                p.imp.tag()
            ),
            ItemPlan::LJoin(p) => format!(
                "LJoin(<{}> {} × {}, k={}, {})",
                p.graph,
                p.lbase,
                p.rbase,
                k,
                p.imp.tag()
            ),
        }
    }
}

/// `EXPLAIN ANALYZE` label for a semantic join: the planned description,
/// annotated with the implementation that actually ran when the strategy
/// degraded mid-query.
fn degraded_label(planned: String, outcome: &strategies::JoinOutcome) -> String {
    if outcome.degraded {
        format!("{planned} [degraded → {}]", outcome.used)
    } else {
        planned
    }
}

/// A FROM item once its sources ran, before WHERE is bound.
enum Staged<'a> {
    /// Fully evaluated: a plain source or an enrichment join.
    Ready(Relation),
    /// A link join whose sides wait for the conjuncts that resolve on
    /// one of them.
    Link(Box<StagedLink<'a>>),
}

struct StagedLink<'a> {
    plan: &'a LJoinPlan,
    /// The planned operator label.
    label: String,
    /// The qualified sides.
    lrel: Relation,
    rrel: Relation,
    /// What evaluating the sides recorded; becomes the join's children.
    side_ops: ExecContext,
    /// Wall time of evaluating the sides.
    side_time: Duration,
}

impl Staged<'_> {
    /// The attributes this item contributes to the FROM schema.
    fn attrs(&self) -> impl Iterator<Item = &String> {
        let (a, b) = match self {
            Staged::Ready(rel) => (rel, None),
            Staged::Link(link) => (&link.lrel, Some(&link.rrel)),
        };
        let rest = b.map_or(&[][..], |r| r.schema().attrs());
        a.schema().attrs().iter().chain(rest)
    }
}

impl GsqlEngine {
    /// Plan a parsed query under a strategy: every FROM item becomes a
    /// physical [`ItemPlan`] with its semantic-join implementation fixed.
    pub fn plan_query(&self, q: &Query, strategy: Strategy) -> Result<QueryPlan> {
        let mut items = Vec::with_capacity(q.from.len());
        for (i, item) in q.from.iter().enumerate() {
            items.push(self.plan_from_item(item, i, strategy)?);
        }
        Ok(QueryPlan {
            query: q.clone(),
            items,
            strategy,
        })
    }

    fn plan_source(&self, source: &Source, strategy: Strategy) -> Result<SourcePlan> {
        Ok(match source {
            Source::Base(name) => SourcePlan::Base(name.clone()),
            Source::Sub(sub) => SourcePlan::Sub(Box::new(self.plan_query(sub, strategy)?)),
        })
    }

    fn plan_from_item(
        &self,
        item: &FromItem,
        index: usize,
        strategy: Strategy,
    ) -> Result<ItemPlan> {
        match item {
            FromItem::Plain { source, alias } => {
                let name = alias.clone().unwrap_or_else(|| match source {
                    Source::Base(b) => b.clone(),
                    Source::Sub(_) => format!("sub{index}"),
                });
                Ok(ItemPlan::Plain {
                    source: self.plan_source(source, strategy)?,
                    name,
                })
            }
            FromItem::EJoin {
                source,
                graph,
                keywords,
                alias,
            } => {
                let base = source_base(source, &self.id_attrs).ok_or_else(|| {
                    GsjError::Unsupported(
                        "e-join source is not traceable to a base relation".into(),
                    )
                })?;
                let imp = strategies::choose_ejoin(
                    self,
                    strategy,
                    &base,
                    graph,
                    keywords,
                    matches!(source, Source::Base(_)),
                );
                Ok(ItemPlan::EJoin(EJoinPlan {
                    source: self.plan_source(source, strategy)?,
                    base,
                    graph: graph.clone(),
                    keywords: keywords.clone(),
                    alias: alias.clone(),
                    imp,
                }))
            }
            FromItem::LJoin {
                left,
                graph,
                right,
                right_alias,
            } => {
                let lbase = source_base(left, &self.id_attrs).ok_or_else(|| {
                    GsjError::Unsupported("l-join left source not traceable".into())
                })?;
                let rbase = source_base(right, &self.id_attrs).ok_or_else(|| {
                    GsjError::Unsupported("l-join right source not traceable".into())
                })?;
                let lalias = lbase.clone();
                let ralias = match right_alias.as_deref() {
                    Some(a) => a.to_string(),
                    None if rbase != lbase => rbase.clone(),
                    None => {
                        return Err(GsjError::Parse(
                            "self l-join requires an alias for the right side".into(),
                        ))
                    }
                };
                Ok(ItemPlan::LJoin(LJoinPlan {
                    left: self.plan_source(left, strategy)?,
                    lbase,
                    lalias,
                    right: self.plan_source(right, strategy)?,
                    rbase,
                    ralias,
                    graph: graph.clone(),
                    imp: strategies::choose_ljoin(strategy),
                }))
            }
        }
    }

    /// The `EXPLAIN` text of a plan: one line per FROM item — the traced
    /// base relation and the implementation the strategy rewrite chose —
    /// with sub-plans indented under the item that evaluates them, then
    /// the well-behaved verdict of that query level. (A link join's
    /// sides are named by their traced bases only.)
    pub(super) fn render_plan(&self, plan: &QueryPlan) -> String {
        let mut out = String::new();
        self.render_plan_at(plan, 0, &mut out);
        out
    }

    fn render_plan_at(&self, plan: &QueryPlan, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        for item in &plan.items {
            let (line, sub) = match item {
                ItemPlan::Plain { source, name } => match source {
                    SourcePlan::Base(base) if base == name => (format!("scan {base}"), None),
                    SourcePlan::Base(base) => (format!("scan {base} as {name}"), None),
                    SourcePlan::Sub(sub) => ("subquery:".to_string(), Some(sub)),
                },
                ItemPlan::EJoin(p) => (
                    format!(
                        "e-join {}<{}> over {} — {}",
                        p.graph,
                        p.keywords.join(", "),
                        p.base,
                        p.imp.describe()
                    ),
                    match &p.source {
                        SourcePlan::Base(_) => None,
                        SourcePlan::Sub(sub) => Some(sub),
                    },
                ),
                ItemPlan::LJoin(p) => (
                    format!(
                        "l-join <{}> {} × {} (k = {}) — {}",
                        p.graph,
                        p.lbase,
                        p.rbase,
                        self.k,
                        p.imp.describe()
                    ),
                    None,
                ),
            };
            let _ = writeln!(out, "{pad}{line}");
            if let Some(sub) = sub {
                self.render_plan_at(sub, depth + 1, out);
            }
        }
        let verdict = is_well_behaved(&plan.query, &self.profiles, &self.id_attrs);
        let _ = writeln!(out, "{pad}well-behaved: {verdict}");
    }

    fn eval_source_plan(&self, sp: &SourcePlan, ctx: &mut ExecContext) -> Result<Relation> {
        match sp {
            SourcePlan::Base(name) => Ok(self.db.get(name)?.clone()),
            SourcePlan::Sub(plan) => self.execute_plan(plan, ctx),
        }
    }

    /// Evaluate a FROM item up to, but not including, a link join: its
    /// sides run against a context of their own so the join can adopt
    /// their operators once it opens.
    fn stage_item<'a>(&self, item: &'a ItemPlan, ctx: &mut ExecContext) -> Result<Staged<'a>> {
        let t0 = Instant::now();
        match item {
            // A FROM item opens its operator slot before evaluating its
            // sources, so scans and sub-plans nest under it in the trace
            // tree. (On an error `?` the slot stays pending — the ctx is
            // discarded.)
            ItemPlan::Plain { source, name } => {
                let token = ctx.enter();
                let rel = self.eval_source_plan(source, ctx)?.qualified(name);
                ctx.exit(
                    token,
                    physical::external_stats(item.describe(self.k), rel.len(), rel.len(), t0),
                );
                Ok(Staged::Ready(rel))
            }
            ItemPlan::EJoin(p) => {
                let token = ctx.enter();
                let gov = ctx.governor().clone();
                let rel = self.eval_source_plan(&p.source, ctx)?;
                let outcome = strategies::eval_ejoin(self, p, &rel, &gov)?;
                ctx.exit(
                    token,
                    physical::external_stats(
                        degraded_label(item.describe(self.k), &outcome),
                        rel.len(),
                        outcome.rel.len(),
                        t0,
                    ),
                );
                Ok(Staged::Ready(match &p.alias {
                    Some(a) => outcome.rel.qualified(a),
                    None => outcome.rel,
                }))
            }
            ItemPlan::LJoin(p) => {
                let mut side_ops = ExecContext::with_governor(ctx.governor().clone());
                let lrel = self
                    .eval_source_plan(&p.left, &mut side_ops)?
                    .qualified(&p.lalias);
                let rrel = self
                    .eval_source_plan(&p.right, &mut side_ops)?
                    .qualified(&p.ralias);
                Ok(Staged::Link(Box::new(StagedLink {
                    plan: p,
                    label: item.describe(self.k),
                    lrel,
                    rrel,
                    side_ops,
                    side_time: t0.elapsed(),
                })))
            }
        }
    }

    /// Finish a staged FROM item: a link join filters each side by the
    /// conjuncts that resolve on it, then joins what is left.
    fn finish_item(
        &self,
        staged: Staged<'_>,
        conjuncts: &[Expr],
        applied: &mut [bool],
        ctx: &mut ExecContext,
    ) -> Result<Relation> {
        let link = match staged {
            Staged::Ready(rel) => return Ok(rel),
            Staged::Link(link) => *link,
        };
        let token = ctx.enter();
        let t0 = Instant::now();
        ctx.absorb(link.side_ops);
        let lrel = apply_applicable(link.lrel, conjuncts, applied, ctx)?;
        let rrel = apply_applicable(link.rrel, conjuncts, applied, ctx)?;
        let gov = ctx.governor().clone();
        let outcome = strategies::eval_ljoin(self, link.plan, &lrel, &rrel, &gov)?;
        let mut stats = physical::external_stats(
            degraded_label(link.label, &outcome),
            lrel.len() + rrel.len(),
            outcome.rel.len(),
            t0,
        );
        // The operator's wall time covers its children, as every FROM
        // item's does.
        stats.nanos += link.side_time.as_nanos();
        ctx.exit(token, stats);
        Ok(outcome.rel)
    }

    /// Execute a plan, recording per-operator counters into `ctx`.
    pub fn execute_plan(&self, plan: &QueryPlan, ctx: &mut ExecContext) -> Result<Relation> {
        let q = &plan.query;

        // 1. Evaluate the FROM items, holding every link join back until
        //    WHERE is bound.
        let mut staged: Vec<Staged> = Vec::with_capacity(plan.items.len());
        for item in &plan.items {
            staged.push(self.stage_item(item, ctx)?);
        }
        if staged.is_empty() {
            return Err(GsjError::Parse("empty FROM clause".into()));
        }

        // 2. Bind WHERE conjuncts against the full combined schema: bare
        //    identifiers that resolve nowhere become string literals (the
        //    paper writes `T.pid = fd1`).
        let all_attrs: Vec<String> = staged.iter().flat_map(|s| s.attrs()).cloned().collect();
        let full_schema = Schema::new("q".to_string(), all_attrs).map_err(|e| {
            GsjError::Schema(format!(
                "FROM items must have distinct attribute names (add aliases): {e}"
            ))
        })?;
        let conjuncts: Vec<Expr> = match &q.where_clause {
            None => Vec::new(),
            Some(w) => split_conjuncts(w)
                .into_iter()
                .map(|c| bind_expr(c, &full_schema))
                .collect::<Result<_>>()?,
        };
        let mut applied = vec![false; conjuncts.len()];

        // 3. Run the link joins, each over its filtered sides.
        let mut items: Vec<Relation> = Vec::with_capacity(staged.len());
        for staged in staged {
            items.push(self.finish_item(staged, &conjuncts, &mut applied, ctx)?);
        }

        // 4. Fold the items left-to-right with predicate pushdown.
        let mut acc = items.remove(0);
        acc = apply_applicable(acc, &conjuncts, &mut applied, ctx)?;
        for item in items {
            let item = apply_applicable(item, &conjuncts, &mut applied, ctx)?;
            // Conjuncts usable as the join predicate: resolvable on the
            // combined schema, not yet applied.
            let mut combined_attrs = acc.schema().attrs().to_vec();
            combined_attrs.extend(item.schema().attrs().iter().cloned());
            let combined = Schema::new("j".to_string(), combined_attrs)?;
            let mut join_pred: Option<Expr> = None;
            for (c, done) in conjuncts.iter().zip(applied.iter_mut()) {
                if *done || !resolves(c, &combined) {
                    continue;
                }
                *done = true;
                join_pred = Some(match join_pred {
                    None => c.clone(),
                    Some(p) => p.and(c.clone()),
                });
            }
            let pred = join_pred.unwrap_or_else(|| Expr::lit(true));
            let label = format!("{} ⋈ {}", acc.schema().name(), item.schema().name());
            acc = physical::join_rel(&acc, &item, &pred, label, ctx)?;
        }

        // 5. Any remaining conjunct must resolve now.
        for (c, done) in conjuncts.iter().zip(applied.iter()) {
            if !*done {
                if !resolves(c, acc.schema()) {
                    return Err(GsjError::NotFound(format!(
                        "WHERE references unknown columns: {:?}",
                        c.columns()
                    )));
                }
                acc = physical::filter_rel(acc, c, filter_label(c), ctx)?;
            }
        }

        // 6. Projection / aggregation, then ORDER BY / LIMIT.
        let mut rel = self.project_plan(q, acc, ctx)?;
        if !q.order_by.is_empty() {
            let label = format!(
                "Sort({}{})",
                q.order_by.join(", "),
                if q.order_desc { " desc" } else { "" }
            );
            rel = physical::sort_rel(rel, &q.order_by, q.order_desc, label, ctx)?;
        }
        if let Some(n) = q.limit {
            rel = physical::limit_rel(rel, n, format!("Limit({n})"), ctx)?;
        }
        Ok(rel)
    }

    fn project_plan(&self, q: &Query, input: Relation, ctx: &mut ExecContext) -> Result<Relation> {
        if q.projections == vec![Projection::Star] {
            return Ok(input);
        }
        let has_agg = q
            .projections
            .iter()
            .any(|p| matches!(p, Projection::Agg { .. }));
        if has_agg {
            // Explicit GROUP BY wins; otherwise SQL-style implicit
            // grouping: non-aggregate select columns become the group
            // keys.
            let explicit: Vec<String> = q
                .group_by
                .iter()
                .map(|c| {
                    Expr::resolve_column(input.schema(), c)
                        .map(|pos| input.schema().attrs()[pos].clone())
                })
                .collect::<Result<_>>()?;
            let mut group_by = Vec::new();
            let mut aggs = Vec::new();
            let mut out_names = Vec::new();
            for p in &q.projections {
                match p {
                    Projection::Col { name, alias } => {
                        let pos = Expr::resolve_column(input.schema(), name)?;
                        let resolved = input.schema().attrs()[pos].clone();
                        if !explicit.is_empty() && !explicit.contains(&resolved) {
                            return Err(GsjError::Schema(format!(
                                "column `{name}` must appear in GROUP BY"
                            )));
                        }
                        group_by.push(resolved);
                        out_names.push(alias.clone().unwrap_or_else(|| name.clone()));
                    }
                    Projection::Agg { func, col, alias } => {
                        let resolved = if col == "*" {
                            "*".to_string()
                        } else {
                            let pos = Expr::resolve_column(input.schema(), col)?;
                            input.schema().attrs()[pos].clone()
                        };
                        let default_name = format!("{func}_{}", Schema::base_name(&resolved));
                        let name = alias.clone().unwrap_or(default_name);
                        aggs.push(AggSpec::new(*func, resolved, name.clone()));
                        out_names.push(name);
                    }
                    Projection::Star => {
                        return Err(GsjError::Unsupported("cannot mix * with aggregates".into()))
                    }
                }
            }
            let label = format!("Aggregate(group_by=[{}])", group_by.join(", "));
            let rel = physical::aggregate_rel(&input, &group_by, &aggs, label, ctx)?;
            // Positional rename to the select list's names.
            let all: Vec<usize> = (0..out_names.len()).collect();
            return rel.project(&all, out_names);
        }
        // Plain projection with optional renaming.
        let t0 = Instant::now();
        let mut positions = Vec::new();
        let mut names = Vec::new();
        for p in &q.projections {
            if let Projection::Col { name, alias } = p {
                positions.push(Expr::resolve_column(input.schema(), name)?);
                names.push(alias.clone().unwrap_or_else(|| name.clone()));
            }
        }
        let label = format!("Project({})", names.join(", "));
        let out = input.project(&positions, names)?;
        physical::record_external(label, input.len(), out.len(), t0, ctx);
        Ok(out)
    }
}

fn filter_label(c: &Expr) -> String {
    let cols = c.columns();
    if cols.is_empty() {
        "Filter".to_string()
    } else {
        format!("Filter({})", cols.join(", "))
    }
}

/// Split a predicate into top-level conjuncts.
fn split_conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::And(a, b) => {
            let mut out = split_conjuncts(a);
            out.extend(split_conjuncts(b));
            out
        }
        other => vec![other.clone()],
    }
}

/// Do all column references of `e` resolve in `schema`?
fn resolves(e: &Expr, schema: &Schema) -> bool {
    e.columns()
        .iter()
        .all(|c| Expr::resolve_column(schema, c).is_ok())
}

/// Rewrite unresolvable *bare* identifiers into string literals; error on
/// unresolvable qualified names.
fn bind_expr(e: Expr, schema: &Schema) -> Result<Expr> {
    Ok(match e {
        Expr::Col(name) => {
            if Expr::resolve_column(schema, &name).is_ok() {
                Expr::Col(name)
            } else if !name.contains('.') {
                Expr::Lit(Value::str(name))
            } else {
                return Err(GsjError::NotFound(format!("column `{name}`")));
            }
        }
        Expr::Lit(v) => Expr::Lit(v),
        Expr::Cmp(op, l, r) => Expr::Cmp(
            op,
            Box::new(bind_expr(*l, schema)?),
            Box::new(bind_expr(*r, schema)?),
        ),
        Expr::Bin(op, l, r) => Expr::Bin(
            op,
            Box::new(bind_expr(*l, schema)?),
            Box::new(bind_expr(*r, schema)?),
        ),
        Expr::And(l, r) => Expr::And(
            Box::new(bind_expr(*l, schema)?),
            Box::new(bind_expr(*r, schema)?),
        ),
        Expr::Or(l, r) => Expr::Or(
            Box::new(bind_expr(*l, schema)?),
            Box::new(bind_expr(*r, schema)?),
        ),
        Expr::Not(x) => Expr::Not(Box::new(bind_expr(*x, schema)?)),
        Expr::IsNull(x) => Expr::IsNull(Box::new(bind_expr(*x, schema)?)),
    })
}

/// Apply every not-yet-applied conjunct that fully resolves on `rel`
/// (predicate pushdown), recording each filter.
fn apply_applicable(
    rel: Relation,
    conjuncts: &[Expr],
    applied: &mut [bool],
    ctx: &mut ExecContext,
) -> Result<Relation> {
    let mut rel = rel;
    for (c, done) in conjuncts.iter().zip(applied.iter_mut()) {
        if *done || !resolves(c, rel.schema()) {
            continue;
        }
        *done = true;
        rel = physical::filter_rel(rel, c, filter_label(c), ctx)?;
    }
    Ok(rel)
}
