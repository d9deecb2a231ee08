//! The gSQL engine facade: rewriting queries into relational operations
//! over the engine's catalog plus the semantic-join machinery, under
//! three strategies (Section IV).
//!
//! - [`Strategy::Baseline`] — the conceptual-level method: every semantic
//!   join calls HER and RExt online.
//! - [`Strategy::Optimized`] — well-behaved joins are rewritten to
//!   three-way natural joins over the materialized `f(D,G)` / `h(D,G)`
//!   (static joins) or their sub-query variants (dynamic joins), with the
//!   pre-computed `g_L` reachability index for link joins; non-well-behaved
//!   joins fall back to heuristic joins.
//! - [`Strategy::Heuristic`] — heuristic joins are forced for *all*
//!   semantic joins (the Exp-2(II) protocol).
//!
//! The work happens in two sibling modules: [`super::plan`] turns the
//! AST into a [`super::plan::QueryPlan`] with semantic joins as
//! first-class physical operators, executes it with per-operator
//! counters and prints it (`EXPLAIN` is the plan, rendered);
//! [`super::strategies`] holds the strategy → implementation rewrites.
//!
//! This module keeps the engine state and the public surface. There is
//! one way to run a query: every entry point — [`GsqlEngine::run`],
//! [`GsqlEngine::run_query`], [`GsqlEngine::run_query_stats`],
//! [`GsqlEngine::run_recorded`], [`GsqlEngine::explain_analyze`] — is a
//! few lines over one private function that parses (when handed text),
//! mints the query's ids, holds the panic boundary, plans, executes,
//! captures the span tree when asked to, and leaves the flight-recorder
//! record. The entry points differ only in what they hand in (text or
//! AST, a governor or none, a [`TraceOpt`]) and in which part of the
//! [`QueryRun`] they hand back.

use super::analyze::is_well_behaved;
use super::ast::{FromItem, Projection, Query, Source};
use super::parser::parse_query;
use crate::profile::GraphProfile;
use crate::rext::Rext;
use gsj_common::{FxHashMap, GsjError, QueryGovernor, Result};
use gsj_graph::LabeledGraph;
use gsj_her::relation_er::ErConfig;
use gsj_her::HerConfig;
use gsj_obs::recorder::{self, PhaseStat, QueryRecord};
use gsj_obs::SpanRecord;
use gsj_relational::physical::ExecContext;
use gsj_relational::{Database, Relation, Schema};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Which implementation answers the semantic joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Conceptual baseline: HER + RExt at query time.
    Baseline,
    /// Pre-extracted relations for well-behaved joins; heuristic joins
    /// otherwise.
    Optimized,
    /// Heuristic joins for everything.
    Heuristic,
}

impl std::str::FromStr for Strategy {
    type Err = GsjError;

    /// Parse the wire/CLI spelling (`baseline` / `optimized` /
    /// `heuristic`, case-insensitive).
    fn from_str(s: &str) -> Result<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "baseline" => Ok(Strategy::Baseline),
            "optimized" => Ok(Strategy::Optimized),
            "heuristic" => Ok(Strategy::Heuristic),
            other => Err(GsjError::Config(format!(
                "unknown strategy `{other}` (want baseline | optimized | heuristic)"
            ))),
        }
    }
}

/// Whether a [`GsqlEngine::run_recorded`] call should capture a span
/// tree for the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOpt {
    /// Never trace this query.
    Off,
    /// Let the global [`gsj_obs::trace_mode`] decide: `On` traces,
    /// `Sample(p)` traces a `p` fraction of queries, `Off` doesn't.
    Auto,
    /// Trace this query regardless of the global mode (the wire
    /// `trace: 1` header).
    Force,
}

/// The outcome of one query: its result, the identifiers of the
/// flight-recorder record it left behind, and — when it was traced —
/// what it takes to render it.
#[derive(Debug)]
pub struct QueryRun {
    /// The result relation and per-operator counters, or the error.
    pub result: Result<(Relation, ExecContext)>,
    /// Monotonic query id (also the record's id).
    pub query_id: u64,
    /// Wire trace id (16 hex chars), present on every run — it only
    /// resolves to a span tree when the query was traced.
    pub trace_id: String,
    /// The `EXPLAIN` text of the plan that ran. Rendered for traced runs
    /// and the slow tail only; absent too when the query failed before
    /// it had a plan.
    pub plan: Option<String>,
    /// The query's span tree when it was traced: the stage spans its
    /// thread recorded plus one synthetic span per physical operator,
    /// sorted by start time.
    pub spans: Option<Vec<SpanRecord>>,
}

impl QueryRun {
    /// The `{"trace_id": ..., "spans": [...]}` JSON document of a traced
    /// run (the wire `trace: 1` body and the record's `trace` field).
    pub fn spans_json(&self) -> Option<String> {
        self.spans.as_ref().map(|spans| {
            format!(
                "{{\"trace_id\":\"{}\",\"spans\":{}}}",
                gsj_obs::escape_json(&self.trace_id),
                gsj_obs::spans_json(spans)
            )
        })
    }

    /// The plan followed, for a query that succeeded, by its row count
    /// and operator table.
    fn report(&self) -> Option<String> {
        let mut out = self.plan.clone()?;
        if let Ok((rel, ctx)) = &self.result {
            out.push_str(&format!("result: {} row(s)\n\n{}", rel.len(), ctx.render()));
        }
        Some(out)
    }

    /// `EXPLAIN ANALYZE` as a rendering of a traced run: the plan, the
    /// row count, the per-operator counters — rows in/out, build/probe
    /// sizes for hash joins, wall time — and one tree that holds the
    /// physical operators and the pipeline stage spans (HER, RExt, BFS,
    /// joins) together. The query's error if it failed.
    pub fn explain_analyze(&self) -> Result<String> {
        if let Err(e) = &self.result {
            return Err(e.clone());
        }
        Ok(format!(
            "{}\ntrace:\n{}",
            self.report().unwrap_or_default(),
            gsj_obs::render_tree(self.spans.as_deref().unwrap_or_default())
        ))
    }
}

/// What an entry point hands the one execution path.
#[derive(Clone, Copy)]
enum QueryInput<'a> {
    /// gSQL text, still to be parsed; recorded verbatim.
    Text(&'a str),
    /// An already-parsed query; recorded as [`summarize_query`] has it.
    Parsed(&'a Query),
}

/// The gSQL query engine: a relational catalog, registered graphs, and the
/// per-graph extraction machinery.
pub struct GsqlEngine {
    /// The relational database `D`.
    pub db: Database,
    pub(super) graphs: FxHashMap<String, LabeledGraph>,
    pub(super) id_attrs: FxHashMap<String, String>,
    pub(super) rexts: FxHashMap<String, Arc<Rext>>,
    pub(super) profiles: FxHashMap<String, GraphProfile>,
    pub(super) her_cfg: HerConfig,
    pub(super) er_cfg: ErConfig,
    pub(super) k: usize,
}

impl GsqlEngine {
    /// New engine over a database.
    pub fn new(db: Database) -> Self {
        GsqlEngine {
            db,
            graphs: FxHashMap::default(),
            id_attrs: FxHashMap::default(),
            rexts: FxHashMap::default(),
            profiles: FxHashMap::default(),
            her_cfg: HerConfig::default(),
            er_cfg: ErConfig::default(),
            k: 3,
        }
    }

    /// Register a graph under a name usable in `e-join G<...>`.
    pub fn add_graph(&mut self, name: impl Into<String>, g: LabeledGraph) -> &mut Self {
        self.graphs.insert(name.into(), g);
        self
    }

    /// Declare a base relation's tuple-id attribute.
    pub fn set_id_attr(&mut self, relation: &str, id_attr: &str) -> &mut Self {
        self.id_attrs.insert(relation.into(), id_attr.into());
        self
    }

    /// Attach a trained RExt scheme to a graph (needed for `Baseline`).
    pub fn set_rext(&mut self, graph: &str, rext: Arc<Rext>) -> &mut Self {
        self.rexts.insert(graph.into(), rext);
        self
    }

    /// Attach an offline profile to a graph (needed for `Optimized` /
    /// `Heuristic`).
    pub fn set_profile(&mut self, graph: &str, profile: GraphProfile) -> &mut Self {
        self.profiles.insert(graph.into(), profile);
        self
    }

    /// Access a graph's profile.
    pub fn profile(&self, graph: &str) -> Option<&GraphProfile> {
        self.profiles.get(graph)
    }

    /// Mutable access (IncExt commits updated extractions through this).
    pub fn profile_mut(&mut self, graph: &str) -> Option<&mut GraphProfile> {
        self.profiles.get_mut(graph)
    }

    /// Access a registered graph.
    pub fn graph(&self, name: &str) -> Option<&LabeledGraph> {
        self.graphs.get(name)
    }

    /// Mutable access to a registered graph (for applying `ΔG`).
    pub fn graph_mut(&mut self, name: &str) -> Option<&mut LabeledGraph> {
        self.graphs.get_mut(name)
    }

    /// Set the link-join hop bound `k`.
    pub fn set_k(&mut self, k: usize) -> &mut Self {
        self.k = k;
        self
    }

    /// Configure HER.
    pub fn set_her_config(&mut self, cfg: HerConfig) -> &mut Self {
        self.her_cfg = cfg;
        self
    }

    /// Parse gSQL text.
    pub fn parse(&self, text: &str) -> Result<Query> {
        parse_query(text)
    }

    /// The linear-time well-behaved check of Section IV-A.
    pub fn is_well_behaved(&self, q: &Query) -> bool {
        is_well_behaved(q, &self.profiles, &self.id_attrs)
    }

    /// Parse and execute.
    pub fn run(&self, text: &str, strategy: Strategy) -> Result<Relation> {
        let gov = QueryGovernor::unlimited();
        let run = self.execute(QueryInput::Text(text), strategy, &gov, TraceOpt::Off);
        Ok(run.result?.0)
    }

    /// Execute a parsed query.
    pub fn run_query(&self, q: &Query, strategy: Strategy) -> Result<Relation> {
        Ok(self.run_query_stats(q, strategy)?.0)
    }

    /// Execute a parsed query, returning the result together with the
    /// per-operator execution counters.
    pub fn run_query_stats(
        &self,
        q: &Query,
        strategy: Strategy,
    ) -> Result<(Relation, ExecContext)> {
        let gov = QueryGovernor::unlimited();
        self.execute(QueryInput::Parsed(q), strategy, &gov, TraceOpt::Off)
            .result
    }

    /// Parse and execute under a governor (deadline / budgets / cancel),
    /// leaving a flight-recorder record that carries the *original*
    /// query text, and optionally a captured span tree. This is the
    /// server's entry point: `trace` comes from the wire `trace: 1` /
    /// `explain: analyze` headers ([`TraceOpt::Force`]) or defaults to
    /// [`TraceOpt::Auto`] so `GSJ_TRACE=sample:p` sampling applies to
    /// served traffic.
    pub fn run_recorded(
        &self,
        text: &str,
        strategy: Strategy,
        gov: &QueryGovernor,
        trace: TraceOpt,
    ) -> QueryRun {
        self.execute(QueryInput::Text(text), strategy, gov, trace)
    }

    /// `EXPLAIN ANALYZE`: execute the query under `strategy` with its
    /// span tree captured, and render the run
    /// ([`QueryRun::explain_analyze`]).
    pub fn explain_analyze(&self, q: &Query, strategy: Strategy) -> Result<String> {
        let gov = QueryGovernor::unlimited();
        self.execute(QueryInput::Parsed(q), strategy, &gov, TraceOpt::Force)
            .explain_analyze()
    }

    /// An EXPLAIN-style description of how the query would be executed
    /// under `strategy` — the [`super::plan::QueryPlan`], rendered: per
    /// semantic join, the traced base relation and the implementation
    /// chosen (static/dynamic rewrite over pre-extracted relations,
    /// heuristic join, or online HER + RExt). A query the planner
    /// rejects is described by the planner's error.
    pub fn explain(&self, q: &Query, strategy: Strategy) -> String {
        match self.plan_query(q, strategy) {
            Ok(plan) => self.render_plan(&plan),
            Err(e) => format!("{e}\n"),
        }
    }

    /// The one way a query runs, start to record. This is the engine's
    /// outermost failure boundary: any panic that escapes the per-join
    /// recovery in [`super::strategies`] is caught here and converted to
    /// [`GsjError::Internal`], so callers always see a typed result,
    /// never an unwind. Every call — success or failure, a parse failure
    /// included — leaves one [`QueryRecord`] in the flight recorder.
    fn execute(
        &self,
        input: QueryInput<'_>,
        strategy: Strategy,
        gov: &QueryGovernor,
        trace: TraceOpt,
    ) -> QueryRun {
        let (query_id, trace_id) = recorder::begin_query();
        let faults_before = gsj_faults::injected_total();
        let started = Instant::now();
        let parsed = match input {
            QueryInput::Text(text) => parse_query(text).map(Cow::Owned),
            QueryInput::Parsed(q) => Ok(Cow::Borrowed(q)),
        };
        let traced = parsed.is_ok()
            && match trace {
                TraceOpt::Off => false,
                TraceOpt::Force => true,
                TraceOpt::Auto => gsj_obs::should_trace_query(),
            };

        // The plan that ran outlives the run: it is what gets rendered.
        let mut plan = None;
        let mut body = || {
            let q = parsed.as_deref().map_err(GsjError::clone)?;
            let run = || {
                let mut span = gsj_obs::span("gsql.query");
                span.field("strategy", format_args!("{strategy:?}"));
                span.field("trace_id", &trace_id);
                gov.check("gsql.query")?;
                let plan = plan.insert(self.plan_query(q, strategy)?);
                let mut ctx = ExecContext::with_governor(gov.clone());
                let rel = self.execute_plan(plan, &mut ctx)?;
                span.field("rows", rel.len());
                Ok((rel, ctx))
            };
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
                Err(GsjError::Internal(format!(
                    "panic in gsql.query: {}",
                    gsj_common::panic_message(&*payload)
                )))
            })
        };
        let (result, spans) = if traced {
            // Stage spans of this thread, then the operators bridged
            // into the same tree.
            let (result, mut spans) = gsj_obs::capture(body);
            if let Ok((_, ctx)) = &result {
                let ops = op_spans(ctx, &spans);
                spans.extend(ops);
            }
            spans.sort_by_key(|s| (s.start_ns, s.id));
            (result, Some(spans))
        } else {
            (body(), None)
        };

        let wall_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let slow = wall_ns >= recorder::slow_threshold_ns();
        let plan = plan.filter(|_| traced || slow);
        let run = QueryRun {
            result,
            query_id,
            trace_id,
            plan: plan.map(|plan| self.render_plan(&plan)),
            spans,
        };
        if !recorder::recorder_enabled() {
            return run;
        }
        // Failure verdicts carry the typed error code; the slow tail
        // keeps the plan and counter report so `/debug/slow` can show
        // them without re-running anything.
        let text = match input {
            QueryInput::Text(text) => Cow::Borrowed(text),
            QueryInput::Parsed(q) => Cow::Owned(summarize_query(q)),
        };
        let (verdict, rows_out, degraded, phases) = match &run.result {
            Ok((rel, ctx)) => {
                let degraded = ctx.ops().iter().any(|o| o.label.contains("[degraded"));
                ("ok".to_string(), rel.len() as u64, degraded, phases_of(ctx))
            }
            Err(e) => (e.code().to_string(), 0, false, Vec::new()),
        };
        recorder::record(QueryRecord {
            id: query_id,
            trace_id: run.trace_id.clone(),
            start_ns: gsj_obs::now_ns().saturating_sub(wall_ns),
            text_hash: recorder::text_hash(&text),
            text: recorder::truncate_text(&text),
            strategy: format!("{strategy:?}"),
            degraded,
            verdict,
            fault_hits: gsj_faults::injected_total().saturating_sub(faults_before),
            wall_ns,
            rows_out,
            rows_charged: gov.rows_charged(),
            mem_charged: gov.mem_charged(),
            workers: gsj_common::pool::gsj_threads() as u64,
            phases,
            slow_explain: if slow { run.report() } else { None },
            trace_json: run.spans_json(),
        });
        run
    }

    /// The id attribute *as present in* a source's output schema.
    pub(super) fn actual_id_attr(&self, rel: &Relation, base: &str) -> Result<String> {
        let id = self
            .id_attrs
            .get(base)
            .ok_or_else(|| GsjError::Config(format!("no id attribute registered for `{base}`")))?;
        rel.schema()
            .attrs()
            .iter()
            .find(|a| Schema::base_name(a) == id)
            .cloned()
            .ok_or_else(|| {
                GsjError::Schema(format!(
                    "source schema lacks the id attribute `{id}` of `{base}`"
                ))
            })
    }

    pub(super) fn the_graph(&self, name: &str) -> Result<&LabeledGraph> {
        self.graphs
            .get(name)
            .ok_or_else(|| GsjError::NotFound(format!("graph `{name}`")))
    }
}

/// The root operators as the record's phases.
fn phases_of(ctx: &ExecContext) -> Vec<PhaseStat> {
    let roots = ctx.ops().iter().filter(|o| o.parent.is_none());
    roots
        .take(recorder::MAX_PHASES)
        .map(|o| PhaseStat {
            label: o.label.clone(),
            rows_in: o.rows_in as u64,
            rows_out: o.rows_out as u64,
            dur_ns: o.nanos.min(u64::MAX as u128) as u64,
        })
        .collect()
}

/// The physical-operator counters as synthetic spans, so they sit in one
/// tree with the stage spans: each is parented by its operator parent
/// or, for root operators, by the `gsql.query` span among `stage_spans`.
fn op_spans(ctx: &ExecContext, stage_spans: &[SpanRecord]) -> Vec<SpanRecord> {
    let root = stage_spans.iter().find(|s| s.label == "gsql.query");
    let ids: Vec<u64> = ctx.ops().iter().map(|_| gsj_obs::next_span_id()).collect();
    let count = |key: &str, n: usize| (key.to_string(), n.to_string());
    ctx.ops()
        .iter()
        .zip(&ids)
        .map(|(op, &id)| SpanRecord {
            id,
            parent: op.parent.map(|p| ids[p]).or(root.map(|r| r.id)),
            label: op.label.clone(),
            fields: [
                Some(count("rows_in", op.rows_in)),
                Some(count("rows_out", op.rows_out)),
                op.build_rows.map(|n| count("build_rows", n)),
                op.probe_rows.map(|n| count("probe_rows", n)),
            ]
            .into_iter()
            .flatten()
            .collect(),
            start_ns: op.start_ns,
            dur_ns: op.nanos.min(u64::MAX as u128) as u64,
            thread: root.map_or(0, |r| r.thread),
        })
        .collect()
}

/// Reconstruct a compact one-line text for a parsed [`Query`] — used
/// for records emitted from entry points that only have the AST. The
/// WHERE clause is elided (`…`): the text exists for at-a-glance
/// attribution and hash-grouping, not round-tripping.
pub fn summarize_query(q: &Query) -> String {
    fn source(s: &Source) -> String {
        match s {
            Source::Base(name) => name.clone(),
            Source::Sub(_) => "(subquery)".to_string(),
        }
    }
    let mut out = String::from("select ");
    let cols: Vec<String> = q
        .projections
        .iter()
        .map(|p| match p {
            Projection::Star => "*".to_string(),
            Projection::Col { name, .. } => name.clone(),
            Projection::Agg { func, col, .. } => format!("{func}({col})"),
        })
        .collect();
    out.push_str(&cols.join(", "));
    out.push_str(" from ");
    let items: Vec<String> = q
        .from
        .iter()
        .map(|item| match item {
            FromItem::Plain { source: s, .. } => source(s),
            FromItem::EJoin {
                source: s,
                graph,
                keywords,
                ..
            } => format!("{} e-join {graph}<{}>", source(s), keywords.join(", ")),
            FromItem::LJoin {
                left, graph, right, ..
            } => format!("{} l-join <{graph}> {}", source(left), source(right)),
        })
        .collect();
    out.push_str(&items.join(", "));
    if q.where_clause.is_some() {
        out.push_str(" where …");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PathKind, RExtConfig};
    use crate::profile::RelationSpec;
    use crate::typed::TypedConfig;
    use gsj_common::Value;

    /// The Fig.-1 setting, small enough for unit tests: customers and
    /// products in D; a product knowledge graph and a social graph.
    fn engine() -> GsqlEngine {
        let mut db = Database::new();
        let mut customer =
            Relation::empty(Schema::of("customer", &["cid", "name", "credit", "bal"]));
        for (cid, name, credit, bal) in [
            ("cid01", "Bob Jones", "fair", 500_000),
            ("cid02", "Bob Brown", "good", 110_000),
            ("cid03", "Guy Ritchie", "good", 50_000),
            ("cid04", "Ada King", "fair", 100_000),
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
        db.insert(customer);
        let mut product =
            Relation::empty(Schema::of("product", &["pid", "pname", "ptype", "risk"]));
        for (pid, pname, ptype, risk) in [
            ("fd1", "GL ESG", "Funds", "medium"),
            ("fd2", "Beta", "Stocks", "high"),
            ("fd3", "GL100", "Funds", "low"),
            ("fd4", "RainForest", "Stocks", "medium"),
        ] {
            product
                .push_values(vec![
                    Value::str(pid),
                    Value::str(pname),
                    Value::str(ptype),
                    Value::str(risk),
                ])
                .unwrap();
        }
        db.insert(product);

        // Product knowledge graph.
        let mut g = LabeledGraph::new();
        let prod_ty = g.add_vertex("ProductEntity");
        let companies = ["company1", "company1", "company2", "company2"];
        let locs = ["UK", "UK", "US", "US"];
        let names = ["GL ESG", "Beta", "GL100", "RainForest"];
        let types = ["Funds", "Stocks", "Funds", "Stocks"];
        for i in 0..4 {
            let p = g.add_vertex(&format!("pid{}", i + 1));
            g.add_edge(p, "type", prod_ty);
            let n = g.add_vertex(names[i]);
            g.add_edge(p, "name", n);
            let t = g.add_vertex(types[i]);
            g.add_edge(p, "kind", t);
            let c = g.add_vertex(companies[i]);
            g.add_edge(p, "issue", c);
            let l = g.add_vertex(locs[i]);
            g.add_edge(c, "regloc", l);
        }

        // Social graph for link joins.
        let mut gs = LabeledGraph::new();
        let people = ["Bob Jones", "Bob Brown", "Guy Ritchie", "Ada King"];
        let mut ids = Vec::new();
        for (i, name) in people.iter().enumerate() {
            let v = gs.add_vertex(&format!("person{i}"));
            let n = gs.add_vertex(name);
            gs.add_edge(v, "name", n);
            ids.push(v);
        }
        // Bob Brown - Ada King - Guy Ritchie chain.
        gs.add_edge(ids[1], "knows", ids[3]);
        gs.add_edge(ids[3], "knows", ids[2]);

        let rext_cfg = RExtConfig {
            k: 3,
            h: 10,
            m: 2,
            path: PathKind::Random,
            seed: 21,
            ..RExtConfig::default()
        };
        let rext = Arc::new(Rext::train(&g, rext_cfg.clone()).unwrap());
        let rext_s = Arc::new(Rext::train(&gs, rext_cfg).unwrap());

        let mut engine = GsqlEngine::new(db);
        engine.set_id_attr("customer", "cid");
        engine.set_id_attr("product", "pid");
        // The social graph only carries a name property per person, so a
        // third of the customer attributes can match: relax the threshold
        // (the paper configures JedAI per collection the same way).
        let her = HerConfig {
            min_score: 0.3,
            ..HerConfig::default()
        };
        engine.set_her_config(her.clone());

        let profile = GraphProfile::build(
            &g,
            &engine.db,
            vec![RelationSpec::new("product", "pid", &["company", "loc"])],
            &rext,
            &her,
            Some(&TypedConfig {
                default_keywords: vec!["name".into(), "company".into(), "loc".into()],
                ..TypedConfig::default()
            }),
        )
        .unwrap();
        let profile_s = GraphProfile::build(
            &gs,
            &engine.db,
            vec![RelationSpec::new("customer", "cid", &["name"])],
            &rext_s,
            &her,
            None,
        )
        .unwrap();
        engine.add_graph("G", g).add_graph("Gs", gs);
        engine.set_rext("G", rext).set_rext("Gs", rext_s);
        engine
            .set_profile("G", profile)
            .set_profile("Gs", profile_s);
        engine.set_k(2);
        engine
    }

    #[test]
    fn q1_static_enrichment_optimized() {
        let e = engine();
        let q = "select risk, company from product e-join G <company, loc> as T \
                 where T.pid = fd1 and T.loc = UK";
        let parsed = e.parse(q).unwrap();
        assert!(e.is_well_behaved(&parsed));
        let r = e.run(q, Strategy::Optimized).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.value_at(0, 0), Value::str("medium"));
        assert_eq!(r.value_at(0, 1), Value::str("company1"));
    }

    #[test]
    fn q1_baseline_agrees_with_optimized() {
        let e = engine();
        let q = "select risk, company from product e-join G <company, loc> as T \
                 where T.pid = fd1";
        let opt = e.run(q, Strategy::Optimized).unwrap();
        let base = e.run(q, Strategy::Baseline).unwrap();
        assert_eq!(opt.len(), 1);
        assert_eq!(base.len(), 1);
        assert_eq!(opt.value_at(0, 0), base.value_at(0, 0));
    }

    #[test]
    fn q2_join_on_extracted_attribute() {
        let e = engine();
        // fd1 and fd2 share company1 via the graph.
        let q = "select T1.pid, T2.pid from \
                 product e-join G <company> as T1, product e-join G <company> as T2 \
                 where T1.pid = fd1 and T1.company = T2.company and T2.pid <> fd1";
        let r = e.run(q, Strategy::Optimized).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.value_at(0, 1), Value::str("fd2"));
    }

    #[test]
    fn q3_link_join_finds_connected_customers() {
        let e = engine();
        let q = "select * from customer l-join <Gs> customer as customerB \
                 where customer.cid = cid02 and customerB.credit = good";
        let r = e.run(q, Strategy::Optimized).unwrap();
        // Within k=2 of Bob Brown: Ada (fair), Guy (good) → only Guy kept
        // ... plus Bob Brown himself (good, distance 0).
        let names: Vec<String> = r
            .column("customerB.name")
            .unwrap()
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert!(names.contains(&"Guy Ritchie".to_string()), "{names:?}");
        assert!(!names.contains(&"Ada King".to_string()));
        // And the baseline strategy agrees.
        let rb = e.run(q, Strategy::Baseline).unwrap();
        assert_eq!(r.len(), rb.len());
    }

    #[test]
    fn link_join_cache_is_populated() {
        let e = engine();
        let profile = e.profile("Gs").unwrap();
        assert_eq!(profile.link_index_count(), 0);
        let q = "select * from customer l-join <Gs> customer as customerB \
                 where customer.cid = cid02";
        e.run(q, Strategy::Optimized).unwrap();
        assert_eq!(profile.link_index_count(), 1);
        let index = profile.link_index("customer", "customer", 2).unwrap();
        let bytes = profile.materialized_bytes();
        // Every other selection of either side probes the same index
        // (the old per-selection cache grew by one relation each).
        for cid in ["cid01", "cid03", "cid04"] {
            let q = format!(
                "select * from (select * from customer where credit = good) \
                 l-join <Gs> customer as customerB where not customerB.cid = {cid}"
            );
            e.run(&q, Strategy::Optimized).unwrap();
        }
        assert_eq!(profile.link_index_count(), 1);
        assert!(Arc::ptr_eq(
            &index,
            &profile.link_index("customer", "customer", 2).unwrap()
        ));
        assert_eq!(profile.materialized_bytes(), bytes);
    }

    /// Sorted rendered rows: the row multiset of a relation.
    fn row_multiset(rel: &Relation) -> Vec<String> {
        let mut rows: Vec<String> = rel.rows().map(|t| format!("{t:?}")).collect();
        rows.sort();
        rows
    }

    /// `engine()` plus a customer no vertex of `Gs` matches.
    fn engine_with_stranger() -> GsqlEngine {
        let mut e = engine();
        let mut customer = e.db.get("customer").unwrap().clone();
        customer
            .push_values(vec![
                Value::str("cid05"),
                Value::str("Zed Nobody"),
                Value::str("good"),
                Value::Int(70_000),
            ])
            .unwrap();
        e.db.insert(customer);
        e
    }

    #[test]
    fn single_side_conjuncts_run_below_the_link_join() {
        let e = engine_with_stranger();
        // Two single-side conjuncts, one spanning both sides, one `or`
        // across the sides.
        let cond = "customer.cid = 'cid02' and not customerB.cid = 'cid03' \
                    and customer.credit = customerB.credit \
                    and (customer.bal > 200000 or customerB.bal < 120000)";
        let from = "select * from customer l-join <Gs> customer as customerB";
        let pushed = e.parse(&format!("{from} where {cond}")).unwrap();
        let pred = pushed.where_clause.clone().unwrap();
        let unpushed = e.parse(from).unwrap();
        for strategy in [Strategy::Optimized, Strategy::Baseline, Strategy::Heuristic] {
            let reference = e.run_query(&unpushed, strategy).and_then(|rel| {
                gsj_relational::physical::filter_rel(rel, &pred, "ref", &mut ExecContext::new())
            });
            let run = e.run_query_stats(&pushed, strategy);
            let (Ok(reference), Ok((rel, ctx))) = (&reference, &run) else {
                // No typed relations on `Gs`: the heuristic l-join degrades
                // or fails the same way with or without the pushdown.
                assert_eq!(reference.is_err(), run.is_err(), "{strategy:?}");
                continue;
            };
            assert_eq!(row_multiset(rel), row_multiset(reference), "{strategy:?}");
            assert_eq!(rel.len(), 1, "Bob Brown with himself; Ada's credit differs");
            let ops = ctx.ops();
            let ljoin = ops
                .iter()
                .position(|o| o.label.starts_with("LJoin("))
                .unwrap();
            let filters: Vec<(&str, Option<usize>, usize, usize)> = ops
                .iter()
                .filter(|o| o.label.starts_with("Filter"))
                .map(|o| (o.label.as_str(), o.parent, o.rows_in, o.rows_out))
                .collect();
            assert_eq!(
                filters,
                vec![
                    ("Filter(customer.cid)", Some(ljoin), 5, 1),
                    ("Filter(customerB.cid)", Some(ljoin), 5, 4),
                    ("Filter(customer.credit, customerB.credit)", None, 2, 1),
                    ("Filter(customer.bal, customerB.bal)", None, 1, 1),
                ],
                "{strategy:?}"
            );
            // The join saw the filtered sides only.
            assert_eq!((ops[ljoin].rows_in, ops[ljoin].rows_out), (5, 2));
        }
    }

    #[test]
    fn unmatched_tuples_drop_out_with_or_without_pushdown() {
        let e = engine_with_stranger();
        for strategy in [Strategy::Optimized, Strategy::Baseline] {
            let all = e
                .run(
                    "select * from customer l-join <Gs> customer as customerB",
                    strategy,
                )
                .unwrap();
            let col = |attr: &str| all.column(attr).unwrap();
            assert!(!col("customer.cid").contains(&Value::str("cid05")));
            assert!(!col("customerB.cid").contains(&Value::str("cid05")));
            for side in ["customer", "customerB"] {
                let q = format!(
                    "select * from customer l-join <Gs> customer as customerB \
                     where {side}.cid = cid05"
                );
                assert!(
                    e.run(&q, strategy).unwrap().is_empty(),
                    "{strategy:?} {side}"
                );
            }
        }
    }

    #[test]
    fn pushdown_reaches_link_joins_inside_subqueries_and_beside_other_items() {
        let e = engine();
        let q = e
            .parse(
                "select p.pid, s.cid from product as p, \
                 (select customer.cid as cid, customerB.name as friend \
                  from customer l-join <Gs> customer as customerB \
                  where customerB.cid = cid03) as s \
                 where p.pid = fd1",
            )
            .unwrap();
        let (rel, ctx) = e.run_query_stats(&q, Strategy::Optimized).unwrap();
        // Guy Ritchie is within two hops of Bob Brown, Ada King and himself.
        assert_eq!(rel.len(), 3);
        let ops = ctx.ops();
        let ljoin = ops
            .iter()
            .position(|o| o.label.starts_with("LJoin("))
            .unwrap();
        let pushed = ops
            .iter()
            .find(|o| o.label == "Filter(customerB.cid)")
            .unwrap();
        assert_eq!(pushed.parent, Some(ljoin));
        assert_eq!(ops[ljoin].rows_in, 4 + 1);
        // Operators stay in pre-order: the join's children follow it.
        assert!(ops
            .iter()
            .enumerate()
            .all(|(i, o)| o.parent.is_none_or(|p| p < i)));
    }

    #[test]
    fn link_join_strategies_agree_when_their_resolutions_agree() {
        // Give `Gs` a typed relation whose ER resolution is, by
        // construction, the vertex HER matched: one `(vid, name)` row per
        // customer. Then online HER, pre-matched f(D,G) and ER all resolve
        // alike, and the three l-join implementations share one kernel.
        let mut e = engine();
        let mut person = Relation::empty(Schema::of("g_person", &["vid", "name"]));
        let customer = e.db.get("customer").unwrap();
        let matches = &e
            .profile("Gs")
            .unwrap()
            .extraction("customer")
            .unwrap()
            .matches;
        for t in customer.rows() {
            let v = matches.vertex_of(t.get(0)).expect("every customer matched");
            person
                .push_values(vec![Value::Int(v.0 as i64), t.get(1).clone()])
                .unwrap();
        }
        let typed = crate::typed::TypedRelation {
            ty: "person".into(),
            discovery: crate::discover::Discovery {
                clusters: vec![],
                schema: person.schema().clone(),
                refined: vec![],
                paths: Default::default(),
                keyword_embs: vec![],
                total_paths: 0,
                word_dim: 0,
            },
            relation: person,
        };
        e.profile_mut("Gs").unwrap().typed = crate::heuristic::typed_store(vec![typed]);
        for q in [
            "select * from customer l-join <Gs> customer as customerB",
            "select * from customer l-join <Gs> customer as customerB \
             where customer.cid = cid02 and customerB.credit = good",
        ] {
            let parsed = e.parse(q).unwrap();
            let run = |strategy| {
                let (rel, ctx) = e.run_query_stats(&parsed, strategy).unwrap();
                assert!(
                    !ctx.ops().iter().any(|o| o.label.contains("[degraded")),
                    "{strategy:?} degraded: {}",
                    ctx.render()
                );
                rel.rows().collect::<Vec<_>>()
            };
            let base = run(Strategy::Baseline);
            assert!(!base.is_empty());
            // Same kernel, same row order — not merely the same multiset.
            assert_eq!(run(Strategy::Optimized), base);
            assert_eq!(run(Strategy::Heuristic), base);
        }
    }

    #[test]
    fn heuristic_strategy_answers_without_her_rext() {
        let e = engine();
        let q = "select pname, company from product e-join G <company> as T \
                 where T.risk = medium";
        let r = e.run(q, Strategy::Heuristic).unwrap();
        assert!(!r.is_empty());
        assert!(r.schema().contains("company"));
    }

    #[test]
    fn non_well_behaved_keywords_fall_back() {
        let e = engine();
        // `issuer` ∉ A_R = {company, loc} → not well-behaved.
        let q = "select * from product e-join G <issuer> as T";
        let parsed = e.parse(q).unwrap();
        assert!(!e.is_well_behaved(&parsed));
        // Optimized still answers it (via heuristic fallback).
        let r = e.run(q, Strategy::Optimized);
        assert!(r.is_ok());
    }

    #[test]
    fn aggregates_and_negation() {
        let e = engine();
        let q = "select credit, count(*) as n from customer \
                 where not credit = fair";
        let r = e.run(q, Strategy::Optimized).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.schema().attrs(), &["credit".to_string(), "n".to_string()]);
        assert_eq!(r.value_at(0, 1), Value::Int(2));
    }

    #[test]
    fn dynamic_join_over_subquery() {
        let e = engine();
        let q = "select pid, company from \
                 (select pid, pname, ptype, risk from product where risk = medium) \
                 e-join G <company, loc> as T";
        let parsed = e.parse(q).unwrap();
        assert!(e.is_well_behaved(&parsed), "sub-query projects one base");
        let r = e.run(q, Strategy::Optimized).unwrap();
        // fd1 and fd4 are medium-risk.
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn plain_sql_still_works() {
        let e = engine();
        let r = e
            .run(
                "select name from customer where bal >= 100000 and credit = good",
                Strategy::Optimized,
            )
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.value_at(0, 0), Value::str("Bob Brown"));
    }

    #[test]
    fn string_literals_and_bare_idents_agree() {
        let e = engine();
        let bare = e
            .run(
                "select * from customer where credit = good",
                Strategy::Optimized,
            )
            .unwrap();
        let quoted = e
            .run(
                "select * from customer where credit = 'good'",
                Strategy::Optimized,
            )
            .unwrap();
        assert_eq!(bare.len(), quoted.len());
    }

    #[test]
    fn order_by_and_limit() {
        let e = engine();
        let r = e
            .run(
                "select cid, bal from customer order by bal desc limit 2",
                Strategy::Optimized,
            )
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.value_at(0, 1), Value::Int(500_000));
        assert_eq!(r.value_at(1, 1), Value::Int(110_000));
        let asc = e
            .run(
                "select cid from customer order by cid limit 1",
                Strategy::Optimized,
            )
            .unwrap();
        assert_eq!(asc.value_at(0, 0), Value::str("cid01"));
    }

    #[test]
    fn explicit_group_by() {
        let e = engine();
        let r = e
            .run(
                "select credit, count(*) as n from customer group by credit order by n desc",
                Strategy::Optimized,
            )
            .unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.value_at(0, 1).as_int() >= r.value_at(1, 1).as_int());
        // A selected column outside GROUP BY is rejected.
        let bad = e.run(
            "select name, count(*) as n from customer group by credit",
            Strategy::Optimized,
        );
        assert!(bad.is_err());
    }

    #[test]
    fn select_list_aliases_name_the_output_columns() {
        let e = engine();
        let rows =
            |r: &Relation| -> Vec<Vec<Value>> { r.rows().map(|t| t.into_values()).collect() };
        // Plain projection: reordered, renamed, and one column twice.
        let (r, ctx) = e
            .run_query_stats(
                &e.parse("select bal as b, cid, cid as id from customer where credit = good")
                    .unwrap(),
                Strategy::Optimized,
            )
            .unwrap();
        assert_eq!(r.schema().attrs(), &["b", "cid", "id"]);
        assert_eq!(
            rows(&r),
            vec![
                vec![
                    Value::Int(110_000),
                    Value::str("cid02"),
                    Value::str("cid02")
                ],
                vec![Value::Int(50_000), Value::str("cid03"), Value::str("cid03")],
            ]
        );
        let project = ctx.ops().last().unwrap();
        assert_eq!(project.label, "Project(b, cid, id)");
        assert_eq!((project.rows_in, project.rows_out), (2, 2));
        // Aggregate: aliases on the group key and on both aggregates.
        let r = e
            .run(
                "select credit as c, count(*) as n, max(bal) as top from customer group by credit",
                Strategy::Optimized,
            )
            .unwrap();
        assert_eq!(r.schema().attrs(), &["c", "n", "top"]);
        assert_eq!(
            rows(&r),
            vec![
                vec![Value::str("fair"), Value::Int(2), Value::Int(500_000)],
                vec![Value::str("good"), Value::Int(2), Value::Int(110_000)],
            ]
        );
    }

    #[test]
    fn explain_names_the_rewrite() {
        let e = engine();
        let q = e
            .parse("select risk from product e-join G <company, loc> as T")
            .unwrap();
        let plan = e.explain(&q, Strategy::Optimized);
        assert!(plan.contains("static rewrite"), "{plan}");
        assert!(plan.contains("well-behaved: true"), "{plan}");
        let q2 = e
            .parse("select * from product e-join G <issuer> as T")
            .unwrap();
        let plan2 = e.explain(&q2, Strategy::Optimized);
        assert!(plan2.contains("heuristic"), "{plan2}");
        let q3 = e
            .parse("select * from customer l-join <Gs> customer as b")
            .unwrap();
        let plan3 = e.explain(&q3, Strategy::Optimized);
        assert!(plan3.contains("g_L"), "{plan3}");
    }

    #[test]
    fn explain_indents_a_sub_plan_under_the_item_that_runs_it() {
        let e = engine();
        let q = e
            .parse(
                "select p.pid, s.cid from product as p, \
                 (select customer.cid as cid from customer l-join <Gs> customer as b) as s, \
                 (select pid, risk from product) e-join G <company> as T",
            )
            .unwrap();
        assert_eq!(
            e.explain(&q, Strategy::Optimized),
            "scan product as p\n\
             subquery:\n\
             \x20 l-join <Gs> customer × customer (k = 2) — \
             pre-matched f(D,G) + pre-computed g_L reachability index\n\
             \x20 well-behaved: true\n\
             e-join G<company> over product — dynamic rewrite: Q ⋈ f(D,G) ⋈ h(D,G)\n\
             \x20 scan product\n\
             \x20 well-behaved: true\n\
             well-behaved: true\n"
        );
        // What the planner rejects is described by its error.
        let q = e
            .parse(
                "select * from (select p.pid, c.cid from product as p, customer as c) \
                 l-join <Gs> customer as b",
            )
            .unwrap();
        let plan = e.explain(&q, Strategy::Optimized);
        assert!(plan.contains("not traceable"), "{plan}");
    }

    #[test]
    fn explain_baseline_names_online_method() {
        let e = engine();
        let q = e
            .parse("select risk from product e-join G <company> as T")
            .unwrap();
        let plan = e.explain(&q, Strategy::Baseline);
        assert!(plan.contains("online HER + RExt"), "{plan}");
    }

    #[test]
    fn explain_analyze_reports_operator_counters() {
        let e = engine();
        let q = e
            .parse(
                "select T1.pid, T2.pid from \
                 product e-join G <company> as T1, product e-join G <company> as T2 \
                 where T1.pid = fd1 and T1.company = T2.company and T2.pid <> fd1",
            )
            .unwrap();
        let report = e.explain_analyze(&q, Strategy::Optimized).unwrap();
        // Plan section plus counters for the semantic joins, the pushed
        // filter, and the hash join of the fold.
        assert!(report.contains("static rewrite"), "{report}");
        assert!(
            report.contains("EJoin(G<company> over product, static)"),
            "{report}"
        );
        assert!(report.contains("HashJoin("), "{report}");
        assert!(report.contains("Filter(T1.pid)"), "{report}");
        assert!(report.contains("rows_in"), "{report}");
        assert!(report.contains("result: 1 row(s)"), "{report}");
    }

    #[test]
    fn explain_analyze_covers_link_joins() {
        let e = engine();
        let q = e
            .parse(
                "select * from customer l-join <Gs> customer as customerB \
                 where customer.cid = cid02",
            )
            .unwrap();
        let report = e.explain_analyze(&q, Strategy::Optimized).unwrap();
        assert!(
            report.contains("LJoin(<Gs> customer × customer, k=2, g_L index)"),
            "{report}"
        );
        assert!(report.contains("Filter(customer.cid)"), "{report}");
    }

    #[test]
    fn explain_analyze_unifies_operator_stats_and_stage_spans() {
        let e = engine();
        // One query exercising both semantic joins, under the online
        // (Baseline) strategy so HER + RExt actually run at query time.
        let q = e
            .parse(
                "select T.pid, customerB.name from \
                 product e-join G <company> as T, \
                 customer l-join <Gs> customer as customerB \
                 where customer.cid = cid02",
            )
            .unwrap();
        let report = e.explain_analyze(&q, Strategy::Baseline).unwrap();
        let trace = report.split("trace:\n").nth(1).expect("trace section");
        // One tree: the query root span first, everything else under it.
        assert!(trace.starts_with("gsql.query"), "{trace}");
        assert!(
            trace
                .lines()
                .skip(1)
                .all(|l| l.is_empty() || l.starts_with(' ')),
            "{trace}"
        );
        // Physical-operator stats and pipeline stage spans in the same
        // tree, not two disjoint reports.
        assert!(
            trace.contains("EJoin(G<company> over product, online)"),
            "{trace}"
        );
        assert!(trace.contains("LJoin("), "{trace}");
        assert!(trace.contains("gsql.ejoin"), "{trace}");
        assert!(trace.contains("her.match"), "{trace}");
        assert!(trace.contains("rext.discover"), "{trace}");
        assert!(trace.contains("join.link"), "{trace}");
        // Stage spans carry non-zero wall time (rendered as `[dur]`).
        let root_line = trace.lines().next().unwrap();
        assert!(root_line.contains('['), "no timing on root: {root_line}");
        let her_line = trace
            .lines()
            .find(|l| l.trim_start().starts_with("her.match"))
            .unwrap();
        assert!(her_line.contains('['), "no timing: {her_line}");
    }

    #[test]
    fn run_query_stats_counts_rows() {
        let e = engine();
        let q = e
            .parse("select name from customer where credit = good")
            .unwrap();
        let (rel, ctx) = e.run_query_stats(&q, Strategy::Optimized).unwrap();
        assert_eq!(rel.len(), 2);
        let filter = ctx
            .ops()
            .iter()
            .find(|o| o.label.starts_with("Filter"))
            .unwrap();
        assert_eq!(filter.rows_in, 4);
        assert_eq!(filter.rows_out, 2);
        let scan = ctx
            .ops()
            .iter()
            .find(|o| o.label.starts_with("Scan(customer"))
            .unwrap();
        assert_eq!(scan.rows_out, 4);
    }

    #[test]
    fn planned_strategies_match_execution() {
        use super::super::plan::ItemPlan;
        use super::super::strategies::EJoinImpl;
        let e = engine();
        let q = e
            .parse("select risk from product e-join G <company, loc> as T")
            .unwrap();
        let plan = e.plan_query(&q, Strategy::Optimized).unwrap();
        assert_eq!(plan.items.len(), 1);
        match &plan.items[0] {
            ItemPlan::EJoin(p) => assert_eq!(p.imp, EJoinImpl::Static),
            other => panic!("expected EJoin plan, got {other:?}"),
        }
        // Heuristic strategy forces the heuristic implementation.
        let plan_h = e.plan_query(&q, Strategy::Heuristic).unwrap();
        match &plan_h.items[0] {
            ItemPlan::EJoin(p) => {
                assert_eq!(p.imp, EJoinImpl::Heuristic { fallback: false })
            }
            other => panic!("expected EJoin plan, got {other:?}"),
        }
    }

    #[test]
    fn unknown_graph_is_an_error() {
        let e = engine();
        let r = e.run(
            "select * from product e-join NoSuch <x> as T",
            Strategy::Baseline,
        );
        assert!(r.is_err());
    }

    // The flight recorder is process-global and other tests emit records
    // concurrently; these tests identify their own records by id
    // watermark plus query text.

    #[test]
    fn every_query_leaves_a_flight_record() {
        let e = engine();
        let watermark = recorder::next_query_id();
        let q = e
            .parse("select name from customer where credit = good")
            .unwrap();
        let (rel, _) = e.run_query_stats(&q, Strategy::Optimized).unwrap();
        let rec = recorder::recent(usize::MAX)
            .into_iter()
            .find(|r| r.id > watermark && r.text == summarize_query(&q))
            .expect("record for the query just run");
        assert_eq!(rec.verdict, "ok");
        assert_eq!(rec.strategy, "Optimized");
        assert_eq!(rec.rows_out, rel.len() as u64);
        assert_eq!(rec.text_hash, recorder::text_hash(&summarize_query(&q)));
        assert!(!rec.degraded);
        assert!(rec.workers >= 1);
        assert!(rec.wall_ns > 0);
        assert!(!rec.phases.is_empty(), "top-level ops become phases");
        assert!(rec.trace_json.is_none(), "untraced query carries no spans");
        assert_eq!(
            rec.trace_id,
            recorder::trace_id_hex(recorder::trace_id_bits(rec.id))
        );
    }

    #[test]
    fn run_recorded_round_trips_text_and_spans() {
        let e = engine();
        let text = "select risk from product e-join G <company, loc> as T";
        let run = e.run_recorded(
            text,
            Strategy::Optimized,
            &QueryGovernor::unlimited(),
            TraceOpt::Force,
        );
        run.result.as_ref().expect("query succeeds");
        let doc = gsj_obs::parse_json(&run.spans_json().expect("forced trace"))
            .expect("span document parses");
        assert_eq!(
            doc.get("trace_id").unwrap().as_str(),
            Some(run.trace_id.as_str())
        );
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert!(
            spans
                .iter()
                .any(|s| s.get("label").and_then(|l| l.as_str()) == Some("gsql.query")),
            "span tree has the query root"
        );
        let rec = recorder::find_by_trace(&run.trace_id).expect("record by trace id");
        assert_eq!(rec.id, run.query_id);
        assert_eq!(rec.text, text);
        assert!(rec.trace_json.is_some());
        // Untraced runs still record, without spans.
        let run2 = e.run_recorded(
            text,
            Strategy::Optimized,
            &QueryGovernor::unlimited(),
            TraceOpt::Off,
        );
        assert!(run2.spans.is_none() && run2.spans_json().is_none());
        assert!(recorder::find_by_trace(&run2.trace_id).is_some());
    }

    #[test]
    fn failed_queries_record_their_error_code() {
        let e = engine();
        // Parse failure.
        let bad = e.run_recorded(
            "select from nothing at all",
            Strategy::Optimized,
            &QueryGovernor::unlimited(),
            TraceOpt::Off,
        );
        assert!(bad.result.is_err());
        let rec = recorder::find_by_trace(&bad.trace_id).expect("parse failures still record");
        assert_eq!(rec.verdict, "Parse");
        assert_eq!(rec.rows_out, 0);
        // Governance failure: an already-expired deadline fails the
        // first governor check deterministically.
        let gov = QueryGovernor::builder()
            .deadline(std::time::Duration::ZERO)
            .build();
        let run = e.run_recorded(
            "select * from customer",
            Strategy::Optimized,
            &gov,
            TraceOpt::Off,
        );
        assert!(run.result.is_err());
        let rec = recorder::find_by_trace(&run.trace_id).unwrap();
        assert_eq!(rec.verdict, "DeadlineExceeded");
    }

    #[test]
    fn slow_queries_capture_their_explain_at_record_time() {
        let e = engine();
        let was = recorder::slow_threshold_ns();
        recorder::set_slow_threshold_ns(0); // everything is "slow"
        let run = e.run_recorded(
            "select name from customer",
            Strategy::Optimized,
            &QueryGovernor::unlimited(),
            TraceOpt::Off,
        );
        recorder::set_slow_threshold_ns(was);
        run.result.as_ref().unwrap();
        let rec = recorder::find_by_trace(&run.trace_id).unwrap();
        let explain = rec
            .slow_explain
            .as_deref()
            .expect("slow tail captures explain");
        assert!(explain.contains("scan customer"), "{explain}");
        assert!(explain.contains("result: 4 row(s)"), "{explain}");
    }

    #[test]
    fn summarize_query_renders_joins_compactly() {
        let e = engine();
        let q = e
            .parse(
                "select T.pid, count(*) as n from \
                 product e-join G <company, loc> as T, \
                 customer l-join <Gs> customer as b \
                 where T.pid = fd1",
            )
            .unwrap();
        assert_eq!(
            summarize_query(&q),
            "select T.pid, count(*) from product e-join G<company, loc>, \
             customer l-join <Gs> customer where …"
        );
    }
}
