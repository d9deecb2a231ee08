//! Strategy selection as plan rewrites (Section IV).
//!
//! [`choose_ejoin`] / [`choose_ljoin`] map an execution [`Strategy`] plus
//! the well-behavedness evidence (keyword coverage by `A_R`, base vs
//! sub-query source) to a concrete implementation — [`EJoinImpl`] /
//! [`LJoinImpl`] — recorded in the query plan. The planner is their only
//! caller: `EXPLAIN` prints the plan's [`EJoinImpl::describe`] strings,
//! so what it says is what runs.
//!
//! The implementations themselves ([`eval_ejoin`], [`eval_ljoin`]) wrap
//! the semantic-join machinery in [`crate::join`] and
//! [`crate::heuristic`].

use super::exec::{GsqlEngine, Strategy};
use super::plan::{EJoinPlan, LJoinPlan};
use crate::join::enrichment::enrichment_join_precomputed_governed;
use crate::join::link::resolve_ids;
use crate::join::{enrichment_join, link_join, link_join_resolved};
use gsj_common::{GsjError, QueryGovernor, Result};
use gsj_relational::Relation;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How an enrichment join will be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EJoinImpl {
    /// Conceptual baseline: HER + RExt at query time.
    Online,
    /// Static rewrite over the materialized `f(D,G)` / `h(D,G)`.
    Static,
    /// Dynamic rewrite: the sub-query result joined with `f(D,G)` /
    /// `h(D,G)`.
    Dynamic,
    /// Heuristic join; `fallback` is true when `Optimized` degraded here
    /// because the join is not well-behaved (`A ⊄ A_R`).
    Heuristic { fallback: bool },
}

impl EJoinImpl {
    /// The `EXPLAIN` description.
    pub fn describe(self) -> &'static str {
        match self {
            EJoinImpl::Online => "online HER + RExt (conceptual baseline)",
            EJoinImpl::Static => "static rewrite: S ⋈ f(D,G) ⋈ h(D,G)",
            EJoinImpl::Dynamic => "dynamic rewrite: Q ⋈ f(D,G) ⋈ h(D,G)",
            EJoinImpl::Heuristic { fallback: false } => "heuristic join (schema match + ER)",
            EJoinImpl::Heuristic { fallback: true } => {
                "heuristic join (A ⊄ A_R → not well-behaved)"
            }
        }
    }

    /// Short tag for `EXPLAIN ANALYZE` operator labels.
    pub fn tag(self) -> &'static str {
        match self {
            EJoinImpl::Online => "online",
            EJoinImpl::Static => "static",
            EJoinImpl::Dynamic => "dynamic",
            EJoinImpl::Heuristic { .. } => "heuristic",
        }
    }
}

/// How a link join will be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LJoinImpl {
    /// Conceptual baseline: HER matching at query time, then a
    /// throw-away reachability index over the matched vertices.
    Online,
    /// Pre-matched `f(D,G)` vertices probed in the pre-computed `g_L`
    /// reachability index.
    Cached,
    /// Heuristic: ER against `gτ(G)` + connectivity.
    Heuristic,
}

impl LJoinImpl {
    /// The `EXPLAIN` description.
    pub fn describe(self) -> &'static str {
        match self {
            LJoinImpl::Online => "online HER + multi-source k-hop reachability",
            LJoinImpl::Cached => "pre-matched f(D,G) + pre-computed g_L reachability index",
            LJoinImpl::Heuristic => "heuristic: ER to gτ(G) + connectivity",
        }
    }

    /// Short tag for `EXPLAIN ANALYZE` operator labels.
    pub fn tag(self) -> &'static str {
        match self {
            LJoinImpl::Online => "online",
            LJoinImpl::Cached => "g_L index",
            LJoinImpl::Heuristic => "heuristic",
        }
    }
}

/// Rewrite an enrichment join to its implementation under `strategy`.
/// `base` is the traced base relation and `source_is_base`
/// distinguishes static from dynamic rewrites.
pub fn choose_ejoin(
    engine: &GsqlEngine,
    strategy: Strategy,
    base: &str,
    graph: &str,
    keywords: &[String],
    source_is_base: bool,
) -> EJoinImpl {
    match strategy {
        Strategy::Baseline => EJoinImpl::Online,
        Strategy::Heuristic => EJoinImpl::Heuristic { fallback: false },
        Strategy::Optimized => {
            let profile = engine.profiles.get(graph);
            if profile.is_some_and(|p| p.covers(base, keywords)) {
                if source_is_base {
                    EJoinImpl::Static
                } else {
                    EJoinImpl::Dynamic
                }
            } else {
                EJoinImpl::Heuristic { fallback: true }
            }
        }
    }
}

/// Rewrite a link join to its implementation under `strategy`.
pub fn choose_ljoin(strategy: Strategy) -> LJoinImpl {
    match strategy {
        Strategy::Baseline => LJoinImpl::Online,
        Strategy::Optimized => LJoinImpl::Cached,
        Strategy::Heuristic => LJoinImpl::Heuristic,
    }
}

static GL_CACHE_HITS: gsj_obs::LazyCounter =
    gsj_obs::LazyCounter::new("gsj_core_gl_cache_hits_total");
static GL_CACHE_MISSES: gsj_obs::LazyCounter =
    gsj_obs::LazyCounter::new("gsj_core_gl_cache_misses_total");
static FALLBACKS: gsj_obs::LazyCounter = gsj_obs::LazyCounter::new("gsj_core_gsql_fallback_total");

/// The result of a governed semantic-join evaluation: the relation plus
/// which implementation actually produced it. `used` differs from the
/// planned tag (and `degraded` is true) when the strategy fell back.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinOutcome {
    pub rel: Relation,
    pub used: &'static str,
    pub degraded: bool,
}

/// Record one strategy degradation: metric + trace event.
fn note_fallback(site: &str, from: &str, to: &str, err: &GsjError) {
    FALLBACKS.inc();
    gsj_obs::event(
        "gsql.fallback",
        &[
            ("site", &site),
            ("from", &from),
            ("to", &to),
            ("error", &err),
        ],
    );
}

/// The degradation chain for a planned enrichment-join implementation:
/// dynamic → static → online, static → online, heuristic → online. The
/// online baseline is only reachable when an [`crate::rext::Rext`] is
/// registered for the graph. Always starts with the planned `imp`.
fn ejoin_chain(e: &GsqlEngine, imp: EJoinImpl, graph: &str) -> Vec<EJoinImpl> {
    let online_ok = e.rexts.contains_key(graph);
    let mut chain = vec![imp];
    match imp {
        EJoinImpl::Dynamic => chain.push(EJoinImpl::Static),
        EJoinImpl::Static | EJoinImpl::Heuristic { .. } | EJoinImpl::Online => {}
    }
    if online_ok && imp != EJoinImpl::Online {
        chain.push(EJoinImpl::Online);
    }
    chain
}

/// The degradation chain for a planned link-join implementation: cached →
/// online, heuristic → online. The online baseline needs no precomputed
/// state, so it is always reachable.
fn ljoin_chain(imp: LJoinImpl) -> Vec<LJoinImpl> {
    match imp {
        LJoinImpl::Online => vec![LJoinImpl::Online],
        other => vec![other, LJoinImpl::Online],
    }
}

/// Run a degradation chain: try each implementation in order, degrading
/// to the next on retryable failures (injected faults, panics, resource
/// exhaustion). Governance errors — cancellation, deadline — always
/// propagate: a query past its deadline must not retry its way to a
/// slower implementation. `site` names the fault site and the fallback
/// events; `span` is the caller's open `site` span.
fn run_chain<I: Copy>(
    site: &'static str,
    mut span: gsj_obs::SpanGuard,
    chain: &[I],
    tag: impl Fn(I) -> &'static str,
    run: impl Fn(I) -> Result<Relation>,
    gov: &QueryGovernor,
) -> Result<JoinOutcome> {
    gov.check(site)?;
    let mut degraded = false;
    for (i, &imp) in chain.iter().enumerate() {
        let last = i + 1 == chain.len();
        // The fault site only arms on non-final attempts: an injected
        // fault here is recoverable by construction because the chain has
        // a next implementation to absorb it. It sits *inside* the
        // catch_unwind so a panic-mode fault degrades exactly like an
        // error-mode one instead of escaping to the query boundary.
        let res = catch_unwind(AssertUnwindSafe(|| {
            if !last {
                gsj_faults::fault_point(site, gsj_faults::FaultClass::Recoverable)?;
            }
            run(imp)
        }))
        .unwrap_or_else(|payload| {
            Err(GsjError::Internal(format!(
                "panic in {site}: {}",
                gsj_common::panic_message(&*payload)
            )))
        });
        match res {
            Ok(out) => {
                span.field("used", tag(imp)).field("degraded", degraded);
                gov.charge_mem(gsj_relational::approx_rel_bytes(&out));
                return Ok(JoinOutcome {
                    rel: out,
                    used: tag(imp),
                    degraded,
                });
            }
            Err(err) if !last && err.retryable() => {
                note_fallback(site, tag(imp), tag(chain[i + 1]), &err);
                degraded = true;
            }
            Err(err) => return Err(err),
        }
    }
    Err(GsjError::Internal(format!("empty {site} fallback chain")))
}

/// Execute a planned enrichment join over an evaluated source relation,
/// degrading along [`ejoin_chain`] (see [`run_chain`]).
pub(super) fn eval_ejoin(
    e: &GsqlEngine,
    p: &EJoinPlan,
    rel: &Relation,
    gov: &QueryGovernor,
) -> Result<JoinOutcome> {
    let mut span = gsj_obs::span("gsql.ejoin");
    span.field("impl", p.imp.tag())
        .field("graph", &p.graph)
        .field("base", &p.base);
    run_chain(
        "gsql.ejoin",
        span,
        &ejoin_chain(e, p.imp, &p.graph),
        EJoinImpl::tag,
        |imp| run_ejoin_impl(e, p, rel, imp, gov),
        gov,
    )
}

/// One enrichment-join implementation, ungoverned by the chain (the chain
/// owns fault injection and fallback; this owns the actual work).
fn run_ejoin_impl(
    e: &GsqlEngine,
    p: &EJoinPlan,
    rel: &Relation,
    imp: EJoinImpl,
    gov: &QueryGovernor,
) -> Result<Relation> {
    let id_attr = e.actual_id_attr(rel, &p.base)?;
    let g = e.the_graph(&p.graph)?;
    match imp {
        EJoinImpl::Online => {
            let rext = e.rexts.get(&p.graph).ok_or_else(|| {
                GsjError::Config(format!("no RExt registered for graph `{}`", p.graph))
            })?;
            let (joined, _state) =
                enrichment_join(rel, &id_attr, g, &p.keywords, rext, &e.her_cfg, gov)?;
            Ok(joined)
        }
        EJoinImpl::Static | EJoinImpl::Dynamic => {
            let profile = e
                .profiles
                .get(&p.graph)
                .ok_or_else(|| GsjError::Config(format!("no profile for graph `{}`", p.graph)))?;
            let ex = profile.extraction(&p.base)?;
            let out = enrichment_join_precomputed_governed(
                rel,
                &id_attr,
                &ex.matches,
                &ex.dg,
                Some(&p.keywords),
                gov,
            )?;
            gov.charge_rows(out.len() as u64);
            Ok(out)
        }
        EJoinImpl::Heuristic { .. } => {
            let profile = e
                .profiles
                .get(&p.graph)
                .ok_or_else(|| GsjError::Config(format!("no profile for graph `{}`", p.graph)))?;
            let out = crate::heuristic::heuristic_enrichment(
                rel,
                Some(&id_attr),
                &p.keywords,
                &profile.typed,
                &e.er_cfg,
            )?;
            gov.charge_rows(out.len() as u64);
            Ok(out)
        }
    }
}

/// Execute a planned link join over its two evaluated (and already
/// qualified) sides, degrading along [`ljoin_chain`] (see [`run_chain`]).
pub(super) fn eval_ljoin(
    e: &GsqlEngine,
    p: &LJoinPlan,
    lrel: &Relation,
    rrel: &Relation,
    gov: &QueryGovernor,
) -> Result<JoinOutcome> {
    let mut span = gsj_obs::span("gsql.ljoin");
    span.field("impl", p.imp.tag())
        .field("graph", &p.graph)
        .field("k", e.k);
    run_chain(
        "gsql.ljoin",
        span,
        &ljoin_chain(p.imp),
        LJoinImpl::tag,
        |imp| run_ljoin_impl(e, p, lrel, rrel, imp, gov),
        gov,
    )
}

/// One link-join implementation (see [`run_ejoin_impl`]).
fn run_ljoin_impl(
    e: &GsqlEngine,
    p: &LJoinPlan,
    lrel: &Relation,
    rrel: &Relation,
    imp: LJoinImpl,
    gov: &QueryGovernor,
) -> Result<Relation> {
    let lid = e.actual_id_attr(lrel, &p.lbase)?;
    let rid = e.actual_id_attr(rrel, &p.rbase)?;
    let g = e.the_graph(&p.graph)?;
    match imp {
        LJoinImpl::Online => link_join(lrel, &lid, rrel, &rid, g, e.k, &e.her_cfg, gov),
        LJoinImpl::Cached => {
            let profile = e
                .profiles
                .get(&p.graph)
                .ok_or_else(|| GsjError::Config(format!("no profile for graph `{}`", p.graph)))?;
            // One lookup per evaluated l-join. An injected cache fault
            // degrades to a miss: the held index is distrusted and
            // rebuilt.
            let held =
                match gsj_faults::fault_point("gsql.gl_cache", gsj_faults::FaultClass::Recoverable)
                {
                    Ok(()) => profile.link_index(&p.lbase, &p.rbase, e.k),
                    Err(err) => {
                        gsj_obs::event("gsql.gl_cache", &[("fault", &true), ("error", &err)]);
                        None
                    }
                };
            let hit = held.is_some();
            let index = match held {
                Some(index) => {
                    GL_CACHE_HITS.inc();
                    index
                }
                None => {
                    GL_CACHE_MISSES.inc();
                    profile.build_link_index(g, &p.lbase, &p.rbase, e.k, gov)?
                }
            };
            gsj_obs::event("gsql.gl_cache", &[("hit", &hit), ("rows", &index.pairs())]);
            link_join_resolved(
                lrel,
                &resolve_ids(lrel, &lid, &profile.extraction(&p.lbase)?.matches)?,
                rrel,
                &resolve_ids(rrel, &rid, &profile.extraction(&p.rbase)?.matches)?,
                &index,
                format!("{}_lj_{}", p.lalias, p.ralias),
                gov,
            )
        }
        LJoinImpl::Heuristic => {
            let profile = e
                .profiles
                .get(&p.graph)
                .ok_or_else(|| GsjError::Config(format!("no profile for graph `{}`", p.graph)))?;
            crate::heuristic::heuristic_link(
                lrel,
                Some(&lid),
                rrel,
                Some(&rid),
                &profile.typed,
                g,
                e.k,
                &e.er_cfg,
                gov,
            )
        }
    }
}
