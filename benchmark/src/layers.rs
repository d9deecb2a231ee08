//! The traced run: per-layer metrics, attributed from outside.
//!
//! Three parts, all on the workload's own fixture:
//!
//! 1. **Replay** — the workload's cycle, in-process, each read taken
//!    through the served path one public call at a time (request codec,
//!    parse, plan, execute, CSV, response codec) with a span around each.
//!    Alternate cycles go through `GsqlEngine::run_recorded` whole, so the
//!    difference is what the entry point adds.
//! 2. **Wire** — the same reads over GSJ/1 to a real server, for the
//!    round-trip time that the in-process pieces do not explain.
//! 3. **Probes** — one call per layer function that the cycle may or may
//!    not reach (BFS, HER, RExt, IncExt, the pool), so every layer has a
//!    number on every workload and a bypassed layer shows as "moved here,
//!    not end to end".

use crate::check::{strategies_agree, write_probe, Checks};
use crate::fixture::Fixture;
use crate::json::J;
use crate::report::{context, Metric, Report};
use crate::run::{wire_query, Outcomes, WARMUP_CYCLES};
use crate::span::{self, is_relational, Tracer};
use crate::stats::{mean, median};
use crate::workload::{Action, Plan, Workload, DELTA_BATCHES};
use crate::{delta, fixture, Args};
use gsj_common::{pool, QueryGovernor};
use gsj_core::gsql::exec::{Strategy, TraceOpt};
use gsj_core::incext::pattern_affected_zone;
use gsj_core::join::{
    connectivity_relation, enrichment_join, enrichment_join_precomputed, link_join,
};
use gsj_graph::traversal::{k_hop_set, within_k_hops};
use gsj_graph::{GraphUpdate, VertexId};
use gsj_her::her_match;
use gsj_obs::Registry;
use gsj_relational::physical::{self, ExecContext};
use gsj_relational::{Expr, Relation, Schema};
use gsj_server::{Client, Request, Response};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("datagen.build_ms", "ms"),
    ("core.rext.train_s", "s"),
    ("core.profile.build_s", "s"),
    ("server.start_ms", "ms"),
    ("core.profile.bytes", "B"),
    ("core.join.gl_rows", "count"),
    ("server.protocol.req_codec_us", "us"),
    ("server.protocol.resp_codec_us", "us"),
    ("server.resp_bytes", "B"),
    ("server.rtt_minus_exec_us", "us"),
    ("server.unattributed_us", "us"),
    ("core.gsql.parse_us", "us"),
    ("core.gsql.plan_us", "us"),
    ("core.gsql.execute_us", "us"),
    ("core.gsql.unattributed_us", "us"),
    ("core.gsql.ejoin_us", "us"),
    ("core.join.enrich_precomputed_us", "us"),
    ("relational.ops_us", "us"),
    ("relational.rows_in_per_row_out", "ratio"),
    ("relational.to_csv_us", "us"),
    ("core.gsql.ljoin_us", "us"),
    ("core.gsql.gl_lookups", "count"),
    ("core.gsql.gl_hits", "count"),
    ("core.gsql.fallbacks", "count"),
    ("core.join.gl_build_ms", "ms"),
    ("core.join.link_online_ms", "ms"),
    ("graph.khop_us", "us"),
    ("graph.khop_visited", "count"),
    ("graph.within_k_us", "us"),
    ("her.match_full_ms", "ms"),
    ("her.match_sub_ms", "ms"),
    ("her.matched_ratio", "ratio"),
    ("core.rext.select_paths_us", "us"),
    ("core.rext.discover_ms", "ms"),
    ("core.rext.extract_ms", "ms"),
    ("core.join.enrich_online_ms", "ms"),
    ("graph.apply_updates_ms", "ms"),
    ("core.incext.zone_ms", "ms"),
    ("core.incext.zone_vertices", "count"),
    ("core.incext.update_ms", "ms"),
    ("core.incext.reextract_ms", "ms"),
    ("core.incext.speedup_vs_reextract", "ratio"),
    ("common.pool.khop_2w_ratio", "ratio"),
    ("common.pool.join_2w_ratio", "ratio"),
    ("core.heuristic.rows_ratio", "ratio"),
    ("obs.recorder_records", "count"),
    ("trace_overhead_pct", "%"),
];

/// Repetitions of each probe; the metric is their median.
const REPS: usize = 3;
const _: () = assert!(REPS <= DELTA_BATCHES, "one ΔG batch per IncExt repetition");
/// Traced cycles are capped so the trace file stays a few MB.
const MAX_TRACED_CYCLES: usize = 120;
/// Rows on each side of the pool's hash-join probe.
const POOL_JOIN_ROWS: usize = 100_000;
/// Hop bound of the link join (`set_k(2)` in the serving recipe).
const K: usize = 2;

/// The spans a staged read opens directly under its `op.read` root.
const READ_STAGES: [&str; 6] = [
    "server.protocol.req_codec",
    "core.gsql.parse",
    "core.gsql.plan",
    "core.gsql.execute",
    "relational.to_csv",
    "server.protocol.resp_codec",
];

/// The stages `GsqlEngine::run_recorded` performs itself.
const GSQL_STAGES: [&str; 3] = ["core.gsql.parse", "core.gsql.plan", "core.gsql.execute"];

fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::Baseline => "baseline",
        Strategy::Optimized => "optimized",
        Strategy::Heuristic => "heuristic",
    }
}

fn counter(name: &str) -> u64 {
    Registry::global().counter(name, &[]).get()
}

/// Engine counters the replay reads as deltas.
#[derive(Clone, Copy)]
struct Counters {
    gl_hits: u64,
    gl_misses: u64,
    fallbacks: u64,
    recorded: u64,
}

impl Counters {
    fn now() -> Counters {
        Counters {
            gl_hits: counter("gsj_core_gl_cache_hits_total"),
            gl_misses: counter("gsj_core_gl_cache_misses_total"),
            fallbacks: counter("gsj_core_gsql_fallback_total"),
            recorded: gsj_obs::recorder::recorded_total(),
        }
    }
}

/// One read along the served path, a span per public call. Returns the
/// encoded response size.
fn staged_read(
    fx: &Fixture,
    text: &str,
    strategy: Strategy,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> gsj_common::Result<usize> {
    let root = tr.enter("op.read");
    let request = tr.time("server.protocol.req_codec", || {
        let wire = Request::query(text)
            .with_header("strategy", strategy_name(strategy))
            .encode();
        Request::parse(&wire)
    })?;
    let query = tr.time("core.gsql.parse", || fx.engine.parse(&request.body))?;
    let plan = tr.time("core.gsql.plan", || fx.engine.plan_query(&query, strategy))?;
    let exec = tr.enter("core.gsql.execute");
    let mut ctx = ExecContext::new();
    let rel = fx.engine.execute_plan(&plan, &mut ctx);
    let exec = tr.exit(exec);
    let rel = rel?;
    tr.add_operators(&ctx, exec);
    for op in ctx
        .ops()
        .iter()
        .filter(|op| is_relational(span::operator_kind(&op.label)))
    {
        tally.relational_rows_in += op.rows_in as u64;
        tally.relational_rows_out += op.rows_out as u64;
    }
    let csv = tr.time("relational.to_csv", || rel.to_csv());
    let bytes = tr.time("server.protocol.resp_codec", || {
        let wire = Response::success(csv)
            .with_header("elapsed-us", 0)
            .with_header("rows", rel.len())
            .encode();
        Response::parse(&wire).map(|_| wire.len())
    })?;
    tr.exit(root);
    Ok(bytes)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Reads go call by call through [`staged_read`].
    Staged,
    /// Reads go through `GsqlEngine::run_recorded`, as the server does.
    Recorded,
}

#[derive(Default)]
struct Tally {
    outcomes: Outcomes,
    staged_reads: usize,
    recorded_reads: usize,
    /// Rows into / out of relational operators over all staged reads.
    relational_rows_in: u64,
    relational_rows_out: u64,
    /// Per query template: µs inside parse + plan + execute of each traced
    /// staged read, and µs of each `run_recorded` call.
    gsql_us: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)>,
}

/// Run cycle `i` in-process.
fn replay_cycle(
    fx: &mut Fixture,
    plan: &Plan,
    deltas: &[Vec<GraphUpdate>],
    i: usize,
    mode: Mode,
    tr: &mut Tracer,
    tally: &mut Tally,
) {
    let strategy = plan.workload().strategy();
    for op in plan.cycle(i) {
        tr.next_op();
        let outcome = match &op.action {
            Action::Update(k) => {
                let root = tr.enter("op.update");
                let r = fx.apply(&deltas[*k], tr);
                tr.exit(root);
                r.map_err(|e| e.to_string())
            }
            Action::Query(text) if mode == Mode::Staged => {
                tally.staged_reads += 1;
                let r = staged_read(fx, text, strategy, tr, tally);
                let ns = tr.op_wall_ns(&GSQL_STAGES);
                if ns > 0 {
                    tally
                        .gsql_us
                        .entry(op.label)
                        .or_default()
                        .0
                        .push(ns as f64 / 1e3);
                }
                r.map(|_| ()).map_err(|e| e.to_string())
            }
            Action::Query(text) => {
                tally.recorded_reads += 1;
                let gov = QueryGovernor::unlimited();
                let t = Instant::now();
                let r = fx.engine.run_recorded(text, strategy, &gov, TraceOpt::Auto);
                let us = t.elapsed().as_nanos() as f64 / 1e3;
                tally.gsql_us.entry(op.label).or_default().1.push(us);
                r.result.map(|_| ()).map_err(|e| e.to_string())
            }
        };
        tally.outcomes.count(&op, outcome);
    }
}

/// Run another cycle? At least two, then until the budget or the cap.
fn more(cycles: usize, start: Instant, budget_s: f64) -> bool {
    cycles < 2 || (start.elapsed().as_secs_f64() < budget_s && cycles < MAX_TRACED_CYCLES)
}

/// What the in-process replay measured beside its spans.
struct Replay {
    tally: Tally,
    /// Mean wall time of a staged cycle with the tracer off / on.
    off_cycle_s: f64,
    on_cycle_s: f64,
    counters: Counters,
    next_cycle: usize,
}

/// Warm up, then `budget_s / 3` of untraced staged cycles, then traced
/// cycles alternating staged and recorded for the rest.
fn replay(
    fx: &mut Fixture,
    plan: &Plan,
    deltas: &[Vec<GraphUpdate>],
    budget_s: f64,
    tr: &mut Tracer,
) -> Replay {
    let mut tally = Tally::default();
    let mut i = 0;
    tr.set_on(false);
    while i < WARMUP_CYCLES {
        replay_cycle(fx, plan, deltas, i, Mode::Staged, tr, &mut tally);
        i += 1;
    }
    let before = Counters::now();

    let start = Instant::now();
    let mut off_cycles = 0;
    while more(off_cycles, start, budget_s / 3.0) {
        replay_cycle(fx, plan, deltas, i, Mode::Staged, tr, &mut tally);
        i += 1;
        off_cycles += 1;
    }
    let off_cycle_s = start.elapsed().as_secs_f64() / off_cycles as f64;
    // The untraced cycles are not part of the attribution.
    tally.staged_reads = 0;

    tr.set_on(true);
    let start = Instant::now();
    let mut staged_s = 0.0;
    let mut on_cycles = 0;
    while more(on_cycles, start, budget_s * 2.0 / 3.0) {
        let t = Instant::now();
        replay_cycle(fx, plan, deltas, i, Mode::Staged, tr, &mut tally);
        staged_s += t.elapsed().as_secs_f64();
        replay_cycle(fx, plan, deltas, i + 1, Mode::Recorded, tr, &mut tally);
        i += 2;
        on_cycles += 1;
    }
    let after = Counters::now();
    if i % 2 == 1 {
        // Updates come in (batch, inverse) pairs: finish the pair so the
        // probes start from the pristine graph.
        tr.set_on(false);
        replay_cycle(fx, plan, deltas, i, Mode::Staged, tr, &mut Tally::default());
        tr.set_on(true);
        i += 1;
    }
    Replay {
        tally,
        off_cycle_s,
        on_cycle_s: staged_s / on_cycles as f64,
        counters: Counters {
            gl_hits: after.gl_hits - before.gl_hits,
            gl_misses: after.gl_misses - before.gl_misses,
            fallbacks: after.fallbacks - before.fallbacks,
            recorded: after.recorded - before.recorded,
        },
        next_cycle: i,
    }
}

/// What the real server added.
#[derive(Default)]
struct Wire {
    rtt_minus_exec_us: Vec<f64>,
    resp_bytes: Vec<f64>,
}

/// The cycle's reads over GSJ/1 for `budget_s` (at least two cycles).
fn wire_segment(
    fx: &Fixture,
    plan: &Plan,
    first_cycle: usize,
    budget_s: f64,
    tr: &mut Tracer,
    outcomes: &mut Outcomes,
) -> Result<Wire, String> {
    let handle = tr
        .time("server.start", || fx.serve())
        .map_err(|e| e.to_string())?;
    let mut client = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
    let strategy = plan.workload().strategy();
    let mut wire = Wire::default();
    let start = Instant::now();
    let mut cycles = 0;
    while more(cycles, start, budget_s) {
        for op in plan.cycle(first_cycle + cycles) {
            let Action::Query(text) = &op.action else {
                continue; // the server cannot ingest ΔG
            };
            tr.next_op();
            let t = Instant::now();
            let reply = tr.time("server.round_trip", || {
                wire_query(&mut client, text, strategy)
            });
            let rtt_us = t.elapsed().as_nanos() as f64 / 1e3;
            // The first cycle warms the connection and is not sampled.
            if let (Ok(r), true) = (&reply, cycles > 0) {
                wire.rtt_minus_exec_us.push(rtt_us - r.elapsed_us as f64);
                wire.resp_bytes.push(r.body.len() as f64);
            }
            outcomes.count(&op, reply.map(|_| ()));
        }
        cycles += 1;
    }
    drop(client);
    handle.shutdown();
    Ok(wire)
}

/// Numbers the probes produce directly (everything else is in spans).
#[derive(Default)]
struct Probes {
    profile_bytes: usize,
    gl_rows: usize,
    /// Distinct matched vertices: the sources of every per-vertex probe.
    matched_vertices: usize,
    khop_visited: f64,
    within_k_pairs: usize,
    matched_ratio: f64,
    ejoin_us: Vec<f64>,
    ljoin_us: Vec<f64>,
    zone_vertices: Vec<f64>,
    heuristic_rows_ratio: f64,
}

/// Wall time (µs) of the first operator of `kind` in an executed plan.
fn operator_us(ctx: &ExecContext, kind: &str) -> Option<f64> {
    ctx.ops()
        .iter()
        .find(|op| span::operator_kind(&op.label) == kind)
        .map(|op| op.nanos as f64 / 1e3)
}

/// The qualified name of the id attribute in `rel`'s schema.
fn id_attr_of(rel: &Relation, id: &str) -> String {
    rel.schema()
        .attrs()
        .iter()
        .find(|a| Schema::base_name(a) == id)
        .expect("id attribute survives qualification")
        .clone()
}

/// A `rows`-row relation `name(k, v)` with distinct integer keys.
fn key_relation(name: &str, rows: usize) -> Relation {
    let mut rel = Relation::empty(Schema::of(
        name,
        &[&format!("{name}.k"), &format!("{name}.v")],
    ));
    for i in 0..rows as i64 {
        rel.push_values(vec![i.into(), (i * 7 % 1000).into()])
            .expect("arity matches");
    }
    rel
}

fn probes(
    fx: &mut Fixture,
    plan: &Plan,
    deltas: &[Vec<GraphUpdate>],
    tr: &mut Tracer,
    checks: &mut Checks,
    pin: Option<crate::host::Pin>,
) -> gsj_common::Result<Probes> {
    let mut p = Probes::default();
    let gov = QueryGovernor::unlimited();
    let her_cfg = fx.col.her_config();
    let id = fx.col.spec.id_attr.clone();
    let rel_name = fx.col.spec.rel_name.clone();
    let keywords = fx.col.spec.reference_keywords();
    let team = vec!["team".to_string()];
    let templates = gsj_datagen::queries::workload(&fx.col);

    p.profile_bytes = fx.profile().materialized_bytes();
    let mut matched: Vec<VertexId> = fx.extraction().matches.vertices().collect();
    matched.sort();
    matched.dedup();
    p.matched_vertices = matched.len();

    // --- link join and BFS ------------------------------------------------
    for _ in 0..REPS {
        let gl = tr.time("core.join.gl_build", || {
            connectivity_relation(fx.graph(), &matched, &matched, K, "g_l", &gov)
        })?;
        p.gl_rows = gl.len();
        let left = fx.relation().qualified(&rel_name);
        let right = fx.relation().qualified(&format!("{rel_name}B"));
        let (lid, rid) = (id_attr_of(&left, &id), id_attr_of(&right, &id));
        tr.time("core.join.link_online", || {
            link_join(&left, &lid, &right, &rid, fx.graph(), K, &her_cfg, &gov)
        })?;
        let visited: usize = tr.time("graph.khop", || {
            matched
                .iter()
                .map(|&v| k_hop_set(fx.graph(), v, K).len())
                .sum()
        });
        p.khop_visited = visited as f64 / matched.len().max(1) as f64;
        // Every source against every 8th target.
        p.within_k_pairs = tr.time("graph.within_k", || {
            let mut pairs = 0;
            for &u in &matched {
                for &v in matched.iter().step_by(8) {
                    std::hint::black_box(within_k_hops(fx.graph(), u, v, K));
                    pairs += 1;
                }
            }
            pairs
        });
    }

    // --- HER and RExt -----------------------------------------------------
    let half = fx.engine.run(
        &format!("select * from {rel_name} where category = 'Cat0'"),
        Strategy::Optimized,
    )?;
    let half_cfg = gsj_her::HerConfig {
        id_attr: id_attr_of(&half, &id),
        ..her_cfg.clone()
    };
    for _ in 0..REPS {
        let matches = tr.time("her.match_full", || {
            her_match(fx.graph(), fx.relation(), &her_cfg)
        })?;
        p.matched_ratio = matches.len() as f64 / fx.relation().len().max(1) as f64;
        tr.time("her.match_sub", || her_match(fx.graph(), &half, &half_cfg))?;
        tr.time("core.rext.select_paths", || {
            for &v in &matched {
                std::hint::black_box(fx.rext.select_paths(fx.graph(), v));
            }
        });
        let discovery = tr.time("core.rext.discover", || {
            let reference = Some((fx.relation(), id.as_str()));
            fx.rext
                .discover(fx.graph(), &matches, reference, &keywords, "h_probe")
        })?;
        tr.time("core.rext.extract", || {
            fx.rext.extract(fx.graph(), &matches, &discovery)
        })?;
        tr.time("core.join.enrich_online", || {
            enrichment_join(
                fx.relation(),
                &id,
                fx.graph(),
                &team,
                &fx.rext,
                &her_cfg,
                &gov,
            )
        })?;
    }
    for _ in 0..8 * REPS {
        let ex = fx.extraction();
        tr.time("core.join.enrich_precomputed", || {
            enrichment_join_precomputed(fx.relation(), &id, &ex.matches, &ex.dg, Some(&team))
        })?;
    }

    // --- the semantic-join operators, as the executor times them ---------
    let q2 = fx.engine.parse(&templates[1].text)?;
    let q6 = fx.engine.parse(&templates[5].text)?;
    fx.engine.run_query(&q6, Strategy::Optimized)?; // fill g_L: the probe is the hit path
    for _ in 0..8 * REPS {
        let (_, ctx) = fx.engine.run_query_stats(&q2, Strategy::Optimized)?;
        p.ejoin_us.extend(operator_us(&ctx, "EJoin"));
        let (_, ctx) = fx.engine.run_query_stats(&q6, Strategy::Optimized)?;
        p.ljoin_us.extend(operator_us(&ctx, "LJoin"));
    }

    // --- heuristic strategy: rows it returns against Optimized -------------
    let (mut heuristic_rows, mut optimized_rows) = (0usize, 0usize);
    for q in &templates[..5] {
        optimized_rows += fx.engine.run(&q.text, Strategy::Optimized)?.len();
        heuristic_rows += fx
            .engine
            .run(&q.text, Strategy::Heuristic)
            .map_or(0, |r| r.len());
    }
    p.heuristic_rows_ratio = heuristic_rows as f64 / optimized_rows.max(1) as f64;

    // --- Optimized ≡ Baseline on this workload's queries: recorded only ----
    let distinct = plan.distinct_queries();
    let agreeing = distinct
        .iter()
        .filter(|op| match &op.action {
            Action::Query(text) => strategies_agree(&fx.engine, text) == Ok(true),
            Action::Update(_) => false,
        })
        .count();
    checks.note(
        "strategy_agreement",
        J::Num(agreeing as f64 / distinct.len().max(1) as f64),
    );

    // --- the pool: two workers against one ---------------------------------
    let (l, r) = (
        key_relation("l", POOL_JOIN_ROWS),
        key_relation("r", POOL_JOIN_ROWS),
    );
    let on_key = Expr::cmp(
        gsj_relational::expr::CmpOp::Eq,
        Expr::col("l.k"),
        Expr::col("r.k"),
    );
    for _ in 0..REPS {
        for (workers, khop, join) in [
            (1, "common.pool.khop_1w", "common.pool.join_1w"),
            (2, "common.pool.khop_2w", "common.pool.join_2w"),
        ] {
            let mut timed = || {
                pool::with_threads(workers, || {
                    tr.time(khop, || {
                        for &v in &matched {
                            std::hint::black_box(k_hop_set(fx.graph(), v, K));
                        }
                    });
                    tr.time(join, || {
                        physical::join_rel(&l, &r, &on_key, "pool probe", &mut ExecContext::new())
                    })
                })
            };
            // A second worker needs a second CPU: the pin is lifted here only.
            match pin {
                Some(pin) => pin.lifted(timed),
                None => timed(),
            }?;
        }
    }

    // --- IncExt, last: it leaves D_G re-extracted ---------------------------
    for pair in 0..REPS {
        let report = fx.update_graph(&deltas[2 * pair], tr)?;
        let zone = tr.time("core.incext.zone", || {
            pattern_affected_zone(fx.graph(), &report.touched, &fx.extraction().discovery)
        });
        p.zone_vertices.push(zone.len() as f64);
        fx.maintain(&report, tr)?;
        // The paper's comparator: HER, discovery and extraction again.
        tr.time("core.incext.reextract", || {
            let matches = her_match(fx.graph(), fx.relation(), &her_cfg)?;
            let reference = Some((fx.relation(), id.as_str()));
            let d = fx
                .rext
                .discover(fx.graph(), &matches, reference, &keywords, "h_probe")?;
            fx.rext.extract(fx.graph(), &matches, &d)
        })?;
        fx.apply(&deltas[2 * pair + 1], tr)?;
    }
    Ok(p)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let w: Workload = args.workload;
    let err = |e: gsj_common::GsjError| e.to_string();
    let mut tr = Tracer::new(true);
    let mut fx = fixture::build(w.scale(), &mut tr).map_err(err)?;
    let plan = Plan::new(w, &fx.col, args.seed);
    let deltas = delta::sequence(fx.graph());
    let mut checks = Checks::default();

    // The same starting point as the untraced run: one round of the data
    // set's ΔG batches, with its IncExt checks.
    write_probe(&mut fx, &deltas, DELTA_BATCHES, true, &mut checks);
    let rp = replay(&mut fx, &plan, &deltas, args.seconds * 0.45, &mut tr);
    let mut tally = rp.tally;
    let wire = wire_segment(
        &fx,
        &plan,
        rp.next_cycle,
        args.seconds * 0.15,
        &mut tr,
        &mut tally.outcomes,
    )?;
    let p = probes(&mut fx, &plan, &deltas, &mut tr, &mut checks, args.pin).map_err(err)?;

    let spans = tr.spans();
    let totals = span::totals(spans);
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let us = 1e-3;
    let ms = 1e-6;
    // Cycle metrics: mean per staged read.
    let reads = tally.staged_reads.max(1) as f64;
    let per_read_us = |name: &str| total(name).wall_ns as f64 * us / reads;
    // Probe metrics: median over the repetitions.
    let med = |name: &str, scale: f64| median(&span::durations(spans, name)) * scale;
    let n = |name: &str| total(name).count as usize;

    let staged_us = per_read_us("op.read");
    let stages_us: f64 = READ_STAGES.iter().map(|s| per_read_us(s)).sum();
    let coverage = stages_us / staged_us;
    checks.expect(coverage >= 0.9, || {
        format!(
            "spans cover only {:.1}% of the in-process read time",
            coverage * 100.0
        )
    });
    // What `run_recorded` adds to parse + plan + execute (the recorder, the
    // governor, the panic boundary): per template the difference of the
    // medians, averaged over the templates by how often each was read.
    let (mut added_us, mut weight) = (0.0, 0.0);
    for (staged, recorded) in tally.gsql_us.values() {
        added_us += (median(recorded) - median(staged)) * recorded.len() as f64;
        weight += recorded.len() as f64;
    }
    let gsql_unattributed_us = added_us / weight.max(1.0);
    let rel_self_ns: u64 = totals
        .iter()
        .filter(|(kind, _)| is_relational(kind))
        .map(|(_, t)| t.self_ns)
        .sum();
    let (rel_in, rel_out) = (tally.relational_rows_in, tally.relational_rows_out);

    let c = rp.counters;
    checks.expect(c.recorded == tally.recorded_reads as u64, || {
        format!(
            "flight recorder holds {} new records for {} queries",
            c.recorded, tally.recorded_reads
        )
    });
    checks.expect(c.fallbacks == 0, || {
        format!("{} strategy fallbacks", c.fallbacks)
    });
    let lookups = c.gl_hits + c.gl_misses;
    match w {
        Workload::LjoinServed => checks.expect(c.gl_misses == 0 && lookups > 0, || {
            format!(
                "g_L must always hit here: {} misses of {lookups}",
                c.gl_misses
            )
        }),
        Workload::IncextMixed => checks.expect(c.gl_hits == 0 && lookups > 0, || {
            format!("g_L must always miss here: {} hits of {lookups}", c.gl_hits)
        }),
        _ => {}
    }

    let khop_per_source = |name: &str| med(name, us) / p.matched_vertices.max(1) as f64;
    let update_ms = med("core.incext.update", ms);
    let reextract_ms = med("core.incext.reextract", ms);
    let values: [(&str, f64, usize); 47] = [
        ("datagen.build_ms", med("datagen.build", ms), 1),
        ("core.rext.train_s", med("core.rext.train", 1e-9), 1),
        ("core.profile.build_s", med("core.profile.build", 1e-9), 1),
        ("server.start_ms", med("server.start", ms), 1),
        ("core.profile.bytes", p.profile_bytes as f64, 1),
        ("core.join.gl_rows", p.gl_rows as f64, 1),
        (
            "server.protocol.req_codec_us",
            per_read_us("server.protocol.req_codec"),
            n("server.protocol.req_codec"),
        ),
        (
            "server.protocol.resp_codec_us",
            per_read_us("server.protocol.resp_codec"),
            n("server.protocol.resp_codec"),
        ),
        (
            "server.resp_bytes",
            mean(&wire.resp_bytes),
            wire.resp_bytes.len(),
        ),
        (
            "server.rtt_minus_exec_us",
            mean(&wire.rtt_minus_exec_us),
            wire.rtt_minus_exec_us.len(),
        ),
        // What neither the server's own clock (`elapsed-us` covers the run
        // and the CSV) nor the codec explains: sockets, framing, hand-off.
        (
            "server.unattributed_us",
            mean(&wire.rtt_minus_exec_us)
                - per_read_us("server.protocol.req_codec")
                - per_read_us("server.protocol.resp_codec"),
            wire.rtt_minus_exec_us.len(),
        ),
        (
            "core.gsql.parse_us",
            per_read_us("core.gsql.parse"),
            n("core.gsql.parse"),
        ),
        (
            "core.gsql.plan_us",
            per_read_us("core.gsql.plan"),
            n("core.gsql.plan"),
        ),
        (
            "core.gsql.execute_us",
            per_read_us("core.gsql.execute"),
            n("core.gsql.execute"),
        ),
        (
            "core.gsql.unattributed_us",
            gsql_unattributed_us,
            tally.recorded_reads,
        ),
        ("core.gsql.ejoin_us", median(&p.ejoin_us), p.ejoin_us.len()),
        (
            "core.join.enrich_precomputed_us",
            med("core.join.enrich_precomputed", us),
            n("core.join.enrich_precomputed"),
        ),
        (
            "relational.ops_us",
            rel_self_ns as f64 * us / reads,
            tally.staged_reads,
        ),
        (
            "relational.rows_in_per_row_out",
            rel_in as f64 / rel_out.max(1) as f64,
            tally.staged_reads,
        ),
        (
            "relational.to_csv_us",
            per_read_us("relational.to_csv"),
            n("relational.to_csv"),
        ),
        ("core.gsql.ljoin_us", median(&p.ljoin_us), p.ljoin_us.len()),
        ("core.gsql.gl_lookups", lookups as f64, 1),
        ("core.gsql.gl_hits", c.gl_hits as f64, 1),
        ("core.gsql.fallbacks", c.fallbacks as f64, 1),
        (
            "core.join.gl_build_ms",
            med("core.join.gl_build", ms),
            n("core.join.gl_build"),
        ),
        (
            "core.join.link_online_ms",
            med("core.join.link_online", ms),
            n("core.join.link_online"),
        ),
        (
            "graph.khop_us",
            khop_per_source("graph.khop"),
            n("graph.khop"),
        ),
        ("graph.khop_visited", p.khop_visited, p.matched_vertices),
        (
            "graph.within_k_us",
            med("graph.within_k", us) / p.within_k_pairs.max(1) as f64,
            n("graph.within_k"),
        ),
        (
            "her.match_full_ms",
            med("her.match_full", ms),
            n("her.match_full"),
        ),
        (
            "her.match_sub_ms",
            med("her.match_sub", ms),
            n("her.match_sub"),
        ),
        ("her.matched_ratio", p.matched_ratio, 1),
        (
            "core.rext.select_paths_us",
            med("core.rext.select_paths", us) / p.matched_vertices.max(1) as f64,
            n("core.rext.select_paths"),
        ),
        (
            "core.rext.discover_ms",
            med("core.rext.discover", ms),
            n("core.rext.discover"),
        ),
        (
            "core.rext.extract_ms",
            med("core.rext.extract", ms),
            n("core.rext.extract"),
        ),
        (
            "core.join.enrich_online_ms",
            med("core.join.enrich_online", ms),
            n("core.join.enrich_online"),
        ),
        (
            "graph.apply_updates_ms",
            med("graph.apply_updates", ms),
            n("graph.apply_updates"),
        ),
        (
            "core.incext.zone_ms",
            med("core.incext.zone", ms),
            n("core.incext.zone"),
        ),
        (
            "core.incext.zone_vertices",
            median(&p.zone_vertices),
            p.zone_vertices.len(),
        ),
        ("core.incext.update_ms", update_ms, n("core.incext.update")),
        (
            "core.incext.reextract_ms",
            reextract_ms,
            n("core.incext.reextract"),
        ),
        (
            "core.incext.speedup_vs_reextract",
            reextract_ms / update_ms,
            n("core.incext.reextract"),
        ),
        (
            "common.pool.khop_2w_ratio",
            khop_per_source("common.pool.khop_2w") / khop_per_source("common.pool.khop_1w"),
            n("common.pool.khop_2w"),
        ),
        (
            "common.pool.join_2w_ratio",
            med("common.pool.join_2w", ms) / med("common.pool.join_1w", ms),
            n("common.pool.join_2w"),
        ),
        ("core.heuristic.rows_ratio", p.heuristic_rows_ratio, 5),
        ("obs.recorder_records", c.recorded as f64, 1),
        (
            "trace_overhead_pct",
            (rp.on_cycle_s - rp.off_cycle_s) / rp.off_cycle_s * 100.0,
            1,
        ),
    ];
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), (measured, value, samples))| {
            assert_eq!(name, measured, "values follow the order of PER_LAYER");
            Metric::new(name, value, unit, samples)
        })
        .collect();

    // Beyond BENCHMARK.json: where the cycle's time went, span by span.
    let cycle_self: Vec<(String, J)> = totals
        .iter()
        .filter(|(name, _)| READ_STAGES.contains(name) || span::OPERATOR_KINDS.contains(name))
        .map(|(name, t)| (name.to_string(), J::Num(t.self_ns as f64 * us / reads)))
        .collect();
    let mut extra = vec![
        ("staged_reads".to_string(), tally.staged_reads.into()),
        ("recorded_reads".to_string(), tally.recorded_reads.into()),
        (
            "wire_reads".to_string(),
            wire.rtt_minus_exec_us.len().into(),
        ),
        ("read_us".to_string(), J::Num(staged_us)),
        ("coverage_pct".to_string(), J::Num(coverage * 100.0)),
        ("cycle_self_us_per_read".to_string(), J::Obj(cycle_self)),
        ("spans".to_string(), spans.len().into()),
    ];
    if lookups > 0 {
        extra.push((
            "core.gsql.gl_hit_ratio".to_string(),
            J::Num(c.gl_hits as f64 / lookups as f64),
        ));
    }
    extra.extend(checks.notes);
    Ok(Report {
        context: context(args),
        checks_run: checks.run,
        check_failures: checks.failures,
        outcomes: tally.outcomes,
        metrics,
        extra,
        files: vec![(
            format!("trace-{}.json", w.name()),
            span::spans_json(spans) + "\n",
        )],
    })
}
