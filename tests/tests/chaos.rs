//! Chaos suite (DESIGN.md §11): deterministic fault injection at every
//! registered site, one site at a time and blanket, asserting the three
//! governance invariants:
//!
//! 1. **No panic escapes** the engine — injected panics are converted to
//!    typed errors at the fallback chain or the `run_query` boundary.
//! 2. Every operation returns **correct-or-typed-error**: an `Ok` result
//!    (possibly via a degraded strategy) or a `GsjError`, never a hang or
//!    an unwind.
//! 3. Degradation is **observable**: the `degraded` label in
//!    `EXPLAIN ANALYZE`, the fallback/retry counters, and per-site
//!    injection stats all record what happened.
//!
//! Every test serializes on [`gsj_faults::exclusive`] because the fault
//! spec is process-global.

use gsj_common::{GsjError, QueryGovernor, Result};
use gsj_core::gsql::exec::{GsqlEngine, Strategy};
use gsj_core::incext::{inc_update_graph, Extraction};
use gsj_core::join::{connectivity_relation, LinkIndex};
use gsj_core::rext::Rext;
use gsj_datagen::queries::workload;
use gsj_datagen::updates::balanced_updates;
use gsj_datagen::Collection;
use gsj_graph::random_walk::{build_corpus, WalkConfig};
use gsj_graph::update::apply_updates;
use gsj_her::her_match;
use gsj_server::serving_rext_config;
use gsj_tests::{counter, tiny};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Every fault site the engine registers, by the stage/span label. The
/// chaos tests drive each one; `record_mode_registers_every_site` fails
/// if this list and reality drift apart.
const SITES: &[&str] = &[
    "graph.khop",
    "graph.random_walk",
    "her.match",
    "rext.discover",
    "rext.extract",
    "join.enrichment",
    "join.link",
    "join.connectivity",
    "gsql.ejoin",
    "gsql.ljoin",
    "gsql.gl_cache",
    "relational.filter",
    "relational.hash_join",
    "incext.zone",
    "incext.her_redo",
    "incext.re_extract",
    "server.accept",
    "server.session",
];

struct Fixture {
    col: Collection,
    engine: Arc<GsqlEngine>,
    rext: Rext,
    initial: Extraction,
    /// One enrichment and one link query from the workload.
    eq: String,
    lq: String,
}

/// The fixture is built once and shared: engine construction dominates
/// test time, and the engine is read-only during the tests. First call
/// happens under the caller's [`gsj_faults::exclusive`] guard with no
/// spec installed, so fixture construction itself never faults.
fn fixture() -> &'static Fixture {
    static FIXTURE: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(build_fixture)
}

fn build_fixture() -> Fixture {
    let col = tiny("Celebrity");
    let rext = Rext::train(&col.graph, serving_rext_config()).unwrap();
    let engine = col.engine(Arc::new(rext.clone())).unwrap();

    let matches = her_match(&col.graph, col.entity_relation(), &col.her_config()).unwrap();
    let discovery = rext
        .discover(
            &col.graph,
            &matches,
            Some((col.entity_relation(), &col.spec.id_attr)),
            &col.spec.reference_keywords(),
            "h_x",
        )
        .unwrap();
    let dg = rext.extract(&col.graph, &matches, &discovery).unwrap();
    let initial = Extraction {
        discovery,
        matches,
        dg,
    };
    let eq = workload(&col).into_iter().find(|q| !q.link).unwrap().text;
    let lq = workload(&col).into_iter().find(|q| q.link).unwrap().text;
    Fixture {
        col,
        engine: Arc::new(engine),
        rext,
        initial,
        eq,
        lq,
    }
}

/// Start a loopback server over the fixture engine and run one query
/// through the full wire path, driving the `server.accept` and
/// `server.session` fault sites.
fn serve_one(f: &Fixture) -> Result<usize> {
    let handle = gsj_server::Server::start(
        Arc::clone(&f.engine),
        gsj_server::ServerConfig {
            sessions: 1,
            queue: 2,
            ..gsj_server::ServerConfig::default()
        },
    )?;
    let result = (|| {
        let mut c = gsj_server::Client::connect(handle.addr())?;
        let reply = c.query(&f.eq)?;
        Ok(reply.rows.unwrap_or(0) as usize)
    })();
    handle.shutdown();
    result
}

/// Drive every fault site once: the gSQL strategies, direct governed
/// traversals, and an IncExt data update. Returns per-operation results —
/// each must be `Ok` or a typed error, and the call itself must not
/// unwind.
fn drive_all(f: &Fixture) -> Vec<(&'static str, Result<usize>)> {
    let gov = QueryGovernor::unlimited();
    let mut out: Vec<(&'static str, Result<usize>)> = Vec::new();
    let mut q = |name, r: Result<gsj_relational::Relation>| out.push((name, r.map(|x| x.len())));
    q("ejoin.baseline", f.engine.run(&f.eq, Strategy::Baseline));
    q("ejoin.optimized", f.engine.run(&f.eq, Strategy::Optimized));
    q("ejoin.heuristic", f.engine.run(&f.eq, Strategy::Heuristic));
    q("ljoin.baseline", f.engine.run(&f.lq, Strategy::Baseline));
    q("ljoin.optimized", f.engine.run(&f.lq, Strategy::Optimized));
    let v0 = f.col.graph.vertices().next().unwrap();
    out.push((
        "graph.khop",
        LinkIndex::build(&f.col.graph, &[v0], &[v0], 2, &gov).map(|i| i.pairs()),
    ));
    // Direct g_L materialization: after the first run the engine answers
    // link joins from the profile cache, so keep this site reachable.
    out.push((
        "join.connectivity",
        connectivity_relation(&f.col.graph, &[v0], &[v0], 2, "g_l", &gov).map(|r| r.len()),
    ));
    out.push((
        "graph.walk",
        build_corpus(&f.col.graph, &WalkConfig::default(), &gov).map(|c| c.len()),
    ));
    // Direct relational drives: the filter operator and a hash natural
    // join, so the `relational.*` sites stay reachable even when the
    // engine answers queries from profile caches.
    {
        use gsj_relational::{CmpOp, ExecContext, Expr, Relation, Schema};
        let mut rel = Relation::empty(Schema::of("chaos_rel", &["id", "w"]));
        for i in 0..4i64 {
            rel.push_values(vec![
                gsj_common::Value::Int(i),
                gsj_common::Value::Int(i * 10),
            ])
            .unwrap();
        }
        let pred = Expr::cmp(CmpOp::Ge, Expr::col("w"), Expr::lit(20i64));
        out.push((
            "relational.filter",
            gsj_relational::physical::filter_rel(
                rel.clone(),
                &pred,
                "Filter",
                &mut ExecContext::new(),
            )
            .map(|r| r.len()),
        ));
        let mut other = Relation::empty(Schema::of("chaos_other", &["id", "tag"]));
        other
            .push_values(vec![gsj_common::Value::Int(2), gsj_common::Value::str("x")])
            .unwrap();
        out.push((
            "relational.hash_join",
            gsj_relational::exec::natural_join(&rel, &other, &gov).map(|r| r.len()),
        ));
    }
    let mut g = f.col.graph.clone();
    let ups = balanced_updates(&g, 0.05, 7);
    let report = apply_updates(&mut g, &ups);
    out.push((
        "incext.update",
        inc_update_graph(
            &f.rext,
            &g,
            f.col.entity_relation(),
            &f.col.her_config(),
            &f.initial,
            &report,
        )
        .map(|e| e.dg.len()),
    ));
    // One query over the wire so the server's admission and session
    // fault sites are driven alongside the engine's.
    out.push(("server.roundtrip", serve_one(f)));
    out
}

/// Install `spec`, run `body`, clear the spec again. Callers must hold
/// [`gsj_faults::exclusive`] for their whole test body (fixture included):
/// the spec is process-global, and building a fixture while another
/// test's error spec is live would fault its `unwrap`s.
fn with_spec<R>(spec: &str, body: impl FnOnce() -> R) -> R {
    gsj_faults::set_spec(Some(spec)).expect("spec parses");
    let out = body();
    gsj_faults::set_spec(None).unwrap();
    out
}

#[test]
fn record_mode_registers_every_site() {
    let _guard = gsj_faults::exclusive();
    let f = fixture();
    with_spec("all+critical:record", || {
        let results = drive_all(f);
        for (name, r) in &results {
            assert!(r.is_ok(), "{name} failed under record-only spec: {r:?}");
        }
        let stats = gsj_faults::sites();
        for site in SITES {
            let s = stats.iter().find(|s| s.name == *site);
            assert!(
                s.is_some_and(|s| s.hits > 0),
                "site `{site}` never hit; registered: {:?}",
                stats.iter().map(|s| s.name).collect::<Vec<_>>()
            );
        }
        assert!(stats.len() >= 10, "need ≥10 distinct sites");
    });
}

#[test]
fn every_site_injects_without_escaping_a_panic() {
    let _guard = gsj_faults::exclusive();
    let f = fixture();
    for site in SITES {
        with_spec(&format!("{site}:error,p=1"), || {
            let results = catch_unwind(AssertUnwindSafe(|| drive_all(f)))
                .unwrap_or_else(|_| panic!("a panic escaped while faulting `{site}`"));
            // Correct-or-typed-error: results are Ok (possibly degraded)
            // or a GsjError; being here at all means nothing unwound.
            let failed: Vec<_> = results.iter().filter(|(_, r)| r.is_err()).collect();
            let stats = gsj_faults::sites();
            let s = stats.iter().find(|s| s.name == *site).unwrap();
            assert!(
                s.injected > 0,
                "site `{site}` was configured to fault but never injected \
                 (ops failed: {failed:?})"
            );
        });
    }
}

#[test]
fn recoverable_faults_degrade_and_are_observable() {
    let _guard = gsj_faults::exclusive();
    let f = fixture();
    with_spec("gsql.ejoin:error,p=1", || {
        let before = counter("gsj_core_gsql_fallback_total");
        let rel = f.engine.run(&f.eq, Strategy::Optimized);
        assert!(
            rel.is_ok(),
            "fallback chain should absorb the fault: {rel:?}"
        );
        assert!(
            counter("gsj_core_gsql_fallback_total") > before,
            "degradation must be visible in the fallback counter"
        );
        // ... and in EXPLAIN ANALYZE operator labels.
        let q = f.engine.parse(&f.eq).unwrap();
        let explained = f.engine.explain_analyze(&q, Strategy::Optimized).unwrap();
        assert!(
            explained.contains("[degraded → "),
            "EXPLAIN ANALYZE lost the degradation label:\n{explained}"
        );
    });
}

#[test]
fn injected_panic_at_recoverable_site_is_contained() {
    let _guard = gsj_faults::exclusive();
    let f = fixture();
    with_spec("gsql.ejoin:panic,p=1", || {
        let rel = f.engine.run(&f.eq, Strategy::Optimized);
        assert!(rel.is_ok(), "panic should degrade, not fail: {rel:?}");
    });
    with_spec("gsql.ljoin:panic,p=1", || {
        let rel = f.engine.run(&f.lq, Strategy::Optimized);
        assert!(rel.is_ok(), "panic should degrade, not fail: {rel:?}");
    });
}

#[test]
fn critical_fault_fails_with_typed_error() {
    let _guard = gsj_faults::exclusive();
    let f = fixture();
    with_spec("her.match:error,p=1", || {
        let err = f.engine.run(&f.eq, Strategy::Baseline).unwrap_err();
        assert!(matches!(err, GsjError::Internal(_)), "{err:?}");
        assert!(err.to_string().contains("injected fault at her.match"));
        // The optimized strategy never calls HER at query time, so the
        // same spec leaves it untouched.
        assert!(f.engine.run(&f.eq, Strategy::Optimized).is_ok());
    });
}

#[test]
fn injected_panic_at_critical_site_is_caught_at_query_boundary() {
    let _guard = gsj_faults::exclusive();
    let f = fixture();
    with_spec("her.match:panic,p=1", || {
        let err = f.engine.run(&f.eq, Strategy::Baseline).unwrap_err();
        assert!(
            matches!(&err, GsjError::Internal(m) if m.contains("panic")),
            "expected a typed panic conversion, got {err:?}"
        );
    });
}

#[test]
fn gl_cache_fault_degrades_to_recompute() {
    let _guard = gsj_faults::exclusive();
    let f = fixture();
    // Warm the cache, then distrust it: the query must recompute and
    // still answer identically.
    let warm = f.engine.run(&f.lq, Strategy::Optimized).unwrap();
    with_spec("gsql.gl_cache:error,p=1", || {
        let before = counter("gsj_core_gl_cache_misses_total");
        let rel = f.engine.run(&f.lq, Strategy::Optimized).unwrap();
        assert_eq!(rel, warm);
        assert!(counter("gsj_core_gl_cache_misses_total") > before);
    });
}

#[test]
fn incext_retry_absorbs_transient_fault() {
    let _guard = gsj_faults::exclusive();
    let f = fixture();
    // Find a seed whose decision stream faults hit 0 of incext.zone but
    // passes hit 1 — a genuinely transient failure, deterministically.
    let site = "incext.zone";
    let seed = (0u64..10_000)
        .find(|&seed| {
            let clause = gsj_faults::FaultClause {
                target: gsj_faults::FaultTarget::Site(site.into()),
                action: gsj_faults::FaultAction::Error,
                p_num: gsj_faults::P_DENOM / 2,
                after: 0,
                seed,
            };
            gsj_faults::decides(&clause, site, 0) && !gsj_faults::decides(&clause, site, 1)
        })
        .expect("some seed gives inject-then-pass");
    with_spec(&format!("{site}:error,p=0.5,seed={seed}"), || {
        let before = counter("gsj_core_incext_retry_total");
        let mut g = f.col.graph.clone();
        let ups = balanced_updates(&g, 0.05, 7);
        let report = apply_updates(&mut g, &ups);
        let r = inc_update_graph(
            &f.rext,
            &g,
            f.col.entity_relation(),
            &f.col.her_config(),
            &f.initial,
            &report,
        );
        assert!(r.is_ok(), "retry should absorb the transient fault: {r:?}");
        assert!(
            counter("gsj_core_incext_retry_total") > before,
            "the retry must be visible in the retry counter"
        );
    });
}

#[test]
fn server_session_fault_is_an_error_frame_not_a_dead_server() {
    let _guard = gsj_faults::exclusive();
    let f = fixture();
    let handle = gsj_server::Server::start(
        Arc::clone(&f.engine),
        gsj_server::ServerConfig {
            sessions: 2,
            queue: 2,
            ..gsj_server::ServerConfig::default()
        },
    )
    .unwrap();
    with_spec("server.session:error,p=1", || {
        let mut c = gsj_server::Client::connect(handle.addr()).unwrap();
        let err = c.query(&f.eq).unwrap_err();
        assert!(
            matches!(&err, GsjError::Internal(m) if m.contains("injected fault at server.session")),
            "expected the injected session fault as an error frame, got {err:?}"
        );
        // The session survives its own fault: the same connection gets a
        // fresh error frame for the next request, not a dead socket.
        let again = c.query(&f.eq).unwrap_err();
        assert!(matches!(again, GsjError::Internal(_)), "{again:?}");
    });
    // Spec cleared: the very same server serves cleanly — the fault
    // never took down a worker or the listener.
    let mut c = gsj_server::Client::connect(handle.addr()).unwrap();
    assert!(c.query(&f.eq).is_ok());
    handle.shutdown();
}

#[test]
fn server_session_panic_is_contained_to_the_request() {
    let _guard = gsj_faults::exclusive();
    let f = fixture();
    let handle = gsj_server::Server::start(
        Arc::clone(&f.engine),
        gsj_server::ServerConfig {
            sessions: 2,
            queue: 2,
            ..gsj_server::ServerConfig::default()
        },
    )
    .unwrap();
    with_spec("server.session:panic,p=1", || {
        let mut c = gsj_server::Client::connect(handle.addr()).unwrap();
        let err = c.query(&f.eq).unwrap_err();
        assert!(
            matches!(&err, GsjError::Internal(m) if m.contains("panic")),
            "expected a contained-panic error frame, got {err:?}"
        );
    });
    let mut sibling = gsj_server::Client::connect(handle.addr()).unwrap();
    assert!(
        sibling.query(&f.eq).is_ok(),
        "a panicking request must not take sibling sessions down"
    );
    handle.shutdown();
}

#[test]
fn server_accept_fault_refuses_one_connection_not_the_listener() {
    let _guard = gsj_faults::exclusive();
    let f = fixture();
    let handle =
        gsj_server::Server::start(Arc::clone(&f.engine), gsj_server::ServerConfig::default())
            .unwrap();
    for spec in ["server.accept:error,p=1", "server.accept:panic,p=1"] {
        with_spec(spec, || {
            let mut c = gsj_server::Client::connect(handle.addr()).unwrap();
            let err = c.query(&f.eq).unwrap_err();
            assert!(
                matches!(&err, GsjError::Internal(m)
                    if m.contains("server.accept") || m.contains("panic")),
                "under {spec}: expected an admission refusal frame, got {err:?}"
            );
        });
        // The accept loop survived: the next connection is admitted and
        // served once the spec is gone.
        let mut c = gsj_server::Client::connect(handle.addr()).unwrap();
        assert!(c.query(&f.eq).is_ok(), "listener died under {spec}");
    }
    handle.shutdown();
}

#[test]
fn every_refused_connection_reads_its_refusal() {
    // The accept thread writes its refusal and closes without reading;
    // a client whose request races that close gets `EPIPE` on its second
    // write. The refusal is already in its receive buffer and is what it
    // must report — on every one of many attempts, since the race is
    // rare.
    let _guard = gsj_faults::exclusive();
    let f = fixture();
    let handle =
        gsj_server::Server::start(Arc::clone(&f.engine), gsj_server::ServerConfig::default())
            .unwrap();
    with_spec("server.accept:error,p=1", || {
        for attempt in 0..200 {
            let mut c = gsj_server::Client::connect(handle.addr()).unwrap();
            let err = c.query(&f.eq).unwrap_err();
            assert!(
                matches!(&err, GsjError::Internal(m) if m.contains("server.accept")),
                "attempt {attempt}: expected the admission refusal, got {err:?}"
            );
        }
    });
    handle.shutdown();
}

#[test]
fn blanket_chaos_keeps_the_workload_green() {
    // The CI smoke spec: blanket recoverable faults at 5%. Every workload
    // query must still answer (possibly degraded).
    let _guard = gsj_faults::exclusive();
    let f = fixture();
    with_spec("all:p=0.05,seed=42", || {
        for q in workload(&f.col) {
            let r = f.engine.run(&q.text, Strategy::Optimized);
            assert!(
                r.is_ok(),
                "{} failed under blanket chaos: {:?}",
                q.name,
                r.err()
            );
        }
    });
}

#[test]
fn random_blanket_chaos_never_breaks_queries() {
    // Property: for ANY seed and any blanket probability up to 30%, an
    // optimized query still answers. Drawn with proptest's deterministic
    // RNG; the fixture is hoisted out of the case loop because building
    // it is the expensive part.
    use proptest::strategy::Strategy as Gen;
    use proptest::test_runner::{Config, TestRng};
    let _guard = gsj_faults::exclusive();
    let f = fixture();
    let cfg = Config::with_cases(6);
    let mut rng = TestRng::deterministic("random_blanket_chaos_never_breaks_queries");
    for _case in 0..cfg.cases {
        let (seed, p) = (0u64..u64::MAX, 0u32..31u32).generate(&mut rng);
        let spec = format!("all:p=0.{p:02},seed={seed}");
        let (r1, r2) = with_spec(&spec, || {
            (
                f.engine.run(&f.eq, Strategy::Optimized),
                f.engine.run(&f.lq, Strategy::Optimized),
            )
        });
        assert!(r1.is_ok(), "enrichment under {spec}: {:?}", r1.err());
        assert!(r2.is_ok(), "link under {spec}: {:?}", r2.err());
    }
}
