//! `server_smoke` — the CI smoke driver: spawn a real `gsj-serve`
//! subprocess on a fixture collection, then exercise the full serving
//! contract from outside the process:
//!
//! 1. liveness (`PING`),
//! 2. eight concurrent clients running the workload successfully,
//! 3. a constant thread count under load (`/proc/<pid>/task` before and
//!    after 1 000 more queries: main, accept, metrics, and a worker plus
//!    its watcher per session),
//! 4. a governance rejection (zero deadline → `DeadlineExceeded`),
//! 5. an admission shed (saturate sessions + queue → `ResourceExhausted`),
//! 6. a wire-traced query (`trace: 1` → span-tree body + `trace-id`
//!    header) and an `explain: analyze` one, cross-checked against the
//!    `/debug/queries`, `/debug/slow` and `/debug/trace/<id>`
//!    introspection routes,
//! 7. a `/metrics` scrape that parses as Prometheus text (including the
//!    derived latency percentile gauges), plus `/healthz`,
//! 8. graceful shutdown (`SHUTDOWN` verb → child exits 0).
//!
//! Exits nonzero (panics) on the first violated expectation.

use gsj_common::GsjError;
use gsj_obs::parse_prometheus_text;
use gsj_server::{http_get, Client, QueryOpts};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const COLLECTION: &str = "Celebrity";
const SESSIONS: usize = 4;
const QUEUE: usize = 4;
/// Queries of the thread-count step, spread over `SESSIONS` clients.
const LOAD_QUERIES: usize = 1_000;

/// Kill the child on any panic path so CI never leaks a server.
struct KillGuard(Child);
impl Drop for KillGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn serve_binary() -> std::path::PathBuf {
    let mut p = std::env::current_exe().expect("current_exe");
    p.pop();
    p.push("gsj-serve");
    assert!(
        p.exists(),
        "gsj-serve not found next to server_smoke at {p:?}"
    );
    p
}

/// The child's threads: `/proc/<pid>/task` holds one entry per thread.
fn thread_count(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("read /proc/<pid>/task")
        .count()
}

fn main() {
    let child = Command::new(serve_binary())
        .args([
            "--collection",
            COLLECTION,
            "--scale",
            "tiny",
            "--seed",
            "42",
            "--listen",
            "127.0.0.1:0",
            "--metrics",
            "127.0.0.1:0",
            "--sessions",
            &SESSIONS.to_string(),
            "--queue",
            &QUEUE.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn gsj-serve");
    let mut guard = KillGuard(child);

    // The server prints its ephemeral ports once the fixture is loaded.
    let stdout = guard.0.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let mut serve_addr: Option<SocketAddr> = None;
    let mut metrics_addr: Option<SocketAddr> = None;
    while serve_addr.is_none() || metrics_addr.is_none() {
        let line = lines
            .next()
            .expect("gsj-serve exited before announcing its ports")
            .expect("read child stdout");
        if let Some(rest) = line.strip_prefix("listening on ") {
            serve_addr = Some(rest.trim().parse().expect("parse listen addr"));
        } else if let Some(rest) = line.strip_prefix("metrics on ") {
            metrics_addr = Some(rest.trim().parse().expect("parse metrics addr"));
        }
    }
    let serve_addr = serve_addr.unwrap();
    let metrics_addr = metrics_addr.unwrap();
    println!("server_smoke: serving on {serve_addr}, metrics on {metrics_addr}");

    // 1. Liveness.
    let mut probe = Client::connect(serve_addr).expect("connect");
    probe.ping().expect("ping");
    let pid = guard.0.id();
    let threads = thread_count(pid);
    assert_eq!(
        threads,
        3 + 2 * SESSIONS,
        "gsj-serve should run main, accept and metrics threads plus a worker \
         and a watcher per session"
    );

    // 2. Eight concurrent clients, each running the full workload for
    //    the served collection. SESSIONS + QUEUE = 8, so all of them are
    //    admitted; every query must succeed.
    let col = gsj_datagen::collections::build(COLLECTION, gsj_datagen::Scale::tiny(), 42)
        .expect("known collection");
    let queries: Vec<String> = gsj_datagen::queries::workload(&col)
        .into_iter()
        .map(|q| q.text)
        .collect();
    drop(probe); // free the session before saturating
    std::thread::sleep(Duration::from_millis(300)); // let its worker observe the EOF
    let workers: Vec<_> = (0..8)
        .map(|i| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(serve_addr).expect("connect");
                for (j, q) in queries.iter().enumerate() {
                    let reply = c
                        .query(q)
                        .unwrap_or_else(|e| panic!("client {i} query {j}: {e}"));
                    assert!(reply.rows.is_some(), "client {i} query {j}: no rows header");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("concurrent client panicked");
    }
    println!(
        "server_smoke: 8 concurrent clients x {} queries ok",
        queries.len()
    );

    // 3. Constant thread count: no thread per connection or per query.
    let clients: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(serve_addr).expect("connect");
                for j in 0..LOAD_QUERIES / SESSIONS {
                    let q = &queries[(i + j) % queries.len()];
                    c.query(q)
                        .unwrap_or_else(|e| panic!("load client {i} query {j}: {e}"));
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("load client panicked");
    }
    assert_eq!(
        thread_count(pid),
        threads,
        "gsj-serve's thread count changed under {LOAD_QUERIES} queries"
    );
    println!("server_smoke: {threads} threads before and after {LOAD_QUERIES} queries ok");

    // 4. Governance rejection: a zero deadline must come back as the
    //    typed DeadlineExceeded, not a generic failure.
    let mut c = Client::connect(serve_addr).expect("connect");
    let opts = QueryOpts {
        deadline: Some(Duration::ZERO),
        ..QueryOpts::default()
    };
    match c.query_with(&queries[0], &opts) {
        Err(e @ GsjError::DeadlineExceeded(_)) => {
            assert!(e.is_governance());
            println!("server_smoke: governance rejection ok ({e})");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    drop(c);
    std::thread::sleep(Duration::from_millis(200)); // let every worker go idle

    // 5. Admission shed: hold SESSIONS + QUEUE idle connections, then
    //    one more client must be refused with ResourceExhausted.
    let holders: Vec<Client> = (0..SESSIONS + QUEUE)
        .map(|_| Client::connect(serve_addr).expect("holder connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(300)); // let the accept loop admit them
    let mut extra = Client::connect(serve_addr).expect("extra connect");
    match extra.query("select 1") {
        Err(e @ GsjError::ResourceExhausted(_)) => {
            assert!(e.retryable());
            println!("server_smoke: admission shed ok ({e})");
        }
        other => panic!("expected ResourceExhausted shed, got {other:?}"),
    }
    drop(extra);
    drop(holders);
    std::thread::sleep(Duration::from_millis(200)); // workers notice the EOFs

    // 6. Wire tracing + introspection: a `trace: 1` query returns the
    //    span tree as its body and a trace-id header, and the same id is
    //    resolvable through every /debug route.
    let mut c = Client::connect(serve_addr).expect("connect for trace");
    let opts = QueryOpts {
        trace: true,
        ..QueryOpts::default()
    };
    let reply = c.query_with(&queries[0], &opts).expect("traced query");
    let tid = reply.trace_id.clone().expect("traced reply lacks trace-id");
    assert!(reply.rows.is_some(), "traced reply lacks rows header");
    assert!(
        reply.body.contains(&format!("\"trace_id\":\"{tid}\"")),
        "span doc does not embed the reply's trace id; body: {}",
        reply.body
    );
    assert!(
        reply.body.contains("gsql.query"),
        "span doc lacks the gsql.query root span; body: {}",
        reply.body
    );
    // An untraced query still mints a trace id (header only, CSV body).
    let plain = c.query(&queries[0]).expect("plain query");
    let plain_tid = plain.trace_id.expect("plain reply lacks trace-id");
    assert!(!plain.body.contains("\"spans\""), "plain body must be CSV");
    // EXPLAIN ANALYZE is the same run rendered as text, under an id of
    // its own.
    let opts = QueryOpts {
        explain_analyze: true,
        ..QueryOpts::default()
    };
    let explained = c.query_with(&queries[0], &opts).expect("explain analyze");
    let explain_tid = explained.trace_id.expect("explain reply lacks trace-id");
    assert!(
        explained.body.contains("\ntrace:\ngsql.query"),
        "explain body lacks the trace tree: {}",
        explained.body
    );
    drop(c);

    let recent = http_get(metrics_addr, "/debug/queries").expect("GET /debug/queries");
    for id in [&tid, &plain_tid] {
        assert!(
            recent.contains(&format!("\"trace_id\":\"{id}\"")),
            "/debug/queries lacks record for trace id {id}"
        );
    }
    // The slow route must answer with JSON (the tail may be empty at the
    // default threshold — only the shape is asserted).
    let slow = http_get(metrics_addr, "/debug/slow").expect("GET /debug/slow");
    assert!(
        slow.trim().starts_with('[') && slow.trim().ends_with(']'),
        "/debug/slow not a JSON array: {slow}"
    );
    let by_id =
        http_get(metrics_addr, &format!("/debug/trace/{tid}")).expect("GET /debug/trace/<id>");
    assert!(
        by_id.contains(&format!("\"trace_id\":\"{tid}\"")) && by_id.contains("\"trace\""),
        "/debug/trace/{tid} lacks the record or its span tree: {by_id}"
    );
    // One id → one tree on every route: the explain request's id
    // resolves to a record with the text as sent and its span tree.
    let by_id = http_get(metrics_addr, &format!("/debug/trace/{explain_tid}"))
        .expect("GET /debug/trace/<explain id>");
    let rec = gsj_obs::parse_json(&by_id).expect("record JSON");
    assert_eq!(
        rec.get("text").and_then(|t| t.as_str()),
        Some(queries[0].as_str()),
        "explain record lacks the original text: {by_id}"
    );
    assert!(
        by_id.contains("\"trace\"") && by_id.contains("gsql.query"),
        "/debug/trace/{explain_tid} lacks the span tree: {by_id}"
    );
    assert!(
        http_get(metrics_addr, "/debug/trace/ffffffffffffffff").is_err(),
        "unknown trace id must 404"
    );
    println!("server_smoke: wire trace + introspection ok (trace id {tid})");

    // 7. Metrics: must parse as Prometheus text and carry the serving
    //    counters; /healthz must answer.
    let text = http_get(metrics_addr, "/metrics").expect("GET /metrics");
    let snap = parse_prometheus_text(&text).expect("parse prometheus text");
    let requests = snap
        .get("gsj_server_requests_total", &[])
        .expect("gsj_server_requests_total sample");
    assert!(
        requests >= (8 * queries.len()) as f64,
        "requests={requests}"
    );
    let shed = snap
        .get("gsj_server_admission_shed_total", &[])
        .expect("shed sample");
    assert!(shed >= 1.0, "shed={shed}");
    let p99 = snap
        .get("gsj_server_query_latency_p99", &[])
        .expect("latency p99 gauge");
    assert!(p99 > 0.0, "p99={p99}");
    assert_eq!(
        http_get(metrics_addr, "/healthz").expect("GET /healthz"),
        "ok\n"
    );
    assert!(http_get(metrics_addr, "/nope").is_err(), "404 must error");
    println!(
        "server_smoke: metrics scrape ok ({} samples)",
        snap.samples.len()
    );

    // 8. Graceful shutdown: acknowledge, drain, exit 0.
    let mut c = Client::connect(serve_addr).expect("connect for shutdown");
    c.shutdown_server().expect("SHUTDOWN");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match guard.0.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "gsj-serve exited with {status}");
                break;
            }
            None if Instant::now() > deadline => panic!("gsj-serve did not exit within 30s"),
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    println!("server_smoke: graceful shutdown ok");
    println!("server_smoke: PASS");
}
