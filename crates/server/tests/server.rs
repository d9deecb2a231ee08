//! End-to-end serving tests: a real server on an ephemeral loopback
//! port, real sockets, the blocking client. The engine fixture is built
//! once and shared — every server started here serves the same
//! `Arc<GsqlEngine>`, which is exactly the production sharing model.

use gsj_common::GsjError;
use gsj_core::gsql::exec::{GsqlEngine, Strategy};
use gsj_datagen::queries::workload;
use gsj_datagen::{Collection, Scale};
use gsj_server::{
    engine_for_collection, http_get, read_frame, write_frame, Client, FrameRead, MetricsServer,
    QueryOpts, Request, Response, Server, ServerConfig, ServerHandle,
};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn fixture() -> &'static (Collection, Arc<GsqlEngine>) {
    static F: OnceLock<(Collection, Arc<GsqlEngine>)> = OnceLock::new();
    F.get_or_init(|| {
        let col = gsj_datagen::collections::build("Celebrity", Scale::tiny(), 42)
            .expect("known collection");
        let engine = Arc::new(engine_for_collection(&col).expect("fixture engine"));
        (col, engine)
    })
}

fn start(sessions: usize, queue: usize) -> ServerHandle {
    let (_, engine) = fixture();
    Server::start(
        engine.clone(),
        ServerConfig {
            sessions,
            queue,
            ..ServerConfig::default()
        },
    )
    .expect("server starts")
}

/// Sorted CSV lines — row order is an implementation detail of the
/// operator pipeline, cell content is the contract.
fn canon(csv: &str) -> Vec<String> {
    let mut lines: Vec<String> = csv.lines().map(str::to_string).collect();
    lines.sort();
    lines
}

#[test]
fn ping_round_trips() {
    let handle = start(1, 2);
    let mut c = Client::connect(handle.addr()).unwrap();
    c.ping().unwrap();
    handle.shutdown();
}

/// The acceptance bar: eight concurrent clients, every reply identical
/// to what a single-threaded `GsqlEngine::run` produces for the same
/// query. The workload runs through semantic joins, the link cache and
/// aggregation, so this exercises the shared state under real
/// contention.
#[test]
fn concurrent_clients_match_single_threaded_results() {
    let (col, engine) = fixture();
    let queries: Vec<String> = workload(col).into_iter().map(|q| q.text).collect();
    let expected: Vec<Vec<String>> = queries
        .iter()
        .map(|q| canon(&engine.run(q, Strategy::Optimized).unwrap().to_csv()))
        .collect();

    let handle = start(4, 8);
    let addr = handle.addr();
    let workers: Vec<_> = (0..8)
        .map(|i| {
            let queries = queries.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                // Stagger starting offsets so different clients hit
                // different queries at the same instant.
                for j in 0..queries.len() {
                    let k = (i + j) % queries.len();
                    let reply = c
                        .query(&queries[k])
                        .unwrap_or_else(|e| panic!("client {i} query {k}: {e}"));
                    assert_eq!(
                        canon(&reply.body),
                        expected[k],
                        "client {i} query {k} diverged from single-threaded result"
                    );
                    assert_eq!(reply.rows, Some(expected[k].len() as u64 - 1));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread panicked");
    }
    handle.shutdown();
}

#[test]
fn zero_deadline_returns_typed_deadline_exceeded() {
    let (col, _) = fixture();
    let handle = start(1, 2);
    let mut c = Client::connect(handle.addr()).unwrap();
    let q = &workload(col)[0].text;
    let opts = QueryOpts {
        deadline: Some(Duration::ZERO),
        ..QueryOpts::default()
    };
    match c.query_with(q, &opts) {
        Err(e @ GsjError::DeadlineExceeded(_)) => assert!(e.is_governance()),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // The session survives a governance rejection: same connection, a
    // query without limits succeeds.
    assert!(c.query(q).is_ok());
    handle.shutdown();
}

#[test]
fn tiny_row_budget_returns_resource_exhausted() {
    let (col, _) = fixture();
    let handle = start(1, 2);
    let mut c = Client::connect(handle.addr()).unwrap();
    let q = &workload(col)[0].text;
    let opts = QueryOpts {
        row_budget: Some(1),
        ..QueryOpts::default()
    };
    match c.query_with(q, &opts) {
        Err(e @ GsjError::ResourceExhausted(_)) => assert!(e.retryable()),
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn bad_header_values_and_strategies_are_config_errors() {
    let handle = start(1, 2);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let req = Request::query("select x from y")
        .with_header("deadline-ms", "soon")
        .encode();
    write_frame(&mut stream, &req).unwrap();
    let resp = read_payload(&mut stream);
    assert!(matches!(
        resp.into_result(),
        Err(GsjError::Config(m)) if m.contains("deadline-ms")
    ));

    let req = Request::query("select x from y")
        .with_header("strategy", "quantum")
        .encode();
    write_frame(&mut stream, &req).unwrap();
    let resp = read_payload(&mut stream);
    assert!(matches!(
        resp.into_result(),
        Err(GsjError::Config(m)) if m.contains("quantum")
    ));
    handle.shutdown();
}

#[test]
fn explicit_strategies_answer_over_the_wire() {
    let (col, _) = fixture();
    let handle = start(2, 2);
    let mut c = Client::connect(handle.addr()).unwrap();
    let q = &workload(col)[0].text;
    for strategy in [Strategy::Baseline, Strategy::Optimized, Strategy::Heuristic] {
        let opts = QueryOpts {
            strategy: Some(strategy),
            ..QueryOpts::default()
        };
        let reply = c.query_with(q, &opts).unwrap_or_else(|e| {
            panic!("{strategy:?}: {e}");
        });
        assert!(reply.rows.is_some(), "{strategy:?}: missing rows header");
    }
    handle.shutdown();
}

#[test]
fn gsql_parse_error_keeps_the_session_alive() {
    let (col, _) = fixture();
    let handle = start(1, 2);
    let mut c = Client::connect(handle.addr()).unwrap();
    match c.query("select ((( nonsense") {
        Err(GsjError::Parse(_)) => {}
        other => panic!("expected Parse error, got {other:?}"),
    }
    // Same connection still serves.
    assert!(c.query(&workload(col)[0].text).is_ok());
    handle.shutdown();
}

fn read_payload(stream: &mut TcpStream) -> Response {
    match read_frame(stream, gsj_server::DEFAULT_MAX_FRAME).unwrap() {
        FrameRead::Payload(p) => Response::parse(&p).unwrap(),
        other => panic!("expected a payload frame, got {other:?}"),
    }
}

#[test]
fn malformed_payload_gets_error_frame_and_session_continues() {
    let handle = start(1, 2);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // A well-framed payload that is not GSJ/1 at all.
    write_frame(&mut stream, "GET /metrics HTTP/1.1\r\n\r\n").unwrap();
    let resp = read_payload(&mut stream);
    assert!(!resp.ok);
    assert!(matches!(resp.into_result(), Err(GsjError::Parse(_))));
    // The connection was not dropped: a valid PING on the same socket.
    write_frame(
        &mut stream,
        &Request::new(gsj_server::Verb::Ping, "hi").encode(),
    )
    .unwrap();
    let resp = read_payload(&mut stream);
    assert!(resp.ok);
    assert_eq!(resp.body, "hi");
    handle.shutdown();
}

#[test]
fn oversized_frame_is_refused_and_connection_closed() {
    let handle = start(1, 2);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // Announce a payload far over the cap; send nothing further.
    let len = (gsj_server::DEFAULT_MAX_FRAME as u32) + 1;
    stream.write_all(&len.to_be_bytes()).unwrap();
    stream.flush().unwrap();
    let resp = read_payload(&mut stream);
    assert!(matches!(
        resp.into_result(),
        Err(GsjError::ResourceExhausted(m)) if m.contains("exceeds")
    ));
    // The server closed the unsyncable connection.
    assert!(matches!(
        read_frame(&mut stream, gsj_server::DEFAULT_MAX_FRAME).unwrap(),
        FrameRead::Eof
    ));
    handle.shutdown();
}

#[test]
fn truncated_frame_then_disconnect_does_not_wedge_the_server() {
    let handle = start(1, 2);
    {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Promise 100 bytes, deliver 10, hang up.
        stream.write_all(&100u32.to_be_bytes()).unwrap();
        stream.write_all(b"0123456789").unwrap();
        stream.flush().unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        // The server reports the truncation before closing (best-effort;
        // the read side of our socket is still open).
        let resp = read_payload(&mut stream);
        assert!(matches!(
            resp.into_result(),
            Err(GsjError::Parse(m)) if m.contains("truncated")
        ));
    }
    // The worker is free again: a fresh client gets served.
    let mut c = Client::connect(handle.addr()).unwrap();
    c.ping().unwrap();
    handle.shutdown();
}

/// Disconnecting mid-query must cancel the governor: the watcher sees
/// the EOF, raises the cancel flag, and the engine stops at its next
/// check instead of running the query to completion for nobody.
#[test]
fn client_disconnect_mid_query_cancels_the_governor() {
    let _guard = gsj_faults::exclusive();
    let (col, _) = fixture();
    let handle = start(1, 2);
    let before = gsj_server::server_stats().disconnect_cancels;
    // Slow the query down inside the relational pipeline so the
    // disconnect lands while it is executing.
    gsj_faults::set_spec(Some("relational.filter:delay=400ms")).unwrap();
    {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let q = workload(col)
            .iter()
            .find(|q| q.text.contains("where"))
            .expect("a filtered query")
            .text
            .clone();
        write_frame(&mut stream, &Request::query(q).encode()).unwrap();
        std::thread::sleep(Duration::from_millis(100)); // let execution start
    } // drop: close the socket mid-query
      // The watcher polls every 25ms; the delayed operator re-checks the
      // governor afterwards. Give the chain a moment.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if gsj_server::server_stats().disconnect_cancels > before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect was never observed as a cancellation"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    gsj_faults::set_spec(None).unwrap();
    // The session worker survived the abandoned query.
    let mut c = Client::connect(handle.addr()).unwrap();
    c.ping().unwrap();
    handle.shutdown();
}

/// A client that sends its next frame while a query runs is alive: the
/// watcher stops watching that query without cancelling it, and both
/// frames are answered, in order.
#[test]
fn pipelined_frame_mid_query_is_not_a_disconnect() {
    let _guard = gsj_faults::exclusive();
    let (col, _) = fixture();
    let handle = start(1, 2);
    let before = gsj_server::server_stats().disconnect_cancels;
    gsj_faults::set_spec(Some("relational.filter:delay=400ms")).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let q = workload(col)
        .iter()
        .find(|q| q.text.contains("where"))
        .expect("a filtered query")
        .text
        .clone();
    write_frame(&mut stream, &Request::query(q).encode()).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // let execution start
    write_frame(
        &mut stream,
        &Request::new(gsj_server::Verb::Ping, "next").encode(),
    )
    .unwrap();
    let first = read_payload(&mut stream);
    gsj_faults::set_spec(None).unwrap();
    assert!(first.ok, "the query was cancelled: {:?}", first.body);
    let second = read_payload(&mut stream);
    assert!(second.ok);
    assert_eq!(second.body, "next");
    assert_eq!(gsj_server::server_stats().disconnect_cancels, before);
    handle.shutdown();
}

#[test]
fn saturated_server_sheds_with_resource_exhausted() {
    let handle = start(1, 1);
    let before = gsj_server::server_stats().shed;
    // One idle connection occupies the only session; one more fills the
    // queue; the third must be shed.
    let _hold_worker = Client::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let _hold_queue = Client::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let mut extra = Client::connect(handle.addr()).unwrap();
    match extra.query("select 1") {
        Err(e @ GsjError::ResourceExhausted(_)) => assert!(e.retryable()),
        other => panic!("expected shed, got {other:?}"),
    }
    assert!(gsj_server::server_stats().shed > before);
    handle.shutdown();
}

#[test]
fn explain_analyze_returns_the_unified_trace() {
    let (col, _) = fixture();
    let handle = start(1, 2);
    let mut c = Client::connect(handle.addr()).unwrap();
    let opts = QueryOpts {
        explain_analyze: true,
        ..QueryOpts::default()
    };
    let reply = c.query_with(&workload(col)[0].text, &opts).unwrap();
    assert!(reply.rows.is_none(), "a plan has no rows header");
    assert!(
        reply.body.contains("gsql.query"),
        "trace tree missing from analyze body:\n{}",
        reply.body
    );
    handle.shutdown();
}

/// An `explain: analyze` request whose body does not parse is a query
/// like any other: it gets a trace id of its own — not the id of
/// whatever the session served last — and leaves a `Parse` record that
/// carries the text as sent.
#[test]
fn unparsable_explain_gets_its_own_trace_id_and_record() {
    let (col, _) = fixture();
    let handle = start(1, 2);
    let metrics = MetricsServer::start("127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut ask = |req: Request| {
        write_frame(&mut stream, &req.encode()).unwrap();
        read_payload(&mut stream)
    };
    let good = ask(Request::query(workload(col)[0].text.as_str()));
    assert!(good.ok);
    let bad_text = "select ((( nonsense";
    let bad = ask(Request::query(bad_text).with_header("explain", "analyze"));
    assert!(!bad.ok);
    let (first, second) = (
        good.header("trace-id").expect("trace-id on success"),
        bad.header("trace-id").expect("trace-id on the error frame"),
    );
    assert_ne!(first, second, "the error frame reused the last query's id");
    assert!(matches!(bad.clone().into_result(), Err(GsjError::Parse(_))));

    let rec = http_get(metrics.addr(), &format!("/debug/trace/{second}")).unwrap();
    let rec = gsj_obs::parse_json(&rec).unwrap();
    assert_eq!(rec.get("verdict").unwrap().as_str(), Some("Parse"));
    assert_eq!(rec.get("text").unwrap().as_str(), Some(bad_text));
    metrics.shutdown();
    handle.shutdown();
}

#[test]
fn metrics_endpoint_serves_parseable_prometheus_text() {
    let (col, _) = fixture();
    let handle = start(1, 2);
    let metrics = MetricsServer::start("127.0.0.1:0").unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.query(&workload(col)[0].text).unwrap();

    let text = http_get(metrics.addr(), "/metrics").unwrap();
    let snap = gsj_obs::parse_prometheus_text(&text)
        .unwrap_or_else(|e| panic!("metrics must parse: {e}\n{text}"));
    assert!(
        snap.get("gsj_server_requests_total", &[])
            .is_some_and(|v| v >= 1.0),
        "serving counters missing from /metrics"
    );
    assert!(
        snap.samples
            .iter()
            .any(|s| s.name.starts_with("gsj_server_query_latency_ns")),
        "latency histogram missing from /metrics"
    );
    assert_eq!(http_get(metrics.addr(), "/healthz").unwrap(), "ok\n");
    assert!(http_get(metrics.addr(), "/unknown").is_err());
    metrics.shutdown();
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_joins() {
    let (col, _) = fixture();
    let handle = start(2, 2);
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();
    c.query(&workload(col)[0].text).unwrap();

    handle.begin_shutdown();
    assert!(handle.is_shutting_down());
    // In-flight sessions drain, threads join. This returning at all is
    // the assertion — a stuck worker would hang the test.
    handle.shutdown();

    // The listener is gone: new clients cannot be served.
    let refused = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.ping().is_err(),
    };
    assert!(refused, "a shut-down server must not serve new clients");
}

#[test]
fn shutdown_verb_stops_the_server() {
    let handle = start(2, 2);
    let mut c = Client::connect(handle.addr()).unwrap();
    c.shutdown_server().unwrap();
    // The flag is observable server-side; joining completes.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !handle.is_shutting_down() {
        assert!(Instant::now() < deadline, "SHUTDOWN verb never took effect");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();
}
