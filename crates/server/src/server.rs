//! The session-pool TCP server: admission control, per-request
//! governance, disconnect cancellation, graceful shutdown.
//!
//! # Architecture (DESIGN.md §14)
//!
//! ```text
//!              accept thread                 session workers
//!   TcpListener ──────────────▶ bounded queue ──────────────▶ handle_conn
//!   (nonblocking poll,          (cap = queue)   recv() loop    per-request:
//!    shed when queue full)                                     governor
//!                                                                  │ slot
//!                                                              watcher (one
//!                                                              per worker)
//! ```
//!
//! One **accept thread** polls a nonblocking listener; each accepted
//! connection is pushed onto a bounded queue with `try_send`. A full
//! queue means the server is saturated: the connection is *shed* — it
//! receives a single `ResourceExhausted` error frame and is closed —
//! rather than queued into unbounded memory.
//!
//! N **session workers** pull connections off the queue. A connection is
//! a session: a loop of length-prefixed request frames, each handled
//! under its own [`QueryGovernor`] built from the request's
//! `deadline-ms` / `row-budget` / `mem-budget` headers. Each worker owns
//! one watcher thread, started with it: while a query runs, the watcher
//! `peek`s the connection and raises the governor's cancel flag if the
//! client disconnects, so abandoned queries stop consuming CPU at the
//! next operator boundary. No thread is started per connection or query.
//!
//! Failure containment: every request is executed under
//! `catch_unwind`, and the fault sites `server.session` /
//! `server.accept` (class `Critical`) let the chaos suite inject
//! errors and panics at both boundaries — a fault in one session must
//! surface as an error frame on that connection only, never kill a
//! worker or the listener.
//!
//! Graceful shutdown: raising the shutdown flag (via
//! [`ServerHandle::begin_shutdown`] or a `SHUTDOWN` request) stops the
//! accept thread, which drops the queue's sender; workers drain what was
//! already admitted, finish in-flight requests, notice the flag on their
//! next idle poll, and exit. New connections arriving during shutdown
//! are refused with `ResourceExhausted`.

use crate::protocol::{
    read_frame_with, write_frame, FrameRead, Request, Response, Verb, DEFAULT_MAX_FRAME,
};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use gsj_common::{GsjError, QueryGovernor, Result};
use gsj_core::gsql::exec::{GsqlEngine, Strategy, TraceOpt};
use gsj_faults::{fault_point, FaultClass};
use gsj_obs::{LazyCounter, LazyGauge, LazyHistogram};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Sessions currently being handled by workers (admitted, not queued).
static INFLIGHT: LazyGauge = LazyGauge::new("gsj_server_inflight_sessions");
/// Connections refused because the accept queue was full.
static SHED: LazyCounter = LazyCounter::new("gsj_server_admission_shed_total");
/// Request frames received (any verb, before parsing).
static REQUESTS: LazyCounter = LazyCounter::new("gsj_server_requests_total");
/// Requests answered with an error frame.
static ERRORS: LazyCounter = LazyCounter::new("gsj_server_errors_total");
/// Queries cancelled because the watcher saw the client disconnect.
static DISCONNECT_CANCEL: LazyCounter = LazyCounter::new("gsj_server_disconnect_cancel_total");
/// Wall time per `QUERY` request (execution only, not framing).
static LATENCY: LazyHistogram = LazyHistogram::new("gsj_server_query_latency_ns");
/// Derived latency percentiles (nanoseconds), estimated from the
/// histogram's cumulative bucket counts. Refreshed after every query
/// and on each `/metrics` scrape, so scrapers see current values even
/// between queries.
static LATENCY_P50: LazyGauge = LazyGauge::new("gsj_server_query_latency_p50");
static LATENCY_P90: LazyGauge = LazyGauge::new("gsj_server_query_latency_p90");
static LATENCY_P99: LazyGauge = LazyGauge::new("gsj_server_query_latency_p99");

/// Recompute the `gsj_server_query_latency_p50/p90/p99` gauges from the
/// latency histogram. Cheap (a bucket scan), idempotent, callable from
/// any thread.
pub fn update_latency_gauges() {
    if LATENCY.count() == 0 {
        return;
    }
    LATENCY_P50.set(LATENCY.quantile(0.50) as i64);
    LATENCY_P90.set(LATENCY.quantile(0.90) as i64);
    LATENCY_P99.set(LATENCY.quantile(0.99) as i64);
}

/// Accept-loop poll interval while no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(2);
/// A connection's read timeout (`SO_RCVTIMEO`). The socket has one, shared
/// by the session's reads and its watcher's `peek`s on the cloned stream,
/// so the session sets it once, when it takes the connection, and nobody
/// changes it after. It bounds how long an idle session takes to notice
/// shutdown, and how long a watcher's `peek` outlives its query.
const WATCH_POLL: Duration = Duration::from_millis(25);
/// How long admission retries a full queue before shedding. A connection
/// burst can fill the queue in the microseconds before idle workers wake
/// and pull; only sustained fullness — every session busy for this long —
/// is real overload.
const ADMIT_GRACE: Duration = Duration::from_millis(25);

/// Server tunables. `Default` binds an ephemeral localhost port with a
/// worker per “a few cores” and a small admission queue.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Session worker threads == max concurrently-served connections.
    pub sessions: usize,
    /// Accepted-but-unclaimed connection queue; beyond this, shed.
    pub queue: usize,
    /// Per-frame payload cap in bytes.
    pub max_frame: usize,
    /// Strategy used when a request has no `strategy` header.
    pub default_strategy: Strategy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            sessions: 4,
            queue: 8,
            max_frame: DEFAULT_MAX_FRAME,
            default_strategy: Strategy::Optimized,
        }
    }
}

/// Handle to a running server. Dropping it shuts the server down and
/// joins every thread; [`ServerHandle::shutdown`] does so explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raise the shutdown flag without blocking: stop accepting, let
    /// in-flight work drain. Idempotent.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Whether shutdown has been initiated (locally or via a `SHUTDOWN`
    /// request).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Graceful shutdown: raise the flag, then join the accept thread
    /// and every session worker (i.e. wait for in-flight requests).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Block until the server shuts down on its own — i.e. until a
    /// client sends `SHUTDOWN` (or another thread calls
    /// [`begin_shutdown`](Self::begin_shutdown)). Used by `gsj-serve`
    /// to park its main thread.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.begin_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The gSQL server. Stateless itself — [`Server::start`] wires the
/// shared engine into the thread structure and returns the handle.
pub struct Server;

impl Server {
    /// Bind, spawn the accept thread and `cfg.sessions` workers, each with
    /// its watcher thread, and return immediately. These are all the
    /// threads the server starts. The engine is shared immutably: the catalog,
    /// profile and `g_L` link cache are loaded once and served from
    /// behind the `Arc` (interior caches use their own locks).
    pub fn start(engine: Arc<GsqlEngine>, cfg: ServerConfig) -> Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| GsjError::Config(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| GsjError::Internal(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| GsjError::Internal(format!("set_nonblocking: {e}")))?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = bounded::<TcpStream>(cfg.queue.max(1));

        let mut workers = Vec::with_capacity(cfg.sessions.max(1));
        for i in 0..cfg.sessions.max(1) {
            let watch = Arc::new(Watch::default());
            let watcher = {
                let watch = watch.clone();
                thread::Builder::new()
                    .name(format!("gsj-watch-{i}"))
                    .spawn(move || watch_loop(&watch))
                    .map_err(|e| GsjError::Internal(format!("spawn watcher: {e}")))?
            };
            // Stops and joins the watcher when the worker ends — or here,
            // should the worker fail to spawn.
            let watcher = Watcher {
                watch,
                thread: Some(watcher),
            };
            let rx = rx.clone();
            let engine = engine.clone();
            let cfg = cfg.clone();
            let shutdown = shutdown.clone();
            let h = thread::Builder::new()
                .name(format!("gsj-session-{i}"))
                .spawn(move || session_worker(&rx, &engine, &cfg, &shutdown, &watcher.watch))
                .map_err(|e| GsjError::Internal(format!("spawn worker: {e}")))?;
            workers.push(h);
        }
        drop(rx);

        let accept = {
            let shutdown = shutdown.clone();
            thread::Builder::new()
                .name("gsj-accept".into())
                .spawn(move || accept_loop(&listener, tx, &shutdown))
                .map_err(|e| GsjError::Internal(format!("spawn accept: {e}")))?
        };

        Ok(ServerHandle {
            addr,
            shutdown,
            accept: Some(accept),
            workers,
        })
    }
}

/// Poll the listener until shutdown; admit or shed each connection.
/// Exiting drops `tx`, which is what releases workers blocked in
/// `recv()` once the queue drains.
fn accept_loop(listener: &TcpListener, tx: Sender<TcpStream>, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => admit(stream, &tx),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Admission control for one fresh connection. Wrapped in
/// `catch_unwind` so an injected panic at `server.accept` downs this
/// one connection, never the accept loop.
fn admit(stream: TcpStream, tx: &Sender<TcpStream>) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        fault_point("server.accept", FaultClass::Critical)
    }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            refuse(stream, &e);
            return;
        }
        Err(_) => {
            refuse(
                stream,
                &GsjError::Internal("panic in server.accept (contained)".into()),
            );
            return;
        }
    }
    let mut pending = stream;
    let deadline = Instant::now() + ADMIT_GRACE;
    loop {
        match tx.try_send(pending) {
            Ok(()) => return,
            Err(TrySendError::Full(back)) => {
                if Instant::now() >= deadline {
                    SHED.inc();
                    refuse(
                        back,
                        &GsjError::ResourceExhausted(
                            "server at capacity: all sessions busy and accept queue full".into(),
                        ),
                    );
                    return;
                }
                pending = back;
                thread::sleep(Duration::from_millis(1));
            }
            Err(TrySendError::Disconnected(back)) => {
                refuse(
                    back,
                    &GsjError::ResourceExhausted("server is shutting down".into()),
                );
                return;
            }
        }
    }
}

/// Best-effort single error frame + close, for connections that never
/// reach a session worker.
fn refuse(mut stream: TcpStream, e: &GsjError) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = write_frame(&mut stream, &Response::failure(e).encode());
}

/// One worker: pull admitted connections until the queue closes *and*
/// drains, handling each to completion.
fn session_worker(
    rx: &Receiver<TcpStream>,
    engine: &Arc<GsqlEngine>,
    cfg: &ServerConfig,
    shutdown: &AtomicBool,
    watch: &Watch,
) {
    while let Ok(stream) = rx.recv() {
        INFLIGHT.add(1);
        // A panic escaping the per-request guard (e.g. in framing code)
        // must not take the worker down with it.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            handle_conn(stream, engine, cfg, shutdown, watch);
        }));
        INFLIGHT.add(-1);
    }
}

/// What to do with the connection after a request.
enum After {
    Continue,
    Close,
}

/// Serve one connection: a loop of frames, each answered in order.
fn handle_conn(
    mut stream: TcpStream,
    engine: &Arc<GsqlEngine>,
    cfg: &ServerConfig,
    shutdown: &AtomicBool,
    watch: &Watch,
) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    // Before the clone: it shares the socket, and with it this timeout.
    let _ = stream.set_read_timeout(Some(WATCH_POLL));
    let _attached = watch.attach(stream.try_clone().ok());
    loop {
        let frame = read_frame_with(&mut stream, cfg.max_frame, || {
            shutdown.load(Ordering::Acquire)
        });
        let payload = match frame {
            Ok(FrameRead::Payload(p)) => p,
            Ok(FrameRead::Idle) => {
                if shutdown.load(Ordering::Acquire) {
                    return; // drain complete: close the idle session
                }
                continue;
            }
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Oversized(n)) => {
                // The payload was never read, so the stream cannot be
                // re-synchronized: report and close.
                ERRORS.inc();
                let e = GsjError::ResourceExhausted(format!(
                    "frame of {n} B exceeds the {} B limit",
                    cfg.max_frame
                ));
                let _ = write_frame(&mut stream, &Response::failure(&e).encode());
                return;
            }
            Err(e) => {
                // Truncated / corrupt / transport failure: tell the peer
                // if the pipe still works, then close.
                ERRORS.inc();
                let _ = write_frame(&mut stream, &Response::failure(&e).encode());
                return;
            }
        };

        REQUESTS.inc();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_request(&payload, watch, engine, cfg, shutdown)
        }));
        let (resp, after) = outcome.unwrap_or_else(|_| {
            (
                Response::failure(&GsjError::Internal(
                    "panic in server.session (contained)".into(),
                )),
                After::Continue,
            )
        });
        if !resp.ok {
            ERRORS.inc();
        }
        if write_frame(&mut stream, &resp.encode()).is_err() {
            return; // peer gone mid-response
        }
        if matches!(after, After::Close) {
            return;
        }
    }
}

/// Parse and execute one request frame. Never panics out (the caller
/// holds the `catch_unwind`); every failure becomes an error frame.
fn handle_request(
    payload: &str,
    watch: &Watch,
    engine: &Arc<GsqlEngine>,
    cfg: &ServerConfig,
    shutdown: &AtomicBool,
) -> (Response, After) {
    if let Err(e) = fault_point("server.session", FaultClass::Critical) {
        return (Response::failure(&e), After::Continue);
    }
    let req = match Request::parse(payload) {
        Ok(r) => r,
        Err(e) => return (Response::failure(&e), After::Continue),
    };
    match req.verb {
        Verb::Ping => (Response::success(req.body.clone()), After::Continue),
        Verb::Shutdown => {
            shutdown.store(true, Ordering::Release);
            (Response::success("shutting down"), After::Close)
        }
        Verb::Query => match run_query(&req, watch, engine, cfg) {
            Ok(resp) => (resp, After::Continue),
            Err(e) => (Response::failure(&e), After::Continue),
        },
    }
}

fn parse_u64_header(req: &Request, name: &str) -> Result<Option<u64>> {
    match req.header(name) {
        None => Ok(None),
        Some(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| GsjError::Config(format!("header {name}: `{v}` is not a u64"))),
    }
}

/// Execute a `QUERY` request under a per-request governor, published to
/// the session's watcher while it runs so that a client disconnect
/// cancels it.
///
/// Every served query runs through [`GsqlEngine::run_recorded`], so it
/// leaves a flight-recorder record and gets a trace id, echoed in the
/// `trace-id` response header (on error frames too, a body that does
/// not parse included). A `trace: 1` request header forces span capture
/// and swaps the CSV body for the JSON span-tree document; `explain:
/// analyze` forces it too and swaps the body for the EXPLAIN ANALYZE
/// text; without either, `GSJ_TRACE=sample:p` sampling applies.
fn run_query(
    req: &Request,
    watch: &Watch,
    engine: &Arc<GsqlEngine>,
    cfg: &ServerConfig,
) -> Result<Response> {
    let mut builder = QueryGovernor::builder();
    if let Some(ms) = parse_u64_header(req, "deadline-ms")? {
        builder = builder.deadline(Duration::from_millis(ms));
    }
    if let Some(rows) = parse_u64_header(req, "row-budget")? {
        builder = builder.row_budget(rows);
    }
    if let Some(bytes) = parse_u64_header(req, "mem-budget")? {
        builder = builder.mem_budget(bytes);
    }
    let gov = builder.build();
    let strategy = match req.header("strategy") {
        Some(s) => s.parse::<Strategy>()?,
        None => cfg.default_strategy,
    };
    let explain = req
        .header("explain")
        .is_some_and(|v| v.eq_ignore_ascii_case("analyze"));
    let wire_trace = req
        .header("trace")
        .is_some_and(|v| matches!(v.trim(), "1" | "true" | "on"));

    let in_flight = watch.publish(&gov);

    // One call whatever the body: CSV, the span-tree document (`trace:
    // 1`) or the EXPLAIN ANALYZE text are three renderings of one run.
    let start = Instant::now();
    let trace = if explain || wire_trace {
        TraceOpt::Force
    } else {
        TraceOpt::Auto
    };
    let run = engine.run_recorded(&req.body, strategy, &gov, trace);
    // `(body, rows)` on success; the trace id is attached either way.
    let outcome: Result<(String, Option<u64>)> = if explain {
        run.explain_analyze().map(|text| (text, None))
    } else {
        let doc = wire_trace.then(|| run.spans_json()).flatten();
        run.result
            .map(|(rel, _ctx)| (doc.unwrap_or_else(|| rel.to_csv()), Some(rel.len() as u64)))
    };
    let elapsed = start.elapsed();
    drop(in_flight);
    LATENCY.observe_ns(elapsed.as_nanos() as u64);
    update_latency_gauges();

    let resp = match outcome {
        Ok((body, rows)) => {
            let mut r = Response::success(body).with_header("elapsed-us", elapsed.as_micros());
            if let Some(n) = rows {
                r = r.with_header("rows", n);
            }
            r
        }
        Err(e) => Response::failure(&e),
    };
    Ok(resp.with_header("trace-id", run.trace_id))
}

/// What a session worker shares with its watcher thread: the slot, and
/// the condition variable that wakes the watcher early when it must exit.
#[derive(Default)]
struct Watch {
    slot: Mutex<WatchSlot>,
    exited: Condvar,
}

#[derive(Default)]
struct WatchSlot {
    /// The session's connection, cloned once when the session takes it;
    /// `None` between connections, or when the fd could not be cloned
    /// (the connection's queries then run without disconnect detection).
    peer: Option<Arc<TcpStream>>,
    /// The query in flight on it: a per-session sequence number and the
    /// governor to cancel.
    query: Option<(u64, QueryGovernor)>,
    /// The last sequence number handed out.
    seq: u64,
    /// Raised when the worker ends: the watcher returns.
    exit: bool,
}

impl Watch {
    /// The slot. Every update is a plain assignment, so a panic elsewhere
    /// while it was held cannot have left it half-written.
    fn lock(&self) -> MutexGuard<'_, WatchSlot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hand the watcher a new connection's cloned stream, until the
    /// returned guard drops.
    fn attach(&self, peer: Option<TcpStream>) -> Release<'_> {
        self.lock().peer = peer.map(Arc::new);
        Release(self, |s| s.peer = None)
    }

    /// Publish a query's governor, until the returned guard drops.
    fn publish(&self, gov: &QueryGovernor) -> Release<'_> {
        let mut slot = self.lock();
        slot.seq += 1;
        slot.query = Some((slot.seq, gov.clone()));
        Release(self, |s| s.query = None)
    }
}

/// Undoes a [`Watch`] hand-over when dropped, on every path out of the
/// scope that made it, an unwinding one included.
struct Release<'a>(&'a Watch, fn(&mut WatchSlot));

impl Drop for Release<'_> {
    fn drop(&mut self) {
        (self.1)(&mut self.0.lock());
    }
}

/// A session worker's watcher thread; dropping it stops and joins it.
struct Watcher {
    watch: Arc<Watch>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for Watcher {
    fn drop(&mut self) {
        self.watch.lock().exit = true;
        self.watch.exited.notify_one();
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

/// The watcher thread. Every `WATCH_POLL` it looks at the slot; a query
/// in flight on an attached connection is `peek`ed until it is settled.
/// The client is expected to be silent until the response arrives, so:
///
/// * `peek() == 0` (EOF) or an error — the client hung up: cancel the
///   governor so the query stops at its next check, and count it;
/// * `peek() > 0` — the client pipelined another frame; it is alive, so
///   stop watching this query (the bytes stay queued for the session);
/// * timeout (`WATCH_POLL`) — look at the slot again at once.
///
/// The cancel happens under the slot's lock and only if the peeked query
/// is still the one in flight, so a hang-up after the query finished is
/// never miscounted. The session never waits for the watcher, and
/// publishing a query wakes nobody. The price is detection time: the
/// watcher may be waiting out one `WATCH_POLL`, or one `peek` of an
/// earlier query, when a query starts, so a hang-up is seen within
/// 2 × `WATCH_POLL` of the query starting or of the hang-up, whichever
/// is later.
fn watch_loop(watch: &Watch) {
    let mut buf = [0u8; 1];
    // The last query watched to an outcome; it is not peeked again.
    let mut settled = 0u64;
    let mut slot = watch.lock();
    while !slot.exit {
        let target = match (&slot.peer, &slot.query) {
            (Some(peer), Some((seq, gov))) if *seq != settled => {
                Some((peer.clone(), *seq, gov.clone()))
            }
            _ => None,
        };
        if let Some((peer, seq, gov)) = target {
            drop(slot);
            let peeked = peer.peek(&mut buf);
            slot = watch.lock();
            let hung_up = match peeked {
                Ok(n) => n == 0,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue;
                }
                Err(_) => true,
            };
            settled = seq;
            if hung_up && slot.query.as_ref().is_some_and(|(s, _)| *s == seq) {
                gov.cancel();
                DISCONNECT_CANCEL.inc();
            }
        }
        slot = match watch.exited.wait_timeout(slot, WATCH_POLL) {
            Ok((slot, _)) => slot,
            Err(poisoned) => poisoned.into_inner().0,
        };
    }
}

/// Snapshot of the server-side counters, for tests and the load bench.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    pub requests: u64,
    pub errors: u64,
    pub shed: u64,
    pub disconnect_cancels: u64,
    pub inflight: i64,
}

/// Read the process-global server counters. Cumulative across all
/// servers in the process (they share the metrics registry).
pub fn server_stats() -> ServerStats {
    ServerStats {
        requests: REQUESTS.value(),
        errors: ERRORS.value(),
        shed: SHED.value(),
        disconnect_cancels: DISCONNECT_CANCEL.value(),
        inflight: INFLIGHT.value(),
    }
}
