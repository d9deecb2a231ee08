//! A blocking GSJ/1 client: one TCP connection, synchronous
//! request/response. The test suite, the smoke binary and the load
//! bench all speak to the server through this.

use crate::protocol::{read_frame, FrameRead, Request, Response, Verb, DEFAULT_MAX_FRAME};
use gsj_common::{GsjError, Result};
use gsj_core::gsql::exec::Strategy;
use std::io::ErrorKind;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Per-query options, mapped onto request headers. `Default` sends a
/// bare query: no limits, the server's default strategy, results (not
/// a plan).
#[derive(Debug, Clone, Default)]
pub struct QueryOpts {
    /// Server-side deadline (`deadline-ms` header).
    pub deadline: Option<Duration>,
    /// Row-production budget (`row-budget` header).
    pub row_budget: Option<u64>,
    /// Estimated-memory budget in bytes (`mem-budget` header).
    pub mem_budget: Option<u64>,
    /// Execution strategy (`strategy` header).
    pub strategy: Option<Strategy>,
    /// Ask for the `EXPLAIN ANALYZE` trace instead of result rows.
    pub explain_analyze: bool,
    /// Force span capture for this query (`trace: 1` header). The reply
    /// body becomes a JSON span-tree document instead of CSV rows.
    pub trace: bool,
}

/// A successful query reply.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// Result cardinality (absent for `EXPLAIN ANALYZE` replies).
    pub rows: Option<u64>,
    /// Server-side execution time in microseconds.
    pub elapsed_us: u64,
    /// Flight-recorder trace id minted for this query (`trace-id`
    /// header), usable against the server's `/debug/trace/<id>` route.
    pub trace_id: Option<String>,
    /// CSV result rows, the analyze trace, or the span-tree JSON when
    /// [`QueryOpts::trace`] was set.
    pub body: String,
}

/// One blocking connection to a gSJ server.
pub struct Client {
    stream: TcpStream,
}

fn io_err(what: &str, e: std::io::Error) -> GsjError {
    GsjError::Internal(format!("{what}: {e}"))
}

impl Client {
    /// Connect. `addr` is anything `ToSocketAddrs` accepts
    /// (e.g. `"127.0.0.1:7878"` or a `SocketAddr`).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream })
    }

    /// One request → one response, or a typed error reconstructed from
    /// the server's error frame.
    fn round_trip(&mut self, req: &Request) -> Result<Response> {
        if let Err(e) = req.write_to(&mut self.stream) {
            // A server that refuses the connection writes its `ERROR`
            // frame and closes without reading; a request sent into that
            // close fails half-way, with the refusal already waiting in
            // our receive buffer. That frame is the answer — the I/O
            // error is only how we found out.
            if matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset) {
                if let Ok(FrameRead::Payload(p)) = read_frame(&mut self.stream, DEFAULT_MAX_FRAME) {
                    return Response::parse(&p)?.into_result();
                }
            }
            return Err(io_err("send", e));
        }
        match read_frame(&mut self.stream, DEFAULT_MAX_FRAME)? {
            FrameRead::Payload(p) => Response::parse(&p)?.into_result(),
            FrameRead::Eof => Err(GsjError::Internal(
                "server closed the connection before responding".into(),
            )),
            FrameRead::Oversized(n) => Err(GsjError::ResourceExhausted(format!(
                "response frame of {n} B exceeds the client's {DEFAULT_MAX_FRAME} B limit"
            ))),
            FrameRead::Idle => unreachable!("blocking socket cannot be idle"),
        }
    }

    /// Execute gSQL with default options.
    pub fn query(&mut self, text: &str) -> Result<QueryReply> {
        self.query_with(text, &QueryOpts::default())
    }

    /// Execute gSQL with explicit limits / strategy / explain flag.
    pub fn query_with(&mut self, text: &str, opts: &QueryOpts) -> Result<QueryReply> {
        let mut req = Request::query(text);
        if let Some(d) = opts.deadline {
            req = req.with_header("deadline-ms", d.as_millis());
        }
        if let Some(r) = opts.row_budget {
            req = req.with_header("row-budget", r);
        }
        if let Some(m) = opts.mem_budget {
            req = req.with_header("mem-budget", m);
        }
        if let Some(s) = opts.strategy {
            let name = match s {
                Strategy::Baseline => "baseline",
                Strategy::Optimized => "optimized",
                Strategy::Heuristic => "heuristic",
            };
            req = req.with_header("strategy", name);
        }
        if opts.explain_analyze {
            req = req.with_header("explain", "analyze");
        }
        if opts.trace {
            req = req.with_header("trace", "1");
        }
        let resp = self.round_trip(&req)?;
        let rows = resp.header("rows").and_then(|v| v.parse().ok());
        let elapsed_us = resp
            .header("elapsed-us")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let trace_id = resp.header("trace-id").map(|v| v.to_string());
        Ok(QueryReply {
            rows,
            elapsed_us,
            trace_id,
            body: resp.body,
        })
    }

    /// Liveness probe: the token must echo back.
    pub fn ping(&mut self) -> Result<()> {
        let resp = self.round_trip(&Request::new(Verb::Ping, "ping"))?;
        if resp.body == "ping" {
            Ok(())
        } else {
            Err(GsjError::Internal(format!(
                "ping echoed `{}`, want `ping`",
                resp.body
            )))
        }
    }

    /// Ask the server to shut down gracefully. The server acknowledges,
    /// then drains in-flight sessions and stops accepting.
    pub fn shutdown_server(&mut self) -> Result<()> {
        self.round_trip(&Request::new(Verb::Shutdown, ""))
            .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_frame;
    use std::io::Write;
    use std::net::TcpListener;

    #[test]
    fn a_send_into_a_closed_peer_reports_the_refusal_it_left() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
        // The peer refuses the way the accept thread does: one `ERROR`
        // frame, then close, without reading.
        let refusal = GsjError::ResourceExhausted("admission queue full".into());
        let (mut peer, _) = listener.accept().unwrap();
        Response::failure(&refusal).write_to(&mut peer).unwrap();
        drop(peer);
        // A byte into the closed peer draws its RST, so the request's own
        // send fails instead of racing the close.
        let _ = client.stream.write_all(&[0]);
        std::thread::sleep(Duration::from_millis(50));
        assert!(write_frame(&mut client.stream.try_clone().unwrap(), "").is_err());

        let err = client.query("select 1 from t").unwrap_err();
        assert_eq!(err.to_string(), refusal.to_string());
    }
}
