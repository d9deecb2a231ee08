//! The GSJ/1 wire protocol: length-prefixed UTF-8 frames carrying a
//! line-oriented request / response payload.
//!
//! # Frame layout
//!
//! ```text
//! +----------------+----------------------+
//! | u32 big-endian |  UTF-8 payload       |
//! | payload length |  (length bytes)      |
//! +----------------+----------------------+
//! ```
//!
//! # Payload layout
//!
//! The payload is line-oriented, HTTP/1-ish. A request:
//!
//! ```text
//! GSJ/1 QUERY
//! deadline-ms: 250
//! strategy: optimized
//!
//! select name from movie e-join G <director> as T
//! ```
//!
//! and a response:
//!
//! ```text
//! GSJ/1 OK              |  GSJ/1 ERROR
//! rows: 12              |  code: DeadlineExceeded
//! elapsed-us: 345       |  retryable: false
//! trace-id: 9f3a…       |  governance: true
//!                       |  trace-id: 9f3a…
//! <CSV result rows>     |  <error message>
//! ```
//!
//! Recognized `QUERY` request headers: `deadline-ms`, `row-budget`,
//! `mem-budget`, `strategy`, `explain: analyze`, and `trace: 1` (force
//! span capture; the `OK` body becomes a JSON span-tree document
//! instead of CSV). Every query response — success or error — carries a
//! `trace-id` header naming its flight-recorder record, resolvable via
//! the metrics endpoint's `/debug/trace/<id>` route.
//!
//! Header *values* never contain newlines (error messages travel in the
//! body), so parsing is a single pass. Unknown headers are ignored,
//! which is the protocol's forward-compatibility story.

use gsj_common::{GsjError, Result};
use std::io::{self, Read, Write};

/// Protocol magic + version, the first token of every payload.
pub const MAGIC: &str = "GSJ/1";

/// Default cap on a single frame's payload (1 MiB). Oversized frames are
/// rejected *before* allocating the payload buffer, so a hostile length
/// prefix cannot balloon server memory.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame over 4 GiB"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Outcome of pulling one frame off a stream.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete, valid frame.
    Payload(String),
    /// Clean end-of-stream before any byte of a next frame — the peer
    /// closed between frames.
    Eof,
    /// The read timed out before any byte of a next frame arrived. Only
    /// produced on sockets with a read timeout; lets a session loop poll
    /// its shutdown flag between requests.
    Idle,
    /// The length prefix exceeded the frame cap; the payload was *not*
    /// read, so the connection cannot be re-synchronized and must close.
    Oversized(usize),
}

/// Read one frame. `should_abort` is polled whenever a timeout fires
/// *mid-frame* (after the first byte): returning `true` abandons the
/// partial frame with [`GsjError::Cancelled`]. A timeout before the
/// first byte is reported as [`FrameRead::Idle`] instead.
///
/// Truncation (EOF mid-frame) and non-UTF-8 payloads surface as
/// [`GsjError::Parse`]; transport failures as [`GsjError::Internal`].
pub fn read_frame_with(
    r: &mut impl Read,
    max_len: usize,
    mut should_abort: impl FnMut() -> bool,
) -> Result<FrameRead> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(FrameRead::Eof)
                } else {
                    Err(GsjError::Parse(format!(
                        "truncated frame header ({got}/4 bytes)"
                    )))
                };
            }
            Ok(n) => got += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if got == 0 {
                    return Ok(FrameRead::Idle);
                }
                if should_abort() {
                    return Err(GsjError::Cancelled);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(GsjError::Internal(format!("read: {e}"))),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_len {
        return Ok(FrameRead::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(GsjError::Parse(format!(
                    "truncated frame body ({got}/{len} bytes)"
                )))
            }
            Ok(n) => got += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if should_abort() {
                    return Err(GsjError::Cancelled);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(GsjError::Internal(format!("read: {e}"))),
        }
    }
    String::from_utf8(payload)
        .map(FrameRead::Payload)
        .map_err(|_| GsjError::Parse("frame payload is not UTF-8".into()))
}

/// [`read_frame_with`] for plain blocking readers (no timeout).
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<FrameRead> {
    read_frame_with(r, max_len, || false)
}

/// Request verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Execute the gSQL text in the body.
    Query,
    /// Liveness probe; the body is echoed back.
    Ping,
    /// Ask the server to drain in-flight work and stop accepting.
    Shutdown,
}

impl Verb {
    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Query => "QUERY",
            Verb::Ping => "PING",
            Verb::Shutdown => "SHUTDOWN",
        }
    }

    fn parse(s: &str) -> Result<Self> {
        match s {
            "QUERY" => Ok(Verb::Query),
            "PING" => Ok(Verb::Ping),
            "SHUTDOWN" => Ok(Verb::Shutdown),
            other => Err(GsjError::Parse(format!("unknown verb `{other}`"))),
        }
    }
}

/// `(name, value)` header pairs, names lowercased.
type HeaderList = Vec<(String, String)>;

/// Split a payload into (first line, headers, body). Shared by request
/// and response parsing. The body is the payload's suffix after the
/// blank line that ends the headers, taken as one slice; without that
/// blank line it is empty.
fn split_payload(payload: &str) -> Result<(&str, HeaderList, &str)> {
    let (first, mut rest) = payload.split_once('\n').unwrap_or((payload, ""));
    let mut headers = Vec::new();
    loop {
        let (line, tail) = rest.split_once('\n').unwrap_or((rest, ""));
        if line.is_empty() {
            return Ok((first, headers, tail));
        }
        let (name, value) = line.split_once(':').ok_or_else(|| {
            GsjError::Parse(format!("malformed header line `{line}` (missing `:`)"))
        })?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        rest = tail;
    }
}

fn header_lookup<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn encode_payload(first: &str, headers: &[(String, String)], body: &str) -> String {
    let mut s = String::with_capacity(first.len() + body.len() + 64);
    s.push_str(first);
    s.push('\n');
    for (name, value) in headers {
        debug_assert!(!value.contains('\n'), "header values must be single-line");
        s.push_str(name);
        s.push_str(": ");
        s.push_str(value);
        s.push('\n');
    }
    s.push('\n');
    s.push_str(body);
    s
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub verb: Verb,
    pub headers: Vec<(String, String)>,
    /// For `QUERY`, the gSQL text; for `PING`, an arbitrary echo token.
    pub body: String,
}

impl Request {
    pub fn new(verb: Verb, body: impl Into<String>) -> Self {
        Request {
            verb,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    pub fn query(text: impl Into<String>) -> Self {
        Request::new(Verb::Query, text)
    }

    /// Builder-style header append. Names are normalized to lowercase.
    pub fn with_header(mut self, name: &str, value: impl ToString) -> Self {
        self.headers
            .push((name.to_ascii_lowercase(), value.to_string()));
        self
    }

    /// Case-insensitive header lookup (names are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    pub fn encode(&self) -> String {
        encode_payload(
            &format!("{MAGIC} {}", self.verb.as_str()),
            &self.headers,
            &self.body,
        )
    }

    pub fn parse(payload: &str) -> Result<Request> {
        let (first, headers, body) = split_payload(payload)?;
        let mut parts = first.split_whitespace();
        match parts.next() {
            Some(m) if m == MAGIC => {}
            other => {
                return Err(GsjError::Parse(format!(
                    "bad magic {other:?} (want `{MAGIC}`)"
                )))
            }
        }
        let verb = Verb::parse(parts.next().unwrap_or(""))?;
        Ok(Request {
            verb,
            headers,
            body: body.to_string(),
        })
    }
}

/// A parsed response: either `OK` with result headers and a body, or
/// `ERROR` with the typed [`GsjError`] encoded in headers + body.
#[derive(Debug, Clone)]
pub struct Response {
    pub ok: bool,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

/// The bare message of an error, without the `Display` category prefix,
/// so `GsjError::from_wire(code, message)` reconstructs the exact
/// variant the server produced.
fn error_message(e: &GsjError) -> String {
    match e {
        GsjError::Schema(m)
        | GsjError::NotFound(m)
        | GsjError::Parse(m)
        | GsjError::Unsupported(m)
        | GsjError::Eval(m)
        | GsjError::Config(m)
        | GsjError::DeadlineExceeded(m)
        | GsjError::ResourceExhausted(m)
        | GsjError::Internal(m) => m.clone(),
        GsjError::Cancelled => String::new(),
        other => other.to_string(),
    }
}

impl Response {
    pub fn success(body: impl Into<String>) -> Self {
        Response {
            ok: true,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// An error frame carrying the wire code plus the server-side
    /// `retryable` / `is_governance` verdicts (informational — clients
    /// recompute them from the reconstructed variant).
    pub fn failure(e: &GsjError) -> Self {
        Response {
            ok: false,
            headers: vec![
                ("code".into(), e.code().into()),
                ("retryable".into(), e.retryable().to_string()),
                ("governance".into(), e.is_governance().to_string()),
            ],
            body: error_message(e),
        }
    }

    pub fn with_header(mut self, name: &str, value: impl ToString) -> Self {
        self.headers
            .push((name.to_ascii_lowercase(), value.to_string()));
        self
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    pub fn encode(&self) -> String {
        let status = if self.ok { "OK" } else { "ERROR" };
        encode_payload(&format!("{MAGIC} {status}"), &self.headers, &self.body)
    }

    pub fn parse(payload: &str) -> Result<Response> {
        let (first, headers, body) = split_payload(payload)?;
        let mut parts = first.split_whitespace();
        match parts.next() {
            Some(m) if m == MAGIC => {}
            other => {
                return Err(GsjError::Parse(format!(
                    "bad magic {other:?} (want `{MAGIC}`)"
                )))
            }
        }
        let ok = match parts.next() {
            Some("OK") => true,
            Some("ERROR") => false,
            other => {
                return Err(GsjError::Parse(format!(
                    "bad status {other:?} (want OK | ERROR)"
                )))
            }
        };
        Ok(Response {
            ok,
            headers,
            body: body.to_string(),
        })
    }

    /// Collapse an `ERROR` response into the typed error it carries; `OK`
    /// responses pass through.
    pub fn into_result(self) -> Result<Response> {
        if self.ok {
            return Ok(self);
        }
        let code = self.header("code").unwrap_or("Internal").to_string();
        Err(GsjError::from_wire(&code, &self.body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame_bytes(payload: &str) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        buf
    }

    #[test]
    fn frames_round_trip() {
        let bytes = frame_bytes("hello ✓ frame");
        let mut r = Cursor::new(bytes);
        match read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap() {
            FrameRead::Payload(p) => assert_eq!(p, "hello ✓ frame"),
            other => panic!("expected payload, got {other:?}"),
        }
        // The stream is now exhausted: clean EOF.
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(),
            FrameRead::Eof
        ));
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let mut r = Cursor::new(frame_bytes(""));
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(),
            FrameRead::Payload(p) if p.is_empty()
        ));
    }

    #[test]
    fn truncated_header_and_body_are_parse_errors() {
        // Only 2 of the 4 length bytes.
        let mut r = Cursor::new(vec![0u8, 0]);
        match read_frame(&mut r, DEFAULT_MAX_FRAME) {
            Err(GsjError::Parse(m)) => assert!(m.contains("header"), "{m}"),
            other => panic!("expected Parse, got {other:?}"),
        }
        // Header promises 10 bytes, body delivers 3.
        let mut bytes = 10u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        match read_frame(&mut Cursor::new(bytes), DEFAULT_MAX_FRAME) {
            Err(GsjError::Parse(m)) => assert!(m.contains("3/10"), "{m}"),
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocation() {
        let bytes = u32::MAX.to_be_bytes().to_vec();
        match read_frame(&mut Cursor::new(bytes), 1024).unwrap() {
            FrameRead::Oversized(n) => assert_eq!(n, u32::MAX as usize),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn non_utf8_payload_is_a_parse_error() {
        let mut bytes = 2u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes), 1024),
            Err(GsjError::Parse(_))
        ));
    }

    /// The split `split_payload` replaced: the payload cut into lines and
    /// the body joined back from the lines after the blank one.
    fn split_payload_by_lines(payload: &str) -> Result<(&str, HeaderList, String)> {
        let mut lines = payload.split('\n');
        let first = lines
            .next()
            .ok_or_else(|| GsjError::Parse("empty payload".into()))?;
        let mut headers = Vec::new();
        for line in lines.by_ref() {
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').ok_or_else(|| {
                GsjError::Parse(format!("malformed header line `{line}` (missing `:`)"))
            })?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let body: String = lines.collect::<Vec<_>>().join("\n");
        Ok((first, headers, body))
    }

    #[test]
    fn body_is_the_suffix_the_line_split_rejoined() {
        for payload in [
            "GSJ/1 OK\nrows: 2\n\na,b\n1,2\n3,4\n",
            "GSJ/1 OK\nrows: 1\n\n\nleading newline",
            "GSJ/1 OK\n\nblank\n\nlines\n\n\ninside\n\n",
            "GSJ/1 OK\nRows : 1\nelapsed-us:  7 \n\n",
            "GSJ/1 OK\nrows: 1",
            "GSJ/1 OK\nrows: 1\n",
            "GSJ/1 OK",
            "GSJ/1 OK\n",
            "GSJ/1 OK\n\n",
            "",
            "\n\n\n",
            "GSJ/1 QUERY\nno colon\n\nbody",
        ] {
            let sliced = split_payload(payload).map(|(f, h, b)| (f, h, b.to_string()));
            assert_eq!(sliced, split_payload_by_lines(payload), "{payload:?}");
        }
    }

    #[test]
    fn request_round_trips_with_headers_and_multiline_body() {
        let req = Request::query("select *\nfrom t")
            .with_header("Deadline-Ms", 250)
            .with_header("strategy", "optimized");
        let back = Request::parse(&req.encode()).unwrap();
        assert_eq!(back.verb, Verb::Query);
        assert_eq!(back.header("deadline-ms"), Some("250"));
        assert_eq!(back.header("strategy"), Some("optimized"));
        assert_eq!(back.header("missing"), None);
        assert_eq!(back.body, "select *\nfrom t");
    }

    #[test]
    fn ping_and_shutdown_verbs_parse() {
        for verb in [Verb::Ping, Verb::Shutdown] {
            let back = Request::parse(&Request::new(verb, "x").encode()).unwrap();
            assert_eq!(back.verb, verb);
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(matches!(
            Request::parse("HTTP/1.1 GET\n\n"),
            Err(GsjError::Parse(_))
        ));
        assert!(matches!(
            Request::parse("GSJ/1 DELETE\n\n"),
            Err(GsjError::Parse(_))
        ));
        assert!(matches!(
            Request::parse("GSJ/1 QUERY\nno-colon-here\n\nbody"),
            Err(GsjError::Parse(_))
        ));
        assert!(matches!(Request::parse(""), Err(GsjError::Parse(_))));
    }

    #[test]
    fn ok_response_round_trips() {
        let resp = Response::success("a,b\n1,2")
            .with_header("rows", 1)
            .with_header("elapsed-us", 42);
        let back = Response::parse(&resp.encode()).unwrap();
        assert!(back.ok);
        assert_eq!(back.header("rows"), Some("1"));
        let through = back.into_result().unwrap();
        assert_eq!(through.body, "a,b\n1,2");
    }

    #[test]
    fn error_response_reconstructs_the_typed_error() {
        for e in [
            GsjError::Parse("bad token".into()),
            GsjError::Cancelled,
            GsjError::DeadlineExceeded("HashJoin".into()),
            GsjError::ResourceExhausted("row budget 10 exceeded".into()),
        ] {
            let resp = Response::failure(&e);
            let back = Response::parse(&resp.encode()).unwrap();
            assert!(!back.ok);
            assert_eq!(
                back.header("retryable"),
                Some(e.retryable().to_string()).as_deref()
            );
            let err = back.into_result().unwrap_err();
            assert_eq!(err, e, "must reconstruct {e:?}");
            assert_eq!(err.is_governance(), e.is_governance());
        }
    }

    #[test]
    fn idle_is_reported_before_first_byte_only() {
        // A reader that always times out.
        struct AlwaysTimeout;
        impl std::io::Read for AlwaysTimeout {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "t/o"))
            }
        }
        assert!(matches!(
            read_frame_with(&mut AlwaysTimeout, 1024, || false).unwrap(),
            FrameRead::Idle
        ));

        // One that yields a partial header, then times out forever: the
        // abort hook must fire (mid-frame) instead of reporting Idle.
        struct Partial(usize);
        impl std::io::Read for Partial {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0 > 0 {
                    self.0 -= 1;
                    buf[0] = 0;
                    Ok(1)
                } else {
                    Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "t/o"))
                }
            }
        }
        assert!(matches!(
            read_frame_with(&mut Partial(2), 1024, || true),
            Err(GsjError::Cancelled)
        ));
    }
}
