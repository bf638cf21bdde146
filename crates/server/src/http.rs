//! Hand-rolled HTTP/1.1 on blocking `std::io` streams.
//!
//! The container has no async runtime and no HTTP crates, so this module
//! implements exactly the slice of HTTP/1.1 the WALRUS service needs — and
//! treats everything outside that slice as hostile:
//!
//! * strict size limits *before* buffering: request line, total head bytes,
//!   header count, and declared body length are all capped, so a hostile
//!   peer cannot make the server allocate unboundedly;
//! * `Content-Length` framing only — `Transfer-Encoding` (chunked) requests
//!   are rejected with `411 Length Required` instead of being mis-framed;
//! * keep-alive with pipelined-leftover handling (bytes after one request's
//!   body are kept for the next parse);
//! * slowloris defense: reads tick on a short socket timeout and each
//!   request must *complete* within a wall-clock budget measured from its
//!   first byte — trickling one byte per poll does not reset the clock.
//!
//! Parsing never panics on arbitrary bytes; every malformed input maps to
//! either a 4xx [`ParseError::Bad`] (answerable) or a clean close.

use std::io::{Read, Write};
use std::time::Duration;

use walrus_trace::Clock;

/// Hard limits applied while parsing one request.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum bytes in the request line (method + target + version).
    pub max_request_line: usize,
    /// Maximum bytes in the whole head (request line + headers).
    pub max_head_bytes: usize,
    /// Maximum number of header fields.
    pub max_headers: usize,
    /// Maximum declared `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_request_line: 8 << 10,
            max_head_bytes: 16 << 10,
            max_headers: 64,
            // PPM bodies are the big legitimate payload; 64 MiB covers a
            // batch of generous images while still bounding allocation.
            max_body_bytes: 64 << 20,
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path component of the target (no query string).
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header fields with lowercased names, in order.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` framed; empty when absent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// First query parameter with this name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }
}

/// Why [`Conn::read_request`] did not produce a request.
#[derive(Debug)]
pub enum ParseError {
    /// The peer is gone (clean EOF at a request boundary) or went idle past
    /// the keep-alive window: close without a response.
    Closed,
    /// Socket-level failure: close without a response.
    Io(std::io::Error),
    /// Protocol violation: answer with `status` and close (framing is no
    /// longer trustworthy after a malformed request).
    Bad {
        /// HTTP status to answer with.
        status: u16,
        /// Human-readable reason included in the response body.
        message: String,
    },
}

fn bad(status: u16, message: impl Into<String>) -> ParseError {
    ParseError::Bad { status, message: message.into() }
}

/// Read-side pacing knobs for one `read_request` call.
pub struct ReadOpts<'a> {
    /// How long an idle keep-alive connection may wait for its next request.
    pub idle_timeout: Duration,
    /// Wall-clock budget for receiving one complete request, measured from
    /// its first byte (the slowloris bound).
    pub read_timeout: Duration,
    /// Checked on every read tick; when it returns true the connection
    /// stops waiting (idle connections close, half-received requests get
    /// `503`), which is what lets graceful shutdown drain quickly.
    pub stopping: &'a dyn Fn() -> bool,
    /// Checked on a read tick of an *idle* connection (empty buffer): when
    /// it returns true — other connections are queued for a worker — the
    /// connection closes exactly as if `idle_timeout` had expired, handing
    /// its worker back. A half-received request is never dropped by this.
    pub others_waiting: &'a dyn Fn() -> bool,
    /// Time source for the idle/read deadlines. Wall-clock ticks still come
    /// from the socket's poll timeout; this clock only decides whether a
    /// budget has elapsed, so tests can expire reads deterministically by
    /// advancing a [`TestClock`](walrus_trace::TestClock).
    pub clock: &'a dyn Clock,
}

enum Fill {
    /// New bytes arrived.
    Data,
    /// Clean EOF from the peer.
    Eof,
    /// Read timed out (the socket's short poll interval) — time to check
    /// deadlines and the stopping flag.
    Tick,
}

/// Outcome of one [`parse_request_bytes`] attempt over a byte buffer.
///
/// This is the *pure* core of the parser: no IO, no clock, no state beyond
/// the bytes themselves. [`Conn::read_request`] calls it in a loop as bytes
/// arrive, and benchmarks can time it without a socket.
#[derive(Debug)]
pub enum ParseStep {
    /// A complete request; `consumed` bytes of the buffer belong to it
    /// (head + body). Bytes past `consumed` are pipelined data for the
    /// next request.
    Ready {
        req: Request,
        consumed: usize,
    },
    /// More bytes are needed. `in_body` distinguishes a half-received head
    /// from a half-received body, so timeout/EOF paths can report
    /// "request head" vs "request body" exactly as before.
    Incomplete {
        in_body: bool,
    },
    /// Protocol violation: answer with `status` and close.
    Reject {
        status: u16,
        message: String,
    },
}

fn reject(status: u16, message: impl Into<String>) -> ParseStep {
    ParseStep::Reject { status, message: message.into() }
}

/// Attempts to parse one request from the front of `buf`, enforcing
/// `limits`. Pure and restartable: callers re-invoke with a longer buffer
/// until it stops returning [`ParseStep::Incomplete`].
pub fn parse_request_bytes(buf: &[u8], limits: &HttpLimits) -> ParseStep {
    // Phase 1: the head (request line + headers) must be complete.
    let Some((head_len, body_start)) = find_head_end(buf) else {
        if buf.len() > limits.max_head_bytes {
            return reject(431, "request head exceeds limit");
        }
        return ParseStep::Incomplete { in_body: false };
    };

    let head = match String::from_utf8(buf[..head_len].to_vec()) {
        Ok(head) => head,
        Err(_) => return reject(400, "request head is not UTF-8"),
    };
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    if request_line.len() > limits.max_request_line {
        return reject(414, "request line exceeds limit");
    }
    let mut parts = request_line.split_whitespace();
    let (method, target, version) =
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v), None) => (m, t, v),
            _ => return reject(400, "malformed request line"),
        };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return reject(400, "malformed method token");
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return reject(505, "unsupported HTTP version"),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= limits.max_headers {
            return reject(431, "too many header fields");
        }
        let Some((name, value)) = line.split_once(':') else {
            return reject(400, "malformed header field");
        };
        let name = name.trim();
        if name.is_empty() || name.contains(char::is_whitespace) {
            return reject(400, "malformed header name");
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // Framing. `Transfer-Encoding` of any kind is out of scope: answer
    // 411 instead of guessing where the body ends.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return reject(411, "transfer-encoding not supported; use content-length");
    }
    let mut content_length = 0usize;
    let mut saw_length = None::<&str>;
    for (k, v) in &headers {
        if k == "content-length" {
            match saw_length {
                None => saw_length = Some(v),
                Some(prev) if prev == v => {}
                Some(_) => return reject(400, "conflicting content-length fields"),
            }
            content_length = match v.parse::<usize>() {
                Ok(n) => n,
                Err(_) => return reject(400, "invalid content-length"),
            };
        }
    }
    if content_length > limits.max_body_bytes {
        return reject(413, "declared body exceeds limit");
    }

    // Phase 2: the body must be complete. Bytes past it stay in the buffer
    // for the next request on this connection.
    if buf.len() - body_start < content_length {
        return ParseStep::Incomplete { in_body: true };
    }
    let body = buf[body_start..body_start + content_length].to_vec();

    // `Connection: close` wins; otherwise 1.1 defaults open, 1.0
    // defaults closed.
    let conn_header = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match conn_header.as_deref() {
        Some(v) if v.contains("close") => false,
        Some(v) if v.contains("keep-alive") => true,
        _ => http11,
    };

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, parse_query(q)),
        None => (target, Vec::new()),
    };

    ParseStep::Ready {
        req: Request {
            method: method.to_string(),
            path: percent_decode(path),
            query,
            headers,
            body,
            keep_alive,
        },
        consumed: body_start + content_length,
    }
}

/// A buffered HTTP connection over any blocking byte stream. The stream
/// should have a short read timeout configured (see [`Conn::read_request`]'s
/// tick handling); `TcpStream::set_read_timeout` is the production path and
/// in-memory streams work for tests.
pub struct Conn<S: Read + Write> {
    stream: S,
    buf: Vec<u8>,
}

impl<S: Read + Write> Conn<S> {
    pub fn new(stream: S) -> Self {
        Conn { stream, buf: Vec::new() }
    }

    fn fill(&mut self) -> Result<Fill, ParseError> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(Fill::Eof),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(Fill::Data)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(Fill::Tick)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(Fill::Tick),
            Err(e) => Err(ParseError::Io(e)),
        }
    }

    /// Reads and parses the next request, enforcing `limits` and the pacing
    /// in `opts`. On `Err(Bad { .. })` the caller should answer and close.
    ///
    /// This is a thin IO/pacing loop around [`parse_request_bytes`].
    pub fn read_request(
        &mut self,
        limits: &HttpLimits,
        opts: &ReadOpts<'_>,
    ) -> Result<Request, ParseError> {
        let started = opts.clock.now_nanos();
        let elapsed =
            || Duration::from_nanos(opts.clock.now_nanos().saturating_sub(started));
        loop {
            let in_body = match parse_request_bytes(&self.buf, limits) {
                ParseStep::Ready { req, consumed } => {
                    self.buf.drain(..consumed);
                    return Ok(req);
                }
                ParseStep::Reject { status, message } => {
                    return Err(ParseError::Bad { status, message });
                }
                ParseStep::Incomplete { in_body } => in_body,
            };
            match self.fill()? {
                Fill::Data => continue,
                Fill::Eof => {
                    return if self.buf.is_empty() {
                        Err(ParseError::Closed)
                    } else if in_body {
                        Err(bad(400, "connection closed mid-body"))
                    } else {
                        Err(bad(400, "connection closed mid-request"))
                    };
                }
                Fill::Tick => {
                    if (opts.stopping)() {
                        return if self.buf.is_empty() {
                            Err(ParseError::Closed)
                        } else {
                            Err(bad(503, "server shutting down"))
                        };
                    }
                    if self.buf.is_empty() {
                        if (opts.others_waiting)() || elapsed() >= opts.idle_timeout {
                            return Err(ParseError::Closed);
                        }
                    } else if elapsed() >= opts.read_timeout {
                        return Err(if in_body {
                            bad(408, "timed out receiving request body")
                        } else {
                            bad(408, "timed out receiving request head")
                        });
                    }
                }
            }
        }
    }

    /// Serializes `resp` to the peer.
    pub fn write_response(&mut self, resp: &Response) -> std::io::Result<()> {
        let bytes = encode_response(resp);
        self.stream.write_all(&bytes)?;
        self.stream.flush()
    }

    /// The underlying stream (tests use this to inspect written bytes).
    pub fn stream_mut(&mut self) -> &mut S {
        &mut self.stream
    }
}

/// Finds the end of the head: returns `(head_len, body_start)` for the first
/// `\r\n\r\n` (or bare `\n\n`) terminator. Shared with the client's response
/// parser.
pub(crate) fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    for i in 0..buf.len() {
        let rest = &buf[i..];
        if rest.starts_with(b"\r\n\r\n") {
            return Some((i, i + 4));
        }
        if rest.starts_with(b"\n\n") {
            return Some((i, i + 2));
        }
    }
    None
}

fn parse_query(qs: &str) -> Vec<(String, String)> {
    qs.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Minimal `%XX` + `+` decoding; malformed escapes pass through literally
/// rather than erroring (they will simply fail to match any route/param).
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(bytes[i]);
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Serializes a response to wire bytes (status line, framing headers,
/// body).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if resp.close { "close" } else { "keep-alive" },
    )
    .into_bytes();
    out.extend_from_slice(&resp.body);
    out
}

/// One response. `close` is set by the connection loop, not the router.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    pub close: bool,
}

impl Response {
    pub fn json(status: u16, body: String) -> Self {
        Response { status, content_type: "application/json", body: body.into_bytes(), close: false }
    }

    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            close: false,
        }
    }

    /// A JSON error body `{"error": ...}` with the given status.
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(status, format!("{{\"error\":{}}}", json_string(message)))
    }
}

/// Reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        206 => "Partial Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Serializes `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-memory stream: reads from a script, EOF at the end, collects
    /// writes.
    struct MemStream {
        input: std::io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl MemStream {
        fn new(input: &[u8]) -> Self {
            MemStream { input: std::io::Cursor::new(input.to_vec()), output: Vec::new() }
        }
    }

    impl Read for MemStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for MemStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn opts() -> ReadOpts<'static> {
        ReadOpts {
            idle_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(5),
            stopping: &|| false,
            others_waiting: &|| false,
            clock: &walrus_trace::MonotonicClock,
        }
    }

    fn read(input: &[u8]) -> Result<Request, ParseError> {
        Conn::new(MemStream::new(input)).read_request(&HttpLimits::default(), &opts())
    }

    #[test]
    fn parses_get_with_query() {
        let req = read(b"GET /query?k=5&timeout_ms=100 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(req.query_param("k"), Some("5"));
        assert_eq!(req.query_param("timeout_ms"), Some("100"));
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body_and_pipelined_leftover() {
        let mut conn = Conn::new(MemStream::new(
            b"POST /ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /healthz HTTP/1.1\r\n\r\n",
        ));
        let limits = HttpLimits::default();
        let first = conn.read_request(&limits, &opts()).unwrap();
        assert_eq!(first.body, b"hello");
        let second = conn.read_request(&limits, &opts()).unwrap();
        assert_eq!(second.path, "/healthz");
    }

    #[test]
    fn connection_close_and_http10_semantics() {
        let req = read(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = read(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = read(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn rejects_chunked_cleanly() {
        let err = read(b"POST /ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert!(matches!(err, Err(ParseError::Bad { status: 411, .. })));
    }

    #[test]
    fn rejects_oversized_head_and_line() {
        let mut input = b"GET /".to_vec();
        input.extend_from_slice(&vec![b'a'; 20 << 10]);
        input.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert!(matches!(read(&input), Err(ParseError::Bad { status: 431, .. })));

        // A long-but-under-head-cap request line trips the line limit.
        let mut input = b"GET /".to_vec();
        input.extend_from_slice(&vec![b'a'; 10 << 10]);
        input.extend_from_slice(b" HTTP/1.1\r\nx: y\r\n\r\n");
        assert!(matches!(read(&input), Err(ParseError::Bad { status: 414, .. })));
    }

    #[test]
    fn rejects_header_bomb() {
        let mut input = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..100 {
            input.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        input.extend_from_slice(b"\r\n");
        assert!(matches!(read(&input), Err(ParseError::Bad { status: 431, .. })));
    }

    #[test]
    fn rejects_bad_framing() {
        assert!(matches!(
            read(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ParseError::Bad { status: 400, .. })
        ));
        assert!(matches!(
            read(b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"),
            Err(ParseError::Bad { status: 400, .. })
        ));
        assert!(matches!(
            read(b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd"),
            Err(ParseError::Bad { status: 400, .. })
        ));
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(matches!(read(huge.as_bytes()), Err(ParseError::Bad { status: 413, .. })));
    }

    #[test]
    fn truncated_body_is_a_clean_400() {
        assert!(matches!(
            read(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(ParseError::Bad { status: 400, .. })
        ));
    }

    #[test]
    fn empty_connection_closes_cleanly() {
        assert!(matches!(read(b""), Err(ParseError::Closed)));
        assert!(matches!(read(b"GET / HT"), Err(ParseError::Bad { status: 400, .. })));
    }

    #[test]
    fn rejects_garbage_lines() {
        assert!(matches!(read(b"\x00\x01\x02\r\n\r\n"), Err(ParseError::Bad { .. })));
        assert!(matches!(
            read(b"GET / HTTP/2.0\r\n\r\n"),
            Err(ParseError::Bad { status: 505, .. })
        ));
        assert!(matches!(
            read(b"GET / HTTP/1.1 extra\r\n\r\n"),
            Err(ParseError::Bad { status: 400, .. })
        ));
        assert!(matches!(
            read(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(ParseError::Bad { status: 400, .. })
        ));
    }

    #[test]
    fn decodes_query_escapes() {
        let req = read(b"GET /query?name=a%20b+c&flag HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("name"), Some("a b c"));
        assert_eq!(req.query_param("flag"), Some(""));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    /// Stream that yields scripted chunks, then endless `WouldBlock` ticks —
    /// each tick advancing a [`TestClock`] — so read-deadline behavior is
    /// exercised without any real waiting.
    struct TickingStream {
        chunks: std::collections::VecDeque<Vec<u8>>,
        clock: std::sync::Arc<walrus_trace::TestClock>,
        tick: Duration,
    }

    impl Read for TickingStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.chunks.pop_front() {
                Some(chunk) => {
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
                None => {
                    self.clock.advance(self.tick);
                    Err(std::io::ErrorKind::WouldBlock.into())
                }
            }
        }
    }

    impl Write for TickingStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Reads one request from `chunks` followed by endless ticks of `tick`
    /// each, under a 30 s idle / 5 s read budget; returns the outcome and
    /// how far the injected clock had to move to produce it.
    fn read_ticking(
        chunks: &[&[u8]],
        tick: Duration,
        others_waiting: bool,
    ) -> (Result<Request, ParseError>, Duration) {
        let clock = walrus_trace::TestClock::new();
        let stream = TickingStream {
            chunks: chunks.iter().map(|c| c.to_vec()).collect(),
            clock: clock.clone(),
            tick,
        };
        let opts = ReadOpts {
            idle_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(5),
            stopping: &|| false,
            others_waiting: &|| others_waiting,
            clock: clock.as_ref(),
        };
        (Conn::new(stream).read_request(&HttpLimits::default(), &opts), clock.elapsed())
    }

    #[test]
    fn slowloris_hits_408_on_the_injected_clock() {
        let (err, waited) = read_ticking(&[b"GET / HT"], Duration::from_secs(1), false);
        assert!(matches!(err, Err(ParseError::Bad { status: 408, .. })), "{err:?}");
        // The deadline fired exactly when the test clock crossed it —
        // 5 scripted ticks — not after any wall-clock delay.
        assert_eq!(waited, Duration::from_secs(5));
    }

    #[test]
    fn idle_connection_closes_on_the_injected_clock() {
        let (err, waited) = read_ticking(&[], Duration::from_secs(2), false);
        assert!(matches!(err, Err(ParseError::Closed)), "{err:?}");
        assert_eq!(waited, Duration::from_secs(30));
    }

    /// With other connections queued for a worker, an idle connection
    /// closes on its first tick — long before `idle_timeout` — while a
    /// half-received request keeps its full `read_timeout`.
    #[test]
    fn idle_connection_yields_its_worker_but_a_partial_request_does_not() {
        let (idle, waited) = read_ticking(&[], Duration::from_secs(1), true);
        assert!(matches!(idle, Err(ParseError::Closed)), "{idle:?}");
        assert_eq!(waited, Duration::from_secs(1));
        let (partial, waited) = read_ticking(&[b"GET / HT"], Duration::from_secs(1), true);
        assert!(matches!(partial, Err(ParseError::Bad { status: 408, .. })), "{partial:?}");
        assert_eq!(waited, Duration::from_secs(5));
    }

    /// The pure parser must be restartable: feeding any prefix of a valid
    /// request reports `Incomplete` (never a spurious reject), with the
    /// head/body phase flag flipping exactly at the head terminator — the
    /// contract byte-at-a-time arrivals rely on.
    #[test]
    fn incremental_parse_is_restartable() {
        let full: &[u8] = b"POST /ingest?name=x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let limits = HttpLimits::default();
        let head_end = find_head_end(full).unwrap().1;
        for cut in 0..full.len() {
            match parse_request_bytes(&full[..cut], &limits) {
                ParseStep::Incomplete { in_body } => {
                    assert_eq!(in_body, cut >= head_end, "cut={cut}");
                }
                ParseStep::Reject { status, .. } => panic!("prefix {cut} rejected {status}"),
                ParseStep::Ready { .. } => panic!("prefix {cut} cannot be complete"),
            }
        }
        match parse_request_bytes(full, &limits) {
            ParseStep::Ready { req, consumed } => {
                assert_eq!(consumed, full.len());
                assert_eq!(req.body, b"hello");
                assert_eq!(req.query_param("name"), Some("x"));
            }
            other => panic!("{other:?}"),
        }
    }

    /// `consumed` must stop exactly at the request boundary so pipelined
    /// bytes stay available for the next parse.
    #[test]
    fn pure_parser_reports_pipelined_boundary() {
        let full: &[u8] =
            b"POST /ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /healthz HTTP/1.1\r\n\r\n";
        let limits = HttpLimits::default();
        let ParseStep::Ready { req, consumed } = parse_request_bytes(full, &limits) else {
            panic!("first request must parse");
        };
        assert_eq!(req.body, b"hello");
        let ParseStep::Ready { req, consumed: rest } =
            parse_request_bytes(&full[consumed..], &limits)
        else {
            panic!("second request must parse");
        };
        assert_eq!(req.path, "/healthz");
        assert_eq!(consumed + rest, full.len());
    }

    #[test]
    fn encode_response_matches_write_response() {
        let mut resp = Response::json(206, "{\"x\":1}".to_string());
        resp.close = false;
        let mut conn = Conn::new(MemStream::new(b""));
        conn.write_response(&resp).unwrap();
        assert_eq!(conn.stream_mut().output, encode_response(&resp));
    }

    #[test]
    fn writes_response_with_framing() {
        let mut conn = Conn::new(MemStream::new(b""));
        let mut resp = Response::text(200, "ok");
        resp.close = true;
        conn.write_response(&resp).unwrap();
        let out = String::from_utf8(conn.stream_mut().output.clone()).unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(out.contains("Content-Length: 2\r\n"));
        assert!(out.contains("Connection: close\r\n"));
        assert!(out.ends_with("\r\n\r\nok"));
    }
}
