//! The load generator's HTTP/1.1 client: blocking `std::net`, one
//! keep-alive connection, `Content-Length` framing only (all the server
//! speaks). It owns no engine code, so a server rewrite cannot change what
//! the benchmark puts on the wire.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive connection that reconnects when the server has closed it
/// (the server closes after `keep_alive_max` requests and when idle).
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Whether any byte of the current response has arrived.
    response_started: bool,
}

/// No single request of any workload takes this long; a hang fails the run
/// instead of stalling it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            response_started: false,
        }
    }

    /// Drops the connection, which frees the server worker serving it.
    pub fn close(&mut self) {
        self.stream = None;
    }

    fn connect(&mut self) -> io::Result<()> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(stream);
        }
        Ok(())
    }

    /// Sends `raw` (a complete request, see [`crate::inputs::raw_request`])
    /// and reads the response. A reused connection the server closed while
    /// it sat idle fails with a reset or EOF before any response byte
    /// arrives; that one case is retried on a fresh connection (the server
    /// never read the request, so an ingest cannot be applied twice).
    pub fn send(&mut self, raw: &[u8]) -> io::Result<Reply> {
        let reused = self.stream.is_some();
        match self.exchange(raw) {
            Err(e) if reused && !self.response_started && closed_by_peer(&e) => self.exchange(raw),
            other => other,
        }
    }

    pub fn get(&mut self, target: &str) -> io::Result<Reply> {
        self.send(&crate::inputs::raw_request("GET", target, b""))
    }

    pub fn post(&mut self, target: &str, body: &[u8]) -> io::Result<Reply> {
        self.send(&crate::inputs::raw_request("POST", target, body))
    }

    fn exchange(&mut self, raw: &[u8]) -> io::Result<Reply> {
        let result = self.exchange_inner(raw);
        if result.is_err() {
            self.close();
        }
        result
    }

    fn exchange_inner(&mut self, raw: &[u8]) -> io::Result<Reply> {
        self.response_started = false;
        let mut buf = Vec::new();
        self.connect()?;
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(raw)?;

        let head_end = loop {
            if let Some(pos) = find(&buf, b"\r\n\r\n") {
                break pos + 4;
            }
            if buf.len() > 64 << 10 {
                return Err(bad("response head over 64 KiB"));
            }
            if fill(stream, &mut buf)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before a full response head",
                ));
            }
            self.response_started = true;
        };
        let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length: Option<usize> = None;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse().map_err(|_| bad("malformed Content-Length"))?);
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length"))?;
        if length > 256 << 20 {
            return Err(bad("response body over 256 MiB"));
        }
        while buf.len() < head_end + length {
            if fill(stream, &mut buf)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a response body",
                ));
            }
        }
        if buf.len() > head_end + length {
            return Err(bad(
                "bytes after the response body (one request is in flight at a time)",
            ));
        }
        let body = buf.split_off(head_end);
        if close {
            self.close();
        }
        Ok(Reply { status, body })
    }
}

fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<usize> {
    let mut chunk = [0u8; 16 << 10];
    let n = stream.read(&mut chunk)?;
    buf.extend_from_slice(&chunk[..n]);
    Ok(n)
}

fn closed_by_peer(e: &io::Error) -> bool {
    use io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset, UnexpectedEof};
    matches!(
        e.kind(),
        BrokenPipe | ConnectionAborted | ConnectionReset | UnexpectedEof
    )
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}
