//! Minimal blocking HTTP/1.1 client — just enough to exercise the server
//! from tests. Keep-alive, `Content-Length` framing only (which is all the
//! server emits).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::find_head_end;

/// One parsed response.
#[derive(Debug)]
pub struct ClientResponse {
    pub status: u16,
    /// Header fields with lowercased names.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive connection to one server.
pub struct Client {
    stream: TcpStream,
    /// Leftover bytes past the previous response (pipelining safety).
    buf: Vec<u8>,
}

impl Client {
    /// Connects with a 10s read timeout so a wedged server fails the test
    /// instead of hanging it.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client { stream, buf: Vec::new() })
    }

    /// Sends one request and reads the response. `target` carries the query
    /// string if any; `body` may be empty.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        let mut msg = format!(
            "{method} {target} HTTP/1.1\r\nHost: walrus\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        )
        .into_bytes();
        msg.extend_from_slice(body);
        self.stream.write_all(&msg)?;
        self.stream.flush()?;
        self.read_response()
    }

    fn fill(&mut self) -> std::io::Result<usize> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let truncated =
            || std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "truncated response");
        let malformed =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());

        let (head_len, body_start) = loop {
            if let Some(found) = find_head_end(&self.buf) {
                break found;
            }
            if self.fill()? == 0 {
                return Err(truncated());
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_len]).into_owned();
        self.buf.drain(..body_start);

        let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
        let status_line = lines.next().unwrap_or("");
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| malformed("bad status line"))?;
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line.split_once(':').ok_or_else(|| malformed("bad header"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let content_length = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| v.parse::<usize>().map_err(|_| malformed("bad content-length")))
            .transpose()?
            .unwrap_or(0);

        while self.buf.len() < content_length {
            if self.fill()? == 0 {
                return Err(truncated());
            }
        }
        let body: Vec<u8> = self.buf.drain(..content_length).collect();
        Ok(ClientResponse { status, headers, body })
    }

    /// The raw stream, for tests that need to write hostile bytes directly.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}
