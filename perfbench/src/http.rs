//! The load generator's HTTP/1.1 client: one keep-alive socket, requests
//! pre-rendered to bytes, the clock stopped at the last response byte.
//!
//! It never re-sends. Any I/O error fails the request and drops the
//! socket; the next request connects afresh. A reset therefore counts as
//! a failure instead of silently folding an `/ingest` twice.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Renders a complete `POST` request.
pub fn raw_post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// Renders a complete `GET` request.
pub fn raw_get(path_and_query: &str) -> Vec<u8> {
    format!("GET {path_and_query} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\n")
        .into_bytes()
}

/// One response: status and body.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

/// A keep-alive connection to one server.
#[derive(Debug)]
pub struct Conn {
    addr: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    /// A connection to `addr`, opened lazily by the first request.
    pub fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_owned(),
            stream: None,
            buf: Vec::with_capacity(1 << 16),
        }
    }

    /// Sends one pre-rendered request and reads its response. On error the
    /// socket is dropped and nothing is re-sent.
    pub fn send(&mut self, raw: &[u8]) -> io::Result<Reply> {
        let result = self.exchange(raw);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, raw: &[u8]) -> io::Result<Reply> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(raw)?;

        self.buf.clear();
        let mut chunk = [0u8; 1 << 16];
        let head_end = loop {
            if let Some(at) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut length = 0usize;
        let mut close = false;
        for line in head.split("\r\n").skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .parse()
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let mut body = self.buf[head_end..].to_vec();
        if body.len() > length {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bytes beyond the response",
            ));
        }
        let have = body.len();
        body.resize(length, 0);
        stream.read_exact(&mut body[have..])?;
        if close {
            self.stream = None;
        }
        Ok(Reply { status, body })
    }
}
