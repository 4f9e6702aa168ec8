//! A minimal, hardened HTTP/1.1 reader/writer over `std::net`.
//!
//! This is *not* a general HTTP implementation — it parses exactly the
//! subset the compile service speaks (request line, a bounded set of
//! headers, an optional `Content-Length` body) and refuses everything
//! else with a structured error the server maps to a 4xx response. The
//! input is untrusted, so every dimension is limited before allocation:
//! header block size, header count, and body size; chunked bodies and
//! HTTP/2 upgrades are rejected outright.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Hard cap on the request line + headers block, before any body.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on the number of headers.
const MAX_HEADERS: usize = 64;

/// Why a request could not be read off the wire.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before (or mid-way through) a
    /// request — the normal end of a keep-alive connection.
    Closed,
    /// The read timed out (socket read timeout elapsed).
    Timeout,
    /// The bytes were not a well-formed HTTP/1.1 request we accept.
    /// Mapped to `400 Bad Request`.
    Malformed(String),
    /// The declared body exceeds the configured limit. Mapped to
    /// `413 Payload Too Large`.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: u64,
        /// Configured maximum body size.
        limit: u64,
    },
    /// Any other I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Closed => write!(f, "connection closed by peer"),
            ReadError::Timeout => write!(f, "timed out waiting for request"),
            ReadError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            ReadError::BodyTooLarge { declared, limit } => {
                write!(f, "request body of {declared} bytes exceeds the {limit}-byte limit")
            }
            ReadError::Io(e) => write!(f, "i/o error reading request: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ReadError::Timeout,
            io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe => ReadError::Closed,
            _ => ReadError::Io(e),
        }
    }
}

/// A parsed request: just the pieces the service routes on.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target, without the query string.
    pub path: String,
    /// Raw query string (no leading `?`), empty if absent.
    pub query: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of the (lowercased) header `name`, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Value of the query parameter `key`, if present
    /// (`deadline_ms=250&x=1` style; no percent-decoding — our keys and
    /// values are plain tokens).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }

    /// Whether the connection should stay open after the response.
    pub fn keep_alive(&self) -> bool {
        !self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Reads one request from `stream`, enforcing the head limits above and
/// `max_body_bytes` on the body.
///
/// The stream's read timeout (if any) applies per `read` call; an elapsed
/// timeout surfaces as [`ReadError::Timeout`].
pub fn read_request(stream: &mut TcpStream, max_body_bytes: u64) -> Result<Request, ReadError> {
    let head = read_head(stream)?;
    let head_text = std::str::from_utf8(&head)
        .map_err(|_| ReadError::Malformed("request head is not valid UTF-8".into()))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ReadError::Malformed(format!("bad request line: {}", clip(request_line)))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadError::Malformed(format!("unsupported version: {}", clip(version))));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // trailing empty element after the final CRLF
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ReadError::Malformed(format!("more than {MAX_HEADERS} headers")));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("bad header line: {}", clip(line))))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let request = Request { method: method.to_string(), path, query, headers, body: Vec::new() };

    if request.header("transfer-encoding").is_some_and(|v| !v.eq_ignore_ascii_case("identity")) {
        return Err(ReadError::Malformed("chunked transfer encoding is not supported".into()));
    }

    let declared = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| ReadError::Malformed(format!("bad content-length: {}", clip(v))))?,
    };
    if declared > max_body_bytes {
        return Err(ReadError::BodyTooLarge { declared, limit: max_body_bytes });
    }

    let mut request = request;
    if declared > 0 {
        let mut body = vec![0u8; declared as usize];
        stream.read_exact(&mut body)?;
        request.body = body;
    }
    Ok(request)
}

/// Reads bytes until the `\r\n\r\n` head terminator, returning the head
/// (terminator excluded). Reads one byte at a time — crude, but the head
/// is at most 16 KiB and the body (the bulk of a compile request) is read
/// in one `read_exact`.
fn read_head(stream: &mut TcpStream) -> Result<Vec<u8>, ReadError> {
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => {
                return if head.is_empty() {
                    Err(ReadError::Closed)
                } else {
                    Err(ReadError::Malformed("connection closed mid-request".into()))
                }
            }
            Ok(_) => head.push(byte[0]),
            Err(e) => {
                // A timeout before any byte arrived is an idle keep-alive
                // connection; mid-head it is a stalled client.
                return Err(ReadError::from(e));
            }
        }
        if head.ends_with(b"\r\n\r\n") {
            head.truncate(head.len() - 4);
            return Ok(head);
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(ReadError::Malformed(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
    }
}

/// Writes a complete response with the given status and JSON body, as one
/// buffer in one `write_all`. Sent as two writes, the body would wait on a
/// socket without `TCP_NODELAY` (Nagle) for the client's delayed ACK of the
/// head, about 40 ms per keep-alive response; the server also sets
/// `TCP_NODELAY` on every accepted stream.
///
/// Every `503` automatically carries a `Retry-After: 1` header: the
/// service only sheds load transiently (a full accept queue, an
/// overloaded health probe), so well-behaved clients should back off
/// briefly and retry rather than treat the error as terminal. Other
/// statuses advertise it only when the caller passes `retry_after` (the
/// service sets it on transient refusals like budget 413s with no
/// degradation ladder to absorb them).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
    retry_after: bool,
) -> io::Result<()> {
    let reason = reason_phrase(status);
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let retry_after = if status == 503 || retry_after { "retry-after: 1\r\n" } else { "" };
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {connection}\r\n{retry_after}\r\n",
        body.len()
    );
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Reason phrase for the handful of statuses the service emits.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Clips untrusted text for inclusion in an error message.
fn clip(text: &str) -> String {
    const MAX: usize = 64;
    if text.len() <= MAX {
        text.to_string()
    } else {
        let mut end = MAX;
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &text[..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Spins up a loopback socket pair: (client writes, server reads).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn send_and_read(raw: &[u8], max_body: u64) -> Result<Request, ReadError> {
        let (mut client, mut server) = pair();
        client.write_all(raw).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        read_request(&mut server, max_body)
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw =
            b"POST /compile?deadline_ms=250 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = send_and_read(raw, 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/compile");
        assert_eq!(req.query_param("deadline_ms"), Some("250"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive());
    }

    #[test]
    fn connection_close_is_honoured() {
        let raw = b"GET /status HTTP/1.1\r\nConnection: close\r\n\r\n";
        let req = send_and_read(raw, 0).unwrap();
        assert_eq!(req.method, "GET");
        assert!(!req.keep_alive());
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_body_is_rejected_before_reading_it() {
        let raw = b"POST /compile HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        match send_and_read(raw, 100) {
            Err(ReadError::BodyTooLarge { declared: 999999, limit: 100 }) => {}
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn garbage_is_malformed_not_a_panic() {
        for raw in [
            b"not http at all\r\n\r\n".as_slice(),
            b"GET\r\n\r\n".as_slice(),
            b"GET / HTTP/2\r\n\r\n".as_slice(),
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n".as_slice(),
            b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n".as_slice(),
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".as_slice(),
            b"\xff\xfe HTTP/1.1\r\n\r\n".as_slice(),
        ] {
            match send_and_read(raw, 1024) {
                Err(ReadError::Malformed(_)) => {}
                other => panic!("expected Malformed for {raw:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn immediate_close_reads_as_closed() {
        let (client, mut server) = pair();
        drop(client);
        match read_request(&mut server, 1024) {
            Err(ReadError::Closed) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_header_spam_is_cut_off() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..1000 {
            raw.extend_from_slice(format!("x-h{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        match send_and_read(&raw, 1024) {
            Err(ReadError::Malformed(detail)) => {
                assert!(detail.contains("headers") || detail.contains("head"), "{detail}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn response_writer_emits_parseable_http() {
        let (mut client, mut server) = pair();
        write_response(&mut server, 200, "{\"ok\":true}", true, false).unwrap();
        drop(server);
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11\r\n"), "{text}");
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
    }

    #[test]
    fn load_shed_responses_carry_retry_after() {
        let (mut client, mut server) = pair();
        write_response(&mut server, 503, "{}", false, false).unwrap();
        drop(server);
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        assert!(text.contains("retry-after: 1\r\n"), "{text}");
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");

        let (mut client, mut server) = pair();
        write_response(&mut server, 200, "{}", false, false).unwrap();
        drop(server);
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        assert!(!text.contains("retry-after"), "non-503 must not advertise a retry: {text}");

        // An explicit retry_after adds the header on any status.
        let (mut client, mut server) = pair();
        write_response(&mut server, 413, "{}", false, true).unwrap();
        drop(server);
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        assert!(text.contains("retry-after: 1\r\n"), "{text}");
    }
}
