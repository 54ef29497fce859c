//! A deliberately small HTTP/1.1 server side: request reading with hard
//! caps and deadlines, response writing with `Connection: close`.
//!
//! The gateway serves one request per connection — no keep-alive, no
//! chunked transfer, no pipelining. That is not laziness but the
//! robustness posture: every connection's worst case is one bounded
//! read (header cap + declared body) under a socket deadline, so a
//! slowloris or a stalled upload costs one thread for at most the
//! configured timeout and is then reaped with a typed status.

use std::io::{self, ErrorKind, Read, Write};

use slj_daemon::Stream;

/// Caps applied while reading a request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_header: usize,
    /// Maximum declared `Content-Length`.
    pub max_body: usize,
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token as received (`GET`, `POST`, ...).
    pub method: String,
    /// The request target, query string included.
    pub path: String,
    /// Header names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Every variant maps to one response
/// status (or to silence, when the peer is already gone).
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed or the socket died before a full request; there
    /// is nobody to answer.
    Disconnected,
    /// The socket deadline expired mid-request (slowloris, stalled
    /// upload): `408 Request Timeout`.
    Timeout,
    /// Request line + headers exceeded the cap: `431`.
    HeadersTooLarge,
    /// The request does not parse as HTTP/1.x: `400`.
    Malformed(String),
    /// A body-bearing request without `Content-Length`: `411`.
    LengthRequired,
    /// Declared body over the cap: `413`.
    BodyTooLarge { declared: usize, max: usize },
}

impl HttpError {
    /// The status line this error answers with, or `None` when the
    /// connection is already dead.
    pub fn status(&self) -> Option<(u16, String)> {
        match self {
            HttpError::Disconnected => None,
            HttpError::Timeout => Some((408, "request timed out".to_owned())),
            HttpError::HeadersTooLarge => Some((431, "request headers too large".to_owned())),
            HttpError::Malformed(why) => Some((400, format!("malformed request: {why}"))),
            HttpError::LengthRequired => {
                Some((411, "POST requires a Content-Length header".to_owned()))
            }
            HttpError::BodyTooLarge { declared, max } => Some((
                413,
                format!("body of {declared} bytes exceeds the {max}-byte limit"),
            )),
        }
    }
}

fn io_kind(e: &io::Error) -> HttpError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Disconnected,
    }
}

/// Reads one full request under the socket's deadlines and `limits`.
///
/// Once the head passes (a known `Content-Length` within
/// `limits.max_body`), a request carrying `Expect: 100-continue` is
/// answered `100 Continue` before its body is read. The body is read
/// straight into one buffer of exactly the declared length.
///
/// # Errors
///
/// A typed [`HttpError`]; see each variant for the status it maps to.
pub fn read_request(stream: &mut Stream, limits: &Limits) -> Result<Request, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 8 * 1024];
    // Phase 1: accumulate until the blank line ends the header block.
    let header_end = loop {
        if let Some(at) = find_blank_line(&buf) {
            break at;
        }
        if buf.len() > limits.max_header {
            return Err(HttpError::HeadersTooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Disconnected),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(io_kind(&e)),
        }
    };
    if header_end > limits.max_header {
        return Err(HttpError::HeadersTooLarge);
    }
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| HttpError::Malformed("headers are not UTF-8".to_owned()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_owned(), p.to_owned(), v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line '{request_line}'"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported {version}")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line '{line}'")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    // Phase 2: the body, exactly Content-Length bytes. Anything the
    // header read over-fetched is the body's prefix.
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad Content-Length '{v}'")))
        })
        .transpose()?;
    let declared = match content_length {
        Some(n) => n,
        None if method == "POST" || method == "PUT" => return Err(HttpError::LengthRequired),
        None => 0,
    };
    if declared > limits.max_body {
        return Err(HttpError::BodyTooLarge {
            declared,
            max: limits.max_body,
        });
    }
    // A client that asked to be told (curl does, for large uploads)
    // holds the body back until it hears the head has passed.
    let expects_continue = headers
        .iter()
        .any(|(k, v)| k == "expect" && v.eq_ignore_ascii_case("100-continue"));
    if expects_continue {
        stream
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .map_err(|_| HttpError::Disconnected)?;
    }
    // One buffer of exactly the declared size, read into directly.
    let mut body = Vec::with_capacity(declared);
    let over_fetched = &buf[header_end + 4..];
    body.extend_from_slice(&over_fetched[..over_fetched.len().min(declared)]);
    let missing = (declared - body.len()) as u64;
    match stream.take(missing).read_to_end(&mut body) {
        Ok(_) if body.len() == declared => {}
        Ok(_) => return Err(HttpError::Disconnected),
        Err(e) => return Err(io_kind(&e)),
    }
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The canonical reason phrase for the statuses the gateway emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete response and leaves the connection to be
/// closed by the caller (every response carries `Connection: close`).
///
/// # Errors
///
/// Any socket write failure, including an expired write deadline.
pub fn write_response(
    stream: &mut Stream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> io::Result<()> {
    let mut out = Vec::with_capacity(256 + body.len());
    out.extend_from_slice(format!("HTTP/1.1 {status} {}\r\n", reason(status)).as_bytes());
    out.extend_from_slice(format!("Content-Type: {content_type}\r\n").as_bytes());
    out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    out.extend_from_slice(b"Connection: close\r\n");
    for (name, value) in extra_headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    stream.write_all(&out)?;
    stream.flush()
}
