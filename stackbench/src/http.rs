//! The load generator's HTTP/1.1 client: one request per connection,
//! matching the gateway, which answers every request with
//! `Connection: close`.
//!
//! Requests carry no `Expect: 100-continue` header. curl adds one to
//! large uploads and then waits about a second for an interim response
//! the gateway never sends, so a benchmark that sent it would time that
//! stall instead of the service.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long a client waits on a silent socket before giving up.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

/// Incremental response parser: bytes go in as the socket delivers
/// them, in chunks of any size, and the response is complete once the
/// header block and `Content-Length` body bytes have arrived.
#[derive(Debug, Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
    head: Option<Head>,
}

#[derive(Debug)]
struct Head {
    status: u16,
    body_start: usize,
    body_len: usize,
}

impl ResponseReader {
    /// Appends received bytes. Returns the response once it is
    /// complete; `Ok(None)` while more bytes are needed.
    ///
    /// # Errors
    ///
    /// A malformed status line or header block.
    pub fn push(&mut self, bytes: &[u8]) -> Result<Option<Response>, String> {
        self.buf.extend_from_slice(bytes);
        if self.head.is_none() {
            let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
                return Ok(None);
            };
            self.head = Some(parse_head(&self.buf[..end], end + 4)?);
        }
        let head = self.head.as_ref().expect("head parsed above");
        if self.buf.len() < head.body_start + head.body_len {
            return Ok(None);
        }
        let head = self.head.take().expect("head parsed above");
        let body = self.buf[head.body_start..head.body_start + head.body_len].to_vec();
        Ok(Some(Response {
            status: head.status,
            body,
        }))
    }
}

fn parse_head(raw: &[u8], body_start: usize) -> Result<Head, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "response head is not UTF-8".to_owned())?;
    let mut lines = text.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| format!("bad status line '{status_line}'"))?,
        _ => return Err(format!("bad status line '{status_line}'")),
    };
    let mut body_len = None;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line '{line}'"))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            let value = value.trim();
            body_len = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| format!("bad Content-Length '{value}'"))?,
            );
        }
    }
    Ok(Head {
        status,
        body_start,
        body_len: body_len.ok_or("response has no Content-Length")?,
    })
}

/// A complete `POST /v1/jobs` request for `body` (the open-request JSON
/// line followed by the clip's PPM frames). Built once per clip and
/// reused for every submission.
pub fn job_request(body: &[u8]) -> Vec<u8> {
    let mut request = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: perf-stack\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    request
}

/// A complete bodiless request.
pub fn bare_request(method: &str, path: &str) -> Vec<u8> {
    let length = if method == "POST" {
        "Content-Length: 0\r\n"
    } else {
        ""
    };
    format!("{method} {path} HTTP/1.1\r\nHost: perf-stack\r\n{length}\r\n").into_bytes()
}

/// Sends one request over a fresh connection and reads the response.
///
/// # Errors
///
/// Connect, write or read failures and malformed responses, as text.
pub fn exchange(hostport: &str, request: &[u8]) -> Result<Response, String> {
    let mut sock = TcpStream::connect(hostport).map_err(|e| format!("connect {hostport}: {e}"))?;
    sock.set_nodelay(true).map_err(|e| e.to_string())?;
    sock.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    sock.set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    sock.write_all(request)
        .map_err(|e| format!("send to {hostport}: {e}"))?;
    let mut reader = ResponseReader::default();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let n = sock
            .read(&mut chunk)
            .map_err(|e| format!("read from {hostport}: {e}"))?;
        if n == 0 {
            return Err(format!("{hostport} closed before a full response"));
        }
        if let Some(response) = reader.push(&chunk[..n])? {
            return Ok(response);
        }
    }
}

/// The job id in a `202` submit reply (`{"job":7,"state":"running"}`).
pub fn job_id(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.split("\"job\":").nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
          Connection: close\r\n\r\n{\"a\":[1,2]}"
            .to_vec()
    }

    fn expected() -> Response {
        Response {
            status: 200,
            body: b"{\"a\":[1,2]}".to_vec(),
        }
    }

    /// Feeds `raw` split at `cuts` and returns what the reader made of it.
    fn parse_split(raw: &[u8], cuts: &[usize]) -> Response {
        let mut reader = ResponseReader::default();
        let mut from = 0;
        let mut out = None;
        for &cut in cuts.iter().chain(std::iter::once(&raw.len())) {
            let got = reader.push(&raw[from..cut]).unwrap();
            if cut < raw.len() {
                assert!(got.is_none(), "complete before the last byte (cut {cut})");
            }
            out = out.or(got);
            from = cut;
        }
        out.expect("complete after the last byte")
    }

    #[test]
    fn every_single_and_double_split_parses_identically() {
        let raw = sample();
        for a in 0..=raw.len() {
            assert_eq!(parse_split(&raw, &[a]), expected(), "split at {a}");
            for b in a..=raw.len() {
                assert_eq!(parse_split(&raw, &[a, b]), expected(), "split at {a},{b}");
            }
        }
    }

    #[test]
    fn byte_at_a_time_parses() {
        let raw = sample();
        let cuts: Vec<usize> = (1..raw.len()).collect();
        assert_eq!(parse_split(&raw, &cuts), expected());
    }

    #[test]
    fn bad_responses_are_errors() {
        let mut reader = ResponseReader::default();
        assert!(reader.push(b"garbage\r\n\r\n").is_err());
        let mut reader = ResponseReader::default();
        assert!(reader.push(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        let mut reader = ResponseReader::default();
        assert!(reader
            .push(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n")
            .is_err());
    }

    #[test]
    fn requests_never_ask_for_100_continue() {
        let request = String::from_utf8(job_request(b"{}\nP6")).unwrap();
        assert!(request.starts_with("POST /v1/jobs HTTP/1.1\r\n"));
        assert!(request.contains("Content-Length: 5\r\n"));
        assert!(!request.to_ascii_lowercase().contains("expect"));
        assert!(request.ends_with("\r\n\r\n{}\nP6"));
        assert_eq!(
            bare_request("POST", "/v1/drain"),
            b"POST /v1/drain HTTP/1.1\r\nHost: perf-stack\r\nContent-Length: 0\r\n\r\n"
        );
    }

    #[test]
    fn job_ids_parse_from_submit_replies() {
        assert_eq!(job_id(b"{\"job\":42,\"state\":\"running\"}\n"), Some(42));
        assert_eq!(job_id(b"{\"state\":\"running\"}"), None);
    }
}
