//! Property tests for the gateway's HTTP request reader, the parser
//! every upload crosses first.
//!
//! `read_request` runs over a Unix socketpair whose other end a second
//! thread writes in arbitrary pieces. The contract: the split never
//! changes the parsed request; each malformed shape maps to its typed
//! [`HttpError`] and status (header cap `431`, missing length `411`,
//! bad length `400`, non-UTF-8 head `400`); a length over the limit is
//! `413` before any body byte is read, with no `100 Continue`; and a
//! request that asks for `100 Continue` gets it once its head passes.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use proptest::prelude::*;
use slj_daemon::Stream;
use slj_gateway::http::{read_request, HttpError, Limits, Request};

const LIMITS: Limits = Limits {
    max_header: 1024,
    max_body: 4096,
};

const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// Writes `bytes` into a socketpair in pieces cycling through `sizes`,
/// from a second thread that then reads everything the server side
/// sends back until it closes. Returns the parse and those bytes.
fn read_split(bytes: &[u8], sizes: &[usize]) -> (Result<Request, HttpError>, Vec<u8>) {
    let (mut client, server) = UnixStream::pair().unwrap();
    let mut server = Stream::Unix(server);
    // A reader that waited for bytes that never come would fail the
    // case as a timeout instead of hanging it.
    server
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let mut offset = 0;
            for &size in sizes.iter().cycle() {
                if offset == bytes.len() {
                    break;
                }
                let end = (offset + size).min(bytes.len());
                if client.write_all(&bytes[offset..end]).is_err() {
                    break; // the reader already answered and hung up
                }
                offset = end;
            }
            let mut back = Vec::new();
            let _ = client.read_to_end(&mut back);
            back
        });
        let parsed = read_request(&mut server, &LIMITS);
        server.shutdown();
        (parsed, writer.join().unwrap())
    })
}

/// A well-formed request and the parse it must produce.
#[derive(Debug, Clone)]
struct Case {
    bytes: Vec<u8>,
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    expects_continue: bool,
}

fn token(alphabet: &'static [u8], len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    proptest::collection::vec(0..alphabet.len(), len)
        .prop_map(move |ix| ix.into_iter().map(|i| alphabet[i] as char).collect())
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        0usize..4,
        token(b"abcdefghijklmnopqrstuvwxyz0123456789/-_.?=&", 0..24),
        proptest::collection::vec(
            (
                token(
                    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-",
                    1..12,
                ),
                token(b"abcXYZ019 :;,./=*\"'", 0..30),
                0usize..3,
            ),
            0..6,
        ),
        proptest::collection::vec(any::<u8>(), 0..600),
        any::<bool>(),
    )
        .prop_map(|(method, path, raw_headers, body, expects_continue)| {
            let method = ["GET", "POST", "PUT", "DELETE"][method].to_owned();
            let path = format!("/{path}");
            let mut head = format!("{method} {path} HTTP/1.1\r\n");
            let mut headers = Vec::new();
            for (name, value, pad) in raw_headers {
                // Names cannot collide with the two the reader acts on.
                let name = format!("X-{name}");
                let value = value.trim().to_owned();
                head.push_str(&format!(
                    "{name}:{}{value}{}\r\n",
                    " ".repeat(pad),
                    " ".repeat(pad)
                ));
                headers.push((name.to_ascii_lowercase(), value));
            }
            if expects_continue {
                head.push_str("Expect: 100-continue\r\n");
                headers.push(("expect".to_owned(), "100-continue".to_owned()));
            }
            head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
            headers.push(("content-length".to_owned(), body.len().to_string()));
            let mut bytes = head.into_bytes();
            bytes.extend_from_slice(&body);
            Case {
                bytes,
                method,
                path,
                headers,
                body,
                expects_continue,
            }
        })
}

/// The refusal of a malformed request and the status it answers with.
fn refusal(parsed: Result<Request, HttpError>) -> (HttpError, u16) {
    match parsed {
        Ok(request) => panic!("parsed a malformed request: {request:?}"),
        Err(err) => {
            let status = err.status().map_or(0, |(status, _)| status);
            (err, status)
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_write_splits_give_the_same_request(
        case in case_strategy(),
        sizes in proptest::collection::vec(1usize..64, 1..10),
    ) {
        for sizes in [&sizes[..], &[1][..], &[case.bytes.len()][..]] {
            let (parsed, back) = read_split(&case.bytes, sizes);
            let request = parsed.unwrap_or_else(|e| panic!("{e:?} for {case:?}"));
            prop_assert_eq!(&request.method, &case.method);
            prop_assert_eq!(&request.path, &case.path);
            prop_assert_eq!(&request.headers, &case.headers);
            prop_assert_eq!(&request.body, &case.body);
            let interim: &[u8] = if case.expects_continue { CONTINUE } else { b"" };
            prop_assert_eq!(back, interim.to_vec());
        }
    }

    #[test]
    fn malformed_shapes_map_to_their_status(
        case in case_strategy(),
        sizes in proptest::collection::vec(1usize..64, 1..10),
        pick in any::<(usize, u16)>(),
    ) {
        let head_end = case.bytes.len() - case.body.len();
        let request_line = format!("{} {} HTTP/1.1\r\n", case.method, case.path);

        // Header cap: one header line that alone passes the limit.
        let mut big = request_line.into_bytes();
        big.extend_from_slice(b"X-Big: ");
        big.extend(std::iter::repeat_n(b'a', LIMITS.max_header + 1 + pick.0 % 2000));
        big.extend_from_slice(b"\r\n\r\n");
        let (err, status) = refusal(read_split(&big, &sizes).0);
        prop_assert!(matches!(err, HttpError::HeadersTooLarge), "{:?}", err);
        prop_assert_eq!(status, 431);

        // A body-bearing method with no Content-Length.
        let method = ["POST", "PUT"][pick.0 % 2];
        let missing = format!("{method} {} HTTP/1.1\r\nHost: gw\r\n\r\n", case.path);
        let (err, status) = refusal(read_split(missing.as_bytes(), &sizes).0);
        prop_assert!(matches!(err, HttpError::LengthRequired), "{:?}", err);
        prop_assert_eq!(status, 411);

        // A Content-Length that is not a length.
        let bad = ["abc", "-1", "1.5", "12a", "", "0x10"][pick.0 % 6];
        let request = format!("POST {} HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n", case.path);
        let (err, status) = refusal(read_split(request.as_bytes(), &sizes).0);
        prop_assert!(matches!(err, HttpError::Malformed(_)), "{:?}", err);
        prop_assert_eq!(status, 400);

        // Over the limit: refused from the head alone — the writer sends
        // no body and keeps the socket open, so a reader that waited for
        // the body would time out — and never told to continue.
        let declared = LIMITS.max_body + 1 + pick.1 as usize;
        let request = format!(
            "POST {} HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: {declared}\r\n\r\n",
            case.path
        );
        let (parsed, back) = read_split(request.as_bytes(), &sizes);
        let (err, status) = refusal(parsed);
        let over_limit = matches!(
            err,
            HttpError::BodyTooLarge { declared: d, max } if d == declared && max == LIMITS.max_body
        );
        prop_assert!(over_limit, "{:?}", err);
        prop_assert_eq!(status, 413);
        prop_assert_eq!(back, Vec::<u8>::new());

        // A head that is not UTF-8, wherever the bad byte lands in it.
        let mut bytes = case.bytes.clone();
        bytes[pick.0 % (head_end - 4)] = 0xFF;
        let (err, status) = refusal(read_split(&bytes, &sizes).0);
        prop_assert!(matches!(err, HttpError::Malformed(_)), "{:?}", err);
        prop_assert_eq!(status, 400);
    }
}
