//! A blocking, single-threaded `slj-wire/1` client: the library behind
//! `slj submit`, and the daemon's reference consumer in the loopback
//! chaos suite.
//!
//! The client is deliberately lockstep: every `FRAME` waits for its
//! `FRAME_ACK` before the next is sent, retrying (bounded, with a
//! short sleep) while the daemon replies `Overloaded`. Interleaved
//! `EVENT` lines are collected as they arrive, whatever the client is
//! waiting for.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

use slj_video::Frame;

use crate::addr::Addr;
use crate::engine::OpenRequest;
use crate::server::Stream;
use crate::wire::{
    encode_open_clip_head, encode_to_vec, AckStatus, Decoder, WireError, WireMsg, WIRE_SCHEMA,
};

/// Client-side failures, each naming what the caller can do about it.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level trouble (connect, read, write, EOF mid-reply).
    Io(std::io::Error),
    /// The server's bytes broke `slj-wire/1` framing.
    Wire(WireError),
    /// The server refused the HELLO (version skew).
    Handshake {
        /// What the server said.
        message: String,
    },
    /// The server refused an `OPEN` (draining, at capacity, or a
    /// config the analyzer rejected).
    Rejected {
        /// The server's reason.
        reason: String,
    },
    /// The server disconnected us with a typed `ERROR`.
    Server {
        /// The wire error code (see [`crate::wire::codes`]).
        code: u16,
        /// The server's message.
        message: String,
    },
    /// The session ended in a server-side failure instead of an
    /// analysis.
    SessionFailed {
        /// The server's rendering of the analyzer/supervisor error.
        error: String,
    },
    /// The daemon stayed `Overloaded` through every retry.
    Saturated {
        /// Offers attempted for the frame.
        attempts: u32,
    },
    /// The server sent a message that makes no sense in this state.
    Protocol {
        /// What arrived.
        got: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Wire(e) => write!(f, "server broke framing: {e}"),
            ClientError::Handshake { message } => write!(f, "handshake refused: {message}"),
            ClientError::Rejected { reason } => write!(f, "session refused: {reason}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::SessionFailed { error } => write!(f, "session failed: {error}"),
            ClientError::Saturated { attempts } => {
                write!(f, "daemon overloaded after {attempts} offers")
            }
            ClientError::Protocol { got } => write!(f, "unexpected server message: {got}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Knobs for a [`Client`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Socket read timeout (also the reply-wait granularity).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// How many times to re-offer a frame the daemon sheds with
    /// `Overloaded` before giving up.
    pub max_offer_retries: u32,
    /// Sleep between re-offers.
    pub retry_backoff: Duration,
    /// Wire-frame bound for server replies.
    pub max_frame: usize,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(10),
            max_offer_retries: 10_000,
            retry_backoff: Duration::from_millis(1),
            max_frame: crate::wire::DEFAULT_MAX_FRAME,
        }
    }
}

/// What a finished session hands back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteAnalysis {
    /// The session's daemon-side id.
    pub session: u64,
    /// The pretty-printed `AnalysisSummary` JSON — byte-identical to
    /// `slj analyze --stream --report` on the same clip.
    pub summary_json: String,
    /// The session's `slj-trace/1` JSONL (empty unless the `OPEN`
    /// asked for it).
    pub trace_jsonl: String,
    /// Every `slj-serve/1` health-event line streamed for this session,
    /// in arrival order.
    pub events: Vec<String>,
}

/// A connected, HELLO-negotiated `slj-wire/1` client.
pub struct Client {
    stream: Stream,
    decoder: Decoder,
    options: ClientOptions,
    /// Health-event lines that arrived while waiting for something
    /// else, keyed by session.
    pending_events: Vec<(u64, String)>,
}

impl Client {
    /// Connects and performs the HELLO handshake.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on connect failure, [`ClientError::Handshake`]
    /// on version skew.
    pub fn connect(addr: &Addr, options: ClientOptions) -> Result<Client, ClientError> {
        let stream = match addr {
            Addr::Tcp(hostport) => Stream::Tcp(TcpStream::connect(hostport.as_str())?),
            Addr::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
        };
        stream.set_read_timeout(Some(options.read_timeout))?;
        stream.set_write_timeout(Some(options.write_timeout))?;
        let mut client = Client {
            stream,
            decoder: Decoder::new(options.max_frame),
            options,
            pending_events: Vec::new(),
        };
        client.send(&WireMsg::Hello {
            proto: WIRE_SCHEMA.to_owned(),
        })?;
        match client.recv()? {
            WireMsg::HelloOk { proto } if proto == WIRE_SCHEMA => Ok(client),
            WireMsg::HelloOk { proto } => Err(ClientError::Handshake {
                message: format!("server speaks {proto}"),
            }),
            WireMsg::Error { message, .. } => Err(ClientError::Handshake { message }),
            other => Err(ClientError::Protocol {
                got: other.name().to_owned(),
            }),
        }
    }

    /// The negotiated protocol tag (always [`WIRE_SCHEMA`] once
    /// connected).
    pub fn proto(&self) -> &'static str {
        WIRE_SCHEMA
    }

    fn send(&mut self, msg: &WireMsg) -> Result<(), ClientError> {
        let bytes = encode_to_vec(msg);
        self.stream.write_all(&bytes)?;
        Ok(())
    }

    /// Blocks until one message arrives (riding out read timeouts).
    fn recv(&mut self) -> Result<WireMsg, ClientError> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(msg) = self.decoder.next_msg()? {
                return Ok(msg);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Ok(n) => self.decoder.push(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Receives until `want` says "this is the one", stashing EVENT
    /// lines and surfacing typed errors.
    fn recv_until<T>(
        &mut self,
        mut want: impl FnMut(WireMsg) -> Result<Option<T>, ClientError>,
    ) -> Result<T, ClientError> {
        loop {
            match self.recv()? {
                WireMsg::Event { session, line } => self.pending_events.push((session, line)),
                WireMsg::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                msg => {
                    if let Some(found) = want(msg)? {
                        return Ok(found);
                    }
                }
            }
        }
    }

    /// Opens a session.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] when the daemon refuses (draining or
    /// full), plus the transport errors.
    pub fn open(&mut self, request: &OpenRequest) -> Result<u64, ClientError> {
        let config_json = serde_json::to_string(request).expect("open request serialises");
        self.send(&WireMsg::Open { config_json })?;
        self.recv_until(|msg| match msg {
            WireMsg::Opened { session } => Ok(Some(session)),
            WireMsg::Rejected { reason } => Err(ClientError::Rejected { reason }),
            other => Err(ClientError::Protocol {
                got: other.name().to_owned(),
            }),
        })
    }

    /// Sends one frame and waits for its ack, re-offering (bounded)
    /// while the daemon sheds with `Overloaded`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Saturated`] when every retry was shed;
    /// [`ClientError::SessionFailed`] if the session went terminal
    /// mid-stream; plus the transport errors.
    pub fn send_frame(&mut self, session: u64, frame: &Frame) -> Result<u64, ClientError> {
        let (width, height) = frame.dims();
        let mut rgb = Vec::with_capacity(width * height * 3);
        for px in frame.as_slice() {
            rgb.extend_from_slice(&[px.r, px.g, px.b]);
        }
        let msg = WireMsg::Frame {
            session,
            width: width as u32,
            height: height as u32,
            rgb,
        };
        let mut attempts = 0;
        loop {
            attempts += 1;
            self.send(&msg)?;
            let ack = self.recv_until(|m| match m {
                WireMsg::FrameAck {
                    session: s,
                    ordinal,
                    status,
                    ..
                } if s == session => Ok(Some((ordinal, status))),
                WireMsg::Failed { session: s, error } if s == session => {
                    Err(ClientError::SessionFailed { error })
                }
                other => Err(ClientError::Protocol {
                    got: other.name().to_owned(),
                }),
            })?;
            match ack {
                (ordinal, AckStatus::Accepted) => return Ok(ordinal),
                (_, AckStatus::Overloaded) => {
                    if attempts > self.options.max_offer_retries {
                        return Err(ClientError::Saturated { attempts });
                    }
                    std::thread::sleep(self.options.retry_backoff);
                }
            }
        }
    }

    /// Declares the clip complete and waits for the final analysis.
    ///
    /// # Errors
    ///
    /// [`ClientError::SessionFailed`] when the session ended in a
    /// typed failure or quarantine; plus the transport errors.
    pub fn flush(&mut self, session: u64) -> Result<RemoteAnalysis, ClientError> {
        self.send(&WireMsg::Flush { session })?;
        let (summary_json, trace_jsonl) = self.recv_until(|msg| match msg {
            WireMsg::Analysis {
                session: s,
                summary_json,
                trace_jsonl,
            } if s == session => Ok(Some((summary_json, trace_jsonl))),
            WireMsg::Failed { session: s, error } if s == session => {
                Err(ClientError::SessionFailed { error })
            }
            // Acks for frames the ack-wait loop already consumed
            // cannot appear (lockstep), so anything else is protocol.
            other => Err(ClientError::Protocol {
                got: other.name().to_owned(),
            }),
        })?;
        let mut events = Vec::new();
        self.pending_events.retain(|(s, line)| {
            if *s == session {
                events.push(line.clone());
                false
            } else {
                true
            }
        });
        Ok(RemoteAnalysis {
            session,
            summary_json,
            trace_jsonl,
            events,
        })
    }

    /// Runs a whole clip through one session: open, stream every
    /// frame, flush.
    ///
    /// # Errors
    ///
    /// Every error [`Client::open`], [`Client::send_frame`] and
    /// [`Client::flush`] can produce.
    pub fn analyze_clip(
        &mut self,
        request: &OpenRequest,
        frames: &[Frame],
    ) -> Result<RemoteAnalysis, ClientError> {
        let session = self.open(request)?;
        for frame in frames {
            self.send_frame(session, frame)?;
        }
        self.flush(session)
    }

    /// Opens a session *and* ships the whole clip in one `OPEN_CLIP`
    /// message — the clip as concatenated P6 PPM frames, decoded and
    /// fed daemon-side — then waits for the terminal analysis. The
    /// daemon validates the clip before admitting the session, so a
    /// malformed clip is a [`ClientError::Rejected`] with no session
    /// ever opened.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] (draining, full, or a clip that does
    /// not decode), [`ClientError::SessionFailed`], plus the transport
    /// errors.
    pub fn analyze_clip_ppm(
        &mut self,
        request: &OpenRequest,
        ppm: impl AsRef<[u8]>,
    ) -> Result<RemoteAnalysis, ClientError> {
        let session = self.open_clip(request, ppm)?;
        self.await_result(session)
    }

    /// Sends one `OPEN_CLIP` and waits only for the admission verdict;
    /// the daemon feeds the frames itself and the terminal reply comes
    /// later (see [`Client::await_result`]). The split lets a front end
    /// (the HTTP gateway) acknowledge admission immediately while the
    /// analysis runs.
    ///
    /// The clip is written where it lies: the message head and `ppm` go
    /// out in one vectored write, with no copy of the clip. One write,
    /// not two, so a TCP connection never holds the clip back behind
    /// Nagle's algorithm waiting for the head's delayed ACK.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] when the daemon refuses (draining,
    /// full, or a clip that does not decode), plus the transport
    /// errors.
    pub fn open_clip(
        &mut self,
        request: &OpenRequest,
        ppm: impl AsRef<[u8]>,
    ) -> Result<u64, ClientError> {
        let ppm = ppm.as_ref();
        let config_json = serde_json::to_string(request).expect("open request serialises");
        let mut head = Vec::new();
        encode_open_clip_head(&config_json, ppm.len(), &mut head)?;
        write_all_vectored(&mut self.stream, [IoSlice::new(&head), IoSlice::new(ppm)])?;
        self.recv_until(|msg| match msg {
            WireMsg::Opened { session } => Ok(Some(session)),
            WireMsg::Rejected { reason } => Err(ClientError::Rejected { reason }),
            other => Err(ClientError::Protocol {
                got: other.name().to_owned(),
            }),
        })
    }

    /// Blocks until `session`'s terminal reply arrives, collecting
    /// interleaved events.
    ///
    /// # Errors
    ///
    /// [`ClientError::SessionFailed`] when the session ended in a typed
    /// failure or quarantine; plus the transport errors.
    pub fn await_result(&mut self, session: u64) -> Result<RemoteAnalysis, ClientError> {
        let (summary_json, trace_jsonl) = self.recv_until(|msg| match msg {
            WireMsg::Analysis {
                session: s,
                summary_json,
                trace_jsonl,
            } if s == session => Ok(Some((summary_json, trace_jsonl))),
            WireMsg::Failed { session: s, error } if s == session => {
                Err(ClientError::SessionFailed { error })
            }
            other => Err(ClientError::Protocol {
                got: other.name().to_owned(),
            }),
        })?;
        let events = self.take_events(session);
        Ok(RemoteAnalysis {
            session,
            summary_json,
            trace_jsonl,
            events,
        })
    }

    /// Abandons a session (its slot recycles server-side; no terminal
    /// reply will come).
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn retire(&mut self, session: u64) -> Result<(), ClientError> {
        self.send(&WireMsg::Retire { session })
    }

    /// Asks the daemon to drain: finish in-flight sessions, refuse new
    /// opens, shut down. Returns the number of sessions still in
    /// flight.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ClientError::Protocol`] on a non-drain
    /// reply.
    pub fn drain(&mut self) -> Result<u64, ClientError> {
        self.send(&WireMsg::Drain)?;
        self.recv_until(|msg| match msg {
            WireMsg::Draining { in_flight } => Ok(Some(in_flight)),
            other => Err(ClientError::Protocol {
                got: other.name().to_owned(),
            }),
        })
    }

    /// Health-event lines received so far for `session` (drained).
    pub fn take_events(&mut self, session: u64) -> Vec<String> {
        let mut events = Vec::new();
        self.pending_events.retain(|(s, line)| {
            if *s == session {
                events.push(line.clone());
                false
            } else {
                true
            }
        });
        events
    }

    /// Raw access for tests that need to misbehave on purpose (torn
    /// prefixes, mid-frame disconnects).
    #[doc(hidden)]
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Raw receive for tests that read out of lockstep (slow readers,
    /// stalled connections waiting for the daemon's verdict).
    ///
    /// # Errors
    ///
    /// The transport errors; unlike the lockstep calls, a server
    /// `ERROR` is returned as the [`WireMsg`], not mapped.
    #[doc(hidden)]
    pub fn recv_raw(&mut self) -> Result<WireMsg, ClientError> {
        self.recv()
    }

    /// Errors-with-code helper for tests: `true` when the error is a
    /// typed server disconnect with `code`.
    pub fn is_server_error(err: &ClientError, code: u16) -> bool {
        matches!(err, ClientError::Server { code: c, .. } if *c == code)
    }
}

/// Writes every byte of `bufs`, in order, with as few `writev` calls as
/// the socket allows.
fn write_all_vectored<const N: usize>(
    w: &mut impl Write,
    mut bufs: [IoSlice<'_>; N],
) -> std::io::Result<()> {
    let mut bufs = &mut bufs[..];
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Convenience for operators: dial, drain, hang up.
///
/// # Errors
///
/// Every [`Client::connect`] / [`Client::drain`] error.
pub fn drain_daemon(addr: &Addr) -> Result<u64, ClientError> {
    let mut client = Client::connect(addr, ClientOptions::default())?;
    client.drain()
}
