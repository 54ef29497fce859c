//! The `slj-wire/1` binary wire protocol: message types, the encoder,
//! and an incremental, bounded decoder.
//!
//! Every message travels as one length-prefixed frame:
//!
//! ```text
//! frame   = len:u32be body          len = |body|, 1 ..= max_frame
//! body    = tag:u8 payload          fixed-width integers big-endian
//! string  = len:u32be utf8-bytes
//! ```
//!
//! The decoder is push-based (`push` bytes, `next` messages) so it is
//! agnostic to how the transport splits reads — a message torn across
//! any byte boundary decodes identically (property-tested). Bounds are
//! enforced *before* buffering: a declared length beyond `max_frame`
//! is rejected as soon as the 4-byte prefix is readable, so a
//! malicious peer cannot make the decoder allocate; a payload whose
//! fields end early or leave trailing bytes is a typed
//! [`WireError::Malformed`], never a panic.

use std::fmt;

/// Protocol identifier carried in HELLO / HELLO_OK.
pub const WIRE_SCHEMA: &str = "slj-wire/1";

/// The `OPEN_CLIP` tag: the one message whose body a receiver may
/// stream instead of buffering ([`Decoder::next_part`]).
const OPEN_CLIP_TAG: u8 = 0x11;

/// Default bound on one wire frame's body (tag + payload). Generous
/// enough for a 1080p RGB video frame (~6.2 MiB) plus headers.
pub const DEFAULT_MAX_FRAME: usize = 8 * 1024 * 1024;

/// Typed protocol-level error codes carried by [`WireMsg::Error`].
pub mod codes {
    /// The peer spoke a different protocol version.
    pub const VERSION_MISMATCH: u16 = 1;
    /// A frame was malformed (bad tag, short payload, trailing bytes).
    pub const MALFORMED: u16 = 2;
    /// A frame declared a length beyond the server's bound.
    pub const OVERSIZED: u16 = 3;
    /// A message referenced a session this connection does not own.
    pub const UNKNOWN_SESSION: u16 = 4;
    /// A message arrived in a state that cannot accept it (e.g. FRAME
    /// before OPEN, OPEN before HELLO).
    pub const BAD_STATE: u16 = 5;
    /// The connection exceeded its outbound must-deliver bound (it
    /// stopped reading replies while still sending work).
    pub const TOO_SLOW: u16 = 6;
    /// The connection sat idle past the reaping deadline.
    pub const IDLE: u16 = 7;
}

/// How an offered frame fared, on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckStatus {
    /// Queued for analysis.
    Accepted,
    /// Shed by the bounded queue (reject-newest); resend after a tick.
    Overloaded,
}

/// One `slj-wire/1` message. Client→server: `Hello`, `Open`, `Frame`,
/// `Flush`, `Retire`, `Drain`. Server→client: the rest.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Client greeting: protocol identifier for version negotiation.
    Hello {
        /// The client's protocol (must equal [`WIRE_SCHEMA`]).
        proto: String,
    },
    /// Server acceptance of the greeting.
    HelloOk {
        /// The server's protocol.
        proto: String,
    },
    /// Open a session; the payload is the JSON of an
    /// [`OpenRequest`](crate::OpenRequest).
    Open {
        /// Serialized open request.
        config_json: String,
    },
    /// The session is admitted.
    Opened {
        /// Server-assigned session id (echoed in every later message).
        session: u64,
    },
    /// The session was refused (capacity, draining, bad config).
    Rejected {
        /// Human-readable refusal.
        reason: String,
    },
    /// One video frame for a session (raw interleaved RGB).
    Frame {
        /// The session.
        session: u64,
        /// Frame width, pixels.
        width: u32,
        /// Frame height, pixels.
        height: u32,
        /// `3 * width * height` bytes, row-major RGB.
        rgb: Vec<u8>,
    },
    /// Synchronous backpressure reply to one `Frame`.
    FrameAck {
        /// The session.
        session: u64,
        /// The offer ordinal the frame consumed.
        ordinal: u64,
        /// Accepted or shed.
        status: AckStatus,
        /// Session queue depth after the offer.
        depth: u32,
    },
    /// The clip is complete; finish the analysis and reply with
    /// `Analysis` or `Failed`.
    Flush {
        /// The session.
        session: u64,
    },
    /// Abandon a session early (its slot is recycled without a result).
    Retire {
        /// The session.
        session: u64,
    },
    /// One supervisor health event, rendered as an `slj-serve/1` JSONL
    /// line. Best-effort: a slow reader may miss events (never
    /// replies).
    Event {
        /// The session observed.
        session: u64,
        /// The JSONL line (no trailing newline).
        line: String,
    },
    /// Terminal success: the finished analysis.
    Analysis {
        /// The session.
        session: u64,
        /// Pretty-printed `AnalysisSummary` JSON — byte-identical to
        /// `slj analyze --report` over the same clip and configuration.
        summary_json: String,
        /// The per-session `slj-trace/1` JSONL trace (empty when the
        /// client did not request it).
        trace_jsonl: String,
    },
    /// Terminal failure: the analyzer's typed error, rendered.
    Failed {
        /// The session.
        session: u64,
        /// The error text.
        error: String,
    },
    /// Protocol-level error. Fatal: the server closes the connection
    /// after sending it.
    Error {
        /// A [`codes`] constant.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Admin: ask the daemon to drain (finish in-flight sessions,
    /// refuse new opens, then exit).
    Drain,
    /// Drain acknowledged.
    Draining {
        /// Sessions still in flight.
        in_flight: u64,
    },
    /// The server is closing this connection cleanly.
    Bye,
    /// Open a session *and* submit the whole clip in one message: the
    /// open request plus the clip's frames as concatenated binary P6
    /// PPM images (exactly the bytes of the on-disk clip format's
    /// `frame_*.ppm` files, in order). The server decodes the clip
    /// *before* admitting a session — a malformed clip is `Rejected`
    /// with no session ever opened — then feeds the frames itself,
    /// pacing around its own backpressure, and replies `Opened`
    /// followed by the terminal `Analysis`/`Failed`. This is the
    /// ingestion path the HTTP gateway uses: clients ship the clip
    /// format, never raw RGB.
    ///
    /// The clip runs to the end of the body, so neither side needs it
    /// whole: a sender can write [`encode_open_clip_head`] and then
    /// clip bytes it already holds, and the daemon's reader takes the
    /// header with [`Decoder::next_part`] and decodes the PPM frames
    /// straight off the socket.
    OpenClip {
        /// Serialized open request (same JSON as `Open`). The open
        /// request's `fps` governs; per-frame timing is implicit.
        config_json: String,
        /// Concatenated P6 PPM frames, decoded server-side.
        ppm: Vec<u8>,
    },
}

impl WireMsg {
    /// The message's wire tag.
    pub fn tag(&self) -> u8 {
        match self {
            WireMsg::Hello { .. } => 0x01,
            WireMsg::HelloOk { .. } => 0x02,
            WireMsg::Open { .. } => 0x03,
            WireMsg::Opened { .. } => 0x04,
            WireMsg::Rejected { .. } => 0x05,
            WireMsg::Frame { .. } => 0x06,
            WireMsg::FrameAck { .. } => 0x07,
            WireMsg::Flush { .. } => 0x08,
            WireMsg::Event { .. } => 0x09,
            WireMsg::Analysis { .. } => 0x0A,
            WireMsg::Failed { .. } => 0x0B,
            WireMsg::Retire { .. } => 0x0C,
            WireMsg::Error { .. } => 0x0D,
            WireMsg::Drain => 0x0E,
            WireMsg::Draining { .. } => 0x0F,
            WireMsg::Bye => 0x10,
            WireMsg::OpenClip { .. } => OPEN_CLIP_TAG,
        }
    }

    /// A short human-readable name (logs and errors).
    pub fn name(&self) -> &'static str {
        match self {
            WireMsg::Hello { .. } => "HELLO",
            WireMsg::HelloOk { .. } => "HELLO_OK",
            WireMsg::Open { .. } => "OPEN",
            WireMsg::Opened { .. } => "OPENED",
            WireMsg::Rejected { .. } => "REJECTED",
            WireMsg::Frame { .. } => "FRAME",
            WireMsg::FrameAck { .. } => "FRAME_ACK",
            WireMsg::Flush { .. } => "FLUSH",
            WireMsg::Event { .. } => "EVENT",
            WireMsg::Analysis { .. } => "ANALYSIS",
            WireMsg::Failed { .. } => "FAILED",
            WireMsg::Retire { .. } => "RETIRE",
            WireMsg::Error { .. } => "ERROR",
            WireMsg::Drain => "DRAIN",
            WireMsg::Draining { .. } => "DRAINING",
            WireMsg::Bye => "BYE",
            WireMsg::OpenClip { .. } => "OPEN_CLIP",
        }
    }
}

/// Why a byte stream failed to decode. `Oversized` and `Malformed` are
/// fatal for the connection: framing is lost, so the only safe move is
/// a protocol [`WireMsg::Error`] and a close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The 4-byte prefix declared a body larger than the bound (or
    /// empty). Detected before any payload is buffered.
    Oversized {
        /// The declared body length.
        declared: usize,
        /// The decoder's bound.
        max: usize,
    },
    /// The body did not parse: unknown tag, fields ending early,
    /// trailing bytes, non-UTF-8 strings, or impossible field values.
    Malformed {
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Oversized { declared, max } => {
                write!(
                    f,
                    "oversized wire frame: {declared} bytes declared, max {max}"
                )
            }
            WireError::Malformed { detail } => write!(f, "malformed wire frame: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

fn malformed(detail: impl Into<String>) -> WireError {
    WireError::Malformed {
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------- encode

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends `msg` to `out` as one length-prefixed wire frame. The
/// buffer is the caller's so steady-state encoding reuses storage.
pub fn encode(msg: &WireMsg, out: &mut Vec<u8>) {
    let start = out.len();
    put_u32(out, 0); // length back-patched below
    out.push(msg.tag());
    match msg {
        WireMsg::Hello { proto } | WireMsg::HelloOk { proto } => put_str(out, proto),
        WireMsg::Open { config_json } => put_str(out, config_json),
        WireMsg::Opened { session } => put_u64(out, *session),
        WireMsg::Rejected { reason } => put_str(out, reason),
        WireMsg::Frame {
            session,
            width,
            height,
            rgb,
        } => {
            put_u64(out, *session);
            put_u32(out, *width);
            put_u32(out, *height);
            out.extend_from_slice(rgb);
        }
        WireMsg::FrameAck {
            session,
            ordinal,
            status,
            depth,
        } => {
            put_u64(out, *session);
            put_u64(out, *ordinal);
            out.push(match status {
                AckStatus::Accepted => 0,
                AckStatus::Overloaded => 1,
            });
            put_u32(out, *depth);
        }
        WireMsg::Flush { session } | WireMsg::Retire { session } => put_u64(out, *session),
        WireMsg::Event { session, line } => {
            put_u64(out, *session);
            put_str(out, line);
        }
        WireMsg::Analysis {
            session,
            summary_json,
            trace_jsonl,
        } => {
            put_u64(out, *session);
            put_str(out, summary_json);
            put_str(out, trace_jsonl);
        }
        WireMsg::Failed { session, error } => {
            put_u64(out, *session);
            put_str(out, error);
        }
        WireMsg::Error { code, message } => {
            put_u16(out, *code);
            put_str(out, message);
        }
        WireMsg::Drain | WireMsg::Bye => {}
        WireMsg::Draining { in_flight } => put_u64(out, *in_flight),
        WireMsg::OpenClip { config_json, ppm } => {
            put_str(out, config_json);
            // The clip runs to the end of the body; the frame's length
            // prefix (not an inner count) bounds it.
            out.extend_from_slice(ppm);
        }
    }
    let body_len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&body_len.to_be_bytes());
}

/// Appends the head of an `OPEN_CLIP` frame for a clip of `clip_len`
/// bytes: the length prefix, the tag and the open request. Those bytes
/// followed by the clip are exactly [`encode`] of the whole
/// [`WireMsg::OpenClip`], so a sender can forward a clip it already
/// holds without copying it into a message.
///
/// # Errors
///
/// [`WireError::Oversized`] when the body would not fit the 4-byte
/// length prefix.
pub fn encode_open_clip_head(
    config_json: &str,
    clip_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    let body_len = 1 + 4 + config_json.len() + clip_len;
    let prefix = u32::try_from(body_len).map_err(|_| WireError::Oversized {
        declared: body_len,
        max: u32::MAX as usize,
    })?;
    put_u32(out, prefix);
    out.push(OPEN_CLIP_TAG);
    put_str(out, config_json);
    Ok(())
}

/// Encodes into a fresh buffer (tests and one-shot paths).
pub fn encode_to_vec(msg: &WireMsg) -> Vec<u8> {
    let mut out = Vec::new();
    encode(msg, &mut out);
    out
}

// ---------------------------------------------------------------- decode

/// A cursor over one message body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() - self.pos < n {
            return Err(malformed(format!(
                "payload ends early: wanted {n} more bytes, had {}",
                self.bytes.len() - self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        // The declared string length cannot exceed what is actually in
        // the body, so this take (not the declaration) is the bound.
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("string is not UTF-8"))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.bytes.len() {
            return Err(malformed(format!(
                "{} trailing bytes after payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Parses one complete body (tag + payload, the length prefix already
/// stripped and bounds-checked).
pub fn decode_body(body: &[u8]) -> Result<WireMsg, WireError> {
    let mut c = Cursor {
        bytes: body,
        pos: 0,
    };
    let tag = c.u8()?;
    let msg = match tag {
        0x01 => WireMsg::Hello { proto: c.string()? },
        0x02 => WireMsg::HelloOk { proto: c.string()? },
        0x03 => WireMsg::Open {
            config_json: c.string()?,
        },
        0x04 => WireMsg::Opened { session: c.u64()? },
        0x05 => WireMsg::Rejected {
            reason: c.string()?,
        },
        0x06 => {
            let session = c.u64()?;
            let width = c.u32()?;
            let height = c.u32()?;
            let expected = (width as usize)
                .checked_mul(height as usize)
                .and_then(|px| px.checked_mul(3))
                .ok_or_else(|| malformed("frame dimensions overflow"))?;
            let rgb = c.take(expected)?.to_vec();
            WireMsg::Frame {
                session,
                width,
                height,
                rgb,
            }
        }
        0x07 => {
            let session = c.u64()?;
            let ordinal = c.u64()?;
            let status = match c.u8()? {
                0 => AckStatus::Accepted,
                1 => AckStatus::Overloaded,
                other => return Err(malformed(format!("unknown ack status {other}"))),
            };
            let depth = c.u32()?;
            WireMsg::FrameAck {
                session,
                ordinal,
                status,
                depth,
            }
        }
        0x08 => WireMsg::Flush { session: c.u64()? },
        0x09 => WireMsg::Event {
            session: c.u64()?,
            line: c.string()?,
        },
        0x0A => WireMsg::Analysis {
            session: c.u64()?,
            summary_json: c.string()?,
            trace_jsonl: c.string()?,
        },
        0x0B => WireMsg::Failed {
            session: c.u64()?,
            error: c.string()?,
        },
        0x0C => WireMsg::Retire { session: c.u64()? },
        0x0D => WireMsg::Error {
            code: c.u16()?,
            message: c.string()?,
        },
        0x0E => WireMsg::Drain,
        0x0F => WireMsg::Draining {
            in_flight: c.u64()?,
        },
        0x10 => WireMsg::Bye,
        OPEN_CLIP_TAG => {
            let config_json = c.string()?;
            let rest = c.bytes.len() - c.pos;
            let ppm = c.take(rest)?.to_vec();
            WireMsg::OpenClip { config_json, ppm }
        }
        other => return Err(malformed(format!("unknown message tag 0x{other:02X}"))),
    };
    c.finish()?;
    Ok(msg)
}

/// Incremental frame decoder. Push bytes in whatever chunks the
/// transport yields; pull complete messages. After any `Err` the
/// stream's framing is unrecoverable and the connection must close.
#[derive(Debug)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    pos: usize,
    max_frame: usize,
}

impl Decoder {
    /// A decoder enforcing the given body-size bound.
    pub fn new(max_frame: usize) -> Self {
        Decoder {
            buf: Vec::new(),
            pos: 0,
            max_frame,
        }
    }

    /// Buffers transport bytes. Never parses — call
    /// [`Decoder::next_msg`] or [`Decoder::next_part`].
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing so a long-lived connection's buffer
        // stays proportional to one frame, not to history.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > self.max_frame) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next frame's declared body length, once its 4-byte prefix is
    /// buffered.
    fn declared(&self) -> Result<Option<usize>, WireError> {
        if self.buffered() < 4 {
            return Ok(None);
        }
        let declared =
            u32::from_be_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        if declared == 0 || declared > self.max_frame {
            return Err(WireError::Oversized {
                declared,
                max: self.max_frame,
            });
        }
        Ok(Some(declared))
    }

    /// The next complete message, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] as soon as a length prefix declares a
    /// body beyond the bound; [`WireError::Malformed`] for bodies that
    /// do not parse. Both are fatal.
    pub fn next_msg(&mut self) -> Result<Option<WireMsg>, WireError> {
        let Some(declared) = self.declared()? else {
            return Ok(None);
        };
        if self.buffered() < 4 + declared {
            return Ok(None);
        }
        let body = &self.buf[self.pos + 4..self.pos + 4 + declared];
        let msg = decode_body(body)?;
        self.pos += 4 + declared;
        Ok(Some(msg))
    }

    /// Like [`next_msg`](Decoder::next_msg), except that an `OPEN_CLIP`
    /// comes back as [`Part::ClipHead`] as soon as its open request is
    /// buffered, with the clip not buffered at all. The caller then
    /// owes the clip's `clip_len` bytes to its own decoder: first
    /// [`take_buffered`](Decoder::take_buffered)`(clip_len)`, then the
    /// rest read straight from the transport. Bounds and errors are
    /// those of `next_msg`, checked by the same code.
    ///
    /// # Errors
    ///
    /// As [`next_msg`](Decoder::next_msg).
    pub fn next_part(&mut self) -> Result<Option<Part>, WireError> {
        let Some(declared) = self.declared()? else {
            return Ok(None);
        };
        let body = &self.buf[self.pos + 4..];
        if body.first() != Some(&OPEN_CLIP_TAG) {
            return Ok(self.next_msg()?.map(Part::Msg));
        }
        // The head is the tag, the string length and the open request;
        // a string length past the body is cut at the body, where the
        // cursor reports it exactly as `decode_body` does.
        if body.len() < 5.min(declared) {
            return Ok(None);
        }
        let json_len = match body.get(1..5) {
            Some(len) => u32::from_be_bytes(len.try_into().unwrap()) as usize,
            None => 0,
        };
        let head_len = (5 + json_len).min(declared);
        if body.len() < head_len {
            return Ok(None);
        }
        let mut c = Cursor {
            bytes: &body[..head_len],
            pos: 0,
        };
        c.u8()?;
        let config_json = c.string()?;
        self.pos += 4 + head_len;
        Ok(Some(Part::ClipHead {
            config_json,
            clip_len: declared - head_len,
        }))
    }

    /// Consumes and returns up to `max` buffered bytes: the start of a
    /// clip announced by [`Part::ClipHead`].
    pub fn take_buffered(&mut self, max: usize) -> &[u8] {
        let n = self.buffered().min(max);
        let start = self.pos;
        self.pos += n;
        &self.buf[start..start + n]
    }
}

/// What [`Decoder::next_part`] yields.
#[derive(Debug, Clone, PartialEq)]
pub enum Part {
    /// A complete message (never an `OPEN_CLIP`).
    Msg(WireMsg),
    /// The head of an `OPEN_CLIP`: its open request, and the length of
    /// the PPM clip that follows to the end of the body.
    ClipHead {
        /// Serialized open request.
        config_json: String,
        /// Bytes of clip after the head.
        clip_len: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<WireMsg> {
        vec![
            WireMsg::Hello {
                proto: WIRE_SCHEMA.to_owned(),
            },
            WireMsg::HelloOk {
                proto: WIRE_SCHEMA.to_owned(),
            },
            WireMsg::Open {
                config_json: "{\"fps\":25.0}".to_owned(),
            },
            WireMsg::Opened { session: 3 },
            WireMsg::Rejected {
                reason: "at capacity".to_owned(),
            },
            WireMsg::Frame {
                session: 1,
                width: 2,
                height: 2,
                rgb: vec![9; 12],
            },
            WireMsg::FrameAck {
                session: 1,
                ordinal: 17,
                status: AckStatus::Overloaded,
                depth: 16,
            },
            WireMsg::Flush { session: 1 },
            WireMsg::Retire { session: 1 },
            WireMsg::Event {
                session: 1,
                line: "{\"seq\":0}".to_owned(),
            },
            WireMsg::Analysis {
                session: 1,
                summary_json: "{}".to_owned(),
                trace_jsonl: "".to_owned(),
            },
            WireMsg::Failed {
                session: 1,
                error: "tracking lost".to_owned(),
            },
            WireMsg::Error {
                code: codes::MALFORMED,
                message: "bad tag".to_owned(),
            },
            WireMsg::Drain,
            WireMsg::Draining { in_flight: 2 },
            WireMsg::Bye,
            WireMsg::OpenClip {
                config_json: "{\"fps\":25.0}".to_owned(),
                ppm: b"P6\n2 1\n255\n\x00\x01\x02\x03\x04\x05".to_vec(),
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in samples() {
            let bytes = encode_to_vec(&msg);
            let mut d = Decoder::new(DEFAULT_MAX_FRAME);
            d.push(&bytes);
            assert_eq!(d.next_msg().unwrap(), Some(msg.clone()), "{}", msg.name());
            assert_eq!(d.next_msg().unwrap(), None, "{} left residue", msg.name());
            assert_eq!(d.buffered(), 0);
        }
    }

    #[test]
    fn byte_at_a_time_decoding_matches() {
        let mut stream = Vec::new();
        for msg in samples() {
            encode(&msg, &mut stream);
        }
        let mut d = Decoder::new(DEFAULT_MAX_FRAME);
        let mut decoded = Vec::new();
        for &b in &stream {
            d.push(&[b]);
            while let Some(msg) = d.next_msg().unwrap() {
                decoded.push(msg);
            }
        }
        assert_eq!(decoded, samples());
    }

    #[test]
    fn oversized_is_rejected_at_the_prefix() {
        let mut d = Decoder::new(64);
        // Declare 65 bytes; send only the prefix — the error fires
        // before any payload exists to buffer.
        d.push(&65u32.to_be_bytes());
        assert_eq!(
            d.next_msg(),
            Err(WireError::Oversized {
                declared: 65,
                max: 64
            })
        );
        // Zero-length frames are equally framing-fatal.
        let mut d = Decoder::new(64);
        d.push(&0u32.to_be_bytes());
        assert!(matches!(d.next_msg(), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn malformed_bodies_are_typed_errors() {
        // Unknown tag.
        assert!(matches!(
            decode_body(&[0x7F]),
            Err(WireError::Malformed { .. })
        ));
        // Fields ending early.
        assert!(matches!(
            decode_body(&[0x04, 0, 0]),
            Err(WireError::Malformed { .. })
        ));
        // Trailing bytes.
        let mut bytes = encode_to_vec(&WireMsg::Bye);
        bytes[3] += 1; // declare one extra body byte
        bytes.push(0xAA);
        let mut d = Decoder::new(DEFAULT_MAX_FRAME);
        d.push(&bytes);
        assert!(matches!(d.next_msg(), Err(WireError::Malformed { .. })));
        // String length lying past the body.
        let mut body = vec![0x01];
        body.extend_from_slice(&100u32.to_be_bytes());
        body.extend_from_slice(b"short");
        assert!(matches!(
            decode_body(&body),
            Err(WireError::Malformed { .. })
        ));
        // Frame dimension overflow is caught, not multiplied.
        let mut body = vec![0x06];
        body.extend_from_slice(&0u64.to_be_bytes());
        body.extend_from_slice(&u32::MAX.to_be_bytes());
        body.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = decode_body(&body).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn decoder_buffer_stays_bounded_across_messages() {
        let msg = WireMsg::Frame {
            session: 0,
            width: 8,
            height: 8,
            rgb: vec![1; 192],
        };
        let bytes = encode_to_vec(&msg);
        let mut d = Decoder::new(DEFAULT_MAX_FRAME);
        for _ in 0..1000 {
            d.push(&bytes);
            assert!(d.next_msg().unwrap().is_some());
        }
        assert_eq!(d.buffered(), 0);
        // The retained allocation is proportional to one frame, not to
        // the 1000 messages that flowed through.
        assert!(d.buf.capacity() < 16 * bytes.len());
    }
}
