//! Listener/acceptor/reader/writer threads around the
//! [`Engine`](crate::engine): everything that touches a socket.
//!
//! One acceptor thread per listener blocks in `accept` ([`serve_until`])
//! and re-checks the drain flag after every connection; a drain
//! releases it by dialing the listener once ([`wake_acceptor`]). Each
//! accepted connection gets a reader thread (socket → decoder → bounded
//! request channel) and a writer thread (bounded reply channel →
//! encoder → socket). Readers *block* on the request channel when the
//! engine is saturated — that is the design: the unread bytes stay in
//! the kernel socket buffer and the peer's sends stall, which is exactly
//! the backpressure the wire protocol promises instead of unbounded
//! buffering. Writers are joined before [`DaemonHandle::join`] returns,
//! so a drained daemon has written every connection's last reply.

use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::addr::Addr;
use crate::engine::{DaemonConfig, DaemonStats, Engine, Out, Request};
use crate::wire::{Decoder, Part};
use slj_video::io::PpmStreamDecoder;

/// How long an acceptor backs off after a failed `accept` (`EMFILE`
/// and friends persist until some connection closes; retrying at once
/// would spin).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// One live transport stream: the TCP/UDS split stops here. Public so
/// other front ends (the HTTP gateway) can serve the same dual
/// transports without duplicating the socket plumbing.
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

impl Stream {
    /// Clones the handle so reads and writes can live on different
    /// threads.
    ///
    /// # Errors
    ///
    /// The underlying socket's `try_clone` failure.
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Sets the read deadline for subsequent reads.
    ///
    /// # Errors
    ///
    /// The underlying socket's setter failure.
    pub fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }

    /// Sets the write deadline for subsequent writes.
    ///
    /// # Errors
    ///
    /// The underlying socket's setter failure.
    pub fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(d),
            Stream::Unix(s) => s.set_write_timeout(d),
        }
    }

    /// Closes both directions; unblocks a reader stuck in `read`.
    pub fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound listening socket on either transport.
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener plus the socket path to unlink on close.
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds `addr`, returning the listener and the address actually
    /// bound — with an OS-assigned port resolved, so `tcp:127.0.0.1:0`
    /// comes back as the real endpoint to dial. For Unix addresses the
    /// parent directory is created and a *stale* socket file (one no
    /// daemon answers on) is removed; a live one is `AddrInUse`.
    ///
    /// # Errors
    ///
    /// Any bind failure.
    pub fn bind(addr: &Addr) -> io::Result<(Listener, Addr)> {
        match addr {
            Addr::Tcp(hostport) => {
                let listener = TcpListener::bind(hostport.as_str())?;
                let local = listener.local_addr()?;
                Ok((Listener::Tcp(listener), Addr::Tcp(local.to_string())))
            }
            Addr::Unix(path) => {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                // A stale socket file from a dead process blocks bind;
                // connecting distinguishes stale from live.
                if path.exists() {
                    match UnixStream::connect(path) {
                        Ok(_) => {
                            return Err(io::Error::new(
                                ErrorKind::AddrInUse,
                                format!("{} already has a live listener", path.display()),
                            ));
                        }
                        Err(_) => std::fs::remove_file(path)?,
                    }
                }
                let listener = UnixListener::bind(path)?;
                Ok((
                    Listener::Unix(listener, path.clone()),
                    Addr::Unix(path.clone()),
                ))
            }
        }
    }

    /// Accepts one connection, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// Any accept failure.
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }

    /// The socket file to unlink when a Unix listener shuts down.
    pub fn unix_path(&self) -> Option<&std::path::Path> {
        match self {
            Listener::Tcp(_) => None,
            Listener::Unix(_, path) => Some(path),
        }
    }
}

/// Blocks in `accept` and hands each connection to `serve`, until `stop`
/// is set or `serve` breaks. The flag is re-checked after every accept:
/// whoever sets it dials the listener once ([`wake_acceptor`]) to release
/// the blocked call, and that connection — like any that arrives after
/// the flag is set — is dropped unanswered. On the way out a Unix
/// listener's socket file is removed.
pub fn serve_until(
    listener: Listener,
    stop: &AtomicBool,
    mut serve: impl FnMut(Stream) -> ControlFlow<()>,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok(stream) => {
                if serve(stream).is_break() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
    if let Some(path) = listener.unix_path() {
        let _ = std::fs::remove_file(path);
    }
}

/// Releases an acceptor blocked in [`serve_until`] on the bound address
/// `addr` by dialing it once and hanging up; set the stop flag first. A
/// wildcard TCP bind (`0.0.0.0`, `[::]`) is dialed on loopback. Failures
/// are ignored: a listener that is already gone needs no release.
///
/// The connect can block while the listener's backlog is full, so call
/// this from a thread that may wait — never from one others wait on.
pub fn wake_acceptor(addr: &Addr) {
    match addr {
        Addr::Tcp(hostport) => {
            let Ok(mut target) = hostport.parse::<SocketAddr>() else {
                return;
            };
            if target.ip().is_unspecified() {
                target.set_ip(match target.ip() {
                    IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                });
            }
            let _ = TcpStream::connect(target);
        }
        Addr::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
    }
}

/// Joins the threads in `handles` that have already exited and drops
/// their handles, so a long-lived owner tracks only live threads. An
/// exited thread nobody joins keeps its stack mapped.
pub fn reap_finished<T>(handles: &mut Vec<JoinHandle<T>>) {
    for finished in handles.extract_if(.., |h| h.is_finished()) {
        let _ = finished.join();
    }
}

/// The drain request shared by the engine, the acceptors and the
/// handle: a flag, plus the bound addresses whose blocked acceptors the
/// request must release.
#[derive(Clone)]
pub(crate) struct Drain {
    flag: Arc<AtomicBool>,
    addrs: Arc<[Addr]>,
}

impl Drain {
    fn new(addrs: &[Addr]) -> Self {
        Drain {
            flag: Arc::new(AtomicBool::new(false)),
            addrs: addrs.into(),
        }
    }

    /// Whether a drain has been requested.
    pub(crate) fn is_requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Sets the flag. Returns `true` only on the call that set it, which
    /// must then [`release_acceptors`](Drain::release_acceptors).
    pub(crate) fn request(&self) -> bool {
        !self.flag.swap(true, Ordering::SeqCst)
    }

    /// Dials every listener once so its acceptor sees the flag.
    pub(crate) fn release_acceptors(&self) {
        for addr in self.addrs.iter() {
            wake_acceptor(addr);
        }
    }
}

/// The daemon entry point: bind listeners, start the engine, accept.
pub struct Daemon;

/// A running daemon. Dropping the handle does **not** stop it — call
/// [`drain`](DaemonHandle::drain) then [`join`](DaemonHandle::join).
pub struct DaemonHandle {
    /// The addresses actually bound — with OS-assigned ports resolved,
    /// so `tcp:127.0.0.1:0` comes back as the real endpoint to dial.
    pub addrs: Vec<Addr>,
    drain: Drain,
    engine: JoinHandle<DaemonStats>,
    /// Each acceptor returns the writer threads it still tracks.
    acceptors: Vec<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl DaemonHandle {
    /// Begins a graceful drain: listeners stop accepting, in-flight
    /// sessions finish, then the engine exits. Idempotent. The first
    /// request dials each listener once from the calling thread to
    /// release its acceptor, which can block while a listener's
    /// accept backlog is full.
    pub fn drain(&self) {
        if self.drain.request() {
            self.drain.release_acceptors();
        }
    }

    /// Whether a drain has been requested (by this handle or a wire
    /// `DRAIN`).
    pub fn is_draining(&self) -> bool {
        self.drain.is_requested()
    }

    /// Waits for the drain to complete and returns the engine's
    /// lifetime counters. Call [`drain`](DaemonHandle::drain) first or
    /// this blocks until a client sends `DRAIN`.
    ///
    /// Returns only once every connection's writer has exited, so the
    /// last replies the engine queued (`DRAINING`, `BYE`) have been
    /// written or abandoned at the write deadline.
    pub fn join(self) -> DaemonStats {
        let mut writers = Vec::new();
        for acceptor in self.acceptors {
            if let Ok(mut tracked) = acceptor.join() {
                writers.append(&mut tracked);
            }
        }
        let stats = self.engine.join().unwrap_or_default();
        // The engine has hung up every reply channel, so each writer
        // exits once its queue is written.
        for writer in writers {
            let _ = writer.join();
        }
        stats
    }
}

impl Daemon {
    /// Binds every address and starts the engine + acceptor threads.
    ///
    /// # Errors
    ///
    /// Any bind failure (the socket path's parent directory is created
    /// for Unix addresses; a stale socket file is removed first).
    pub fn start(addrs: &[Addr], config: DaemonConfig) -> io::Result<DaemonHandle> {
        if addrs.is_empty() {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                "daemon needs at least one listen address",
            ));
        }
        let mut listeners = Vec::new();
        let mut bound = Vec::new();
        for addr in addrs {
            let (listener, local) = Listener::bind(addr)?;
            bound.push(local);
            listeners.push(listener);
        }

        let drain = Drain::new(&bound);
        let (request_tx, request_rx) = sync_channel::<Request>(config.request_depth);
        let conn_config = ConnConfig {
            reply_depth: config.reply_depth,
            read_timeout: Duration::from_millis(config.read_timeout_ms),
            write_timeout: Duration::from_millis(config.write_timeout_ms),
            idle_timeouts: config.idle_timeouts,
            max_frame: config.max_frame,
        };

        let engine = {
            let requests = request_rx;
            let drain = drain.clone();
            thread::Builder::new()
                .name("slj-daemon-engine".to_owned())
                .spawn(move || Engine::new(config, requests, drain).run())
                .expect("spawn engine thread")
        };

        let conn_ids = Arc::new(AtomicU64::new(0));
        let mut acceptors = Vec::new();
        for listener in listeners {
            let requests = request_tx.clone();
            let drain = drain.clone();
            let conn_ids = Arc::clone(&conn_ids);
            let handle = thread::Builder::new()
                .name("slj-daemon-accept".to_owned())
                .spawn(move || accept_loop(listener, &requests, &drain, &conn_ids, conn_config))
                .expect("spawn acceptor thread");
            acceptors.push(handle);
        }
        // The engine exits when every request sender hangs up *or* a
        // drain completes; acceptors hold clones until they stop.
        drop(request_tx);

        Ok(DaemonHandle {
            addrs: bound,
            drain,
            engine,
            acceptors,
        })
    }
}

/// Per-connection socket settings, copied from [`DaemonConfig`].
#[derive(Clone, Copy)]
struct ConnConfig {
    reply_depth: usize,
    read_timeout: Duration,
    write_timeout: Duration,
    idle_timeouts: u32,
    max_frame: usize,
}

/// Accepts until the drain flag is set or the engine is gone, and
/// returns the writer threads still running for the handle to join.
fn accept_loop(
    listener: Listener,
    requests: &SyncSender<Request>,
    drain: &Drain,
    conn_ids: &AtomicU64,
    config: ConnConfig,
) -> Vec<JoinHandle<()>> {
    let mut writers = Vec::new();
    serve_until(listener, &drain.flag, |stream| {
        let conn = conn_ids.fetch_add(1, Ordering::SeqCst);
        reap_finished(&mut writers);
        match spawn_connection(conn, stream, requests, config) {
            Ok(Some(writer)) => writers.push(writer),
            Ok(None) => {}
            // The engine is gone; nothing left to accept for.
            Err(()) => return ControlFlow::Break(()),
        }
        ControlFlow::Continue(())
    });
    writers
}

/// Registers the connection with the engine and starts its reader and
/// writer threads, returning the writer's handle (`None` when the
/// connection died before it could be split). Returns `Err` only when
/// the engine has hung up.
fn spawn_connection(
    conn: u64,
    stream: Stream,
    requests: &SyncSender<Request>,
    config: ConnConfig,
) -> Result<Option<JoinHandle<()>>, ()> {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return Ok(None), // connection stillborn; accept the next
    };
    let (reply_tx, reply_rx) = sync_channel::<Out>(config.reply_depth);
    requests
        .send(Request::Connect {
            conn,
            writer: reply_tx,
        })
        .map_err(|_| ())?;
    let reader_requests = requests.clone();
    thread::Builder::new()
        .name(format!("slj-daemon-read-{conn}"))
        .spawn(move || {
            reader_loop(
                conn,
                stream,
                &reader_requests,
                config.idle_timeouts,
                config.max_frame,
            )
        })
        .expect("spawn reader thread");
    let writer = thread::Builder::new()
        .name(format!("slj-daemon-write-{conn}"))
        .spawn(move || writer_loop(write_half, &reply_rx))
        .expect("spawn writer thread");
    Ok(Some(writer))
}

/// Why a reader stopped reading.
enum ReadEnd {
    /// EOF or a socket error: the client is gone.
    Gone,
    /// The connection sat idle past the reaping deadline.
    Idle,
}

/// One connection's socket, read under the idle-reaping rule: a read
/// that times out `idle_timeouts` times in a row (0 disables reaping)
/// ends the connection.
struct ConnReader {
    stream: Stream,
    idle_timeouts: u32,
    quiet_polls: u32,
}

impl ConnReader {
    /// Reads at least one byte into `buf`.
    fn read(&mut self, buf: &mut [u8]) -> Result<usize, ReadEnd> {
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Err(ReadEnd::Gone),
                Ok(n) => {
                    self.quiet_polls = 0;
                    return Ok(n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    self.quiet_polls = self.quiet_polls.saturating_add(1);
                    if self.idle_timeouts > 0 && self.quiet_polls >= self.idle_timeouts {
                        return Err(ReadEnd::Idle);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(ReadEnd::Gone),
            }
        }
    }
}

/// Socket → decoder → request channel. A send into the bounded channel
/// blocks when the engine is saturated; the socket keeps its unread
/// bytes and the peer stalls — backpressure, not buffering.
///
/// An `OPEN_CLIP` is never buffered whole: once its open request is in,
/// the clip is decoded straight off the socket by a
/// [`PpmStreamDecoder`] that reads exactly the frame's remaining bytes,
/// and the engine gets the decoded frames (or the decode error).
fn reader_loop(
    conn: u64,
    stream: Stream,
    requests: &SyncSender<Request>,
    idle_timeouts: u32,
    max_frame: usize,
) {
    let mut reader = ConnReader {
        stream,
        idle_timeouts,
        quiet_polls: 0,
    };
    let mut decoder = Decoder::new(max_frame);
    let mut chunk = [0u8; 64 * 1024];
    loop {
        let request = match decoder.next_part() {
            Ok(Some(Part::Msg(msg))) => Request::Msg { conn, msg },
            Ok(Some(Part::ClipHead {
                config_json,
                clip_len,
            })) => {
                let mut clip = PpmStreamDecoder::new(clip_len);
                clip.push(decoder.take_buffered(clip_len));
                while clip.remaining() > 0 {
                    let want = clip.remaining().min(chunk.len());
                    match reader.read(&mut chunk[..want]) {
                        Ok(n) => clip.push(&chunk[..n]),
                        Err(end) => return end_connection(conn, requests, end),
                    }
                }
                Request::Clip {
                    conn,
                    config_json,
                    frames: clip.finish(),
                }
            }
            Ok(None) => match reader.read(&mut chunk) {
                Ok(n) => {
                    decoder.push(&chunk[..n]);
                    continue;
                }
                Err(end) => return end_connection(conn, requests, end),
            },
            Err(err) => {
                // Framing is lost for good: report and stop reading.
                // The engine replies with a typed ERROR and closes via
                // the writer.
                let _ = requests.send(Request::BadWire { conn, err });
                return;
            }
        };
        if requests.send(request).is_err() {
            return; // engine gone
        }
    }
}

/// Tells the engine why a reader stopped.
fn end_connection(conn: u64, requests: &SyncSender<Request>, end: ReadEnd) {
    let _ = requests.send(match end {
        ReadEnd::Gone => Request::Gone { conn },
        ReadEnd::Idle => Request::Idle { conn },
    });
}

/// Reply channel → encoder → socket. Exits on `Close`, channel
/// disconnect (engine dropped the connection) or write failure (the
/// write deadline turns a wedged peer into an error here).
fn writer_loop(mut stream: Stream, replies: &Receiver<Out>) {
    let mut buf = Vec::new();
    while let Ok(out) = replies.recv() {
        match out {
            Out::Msg(msg) => {
                buf.clear();
                crate::wire::encode(&msg, &mut buf);
                if stream.write_all(&buf).is_err() {
                    break;
                }
            }
            Out::Close => break,
        }
    }
    let _ = stream.flush();
    stream.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Instant;

    /// Spins until `handle`'s thread has exited; a thread that signalled
    /// still has to return.
    fn wait_finished<T>(handle: &JoinHandle<T>) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !handle.is_finished() {
            assert!(Instant::now() < deadline, "thread never exited");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn reaping_joins_exited_threads_and_keeps_live_ones() {
        let (release, blocked) = channel::<()>();
        let mut handles = vec![
            thread::spawn(|| 1),
            thread::spawn(move || {
                let _ = blocked.recv();
                2
            }),
            thread::spawn(|| 3),
        ];
        wait_finished(&handles[0]);
        wait_finished(&handles[2]);
        reap_finished(&mut handles);
        assert_eq!(handles.len(), 1, "only the blocked thread stays tracked");
        assert!(!handles[0].is_finished());

        release.send(()).unwrap();
        wait_finished(&handles[0]);
        reap_finished(&mut handles);
        assert!(handles.is_empty());
        reap_finished(&mut handles);
    }

    #[test]
    fn a_woken_acceptor_stops_and_drops_the_waking_connection() {
        for bind in ["tcp:127.0.0.1:0", "tcp:0.0.0.0:0"] {
            let (listener, addr) = Listener::bind(&Addr::parse(bind).unwrap()).unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let (served_tx, served) = channel::<()>();
            let acceptor = {
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    serve_until(listener, &stop, |_| {
                        served_tx.send(()).unwrap();
                        ControlFlow::Continue(())
                    })
                })
            };
            // A connection before the stop is served...
            let Addr::Tcp(hostport) = &addr else {
                unreachable!("bound on TCP")
            };
            drop(TcpStream::connect(hostport.replace("0.0.0.0", "127.0.0.1")).unwrap());
            served.recv().unwrap();
            // ...the wake after it is not, and releases the acceptor (a
            // wildcard bind is dialed on loopback).
            stop.store(true, Ordering::SeqCst);
            wake_acceptor(&addr);
            acceptor.join().unwrap();
            assert!(served.try_recv().is_err(), "{bind}: the wake was served");
        }
    }
}
