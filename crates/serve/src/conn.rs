//! The line-framed connection core both daemons run on: one
//! single-threaded nonblocking `poll(2)` loop that accepts clients,
//! splits newline-delimited request frames, answers the protocol
//! preamble, and writes replies strictly in request order. What a daemon
//! does with a request lives behind [`Handler`]; `fpm-serve`'s
//! [`crate::server`] and `fpm-router` are the two implementations.
//!
//! # Architecture
//!
//! One thread owns the listener, the read end of a self-wake pipe and all
//! connection state; it blocks only in `poll(2)`. Work that cannot finish
//! inline (a cold solve, a shard round trip) leaves a pending slot in the
//! connection's reply queue. A worker thread that finishes it posts the
//! result through a [`Completer`], which writes one byte to the wake pipe
//! so the poller resumes and hands the result to [`Handler::complete`].
//!
//! A handler may also keep connections of its own in the same loop
//! ([`Outbound`]: nonblocking connect, a write buffer, newline-framed
//! reads). It adds them to the poll set in [`Handler::poll_fds`], takes
//! their readiness in [`Handler::take_ready`], runs timers in
//! [`Handler::expire`], and writes once per iteration in
//! [`Handler::flush`], after every client line has been handled. Results
//! from these hooks reach [`Handler::complete`] exactly like posted ones.
//! `fpm-router` forwards to its shards this way, with no thread besides
//! the loop.
//!
//! One iteration: poll; posted results; accepts; client reads (each line
//! to [`Handler::handle`]); [`Handler::take_ready`]; [`Handler::expire`];
//! [`Handler::flush`]; then every connection's ready replies are written.
//!
//! # Connection state machine
//!
//! Each connection carries a read buffer, a write buffer with a flush
//! offset, and an ordered queue of reply slots:
//!
//! ```text
//!            readable                   complete line
//!   ┌──────┐ drain to  ┌──────────┐ per line   ┌─────────────┐
//!   │ idle ├──────────▶│ buffered ├───────────▶│ dispatching │
//!   └──────┘ WouldBlock└──────────┘            └──────┬──────┘
//!      ▲                                  answered    │  \ off-loop
//!      │                                  inline      │   \ work
//!      │                                       ▼      │    ▼
//!      │  wbuf flushed ┌─────────┐ in-order ┌─────────┴─┐ completion,
//!      └───────────────┤ writing │◀─────────┤ slot queue│ wake on done
//!                      └─────────┘  pump    └───────────┘
//! ```
//!
//! A readable event drains *every* complete line in the buffer (request
//! pipelining), so a client may write many newline-delimited requests in
//! one segment. Replies are always emitted in request order: a pending
//! slot holds back later, already-finished slots until it resolves.
//! Partial reads and partial writes are plain state transitions, never
//! blocking calls. A frame (line plus newline) longer than
//! [`MAX_FRAME_BYTES`] is answered with `frame_too_large` and the
//! connection closes; an unterminated final line is served at EOF under
//! the same bound.
//!
//! # Drain semantics
//!
//! Once [`Handler::stopping`] reports true the loop stops accepting and
//! reading, lets every pending slot resolve, flushes each connection and
//! closes it; it exits when no connection remains and [`Handler::flush`]
//! reports nothing in flight, or when a 5 s grace period ends, whichever
//! is first. A request line still read after the stop is answered with
//! `shutting_down`.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::{Json, JsonRef};
use crate::poll as sys;
use crate::protocol::{parse_id_ref, render_err, ProtoError, MAX_FRAME_BYTES};

#[cfg(not(unix))]
compile_error!("the fpm-serve connection core multiplexes sockets with poll(2); non-unix targets are unsupported");

/// How long a draining loop waits for pending slots and final writes.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// Poll tick while draining, so grace expiry is noticed promptly.
const DRAIN_TICK_MS: i32 = 25;
/// Read chunk size: large enough that a deep pipeline lands in one read.
const READ_CHUNK: usize = 64 * 1024;
/// Compact the write buffer once this many flushed bytes accumulate.
const WBUF_COMPACT: usize = 64 * 1024;

/// A daemon's request logic. The core calls it from the loop thread only,
/// so implementations need no locking of their own state.
pub trait Handler {
    /// State of a reply still being produced off the loop thread.
    type Pending;
    /// An off-loop result, posted through a [`Completer`].
    type Done;

    /// True once the daemon is draining.
    fn stopping(&self) -> bool;
    /// Counts an accepted connection.
    fn on_accept(&self);
    /// Counts a non-blank request line.
    fn on_request(&self);
    /// Counts an error reply the core rendered itself.
    fn on_error(&self);
    /// Reports how many lines one readable event drained (1 = no
    /// pipelining on that event).
    fn on_lines(&self, _lines: u64) {}

    /// Counts and sends an error reply.
    fn fail(&self, conn: &mut Conn<Self::Pending>, id: Option<&dyn fmt::Display>, e: &ProtoError) {
        self.on_error();
        conn.with_out(|out| render_err(out, id, e));
    }

    /// Serves one request that passed the preamble (valid JSON object,
    /// valid `id`, string `verb`). Returns false when it must be the last
    /// request served on `conn`: anything buffered behind it is dropped.
    fn handle(&mut self, conn: &mut Conn<Self::Pending>, line: Line<'_>) -> bool;

    /// Applies a posted result to the pending slot at `addr`. Returns the
    /// finished reply (no trailing newline), or `None` while the slot
    /// still waits for more results.
    fn complete(
        &mut self,
        addr: ReplyAddr,
        done: Self::Done,
        pending: &mut Self::Pending,
        id: Option<&Json>,
        started: Instant,
    ) -> Option<String>;

    /// Answers every pending slot whose deadline has passed, runs the
    /// handler's own timers, and returns the nearest remaining deadline,
    /// which bounds the next poll. Results pushed to `done` reach
    /// [`Handler::complete`] like posted ones; while it pushes any, the
    /// loop calls it again. The default has no deadlines.
    fn expire(
        &mut self,
        _conns: &mut Conns<Self::Pending>,
        _done: &mut Vec<(ReplyAddr, Self::Done)>,
    ) -> Option<Instant> {
        None
    }

    /// Appends the handler's own descriptors (its [`Outbound`]
    /// connections) to the poll set; called once per iteration.
    fn poll_fds(&mut self, _fds: &mut Vec<sys::PollFd>) {}

    /// Takes the readiness of the descriptors [`Handler::poll_fds`]
    /// added, in the same order. Results pushed to `done` reach
    /// [`Handler::complete`] like posted ones.
    fn take_ready(&mut self, _fds: &[sys::PollFd], _done: &mut Vec<(ReplyAddr, Self::Done)>) {}

    /// Writes what this iteration queued on the handler's own
    /// connections; called once per iteration, after every client line
    /// has been handled. Returns true while work is still in flight that
    /// a drain must wait for.
    fn flush(&mut self) -> bool {
        false
    }
}

/// A request line that passed the preamble.
pub struct Line<'a> {
    /// The trimmed request text, as received.
    pub text: &'a str,
    /// Its parsed value (a JSON object).
    pub value: &'a JsonRef<'a>,
    /// The request `id`, echoed in the reply.
    pub id: Option<&'a JsonRef<'a>>,
    /// The `verb` field.
    pub verb: &'a str,
    /// When parsing began.
    pub started: Instant,
}

impl Line<'_> {
    /// The `id` in the form the reply renderers take.
    pub fn display_id(&self) -> Option<&dyn fmt::Display> {
        self.id.map(|v| v as &dyn fmt::Display)
    }
}

/// Where an off-loop result is delivered: the connection, the reply slot
/// in its pipeline, and a part index within the slot (a batch element or
/// a fan-out leg).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplyAddr {
    /// Connection id.
    pub conn: u64,
    /// Slot sequence number on that connection.
    pub seq: u64,
    /// Part index within the slot.
    pub part: usize,
}

/// The sending half of a loop's completion channel: posts a result and
/// wakes the poller. Clone one into every worker or callback.
pub struct Completer<D> {
    tx: mpsc::Sender<(ReplyAddr, D)>,
    wake: Arc<UnixStream>,
}

impl<D> Clone for Completer<D> {
    fn clone(&self) -> Self {
        Completer { tx: self.tx.clone(), wake: Arc::clone(&self.wake) }
    }
}

impl<D> Completer<D> {
    /// Posts `done` for the slot at `addr`.
    pub fn complete(&self, addr: ReplyAddr, done: D) {
        // The loop may have dropped the connection or exited, and a full
        // (nonblocking) pipe already guarantees a pending wake-up, so both
        // failures are ignorable.
        let _ = self.tx.send((addr, done));
        let _ = (&*self.wake).write(&[1u8]);
    }
}

/// The receiving half of a completion channel, consumed by [`spawn`].
pub struct Completions<D> {
    rx: mpsc::Receiver<(ReplyAddr, D)>,
    wake: UnixStream,
}

impl<D> Completions<D> {
    /// Empties the wake pipe. Returns true at EOF: every [`Completer`]
    /// is gone, so nothing can post again.
    fn drain_wake(&self) -> bool {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake).read(&mut buf) {
                Ok(0) => return true,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }
}

/// Creates a completion channel with its self-wake pipe.
pub fn completion_channel<D>() -> io::Result<(Completer<D>, Completions<D>)> {
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let (tx, rx) = mpsc::channel();
    Ok((Completer { tx, wake: Arc::new(wake_tx) }, Completions { rx, wake: wake_rx }))
}

/// Runs the loop for `handler` on a thread named `name` until the handler
/// reports stopping and every connection has drained.
pub fn spawn<H>(
    name: &str,
    listener: TcpListener,
    completions: Completions<H::Done>,
    handler: H,
) -> io::Result<JoinHandle<()>>
where
    H: Handler + Send + 'static,
    H::Done: Send + 'static,
{
    listener.set_nonblocking(true)?;
    std::thread::Builder::new().name(name.into()).spawn(move || {
        EventLoop {
            listener,
            completions,
            handler,
            conns: HashMap::new(),
            next_conn: 0,
            read_chunk: vec![0u8; READ_CHUNK],
        }
        .run()
    })
}

/// What a reply slot holds.
pub(crate) enum SlotState<P> {
    /// Fully rendered (trailing newline included), awaiting its turn in
    /// the reply order.
    Ready(String),
    /// Still being produced off the loop thread.
    Pending(P),
}

/// An ordered reply slot: replies leave the connection strictly in
/// request order, so a pending slot holds back everything behind it.
pub(crate) struct Slot<P> {
    seq: u64,
    /// The request `id`, echoed in the reply.
    pub id: Option<Json>,
    /// When the request was parsed.
    pub started: Instant,
    /// Ready or pending.
    pub state: SlotState<P>,
}

impl<P> Slot<P> {
    /// Marks the slot answered with `text` (no trailing newline).
    pub fn resolve(&mut self, mut text: String) {
        text.push('\n');
        self.state = SlotState::Ready(text);
    }
}

/// Every open connection of a loop, by connection id.
pub type Conns<P> = HashMap<u64, Conn<P>>;

/// Per-connection state.
pub struct Conn<P> {
    id: u64,
    stream: TcpStream,
    /// Unconsumed inbound bytes (at most one partial line between events).
    rbuf: Vec<u8>,
    /// Prefix of `rbuf` already scanned for a newline.
    scanned: usize,
    wbuf: WriteBuf,
    /// Render scratch for inline replies (reused, rarely grows).
    scratch: String,
    pending: VecDeque<Slot<P>>,
    next_seq: u64,
    /// No more reads: EOF, read error, framing error or shutdown.
    eof: bool,
    /// Close once `pending` and `wbuf` are flushed.
    closing: bool,
    /// Remove immediately (write error, peer reset).
    dead: bool,
}

impl<P> Conn<P> {
    fn new(id: u64, stream: TcpStream) -> Self {
        Conn {
            id,
            stream,
            rbuf: Vec::with_capacity(4096),
            scanned: 0,
            wbuf: WriteBuf::default(),
            scratch: String::with_capacity(256),
            pending: VecDeque::new(),
            next_seq: 1,
            eof: false,
            closing: false,
            dead: false,
        }
    }

    /// Renders one reply line. When nothing is pending the bytes go
    /// straight into the write buffer (the pipelined fast path); otherwise
    /// a ready slot keeps the reply behind the pending ones.
    pub fn with_out(&mut self, render: impl FnOnce(&mut String)) {
        if self.pending.is_empty() {
            self.scratch.clear();
            render(&mut self.scratch);
            self.scratch.push('\n');
            self.wbuf.bytes.extend_from_slice(self.scratch.as_bytes());
        } else {
            let mut out = String::new();
            render(&mut out);
            out.push('\n');
            self.pending.push_back(Slot {
                seq: 0, // completions never carry seq 0
                id: None,
                started: Instant::now(),
                state: SlotState::Ready(out),
            });
        }
    }

    /// Reserves the address of the next pending slot; pass it to
    /// [`Conn::push_pending`] once the off-loop work is under way.
    pub fn next_addr(&mut self) -> ReplyAddr {
        let seq = self.next_seq;
        self.next_seq += 1;
        ReplyAddr { conn: self.id, seq, part: 0 }
    }

    /// Queues a pending slot at `addr` (from [`Conn::next_addr`]).
    pub fn push_pending(
        &mut self,
        addr: ReplyAddr,
        id: Option<&JsonRef<'_>>,
        started: Instant,
        state: P,
    ) {
        self.pending.push_back(Slot {
            seq: addr.seq,
            id: id.map(JsonRef::to_json),
            started,
            state: SlotState::Pending(state),
        });
    }

    /// The reply slots, oldest first.
    pub(crate) fn slots_mut(&mut self) -> impl Iterator<Item = &mut Slot<P>> {
        self.pending.iter_mut()
    }

    /// Stops reading; the connection closes once every reply is flushed.
    pub fn close_after_flush(&mut self) {
        self.eof = true;
        self.closing = true;
    }

    /// Reads what the socket holds; EOF or a read error (the peer went
    /// away) stops reading, and what we owe is still flushed.
    fn read_available(&mut self, chunk: &mut [u8]) {
        if !matches!(read_into(&mut self.stream, &mut self.rbuf, chunk), Ok(false)) {
            self.close_after_flush();
        }
    }

    /// Moves every leading ready slot into the write buffer, in order.
    fn pump(&mut self) {
        while let Some(Slot { state: SlotState::Ready(_), .. }) = self.pending.front() {
            if let Some(Slot { state: SlotState::Ready(text), .. }) = self.pending.pop_front() {
                self.wbuf.bytes.extend_from_slice(text.as_bytes());
            }
        }
    }

    fn flushed(&self) -> bool {
        self.pending.is_empty() && !self.wbuf.pending()
    }
}

/// Reads until `stream` would block (or one chunk short of full),
/// appending to `rbuf`. Returns true at EOF.
fn read_into(stream: &mut TcpStream, rbuf: &mut Vec<u8>, chunk: &mut [u8]) -> io::Result<bool> {
    loop {
        match stream.read(chunk) {
            Ok(0) => return Ok(true),
            Ok(n) => {
                rbuf.extend_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    return Ok(false); // likely drained; poll re-reports leftovers
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Outbound bytes with a flush offset: `pos..` is still unflushed.
#[derive(Default)]
struct WriteBuf {
    bytes: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    fn pending(&self) -> bool {
        self.pos < self.bytes.len()
    }

    /// Writes as much as `stream` accepts. An error means the peer is
    /// gone.
    fn flush(&mut self, stream: &mut TcpStream) -> io::Result<()> {
        while self.pending() {
            match stream.write(&self.bytes[self.pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if !self.pending() {
            self.bytes.clear();
            self.pos = 0;
        } else if self.pos >= WBUF_COMPACT {
            self.bytes.drain(..self.pos);
            self.pos = 0;
        }
        Ok(())
    }
}

/// A connection a handler opens to another daemon: nonblocking connect,
/// a write buffer, and newline-framed reads. Replies carry no frame
/// bound: a reply longer than [`MAX_FRAME_BYTES`] splits like any other.
/// The handler polls it through [`Handler::poll_fds`] and
/// [`Handler::take_ready`].
pub struct Outbound {
    stream: TcpStream,
    /// The handshake has not finished yet.
    connecting: bool,
    rbuf: Vec<u8>,
    /// Start of the unconsumed part of `rbuf`.
    rpos: usize,
    /// Bytes from `rpos` already scanned for a newline.
    scanned: usize,
    wbuf: WriteBuf,
}

impl Outbound {
    /// Starts connecting to `addr` without blocking; lines sent before
    /// the handshake ends wait in the write buffer.
    pub fn connect(addr: &SocketAddr) -> io::Result<Self> {
        let stream = sys::connect_nonblocking(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Outbound {
            stream,
            connecting: true,
            rbuf: Vec::new(),
            rpos: 0,
            scanned: 0,
            wbuf: WriteBuf::default(),
        })
    }

    /// The poll entry: readable always, writable while connecting or
    /// while output is unflushed.
    pub fn poll_fd(&self) -> sys::PollFd {
        let mut events = sys::POLLIN;
        if self.connecting || self.wbuf.pending() {
            events |= sys::POLLOUT;
        }
        sys::PollFd { fd: self.stream.as_raw_fd(), events, revents: 0 }
    }

    /// Queues one line (the newline is added).
    pub fn send(&mut self, line: &str) {
        self.wbuf.bytes.extend_from_slice(line.as_bytes());
        self.wbuf.bytes.push(b'\n');
    }

    /// True until the handshake ends.
    pub fn is_connecting(&self) -> bool {
        self.connecting
    }

    /// Writes queued output; a no-op until the handshake ends.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.connecting {
            return Ok(());
        }
        self.wbuf.flush(&mut self.stream)
    }

    /// Applies the `revents` of [`Outbound::poll_fd`]'s entry: ends the
    /// handshake, flushes, and reads. Complete lines read before a
    /// failure stay available to [`Outbound::next_line`]; the error
    /// (EOF included) means the connection is over.
    pub fn ready(&mut self, revents: i16, chunk: &mut [u8]) -> io::Result<()> {
        if revents == 0 {
            return Ok(());
        }
        if revents & sys::POLLNVAL != 0 {
            return Err(ErrorKind::NotConnected.into());
        }
        if self.connecting {
            if let Some(e) = self.stream.take_error()? {
                return Err(e);
            }
            self.connecting = false;
        }
        // Read before writing, so replies sent ahead of a close are kept.
        if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 {
            if self.rpos > 0 {
                self.rbuf.drain(..self.rpos);
                self.rpos = 0;
            }
            if read_into(&mut self.stream, &mut self.rbuf, chunk)? {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
        }
        self.flush()
    }

    /// The next complete line read, without its line ending.
    pub fn next_line(&mut self) -> Option<String> {
        let start = self.rpos + self.scanned;
        let Some(off) = self.rbuf[start..].iter().position(|&b| b == b'\n') else {
            self.scanned = self.rbuf.len() - self.rpos;
            return None;
        };
        let mut end = start + off;
        let next = end + 1;
        if end > self.rpos && self.rbuf[end - 1] == b'\r' {
            end -= 1;
        }
        // One spare byte: a relayed line gets its newline back.
        let mut line = String::with_capacity(end - self.rpos + 1);
        line.push_str(&String::from_utf8_lossy(&self.rbuf[self.rpos..end]));
        self.rpos = next;
        self.scanned = 0;
        Some(line)
    }
}

/// The next frame in a read buffer.
#[derive(Debug, PartialEq, Eq)]
enum Split {
    /// `buf[..len]` is a request line; drop `next` bytes to pass it.
    Line { len: usize, next: usize },
    /// The frame exceeds [`MAX_FRAME_BYTES`].
    TooLarge,
    /// No complete frame yet: wait for more bytes.
    Partial,
}

/// Finds the next frame at the start of `buf`, whose first `scanned`
/// bytes are known to hold no newline. The bound counts the newline; an
/// unterminated line is served only at `eof`, under the same bound.
fn split_line(buf: &[u8], scanned: usize, eof: bool) -> Split {
    match buf[scanned..].iter().position(|&b| b == b'\n') {
        Some(off) if scanned + off + 1 > MAX_FRAME_BYTES => Split::TooLarge,
        Some(off) => Split::Line { len: scanned + off, next: scanned + off + 1 },
        None if buf.len() > MAX_FRAME_BYTES => Split::TooLarge,
        None if eof && !buf.is_empty() => Split::Line { len: buf.len(), next: buf.len() },
        None => Split::Partial,
    }
}

struct EventLoop<H: Handler> {
    listener: TcpListener,
    completions: Completions<H::Done>,
    handler: H,
    conns: Conns<H::Pending>,
    next_conn: u64,
    read_chunk: Vec<u8>,
}

impl<H: Handler> EventLoop<H> {
    fn run(&mut self) {
        let mut fds: Vec<sys::PollFd> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        let mut done: Vec<(ReplyAddr, H::Done)> = Vec::new();
        let mut stop_at: Option<Instant> = None;
        let mut deadline: Option<Instant> = None;
        let mut busy = false;
        // A handler that keeps no Completer closes the pipe at once; a
        // closed pipe polls readable forever, so it leaves the poll set.
        let mut wake_open = true;
        loop {
            let stopping = self.handler.stopping();
            if stopping && stop_at.is_none() {
                stop_at = Some(Instant::now() + DRAIN_GRACE);
                for conn in self.conns.values_mut() {
                    // Stop reading; pending slots still resolve and
                    // buffered replies still flush before close.
                    conn.close_after_flush();
                }
            }
            self.conns.retain(|_, conn| !(conn.dead || conn.closing && conn.flushed()));
            let drained = self.conns.is_empty() && !busy;
            if stopping && (drained || stop_at.is_some_and(|t| Instant::now() >= t)) {
                return;
            }

            fds.clear();
            ids.clear();
            fds.push(sys::PollFd {
                fd: self.listener.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            });
            fds.push(sys::PollFd {
                // poll(2) skips negative descriptors.
                fd: if wake_open { self.completions.wake.as_raw_fd() } else { -1 },
                events: sys::POLLIN,
                revents: 0,
            });
            for (&id, conn) in &self.conns {
                let mut events = 0i16;
                if !conn.eof {
                    events |= sys::POLLIN;
                }
                if conn.wbuf.pending() {
                    events |= sys::POLLOUT;
                }
                fds.push(sys::PollFd { fd: conn.stream.as_raw_fd(), events, revents: 0 });
                ids.push(id);
            }
            let outbound = fds.len();
            self.handler.poll_fds(&mut fds);

            let timeout = match deadline {
                _ if stopping => DRAIN_TICK_MS,
                None => -1,
                // Round up so a nearly-due deadline does not busy-spin.
                Some(t) => {
                    let left = t.saturating_duration_since(Instant::now()).as_millis();
                    left.min(i32::MAX as u128 - 1) as i32 + 1
                }
            };
            sys::poll_fds(&mut fds, timeout);

            if fds[1].revents != 0 && self.completions.drain_wake() {
                wake_open = false;
            }
            self.drain_completions();
            if fds[0].revents != 0 {
                self.accept_ready(stopping);
            }
            for (i, &id) in ids.iter().enumerate() {
                let revents = fds[i + 2].revents;
                if revents & sys::POLLNVAL != 0 {
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.dead = true;
                    }
                } else if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 {
                    self.read_ready(id);
                }
            }
            self.handler.take_ready(&fds[outbound..], &mut done);
            self.deliver(&mut done);
            // Delivered results may start new timed work, so expire runs
            // until a pass has nothing to deliver.
            loop {
                deadline = self.handler.expire(&mut self.conns, &mut done);
                if done.is_empty() {
                    break;
                }
                self.deliver(&mut done);
            }
            busy = self.handler.flush();
            for conn in self.conns.values_mut() {
                conn.pump();
                if conn.wbuf.pending() && conn.wbuf.flush(&mut conn.stream).is_err() {
                    conn.dead = true;
                }
            }
        }
    }

    fn accept_ready(&mut self, stopping: bool) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stopping {
                        // Wake-up connection or late client: drop unserved.
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    self.handler.on_accept();
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.conns.insert(id, Conn::new(id, stream));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Hands every posted result to its pending slot.
    fn drain_completions(&mut self) {
        while let Ok((addr, done)) = self.completions.rx.try_recv() {
            self.complete(addr, done);
        }
    }

    /// Hands results from the handler's own hooks to their slots.
    fn deliver(&mut self, done: &mut Vec<(ReplyAddr, H::Done)>) {
        for (addr, result) in done.drain(..) {
            self.complete(addr, result);
        }
    }

    /// Applies one result to the pending slot at `addr`, if it still
    /// waits for one.
    fn complete(&mut self, addr: ReplyAddr, done: H::Done) {
        let Some(conn) = self.conns.get_mut(&addr.conn) else {
            return; // connection gone
        };
        let Some(slot) = conn.pending.iter_mut().find(|s| s.seq == addr.seq) else {
            return; // slot already answered and flushed
        };
        // A ready slot was answered early (deadline): drop the result.
        let SlotState::Pending(state) = &mut slot.state else {
            return;
        };
        if let Some(text) = self.handler.complete(addr, done, state, slot.id.as_ref(), slot.started)
        {
            slot.resolve(text);
        }
    }

    fn read_ready(&mut self, id: u64) {
        // The connection leaves the map while its lines are handled, so
        // the handler can borrow it alongside the loop.
        let Some(mut conn) = self.conns.remove(&id) else {
            return;
        };
        if !conn.eof {
            conn.read_available(&mut self.read_chunk);
            self.process_lines(&mut conn);
        }
        self.conns.insert(id, conn);
    }

    /// Serves every complete frame in the read buffer — the pipelining
    /// core — plus a final unterminated line at EOF.
    fn process_lines(&mut self, conn: &mut Conn<H::Pending>) {
        let mut rbuf = std::mem::take(&mut conn.rbuf);
        let eof = conn.eof;
        let mut start = 0usize;
        let mut scanned = conn.scanned;
        let mut lines = 0u64;
        // Set when a frame must be the last served on this connection
        // (`shutdown`, a drain refusal, a framing error): anything still
        // buffered behind it is dropped.
        let mut halted = false;
        loop {
            match split_line(&rbuf[start..], scanned, eof) {
                Split::Line { len, next } => {
                    lines += 1;
                    let keep_serving = self.handle_line(conn, &rbuf[start..start + len]);
                    start += next;
                    scanned = 0;
                    if !keep_serving {
                        halted = true;
                        break;
                    }
                }
                Split::TooLarge => {
                    // No resynchronisation is attempted.
                    let e = ProtoError::new("frame_too_large", "request line exceeds 1 MiB");
                    self.refuse(conn, e);
                    conn.close_after_flush();
                    halted = true;
                    break;
                }
                Split::Partial => break,
            }
        }
        if halted {
            rbuf.clear();
        } else {
            // At EOF the splitter has served everything, so this empties it.
            rbuf.drain(..start);
        }
        // What is left holds no newline.
        conn.scanned = rbuf.len();
        conn.rbuf = rbuf;
        if lines > 0 {
            self.handler.on_lines(lines);
        }
    }

    /// Answers the protocol preamble of one line and passes anything that
    /// survives it to the handler.
    fn handle_line(&mut self, conn: &mut Conn<H::Pending>, raw: &[u8]) -> bool {
        let text = String::from_utf8_lossy(raw);
        let line = text.trim();
        if line.is_empty() {
            return true; // blank lines elicit no reply
        }
        self.handler.on_request();
        if self.handler.stopping() {
            self.refuse(conn, ProtoError::new("shutting_down", "server is draining"));
            conn.close_after_flush();
            return false;
        }
        let started = Instant::now();
        let value = match Json::parse_ref(line) {
            Ok(v) => v,
            Err(e) => return self.refuse(conn, ProtoError::new("bad_json", e.to_string())),
        };
        let id = match parse_id_ref(&value) {
            Ok(id) => id,
            Err(e) => return self.refuse(conn, e),
        };
        let disp = id.map(|v| v as &dyn fmt::Display);
        let e = if !matches!(value, JsonRef::Obj(_)) {
            ProtoError::new("bad_request", "request must be a JSON object")
        } else if let Some(verb) = value.get("verb").and_then(JsonRef::as_str) {
            return self
                .handler
                .handle(conn, Line { text: line, value: &value, id, verb, started });
        } else {
            ProtoError::new("bad_request", "missing string field: verb")
        };
        self.handler.fail(conn, disp, &e);
        true
    }

    /// Replies with an id-less error; always true (keep serving).
    fn refuse(&self, conn: &mut Conn<H::Pending>, e: ProtoError) -> bool {
        self.handler.fail(conn, None, &e);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_terminated_lines_and_resumes_scans() {
        assert_eq!(split_line(b"ab\ncd\n", 0, false), Split::Line { len: 2, next: 3 });
        assert_eq!(split_line(b"\n", 0, false), Split::Line { len: 0, next: 1 });
        // A resumed scan starts past bytes already known newline-free.
        assert_eq!(split_line(b"abcd\n", 4, false), Split::Line { len: 4, next: 5 });
        assert_eq!(split_line(b"abc", 0, false), Split::Partial);
        assert_eq!(split_line(b"", 0, false), Split::Partial);
        assert_eq!(split_line(b"", 0, true), Split::Partial);
    }

    #[test]
    fn serves_an_unterminated_tail_only_at_eof() {
        assert_eq!(split_line(b"abc", 0, true), Split::Line { len: 3, next: 3 });
        assert_eq!(split_line(b"abc", 3, true), Split::Line { len: 3, next: 3 });
    }

    #[test]
    fn frame_bound_counts_the_newline() {
        let mut buf = vec![b'x'; MAX_FRAME_BYTES - 1];
        buf.push(b'\n');
        assert_eq!(
            split_line(&buf, 0, false),
            Split::Line { len: MAX_FRAME_BYTES - 1, next: MAX_FRAME_BYTES }
        );
        buf.insert(0, b'x');
        assert_eq!(split_line(&buf, 0, false), Split::TooLarge);
        // Still waiting at exactly the bound; one byte past it is final.
        assert_eq!(split_line(&vec![b'x'; MAX_FRAME_BYTES], 0, false), Split::Partial);
        assert_eq!(split_line(&vec![b'x'; MAX_FRAME_BYTES + 1], 0, false), Split::TooLarge);
    }

    #[test]
    fn oversized_unterminated_tail_at_eof_is_too_large() {
        // A client that writes past the bound without a newline and then
        // half-closes must not get the payload parsed.
        let tail = vec![b'x'; MAX_FRAME_BYTES + 10];
        assert_eq!(split_line(&tail, 0, true), Split::TooLarge);
        assert_eq!(split_line(&tail, MAX_FRAME_BYTES, true), Split::TooLarge);
    }
}
