//! The TCP front end: a fixed worker pool blocked in `poll(2)` over
//! nonblocking sockets.
//!
//! The worker pool decouples the connection count from the thread
//! count: each worker owns a set of connections and sleeps in `poll(2)`
//! over them plus its own waker. A connection is in the interest set
//! for reading only while it may parse another request, and for writing
//! only while it owes unflushed bytes, so an idle connection costs no
//! wake-ups at all. Only connections `poll` reports ready are stepped —
//! drain readable bytes into a per-connection buffer, parse complete
//! frames with the torn-frame-rejecting wire readers (a strict prefix
//! of a valid frame never parses, so a partial read just waits for more
//! bytes), hand complete messages to the shared [`UucsServer`], and
//! flush the replies in the same step. A connection whose reply awaits
//! a group-commit fsync parks on its [`CommitTicket`]; the committer
//! writes every worker's waker after each fsync pass, and the worker
//! then redeems exactly the connections with parked tickets. The accept
//! thread (a new socket in the worker's queue) and
//! [`ServerHandle::shutdown`] write the same waker. No timeout sits on
//! the request path: the only periodic wake-up is a coarse tick
//! (≤ [`TICK`]) that enforces read deadlines and re-polls parked
//! tickets (the deadline on a ticket's quorum mark passes without
//! anybody to announce it).
//!
//! Hardened for the open internet the paper's clients lived on:
//!
//! * **Per-connection read deadlines** — a stalled or black-holed peer
//!   is dropped after [`ServeConfig::read_timeout`].
//! * **Connection cap** — past [`ServeConfig::max_connections`] live
//!   connections, new arrivals get `ERROR server at capacity` and are
//!   closed, so an accept storm degrades politely.
//! * **Accept-error backoff** — a transient `accept(2)` failure (EMFILE,
//!   ECONNABORTED, ...) sleeps [`ServeConfig::accept_retry`] and
//!   retries; it does not kill the listener.
//! * **Graceful drain** — [`ServerHandle::shutdown`] stops accepting,
//!   closes every connection, and joins the workers within a deadline.
//! * **Forward compatibility** — a message tag this server does not know
//!   ([`std::io::ErrorKind::Unsupported`]) is answered with
//!   `ERROR unsupported message ...` and the connection stays alive.
//!   Torn framing (`InvalidData`) still closes the connection: the
//!   stream position is unknown.

use crate::commit::{CommitTicket, GroupCommitter};
use crate::netpoll::{self, PollFd, WakeReceiver, Waker, POLLDEAD, POLLIN, POLLOUT};
use crate::server::UucsServer;
use std::collections::VecDeque;
use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uucs_protocol::wire::{read_client_msg, write_server_msg};
use uucs_protocol::{ClientMsg, ServerMsg, WIRE_VERSION_BINARY};
use uucs_telemetry::{metrics, Counter, Gauge};
use uucs_wire::frame::{try_read_client_frame, write_server_frame};
use uucs_wire::{FrameRead, MAX_PIPELINE};

/// Wire-protocol telemetry: how many live connections speak each
/// framing, and how many verbs arrived over each wire version.
struct WireMetrics {
    text_conns: Gauge,
    binary_conns: Gauge,
    v1_verbs: Counter,
    v2_verbs: Counter,
}

fn wire_metrics() -> &'static WireMetrics {
    static METRICS: std::sync::OnceLock<WireMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| WireMetrics {
        text_conns: metrics::gauge("server.wire.text_conns"),
        binary_conns: metrics::gauge("server.wire.binary_conns"),
        v1_verbs: metrics::counter("server.wire.v1.verbs"),
        v2_verbs: metrics::counter("server.wire.v2.verbs"),
    })
}

/// RAII tracking of which framing gauge a connection occupies. Every
/// connection starts text (negotiation itself is text); `upgrade`
/// moves it to the binary gauge; drop releases whichever it holds.
struct WireConnGauge {
    binary: bool,
}

impl WireConnGauge {
    fn text() -> Self {
        wire_metrics().text_conns.inc();
        WireConnGauge { binary: false }
    }

    fn upgrade(&mut self) {
        if !self.binary {
            wire_metrics().text_conns.dec();
            wire_metrics().binary_conns.inc();
            self.binary = true;
        }
    }
}

impl Drop for WireConnGauge {
    fn drop(&mut self) {
        if self.binary {
            wire_metrics().binary_conns.dec();
        } else {
            wire_metrics().text_conns.dec();
        }
    }
}

/// Tuning knobs for the TCP front end.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Per-connection read deadline: a connection idle (or stalled
    /// mid-message) longer than this is closed. `None` waits forever —
    /// the pre-hardening behaviour.
    pub read_timeout: Option<Duration>,
    /// Maximum simultaneously served connections; arrivals beyond it are
    /// answered `ERROR server at capacity` and closed.
    pub max_connections: usize,
    /// Backoff after a transient `accept(2)` error.
    pub accept_retry: Duration,
    /// How long [`ServerHandle::shutdown`] waits for the workers to
    /// drain before giving up on the stragglers.
    pub drain_deadline: Duration,
    /// Worker threads; `0` sizes from the machine's available
    /// parallelism.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            read_timeout: Some(Duration::from_secs(30)),
            // The worker pool spends a file descriptor, not a thread,
            // per connection — the default cap is sized for fleets, not
            // for the old 256-thread budget.
            max_connections: 4096,
            accept_retry: Duration::from_millis(50),
            drain_deadline: Duration::from_secs(5),
            workers: 0,
        }
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8)
}

/// A running TCP server; dropping it (after [`ServerHandle::shutdown`])
/// joins the accept loop.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Connections currently owned by a worker (or queued for one).
    live: Arc<AtomicUsize>,
    workers: Vec<JoinHandle<()>>,
    /// One per worker; shutdown writes each so no worker sleeps
    /// through the stop flag.
    wakers: Vec<Arc<Waker>>,
    drain_deadline: Duration,
    /// The shared server state, for inspection by tests and drivers.
    pub server: Arc<UucsServer>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of connections currently being served.
    pub fn live_connections(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Requests shutdown and drains: stops accepting, closes every
    /// connection, and joins the worker threads within the configured
    /// deadline. Returns `true` if everything drained, `false` if
    /// stragglers were left behind (their threads die with the process).
    pub fn shutdown(mut self) -> bool {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let deadline = Instant::now() + self.drain_deadline;
        // Workers wake, see the stop flag and close their connections
        // themselves.
        for w in &self.wakers {
            w.wake();
        }
        let mut drained = true;
        for w in std::mem::take(&mut self.workers) {
            // `JoinHandle` has no timed join; poll `is_finished` against
            // the deadline.
            while !w.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if w.is_finished() {
                let _ = w.join();
            } else {
                drained = false;
            }
        }
        drained
    }
}

/// Binds `127.0.0.1:0` (or a specific address) and serves the given
/// server state until shutdown, with default hardening ([`ServeConfig`]).
pub fn serve(server: Arc<UucsServer>, addr: &str) -> std::io::Result<ServerHandle> {
    serve_with(server, addr, ServeConfig::default())
}

/// Cap on a connection's buffered unparsed input: a peer that streams
/// this much without ever completing a frame is hostile or broken.
const MAX_INBUF: usize = 4 * 1024 * 1024;

/// The coarsest a worker's `poll` timeout gets: the granularity at
/// which read deadlines are enforced (a shorter
/// [`ServeConfig::read_timeout`] shortens it). Nothing on the request
/// path waits for it.
pub const TICK: Duration = Duration::from_millis(250);

/// Front-end telemetry: how often workers return from `poll`, and how
/// many connections those returns stepped.
struct PoolMetrics {
    wakeups: Counter,
    ready: Counter,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: std::sync::OnceLock<PoolMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        wakeups: metrics::counter("server.tcp.wakeups"),
        ready: metrics::counter("server.tcp.ready"),
    })
}

/// Queues handing accepted sockets from the accept loop to the workers,
/// each paired with the waker that tells its worker to look.
struct PoolShared {
    queues: Vec<Mutex<VecDeque<TcpStream>>>,
    wakers: Vec<Arc<Waker>>,
    stop: Arc<AtomicBool>,
}

/// [`serve`] with explicit tuning.
pub fn serve_with(
    server: Arc<UucsServer>,
    addr: &str,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let live = Arc::new(AtomicUsize::new(0));
    let nworkers = if config.workers == 0 {
        default_workers()
    } else {
        config.workers
    };
    let mut wakers = Vec::with_capacity(nworkers);
    let mut receivers = Vec::with_capacity(nworkers);
    for _ in 0..nworkers {
        let (waker, receiver) = netpoll::wake_pair()?;
        server.committer().subscribe(&waker);
        wakers.push(waker);
        receivers.push(receiver);
    }
    let shared = Arc::new(PoolShared {
        queues: (0..nworkers).map(|_| Mutex::new(VecDeque::new())).collect(),
        wakers: wakers.clone(),
        stop: stop.clone(),
    });
    let live_gauge = metrics::gauge("server.connections.live");
    let accepted = metrics::counter("server.connections.accepted");
    let rejected = metrics::counter("server.connections.rejected");

    let mut workers = Vec::with_capacity(nworkers);
    for (i, receiver) in receivers.into_iter().enumerate() {
        let shared = shared.clone();
        let server = server.clone();
        let live = live.clone();
        let live_gauge = live_gauge.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("uucs-worker-{i}"))
                .spawn(move || worker_loop(i, receiver, shared, server, live, live_gauge, config))
                .expect("spawn pool worker"),
        );
    }

    let stop2 = stop.clone();
    let shared2 = shared.clone();
    let live2 = live.clone();
    let live_gauge2 = live_gauge.clone();
    let accept_thread = std::thread::Builder::new()
        .name("uucs-accept".into())
        .spawn(move || {
            let mut next = 0usize;
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        if live2.load(Ordering::SeqCst) >= config.max_connections {
                            // Over the cap: answer and close without
                            // spending a descriptor slot on the peer.
                            rejected.inc();
                            let mut w = stream;
                            let _ = write_server_msg(
                                &mut w,
                                &ServerMsg::Error("server at capacity".into()),
                            );
                            continue;
                        }
                        live2.fetch_add(1, Ordering::SeqCst);
                        accepted.inc();
                        live_gauge2.inc();
                        let q = next % shared2.queues.len();
                        next = next.wrapping_add(1);
                        shared2.queues[q]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push_back(stream);
                        shared2.wakers[q].wake();
                    }
                    // A transient accept failure (EMFILE, ECONNABORTED,
                    // a half-open handshake torn down...) must not kill
                    // the whole server: back off briefly, keep listening.
                    Err(_) => std::thread::sleep(config.accept_retry),
                }
            }
        })
        .expect("spawn accept thread");

    Ok(ServerHandle {
        addr: local,
        stop,
        accept_thread: Some(accept_thread),
        live,
        workers,
        wakers,
        drain_deadline: config.drain_deadline,
        server,
    })
}

/// One reply parked on a group-commit fsync: redeemed when the
/// committer wakes the worker, serialized only once the watermark is
/// durable. `req_id` is `None` on a text connection (text replies carry
/// no correlation id).
struct Parked {
    req_id: Option<u32>,
    ticket: CommitTicket,
    reply: ServerMsg,
}

/// Per-connection state machine of the worker pool.
struct PoolConn {
    stream: TcpStream,
    /// Unparsed input bytes (possibly a partial frame at the tail).
    inbuf: Vec<u8>,
    /// Serialized replies not yet flushed to the socket.
    outbuf: Vec<u8>,
    /// Replies parked on group-commit fsyncs, oldest first. A text
    /// connection parks at most one and stops parsing input while it
    /// waits (replies stay ordered, exactly the legacy discipline); a
    /// binary connection keeps parsing up to [`MAX_PIPELINE`] parked
    /// acks — that is what request pipelining buys.
    pending: VecDeque<Parked>,
    /// Which framing gauge this connection occupies — and, via
    /// [`WireConnGauge::binary`], which framing it currently speaks.
    wire: WireConnGauge,
    /// Peer closed its write side; serve what is buffered, then close.
    eof: bool,
    /// `BYE` received (or torn input on an eof'd stream): close after
    /// the outbuf flushes.
    closing: bool,
    last_activity: Instant,
}

/// What one step decided about a connection.
enum Step {
    Keep,
    Close,
}

impl PoolConn {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        // Replies are small multi-write frames; don't let Nagle sit on
        // them.
        let _ = stream.set_nodelay(true);
        Ok(PoolConn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            pending: VecDeque::new(),
            wire: WireConnGauge::text(),
            eof: false,
            closing: false,
            last_activity: Instant::now(),
        })
    }

    /// How many replies may park on fsync tickets before this
    /// connection stops parsing further input.
    fn pipeline_cap(&self) -> usize {
        if self.wire.binary {
            MAX_PIPELINE
        } else {
            1
        }
    }

    /// Whether another request may be read and parsed: the pipeline
    /// window has room (one parked reply stalls a text connection, a
    /// binary one keeps going until MAX_PIPELINE acks are in flight)
    /// and the conversation is not over.
    fn may_parse(&self) -> bool {
        self.pending.len() < self.pipeline_cap() && !self.eof && !self.closing
    }

    /// The `poll` interest set: readable only while the connection may
    /// parse, writable only while it owes bytes. A connection waiting
    /// on nothing but a parked ticket asks for neither — the committer's
    /// wake brings the worker back to it.
    fn interest(&self) -> i16 {
        let mut events = 0;
        if self.may_parse() {
            events |= POLLIN;
        }
        if !self.outbuf.is_empty() {
            events |= POLLOUT;
        }
        events
    }

    fn poll_fd(&self) -> PollFd {
        PollFd::new(self.stream.as_raw_fd(), self.interest())
    }

    /// Serializes one reply in whatever framing the connection speaks.
    fn push_reply(&mut self, req_id: Option<u32>, reply: &ServerMsg) {
        match req_id {
            Some(id) => {
                let _ = write_server_frame(&mut self.outbuf, id, reply);
            }
            None => {
                let _ = write_server_msg(&mut self.outbuf, reply);
            }
        }
    }

    /// Advances the connection as far as it can go without blocking:
    /// read what `revents` says is there, parse and handle, redeem
    /// parked replies, and — last, so nothing produced here waits for
    /// an unrelated event — flush.
    fn step(&mut self, revents: i16, server: &UucsServer) -> Step {
        let mut progressed = false;

        // 1. Drain readable bytes. An error or hang-up condition is
        // reported whatever the interest set, so a connection that is
        // not reading (window full, eof) must close on it here or the
        // worker would spin on a dead socket.
        if revents & POLLDEAD != 0 && !self.may_parse() {
            return Step::Close;
        }
        if revents & (POLLIN | POLLDEAD) != 0 && self.may_parse() {
            let mut buf = [0u8; 4096];
            loop {
                match self.stream.read(&mut buf) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => {
                        self.inbuf.extend_from_slice(&buf[..n]);
                        progressed = true;
                        if self.inbuf.len() > MAX_INBUF {
                            return Step::Close;
                        }
                        // A short read emptied the socket; `poll` is
                        // level-triggered, so anything that arrives
                        // after it brings the worker straight back.
                        if n < buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Step::Close,
                }
            }
        }

        // 2. Parse what the window admits, then redeem parked replies;
        // a redeemed reply reopens the window over input that is
        // already buffered (no socket event will announce it), so go
        // round again while that is the case.
        loop {
            match self.parse(server) {
                Ok(parsed) => progressed |= parsed,
                Err(()) => return Step::Close,
            }
            let redeemed = self.redeem(server.committer());
            progressed |= redeemed;
            if !(redeemed && self.may_parse() && !self.inbuf.is_empty()) {
                break;
            }
        }

        // 3. Flush buffered replies.
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => return Step::Close,
                Ok(n) => {
                    self.outbuf.drain(..n);
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Step::Close,
            }
        }

        // 4. Lifecycle: a finished conversation closes once everything
        // owed has been flushed.
        let flushed = self.outbuf.is_empty() && self.pending.is_empty();
        if self.closing && flushed {
            return Step::Close;
        }
        if self.eof && flushed && self.inbuf.is_empty() {
            return Step::Close;
        }
        if self.eof && self.pending.is_empty() && !self.inbuf.is_empty() {
            // Bytes that can never complete a frame (peer is gone).
            let never_completes = if self.wire.binary {
                matches!(try_read_client_frame(&self.inbuf), Ok(FrameRead::Incomplete))
            } else {
                let mut cursor = Cursor::new(&self.inbuf[..]);
                matches!(read_client_msg(&mut cursor),
                         Err(ref e) if e.kind() == std::io::ErrorKind::UnexpectedEof)
            };
            if never_completes {
                return Step::Close;
            }
        }

        if progressed {
            self.last_activity = Instant::now();
        }
        Step::Keep
    }

    /// Whether the read deadline has passed with nothing owed to the
    /// peer (a reply parked on an fsync is the server's delay, not the
    /// peer's).
    fn timed_out(&self, read_timeout: Duration) -> bool {
        self.pending.is_empty() && self.last_activity.elapsed() > read_timeout
    }

    /// Redeems parked replies whose fsync landed — oldest first, so a
    /// pipelined client's acks still arrive in request order even when
    /// many are parked at once. Returns whether any reply was released.
    fn redeem(&mut self, committer: &GroupCommitter) -> bool {
        let mut redeemed = false;
        while let Some(ticket) = self.pending.front().map(|p| p.ticket) {
            let Some(outcome) = committer.poll(ticket) else {
                break;
            };
            let done = self.pending.pop_front().expect("front exists");
            let reply = outcome.err().map_or(done.reply, ServerMsg::Error);
            self.push_reply(done.req_id, &reply);
            redeemed = true;
        }
        redeemed
    }

    /// Parses and handles every complete frame the pipeline window
    /// admits, in whichever framing the connection currently speaks. A
    /// `HELLO` that negotiates binary flips the framing *between*
    /// messages: the reply is serialized in text first, then every
    /// later byte on the connection is a binary frame. `Ok` carries
    /// whether anything was consumed; `Err` means the stream position
    /// is lost and the connection must close.
    fn parse(&mut self, server: &UucsServer) -> Result<bool, ()> {
        let mut progressed = false;
        while self.pending.len() < self.pipeline_cap() && !self.closing && !self.inbuf.is_empty() {
            if self.wire.binary {
                match try_read_client_frame(&self.inbuf) {
                    Ok(FrameRead::Incomplete) => break,
                    Ok(FrameRead::Msg {
                        consumed,
                        req_id,
                        msg,
                    }) => {
                        self.inbuf.drain(..consumed);
                        wire_metrics().v2_verbs.inc();
                        if matches!(msg, ClientMsg::Bye) {
                            self.closing = true;
                        } else {
                            let (reply, ticket) = server.handle_deferred(&msg);
                            match ticket {
                                Some(t) => self.pending.push_back(Parked {
                                    req_id: Some(req_id),
                                    ticket: t,
                                    reply,
                                }),
                                None => self.push_reply(Some(req_id), &reply),
                            }
                        }
                        progressed = true;
                    }
                    // An intact frame from the future: answer on the
                    // same correlation id, keep the connection.
                    Ok(FrameRead::Unknown {
                        consumed,
                        req_id,
                        opcode,
                    }) => {
                        self.inbuf.drain(..consumed);
                        let reply = ServerMsg::Error(format!(
                            "unsupported message: unknown opcode {opcode}"
                        ));
                        self.push_reply(Some(req_id), &reply);
                        progressed = true;
                    }
                    // An intact frame whose content must not reach
                    // the journal: same answer, same connection.
                    Ok(FrameRead::Refused {
                        consumed,
                        req_id,
                        reason,
                    }) => {
                        self.inbuf.drain(..consumed);
                        let reply = ServerMsg::Error(format!("message refused: {reason}"));
                        self.push_reply(Some(req_id), &reply);
                        progressed = true;
                    }
                    // Corrupt frame: the stream position is unknown.
                    Err(_) => return Err(()),
                }
                continue;
            }
            let mut cursor = Cursor::new(&self.inbuf[..]);
            let parsed = read_client_msg(&mut cursor);
            let consumed = cursor.position() as usize;
            match parsed {
                Ok(Some(ClientMsg::Bye)) => {
                    self.inbuf.drain(..consumed);
                    wire_metrics().v1_verbs.inc();
                    self.closing = true;
                    progressed = true;
                }
                Ok(Some(msg)) => {
                    self.inbuf.drain(..consumed);
                    wire_metrics().v1_verbs.inc();
                    let (reply, ticket) = server.handle_deferred(&msg);
                    // Negotiation: the engine — not the handler — owns
                    // framing, so the flip happens here, after the text
                    // HELLO reply is queued.
                    let upgrade = matches!(
                        (&msg, &reply),
                        (ClientMsg::Hello { .. }, ServerMsg::Hello { version })
                            if *version >= WIRE_VERSION_BINARY
                    );
                    match ticket {
                        Some(t) => self.pending.push_back(Parked {
                            req_id: None,
                            ticket: t,
                            reply,
                        }),
                        None => self.push_reply(None, &reply),
                    }
                    if upgrade {
                        self.wire.upgrade();
                    }
                    progressed = true;
                }
                // Only whitespace left: consumed cleanly.
                Ok(None) => {
                    self.inbuf.clear();
                    break;
                }
                // An unknown message tag from a newer client: the read
                // stopped at a clean line boundary, so report it and
                // keep serving the connection.
                Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
                    self.inbuf.drain(..consumed);
                    let reply = ServerMsg::Error(format!("unsupported message: {e}"));
                    let _ = write_server_msg(&mut self.outbuf, &reply);
                    progressed = true;
                }
                // A strict prefix of a valid frame: wait for the rest.
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                // Torn framing: the stream position is unknown. Close.
                Err(_) => return Err(()),
            }
        }
        Ok(progressed)
    }
}

fn worker_loop(
    index: usize,
    wake: WakeReceiver,
    shared: Arc<PoolShared>,
    server: Arc<UucsServer>,
    live: Arc<AtomicUsize>,
    live_gauge: Gauge,
    config: ServeConfig,
) {
    let stats = pool_metrics();
    let tick = config.read_timeout.map_or(TICK, |t| t.min(TICK));
    let mut conns: Vec<PoolConn> = Vec::new();
    // The poll set: `fds[0]` is the waker, `fds[i + 1]` is `conns[i]`.
    let mut fds = vec![wake.poll_fd()];
    let mut last_scan = Instant::now();
    let close = |_c: PoolConn| {
        // Dropping the stream closes the socket; the peer sees EOF.
        live.fetch_sub(1, Ordering::SeqCst);
        live_gauge.dec();
    };
    loop {
        let timeout = tick.saturating_sub(last_scan.elapsed());
        let ready = match netpoll::poll_ready(&mut fds, timeout) {
            Ok(n) => n,
            // ENOMEM-class trouble: back off like the accept loop does
            // (`revents` are not trustworthy after a failure).
            Err(_) => {
                std::thread::sleep(config.accept_retry);
                continue;
            }
        };
        stats.wakeups.inc();

        let woken = fds[0].revents() != 0;
        if woken {
            // Disarm *before* looking at the queue, the stop flag and
            // the parked tickets: whatever is published after this
            // point writes the waker again.
            wake.disarm();
            let mut q = shared.queues[index]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            while let Some(stream) = q.pop_front() {
                match PoolConn::new(stream) {
                    Ok(conn) => {
                        fds.push(conn.poll_fd());
                        conns.push(conn);
                    }
                    Err(_) => {
                        live.fetch_sub(1, Ordering::SeqCst);
                        live_gauge.dec();
                    }
                }
            }
            drop(q);
            if shared.stop.load(Ordering::SeqCst) {
                for c in conns.drain(..) {
                    close(c);
                }
                return;
            }
        }

        // Step what `poll` reported ready and, after a wake (the
        // committer may have finished a pass, a follower may have
        // acknowledged) or on the tick (a ticket's quorum deadline may
        // have passed with nobody left to wake us), what has parked
        // tickets.
        let ticked = last_scan.elapsed() >= tick;
        if ready > 0 || ticked {
            let mut i = 0;
            while i < conns.len() {
                let revents = fds[i + 1].revents();
                let parked = (woken || ticked) && !conns[i].pending.is_empty();
                if revents == 0 && !parked {
                    i += 1;
                    continue;
                }
                stats.ready.inc();
                match conns[i].step(revents, &server) {
                    Step::Keep => {
                        fds[i + 1].set_events(conns[i].interest());
                        i += 1;
                    }
                    Step::Close => {
                        close(conns.swap_remove(i));
                        fds.swap_remove(i + 1);
                    }
                }
            }
        }

        // Read deadlines, once per tick rather than once per event.
        if ticked {
            last_scan = Instant::now();
            if let Some(t) = config.read_timeout {
                let mut i = 0;
                while i < conns.len() {
                    if conns[i].timed_out(t) {
                        close(conns.swap_remove(i));
                        fds.swap_remove(i + 1);
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TestcaseStore;
    use std::io::{BufReader, Write};
    use uucs_protocol::wire::{read_server_msg, write_client_msg};
    use uucs_protocol::{MachineSnapshot, ServerMsg};
    use uucs_testcase::{ExerciseSpec, Resource, Testcase};

    fn start() -> ServerHandle {
        start_with(ServeConfig::default())
    }

    fn start_with(config: ServeConfig) -> ServerHandle {
        let lib = TestcaseStore::from_testcases(
            (0..10)
                .map(|i| {
                    Testcase::single(
                        format!("t{i}"),
                        1.0,
                        Resource::Disk,
                        ExerciseSpec::Ramp {
                            level: 2.0,
                            duration: 10.0,
                        },
                    )
                })
                .collect(),
        )
        .expect("generated ids are unique");
        serve_with(Arc::new(UucsServer::new(lib, 9)), "127.0.0.1:0", config).unwrap()
    }

    #[test]
    fn register_sync_upload_over_tcp() {
        let handle = start();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        write_client_msg(
            &mut writer,
            &ClientMsg::register(MachineSnapshot::study_machine("tcp-test")),
        )
        .unwrap();
        let id = match read_server_msg(&mut reader).unwrap() {
            ServerMsg::Id { id, .. } => id,
            other => panic!("{other:?}"),
        };

        write_client_msg(
            &mut writer,
            &ClientMsg::Sync {
                client: id.clone(),
                have: 0,
                want: 4,
            },
        )
        .unwrap();
        match read_server_msg(&mut reader).unwrap() {
            ServerMsg::Testcases(tcs) => assert_eq!(tcs.len(), 4),
            other => panic!("{other:?}"),
        }

        write_client_msg(
            &mut writer,
            &ClientMsg::Upload {
                client: id,
                seq: 1,
                records: vec![],
            },
        )
        .unwrap();
        assert!(matches!(
            read_server_msg(&mut reader).unwrap(),
            ServerMsg::Ack(0)
        ));

        write_client_msg(&mut writer, &ClientMsg::Bye).unwrap();
        assert_eq!(handle.server.client_count(), 1);
        handle.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let handle = start();
        let addr = handle.addr();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    let mut writer = stream.try_clone().unwrap();
                    let mut reader = BufReader::new(stream);
                    write_client_msg(
                        &mut writer,
                        &ClientMsg::register(MachineSnapshot::study_machine(format!("h{i}"))),
                    )
                    .unwrap();
                    match read_server_msg(&mut reader).unwrap() {
                        ServerMsg::Id { id, .. } => id,
                        other => panic!("{other:?}"),
                    }
                })
            })
            .collect();
        let mut ids: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 4, "all clients got distinct ids");
        assert_eq!(handle.server.client_count(), 4);
        handle.shutdown();
    }

    #[test]
    fn shutdown_stops_accepting() {
        let handle = start();
        let addr = handle.addr();
        handle.shutdown();
        // After shutdown the listener is gone; connecting fails or the
        // connection is immediately useless. Either way no panic.
        let _ = TcpStream::connect(addr);
    }

    #[test]
    fn unknown_message_answered_and_connection_survives() {
        let handle = start();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // A message tag from the future.
        writer.write_all(b"TELEPORT now\n").unwrap();
        writer.flush().unwrap();
        match read_server_msg(&mut reader).unwrap() {
            ServerMsg::Error(e) => assert!(e.contains("unsupported"), "{e}"),
            other => panic!("{other:?}"),
        }
        // The connection is still alive and serves known messages.
        write_client_msg(
            &mut writer,
            &ClientMsg::register(MachineSnapshot::study_machine("future")),
        )
        .unwrap();
        assert!(matches!(
            read_server_msg(&mut reader).unwrap(),
            ServerMsg::Id { .. }
        ));
        handle.shutdown();
    }

    #[test]
    fn stalled_connection_is_closed_after_read_timeout() {
        let handle = start_with(ServeConfig {
            read_timeout: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        });
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        write_client_msg(
            &mut writer,
            &ClientMsg::register(MachineSnapshot::study_machine("staller")),
        )
        .unwrap();
        assert!(matches!(
            read_server_msg(&mut reader).unwrap(),
            ServerMsg::Id { .. }
        ));
        // ... then go silent. The server must hang up on us.
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 1];
        let hung_up = matches!(std::io::Read::read(&mut reader, &mut buf), Ok(0));
        assert!(hung_up, "server kept a stalled connection alive");
        handle.shutdown();
    }

    /// A reply produced by a non-ticketed verb goes out in the step that
    /// produced it. Left in `outbuf` it would ride the next tick, two
    /// orders of magnitude above this bound; the best of a few rounds
    /// keeps a loaded machine's scheduling hiccups out of the verdict.
    #[test]
    fn sync_reply_does_not_wait_for_an_unrelated_event() {
        let handle = start();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write_client_msg(
            &mut writer,
            &ClientMsg::register(MachineSnapshot::study_machine("prompt")),
        )
        .unwrap();
        let ServerMsg::Id { id, .. } = read_server_msg(&mut reader).unwrap() else {
            panic!("expected an id");
        };
        let best = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                write_client_msg(
                    &mut writer,
                    &ClientMsg::Sync {
                        client: id.clone(),
                        have: 0,
                        want: 4,
                    },
                )
                .unwrap();
                assert!(matches!(
                    read_server_msg(&mut reader).unwrap(),
                    ServerMsg::Testcases(_)
                ));
                t0.elapsed()
            })
            .min()
            .unwrap();
        assert!(best < Duration::from_millis(50), "SYNC took {best:?}");
        handle.shutdown();
    }

    /// A text connection stops parsing while an ack is parked on the
    /// group commit. A second request already sitting in the input
    /// buffer must be served when that ack is redeemed — no socket
    /// event will ever announce it.
    #[test]
    fn buffered_request_behind_a_parked_ack_is_served() {
        let dir = uucs_harness::TempDir::new("uucs-tcp-parked");
        let cfg = uucs_wal::WalConfig {
            sync: uucs_wal::SyncPolicy::Never,
            ..uucs_wal::WalConfig::default()
        };
        let (stores, _) = crate::StoreSet::open(dir.path(), cfg, 2).unwrap();
        let server =
            UucsServer::with_store_set(stores, 9).with_group_commit(Duration::from_micros(200));
        let handle = serve(Arc::new(server), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write_client_msg(
            &mut writer,
            &ClientMsg::register(MachineSnapshot::study_machine("eager")),
        )
        .unwrap();
        let ServerMsg::Id { id, .. } = read_server_msg(&mut reader).unwrap() else {
            panic!("expected an id");
        };
        // Three uploads in one write: each parks, each is behind the last.
        let mut burst = Vec::new();
        for seq in 1..=3 {
            write_client_msg(
                &mut burst,
                &ClientMsg::Upload {
                    client: id.clone(),
                    seq,
                    records: vec![],
                },
            )
            .unwrap();
        }
        writer.write_all(&burst).unwrap();
        for _ in 1..=3 {
            assert!(matches!(
                read_server_msg(&mut reader).expect("ack within the read timeout"),
                ServerMsg::Ack(0)
            ));
        }
        handle.shutdown();
    }

    /// The production defaults: the connection budget is sized for
    /// fleets (descriptors, not threads). Changing it is a
    /// protocol-level decision, not a refactoring accident.
    #[test]
    fn default_cap_is_fleet_scale() {
        let config = ServeConfig::default();
        assert_eq!(config.max_connections, 4096);
        assert_eq!(config.workers, 0, "0 = size from the machine");
    }

    /// Flag round-trips: explicit cap/worker settings survive
    /// into the running server's behavior.
    #[test]
    fn config_round_trips_through_serve() {
        let handle = start_with(ServeConfig {
            max_connections: 2,
            workers: 1,
            ..ServeConfig::default()
        });
        // Two connections fit ...
        let hold: Vec<TcpStream> = (0..2)
            .map(|i| {
                let s = TcpStream::connect(handle.addr()).unwrap();
                let mut w = s.try_clone().unwrap();
                let mut r = BufReader::new(s.try_clone().unwrap());
                write_client_msg(
                    &mut w,
                    &ClientMsg::register(MachineSnapshot::study_machine(format!("cap{i}"))),
                )
                .unwrap();
                assert!(matches!(
                    read_server_msg(&mut r).unwrap(),
                    ServerMsg::Id { .. }
                ));
                s
            })
            .collect();
        assert_eq!(handle.live_connections(), 2);
        // ... the third is told the server is full.
        let third = TcpStream::connect(handle.addr()).unwrap();
        let mut r3 = BufReader::new(third);
        match read_server_msg(&mut r3).unwrap() {
            ServerMsg::Error(e) => assert!(e.contains("capacity"), "{e}"),
            other => panic!("{other:?}"),
        }
        drop(hold);
        handle.shutdown();
    }

    #[test]
    fn connection_cap_rejects_politely() {
        let handle = start_with(ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        });
        // First connection occupies the only slot.
        let first = TcpStream::connect(handle.addr()).unwrap();
        let mut w1 = first.try_clone().unwrap();
        let mut r1 = BufReader::new(first);
        write_client_msg(
            &mut w1,
            &ClientMsg::register(MachineSnapshot::study_machine("holder")),
        )
        .unwrap();
        assert!(matches!(read_server_msg(&mut r1).unwrap(), ServerMsg::Id { .. }));
        // Second arrival is told the server is full, not silently hung.
        let second = TcpStream::connect(handle.addr()).unwrap();
        let mut r2 = BufReader::new(second);
        match read_server_msg(&mut r2).unwrap() {
            ServerMsg::Error(e) => assert!(e.contains("capacity"), "{e}"),
            other => panic!("{other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn shutdown_drains_open_connections() {
        let handle = start();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write_client_msg(
            &mut writer,
            &ClientMsg::register(MachineSnapshot::study_machine("lingerer")),
        )
        .unwrap();
        assert!(matches!(
            read_server_msg(&mut reader).unwrap(),
            ServerMsg::Id { .. }
        ));
        assert_eq!(handle.live_connections(), 1);
        // The connection is idle-open; shutdown must still drain it
        // within the deadline rather than leak the worker.
        assert!(handle.shutdown(), "workers did not drain");
    }

    /// A request split across many tiny writes parses once complete —
    /// the pool's buffer state machine reassembles partial frames.
    #[test]
    fn fragmented_frames_reassemble() {
        let handle = start();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut msg = Vec::new();
        write_client_msg(
            &mut msg,
            &ClientMsg::register(MachineSnapshot::study_machine("dribbler")),
        )
        .unwrap();
        for chunk in msg.chunks(3) {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut reader = BufReader::new(stream);
        assert!(matches!(
            read_server_msg(&mut reader).unwrap(),
            ServerMsg::Id { .. }
        ));
        handle.shutdown();
    }
}
