//! The closed-loop load generator: one process, two threads, two TCP
//! connections over loopback (`nproc` is 2 here, and the generator
//! never runs more threads than that). Each connection sends its next
//! request only when the previous reply — or, pipelined, the oldest
//! in-flight reply — has arrived, so a slower server receives less
//! load. Each connection serves its half of the 64 identities in turn.

use crate::gen::{Identity, RecordGen};
use crate::json::StatsSnapshot;
use crate::spans::Tracer;
use crate::stats;
use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use uucs_client::{BorrowingGovernor, ClientTransport, ResilientTransport, WireMode};
use uucs_protocol::wire::{read_server_msg, write_client_msg};
use uucs_protocol::{ClientMsg, MachineSnapshot, ServerMsg, WIRE_VERSION_BINARY};
use uucs_testcase::Resource;
use uucs_wire::conn::{negotiate, Negotiated};
use uucs_wire::frame::{encode_client_frame, read_server_frame};

/// Load connections (and load threads).
pub const CONNECTIONS: usize = 2;

/// No reply within this long fails the exchange: a closed loop must
/// not hang on a wedged server.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One load connection, text (wire v1) or binary (wire v2).
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    binary: bool,
    next_req: u32,
}

impl Conn {
    /// Dials `addr`. With `binary`, runs the text `HELLO` exchange and
    /// requires the server to agree on wire v2.
    pub fn connect(addr: &str, binary: bool) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        if binary {
            match negotiate(&mut writer, &mut reader, WIRE_VERSION_BINARY)? {
                Negotiated::Version(v) if v >= WIRE_VERSION_BINARY => {}
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("server did not agree on wire v2: {other:?}"),
                    ))
                }
            }
        }
        Ok(Conn {
            writer,
            reader,
            binary,
            next_req: 1,
        })
    }

    /// Appends `msg`, encoded for this connection's framing, to `buf`
    /// and returns the request id the reply must echo (0 on text).
    fn encode(&mut self, msg: &ClientMsg, buf: &mut Vec<u8>) -> io::Result<u32> {
        if self.binary {
            let req = self.next_req;
            self.next_req = self.next_req.checked_add(1).unwrap_or(1);
            buf.extend_from_slice(&encode_client_frame(req, msg)?);
            Ok(req)
        } else {
            write_client_msg(buf, msg)?;
            Ok(0)
        }
    }

    /// Whether a whole reply is already buffered, so reading it cannot
    /// block. Upload replies are one frame or one line.
    fn reply_buffered(&self) -> bool {
        let buffered = self.reader.buffer();
        if self.binary {
            buffered.len() >= 8
                && buffered.len() - 8
                    >= u32::from_le_bytes(buffered[..4].try_into().expect("4 bytes")) as usize
        } else {
            buffered.contains(&b'\n')
        }
    }

    fn read_reply(&mut self) -> io::Result<(u32, ServerMsg)> {
        if self.binary {
            read_server_frame(&mut self.reader)
        } else {
            read_server_msg(&mut self.reader).map(|m| (0, m))
        }
    }

    /// One strict request/reply exchange.
    pub fn exchange(&mut self, msg: &ClientMsg) -> io::Result<ServerMsg> {
        let mut buf = Vec::new();
        let sent = self.encode(msg, &mut buf)?;
        self.writer.write_all(&buf)?;
        let (req, reply) = self.read_reply()?;
        if req != sent {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply answers request {req}, expected {sent}"),
            ));
        }
        Ok(reply)
    }

    /// Registers `ident` (or re-resolves it by token) and returns the
    /// server's applied upload horizon for it.
    pub fn register(&mut self, ident: &mut Identity) -> io::Result<u64> {
        let msg = ClientMsg::Register {
            snapshot: MachineSnapshot::study_machine(ident.name.clone()),
            token: ident.token.clone(),
        };
        match self.exchange(&msg)? {
            ServerMsg::Id { id, applied_seq } => {
                ident.guid = id;
                Ok(applied_seq)
            }
            other => Err(io::Error::other(format!("registration refused: {other:?}"))),
        }
    }

    /// Fetches and parses the server's `STATS` snapshot. Never sends
    /// `RESET`: it would zero the gauges the output check reads.
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        match self.exchange(&ClientMsg::Stats { reset: false })? {
            ServerMsg::Stats(json) => StatsSnapshot::parse(&json).map_err(io::Error::other),
            other => Err(io::Error::other(format!("STATS refused: {other:?}"))),
        }
    }

    /// Says `BYE`; errors are ignored, the session is over either way.
    pub fn bye(mut self) {
        let mut buf = Vec::new();
        if self.encode(&ClientMsg::Bye, &mut buf).is_ok() {
            let _ = self.writer.write_all(&buf);
        }
    }
}

/// When a load loop stops issuing new requests.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At a wall-clock deadline (a measured window).
    At(Instant),
    /// After this many requests (warm-up, preload: fixed work, so a
    /// slower server shows as a longer set-up).
    After(u64),
}

/// One stretch of load: when its clock starts, when it stops issuing
/// requests, and whether spans are recorded.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Zero of the samples' `done_ns`.
    pub origin: Instant,
    /// When to stop issuing new requests.
    pub stop: Stop,
    /// Record a span at every client-side step.
    pub traced: bool,
}

impl Phase {
    /// An untraced phase of `n` requests, starting now.
    pub fn count(n: u64) -> Phase {
        Phase {
            origin: Instant::now(),
            stop: Stop::After(n),
            traced: false,
        }
    }

    /// A phase that lasts `window` from now.
    pub fn window(window: Duration, traced: bool) -> Phase {
        let origin = Instant::now();
        Phase {
            origin,
            stop: Stop::At(origin + window),
            traced,
        }
    }
}

impl Stop {
    fn reached(&self, issued: u64) -> bool {
        match self {
            Stop::At(t) => Instant::now() >= *t,
            Stop::After(n) => issued >= *n,
        }
    }
}

/// One completed operation: when it completed (ns since the loop's
/// `origin`) and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, ns since the window began.
    pub done_ns: u64,
    /// Request written → reply read, ns.
    pub latency_ns: u64,
}

/// What one load thread did.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// One sample per successful operation (a session on `hot-sync`,
    /// an upload elsewhere).
    pub samples: Vec<Sample>,
    /// Upload round trips inside `hot-sync` sessions.
    pub upload_samples: Vec<Sample>,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that errored, were refused, timed out or failed the
    /// request-id ordering check.
    pub failed: u64,
    /// Spans, when the loop ran traced.
    pub tracer: Option<Tracer>,
}

impl LoadResult {
    /// Folds another thread's result in.
    pub fn absorb(&mut self, other: LoadResult) {
        self.samples.extend(other.samples);
        self.upload_samples.extend(other.upload_samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        match (&mut self.tracer, other.tracer) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (None, theirs) => self.tracer = theirs,
            _ => {}
        }
    }
}

struct InFlight {
    req: u32,
    ident: usize,
    seq: u64,
    sent_ns: u64,
    request: u64,
    span: Option<usize>,
}

/// Uploads `batch`-record batches on `conn`, keeping up to `depth`
/// requests in flight, cycling through `idents`. `depth` must not
/// exceed `idents.len()`, so an identity never has two uploads in
/// flight and its acked sequence stays a simple horizon.
pub fn upload_loop(
    conn: &mut Conn,
    idents: &mut [Identity],
    gen: &mut RecordGen,
    batch: usize,
    depth: usize,
    phase: Phase,
) -> LoadResult {
    let Phase {
        origin,
        stop,
        traced,
    } = phase;
    assert!(depth >= 1 && depth <= idents.len());
    let mut result = LoadResult {
        tracer: traced.then(Tracer::new),
        ..LoadResult::default()
    };
    let mut next_seq: Vec<u64> = idents.iter().map(|i| i.acked_seq + 1).collect();
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(depth);
    let mut buf = Vec::new();
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let mut broken = false;
    loop {
        // Fill the window: every free slot's request goes out in one
        // write, as a pipelining client would send them.
        buf.clear();
        let first_new = inflight.len();
        while !broken && inflight.len() < depth && !stop.reached(result.attempted) {
            let ident = (result.attempted % idents.len() as u64) as usize;
            let request = result.attempted;
            let seq = next_seq[ident];
            next_seq[ident] += 1;
            let msg = ClientMsg::Upload {
                client: idents[ident].guid.clone(),
                seq,
                records: gen.batch(&idents[ident].guid, batch),
            };
            result.attempted += 1;
            let span = result
                .tracer
                .as_mut()
                .map(|t| t.open("client.upload", None, request));
            let encoded = match result.tracer.as_mut() {
                Some(t) => t.time("client.encode", span, request, || {
                    conn.encode(&msg, &mut buf)
                }),
                None => conn.encode(&msg, &mut buf),
            };
            match encoded {
                Ok(req) => inflight.push_back(InFlight {
                    req,
                    ident,
                    seq,
                    sent_ns: 0,
                    request,
                    span,
                }),
                Err(_) => {
                    result.failed += 1;
                    broken = true;
                }
            }
        }
        if inflight.len() > first_new {
            let sent_ns = now_ns();
            for f in inflight.iter_mut().skip(first_new) {
                f.sent_ns = sent_ns;
            }
            if conn.writer.write_all(&buf).is_err() {
                result.failed += inflight.len() as u64;
                inflight.clear();
                broken = true;
            }
        }
        if inflight.is_empty() {
            break;
        }
        // Wait for the oldest reply, then take every further reply that
        // has already arrived before sending again.
        while let Some(front) = inflight.pop_front() {
            let reply = conn.read_reply();
            let done_ns = now_ns();
            if let (Some(t), Some(span)) = (result.tracer.as_mut(), front.span) {
                // Written → reply read and decoded; on a pipelined
                // connection this includes the queue ahead of the request.
                let end = t.now_ns();
                let start = end.saturating_sub(done_ns - front.sent_ns);
                t.record("client.round_trip", start, end, Some(span), front.request);
                t.close(span);
            }
            match reply {
                Ok((req, ServerMsg::Ack(n))) if req == front.req && n == batch => {
                    let ident = &mut idents[front.ident];
                    ident.acked_seq = front.seq;
                    ident.acked_uploads += 1;
                    result.samples.push(Sample {
                        done_ns,
                        latency_ns: done_ns - front.sent_ns,
                    });
                }
                Ok(_) => result.failed += 1,
                Err(_) => {
                    // The connection is gone: everything in flight is lost.
                    result.failed += 1 + inflight.len() as u64;
                    inflight.clear();
                    broken = true;
                }
            }
            if !conn.reply_buffered() {
                break;
            }
        }
    }
    result
}

/// Records per `hot-sync` upload, and testcases asked for per `SYNC`.
pub const SESSION_BATCH: usize = 8;

/// Runs `hot-sync` sessions over the real client transport
/// (`ResilientTransport`, `--wire auto`): `SYNC have=(8k mod 2048)
/// want=8`, `UPLOAD` of 8 records, then `BorrowingGovernor::refresh`
/// (`ADVICE`, then `MODELDELTA` against the cached sketch or a full
/// `MODEL` on the first round).
pub fn session_loop(
    transport: &mut ResilientTransport,
    governor: &mut BorrowingGovernor,
    idents: &mut [Identity],
    gen: &mut RecordGen,
    phase: Phase,
) -> LoadResult {
    let Phase {
        origin,
        stop,
        traced,
    } = phase;
    let mut result = LoadResult {
        tracer: traced.then(Tracer::new),
        ..LoadResult::default()
    };
    let now_ns = || origin.elapsed().as_nanos() as u64;
    while !stop.reached(result.attempted) {
        let k = result.attempted;
        let i = (k % idents.len() as u64) as usize;
        result.attempted += 1;
        let guid = idents[i].guid.clone();
        let seq = idents[i].acked_seq + 1;
        let sync = ClientMsg::Sync {
            client: guid.clone(),
            have: (SESSION_BATCH * k as usize) % 2048,
            want: SESSION_BATCH,
        };
        let upload = ClientMsg::Upload {
            client: guid.clone(),
            seq,
            records: gen.batch(&guid, SESSION_BATCH),
        };
        let started_ns = now_ns();
        let mut tracer = result.tracer.take();
        let span = tracer.as_mut().map(|t| t.open("client.session", None, k));
        let mut step = |name: &'static str, f: &mut dyn FnMut() -> bool| match tracer.as_mut() {
            Some(t) => t.time(name, span, k, f),
            None => f(),
        };
        let synced = step(
            "client.sync",
            &mut || matches!(transport.exchange(&sync), Ok(ServerMsg::Testcases(t)) if t.len() == SESSION_BATCH),
        );
        let upload_started_ns = now_ns();
        let acked = synced
            && step(
                "client.upload",
                &mut || matches!(transport.exchange(&upload), Ok(ServerMsg::Ack(n)) if n == SESSION_BATCH),
            );
        let upload_done_ns = now_ns();
        if acked {
            // The batch is stored whatever the governor does next.
            idents[i].acked_seq = seq;
            idents[i].acked_uploads += 1;
        }
        let refreshed = acked
            && step("client.governor_refresh", &mut || {
                governor.refresh(transport) == uucs_client::RefreshOutcome::Adopted
            });
        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
            t.close(span);
        }
        result.tracer = tracer;
        let done_ns = now_ns();
        if refreshed {
            result.samples.push(Sample {
                done_ns,
                latency_ns: done_ns - started_ns,
            });
            result.upload_samples.push(Sample {
                done_ns: upload_done_ns,
                latency_ns: upload_done_ns - upload_started_ns,
            });
        } else {
            result.failed += 1;
        }
    }
    result
}

/// The `hot-sync` client half: a transport that negotiates per fresh
/// connection and the governor it refreshes.
pub fn session_client(addr: &str) -> (ResilientTransport, BorrowingGovernor) {
    (
        ResilientTransport::new(addr)
            .with_wire_mode(WireMode::Auto)
            .with_timeout(IO_TIMEOUT),
        BorrowingGovernor::new(Resource::Cpu, "Word", 0.05, 0.0),
    )
}

/// The end-to-end figures of one measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowFigures {
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Completed operations per second.
    pub per_s: f64,
    /// Samples the figures rest on.
    pub samples: usize,
}

/// Cuts a window into whole seconds and takes p50, p99 and the rate of
/// each. A window shorter than two seconds is one slice.
pub fn slice_figures(samples: &[Sample], window: Duration) -> Vec<WindowFigures> {
    let slices = (window.as_secs() as usize).max(1);
    let slice_ns = (window.as_nanos() as u64 / slices as u64).max(1);
    let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for s in samples {
        // Replies that arrive after the deadline belong to no slice.
        if let Some(slot) = by_slice.get_mut((s.done_ns / slice_ns) as usize) {
            slot.push(s.latency_ns as f64 / 1e6);
        }
    }
    by_slice
        .iter()
        .map(|lat| {
            let sorted = stats::sorted(lat);
            WindowFigures {
                p50_ms: stats::percentile_sorted(&sorted, 0.5),
                p99_ms: stats::percentile_sorted(&sorted, 0.99),
                per_s: lat.len() as f64 / (slice_ns as f64 / 1e9),
                samples: lat.len(),
            }
        })
        .collect()
}

/// One figure per metric from the per-second figures of a run: the
/// p50 of the best second, the rate of the best second, and the median
/// over the seconds of their p99.
///
/// Best, not median: this host's disk and processor slow down for
/// seconds at a time for reasons outside the system under test, always
/// in one direction, so the fastest second is the closest observable to
/// what the software itself costs — and it repeats from run to run where
/// the median second does not. A change that makes every request slower
/// moves the best second as much as any other.
pub fn summarise(slices: &[WindowFigures]) -> WindowFigures {
    let busy: Vec<&WindowFigures> = slices.iter().filter(|s| s.samples > 0).collect();
    if busy.is_empty() {
        // Nothing completed: the run fails its output check, and the
        // figures still have to print.
        return WindowFigures::default();
    }
    let p99s: Vec<f64> = busy.iter().map(|s| s.p99_ms).collect();
    WindowFigures {
        p50_ms: busy.iter().map(|s| s.p50_ms).fold(f64::INFINITY, f64::min),
        p99_ms: stats::median(&p99s),
        per_s: busy.iter().map(|s| s.per_s).fold(0.0, f64::max),
        samples: busy.iter().map(|s| s.samples).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_figures_take_the_best_second() {
        let ms = 1_000_000u64;
        let mut samples = Vec::new();
        // Second 0: 100 ops at 2 ms. Second 1: 50 ops at 4 ms (a stall).
        // Second 2: 120 ops at 1 ms. One late reply after the deadline.
        for (second, n, lat) in [(0u64, 100u64, 2u64), (1, 50, 4), (2, 120, 1)] {
            for i in 0..n {
                samples.push(Sample {
                    done_ns: second * 1000 * ms + i * ms,
                    latency_ns: lat * ms,
                });
            }
        }
        samples.push(Sample {
            done_ns: 3001 * ms,
            latency_ns: 900 * ms,
        });
        let slices = slice_figures(&samples, Duration::from_secs(3));
        assert_eq!(slices.len(), 3);
        assert_eq!(
            (slices[1].p50_ms, slices[1].per_s, slices[1].samples),
            (4.0, 50.0, 50)
        );
        let f = summarise(&slices);
        assert_eq!(f.p50_ms, 1.0);
        assert_eq!(f.p99_ms, 2.0);
        assert_eq!(f.per_s, 120.0);
        assert_eq!(f.samples, 270);
        let empty = summarise(&slice_figures(&[], Duration::from_secs(2)));
        assert_eq!((empty.p50_ms, empty.per_s, empty.samples), (0.0, 0.0, 0));
    }
}
