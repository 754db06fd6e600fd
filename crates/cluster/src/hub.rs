//! The leader half of WAL shipping: per-shard backlogs, the `REPL`
//! listener, follower fan-out, backfill, and the quorum watermark.
//!
//! Every committed mutation routes to a replication shard by the same
//! stable hash the stores use ([`uucs_server::shard_of`]), is pushed
//! onto that shard's [`Backlog`] (a bounded in-memory retransmission
//! buffer — the node's one journal is its store's; an entry evicted
//! here merely forces a snapshot backfill), and fans out to every
//! connected follower. The push and the fan-out happen under the
//! shard's backlog lock, so followers observe each shard's sequence
//! numbers in order with no gaps.
//!
//! Shipping never blocks. Under [`AckMode::Quorum`] it returns the
//! entry's [`QuorumMark`] and the client's ack waits until a live
//! follower's acked watermark has passed it — one piece of state
//! (`FollowerSlot::acked` plus a signal) observed two ways:
//! [`ReplicationSink::poll_quorum`] by a commit ticket parked beside
//! the leader's own fsync (a follower `Commit` wakes the committer's
//! subscribers), [`ReplicationSink::wait_quorum`] by the blocking
//! `GroupCommitter::wait` once the ticket's fsync is done (a caller
//! such as `Endpoint::handle`). A replayed retry ships nothing, and its
//! ack waits for a mark at the highest sequence shipped on its key's
//! shard ([`ReplicationSink::mark_shipped`]), which covers the original.
//!
//! Sequences live as long as the hub: every leader start and every
//! promotion claims a fresh epoch, so a watermark is only meaningful
//! to the process that issued it. A follower that reconnects within
//! that lifetime resumes from its acked watermark: the leader resends
//! the backlog tail from that sequence. A watermark the backlog has
//! evicted past — or one earned under a different cluster epoch, which
//! includes every first contact — cannot be tailed; the leader instead
//! streams a full store snapshot ([`UucsServer::export`]) and
//! jumps the follower's watermark past it (*snapshot-then-tail*).

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uucs_protocol::repl::{read_repl_msg, write_repl_msg, ReplMsg};
use uucs_server::commit::QuorumMark;
use uucs_server::{shard_of, GroupCommitter, ReplicationSink, UucsServer};
use uucs_telemetry::{metrics, Counter, Gauge};

/// When the leader acknowledges a client-visible mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// Ack once the local store accepted it (lowest latency; a leader
    /// loss in the replication gap is healed by client retry + dedup).
    Local,
    /// Ack only after at least one follower acknowledged the entry —
    /// or after [`HubConfig::ack_timeout`] with no follower able to,
    /// in which case the leader degrades to local acks and counts the
    /// event (`server.repl.quorum_timeouts`) rather than refusing
    /// writes: availability over replication, per the paper's "degraded
    /// advice is acceptable, lost acknowledged uploads are not".
    Quorum,
}

impl AckMode {
    /// Parses a `--repl-ack` value.
    pub fn parse(s: &str) -> Option<AckMode> {
        match s {
            "local" => Some(AckMode::Local),
            "quorum" => Some(AckMode::Quorum),
            _ => None,
        }
    }
}

/// Replication-hub tuning.
#[derive(Debug, Clone)]
pub struct HubConfig {
    /// Ack policy for client-visible mutations.
    pub ack: AckMode,
    /// How long a quorum ack may be waited for before degrading.
    pub ack_timeout: Duration,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            ack: AckMode::Local,
            ack_timeout: Duration::from_secs(2),
        }
    }
}

/// Encoded bytes one shard's [`Backlog`] may hold — ≈ 180 two-record
/// uploads. Measured (DESIGN.md §5g) to cover a follower *restart*
/// under saturating load (16–68 missed per shard) with margin, not an
/// outage: whoever missed more catches up by snapshot instead.
const BACKLOG_BYTES: usize = 64 << 10;

/// One shard's retransmission buffer: the encoded entries of sequences
/// `floor..next()`, oldest evicted first.
#[derive(Default)]
struct Backlog {
    entries: VecDeque<Vec<u8>>,
    floor: u64,
    bytes: usize,
}

impl Backlog {
    fn next(&self) -> u64 {
        self.floor + self.entries.len() as u64
    }

    /// Holds `bytes` under the next sequence, then evicts from the
    /// front until the budget is met again — an entry larger than the
    /// whole budget goes straight through (`floor == next()`).
    fn push(&mut self, bytes: Vec<u8>) -> u64 {
        let seq = self.next();
        self.bytes += bytes.len();
        self.entries.push_back(bytes);
        while self.bytes > BACKLOG_BYTES {
            let evicted = self.entries.pop_front().expect("bytes > 0 means an entry is held");
            self.bytes -= evicted.len();
            self.floor += 1;
        }
        seq
    }

    /// The entries `wanted..next()`, or `None` when `wanted` lies
    /// outside `floor..=next()` and only a snapshot can serve it.
    fn tail(&self, wanted: u64) -> Option<impl Iterator<Item = (u64, &Vec<u8>)>> {
        let skip = usize::try_from(wanted.checked_sub(self.floor)?).ok()?;
        (skip <= self.entries.len()).then(|| (wanted..).zip(self.entries.iter().skip(skip)))
    }
}

/// One connected follower, shared between the fan-out path (sender),
/// its writer thread, and its reader thread.
struct FollowerSlot {
    node: String,
    tx: SyncSender<ReplMsg>,
    /// Per-shard acked watermark (next sequence the follower expects).
    acked: Vec<AtomicU64>,
    alive: AtomicBool,
    /// A shutdown handle on the follower's socket: severing it here
    /// unblocks both the reader thread and the follower's apply loop,
    /// so an in-process leader shutdown looks like a crash to peers.
    sock: TcpStream,
}

struct HubMetrics {
    lag_batches: Gauge,
    follower_connected: Gauge,
    quorum_timeouts: Counter,
    shipped: Counter,
    /// `[tail, snapshot]`, mirroring [`ReplHub::backfills`].
    backfills: [Counter; 2],
}

/// The replication hub. One per node; dormant (every
/// [`ReplicationSink::ship`] call is a no-op) until the node leads.
pub struct ReplHub {
    node: String,
    shards: usize,
    config: HubConfig,
    backlogs: Vec<Mutex<Backlog>>,
    /// Each backlog's `next()`, mirrored for the lag gauge so neither
    /// a ship nor a follower `Commit` takes a backlog lock for it.
    next_seq: Vec<AtomicU64>,
    /// Each shard's lag behind `next_seq` at its most-behind follower;
    /// the gauge is the max. Only the shard that moved is recomputed.
    lag: Vec<AtomicU64>,
    /// Catch-ups this hub served, `[by tail, by snapshot]`.
    backfills: [AtomicU64; 2],
    /// Quorum acks that degraded to local ones.
    quorum_timeouts: AtomicU64,
    /// Times a thread blocked in [`ReplicationSink::wait_quorum`].
    blocking_waits: AtomicU64,
    followers: Mutex<Vec<Arc<FollowerSlot>>>,
    /// Signals quorum waiters whenever any follower ack advances (or a
    /// follower disconnects, so waiters can re-check liveness).
    ack_signal: Condvar,
    ack_lock: Mutex<()>,
    /// The engine's group committer, once [`ReplHub::set_server`] ran:
    /// its subscribers hold the tickets that poll this hub, so they are
    /// woken with the blocked waiters.
    committer: OnceLock<Arc<GroupCommitter>>,
    leading: AtomicBool,
    epoch: AtomicU64,
    /// The engine backfill snapshots export from.
    server: Mutex<Option<Arc<UucsServer>>>,
    metrics: HubMetrics,
    shutdown: AtomicBool,
}

fn shut_down() -> io::Error {
    io::Error::other("leader shut down before a follower acknowledged")
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ReplHub {
    /// A dormant hub with `shards` empty backlogs.
    pub fn new(node: impl Into<String>, shards: usize, config: HubConfig) -> Arc<ReplHub> {
        Arc::new(ReplHub {
            node: node.into(),
            shards,
            config,
            backlogs: (0..shards).map(|_| Mutex::default()).collect(),
            next_seq: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            lag: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            backfills: Default::default(),
            quorum_timeouts: AtomicU64::new(0),
            blocking_waits: AtomicU64::new(0),
            followers: Mutex::new(Vec::new()),
            ack_signal: Condvar::new(),
            ack_lock: Mutex::new(()),
            committer: OnceLock::new(),
            leading: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            server: Mutex::new(None),
            metrics: HubMetrics {
                lag_batches: metrics::gauge("server.repl.lag_batches"),
                follower_connected: metrics::gauge("server.repl.follower_connected"),
                quorum_timeouts: metrics::counter("server.repl.quorum_timeouts"),
                shipped: metrics::counter("server.repl.shipped"),
                backfills: ["tail", "snapshot"]
                    .map(|path| metrics::counter(&format!("server.repl.backfill.{path}"))),
            },
            shutdown: AtomicBool::new(false),
        })
    }

    /// The node name this hub replicates for.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// The replication shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The current cluster epoch this hub leads under (0 = not yet).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Whether this hub currently fans out (i.e. the node leads).
    pub fn leading(&self) -> bool {
        self.leading.load(Ordering::SeqCst)
    }

    /// Wires the engine the hub exports backfill snapshots from. Must
    /// run before [`ReplHub::listen`].
    pub fn set_server(&self, server: Arc<UucsServer>) {
        let _ = self.committer.set(server.committer().clone());
        *lock(&self.server) = Some(server);
    }

    /// Starts leading under `epoch`: replicate-calls fan out from now
    /// on and `HELLO`s are welcomed rather than refused.
    pub fn lead(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::SeqCst);
        self.leading.store(true, Ordering::SeqCst);
    }

    /// How many follower catch-ups this hub has served `(by backlog
    /// tail, by snapshot)`; mirrored to `server.repl.backfill.*`.
    pub fn backfills(&self) -> (u64, u64) {
        let [tail, snapshot] = &self.backfills;
        (tail.load(Ordering::SeqCst), snapshot.load(Ordering::SeqCst))
    }

    /// How many quorum acks degraded to local ones (no live follower, or
    /// the ack timeout passed); mirrored to `server.repl.quorum_timeouts`.
    pub fn quorum_timeouts(&self) -> u64 {
        self.quorum_timeouts.load(Ordering::SeqCst)
    }

    /// How many times a thread blocked waiting for a follower's ack.
    /// Stays 0 on a node served by the TCP pool: there the wait rides
    /// the commit ticket.
    pub fn blocking_quorum_waits(&self) -> u64 {
        self.blocking_waits.load(Ordering::SeqCst)
    }

    /// Names of the currently connected followers.
    pub fn follower_nodes(&self) -> Vec<String> {
        lock(&self.followers)
            .iter()
            .filter(|s| s.alive.load(Ordering::SeqCst))
            .map(|s| s.node.clone())
            .collect()
    }

    /// The acked watermark of the most-behind connected follower, per
    /// shard — `None` with no follower connected.
    pub fn min_acked(&self, shard: usize) -> Option<u64> {
        lock(&self.followers)
            .iter()
            .filter(|s| s.alive.load(Ordering::SeqCst))
            .map(|s| s.acked[shard].load(Ordering::SeqCst))
            .min()
    }

    /// Recomputes `shard`'s lag and republishes the gauge (the max over
    /// shards) — one pass over the followers, whichever shard moved.
    fn update_lag(&self, shard: usize) {
        let behind = self.min_acked(shard).map_or(0, |acked| {
            self.next_seq[shard]
                .load(Ordering::SeqCst)
                .saturating_sub(acked)
        });
        self.lag[shard].store(behind, Ordering::SeqCst);
        let lag = self.lag.iter().map(|l| l.load(Ordering::SeqCst)).max();
        self.metrics.lag_batches.set(lag.unwrap_or(0) as i64);
    }

    /// A follower joined or left: every shard's most-behind changed.
    fn update_all_lags(&self) {
        (0..self.shards).for_each(|shard| self.update_lag(shard));
    }

    /// Has every quorum waiter look again: the blocked ones through the
    /// condvar (taking their lock first, so a waiter between its check
    /// and its park cannot miss this), the parked tickets through the
    /// committer's subscribers. Publish the change first.
    fn signal(&self) {
        drop(lock(&self.ack_lock));
        self.ack_signal.notify_all();
        if let Some(committer) = self.committer.get() {
            committer.wake_subscribers();
        }
    }

    fn fan_out(&self, msg: &ReplMsg) {
        let followers = lock(&self.followers);
        for slot in followers.iter() {
            if slot.alive.load(Ordering::SeqCst) && slot.tx.try_send(msg.clone()).is_err() {
                // Overflowed or hung up: drop the follower; it will
                // reconnect and catch up from its watermark.
                slot.alive.store(false, Ordering::SeqCst);
            }
        }
    }

    /// Accepts followers on `addr` until shutdown. Returns the bound
    /// address and the accept-thread handle.
    pub fn listen(
        self: &Arc<Self>,
        addr: &str,
    ) -> io::Result<(SocketAddr, JoinHandle<()>)> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let hub = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("repl-accept-{}", self.node))
            .spawn(move || {
                for conn in listener.incoming() {
                    if hub.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let hub2 = Arc::clone(&hub);
                    let _ = std::thread::Builder::new()
                        .name("repl-conn".into())
                        .spawn(move || {
                            let _ = hub2.serve_follower(stream);
                        });
                }
            })?;
        Ok((bound, handle))
    }

    /// Stops accepting, severs every follower connection, and wakes
    /// every waiter — from a peer's point of view indistinguishable
    /// from the leader process dying.
    pub fn shutdown(&self, bound: SocketAddr) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.leading.store(false, Ordering::SeqCst);
        {
            let mut followers = lock(&self.followers);
            for slot in followers.drain(..) {
                slot.alive.store(false, Ordering::SeqCst);
                let _ = slot.sock.shutdown(std::net::Shutdown::Both);
                // Wake a writer parked on an empty fan-out channel so
                // it observes `alive == false` and exits.
                let _ = slot.tx.try_send(ReplMsg::Ping { epoch: 0 });
            }
            self.metrics.follower_connected.set(0);
        }
        // Unblock the accept loop.
        let _ = TcpStream::connect(bound);
        self.signal();
    }

    /// One follower connection, end to end: handshake, backfill, then
    /// reader duty (acks) while a writer thread drains the
    /// fan-out channel.
    fn serve_follower(self: &Arc<Self>, stream: TcpStream) -> io::Result<()> {
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(stream.try_clone()?);
        let Some(ReplMsg::Hello { node, epoch, watermarks }) = read_repl_msg(&mut reader)? else {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "expected HELLO"));
        };
        let mut writer = BufWriter::new(stream.try_clone()?);
        if !self.leading() {
            write_repl_msg(&mut writer, &ReplMsg::NotLeader { epoch: self.epoch() })?;
            return Ok(());
        }
        write_repl_msg(
            &mut writer,
            &ReplMsg::Welcome {
                node: self.node.clone(),
                epoch: self.epoch(),
                shards: self.shards,
            },
        )?;
        // Per-shard resume points; missing shards start from 0.
        let mut wanted = vec![0u64; self.shards];
        for (shard, seq) in &watermarks {
            if *shard < self.shards {
                wanted[*shard] = *seq;
            }
        }
        // Register the slot *before* reading the join points: every
        // sequence at or past `joined` is guaranteed to reach the
        // channel, so backfill up to `joined` + channel drain covers
        // the stream with no gap (overlaps dedup at the follower).
        let (tx, rx) = sync_channel(4096);
        let slot = Arc::new(FollowerSlot {
            node,
            tx,
            acked: (0..self.shards).map(|_| AtomicU64::new(0)).collect(),
            alive: AtomicBool::new(true),
            sock: stream.try_clone()?,
        });
        {
            let mut followers = lock(&self.followers);
            followers.retain(|s| s.alive.load(Ordering::SeqCst));
            followers.push(Arc::clone(&slot));
            self.metrics.follower_connected.set(followers.len() as i64);
        }
        self.update_all_lags();
        // The join point is read and the wanted tail copied under one
        // hold of each backlog lock: whatever is evicted after that is
        // at or past `joined`, hence already in this follower's channel.
        let mut joined = Vec::with_capacity(self.shards);
        let mut tail = (epoch == self.epoch()).then(Vec::new);
        for (shard, backlog) in self.backlogs.iter().enumerate() {
            let backlog = lock(backlog);
            joined.push(backlog.next());
            let Some(msgs) = &mut tail else { continue };
            match backlog.tail(wanted[shard]) {
                Some(entries) => msgs.extend(entries.map(|(seq, bytes)| ReplMsg::Entry {
                    shard,
                    seq,
                    bytes: bytes.clone(),
                })),
                None => tail = None,
            };
        }
        let path = usize::from(tail.is_none());
        self.backfills[path].fetch_add(1, Ordering::SeqCst);
        self.metrics.backfills[path].inc();
        let writer_hub = Arc::clone(self);
        let writer_slot = Arc::clone(&slot);
        let writer_handle = std::thread::Builder::new()
            .name("repl-writer".into())
            .spawn(move || {
                let r = writer_hub.stream_to_follower(&mut writer, &writer_slot, rx, tail, &joined);
                if r.is_err() {
                    writer_slot.alive.store(false, Ordering::SeqCst);
                }
            })?;
        // Reader duty: acks until the follower hangs up.
        let read_result = self.read_from_follower(&mut reader, &slot);
        slot.alive.store(false, Ordering::SeqCst);
        // Wake the writer if it is parked on an empty channel; it sees
        // `alive == false` and exits rather than leaking.
        let _ = slot.tx.try_send(ReplMsg::Ping { epoch: 0 });
        {
            let mut followers = lock(&self.followers);
            followers.retain(|s| !Arc::ptr_eq(s, &slot));
            self.metrics.follower_connected.set(
                followers
                    .iter()
                    .filter(|s| s.alive.load(Ordering::SeqCst))
                    .count() as i64,
            );
        }
        self.update_all_lags();
        self.signal();
        drop(writer_handle);
        read_result
    }

    /// Brings the follower up to its join point — by resending `tail`
    /// when the backlog still held all it wanted, else by a store
    /// snapshot and a jump to `joined` — then drains its channel.
    fn stream_to_follower(
        &self,
        writer: &mut BufWriter<TcpStream>,
        slot: &FollowerSlot,
        rx: Receiver<ReplMsg>,
        tail: Option<Vec<ReplMsg>>,
        joined: &[u64],
    ) -> io::Result<()> {
        if let Some(tail) = tail {
            for msg in &tail {
                write_repl_msg(writer, msg)?;
            }
        } else {
            let server = lock(&self.server)
                .clone()
                .ok_or_else(|| io::Error::other("hub has no server"))?;
            for (key, bytes) in server.export()? {
                let shard = shard_of(&key, self.shards);
                write_repl_msg(writer, &ReplMsg::SnapEntry { shard, bytes })?;
            }
            for (shard, &upto) in joined.iter().enumerate() {
                write_repl_msg(writer, &ReplMsg::SnapDone { shard, upto })?;
            }
        }
        writer.flush()?;
        while slot.alive.load(Ordering::SeqCst) {
            match rx.recv() {
                Ok(msg) => {
                    write_repl_msg(writer, &msg)?;
                    self.metrics.shipped.inc();
                }
                Err(_) => break,
            }
        }
        Ok(())
    }

    /// Takes the follower's `COMMIT`s until it hangs up. A `PING` —
    /// which is also what an older follower's model beat decodes to —
    /// is ignored; anything else ends the session.
    fn read_from_follower(
        &self,
        reader: &mut BufReader<TcpStream>,
        slot: &Arc<FollowerSlot>,
    ) -> io::Result<()> {
        loop {
            match read_repl_msg(reader)? {
                Some(ReplMsg::Commit { shard, upto }) if shard < self.shards => {
                    slot.acked[shard].fetch_max(upto, Ordering::SeqCst);
                    self.signal();
                    self.update_lag(shard);
                }
                Some(ReplMsg::Ping { .. }) => {}
                Some(other) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected follower message {other:?}"),
                    ))
                }
                None => return Ok(()),
            }
        }
    }
}

impl ReplHub {
    /// What a dormant hub owes an ack: nothing — unless this was a
    /// quorum leader that has been shut down under a handler still
    /// running: that one refuses.
    fn dormant(&self) -> io::Result<Option<QuorumMark>> {
        let down = self.config.ack == AckMode::Quorum && self.shutdown.load(Ordering::SeqCst);
        if down {
            Err(shut_down())
        } else {
            Ok(None)
        }
    }

    /// The mark of sequence `seq` on `shard`, when acks wait for one.
    fn quorum_mark(&self, shard: usize, seq: u64) -> Option<QuorumMark> {
        (self.config.ack == AckMode::Quorum).then(|| QuorumMark {
            shard,
            seq,
            deadline: Instant::now() + self.config.ack_timeout,
        })
    }
}

impl ReplicationSink for ReplHub {
    fn ship(&self, key: &str, payload: Vec<u8>) -> io::Result<Option<QuorumMark>> {
        if !self.leading() {
            return self.dormant();
        }
        let shard = shard_of(key, self.shards);
        let seq;
        {
            let mut backlog = lock(&self.backlogs[shard]);
            seq = backlog.push(payload.clone());
            self.next_seq[shard].store(seq + 1, Ordering::SeqCst);
            // Fan out under the backlog lock: per-shard sequence order
            // on every follower channel matches push order, gap-free.
            self.fan_out(&ReplMsg::Entry {
                shard,
                seq,
                bytes: payload,
            });
        }
        self.update_lag(shard);
        Ok(self.quorum_mark(shard, seq))
    }

    /// The original of a replay went out on `key`'s shard at or below
    /// the highest sequence shipped there, so a follower past that one
    /// holds it. A shard this hub has not shipped on yet has no sequence
    /// to wait for and owes nothing: the original predates this leader's
    /// reign, and its followers get it by snapshot, which no mark
    /// covers.
    fn mark_shipped(&self, key: &str) -> io::Result<Option<QuorumMark>> {
        if !self.leading() {
            return self.dormant();
        }
        let shard = shard_of(key, self.shards);
        let shipped = self.next_seq[shard].load(Ordering::SeqCst).checked_sub(1);
        Ok(shipped.and_then(|seq| self.quorum_mark(shard, seq)))
    }

    /// A mark is settled when any live follower acked past it, when its
    /// deadline passed, or when no follower is left to wait for — the
    /// last two degrade to a local ack and are counted. A wait that
    /// [`ReplHub::shutdown`] cut short is an error, not a degrade: this
    /// leader is going away, so an ack now would promise a copy no
    /// follower will ever be sent.
    fn poll_quorum(&self, mark: QuorumMark) -> Option<io::Result<()>> {
        // The furthest live follower on this shard; `None` = nobody.
        let best = lock(&self.followers)
            .iter()
            .filter(|s| s.alive.load(Ordering::SeqCst))
            .map(|s| s.acked[mark.shard].load(Ordering::SeqCst))
            .max();
        if best.is_some_and(|acked| acked > mark.seq) {
            return Some(Ok(()));
        }
        if best.is_some() && Instant::now() < mark.deadline {
            return None;
        }
        if self.shutdown.load(Ordering::SeqCst) {
            return Some(Err(shut_down()));
        }
        self.quorum_timeouts.fetch_add(1, Ordering::SeqCst);
        self.metrics.quorum_timeouts.inc();
        Some(Ok(()))
    }

    fn wait_quorum(&self, mark: QuorumMark) -> io::Result<()> {
        self.blocking_waits.fetch_add(1, Ordering::SeqCst);
        let mut guard = lock(&self.ack_lock);
        loop {
            if let Some(outcome) = self.poll_quorum(mark) {
                return outcome;
            }
            let rest = mark.deadline.saturating_duration_since(Instant::now());
            guard = self
                .ack_signal
                .wait_timeout(guard, rest)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::RwLockWriteGuard;
    use uucs_harness::TempDir;
    use uucs_protocol::{
        ClientMsg, MachineSnapshot, MonitorSummary, RunOutcome, RunRecord, ServerMsg,
    };
    use uucs_server::{CommitTicket, ResultStore, StoreFlavor, StoreSet};
    use uucs_wal::frame::encode_frame;
    use uucs_wal::{SyncPolicy, WalConfig};

    /// A follower that is only a socket: it joins by `HELLO`, reads
    /// nothing, and acknowledges exactly what the test tells it to.
    struct FakeFollower(TcpStream);

    impl FakeFollower {
        fn join(hub: &ReplHub, addr: SocketAddr) -> FakeFollower {
            let mut sock = TcpStream::connect(addr).unwrap();
            let hello = ReplMsg::Hello {
                node: "b".into(),
                epoch: hub.epoch(),
                watermarks: vec![],
            };
            write_repl_msg(&mut sock, &hello).unwrap();
            while hub.follower_nodes().is_empty() {
                std::thread::yield_now();
            }
            FakeFollower(sock)
        }

        /// Sends `COMMIT shard upto` and returns once the hub has it.
        fn ack(&mut self, hub: &ReplHub, shard: usize, upto: u64) {
            write_repl_msg(&mut self.0, &ReplMsg::Commit { shard, upto }).unwrap();
            while hub.min_acked(shard) != Some(upto) {
                assert!(
                    !hub.follower_nodes().is_empty(),
                    "the leader dropped the session"
                );
                std::thread::yield_now();
            }
        }
    }

    /// One run record, named by `seq`.
    fn record(seq: u64) -> RunRecord {
        RunRecord {
            client: "client-0001".into(),
            user: "u".into(),
            testcase: format!("t{seq}"),
            task: "IE".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Discomfort,
            offset_secs: 1.0,
            last_levels: vec![(uucs_testcase::Resource::Cpu, vec![2.0])],
            monitor: MonitorSummary::default(),
        }
    }

    /// An entry that names its own sequence, padded to `len` bytes.
    fn entry(seq: u64, len: usize) -> Vec<u8> {
        let mut bytes = seq.to_le_bytes().to_vec();
        bytes.resize(len.max(8), 0xAB);
        bytes
    }

    fn seq_of(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes[..8].try_into().unwrap())
    }

    #[test]
    fn eviction_keeps_the_range_contiguous_and_the_byte_count_exact() {
        let mut backlog = Backlog::default();
        for seq in 0..500u64 {
            // Sizes vary so one push evicts zero, one or several entries.
            let len = 100 + (seq as usize * 7919) % 3000;
            assert_eq!(backlog.push(entry(seq, len)), seq);
            assert_eq!(backlog.next(), seq + 1);
            assert!(backlog.bytes <= BACKLOG_BYTES);
            assert_eq!(backlog.bytes, backlog.entries.iter().map(Vec::len).sum::<usize>());
            for (held, bytes) in (backlog.floor..).zip(&backlog.entries) {
                assert_eq!(seq_of(bytes), held, "entry {held} sits at its own sequence");
            }
        }
        assert!(backlog.floor > 0, "500 entries of up to 3 KiB overflow the budget");
        assert!(!backlog.entries.is_empty());
    }

    #[test]
    fn an_entry_over_the_budget_is_not_held() {
        let mut backlog = Backlog::default();
        backlog.push(entry(0, 100));
        assert_eq!(backlog.push(entry(1, BACKLOG_BYTES + 1)), 1);
        assert_eq!((backlog.floor, backlog.next(), backlog.bytes), (2, 2, 0));
        // The sequence space carries on above it.
        assert_eq!(backlog.push(entry(2, 100)), 2);
        assert_eq!((backlog.floor, backlog.next()), (2, 3));
    }

    #[test]
    fn the_tail_from_any_held_point_is_exactly_wanted_to_next() {
        let mut backlog = Backlog::default();
        for seq in 0..200u64 {
            backlog.push(entry(seq, 1000));
        }
        let (floor, next) = (backlog.floor, backlog.next());
        assert!(0 < floor && floor < next);
        for wanted in floor..=next {
            let tail: Vec<u64> = backlog
                .tail(wanted)
                .expect("held")
                .map(|(seq, bytes)| {
                    assert_eq!(seq_of(bytes), seq);
                    seq
                })
                .collect();
            assert_eq!(tail, (wanted..next).collect::<Vec<_>>());
        }
        assert!(backlog.tail(floor - 1).is_none(), "evicted");
        assert!(backlog.tail(next + 1).is_none(), "never issued");
        assert!(backlog.tail(u64::MAX).is_none());
    }

    /// A quorum wait released by `shutdown` (the in-process stand-in for
    /// a crash) must not turn into an ack: the follower never held the
    /// entry and will never be sent it.
    #[test]
    fn a_quorum_wait_cut_short_by_shutdown_is_an_error_not_an_ack() {
        let config = HubConfig {
            ack: AckMode::Quorum,
            ack_timeout: Duration::from_secs(60),
        };
        let hub = ReplHub::new("a", 1, config);
        hub.lead(1);
        let (addr, accept) = hub.listen("127.0.0.1:0").unwrap();
        // A follower that joins by (empty) tail and never acknowledges.
        let _follower = FakeFollower::join(&hub, addr);
        // What a blocking `GroupCommitter::wait` does once its fsync is
        // done (`Endpoint::handle`'s path): ship, then wait.
        let ship_and_wait = || {
            let mark = hub.ship("client-0001", b"entry".to_vec())?;
            hub.wait_quorum(mark.expect("a leading quorum hub marks what it ships"))
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(ship_and_wait);
            while hub.blocking_quorum_waits() == 0 {
                std::thread::yield_now();
            }
            hub.shutdown(addr);
            assert!(waiter.join().unwrap().is_err(), "released by shutdown");
        });
        assert!(ship_and_wait().is_err(), "and refuses from then on");
        assert_eq!(hub.quorum_timeouts(), 0, "a refusal is not a degrade");
        accept.join().unwrap();
    }

    /// One upload the way the handler makes it on a group-commit
    /// leader: append, ask for the fsync, ship, mark the ticket. The
    /// shard is handed back still locked — until the caller lets go of
    /// it the commit thread cannot fsync that journal.
    fn shipped_upload<'a>(
        stores: &'a StoreSet,
        committer: &GroupCommitter,
        hub: &ReplHub,
        seq: u64,
    ) -> (CommitTicket, RwLockWriteGuard<'a, ResultStore>) {
        let mut shard = stores.results.write_recovered(0);
        let (_, payload) = shard
            .append_batch_shipped("client-0001", seq, &[record(seq)], true)
            .unwrap();
        let ticket = committer.submit(StoreFlavor::Results, 0, shard.wal_next_lsn());
        let quorum = hub.ship("client-0001", payload.unwrap()).unwrap();
        assert!(quorum.is_some(), "a leading quorum hub marks what it ships");
        (CommitTicket { quorum, ..ticket }, shard)
    }

    /// The ack's two legs, each withheld in turn: a quorum ticket is
    /// redeemable only once the leader's fsync covers it *and* a live
    /// follower acknowledged it; the documented outcomes of a wait that
    /// cannot be met — degrade and count, or refuse — come out of the
    /// same poll.
    #[test]
    fn a_quorum_ticket_needs_the_local_fsync_and_the_follower_ack() {
        let dir = TempDir::new("hub-quorum-ticket");
        let journals = WalConfig {
            sync: SyncPolicy::Never, // the committer is the only fsync
            ..WalConfig::default()
        };
        let (stores, _) = StoreSet::open(dir.path(), journals, 1).unwrap();
        let stores = Arc::new(stores);
        let (committer, commit_thread) = GroupCommitter::start(stores.clone(), Duration::ZERO);
        let config = HubConfig {
            ack: AckMode::Quorum,
            ack_timeout: Duration::from_secs(600),
        };
        let hub = ReplHub::new("a", 1, config);
        hub.lead(1);
        let (addr, accept) = hub.listen("127.0.0.1:0").unwrap();
        committer.attach_sink(hub.clone());
        let mut follower = FakeFollower::join(&hub, addr);
        let journal_leg = |ticket: CommitTicket| CommitTicket {
            quorum: None,
            ..ticket
        };
        let seq_of = |ticket: CommitTicket| ticket.quorum.unwrap().seq;

        // Only the follower's ack: the fsync cannot run while the shard
        // is held.
        let (ticket, held) = shipped_upload(&stores, &committer, &hub, 1);
        follower.ack(&hub, 0, seq_of(ticket) + 1);
        assert!(
            committer.poll(ticket).is_none(),
            "acked before the leader's fsync"
        );
        drop(held);
        committer.wait(journal_leg(ticket)).unwrap();
        assert_eq!(committer.poll(ticket), Some(Ok(())), "both legs done");

        // Only the fsync: the follower has not acknowledged.
        let (ticket, held) = shipped_upload(&stores, &committer, &hub, 2);
        drop(held);
        committer.wait(journal_leg(ticket)).unwrap();
        assert!(
            committer.poll(ticket).is_none(),
            "acked before any follower held it"
        );
        follower.ack(&hub, 0, seq_of(ticket) + 1);
        assert_eq!(committer.poll(ticket), Some(Ok(())));
        assert_eq!(hub.quorum_timeouts(), 0);

        // The deadline has passed: degrade to a local ack, counted once
        // — and not before the journal leg is done.
        let (mut ticket, held) = shipped_upload(&stores, &committer, &hub, 3);
        ticket.quorum.as_mut().unwrap().deadline = Instant::now();
        assert!(committer.poll(ticket).is_none());
        drop(held);
        committer.wait(journal_leg(ticket)).unwrap();
        assert_eq!(committer.poll(ticket), Some(Ok(())));
        assert_eq!(hub.quorum_timeouts(), 1);

        // Nobody left to wait for: the same degrade.
        drop(follower);
        while !hub.follower_nodes().is_empty() {
            std::thread::yield_now();
        }
        let (ticket, held) = shipped_upload(&stores, &committer, &hub, 4);
        drop(held);
        committer.wait(journal_leg(ticket)).unwrap();
        assert_eq!(committer.poll(ticket), Some(Ok(())));
        assert_eq!(hub.quorum_timeouts(), 2);

        // The leader is shut down under a parked ticket: a refusal, on
        // either way of redeeming it, and not another degrade.
        let _silent = FakeFollower::join(&hub, addr);
        let (ticket, held) = shipped_upload(&stores, &committer, &hub, 5);
        drop(held);
        committer.wait(journal_leg(ticket)).unwrap();
        assert!(committer.poll(ticket).is_none());
        hub.shutdown(addr);
        for refusal in [committer.poll(ticket).unwrap(), committer.wait(ticket)] {
            let why = refusal.unwrap_err();
            assert!(why.starts_with("replication failed"), "{why}");
        }
        assert_eq!(hub.quorum_timeouts(), 2);

        committer.stop();
        commit_thread.join().unwrap();
        accept.join().unwrap();
    }

    /// A retry whose first attempt was shipped but never acknowledged by
    /// a follower is a *replay* on the leader — applied already, nothing
    /// to ship — and its ack must still wait for a follower to hold the
    /// original, or a leader kill would lose an upload the client was
    /// told is safe. A re-registration is held to the same rule.
    #[test]
    fn a_replayed_retry_is_not_acked_before_a_follower_holds_the_original() {
        let dir = TempDir::new("hub-replay");
        let journals = WalConfig {
            sync: SyncPolicy::Never,
            ..WalConfig::default()
        };
        let (stores, _) = StoreSet::open(dir.path(), journals, 1).unwrap();
        let server =
            Arc::new(UucsServer::with_store_set(stores, 1).with_group_commit(Duration::ZERO));
        let committer = server.committer().clone();
        let config = HubConfig {
            ack: AckMode::Quorum,
            ack_timeout: Duration::from_secs(600),
        };
        let hub = ReplHub::new("a", 1, config);
        hub.set_server(Arc::clone(&server));
        server.set_replication(hub.clone());
        hub.lead(1);
        let (addr, accept) = hub.listen("127.0.0.1:0").unwrap();
        let mut follower = FakeFollower::join(&hub, addr);
        let journal_leg = |ticket: CommitTicket| CommitTicket {
            quorum: None,
            ..ticket
        };

        let register = ClientMsg::Register {
            snapshot: MachineSnapshot::study_machine("m"),
            token: "tok".into(),
        };
        let (reply, ticket) = server.handle_deferred(&register);
        let ServerMsg::Id { id, .. } = reply else {
            panic!("registration refused: {reply:?}");
        };
        follower.ack(&hub, 0, 1);
        assert_eq!(committer.wait(ticket.unwrap()), Ok(()));

        // The first attempt is shipped and its `COMMIT` withheld; the
        // client never sees this ack (its connection dropped).
        let upload = ClientMsg::Upload {
            client: id.clone(),
            seq: 1,
            records: vec![record(1)],
        };
        let (first, original) = server.handle_deferred(&upload);
        assert_eq!(first, ServerMsg::Ack(1));
        let original = original
            .and_then(|t| t.quorum)
            .expect("shipped under quorum");

        // The retry finds the batch applied, the re-registration finds
        // the token: both are replays, and neither may ack yet.
        let (retry, retried) = server.handle_deferred(&upload);
        assert_eq!(retry, ServerMsg::Ack(1));
        let (again, reregistered) = server.handle_deferred(&register);
        assert!(
            matches!(&again, ServerMsg::Id { id: same, .. } if *same == id),
            "{again:?}"
        );
        let replays = [retried, reregistered].map(|t| t.expect("a replay's ack rides a ticket"));
        for ticket in replays {
            committer.wait(journal_leg(ticket)).unwrap();
            assert!(
                committer.poll(ticket).is_none(),
                "a replay was acked before any follower held the original"
            );
        }

        // The follower's `COMMIT` covers the original: both go out.
        follower.ack(&hub, 0, original.seq + 1);
        for ticket in replays {
            assert_eq!(committer.poll(ticket), Some(Ok(())));
        }
        assert_eq!(hub.quorum_timeouts(), 0);
        assert_eq!(server.result_count(), 1, "the retry stored nothing");
        hub.shutdown(addr);
        accept.join().unwrap();
    }

    /// An older follower still sends its comfort-model beat — a `GOSSIP`
    /// frame with the model as its body — between its `COMMIT`s. The
    /// leader keeps the session and keeps taking the `COMMIT`s behind it.
    #[test]
    fn an_older_followers_model_beat_keeps_its_session() {
        let hub = ReplHub::new("a", 1, HubConfig::default());
        hub.lead(1);
        let (addr, accept) = hub.listen("127.0.0.1:0").unwrap();
        let mut follower = FakeFollower::join(&hub, addr);
        let beat = encode_frame(
            b"GOSSIP b 2\nCOMFORTMODEL 2 1\nCOHORT cpu IE Typical q1;0;4;64;2;0;2;0:2\n",
        );
        for seq in 0..3u64 {
            hub.ship("client-0001", entry(seq, 64)).unwrap();
            follower.0.write_all(&beat).unwrap();
            follower.ack(&hub, 0, seq + 1);
        }
        assert_eq!(hub.follower_nodes(), ["b"]);
        hub.shutdown(addr);
        accept.join().unwrap();
    }
}
