//! Group-commit WAL fsync: one dedicated thread batches pending
//! appends, fsyncs once per shard, and wakes every waiter — blocked
//! handlers through a condvar, pool workers through their wakers.
//!
//! Every server runs one committer from construction, and it is the
//! one way an ack becomes durable. The stores run at
//! `SyncPolicy::Never`; a handler appends under the shard lock, records
//! the WAL's next-LSN as its durability watermark (a [`CommitTicket`]),
//! releases the lock, and then waits — without any lock held — until
//! the committer's next fsync pass covers that watermark. A pass syncs
//! each dirty shard exactly once no matter how many appends landed
//! since the last pass, so the per-request durability cost is
//! `fsync / batch size`: **no request is acknowledged before its
//! journal entries are on stable storage**, and no append pays an fsync
//! under its shard lock.
//!
//! The gather window before a pass sizes itself. The configured
//! interval ([`DEFAULT_INTERVAL`] unless set) is its ceiling; the window
//! actually waited is `interval × (1 − k/n)`, where the previous pass
//! fsynced `k` slots answering `n` requests — the tickets submitted
//! since the pass before — so `1 − k/n` is the share of fsyncs that
//! batching saved last time (`gather_share`). Requests, not journal
//! entries, are counted: one legacy `seq 0` upload journals an entry
//! per record but waits on one fsync. A lone or depth-1 client has
//! `n = k`, so its request is synced at once; saturated pipelined
//! ingest has `n ≫ k`, so the window stays near the interval and
//! amortization is kept. An interval of zero never gathers.
//!
//! Each pass picks its own shape from what it took. A pass over one
//! dirty slot fsyncs it on the commit thread: handing a lone fsync to
//! another thread only adds two hand-offs to the wait. A pass over two
//! or more submits each slot to the committer's own [`DiskScheduler`]
//! pool (two threads, `server.disk.*`), so independent shards sync in
//! parallel and the pass costs the slowest fsync, not the sum.
//!
//! The committer is also what drains deferred rotation syncs: when it
//! starts, the three families stop fsyncing a closing segment on the
//! append path (`StoreSet::set_deferred_rotation_sync`), and the next
//! pass over the shard syncs it before anything past it is acked.
//!
//! And it is the one writer of the comfort model's caches
//! ([`crate::models`]): a fold that makes a model shard's cache due
//! hands the shard to [`GroupCommitter::cache_due`], and the commit
//! thread submits the write to its pool after its next pass — at most
//! one per shard in flight, and no ticket waits on one.
//!
//! `uucs-wal` itself stays dependency- and policy-free: the committer
//! drives the existing [`uucs_wal::Wal::sync`], and batch shape is
//! observable through the `server.commit.*` telemetry series.
//!
//! Failure semantics: if an fsync fails, the slot is marked failed and
//! every current and future waiter on that shard gets the error — the
//! handler answers with a protocol error instead of an ack.
//!
//! On the leader of a quorum tier a ticket also carries a
//! [`QuorumMark`]: where the mutation sits in the replication stream.
//! Such a ticket is redeemable once *both* watermarks cover it — this
//! node's fsync and a follower's ack — so the fsync and the round trip
//! to the follower overlap, and no handler blocks on another machine.
//! The follower's side of it lives with the [`ReplicationSink`]; the
//! committer only asks it, after the local leg is done.

use crate::models;
use crate::netpoll::Waker;
use crate::server::ReplicationSink;
use crate::shard::{sync_shard, StoreSet};
use crate::storage::disk_scheduler;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uucs_pagecache::{DiskScheduler, OpKind};
use uucs_telemetry::{metrics, Counter, Gauge, Histogram};
use uucs_wal::Lsn;

/// The gather-window ceiling a committer starts with: what
/// `uucs-server`, `uucs-clusterd` and `uucs-study fleet` run by default.
pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(1);

/// Which store family a ticket's append landed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFlavor {
    /// The testcase library.
    Testcases,
    /// Uploaded results.
    Results,
    /// The client registry.
    Registry,
}

impl StoreFlavor {
    fn index(self) -> usize {
        match self {
            StoreFlavor::Testcases => 0,
            StoreFlavor::Results => 1,
            StoreFlavor::Registry => 2,
        }
    }
}

/// The number of ticketed families: testcases, results and registry.
const FLAVORS: usize = 3;

/// Where a shipped mutation sits in the replication stream, for an ack
/// that must also wait for a follower: redeemable once a live follower
/// acknowledged past `seq` on `shard` — or once `deadline` has passed,
/// when the leader degrades to a local ack and counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumMark {
    /// The replication shard the mutation's key routes to.
    pub shard: usize,
    /// Its sequence in that shard's stream.
    pub seq: u64,
    /// When waiting for a follower gives way to a local ack.
    pub deadline: Instant,
}

/// A durability watermark: "my append is safe once `upto` LSNs of this
/// shard's journal are on disk" — and, with a [`QuorumMark`], "and once
/// a follower holds it too". Handlers capture it under the shard write
/// lock (where the post-append `next_lsn` is exact) and redeem it
/// lock-free via [`GroupCommitter::wait`] or [`GroupCommitter::poll`].
#[derive(Debug, Clone, Copy)]
pub struct CommitTicket {
    /// The store family the append landed in.
    pub flavor: StoreFlavor,
    /// The shard within the family.
    pub shard: usize,
    /// The journal's next-LSN right after the append.
    pub upto: Lsn,
    /// The follower ack this ticket also waits for (quorum leader only).
    pub quorum: Option<QuorumMark>,
}

impl CommitTicket {
    /// This ticket, redeemable only once a follower also holds what
    /// `mark` stands for, when the mutation owes the followers one.
    pub fn owing(self, mark: Option<QuorumMark>) -> Self {
        CommitTicket {
            quorum: mark,
            ..self
        }
    }
}

/// Per-slot (flavor × shard) commit bookkeeping.
struct CommitState {
    /// Highest watermark any waiter has asked for, per slot.
    pending: Vec<Lsn>,
    /// Highest watermark known durable, per slot.
    synced: Vec<Lsn>,
    /// Sticky fsync failure, per slot. Once a shard's journal cannot be
    /// synced, nothing on it is ack-able until restart.
    failed: Vec<Option<String>>,
    /// Tickets submitted per slot since the last pass took its work:
    /// the requests the next pass answers, however many journal entries
    /// each covers.
    submitted: Vec<u64>,
    /// Model shards whose cache is due a write the pool has not been
    /// handed yet.
    caches: Vec<bool>,
    /// The commit thread is parked waiting for work, so a new request
    /// must notify it. While it gathers or syncs, requests only raise
    /// `pending` — the window is not cut short by its own arrivals.
    idle: bool,
    stop: bool,
}

impl CommitState {
    fn dirty(&self, slot: usize) -> bool {
        self.failed[slot].is_none() && self.pending[slot] > self.synced[slot]
    }

    /// Raises a slot's requested watermark, waking the commit thread if
    /// it is parked.
    fn request(&mut self, slot: usize, upto: Lsn, wake: &Condvar) {
        if self.pending[slot] < upto {
            self.pending[slot] = upto;
            if self.idle {
                wake.notify_one();
            }
        }
    }
}

/// The share of the commit interval worth gathering for, given that the
/// previous pass fsynced `slots` shards answering `requests` tickets:
/// the fraction of per-request fsyncs that batching saved. Zero when
/// nothing was batched (`requests <= slots`), approaching — never
/// reaching — one as batches deepen.
pub(crate) fn gather_share(requests: u64, slots: u64) -> f64 {
    if slots == 0 || requests <= slots {
        0.0
    } else {
        1.0 - slots as f64 / requests as f64
    }
}

/// Telemetry for the commit loop.
struct CommitMetrics {
    /// fsync passes over a dirty slot.
    commits: Counter,
    /// Appends covered by one slot fsync (the amortization factor).
    batch: Histogram,
    /// Wall time of one slot fsync, ns.
    ns: Histogram,
    /// The gather window the next pass will use, µs.
    gather_us: Gauge,
    /// Gather windows actually waited, ns (zero-wait passes included).
    gather_ns: Histogram,
}

/// The group-commit coordinator: shared state between request handlers
/// (submit/wait) and the dedicated commit thread.
pub struct GroupCommitter {
    stores: Arc<StoreSet>,
    state: Mutex<CommitState>,
    /// Wakes the commit thread: new work while it is parked, or stop.
    wake: Condvar,
    /// Wakes waiters when watermarks advance or a slot fails.
    done: Condvar,
    /// Ceiling of the gather window before an fsync pass, in ns (see
    /// the module docs for how the window sizes itself under it). Zero
    /// = sync as soon as anything is pending.
    interval_ns: AtomicU64,
    counts: [usize; FLAVORS],
    metrics: CommitMetrics,
    /// The pool a pass over two or more dirty slots fans its fsyncs
    /// out to, so it pays `max(fsync)` wall time, not `sum(fsync)`.
    scheduler: DiskScheduler,
    /// Pool workers to wake after each fsync pass, so a parked reply is
    /// serialized the moment its watermark is durable.
    wakers: Mutex<Vec<Weak<Waker>>>,
    /// Who answers for a ticket's [`QuorumMark`]: the sink that issued it.
    sink: OnceLock<Arc<dyn ReplicationSink>>,
}

/// The reply text for a ticket whose journal leg failed.
fn journal_failure(why: impl std::fmt::Display) -> String {
    format!("journal commit failed: {why}")
}

const STOPPED: &str = "server stopped before the commit completed";

impl GroupCommitter {
    /// Starts the commit thread and its two-thread fsync pool over
    /// `stores`, gathering for at most `interval` before a pass, and
    /// defers the ticketed families' rotation syncs to its passes. The
    /// returned handle must be joined after [`GroupCommitter::stop`]
    /// (the server's `Drop` does both).
    pub fn start(stores: Arc<StoreSet>, interval: Duration) -> (Arc<Self>, JoinHandle<()>) {
        stores.set_deferred_rotation_sync();
        let counts = [
            stores.testcases.count(),
            stores.results.count(),
            stores.registry.count(),
        ];
        let slots: usize = counts.iter().sum();
        let committer = Arc::new(GroupCommitter {
            stores,
            state: Mutex::new(CommitState {
                pending: vec![0; slots],
                synced: vec![0; slots],
                failed: vec![None; slots],
                submitted: vec![0; slots],
                caches: vec![false; counts[1]],
                idle: false,
                stop: false,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
            interval_ns: AtomicU64::new(interval.as_nanos() as u64),
            counts,
            metrics: CommitMetrics {
                commits: metrics::counter("server.commit.count"),
                batch: metrics::histogram("server.commit.batch"),
                ns: metrics::histogram("server.commit.ns"),
                gather_us: metrics::gauge("server.commit.gather_us"),
                gather_ns: metrics::histogram("server.commit.gather.ns"),
            },
            scheduler: disk_scheduler(),
            wakers: Mutex::new(Vec::new()),
            sink: OnceLock::new(),
        });
        let runner = committer.clone();
        let handle = std::thread::Builder::new()
            .name("uucs-group-commit".into())
            .spawn(move || runner.run())
            .expect("spawn group-commit thread");
        (committer, handle)
    }

    /// Sets the gather-window ceiling from the next pass on.
    pub fn set_interval(&self, interval: Duration) {
        self.interval_ns
            .store(interval.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The gather-window ceiling.
    pub(crate) fn interval(&self) -> Duration {
        Duration::from_nanos(self.interval_ns.load(Ordering::Relaxed))
    }

    fn slot(&self, flavor: StoreFlavor, shard: usize) -> usize {
        let base: usize = self.counts[..flavor.index()].iter().sum();
        base + shard
    }

    fn flavor_shard(&self, slot: usize) -> (StoreFlavor, usize) {
        let mut rest = slot;
        for (i, &n) in self.counts.iter().enumerate() {
            if rest < n {
                let flavor = match i {
                    0 => StoreFlavor::Testcases,
                    1 => StoreFlavor::Results,
                    _ => StoreFlavor::Registry,
                };
                return (flavor, rest);
            }
            rest -= n;
        }
        unreachable!("slot {slot} out of range");
    }

    /// Registers a durability request and returns the redeemable ticket.
    /// (Also implicit in `wait`/`poll`; explicit submission lets the
    /// commit window start while the handler still serializes its reply.)
    /// Each call counts as one request toward the next gather window;
    /// the re-requests of `wait` and `poll` do not.
    pub fn submit(&self, flavor: StoreFlavor, shard: usize, upto: Lsn) -> CommitTicket {
        let slot = self.slot(flavor, shard);
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.submitted[slot] += 1;
        st.request(slot, upto, &self.wake);
        CommitTicket {
            flavor,
            shard,
            upto,
            quorum: None,
        }
    }

    /// Has model shard `shard`'s cache written by the pool after the next
    /// pass: the caller's fold made it due. Never blocks on the write.
    pub(crate) fn cache_due(&self, shard: usize) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.caches[shard] = true;
        if st.idle {
            self.wake.notify_one();
        }
    }

    /// Names the sink that issues — and answers for — the quorum marks
    /// of this committer's tickets. One-shot, like the server's own
    /// [`crate::UucsServer::set_replication`], which calls it.
    pub fn attach_sink(&self, sink: Arc<dyn ReplicationSink>) {
        let _ = self.sink.set(sink);
    }

    /// The follower leg of a ticket whose journal leg is done: what the
    /// sink says right now, or — `blocking` — once it has an answer.
    fn quorum(&self, ticket: CommitTicket, blocking: bool) -> Option<Result<(), String>> {
        let (Some(mark), Some(sink)) = (ticket.quorum, self.sink.get()) else {
            return Some(Ok(()));
        };
        let outcome = if blocking {
            Some(sink.wait_quorum(mark))
        } else {
            sink.poll_quorum(mark)
        };
        outcome.map(|r| r.map_err(|e| format!("replication failed: {e}")))
    }

    /// Blocks until the ticket's watermark is durable and, if it carries
    /// a quorum mark, a follower acknowledged it (or its deadline let
    /// the wait degrade). `Err` is the reply text for a journal that
    /// could not be synced or a leader shut down under the wait — the
    /// caller must not ack.
    pub fn wait(&self, ticket: CommitTicket) -> Result<(), String> {
        let slot = self.slot(ticket.flavor, ticket.shard);
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(e) = &st.failed[slot] {
                return Err(journal_failure(e));
            }
            if st.synced[slot] >= ticket.upto {
                break;
            }
            if st.stop {
                return Err(journal_failure(STOPPED));
            }
            // Only while uncovered: a watermark somebody else already
            // synced past needs no pass, so the commit thread sleeps on.
            st.request(slot, ticket.upto, &self.wake);
            st = self
                .done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(st);
        self.quorum(ticket, true)
            .expect("a blocking wait has an outcome")
    }

    /// [`GroupCommitter::wait`] for a caller with nothing else to do
    /// meanwhile (a follower's apply loop settling a burst): rather
    /// than wake the commit thread and sleep until it reports back —
    /// two thread hand-offs around one fsync — the caller syncs the
    /// ticket's journal itself and publishes the watermark as a pass
    /// would. Racing the commit thread over one slot is harmless: each
    /// sync takes the shard lock and the watermark only rises.
    pub fn sync(&self, ticket: CommitTicket) -> Result<(), String> {
        let slot = self.slot(ticket.flavor, ticket.shard);
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let since = st.synced[slot];
        // Somebody has asked for this slot: a parked ticket this sync
        // may cover, so its worker is woken as after a pass.
        let awaited = st.pending[slot] > since;
        let done = since >= ticket.upto || st.failed[slot].is_some();
        if !done {
            // This sync answers the slot's submitted tickets, not a pass.
            st.submitted[slot] = 0;
        }
        drop(st);
        if !done {
            let t0 = Instant::now();
            let outcome = Self::sync_store(&self.stores, ticket.flavor, ticket.shard);
            self.finish_slot(slot, since, outcome, t0.elapsed().as_nanos() as u64);
            if awaited {
                self.wake_subscribers();
            }
        }
        self.wait(ticket)
    }

    /// Nonblocking redemption for the worker-pool front end: `None`
    /// while the fsync — or the follower's ack — is still outstanding,
    /// `Some(result)` once both watermarks cover the ticket (ack) or a
    /// leg failed (error reply). The follower leg is consulted only
    /// after the journal leg, so a degraded quorum wait is counted once,
    /// by the poll that redeems the ticket.
    pub fn poll(&self, ticket: CommitTicket) -> Option<Result<(), String>> {
        let slot = self.slot(ticket.flavor, ticket.shard);
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = &st.failed[slot] {
            return Some(Err(journal_failure(e)));
        }
        if st.synced[slot] < ticket.upto {
            st.request(slot, ticket.upto, &self.wake);
            return st.stop.then(|| Err(journal_failure(STOPPED)));
        }
        drop(st);
        self.quorum(ticket, false)
    }

    /// Asks the commit thread to drain pending work and exit, and fails
    /// any waiter whose watermark can no longer be reached.
    pub fn stop(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.stop {
            return;
        }
        st.stop = true;
        self.wake.notify_all();
        self.done.notify_all();
    }

    /// One fsync over a shard's journal, callable from a scheduler
    /// thread. It takes the shard's write lock — handlers hold that only
    /// for in-memory appends now, so this is the only place the disk
    /// wait happens.
    fn sync_store(stores: &StoreSet, flavor: StoreFlavor, shard: usize) -> std::io::Result<Lsn> {
        match flavor {
            StoreFlavor::Testcases => sync_shard(&stores.testcases, shard),
            StoreFlavor::Results => sync_shard(&stores.results, shard),
            StoreFlavor::Registry => sync_shard(&stores.registry, shard),
        }
    }

    /// Publishes one slot's sync outcome: watermark advance (+ metrics)
    /// or sticky failure, then wakes the blocked waiters.
    fn finish_slot(&self, slot: usize, since: Lsn, outcome: std::io::Result<Lsn>, elapsed: u64) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match outcome {
            Ok(watermark) => {
                self.metrics.commits.inc();
                self.metrics.batch.record(watermark.saturating_sub(since));
                self.metrics.ns.record(elapsed);
                if st.synced[slot] < watermark {
                    st.synced[slot] = watermark;
                }
            }
            Err(e) => st.failed[slot] = Some(format!("journal sync failed: {e}")),
        }
        self.done.notify_all();
    }

    /// Has `waker` written after every fsync pass from now on. Held
    /// weakly: a front end that shut down simply drops out.
    pub(crate) fn subscribe(&self, waker: &Arc<Waker>) {
        self.wakers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::downgrade(waker));
    }

    /// Wakes every subscribed pool worker so it re-polls its parked
    /// tickets: after an fsync pass here, and by the replication sink
    /// whenever a follower's acked watermark (or its liveness) moved.
    /// Publish the watermark first.
    pub fn wake_subscribers(&self) {
        self.wakers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|w| w.upgrade().map(|w| w.wake()).is_some());
    }

    fn run(&self) {
        // The window the next pass gathers for; sized from the last pass.
        let mut window = Duration::ZERO;
        loop {
            // Park until something is dirty or a cache is due (or stop),
            // gather for the window, then snapshot the dirty slots, the
            // tickets each answers and the due caches. Only `stop`
            // notifies `wake` during the gather, so arrivals do not cut
            // it short.
            let (work, caches): (Vec<(usize, Lsn, u64)>, Vec<usize>) = {
                let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                let dirty = |st: &CommitState| (0..st.pending.len()).any(|s| st.dirty(s));
                while !dirty(&st) && !st.caches.contains(&true) {
                    if st.stop {
                        return;
                    }
                    st.idle = true;
                    st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                    st.idle = false;
                }
                if dirty(&st) {
                    let gather_from = Instant::now();
                    while !st.stop {
                        let rest = window.saturating_sub(gather_from.elapsed());
                        if rest.is_zero() {
                            break;
                        }
                        st = self
                            .wake
                            .wait_timeout(st, rest)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                    }
                    self.metrics
                        .gather_ns
                        .record(gather_from.elapsed().as_nanos() as u64);
                }
                // A clean slot's tickets were answered by an earlier
                // sync: they cost this pass nothing.
                let mut work = Vec::new();
                for s in 0..st.pending.len() {
                    let tickets = std::mem::take(&mut st.submitted[s]);
                    if st.dirty(s) {
                        work.push((s, st.synced[s], tickets));
                    }
                }
                let caches = (st.caches.iter_mut().enumerate())
                    .filter_map(|(shard, due)| std::mem::take(due).then_some(shard))
                    .collect();
                (work, caches)
            };
            // Sync each dirty slot without the state lock held (the
            // shard lock is what serializes against handlers).
            let mut requests = 0u64;
            let mut synced = 0u64;
            let dirty = work.len();
            // Publishes the `i`-th slot's outcome. The window the next
            // pass gathers for is set before the last slot's waiters
            // wake, so a request this pass acks reads the gauge it left.
            let mut finish = |i: usize, (slot, since, tickets), outcome: std::io::Result<Lsn>, ns| {
                if outcome.is_ok() {
                    requests += tickets;
                    synced += 1;
                }
                if i + 1 == dirty {
                    window = self.interval().mul_f64(gather_share(requests, synced));
                    self.metrics.gather_us.set(window.as_micros() as i64);
                }
                self.finish_slot(slot, since, outcome, ns);
            };
            let t0 = Instant::now();
            if work.is_empty() {
                // Only caches were due: nothing to sync.
            } else if let [job] = work[..] {
                // A lone slot is synced here: the pool would only add
                // two thread hand-offs to the one fsync the pass waits on.
                let (flavor, shard) = self.flavor_shard(job.0);
                let outcome = Self::sync_store(&self.stores, flavor, shard);
                finish(0, job, outcome, t0.elapsed().as_nanos() as u64);
            } else {
                // Fan the dirty shards out to the pool; each sync
                // serializes on its own shard lock, so independent
                // shards fsync in parallel and the pass costs the
                // slowest shard, not the sum.
                let fsyncs: Vec<_> = work
                    .iter()
                    .map(|&(slot, ..)| {
                        let (flavor, shard) = self.flavor_shard(slot);
                        let stores = self.stores.clone();
                        self.scheduler
                            .submit(OpKind::Fsync, move || Self::sync_store(&stores, flavor, shard))
                    })
                    .collect();
                for (i, (job, fsync)) in work.into_iter().zip(fsyncs).enumerate() {
                    let outcome = fsync.wait();
                    finish(i, job, outcome, t0.elapsed().as_nanos() as u64);
                }
            }
            self.wake_subscribers();
            // After the pass, so a cache write never delays an ack's
            // fsync; nothing waits on its outcome.
            for shard in caches {
                let stores = self.stores.clone();
                self.scheduler.submit(OpKind::Write, move || {
                    models::write_cache(&stores.models, shard).map(|()| 0)
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uucs_harness::TempDir;
    use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
    use uucs_testcase::Resource;
    use uucs_wal::{SyncPolicy, WalConfig};

    fn rec(client: &str) -> RunRecord {
        RunRecord {
            client: client.into(),
            user: "u".into(),
            testcase: "t".into(),
            task: "IE".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Discomfort,
            offset_secs: 1.0,
            last_levels: vec![(Resource::Cpu, vec![2.0])],
            monitor: MonitorSummary::default(),
        }
    }

    fn durable_set(dir: &std::path::Path) -> Arc<StoreSet> {
        let cfg = WalConfig {
            segment_bytes: 64 * 1024,
            sync: SyncPolicy::Never, // the committer is the only fsync
        };
        let (set, _) = StoreSet::open(dir, cfg, 2).unwrap();
        Arc::new(set)
    }

    #[test]
    fn gather_share_is_the_fraction_of_fsyncs_batching_saved() {
        // Nothing batched (or nothing synced): no reason to gather.
        for (appends, slots) in [(0, 0), (5, 0), (0, 3), (1, 1), (8, 8), (3, 8)] {
            assert_eq!(gather_share(appends, slots), 0.0, "({appends}, {slots})");
        }
        assert!((gather_share(7, 1) - 6.0 / 7.0).abs() < 1e-12);
        assert!((gather_share(16, 8) - 0.5).abs() < 1e-12);
        // Monotone in the appends covered, and never the whole interval.
        let mut last = 0.0;
        for appends in 1..10_000u64 {
            let share = gather_share(appends, 3);
            assert!(
                share >= last && share < 1.0,
                "share({appends}, 3) = {share}"
            );
            last = share;
        }
        assert!(gather_share(u64::MAX, 1) <= 1.0);
    }

    /// The interval is a ceiling, not a period: with nothing to batch,
    /// an append is synced at once. The 30 s interval makes "waited out
    /// the window" and "did not" impossible to confuse.
    #[test]
    fn lone_append_is_synced_without_waiting_out_the_window() {
        let dir = TempDir::new("uucs-commit-lone");
        let stores = durable_set(dir.path());
        let (committer, handle) = GroupCommitter::start(stores.clone(), Duration::from_secs(30));
        let shard = stores.results.shard_for("c1");
        let t0 = Instant::now();
        for seq in 1..=3 {
            let mut g = stores.results.write_recovered(shard);
            g.append_batch("c1", seq, &[rec("c1")]).unwrap();
            let upto = g.wal_next_lsn();
            drop(g);
            committer
                .wait(committer.submit(StoreFlavor::Results, shard, upto))
                .unwrap();
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "lone appends waited {:?} under a 30 s ceiling",
            t0.elapsed()
        );
        committer.stop();
        handle.join().unwrap();
    }

    /// `stop` interrupts a gather in progress and the pending append is
    /// still drained — a server shutting down neither hangs for the
    /// window nor drops the tail.
    #[test]
    fn stop_cuts_the_gather_short_and_still_drains() {
        let dir = TempDir::new("uucs-commit-stop-gather");
        let stores = durable_set(dir.path());
        let (committer, handle) = GroupCommitter::start(stores.clone(), Duration::from_secs(30));
        let shard = stores.results.shard_for("c1");
        // Appends one upload per `seq` and then submits their tickets,
        // back to back: one pass answers them all. Returns the last.
        let append = |seqs: std::ops::RangeInclusive<u64>| {
            let mut g = stores.results.write_recovered(shard);
            let uptos: Vec<Lsn> = seqs
                .map(|seq| {
                    g.append_batch("c1", seq, &[rec("c1")]).unwrap();
                    g.wal_next_lsn()
                })
                .collect();
            drop(g);
            let mut last = None;
            for upto in uptos {
                last = Some(committer.submit(StoreFlavor::Results, shard, upto));
            }
            last.unwrap()
        };
        // One pass over eight requests: the next window is most of 30 s.
        committer.wait(append(1..=8)).unwrap();
        let tail = append(9..=9);
        let t0 = Instant::now();
        committer.stop();
        handle.join().unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "stop waited out the window"
        );
        committer.wait(tail).unwrap();
    }

    #[test]
    fn wait_returns_once_watermark_is_durable() {
        let dir = TempDir::new("uucs-commit-wait");
        let stores = durable_set(dir.path());
        let (committer, handle) =
            GroupCommitter::start(stores.clone(), Duration::from_micros(200));
        let shard = stores.results.shard_for("c1");
        let ticket = {
            let mut g = stores.results.write_recovered(shard);
            g.append_batch("c1", 1, &[rec("c1")]).unwrap();
            let upto = g.wal_next_lsn();
            committer.submit(StoreFlavor::Results, shard, upto)
        };
        committer.wait(ticket).unwrap();
        committer.stop();
        handle.join().unwrap();
    }

    #[test]
    fn one_pass_covers_many_appends() {
        let dir = TempDir::new("uucs-commit-batch");
        let stores = durable_set(dir.path());
        let (committer, handle) =
            GroupCommitter::start(stores.clone(), Duration::from_millis(5));
        let mut tickets = Vec::new();
        for i in 0..32 {
            let client = format!("c{i}");
            let shard = stores.results.shard_for(&client);
            let mut g = stores.results.write_recovered(shard);
            g.append_batch(&client, 1, &[rec(&client)]).unwrap();
            let upto = g.wal_next_lsn();
            drop(g);
            tickets.push(committer.submit(StoreFlavor::Results, shard, upto));
        }
        for t in tickets {
            committer.wait(t).unwrap();
        }
        committer.stop();
        handle.join().unwrap();
    }

    #[test]
    fn poll_is_nonblocking_and_converges() {
        let dir = TempDir::new("uucs-commit-poll");
        let stores = durable_set(dir.path());
        let (committer, handle) =
            GroupCommitter::start(stores.clone(), Duration::from_micros(500));
        let shard = stores.results.shard_for("c9");
        let mut g = stores.results.write_recovered(shard);
        g.append_batch("c9", 1, &[rec("c9")]).unwrap();
        let upto = g.wal_next_lsn();
        drop(g);
        let ticket = committer.submit(StoreFlavor::Results, shard, upto);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match committer.poll(ticket) {
                Some(r) => {
                    r.unwrap();
                    break;
                }
                None => {
                    assert!(Instant::now() < deadline, "commit never completed");
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
        committer.stop();
        handle.join().unwrap();
    }

    /// `sync` is the caller's own fsync: with the commit thread gone
    /// nobody else could have covered the ticket — and it was never
    /// submitted, so nobody was asked to.
    #[test]
    fn sync_covers_a_ticket_on_the_calling_thread() {
        let dir = TempDir::new("uucs-commit-sync");
        let stores = durable_set(dir.path());
        let (committer, handle) = GroupCommitter::start(stores.clone(), Duration::from_secs(30));
        committer.stop();
        handle.join().unwrap();
        let shard = stores.results.shard_for("c1");
        let mut g = stores.results.write_recovered(shard);
        g.append_batch("c1", 1, &[rec("c1")]).unwrap();
        let upto = g.wal_next_lsn();
        drop(g);
        let ticket = CommitTicket {
            flavor: StoreFlavor::Results,
            shard,
            upto,
            quorum: None,
        };
        assert!(matches!(committer.poll(ticket), Some(Err(_))), "stopped, uncovered");
        committer.sync(ticket).unwrap();
        assert_eq!(committer.poll(ticket), Some(Ok(())));
        // Covered already: nothing left to do, and still an answer.
        committer.sync(ticket).unwrap();
    }

    /// No ack waits on a model cache write: with the committer's pool held
    /// busy, uploads that make — and keep — their shard's cache due are
    /// all acked, and the write lands once the pool is free.
    #[test]
    fn uploads_ack_while_their_cache_write_is_held() {
        use crate::server::UucsServer;
        use uucs_protocol::wire::Endpoint;
        use uucs_protocol::{ClientMsg, MachineSnapshot, ServerMsg, WalEntry};
        let dir = TempDir::new("uucs-commit-held-cache");
        let cfg = WalConfig { segment_bytes: 64 * 1024, sync: SyncPolicy::Never };
        let server = UucsServer::with_store_set(StoreSet::open(dir.path(), cfg, 1).unwrap().0, 5);
        let register = ClientMsg::register(MachineSnapshot::study_machine("h"));
        let ServerMsg::Id { id, .. } = server.handle(&register) else {
            panic!("registration refused");
        };
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let held: Vec<_> = (0..crate::storage::IO_THREADS)
            .map(|_| {
                let gate = gate.clone();
                server.committer().scheduler.submit(OpKind::Read, move || {
                    let (open, opened) = &*gate;
                    let mut open = open.lock().unwrap();
                    while !*open {
                        open = opened.wait(open).unwrap();
                    }
                    Ok(0)
                })
            })
            .collect();
        let cache = dir.path().join("model-000.cache");
        let (mut seq, mut bytes) = (0, 0);
        while bytes < 2 * models::cache_bound(0) {
            seq += 1;
            let records: Vec<RunRecord> = (0..20).map(|_| rec(&id)).collect();
            bytes += WalEntry::Batch { client: id.clone(), seq, records: records.clone() }.encode().len() as u64;
            let upload = ClientMsg::Upload { client: id.clone(), seq, records };
            assert_eq!(server.handle(&upload), ServerMsg::Ack(20), "upload {seq}");
        }
        assert!(!cache.exists(), "a cache was written with the pool held");
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        for job in held {
            job.wait().unwrap();
        }
        uucs_harness::eventually("the held cache write", Duration::from_secs(10), || cache.exists());
    }

    #[test]
    fn stop_fails_unreachable_waits() {
        let dir = TempDir::new("uucs-commit-stop");
        let stores = durable_set(dir.path());
        let (committer, handle) = GroupCommitter::start(stores.clone(), Duration::from_secs(30));
        committer.stop();
        handle.join().unwrap();
        // A watermark far beyond anything appended can never be reached.
        let ticket = CommitTicket {
            flavor: StoreFlavor::Results,
            shard: 0,
            upto: 1_000_000,
            quorum: None,
        };
        assert!(committer.wait(ticket).is_err());
        assert!(matches!(committer.poll(ticket), Some(Err(_))));
    }
}
