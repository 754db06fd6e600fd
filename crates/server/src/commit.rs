//! Group-commit WAL fsync: one dedicated thread batches pending
//! appends, fsyncs once per shard, and wakes every waiter — blocked
//! handlers through a condvar, pool workers through their wakers.
//!
//! The old engine ran each store WAL at `SyncPolicy::Always` — every
//! upload paid a full fsync while holding the store's write lock, so
//! durability cost scaled linearly with request count and serialized
//! the fleet behind the disk. Under group commit the stores run at
//! `SyncPolicy::Never`; a handler appends under the shard lock, records
//! the WAL's next-LSN as its durability watermark (a [`CommitTicket`]),
//! releases the lock, and then waits — without any lock held — until
//! the committer's next fsync pass covers that watermark. A pass
//! syncs each dirty shard exactly once no matter how many appends
//! landed since the last pass, so the per-request durability cost is
//! `fsync / batch size`, with the identical guarantee: **no request is
//! acknowledged before its journal entries are on stable storage**.
//!
//! The gather window before a pass sizes itself. The configured
//! interval is its ceiling; the window actually waited is
//! `interval × (1 − k/n)`, where the previous pass fsynced `k` slots
//! covering `n` appends — the share of fsyncs that batching saved last
//! time (`gather_share`). A lone or depth-1 client has `n = k`, so its
//! append is synced at once; saturated pipelined ingest has `n ≫ k`, so
//! the window stays near the interval and amortization is kept.
//!
//! `uucs-wal` itself stays dependency- and policy-free: the committer
//! drives the existing [`uucs_wal::Wal::sync`] (segment rotation and
//! snapshots already fsync under every policy), and batch shape is
//! observable through the `server.commit.*` telemetry series.
//!
//! Failure semantics: if an fsync fails, the slot is marked failed and
//! every current and future waiter on that shard gets the error — the
//! handler answers with a protocol error instead of an ack, exactly as
//! a failed synchronous append did before.
//!
//! On the leader of a quorum tier a ticket also carries a
//! [`QuorumMark`]: where the mutation sits in the replication stream.
//! Such a ticket is redeemable once *both* watermarks cover it — this
//! node's fsync and a follower's ack — so the fsync and the round trip
//! to the follower overlap, and no handler blocks on another machine.
//! The follower's side of it lives with the [`ReplicationSink`]; the
//! committer only asks it, after the local leg is done.

use crate::netpoll::Waker;
use crate::server::ReplicationSink;
use crate::shard::{sync_shard, StoreSet};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uucs_pagecache::{DiskScheduler, OpKind};
use uucs_telemetry::{metrics, Counter, Gauge, Histogram};
use uucs_wal::Lsn;

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

/// The number of ticketed families. Model-WAL appends are deliberately
/// not ticketed: the model is derived state, and a failed model journal
/// write never blocked an upload ack before (the records are the source
/// of truth) — so the committer never syncs a model shard and no reply
/// waits on one. A model journal reaches disk when a segment rotates
/// (its rotation sync stays inline, see
/// [`StoreSet::set_deferred_rotation_sync`]) and at compaction.
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

/// Per-slot (flavor × shard) commit bookkeeping.
struct CommitState {
    /// Highest watermark any waiter has asked for, per slot.
    pending: Vec<Lsn>,
    /// Highest watermark known durable, per slot.
    synced: Vec<Lsn>,
    /// Sticky fsync failure, per slot. Once a shard's journal cannot be
    /// synced, nothing on it is ack-able until restart.
    failed: Vec<Option<String>>,
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
/// previous pass fsynced `slots` shards covering `appends` journal
/// entries: the fraction of per-append fsyncs that batching saved. Zero
/// when nothing was batched (`appends <= slots`), approaching — never
/// reaching — one as batches deepen.
pub(crate) fn gather_share(appends: u64, slots: u64) -> f64 {
    if slots == 0 || appends <= slots {
        0.0
    } else {
        1.0 - slots as f64 / appends as f64
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
    /// Ceiling of the gather window before an fsync pass (see the
    /// module docs for how the window sizes itself under it). Zero =
    /// sync as soon as anything is pending.
    interval: Duration,
    counts: [usize; FLAVORS],
    metrics: CommitMetrics,
    /// When present, slot fsyncs are submitted to the disk scheduler's
    /// thread pool instead of running serially on the commit thread —
    /// one pass over `k` dirty shards pays `max(fsync)` wall time, not
    /// `sum(fsync)`.
    scheduler: Option<Arc<DiskScheduler>>,
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
    /// Starts the commit thread over `stores`. The returned handle must
    /// be joined after [`GroupCommitter::stop`] (the server's `Drop`
    /// does both).
    pub fn start(stores: Arc<StoreSet>, interval: Duration) -> (Arc<Self>, JoinHandle<()>) {
        Self::start_with(stores, interval, None)
    }

    /// [`GroupCommitter::start`], optionally over a [`DiskScheduler`]:
    /// with one, every fsync pass fans its per-shard syncs out to the
    /// scheduler's I/O threads and redeems the completion tickets, so
    /// independent shards sync in parallel.
    pub fn start_with(
        stores: Arc<StoreSet>,
        interval: Duration,
        scheduler: Option<Arc<DiskScheduler>>,
    ) -> (Arc<Self>, JoinHandle<()>) {
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
                idle: false,
                stop: false,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
            interval,
            counts,
            metrics: CommitMetrics {
                commits: metrics::counter("server.commit.count"),
                batch: metrics::histogram("server.commit.batch"),
                ns: metrics::histogram("server.commit.ns"),
                gather_us: metrics::gauge("server.commit.gather_us"),
                gather_ns: metrics::histogram("server.commit.gather.ns"),
            },
            scheduler,
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
    pub fn submit(&self, flavor: StoreFlavor, shard: usize, upto: Lsn) -> CommitTicket {
        let slot = self.slot(flavor, shard);
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.request(slot, upto, &self.wake);
        CommitTicket {
            flavor,
            shard,
            upto,
            quorum: None,
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
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let since = st.synced[slot];
        // Somebody has asked for this slot: a parked ticket this sync
        // may cover, so its worker is woken as after a pass.
        let awaited = st.pending[slot] > since;
        let done = since >= ticket.upto || st.failed[slot].is_some();
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
    /// or sticky failure, then wakes the blocked waiters. Returns the
    /// appends the fsync covered, `None` if it failed.
    fn finish_slot(
        &self,
        slot: usize,
        since: Lsn,
        outcome: std::io::Result<Lsn>,
        elapsed: u64,
    ) -> Option<u64> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let covered = match outcome {
            Ok(watermark) => {
                let batch = watermark.saturating_sub(since);
                self.metrics.commits.inc();
                self.metrics.batch.record(batch);
                self.metrics.ns.record(elapsed);
                if st.synced[slot] < watermark {
                    st.synced[slot] = watermark;
                }
                Some(batch)
            }
            Err(e) => {
                st.failed[slot] = Some(format!("journal sync failed: {e}"));
                None
            }
        };
        self.done.notify_all();
        covered
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
            // Park until something is dirty (or stop), gather for the
            // window, then snapshot the dirty slots. Only `stop` notifies
            // `wake` during the gather, so arrivals do not cut it short.
            let work: Vec<(usize, Lsn)> = {
                let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                while !(0..st.pending.len()).any(|s| st.dirty(s)) {
                    if st.stop {
                        return;
                    }
                    st.idle = true;
                    st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                    st.idle = false;
                }
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
                (0..st.pending.len())
                    .filter(|&s| st.dirty(s))
                    .map(|s| (s, st.synced[s]))
                    .collect()
            };
            // Sync each dirty slot without the state lock held (the
            // shard lock is what serializes against handlers).
            let mut appends = 0u64;
            let mut synced = 0u64;
            let mut tally = |covered: Option<u64>| {
                if let Some(batch) = covered {
                    appends += batch;
                    synced += 1;
                }
            };
            if let Some(sched) = &self.scheduler {
                // Fan the dirty shards out to the I/O pool; each sync
                // serializes on its own shard lock, so independent
                // shards fsync in parallel and the pass costs the
                // slowest shard, not the sum.
                let t0 = Instant::now();
                let tickets: Vec<_> = work
                    .iter()
                    .map(|&(slot, since)| {
                        let (flavor, shard) = self.flavor_shard(slot);
                        let stores = self.stores.clone();
                        let ticket = sched.submit(OpKind::Fsync, move || {
                            Self::sync_store(&stores, flavor, shard)
                        });
                        (slot, since, ticket)
                    })
                    .collect();
                for (slot, since, ticket) in tickets {
                    let outcome = ticket.wait();
                    let elapsed = t0.elapsed().as_nanos() as u64;
                    tally(self.finish_slot(slot, since, outcome, elapsed));
                }
            } else {
                for (slot, since) in work {
                    let t0 = Instant::now();
                    let (flavor, shard) = self.flavor_shard(slot);
                    let outcome = Self::sync_store(&self.stores, flavor, shard);
                    let elapsed = t0.elapsed().as_nanos() as u64;
                    tally(self.finish_slot(slot, since, outcome, elapsed));
                }
            }
            self.wake_subscribers();
            window = self.interval.mul_f64(gather_share(appends, synced));
            self.metrics.gather_us.set(window.as_micros() as i64);
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
            let upto = g.wal_next_lsn().unwrap();
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
        let append = |seqs: std::ops::RangeInclusive<u64>| {
            let mut g = stores.results.write_recovered(shard);
            for seq in seqs {
                g.append_batch("c1", seq, &[rec("c1")]).unwrap();
            }
            let upto = g.wal_next_lsn().unwrap();
            drop(g);
            committer.submit(StoreFlavor::Results, shard, upto)
        };
        // One pass over a batch of eight: the next window is most of 30 s.
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
            let upto = g.wal_next_lsn().unwrap();
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
            let upto = g.wal_next_lsn().unwrap();
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
        let upto = g.wal_next_lsn().unwrap();
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
        let upto = g.wal_next_lsn().unwrap();
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
