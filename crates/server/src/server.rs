//! The server's message handler and registry, over sharded stores.
//!
//! Requests route to a shard by a stable hash of their key (client id,
//! testcase id — see [`crate::shard`]), so unrelated clients never
//! contend on a lock. Every server runs a group committer, so the
//! durable verbs split into two halves: [`UucsServer::handle_deferred`]
//! appends under the shard lock and returns a [`CommitTicket`]
//! alongside the provisional reply, and the caller redeems the ticket
//! (blocking [`GroupCommitter::wait`] in `Endpoint::handle`,
//! nonblocking `poll` in the worker-pool front end) before the client
//! sees the ack — preserving the invariant that an `Ack` means
//! "journaled on stable storage".

use crate::commit::{CommitTicket, GroupCommitter, QuorumMark, StoreFlavor, DEFAULT_INTERVAL};
use crate::journal::Journaled;
use crate::models::{self, fold_appended, ModelStore};
use crate::shard::{Sharded, StoreSet};
use crate::store::{invalid, RegistryStore, ResultStore, StoreError, TestcaseStore};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::Duration;
use uucs_modelsvc::QuantileSketch;
use uucs_pagecache::DiskScheduler;
use uucs_protocol::walenc::{
    split_payload, BorrowedBlocks, TAG_BATCH, TAG_CLIENT, TAG_RESULT, TAG_TESTCASE,
};
use uucs_protocol::wire::Endpoint;
use uucs_protocol::{ClientMsg, MachineSnapshot, RunRecord, ServerMsg, WIRE_VERSION_BINARY};
use uucs_stats::Pcg64;
use uucs_wal::crc::crc32;
use uucs_telemetry::{metrics, Counter, Gauge, Histogram};

/// Pre-registered telemetry handles for one wire verb: request count,
/// error count, handling-latency histogram. Registered once at first
/// request so the per-request cost is three atomic ops, not a registry
/// lookup.
struct VerbMetrics {
    count: Counter,
    errors: Counter,
    ns: Histogram,
}

impl VerbMetrics {
    fn new(verb: &str) -> Self {
        VerbMetrics {
            count: metrics::counter(&format!("server.verb.{verb}.count")),
            errors: metrics::counter(&format!("server.verb.{verb}.errors")),
            ns: metrics::histogram(&format!("server.verb.{verb}.ns")),
        }
    }
}

struct ServerMetrics {
    hello: VerbMetrics,
    register: VerbMetrics,
    sync: VerbMetrics,
    upload: VerbMetrics,
    model: VerbMetrics,
    modeldelta: VerbMetrics,
    advice: VerbMetrics,
    stats: VerbMetrics,
    bye: VerbMetrics,
}

fn server_metrics() -> &'static ServerMetrics {
    static METRICS: OnceLock<ServerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ServerMetrics {
        hello: VerbMetrics::new("hello"),
        register: VerbMetrics::new("register"),
        sync: VerbMetrics::new("sync"),
        upload: VerbMetrics::new("upload"),
        model: VerbMetrics::new("model"),
        modeldelta: VerbMetrics::new("modeldelta"),
        advice: VerbMetrics::new("advice"),
        stats: VerbMetrics::new("stats"),
        bye: VerbMetrics::new("bye"),
    })
}

/// Telemetry for the epoch-delta model-sync path: how many `MODELDELTA`
/// queries were answered with a delta vs. fell back to the full sketch.
struct DeltaMetrics {
    served: Counter,
    fallback: Counter,
}

fn delta_metrics() -> &'static DeltaMetrics {
    static METRICS: OnceLock<DeltaMetrics> = OnceLock::new();
    METRICS.get_or_init(|| DeltaMetrics {
        served: metrics::counter("server.model.delta.served"),
        fallback: metrics::counter("server.model.delta.fallback"),
    })
}

/// How many past merged-sketch snapshots the server retains per
/// `(resource, task)` query key for answering `MODELDELTA`. A client
/// more than this many *distinct read epochs* behind simply gets the
/// full sketch — correctness never depends on retention.
const DELTA_HISTORY: usize = 8;

/// How many `(resource, task)` query keys the delta history holds. Any
/// `MODEL`, `MODELDELTA` or `ADVICE` can name a new task, so a key past
/// this clears the whole history: the bases it held only cost their
/// clients one full sketch each.
const DELTA_HISTORY_KEYS: usize = 256;

/// One merged sketch of the whole model, as the model read path
/// ([`ModelRead::view`]) produced it: every model reply is built from
/// one of these.
struct ModelView {
    /// The epoch sum it was merged at.
    epoch: u64,
    sketch: Arc<QuantileSketch>,
    /// The encoded sketch and the CRC32 of that text (what clients echo
    /// as `basecrc`), made on first use: `ADVICE` needs neither.
    encoded: OnceLock<(String, u32)>,
}

impl ModelView {
    fn encoded(&self) -> &(String, u32) {
        self.encoded.get_or_init(|| {
            let text = self.sketch.encode();
            let crc = crc32(text.as_bytes());
            (text, crc)
        })
    }

    /// The full-sketch reply: `MODEL`, and `MODELDELTA`'s fallback.
    fn reply(&self) -> ServerMsg {
        ServerMsg::Model {
            epoch: self.epoch,
            observed: self.sketch.observed(),
            censored: self.sketch.censored(),
            sketch: self.encoded().0.clone(),
        }
    }
}

/// The model views read so far per (resource name, task filter) query
/// key, newest first and at strictly falling epochs. The newest is the
/// one reply cache, valid while its epoch is the current epoch sum; the
/// rest are the bases `MODELDELTA` can diff against.
type DeltaHistory = HashMap<(&'static str, Option<String>), VecDeque<Arc<ModelView>>>;

/// One instant of the whole comfort model: every model shard's read
/// guard, taken once, and their epoch sum. Writers take one shard at a
/// time, and the history lock is only ever taken after the guards or
/// without them, so holding them all cannot deadlock; while they are
/// held no shard moves, so every view read through them is at `epoch`.
struct ModelRead<'a> {
    guards: Vec<RwLockReadGuard<'a, ModelStore>>,
    /// The client-visible epoch: the sum over shards (each shard mints
    /// its own epochs; the sum is still monotone).
    epoch: u64,
    history: &'a Mutex<DeltaHistory>,
}

impl ModelRead<'_> {
    /// The merged sketch for a `(resource, task)` key: the key's newest
    /// view when it is at this epoch, else the merge of every shard's
    /// sketch, which becomes the key's newest view. The epoch only
    /// rises, so a view at the current epoch is the current model.
    fn view(&self, resource: uucs_testcase::Resource, task: Option<&str>) -> Arc<ModelView> {
        let mut history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
        let key = (resource.name(), task.map(str::to_string));
        if history.len() >= DELTA_HISTORY_KEYS && !history.contains_key(&key) {
            history.clear();
        }
        let views = history.entry(key).or_default();
        if let Some(newest) = views.front().filter(|v| v.epoch == self.epoch) {
            return newest.clone();
        }
        let mut sketch = QuantileSketch::for_resource(resource);
        for g in &self.guards {
            sketch
                .merge(&g.merged_sketch(resource, task))
                .expect("shard sketches of one resource share a config");
        }
        let view = Arc::new(ModelView {
            epoch: self.epoch,
            sketch: Arc::new(sketch),
            encoded: OnceLock::new(),
        });
        views.push_front(view.clone());
        views.truncate(DELTA_HISTORY);
        view
    }
}

/// Per-shard occupancy gauges, pre-registered so the hot paths pay one
/// atomic store. `server.shard.results.<i>.records` and
/// `server.shard.registry.<i>.clients`.
struct ShardGauges {
    results: Vec<Gauge>,
    registry: Vec<Gauge>,
}

impl ShardGauges {
    fn new(stores: &StoreSet) -> Self {
        let results: Vec<Gauge> = (0..stores.results.count())
            .map(|i| metrics::gauge(&format!("server.shard.results.{i}.records")))
            .collect();
        let registry: Vec<Gauge> = (0..stores.registry.count())
            .map(|i| metrics::gauge(&format!("server.shard.registry.{i}.clients")))
            .collect();
        for (i, g) in results.iter().enumerate() {
            g.set(stores.results.read(i).len() as i64);
        }
        for (i, g) in registry.iter().enumerate() {
            g.set(stores.registry.read(i).len() as i64);
        }
        ShardGauges { results, registry }
    }
}

/// The error a mutating verb reports when its shard's lock was poisoned
/// by an earlier panic. The shard has already healed for the next
/// request (see [`Sharded::try_write`]).
fn poisoned(what: &str) -> ServerMsg {
    ServerMsg::Error(format!(
        "internal: {what} store was poisoned by an earlier panic; recovered, retry"
    ))
}

/// Where a leader ships every committed mutation. Implemented by the
/// cluster tier's replication hub; the server stays ignorant of wire
/// details and ack policy.
///
/// [`ReplicationSink::ship`] never blocks: it queues the entry for the
/// followers and, when the ack must wait for one of them
/// (`--repl-ack=quorum`), says where the entry sits in the stream — a
/// [`QuorumMark`]. The ack then waits for that mark beside the local
/// fsync, not after it: on the mutation's [`CommitTicket`] (redeemed
/// through [`GroupCommitter::poll`]/`wait`, which ask
/// [`ReplicationSink::poll_quorum`]/`wait_quorum`).
///
/// The sink is invoked *after* the local store accepted the mutation
/// but *before* the client's ack. Shipping ahead of the local fsync is
/// safe: if the leader dies in the gap, the follower holds an entry the
/// client was never acked — the client retries with the same sequence
/// number and the per-client horizon dedups it, so exactly-once holds.
pub trait ReplicationSink: Send + Sync {
    /// Ships one entry — `payload` is its
    /// [`uucs_protocol::WalEntry`] encoding, the bytes the journal
    /// holds for it; `key` routes it to a shard.
    /// `Ok(None)` means the ack owes the followers nothing; an `Err`
    /// fails the client op.
    fn ship(&self, key: &str, payload: Vec<u8>) -> std::io::Result<Option<QuorumMark>>;

    /// What the ack of a *replay* owes the followers — a mutation on
    /// `key` that was applied, and shipped, by an earlier attempt: a mark
    /// at the highest sequence shipped on `key`'s shard so far, which
    /// covers the original wherever in the stream it went. `Ok(None)`
    /// and `Err` mean what they mean for [`ReplicationSink::ship`].
    fn mark_shipped(&self, key: &str) -> std::io::Result<Option<QuorumMark>>;

    /// Whether the ack `mark` stands for may go out: `None` while no
    /// live follower has acknowledged it and its deadline has not
    /// passed, `Some(Ok)` once one has (or the wait degraded to a local
    /// ack), `Some(Err)` when the leader was shut down first — an ack
    /// then would promise a copy no follower will ever be sent.
    fn poll_quorum(&self, mark: QuorumMark) -> Option<std::io::Result<()>>;

    /// [`ReplicationSink::poll_quorum`], blocking until it has an answer.
    fn wait_quorum(&self, mark: QuorumMark) -> std::io::Result<()>;
}

/// The UUCS server state. Thread-safe: the TCP front end shares one
/// instance across connections; each verb locks only the one shard its
/// key routes to.
pub struct UucsServer {
    stores: Arc<StoreSet>,
    /// The group committer every durable verb's ack waits on, running
    /// from construction to `Drop`.
    committer: Arc<GroupCommitter>,
    commit_thread: Option<JoinHandle<()>>,
    /// Seed for the per-client sampling permutations.
    sample_seed: u64,
    /// Last assigned client-id number; ids are globally unique across
    /// shards, so assignment is a global atomic, not a per-shard count.
    next_client: AtomicU64,
    /// Serializes registrations: token dedup must scan every shard
    /// before a new id is minted, and two concurrent registrations with
    /// the same token must not both mint.
    reg_lock: Mutex<()>,
    shard_gauges: ShardGauges,
    /// Committed mutations are mirrored here when the node leads a
    /// replication tier (see [`ReplicationSink`]). Set once, after
    /// construction — the sink (the cluster hub) is built around the
    /// server, so it cannot exist at constructor time.
    replication: OnceLock<Arc<dyn ReplicationSink>>,
    /// A follower's engine: mutating verbs (`REGISTER`, `UPLOAD`) are
    /// refused with a retryable error while reads (`SYNC`, `MODEL`,
    /// `ADVICE`, `STATS`) keep serving — degraded advice is acceptable,
    /// divergent writes are not. Flipped off at promotion.
    read_only: AtomicBool,
    /// Recent model views per `(resource name, task)` query key, newest
    /// first: the reply cache and the bases `MODELDELTA` can diff
    /// against. A view is recorded whenever a model read meets a new
    /// epoch, so any epoch a client *could* hold came through here.
    /// Empty on a freshly promoted follower, which makes every skewed
    /// delta request fall back to the full sketch — the safe answer.
    delta_history: Mutex<DeltaHistory>,
}

impl UucsServer {
    /// Creates a single-shard server around a testcase library, its
    /// other stores journaling in memory ([`StoreSet::in_memory`]).
    pub fn new(testcases: TestcaseStore, sample_seed: u64) -> Self {
        let mut stores = StoreSet::in_memory(1);
        stores.testcases = Sharded::new(vec![testcases]);
        Self::with_store_set(stores, sample_seed)
    }

    /// Creates a server over an explicit (typically sharded, see
    /// [`StoreSet::open`]) store set and starts its group committer at
    /// [`DEFAULT_INTERVAL`]: the committer is what makes an ack durable,
    /// so the journals should run at `SyncPolicy::Never`.
    pub fn with_store_set(stores: StoreSet, sample_seed: u64) -> Self {
        let stores = Arc::new(stores);
        let (committer, commit_thread) = GroupCommitter::start(stores.clone(), DEFAULT_INTERVAL);
        let max_id = (stores.registry.read_all().iter())
            .filter_map(|reg| reg.entries().filter_map(|(id, _)| minted(id)).max())
            .max()
            .unwrap_or(0);
        let shard_gauges = ShardGauges::new(&stores);
        UucsServer {
            stores,
            committer,
            commit_thread: Some(commit_thread),
            sample_seed,
            next_client: AtomicU64::new(max_id),
            reg_lock: Mutex::new(()),
            shard_gauges,
            replication: OnceLock::new(),
            read_only: AtomicBool::new(false),
            delta_history: Mutex::new(HashMap::new()),
        }
    }

    /// Writes, on the calling thread, the cache of every model shard
    /// whose open left it behind ([`models::catch_up`]), so the next
    /// open folds only what this life appends. A daemon calls it once
    /// it listens, on the thread that opened the journals: no request
    /// and no start waits on it, and its encodings reuse memory the open
    /// freed. Returns each write that failed, which only costs the next
    /// open the fold of those records again.
    pub fn catch_up_model_caches(&self) -> Vec<(usize, std::io::Error)> {
        models::catch_up(&self.stores.models)
    }

    /// Mirrors every committed mutation into `sink` from now on — the
    /// leader side of the replication tier. One-shot: a second call is
    /// ignored (the first sink stays wired).
    pub fn set_replication(&self, sink: Arc<dyn ReplicationSink>) {
        if self.replication.set(sink.clone()).is_ok() {
            self.committer.attach_sink(sink);
        }
    }

    /// Switches the mutating verbs on (`false`, a leader) or off
    /// (`true`, a follower). Takes effect for the next request.
    pub fn set_read_only(&self, read_only: bool) {
        self.read_only.store(read_only, Ordering::SeqCst);
    }

    /// Whether mutating verbs are currently refused (follower mode).
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::SeqCst)
    }

    /// Sets the ceiling of the committer's self-sizing gather window
    /// before a pass (see [`crate::commit`]); zero never gathers.
    pub fn with_group_commit(self, interval: Duration) -> Self {
        self.committer.set_interval(interval);
        self
    }

    /// Does nothing: every committer owns its own fsync pool and drains
    /// the deferred rotation syncs (see [`crate::commit`]). Kept only
    /// because `benchmark/src/layers.rs` builds against it; deleted by
    /// ROADMAP item 18.
    pub fn with_io_scheduler(self, _scheduler: Arc<DiskScheduler>) -> Self {
        self
    }

    /// The group committer: the worker-pool front end subscribes its
    /// wakers to it and redeems deferred acks through its nonblocking
    /// `poll`.
    pub fn committer(&self) -> &Arc<GroupCommitter> {
        &self.committer
    }

    /// [`UucsServer::committer`] in the shape `benchmark/src/layers.rs`
    /// builds against: always `Some`.
    pub fn group_committer(&self) -> Option<Arc<GroupCommitter>> {
        Some(self.committer.clone())
    }

    /// The store shard count (all families open with the same count).
    pub fn shard_count(&self) -> usize {
        self.stores.results.count()
    }

    /// The comfort model's current epoch: the sum over shards (each
    /// shard mints its own epochs; only the sum — still monotone — is
    /// client-visible).
    pub fn model_epoch(&self) -> u64 {
        self.model_read().epoch
    }

    /// The records the store set's open folded past the model caches,
    /// over every shard.
    pub fn model_folded_records(&self) -> u64 {
        self.model_read().guards.iter().map(|g| g.folded_records()).sum()
    }

    /// The line both daemons log once their stores are open: what the
    /// journals gave back, the model epoch, and the records the open
    /// folded past the model caches.
    pub fn recovered_line(&self) -> String {
        format!(
            "recovered {} testcases, {} results, {} clients, model epoch {} \
             ({} records folded past the model cache)",
            self.testcase_count(),
            self.result_count(),
            self.client_count(),
            self.model_epoch(),
            self.model_folded_records()
        )
    }

    /// The merged comfort-model sketch for a resource (optionally one
    /// task) — offline analysis and test cross-checks. The sketch the
    /// model verbs serve: sketch merges are exact, so sharding is
    /// invisible here.
    pub fn model_sketch(
        &self,
        resource: uucs_testcase::Resource,
        task: Option<&str>,
    ) -> QuantileSketch {
        self.model_read()
            .view(resource, task)
            .sketch
            .as_ref()
            .clone()
    }

    /// The one model read path: every model shard's read guard, taken
    /// once (see [`ModelRead`]). Every model verb, [`UucsServer::model_epoch`]
    /// and [`UucsServer::model_sketch`] read through it, whatever the
    /// shard count.
    fn model_read(&self) -> ModelRead<'_> {
        let guards = self.stores.models.read_all();
        let epoch = guards.iter().map(|g| g.epoch()).sum();
        ModelRead {
            guards,
            epoch,
            history: &self.delta_history,
        }
    }

    /// Adds a testcase to the library at runtime ("new testcases ... can
    /// be added to the server at any time"). Rejects duplicates; with a
    /// WAL-backed store the addition is durable once this returns `Ok`
    /// (under group commit, this waits for the covering fsync).
    pub fn add_testcase(&self, tc: uucs_testcase::Testcase) -> Result<(), StoreError> {
        self.add_testcases([&tc])
    }

    /// Adds many testcases — start-up seeding — with one durability
    /// wait per touched shard instead of one per testcase: everything
    /// is appended first, and only then is one ticket per shard, at its
    /// last append, submitted and redeemed — so the committer is not
    /// woken, and no fsync takes a shard lock, while the appends run.
    /// Each testcase is dropped once journaled, so a stream of owned
    /// testcases is never held whole. Stops at the first duplicate id
    /// or failed append; all additions are durable once this returns
    /// `Ok`.
    pub fn add_testcases<T: std::borrow::Borrow<uucs_testcase::Testcase>>(
        &self,
        testcases: impl IntoIterator<Item = T>,
    ) -> Result<(), StoreError> {
        // Each shard's last append and quorum mark: a follower's acked
        // watermark is cumulative, like the journal's, so the last mark
        // of a shard stands for the earlier ones.
        let mut last: Vec<Option<(u64, Option<QuorumMark>)>> =
            vec![None; self.stores.testcases.count()];
        let shipping = self.replication.get().is_some();
        for tc in testcases {
            let tc = tc.borrow();
            let shard = self.stores.testcases.shard_for(tc.id.as_str());
            let mut guard = self.stores.testcases.write_recovered(shard);
            let payload = guard.add_shipped(tc, shipping)?;
            let lsn = guard.wal_next_lsn();
            drop(guard);
            // A duplicate id is refused above, so a testcase has no
            // replay to acknowledge: every ack here is for a fresh ship,
            // of the payload the journal took.
            let mark = match payload {
                Some(payload) => self.ship(tc.id.as_str(), || payload),
                None => Ok(None),
            }
            .map_err(StoreError::Io)?;
            last[shard] = Some((lsn, mark));
        }
        let tickets: Vec<CommitTicket> = (last.into_iter().enumerate())
            .filter_map(|(shard, last)| {
                let (lsn, mark) = last?;
                Some(self.ticket(StoreFlavor::Testcases, shard, lsn).owing(mark))
            })
            .collect();
        for ticket in tickets {
            self.committer
                .wait(ticket)
                .map_err(|e| StoreError::Io(invalid(e)))?;
        }
        Ok(())
    }

    /// Number of testcases in the library.
    pub fn testcase_count(&self) -> usize {
        (0..self.stores.testcases.count())
            .map(|i| self.stores.testcases.read(i).len())
            .sum()
    }

    /// Number of uploaded result records.
    pub fn result_count(&self) -> usize {
        (0..self.stores.results.count())
            .map(|i| self.stores.results.read(i).len())
            .sum()
    }

    /// Every uploaded result, decoded now, in shard order. The stores
    /// hold record text; a block that does not decode is this call's
    /// error, naming the record and the line.
    pub fn results(&self) -> std::io::Result<Vec<RunRecord>> {
        let mut out = Vec::with_capacity(self.result_count());
        for g in self.stores.results.read_all() {
            for rec in g.records() {
                out.push(rec?);
            }
        }
        Ok(out)
    }

    /// Number of registered clients.
    pub fn client_count(&self) -> usize {
        (0..self.stores.registry.count())
            .map(|i| self.stores.registry.read(i).len())
            .sum()
    }

    /// The registered snapshot for a client id.
    pub fn snapshot_of(&self, client: &str) -> Option<MachineSnapshot> {
        let shard = self.stores.registry.shard_for(client);
        self.stores.registry.read(shard).get(client)
    }

    /// Whether `client` is a registered id — the check every sync and
    /// upload starts with, made on the registry's own entry.
    fn is_registered(&self, client: &str) -> bool {
        let shard = self.stores.registry.shard_for(client);
        self.stores.registry.read(shard).contains(client)
    }

    /// The highest upload batch sequence number applied for a client.
    pub fn applied_seq(&self, client: &str) -> u64 {
        let shard = self.stores.results.shard_for(client);
        self.stores.results.read(shard).applied_seq(client)
    }

    /// Applies one replicated journal payload into this node's own
    /// stores — the follower half of WAL shipping — through the
    /// [`Journaled::admit`] of the store it belongs to, which journals
    /// it as it came. Idempotent: a re-delivered entry (reconnect
    /// overlap, snapshot-then-tail seam) is absorbed without a second
    /// copy, so the stream only has to be at-least-once.
    ///
    /// Records this appends are folded into the comfort model exactly as
    /// the leader folded them on upload — a replicated batch that was
    /// already held appends nothing and folds nothing — so a follower's
    /// model is the fold of the records it holds, like any node's. That
    /// fold is why a batch's records are decoded here, once, before
    /// anything is journaled: a payload that does not decode is refused
    /// whole.
    ///
    /// The entry is durable once the returned ticket is redeemed — the
    /// follower acknowledges a burst of entries after one
    /// [`GroupCommitter::sync`] per touched journal, so the ticket is
    /// *not* submitted: a request would only wake the commit thread
    /// to race the caller's own fsync. An entry already held gets the
    /// journal's *current* watermark, so acknowledging it again is
    /// never less durable than the first time.
    pub fn apply_entry(&self, payload: &[u8]) -> std::io::Result<Option<CommitTicket>> {
        let (tag, text) = split_payload(payload).map_err(invalid)?;
        match tag {
            TAG_TESTCASE => {
                let shard = self.stores.testcases.shard_for(TestcaseStore::key_of(payload)?);
                let mut guard = self.stores.testcases.write_recovered(shard);
                guard.admit(payload)?;
                let lsn = guard.wal_next_lsn();
                drop(guard);
                Ok(Some(watermark(StoreFlavor::Testcases, shard, lsn)))
            }
            TAG_CLIENT => {
                let id = RegistryStore::key_of(payload)?;
                let _serial = self.reg_lock.lock().unwrap_or_else(PoisonError::into_inner);
                let shard = self.stores.registry.shard_for(id);
                let mut reg = self.stores.registry.write_recovered(shard);
                let fresh = reg.admit(payload)?;
                let (len, lsn) = (reg.len(), reg.wal_next_lsn());
                drop(reg);
                if fresh {
                    self.shard_gauges.registry[shard].set(len as i64);
                    // Keep the id counter ahead of every replicated id so
                    // a promoted follower never re-mints one.
                    if let Some(n) = minted(id) {
                        self.next_client.fetch_max(n, Ordering::SeqCst);
                    }
                }
                Ok(Some(watermark(StoreFlavor::Registry, shard, lsn)))
            }
            TAG_BATCH | TAG_RESULT => {
                let (client, records) = shipped_records(tag, text)?;
                let shard = self.stores.results.shard_for(&client);
                let mut results = self.stores.results.write_recovered(shard);
                results.admit(payload)?;
                self.fold(shard, &results, &records);
                Ok(Some(self.applied_results(shard, results)))
            }
            other => Err(invalid(format!("unknown wal entry tag {other:#04x}"))),
        }
    }

    /// Publishes a result shard's new length and releases it, returning
    /// the ticket for what a replicated entry appended to it.
    fn applied_results(
        &self,
        shard: usize,
        results: std::sync::RwLockWriteGuard<'_, ResultStore>,
    ) -> CommitTicket {
        let (len, lsn) = (results.len(), results.wal_next_lsn());
        drop(results);
        self.shard_gauges.results[shard].set(len as i64);
        watermark(StoreFlavor::Results, shard, lsn)
    }

    /// Applies one payload of a *snapshot* backfill stream. A snapshot
    /// batch is one client's whole record set at its horizon, so a
    /// follower holding part of it (it was tailing the old leader
    /// before the seam) admits it through
    /// [`ResultStore::admit_snapshot`]: blocks it holds are skipped by
    /// their text, the rest append — and only they are folded into the
    /// comfort model, so no observation is counted twice — and the
    /// horizon jumps to the snapshot's. Every other payload applies as
    /// in [`UucsServer::apply_entry`].
    pub fn apply_snapshot_entry(&self, payload: &[u8]) -> std::io::Result<Option<CommitTicket>> {
        let (tag, text) = split_payload(payload).map_err(invalid)?;
        if tag != TAG_BATCH {
            return self.apply_entry(payload);
        }
        let (client, records) = shipped_records(tag, text)?;
        let shard = self.stores.results.shard_for(&client);
        let mut results = self.stores.results.write_recovered(shard);
        let fresh = results.admit_snapshot(payload)?;
        let fresh: Vec<_> = fresh.into_iter().map(|i| records[i].clone()).collect();
        self.fold(shard, &results, &fresh);
        Ok(Some(self.applied_results(shard, results)))
    }

    /// The backfill snapshot a leader sends a follower the replication
    /// backlog cannot serve by tail, as `(routing key, payload)` pairs
    /// spliced from what the stores hold: the registry's export — every
    /// registration, token included, so a promoted follower honors
    /// re-registrations — then one snapshot batch per registered client
    /// holding its horizon and all its records in upload order (applying
    /// it installs both in one step), in registry order, then the
    /// testcase library's export.
    pub fn export(&self) -> std::io::Result<Vec<(String, Vec<u8>)>> {
        let mut out = Vec::new();
        for reg in self.stores.registry.read_all() {
            reg.export(&mut |id, payload| {
                out.push((id.to_string(), payload));
                Ok(())
            })?;
        }
        let registered = out.len();
        // The results export is journal-shaped — each client's horizon,
        // then every block as an entry of its own — so a shard's blocks
        // are gathered per client, and each registered client gets them
        // as one batch at its horizon.
        let mut shards = Vec::new();
        for results in self.stores.results.read_all() {
            let mut of: HashMap<String, (String, usize)> = HashMap::new();
            results.export(&mut |client, payload| {
                let (tag, text) = split_payload(&payload).map_err(invalid)?;
                if tag == TAG_RESULT {
                    let (body, count) = of.entry(client.to_string()).or_default();
                    body.push_str(text);
                    *count += 1;
                }
                Ok(())
            })?;
            shards.push((results, of));
        }
        for i in 0..registered {
            let id = out[i].0.clone();
            let (results, of) = &mut shards[self.stores.results.shard_for(&id)];
            let seq = results.applied_seq(&id);
            let (body, count) = of.remove(&id).unwrap_or_default();
            if seq > 0 || count > 0 {
                let batch = BorrowedBlocks {
                    batch: Some((&id, seq)),
                    body: &body,
                    count,
                };
                let payload = batch.encode();
                out.push((id, payload));
            }
        }
        for tcs in self.stores.testcases.read_all() {
            tcs.export(&mut |id, payload| {
                out.push((id.to_string(), payload));
                Ok(())
            })?;
        }
        Ok(out)
    }

    /// Folds what results shard `shard` just appended — `records`, the
    /// mutation's records in the order it journaled them — into model
    /// shard `shard`, while the caller still holds the results guard: so
    /// entries fold in LSN order, and the model covers exactly the
    /// entries below the LSN it names. Every append path calls it — an
    /// upload, a replicated batch, the fresh part of a snapshot batch —
    /// so a node's model is the fold of the records it holds, whatever
    /// its role. The lock order is results → model, never the reverse. A
    /// cache the fold made due is handed to the committer's pool: no
    /// ack waits on it.
    fn fold(&self, shard: usize, results: &ResultStore, records: &[RunRecord]) {
        if fold_appended(&self.stores.models, shard, results, records) {
            self.committer.cache_due(shard);
        }
    }

    /// The client-specific random order of the library. Deterministic per
    /// (server seed, client id), so each sync extends the client's sample
    /// without duplicates — the paper's "growing random sample". The
    /// global order is the concatenation of the shards in index order.
    fn client_order(&self, client: &str, total: usize) -> Vec<usize> {
        let mut rng = Pcg64::new(self.sample_seed).split_str(client);
        let mut idx: Vec<usize> = (0..total).collect();
        rng.shuffle(&mut idx);
        idx
    }

    /// Registers a durability request with the committer.
    fn ticket(&self, flavor: StoreFlavor, shard: usize, lsn: u64) -> CommitTicket {
        self.committer.submit(flavor, shard, lsn)
    }

    /// Handles one message up to (but not including) the durability
    /// wait: the reply is provisional until the returned ticket — every
    /// verb that journaled something returns one — is redeemed against
    /// the committer. The worker-pool front end uses this to keep a
    /// worker serving other connections while an fsync is in flight; [`Endpoint::handle`] wraps it with a
    /// blocking wait. Verb telemetry is recorded here (the appended
    /// latency excludes the commit wait, which `server.commit.ns`
    /// covers separately).
    pub fn handle_deferred(&self, msg: &ClientMsg) -> (ServerMsg, Option<CommitTicket>) {
        let verb = match msg {
            ClientMsg::Hello { .. } => &server_metrics().hello,
            ClientMsg::Register { .. } => &server_metrics().register,
            ClientMsg::Sync { .. } => &server_metrics().sync,
            ClientMsg::Upload { .. } => &server_metrics().upload,
            ClientMsg::Model { .. } => &server_metrics().model,
            ClientMsg::ModelDelta { .. } => &server_metrics().modeldelta,
            ClientMsg::Advice { .. } => &server_metrics().advice,
            ClientMsg::Stats { .. } => &server_metrics().stats,
            ClientMsg::Bye => &server_metrics().bye,
        };
        verb.count.inc();
        let timer = verb.ns.start_timer();
        let (reply, ticket) = self.handle_inner(msg);
        drop(timer);
        if matches!(reply, ServerMsg::Error(_)) {
            verb.errors.inc();
        }
        (reply, ticket)
    }

    /// Ships one committed mutation to the replication sink, if any —
    /// `payload` is only built when there is one — returning the mark
    /// its ack must wait for ([`CommitTicket::owing`]). An error
    /// means the client must *not* be acked: no follower holds the
    /// entry and none will be sent it.
    fn ship(
        &self,
        key: &str,
        payload: impl FnOnce() -> Vec<u8>,
    ) -> std::io::Result<Option<QuorumMark>> {
        match self.replication.get() {
            Some(sink) => sink.ship(key, payload()),
            None => Ok(None),
        }
    }

    /// [`UucsServer::ship`] for a replay: nothing is sent — the original
    /// went out the first time around — but the ack waits for a follower
    /// to hold everything shipped on `key`'s shard so far, the original
    /// included ([`ReplicationSink::mark_shipped`]).
    fn mark_shipped(&self, key: &str) -> std::io::Result<Option<QuorumMark>> {
        match self.replication.get() {
            Some(sink) => sink.mark_shipped(key),
            None => Ok(None),
        }
    }

    fn handle_inner(&self, msg: &ClientMsg) -> (ServerMsg, Option<CommitTicket>) {
        if self.is_read_only()
            && matches!(msg, ClientMsg::Register { .. } | ClientMsg::Upload { .. })
        {
            // Same wording every follower uses: clients classify this as
            // a retryable server-side refusal and fail over to the next
            // address in their list.
            return (
                ServerMsg::Error("not leader: node is read-only (try another server)".into()),
                None,
            );
        }
        match msg {
            ClientMsg::Hello { version } => {
                // Version negotiation: agree to the highest version both
                // sides speak. The *reply* is all this verb does — the
                // framing switch (when the agreed version is binary) is
                // the transport front end's job, keyed off this reply.
                let agreed = (*version).min(WIRE_VERSION_BINARY);
                (ServerMsg::Hello { version: agreed }, None)
            }
            ClientMsg::Register { snapshot, token } => self.handle_register(snapshot, token),
            ClientMsg::Sync { client, have, want } => {
                if !self.is_registered(client) {
                    return (
                        ServerMsg::Error(format!("unregistered client {client}")),
                        None,
                    );
                }
                // One consistent view across shards: all read guards in
                // index order. Writers take one shard lock at a time, so
                // this cannot deadlock against them.
                let guards = self.stores.testcases.read_all();
                let total: usize = guards.iter().map(|g| g.len()).sum();
                let order = self.client_order(client, total);
                // The reply is the held blocks spliced together: nothing
                // is rendered or decoded to answer a SYNC.
                let (mut count, mut body) = (0, String::new());
                for &global in order.iter().skip(*have).take(*want) {
                    let mut idx = global;
                    for g in &guards {
                        if idx < g.len() {
                            body.push_str(g.block(idx));
                            count += 1;
                            break;
                        }
                        idx -= g.len();
                    }
                }
                (ServerMsg::TestcaseText { count, body }, None)
            }
            ClientMsg::Upload {
                client,
                seq,
                records,
            } => self.handle_upload(client, *seq, records),
            ClientMsg::Model { resource, task } => {
                let view = self.model_read().view(*resource, task.as_deref());
                (view.reply(), None)
            }
            ClientMsg::ModelDelta {
                resource,
                task,
                since,
                basecrc,
            } => (self.handle_model_delta(*resource, task, *since, *basecrc), None),
            ClientMsg::Advice {
                resource,
                task,
                epsilon,
            } => {
                let read = self.model_read();
                let level = uucs_modelsvc::advice_from(
                    read.view(*resource, Some(task)).sketch.clone(),
                    || read.view(*resource, None).sketch.clone(),
                    *epsilon,
                );
                let reply = match level {
                    Some(level) => ServerMsg::Advice {
                        epoch: read.epoch,
                        level,
                    },
                    None => ServerMsg::Error(format!(
                        "no comfort model for {resource} yet (no observations uploaded)"
                    )),
                };
                (reply, None)
            }
            ClientMsg::Stats { reset } => {
                // Snapshot first, then optionally zero: `STATS RESET`
                // returns the counts it is about to clear, so no window
                // is ever unobservable.
                let json = metrics::snapshot_json();
                if *reset {
                    metrics::reset();
                }
                (ServerMsg::Stats(json), None)
            }
            ClientMsg::Bye => (ServerMsg::Ack(0), None),
        }
    }

    /// Answers a `MODELDELTA` query: the delta from the client's cached
    /// epoch when the server can prove (by CRC over the encoded base)
    /// that it still holds that exact base, else the full sketch. The
    /// CRC guard is what makes post-failover epoch collisions safe: a
    /// promoted leader whose epoch numbering diverged simply fails the
    /// match and full-syncs the client.
    fn handle_model_delta(
        &self,
        resource: uucs_testcase::Resource,
        task: &Option<String>,
        since: u64,
        basecrc: u32,
    ) -> ServerMsg {
        let view = self.model_read().view(resource, task.as_deref());
        if let Some(delta) = self.delta_against(resource, task, since, basecrc, &view) {
            delta_metrics().served.inc();
            return ServerMsg::ModelDelta {
                epoch: view.epoch,
                since,
                delta,
            };
        }
        delta_metrics().fallback.inc();
        view.reply()
    }

    /// The encoded delta from the client's base to `view`, or `None`
    /// when only a full sync is safe: unknown/skewed base, CRC
    /// mismatch, non-ancestor sketch, or a delta that would not
    /// actually be smaller than the full sketch.
    fn delta_against(
        &self,
        resource: uucs_testcase::Resource,
        task: &Option<String>,
        since: u64,
        basecrc: u32,
        view: &ModelView,
    ) -> Option<String> {
        let (encoded, crc) = view.encoded();
        if since == view.epoch {
            // Client is current; confirm byte identity, then a noop
            // delta tells it so without resending anything.
            if *crc != basecrc {
                return None;
            }
            return view
                .sketch
                .delta_since(&view.sketch)
                .ok()
                .map(|d| d.encode());
        }
        if since > view.epoch {
            // The client negotiated with a differently-numbered leader
            // (failover skew); its base means nothing here.
            return None;
        }
        let base = self
            .delta_history
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(resource.name(), task.clone()))?
            .iter()
            .find(|v| v.epoch == since)?
            .clone();
        if base.encoded().1 != basecrc {
            return None;
        }
        let text = view.sketch.delta_since(&base.sketch).ok()?.encode();
        // A delta carrying nearly every bin is a full sync in disguise;
        // send the real thing so the client also refreshes its base.
        if text.len() >= encoded.len() {
            return None;
        }
        Some(text)
    }

    fn handle_register(
        &self,
        snapshot: &MachineSnapshot,
        token: &str,
    ) -> (ServerMsg, Option<CommitTicket>) {
        // Registration is globally serialized: the token scan must see
        // every in-flight registration, and the id counter must only
        // advance for registrations that go on to insert.
        let _serial = self.reg_lock.lock().unwrap_or_else(PoisonError::into_inner);
        if !token.is_empty() {
            // Token-matched re-registration: same identity, and the
            // upload dedup horizon it must resume above — a client
            // whose local store (and batch counter) was wiped would
            // otherwise restart at seq 1, at or below the horizon, and
            // have its new batches ACKed as replays without being
            // stored.
            for i in 0..self.stores.registry.count() {
                let hit = {
                    let reg = self.stores.registry.read(i);
                    reg.id_for_token(token)
                        .map(|id| (id.to_string(), reg.wal_next_lsn()))
                };
                if let Some((id, lsn)) = hit {
                    // A replay of the registration: its ack owes what the
                    // original's did — the registry journal's fsync and a
                    // follower holding what was shipped on the id. The
                    // original shipped under `reg_lock`, which is held.
                    let ticket = self.ticket(StoreFlavor::Registry, i, lsn);
                    let applied_seq = self.applied_seq(&id);
                    return match self.mark_shipped(&id) {
                        Ok(mark) => (ServerMsg::Id { id, applied_seq }, Some(ticket.owing(mark))),
                        Err(e) => (ServerMsg::Error(format!("replication failed: {e}")), None),
                    };
                }
            }
        }
        let n = self.next_client.fetch_add(1, Ordering::SeqCst) + 1;
        let id = format!("client-{n:04}");
        let shard = self.stores.registry.shard_for(&id);
        let mut reg = match self.stores.registry.try_write(shard) {
            Ok(guard) => guard,
            Err(_) => return (poisoned("registry"), None),
        };
        let shipping = self.replication.get().is_some();
        match reg.register_with_id(&id, snapshot, token, shipping) {
            Ok(payload) => {
                let lsn = reg.wal_next_lsn();
                // Published under the shard lock, so racing
                // registrations cannot set their lengths out of order.
                self.shard_gauges.registry[shard].set(reg.len() as i64);
                drop(reg);
                let ticket = self.ticket(StoreFlavor::Registry, shard, lsn);
                // What is shipped is the payload the journal took.
                let shipped = match payload {
                    Some(payload) => self.ship(&id, || payload),
                    None => Ok(None),
                };
                let mark = match shipped {
                    Ok(mark) => mark,
                    Err(e) => return (ServerMsg::Error(format!("replication failed: {e}")), None),
                };
                let applied_seq = self.applied_seq(&id);
                (ServerMsg::Id { id, applied_seq }, Some(ticket.owing(mark)))
            }
            Err(e) => (
                ServerMsg::Error(format!("registration rejected: {e}")),
                None,
            ),
        }
    }

    fn handle_upload(
        &self,
        client: &str,
        seq: u64,
        records: &[RunRecord],
    ) -> (ServerMsg, Option<CommitTicket>) {
        if !self.is_registered(client) {
            return (
                ServerMsg::Error(format!("unregistered client {client}")),
                None,
            );
        }
        let shard = self.stores.results.shard_for(client);
        let mut results = match self.stores.results.try_write(shard) {
            Ok(guard) => guard,
            Err(_) => return (poisoned("result"), None),
        };
        // Ack only what the store accepted: an Ack means the records are
        // journaled and fsynced by the time the ticket is redeemed, so a
        // crash after
        // this reply loses nothing the client was told is safe. A
        // replayed batch (retransmit after a lost Ack) is
        // re-acknowledged without storing a second copy — its ticket
        // carries the *current* watermark, so the re-ack is never less
        // durable than the original.
        let shipping = self.replication.get().is_some();
        match results.append_batch_shipped(client, seq, records, shipping) {
            Ok((status, payload)) => {
                let lsn = results.wal_next_lsn();
                // Published under the shard lock, so racing uploads
                // cannot set their lengths out of order — and folded
                // under it, so they cannot fold out of LSN order. A
                // replayed retransmit appended nothing and folds nothing.
                self.shard_gauges.results[shard].set(results.len() as i64);
                self.fold(shard, &results, records);
                // The fsync is asked for first, so it runs while the
                // batch travels: the ack waits for the later of the two,
                // not their sum. Only an *applied* batch has a payload
                // to ship — what is shipped is the journal entry itself,
                // encoded once; a replay owes what is already shipped.
                // Both happen under the shard lock, so a retry that
                // finds the batch applied finds it shipped too.
                let ticket = self.ticket(StoreFlavor::Results, shard, lsn);
                let mark = match payload {
                    Some(payload) => self.ship(client, || payload),
                    None => self.mark_shipped(client),
                };
                drop(results);
                match mark {
                    Ok(mark) => (ServerMsg::Ack(status.acked()), Some(ticket.owing(mark))),
                    Err(e) => (ServerMsg::Error(format!("replication failed: {e}")), None),
                }
            }
            Err(e) => (ServerMsg::Error(format!("upload rejected: {e}")), None),
        }
    }
}

impl Drop for UucsServer {
    fn drop(&mut self) {
        self.committer.stop();
        if let Some(handle) = self.commit_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Endpoint for UucsServer {
    /// Handles one message end to end, including the group-commit wait
    /// when the verb journaled something — an `Ack` through this path
    /// is always durable (and, on a quorum leader, on a follower too).
    /// Both the TCP front end and the in-memory test transport route
    /// through the same deferred core, so telemetry covers every
    /// transport identically.
    fn handle(&self, msg: &ClientMsg) -> ServerMsg {
        let (reply, ticket) = self.handle_deferred(msg);
        match ticket.map(|ticket| self.committer.wait(ticket)) {
            Some(Err(e)) => ServerMsg::Error(e),
            _ => reply,
        }
    }
}

/// The ticket of a replicated append, not submitted: the apply loop
/// settles it itself ([`GroupCommitter::sync`]).
fn watermark(flavor: StoreFlavor, shard: usize, lsn: u64) -> CommitTicket {
    CommitTicket {
        flavor,
        shard,
        upto: lsn,
        quorum: None,
    }
}

/// The `n` of an id minted as `client-<n>`.
fn minted(id: &str) -> Option<u64> {
    id.strip_prefix("client-")?.parse().ok()
}

/// The client a shipped results payload is for — a batch's, or a
/// single record's own — and its records, decoded.
fn shipped_records(tag: u8, text: &str) -> std::io::Result<(String, Vec<RunRecord>)> {
    let blocks = match tag {
        TAG_BATCH => BorrowedBlocks::batch(text),
        _ => BorrowedBlocks::result(text),
    }
    .map_err(invalid)?;
    let records = RunRecord::parse_many(blocks.body).map_err(invalid)?;
    let client = match (blocks.batch, records.first()) {
        (Some((client, _)), _) => client,
        (None, Some(rec)) => rec.client.as_str(),
        (None, None) => return Err(invalid("result payload holds no record")),
    };
    Ok((client.to_string(), records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uucs_testcase::{ExerciseSpec, Resource, Testcase};

    fn library(n: usize) -> TestcaseStore {
        TestcaseStore::from_testcases(
            (0..n)
                .map(|i| {
                    Testcase::single(
                        format!("tc-{i:03}"),
                        1.0,
                        Resource::Cpu,
                        ExerciseSpec::Ramp {
                            level: 1.0,
                            duration: 10.0,
                        },
                    )
                })
                .collect(),
        )
        .expect("generated ids are unique")
    }

    fn register(s: &UucsServer) -> String {
        match s.handle(&ClientMsg::register(MachineSnapshot::study_machine("h"))) {
            ServerMsg::Id { id, .. } => id,
            other => panic!("expected Id, got {other:?}"),
        }
    }

    #[test]
    fn registration_assigns_unique_ids() {
        let s = UucsServer::new(library(5), 1);
        let a = register(&s);
        let b = register(&s);
        assert_ne!(a, b);
        assert_eq!(s.client_count(), 2);
        assert!(s.snapshot_of(&a).is_some());
        assert!(s.snapshot_of("nope").is_none());
    }

    #[test]
    fn growing_random_sample_never_repeats() {
        let s = UucsServer::new(library(20), 2);
        let id = register(&s);
        let mut seen = Vec::new();
        for have in [0usize, 7, 14] {
            let want = 7.min(20 - have);
            match s
                .handle(&ClientMsg::Sync {
                    client: id.clone(),
                    have,
                    want,
                })
                .received()
                .unwrap()
            {
                ServerMsg::Testcases(tcs) => {
                    assert!(tcs.len() <= want);
                    for tc in tcs {
                        assert!(
                            !seen.contains(&tc.id.as_str().to_string()),
                            "duplicate {}",
                            tc.id
                        );
                        seen.push(tc.id.as_str().to_string());
                    }
                }
                other => panic!("expected Testcases, got {other:?}"),
            }
        }
        // 7 + 7 + 6 = the whole 20-testcase library, no repeats.
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn different_clients_get_different_orders() {
        let s = UucsServer::new(library(30), 3);
        let a = register(&s);
        let b = register(&s);
        let get = |id: &str| match s
            .handle(&ClientMsg::Sync {
                client: id.to_string(),
                have: 0,
                want: 10,
            })
            .received()
            .unwrap()
        {
            ServerMsg::Testcases(tcs) => tcs.iter().map(|t| t.id.to_string()).collect::<Vec<_>>(),
            other => panic!("{other:?}"),
        };
        assert_ne!(get(&a), get(&b));
        // But each client's own order is stable.
        assert_eq!(get(&a), get(&a));
    }

    #[test]
    fn sync_past_the_end_returns_empty() {
        let s = UucsServer::new(library(3), 4);
        let id = register(&s);
        match s
            .handle(&ClientMsg::Sync {
                client: id,
                have: 3,
                want: 10,
            })
            .received()
            .unwrap()
        {
            ServerMsg::Testcases(tcs) => assert!(tcs.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unregistered_clients_rejected() {
        let s = UucsServer::new(library(3), 5);
        assert!(matches!(
            s.handle(&ClientMsg::Sync {
                client: "ghost".into(),
                have: 0,
                want: 1
            }),
            ServerMsg::Error(_)
        ));
        assert!(matches!(
            s.handle(&ClientMsg::Upload {
                client: "ghost".into(),
                seq: 1,
                records: vec![]
            }),
            ServerMsg::Error(_)
        ));
    }

    #[test]
    fn uploads_accumulate() {
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
        let s = UucsServer::new(library(1), 6);
        let id = register(&s);
        let rec = RunRecord {
            client: id.clone(),
            user: "u".into(),
            testcase: "tc-000".into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Exhausted,
            offset_secs: 10.0,
            last_levels: vec![],
            monitor: MonitorSummary::default(),
        };
        match s.handle(&ClientMsg::Upload {
            client: id.clone(),
            seq: 0,
            records: vec![rec.clone(), rec.clone()],
        }) {
            ServerMsg::Ack(2) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(s.result_count(), 2);
    }

    /// A snapshot batch meets a follower that already holds part of it:
    /// held records are skipped by equality — a shared testcase id alone
    /// is not a match — the rest append, and the horizon jumps.
    #[test]
    fn snapshot_batch_adds_only_the_records_not_already_held() {
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord, WalEntry};
        let s = UucsServer::new(library(1), 9);
        let id = register(&s);
        let rec = |testcase: &str, offset_secs: f64| RunRecord {
            client: id.clone(),
            user: "u".into(),
            testcase: testcase.into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Discomfort,
            offset_secs,
            last_levels: vec![],
            monitor: MonitorSummary::default(),
        };
        let held = vec![rec("tc-000", 1.0), rec("tc-000", 2.0)];
        let batch = |seq, records| WalEntry::Batch {
            client: id.clone(),
            seq,
            records,
        };
        s.apply_entry(&batch(2, held.clone()).encode()).unwrap();
        let mut all = held;
        all.extend([rec("tc-000", 3.0), rec("tc-001", 1.0)]);
        s.apply_snapshot_entry(&batch(5, all.clone()).encode())
            .unwrap();
        assert_eq!(s.results().unwrap(), all);
        assert_eq!(s.applied_seq(&id), 5);
        // At or below the horizon nothing is even compared.
        s.apply_snapshot_entry(&batch(5, all.clone()).encode())
            .unwrap();
        assert_eq!(s.result_count(), 4);
    }

    /// The backfill snapshot of three uploading clients over two
    /// shards, written out in full: registrations in registry-shard
    /// order, then one batch per client in that same order — its
    /// records in upload order at its horizon, a client that never
    /// uploaded left out, one whose only batch was empty kept for its
    /// horizon — then the library.
    #[test]
    fn exported_entries_group_each_clients_records_in_upload_order() {
        use crate::shard::shard_of;
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord, WalEntry};
        let s = UucsServer::with_store_set(StoreSet::in_memory(2), 9);
        for i in 0..2 {
            s.add_testcase(Testcase::blank(format!("case-{i}"), 1.0, 60.0))
                .unwrap();
        }
        let machine = |host: &str| MachineSnapshot::study_machine(host);
        let ids: Vec<String> = ["a", "b", "c", "idle", "empty"]
            .iter()
            .map(|host| {
                let token = format!("tok-{host}");
                match s.handle(&ClientMsg::Register { snapshot: machine(host), token }) {
                    ServerMsg::Id { id, .. } => id,
                    other => panic!("{other:?}"),
                }
            })
            .collect();
        let rec = |client: &str, offset_secs: f64| RunRecord {
            client: client.into(),
            user: "u".into(),
            testcase: "case-0".into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Exhausted,
            offset_secs,
            last_levels: vec![],
            monitor: MonitorSummary::default(),
        };
        // Interleaved, so a shard holds its clients' blocks mixed.
        let uploads: [(usize, u64, Vec<f64>); 7] = [
            (0, 1, vec![1.0, 2.0]),
            (1, 1, vec![3.0]),
            (2, 4, vec![4.0]),
            (0, 2, vec![5.0]),
            (4, 3, vec![]),
            (2, 5, vec![6.0, 7.0]),
            (1, 2, vec![8.0]),
        ];
        for (who, seq, offsets) in &uploads {
            let records: Vec<_> = offsets.iter().map(|&o| rec(&ids[*who], o)).collect();
            let n = records.len();
            let upload = ClientMsg::Upload { client: ids[*who].clone(), seq: *seq, records };
            assert_eq!(s.handle(&upload), ServerMsg::Ack(n));
        }

        let by_shard = |wanted: &[usize]| -> Vec<usize> {
            let mut order: Vec<usize> = wanted.to_vec();
            order.sort_by_key(|&i| shard_of(&ids[i], 2));
            order
        };
        let mut want = Vec::new();
        for i in by_shard(&[0, 1, 2, 3, 4]) {
            let host = ["a", "b", "c", "idle", "empty"][i];
            want.push(WalEntry::Client {
                id: ids[i].clone(),
                token: format!("tok-{host}"),
                snapshot: machine(host),
            });
        }
        let held: [(u64, &[f64]); 5] =
            [(2, &[1.0, 2.0, 5.0]), (2, &[3.0, 8.0]), (5, &[4.0, 6.0, 7.0]), (0, &[]), (3, &[])];
        for i in by_shard(&[0, 1, 2, 4]) {
            want.push(WalEntry::Batch {
                client: ids[i].clone(),
                seq: held[i].0,
                records: held[i].1.iter().map(|&o| rec(&ids[i], o)).collect(),
            });
        }
        let mut cases = ["case-0", "case-1"];
        cases.sort_by_key(|id| shard_of(id, 2));
        want.extend(cases.iter().map(|id| WalEntry::Testcase(Testcase::blank(*id, 1.0, 60.0))));
        let (keys, payloads): (Vec<String>, Vec<Vec<u8>>) = s.export().unwrap().into_iter().unzip();
        assert_eq!(
            payloads,
            want.iter().map(WalEntry::encode).collect::<Vec<_>>()
        );
        let routed: Vec<String> = (want.iter())
            .map(|entry| match entry {
                WalEntry::Client { id, .. } | WalEntry::Batch { client: id, .. } => id.clone(),
                WalEntry::Testcase(tc) => tc.id.to_string(),
                other => panic!("{other:?} is not exported"),
            })
            .collect();
        assert_eq!(keys, routed, "each payload is keyed as its store routes it");
    }

    /// A client that uploaded only with `seq 0` has no horizon, and a
    /// follower filled by a snapshot backfill must not invent one: the
    /// two nodes report the same horizon, and the client's next upload,
    /// at `seq 1`, is stored on both — not acked as a replay by a
    /// follower that would drop it once promoted.
    #[test]
    fn a_backfilled_legacy_client_keeps_the_leaders_horizon() {
        use uucs_protocol::{MonitorSummary, RunOutcome, WalEntry};
        let leader = UucsServer::with_store_set(StoreSet::in_memory(2), 9);
        let id = register(&leader);
        let rec = |offset_secs: f64| RunRecord {
            client: id.clone(),
            user: "u".into(),
            testcase: "tc-000".into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Discomfort,
            offset_secs,
            last_levels: vec![],
            monitor: MonitorSummary::default(),
        };
        let legacy = ClientMsg::Upload {
            client: id.clone(),
            seq: 0,
            records: vec![rec(1.0)],
        };
        assert_eq!(leader.handle(&legacy), ServerMsg::Ack(1));

        let follower = UucsServer::with_store_set(StoreSet::in_memory(3), 9);
        for (_, payload) in leader.export().unwrap() {
            follower.apply_snapshot_entry(&payload).unwrap();
        }
        assert_eq!((leader.applied_seq(&id), follower.applied_seq(&id)), (0, 0));

        let next = vec![rec(2.0)];
        let upload = ClientMsg::Upload {
            client: id.clone(),
            seq: 1,
            records: next.clone(),
        };
        assert_eq!(leader.handle(&upload), ServerMsg::Ack(1));
        let shipped = WalEntry::Batch {
            client: id.clone(),
            seq: 1,
            records: next,
        };
        follower.apply_entry(&shipped.encode()).unwrap();
        assert_eq!(leader.results().unwrap(), vec![rec(1.0), rec(2.0)]);
        assert_eq!(follower.results().unwrap(), leader.results().unwrap());
        assert_eq!((leader.applied_seq(&id), follower.applied_seq(&id)), (1, 1));
        // A second snapshot of the same state appends nothing.
        for (_, payload) in leader.export().unwrap() {
            follower.apply_snapshot_entry(&payload).unwrap();
        }
        assert_eq!(follower.result_count(), 2);
    }

    #[test]
    fn sequenced_upload_replay_is_acked_but_not_stored() {
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
        let s = UucsServer::new(library(1), 9);
        let id = register(&s);
        let rec = RunRecord {
            client: id.clone(),
            user: "u".into(),
            testcase: "tc-000".into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Exhausted,
            offset_secs: 10.0,
            last_levels: vec![],
            monitor: MonitorSummary::default(),
        };
        let upload = ClientMsg::Upload {
            client: id.clone(),
            seq: 1,
            records: vec![rec.clone(), rec],
        };
        assert!(matches!(s.handle(&upload), ServerMsg::Ack(2)));
        // The retransmit (lost Ack) gets a fresh Ack, one stored copy.
        assert!(matches!(s.handle(&upload), ServerMsg::Ack(2)));
        assert_eq!(s.result_count(), 2);
        assert_eq!(s.applied_seq(&id), 1);
    }

    /// A token-matched re-registration reports the identity's applied
    /// upload horizon, so a client that lost its local batch counter
    /// (wiped store) can fast-forward instead of resuming below the
    /// horizon — where its new, different batches would be ACKed as
    /// replays and silently discarded.
    #[test]
    fn reregistration_reports_applied_horizon() {
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
        let s = UucsServer::new(library(1), 10);
        let register = |token: &str| match s.handle(&ClientMsg::Register {
            snapshot: MachineSnapshot::study_machine("h"),
            token: token.into(),
        }) {
            ServerMsg::Id { id, applied_seq } => (id, applied_seq),
            other => panic!("expected Id, got {other:?}"),
        };
        let (id, horizon) = register("tok-wipe");
        assert_eq!(horizon, 0, "fresh identity has no horizon");
        let rec = RunRecord {
            client: id.clone(),
            user: "u".into(),
            testcase: "tc-000".into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Exhausted,
            offset_secs: 10.0,
            last_levels: vec![],
            monitor: MonitorSummary::default(),
        };
        for seq in 1..=3u64 {
            assert!(matches!(
                s.handle(&ClientMsg::Upload {
                    client: id.clone(),
                    seq,
                    records: vec![rec.clone()],
                }),
                ServerMsg::Ack(1)
            ));
        }
        // The "wiped" client re-registers with the same token: same id,
        // and the horizon it must resume above.
        let (id2, horizon) = register("tok-wipe");
        assert_eq!(id2, id);
        assert_eq!(horizon, 3);
        // Resuming above the horizon stores; at it, discards.
        assert!(matches!(
            s.handle(&ClientMsg::Upload {
                client: id.clone(),
                seq: 4,
                records: vec![rec.clone()],
            }),
            ServerMsg::Ack(1)
        ));
        assert_eq!(s.result_count(), 4);
    }

    /// A registration retried with the same token (lost `ID` reply)
    /// resolves to the same id, whichever shard holds it, and adds no
    /// client — in memory and after a restart, which also mints no id it
    /// handed out before.
    #[test]
    fn registration_token_is_idempotent() {
        use uucs_harness::TempDir;
        let dir = TempDir::new("uucs-register-token");
        let cfg = uucs_wal::WalConfig::default();
        let open = || UucsServer::with_store_set(StoreSet::open(dir.path(), cfg, 4).unwrap().0, 3);
        let register = |s: &UucsServer, token: &str| match s.handle(&ClientMsg::Register {
            snapshot: MachineSnapshot::study_machine("h"),
            token: token.into(),
        }) {
            ServerMsg::Id { id, .. } => id,
            other => panic!("expected Id, got {other:?}"),
        };
        let held = {
            let s = open();
            let a = register(&s, "tok-a");
            assert_eq!(
                register(&s, "tok-a"),
                a,
                "same token must return the same id"
            );
            assert_eq!(s.client_count(), 1, "retry must not add a second client");
            // Distinct tokens are distinct identities even from an identical
            // snapshot (the controlled study registers 33 identical machines).
            let b = register(&s, "tok-b");
            assert_ne!(a, b);
            // Legacy tokenless registrations never dedup.
            let (c, d) = (register(&s, ""), register(&s, ""));
            assert_ne!(c, d);
            assert_eq!(s.client_count(), 4);
            [a, b, c, d]
        };
        let s = open();
        assert_eq!(
            [register(&s, "tok-a"), register(&s, "tok-b")],
            [held[0].clone(), held[1].clone()]
        );
        let fresh = register(&s, "");
        assert!(!held.contains(&fresh), "{fresh} was already handed out");
        assert_eq!(s.client_count(), 5);
    }

    #[test]
    fn poisoned_lock_degrades_to_error_then_recovers() {
        let s = std::sync::Arc::new(UucsServer::new(library(2), 8));
        // Poison the (single) registry shard: panic while holding the
        // write guard.
        let s2 = s.clone();
        let _ = std::thread::spawn(move || {
            let _guard = s2.stores.registry.raw(0).write().unwrap();
            panic!("poison the registry");
        })
        .join();
        assert!(s.stores.registry.raw(0).is_poisoned());
        // The first mutating request maps the poisoning to a protocol
        // error instead of panicking the handler thread...
        assert!(matches!(
            s.handle(&ClientMsg::register(MachineSnapshot::study_machine("h"))),
            ServerMsg::Error(_)
        ));
        // ...and clears the poison, so the server keeps serving.
        assert!(!s.stores.registry.raw(0).is_poisoned());
        let id = register(&s);
        assert!(s.snapshot_of(&id).is_some());
        // Read-side observers recover throughout.
        assert_eq!(s.testcase_count(), 2);
    }

    /// Sharded layout: poisoning one shard degrades requests routed to
    /// *that shard only*; every other shard keeps serving, and the
    /// poisoned one heals after a single failed request.
    #[test]
    fn per_shard_poisoning_is_isolated() {
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
        let s = std::sync::Arc::new(UucsServer::with_store_set(StoreSet::in_memory(4), 12));
        for i in 0..4 {
            s.add_testcase(Testcase::blank(format!("tc-{i}"), 1.0, 60.0))
                .unwrap();
        }
        // Register clients until two land on different result shards.
        let mut ids = vec![register(&s)];
        while s.stores.results.shard_for(ids.last().unwrap())
            == s.stores.results.shard_for(&ids[0])
        {
            ids.push(register(&s));
        }
        let (victim, bystander) = (ids[0].clone(), ids.last().unwrap().clone());
        let victim_shard = s.stores.results.shard_for(&victim);
        let s2 = s.clone();
        let _ = std::thread::spawn(move || {
            let _guard = s2.stores.results.raw(victim_shard).write().unwrap();
            panic!("poison one result shard");
        })
        .join();
        assert!(s.stores.results.raw(victim_shard).is_poisoned());
        let rec = |client: &str| RunRecord {
            client: client.into(),
            user: "u".into(),
            testcase: "tc-0".into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Exhausted,
            offset_secs: 10.0,
            last_levels: vec![],
            monitor: MonitorSummary::default(),
        };
        // The bystander's shard is untouched: upload succeeds while the
        // victim shard is still poisoned.
        assert!(matches!(
            s.handle(&ClientMsg::Upload {
                client: bystander.clone(),
                seq: 1,
                records: vec![rec(&bystander)],
            }),
            ServerMsg::Ack(1)
        ));
        // The victim's shard fails one request...
        assert!(matches!(
            s.handle(&ClientMsg::Upload {
                client: victim.clone(),
                seq: 1,
                records: vec![rec(&victim)],
            }),
            ServerMsg::Error(_)
        ));
        // ...heals, and serves the retry.
        assert!(!s.stores.results.raw(victim_shard).is_poisoned());
        assert!(matches!(
            s.handle(&ClientMsg::Upload {
                client: victim.clone(),
                seq: 1,
                records: vec![rec(&victim)],
            }),
            ServerMsg::Ack(1)
        ));
        assert_eq!(s.result_count(), 2);
    }

    /// `STATS` answers with the telemetry snapshot, and the verbs that
    /// served this very test show up in it. Counts are asserted as
    /// presence, not exact values: the registry is process-global and
    /// other tests in this binary run concurrently.
    #[test]
    fn stats_verb_reports_verb_telemetry() {
        let s = UucsServer::new(library(2), 11);
        let id = register(&s);
        let _ = s.handle(&ClientMsg::Sync {
            client: id,
            have: 0,
            want: 1,
        });
        let json = match s.handle(&ClientMsg::Stats { reset: false }) {
            ServerMsg::Stats(json) => json,
            other => panic!("expected Stats, got {other:?}"),
        };
        assert!(json.starts_with("{\"counters\":{"), "{json}");
        for key in [
            "server.verb.register.count",
            "server.verb.sync.count",
            "server.verb.sync.ns",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains('\n'));
        // Errors are attributed to their verb.
        let _ = s.handle(&ClientMsg::Sync {
            client: "ghost".into(),
            have: 0,
            want: 1,
        });
        match s.handle(&ClientMsg::Stats { reset: false }) {
            ServerMsg::Stats(json) => {
                assert!(json.contains("server.verb.sync.errors"), "{json}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn runtime_testcase_addition() {
        let s = UucsServer::new(library(2), 7);
        assert_eq!(s.testcase_count(), 2);
        s.add_testcase(Testcase::blank("late", 1.0, 60.0)).unwrap();
        assert_eq!(s.testcase_count(), 3);
        // A duplicate id is an error, not a panic, and leaves the
        // library untouched.
        let err = s.add_testcase(Testcase::blank("late", 1.0, 60.0)).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
        assert_eq!(s.testcase_count(), 3);
    }

    /// The sharded server answers every verb with the same contract as
    /// the single-store one: uploads land on the uploader's shard, reads
    /// merge across shards.
    #[test]
    fn sharded_server_serves_all_verbs() {
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
        let s = UucsServer::with_store_set(StoreSet::in_memory(4), 13);
        for i in 0..8 {
            s.add_testcase(Testcase::blank(format!("case-{i}"), 1.0, 60.0))
                .unwrap();
        }
        let a = register(&s);
        let b = register(&s);
        // Sync: the growing sample covers the whole sharded library.
        let mut seen = Vec::new();
        for have in [0usize, 4] {
            match s
                .handle(&ClientMsg::Sync {
                    client: a.clone(),
                    have,
                    want: 4,
                })
                .received()
                .unwrap()
            {
                ServerMsg::Testcases(tcs) => {
                    for tc in tcs {
                        assert!(!seen.contains(&tc.id.to_string()));
                        seen.push(tc.id.to_string());
                    }
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(seen.len(), 8);
        // Uploads from both clients (different shards or not) all count.
        let rec = |client: &str, level: f64| RunRecord {
            client: client.into(),
            user: "u".into(),
            testcase: "case-0".into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Discomfort,
            offset_secs: 10.0,
            last_levels: vec![(Resource::Cpu, vec![level])],
            monitor: MonitorSummary::default(),
        };
        for (i, id) in [&a, &b].into_iter().enumerate() {
            assert!(matches!(
                s.handle(&ClientMsg::Upload {
                    client: id.clone(),
                    seq: 1,
                    records: vec![rec(id, 1.0 + i as f64)],
                }),
                ServerMsg::Ack(1)
            ));
        }
        assert_eq!(s.result_count(), 2);
        // Model/advice merge across shards: both observations visible.
        match s.handle(&ClientMsg::Model {
            resource: Resource::Cpu,
            task: None,
        }) {
            ServerMsg::Model {
                epoch, observed, ..
            } => {
                assert_eq!(epoch, s.model_epoch());
                assert_eq!(observed, 2);
            }
            other => panic!("{other:?}"),
        }
        match s.handle(&ClientMsg::Advice {
            resource: Resource::Cpu,
            task: "Word".into(),
            epsilon: 0.05,
        }) {
            ServerMsg::Advice { .. } => {}
            other => panic!("{other:?}"),
        }
    }

    /// Every model reply is read through one cross-shard view, so it
    /// does not depend on how many shards hold the model. One upload
    /// stream (censored runs included, a task with a space in it, and a
    /// task nobody ran, so `ADVICE` falls back to the resource
    /// aggregate) gives
    /// byte-identical `MODEL`, `ADVICE` and `MODELDELTA` replies —
    /// fresh, current and one epoch behind — at 1, 3 and 8 shards, and
    /// again once a durable 8-shard directory is resharded to 3 and to 1,
    /// where a base a client cached before the reshard still diffs.
    #[test]
    fn model_replies_do_not_depend_on_the_shard_count() {
        use crate::shard::tests::copy_tree;
        use uucs_harness::invariants::same_on_every_node;
        use uucs_harness::TempDir;
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
        use uucs_wal::{SyncPolicy, WalConfig};
        const CLIENTS: usize = 12;
        const ROUNDS: u64 = 6;
        let rec = |client: &str, i: u64| RunRecord {
            client: client.into(),
            user: format!("u{i}"),
            testcase: "tc-000".into(),
            task: ["Word", "Quake", "IE"][i as usize % 3].into(),
            skill: if i.is_multiple_of(2) { "Typical" } else { "" }.into(),
            outcome: if i.is_multiple_of(4) {
                RunOutcome::Exhausted
            } else {
                RunOutcome::Discomfort
            },
            offset_secs: 10.0,
            last_levels: vec![
                (Resource::Cpu, vec![(i * 37 % 97) as f64 / 10.0]),
                (Resource::Disk, vec![(i % 13) as f64 / 3.0]),
            ],
            monitor: MonitorSummary::default(),
        };
        let upload = |s: &UucsServer, client: &str, seq: u64| {
            let records = vec![rec(client, seq * 31 + 1), rec(client, seq * 31 + 2)];
            let reply = s.handle(&ClientMsg::Upload {
                client: client.into(),
                seq,
                records,
            });
            assert_eq!(reply, ServerMsg::Ack(2));
        };
        let feed = |s: &UucsServer| {
            let ids: Vec<String> = (0..CLIENTS).map(|_| register(s)).collect();
            for seq in 1..=ROUNDS {
                for id in &ids {
                    upload(s, id, seq);
                }
            }
            // One client whose task has a space in it.
            let spaced = register(s);
            let records = (1..=3)
                .map(|i| RunRecord {
                    task: "two words".into(),
                    ..rec(&spaced, i)
                })
                .collect();
            let reply = s.handle(&ClientMsg::Upload {
                client: spaced,
                seq: 1,
                records,
            });
            assert_eq!(reply, ServerMsg::Ack(3));
        };
        let word = |task: &str| ClientMsg::Model {
            resource: Resource::Cpu,
            task: Some(task.into()),
        };
        // The base a client holds: the `MODEL cpu Word` reply's epoch
        // and the CRC of its sketch.
        let cached = |s: &UucsServer| match s.handle(&word("Word")) {
            ServerMsg::Model { epoch, sketch, .. } => (epoch, crc32(sketch.as_bytes())),
            other => panic!("{other:?}"),
        };
        let transcript = |s: &UucsServer, (since, basecrc): (u64, u32)| {
            let delta = |since, basecrc| ClientMsg::ModelDelta {
                resource: Resource::Cpu,
                task: Some("Word".into()),
                since,
                basecrc,
            };
            let advice = |resource, task: &str| ClientMsg::Advice {
                resource,
                task: task.into(),
                epsilon: 0.05,
            };
            let mut asked = vec![ClientMsg::Model {
                resource: Resource::Cpu,
                task: None,
            }];
            asked.extend(["Word", "Quake", "Nothing"].map(word));
            asked.extend([
                advice(Resource::Cpu, "Word"),
                advice(Resource::Cpu, "Nothing"),
                advice(Resource::Disk, "IE"),
                advice(Resource::Memory, "Word"),
                delta(0, 0),
                delta(since, basecrc),
            ]);
            let mut replies: Vec<ServerMsg> = asked.iter().map(|m| s.handle(m)).collect();
            assert!(
                matches!(replies[5], ServerMsg::Advice { .. }),
                "an unobserved task falls back to the aggregate: {:?}",
                replies[5]
            );
            assert!(
                matches!(replies[9], ServerMsg::ModelDelta { .. }),
                "{:?}",
                replies[9]
            );
            upload(s, "client-0001", ROUNDS + 1);
            for m in [
                delta(since, basecrc),
                word("Word"),
                advice(Resource::Cpu, "Word"),
            ] {
                replies.push(s.handle(&m));
            }
            assert!(
                matches!(replies[10], ServerMsg::ModelDelta { epoch, .. } if epoch == since + 1),
                "one epoch behind is a delta: {:?}",
                replies[10]
            );
            // A task journaled as `two_words` reads alike live and
            // replayed, under either spelling.
            for m in [
                word("two_words"),
                word("two words"),
                advice(Resource::Cpu, "two_words"),
            ] {
                replies.push(s.handle(&m));
            }
            assert!(
                matches!(&replies[13], ServerMsg::Model { observed, .. } if *observed > 0),
                "{:?}",
                replies[13]
            );
            replies
        };
        let mut held = Vec::new();
        for shards in [1, 3, 8] {
            let s = UucsServer::with_store_set(StoreSet::in_memory(shards), 13);
            feed(&s);
            let base = cached(&s);
            held.push((format!("{shards} shards"), transcript(&s, base)));
        }
        let cfg = WalConfig {
            segment_bytes: 4096,
            sync: SyncPolicy::Never,
        };
        let open = |dir: &std::path::Path, shards| {
            UucsServer::with_store_set(StoreSet::open(dir, cfg, shards).unwrap().0, 13)
        };
        let written = TempDir::new("uucs-model-shards");
        let base = {
            let s = open(written.path(), 8);
            feed(&s);
            cached(&s)
        };
        for shards in [8, 3, 1] {
            let copy = TempDir::new("uucs-model-shards-copy");
            copy_tree(written.path(), copy.path());
            let s = open(copy.path(), shards);
            held.push((
                format!("durable 8 reopened at {shards}"),
                transcript(&s, base),
            ));
        }
        let (_, want) = held.remove(0);
        if let Err(v) = same_on_every_node(&want, held) {
            panic!("{v}");
        }
    }

    /// A `MemIo` fault at every mutating operation of an upload burst
    /// that crosses a cache bound — an append, a commit fsync, a segment
    /// rotation or a step of the cache write — and a power loss after
    /// it: the reopened server holds every acked batch once, and its
    /// model is the fold of the records it holds, one epoch per batch.
    #[test]
    fn a_fault_anywhere_in_an_upload_burst_leaves_the_model_the_fold_of_its_records() {
        use crate::models::observations_of;
        use crate::storage::Disk;
        use uucs_harness::invariants::{exactly_once, same_on_every_node, Within};
        use uucs_harness::TempDir;
        use uucs_modelsvc::ComfortModel;
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
        use uucs_wal::{FaultPlan, MemIo, SyncPolicy, WalConfig};
        let cfg = WalConfig { segment_bytes: 16 << 10, sync: SyncPolicy::Never };
        let run = |client: &str, seq: u64, i: u64| RunRecord {
            client: client.into(),
            user: format!("{seq}-{i}"),
            testcase: format!("t{}", "x".repeat(200)),
            task: ["Word", "Quake"][(seq % 2) as usize].into(),
            skill: "Typical".into(),
            outcome: if i.is_multiple_of(5) { RunOutcome::Exhausted } else { RunOutcome::Discomfort },
            offset_secs: 10.0,
            last_levels: vec![(Resource::Cpu, vec![((seq * 7 + i) % 40) as f64 * 0.125])],
            monitor: MonitorSummary::default(),
        };
        let upload = |s: &UucsServer, client: &str, seq: u64| {
            let records: Vec<RunRecord> = (0..20).map(|i| run(client, seq, i)).collect();
            let keys: Vec<_> = records.iter().map(|r| (r.client.clone(), r.user.clone())).collect();
            let msg = ClientMsg::Upload { client: client.into(), seq, records };
            (s.handle(&msg) == ServerMsg::Ack(20), keys)
        };
        let tmp = TempDir::new("uucs-model-fault-burst");
        let open = |mem: &MemIo| {
            let stores = StoreSet::open_on(1, &Disk::Memory(mem.clone()), tmp.path(), cfg, 2)?.0;
            Ok::<_, std::io::Error>(UucsServer::with_store_set(stores, 7).with_group_commit(Duration::ZERO))
        };
        // A client and most of a cache bound's worth of its uploads,
        // then the burst that crosses it.
        let base = MemIo::new();
        let (id, acked) = {
            let s = open(&base).unwrap();
            let id = register(&s);
            let mut acked = Vec::new();
            for seq in 1..=30 {
                let (ok, keys) = upload(&s, &id, seq);
                assert!(ok);
                acked.extend(keys);
            }
            (id, acked)
        };
        const BURST: std::ops::RangeInclusive<u64> = 31..=45;
        let dry = base.fork();
        let s = open(&dry).unwrap();
        let start = dry.mutating_ops();
        for seq in BURST {
            assert!(upload(&s, &id, seq).0);
        }
        drop(s);
        let ops = dry.mutating_ops() - start;
        let cache = tmp.path().join(format!("model-{:03}.cache", crate::shard::shard_of(&id, 2)));
        assert!(base.contents(&cache).is_none(), "a cache before the burst");
        assert!(dry.contents(&cache).is_some(), "the burst wrote no cache");
        for k in 0..ops {
            let mem = base.fork();
            let s = open(&mem).unwrap();
            mem.set_fault(Some(FaultPlan {
                fail_at: mem.mutating_ops() + k,
                short_write: (k % 3 == 0).then_some(k as usize % 24),
            }));
            let (mut acks, mut in_flight) = (acked.clone(), Vec::new());
            for seq in BURST {
                let (ok, keys) = upload(&s, &id, seq);
                if ok { acks.extend(keys) } else { in_flight.extend(keys) }
            }
            drop(s);
            mem.crash([0.0, 0.5, 1.0][k as usize % 3]);
            let s = open(&mem).unwrap_or_else(|e| panic!("fault at {k} of {ops}: {e}"));
            let held = s.results().unwrap();
            let keys = held.iter().map(|r| (r.client.clone(), r.user.clone()));
            exactly_once(acks, keys, in_flight).within(format!("fault at {k} of {ops}")).unwrap();
            let mut fold = ComfortModel::new();
            let mut batches = std::collections::BTreeSet::new();
            for rec in &held {
                fold.observe(&observations_of(std::slice::from_ref(rec)));
                batches.insert(rec.user.split('-').next().unwrap().to_string());
            }
            let read = |epoch, sketch: QuantileSketch| (epoch, sketch.encode());
            let want = read(batches.len() as u64, fold.merged(Resource::Cpu, None));
            let got = read(s.model_epoch(), s.model_sketch(Resource::Cpu, None));
            same_on_every_node(&want, [(format!("fault at {k} of {ops}"), got)]).unwrap();
        }
    }

    /// Every server — `UucsServer::new`, an in-memory store set and a
    /// file-backed one whose journals never sync an append — hands
    /// `REGISTER` and `UPLOAD` a commit ticket, and the ticket is not
    /// redeemable until a committer pass covers it: while the committer
    /// is held up on an earlier shard, neither ack can go out.
    #[test]
    fn every_server_acks_through_its_committer() {
        use uucs_harness::TempDir;
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
        use uucs_wal::{SyncPolicy, WalConfig};
        let dir = TempDir::new("uucs-one-path");
        let cfg = WalConfig {
            sync: SyncPolicy::Never,
            ..WalConfig::default()
        };
        let servers = [
            ("new", UucsServer::new(library(4), 5)),
            (
                "in_memory",
                UucsServer::with_store_set(StoreSet::in_memory(2), 5),
            ),
            (
                "files",
                UucsServer::with_store_set(StoreSet::open(dir.path(), cfg, 2).unwrap().0, 5),
            ),
        ];
        for (what, s) in &servers {
            let committer = s.committer();
            // A testcase append on shard 0, its sync asked for with the
            // shard lock still held here: a pass syncs the testcase slot
            // first and stays stuck on that lock until it is dropped.
            let mut blocker = s.stores.testcases.write_recovered(0);
            let tc = Testcase::single(
                "tc-blocker",
                1.0,
                Resource::Cpu,
                ExerciseSpec::Ramp {
                    level: 1.0,
                    duration: 10.0,
                },
            );
            blocker.add_shipped(&tc, false).unwrap();
            committer.submit(StoreFlavor::Testcases, 0, blocker.wal_next_lsn());

            let register = ClientMsg::register(MachineSnapshot::study_machine("h"));
            let (reply, registered) = s.handle_deferred(&register);
            let ServerMsg::Id { id, .. } = reply else {
                panic!("{what}: {reply:?}");
            };
            let record = RunRecord {
                client: id.clone(),
                user: "u".into(),
                testcase: "tc-000".into(),
                task: "Word".into(),
                skill: "Typical".into(),
                outcome: RunOutcome::Discomfort,
                offset_secs: 10.0,
                last_levels: vec![(Resource::Cpu, vec![2.0])],
                monitor: MonitorSummary::default(),
            };
            let upload = ClientMsg::Upload {
                client: id,
                seq: 1,
                records: vec![record],
            };
            let (reply, uploaded) = s.handle_deferred(&upload);
            assert_eq!(reply, ServerMsg::Ack(1), "{what}");
            let tickets = [registered, uploaded]
                .map(|t| t.unwrap_or_else(|| panic!("{what}: a durable verb without a ticket")));
            for t in tickets {
                assert_eq!(committer.poll(t), None, "{what}: {t:?} redeemable unsynced");
            }
            drop(blocker);
            for t in tickets {
                assert_eq!(committer.wait(t), Ok(()), "{what}");
                assert_eq!(committer.poll(t), Some(Ok(())), "{what}");
            }
            // The blocking path redeems the same way: a replay's ack.
            assert_eq!(s.handle(&upload), ServerMsg::Ack(1), "{what}");
        }
    }

    /// `with_group_commit` reconfigures the one running committer: no
    /// second commit thread.
    #[test]
    fn group_commit_settings_reach_the_running_committer() {
        let s = UucsServer::with_store_set(StoreSet::in_memory(2), 5);
        assert_eq!(s.committer().interval(), DEFAULT_INTERVAL);
        let committer = Arc::clone(s.committer());
        let s = s.with_group_commit(Duration::ZERO);
        assert!(Arc::ptr_eq(s.committer(), &committer));
        assert_eq!(committer.interval(), Duration::ZERO);
        assert!(matches!(
            s.handle(&ClientMsg::register(MachineSnapshot::study_machine("h"))),
            ServerMsg::Id { .. }
        ));
    }

    /// Made-up task names cannot grow the delta history without bound:
    /// 10 000 model queries, each naming a new task, leave it at or
    /// under its key cap.
    #[test]
    fn made_up_tasks_leave_the_delta_history_at_its_cap() {
        let s = UucsServer::new(library(4), 5);
        for i in 0..10_000 {
            let task = format!("made-up-{i}");
            let msg = match i % 3 {
                0 => ClientMsg::Model {
                    resource: Resource::Cpu,
                    task: Some(task),
                },
                1 => ClientMsg::ModelDelta {
                    resource: Resource::Disk,
                    task: Some(task),
                    since: 0,
                    basecrc: 0,
                },
                _ => ClientMsg::Advice {
                    resource: Resource::Memory,
                    task,
                    epsilon: 0.05,
                },
            };
            s.handle(&msg);
            let keys = s.delta_history.lock().unwrap().len();
            assert!(keys <= DELTA_HISTORY_KEYS, "{keys} keys after {i} queries");
        }
    }

    /// Hot-sync's traffic, replayed in-process: clients upload batches
    /// over the real tasks, skills and resources and refresh as the
    /// governor does (`ADVICE`, then `MODELDELTA` against the last full
    /// sketch they hold, or `MODEL` on first contact). Every reply's
    /// text-wire bytes are pinned, so bounding the delta history or
    /// re-keying cohorts moves none of them.
    #[test]
    fn hot_sync_model_replies_are_pinned() {
        use uucs_protocol::wire::write_server_msg;
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
        const TASKS: [&str; 4] = ["Word", "PowerPoint", "IE", "Quake"];
        const SKILLS: [&str; 3] = ["Beginner", "Typical", "Power"];
        let s = UucsServer::with_store_set(StoreSet::in_memory(8), 0x5e17);
        let mut rng = Pcg64::new(2004);
        let ids: Vec<String> = (0..6).map(|_| register(&s)).collect();
        // Per client: the base it holds per resource.
        let mut held: Vec<HashMap<Resource, (u64, u32)>> = vec![HashMap::new(); ids.len()];
        let mut bytes = Vec::new();
        for round in 1..=40u64 {
            for (i, id) in ids.iter().enumerate() {
                let records = (0..8)
                    .map(|_| {
                        let resource = *rng.choose(&Resource::STUDIED);
                        let top = rng.uniform(0.05, 1.0) * resource.max_contention();
                        RunRecord {
                            client: id.clone(),
                            user: String::new(),
                            testcase: "tc-000".into(),
                            task: rng.choose(&TASKS).to_string(),
                            skill: rng.choose(&SKILLS).to_string(),
                            outcome: if rng.bernoulli(0.7) {
                                RunOutcome::Discomfort
                            } else {
                                RunOutcome::Exhausted
                            },
                            offset_secs: 10.0,
                            last_levels: vec![(resource, vec![(top * 100.0).round() / 100.0])],
                            monitor: MonitorSummary::default(),
                        }
                    })
                    .collect();
                let upload = ClientMsg::Upload {
                    client: id.clone(),
                    seq: round,
                    records,
                };
                assert_eq!(s.handle(&upload), ServerMsg::Ack(8));
                let (task, bases) = (TASKS[i % TASKS.len()], &mut held[i]);
                let resource = Resource::STUDIED[(round as usize + i) % 3];
                let advice = ClientMsg::Advice {
                    resource,
                    task: task.to_string(),
                    epsilon: 0.05,
                };
                let refresh = match bases.get(&resource) {
                    Some(&(since, basecrc)) => ClientMsg::ModelDelta {
                        resource,
                        task: Some(task.to_string()),
                        since,
                        basecrc,
                    },
                    None => ClientMsg::Model {
                        resource,
                        task: Some(task.to_string()),
                    },
                };
                for ask in [advice, refresh] {
                    let reply = s.handle(&ask);
                    if let ServerMsg::Model { epoch, sketch, .. } = &reply {
                        bases.insert(resource, (*epoch, crc32(sketch.as_bytes())));
                    }
                    write_server_msg(&mut bytes, &reply).unwrap();
                }
            }
        }
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("MODELDELTA "), "no delta was served");
        assert_eq!(
            (text.len(), crc32(text.as_bytes())),
            (47861, 110079168),
            "hot-sync model replies moved"
        );
    }
}
