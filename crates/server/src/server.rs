//! The server's message handler and registry, over sharded stores.
//!
//! Requests route to a shard by a stable hash of their key (client id,
//! testcase id — see [`crate::shard`]), so unrelated clients never
//! contend on a lock. With group commit enabled
//! ([`UucsServer::with_group_commit`]) the durable verbs split into two
//! halves: [`UucsServer::handle_deferred`] appends under the shard lock
//! and returns a [`CommitTicket`] alongside the provisional reply, and
//! the caller redeems the ticket (blocking [`GroupCommitter::wait`] in
//! `Endpoint::handle`, nonblocking `poll` in the worker-pool front end)
//! before the client sees the ack — preserving the invariant that an
//! `Ack` means "journaled on stable storage".

use crate::commit::{CommitTicket, GroupCommitter, QuorumMark, StoreFlavor};
use crate::models::{observations_of, ModelStore};
use crate::shard::{Sharded, StoreSet};
use crate::store::{BatchStatus, RegistryStore, ResultStore, StoreError, TestcaseStore};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;
use uucs_modelsvc::QuantileSketch;
use uucs_pagecache::DiskScheduler;
use uucs_protocol::wire::Endpoint;
use uucs_protocol::{ClientMsg, MachineSnapshot, ServerMsg, WalEntry, WIRE_VERSION_BINARY};
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
/// more than this many *distinct served epochs* behind simply gets the
/// full sketch — correctness never depends on retention.
const DELTA_HISTORY: usize = 8;

/// One retained merged-sketch snapshot: the epoch it was served at, the
/// CRC32 of its encoded text (what clients echo as `basecrc`), and the
/// encoded text itself (decoded lazily — only a delta request pays).
struct DeltaSnap {
    epoch: u64,
    crc: u32,
    encoded: String,
}

/// The `MODELDELTA` base-history map: newest-first retained snapshots
/// per (resource name, task filter) query key.
type DeltaHistory = HashMap<(&'static str, Option<String>), VecDeque<DeltaSnap>>;

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
/// fsync, not after it: on the mutation's [`CommitTicket`] when a group
/// committer runs (redeemed through [`GroupCommitter::poll`]/`wait`,
/// which ask [`ReplicationSink::poll_quorum`]/`wait_quorum`), or inline
/// in the handler when the store syncs inline too.
///
/// The sink is invoked *after* the local store accepted the mutation
/// but *before* the client's ack. Shipping ahead of the local fsync is
/// safe: if the leader dies in the gap, the follower holds an entry the
/// client was never acked — the client retries with the same sequence
/// number and the per-client horizon dedups it, so exactly-once holds.
pub trait ReplicationSink: Send + Sync {
    /// Ships one entry — `payload` is its [`WalEntry`] encoding, the
    /// bytes the journal holds for it; `key` routes it to a shard.
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
    /// Group-commit coordinator (None = the stores fsync per their own
    /// `SyncPolicy`, as before).
    committer: Option<Arc<GroupCommitter>>,
    commit_thread: Option<JoinHandle<()>>,
    /// Dedicated disk-I/O thread pool: when present, the group
    /// committer fans its per-shard fsyncs out here and segment
    /// rotations defer their fsync to the next commit pass.
    io_scheduler: Option<Arc<DiskScheduler>>,
    /// When false, appended records are not folded into the comfort
    /// model (the `MODEL`/`ADVICE` verbs then serve a frozen — typically
    /// empty — model). Benchmarks use this to isolate the update cost.
    model_updates: bool,
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
    /// Recent merged-sketch snapshots per `(resource name, task)` query
    /// key, newest first — the bases `MODELDELTA` can diff against. A
    /// snapshot is recorded whenever a model query serves a new epoch,
    /// so any epoch a client *could* hold came through here. Empty on a
    /// freshly promoted follower, which makes every skewed delta
    /// request fall back to the full sketch — the safe answer.
    delta_history: Mutex<DeltaHistory>,
}

impl UucsServer {
    /// Creates a server around a testcase library, with a fresh
    /// non-durable result store.
    pub fn new(testcases: TestcaseStore, sample_seed: u64) -> Self {
        Self::with_stores(testcases, ResultStore::new(), sample_seed)
    }

    /// Creates a server around explicit testcase/result stores with a
    /// fresh in-memory registry — the entry point for WAL-backed
    /// durability of the data stores, where every accepted mutation is
    /// journaled before it is acknowledged.
    pub fn with_stores(testcases: TestcaseStore, results: ResultStore, sample_seed: u64) -> Self {
        Self::with_all_stores(testcases, results, RegistryStore::new(), sample_seed)
    }

    /// Creates a server around all three stores, including a (typically
    /// WAL-recovered) client registry, so a restarted server still
    /// recognizes every id it handed out and every client's upload
    /// dedup horizon. Single-shard: the legacy layout.
    pub fn with_all_stores(
        testcases: TestcaseStore,
        results: ResultStore,
        registry: RegistryStore,
        sample_seed: u64,
    ) -> Self {
        Self::with_store_set(
            StoreSet::from_single(testcases, results, registry, ModelStore::new()),
            sample_seed,
        )
    }

    /// Creates a server over an explicit (typically sharded, see
    /// [`StoreSet::open`]) store set. Records held beside a model at
    /// epoch 0 are folded into it here, once (see
    /// [`UucsServer::model_missing_records`]).
    pub fn with_store_set(stores: StoreSet, sample_seed: u64) -> Self {
        let stores = Arc::new(stores);
        let mut max_id = 0u64;
        for i in 0..stores.registry.count() {
            for (id, _) in stores.registry.read(i).all() {
                if let Some(n) = id.strip_prefix("client-").and_then(|s| s.parse::<u64>().ok()) {
                    max_id = max_id.max(n);
                }
            }
        }
        let shard_gauges = ShardGauges::new(&stores);
        let server = UucsServer {
            stores,
            committer: None,
            commit_thread: None,
            io_scheduler: None,
            model_updates: true,
            sample_seed,
            next_client: AtomicU64::new(max_id),
            reg_lock: Mutex::new(()),
            shard_gauges,
            replication: OnceLock::new(),
            read_only: AtomicBool::new(false),
            delta_history: Mutex::new(HashMap::new()),
        };
        server.model_missing_records();
        server
    }

    /// Mirrors every committed mutation into `sink` from now on — the
    /// leader side of the replication tier. One-shot: a second call is
    /// ignored (the first sink stays wired).
    pub fn set_replication(&self, sink: Arc<dyn ReplicationSink>) {
        if self.replication.set(sink.clone()).is_ok() {
            if let Some(committer) = &self.committer {
                committer.attach_sink(sink);
            }
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

    /// Replaces the comfort-model store — the entry point for WAL-backed
    /// model durability, paired with the data stores' `open_wal`. Must
    /// run before [`UucsServer::with_group_commit`] (the committer
    /// captures the store set). A store at epoch 0 beside held records
    /// is brought up to them, as at construction.
    pub fn with_model_store(mut self, models: ModelStore) -> Self {
        let set = Arc::get_mut(&mut self.stores)
            .expect("install the model store before starting group commit");
        set.models = Sharded::new(vec![models]);
        self.model_missing_records();
        self
    }

    /// Disables comfort-model updates wherever records are appended —
    /// uploads and, on a follower, replicated batches. The model verbs
    /// keep answering from whatever model the server holds; used by
    /// benchmarks to measure the upload path with aggregation off.
    pub fn without_model_updates(mut self) -> Self {
        self.model_updates = false;
        self
    }

    /// Starts the group-commit thread: store WALs should then run at
    /// `SyncPolicy::Never`, and every durable verb's ack waits for the
    /// committer's batched fsync instead of paying its own. `interval`
    /// is the ceiling of the self-sizing gather window before a pass
    /// (see [`crate::commit`]).
    pub fn with_group_commit(mut self, interval: Duration) -> Self {
        if self.io_scheduler.is_some() {
            // The committer's regular sync passes drain deferred
            // rotation syncs, so rotation can leave the append path.
            self.stores.set_deferred_rotation_sync(true);
        }
        let (committer, handle) = GroupCommitter::start_with(
            self.stores.clone(),
            interval,
            self.io_scheduler.clone(),
        );
        self.committer = Some(committer);
        self.commit_thread = Some(handle);
        self
    }

    /// Installs the disk-scheduler thread pool (see
    /// [`crate::storage::StorageProfile::scheduler`]). Must run before
    /// [`UucsServer::with_group_commit`]: the committer captures it,
    /// fans per-shard fsyncs out to its threads, and store WALs defer
    /// segment-rotation fsyncs to the committer's passes.
    pub fn with_io_scheduler(mut self, scheduler: Arc<DiskScheduler>) -> Self {
        self.io_scheduler = Some(scheduler);
        self
    }

    /// The installed disk scheduler, if any.
    pub fn io_scheduler(&self) -> Option<Arc<DiskScheduler>> {
        self.io_scheduler.clone()
    }

    /// The group-commit coordinator, when enabled — the worker-pool
    /// front end subscribes its wakers to it and redeems deferred acks
    /// through its nonblocking `poll`.
    pub fn group_committer(&self) -> Option<Arc<GroupCommitter>> {
        self.committer.clone()
    }

    /// The store shard count (all families open with the same count).
    pub fn shard_count(&self) -> usize {
        self.stores.results.count()
    }

    /// The comfort model's current epoch: the sum over shards (each
    /// shard mints its own epochs; only the sum — still monotone — is
    /// client-visible).
    pub fn model_epoch(&self) -> u64 {
        (0..self.stores.models.count())
            .map(|i| self.stores.models.read(i).epoch())
            .sum()
    }

    /// The merged comfort-model sketch for a resource (optionally one
    /// task) — offline analysis and test cross-checks. Merges across
    /// shards; sketch merges are exact, so sharding is invisible here.
    pub fn model_sketch(
        &self,
        resource: uucs_testcase::Resource,
        task: Option<&str>,
    ) -> QuantileSketch {
        let guards = self.stores.models.read_all();
        let mut out = QuantileSketch::for_resource(resource);
        for g in &guards {
            out.merge(&g.merged_sketch(resource, task))
                .expect("shard sketches of one resource share a config");
        }
        out
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
    /// is appended first, then the highest ticket of each shard is
    /// redeemed. Stops at the first duplicate id or failed append; all
    /// additions are durable once this returns `Ok`.
    pub fn add_testcases<'a>(
        &self,
        testcases: impl IntoIterator<Item = &'a uucs_testcase::Testcase>,
    ) -> Result<(), StoreError> {
        // Tickets of one shard only grow, so the last one covers the rest.
        let mut last: Vec<Option<CommitTicket>> = vec![None; self.stores.testcases.count()];
        let shipping = self.replication.get().is_some();
        for tc in testcases {
            let shard = self.stores.testcases.shard_for(tc.id.as_str());
            let mut guard = self.stores.testcases.write_recovered(shard);
            let payload = guard.add_shipped(tc, shipping)?;
            let lsn = guard.wal_next_lsn();
            drop(guard);
            let ticket = self.ticket(StoreFlavor::Testcases, shard, lsn);
            // A duplicate id is refused above, so a testcase has no
            // replay to acknowledge: every ack here is for a fresh ship,
            // of the payload the journal took.
            let ticket = match payload {
                Some(payload) => self.ship(tc.id.as_str(), || payload),
                None => Ok(None),
            }
            .and_then(|mark| self.owe_quorum(mark, ticket))
            .map_err(StoreError::Io)?;
            // A follower's acked watermark is cumulative too, so the
            // last mark of a shard stands for the earlier ones.
            if ticket.is_some() {
                last[shard] = ticket;
            }
        }
        for ticket in last.into_iter().flatten() {
            self.committer
                .as_ref()
                .expect("ticket implies committer")
                .wait(ticket)
                .map_err(|e| StoreError::Io(crate::store::invalid(e)))?;
        }
        Ok(())
    }

    /// Folds every store's journal into a checkpoint and drops the
    /// covered segments. A no-op (returning `false`) for plain stores.
    pub fn compact(&self) -> std::io::Result<bool> {
        self.stores.compact()
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
    pub fn results(&self) -> std::io::Result<Vec<uucs_protocol::RunRecord>> {
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
        self.stores.registry.read(shard).get(client).cloned()
    }

    /// Whether `client` is a registered id — the check every sync and
    /// upload starts with, made on the registry's own entry.
    fn is_registered(&self, client: &str) -> bool {
        let shard = self.stores.registry.shard_for(client);
        self.stores.registry.read(shard).get(client).is_some()
    }

    /// The highest upload batch sequence number applied for a client.
    pub fn applied_seq(&self, client: &str) -> u64 {
        let shard = self.stores.results.shard_for(client);
        self.stores.results.read(shard).applied_seq(client)
    }

    /// Saves the merged stores under a directory (`testcases.txt`,
    /// `results.txt`) — the paper's whole-file text checkpoints.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut tcs = String::new();
        for g in self.stores.testcases.read_all() {
            tcs.push_str(g.text());
        }
        std::fs::write(dir.join("testcases.txt"), tcs)?;
        let mut out = std::fs::File::create(dir.join("results.txt"))?;
        for g in self.stores.results.read_all() {
            g.write_to(&mut out)?;
        }
        Ok(())
    }

    /// Applies one replicated WAL entry into this node's own stores —
    /// the follower half of WAL shipping. Idempotent: a re-delivered
    /// entry (reconnect overlap, snapshot-then-tail seam) is absorbed
    /// without a second copy, so the stream only has to be at-least-once.
    ///
    /// Records this appends are folded into the comfort model exactly as
    /// the leader folded them on upload — a replicated batch that was
    /// already held appends nothing and folds nothing — so a follower's
    /// model is the fold of the records it holds, like any node's.
    /// `Model` entries are never shipped and are ignored.
    ///
    /// Under group commit the entry is durable once the returned ticket
    /// is redeemed — the follower acknowledges a burst of entries after
    /// one [`GroupCommitter::sync`] per touched journal, so the ticket
    /// is *not* submitted: a request would only wake the commit thread
    /// to race the caller's own fsync. An entry already held gets the
    /// journal's *current* watermark, so acknowledging it again is
    /// never less durable than the first time.
    pub fn apply_entry(&self, entry: &WalEntry) -> std::io::Result<Option<CommitTicket>> {
        match entry {
            WalEntry::Testcase(tc) => {
                let shard = self.stores.testcases.shard_for(tc.id.as_str());
                let mut guard = self.stores.testcases.write_recovered(shard);
                if !guard.contains(tc.id.as_str()) {
                    guard
                        .add(tc)
                        .map_err(|e| crate::store::invalid(e.to_string()))?;
                }
                let lsn = guard.wal_next_lsn();
                drop(guard);
                Ok(self.watermark(StoreFlavor::Testcases, shard, lsn))
            }
            WalEntry::Client {
                id,
                token,
                snapshot,
            } => {
                let _serial = self.reg_lock.lock().unwrap_or_else(PoisonError::into_inner);
                let shard = self.stores.registry.shard_for(id);
                let mut reg = self.stores.registry.write_recovered(shard);
                let fresh = reg.get(id).is_none();
                if fresh {
                    reg.register_with_id(id.clone(), snapshot.clone(), token)
                        .map_err(|e| crate::store::invalid(e.to_string()))?;
                }
                let (len, lsn) = (reg.len(), reg.wal_next_lsn());
                drop(reg);
                if fresh {
                    self.shard_gauges.registry[shard].set(len as i64);
                    // Keep the id counter ahead of every replicated id so
                    // a promoted follower never re-mints one.
                    if let Some(n) = id.strip_prefix("client-").and_then(|s| s.parse().ok()) {
                        self.next_client.fetch_max(n, Ordering::SeqCst);
                    }
                }
                Ok(self.watermark(StoreFlavor::Registry, shard, lsn))
            }
            WalEntry::Batch {
                client,
                seq,
                records,
            } => {
                let shard = self.stores.results.shard_for(client);
                let mut results = self.stores.results.write_recovered(shard);
                let status = results
                    .append_batch(client, *seq, records)
                    .map_err(|e| crate::store::invalid(e.to_string()))?;
                let ticket = self.applied_results(shard, results);
                if matches!(status, BatchStatus::Applied(_)) {
                    self.observe(client, records);
                }
                Ok(ticket)
            }
            WalEntry::Result(rec) => {
                let shard = self.stores.results.shard_for(rec.client.as_str());
                let mut results = self.stores.results.write_recovered(shard);
                let records = std::slice::from_ref(rec);
                results
                    .append(records)
                    .map_err(|e| crate::store::invalid(e.to_string()))?;
                let ticket = self.applied_results(shard, results);
                self.observe(&rec.client, records);
                Ok(ticket)
            }
            WalEntry::Model(_) => Ok(None),
        }
    }

    /// Publishes a result shard's new length and releases it, returning
    /// the ticket for what a replicated entry appended to it.
    fn applied_results(
        &self,
        shard: usize,
        results: std::sync::RwLockWriteGuard<'_, ResultStore>,
    ) -> Option<CommitTicket> {
        let (len, lsn) = (results.len(), results.wal_next_lsn());
        drop(results);
        self.shard_gauges.results[shard].set(len as i64);
        self.watermark(StoreFlavor::Results, shard, lsn)
    }

    /// Applies one entry of a *snapshot* backfill stream. Snapshot
    /// `Batch` entries are synthetic — the client's full record set at
    /// its current sequence horizon — so a follower holding partial
    /// state (it was tailing the old leader before the seam) must
    /// absorb them record-by-record: records it already applied are
    /// skipped by equality, the rest append — and only they are folded
    /// into the comfort model, so no observation is counted twice — and
    /// the horizon jumps to the snapshot's sequence. All other entries
    /// apply as in [`UucsServer::apply_entry`].
    pub fn apply_snapshot_entry(&self, entry: &WalEntry) -> std::io::Result<Option<CommitTicket>> {
        let WalEntry::Batch {
            client,
            seq,
            records,
        } = entry
        else {
            return self.apply_entry(entry);
        };
        let shard = self.stores.results.shard_for(client);
        let mut results = self.stores.results.write_recovered(shard);
        if results.applied_seq(client) >= *seq {
            return Ok(self.applied_results(shard, results));
        }
        // Equal records have equal `client` and `testcase` fields, so
        // only the held records of the incoming ones' clients can match
        // — the only blocks decoded, none read once the shard knows it
        // holds none of theirs — and only within one testcase: index
        // those in one pass over the shard, not one pass per record.
        let clients: HashSet<&str> = records.iter().map(|r| r.client.as_str()).collect();
        let mut held: HashMap<String, Vec<uucs_protocol::RunRecord>> = HashMap::new();
        for have in results.held_of(&clients)? {
            held.entry(have.testcase.clone()).or_default().push(have);
        }
        let fresh: Vec<_> = records
            .iter()
            .filter(|r| !held.get(&r.testcase).is_some_and(|same| same.contains(r)))
            .cloned()
            .collect();
        results
            .append_batch(client, *seq, &fresh)
            .map_err(|e| crate::store::invalid(e.to_string()))?;
        let ticket = self.applied_results(shard, results);
        self.observe(client, &fresh);
        Ok(ticket)
    }

    /// Folds the current store state into a stream of self-contained
    /// WAL entries — the backfill snapshot a leader sends a follower
    /// the replication backlog cannot serve by tail. One
    /// `Client` entry per registration (token included, so the promoted
    /// follower honors re-registrations), then one synthetic `Batch`
    /// per client at its current applied sequence carrying all its
    /// records — applying it installs both the records and the upload
    /// dedup horizon in one step — then every `Testcase`.
    pub fn export_entries(&self) -> std::io::Result<Vec<WalEntry>> {
        let mut out = Vec::new();
        let mut clients = Vec::new();
        for i in 0..self.stores.registry.count() {
            let reg = self.stores.registry.read(i);
            for (id, snapshot) in reg.all() {
                let token = reg.token_of(id).unwrap_or("").to_string();
                out.push(WalEntry::Client {
                    id: id.clone(),
                    token,
                    snapshot: snapshot.clone(),
                });
                clients.push(id.clone());
            }
        }
        // Each shard is decoded once, its records grouped by the client
        // they name (upload order kept within a group) — not filtered
        // once per client.
        let shards = self.stores.results.read_all();
        let mut by_shard = Vec::with_capacity(shards.len());
        for results in &shards {
            let mut of: HashMap<String, Vec<uucs_protocol::RunRecord>> = HashMap::new();
            for rec in results.records() {
                let rec = rec?;
                match of.get_mut(&rec.client) {
                    Some(group) => group.push(rec),
                    None => {
                        of.insert(rec.client.clone(), vec![rec]);
                    }
                }
            }
            by_shard.push(of);
        }
        for id in clients {
            let shard = self.stores.results.shard_for(&id);
            let seq = shards[shard].applied_seq(&id);
            let records = by_shard[shard].remove(&id).unwrap_or_default();
            if seq > 0 || !records.is_empty() {
                out.push(WalEntry::Batch {
                    client: id,
                    seq: seq.max(1),
                    records,
                });
            }
        }
        for g in self.stores.testcases.read_all() {
            out.extend(g.testcases().into_iter().map(WalEntry::Testcase));
        }
        Ok(out)
    }

    /// Folds records this node has just appended for `client` into the
    /// comfort model as one epoch (none when they carry no observation).
    /// Every append path calls it — an upload, a replicated batch, the
    /// fresh part of a snapshot batch — so a node's model is the fold of
    /// the records it holds, whatever its role. A model journal failure
    /// is counted, not returned: the records are the source of truth and
    /// the model is derived from them, which is also why model appends
    /// are never ticketed and no ack waits on them.
    fn observe(&self, client: &str, records: &[uucs_protocol::RunRecord]) {
        if !self.model_updates {
            return;
        }
        let obs = observations_of(records);
        if obs.is_empty() {
            return;
        }
        match self
            .stores
            .models
            .try_write(self.stores.models.shard_for(client))
        {
            Ok(mut models) => {
                if models.observe_batch(obs).is_err() {
                    ModelStore::count_update_error();
                }
            }
            Err(_) => ModelStore::count_update_error(),
        }
    }

    /// Brings a model at epoch 0 up to the records held beside it, once:
    /// one [`UucsServer::observe`] per client, shard by shard. A data
    /// directory is in that state when a node that did not fold what it
    /// appended wrote it — a follower of an older build — so without
    /// this a promoted follower would serve a model missing everything
    /// it held. A model with any epoch is left alone: it was folded as
    /// the records arrived (and is journaled, so this never runs twice).
    fn model_missing_records(&self) {
        if !self.model_updates || self.model_epoch() > 0 || self.result_count() == 0 {
            return;
        }
        for shard in 0..self.stores.results.count() {
            let mut of: BTreeMap<String, Vec<uucs_protocol::RunRecord>> = BTreeMap::new();
            for rec in self.stores.results.read(shard).records() {
                match rec {
                    Ok(rec) => of.entry(rec.client.clone()).or_default().push(rec),
                    Err(_) => ModelStore::count_update_error(),
                }
            }
            for (client, records) in of {
                self.observe(&client, &records);
            }
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

    /// Registers a durability request with the committer, when one is
    /// running and the store is WAL-backed.
    fn ticket(&self, flavor: StoreFlavor, shard: usize, lsn: Option<u64>) -> Option<CommitTicket> {
        match (&self.committer, lsn) {
            (Some(c), Some(upto)) => Some(c.submit(flavor, shard, upto)),
            _ => None,
        }
    }

    /// [`UucsServer::ticket`] without the request: the watermark of a
    /// replicated append, for the apply loop to settle itself.
    fn watermark(
        &self,
        flavor: StoreFlavor,
        shard: usize,
        lsn: Option<u64>,
    ) -> Option<CommitTicket> {
        self.committer.as_ref()?;
        Some(CommitTicket {
            flavor,
            shard,
            upto: lsn?,
            quorum: None,
        })
    }

    /// Handles one message up to (but not including) the durability
    /// wait: the reply is provisional until the returned ticket — if
    /// any — is redeemed against the committer. The worker-pool front
    /// end uses this to keep a worker serving other connections while
    /// an fsync is in flight; [`Endpoint::handle`] wraps it with a
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
    /// its ack must wait for ([`UucsServer::owe_quorum`]). An error
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

    /// Ties an ack to the follower's: the quorum mark rides `ticket`
    /// when the mutation has one (the fsync it stands for is already
    /// under way), and is waited for here otherwise, beside the store's
    /// inline fsync — so never call this under a store lock.
    fn owe_quorum(
        &self,
        mark: Option<QuorumMark>,
        ticket: Option<CommitTicket>,
    ) -> std::io::Result<Option<CommitTicket>> {
        match (mark, ticket, self.replication.get()) {
            (Some(mark), Some(ticket), _) => Ok(Some(CommitTicket {
                quorum: Some(mark),
                ..ticket
            })),
            (Some(mark), None, Some(sink)) => sink.wait_quorum(mark).map(|()| None),
            (_, ticket, _) => Ok(ticket),
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
                let (epoch, observed, censored, sketch) = if self.stores.models.count() == 1 {
                    self.stores.models.read(0).merged(*resource, task.as_deref())
                } else {
                    let guards = self.stores.models.read_all();
                    let epoch: u64 = guards.iter().map(|g| g.epoch()).sum();
                    let mut merged = QuantileSketch::for_resource(*resource);
                    for g in &guards {
                        merged
                            .merge(&g.merged_sketch(*resource, task.as_deref()))
                            .expect("shard sketches of one resource share a config");
                    }
                    (epoch, merged.observed(), merged.censored(), merged.encode())
                };
                // Remember what this epoch looked like: a client holding
                // this reply may come back with `MODELDELTA <epoch>
                // <crc>` and the diff base has to be byte-identical.
                self.record_delta_base(*resource, task, epoch, &sketch);
                (
                    ServerMsg::Model {
                        epoch,
                        observed,
                        censored,
                        sketch,
                    },
                    None,
                )
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
                let reply = if self.stores.models.count() == 1 {
                    match self.stores.models.read(0).advice(*resource, task, *epsilon) {
                        Some((epoch, level)) => ServerMsg::Advice { epoch, level },
                        None => ServerMsg::Error(format!(
                            "no comfort model for {resource} yet (no observations uploaded)"
                        )),
                    }
                } else {
                    // Same preference as the single-store path: the
                    // task-contextual sketch when it has observations,
                    // else the resource aggregate — each merged across
                    // every shard first.
                    let guards = self.stores.models.read_all();
                    let epoch: u64 = guards.iter().map(|g| g.epoch()).sum();
                    let mut contextual = QuantileSketch::for_resource(*resource);
                    let mut aggregate = QuantileSketch::for_resource(*resource);
                    for g in &guards {
                        contextual
                            .merge(&g.merged_sketch(*resource, Some(task)))
                            .expect("shard sketches of one resource share a config");
                        aggregate
                            .merge(&g.merged_sketch(*resource, None))
                            .expect("shard sketches of one resource share a config");
                    }
                    let pick = if contextual.observed() > 0 {
                        &contextual
                    } else {
                        &aggregate
                    };
                    match pick.advice_level(*epsilon) {
                        Some(level) => ServerMsg::Advice { epoch, level },
                        None => ServerMsg::Error(format!(
                            "no comfort model for {resource} yet (no observations uploaded)"
                        )),
                    }
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

    /// Retains the sketch a model query just served, so a later
    /// `MODELDELTA <epoch> <crc>` can diff against the byte-identical
    /// base. Newest first, capped at [`DELTA_HISTORY`]; same-epoch
    /// re-queries are absorbed by the front check.
    fn record_delta_base(
        &self,
        resource: uucs_testcase::Resource,
        task: &Option<String>,
        epoch: u64,
        encoded: &str,
    ) {
        let mut hist = self
            .delta_history
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let q = hist.entry((resource.name(), task.clone())).or_default();
        if q.front().map(|s| s.epoch) == Some(epoch) {
            return;
        }
        q.push_front(DeltaSnap {
            epoch,
            crc: crc32(encoded.as_bytes()),
            encoded: encoded.to_string(),
        });
        q.truncate(DELTA_HISTORY);
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
        // One guard acquisition, so the epoch and the merged sketch
        // describe the same instant.
        let guards = self.stores.models.read_all();
        let epoch: u64 = guards.iter().map(|g| g.epoch()).sum();
        let mut merged = QuantileSketch::for_resource(resource);
        for g in &guards {
            merged
                .merge(&g.merged_sketch(resource, task.as_deref()))
                .expect("shard sketches of one resource share a config");
        }
        drop(guards);
        let encoded = merged.encode();
        self.record_delta_base(resource, task, epoch, &encoded);
        if let Some(delta) = self.delta_against(resource, task, since, basecrc, epoch, &merged, &encoded)
        {
            delta_metrics().served.inc();
            return ServerMsg::ModelDelta {
                epoch,
                since,
                delta,
            };
        }
        delta_metrics().fallback.inc();
        ServerMsg::Model {
            epoch,
            observed: merged.observed(),
            censored: merged.censored(),
            sketch: encoded,
        }
    }

    /// The encoded delta from the client's base to `merged`, or `None`
    /// when only a full sync is safe: unknown/skewed base, CRC
    /// mismatch, non-ancestor sketch, or a delta that would not
    /// actually be smaller than the full sketch.
    #[allow(clippy::too_many_arguments)]
    fn delta_against(
        &self,
        resource: uucs_testcase::Resource,
        task: &Option<String>,
        since: u64,
        basecrc: u32,
        epoch: u64,
        merged: &QuantileSketch,
        encoded: &str,
    ) -> Option<String> {
        if since == epoch {
            // Client is current; confirm byte identity, then a noop
            // delta tells it so without resending anything.
            if crc32(encoded.as_bytes()) != basecrc {
                return None;
            }
            return merged.delta_since(merged).ok().map(|d| d.encode());
        }
        if since > epoch {
            // The client negotiated with a differently-numbered leader
            // (failover skew); its base means nothing here.
            return None;
        }
        let hist = self
            .delta_history
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let snap = hist
            .get(&(resource.name(), task.clone()))?
            .iter()
            .find(|s| s.epoch == since && s.crc == basecrc)?;
        let base = QuantileSketch::decode(&snap.encoded).ok()?;
        drop(hist);
        let text = merged.delta_since(&base).ok()?.encode();
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
                    return match self
                        .mark_shipped(&id)
                        .and_then(|mark| self.owe_quorum(mark, ticket))
                    {
                        Ok(ticket) => (ServerMsg::Id { id, applied_seq }, ticket),
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
        match reg.register_with_id(id.clone(), snapshot.clone(), token) {
            Ok(()) => {
                let lsn = reg.wal_next_lsn();
                // Published under the shard lock, so racing
                // registrations cannot set their lengths out of order.
                self.shard_gauges.registry[shard].set(reg.len() as i64);
                drop(reg);
                let ticket = self.ticket(StoreFlavor::Registry, shard, lsn);
                let shipped = self
                    .ship(&id, || {
                        WalEntry::Client {
                            id: id.clone(),
                            token: token.to_string(),
                            snapshot: snapshot.clone(),
                        }
                        .encode()
                    })
                    .and_then(|mark| self.owe_quorum(mark, ticket));
                let ticket = match shipped {
                    Ok(ticket) => ticket,
                    Err(e) => return (ServerMsg::Error(format!("replication failed: {e}")), None),
                };
                let applied_seq = self.applied_seq(&id);
                (ServerMsg::Id { id, applied_seq }, ticket)
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
        records: &[uucs_protocol::RunRecord],
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
        // Ack only what the store accepted: with a WAL-backed store an
        // Ack means the records are journaled (and, under group commit,
        // fsynced by the time the ticket is redeemed), so a crash after
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
                // cannot set their lengths out of order.
                self.shard_gauges.results[shard].set(results.len() as i64);
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
                // Only an *applied* batch is folded into the model: a
                // replayed retransmit must not double-count.
                if matches!(status, BatchStatus::Applied(_)) {
                    self.observe(client, records);
                }
                match mark.and_then(|mark| self.owe_quorum(mark, ticket)) {
                    Ok(ticket) => (ServerMsg::Ack(status.acked()), ticket),
                    Err(e) => (ServerMsg::Error(format!("replication failed: {e}")), None),
                }
            }
            Err(e) => (ServerMsg::Error(format!("upload rejected: {e}")), None),
        }
    }
}

impl Drop for UucsServer {
    fn drop(&mut self) {
        if let Some(committer) = &self.committer {
            committer.stop();
        }
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
        if let (Some(ticket), Some(committer)) = (ticket, &self.committer) {
            if let Err(e) = committer.wait(ticket) {
                return ServerMsg::Error(e);
            }
        }
        reply
    }
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
        s.apply_entry(&batch(2, held.clone())).unwrap();
        let mut all = held;
        all.extend([rec("tc-000", 3.0), rec("tc-001", 1.0)]);
        s.apply_snapshot_entry(&batch(5, all.clone())).unwrap();
        assert_eq!(s.results().unwrap(), all);
        assert_eq!(s.applied_seq(&id), 5);
        // At or below the horizon nothing is even compared.
        s.apply_snapshot_entry(&batch(5, all.clone())).unwrap();
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
        let s = UucsServer::with_store_set(StoreSet::plain(2), 9);
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
        assert_eq!(s.export_entries().unwrap(), want);
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
        let s = std::sync::Arc::new(UucsServer::with_store_set(StoreSet::plain(4), 12));
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
        let s = UucsServer::with_store_set(StoreSet::plain(4), 13);
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

    /// Group commit with the disk scheduler — the server's wiring under
    /// `--io-threads` — defers segment-rotation fsyncs to the
    /// committer, which only syncs the ticketed families. A model
    /// journal, never ticketed, must keep syncing as it rotates: a power
    /// loss at any point of its unsynced tail then reopens with every
    /// closed segment, instead of losing them all or leaving a torn
    /// frame in a non-final segment that fails the whole open.
    #[test]
    fn rotating_model_journal_survives_power_loss_under_the_io_scheduler() {
        use crate::storage::{Disk, StorageProfile};
        use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
        use uucs_wal::{Io, MemIo, SyncPolicy, WalConfig};
        const UPLOADS: u64 = 400;
        let cfg = WalConfig {
            segment_bytes: 4096,
            sync: SyncPolicy::Never,
        };
        let dir = std::path::Path::new("/data");
        let open = |mem: &MemIo| StoreSet::open_on(1, &Disk::Memory(mem.clone()), dir, cfg, 1);
        let mem = MemIo::new();
        let profile = StorageProfile {
            io_threads: 1,
            ..StorageProfile::default()
        };
        let server = UucsServer::with_store_set(open(&mem).unwrap().0, 7)
            .with_io_scheduler(profile.scheduler().unwrap())
            .with_group_commit(Duration::from_micros(200));
        let id = register(&server);
        for seq in 1..=UPLOADS {
            let rec = RunRecord {
                client: id.clone(),
                user: "u".into(),
                testcase: "tc-000".into(),
                task: "Word".into(),
                skill: "Typical".into(),
                outcome: RunOutcome::Discomfort,
                offset_secs: 10.0,
                last_levels: vec![(Resource::Cpu, vec![1.0 + seq as f64 / 1000.0])],
                monitor: MonitorSummary::default(),
            };
            let reply = server.handle(&ClientMsg::Upload {
                client: id.clone(),
                seq,
                records: vec![rec],
            });
            assert!(matches!(reply, ServerMsg::Ack(1)), "{reply:?}");
        }
        assert_eq!(server.model_epoch(), UPLOADS);
        // The disk as a power loss would find it, with the server live.
        let image = mem.fork();
        drop(server);
        let segments = Disk::Memory(image.clone())
            .list(&dir.join("models"))
            .unwrap();
        assert!(
            segments.len() > 4,
            "the model journal never rotated: {segments:?}"
        );

        let mut last = 0;
        for flush in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let disk = image.fork();
            disk.crash(flush);
            let (stores, _) = open(&disk).unwrap_or_else(|e| panic!("flush {flush}: {e}"));
            let epoch = stores.models.read(0).epoch();
            assert!(
                epoch > 0,
                "flush {flush}: the closed model segments were lost"
            );
            assert!(epoch >= last, "flush {flush}: epoch {epoch} below {last}");
            last = epoch;
        }
        assert_eq!(last, UPLOADS, "a full flush keeps every epoch");
    }
}
