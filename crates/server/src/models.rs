//! The server's comfort model (`uucs-modelsvc` integration): a cache of
//! the results journal, which is the one truth.
//!
//! Model shard `i` folds results shard `i`'s entries (both route by
//! client) under that shard's write guard, so in LSN order, on every
//! node and every append path ([`fold_appended`]). The **epoch** counts
//! the observation-carrying entries folded — one per sequenced upload,
//! one per record of a legacy `seq 0` upload — and a reshard carries it.
//!
//! Each shard's cache is one file beside the journals, `model-<i>.cache`
//! ([`CacheFile`]): a header (results layout generation, shard `i/n`,
//! covered LSN, CRC), then the [`ComfortModel::encode`] text. A fold
//! that pushes the results past [`cache_bound`] marks the shard due, and
//! only the group committer's pool writes it ([`write_cache`]), so no
//! ack waits on one. An open loads the cache and folds the entries past
//! it; a missing, torn or foreign cache, or one past the journal's end
//! (a power loss), means one full re-fold. The server merges every
//! shard's [`ModelStore::merged_sketch`] under one set of read guards.

use crate::shard::Sharded;
use crate::storage::StoreIo;
use crate::store::ResultStore;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use uucs_modelsvc::{ComfortModel, Observation, QuantileSketch};
use uucs_protocol::record::Blocks;
use uucs_protocol::{RunOutcome, RunRecord};
use uucs_telemetry::{metrics, Counter, Gauge, Histogram};
use uucs_wal::crc::crc32;
use uucs_wal::{Io, Lsn};

/// Telemetry handles for the model service, registered once.
struct ModelMetrics {
    /// Current model epoch of the shard last folded into (gauge: it
    /// survives `STATS RESET` as a level, not a rate).
    epoch: Gauge,
    /// Latency of one live fold, ns.
    update_ns: Histogram,
    /// Observations folded into the model, total.
    observations: Counter,
    /// Encode plus write of one cache, ns.
    cache_write_ns: Histogram,
    /// Caches written.
    cache_writes: Counter,
    /// Records the latest store-set open folded past the model caches.
    folded_records: Gauge,
}

fn model_metrics() -> &'static ModelMetrics {
    static METRICS: OnceLock<ModelMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ModelMetrics {
        epoch: metrics::gauge("modelsvc.epoch"),
        update_ns: metrics::histogram("modelsvc.update.ns"),
        observations: metrics::counter("modelsvc.observations"),
        cache_write_ns: metrics::histogram("server.model.cache.write.ns"),
        cache_writes: metrics::counter("server.model.cache.writes"),
        folded_records: metrics::gauge("server.model.folded_records"),
    })
}

/// The results bytes past its cache at which a shard whose cache holds
/// `cache_bytes` is due a new one: max(256 KiB, 16 × the cache). An open
/// folds at most that much per shard (≈ 1 200 records, ≈ 2 ms), plus
/// what arrived while a write was queued, and cache writes add at most a
/// sixteenth to the bytes the results journal writes.
pub fn cache_bound(cache_bytes: u64) -> u64 {
    (256 << 10).max(16u64.saturating_mul(cache_bytes))
}

/// Extracts the model observations records contribute: one per
/// `(record, exercised resource)` pair, at the contention level in force
/// when the user reported (or the run exhausted, which censors the
/// sample — the user's threshold lies above every level explored).
pub fn observations_of(records: &[RunRecord]) -> Vec<Observation> {
    let mut out = Vec::new();
    for rec in records {
        for (resource, levels) in &rec.last_levels {
            let Some(&level) = levels.last() else {
                continue;
            };
            if !level.is_finite() {
                continue;
            }
            out.push(Observation {
                resource: *resource,
                task: rec.task.clone(),
                skill: rec.skill.clone(),
                level,
                censored: rec.outcome == RunOutcome::Exhausted,
            });
        }
    }
    out
}

/// Where one model shard's cache is kept: the file, the disk it is
/// written through (so a `MemIo`'s faults reach it), and the results
/// layout it belongs to.
#[derive(Debug, Clone)]
pub(crate) struct CacheFile {
    io: StoreIo,
    dir: PathBuf,
    generation: u64,
    shard: usize,
    shards: usize,
}

/// What a valid cache holds.
struct Cached {
    model: ComfortModel,
    covers: Lsn,
    bytes: u64,
}

impl CacheFile {
    /// Shard `shard` of `shards` of the results layout at `generation`
    /// (0: the flat legacy layout), cached in `dir`.
    pub(crate) fn new(io: StoreIo, dir: &Path, generation: u64, shard: usize, shards: usize) -> Self {
        let dir = dir.to_path_buf();
        CacheFile { io, dir, generation, shard, shards }
    }

    fn path(&self) -> PathBuf {
        self.dir.join(format!("model-{:03}.cache", self.shard))
    }

    /// The header's words past its `MODELCACHE` tag and before the CRC,
    /// which covers them and the body.
    fn stamp(&self, covers: Lsn) -> String {
        format!("{} {}/{} {covers}\n", self.generation, self.shard, self.shards)
    }

    /// The cache, if the file is there, whole, and of this layout.
    fn load(&self) -> io::Result<Option<Cached>> {
        let bytes = match self.io.read(&self.path()) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(self.parse(&bytes))
    }

    /// [`CacheFile::load`]'s checks: the tag, this layout and shard, the
    /// CRC and the model text.
    fn parse(&self, bytes: &[u8]) -> Option<Cached> {
        let (header, body) = std::str::from_utf8(bytes).ok()?.split_once('\n')?;
        let (stamp, crc) = header.strip_prefix("MODELCACHE ")?.rsplit_once(' ')?;
        let covers: Lsn = stamp.rsplit_once(' ')?.1.parse().ok()?;
        let stamp = format!("{stamp}\n");
        let crc_of = crc32(&[stamp.as_bytes(), body.as_bytes()].concat());
        if stamp != self.stamp(covers) || u32::from_str_radix(crc, 16).ok()? != crc_of {
            return None;
        }
        let model = ComfortModel::decode(body).ok()?;
        Some(Cached { model, covers, bytes: bytes.len() as u64 })
    }

    /// Writes `body` as the cache covering the results below `covers`:
    /// to a `.tmp` file, synced, then renamed over the old one. Returns
    /// the bytes written.
    fn write(&self, covers: Lsn, body: &str) -> io::Result<u64> {
        let stamp = self.stamp(covers);
        let crc = crc32(&[stamp.as_bytes(), body.as_bytes()].concat());
        let text = format!("MODELCACHE {} {crc:08x}\n{body}", stamp.trim_end());
        let (path, tmp) = (self.path(), self.path().with_extension("cache.tmp"));
        self.io.create(&tmp)?;
        self.io.append(&tmp, text.as_bytes())?;
        self.io.sync(&tmp)?;
        self.io.rename(&tmp, &path)?;
        Ok(text.len() as u64)
    }

    /// Deletes the cache: it claims results the journal no longer holds
    /// (a power loss took them), so the next open folds everything.
    pub(crate) fn remove(&self) -> io::Result<()> {
        match self.io.remove(&self.path()) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// Deletes the caches of shards `from..to` under `dir`: a layout that
/// shrank to `from` shards no longer reads them.
pub(crate) fn remove_caches(io: &StoreIo, dir: &Path, from: usize, to: usize) -> io::Result<()> {
    (from..to).try_for_each(|shard| CacheFile::new(io.clone(), dir, 0, shard, to).remove())
}

/// One shard of the server's comfort model: the cohort model, the
/// results LSN it covers, and what its cache needs.
#[derive(Debug, Default)]
pub struct ModelStore {
    model: ComfortModel,
    /// Every results entry below this LSN is folded in.
    pub(crate) covers: Lsn,
    /// Results bytes folded since the cache was written (or, without
    /// one, since the shard was empty).
    since_cache: u64,
    /// The size of the cache last loaded or written; 0 without one.
    cache_bytes: u64,
    /// Records the open folded past the cache.
    folded: u64,
    /// Where the cache is kept; `None` for a model nothing outlives.
    cache: Option<CacheFile>,
    /// A cache write is queued or running: at most one is, per shard.
    writing: bool,
}

impl ModelStore {
    /// An empty model store at epoch 0 that is never cached, as every
    /// other store's `new` journals to a disk nothing outlives.
    pub fn new() -> Self {
        Self::default()
    }

    /// The store a results shard's open starts from: what `cache` holds
    /// when it is there, whole and of this layout, else an empty model
    /// that the open folds every entry into.
    pub(crate) fn open(cache: CacheFile) -> io::Result<Self> {
        let cached = cache.load()?;
        let (model, covers, cache_bytes) = match cached {
            Some(c) => (c.model, c.covers, c.bytes),
            None => (ComfortModel::new(), 0, 0),
        };
        Ok(ModelStore { model, covers, cache_bytes, cache: Some(cache), ..Self::default() })
    }

    /// Starts over empty: a full re-fold, of an older build's checkpoint
    /// the cache predates.
    pub(crate) fn clear(&mut self) {
        (self.model, self.covers, self.since_cache) = (ComfortModel::new(), 0, 0);
    }

    /// Folds one results entry the open met at `lsn`: `bytes` of payload
    /// whose record blocks are `body`. A block whose fields do not parse
    /// contributes nothing here; a reader of the records reports it.
    pub(crate) fn fold_text(&mut self, lsn: Lsn, bytes: u64, body: &str) {
        let records: Vec<RunRecord> = Blocks::new(body)
            .filter_map(|block| RunRecord::parse_block(block.ok()?).ok())
            .collect();
        self.folded += records.len() as u64;
        self.model.observe(&observations_of(&records));
        self.since_cache += bytes;
        self.covers = lsn + 1;
    }

    /// Ends an open: the model covers the whole journal, `end` its next
    /// LSN.
    pub(crate) fn opened(&mut self, end: Lsn) {
        self.covers = end;
        model_metrics().epoch.set(self.model.epoch() as i64);
    }

    /// Folds results entries that were just appended, the last ending at
    /// `upto` and all of them `bytes` long: each entry's observations,
    /// one epoch for each entry that carries any. Returns whether this
    /// fold made the cache due, in which case the caller hands its write
    /// to the committer.
    pub(crate) fn fold(
        &mut self,
        upto: Lsn,
        bytes: u64,
        entries: impl IntoIterator<Item = Vec<Observation>>,
    ) -> bool {
        let m = model_metrics();
        let timer = m.update_ns.start_timer();
        for observations in entries {
            m.observations.add(observations.len() as u64);
            self.model.observe(&observations);
        }
        (self.covers, self.since_cache) = (upto, self.since_cache + bytes);
        m.epoch.set(self.model.epoch() as i64);
        drop(timer);
        self.due()
    }

    /// Whether the cache is due a write nobody has been handed yet: the
    /// results past it outgrew [`cache_bound`]. Marks it taken.
    pub(crate) fn due(&mut self) -> bool {
        let due = self.cache.is_some() && !self.writing && self.since_cache >= cache_bound(self.cache_bytes);
        self.writing |= due;
        due
    }

    /// Folds a batch of observations as one epoch, outside any journal —
    /// what an in-memory model would do with an upload — and returns the
    /// epoch.
    pub fn observe_batch(&mut self, observations: Vec<Observation>) -> u64 {
        self.fold(self.covers, 0, [observations]);
        self.model.epoch()
    }

    /// The current model epoch.
    pub fn epoch(&self) -> u64 {
        self.model.epoch()
    }

    /// Records this shard's open folded past its cache.
    pub fn folded_records(&self) -> u64 {
        self.folded
    }

    /// This shard's merged sketch for a resource (optionally one task).
    pub fn merged_sketch(
        &self,
        resource: uucs_testcase::Resource,
        task: Option<&str>,
    ) -> QuantileSketch {
        self.model.merged(resource, task)
    }

    /// The whole model as its cache holds it: the
    /// [`ComfortModel::encode`] text.
    #[cfg(test)]
    pub(crate) fn encoded(&self) -> String {
        self.model.encode()
    }
}

/// Folds what results shard `shard` just appended into model shard
/// `shard`: `records` are the mutation's records in the order it
/// journaled them, [`ResultStore::appended`] says which entry holds
/// which. Returns whether the fold made the shard's cache due.
pub(crate) fn fold_appended(
    models: &Sharded<ModelStore>,
    shard: usize,
    results: &ResultStore,
    records: &[RunRecord],
) -> bool {
    let appended = results.appended();
    if appended.is_empty() {
        return false;
    }
    let bytes = appended.iter().map(|a| a.bytes).sum();
    let mut at = 0;
    let entries = appended.iter().map(|a| {
        at += a.blocks;
        observations_of(&records[at - a.blocks..at])
    });
    models.write_recovered(shard).fold(results.wal_next_lsn(), bytes, entries)
}

/// Writes model shard `shard`'s cache: the encoding is taken under the
/// shard's read lock and written outside every lock, so folds go on
/// meanwhile and are what the next cache is due for. Only the group
/// committer's disk pool runs this, one write per shard at a time, and
/// the carry of a reshard at open. Once every shard has a cache, an
/// older build's model journal is deleted.
pub(crate) fn write_cache(family: &Sharded<ModelStore>, shard: usize) -> io::Result<()> {
    let m = model_metrics();
    let timer = m.cache_write_ns.start_timer();
    let encoded = {
        let store = family.read(shard);
        let cache = store.cache.clone();
        cache.map(|cache| (cache, store.covers, store.since_cache, store.model.encode()))
    };
    let Some((cache, covers, since, body)) = encoded else {
        return Ok(());
    };
    let written = cache.write(covers, &body);
    let mut store = family.write_recovered(shard);
    store.writing = false;
    store.cache_bytes = written?;
    store.since_cache -= since;
    drop(store);
    drop(timer);
    m.cache_writes.inc();
    if (0..family.count()).all(|i| family.read(i).cache_bytes > 0) {
        remove_model_journal(&cache.io, &cache.dir)?;
    }
    Ok(())
}

/// Deletes the model journal an older build kept under `dir` once
/// nothing needs it: this build never reads it.
pub(crate) fn remove_model_journal(io: &StoreIo, dir: &Path) -> io::Result<()> {
    if matches!(io, crate::storage::Disk::Memory(_)) {
        return Ok(());
    }
    match std::fs::remove_dir_all(dir.join("models")) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Carries the epoch sum `carried` a reshard's source shards had reached
/// onto the shards their records moved to, each of which folded an epoch
/// per record — never fewer than the source's per-entry count: each
/// takes at most what its own fold reached, in shard order, so the sum
/// clients read does not move and a later full re-fold only raises it.
pub(crate) fn carry_epoch(models: &mut [ModelStore], mut carried: u64) {
    for store in models {
        let share = carried.min(store.model.epoch());
        store.model.set_epoch(share);
        carried -= share;
    }
}

/// Sets `server.model.folded_records` to what an open folded.
pub(crate) fn report_folded(models: &[ModelStore]) {
    model_metrics().folded_records.set(models.iter().map(|m| m.folded).sum::<u64>() as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{shard_of, sync_shard, StoreSet};
    use crate::storage::Disk;
    use std::collections::BTreeSet;
    use uucs_harness::invariants::epochs_rise;
    use uucs_harness::TempDir;
    use uucs_protocol::MonitorSummary;
    use uucs_stats::Pcg64;
    use uucs_testcase::Resource;
    use uucs_wal::{FaultPlan, MemIo, SyncPolicy, WalConfig};

    const TASKS: [&str; 4] = ["Word", "Quake", "PowerPoint", "two words"];

    /// The paths a [`cached_contract`] case can take that the property as
    /// a whole must have reached.
    const PATHS: [&str; 9] = [
        "a cache write at the bound",
        "a reopen folding past a cache",
        "a torn cache",
        "a deleted cache",
        "a stale cache",
        "a cache past the journal's end",
        "a reshard 8 -> 3 -> 1",
        "a fault in a cache write",
        "a seq 0 upload",
    ];

    /// Upload `seq` of `client` (0: a legacy upload): `n` records, each
    /// reporting one level, so every record carries an observation. A
    /// long testcase id makes each ≈ 500 bytes, so a few uploads to a
    /// shard cross the cache bound.
    fn batch(rng: &mut Pcg64, client: &str, seq: u64, n: u64) -> Vec<RunRecord> {
        (0..n)
            .map(|i| RunRecord {
                client: client.into(),
                user: format!("{seq}-{i}-{}", rng.below(1 << 40)),
                testcase: format!("t{}", "x".repeat(300)),
                task: rng.choose(&TASKS).to_string(),
                skill: ["", "Power"][rng.below(2) as usize].into(),
                outcome: if rng.bernoulli(0.2) { RunOutcome::Exhausted } else { RunOutcome::Discomfort },
                offset_secs: 1.0,
                last_levels: vec![(*rng.choose(&Resource::STUDIED), vec![rng.below(41) as f64 * 0.125])],
                monitor: MonitorSummary::default(),
            })
            .collect()
    }

    /// A store set on one in-memory disk, its layouts in `dir`.
    struct Family {
        dir: TempDir,
        mem: MemIo,
        cfg: WalConfig,
        stores: StoreSet,
    }

    impl Family {
        fn open(dir: TempDir, mem: MemIo, cfg: WalConfig, n: usize) -> Result<Family, String> {
            let opened = StoreSet::open_on(1, &Disk::Memory(mem.clone()), dir.path(), cfg, n);
            let stores = opened.map_err(|e| format!("open at {n}: {e}"))?.0;
            Ok(Family { dir, mem, cfg, stores })
        }

        fn shards(&self) -> usize {
            self.stores.results.count()
        }

        /// Closes the set and opens it again at `n` shards, after a power
        /// loss that kept `flush` of every unsynced tail, if any.
        fn reopen(self, flush: Option<f64>, n: usize) -> Result<Family, String> {
            let Family { dir, mem, cfg, stores } = self;
            drop(stores);
            if let Some(flush) = flush {
                mem.crash(flush);
            }
            Family::open(dir, mem, cfg, n)
        }

        fn cache(&self, shard: usize) -> PathBuf {
            self.dir.path().join(format!("model-{shard:03}.cache"))
        }

        /// Every held record, in shard order.
        fn held(&self) -> Result<Vec<RunRecord>, String> {
            let mut out = Vec::new();
            for g in self.stores.results.read_all() {
                for rec in g.records() {
                    out.push(rec.map_err(|e| e.to_string())?);
                }
            }
            Ok(out)
        }

        /// The epoch sum and every merged sketch the set serves.
        fn reading(&self) -> (u64, Vec<String>) {
            let guards = self.stores.models.read_all();
            let epoch = guards.iter().map(|g| g.epoch()).sum();
            let mut sketches = Vec::new();
            for resource in Resource::STUDIED {
                for task in [None].into_iter().chain(TASKS.map(Some)) {
                    let mut merged = QuantileSketch::for_resource(resource);
                    for g in &guards {
                        merged.merge(&g.merged_sketch(resource, task)).expect("one resource");
                    }
                    sketches.push(merged.encode());
                }
            }
            (epoch, sketches)
        }
    }

    /// The fold of `records`.
    fn fold_of(records: &[RunRecord]) -> ComfortModel {
        let mut model = ComfortModel::new();
        model.observe(&observations_of(records));
        model
    }

    /// `model`'s sketches, read as [`Family::reading`] reads them.
    fn sketches_of(model: &ComfortModel) -> Vec<String> {
        let mut sketches = Vec::new();
        for resource in Resource::STUDIED {
            for task in [None].into_iter().chain(TASKS.map(Some)) {
                sketches.push(model.merged(resource, task).encode());
            }
        }
        sketches
    }

    /// The entries `records` were journaled as before any reshard: one
    /// per sequenced upload, one per record of a legacy one.
    fn entries(records: &[RunRecord]) -> u64 {
        let mut batches = BTreeSet::new();
        let mut legacy = 0;
        for rec in records {
            match rec.user.split('-').next() {
                Some("0") => legacy += 1,
                seq => drop(batches.insert((rec.client.clone(), seq.map(str::to_string)))),
            }
        }
        batches.len() as u64 + legacy
    }

    /// One case: a model family of 8 shards on an in-memory disk against
    /// a reference fold of every record the results hold, through random
    /// uploads (legacy ones too) with the cache written at the bound,
    /// reopens after a power loss, a torn, deleted and stale cache, a
    /// cache past the journal's end, a fault at every operation of a
    /// cache write, and reshards 8 -> 3 -> 1. After every step the
    /// sketches are the fold of the held records, the epoch is one per
    /// held entry until the first reshard, which carries it, and only
    /// rises from there while no unacked upload is lost; no acked upload
    /// is lost, and no reopen over whole caches folds more than the
    /// bound plus one entry.
    fn cached_contract(seed: u64) -> Result<[bool; PATHS.len()], String> {
        let mut seen = [false; PATHS.len()];
        let mut rng = Pcg64::new(seed);
        let cfg = WalConfig { segment_bytes: 4096 + rng.below(64 << 10), sync: SyncPolicy::Never };
        let mut family = Family::open(TempDir::new("uucs-model-cache"), MemIo::new(), cfg, 8)?;
        let clients: Vec<String> = (1..=4).map(|i| format!("client-{i:04}")).collect();
        let mut seqs = vec![0u64; clients.len()];
        let (mut acked, mut epochs, mut resharded) = (Vec::new(), Vec::new(), false);
        // The held records, their fold, and whether a power loss may
        // have cut them.
        let (mut held, mut reference, mut lossy) = (Vec::new(), ComfortModel::new(), false);
        let mut stale: Option<(usize, Vec<u8>)> = None;
        let mut largest = 0u64;
        for step in 0..60 {
            let at = format!("step {step}");
            let mut whole_caches = false;
            match rng.below(16) {
                0..=8 => {
                    let c = rng.below(clients.len() as u64) as usize;
                    let legacy = rng.bernoulli(0.15);
                    let seq = if legacy { 0 } else { seqs[c] + 1 };
                    let n = 1 + rng.below(120);
                    let records = batch(&mut rng, &clients[c], seq, n);
                    held.extend(records.iter().cloned());
                    reference.observe(&observations_of(&records));
                    let shard = shard_of(&clients[c], family.shards());
                    let mut results = family.stores.results.write_recovered(shard);
                    results.append_batch(&clients[c], seq, &records).map_err(|e| format!("{at}: {e}"))?;
                    largest = largest.max(results.appended().iter().map(|a| a.bytes).max().unwrap_or(0));
                    let due = fold_appended(&family.stores.models, shard, &results, &records);
                    drop(results);
                    seqs[c] = seqs[c].max(seq);
                    seen[8] |= legacy;
                    // Whether the upload was synced, or lost, already.
                    let mut settled = false;
                    if due {
                        seen[0] = true;
                        if rng.bernoulli(0.15) {
                            // A cache written over results not yet synced,
                            // and a power loss that takes them.
                            write_cache(&family.stores.models, shard).map_err(|e| e.to_string())?;
                            if !resharded {
                                family = family.reopen(Some(0.0), 8)?;
                                (lossy, seen[5], settled) = (true, true, true);
                            }
                        } else if rng.bernoulli(0.2) {
                            // A fault at one operation of the write: create,
                            // append, sync, rename.
                            sync_shard(&family.stores.results, shard).map_err(|e| e.to_string())?;
                            acked.extend(records.iter().map(|r| (r.client.clone(), r.user.clone())));
                            let short_write = rng.bernoulli(0.5).then(|| rng.below(24) as usize);
                            let fail_at = family.mem.mutating_ops() + rng.below(4);
                            family.mem.set_fault(Some(FaultPlan { fail_at, short_write }));
                            if write_cache(&family.stores.models, shard).is_ok() {
                                return Err(format!("{at}: a fault in a cache write did not fire"));
                            }
                            let n = family.shards();
                            family = family.reopen(Some(rng.f64()), n)?;
                            (lossy, seen[7], settled) = (true, true, true);
                        } else {
                            write_cache(&family.stores.models, shard).map_err(|e| e.to_string())?;
                            if stale.is_none() && rng.bernoulli(0.5) {
                                // Kept for later, once what it covers is
                                // durable: a power loss cannot change it.
                                sync_shard(&family.stores.results, shard).map_err(|e| e.to_string())?;
                                acked.extend(records.iter().map(|r| (r.client.clone(), r.user.clone())));
                                stale = Some((shard, family.mem.read(&family.cache(shard)).unwrap()));
                                settled = true;
                            }
                        }
                    }
                    if !settled && rng.bernoulli(0.6) {
                        sync_shard(&family.stores.results, shard).map_err(|e| e.to_string())?;
                        acked.extend(records.iter().map(|r| (r.client.clone(), r.user.clone())));
                    }
                }
                9 | 10 => {
                    let n = family.shards();
                    let flush = if resharded { 1.0 } else { rng.f64() };
                    family = family.reopen(Some(flush), n)?;
                    (lossy, whole_caches) = (flush < 1.0, true);
                }
                11 => {
                    let shard = rng.below(family.shards() as u64) as usize;
                    let path = family.cache(shard);
                    if let Some(len) = family.mem.contents(&path).map(|b| b.len()) {
                        family.mem.corrupt(&path, rng.below(len as u64) as usize);
                        let n = family.shards();
                        family = family.reopen(None, n)?;
                        // The re-fold may raise a carried epoch, which an
                        // older cache put back would take back down.
                        (stale, seen[2]) = (None, true);
                    }
                }
                12 => {
                    let shard = rng.below(family.shards() as u64) as usize;
                    if family.mem.remove(&family.cache(shard)).is_ok() {
                        let n = family.shards();
                        family = family.reopen(None, n)?;
                        (stale, seen[3]) = (None, true);
                    }
                }
                13 => {
                    if let Some((shard, bytes)) = stale.take().filter(|(s, _)| *s < family.shards()) {
                        let path = family.cache(shard);
                        family.mem.create(&path).unwrap();
                        family.mem.append(&path, &bytes).unwrap();
                        let n = family.shards();
                        family = family.reopen(None, n)?;
                        seen[4] = true;
                    }
                }
                14 | 15 if step >= 20 && family.shards() > 1 => {
                    let n = if family.shards() == 8 { 3 } else { 1 };
                    let before = family.reading().0;
                    family = family.reopen(None, n)?;
                    if family.reading().0 != before {
                        return Err(format!("{at}: a reshard to {n} moved the epoch from {before}"));
                    }
                    (resharded, stale) = (true, None);
                    seen[6] |= n == 1;
                }
                _ => {}
            }
            let lost = std::mem::take(&mut lossy);
            if lost {
                // Uploads nobody acked may be gone, and the epochs they
                // minted with them: the rise starts over from here.
                epochs.clear();
                held = family.held()?;
                reference = fold_of(&held);
                let keys = held.iter().map(|r| (r.client.clone(), r.user.clone()));
                let keys: BTreeSet<_> = keys.collect();
                if let Some(lost) = acked.iter().find(|k| !keys.contains(*k)) {
                    return Err(format!("{at}: acked {lost:?} is not held"));
                }
            }
            let (epoch, sketches) = family.reading();
            if sketches != sketches_of(&reference) {
                return Err(format!("{at}: the model is not the fold of the {} held records", held.len()));
            }
            if !resharded && epoch != entries(&held) {
                return Err(format!("{at}: epoch {epoch}, {} held entries", entries(&held)));
            }
            if resharded {
                epochs.push(epoch);
                epochs_rise(epochs.iter().copied()).map_err(|v| format!("{at}: {v}"))?;
            }
            for shard in 0..family.shards() {
                let store = family.stores.models.read(shard);
                if whole_caches && store.cache_bytes > 0 && store.folded > 0 {
                    seen[1] = true;
                    if store.since_cache > cache_bound(store.cache_bytes) + largest {
                        let past = store.since_cache;
                        return Err(format!("{at}: shard {shard} folded {past} bytes past its cache"));
                    }
                }
            }
        }
        Ok(seen)
    }

    /// [`cached_contract`] over `UUCS_PROPTEST_CASES` seeds, which
    /// between them must have taken every one of [`PATHS`].
    #[test]
    fn a_cached_model_reads_like_the_fold_of_its_records() {
        let mut seen = [false; PATHS.len()];
        uucs_harness::prop::run_property(
            &uucs_harness::prop::Config::default(),
            "a_cached_model_reads_like_the_fold_of_its_records",
            (uucs_harness::prop::any::<u64>(),),
            |&(seed,)| {
                let taken = cached_contract(seed)
                    .map_err(|e| uucs_harness::prop::CaseError::Fail(format!("seed {seed}: {e}")))?;
                seen.iter_mut().zip(taken).for_each(|(s, t)| *s |= t);
                Ok(())
            },
        );
        let never: Vec<_> = (PATHS.iter().zip(seen))
            .filter_map(|(path, seen)| (!seen).then_some(path))
            .collect();
        assert!(never.is_empty(), "no case reached: {never:?}");
    }
}
