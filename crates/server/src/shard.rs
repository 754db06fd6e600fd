//! Store sharding: per-shard `RwLock`s and per-shard WAL streams.
//!
//! A [`Sharded<T>`] holds `n` independent copies of a store behind `n`
//! independent locks, keyed by a stable FNV-1a hash of the routing key
//! (client id, testcase id). Unrelated clients therefore never
//! contend on a lock or an fsync — the single-store server serialized
//! every upload behind one `RwLock<ResultStore>` and one WAL file.
//!
//! # On-disk layout and resharding
//!
//! A sharded family lives under `dir/by-N/shard-XXX/`, one WAL per
//! shard. The layout is **committed** by a `READY` marker file carrying
//! a monotonically increasing generation number; a `by-N` directory
//! without `READY` is an interrupted migration and is discarded. A
//! single-shard family with no committed layout uses the legacy flat
//! WAL directly in `dir` — byte-compatible with pre-sharding data dirs.
//!
//! Changing the shard count **migrates**: the current layout (or the
//! flat legacy WAL) is replayed, each source shard exports its state as
//! keyed journal payloads ([`Journaled::export`]), each payload is
//! admitted into the fresh shard its key routes to
//! ([`Journaled::admit`]), each target journal is synced, and only then
//! is the new `READY` written (generation = source + 1) and the source
//! layout removed. A crash at any point leaves either the old committed
//! layout (marker not yet written) or the new one (marker written); the
//! highest generation wins, so recovery always sees exactly one logical
//! state — the property the reshard recovery test pins down.
//!
//! # The comfort model
//!
//! Model shard `i` is a cache of results shard `i`
//! ([`crate::models`]): the results open rebuilds it, from the cache
//! file the layout's generation and shard count name in the data
//! directory and the entries past it. A reshard's targets fold every
//! record they were given, and carry the epoch sum the source shards
//! had reached; their caches are written as the open ends. Any other
//! cache the open left behind is written once the server listens
//! ([`crate::UucsServer::catch_up_model_caches`]).
//!
//! # Opening on every core
//!
//! The journals of a data directory — three families × `n` shards — are
//! independent: each rebuilds its own store from its own directory.
//! [`StoreSet::open`] (through `open_on`) therefore settles every
//! family's *layout* serially (the only step that looks at more than one
//! directory) and then opens all `(family, shard)` journals through one
//! [`ordered_map`] call: stores, recovery reports and — when several
//! journals are refused — the error come back in (family, shard) order,
//! whatever the host's core count. Threads are spawned only for
//! journals that have something to replay, so a fresh data directory
//! opens inline on the calling thread.

use crate::journal::Journaled;
use crate::models::{self, CacheFile, ModelStore};
use crate::storage::{plain_io, StorageProfile, StoreIo};
use crate::store::{invalid, RegistryStore, ResultStore, TestcaseStore};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use uucs_stats::parallel::{available_workers, ordered_map};
use uucs_wal::{Lsn, Recovery, WalConfig};

/// Stable shard routing: FNV-1a over the key, reduced modulo the shard
/// count. Must never change — recovery with an unchanged shard count
/// reopens each shard's WAL in place, assuming every key still routes
/// where it was written.
pub fn shard_of(key: &str, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// The shard's lock was poisoned by an earlier panic. The flag has been
/// cleared — this shard (and only this shard) failed the one request
/// that observed the poisoning and serves the next one normally.
#[derive(Debug, Clone, Copy)]
pub struct ShardPoisoned;

/// `n` copies of a store behind `n` independent `RwLock`s.
pub struct Sharded<T> {
    shards: Vec<RwLock<T>>,
}

impl<T> Sharded<T> {
    /// Wraps pre-built shard states (one entry = the unsharded layout).
    pub fn new(parts: Vec<T>) -> Self {
        assert!(!parts.is_empty(), "a sharded store needs at least 1 shard");
        Sharded {
            shards: parts.into_iter().map(RwLock::new).collect(),
        }
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a routing key lands on.
    pub fn shard_for(&self, key: &str) -> usize {
        shard_of(key, self.count())
    }

    /// Read-locks one shard, recovering from poisoning: the stores are
    /// append-only collections whose elements are fully written before
    /// being linked in, so a reader can never observe torn data.
    pub fn read(&self, shard: usize) -> RwLockReadGuard<'_, T> {
        self.shards[shard]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Read-locks every shard (in index order), for whole-family
    /// queries that need one consistent view — e.g. the global testcase
    /// order a `SYNC` samples from.
    pub fn read_all(&self) -> Vec<RwLockReadGuard<'_, T>> {
        (0..self.count()).map(|i| self.read(i)).collect()
    }

    /// Write-locks one shard for a protocol mutation. Poisoning fails
    /// *this* request (the caller maps [`ShardPoisoned`] to a protocol
    /// error) and clears the flag, so the shard heals — and every other
    /// shard keeps serving throughout.
    pub fn try_write(&self, shard: usize) -> Result<RwLockWriteGuard<'_, T>, ShardPoisoned> {
        self.shards[shard].write().map_err(|_| {
            self.shards[shard].clear_poison();
            ShardPoisoned
        })
    }

    /// Write-locks one shard for maintenance (compaction, group-commit
    /// fsync), recovering from — and clearing — poisoning: maintenance
    /// must proceed even if a handler panicked, and the append-only
    /// store invariant makes the recovered state safe to use.
    pub fn write_recovered(&self, shard: usize) -> RwLockWriteGuard<'_, T> {
        let guard = self.shards[shard]
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        self.shards[shard].clear_poison();
        guard
    }

    /// The raw lock of one shard — tests use it to poison a shard.
    #[cfg(test)]
    pub(crate) fn raw(&self, shard: usize) -> &RwLock<T> {
        &self.shards[shard]
    }
}

/// Forces one shard's journal to stable storage, returning the covered
/// watermark. Takes the shard's write lock and proceeds through
/// poisoning: maintenance must not stop because a handler panicked.
pub(crate) fn sync_shard<T: Journaled>(family: &Sharded<T>, shard: usize) -> io::Result<Lsn> {
    family.write_recovered(shard).journal().sync()
}

fn shard_dirname(i: usize) -> String {
    format!("shard-{i:03}")
}

const READY_MARKER: &str = "READY";

/// One committed `by-N` layout found on disk.
#[derive(Debug, Clone)]
struct Layout {
    shards: usize,
    generation: u64,
    path: PathBuf,
}

/// Finds every *committed* (READY-marked) layout under `dir`.
fn scan_layouts(dir: &Path) -> io::Result<Vec<Layout>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(n) = name.strip_prefix("by-").and_then(|s| s.parse::<usize>().ok()) else {
            continue;
        };
        if n == 0 || !entry.path().is_dir() {
            continue;
        }
        let marker = entry.path().join(READY_MARKER);
        let Ok(text) = std::fs::read_to_string(&marker) else {
            continue; // no READY: an interrupted migration, not a layout
        };
        let Ok(generation) = text.trim().parse::<u64>() else {
            continue;
        };
        out.push(Layout {
            shards: n,
            generation,
            path: entry.path(),
        });
    }
    Ok(out)
}

/// True when `dir` holds loose files — a legacy flat WAL predating the
/// sharded layout.
fn has_flat_files(dir: &Path) -> io::Result<bool> {
    for entry in std::fs::read_dir(dir)? {
        if entry?.path().is_file() {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Writes the commit marker: generation number, fsynced. The layout's
/// directory is made here too, for journals on an in-memory disk: the
/// markers are files, whatever the journals are on.
fn write_ready(layout_dir: &Path, generation: u64) -> io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(layout_dir)?;
    let mut f = std::fs::File::create(layout_dir.join(READY_MARKER))?;
    f.write_all(generation.to_string().as_bytes())?;
    f.sync_all()
}

/// One journal queued for [`open_all`]. The open leaves its store in a
/// slot of its own family's type, so one queue holds all three families.
struct QueuedOpen<'a> {
    /// Whether the journal has anything to replay — what makes opening
    /// it worth a thread.
    has_state: bool,
    open: Box<dyn FnOnce() + Send + 'a>,
}

/// Opens every queued journal, on at most `workers` threads and never
/// on more than there are journals with something to replay: the
/// calling thread is one of the workers, so a fresh data directory (or
/// a single populated journal) spawns nothing.
fn open_all(workers: usize, queue: Vec<QueuedOpen<'_>>) {
    let busy = queue.iter().filter(|q| q.has_state).count();
    ordered_map(workers.min(busy), queue, |q| (q.open)());
}

/// The journals of one family on their way to being opened: their
/// directories in shard order, the I/O backend they share, where their
/// model caches are (the results family's), and the slot each opened
/// store lands in.
struct Journals<F> {
    io: StoreIo,
    cfg: WalConfig,
    dirs: Vec<PathBuf>,
    /// The directory the model caches are kept in and the layout's
    /// generation, for a family whose open rebuilds the model.
    caches: Option<(PathBuf, u64)>,
    opened: Vec<Option<io::Result<(F, Recovery)>>>,
}

/// What [`Journals::settle`] found: the journals of the layout in force,
/// and the stores of the layout it migrated them from, if it did.
type Settled<F> = (Journals<F>, Vec<F>);

impl<F: Journaled + Send> Journals<F> {
    fn new(io: &StoreIo, cfg: WalConfig, dirs: Vec<PathBuf>, caches: Option<(PathBuf, u64)>) -> Self {
        Journals {
            io: io.clone(),
            cfg,
            opened: dirs.iter().map(|_| None).collect(),
            dirs,
            caches,
        }
    }

    /// The journals of the family under `dir` once it is in a committed
    /// `n`-shard layout — migrating from a different committed shard
    /// count (or the legacy flat layout) when needed; see the module
    /// docs for the crash-safety protocol. A migration opens its source
    /// shards on up to `workers` threads, and hands them back. With
    /// `caches`, every shard opens with its model cache from there.
    fn settle(
        dir: &Path,
        cfg: WalConfig,
        n: usize,
        io: &StoreIo,
        workers: usize,
        caches: Option<&Path>,
    ) -> io::Result<Settled<F>> {
        let cached = |generation| caches.map(|c| (c.to_path_buf(), generation));
        if n == 0 {
            return Err(invalid("shard count must be at least 1"));
        }
        std::fs::create_dir_all(dir)?;
        let current = scan_layouts(dir)?
            .into_iter()
            .max_by_key(|l| (l.generation, l.shards));

        // Fast path: one shard, nothing ever sharded — the legacy flat
        // WAL, byte-compatible with pre-sharding data directories.
        if n == 1 && current.is_none() {
            return Ok((Journals::new(io, cfg, vec![dir.to_path_buf()], cached(0)), Vec::new()));
        }

        let shard_dirs =
            |layout: &Path, count: usize| (0..count).map(|i| layout.join(shard_dirname(i))).collect();
        let target = dir.join(format!("by-{n}"));
        let mut sources = Vec::new();
        let mut generation = current.as_ref().map_or(0, |c| c.generation);
        if current.as_ref().map(|c| c.shards) != Some(n) {
            // Migrate: replay the source, repartition by hash, rebuild.
            let source = match &current {
                Some(cur) => Some(shard_dirs(&cur.path, cur.shards)),
                None if has_flat_files(dir)? => Some(vec![dir.to_path_buf()]),
                None => None,
            };
            if target.exists() {
                // A previous migration to this count died before READY.
                std::fs::remove_dir_all(&target)?;
            }
            let mut parts = (0..n)
                .map(|i| Ok(F::open(io.clone(), &target.join(shard_dirname(i)), cfg)?.0))
                .collect::<io::Result<Vec<F>>>()?;
            if let Some(dirs) = source {
                let mut source = Journals::<F>::new(io, cfg, dirs, cached(generation));
                open_all(workers, source.queue());
                sources = source.stores()?.0;
                // Each source shard's state moves as the payloads it
                // exports, in shard order, to the shard its key routes to.
                for store in &sources {
                    store.export(&mut |key, payload| {
                        parts[shard_of(key, n)].admit(&payload).map(drop)
                    })?;
                }
                for part in &mut parts {
                    part.journal().sync()?;
                }
            }
            // Commit point. Until this marker lands, recovery still sees
            // the source layout; after it, the higher generation wins
            // even if the source removal below never runs.
            generation += 1;
            write_ready(&target, generation)?;
            if let Some(cur) = &current {
                std::fs::remove_dir_all(&cur.path)?;
            }
        }

        // Clear stale siblings: superseded layouts and interrupted
        // builds. (A legacy flat WAL that was migrated away stays on
        // disk inertly — any committed layout takes precedence over
        // flat files.)
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("by-") && entry.path() != target && entry.path().is_dir() {
                std::fs::remove_dir_all(entry.path())?;
            }
        }
        Ok((Journals::new(io, cfg, shard_dirs(&target, n), cached(generation)), sources))
    }

    /// One queued open per journal, in shard order.
    fn queue(&mut self) -> Vec<QueuedOpen<'_>> {
        let (io, cfg, n) = (&self.io, self.cfg, self.dirs.len());
        let caches = self.caches.as_ref();
        (self.dirs.iter().zip(&mut self.opened).enumerate())
            .map(|(i, (dir, slot))| {
                let cache = caches.map(|(at, generation)| CacheFile::new(io.clone(), at, *generation, i, n));
                QueuedOpen {
                    has_state: uucs_wal::has_state(io, dir),
                    open: Box::new(move || *slot = Some(F::open_cached(io.clone(), dir, cfg, cache))),
                }
            })
            .collect()
    }

    /// The opened stores and their recovery reports in shard order, or
    /// the error of the lowest shard that was refused.
    fn stores(self) -> io::Result<(Vec<F>, Vec<Recovery>)> {
        let opened: io::Result<Vec<(F, Recovery)>> = self
            .opened
            .into_iter()
            .map(|slot| slot.expect("open_all runs every queued open"))
            .collect();
        Ok(opened?.into_iter().unzip())
    }
}

/// The server's three store families, sharded, and the comfort model
/// folded from the results. The committer thread and the request
/// handlers share one instance behind an `Arc`.
pub struct StoreSet {
    /// The testcase library, sharded by testcase id.
    pub testcases: Sharded<TestcaseStore>,
    /// Uploaded results and dedup horizons, sharded by client id.
    pub results: Sharded<ResultStore>,
    /// The client registry, sharded by client id.
    pub registry: Sharded<RegistryStore>,
    /// The comfort model, shard `i` folded from results shard `i` (every
    /// read merges all shards' sketches — sketch merges are exact).
    pub models: Sharded<ModelStore>,
}

impl StoreSet {
    /// `n` empty shards per family, each journaling to an in-memory disk
    /// of its own — an in-process server's stores — and a model nothing
    /// caches. No layout is settled: nothing outlives the process.
    pub fn in_memory(shards: usize) -> Self {
        fn family<F: Journaled>(shards: usize) -> Sharded<F> {
            Sharded::new((0..shards).map(|_| F::in_memory()).collect())
        }
        StoreSet {
            testcases: family(shards),
            results: family(shards),
            registry: family(shards),
            models: Sharded::new((0..shards).map(|_| ModelStore::new()).collect()),
        }
    }

    /// Opens the three WAL-backed families under `dir` (`dir/testcases`,
    /// `dir/results`, `dir/registry`), each sharded `shards` ways —
    /// migrating any previously committed layout with a different count
    /// — and the comfort model from its caches in `dir` and the results
    /// past them. Returns the per-shard recoveries (testcases, then
    /// results, registry) for torn-tail reporting.
    pub fn open(dir: &Path, cfg: WalConfig, shards: usize) -> io::Result<(Self, Vec<Recovery>)> {
        Self::open_on(available_workers(), &plain_io(), dir, cfg, shards)
    }

    /// [`StoreSet::open`], taking a [`StorageProfile`], whose fields are
    /// both ignored — so this is [`StoreSet::open`]. Kept only because
    /// `benchmark/` builds against it.
    ///
    /// The journals are opened on every core (see the module docs);
    /// what comes back does not depend on how many there are.
    pub fn open_with(
        dir: &Path,
        cfg: WalConfig,
        shards: usize,
        _profile: &StorageProfile,
    ) -> io::Result<(Self, Vec<Recovery>)> {
        Self::open(dir, cfg, shards)
    }

    /// [`StoreSet::open`] through `io`, on at most `workers` threads.
    pub(crate) fn open_on(
        workers: usize,
        io: &StoreIo,
        dir: &Path,
        cfg: WalConfig,
        shards: usize,
    ) -> io::Result<(Self, Vec<Recovery>)> {
        let (mut testcases, _) =
            Journals::<TestcaseStore>::settle(&dir.join("testcases"), cfg, shards, io, workers, None)?;
        let (mut results, mut sources) =
            Journals::<ResultStore>::settle(&dir.join("results"), cfg, shards, io, workers, Some(dir))?;
        let (mut registry, _) =
            Journals::<RegistryStore>::settle(&dir.join("registry"), cfg, shards, io, workers, None)?;
        // What the clients of a resharded layout had read: its epoch sum.
        let carried = (!sources.is_empty())
            .then(|| sources.iter_mut().filter_map(|s| s.take_model()).map(|m| m.epoch()).sum());
        let was = sources.len();
        drop(sources);

        let mut queue = testcases.queue();
        queue.extend(results.queue());
        queue.extend(registry.queue());
        open_all(workers, queue);

        let (testcases, mut recs) = testcases.stores()?;
        let (mut results, r) = results.stores()?;
        recs.extend(r);
        let (registry, r) = registry.stores()?;
        recs.extend(r);
        let mut models: Vec<ModelStore> =
            results.iter_mut().map(|r| r.take_model().expect("a results open folds")).collect();
        if let Some(epoch) = carried {
            models::carry_epoch(&mut models, epoch);
        }
        models::report_open(&models);
        let stores = StoreSet {
            testcases: Sharded::new(testcases),
            results: Sharded::new(results),
            registry: Sharded::new(registry),
            models: Sharded::new(models),
        };
        if carried.is_some() {
            for i in 0..shards {
                models::write_cache(&stores.models, i)?;
            }
            models::remove_caches(io, dir, shards, was)?;
        }
        Ok((stores, recs))
    }

    /// Defers segment-rotation syncs on every journal to the group
    /// committer, which calls this as it starts: segment rotation stops
    /// fsyncing on the append path, and the committer's next pass over
    /// the shard drains the deferred syncs before anything is
    /// acknowledged.
    pub(crate) fn set_deferred_rotation_sync(&self) {
        fn defer<T: Journaled>(family: &Sharded<T>) {
            for i in 0..family.count() {
                family.write_recovered(i).journal().set_deferred_rotation_sync();
            }
        }
        defer(&self.testcases);
        defer(&self.results);
        defer(&self.registry);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::store::tests::{results_checkpoint, write_old_checkpoint};
    use uucs_harness::TempDir;
    use uucs_protocol::{MachineSnapshot, MonitorSummary, RunOutcome, RunRecord};
    use uucs_testcase::{ExerciseSpec, Resource, Testcase};
    use uucs_wal::SyncPolicy;

    fn cfg() -> WalConfig {
        WalConfig {
            segment_bytes: 1024,
            sync: SyncPolicy::Always,
        }
    }

    /// One family, settled and opened the way [`StoreSet::open_on`]
    /// does all four.
    fn open_sharded<F: Journaled + Send>(
        dir: &Path,
        cfg: WalConfig,
        n: usize,
        io: &StoreIo,
    ) -> io::Result<(Sharded<F>, Vec<Recovery>)> {
        let workers = available_workers();
        let (mut journals, _) = Journals::<F>::settle(dir, cfg, n, io, workers, None)?;
        open_all(workers, journals.queue());
        let (stores, recoveries) = journals.stores()?;
        Ok((Sharded::new(stores), recoveries))
    }

    fn tc(id: &str) -> Testcase {
        Testcase::single(
            id,
            1.0,
            Resource::Cpu,
            ExerciseSpec::Ramp {
                level: 1.0,
                duration: 10.0,
            },
        )
    }

    fn rec(client: &str, user: &str) -> RunRecord {
        RunRecord {
            client: client.into(),
            user: user.into(),
            testcase: "t".into(),
            task: "IE".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Discomfort,
            offset_secs: 10.0,
            last_levels: vec![(Resource::Cpu, vec![2.0])],
            monitor: MonitorSummary::default(),
        }
    }

    #[test]
    fn hashing_is_stable_and_in_range() {
        for n in 1..=16 {
            for key in ["client-0001", "client-0002", "x", ""] {
                let s = shard_of(key, n);
                assert!(s < n);
                assert_eq!(s, shard_of(key, n), "stable");
            }
        }
        // The hash actually spreads keys (not all on one shard).
        let spread: std::collections::BTreeSet<usize> = (0..100)
            .map(|i| shard_of(&format!("client-{i:04}"), 8))
            .collect();
        assert!(spread.len() > 4, "poor spread: {spread:?}");
    }

    #[test]
    fn single_shard_uses_legacy_flat_layout() {
        let dir = TempDir::new("uucs-shard-flat");
        {
            let (tcs, _) = open_sharded::<TestcaseStore>(dir.path(), cfg(), 1, &plain_io()).unwrap();
            tcs.write_recovered(0).add(&tc("a")).unwrap();
        }
        // The flat files live directly in the dir — same as pre-sharding.
        assert!(has_flat_files(dir.path()).unwrap());
        // And a plain single-store open reads them back.
        let (store, _) = TestcaseStore::open_wal(dir.path(), cfg()).unwrap();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn reshard_preserves_merged_state() {
        let dir = TempDir::new("uucs-shard-reshard");
        let ids: Vec<String> = (0..20).map(|i| format!("case-{i:02}")).collect();
        {
            let (tcs, _) = open_sharded::<TestcaseStore>(dir.path(), cfg(), 2, &plain_io()).unwrap();
            for id in &ids {
                let shard = tcs.shard_for(id);
                tcs.write_recovered(shard).add(&tc(id)).unwrap();
            }
        }
        for n in [5usize, 3, 1, 4] {
            let (tcs, _) = open_sharded::<TestcaseStore>(dir.path(), cfg(), n, &plain_io()).unwrap();
            assert_eq!(tcs.count(), n);
            let mut seen: Vec<String> = Vec::new();
            for i in 0..n {
                let g = tcs.read(i);
                for t in g.testcases() {
                    // Every testcase sits on the shard its id hashes to.
                    assert_eq!(shard_of(t.id.as_str(), n), i);
                    seen.push(t.id.as_str().to_string());
                }
            }
            seen.sort();
            let mut want = ids.clone();
            want.sort();
            assert_eq!(seen, want, "reshard to {n} lost or duplicated state");
        }
    }

    #[test]
    fn flat_layout_migrates_to_sharded() {
        let dir = TempDir::new("uucs-shard-flatmig");
        {
            let (mut store, _) = ResultStore::open_wal(dir.path(), cfg()).unwrap();
            store.append_batch("c1", 3, &[rec("c1", "u1")]).unwrap();
            store.append_batch("c2", 7, &[rec("c2", "u2")]).unwrap();
        }
        let (res, _) = open_sharded::<ResultStore>(dir.path(), cfg(), 4, &plain_io()).unwrap();
        let total: usize = (0..4).map(|i| res.read(i).len()).sum();
        assert_eq!(total, 2);
        assert_eq!(res.read(res.shard_for("c1")).applied_seq("c1"), 3);
        assert_eq!(res.read(res.shard_for("c2")).applied_seq("c2"), 7);
        // The committed layout wins over the (stale, still present) flat
        // files on every subsequent open.
        let (res, _) = open_sharded::<ResultStore>(dir.path(), cfg(), 4, &plain_io()).unwrap();
        let total: usize = (0..4).map(|i| res.read(i).len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn interrupted_migration_is_discarded() {
        let dir = TempDir::new("uucs-shard-interrupt");
        {
            let (reg, _) = open_sharded::<RegistryStore>(dir.path(), cfg(), 2, &plain_io()).unwrap();
            let shard = reg.shard_for("client-0001");
            reg.write_recovered(shard)
                .register_with_id(
                    "client-0001",
                    &MachineSnapshot::study_machine("h1"),
                    "tok",
                    false,
                )
                .unwrap();
        }
        // Fake a migration to 3 shards that died before READY: a target
        // directory with garbage and no marker.
        let partial = dir.join("by-3");
        std::fs::create_dir_all(partial.join("shard-000")).unwrap();
        std::fs::write(partial.join("shard-000/junk"), b"half-written").unwrap();
        // Opening with 3 shards rebuilds from the committed 2-shard
        // layout; the junk is gone.
        let (reg, _) = open_sharded::<RegistryStore>(dir.path(), cfg(), 3, &plain_io()).unwrap();
        let shard = reg.shard_for("client-0001");
        assert_eq!(reg.read(shard).id_for_token("tok"), Some("client-0001"));
        assert!(!partial.join("shard-000/junk").exists());
    }

    /// A reshard moves every record, and the model its targets fold
    /// from them reads the same — the sketches and the epoch sum the
    /// clients read — at every shard count, with the caches written as
    /// the open ends.
    #[test]
    fn model_reshard_preserves_merged_sketches_and_epoch_sum() {
        use crate::server::UucsServer;
        use uucs_protocol::wire::Endpoint;
        use uucs_protocol::{ClientMsg, ServerMsg};
        let dir = TempDir::new("uucs-shard-model");
        let read = |server: &UucsServer| {
            let sketch = server.model_sketch(Resource::Cpu, None).encode();
            (server.model_epoch(), sketch)
        };
        let open = |n| UucsServer::with_store_set(StoreSet::open(dir.path(), cfg(), n).unwrap().0, 3);
        let baseline = {
            let server = open(3);
            for host in ["a", "b", "c", "d"] {
                let register = ClientMsg::register(MachineSnapshot::study_machine(host));
                let ServerMsg::Id { id, .. } = server.handle(&register) else {
                    panic!("registration refused");
                };
                for seq in 1..=3 {
                    let records = vec![rec(&id, "u1"), rec(&id, "u2")];
                    let reply = server.handle(&ClientMsg::Upload { client: id.clone(), seq, records });
                    assert_eq!(reply, ServerMsg::Ack(2));
                }
                let legacy = vec![rec(&id, "u3"), rec(&id, "u4")];
                let reply = server.handle(&ClientMsg::Upload { client: id.clone(), seq: 0, records: legacy });
                assert_eq!(reply, ServerMsg::Ack(2));
            }
            read(&server)
        };
        assert_eq!(baseline.0, 4 * (3 + 2), "an epoch per sequenced upload, per legacy record");
        for n in [1usize, 4, 2, 2] {
            let server = open(n);
            assert_eq!(read(&server), baseline, "at {n} shards");
            for i in 0..n {
                assert!(dir.join(format!("model-{i:03}.cache")).exists(), "{n} shards: no cache {i}");
            }
            assert!(!dir.join(format!("model-{n:03}.cache")).exists(), "{n} shards: a stale cache");
        }
    }

    /// What a reshard to `n` shards journals as shard `t`, from the
    /// results checkpoint texts of the source shards in shard order: for
    /// each source, an empty batch per horizon of a client routed to `t`,
    /// then each of their blocks as a record entry of its own, in source
    /// order.
    fn resharded_tail(sources: &[String], n: usize, t: usize) -> Vec<Vec<u8>> {
        use uucs_protocol::record::Blocks;
        use uucs_protocol::walenc::BorrowedBlocks;
        let mut tail = Vec::new();
        for text in sources {
            let at: usize = (text.lines().take_while(|l| l.starts_with("SEQ ")))
                .map(|l| l.len() + 1)
                .sum();
            for line in text[..at].lines() {
                let (client, seq) = line["SEQ ".len()..].rsplit_once(' ').unwrap();
                if shard_of(client, n) == t {
                    let batch = Some((client, seq.parse().unwrap()));
                    tail.push(BorrowedBlocks { batch, body: "", count: 0 }.encode());
                }
            }
            for block in Blocks::new(&text[at..]) {
                let body = block.unwrap();
                if shard_of(RunRecord::block_client(body), n) == t {
                    tail.push(BorrowedBlocks { batch: None, body, count: 1 }.encode());
                }
            }
        }
        tail
    }

    /// The `SEQ` lines and then the blocks of `tail`, as a checkpoint
    /// an older build wrote of the store holding it.
    fn tail_text(tail: &[Vec<u8>]) -> String {
        let mut horizons = std::collections::BTreeMap::new();
        let mut blocks = String::new();
        for payload in tail {
            let text = std::str::from_utf8(&payload[1..]).unwrap();
            match text.strip_prefix("BATCH ") {
                Some(header) => {
                    let mut words = header.split_whitespace();
                    let client = words.next().unwrap();
                    horizons.insert(client.to_string(), words.next().unwrap().to_string());
                }
                None => blocks.push_str(text),
            }
        }
        let seqs: String = horizons
            .iter()
            .map(|(c, s)| format!("SEQ {c} {s}\n"))
            .collect();
        seqs + &blocks
    }

    /// A results reshard moves the blocks the source shards hold and
    /// changes nothing else: 8 shards to 3 to 1, over interleaved
    /// uploads, a client with only a horizon, a client that only ever
    /// uploaded at `seq 0`, and source shards an older build checkpointed
    /// part-way, each target holds no checkpoint and a synced journal
    /// tail: its clients' horizons and then their blocks, in source
    /// order.
    #[test]
    fn a_results_reshard_checkpoints_the_source_blocks_in_source_order() {
        let dir = TempDir::new("uucs-shard-results-text");
        let clients: Vec<String> = (1..=12).map(|i| format!("client-{i:04}")).collect();
        let mut uploaded = 0;
        let mut res = open_sharded::<ResultStore>(dir.path(), cfg(), 8, &plain_io()).unwrap().0;
        for round in 1..=4u64 {
            for (i, client) in clients.iter().enumerate() {
                let mut shard = res.write_recovered(res.shard_for(client));
                let batch: Vec<_> = (0..i % 3)
                    .map(|k| rec(client, &format!("u{round}-{k}")))
                    .collect();
                let status = match i % 4 {
                    0 => shard.append_batch(client, round, &[]),
                    1 => shard.append_batch(client, 0, &[rec(client, &format!("u{round}"))]),
                    _ => shard.append_batch(client, round, &batch),
                };
                uploaded += status.unwrap().acked();
            }
            if round == 2 {
                let states: Vec<String> =
                    (0..8).map(|i| results_checkpoint(&res.read(i)).unwrap()).collect();
                drop(res);
                for i in (0..8).step_by(3) {
                    let journal = dir.join("by-8").join(shard_dirname(i));
                    write_old_checkpoint(plain_io(), &journal, cfg(), &states[i]).unwrap();
                }
                res = open_sharded::<ResultStore>(dir.path(), cfg(), 8, &plain_io()).unwrap().0;
            }
        }
        let mut sources: Vec<String> =
            (0..8).map(|i| results_checkpoint(&res.read(i)).unwrap()).collect();
        drop(res);
        assert!(sources.concat().contains("SEQ client-0001 4"), "a horizon-only client");
        for n in [3usize, 1] {
            let (res, _) = open_sharded::<ResultStore>(dir.path(), cfg(), n, &plain_io()).unwrap();
            let mut written = Vec::new();
            for t in 0..n {
                let journal = dir.join(format!("by-{n}")).join(shard_dirname(t));
                let reader = uucs_wal::WalReader::open(uucs_wal::StdIo::new(), journal).unwrap();
                assert!(reader.snapshot().is_none(), "shard {t} of {n}: a checkpoint");
                let tail: Vec<Vec<u8>> = reader.records().map(|r| r.unwrap().1).collect();
                assert!(tail == resharded_tail(&sources, n, t), "shard {t} of {n}");
                let text = results_checkpoint(&res.read(t)).unwrap();
                assert_eq!(text, tail_text(&tail), "shard {t} of {n} reads back");
                written.push(text);
            }
            sources = written;
        }
        // Every block made it through, the legacy client's without a horizon.
        let (res, _) = open_sharded::<ResultStore>(dir.path(), cfg(), 1, &plain_io()).unwrap();
        assert_eq!(res.read(0).len(), uploaded);
        assert!(sources[0].contains("CLIENT client-0002\n"));
        assert!(!sources[0].contains("SEQ client-0002 "));
    }

    pub(crate) fn copy_tree(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            let dest = to.join(entry.file_name());
            if entry.file_type().unwrap().is_dir() {
                copy_tree(&entry.path(), &dest);
            } else {
                std::fs::copy(entry.path(), dest).unwrap();
            }
        }
    }

    fn shard_dir(data: &Path, family: &str, shard: usize) -> PathBuf {
        data.join(family).join("by-8").join(shard_dirname(shard))
    }

    /// A journal's segment files, oldest first (names sort by first LSN).
    fn segments(journal: &Path) -> Vec<PathBuf> {
        let mut segments: Vec<PathBuf> = std::fs::read_dir(journal)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "wal"))
            .collect();
        segments.sort();
        segments
    }

    /// An 8-shard data directory with every flavor populated from
    /// `seed`, one results shard holding a checkpoint an older build
    /// wrote plus a tail past it, and a torn append at the end of one
    /// registry shard.
    fn populated(seed: u64) -> TempDir {
        let dir = TempDir::new("uucs-shard-workers");
        let mut rng = uucs_stats::Pcg64::new(seed);
        let (mut stores, _) = StoreSet::open(dir.path(), cfg(), 8).unwrap();
        let clients: Vec<String> = (1..=24).map(|i| format!("client-{i:04}")).collect();
        for i in 0..40 {
            let id = format!("case-{i:02}");
            let shard = stores.testcases.shard_for(&id);
            stores
                .testcases
                .write_recovered(shard)
                .add(&tc(&id))
                .unwrap();
        }
        for client in &clients {
            let shard = stores.registry.shard_for(client);
            let snapshot = MachineSnapshot::study_machine(format!("host-of-{client}"));
            stores
                .registry
                .write_recovered(shard)
                .register_with_id(client, &snapshot, &format!("tok-{client}"), false)
                .unwrap();
        }
        let folded = stores.results.shard_for(&clients[0]);
        for round in 1..=6u64 {
            for client in &clients {
                if client != &clients[0] && rng.bernoulli(0.3) {
                    continue; // horizons differ from client to client
                }
                let batch: Vec<_> = (0..=rng.below(2))
                    .map(|k| rec(client, &format!("u{round}-{k}")))
                    .collect();
                let shard = stores.results.shard_for(client);
                let mut results = stores.results.write_recovered(shard);
                results.append_batch(client, round, &batch).unwrap();
            }
            if round == 3 {
                let state = results_checkpoint(&stores.results.read(folded)).unwrap();
                drop(stores);
                let journal = shard_dir(dir.path(), "results", folded);
                write_old_checkpoint(plain_io(), &journal, cfg(), &state).unwrap();
                stores = StoreSet::open(dir.path(), cfg(), 8).unwrap().0;
            }
        }
        drop(stores);
        // The residue of an append the crash interrupted: fewer bytes
        // than a frame header at the end of the newest segment.
        let torn = shard_dir(dir.path(), "registry", shard_of(&clients[1], 8));
        let mut last = std::fs::OpenOptions::new()
            .append(true)
            .open(segments(&torn).last().unwrap())
            .unwrap();
        std::io::Write::write_all(&mut last, &[0x2a, 0, 0]).unwrap();
        dir
    }

    /// Everything a restart hands the server, as text: each shard's
    /// state as its checkpoint text, the upload horizons, and the
    /// recovery reports in the order they are printed.
    fn opened_state(workers: usize, data: &Path) -> String {
        use std::fmt::Write;
        let (stores, recoveries) = StoreSet::open_on(workers, &plain_io(), data, cfg(), 8).unwrap();
        let mut out = String::new();
        for i in 0..8 {
            writeln!(out, "== shard {i} ==").unwrap();
            out.push_str(stores.testcases.read(i).text());
            out.push_str(&results_checkpoint(&stores.results.read(i)).unwrap());
            writeln!(out, "{:?}", stores.results.read(i).applied_horizons()).unwrap();
            out.push_str(stores.registry.read(i).text());
            writeln!(out, "{}", stores.models.read(i).folded_records()).unwrap();
            out.push_str(&stores.models.read(i).encoded());
        }
        // And the caches its catch-up writes: the same bytes.
        assert!(models::catch_up(&stores.models).is_empty());
        for i in 0..8 {
            writeln!(out, "== cache {i}: covers {} ==", stores.models.read(i).covers).unwrap();
            let cache = std::fs::read(data.join(format!("model-{i:03}.cache")));
            out.push_str(&cache.map_or("none\n".into(), |b| String::from_utf8_lossy(&b).into_owned()));
        }
        for r in &recoveries {
            writeln!(out, "{r:?}").unwrap();
        }
        out
    }

    /// What a restart recovers does not depend on how many threads
    /// opened the journals: identical copies of a populated data
    /// directory opened on 1, 2, 3 and 8 workers give the same state
    /// per shard, the same horizons, the same caches once caught up and
    /// the same recovery reports in the same order.
    #[test]
    fn recovered_state_is_independent_of_the_worker_count() {
        const SEED: u64 = 0x19;
        let data = populated(SEED);
        let mut states = Vec::new();
        for workers in [1, 2, 3, 8] {
            let copy = TempDir::new("uucs-shard-workers-copy");
            copy_tree(data.path(), copy.path());
            states.push((workers, opened_state(workers, copy.path())));
        }
        let (_, serial) = &states[0];
        // The fixture is what it claims to be, or equality proves little.
        assert_eq!(serial.matches("torn_tail: Some").count(), 1, "seed {SEED:#x}");
        assert!(serial.contains("SEQ client-0001 6"), "seed {SEED:#x}: {serial}");
        assert!(serial.contains("MODELCACHE"), "seed {SEED:#x}: no cache caught up");
        let folded = shard_dir(data.path(), "results", shard_of("client-0001", 8));
        let files: Vec<_> = std::fs::read_dir(folded).unwrap().collect();
        assert!(
            files.iter().any(|f| f.as_ref().unwrap().path().extension().unwrap() == "snap"),
            "seed {SEED:#x}: no snapshot in the compacted shard"
        );
        for (workers, state) in &states[1..] {
            assert_eq!(state, serial, "seed {SEED:#x}: {workers} workers against 1");
        }
    }

    /// When several journals are refused, the restart reports the one
    /// lowest in (family, shard) order — the one a serial open would
    /// have stopped at — whichever worker met its defect first.
    #[test]
    fn the_lowest_refused_journal_is_the_one_reported() {
        const SEED: u64 = 0x1a;
        let data = populated(SEED);
        let flip = |journal: &Path, offset: usize| {
            let segment = segments(journal).remove(0);
            let mut bytes = std::fs::read(&segment).unwrap();
            bytes[offset] ^= 0x40;
            std::fs::write(&segment, bytes).unwrap();
        };
        // Family order is testcases, results, registry, models: the
        // higher shard of the earlier family is the lower journal.
        let lower = shard_dir(data.path(), "testcases", 6);
        let higher = shard_dir(data.path(), "results", 2);
        flip(&lower, 40);
        flip(&higher, 41);
        fn alone<F: Journaled>(journal: &Path) -> String {
            match F::open(plain_io(), journal, cfg()) {
                Ok(_) => panic!("seed {SEED:#x}: {journal:?} opened despite the flipped bit"),
                Err(e) => e.to_string(),
            }
        }
        let (want, other) = (alone::<TestcaseStore>(&lower), alone::<ResultStore>(&higher));
        assert_ne!(want, other, "seed {SEED:#x}: the two refusals must be tellable apart");
        for workers in [1, 2, 3, 8] {
            let opened = StoreSet::open_on(workers, &plain_io(), data.path(), cfg(), 8);
            let err = opened.err().expect("two corrupt journals cannot open");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), want, "seed {SEED:#x}: {workers} workers");
        }
    }

    /// A fresh data directory has nothing to replay, so opening it
    /// spawns nothing: the idle server pays no thread for a feature it
    /// is not using.
    #[test]
    fn journals_without_state_are_opened_on_the_calling_thread() {
        let dir = TempDir::new("uucs-shard-inline");
        let caller = std::thread::current().id();
        let ran_on = std::sync::Mutex::new(Vec::new());
        let queue = |has_state: &[bool]| -> Vec<QueuedOpen<'_>> {
            has_state
                .iter()
                .map(|&has_state| QueuedOpen {
                    has_state,
                    open: Box::new(|| ran_on.lock().unwrap().push(std::thread::current().id())),
                })
                .collect()
        };
        open_all(8, queue(&[false; 32]));
        open_all(8, queue(&[false, true, false, false]));
        assert_eq!(ran_on.lock().unwrap().len(), 36);
        assert!(ran_on.lock().unwrap().iter().all(|&id| id == caller));
        // And that is what a real fresh directory queues.
        let (mut journals, _) =
            Journals::<ResultStore>::settle(dir.path(), cfg(), 8, &plain_io(), 8, None).unwrap();
        assert!(journals.queue().iter().all(|q| !q.has_state));
        open_all(8, journals.queue());
        journals.stores().unwrap();
        let (mut reopened, _) =
            Journals::<ResultStore>::settle(dir.path(), cfg(), 8, &plain_io(), 8, None).unwrap();
        assert!(reopened.queue().iter().all(|q| !q.has_state), "a bare header is no state");
    }

    #[test]
    fn per_shard_poisoning_is_isolated() {
        let sharded: Sharded<Vec<u32>> = Sharded::new(vec![vec![], vec![], vec![]]);
        let poison = |s: &Sharded<Vec<u32>>, i: usize| {
            let lock: &RwLock<Vec<u32>> = s.raw(i);
            std::thread::scope(|scope| {
                let _ = scope
                    .spawn(|| {
                        let _g = lock.write().unwrap();
                        panic!("poison shard");
                    })
                    .join();
            });
        };
        poison(&sharded, 1);
        assert!(sharded.raw(1).is_poisoned());
        // Other shards are untouched.
        sharded.try_write(0).unwrap().push(1);
        sharded.try_write(2).unwrap().push(2);
        // The poisoned shard fails one request and heals.
        assert!(sharded.try_write(1).is_err());
        sharded.try_write(1).unwrap().push(3);
        assert_eq!(*sharded.read(1), vec![3]);
    }
}
