//! The one journal core under all four stores.
//!
//! Every store is the same machine: an in-memory state plus a
//! `uucs-wal` stream that is appended *before* the state changes,
//! folded into a snapshot by compaction, and replayed — snapshot first,
//! then the records past it — on reopen. The stream runs over files
//! (`uucs-server`) or over an in-memory disk ([`Journaled::in_memory`],
//! an in-process server's); only a [`crate::ModelStore::new`] has none.
//! [`Journal`] owns that stream (the only code in the crate that
//! touches a [`Wal`]), and [`Journaled`] is what a store supplies to
//! ride on it: its flavor name, its snapshot codec, how to replay one
//! journal payload, and the pair that moves its state as the text it
//! holds — [`Journaled::export`] and [`Journaled::admit`], which a
//! reshard, a snapshot backfill and a follower's apply all go through.
//! The open skeleton, compaction and the per-family shard loops are
//! written once against the trait.
//!
//! Opening is one pass: the WAL shows the store its checkpoint and then
//! every record past it while it validates them ([`uucs_wal::Visitor`]),
//! each entry replayed straight from the segment buffer — nothing is
//! read, checksummed or copied a second time.

use crate::storage::{Disk, StoreIo, MEMORY_WAL};
use crate::store::invalid;
use std::io;
use std::path::Path;
use uucs_protocol::walenc::entry_kind;
use uucs_telemetry::{metrics, Counter, Histogram};
use uucs_wal::{Lsn, MemIo, Recovery, Snapshot, Visitor, Wal, WalConfig, WalObserver};

/// The telemetry bridge for one store's WAL: every observer hook lands
/// in the global registry under `server.wal.<flavor>.*`, so `STATS`
/// exposes append/fsync/snapshot/compaction timings per store. Handles
/// are registered once at open, keeping the per-I/O cost at a few
/// atomic ops.
struct WalTelemetry {
    append_ns: Histogram,
    append_bytes: Counter,
    fsync_ns: Histogram,
    rotations: Counter,
    rotation_stall_ns: Histogram,
    snapshot_ns: Histogram,
    compact_ns: Histogram,
    compact_removed: Counter,
}

impl WalTelemetry {
    fn install(wal: &mut Wal<StoreIo>, flavor: &str) {
        wal.set_observer(Box::new(WalTelemetry {
            append_ns: metrics::histogram(&format!("server.wal.{flavor}.append.ns")),
            append_bytes: metrics::counter(&format!("server.wal.{flavor}.append.bytes")),
            fsync_ns: metrics::histogram(&format!("server.wal.{flavor}.fsync.ns")),
            rotations: metrics::counter(&format!("server.wal.{flavor}.rotations")),
            rotation_stall_ns: metrics::histogram(&format!(
                "server.wal.{flavor}.rotation_stall.ns"
            )),
            snapshot_ns: metrics::histogram(&format!("server.wal.{flavor}.snapshot.ns")),
            compact_ns: metrics::histogram(&format!("server.wal.{flavor}.compact.ns")),
            compact_removed: metrics::counter(&format!("server.wal.{flavor}.compact.removed")),
        }));
    }
}

impl WalObserver for WalTelemetry {
    fn on_append(&mut self, bytes: usize, dur_ns: u64) {
        self.append_ns.record(dur_ns);
        self.append_bytes.add(bytes as u64);
    }
    fn on_sync(&mut self, dur_ns: u64) {
        self.fsync_ns.record(dur_ns);
    }
    fn on_rotate(&mut self) {
        self.rotations.inc();
    }
    fn on_rotate_stall(&mut self, dur_ns: u64) {
        self.rotation_stall_ns.record(dur_ns);
    }
    fn on_snapshot(&mut self, _bytes: usize, dur_ns: u64) {
        self.snapshot_ns.record(dur_ns);
    }
    fn on_compact(&mut self, removed: usize, dur_ns: u64) {
        self.compact_ns.record(dur_ns);
        self.compact_removed.add(removed as u64);
    }
}

/// A store's write-ahead log — attached by [`Journaled::open`], and
/// absent only from a [`crate::ModelStore::new`], where every operation
/// below is a no-op.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    wal: Option<Wal<StoreIo>>,
}

impl Journal {
    /// Journals one mutation; the caller applies it in memory only
    /// after this returns `Ok`, so an acknowledged mutation is never
    /// ahead of its journal. The payload is built lazily — a store with
    /// no journal never pays for the encoding.
    pub(crate) fn append(&mut self, payload: impl FnOnce() -> Vec<u8>) -> io::Result<()> {
        if let Some(wal) = &mut self.wal {
            wal.append(&payload())?;
        }
        Ok(())
    }

    /// [`Journal::append`] of a payload the caller has already encoded
    /// (it has another use for the same bytes).
    pub(crate) fn append_encoded(&mut self, payload: &[u8]) -> io::Result<()> {
        if let Some(wal) = &mut self.wal {
            wal.append(payload)?;
        }
        Ok(())
    }

    /// The LSN the next append would get (0 with no journal). Captured
    /// under the store's write lock right after an append, it is the
    /// durability watermark a group-commit waiter needs: once a sync
    /// covers it, the append is on stable storage.
    pub(crate) fn next_lsn(&self) -> Lsn {
        self.wal.as_ref().map_or(0, |wal| wal.next_lsn())
    }

    /// Forces everything journaled so far to stable storage, returning
    /// the covered watermark (the next LSN). `Ok(0)` with no journal.
    pub(crate) fn sync(&mut self) -> io::Result<Lsn> {
        match &mut self.wal {
            Some(wal) => {
                wal.sync()?;
                Ok(wal.next_lsn())
            }
            None => Ok(0),
        }
    }

    /// Defers segment-rotation fsyncs to the next [`Journal::sync`]
    /// (the group committer's), keeping rotation off the append path.
    /// Only safe when something syncs regularly — acks must still wait
    /// on that sync.
    pub(crate) fn set_deferred_rotation_sync(&mut self, defer: bool) {
        if let Some(wal) = &mut self.wal {
            wal.set_deferred_rotation_sync(defer);
        }
    }

    /// Shows `visitor` one file of the journal as it stands — file 0 the
    /// checkpoint, then each live segment's records — and `false` once
    /// `file` is past the last (at once with no journal). The one way a
    /// store reads back what it journaled: see [`Wal::visit_file`].
    pub(crate) fn visit_file(&self, file: usize, visitor: &mut dyn Visitor) -> io::Result<bool> {
        match &self.wal {
            Some(wal) => wal.visit_file(file, visitor),
            None => Ok(false),
        }
    }

    /// The bytes journaled past the last checkpoint — what a reopen
    /// would replay on top of it — and the size of that checkpoint's
    /// state: [`Wal::tail_bytes`] and [`Wal::checkpoint_bytes`], `(0, 0)`
    /// with no journal.
    pub(crate) fn tail(&self) -> (u64, u64) {
        self.wal.as_ref().map_or((0, 0), |wal| (wal.tail_bytes(), wal.checkpoint_bytes()))
    }

    /// Writes `state` as the snapshot superseding everything journaled
    /// so far and deletes the segments it covers; `false` (doing
    /// nothing) with no journal.
    fn checkpoint(&mut self, state: &[u8]) -> io::Result<bool> {
        let Some(wal) = &mut self.wal else {
            return Ok(false);
        };
        wal.snapshot(state)?;
        wal.compact()?;
        Ok(true)
    }
}

/// What a store supplies to be journaled; everything provided below is
/// then written once for all of them.
pub(crate) trait Journaled: Sized {
    /// The store's name in `server.wal.<flavor>.*` and in error text.
    const FLAVOR: &'static str;

    /// The empty state an open rebuilds, before its journal is attached.
    fn empty() -> Self;

    /// The store's journal.
    fn journal(&mut self) -> &mut Journal;

    /// Replaces the (empty) state with a decoded [`snapshot`].
    ///
    /// [`snapshot`]: Journaled::snapshot
    fn restore(&mut self, snapshot: &str) -> io::Result<()>;

    /// Applies one replayed, CRC-checked payload in memory in one pass
    /// over its text; an entry of another store's kind is refused with
    /// [`foreign`]. The keyed stores keep the block they checked, the
    /// result store checks the batch header and counts the blocks, and
    /// the model store folds the delta's text into its sketches.
    fn replay(&mut self, payload: &[u8]) -> io::Result<()>;

    /// Called once an open has replayed the whole journal.
    fn opened(&mut self) {}

    /// Encodes the whole state as the compaction snapshot — fallible,
    /// because a store may read part of its state back from its journal.
    fn snapshot(&self) -> io::Result<String>;

    /// Hands `emit` the whole state as `(routing key, payload)` pairs,
    /// each payload in a format the store's journal holds and spliced
    /// from the text the store holds.
    fn export(&self, emit: &mut dyn FnMut(&str, Vec<u8>) -> io::Result<()>) -> io::Result<()>;

    /// Checks `payload` as [`Journaled::replay`] does, journals it and
    /// applies it; `false` when the store already held what it carries
    /// and nothing changed.
    fn admit(&mut self, payload: &[u8]) -> io::Result<bool>;

    /// The shard of `n` an exported `key` is admitted into.
    fn route(key: &str, n: usize) -> usize {
        crate::shard::shard_of(key, n)
    }

    /// Opens (creating if necessary) the WAL under `dir` over `io` and
    /// rebuilds the store from it: snapshot first, then every record
    /// past it. A defect in the log is `InvalidData` naming the record.
    /// Each shard's open time lands in `server.wal.<flavor>.open.ns`, and
    /// the records it replayed past its checkpoint in the
    /// `server.wal.<flavor>.replayed_records` gauge (a level: the
    /// flavor's latest shard open).
    fn open(io: StoreIo, dir: &Path, config: WalConfig) -> io::Result<(Self, Recovery)> {
        let timer = metrics::histogram(&format!("server.wal.{}.open.ns", Self::FLAVOR)).start_timer();
        // No journal attached yet: replaying through the store's own
        // mutators journals nothing.
        let mut store = Self::empty();
        let (mut wal, recovery) = Wal::open_visiting(io, dir, config, &mut Rebuild(&mut store))?;
        store.opened();
        WalTelemetry::install(&mut wal, Self::FLAVOR);
        store.journal().wal = Some(wal);
        drop(timer);
        metrics::gauge(&format!("server.wal.{}.replayed_records", Self::FLAVOR))
            .set(recovery.records as i64);
        Ok((store, recovery))
    }

    /// An empty store journaling over an in-memory disk of its own, so
    /// no two stores share its lock. Nothing can fail on a fresh one.
    fn in_memory() -> Self {
        let io = Disk::Memory(MemIo::new());
        Self::open(io, Path::new(Self::FLAVOR), MEMORY_WAL)
            .expect("a fresh in-memory journal opens")
            .0
    }

    /// Folds the journal into a checkpoint and deletes the segments it
    /// covers. Returns `false` (writing nothing) with no journal.
    fn compact(&mut self) -> io::Result<bool> {
        let state = self.snapshot()?;
        self.journal().checkpoint(state.as_bytes())
    }
}

/// Rebuilds a store from what its WAL shows while opening.
struct Rebuild<'a, S>(&'a mut S);

impl<S: Journaled> Visitor for Rebuild<'_, S> {
    fn snapshot(&mut self, snapshot: Snapshot) -> io::Result<()> {
        self.0
            .restore(std::str::from_utf8(&snapshot.state).map_err(invalid)?)
    }

    fn record(&mut self, lsn: Lsn, payload: &[u8]) -> io::Result<()> {
        self.0
            .replay(payload)
            .map_err(|e| invalid(format!("record {lsn}: {e}")))
    }
}

/// The error for an entry that belongs in another store's journal —
/// two stores pointed at one directory, or a mislabelled data dir —
/// named by the payload's tag byte.
pub(crate) fn foreign<S: Journaled>(tag: u8) -> io::Error {
    match entry_kind(tag) {
        Some(kind) => invalid(format!("foreign {kind} entry in a {} journal", S::FLAVOR)),
        None => invalid(format!("unknown wal entry tag {tag:#04x}")),
    }
}
