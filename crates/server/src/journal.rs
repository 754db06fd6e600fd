//! The one journal core under all three stores.
//!
//! Every store is the same machine: an in-memory state plus a
//! `uucs-wal` stream that is appended *before* the state changes and
//! replayed on reopen — a checkpoint an older build wrote first, where
//! the journal holds one, then the records past it. The stream runs over files (`uucs-server`)
//! or over an in-memory disk ([`Journaled::in_memory`]: an in-process
//! server's, and every store built with `new`). [`Journal`] owns that
//! stream (the only code in the crate that touches a [`Wal`]), and
//! [`Journaled`] is what a store supplies to ride on it: its flavor
//! name, the state an open rebuilds before the journal is attached
//! ([`Journaled::State`]), how to restore an older build's checkpoint
//! and replay one journal payload into it, and
//! the pair that moves its state as the text it holds —
//! [`Journaled::export`] and [`Journaled::admit`], which a reshard, a
//! snapshot backfill and a follower's apply all go through. The open
//! skeleton and the per-family shard loops are written once against the
//! trait.
//!
//! No store writes a checkpoint: each *is* the text its journal holds,
//! so each journal is its own checkpoint (one an older build wrote is
//! still restored). The comfort model is no store of its own: the result
//! store's open folds it from the entries past its cache
//! ([`Journaled::open_cached`]).
//!
//! Opening is one pass: the WAL shows the store its checkpoint and then
//! every record past it while it validates them ([`uucs_wal::Visitor`]),
//! each entry replayed straight from the segment buffer — nothing is
//! read, checksummed or copied a second time.

use crate::storage::{Disk, StoreIo, MEMORY_WAL};
use crate::store::invalid;
use std::io;
use std::path::Path;
use crate::models::CacheFile;
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

/// A store's write-ahead log, attached by [`Journaled::open`].
#[derive(Debug)]
pub(crate) struct Journal {
    wal: Wal<StoreIo>,
}

impl Journal {
    /// Journals one mutation; the caller applies it in memory only
    /// after this returns `Ok`, so an acknowledged mutation is never
    /// ahead of its journal.
    pub(crate) fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        self.wal.append(payload).map(drop)
    }

    /// The LSN the next append would get. Captured under the store's
    /// write lock right after an append, it is the durability watermark
    /// a group-commit waiter needs: once a sync covers it, the append is
    /// on stable storage.
    pub(crate) fn next_lsn(&self) -> Lsn {
        self.wal.next_lsn()
    }

    /// Forces everything journaled so far to stable storage, returning
    /// the covered watermark (the next LSN).
    pub(crate) fn sync(&mut self) -> io::Result<Lsn> {
        self.wal.sync()?;
        Ok(self.wal.next_lsn())
    }

    /// Defers segment-rotation fsyncs to the next [`Journal::sync`]
    /// (the group committer's), keeping rotation off the append path.
    /// Only safe when something syncs regularly — acks must still wait
    /// on that sync.
    pub(crate) fn set_deferred_rotation_sync(&mut self) {
        self.wal.set_deferred_rotation_sync();
    }

    /// Shows `visitor` one file of the journal as it stands — file 0 the
    /// checkpoint, then each live segment's records — and `false` once
    /// `file` is past the last. The one way a store reads back what it
    /// journaled: see [`Wal::visit_file`].
    pub(crate) fn visit_file(&self, file: usize, visitor: &mut dyn Visitor) -> io::Result<bool> {
        self.wal.visit_file(file, visitor)
    }

}

/// What a store supplies to be journaled; everything provided below is
/// then written once for all of them.
pub(crate) trait Journaled: Sized {
    /// The store's name in `server.wal.<flavor>.*` and in error text.
    const FLAVOR: &'static str;

    /// What an open rebuilds from the journal before attaching it: the
    /// store without its journal, empty by default.
    type State: Default;

    /// The store over an opened journal and the state it replayed to.
    fn attach(state: Self::State, journal: Journal) -> Self;

    /// The store's journal.
    fn journal(&mut self) -> &mut Journal;

    /// Replaces the (empty) state with the decoded checkpoint an older
    /// build wrote, covering the records below `upto`.
    fn restore(state: &mut Self::State, upto: Lsn, snapshot: &str) -> io::Result<()>;

    /// Applies one replayed, CRC-checked payload, the entry at `lsn`, in
    /// memory in one pass over its text; an entry of another store's
    /// kind is refused with [`foreign`]. The keyed stores keep the block
    /// they checked, and the result store checks the batch header,
    /// counts the blocks and folds the ones past its model cache.
    fn replay(state: &mut Self::State, lsn: Lsn, payload: &[u8]) -> io::Result<()>;

    /// Hands `emit` the whole state as `(routing key, payload)` pairs,
    /// each payload in a format the store's journal holds and spliced
    /// from the text the store holds.
    fn export(&self, emit: &mut dyn FnMut(&str, Vec<u8>) -> io::Result<()>) -> io::Result<()>;

    /// Checks `payload` as [`Journaled::replay`] does, journals it and
    /// applies it; `false` when the store already held what it carries
    /// and nothing changed.
    fn admit(&mut self, payload: &[u8]) -> io::Result<bool>;

    /// Opens (creating if necessary) the WAL under `dir` over `io` and
    /// rebuilds the store from it: snapshot first, then every record
    /// past it. A defect in the log is `InvalidData` naming the record.
    /// Each shard's open time lands in `server.wal.<flavor>.open.ns`, and
    /// the records it replayed past its checkpoint in the
    /// `server.wal.<flavor>.replayed_records` gauge (a level: the
    /// flavor's latest shard open).
    fn open(io: StoreIo, dir: &Path, config: WalConfig) -> io::Result<(Self, Recovery)> {
        Self::open_onto(io, dir, config, Self::State::default())
    }

    /// [`Journaled::open`] rebuilding onto `state` instead of an empty
    /// one.
    fn open_onto(
        io: StoreIo,
        dir: &Path,
        config: WalConfig,
        mut state: Self::State,
    ) -> io::Result<(Self, Recovery)> {
        let timer = metrics::histogram(&format!("server.wal.{}.open.ns", Self::FLAVOR)).start_timer();
        let (mut wal, recovery) =
            Wal::open_visiting(io, dir, config, &mut Rebuild::<Self>(&mut state))?;
        WalTelemetry::install(&mut wal, Self::FLAVOR);
        let store = Self::attach(state, Journal { wal });
        drop(timer);
        metrics::gauge(&format!("server.wal.{}.replayed_records", Self::FLAVOR))
            .set(recovery.records as i64);
        Ok((store, recovery))
    }

    /// [`Journaled::open`] for one shard of a layout whose model caches
    /// `cache` names the file of. Only the result store has a model to
    /// rebuild; every other store ignores it.
    fn open_cached(
        io: StoreIo,
        dir: &Path,
        config: WalConfig,
        _cache: Option<CacheFile>,
    ) -> io::Result<(Self, Recovery)> {
        Self::open(io, dir, config)
    }

    /// An empty store journaling over an in-memory disk of its own, so
    /// no two stores share its lock. Nothing can fail on a fresh one.
    fn in_memory() -> Self {
        let io = Disk::Memory(MemIo::new());
        Self::open(io, Path::new(Self::FLAVOR), MEMORY_WAL)
            .expect("a fresh in-memory journal opens")
            .0
    }
}

/// Rebuilds a store's state from what its WAL shows while opening.
struct Rebuild<'a, S: Journaled>(&'a mut S::State);

impl<S: Journaled> Visitor for Rebuild<'_, S> {
    fn snapshot(&mut self, snapshot: Snapshot) -> io::Result<()> {
        let text = std::str::from_utf8(&snapshot.state).map_err(invalid)?;
        S::restore(self.0, snapshot.upto, text)
    }

    fn record(&mut self, lsn: Lsn, payload: &[u8]) -> io::Result<()> {
        S::replay(self.0, lsn, payload).map_err(|e| invalid(format!("record {lsn}: {e}")))
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
