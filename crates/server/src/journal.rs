//! The one journal core under all four stores.
//!
//! Every durable store is the same machine: an in-memory state plus an
//! optional `uucs-wal` stream that is appended *before* the state
//! changes, folded into a snapshot by compaction, and replayed —
//! snapshot first, then the records past it — on reopen. [`Journal`]
//! owns that stream (the only code in the crate that touches a
//! [`Wal`]), and [`Journaled`] is what a store supplies to ride on it:
//! its flavor name, its snapshot codec, how to apply one [`WalEntry`],
//! and the pair that moves its state as the text it holds —
//! [`Journaled::export`] and [`Journaled::admit`], which a reshard, a
//! snapshot backfill and a follower's apply all go through. The open
//! skeleton, compaction and the per-family shard loops are written once
//! against the trait.
//!
//! Opening is one pass: the WAL shows the store its checkpoint and then
//! every record past it while it validates them ([`uucs_wal::Visitor`]),
//! each entry replayed straight from the segment buffer — nothing is
//! read, checksummed or copied a second time.

use crate::storage::StoreIo;
use crate::store::invalid;
use std::io;
use std::path::Path;
use uucs_protocol::walenc::entry_kind;
use uucs_protocol::WalEntry;
use uucs_telemetry::{metrics, Counter, Histogram};
use uucs_wal::{Lsn, Recovery, Snapshot, Visitor, Wal, WalConfig, WalObserver};

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

/// A store's write-ahead log, or nothing at all in plain mode — where
/// every operation below is a no-op, so a store's mutators read the
/// same either way.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    wal: Option<Wal<StoreIo>>,
}

impl Journal {
    /// True when mutations are journaled through a WAL.
    pub(crate) fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Journals one mutation; the caller applies it in memory only
    /// after this returns `Ok`, so an acknowledged mutation is never
    /// ahead of its journal. The payload is built lazily — plain mode
    /// never pays for the encoding.
    pub(crate) fn append(&mut self, payload: impl FnOnce() -> Vec<u8>) -> io::Result<()> {
        if self.is_durable() {
            self.append_encoded(&payload())?;
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

    /// The LSN the next append would get, or `None` in plain mode.
    /// Captured under the store's write lock right after an append, it
    /// is the durability watermark a group-commit waiter needs: once a
    /// sync covers it, the append is on stable storage.
    pub(crate) fn next_lsn(&self) -> Option<Lsn> {
        self.wal.as_ref().map(|wal| wal.next_lsn())
    }

    /// Forces everything journaled so far to stable storage, returning
    /// the covered watermark (the next LSN). `Ok(0)` in plain mode.
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
    /// `file` is past the last (at once in plain mode). The one way a
    /// store reads back what it journaled: see [`Wal::visit_file`].
    pub(crate) fn visit_file(&self, file: usize, visitor: &mut dyn Visitor) -> io::Result<bool> {
        match &self.wal {
            Some(wal) => wal.visit_file(file, visitor),
            None => Ok(false),
        }
    }

    /// Writes `state` as the snapshot superseding everything journaled
    /// so far and deletes the segments it covers.
    fn checkpoint(&mut self, state: &[u8]) -> io::Result<()> {
        if let Some(wal) = &mut self.wal {
            wal.snapshot(state)?;
            wal.compact()?;
        }
        Ok(())
    }
}

/// What a store supplies to be journaled; everything provided below is
/// then written once for all of them.
pub(crate) trait Journaled: Default {
    /// The store's name in `server.wal.<flavor>.*` and in error text.
    const FLAVOR: &'static str;

    /// The store's journal.
    fn journal(&mut self) -> &mut Journal;

    /// Replaces the (empty) state with a decoded [`snapshot`].
    ///
    /// [`snapshot`]: Journaled::snapshot
    fn restore(&mut self, snapshot: &str) -> io::Result<()>;

    /// Applies one replayed, CRC-checked payload in memory; an entry
    /// of another store's kind is refused with [`foreign`]. The
    /// registry and model stores start from [`decoded`]; the result
    /// store checks the batch header and counts the blocks, and the
    /// testcase store keeps the text it parsed.
    fn replay(&mut self, payload: &[u8]) -> io::Result<()>;

    /// Encodes the whole state as the compaction snapshot — fallible,
    /// because a store may read part of its state back from its journal.
    fn snapshot(&self) -> io::Result<String>;

    /// Hands `emit` the whole state as `(routing key, payload)` pairs,
    /// each payload in a format the store's journal holds and spliced
    /// from the text the store holds.
    fn export(&self, emit: &mut dyn FnMut(&str, Vec<u8>) -> io::Result<()>) -> io::Result<()>;

    /// Checks `payload` as [`Journaled::replay`] does, journals it (a
    /// plain store keeps its text) and applies it; `false` when the
    /// store already held what it carries and nothing changed.
    fn admit(&mut self, payload: &[u8]) -> io::Result<bool>;

    /// The shard of `n` an exported `key` is admitted into.
    fn route(key: &str, n: usize) -> usize {
        crate::shard::shard_of(key, n)
    }

    /// Opens (creating if necessary) the WAL under `dir` over `io` and
    /// rebuilds the store from it: snapshot first, then every record
    /// past it. A defect in the log is `InvalidData` naming the record.
    fn open(io: StoreIo, dir: &Path, config: WalConfig) -> io::Result<(Self, Recovery)> {
        // Still in plain mode: replaying through the store's own
        // mutators journals nothing.
        let mut store = Self::default();
        let (mut wal, recovery) = Wal::open_visiting(io, dir, config, &mut Rebuild(&mut store))?;
        WalTelemetry::install(&mut wal, Self::FLAVOR);
        store.journal().wal = Some(wal);
        Ok((store, recovery))
    }

    /// Folds the journal into a checkpoint and deletes the segments it
    /// covers. Returns `false` (doing nothing) in plain mode.
    fn compact(&mut self) -> io::Result<bool> {
        if !self.journal().is_durable() {
            return Ok(false);
        }
        let state = self.snapshot()?;
        self.journal().checkpoint(state.as_bytes())?;
        Ok(true)
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

/// The whole entry of a replayed payload.
pub(crate) fn decoded(payload: &[u8]) -> io::Result<WalEntry> {
    WalEntry::decode(payload).map_err(invalid)
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
