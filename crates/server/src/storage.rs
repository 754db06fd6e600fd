//! Storage-engine composition: the I/O backend every WAL-backed store
//! journals through, and the disk-scheduler pool every group committer
//! owns.
//!
//! Every journal reads and writes its segment files directly
//! ([`StoreIo`] is a [`Disk`]): appends go to the file, and a restart's
//! one-pass replay reads each segment once and keeps nothing it read
//! beyond what the store itself holds. There is no page cache under the
//! journals — a write-through cache absorbs no write, and a replay that
//! reads each segment once never hits one.
//!
//! Every server runs the same engine, with no setting: its group
//! committer owns a [`DiskScheduler`] of [`IO_THREADS`] threads (a
//! bounded request queue, instrumented as `server.disk.*`) that a pass
//! over two or more dirty shards fans its fsyncs out to, and the
//! ticketed stores defer segment-rotation fsyncs to the committer's next
//! pass — rotation does not stall the append path
//! (`server.wal.<flavor>.rotation_stall.ns` shows the residual). See
//! [`crate::commit`].
//!
//! An in-process server (the studies, the fleet, tests) journals the
//! same way over [`Disk::Memory`]: a volatile in-memory disk per shard
//! ([`MEMORY_WAL`]), so every server runs the one journaled apply path.

use std::io;
use std::path::Path;
use std::sync::Arc;
use uucs_pagecache::{DiskScheduler, OpKind, SchedObserver};
use uucs_telemetry::{metrics, Counter, Histogram};
use uucs_wal::{Io, MemIo, StdIo, SyncPolicy, WalConfig};

/// The I/O backend every WAL-backed store journals through.
pub type StoreIo = Disk;

/// What a store journals to: real files, or an in-memory disk — an
/// in-process server's, or one whose faults a test plans.
#[derive(Debug, Clone)]
pub enum Disk {
    /// The filesystem.
    Files(StdIo),
    /// `uucs_wal::MemIo`: volatile tails, planned faults, crashes.
    Memory(MemIo),
}

/// How an in-memory journal is written: no append syncs — the server's
/// group committer does, as on every server — in small segments: a
/// reader holds one segment at a time, so small ones keep its copy
/// small.
pub(crate) const MEMORY_WAL: WalConfig = WalConfig {
    segment_bytes: 64 << 10,
    sync: SyncPolicy::Never,
};

macro_rules! on_disk {
    ($self:ident, $io:ident => $call:expr) => {
        match $self {
            Disk::Files($io) => $call,
            Disk::Memory($io) => $call,
        }
    };
}

impl Io for Disk {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        on_disk!(self, io => io.create_dir_all(dir))
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        on_disk!(self, io => io.list(dir))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        on_disk!(self, io => io.read(path))
    }
    fn create(&self, path: &Path) -> io::Result<()> {
        on_disk!(self, io => io.create(path))
    }
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        on_disk!(self, io => io.append(path, data))
    }
    fn sync(&self, path: &Path) -> io::Result<()> {
        on_disk!(self, io => io.sync(path))
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        on_disk!(self, io => io.truncate(path, len))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        on_disk!(self, io => io.rename(from, to))
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        on_disk!(self, io => io.remove(path))
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        on_disk!(self, io => io.len(path))
    }
    fn read_into(&self, path: &Path, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        on_disk!(self, io => io.read_into(path, offset, buf))
    }
}

/// The journals' [`StoreIo`]: real files.
pub fn plain_io() -> StoreIo {
    Disk::Files(StdIo::new())
}

/// The threads of the pool every group committer fans a multi-shard
/// pass out to.
pub const IO_THREADS: usize = 2;

/// A disk scheduler of [`IO_THREADS`] threads with its queue
/// instrumented under `server.disk.*`.
pub(crate) fn disk_scheduler() -> DiskScheduler {
    let sched = DiskScheduler::new(IO_THREADS, 256);
    sched.set_observer(Arc::new(DiskTelemetry {
        queue_depth: metrics::histogram("server.disk.queue_depth"),
        stall_ns: metrics::histogram("server.disk.stall_ns"),
        service_ns: metrics::histogram("server.disk.service_ns"),
        ops: metrics::counter("server.disk.ops"),
    }));
    sched
}

/// Bridges scheduler events into `server.disk.*`: queue depth at
/// enqueue, how long requests sat queued, and service time per op.
struct DiskTelemetry {
    queue_depth: Histogram,
    stall_ns: Histogram,
    service_ns: Histogram,
    ops: Counter,
}

impl SchedObserver for DiskTelemetry {
    fn on_enqueue(&self, _kind: OpKind, depth: usize) {
        self.queue_depth.record(depth as u64);
    }
    fn on_dequeue(&self, _kind: OpKind, stall_ns: u64, _depth: usize) {
        self.stall_ns.record(stall_ns);
    }
    fn on_complete(&self, _kind: OpKind, dur_ns: u64) {
        self.ops.inc();
        self.service_ns.record(dur_ns);
    }
}

/// Kept only because `benchmark/src/layers.rs` builds against it, and
/// deleted by ROADMAP item 18: nothing in a profile changes the engine.
/// Both fields are ignored — every committer owns its [`IO_THREADS`]
/// pool, and the journals have no page cache.
#[derive(Debug, Clone, Default)]
pub struct StorageProfile {
    /// Ignored (as is `uucs-server --cache-pages`).
    pub cache_pages: usize,
    /// Ignored (as is `uucs-server --io-threads`).
    pub io_threads: usize,
}

impl StorageProfile {
    /// The default profile with the ignored `cache_pages` set.
    pub fn with_cache_pages(cache_pages: usize) -> Self {
        StorageProfile {
            cache_pages,
            ..Self::default()
        }
    }

    /// Always `None`: the committer builds its own pool. Kept only for
    /// `benchmark/src/layers.rs`; deleted by ROADMAP item 18.
    pub fn scheduler(&self) -> Option<Arc<DiskScheduler>> {
        None
    }
}
