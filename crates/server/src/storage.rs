//! Storage-engine composition: the I/O backend every WAL-backed store
//! journals through, and the shared disk-scheduler thread pool.
//!
//! Every journal reads and writes its segment files directly
//! ([`StoreIo`] is a [`Disk`]): appends go to the file, and a restart's
//! one-pass replay reads each segment once and keeps nothing it read
//! beyond what the store itself holds. There is no page cache under the
//! journals — a write-through cache absorbs no write, and a replay that
//! reads each segment once never hits one.
//!
//! A [`StorageProfile`] owns the optional [`DiskScheduler`]: a bounded
//! request queue drained by dedicated I/O threads. The group committer
//! submits its per-shard fsyncs there (parallel across shards), and
//! with the scheduler on, the ticketed stores defer segment-rotation
//! fsyncs to the next committer pass — rotation no longer stalls the
//! append path (`server.wal.<flavor>.rotation_stall.ns` shows the
//! residual). Queue depth and dequeue stalls surface as `server.disk.*`.
//!
//! With `io_threads == 0` (the default profile) no scheduler runs:
//! fsyncs stay on the committer thread and rotations sync inline.

use std::io;
use std::path::Path;
use std::sync::Arc;
use uucs_pagecache::{DiskScheduler, OpKind, SchedObserver};
use uucs_telemetry::{metrics, Counter, Histogram};
use uucs_wal::{Io, StdIo};
#[cfg(test)]
use uucs_wal::MemIo;

/// The I/O backend every WAL-backed store journals through.
pub type StoreIo = Disk;

/// What a store journals to: real files — or, in this crate's tests,
/// an in-memory disk whose faults the test plans.
#[derive(Debug, Clone)]
pub enum Disk {
    /// The filesystem.
    Files(StdIo),
    /// `uucs_wal::MemIo`: volatile tails, planned faults, crashes.
    #[cfg(test)]
    Memory(MemIo),
}

macro_rules! on_disk {
    ($self:ident, $io:ident => $call:expr) => {
        match $self {
            Disk::Files($io) => $call,
            #[cfg(test)]
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
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        on_disk!(self, io => io.read_at(path, offset, len))
    }
}

/// The journals' [`StoreIo`]: real files.
pub fn plain_io() -> StoreIo {
    Disk::Files(StdIo::new())
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

/// How the server's storage engine is provisioned: the I/O thread
/// pool. The [`Default`] profile runs no scheduler.
#[derive(Debug, Clone, Default)]
pub struct StorageProfile {
    /// Ignored: the journals have no page cache. Still accepted (as is
    /// `uucs-server --cache-pages`) because the benchmark's engine
    /// configuration sets it.
    pub cache_pages: usize,
    /// Dedicated disk-scheduler threads. `0` disables the scheduler:
    /// fsyncs run on the committer thread and rotations sync inline.
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

    /// Builds the disk scheduler when `io_threads > 0`, with its queue
    /// instrumented under `server.disk.*`.
    pub fn scheduler(&self) -> Option<Arc<DiskScheduler>> {
        if self.io_threads == 0 {
            return None;
        }
        let sched = DiskScheduler::new(self.io_threads, 256);
        sched.set_observer(Arc::new(DiskTelemetry {
            queue_depth: metrics::histogram("server.disk.queue_depth"),
            stall_ns: metrics::histogram("server.disk.stall_ns"),
            service_ns: metrics::histogram("server.disk.service_ns"),
            ops: metrics::counter("server.disk.ops"),
        }));
        Some(Arc::new(sched))
    }
}
