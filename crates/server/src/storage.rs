//! Storage-engine composition: per-flavor ARC page caches and the
//! shared disk-scheduler thread pool under every WAL-backed store.
//!
//! The seed engine opened each journal directly over [`uucs_wal::StdIo`]
//! — every reshard migration, backfill, and compaction re-read its
//! segment files from the filesystem, and segment-rotation fsyncs rode
//! the verb-handler threads. A [`StorageProfile`] instead hands each
//! store family a [`StoreIo`]: the `uucs-pagecache` ARC cache wrapped
//! around `StdIo`, write-through (durability is byte-for-byte the plain
//! backend's) and read-cached (a second read of a segment hits memory;
//! a restart's one-pass replay reads each segment once and never does).
//! Hits, misses, evictions and write-backs surface per flavor as
//! `server.cache.<flavor>.*` counters.
//!
//! The profile also owns the optional [`DiskScheduler`]: a bounded
//! request queue drained by dedicated I/O threads. The group committer
//! submits its per-shard fsyncs there (parallel across shards), and
//! with the scheduler on, the stores defer segment-rotation fsyncs to
//! the next committer pass — rotation no longer stalls the append path
//! (`server.wal.<flavor>.rotation_stall.ns` shows the residual).
//! Queue depth and dequeue stalls surface as `server.disk.*`.
//!
//! With `cache_pages == 0` and `io_threads == 0` (the default profile)
//! every store opens in strict passthrough — the exact syscall shape of
//! the seed engine.

use std::io;
use std::path::Path;
use std::sync::Arc;
use uucs_pagecache::{
    CacheObserver, CachedIo, DiskScheduler, OpKind, SchedObserver, DEFAULT_PAGE_SIZE,
};
use uucs_telemetry::{metrics, Counter, Histogram};
use uucs_wal::{Io, StdIo};
#[cfg(test)]
use uucs_wal::MemIo;

/// The I/O backend every WAL-backed store journals through: the ARC
/// page cache over a [`Disk`]. [`plain_io`] (capacity 0, real files) is
/// a strict passthrough, so plain opens cost nothing extra.
pub type StoreIo = CachedIo<Disk>;

/// What a store's page cache sits on: real files — or, in this crate's
/// tests, an in-memory disk whose faults the test plans.
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

/// An uncached [`StoreIo`] — the seed engine's exact I/O shape.
pub fn plain_io() -> StoreIo {
    CachedIo::passthrough(Disk::Files(StdIo::new()))
}

/// Bridges one flavor's cache events into `server.cache.<flavor>.*`.
struct CacheTelemetry {
    hit: Counter,
    miss: Counter,
    evict: Counter,
    writeback: Counter,
}

impl CacheObserver for CacheTelemetry {
    fn on_hit(&mut self) {
        self.hit.inc();
    }
    fn on_miss(&mut self) {
        self.miss.inc();
    }
    fn on_evict(&mut self) {
        self.evict.inc();
    }
    fn on_writeback(&mut self) {
        self.writeback.inc();
    }
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

/// How the server's storage engine is provisioned: cache capacity per
/// store flavor and the I/O thread pool. The [`Default`] profile (no
/// cache, no scheduler) reproduces the seed engine exactly.
#[derive(Debug, Clone)]
pub struct StorageProfile {
    /// ARC cache capacity in pages, **per store flavor** (the four
    /// flavors each get their own cache, shared by that family's
    /// shards). `0` disables caching entirely.
    pub cache_pages: usize,
    /// Cache page size in bytes.
    pub page_size: usize,
    /// Dedicated disk-scheduler threads. `0` disables the scheduler:
    /// fsyncs run on the committer thread and rotations sync inline,
    /// as in the seed engine.
    pub io_threads: usize,
}

impl Default for StorageProfile {
    fn default() -> Self {
        StorageProfile {
            cache_pages: 0,
            page_size: DEFAULT_PAGE_SIZE,
            io_threads: 0,
        }
    }
}

impl StorageProfile {
    /// A profile with `cache_pages` of cache per flavor and the default
    /// page size.
    pub fn with_cache_pages(cache_pages: usize) -> Self {
        StorageProfile {
            cache_pages,
            ..Self::default()
        }
    }

    /// Builds one flavor's [`StoreIo`], with its cache counters
    /// registered under `server.cache.<flavor>.*`. Capacity 0 is a
    /// strict passthrough (no observer, no overhead).
    pub fn store_io(&self, flavor: &str) -> StoreIo {
        if self.cache_pages == 0 {
            return plain_io();
        }
        let io = CachedIo::new(Disk::Files(StdIo::new()), self.cache_pages, self.page_size);
        io.set_observer(Box::new(CacheTelemetry {
            hit: metrics::counter(&format!("server.cache.{flavor}.hit")),
            miss: metrics::counter(&format!("server.cache.{flavor}.miss")),
            evict: metrics::counter(&format!("server.cache.{flavor}.evict")),
            writeback: metrics::counter(&format!("server.cache.{flavor}.writeback")),
        }));
        io
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
