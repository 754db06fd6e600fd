//! # uucs-pagecache — ARC page cache + disk scheduler for the WAL-backed stores
//!
//! The server tier's durability path (`uucs-wal`) does raw, unbuffered
//! file I/O: every checkpoint load, replay, backfill, and compaction
//! scan re-reads its segments from the filesystem, and segment
//! rotation stalls ride the verb-handler threads. This crate is the
//! storage-engine layer underneath it:
//!
//! * [`ArcPolicy`] — the classic Adaptive Replacement Cache policy
//!   (T1/T2 resident lists, B1/B2 ghost lists, adaptive recency
//!   target), pure bookkeeping with pin-aware victim selection.
//! * [`PageCache`] — fixed-size page frames keyed by `(file-id,
//!   page-no)` over the policy: pin/unpin, dirty tracking, ordered
//!   write-back through the [`PageIo`] trait.
//! * [`CachedIo`] — the cache as a drop-in [`uucs_wal::Io`] backend:
//!   write-through (durability semantics of the wrapped backend are
//!   preserved bit-for-bit, so the `MemIo` fault-injection harness
//!   drives it unchanged), read-cached (warm replays and backfills are
//!   served from memory). Capacity 0 is a strict passthrough.
//! * [`DiskScheduler`] — a bounded request queue (read / write / fsync
//!   / rotate, completion [`Ticket`]s) serviced by a dedicated I/O
//!   thread pool, so group-commit fsyncs parallelize across shards and
//!   compaction leaves the handler threads alone.
//!
//! `uucs-wal` itself stays dependency-free: this crate depends on the
//! WAL's `Io` trait (one direction only), and the server composes the
//! two — the same borrowed-hook pattern `WalObserver` established.
//! Design notes live in the repository's `DESIGN.md` §5i.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod arc;
pub mod cache;
pub mod io;
pub mod sched;

pub use crate::arc::{Access, ArcPolicy};
pub use crate::cache::{CacheObserver, CacheStats, PageCache, PageIo, PageKey};
pub use crate::io::{CachedIo, IoPages, DEFAULT_PAGE_SIZE};
pub use crate::sched::{DiskScheduler, OpKind, SchedObserver, Ticket};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use uucs_harness::prelude::*;
    use uucs_wal::{Io, MemIo, SyncPolicy, Wal, WalConfig};

    fn cfg(segment_bytes: u64, sync: SyncPolicy) -> WalConfig {
        WalConfig {
            segment_bytes,
            sync,
        }
    }

    #[test]
    fn cached_io_round_trips_reads_and_appends() {
        let io = CachedIo::new(MemIo::new(), 64, 64);
        let p = Path::new("/d/a.log");
        io.create_dir_all(Path::new("/d")).unwrap();
        io.append(p, b"hello ").unwrap();
        io.append(p, b"world").unwrap();
        assert_eq!(io.read(p).unwrap(), b"hello world");
        assert_eq!(io.len(p).unwrap(), 11);
        assert_eq!(io.read_at(p, 6, 5).unwrap(), b"world");
        // Second read is served from resident pages.
        let miss_before = io.stats().misses;
        assert_eq!(io.read(p).unwrap(), b"hello world");
        assert_eq!(io.stats().misses, miss_before, "warm read: no new misses");
        assert!(io.stats().hits > 0);
    }

    #[test]
    fn cached_io_stays_coherent_across_truncate_rename_remove() {
        let io = CachedIo::new(MemIo::new(), 64, 64);
        let a = Path::new("/d/a.log");
        let b = Path::new("/d/b.log");
        io.append(a, &[7u8; 200]).unwrap();
        assert_eq!(io.read(a).unwrap().len(), 200);
        io.truncate(a, 100).unwrap();
        assert_eq!(io.read(a).unwrap(), vec![7u8; 100]);
        io.rename(a, b).unwrap();
        assert_eq!(io.read(b).unwrap(), vec![7u8; 100]);
        assert!(io.read(a).is_err());
        io.remove(b).unwrap();
        assert!(io.read(b).is_err());
    }

    #[test]
    fn passthrough_mode_is_transparent() {
        let mem = MemIo::new();
        let io = CachedIo::passthrough(mem.clone());
        assert!(!io.is_enabled());
        let p = Path::new("/d/a.log");
        io.append(p, b"data").unwrap();
        io.sync(p).unwrap();
        assert_eq!(io.stats(), CacheStats::default());
        assert_eq!(mem.contents(p).unwrap(), b"data");
    }

    /// A full WAL lifecycle (appends, rotations, snapshot, compaction,
    /// reopen) behaves identically over `CachedIo<MemIo>` and bare
    /// `MemIo` — the cache is invisible to the log's semantics.
    #[test]
    fn wal_over_cached_io_matches_uncached_wal() {
        type Replayed = (Vec<(u64, Vec<u8>)>, Option<Vec<u8>>);
        let run = |cached: bool| -> Replayed {
            let mem = MemIo::new();
            let open = |mem: &MemIo| {
                if cached {
                    let io = CachedIo::new(mem.clone(), 256, 128);
                    Wal::open(io, "/w", cfg(256, SyncPolicy::Always))
                } else {
                    Wal::open(CachedIo::passthrough(mem.clone()), "/w", cfg(256, SyncPolicy::Always))
                }
            };
            let (mut wal, _) = open(&mem).unwrap();
            for i in 0..40u32 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
            wal.snapshot(b"half-way").unwrap();
            for i in 40..60u32 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
            wal.compact().unwrap();
            drop(wal);
            let (wal, rec) = open(&mem).unwrap();
            let records = wal.replay().map(|r| r.unwrap()).collect();
            (records, rec.snapshot.map(|s| s.state))
        };
        assert_eq!(run(true), run(false));
    }

    /// The acceptance-criterion crash shape: records acked (synced)
    /// while the cache layer is in the write path survive a simulated
    /// power cut, byte-for-byte, when replayed through an *uncached*
    /// reopen — no acked byte lives only in cache memory.
    #[test]
    fn crash_during_cached_writes_loses_nothing_synced() {
        let mem = MemIo::new();
        let io = CachedIo::new(mem.clone(), 128, 128);
        let (mut wal, _) = Wal::open(io, "/w", cfg(512, SyncPolicy::Never)).unwrap();
        for i in 0..30u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        wal.sync().unwrap(); // the "ack" point
        for i in 30..40u32 {
            wal.append(&i.to_le_bytes()).unwrap(); // never synced
        }
        mem.crash(0.0);
        // Reopen WITHOUT the cache: what is on the simulated platter is
        // all that counts.
        let (wal, rec) = Wal::open(mem, "/w", cfg(512, SyncPolicy::Never)).unwrap();
        assert_eq!(rec.next_lsn, 30, "every synced record survived");
        let got: Vec<u32> = wal
            .replay()
            .map(|r| u32::from_le_bytes(r.unwrap().1.try_into().unwrap()))
            .collect();
        assert_eq!(got, (0..30).collect::<Vec<_>>());
    }

    /// Injected faults fire identically through the cache: the WAL
    /// breaks, the backend plays dead, and recovery after the crash
    /// sees exactly the synced prefix.
    #[test]
    fn fault_injection_passes_through_the_cache() {
        let mem = MemIo::new();
        let io = CachedIo::new(mem.clone(), 128, 128);
        let (mut wal, _) = Wal::open(io, "/w", WalConfig::default()).unwrap();
        wal.append(b"durable").unwrap();
        mem.set_fault(Some(uucs_wal::FaultPlan {
            fail_at: mem.mutating_ops(),
            short_write: Some(3),
        }));
        assert!(wal.append(b"torn-away").is_err());
        assert!(mem.is_dead());
        mem.crash(1.0);
        let (wal, rec) = Wal::open(mem, "/w", WalConfig::default()).unwrap();
        assert!(rec.torn_tail.is_some());
        assert_eq!(rec.next_lsn, 1);
        assert_eq!(
            wal.replay().map(|r| r.unwrap().1).collect::<Vec<_>>(),
            vec![b"durable".to_vec()]
        );
    }

    /// A `PageCache` over `IoPages<MemIo>`: dirty write-back lands in
    /// the fault-injection backend and survives its crash model.
    #[test]
    fn page_cache_write_back_through_memio_survives_crash_when_synced() {
        let mem = MemIo::new();
        let pages = IoPages::new(mem.clone(), 64);
        let file = pages.register("/p/data");
        let mut cache = PageCache::new(8, 64, pages);
        cache
            .put_dirty(PageKey { file, page: 0 }, vec![1u8; 64])
            .unwrap();
        cache
            .put_dirty(PageKey { file, page: 1 }, vec![2u8; 32])
            .unwrap();
        assert_eq!(cache.flush_file(file).unwrap(), 2);
        mem.sync(Path::new("/p/data")).unwrap();
        mem.crash(0.0);
        let survived = mem.contents(Path::new("/p/data")).unwrap();
        assert_eq!(survived.len(), 96);
        assert_eq!(&survived[..64], &[1u8; 64][..]);
        assert_eq!(&survived[64..], &[2u8; 32][..]);
    }

    proptest! {
        /// Property (satellite): cached and uncached store reads are
        /// byte-identical across random op sequences — appends of
        /// random sizes, interleaved whole-file and ranged reads,
        /// syncs, snapshots — and crash-replay agrees with an
        /// uncached replay of the same platter image.
        #[test]
        fn cached_reads_equal_uncached_reads_across_random_ops(
            seeds in prop::collection::vec(0u32..1_000_000, 1..40),
            seg in 128u64..1024,
        ) {
            // Decode each seed into (op kind, payload size, read offset).
            let ops: Vec<(u8, usize, usize)> = seeds
                .iter()
                .map(|s| ((s % 5) as u8, 1 + (s / 5 % 119) as usize, (s / 600 % 200) as usize))
                .collect();
            let mem = MemIo::new();
            let io = CachedIo::new(mem.clone(), 32, 128);
            let (mut wal, _) =
                Wal::open(io.clone(), "/w", cfg(seg, SyncPolicy::Never)).unwrap();
            let mut appended: u64 = 0;
            for (kind, size, at) in ops {
                match kind {
                    0 | 1 => {
                        let byte = (appended % 251) as u8;
                        wal.append(&vec![byte; size]).unwrap();
                        appended += 1;
                    }
                    2 => wal.sync().unwrap(),
                    3 => {
                        // Whole-file reads through the cache must match
                        // the backend exactly, for every live file.
                        for name in io.list(Path::new("/w")).unwrap() {
                            let p = Path::new("/w").join(&name);
                            prop_assert_eq!(io.read(&p).unwrap(), mem.read(&p).unwrap());
                        }
                    }
                    _ => {
                        for name in io.list(Path::new("/w")).unwrap() {
                            let p = Path::new("/w").join(&name);
                            let want = mem.read_at(&p, at as u64, size).unwrap();
                            let got = io.read_at(&p, at as u64, size).unwrap();
                            prop_assert_eq!(got, want);
                        }
                    }
                }
            }
            wal.sync().unwrap();
            let live: Vec<_> = wal.replay().map(|r| r.unwrap()).collect();
            drop(wal);
            // Crash-replay: the platter image replays identically with
            // and without the cache in front.
            mem.crash(0.0);
            let (wal_cached, _) = Wal::open(
                CachedIo::new(mem.clone(), 32, 128),
                "/w",
                cfg(seg, SyncPolicy::Never),
            )
            .unwrap();
            let cached: Vec<_> = wal_cached.replay().map(|r| r.unwrap()).collect();
            drop(wal_cached);
            let (wal_plain, _) =
                Wal::open(mem.clone(), "/w", cfg(seg, SyncPolicy::Never)).unwrap();
            let plain: Vec<_> = wal_plain.replay().map(|r| r.unwrap()).collect();
            prop_assert_eq!(&cached, &plain);
            prop_assert_eq!(cached, live);
        }
    }
}
