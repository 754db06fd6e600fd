//! # uucs-wal — a durable, crash-recoverable write-ahead log
//!
//! The paper's server "hot-syncs" discomfort records from clients in
//! the field and keeps them "on permanent storage in text files". A
//! whole-file rewrite per checkpoint loses every record uploaded since
//! the last rewrite if the server dies, and costs O(total records) per
//! sync. This crate gives the server stores the usual database answer:
//! an append-only, segment-rotated log with CRC32-framed records, a
//! snapshot+compaction path, and recovery that replays committed
//! records and truncates a torn tail instead of erroring.
//!
//! * [`Wal`] — the writer: `append(&[u8]) -> Lsn`, a configurable
//!   [`SyncPolicy`] (`Always` / `Never`), segment
//!   rotation at a size threshold, `snapshot()` / `compact()`, an
//!   iterator-based `replay()`, a one-pass `open_visiting()` that
//!   shows a [`Visitor`] every record as recovery validates it, and
//!   `visit_file()`, which shows one the open log a file at a time.
//! * [`WalReader`] — read-only validation + replay of a directory
//!   another process owns (no truncation, no writes).
//! * [`Io`] — the injectable storage backend: [`StdIo`] for real
//!   files, [`MemIo`] for deterministic fault injection (fail, short
//!   write, or crash at the Nth operation) so recovery is testable
//!   without a real power cut.
//!
//! File format, naming, and the recovery algorithm are documented in
//! the repository's `DESIGN.md` §5b; the durability contract is on
//! [`wal`](crate::wal) and [`SyncPolicy`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod crc;
pub mod frame;
pub mod io;
pub mod segment;
pub mod wal;

/// Log sequence number: the 0-based index of a record in the log.
pub type Lsn = u64;

pub use crate::io::{FaultPlan, Io, MemIo, StdIo};
pub use crate::wal::{
    has_state, Recovery, Replay, Snapshot, SyncPolicy, TornTail, Visitor, Wal, WalConfig,
    WalObserver, WalReader,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn cfg(segment_bytes: u64, sync: SyncPolicy) -> WalConfig {
        WalConfig {
            segment_bytes,
            sync,
        }
    }

    fn collect<I: Io>(replay: Replay<'_, I>) -> Vec<(Lsn, Vec<u8>)> {
        replay.map(|r| r.expect("replay item")).collect()
    }

    /// A recording observer sees every successful I/O class exactly as
    /// often as the log performed it — the contract the server's
    /// telemetry hookup builds on.
    #[test]
    fn observer_sees_appends_syncs_rotations_snapshots_compactions() {
        use std::sync::{Arc, Mutex};

        #[derive(Default, Debug)]
        struct Tally {
            appends: usize,
            append_bytes: usize,
            syncs: usize,
            rotations: usize,
            snapshots: usize,
            compactions: usize,
            removed: usize,
        }
        struct Recorder(Arc<Mutex<Tally>>);
        impl WalObserver for Recorder {
            fn on_append(&mut self, bytes: usize, _dur_ns: u64) {
                let mut t = self.0.lock().unwrap();
                t.appends += 1;
                t.append_bytes += bytes;
            }
            fn on_sync(&mut self, _dur_ns: u64) {
                self.0.lock().unwrap().syncs += 1;
            }
            fn on_rotate(&mut self) {
                self.0.lock().unwrap().rotations += 1;
            }
            fn on_snapshot(&mut self, _bytes: usize, _dur_ns: u64) {
                self.0.lock().unwrap().snapshots += 1;
            }
            fn on_compact(&mut self, removed: usize, _dur_ns: u64) {
                let mut t = self.0.lock().unwrap();
                t.compactions += 1;
                t.removed += removed;
            }
        }

        let tally = Arc::new(Mutex::new(Tally::default()));
        let io = MemIo::new();
        // Tiny segments force rotations; Always-sync makes sync counts
        // deterministic (one per append, plus rotation/snapshot syncs).
        let (mut wal, _) = Wal::open(io, "/w", cfg(96, SyncPolicy::Always)).unwrap();
        wal.set_observer(Box::new(Recorder(tally.clone())));
        for i in 0..6u8 {
            wal.append(&[i; 8]).unwrap();
        }
        wal.snapshot(b"state").unwrap();
        let removed = wal.compact().unwrap();
        assert!(removed > 0, "compaction had covered segments to drop");
        let t = tally.lock().unwrap();
        assert_eq!(t.appends, 6);
        assert!(t.append_bytes >= 6 * 8, "frame bytes include payloads");
        assert!(t.rotations > 0, "96-byte segments must have rotated");
        assert!(t.syncs >= t.appends, "Always policy syncs every append");
        assert_eq!(t.snapshots, 1);
        assert_eq!(t.compactions, 1);
        assert_eq!(t.removed, removed);
    }

    /// The tail past the checkpoint is the frame bytes a reopen would
    /// replay: kept by every append, reset by a checkpoint, and counted
    /// again by the open's scan — also when the first segment straddles
    /// the checkpoint because its compaction never ran.
    #[test]
    fn tail_bytes_count_the_frames_past_the_checkpoint() {
        use crate::frame::FRAME_HEADER;
        let io = MemIo::new();
        let reopen = || Wal::open(io.clone(), "/w", cfg(96, SyncPolicy::Always)).unwrap().0;
        let mut wal = reopen();
        assert_eq!((wal.tail_bytes(), wal.checkpoint_bytes()), (0, 0));
        let frames = |sizes: &[usize]| sizes.iter().map(|n| (FRAME_HEADER + n) as u64).sum::<u64>();
        for n in [8, 30, 5, 60] {
            wal.append(&vec![7; n]).unwrap();
        }
        assert_eq!(wal.tail_bytes(), frames(&[8, 30, 5, 60]));
        assert_eq!(reopen().tail_bytes(), frames(&[8, 30, 5, 60]));

        wal.snapshot(b"state").unwrap();
        assert_eq!((wal.tail_bytes(), wal.checkpoint_bytes()), (0, 5));
        wal.append(&[1; 12]).unwrap();
        // No compaction: the reopen skips the records the checkpoint folded.
        let mut wal = reopen();
        assert_eq!((wal.tail_bytes(), wal.checkpoint_bytes()), (frames(&[12]), 5));
        wal.append(&[2; 3]).unwrap();
        assert_eq!(wal.tail_bytes(), frames(&[12, 3]));
        wal.snapshot(b"longer state").unwrap();
        wal.compact().unwrap();
        assert_eq!((reopen().tail_bytes(), reopen().checkpoint_bytes()), (0, 12));
    }

    #[test]
    fn append_assigns_sequential_lsns_and_replays_in_order() {
        let io = MemIo::new();
        let (mut wal, rec) = Wal::open(io, "/w", WalConfig::default()).unwrap();
        assert_eq!(rec.next_lsn, 0);
        assert!(rec.snapshot.is_none());
        for i in 0..10u8 {
            assert_eq!(wal.append(&[i]).unwrap(), i as Lsn);
        }
        let got = collect(wal.replay());
        assert_eq!(got.len(), 10);
        for (i, (lsn, payload)) in got.iter().enumerate() {
            assert_eq!(*lsn, i as Lsn);
            assert_eq!(payload, &vec![i as u8]);
        }
    }

    #[test]
    fn reopen_recovers_everything_without_a_crash() {
        let io = MemIo::new();
        let (mut wal, _) = Wal::open(io.clone(), "/w", WalConfig::default()).unwrap();
        for i in 0..5u8 {
            wal.append(&[i, i]).unwrap();
        }
        drop(wal);
        let (wal, rec) = Wal::open(io, "/w", WalConfig::default()).unwrap();
        assert_eq!(rec.next_lsn, 5);
        assert_eq!(rec.records, 5);
        assert!(rec.torn_tail.is_none());
        assert_eq!(collect(wal.replay()).len(), 5);
        assert_eq!(wal.next_lsn(), 5);
    }

    #[test]
    fn rotation_splits_the_log_across_segments() {
        let io = MemIo::new();
        // Tiny segments: every ~2 records rotate.
        let (mut wal, _) = Wal::open(io.clone(), "/w", cfg(100, SyncPolicy::Always)).unwrap();
        for i in 0..20u8 {
            wal.append(&[i; 30]).unwrap();
        }
        assert!(
            wal.segment_count() > 3,
            "expected several segments, got {}",
            wal.segment_count()
        );
        // Everything still replays, across the rotation boundaries.
        let got = collect(wal.replay());
        assert_eq!(got.len(), 20);
        // And a reopen sees the same thing.
        drop(wal);
        let (wal, rec) = Wal::open(io, "/w", cfg(100, SyncPolicy::Always)).unwrap();
        assert_eq!(rec.records, 20);
        assert_eq!(collect(wal.replay()).len(), 20);
    }

    #[test]
    fn oversized_record_still_appends() {
        let io = MemIo::new();
        let (mut wal, _) = Wal::open(io, "/w", cfg(100, SyncPolicy::Always)).unwrap();
        wal.append(&[7u8; 500]).unwrap(); // larger than a whole segment
        wal.append(b"next").unwrap();
        let got = collect(wal.replay());
        assert_eq!(got[0].1.len(), 500);
        assert_eq!(got[1].1, b"next");
    }

    #[test]
    fn snapshot_and_compact_fold_the_prefix() {
        let io = MemIo::new();
        let (mut wal, _) = Wal::open(io.clone(), "/w", cfg(80, SyncPolicy::Always)).unwrap();
        for i in 0..12u8 {
            wal.append(&[i; 20]).unwrap();
        }
        let before = wal.segment_count();
        assert!(before > 1);
        let upto = wal.snapshot(b"folded-state-of-12").unwrap();
        assert_eq!(upto, 12);
        let removed = wal.compact().unwrap();
        assert!(removed >= before - 1, "compaction freed {removed} files");
        assert_eq!(wal.segment_count(), 1);
        // Records after the snapshot replay; records before are folded.
        wal.append(b"thirteen").unwrap();
        let got = collect(wal.replay());
        assert_eq!(got, vec![(12, b"thirteen".to_vec())]);
        // Reopen: snapshot state comes back, replay starts after it.
        drop(wal);
        let (wal, rec) = Wal::open(io, "/w", cfg(80, SyncPolicy::Always)).unwrap();
        let snap = rec.snapshot.expect("snapshot survives reopen");
        assert_eq!(snap.upto, 12);
        assert_eq!(snap.state, b"folded-state-of-12");
        assert_eq!(collect(wal.replay()), vec![(12, b"thirteen".to_vec())]);
    }

    #[test]
    fn repeated_snapshots_supersede_each_other() {
        let io = MemIo::new();
        let (mut wal, _) = Wal::open(io.clone(), "/w", WalConfig::default()).unwrap();
        wal.append(b"a").unwrap();
        wal.snapshot(b"s1").unwrap();
        wal.append(b"b").unwrap();
        wal.snapshot(b"s2").unwrap();
        wal.compact().unwrap();
        drop(wal);
        let (_, rec) = Wal::open(io, "/w", WalConfig::default()).unwrap();
        let snap = rec.snapshot.unwrap();
        assert_eq!(snap.upto, 2);
        assert_eq!(snap.state, b"s2");
        assert_eq!(rec.records, 0);
    }

    /// What a walk of an open log's files showed.
    #[derive(Default)]
    struct Seen {
        snapshot: Option<Snapshot>,
        records: Vec<(Lsn, Vec<u8>)>,
    }

    impl Visitor for Seen {
        fn snapshot(&mut self, snapshot: Snapshot) -> std::io::Result<()> {
            self.snapshot = Some(snapshot);
            Ok(())
        }

        fn record(&mut self, lsn: Lsn, payload: &[u8]) -> std::io::Result<()> {
            self.records.push((lsn, payload.to_vec()));
            Ok(())
        }
    }

    fn walk<I: Io>(wal: &Wal<I>) -> Seen {
        let mut seen = Seen::default();
        let mut file = 0;
        while wal.visit_file(file, &mut seen).unwrap() {
            file += 1;
        }
        seen
    }

    /// Walking an open log file by file shows the checkpoint and the
    /// records a reopen would, and nothing a failed append left behind.
    #[test]
    fn visiting_an_open_log_shows_what_a_reopen_would() {
        let io = MemIo::new();
        let config = cfg(80, SyncPolicy::Always);
        let (mut wal, _) = Wal::open(io.clone(), "/w", config).unwrap();
        assert!(walk(&wal).snapshot.is_none() && walk(&wal).records.is_empty());
        for i in 0..6u8 {
            wal.append(&[i; 20]).unwrap();
        }
        wal.snapshot(b"six").unwrap();
        wal.compact().unwrap();
        for i in 6..11u8 {
            wal.append(&[i; 20]).unwrap();
        }
        assert!(wal.segment_count() > 1);
        let seen = walk(&wal);
        assert_eq!(seen.snapshot.as_ref().map(|s| (s.upto, &s.state[..])), Some((6, &b"six"[..])));
        assert_eq!(seen.records, collect(wal.replay()));
        assert_eq!(seen.records.len(), 5);

        io.set_fault(Some(FaultPlan {
            fail_at: io.mutating_ops(),
            short_write: Some(7),
        }));
        assert!(wal.append(b"never-acked").is_err());
        io.crash(1.0);
        assert_eq!(walk(&wal).records, seen.records, "the torn frame is past next_lsn");
        drop(wal);
        let (reopened, recovery) = Wal::open(io, "/w", config).unwrap();
        assert_eq!(recovery.snapshot, seen.snapshot);
        assert_eq!(walk(&reopened).records, seen.records);
    }

    #[test]
    fn torn_tail_is_truncated_not_propagated() {
        let io = MemIo::new();
        let (mut wal, _) = Wal::open(io.clone(), "/w", WalConfig::default()).unwrap();
        wal.append(b"committed-1").unwrap();
        wal.append(b"committed-2").unwrap();
        // A crash mid-append: the failing write keeps 5 bytes.
        io.set_fault(Some(FaultPlan {
            fail_at: io.mutating_ops(),
            short_write: Some(5),
        }));
        assert!(wal.append(b"never-acked").is_err());
        io.crash(1.0); // even the torn bytes reach the platter
        let (wal, rec) = Wal::open(io, "/w", WalConfig::default()).unwrap();
        let torn = rec.torn_tail.expect("torn tail detected");
        assert_eq!(torn.lost_bytes, 5);
        assert_eq!(rec.next_lsn, 2);
        assert_eq!(
            collect(wal.replay()),
            vec![(0, b"committed-1".to_vec()), (1, b"committed-2".to_vec())]
        );
    }

    #[test]
    fn broken_wal_refuses_further_appends_until_reopen() {
        let io = MemIo::new();
        let (mut wal, _) = Wal::open(io.clone(), "/w", WalConfig::default()).unwrap();
        wal.append(b"ok").unwrap();
        io.set_fault(Some(FaultPlan {
            fail_at: io.mutating_ops(),
            short_write: None,
        }));
        assert!(wal.append(b"fails").is_err());
        io.crash(0.0);
        // The in-process handle stays poisoned even though the backend
        // recovered: building on a half-applied append could interleave
        // a fresh frame after a torn one.
        let err = wal.append(b"again").unwrap_err();
        assert!(err.to_string().contains("reopen"), "{err}");
        let (mut wal, _) = Wal::open(io, "/w", WalConfig::default()).unwrap();
        wal.append(b"again").unwrap();
    }

    #[test]
    fn mid_log_corruption_is_reported_not_truncated() {
        let io = MemIo::new();
        let (mut wal, _) = Wal::open(io.clone(), "/w", WalConfig::default()).unwrap();
        wal.append(b"aaaa").unwrap();
        wal.append(b"bbbb").unwrap();
        wal.append(b"cccc").unwrap();
        drop(wal);
        // Flip a bit inside the *middle* record's payload.
        let seg = Path::new("/w/0000000000000000.wal");
        let len = io.contents(seg).unwrap().len();
        io.corrupt(seg, len - 16);
        let err = Wal::open(io, "/w", WalConfig::default()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn torn_frame_in_non_final_segment_is_an_error() {
        let io = MemIo::new();
        let (mut wal, _) = Wal::open(io.clone(), "/w", cfg(80, SyncPolicy::Always)).unwrap();
        for i in 0..8u8 {
            wal.append(&[i; 20]).unwrap();
        }
        assert!(wal.segment_count() >= 2);
        drop(wal);
        // Chop the FIRST segment short: records it committed are gone,
        // and later segments prove they were committed.
        let first = Path::new("/w/0000000000000000.wal");
        let len = io.contents(first).unwrap().len() as u64;
        io.truncate(first, len - 3).unwrap();
        let err = Wal::open(io, "/w", WalConfig::default()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn crash_during_rotation_recovers_cleanly() {
        let io = MemIo::new();
        let (mut wal, _) = Wal::open(io.clone(), "/w", cfg(80, SyncPolicy::Always)).unwrap();
        for i in 0..4u8 {
            wal.append(&[i; 20]).unwrap();
        }
        // Fail the create() of the next rotated segment.
        io.set_fault(Some(FaultPlan {
            fail_at: io.mutating_ops() + 1, // sync-of-old, then create-of-new
            short_write: None,
        }));
        assert!(wal.append(&[9u8; 20]).is_err());
        io.crash(0.0);
        let (wal, rec) = Wal::open(io, "/w", cfg(80, SyncPolicy::Always)).unwrap();
        assert_eq!(rec.next_lsn, 4);
        assert_eq!(collect(wal.replay()).len(), 4);
    }

    #[test]
    fn crash_before_new_segment_header_is_flushed() {
        let io = MemIo::new();
        let (mut wal, _) = Wal::open(io.clone(), "/w", cfg(80, SyncPolicy::Never)).unwrap();
        for i in 0..4u8 {
            wal.append(&[i; 20]).unwrap();
        }
        wal.sync().unwrap();
        // Force a rotation whose header write stays volatile, then lose it.
        wal.append(&[9u8; 40]).unwrap();
        io.crash(0.0);
        let (wal, rec) = Wal::open(io.clone(), "/w", cfg(80, SyncPolicy::Never)).unwrap();
        // The headerless file is removed; the synced prefix replays.
        assert_eq!(rec.next_lsn, 4);
        assert_eq!(collect(wal.replay()).len(), 4);
        drop(wal);
    }

    /// Deferred rotation sync: rotations stop fsyncing inline, but a
    /// later `sync()` drains the closed-segment backlog oldest-first,
    /// so a crash after that sync loses nothing and recovery never sees
    /// a committed gap.
    #[test]
    fn deferred_rotation_sync_is_drained_by_the_next_sync() {
        let io = MemIo::new();
        let (mut wal, _) = Wal::open(io.clone(), "/w", cfg(80, SyncPolicy::Never)).unwrap();
        wal.set_deferred_rotation_sync(true);
        // Cross several rotation boundaries without ever syncing.
        for i in 0..10u8 {
            wal.append(&[i; 20]).unwrap();
        }
        assert!(wal.segment_count() > 2, "tiny segments must have rotated");
        wal.sync().unwrap();
        io.crash(0.0); // drop everything unsynced
        let (wal, rec) = Wal::open(io, "/w", cfg(80, SyncPolicy::Never)).unwrap();
        assert_eq!(rec.next_lsn, 10, "synced records survive across rotations");
        assert_eq!(collect(wal.replay()).len(), 10);
    }

    /// Without the drain, a crash between rotations under deferral
    /// would lose the unsynced tail — but never produce a mid-log gap:
    /// recovery still opens cleanly on the synced prefix.
    #[test]
    fn deferred_rotation_crash_before_sync_keeps_a_clean_prefix() {
        let io = MemIo::new();
        let (mut wal, _) = Wal::open(io.clone(), "/w", cfg(80, SyncPolicy::Never)).unwrap();
        wal.set_deferred_rotation_sync(true);
        for i in 0..4u8 {
            wal.append(&[i; 20]).unwrap();
        }
        wal.sync().unwrap();
        for i in 4..10u8 {
            wal.append(&[i; 20]).unwrap(); // rotations with deferred fsync
        }
        io.crash(0.0);
        let (wal, rec) = Wal::open(io, "/w", cfg(80, SyncPolicy::Never)).unwrap();
        assert_eq!(rec.next_lsn, 4, "only the explicitly synced prefix survives");
        assert_eq!(collect(wal.replay()).len(), 4);
    }

    /// The rotation-stall hook fires once per rotation, and deferral
    /// removes the fsync from the appending thread: under `Never` with
    /// deferral, no `on_sync` fires until the explicit `sync()` call,
    /// which then drains one fsync per closed segment plus the active.
    #[test]
    fn rotation_stall_hook_fires_and_deferral_moves_syncs_off_append() {
        use std::sync::{Arc, Mutex};
        #[derive(Default)]
        struct Tally {
            rotations: usize,
            stalls: usize,
            syncs: usize,
        }
        struct Recorder(Arc<Mutex<Tally>>);
        impl WalObserver for Recorder {
            fn on_rotate(&mut self) {
                self.0.lock().unwrap().rotations += 1;
            }
            fn on_rotate_stall(&mut self, _dur_ns: u64) {
                self.0.lock().unwrap().stalls += 1;
            }
            fn on_sync(&mut self, _dur_ns: u64) {
                self.0.lock().unwrap().syncs += 1;
            }
        }
        let tally = Arc::new(Mutex::new(Tally::default()));
        let io = MemIo::new();
        let (mut wal, _) = Wal::open(io, "/w", cfg(80, SyncPolicy::Never)).unwrap();
        wal.set_deferred_rotation_sync(true);
        wal.set_observer(Box::new(Recorder(tally.clone())));
        for i in 0..10u8 {
            wal.append(&[i; 20]).unwrap();
        }
        let rotations = wal.segment_count() - 1;
        {
            let t = tally.lock().unwrap();
            assert!(rotations > 0);
            assert_eq!(t.rotations, rotations);
            assert_eq!(t.stalls, rotations, "one stall sample per rotation");
            assert_eq!(t.syncs, 0, "deferral keeps fsync off the append path");
        }
        wal.sync().unwrap();
        let t = tally.lock().unwrap();
        assert_eq!(
            t.syncs,
            rotations + 1,
            "drain syncs every closed segment, then the active one"
        );
    }

    #[test]
    fn sync_policies_trade_durability_for_speed() {
        for (policy, expect_survivors) in [
            (SyncPolicy::Always, 7u64),
            (SyncPolicy::Never, 0),
        ] {
            let io = MemIo::new();
            let (mut wal, _) = Wal::open(io.clone(), "/w", cfg(1 << 20, policy)).unwrap();
            for i in 0..7u8 {
                wal.append(&[i]).unwrap();
            }
            io.crash(0.0); // nothing unsynced survives
            let (_, rec) = Wal::open(io, "/w", cfg(1 << 20, policy)).unwrap();
            assert_eq!(
                rec.next_lsn, expect_survivors,
                "{policy}: {} records survived",
                rec.next_lsn
            );
        }
    }

    #[test]
    fn reader_tolerates_torn_tail_without_writing() {
        let io = MemIo::new();
        let (mut wal, _) = Wal::open(io.clone(), "/w", WalConfig::default()).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        io.set_fault(Some(FaultPlan {
            fail_at: io.mutating_ops(),
            short_write: Some(4),
        }));
        assert!(wal.append(b"torn").is_err());
        io.crash(1.0);
        let seg = Path::new("/w/0000000000000000.wal");
        let len_before = io.contents(seg).unwrap().len();
        let reader = WalReader::open(io.clone(), "/w").unwrap();
        assert!(reader.torn_tail().is_some());
        assert_eq!(reader.record_count(), 2);
        let got: Vec<_> = reader.records().map(|r| r.unwrap().1).collect();
        assert_eq!(got, vec![b"one".to_vec(), b"two".to_vec()]);
        // Read-only: the torn bytes are still on disk afterwards.
        assert_eq!(io.contents(seg).unwrap().len(), len_before);
    }

    #[test]
    fn empty_payloads_and_interleaved_snapshot() {
        let io = MemIo::new();
        let (mut wal, _) = Wal::open(io.clone(), "/w", WalConfig::default()).unwrap();
        wal.append(b"").unwrap();
        wal.append(b"x").unwrap();
        wal.snapshot(b"two folded").unwrap();
        wal.append(b"").unwrap();
        drop(wal);
        let (wal, rec) = Wal::open(io, "/w", WalConfig::default()).unwrap();
        assert_eq!(rec.snapshot.as_ref().unwrap().upto, 2);
        assert_eq!(collect(wal.replay()), vec![(2, Vec::new())]);
    }

    #[test]
    fn has_state_tells_a_populated_journal_from_a_fresh_one() {
        let io = MemIo::new();
        assert!(!has_state(&io, Path::new("/w")), "no directory, no state");
        let (mut wal, _) = Wal::open(io.clone(), "/w", WalConfig::default()).unwrap();
        assert!(!has_state(&io, Path::new("/w")), "a bare segment header is not state");
        wal.append(b"").unwrap();
        assert!(has_state(&io, Path::new("/w")), "even an empty record is a frame to replay");
        wal.snapshot(b"").unwrap();
        wal.compact().unwrap();
        assert_eq!(collect(wal.replay()), vec![]);
        assert!(has_state(&io, Path::new("/w")), "a checkpoint is state to fold");
    }

    #[test]
    fn stdio_end_to_end() {
        let tmp = uucs_harness::TempDir::new("uucs-wal-e2e");
        let dir = tmp.join("wal");
        let (mut wal, _) = Wal::open(StdIo::new(), &dir, cfg(256, SyncPolicy::Never)).unwrap();
        for i in 0..50u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        wal.snapshot(b"25-and-counting").unwrap();
        for i in 50..60u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        wal.compact().unwrap();
        drop(wal);
        let (wal, rec) = Wal::open(StdIo::new(), &dir, WalConfig::default()).unwrap();
        assert_eq!(rec.snapshot.as_ref().unwrap().upto, 50);
        assert_eq!(rec.snapshot.as_ref().unwrap().state, b"25-and-counting");
        let got = collect(wal.replay());
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].0, 50);
        assert_eq!(got[9].1, 59u32.to_le_bytes());
    }
}
