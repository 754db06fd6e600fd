//! Crash-recovery property tests: an injected fault at an arbitrary
//! mutating operation, followed by a power loss that keeps an arbitrary
//! fraction of the unsynced tail, must never leave the log in a state
//! [`Wal::open`] refuses to recover — and under [`SyncPolicy::Always`]
//! every acknowledged append must survive.

use std::path::Path;
use uucs_harness::prelude::*;
use uucs_wal::{FaultPlan, Io, Lsn, MemIo, Snapshot, SyncPolicy, Visitor, Wal, WalConfig};

/// Deterministic payload for the `i`th append: varied length (so some
/// runs rotate segments, some don't) and content derived from the index
/// (so replay mismatches are caught byte-for-byte).
fn payload(i: u64, spice: u64) -> Vec<u8> {
    let len = ((i * 7 + spice) % 61) as usize;
    let mut p = format!("rec-{i:04}-").into_bytes();
    p.extend((0..len).map(|j| b'a' + ((i as usize + j) % 26) as u8));
    p
}

/// Appends up to `n` records, stopping at the first error (the injected
/// fault). Returns how many appends were acknowledged.
fn drive(wal: &mut Wal<MemIo>, n: u64, spice: u64) -> u64 {
    for i in 0..n {
        if wal.append(&payload(i, spice)).is_err() {
            return i;
        }
    }
    n
}

/// Recovers the directory and checks that the replayed records are an
/// exact LSN-ordered prefix of the attempted append sequence. Returns
/// the number of replayed records.
fn check_recovery(
    io: &MemIo,
    dir: &Path,
    config: WalConfig,
    spice: u64,
    attempted: u64,
) -> Result<u64, uucs_harness::prop::CaseError> {
    let opened = Wal::open(io.clone(), dir, config);
    prop_assert!(opened.is_ok(), "recovery errored: {:?}", opened.err());
    let (wal, recovery) = opened.unwrap();
    prop_assert_eq!(recovery.snapshot, None);
    let mut replayed = 0u64;
    for item in wal.replay() {
        prop_assert!(item.is_ok(), "replay errored: {:?}", item.err());
        let (lsn, bytes) = item.unwrap();
        prop_assert_eq!(lsn, replayed);
        prop_assert_eq!(bytes, payload(lsn, spice));
        replayed += 1;
    }
    prop_assert_eq!(recovery.records, replayed);
    prop_assert_eq!(recovery.next_lsn, replayed);
    prop_assert!(
        replayed <= attempted,
        "replayed {replayed} of only {attempted} attempts"
    );
    Ok(replayed)
}

/// Everything a one-pass open shows its visitor, kept.
#[derive(Default)]
struct Seen {
    snapshot: Option<Snapshot>,
    records: Vec<(Lsn, Vec<u8>)>,
}

impl Visitor for Seen {
    fn snapshot(&mut self, snapshot: Snapshot) -> std::io::Result<()> {
        assert!(self.snapshot.is_none() && self.records.is_empty(), "snapshot comes first, once");
        self.snapshot = Some(snapshot);
        Ok(())
    }

    fn record(&mut self, lsn: Lsn, payload: &[u8]) -> std::io::Result<()> {
        self.records.push((lsn, payload.to_vec()));
        Ok(())
    }
}

/// Every file under `dir` with its bytes, in name order.
fn image(io: &MemIo, dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut names = io.list(dir).unwrap_or_default();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let bytes = io.contents(&dir.join(&name)).expect("listed file exists");
            (name, bytes)
        })
        .collect()
}

proptest! {
    // Cheap cases, many outcomes (clean, torn, folded, refused): run
    // enough of them to meet each kind often.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The one-pass open is the two-pass one: whatever a fault, a crash
    /// and then a flipped bit or a chopped file leave behind — a clean
    /// log, a torn tail, a snapshot with or without the segments it
    /// folded, or damage recovery must refuse — `Wal::open_visiting`
    /// shows its visitor exactly the snapshot `Wal::open` returns and
    /// exactly the records `Wal::replay` then yields, reports the same
    /// `Recovery`, leaves the same bytes on disk (volatile and durable),
    /// and refuses with the same error.
    #[test]
    fn one_pass_open_equals_open_then_replay(
        n in 1u64..40,
        fail_at in 0u64..160,
        short_raw in 0usize..24,
        frac_pct in 0u32..101,
        spice in 0u64..1000,
        snap_at in 0u64..80,
        damage in 0u64..4,
        place in 0u64..1_000_000,
    ) {
        let io = MemIo::new();
        let dir = Path::new("/wal");
        let sync = if spice % 2 == 0 { SyncPolicy::Always } else { SyncPolicy::Never };
        let config = WalConfig { segment_bytes: 256, sync };
        let (mut wal, _) = Wal::open(io.clone(), dir, config).unwrap();
        io.set_fault(Some(FaultPlan {
            fail_at,
            short_write: (short_raw < 16).then_some(short_raw),
        }));
        // Appends with a checkpoint part-way (compacted or not), until
        // the fault fires.
        for i in 0..n {
            if i == snap_at / 2 {
                let state = format!("state-of-{i}-{spice}");
                if wal.snapshot(state.as_bytes()).is_err() {
                    break;
                }
                if snap_at % 2 == 1 && wal.compact().is_err() {
                    break;
                }
            }
            if wal.append(&payload(i, spice)).is_err() {
                break;
            }
        }
        drop(wal);
        io.crash(frac_pct as f64 / 100.0);
        // Then, half the time, damage no crash can cause.
        let files = image(&io, dir);
        if damage >= 2 && !files.is_empty() {
            let (name, bytes) = &files[place as usize % files.len()];
            let offset = place as usize / files.len() % bytes.len().max(1);
            let path = dir.join(name);
            if damage == 2 {
                io.corrupt(&path, offset);
            } else {
                io.truncate(&path, offset as u64).unwrap();
                io.sync(&path).unwrap();
            }
        }

        let (two_pass, one_pass) = (io.fork(), io.fork());
        let reference = Wal::open(two_pass.clone(), dir, config).map(|(wal, recovery)| {
            let records: Vec<(Lsn, Vec<u8>)> = wal
                .replay()
                .map(|item| item.expect("an opened log replays"))
                .collect();
            (recovery, records)
        });
        let mut seen = Seen::default();
        let visited = Wal::open_visiting(one_pass.clone(), dir, config, &mut seen);
        match (reference, visited) {
            (Ok((want, records)), Ok((_, got))) => {
                prop_assert_eq!(&seen.snapshot, &want.snapshot);
                prop_assert_eq!(&seen.records, &records);
                prop_assert!(got.snapshot.is_none(), "the visitor was handed the snapshot");
                prop_assert_eq!(&got.torn_tail, &want.torn_tail);
                prop_assert_eq!(
                    (got.segments, got.records, got.next_lsn),
                    (want.segments, want.records, want.next_lsn)
                );
            }
            (Err(want), Err(got)) => {
                prop_assert_eq!(got.kind(), want.kind());
                prop_assert_eq!(got.to_string(), want.to_string());
                // A refusal touches nothing.
                prop_assert_eq!(image(&one_pass, dir), image(&io, dir));
            }
            (want, got) => prop_assert!(
                false,
                "two passes: {:?}, one pass: {:?}",
                want.map(|(r, _)| r),
                got.map(|(_, r)| r)
            ),
        }
        // Same bytes on disk, and the same bytes durable.
        prop_assert_eq!(image(&one_pass, dir), image(&two_pass, dir));
        one_pass.crash(0.0);
        two_pass.crash(0.0);
        prop_assert_eq!(image(&one_pass, dir), image(&two_pass, dir));
    }
}

proptest! {
    /// Under `SyncPolicy::Always`, an acknowledged append is durable:
    /// whatever operation the fault hits and however much of the page
    /// cache the crash flushes, recovery succeeds and replays at least
    /// every acknowledged record — plus at most the one in-flight append
    /// whose frame happened to reach the disk whole.
    #[test]
    fn acknowledged_appends_survive_any_crash(
        n in 1u64..40,
        fail_at in 0u64..100,
        short_raw in 0usize..24,
        frac_pct in 0u32..101,
        spice in 0u64..1000,
    ) {
        let io = MemIo::new();
        let dir = Path::new("/wal");
        let config = WalConfig { segment_bytes: 256, sync: SyncPolicy::Always };
        let (mut wal, _) = Wal::open(io.clone(), dir, config).unwrap();
        io.set_fault(Some(FaultPlan {
            fail_at,
            short_write: (short_raw < 16).then_some(short_raw),
        }));
        let acked = drive(&mut wal, n, spice);
        io.crash(frac_pct as f64 / 100.0);

        let replayed = check_recovery(&io, dir, config, spice, n)?;
        prop_assert!(
            replayed >= acked,
            "lost acknowledged records: acked {acked}, replayed {replayed}"
        );
        prop_assert!(
            replayed <= acked + 1,
            "more than the in-flight record appeared: acked {acked}, replayed {replayed}"
        );
    }

    /// Under `SyncPolicy::Never` (the group-commit configuration: the
    /// committer, not the append, owns the fsync) nothing unsynced is
    /// promised to survive, but recovery still always succeeds and what
    /// survives is an exact prefix of the append sequence — never a
    /// gap, never a reorder.
    #[test]
    fn unsynced_appends_recover_to_an_exact_prefix(
        n in 1u64..40,
        fail_at in 0u64..100,
        short_raw in 0usize..24,
        frac_pct in 0u32..101,
        spice in 0u64..1000,
    ) {
        let io = MemIo::new();
        let dir = Path::new("/wal");
        let config = WalConfig { segment_bytes: 256, sync: SyncPolicy::Never };
        let (mut wal, _) = Wal::open(io.clone(), dir, config).unwrap();
        io.set_fault(Some(FaultPlan {
            fail_at,
            short_write: (short_raw < 16).then_some(short_raw),
        }));
        let acked = drive(&mut wal, n, spice);
        io.crash(frac_pct as f64 / 100.0);

        let replayed = check_recovery(&io, dir, config, spice, n)?;
        prop_assert!(
            replayed <= acked + 1,
            "more than the in-flight record appeared: acked {acked}, replayed {replayed}"
        );
    }

    /// A torn final frame is truncated, never reported as an error, and
    /// recovery is idempotent: a second open of the healed directory
    /// finds no torn tail and replays the same records.
    #[test]
    fn torn_tail_heals_idempotently(
        n in 1u64..30,
        cut in 1usize..8,
        spice in 0u64..1000,
    ) {
        let io = MemIo::new();
        let dir = Path::new("/wal");
        let config = WalConfig { segment_bytes: 4096, sync: SyncPolicy::Always };
        let (mut wal, _) = Wal::open(io.clone(), dir, config).unwrap();
        let acked = drive(&mut wal, n, spice);
        prop_assert_eq!(acked, n);
        prop_assert_eq!(wal.segment_count(), 1);
        // Tear the tail: one more append whose frame reaches the disk
        // whole (fault after write, crash flushes the cache), then cut
        // the durable image mid-frame — the torn-but-partially-flushed
        // residue of an interrupted append.
        let extra = payload(n, spice);
        let frame_len = 8 + extra.len();
        prop_assume!(cut < frame_len);
        io.set_fault(Some(FaultPlan { fail_at: io.mutating_ops(), short_write: None }));
        let _ = wal.append(&extra);
        io.crash(1.0);
        let seg = dir.join(format!("{:016x}.wal", 0));
        let whole = io.contents(&seg).expect("first segment exists");
        let torn_len = whole.len() - cut;
        {
            use uucs_wal::Io;
            io.truncate(&seg, torn_len as u64).unwrap();
            io.sync(&seg).unwrap();
        }

        let (wal2, rec2) = Wal::open(io.clone(), dir, config).unwrap();
        let torn = rec2.torn_tail.expect("torn tail must be detected");
        prop_assert_eq!(torn.kept_bytes + torn.lost_bytes, torn_len as u64);
        prop_assert_eq!(rec2.records, n);
        drop(wal2);

        let (wal3, rec3) = Wal::open(io.clone(), dir, config).unwrap();
        prop_assert!(rec3.torn_tail.is_none(), "second open found {:?}", rec3.torn_tail);
        prop_assert_eq!(rec3.records, n);
        prop_assert_eq!(wal3.replay().count() as u64, n);
    }

    /// Several crash/recover/append cycles in a row: the log stays an
    /// exact prefix-consistent record of every acknowledged append.
    #[test]
    fn repeated_crashes_compose(
        rounds in prop::collection::vec(0u64..1_000_000, 1..5),
        spice in 0u64..1000,
    ) {
        let io = MemIo::new();
        let dir = Path::new("/wal");
        let config = WalConfig { segment_bytes: 256, sync: SyncPolicy::Always };
        let mut durable = 0u64; // lower bound on surviving records
        let mut written = 0u64; // upper bound (incl. in-flight)
        for &round in &rounds {
            // Decode one draw into this round's shape.
            let n = round % 12 + 1;
            let fail_offset = (round / 12) % 40;
            let frac_pct = (round / 480) % 101;
            let opened = Wal::open(io.clone(), dir, config);
            prop_assert!(opened.is_ok(), "recovery errored: {:?}", opened.err());
            let (mut wal, recovery) = opened.unwrap();
            let base = recovery.next_lsn;
            prop_assert!(base >= durable, "round lost records: {base} < {durable}");
            prop_assert!(base <= written, "round invented records: {base} > {written}");
            io.set_fault(Some(FaultPlan {
                fail_at: io.mutating_ops() + fail_offset,
                short_write: None,
            }));
            let mut acked = 0u64;
            for i in 0..n {
                if wal.append(&payload(base + i, spice)).is_err() {
                    break;
                }
                acked += 1;
            }
            durable = base + acked;
            written = (base + acked + u64::from(acked < n)).max(written);
            io.crash(frac_pct as f64 / 100.0);
        }
        let (wal, recovery) = Wal::open(io.clone(), dir, config).unwrap();
        prop_assert!(recovery.next_lsn >= durable);
        prop_assert!(recovery.next_lsn <= written);
        for (i, item) in wal.replay().enumerate() {
            prop_assert!(item.is_ok(), "replay errored: {:?}", item.err());
            let (lsn, bytes) = item.unwrap();
            prop_assert_eq!(lsn, i as u64);
            prop_assert_eq!(bytes, payload(lsn, spice));
        }
    }
}
