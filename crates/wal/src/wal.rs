//! The write-ahead log: append, rotate, recover, snapshot, compact.
//!
//! # Durability contract
//!
//! * Under [`SyncPolicy::Always`], `append` returns only after the
//!   record's frame is on stable storage: every acknowledged append
//!   survives a crash.
//! * Under [`SyncPolicy::Never`], the log is only as durable as the
//!   page cache; rotation and snapshots still sync their own files.
//!
//! # Recovery policy
//!
//! Replaying a directory distinguishes an *interrupted append* from
//! *corruption* (see [`frame`](crate::frame)):
//!
//! * A torn frame at the tail of the **final** segment is the expected
//!   residue of a crash — [`Wal::open`] silently truncates it and
//!   reports it in [`Recovery::torn_tail`]. A final segment cut short
//!   before its header is complete is removed the same way.
//! * A bad frame **anywhere else** — mid-segment checksum mismatch, a
//!   torn frame in a non-final segment, a gap in the LSN chain — is
//!   reported as `InvalidData` and recovery refuses to proceed, because
//!   committed data is missing rather than merely unflushed.
//!
//! Recovery is one pass over the directory: each segment is read and
//! checksummed once, and [`Wal::open_visiting`] shows a [`Visitor`] the
//! checkpoint and every record past it as they are validated, so a
//! store rebuilds itself from the very buffers recovery checks. Only
//! when the whole pass has succeeded is anything on disk changed.

use crate::frame::{encode_frame, FrameError, FrameScanner, FRAME_HEADER};
use crate::io::Io;
use crate::segment::{
    check_segment_header, corrupt, decode_snapshot, encode_snapshot, parse_segment_name,
    parse_snapshot_name, segment_header, segment_name, snapshot_name, SEGMENT_HEADER,
};
use crate::Lsn;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Observation hooks for a [`Wal`]'s I/O: appends, fsyncs, rotations,
/// snapshots, compactions, each with the bytes involved and the wall
/// time the underlying I/O took.
///
/// Every method has a no-op default, so observers implement only what
/// they chart. The WAL itself stays dependency-free: a telemetry stack
/// (or a test) plugs in via [`Wal::set_observer`], and when no observer
/// is installed no clock is ever read — observation costs nothing
/// unless asked for.
///
/// Hooks fire only for I/O that *succeeded*; a failed operation marks
/// the log broken and reports through its `Err` instead.
///
/// `Send + Sync` because a `Wal` travels with its store behind the
/// server's shared locks.
pub trait WalObserver: Send + Sync {
    /// One record's frame was appended: `bytes` on disk, in `dur_ns`.
    fn on_append(&mut self, bytes: usize, dur_ns: u64) {
        let _ = (bytes, dur_ns);
    }
    /// The active segment was fsynced in `dur_ns`.
    fn on_sync(&mut self, dur_ns: u64) {
        let _ = dur_ns;
    }
    /// The active segment was closed and a fresh one started.
    fn on_rotate(&mut self) {}
    /// Rotation held the appending thread for `dur_ns` of wall time.
    /// With deferred rotation sync (see
    /// [`Wal::set_deferred_rotation_sync`]) this is just the
    /// create+header cost; otherwise it includes the closing segment's
    /// fsync.
    fn on_rotate_stall(&mut self, dur_ns: u64) {
        let _ = dur_ns;
    }
    /// A checkpoint of `bytes` of state was published in `dur_ns`.
    fn on_snapshot(&mut self, bytes: usize, dur_ns: u64) {
        let _ = (bytes, dur_ns);
    }
    /// Compaction removed `removed` files in `dur_ns`.
    fn on_compact(&mut self, removed: usize, dur_ns: u64) {
        let _ = (removed, dur_ns);
    }
}

/// The observer slot: `Option<Box<dyn ...>>` behind a newtype so `Wal`
/// can keep deriving `Debug`.
struct ObserverSlot(Option<Box<dyn WalObserver>>);

impl std::fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "ObserverSlot(installed)"
        } else {
            "ObserverSlot(none)"
        })
    }
}

impl ObserverSlot {
    /// Starts timing iff someone is listening.
    fn t0(&self) -> Option<Instant> {
        self.0.is_some().then(Instant::now)
    }

    fn elapsed_ns(t0: Option<Instant>) -> u64 {
        t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0)
    }
}

/// When appended frames are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every append; an acknowledged record is durable.
    Always,
    /// Never `fsync` on append; fastest, page-cache durability only.
    Never,
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::Always => f.write_str("always"),
            SyncPolicy::Never => f.write_str("never"),
        }
    }
}

/// Tunables for a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Rotate to a new segment once the active one exceeds this size.
    pub segment_bytes: u64,
    /// The sync policy for appends.
    pub sync: SyncPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 1 << 20,
            sync: SyncPolicy::Always,
        }
    }
}

/// A recovered checkpoint: the folded state covering `lsn < upto`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Records with `lsn < upto` are folded into `state`.
    pub upto: Lsn,
    /// The caller-defined serialized state.
    pub state: Vec<u8>,
}

/// An interrupted append found (and healed) during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// The segment file that carried the torn frame.
    pub segment: String,
    /// File offset the segment was (or should be) truncated to.
    pub kept_bytes: u64,
    /// Bytes of interrupted frame that were discarded.
    pub lost_bytes: u64,
    /// The scanner's description of what was missing.
    pub reason: &'static str,
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct Recovery {
    /// The newest valid checkpoint, if any. Ownership of the state
    /// bytes passes to the caller, which folds them before replaying.
    /// `None` from [`Wal::open_visiting`]: its visitor was handed it.
    pub snapshot: Option<Snapshot>,
    /// The torn tail that was truncated away, if any.
    pub torn_tail: Option<TornTail>,
    /// Live segment files after recovery.
    pub segments: usize,
    /// Records available to [`Wal::replay`] (those past the snapshot).
    pub records: u64,
    /// The LSN the next append will receive.
    pub next_lsn: Lsn,
}

/// What a one-pass open shows its caller: the newest valid checkpoint,
/// then every record past it in LSN order — each exactly once, each
/// already checksum- and chain-checked, each *borrowed* from the buffer
/// of the segment being validated (one segment of a journal is in
/// memory at a time). That is all a store needs to rebuild itself, so
/// recovery reads and checks every byte once instead of validating the
/// directory and then re-reading it through [`Wal::replay`].
///
/// An error from either method ends the open with that error. So does a
/// defect the scan finds *later* in the log: a visitor may have been
/// shown a prefix of a log that is then refused (mid-log corruption in
/// a later segment, a chain gap), and whatever it built from that
/// prefix must be dropped with the error. Nothing on disk has been
/// touched at that point — the open heals the directory (stale `.tmp`
/// files, headerless tails, the torn tail) only after the whole pass
/// has succeeded.
pub trait Visitor {
    /// The newest valid checkpoint; called at most once, before any
    /// record. Ownership passes so the state can be dropped as soon as
    /// it is folded.
    fn snapshot(&mut self, snapshot: Snapshot) -> io::Result<()>;

    /// One record past the checkpoint. `payload` is only valid for the
    /// duration of the call.
    fn record(&mut self, lsn: Lsn, payload: &[u8]) -> io::Result<()>;
}

/// The visitor behind [`Wal::open`] and [`WalReader::open`]: keeps the
/// checkpoint for the caller and lets the records go by — they stay on
/// disk for [`Wal::replay`].
#[derive(Default)]
struct KeepSnapshot(Option<Snapshot>);

impl Visitor for KeepSnapshot {
    fn snapshot(&mut self, snapshot: Snapshot) -> io::Result<()> {
        self.0 = Some(snapshot);
        Ok(())
    }

    fn record(&mut self, _lsn: Lsn, _payload: &[u8]) -> io::Result<()> {
        Ok(())
    }
}

/// True when opening `dir` would have anything to fold or replay: a
/// checkpoint file, or a segment with bytes past its header. A listing
/// and a stat per file — nothing is read — so a caller can tell a
/// populated journal from a fresh one before deciding how to open many
/// of them. A directory that cannot be listed holds nothing.
pub fn has_state<I: Io>(io: &I, dir: &Path) -> bool {
    io.list(dir).is_ok_and(|names| {
        names.iter().any(|name| {
            parse_snapshot_name(name).is_some()
                || (parse_segment_name(name).is_some()
                    && io
                        .len(&dir.join(name))
                        .is_ok_and(|len| len > SEGMENT_HEADER as u64))
        })
    })
}

// ---------------------------------------------------------------------------
// Directory scan (shared by Wal::open_visiting and WalReader::open)
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct SegMeta {
    name: String,
    first: Lsn,
    count: u64,
    /// Absolute offset of the end of the last good frame.
    good_end: u64,
    file_len: u64,
}

#[derive(Debug)]
struct Scan {
    /// Records below this are covered by the checkpoint the visitor was
    /// handed (0 without one).
    snapshot_upto: Lsn,
    /// Whether the visitor was handed a checkpoint.
    checkpoint: bool,
    /// The size of that checkpoint's state (0 without one).
    checkpoint_bytes: u64,
    segments: Vec<SegMeta>,
    torn: Option<TornTail>,
    tmp_files: Vec<String>,
    /// Trailing segments with no complete header: no records, remove
    /// them. Deferred rotation sync can leave several (each unsynced
    /// rotation abandons a headerless file), not just one.
    headerless_tails: Vec<String>,
    next_lsn: Lsn,
    replay_records: u64,
    /// Frame bytes of the records past the checkpoint.
    tail_bytes: u64,
}

/// Validates a WAL directory in one pass — every segment read once,
/// every frame checksummed once — showing `visitor` the checkpoint and
/// then each record past it as it is validated. Touches nothing on
/// disk.
fn scan_dir<I: Io>(io: &I, dir: &Path, visitor: &mut dyn Visitor) -> io::Result<Scan> {
    let names = io.list(dir)?;
    let mut seg_names: Vec<(Lsn, String)> = Vec::new();
    let mut snap_names: Vec<(Lsn, String)> = Vec::new();
    let mut tmp_files = Vec::new();
    for name in names {
        if let Some(first) = parse_segment_name(&name) {
            seg_names.push((first, name));
        } else if let Some(upto) = parse_snapshot_name(&name) {
            snap_names.push((upto, name));
        } else if name.ends_with(".tmp") {
            tmp_files.push(name);
        }
    }
    seg_names.sort();
    snap_names.sort();

    // Newest snapshot that validates wins; older ones are compaction
    // leftovers, invalid ones are skipped (the chain check below
    // catches the case where skipping one loses committed records).
    let mut base = 0;
    let (mut checkpoint, mut checkpoint_bytes) = (false, 0);
    for (upto, name) in snap_names.iter().rev() {
        if let Ok(state) = io.read(&dir.join(name)).and_then(|d| decode_snapshot(&d, *upto)) {
            (base, checkpoint, checkpoint_bytes) = (*upto, true, state.len() as u64);
            visitor.snapshot(Snapshot { upto: *upto, state })?;
            break;
        }
    }

    // Crash residue is only tolerated at the very end of the log: a
    // headerless segment is removable iff every later segment is also
    // headerless (deferred rotation sync can abandon a whole run of
    // them), and a torn frame is healable iff nothing but headerless
    // residue follows it.
    let lens: Vec<u64> = seg_names
        .iter()
        .map(|(_, name)| io.len(&dir.join(name)))
        .collect::<io::Result<_>>()?;
    let only_residue_after =
        |i: usize| lens[i + 1..].iter().all(|&l| l < SEGMENT_HEADER as u64);

    let mut segments: Vec<SegMeta> = Vec::new();
    let mut torn = None;
    let mut headerless_tails = Vec::new();
    let mut replay_records = 0u64;
    let mut tail_bytes = 0u64;
    for (i, (first, name)) in seg_names.iter().enumerate() {
        let is_last = only_residue_after(i);
        let data = io.read(&dir.join(name))?;
        if data.len() < SEGMENT_HEADER {
            if is_last {
                // Crash between creating the segment and flushing its
                // header: it never held a record.
                headerless_tails.push(name.clone());
                continue;
            }
            return Err(corrupt(format!(
                "segment {name} is truncated mid-header but later segments exist"
            )));
        }
        check_segment_header(&data, *first)
            .map_err(|e| corrupt(format!("segment {name}: {e}")))?;

        // Chain check: this segment must start exactly where the
        // previous one ended (or at/below the snapshot bound for the
        // first).
        let expected = segments
            .last()
            .map(|s: &SegMeta| s.first + s.count)
            .unwrap_or(base);
        match (*first).cmp(&expected) {
            std::cmp::Ordering::Greater if segments.is_empty() => {
                return Err(corrupt(format!(
                    "records {expected}..{first} are missing (no segment or snapshot covers them)"
                )));
            }
            std::cmp::Ordering::Less if segments.is_empty() => {
                // First segment may straddle or predate the snapshot.
            }
            std::cmp::Ordering::Equal => {}
            _ => {
                return Err(corrupt(format!(
                    "segment chain gap: {name} starts at {first}, expected {expected}"
                )));
            }
        }

        let mut scanner = FrameScanner::new(&data[SEGMENT_HEADER..]);
        let mut count = 0u64;
        let mut bad = None;
        for item in scanner.by_ref() {
            match item {
                Ok((_, payload)) => {
                    // The first segment may straddle or predate the
                    // checkpoint; what it folded is not shown again.
                    let lsn = first + count;
                    if lsn >= base {
                        visitor.record(lsn, payload)?;
                        tail_bytes += (FRAME_HEADER + payload.len()) as u64;
                    }
                    count += 1;
                }
                Err(e) => {
                    bad = Some(e);
                    break;
                }
            }
        }
        let good_end = (SEGMENT_HEADER + scanner.offset()) as u64;
        match bad {
            None => {}
            Some(FrameError::Torn { reason, .. }) if is_last => {
                torn = Some(TornTail {
                    segment: name.clone(),
                    kept_bytes: good_end,
                    lost_bytes: data.len() as u64 - good_end,
                    reason,
                });
            }
            Some(FrameError::Torn { offset, reason }) => {
                return Err(corrupt(format!(
                    "segment {name}: torn frame at offset {} ({reason}) in a non-final segment",
                    SEGMENT_HEADER + offset
                )));
            }
            Some(FrameError::Corrupt { offset, detail }) => {
                return Err(corrupt(format!(
                    "segment {name}: corrupt frame at offset {}: {detail}",
                    SEGMENT_HEADER + offset
                )));
            }
        }
        let seg_end = first + count;
        replay_records += seg_end.saturating_sub(base.max(*first));
        segments.push(SegMeta {
            name: name.clone(),
            first: *first,
            count,
            good_end,
            file_len: data.len() as u64,
        });
    }

    let next_lsn = segments
        .last()
        .map(|s| s.first + s.count)
        .unwrap_or(0)
        .max(base);
    Ok(Scan {
        snapshot_upto: base,
        checkpoint,
        checkpoint_bytes,
        segments,
        torn,
        tmp_files,
        headerless_tails,
        next_lsn,
        replay_records,
        tail_bytes,
    })
}

// ---------------------------------------------------------------------------
// Replay iterator
// ---------------------------------------------------------------------------

/// Streams `(lsn, payload)` pairs out of a WAL directory, one segment
/// in memory at a time.
#[derive(Debug)]
pub struct Replay<'a, I: Io> {
    io: &'a I,
    dir: &'a Path,
    /// `(first_lsn, name, byte_limit)`; `byte_limit` caps a torn final
    /// segment in read-only mode.
    segments: std::collections::VecDeque<(Lsn, String, Option<u64>)>,
    current: Option<(Vec<u8>, usize, Lsn)>,
    skip_below: Lsn,
    failed: bool,
}

impl<'a, I: Io> Replay<'a, I> {
    fn new(
        io: &'a I,
        dir: &'a Path,
        segments: std::collections::VecDeque<(Lsn, String, Option<u64>)>,
        skip_below: Lsn,
    ) -> Replay<'a, I> {
        Replay {
            io,
            dir,
            segments,
            current: None,
            skip_below,
            failed: false,
        }
    }

    fn load_next_segment(&mut self) -> io::Result<bool> {
        let Some((first, name, limit)) = self.segments.pop_front() else {
            return Ok(false);
        };
        let mut data = self.io.read(&self.dir.join(&name))?;
        if let Some(limit) = limit {
            data.truncate(limit as usize);
        }
        if data.len() < SEGMENT_HEADER {
            return Err(corrupt(format!("segment {name}: missing header")));
        }
        check_segment_header(&data, first)?;
        self.current = Some((data, SEGMENT_HEADER, first));
        Ok(true)
    }
}

impl<'a, I: Io> Iterator for Replay<'a, I> {
    type Item = io::Result<(Lsn, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        enum Step {
            SegmentDone,
            Record(Lsn, Vec<u8>),
            Fail(String),
        }
        loop {
            if self.failed {
                return None;
            }
            if self.current.is_none() {
                match self.load_next_segment() {
                    Ok(true) => {}
                    Ok(false) => return None,
                    Err(e) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                }
            }
            let step = {
                let (data, offset, lsn) = self.current.as_mut().expect("segment just loaded");
                match FrameScanner::new(&data[*offset..]).next() {
                    None => Step::SegmentDone,
                    Some(Ok((_, payload))) => {
                        let record_lsn = *lsn;
                        *lsn += 1;
                        *offset += FRAME_HEADER + payload.len();
                        Step::Record(record_lsn, payload.to_vec())
                    }
                    Some(Err(FrameError::Torn { offset: o, reason })) => {
                        Step::Fail(format!("torn frame at offset {} ({reason})", *offset + o))
                    }
                    Some(Err(FrameError::Corrupt { offset: o, detail })) => {
                        Step::Fail(format!("corrupt frame at offset {}: {detail}", *offset + o))
                    }
                }
            };
            match step {
                Step::SegmentDone => self.current = None,
                Step::Record(lsn, payload) => {
                    if lsn < self.skip_below {
                        continue;
                    }
                    return Some(Ok((lsn, payload)));
                }
                Step::Fail(detail) => {
                    self.failed = true;
                    return Some(Err(corrupt(detail)));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wal
// ---------------------------------------------------------------------------

/// An open, writable write-ahead log.
#[derive(Debug)]
pub struct Wal<I: Io> {
    io: I,
    dir: PathBuf,
    config: WalConfig,
    next_lsn: Lsn,
    snapshot_upto: Lsn,
    /// Whether a checkpoint file covers the records below
    /// `snapshot_upto`.
    checkpoint: bool,
    /// The size of the newest checkpoint's state (0 without one).
    checkpoint_bytes: u64,
    /// Frame bytes of the records from `snapshot_upto` to `next_lsn`.
    tail_bytes: u64,
    /// `(first_lsn, file name)` of every live segment; the last is active.
    segments: Vec<(Lsn, String)>,
    active_len: u64,
    broken: bool,
    observer: ObserverSlot,
    /// When true, [`Wal::rotate`] does not fsync the closing segment
    /// inline; [`Wal::sync`] drains the backlog oldest-first instead.
    defer_rotation_sync: bool,
    /// Closed segments whose fsync was deferred, oldest first.
    unsynced_closed: Vec<String>,
}

impl<I: Io> Wal<I> {
    /// Opens (creating if necessary) and recovers a WAL directory.
    ///
    /// Removes abandoned `.tmp` snapshot files, truncates a torn final
    /// frame, validates every surviving frame's checksum and the LSN
    /// chain, and hands the caller the newest checkpoint plus the
    /// replay position. Mid-log corruption is an `InvalidData` error.
    ///
    /// The records themselves stay on disk for [`Wal::replay`]; a
    /// caller that wants them all anyway opens with
    /// [`Wal::open_visiting`] and reads the directory once.
    pub fn open(io: I, dir: impl Into<PathBuf>, config: WalConfig) -> io::Result<(Wal<I>, Recovery)> {
        let mut keep = KeepSnapshot::default();
        let (wal, mut recovery) = Wal::open_visiting(io, dir, config, &mut keep)?;
        recovery.snapshot = keep.0;
        Ok((wal, recovery))
    }

    /// [`Wal::open`] in one pass: `visitor` is handed the newest
    /// checkpoint and then every record past it, borrowed from the
    /// segment buffer the scan has just validated — the same
    /// `(lsn, payload)` sequence [`Wal::replay`] would yield from the
    /// opened log, without reading or checksumming anything twice and
    /// without copying a payload. See [`Visitor`] for what it may see
    /// before a refusal; the directory is healed (and, when empty,
    /// given its first segment) only after the pass, so a refused open
    /// leaves the disk as it found it.
    pub fn open_visiting(
        io: I,
        dir: impl Into<PathBuf>,
        config: WalConfig,
        visitor: &mut dyn Visitor,
    ) -> io::Result<(Wal<I>, Recovery)> {
        let dir = dir.into();
        let config = WalConfig {
            segment_bytes: config.segment_bytes.max(SEGMENT_HEADER as u64 + 64),
            ..config
        };
        io.create_dir_all(&dir)?;
        let mut scan = scan_dir(&io, &dir, visitor)?;
        for tmp in &scan.tmp_files {
            io.remove(&dir.join(tmp))?;
        }
        for name in scan.headerless_tails.drain(..) {
            io.remove(&dir.join(&name))?;
        }
        if let Some(t) = &scan.torn {
            io.truncate(&dir.join(&t.segment), t.kept_bytes)?;
            io.sync(&dir.join(&t.segment))?;
        }
        let mut segments: Vec<(Lsn, String)> = scan
            .segments
            .iter()
            .map(|s| (s.first, s.name.clone()))
            .collect();
        let active_len = match scan.segments.last() {
            Some(last) => last.good_end,
            None => {
                let name = segment_name(scan.next_lsn);
                let path = dir.join(&name);
                io.create(&path)?;
                io.append(&path, &segment_header(scan.next_lsn))?;
                io.sync(&path)?;
                segments.push((scan.next_lsn, name));
                SEGMENT_HEADER as u64
            }
        };
        let recovery = Recovery {
            snapshot: None,
            torn_tail: scan.torn.take(),
            segments: segments.len(),
            records: scan.replay_records,
            next_lsn: scan.next_lsn,
        };
        Ok((
            Wal {
                io,
                dir,
                config,
                next_lsn: scan.next_lsn,
                snapshot_upto: scan.snapshot_upto,
                checkpoint: scan.checkpoint,
                checkpoint_bytes: scan.checkpoint_bytes,
                tail_bytes: scan.tail_bytes,
                segments,
                active_len,
                broken: false,
                observer: ObserverSlot(None),
                defer_rotation_sync: false,
                unsynced_closed: Vec::new(),
            },
            recovery,
        ))
    }

    /// Defers the closing segment's fsync out of [`Wal::rotate`] (and
    /// therefore out of the appending thread): the next [`Wal::sync`]
    /// drains deferred segments oldest-first before syncing the active
    /// one, so a later segment is never durable ahead of an earlier one
    /// and the no-committed-gap recovery invariant holds. Meant for
    /// group-commit setups where a dedicated thread calls `sync` anyway;
    /// off by default, and pointless (but harmless) under
    /// [`SyncPolicy::Always`] since every append already synced the
    /// closing segment.
    pub fn set_deferred_rotation_sync(&mut self, defer: bool) {
        self.defer_rotation_sync = defer;
    }

    /// Installs (or replaces) the observer notified of this log's I/O.
    /// Without one, no timing clock is ever read.
    pub fn set_observer(&mut self, observer: Box<dyn WalObserver>) {
        self.observer = ObserverSlot(Some(observer));
    }

    /// The LSN the next append will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// The active configuration.
    pub fn config(&self) -> &WalConfig {
        &self.config
    }

    /// Live segment count (including the active one).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The frame bytes of the records past the newest checkpoint in the
    /// live segments — what a reopen would read and replay on top of
    /// it. Counted by the open's scan and kept up by every append, so it
    /// costs no I/O; a checkpoint sets it back to 0.
    pub fn tail_bytes(&self) -> u64 {
        self.tail_bytes
    }

    /// The size of the newest checkpoint's state, as handed to
    /// [`Wal::snapshot`] (0 without one).
    pub fn checkpoint_bytes(&self) -> u64 {
        self.checkpoint_bytes
    }

    /// The WAL directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn active_path(&self) -> PathBuf {
        self.dir.join(&self.segments.last().expect("always one segment").1)
    }

    fn check_broken(&self) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::other(
                "wal is broken after an earlier I/O error; reopen to recover",
            ));
        }
        Ok(())
    }

    /// Marks the log broken on failure, so a half-applied operation is
    /// never built upon — recovery is a reopen.
    fn guard<T>(&mut self, r: io::Result<T>) -> io::Result<T> {
        if r.is_err() {
            self.broken = true;
        }
        r
    }

    /// Appends one record, returning its LSN. Durability depends on
    /// [`SyncPolicy`]; under `Always` a returned LSN is crash-proof.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<Lsn> {
        self.check_broken()?;
        let frame = encode_frame(payload);
        if self.active_len + frame.len() as u64 > self.config.segment_bytes
            && self.active_len > SEGMENT_HEADER as u64
        {
            self.rotate()?;
        }
        let path = self.active_path();
        let t0 = self.observer.t0();
        let append = self.io.append(&path, &frame);
        self.guard(append)?;
        if let Some(obs) = self.observer.0.as_mut() {
            obs.on_append(frame.len(), ObserverSlot::elapsed_ns(t0));
        }
        self.active_len += frame.len() as u64;
        match self.config.sync {
            SyncPolicy::Always => {
                let t0 = self.observer.t0();
                let sync = self.io.sync(&path);
                self.guard(sync)?;
                if let Some(obs) = self.observer.0.as_mut() {
                    obs.on_sync(ObserverSlot::elapsed_ns(t0));
                }
            }
            SyncPolicy::Never => {}
        }
        // Only an append that returns `Ok` takes its LSN: a frame whose
        // fsync failed stays past `next_lsn`, unseen by `visit_file`.
        self.next_lsn += 1;
        self.tail_bytes += frame.len() as u64;
        Ok(self.next_lsn - 1)
    }

    /// Forces everything appended so far to stable storage, including
    /// any closed segments whose rotation-time fsync was deferred
    /// (those drain oldest-first, so durability stays prefix-ordered).
    pub fn sync(&mut self) -> io::Result<()> {
        self.check_broken()?;
        while !self.unsynced_closed.is_empty() {
            let path = self.dir.join(&self.unsynced_closed[0]);
            let t0 = self.observer.t0();
            let sync = self.io.sync(&path);
            self.guard(sync)?;
            if let Some(obs) = self.observer.0.as_mut() {
                obs.on_sync(ObserverSlot::elapsed_ns(t0));
            }
            self.unsynced_closed.remove(0);
        }
        let path = self.active_path();
        let t0 = self.observer.t0();
        let sync = self.io.sync(&path);
        self.guard(sync)?;
        if let Some(obs) = self.observer.0.as_mut() {
            obs.on_sync(ObserverSlot::elapsed_ns(t0));
        }
        Ok(())
    }

    /// Closes the active segment and starts a new one at `next_lsn`.
    fn rotate(&mut self) -> io::Result<()> {
        let t0 = self.observer.t0();
        if self.defer_rotation_sync {
            // The closing segment's fsync moves to the next `sync`
            // call (a group-commit thread, typically); `sync` drains
            // deferred segments oldest-first so durability ordering —
            // and therefore the no-committed-gap recovery invariant —
            // is preserved.
            let closing = self.segments.last().expect("always one segment").1.clone();
            self.unsynced_closed.push(closing);
        } else {
            // The outgoing segment is synced under EVERY policy: a
            // later segment may be synced before the earlier one
            // otherwise, and a crash would then leave a gap in the
            // committed log — which recovery must (and does) reject —
            // instead of a torn tail at the end.
            self.sync()?;
        }
        let name = segment_name(self.next_lsn);
        let path = self.dir.join(&name);
        let create = self.io.create(&path);
        self.guard(create)?;
        let header = self.io.append(&path, &segment_header(self.next_lsn));
        self.guard(header)?;
        if self.config.sync == SyncPolicy::Always && !self.defer_rotation_sync {
            let sync = self.io.sync(&path);
            self.guard(sync)?;
        }
        self.segments.push((self.next_lsn, name));
        self.active_len = SEGMENT_HEADER as u64;
        if let Some(obs) = self.observer.0.as_mut() {
            obs.on_rotate();
            obs.on_rotate_stall(ObserverSlot::elapsed_ns(t0));
        }
        Ok(())
    }

    /// Writes a checkpoint covering every record appended so far, then
    /// rotates so [`Wal::compact`] can delete the folded segments.
    ///
    /// The active segment is synced first (the checkpoint must never
    /// claim records the log could still lose), the checkpoint file is
    /// written and synced under a `.tmp` name, and the atomic rename
    /// publishes it. Returns the coverage bound.
    pub fn snapshot(&mut self, state: &[u8]) -> io::Result<Lsn> {
        self.check_broken()?;
        let t_snap = self.observer.t0();
        let upto = self.next_lsn;
        self.sync()?;
        let final_name = snapshot_name(upto);
        let tmp_path = self.dir.join(format!("{final_name}.tmp"));
        let create = self.io.create(&tmp_path);
        self.guard(create)?;
        let body = encode_snapshot(upto, state);
        let append = self.io.append(&tmp_path, &body);
        self.guard(append)?;
        let sync = self.io.sync(&tmp_path);
        self.guard(sync)?;
        let rename = self.io.rename(&tmp_path, &self.dir.join(&final_name));
        self.guard(rename)?;
        (self.snapshot_upto, self.checkpoint) = (upto, true);
        (self.checkpoint_bytes, self.tail_bytes) = (state.len() as u64, 0);
        // Rotate unless the active segment is already empty and aligned.
        let (active_first, _) = *self.segments.last().expect("always one segment");
        if !(active_first == upto && self.active_len == SEGMENT_HEADER as u64) {
            self.rotate()?;
        }
        if let Some(obs) = self.observer.0.as_mut() {
            obs.on_snapshot(state.len(), ObserverSlot::elapsed_ns(t_snap));
        }
        Ok(upto)
    }

    /// Deletes segments wholly covered by the newest checkpoint, plus
    /// superseded checkpoint files. Returns how many files went away.
    pub fn compact(&mut self) -> io::Result<usize> {
        self.check_broken()?;
        let t0 = self.observer.t0();
        let upto = self.snapshot_upto;
        let mut removed = 0;
        while self.segments.len() > 1 && self.segments[1].0 <= upto {
            let name = self.segments[0].1.clone();
            let remove = self.io.remove(&self.dir.join(&name));
            self.guard(remove)?;
            self.unsynced_closed.retain(|n| n != &name);
            self.segments.remove(0);
            removed += 1;
        }
        for name in self.io.list(&self.dir)? {
            if parse_snapshot_name(&name).is_some_and(|s| s < upto) {
                let remove = self.io.remove(&self.dir.join(&name));
                self.guard(remove)?;
                removed += 1;
            }
        }
        if let Some(obs) = self.observer.0.as_mut() {
            obs.on_compact(removed, ObserverSlot::elapsed_ns(t0));
        }
        Ok(removed)
    }

    /// Shows `visitor` one file of the log as it stands now, read and
    /// checked afresh: file 0 is the checkpoint ([`Visitor::snapshot`];
    /// nothing without one), file `k` the `k`-th live segment's records
    /// past the checkpoint and below [`Wal::next_lsn`], each borrowed
    /// from that segment's buffer. Walking `0, 1, …` until this returns
    /// `false` shows what a reopen would, with one file in memory at a
    /// time. Bytes past `next_lsn` — what a failed append left behind —
    /// are never looked at; a bad frame before it is `InvalidData`.
    pub fn visit_file(&self, file: usize, visitor: &mut dyn Visitor) -> io::Result<bool> {
        let Some(k) = file.checked_sub(1) else {
            if self.checkpoint {
                let name = snapshot_name(self.snapshot_upto);
                let state = decode_snapshot(&self.io.read(&self.dir.join(&name))?, self.snapshot_upto)
                    .map_err(|e| corrupt(format!("{name}: {e}")))?;
                visitor.snapshot(Snapshot {
                    upto: self.snapshot_upto,
                    state,
                })?;
            }
            return Ok(true);
        };
        let Some((first, name)) = self.segments.get(k) else {
            return Ok(false);
        };
        let data = self.io.read(&self.dir.join(name))?;
        if data.len() < SEGMENT_HEADER {
            return Err(corrupt(format!("segment {name}: missing header")));
        }
        check_segment_header(&data, *first).map_err(|e| corrupt(format!("segment {name}: {e}")))?;
        let mut lsn = *first;
        for item in FrameScanner::new(&data[SEGMENT_HEADER..]) {
            if lsn >= self.next_lsn {
                break;
            }
            let (_, payload) = item.map_err(|e| {
                corrupt(match e {
                    FrameError::Torn { offset, reason } => format!(
                        "segment {name}: torn frame at offset {} ({reason})",
                        SEGMENT_HEADER + offset
                    ),
                    FrameError::Corrupt { offset, detail } => format!(
                        "segment {name}: corrupt frame at offset {}: {detail}",
                        SEGMENT_HEADER + offset
                    ),
                })
            })?;
            if lsn >= self.snapshot_upto {
                visitor.record(lsn, payload)?;
            }
            lsn += 1;
        }
        let end = self.segments.get(k + 1).map_or(self.next_lsn, |(next, _)| *next);
        if lsn < end {
            return Err(corrupt(format!(
                "segment {name}: ends at record {lsn}, the log holds records to {end}"
            )));
        }
        Ok(true)
    }

    /// Iterates the records past the newest checkpoint, in LSN order.
    pub fn replay(&self) -> Replay<'_, I> {
        let segments = self
            .segments
            .iter()
            .map(|(first, name)| (*first, name.clone(), None))
            .collect();
        Replay::new(&self.io, &self.dir, segments, self.snapshot_upto)
    }
}

// ---------------------------------------------------------------------------
// WalReader
// ---------------------------------------------------------------------------

/// Read-only access to a WAL directory: validates and replays without
/// truncating the torn tail or touching any file — safe to point at a
/// directory another process owns.
#[derive(Debug)]
pub struct WalReader<I: Io> {
    io: I,
    dir: PathBuf,
    snapshot: Option<Snapshot>,
    /// Records below this are covered by the snapshot — remembered
    /// separately so [`WalReader::take_snapshot`] does not change what
    /// [`WalReader::records`] yields.
    snapshot_upto: Lsn,
    segments: Vec<(Lsn, String, Option<u64>)>,
    torn: Option<TornTail>,
    next_lsn: Lsn,
    records: u64,
}

impl<I: Io> WalReader<I> {
    /// Scans and validates a WAL directory read-only. A torn final
    /// frame is tolerated (and reported via [`WalReader::torn_tail`]);
    /// mid-log corruption is an error, exactly as in [`Wal::open`].
    pub fn open(io: I, dir: impl Into<PathBuf>) -> io::Result<WalReader<I>> {
        let dir = dir.into();
        let mut keep = KeepSnapshot::default();
        let scan = scan_dir(&io, &dir, &mut keep)?;
        let segments = scan
            .segments
            .iter()
            .map(|s| {
                let limit = (s.good_end < s.file_len).then_some(s.good_end);
                (s.first, s.name.clone(), limit)
            })
            .collect();
        Ok(WalReader {
            io,
            dir,
            snapshot_upto: scan.snapshot_upto,
            snapshot: keep.0,
            segments,
            torn: scan.torn,
            next_lsn: scan.next_lsn,
            records: scan.replay_records,
        })
    }

    /// The newest valid checkpoint.
    pub fn snapshot(&self) -> Option<&Snapshot> {
        self.snapshot.as_ref()
    }

    /// Takes ownership of the checkpoint state.
    pub fn take_snapshot(&mut self) -> Option<Snapshot> {
        self.snapshot.take()
    }

    /// The torn tail found during the scan, if any.
    pub fn torn_tail(&self) -> Option<&TornTail> {
        self.torn.as_ref()
    }

    /// The LSN the owning writer would assign next.
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// How many records [`WalReader::records`] will yield.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Iterates the records past the checkpoint, in LSN order —
    /// regardless of whether the checkpoint state itself has already
    /// been taken with [`WalReader::take_snapshot`].
    pub fn records(&self) -> Replay<'_, I> {
        Replay::new(
            &self.io,
            &self.dir,
            self.segments.iter().cloned().collect(),
            self.snapshot_upto,
        )
    }
}
