//! The follower half of WAL shipping: connect to whoever leads, resume
//! from persisted watermarks, apply the stream into the local engine,
//! ack with per-shard commits, and gossip the node's own model
//! contribution on a timer.
//!
//! The follower also doubles as the cluster's failure detector: when a
//! full sweep of the peer list finds no leader (`connect` refused or
//! every node answered `NOTLEADER`) enough times in a row, it reports
//! leader loss to the [`crate::node::ClusterNode`], which races for the
//! takeover file.

use crate::hub::ReplHub;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;
use uucs_protocol::repl::{write_repl_msg, ReplMsg};
use uucs_protocol::WalEntry;
use uucs_server::{CommitTicket, UucsServer};
use uucs_telemetry::metrics;
use uucs_wal::frame::{encode_frame_into, FrameError, FrameScanner};

/// Durable follower progress: the cluster epoch the watermarks were
/// earned under and, per leader shard, the next wanted sequence.
/// Persisted as one small text file ([`ProgressFile`]), rewritten after
/// every acknowledged burst — being *behind* on disk is always safe
/// (re-application is idempotent), being ahead never happens.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FollowerProgress {
    /// The cluster epoch of the leader the watermarks came from.
    pub epoch: u64,
    /// Next wanted sequence per leader shard.
    pub watermarks: Vec<u64>,
}

impl FollowerProgress {
    /// Loads progress from `path` (default: never synced).
    pub fn load(path: &Path) -> FollowerProgress {
        let Ok(text) = std::fs::read_to_string(path) else {
            return FollowerProgress::default();
        };
        let mut lines = text.lines();
        let epoch = lines
            .next()
            .and_then(|l| l.strip_prefix("EPOCH "))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let watermarks = lines
            .filter_map(|l| l.strip_prefix("SHARD "))
            .filter_map(|l| l.split_whitespace().nth(1))
            .filter_map(|s| s.parse().ok())
            .collect();
        FollowerProgress { epoch, watermarks }
    }

    /// The file's text: `EPOCH <n>` then one `SHARD <i> <n>` per shard,
    /// every `<n>` zero-padded to `u64`'s full width — so the text's
    /// length depends on the shard count alone and a save can overwrite
    /// the last one byte for byte. [`FollowerProgress::load`] reads the
    /// padded and the unpadded form alike.
    fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = format!("EPOCH {:020}\n", self.epoch);
        for (i, w) in self.watermarks.iter().enumerate() {
            writeln!(out, "SHARD {i} {w:020}").expect("writing to a String");
        }
        out
    }
}

/// The progress file of one follower session, held open and rewritten
/// in place: one `pwrite` per save, and never a moment at which the
/// file holds less than a whole progress — a crash or a concurrent
/// reader finds the old text, the new one, or (while a stale longer
/// file is being cut down) the new one with old lines after it, which
/// [`FollowerProgress::load`] reports as more shards than the leader
/// has and the follower answers with a full resync.
#[derive(Debug)]
pub struct ProgressFile {
    file: File,
    /// The file's length as far as this handle knows.
    len: u64,
}

impl ProgressFile {
    /// Opens (creating if necessary) the progress file at `path`,
    /// leaving whatever it holds in place.
    pub fn open(path: &Path) -> io::Result<ProgressFile> {
        let file = File::options()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(ProgressFile { file, len })
    }

    /// Overwrites the file with `progress`; the length is only touched
    /// when it differs from what was found (an older, unpadded file, or
    /// one written for another shard count).
    pub fn save(&mut self, progress: &FollowerProgress) -> io::Result<()> {
        let text = progress.render();
        self.file.write_all_at(text.as_bytes(), 0)?;
        if self.len != text.len() as u64 {
            self.file.set_len(text.len() as u64)?;
            self.len = text.len() as u64;
        }
        Ok(())
    }
}

/// Configuration for the follower runtime.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// This node's name (the `HELLO` identity).
    pub node: String,
    /// `REPL` addresses of every peer that might lead.
    pub leaders: Vec<String>,
    /// Where [`FollowerProgress`] persists.
    pub progress_path: PathBuf,
    /// Socket read timeout; each expiry sends one gossip beat.
    pub gossip_interval: Duration,
    /// Consecutive no-leader sweeps of the peer list before reporting
    /// leader loss (the promotion trigger).
    pub promote_after: u32,
}

/// The follower runtime: a background thread driving the connect /
/// apply / ack / gossip loop.
pub struct ReplFollower {
    stop: Arc<AtomicBool>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ReplFollower {
    /// Starts following. `on_leader_lost` runs on the follower thread
    /// after `promote_after` consecutive leaderless sweeps; returning
    /// `true` means this node was promoted and the loop must end.
    pub fn start(
        config: FollowerConfig,
        server: Arc<UucsServer>,
        hub: Arc<ReplHub>,
        on_leader_lost: impl Fn() -> bool + Send + 'static,
    ) -> ReplFollower {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("repl-follower-{}", config.node))
            .spawn(move || {
                run_follower(&config, &server, &hub, &stop2, on_leader_lost);
            })
            .expect("spawn follower thread");
        ReplFollower {
            stop,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Stops the loop and joins the thread.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = lock(&self.handle).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ReplFollower {
    fn drop(&mut self) {
        self.stop();
    }
}

fn run_follower(
    config: &FollowerConfig,
    server: &Arc<UucsServer>,
    hub: &Arc<ReplHub>,
    stop: &AtomicBool,
    on_leader_lost: impl Fn() -> bool,
) {
    let mut leaderless_sweeps = 0u32;
    while !stop.load(Ordering::SeqCst) {
        let mut synced_any = false;
        for addr in &config.leaders {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            if let Ok(true) = follow_once(config, server, hub, stop, addr) {
                synced_any = true;
                leaderless_sweeps = 0;
            }
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        if !synced_any {
            leaderless_sweeps += 1;
            if leaderless_sweeps >= config.promote_after {
                if on_leader_lost() {
                    return;
                }
                leaderless_sweeps = 0;
            }
            // Brief pause between sweeps so a restarting leader has a
            // chance to bind before the next round (and the promotion
            // count reflects real time, not a hot loop).
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// The follower's receive side: bytes accumulate in a buffer that a
/// read timeout leaves alone, and whole frames are taken off its front.
/// The timeout is set once per session and is the gossip beat; a frame
/// cut in two by it simply completes on a later read.
struct Inbox {
    sock: TcpStream,
    buf: Vec<u8>,
    /// Where a read lands before its bytes join `buf`.
    chunk: Box<[u8]>,
}

/// What one read off the socket brought.
enum Fill {
    /// More bytes (maybe not yet a whole frame).
    Data,
    /// Nothing within the gossip interval.
    Beat,
    /// The leader closed the connection.
    Eof,
}

impl Inbox {
    /// Bytes asked of the socket per read; a burst is what one or more
    /// reads left buffered, so this is also roughly its size.
    const CHUNK: usize = 64 << 10;

    fn new(sock: TcpStream) -> Inbox {
        Inbox {
            sock,
            buf: Vec::new(),
            chunk: vec![0; Self::CHUNK].into_boxed_slice(),
        }
    }

    /// Every whole message buffered, in order, removed from the buffer.
    /// A checksum failure or an undecodable message is bit damage: the
    /// session must end rather than apply a half-trusted entry.
    fn drain(&mut self) -> io::Result<Vec<ReplMsg>> {
        let mut msgs = Vec::new();
        let mut frames = FrameScanner::new(&self.buf);
        let damage = loop {
            match frames.next() {
                Some(Ok((_, payload))) => msgs.push(ReplMsg::decode(payload)?),
                None | Some(Err(FrameError::Torn { .. })) => break None,
                Some(Err(FrameError::Corrupt { detail, .. })) => break Some(detail),
            }
        };
        let consumed = frames.offset();
        self.buf.drain(..consumed);
        match damage {
            Some(detail) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("repl: {detail}"),
            )),
            None => Ok(msgs),
        }
    }

    /// One read off the socket onto the end of the buffer.
    fn fill(&mut self) -> io::Result<Fill> {
        match self.sock.read(&mut self.chunk) {
            Ok(0) => Ok(Fill::Eof),
            Ok(n) => {
                self.buf.extend_from_slice(&self.chunk[..n]);
                Ok(Fill::Data)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(Fill::Beat)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(Fill::Data),
            Err(e) => Err(e),
        }
    }
}

/// What a burst of applied messages owes before it may be acknowledged.
#[derive(Default)]
struct Burst {
    /// The highest ticket per touched journal (tickets of one journal
    /// only grow, so the last stands for the rest).
    tickets: Vec<CommitTicket>,
    /// Leader shards whose watermark moved.
    touched: Vec<usize>,
}

impl Burst {
    fn owe(&mut self, ticket: Option<CommitTicket>) {
        let Some(ticket) = ticket else { return };
        match self
            .tickets
            .iter_mut()
            .find(|t| (t.flavor, t.shard) == (ticket.flavor, ticket.shard))
        {
            Some(held) => *held = ticket,
            None => self.tickets.push(ticket),
        }
    }

    fn touch(&mut self, shard: usize) {
        if !self.touched.contains(&shard) {
            self.touched.push(shard);
        }
    }
}

/// One connection attempt against one candidate leader. `Ok(true)`
/// means a session was established and later ended (leader died or we
/// are stopping); `Ok(false)` means this peer is not the leader.
fn follow_once(
    config: &FollowerConfig,
    server: &Arc<UucsServer>,
    hub: &Arc<ReplHub>,
    stop: &AtomicBool,
    addr: &str,
) -> io::Result<bool> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true).ok();
    sock.set_read_timeout(Some(config.gossip_interval))?;
    let mut inbox = Inbox::new(sock.try_clone()?);
    let mut progress = FollowerProgress::load(&config.progress_path);
    // Best-effort: an unwritable file only costs a bigger backfill
    // after restart.
    let mut progress_file = ProgressFile::open(&config.progress_path).ok();
    let progress_writes = metrics::counter("server.repl.progress_writes");
    let mut save = |progress: &FollowerProgress| {
        if progress_file
            .as_mut()
            .is_some_and(|f| f.save(progress).is_ok())
        {
            progress_writes.inc();
        }
    };
    write_repl_msg(
        &mut sock,
        &ReplMsg::Hello {
            node: config.node.clone(),
            epoch: progress.epoch,
            watermarks: progress
                .watermarks
                .iter()
                .enumerate()
                .map(|(i, &w)| (i, w))
                .collect(),
        },
    )?;
    // Whatever the leader sent right behind its `WELCOME` is already
    // buffered: it opens the first burst.
    let mut msgs = VecDeque::new();
    let (epoch, shards) = loop {
        match msgs.pop_front() {
            Some(ReplMsg::Welcome { epoch, shards, .. }) => break (epoch, shards),
            Some(_) => return Ok(false),
            None => {}
        }
        if stop.load(Ordering::SeqCst) {
            return Ok(false);
        }
        match inbox.fill() {
            Ok(Fill::Data | Fill::Beat) => {}
            Ok(Fill::Eof) | Err(_) => return Ok(false),
        }
        match inbox.drain() {
            Ok(whole) => msgs.extend(whole),
            Err(_) => return Ok(false),
        }
    };
    if progress.epoch != epoch || progress.watermarks.len() != shards {
        // New leader (or first contact): the old sequence space is
        // meaningless. The leader will send a snapshot; expect from 0.
        progress = FollowerProgress {
            epoch,
            watermarks: vec![0; shards],
        };
        save(&progress);
    }
    let applied = metrics::counter("server.repl.applied");
    let committer = server.group_committer();
    // The apply / ack / gossip loop, a burst at a time: everything
    // already received is applied, made durable with one wait per
    // touched journal, acknowledged with one `COMMIT` per touched shard
    // in a single write, and only then recorded as progress. A read
    // timeout is the gossip beat; a torn frame or reset ends the
    // session (the leader died).
    loop {
        let mut burst = Burst::default();
        // A message this follower cannot follow ends the session — after
        // what was applied before it has been settled.
        let mut lost = false;
        for msg in msgs.drain(..) {
            match msg {
                ReplMsg::Entry { shard, seq, bytes } => {
                    let expected = match progress.watermarks.get(shard) {
                        Some(&expected) if seq <= expected => expected,
                        // Unknown shard, or a gap: resync via reconnect.
                        _ => {
                            lost = true;
                            break;
                        }
                    };
                    if seq < expected {
                        continue; // Backfill overlap: already applied.
                    }
                    let entry = WalEntry::decode(&bytes)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                    burst.owe(server.apply_entry(&entry)?);
                    applied.inc();
                    progress.watermarks[shard] = seq + 1;
                    burst.touch(shard);
                }
                ReplMsg::SnapEntry { bytes, .. } => {
                    let entry = WalEntry::decode(&bytes)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                    burst.owe(server.apply_snapshot_entry(&entry)?);
                    applied.inc();
                }
                ReplMsg::SnapDone { shard, upto } => {
                    let Some(watermark) = progress.watermarks.get_mut(shard) else {
                        lost = true;
                        break;
                    };
                    *watermark = (*watermark).max(upto);
                    burst.touch(shard);
                }
                ReplMsg::Gossip { node, epoch, model } => {
                    lock(hub.gossip()).absorb(&node, epoch, &model);
                }
                ReplMsg::Ping { .. } => {}
                _ => {
                    lost = true;
                    break;
                }
            }
        }
        // `COMMIT` never precedes the fsync of what it covers.
        if let Some(committer) = &committer {
            for ticket in burst.tickets {
                committer.sync(ticket).map_err(io::Error::other)?;
            }
        }
        if !burst.touched.is_empty() {
            let mut commits = Vec::new();
            for &shard in &burst.touched {
                let commit = ReplMsg::Commit {
                    shard,
                    upto: progress.watermarks[shard],
                };
                encode_frame_into(&commit.encode(), &mut commits);
            }
            if sock.write_all(&commits).is_err() {
                return Ok(true);
            }
            save(&progress);
        }
        if lost || stop.load(Ordering::SeqCst) {
            return Ok(true);
        }
        match inbox.fill() {
            Ok(Fill::Data) => {}
            Ok(Fill::Beat) => {
                // Gossip beat: send our own latest contribution.
                let own = server.model_contribution();
                lock(hub.gossip()).record_own(&own);
                let beat = ReplMsg::Gossip {
                    node: config.node.clone(),
                    epoch: own.epoch(),
                    model: own.encode(),
                };
                if write_repl_msg(&mut sock, &beat).is_err() {
                    return Ok(true);
                }
            }
            // Clean EOF, torn frame or reset: the leader died.
            Ok(Fill::Eof) | Err(_) => return Ok(true),
        }
        match inbox.drain() {
            Ok(whole) => msgs.extend(whole),
            Err(_) => return Ok(true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::HubConfig;
    use std::net::TcpListener;
    use std::sync::Barrier;
    use uucs_harness::TempDir;
    use uucs_protocol::repl::read_repl_msg;
    use uucs_protocol::{MachineSnapshot, MonitorSummary, RunOutcome, RunRecord};
    use uucs_server::StoreSet;
    use uucs_wal::{SyncPolicy, WalConfig};

    fn progress(epoch: u64, watermarks: &[u64]) -> FollowerProgress {
        FollowerProgress {
            epoch,
            watermarks: watermarks.to_vec(),
        }
    }

    /// A file the parent commit's follower wrote — unpadded numbers —
    /// is read as it always was, rewritten padded, and reads back equal;
    /// the padded text is what every later save overwrites in place.
    #[test]
    fn an_old_format_file_loads_is_rewritten_and_reloads_equal() {
        let dir = TempDir::new("repl-progress-old");
        let path = dir.path().join("repl-progress.txt");
        std::fs::write(&path, "EPOCH 3\nSHARD 0 17\nSHARD 1 0\nSHARD 2 123456\n").unwrap();
        let loaded = FollowerProgress::load(&path);
        assert_eq!(loaded, progress(3, &[17, 0, 123_456]));
        let mut file = ProgressFile::open(&path).unwrap();
        file.save(&loaded).unwrap();
        assert_eq!(FollowerProgress::load(&path), loaded);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().next(), Some("EPOCH 00000000000000000003"));
        assert_eq!(text.lines().nth(3), Some("SHARD 2 00000000000000123456"));
        // Any later value lands on the same bytes.
        file.save(&progress(u64::MAX, &[u64::MAX, 1, 2])).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), text.len() as u64);
        assert_eq!(
            FollowerProgress::load(&path),
            progress(u64::MAX, &[u64::MAX, 1, 2])
        );
    }

    /// A file left by a follower of a wider leader is cut to the new
    /// length: no stale `SHARD` line survives the first save.
    #[test]
    fn a_longer_stale_file_is_cut_to_the_new_length() {
        let dir = TempDir::new("repl-progress-stale");
        let path = dir.path().join("repl-progress.txt");
        let mut file = ProgressFile::open(&path).unwrap();
        file.save(&progress(1, &[5; 8])).unwrap();
        drop(file);
        let narrow = progress(2, &[9, 9]);
        let mut file = ProgressFile::open(&path).unwrap();
        file.save(&narrow).unwrap();
        assert_eq!(FollowerProgress::load(&path), narrow);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            narrow.render().len() as u64
        );
    }

    /// Saves overwrite, they never truncate first: whenever a reader
    /// looks — here as fast as it can while the saves run — the file is
    /// a whole progress of the right width. (Rewriting by truncation
    /// showed an empty file in that window, which `load` reads as
    /// "never synced": a full snapshot backfill instead of a tail.)
    #[test]
    fn a_reader_never_sees_less_than_a_whole_progress() {
        const SHARDS: usize = 8;
        let dir = TempDir::new("repl-progress-reader");
        let path = dir.path().join("repl-progress.txt");
        let mut file = ProgressFile::open(&path).unwrap();
        file.save(&progress(1, &[0; SHARDS])).unwrap();
        let start = Barrier::new(2);
        let saving = AtomicBool::new(true);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for n in 1..=2_000u64 {
                    file.save(&progress(1, &[n; SHARDS])).unwrap();
                }
                saving.store(false, Ordering::SeqCst);
            });
            start.wait();
            while saving.load(Ordering::SeqCst) {
                let text = std::fs::read_to_string(&path).unwrap();
                assert_eq!(text.lines().count(), SHARDS + 1, "{text:?}");
                let seen = FollowerProgress::load(&path);
                assert_eq!((seen.epoch, seen.watermarks.len()), (1, SHARDS));
            }
        });
        assert_eq!(FollowerProgress::load(&path), progress(1, &[2_000; SHARDS]));
    }

    fn batch(client: &str, seq: u64) -> Vec<u8> {
        WalEntry::Batch {
            client: client.into(),
            seq,
            records: vec![RunRecord {
                client: client.into(),
                user: "u".into(),
                testcase: format!("{client}-b{seq}"),
                task: "IE".into(),
                skill: "Typical".into(),
                outcome: RunOutcome::Discomfort,
                offset_secs: 1.0,
                last_levels: vec![(uucs_testcase::Resource::Cpu, vec![2.0])],
                monitor: MonitorSummary::default(),
            }],
        }
        .encode()
    }

    /// Seven entries over two of the leader's three shards, written to
    /// the socket behind the `WELCOME` in one flush, come back as two
    /// cumulative `COMMIT`s — not seven — after one progress write, and
    /// every record is held once. The follower journals at
    /// `SyncPolicy::Never` under its own committer, as `uucs-clusterd`
    /// runs it, so the `COMMIT`s also stand for one fsync per journal.
    #[test]
    fn a_burst_is_acknowledged_once_per_touched_shard_after_one_progress_write() {
        let dir = TempDir::new("repl-burst");
        let journals = WalConfig {
            sync: SyncPolicy::Never,
            ..WalConfig::default()
        };
        let (stores, _) = StoreSet::open(&dir.path().join("wal"), journals, 4).unwrap();
        let server = Arc::new(
            UucsServer::with_store_set(stores, 7).with_group_commit(Duration::from_millis(1)),
        );
        server.set_read_only(true);
        let hub = ReplHub::new("b", 4, HubConfig::default());
        // Progress earned under this leader's epoch, in the old format:
        // the session starts without a reset, so the only progress
        // write is the burst's.
        let progress_path = dir.path().join("repl-progress.txt");
        std::fs::write(&progress_path, "EPOCH 7\nSHARD 0 0\nSHARD 1 0\nSHARD 2 0\n").unwrap();
        let writes = metrics::counter("server.repl.progress_writes");
        let writes_before = writes.get();

        let leader = TcpListener::bind("127.0.0.1:0").unwrap();
        let follower = ReplFollower::start(
            FollowerConfig {
                node: "b".into(),
                leaders: vec![leader.local_addr().unwrap().to_string()],
                progress_path: progress_path.clone(),
                gossip_interval: Duration::from_secs(600),
                promote_after: u32::MAX,
            },
            Arc::clone(&server),
            hub,
            || false,
        );
        let (mut sock, _) = leader.accept().unwrap();
        // One session is all this leader serves: once it ends, the
        // follower's sweeps are refused and it notices `stop`.
        drop(leader);
        let hello = read_repl_msg(&mut sock).unwrap();
        let resume = vec![(0, 0), (1, 0), (2, 0)];
        assert!(
            matches!(&hello, Some(ReplMsg::Hello { epoch: 7, watermarks, .. }) if *watermarks == resume),
            "{hello:?}"
        );

        let registration = |id: &str| {
            WalEntry::Client {
                id: id.into(),
                token: format!("tok-{id}"),
                snapshot: MachineSnapshot::study_machine("m"),
            }
            .encode()
        };
        let mut stream = Vec::new();
        let mut push = |msg: ReplMsg| encode_frame_into(&msg.encode(), &mut stream);
        push(ReplMsg::Welcome {
            node: "a".into(),
            epoch: 7,
            shards: 3,
        });
        let burst = [
            (0, 0, registration("client-0001")),
            (2, 0, registration("client-0002")),
            (0, 1, batch("client-0001", 1)),
            (0, 2, batch("client-0001", 2)),
            (2, 1, batch("client-0002", 1)),
            (0, 3, batch("client-0001", 3)),
            (2, 2, batch("client-0002", 2)),
        ];
        for (shard, seq, bytes) in burst {
            push(ReplMsg::Entry { shard, seq, bytes });
        }
        sock.write_all(&stream).unwrap();

        // One `COMMIT` per touched shard, each at its highest `seq + 1`.
        let commit = |sock: &mut TcpStream| match read_repl_msg(sock).unwrap() {
            Some(ReplMsg::Commit { shard, upto }) => (shard, upto),
            other => panic!("expected a COMMIT, got {other:?}"),
        };
        assert_eq!([commit(&mut sock), commit(&mut sock)], [(0, 4), (2, 3)]);
        // Progress follows the `COMMIT`s; once it shows them, it was
        // written exactly once.
        let settled = progress(7, &[4, 0, 3]);
        while FollowerProgress::load(&progress_path) != settled {
            std::thread::yield_now();
        }
        assert_eq!(writes.get() - writes_before, 1);
        // The next thing the follower says answers the next entry:
        // nothing else was sent for the burst.
        write_repl_msg(
            &mut sock,
            &ReplMsg::Entry {
                shard: 1,
                seq: 0,
                bytes: registration("client-0003"),
            },
        )
        .unwrap();
        assert_eq!(commit(&mut sock), (1, 1));

        let mut tags: Vec<String> = server
            .results()
            .unwrap()
            .into_iter()
            .map(|r| r.testcase)
            .collect();
        tags.sort();
        let expected = [
            "client-0001-b1",
            "client-0001-b2",
            "client-0001-b3",
            "client-0002-b1",
            "client-0002-b2",
        ];
        assert_eq!(tags, expected);
        assert_eq!(server.client_count(), 3);
        assert_eq!(
            (
                server.applied_seq("client-0001"),
                server.applied_seq("client-0002")
            ),
            (3, 2)
        );
        drop(sock);
        follower.stop();
    }
}
