//! The storage backend abstraction the WAL writes through.
//!
//! [`Wal`](crate::Wal) is generic over [`Io`] so the same recovery code
//! runs against two backends:
//!
//! * [`StdIo`] — real files via `std::fs`, with a cached append handle
//!   per path so the hot append path does not reopen the file.
//! * [`MemIo`] — an in-memory filesystem that models the volatile page
//!   cache (bytes written but not yet synced) and injects faults at the
//!   Nth mutating operation: a plain failure, a short write, or both.
//!   [`MemIo::crash`] then simulates power loss: every file keeps its
//!   synced prefix plus a caller-chosen fraction of its unsynced tail,
//!   which is exactly how torn frames arise on real disks.
//!
//! The model deliberately assumes *prefix* persistence: an unsynced tail
//! survives a crash only as a contiguous prefix, never as scattered
//! garbage. Append-only files on journaling filesystems behave this way
//! (data is flushed in order); the recovery policy in
//! [`wal`](crate::wal) leans on it to tell a torn tail apart from bit
//! corruption.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// Filesystem operations the WAL needs, all path-addressed.
pub trait Io {
    /// Creates a directory and its parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// File names (not paths) directly under `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates (or truncates) an empty file.
    fn create(&self, path: &Path) -> io::Result<()>;
    /// Appends bytes at the end of a file, creating it if missing.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Forces the file's contents to stable storage.
    fn sync(&self, path: &Path) -> io::Result<()>;
    /// Truncates the file to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// The file's length in bytes.
    fn len(&self, path: &Path) -> io::Result<u64>;
    /// Fills `buf` with the file's bytes from byte `offset` on and
    /// returns how many it copied: fewer than `buf.len()` only when the
    /// file ends first (none at or past its end). The caller owns the
    /// buffer, so a scan can read a file of any size through one buffer.
    fn read_into(&self, path: &Path, offset: u64, buf: &mut [u8]) -> io::Result<usize>;
    /// Reads up to `len` bytes starting at byte `offset`. Reading past
    /// the end of the file is not an error — the result is simply
    /// shorter (possibly empty).
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let len = len.min(self.len(path)?.saturating_sub(offset) as usize);
        let mut buf = vec![0; len];
        let got = self.read_into(path, offset, &mut buf)?;
        buf.truncate(got);
        Ok(buf)
    }
}

// ---------------------------------------------------------------------------
// StdIo
// ---------------------------------------------------------------------------

/// The real-filesystem backend.
///
/// Append handles are cached per path (and evicted on create,
/// truncate, rename and remove) so that a `SyncPolicy::Always` workload
/// costs one `write` + one `fsync` per record, not an `open` as well.
///
/// Clones share the table, and a server gives every shard of a store
/// flavor a clone — so the table's lock is held only to look a handle
/// up or to insert one, never across a `write` or an `fsync`: one
/// shard's fsync must not queue the appends and fsyncs of its siblings
/// behind it. Ordering *within* a file is the caller's job (the WAL
/// writes a segment from one thread at a time, under its store's lock).
#[derive(Debug, Default, Clone)]
pub struct StdIo {
    handles: Arc<Mutex<HashMap<PathBuf, Arc<File>>>>,
}

impl StdIo {
    /// A fresh backend with an empty handle cache.
    pub fn new() -> StdIo {
        StdIo::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<PathBuf, Arc<File>>> {
        self.handles.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn evict(&self, path: &Path) {
        self.lock().remove(path);
    }

    fn cached(&self, path: &Path) -> Option<Arc<File>> {
        self.lock().get(path).cloned()
    }

    /// The cached append handle for `path`, opened (creating the file)
    /// on first use. The open runs outside the lock; if two threads
    /// race it, both handles append to the same file and the first one
    /// inserted is the one kept.
    fn append_handle(&self, path: &Path) -> io::Result<Arc<File>> {
        if let Some(file) = self.cached(path) {
            return Ok(file);
        }
        let file = Arc::new(OpenOptions::new().create(true).append(true).open(path)?);
        Ok(self.lock().entry(path.to_path_buf()).or_insert(file).clone())
    }
}

impl Io for StdIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        Ok(names)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn create(&self, path: &Path) -> io::Result<()> {
        self.evict(path);
        drop(File::create(path)?);
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        (&*self.append_handle(path)?).write_all(data)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        match self.cached(path) {
            Some(file) => file.sync_all(),
            None => File::open(path)?.sync_all(),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.evict(path);
        OpenOptions::new().write(true).open(path)?.set_len(len)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.evict(from);
        self.evict(to);
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.evict(path);
        std::fs::remove_file(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    /// A positional read through a handle of its own: the cached
    /// handles are write-only (opened for appending), and opening them
    /// read-write too would make an appender one of its file's readers.
    fn read_into(&self, path: &Path, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        use std::os::unix::fs::FileExt;
        let file = File::open(path)?;
        let mut got = 0;
        while got < buf.len() {
            match file.read_at(&mut buf[got..], offset + got as u64) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(got)
    }
}

// ---------------------------------------------------------------------------
// MemIo
// ---------------------------------------------------------------------------

/// What to inject at the Nth mutating operation (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Index of the mutating operation that fails. Reads never count.
    pub fail_at: u64,
    /// If the failing operation is an append, keep only this many bytes
    /// of it in the (volatile) file image — a short write. `None` keeps
    /// the whole write buffered, as when the process dies after `write`
    /// returned but before `fsync`.
    pub short_write: Option<usize>,
}

#[derive(Debug, Default, Clone)]
struct MemFile {
    /// Full content, including the unsynced tail.
    bytes: Vec<u8>,
    /// Length of the prefix that has reached stable storage.
    synced_len: usize,
}

#[derive(Debug, Default, Clone)]
struct MemState {
    files: BTreeMap<PathBuf, MemFile>,
    dirs: BTreeSet<PathBuf>,
    mutating_ops: u64,
    plan: Option<FaultPlan>,
    /// Set once a fault fired; every later operation fails until
    /// [`MemIo::crash`] "reboots" the machine.
    dead: bool,
}

/// The in-memory fault-injection backend. Cloning shares the state, so
/// a test keeps a handle to the same "disk" its `Wal` writes to.
#[derive(Debug, Default, Clone)]
pub struct MemIo {
    inner: Arc<Mutex<MemState>>,
}

fn injected(msg: &str) -> io::Error {
    io::Error::other(format!("injected fault: {msg}"))
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("{path:?} not found"))
}

impl MemIo {
    /// An empty in-memory filesystem with no fault planned.
    pub fn new() -> MemIo {
        MemIo::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An independent copy of this filesystem as it is now — the same
    /// files with the same synced prefixes — so that two recovery
    /// procedures can each be given "the same disk" and compared.
    pub fn fork(&self) -> MemIo {
        MemIo {
            inner: Arc::new(Mutex::new(self.lock().clone())),
        }
    }

    /// Arms (or disarms) the fault plan.
    pub fn set_fault(&self, plan: Option<FaultPlan>) {
        self.lock().plan = plan;
    }

    /// Mutating operations performed so far — the domain of
    /// [`FaultPlan::fail_at`].
    pub fn mutating_ops(&self) -> u64 {
        self.lock().mutating_ops
    }

    /// True once an injected fault has fired.
    pub fn is_dead(&self) -> bool {
        self.lock().dead
    }

    /// Simulates power loss and reboot: every file keeps its synced
    /// prefix plus the first `flush_frac` (0.0–1.0) of its unsynced
    /// tail, the fault plan is cleared, and operations work again.
    pub fn crash(&self, flush_frac: f64) {
        let mut state = self.lock();
        let frac = flush_frac.clamp(0.0, 1.0);
        for file in state.files.values_mut() {
            let volatile = file.bytes.len() - file.synced_len;
            let kept = (volatile as f64 * frac).floor() as usize;
            file.bytes.truncate(file.synced_len + kept);
            file.synced_len = file.bytes.len();
        }
        state.plan = None;
        state.dead = false;
    }

    /// Flips one bit of a file's *durable* image — bit corruption, as
    /// opposed to the prefix truncation a crash produces.
    pub fn corrupt(&self, path: &Path, offset: usize) {
        let mut state = self.lock();
        if let Some(file) = state.files.get_mut(path) {
            if offset < file.bytes.len() {
                file.bytes[offset] ^= 0x40;
            }
        }
    }

    /// The current full content of a file (test inspection).
    pub fn contents(&self, path: &Path) -> Option<Vec<u8>> {
        self.lock().files.get(path).map(|f| f.bytes.clone())
    }

    /// Gates a mutating operation through the fault plan. Returns
    /// `Ok(fault_now)`: `fault_now = true` means *this* operation is the
    /// failing one (the caller applies its partial effect, then errors).
    fn gate(state: &mut MemState) -> io::Result<bool> {
        if state.dead {
            return Err(injected("backend offline until crash()+reopen"));
        }
        let op = state.mutating_ops;
        state.mutating_ops += 1;
        if state.plan.is_some_and(|p| p.fail_at == op) {
            state.dead = true;
            return Ok(true);
        }
        Ok(false)
    }

    fn read_gate(state: &MemState) -> io::Result<()> {
        if state.dead {
            return Err(injected("backend offline until crash()+reopen"));
        }
        Ok(())
    }
}

impl Io for MemIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if Self::gate(&mut state)? {
            return Err(injected("create_dir_all"));
        }
        state.dirs.insert(dir.to_path_buf());
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let state = self.lock();
        Self::read_gate(&state)?;
        if !state.dirs.contains(dir) && !state.files.keys().any(|p| p.parent() == Some(dir)) {
            return Err(not_found(dir));
        }
        Ok(state
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .collect())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let state = self.lock();
        Self::read_gate(&state)?;
        state
            .files
            .get(path)
            .map(|f| f.bytes.clone())
            .ok_or_else(|| not_found(path))
    }

    fn create(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if Self::gate(&mut state)? {
            return Err(injected("create"));
        }
        state.files.insert(path.to_path_buf(), MemFile::default());
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut state = self.lock();
        let fault = Self::gate(&mut state)?;
        let short = state.plan.and_then(|p| p.short_write);
        let file = state.files.entry(path.to_path_buf()).or_default();
        if fault {
            // The write reached the page cache only partially (short
            // write) or fully-but-unsynced; either way the caller sees
            // an error and the bytes are volatile.
            let keep = short.unwrap_or(data.len()).min(data.len());
            file.bytes.extend_from_slice(&data[..keep]);
            return Err(injected("append"));
        }
        file.bytes.extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if Self::gate(&mut state)? {
            return Err(injected("sync"));
        }
        let file = state.files.get_mut(path).ok_or_else(|| not_found(path))?;
        file.synced_len = file.bytes.len();
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut state = self.lock();
        if Self::gate(&mut state)? {
            return Err(injected("truncate"));
        }
        let file = state.files.get_mut(path).ok_or_else(|| not_found(path))?;
        file.bytes.truncate(len as usize);
        file.synced_len = file.synced_len.min(file.bytes.len());
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if Self::gate(&mut state)? {
            return Err(injected("rename"));
        }
        let file = state.files.remove(from).ok_or_else(|| not_found(from))?;
        state.files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if Self::gate(&mut state)? {
            return Err(injected("remove"));
        }
        state.files.remove(path).ok_or_else(|| not_found(path))?;
        Ok(())
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        let state = self.lock();
        Self::read_gate(&state)?;
        state
            .files
            .get(path)
            .map(|f| f.bytes.len() as u64)
            .ok_or_else(|| not_found(path))
    }

    fn read_into(&self, path: &Path, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let state = self.lock();
        Self::read_gate(&state)?;
        let bytes = &state.files.get(path).ok_or_else(|| not_found(path))?.bytes;
        let from = bytes.len().min(offset.try_into().unwrap_or(usize::MAX));
        let n = buf.len().min(bytes.len() - from);
        buf[..n].copy_from_slice(&bytes[from..from + n]);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memio_models_durable_and_volatile() {
        let io = MemIo::new();
        let p = Path::new("/w/a.wal");
        io.create_dir_all(Path::new("/w")).unwrap();
        io.append(p, b"synced").unwrap();
        io.sync(p).unwrap();
        io.append(p, b"-volatile").unwrap();
        assert_eq!(io.read(p).unwrap(), b"synced-volatile");
        // Power loss with nothing flushed: the volatile tail vanishes.
        io.crash(0.0);
        assert_eq!(io.read(p).unwrap(), b"synced");
    }

    #[test]
    fn crash_keeps_a_prefix_of_the_volatile_tail() {
        let io = MemIo::new();
        let p = Path::new("/w/a.wal");
        io.append(p, b"dd").unwrap();
        io.sync(p).unwrap();
        io.append(p, b"0123456789").unwrap();
        io.crash(0.5);
        assert_eq!(io.read(p).unwrap(), b"dd01234");
    }

    #[test]
    fn fault_fires_at_the_nth_op_and_kills_the_backend() {
        let io = MemIo::new();
        let p = Path::new("/w/a.wal");
        io.set_fault(Some(FaultPlan {
            fail_at: 1,
            short_write: Some(3),
        }));
        io.append(p, b"first").unwrap(); // op 0
        let err = io.append(p, b"second").unwrap_err(); // op 1: fails short
        assert!(err.to_string().contains("injected"));
        assert!(io.is_dead());
        assert!(io.sync(p).is_err(), "everything fails until reboot");
        io.crash(1.0); // flush everything that made it to the cache
        assert_eq!(io.read(p).unwrap(), b"firstsec");
    }

    #[test]
    fn list_and_rename_and_remove() {
        let io = MemIo::new();
        let dir = Path::new("/w");
        io.create_dir_all(dir).unwrap();
        io.create(&dir.join("a")).unwrap();
        io.create(&dir.join("b.tmp")).unwrap();
        io.rename(&dir.join("b.tmp"), &dir.join("b")).unwrap();
        let mut names = io.list(dir).unwrap();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
        io.remove(&dir.join("a")).unwrap();
        assert_eq!(io.list(dir).unwrap(), vec!["b"]);
        assert!(io.read(&dir.join("a")).is_err());
    }

    #[test]
    fn read_at_clamps_to_eof_on_both_backends() {
        let mem = MemIo::new();
        let p = Path::new("/w/a.wal");
        mem.append(p, b"0123456789").unwrap();
        assert_eq!(mem.read_at(p, 2, 4).unwrap(), b"2345");
        assert_eq!(mem.read_at(p, 8, 100).unwrap(), b"89");
        assert_eq!(mem.read_at(p, 50, 4).unwrap(), b"");

        let tmp = uucs_harness::TempDir::new("uucs-wal-read-at");
        let io = StdIo::new();
        let q = tmp.path().join("x.wal");
        io.append(&q, b"0123456789").unwrap();
        assert_eq!(io.read_at(&q, 2, 4).unwrap(), b"2345");
        assert_eq!(io.read_at(&q, 8, 100).unwrap(), b"89");
        assert_eq!(io.read_at(&q, 50, 4).unwrap(), b"");
    }

    /// One file's slow write must not hold up another file of the same
    /// `StdIo`: a server's shards share the handle table through
    /// clones, so a lock held across `write_all` or `sync_all` would
    /// run a whole store flavor's appends and fsyncs one at a time.
    ///
    /// The slow file is a FIFO whose reader takes one byte and stops:
    /// the appender is then provably parked inside `write_all` (its
    /// payload is larger than any pipe buffer) for as long as the test
    /// likes. The timeout only turns a deadlock into a failure.
    #[cfg(unix)]
    #[test]
    fn a_write_parked_on_one_file_does_not_block_another() {
        use std::io::Read;
        use std::sync::mpsc;
        use std::time::Duration;

        let tmp = uucs_harness::TempDir::new("uucs-wal-stdio-fifo");
        let fifo = tmp.path().join("slow.wal");
        let made = std::process::Command::new("mkfifo").arg(&fifo).status();
        assert!(matches!(&made, Ok(s) if s.success()), "mkfifo {fifo:?}: {made:?}");

        let io = StdIo::new();
        let parked = {
            let (io, fifo) = (io.clone(), fifo.clone());
            // Linux caps a pipe buffer at 1 MiB; the write cannot finish.
            std::thread::spawn(move || io.append(&fifo, &vec![0x5a; 4 << 20]))
        };
        // Opening the read side lets the appender's open return; the
        // first byte arriving proves it is inside `write_all`.
        let mut reader = File::open(&fifo).unwrap();
        reader.read_exact(&mut [0u8; 1]).unwrap();

        let (done, finished) = mpsc::channel();
        let other = {
            let (io, path) = (io.clone(), tmp.path().join("fast.wal"));
            std::thread::spawn(move || {
                let r = io.append(&path, b"record").and_then(|()| io.sync(&path));
                done.send(r).ok();
            })
        };
        let unblocked = finished.recv_timeout(Duration::from_secs(30));
        // Closing the read side fails the parked write (EPIPE), so both
        // threads end whether or not the assertion below holds.
        drop(reader);
        assert!(parked.join().unwrap().is_err(), "the FIFO write cannot complete");
        other.join().unwrap();
        unblocked
            .expect("append + sync on another path waited for the parked write")
            .unwrap();
        assert_eq!(io.read(&tmp.path().join("fast.wal")).unwrap(), b"record");
    }

    #[test]
    fn stdio_roundtrip() {
        let tmp = uucs_harness::TempDir::new("uucs-wal-stdio");
        let dir = tmp.path().to_path_buf();
        let io = StdIo::new();
        io.create_dir_all(&dir).unwrap();
        let p = dir.join("x.wal");
        io.create(&p).unwrap();
        io.append(&p, b"hello ").unwrap();
        io.append(&p, b"wal").unwrap();
        io.sync(&p).unwrap();
        assert_eq!(io.read(&p).unwrap(), b"hello wal");
        assert_eq!(io.len(&p).unwrap(), 9);
        io.truncate(&p, 5).unwrap();
        assert_eq!(io.read(&p).unwrap(), b"hello");
        // Truncation evicted the append handle; appends continue at the
        // new end.
        io.append(&p, b"!").unwrap();
        assert_eq!(io.read(&p).unwrap(), b"hello!");
        io.rename(&p, &dir.join("y.wal")).unwrap();
        assert_eq!(io.list(&dir).unwrap(), vec!["y.wal"]);
        io.remove(&dir.join("y.wal")).unwrap();
    }
}
