//! [`CachedIo`]: the ARC page cache as a drop-in [`uucs_wal::Io`]
//! backend, plus [`IoPages`], the adapter that lets a [`PageCache`]
//! run directly over any `Io` (including the `MemIo` fault-injection
//! harness).
//!
//! `CachedIo` is **write-through**: every mutation reaches the inner
//! backend before the cache is updated, so durability and crash
//! semantics are *exactly* those of the wrapped backend — wrapping
//! `MemIo` changes nothing about what a simulated power cut loses, and
//! wrapping `StdIo` changes nothing about what an fsync guarantees.
//! What the cache buys is the read side: whole-file reads (WAL replay,
//! checkpoint load, snapshot-then-tail backfill, compaction scans) are
//! assembled from resident pages when warm and populate the cache when
//! cold. A capacity of zero pages disables the cache entirely and
//! every call is a direct passthrough.

use crate::cache::{CacheObserver, CacheStats, PageCache, PageIo, PageKey};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use uucs_wal::Io;

/// Default page size for [`CachedIo`]: 4 KiB, the common filesystem
/// block size.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// A no-backend [`PageIo`]: `CachedIo` performs its own backend reads
/// (it needs the path, not just the file id) and never holds dirty
/// pages, so the inner `PageCache` never touches this.
#[derive(Debug, Default, Clone, Copy)]
struct NoBackend;

impl PageIo for NoBackend {
    fn read_page(&self, _key: PageKey, _page_size: usize) -> io::Result<Vec<u8>> {
        Err(io::Error::other("CachedIo reads through paths, not PageIo"))
    }
    fn write_page(&self, _key: PageKey, _data: &[u8]) -> io::Result<()> {
        Err(io::Error::other("CachedIo pages are never dirty"))
    }
}

#[derive(Debug, Clone, Copy)]
struct FileMeta {
    id: u64,
    /// The inner file's length, when known. `None` forces a re-stat.
    len: Option<u64>,
}

struct CacheState {
    cache: PageCache<NoBackend>,
    files: HashMap<PathBuf, FileMeta>,
    next_id: u64,
}

struct Shared<I> {
    inner: I,
    /// `None` when the cache is disabled (capacity 0): passthrough.
    state: Option<Mutex<CacheState>>,
    page_size: usize,
}

/// A caching [`Io`] wrapper; clones share the cache (like `StdIo`'s
/// shared handle table), so every store shard of a flavor can feed one
/// cache.
pub struct CachedIo<I: Io> {
    shared: Arc<Shared<I>>,
}

impl<I: Io> Clone for CachedIo<I> {
    fn clone(&self) -> Self {
        CachedIo {
            shared: self.shared.clone(),
        }
    }
}

impl<I: Io> std::fmt::Debug for CachedIo<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedIo")
            .field("enabled", &self.shared.state.is_some())
            .field("page_size", &self.shared.page_size)
            .finish()
    }
}

impl<I: Io> CachedIo<I> {
    /// Wraps `inner` with an ARC cache of `capacity_pages` pages of
    /// `page_size` bytes. `capacity_pages == 0` builds a passthrough.
    pub fn new(inner: I, capacity_pages: usize, page_size: usize) -> Self {
        let page_size = page_size.max(64);
        let state = (capacity_pages > 0).then(|| {
            Mutex::new(CacheState {
                cache: PageCache::new(capacity_pages, page_size, NoBackend),
                files: HashMap::new(),
                next_id: 0,
            })
        });
        CachedIo {
            shared: Arc::new(Shared {
                inner,
                state,
                page_size,
            }),
        }
    }

    /// A disabled cache: every operation goes straight to `inner`.
    pub fn passthrough(inner: I) -> Self {
        CachedIo::new(inner, 0, DEFAULT_PAGE_SIZE)
    }

    /// Whether caching is active (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.shared.state.is_some()
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &I {
        &self.shared.inner
    }

    /// Cache counters; zeros when disabled.
    pub fn stats(&self) -> CacheStats {
        match &self.shared.state {
            Some(state) => self.lock(state).cache.stats(),
            None => CacheStats::default(),
        }
    }

    /// Installs a traffic observer on the underlying page cache (no-op
    /// when disabled).
    pub fn set_observer(&self, observer: Box<dyn CacheObserver>) {
        if let Some(state) = &self.shared.state {
            self.lock(state).cache.set_observer(observer);
        }
    }

    fn lock<'a>(&self, state: &'a Mutex<CacheState>) -> MutexGuard<'a, CacheState> {
        state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn page_size(&self) -> u64 {
        self.shared.page_size as u64
    }

    /// The file's meta entry, creating an id on first touch.
    fn meta<'a>(state: &'a mut CacheState, path: &Path) -> &'a mut FileMeta {
        let next = &mut state.next_id;
        state
            .files
            .entry(path.to_path_buf())
            .or_insert_with(|| {
                let id = *next;
                *next += 1;
                FileMeta { id, len: None }
            })
    }

    /// Forgets everything cached about `path` (after a failed or
    /// shape-changing mutation).
    fn forget(state: &mut CacheState, path: &Path) {
        if let Some(meta) = state.files.remove(path) {
            state.cache.invalidate_file(meta.id);
        }
    }

    /// The inner file length, from the meta cache or a stat.
    fn stat_len(&self, state: &mut CacheState, path: &Path) -> io::Result<u64> {
        if let Some(meta) = state.files.get(path) {
            if let Some(len) = meta.len {
                return Ok(len);
            }
        }
        let len = self.shared.inner.len(path)?;
        Self::meta(state, path).len = Some(len);
        Ok(len)
    }

    /// Installs `data` (the whole file image) as pages.
    fn install_all(state: &mut CacheState, id: u64, page_size: usize, data: &[u8]) {
        for (page, chunk) in data.chunks(page_size).enumerate() {
            let key = PageKey {
                file: id,
                page: page as u32,
            };
            let _ = state.cache.install(key, chunk.to_vec());
        }
    }
}

impl<I: Io> Io for CachedIo<I> {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.shared.inner.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.shared.inner.list(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let Some(state_mutex) = &self.shared.state else {
            return self.shared.inner.read(path);
        };
        let mut state = self.lock(state_mutex);
        let page_size = self.shared.page_size;
        // Warm path: assemble the whole file from resident pages.
        if let Some(meta) = state.files.get(path).copied() {
            if let Some(len) = meta.len {
                let pages = len.div_ceil(self.page_size()) as u32;
                let mut out = Vec::with_capacity(len as usize);
                let mut complete = true;
                for page in 0..pages {
                    let key = PageKey {
                        file: meta.id,
                        page,
                    };
                    match state.cache.lookup(key) {
                        Some(data) => out.extend_from_slice(data),
                        None => {
                            complete = false;
                            break;
                        }
                    }
                }
                if complete && out.len() as u64 == len {
                    return Ok(out);
                }
            }
        }
        // Cold path: one backend read (same syscall shape as uncached),
        // then populate.
        let data = self.shared.inner.read(path)?;
        let meta = Self::meta(&mut state, path);
        meta.len = Some(data.len() as u64);
        let id = meta.id;
        Self::install_all(&mut state, id, page_size, &data);
        Ok(data)
    }

    fn create(&self, path: &Path) -> io::Result<()> {
        let r = self.shared.inner.create(path);
        if let Some(state_mutex) = &self.shared.state {
            let mut state = self.lock(state_mutex);
            match &r {
                Ok(()) => {
                    let meta = Self::meta(&mut state, path);
                    meta.len = Some(0);
                    let id = meta.id;
                    state.cache.invalidate_file(id);
                }
                Err(_) => Self::forget(&mut state, path),
            }
        }
        r
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let Some(state_mutex) = &self.shared.state else {
            return self.shared.inner.append(path, data);
        };
        let mut state = self.lock(state_mutex);
        // Know the pre-append length first, so the cached tail page can
        // be kept coherent. A stat failure just means "file is new".
        let old_len = self.stat_len(&mut state, path).unwrap_or(0);
        if let Err(e) = self.shared.inner.append(path, data) {
            // The backend may have partially applied (short write):
            // cached metadata is no longer trustworthy.
            Self::forget(&mut state, path);
            return Err(e);
        }
        let page_size = self.page_size();
        let meta = Self::meta(&mut state, path);
        meta.len = Some(old_len + data.len() as u64);
        let id = meta.id;
        // Keep the resident tail page coherent with the grown file:
        // extend it in place when the append lands exactly at its end,
        // otherwise drop it (a later read re-fetches).
        let tail_page = (old_len / page_size) as u32;
        let within = (old_len % page_size) as usize;
        let key = PageKey {
            file: id,
            page: tail_page,
        };
        match state.cache.peek(key).map(<[u8]>::len) {
            Some(l) if l == within && within > 0 => {
                let take = data.len().min(self.shared.page_size - within);
                state.cache.extend(key, &data[..take]);
            }
            Some(_) => {
                // Stale or boundary-misaligned tail page: drop it (and
                // everything after, defensively).
                state.cache.invalidate_from(id, tail_page);
            }
            None => {}
        }
        // Appended bytes beyond the resident tail page are NOT
        // installed eagerly — the first read caches them. This keeps a
        // write-heavy log from churning the read cache.
        Ok(())
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.shared.inner.sync(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let r = self.shared.inner.truncate(path, len);
        if let Some(state_mutex) = &self.shared.state {
            let mut state = self.lock(state_mutex);
            match &r {
                Ok(()) => {
                    if let Some(meta) = state.files.get_mut(path) {
                        // Backends differ on truncate-past-EOF (std
                        // extends, MemIo clamps): re-stat next time.
                        meta.len = None;
                        let id = meta.id;
                        let from = (len / self.page_size()) as u32;
                        state.cache.invalidate_from(id, from);
                    }
                }
                Err(_) => Self::forget(&mut state, path),
            }
        }
        r
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let r = self.shared.inner.rename(from, to);
        if let Some(state_mutex) = &self.shared.state {
            let mut state = self.lock(state_mutex);
            match &r {
                Ok(()) => {
                    Self::forget(&mut state, to);
                    if let Some(meta) = state.files.remove(from) {
                        // The id (and its pages) follow the file.
                        state.files.insert(to.to_path_buf(), meta);
                    }
                }
                Err(_) => {
                    Self::forget(&mut state, from);
                    Self::forget(&mut state, to);
                }
            }
        }
        r
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let r = self.shared.inner.remove(path);
        if let Some(state_mutex) = &self.shared.state {
            let mut state = self.lock(state_mutex);
            // Forget on success AND failure: stale state helps nobody.
            Self::forget(&mut state, path);
        }
        r
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        let Some(state_mutex) = &self.shared.state else {
            return self.shared.inner.len(path);
        };
        let mut state = self.lock(state_mutex);
        self.stat_len(&mut state, path)
    }

    /// [`CachedIo::read_at`]'s bytes — resident pages, the rest fetched
    /// and installed a page at a time — copied into `buf`.
    fn read_into(&self, path: &Path, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        if self.shared.state.is_none() {
            return self.shared.inner.read_into(path, offset, buf);
        }
        let bytes = self.read_at(path, offset, buf.len())?;
        buf[..bytes.len()].copy_from_slice(&bytes);
        Ok(bytes.len())
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let Some(state_mutex) = &self.shared.state else {
            return self.shared.inner.read_at(path, offset, len);
        };
        let mut state = self.lock(state_mutex);
        let file_len = self.stat_len(&mut state, path)?;
        let start = offset.min(file_len);
        let end = offset.saturating_add(len as u64).min(file_len);
        if start >= end {
            return Ok(Vec::new());
        }
        let page_size = self.page_size();
        let id = Self::meta(&mut state, path).id;
        let mut out = Vec::with_capacity((end - start) as usize);
        let mut pos = start;
        while pos < end {
            let page = (pos / page_size) as u32;
            let page_start = u64::from(page) * page_size;
            let within = (pos - page_start) as usize;
            let key = PageKey { file: id, page };
            let have = state.cache.lookup(key).map(<[u8]>::to_vec);
            let data = match have {
                Some(d) => d,
                None => {
                    let want = (file_len - page_start).min(page_size) as usize;
                    let d = self
                        .shared
                        .inner
                        .read_at(path, page_start, want)?;
                    let _ = state.cache.install(key, d.clone());
                    d
                }
            };
            if within >= data.len() {
                break; // page shorter than expected (concurrent truncation)
            }
            let take = (data.len() - within).min((end - pos) as usize);
            out.extend_from_slice(&data[within..within + take]);
            pos += take as u64;
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// IoPages: PageIo over any uucs_wal::Io
// ---------------------------------------------------------------------------

/// Adapts any [`uucs_wal::Io`] backend into a [`PageIo`], so a
/// [`PageCache`] — and its fault-injection tests — can run directly
/// over [`MemIo`](uucs_wal::MemIo) or [`StdIo`](uucs_wal::StdIo).
/// Files are registered by path and addressed by the returned id.
///
/// Write-back honors the backend's append-only surface: a dirty page
/// can only be persisted when it lands at (or inside nothing but) the
/// current end of the file, which is exactly what
/// [`PageCache::flush_file`]'s ascending-order contract produces for
/// append-shaped workloads.
pub struct IoPages<I: Io> {
    io: I,
    page_size: usize,
    paths: Mutex<(HashMap<u64, PathBuf>, u64)>,
}

impl<I: Io> IoPages<I> {
    /// Wraps `io` with an empty path registry; `page_size` must match
    /// the [`PageCache`] this adapter backs.
    pub fn new(io: I, page_size: usize) -> Self {
        IoPages {
            io,
            page_size: page_size.max(64),
            paths: Mutex::new((HashMap::new(), 0)),
        }
    }

    /// Registers `path` and returns the file id pages of it use.
    pub fn register(&self, path: impl Into<PathBuf>) -> u64 {
        let mut guard = self.paths.lock().unwrap_or_else(PoisonError::into_inner);
        let id = guard.1;
        guard.1 += 1;
        guard.0.insert(id, path.into());
        id
    }

    /// The wrapped backend.
    pub fn io(&self) -> &I {
        &self.io
    }

    fn path_of(&self, file: u64) -> io::Result<PathBuf> {
        self.paths
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .0
            .get(&file)
            .cloned()
            .ok_or_else(|| io::Error::other(format!("unregistered file id {file}")))
    }
}

impl<I: Io> PageIo for IoPages<I> {
    fn read_page(&self, key: PageKey, page_size: usize) -> io::Result<Vec<u8>> {
        let path = self.path_of(key.file)?;
        self.io
            .read_at(&path, u64::from(key.page) * page_size as u64, page_size)
    }

    fn write_page(&self, key: PageKey, data: &[u8]) -> io::Result<()> {
        let path = self.path_of(key.file)?;
        let offset = u64::from(key.page) * self.page_size as u64;
        let cur = match self.io.len(&path) {
            Ok(l) => l,
            Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e),
        };
        if offset > cur {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("append-only backend: page at {offset} past EOF {cur}"),
            ));
        }
        if offset < cur {
            // Rewriting an existing page: only a bit-identical rewrite
            // of the current tail page is representable (truncate +
            // re-append); anything else is unsupported.
            self.io.truncate(&path, offset)?;
        }
        self.io.append(&path, data)
    }
}
