//! The raw block store under the buffer pool.
//!
//! Two implementations: an in-memory store for tests/benches (so page-access
//! *counts* rather than OS I/O dominate, matching the paper's analytic
//! model), and a real file-backed store (one OS file per storage file) for
//! durability and recovery tests. A fault-injection wrapper simulates I/O
//! failures for error-path tests.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, IoSliceMut, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::error::{Result, StorageError};
use crate::oid::{FileId, PageId};
use crate::page::{Page, PAGE_SIZE};

/// Abstract block device: files of fixed-size pages.
pub trait Disk: Send + Sync {
    /// Create a new empty file, returning its id.
    fn create_file(&self) -> Result<FileId>;
    /// Remove a file and all its pages.
    fn drop_file(&self, file: FileId) -> Result<()>;
    /// Number of pages currently allocated to `file`.
    fn page_count(&self, file: FileId) -> Result<u32>;
    /// Append a zeroed page, returning its id.
    fn allocate_page(&self, file: FileId) -> Result<PageId>;
    /// Read a page into `buf`.
    fn read_page(&self, file: FileId, page: PageId, buf: &mut Page) -> Result<()>;
    /// Read `bufs.len()` contiguous pages starting at `start` — the
    /// readahead entry point. The default loops [`Disk::read_page`] (so
    /// wrappers like the fault injector keep ticking per page); real
    /// devices override it with one positioned bulk read.
    fn read_pages(&self, file: FileId, start: PageId, bufs: &mut [Page]) -> Result<()> {
        for (i, buf) in bufs.iter_mut().enumerate() {
            self.read_page(file, PageId(start.0 + i as u32), buf)?;
        }
        Ok(())
    }
    /// Write a page.
    fn write_page(&self, file: FileId, page: PageId, data: &Page) -> Result<()>;
    /// Flush everything to stable storage.
    fn sync(&self) -> Result<()>;
    /// All existing file ids (for recovery / catalog bootstrap).
    fn files(&self) -> Vec<FileId>;
    /// Retry counters, when some layer of this disk stack is a
    /// [`RetryDisk`]. Wrappers forward to their inner disk; plain devices
    /// keep the default `None`. The storage manager uses this to surface
    /// `io_retries`/`io_gave_up` in `SHOW METRICS` without knowing how
    /// the harness composed its wrappers.
    fn retry_stats(&self) -> Option<std::sync::Arc<RetryStats>> {
        None
    }
}

/// In-memory disk. The default substrate for tests and benches.
///
/// A page holds no memory until it is first written: allocated and never
/// written it reads as zeros, which is what the file-backed disk gives. A
/// database that fits its buffer pool and is never flushed therefore lives
/// once, in the pool, not twice.
pub struct MemDisk {
    state: Mutex<HashMap<FileId, Vec<Option<Page>>>>,
    next_file: AtomicU64,
}

impl Default for MemDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl MemDisk {
    pub fn new() -> Self {
        MemDisk {
            state: Mutex::new(HashMap::new()),
            next_file: AtomicU64::new(1),
        }
    }
}

impl Disk for MemDisk {
    fn create_file(&self) -> Result<FileId> {
        let id = FileId(self.next_file.fetch_add(1, Ordering::Relaxed) as u32);
        self.state.lock().insert(id, Vec::new());
        Ok(id)
    }

    fn drop_file(&self, file: FileId) -> Result<()> {
        self.state
            .lock()
            .remove(&file)
            .map(|_| ())
            .ok_or(StorageError::UnknownFile(file))
    }

    fn page_count(&self, file: FileId) -> Result<u32> {
        self.state
            .lock()
            .get(&file)
            .map(|v| v.len() as u32)
            .ok_or(StorageError::UnknownFile(file))
    }

    fn allocate_page(&self, file: FileId) -> Result<PageId> {
        let mut st = self.state.lock();
        let pages = st.get_mut(&file).ok_or(StorageError::UnknownFile(file))?;
        pages.push(None);
        Ok(PageId(pages.len() as u32 - 1))
    }

    fn read_page(&self, file: FileId, page: PageId, buf: &mut Page) -> Result<()> {
        let st = self.state.lock();
        let pages = st.get(&file).ok_or(StorageError::UnknownFile(file))?;
        let p = pages
            .get(page.0 as usize)
            .ok_or(StorageError::PageOutOfRange {
                file,
                page,
                pages: pages.len() as u32,
            })?;
        read_stored(p, buf);
        Ok(())
    }

    fn read_pages(&self, file: FileId, start: PageId, bufs: &mut [Page]) -> Result<()> {
        // One lock acquisition for the whole batch.
        let st = self.state.lock();
        let pages = st.get(&file).ok_or(StorageError::UnknownFile(file))?;
        for (i, buf) in bufs.iter_mut().enumerate() {
            let pid = PageId(start.0 + i as u32);
            let p = pages
                .get(pid.0 as usize)
                .ok_or(StorageError::PageOutOfRange {
                    file,
                    page: pid,
                    pages: pages.len() as u32,
                })?;
            read_stored(p, buf);
        }
        Ok(())
    }

    fn write_page(&self, file: FileId, page: PageId, data: &Page) -> Result<()> {
        let mut st = self.state.lock();
        let pages = st.get_mut(&file).ok_or(StorageError::UnknownFile(file))?;
        let n = pages.len() as u32;
        let p = pages
            .get_mut(page.0 as usize)
            .ok_or(StorageError::PageOutOfRange {
                file,
                page,
                pages: n,
            })?;
        match p {
            Some(stored) => stored.data.copy_from_slice(&data.data[..]),
            None => *p = Some(data.clone()),
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }

    fn files(&self) -> Vec<FileId> {
        let mut v: Vec<_> = self.state.lock().keys().copied().collect();
        v.sort();
        v
    }
}

/// Copy a [`MemDisk`] page out: zeros for one never written.
fn read_stored(stored: &Option<Page>, buf: &mut Page) {
    match stored {
        Some(p) => buf.data.copy_from_slice(&p.data[..]),
        None => buf.data.fill(0),
    }
}

/// File-backed disk: `<dir>/f<NNN>.mood`, one OS file per storage file.
pub struct FileDisk {
    dir: PathBuf,
    handles: Mutex<HashMap<FileId, File>>,
    /// Files written or extended since the last [`Disk::sync`]: the only
    /// ones it has to fsync.
    unsynced: Mutex<HashSet<FileId>>,
    next_file: AtomicU64,
}

impl FileDisk {
    /// Open (or create) a disk rooted at `dir`, discovering existing files.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut handles = HashMap::new();
        let mut max_id = 0u32;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(id) = name.strip_prefix('f').and_then(|s| s.strip_suffix(".mood")) {
                if let Ok(id) = id.parse::<u32>() {
                    let file = OpenOptions::new()
                        .read(true)
                        .write(true)
                        .open(entry.path())?;
                    handles.insert(FileId(id), file);
                    max_id = max_id.max(id);
                }
            }
        }
        Ok(FileDisk {
            dir,
            handles: Mutex::new(handles),
            unsynced: Mutex::new(HashSet::new()),
            next_file: AtomicU64::new(max_id as u64 + 1),
        })
    }

    fn path(&self, id: FileId) -> PathBuf {
        self.dir.join(format!("f{}.mood", id.0))
    }
}

impl Disk for FileDisk {
    fn create_file(&self) -> Result<FileId> {
        let id = FileId(self.next_file.fetch_add(1, Ordering::Relaxed) as u32);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(self.path(id))?;
        self.handles.lock().insert(id, file);
        self.unsynced.lock().insert(id);
        Ok(id)
    }

    fn drop_file(&self, file: FileId) -> Result<()> {
        let removed = self.handles.lock().remove(&file);
        if removed.is_none() {
            return Err(StorageError::UnknownFile(file));
        }
        self.unsynced.lock().remove(&file);
        std::fs::remove_file(self.path(file))?;
        Ok(())
    }

    fn page_count(&self, file: FileId) -> Result<u32> {
        let handles = self.handles.lock();
        let f = handles.get(&file).ok_or(StorageError::UnknownFile(file))?;
        Ok((f.metadata()?.len() / PAGE_SIZE as u64) as u32)
    }

    fn allocate_page(&self, file: FileId) -> Result<PageId> {
        let mut handles = self.handles.lock();
        let f = handles
            .get_mut(&file)
            .ok_or(StorageError::UnknownFile(file))?;
        let len = f.metadata()?.len();
        f.seek(SeekFrom::Start(len))?;
        f.write_all(&[0u8; PAGE_SIZE])?;
        self.unsynced.lock().insert(file);
        Ok(PageId((len / PAGE_SIZE as u64) as u32))
    }

    fn read_page(&self, file: FileId, page: PageId, buf: &mut Page) -> Result<()> {
        let mut handles = self.handles.lock();
        let f = handles
            .get_mut(&file)
            .ok_or(StorageError::UnknownFile(file))?;
        let pages = (f.metadata()?.len() / PAGE_SIZE as u64) as u32;
        if page.0 >= pages {
            return Err(StorageError::PageOutOfRange { file, page, pages });
        }
        f.seek(SeekFrom::Start(page.0 as u64 * PAGE_SIZE as u64))?;
        f.read_exact(&mut buf.data[..])?;
        Ok(())
    }

    fn read_pages(&self, file: FileId, start: PageId, bufs: &mut [Page]) -> Result<()> {
        if bufs.is_empty() {
            return Ok(());
        }
        let mut handles = self.handles.lock();
        let f = handles
            .get_mut(&file)
            .ok_or(StorageError::UnknownFile(file))?;
        let pages = (f.metadata()?.len() / PAGE_SIZE as u64) as u32;
        let last = start.0 as u64 + bufs.len() as u64 - 1;
        if last >= pages as u64 {
            return Err(StorageError::PageOutOfRange {
                file,
                page: PageId(last as u32),
                pages,
            });
        }
        // One seek, then vectored reads straight into the pages' own
        // buffers until the whole span has arrived (a read may stop short).
        f.seek(SeekFrom::Start(start.0 as u64 * PAGE_SIZE as u64))?;
        let (mut page, mut off) = (0, 0);
        while let Some((head, rest)) = bufs[page..].split_first_mut() {
            let first = IoSliceMut::new(&mut head.data[off..]);
            let rest = rest.iter_mut().map(|buf| IoSliceMut::new(&mut buf.data[..]));
            let mut iov: Vec<IoSliceMut<'_>> = std::iter::once(first).chain(rest).collect();
            let read = match f.read_vectored(&mut iov) {
                Ok(0) => {
                    let eof = "failed to fill whole buffer";
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, eof).into());
                }
                Ok(n) => off + n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            (page, off) = (page + read / PAGE_SIZE, read % PAGE_SIZE);
        }
        Ok(())
    }

    fn write_page(&self, file: FileId, page: PageId, data: &Page) -> Result<()> {
        let mut handles = self.handles.lock();
        let f = handles
            .get_mut(&file)
            .ok_or(StorageError::UnknownFile(file))?;
        let pages = (f.metadata()?.len() / PAGE_SIZE as u64) as u32;
        if page.0 >= pages {
            return Err(StorageError::PageOutOfRange { file, page, pages });
        }
        f.seek(SeekFrom::Start(page.0 as u64 * PAGE_SIZE as u64))?;
        f.write_all(&data.data[..])?;
        self.unsynced.lock().insert(file);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        let handles = self.handles.lock();
        let mut unsynced = self.unsynced.lock();
        for id in unsynced.iter() {
            if let Some(f) = handles.get(id) {
                f.sync_all()?;
            }
        }
        // Only now: a failed fsync above leaves every file to be retried.
        unsynced.clear();
        Ok(())
    }

    fn files(&self) -> Vec<FileId> {
        let mut v: Vec<_> = self.handles.lock().keys().copied().collect();
        v.sort();
        v
    }
}

/// Wrapper that fails reads/writes after a programmable countdown — used by
/// failure-injection tests to exercise kernel error paths.
pub struct FaultyDisk<D: Disk> {
    inner: D,
    plan: std::sync::Arc<crate::fault::FaultPlan>,
}

impl<D: Disk> FaultyDisk<D> {
    /// The legacy fuse: `ops_before_failure` operations succeed, then
    /// every subsequent I/O fails (equivalent to
    /// [`FaultPlan::fail_after`](crate::fault::FaultPlan::fail_after)).
    pub fn new(inner: D, ops_before_failure: u64) -> Self {
        Self::with_plan(inner, crate::fault::FaultPlan::fail_after(ops_before_failure))
    }

    /// Wrap `inner` with a scripted/seeded [`FaultPlan`]
    /// (fail-at-op-k, torn writes, seeded probability — see the `fault`
    /// module).
    ///
    /// [`FaultPlan`]: crate::fault::FaultPlan
    pub fn with_plan(inner: D, plan: std::sync::Arc<crate::fault::FaultPlan>) -> Self {
        FaultyDisk { inner, plan }
    }

    /// Disarm the plan (e.g. to let recovery succeed after a failure test).
    pub fn heal(&self) {
        self.plan.heal();
    }

    /// The shared plan (so a harness can inspect `ops()`/`fired_at()`).
    pub fn plan(&self) -> &std::sync::Arc<crate::fault::FaultPlan> {
        &self.plan
    }

    fn tick(&self) -> Result<()> {
        match self.plan.next() {
            // Bit flips only corrupt page writes; other ops pass clean.
            crate::fault::Fault::None | crate::fault::Fault::BitFlip => Ok(()),
            _ => Err(StorageError::Io("injected fault".into())),
        }
    }
}

impl<D: Disk> Disk for FaultyDisk<D> {
    fn create_file(&self) -> Result<FileId> {
        self.tick()?;
        self.inner.create_file()
    }
    fn drop_file(&self, file: FileId) -> Result<()> {
        self.tick()?;
        self.inner.drop_file(file)
    }
    fn page_count(&self, file: FileId) -> Result<u32> {
        self.inner.page_count(file)
    }
    fn allocate_page(&self, file: FileId) -> Result<PageId> {
        self.tick()?;
        self.inner.allocate_page(file)
    }
    fn read_page(&self, file: FileId, page: PageId, buf: &mut Page) -> Result<()> {
        self.tick()?;
        self.inner.read_page(file, page, buf)
    }
    fn write_page(&self, file: FileId, page: PageId, data: &Page) -> Result<()> {
        match self.plan.next() {
            crate::fault::Fault::None => self.inner.write_page(file, page, data),
            crate::fault::Fault::Fail => Err(StorageError::Io("injected fault".into())),
            crate::fault::Fault::Torn => {
                // Persist the first half of the new image over the old
                // page — the classic torn page — then report failure.
                let mut torn = Page::new();
                if self.inner.read_page(file, page, &mut torn).is_ok() {
                    torn.data[..PAGE_SIZE / 2].copy_from_slice(&data.data[..PAGE_SIZE / 2]);
                    let _ = self.inner.write_page(file, page, &torn);
                }
                Err(StorageError::Io("injected torn page write".into()))
            }
            crate::fault::Fault::BitFlip => {
                // Silent corruption: one seeded byte flips on the way to
                // the medium and the write still reports success. Only a
                // later checksum verification can tell.
                let (off, mask) = self.plan.corrupt_byte();
                let mut flipped = data.clone();
                flipped.data[off] ^= mask;
                self.inner.write_page(file, page, &flipped)
            }
        }
    }
    fn sync(&self) -> Result<()> {
        self.tick()?;
        self.inner.sync()
    }
    fn files(&self) -> Vec<FileId> {
        self.inner.files()
    }
    fn retry_stats(&self) -> Option<std::sync::Arc<RetryStats>> {
        self.inner.retry_stats()
    }
}

/// Lifetime counters for a [`RetryDisk`].
///
/// Counter discipline: `io_retries` counts individual retry *attempts*;
/// `io_gave_up` counts operations that exhausted the whole backoff
/// schedule and surfaced their error. Every give-up is preceded by a full
/// schedule of retries, so with a non-empty schedule
/// `io_gave_up ≤ io_retries` always holds (equality only when every
/// retried operation failed terminally with a one-entry schedule).
#[derive(Debug, Default)]
pub struct RetryStats {
    pub io_retries: AtomicU64,
    pub io_gave_up: AtomicU64,
    /// Wall-clock nanoseconds spent sleeping in backoff between attempts
    /// (measured around the injected sleep, so pinned test sleeps cost ~0).
    /// The registry surfaces this as the `disk_retry_backoff` wait event.
    backoff_ns: AtomicU64,
}

impl RetryStats {
    pub fn retries(&self) -> u64 {
        self.io_retries.load(Ordering::Relaxed)
    }
    pub fn gave_up(&self) -> u64 {
        self.io_gave_up.load(Ordering::Relaxed)
    }
    pub fn backoff_ns(&self) -> u64 {
        self.backoff_ns.load(Ordering::Relaxed)
    }
    pub fn add_backoff_ns(&self, ns: u64) {
        self.backoff_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// Default backoff schedule: bounded exponential, in milliseconds.
const DEFAULT_BACKOFF_MS: &[u64] = &[1, 2, 4, 8];

/// A [`Disk`] wrapper that retries transient page read/write faults with
/// a bounded backoff schedule, composable with [`FaultyDisk`] (wrap the
/// faulty disk so injected hiccups get ridden out).
///
/// Only `Io` errors are retried — they are the shape transient device
/// trouble takes. Deterministic failures (`PageOutOfRange`,
/// `UnknownFile`) surface immediately, and `sync` is deliberately *not*
/// retried: after a failed fsync the kernel may already have dropped the
/// dirty pages, so re-issuing it can report durability that never
/// happened. The sleep function is injected so tests can pin the whole
/// schedule without touching the wall clock.
pub struct RetryDisk<D: Disk> {
    inner: D,
    /// Delay handed to `sleep` before retry *i*; its length bounds the
    /// number of retries per operation.
    backoff: Vec<u64>,
    sleep: Box<dyn Fn(u64) + Send + Sync>,
    stats: std::sync::Arc<RetryStats>,
}

impl<D: Disk> RetryDisk<D> {
    /// Production wrapper: the default exponential schedule, really
    /// sleeping between attempts.
    pub fn new(inner: D) -> Self {
        Self::with_backoff(
            inner,
            DEFAULT_BACKOFF_MS.to_vec(),
            Box::new(|ms| std::thread::sleep(std::time::Duration::from_millis(ms))),
        )
    }

    /// Test wrapper: an explicit schedule and an injected sleep (pass a
    /// recording closure to assert the delays without waiting for them).
    pub fn with_backoff(
        inner: D,
        backoff: Vec<u64>,
        sleep: Box<dyn Fn(u64) + Send + Sync>,
    ) -> Self {
        RetryDisk {
            inner,
            backoff,
            sleep,
            stats: std::sync::Arc::new(RetryStats::default()),
        }
    }

    /// The shared counters (also reachable via [`Disk::retry_stats`]).
    pub fn stats(&self) -> std::sync::Arc<RetryStats> {
        self.stats.clone()
    }

    fn with_retry<T>(&self, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let mut attempt = 0usize;
        loop {
            match op() {
                Err(StorageError::Io(_)) if attempt < self.backoff.len() => {
                    let start = std::time::Instant::now();
                    (self.sleep)(self.backoff[attempt]);
                    self.stats
                        .add_backoff_ns(start.elapsed().as_nanos() as u64);
                    attempt += 1;
                    self.stats.io_retries.fetch_add(1, Ordering::Relaxed);
                }
                Err(err @ StorageError::Io(_)) => {
                    self.stats.io_gave_up.fetch_add(1, Ordering::Relaxed);
                    return Err(err);
                }
                other => return other,
            }
        }
    }
}

impl<D: Disk> Disk for RetryDisk<D> {
    fn create_file(&self) -> Result<FileId> {
        self.inner.create_file()
    }
    fn drop_file(&self, file: FileId) -> Result<()> {
        self.inner.drop_file(file)
    }
    fn page_count(&self, file: FileId) -> Result<u32> {
        self.inner.page_count(file)
    }
    fn allocate_page(&self, file: FileId) -> Result<PageId> {
        self.inner.allocate_page(file)
    }
    fn read_page(&self, file: FileId, page: PageId, buf: &mut Page) -> Result<()> {
        self.with_retry(|| self.inner.read_page(file, page, buf))
    }
    fn read_pages(&self, file: FileId, start: PageId, bufs: &mut [Page]) -> Result<()> {
        self.with_retry(|| self.inner.read_pages(file, start, bufs))
    }
    fn write_page(&self, file: FileId, page: PageId, data: &Page) -> Result<()> {
        self.with_retry(|| self.inner.write_page(file, page, data))
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
    fn files(&self) -> Vec<FileId> {
        self.inner.files()
    }
    fn retry_stats(&self) -> Option<std::sync::Arc<RetryStats>> {
        Some(self.stats.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(disk: &dyn Disk) {
        let f = disk.create_file().unwrap();
        assert_eq!(disk.page_count(f).unwrap(), 0);
        let p0 = disk.allocate_page(f).unwrap();
        let p1 = disk.allocate_page(f).unwrap();
        assert_eq!((p0, p1), (PageId(0), PageId(1)));
        let mut page = Page::new();
        page.data[0] = 0xAA;
        page.data[PAGE_SIZE - 1] = 0xBB;
        disk.write_page(f, p1, &page).unwrap();
        let mut back = Page::new();
        disk.read_page(f, p1, &mut back).unwrap();
        assert_eq!(back.data[0], 0xAA);
        assert_eq!(back.data[PAGE_SIZE - 1], 0xBB);
        // p0 still zeroed.
        disk.read_page(f, p0, &mut back).unwrap();
        assert_eq!(back.data[0], 0);
        // Out-of-range read errors.
        assert!(matches!(
            disk.read_page(f, PageId(99), &mut back),
            Err(StorageError::PageOutOfRange { .. })
        ));
        disk.drop_file(f).unwrap();
        assert!(matches!(
            disk.page_count(f),
            Err(StorageError::UnknownFile(_))
        ));
    }

    /// A span read fills each page with its own bytes: more pages than one
    /// vectored read takes (1 024 buffers on Linux), so a file-backed read
    /// comes back short and resumes. A span past the end is out of range.
    fn exercise_spans(disk: &dyn Disk) {
        const PAGES: u32 = 1030;
        let f = disk.create_file().unwrap();
        let mut page = Page::new();
        for p in 0..PAGES {
            disk.allocate_page(f).unwrap();
            page.data.fill(p as u8);
            page.data[..4].copy_from_slice(&p.to_le_bytes());
            disk.write_page(f, PageId(p), &page).unwrap();
        }
        let mut bufs: Vec<Page> = (0..PAGES - 3).map(|_| Page::new()).collect();
        disk.read_pages(f, PageId(3), &mut bufs).unwrap();
        for (p, buf) in (3..).zip(&bufs) {
            assert_eq!(buf.data[..4], u32::to_le_bytes(p), "page {p}");
            assert!(buf.data[4..].iter().all(|&b| b == p as u8), "page {p}");
        }
        let mut past = vec![Page::new(), Page::new()];
        assert!(matches!(
            disk.read_pages(f, PageId(PAGES - 1), &mut past),
            Err(StorageError::PageOutOfRange { page: PageId(PAGES), pages: PAGES, .. })
        ));
        disk.drop_file(f).unwrap();
    }

    #[test]
    fn memdisk_basics() {
        exercise(&MemDisk::new());
        exercise_spans(&MemDisk::new());
    }

    #[test]
    fn filedisk_basics() {
        let dir = std::env::temp_dir().join(format!("mood-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exercise(&FileDisk::open(&dir).unwrap());
        exercise_spans(&FileDisk::open(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn filedisk_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("mood-disk-r-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let f;
        {
            let disk = FileDisk::open(&dir).unwrap();
            f = disk.create_file().unwrap();
            let p = disk.allocate_page(f).unwrap();
            let mut page = Page::new();
            page.data[7] = 77;
            disk.write_page(f, p, &page).unwrap();
            disk.sync().unwrap();
        }
        {
            let disk = FileDisk::open(&dir).unwrap();
            assert_eq!(disk.files(), vec![f]);
            let mut page = Page::new();
            disk.read_page(f, PageId(0), &mut page).unwrap();
            assert_eq!(page.data[7], 77);
            // New file ids don't collide with recovered ones.
            let f2 = disk.create_file().unwrap();
            assert!(f2 > f);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retry_disk_rides_out_transient_faults() {
        use crate::fault::FaultPlan;
        let inner = MemDisk::new();
        let f = inner.create_file().unwrap();
        inner.allocate_page(f).unwrap();
        let mut page = Page::new();
        page.data[0] = 0x11;
        // Transient plan: the next 2 ops fail, then the device heals.
        let faulty = FaultyDisk::with_plan(inner, FaultPlan::fail_n_then_heal(2));
        let delays = std::sync::Arc::new(Mutex::new(Vec::new()));
        let rec = delays.clone();
        let disk = RetryDisk::with_backoff(
            faulty,
            vec![1, 2, 4],
            Box::new(move |ms| rec.lock().push(ms)),
        );
        let stats = disk.retry_stats().unwrap();
        disk.write_page(f, PageId(0), &page).unwrap();
        let mut back = Page::new();
        disk.read_page(f, PageId(0), &mut back).unwrap();
        assert_eq!(back.data[0], 0x11, "write landed after the hiccup");
        assert_eq!(stats.retries(), 2, "two transient failures retried");
        assert_eq!(stats.gave_up(), 0);
        assert_eq!(*delays.lock(), vec![1, 2], "backoff schedule honoured");
    }

    #[test]
    fn retry_disk_gives_up_on_persistent_faults() {
        let inner = MemDisk::new();
        let f = inner.create_file().unwrap();
        inner.allocate_page(f).unwrap();
        // Latching plan: dead until heal, which never comes.
        let faulty = FaultyDisk::with_plan(inner, crate::fault::FaultPlan::fail_after(0));
        let disk = RetryDisk::with_backoff(faulty, vec![1, 2], Box::new(|_| {}));
        let stats = disk.stats();
        let page = Page::new();
        assert!(matches!(
            disk.write_page(f, PageId(0), &page),
            Err(StorageError::Io(_))
        ));
        assert_eq!(stats.retries(), 2, "full schedule consumed");
        assert_eq!(stats.gave_up(), 1);
        assert!(
            stats.gave_up() <= stats.retries(),
            "documented counter invariant"
        );
        // Deterministic errors are not retried.
        let mut buf = Page::new();
        let before = stats.retries();
        // The faulty plan is latched, but PageOutOfRange is checked by
        // MemDisk only after the injected Io error — so heal first.
        disk.inner.heal();
        assert!(matches!(
            disk.read_page(f, PageId(99), &mut buf),
            Err(StorageError::PageOutOfRange { .. })
        ));
        assert_eq!(stats.retries(), before, "no retry for deterministic errors");
    }

    #[test]
    fn faulty_disk_bit_flip_is_silent_and_seeded() {
        use crate::fault::FaultPlan;
        let make = |seed| {
            let inner = MemDisk::new();
            let f = inner.create_file().unwrap();
            inner.allocate_page(f).unwrap();
            // Op 1 is the write (page_count/files don't tick).
            let disk = FaultyDisk::with_plan(inner, FaultPlan::bit_flip_at(1, seed));
            let mut page = Page::new();
            page.data.fill(0x55);
            page.stamp_checksum();
            disk.write_page(f, PageId(0), &page).unwrap(); // silent!
            let mut back = Page::new();
            disk.read_page(f, PageId(0), &mut back).unwrap();
            (page, back)
        };
        let (orig, corrupted) = make(1234);
        assert_ne!(
            orig.data[..],
            corrupted.data[..],
            "exactly one byte differs"
        );
        let diffs: Vec<_> = (0..PAGE_SIZE)
            .filter(|&i| orig.data[i] != corrupted.data[i])
            .collect();
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0] < crate::page::PAGE_USABLE, "flip stays detectable");
        assert!(corrupted.verify_checksum().is_err(), "checksum catches it");
        let (_, again) = make(1234);
        assert_eq!(corrupted.data[..], again.data[..], "seeded → reproducible");
    }

    #[test]
    fn faulty_disk_fails_after_fuse() {
        let disk = FaultyDisk::new(MemDisk::new(), 3);
        let f = disk.create_file().unwrap(); // op 1
        disk.allocate_page(f).unwrap(); // op 2
        let mut page = Page::new();
        disk.read_page(f, PageId(0), &mut page).unwrap(); // op 3
        assert!(matches!(
            disk.read_page(f, PageId(0), &mut page),
            Err(StorageError::Io(_))
        ));
        disk.heal();
        disk.read_page(f, PageId(0), &mut page).unwrap();
    }
}
