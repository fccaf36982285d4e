//! `ProbeDisk` / `ProbeLog`: bench-owned wrappers interposed under the
//! engine through `StorageManager::with_parts`.
//!
//! They count calls, bytes and busy time per device operation, optionally
//! charge a seek + transfer delay per read call (the cold workload's
//! "device"), emit a leaf span per call in traced runs, and simulate a
//! crash by discarding everything written since the last `sync`/`force` —
//! killing a process leaves the OS page cache intact, so the durability
//! check has to throw the unflushed bytes away itself.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mood_core::storage::{Disk, FileId, LogStore, Page, PageId, Result, RetryStats, StorageError};

use crate::trace::Collector;

/// Counter values of a [`ProbeDisk`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCounts {
    pub read_calls: u64,
    pub pages_read: u64,
    pub read_busy_ns: u64,
    pub write_calls: u64,
    pub syncs: u64,
    pub sync_busy_ns: u64,
}

impl DiskCounts {
    pub fn since(&self, earlier: &DiskCounts) -> DiskCounts {
        DiskCounts {
            read_calls: self.read_calls - earlier.read_calls,
            pages_read: self.pages_read - earlier.pages_read,
            read_busy_ns: self.read_busy_ns - earlier.read_busy_ns,
            write_calls: self.write_calls - earlier.write_calls,
            syncs: self.syncs - earlier.syncs,
            sync_busy_ns: self.sync_busy_ns - earlier.sync_busy_ns,
        }
    }
}

pub struct ProbeDisk {
    inner: Box<dyn Disk>,
    /// Charged once per read call / once per page read, while armed.
    seek: Duration,
    transfer: Duration,
    armed: AtomicBool,
    /// Pre-images of pages written or allocated since the last `sync`
    /// (`None`: crash simulation off, nothing is captured).
    unsynced: Option<Mutex<HashMap<(FileId, PageId), Page>>>,
    read_calls: AtomicU64,
    pages_read: AtomicU64,
    read_busy_ns: AtomicU64,
    write_calls: AtomicU64,
    syncs: AtomicU64,
    sync_busy_ns: AtomicU64,
    spans: Arc<Collector>,
}

impl ProbeDisk {
    /// `latency` is `(seek per read call, transfer per page)`; the charge
    /// starts disarmed so loading does not pay it. `crash_sim` turns on
    /// pre-image capture for [`ProbeDisk::crash`].
    pub fn new(
        inner: Box<dyn Disk>,
        latency: Option<(Duration, Duration)>,
        crash_sim: bool,
        spans: Arc<Collector>,
    ) -> ProbeDisk {
        let (seek, transfer) = latency.unwrap_or_default();
        ProbeDisk {
            inner,
            seek,
            transfer,
            armed: AtomicBool::new(false),
            unsynced: crash_sim.then(|| Mutex::new(HashMap::new())),
            read_calls: AtomicU64::new(0),
            pages_read: AtomicU64::new(0),
            read_busy_ns: AtomicU64::new(0),
            write_calls: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            sync_busy_ns: AtomicU64::new(0),
            spans,
        }
    }

    /// Start charging read latency.
    pub fn arm(&self) {
        self.armed.store(true, Relaxed);
    }

    pub fn counts(&self) -> DiskCounts {
        DiskCounts {
            read_calls: self.read_calls.load(Relaxed),
            pages_read: self.pages_read.load(Relaxed),
            read_busy_ns: self.read_busy_ns.load(Relaxed),
            write_calls: self.write_calls.load(Relaxed),
            syncs: self.syncs.load(Relaxed),
            sync_busy_ns: self.sync_busy_ns.load(Relaxed),
        }
    }

    /// Crash: put back the pre-image of every page written since the last
    /// `sync`, as if none of those writes had reached the medium.
    pub fn crash(&self) -> Result<()> {
        let Some(unsynced) = &self.unsynced else {
            return Ok(());
        };
        let lost = std::mem::take(&mut *unsynced.lock().expect("probe disk lock poisoned"));
        for ((file, page), image) in lost {
            match self.inner.write_page(file, page, &image) {
                // The file itself was dropped after the write: nothing to undo.
                Ok(()) | Err(StorageError::UnknownFile(_)) => {}
                Err(e) => return Err(e),
            }
        }
        self.inner.sync()
    }

    fn read<R>(&self, pages: u32, f: impl FnOnce() -> R) -> R {
        let start_ns = self.spans.now_ns();
        let t0 = Instant::now();
        let out = f();
        if self.armed.load(Relaxed) {
            // Spin rather than sleep: a 110 µs sleep overshoots by the
            // kernel's timer slack, which would make the "device" the
            // noisiest part of the run.
            let due = self.seek + self.transfer * pages;
            while t0.elapsed() < due {
                std::hint::spin_loop();
            }
        }
        let busy = t0.elapsed().as_nanos() as u64;
        self.read_calls.fetch_add(1, Relaxed);
        self.pages_read.fetch_add(pages as u64, Relaxed);
        self.read_busy_ns.fetch_add(busy, Relaxed);
        self.spans.leaf("disk.read", start_ns, start_ns + busy);
        out
    }

    fn remember(
        &self,
        file: FileId,
        page: PageId,
        image: impl FnOnce() -> Result<Page>,
    ) -> Result<()> {
        if let Some(unsynced) = &self.unsynced {
            let mut map = unsynced.lock().expect("probe disk lock poisoned");
            if let std::collections::hash_map::Entry::Vacant(slot) = map.entry((file, page)) {
                slot.insert(image()?);
            }
        }
        Ok(())
    }
}

impl Disk for ProbeDisk {
    fn create_file(&self) -> Result<FileId> {
        self.inner.create_file()
    }

    fn drop_file(&self, file: FileId) -> Result<()> {
        if let Some(unsynced) = &self.unsynced {
            unsynced
                .lock()
                .expect("probe disk lock poisoned")
                .retain(|(f, _), _| *f != file);
        }
        self.inner.drop_file(file)
    }

    fn page_count(&self, file: FileId) -> Result<u32> {
        self.inner.page_count(file)
    }

    fn allocate_page(&self, file: FileId) -> Result<PageId> {
        let page = self.inner.allocate_page(file)?;
        self.remember(file, page, || Ok(Page::new()))?;
        Ok(page)
    }

    fn read_page(&self, file: FileId, page: PageId, buf: &mut Page) -> Result<()> {
        self.read(1, || self.inner.read_page(file, page, buf))
    }

    fn read_pages(&self, file: FileId, start: PageId, bufs: &mut [Page]) -> Result<()> {
        self.read(bufs.len() as u32, || {
            self.inner.read_pages(file, start, bufs)
        })
    }

    fn write_page(&self, file: FileId, page: PageId, data: &Page) -> Result<()> {
        self.remember(file, page, || {
            let mut old = Page::new();
            self.inner.read_page(file, page, &mut old)?;
            Ok(old)
        })?;
        let start_ns = self.spans.now_ns();
        let t0 = Instant::now();
        let out = self.inner.write_page(file, page, data);
        self.write_calls.fetch_add(1, Relaxed);
        self.spans.leaf(
            "disk.write",
            start_ns,
            start_ns + t0.elapsed().as_nanos() as u64,
        );
        out
    }

    fn sync(&self) -> Result<()> {
        let start_ns = self.spans.now_ns();
        let t0 = Instant::now();
        let out = self.inner.sync();
        let busy = t0.elapsed().as_nanos() as u64;
        self.syncs.fetch_add(1, Relaxed);
        self.sync_busy_ns.fetch_add(busy, Relaxed);
        self.spans.leaf("disk.sync", start_ns, start_ns + busy);
        if out.is_ok() {
            if let Some(unsynced) = &self.unsynced {
                unsynced.lock().expect("probe disk lock poisoned").clear();
            }
        }
        out
    }

    fn files(&self) -> Vec<FileId> {
        self.inner.files()
    }

    fn retry_stats(&self) -> Option<Arc<RetryStats>> {
        self.inner.retry_stats()
    }
}

/// Counter values of a [`ProbeLog`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogCounts {
    pub appends: u64,
    pub bytes: u64,
    pub forces: u64,
    pub append_busy_ns: u64,
    pub force_busy_ns: u64,
}

impl LogCounts {
    pub fn since(&self, earlier: &LogCounts) -> LogCounts {
        LogCounts {
            appends: self.appends - earlier.appends,
            bytes: self.bytes - earlier.bytes,
            forces: self.forces - earlier.forces,
            append_busy_ns: self.append_busy_ns - earlier.append_busy_ns,
            force_busy_ns: self.force_busy_ns - earlier.force_busy_ns,
        }
    }
}

pub struct ProbeLog {
    inner: Box<dyn LogStore>,
    /// The log file, when the inner store is file-backed: what
    /// [`ProbeLog::crash`] truncates.
    path: Option<PathBuf>,
    /// Bytes in the log / bytes known forced to stable storage.
    len: AtomicU64,
    forced: AtomicU64,
    appends: AtomicU64,
    bytes: AtomicU64,
    forces: AtomicU64,
    append_busy_ns: AtomicU64,
    force_busy_ns: AtomicU64,
    spans: Arc<Collector>,
}

impl ProbeLog {
    /// Wrap `inner`; bytes already in the file at `path` count as forced.
    pub fn new(inner: Box<dyn LogStore>, path: Option<PathBuf>, spans: Arc<Collector>) -> ProbeLog {
        let existing = path
            .as_ref()
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len());
        ProbeLog {
            inner,
            path,
            len: AtomicU64::new(existing),
            forced: AtomicU64::new(existing),
            appends: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            forces: AtomicU64::new(0),
            append_busy_ns: AtomicU64::new(0),
            force_busy_ns: AtomicU64::new(0),
            spans,
        }
    }

    pub fn counts(&self) -> LogCounts {
        LogCounts {
            appends: self.appends.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            forces: self.forces.load(Relaxed),
            append_busy_ns: self.append_busy_ns.load(Relaxed),
            force_busy_ns: self.force_busy_ns.load(Relaxed),
        }
    }

    /// Crash: cut the log file back to its last forced length.
    pub fn crash(&self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(self.forced.load(Relaxed))?;
        file.sync_all()
    }
}

impl LogStore for ProbeLog {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        let start_ns = self.spans.now_ns();
        let t0 = Instant::now();
        let out = self.inner.append(bytes);
        let busy = t0.elapsed().as_nanos() as u64;
        self.appends.fetch_add(1, Relaxed);
        self.bytes.fetch_add(bytes.len() as u64, Relaxed);
        self.append_busy_ns.fetch_add(busy, Relaxed);
        if out.is_ok() {
            self.len.fetch_add(bytes.len() as u64, Relaxed);
        }
        self.spans.leaf("wal.append", start_ns, start_ns + busy);
        out
    }

    fn force(&self) -> Result<()> {
        let start_ns = self.spans.now_ns();
        let t0 = Instant::now();
        let out = self.inner.force();
        let busy = t0.elapsed().as_nanos() as u64;
        self.forces.fetch_add(1, Relaxed);
        self.force_busy_ns.fetch_add(busy, Relaxed);
        if out.is_ok() {
            self.forced.store(self.len.load(Relaxed), Relaxed);
        }
        self.spans.leaf("wal.force", start_ns, start_ns + busy);
        out
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn truncate(&self) -> Result<()> {
        // The engine's stores sync the truncation themselves.
        self.inner.truncate()?;
        self.len.store(0, Relaxed);
        self.forced.store(0, Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_core::storage::{FileLog, MemDisk, MemLog};

    fn page_of(byte: u8) -> Page {
        let mut p = Page::new();
        p.data[100] = byte;
        p
    }

    #[test]
    fn disk_crash_restores_unsynced_pages_only() {
        let disk = ProbeDisk::new(Box::new(MemDisk::new()), None, true, Collector::new());
        let f = disk.create_file().unwrap();
        let a = disk.allocate_page(f).unwrap();
        let b = disk.allocate_page(f).unwrap();
        disk.write_page(f, a, &page_of(1)).unwrap();
        disk.sync().unwrap();
        disk.write_page(f, a, &page_of(2)).unwrap();
        disk.write_page(f, a, &page_of(3)).unwrap();
        disk.write_page(f, b, &page_of(9)).unwrap();
        disk.crash().unwrap();
        let mut buf = Page::new();
        disk.read_page(f, a, &mut buf).unwrap();
        assert_eq!(
            buf.data[100], 1,
            "synced image survives, later writes do not"
        );
        disk.read_page(f, b, &mut buf).unwrap();
        assert_eq!(buf.data[100], 0, "never-synced page reads as allocated");
        let c = disk.counts();
        assert_eq!((c.write_calls, c.syncs, c.read_calls), (4, 1, 2));
    }

    #[test]
    fn armed_reads_are_charged_per_call_and_page() {
        let disk = ProbeDisk::new(
            Box::new(MemDisk::new()),
            Some((Duration::from_micros(300), Duration::from_micros(50))),
            false,
            Collector::new(),
        );
        let f = disk.create_file().unwrap();
        for _ in 0..4 {
            disk.allocate_page(f).unwrap();
        }
        let mut bufs = vec![Page::new(), Page::new(), Page::new(), Page::new()];
        disk.read_pages(f, PageId(0), &mut bufs).unwrap();
        assert!(
            disk.counts().read_busy_ns < 300_000,
            "disarmed reads are free"
        );
        disk.arm();
        let before = disk.counts();
        disk.read_pages(f, PageId(0), &mut bufs).unwrap();
        let d = disk.counts().since(&before);
        assert_eq!((d.read_calls, d.pages_read), (1, 4));
        assert!(d.read_busy_ns >= 500_000, "one seek + four transfers");
    }

    #[test]
    fn log_crash_drops_unforced_tail() {
        let dir = crate::run::scratch_dir("probe-log");
        let path = dir.join("wal.log");
        let log = ProbeLog::new(
            Box::new(FileLog::open(&path).unwrap()),
            Some(path.clone()),
            Collector::new(),
        );
        log.append(b"committed").unwrap();
        log.force().unwrap();
        log.append(b"in flight").unwrap();
        log.crash().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"committed");
        let c = log.counts();
        assert_eq!((c.appends, c.bytes, c.forces), (2, 18, 1));
        // A reopened log starts with everything on disk counted as forced.
        let again = ProbeLog::new(
            Box::new(FileLog::open(&path).unwrap()),
            Some(path),
            Collector::new(),
        );
        again.crash().unwrap();
        assert_eq!(again.read_all().unwrap(), b"committed");
        crate::run::remove_scratch(&dir);

        let mem = ProbeLog::new(Box::new(MemLog::new()), None, Collector::new());
        mem.append(b"x").unwrap();
        mem.crash().unwrap();
        assert_eq!(mem.read_all().unwrap(), b"x", "no file, nothing to cut");
    }
}
