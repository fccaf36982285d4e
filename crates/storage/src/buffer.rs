//! Sharded buffer pool with scan-resistant clock (second-chance) replacement
//! and sequential readahead.
//!
//! The pool is split into N shards (default one per 64 frames, minimum 4,
//! never more shards than frames); each shard owns its own frame set, page
//! map, clock hand, mutex and condvar. Pages map to shards round-robin by
//! page number (offset per file), so consecutive pages of one file spread
//! across all shards — a sequential scan drives every shard instead of
//! convoying on one lock, and a transaction that pins K consecutive pages
//! under no-steal pins ~K/N per shard, keeping the effective exhaustion
//! threshold at the old whole-pool capacity.
//!
//! Access is closure-based: `with_page` / `with_page_mut` pin the frame for
//! the duration of the callback only, which keeps the API free of guard
//! lifetimes. Callbacks must not re-enter the pool (the higher layers
//! materialize node/record data into owned values before touching another
//! page, so nesting never occurs in practice; a debug re-entrancy check
//! enforces it).
//!
//! Disk *reads* run outside the shard lock through the same checkout
//! protocol: a miss (and every readahead page) first publishes its frame in
//! the shard map marked `checked_out`, then reads with the lock dropped.
//! The reservation makes concurrent same-page accessors wait on the shard
//! condvar and keeps eviction away from the frame, so no other thread can
//! load, dirty and write back the page while the read is in flight — the
//! read can never install a stale image over a newer committed one.
//! Eviction write-backs of dirty victims still happen under the shard lock.
//!
//! Every *logical* access is classified by the caller as sequential, random
//! or index ([`AccessKind`]); the pool records a physical read only on a
//! miss, so the [`DiskMetrics`] counters reflect real I/O with caching — the
//! paper's worst-case cost formulas are recovered by sizing the pool small.
//!
//! Replacement is scan-resistant: frames loaded by sequential accesses (and
//! by readahead) enter at the clock's *cold* position, and eviction prefers
//! cold frames, touching hot frames' reference bits only when no cold frame
//! is evictable. A full-extent sweep therefore recycles its own pages and
//! cannot flush the hot set (B-tree roots, inner nodes) — the moral
//! equivalent of midpoint insertion in an LRU chain. A cold frame promotes
//! to hot the first time a random or index access hits it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::disk::Disk;
use crate::error::{Result, StorageError};
use crate::metrics::{AccessKind, DiskMetrics};
use crate::oid::{FileId, PageId};
use crate::page::Page;
use crate::telemetry::{HistFamily, WaitEvent};

/// Supplies a known-good image of a page (typically the last committed
/// after-image in the WAL) when a disk read fails checksum verification.
/// `Ok(None)` means the source has no image for the page — corruption then
/// surfaces as [`StorageError::PageCorrupt`].
pub type PageRepairer = Box<dyn Fn(FileId, PageId) -> Result<Option<Page>> + Send + Sync>;

/// Fault-tolerance state shared between a [`BufferPool`], its owning
/// storage manager, and the metrics registry.
///
/// *Degraded mode*: a page write-back or WAL-append failure that survives
/// the retry layer means the engine can no longer guarantee durability, so
/// it flips to read-only — reads keep working from cache/disk, writes are
/// refused with [`StorageError::Degraded`] until [`heal`](Self::heal). The
/// first failure's reason is kept (later failures are symptoms).
#[derive(Debug, Default)]
pub struct PoolHealth {
    degraded: std::sync::atomic::AtomicBool,
    reason: Mutex<String>,
    page_repairs: AtomicU64,
}

impl PoolHealth {
    /// Is the engine refusing writes?
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Why the engine degraded (empty when healthy).
    pub fn reason(&self) -> String {
        self.reason.lock().clone()
    }

    /// Flip to read-only. The first caller's reason wins; repeat failures
    /// while already degraded are dropped.
    pub fn mark_degraded(&self, reason: &str) {
        let mut r = self.reason.lock();
        if !self.degraded.swap(true, Ordering::AcqRel) {
            *r = reason.to_string();
        }
    }

    /// Clear degraded mode (operator intervention / tests after the
    /// underlying fault is fixed).
    pub fn heal(&self) {
        let mut r = self.reason.lock();
        r.clear();
        self.degraded.store(false, Ordering::Release);
    }

    /// Refuse the operation if degraded.
    pub fn check_writable(&self) -> Result<()> {
        if self.is_degraded() {
            Err(StorageError::Degraded {
                reason: self.reason(),
            })
        } else {
            Ok(())
        }
    }

    /// Pages reconstructed from the WAL after a checksum mismatch.
    pub fn page_repairs(&self) -> u64 {
        self.page_repairs.load(Ordering::Relaxed)
    }

    fn record_repair(&self) {
        self.page_repairs.fetch_add(1, Ordering::Relaxed);
    }
}

/// Largest readahead batch (pages); the effective window is also capped at
/// half the smallest shard so prefetched pages cannot thrash tiny pools.
const MAX_READAHEAD: usize = 8;

struct Frame {
    key: Option<(FileId, PageId)>,
    /// The cached bytes. `None` only while the page is lent out (a callback
    /// or a disk read holds it outside the shard lock, `checked_out` set)
    /// and in a frame never loaded: checking a page out moves it, so an
    /// access allocates nothing.
    page: Option<Page>,
    dirty: bool,
    pins: u32,
    referenced: bool,
    /// True while a callback holds the page outside the shard lock; other
    /// threads touching the same page wait on the shard condvar.
    checked_out: bool,
    /// Loaded by a sequential sweep (or readahead) and not yet touched by a
    /// random/index access: evicted preferentially, so scans recycle their
    /// own frames instead of flushing the hot set.
    cold: bool,
}

impl Frame {
    fn page(&mut self) -> &mut Page {
        self.page.as_mut().expect("a loaded frame that is not checked out holds its page")
    }
}

/// A page's state captured at its first write inside a transaction (or
/// statement): the bytes to restore on rollback and whether the frame was
/// already dirty, so rollback can put the dirty flag back too.
struct UndoEntry {
    before: Page,
    was_dirty: bool,
}

struct StmtEntry {
    before: Page,
    was_dirty: bool,
    /// First dirtied by *this* statement (not an earlier one in the same
    /// transaction) — statement rollback must also forget the
    /// transaction-level undo entry, returning the page to pre-txn state.
    fresh_in_txn: bool,
}

/// Undo bookkeeping for the (single) open transaction. The pool is the one
/// place that sees every page write, so it captures before-images here:
/// the redo-only WAL can replay committed work after a crash but cannot
/// undo a live transaction — that takes these images.
#[derive(Default)]
struct TxnTracker {
    undo: HashMap<(FileId, PageId), UndoEntry>,
    /// Statement-level savepoint: captured per page while a statement runs
    /// inside an explicit transaction, so a failing statement rolls back
    /// alone without taking the whole transaction with it.
    stmt: Option<HashMap<(FileId, PageId), StmtEntry>>,
}

/// Pool-level transaction slot. Lock order: a thread may take this mutex
/// *while holding a shard lock* (brief, never blocking), so nothing must
/// ever acquire a shard lock or wait on a shard condvar while holding it.
struct TxnSlot {
    tracker: Mutex<Option<TxnTracker>>,
    /// Signalled when the open transaction ends (single-writer gate).
    free: Condvar,
}

struct ShardState {
    /// The frames used so far. A frame (and its page of memory) is
    /// allocated the first time the shard needs one more, up to
    /// `capacity`: a pool sized above its working set never touches the
    /// memory it does not use.
    frames: Vec<Frame>,
    capacity: usize,
    map: HashMap<(FileId, PageId), usize>,
    hand: usize,
    /// Occupied frames currently marked cold; `claim_frame` skips the
    /// cold-first pass when a fully occupied shard has none.
    cold: usize,
}

struct Shard {
    state: Mutex<ShardState>,
    returned: Condvar,
}

impl Shard {
    fn new(frames: usize) -> Shard {
        Shard {
            state: Mutex::new(ShardState {
                frames: Vec::new(),
                capacity: frames,
                map: HashMap::new(),
                hand: 0,
                cold: 0,
            }),
            returned: Condvar::new(),
        }
    }
}

/// A shared buffer pool over a [`Disk`].
pub struct BufferPool {
    disk: Arc<dyn Disk>,
    shards: Vec<Shard>,
    txn: TxnSlot,
    /// Page/buffer counters, latency histograms and wait events: the
    /// handle the pool was built with, shared with its storage manager's
    /// WAL, lock manager and metrics registry.
    metrics: DiskMetrics,
    capacity: usize,
    /// No-steal discipline: pages dirtied by the open transaction are
    /// pinned in the pool (never evicted or flushed) until it commits.
    /// Durable (file-backed) managers set this; in-memory ones don't need
    /// it — their rollback path rewrites before-images through the disk.
    no_steal: bool,
    /// Readahead window in pages; 0 disables prefetching (tiny pools).
    readahead: u32,
    /// Degraded-mode flag + repair counter, shared with the storage
    /// manager and the metrics registry.
    health: Arc<PoolHealth>,
    /// WAL-backed single-page repair hook; installed by the storage
    /// manager after recovery (plain pools read pages as-is).
    repairer: Mutex<Option<PageRepairer>>,
}

thread_local! {
    /// Per-thread re-entrancy guard: a callback on this thread must not call
    /// back into any pool (higher layers materialize data before the next
    /// page access).
    static IN_CALLBACK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl BufferPool {
    /// Shard count for a pool of `capacity` frames: one shard per 64
    /// frames, at least 4, but never more shards than frames.
    fn shards_for(capacity: usize) -> usize {
        (capacity / 64).max(4).min(capacity).max(1)
    }

    /// Pool with `capacity` frames over `disk`, reporting into `metrics`.
    pub fn new(disk: Arc<dyn Disk>, capacity: usize, metrics: DiskMetrics) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        let n = Self::shards_for(capacity);
        let base = capacity / n;
        let extra = capacity % n;
        let shards: Vec<Shard> = (0..n)
            .map(|s| Shard::new(base + usize::from(s < extra)))
            .collect();
        // Prefetching into a shard smaller than twice the window would let
        // the readahead itself evict pages it just loaded; gate on the
        // smallest shard and disable entirely below 2 pages.
        let window = (base / 2).min(MAX_READAHEAD) as u32;
        BufferPool {
            disk,
            shards,
            txn: TxnSlot {
                tracker: Mutex::new(None),
                free: Condvar::new(),
            },
            metrics,
            capacity,
            no_steal: false,
            readahead: if window < 2 { 0 } else { window },
            health: Arc::new(PoolHealth::default()),
            repairer: Mutex::new(None),
        }
    }

    /// Like [`BufferPool::new`], but with the no-steal discipline: pages
    /// dirtied by the open transaction stay resident until it ends, which
    /// is what lets a redo-only log skip undo records. Durable managers
    /// use this; see the `no_steal` field.
    pub fn new_no_steal(disk: Arc<dyn Disk>, capacity: usize, metrics: DiskMetrics) -> Self {
        let mut pool = Self::new(disk, capacity, metrics);
        pool.no_steal = true;
        pool
    }

    /// Override the readahead window (0 disables prefetching). Benches use
    /// this to compare batched and unbatched scans on one pool size.
    pub fn with_readahead(mut self, window: u32) -> Self {
        self.readahead = window;
        self
    }

    pub fn metrics(&self) -> &DiskMetrics {
        &self.metrics
    }

    pub fn disk(&self) -> &Arc<dyn Disk> {
        &self.disk
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards the frames are partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Effective readahead window in pages (0 = disabled).
    pub fn readahead_window(&self) -> u32 {
        self.readahead
    }

    /// Total nanoseconds threads have spent blocked on shard locks or
    /// waiting for checked-out pages to come back: the `buffer_shard` and
    /// `buffer_checkout` wait events (pool contention; the single-writer
    /// transaction gate is deliberate serialization and is not counted).
    pub fn wait_ns(&self) -> u64 {
        let t = self.metrics.telemetry();
        t.wait(WaitEvent::BufferShard).total_ns + t.wait(WaitEvent::BufferCheckout).total_ns
    }

    /// Shared fault-tolerance state: degraded flag + page-repair counter.
    pub fn health(&self) -> Arc<PoolHealth> {
        self.health.clone()
    }

    /// Install the WAL-backed page repairer. Called by the storage manager
    /// after recovery; reads that fail checksum verification consult it
    /// before surfacing [`StorageError::PageCorrupt`].
    pub fn set_repairer(&self, repairer: PageRepairer) {
        *self.repairer.lock() = Some(repairer);
    }

    /// Read a page from disk and verify its checksum trailer. On a
    /// mismatch, try to reconstruct the page from the repairer (the last
    /// committed WAL image): a successful repair is written back to disk so
    /// the next cold read is clean, and counted in
    /// [`PoolHealth::page_repairs`]. Unrepairable corruption surfaces as
    /// [`StorageError::PageCorrupt`] with the location and both checksums.
    fn read_page_checked(&self, file: FileId, page: PageId, buf: &mut Page) -> Result<()> {
        let t0 = Instant::now();
        self.disk.read_page(file, page, buf)?;
        let t = self.metrics.telemetry();
        t.record_hist(HistFamily::DiskRead, t0.elapsed().as_nanos() as u64);
        if let Err((expected, actual)) = buf.verify_checksum() {
            let repaired = self
                .repairer
                .lock()
                .as_ref()
                .and_then(|fix| fix(file, page).ok().flatten());
            match repaired {
                Some(image) => {
                    // Best-effort write-back of the good image; even if the
                    // disk refuses, the in-memory copy serves this read.
                    let _ = self.disk.write_page(file, page, &image);
                    *buf = image;
                    self.health.record_repair();
                }
                None => {
                    return Err(StorageError::PageCorrupt {
                        file,
                        page,
                        expected,
                        actual,
                    })
                }
            }
        }
        Ok(())
    }

    /// Stamp the page's checksum trailer and write it back, flipping the
    /// pool into degraded (read-only) mode if the disk refuses: a failed
    /// write-back means buffered committed data can no longer be persisted.
    fn write_back(&self, key: (FileId, PageId), page: &mut Page) -> Result<()> {
        page.stamp_checksum();
        let t0 = Instant::now();
        let result = self.disk.write_page(key.0, key.1, page).inspect_err(|e| {
            self.health
                .mark_degraded(&format!("page write-back failed: {e}"));
        });
        let t = self.metrics.telemetry();
        t.record_hist(HistFamily::DiskWrite, t0.elapsed().as_nanos() as u64);
        result
    }

    fn shard_index(&self, key: (FileId, PageId)) -> usize {
        // Round-robin by page number, offset per file: consecutive pages of
        // one file land on consecutive shards (scans and no-steal pins
        // spread evenly), while different files start at different shards.
        let n = self.shards.len();
        (key.1 .0 as usize + (key.0 .0 as usize).wrapping_mul(0x9E37)) % n
    }

    /// Lock a shard, charging contended acquisitions to the `buffer_shard`
    /// wait event.
    fn lock_shard<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, ShardState> {
        if let Some(g) = shard.state.try_lock() {
            return g;
        }
        let t0 = Instant::now();
        let g = shard.state.lock();
        let t = self.metrics.telemetry();
        t.record_wait(WaitEvent::BufferShard, t0.elapsed().as_nanos() as u64);
        g
    }

    /// Wait on a shard's `returned` condvar, charging the `buffer_checkout`
    /// wait event.
    fn wait_returned(&self, shard: &Shard, st: &mut MutexGuard<'_, ShardState>) {
        let t0 = Instant::now();
        shard.returned.wait(st);
        let t = self.metrics.telemetry();
        t.record_wait(WaitEvent::BufferCheckout, t0.elapsed().as_nanos() as u64);
    }

    /// Read access to a page.
    pub fn with_page<R>(
        &self,
        file: FileId,
        page: PageId,
        kind: AccessKind,
        f: impl FnOnce(&Page) -> R,
    ) -> Result<R> {
        self.access(file, page, kind, false, |p| f(p))
    }

    /// Write access to a page; the frame is marked dirty.
    pub fn with_page_mut<R>(
        &self,
        file: FileId,
        page: PageId,
        kind: AccessKind,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R> {
        self.access(file, page, kind, true, f)
    }

    fn access<R>(
        &self,
        file: FileId,
        page: PageId,
        kind: AccessKind,
        write: bool,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R> {
        assert!(
            !IN_CALLBACK.with(|c| c.get()),
            "buffer pool callbacks must not re-enter the pool"
        );
        let key = (file, page);
        let shard = &self.shards[self.shard_index(key)];
        let mut st = self.lock_shard(shard);
        let idx = loop {
            match st.map.get(&key).copied() {
                Some(i) if st.frames[i].checked_out => {
                    // Another thread holds this page outside the lock; wait
                    // for it to come back, then retry the lookup (the frame
                    // cannot be evicted while pinned).
                    self.wait_returned(shard, &mut st);
                }
                Some(i) => {
                    self.metrics.record_buffer_hit();
                    // A random/index hit promotes a scan-loaded frame into
                    // the hot set; sequential re-reads leave it cold.
                    if kind != AccessKind::Sequential && st.frames[i].cold {
                        st.frames[i].cold = false;
                        st.cold -= 1;
                    }
                    break i;
                }
                None => {
                    let i = match self.claim_frame(&mut st) {
                        Ok(i) => i,
                        Err(StorageError::PoolExhausted) => {
                            if st.frames.iter().any(|fr| fr.checked_out) {
                                // Every frame is pinned by an in-flight
                                // callback. Wait for one to be returned,
                                // then retry the lookup (another thread may
                                // even load this page for us in the
                                // meantime, turning this into a hit).
                                self.wait_returned(shard, &mut st);
                                continue;
                            }
                            // Nothing will be returned: the shard is full of
                            // pages pinned by the open transaction (no-steal).
                            // Surface the error so the statement aborts and
                            // rollback frees them.
                            return Err(StorageError::PoolExhausted);
                        }
                        Err(e) => return Err(e),
                    };
                    self.metrics.record_buffer_miss();
                    self.metrics.record_read(kind);
                    // Reserve the frame and publish it before reading: the
                    // map entry plus `checked_out` makes same-page accessors
                    // wait on the condvar and keeps eviction off the frame,
                    // so the read itself runs without the shard lock.
                    st.frames[i].key = Some(key);
                    st.frames[i].dirty = false;
                    st.frames[i].referenced = true;
                    st.frames[i].checked_out = true;
                    st.map.insert(key, i);
                    // A frame never loaded gets its page here, once.
                    let mut buf = st.frames[i].page.take().unwrap_or_default();
                    drop(st);
                    let read = self.read_page_checked(file, page, &mut buf);
                    st = self.lock_shard(shard);
                    st.frames[i].page = Some(buf);
                    st.frames[i].checked_out = false;
                    if let Err(e) = read {
                        // Unpublish the reservation; woken waiters retry
                        // and surface their own errors.
                        st.map.remove(&key);
                        st.frames[i].key = None;
                        st.frames[i].referenced = false;
                        drop(st);
                        shard.returned.notify_all();
                        return Err(e);
                    }
                    st.frames[i].cold = kind == AccessKind::Sequential;
                    if st.frames[i].cold {
                        st.cold += 1;
                    }
                    break i;
                }
            }
        };
        st.frames[idx].referenced = true;
        st.frames[idx].pins += 1;
        if write {
            // First write inside a transaction (or statement): capture the
            // page's before-image so a live rollback can restore it — the
            // redo-only WAL cannot. The txn mutex nests briefly inside the
            // shard lock (see TxnSlot's lock-order note).
            let mut slot = self.txn.tracker.lock();
            if let Some(tr) = slot.as_mut() {
                let fresh = !tr.undo.contains_key(&key);
                if fresh {
                    tr.undo.insert(
                        key,
                        UndoEntry {
                            before: st.frames[idx].page().clone(),
                            was_dirty: st.frames[idx].dirty,
                        },
                    );
                }
                if let Some(stmt) = tr.stmt.as_mut() {
                    stmt.entry(key).or_insert_with(|| StmtEntry {
                        before: st.frames[idx].page().clone(),
                        was_dirty: st.frames[idx].dirty,
                        fresh_in_txn: fresh,
                    });
                }
            }
            drop(slot);
            st.frames[idx].dirty = true;
        }
        st.frames[idx].checked_out = true;
        // Temporarily move the page out so the callback runs without the
        // shard lock; `checked_out` makes same-page accessors wait above.
        let mut owned = st.frames[idx].page.take().expect("a loaded frame holds its page");
        drop(st);
        IN_CALLBACK.with(|c| c.set(true));
        let result = f(&mut owned);
        IN_CALLBACK.with(|c| c.set(false));
        let mut st = self.lock_shard(shard);
        st.frames[idx].page = Some(owned);
        st.frames[idx].pins -= 1;
        st.frames[idx].checked_out = false;
        drop(st);
        shard.returned.notify_all();
        Ok(result)
    }

    /// Allocate a fresh page in `file`, run `init` on it, and return its id.
    pub fn new_page<R>(
        &self,
        file: FileId,
        init: impl FnOnce(&mut Page) -> R,
    ) -> Result<(PageId, R)> {
        let pid = self.disk.allocate_page(file)?;
        let r = self.with_page_mut(file, pid, AccessKind::Random, init)?;
        Ok((pid, r))
    }

    /// Prefetch up to `max` pages of `file` starting at `start`, reading
    /// each maximal run of non-resident pages as **one** contiguous disk
    /// batch (recorded via `record_sequential_batch`). Every missing page's
    /// frame is *reserved* — published in its shard map marked checked out —
    /// before the disk is touched, so a concurrent load-dirty-evict of the
    /// same page cannot slip between the batch read and the install: writers
    /// wait on the shard condvar for the fill instead, and the batch can
    /// never put a stale image over a newer committed one.
    ///
    /// Readahead is strictly best-effort: pages already resident, pages
    /// whose shard cannot free a frame, and runs whose batch read fails are
    /// skipped (their reservations released), never surfaced as errors —
    /// the scan's on-demand reads report anything real. Returns the number
    /// of pages installed.
    pub fn prefetch_sequential(&self, file: FileId, start: PageId, max: u32) -> u32 {
        let window = self.readahead.min(max);
        if window == 0 {
            return 0;
        }
        let total = match self.disk.page_count(file) {
            Ok(n) => n,
            Err(_) => return 0,
        };
        if start.0 >= total {
            return 0;
        }
        let end = total.min(start.0.saturating_add(window));
        // Reservation pass: (page, frame index), and each frame's page
        // moved out to read into.
        let (mut reserved, mut bufs): (Vec<(PageId, usize)>, Vec<Page>) = (Vec::new(), Vec::new());
        for p in start.0..end {
            let pid = PageId(p);
            let pkey = (file, pid);
            let shard = &self.shards[self.shard_index(pkey)];
            let mut st = self.lock_shard(shard);
            if st.map.contains_key(&pkey) {
                continue;
            }
            let i = match self.claim_frame(&mut st) {
                Ok(i) => i,
                Err(_) => continue,
            };
            st.frames[i].key = Some(pkey);
            st.frames[i].dirty = false;
            st.frames[i].referenced = true;
            st.frames[i].checked_out = true;
            st.map.insert(pkey, i);
            reserved.push((pid, i));
            bufs.push(st.frames[i].page.take().unwrap_or_default());
        }
        let mut installed = 0u32;
        let mut run_start = 0usize;
        while run_start < reserved.len() {
            let mut run_end = run_start + 1;
            while run_end < reserved.len() && reserved[run_end].0 .0 == reserved[run_end - 1].0 .0 + 1
            {
                run_end += 1;
            }
            // `bufs` starts at this run: earlier runs' pages went home.
            let run = &mut bufs[..run_end - run_start];
            // A checksum mismatch anywhere in the batch fails the whole
            // run: the reservations are released and the scan's on-demand
            // reads (which verify and repair per page) take over.
            let ok = self.disk.read_pages(file, reserved[run_start].0, run).is_ok()
                && run.iter().all(|b| b.verify_checksum().is_ok());
            if ok {
                self.metrics.record_sequential_batch(run.len() as u64);
            }
            let pages = bufs.drain(..run_end - run_start);
            for (&(pid, i), buf) in reserved[run_start..run_end].iter().zip(pages) {
                let pkey = (file, pid);
                let shard = &self.shards[self.shard_index(pkey)];
                let mut st = self.lock_shard(shard);
                st.frames[i].page = Some(buf);
                st.frames[i].checked_out = false;
                if ok {
                    st.frames[i].cold = true;
                    st.cold += 1;
                    installed += 1;
                } else {
                    // Failed batch: release the reservation; woken waiters
                    // fall back to on-demand reads.
                    st.map.remove(&pkey);
                    st.frames[i].key = None;
                    st.frames[i].referenced = false;
                }
                drop(st);
                shard.returned.notify_all();
            }
            run_start = run_end;
        }
        installed
    }

    /// Prefetch the window-capped consecutive run of `pages` (sorted and
    /// deduplicated) that begins at `at`, issuing at most one
    /// [`BufferPool::prefetch_sequential`] batch. Returns the number of
    /// pages the run covers (0 when `at` is not in `pages`), so callers
    /// can hold off re-issuing until their probe sequence leaves the
    /// covered range.
    ///
    /// The one-window cap is load-bearing: prefetched frames enter the
    /// pool *cold* and eviction is cold-first, so bulk-prefetching a
    /// large page set under pool pressure would recycle its own earlier
    /// windows before they are consumed. Issuing one window per cache
    /// miss keeps at most `readahead_window` unconsumed cold frames
    /// alive — pipelined readahead, driven by the probes themselves.
    /// Single-page runs (a scattered layout) issue no batch at all, so
    /// the call never costs more I/O than on-demand reads.
    pub fn prefetch_run(&self, pages: &[(FileId, PageId)], at: (FileId, PageId)) -> u32 {
        let Ok(pos) = pages.binary_search(&at) else {
            return 0;
        };
        let window = self.readahead_window().max(1);
        let mut len = 1u32;
        while (pos + len as usize) < pages.len()
            && len < window
            && pages[pos + len as usize] == (at.0, PageId(at.1 .0 + len))
        {
            len += 1;
        }
        if len >= 2 {
            self.prefetch_sequential(at.0, at.1, len);
        }
        len
    }

    fn is_txn_pinned(&self, key: (FileId, PageId)) -> bool {
        if !self.no_steal {
            return false;
        }
        self.txn
            .tracker
            .lock()
            .as_ref()
            .is_some_and(|tr| tr.undo.contains_key(&key))
    }

    /// A frame to load a page into: a new one while the shard is below its
    /// capacity, a victim's once it is full.
    fn claim_frame(&self, st: &mut ShardState) -> Result<usize> {
        if st.frames.len() < st.capacity {
            st.frames.push(Frame {
                key: None,
                page: None,
                dirty: false,
                pins: 0,
                referenced: false,
                checked_out: false,
                cold: false,
            });
            return Ok(st.frames.len() - 1);
        }
        // Cold-first pass: free frames and scan-loaded (cold) frames only.
        // Hot frames' reference bits are untouched here, which is what
        // keeps a full-extent sweep from aging the hot set out. When a
        // fully occupied shard has no cold frames the pass cannot succeed,
        // so it is skipped (`st.cold` tracks exactly this).
        if st.cold > 0 || st.map.len() < st.frames.len() {
            if let Some(i) = self.sweep(st, true)? {
                return Ok(i);
            }
        }
        // Classic two-pass clock over everything (first pass clears bits).
        if let Some(i) = self.sweep(st, false)? {
            return Ok(i);
        }
        Err(StorageError::PoolExhausted)
    }

    fn sweep(&self, st: &mut ShardState, cold_only: bool) -> Result<Option<usize>> {
        for _ in 0..(2 * st.frames.len() + 1) {
            let i = st.hand;
            st.hand = (st.hand + 1) % st.frames.len();
            if cold_only && st.frames[i].key.is_some() && !st.frames[i].cold {
                continue;
            }
            if st.frames[i].pins > 0 || st.frames[i].checked_out {
                continue;
            }
            // No-steal: pages dirtied by the open transaction are pinned —
            // flushing them would put uncommitted bytes on disk that a
            // redo-only log could never undo after a crash. Only dirty
            // frames can be txn-pinned (the txn dirtied them and nothing
            // cleans them before commit), so the txn-mutex peek is skipped
            // for the clean majority.
            if st.frames[i].dirty && st.frames[i].key.is_some_and(|key| self.is_txn_pinned(key)) {
                continue;
            }
            if st.frames[i].referenced {
                st.frames[i].referenced = false;
                continue;
            }
            if let Some(key) = st.frames[i].key {
                if st.frames[i].dirty {
                    self.metrics.record_write();
                    // Write back *before* detaching the frame, so an I/O
                    // error leaves the page mapped and dirty — the caller
                    // can surface or swallow the error without the pool
                    // losing its only up-to-date copy.
                    self.write_back(key, st.frames[i].page())?;
                    st.frames[i].dirty = false;
                }
                if st.frames[i].cold {
                    st.frames[i].cold = false;
                    st.cold -= 1;
                }
                st.frames[i].key = None;
                st.map.remove(&key);
                self.metrics.record_buffer_eviction();
            }
            return Ok(Some(i));
        }
        Ok(None)
    }

    /// Write all dirty frames back to disk (without dropping them). Under
    /// no-steal, pages dirtied by the open transaction are skipped — they
    /// reach disk only after their commit record is durable.
    pub fn flush_all(&self) -> Result<()> {
        for shard in &self.shards {
            let mut st = self.lock_shard(shard);
            for i in 0..st.frames.len() {
                // A checked-out frame's page lives with the callback; wait
                // it out rather than flushing the blank placeholder.
                while st.frames[i].checked_out {
                    self.wait_returned(shard, &mut st);
                }
                if let (Some(key), true) = (st.frames[i].key, st.frames[i].dirty) {
                    if self.is_txn_pinned(key) {
                        continue;
                    }
                    self.metrics.record_write();
                    self.write_back(key, st.frames[i].page())?;
                    st.frames[i].dirty = false;
                }
            }
        }
        let t0 = Instant::now();
        let result = self.disk.sync();
        let t = self.metrics.telemetry();
        t.record_hist(HistFamily::DiskFsync, t0.elapsed().as_nanos() as u64);
        result
    }

    /// Evict all frames belonging to `file`, writing dirty ones back first.
    /// Used when a file handle is retired; the data stays on disk.
    pub fn discard_file(&self, file: FileId) {
        for shard in &self.shards {
            let mut st = self.lock_shard(shard);
            let keys: Vec<_> = st.map.keys().filter(|(f, _)| *f == file).copied().collect();
            for key in keys {
                loop {
                    match st.map.get(&key).copied() {
                        Some(i) if st.frames[i].checked_out => {
                            self.wait_returned(shard, &mut st);
                        }
                        Some(i) => {
                            if st.frames[i].dirty {
                                self.metrics.record_write();
                                // Best-effort write-back; a failing disk
                                // loses the frame (and degrades the pool).
                                let _ = self.write_back(key, st.frames[i].page());
                            }
                            st.map.remove(&key);
                            st.frames[i].key = None;
                            st.frames[i].dirty = false;
                            st.frames[i].referenced = false;
                            if st.frames[i].cold {
                                st.frames[i].cold = false;
                                st.cold -= 1;
                            }
                            break;
                        }
                        None => break,
                    }
                }
            }
        }
        // File drops are not transactional (DDL autocommits): stop tracking
        // its pages so commit/rollback don't resurrect a dropped file.
        let mut slot = self.txn.tracker.lock();
        if let Some(tr) = slot.as_mut() {
            tr.undo.retain(|(f, _), _| *f != file);
            if let Some(stmt) = tr.stmt.as_mut() {
                stmt.retain(|(f, _), _| *f != file);
            }
        }
    }

    /// Number of frames currently caching pages (for tests).
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.state.lock().map.len()).sum()
    }

    /// Is `page` of `file` currently cached? (test/bench introspection)
    pub fn is_resident(&self, file: FileId, page: PageId) -> bool {
        let key = (file, page);
        self.shards[self.shard_index(key)]
            .state
            .lock()
            .map
            .contains_key(&key)
    }

    /// How many frames — across *all* shards — currently hold `page` of
    /// `file`. Sharding must keep this at most 1; the stress tests assert
    /// it.
    pub fn frames_holding(&self, file: FileId, page: PageId) -> usize {
        let key = (file, page);
        self.shards
            .iter()
            .map(|s| {
                let st = s.state.lock();
                st.frames
                    .iter()
                    .filter(|fr| fr.key == Some(key))
                    .count()
            })
            .sum()
    }

    // ------------------------------------------------------------------
    // Transaction bookkeeping. The pool tracks a single open transaction
    // (MOOD's sessions serialize writers); `txn_begin` blocks until the
    // current one ends, giving single-writer semantics across sessions.
    // ------------------------------------------------------------------

    /// Open the transaction slot, blocking while another transaction holds
    /// it. From here until [`txn_end`](Self::txn_end) /
    /// [`txn_rollback`](Self::txn_rollback), every page write captures a
    /// before-image, and under no-steal the dirtied pages are pinned.
    pub fn txn_begin(&self) {
        let mut slot = self.txn.tracker.lock();
        while slot.is_some() {
            self.txn.free.wait(&mut slot);
        }
        *slot = Some(TxnTracker::default());
    }

    /// Claim the transaction slot if it is free — how a checkpoint keeps
    /// every writer out while it flushes and truncates the log.
    pub fn try_txn_begin(&self) -> bool {
        let mut slot = self.txn.tracker.lock();
        if slot.is_some() {
            return false;
        }
        *slot = Some(TxnTracker::default());
        true
    }

    /// Is a transaction currently open?
    pub fn txn_active(&self) -> bool {
        self.txn.tracker.lock().is_some()
    }

    /// Visit every page the open transaction dirtied, in deterministic
    /// (file, page) order, as `(file, page, before, after)`: its bytes at
    /// the transaction's first write (the undo image) and its bytes now —
    /// the two the committer diffs into a redo record. One page is copied
    /// at a time, so a bulk transaction costs no more memory here than a
    /// small one. Pages of files dropped mid-transaction are skipped.
    /// `visit` runs under the transaction mutex and must not touch the pool.
    pub fn txn_dirty_pages(
        &self,
        mut visit: impl FnMut(FileId, PageId, &Page, &Page),
    ) -> Result<()> {
        let mut keys: Vec<_> = match self.txn.tracker.lock().as_ref() {
            Some(tr) => tr.undo.keys().copied().collect(),
            None => return Ok(()),
        };
        keys.sort();
        for key in keys {
            let shard = &self.shards[self.shard_index(key)];
            let mut st = self.lock_shard(shard);
            let resident = loop {
                match st.map.get(&key).copied() {
                    Some(i) if st.frames[i].checked_out => {
                        self.wait_returned(shard, &mut st);
                    }
                    Some(i) => break Some(st.frames[i].page().clone()),
                    None => break None,
                }
            };
            drop(st);
            let after = match resident {
                Some(page) => page,
                None => {
                    // Evicted (steal mode only). The disk holds the latest
                    // image; read it back for the log.
                    let mut p = Page::new();
                    match self.read_page_checked(key.0, key.1, &mut p) {
                        Ok(()) => p,
                        Err(StorageError::UnknownFile(_))
                        | Err(StorageError::PageOutOfRange { .. }) => continue,
                        Err(e) => return Err(e),
                    }
                }
            };
            let slot = self.txn.tracker.lock();
            if let Some(e) = slot.as_ref().and_then(|tr| tr.undo.get(&key)) {
                visit(key.0, key.1, &e.before, &after);
            }
        }
        Ok(())
    }

    /// Close the transaction slot after a successful commit: drop the undo
    /// images and unpin the pages (they flush through normal eviction or
    /// checkpoints from here on).
    pub fn txn_end(&self) {
        *self.txn.tracker.lock() = None;
        self.txn.free.notify_all();
        for shard in &self.shards {
            shard.returned.notify_all();
        }
    }

    /// Roll the open transaction back: restore every captured before-image
    /// and close the slot. Returns whether the transaction had dirtied any
    /// pages. Restoration keeps going past per-page errors (dropped files)
    /// and reports the first real one.
    pub fn txn_rollback(&self) -> Result<bool> {
        let tracker = self.txn.tracker.lock().take();
        let tr = match tracker {
            Some(t) => t,
            None => return Ok(false),
        };
        let had_writes = !tr.undo.is_empty();
        let mut entries: Vec<_> = tr.undo.into_iter().collect();
        entries.sort_by_key(|(k, _)| *k);
        let mut first_err = None;
        for (key, e) in entries {
            if let Err(err) = self.restore_page(key, e.before, e.was_dirty) {
                first_err.get_or_insert(err);
            }
        }
        self.txn.free.notify_all();
        for shard in &self.shards {
            shard.returned.notify_all();
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(had_writes),
        }
    }

    /// Open a statement-level savepoint inside the current transaction.
    /// No-op without an open transaction (autocommit wraps the statement
    /// in its own transaction instead).
    pub fn stmt_begin(&self) {
        if let Some(tr) = self.txn.tracker.lock().as_mut() {
            tr.stmt = Some(HashMap::new());
        }
    }

    /// Release the statement savepoint (the statement succeeded).
    pub fn stmt_end(&self) {
        if let Some(tr) = self.txn.tracker.lock().as_mut() {
            tr.stmt = None;
        }
    }

    /// Roll back just the current statement's writes, leaving earlier
    /// statements of the transaction intact.
    pub fn stmt_rollback(&self) -> Result<()> {
        let entries: Vec<((FileId, PageId), StmtEntry)> = {
            let mut slot = self.txn.tracker.lock();
            let tr = match slot.as_mut() {
                Some(t) => t,
                None => return Ok(()),
            };
            let stmt = match tr.stmt.take() {
                Some(m) => m,
                None => return Ok(()),
            };
            // Pages first touched by this statement return to their
            // pre-transaction state: forget their txn-level undo too.
            for (key, e) in &stmt {
                if e.fresh_in_txn {
                    tr.undo.remove(key);
                }
            }
            let mut v: Vec<_> = stmt.into_iter().collect();
            v.sort_by_key(|(k, _)| *k);
            v
        };
        let mut first_err = None;
        for (key, e) in entries {
            if let Err(err) = self.restore_page(key, e.before, e.was_dirty) {
                first_err.get_or_insert(err);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Put a before-image back: into the frame if the page is resident
    /// (waiting out any in-flight callback on it), else straight to disk
    /// (steal mode can have flushed-and-evicted the uncommitted version).
    /// Vanished files/pages (dropped mid-transaction) are ignored.
    fn restore_page(&self, key: (FileId, PageId), mut before: Page, was_dirty: bool) -> Result<()> {
        let shard = &self.shards[self.shard_index(key)];
        let mut st = self.lock_shard(shard);
        loop {
            match st.map.get(&key).copied() {
                Some(i) if st.frames[i].checked_out => {
                    self.wait_returned(shard, &mut st);
                }
                Some(i) => {
                    st.frames[i].page = Some(before);
                    // Under no-steal the disk still holds the pre-txn bytes,
                    // so a clean capture restores clean. In steal mode the
                    // uncommitted version may have been flushed — force a
                    // write-back.
                    st.frames[i].dirty = was_dirty || !self.no_steal;
                    return Ok(());
                }
                None => {
                    self.metrics.record_write();
                    before.stamp_checksum();
                    return match self.disk.write_page(key.0, key.1, &before) {
                        Ok(()) => Ok(()),
                        Err(StorageError::UnknownFile(_))
                        | Err(StorageError::PageOutOfRange { .. }) => Ok(()),
                        Err(e) => {
                            self.health
                                .mark_degraded(&format!("page write-back failed: {e}"));
                            Err(e)
                        }
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::disk::MemDisk;
    use crate::page::PAGE_USABLE;

    fn pool(cap: usize) -> (BufferPool, FileId) {
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(disk.clone(), cap, DiskMetrics::new());
        let f = disk.create_file().unwrap();
        (pool, f)
    }

    #[test]
    fn read_your_writes_through_pool() {
        let (pool, f) = pool(4);
        let (pid, _) = pool.new_page(f, |p| p.data[0] = 42).unwrap();
        let v = pool
            .with_page(f, pid, AccessKind::Random, |p| p.data[0])
            .unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (pool, f) = pool(2);
        let mut pids = Vec::new();
        for i in 0..5u8 {
            let (pid, _) = pool.new_page(f, |p| p.data[0] = i).unwrap();
            pids.push(pid);
        }
        // All five pages exceed the 2-frame pool; earlier ones were evicted
        // and must come back from disk with their data intact.
        for (i, pid) in pids.iter().enumerate() {
            let v = pool
                .with_page(f, *pid, AccessKind::Random, |p| p.data[0])
                .unwrap();
            assert_eq!(v as usize, i);
        }
        assert!(pool.resident() <= 2);
    }

    #[test]
    fn frames_are_allocated_as_they_are_first_needed() {
        let (pool, f) = pool(256);
        let allocated = |pool: &BufferPool| -> usize {
            pool.shards
                .iter()
                .map(|s| s.state.lock().frames.len())
                .sum()
        };
        assert_eq!(allocated(&pool), 0, "an idle pool holds no page memory");
        let pids: Vec<PageId> = (0..10u8)
            .map(|i| pool.new_page(f, |p| p.data[0] = i).unwrap().0)
            .collect();
        assert_eq!(allocated(&pool), 10);
        for _ in 0..3 {
            for pid in &pids {
                pool.with_page(f, *pid, AccessKind::Random, |_| {}).unwrap();
            }
        }
        assert_eq!(allocated(&pool), 10, "hits allocate nothing");
        // Past capacity the pool evicts; it never grows beyond it.
        for _ in 0..600 {
            pool.new_page(f, |_| {}).unwrap();
        }
        assert_eq!(allocated(&pool), 256);
        assert!(pool.resident() <= 256);
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let (pool, f) = pool(4);
        let (pid, _) = pool.new_page(f, |_| {}).unwrap();
        let before = pool.metrics().snapshot();
        for _ in 0..10 {
            pool.with_page(f, pid, AccessKind::Sequential, |_| {})
                .unwrap();
        }
        let d = pool.metrics().snapshot().delta(&before);
        assert_eq!(d.buffer_hits, 10);
        assert_eq!(d.buffer_misses, 0);
        assert_eq!(d.seq_pages, 0, "cached accesses cost no I/O");
    }

    #[test]
    fn misses_record_reads_by_kind() {
        let (pool, f) = pool(1);
        let (p0, _) = pool.new_page(f, |_| {}).unwrap();
        let (p1, _) = pool.new_page(f, |_| {}).unwrap();
        let before = pool.metrics().snapshot();
        // Ping-pong between two pages with a 1-frame pool: every access misses.
        pool.with_page(f, p0, AccessKind::Random, |_| {}).unwrap();
        pool.with_page(f, p1, AccessKind::Index, |_| {}).unwrap();
        pool.with_page(f, p0, AccessKind::Sequential, |_| {})
            .unwrap();
        let d = pool.metrics().snapshot().delta(&before);
        assert_eq!((d.rnd_pages, d.idx_pages, d.seq_pages), (1, 1, 1));
    }

    #[test]
    fn flush_all_persists_to_disk() {
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(disk.clone(), 4, DiskMetrics::new());
        let f = disk.create_file().unwrap();
        // The last *usable* byte: [PAGE_USABLE, PAGE_SIZE) is the checksum
        // trailer, stamped by flush.
        let (pid, _) = pool.new_page(f, |p| p.data[PAGE_USABLE - 1] = 9).unwrap();
        pool.flush_all().unwrap();
        let mut raw = Page::new();
        disk.read_page(f, pid, &mut raw).unwrap();
        assert_eq!(raw.data[PAGE_USABLE - 1], 9);
        assert!(raw.verify_checksum().is_ok(), "flush must stamp the trailer");
    }

    #[test]
    fn discard_file_drops_frames() {
        let (pool, f) = pool(4);
        let (pid, _) = pool.new_page(f, |p| p.data[0] = 1).unwrap();
        assert_eq!(pool.resident(), 1);
        pool.discard_file(f);
        assert_eq!(pool.resident(), 0);
        // The page is still on disk (discard is not delete).
        let v = pool
            .with_page(f, pid, AccessKind::Random, |p| p.data[0])
            .unwrap();
        assert_eq!(v, 1);
    }

    #[test]
    fn txn_rollback_restores_before_images() {
        let (pool, f) = pool(4);
        let (pid, _) = pool.new_page(f, |p| p.data[0] = 1).unwrap();
        pool.txn_begin();
        pool.with_page_mut(f, pid, AccessKind::Random, |p| p.data[0] = 99)
            .unwrap();
        assert!(pool.txn_rollback().unwrap());
        let v = pool
            .with_page(f, pid, AccessKind::Random, |p| p.data[0])
            .unwrap();
        assert_eq!(v, 1, "rollback must restore the before-image");
    }

    #[test]
    fn txn_rollback_reaches_evicted_pages_in_steal_mode() {
        // 1-frame steal-mode pool: the txn's first write is flushed and
        // evicted by the second; rollback must still undo it via the disk.
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(disk.clone(), 1, DiskMetrics::new());
        let f = disk.create_file().unwrap();
        let (p0, _) = pool.new_page(f, |p| p.data[0] = 10).unwrap();
        let (p1, _) = pool.new_page(f, |p| p.data[0] = 20).unwrap();
        pool.txn_begin();
        pool.with_page_mut(f, p0, AccessKind::Random, |p| p.data[0] = 11)
            .unwrap();
        pool.with_page_mut(f, p1, AccessKind::Random, |p| p.data[0] = 21)
            .unwrap(); // evicts p0 with its uncommitted byte
        assert!(pool.txn_rollback().unwrap());
        let v0 = pool
            .with_page(f, p0, AccessKind::Random, |p| p.data[0])
            .unwrap();
        let v1 = pool
            .with_page(f, p1, AccessKind::Random, |p| p.data[0])
            .unwrap();
        assert_eq!((v0, v1), (10, 20));
    }

    #[test]
    fn stmt_rollback_undoes_only_the_statement() {
        let (pool, f) = pool(4);
        let (pid, _) = pool.new_page(f, |p| p.data[0] = 1).unwrap();
        pool.txn_begin();
        pool.with_page_mut(f, pid, AccessKind::Random, |p| p.data[0] = 2)
            .unwrap(); // statement 1 (kept)
        pool.stmt_begin();
        pool.with_page_mut(f, pid, AccessKind::Random, |p| p.data[0] = 3)
            .unwrap(); // statement 2 (rolled back)
        pool.stmt_rollback().unwrap();
        let v = pool
            .with_page(f, pid, AccessKind::Random, |p| p.data[0])
            .unwrap();
        assert_eq!(v, 2, "stmt rollback keeps earlier statements' writes");
        // The whole txn can still roll back to the pre-txn image.
        assert!(pool.txn_rollback().unwrap());
        let v = pool
            .with_page(f, pid, AccessKind::Random, |p| p.data[0])
            .unwrap();
        assert_eq!(v, 1);
    }

    #[test]
    fn stmt_rollback_forgets_fresh_pages_at_txn_level() {
        let (pool, f) = pool(4);
        let (pid, _) = pool.new_page(f, |p| p.data[0] = 7).unwrap();
        pool.txn_begin();
        pool.stmt_begin();
        pool.with_page_mut(f, pid, AccessKind::Random, |p| p.data[0] = 8)
            .unwrap();
        pool.stmt_rollback().unwrap();
        // The statement was the only writer: the txn has nothing to undo.
        assert!(!pool.txn_rollback().unwrap());
        let v = pool
            .with_page(f, pid, AccessKind::Random, |p| p.data[0])
            .unwrap();
        assert_eq!(v, 7);
    }

    #[test]
    fn no_steal_pins_uncommitted_dirty_pages() {
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new_no_steal(disk.clone(), 4, DiskMetrics::new());
        let f = disk.create_file().unwrap();
        let (pid, _) = pool.new_page(f, |p| p.data[0] = 5).unwrap();
        pool.flush_all().unwrap();
        pool.txn_begin();
        pool.with_page_mut(f, pid, AccessKind::Random, |p| p.data[0] = 6)
            .unwrap();
        pool.flush_all().unwrap();
        let mut raw = Page::new();
        disk.read_page(f, pid, &mut raw).unwrap();
        assert_eq!(raw.data[0], 5, "uncommitted bytes must not reach disk");
        pool.txn_end();
        pool.flush_all().unwrap();
        disk.read_page(f, pid, &mut raw).unwrap();
        assert_eq!(raw.data[0], 6, "after commit the page flushes normally");
    }

    #[test]
    fn no_steal_exhaustion_errors_instead_of_hanging() {
        // A 1-frame no-steal pool with a txn-pinned dirty page cannot load
        // a second page; the access must error, not deadlock.
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new_no_steal(disk.clone(), 1, DiskMetrics::new());
        let f = disk.create_file().unwrap();
        let (p0, _) = pool.new_page(f, |_| {}).unwrap();
        let p1 = disk.allocate_page(f).unwrap();
        pool.txn_begin();
        pool.with_page_mut(f, p0, AccessKind::Random, |p| p.data[0] = 1)
            .unwrap();
        let err = pool.with_page(f, p1, AccessKind::Random, |_| {});
        assert!(matches!(err, Err(StorageError::PoolExhausted)));
        // Rollback frees the pinned frame; the pool works again.
        pool.txn_rollback().unwrap();
        pool.with_page(f, p1, AccessKind::Random, |_| {}).unwrap();
    }

    #[test]
    #[should_panic(expected = "re-enter")]
    fn reentrancy_is_detected() {
        let (pool, f) = pool(4);
        let (pid, _) = pool.new_page(f, |_| {}).unwrap();
        let pool_ref = &pool;
        let _ = pool.with_page(f, pid, AccessKind::Random, |_| {
            let _ = pool_ref.with_page(f, pid, AccessKind::Random, |_| {});
        });
    }

    // ---------------- sharding, scan resistance, readahead ----------------

    #[test]
    fn shard_sizing_follows_capacity() {
        // min 4 shards, 1 per 64 frames, never more shards than frames.
        for (cap, shards) in [(1, 1), (2, 2), (4, 4), (16, 4), (64, 4), (256, 4), (1024, 16)] {
            let disk = Arc::new(MemDisk::new());
            let p = BufferPool::new(disk, cap, DiskMetrics::new());
            assert_eq!(p.shard_count(), shards, "capacity {cap}");
        }
    }

    #[test]
    fn consecutive_pages_spread_across_shards() {
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(disk.clone(), 64, DiskMetrics::new());
        let f = disk.create_file().unwrap();
        let n = pool.shard_count();
        let hit: HashSet<usize> = (0..n as u32)
            .map(|p| pool.shard_index((f, PageId(p))))
            .collect();
        assert_eq!(hit.len(), n, "N consecutive pages cover all N shards");
    }

    #[test]
    fn sequential_sweep_does_not_evict_hot_pages() {
        // 8 frames = 4 shards x 2. Pin a hot page per shard by random
        // accesses, then sweep a file far larger than the pool: the sweep
        // must recycle its own (cold) frames and leave the hot set alone.
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(disk.clone(), 8, DiskMetrics::new());
        let hot_file = disk.create_file().unwrap();
        let mut hot = Vec::new();
        for i in 0..4u8 {
            let (pid, _) = pool.new_page(hot_file, |p| p.data[0] = i).unwrap();
            hot.push(pid);
        }
        let scan_file = disk.create_file().unwrap();
        for _ in 0..64 {
            disk.allocate_page(scan_file).unwrap();
        }
        // Touch the hot pages with random accesses (hot class).
        for pid in &hot {
            pool.with_page(hot_file, *pid, AccessKind::Random, |_| {})
                .unwrap();
        }
        let before = pool.metrics().snapshot();
        for p in 0..64u32 {
            pool.with_page(scan_file, PageId(p), AccessKind::Sequential, |_| {})
                .unwrap();
        }
        let d = pool.metrics().snapshot().delta(&before);
        for pid in &hot {
            assert!(
                pool.is_resident(hot_file, *pid),
                "hot page {pid:?} evicted by a sequential sweep"
            );
        }
        // And re-touching the hot set afterwards costs no I/O.
        for pid in &hot {
            pool.with_page(hot_file, *pid, AccessKind::Random, |_| {})
                .unwrap();
        }
        let d2 = pool.metrics().snapshot().delta(&before);
        assert_eq!(
            d2.rnd_pages, d.rnd_pages,
            "hot pages must still be hits after the sweep"
        );
    }

    #[test]
    fn random_hit_promotes_cold_frame() {
        // Load a page sequentially (cold), promote it with a random hit,
        // then sweep: the promoted page must survive. 8 frames = 4 shards
        // x 2, so each shard can hold one hot page plus the sweep's frame.
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(disk.clone(), 8, DiskMetrics::new());
        let f = disk.create_file().unwrap();
        for _ in 0..16 {
            disk.allocate_page(f).unwrap();
        }
        pool.with_page(f, PageId(0), AccessKind::Sequential, |_| {})
            .unwrap();
        pool.with_page(f, PageId(0), AccessKind::Random, |_| {})
            .unwrap(); // promote
        let shard0 = pool.shard_index((f, PageId(0)));
        // Sweep the pages that share page 0's shard (stride = shard count).
        let n = pool.shard_count() as u32;
        for p in (0..16u32).filter(|p| pool.shard_index((f, PageId(*p))) == shard0 && *p != 0) {
            pool.with_page(f, PageId(p), AccessKind::Sequential, |_| {})
                .unwrap();
        }
        assert!(n >= 1);
        assert!(
            pool.is_resident(f, PageId(0)),
            "promoted page evicted by later sweep"
        );
    }

    #[test]
    fn prefetch_batches_sequential_reads() {
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(disk.clone(), 64, DiskMetrics::new());
        let f = disk.create_file().unwrap();
        for _ in 0..16 {
            disk.allocate_page(f).unwrap();
        }
        assert!(pool.readahead_window() >= 2);
        let before = pool.metrics().snapshot();
        let got = pool.prefetch_sequential(f, PageId(0), 8);
        assert_eq!(got, pool.readahead_window().min(8));
        let d = pool.metrics().snapshot().delta(&before);
        assert_eq!(d.seq_pages, got as u64);
        assert_eq!(d.seq_batches, 1, "one contiguous run, one batch");
        assert_eq!(d.buffer_misses, 0, "prefetch records no misses");
        // The prefetched pages are now hits.
        pool.with_page(f, PageId(0), AccessKind::Sequential, |_| {})
            .unwrap();
        let d2 = pool.metrics().snapshot().delta(&before);
        assert_eq!(d2.buffer_hits, 1);
        assert_eq!(d2.seq_pages, d.seq_pages, "no second physical read");
    }

    #[test]
    fn prefetch_skips_resident_pages_and_splits_runs() {
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(disk.clone(), 64, DiskMetrics::new());
        let f = disk.create_file().unwrap();
        for _ in 0..16 {
            disk.allocate_page(f).unwrap();
        }
        // Make page 2 resident: the window [0, 8) splits into two runs.
        pool.with_page(f, PageId(2), AccessKind::Random, |_| {})
            .unwrap();
        let before = pool.metrics().snapshot();
        let got = pool.prefetch_sequential(f, PageId(0), 8);
        let d = pool.metrics().snapshot().delta(&before);
        assert_eq!(got as u64, d.seq_pages);
        assert_eq!(d.seq_batches, 2, "resident page splits the run in two");
        assert_eq!(pool.frames_holding(f, PageId(2)), 1, "no double frame");
    }

    #[test]
    fn tiny_pools_disable_readahead() {
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(disk.clone(), 4, DiskMetrics::new());
        assert_eq!(pool.readahead_window(), 0);
        let f = disk.create_file().unwrap();
        disk.allocate_page(f).unwrap();
        assert_eq!(pool.prefetch_sequential(f, PageId(0), 8), 0);
    }

    // ---------------- checksums, repair, degraded mode ----------------

    #[test]
    fn corrupt_page_surfaces_page_corrupt_without_repairer() {
        let disk = Arc::new(MemDisk::new());
        let f = disk.create_file().unwrap();
        let pid;
        {
            let pool = BufferPool::new(disk.clone(), 4, DiskMetrics::new());
            let (p, _) = pool.new_page(f, |pg| pg.data[0] = 1).unwrap();
            pool.flush_all().unwrap();
            pid = p;
        }
        // Flip a checksummed byte behind the pool's back (raw disk write,
        // no restamp) — the next verified read must notice.
        let mut raw = Page::new();
        disk.read_page(f, pid, &mut raw).unwrap();
        raw.data[0] ^= 0xFF;
        disk.write_page(f, pid, &raw).unwrap();
        let pool = BufferPool::new(disk.clone(), 4, DiskMetrics::new());
        assert!(matches!(
            pool.with_page(f, pid, AccessKind::Random, |_| {}),
            Err(StorageError::PageCorrupt { file, page, .. }) if file == f && page == pid
        ));
    }

    #[test]
    fn corrupt_page_repairs_from_the_hook() {
        let disk = Arc::new(MemDisk::new());
        let f = disk.create_file().unwrap();
        let pid;
        {
            let pool = BufferPool::new(disk.clone(), 4, DiskMetrics::new());
            let (p, _) = pool.new_page(f, |pg| pg.data[0] = 42).unwrap();
            pool.flush_all().unwrap();
            pid = p;
        }
        let mut good = Page::new();
        disk.read_page(f, pid, &mut good).unwrap(); // stamped committed image
        let mut bad = good.clone();
        bad.data[0] ^= 0xFF;
        disk.write_page(f, pid, &bad).unwrap();
        let pool = BufferPool::new(disk.clone(), 4, DiskMetrics::new());
        let fixed = good.clone();
        pool.set_repairer(Box::new(move |file, page| {
            assert_eq!((file, page), (f, pid));
            Ok(Some(fixed.clone()))
        }));
        let v = pool
            .with_page(f, pid, AccessKind::Random, |p| p.data[0])
            .unwrap();
        assert_eq!(v, 42, "read is served the repaired image");
        assert_eq!(pool.health().page_repairs(), 1);
        // The good image was written back: a raw reread verifies clean.
        let mut back = Page::new();
        disk.read_page(f, pid, &mut back).unwrap();
        assert_eq!(back.data[0], 42);
        assert!(back.verify_checksum().is_ok());
    }

    #[test]
    fn write_back_failure_degrades_the_pool() {
        use crate::disk::FaultyDisk;
        use crate::fault::FaultPlan;
        let inner = MemDisk::new();
        let f = inner.create_file().unwrap();
        let pid = inner.allocate_page(f).unwrap();
        // One op (the cache-miss read) succeeds; the flush write fails.
        let disk = Arc::new(FaultyDisk::with_plan(inner, FaultPlan::fail_after(1)));
        let pool = BufferPool::new(disk, 4, DiskMetrics::new());
        pool.with_page_mut(f, pid, AccessKind::Random, |p| p.data[0] = 7)
            .unwrap();
        let health = pool.health();
        assert!(!health.is_degraded());
        assert!(pool.flush_all().is_err());
        assert!(health.is_degraded());
        assert!(matches!(
            health.check_writable(),
            Err(StorageError::Degraded { .. })
        ));
        assert!(!health.reason().is_empty());
        health.heal();
        assert!(!health.is_degraded());
        assert!(health.check_writable().is_ok());
    }

    #[test]
    fn wait_counter_visible_under_contention() {
        let disk = Arc::new(MemDisk::new());
        let pool = Arc::new(BufferPool::new(disk.clone(), 4, DiskMetrics::new()));
        let f = disk.create_file().unwrap();
        let (pid, _) = pool.new_page(f, |_| {}).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        pool.with_page(f, pid, AccessKind::Random, |_| {
                            // Hold the checkout long enough that peers must
                            // block on the returned condvar (single-core
                            // boxes otherwise rarely overlap).
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        })
                        .unwrap();
                    }
                });
            }
        });
        // Four threads hammering one page must have waited on the checkout
        // protocol at least once.
        assert!(pool.wait_ns() > 0, "contention must register wait time");
    }
}
