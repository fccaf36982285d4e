//! # mood-storage — the ESM substrate for MOOD
//!
//! The METU Object-Oriented DBMS was built on the Exodus Storage Manager
//! (ESM), which provided storage management, concurrency control, and backup
//! and recovery. This crate is the from-scratch Rust substitute: everything
//! the MOOD kernel needed from ESM, with the addition of *instrumentation*
//! — every page access is counted and classified (sequential / random /
//! index) so the reproduction can compare measured access patterns against
//! the paper's analytic cost model (Sections 4–6).
//!
//! Components:
//!
//! * [`disk`] — raw block stores (in-memory, file-backed, fault-injecting);
//! * [`page`] — 4 KB pages with a slotted record layout;
//! * [`buffer`] — a clock-replacement buffer pool;
//! * [`heap`] — heap files of records with physical OIDs and ESM-style
//!   forwarding;
//! * [`btree`] — a disk-resident B+-tree exposing the Table 9 statistics;
//! * [`lock`] — a shared/exclusive lock manager with timeout deadlock
//!   resolution;
//! * [`wal`] — a redo-only write-ahead log with crash recovery;
//! * [`metrics`] — access counters plus the Table 10 physical disk model.

pub mod btree;
pub mod buffer;
pub mod disk;
pub mod error;
pub mod exec;
pub mod fault;
pub mod heap;
pub mod lock;
pub mod metrics;
pub mod oid;
pub mod page;
pub mod registry;
pub mod spill;
pub mod telemetry;
pub mod wal;

pub use btree::{BTree, BTreeStats};
pub use buffer::{BufferPool, PageRepairer, PoolHealth, READAHEAD_WINDOW};
pub use disk::{Disk, FaultyDisk, FileDisk, MemDisk, RetryDisk, RetryStats};
pub use error::{Result, StorageError};
pub use exec::{chunk_ranges, run_chunked, ExecutionConfig};
pub use fault::{Fault, FaultPlan, FaultyLog};
pub use heap::HeapFile;
pub use lock::{LockManager, LockMode, OwnerId};
pub use metrics::{AccessHint, AccessKind, DiskMetrics, MetricsSnapshot, PhysicalParams};
pub use oid::{FileId, Oid, PageId, SlotId};
pub use page::{Page, SlottedPage, PAGE_SIZE, PAGE_USABLE};
pub use registry::{
    BatchStats, ClusterStats, EngineMetrics, Metric, MetricKind, MetricsRegistry,
    OperatorTotals, PlanCacheStats,
};
pub use spill::{SpillFile, SpillReader};
pub use telemetry::{
    HistFamily, HistogramSnapshot, LatencyHistogram, SlowQuery, SlowQueryLog, StatementStat,
    StatementStats, Telemetry, WaitEvent, WaitSnapshot,
};
pub use wal::{FileLog, LogStore, MemLog, TxnId, Wal, WalStats};

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// Everything a MOOD kernel instance needs from its storage layer, wired
/// together: a disk, a buffer pool, a lock manager, a WAL and the metrics
/// registry over them, all recording through the one [`DiskMetrics`]
/// handle the pool is built with. This is the handle the catalog and
/// algebra layers hold.
///
/// B+-tree handles are cached per file id so every caller shares one
/// [`BTree`] instance — and therefore its writer lock.
pub struct StorageManager {
    pool: Arc<BufferPool>,
    locks: Arc<LockManager>,
    wal: Arc<Wal>,
    registry: Arc<MetricsRegistry>,
    btrees: Mutex<HashMap<FileId, Arc<BTree>>>,
    /// Durable managers (file-backed or harness-supplied) run the full
    /// no-steal + redo-WAL protocol: dirty pages of an open transaction
    /// stay pinned, commits log redo records and force the log. In-memory
    /// managers keep only the live-rollback bookkeeping — there is nothing
    /// to recover after a "crash", so they skip the log traffic entirely.
    durable: bool,
}

impl StorageManager {
    /// An in-memory storage manager (tests, benches, examples).
    pub fn in_memory() -> Self {
        Self::in_memory_with_pool(1024)
    }

    /// In-memory with an explicit buffer-pool size in frames — benches size
    /// this small to reproduce the paper's no-buffer-hit worst cases.
    pub fn in_memory_with_pool(frames: usize) -> Self {
        let metrics = DiskMetrics::new();
        let wal = Wal::new(Box::new(MemLog::new()), metrics.clone());
        let pool = BufferPool::new(Arc::new(MemDisk::new()), frames, metrics);
        Self::assemble(pool, Arc::new(wal), false)
    }

    /// A file-backed storage manager rooted at `dir` (pages under
    /// `dir/pages`, log at `dir/wal.log`). Replays the WAL before serving:
    /// a process that died after commit but before its pages were flushed
    /// gets them back here.
    pub fn on_disk(dir: impl AsRef<std::path::Path>, frames: usize) -> Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let disk: Arc<dyn Disk> = Arc::new(FileDisk::open(dir.join("pages"))?);
        let log = Box::new(FileLog::open(dir.join("wal.log"))?);
        Self::with_parts(disk, log, frames)
    }

    /// Assemble a durable manager from caller-supplied parts — how the
    /// crash-simulation harness interposes [`FaultyDisk`] / [`FaultyLog`]
    /// wrappers while keeping the real bytes underneath. Recovery runs
    /// here, before the buffer pool sees the disk.
    pub fn with_parts(
        disk: Arc<dyn Disk>,
        log: Box<dyn wal::LogStore>,
        frames: usize,
    ) -> Result<Self> {
        let metrics = DiskMetrics::new();
        let wal = Arc::new(Wal::new(log, metrics.clone()));
        wal.recover(&*disk)?;
        let pool = BufferPool::new_no_steal(disk, frames, metrics);
        // Checksum failures on durable managers repair from the redo log
        // (the page's last image plus its later committed deltas) instead
        // of failing the query.
        let redo = wal.clone();
        pool.set_repairer(Box::new(move |file, page| redo.latest_committed_image(file, page)));
        Ok(Self::assemble(pool, wal, true))
    }

    /// The one wiring both constructors share: a lock manager and the
    /// metrics registry over the pool, all recording through the pool's
    /// metrics handle (which the WAL was built with too).
    fn assemble(pool: BufferPool, wal: Arc<Wal>, durable: bool) -> Self {
        let pool = Arc::new(pool);
        // 200 ms: the backstop for waits no deadlock cycle explains.
        let locks = LockManager::new(Duration::from_millis(200), pool.metrics().clone());
        let locks = Arc::new(locks);
        let registry = MetricsRegistry::new(pool.clone(), wal.clone(), locks.clone());
        StorageManager {
            pool,
            locks,
            wal,
            registry: Arc::new(registry),
            btrees: Mutex::new(HashMap::new()),
            durable,
        }
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    pub fn metrics(&self) -> &DiskMetrics {
        self.pool.metrics()
    }

    /// The engine-wide metrics registry (disk + WAL + locks + operators).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Fault-tolerance state: degraded (read-only) flag and page-repair
    /// counter, shared with the buffer pool that maintains it.
    pub fn health(&self) -> Arc<buffer::PoolHealth> {
        self.pool.health()
    }

    /// Create a new heap file on this manager.
    pub fn create_heap(&self) -> Result<HeapFile> {
        HeapFile::create(self.pool.clone())
    }

    /// Open an existing heap file.
    pub fn open_heap(&self, file: FileId) -> HeapFile {
        HeapFile::open(self.pool.clone(), file)
    }

    /// Create a B+-tree index (the shared handle is cached).
    pub fn create_btree(&self, unique: bool) -> Result<Arc<BTree>> {
        let tree = Arc::new(BTree::create(self.pool.clone(), unique)?);
        self.btrees.lock().insert(tree.file_id(), tree.clone());
        Ok(tree)
    }

    /// Open an existing B+-tree index; all callers share one handle (and
    /// its writer lock).
    pub fn open_btree(&self, file: FileId) -> Arc<BTree> {
        self.btrees
            .lock()
            .entry(file)
            .or_insert_with(|| Arc::new(BTree::open(self.pool.clone(), file)))
            .clone()
    }

    /// Drop a cached index handle (call when the index file is deleted).
    pub fn forget_index(&self, file: FileId) {
        self.btrees.lock().remove(&file);
    }

    /// Flush all dirty pages and truncate the log (checkpoint). Refused
    /// while a transaction is open: the flush would skip its pinned pages,
    /// and truncating the log underneath them would lose the last committed
    /// images a crash-recovery would need. The checkpoint holds the writer
    /// slot itself meanwhile, so no commit can land between the flush and
    /// the truncation (its delta records would outlive their base images).
    pub fn checkpoint(&self) -> Result<()> {
        if !self.pool.try_txn_begin() {
            return Err(StorageError::TxnActive);
        }
        let out = self.pool.flush_all().and_then(|()| self.wal.checkpoint());
        self.pool.txn_end();
        out
    }

    /// Is this manager running the durable (logged, no-steal) protocol?
    pub fn durable(&self) -> bool {
        self.durable
    }

    // ------------------------------------------------------------------
    // Transactions. One writer at a time (txn_begin blocks on the pool's
    // transaction slot); SQL sessions drive these for both explicit
    // BEGIN/COMMIT/ROLLBACK and the per-statement autocommit wrapper.
    // ------------------------------------------------------------------

    /// Begin a transaction: claim the pool's single writer slot and hand
    /// out a WAL transaction id.
    pub fn txn_begin(&self) -> TxnId {
        self.pool.txn_begin();
        self.wal.begin()
    }

    /// Is a transaction currently open on this manager?
    pub fn txn_active(&self) -> bool {
        self.pool.txn_active()
    }

    /// Commit: stage a redo record for every page the transaction dirtied
    /// (the diff of its transaction-start and current bytes, or a full
    /// image — see [`wal`]), then append them with the commit marker and
    /// force the log, once — only then are the pages unpinned (they reach
    /// disk lazily afterwards). Read-only transactions skip the log
    /// entirely. If the log cannot take the commit durably, the transaction
    /// rolls back, an abort record is appended best-effort (recovery treats
    /// the *last* marker as the truth), and the error surfaces.
    pub fn txn_commit(&self, txn: TxnId) -> Result<()> {
        if !self.durable {
            self.pool.txn_end();
            self.locks.release_all(txn);
            return Ok(());
        }
        let result = (|| {
            let mut dirtied = false;
            self.pool.txn_dirty_pages(|file, page, before, after| {
                dirtied = true;
                self.wal.log_page(txn, file, page, before, after);
            })?;
            if !dirtied {
                return Ok(());
            }
            self.wal.commit(txn)
        })();
        let out = match result {
            Ok(()) => {
                self.pool.txn_end();
                Ok(())
            }
            Err(e) => {
                // A WAL that cannot take the commit durably means no future
                // write can be made durable either: flip to read-only until
                // an operator heals the engine. (Deterministic storage
                // errors from collecting the images are not device trouble.)
                if matches!(e, StorageError::Io(_)) {
                    self.pool
                        .health()
                        .mark_degraded(&format!("WAL append failed at commit: {e}"));
                }
                let _ = self.wal.abort(txn);
                let _ = self.pool.txn_rollback();
                Err(e)
            }
        };
        self.locks.release_all(txn);
        out
    }

    /// Roll back: restore every dirtied page's before-image in the pool.
    /// The log never hears of it: a transaction's records are appended at
    /// its commit, so one that rolls back has none to disown.
    pub fn txn_rollback(&self, txn: TxnId) -> Result<()> {
        let result = self.pool.txn_rollback();
        self.locks.release_all(txn);
        result.map(|_| ())
    }

    /// Statement-level savepoint inside an explicit transaction; see
    /// [`BufferPool::stmt_begin`].
    pub fn stmt_begin(&self) {
        self.pool.stmt_begin();
    }

    /// Release the statement savepoint (statement succeeded).
    pub fn stmt_end(&self) {
        self.pool.stmt_end();
    }

    /// Undo just the current statement's page writes.
    pub fn stmt_rollback(&self) -> Result<()> {
        self.pool.stmt_rollback()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manager_wires_components() {
        let sm = StorageManager::in_memory();
        let heap = sm.create_heap().unwrap();
        let oid = heap.insert(b"kernel object").unwrap();
        assert_eq!(heap.get(oid).unwrap(), b"kernel object");

        let idx = sm.create_btree(false).unwrap();
        idx.insert(b"key", oid).unwrap();
        assert_eq!(idx.lookup(b"key").unwrap(), vec![oid]);

        assert!(sm.metrics().snapshot().total_reads() > 0);
        sm.checkpoint().unwrap();
    }

    #[test]
    fn reopen_heap_by_file_id() {
        let sm = StorageManager::in_memory();
        let heap = sm.create_heap().unwrap();
        let oid = heap.insert(b"persist me").unwrap();
        let fid = heap.file_id();
        drop(heap);
        let again = sm.open_heap(fid);
        assert_eq!(again.get(oid).unwrap(), b"persist me");
    }

    #[test]
    fn with_parts_recovers_committed_and_drops_uncommitted() {
        // Shared disk + log survive the "crash" (dropping the manager);
        // everything else — pool, pinned dirty pages — is lost with it.
        let disk = Arc::new(MemDisk::new());
        let log = Arc::new(MemLog::new());
        let fid;
        let oid;
        {
            let sm =
                StorageManager::with_parts(disk.clone(), Box::new(log.clone()), 16).unwrap();
            let t = sm.txn_begin();
            let heap = sm.create_heap().unwrap();
            fid = heap.file_id();
            oid = heap.insert(b"committed").unwrap();
            sm.txn_commit(t).unwrap();
            let _t2 = sm.txn_begin();
            heap.insert(b"uncommitted").unwrap();
            // Crash: neither commit nor rollback, pool dropped.
        }
        let sm = StorageManager::with_parts(disk, Box::new(log), 16).unwrap();
        let heap = sm.open_heap(fid);
        assert_eq!(heap.get(oid).unwrap(), b"committed");
        assert_eq!(heap.count().unwrap(), 1, "uncommitted insert must vanish");
    }

    #[test]
    fn a_commit_after_a_torn_tail_survives_the_next_recovery() {
        // No checkpoint anywhere: `with_parts` alone must leave the log in
        // a state where the next commit is reachable by the next recovery.
        let disk = Arc::new(MemDisk::new());
        let log = Arc::new(MemLog::new());
        let reopen = || StorageManager::with_parts(disk.clone(), Box::new(log.clone()), 16);
        let (fid, first);
        {
            let sm = reopen().unwrap();
            let t = sm.txn_begin();
            let heap = sm.create_heap().unwrap();
            fid = heap.file_id();
            first = heap.insert(b"before the tear").unwrap();
            sm.txn_commit(t).unwrap();
            let t = sm.txn_begin();
            heap.insert(b"torn away").unwrap();
            sm.txn_commit(t).unwrap();
        }
        log.tear(3); // the second commit's marker is incomplete
        let second;
        {
            let sm = reopen().unwrap();
            let heap = sm.open_heap(fid);
            assert_eq!(heap.count().unwrap(), 1, "the torn commit is gone");
            let t = sm.txn_begin();
            second = heap.insert(b"after the tear").unwrap();
            sm.txn_commit(t).unwrap();
        }
        let sm = reopen().unwrap();
        let heap = sm.open_heap(fid);
        assert_eq!(heap.get(first).unwrap(), b"before the tear");
        assert_eq!(heap.get(second).unwrap(), b"after the tear");
        assert_eq!(heap.count().unwrap(), 2);
    }

    #[test]
    fn durable_rollback_undoes_a_transaction() {
        let disk = Arc::new(MemDisk::new());
        let log = Arc::new(MemLog::new());
        let sm = StorageManager::with_parts(disk, Box::new(log), 16).unwrap();
        let t = sm.txn_begin();
        let heap = sm.create_heap().unwrap();
        let oid = heap.insert(b"keep").unwrap();
        sm.txn_commit(t).unwrap();
        let t = sm.txn_begin();
        heap.insert(b"discard-1").unwrap();
        heap.insert(b"discard-2").unwrap();
        sm.txn_rollback(t).unwrap();
        assert_eq!(heap.get(oid).unwrap(), b"keep");
        assert_eq!(heap.count().unwrap(), 1);
    }

    #[test]
    fn checkpoint_refused_while_txn_open() {
        let sm = StorageManager::in_memory();
        let t = sm.txn_begin();
        assert!(matches!(sm.checkpoint(), Err(StorageError::TxnActive)));
        sm.txn_rollback(t).unwrap();
        sm.checkpoint().unwrap();
    }

    #[test]
    fn on_disk_manager_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("mood-sm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fid;
        let oid;
        {
            let sm = StorageManager::on_disk(&dir, 64).unwrap();
            let heap = sm.create_heap().unwrap();
            oid = heap.insert(b"durable").unwrap();
            fid = heap.file_id();
            sm.checkpoint().unwrap();
        }
        {
            let sm = StorageManager::on_disk(&dir, 64).unwrap();
            let heap = sm.open_heap(fid);
            assert_eq!(heap.get(oid).unwrap(), b"durable");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
