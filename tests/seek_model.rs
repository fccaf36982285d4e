//! Model equals engine for seeks: a cold sequential `BIND` over a `b`-page
//! extent makes exactly the `⌈b/k⌉` device calls `seqcost_batched(b, k)`
//! charges a positioning delay for, `k` the one run length the pool and the
//! cost model share (`READAHEAD_WINDOW`), and the modelled time of what it
//! recorded is the optimizer's estimate for the node. Resident pages change
//! that count only where the Table 10 parameters say they should: a gap of
//! at most `bridge_pages()` is read through, a longer one splits the call,
//! a wholly resident window makes none. Throughout, the pages the engine
//! counts (seq + rnd + idx) are the pages the device transferred.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mood_core::sql::{parse, Executor, Statement};
use mood_core::{Mood, OptimizerConfig, Value};
use mood_storage::{
    AccessKind, Disk, FileId, MemDisk, MemLog, MetricsSnapshot, Oid, Page, PageId, PhysicalParams,
    Result as StorageResult, StorageManager, READAHEAD_WINDOW,
};

/// A [`MemDisk`] counting read calls and the pages they transferred.
#[derive(Default)]
struct CountingDisk {
    inner: MemDisk,
    calls: AtomicU64,
    pages: AtomicU64,
}

impl CountingDisk {
    fn counts(&self) -> (u64, u64) {
        (self.calls.load(Ordering::Relaxed), self.pages.load(Ordering::Relaxed))
    }

    fn count(&self, pages: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.pages.fetch_add(pages as u64, Ordering::Relaxed);
    }
}

impl Disk for CountingDisk {
    fn create_file(&self) -> StorageResult<FileId> {
        self.inner.create_file()
    }
    fn drop_file(&self, file: FileId) -> StorageResult<()> {
        self.inner.drop_file(file)
    }
    fn page_count(&self, file: FileId) -> StorageResult<u32> {
        self.inner.page_count(file)
    }
    fn allocate_page(&self, file: FileId) -> StorageResult<PageId> {
        self.inner.allocate_page(file)
    }
    fn read_page(&self, file: FileId, page: PageId, buf: &mut Page) -> StorageResult<()> {
        self.count(1);
        self.inner.read_page(file, page, buf)
    }
    fn read_pages(&self, file: FileId, start: PageId, bufs: &mut [Page]) -> StorageResult<()> {
        self.count(bufs.len());
        self.inner.read_pages(file, start, bufs)
    }
    fn write_page(&self, file: FileId, page: PageId, data: &Page) -> StorageResult<()> {
        self.inner.write_page(file, page, data)
    }
    fn sync(&self) -> StorageResult<()> {
        self.inner.sync()
    }
    fn files(&self) -> Vec<FileId> {
        self.inner.files()
    }
}

/// Objects of ~1.5 KB: two to a page, so `OBJECTS` fill 450 pages — three
/// full 128-page windows and a partial one.
const OBJECTS: i32 = 900;

struct Fixture {
    db: Mood,
    disk: Arc<CountingDisk>,
    /// The extent's objects, in insertion (page) order.
    oids: Vec<Oid>,
    dir: PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn fixture(tag: &str) -> Fixture {
    let dir = std::env::temp_dir().join(format!("mood-seek-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let disk = Arc::new(CountingDisk::default());
    let sm = StorageManager::with_parts(disk.clone(), Box::new(MemLog::new()), 256).unwrap();
    let db = Mood::open_with_storage(Arc::new(sm), &dir).unwrap();
    assert_eq!(db.storage().pool().readahead_window(), READAHEAD_WINDOW);
    db.execute("CREATE CLASS Fat TUPLE (id Integer, pad String)").unwrap();
    let pad = Value::string("x".repeat(1500));
    let oids = (0..OBJECTS)
        .map(|i| {
            let fields = vec![("id", Value::Integer(i)), ("pad", pad.clone())];
            db.catalog().new_object("Fat", Value::tuple(fields)).unwrap()
        })
        .collect();
    db.collect_stats().unwrap();
    Fixture { db, disk, oids, dir }
}

impl Fixture {
    fn file(&self) -> FileId {
        self.oids[0].file
    }

    /// Evict the extent, then load `resident` of its pages by random reads.
    fn cold_but(&self, resident: impl IntoIterator<Item = u32>) {
        let pool = self.db.storage().pool();
        pool.flush_all().unwrap();
        pool.discard_file(self.file());
        for p in resident {
            pool.with_page(self.file(), PageId(p), AccessKind::Random, |_| {}).unwrap();
        }
    }

    /// One analysed `SELECT` over the whole extent: the BIND node's
    /// recorded delta and estimated cost, and the device's (calls, pages)
    /// over the statement, which must equal the pages the engine counted.
    fn bind(&self) -> (MetricsSnapshot, f64, f64) {
        let stmt = match parse("SELECT f.id FROM Fat f").unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        };
        let ex = Executor::new(self.db.catalog(), self.db.funcman())
            .with_config(OptimizerConfig::default().with_parallelism(1));
        let (calls0, pages0) = self.disk.counts();
        let report = ex.analyze(&stmt).unwrap();
        let (calls, pages) = self.disk.counts();
        assert_eq!(report.result.len(), OBJECTS as usize);
        assert_eq!(pages - pages0, report.total.total_reads(), "engine pages == device pages");
        assert_eq!(calls - calls0, report.total.seq_batches, "one call per recorded batch");
        let node = &report.terms[0].nodes[0];
        assert!(node.est.label.starts_with("BIND(Fat"), "{}", node.est.label);
        let actual = node.actual.expect("BIND runs as its own node");
        (actual.inclusive, node.est.cost, node.est.pages)
    }
}

fn windows(pages: u64) -> u64 {
    pages.div_ceil(READAHEAD_WINDOW as u64)
}

#[test]
fn a_cold_bind_pays_the_seeks_seqcost_batched_charges() {
    let fx = fixture("cold");
    fx.cold_but([]);
    let (delta, est_cost, est_pages) = fx.bind();
    let b = est_pages as u64;
    assert_eq!(b, fx.db.storage().open_heap(fx.file()).pages().unwrap() as u64);
    let k = READAHEAD_WINDOW as u64;
    assert!(b > 3 * k && !b.is_multiple_of(k), "b = {b}: full windows and a partial one");
    assert_eq!((delta.seq_batches, delta.seq_pages), (windows(b), b));
    assert_eq!((delta.rnd_pages, delta.idx_pages, delta.writes), (0, 0, 0));
    // The optimizer's BIND cost is the modelled time of what it recorded.
    let modelled = PhysicalParams::default().time(&delta);
    assert!((modelled - est_cost).abs() <= 1e-12 * est_cost, "{modelled} vs {est_cost}");
}

#[test]
fn resident_gaps_of_at_most_the_bridge_keep_one_call_per_window() {
    let bridge = PhysicalParams::default().bridge_pages();
    assert_eq!(bridge, 8);
    let fx = fixture("bridge");
    // Hot pages inside windows 0, 1 and 2: one alone, a run of `bridge`,
    // two apart.
    let hot: Vec<u32> = [3].into_iter().chain(160..160 + bridge).chain([300, 302]).collect();
    fx.cold_but(hot.iter().copied());
    let (delta, _, est_pages) = fx.bind();
    let b = est_pages as u64;
    assert_eq!(delta.seq_batches, windows(b));
    assert_eq!(delta.seq_pages, b, "bridged pages are transferred and counted");
}

#[test]
fn a_longer_gap_splits_the_window_and_a_resident_window_makes_no_call() {
    let bridge = PhysicalParams::default().bridge_pages();
    let fx = fixture("split");
    fx.cold_but(40..40 + bridge + 1);
    let (delta, _, est_pages) = fx.bind();
    let b = est_pages as u64;
    assert_eq!(delta.seq_batches, windows(b) + 1);
    assert_eq!(delta.seq_pages, b - (bridge as u64 + 1));
    // Window 1 ([k, 2k)) wholly resident: one call fewer.
    let k = READAHEAD_WINDOW;
    fx.cold_but(k..2 * k);
    let (delta, _, _) = fx.bind();
    assert_eq!(delta.seq_batches, windows(b) - 1);
    assert_eq!(delta.seq_pages, b - k as u64);
}
