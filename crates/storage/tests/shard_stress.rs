//! Multi-threaded stress tests for the sharded buffer pool: lost updates,
//! double-framing across shards, wait accounting under contention, and the
//! scan-resistant replacement policy protecting the B-tree hot set.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mood_storage::{
    AccessKind, BTree, BufferPool, Disk, DiskMetrics, FileId, HeapFile, MemDisk, Oid, Page,
    PageId, Result as StorageResult, SlotId, WaitEvent,
};

/// SplitMix64 — deterministic per-thread mixing without a rand dependency.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// 8 threads x mixed increment/point-get/scan over a pool far smaller than
/// the working set. Asserts: no lost updates (per-page counters sum to the
/// number of increments) and no page ever held by two frames.
#[test]
fn mixed_workload_has_no_lost_updates_or_double_frames() {
    const THREADS: u64 = 8;
    const OPS: u64 = 400;
    const COUNTER_PAGES: u32 = 64;

    let disk = Arc::new(MemDisk::new());
    let metrics = DiskMetrics::new();
    // 16 frames (4 shards x 4) against a 64-page counter file plus a heap:
    // constant eviction pressure.
    let pool = Arc::new(BufferPool::new(disk.clone(), 16, metrics.clone()));
    let counters = disk.create_file().unwrap();
    for _ in 0..COUNTER_PAGES {
        let pid = disk.allocate_page(counters).unwrap();
        pool.with_page_mut(counters, pid, AccessKind::Random, |p| {
            p.data[0..8].copy_from_slice(&0u64.to_le_bytes());
        })
        .unwrap();
    }
    let heap = Arc::new(HeapFile::create(pool.clone()).unwrap());
    let seed_oids: Arc<Vec<Oid>> = Arc::new(
        (0..200u32)
            .map(|i| heap.insert(format!("seed-{i:04}").as_bytes()).unwrap())
            .collect(),
    );

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = pool.clone();
            let heap = heap.clone();
            let seed_oids = seed_oids.clone();
            s.spawn(move || {
                for op in 0..OPS {
                    let r = mix(t * 1_000_003 + op);
                    match r % 4 {
                        // Increment a counter page (read-modify-write under
                        // the checkout protocol).
                        0 | 1 => {
                            let pid = PageId((r >> 8) as u32 % COUNTER_PAGES);
                            pool.with_page_mut(counters, pid, AccessKind::Random, |p| {
                                let v = u64::from_le_bytes(p.data[0..8].try_into().unwrap());
                                std::thread::yield_now(); // widen the race window
                                p.data[0..8].copy_from_slice(&(v + 1).to_le_bytes());
                            })
                            .unwrap();
                        }
                        // Point-get a seeded heap record.
                        2 => {
                            let oid = seed_oids[(r >> 8) as usize % seed_oids.len()];
                            let bytes = heap.get(oid).unwrap();
                            assert!(bytes.starts_with(b"seed-"));
                        }
                        // Insert, then scan a slice of the heap.
                        _ => {
                            heap.insert(format!("t{t}-{op}").as_bytes()).unwrap();
                            let pages = heap.pages().unwrap();
                            let start = (r >> 16) as u32 % pages;
                            heap.scan_range_with(start, (start + 4).min(pages), |_, _| true)
                                .unwrap();
                        }
                    }
                }
            });
        }
    });

    // No lost updates: every increment landed.
    let increments: u64 = (0..THREADS * OPS)
        .filter(|i| {
            let (t, op) = (i / OPS, i % OPS);
            mix(t * 1_000_003 + op) % 4 <= 1
        })
        .count() as u64;
    let mut total = 0u64;
    for p in 0..COUNTER_PAGES {
        total += pool
            .with_page(counters, PageId(p), AccessKind::Random, |p| {
                u64::from_le_bytes(p.data[0..8].try_into().unwrap())
            })
            .unwrap();
    }
    assert_eq!(total, increments, "lost update under concurrency");

    // No page is ever cached by two frames (one shard owns each page).
    for p in 0..COUNTER_PAGES {
        assert!(
            pool.frames_holding(counters, PageId(p)) <= 1,
            "page {p} double-framed"
        );
    }
    for p in 0..heap.pages().unwrap() {
        assert!(pool.frames_holding(heap.file_id(), PageId(p)) <= 1);
    }

    assert!(metrics.snapshot().buffer_evictions > 0, "workload must thrash the pool");
}

/// A bare pool — no storage manager around it — records its contention as
/// wait events in the handle it was built with, and its `wait_ns` is
/// exactly the `buffer_shard` + `buffer_checkout` time there: one clock,
/// not a second counter beside the events.
#[test]
fn bare_pool_wait_ns_is_its_two_buffer_wait_events() {
    let disk = Arc::new(MemDisk::new());
    let metrics = DiskMetrics::new();
    // 4 frames = 4 shards x 1: every thread lands on the one shard that
    // holds the hot page.
    let pool = Arc::new(BufferPool::new(disk.clone(), 4, metrics.clone()));
    let f = disk.create_file().unwrap();
    let (pid, _) = pool.new_page(f, |_| {}).unwrap();
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                start.wait();
                for _ in 0..25 {
                    // Hold the checkout long enough that peers block on it.
                    let hold = || std::thread::sleep(Duration::from_micros(200));
                    pool.with_page(f, pid, AccessKind::Random, |_| hold()).unwrap();
                }
            });
        }
    });
    let t = metrics.telemetry();
    let (shard, checkout) = (t.wait(WaitEvent::BufferShard), t.wait(WaitEvent::BufferCheckout));
    assert!(checkout.count > 0, "four threads on one page must wait");
    assert_eq!(pool.wait_ns(), shard.total_ns + checkout.total_ns);
}

/// A full-extent sweep over a file much larger than the pool must not
/// degrade the hit ratio on the hot B-tree pages: the root stays resident
/// and a post-sweep lookup costs zero additional index-page reads.
#[test]
fn btree_hot_set_survives_full_extent_sweep() {
    let disk = Arc::new(MemDisk::new());
    let metrics = DiskMetrics::new();
    // 16 frames = 4 shards x 4; the sweep file is ~10x bigger.
    let pool = Arc::new(BufferPool::new(disk.clone(), 16, metrics.clone()));
    let tree = BTree::create(pool.clone(), true).unwrap();
    let key = |i: u32| i.to_be_bytes();
    let oid = |i: u32| Oid::new(tree.file_id(), PageId(i / 100), SlotId((i % 100) as u16), 1);
    for i in 0..2000u32 {
        tree.insert(&key(i), oid(i)).unwrap();
    }

    let heap = HeapFile::create(pool.clone()).unwrap();
    while heap.pages().unwrap() < 160 {
        heap.insert(&vec![7u8; 400]).unwrap();
    }

    // Seed every shard with evictable (cold) frames, so the pool is not
    // wall-to-wall hot pages left over from the index build.
    for p in 0..16u32 {
        pool.with_page(heap.file_id(), PageId(p), AccessKind::Sequential, |_| {})
            .unwrap();
    }
    // Warm the lookup path: root, inner, leaf load as Index (hot) pages.
    tree.lookup(&key(1000)).unwrap();
    let root = pool
        .with_page(tree.file_id(), PageId(0), AccessKind::Index, |p| {
            PageId(u32::from_le_bytes(p.data[4..8].try_into().unwrap()))
        })
        .unwrap();
    assert!(pool.is_resident(tree.file_id(), root));

    // Warm path verified: a second lookup is pure buffer hits.
    let before = metrics.snapshot();
    assert_eq!(tree.lookup(&key(1000)).unwrap(), vec![oid(1000)]);
    let warm = metrics.snapshot().delta(&before);
    assert_eq!(warm.idx_pages, 0, "warm lookup must be all hits");

    // The sweep: ten pool capacities of sequential pages.
    let mut visited = 0u64;
    heap.scan_with(|_, _| {
        visited += 1;
        true
    })
    .unwrap();
    assert!(visited > 0);

    // Hot index pages were untouched: root still resident, and the same
    // lookup still costs zero index-page reads — the hit ratio on the hot
    // set is unchanged by the sweep.
    assert!(
        pool.is_resident(tree.file_id(), root),
        "sweep evicted the B-tree root"
    );
    let before = metrics.snapshot();
    assert_eq!(tree.lookup(&key(1000)).unwrap(), vec![oid(1000)]);
    let after = metrics.snapshot().delta(&before);
    assert_eq!(
        after.idx_pages, 0,
        "post-sweep lookup must hit the still-resident hot set"
    );
    assert_eq!(after.buffer_misses, 0);
}

/// Regression for the readahead stale-install race: a prefetch batch read
/// runs with no locks held, so without frame reservation another thread
/// could load the same page, dirty it, and have it evicted (written back)
/// mid-read — after which installing the prefetched buffer would publish
/// the stale pre-update image as clean and lose the committed write. The
/// pool now reserves every window page (published in the shard map, marked
/// checked out) *before* the read; concurrent writers wait for the fill.
///
/// The gated disk completes the underlying batch read first and then holds
/// the call open, stretching the read-to-install window to a controlled
/// interval the writer thread races into.
#[test]
fn prefetch_cannot_clobber_concurrent_update() {
    struct GatedDisk {
        inner: MemDisk,
        gate_open: AtomicBool,
        batch_entered: AtomicBool,
    }
    impl Disk for GatedDisk {
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
            self.inner.read_page(file, page, buf)
        }
        fn read_pages(&self, file: FileId, start: PageId, bufs: &mut [Page]) -> StorageResult<()> {
            // Read first, then stall: the caller sits on already-fetched
            // (potentially stale) bytes until the test opens the gate.
            let r = self.inner.read_pages(file, start, bufs);
            self.batch_entered.store(true, Ordering::SeqCst);
            while !self.gate_open.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            r
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

    let disk = Arc::new(GatedDisk {
        inner: MemDisk::new(),
        gate_open: AtomicBool::new(false),
        batch_entered: AtomicBool::new(false),
    });
    // 16 frames = 4 shards x 4, readahead window 2: small enough that the
    // writer's sweep below evicts its dirtied page under the old design.
    let pool = Arc::new(BufferPool::new(disk.clone(), 16, DiskMetrics::new()));
    let f = disk.create_file().unwrap();
    for _ in 0..32 {
        disk.allocate_page(f).unwrap();
    }
    assert!(pool.readahead_window() >= 2);

    std::thread::scope(|s| {
        let prefetcher = {
            let pool = pool.clone();
            s.spawn(move || pool.prefetch_sequential(f, PageId(0), 8))
        };
        while !disk.batch_entered.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The batch covering page 0 has been read but not installed. A
        // writer must wait on the reservation rather than load its own
        // copy, dirty it, and have it written back behind the reader.
        let writer = {
            let pool = pool.clone();
            s.spawn(move || {
                pool.with_page_mut(f, PageId(0), AccessKind::Random, |p| p.data[0] = 99)
                    .unwrap();
                // Eviction pressure on page 0's shard: under the old
                // check-at-install design this flushed the update to disk
                // and let the stale batch image replace it.
                for p in (4..32u32).filter(|p| p % 4 == 0) {
                    pool.with_page(f, PageId(p), AccessKind::Random, |_| {})
                        .unwrap();
                }
            })
        };
        // Let the writer run (it blocks on the checked-out page), then
        // release the install.
        std::thread::sleep(Duration::from_millis(50));
        disk.gate_open.store(true, Ordering::SeqCst);
        prefetcher.join().unwrap();
        writer.join().unwrap();
    });

    let v = pool
        .with_page(f, PageId(0), AccessKind::Random, |p| p.data[0])
        .unwrap();
    assert_eq!(v, 99, "prefetch install clobbered a concurrent update");
    assert!(pool.frames_holding(f, PageId(0)) <= 1);
}
