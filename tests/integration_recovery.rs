//! Durability, recovery, locking and failure injection — the ESM-substrate
//! guarantees ("backup and recovery of data", "controlling data access and
//! concurrency") exercised through the kernel and the raw storage API.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mood_core::{Answer, MethodSig, Mood, TypeDescriptor, Value};
use mood_storage::{
    BufferPool, Disk, DiskMetrics, FaultyDisk, HeapFile, LockManager, LockMode, MemDisk, MemLog,
    PageId, StorageError, Wal,
};

#[test]
fn database_survives_reopen_with_indexes_and_methods() {
    let dir = std::env::temp_dir().join(format!("mood-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Mood::open(&dir).unwrap();
        db.execute("CREATE CLASS Account TUPLE (id Integer, balance Integer)")
            .unwrap();
        db.execute("CREATE UNIQUE BTREE INDEX ON Account(id)")
            .unwrap();
        for i in 0..50 {
            db.execute(&format!("new Account <{i}, {}>", i * 10))
                .unwrap();
        }
        db.checkpoint().unwrap();
    }
    {
        let db = Mood::open(&dir).unwrap();
        // Schema, data and extents all come back.
        let mut cur = db
            .query("SELECT a.balance FROM Account a WHERE a.id = 30")
            .unwrap();
        assert_eq!(cur.next().unwrap()[0], Value::Integer(300));
        // The reopened catalog accepts further DDL without id collisions.
        db.execute("CREATE CLASS Audit TUPLE (note String)")
            .unwrap();
        db.execute("new Audit <'reopened fine'>").unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The spilled runs (`mood-spill-<pid>-<seq>.run`) directly in `dir`.
fn runs_in(dir: &Path) -> usize {
    let runs = std::fs::read_dir(dir).unwrap().filter_map(|e| e.ok());
    let names = runs.map(|e| e.file_name().to_string_lossy().into_owned());
    names.filter(|n| n.starts_with("mood-spill-") && n.ends_with(".run")).count()
}

#[test]
fn spilled_runs_live_beside_the_database_and_are_swept_on_open() {
    let dir = std::env::temp_dir().join(format!("mood-spill-home-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Mood::open(&dir).unwrap();
        db.execute("CREATE CLASS Reading TUPLE (id Integer, k Integer)")
            .unwrap();
        for i in 0..40 {
            db.execute(&format!("new Reading <{i}, {}>", (i * 7) % 40))
                .unwrap();
        }
        // A method in the projection runs while the sort forms its runs
        // (one object a batch): it notes the most runs it sees beside the
        // database.
        let most = Arc::new(AtomicUsize::new(0));
        let (seen, home) = (most.clone(), dir.clone());
        let runs = MethodSig::new("runs", TypeDescriptor::integer(), vec![]);
        db.register_native_method(
            "Reading",
            runs,
            Arc::new(move |_, _, _| {
                seen.fetch_max(runs_in(&home), Ordering::Relaxed);
                Ok(Value::Integer(0))
            }),
        )
        .unwrap();
        db.set_sort_budget(2);
        db.set_batch_size(1);
        let sql = "SELECT r.id, r.runs() FROM Reading r ORDER BY r.k";
        let Answer::Rows(rows) = db.execute(sql).unwrap() else {
            panic!("{sql}: no rows")
        };
        assert_eq!(rows.len(), 40);
        assert!(db.engine_metrics().batch.spilled_runs > 0, "the sort did not spill");
        assert!(most.load(Ordering::Relaxed) > 0, "no run under {}", dir.display());
        assert_eq!(runs_in(&dir), 0, "a finished sort left its runs");
    }
    // A run a process that died mid-sort left behind.
    let stale = dir.join("mood-spill-1-0.run");
    std::fs::write(&stale, b"stale").unwrap();
    {
        let _db = Mood::open(&dir).unwrap();
        assert!(!stale.exists(), "reopen kept a stale run");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn committed_transactions_replay_after_crash() {
    // The redo-log protocol at the storage level: log page images, crash
    // before flushing the pool, recover from the WAL.
    let disk = MemDisk::new();
    let wal = Wal::new(Box::new(MemLog::new()), DiskMetrics::new());
    let f = disk.create_file().unwrap();
    disk.allocate_page(f).unwrap();

    // Txn 1 commits; txn 2 does not.
    let t1 = wal.begin();
    let mut p = mood_storage::Page::new();
    p.data[0..4].copy_from_slice(&777u32.to_le_bytes());
    wal.log_page(t1, f, PageId(0), &mood_storage::Page::new(), &p);
    wal.commit(t1).unwrap();
    let t2 = wal.begin();
    let mut q = mood_storage::Page::new();
    q.data[0..4].copy_from_slice(&666u32.to_le_bytes());
    wal.log_page(t2, f, PageId(0), &p, &q);
    // no commit for t2 — crash here.

    let restored = wal.recover(&disk).unwrap();
    assert_eq!(restored, 1);
    let mut back = mood_storage::Page::new();
    disk.read_page(f, PageId(0), &mut back).unwrap();
    assert_eq!(u32::from_le_bytes(back.data[0..4].try_into().unwrap()), 777);
}

#[test]
fn injected_io_faults_surface_and_heal() {
    let faulty = Arc::new(FaultyDisk::new(MemDisk::new(), u64::MAX));
    let pool = Arc::new(BufferPool::new(faulty.clone(), 4, DiskMetrics::new()));
    let heap = HeapFile::create(pool).unwrap();
    let oid = heap.insert(b"precious").unwrap();
    // Arm a short fuse: a few I/Os succeed, then everything fails. Keep
    // inserting page-sized records until the injected fault surfaces.
    let faulty2 = Arc::new(FaultyDisk::new(MemDisk::new(), 8));
    let pool2 = Arc::new(BufferPool::new(faulty2.clone(), 1, DiskMetrics::new()));
    let heap2 = HeapFile::create(pool2).unwrap();
    let oid2 = heap2.insert(b"x").unwrap();
    let mut saw_fault = false;
    for _ in 0..32 {
        match heap2.insert(&vec![0u8; 3000]) {
            Ok(_) => {}
            Err(StorageError::Io(msg)) => {
                assert!(msg.contains("injected"));
                saw_fault = true;
                break;
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(
        saw_fault,
        "the fuse must blow within a few page allocations"
    );
    faulty2.heal();
    assert_eq!(
        heap2.get(oid2).unwrap(),
        b"x",
        "healed disk serves old data"
    );
    let _ = oid;
}

#[test]
fn lock_manager_protects_concurrent_method_redefinition() {
    // The Section 2 scenario: the class's shared object is locked while a
    // function is rewritten; readers block rather than see a torn state.
    let lm = Arc::new(LockManager::new(Duration::from_secs(5), DiskMetrics::new()));
    let writers_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let lm2 = lm.clone();
    let done2 = writers_done.clone();
    let writer = std::thread::spawn(move || {
        lm2.acquire(1, "so:Vehicle", LockMode::Exclusive).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        done2.store(true, std::sync::atomic::Ordering::SeqCst);
        lm2.release(1, "so:Vehicle");
    });
    std::thread::sleep(Duration::from_millis(10));
    // Reader blocks until the writer finishes.
    lm.acquire(2, "so:Vehicle", LockMode::Shared).unwrap();
    assert!(
        writers_done.load(std::sync::atomic::Ordering::SeqCst),
        "reader proceeded before the redefinition finished"
    );
    writer.join().unwrap();
}

#[test]
fn concurrent_sessions_share_one_database() {
    // Two threads hammer the same catalog through their own sessions.
    let db = Arc::new(Mood::in_memory());
    db.execute("CREATE CLASS Counter TUPLE (n Integer)")
        .unwrap();
    let mut handles = Vec::new();
    for t in 0..4 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..25 {
                db.execute(&format!("new Counter <{}>", t * 100 + i))
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let cur = db.query("SELECT c FROM Counter c").unwrap();
    assert_eq!(cur.len(), 100);
}

#[test]
fn buffer_pool_pressure_does_not_lose_updates() {
    // A 2-frame pool forces constant eviction while updating objects.
    let db = Mood::in_memory_with_pool(2);
    db.execute("CREATE CLASS Blob TUPLE (id Integer, payload String)")
        .unwrap();
    let catalog = db.catalog();
    let mut oids = Vec::new();
    for i in 0..64 {
        oids.push(
            catalog
                .new_object(
                    "Blob",
                    Value::tuple(vec![
                        ("id", Value::Integer(i)),
                        ("payload", Value::string("x".repeat(200))),
                    ]),
                )
                .unwrap(),
        );
    }
    for (i, oid) in oids.iter().enumerate() {
        catalog
            .update_object(
                *oid,
                Value::tuple(vec![
                    ("id", Value::Integer(i as i32)),
                    ("payload", Value::string(format!("updated-{i}"))),
                ]),
            )
            .unwrap();
    }
    for (i, oid) in oids.iter().enumerate() {
        let (_, v) = catalog.get_object(*oid).unwrap();
        assert_eq!(
            v.field("payload"),
            Some(&Value::string(format!("updated-{i}")))
        );
    }
    let snap = db.metrics().snapshot();
    assert!(
        snap.buffer_misses > 0,
        "pressure actually evicted: {snap:?}"
    );
}

#[test]
fn torn_log_tail_is_tolerated() {
    let log = Arc::new(MemLog::new());
    struct Shared(Arc<MemLog>);
    impl mood_storage::wal::LogStore for Shared {
        fn append(&self, b: &[u8]) -> mood_storage::Result<()> {
            self.0.append(b)
        }
        fn force(&self) -> mood_storage::Result<()> {
            self.0.force()
        }
        fn read_all(&self) -> mood_storage::Result<Vec<u8>> {
            self.0.read_all()
        }
        fn truncate(&self) -> mood_storage::Result<()> {
            self.0.truncate()
        }
    }
    let wal = Wal::new(Box::new(Shared(log.clone())), DiskMetrics::new());
    let disk = MemDisk::new();
    let f = disk.create_file().unwrap();
    disk.allocate_page(f).unwrap();
    let t = wal.begin();
    wal.log_page(
        t,
        f,
        PageId(0),
        &mood_storage::Page::new(),
        &mood_storage::Page::new(),
    );
    wal.commit(t).unwrap();
    let t2 = wal.begin();
    wal.log_page(
        t2,
        f,
        PageId(0),
        &mood_storage::Page::new(),
        &mood_storage::Page::new(),
    );
    wal.commit(t2).unwrap();
    log.tear(3); // torn commit record for t2
    assert_eq!(wal.recover(&disk).unwrap(), 1, "t1 only");
}

#[test]
fn metrics_distinguish_scan_from_probe_patterns() {
    let db = Mood::in_memory_with_pool(4);
    db.execute("CREATE CLASS Row TUPLE (k Integer, pad String)")
        .unwrap();
    let catalog = db.catalog();
    // Enough pages that the §8.1 inequality favors the index for an
    // equality probe (a handful of random reads vs hundreds of
    // sequential pages).
    for i in 0..5000 {
        catalog
            .new_object(
                "Row",
                Value::tuple(vec![
                    ("k", Value::Integer(i)),
                    ("pad", Value::string("p".repeat(200))),
                ]),
            )
            .unwrap();
    }
    db.execute("CREATE INDEX ON Row(k)").unwrap();
    db.collect_stats().unwrap();
    // Sequential scan pattern.
    let before = db.metrics().snapshot();
    db.execute("SELECT r FROM Row r WHERE r.pad = 'nope'")
        .unwrap();
    let scan = db.metrics().snapshot().delta(&before);
    assert!(scan.seq_pages > 0, "{scan:?}");
    // Index probe pattern.
    let before = db.metrics().snapshot();
    db.execute("SELECT r FROM Row r WHERE r.k = 2500").unwrap();
    let probe = db.metrics().snapshot().delta(&before);
    assert!(probe.idx_pages > 0, "descends the B+-tree: {probe:?}");
    assert!(
        probe.seq_pages < scan.seq_pages,
        "probe reads far fewer sequential pages: {probe:?} vs {scan:?}"
    );
}

#[test]
fn concurrent_object_creation_with_indexes_is_consistent() {
    // Regression: index writers must share one handle (and one writer
    // lock) across sessions, or concurrent inserts corrupt the B+-tree.
    let db = Arc::new(Mood::in_memory());
    db.execute("CREATE CLASS Item TUPLE (k Integer)").unwrap();
    db.execute("CREATE INDEX ON Item(k)").unwrap();
    let mut handles = Vec::new();
    for t in 0..6i32 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..100 {
                db.execute(&format!("new Item <{}>", t * 1000 + i)).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    db.collect_stats().unwrap();
    // Every inserted key is findable through the index.
    for t in 0..6i32 {
        for i in (0..100).step_by(17) {
            let k = t * 1000 + i;
            let cur = db
                .query(&format!("SELECT x FROM Item x WHERE x.k = {k}"))
                .unwrap();
            assert_eq!(cur.len(), 1, "key {k} lost or duplicated");
        }
    }
    let cur = db.query("SELECT x FROM Item x").unwrap();
    assert_eq!(cur.len(), 600);
}
