//! Fault-tolerance integration tests: page checksums, WAL-based page
//! repair, retrying disk, deadlock detection, and degraded mode —
//! exercised end to end through the SQL surface.
//!
//! Everything here is deterministic: faults come from pinned
//! [`FaultPlan`]s, backoff sleeps are injected (no wall clock), and the
//! deadlock schedules synchronize on the lock manager's own wait
//! counter. The `#[ignore]`d sweeps widen the same scenarios to every
//! fault point; CI runs them in the non-gating crash-sweep job.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mood_core::{Answer, Mood, Value};
use mood_storage::{
    Disk, FaultPlan, FaultyDisk, FileDisk, FileId, FileLog, LockMode, MemDisk, MemLog, Page,
    PageId, RetryDisk, StorageError, StorageManager, PAGE_USABLE,
};

static RUN: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mood-faulttol-{tag}-{}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Open a file-backed database whose disk is wrapped by `plan`. The log
/// is clean: these tests fault the page device, not the WAL.
fn open_pooled(dir: &Path, plan: Arc<FaultPlan>, frames: usize) -> Mood {
    let fd = FileDisk::open(dir.join("pages")).unwrap();
    let disk: Arc<dyn Disk> = Arc::new(FaultyDisk::with_plan(fd, plan));
    let log = Box::new(FileLog::open(dir.join("wal.log")).unwrap());
    let sm = StorageManager::with_parts(disk, log, frames).unwrap();
    Mood::open_with_storage(Arc::new(sm), dir).unwrap()
}

fn open_faulted(dir: &Path, plan: Arc<FaultPlan>) -> Mood {
    open_pooled(dir, plan, 64)
}

type Ledger = BTreeMap<i32, i32>;

/// Commit an indexed Account population. All of it lands in the WAL as
/// committed after-images — the repair source for every test. The `pad`
/// attribute bloats each record past 300 bytes so the heap spans many
/// pages: against a tiny pool that working set forces evictions
/// (write-backs) and re-reads, the traffic checksums protect.
fn seed_accounts(db: &Mood) {
    db.execute("CREATE CLASS Account TUPLE (id Integer, balance Integer, pad String)")
        .unwrap();
    db.execute("CREATE UNIQUE BTREE INDEX ON Account(id)")
        .unwrap();
    let pad = "x".repeat(300);
    for i in 1..=120 {
        db.execute(&format!("new Account <{i}, {}, '{pad}'>", i * 10))
            .unwrap();
    }
}

/// Read back the whole class two ways — sequential scan and indexed
/// point queries — so both the heap and the B+-tree pages get read (and
/// verified) on the way.
fn read_workload(db: &Mood) -> Ledger {
    let mut led = Ledger::new();
    let mut cur = db.query("SELECT a.id, a.balance FROM Account a").unwrap();
    while let Some(row) = cur.next() {
        let (Value::Integer(id), Value::Integer(bal)) = (&row[0], &row[1]) else {
            panic!("non-integer Account row: {row:?}");
        };
        led.insert(*id, *bal);
    }
    for id in [1, 13, 27, 40, 77, 120] {
        let mut cur = db
            .query(&format!(
                "SELECT a.balance FROM Account a WHERE a.id = {id}"
            ))
            .unwrap();
        let row = cur.next().expect("point query must find the row");
        assert_eq!(Value::Integer(led[&id]), row[0], "index/heap disagree");
    }
    led
}

/// Fetch one metric's rendered value from `SHOW METRICS`.
fn metric_value(db: &Mood, name: &str) -> String {
    let Answer::Rows(result) = db.execute("SHOW METRICS").unwrap() else {
        panic!("SHOW METRICS must return rows");
    };
    let row = result
        .rows
        .iter()
        .find(|row| row[0] == Value::String(name.into()))
        .unwrap_or_else(|| panic!("metric {name} missing from SHOW METRICS"));
    match &row[1] {
        Value::String(s) => s.clone(),
        other => panic!("metric {name} has non-string value {other:?}"),
    }
}

// ----------------------------------------------------------------------
// Checksums and WAL-based page repair
// ----------------------------------------------------------------------

/// A tiny buffer pool: seeding and scanning 40 rows plus the catalog
/// and index churns every frame, so committed pages keep getting
/// written back (stamped) and re-read from the device (verified). That
/// read/write-back traffic is the bit-flip target — `Mood` checkpoints
/// (truncating the WAL) at the end of every open, so only corruption of
/// pages committed *since* open has a repair image, and that is exactly
/// the traffic a live engine produces.
const TINY_POOL: usize = 8;

/// One sweep step in a fresh directory: arm a one-shot bit flip at disk
/// op `k`, seed and read everything twice, and demand results identical
/// to the clean run. Returns how many pages were repaired from the WAL.
fn bit_flip_run(baseline: &Ledger, k: u64) -> u64 {
    let dir = fresh_dir("bitflip-k");
    let plan = FaultPlan::bit_flip_at(k, 0x5eed_0000 ^ k);
    let db = open_pooled(&dir, plan, TINY_POOL);
    seed_accounts(&db);
    // Two passes: the first may be the one whose write-back gets
    // flipped; the second re-reads every page from the device.
    assert_eq!(
        &read_workload(&db),
        baseline,
        "first read diverged with a bit flip at disk op {k}"
    );
    assert_eq!(
        &read_workload(&db),
        baseline,
        "re-read diverged with a bit flip at disk op {k}"
    );
    let repairs = db.engine_metrics().page_repairs;
    if repairs > 0 {
        // The repair is visible at the SQL surface too.
        let shown: u64 = metric_value(&db, "page.repairs").parse().unwrap();
        assert_eq!(shown, repairs, "SHOW METRICS disagrees with the registry");
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    repairs
}

/// Clean run of the same schedule, returning the expected results plus
/// the op domain for the sweep: `(ledger, first op after open, total)`.
fn bit_flip_domain() -> (Ledger, u64, u64) {
    let dir = fresh_dir("bitflip-dry");
    let dry = FaultPlan::disarmed();
    let db = open_pooled(&dir, dry.clone(), TINY_POOL);
    let after_open = dry.ops();
    seed_accounts(&db);
    let baseline = read_workload(&db);
    assert_eq!(read_workload(&db), baseline);
    let total = dry.ops();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(total > after_open, "the workload must hit the device");
    (baseline, after_open, total)
}

#[test]
fn bit_flips_are_detected_and_repaired_from_the_wal() {
    let (baseline, after_open, total) = bit_flip_domain();
    // Sample fault points across the post-open domain (flips during
    // bootstrap land before the open-time checkpoint truncates their
    // repair images — a corrupt page there is detected but torn for
    // good, which the unrepairable-corruption test covers instead).
    // Flips on non-write ops are no-ops by design: silent corruption is
    // a write phenomenon.
    let step = ((total - after_open) / 12).max(1);
    let mut total_repairs = 0;
    let mut k = after_open + 1;
    while k <= total {
        total_repairs += bit_flip_run(&baseline, k);
        k += step;
    }
    assert!(
        total_repairs >= 1,
        "no sampled bit flip was caught by a checksum — detection is dead"
    );
}

#[test]
fn checksum_roundtrip_over_seeded_random_pages() {
    // SplitMix64: the same generator the fault plans use.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for round in 0..200 {
        let mut p = Page::new();
        for b in p.data[..PAGE_USABLE].iter_mut() {
            *b = next() as u8;
        }
        // Unstamped pages (no trailer magic) are trusted: fresh
        // allocations were never checksummed and must read back clean.
        assert!(
            p.verify_checksum().is_ok(),
            "round {round}: unstamped page rejected"
        );
        p.stamp_checksum();
        assert!(
            p.verify_checksum().is_ok(),
            "round {round}: stamp/verify roundtrip failed"
        );
        // Any single-byte corruption in the covered region is detected...
        let off = (next() as usize) % PAGE_USABLE;
        let mask = (next() as u8) | 1; // nonzero: the byte really changes
        p.data[off] ^= mask;
        let (expected, actual) = p
            .verify_checksum()
            .expect_err("round {round}: corruption went unnoticed");
        assert_ne!(expected, actual);
        // ...and undoing it restores validity.
        p.data[off] ^= mask;
        assert!(p.verify_checksum().is_ok());
    }
}

/// One Counter row committed three times since the open-time checkpoint:
/// the log holds its heap page as one image and two deltas (asserted by
/// how little the second and third commits add). Returns the heap file.
fn commit_counter_three_times(db: &Mood) -> mood_storage::FileId {
    db.execute("CREATE CLASS Counter TUPLE (id Integer, v Integer)")
        .unwrap();
    let wal = db.storage().wal();
    db.execute("new Counter <1, 100>").unwrap();
    let mut logged = wal.size().unwrap();
    for v in [200, 300] {
        db.execute(&format!("UPDATE Counter c SET v = {v} WHERE c.id = 1"))
            .unwrap();
        let now = wal.size().unwrap();
        assert!(
            now > logged && now - logged < 512,
            "an in-place update of a logged page must log a delta, not {} bytes",
            now - logged
        );
        logged = now;
    }
    db.catalog().class("Counter").unwrap().extent.unwrap()
}

/// XOR `mask` into one byte of every page of `file` on the device.
fn damage_pages(dir: &Path, file: mood_storage::FileId, at: std::ops::Range<usize>, mask: u8) {
    let path = dir.join("pages").join(format!("f{}.mood", file.0));
    let mut bytes = std::fs::read(&path).unwrap();
    assert!(!bytes.is_empty(), "the heap has pages on the device");
    for page in bytes.chunks_mut(mood_storage::PAGE_SIZE) {
        for b in &mut page[at.clone()] {
            *b ^= mask;
        }
    }
    std::fs::write(&path, bytes).unwrap();
}

#[test]
fn a_page_committed_three_times_is_repaired_to_its_third_state() {
    let dir = fresh_dir("repair-replay");
    let db = open_faulted(&dir, FaultPlan::disarmed());
    let heap = commit_counter_three_times(&db);
    // Write the third state back (stamped), forget the frames, then flip
    // a bit of every heap page on the device. No checkpoint: the log
    // still covers the page.
    let pool = db.storage().pool();
    pool.flush_all().unwrap();
    pool.discard_file(heap);
    damage_pages(&dir, heap, 2000..2001, 0x10);
    assert_eq!(
        read_one(&db, "SELECT c.v FROM Counter c WHERE c.id = 1"),
        300,
        "repair is the image plus both later deltas"
    );
    assert!(db.engine_metrics().page_repairs >= 1, "the flip was caught");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_page_under_an_intact_log_recovers() {
    let dir = fresh_dir("torn-page");
    let heap = {
        let db = open_faulted(&dir, FaultPlan::disarmed());
        let heap = commit_counter_three_times(&db);
        // A write-back of the third state that tore: the page's first half
        // reached the device, its second half (damaged below) did not.
        db.storage().pool().flush_all().unwrap();
        heap
        // Crash: no checkpoint, the log stays.
    };
    damage_pages(&dir, heap, 2048..PAGE_USABLE, 0xFF);
    // Recovery rebuilds the page from the log alone; laying the deltas
    // over the torn disk copy instead would keep its damaged half.
    let db = Mood::open(&dir).unwrap();
    assert_eq!(
        read_one(&db, "SELECT c.v FROM Counter c WHERE c.id = 1"),
        300
    );
    assert_eq!(
        db.engine_metrics().page_repairs,
        0,
        "recovery, not repair, fixed it"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------------
// Retrying disk
// ----------------------------------------------------------------------

/// Reopen the seeded database behind a `RetryDisk` over a device that
/// fails its first `n` operations, with an injected sleeper. Returns the
/// recorded backoff sleeps.
fn retry_run(dir: &Path, baseline: &Ledger, n: u64) -> Vec<u64> {
    let sleeps = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let fd = FileDisk::open(dir.join("pages")).unwrap();
    let faulty = FaultyDisk::with_plan(fd, FaultPlan::fail_n_then_heal(n));
    let recorder = sleeps.clone();
    let retry = RetryDisk::with_backoff(
        faulty,
        vec![1, 2, 4, 8],
        Box::new(move |ms| recorder.lock().push(ms)),
    );
    let disk: Arc<dyn Disk> = Arc::new(retry);
    let log = Box::new(FileLog::open(dir.join("wal.log")).unwrap());
    // Recovery's first page write eats the injected failures; the
    // backoff schedule (4 retries) outlasts them.
    let sm = StorageManager::with_parts(disk, log, 64).unwrap();
    let db = Mood::open_with_storage(Arc::new(sm), dir).unwrap();
    assert_eq!(&read_workload(&db), baseline, "data diverged after retries");
    let metrics = db.engine_metrics();
    assert_eq!(metrics.io_retries, n, "each injected failure costs one retry");
    assert_eq!(metrics.io_gave_up, 0, "the schedule must outlast {n} faults");
    // Registry discovery surfaces the wrapper's counters in SQL.
    assert_eq!(metric_value(&db, "io.retries"), n.to_string());
    assert_eq!(metric_value(&db, "io.gave_up"), "0");
    let recorded = sleeps.lock().clone();
    recorded
}

#[test]
fn transient_disk_faults_are_ridden_out_with_backoff() {
    let dir = fresh_dir("retry");
    let baseline = {
        let db = open_faulted(&dir, FaultPlan::disarmed());
        seed_accounts(&db);
        read_workload(&db)
    };
    // Three consecutive failures, then the device heals: the first
    // recovery write retries through exactly the 1ms/2ms/4ms prefix of
    // the schedule — all injected, no wall clock.
    assert_eq!(retry_run(&dir, &baseline, 3), vec![1, 2, 4]);
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------------
// Deadlock detection through the SQL surface
// ----------------------------------------------------------------------

fn two_class_db() -> Mood {
    let db = Mood::in_memory();
    db.execute("CREATE CLASS Alpha TUPLE (id Integer, v Integer)")
        .unwrap();
    db.execute("CREATE CLASS Beta TUPLE (id Integer, v Integer)")
        .unwrap();
    db.execute("new Alpha <1, 10>").unwrap();
    db.execute("new Beta <1, 20>").unwrap();
    db
}

fn read_one(db: &Mood, sql: &str) -> i32 {
    let mut cur = db.query(sql).unwrap();
    let row = cur.next().expect("row must exist");
    let Value::Integer(v) = row[0] else {
        panic!("non-integer value: {row:?}");
    };
    v
}

#[test]
fn deadlock_aborts_the_rival_and_the_session_commits() {
    let db = two_class_db();
    let locks = db.storage().locks().clone();

    db.execute("BEGIN").unwrap();
    db.execute("UPDATE Alpha a SET v = 11 WHERE a.id = 1").unwrap(); // holds class:Alpha

    // A rival with the largest possible owner id: always the youngest
    // cycle member, hence always the victim.
    const RIVAL: u64 = u64::MAX;
    locks
        .acquire(RIVAL, "class:Beta", LockMode::Exclusive)
        .unwrap();
    let waits_before = locks.wait_count();
    let rival_locks = locks.clone();
    let rival = std::thread::spawn(move || {
        let err = rival_locks
            .acquire(RIVAL, "class:Alpha", LockMode::Exclusive)
            .unwrap_err();
        rival_locks.release_all(RIVAL); // the doomed rival aborts
        err
    });
    // Let the rival block on class:Alpha before closing the cycle.
    while locks.wait_count() == waits_before {
        std::thread::yield_now();
    }

    // This statement closes the cycle; detection dooms the rival within
    // the pass and the statement proceeds once the rival lets go.
    db.execute("UPDATE Beta b SET v = 21 WHERE b.id = 1").unwrap();
    db.execute("COMMIT").unwrap();

    match rival.join().unwrap() {
        StorageError::Deadlock { victim, cycle } => {
            assert_eq!(victim, RIVAL);
            assert_eq!(cycle.len(), 2, "cycle is session <-> rival: {cycle:?}");
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
    assert_eq!(read_one(&db, "SELECT a.v FROM Alpha a WHERE a.id = 1"), 11);
    assert_eq!(read_one(&db, "SELECT b.v FROM Beta b WHERE b.id = 1"), 21);
    assert_eq!(locks.deadlock_count(), 1);
    assert_eq!(
        locks.timeout_count(),
        0,
        "detection must beat the timeout backstop"
    );
    assert_eq!(metric_value(&db, "lock.deadlocks"), "1");
}

#[test]
fn deadlock_victim_statement_rolls_back_and_the_transaction_survives() {
    let db = two_class_db();
    let locks = db.storage().locks().clone();

    db.execute("BEGIN").unwrap();
    db.execute("UPDATE Alpha a SET v = 11 WHERE a.id = 1").unwrap();

    // A rival with owner id 0: older than any transaction id, so the
    // session itself is the youngest cycle member — and the victim.
    const RIVAL: u64 = 0;
    locks
        .acquire(RIVAL, "class:Beta", LockMode::Exclusive)
        .unwrap();
    let waits_before = locks.wait_count();
    let rival_locks = locks.clone();
    let rival = std::thread::spawn(move || {
        // Blocks until the session's COMMIT releases class:Alpha.
        let granted = rival_locks.acquire(RIVAL, "class:Alpha", LockMode::Exclusive);
        rival_locks.release_all(RIVAL);
        granted
    });
    while locks.wait_count() == waits_before {
        std::thread::yield_now();
    }

    // The session closes the cycle and is its youngest member: the
    // statement fails with Deadlock on the spot...
    let err = db
        .execute("UPDATE Beta b SET v = 99 WHERE b.id = 1")
        .unwrap_err();
    assert!(
        err.to_string().contains("deadlock detected"),
        "expected a deadlock error, got: {err}"
    );

    // ...but only the statement died (savepoint rollback). The
    // transaction is alive: it keeps working and commits.
    db.execute("UPDATE Alpha a SET v = 12 WHERE a.id = 1").unwrap();
    db.execute("COMMIT").unwrap();

    rival
        .join()
        .unwrap()
        .expect("the surviving rival gets class:Alpha after the commit");
    assert_eq!(read_one(&db, "SELECT a.v FROM Alpha a WHERE a.id = 1"), 12);
    assert_eq!(
        read_one(&db, "SELECT b.v FROM Beta b WHERE b.id = 1"),
        20,
        "the aborted statement's write must not surface"
    );
    assert!(locks.deadlock_count() >= 1);
    assert_eq!(locks.timeout_count(), 0);
}

// ----------------------------------------------------------------------
// Degraded mode
// ----------------------------------------------------------------------

#[test]
fn degraded_mode_refuses_writes_until_healed() {
    let db = Mood::in_memory();
    db.execute("CREATE CLASS Note TUPLE (id Integer)").unwrap();
    db.execute("new Note <1>").unwrap();
    assert_eq!(metric_value(&db, "storage.degraded"), "no");

    let health = db.storage().health();
    health.mark_degraded("simulated device failure");

    // Writes are refused with the reason...
    let err = db.execute("new Note <2>").unwrap_err();
    assert!(
        err.to_string().contains("read-only (degraded mode)"),
        "unexpected refusal: {err}"
    );
    // ...DDL too...
    assert!(db
        .execute("CREATE CLASS Blocked TUPLE (id Integer)")
        .is_err());
    // ...while reads keep working and the flag is visible in SQL.
    assert_eq!(read_one(&db, "SELECT n.id FROM Note n WHERE n.id = 1"), 1);
    assert_eq!(
        metric_value(&db, "storage.degraded"),
        "yes (simulated device failure)"
    );

    health.heal();
    db.execute("new Note <2>").unwrap();
    assert_eq!(metric_value(&db, "storage.degraded"), "no");
}

// ----------------------------------------------------------------------
// Extended sweeps — every fault point. Run by the CI crash-sweep job
// with `--ignored`; not gating.
// ----------------------------------------------------------------------

// ----------------------------------------------------------------------
// A storage failure is an error, never a shorter answer
// ----------------------------------------------------------------------

/// A Part → Maker reference graph over an in-memory device wrapped by
/// `plan`, behind a pool far smaller than the data: every chase and every
/// index fetch below goes to the device.
fn open_parts(plan: Arc<FaultPlan>) -> (Mood, PathBuf) {
    open_parts_pooled(plan, TINY_POOL)
}

/// [`open_parts`] behind a pool of `frames`; a pool that could hold the
/// data starts cold, so reads still go to the device.
fn open_parts_pooled(plan: Arc<FaultPlan>, frames: usize) -> (Mood, PathBuf) {
    let dir = fresh_dir("readfault");
    let disk: Arc<dyn Disk> = Arc::new(FaultyDisk::with_plan(MemDisk::new(), plan));
    let sm = StorageManager::with_parts(disk, Box::new(MemLog::new()), frames).unwrap();
    let db = Mood::open_with_storage(Arc::new(sm), &dir).unwrap();
    db.execute("CREATE CLASS Maker TUPLE (id Integer, pad String)")
        .unwrap();
    db.execute("CREATE CLASS Part TUPLE (id Integer, maker REFERENCE (Maker), pad String)")
        .unwrap();
    db.execute("CREATE UNIQUE BTREE INDEX ON Part(id)").unwrap();
    let pad = Value::string("x".repeat(300));
    let cat = db.catalog();
    let makers: Vec<_> = (0..240)
        .map(|i| {
            let fields = vec![("id", Value::Integer(i)), ("pad", pad.clone())];
            cat.new_object("Maker", Value::tuple(fields)).unwrap()
        })
        .collect();
    for i in 0..2400 {
        let maker = Value::Ref(makers[(i as usize * 7) % makers.len()]);
        let fields = vec![("id", Value::Integer(i)), ("maker", maker), ("pad", pad.clone())];
        cat.new_object("Part", Value::tuple(fields)).unwrap();
    }
    db.collect_stats().unwrap();
    if frames > TINY_POOL {
        let pool = db.storage().pool();
        pool.flush_all().unwrap();
        for file in pool.disk().files() {
            pool.discard_file(file);
        }
    }
    (db, dir)
}

/// Run `read` once cleanly, then once per sampled device operation inside
/// it with the device dying at that operation: every outcome must be the
/// clean answer or an error.
fn assert_read_faults_surface<T: PartialEq + std::fmt::Debug>(
    what: &str,
    read: impl Fn(&Mood) -> Result<T, String>,
) {
    assert_read_faults_surface_pooled(TINY_POOL, what, read)
}

/// [`assert_read_faults_surface`] behind a pool of `frames`.
fn assert_read_faults_surface_pooled<T: PartialEq + std::fmt::Debug>(
    frames: usize,
    what: &str,
    read: impl Fn(&Mood) -> Result<T, String>,
) {
    let dry = FaultPlan::disarmed();
    let (db, dir) = open_parts_pooled(dry.clone(), frames);
    let before = dry.ops();
    let clean = read(&db).expect("clean run");
    let ops = dry.ops() - before;
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(ops >= 2, "{what}: the read must hit the device ({ops} ops)");

    let mut errors = 0;
    for j in (0..ops).step_by((ops as usize / 8).max(1)) {
        // Seeding replays the dry run's `before` operations, then `j` more
        // succeed inside the read and the next one fails (and latches).
        let (db, dir) = open_parts_pooled(FaultPlan::fail_after(before + j), frames);
        match read(&db) {
            Ok(got) => assert_eq!(got, clean, "{what}: fault at op {j} shortened the answer"),
            Err(_) => errors += 1,
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(errors > 0, "{what}: no sampled fault surfaced as an error");
}

#[test]
fn read_faults_under_joins_and_index_fetches_are_errors() {
    let ids = |db: &Mood, sql: &str| -> Result<Vec<Value>, String> {
        match db.execute(sql).map_err(|e| e.to_string())? {
            Answer::Rows(r) => Ok(r.rows.into_iter().map(|mut row| row.remove(0)).collect()),
            other => panic!("not rows: {other:?}"),
        }
    };
    // A forward-traversal join: each chase fetches a Maker by reference.
    let join_sql = "SELECT p.id FROM Part p WHERE p.id < 64 AND p.maker.id >= 0";
    // An index-served lookup: the entry's Part is fetched by OID.
    let indsel_sql = "SELECT p.id FROM Part p WHERE p.id = 1777";
    {
        let (db, dir) = open_parts(FaultPlan::disarmed());
        let plan = db.explain(join_sql).unwrap();
        assert!(plan.contains("FORWARD_TRAVERSAL"), "{plan}");
        let plan = db.explain(indsel_sql).unwrap();
        assert!(plan.contains("INDSEL("), "{plan}");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_read_faults_surface("forward-traversal join", |db| ids(db, join_sql));
    assert_read_faults_surface("INDSEL fetch", |db| ids(db, indsel_sql));
    // An index range: one leaf-chain walk, then the interval's Parts fetched
    // page by page — and the same under a range-keyed UPDATE, whose target
    // set is complete before anything is written.
    assert_read_faults_surface("INDSEL range", |db| ids(db, RANGE_SQL));
    assert_read_faults_surface("range-keyed UPDATE", |db| {
        match db.execute(RANGE_UPDATE).map_err(|e| e.to_string())? {
            Answer::Done { affected } => Ok(affected),
            other => panic!("not a count: {other:?}"),
        }
    });
    // Paths that are not planned as joins are dereferenced by the compiled
    // expression itself — under arithmetic in a predicate (one fused scan),
    // in the projection (the tail). A device that dies under such a
    // dereference is the statement's error as the device reported it, not a
    // "dangling reference" the program made of the missing object.
    let scan_sql = "SELECT p.id FROM Part p WHERE p.id < 64 AND p.maker.id + 0 >= 0";
    let tail_sql = "SELECT p.maker.id FROM Part p WHERE p.id < 64";
    {
        let (db, dir) = open_parts(FaultPlan::disarmed());
        for sql in [scan_sql, tail_sql] {
            let plan = db.explain(sql).unwrap();
            assert!(!plan.contains("JOIN("), "{plan}");
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    for (what, sql) in [
        ("path in a scan predicate", scan_sql),
        ("path in the projection", tail_sql),
    ] {
        // Twice, so the fault also lands in a cached plan's execution.
        assert_read_faults_surface(what, |db| {
            let device_error = |e: &String| assert!(e.contains("injected fault"), "{what}: {e}");
            ids(db, sql).inspect_err(device_error)?;
            ids(db, sql).inspect_err(device_error)
        });
    }
    // The algebra's own join resolves references the same way.
    assert_read_faults_surface("algebra join", |db| {
        use mood_core::algebra::{bind_class, join, ExecutionConfig, JoinMethod, JoinRhs};
        let cat = db.catalog();
        let left = bind_class(cat, "Part", false, &[]).map_err(|e| e.to_string())?;
        join(
            cat,
            &left,
            "maker",
            JoinRhs::Class("Maker"),
            JoinMethod::ForwardTraversal,
            ExecutionConfig::default(),
        )
        .map(|pairs| pairs.len())
        .map_err(|e| e.to_string())
    });
}

/// The same guarantee where reads come in whole windows: a 64-frame pool
/// (32-page windows) read cold, so an extent scan, a backward traversal's
/// materialised extent and a forward chase each read through
/// `prefetch_sequential`, one device call per window. A device error inside
/// a window, or a checksum mismatch on a page one installs, is the
/// statement's error or a WAL repair — never a shorter answer.
#[test]
fn read_faults_inside_a_readahead_window_are_errors() {
    const POOL: usize = 64;
    let ids = |db: &Mood, sql: &str| -> Result<Vec<Value>, String> {
        match db.execute(sql).map_err(|e| e.to_string())? {
            Answer::Rows(r) => Ok(r.rows.into_iter().map(|mut row| row.remove(0)).collect()),
            other => panic!("not rows: {other:?}"),
        }
    };
    // (what, statement, plan operator, the class whose pages it sweeps, an
    // id on a page the sweep reads).
    let cases = [
        ("extent scan", "SELECT p.id FROM Part p WHERE p.pad <> 'q'", "BIND(Part", "Part", 1000),
        (
            "backward-traversal materialisation",
            "SELECT p.id FROM Part p WHERE p.maker.id = 63",
            "BACKWARD_TRAVERSAL",
            "Part",
            1000,
        ),
        (
            "forward chase",
            "SELECT p.id FROM Part p WHERE p.id < 64 AND p.maker.id >= 0",
            "FORWARD_TRAVERSAL",
            "Maker",
            63,
        ),
    ];
    for (what, sql, operator, class, id) in cases {
        let (db, dir) = open_parts_pooled(FaultPlan::disarmed(), POOL);
        assert_eq!(db.storage().pool().readahead_window(), 32);
        let plan = db.explain(sql).unwrap();
        assert!(plan.contains(operator), "{what}: {plan}");
        let metrics = db.storage().pool().metrics().clone();
        let before = metrics.snapshot();
        let clean = ids(&db, sql).unwrap();
        let windows = metrics.snapshot().delta(&before).seq_batches;
        assert!(windows >= 1, "{what}: the cold read goes through readahead windows");
        assert!(!clean.is_empty());
        // A page a window installs fails its checksum on the device.
        let extent = db.catalog().extent(class).unwrap();
        let has_id = |v: &Value| v.field("id") == Some(&Value::Integer(id));
        let (oid, _) = extent.into_iter().find(|(_, v)| has_id(v)).unwrap();
        corrupt_on_device(&db, oid.file, oid.page);
        match ids(&db, sql) {
            Ok(got) => assert_eq!(got, clean, "{what}: a damaged page shortened the answer"),
            Err(e) => assert!(e.contains("checksum"), "{what}: {e}"),
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        assert_read_faults_surface_pooled(POOL, what, |db| ids(db, sql));
    }
}

/// A read fault inside one batch's target fetch, after its first window:
/// a 16-frame pool reads in 8-page windows and the targets of one batch
/// span 22 Maker pages, so the fetch reads at least three windows, after
/// every read of the join's left input. Wherever in them the device dies,
/// a forward traversal (SQL) and a hash partition (the same join, by
/// method) fail with the device's error: never a shorter answer, never a
/// "dangling reference" made of a target that was not read. An INDSEL
/// range fetches through the same windows after its leaf walk (three pages,
/// a window each behind a pool too small to prefetch) and fails the same
/// way.
#[test]
fn a_read_fault_in_a_later_window_of_a_target_fetch_is_an_error() {
    use mood_core::algebra::{bind_class, join, ExecutionConfig, JoinMethod, JoinRhs};
    const POOL: usize = 16;
    let rows = |db: &Mood, sql: &str| -> Result<usize, String> {
        match db.execute(sql).map_err(|e| e.to_string())? {
            Answer::Rows(r) => Ok(r.rows.len()),
            other => panic!("not rows: {other:?}"),
        }
    };
    let forward_sql = "SELECT p.id FROM Part p WHERE p.id < 64 AND p.maker.id >= 0";
    let forward = |db: &Mood| rows(db, forward_sql);
    let forward_left = |db: &Mood| rows(db, "SELECT p.id FROM Part p WHERE p.id < 64");
    let parts = |db: &Mood| bind_class(db.catalog(), "Part", false, &[]).map_err(|e| e.to_string());
    let hash = |db: &Mood| -> Result<usize, String> {
        let (rhs, method) = (JoinRhs::Class("Maker"), JoinMethod::HashPartition);
        let exec = ExecutionConfig::default();
        let pairs = join(db.catalog(), &parts(db)?, "maker", rhs, method, exec);
        pairs.map(|pairs| pairs.len()).map_err(|e| e.to_string())
    };
    let hash_left = |db: &Mood| parts(db).map(|left| left.len());
    // An INDSEL range over three Part pages, after its leaf walk: a pool
    // too small to prefetch reads them in 1-page windows.
    let indsel_sql = "SELECT p.id FROM Part p WHERE p.id >= 105 AND p.id < 125";
    let indsel = |db: &Mood| rows(db, indsel_sql);
    let leaf_walk = |db: &Mood| -> Result<usize, String> {
        let (lo, hi) = (Value::Integer(105), Value::Integer(125));
        let oids = db.catalog().index_range("Part", "id", Some((&lo, true)), Some((&hi, false)));
        oids.map(|oids| oids.len()).map_err(|e| e.to_string())
    };
    {
        let (db, dir) = open_parts_pooled(FaultPlan::disarmed(), POOL);
        assert_eq!(db.storage().pool().readahead_window(), 8);
        assert!(db.explain(forward_sql).unwrap().contains("FORWARD_TRAVERSAL"));
        let makers = db.catalog().extent("Maker").unwrap();
        let pages: std::collections::HashSet<_> = makers.iter().map(|(o, _)| o.page).collect();
        assert!(pages.len() > 16, "{} Maker pages", pages.len());
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        let (db, dir) = open_parts_pooled(FaultPlan::disarmed(), TINY_POOL);
        assert_eq!(db.storage().pool().readahead_window(), 0);
        let plan = db.explain(indsel_sql).unwrap();
        assert!(plan.contains("INDSEL("), "{plan}");
        let range = db.catalog().index_range("Part", "id", None, None).unwrap();
        let pages: std::collections::HashSet<_> = range[105..125].iter().map(|o| o.page).collect();
        assert_eq!(pages.len(), 3, "Part pages");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Device operations after open, and the answer, of one cold read.
    let dry_run = |pool: usize, read: &dyn Fn(&Mood) -> Result<usize, String>| {
        let dry = FaultPlan::disarmed();
        let (db, dir) = open_parts_pooled(dry.clone(), pool);
        let before = dry.ops();
        let answer = read(&db).expect("clean run");
        let ops = dry.ops() - before;
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        (before, ops, answer)
    };
    type Read<'r> = &'r dyn Fn(&Mood) -> Result<usize, String>;
    let cases: [(&str, usize, Read<'_>, Read<'_>); 3] = [
        ("forward traversal", POOL, &forward, &forward_left),
        ("hash partition", POOL, &hash, &hash_left),
        ("INDSEL range", TINY_POOL, &indsel, &leaf_walk),
    ];
    for (what, pool, read, left) in cases {
        let (_, left_ops, _) = dry_run(pool, left);
        let (before, ops, clean) = dry_run(pool, read);
        assert!(clean > 0 && ops >= left_ops + 3, "{what}: {left_ops} then {ops} ops");
        // Every device operation of the target fetch: the first window's,
        // then the later ones'.
        for j in left_ops..ops {
            let (db, dir) = open_parts_pooled(FaultPlan::fail_after(before + j), pool);
            match read(&db) {
                Ok(got) => panic!("{what}: fault at op {j} of {ops} answered {got}, clean {clean}"),
                Err(e) => assert!(e.contains("injected fault"), "{what}, op {j}: {e}"),
            }
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

const RANGE_SQL: &str = "SELECT p.id FROM Part p WHERE p.id >= 1200 AND p.id < 1206";
const RANGE_UPDATE: &str = "UPDATE Part p SET pad = 'y' WHERE p.id >= 1200 AND p.id < 1206";

/// Flip one byte of a page on the device, behind the pool and without a
/// checksum restamp or a log image to repair it from.
fn corrupt_on_device(db: &Mood, file: FileId, page: PageId) {
    let pool = db.storage().pool();
    pool.flush_all().unwrap();
    let mut image = Page::new();
    pool.disk().read_page(file, page, &mut image).unwrap();
    image.data[100] ^= 0x40;
    pool.disk().write_page(file, page, &image).unwrap();
    pool.discard_file(file);
}

#[test]
fn a_damaged_page_under_an_index_range_is_an_error_and_a_dangling_entry_is_not() {
    let ids = |db: &Mood| -> Result<Vec<Value>, String> {
        match db.execute(RANGE_SQL).map_err(|e| e.to_string())? {
            Answer::Rows(r) => Ok(r.rows.into_iter().map(|mut row| row.remove(0)).collect()),
            other => panic!("not rows: {other:?}"),
        }
    };
    let update = |db: &Mood| db.execute(RANGE_UPDATE).map_err(|e| e.to_string());
    let clean: Vec<Value> = (1200..1206).map(Value::Integer).collect();
    let hits = |db: &Mood| {
        let (lo, hi) = (Value::Integer(1200), Value::Integer(1206));
        let range = (Some((&lo, true)), Some((&hi, false)));
        db.catalog()
            .index_range("Part", "id", range.0, range.1)
            .unwrap()
    };
    // A checksum mismatch on a leaf the walk crosses, or on a heap page the
    // batched fetch reads, fails the statement — a SELECT or an UPDATE's
    // target query alike.
    for damage_heap in [false, true] {
        let (db, dir) = open_parts(FaultPlan::disarmed());
        for sql in [RANGE_SQL, RANGE_UPDATE] {
            let plan = db.explain(sql).unwrap();
            let one_interval = "INDSEL(Part, p, BTREE, p.id >= 1200 AND p.id < 1206)";
            assert!(plan.contains(one_interval), "{plan}");
        }
        assert_eq!(ids(&db).unwrap(), clean);
        if damage_heap {
            let oid = hits(&db)[3];
            corrupt_on_device(&db, oid.file, oid.page);
        } else {
            let index = db.catalog().index("Part", "id").unwrap().file;
            let disk = db.storage().pool().disk().clone();
            db.storage().pool().flush_all().unwrap();
            let mut image = Page::new();
            // Every leaf: whichever holds the interval is among them.
            for page in 1..disk.page_count(index).unwrap() {
                disk.read_page(index, PageId(page), &mut image).unwrap();
                if image.data[0] == 1 {
                    corrupt_on_device(&db, index, PageId(page));
                }
            }
        }
        for outcome in [ids(&db).map(|_| ()), update(&db).map(|_| ())] {
            let err = outcome.expect_err("a damaged page is not an answer");
            assert!(err.contains("checksum"), "{err}");
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // An entry whose object is gone is skipped, as it always was.
    let (db, dir) = open_parts(FaultPlan::disarmed());
    let gone = hits(&db)[2];
    db.storage().open_heap(gone.file).delete(gone).unwrap();
    let mut left = clean.clone();
    left.remove(2);
    assert_eq!(ids(&db).unwrap(), left);
    assert!(matches!(update(&db).unwrap(), Answer::Done { affected: 5 }));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[ignore = "exhaustive sweep; run with --ignored in the CI crash-sweep job"]
fn sweep_every_bit_flip_point() {
    let (baseline, after_open, total) = bit_flip_domain();
    let mut total_repairs = 0;
    for k in after_open + 1..=total {
        total_repairs += bit_flip_run(&baseline, k);
    }
    assert!(total_repairs >= 1);
}

#[test]
#[ignore = "exhaustive sweep; run with --ignored in the CI crash-sweep job"]
fn sweep_retry_depths() {
    let dir = fresh_dir("retry-sweep");
    let baseline = {
        let db = open_faulted(&dir, FaultPlan::disarmed());
        seed_accounts(&db);
        read_workload(&db)
    };
    // Every survivable failure depth: the schedule has four entries, so
    // up to four consecutive faults get ridden out.
    let schedule = [1u64, 2, 4, 8];
    for n in 1..=4u64 {
        assert_eq!(
            retry_run(&dir, &baseline, n),
            schedule[..n as usize].to_vec(),
            "backoff prefix mismatch at depth {n}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
