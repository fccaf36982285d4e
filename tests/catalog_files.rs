//! The catalog's file lifecycle, end to end: the catalog's pages are the
//! only record of which file serves what (index registrations included),
//! and a file a DDL stops using is dropped only after that DDL commits.
//!
//! One test per way the lifecycle can tear: a dropped class's frames
//! outliving its files, recovery replaying pages of a dropped file, a DDL
//! whose commit fails (log fault at its first or second log operation)
//! losing what it retired, a failed index build staying registered, a
//! failed reorganization leaving its rebuilt index registered, and a
//! reopen forgetting an index.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mood_core::{Mood, QueryResult, Value};
use mood_storage::{FaultPlan, FaultyLog, MemDisk, MemLog, StorageManager};

static RUN: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mood-catfiles-{tag}-{}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn rows(db: &Mood, sql: &str) -> QueryResult {
    match db.execute(sql).unwrap() {
        mood_core::Answer::Rows(r) => r,
        other => panic!("{sql}: not rows: {other:?}"),
    }
}

fn count(db: &Mood, sql: &str) -> usize {
    rows(db, sql).len()
}

/// Class `A` with a unique index on `id` and objects `0..n`.
fn indexed_class(db: &Mood, n: i32) {
    db.execute("CREATE CLASS A TUPLE (id Integer)").unwrap();
    db.execute("CREATE UNIQUE BTREE INDEX ON A(id)").unwrap();
    for i in 0..n {
        db.execute(&format!("new A <{i}>")).unwrap();
    }
}

/// `A`'s unique index is registered, answers point lookups for `0..n`
/// and refuses a duplicate key.
fn assert_unique_index_works(db: &Mood, n: i32) {
    assert_eq!(count(db, "SELECT a.id FROM A a"), n as usize);
    let info = db.catalog().index("A", "id").expect("A(id) must be registered");
    assert!(info.unique);
    for i in [0, n / 2, n - 1] {
        let hits = db.catalog().index_lookup("A", "id", &Value::Integer(i)).unwrap();
        assert_eq!(hits.len(), 1, "index lookup of {i}");
    }
    assert_eq!(count(db, &format!("SELECT a FROM A a WHERE a.id = {}", n - 1)), 1);
    assert!(db.execute("new A <0>").is_err(), "a duplicate key must be refused");
}

/// A durable database over memory whose log faults by `plan` (its
/// `catalog.root`, read only at open, goes to a scratch directory).
fn log_faulted(plan: Arc<FaultPlan>) -> Mood {
    let log = Box::new(FaultyLog::new(MemLog::new(), plan));
    let sm = StorageManager::with_parts(Arc::new(MemDisk::new()), log, 256).unwrap();
    let dir = fresh_dir("log");
    let db = Mood::open_with_storage(Arc::new(sm), &dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    db
}

/// Run `setup` on a durable database, then `stmt` with the log failing
/// at the statement's `nth` log operation (1 = its first). The statement
/// must fail; the log and the engine are healed before returning.
fn fail_at_log_op(setup: impl Fn(&Mood), stmt: &str, nth: u64) -> Mood {
    let dry = FaultPlan::disarmed();
    setup(&log_faulted(dry.clone()));
    let plan = FaultPlan::fail_at(dry.ops() + nth);
    let db = log_faulted(plan.clone());
    setup(&db);
    let err = db.execute(stmt).expect_err("the statement's commit must fail");
    assert!(err.to_string().contains("rolled back"), "{stmt}: {err}");
    assert_eq!(plan.fired_at(), Some(dry.ops() + nth), "{stmt}: the fault fired elsewhere");
    plan.heal();
    db.storage().health().heal();
    db
}

/// Defect 1: DROP CLASS of an indexed class left the index's frames in
/// the pool after dropping its file, so the next checkpoint failed with
/// `UnknownFile` and put the engine in read-only mode.
#[test]
fn drop_class_of_an_indexed_class_leaves_the_engine_writable() {
    let db = Mood::in_memory();
    indexed_class(&db, 20);
    db.execute("DROP CLASS A").unwrap();
    db.checkpoint().unwrap();
    db.execute("CREATE CLASS B TUPLE (x Integer)").unwrap();
    db.execute("new B <7>").unwrap();
    assert_eq!(db.catalog().pending_drop_count(), 0, "retired files are reaped");
    assert!(db.catalog().indexes().is_empty());
}

/// Defect 2: a file DROP CLASS dropped still had pages in the log, so a
/// crash after the next DDL left a log recovery could not replay.
#[test]
fn a_crash_after_drop_class_and_a_new_class_reopens() {
    let dir = fresh_dir("crash");
    {
        let db = Mood::open(&dir).unwrap();
        indexed_class(&db, 20);
        db.execute("DROP CLASS A").unwrap();
        db.execute("CREATE CLASS B TUPLE (x Integer)").unwrap();
        db.execute("new B <7>").unwrap();
        // Dropped without a checkpoint: the crash.
    }
    let db = Mood::open(&dir).expect("reopen after the crash");
    assert!(db.catalog().class("A").is_err());
    let r = rows(&db, "SELECT b.x FROM B b");
    assert_eq!(r.rows, vec![vec![Value::Integer(7)]]);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Defect 3: DROP CLASS dropped its files inside the transaction, so when
/// the commit failed the reloaded class named an extent that was gone.
#[test]
fn a_drop_class_whose_commit_fails_keeps_its_rows_and_unique_index() {
    for nth in [1, 2] {
        let db = fail_at_log_op(|db| indexed_class(db, 20), "DROP CLASS A", nth);
        assert_eq!(db.catalog().pending_drop_count(), 0, "nothing stays retired");
        assert_unique_index_works(&db, 20);
    }
}

/// Defect 4: a failed unique index build stayed registered over its
/// rolled-back tree; every later insert read a zeroed node.
#[test]
fn a_failed_create_unique_index_registers_nothing() {
    let db = Mood::in_memory();
    db.execute("CREATE CLASS A TUPLE (id Integer)").unwrap();
    for i in [1, 1, 2] {
        db.execute(&format!("new A <{i}>")).unwrap();
    }
    assert!(db.execute("CREATE UNIQUE BTREE INDEX ON A(id)").is_err());
    db.execute("new A <3>").unwrap();
    assert!(db.catalog().index("A", "id").is_none());
    db.execute("CREATE INDEX ON A(id)").unwrap();
    assert_eq!(count(&db, "SELECT a FROM A a WHERE a.id = 1"), 2);
    assert_eq!(db.catalog().index_lookup("A", "id", &Value::Integer(3)).unwrap().len(), 1);
}

/// Defect 5: CLUSTER whose commit failed left the class's index
/// registered on the rebuilt (rolled-back) file.
#[test]
fn a_cluster_whose_commit_fails_keeps_the_old_index() {
    let setup = |db: &Mood| {
        db.execute("CREATE CLASS P TUPLE (n Integer)").unwrap();
        db.execute("CREATE CLASS A TUPLE (id Integer, p REFERENCE (P))").unwrap();
        db.execute("CREATE UNIQUE BTREE INDEX ON A(id)").unwrap();
        let catalog = db.catalog();
        let parts: Vec<_> = (0..8)
            .map(|n| catalog.new_object("P", Value::tuple(vec![("n", Value::Integer(n))])))
            .collect::<Result<_, _>>()
            .unwrap();
        for i in 0..20 {
            let p = Value::Ref(parts[(i * 5 % 8) as usize]);
            let fields = vec![("id", Value::Integer(i)), ("p", p)];
            catalog.new_object("A", Value::tuple(fields)).unwrap();
        }
    };
    for nth in [1, 2] {
        let db = fail_at_log_op(setup, "CLUSTER A BY p", nth);
        assert_unique_index_works(&db, 20);
        assert_eq!(count(&db, "SELECT a.p.n FROM A a WHERE a.p.n = 5"), 3);
    }
}

/// Defect 6: index registrations lived only in memory, so a reopen lost
/// every index (and with it uniqueness) and orphaned its file.
#[test]
fn a_unique_index_survives_a_clean_reopen() {
    let dir = fresh_dir("reopen");
    {
        let db = Mood::open(&dir).unwrap();
        indexed_class(&db, 20);
        db.checkpoint().unwrap();
    }
    let db = Mood::open(&dir).unwrap();
    assert_eq!(db.catalog().indexes().len(), 1);
    assert_unique_index_works(&db, 20);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
