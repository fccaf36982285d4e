//! The catalog's file lifecycle, end to end: the catalog's pages are the
//! only record of which file serves what (index registrations included),
//! and a file a DDL stops using is dropped only after that DDL commits.
//!
//! One test per way the lifecycle can tear: a dropped class's frames
//! outliving its files, recovery replaying pages of a dropped file, a DDL
//! whose commit fails (log fault at its first or second log operation)
//! losing what it retired, a failed index build staying registered, a
//! failed reorganization leaving its rebuilt index registered, a reopen
//! forgetting an index, and an index outliving the attribute it was on
//! (dropped or renamed).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mood_catalog::CatalogError;
use mood_core::{Mood, QueryResult, TypeDescriptor, Value};
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

/// Every registered index names an attribute its class has.
fn assert_indexes_resolve(db: &Mood) {
    for info in db.catalog().indexes() {
        let attrs = db.catalog().effective_attributes(&info.class).unwrap();
        let first = info.attribute.split('.').next().unwrap();
        assert!(attrs.iter().any(|a| a.name == first), "{}.{} is gone", info.class, info.attribute);
    }
}

/// `C(k)` indexed on `C` and on its subclass `S`; `D(k)` uniquely indexed.
fn evolving_classes(db: &Mood) {
    db.execute("CREATE CLASS C TUPLE (id Integer, k Integer)").unwrap();
    db.execute("CREATE CLASS S INHERITS FROM C").unwrap();
    db.execute("CREATE INDEX ON C(k)").unwrap();
    db.execute("CREATE INDEX ON S(k)").unwrap();
    db.execute("CREATE CLASS D TUPLE (k Integer)").unwrap();
    db.execute("CREATE UNIQUE BTREE INDEX ON D(k)").unwrap();
    for i in 0..10 {
        db.execute(&format!("new C <{i}, {i}>")).unwrap();
        db.execute(&format!("new D <{i}>")).unwrap();
    }
}

/// Defect 7: dropping an indexed attribute left its index registered, so
/// the attribute added back under the same name could not be indexed
/// (`DuplicateIndex`).
#[test]
fn dropping_an_indexed_attribute_retires_its_indexes() {
    let db = Mood::in_memory();
    evolving_classes(&db);
    db.catalog().drop_attribute("C", "k").unwrap();
    assert!(db.catalog().index("C", "k").is_none());
    assert!(db.catalog().index("S", "k").is_none(), "the subclass inherited k");
    assert_eq!(db.catalog().pending_drop_count(), 2, "both files wait for the reap");
    assert_indexes_resolve(&db);
    db.catalog().add_attribute("C", "k", TypeDescriptor::integer()).unwrap();
    db.execute("CREATE INDEX ON C(k)").unwrap();
    assert_eq!(db.catalog().pending_drop_count(), 0, "the next DDL reaps them");
    db.execute("new C <10, 70>").unwrap();
    assert_eq!(count(&db, "SELECT c FROM C c WHERE c.k = 70"), 1);
    let hits = db.catalog().index_lookup("C", "k", &Value::Integer(70)).unwrap();
    assert_eq!(hits.len(), 1, "the new index is maintained");
}

/// Defect 8: renaming a uniquely indexed attribute left the index under
/// the old name, so a duplicate of an existing key was accepted. A stored
/// object knows its attributes by id, not by name, so a rename keeps every
/// value and every index that reads the attribute — on the class (`C(k)`,
/// `D(k)`), on a subclass (`S(k)`) or on a path through it (`E(d.k)`) —
/// follows it under the new name, still answering and still refusing
/// duplicates.
#[test]
fn renaming_an_indexed_attribute_keeps_its_indexes() {
    let db = Mood::in_memory();
    evolving_classes(&db);
    for i in 0..10 {
        db.execute(&format!("new S <{}, {i}>", 100 + i)).unwrap();
    }
    db.execute("CREATE CLASS E TUPLE (d REFERENCE (D))").unwrap();
    for (oid, _) in db.catalog().extent("D").unwrap() {
        db.catalog().new_object("E", Value::tuple(vec![("d", Value::Ref(oid))])).unwrap();
    }
    db.execute("CREATE INDEX ON E(d.k)").unwrap();
    db.catalog().rename_attribute("C", "k", "j").unwrap();
    db.catalog().rename_attribute("D", "k", "j").unwrap();
    let mut names: Vec<_> =
        db.catalog().indexes().iter().map(|i| format!("{}({})", i.class, i.attribute)).collect();
    names.sort();
    assert_eq!(names, ["C(j)", "D(j)", "E(d.j)", "S(j)"]);
    assert!(db.catalog().index("D", "j").unwrap().unique);
    assert_indexes_resolve(&db);

    // Every index answers under the new name, as a scan does.
    let lookup = |class: &str, path: &str, k: i32| {
        db.catalog().index_lookup(class, path, &Value::Integer(k)).unwrap().len()
    };
    for k in [0, 4, 9] {
        assert_eq!((lookup("C", "j", k), lookup("S", "j", k), lookup("E", "d.j", k)), (1, 1, 1));
        assert_eq!(count(&db, &format!("SELECT c FROM C c WHERE c.j = {k}")), 1);
        assert_eq!(count(&db, &format!("SELECT s.id FROM S s WHERE s.j = {k}")), 1);
        assert_eq!(count(&db, &format!("SELECT e FROM E e WHERE e.d.j = {k}")), 1);
    }

    // The unique index still refuses a duplicate of a stored key.
    assert!(db.execute("new D <1>").is_err(), "a duplicate key must be refused");
    let by_scan = |db: &Mood, k: i32| count(db, &format!("SELECT d FROM D d WHERE d.j + 0 = {k}"));
    assert_eq!((by_scan(&db, 1), lookup("D", "j", 1)), (1, 1));
    // Delete then insert of a key works: the index holds no dangling OID.
    db.execute("DELETE FROM D d WHERE d.j = 1").unwrap();
    assert_eq!((by_scan(&db, 1), lookup("D", "j", 1)), (0, 0));
    db.execute("new D <1>").unwrap();
    assert_eq!((by_scan(&db, 1), lookup("D", "j", 1)), (1, 1));

    // Renaming onto a name the class — or a subclass — already has is
    // refused.
    assert!(matches!(
        db.catalog().rename_attribute("C", "id", "j"),
        Err(CatalogError::DuplicateAttribute { .. })
    ));
    db.execute("CREATE CLASS T INHERITS FROM D").unwrap();
    db.catalog().add_attribute("T", "m", TypeDescriptor::integer()).unwrap();
    assert!(matches!(
        db.catalog().rename_attribute("D", "j", "m"),
        Err(CatalogError::DuplicateAttribute { .. })
    ));
}

/// Both evolutions survive a reopen: no index names an attribute its
/// class no longer has. `D.k` is renamed with its unique index, which
/// follows it as `D(j)`; the object stored with `k = 1` reads `j = 1`, so
/// the index refuses another, before and after the reopen.
#[test]
fn a_reopen_lists_no_index_on_a_dropped_or_renamed_attribute() {
    let dir = fresh_dir("evolve");
    {
        let db = Mood::open(&dir).unwrap();
        evolving_classes(&db);
        db.catalog().drop_attribute("C", "k").unwrap();
        db.catalog().rename_attribute("D", "k", "j").unwrap();
        assert!(db.catalog().index("D", "j").unwrap().unique);
        assert!(db.execute("new D <1>").is_err(), "the stored k = 1 is j = 1");
        assert_eq!(count(&db, "SELECT d FROM D d WHERE d.j = 1"), 1);
        db.checkpoint().unwrap();
    }
    let db = Mood::open(&dir).unwrap();
    let indexes = db.catalog().indexes();
    let mut names: Vec<_> = indexes.iter().map(|i| i.class.clone() + "." + &i.attribute).collect();
    names.sort();
    assert_eq!(names, ["D.j"]);
    assert_indexes_resolve(&db);
    assert!(db.execute("new D <1>").is_err(), "a duplicate key must be refused");
    let by_index = db.catalog().index_lookup("D", "j", &Value::Integer(1)).unwrap().len();
    assert_eq!((count(&db, "SELECT d FROM D d WHERE d.j + 0 = 1"), by_index), (1, 1));
    assert_eq!(count(&db, "SELECT d FROM D d WHERE d.j >= 0"), 10);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
