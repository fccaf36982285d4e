//! A statement that fails while its tail is mid-stream returns the error it
//! always returned and leaves nothing behind: no spill file, no open
//! descriptor — whether the sorter had runs on disk, the aggregation had
//! partition files open, or nothing had spilled yet.
//!
//! One test in a binary of its own: the descriptor table is per process,
//! and a test running on a neighbouring thread would move the count.

#![cfg(target_os = "linux")]

use mood_core::sql::{parse, Executor, SqlError, Statement};
use mood_core::{Mood, Value};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .count()
}

fn spill_files() -> usize {
    let mine = format!("mood-spill-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(&mine))
        .count()
}

const N: i32 = 300;

fn build() -> Mood {
    let db = Mood::in_memory_with_pool(1024);
    for ddl in [
        "CREATE CLASS Part TUPLE (id Integer, weight Integer, color String(16))",
        "CREATE CLASS Shelf TUPLE (id Integer)",
    ] {
        db.execute(ddl).unwrap();
    }
    for i in 0..N {
        let fields = vec![
            ("id", Value::Integer(i)),
            ("weight", Value::Integer(700 + (i * 37) % 90)),
            (
                "color",
                Value::string(["red", "green", "blue"][i as usize % 3]),
            ),
        ];
        db.catalog()
            .new_object("Part", Value::tuple(fields))
            .unwrap();
    }
    db.collect_stats().unwrap();
    db
}

#[test]
fn a_failed_statement_returns_its_error_and_leaves_no_spill_behind() {
    let db = build();
    // A budget of 4: sorts and aggregations of 300 rows are deep into
    // their spill files when the error strikes.
    db.set_sort_budget(4);
    // One statement first, so lazily created engine state (plan cache,
    // statistics) is not mistaken for a leak.
    db.execute("SELECT p.id FROM Part p ORDER BY p.weight")
        .unwrap();
    let before = open_fds();
    assert_eq!(spill_files(), 0);

    let failing = [
        // A non-numeric SUM argument: raised when the aggregate is read —
        // with one group, and with 300 groups spread over partition files.
        (
            "SELECT SUM(p.color) FROM Part p",
            "execution error: SUM() over non-numeric value 'red'",
        ),
        (
            "SELECT p.id, AVG(p.color) FROM Part p GROUP BY p.id ORDER BY p.id",
            "execution error: AVG() over non-numeric value 'red'",
        ),
        // An expression that fails on the last object scanned, after 74
        // sort runs have been written.
        (
            "SELECT p.id, 1000 / (p.id - 299) FROM Part p ORDER BY p.weight, p.id",
            "DivisionByZero: division by zero",
        ),
        (
            "SELECT p.color, MAX(100 % (p.id - 299)) FROM Part p GROUP BY p.id",
            "DivisionByZero: division by zero",
        ),
    ];
    for pass in ["first", "repeated"] {
        for (sql, want) in failing {
            let err = db.execute(sql).expect_err(sql).to_string();
            assert_eq!(err, want, "{sql} ({pass})");
            assert_eq!((open_fds(), spill_files()), (before, 0), "{sql} ({pass})");
        }
    }

    // An unbound parameter is an error before anything runs, even over an
    // extent with nothing in it to evaluate it against.
    let Statement::Select(stmt) =
        parse("SELECT s.id, COUNT(*) FROM Shelf s WHERE s.id = $1 GROUP BY s.id ORDER BY s.id")
            .unwrap()
    else {
        panic!()
    };
    let unbound = Executor::new(db.catalog(), db.funcman());
    match unbound.run_select(&stmt) {
        Err(SqlError::Bind(m)) => assert_eq!(m, "unbound parameter $1 (0 bound)"),
        other => panic!("{other:?}"),
    }
    assert_eq!((open_fds(), spill_files()), (before, 0));

    // An undecodable record at the end of the extent: 300 objects have
    // streamed into the sorter (and the aggregation) by the time the scan
    // reaches it.
    let catalog = db.catalog();
    let mut record = catalog.type_id("Part").unwrap().to_le_bytes().to_vec();
    record.extend([200, 1, 2, 3]); // schema version 456: the class has no such version
    let file = catalog.class("Part").unwrap().extent.unwrap();
    let bad = db.storage().open_heap(file).insert(&record).unwrap();
    for sql in [
        "SELECT p.id FROM Part p ORDER BY p.weight, p.id",
        "SELECT p.id, COUNT(*) FROM Part p GROUP BY p.id",
        "SELECT DISTINCT p.color FROM Part p WHERE p.weight > 0 ORDER BY p.id",
    ] {
        for pass in ["first", "repeated"] {
            let err = db.execute(sql).expect_err(sql).to_string();
            assert!(
                err.contains(&format!("object {bad}")),
                "{sql} ({pass}): {err}"
            );
            assert_eq!((open_fds(), spill_files()), (before, 0), "{sql} ({pass})");
        }
    }
}
