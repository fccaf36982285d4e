//! Adaptive object clustering: the `CLUSTER` statement, the affinity
//! tracker's automatic trigger, clustering-aware cost estimates, the
//! GROUP BY spill path, and the mid-reorganization crash schedule.
//!
//! * Logical transparency: for randomly generated select/point/path/sort
//!   queries, results are byte-identical before and after `CLUSTER` at
//!   parallelism 1/2/4/8 — reorganization changes layout, never answers.
//! * `CLUSTER <Class> BY <attr>` rewrites the heap, publishes the
//!   `cluster.*` counters and the per-class factor gauge through
//!   `SHOW METRICS` / JSON / Prometheus, and is refused inside an
//!   explicit transaction (it is DDL-like: it autocommits).
//! * The armed auto-trigger reorganizes a hot, disordered traversal edge
//!   on its own after enough forward chases accumulate.
//! * After `CLUSTER`, `EXPLAIN ANALYZE` prints the clustering factor
//!   (`cf=`) on the join estimate and the traversal's page actuals land
//!   within the clustering-aware estimate's window.
//! * GROUP BY above the sort budget spills partitions to temp files: the
//!   answer (grouping, aggregates, first-appearance order) stays
//!   byte-identical and `agg.spilled_partitions` advances.
//! * Crash simulation: faults injected at sampled disk and log operation
//!   points inside the reorganization window always recover to a
//!   database whose contents, references into the moved extent, and
//!   index lookups are exactly the pre-crash committed state — the old
//!   or the new layout, never a torn mix.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use mood_core::{Answer, Mood, OptimizerConfig, Value};
use mood_storage::{
    Disk, FaultPlan, FaultyDisk, FaultyLog, FileDisk, FileLog, StorageManager, Wal,
};

// ----------------------------------------------------------------------
// Builders and helpers
// ----------------------------------------------------------------------

/// A scattered reference layout: `Widget.part` references walk the `Part`
/// extent through a multiplicative stride, so extent order and traversal
/// order disagree — `CLUSTER Widget BY part` has real work to do.
fn build_scattered(n_parts: i32, n_widgets: i32) -> Mood {
    let db = Mood::in_memory_with_pool(512);
    db.set_optimizer_config(OptimizerConfig::paper());
    for ddl in [
        "CREATE CLASS Part TUPLE (size Integer, grade Integer, pad String(128))",
        "CREATE CLASS Widget TUPLE (seq Integer, part REFERENCE (Part), tag String(16))",
    ] {
        db.execute(ddl).unwrap();
    }
    let catalog = db.catalog();
    let pad = "p".repeat(100);
    let mut parts = Vec::new();
    for i in 0..n_parts {
        parts.push(
            catalog
                .new_object(
                    "Part",
                    Value::tuple(vec![
                        ("size", Value::Integer(1000 + i)),
                        ("grade", Value::Integer(i % 4)),
                        ("pad", Value::string(&pad)),
                    ]),
                )
                .unwrap(),
        );
    }
    for i in 0..n_widgets {
        let scattered = (i as i64 * 211 % n_parts as i64) as usize;
        catalog
            .new_object(
                "Widget",
                Value::tuple(vec![
                    ("seq", Value::Integer(i)),
                    ("part", Value::Ref(parts[scattered])),
                    // (i*3)%7 makes first-appearance order differ from
                    // sorted order — the GROUP BY order check needs that.
                    ("tag", Value::string(format!("t{}", (i * 3) % 7))),
                ]),
            )
            .unwrap();
    }
    db.collect_stats().unwrap();
    db
}

/// The chase-heavy shape from the clustering example: a big `Target`
/// extent, few selected `Source` rows, so the optimizer forward-traverses
/// the reference and every chase lands on a far page until `CLUSTER`.
fn build_chase() -> Mood {
    let db = Mood::in_memory_with_pool(64);
    db.set_optimizer_config(OptimizerConfig::paper());
    for ddl in [
        "CREATE CLASS Target TUPLE (size Integer, grade Integer, pad String(256))",
        "CREATE CLASS Source TUPLE (seq Integer, target REFERENCE (Target), pad String(256))",
    ] {
        db.execute(ddl).unwrap();
    }
    let catalog = db.catalog();
    let pad = "x".repeat(200);
    let n_targets = 4096i32;
    let mut targets = Vec::new();
    for i in 0..n_targets {
        targets.push(
            catalog
                .new_object(
                    "Target",
                    Value::tuple(vec![
                        ("size", Value::Integer(1000 + i)),
                        ("grade", Value::Integer(i % 4)),
                        ("pad", Value::string(&pad)),
                    ]),
                )
                .unwrap(),
        );
    }
    for i in 0..512i32 {
        let scattered = (i as i64 * 389 % n_targets as i64) as usize;
        catalog
            .new_object(
                "Source",
                Value::tuple(vec![
                    ("seq", Value::Integer(i)),
                    ("target", Value::Ref(targets[scattered])),
                    ("pad", Value::string(&pad)),
                ]),
            )
            .unwrap();
    }
    db.collect_stats().unwrap();
    db
}

const CHASE: &str = "SELECT s.seq FROM Source s WHERE s.seq < 8 AND s.target.grade = 1";

fn rows_of(ans: Answer) -> mood_core::QueryResult {
    match ans {
        Answer::Rows(r) => r,
        other => panic!("not rows: {other:?}"),
    }
}

fn run(db: &Mood, sql: &str) -> Result<mood_core::QueryResult, String> {
    db.execute(sql).map(rows_of).map_err(|e| e.to_string())
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

/// Parse the first `key<number>` occurrence out of an EXPLAIN ANALYZE line.
fn field(line: &str, key: &str) -> f64 {
    let rest = &line[line.find(key).unwrap() + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap()
}

// ----------------------------------------------------------------------
// Property: CLUSTER never changes an answer, at any parallelism
// ----------------------------------------------------------------------

/// Queries over the Widget schema covering the reorganized extent from
/// every angle: local predicates (select), unique-key equality (point),
/// reference chases (path/join), and ORDER BY through the reference
/// (sort). Keys always end in the unique `w.seq` so each query has one
/// well-defined answer regardless of physical layout.
fn arb_query() -> impl Strategy<Value = String> {
    let pred = prop_oneof![
        (0..96i32, arb_cmp()).prop_map(|(n, op)| format!("w.seq {op} {n}")),
        (0..96i32).prop_map(|n| format!("w.seq = {n}")),
        (0..4i32, arb_cmp()).prop_map(|(n, op)| format!("w.part.grade {op} {n}")),
        (1000..1128i32, arb_cmp()).prop_map(|(n, op)| format!("w.part.size {op} {n}")),
        (0..48i32, 0..96i32).prop_map(|(a, b)| format!("w.seq BETWEEN {a} AND {b}")),
    ];
    let pred = pred.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) AND ({b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) OR ({b})")),
            inner.prop_map(|a| format!("NOT ({a})")),
        ]
    });
    let proj = prop_oneof![
        Just("w.seq, w.tag"),
        Just("w.seq, w.part.size"),
        Just("w.seq, w.part.grade, w.tag"),
    ];
    let order = prop_oneof![
        Just("w.seq"),
        Just("w.part.size, w.seq"),
        Just("w.tag DESC, w.seq"),
    ];
    (proj, any::<bool>(), pred, order).prop_map(|(proj, distinct, pred, order)| {
        let d = if distinct { "DISTINCT " } else { "" };
        format!("SELECT {d}{proj} FROM Widget w WHERE {pred} ORDER BY {order}")
    })
}

fn arb_cmp() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("="),
        Just("<>"),
        Just("<"),
        Just("<="),
        Just(">"),
        Just(">=")
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn answers_survive_cluster_byte_identical(sql in arb_query()) {
        let db = build_scattered(128, 96);
        let mut before = Vec::new();
        for par in [1usize, 2, 4, 8] {
            db.set_parallelism(par);
            before.push(run(&db, &sql));
        }
        let moved = match db.execute("CLUSTER Widget BY part") {
            Ok(Answer::Done { affected }) => affected,
            other => panic!("CLUSTER must report moved objects, got {other:?}"),
        };
        prop_assert!(moved > 0, "a strided layout must move objects");
        for (i, par) in [1usize, 2, 4, 8].into_iter().enumerate() {
            db.set_parallelism(par);
            let after = run(&db, &sql);
            match (&before[i], &after) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    a, b, "answer changed across CLUSTER (par {})", par
                ),
                (Err(_), Err(_)) => {}
                other => prop_assert!(
                    false, "Ok/Err divergence across CLUSTER (par {}): {:?}", par, other
                ),
            }
        }
    }
}

// ----------------------------------------------------------------------
// The CLUSTER statement: counters, gauges, exports, error cases
// ----------------------------------------------------------------------

#[test]
fn cluster_publishes_counters_and_factor_gauge() {
    let db = build_scattered(128, 96);
    assert_eq!(metric_value(&db, "cluster.passes"), "0");
    assert_eq!(metric_value(&db, "cluster.moved_objects"), "0");

    let Ok(Answer::Done { affected }) = db.execute("CLUSTER Widget BY part") else {
        panic!("CLUSTER Widget BY part must succeed");
    };
    assert!(affected > 0, "strided layout must be rewritten");

    assert_eq!(metric_value(&db, "cluster.passes"), "1");
    assert_eq!(metric_value(&db, "cluster.moved_objects"), affected.to_string());
    let factor: f64 = metric_value(&db, "cluster.factor.Widget.part")
        .parse()
        .unwrap();
    assert!(
        factor > 0.9,
        "a freshly clustered extent measures near-perfect locality, got {factor}"
    );

    // The snapshot struct and both exports carry the same facts.
    let snap = db.engine_metrics();
    assert_eq!(snap.cluster.passes, 1);
    assert_eq!(snap.cluster.moved_objects, affected as u64);
    assert!(snap
        .cluster_factors
        .iter()
        .any(|(c, f)| c == "Widget.part" && *f > 0.9));
    assert!(snap.to_json().contains("\"cluster_factors\""));
    assert!(snap
        .to_prometheus()
        .contains("mood_cluster_factor{class=\"Widget.part\"}"));

    // A second pass rewrites the (already ordered) extent again and
    // counts as another pass; the factor stays near-perfect.
    let Ok(Answer::Done { affected: again }) = db.execute("CLUSTER Widget BY part") else {
        panic!("second CLUSTER must succeed");
    };
    assert_eq!(again, affected, "every object is rewritten each pass");
    assert_eq!(metric_value(&db, "cluster.passes"), "2");
}

#[test]
fn cluster_without_by_picks_a_reference_attribute() {
    let db = build_scattered(64, 48);
    match db.execute("CLUSTER Widget") {
        Ok(Answer::Done { affected }) => assert!(affected > 0),
        other => panic!("CLUSTER without BY must fall back to the reference attr: {other:?}"),
    }
}

#[test]
fn cluster_rejects_bad_targets() {
    let db = build_scattered(16, 16);
    // A non-reference attribute cannot define a traversal order.
    assert!(db.execute("CLUSTER Widget BY seq").is_err());
    // Unknown attribute.
    assert!(db.execute("CLUSTER Widget BY nope").is_err());
    // A class with no reference attribute at all.
    db.execute("CREATE CLASS Plain TUPLE (n Integer)").unwrap();
    assert!(db.execute("CLUSTER Plain").is_err());
    // None of the failures consumed a pass.
    assert_eq!(metric_value(&db, "cluster.passes"), "0");
}

#[test]
fn cluster_is_refused_inside_an_explicit_transaction() {
    let db = build_scattered(64, 48);
    db.execute("BEGIN").unwrap();
    assert!(
        db.execute("CLUSTER Widget BY part").is_err(),
        "CLUSTER autocommits and must be refused inside BEGIN..COMMIT"
    );
    db.execute("ROLLBACK").unwrap();
    // Outside the transaction it works, and answers are unaffected.
    let before = run(&db, "SELECT w.seq, w.part.size FROM Widget w ORDER BY w.seq").unwrap();
    match db.execute("CLUSTER Widget BY part") {
        Ok(Answer::Done { affected }) => assert!(affected > 0),
        other => panic!("CLUSTER after ROLLBACK must succeed: {other:?}"),
    }
    let after = run(&db, "SELECT w.seq, w.part.size FROM Widget w ORDER BY w.seq").unwrap();
    assert_eq!(before, after);
}

// ----------------------------------------------------------------------
// The affinity-tracked automatic trigger
// ----------------------------------------------------------------------

#[test]
fn auto_trigger_reorganizes_a_hot_disordered_edge() {
    let db = build_chase();
    assert_eq!(metric_value(&db, "cluster.passes"), "0");
    db.set_auto_cluster(Some(48));
    // Each run forward-chases 8 scattered references; the edge crosses
    // the 48-chase threshold with near-zero locality and the session
    // reorganizes Source by itself at a statement boundary.
    let expect = run(&db, CHASE).unwrap();
    for _ in 0..7 {
        run(&db, CHASE).unwrap();
    }
    let passes: u64 = metric_value(&db, "cluster.passes").parse().unwrap();
    assert!(passes >= 1, "auto-trigger must have fired, passes={passes}");
    let moved: u64 = metric_value(&db, "cluster.moved_objects").parse().unwrap();
    assert!(moved > 0, "the trigger's pass rewrote the scattered extent");
    // Answers are untouched, and a disarmed trigger never fires again.
    assert_eq!(run(&db, CHASE).unwrap(), expect);
    db.set_auto_cluster(None);
    let frozen: u64 = metric_value(&db, "cluster.passes").parse().unwrap();
    for _ in 0..16 {
        run(&db, CHASE).unwrap();
    }
    let after: u64 = metric_value(&db, "cluster.passes").parse().unwrap();
    assert_eq!(after, frozen, "a disarmed trigger must not fire");
}

#[test]
fn disarmed_tracker_records_nothing() {
    let db = build_chase();
    // No set_auto_cluster: the tracker stays disabled, chases cost one
    // atomic load, and no reorganization ever happens.
    for _ in 0..8 {
        run(&db, CHASE).unwrap();
    }
    assert_eq!(metric_value(&db, "cluster.passes"), "0");
}

// ----------------------------------------------------------------------
// Clustering-aware estimates in EXPLAIN ANALYZE
// ----------------------------------------------------------------------

#[test]
fn explain_analyze_surfaces_cf_and_actuals_fit_the_estimate() {
    let db = build_chase();
    let before = db.explain_analyze(CHASE).unwrap();
    assert!(
        !before.contains(" cf="),
        "no clustering factor before any CLUSTER:\n{before}"
    );

    match db.execute("CLUSTER Source BY target") {
        Ok(Answer::Done { affected }) => assert!(affected > 0),
        other => panic!("CLUSTER Source BY target: {other:?}"),
    }

    let after = db.explain_analyze(CHASE).unwrap();
    let cf_line = after
        .lines()
        .find(|l| l.contains(" cf="))
        .unwrap_or_else(|| panic!("join estimate must print cf= after CLUSTER:\n{after}"));
    let cf = field(cf_line, "cf=");
    assert!(
        cf > 0.8,
        "a freshly clustered traversal edge has near-perfect factor, got {cf}:\n{after}"
    );
    // The node's page actuals sit within the clustering-aware estimate's
    // window: blending toward sequential cost must not under-promise.
    let est_pages = field(cf_line, "pages=");
    let act = &cf_line[cf_line.find("act:").expect("actuals on the cf line")..];
    let act_pages = field(act, "pages=");
    assert!(
        act_pages <= est_pages * 2.0 + 16.0,
        "actual pages {act_pages} blow past the clustering-aware estimate \
         {est_pages}:\n{after}"
    );
}

// ----------------------------------------------------------------------
// GROUP BY spill: identical answers, counted partitions
// ----------------------------------------------------------------------

#[test]
fn group_by_spill_is_identical_and_counts_partitions() {
    let db = build_scattered(16, 300);
    let sql = "SELECT w.part.grade, COUNT(*), SUM(w.seq), AVG(w.seq) \
               FROM Widget w GROUP BY w.part.grade ORDER BY w.part.grade";
    let in_memory = run(&db, sql).unwrap();
    assert_eq!(in_memory.len(), 4, "grades 0..4 each form a group");
    assert_eq!(metric_value(&db, "agg.spilled_partitions"), "0");

    // The budget counts groups, not rows: 300 rows in 4 groups fit 32.
    db.set_sort_budget(32);
    assert_eq!(run(&db, sql).unwrap(), in_memory);
    assert_eq!(metric_value(&db, "agg.spilled_partitions"), "0");

    // 4 groups against a 2-group budget: the rows of the other two groups
    // hash-partition to temp files and are aggregated partition by
    // partition.
    db.set_sort_budget(2);
    let spilled = run(&db, sql).unwrap();
    assert_eq!(spilled, in_memory, "spilled GROUP BY must be byte-identical");
    let parts: u64 = metric_value(&db, "agg.spilled_partitions")
        .parse()
        .unwrap();
    assert!(parts >= 1, "the tiny budget must spill partitions: {parts}");
}

#[test]
fn group_by_spill_preserves_first_appearance_order() {
    let db = build_scattered(16, 300);
    // No ORDER BY: groups surface in first-appearance order, and the tag
    // population cycles (i*3)%7 so that order differs from sorted order.
    let sql = "SELECT w.tag, COUNT(*) FROM Widget w GROUP BY w.tag";
    db.set_sort_budget(1_000_000);
    let in_memory = run(&db, sql).unwrap();
    assert_eq!(in_memory.len(), 7);
    assert_eq!(
        in_memory.rows[0][0],
        Value::String("t0".into()),
        "first group is the first tag seen"
    );
    assert_eq!(in_memory.rows[1][0], Value::String("t3".into()));
    // 7 groups against a 2-group budget: five of them spill.
    db.set_sort_budget(2);
    let spilled = run(&db, sql).unwrap();
    assert_eq!(
        spilled, in_memory,
        "spilling must not reorder first-appearance groups"
    );
}

// ----------------------------------------------------------------------
// Crash simulation: faults inside the reorganization window
// ----------------------------------------------------------------------

static RUN: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mood-clustersim-{tag}-{}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic population: 64 parts, 48 widgets referencing them
/// through a stride-29 walk, 16 slots referencing widgets (inbound
/// references into the extent that `CLUSTER` will move), and a unique
/// index the reorganization must keep consistent.
fn crash_populate(db: &Mood) {
    for ddl in [
        "CREATE CLASS CPart TUPLE (size Integer, grade Integer, pad String(128))",
        "CREATE CLASS CWidget TUPLE (seq Integer, part REFERENCE (CPart), pad String(64))",
        "CREATE CLASS CSlot TUPLE (id Integer, w REFERENCE (CWidget))",
        "CREATE UNIQUE BTREE INDEX ON CWidget(seq)",
    ] {
        db.execute(ddl).unwrap();
    }
    let catalog = db.catalog();
    let part_pad = "q".repeat(64);
    let widget_pad = "r".repeat(40);
    let mut parts = Vec::new();
    for i in 0..64i32 {
        parts.push(
            catalog
                .new_object(
                    "CPart",
                    Value::tuple(vec![
                        ("size", Value::Integer(1000 + i)),
                        ("grade", Value::Integer(i % 4)),
                        ("pad", Value::string(&part_pad)),
                    ]),
                )
                .unwrap(),
        );
    }
    let mut widgets = Vec::new();
    for i in 0..48i32 {
        let scattered = (i as i64 * 29 % 64) as usize;
        widgets.push(
            catalog
                .new_object(
                    "CWidget",
                    Value::tuple(vec![
                        ("seq", Value::Integer(i)),
                        ("part", Value::Ref(parts[scattered])),
                        ("pad", Value::string(&widget_pad)),
                    ]),
                )
                .unwrap(),
        );
    }
    for i in 0..16i32 {
        catalog
            .new_object(
                "CSlot",
                Value::tuple(vec![
                    ("id", Value::Integer(i)),
                    ("w", Value::Ref(widgets[(i * 3) as usize])),
                ]),
            )
            .unwrap();
    }
    // Make the baseline durable on disk before the reorganization window
    // opens: the sweep probes faults inside CLUSTER, not the population.
    db.checkpoint().unwrap();
}

/// Open a database over fault-wrapped devices, populate, then attempt
/// the reorganization. Returns the device op counts at the CLUSTER
/// boundary and whether the statement succeeded. Dropping the database
/// afterwards is the "crash".
fn faulted_cluster_run(
    dir: &Path,
    disk_plan: Arc<FaultPlan>,
    log_plan: Arc<FaultPlan>,
) -> (u64, u64, bool) {
    let fd = FileDisk::open(dir.join("pages")).unwrap();
    let disk: Arc<dyn Disk> = Arc::new(FaultyDisk::with_plan(fd, disk_plan.clone()));
    let log = Box::new(FaultyLog::new(
        FileLog::open(dir.join("wal.log")).unwrap(),
        log_plan.clone(),
    ));
    let sm = StorageManager::with_parts(disk, log, 64).unwrap();
    let db = Mood::open_with_storage(Arc::new(sm), dir).unwrap();
    crash_populate(&db);
    let pre = (disk_plan.ops(), log_plan.ops());
    let ok = db.execute("CLUSTER CWidget BY part").is_ok();
    (pre.0, pre.1, ok)
}

fn pages_snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut snap = BTreeMap::new();
    if let Ok(rd) = std::fs::read_dir(dir.join("pages")) {
        for e in rd.flatten() {
            snap.insert(
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            );
        }
    }
    snap
}

/// Replaying the log twice over the raw bytes must leave byte-identical
/// page files — recovery over a torn reorganization is idempotent.
fn check_recovery_idempotent(dir: &Path) {
    let recover = || {
        let disk = FileDisk::open(dir.join("pages")).unwrap();
        let wal = Wal::new(Box::new(FileLog::open(dir.join("wal.log")).unwrap()));
        wal.recover(&disk).unwrap();
    };
    recover();
    let first = pages_snapshot(dir);
    recover();
    let second = pages_snapshot(dir);
    assert_eq!(
        first.keys().collect::<Vec<_>>(),
        second.keys().collect::<Vec<_>>(),
        "second recovery changed the set of page files"
    );
    for (name, bytes) in &first {
        assert_eq!(
            bytes, &second[name],
            "second recovery changed bytes of {name}"
        );
    }
}

/// The reorganization is content-preserving, so the recovered state is
/// the same logical database whether the pass committed or rolled back:
/// old layout or new layout, never a torn mix.
fn crash_verify(dir: &Path) {
    let db = Mood::open(dir).expect("clean reopen after a mid-reorg crash must succeed");

    // Full scan through the (possibly moved) extent and its references.
    let r = run(
        &db,
        "SELECT w.seq, w.part.size, w.part.grade FROM CWidget w ORDER BY w.seq",
    )
    .unwrap();
    assert_eq!(r.len(), 48, "widget extent torn by the crash");
    for (i, row) in r.rows.iter().enumerate() {
        let p = (i as i64 * 29 % 64) as i32;
        assert_eq!(row[0], Value::Integer(i as i32), "widget {i} lost its seq");
        assert_eq!(row[1], Value::Integer(1000 + p), "widget {i} chases a wrong part");
        assert_eq!(row[2], Value::Integer(p % 4), "widget {i} chases a wrong part");
    }

    // The unique index agrees with the heap, wherever the rows landed.
    for k in [0i32, 17, 29, 47] {
        let r = run(
            &db,
            &format!("SELECT w.part.size FROM CWidget w WHERE w.seq = {k}"),
        )
        .unwrap();
        assert_eq!(r.len(), 1, "index lookup for seq {k} must find one row");
        let p = (k as i64 * 29 % 64) as i32;
        assert_eq!(r.rows[0][0], Value::Integer(1000 + p));
    }

    // Inbound references into the moved extent still resolve.
    let r = run(&db, "SELECT s.id, s.w.seq FROM CSlot s ORDER BY s.id").unwrap();
    assert_eq!(r.len(), 16);
    for (i, row) in r.rows.iter().enumerate() {
        assert_eq!(row[0], Value::Integer(i as i32));
        assert_eq!(
            row[1],
            Value::Integer(i as i32 * 3),
            "slot {i} points at the wrong widget after the crash"
        );
    }

    // Extent bookkeeping agrees and the database accepts new work.
    assert_eq!(db.catalog().extent_count("CWidget").unwrap(), 48);
    db.execute("CREATE CLASS CAudit TUPLE (note String)").unwrap();
    db.execute("new CAudit <'recovered'>").unwrap();
}

#[test]
fn cluster_reorg_survives_mid_pass_crashes() {
    // A clean run fixes the op-count window the reorganization occupies
    // (population is deterministic, so the window is stable across runs).
    let dir = fresh_dir("clean");
    let disk_plan = FaultPlan::disarmed();
    let log_plan = FaultPlan::disarmed();
    let (pre_disk, pre_log, ok) = faulted_cluster_run(&dir, disk_plan.clone(), log_plan.clone());
    assert!(ok, "disarmed plans must let CLUSTER commit");
    let (total_disk, total_log) = (disk_plan.ops(), log_plan.ops());
    check_recovery_idempotent(&dir);
    crash_verify(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(total_disk > pre_disk, "CLUSTER must do disk I/O");
    assert!(total_log > pre_log, "CLUSTER must write log records");

    // Sweep sampled fault points inside the reorganization window: hard
    // failures and torn writes, on the disk and on the log.
    let sweep = |lo: u64, hi: u64, mk: &dyn Fn(u64) -> (Arc<FaultPlan>, Arc<FaultPlan>), tag: &str| {
        let step = ((hi - lo) / 6).max(1);
        let mut k = lo + 1;
        while k <= hi {
            let dir = fresh_dir(tag);
            let (plan_d, plan_l) = mk(k);
            let (_, _, _ok) = faulted_cluster_run(&dir, plan_d, plan_l);
            check_recovery_idempotent(&dir);
            crash_verify(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            k += step;
        }
    };
    sweep(pre_disk, total_disk, &|k| (FaultPlan::fail_at(k), FaultPlan::disarmed()), "disk-fail");
    sweep(pre_disk, total_disk, &|k| (FaultPlan::torn_at(k), FaultPlan::disarmed()), "disk-torn");
    sweep(pre_log, total_log, &|k| (FaultPlan::disarmed(), FaultPlan::fail_at(k)), "log-fail");
    sweep(pre_log, total_log, &|k| (FaultPlan::disarmed(), FaultPlan::torn_at(k)), "log-torn");
}

/// Exhaustive mid-reorg sweep; run by the CI crash-sweep job with
/// `--ignored`, not gating.
#[test]
#[ignore = "exhaustive mid-reorg sweep; run with --ignored in the CI crash-sweep job"]
fn sweep_every_reorg_fault_point() {
    let dir = fresh_dir("sweep-clean");
    let disk_plan = FaultPlan::disarmed();
    let log_plan = FaultPlan::disarmed();
    let (pre_disk, pre_log, ok) = faulted_cluster_run(&dir, disk_plan.clone(), log_plan.clone());
    assert!(ok);
    let (total_disk, total_log) = (disk_plan.ops(), log_plan.ops());
    let _ = std::fs::remove_dir_all(&dir);
    for k in pre_disk + 1..=total_disk {
        for plan in [FaultPlan::fail_at(k), FaultPlan::torn_at(k)] {
            let dir = fresh_dir("sweep-disk");
            faulted_cluster_run(&dir, plan, FaultPlan::disarmed());
            check_recovery_idempotent(&dir);
            crash_verify(&dir);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    for k in pre_log + 1..=total_log {
        for plan in [FaultPlan::fail_at(k), FaultPlan::torn_at(k)] {
            let dir = fresh_dir("sweep-log");
            faulted_cluster_run(&dir, FaultPlan::disarmed(), plan);
            check_recovery_idempotent(&dir);
            crash_verify(&dir);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
