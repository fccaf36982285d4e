//! Plan cache + compiled predicate evaluation: correctness, staleness and
//! counter discipline.
//!
//! * Compiled ≡ interpreted: for randomly generated predicates the plan
//!   cache + register programs produce byte-identical results to the
//!   interpreter — `support/oracle.rs`, the only one left — at parallelism
//!   1/2/4/8, cached and not.
//! * No stale plan survives an epoch bump: DDL, index builds/drops and
//!   statistics refreshes all invalidate cached plans; answers after the
//!   bump come from a fresh plan.
//! * Counters: `plan_cache.{hits,misses,evictions,invalidations}` follow
//!   hits + misses = cacheable lookups, invalidations ⊆ misses. Entries are
//!   per statement *shape* (`tests/shape_cache.rs` covers what a shape is).
//! * `EXPLAIN ANALYZE` reports `plan: fresh`/`plan: cached` with the epoch.

use proptest::prelude::*;

use mood_core::sql::{parse, Executor, Statement};
use mood_core::{Answer, Mood, OptimizerConfig, Value};

#[path = "support/oracle.rs"]
mod oracle;
use oracle::try_oracle;

/// The Section 3.1 Vehicle schema with a deterministic population (the
/// observability harness's layout: cylinders cycle 2/4/6/8, transmissions
/// alternate AUTOMATIC/MANUAL).
fn build(n_vehicles: i32) -> Mood {
    let db = Mood::in_memory_with_pool(1024);
    db.set_optimizer_config(OptimizerConfig::paper());
    for ddl in [
        "CREATE CLASS VehicleEngine TUPLE (size Integer, cylinders Integer)",
        "CREATE CLASS VehicleDriveTrain TUPLE (engine REFERENCE (VehicleEngine), \
         transmission String(32))",
        "CREATE CLASS Vehicle TUPLE (id Integer, weight Integer, \
         drivetrain REFERENCE (VehicleDriveTrain))",
    ] {
        db.execute(ddl).unwrap();
    }
    let catalog = db.catalog();
    let mut trains = Vec::new();
    for i in 0..16i32 {
        let engine = catalog
            .new_object(
                "VehicleEngine",
                Value::tuple(vec![
                    ("size", Value::Integer(1000 + i * 100)),
                    ("cylinders", Value::Integer(2 + (i % 4) * 2)),
                ]),
            )
            .unwrap();
        trains.push(
            catalog
                .new_object(
                    "VehicleDriveTrain",
                    Value::tuple(vec![
                        ("engine", Value::Ref(engine)),
                        (
                            "transmission",
                            Value::string(if i % 2 == 0 { "AUTOMATIC" } else { "MANUAL" }),
                        ),
                    ]),
                )
                .unwrap(),
        );
    }
    for i in 0..n_vehicles {
        catalog
            .new_object(
                "Vehicle",
                Value::tuple(vec![
                    ("id", Value::Integer(i)),
                    ("weight", Value::Integer(700 + (i % 15) * 80)),
                    ("drivetrain", Value::Ref(trains[i as usize % trains.len()])),
                ]),
            )
            .unwrap();
    }
    db.collect_stats().unwrap();
    db
}

fn rows_of(ans: Answer) -> mood_core::QueryResult {
    match ans {
        Answer::Rows(r) => r,
        other => panic!("not rows: {other:?}"),
    }
}

fn run(db: &Mood, sql: &str) -> Result<mood_core::QueryResult, String> {
    db.execute(sql).map(rows_of).map_err(|e| e.to_string())
}

// ----------------------------------------------------------------------
// Property: compiled ≡ interpreted, byte-identical, at every parallelism
// ----------------------------------------------------------------------

/// Predicate texts over the Vehicle schema: comparisons on immediate and
/// path attributes, arithmetic, BETWEEN, NULL-producing comparisons, and
/// AND/OR/NOT composition.
fn arb_pred() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (0..70i32, arb_cmp()).prop_map(|(n, op)| format!("v.id {op} {n}")),
        (600..2000i32, arb_cmp()).prop_map(|(n, op)| format!("v.weight {op} {n}")),
        (0..10i32, arb_cmp())
            .prop_map(|(n, op)| format!("v.drivetrain.engine.cylinders {op} {n}")),
        prop_oneof![
            Just("AUTOMATIC".to_string()),
            Just("MANUAL".to_string()),
            Just("TIPTRONIC".to_string())
        ]
        .prop_map(|s| format!("v.drivetrain.transmission = '{s}'")),
        (0..40i32, 0..70i32).prop_map(|(a, b)| format!("v.id BETWEEN {a} AND {b}")),
        (1..5i32, 0..300i32).prop_map(|(m, n)| format!("v.id * {m} + 7 < {n}")),
        (800..4000i32).prop_map(|n| format!("v.drivetrain.engine.size % 400 < {}", n % 400 + 1)),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) AND ({b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) OR ({b})")),
            inner.prop_map(|a| format!("NOT ({a})")),
        ]
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
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn compiled_matches_interpreted_at_every_parallelism(pred in arb_pred()) {
        let db = build(48);
        let sql = format!(
            "SELECT v.id, v.weight FROM EVERY Vehicle v WHERE {pred} ORDER BY v.id"
        );
        // The interpreter: the oracle's tree walker over the whole extent.
        let interp = try_oracle(&db, &sql);
        for par in [1usize, 2, 4, 8] {
            db.set_parallelism(par);
            // Cached: cold fill (expressions compile as they are first
            // evaluated), then warm hit.
            db.set_plan_cache_enabled(true);
            let cold = run(&db, &sql);
            let warm = run(&db, &sql);
            prop_assert_eq!(&cold, &warm, "warm hit diverged (par {})", par);
            // No cache: prepared and compiled afresh.
            db.set_plan_cache_enabled(false);
            let fresh = run(&db, &sql);
            prop_assert_eq!(&cold, &fresh, "uncached diverged (par {})", par);
            match (&cold, &interp) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.rows, b, "compiled != interpreted (par {}): {}", par, sql)
                }
                (Err(_), Err(_)) => {}
                other => prop_assert!(false, "Ok/Err divergence (par {}): {:?}", par, other),
            }
        }
    }
}

// ----------------------------------------------------------------------
// Counters and hit/miss discipline
// ----------------------------------------------------------------------

#[test]
fn repeated_query_hits_the_cache() {
    let db = build(64);
    let sql = "SELECT v.id FROM EVERY Vehicle v WHERE v.weight > 900 ORDER BY v.id";
    let before = db.engine_metrics().plan_cache;
    let first = run(&db, sql).unwrap();
    let mid = db.engine_metrics().plan_cache;
    assert_eq!(mid.misses, before.misses + 1, "cold run is a miss");
    assert_eq!(mid.hits, before.hits, "cold run is not a hit");
    for _ in 0..5 {
        assert_eq!(run(&db, sql).unwrap(), first);
    }
    let after = db.engine_metrics().plan_cache;
    assert_eq!(after.hits, mid.hits + 5, "warm runs all hit");
    assert_eq!(after.misses, mid.misses, "warm runs add no misses");
}

#[test]
fn whitespace_differences_share_one_entry() {
    let db = build(32);
    let a = "SELECT v.id FROM EVERY Vehicle v WHERE v.id < 5 ORDER BY v.id";
    let b = "SELECT   v.id\n  FROM EVERY Vehicle v\n  WHERE v.id < 5\n  ORDER BY v.id";
    let r1 = run(&db, a).unwrap();
    let before = db.engine_metrics().plan_cache;
    let r2 = run(&db, b).unwrap();
    let after = db.engine_metrics().plan_cache;
    assert_eq!(r1, r2);
    assert_eq!(after.hits, before.hits + 1, "layout variant hits the same entry");
    assert_eq!(after.misses, before.misses);
}

#[test]
fn capacity_pressure_evicts_lru() {
    let db = build(16);
    // A range bound is part of a statement's shape (its selectivity reads
    // the constant), so these are 200 entries, not one.
    for i in 0..200 {
        let sql = format!("SELECT v.id FROM EVERY Vehicle v WHERE v.id < {i} ORDER BY v.id");
        run(&db, &sql).unwrap();
    }
    let stats = db.engine_metrics().plan_cache;
    assert!(
        stats.evictions > 0,
        "200 distinct shapes against a 128-plan cache must evict: {stats:?}"
    );
    assert_eq!(stats.misses, 200 + stats.invalidations);
}

#[test]
fn eq_operands_do_not_multiply_entries() {
    let db = build(16);
    let before = db.engine_metrics().plan_cache;
    for i in 0..200 {
        let sql = format!("SELECT v.id FROM EVERY Vehicle v WHERE v.id = {i} ORDER BY v.id");
        let rows = run(&db, &sql).unwrap();
        assert_eq!(rows.len(), usize::from(i < 16), "key {i}");
    }
    let after = db.engine_metrics().plan_cache;
    assert_eq!(after.misses, before.misses + 1, "one shape, one prepare");
    assert_eq!(after.hits, before.hits + 199);
    assert_eq!(after.evictions, before.evictions);
}

#[test]
fn compile_time_is_accounted() {
    let db = build(16);
    run(&db, "SELECT v.id FROM EVERY Vehicle v WHERE v.id < 3 ORDER BY v.id").unwrap();
    assert!(
        db.engine_metrics().compile_ns > 0,
        "preparing a cacheable plan must record compile time"
    );
}

// ----------------------------------------------------------------------
// Epoch invalidation: no stale plan survives DDL / index / stats changes
// ----------------------------------------------------------------------

#[test]
fn create_index_invalidates_cached_plans() {
    let db = build(64);
    let sql = "SELECT v.id FROM EVERY Vehicle v \
               WHERE v.drivetrain.engine.cylinders = 2 ORDER BY v.id";
    let plain = run(&db, sql).unwrap();
    assert_eq!(run(&db, sql).unwrap(), plain); // warm
    let before = db.engine_metrics().plan_cache;
    db.execute("CREATE INDEX ON Vehicle(drivetrain.engine.cylinders)")
        .unwrap();
    db.collect_stats().unwrap();
    // The cached sequential plan was built under the old epoch: it must be
    // invalidated, and the fresh plan (now index-eligible) must agree.
    assert_eq!(run(&db, sql).unwrap(), plain);
    let after = db.engine_metrics().plan_cache;
    assert_eq!(
        after.invalidations,
        before.invalidations + 1,
        "index build + stats refresh must invalidate the cached plan"
    );
    assert_eq!(after.misses, before.misses + 1, "the re-prepare is a miss");
}

#[test]
fn drop_index_invalidates_plans_that_use_it() {
    // Large enough that the §8.1 inequality picks the index for a
    // unique-key equality: the warm plan really is index-served.
    let db = build(4096);
    let sql = "SELECT v.weight FROM Vehicle v WHERE v.id = 777";
    let scanned = run(&db, sql).unwrap();
    db.execute("CREATE UNIQUE INDEX ON Vehicle(id)").unwrap();
    db.collect_stats().unwrap();
    assert!(db.explain(sql).unwrap().contains("INDSEL("));
    assert_eq!(run(&db, sql).unwrap(), scanned);
    assert_eq!(run(&db, sql).unwrap(), scanned); // warm: cached, index-served
    // Drop through the catalog (no DROP INDEX statement surface) and do
    // *not* refresh the statistics: neither the cached plan nor a plan
    // built now may probe the vanished index.
    db.catalog().drop_index("Vehicle", "id").unwrap();
    assert!(
        !db.explain(sql).unwrap().contains("INDSEL("),
        "the statistics must forget a dropped index at once"
    );
    assert_eq!(run(&db, sql).unwrap(), scanned, "fresh plan after drop agrees");
    assert_eq!(run(&db, "SELECT v.weight FROM Vehicle v WHERE v.id = 778").unwrap().len(), 1);
}

#[test]
fn schema_change_invalidates_cached_plans() {
    let db = build(32);
    let sql = "SELECT v.id FROM EVERY Vehicle v WHERE v.id < 10 ORDER BY v.id";
    let r = run(&db, sql).unwrap();
    assert_eq!(run(&db, sql).unwrap(), r);
    let before = db.engine_metrics().plan_cache;
    db.execute("CREATE CLASS Depot TUPLE (name String(16))").unwrap();
    assert_eq!(run(&db, sql).unwrap(), r);
    let after = db.engine_metrics().plan_cache;
    assert_eq!(after.invalidations, before.invalidations + 1);
}

#[test]
fn dml_does_not_invalidate_but_is_visible() {
    let db = build(8);
    let sql = "SELECT v.id FROM EVERY Vehicle v WHERE v.id >= 0 ORDER BY v.id";
    assert_eq!(run(&db, sql).unwrap().len(), 8);
    let before = db.engine_metrics().plan_cache;
    // Plans reference schema/statistics, not rows: inserting an object
    // must NOT invalidate, and the cached plan must still see the new row.
    db.catalog()
        .new_object(
            "Vehicle",
            Value::tuple(vec![
                ("id", Value::Integer(100)),
                ("weight", Value::Integer(1000)),
                ("drivetrain", Value::Null),
            ]),
        )
        .unwrap();
    let rows = run(&db, sql).unwrap();
    assert_eq!(rows.len(), 9, "cached plan sees freshly inserted rows");
    let after = db.engine_metrics().plan_cache;
    assert_eq!(after.invalidations, before.invalidations, "DML never invalidates");
    assert_eq!(after.hits, before.hits + 1, "DML leaves the cached plan valid");
}

/// What a cached plan resolved per node — predicates, INDSEL bounds, the
/// extent files each range variable reads — lives no longer than its epoch.
/// A point SELECT, a path-point SELECT (a join probing a right class side)
/// and a `FROM EVERY … - …` scan are cached; after each schema change the
/// next execution re-prepares and answers as the interpreter does over the
/// changed database: `CLUSTER` gives a class a new extent file, a new
/// subclass with objects joins `EVERY`, and an index built then dropped
/// moves the access path twice.
#[test]
fn cached_node_state_does_not_outlive_its_epoch() {
    let db = build(4096);
    db.execute("CREATE UNIQUE INDEX ON Vehicle(id)").unwrap();
    db.execute("CREATE CLASS Truck INHERITS FROM Vehicle").unwrap();
    let add = |class: &str, id: i32| {
        let fields = vec![
            ("id", Value::Integer(id)),
            ("weight", Value::Integer(1600 + id % 7)),
            ("drivetrain", Value::Null),
        ];
        db.catalog().new_object(class, Value::tuple(fields)).unwrap();
    };
    (5_000..5_004).for_each(|id| add("Truck", id));
    db.collect_stats().unwrap();
    let texts = [
        "SELECT v.id, v.weight FROM Vehicle v WHERE v.id = 777",
        "SELECT v.id FROM Vehicle v WHERE v.id = 777 AND v.drivetrain.transmission = 'MANUAL'",
        "SELECT v.id FROM EVERY Vehicle - Truck v WHERE v.weight > 1500 ORDER BY v.id",
    ];
    assert!(db.explain(texts[0]).unwrap().contains("INDSEL("));
    assert!(db.explain(texts[1]).unwrap().contains("JOIN("));
    // Each text's answer now, and the run that caches its plan.
    for sql in texts {
        assert_eq!(run(&db, sql).unwrap().rows, oracle::oracle(&db, sql), "{sql}");
        assert_eq!(run(&db, sql).unwrap().rows, oracle::oracle(&db, sql), "{sql}");
    }
    assert_eq!(run(&db, texts[1]).unwrap().len(), 1, "vehicle 777's transmission is manual");
    let check = |change: &str| {
        let before = db.engine_metrics().plan_cache;
        for sql in texts {
            let want = oracle::oracle(&db, sql);
            assert_eq!(run(&db, sql).unwrap().rows, want, "after {change}: {sql}");
            assert_eq!(run(&db, sql).unwrap().rows, want, "after {change}, cached: {sql}");
        }
        let after = db.engine_metrics().plan_cache;
        let n = texts.len() as u64;
        assert_eq!(after.invalidations, before.invalidations + n, "after {change}");
        assert_eq!(after.misses, before.misses + n, "after {change}: each text re-prepares");
        assert_eq!(after.hits, before.hits + n, "after {change}: and is cached again");
    };
    db.execute("CLUSTER Vehicle BY drivetrain").unwrap();
    check("CLUSTER Vehicle");
    db.execute("CLUSTER VehicleDriveTrain BY engine").unwrap();
    check("CLUSTER VehicleDriveTrain");
    db.execute("CREATE CLASS Van INHERITS FROM Vehicle").unwrap();
    (6_000..6_005).for_each(|id| add("Van", id));
    check("a new subclass with objects");
    assert!(run(&db, texts[2]).unwrap().rows.contains(&vec![Value::Integer(6_000)]));
    db.execute("CREATE INDEX ON Vehicle(weight)").unwrap();
    db.collect_stats().unwrap();
    check("CREATE INDEX");
    db.catalog().drop_index("Vehicle", "weight").unwrap();
    check("drop_index");
}

// ----------------------------------------------------------------------
// EXPLAIN ANALYZE: fresh vs cached
// ----------------------------------------------------------------------

#[test]
fn explain_analyze_distinguishes_cached_from_fresh() {
    let db = build(32);
    let sql = "SELECT v.id FROM EVERY Vehicle v WHERE v.weight > 900 ORDER BY v.id";
    let first = db.explain_analyze(sql).unwrap();
    assert!(
        first.contains("plan: fresh (epoch"),
        "cold EXPLAIN ANALYZE reports a fresh plan:\n{first}"
    );
    let second = db.explain_analyze(sql).unwrap();
    assert!(
        second.contains("plan: cached (epoch"),
        "warm EXPLAIN ANALYZE reports the cached plan:\n{second}"
    );
    assert!(second.contains("(plan reused)"), "{second}");
    // The instrumented and plain forms share one entry.
    let before = db.engine_metrics().plan_cache;
    run(&db, sql).unwrap();
    let after = db.engine_metrics().plan_cache;
    assert_eq!(after.hits, before.hits + 1, "SELECT hits the EXPLAIN ANALYZE entry");
    // Epoch bump flips it back to fresh.
    db.collect_stats().unwrap();
    let third = db.explain_analyze(sql).unwrap();
    assert!(third.contains("plan: fresh (epoch"), "{third}");
}

#[test]
fn cached_run_preserves_trace_and_answers() {
    let db = build(64);
    let sql = "SELECT v.id FROM EVERY Vehicle v \
               WHERE v.drivetrain.engine.cylinders = 2 ORDER BY v.id";
    let cold = run(&db, sql).unwrap();
    let cold_trace = db.last_trace();
    let warm = run(&db, sql).unwrap();
    let warm_trace = db.last_trace();
    assert_eq!(cold, warm);
    assert_eq!(cold_trace, warm_trace, "cached execution replays the same stages");
    assert_eq!(cold.len(), 16, "quarter of 64 vehicles have 2 cylinders");
}

// ----------------------------------------------------------------------
// A FROM list no path links is a plan like any other
// ----------------------------------------------------------------------

/// Two extents with no reference between them are planned one by one and
/// combined by a product: prepared, cached, analyzed and accounted like
/// every other SELECT.
#[test]
fn multi_variable_from_lists_are_cached_and_analyzed_like_any_select() {
    let db = build(24);
    // One shape (the `=` operand is a parameter), three keys.
    let q = |cyl: i32| {
        format!(
            "SELECT v.id, e.size FROM Vehicle v, VehicleEngine e \
             WHERE v.id < 3 AND e.cylinders = {cyl} ORDER BY v.id"
        )
    };
    db.set_plan_cache_enabled(false);
    let reference = run(&db, &q(4)).unwrap();
    assert_eq!(reference.len(), 3 * 4, "3 vehicles x 4 four-cylinder engines");
    db.set_plan_cache_enabled(true);

    let before = db.engine_metrics().plan_cache;
    assert_eq!(run(&db, &q(4)).unwrap(), reference, "cold");
    assert_eq!(run(&db, &q(4)).unwrap(), reference, "warm");
    assert_eq!(run(&db, &q(6)).unwrap().len(), reference.len(), "another key");
    let after = db.engine_metrics().plan_cache;
    assert_eq!(
        (after.misses - before.misses, after.hits - before.hits),
        (1, 2),
        "one cacheable shape: a miss, then hits"
    );

    let Statement::Select(stmt) = parse(&q(4)).unwrap() else {
        panic!("not a select")
    };
    let analyzed = Executor::new(db.catalog(), db.funcman())
        .analyze(&stmt)
        .unwrap();
    assert_eq!(analyzed.result, reference, "instrumented run");
    let report = db.explain_analyze(&q(4)).unwrap();
    assert!(report.contains("plan: cached (epoch"), "{report}");
    assert!(report.contains("PRODUCT\n  est: rows=13 pages=0.0 | act: rows=12 "), "{report}");
    assert!(report.contains("-- total: rows=12"), "{report}");

    let Answer::Rows(stats) = db.execute("SHOW STATEMENTS").unwrap() else {
        panic!("SHOW STATEMENTS must return rows")
    };
    let row = stats
        .rows
        .iter()
        .find(|row| row[0].to_string().contains("FROM Vehicle v, VehicleEngine e"))
        .expect("the two-variable shape has a SHOW STATEMENTS row");
    assert_eq!(row[1], Value::LongInteger(5), "calls: 1 uncached + 3 + EXPLAIN ANALYZE");
    assert_eq!(row[8], Value::LongInteger(3), "cache_hits");
}
