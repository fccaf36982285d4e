//! Batched execution pipeline: vectorized operators, spill sort, and
//! compilation at first use.
//!
//! * Batched ≡ row-at-a-time: for randomly generated select/project/join/
//!   sort/DISTINCT queries, the fused batched pipeline produces results
//!   byte-identical to the naive oracle's (`support/oracle.rs`: the
//!   nested-loop product, every expression tree-walked per row) at
//!   parallelism 1/2/4/8 and batch sizes 1/7/1024, on a plan's first
//!   execution and on its next.
//! * Spill sort: a tiny sort budget forces ≥3 external runs; the answer
//!   stays byte-identical to the in-memory sort, the `sort.spilled_runs` /
//!   `sort.spill_bytes` counters advance, and the `ORDER BY` stage's page
//!   actuals in `EXPLAIN ANALYZE` are exactly one write plus one read of
//!   every run's pages, inside the `seqcost_batched` model's envelope.
//! * Compilation at first use: the first execution of a statement already
//!   runs the batched pipeline and charges its programs' compile time,
//!   once; a plan that never evaluates a predicate never compiles it.
//! * `plan_cache.capacity` is configurable per session and reported by
//!   `SHOW METRICS`; a raised capacity absorbs a workload that the default
//!   128-entry cache would thrash on.

use proptest::prelude::*;

use mood_core::sql::{parse, Executor, Statement};
use mood_core::{Answer, Mood, OptimizerConfig, Value};

#[path = "support/oracle.rs"]
mod oracle;
use oracle::try_oracle;

/// The Section 3.1 Vehicle schema with the deterministic population used
/// across the query-cache and observability suites (cylinders cycle
/// 2/4/6/8, weights cycle over 15 values). A 27-byte `pad` nobody reads
/// makes a vehicle's record as long as one that stored its attribute
/// names, so the extent has the pages the plans here were chosen on.
fn build(n_vehicles: i32) -> Mood {
    let db = Mood::in_memory_with_pool(1024);
    db.set_optimizer_config(OptimizerConfig::paper());
    for ddl in [
        "CREATE CLASS VehicleEngine TUPLE (size Integer, cylinders Integer)",
        "CREATE CLASS VehicleDriveTrain TUPLE (engine REFERENCE (VehicleEngine), \
         transmission String(32))",
        "CREATE CLASS Vehicle TUPLE (id Integer, weight Integer, \
         drivetrain REFERENCE (VehicleDriveTrain), pad String)",
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
                    ("pad", Value::string("p".repeat(27))),
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
// Property: batched ≡ row-at-a-time at every parallelism and batch size
// ----------------------------------------------------------------------

/// Query texts over the Vehicle schema covering every batched operator:
/// local predicates (fused scan+select), path predicates (join probe),
/// multi-column projection, ORDER BY (sort), and DISTINCT (dup-elim).
fn arb_query() -> impl Strategy<Value = String> {
    let pred = prop_oneof![
        (0..70i32, arb_cmp()).prop_map(|(n, op)| format!("v.id {op} {n}")),
        (600..2000i32, arb_cmp()).prop_map(|(n, op)| format!("v.weight {op} {n}")),
        (0..10i32, arb_cmp())
            .prop_map(|(n, op)| format!("v.drivetrain.engine.cylinders {op} {n}")),
        (0..40i32, 0..70i32).prop_map(|(a, b)| format!("v.id BETWEEN {a} AND {b}")),
    ];
    let pred = pred.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) AND ({b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) OR ({b})")),
            inner.prop_map(|a| format!("NOT ({a})")),
        ]
    });
    let proj = prop_oneof![
        Just("v.id, v.weight"),
        Just("v.id, v.drivetrain.transmission"),
        Just("v.weight, v.id, v.drivetrain.engine.cylinders"),
    ];
    // ORDER BY keys always end in the unique v.id so every query has one
    // well-defined answer regardless of scan or merge order.
    let order = prop_oneof![Just("v.id"), Just("v.weight, v.id"), Just("v.weight DESC, v.id")];
    (proj, any::<bool>(), pred, order).prop_map(|(proj, distinct, pred, order)| {
        let d = if distinct { "DISTINCT " } else { "" };
        format!("SELECT {d}{proj} FROM EVERY Vehicle v WHERE {pred} ORDER BY {order}")
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
    fn batched_matches_row_at_a_time(sql in arb_query()) {
        let db = build(48);
        // Baseline: the oracle — row at a time, no plan, no program.
        let baseline = try_oracle(&db, &sql);
        for batch in [1usize, 7, 1024] {
            db.set_batch_size(batch);
            for par in [1usize, 2, 4, 8] {
                // Changing a setting empties the plan cache: `cold` prepares
                // the plan and compiles its expressions as it meets them,
                // `warm` runs the cached plan.
                db.set_parallelism(par);
                let cold = run(&db, &sql);
                let warm = run(&db, &sql);
                prop_assert_eq!(&cold, &warm, "warm diverged (batch {}, par {})", batch, par);
                match (&baseline, &cold) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(
                        a, &b.rows, "batched != row-at-a-time (batch {}, par {}): {}",
                        batch, par, sql
                    ),
                    (Err(_), Err(_)) => {}
                    other => prop_assert!(
                        false, "Ok/Err divergence (batch {}, par {}): {:?}", batch, par, other
                    ),
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// External merge sort: spill forced, identical answer, modelled pages
// ----------------------------------------------------------------------

#[test]
fn spill_sort_is_identical_and_its_pages_match_the_model() {
    let db = build(400);
    // Non-unique leading key + unique tiebreak: exercises the stable
    // (key, original-index) total order across runs.
    let sql = "SELECT v.id, v.weight FROM EVERY Vehicle v \
               WHERE v.weight > 700 ORDER BY v.weight, v.id";
    let in_memory = run(&db, sql).unwrap();
    assert!(in_memory.len() > 300, "predicate keeps most of the extent");

    // 373 surviving rows against a 64-row budget: ceil(373/64) = 6 runs.
    db.set_sort_budget(64);
    let before = db.engine_metrics().batch;
    let report = db.explain_analyze(sql).unwrap();
    let after = db.engine_metrics().batch;
    let spilled = run(&db, sql).unwrap();
    assert_eq!(spilled, in_memory, "external merge sort must be byte-identical");

    let order_line = report
        .lines()
        .find(|l| l.contains("ORDER BY: rows="))
        .expect("ORDER BY stage line");
    let sorted_rows = field(order_line, "rows=") as u64;
    let actual_pages = field(order_line, "pages=") as u64;
    let runs = after.spilled_runs - before.spilled_runs;
    assert_eq!(runs, sorted_rows.div_ceil(64), "one run per 64-row gulp");
    assert!(runs >= 3, "tiny budget must force at least 3 runs, got {runs}");

    // The ORDER BY stage is tied to what it wrote: each run is written once
    // and read back once, charged in page equivalents of its bytes. A
    // spilled row is its keys plus the row's bound values, and a bound value
    // is as wide as the variable's read set (here `{id, weight}`, all fixed
    // width), so every record has the same size and the run sizes follow
    // from the counters alone.
    let bytes = after.spill_bytes - before.spill_bytes;
    assert_eq!(bytes % sorted_rows, 0, "fixed-width records");
    let record = bytes / sorted_rows;
    let run_pages = |rows: u64| mood_storage::spill::pages_for_bytes(rows * record);
    let written = (sorted_rows / 64) * run_pages(64) + run_pages(sorted_rows % 64);
    assert_eq!(
        actual_pages,
        2 * written,
        "ORDER BY pages are one write and one read of every run:\n{report}"
    );

    // And it stays inside the `seqcost_batched` spill model's envelope: at
    // most 4x a write pass plus a read pass over `ceil(rows / density)`
    // data pages, density from the extent's statistics (the BIND estimate
    // line). There is no floor at heap density any more — a spilled record
    // may be narrower than a stored one.
    let lines: Vec<&str> = report.lines().collect();
    let bind_at = lines
        .iter()
        .position(|l| l.trim_start().starts_with("BIND("))
        .expect("BIND node");
    let bind_est = lines[bind_at + 1];
    let est_rows: f64 = field(bind_est, "rows=");
    let est_pages: f64 = field(bind_est, "pages=");
    assert!(est_pages > 0.0, "statistics give the extent a page count:\n{report}");
    let density = (est_rows / est_pages).max(1.0);
    let model_pages = 2.0 * (sorted_rows as f64 / density).ceil();
    assert!(
        actual_pages as f64 <= 4.0 * model_pages,
        "ORDER BY touched {actual_pages} pages; the two-pass model allows \
         {}:\n{report}",
        4.0 * model_pages
    );
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
// Compilation at first use: batched from the first execution, charged once
// ----------------------------------------------------------------------

#[test]
fn the_first_execution_runs_batched_and_compiles_once() {
    let db = build(64);
    let sql = "SELECT v.id, v.weight FROM EVERY Vehicle v WHERE v.weight > 900 ORDER BY v.id";
    let Statement::Select(stmt) = parse(sql).unwrap() else {
        panic!()
    };
    let ex = Executor::new(db.catalog(), db.funcman());
    let pq = ex.prepare(&stmt).unwrap().expect("every SELECT prepares");
    // Preparing parses, binds and optimizes; it compiles no expression.
    let m0 = db.engine_metrics();
    assert_eq!(m0.batch.count, 0);
    let first = ex.run_prepared(&pq).unwrap();
    let m1 = db.engine_metrics();
    assert!(m1.batch.count > 0, "execution 1 already runs batched");
    assert!(
        m1.compile_ns > m0.compile_ns,
        "the programs are compiled, and charged, when first evaluated"
    );
    assert_eq!(ex.run_prepared(&pq).unwrap(), first);
    let m2 = db.engine_metrics();
    assert_eq!(
        m2.compile_ns, m1.compile_ns,
        "a compiled plan never pays compile time again"
    );
    assert!(m2.batch.rows > m1.batch.rows, "later runs keep batching");
    assert_eq!(run(&db, sql).unwrap(), first, "the session runs the same plan");
}

#[test]
fn a_plan_that_evaluates_nothing_compiles_nothing() {
    // Enough objects for §8.1 to prefer the index probe to the scan.
    let db = build(4000);
    db.execute("CREATE INDEX ON Vehicle(id)").unwrap();
    db.collect_stats().unwrap();
    // An index probe that finds no entry: no object is fetched, so the
    // re-verified predicate and the projection never meet a row.
    let sql = "SELECT v.id, v.weight * 2 FROM Vehicle v WHERE v.id = 100000";
    let plan = db.explain(sql).unwrap();
    assert!(plan.contains("INDSEL(Vehicle, v, BTREE"), "{plan}");
    let Statement::Select(stmt) = parse(sql).unwrap() else {
        panic!()
    };
    let ex = Executor::new(db.catalog(), db.funcman());
    let pq = ex.prepare(&stmt).unwrap().expect("every SELECT prepares");
    let before = db.engine_metrics().compile_ns;
    assert!(ex.run_prepared(&pq).unwrap().is_empty());
    assert_eq!(db.engine_metrics().compile_ns, before, "nothing compiled");
}

/// Where rows do not come in scan batches (here a selection over a join's
/// output) the dereference cache still lives for `batch_size` rows, no
/// longer: one batch fetches each object its paths reach once, a batch of
/// one fetches them for every row.
#[test]
fn the_dereference_cache_lasts_a_batch_where_rows_are_not_scanned() {
    let db = build(64);
    let sql = "SELECT v.id FROM Vehicle v WHERE v.drivetrain.transmission = 'MANUAL' \
               AND v.drivetrain.engine.cylinders + v.drivetrain.engine.size > 5 ORDER BY v.id";
    let plan = db.explain(sql).unwrap();
    assert!(plan.contains("\nSELECT(\n  JOIN("), "{plan}");
    let accesses = |batch: usize| {
        db.set_batch_size(batch);
        let before = db.metrics().snapshot();
        let rows = run(&db, sql).unwrap();
        let d = db.metrics().snapshot().delta(&before);
        (rows, d.buffer_hits + d.buffer_misses)
    };
    // The join hands the selection 32 rows, each reaching one of 8
    // drivetrains and, through it, one of 8 engines.
    let (rows, one_batch) = accesses(1024);
    let (same_rows, row_at_a_time) = accesses(1);
    assert_eq!(rows.rows.len(), 32);
    assert_eq!(same_rows, rows);
    assert_eq!(
        row_at_a_time - one_batch,
        2 * 32 - 16,
        "{row_at_a_time} accesses a row at a time, {one_batch} in one batch"
    );
}

// ----------------------------------------------------------------------
// Plan cache capacity: configurable, reported, and effective
// ----------------------------------------------------------------------

#[test]
fn plan_cache_capacity_is_configurable_and_reported() {
    let db = build(16);
    assert_eq!(metric_value(&db, "plan_cache.capacity"), "128", "default capacity");
    db.set_plan_cache_capacity(256);
    assert_eq!(db.plan_cache_capacity(), 256);
    assert_eq!(metric_value(&db, "plan_cache.capacity"), "256");
    // 200 distinct shapes (a range bound is part of the shape) thrash a
    // 128-entry cache (see the query_cache suite) but fit in 256 with no
    // evictions.
    let before = db.engine_metrics().plan_cache;
    for i in 0..200 {
        let sql = format!("SELECT v.id FROM EVERY Vehicle v WHERE v.id < {i} ORDER BY v.id");
        run(&db, &sql).unwrap();
    }
    let after = db.engine_metrics().plan_cache;
    assert_eq!(
        after.evictions, before.evictions,
        "200 distinct shapes fit a 256-plan cache without evicting"
    );
    // Shrinking works too: the same workload must now evict.
    db.set_plan_cache_capacity(8);
    assert_eq!(db.plan_cache_capacity(), 8);
    for i in 0..20 {
        let sql = format!("SELECT v.weight FROM EVERY Vehicle v WHERE v.id < {i} ORDER BY v.id");
        run(&db, &sql).unwrap();
    }
    assert!(
        db.engine_metrics().plan_cache.evictions > after.evictions,
        "20 distinct shapes against an 8-plan cache must evict"
    );
    // A capacity of N holds N shapes: none is evicted before the N+1st.
    for n in [8usize, 128] {
        db.set_plan_cache_capacity(n);
        let before = db.engine_metrics().plan_cache;
        for i in 0..n {
            let sql = format!("SELECT v.id FROM EVERY Vehicle v WHERE v.weight < {i}");
            run(&db, &sql).unwrap();
        }
        let after = db.engine_metrics().plan_cache;
        assert_eq!(after.misses - before.misses, n as u64, "{n} distinct shapes");
        assert_eq!(after.evictions, before.evictions, "capacity {n} holds {n} shapes");
    }
}

// ----------------------------------------------------------------------
// Batch counters surface through SHOW METRICS
// ----------------------------------------------------------------------

#[test]
fn batch_and_spill_counters_surface_in_show_metrics() {
    let db = build(128);
    db.set_batch_size(32);
    let sql = "SELECT v.id FROM EVERY Vehicle v WHERE v.weight > 700 ORDER BY v.id";
    run(&db, sql).unwrap();
    let rows: u64 = metric_value(&db, "batch.rows").parse().unwrap();
    let count: u64 = metric_value(&db, "batch.count").parse().unwrap();
    assert!(rows >= 128, "the whole extent streamed through batches: {rows}");
    assert!(count >= 4, "128 rows at batch size 32 form >= 4 batches: {count}");
    assert_eq!(metric_value(&db, "sort.spilled_runs"), "0", "no spill yet");
    db.set_sort_budget(16);
    run(&db, sql).unwrap();
    let runs: u64 = metric_value(&db, "sort.spilled_runs").parse().unwrap();
    let bytes: u64 = metric_value(&db, "sort.spill_bytes").parse().unwrap();
    assert!(runs >= 3, "16-row budget over 128 rows spills runs: {runs}");
    assert!(bytes > 0, "spilled runs account bytes: {bytes}");
}
