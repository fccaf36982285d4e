//! Query-lifecycle observability: `EXPLAIN ANALYZE` estimate-vs-actual
//! reports, the page-accounting exactness invariant, span tracing, and the
//! engine metrics registry.
//!
//! The central invariant (pinned in `actual_pages_sum_exactly_to_total`):
//! the per-operator exclusive `DiskMetrics` deltas plus the stage deltas
//! sum **exactly** to the statement's total counter delta, and the
//! exclusive nanos plus the stage nanos plus the coordinator's share to its
//! wall time — at every parallelism level, because every moment of an
//! execution has one owner, owners switch on the coordinating thread only,
//! and chunk workers join inside whichever owner is current.

use mood_core::cost::yao;
use mood_core::sql::{parse, AnalyzeReport, Executor, Statement};
use mood_core::{Answer, Mood, OptimizerConfig, RingBuffer, Value};

/// The Section 3.1 Vehicle schema with a deterministic population; a small
/// buffer pool forces real page traffic so the accounting is non-trivial.
fn build(pool_frames: usize) -> Mood {
    build_sized(pool_frames, 64)
}

/// Like [`build`] with a chosen Vehicle-extent size. Vehicles cycle through
/// 16 drivetrains whose engines cycle through 2/4/6/8 cylinders, so
/// `cylinders = 2` always selects exactly a quarter of the extent.
fn build_sized(pool_frames: usize, n_vehicles: i32) -> Mood {
    let db = Mood::in_memory_with_pool(pool_frames);
    db.set_optimizer_config(OptimizerConfig::paper());
    for ddl in [
        "CREATE CLASS VehicleEngine TUPLE (size Integer, cylinders Integer)",
        "CREATE CLASS VehicleDriveTrain TUPLE (engine REFERENCE (VehicleEngine), \
         transmission String(32))",
        "CREATE CLASS Company TUPLE (name String(32), location String(32))",
        "CREATE CLASS Vehicle TUPLE (id Integer, weight Integer, \
         drivetrain REFERENCE (VehicleDriveTrain), manufacturer REFERENCE (Company))",
    ] {
        db.execute(ddl).unwrap();
    }
    let catalog = db.catalog();
    let bmw = catalog
        .new_object(
            "Company",
            Value::tuple(vec![
                ("name", Value::string("BMW")),
                ("location", Value::string("Munich")),
            ]),
        )
        .unwrap();
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
                    ("manufacturer", Value::Ref(bmw)),
                ]),
            )
            .unwrap();
    }
    db.collect_stats().unwrap();
    db
}

const PATH_QUERY: &str = "SELECT v.id FROM EVERY Vehicle v \
     WHERE v.drivetrain.engine.cylinders = 2 ORDER BY v.id";

fn select_stmt(sql: &str) -> mood_core::sql::SelectStmt {
    match parse(sql).unwrap() {
        Statement::Select(s) => s,
        other => panic!("not a select: {other:?}"),
    }
}

/// Σ node exclusive nanos + Σ stage nanos + the coordinator's share: the
/// statement's wall time, to the nanosecond, when every moment of it has
/// one owner.
fn accounted_nanos(report: &AnalyzeReport) -> u64 {
    let nodes = report.terms.iter().flat_map(|t| &t.nodes).map(|n| n.exclusive_nanos);
    let stages = report.stages.iter().map(|s| s.nanos);
    nodes.sum::<u64>() + stages.sum::<u64>() + report.coordinator_nanos
}

// ----------------------------------------------------------------------
// EXPLAIN ANALYZE report shape (golden-ish: contains-based so estimate
// numbers can evolve with the cost model)
// ----------------------------------------------------------------------

#[test]
fn explain_analyze_renders_estimate_vs_actual_tree() {
    let db = build(1024);
    let report = db.explain_analyze(PATH_QUERY).unwrap();
    for needle in [
        "_TRAVERSAL(",
        "BIND(Vehicle, v)",
        "est: rows=",
        "| act: rows=",
        "rows-off=",
        "-- stages:",
        "PROJECT:",
        "ORDER BY:",
        "-- total: rows=16 pages=",
    ] {
        assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
    }
    // The unmaterialized right side of a traversal join renders as fused.
    assert!(
        report.contains("(fused into parent)"),
        "fused node expected:\n{report}"
    );
}

#[test]
fn explain_gains_per_node_estimates() {
    let db = build(1024);
    let plan = db.explain(PATH_QUERY).unwrap();
    assert!(plan.contains("-- Node estimates"), "{plan}");
    assert!(plan.contains("sel="), "{plan}");
    assert!(plan.contains("pages="), "{plan}");
    // The paper-notation plan text is still there, untouched.
    assert!(plan.contains("BIND(Vehicle, v)"), "{plan}");
}

/// A FROM list no path links is one plan per variable — each variable's
/// own `BIND`/`SELECT` — combined by a `JOIN`, and `EXPLAIN` shows that
/// plan with per-node estimates and read sets narrowed to what it reads.
#[test]
fn explain_of_a_multi_variable_from_list_plans_each_variable() {
    let db = Mood::in_memory_with_pool(256);
    db.execute("CREATE CLASS V TUPLE (id Integer, weight Integer)").unwrap();
    db.execute("CREATE CLASS E TUPLE (size Integer, cylinders Integer)").unwrap();
    for i in 0..20 {
        db.execute(&format!("new V <{i}, {}>", 1000 + i * 50)).unwrap();
        db.execute(&format!("new E <{}, {}>", 1000 + i * 100, 2 + (i % 4) * 2)).unwrap();
    }
    let sql = "SELECT v.id, e.size FROM V v, E e WHERE v.weight > 1500 AND e.cylinders = 2";
    let Answer::Rows(rows) = db.execute(sql).unwrap() else { panic!("rows") };
    assert_eq!(rows.len(), 45, "9 heavy V x 5 two-cylinder E");
    let plan = db.explain(sql).unwrap();
    for node in [
        "SELECT(BIND(V, v), v.weight > 1500)",
        "SELECT(BIND(E, e), e.cylinders = 2)",
        "PRODUCT, TRUE)",
        "-- * PRODUCT: rows=",
        "-- Reads: e {cylinders, size}\n-- Reads: v {id, weight}\n",
    ] {
        assert!(plan.contains(node), "{node}:\n{plan}");
    }
    assert_eq!(plan.matches("JOIN(").count(), 1, "{plan}");
    let analyzed = db.explain_analyze(sql).unwrap();
    assert!(analyzed.contains("PRODUCT\n") && analyzed.contains("act: rows=45 "), "{analyzed}");
}

/// A scan of `FROM EVERY C [- D …]` reads every extent the hierarchy names,
/// and its `BIND` is estimated over all of them: rows and pages are the sum
/// over the extents the scan reads, not `C`'s own, and a sort over that
/// input is estimated to spill when the sum outgrows the sort budget.
#[test]
fn a_bind_under_from_every_is_estimated_over_the_extents_it_reads() {
    let db = Mood::in_memory_with_pool(1024);
    for ddl in [
        "CREATE CLASS Vehicle TUPLE (id Integer, weight Integer)",
        "CREATE CLASS Automobile INHERITS FROM Vehicle",
        "CREATE CLASS JapaneseAuto INHERITS FROM Automobile",
    ] {
        db.execute(ddl).unwrap();
    }
    // 80 + 300 + 300: EVERY Vehicle is 8.5 times Vehicle's own extent, and
    // less JapaneseAuto 4.75 times.
    for (class, n) in [("Vehicle", 80), ("Automobile", 300), ("JapaneseAuto", 300)] {
        for i in 0..n {
            db.execute(&format!("new {class} <{i}, {}>", 1000 + (i * 37) % 900)).unwrap();
        }
    }
    db.collect_stats().unwrap();
    let config = OptimizerConfig::paper();
    let config = OptimizerConfig {
        execution: config.execution.with_sort_budget(200),
        ..config
    };
    let ex = Executor::new(db.catalog(), db.funcman()).with_config(config);
    let off = |est: f64, act: u64| (est / act as f64).max(act as f64 / est);
    for (sql, rows) in [
        ("SELECT v.id FROM EVERY Vehicle v", 680),
        ("SELECT v.id FROM EVERY Vehicle - JapaneseAuto v", 380),
        ("SELECT v.id FROM EVERY Vehicle v ORDER BY v.weight, v.id", 680),
    ] {
        let report = ex.analyze(&select_stmt(sql)).unwrap();
        assert_eq!(report.result.rows.len(), rows, "{sql}");
        let nodes = &report.terms[0].nodes;
        let bind = nodes.iter().find(|n| n.est.label.starts_with("BIND(")).expect("a BIND");
        let act = bind.actual.expect("the scan reports actuals").rows;
        assert_eq!(act, rows as u64, "{sql}");
        assert!(off(bind.est.rows, act) <= 1.1, "{sql}: {:?} vs {act}", bind.est);
        // The hierarchy outgrows the 200-row budget: the sort spills.
        if sql.contains("ORDER BY") {
            let sort = report.stages.iter().find(|s| s.name == "ORDER BY").expect("ORDER BY");
            assert!(sort.delta.writes > 0, "{sql}: {:?}", sort.delta);
        }
    }
}

#[test]
fn explain_analyze_through_sql_statement() {
    let db = build(1024);
    let Answer::Plan(report) = db.execute(&format!("EXPLAIN ANALYZE {PATH_QUERY}")).unwrap()
    else {
        panic!("EXPLAIN ANALYZE must return a plan")
    };
    assert!(report.contains("act: rows="), "{report}");
}

// ----------------------------------------------------------------------
// The exactness invariant
// ----------------------------------------------------------------------

/// Per-operator exclusive page deltas + stage deltas == query total, for
/// every page counter, at parallelism 1, 2, 4 and 8 — and the term root's
/// actual row count equals the result cardinality.
#[test]
fn actual_pages_sum_exactly_to_total_across_parallelism() {
    // 4-frame pool against a 1024-vehicle extent: the working set cannot
    // stay cached, so every parallelism level does real page I/O and the
    // invariant is tested against nonzero counters.
    let db = build_sized(4, 1024);
    let stmt = select_stmt(PATH_QUERY);
    for parallelism in [1usize, 2, 4, 8] {
        let ex = Executor::new(db.catalog(), db.funcman())
            .with_config(OptimizerConfig::paper().with_parallelism(parallelism));
        let report = ex.analyze(&stmt).unwrap();
        let acc = report.accounted();
        let total = report.total;
        assert!(
            total.total_reads() + total.writes > 0,
            "tiny pool must force page traffic (parallelism {parallelism})"
        );
        assert_eq!(
            (acc.seq_pages, acc.rnd_pages, acc.idx_pages, acc.writes),
            (
                total.seq_pages,
                total.rnd_pages,
                total.idx_pages,
                total.writes
            ),
            "page accounting must telescope exactly at parallelism {parallelism}"
        );
        assert_eq!(
            accounted_nanos(&report),
            report.elapsed_nanos,
            "time must telescope exactly at parallelism {parallelism}"
        );
        assert_eq!(report.result.len(), 256);
        assert_eq!(
            report.terms[0].root_actual_rows(),
            Some(report.result.len() as u64),
            "root actuals must match the cursor row count"
        );
    }
}

/// The same invariant across predicates of different selectivity (every
/// cylinders constant exercises a different row volume through the tree).
#[test]
fn accounting_invariant_holds_for_every_predicate_constant() {
    let db = build_sized(4, 1024);
    for cyl in [2, 4, 6, 8, 10] {
        let stmt = select_stmt(&format!(
            "SELECT v.id FROM EVERY Vehicle v WHERE v.drivetrain.engine.cylinders = {cyl}"
        ));
        for parallelism in [1usize, 4] {
            let ex = Executor::new(db.catalog(), db.funcman())
                .with_config(OptimizerConfig::paper().with_parallelism(parallelism));
            let report = ex.analyze(&stmt).unwrap();
            let acc = report.accounted();
            assert_eq!(
                (acc.seq_pages, acc.rnd_pages, acc.idx_pages, acc.writes),
                (
                    report.total.seq_pages,
                    report.total.rnd_pages,
                    report.total.idx_pages,
                    report.total.writes
                ),
                "cylinders={cyl} parallelism={parallelism}"
            );
            assert_eq!(
                accounted_nanos(&report),
                report.elapsed_nanos,
                "time: cylinders={cyl} parallelism={parallelism}"
            );
            let expected = if cyl == 10 { 0 } else { 256 };
            assert_eq!(report.result.len(), expected, "cylinders={cyl}");
        }
    }
}

/// `EXPLAIN ANALYZE` measures the execution statements actually get. A
/// plan's `Select(Bind)` runs as the batched scan from its first execution
/// on, and under analyze too — the batch counter moves exactly as under the
/// plain statement — and
/// the `Bind` it absorbs still reports what the scan produced, with the
/// page accounting exact at every parallelism.
#[test]
fn analyze_of_a_warm_plan_runs_the_batched_scan() {
    let db = build_sized(4, 1024);
    let stmt = select_stmt("SELECT v.id FROM Vehicle v WHERE v.weight > 900");
    let batches = || db.engine_metrics().batch.count;
    for parallelism in [1usize, 2, 4, 8] {
        let ex = Executor::new(db.catalog(), db.funcman())
            .with_config(OptimizerConfig::paper().with_parallelism(parallelism));
        let pq = ex.prepare(&stmt).unwrap().expect("every SELECT prepares");
        let b0 = batches();
        let cold = ex.run_prepared(&pq).unwrap();
        let plain = batches() - b0;
        assert!(plain > 0, "execution 1 compiles and scans in batches");
        let warm = ex.run_prepared(&pq).unwrap();
        assert_eq!(batches() - b0, 2 * plain, "and so does every later one");
        assert_eq!(warm, cold);

        let b1 = batches();
        let report = ex.analyze_prepared(&pq).unwrap();
        assert_eq!(
            batches() - b1,
            plain,
            "analyze must run the batched scan (parallelism {parallelism})"
        );
        assert_eq!(report.result, warm);
        let nodes = &report.terms[0].nodes;
        assert!(nodes[0].est.label.starts_with("SELECT("), "{}", nodes[0].est.label);
        assert_eq!(nodes[0].actual.expect("SELECT actuals").rows, warm.len() as u64);
        assert!(nodes[1].est.label.starts_with("BIND("), "{}", nodes[1].est.label);
        let bind = nodes[1].actual.expect("the absorbed BIND reports actuals");
        assert_eq!(bind.rows, 1024, "the scan produced the whole extent");
        assert!(
            nodes[1].exclusive.total_reads() > 0 && nodes[0].exclusive.total_reads() == 0,
            "the scan's pages are the BIND's; this predicate dereferences nothing"
        );
        let (acc, total) = (report.accounted(), report.total);
        assert_eq!(
            (acc.seq_pages, acc.rnd_pages, acc.idx_pages, acc.writes),
            (total.seq_pages, total.rnd_pages, total.idx_pages, total.writes),
            "page accounting must telescope exactly at parallelism {parallelism}"
        );
        assert_eq!(
            accounted_nanos(&report),
            report.elapsed_nanos,
            "time must telescope exactly at parallelism {parallelism}"
        );
    }
}

/// The clauses after WHERE consume the plan's output as it streams: each
/// stage owns its work while the feeding node waits for it. With a sort
/// that spills runs, an aggregation that spills partitions, a projection
/// that dereferences (pages of its own), DISTINCT and FROM lists of two and
/// three components, on a plan's first execution and on its next: every
/// page and every nanosecond is accounted to exactly one node, one stage or
/// the coordinator.
#[test]
fn streamed_stages_telescope_with_spills_and_groups() {
    let db = build_sized(4, 1024);
    for (sql, stages, rows) in [
        (
            "SELECT v.id, v.drivetrain.transmission FROM Vehicle v WHERE v.weight > 900 \
             ORDER BY v.weight DESC, v.id",
            &["ORDER BY", "PROJECT"][..],
            817,
        ),
        (
            "SELECT v.id, COUNT(*), MAX(v.weight) FROM Vehicle v GROUP BY v.id \
             HAVING COUNT(*) > 0 ORDER BY v.id",
            &["GROUP BY", "HAVING", "PROJECT", "ORDER BY"][..],
            1024,
        ),
        // Two scan-only terms: one scan, no union stage.
        (
            "SELECT DISTINCT v.drivetrain.engine.cylinders FROM EVERY Vehicle v \
             WHERE v.weight < 1000 OR v.id < 100",
            &["PROJECT", "DISTINCT"][..],
            4,
        ),
        // A path term keeps the union of the terms' plans.
        (
            "SELECT DISTINCT v.drivetrain.engine.cylinders FROM EVERY Vehicle v \
             WHERE v.weight < 1000 OR v.drivetrain.transmission = 'AUTOMATIC'",
            &["WHERE:UNION", "PROJECT", "DISTINCT"][..],
            4,
        ),
        (
            "SELECT v.id, e.size FROM Vehicle v, VehicleEngine e \
             WHERE v.weight > 1500 AND e.cylinders = 4 ORDER BY v.id, e.size",
            &["ORDER BY", "PROJECT"][..],
            1088,
        ),
        // Three variables: a product, then a hash join on `e.size = d.weight`.
        (
            "SELECT v.id, d.id, e.size FROM Vehicle v, VehicleEngine e, Vehicle d \
             WHERE v.weight > 1780 AND e.cylinders = 4 AND d.weight = e.size ORDER BY v.id, d.id",
            &["ORDER BY", "PROJECT"][..],
            68 * 136,
        ),
    ] {
        let stmt = select_stmt(sql);
        for parallelism in [1usize, 2, 4, 8] {
            let config = OptimizerConfig::paper().with_parallelism(parallelism);
            let config = OptimizerConfig {
                execution: config.execution.with_sort_budget(64).with_batch_size(100),
                ..config
            };
            let ex = Executor::new(db.catalog(), db.funcman()).with_config(config);
            let pq = ex.prepare(&stmt).unwrap().expect("every SELECT prepares");
            let spilled = |m: &mood_core::EngineMetrics| m.batch.spilled_runs + m.agg_spilled_partitions;
            let before = spilled(&db.engine_metrics());
            for execution in ["first", "repeated"] {
                let ctx = format!("{sql} ({execution}, parallelism {parallelism})");
                let report = ex.analyze_prepared(&pq).unwrap();
                assert_eq!(report.result.len(), rows, "{ctx}");
                let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
                assert_eq!(names, stages, "{ctx}");
                let (acc, total) = (report.accounted(), report.total);
                assert!(total.total_reads() > 0, "{ctx}: the tiny pool forces page traffic");
                assert_eq!(
                    (acc.seq_pages, acc.rnd_pages, acc.idx_pages, acc.writes),
                    (total.seq_pages, total.rnd_pages, total.idx_pages, total.writes),
                    "{ctx}: page accounting must telescope exactly"
                );
                assert_eq!(
                    accounted_nanos(&report),
                    report.elapsed_nanos,
                    "{ctx}: time must telescope exactly"
                );
                let out = report.stages.last().expect("stages");
                assert_eq!(out.rows, rows as u64, "{ctx}: the last stage emits the result");
            }
            if !sql.contains("DISTINCT") {
                assert!(spilled(&db.engine_metrics()) > before, "{sql}: budget 64 must spill");
            }
        }
    }
}

/// An `INDSEL` pushes into the tail while it runs, batch by batch, like a
/// scan: what the tail's stages read and take (a projection that
/// dereferences, a sort, an aggregation) is theirs, the leaf walk and the
/// fetch are the node's, and together with the coordinator's share they are
/// the statement — exactly, for pages and for time.
#[test]
fn an_index_range_feeding_the_tail_telescopes() {
    // Extent pages enough for §8.1 to prefer the index on a 10-key range.
    let db = build_sized(4, 8192);
    db.execute("CREATE INDEX ON Vehicle(id)").unwrap();
    db.collect_stats().unwrap();
    for (sql, stages, rows) in [
        (
            "SELECT v.weight, COUNT(*) FROM Vehicle v WHERE v.id >= 1000 AND v.id < 1010 \
             GROUP BY v.weight ORDER BY v.weight",
            &["GROUP BY", "PROJECT", "ORDER BY"][..],
            10,
        ),
        (
            "SELECT v.id, v.drivetrain.transmission FROM Vehicle v WHERE v.id BETWEEN 2000 \
             AND 2009 ORDER BY v.weight DESC, v.id",
            &["ORDER BY", "PROJECT"][..],
            10,
        ),
    ] {
        let plan = db.explain(sql).unwrap();
        assert_eq!(
            plan.matches("INDSEL(Vehicle, v, BTREE, ").count(),
            1,
            "{plan}"
        );
        let stmt = select_stmt(sql);
        for parallelism in [1usize, 2, 4, 8] {
            let config = OptimizerConfig::paper().with_parallelism(parallelism);
            let config = OptimizerConfig {
                execution: config.execution.with_batch_size(3),
                ..config
            };
            let ex = Executor::new(db.catalog(), db.funcman()).with_config(config);
            let pq = ex.prepare(&stmt).unwrap().expect("every SELECT prepares");
            for execution in ["first", "repeated"] {
                let ctx = format!("{sql} ({execution}, parallelism {parallelism})");
                let report = ex.analyze_prepared(&pq).unwrap();
                assert_eq!(report.result.len(), rows, "{ctx}");
                let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
                assert_eq!(names, stages, "{ctx}");
                let node = &report.terms[0].nodes[0];
                assert!(node.est.label.starts_with("INDSEL("), "{ctx}");
                let actual = node.actual.expect("INDSEL records actuals");
                assert_eq!(actual.rows, 10, "{ctx}");
                assert!(
                    node.exclusive.idx_pages > 0,
                    "{ctx}: the walk reads index pages"
                );
                assert!(
                    node.exclusive.rnd_pages > 0,
                    "{ctx}: the fetch reads heap pages"
                );
                let (acc, total) = (report.accounted(), report.total);
                assert_eq!(
                    (acc.seq_pages, acc.rnd_pages, acc.idx_pages, acc.writes),
                    (
                        total.seq_pages,
                        total.rnd_pages,
                        total.idx_pages,
                        total.writes
                    ),
                    "{ctx}: page accounting must telescope exactly"
                );
                let staged: u64 = report.stages.iter().map(|s| s.nanos).sum();
                assert!(actual.nanos > 0 && staged > 0, "{ctx}");
                assert!(
                    actual.nanos + staged <= report.elapsed_nanos,
                    "{ctx}: node {} ns + stages {staged} ns exceed the statement's {} ns",
                    actual.nanos,
                    report.elapsed_nanos
                );
                assert_eq!(
                    accounted_nanos(&report),
                    report.elapsed_nanos,
                    "{ctx}: time must telescope exactly"
                );
            }
        }
    }
}

// ----------------------------------------------------------------------
// Estimate-vs-actual sanity on the vehicle dataset
// ----------------------------------------------------------------------

/// An indexed atomic selection touches no more data pages than the
/// c(n,m,r)-style bound predicts: fetching `r` of `n` records spread over
/// `m` pages costs at most `yao(n, m, r)` page reads (plus the B-tree
/// probe), and the row estimate is close.
#[test]
fn indexed_selection_stays_within_yao_bound() {
    // Large enough that the §8.1 index-count inequality picks the index
    // over a scan for a unique-key equality.
    let db = build_sized(64, 4096);
    db.execute("CREATE INDEX ON Vehicle(id)").unwrap();
    db.collect_stats().unwrap();
    let sql = "SELECT v.weight FROM Vehicle v WHERE v.id = 777";
    assert!(
        db.explain(sql).unwrap().contains("INDSEL("),
        "selection must be index-served:\n{}",
        db.explain(sql).unwrap()
    );
    let stmt = select_stmt(sql);
    let ex = Executor::new(db.catalog(), db.funcman()).with_config(OptimizerConfig::paper());
    let report = ex.analyze(&stmt).unwrap();
    let node = report.terms[0]
        .nodes
        .iter()
        .find(|n| n.est.label.starts_with("INDSEL("))
        .expect("INDSEL node in the report");
    let actual = node.actual.expect("INDSEL records actuals");
    assert_eq!(actual.rows, 1, "unique-key equality selects one vehicle");
    // Stats for the bound: fetching r of n records spread over nbpages.
    let stats = db.collect_stats().unwrap();
    let vinfo = stats.class("Vehicle").unwrap();
    let bound = yao(4096.0, vinfo.nbpages as f64, actual.rows as f64);
    let actual_pages = node.exclusive.total_reads() + node.exclusive.writes;
    // + btree height/leaf slack for the probe itself.
    assert!(
        (actual_pages as f64) <= bound.ceil() + 4.0,
        "INDSEL touched {actual_pages} pages, yao bound {bound:.2}"
    );
    assert!(
        mood_core::sql::misestimation(node.est.rows, actual.rows) <= 4.0,
        "row estimate {} vs actual {}",
        node.est.rows,
        actual.rows
    );
}

/// The chosen join strategy's measured pages stay within a small factor of
/// the §6 model's estimate (the model is a worst-case no-buffer-hit bound,
/// so actual ≤ factor × estimate).
#[test]
fn join_actual_pages_within_factor_of_estimate() {
    let db = build(4);
    let stmt = select_stmt(PATH_QUERY);
    let ex = Executor::new(db.catalog(), db.funcman()).with_config(OptimizerConfig::paper());
    let report = ex.analyze(&stmt).unwrap();
    let term = &report.terms[0];
    // Whole-plan: actual total pages vs the summed node estimates.
    let est_pages: f64 = term.nodes.iter().map(|n| n.est.pages).sum();
    let actual_pages = (report.total.total_reads() + report.total.writes) as f64;
    assert!(est_pages > 0.0, "model must estimate page work");
    assert!(
        actual_pages <= est_pages * 10.0 + 16.0,
        "actual {actual_pages} pages vs estimated {est_pages:.1}"
    );
    // Per-join: each join node's own (exclusive) pages against its estimate.
    let join_methods = [
        "FORWARD_TRAVERSAL(",
        "BACKWARD_TRAVERSAL(",
        "BINARY_JOIN_INDEX(",
        "HASH_PARTITION(",
    ];
    for n in term
        .nodes
        .iter()
        .filter(|n| join_methods.iter().any(|m| n.est.label.starts_with(m)))
    {
        let ex_pages = (n.exclusive.total_reads() + n.exclusive.writes) as f64;
        assert!(
            ex_pages <= n.est.pages * 10.0 + 16.0,
            "{}: actual {ex_pages} vs estimated {:.1}",
            n.est.label,
            n.est.pages
        );
    }
}

// ----------------------------------------------------------------------
// Tracing and the metrics registry
// ----------------------------------------------------------------------

#[test]
fn spans_cover_the_query_lifecycle() {
    let db = build(1024);
    let ring = RingBuffer::new(64);
    db.tracer().subscribe(ring.clone());
    db.execute(PATH_QUERY).unwrap();
    for name in ["parse", "bind", "optimize", "execute"] {
        assert!(
            !ring.named(name).is_empty(),
            "missing {name} span: {:?}",
            ring.records().iter().map(|r| &r.name).collect::<Vec<_>>()
        );
    }
    assert!(
        ring.records().iter().any(|r| r.name.starts_with("op:")),
        "per-operator spans expected"
    );
    let exec = &ring.named("execute")[0];
    assert_eq!(exec.rows, Some(16), "execute span carries the row count");
}

/// DML finds its targets through the SELECT pipeline, so it shows up in
/// the same places: lifecycle + per-operator spans, the registry's
/// operator totals, and `EXPLAIN` with the dictionary row that says
/// whether the index was used.
#[test]
fn dml_is_observable_like_select() {
    let db = build_sized(1024, 2048);
    db.execute("CREATE UNIQUE INDEX ON Vehicle(id)").unwrap();
    db.collect_stats().unwrap();
    let indsel_calls = |db: &Mood| {
        db.engine_metrics()
            .operators
            .iter()
            .find(|(k, _)| k == "INDSEL")
            .map_or(0, |(_, t)| t.invocations)
    };
    for (sql, op) in [
        (
            "UPDATE Vehicle v SET weight = 1 WHERE v.id = 77",
            "op:INDSEL",
        ),
        ("DELETE FROM Vehicle v WHERE v.id = 77", "op:INDSEL"),
        (
            "UPDATE Vehicle v SET weight = 2 WHERE v.weight = 700",
            "op:SELECT",
        ),
    ] {
        let plan = db.explain(sql).unwrap();
        assert!(plan.contains("-- ImmSelInfo"), "{plan}");
        let (access, node) = if op == "op:INDSEL" {
            ("| Indexed", "INDSEL(Vehicle, v, BTREE")
        } else {
            ("| Sequential", "SELECT(BIND(Vehicle, v)")
        };
        assert!(
            plan.contains(access) && plan.contains(node),
            "{sql}: {plan}"
        );

        let ring = RingBuffer::new(64);
        db.tracer().subscribe(ring.clone());
        let before = indsel_calls(&db);
        let Answer::Done { affected } = db.execute(sql).unwrap() else {
            panic!("{sql}: not a DML acknowledgement")
        };
        let names: Vec<String> = ring.records().iter().map(|r| r.name.clone()).collect();
        for name in ["parse", "bind", "optimize", "execute", op] {
            assert!(
                names.iter().any(|n| n == name),
                "{sql}: no {name} in {names:?}"
            );
        }
        assert_eq!(
            ring.named("execute")[0].rows,
            Some(affected as u64),
            "{sql}: execute span carries the target count"
        );
        assert_eq!(
            indsel_calls(&db) - before,
            u64::from(op == "op:INDSEL"),
            "{sql}: operator totals"
        );
    }
}

#[test]
fn show_metrics_exposes_engine_registry() {
    let db = build(1024);
    db.execute(PATH_QUERY).unwrap();
    let Answer::Rows(r) = db.execute("SHOW METRICS").unwrap() else {
        panic!("SHOW METRICS must return rows")
    };
    let metrics: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    for key in [
        "disk.rnd_pages",
        "buffer.hits",
        "buffer.wait_ns",
        "wal.appends",
        "wal.fsyncs",
        "lock.waits",
        "operator.BIND",
    ] {
        assert!(
            metrics.iter().any(|m| m.contains(key)),
            "missing {key} in {metrics:?}"
        );
    }
}

#[test]
fn operator_totals_accumulate_across_statements() {
    let db = build(1024);
    db.execute(PATH_QUERY).unwrap();
    let first = db.engine_metrics();
    db.execute(PATH_QUERY).unwrap();
    let second = db.engine_metrics();
    let calls = |m: &mood_core::EngineMetrics| {
        m.operators
            .iter()
            .find(|(k, _)| k == "BIND")
            .map(|(_, t)| t.invocations)
            .unwrap_or(0)
    };
    assert!(
        calls(&second) > calls(&first),
        "BIND totals must grow: {} then {}",
        calls(&first),
        calls(&second)
    );
}

/// A SELECT node's estimated selectivity is the product of the ImmSelInfo
/// rows its atoms are, whatever a string constant reads like:
/// `t.s = 'a AND b'` is one atom, alone and beside `t.id > 3`.
#[test]
fn a_select_estimate_is_the_product_of_its_imm_sel_rows() {
    use mood_core::optimizer::{estimate_plan_set, optimize};
    use mood_core::sql::binder::lower;
    let db = Mood::in_memory();
    db.execute("CREATE CLASS T TUPLE (id Integer, w Float, s String(16), b Boolean)")
        .unwrap();
    for i in 0..8 {
        let b = if i % 2 == 0 { "TRUE" } else { "FALSE" };
        db.execute(&format!("new T <{i}, {i}.5, 'x{i}', {b}>")).unwrap();
    }
    db.collect_stats().unwrap();
    let (stats, config) = (db.catalog().stats(), OptimizerConfig::paper());
    for sql in [
        "SELECT t.id FROM T t WHERE t.s = 'a AND b'",
        "SELECT t.id FROM T t WHERE t.s = 'a AND b' AND t.id > 3",
    ] {
        let lowered = lower(db.catalog(), &select_stmt(sql)).unwrap();
        let optimized = optimize(&lowered.spec, &stats, &config);
        let [term] = optimized.terms.as_slice() else { panic!("{sql}: one AND-term") };
        let rows: f64 = term.imm_sel_info.iter().map(|r| r.selectivity).product();
        let est = estimate_plan_set(&term.plan, &stats, &config, &[]);
        let select = est.iter().find(|e| e.label.starts_with("SELECT(")).expect("a SELECT");
        let sel = select.selectivity.expect("a SELECT's selectivity");
        assert!((sel - rows).abs() <= 1e-12 * rows, "{sql}: SELECT {sel} vs rows {rows}");
        assert_eq!(term.imm_sel_info.len(), sql.matches(" AND ").count(), "{sql}");
    }
}
