//! Engine telemetry: latency histograms, wait-event accounting,
//! per-statement aggregates, the slow-query log, and the machine-readable
//! metric exports.
//!
//! The central invariants:
//!
//! * **Bucket telescoping** — for every histogram family, the per-bucket
//!   counts sum exactly to the snapshot's observation count, at every
//!   parallelism level (snapshots load each bucket once and derive the
//!   count from the loaded values, so a torn read can never miscount).
//! * **Wait telescoping** — blocked time decomposed by `SHOW WAITS` is
//!   bounded by the statements' wall-clock time multiplied by the number
//!   of threads that can block concurrently (the coordinator plus its
//!   workers): waits happen *inside* statement windows, never outside.

use std::time::Duration;

use mood_core::{Answer, Mood, OptimizerConfig, Value};

/// The Section 3.1 Vehicle schema with a deterministic population; a small
/// buffer pool forces real page traffic so the telemetry is non-trivial.
fn build(pool_frames: usize, n_vehicles: i32) -> Mood {
    let db = Mood::in_memory_with_pool(pool_frames);
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

const PATH_QUERY: &str =
    "SELECT v.id FROM EVERY Vehicle v WHERE v.drivetrain.engine.cylinders = 2";

// ----------------------------------------------------------------------
// Histogram + wait-event telescoping under parallelism
// ----------------------------------------------------------------------

/// At parallelism 1, 2, 4 and 8: every histogram family's bucket counts
/// sum exactly to its observation count, and the wait-event decomposition
/// stays within the thread-count × statement-wall-clock envelope.
#[test]
fn telemetry_telescopes_across_parallelism() {
    for parallelism in [1usize, 2, 4, 8] {
        // Fresh engine per level: statement stats and wait counters are
        // lifetime totals, so each level gets its own baseline.
        let db = build(8, 512);
        db.set_optimizer_config(OptimizerConfig::paper().with_parallelism(parallelism));
        let wait_base = db.engine_metrics().total_wait_ns();

        for round in 0..3 {
            for cyl in [2, 4, 6, 8] {
                db.execute(&format!(
                    "SELECT v.id FROM EVERY Vehicle v \
                     WHERE v.drivetrain.engine.cylinders = {cyl}"
                ))
                .unwrap();
            }
            let _ = round;
        }

        let snap = db.engine_metrics();

        // Bucket counts telescope to the observation count, per family.
        assert!(!snap.histograms.is_empty(), "histogram families expected");
        for (family, h) in &snap.histograms {
            assert_eq!(
                h.count,
                h.buckets.iter().sum::<u64>(),
                "bucket sum != count for {family} at parallelism {parallelism}"
            );
            assert!(
                h.max >= h.p99() || h.count == 0,
                "max below p99 for {family} at parallelism {parallelism}"
            );
        }

        // The statement family saw every query; the disk-read family saw
        // the page traffic the tiny pool forces.
        let stmt_hist = snap.histogram("statement").expect("statement family");
        assert!(
            stmt_hist.count >= 12,
            "statement histogram count {} at parallelism {parallelism}",
            stmt_hist.count
        );
        assert!(stmt_hist.p99() >= stmt_hist.p50(), "quantiles are monotone");
        assert!(
            snap.histogram("disk_read").expect("disk_read family").count > 0,
            "tiny pool must force timed disk reads"
        );

        // Wait telescoping: blocked time accrues only inside statement
        // windows, and at most coordinator + `parallelism` workers can
        // block concurrently.
        let wait_delta = snap.total_wait_ns() - wait_base;
        let stmt_wall: u64 = db.statement_stats().iter().map(|s| s.total_ns).sum();
        assert!(stmt_wall > 0, "statements must record wall time");
        let bound = stmt_wall.saturating_mul(parallelism as u64 + 1);
        assert!(
            wait_delta <= bound,
            "wait {wait_delta}ns exceeds {bound}ns \
             (wall {stmt_wall}ns × {}) at parallelism {parallelism}",
            parallelism + 1
        );
    }
}

// ----------------------------------------------------------------------
// SHOW STATEMENTS aggregation (cached + uncached executions)
// ----------------------------------------------------------------------

#[test]
fn show_statements_aggregates_cached_and_uncached_runs() {
    let db = build(64, 128);
    for _ in 0..4 {
        db.execute(PATH_QUERY).unwrap();
    }
    // Statements aggregate by shape: other `=` operands land in the same
    // row (pg_stat_statements behaviour), other shapes in their own.
    for cylinders in [4, 6, 8] {
        db.execute(&PATH_QUERY.replace("= 2", &format!("= {cylinders}")))
            .unwrap();
    }

    let Answer::Rows(r) = db.execute("SHOW STATEMENTS").unwrap() else {
        panic!("SHOW STATEMENTS must return rows")
    };
    assert_eq!(
        r.columns,
        vec![
            "statement",
            "calls",
            "total_ns",
            "min_ns",
            "max_ns",
            "p99_ns",
            "rows",
            "pages",
            "cache_hits"
        ]
    );
    let row = r
        .rows
        .iter()
        .find(|row| row[0].to_string().contains("cylinders = $1"))
        .expect("path query row in SHOW STATEMENTS");
    assert!(
        !r.rows
            .iter()
            .any(|row| row[0].to_string().contains("cylinders = 2")),
        "values are not part of the key"
    );
    let cell = |ix: usize| match &row[ix] {
        Value::LongInteger(n) => *n,
        other => panic!("numeric cell expected, got {other:?}"),
    };
    assert_eq!(cell(1), 7, "calls");
    assert!(cell(2) > 0, "total_ns");
    assert!(cell(3) <= cell(4), "min <= max");
    assert!(cell(5) > 0, "p99_ns");
    assert_eq!(
        cell(6),
        7 * 32,
        "rows: a quarter of 128 vehicles per cylinder count"
    );
    // First run prepares, every later run hits the session plan cache.
    assert_eq!(cell(8), 6, "cache_hits");

    // Introspection does not observe itself.
    assert!(
        !r.rows.iter().any(|row| {
            let sql = row[0].to_string().to_ascii_lowercase();
            sql.starts_with("show ")
        }),
        "SHOW statements must not be recorded"
    );

    // The facade exposes the same aggregates programmatically.
    let stats = db.statement_stats();
    let stat = stats
        .iter()
        .find(|s| s.sql.contains("cylinders = $1"))
        .expect("facade stat");
    assert_eq!(stat.calls, 7);
    assert_eq!(stat.p99_ns as i64, cell(5));
}

#[test]
fn show_waits_decomposes_blocked_time() {
    let db = build(4, 256);
    for _ in 0..3 {
        db.execute(PATH_QUERY).unwrap();
    }
    let Answer::Rows(r) = db.execute("SHOW WAITS").unwrap() else {
        panic!("SHOW WAITS must return rows")
    };
    assert_eq!(r.columns, vec!["event", "count", "time_ns"]);
    // `Value::String` renders quoted; strip for comparison.
    let events: Vec<String> = r
        .rows
        .iter()
        .map(|row| row[0].to_string().trim_matches('\'').to_string())
        .collect();
    for event in [
        "buffer_shard",
        "buffer_checkout",
        "lock_queue",
        "disk_retry_backoff",
        "wal_fsync",
    ] {
        assert!(events.contains(&event.to_string()), "missing {event} in {events:?}");
    }
}

// ----------------------------------------------------------------------
// Slow-query log
// ----------------------------------------------------------------------

#[test]
fn slow_query_log_captures_over_threshold_statements() {
    let db = build(64, 128);
    // No threshold: nothing is captured.
    db.execute(PATH_QUERY).unwrap();
    assert!(db.slow_queries().is_empty(), "capture off by default");

    // Zero threshold: everything is captured, SELECTs with a plan tree.
    db.set_slow_query_threshold(Some(Duration::ZERO));
    db.execute(PATH_QUERY).unwrap();
    let slow = db.slow_queries();
    assert_eq!(slow.len(), 1);
    let q = &slow[0];
    assert!(q.sql.contains("cylinders = 2"));
    assert!(q.elapsed_ns > 0);
    assert_eq!(q.rows, 32, "a quarter of 128 vehicles");
    let plan = q.plan.as_ref().expect("SELECT capture carries a plan");
    assert!(plan.contains("act: rows="), "EXPLAIN ANALYZE tree:\n{plan}");

    // Disabling stops further captures.
    db.set_slow_query_threshold(None);
    db.execute(PATH_QUERY).unwrap();
    assert_eq!(db.slow_queries().len(), 1, "threshold off again");
}

// ----------------------------------------------------------------------
// Export round-trip: rows() ↔ to_json() ↔ to_prometheus()
// ----------------------------------------------------------------------

/// Pull the value of `"key":<value>` out of a JSON object string.
fn json_value(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest
        .char_indices()
        .find(|(i, c)| {
            if rest.starts_with('"') {
                *c == '"' && *i > 0
            } else {
                *c == ',' || *c == '}'
            }
        })
        .map(|(i, _)| if rest.starts_with('"') { i + 1 } else { i })?;
    Some(rest[..end].trim_matches('"').to_string())
}

#[test]
fn exports_round_trip_every_counter() {
    let db = build(8, 256);
    db.execute(PATH_QUERY).unwrap();
    db.execute(PATH_QUERY).unwrap();
    let snap = db.engine_metrics();
    let json = snap.to_json();
    let prom = snap.to_prometheus();

    for (key, value) in snap.rows() {
        if let Some(rest) = key.strip_prefix("wait.") {
            // Structured in both exports: the waits array / labelled series.
            let w = snap.wait(rest).unwrap();
            assert!(
                json.contains(&format!(
                    "{{\"event\":\"{rest}\",\"count\":{},\"time_ns\":{}}}",
                    w.count, w.total_ns
                )),
                "wait {rest} missing from JSON"
            );
            assert!(
                prom.contains(&format!("mood_wait_count{{event=\"{rest}\"}} {}\n", w.count)),
                "wait {rest} missing from Prometheus"
            );
        } else if let Some(rest) = key.strip_prefix("hist.") {
            let h = snap.histogram(rest).unwrap();
            assert!(
                json.contains(&format!("\"family\":\"{rest}\",\"count\":{}", h.count)),
                "histogram {rest} missing from JSON"
            );
            assert!(
                prom.contains(&format!(
                    "mood_latency_ns_count{{family=\"{rest}\"}} {}\n",
                    h.count
                )),
                "histogram {rest} missing from Prometheus"
            );
            assert!(
                prom.contains(&format!(
                    "mood_latency_ns{{family=\"{rest}\",quantile=\"0.99\"}} {}\n",
                    h.p99()
                )),
                "p99 for {rest} missing from Prometheus"
            );
        } else if let Some(rest) = key.strip_prefix("cluster.factor.") {
            // Per-edge clustering-factor gauges export as the
            // `cluster_factors` array / a labelled Prometheus gauge (the
            // rendered row rounds to 4 digits, so only presence is keyed).
            assert!(
                json.contains(&format!("{{\"class\":\"{rest}\",\"factor\":")),
                "clustering factor {rest} missing from JSON"
            );
            assert!(
                prom.contains(&format!("mood_cluster_factor{{class=\"{rest}\"}} ")),
                "clustering factor {rest} missing from Prometheus"
            );
        } else if let Some(rest) = key.strip_prefix("operator.") {
            assert!(
                json.contains(&format!("\"name\":\"{rest}\"")),
                "operator {rest} missing from JSON"
            );
            assert!(
                prom.contains(&format!("mood_operator_calls{{op=\"{rest}\"}}")),
                "operator {rest} missing from Prometheus"
            );
        } else {
            // Scalar counters round-trip by key and value.
            let got = json_value(&json, &key)
                .unwrap_or_else(|| panic!("counter {key} missing from JSON"));
            assert_eq!(got, value, "JSON value drift for {key}");
            let prom_name = format!("mood_{}", key.replace('.', "_"));
            let prom_value = if key == "storage.degraded" {
                u64::from(value != "no").to_string()
            } else {
                value.clone()
            };
            assert!(
                prom.contains(&format!("{prom_name} {prom_value}\n")),
                "{prom_name} {prom_value} missing from Prometheus"
            );
            assert!(
                prom.contains(&format!("# TYPE {prom_name} ")),
                "{prom_name} lacks a # TYPE line"
            );
        }
    }
}

#[test]
fn show_metrics_format_selects_the_export() {
    let db = build(64, 64);
    db.execute(PATH_QUERY).unwrap();

    let Answer::Plan(json) = db.execute("SHOW METRICS FORMAT 'json'").unwrap() else {
        panic!("json export must come back as text")
    };
    assert!(json.starts_with("{\"counters\":{"), "{json}");
    assert!(json.contains("\"histograms\":["), "{json}");
    assert!(json.ends_with("]}"), "balanced tail: {json}");

    let Answer::Plan(prom) = db.execute("SHOW METRICS FORMAT 'prom'").unwrap() else {
        panic!("prom export must come back as text")
    };
    assert!(prom.contains("# TYPE mood_disk_seq_pages counter"), "{prom}");
    assert!(prom.contains("mood_latency_ns{family=\"statement\",quantile=\"0.5\"}"));

    // FORMAT 'table' and bare SHOW METRICS agree on the row keys.
    let Answer::Rows(bare) = db.execute("SHOW METRICS").unwrap() else {
        panic!()
    };
    let Answer::Rows(table) = db.execute("SHOW METRICS FORMAT 'table'").unwrap() else {
        panic!()
    };
    let keys = |r: &mood_core::QueryResult| -> Vec<String> {
        r.rows.iter().map(|row| row[0].to_string()).collect()
    };
    assert_eq!(keys(&bare), keys(&table));
}

// ----------------------------------------------------------------------
// Seed counters stay locked in (PR 7 satellite)
// ----------------------------------------------------------------------

#[test]
fn hit_ratio_and_fault_counters_are_always_present() {
    let db = Mood::in_memory();
    let rows = db.engine_metrics().rows();
    let get = |key: &str| {
        rows.iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("missing {key}"))
            .1
            .clone()
    };
    // Untouched pool: ratio is a clean 0, not NaN.
    assert_eq!(get("buffer.hit_ratio"), "0.0000");
    assert_eq!(get("page.repairs"), "0");
    assert_eq!(get("io.retries"), "0");
    assert_eq!(get("io.gave_up"), "0");
    assert_eq!(get("storage.degraded"), "no");
}
