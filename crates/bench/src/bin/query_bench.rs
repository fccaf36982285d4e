//! `query_bench` — query hot-path throughput with the plan cache on vs
//! off, written to `BENCH_query.json`.
//!
//! ```sh
//! cargo run --release -p mood-bench --bin query_bench            # full
//! cargo run --release -p mood-bench --bin query_bench -- --smoke # CI
//! cargo run -p mood-bench --bin query_bench -- --out path.json
//! ```
//!
//! Six workloads over an indexed Section 3.1 Vehicle schema (compiled
//! whole-extent scans are moodbench's `analytic_scan`, not a row here: with
//! one evaluator there is no interpreted side to hold them against):
//!
//! * **point** — the same index-served point lookup repeated: execution is
//!   one B+-tree probe, so parse/bind/optimize dominate the cold path and
//!   the plan cache removes them entirely (gated at ≥2×);
//! * **path_point** — a point lookup conjoined with a path predicate
//!   (`drivetrain.engine.cylinders`): planning additionally enumerates
//!   path-expression strategies — the paper's expensive optimization —
//!   so caching pays off even more (gated at ≥2×);
//! * **range** — a two-sided 8-row interval on the indexed key, repeated:
//!   one `INDSEL` over the merged interval — one leaf-chain walk, a
//!   page-ordered fetch, objects streamed into the sort (report-only; the
//!   warm figures are the index access path's own cost). Eight rows because
//!   these vehicles are small (4 096 fit some 60 pages): §8.1 charges every
//!   hit a random read, so it prices the 48-row interval moodbench's
//!   dashboards use as a scan here — the run prints which plan it got;
//! * **path_scan** — a whole-extent pointer traversal into a fat target
//!   class over a latency-charged disk (see [`build_chase`]): cold is the
//!   unclustered layout, where the optimizer's clustering factor of ~0
//!   prices forward traversal out and the hash-partition join pays one
//!   single-page random read per distinct target page; warm is the same
//!   query after `CLUSTER ChaseTrain BY engine` rewrote the source heap
//!   in traversal order — the refreshed clustering factor flips the plan
//!   to forward traversal, whose batched probe prefetch coalesces the now
//!   consecutive target pages into readahead-window batches (plus the
//!   plan cache) — the adaptive-clustering headline number (gated at
//!   ≥2×);
//! * **param_point** — 251 point lookups that differ only in the operand
//!   of `=`: one statement shape, so after the first every text runs off
//!   the same prepared plan with its own key bound (gated at ≥1.5×);
//! * **adhoc** — 251 distinct statement *shapes* (a range bound is part of
//!   the shape), so the cache misses by design: measures that the overhead
//!   of a lookup miss plus prepare-and-insert stays small: warm must stay
//!   within 5% of cold (gated at ≥0.95×).
//!
//! Cold = plan cache disabled (the statement is parsed, bound, optimized
//! and its expressions compiled every time). Warm = enabled, after one
//! priming execution. Every workload
//! asserts warm and cold answers are identical before timings count, and
//! each measurement is the best of `REPS` repetitions to damp scheduler
//! noise.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mood_bench::LatencyDisk;
use mood_core::{Answer, Mood, OptimizerConfig, QueryResult, Value};
use mood_storage::{MemLog, StorageManager};

const REPS: usize = 3;

struct Sizes {
    vehicles: i32,
    iters: usize,
    smoke: bool,
}

struct Measure {
    cold_qps: f64,
    warm_qps: f64,
    speedup: f64,
    /// Per-iteration latency quantiles, microseconds.
    cold_p50_us: f64,
    cold_p99_us: f64,
    warm_p50_us: f64,
    warm_p99_us: f64,
}

/// Nearest-rank percentile over raw per-iteration latencies (sorts in
/// place). Matches the engine histogram's `ceil(q·n)` rank convention.
fn percentile_us(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64 / 1e3
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_query.json".to_string());
    let sizes = if smoke {
        Sizes {
            vehicles: 512,
            iters: 20,
            smoke: true,
        }
    } else {
        Sizes {
            vehicles: 4096,
            iters: 500,
            smoke: false,
        }
    };

    let db = build(sizes.vehicles);
    db.set_parallelism(1);
    // The adhoc workload cycles through 251 distinct shapes; the default
    // 128-entry cache would evict half of them every lap, so give the
    // warm runs room to hold the whole working set.
    db.set_plan_cache_capacity(512);
    // Per-workload warm/cold speedup floors (checked on full runs only;
    // 0.0 = report-only).
    // The lookups range over `Vehicle`'s own extent: an attribute index
    // covers exactly that, and under `FROM EVERY` §8.1 is not offered it.
    let repeated: [(&str, String, f64); 3] = [
        (
            "point",
            "SELECT v.id, v.weight FROM Vehicle v WHERE v.id = 17 ORDER BY v.id".into(),
            2.0,
        ),
        (
            "path_point",
            "SELECT v.id, v.weight FROM Vehicle v \
             WHERE v.drivetrain.engine.cylinders = 6 AND v.id = 17 ORDER BY v.id"
                .into(),
            2.0,
        ),
        (
            "range",
            "SELECT v.id, v.weight FROM Vehicle v WHERE v.id >= 100 AND v.id < 108 ORDER BY v.id"
                .into(),
            0.0,
        ),
    ];
    let range_plan = db.explain(&repeated[2].1).expect("range text plans");
    let access = if range_plan.contains("INDSEL(") { "INDSEL" } else { "scan" };
    println!("range is planned as: {access}");

    let mut results: Vec<(&str, f64, Measure)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    for (name, sql, gate) in &repeated {
        let mut best: Option<Measure> = None;
        for _ in 0..REPS {
            let m = measure(&db, sql, sizes.iters);
            if best.as_ref().is_none_or(|b| m.speedup > b.speedup) {
                best = Some(m);
            }
        }
        let best = best.expect("REPS > 0");
        // Full runs assert the real floor; smoke runs (tiny sizes, shared
        // CI runners) assert half of it — a noise-tolerant sanity gate
        // that still catches a broken warm path.
        let floor = if sizes.smoke { *gate * 0.5 } else { *gate };
        if best.speedup < floor {
            failures.push(format!("{name} {:.2}x < {floor}x", best.speedup));
        }
        results.push((name, *gate, best));
    }

    // path_scan: the adaptive-clustering workload. Cold runs the
    // traversal query over a deliberately scattered layout with planning
    // repeated; warm runs it after `CLUSTER` rewrote the source extent in
    // traversal order with the plan cache back on. Cold repetitions all happen first
    // (the reorganization is one-way — there is no "de-cluster").
    {
        let (db2, disk, chase_dir, sql) = build_chase(sizes.smoke);
        let sql = sql.as_str();
        db2.set_parallelism(1);
        let iters = sizes.iters.clamp(5, 30);

        db2.set_plan_cache_enabled(false);
        disk.arm();
        if std::env::var_os("CHASE_EXPLAIN").is_some() {
            if let Answer::Plan(t) = db2.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap() {
                println!("--- cold unclustered ---\n{t}");
            }
        }
        let cold_answer = run(&db2, sql);
        let mut best_cold: Option<(f64, Vec<u64>)> = None;
        for _ in 0..REPS {
            let mut lat = Vec::with_capacity(iters);
            let t0 = Instant::now();
            for _ in 0..iters {
                let it0 = Instant::now();
                assert_eq!(run(&db2, sql), cold_answer);
                lat.push(it0.elapsed().as_nanos() as u64);
            }
            let secs = t0.elapsed().as_secs_f64();
            if best_cold.as_ref().is_none_or(|(b, _)| secs < *b) {
                best_cold = Some((secs, lat));
            }
        }

        match db2.execute("CLUSTER ChaseTrain BY engine").unwrap() {
            Answer::Done { affected } => assert!(affected > 0, "CLUSTER moved nothing"),
            other => panic!("CLUSTER: {other:?}"),
        }
        // Refresh statistics so the optimizer sees the post-reorganization
        // clustering factor — what flips the plan to forward traversal.
        db2.collect_stats().unwrap();
        db2.set_plan_cache_enabled(true);
        if std::env::var_os("CHASE_EXPLAIN").is_some() {
            if let Answer::Plan(t) = db2.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap() {
                println!("--- warm clustered ---\n{t}");
            }
        }
        let warm_answer = run(&db2, sql);
        assert_eq!(warm_answer, cold_answer, "clustering changed the answer");
        let mut best_warm: Option<(f64, Vec<u64>)> = None;
        for _ in 0..REPS {
            let mut lat = Vec::with_capacity(iters);
            let t0 = Instant::now();
            for _ in 0..iters {
                let it0 = Instant::now();
                assert_eq!(run(&db2, sql), warm_answer);
                lat.push(it0.elapsed().as_nanos() as u64);
            }
            let secs = t0.elapsed().as_secs_f64();
            if best_warm.as_ref().is_none_or(|(b, _)| secs < *b) {
                best_warm = Some((secs, lat));
            }
        }

        if std::env::var_os("CHASE_DEBUG").is_some() {
            let (calls, pages) = disk.read_counts();
            let one = {
                let before = disk.read_counts();
                run(&db2, sql);
                let after = disk.read_counts();
                (after.0 - before.0, after.1 - before.1)
            };
            eprintln!(
                "chase disk: {calls} read calls, {pages} pages total; \
                 one warm query: {} calls, {} pages",
                one.0, one.1
            );
        }
        let (cold_secs, mut cold_lat) = best_cold.expect("REPS > 0");
        let (warm_secs, mut warm_lat) = best_warm.expect("REPS > 0");
        let m = Measure {
            cold_qps: iters as f64 / cold_secs,
            warm_qps: iters as f64 / warm_secs,
            speedup: cold_secs / warm_secs,
            cold_p50_us: percentile_us(&mut cold_lat, 0.50),
            cold_p99_us: percentile_us(&mut cold_lat, 0.99),
            warm_p50_us: percentile_us(&mut warm_lat, 0.50),
            warm_p99_us: percentile_us(&mut warm_lat, 0.99),
        };
        let gate = 2.0;
        let floor = if sizes.smoke { gate * 0.5 } else { gate };
        if m.speedup < floor {
            failures.push(format!("path_scan {:.2}x < {floor}x", m.speedup));
        }
        results.push(("path_scan", gate, m));
        drop(db2);
        let _ = std::fs::remove_dir_all(&chase_dir);
    }

    for (name, text, gate) in [
        ("param_point", param_point_text as fn(usize) -> String, 1.5),
        ("adhoc", adhoc_text, 0.95),
    ] {
        let mut best: Option<Measure> = None;
        for _ in 0..REPS {
            let m = measure_stream(&db, sizes.iters, text);
            if best.as_ref().is_none_or(|b| m.speedup > b.speedup) {
                best = Some(m);
            }
        }
        let best = best.expect("REPS > 0");
        let floor = if sizes.smoke { gate * 0.5 } else { gate };
        if best.speedup < floor {
            failures.push(format!("{name} {:.2}x < {floor}x", best.speedup));
        }
        results.push((name, gate, best));
    }

    // ------------------------------------------------------------------
    // Report.
    // ------------------------------------------------------------------
    let metrics = db.engine_metrics();
    let pc = &metrics.plan_cache;

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"query\",\n");
    json.push_str(&format!("  \"smoke\": {},\n", sizes.smoke));
    json.push_str(&format!("  \"vehicles\": {},\n", sizes.vehicles));
    json.push_str(&format!("  \"iterations\": {},\n", sizes.iters));
    json.push_str(&format!("  \"repetitions\": {REPS},\n"));
    json.push_str("  \"workloads\": {\n");
    for (wi, (name, gate, m)) in results.iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {{\"cold_qps\": {:.1}, \"warm_qps\": {:.1}, \
             \"speedup\": {:.2}, \"cold_p50_us\": {:.1}, \"cold_p99_us\": {:.1}, \
             \"warm_p50_us\": {:.1}, \"warm_p99_us\": {:.1}, \"gate\": {gate}}}{}\n",
            m.cold_qps,
            m.warm_qps,
            m.speedup,
            m.cold_p50_us,
            m.cold_p99_us,
            m.warm_p50_us,
            m.warm_p99_us,
            if wi + 1 < results.len() { "," } else { "" }
        ));
        let gate_note = if *gate > 0.0 {
            format!("[gated >= {gate}x]")
        } else {
            "[report-only]".into()
        };
        println!(
            "{name:>10}: cold {:8.0} q/s  warm {:8.0} q/s  speedup {:.2}x  \
             warm p50 {:.0}us p99 {:.0}us  {gate_note}",
            m.cold_qps, m.warm_qps, m.speedup, m.warm_p50_us, m.warm_p99_us,
        );
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"plan_cache\": {{\"capacity\": {}, \"hits\": {}, \"misses\": {}, \
         \"evictions\": {}, \"invalidations\": {}}},\n",
        db.plan_cache_capacity(),
        pc.hits,
        pc.misses,
        pc.evictions,
        pc.invalidations
    ));
    json.push_str(&format!(
        "  \"batch\": {{\"rows\": {}, \"count\": {}}},\n",
        metrics.batch.rows, metrics.batch.count
    ));
    json.push_str(&format!(
        "  \"compile_ms\": {:.3}\n",
        metrics.compile_ns as f64 / 1e6
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).unwrap();
    // Full engine telemetry (histograms, wait events, per-statement stats
    // feed off the same run) as a machine-readable artifact.
    let telemetry_path = args
        .iter()
        .position(|a| a == "--telemetry")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "telemetry.json".to_string());
    std::fs::write(&telemetry_path, metrics.to_json()).unwrap();
    println!("wrote {telemetry_path}");
    println!(
        "plan cache: {} hits, {} misses, {} evictions, {} invalidations; compile {:.3} ms",
        pc.hits,
        pc.misses,
        pc.evictions,
        pc.invalidations,
        metrics.compile_ns as f64 / 1e6
    );
    println!("wrote {out_path}");
    if !failures.is_empty() {
        println!(
            "WARNING: warm/cold speedup below the gate on: {}",
            failures.join(", ")
        );
        std::process::exit(1);
    }
}

/// Time one repeated-identical workload cold then warm, asserting the
/// answers agree.
fn measure(db: &Mood, sql: &str, iters: usize) -> Measure {
    db.set_plan_cache_enabled(false);
    let cold_answer = run(db, sql);
    let mut cold_lat = Vec::with_capacity(iters);
    let t0 = Instant::now();
    for _ in 0..iters {
        let it0 = Instant::now();
        assert_eq!(run(db, sql), cold_answer);
        cold_lat.push(it0.elapsed().as_nanos() as u64);
    }
    let cold_secs = t0.elapsed().as_secs_f64();

    db.set_plan_cache_enabled(true);
    let warm_answer = run(db, sql);
    assert_eq!(warm_answer, cold_answer, "warm != cold on {sql}");
    let mut warm_lat = Vec::with_capacity(iters);
    let t0 = Instant::now();
    for _ in 0..iters {
        let it0 = Instant::now();
        assert_eq!(run(db, sql), warm_answer);
        warm_lat.push(it0.elapsed().as_nanos() as u64);
    }
    let warm_secs = t0.elapsed().as_secs_f64();

    Measure {
        cold_qps: iters as f64 / cold_secs,
        warm_qps: iters as f64 / warm_secs,
        speedup: cold_secs / warm_secs,
        cold_p50_us: percentile_us(&mut cold_lat, 0.50),
        cold_p99_us: percentile_us(&mut cold_lat, 0.99),
        warm_p50_us: percentile_us(&mut warm_lat, 0.50),
        warm_p99_us: percentile_us(&mut warm_lat, 0.99),
    }
}

/// The param_point stream: one shape, 251 keys — every text after the
/// first runs off the first's plan.
fn param_point_text(i: usize) -> String {
    format!(
        "SELECT v.id FROM Vehicle v WHERE v.id = {} ORDER BY v.id",
        i % 251
    )
}

/// The adhoc stream: 251 shapes — the always-true weight bound is not an
/// `=` operand, so it stays in the key and the cache cannot help.
fn adhoc_text(i: usize) -> String {
    format!(
        "SELECT v.id FROM Vehicle v WHERE v.id = {} AND v.weight < {} ORDER BY v.id",
        i % 251,
        2000 + i % 251
    )
}

/// Time a stream of differing statements cold then warm (from an empty
/// cache), asserting the answers agree text by text.
fn measure_stream(db: &Mood, iters: usize, text: fn(usize) -> String) -> Measure {
    db.set_plan_cache_enabled(false);
    let mut answers = Vec::with_capacity(iters);
    let mut cold_lat = Vec::with_capacity(iters);
    let t0 = Instant::now();
    for i in 0..iters {
        let it0 = Instant::now();
        answers.push(run(db, &text(i)));
        cold_lat.push(it0.elapsed().as_nanos() as u64);
    }
    let cold_secs = t0.elapsed().as_secs_f64();

    db.set_plan_cache_enabled(true);
    db.clear_plan_cache();
    let mut warm_lat = Vec::with_capacity(iters);
    let t0 = Instant::now();
    for (i, cold_answer) in answers.iter().enumerate() {
        let it0 = Instant::now();
        let answer = run(db, &text(i));
        warm_lat.push(it0.elapsed().as_nanos() as u64);
        assert_eq!(&answer, cold_answer, "warm != cold on {}", text(i));
    }
    let warm_secs = t0.elapsed().as_secs_f64();

    Measure {
        cold_qps: iters as f64 / cold_secs,
        warm_qps: iters as f64 / warm_secs,
        speedup: cold_secs / warm_secs,
        cold_p50_us: percentile_us(&mut cold_lat, 0.50),
        cold_p99_us: percentile_us(&mut cold_lat, 0.99),
        warm_p50_us: percentile_us(&mut warm_lat, 0.50),
        warm_p99_us: percentile_us(&mut warm_lat, 0.99),
    }
}

fn run(db: &Mood, sql: &str) -> QueryResult {
    match db.execute(sql).unwrap() {
        Answer::Rows(r) => r,
        other => panic!("not rows: {other:?}"),
    }
}

/// The Section 3.1 Vehicle schema, indexed on `id` and the
/// `drivetrain.engine.cylinders` path so repeated lookups are index-served
/// and plan construction — what the cache removes — dominates the cold path.
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
    db.execute("CREATE INDEX ON Vehicle(id)").unwrap();
    db.execute("CREATE INDEX ON Vehicle(drivetrain.engine.cylinders)")
        .unwrap();
    db.collect_stats().unwrap();
    db
}

/// The path_scan database: a full traversal from a thin source class into
/// a fat target extent over a latency-charged disk (the SEQCOST/RNDCOST
/// regime the paper's cost model assumes).
///
/// `ChaseTrain` (thin: a sequence number and a reference) is populated in
/// prime-stride permuted order — maximally disordered relative to the
/// traversal — while its targets, the fat padded `ChaseEngine` extent,
/// are laid out densely in reference order. The engine extent is several
/// times the buffer pool, so every execution re-reads it.
///
/// The measured query chases every train's reference:
///
/// * unclustered, the optimizer rightly refuses forward traversal
///   (cf ≈ 0 makes its chase term the worst case) and runs the
///   hash-partition join — one *single-page* random read per distinct
///   target page, hundreds of positioning delays per execution;
/// * after `CLUSTER ChaseTrain BY engine` rewrites the source heap in
///   traversal order, the measured clustering factor flips the plan to
///   forward traversal, whose batched probe prefetch coalesces the now
///   consecutive target pages into readahead-window disk batches — one
///   positioning delay per window instead of per page.
///
/// Returns the database, the disk (so the caller can arm the latency
/// charge after construction), the on-disk directory to clean up, and
/// the query.
fn build_chase(smoke: bool) -> (Mood, Arc<LatencyDisk>, std::path::PathBuf, String) {
    // The source count stays high in both profiles: backward traversal's
    // CPU term (k_c · k_d · cpucost) is what prices the sequential
    // target-extent sweep out of the cold plan, and it needs |C| ≳ 2500
    // to exceed the hash-partition cost. Smoke shrinks the fat extent
    // and the pool instead.
    let (n_sources, n_targets, pool) = if smoke {
        (4096usize, 1536usize, 128usize)
    } else {
        (4096, 4096, 160)
    };
    let dir = std::env::temp_dir().join(format!("mood-bench-chase-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let disk = Arc::new(LatencyDisk::new(
        Duration::from_micros(if smoke { 30 } else { 60 }),
        Duration::from_micros(5),
        false,
    ));
    let sm =
        Arc::new(StorageManager::with_parts(disk.clone(), Box::new(MemLog::new()), pool).unwrap());
    let db = Mood::open_with_storage(sm, &dir).unwrap();
    db.set_optimizer_config(OptimizerConfig::paper());
    db.execute(
        "CREATE CLASS ChaseEngine TUPLE (size Integer, cylinders Integer, pad String(400))",
    )
    .unwrap();
    db.execute("CREATE CLASS ChaseTrain TUPLE (seq Integer, engine REFERENCE (ChaseEngine))")
        .unwrap();
    let catalog = db.catalog();
    // Fat targets (~9 per page) inserted densely: target pages are
    // consecutive in reference order, which is what the clustered
    // traversal's prefetch coalesces.
    let pad = "x".repeat(384);
    let mut engines = Vec::with_capacity(n_targets);
    for i in 0..n_targets as i32 {
        engines.push(
            catalog
                .new_object(
                    "ChaseEngine",
                    Value::tuple(vec![
                        ("size", Value::Integer(1000 + i)),
                        ("cylinders", Value::Integer(2 + (i % 4) * 2)),
                        ("pad", Value::string(&pad)),
                    ]),
                )
                .unwrap(),
        );
    }
    // Insert sources in permuted order (stride 389 is coprime to the
    // power-of-two count, so this visits every seq exactly once): the
    // heap is maximally disordered relative to the traversal. `seq`
    // ranges over sources monotonically mapped onto targets, so the
    // post-`CLUSTER` heap chases the target extent front to back.
    for i in 0..n_sources {
        let seq = (i * 389) % n_sources;
        catalog
            .new_object(
                "ChaseTrain",
                Value::tuple(vec![
                    ("seq", Value::Integer(seq as i32)),
                    ("engine", Value::Ref(engines[seq * n_targets / n_sources])),
                ]),
            )
            .unwrap();
    }
    db.collect_stats().unwrap();
    db.checkpoint().unwrap();
    let sql = "SELECT d.seq FROM EVERY ChaseTrain d \
               WHERE d.engine.cylinders = 4 ORDER BY d.seq"
        .to_string();
    (db, disk, dir, sql)
}
