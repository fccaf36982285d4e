//! Adaptive object clustering end-to-end: a scattered reference layout,
//! the page cost of chasing it, `CLUSTER … BY …` rewriting the heap in
//! traversal order, the clustering-aware cost estimates (`cf=` in
//! EXPLAIN ANALYZE), and `CLUSTER` without `BY` picking the edge
//! `collect_stats` measured as the most disordered.
//!
//! ```sh
//! cargo run -p mood-core --example clustering
//! ```

use mood_core::{Answer, Mood, OptimizerConfig, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small buffer pool, so chasing scattered references does real
    // page I/O — the before/after page counts have something to show.
    let db = Mood::in_memory_with_pool(32);
    db.set_optimizer_config(OptimizerConfig::paper());

    db.execute(
        "CREATE CLASS Engine TUPLE (size Integer, cylinders Integer, spec String(256))",
    )?;
    db.execute(
        "CREATE CLASS DriveTrain TUPLE (engine REFERENCE (Engine), \
         transmission String(256))",
    )?;

    // Engines fill their extent in insertion order; drivetrains then
    // reference them through a multiplicative stride, so extent order and
    // traversal order disagree — every forward chase lands on a far page.
    // The padding strings spread both extents over many pages.
    let catalog = db.catalog();
    let pad = "x".repeat(200);
    let n_engines = 4096i32;
    let n = 512i32;
    let mut engines = Vec::new();
    for i in 0..n_engines {
        engines.push(catalog.new_object(
            "Engine",
            Value::tuple(vec![
                ("size", Value::Integer(1000 + i)),
                ("cylinders", Value::Integer(2 + (i % 4) * 2)),
                ("spec", Value::string(&pad)),
            ]),
        )?);
    }
    for i in 0..n {
        let scattered = (i as i64 * 211 % n_engines as i64) as usize;
        catalog.new_object(
            "DriveTrain",
            Value::tuple(vec![
                ("engine", Value::Ref(engines[scattered])),
                ("transmission", Value::string(&pad)),
            ]),
        )?;
    }
    db.collect_stats()?;

    let chase = "SELECT d.engine.size FROM DriveTrain d WHERE d.engine.cylinders = 4";

    // ------------------------------------------------------------------
    // Before: the chase pays a random page per reference (cf absent —
    // the unclustered worst case is the paper's assumption).
    // ------------------------------------------------------------------
    println!("== EXPLAIN ANALYZE before clustering ==");
    print_plan_tail(&db, chase)?;

    // ------------------------------------------------------------------
    // Reorganize: rewrite DriveTrain's heap in engine-OID order inside a
    // transaction (OID map and indexes follow atomically).
    // ------------------------------------------------------------------
    match db.execute("CLUSTER DriveTrain BY engine")? {
        Answer::Done { affected } => println!("\nCLUSTER moved {affected} objects"),
        other => println!("\nunexpected answer: {other:?}"),
    }

    // ------------------------------------------------------------------
    // After: statistics carry the measured clustering factor; the join
    // estimate blends toward sequential cost and prints `cf=`.
    // ------------------------------------------------------------------
    println!("\n== EXPLAIN ANALYZE after clustering ==");
    print_plan_tail(&db, chase)?;

    println!("\n== cluster metrics ==");
    for (k, v) in db.engine_metrics().rows() {
        if k.starts_with("cluster.") || k.starts_with("agg.") {
            println!("{k} = {v}");
        }
    }

    // ------------------------------------------------------------------
    // A second scattered class, clustered without naming the edge:
    // `collect_stats` measures every reference edge's clustering factor,
    // and `CLUSTER WorkOrder` reorganizes the one with the lowest.
    // ------------------------------------------------------------------
    db.execute(
        "CREATE CLASS WorkOrder TUPLE (seq Integer, engine REFERENCE (Engine), \
         note String(256))",
    )?;
    let catalog = db.catalog();
    for i in 0..n {
        let scattered = (i as i64 * 389 % n_engines as i64) as usize;
        catalog.new_object(
            "WorkOrder",
            Value::tuple(vec![
                ("seq", Value::Integer(i)),
                ("engine", Value::Ref(engines[scattered])),
                ("note", Value::string(&pad)),
            ]),
        )?;
    }
    let cf = db.collect_stats()?.clustering("WorkOrder", "engine");
    println!("\nWorkOrder.engine measured cf = {cf:.3}");
    db.execute("CLUSTER WorkOrder")?;
    let cf = db.catalog().stats().clustering("WorkOrder", "engine");
    println!("CLUSTER WorkOrder reorganized WorkOrder.engine: cf = {cf:.3}");
    // A source-selective path predicate forward-traverses the reference
    // (few restricted sources against a big target extent).
    for _ in 0..8 {
        db.execute(
            "SELECT w.seq FROM WorkOrder w WHERE w.seq < 8 AND w.engine.cylinders = 4",
        )?;
    }
    let passes = db
        .engine_metrics()
        .rows()
        .into_iter()
        .find(|(k, _)| k == "cluster.passes")
        .map(|(_, v)| v)
        .unwrap_or_default();
    println!("cluster.passes = {passes}");
    Ok(())
}

/// Run EXPLAIN ANALYZE and print the join/estimate/total lines.
fn print_plan_tail(db: &Mood, sql: &str) -> Result<(), Box<dyn std::error::Error>> {
    let Answer::Plan(p) = db.execute(&format!("EXPLAIN ANALYZE {sql}"))? else {
        return Err("expected a plan".into());
    };
    for line in p.lines().filter(|l| {
        l.contains("TRAVERSAL") || l.contains("PARTITION(") || l.trim_start().starts_with("est:")
            || l.starts_with("-- total")
    }) {
        println!("{line}");
    }
    Ok(())
}
