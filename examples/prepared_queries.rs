//! The query hot path: the session plan cache and compiled predicate
//! evaluation, on the paper's Vehicle schema (Section 3.1).
//!
//! A statement *shape* is parsed, bound and optimized exactly once: the
//! literal operands of `=` are parameters of the plan (§8's selectivity
//! for `A = c` is `1/dist` whatever `c` is), so `… WHERE v.id = 42` and
//! `… WHERE v.id = 43` run off one cached plan, each with its own key
//! bound, and its predicates run as compiled register programs (the
//! Function Manager's compile-once discipline from Section 2, applied to
//! queries). Schema or statistics changes bump the catalog epoch and
//! invalidate stale plans automatically.
//!
//! ```sh
//! cargo run -p mood-core --example prepared_queries
//! ```

use std::time::Instant;

use mood_core::{Mood, OptimizerConfig, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Mood::in_memory();
    db.set_optimizer_config(OptimizerConfig::paper());

    for ddl in [
        "CREATE CLASS VehicleEngine TUPLE (size Integer, cylinders Integer)",
        "CREATE CLASS VehicleDriveTrain TUPLE (engine REFERENCE (VehicleEngine), \
         transmission String(32))",
        "CREATE CLASS Vehicle TUPLE (id Integer, weight Integer, \
         drivetrain REFERENCE (VehicleDriveTrain))",
    ] {
        db.execute(ddl)?;
    }

    // A deterministic population: engines cycle through 2/4/6/8 cylinders.
    let catalog = db.catalog();
    let mut trains = Vec::new();
    for i in 0..16i32 {
        let engine = catalog.new_object(
            "VehicleEngine",
            Value::tuple(vec![
                ("size", Value::Integer(1000 + i * 100)),
                ("cylinders", Value::Integer(2 + (i % 4) * 2)),
            ]),
        )?;
        trains.push(catalog.new_object(
            "VehicleDriveTrain",
            Value::tuple(vec![
                ("engine", Value::Ref(engine)),
                (
                    "transmission",
                    Value::string(if i % 2 == 0 { "AUTOMATIC" } else { "MANUAL" }),
                ),
            ]),
        )?);
    }
    for i in 0..4096i32 {
        catalog.new_object(
            "Vehicle",
            Value::tuple(vec![
                ("id", Value::Integer(i)),
                ("weight", Value::Integer(700 + (i % 15) * 80)),
                ("drivetrain", Value::Ref(trains[i as usize % trains.len()])),
            ]),
        )?;
    }
    db.execute("CREATE INDEX ON Vehicle(id)")?;
    db.collect_stats()?;

    let lookup =
        |id: i32| format!("SELECT v.id, v.weight FROM Vehicle v WHERE v.id = {id} ORDER BY v.id");

    // First execution: a cache miss — the plan is built for the shape
    // `… WHERE v.id = $1` and cached. EXPLAIN ANALYZE reports the fresh
    // plan with its compile cost and what `$1` was bound to.
    println!("== first execution (fresh plan) ==");
    println!("{}", db.explain_analyze(&lookup(42))?);

    // Another key, same shape: a hit — no parse, no bind, no optimize,
    // just `$1=43` bound to the plan prepared above.
    println!("== another key (cached plan) ==");
    println!("{}", db.explain_analyze(&lookup(43))?);

    // DDL bumps the catalog epoch: the cached plan is stale and the next
    // lookup re-prepares (an invalidation + a miss in the counters).
    db.execute("CREATE CLASS Depot TUPLE (name String(16))")?;
    println!("== after DDL (epoch bumped, plan re-prepared) ==");
    println!("{}", db.explain_analyze(&lookup(44))?);

    // The warm path in numbers, every statement a different key.
    // (Disabling the cache clears it, so this comparison runs last.)
    let n = 2000;
    let t0 = Instant::now();
    for i in 0..n {
        db.execute(&lookup(i))?;
    }
    let warm = t0.elapsed().as_secs_f64() / n as f64 * 1e6;
    db.set_plan_cache_enabled(false);
    let t0 = Instant::now();
    for i in 0..n {
        db.execute(&lookup(i))?;
    }
    let cold = t0.elapsed().as_secs_f64() / n as f64 * 1e6;
    let m = db.engine_metrics();
    println!("warm {warm:.1} us/query vs cold {cold:.1} us/query ({:.2}x)\n", cold / warm);
    println!(
        "plan cache: {} hits, {} misses, {} evictions, {} invalidations; compile {:.3} ms",
        m.plan_cache.hits,
        m.plan_cache.misses,
        m.plan_cache.evictions,
        m.plan_cache.invalidations,
        m.compile_ns as f64 / 1e6
    );
    Ok(())
}
