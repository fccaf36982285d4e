//! X5 — Function Manager costs (§2): native vs source-defined (compiled at
//! definition) invocation, first-call load, and the latency of adding a function while the server
//! is live ("the only cost is the preprocessing and compilation of the
//! added functions for once").

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use mood_core::{MethodSig, Mood, TypeDescriptor, Value};

fn setup() -> (Mood, mood_core::Oid) {
    let db = Mood::in_memory();
    db.execute("CREATE CLASS Vehicle TUPLE (weight Integer)")
        .unwrap();
    db.execute("DEFINE METHOD Vehicle::lb_source() RETURNS Float AS 'weight * 2.2075'")
        .unwrap();
    db.register_native_method(
        "Vehicle",
        MethodSig::new("lb_native", TypeDescriptor::float(), vec![]),
        Arc::new(|recv, _args, _res| {
            let w = recv.field("weight").and_then(|v| v.as_f64()).unwrap_or(0.0);
            Ok(Value::Float(w * 2.2075))
        }),
    )
    .unwrap();
    let mood_core::Answer::Created(Value::Ref(oid)) = db.execute("new Vehicle <1000>").unwrap()
    else {
        unreachable!()
    };
    (db, oid)
}

fn bench(c: &mut Criterion) {
    let (db, oid) = setup();

    // One-shot latency table: add-function and first-call load.
    println!("\n# X5: Function Manager one-shot latencies");
    let t = Instant::now();
    db.execute("DEFINE METHOD Vehicle::fresh() RETURNS Float AS '(weight * 3 + weight % 3) * 1.0'")
        .unwrap();
    println!(
        "  define+compile while live : {:>10.1} µs",
        t.elapsed().as_secs_f64() * 1e6
    );
    db.funcman().end_scope();
    let t = Instant::now();
    db.invoke(oid, "fresh", &[]).unwrap(); // includes the dld-style load
    let first = t.elapsed();
    let t = Instant::now();
    db.invoke(oid, "fresh", &[]).unwrap(); // warm
    let warm = t.elapsed();
    println!(
        "  first call (load + run)   : {:>10.1} µs",
        first.as_secs_f64() * 1e6
    );
    println!(
        "  warm call                 : {:>10.1} µs",
        warm.as_secs_f64() * 1e6
    );

    let mut group = c.benchmark_group("funcman");
    group
        .sample_size(60)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("invoke_native", |b| {
        b.iter(|| {
            db.invoke(oid, "lb_native", &[])
                .expect("native method runs")
        })
    });
    group.bench_function("invoke_source_defined", |b| {
        b.iter(|| {
            db.invoke(oid, "lb_source", &[])
                .expect("source-defined method runs")
        })
    });
    group.bench_function("define_method_live", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            db.funcman()
                .define_source(
                    "Vehicle",
                    MethodSig::new("redefined", TypeDescriptor::float(), vec![]),
                    &format!("weight * {}.5", i % 7),
                )
                .expect("redefinition while live")
        })
    });
    group.bench_function("query_with_method_predicate", |b| {
        b.iter(|| {
            db.query("SELECT v FROM Vehicle v WHERE v.lb_source() > 100.0")
                .expect("runs")
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
