//! Ablation 2 — Algorithm 8.2's greedy pairwise ordering against the naive
//! left-to-right execution of a path's implicit joins, at the model level
//! (predicted plan cost over the paper's statistics) and measured end to
//! end on a generated database.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use mood_bench::{build_vehicle_db, VehicleDbSpec};
use mood_core::cost::{forward_traversal_cost, hash_partition_cost, ClassInfo, JoinMethod};
use mood_core::optimizer::{optimize, OptimizerConfig, PredSpec, QuerySpec};
use mood_core::{DatabaseStats, PhysicalParams};

fn bench(c: &mut Criterion) {
    // Model-level comparison at the paper's operating point (Example 8.2):
    // greedy (merge (d,e) first, both hash) vs naive left-to-right forward
    // traversal of the whole extent.
    let p = PhysicalParams::paper_calibrated();
    let vehicle = ClassInfo {
        cardinality: 20_000.0,
        nbpages: 2_000.0,
    };
    let train = ClassInfo {
        cardinality: 10_000.0,
        nbpages: 750.0,
    };
    let engine = ClassInfo {
        cardinality: 10_000.0,
        nbpages: 5_000.0,
    };
    // Naive: forward-traverse v→d (all 20000), then d→e.
    let naive = forward_traversal_cost(&p, 20_000.0, &vehicle, 1.0)
        + forward_traversal_cost(&p, 10_000.0, &train, 1.0);
    // Greedy (the generated plan): hash (d ⋈ σe), then hash (v ⋈ T1) with
    // T1 in memory (D-fetch term drops). k_c/|C| = 1: the whole extent.
    let k_c_over_extent = 1.0;
    let greedy = hash_partition_cost(&p, 10_000.0, &train, &engine, 1.0, 10_000.0)
        + 3.0 * (k_c_over_extent) * mood_core::cost::seqcost(&p, vehicle.nbpages);
    println!("\n# Ablation: Example 8.2 predicted plan cost (model seconds)");
    println!("  naive left-to-right forward : {naive:10.2}");
    println!("  Algorithm 8.2 greedy (plan) : {greedy:10.2}");
    println!("  speedup                     : {:10.2}x", naive / greedy);

    // Planning-time criterion bench: optimizing the Example 8.2 query spec.
    let stats = DatabaseStats::paper_example();
    let cfg = OptimizerConfig::paper();
    let mut spec = QuerySpec::new("v", "Vehicle");
    spec.terms = vec![vec![PredSpec::Path {
        path: vec!["drivetrain".into(), "engine".into(), "cylinders".into()],
        theta: mood_core::cost::Theta::Eq,
        constant: mood_core::optimizer::Const::Value(mood_core::Value::Integer(2)),
        terminal_var: None,
    }]];
    let mut group = c.benchmark_group("join_ordering");
    group
        .sample_size(50)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("optimize_example_8_2", |b| {
        b.iter(|| {
            let out = optimize(&spec, &stats, &cfg);
            assert_eq!(
                out.terms[0].plan.root.join_methods(),
                vec![JoinMethod::HashPartition, JoinMethod::HashPartition]
            );
            out.estimated_cost
        })
    });

    // Measured end-to-end: the same query shape on a generated database.
    let db = build_vehicle_db(&VehicleDbSpec::default());
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("execute_example_8_2_shape", |b| {
        b.iter(|| {
            db.query("SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2")
                .expect("query runs")
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
