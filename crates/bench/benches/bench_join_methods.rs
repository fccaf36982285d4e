//! X1 — the four implicit-join methods (§6) across k_c: wall-clock
//! criterion timings plus a one-shot measured-pages vs model-cost table.
//!
//! Paper-shape expectation: forward traversal wins for small k_c (few
//! pointers chased); the scan-based methods win for large k_c; the binary
//! join index sits between; backward traversal pays the full D scan.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mood_bench::{build_ref_db, measured_join_pages, RefDbSpec};
use mood_core::algebra::{join, Collection, ExecutionConfig, JoinMethod, JoinRhs, Obj};
use mood_core::PhysicalParams;

fn bench(c: &mut Criterion) {
    let spec = RefDbSpec {
        n_c: 4000,
        n_d: 8000,
        pool_frames: 8,
        join_index: true,
        ..Default::default()
    };
    let (db, c_oids, _) = build_ref_db(&spec);
    let params = PhysicalParams::salzberg_1988();

    // One-shot table: measured access pattern vs §6 prediction.
    println!("\n# X1: measured pages vs model (n_c=4000, n_d=8000, pool=8)");
    println!(
        "{:>6} {:<20} {:>6} {:>6} {:>6} {:>12} {:>12}",
        "k_c", "method", "seq", "rnd", "idx", "measured(s)", "model(s)"
    );
    for k_c in [10usize, 200, 1000, 4000] {
        for method in JoinMethod::ALL {
            let m = measured_join_pages(&db, &c_oids, k_c, method, &params);
            println!(
                "{:>6} {:<20} {:>6} {:>6} {:>6} {:>12.4} {:>12.4}",
                k_c,
                method.plan_name(),
                m.seq_pages,
                m.rnd_pages,
                m.idx_pages,
                m.measured_model_seconds,
                m.predicted_seconds
            );
        }
    }

    let mut group = c.benchmark_group("join_methods");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let catalog = db.catalog();
    for k_c in [10usize, 1000, 4000] {
        let subset: Vec<Obj> = c_oids[..k_c]
            .iter()
            .map(|&oid| {
                let (_, v) = catalog.get_object(oid).unwrap();
                Obj::stored(oid, v)
            })
            .collect();
        let left = Collection::Extent(subset);
        for method in JoinMethod::ALL {
            group.bench_with_input(
                BenchmarkId::new(method.plan_name(), k_c),
                &left,
                |b, left| {
                    b.iter(|| {
                        join(
                            catalog,
                            left,
                            "d",
                            JoinRhs::Class("D"),
                            method,
                            ExecutionConfig::default(),
                        )
                        .expect("join runs")
                        .len()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
