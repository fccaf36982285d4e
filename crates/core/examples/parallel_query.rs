//! Demonstrates the chunk-parallel execution path: the same MOODSQL query
//! at parallelism 1 and 4 returns identical rows with identical page-access
//! totals (see DESIGN.md §4c).
//!
//! ```sh
//! cargo run -p mood-core --example parallel_query
//! ```

use mood_core::{Answer, Mood};

fn main() {
    let db = Mood::in_memory();
    db.execute("CREATE CLASS Part TUPLE (id Integer, weight Integer, name String)")
        .unwrap();
    for i in 0..2000 {
        db.execute(&format!("new Part <{i}, {}, 'p{i}'>", (i * 37) % 500))
            .unwrap();
    }
    db.collect_stats().unwrap();

    let q = "SELECT p.id, p.weight FROM Part p WHERE p.weight > 250 ORDER BY p.id";

    let run = |label: &str| {
        db.metrics().reset();
        let Answer::Rows(rows) = db.execute(q).unwrap() else {
            panic!("not a query")
        };
        let snap = db.metrics().snapshot();
        println!(
            "{label}: {} rows, pages seq={} rnd={} idx={}",
            rows.len(),
            snap.seq_pages,
            snap.rnd_pages,
            snap.idx_pages
        );
        rows
    };

    let sequential = run("parallelism 1");
    db.set_parallelism(4);
    let parallel = run("parallelism 4");
    assert_eq!(sequential, parallel, "results must be byte-identical");
    println!("identical results at parallelism 1 and 4");
}
