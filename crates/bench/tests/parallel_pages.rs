//! Parallel execution must not change what the cost model prices: the
//! hash-partition join performs the same page accesses — the totals the
//! §5/§6 formulas are compared against — at every parallelism level.

use mood_bench::{build_ref_db, RefDbSpec};
use mood_core::algebra::{join, Collection, ExecutionConfig, JoinMethod, JoinRhs, Obj};

fn run_join_at(parallelism: usize) -> (usize, u64, u64, u64) {
    // A fresh database per level (same seed) gives every run an identical
    // buffer-pool starting state, so access totals are directly comparable.
    // The pool holds the working set: under capacity pressure the pool's
    // eviction order — not the operator's access pattern — decides which
    // accesses are physical, and worker interleaving could shift a miss or
    // two. With no evictions each distinct page faults exactly once, so
    // equal totals demonstrate the operator-level invariant.
    let spec = RefDbSpec {
        n_c: 400,
        n_d: 200,
        pool_frames: 64,
        ..Default::default()
    };
    let (db, c_oids, _) = build_ref_db(&spec);
    let catalog = db.catalog();
    let left = Collection::Extent(
        c_oids
            .iter()
            .map(|&oid| {
                let (_, v) = catalog.get_object(oid).unwrap();
                Obj::stored(oid, v)
            })
            .collect::<Vec<_>>(),
    );
    let metrics = db.metrics();
    metrics.reset();
    let before = metrics.snapshot();
    let pairs = join(
        catalog,
        &left,
        "d",
        JoinRhs::Class("D"),
        JoinMethod::HashPartition,
        ExecutionConfig::with_parallelism(parallelism),
    )
    .unwrap();
    let delta = metrics.snapshot().delta(&before);
    (pairs.len(), delta.seq_pages, delta.rnd_pages, delta.idx_pages)
}

#[test]
fn hash_partition_page_totals_invariant_under_parallelism() {
    let baseline = run_join_at(1);
    assert!(baseline.0 > 0, "join produced pairs");
    for parallelism in [2usize, 4, 8] {
        let run = run_join_at(parallelism);
        assert_eq!(
            run, baseline,
            "pairs/seq/rnd/idx must match parallelism 1 at parallelism {parallelism}"
        );
    }
}
