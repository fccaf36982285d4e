//! Parallel execution must not change what the cost model prices: the
//! hash-partition join performs the same page accesses at every
//! parallelism level, and the per-thread metric counters always sum to
//! the totals the §5/§6 formulas are compared against.

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

    // Per-thread counters are an exact decomposition of the totals.
    let snap = metrics.snapshot();
    let per_thread = metrics.per_thread_snapshot();
    let read_sum: u64 = per_thread
        .iter()
        .map(|(_, s)| s.seq_pages + s.rnd_pages + s.idx_pages)
        .sum();
    assert_eq!(
        read_sum,
        snap.seq_pages + snap.rnd_pages + snap.idx_pages,
        "per-thread counters must sum to the totals (parallelism {parallelism})"
    );
    if parallelism > 1 && read_sum > 0 {
        assert!(
            per_thread.len() > 1,
            "parallel run should record reads from more than one thread"
        );
    }

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
