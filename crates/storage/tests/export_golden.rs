//! The metric exports, pinned byte for byte: one fixed `EngineMetrics` value
//! rendered by `rows()`, `to_json()` and `to_prometheus()` must equal the
//! checked-in files under `tests/golden/`. The value is built from public
//! fields only, so this test compiles unchanged on either side of a rework
//! of how the registry records — it is what holds every exported name,
//! value and format while that changes.

use mood_storage::{
    BatchStats, ClusterStats, EngineMetrics, LatencyHistogram, MetricsSnapshot, OperatorTotals,
    PlanCacheStats, WaitSnapshot, WalStats,
};

fn histogram(values: &[u64]) -> mood_storage::HistogramSnapshot {
    let h = LatencyHistogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// Every scalar non-zero, two operators, a clustering factor, a degraded
/// reason with a quote in it, every wait event and two non-empty histograms.
fn snapshot() -> EngineMetrics {
    let op = |invocations, rows, pages, nanos| OperatorTotals { invocations, rows, pages, nanos };
    let wait = |event, count, total_ns| WaitSnapshot { event, count, total_ns };
    EngineMetrics {
        disk: MetricsSnapshot {
            seq_pages: 11,
            seq_batches: 3,
            rnd_pages: 12,
            idx_pages: 13,
            writes: 14,
            buffer_hits: 300,
            buffer_misses: 36,
            buffer_evictions: 17,
        },
        wal: WalStats { appends: 21, forces: 22, recovered: 23 },
        buffer_wait_ns: 4_242,
        lock_waits: 31,
        lock_timeouts: 32,
        lock_deadlocks: 33,
        page_repairs: 34,
        io_retries: 35,
        io_gave_up: 5,
        degraded: true,
        degraded_reason: "write of \"pages\" failed: disk full".to_string(),
        plan_cache: PlanCacheStats {
            hits: 41,
            misses: 42,
            evictions: 43,
            invalidations: 44,
            capacity: 512,
        },
        batch: BatchStats { rows: 51, count: 52, spilled_runs: 53, spill_bytes: 54 },
        agg_spilled_partitions: 55,
        cluster: ClusterStats { passes: 56, moved_objects: 57 },
        cluster_factors: vec![("Vehicle.drivetrain".to_string(), 0.93)],
        compile_ns: 61,
        operators: vec![
            ("JOIN(HJ)".to_string(), op(2, 700, 90, 1_500_000)),
            ("SELECT".to_string(), op(9, 4_096, 12, 2_345_678)),
        ],
        waits: vec![
            wait("buffer_shard", 3, 1_200),
            wait("buffer_checkout", 2, 3_042),
            wait("lock_queue", 1, 50_000),
            wait("disk_retry_backoff", 35, 7_000_000),
            wait("wal_fsync", 22, 880_000),
        ],
        histograms: vec![
            ("statement".to_string(), histogram(&[12_000, 15_000, 900_000, 1_200])),
            ("operator".to_string(), histogram(&[0, 7, 8, 1_000, 65_536])),
        ],
    }
}

#[test]
fn exports_match_the_checked_in_bytes() {
    let snap = snapshot();
    let rows: String = snap.rows().iter().map(|(k, v)| format!("{k}\t{v}\n")).collect();
    assert_eq!(rows, include_str!("golden/metrics.rows"), "rows() drifted");
    assert_eq!(snap.to_json(), include_str!("golden/metrics.json"), "to_json() drifted");
    assert_eq!(snap.to_prometheus(), include_str!("golden/metrics.prom"), "to_prometheus() drifted");
}
