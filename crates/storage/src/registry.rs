//! Process-wide engine metrics registry.
//!
//! One aggregation point over the counters the storage layer already keeps
//! scattered across its components: the shared [`DiskMetrics`] page/buffer
//! counters, the WAL's append/force/recovery counts, the lock manager's
//! wait statistics, and per-operator execution totals reported by the query
//! layer. `SHOW METRICS` and `Mood::engine_metrics()` render a snapshot of
//! this registry; because [`DiskMetrics`] already attributes every access to
//! its recording thread, the totals here are exact under parallel execution
//! (totals are always the sum of the per-thread counts).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::PoolHealth;
use crate::disk::RetryStats;
use crate::lock::LockManager;
use crate::metrics::{DiskMetrics, MetricsSnapshot};
use crate::telemetry::{
    HistFamily, HistogramSnapshot, SlowQuery, SlowQueryLog, StatementStat, StatementStats,
    Telemetry, WaitEvent, WaitSnapshot,
};
use crate::wal::{Wal, WalStats};

/// Lifetime execution totals for one named operator (SELECT, JOIN(HJ), …).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorTotals {
    /// Times the operator ran.
    pub invocations: u64,
    /// Rows the operator produced, summed over invocations.
    pub rows: u64,
    /// Page accesses attributed to the operator (its own work, excluding
    /// child operators), summed over invocations.
    pub pages: u64,
    /// Wall-clock nanoseconds attributed to the operator.
    pub nanos: u64,
}

/// Plan-cache lifetime counters. `hits + misses` equals the number of
/// cacheable-statement lookups; `invalidations` counts the subset of misses
/// caused by an epoch bump evicting a stale entry (so it never exceeds
/// `misses`), and `evictions` counts capacity-driven LRU removals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
    /// Configured entry capacity (a gauge, not a counter): the cache's
    /// total LRU budget across shards. 0 until a cache registers itself.
    pub capacity: u64,
}

/// Batched-pipeline lifetime counters. Discipline: every batch holds at
/// least one row, so `rows >= count`; `spill_bytes` is bytes written to
/// spill files and `spilled_runs` the number of sorted runs those bytes
/// formed, so `spilled_runs > 0` whenever `spill_bytes > 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Rows processed through batched operator calls.
    pub rows: u64,
    /// Batched operator calls (flushed batches).
    pub count: u64,
    /// Sorted runs spilled to disk by the external merge sort.
    pub spilled_runs: u64,
    /// Bytes written to spill files.
    pub spill_bytes: u64,
}

/// Clustering lifetime counters. Discipline: objects only move inside a
/// reorganization pass, so `moved_objects > 0` implies `passes > 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Completed `CLUSTER` reorganization passes.
    pub passes: u64,
    /// Objects rewritten into a new extent across all passes.
    pub moved_objects: u64,
}

/// Aggregates engine-wide counters; owned by the [`StorageManager`] and
/// shared with the query layer.
///
/// [`StorageManager`]: crate::StorageManager
pub struct MetricsRegistry {
    metrics: DiskMetrics,
    wal: Arc<Wal>,
    locks: Arc<LockManager>,
    /// The buffer pool's contention counter (nanoseconds blocked on shard
    /// locks / checked-out pages) — shared with the pool that bumps it.
    buffer_wait_ns: Arc<AtomicU64>,
    /// Degraded flag + page-repair counter; attached by the storage
    /// manager (absent on bare registries, which then report healthy).
    health: Mutex<Option<Arc<PoolHealth>>>,
    /// RetryDisk counters, when the disk stack has a retry layer.
    retry: Mutex<Option<Arc<RetryStats>>>,
    operators: Mutex<BTreeMap<String, OperatorTotals>>,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    plan_cache_evictions: AtomicU64,
    plan_cache_invalidations: AtomicU64,
    plan_cache_capacity: AtomicU64,
    batch_rows: AtomicU64,
    batch_count: AtomicU64,
    sort_spilled_runs: AtomicU64,
    sort_spill_bytes: AtomicU64,
    agg_spilled_partitions: AtomicU64,
    cluster_passes: AtomicU64,
    cluster_moved: AtomicU64,
    /// Per-class clustering factor gauges (last value wins), keyed by
    /// class name. Set after `CLUSTER` / `ANALYZE` recomputes the factor.
    cluster_factors: Mutex<BTreeMap<String, f64>>,
    /// Nanoseconds spent lowering predicates/projections to register
    /// programs and binding/optimizing cacheable plans.
    compile_ns: AtomicU64,
    /// The shared telemetry sink (latency histograms + wait events). The
    /// registry owns it; the storage manager hands clones to the buffer
    /// pool, WAL and lock manager during wiring.
    telemetry: Arc<Telemetry>,
    /// Per-statement aggregates keyed by statement shape.
    statements: StatementStats,
    /// Ring of statements that exceeded the slow-query threshold.
    slow_log: SlowQueryLog,
}

/// Point-in-time view of every engine counter, as rendered by
/// `SHOW METRICS`.
#[derive(Debug, Clone, Default)]
pub struct EngineMetrics {
    /// Page/buffer counters (process totals across all threads).
    pub disk: MetricsSnapshot,
    /// WAL appends / forces / pages rebuilt by recovery.
    pub wal: WalStats,
    /// Nanoseconds threads spent blocked on buffer-pool shard locks and
    /// condvars (pool contention, not transaction serialization).
    pub buffer_wait_ns: u64,
    /// Times a lock acquire had to block.
    pub lock_waits: u64,
    /// Lock acquires that gave up at the deadlock timeout.
    pub lock_timeouts: u64,
    /// Waits-for cycles detected (each aborts its youngest participant).
    pub lock_deadlocks: u64,
    /// Pages reconstructed from the WAL after a checksum mismatch.
    pub page_repairs: u64,
    /// Individual I/O retry attempts (RetryDisk). Counter discipline:
    /// every give-up is preceded by a full backoff schedule of retries,
    /// so `io_gave_up <= io_retries` whenever the schedule is non-empty.
    pub io_retries: u64,
    /// Operations that exhausted the whole backoff schedule.
    pub io_gave_up: u64,
    /// Is the engine in read-only degraded mode?
    pub degraded: bool,
    /// Why the engine degraded (empty while healthy).
    pub degraded_reason: String,
    /// Plan-cache hit/miss/eviction/invalidation totals plus the
    /// configured capacity.
    pub plan_cache: PlanCacheStats,
    /// Batched-pipeline rows/calls and external-sort spill totals.
    pub batch: BatchStats,
    /// Hash-aggregation partitions spilled above the sort budget.
    pub agg_spilled_partitions: u64,
    /// Heap-reorganization pass/object totals.
    pub cluster: ClusterStats,
    /// Per-class clustering-factor gauges `(class, factor in [0,1])`,
    /// sorted by class name.
    pub cluster_factors: Vec<(String, f64)>,
    /// Nanoseconds spent compiling cacheable plans and register programs.
    pub compile_ns: u64,
    /// Per-operator execution totals, sorted by operator name.
    pub operators: Vec<(String, OperatorTotals)>,
    /// Wait-event rows (blocked count + total blocked nanoseconds per
    /// site), in [`WaitEvent::ALL`] order.
    pub waits: Vec<WaitSnapshot>,
    /// Latency-histogram snapshots per family, in [`HistFamily::ALL`]
    /// order: `(family name, snapshot)`.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl EngineMetrics {
    /// Buffer-pool hit ratio in `[0, 1]`; 0 when the pool is untouched.
    pub fn buffer_hit_ratio(&self) -> f64 {
        let total = self.disk.buffer_hits + self.disk.buffer_misses;
        if total == 0 {
            0.0
        } else {
            self.disk.buffer_hits as f64 / total as f64
        }
    }

    /// Flatten into `(metric, value)` rows for tabular display. Stable
    /// order: disk, buffer, wal, locks, then operators alphabetically.
    pub fn rows(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = vec![
            ("disk.seq_pages", self.disk.seq_pages.to_string()),
            ("disk.rnd_pages", self.disk.rnd_pages.to_string()),
            ("disk.idx_pages", self.disk.idx_pages.to_string()),
            ("disk.writes", self.disk.writes.to_string()),
            ("buffer.hits", self.disk.buffer_hits.to_string()),
            ("buffer.misses", self.disk.buffer_misses.to_string()),
            ("buffer.evictions", self.disk.buffer_evictions.to_string()),
            ("buffer.hit_ratio", format!("{:.4}", self.buffer_hit_ratio())),
            ("buffer.wait_ns", self.buffer_wait_ns.to_string()),
            ("wal.appends", self.wal.appends.to_string()),
            ("wal.fsyncs", self.wal.forces.to_string()),
            ("wal.recovered_pages", self.wal.recovered.to_string()),
            ("lock.waits", self.lock_waits.to_string()),
            ("lock.timeouts", self.lock_timeouts.to_string()),
            ("lock.deadlocks", self.lock_deadlocks.to_string()),
            ("page.repairs", self.page_repairs.to_string()),
            ("io.retries", self.io_retries.to_string()),
            ("io.gave_up", self.io_gave_up.to_string()),
            (
                "storage.degraded",
                if self.degraded {
                    format!("yes ({})", self.degraded_reason)
                } else {
                    "no".to_string()
                },
            ),
            ("plan_cache.hits", self.plan_cache.hits.to_string()),
            ("plan_cache.misses", self.plan_cache.misses.to_string()),
            ("plan_cache.evictions", self.plan_cache.evictions.to_string()),
            (
                "plan_cache.invalidations",
                self.plan_cache.invalidations.to_string(),
            ),
            ("plan_cache.capacity", self.plan_cache.capacity.to_string()),
            ("compile.ns", self.compile_ns.to_string()),
            ("batch.rows", self.batch.rows.to_string()),
            ("batch.count", self.batch.count.to_string()),
            ("sort.spilled_runs", self.batch.spilled_runs.to_string()),
            ("sort.spill_bytes", self.batch.spill_bytes.to_string()),
            (
                "agg.spilled_partitions",
                self.agg_spilled_partitions.to_string(),
            ),
            ("cluster.passes", self.cluster.passes.to_string()),
            ("cluster.moved_objects", self.cluster.moved_objects.to_string()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        for (class, factor) in &self.cluster_factors {
            out.push((format!("cluster.factor.{class}"), format!("{factor:.4}")));
        }
        for (name, t) in &self.operators {
            out.push((
                format!("operator.{name}"),
                format!(
                    "calls={} rows={} pages={} time={:.3}ms",
                    t.invocations,
                    t.rows,
                    t.pages,
                    t.nanos as f64 / 1e6
                ),
            ));
        }
        for w in &self.waits {
            out.push((
                format!("wait.{}", w.event),
                format!("count={} time_ns={}", w.count, w.total_ns),
            ));
        }
        for (family, h) in &self.histograms {
            out.push((
                format!("hist.{family}"),
                format!(
                    "count={} p50_ns={} p95_ns={} p99_ns={} max_ns={}",
                    h.count,
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.max
                ),
            ));
        }
        out
    }

    /// A named histogram family from the snapshot, if present.
    pub fn histogram(&self, family: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(name, _)| name == family)
            .map(|(_, h)| h)
    }

    /// A named wait event from the snapshot, if present.
    pub fn wait(&self, event: &str) -> Option<&WaitSnapshot> {
        self.waits.iter().find(|w| w.event == event)
    }

    /// Total blocked nanoseconds across every wait event.
    pub fn total_wait_ns(&self) -> u64 {
        self.waits.iter().map(|w| w.total_ns).sum()
    }

    /// Render the full snapshot as a JSON object (hand-rolled — the engine
    /// carries no serialization dependency). Every `rows()` counter is
    /// represented: scalar counters under `"counters"` keyed by their row
    /// name, operators / waits / histograms as structured arrays (histogram
    /// buckets are sparse `[index, count]` pairs).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\"counters\":{");
        let mut first = true;
        for (k, v) in self.scalar_rows() {
            if !first {
                s.push(',');
            }
            first = false;
            // Numeric values stay numbers; the rest are strings.
            if v.parse::<u64>().is_ok() || v.parse::<f64>().is_ok() {
                s.push_str(&format!("\"{}\":{}", json_escape(&k), v));
            } else {
                s.push_str(&format!("\"{}\":\"{}\"", json_escape(&k), json_escape(&v)));
            }
        }
        s.push_str("},\"cluster_factors\":[");
        for (i, (class, factor)) in self.cluster_factors.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"class\":\"{}\",\"factor\":{factor}}}",
                json_escape(class)
            ));
        }
        s.push_str("],\"operators\":[");
        for (i, (name, t)) in self.operators.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"calls\":{},\"rows\":{},\"pages\":{},\"time_ns\":{}}}",
                json_escape(name),
                t.invocations,
                t.rows,
                t.pages,
                t.nanos
            ));
        }
        s.push_str("],\"waits\":[");
        for (i, w) in self.waits.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"event\":\"{}\",\"count\":{},\"time_ns\":{}}}",
                w.event, w.count, w.total_ns
            ));
        }
        s.push_str("],\"histograms\":[");
        for (i, (family, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"family\":\"{}\",\"count\":{},\"sum_ns\":{},\"max_ns\":{},\
                 \"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"buckets\":[",
                family,
                h.count,
                h.sum,
                h.max,
                h.p50(),
                h.p95(),
                h.p99()
            ));
            for (j, (ix, n)) in h.nonzero_buckets().iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("[{ix},{n}]"));
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }

    /// Render the snapshot in the Prometheus text exposition format. Row
    /// names map to `mood_`-prefixed metric names with dots as underscores;
    /// operators / waits / histogram families become labelled series, and
    /// each histogram additionally exports p50/p95/p99 as `quantile`
    /// labels (summary-style).
    pub fn to_prometheus(&self) -> String {
        let mut s = String::with_capacity(4096);
        for (k, v) in self.scalar_rows() {
            let name = format!("mood_{}", k.replace('.', "_"));
            if k == "storage.degraded" {
                s.push_str(&format!("# TYPE {name} gauge\n"));
                s.push_str(&format!(
                    "{name} {}\n",
                    u64::from(v != "no")
                ));
                continue;
            }
            let kind = if k == "buffer.hit_ratio" || k == "plan_cache.capacity" {
                "gauge"
            } else {
                "counter"
            };
            s.push_str(&format!("# TYPE {name} {kind}\n{name} {v}\n"));
        }
        s.push_str("# TYPE mood_cluster_factor gauge\n");
        for (class, factor) in &self.cluster_factors {
            s.push_str(&format!(
                "mood_cluster_factor{{class=\"{}\"}} {factor}\n",
                prom_escape(class)
            ));
        }
        s.push_str("# TYPE mood_operator_calls counter\n");
        s.push_str("# TYPE mood_operator_rows counter\n");
        s.push_str("# TYPE mood_operator_pages counter\n");
        s.push_str("# TYPE mood_operator_time_ns counter\n");
        for (name, t) in &self.operators {
            let label = prom_escape(name);
            s.push_str(&format!(
                "mood_operator_calls{{op=\"{label}\"}} {}\n",
                t.invocations
            ));
            s.push_str(&format!("mood_operator_rows{{op=\"{label}\"}} {}\n", t.rows));
            s.push_str(&format!("mood_operator_pages{{op=\"{label}\"}} {}\n", t.pages));
            s.push_str(&format!(
                "mood_operator_time_ns{{op=\"{label}\"}} {}\n",
                t.nanos
            ));
        }
        s.push_str("# TYPE mood_wait_count counter\n");
        s.push_str("# TYPE mood_wait_time_ns counter\n");
        for w in &self.waits {
            s.push_str(&format!(
                "mood_wait_count{{event=\"{}\"}} {}\n",
                w.event, w.count
            ));
            s.push_str(&format!(
                "mood_wait_time_ns{{event=\"{}\"}} {}\n",
                w.event, w.total_ns
            ));
        }
        s.push_str("# TYPE mood_latency_ns summary\n");
        for (family, h) in &self.histograms {
            for (q, v) in [(0.5, h.p50()), (0.95, h.p95()), (0.99, h.p99())] {
                s.push_str(&format!(
                    "mood_latency_ns{{family=\"{family}\",quantile=\"{q}\"}} {v}\n"
                ));
            }
            s.push_str(&format!("mood_latency_ns_sum{{family=\"{family}\"}} {}\n", h.sum));
            s.push_str(&format!(
                "mood_latency_ns_count{{family=\"{family}\"}} {}\n",
                h.count
            ));
            s.push_str(&format!("mood_latency_ns_max{{family=\"{family}\"}} {}\n", h.max));
        }
        s
    }

    /// The scalar (non-structured) rows: everything `rows()` emits except
    /// operators, waits and histograms, which the exports structure
    /// separately.
    fn scalar_rows(&self) -> Vec<(String, String)> {
        self.rows()
            .into_iter()
            .filter(|(k, _)| {
                !k.starts_with("operator.")
                    && !k.starts_with("wait.")
                    && !k.starts_with("hist.")
                    && !k.starts_with("cluster.factor.")
            })
            .collect()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl MetricsRegistry {
    pub fn new(
        metrics: DiskMetrics,
        wal: Arc<Wal>,
        locks: Arc<LockManager>,
        buffer_wait_ns: Arc<AtomicU64>,
    ) -> Self {
        MetricsRegistry {
            metrics,
            wal,
            locks,
            buffer_wait_ns,
            health: Mutex::new(None),
            retry: Mutex::new(None),
            operators: Mutex::new(BTreeMap::new()),
            plan_cache_hits: AtomicU64::new(0),
            plan_cache_misses: AtomicU64::new(0),
            plan_cache_evictions: AtomicU64::new(0),
            plan_cache_invalidations: AtomicU64::new(0),
            plan_cache_capacity: AtomicU64::new(0),
            batch_rows: AtomicU64::new(0),
            batch_count: AtomicU64::new(0),
            sort_spilled_runs: AtomicU64::new(0),
            sort_spill_bytes: AtomicU64::new(0),
            agg_spilled_partitions: AtomicU64::new(0),
            cluster_passes: AtomicU64::new(0),
            cluster_moved: AtomicU64::new(0),
            cluster_factors: Mutex::new(BTreeMap::new()),
            compile_ns: AtomicU64::new(0),
            telemetry: Arc::new(Telemetry::new()),
            statements: StatementStats::default(),
            slow_log: SlowQueryLog::default(),
        }
    }

    /// The shared telemetry sink (histograms + wait events). Components
    /// that record into it hold a clone of this Arc.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Per-statement aggregates (`SHOW STATEMENTS`).
    pub fn statements(&self) -> Vec<StatementStat> {
        self.statements.snapshot()
    }

    /// The slow-query ring (oldest first).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log.entries()
    }

    /// Slow-query captures evicted by ring overflow.
    pub fn slow_queries_dropped(&self) -> u64 {
        self.slow_log.dropped()
    }

    /// Change the slow-query ring's retention bound.
    pub fn set_slow_log_capacity(&self, capacity: usize) {
        self.slow_log.set_capacity(capacity);
    }

    /// Fold one completed statement into the per-statement aggregates and
    /// the statement-latency histogram.
    pub fn record_statement(
        &self,
        sql: &str,
        elapsed_ns: u64,
        rows: u64,
        pages: u64,
        cached: bool,
    ) {
        self.telemetry.record_hist(HistFamily::Statement, elapsed_ns);
        self.statements.record(sql, elapsed_ns, rows, pages, cached);
    }

    /// Capture a statement that exceeded the slow-query threshold.
    pub fn record_slow_query(
        &self,
        sql: String,
        elapsed_ns: u64,
        rows: u64,
        pages: u64,
        plan: Option<String>,
    ) {
        self.slow_log.push(sql, elapsed_ns, rows, pages, plan);
    }

    /// The shared disk-metrics handle this registry reads from.
    pub fn disk_metrics(&self) -> &DiskMetrics {
        &self.metrics
    }

    /// Attach the pool's fault-tolerance state (degraded flag, repairs).
    pub fn attach_health(&self, health: Arc<PoolHealth>) {
        *self.health.lock() = Some(health);
    }

    /// Attach a RetryDisk's counters discovered in the disk stack.
    pub fn attach_retry_stats(&self, stats: Arc<RetryStats>) {
        *self.retry.lock() = Some(stats);
    }

    /// Fold one operator execution into the lifetime totals (and the
    /// operator-latency histogram).
    pub fn record_operator(&self, name: &str, rows: u64, pages: u64, nanos: u64) {
        self.telemetry.record_hist(HistFamily::Operator, nanos);
        let mut ops = self.operators.lock();
        // The name is copied only the first time an operator kind is seen.
        if !ops.contains_key(name) {
            ops.insert(name.to_string(), OperatorTotals::default());
        }
        let t = ops.get_mut(name).expect("inserted above");
        t.invocations += 1;
        t.rows += rows;
        t.pages += pages;
        t.nanos += nanos;
    }

    /// A plan-cache lookup served from the cache.
    pub fn record_plan_cache_hit(&self) {
        self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A cacheable statement that had to be compiled fresh.
    pub fn record_plan_cache_miss(&self) {
        self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// An entry dropped to make room (LRU capacity eviction).
    pub fn record_plan_cache_eviction(&self) {
        self.plan_cache_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// An entry dropped because the catalog epoch moved past it.
    pub fn record_plan_cache_invalidation(&self) {
        self.plan_cache_invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Add plan/predicate compilation time to the lifetime total.
    pub fn record_compile_ns(&self, ns: u64) {
        self.compile_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Publish the plan cache's configured entry capacity (a gauge).
    pub fn set_plan_cache_capacity(&self, capacity: u64) {
        self.plan_cache_capacity.store(capacity, Ordering::Relaxed);
    }

    /// One flushed operator batch of `rows` rows (`rows >= 1`).
    pub fn record_batch(&self, rows: u64) {
        self.batch_rows.fetch_add(rows, Ordering::Relaxed);
        self.batch_count.fetch_add(1, Ordering::Relaxed);
    }

    /// One sorted run of `bytes` bytes spilled to a temp file.
    pub fn record_spilled_run(&self, bytes: u64) {
        self.sort_spilled_runs.fetch_add(1, Ordering::Relaxed);
        self.sort_spill_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// One hash-aggregation partition spilled to a temp file (the bytes
    /// are folded into `sort.spill_bytes` by the shared spill facility).
    pub fn record_agg_spilled_partition(&self) {
        self.agg_spilled_partitions.fetch_add(1, Ordering::Relaxed);
    }

    /// One completed `CLUSTER` pass that rewrote `moved` objects.
    pub fn record_cluster_pass(&self, moved: u64) {
        self.cluster_passes.fetch_add(1, Ordering::Relaxed);
        self.cluster_moved.fetch_add(moved, Ordering::Relaxed);
    }

    /// Publish a class's clustering factor gauge (last value wins).
    pub fn set_cluster_factor(&self, class: &str, factor: f64) {
        self.cluster_factors
            .lock()
            .insert(class.to_string(), factor.clamp(0.0, 1.0));
    }

    /// Snapshot every counter the registry aggregates.
    pub fn snapshot(&self) -> EngineMetrics {
        let (page_repairs, degraded, degraded_reason) = match self.health.lock().as_ref() {
            Some(h) => (h.page_repairs(), h.is_degraded(), h.reason()),
            None => (0, false, String::new()),
        };
        let (io_retries, io_gave_up, backoff_ns) = match self.retry.lock().as_ref() {
            Some(r) => (r.retries(), r.gave_up(), r.backoff_ns()),
            None => (0, 0, 0),
        };
        // RetryDisk keeps its own backoff clock (it predates the telemetry
        // wiring in the disk stack); fold it into the wait-event row here.
        let mut waits = self.telemetry.wait_snapshots();
        if let Some(w) = waits
            .iter_mut()
            .find(|w| w.event == WaitEvent::DiskRetryBackoff.name())
        {
            w.count += io_retries;
            w.total_ns += backoff_ns;
        }
        EngineMetrics {
            disk: self.metrics.snapshot(),
            wal: self.wal.stats(),
            buffer_wait_ns: self.buffer_wait_ns.load(Ordering::Relaxed),
            lock_waits: self.locks.wait_count(),
            lock_timeouts: self.locks.timeout_count(),
            lock_deadlocks: self.locks.deadlock_count(),
            page_repairs,
            io_retries,
            io_gave_up,
            degraded,
            degraded_reason,
            plan_cache: PlanCacheStats {
                hits: self.plan_cache_hits.load(Ordering::Relaxed),
                misses: self.plan_cache_misses.load(Ordering::Relaxed),
                evictions: self.plan_cache_evictions.load(Ordering::Relaxed),
                invalidations: self.plan_cache_invalidations.load(Ordering::Relaxed),
                capacity: self.plan_cache_capacity.load(Ordering::Relaxed),
            },
            batch: BatchStats {
                rows: self.batch_rows.load(Ordering::Relaxed),
                count: self.batch_count.load(Ordering::Relaxed),
                spilled_runs: self.sort_spilled_runs.load(Ordering::Relaxed),
                spill_bytes: self.sort_spill_bytes.load(Ordering::Relaxed),
            },
            agg_spilled_partitions: self.agg_spilled_partitions.load(Ordering::Relaxed),
            cluster: ClusterStats {
                passes: self.cluster_passes.load(Ordering::Relaxed),
                moved_objects: self.cluster_moved.load(Ordering::Relaxed),
            },
            cluster_factors: self
                .cluster_factors
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            compile_ns: self.compile_ns.load(Ordering::Relaxed),
            operators: self
                .operators
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            waits,
            histograms: self
                .telemetry
                .hist_snapshots()
                .into_iter()
                .map(|(name, h)| (name.to_string(), h))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::AccessKind;
    use crate::wal::MemLog;

    fn registry() -> MetricsRegistry {
        MetricsRegistry::new(
            DiskMetrics::new(),
            Arc::new(Wal::new(Box::new(MemLog::new()))),
            Arc::new(LockManager::default()),
            Arc::new(AtomicU64::new(0)),
        )
    }

    #[test]
    fn operator_totals_accumulate() {
        let r = registry();
        r.record_operator("SELECT", 10, 3, 1_000);
        r.record_operator("SELECT", 5, 1, 2_000);
        r.record_operator("JOIN(HJ)", 7, 9, 500);
        let snap = r.snapshot();
        let sel = &snap.operators.iter().find(|(n, _)| n == "SELECT").unwrap().1;
        assert_eq!(sel.invocations, 2);
        assert_eq!(sel.rows, 15);
        assert_eq!(sel.pages, 4);
        assert_eq!(sel.nanos, 3_000);
        assert_eq!(snap.operators.len(), 2);
        // BTreeMap iteration: JOIN(HJ) sorts before SELECT.
        assert_eq!(snap.operators[0].0, "JOIN(HJ)");
    }

    #[test]
    fn plan_cache_counters_accumulate() {
        let r = registry();
        r.record_plan_cache_miss();
        r.record_plan_cache_miss();
        r.record_plan_cache_hit();
        r.record_plan_cache_eviction();
        r.record_plan_cache_invalidation();
        r.record_compile_ns(1_500);
        r.record_compile_ns(500);
        r.set_plan_cache_capacity(128);
        let snap = r.snapshot();
        assert_eq!(
            snap.plan_cache,
            PlanCacheStats {
                hits: 1,
                misses: 2,
                evictions: 1,
                invalidations: 1,
                capacity: 128,
            }
        );
        assert_eq!(snap.compile_ns, 2_000);
        let rows = snap.rows();
        assert!(rows.iter().any(|(k, v)| k == "plan_cache.hits" && v == "1"));
        assert!(rows.iter().any(|(k, v)| k == "plan_cache.misses" && v == "2"));
        assert!(rows.iter().any(|(k, v)| k == "plan_cache.evictions" && v == "1"));
        assert!(rows
            .iter()
            .any(|(k, v)| k == "plan_cache.invalidations" && v == "1"));
        assert!(rows.iter().any(|(k, v)| k == "compile.ns" && v == "2000"));
        assert!(rows
            .iter()
            .any(|(k, v)| k == "plan_cache.capacity" && v == "128"));
    }

    #[test]
    fn batch_and_spill_counters_respect_discipline() {
        let r = registry();
        // Discipline: rows >= count (every batch holds >= 1 row), and
        // spilled_runs > 0 whenever spill_bytes > 0.
        r.record_batch(1024);
        r.record_batch(7);
        r.record_batch(1);
        r.record_spilled_run(4096);
        r.record_spilled_run(512);
        let snap = r.snapshot();
        assert_eq!(
            snap.batch,
            BatchStats {
                rows: 1032,
                count: 3,
                spilled_runs: 2,
                spill_bytes: 4608,
            }
        );
        assert!(snap.batch.rows >= snap.batch.count);
        assert!(snap.batch.spill_bytes == 0 || snap.batch.spilled_runs > 0);
        let rows = snap.rows();
        assert!(rows.iter().any(|(k, v)| k == "batch.rows" && v == "1032"));
        assert!(rows.iter().any(|(k, v)| k == "batch.count" && v == "3"));
        assert!(rows
            .iter()
            .any(|(k, v)| k == "sort.spilled_runs" && v == "2"));
        assert!(rows
            .iter()
            .any(|(k, v)| k == "sort.spill_bytes" && v == "4608"));
        // Export coverage: the JSON counters object and the Prometheus text
        // both carry the new rows, and the capacity gauge is typed gauge.
        let json = snap.to_json();
        for k in [
            "batch.rows",
            "batch.count",
            "sort.spilled_runs",
            "sort.spill_bytes",
            "plan_cache.capacity",
        ] {
            assert!(json.contains(&format!("\"{k}\":")), "json missing {k}");
        }
        let prom = snap.to_prometheus();
        assert!(prom.contains("mood_batch_rows 1032"));
        assert!(prom.contains("mood_sort_spilled_runs 2"));
        assert!(prom.contains("# TYPE mood_plan_cache_capacity gauge"));
    }

    #[test]
    fn cluster_counters_respect_discipline() {
        let r = registry();
        // Untouched: zeros, no gauges.
        let snap = r.snapshot();
        assert_eq!(snap.cluster, ClusterStats::default());
        assert_eq!(snap.agg_spilled_partitions, 0);
        assert!(snap.cluster_factors.is_empty());
        // Discipline: moved_objects > 0 implies passes > 0.
        r.record_cluster_pass(120);
        r.record_cluster_pass(0);
        r.record_agg_spilled_partition();
        r.record_agg_spilled_partition();
        r.set_cluster_factor("Employee", 0.93);
        r.set_cluster_factor("Dept", 1.7); // clamped into [0,1]
        r.set_cluster_factor("Employee", 0.95); // last value wins
        let snap = r.snapshot();
        assert_eq!(
            snap.cluster,
            ClusterStats {
                passes: 2,
                moved_objects: 120,
            }
        );
        assert!(snap.cluster.moved_objects == 0 || snap.cluster.passes > 0);
        assert_eq!(snap.agg_spilled_partitions, 2);
        assert_eq!(
            snap.cluster_factors,
            vec![("Dept".to_string(), 1.0), ("Employee".to_string(), 0.95)]
        );
        let rows = snap.rows();
        assert!(rows.iter().any(|(k, v)| k == "cluster.passes" && v == "2"));
        assert!(rows
            .iter()
            .any(|(k, v)| k == "cluster.moved_objects" && v == "120"));
        assert!(rows
            .iter()
            .any(|(k, v)| k == "agg.spilled_partitions" && v == "2"));
        assert!(rows
            .iter()
            .any(|(k, v)| k == "cluster.factor.Employee" && v == "0.9500"));
        // Export coverage: JSON structured array + Prometheus labelled
        // gauge series, with the scalar counters in both.
        let json = snap.to_json();
        assert!(json.contains("\"cluster.passes\":2"));
        assert!(json.contains("\"agg.spilled_partitions\":2"));
        assert!(json.contains("\"cluster_factors\":[{\"class\":\"Dept\",\"factor\":1}"));
        assert!(json.contains("{\"class\":\"Employee\",\"factor\":0.95}"));
        let prom = snap.to_prometheus();
        assert!(prom.contains("mood_cluster_passes 2"));
        assert!(prom.contains("mood_cluster_moved_objects 120"));
        assert!(prom.contains("mood_agg_spilled_partitions 2"));
        assert!(prom.contains("# TYPE mood_cluster_factor gauge"));
        assert!(prom.contains("mood_cluster_factor{class=\"Employee\"} 0.95"));
    }

    #[test]
    fn fault_tolerance_rows_render() {
        let r = registry();
        // Bare registry: healthy defaults.
        let snap = r.snapshot();
        assert!(!snap.degraded);
        assert_eq!((snap.page_repairs, snap.io_retries, snap.io_gave_up), (0, 0, 0));
        let rows = snap.rows();
        assert!(rows.iter().any(|(k, v)| k == "storage.degraded" && v == "no"));
        assert!(rows.iter().any(|(k, v)| k == "lock.deadlocks" && v == "0"));
        // Attached health/retry handles feed through.
        let health = Arc::new(PoolHealth::default());
        health.mark_degraded("disk on fire");
        r.attach_health(health);
        let retry = Arc::new(RetryStats::default());
        retry.io_retries.fetch_add(3, Ordering::Relaxed);
        retry.io_gave_up.fetch_add(1, Ordering::Relaxed);
        r.attach_retry_stats(retry);
        let snap = r.snapshot();
        assert!(snap.degraded);
        assert_eq!((snap.io_retries, snap.io_gave_up), (3, 1));
        assert!(snap.io_gave_up <= snap.io_retries, "documented invariant");
        let rows = snap.rows();
        assert!(rows
            .iter()
            .any(|(k, v)| k == "storage.degraded" && v == "yes (disk on fire)"));
        assert!(rows.iter().any(|(k, v)| k == "io.retries" && v == "3"));
        assert!(rows.iter().any(|(k, v)| k == "io.gave_up" && v == "1"));
        assert!(rows.iter().any(|(k, _)| k == "page.repairs"));
    }

    #[test]
    fn hit_ratio_is_zero_not_nan_when_untouched() {
        let snap = registry().snapshot();
        assert_eq!(snap.disk.buffer_hits + snap.disk.buffer_misses, 0);
        let ratio = snap.buffer_hit_ratio();
        assert!(ratio == 0.0 && !ratio.is_nan());
        let rows = snap.rows();
        assert!(rows.iter().any(|(k, v)| k == "buffer.hit_ratio" && v == "0.0000"));
        // PR 7 counters present even on a bare registry.
        assert!(rows.iter().any(|(k, v)| k == "page.repairs" && v == "0"));
        assert!(rows.iter().any(|(k, v)| k == "io.retries" && v == "0"));
        assert!(rows.iter().any(|(k, v)| k == "io.gave_up" && v == "0"));
    }

    #[test]
    fn telemetry_flows_into_snapshot_rows() {
        let r = registry();
        r.record_statement("SELECT x", 1_000_000, 5, 2, false);
        r.record_statement("SELECT x", 2_000_000, 5, 2, true);
        r.record_operator("SELECT", 5, 2, 900_000);
        r.telemetry()
            .record_wait(crate::telemetry::WaitEvent::LockQueue, 42_000);
        let snap = r.snapshot();
        let stmt = snap.histogram("statement").unwrap();
        assert_eq!(stmt.count, 2);
        assert!(stmt.p99() >= 2_000_000);
        assert_eq!(snap.histogram("operator").unwrap().count, 1);
        let lq = snap.wait("lock_queue").unwrap();
        assert_eq!((lq.count, lq.total_ns), (1, 42_000));
        let rows = snap.rows();
        assert!(rows.iter().any(|(k, _)| k == "wait.lock_queue"));
        assert!(rows.iter().any(|(k, v)| k == "hist.statement" && v.contains("count=2")));
        let stmts = r.statements();
        assert_eq!(stmts.len(), 1);
        assert_eq!(stmts[0].calls, 2);
        assert_eq!(stmts[0].cache_hits, 1);
    }

    #[test]
    fn retry_backoff_merges_into_wait_event() {
        let r = registry();
        let retry = Arc::new(RetryStats::default());
        retry.io_retries.fetch_add(4, Ordering::Relaxed);
        retry.add_backoff_ns(7_000_000);
        r.attach_retry_stats(retry);
        let snap = r.snapshot();
        let w = snap.wait("disk_retry_backoff").unwrap();
        assert_eq!((w.count, w.total_ns), (4, 7_000_000));
    }

    #[test]
    fn exports_cover_every_row() {
        let r = registry();
        r.disk_metrics().record_buffer_hit();
        r.record_operator("SELECT", 1, 1, 1_000);
        r.record_statement("SELECT 1", 10_000, 1, 0, false);
        let snap = r.snapshot();
        let json = snap.to_json();
        // Every scalar row key appears in the JSON counters object.
        for (k, _) in snap.rows() {
            if k.starts_with("operator.")
                || k.starts_with("wait.")
                || k.starts_with("hist.")
                || k.starts_with("cluster.factor.")
            {
                continue;
            }
            assert!(json.contains(&format!("\"{k}\":")), "json missing {k}");
        }
        assert!(json.contains("\"operators\":["));
        assert!(json.contains("\"event\":\"wal_fsync\""));
        assert!(json.contains("\"family\":\"statement\""));
        let prom = snap.to_prometheus();
        assert!(prom.contains("mood_buffer_hits 1"));
        assert!(prom.contains("mood_operator_calls{op=\"SELECT\"} 1"));
        assert!(prom.contains("mood_wait_count{event=\"buffer_shard\"} 0"));
        assert!(prom.contains("mood_latency_ns_count{family=\"statement\"} 1"));
        assert!(prom.contains("quantile=\"0.99\""));
        assert!(prom.contains("mood_storage_degraded 0"));
    }

    #[test]
    fn snapshot_reflects_component_counters() {
        let r = registry();
        r.disk_metrics().record_read(AccessKind::Random);
        r.disk_metrics().record_buffer_hit();
        r.disk_metrics().record_buffer_miss();
        let snap = r.snapshot();
        assert_eq!(snap.disk.rnd_pages, 1);
        assert!((snap.buffer_hit_ratio() - 0.5).abs() < 1e-12);
        let rows = snap.rows();
        assert!(rows.iter().any(|(k, v)| k == "buffer.hit_ratio" && v == "0.5000"));
        assert!(rows.iter().any(|(k, _)| k == "buffer.wait_ns"));
        assert!(rows.iter().any(|(k, _)| k == "wal.appends"));
        assert!(rows.iter().any(|(k, _)| k == "lock.waits"));
    }
}
