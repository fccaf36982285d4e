//! Process-wide engine metrics registry.
//!
//! One place to read every engine counter. The storage layer's events are
//! recorded once, where they happen, through the [`DiskMetrics`] handle the
//! buffer pool was built with (page/buffer totals, latency histograms, wait
//! events); the registry reads them — with the WAL's, the lock manager's,
//! the pool's health and the disk stack's retry counters — when it takes a
//! snapshot. The layers above record their scalars here ([`Metric`]), with
//! per-operator totals and clustering factors. `SHOW METRICS` and
//! `Mood::engine_metrics()` render a snapshot in three formats
//! ([`EngineMetrics::rows`], [`to_json`](EngineMetrics::to_json),
//! [`to_prometheus`](EngineMetrics::to_prometheus)), each walking the same
//! ordered list of scalars and then the same four structured families.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::BufferPool;
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

/// How an exported scalar behaves over time: its Prometheus `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Only ever grows (between restarts).
    Counter,
    /// A level that may go either way.
    Gauge,
}

/// Declares the registry's own scalars, one line each: the variant, its
/// exported name, its kind, and the [`EngineMetrics`] field a snapshot
/// puts it in. The declaration order is the export order.
macro_rules! registry_scalars {
    ($($metric:ident => $name:literal, $kind:ident, $($field:ident).+;)+) => {
        /// A scalar the layers above storage record in the registry, through
        /// [`MetricsRegistry::add`] (a counter) or [`MetricsRegistry::set`]
        /// (a gauge).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $($metric),+
        }

        impl Metric {
            /// Every registry scalar, in export order.
            pub const ALL: [Metric; [$($name),+].len()] = [$(Metric::$metric),+];

            /// The exported name (`SHOW METRICS` row, JSON key).
            pub fn name(self) -> &'static str {
                match self {
                    $(Metric::$metric => $name),+
                }
            }

            pub fn kind(self) -> MetricKind {
                match self {
                    $(Metric::$metric => MetricKind::$kind),+
                }
            }
        }

        impl EngineMetrics {
            fn get(&self, metric: Metric) -> u64 {
                match metric {
                    $(Metric::$metric => self.$($field).+),+
                }
            }

            fn slot(&mut self, metric: Metric) -> &mut u64 {
                match metric {
                    $(Metric::$metric => &mut self.$($field).+),+
                }
            }
        }
    };
}

registry_scalars! {
    PlanCacheHits => "plan_cache.hits", Counter, plan_cache.hits;
    PlanCacheMisses => "plan_cache.misses", Counter, plan_cache.misses;
    PlanCacheEvictions => "plan_cache.evictions", Counter, plan_cache.evictions;
    PlanCacheInvalidations => "plan_cache.invalidations", Counter, plan_cache.invalidations;
    PlanCacheCapacity => "plan_cache.capacity", Gauge, plan_cache.capacity;
    CompileNs => "compile.ns", Counter, compile_ns;
    BatchRows => "batch.rows", Counter, batch.rows;
    BatchCount => "batch.count", Counter, batch.count;
    SortSpilledRuns => "sort.spilled_runs", Counter, batch.spilled_runs;
    SortSpillBytes => "sort.spill_bytes", Counter, batch.spill_bytes;
    AggSpilledPartitions => "agg.spilled_partitions", Counter, agg_spilled_partitions;
    ClusterPasses => "cluster.passes", Counter, cluster.passes;
    ClusterMovedObjects => "cluster.moved_objects", Counter, cluster.moved_objects;
}

/// Aggregates engine-wide counters; owned by the [`StorageManager`] and
/// shared with the query layer.
///
/// [`StorageManager`]: crate::StorageManager
pub struct MetricsRegistry {
    pool: Arc<BufferPool>,
    wal: Arc<Wal>,
    locks: Arc<LockManager>,
    /// The [`Metric`] scalars, indexed by variant.
    scalars: [AtomicU64; Metric::ALL.len()],
    operators: Mutex<BTreeMap<String, OperatorTotals>>,
    /// Per-class clustering factor gauges (last value wins), keyed by
    /// class name. Set after `CLUSTER` / `ANALYZE` recomputes the factor.
    cluster_factors: Mutex<BTreeMap<String, f64>>,
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
    /// condvars (pool contention, not transaction serialization): the
    /// `buffer_shard` and `buffer_checkout` wait events together.
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

/// One exported scalar's value.
#[derive(Debug, Clone, Copy)]
enum Value<'a> {
    Count(u64),
    /// A ratio in `[0, 1]`, shown with four decimals.
    Ratio(f64),
    /// A yes/no state and, when yes, why: a quoted string in JSON, 0/1 in
    /// Prometheus.
    Flag(bool, &'a str),
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Count(n) => write!(f, "{n}"),
            Value::Ratio(r) => write!(f, "{r:.4}"),
            Value::Flag(false, _) => f.write_str("no"),
            Value::Flag(true, reason) => write!(f, "yes ({reason})"),
        }
    }
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

    /// The one ordered list of scalars every export walks: the storage
    /// layer's, then the registry's own ([`Metric::ALL`]). The structured
    /// families (clustering factors, operators, waits, histograms) follow
    /// it in every format, in that order.
    fn scalars(&self) -> Vec<(&'static str, MetricKind, Value<'_>)> {
        use MetricKind::{Counter, Gauge};
        let (d, n) = (&self.disk, Value::Count);
        let mut out = vec![
            ("disk.seq_pages", Counter, n(d.seq_pages)),
            ("disk.rnd_pages", Counter, n(d.rnd_pages)),
            ("disk.idx_pages", Counter, n(d.idx_pages)),
            ("disk.writes", Counter, n(d.writes)),
            ("buffer.hits", Counter, n(d.buffer_hits)),
            ("buffer.misses", Counter, n(d.buffer_misses)),
            ("buffer.evictions", Counter, n(d.buffer_evictions)),
            ("buffer.hit_ratio", Gauge, Value::Ratio(self.buffer_hit_ratio())),
            ("buffer.wait_ns", Counter, n(self.buffer_wait_ns)),
            ("wal.appends", Counter, n(self.wal.appends)),
            ("wal.fsyncs", Counter, n(self.wal.forces)),
            ("wal.recovered_pages", Counter, n(self.wal.recovered)),
            ("lock.waits", Counter, n(self.lock_waits)),
            ("lock.timeouts", Counter, n(self.lock_timeouts)),
            ("lock.deadlocks", Counter, n(self.lock_deadlocks)),
            ("page.repairs", Counter, n(self.page_repairs)),
            ("io.retries", Counter, n(self.io_retries)),
            ("io.gave_up", Counter, n(self.io_gave_up)),
            ("storage.degraded", Gauge, Value::Flag(self.degraded, &self.degraded_reason)),
        ];
        out.extend(Metric::ALL.map(|m| (m.name(), m.kind(), n(self.get(m)))));
        out
    }

    /// Flatten into `(metric, value)` rows for tabular display. Stable
    /// order: the scalars, then clustering factors, operators, waits and
    /// histograms.
    pub fn rows(&self) -> Vec<(String, String)> {
        let scalars = self.scalars().into_iter();
        let scalars = scalars.map(|(name, _, value)| (name.to_string(), value.to_string()));
        let factors = self.cluster_factors.iter().map(|(class, factor)| {
            (format!("cluster.factor.{class}"), format!("{factor:.4}"))
        });
        let operators = self.operators.iter().map(|(name, t)| {
            let (calls, rows, pages, ms) = (t.invocations, t.rows, t.pages, t.nanos as f64 / 1e6);
            let v = format!("calls={calls} rows={rows} pages={pages} time={ms:.3}ms");
            (format!("operator.{name}"), v)
        });
        let waits = self.waits.iter().map(|w| {
            let v = format!("count={} time_ns={}", w.count, w.total_ns);
            (format!("wait.{}", w.event), v)
        });
        let histograms = self.histograms.iter().map(|(family, h)| {
            let v = format!(
                "count={} p50_ns={} p95_ns={} p99_ns={} max_ns={}",
                h.count,
                h.p50(),
                h.p95(),
                h.p99(),
                h.max
            );
            (format!("hist.{family}"), v)
        });
        scalars.chain(factors).chain(operators).chain(waits).chain(histograms).collect()
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
        let counters = self.scalars().into_iter().map(|(name, _, value)| match value {
            Value::Flag(..) => format!("\"{name}\":\"{}\"", json_escape(&value.to_string())),
            _ => format!("\"{name}\":{value}"),
        });
        let factors = self.cluster_factors.iter().map(|(class, factor)| {
            format!("{{\"class\":\"{}\",\"factor\":{factor}}}", json_escape(class))
        });
        let operators = self.operators.iter().map(|(name, t)| {
            format!(
                "{{\"name\":\"{}\",\"calls\":{},\"rows\":{},\"pages\":{},\"time_ns\":{}}}",
                json_escape(name),
                t.invocations,
                t.rows,
                t.pages,
                t.nanos
            )
        });
        let waits = self.waits.iter().map(|w| {
            let (e, count, ns) = (w.event, w.count, w.total_ns);
            format!("{{\"event\":\"{e}\",\"count\":{count},\"time_ns\":{ns}}}")
        });
        let histograms = self.histograms.iter().map(|(family, h)| {
            let buckets = h.nonzero_buckets().into_iter().map(|(ix, n)| format!("[{ix},{n}]"));
            format!(
                "{{\"family\":\"{family}\",\"count\":{},\"sum_ns\":{},\"max_ns\":{},\
                 \"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"buckets\":[{}]}}",
                h.count,
                h.sum,
                h.max,
                h.p50(),
                h.p95(),
                h.p99(),
                join(buckets)
            )
        });
        format!(
            "{{\"counters\":{{{}}},\"cluster_factors\":[{}],\"operators\":[{}],\"waits\":[{}],\
             \"histograms\":[{}]}}",
            join(counters),
            join(factors),
            join(operators),
            join(waits),
            join(histograms)
        )
    }

    /// Render the snapshot in the Prometheus text exposition format. Row
    /// names map to `mood_`-prefixed metric names with dots as underscores,
    /// each typed by its declared [`MetricKind`]; operators / waits / histogram
    /// families become labelled series, and each histogram additionally
    /// exports p50/p95/p99 as `quantile` labels (summary-style).
    pub fn to_prometheus(&self) -> String {
        let mut s = String::with_capacity(4096);
        for (name, kind, value) in self.scalars() {
            let name = format!("mood_{}", name.replace('.', "_"));
            let kind = match kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
            };
            let value = match value {
                Value::Flag(on, _) => u64::from(on).to_string(),
                _ => value.to_string(),
            };
            s.push_str(&format!("# TYPE {name} {kind}\n{name} {value}\n"));
        }
        s.push_str("# TYPE mood_cluster_factor gauge\n");
        for (class, factor) in &self.cluster_factors {
            let class = prom_escape(class);
            s.push_str(&format!("mood_cluster_factor{{class=\"{class}\"}} {factor}\n"));
        }
        let series = ["calls", "rows", "pages", "time_ns"];
        for field in series {
            s.push_str(&format!("# TYPE mood_operator_{field} counter\n"));
        }
        for (name, t) in &self.operators {
            let op = prom_escape(name);
            for (field, v) in series.iter().zip([t.invocations, t.rows, t.pages, t.nanos]) {
                s.push_str(&format!("mood_operator_{field}{{op=\"{op}\"}} {v}\n"));
            }
        }
        s.push_str("# TYPE mood_wait_count counter\n# TYPE mood_wait_time_ns counter\n");
        for w in &self.waits {
            let e = w.event;
            s.push_str(&format!("mood_wait_count{{event=\"{e}\"}} {}\n", w.count));
            s.push_str(&format!("mood_wait_time_ns{{event=\"{e}\"}} {}\n", w.total_ns));
        }
        s.push_str("# TYPE mood_latency_ns summary\n");
        for (family, h) in &self.histograms {
            for (q, v) in [(0.5, h.p50()), (0.95, h.p95()), (0.99, h.p99())] {
                let labels = format!("family=\"{family}\",quantile=\"{q}\"");
                s.push_str(&format!("mood_latency_ns{{{labels}}} {v}\n"));
            }
            for (name, v) in [("sum", h.sum), ("count", h.count), ("max", h.max)] {
                s.push_str(&format!("mood_latency_ns_{name}{{family=\"{family}\"}} {v}\n"));
            }
        }
        s
    }
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(",")
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
    /// The registry over a storage manager's components. Everything the
    /// pool, WAL and lock manager record — through the pool's
    /// [`DiskMetrics`] handle, which the other two were built with — is
    /// read back at [`snapshot`](Self::snapshot).
    pub fn new(pool: Arc<BufferPool>, wal: Arc<Wal>, locks: Arc<LockManager>) -> Self {
        MetricsRegistry {
            pool,
            wal,
            locks,
            scalars: std::array::from_fn(|_| AtomicU64::new(0)),
            operators: Mutex::new(BTreeMap::new()),
            cluster_factors: Mutex::new(BTreeMap::new()),
            statements: StatementStats::default(),
            slow_log: SlowQueryLog::default(),
        }
    }

    /// Add `n` to a counter.
    pub fn add(&self, metric: Metric, n: u64) {
        self.scalars[metric as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Publish a gauge's current value.
    pub fn set(&self, metric: Metric, value: u64) {
        self.scalars[metric as usize].store(value, Ordering::Relaxed);
    }

    /// The latency histograms and wait events (the pool's handle's).
    pub fn telemetry(&self) -> &Telemetry {
        self.pool.metrics().telemetry()
    }

    /// Per-statement aggregates (`SHOW STATEMENTS`).
    pub fn statements(&self) -> Vec<StatementStat> {
        self.statements.snapshot()
    }

    /// The slow-query ring (oldest first).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log.entries()
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
        self.telemetry().record_hist(HistFamily::Statement, elapsed_ns);
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
        self.pool.metrics()
    }

    /// Fold one operator execution into the lifetime totals (and the
    /// operator-latency histogram).
    pub fn record_operator(&self, name: &str, rows: u64, pages: u64, nanos: u64) {
        self.telemetry().record_hist(HistFamily::Operator, nanos);
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

    /// Publish a class's clustering factor gauge (last value wins).
    pub fn set_cluster_factor(&self, class: &str, factor: f64) {
        self.cluster_factors
            .lock()
            .insert(class.to_string(), factor.clamp(0.0, 1.0));
    }

    /// Snapshot every counter the registry aggregates.
    pub fn snapshot(&self) -> EngineMetrics {
        let health = self.pool.health();
        let retry = self.pool.disk().retry_stats();
        let (io_retries, io_gave_up, backoff_ns) =
            retry.map_or((0, 0, 0), |r| (r.retries(), r.gave_up(), r.backoff_ns()));
        let telemetry = self.telemetry();
        // RetryDisk keeps its own backoff clock (the disk stack is built
        // before any metrics handle); fold it into the wait-event row here.
        let mut waits = telemetry.wait_snapshots();
        let backoff = &mut waits[WaitEvent::DiskRetryBackoff as usize];
        backoff.count += io_retries;
        backoff.total_ns += backoff_ns;
        let buffer_wait_ns = [WaitEvent::BufferShard, WaitEvent::BufferCheckout]
            .iter()
            .map(|e| waits[*e as usize].total_ns)
            .sum();
        let mut m = EngineMetrics {
            disk: self.pool.metrics().snapshot(),
            wal: self.wal.stats(),
            buffer_wait_ns,
            lock_waits: self.locks.wait_count(),
            lock_timeouts: self.locks.timeout_count(),
            lock_deadlocks: self.locks.deadlock_count(),
            page_repairs: health.page_repairs(),
            io_retries,
            io_gave_up,
            degraded: health.is_degraded(),
            degraded_reason: health.reason(),
            cluster_factors: self
                .cluster_factors
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            operators: self
                .operators
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            waits,
            histograms: telemetry
                .hist_snapshots()
                .into_iter()
                .map(|(name, h)| (name.to_string(), h))
                .collect(),
            ..EngineMetrics::default()
        };
        for metric in Metric::ALL {
            *m.slot(metric) = self.scalars[metric as usize].load(Ordering::Relaxed);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::disk::{Disk, MemDisk, RetryDisk, RetryStats};
    use crate::metrics::AccessKind;
    use crate::wal::MemLog;

    /// A registry over a bare pool on `disk`, its WAL and lock manager
    /// built with the pool's handle as a storage manager builds them.
    fn registry_over(disk: Arc<dyn Disk>) -> MetricsRegistry {
        let metrics = DiskMetrics::new();
        let wal = Wal::new(Box::new(MemLog::new()), metrics.clone());
        let locks = LockManager::new(Duration::from_millis(200), metrics.clone());
        let pool = BufferPool::new(disk, 4, metrics);
        MetricsRegistry::new(Arc::new(pool), Arc::new(wal), Arc::new(locks))
    }

    fn registry() -> MetricsRegistry {
        registry_over(Arc::new(MemDisk::new()))
    }

    /// A registry whose disk stack has a retry layer, and that layer's
    /// counters.
    fn registry_with_retries() -> (MetricsRegistry, Arc<RetryStats>) {
        let disk = RetryDisk::new(MemDisk::new());
        let stats = disk.stats();
        (registry_over(Arc::new(disk)), stats)
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
        r.add(Metric::PlanCacheMisses, 1);
        r.add(Metric::PlanCacheMisses, 1);
        r.add(Metric::PlanCacheHits, 1);
        r.add(Metric::PlanCacheEvictions, 1);
        r.add(Metric::PlanCacheInvalidations, 1);
        r.add(Metric::CompileNs, 1_500);
        r.add(Metric::CompileNs, 500);
        r.set(Metric::PlanCacheCapacity, 128);
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
        for rows in [1024, 7, 1] {
            r.add(Metric::BatchRows, rows);
            r.add(Metric::BatchCount, 1);
        }
        for bytes in [4096, 512] {
            r.add(Metric::SortSpilledRuns, 1);
            r.add(Metric::SortSpillBytes, bytes);
        }
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
        for moved in [120, 0] {
            r.add(Metric::ClusterPasses, 1);
            r.add(Metric::ClusterMovedObjects, moved);
        }
        r.add(Metric::AggSpilledPartitions, 1);
        r.add(Metric::AggSpilledPartitions, 1);
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
        let (r, retry) = registry_with_retries();
        // Untouched: healthy defaults.
        let snap = r.snapshot();
        assert!(!snap.degraded);
        assert_eq!((snap.page_repairs, snap.io_retries, snap.io_gave_up), (0, 0, 0));
        let rows = snap.rows();
        assert!(rows.iter().any(|(k, v)| k == "storage.degraded" && v == "no"));
        assert!(rows.iter().any(|(k, v)| k == "lock.deadlocks" && v == "0"));
        // The pool's health and the retry layer's counters feed through.
        r.pool.health().mark_degraded("disk on fire");
        retry.io_retries.fetch_add(3, Ordering::Relaxed);
        retry.io_gave_up.fetch_add(1, Ordering::Relaxed);
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
        let (r, retry) = registry_with_retries();
        retry.io_retries.fetch_add(4, Ordering::Relaxed);
        retry.add_backoff_ns(7_000_000);
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
