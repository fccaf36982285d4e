//! Engine telemetry: latency distributions and wait-event attribution.
//!
//! The counters the registry aggregates say *how much* work the engine did;
//! this module says *how long* it took and *where the time went*:
//!
//! * [`LatencyHistogram`] — an HDR-style log-bucketed histogram over
//!   nanosecond observations. Buckets are plain `AtomicU64`s, so recording
//!   is lock-free and safe from any thread; snapshots are mergeable and
//!   report p50/p95/p99/max with a bounded relative error of 1/2⁣³ (one
//!   sub-bucket out of eight per octave).
//! * [`WaitEvent`] — the taxonomy of blocking sites in the storage layer.
//!   Every place a thread can stall (buffer shard lock, checkout condvar,
//!   lock-manager queue, disk-retry backoff, WAL fsync) tags its blocked
//!   time to exactly one event, so `SHOW WAITS` decomposes wall-clock the
//!   way PR 3's page accounting decomposes I/O: Σ parts ≤ whole.
//! * [`StatementStats`] — pg_stat_statements-style per-statement
//!   aggregates keyed by statement shape (the plan-cache key), each entry
//!   carrying its own latency histogram for per-statement p99.
//! * [`SlowQueryLog`] — a bounded ring of statements that exceeded the
//!   session's slow-query threshold, each with its captured
//!   `EXPLAIN ANALYZE` tree.
//!
//! One [`Telemetry`] instance is shared by the buffer pool, WAL, lock
//! manager and the metrics registry, exactly like the [`DiskMetrics`]
//! handle — and with the same discipline: a snapshot's bucket counts always
//! sum to its observation count, no matter how many threads recorded.
//!
//! [`DiskMetrics`]: crate::metrics::DiskMetrics

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Sub-bucket precision bits: 2³ = 8 sub-buckets per power-of-two octave,
/// bounding the relative quantile error at 12.5%.
const SUB_BITS: u32 = 3;
const SUB_COUNT: u64 = 1 << SUB_BITS;
const SUB_MASK: u64 = SUB_COUNT - 1;
/// Bucket count covering the full `u64` range: values below 2³ get exact
/// buckets, every octave above contributes 8, up to the 63-bit octave.
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + (1 << SUB_BITS);

/// Bucket index for an observation (log-bucketed, 8 sub-buckets/octave).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (value >> shift) & SUB_MASK;
    (((msb - SUB_BITS + 1) << SUB_BITS) + sub as u32) as usize
}

/// Largest value that maps to `index` — the bucket's inclusive upper bound.
#[inline]
pub fn bucket_upper(index: usize) -> u64 {
    if index < SUB_COUNT as usize {
        return index as u64;
    }
    let octave = (index as u32) >> SUB_BITS;
    let sub = index as u64 & SUB_MASK;
    let msb = octave + SUB_BITS - 1;
    let shift = msb - SUB_BITS;
    // The very last bucket's bound is 2^64 - 1: the sum wraps to exactly
    // zero and the decrement lands on u64::MAX.
    (1u64 << msb)
        .wrapping_add((sub + 1) << shift)
        .wrapping_sub(1)
}

/// Lock-free log-bucketed latency histogram (nanosecond observations).
///
/// `record` touches one bucket counter, a sum and a max — all atomics, no
/// locks — so it is safe on the hottest paths. `snapshot` reads the buckets
/// once and derives the count from their sum, so the *bucket counts always
/// sum to the observation count* even when snapshots race with recorders.
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation (nanoseconds).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Point-in-time snapshot (mergeable; quantiles are derived from it).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A consistent view of a [`LatencyHistogram`]: per-bucket counts plus the
/// derived total. `count` is always the sum of `buckets`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Merge another snapshot into this one (bucket-wise addition). Merging
    /// is associative and commutative, so shard- or thread-local histograms
    /// fold into process totals in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Quantile estimate: the upper bound of the bucket holding the ranked
    /// observation, clamped to the recorded max (so `quantile(1.0) == max`
    /// up to bucket resolution). Returns 0 on an empty snapshot; the result
    /// is monotone non-decreasing in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (ix, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(ix).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Sparse `(bucket index, count)` pairs — the export wire format.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(ix, &n)| (ix, n))
            .collect()
    }
}

/// Every blocking site in the storage layer. A stalled thread charges its
/// blocked time to exactly one of these, so the `SHOW WAITS` rows decompose
/// where wall-clock went (and only genuine *waiting* is counted — useful
/// work like the disk transfer itself lands in the latency histograms, not
/// here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitEvent {
    /// Blocked acquiring a buffer-pool shard mutex (pool contention).
    BufferShard,
    /// Blocked on a shard's condvar for a checked-out page to come back.
    BufferCheckout,
    /// Blocked in the lock manager's queue behind an incompatible holder.
    LockQueue,
    /// Sleeping in a RetryDisk backoff between I/O retry attempts.
    DiskRetryBackoff,
    /// Blocked in the WAL's commit force (log fsync).
    WalFsync,
}

impl WaitEvent {
    pub const ALL: [WaitEvent; 5] = [
        WaitEvent::BufferShard,
        WaitEvent::BufferCheckout,
        WaitEvent::LockQueue,
        WaitEvent::DiskRetryBackoff,
        WaitEvent::WalFsync,
    ];

    /// Stable snake_case name (metric label and `SHOW WAITS` row).
    pub fn name(self) -> &'static str {
        match self {
            WaitEvent::BufferShard => "buffer_shard",
            WaitEvent::BufferCheckout => "buffer_checkout",
            WaitEvent::LockQueue => "lock_queue",
            WaitEvent::DiskRetryBackoff => "disk_retry_backoff",
            WaitEvent::WalFsync => "wal_fsync",
        }
    }

    fn ix(self) -> usize {
        match self {
            WaitEvent::BufferShard => 0,
            WaitEvent::BufferCheckout => 1,
            WaitEvent::LockQueue => 2,
            WaitEvent::DiskRetryBackoff => 3,
            WaitEvent::WalFsync => 4,
        }
    }
}

/// The latency-histogram families the engine maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistFamily {
    /// End-to-end statement latency (recorded by the SQL session).
    Statement,
    /// Per-operator execution time (recorded with operator totals).
    Operator,
    /// One physical page read off the disk.
    DiskRead,
    /// One physical page write-back.
    DiskWrite,
    /// One disk sync (pool flush / checkpoint).
    DiskFsync,
    /// One WAL record append.
    WalAppend,
    /// One lock-manager acquire (fast grants and queued waits alike).
    LockAcquire,
}

impl HistFamily {
    pub const ALL: [HistFamily; 7] = [
        HistFamily::Statement,
        HistFamily::Operator,
        HistFamily::DiskRead,
        HistFamily::DiskWrite,
        HistFamily::DiskFsync,
        HistFamily::WalAppend,
        HistFamily::LockAcquire,
    ];

    /// Stable snake_case name (metric label and `hist.*` row).
    pub fn name(self) -> &'static str {
        match self {
            HistFamily::Statement => "statement",
            HistFamily::Operator => "operator",
            HistFamily::DiskRead => "disk_read",
            HistFamily::DiskWrite => "disk_write",
            HistFamily::DiskFsync => "disk_fsync",
            HistFamily::WalAppend => "wal_append",
            HistFamily::LockAcquire => "lock_acquire",
        }
    }

    fn ix(self) -> usize {
        match self {
            HistFamily::Statement => 0,
            HistFamily::Operator => 1,
            HistFamily::DiskRead => 2,
            HistFamily::DiskWrite => 3,
            HistFamily::DiskFsync => 4,
            HistFamily::WalAppend => 5,
            HistFamily::LockAcquire => 6,
        }
    }
}

/// One wait-event row: how often the event fired and the total blocked
/// nanoseconds charged to it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaitSnapshot {
    pub event: &'static str,
    pub count: u64,
    pub total_ns: u64,
}

/// The shared telemetry sink: one histogram per [`HistFamily`], one
/// count/time pair per [`WaitEvent`]. All atomics — recording never blocks.
pub struct Telemetry {
    hists: Vec<LatencyHistogram>,
    wait_count: [AtomicU64; 5],
    wait_ns: [AtomicU64; 5],
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    pub fn new() -> Self {
        Telemetry {
            hists: (0..HistFamily::ALL.len())
                .map(|_| LatencyHistogram::new())
                .collect(),
            wait_count: std::array::from_fn(|_| AtomicU64::new(0)),
            wait_ns: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one observation (nanoseconds) into a histogram family.
    #[inline]
    pub fn record_hist(&self, family: HistFamily, nanos: u64) {
        self.hists[family.ix()].record(nanos);
    }

    /// Charge blocked time to a wait event.
    #[inline]
    pub fn record_wait(&self, event: WaitEvent, nanos: u64) {
        self.wait_count[event.ix()].fetch_add(1, Ordering::Relaxed);
        self.wait_ns[event.ix()].fetch_add(nanos, Ordering::Relaxed);
    }

    pub fn hist_snapshot(&self, family: HistFamily) -> HistogramSnapshot {
        self.hists[family.ix()].snapshot()
    }

    /// All histogram families, in [`HistFamily::ALL`] order.
    pub fn hist_snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        HistFamily::ALL
            .iter()
            .map(|f| (f.name(), self.hists[f.ix()].snapshot()))
            .collect()
    }

    /// All wait events, in [`WaitEvent::ALL`] order.
    pub fn wait_snapshots(&self) -> Vec<WaitSnapshot> {
        WaitEvent::ALL
            .iter()
            .map(|e| WaitSnapshot {
                event: e.name(),
                count: self.wait_count[e.ix()].load(Ordering::Relaxed),
                total_ns: self.wait_ns[e.ix()].load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Total blocked nanoseconds across every wait event.
    pub fn total_wait_ns(&self) -> u64 {
        self.wait_ns.iter().map(|n| n.load(Ordering::Relaxed)).sum()
    }
}

/// A shareable late-bound `Arc<Telemetry>` slot. Components are constructed
/// before the registry that owns the shared instance, so they carry one of
/// these and the storage manager fills it in during wiring; an unset slot
/// records nothing.
#[derive(Default)]
pub struct TelemetrySlot(Mutex<Option<Arc<Telemetry>>>);

impl TelemetrySlot {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&self, telemetry: Arc<Telemetry>) {
        *self.0.lock() = Some(telemetry);
    }

    /// The shared instance, if wired (cheap clone of the Arc).
    #[inline]
    pub fn get(&self) -> Option<Arc<Telemetry>> {
        self.0.lock().clone()
    }
}

/// Aggregated lifetime statistics for one statement shape.
#[derive(Debug, Clone, PartialEq)]
pub struct StatementStat {
    /// The statement's shape (the plan-cache key): its text with layout
    /// folded and the literal operands of `=` replaced by `$n`.
    pub sql: String,
    /// Executions recorded.
    pub calls: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    /// p99 latency from the statement's own histogram.
    pub p99_ns: u64,
    /// Result rows (SELECT) or affected rows (DML), summed.
    pub rows: u64,
    /// Page accesses (reads + writes) attributed to the statement.
    pub pages: u64,
    /// Executions served by the session plan cache.
    pub cache_hits: u64,
}

struct StatementEntry {
    calls: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    rows: u64,
    pages: u64,
    cache_hits: u64,
    /// Per-statement latency buckets (same layout as [`LatencyHistogram`];
    /// plain u64s — the map mutex already serializes writers).
    buckets: Vec<u64>,
}

impl StatementEntry {
    fn new() -> StatementEntry {
        StatementEntry {
            calls: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            rows: 0,
            pages: 0,
            cache_hits: 0,
            buckets: vec![0; NUM_BUCKETS],
        }
    }

    fn add(&mut self, elapsed_ns: u64, rows: u64, pages: u64, cached: bool) {
        self.calls += 1;
        self.total_ns += elapsed_ns;
        self.min_ns = self.min_ns.min(elapsed_ns);
        self.max_ns = self.max_ns.max(elapsed_ns);
        self.rows += rows;
        self.pages += pages;
        self.cache_hits += u64::from(cached);
        self.buckets[bucket_index(elapsed_ns)] += 1;
    }

    fn p99_ns(&self) -> u64 {
        let rank = ((0.99 * self.calls as f64).ceil() as u64).clamp(1, self.calls.max(1));
        let mut seen = 0u64;
        for (ix, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(ix).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

/// Bound on distinct tracked statements; at capacity the quarter with the
/// least total time is evicted in one pass (hot statements survive, and a
/// stream of new keys pays one scan per `STATEMENT_CAP / 4` of them).
const STATEMENT_CAP: usize = 256;

/// pg_stat_statements-style per-statement aggregation, keyed by statement
/// shape. The session records every completed statement here.
#[derive(Default)]
pub struct StatementStats {
    map: Mutex<HashMap<String, StatementEntry>>,
}

impl StatementStats {
    /// Fold one completed execution into the keyed aggregate. A key seen
    /// before — every execution of a shape after its first — costs one map
    /// lookup and allocates nothing.
    pub fn record(&self, key: &str, elapsed_ns: u64, rows: u64, pages: u64, cached: bool) {
        let mut map = self.map.lock();
        if let Some(e) = map.get_mut(key) {
            e.add(elapsed_ns, rows, pages, cached);
            return;
        }
        if map.len() >= STATEMENT_CAP {
            let mut totals: Vec<u64> = map.values().map(|e| e.total_ns).collect();
            let mut quota = STATEMENT_CAP / 4;
            let cutoff = *totals.select_nth_unstable(quota - 1).1;
            map.retain(|_, e| {
                let evict = quota > 0 && e.total_ns <= cutoff;
                quota -= usize::from(evict);
                !evict
            });
        }
        let mut e = StatementEntry::new();
        e.add(elapsed_ns, rows, pages, cached);
        map.insert(key.to_string(), e);
    }

    /// Every tracked statement, most total time first.
    pub fn snapshot(&self) -> Vec<StatementStat> {
        let map = self.map.lock();
        let mut out: Vec<StatementStat> = map
            .iter()
            .map(|(sql, e)| StatementStat {
                sql: sql.clone(),
                calls: e.calls,
                total_ns: e.total_ns,
                min_ns: if e.min_ns == u64::MAX { 0 } else { e.min_ns },
                max_ns: e.max_ns,
                p99_ns: e.p99_ns(),
                rows: e.rows,
                pages: e.pages,
                cache_hits: e.cache_hits,
            })
            .collect();
        out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.sql.cmp(&b.sql)));
        out
    }

    pub fn clear(&self) {
        self.map.lock().clear();
    }
}

/// One captured slow statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowQuery {
    /// Monotone capture sequence number (newer = larger).
    pub seq: u64,
    /// Normalized SQL text.
    pub sql: String,
    pub elapsed_ns: u64,
    pub rows: u64,
    pub pages: u64,
    /// The `EXPLAIN ANALYZE` tree, when the statement shape allows a
    /// capture (SELECTs; DML records the scalars only).
    pub plan: Option<String>,
}

/// Default number of retained slow-query entries.
pub const SLOW_LOG_DEFAULT_CAPACITY: usize = 32;

/// Bounded ring of slow statements, newest last. Overflow drops the oldest
/// entry and counts it, so saturation is visible.
pub struct SlowQueryLog {
    entries: Mutex<VecDeque<SlowQuery>>,
    capacity: AtomicU64,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl Default for SlowQueryLog {
    fn default() -> Self {
        Self::new(SLOW_LOG_DEFAULT_CAPACITY)
    }
}

impl SlowQueryLog {
    pub fn new(capacity: usize) -> Self {
        SlowQueryLog {
            entries: Mutex::new(VecDeque::new()),
            capacity: AtomicU64::new(capacity.max(1) as u64),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Change the retention bound (existing overflow is trimmed & counted).
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity.max(1) as u64, Ordering::Relaxed);
        let mut entries = self.entries.lock();
        while entries.len() > capacity.max(1) {
            entries.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Append a capture; assigns and returns its sequence number.
    pub fn push(
        &self,
        sql: String,
        elapsed_ns: u64,
        rows: u64,
        pages: u64,
        plan: Option<String>,
    ) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let cap = self.capacity.load(Ordering::Relaxed) as usize;
        let mut entries = self.entries.lock();
        while entries.len() >= cap {
            entries.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        entries.push_back(SlowQuery {
            seq,
            sql,
            elapsed_ns,
            rows,
            pages,
            plan,
        });
        seq
    }

    /// Retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQuery> {
        self.entries.lock().iter().cloned().collect()
    }

    /// Entries evicted by overflow over the log's lifetime.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_tight_and_total() {
        // Exact buckets below 2^SUB_BITS.
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
        // Every probe lands in a bucket whose bounds contain it, with
        // relative width <= 1/8.
        let probes: Vec<u64> = (0..63)
            .flat_map(|b| {
                let base = 1u64 << b;
                [base, base + 1, base + base / 3, base * 2 - 1]
            })
            .chain([0, 7, 8, 9, u64::MAX / 2, u64::MAX])
            .collect();
        for &v in &probes {
            let ix = bucket_index(v);
            assert!(ix < NUM_BUCKETS, "index {ix} out of range for {v}");
            let upper = bucket_upper(ix);
            assert!(upper >= v, "upper {upper} < value {v}");
            if v >= 8 {
                assert!(
                    upper - v <= v / 8,
                    "bucket too wide at {v}: upper {upper}"
                );
                // And the previous bucket ends strictly below v.
                assert!(bucket_upper(ix - 1) < v);
            }
        }
        // Bucket uppers are strictly increasing: buckets partition the range.
        for ix in 1..NUM_BUCKETS {
            assert!(bucket_upper(ix) > bucket_upper(ix - 1), "at {ix}");
        }
    }

    #[test]
    fn histogram_records_and_reports_quantiles() {
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        // Quantiles carry at most one bucket (12.5%) of upward error.
        let p50 = s.p50();
        assert!((500..=563).contains(&p50), "p50 {p50}");
        let p99 = s.p99();
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(s.quantile(1.0), 1000, "top quantile clamps to max");
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let h = LatencyHistogram::new();
        let mut x = 1u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            h.record(x % 1_000_000);
        }
        let s = h.snapshot();
        let mut last = 0u64;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = s.quantile(q);
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            last = v;
        }
        assert!(last <= s.max);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let h = LatencyHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 10, 100, 1000]);
        let b = mk(&[5, 50, u64::MAX]);
        let c = mk(&[0, 0, 7, 123_456_789]);
        // (a + b) + c
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");
        // b + a == a + b
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab_c.count, 11);
        assert_eq!(
            ab_c.buckets.iter().sum::<u64>(),
            ab_c.count,
            "bucket counts sum to observation count after merges"
        );
    }

    #[test]
    fn concurrent_records_sum_exactly() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * 1_000 + i % 997);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, THREADS * PER_THREAD);
        assert_eq!(
            snap.buckets.iter().sum::<u64>(),
            snap.count,
            "bucket counts must sum to the observation count"
        );
    }

    #[test]
    fn wait_events_accumulate_by_site() {
        let t = Telemetry::new();
        t.record_wait(WaitEvent::BufferShard, 100);
        t.record_wait(WaitEvent::BufferShard, 50);
        t.record_wait(WaitEvent::WalFsync, 1_000);
        let waits = t.wait_snapshots();
        assert_eq!(waits.len(), WaitEvent::ALL.len());
        let shard = waits.iter().find(|w| w.event == "buffer_shard").unwrap();
        assert_eq!((shard.count, shard.total_ns), (2, 150));
        let fsync = waits.iter().find(|w| w.event == "wal_fsync").unwrap();
        assert_eq!((fsync.count, fsync.total_ns), (1, 1_000));
        assert_eq!(t.total_wait_ns(), 1_150);
    }

    #[test]
    fn statement_stats_aggregate_and_rank() {
        let s = StatementStats::default();
        s.record("SELECT a", 1_000, 10, 2, false);
        s.record("SELECT a", 3_000, 10, 2, true);
        s.record("SELECT b", 500, 1, 0, false);
        let snap = s.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].sql, "SELECT a", "ranked by total time");
        let a = &snap[0];
        assert_eq!(a.calls, 2);
        assert_eq!(a.total_ns, 4_000);
        assert_eq!((a.min_ns, a.max_ns), (1_000, 3_000));
        assert_eq!(a.rows, 20);
        assert_eq!(a.pages, 4);
        assert_eq!(a.cache_hits, 1);
        assert!(a.p99_ns >= 3_000 && a.p99_ns <= 3_000 + 3_000 / 8, "{}", a.p99_ns);
    }

    #[test]
    fn statement_cap_evicts_cheapest() {
        let s = StatementStats::default();
        s.record("expensive", 1_000_000, 0, 0, false);
        for i in 0..STATEMENT_CAP + 10 {
            s.record(&format!("q{i}"), 10, 0, 0, false);
        }
        let snap = s.snapshot();
        assert!(snap.len() <= STATEMENT_CAP);
        assert!(
            snap.len() > STATEMENT_CAP / 2,
            "eviction takes a quarter, ties included, never the lot: {}",
            snap.len()
        );
        assert!(
            snap.iter().any(|e| e.sql == "expensive"),
            "the hot statement must survive eviction"
        );
    }

    #[test]
    fn slow_log_rings_and_counts_drops() {
        let log = SlowQueryLog::new(2);
        log.push("q1".into(), 10, 0, 0, None);
        log.push("q2".into(), 20, 0, 0, Some("PLAN".into()));
        log.push("q3".into(), 30, 0, 0, None);
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].sql, "q2");
        assert_eq!(entries[1].sql, "q3");
        assert_eq!(log.dropped(), 1);
        assert!(entries[1].seq > entries[0].seq);
        log.set_capacity(1);
        assert_eq!(log.entries().len(), 1);
        assert_eq!(log.dropped(), 2);
    }
}
