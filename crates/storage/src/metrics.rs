//! Disk-access instrumentation and the paper's physical disk model.
//!
//! The MOOD optimizer's cost formulas (Sections 5 and 6) are expressed in
//! page accesses weighted by the Table 10 physical parameters. The authors'
//! testbed disk is unavailable (and Table 10's numeric values were never
//! published), so we *instrument* every page access instead: each operation
//! scope counts sequential and random page reads/writes, and
//! [`PhysicalParams`] converts those counts into modelled seconds. Benches
//! report both wall-clock and modelled cost, which is what lets the
//! reproduction compare measured access patterns against the paper's cost
//! formulas on equal footing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::ThreadId;

use parking_lot::Mutex;

use crate::page::PAGE_SIZE;

/// Physical disk parameters — the paper's Table 10.
///
/// * `block` — block size `B` in bytes,
/// * `btt` — block transfer time,
/// * `ebt` — effective block transfer time (sequential, amortized),
/// * `rot` — average rotational latency `r`,
/// * `seek` — average seek time `s`.
///
/// All times in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalParams {
    pub block: usize,
    pub btt: f64,
    pub ebt: f64,
    pub rot: f64,
    pub seek: f64,
}

impl PhysicalParams {
    /// Era-plausible values following Salzberg's *File Structures* (1988):
    /// a 4 KB block, 16 ms average seek, 8.3 ms rotational latency
    /// (3600 rpm), 1.4 MB/s sustained transfer.
    pub fn salzberg_1988() -> Self {
        let btt = PAGE_SIZE as f64 / 1.4e6;
        PhysicalParams {
            block: PAGE_SIZE,
            btt,
            ebt: btt,
            rot: 8.3e-3,
            seek: 16.0e-3,
        }
    }

    /// Calibrated so the Table 16 forward-traversal cost of path P2
    /// (`v.company.name`) equals the paper's 520.825: the only free
    /// parameter the formula exposes is `u = s + r + btt`, and
    /// `F2 = RNDCOST(nbpg_c) + RNDCOST(|Vehicle| * fan) ≈ 22000 * u`
    /// gives `u = 23.674 ms`. `ebt` is set to `btt` (ESM stores files as
    /// B+-trees, making sequential and random access equal in cost, as the
    /// paper notes in Section 5).
    pub fn paper_calibrated() -> Self {
        // nbpg_c = nbpages(Vehicle) * (1 - (1 - 1/nbpages)^|Vehicle|), the
        // Section 6.1 page-hit estimate with the Table 13 statistics.
        let nbpg_c = 2000.0 * (1.0 - (1.0 - 1.0 / 2000.0_f64).powi(20000));
        let u = 520.825 / (nbpg_c + 20_000.0);
        // Split u across seek/rot/btt in era-typical proportions; only the
        // sum matters to RNDCOST.
        let seek = u * 0.60;
        let rot = u * 0.30;
        let btt = u * 0.10;
        PhysicalParams {
            block: PAGE_SIZE,
            btt,
            ebt: btt,
            rot,
            seek,
        }
    }

    /// Cost of one random page access: `s + r + btt`.
    pub fn random_page(&self) -> f64 {
        self.seek + self.rot + self.btt
    }

    /// SEQCOST(b) — Section 5: one seek + latency, then `b` effective
    /// transfers.
    pub fn seq_cost(&self, pages: f64) -> f64 {
        if pages <= 0.0 {
            return 0.0;
        }
        self.seek + self.rot + pages * self.ebt
    }

    /// RNDCOST(b) — Section 5.
    pub fn rnd_cost(&self, pages: f64) -> f64 {
        pages.max(0.0) * self.random_page()
    }

    /// SEQCOST with readahead batching: `b` pages fetched in contiguous
    /// batches of (at most) `k` pay one seek + latency per *batch* instead
    /// of per page-run — `ceil(b/k) * (s + r) + b * ebt`.
    pub fn seq_cost_batched(&self, pages: f64, batch: u32) -> f64 {
        if pages <= 0.0 {
            return 0.0;
        }
        let k = batch.max(1) as f64;
        (pages / k).ceil() * (self.seek + self.rot) + pages * self.ebt
    }

    /// Modelled time for a recorded access pattern.
    pub fn time(&self, snapshot: &MetricsSnapshot) -> f64 {
        // Each sequential *batch* pays one seek + latency; individual pages
        // in the batch pay `ebt`. Accesses recorded before readahead
        // batching existed have `seq_batches == 0` and count as one run.
        // Random pages pay the full `s + r + btt`.
        let seq = if snapshot.seq_pages > 0 {
            let runs = snapshot.seq_batches.max(1) as f64;
            runs * (self.seek + self.rot) + snapshot.seq_pages as f64 * self.ebt
        } else {
            0.0
        };
        seq + self.rnd_cost((snapshot.rnd_pages + snapshot.idx_pages) as f64)
            + self.rnd_cost(snapshot.writes as f64)
    }
}

impl Default for PhysicalParams {
    fn default() -> Self {
        PhysicalParams::salzberg_1988()
    }
}

/// Category of a page access, chosen by the *caller* (the file/index layer
/// knows whether it is scanning or probing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Page touched as part of a sequential scan run.
    Sequential,
    /// Page fetched by direct addressing (OID chase, hash probe).
    Random,
    /// Page fetched while descending or scanning an index.
    Index,
}

/// How a caller intends to walk a collection — chosen at the scan entry
/// points (extent binds, nested-loop rebinds) and threaded down to the
/// heap/buffer layer, where it selects the [`AccessKind`] recorded per page
/// and decides whether readahead and cold (scan-resistant) frame insertion
/// apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessHint {
    /// A front-to-back sweep: pages are classified [`AccessKind::Sequential`],
    /// prefetched in contiguous batches, and cached at the clock's cold
    /// position so the sweep cannot flush the hot set.
    Sequential,
    /// Unordered or selective access: pages are classified
    /// [`AccessKind::Random`], no readahead, normal (hot) caching.
    Random,
}

impl AccessHint {
    /// The [`AccessKind`] recorded for pages read under this hint.
    pub fn kind(self) -> AccessKind {
        match self {
            AccessHint::Sequential => AccessKind::Sequential,
            AccessHint::Random => AccessKind::Random,
        }
    }
}

/// Shared counters. Cloning shares the underlying counters (Arc).
///
/// Besides the process-wide totals, every access is also attributed to the
/// recording thread, so parallel operators can report how page work was
/// distributed across their workers. The totals are always the sum of the
/// per-thread counts — parallel execution redistributes accesses between
/// threads but must never change the totals the cost model is checked
/// against.
///
/// A thread finds its own block without a lock: the registry is locked
/// only the first time a thread records (per instance, per [`reset`]),
/// after which the block sits in a thread-local. A pool worker folds its
/// block into the one *retired* block when its chunk returns
/// ([`retire_thread`]), so the registry holds the threads that are alive,
/// not every thread that ever ran.
///
/// [`reset`]: DiskMetrics::reset
#[derive(Debug, Default, Clone)]
pub struct DiskMetrics {
    shared: Arc<Shared>,
}

#[derive(Debug, Default)]
struct Shared {
    totals: Counters,
    /// Bumped by `reset`: a thread-local block is good for one generation.
    generation: AtomicU64,
    registry: Mutex<Registry>,
}

#[derive(Debug, Default)]
struct Registry {
    live: HashMap<ThreadId, Arc<Counters>>,
    /// The summed counts of workers that have finished.
    retired: MetricsSnapshot,
}

/// The calling thread's block in one `DiskMetrics` instance.
struct Block {
    shared: Weak<Shared>,
    generation: u64,
    counters: Arc<Counters>,
}

thread_local! {
    static BLOCKS: RefCell<Vec<Block>> = const { RefCell::new(Vec::new()) };
}

/// Fold the calling thread's counts into the retired block of every
/// instance it recorded to, and forget the thread there: what a pool
/// worker does when its chunk returns.
pub(crate) fn retire_thread() {
    let id = std::thread::current().id();
    for block in BLOCKS.take() {
        let Some(shared) = block.shared.upgrade() else {
            continue;
        };
        let mut registry = shared.registry.lock();
        if let Some(counters) = registry.live.remove(&id) {
            let counts = DiskMetrics::snapshot_of(&counters);
            registry.retired = registry.retired.plus(&counts);
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    seq_pages: AtomicU64,
    seq_batches: AtomicU64,
    rnd_pages: AtomicU64,
    idx_pages: AtomicU64,
    writes: AtomicU64,
    buffer_hits: AtomicU64,
    buffer_misses: AtomicU64,
    buffer_evictions: AtomicU64,
}

/// A point-in-time copy of the counters (or a delta between two points).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub seq_pages: u64,
    /// Contiguous readahead batches issued (each covering several
    /// `seq_pages` with a single seek); 0 when scans ran unbatched.
    pub seq_batches: u64,
    pub rnd_pages: u64,
    pub idx_pages: u64,
    pub writes: u64,
    pub buffer_hits: u64,
    pub buffer_misses: u64,
    pub buffer_evictions: u64,
}

impl MetricsSnapshot {
    pub fn total_reads(&self) -> u64 {
        self.seq_pages + self.rnd_pages + self.idx_pages
    }

    /// Component-wise sum (saturating).
    pub fn plus(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            seq_pages: self.seq_pages.saturating_add(other.seq_pages),
            seq_batches: self.seq_batches.saturating_add(other.seq_batches),
            rnd_pages: self.rnd_pages.saturating_add(other.rnd_pages),
            idx_pages: self.idx_pages.saturating_add(other.idx_pages),
            writes: self.writes.saturating_add(other.writes),
            buffer_hits: self.buffer_hits.saturating_add(other.buffer_hits),
            buffer_misses: self.buffer_misses.saturating_add(other.buffer_misses),
            buffer_evictions: self.buffer_evictions.saturating_add(other.buffer_evictions),
        }
    }

    /// Component-wise difference `self - earlier` (saturating).
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            seq_pages: self.seq_pages.saturating_sub(earlier.seq_pages),
            seq_batches: self.seq_batches.saturating_sub(earlier.seq_batches),
            rnd_pages: self.rnd_pages.saturating_sub(earlier.rnd_pages),
            idx_pages: self.idx_pages.saturating_sub(earlier.idx_pages),
            writes: self.writes.saturating_sub(earlier.writes),
            buffer_hits: self.buffer_hits.saturating_sub(earlier.buffer_hits),
            buffer_misses: self.buffer_misses.saturating_sub(earlier.buffer_misses),
            buffer_evictions: self.buffer_evictions.saturating_sub(earlier.buffer_evictions),
        }
    }
}

impl DiskMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `bump` on the counter block attributed to the calling thread.
    /// A thread that has recorded before (since the last reset) finds its
    /// block in the thread-local list; only the first access registers it,
    /// under the lock, dropping the blocks of instances that are gone.
    fn on_thread(&self, bump: impl FnOnce(&Counters)) {
        let me = Arc::as_ptr(&self.shared);
        // A validity stamp, not a publication: the blocks themselves are
        // handed out under the registry lock.
        let generation = self.shared.generation.load(Ordering::SeqCst);
        BLOCKS.with_borrow_mut(|blocks| {
            let mine = |b: &Block| b.shared.as_ptr() == me;
            if let Some(b) = blocks.iter().find(|b| mine(b) && b.generation == generation) {
                return bump(&b.counters);
            }
            blocks.retain(|b| !mine(b) && b.shared.strong_count() > 0);
            let id = std::thread::current().id();
            let counters = self.shared.registry.lock().live.entry(id).or_default().clone();
            bump(&counters);
            blocks.push(Block {
                shared: Arc::downgrade(&self.shared),
                generation,
                counters,
            });
        })
    }

    fn bump_read(c: &Counters, kind: AccessKind) {
        let field = match kind {
            AccessKind::Sequential => &c.seq_pages,
            AccessKind::Random => &c.rnd_pages,
            AccessKind::Index => &c.idx_pages,
        };
        field.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot_of(c: &Counters) -> MetricsSnapshot {
        MetricsSnapshot {
            seq_pages: c.seq_pages.load(Ordering::Relaxed),
            seq_batches: c.seq_batches.load(Ordering::Relaxed),
            rnd_pages: c.rnd_pages.load(Ordering::Relaxed),
            idx_pages: c.idx_pages.load(Ordering::Relaxed),
            writes: c.writes.load(Ordering::Relaxed),
            buffer_hits: c.buffer_hits.load(Ordering::Relaxed),
            buffer_misses: c.buffer_misses.load(Ordering::Relaxed),
            buffer_evictions: c.buffer_evictions.load(Ordering::Relaxed),
        }
    }

    pub fn record_read(&self, kind: AccessKind) {
        Self::bump_read(&self.shared.totals, kind);
        self.on_thread(|c| Self::bump_read(c, kind));
    }

    /// One contiguous readahead batch of `pages` sequential pages: counts
    /// the pages as sequential reads and the batch itself once — the cost
    /// model charges one seek + latency per batch, not per page run.
    pub fn record_sequential_batch(&self, pages: u64) {
        let bump = |c: &Counters| {
            c.seq_pages.fetch_add(pages, Ordering::Relaxed);
            c.seq_batches.fetch_add(1, Ordering::Relaxed);
        };
        bump(&self.shared.totals);
        self.on_thread(bump);
    }

    /// Count one event in the totals and in the calling thread's block.
    fn bump(&self, field: impl Fn(&Counters) -> &AtomicU64) {
        field(&self.shared.totals).fetch_add(1, Ordering::Relaxed);
        self.on_thread(|c| {
            field(c).fetch_add(1, Ordering::Relaxed);
        });
    }

    pub fn record_write(&self) {
        self.bump(|c| &c.writes);
    }

    pub fn record_buffer_hit(&self) {
        self.bump(|c| &c.buffer_hits);
    }

    pub fn record_buffer_miss(&self) {
        self.bump(|c| &c.buffer_misses);
    }

    pub fn record_buffer_eviction(&self) {
        self.bump(|c| &c.buffer_evictions);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        Self::snapshot_of(&self.shared.totals)
    }

    /// Per-thread view of the counters: the threads still registered,
    /// ordered by thread id for stable output, then — under `None` — the
    /// summed counts of the pool workers that have finished. Summing the
    /// snapshots componentwise reproduces [`DiskMetrics::snapshot`] (for
    /// accesses recorded since the last [`DiskMetrics::reset`]).
    pub fn per_thread_snapshot(&self) -> Vec<(Option<ThreadId>, MetricsSnapshot)> {
        let registry = self.shared.registry.lock();
        let live = registry.live.iter();
        let mut out: Vec<_> = live.map(|(id, c)| (Some(*id), Self::snapshot_of(c))).collect();
        out.sort_by_key(|(id, _)| format!("{id:?}"));
        if registry.retired != MetricsSnapshot::default() {
            out.push((None, registry.retired));
        }
        out
    }

    pub fn reset(&self) {
        let mut registry = self.shared.registry.lock();
        *registry = Registry::default();
        self.shared.generation.fetch_add(1, Ordering::SeqCst);
        let totals = &self.shared.totals;
        for counter in [
            &totals.seq_pages,
            &totals.seq_batches,
            &totals.rnd_pages,
            &totals.idx_pages,
            &totals.writes,
            &totals.buffer_hits,
            &totals.buffer_misses,
            &totals.buffer_evictions,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = DiskMetrics::new();
        m.record_read(AccessKind::Sequential);
        m.record_read(AccessKind::Random);
        m.record_read(AccessKind::Random);
        m.record_read(AccessKind::Index);
        m.record_write();
        let s = m.snapshot();
        assert_eq!(s.seq_pages, 1);
        assert_eq!(s.rnd_pages, 2);
        assert_eq!(s.idx_pages, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.total_reads(), 4);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn per_thread_counts_sum_to_totals() {
        let m = DiskMetrics::new();
        m.record_read(AccessKind::Sequential);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let m = m.clone();
                s.spawn(move || {
                    m.record_read(AccessKind::Random);
                    m.record_write();
                });
            }
        });
        let per = m.per_thread_snapshot();
        assert_eq!(per.len(), 4, "main + 3 workers");
        let total = m.snapshot();
        assert_eq!(per.iter().map(|(_, s)| s.seq_pages).sum::<u64>(), total.seq_pages);
        assert_eq!(per.iter().map(|(_, s)| s.rnd_pages).sum::<u64>(), total.rnd_pages);
        assert_eq!(per.iter().map(|(_, s)| s.writes).sum::<u64>(), total.writes);
        m.reset();
        assert!(m.per_thread_snapshot().is_empty());
    }

    #[test]
    fn finished_pool_workers_fold_into_one_retired_block() {
        let m = DiskMetrics::new();
        m.record_read(AccessKind::Sequential);
        let items: Vec<u32> = (0..64).collect();
        for _ in 0..1000 {
            crate::exec::run_chunked(4, &items, |_, chunk| {
                for _ in chunk {
                    m.record_read(AccessKind::Random);
                    m.record_buffer_hit();
                }
                Ok::<Vec<()>, ()>(Vec::new())
            })
            .unwrap();
        }
        let per = m.per_thread_snapshot();
        assert_eq!(per.len(), 2, "this thread + the retired workers, not 4 000 entries");
        assert_eq!(per[1].0, None, "finished workers are summed under no thread id");
        assert_eq!(per[1].1.rnd_pages, 64_000);
        let total = m.snapshot();
        let sum = per.iter().fold(MetricsSnapshot::default(), |acc, (_, s)| acc.plus(s));
        assert_eq!(sum, total, "live + retired blocks sum exactly to the totals");
        // A thread keeps recording to its block across a reset.
        m.reset();
        assert!(m.per_thread_snapshot().is_empty());
        m.record_write();
        assert_eq!(m.per_thread_snapshot().len(), 1);
        assert_eq!(m.per_thread_snapshot()[0].1, m.snapshot());
    }

    #[test]
    fn clones_share_counters() {
        let m = DiskMetrics::new();
        let m2 = m.clone();
        m2.record_read(AccessKind::Random);
        assert_eq!(m.snapshot().rnd_pages, 1);
    }

    #[test]
    fn delta_is_componentwise() {
        let m = DiskMetrics::new();
        m.record_read(AccessKind::Random);
        let before = m.snapshot();
        m.record_read(AccessKind::Random);
        m.record_read(AccessKind::Sequential);
        let after = m.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.rnd_pages, 1);
        assert_eq!(d.seq_pages, 1);
    }

    #[test]
    fn seq_cheaper_than_rnd_for_many_pages() {
        let p = PhysicalParams::salzberg_1988();
        assert!(p.seq_cost(1000.0) < p.rnd_cost(1000.0));
        // A single page costs the same either way when ebt == btt.
        assert!((p.seq_cost(1.0) - p.rnd_cost(1.0)).abs() < 1e-12);
    }

    #[test]
    fn paper_calibration_reproduces_f2() {
        let p = PhysicalParams::paper_calibrated();
        let nbpg_c = 2000.0 * (1.0 - (1.0 - 1.0 / 2000.0_f64).powi(20000));
        let f2 = p.rnd_cost(nbpg_c) + p.rnd_cost(20000.0);
        assert!((f2 - 520.825).abs() < 1e-6, "calibrated F2 = {f2}");
    }

    #[test]
    fn modelled_time_counts_all_categories() {
        let p = PhysicalParams::salzberg_1988();
        let snap = MetricsSnapshot {
            seq_pages: 10,
            rnd_pages: 5,
            idx_pages: 2,
            writes: 1,
            ..Default::default()
        };
        let t = p.time(&snap);
        assert!(t > 0.0);
        // Removing random pages must reduce modelled time.
        let less = MetricsSnapshot {
            rnd_pages: 0,
            ..snap
        };
        assert!(p.time(&less) < t);
    }
}
