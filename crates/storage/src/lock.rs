//! Lock manager: shared/exclusive locks on named resources.
//!
//! ESM gave MOOD "controlling data access and concurrency"; the kernel uses
//! it in two places the paper calls out explicitly: extent/file access
//! during query execution, and *locking a class's shared object while a
//! member function is being rewritten* (Section 2: "We provide locking for
//! this operation").
//!
//! Deadlocks are *detected*, not merely timed out. Every blocked acquire
//! records a waits-for edge (owner → resource) and walks the graph
//! (owner → awaited resource → holders → what *they* await …) before
//! sleeping. Closing a cycle picks the **youngest** member — the largest
//! `OwnerId`, since ids are allocated monotonically — as the victim: it
//! has done the least work to throw away. If the victim is the acquirer
//! itself, the acquire returns [`StorageError::Deadlock`] immediately;
//! otherwise the victim is marked doomed and woken, and *its* wait returns
//! the error. Every cycle member is a waiter by construction, so the
//! victim is always in a position to receive the verdict. The legacy
//! timeout stays as a backstop for waits no cycle explains (e.g. a holder
//! that simply never releases).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::{Result, StorageError};
use crate::metrics::DiskMetrics;
use crate::telemetry::{HistFamily, WaitEvent};

/// Lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    Exclusive,
}

/// Identifies a lock owner (a transaction or kernel task).
pub type OwnerId = u64;

#[derive(Default)]
struct ResourceState {
    /// Owners currently holding the lock, with their mode.
    holders: HashMap<OwnerId, LockMode>,
    /// Owners waiting (count only; fairness is FIFO-ish via condvar wakeup).
    waiters: usize,
}

impl ResourceState {
    fn compatible(&self, owner: OwnerId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => self
                .holders
                .iter()
                .all(|(o, m)| *o == owner || *m == LockMode::Shared),
            LockMode::Exclusive => self.holders.keys().all(|o| *o == owner),
        }
    }
}

#[derive(Default)]
struct LockTable {
    resources: HashMap<String, ResourceState>,
    /// The waits-for graph: each blocked owner and the resource it awaits.
    /// Maintained strictly under the table mutex — an edge exists exactly
    /// while its owner sits in `wait_until`.
    waits_for: HashMap<OwnerId, String>,
    /// Victims condemned by a detection pass, with the cycle that doomed
    /// them. The victim consumes its entry when its wait wakes.
    doomed: HashMap<OwnerId, Vec<OwnerId>>,
}

/// The lock table.
pub struct LockManager {
    table: Mutex<LockTable>,
    released: Condvar,
    timeout: Duration,
    waits: AtomicU64,
    wait_timeouts: AtomicU64,
    deadlocks: AtomicU64,
    /// Where acquire latency and queue waits are recorded: the storage
    /// manager's one handle (a fresh one for a bare manager).
    metrics: DiskMetrics,
}

impl LockManager {
    pub fn new(timeout: Duration, metrics: DiskMetrics) -> Self {
        LockManager {
            table: Mutex::new(LockTable::default()),
            released: Condvar::new(),
            timeout,
            waits: AtomicU64::new(0),
            wait_timeouts: AtomicU64::new(0),
            deadlocks: AtomicU64::new(0),
            metrics,
        }
    }

    /// Number of times an acquire had to block on an incompatible holder.
    pub fn wait_count(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }

    /// Number of acquires that gave up at the deadlock timeout.
    pub fn timeout_count(&self) -> u64 {
        self.wait_timeouts.load(Ordering::Relaxed)
    }

    /// Number of waits-for cycles detected (one per cycle, counted at the
    /// acquire that closed it).
    pub fn deadlock_count(&self) -> u64 {
        self.deadlocks.load(Ordering::Relaxed)
    }

    /// DFS over the waits-for graph starting from `start` (which is about
    /// to block): owner → awaited resource → holders → what they await…
    /// Returns the owners of a cycle through `start`, in discovery order,
    /// or `None`. Self-edges (a shared holder upgrading past itself) are
    /// skipped — holding and wanting the same resource is not a deadlock.
    fn find_cycle(table: &LockTable, start: OwnerId) -> Option<Vec<OwnerId>> {
        let mut path = vec![start];
        let mut visited = HashSet::from([start]);
        if Self::dfs(table, start, start, &mut path, &mut visited) {
            Some(path)
        } else {
            None
        }
    }

    fn dfs(
        table: &LockTable,
        current: OwnerId,
        start: OwnerId,
        path: &mut Vec<OwnerId>,
        visited: &mut HashSet<OwnerId>,
    ) -> bool {
        let Some(resource) = table.waits_for.get(&current) else {
            return false;
        };
        let Some(state) = table.resources.get(resource) else {
            return false;
        };
        for holder in state.holders.keys() {
            if *holder == current {
                continue; // upgrading past one's own shared hold
            }
            if *holder == start {
                return true;
            }
            if visited.insert(*holder) {
                path.push(*holder);
                if Self::dfs(table, *holder, start, path, visited) {
                    return true;
                }
                path.pop();
            }
        }
        false
    }

    /// Acquire `mode` on `resource` for `owner`. A blocked acquire records
    /// a waits-for edge and runs cycle detection before sleeping; closing
    /// a cycle aborts the youngest member with [`StorageError::Deadlock`].
    /// Waits no cycle explains still time out as a backstop.
    /// Re-acquisition by the same owner upgrades Shared→Exclusive when no
    /// other holder is present.
    pub fn acquire(&self, owner: OwnerId, resource: &str, mode: LockMode) -> Result<()> {
        let t0 = Instant::now();
        let result = self.acquire_inner(owner, resource, mode);
        let t = self.metrics.telemetry();
        t.record_hist(HistFamily::LockAcquire, t0.elapsed().as_nanos() as u64);
        result
    }

    fn acquire_inner(&self, owner: OwnerId, resource: &str, mode: LockMode) -> Result<()> {
        let deadline = Instant::now() + self.timeout;
        let mut table = self.table.lock();
        loop {
            // A detection pass run by another waiter may have doomed us
            // while we slept; honour the verdict before anything else.
            if let Some(cycle) = table.doomed.remove(&owner) {
                table.waits_for.remove(&owner);
                return Err(StorageError::Deadlock {
                    victim: owner,
                    cycle,
                });
            }
            let state = table.resources.entry(resource.to_string()).or_default();
            if state.compatible(owner, mode) {
                let slot = state.holders.entry(owner).or_insert(mode);
                if mode == LockMode::Exclusive {
                    *slot = LockMode::Exclusive;
                }
                table.waits_for.remove(&owner);
                return Ok(());
            }
            table.waits_for.insert(owner, resource.to_string());
            if let Some(cycle) = Self::find_cycle(&table, owner) {
                self.deadlocks.fetch_add(1, Ordering::Relaxed);
                // Youngest member pays: owner ids are monotonic, so the
                // largest id has done the least work to throw away.
                let victim = *cycle.iter().max().expect("cycle is never empty");
                if victim == owner {
                    table.waits_for.remove(&owner);
                    return Err(StorageError::Deadlock { victim, cycle });
                }
                table.doomed.insert(victim, cycle);
                // Wake everyone; the victim will find its verdict above.
                self.released.notify_all();
            }
            let state = table.resources.entry(resource.to_string()).or_default();
            state.waiters += 1;
            self.waits.fetch_add(1, Ordering::Relaxed);
            let wait_start = Instant::now();
            let timed_out = self.released.wait_until(&mut table, deadline).timed_out();
            let t = self.metrics.telemetry();
            t.record_wait(WaitEvent::LockQueue, wait_start.elapsed().as_nanos() as u64);
            if let Some(state) = table.resources.get_mut(resource) {
                state.waiters -= 1;
            }
            if timed_out {
                table.waits_for.remove(&owner);
                table.doomed.remove(&owner);
                self.wait_timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(StorageError::LockTimeout {
                    resource: resource.to_string(),
                });
            }
        }
    }

    /// Release `owner`'s lock on `resource` (no-op if not held).
    pub fn release(&self, owner: OwnerId, resource: &str) {
        let mut table = self.table.lock();
        if let Some(state) = table.resources.get_mut(resource) {
            state.holders.remove(&owner);
            if state.holders.is_empty() && state.waiters == 0 {
                table.resources.remove(resource);
            }
        }
        drop(table);
        self.released.notify_all();
    }

    /// Release everything `owner` holds (transaction end). Also clears any
    /// bookkeeping left if the owner's last wait ended in an error.
    pub fn release_all(&self, owner: OwnerId) {
        let mut table = self.table.lock();
        table.resources.retain(|_, state| {
            state.holders.remove(&owner);
            !(state.holders.is_empty() && state.waiters == 0)
        });
        table.waits_for.remove(&owner);
        table.doomed.remove(&owner);
        drop(table);
        self.released.notify_all();
    }

    /// Mode currently held by `owner` on `resource`, if any.
    pub fn held(&self, owner: OwnerId, resource: &str) -> Option<LockMode> {
        self.table
            .lock()
            .resources
            .get(resource)
            .and_then(|s| s.holders.get(&owner))
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new(Duration::from_millis(200), DiskMetrics::new());
        lm.acquire(1, "extent:Vehicle", LockMode::Shared).unwrap();
        lm.acquire(2, "extent:Vehicle", LockMode::Shared).unwrap();
        assert_eq!(lm.held(1, "extent:Vehicle"), Some(LockMode::Shared));
        assert_eq!(lm.held(2, "extent:Vehicle"), Some(LockMode::Shared));
    }

    #[test]
    fn exclusive_excludes_and_times_out() {
        let lm = LockManager::new(Duration::from_millis(30), DiskMetrics::new());
        lm.acquire(1, "so:Vehicle", LockMode::Exclusive).unwrap();
        let err = lm.acquire(2, "so:Vehicle", LockMode::Shared).unwrap_err();
        assert!(matches!(err, StorageError::LockTimeout { .. }));
    }

    #[test]
    fn release_unblocks_waiter() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(5), DiskMetrics::new()));
        lm.acquire(1, "r", LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let t = std::thread::spawn(move || lm2.acquire(2, "r", LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(20));
        lm.release(1, "r");
        t.join().unwrap().unwrap();
        assert_eq!(lm.held(2, "r"), Some(LockMode::Exclusive));
    }

    #[test]
    fn reacquire_upgrades_when_sole_holder() {
        let lm = LockManager::new(Duration::from_millis(200), DiskMetrics::new());
        lm.acquire(1, "r", LockMode::Shared).unwrap();
        lm.acquire(1, "r", LockMode::Exclusive).unwrap();
        assert_eq!(lm.held(1, "r"), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_blocked_by_other_reader() {
        let lm = LockManager::new(Duration::from_millis(30), DiskMetrics::new());
        lm.acquire(1, "r", LockMode::Shared).unwrap();
        lm.acquire(2, "r", LockMode::Shared).unwrap();
        assert!(lm.acquire(1, "r", LockMode::Exclusive).is_err());
    }

    #[test]
    fn release_all_clears_owner() {
        let lm = LockManager::new(Duration::from_millis(200), DiskMetrics::new());
        lm.acquire(1, "a", LockMode::Shared).unwrap();
        lm.acquire(1, "b", LockMode::Exclusive).unwrap();
        lm.release_all(1);
        assert_eq!(lm.held(1, "a"), None);
        assert_eq!(lm.held(1, "b"), None);
        // Resources are free for others immediately.
        lm.acquire(2, "b", LockMode::Exclusive).unwrap();
    }

    #[test]
    fn wait_and_timeout_counters_tick() {
        let lm = LockManager::new(Duration::from_millis(20), DiskMetrics::new());
        lm.acquire(1, "r", LockMode::Exclusive).unwrap();
        assert_eq!(lm.wait_count(), 0);
        assert!(lm.acquire(2, "r", LockMode::Shared).is_err());
        assert!(lm.wait_count() >= 1);
        assert_eq!(lm.timeout_count(), 1);
    }

    #[test]
    fn deadlock_cycle_aborts_youngest_waiter() {
        // Timeouts are 30s: if these returns relied on the backstop the
        // test would blow past any sane runtime — success proves detection.
        let lm = Arc::new(LockManager::new(Duration::from_secs(30), DiskMetrics::new()));
        lm.acquire(1, "A", LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let t = std::thread::spawn(move || {
            lm2.acquire(2, "B", LockMode::Exclusive).unwrap();
            let err = lm2.acquire(2, "A", LockMode::Exclusive).unwrap_err();
            lm2.release_all(2);
            err
        });
        // Let owner 2 block on A before closing the cycle.
        while lm.wait_count() == 0 {
            std::thread::yield_now();
        }
        // Closing the cycle dooms owner 2 (the youngest); its locks go and
        // this acquire is then granted — the survivor proceeds.
        lm.acquire(1, "B", LockMode::Exclusive).unwrap();
        match t.join().unwrap() {
            StorageError::Deadlock { victim, mut cycle } => {
                assert_eq!(victim, 2);
                cycle.sort_unstable();
                assert_eq!(cycle, vec![1, 2]);
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
        assert_eq!(lm.deadlock_count(), 1);
        assert_eq!(lm.timeout_count(), 0, "no wait hit the backstop");
        lm.release_all(1);
    }

    #[test]
    fn acquirer_aborts_itself_when_it_is_the_youngest() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(30), DiskMetrics::new()));
        lm.acquire(9, "A", LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let t = std::thread::spawn(move || {
            lm2.acquire(1, "B", LockMode::Exclusive).unwrap();
            lm2.acquire(1, "A", LockMode::Exclusive).unwrap();
            lm2.release_all(1);
        });
        while lm.wait_count() == 0 {
            std::thread::yield_now();
        }
        // Owner 9 closes the cycle and is its youngest member: the error
        // comes back on this very call, within the detection pass.
        let err = lm.acquire(9, "B", LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, StorageError::Deadlock { victim: 9, .. }));
        lm.release_all(9); // victim aborts; the survivor finishes
        t.join().unwrap();
        assert_eq!(lm.deadlock_count(), 1);
    }

    #[test]
    fn shared_upgrade_deadlock_is_detected() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(30), DiskMetrics::new()));
        lm.acquire(1, "r", LockMode::Shared).unwrap();
        lm.acquire(2, "r", LockMode::Shared).unwrap();
        let lm2 = lm.clone();
        let t = std::thread::spawn(move || {
            let err = lm2.acquire(2, "r", LockMode::Exclusive).unwrap_err();
            lm2.release_all(2);
            err
        });
        while lm.wait_count() == 0 {
            std::thread::yield_now();
        }
        // Both readers now want Exclusive: the classic upgrade deadlock.
        lm.acquire(1, "r", LockMode::Exclusive).unwrap();
        assert!(matches!(
            t.join().unwrap(),
            StorageError::Deadlock { victim: 2, .. }
        ));
        lm.release_all(1);
    }

    #[test]
    fn concurrent_writers_serialize() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(5), DiskMetrics::new()));
        let counter = Arc::new(Mutex::new(0i32));
        let mut handles = Vec::new();
        for owner in 0..8u64 {
            let lm = lm.clone();
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    lm.acquire(owner, "ctr", LockMode::Exclusive).unwrap();
                    {
                        let mut c = counter.lock();
                        let v = *c;
                        std::thread::yield_now();
                        *c = v + 1;
                    }
                    lm.release(owner, "ctr");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 400);
    }
}
