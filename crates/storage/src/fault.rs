//! Deterministic fault injection for crash testing.
//!
//! A [`FaultPlan`] scripts *when* an I/O operation fails and *how*: a clean
//! error, or a torn write that leaves half-new/half-old bytes behind before
//! erroring. Plans are deterministic — either an explicit operation number
//! or a seeded RNG decides — so a failing crash-simulation run can be
//! replayed exactly from its seed.
//!
//! Plans *latch*: once a fault fires, every subsequent operation fails too.
//! That models a crash, not a transient hiccup — after the machine dies,
//! no further I/O succeeds until the harness "reboots" by calling
//! [`FaultPlan::heal`]. The latch is what lets the harness drop the process
//! state, keep the disk and log bytes, and reopen against healed wrappers.
//!
//! Two modes deliberately break the latch rule:
//!
//! * [`FaultPlan::fail_n_then_heal`] is *transient*: the next `n`
//!   operations fail cleanly, then the device auto-heals. It models the
//!   hiccup a retrying caller ([`RetryDisk`](crate::disk::RetryDisk)) is
//!   designed to ride out, so it must not stay dead.
//! * [`FaultPlan::bit_flip_at`] is *silent* one-shot corruption: the
//!   `k`-th operation, if it is a page write, succeeds — but one seeded
//!   byte of the written image (always inside the checksummed
//!   [`PAGE_USABLE`](crate::page::PAGE_USABLE) region) is flipped on the
//!   way to the medium. The caller sees `Ok`; only the page checksum can
//!   tell. Byte position and XOR mask come from the plan's SplitMix64
//!   stream, so a given seed corrupts reproducibly.
//!
//! [`FaultyDisk`](crate::disk::FaultyDisk) and [`FaultyLog`] consult a
//! shared plan, so "the 7th I/O anywhere" counts disk and log operations
//! through one sequence.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{Result, StorageError};
use crate::wal::LogStore;

/// What a fault plan tells an I/O wrapper to do for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Perform the operation normally.
    None,
    /// Fail the operation cleanly (no bytes reach the medium).
    Fail,
    /// Tear the write: persist a prefix of the new bytes, then fail.
    /// Operations that cannot tear (reads, creates, syncs) treat this
    /// as [`Fault::Fail`].
    Torn,
    /// Silently corrupt the write: flip one byte of the image, persist
    /// it, and report success. Operations that cannot corrupt (reads,
    /// creates, syncs, log appends) treat this as [`Fault::None`].
    BitFlip,
}

/// SplitMix64 — tiny, seedable, and good enough to scatter fault points.
/// Implemented inline so the crate keeps zero runtime dependencies.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// Never fire.
    Disarmed,
    /// Fire on exactly operation number `k` (1-based).
    At(u64),
    /// Fire once every operation past `n` (the legacy fuse: `n` ops
    /// succeed, then the device is dead).
    After(u64),
    /// Transient: fire on the first `n` operations, then auto-heal.
    FirstN(u64),
    /// Fire each operation with probability `p` drawn from the seeded RNG.
    Random,
}

struct PlanState {
    /// Operations observed so far (monotonic; survives healing).
    ops: u64,
    /// Latched: a fault fired and has not been healed.
    tripped: bool,
    /// The operation number at which the plan first fired.
    fired_at: Option<u64>,
    trigger: Trigger,
    /// Kind of fault to inject when the trigger fires.
    kind: Fault,
    rng: SplitMix64,
    p: f64,
}

/// A scripted, seeded fault schedule shared by [`FaultyDisk`] and
/// [`FaultyLog`] wrappers. See the module docs for the latch semantics.
///
/// [`FaultyDisk`]: crate::disk::FaultyDisk
pub struct FaultPlan {
    state: Mutex<PlanState>,
}

impl FaultPlan {
    fn with(trigger: Trigger, kind: Fault, seed: u64, p: f64) -> Arc<Self> {
        Arc::new(FaultPlan {
            state: Mutex::new(PlanState {
                ops: 0,
                tripped: false,
                fired_at: None,
                trigger,
                kind,
                rng: SplitMix64(seed),
                p,
            }),
        })
    }

    /// A plan that never fires.
    pub fn disarmed() -> Arc<Self> {
        Self::with(Trigger::Disarmed, Fault::Fail, 0, 0.0)
    }

    /// Fail cleanly on exactly the `k`-th operation (1-based), then latch.
    pub fn fail_at(k: u64) -> Arc<Self> {
        Self::with(Trigger::At(k), Fault::Fail, 0, 0.0)
    }

    /// Tear the `k`-th operation (1-based) if it is a write, then latch.
    pub fn torn_at(k: u64) -> Arc<Self> {
        Self::with(Trigger::At(k), Fault::Torn, 0, 0.0)
    }

    /// Let `n` operations succeed, then fail every one after — the legacy
    /// `FaultyDisk` fuse. `u64::MAX` never fires.
    pub fn fail_after(n: u64) -> Arc<Self> {
        Self::with(Trigger::After(n), Fault::Fail, 0, 0.0)
    }

    /// Fire with probability `p` per operation, decided by a SplitMix64
    /// stream seeded with `seed`; an independent draw picks clean-fail vs
    /// torn each time. Deterministic for a given `(seed, p)` and operation
    /// sequence.
    pub fn probabilistic(seed: u64, p: f64) -> Arc<Self> {
        Self::with(Trigger::Random, Fault::Fail, seed, p)
    }

    /// Transient fault: the next `n` operations fail cleanly, then the
    /// device auto-heals (no latch). This is the hiccup a retrying caller
    /// is expected to ride out — see `RetryDisk`.
    pub fn fail_n_then_heal(n: u64) -> Arc<Self> {
        Self::with(Trigger::FirstN(n), Fault::Fail, 0, 0.0)
    }

    /// One-shot silent corruption: the `k`-th operation (1-based), if it
    /// is a page write, persists with one byte flipped — position and XOR
    /// mask drawn from `seed` — and *reports success*. The plan disarms
    /// after firing instead of latching; only a checksum can notice.
    pub fn bit_flip_at(k: u64, seed: u64) -> Arc<Self> {
        Self::with(Trigger::At(k), Fault::BitFlip, seed, 0.0)
    }

    /// Decide the fate of the next operation. Wrappers call this once per
    /// I/O; the plan counts the operation and latches when it fires.
    pub fn next(&self) -> Fault {
        let mut st = self.state.lock();
        st.ops += 1;
        if st.tripped {
            return Fault::Fail;
        }
        let fire = match st.trigger {
            Trigger::Disarmed => None,
            Trigger::At(k) => (st.ops == k).then_some(st.kind),
            Trigger::After(n) => (st.ops > n).then_some(st.kind),
            Trigger::FirstN(n) => (st.ops <= n).then_some(st.kind),
            Trigger::Random => {
                if st.rng.next_f64() < st.p {
                    // Second draw: clean failure or torn write.
                    Some(if st.rng.next() & 1 == 0 {
                        Fault::Fail
                    } else {
                        Fault::Torn
                    })
                } else {
                    None
                }
            }
        };
        match fire {
            Some(kind) => {
                if st.fired_at.is_none() {
                    st.fired_at = Some(st.ops);
                }
                // Transient (FirstN) faults self-limit; a silent bit flip
                // disarms after its single shot. Everything else models a
                // crash and latches until heal().
                match (st.trigger, kind) {
                    (Trigger::FirstN(_), _) => {}
                    (_, Fault::BitFlip) => st.trigger = Trigger::Disarmed,
                    _ => st.tripped = true,
                }
                kind
            }
            None => Fault::None,
        }
    }

    /// Seeded draw for [`Fault::BitFlip`]: a byte offset inside the
    /// checksummed region of a page and a non-zero XOR mask. Always lands
    /// in `[0, PAGE_USABLE)` so the corruption is guaranteed detectable —
    /// flipping trailer bytes would just invalidate the stamp itself.
    pub fn corrupt_byte(&self) -> (usize, u8) {
        let mut st = self.state.lock();
        let off = (st.rng.next() % crate::page::PAGE_USABLE as u64) as usize;
        let mask = (st.rng.next() % 255 + 1) as u8;
        (off, mask)
    }

    /// Disarm the plan and clear the latch: the "rebooted" device works.
    pub fn heal(&self) {
        let mut st = self.state.lock();
        st.tripped = false;
        st.trigger = Trigger::Disarmed;
    }

    /// Operations observed so far (for sizing `fail_at` sweeps).
    pub fn ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// The operation number at which the plan first fired, if it has.
    pub fn fired_at(&self) -> Option<u64> {
        self.state.lock().fired_at
    }
}

/// A [`LogStore`] wrapper that injects faults from a [`FaultPlan`].
/// A torn append persists a prefix of the record before erroring —
/// exactly the torn tail `Wal::recover` must stop at cleanly.
pub struct FaultyLog<L: LogStore> {
    inner: L,
    plan: Arc<FaultPlan>,
}

impl<L: LogStore> FaultyLog<L> {
    pub fn new(inner: L, plan: Arc<FaultPlan>) -> Self {
        FaultyLog { inner, plan }
    }

    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

impl<L: LogStore> LogStore for FaultyLog<L> {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        match self.plan.next() {
            // Log records carry their own frame checksum; a silent page
            // bit-flip has no log analogue, so the append passes through.
            Fault::None | Fault::BitFlip => self.inner.append(bytes),
            Fault::Fail => Err(StorageError::Io("injected log append fault".into())),
            Fault::Torn => {
                let _ = self.inner.append(&bytes[..bytes.len() / 2]);
                Err(StorageError::Io("injected torn log append".into()))
            }
        }
    }
    fn force(&self) -> Result<()> {
        match self.plan.next() {
            Fault::None | Fault::BitFlip => self.inner.force(),
            _ => Err(StorageError::Io("injected log force fault".into())),
        }
    }
    fn read_all(&self) -> Result<Vec<u8>> {
        match self.plan.next() {
            Fault::None | Fault::BitFlip => self.inner.read_all(),
            _ => Err(StorageError::Io("injected log read fault".into())),
        }
    }
    fn truncate(&self) -> Result<()> {
        match self.plan.next() {
            Fault::None | Fault::BitFlip => self.inner.truncate(),
            _ => Err(StorageError::Io("injected log truncate fault".into())),
        }
    }
    fn truncate_to(&self, len: u64) -> Result<()> {
        match self.plan.next() {
            Fault::None | Fault::BitFlip => self.inner.truncate_to(len),
            _ => Err(StorageError::Io("injected log truncate fault".into())),
        }
    }
    /// A length the store keeps in memory: no I/O, so no fault point.
    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::MemLog;

    #[test]
    fn fail_at_latches() {
        let plan = FaultPlan::fail_at(3);
        assert_eq!(plan.next(), Fault::None);
        assert_eq!(plan.next(), Fault::None);
        assert_eq!(plan.next(), Fault::Fail);
        // Latched: everything after the crash fails too.
        assert_eq!(plan.next(), Fault::Fail);
        assert_eq!(plan.fired_at(), Some(3));
        plan.heal();
        assert_eq!(plan.next(), Fault::None);
        assert_eq!(plan.ops(), 5);
    }

    #[test]
    fn fail_after_reproduces_the_legacy_fuse() {
        let plan = FaultPlan::fail_after(2);
        assert_eq!(plan.next(), Fault::None);
        assert_eq!(plan.next(), Fault::None);
        assert_eq!(plan.next(), Fault::Fail);
        assert_eq!(plan.next(), Fault::Fail);
    }

    #[test]
    fn probabilistic_is_deterministic_per_seed() {
        let draw = |seed| {
            let plan = FaultPlan::probabilistic(seed, 0.2);
            (0..64).map(|_| plan.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42), "same seed, same schedule");
        assert_ne!(draw(42), draw(43), "different seeds diverge");
        // Latch: at p = 0.2 over 64 ops a fault fires with near certainty,
        // and everything after the first firing is Fail.
        let plan = FaultPlan::probabilistic(7, 0.5);
        let seq: Vec<_> = (0..64).map(|_| plan.next()).collect();
        let first = seq.iter().position(|f| *f != Fault::None).unwrap();
        assert!(seq[first + 1..].iter().all(|f| *f == Fault::Fail));
    }

    #[test]
    fn fail_n_then_heal_is_transient() {
        let plan = FaultPlan::fail_n_then_heal(3);
        assert_eq!(plan.next(), Fault::Fail);
        assert_eq!(plan.next(), Fault::Fail);
        assert_eq!(plan.next(), Fault::Fail);
        // Auto-heals: no latch, no heal() call needed.
        assert_eq!(plan.next(), Fault::None);
        assert_eq!(plan.next(), Fault::None);
        assert_eq!(plan.fired_at(), Some(1));
    }

    #[test]
    fn bit_flip_fires_once_and_disarms() {
        let plan = FaultPlan::bit_flip_at(2, 99);
        assert_eq!(plan.next(), Fault::None);
        assert_eq!(plan.next(), Fault::BitFlip);
        // One shot: subsequent operations are clean, not latched failures.
        assert_eq!(plan.next(), Fault::None);
        assert_eq!(plan.fired_at(), Some(2));
        // The corruption draw is seeded and in-bounds.
        let (off, mask) = FaultPlan::bit_flip_at(1, 7).corrupt_byte();
        let (off2, mask2) = FaultPlan::bit_flip_at(1, 7).corrupt_byte();
        assert_eq!((off, mask), (off2, mask2), "same seed, same corruption");
        assert!(off < crate::page::PAGE_USABLE);
        assert_ne!(mask, 0);
    }

    #[test]
    fn torn_append_keeps_a_prefix() {
        let log = std::sync::Arc::new(MemLog::new());
        let faulty = FaultyLog::new(log.clone(), FaultPlan::torn_at(2));
        faulty.append(&[1, 2, 3, 4]).unwrap();
        assert!(faulty.append(&[5, 6, 7, 8]).is_err());
        // First record intact, second torn to its first half.
        assert_eq!(log.read_all().unwrap(), vec![1, 2, 3, 4, 5, 6]);
    }
}
