//! The B+-tree writes its nodes in place, so its writes allocate only when
//! a node splits — measured with a counting allocator. An insert that
//! splits nothing allocates nothing, a delete allocates nothing, and a
//! stream of inserts allocates a constant per split (the split's merged
//! image, its separator, the new page's frame).
//!
//! The allocator counts per thread, so tests running beside each other do
//! not see one another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use mood_storage::{BTree, BufferPool, DiskMetrics, FileId, MemDisk, Oid, PageId, SlotId};

thread_local! {
    /// Allocations (and reallocations) this thread has made.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct CountAllocs;

fn note() {
    // A thread may allocate while it is being torn down: then there is
    // nothing to count.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` only writes a thread-local integer.
unsafe impl GlobalAlloc for CountAllocs {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountAllocs = CountAllocs;

/// The allocations `f` makes on this thread.
fn allocs<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// A tree of `n` keys on a pool large enough to keep it resident.
fn warm_tree(unique: bool, n: u32) -> BTree {
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 1024, DiskMetrics::new()));
    let tree = BTree::create(pool, unique).unwrap();
    for i in 0..n {
        tree.insert(&key(i * 2), oid(i * 2)).unwrap();
    }
    tree
}

fn key(i: u32) -> [u8; 4] {
    i.to_be_bytes()
}

fn oid(i: u32) -> Oid {
    Oid::new(FileId(7), PageId(i), SlotId(1), 1)
}

/// Leaf splits show in `leaves(I)`; an internal node splits only under one.
fn leaves(tree: &BTree) -> u32 {
    tree.stats().unwrap().leaves
}

#[test]
fn an_insert_that_does_not_split_allocates_nothing() {
    for unique in [true, false] {
        let tree = warm_tree(unique, 4000);
        let mut quiet = 0;
        // Odd keys in a scattered order: every leaf takes some, some split.
        for i in 0..2000u32 {
            let k = (i * 1871 % 4000) * 2 + 1;
            let before = leaves(&tree);
            let (n, r) = allocs(|| tree.insert(&key(k), oid(k)));
            r.unwrap();
            if leaves(&tree) == before {
                assert_eq!(n, 0, "insert of {k} (unique {unique}) split nothing but allocated");
                quiet += 1;
            }
        }
        assert!(quiet > 1500, "most inserts fit their leaf: {quiet}");
    }
}

#[test]
fn a_delete_allocates_nothing() {
    let tree = warm_tree(false, 4000);
    for i in 0..4000u32 {
        let k = (i * 1871 % 4000) * 2;
        let (n, removed) = allocs(|| tree.delete(&key(k), oid(k)).unwrap());
        assert!(removed);
        assert_eq!(n, 0, "delete of {k} allocated");
        // A pair that is not there: the walk ends without a write.
        let (n, removed) = allocs(|| tree.delete(&key(k + 1), oid(k)).unwrap());
        assert!(!removed);
        assert_eq!(n, 0, "absent delete of {k} allocated");
    }
    assert!(tree.is_empty().unwrap());
}

#[test]
fn ascending_inserts_allocate_a_constant_per_split() {
    let tree = warm_tree(true, 4000);
    let before = leaves(&tree);
    let (n, ()) = allocs(|| {
        for i in 0..1000u32 {
            tree.insert(&key(8000 + i), oid(8000 + i)).unwrap();
        }
    });
    let splits = (leaves(&tree) - before) as usize;
    assert!(splits >= 4, "1000 ascending keys split the last leaf: {splits}");
    assert!(n <= 4 * splits, "{n} allocations for {splits} splits");
}
