//! Property-based tests for the storage substrate: each structure is
//! checked against an in-memory model under randomized operation sequences.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use mood_storage::{
    BTree, BufferPool, DiskMetrics, HeapFile, LogStore, MemDisk, Oid, PAGE_SIZE, PAGE_USABLE,
};

fn pool(frames: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(
        Arc::new(MemDisk::new()),
        frames,
        DiskMetrics::new(),
    ))
}

// ---------------------------------------------------------------------
// B+-tree vs BTreeMap
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u16, u8),
    Delete(u16),
    Lookup(u16),
    Range(Interval),
}

/// An interval over `u16` keys as `BTree::range_scan` takes it — each bound
/// open, inclusive or exclusive, and nothing says `lo <= hi` — with the
/// number of entries after which the visitor stops.
#[derive(Debug, Clone, Copy)]
struct Interval {
    lo: Bound<u16>,
    hi: Bound<u16>,
    stop_after: usize,
}

fn interval() -> impl Strategy<Value = Interval> {
    // A narrow key domain now and then, so both bounds meet entries, each
    // other (`[k, k]`, `(k, k)`) and the wrong way round.
    (any::<u16>(), any::<u16>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, shape, stop)| {
        let (a, b) = if shape & 64 == 0 {
            (a, b)
        } else {
            (a % 16, b % 16)
        };
        let bound = |k: u16, bits: u8| match bits % 4 {
            0 => Bound::Unbounded,
            1 => Bound::Excluded(k),
            _ => Bound::Included(k),
        };
        Interval {
            lo: bound(a, shape),
            hi: bound(b, shape >> 2),
            stop_after: if stop < 128 {
                usize::MAX
            } else {
                stop as usize - 127
            },
        }
    })
}

impl Interval {
    fn holds(&self, k: u16) -> bool {
        let above = match self.lo {
            Bound::Unbounded => true,
            Bound::Included(lo) => k >= lo,
            Bound::Excluded(lo) => k > lo,
        };
        let below = match self.hi {
            Bound::Unbounded => true,
            Bound::Included(hi) => k <= hi,
            Bound::Excluded(hi) => k < hi,
        };
        above && below
    }

    /// What a walk should visit: the entries of `model` (sorted) inside
    /// the interval, cut at the visitor's stop.
    fn of<V: Copy>(&self, model: &[(u16, V)]) -> Vec<(u16, V)> {
        let inside = model.iter().filter(|(k, _)| self.holds(*k));
        inside.take(self.stop_after).copied().collect()
    }
}

/// The entries a walk of `iv` visits.
fn walk(tree: &BTree, iv: Interval) -> Vec<(u16, Oid)> {
    let key = |b: &Bound<u16>| match b {
        Bound::Unbounded => None,
        Bound::Included(k) | Bound::Excluded(k) => Some(k.to_be_bytes()),
    };
    let (lo, hi) = (key(&iv.lo), key(&iv.hi));
    let mut got = Vec::new();
    tree.range_scan(
        lo.as_ref().map(|k| k.as_slice()),
        !matches!(iv.lo, Bound::Excluded(_)),
        hi.as_ref().map(|k| k.as_slice()),
        !matches!(iv.hi, Bound::Excluded(_)),
        |k, oid| {
            got.push((u16::from_be_bytes(k.try_into().unwrap()), oid));
            got.len() < iv.stop_after
        },
    )
    .unwrap();
    got
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (any::<u16>(), any::<u8>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        any::<u16>().prop_map(TreeOp::Delete),
        any::<u16>().prop_map(TreeOp::Lookup),
        interval().prop_map(TreeOp::Range),
    ]
}

fn oid_for(k: u16, v: u8) -> Oid {
    Oid::new(
        mood_storage::FileId(1),
        mood_storage::PageId(k as u32),
        mood_storage::SlotId(v as u16),
        1,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn btree_matches_btreemap(ops in proptest::collection::vec(tree_op(), 1..250)) {
        let tree = BTree::create(pool(64), false).unwrap();
        let mut model: BTreeMap<u16, u8> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    // Model one value per key: delete any existing entry
                    // first so tree and model stay aligned.
                    if let Some(old) = model.insert(k, v) {
                        tree.delete(&k.to_be_bytes(), oid_for(k, old)).unwrap();
                    }
                    tree.insert(&k.to_be_bytes(), oid_for(k, v)).unwrap();
                }
                TreeOp::Delete(k) => {
                    if let Some(old) = model.remove(&k) {
                        prop_assert!(tree.delete(&k.to_be_bytes(), oid_for(k, old)).unwrap());
                    } else {
                        // Deleting an arbitrary (k, oid) pair that was never
                        // inserted must be a no-op.
                        prop_assert!(!tree.delete(&k.to_be_bytes(), oid_for(k, 0)).unwrap()
                            || model.contains_key(&k));
                    }
                }
                TreeOp::Lookup(k) => {
                    let got = tree.lookup(&k.to_be_bytes()).unwrap();
                    match model.get(&k) {
                        Some(&v) => prop_assert_eq!(got, vec![oid_for(k, v)]),
                        None => prop_assert!(got.is_empty()),
                    }
                }
                TreeOp::Range(iv) => {
                    let entries = model.iter().map(|(k, v)| (*k, oid_for(*k, *v)));
                    let entries: Vec<(u16, Oid)> = entries.collect();
                    prop_assert_eq!(walk(&tree, iv), iv.of(&entries), "{:?}", iv);
                }
            }
            prop_assert_eq!(tree.len().unwrap(), model.len() as u64);
        }
        // Full scan is sorted and complete.
        let mut scanned = Vec::new();
        tree.range_scan(None, true, None, true, |k, _| {
            scanned.push(u16::from_be_bytes(k.try_into().unwrap()));
            true
        })
        .unwrap();
        let want: Vec<u16> = model.keys().copied().collect();
        prop_assert_eq!(scanned, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A few keys with hundreds of entries each: a run of duplicates spans
    /// leaves (one holds ≈ 220 of these), the separators between them equal
    /// the key, and every interval still sees exactly its entries, once
    /// each, keys ascending. (Within a run the order is the leaves': a key's
    /// entries are in OID order leaf by leaf, not across them.)
    #[test]
    fn duplicate_runs_spanning_leaves_are_walked_whole(
        entries in proptest::collection::vec((0u16..6, any::<u16>()), 400..1600),
        intervals in proptest::collection::vec(interval(), 1..12),
    ) {
        let tree = BTree::create(pool(64), false).unwrap();
        let dup = |k: u16, n: u16| Oid::new(
            mood_storage::FileId(1),
            mood_storage::PageId(n as u32),
            mood_storage::SlotId(k),
            1,
        );
        let mut model: Vec<(u16, Oid)> = entries.iter().map(|&(k, n)| (k, dup(k, n))).collect();
        model.sort();
        model.dedup();
        // In arrival order, not sorted: splits land inside the runs.
        let mut inserted = std::collections::HashSet::new();
        for &(k, n) in &entries {
            if inserted.insert((k, n)) {
                tree.insert(&k.to_be_bytes(), dup(k, n)).unwrap();
            }
        }
        prop_assert!(tree.stats().unwrap().leaves > 2);
        for k in 0..6u16 {
            let run: Vec<Oid> = model.iter().filter(|(m, _)| *m == k).map(|(_, o)| *o).collect();
            let mut found = tree.lookup(&k.to_be_bytes()).unwrap();
            found.sort();
            prop_assert_eq!(found, run);
        }
        for iv in intervals {
            // Bounds among the six keys and just past them.
            let near = |b: Bound<u16>| match b {
                Bound::Included(k) => Bound::Included(k % 8),
                Bound::Excluded(k) => Bound::Excluded(k % 8),
                Bound::Unbounded => Bound::Unbounded,
            };
            let iv = Interval { lo: near(iv.lo), hi: near(iv.hi), ..iv };
            let (mut got, want) = (walk(&tree, iv), iv.of(&model));
            let keys = |entries: &[(u16, Oid)]| entries.iter().map(|(k, _)| *k).collect::<Vec<_>>();
            prop_assert_eq!(keys(&got), keys(&want), "{:?}", iv);
            got.sort();
            if iv.stop_after == usize::MAX {
                prop_assert_eq!(got, want, "{:?}", iv);
            } else {
                // Which entries of the last run came first is the leaves' say.
                prop_assert!(got.windows(2).all(|w| w[0] != w[1]), "{:?}: an entry twice", iv);
                prop_assert!(got.iter().all(|e| model.binary_search(e).is_ok()), "{:?}", iv);
            }
        }
    }
}

/// A walk interleaved with inserts that split the leaves under it: between
/// two leaves the walker pins nothing, so the writer's splits land on the
/// leaf just left, the one ahead and the ones in between. Every key there
/// before the walk (the even ones; nothing is deleted) is seen exactly once
/// and in order; a key inserted meanwhile at most once.
#[test]
fn a_walk_under_concurrent_splits_sees_every_old_key_once() {
    let tree = Arc::new(BTree::create(pool(256), true).unwrap());
    let olds: Vec<u16> = (0..4000).map(|i| i * 2).collect();
    for k in &olds {
        tree.insert(&k.to_be_bytes(), oid_for(*k, 0)).unwrap();
    }
    let start = Arc::new(Barrier::new(2));
    let writer = {
        let (tree, start) = (tree.clone(), start.clone());
        std::thread::spawn(move || {
            start.wait();
            // Odd keys from both ends towards the middle: every leaf splits.
            for i in 0..2000u16 {
                for k in [i * 2 + 1, 7999 - i * 2] {
                    tree.insert(&k.to_be_bytes(), oid_for(k, 1)).unwrap();
                }
            }
        })
    };
    start.wait();
    let mut walks = 0;
    while !writer.is_finished() || walks < 3 {
        let mut seen: Vec<u16> = Vec::new();
        tree.range_scan(
            Some(&100u16.to_be_bytes()),
            true,
            Some(&7900u16.to_be_bytes()),
            false,
            |k, _| {
                seen.push(u16::from_be_bytes(k.try_into().unwrap()));
                true
            },
        )
        .unwrap();
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "ascending, nothing twice"
        );
        let old_seen: Vec<u16> = seen.iter().copied().filter(|k| k % 2 == 0).collect();
        let old_want: Vec<u16> = olds
            .iter()
            .copied()
            .filter(|k| (100..7900).contains(k))
            .collect();
        assert_eq!(old_seen, old_want, "walk {walks}");
        walks += 1;
    }
    writer.join().unwrap();
    assert_eq!(tree.len().unwrap(), 8000);
}

// ---------------------------------------------------------------------
// Heap file vs HashMap (with tiny buffer pool to force eviction)
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum HeapOp {
    Insert(Vec<u8>),
    Update(usize, Vec<u8>),
    Delete(usize),
    Get(usize),
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    let payload = proptest::collection::vec(any::<u8>(), 0..900);
    prop_oneof![
        payload.clone().prop_map(HeapOp::Insert),
        (any::<usize>(), payload).prop_map(|(i, p)| HeapOp::Update(i, p)),
        any::<usize>().prop_map(HeapOp::Delete),
        any::<usize>().prop_map(HeapOp::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn heap_matches_model_under_eviction(ops in proptest::collection::vec(heap_op(), 1..150)) {
        let heap = HeapFile::create(pool(3)).unwrap();
        let mut live: Vec<(Oid, Vec<u8>)> = Vec::new();
        for op in ops {
            match op {
                HeapOp::Insert(p) => {
                    let oid = heap.insert(&p).unwrap();
                    live.push((oid, p));
                }
                HeapOp::Update(i, p) if !live.is_empty() => {
                    let i = i % live.len();
                    heap.update(live[i].0, &p).unwrap();
                    live[i].1 = p;
                }
                HeapOp::Delete(i) if !live.is_empty() => {
                    let i = i % live.len();
                    let (oid, _) = live.remove(i);
                    heap.delete(oid).unwrap();
                    prop_assert!(heap.get(oid).is_err(), "deleted OID dangles");
                }
                HeapOp::Get(i) if !live.is_empty() => {
                    let i = i % live.len();
                    prop_assert_eq!(&heap.get(live[i].0).unwrap(), &live[i].1);
                }
                _ => {}
            }
        }
        // Scan agreement: every live record exactly once under its OID.
        let mut scanned: Vec<(Oid, Vec<u8>)> = heap.scan().unwrap();
        scanned.sort_by_key(|(o, _)| *o);
        let mut want = live.clone();
        want.sort_by_key(|(o, _)| *o);
        prop_assert_eq!(scanned, want);
        prop_assert_eq!(heap.count().unwrap(), live.len() as u64);
    }
}

// ---------------------------------------------------------------------
// WAL: any prefix of committed transactions recovers consistently
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn wal_recovery_replays_exactly_committed(
        txns in proptest::collection::vec(
            (proptest::collection::vec((0u32..4, any::<u8>()), 1..5), any::<bool>()),
            1..10,
        )
    ) {
        use mood_storage::{MemLog, Page, PageId, Wal, Disk};
        let disk = MemDisk::new();
        let wal = Wal::new(Box::new(MemLog::new()), DiskMetrics::new());
        let f = disk.create_file().unwrap();
        for _ in 0..4 {
            disk.allocate_page(f).unwrap();
        }
        let page_of = |byte: u8| {
            let mut p = Page::new();
            p.data[0] = byte;
            p
        };
        // Model: last committed write per page.
        let mut expect: BTreeMap<u32, u8> = BTreeMap::new();
        for (writes, commit) in &txns {
            let t = wal.begin();
            // One record per page and transaction: its last write.
            let last: BTreeMap<u32, u8> = writes.iter().copied().collect();
            for (page, byte) in &last {
                let before = page_of(expect.get(page).copied().unwrap_or(0));
                wal.log_page(t, f, PageId(*page), &before, &page_of(*byte));
            }
            if *commit {
                wal.commit(t).unwrap();
                expect.extend(last);
            } else {
                wal.abort(t).unwrap();
            }
        }
        wal.recover(&disk).unwrap();
        for (page, byte) in expect {
            let mut p = Page::new();
            disk.read_page(f, PageId(page), &mut p).unwrap();
            prop_assert_eq!(p.data[0], byte, "page {} after recovery", page);
        }
    }
}

// ---------------------------------------------------------------------
// The redo codec: apply(diff(a, b), a) == b
// ---------------------------------------------------------------------

/// A page of seeded pseudo-random bytes, trailer included.
fn noise_page(mut seed: u64) -> mood_storage::Page {
    let mut p = mood_storage::Page::new();
    for b in p.data.iter_mut() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (seed >> 56) as u8;
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn redo_codec_roundtrips_and_never_logs_the_trailer(
        seed in any::<u64>(),
        // Edits may reach into (or lie wholly in) the checksum trailer.
        edits in proptest::collection::vec((0usize..PAGE_SIZE, 1usize..300, any::<u8>()), 0..10),
        rewrite in any::<bool>(),
    ) {
        use mood_storage::wal::{apply_redo, encode_redo, RedoKind};
        let a = noise_page(seed);
        let mut b = if rewrite { noise_page(!seed) } else { a.clone() };
        for (off, len, byte) in &edits {
            let end = (off + len).min(PAGE_SIZE);
            b.data[*off..end].fill(*byte);
        }
        let mut out = vec![0xEE; 3]; // the encoder appends; what is there stays
        let kind = encode_redo(&a, &b, &mut out);
        prop_assert_eq!(&out[..3], &[0xEE; 3]);
        let body = &out[3..];
        if a.data[..PAGE_USABLE] == b.data[..PAGE_USABLE] {
            // Nothing changed, or only the trailer did: nothing is logged.
            prop_assert_eq!(kind, None);
            prop_assert!(body.is_empty());
        } else {
            let kind = kind.expect("the pages differ");
            match kind {
                RedoKind::Image => prop_assert_eq!(body, &b.data[..PAGE_USABLE]),
                RedoKind::Delta => {
                    prop_assert!(body.len() < PAGE_USABLE, "a delta is smaller than an image")
                }
            }
            if rewrite {
                prop_assert_eq!(kind, RedoKind::Image, "a rewritten page falls back to an image");
            }
            let mut rebuilt = a.clone();
            prop_assert!(apply_redo(kind, body, &mut rebuilt));
            prop_assert_eq!(&rebuilt.data[..PAGE_USABLE], &b.data[..PAGE_USABLE]);
            prop_assert_eq!(
                &rebuilt.data[PAGE_USABLE..],
                &a.data[PAGE_USABLE..],
                "the trailer is not replayed"
            );
            // A truncated body is refused, not half-applied silently.
            prop_assert!(!apply_redo(kind, &body[..body.len() - 1], &mut rebuilt));
        }
    }
}

// ---------------------------------------------------------------------
// Transaction schedules vs a Vec<u8> model, crashed anywhere in the log
// ---------------------------------------------------------------------

const PAGES: usize = 4;

/// Fill `[off, off + len)` of a page (clipped to the usable area).
#[derive(Debug, Clone, Copy)]
struct Fill {
    page: usize,
    off: usize,
    len: usize,
    byte: u8,
}

#[derive(Debug, Clone)]
struct Stmt {
    fills: Vec<Fill>,
    rollback: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum End {
    Commit,
    Abort,
    /// The commit's append lands, its force fails; the abort marker the
    /// live system then appends lands too, or is lost with the device.
    ForceFails {
        abort_lands: bool,
    },
}

#[derive(Debug, Clone)]
struct Txn {
    /// A write made with no transaction open, before this one begins.
    outside: Option<Fill>,
    stmts: Vec<Stmt>,
    end: End,
    checkpoint_after: bool,
}

fn fill() -> impl Strategy<Value = Fill> {
    (0usize..PAGES, 0usize..PAGE_USABLE, 1usize..600, any::<u8>()).prop_map(
        |(page, off, len, byte)| Fill {
            page,
            off,
            len,
            byte,
        },
    )
}

fn txn() -> impl Strategy<Value = Txn> {
    let stmt = (proptest::collection::vec(fill(), 1..4), 0u8..4).prop_map(|(fills, r)| Stmt {
        fills,
        rollback: r == 0,
    });
    let end = (0u8..8).prop_map(|e| match e {
        0 => End::Abort,
        1 => End::ForceFails { abort_lands: true },
        2 => End::ForceFails { abort_lands: false },
        _ => End::Commit,
    });
    (
        (0u8..5, fill()).prop_map(|(o, f)| (o == 0).then_some(f)),
        proptest::collection::vec(stmt, 1..4),
        end,
        0u8..6,
    )
        .prop_map(|(outside, stmts, end, c)| Txn {
            outside,
            stmts,
            end,
            checkpoint_after: c == 0,
        })
}

/// A log over shared bytes whose next force can be made to fail once,
/// and with it (the device is gone) the append that follows.
struct FlakyLog {
    bytes: Arc<mood_storage::MemLog>,
    fail_force: std::sync::atomic::AtomicBool,
    and_the_next_append: std::sync::atomic::AtomicBool,
    fail_append: std::sync::atomic::AtomicBool,
}

impl LogStore for FlakyLog {
    fn append(&self, b: &[u8]) -> mood_storage::Result<()> {
        if self
            .fail_append
            .swap(false, std::sync::atomic::Ordering::SeqCst)
        {
            return Err(mood_storage::StorageError::Io(
                "injected append failure".into(),
            ));
        }
        self.bytes.append(b)
    }
    fn force(&self) -> mood_storage::Result<()> {
        use std::sync::atomic::Ordering::SeqCst;
        if self.fail_force.swap(false, SeqCst) {
            self.fail_append
                .store(self.and_the_next_append.swap(false, SeqCst), SeqCst);
            return Err(mood_storage::StorageError::Io(
                "injected force failure".into(),
            ));
        }
        self.bytes.force()
    }
    fn read_all(&self) -> mood_storage::Result<Vec<u8>> {
        self.bytes.read_all()
    }
    fn truncate(&self) -> mood_storage::Result<()> {
        self.bytes.truncate()
    }
    fn truncate_to(&self, len: u64) -> mood_storage::Result<()> {
        self.bytes.truncate_to(len)
    }
    fn len(&self) -> mood_storage::Result<u64> {
        self.bytes.len()
    }
}

type Image = Vec<Vec<u8>>;

/// Run `schedule` on a durable manager over a memory disk and log, keeping
/// a byte-vector model of what a replay of the log must produce; then crash
/// at every commit boundary, one byte short of each, and at `cut`, recover
/// twice, and compare.
fn run_schedule(schedule: &[Txn], cut: usize) {
    use mood_storage::{AccessKind, Disk, MemLog, Page, PageId, StorageManager, Wal};
    use std::sync::atomic::Ordering::SeqCst;

    let disk = Arc::new(MemDisk::new());
    let log = Arc::new(FlakyLog {
        bytes: Arc::new(MemLog::new()),
        fail_force: false.into(),
        and_the_next_append: false.into(),
        fail_append: false.into(),
    });
    let file = disk.create_file().unwrap();
    for _ in 0..PAGES {
        disk.allocate_page(file).unwrap();
    }
    // Pool far larger than the page set: nothing is evicted, so the disk
    // holds exactly the last checkpoint's state.
    let sm = StorageManager::with_parts(disk.clone(), Box::new(log.clone()), 16).unwrap();
    let apply = |img: &mut Image, f: &Fill| {
        let end = (f.off + f.len).min(PAGE_USABLE);
        img[f.page][f.off..end].fill(f.byte);
    };
    let write = |f: &Fill| {
        let end = (f.off + f.len).min(PAGE_USABLE);
        sm.pool()
            .with_page_mut(file, PageId(f.page as u32), AccessKind::Random, |p| {
                p.data[f.off..end].fill(f.byte)
            })
            .unwrap();
    };

    // `live`: the pool's bytes. `replayed`: what the disk plus a replay of
    // the whole log gives. `on_disk`: the last checkpoint's state.
    let mut live: Image = vec![vec![0u8; PAGE_USABLE]; PAGES];
    let mut replayed = live.clone();
    let mut on_disk = live.clone();
    // (log length, expected recovered state) after each logged commit
    // since the last checkpoint; a cut inside `(lo, hi)` of `ambiguous`
    // separates a commit marker from its abort marker and is not tried.
    let mut marks: Vec<(usize, Image)> = vec![(0, on_disk.clone())];
    let mut ambiguous: Vec<(usize, usize)> = Vec::new();
    let log_len = || log.bytes.len().unwrap() as usize;

    for t in schedule {
        if let Some(f) = &t.outside {
            write(f);
            apply(&mut live, f);
        }
        let start = live.clone();
        let id = sm.txn_begin();
        let mut dirtied = [false; PAGES];
        for s in &t.stmts {
            let before_stmt = live.clone();
            sm.stmt_begin();
            for f in &s.fills {
                write(f);
                apply(&mut live, f);
            }
            if s.rollback {
                sm.stmt_rollback().unwrap();
                live = before_stmt;
            } else {
                sm.stmt_end();
                for f in &s.fills {
                    dirtied[f.page] = true;
                }
            }
        }
        // The log now rebuilds every page the transaction dirtied.
        let logs = |replayed: &mut Image, live: &Image| {
            for p in 0..PAGES {
                if dirtied[p] {
                    replayed[p] = live[p].clone();
                }
            }
        };
        let before_len = log_len();
        match t.end {
            End::Commit => {
                sm.txn_commit(id).unwrap();
                logs(&mut replayed, &live);
                marks.push((log_len(), replayed.clone()));
            }
            End::Abort => {
                sm.txn_rollback(id).unwrap();
                live = start;
                assert_eq!(log_len(), before_len, "a rollback logs nothing");
            }
            End::ForceFails { .. } if !dirtied.contains(&true) => {
                // Read-only: the commit never reaches the log.
                sm.txn_commit(id).unwrap();
            }
            End::ForceFails { abort_lands } => {
                log.fail_force.store(true, SeqCst);
                log.and_the_next_append.store(!abort_lands, SeqCst);
                assert!(sm.txn_commit(id).is_err());
                assert!(
                    !log.fail_append.load(SeqCst),
                    "the abort marker was attempted"
                );
                sm.health().heal();
                if abort_lands {
                    ambiguous.push((before_len, log_len()));
                } else {
                    // The log holds the commit marker and nothing disowns
                    // it: replay commits what the live system rolled back.
                    logs(&mut replayed, &live);
                    marks.push((log_len(), replayed.clone()));
                }
                live = start;
            }
        }
        if t.checkpoint_after {
            sm.checkpoint().unwrap();
            on_disk = live.clone();
            replayed = live.clone();
            marks = vec![(0, on_disk.clone())];
            ambiguous.clear();
        }
    }

    // Crash. The pool is lost; the disk and a prefix of the log survive.
    let bytes = log.bytes.read_all().unwrap();
    drop(sm);
    let mut cuts: Vec<usize> = marks
        .iter()
        .flat_map(|(len, _)| [len.saturating_sub(1), *len])
        .collect();
    cuts.push(cut % (bytes.len() + 1));
    for cut in cuts {
        if ambiguous.iter().any(|(lo, hi)| *lo < cut && cut < *hi) {
            continue;
        }
        let expect = &marks.iter().rev().find(|(len, _)| *len <= cut).unwrap().1;
        let crashed = MemDisk::new();
        let f = crashed.create_file().unwrap();
        assert_eq!(f, file);
        for (p, checkpointed) in on_disk.iter().enumerate() {
            crashed.allocate_page(f).unwrap();
            let mut page = Page::new();
            disk.read_page(file, PageId(p as u32), &mut page).unwrap();
            assert!(
                page.data[..PAGE_USABLE] == checkpointed[..],
                "no-steal: the disk holds the checkpoint"
            );
            crashed.write_page(f, PageId(p as u32), &page).unwrap();
        }
        let torn = MemLog::new();
        torn.append(&bytes[..cut]).unwrap();
        let wal = Wal::new(Box::new(torn), DiskMetrics::new());
        let snapshot = || -> Image {
            (0..PAGES)
                .map(|p| {
                    let mut page = Page::new();
                    crashed.read_page(f, PageId(p as u32), &mut page).unwrap();
                    assert!(page.verify_checksum().is_ok());
                    page.data.to_vec()
                })
                .collect()
        };
        wal.recover(&crashed).unwrap();
        let first = snapshot();
        wal.recover(&crashed).unwrap();
        assert!(
            snapshot() == first,
            "cut {cut}: the second recovery changed bytes"
        );
        for p in 0..PAGES {
            assert!(
                first[p][..PAGE_USABLE] == expect[p][..],
                "cut {cut} of {}: page {p} is not its last committed state",
                bytes.len()
            );
        }
    }
}

#[test]
fn an_image_from_a_failed_commit_is_logged_again_by_the_next_transaction() {
    // Page 0's first image since the checkpoint is logged by a transaction
    // whose force fails. Were it counted as a base, the second
    // transaction's delta would replay over nothing. With `byte` 0 the
    // failed transaction rewrites the page with the bytes it already had,
    // so not even the page's contents give the stale base away.
    let one = |byte: u8, end| Txn {
        outside: None,
        stmts: vec![Stmt {
            fills: vec![Fill {
                page: 0,
                off: 10 * byte as usize,
                len: 50,
                byte,
            }],
            rollback: false,
        }],
        end,
        checkpoint_after: false,
    };
    for (byte, abort_lands) in [(1, true), (1, false), (0, true), (0, false)] {
        run_schedule(
            &[
                one(byte, End::ForceFails { abort_lands }),
                one(2, End::Commit),
                one(3, End::Commit),
            ],
            usize::MAX,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn recovery_reaches_the_last_committed_bytes_wherever_the_log_is_cut(
        schedule in proptest::collection::vec(txn(), 1..12),
        cut in any::<usize>(),
    ) {
        run_schedule(&schedule, cut);
    }
}
