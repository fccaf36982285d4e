//! Property-based tests for the storage substrate: each structure is
//! checked against an in-memory model under randomized operation sequences.

use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};
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
// B+-tree vs the node-rebuilding writer it replaced, byte for byte
// ---------------------------------------------------------------------

/// The B+-tree writer the in-place one replaced, kept as its oracle. It
/// decodes a node into a [`Node`](rebuild::Node) (one `Vec` per key),
/// edits that, and writes the whole page again, zeros after the last
/// entry; the meta page is zero-filled and rewritten on every change. The
/// in-place writer must leave every page of its file byte-identical to
/// what this one leaves, so the page layout, the split points and the
/// placement of duplicate runs are defined here.
mod rebuild {
    use std::sync::Arc;

    use mood_storage::{
        AccessKind, BufferPool, FileId, Oid, Page, PageId, Result, StorageError, PAGE_SIZE,
        PAGE_USABLE,
    };

    const TAG_META: u8 = 0;
    const TAG_LEAF: u8 = 1;
    const TAG_INTERNAL: u8 = 2;
    const NO_PAGE: u32 = u32::MAX;
    const NODE_HEADER: usize = 16;

    #[derive(Debug, Clone)]
    pub enum Node {
        Leaf {
            entries: Vec<(Vec<u8>, Oid)>,
            next: Option<PageId>,
        },
        Internal {
            keys: Vec<Vec<u8>>,
            children: Vec<PageId>,
        },
    }

    impl Node {
        fn serialized_size(&self) -> usize {
            match self {
                Node::Leaf { entries, .. } => {
                    NODE_HEADER
                        + entries
                            .iter()
                            .map(|(k, _)| 2 + k.len() + Oid::ENCODED_LEN)
                            .sum::<usize>()
                }
                Node::Internal { keys, children } => {
                    NODE_HEADER
                        + children.len() * 4
                        + keys.iter().map(|k| 2 + k.len()).sum::<usize>()
                }
            }
        }

        fn write(&self, page: &mut Page) {
            page.data.fill(0);
            match self {
                Node::Leaf { entries, next } => {
                    page.data[0] = TAG_LEAF;
                    page.data[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                    page.data[3..7]
                        .copy_from_slice(&next.map(|p| p.0).unwrap_or(NO_PAGE).to_le_bytes());
                    let mut off = NODE_HEADER;
                    for (k, oid) in entries {
                        page.data[off..off + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
                        off += 2;
                        page.data[off..off + k.len()].copy_from_slice(k);
                        off += k.len();
                        page.data[off..off + Oid::ENCODED_LEN].copy_from_slice(&oid.to_bytes());
                        off += Oid::ENCODED_LEN;
                    }
                }
                Node::Internal { keys, children } => {
                    page.data[0] = TAG_INTERNAL;
                    page.data[1..3].copy_from_slice(&(keys.len() as u16).to_le_bytes());
                    let mut off = NODE_HEADER;
                    for c in children {
                        page.data[off..off + 4].copy_from_slice(&c.0.to_le_bytes());
                        off += 4;
                    }
                    for k in keys {
                        page.data[off..off + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
                        off += 2;
                        page.data[off..off + k.len()].copy_from_slice(k);
                        off += k.len();
                    }
                }
            }
        }

        fn read(page: &Page) -> Result<Node> {
            let count = u16::from_le_bytes([page.data[1], page.data[2]]) as usize;
            let u16_at = |off: usize| u16::from_le_bytes([page.data[off], page.data[off + 1]]);
            let u32_at = |at: usize| u32::from_le_bytes(page.data[at..at + 4].try_into().unwrap());
            match page.data[0] {
                TAG_LEAF => {
                    let next = Some(PageId(u32_at(3))).filter(|p| p.0 != NO_PAGE);
                    let mut entries = Vec::with_capacity(count);
                    let mut off = NODE_HEADER;
                    for _ in 0..count {
                        let klen = u16_at(off) as usize;
                        off += 2;
                        let key = page.data[off..off + klen].to_vec();
                        off += klen;
                        let oid = Oid::from_bytes(&page.data[off..off + Oid::ENCODED_LEN]).unwrap();
                        off += Oid::ENCODED_LEN;
                        entries.push((key, oid));
                    }
                    Ok(Node::Leaf { entries, next })
                }
                TAG_INTERNAL => {
                    let children = (0..=count).map(|i| PageId(u32_at(NODE_HEADER + i * 4)));
                    let children: Vec<PageId> = children.collect();
                    let mut off = NODE_HEADER + (count + 1) * 4;
                    let mut keys = Vec::with_capacity(count);
                    for _ in 0..count {
                        let klen = u16_at(off) as usize;
                        keys.push(page.data[off + 2..off + 2 + klen].to_vec());
                        off += 2 + klen;
                    }
                    Ok(Node::Internal { keys, children })
                }
                t => Err(StorageError::Corrupt(format!("unexpected node tag {t}"))),
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    pub struct Meta {
        pub root: PageId,
        pub levels: u32,
        pub entries: u64,
        pub leaves: u32,
        pub unique: bool,
        pub key_bytes: u64,
    }

    impl Meta {
        fn write(&self, page: &mut Page) {
            page.data.fill(0);
            page.data[0] = TAG_META;
            page.data[4..8].copy_from_slice(&self.root.0.to_le_bytes());
            page.data[8..12].copy_from_slice(&self.levels.to_le_bytes());
            page.data[12..20].copy_from_slice(&self.entries.to_le_bytes());
            page.data[20..24].copy_from_slice(&self.leaves.to_le_bytes());
            page.data[24] = self.unique as u8;
            page.data[25..33].copy_from_slice(&self.key_bytes.to_le_bytes());
        }

        fn read(page: &Page) -> Meta {
            let u32_at = |at: usize| u32::from_le_bytes(page.data[at..at + 4].try_into().unwrap());
            let u64_at = |at: usize| u64::from_le_bytes(page.data[at..at + 8].try_into().unwrap());
            assert_eq!(page.data[0], TAG_META);
            Meta {
                root: PageId(u32_at(4)),
                levels: u32_at(8),
                entries: u64_at(12),
                leaves: u32_at(20),
                unique: page.data[24] != 0,
                key_bytes: u64_at(25),
            }
        }
    }

    pub struct Tree {
        pub file: FileId,
        pool: Arc<BufferPool>,
    }

    impl Tree {
        pub fn create(pool: Arc<BufferPool>, unique: bool) -> Result<Tree> {
            let file = pool.disk().create_file()?;
            assert_eq!(pool.disk().allocate_page(file)?, PageId(0));
            let root = pool.disk().allocate_page(file)?;
            let tree = Tree { file, pool };
            tree.store_node(root, &Node::Leaf { entries: Vec::new(), next: None })?;
            let meta = Meta { root, levels: 1, entries: 0, leaves: 1, unique, key_bytes: 0 };
            tree.store_meta(&meta)?;
            Ok(tree)
        }

        pub fn meta(&self) -> Result<Meta> {
            self.pool.with_page(self.file, PageId(0), AccessKind::Index, Meta::read)
        }

        fn store_meta(&self, meta: &Meta) -> Result<()> {
            self.pool
                .with_page_mut(self.file, PageId(0), AccessKind::Index, |p| meta.write(p))
        }

        fn load_node(&self, pid: PageId) -> Result<Node> {
            self.pool.with_page(self.file, pid, AccessKind::Index, Node::read)?
        }

        fn store_node(&self, pid: PageId, node: &Node) -> Result<()> {
            assert!(node.serialized_size() <= PAGE_USABLE);
            self.pool
                .with_page_mut(self.file, pid, AccessKind::Index, |p| node.write(p))
        }

        fn alloc_node(&self, node: &Node) -> Result<PageId> {
            let pid = self.pool.disk().allocate_page(self.file)?;
            self.store_node(pid, node)?;
            Ok(pid)
        }

        pub fn insert(&self, key: &[u8], oid: Oid) -> Result<()> {
            if key.len() + 2 + Oid::ENCODED_LEN > PAGE_SIZE / 4 {
                return Err(StorageError::RecordTooLarge {
                    size: key.len(),
                    max: PAGE_SIZE / 4 - 2 - Oid::ENCODED_LEN,
                });
            }
            let mut meta = self.meta()?;
            if let Some((sep, right)) = self.insert_rec(meta.root, key, oid, &mut meta)? {
                let root = Node::Internal { keys: vec![sep], children: vec![meta.root, right] };
                meta.root = self.alloc_node(&root)?;
                meta.levels += 1;
            }
            meta.entries += 1;
            meta.key_bytes += key.len() as u64;
            self.store_meta(&meta)
        }

        /// Recursive insert; returns the (separator, right-page) of a split.
        fn insert_rec(
            &self,
            pid: PageId,
            key: &[u8],
            oid: Oid,
            meta: &mut Meta,
        ) -> Result<Option<(Vec<u8>, PageId)>> {
            match self.load_node(pid)? {
                Node::Leaf { mut entries, next } => {
                    if meta.unique && entries.iter().any(|(k, _)| k.as_slice() == key) {
                        return Err(StorageError::DuplicateKey);
                    }
                    let pos = entries.partition_point(|(k, o)| (k.as_slice(), *o) < (key, oid));
                    entries.insert(pos, (key.to_vec(), oid));
                    let node = Node::Leaf { entries, next };
                    if node.serialized_size() <= PAGE_USABLE {
                        self.store_node(pid, &node)?;
                        return Ok(None);
                    }
                    let Node::Leaf { mut entries, next } = node else { unreachable!() };
                    let right_entries = entries.split_off(entries.len() / 2);
                    let sep = right_entries[0].0.clone();
                    let right = self.alloc_node(&Node::Leaf { entries: right_entries, next })?;
                    self.store_node(pid, &Node::Leaf { entries, next: Some(right) })?;
                    meta.leaves += 1;
                    Ok(Some((sep, right)))
                }
                Node::Internal { mut keys, mut children } => {
                    let idx = keys.partition_point(|k| k.as_slice() <= key);
                    let Some((sep, right)) = self.insert_rec(children[idx], key, oid, meta)? else {
                        return Ok(None);
                    };
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    let node = Node::Internal { keys, children };
                    if node.serialized_size() <= PAGE_USABLE {
                        self.store_node(pid, &node)?;
                        return Ok(None);
                    }
                    let Node::Internal { mut keys, mut children } = node else { unreachable!() };
                    let mid = keys.len() / 2;
                    let promoted = keys[mid].clone();
                    let right_keys = keys.split_off(mid + 1);
                    keys.pop(); // the promoted key moves up, not right
                    let right_children = children.split_off(mid + 1);
                    let right = self.alloc_node(&Node::Internal {
                        keys: right_keys,
                        children: right_children,
                    })?;
                    self.store_node(pid, &Node::Internal { keys, children })?;
                    Ok(Some((promoted, right)))
                }
            }
        }

        /// Remove every (key, oid) entry of the first leaf that holds one.
        pub fn delete(&self, key: &[u8], oid: Oid) -> Result<bool> {
            let mut pid = self.meta()?.root;
            while let Node::Internal { keys, children } = self.load_node(pid)? {
                pid = children[keys.partition_point(|k| k.as_slice() < key)];
            }
            loop {
                let Node::Leaf { mut entries, next } = self.load_node(pid)? else {
                    panic!("a leaf's next is a leaf");
                };
                if entries.first().is_some_and(|(k, _)| k.as_slice() > key) {
                    return Ok(false);
                }
                let before = entries.len();
                entries.retain(|(k, o)| !(k.as_slice() == key && *o == oid));
                if entries.len() < before {
                    self.store_node(pid, &Node::Leaf { entries, next })?;
                    let mut meta = self.meta()?;
                    meta.entries = meta.entries.saturating_sub(1);
                    meta.key_bytes = meta.key_bytes.saturating_sub(key.len() as u64);
                    self.store_meta(&meta)?;
                    return Ok(true);
                }
                if entries.last().is_some_and(|(k, _)| k.as_slice() > key) {
                    return Ok(false);
                }
                match next {
                    Some(n) => pid = n,
                    None => return Ok(false),
                }
            }
        }
    }
}

/// The usable bytes of every page of `file`.
fn pages_of(pool: &BufferPool, file: mood_storage::FileId) -> Vec<Vec<u8>> {
    let n = pool.disk().page_count(file).unwrap();
    let read = |pid| {
        let page = |p: &mood_storage::Page| p.data[..PAGE_USABLE].to_vec();
        pool.with_page(file, mood_storage::PageId(pid), mood_storage::AccessKind::Index, page)
    };
    (0..n).map(|pid| read(pid).unwrap()).collect()
}

/// The tree under test and its oracle, each on a pool of its own.
struct Twins {
    pool: Arc<BufferPool>,
    tree: BTree,
    old_pool: Arc<BufferPool>,
    old: rebuild::Tree,
}

impl Twins {
    fn new(unique: bool, frames: usize) -> Twins {
        let (pool, old_pool) = (pool(frames), pool(frames));
        let tree = BTree::create(pool.clone(), unique).unwrap();
        let old = rebuild::Tree::create(old_pool.clone(), unique).unwrap();
        Twins { pool, tree, old_pool, old }
    }

    fn insert(&self, key: &[u8], oid: Oid) -> mood_storage::Result<()> {
        let got = self.tree.insert(key, oid);
        assert_eq!(got, self.old.insert(key, oid), "insert {} bytes", key.len());
        got
    }

    fn delete(&self, key: &[u8], oid: Oid) -> bool {
        let got = self.tree.delete(key, oid).unwrap();
        assert_eq!(got, self.old.delete(key, oid).unwrap(), "delete {} bytes", key.len());
        got
    }

    /// Every page of the two files, byte for byte, and the statistics.
    fn pages(&self) -> Vec<Vec<u8>> {
        let (new, old) = (
            pages_of(&self.pool, self.tree.file_id()),
            pages_of(&self.old_pool, self.old.file),
        );
        assert_eq!(new.len(), old.len(), "page count");
        for (pid, (a, b)) in new.iter().zip(&old).enumerate() {
            if let Some(at) = (0..PAGE_USABLE).find(|&i| a[i] != b[i]) {
                panic!("page {pid} differs first at byte {at}: {} vs {}", a[at], b[at]);
            }
        }
        let (meta, stats) = (self.old.meta().unwrap(), self.tree.stats().unwrap());
        assert_eq!(
            (stats.levels, stats.leaves, stats.entries, stats.unique),
            (meta.levels, meta.leaves, meta.entries, meta.unique)
        );
        new
    }
}

/// A key from its shape: a leading byte (few values, so runs repeat) and a
/// length that reaches the longest key a node takes, `PAGE_SIZE / 4` bytes
/// with its length prefix and OID.
fn shaped_key(lead: u8, len: usize) -> Vec<u8> {
    let len = len.clamp(1, PAGE_SIZE / 4 - 2 - Oid::ENCODED_LEN);
    (0..len).map(|i| if i == 0 { lead } else { (i as u8).wrapping_mul(lead) }).collect()
}

#[derive(Debug, Clone)]
enum TwinOp {
    Insert(u8, usize, u16),
    /// Delete the `n`-th live entry (modulo their number), or a pair never
    /// inserted when there is none.
    Delete(usize),
    Range(Interval),
}

fn twin_op(long: bool) -> impl Strategy<Value = TwinOp> {
    let len = if long { 1..1010usize } else { 1..12usize };
    let insert = (0u8..6, len, 0u16..40).prop_map(|(l, n, o)| TwinOp::Insert(l, n, o));
    // Inserts twice as often as deletes, so the trees grow.
    prop_oneof![
        insert.clone(),
        insert,
        any::<usize>().prop_map(TwinOp::Delete),
        interval().prop_map(TwinOp::Range),
    ]
}

/// Run `ops` against the twins and a model (a sorted set of entries),
/// checking the pages after every write, the walk against the model.
fn run_twins(unique: bool, ops: &[TwinOp]) {
    let twins = Twins::new(unique, 64);
    let mut model: std::collections::BTreeSet<(Vec<u8>, Oid)> = Default::default();
    let oid = |o: u16| {
        let (file, page) = (mood_storage::FileId(3), mood_storage::PageId(o as u32));
        Oid::new(file, page, mood_storage::SlotId(o), 1)
    };
    for op in ops {
        match op {
            TwinOp::Insert(lead, len, o) => {
                let key = shaped_key(*lead, *len);
                let entry = (key.clone(), oid(*o));
                if model.contains(&entry) {
                    continue;
                }
                let before = twins.pages();
                match twins.insert(&key, entry.1) {
                    Ok(()) => prop_assert!(model.insert(entry)),
                    Err(mood_storage::StorageError::DuplicateKey) => {
                        prop_assert!(unique && model.iter().any(|(k, _)| *k == key));
                        prop_assert_eq!(twins.pages(), before, "a refused insert changes nothing");
                    }
                    Err(e) => panic!("{e}"),
                }
            }
            TwinOp::Delete(n) => {
                let entry = match model.iter().nth(n % model.len().max(1)) {
                    Some(e) => e.clone(),
                    None => (shaped_key(7, 3), oid(0)),
                };
                prop_assert_eq!(twins.delete(&entry.0, entry.1), model.remove(&entry));
            }
            TwinOp::Range(iv) => {
                // Bounds are one- or two-byte keys: between and around the runs.
                let bound =
                    |b: Bound<u16>| b.map(|k| vec![(k % 8) as u8; 1 + (k as usize / 8) % 2]);
                let (lo, hi) = (bound(iv.lo), bound(iv.hi));
                let mut got = Vec::new();
                let inclusive = |b: &Bound<Vec<u8>>| !matches!(b, Bound::Excluded(_));
                let key = |b: &Bound<Vec<u8>>| match b {
                    Bound::Unbounded => None,
                    Bound::Included(k) | Bound::Excluded(k) => Some(k.clone()),
                };
                let (lo_key, hi_key) = (key(&lo), key(&hi));
                let (lo_in, hi_in) = (inclusive(&lo), inclusive(&hi));
                let visit = |k: &[u8], o| {
                    got.push((k.to_vec(), o));
                    true
                };
                let (lo_key, hi_key) = (lo_key.as_deref(), hi_key.as_deref());
                twins.tree.range_scan(lo_key, lo_in, hi_key, hi_in, visit).unwrap();
                prop_assert!(got.windows(2).all(|w| w[0].0 <= w[1].0), "keys ascend");
                got.sort();
                let range = (lo, hi);
                let want: Vec<_> =
                    model.iter().filter(|(k, _)| range.contains(k)).cloned().collect();
                prop_assert_eq!(got, want);
            }
        }
        twins.pages();
    }
    let stats = twins.tree.stats().unwrap();
    let key_bytes: usize = model.iter().map(|(k, _)| k.len()).sum();
    prop_assert_eq!(stats.entries, model.len() as u64);
    prop_assert_eq!(stats.keysize as usize, key_bytes.checked_div(model.len()).unwrap_or(0));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Short keys from six runs: duplicate runs straddle leaves, separators
    /// equal run keys, deletes empty leaves.
    #[test]
    fn in_place_writer_matches_the_rebuilding_one_on_short_keys(
        unique in any::<bool>(),
        ops in proptest::collection::vec(twin_op(false), 1..400),
    ) {
        run_twins(unique, &ops);
    }

    /// Keys up to the longest a node takes: three or four to a leaf and to
    /// an internal node, so roots and internal nodes split within a few
    /// dozen inserts.
    #[test]
    fn in_place_writer_matches_the_rebuilding_one_on_long_keys(
        unique in any::<bool>(),
        ops in proptest::collection::vec(twin_op(true), 1..200),
    ) {
        run_twins(unique, &ops);
    }
}

/// Twelve whole-tree shapes — ascending, descending and hashed arrival ×
/// unique and non-unique × fixed and variable key length — built, then
/// thinned by deletes until some leaves are empty: the pages agree at both
/// points.
#[test]
fn in_place_writer_matches_the_rebuilding_one_in_twelve_shapes() {
    for order in 0..3u32 {
        for unique in [true, false] {
            for variable in [false, true] {
                let twins = Twins::new(unique, 256);
                let n = 3000u32;
                let at = |i: u32| match order {
                    0 => i,
                    1 => n - 1 - i,
                    _ => i * 1871 % n,
                };
                let key = |i: u32| {
                    // Non-unique trees get runs of 50 equal keys.
                    let k = if unique { i } else { i / 50 };
                    let mut key = k.to_be_bytes().to_vec();
                    if variable {
                        key.resize(4 + (k as usize * 37) % 300, b'x');
                    }
                    key
                };
                let oid = |i: u32| {
                    let (file, page) = (mood_storage::FileId(5), mood_storage::PageId(i));
                    Oid::new(file, page, mood_storage::SlotId(0), 1)
                };
                for i in 0..n {
                    twins.insert(&key(at(i)), oid(at(i))).unwrap();
                }
                let shape = format!("order {order}, unique {unique}, variable {variable}");
                twins.pages();
                assert!(twins.tree.stats().unwrap().levels >= 2, "{shape}");
                // Every third entry, then a whole stretch: leaves empty out.
                for i in (0..n).filter(|i| i % 3 == 0 || (1000..1600).contains(i)) {
                    assert!(twins.delete(&key(i), oid(i)), "{shape}: {i}");
                }
                twins.pages();
            }
        }
    }
}

/// A non-unique tree may hold one (key, oid) pair twice; a delete removes
/// every copy in the leaf it finds and counts one entry, as the rebuilding
/// writer's `retain` did.
#[test]
fn a_delete_removes_every_copy_of_its_pair_in_the_leaf() {
    let twins = Twins::new(false, 16);
    let o = oid_for(1, 1);
    for k in [3u16, 1, 1, 2] {
        twins.insert(&k.to_be_bytes(), o).unwrap();
    }
    assert!(twins.delete(&1u16.to_be_bytes(), o));
    twins.pages();
    assert!(twins.tree.lookup(&1u16.to_be_bytes()).unwrap().is_empty());
    assert_eq!(twins.tree.len().unwrap(), 3);
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

// ---------------------------------------------------------------------
// The block-wise checksum vs the byte loop
// ---------------------------------------------------------------------

/// The checksum as its definition states it, one byte at a time: the
/// oracle the block-wise `wal::checksum` must equal on every input.
fn checksum_by_bytes(bytes: &[u8]) -> u32 {
    let (mut a, mut b) = (1u32, 0u32);
    for &x in bytes {
        a = a.wrapping_add(x as u32);
        b = b.wrapping_add(a);
    }
    (b << 16) | (a & 0xFFFF)
}

#[test]
fn the_block_checksum_equals_the_byte_loop_at_every_length() {
    use mood_storage::wal::checksum;
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let noise: Vec<u8> = (0..9_001)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed as u8
        })
        .collect();
    // All 0xFF bytes make the largest lane sums a block can hold.
    let ones = vec![0xFFu8; 9_001];
    for n in 0..=9_000 {
        assert_eq!(checksum(&noise[..n]), checksum_by_bytes(&noise[..n]), "noise, {n} bytes");
        assert_eq!(checksum(&ones[..n]), checksum_by_bytes(&ones[..n]), "0xFF, {n} bytes");
        // The same lengths from an odd start.
        assert_eq!(checksum(&noise[1..=n]), checksum_by_bytes(&noise[1..=n]), "offset 1, {n}");
    }
    let mib = vec![0xFFu8; 1 << 20];
    assert_eq!(checksum(&mib), checksum_by_bytes(&mib), "1 MiB of 0xFF");
    let mib: Vec<u8> = noise.iter().copied().cycle().take(1 << 20).collect();
    assert_eq!(checksum(&mib), checksum_by_bytes(&mib), "1 MiB of noise");
}

proptest! {
    #[test]
    fn the_block_checksum_equals_the_byte_loop(
        bytes in proptest::collection::vec(any::<u8>(), 0..9_000),
    ) {
        prop_assert_eq!(mood_storage::wal::checksum(&bytes), checksum_by_bytes(&bytes));
    }
}
