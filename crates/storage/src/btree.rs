//! Disk-resident B+-tree index.
//!
//! Keys are byte strings in a byte-comparable encoding (the data-model layer
//! provides the encoding); payloads are OIDs. Non-unique indexes store one
//! entry per (key, oid) pair, sorted within a leaf; a run of duplicates that
//! outgrows its leaf continues on the right siblings in arrival order, so a
//! key's entries enumerate in OID order leaf by leaf, not across leaves.
//! Deletion is lazy (no rebalancing), which ESM-era storage managers
//! also did; the tree never loses search correctness, only space.
//!
//! Readers — [`BTree::lookup`] is the interval `[k, k]` of the one walk,
//! [`BTree::range_scan`] — search every node in place on its pinned page;
//! only writers decode a node (`Node::read`) to rebuild it.
//!
//! Page 0 of the index file is a metadata page carrying the root pointer and
//! the statistics the cost model's Table 9 needs: `level(I)`, `leaves(I)`,
//! `keysize(I)`, `unique(I)` and the derived order `v(I)`.

use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::metrics::AccessKind;
use crate::oid::{FileId, Oid, PageId};
use crate::page::{Page, PAGE_SIZE, PAGE_USABLE};

const TAG_META: u8 = 0;
const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;
const NO_PAGE: u32 = u32::MAX;

/// Header bytes reserved in every node page.
const NODE_HEADER: usize = 16;

/// Statistics exposed for the cost model (paper Table 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BTreeStats {
    /// `level(I)` — number of levels (1 for a lone leaf).
    pub levels: u32,
    /// `leaves(I)` — number of leaf pages.
    pub leaves: u32,
    /// `keysize(I)` — average key size in bytes (rounded).
    pub keysize: u32,
    /// `unique(I)` flag.
    pub unique: bool,
    /// Total number of entries.
    pub entries: u64,
    /// `v(I)` — the order: half the fanout a page of this keysize supports.
    pub order: u32,
}

#[derive(Debug, Clone)]
enum Node {
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
                NODE_HEADER + children.len() * 4 + keys.iter().map(|k| 2 + k.len()).sum::<usize>()
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
        match page.data[0] {
            TAG_LEAF => {
                let next_raw = u32::from_le_bytes(page.data[3..7].try_into().unwrap());
                let next = if next_raw == NO_PAGE {
                    None
                } else {
                    Some(PageId(next_raw))
                };
                let mut entries = Vec::with_capacity(count);
                let mut off = NODE_HEADER;
                for _ in 0..count {
                    let klen = u16::from_le_bytes([page.data[off], page.data[off + 1]]) as usize;
                    off += 2;
                    let key = page.data[off..off + klen].to_vec();
                    off += klen;
                    let oid = Oid::from_bytes(&page.data[off..off + Oid::ENCODED_LEN])
                        .ok_or_else(|| StorageError::Corrupt("bad OID in leaf".into()))?;
                    off += Oid::ENCODED_LEN;
                    entries.push((key, oid));
                }
                Ok(Node::Leaf { entries, next })
            }
            TAG_INTERNAL => {
                let mut off = NODE_HEADER;
                let mut children = Vec::with_capacity(count + 1);
                for _ in 0..count + 1 {
                    children.push(PageId(u32::from_le_bytes(
                        page.data[off..off + 4].try_into().unwrap(),
                    )));
                    off += 4;
                }
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    let klen = u16::from_le_bytes([page.data[off], page.data[off + 1]]) as usize;
                    off += 2;
                    keys.push(page.data[off..off + klen].to_vec());
                    off += klen;
                }
                Ok(Node::Internal { keys, children })
            }
            t => Err(StorageError::Corrupt(format!("unexpected node tag {t}"))),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Meta {
    root: PageId,
    levels: u32,
    entries: u64,
    leaves: u32,
    unique: bool,
    key_bytes: u64,
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

    fn read(page: &Page) -> Result<Meta> {
        if page.data[0] != TAG_META {
            return Err(StorageError::Corrupt("missing B+-tree meta page".into()));
        }
        Ok(Meta {
            root: PageId(u32::from_le_bytes(page.data[4..8].try_into().unwrap())),
            levels: u32::from_le_bytes(page.data[8..12].try_into().unwrap()),
            entries: u64::from_le_bytes(page.data[12..20].try_into().unwrap()),
            leaves: u32::from_le_bytes(page.data[20..24].try_into().unwrap()),
            unique: page.data[24] != 0,
            key_bytes: u64::from_le_bytes(page.data[25..33].try_into().unwrap()),
        })
    }
}

/// The child an internal node (on `p`) routes `key` to: the first whose
/// separator is not below it — the leftmost subtree that can hold the key —
/// or the leftmost child for no key at all. Searched in place:
/// `children[0..=count]` come first on the page, then the keys.
fn route(p: &Page, key: Option<&[u8]>) -> PageId {
    let count = u16::from_le_bytes([p.data[1], p.data[2]]) as usize;
    let mut idx = 0;
    if let Some(key) = key {
        let mut off = NODE_HEADER + (count + 1) * 4;
        idx = count;
        for i in 0..count {
            let klen = u16::from_le_bytes([p.data[off], p.data[off + 1]]) as usize;
            off += 2;
            if &p.data[off..off + klen] >= key {
                idx = i;
                break;
            }
            off += klen;
        }
    }
    let at = NODE_HEADER + idx * 4;
    PageId(u32::from_le_bytes(p.data[at..at + 4].try_into().unwrap()))
}

/// A B+-tree index over byte-encoded keys.
///
/// Concurrency: readers are safe alongside one writer (readers reach
/// freshly split keys through the leaf chain); writers serialize on an
/// internal mutex, so the tree is safe for arbitrary concurrent use.
pub struct BTree {
    file: FileId,
    pool: Arc<BufferPool>,
    write_lock: parking_lot::Mutex<()>,
}

impl BTree {
    /// Create an empty index.
    pub fn create(pool: Arc<BufferPool>, unique: bool) -> Result<BTree> {
        let file = pool.disk().create_file()?;
        let meta_pid = pool.disk().allocate_page(file)?;
        debug_assert_eq!(meta_pid, PageId(0));
        let root_pid = pool.disk().allocate_page(file)?;
        let tree = BTree {
            file,
            pool,
            write_lock: parking_lot::Mutex::new(()),
        };
        tree.store_node(
            root_pid,
            &Node::Leaf {
                entries: Vec::new(),
                next: None,
            },
        )?;
        tree.store_meta(&Meta {
            root: root_pid,
            levels: 1,
            entries: 0,
            leaves: 1,
            unique,
            key_bytes: 0,
        })?;
        Ok(tree)
    }

    /// Re-open an existing index file.
    pub fn open(pool: Arc<BufferPool>, file: FileId) -> BTree {
        BTree {
            file,
            pool,
            write_lock: parking_lot::Mutex::new(()),
        }
    }

    pub fn file_id(&self) -> FileId {
        self.file
    }

    fn load_meta(&self) -> Result<Meta> {
        self.pool
            .with_page(self.file, PageId(0), AccessKind::Index, Meta::read)?
            .map_err(|e| e.locate(self.file, PageId(0)))
    }

    fn store_meta(&self, meta: &Meta) -> Result<()> {
        self.pool
            .with_page_mut(self.file, PageId(0), AccessKind::Index, |p| meta.write(p))
    }

    fn load_node(&self, pid: PageId) -> Result<Node> {
        self.pool
            .with_page(self.file, pid, AccessKind::Index, Node::read)?
            .map_err(|e| e.locate(self.file, pid))
    }

    fn store_node(&self, pid: PageId, node: &Node) -> Result<()> {
        debug_assert!(node.serialized_size() <= PAGE_USABLE);
        self.pool
            .with_page_mut(self.file, pid, AccessKind::Index, |p| node.write(p))
    }

    fn alloc_node(&self, node: &Node) -> Result<PageId> {
        let pid = self.pool.disk().allocate_page(self.file)?;
        self.store_node(pid, node)?;
        Ok(pid)
    }

    /// Insert (key, oid). Fails with [`StorageError::DuplicateKey`] on a
    /// unique index when the key already exists.
    pub fn insert(&self, key: &[u8], oid: Oid) -> Result<()> {
        let _guard = self.write_lock.lock();
        if key.len() + 2 + Oid::ENCODED_LEN > PAGE_SIZE / 4 {
            return Err(StorageError::RecordTooLarge {
                size: key.len(),
                max: PAGE_SIZE / 4 - 2 - Oid::ENCODED_LEN,
            });
        }
        let mut meta = self.load_meta()?;
        let split = self.insert_rec(meta.root, key, oid, &mut meta)?;
        if let Some((sep, right)) = split {
            let new_root = self.alloc_node(&Node::Internal {
                keys: vec![sep],
                children: vec![meta.root, right],
            })?;
            meta.root = new_root;
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
                // Split the leaf.
                let Node::Leaf { mut entries, next } = node else {
                    unreachable!()
                };
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid);
                let sep = right_entries[0].0.clone();
                let right = self.alloc_node(&Node::Leaf {
                    entries: right_entries,
                    next,
                })?;
                self.store_node(
                    pid,
                    &Node::Leaf {
                        entries,
                        next: Some(right),
                    },
                )?;
                meta.leaves += 1;
                Ok(Some((sep, right)))
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                let split = self.insert_rec(children[idx], key, oid, meta)?;
                let Some((sep, right)) = split else {
                    return Ok(None);
                };
                keys.insert(idx, sep);
                children.insert(idx + 1, right);
                let node = Node::Internal { keys, children };
                if node.serialized_size() <= PAGE_USABLE {
                    self.store_node(pid, &node)?;
                    return Ok(None);
                }
                let Node::Internal {
                    mut keys,
                    mut children,
                } = node
                else {
                    unreachable!()
                };
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

    /// Find the *leftmost* leaf that could contain `key`.
    ///
    /// Routing takes the `< key` branch (not `<= key`): a run of duplicate
    /// keys may straddle a split whose separator equals the key, so readers
    /// must start at the left sibling and walk `next` pointers.
    fn descend_left(&self, key: &[u8]) -> Result<PageId> {
        let mut pid = self.load_meta()?.root;
        loop {
            let child = self
                .pool
                .with_page(self.file, pid, AccessKind::Index, |p| match p.data[0] {
                    TAG_INTERNAL => Ok(Some(route(p, Some(key)))),
                    TAG_LEAF => Ok(None),
                    t => Err(StorageError::Corrupt(format!("unexpected node tag {t}"))),
                })?
                .map_err(|e| e.locate(self.file, pid))?;
            match child {
                Some(c) => pid = c,
                None => return Ok(pid),
            }
        }
    }

    /// All OIDs stored under exactly `key`: the interval `[key, key]`.
    pub fn lookup(&self, key: &[u8]) -> Result<Vec<Oid>> {
        let mut out = Vec::new();
        self.range_scan(Some(key), true, Some(key), true, |_, oid| {
            out.push(oid);
            true
        })?;
        Ok(out)
    }

    /// Visit the entries whose keys lie between `lo` and `hi` (each bound
    /// inclusive or not; `None` means unbounded), keys ascending. The
    /// visitor returns `false` to stop. An interval that holds nothing — `lo`
    /// above `hi` included — visits nothing.
    ///
    /// This is the one index walk — the executor's hot path, under every
    /// point lookup and every range: one descent to the leftmost leaf that
    /// can hold `lo`, then the leaf chain, every node searched in place on
    /// its pinned page (no decoded node, no per-entry key copy; the last
    /// access of the descent is the first leaf's). The visitor therefore
    /// runs inside a pool callback and **must not re-enter the buffer pool**
    /// (the pool asserts it): it may copy the key or the OID out, nothing
    /// more. Between two leaves no page is pinned, so a writer may split the
    /// leaf just left or the one ahead; splits move entries to the right
    /// only, so every entry present for the whole walk is still visited
    /// exactly once.
    pub fn range_scan(
        &self,
        lo: Option<&[u8]>,
        lo_inclusive: bool,
        hi: Option<&[u8]>,
        hi_inclusive: bool,
        mut visit: impl FnMut(&[u8], Oid) -> bool,
    ) -> Result<()> {
        enum Step {
            Page(PageId),
            Done,
        }
        let mut pid = self.load_meta()?.root;
        loop {
            let on_page = |p: &Page| -> Result<Step> {
                let count = u16::from_le_bytes([p.data[1], p.data[2]]) as usize;
                match p.data[0] {
                    TAG_INTERNAL => return Ok(Step::Page(route(p, lo))),
                    TAG_LEAF => {}
                    t => return Err(StorageError::Corrupt(format!("unexpected node tag {t}"))),
                }
                let mut off = NODE_HEADER;
                for _ in 0..count {
                    let klen = u16::from_le_bytes([p.data[off], p.data[off + 1]]) as usize;
                    off += 2;
                    let k = &p.data[off..off + klen];
                    off += klen;
                    let at = off;
                    off += Oid::ENCODED_LEN;
                    if lo.is_some_and(|lo| if lo_inclusive { k < lo } else { k <= lo }) {
                        continue;
                    }
                    if hi.is_some_and(|hi| if hi_inclusive { k > hi } else { k >= hi }) {
                        return Ok(Step::Done);
                    }
                    let oid = Oid::from_bytes(&p.data[at..at + Oid::ENCODED_LEN])
                        .ok_or_else(|| StorageError::Corrupt("bad OID in leaf".into()))?;
                    if !visit(k, oid) {
                        return Ok(Step::Done);
                    }
                }
                // The interval may continue on the right sibling.
                let next = u32::from_le_bytes(p.data[3..7].try_into().unwrap());
                Ok(if next == NO_PAGE {
                    Step::Done
                } else {
                    Step::Page(PageId(next))
                })
            };
            let step = self
                .pool
                .with_page(self.file, pid, AccessKind::Index, on_page)?
                .map_err(|e| e.locate(self.file, pid))?;
            match step {
                Step::Page(next) => pid = next,
                Step::Done => return Ok(()),
            }
        }
    }

    /// Remove one (key, oid) entry. Returns whether an entry was removed.
    pub fn delete(&self, key: &[u8], oid: Oid) -> Result<bool> {
        let _guard = self.write_lock.lock();
        // A duplicate run may span several leaves; walk right until the
        // entry is found or the keys pass the target.
        let mut pid = self.descend_left(key)?;
        loop {
            let Node::Leaf { mut entries, next } = self.load_node(pid)? else {
                return Err(StorageError::CorruptAt {
                    file: self.file,
                    page: pid,
                    detail: "descend ended on internal node".into(),
                });
            };
            if entries.first().is_some_and(|(k, _)| k.as_slice() > key) {
                return Ok(false);
            }
            let before = entries.len();
            entries.retain(|(k, o)| !(k.as_slice() == key && *o == oid));
            if entries.len() < before {
                self.store_node(pid, &Node::Leaf { entries, next })?;
                let mut meta = self.load_meta()?;
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

    /// Table 9 statistics.
    pub fn stats(&self) -> Result<BTreeStats> {
        let meta = self.load_meta()?;
        let keysize = meta.key_bytes.checked_div(meta.entries).unwrap_or(0) as u32;
        let entry = 2 + keysize as usize + Oid::ENCODED_LEN;
        let fanout = ((PAGE_USABLE - NODE_HEADER) / entry.max(1)).max(2) as u32;
        Ok(BTreeStats {
            levels: meta.levels,
            leaves: meta.leaves,
            keysize,
            unique: meta.unique,
            entries: meta.entries,
            order: fanout / 2,
        })
    }

    pub fn len(&self) -> Result<u64> {
        Ok(self.load_meta()?.entries)
    }

    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::metrics::DiskMetrics;
    use crate::oid::SlotId;

    fn tree(unique: bool) -> BTree {
        let disk = Arc::new(MemDisk::new());
        let pool = Arc::new(BufferPool::new(disk, 256, DiskMetrics::new()));
        BTree::create(pool, unique).unwrap()
    }

    fn oid(n: u32) -> Oid {
        Oid::new(FileId(9), PageId(n / 100), SlotId((n % 100) as u16), 1)
    }

    fn key(n: u32) -> Vec<u8> {
        // Big-endian so byte order == numeric order.
        n.to_be_bytes().to_vec()
    }

    #[test]
    fn insert_and_lookup_single() {
        let t = tree(true);
        t.insert(&key(5), oid(5)).unwrap();
        assert_eq!(t.lookup(&key(5)).unwrap(), vec![oid(5)]);
        assert!(t.lookup(&key(6)).unwrap().is_empty());
    }

    #[test]
    fn thousands_of_keys_split_correctly() {
        let t = tree(true);
        let n = 5000u32;
        // Insert in a scrambled order to exercise splits everywhere.
        let mut order: Vec<u32> = (0..n).collect();
        let mut state = 12345u64;
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        for &i in &order {
            t.insert(&key(i), oid(i)).unwrap();
        }
        let stats = t.stats().unwrap();
        assert!(
            stats.levels >= 2,
            "5000 keys need multiple levels, got {}",
            stats.levels
        );
        assert!(stats.leaves > 1);
        assert_eq!(stats.entries, n as u64);
        for i in (0..n).step_by(97) {
            assert_eq!(t.lookup(&key(i)).unwrap(), vec![oid(i)], "key {i}");
        }
    }

    #[test]
    fn range_scan_in_order() {
        let t = tree(true);
        for i in 0..1000u32 {
            t.insert(&key(i), oid(i)).unwrap();
        }
        let mut seen = Vec::new();
        t.range_scan(Some(&key(100)), true, Some(&key(199)), true, |k, _| {
            seen.push(u32::from_be_bytes(k.try_into().unwrap()));
            true
        })
        .unwrap();
        assert_eq!(seen, (100..=199).collect::<Vec<_>>());
    }

    #[test]
    fn range_scan_exclusive_bounds() {
        let t = tree(true);
        for i in 0..20u32 {
            t.insert(&key(i), oid(i)).unwrap();
        }
        let mut seen = Vec::new();
        t.range_scan(Some(&key(5)), false, Some(&key(10)), false, |k, _| {
            seen.push(u32::from_be_bytes(k.try_into().unwrap()));
            true
        })
        .unwrap();
        assert_eq!(seen, vec![6, 7, 8, 9]);
    }

    #[test]
    fn unbounded_scan_sees_everything_sorted() {
        let t = tree(true);
        for i in [5u32, 1, 9, 3, 7] {
            t.insert(&key(i), oid(i)).unwrap();
        }
        let mut seen = Vec::new();
        t.range_scan(None, true, None, true, |k, _| {
            seen.push(u32::from_be_bytes(k.try_into().unwrap()));
            true
        })
        .unwrap();
        assert_eq!(seen, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn unique_rejects_duplicates() {
        let t = tree(true);
        t.insert(&key(1), oid(1)).unwrap();
        assert_eq!(t.insert(&key(1), oid(2)), Err(StorageError::DuplicateKey));
    }

    #[test]
    fn non_unique_stores_duplicates_in_oid_order() {
        let t = tree(false);
        t.insert(&key(1), oid(30)).unwrap();
        t.insert(&key(1), oid(10)).unwrap();
        t.insert(&key(1), oid(20)).unwrap();
        assert_eq!(t.lookup(&key(1)).unwrap(), vec![oid(10), oid(20), oid(30)]);
    }

    #[test]
    fn delete_removes_specific_entry() {
        let t = tree(false);
        t.insert(&key(1), oid(10)).unwrap();
        t.insert(&key(1), oid(20)).unwrap();
        assert!(t.delete(&key(1), oid(10)).unwrap());
        assert_eq!(t.lookup(&key(1)).unwrap(), vec![oid(20)]);
        assert!(
            !t.delete(&key(1), oid(10)).unwrap(),
            "second delete is a no-op"
        );
        assert_eq!(t.len().unwrap(), 1);
    }

    #[test]
    fn stats_track_shape() {
        let t = tree(false);
        assert_eq!(t.stats().unwrap().levels, 1);
        for i in 0..2000u32 {
            t.insert(&key(i), oid(i)).unwrap();
        }
        let s = t.stats().unwrap();
        assert_eq!(s.entries, 2000);
        assert_eq!(s.keysize, 4);
        assert!(!s.unique);
        assert!(
            s.order > 10,
            "4-byte keys give a large order, got {}",
            s.order
        );
        // leaves consistent with entries / fanout.
        assert!(s.leaves as u64 >= s.entries / (2 * s.order as u64 + 1));
    }

    #[test]
    fn variable_length_string_keys() {
        let t = tree(true);
        let words = [
            "apple",
            "banana",
            "cherry",
            "date",
            "elderberry",
            "fig",
            "grape",
        ];
        for (i, w) in words.iter().enumerate() {
            t.insert(w.as_bytes(), oid(i as u32)).unwrap();
        }
        let mut seen = Vec::new();
        t.range_scan(Some(b"banana"), true, Some(b"fig"), true, |k, _| {
            seen.push(String::from_utf8(k.to_vec()).unwrap());
            true
        })
        .unwrap();
        assert_eq!(seen, vec!["banana", "cherry", "date", "elderberry", "fig"]);
    }

    #[test]
    fn oversized_key_rejected() {
        let t = tree(true);
        assert!(matches!(
            t.insert(&vec![0u8; PAGE_SIZE], oid(1)),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn lookups_cost_index_page_reads() {
        let disk = Arc::new(MemDisk::new());
        let metrics = DiskMetrics::new();
        // Tiny pool so index descents actually hit "disk".
        let pool = Arc::new(BufferPool::new(disk, 1, metrics.clone()));
        let t = BTree::create(pool, true).unwrap();
        for i in 0..3000u32 {
            t.insert(&key(i), oid(i)).unwrap();
        }
        metrics.reset();
        t.lookup(&key(1500)).unwrap();
        let snap = metrics.snapshot();
        assert!(snap.idx_pages >= 2, "multi-level descent reads index pages");
        assert_eq!(snap.rnd_pages + snap.seq_pages, 0);
    }
}
