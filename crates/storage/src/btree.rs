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
//! Every node is searched and edited in place on its pinned page; nothing
//! decodes one. A writer moves a node's tail to open or close an entry's
//! bytes; a split copies the upper half's bytes to a new page and cuts the
//! old one. Bytes past a node's last entry are always zero. A leaf is a
//! 16-byte header (`tag | count:u16 | next:u32`) and `klen:u16 | key | oid`
//! entries; an internal node the header, `count + 1` child page numbers
//! (`u32`) and `count` separators (`klen:u16 | key`).
//!
//! Page 0 of the index file is a metadata page carrying the root pointer and
//! the statistics the cost model's Table 9 needs: `level(I)`, `leaves(I)`,
//! `keysize(I)`, `unique(I)` and the derived order `v(I)`.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::metrics::AccessKind;
use crate::oid::{FileId, Oid, PageId};
use crate::page::{PAGE_SIZE, PAGE_USABLE};

const TAG_META: u8 = 0;
const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;
const NO_PAGE: u32 = u32::MAX;
const OID_LEN: usize = Oid::ENCODED_LEN;

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
    /// Write the fields over their own bytes (the rest of the page is zero).
    fn write(&self, d: &mut [u8]) {
        d[0] = TAG_META;
        d[4..8].copy_from_slice(&self.root.0.to_le_bytes());
        d[8..12].copy_from_slice(&self.levels.to_le_bytes());
        d[12..20].copy_from_slice(&self.entries.to_le_bytes());
        d[20..24].copy_from_slice(&self.leaves.to_le_bytes());
        d[24] = self.unique as u8;
        d[25..33].copy_from_slice(&self.key_bytes.to_le_bytes());
    }

    fn read(d: &[u8]) -> Result<Meta> {
        if d[0] != TAG_META {
            return Err(StorageError::Corrupt("missing B+-tree meta page".into()));
        }
        Ok(Meta {
            root: PageId(u32_at(d, 4)),
            levels: u32_at(d, 8),
            entries: u64::from_le_bytes(d[12..20].try_into().unwrap()),
            leaves: u32_at(d, 20),
            unique: d[24] != 0,
            key_bytes: u64::from_le_bytes(d[25..33].try_into().unwrap()),
        })
    }
}

fn u16_at(d: &[u8], at: usize) -> usize {
    u16::from_le_bytes([d[at], d[at + 1]]) as usize
}

fn u32_at(d: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(d[at..at + 4].try_into().unwrap())
}

fn put_u16(d: &mut [u8], at: usize, v: usize) {
    d[at..at + 2].copy_from_slice(&(v as u16).to_le_bytes());
}

fn put_u32(d: &mut [u8], at: usize, v: u32) {
    d[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn oid_at(d: &[u8], at: usize) -> Oid {
    Oid::from_bytes(&d[at..at + OID_LEN]).expect("an OID is its encoded bytes")
}

/// The key of the leaf entry at `off`, and where the next entry starts (the
/// entry's OID is the `OID_LEN` bytes before it).
fn entry_at(d: &[u8], off: usize) -> (&[u8], usize) {
    let k = &d[off + 2..off + 2 + u16_at(d, off)];
    (k, off + 2 + k.len() + OID_LEN)
}

/// The offset `n` length-prefixed keys past `off`, each followed by `tail`
/// bytes (`OID_LEN` in a leaf, none in an internal node).
fn skip(d: &[u8], mut off: usize, n: usize, tail: usize) -> usize {
    for _ in 0..n {
        off += 2 + u16_at(d, off) + tail;
    }
    off
}

/// Where an internal node's separators start.
fn keys_start(d: &[u8]) -> usize {
    NODE_HEADER + (u16_at(d, 1) + 1) * 4
}

/// The index of the child an internal node routes `key` to. A reader takes
/// the first child whose separator is not below the key — the leftmost
/// subtree that can hold it, since a run of duplicates may straddle a
/// separator equal to the key; a writer (`past_equal`) the first whose
/// separator is above it, so a new entry lands right of its equals. No key:
/// the leftmost child.
fn route(d: &[u8], key: Option<&[u8]>, past_equal: bool) -> usize {
    let (count, mut off) = (u16_at(d, 1), keys_start(d));
    let Some(key) = key else { return 0 };
    for i in 0..count {
        let sep = &d[off + 2..off + 2 + u16_at(d, off)];
        match sep.cmp(key) {
            Ordering::Greater => return i,
            Ordering::Equal if !past_equal => return i,
            _ => off += 2 + sep.len(),
        }
    }
    count
}

fn child(d: &[u8], idx: usize) -> PageId {
    PageId(u32_at(d, NODE_HEADER + idx * 4))
}

/// A leaf's right sibling.
fn next_leaf(d: &[u8]) -> Option<PageId> {
    Some(PageId(u32_at(d, 3))).filter(|p| p.0 != NO_PAGE)
}

fn bad_tag(t: u8) -> StorageError {
    StorageError::Corrupt(format!("unexpected node tag {t}"))
}

/// Open an entry's bytes at `at` in a leaf image whose entries end at
/// `end`, and write `(key, oid)` there.
fn put_entry(d: &mut [u8], at: usize, end: usize, key: &[u8], oid: Oid) {
    let len = 2 + key.len() + OID_LEN;
    d.copy_within(at..end, at + len);
    put_u16(d, at, key.len());
    d[at + 2..at + len - OID_LEN].copy_from_slice(key);
    d[at + len - OID_LEN..at + len].copy_from_slice(&oid.to_bytes());
    put_u16(d, 1, u16_at(d, 1) + 1);
}

/// Make `sep` separator `idx` and `right` child `idx + 1` of an internal
/// node image whose separators end at `end`.
fn put_separator(d: &mut [u8], idx: usize, end: usize, sep: &[u8], right: PageId) {
    let count = u16_at(d, 1);
    let at = skip(d, keys_start(d), idx, 0);
    let c = NODE_HEADER + (idx + 1) * 4;
    // Separators idx.. move past the new child and separator; children
    // idx+1.. and separators ..idx past the new child.
    d.copy_within(at..end, at + 6 + sep.len());
    d.copy_within(c..at, c + 4);
    put_u32(d, c, right.0);
    put_u16(d, at + 4, sep.len());
    d[at + 6..at + 6 + sep.len()].copy_from_slice(sep);
    put_u16(d, 1, count + 1);
}

/// Lay a node onto a new page: the header, then `body`.
fn fresh(d: &mut [u8], tag: u8, count: usize, body: &[u8]) {
    d.fill(0);
    d[0] = tag;
    put_u16(d, 1, count);
    d[NODE_HEADER..NODE_HEADER + body.len()].copy_from_slice(body);
}

/// A split node's separator and new right sibling, for its parent.
type Split = Option<(Vec<u8>, PageId)>;

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
        let root = pool.disk().allocate_page(file)?;
        let tree = BTree::open(pool, file);
        tree.write(root, |d| {
            fresh(d, TAG_LEAF, 0, &[]);
            put_u32(d, 3, NO_PAGE);
        })?;
        let meta = Meta { root, levels: 1, entries: 0, leaves: 1, unique, key_bytes: 0 };
        tree.write(PageId(0), |d| meta.write(d))?;
        Ok(tree)
    }

    /// Re-open an existing index file.
    pub fn open(pool: Arc<BufferPool>, file: FileId) -> BTree {
        BTree { file, pool, write_lock: parking_lot::Mutex::new(()) }
    }

    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Read access to a page's usable bytes.
    fn read<R>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> Result<R>) -> Result<R> {
        self.pool
            .with_page(self.file, pid, AccessKind::Index, |p| f(&p.data[..PAGE_USABLE]))?
            .map_err(|e| e.locate(self.file, pid))
    }

    /// Write access to a page's usable bytes.
    fn write<R>(&self, pid: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        self.pool
            .with_page_mut(self.file, pid, AccessKind::Index, |p| f(&mut p.data[..PAGE_USABLE]))
    }

    fn load_meta(&self) -> Result<Meta> {
        self.read(PageId(0), Meta::read)
    }

    /// Write the meta page's fields in place.
    fn store_meta(&self, meta: &Meta) -> Result<()> {
        self.write(PageId(0), |d| meta.write(d))
    }

    /// Insert (key, oid). Fails with [`StorageError::DuplicateKey`] on a
    /// unique index when the key already exists.
    pub fn insert(&self, key: &[u8], oid: Oid) -> Result<()> {
        let _guard = self.write_lock.lock();
        let max = PAGE_SIZE / 4 - 2 - OID_LEN;
        if key.len() > max {
            return Err(StorageError::RecordTooLarge { size: key.len(), max });
        }
        let mut meta = self.load_meta()?;
        if let Some((sep, right)) = self.insert_into(meta.root, meta.levels, key, oid, &mut meta)? {
            // A new root: the old one as its only child, then the split.
            let root = self.pool.disk().allocate_page(self.file)?;
            self.write(root, |d| {
                fresh(d, TAG_INTERNAL, 0, &meta.root.0.to_le_bytes());
                put_separator(d, 0, NODE_HEADER + 4, &sep, right);
            })?;
            meta.root = root;
            meta.levels += 1;
        }
        meta.entries += 1;
        meta.key_bytes += key.len() as u64;
        self.store_meta(&meta)
    }

    /// Insert below `pid`, a node `height` levels tall (1: a leaf), counting
    /// a leaf split into `meta`; returns the node's split, if it split.
    ///
    /// A leaf is edited in the one write access that searches it: a refused
    /// key leaves its bytes as they were, and a statement that fails is
    /// rolled back page by page anyway.
    fn insert_into(
        &self,
        pid: PageId,
        height: u32,
        key: &[u8],
        oid: Oid,
        meta: &mut Meta,
    ) -> Result<Split> {
        if height > 1 {
            let (idx, child) = self.read(pid, |d| match d[0] {
                TAG_INTERNAL => {
                    let idx = route(d, Some(key), true);
                    Ok((idx, child(d, idx)))
                }
                t => Err(bad_tag(t)),
            })?;
            return match self.insert_into(child, height - 1, key, oid, meta)? {
                Some((sep, right)) => self.add_separator(pid, idx, &sep, right),
                None => Ok(None),
            };
        }
        let unique = meta.unique;
        let merged = self.write(pid, |d| {
            if d[0] != TAG_LEAF {
                return Err(bad_tag(d[0]));
            }
            // Entries are sorted by (key, oid): the new one goes before the
            // first that is not below it.
            let (mut off, mut at, mut dup) = (NODE_HEADER, None, false);
            for _ in 0..u16_at(d, 1) {
                let (k, next) = entry_at(d, off);
                let ord = k.cmp(key);
                dup |= ord == Ordering::Equal;
                if at.is_none() && ord.then_with(|| oid_at(d, next - OID_LEN).cmp(&oid)).is_ge() {
                    at = Some(off);
                }
                off = next;
            }
            if unique && dup {
                return Err(StorageError::DuplicateKey);
            }
            let (at, end) = (at.unwrap_or(off), off);
            let grown = end + 2 + key.len() + OID_LEN;
            if grown <= PAGE_USABLE {
                put_entry(d, at, end, key, oid);
                return Ok(None);
            }
            let mut img = vec![0; grown];
            img[..end].copy_from_slice(&d[..end]);
            put_entry(&mut img, at, end, key, oid);
            Ok(Some(img))
        })?;
        let Some(img) = merged.map_err(|e| e.locate(self.file, pid))? else {
            return Ok(None);
        };
        meta.leaves += 1;
        self.split_leaf(pid, &img).map(Some)
    }

    /// Split a leaf whose entries, the new one among them, are `img`: the
    /// upper half moves to a new right sibling, written before the leaf is
    /// cut so that a reader following `next` finds it whole.
    fn split_leaf(&self, pid: PageId, img: &[u8]) -> Result<(Vec<u8>, PageId)> {
        let (n, next) = (u16_at(img, 1), u32_at(img, 3));
        let cut = skip(img, NODE_HEADER, n / 2, OID_LEN);
        let sep = img[cut + 2..cut + 2 + u16_at(img, cut)].to_vec();
        let right = self.pool.disk().allocate_page(self.file)?;
        self.write(right, |d| {
            fresh(d, TAG_LEAF, n - n / 2, &img[cut..]);
            put_u32(d, 3, next);
        })?;
        self.write(pid, |d| {
            d[..cut].copy_from_slice(&img[..cut]);
            d[cut..].fill(0);
            put_u16(d, 1, n / 2);
            put_u32(d, 3, right.0);
        })?;
        Ok((sep, right))
    }

    /// Add a child's split to internal node `pid` (the child was child
    /// `idx`), splitting the node in turn when it overflows: its upper
    /// half's children and separators move to a new right sibling and the
    /// middle separator moves up.
    fn add_separator(&self, pid: PageId, idx: usize, sep: &[u8], right: PageId) -> Result<Split> {
        let upper = self.write(pid, |d| {
            let count = u16_at(d, 1);
            let end = skip(d, keys_start(d), count, 0);
            if end + 6 + sep.len() <= PAGE_USABLE {
                put_separator(d, idx, end, sep, right);
                return None;
            }
            let mut img = vec![0; end + 6 + sep.len()];
            img[..end].copy_from_slice(&d[..end]);
            put_separator(&mut img, idx, end, sep, right);
            // The left keeps separators ..mid and children ..=mid.
            let (n, mid) = (count + 1, count.div_ceil(2));
            let (keys, kids) = (keys_start(&img), NODE_HEADER + (mid + 1) * 4);
            let at = skip(&img, keys, mid, 0);
            let up = at + 2 + u16_at(&img, at);
            d[..kids].copy_from_slice(&img[..kids]);
            d[kids..kids + at - keys].copy_from_slice(&img[keys..at]);
            d[kids + at - keys..].fill(0);
            put_u16(d, 1, mid);
            let body = [&img[kids..keys], &img[up..]].concat();
            Some((img[at + 2..up].to_vec(), n - mid - 1, body))
        })?;
        let Some((promoted, count, body)) = upper else {
            return Ok(None);
        };
        let right = self.pool.disk().allocate_page(self.file)?;
        self.write(right, |d| fresh(d, TAG_INTERNAL, count, &body))?;
        Ok(Some((promoted, right)))
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
        let mut pid = self.load_meta()?.root;
        loop {
            let step = self.read(pid, |d| {
                match d[0] {
                    TAG_INTERNAL => return Ok(Some(child(d, route(d, lo, false)))),
                    TAG_LEAF => {}
                    t => return Err(bad_tag(t)),
                }
                let mut off = NODE_HEADER;
                for _ in 0..u16_at(d, 1) {
                    let (k, next) = entry_at(d, off);
                    off = next;
                    if lo.is_some_and(|lo| if lo_inclusive { k < lo } else { k <= lo }) {
                        continue;
                    }
                    if hi.is_some_and(|hi| if hi_inclusive { k > hi } else { k >= hi }) {
                        return Ok(None);
                    }
                    if !visit(k, oid_at(d, next - OID_LEN)) {
                        return Ok(None);
                    }
                }
                // The interval may continue on the right sibling.
                Ok(next_leaf(d))
            })?;
            match step {
                Some(next) => pid = next,
                None => return Ok(()),
            }
        }
    }

    /// Remove one (key, oid) entry. Returns whether an entry was removed.
    pub fn delete(&self, key: &[u8], oid: Oid) -> Result<bool> {
        enum Found {
            Here,
            Next(PageId),
            Absent,
        }
        let _guard = self.write_lock.lock();
        let oid = oid.to_bytes();
        let is_it = |d: &[u8], k: &[u8], next: usize| k == key && d[next - OID_LEN..next] == oid;
        // A duplicate run may span several leaves: start at the leftmost
        // leaf that can hold the key, as readers do, and walk right until
        // the entry is found or the keys pass it.
        let mut meta = self.load_meta()?;
        let mut pid = meta.root;
        for _ in 1..meta.levels {
            pid = self.read(pid, |d| match d[0] {
                TAG_INTERNAL => Ok(child(d, route(d, Some(key), false))),
                t => Err(bad_tag(t)),
            })?;
        }
        loop {
            let found = self.read(pid, |d| {
                if d[0] != TAG_LEAF {
                    return Err(bad_tag(d[0]));
                }
                let mut off = NODE_HEADER;
                for _ in 0..u16_at(d, 1) {
                    let (k, next) = entry_at(d, off);
                    if is_it(d, k, next) {
                        return Ok(Found::Here);
                    }
                    if k > key {
                        return Ok(Found::Absent);
                    }
                    off = next;
                }
                Ok(next_leaf(d).map_or(Found::Absent, Found::Next))
            })?;
            match found {
                Found::Here => break,
                Found::Next(next) => pid = next,
                Found::Absent => return Ok(false),
            }
        }
        // Close the gap of every matching entry and zero the freed tail.
        self.write(pid, |d| {
            let (mut kept, mut w, mut r) = (0, NODE_HEADER, NODE_HEADER);
            for _ in 0..u16_at(d, 1) {
                let (k, next) = entry_at(d, r);
                if !is_it(d, k, next) {
                    d.copy_within(r..next, w);
                    w += next - r;
                    kept += 1;
                }
                r = next;
            }
            d[w..r].fill(0);
            put_u16(d, 1, kept);
        })?;
        meta.entries = meta.entries.saturating_sub(1);
        meta.key_bytes = meta.key_bytes.saturating_sub(key.len() as u64);
        self.store_meta(&meta)?;
        Ok(true)
    }

    /// Table 9 statistics.
    pub fn stats(&self) -> Result<BTreeStats> {
        let meta = self.load_meta()?;
        let keysize = meta.key_bytes.checked_div(meta.entries).unwrap_or(0) as u32;
        let entry = 2 + keysize as usize + OID_LEN;
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

    /// An insert that splits nothing reads the meta page and each internal
    /// node on its path once, edits its leaf in one access and writes the
    /// meta page: `levels + 2` page accesses; a delete makes `levels + 3`,
    /// since it reads its leaf before it edits it.
    #[test]
    fn an_insert_touches_each_node_on_its_path_once() {
        let disk = Arc::new(MemDisk::new());
        let metrics = DiskMetrics::new();
        let pool = Arc::new(BufferPool::new(disk, 256, metrics.clone()));
        let t = BTree::create(pool, true).unwrap();
        for i in 0..3000u32 {
            t.insert(&key(i * 2), oid(i)).unwrap();
        }
        let levels = t.stats().unwrap().levels as u64;
        assert_eq!(levels, 2);
        let accesses = |f: &dyn Fn()| {
            let before = metrics.snapshot();
            f();
            let d = metrics.snapshot().delta(&before);
            d.buffer_hits + d.buffer_misses
        };
        let leaves = t.stats().unwrap().leaves;
        assert_eq!(accesses(&|| t.insert(&key(2001), oid(1)).unwrap()), levels + 2);
        assert_eq!(t.stats().unwrap().leaves, leaves, "no split");
        assert_eq!(accesses(&|| assert!(t.delete(&key(2001), oid(1)).unwrap())), levels + 3);
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
