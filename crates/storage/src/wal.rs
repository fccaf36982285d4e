//! Write-ahead log (redo-only) and transaction bookkeeping.
//!
//! ESM gave MOOD "backup and recovery of data". We reproduce the property
//! that matters to the kernel: after a crash, every *committed* transaction's
//! page updates are restored and uncommitted ones vanish. The scheme is
//! redo-only under a no-steal buffer pool (dirty pages of an open
//! transaction reach the disk only after its commit), and a commit writes
//! what changed, once:
//!
//! * **Page records.** At commit the pool hands over, for every page the
//!   transaction dirtied, its bytes at the transaction's first write
//!   (the undo image it keeps for rollback anyway) and its bytes now. The
//!   log record is the *diff of those two* over `[..PAGE_USABLE]` — a
//!   `PageDelta { file, page, [(off, bytes)…] }` — computed here, in the one
//!   place that logs, so no access method knows the log exists. A full
//!   `PageImage` is logged instead the first time a page is logged after a
//!   checkpoint by a transaction that went on to commit (the *base*), when
//!   the diff would be no smaller than an image, or when the page's bytes
//!   at transaction start are not what replaying the log produces (a write
//!   made outside any transaction, such as a bulk load, is in no record).
//!   The checksum trailer is never logged; every rebuilt page is restamped.
//! * **One append per commit.** The transaction's page records and its
//!   `Commit` marker are framed into one buffer and handed to
//!   [`LogStore::append`] once, then the log is forced once. A torn append
//!   loses the marker (it is last), so the transaction is simply
//!   uncommitted. A transaction that rolls back has nothing in the log.
//! * **Recovery** scans the log and rebuilds each page from its image and
//!   the later committed deltas, in log order, then writes it to the disk —
//!   never reading the disk copy, which a crash may have torn. The first
//!   record of a page in any log is an image, which is what makes that
//!   possible and is why images are not dropped altogether: a page torn on
//!   disk, or bit-flipped (single-page repair, [`Wal::latest_committed_image`]),
//!   has nothing else to be rebuilt from.
//!
//! Record framing: `len:u32 | checksum:u32 | kind:u8 | txn:u64 | payload`;
//! a page record's payload is `file:u32 | page:u32 | body`, the body being
//! `PAGE_USABLE` bytes (image) or `off:u16 | len:u16 | bytes` runs (delta).
//! A torn tail (checksum or length mismatch, or the zeros a preallocating
//! store leaves ahead of its end) ends recovery at the last complete
//! record, and recovery cuts the store back to that point so the next
//! commit is not hidden behind the garbage.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::disk::Disk;
use crate::error::{Result, StorageError};
use crate::metrics::DiskMetrics;
use crate::oid::{FileId, PageId};
use crate::page::{Page, PAGE_USABLE};
use crate::telemetry::{HistFamily, WaitEvent};

const KIND_PAGE_IMAGE: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_ABORT: u8 = 3;
const KIND_PAGE_DELTA: u8 = 4;

/// Where log bytes live. In-memory for tests, a file for durability.
#[allow(clippy::len_without_is_empty)]
pub trait LogStore: Send + Sync {
    fn append(&self, bytes: &[u8]) -> Result<()>;
    fn force(&self) -> Result<()>;
    /// Every byte of the store. A store reopened after a kill may return
    /// bytes past its last record (a torn append, preallocated zeros);
    /// [`Wal::recover`] finds the end and calls [`truncate_to`](Self::truncate_to).
    fn read_all(&self) -> Result<Vec<u8>>;
    fn truncate(&self) -> Result<()>;

    /// Cut the store back to its first `len` bytes so the next append lands
    /// there. This default rewrites the kept prefix through the other
    /// primitives, which is not atomic; every store in this crate overrides
    /// it with a real cut.
    fn truncate_to(&self, len: u64) -> Result<()> {
        let mut bytes = self.read_all()?;
        bytes.truncate(len as usize);
        self.truncate()?;
        self.append(&bytes)?;
        self.force()
    }

    /// Bytes in the store (appended and not truncated).
    fn len(&self) -> Result<u64> {
        Ok(self.read_all()?.len() as u64)
    }
}

/// In-memory log store.
#[derive(Default)]
pub struct MemLog {
    buf: Mutex<Vec<u8>>,
}

impl MemLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulate a torn write by dropping the last `n` bytes.
    pub fn tear(&self, n: usize) {
        let mut b = self.buf.lock();
        let keep = b.len().saturating_sub(n);
        b.truncate(keep);
    }
}

/// Share one log store between a "before crash" and an "after crash"
/// instance (the crash-simulation harness keeps the bytes, drops the rest).
impl<L: LogStore + ?Sized> LogStore for std::sync::Arc<L> {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        (**self).append(bytes)
    }
    fn force(&self) -> Result<()> {
        (**self).force()
    }
    fn read_all(&self) -> Result<Vec<u8>> {
        (**self).read_all()
    }
    fn truncate(&self) -> Result<()> {
        (**self).truncate()
    }
    fn truncate_to(&self, len: u64) -> Result<()> {
        (**self).truncate_to(len)
    }
    fn len(&self) -> Result<u64> {
        (**self).len()
    }
}

impl LogStore for MemLog {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.buf.lock().extend_from_slice(bytes);
        Ok(())
    }
    fn force(&self) -> Result<()> {
        Ok(())
    }
    fn read_all(&self) -> Result<Vec<u8>> {
        Ok(self.buf.lock().clone())
    }
    fn truncate(&self) -> Result<()> {
        self.buf.lock().clear();
        Ok(())
    }
    fn truncate_to(&self, len: u64) -> Result<()> {
        self.buf.lock().truncate(len as usize);
        Ok(())
    }
    fn len(&self) -> Result<u64> {
        Ok(self.buf.lock().len() as u64)
    }
}

/// The file grows by this much at a time, zero-filled, ahead of the log's
/// end: a force that lands inside space the file already owns changes no
/// file metadata, so `fdatasync` has only the record's own blocks to write.
const EXTENT: u64 = 256 * 1024;

/// File-backed log store. The file is longer than the log: `end` is where
/// the next append goes, `allocated` how far the file has been zero-filled.
/// A reopened file's zero tail is indistinguishable from log bytes here, so
/// both start at the file's length until [`Wal::recover`] cuts it back.
pub struct FileLog {
    inner: Mutex<FileLogInner>,
}

struct FileLogInner {
    file: std::fs::File,
    end: u64,
    allocated: u64,
}

impl FileLog {
    pub fn open(path: impl Into<std::path::PathBuf>) -> Result<Self> {
        let path = path.into();
        let existed = path.exists();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .read(true)
            .open(&path)?;
        if !existed {
            // The file's directory entry must itself be durable, or a
            // metadata crash can lose the (empty) log we just created.
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::File::open(dir)?.sync_all()?;
            }
        }
        let len = file.metadata()?.len();
        Ok(FileLog {
            inner: Mutex::new(FileLogInner {
                file,
                end: len,
                allocated: len,
            }),
        })
    }
}

impl FileLogInner {
    /// Set the file's length to `len` and make that durable: a length is
    /// inode metadata, which the file's own `sync_all` covers.
    fn cut(&mut self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        self.file.sync_all()?;
        self.end = len;
        self.allocated = len;
        Ok(())
    }
}

impl LogStore for FileLog {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        use std::io::{Read, Seek, SeekFrom, Write};
        let f = &mut *self.inner.lock();
        let new_end = f.end + bytes.len() as u64;
        while f.allocated < new_end {
            f.file.seek(SeekFrom::Start(f.allocated))?;
            std::io::copy(&mut std::io::repeat(0).take(EXTENT), &mut f.file)?;
            f.allocated += EXTENT;
        }
        f.file.seek(SeekFrom::Start(f.end))?;
        f.file.write_all(bytes)?;
        f.end = new_end;
        Ok(())
    }
    fn force(&self) -> Result<()> {
        self.inner.lock().file.sync_data()?;
        Ok(())
    }
    fn read_all(&self) -> Result<Vec<u8>> {
        use std::io::{Read, Seek, SeekFrom};
        let f = &mut *self.inner.lock();
        f.file.seek(SeekFrom::Start(0))?;
        let mut buf = vec![0u8; f.end as usize];
        f.file.read_exact(&mut buf)?;
        Ok(buf)
    }
    fn truncate(&self) -> Result<()> {
        self.inner.lock().cut(0)
    }
    fn truncate_to(&self, len: u64) -> Result<()> {
        let f = &mut *self.inner.lock();
        let len = len.min(f.end);
        f.cut(len)
    }
    fn len(&self) -> Result<u64> {
        Ok(self.inner.lock().end)
    }
}

/// Rolling checksum shared by log-record framing and the page trailer
/// ([`Page::stamp_checksum`]) so both layers agree on one polynomial: a
/// Fletcher-like sum, cheap, and it catches torn tails. From `a = 1, b = 0`
/// each byte `x` does `a += x; b += a` (mod 2³²); the sum is
/// `b << 16 | a & 0xFFFF`.
///
/// Computed by 128-byte blocks rather than byte by byte, with the same
/// result for every input: over a block of `n` bytes the byte loop amounts
/// to `a += Σxᵢ` and `b += n·a + Σ(n−i)·xᵢ`, and both sums come from 16-bit
/// lane sums over 8-byte words.
pub fn checksum(bytes: &[u8]) -> u32 {
    let (mut a, mut b) = (1u32, 0u32);
    let mut blocks = bytes.chunks_exact(SUM_BLOCK);
    for block in &mut blocks {
        (a, b) = fold_words(a, b, block);
    }
    let rest = blocks.remainder();
    let (words, tail) = rest.split_at(rest.len() / 8 * 8);
    (a, b) = fold_words(a, b, words);
    for &x in tail {
        a = a.wrapping_add(x as u32);
        b = b.wrapping_add(a);
    }
    (b << 16) | (a & 0xFFFF)
}

/// Bytes per checksum block: 16 words, the most whose lane sums of running
/// sums stay below 2¹⁶ (255 · (1 + … + 16) = 34 680).
const SUM_BLOCK: usize = 128;

/// One byte in each 16-bit lane of a word.
const LANE_BYTES: u64 = 0x00FF_00FF_00FF_00FF;

/// `(a, b)` after the checksum loop has run over `words`: a whole number of
/// 8-byte words, at most [`SUM_BLOCK`] bytes.
///
/// The even bytes of each little-endian word sit in the four 16-bit lanes of
/// `w & LANE_BYTES`, the odd bytes in those of `w >> 8 & LANE_BYTES`. Per
/// lane, `r` sums the lane's bytes and `t` sums `r` after every word, which
/// counts word `k` of `m` `m − k` times. Byte `i = 8k + 2j + o` (lane `j`,
/// odd `o`) weighs `n − i = 8(m − k) − 2j − o`, so
/// `Σ(n−i)·xᵢ = 8·Σt − 2·Σj·r − Σr_odd`.
fn fold_words(a: u32, b: u32, words: &[u8]) -> (u32, u32) {
    debug_assert!(words.len().is_multiple_of(8) && words.len() <= SUM_BLOCK);
    let (mut r_even, mut r_odd, mut t_even, mut t_odd) = (0u64, 0u64, 0u64, 0u64);
    for word in words.chunks_exact(8) {
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        r_even += w & LANE_BYTES;
        r_odd += (w >> 8) & LANE_BYTES;
        t_even += r_even;
        t_odd += r_odd;
    }
    // Horizontal sums by multiplication: lane 3 of `v · Σ cₖ·2¹⁶ᵏ` is
    // `Σⱼ vⱼ·c₃₋ⱼ`, exact while no partial lane sum reaches 2¹⁶. Lanes of
    // `r` stay below 2 · 16 · 255 = 8 160, so `Σv` and `Σj·v` are exact;
    // `t`'s lanes (below 34 680) are first widened to 32-bit lanes.
    let lane3 = |v: u64, c: u64| (v.wrapping_mul(c) >> 48) as u32;
    let r = r_even + r_odd;
    let total = lane3(r, 0x0001_0001_0001_0001);
    let by_lane = lane3(r, 0x0000_0001_0002_0003);
    let odd = lane3(r_odd, 0x0001_0001_0001_0001);
    let widen = |v: u64| (v & 0x0000_FFFF_0000_FFFF) + ((v >> 16) & 0x0000_FFFF_0000_FFFF);
    let t = widen(t_even) + widen(t_odd);
    let t = (t as u32).wrapping_add((t >> 32) as u32);
    let weighted = (8 * t).wrapping_sub(2 * by_lane + odd);
    let n = words.len() as u32;
    (
        a.wrapping_add(total),
        b.wrapping_add(n.wrapping_mul(a)).wrapping_add(weighted),
    )
}

// ----------------------------------------------------------------------
// The page-record codec: one encoder, one `apply`.
// ----------------------------------------------------------------------

/// How a page record's body rebuilds its page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedoKind {
    /// The whole of `[..PAGE_USABLE]`.
    Image,
    /// `off:u16 | len:u16 | bytes` runs to lay over the page.
    Delta,
}

/// Two changed runs closer than this are logged as one: a run costs a
/// four-byte header, and fewer runs replay faster.
const COALESCE_GAP: usize = 8;
const RUN_HEADER: usize = 4;

/// Append to `out` the record body that turns `before` into `after` over
/// `[..PAGE_USABLE]` (the checksum trailer is never logged). `None`, and
/// nothing appended, when the two do not differ there; an image when the
/// runs would take no less room than one.
pub fn encode_redo(before: &Page, after: &Page, out: &mut Vec<u8>) -> Option<RedoKind> {
    let (a, b) = (&before.data[..PAGE_USABLE], &after.data[..PAGE_USABLE]);
    let start = out.len();
    let mut i = 0;
    loop {
        while i + 8 <= PAGE_USABLE && a[i..i + 8] == b[i..i + 8] {
            i += 8;
        }
        while i < PAGE_USABLE && a[i] == b[i] {
            i += 1;
        }
        if i == PAGE_USABLE {
            break;
        }
        // A run: from the first differing byte to the last one that has
        // fewer than COALESCE_GAP equal bytes before the next difference.
        let from = i;
        let mut to = i + 1;
        i = to;
        while i < PAGE_USABLE && i - to < COALESCE_GAP {
            if a[i] != b[i] {
                to = i + 1;
            }
            i += 1;
        }
        if out.len() - start + RUN_HEADER + (to - from) >= PAGE_USABLE {
            out.truncate(start);
            out.extend_from_slice(b);
            return Some(RedoKind::Image);
        }
        out.extend_from_slice(&(from as u16).to_le_bytes());
        out.extend_from_slice(&((to - from) as u16).to_le_bytes());
        out.extend_from_slice(&b[from..to]);
    }
    (out.len() > start).then_some(RedoKind::Delta)
}

/// Lay a record body over `page` — the one routine recovery, single-page
/// repair and the tests replay with. `false` (page contents unspecified)
/// when the body is malformed. The trailer is left alone: callers restamp.
pub fn apply_redo(kind: RedoKind, mut body: &[u8], page: &mut Page) -> bool {
    match kind {
        RedoKind::Image => {
            if body.len() != PAGE_USABLE {
                return false;
            }
            page.data[..PAGE_USABLE].copy_from_slice(body);
        }
        RedoKind::Delta => {
            while !body.is_empty() {
                if body.len() < RUN_HEADER {
                    return false;
                }
                let off = u16::from_le_bytes([body[0], body[1]]) as usize;
                let len = u16::from_le_bytes([body[2], body[3]]) as usize;
                let rest = &body[RUN_HEADER..];
                if len > rest.len() || off + len > PAGE_USABLE {
                    return false;
                }
                page.data[off..off + len].copy_from_slice(&rest[..len]);
                body = &rest[len..];
            }
        }
    }
    true
}

/// 64-bit fingerprint of a page's logged bytes. The log remembers, per
/// page, the fingerprint of the state replay reaches; a delta is only
/// logged against a `before` that matches it.
fn fingerprint(page: &Page) -> u64 {
    const _: () = assert!(PAGE_USABLE.is_multiple_of(8));
    page.data[..PAGE_USABLE].chunks_exact(8).fold(0u64, |h, w| {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// Append one framed record to `out`. `payload` writes the record's payload
/// and names its kind; `None` takes the record back out.
fn frame(out: &mut Vec<u8>, txn: TxnId, payload: impl FnOnce(&mut Vec<u8>) -> Option<u8>) -> bool {
    let start = out.len();
    out.extend_from_slice(&[0u8; 9]); // len | checksum | kind, patched below
    out.extend_from_slice(&txn.to_le_bytes());
    let Some(kind) = payload(out) else {
        out.truncate(start);
        return false;
    };
    out[start + 8] = kind;
    let body_len = (out.len() - start - 8) as u32;
    let sum = checksum(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&sum.to_le_bytes());
    true
}

/// Transaction identifier.
pub type TxnId = u64;

/// A parsed log record; the payload borrows the log bytes.
struct Record<'a> {
    kind: u8,
    txn: TxnId,
    payload: &'a [u8],
    /// Frame offset, for [`StorageError::WalCorrupt`].
    offset: u64,
}

/// Counter snapshot for the log, reported by `SHOW METRICS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Appends handed to the store: one per commit (its page records and
    /// marker together) and one per abort marker — the `wal_append`
    /// histogram's count.
    pub appends: u64,
    /// Forces (fsyncs) of the log to stable storage — the `wal_fsync` wait
    /// event's count.
    pub forces: u64,
    /// Pages rebuilt by `recover` over this Wal's lifetime.
    pub recovered: u64,
}

type PageKey = (FileId, PageId);

/// The commit buffer's capacity is kept between commits up to this size.
const KEEP_BUFFER: usize = 64 * 1024;

/// What the commit path keeps between calls.
#[derive(Default)]
struct CommitState {
    /// Pages with a committed image in the log since the last checkpoint,
    /// and the fingerprint of the bytes replaying the log gives them. Only
    /// a commit whose force succeeded adds to it: an image logged by a
    /// transaction that did not commit is no base for anyone's delta.
    based: HashMap<PageKey, u64>,
    /// The transaction whose records are staged in `buf`.
    txn: TxnId,
    /// Framed page records, handed to the store with the commit marker in
    /// one append.
    buf: Vec<u8>,
    /// `based` entries to record if this transaction commits.
    staged: Vec<(PageKey, u64)>,
}

impl CommitState {
    /// Stage for `txn`, dropping what a transaction that never finished
    /// left behind.
    fn stage_for(&mut self, txn: TxnId) {
        if self.txn != txn {
            self.unstage();
            self.txn = txn;
        }
    }

    fn unstage(&mut self) {
        // A large transaction's buffer is not kept for the small ones.
        if self.buf.capacity() > KEEP_BUFFER {
            self.buf = Vec::new();
        }
        self.buf.clear();
        self.staged.clear();
    }
}

/// The write-ahead log.
pub struct Wal {
    store: Box<dyn LogStore>,
    next_txn: AtomicU64,
    recovered: AtomicU64,
    commit: Mutex<CommitState>,
    /// Where append latency and fsync waits are recorded: the storage
    /// manager's one handle (a fresh one for a bare log).
    metrics: DiskMetrics,
}

impl Wal {
    pub fn new(store: Box<dyn LogStore>, metrics: DiskMetrics) -> Self {
        Wal {
            store,
            next_txn: AtomicU64::new(1),
            recovered: AtomicU64::new(0),
            commit: Mutex::new(CommitState::default()),
            metrics,
        }
    }

    /// Lifetime counters (appends, forces, pages rebuilt).
    pub fn stats(&self) -> WalStats {
        let t = self.metrics.telemetry();
        WalStats {
            appends: t.hist_snapshot(HistFamily::WalAppend).count,
            forces: t.wait(WaitEvent::WalFsync).count,
            recovered: self.recovered.load(Ordering::Relaxed),
        }
    }

    pub fn begin(&self) -> TxnId {
        self.next_txn.fetch_add(1, Ordering::Relaxed)
    }

    /// Stage the redo record for one page `txn` dirtied: `before` is the
    /// page at the transaction's first write, `after` the page now. Nothing
    /// reaches the store until [`commit`](Self::commit).
    pub fn log_page(&self, txn: TxnId, file: FileId, page: PageId, before: &Page, after: &Page) {
        let st = &mut *self.commit.lock();
        st.stage_for(txn);
        let key = (file, page);
        let has_base = st.based.get(&key).is_some_and(|fp| *fp == fingerprint(before));
        let logged = frame(&mut st.buf, txn, |out| {
            out.extend_from_slice(&file.0.to_le_bytes());
            out.extend_from_slice(&page.0.to_le_bytes());
            if !has_base {
                out.extend_from_slice(&after.data[..PAGE_USABLE]);
                return Some(KIND_PAGE_IMAGE);
            }
            encode_redo(before, after, out).map(|kind| match kind {
                RedoKind::Image => KIND_PAGE_IMAGE,
                RedoKind::Delta => KIND_PAGE_DELTA,
            })
        });
        if logged {
            st.staged.push((key, fingerprint(after)));
        }
    }

    /// Append bytes, timing the call into the `wal_append` histogram.
    fn timed_append(&self, bytes: &[u8]) -> Result<()> {
        let t0 = std::time::Instant::now();
        let result = self.store.append(bytes);
        let t = self.metrics.telemetry();
        t.record_hist(HistFamily::WalAppend, t0.elapsed().as_nanos() as u64);
        result
    }

    /// Commit: hand the staged page records and the commit marker to the
    /// store in one append and force it. The force is the commit path's
    /// stall — it is charged to the `wal_fsync` wait event as well as the
    /// `disk_fsync`-sibling latency histogram.
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        let st = &mut *self.commit.lock();
        st.stage_for(txn);
        frame(&mut st.buf, txn, |_| Some(KIND_COMMIT));
        let result = self.timed_append(&st.buf).and_then(|()| {
            let t0 = std::time::Instant::now();
            let forced = self.store.force();
            let t = self.metrics.telemetry();
            t.record_wait(WaitEvent::WalFsync, t0.elapsed().as_nanos() as u64);
            forced
        });
        match result {
            Ok(()) => st.based.extend(st.staged.drain(..)),
            // Whether these records replay is now the log's business (the
            // caller appends an abort marker, best-effort): no page keeps a
            // base a later delta could trust.
            Err(_) => st.based.clear(),
        }
        st.unstage();
        result
    }

    /// Abort: what the live system appends when a commit's append or force
    /// failed and its records may be in the log; recovery ignores the txn.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        let st = &mut *self.commit.lock();
        if st.txn == txn {
            st.unstage();
        }
        let mut marker = Vec::with_capacity(17);
        frame(&mut marker, txn, |_| Some(KIND_ABORT));
        self.timed_append(&marker)
    }

    /// Rebuild every page a committed transaction logged and write it to
    /// `disk`, after cutting the store back to its last complete record.
    ///
    /// Returns the number of pages rebuilt. Replay is idempotent: running
    /// it again over the same log produces a byte-identical disk image. A
    /// transaction's fate is decided by its *last* marker record — an
    /// `Abort` written after a `Commit` (as the live system does when the
    /// commit force fails ambiguously) wins.
    pub fn recover(&self, disk: &dyn Disk) -> Result<usize> {
        let bytes = self.store.read_all()?;
        let (records, end, max_txn) = Self::parse_records(&bytes);
        if end < bytes.len() {
            self.store.truncate_to(end as u64)?;
        }
        // The cut may have taken records this instance counted as bases.
        self.commit.lock().based.clear();
        let pages = Self::replay(&records, None)?;
        let restored = pages.len();
        for ((file, page), mut p) in pages {
            // Files/pages may not exist yet on the recovered disk image.
            // File ids are allocated sequentially, so creating files walks
            // the id space toward `file`; bail out if the disk's allocator
            // has already moved past it (mismatched disk image).
            let mut guard = file.0 as u64 + 1;
            while !disk.files().contains(&file) {
                let made = disk.create_file()?;
                if made.0 > file.0 || guard == 0 {
                    return Err(StorageError::WalCorrupt { offset: 0 });
                }
                guard -= 1;
            }
            while disk.page_count(file)? <= page.0 {
                disk.allocate_page(file)?;
            }
            p.stamp_checksum();
            disk.write_page(file, page, &p)?;
        }
        // New transactions must not collide with ids still present in the
        // (untruncated) log, or their records would merge on a later replay.
        let floor = max_txn + 1;
        self.next_txn.fetch_max(floor, Ordering::Relaxed);
        self.recovered.fetch_add(restored as u64, Ordering::Relaxed);
        Ok(restored)
    }

    /// Parse complete, checksummed log records, stopping cleanly at a torn
    /// or corrupt tail. Returns the records, the offset just past the last
    /// complete one, and the highest transaction id seen.
    fn parse_records(bytes: &[u8]) -> (Vec<Record<'_>>, usize, u64) {
        let mut records = Vec::new();
        let mut off = 0usize;
        let mut max_txn = 0u64;
        while off + 8 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            let sum = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
            if len > bytes.len() - off - 8 {
                break; // torn tail
            }
            let body = &bytes[off + 8..off + 8 + len];
            if checksum(body) != sum || len < 9 {
                break; // corrupt tail, or a preallocating store's zeros
            }
            let txn = u64::from_le_bytes(body[1..9].try_into().unwrap());
            max_txn = max_txn.max(txn);
            records.push(Record {
                kind: body[0],
                txn,
                payload: &body[9..],
                offset: off as u64,
            });
            off += 8 + len;
        }
        (records, off, max_txn)
    }

    /// Rebuild, in log order, the pages committed transactions logged (just
    /// `only`, when given): an image starts a page over, a delta lays over
    /// the page built so far — never over anything read from the disk. Last
    /// marker wins: an abort appended after a commit record (the live
    /// system's answer to an ambiguous commit failure) overrides it.
    fn replay(records: &[Record<'_>], only: Option<PageKey>) -> Result<BTreeMap<PageKey, Page>> {
        let mut fate = HashMap::new();
        for r in records {
            if r.kind == KIND_COMMIT || r.kind == KIND_ABORT {
                fate.insert(r.txn, r.kind);
            }
        }
        let mut pages: BTreeMap<PageKey, Page> = BTreeMap::new();
        for r in records {
            let kind = match r.kind {
                KIND_PAGE_IMAGE => RedoKind::Image,
                KIND_PAGE_DELTA => RedoKind::Delta,
                _ => continue,
            };
            if fate.get(&r.txn) != Some(&KIND_COMMIT) {
                continue;
            }
            let corrupt = || StorageError::WalCorrupt { offset: r.offset };
            if r.payload.len() < 8 {
                return Err(corrupt());
            }
            let key = (
                FileId(u32::from_le_bytes(r.payload[0..4].try_into().unwrap())),
                PageId(u32::from_le_bytes(r.payload[4..8].try_into().unwrap())),
            );
            if only.is_some_and(|k| k != key) {
                continue;
            }
            let page = match kind {
                RedoKind::Image => pages.entry(key).or_default(),
                // A delta whose base image is not in the log.
                RedoKind::Delta => pages.get_mut(&key).ok_or_else(corrupt)?,
            };
            if !apply_redo(kind, &r.payload[8..], page) {
                return Err(corrupt());
            }
        }
        Ok(pages)
    }

    /// Single-page repair: the latest *committed* state of `(file, page)`
    /// the log can rebuild — its image and the later committed deltas — or
    /// `None` when the log no longer covers the page (e.g. truncated by a
    /// checkpoint since the page was last written). The buffer pool uses
    /// this to rebuild a page whose on-disk checksum failed; the returned
    /// page is restamped so it can be written straight back.
    pub fn latest_committed_image(&self, file: FileId, page: PageId) -> Result<Option<Page>> {
        let bytes = self.store.read_all()?;
        let (records, _, _) = Self::parse_records(&bytes);
        let mut found = Self::replay(&records, Some((file, page)))?.remove(&(file, page));
        if let Some(p) = found.as_mut() {
            p.stamp_checksum();
        }
        Ok(found)
    }

    /// Checkpoint: the caller has flushed the disk; the log can restart,
    /// and with it every page's need for a base image.
    pub fn checkpoint(&self) -> Result<()> {
        let mut st = self.commit.lock();
        st.based.clear();
        self.store.truncate()
    }

    /// Log size in bytes (for tests and the admin tool).
    pub fn size(&self) -> Result<usize> {
        Ok(self.store.len()? as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use std::sync::Arc;

    fn page_with(b: u8) -> Page {
        let mut p = Page::new();
        p.data.fill(b);
        p
    }

    /// `base` with `bytes` laid over it at `off`.
    fn patched(base: &Page, off: usize, bytes: &[u8]) -> Page {
        let mut p = base.clone();
        p.data[off..off + bytes.len()].copy_from_slice(bytes);
        p
    }

    fn read(disk: &MemDisk, f: FileId, page: u32) -> Page {
        let mut p = Page::new();
        disk.read_page(f, PageId(page), &mut p).unwrap();
        p
    }

    /// The record kinds in the store, in order.
    fn kinds(log: &dyn LogStore) -> Vec<u8> {
        let bytes = log.read_all().unwrap();
        let (records, _, _) = Wal::parse_records(&bytes);
        records.iter().map(|r| r.kind).collect()
    }

    /// A store that forwards only the four required methods, so the
    /// trait's default `truncate_to` and `len` are what runs.
    struct Shared(Arc<MemLog>);
    impl LogStore for Shared {
        fn append(&self, b: &[u8]) -> Result<()> {
            self.0.append(b)
        }
        fn force(&self) -> Result<()> {
            self.0.force()
        }
        fn read_all(&self) -> Result<Vec<u8>> {
            self.0.read_all()
        }
        fn truncate(&self) -> Result<()> {
            self.0.truncate()
        }
    }

    #[test]
    fn committed_txn_is_replayed() {
        let wal = Wal::new(Box::new(MemLog::new()), DiskMetrics::new());
        let disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        disk.allocate_page(f).unwrap();

        let t = wal.begin();
        wal.log_page(t, f, PageId(0), &Page::new(), &page_with(0xAA));
        wal.commit(t).unwrap();

        // Crash: the disk never saw the write. Recover from the log.
        let restored = wal.recover(&disk).unwrap();
        assert_eq!(restored, 1);
        assert_eq!(read(&disk, f, 0).data[100], 0xAA);
    }

    #[test]
    fn uncommitted_txn_never_reaches_the_store() {
        let wal = Wal::new(Box::new(MemLog::new()), DiskMetrics::new());
        let disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        disk.allocate_page(f).unwrap();

        let t = wal.begin();
        wal.log_page(t, f, PageId(0), &Page::new(), &page_with(0xBB));
        // no commit
        assert_eq!(wal.size().unwrap(), 0, "records are staged until commit");
        assert_eq!(wal.recover(&disk).unwrap(), 0);
        assert_eq!(
            read(&disk, f, 0).data[0],
            0,
            "uncommitted image not applied"
        );
        // The next transaction does not inherit the staged record.
        let t2 = wal.begin();
        wal.commit(t2).unwrap();
        assert_eq!(kinds(&*wal.store), [KIND_COMMIT]);
    }

    #[test]
    fn aborted_txn_is_ignored() {
        let wal = Wal::new(Box::new(MemLog::new()), DiskMetrics::new());
        let disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        disk.allocate_page(f).unwrap();
        let t = wal.begin();
        wal.log_page(t, f, PageId(0), &Page::new(), &page_with(0xCC));
        wal.abort(t).unwrap();
        assert_eq!(wal.recover(&disk).unwrap(), 0);
    }

    #[test]
    fn first_touch_is_an_image_and_later_commits_are_deltas_replayed_in_order() {
        let wal = Wal::new(Box::new(MemLog::new()), DiskMetrics::new());
        let disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        disk.allocate_page(f).unwrap();
        let s1 = page_with(1);
        let s2 = patched(&s1, 40, b"second");
        let s3 = patched(&s2, 43, b"THIRD, overlapping");
        let mut sizes = Vec::new();
        for (before, after) in [(&Page::new(), &s1), (&s1, &s2), (&s2, &s3)] {
            let t = wal.begin();
            wal.log_page(t, f, PageId(0), before, after);
            wal.commit(t).unwrap();
            sizes.push(wal.size().unwrap());
        }
        assert_eq!(
            kinds(&*wal.store),
            [
                KIND_PAGE_IMAGE,
                KIND_COMMIT,
                KIND_PAGE_DELTA,
                KIND_COMMIT,
                KIND_PAGE_DELTA,
                KIND_COMMIT
            ]
        );
        assert!(sizes[0] > PAGE_USABLE);
        assert!(sizes[2] - sizes[0] < 120, "two deltas: {sizes:?}");
        assert_eq!(wal.recover(&disk).unwrap(), 1, "one page rebuilt");
        let got = read(&disk, f, 0);
        assert_eq!(got.data[..PAGE_USABLE], s3.data[..PAGE_USABLE]);
        assert!(got.verify_checksum().is_ok(), "rebuilt pages are stamped");
    }

    #[test]
    fn recovery_builds_on_the_logged_image_not_the_disk_copy() {
        // The disk copy is half old, half new — a torn write-back of the
        // second state. The log alone decides what the page becomes.
        let wal = Wal::new(Box::new(MemLog::new()), DiskMetrics::new());
        let disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        disk.allocate_page(f).unwrap();
        let s1 = page_with(1);
        let s2 = patched(&s1, 3000, b"tail change");
        for (before, after) in [(&Page::new(), &s1), (&s1, &s2)] {
            let t = wal.begin();
            wal.log_page(t, f, PageId(0), before, after);
            wal.commit(t).unwrap();
        }
        let mut torn = page_with(9);
        torn.data[2048..PAGE_USABLE].copy_from_slice(&s2.data[2048..PAGE_USABLE]);
        disk.write_page(f, PageId(0), &torn).unwrap();
        wal.recover(&disk).unwrap();
        assert_eq!(
            read(&disk, f, 0).data[..PAGE_USABLE],
            s2.data[..PAGE_USABLE]
        );
    }

    #[test]
    fn a_failed_commit_leaves_no_base_behind() {
        // t1's image reaches the store but its force fails: the live system
        // aborts it. t2 must log an image again, not a delta against a
        // record that will not replay.
        let mem = Arc::new(MemLog::new());
        let plan = crate::fault::FaultPlan::fail_at(2); // append, then the force
        let wal = Wal::new(Box::new(crate::fault::FaultyLog::new(
            mem.clone(),
            plan.clone(),
        )), DiskMetrics::new());
        let disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        disk.allocate_page(f).unwrap();
        let s1 = page_with(1);
        let t1 = wal.begin();
        wal.log_page(t1, f, PageId(0), &Page::new(), &s1);
        assert!(wal.commit(t1).is_err());
        plan.heal();
        wal.abort(t1).unwrap();
        // The transaction rolled back: the page is all zeros again.
        let s2 = patched(&Page::new(), 10, b"t2");
        let t2 = wal.begin();
        wal.log_page(t2, f, PageId(0), &Page::new(), &s2);
        wal.commit(t2).unwrap();
        assert_eq!(
            kinds(&*mem),
            [
                KIND_PAGE_IMAGE,
                KIND_COMMIT,
                KIND_ABORT,
                KIND_PAGE_IMAGE,
                KIND_COMMIT
            ]
        );
        assert_eq!(wal.recover(&disk).unwrap(), 1);
        assert_eq!(
            read(&disk, f, 0).data[..PAGE_USABLE],
            s2.data[..PAGE_USABLE]
        );
    }

    #[test]
    fn a_write_outside_any_transaction_forces_a_new_image() {
        // Bulk loads write pages outside transactions: those bytes are in
        // no record, so a delta over them would replay onto the wrong base.
        let wal = Wal::new(Box::new(MemLog::new()), DiskMetrics::new());
        let disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        disk.allocate_page(f).unwrap();
        let s1 = page_with(1);
        let t = wal.begin();
        wal.log_page(t, f, PageId(0), &Page::new(), &s1);
        wal.commit(t).unwrap();
        let unlogged = patched(&s1, 500, b"written with no transaction open");
        let s2 = patched(&unlogged, 900, b"t2");
        let t2 = wal.begin();
        wal.log_page(t2, f, PageId(0), &unlogged, &s2);
        wal.commit(t2).unwrap();
        assert_eq!(
            kinds(&*wal.store),
            [KIND_PAGE_IMAGE, KIND_COMMIT, KIND_PAGE_IMAGE, KIND_COMMIT]
        );
        wal.recover(&disk).unwrap();
        assert_eq!(
            read(&disk, f, 0).data[..PAGE_USABLE],
            s2.data[..PAGE_USABLE]
        );
    }

    #[test]
    fn torn_tail_is_cut_so_the_next_commit_is_not_hidden() {
        let log = Arc::new(MemLog::new());
        let wal = Wal::new(Box::new(Shared(log.clone())), DiskMetrics::new());
        let disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        disk.allocate_page(f).unwrap();
        let t1 = wal.begin();
        wal.log_page(t1, f, PageId(0), &Page::new(), &page_with(7));
        wal.commit(t1).unwrap();
        let t2 = wal.begin();
        wal.log_page(t2, f, PageId(0), &page_with(7), &page_with(9));
        wal.commit(t2).unwrap();
        // Tear into the middle of t2's commit record.
        log.tear(5);
        // t2's commit is incomplete → only t1 replays.
        assert_eq!(wal.recover(&disk).unwrap(), 1);
        assert_eq!(read(&disk, f, 0).data[0], 7);
        // The torn marker is gone from the store (through the default
        // `truncate_to`; t2's page record was complete and stays, never to
        // replay), so t3 lands where recovery will read it.
        let t3 = wal.begin();
        wal.log_page(t3, f, PageId(0), &page_with(7), &page_with(3));
        wal.commit(t3).unwrap();
        assert_eq!(
            kinds(&*log),
            [
                KIND_PAGE_IMAGE,
                KIND_COMMIT,
                KIND_PAGE_IMAGE,
                KIND_PAGE_IMAGE,
                KIND_COMMIT
            ]
        );
        assert_eq!(wal.recover(&disk).unwrap(), 1);
        assert_eq!(read(&disk, f, 0).data[0], 3);
    }

    #[test]
    fn recovery_recreates_missing_pages() {
        let wal = Wal::new(Box::new(MemLog::new()), DiskMetrics::new());
        let disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        // Log writes to page 3 of a file that only has 0 pages on the
        // recovered image.
        let t = wal.begin();
        wal.log_page(t, f, PageId(3), &Page::new(), &page_with(5));
        wal.commit(t).unwrap();
        assert_eq!(wal.recover(&disk).unwrap(), 1);
        assert_eq!(disk.page_count(f).unwrap(), 4);
    }

    #[test]
    fn checkpoint_truncates_and_ends_every_base() {
        let wal = Wal::new(Box::new(MemLog::new()), DiskMetrics::new());
        let s1 = page_with(1);
        let t = wal.begin();
        wal.log_page(t, FileId(1), PageId(0), &Page::new(), &s1);
        wal.commit(t).unwrap();
        assert!(wal.size().unwrap() > 0);
        wal.checkpoint().unwrap();
        assert_eq!(wal.size().unwrap(), 0);
        let t = wal.begin();
        wal.log_page(t, FileId(1), PageId(0), &s1, &patched(&s1, 0, b"x"));
        wal.commit(t).unwrap();
        assert_eq!(kinds(&*wal.store), [KIND_PAGE_IMAGE, KIND_COMMIT]);
    }

    #[test]
    fn abort_after_commit_overrides_it() {
        // The live system appends an abort when a commit's force fails
        // ambiguously; recovery must honour the later marker.
        let wal = Wal::new(Box::new(MemLog::new()), DiskMetrics::new());
        let disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        disk.allocate_page(f).unwrap();
        let t = wal.begin();
        wal.log_page(t, f, PageId(0), &Page::new(), &page_with(0xEE));
        wal.commit(t).unwrap();
        wal.abort(t).unwrap();
        assert_eq!(wal.recover(&disk).unwrap(), 0);
        assert_eq!(
            read(&disk, f, 0).data[0],
            0,
            "overridden commit must not replay"
        );
    }

    #[test]
    fn corrupt_record_reports_its_own_offset() {
        // A well-framed page-image record with a short payload sits at
        // offset 0, followed by a valid commit. The error must name the
        // offending record's offset, not the end-of-scan offset.
        let log = MemLog::new();
        let mut rec = Vec::new();
        frame(&mut rec, 1, |out| {
            out.extend_from_slice(&[0u8; 4]);
            Some(KIND_PAGE_IMAGE)
        });
        log.append(&rec).unwrap();
        let wal = Wal::new(Box::new(log), DiskMetrics::new());
        wal.commit(1).unwrap();
        let disk = MemDisk::new();
        match wal.recover(&disk) {
            Err(StorageError::WalCorrupt { offset }) => assert_eq!(offset, 0),
            other => panic!("expected WalCorrupt at offset 0, got {other:?}"),
        }
    }

    #[test]
    fn a_delta_whose_image_is_not_in_the_log_is_corruption() {
        let log = MemLog::new();
        let mut rec = Vec::new();
        frame(&mut rec, 1, |out| {
            out.extend_from_slice(&[0u8; 8]); // file 0, page 0
            out.extend_from_slice(&[5, 0, 1, 0, 0xFF]); // one byte at offset 5
            Some(KIND_PAGE_DELTA)
        });
        log.append(&rec).unwrap();
        let wal = Wal::new(Box::new(log), DiskMetrics::new());
        wal.commit(1).unwrap();
        assert!(matches!(
            wal.recover(&MemDisk::new()),
            Err(StorageError::WalCorrupt { offset: 0 })
        ));
    }

    #[test]
    fn recovery_is_idempotent_and_bumps_txn_floor() {
        let log = Arc::new(MemLog::new());
        let disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        {
            let wal = Wal::new(Box::new(log.clone()), DiskMetrics::new());
            let t = wal.begin();
            wal.log_page(t, f, PageId(2), &Page::new(), &page_with(0x5A));
            wal.commit(t).unwrap();
        }
        let wal = Wal::new(Box::new(log), DiskMetrics::new());
        assert_eq!(wal.recover(&disk).unwrap(), 1);
        let snap = |d: &MemDisk| -> Vec<Vec<u8>> {
            (0..d.page_count(f).unwrap())
                .map(|i| read(d, f, i).data.to_vec())
                .collect()
        };
        let first = snap(&disk);
        assert_eq!(wal.recover(&disk).unwrap(), 1);
        assert_eq!(snap(&disk), first, "second replay must be byte-identical");
        // New txns must not reuse ids still in the log.
        assert!(wal.begin() > 1);
    }

    #[test]
    fn stats_count_appends_forces_and_recovered() {
        let wal = Wal::new(Box::new(MemLog::new()), DiskMetrics::new());
        let disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        disk.allocate_page(f).unwrap();
        let t = wal.begin();
        wal.log_page(t, f, PageId(0), &Page::new(), &page_with(1));
        wal.commit(t).unwrap();
        let t2 = wal.begin();
        wal.abort(t2).unwrap();
        assert_eq!(wal.recover(&disk).unwrap(), 1);
        let s = wal.stats();
        assert_eq!(
            s.appends, 2,
            "the commit (image and marker together) + the abort"
        );
        assert_eq!(s.forces, 1, "only commit forces");
        assert_eq!(s.recovered, 1);
    }

    #[test]
    fn latest_committed_image_is_the_image_plus_its_committed_deltas() {
        let wal = Wal::new(Box::new(MemLog::new()), DiskMetrics::new());
        let key = (FileId(1), PageId(0));
        let s1 = page_with(1);
        let s2 = patched(&s1, 100, b"two");
        let s3 = patched(&s2, 2000, b"three");
        for (before, after) in [(&Page::new(), &s1), (&s1, &s2), (&s2, &s3)] {
            let t = wal.begin();
            wal.log_page(t, key.0, key.1, before, after);
            wal.commit(t).unwrap();
        }
        let t4 = wal.begin();
        wal.log_page(t4, key.0, key.1, &s3, &page_with(4)); // never commits — must not win
        let img = wal
            .latest_committed_image(key.0, key.1)
            .unwrap()
            .expect("page is covered by the log");
        assert_eq!(img.data[..PAGE_USABLE], s3.data[..PAGE_USABLE]);
        assert!(img.verify_checksum().is_ok(), "repair images come stamped");
        assert!(wal
            .latest_committed_image(FileId(1), PageId(9))
            .unwrap()
            .is_none());
        wal.checkpoint().unwrap();
        assert!(
            wal.latest_committed_image(key.0, key.1).unwrap().is_none(),
            "checkpoint truncation ends log coverage"
        );
    }

    fn temp_log(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("mood-wal-{tag}-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn file_log_roundtrip() {
        let path = temp_log("roundtrip");
        {
            let wal = Wal::new(Box::new(FileLog::open(&path).unwrap()), DiskMetrics::new());
            let t = wal.begin();
            wal.log_page(t, FileId(1), PageId(0), &Page::new(), &page_with(0x42));
            wal.commit(t).unwrap();
        }
        {
            let wal = Wal::new(Box::new(FileLog::open(&path).unwrap()), DiskMetrics::new());
            let disk = MemDisk::new();
            assert_eq!(wal.recover(&disk).unwrap(), 1);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_log_owns_its_tail_and_a_reopen_finds_the_end() {
        let path = temp_log("tail");
        let file_len = || std::fs::metadata(&path).unwrap().len();
        let disk = MemDisk::new();
        let f = disk.create_file().unwrap();
        disk.allocate_page(f).unwrap();
        let s1 = page_with(1);
        let s2 = patched(&s1, 64, b"second generation");
        {
            let log = FileLog::open(&path).unwrap();
            assert_eq!(
                file_len(),
                0,
                "nothing is allocated before the first append"
            );
            let wal = Wal::new(Box::new(log), DiskMetrics::new());
            let t = wal.begin();
            wal.log_page(t, f, PageId(0), &Page::new(), &s1);
            wal.commit(t).unwrap();
            let logical = wal.size().unwrap() as u64;
            assert_eq!(file_len(), EXTENT, "the file owns a zeroed extent");
            assert!(logical < EXTENT);
            assert_eq!(wal.store.read_all().unwrap().len() as u64, logical);
            // Killed here: no checkpoint, the zero tail stays on disk.
        }
        {
            // Reopened, the store cannot tell its zero tail from records...
            let log = FileLog::open(&path).unwrap();
            assert_eq!(log.len().unwrap(), EXTENT);
            assert!(log.read_all().unwrap().ends_with(&[0u8; 64]));
            // ...recovery can, and cuts it off before anything appends.
            let wal = Wal::new(Box::new(log), DiskMetrics::new());
            assert_eq!(wal.recover(&disk).unwrap(), 1);
            assert!((wal.size().unwrap() as u64) < EXTENT);
            assert_eq!(file_len(), wal.size().unwrap() as u64);
            let t = wal.begin();
            wal.log_page(t, f, PageId(0), &s1, &s2);
            wal.commit(t).unwrap();
        }
        {
            // Both generations are there for the next recovery.
            let wal = Wal::new(Box::new(FileLog::open(&path).unwrap()), DiskMetrics::new());
            assert_eq!(
                kinds(&*wal.store),
                [KIND_PAGE_IMAGE, KIND_COMMIT, KIND_PAGE_IMAGE, KIND_COMMIT]
            );
            wal.recover(&disk).unwrap();
            assert_eq!(
                read(&disk, f, 0).data[..PAGE_USABLE],
                s2.data[..PAGE_USABLE]
            );
            wal.checkpoint().unwrap();
            assert_eq!(file_len(), 0, "a checkpoint returns the file to length 0");
            assert_eq!(wal.size().unwrap(), 0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_log_appends_larger_than_an_extent() {
        let path = temp_log("big");
        let log = FileLog::open(&path).unwrap();
        let big: Vec<u8> = (0..EXTENT * 2 + 17).map(|i| i as u8).collect();
        log.append(b"head").unwrap();
        log.append(&big).unwrap();
        log.force().unwrap();
        assert_eq!(log.len().unwrap() as usize, 4 + big.len());
        let all = log.read_all().unwrap();
        assert_eq!(&all[..4], b"head");
        assert_eq!(&all[4..], &big[..]);
        log.truncate_to(4).unwrap();
        log.append(b"!").unwrap();
        assert_eq!(log.read_all().unwrap(), b"head!");
        drop(log);
        std::fs::remove_file(&path).unwrap();
    }
}
