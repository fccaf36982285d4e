//! Heap files: unordered collections of variable-length records addressed by
//! physical OIDs, with ESM-style forwarding for relocated records.
//!
//! Record layout on the page: a 1-byte tag (`TAG_NORMAL` or `TAG_MOVED_IN`)
//! followed by the payload. When an update outgrows its page, the record is
//! relocated and a forwarding stub is left at the original slot; the copy at
//! the new home is tagged `TAG_MOVED_IN` so sequential scans skip it and
//! instead reach it through the stub — which is exactly the extra random
//! access the cost model charges for forwarded objects.
//!
//! Reads by OID go through one borrowed read of the pinned page
//! (`read_run`): [`HeapFile::get`] copies the record out once, and
//! [`HeapFile::get_batch_with`] hands a visitor the records of many OIDs
//! with one pool access per run of OIDs on the same page.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::metrics::{AccessHint, AccessKind};
use crate::oid::{FileId, Oid, PageId};
use crate::page::{Page, SlotContent, SlottedPage, MAX_RECORD};

const TAG_NORMAL: u8 = 0;
const TAG_MOVED_IN: u8 = 1;

/// Largest payload a heap record may carry (page capacity minus the tag).
pub const MAX_PAYLOAD: usize = MAX_RECORD - 1;

/// A heap file of records.
pub struct HeapFile {
    file: FileId,
    pool: Arc<BufferPool>,
    /// Pages recently observed to have free space, newest last.
    free_hints: Mutex<Vec<PageId>>,
}

impl HeapFile {
    /// Create a brand-new heap file on the pool's disk.
    pub fn create(pool: Arc<BufferPool>) -> Result<HeapFile> {
        let file = pool.disk().create_file()?;
        Ok(HeapFile {
            file,
            pool,
            free_hints: Mutex::new(Vec::new()),
        })
    }

    /// Re-open an existing heap file.
    pub fn open(pool: Arc<BufferPool>, file: FileId) -> HeapFile {
        HeapFile {
            file,
            pool,
            free_hints: Mutex::new(Vec::new()),
        }
    }

    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of allocated pages — the cost model's `nbpages(C)`.
    pub fn pages(&self) -> Result<u32> {
        self.pool.disk().page_count(self.file)
    }

    /// Insert a record, returning its OID.
    pub fn insert(&self, payload: &[u8]) -> Result<Oid> {
        self.insert_tagged(payload, TAG_NORMAL)
    }

    fn insert_tagged(&self, payload: &[u8], tag: u8) -> Result<Oid> {
        if payload.len() > MAX_PAYLOAD {
            return Err(StorageError::RecordTooLarge {
                size: payload.len(),
                max: MAX_PAYLOAD,
            });
        }
        let mut rec = Vec::with_capacity(payload.len() + 1);
        rec.push(tag);
        rec.extend_from_slice(payload);

        // Try hinted pages (newest first), then the last page, then extend.
        let mut candidates: Vec<PageId> = {
            let hints = self.free_hints.lock();
            hints.iter().rev().copied().collect()
        };
        let pages = self.pages()?;
        if pages > 0 {
            let last = PageId(pages - 1);
            if !candidates.contains(&last) {
                candidates.push(last);
            }
        }
        for pid in candidates {
            let placed = self
                .pool
                .with_page_mut(self.file, pid, AccessKind::Random, |p| {
                    if SlottedPage::fits(p, rec.len()) {
                        Some(SlottedPage::insert(p, &rec))
                    } else {
                        None
                    }
                })?;
            if let Some(res) = placed {
                let (slot, unique) = res?;
                return Ok(Oid::new(self.file, pid, slot, unique));
            }
            self.free_hints.lock().retain(|h| *h != pid);
        }
        let (pid, res) = self.pool.new_page(self.file, |p| {
            SlottedPage::init(p);
            SlottedPage::insert(p, &rec)
        })?;
        let (slot, unique) = res?;
        self.free_hints.lock().push(pid);
        Ok(Oid::new(self.file, pid, slot, unique))
    }

    fn check_file(&self, oid: Oid) -> Result<()> {
        if oid.file != self.file {
            return Err(StorageError::DanglingOid(oid));
        }
        Ok(())
    }

    /// Fetch a record by OID (random access), following one forwarding hop.
    pub fn get(&self, oid: Oid) -> Result<Vec<u8>> {
        self.get_kind(oid, AccessKind::Random)
    }

    fn get_kind(&self, oid: Oid, kind: AccessKind) -> Result<Vec<u8>> {
        let mut out = None;
        self.read_run(&[oid], kind, &mut |_, record| {
            out = record.map(<[u8]>::to_vec);
            true
        })?;
        out.ok_or(StorageError::DanglingOid(oid))
    }

    /// Fetch many records by OID, each borrowed from its page: `visit` gets
    /// every OID of `oids` in order, with its payload or `None` where
    /// [`get`](Self::get) would answer [`StorageError::DanglingOid`] (a
    /// deleted slot, a stale stamp, an OID of another file), and returns
    /// `false` to stop. Any other failure ends the call.
    ///
    /// Consecutive OIDs of one page are served by one pool access (a random
    /// one, as `get`'s is), so callers sort by (page, slot) first — `Oid`'s
    /// own order. The visitor runs while the page is pinned and must not
    /// re-enter the buffer pool. A forwarded record is followed after its
    /// page is released and costs, as it does in `get`, the access to its
    /// new home; the OIDs behind it on the page take a fresh access.
    pub fn get_batch_with(
        &self,
        oids: &[Oid],
        mut visit: impl FnMut(Oid, Option<&[u8]>) -> bool,
    ) -> Result<()> {
        self.read_run(oids, AccessKind::Random, &mut visit)
    }

    /// The one borrowed record read behind `get`, the batched fetch and the
    /// scan's forward resolution.
    fn read_run(
        &self,
        oids: &[Oid],
        kind: AccessKind,
        visit: &mut dyn FnMut(Oid, Option<&[u8]>) -> bool,
    ) -> Result<()> {
        enum Step {
            /// The visitor has seen everything before this index.
            Next(usize),
            /// The OID at this index is a forwarding stub to the second.
            Forward(usize, Oid),
            Stop,
        }
        let mut at = 0;
        while let Some(&first) = oids.get(at) {
            if first.file != self.file {
                if !visit(first, None) {
                    return Ok(());
                }
                at += 1;
                continue;
            }
            let on_page = |p: &Page| -> Result<Step> {
                let mut i = at;
                while let Some(&oid) = oids.get(i) {
                    if (oid.file, oid.page) != (first.file, first.page) {
                        break;
                    }
                    let record = match SlottedPage::get(p, oid.slot, oid.unique) {
                        Ok(SlotContent::Record(bytes)) => bytes.get(1..),
                        Ok(SlotContent::Forward(fwd)) => {
                            let target = Oid::from_bytes(fwd).ok_or_else(|| {
                                StorageError::CorruptAt {
                                    file: self.file,
                                    page: oid.page,
                                    detail: "bad forwarding address".into(),
                                }
                            })?;
                            return Ok(Step::Forward(i, target));
                        }
                        Ok(SlotContent::Free) | Err(_) => None,
                    };
                    if !visit(oid, record) {
                        return Ok(Step::Stop);
                    }
                    i += 1;
                }
                Ok(Step::Next(i))
            };
            let step = self
                .pool
                .with_page(self.file, first.page, kind, on_page)??;
            at = match step {
                Step::Next(i) => i,
                Step::Stop => return Ok(()),
                Step::Forward(i, target) => {
                    // Forwarded access always pays an extra random page fetch.
                    let at_home = |p: &Page| match SlottedPage::get(p, target.slot, target.unique) {
                        Ok(SlotContent::Record(bytes)) => visit(oids[i], bytes.get(1..)),
                        _ => visit(oids[i], None),
                    };
                    let more =
                        self.pool
                            .with_page(self.file, target.page, AccessKind::Random, at_home)?;
                    if !more {
                        return Ok(());
                    }
                    i + 1
                }
            };
        }
        Ok(())
    }

    /// Update a record in place, relocating with a forwarding stub when the
    /// new payload no longer fits. The record's OID never changes.
    pub fn update(&self, oid: Oid, payload: &[u8]) -> Result<()> {
        if payload.len() > MAX_PAYLOAD {
            return Err(StorageError::RecordTooLarge {
                size: payload.len(),
                max: MAX_PAYLOAD,
            });
        }
        self.check_file(oid)?;
        let mut rec = Vec::with_capacity(payload.len() + 1);
        rec.push(TAG_NORMAL);
        rec.extend_from_slice(payload);

        enum Outcome {
            Done,
            Relocate,
            FollowForward(Oid),
        }
        let outcome = self
            .pool
            .with_page_mut(
                self.file,
                oid.page,
                AccessKind::Random,
                |p| match SlottedPage::get(p, oid.slot, oid.unique) {
                    Err(_) | Ok(SlotContent::Free) => Err(StorageError::DanglingOid(oid)),
                    Ok(SlotContent::Forward(fwd)) => {
                        let target = Oid::from_bytes(fwd).ok_or_else(|| {
                            StorageError::CorruptAt {
                                file: oid.file,
                                page: oid.page,
                                detail: "bad forwarding address".into(),
                            }
                        })?;
                        Ok(Outcome::FollowForward(target))
                    }
                    Ok(SlotContent::Record(_)) => {
                        if SlottedPage::try_update(p, oid.slot, &rec)? {
                            Ok(Outcome::Done)
                        } else {
                            Ok(Outcome::Relocate)
                        }
                    }
                },
            )??;
        match outcome {
            Outcome::Done => Ok(()),
            Outcome::FollowForward(target) => {
                // Update the relocated copy; keep the MOVED_IN tag so scans
                // still reach it only via the stub. Re-relocation (the copy
                // outgrowing its new page) re-points the original stub.
                let mut moved = rec.clone();
                moved[0] = TAG_MOVED_IN;
                let done = self.pool.with_page_mut(
                    self.file,
                    target.page,
                    AccessKind::Random,
                    |p| SlottedPage::try_update(p, target.slot, &moved),
                )??;
                if done {
                    return Ok(());
                }
                // Drop the outgrown copy, place a fresh one, and re-point
                // the original stub at it. `make_forward` rewrites the stub
                // in place, keeping the slot's stamp — the caller's OID
                // stays valid.
                self.pool
                    .with_page_mut(self.file, target.page, AccessKind::Random, |p| {
                        SlottedPage::delete(p, target.slot)
                    })??;
                let new_home = self.insert_tagged(payload, TAG_MOVED_IN)?;
                self.pool
                    .with_page_mut(self.file, oid.page, AccessKind::Random, |p| {
                        SlottedPage::make_forward(p, oid.slot, &new_home.to_bytes())
                    })??;
                Ok(())
            }
            Outcome::Relocate => {
                let new_home = self.insert_tagged(payload, TAG_MOVED_IN)?;
                self.pool
                    .with_page_mut(self.file, oid.page, AccessKind::Random, |p| {
                        SlottedPage::make_forward(p, oid.slot, &new_home.to_bytes())
                    })??;
                Ok(())
            }
        }
    }

    /// Delete a record (and its relocated copy, if any).
    pub fn delete(&self, oid: Oid) -> Result<()> {
        self.check_file(oid)?;
        let fwd = self
            .pool
            .with_page_mut(
                self.file,
                oid.page,
                AccessKind::Random,
                |p| match SlottedPage::get(p, oid.slot, oid.unique) {
                    Err(_) | Ok(SlotContent::Free) => Err(StorageError::DanglingOid(oid)),
                    Ok(SlotContent::Forward(bytes)) => {
                        let target = Oid::from_bytes(bytes);
                        SlottedPage::delete(p, oid.slot)?;
                        Ok(target)
                    }
                    Ok(SlotContent::Record(_)) => {
                        SlottedPage::delete(p, oid.slot)?;
                        Ok(None)
                    }
                },
            )??;
        self.free_hints.lock().push(oid.page);
        if let Some(target) = fwd {
            self.pool
                .with_page_mut(self.file, target.page, AccessKind::Random, |p| {
                    SlottedPage::delete(p, target.slot)
                })??;
            self.free_hints.lock().push(target.page);
        }
        Ok(())
    }

    /// Sequential scan over all live records, in (page, slot) order,
    /// yielding each record's canonical OID.
    ///
    /// Relocated records are emitted when their forwarding stub is reached
    /// (one extra random access each), and their `MOVED_IN` home copy is
    /// skipped — so every record appears exactly once under its original OID.
    pub fn scan(&self) -> Result<Vec<(Oid, Vec<u8>)>> {
        let mut out = Vec::new();
        self.scan_with(|oid, bytes| {
            out.push((oid, bytes.to_vec()));
            true
        })?;
        Ok(out)
    }

    /// Streaming scan; the visitor returns `false` to stop early.
    pub fn scan_with(&self, visit: impl FnMut(Oid, &[u8]) -> bool) -> Result<()> {
        self.scan_hint_with(AccessHint::Sequential, visit)
    }

    /// Streaming scan with an explicit access hint. `Sequential` is the
    /// normal extent-sweep path (readahead, cold frame placement);
    /// `Random` reads each page as a random access — frames enter the hot
    /// set, which suits small metadata heaps read once at bootstrap and
    /// consulted point-wise afterwards.
    pub fn scan_hint_with(
        &self,
        hint: AccessHint,
        mut visit: impl FnMut(Oid, &[u8]) -> bool,
    ) -> Result<()> {
        let pages = self.pages()?;
        self.scan_pages(0, pages, hint, &mut visit)
    }

    /// Streaming scan over pages `[start, end)` (clamped to the file) — the
    /// unit the chunk-parallel executor hands one thread.
    pub fn scan_range_with(
        &self,
        start: u32,
        end: u32,
        mut visit: impl FnMut(Oid, &[u8]) -> bool,
    ) -> Result<()> {
        let end = end.min(self.pages()?);
        self.scan_pages(start, end, AccessHint::Sequential, &mut visit)
    }

    /// Pages `[start, end)` in order; `end` is at most [`pages`](Self::pages)
    /// (readahead windows are not clamped to the file again). Sequential
    /// scans are read with readahead: at each window boundary the pool
    /// prefetches the next window ([`BufferPool::scan_window`]: the
    /// readahead window, or a share of it while other scans run) in one
    /// device call (`record_sequential_batch`), which is the physical
    /// behavior SEQCOST's one-seek-per-run term models.
    fn scan_pages(
        &self,
        start: u32,
        end: u32,
        hint: AccessHint,
        visit: &mut dyn FnMut(Oid, &[u8]) -> bool,
    ) -> Result<()> {
        let kind = hint.kind();
        let sequential = matches!(hint, AccessHint::Sequential) && self.pool.readahead_window() > 0;
        let slot = sequential.then(|| self.pool.begin_scan());
        // The first page past the window read last.
        let mut next_window = start;
        // One page-sized buffer for the whole scan.
        let mut copy = Page::new();
        'pages: for pnum in start..end {
            let pid = PageId(pnum);
            if slot.is_some() && pnum == next_window {
                let span = self.pool.scan_window().min(end - pnum);
                // Advisory: a failed readahead just means the pages are
                // fetched on demand below, where real errors surface.
                if span > 0 {
                    self.pool.prefetch_sequential(self.file, pid, span);
                }
                next_window = pnum + span.max(1);
            }
            // Copy the page's used bytes out once, then visit its records
            // — and resolve forwards — outside the page callback, so the
            // visitor may re-enter the pool.
            self.pool
                .with_page(self.file, pid, kind, |p| SlottedPage::copy_used(p, &mut copy))?;
            for (slot, stamp, is_fwd, bytes) in SlottedPage::live_records(&copy) {
                let oid = Oid::new(self.file, pid, slot, stamp);
                if is_fwd {
                    let record = self.get_kind(oid, AccessKind::Random)?;
                    if !visit(oid, &record) {
                        break 'pages;
                    }
                } else if bytes.first() == Some(&TAG_NORMAL) && !visit(oid, &bytes[1..]) {
                    break 'pages;
                }
                // TAG_MOVED_IN records are skipped: reached via their stub.
            }
        }
        Ok(())
    }

    /// Count live records (scans the file).
    pub fn count(&self) -> Result<u64> {
        let mut n = 0u64;
        self.scan_with(|_, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::metrics::DiskMetrics;

    fn heap() -> HeapFile {
        let disk = Arc::new(MemDisk::new());
        let pool = Arc::new(BufferPool::new(disk, 64, DiskMetrics::new()));
        HeapFile::create(pool).unwrap()
    }

    #[test]
    fn insert_get_roundtrip() {
        let h = heap();
        let oid = h.insert(b"record one").unwrap();
        assert_eq!(h.get(oid).unwrap(), b"record one");
    }

    #[test]
    fn many_records_span_pages() {
        let h = heap();
        let oids: Vec<_> = (0..500)
            .map(|i| h.insert(format!("rec-{i:04}").as_bytes()).unwrap())
            .collect();
        assert!(h.pages().unwrap() > 1, "500 records need multiple pages");
        for (i, oid) in oids.iter().enumerate() {
            assert_eq!(h.get(*oid).unwrap(), format!("rec-{i:04}").as_bytes());
        }
        assert_eq!(h.count().unwrap(), 500);
    }

    #[test]
    fn delete_then_get_is_dangling() {
        let h = heap();
        let oid = h.insert(b"gone").unwrap();
        h.delete(oid).unwrap();
        assert!(matches!(h.get(oid), Err(StorageError::DanglingOid(_))));
        assert!(matches!(h.delete(oid), Err(StorageError::DanglingOid(_))));
    }

    #[test]
    fn update_in_place() {
        let h = heap();
        let oid = h.insert(b"aaaa").unwrap();
        h.update(oid, b"bb").unwrap();
        assert_eq!(h.get(oid).unwrap(), b"bb");
    }

    #[test]
    fn update_relocates_with_stable_oid() {
        let h = heap();
        let oid = h.insert(b"small").unwrap();
        // Fill the rest of the page so growth forces relocation.
        while h.pages().unwrap() == 1 {
            h.insert(&vec![7u8; 600]).unwrap();
        }
        let big = vec![9u8; 3500];
        h.update(oid, &big).unwrap();
        assert_eq!(h.get(oid).unwrap(), big, "OID survives relocation");
        // And the record appears exactly once in a scan, under its OID.
        let hits: Vec<_> = h
            .scan()
            .unwrap()
            .into_iter()
            .filter(|(o, _)| *o == oid)
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, big);
    }

    #[test]
    fn scan_sees_all_records_once() {
        let h = heap();
        let mut expect = std::collections::BTreeMap::new();
        for i in 0..200 {
            let payload = format!("row{i}");
            let oid = h.insert(payload.as_bytes()).unwrap();
            expect.insert(oid, payload.into_bytes());
        }
        // Delete a third, update a third.
        let oids: Vec<_> = expect.keys().copied().collect();
        for (i, oid) in oids.iter().enumerate() {
            if i % 3 == 0 {
                h.delete(*oid).unwrap();
                expect.remove(oid);
            } else if i % 3 == 1 {
                let new = vec![b'u'; 100 + i];
                h.update(*oid, &new).unwrap();
                expect.insert(*oid, new);
            }
        }
        let scanned: std::collections::BTreeMap<_, _> = h.scan().unwrap().into_iter().collect();
        assert_eq!(scanned, expect);
    }

    #[test]
    fn scan_early_stop() {
        let h = heap();
        for i in 0..50 {
            h.insert(&[i]).unwrap();
        }
        let mut seen = 0;
        h.scan_with(|_, _| {
            seen += 1;
            seen < 10
        })
        .unwrap();
        assert_eq!(seen, 10);
    }

    #[test]
    fn scan_counts_sequential_pages() {
        let disk = Arc::new(MemDisk::new());
        let metrics = DiskMetrics::new();
        let pool = Arc::new(BufferPool::new(disk, 4, metrics.clone()));
        let h = HeapFile::create(pool).unwrap();
        for _ in 0..100 {
            h.insert(&vec![1u8; 400]).unwrap();
        }
        metrics.reset();
        let _ = h.scan().unwrap();
        let snap = metrics.snapshot();
        assert!(snap.seq_pages > 0, "scan reads pages sequentially");
        assert_eq!(snap.rnd_pages, 0, "no forwards, so no random fetches");
    }

    #[test]
    fn scan_readahead_batches_page_reads() {
        let disk = Arc::new(MemDisk::new());
        let metrics = DiskMetrics::new();
        // 64 frames -> readahead enabled (window 8).
        let pool = Arc::new(BufferPool::new(disk, 64, metrics.clone()));
        assert!(pool.readahead_window() >= 2);
        let h = HeapFile::create(pool).unwrap();
        for i in 0..600u32 {
            h.insert(format!("row-{i:05}").as_bytes()).unwrap();
        }
        let pages = h.pages().unwrap() as u64;
        assert!(pages > 2);
        // Evict everything so the scan starts cold.
        h.pool.discard_file(h.file_id());
        metrics.reset();
        assert_eq!(h.count().unwrap(), 600);
        let snap = metrics.snapshot();
        assert_eq!(snap.seq_pages, pages, "every page read exactly once");
        assert!(
            snap.seq_batches < pages,
            "readahead coalesces page reads into batches \
             ({} batches for {pages} pages)",
            snap.seq_batches
        );
        assert_eq!(snap.rnd_pages, 0);
    }

    #[test]
    fn a_scan_beside_another_reads_half_windows() {
        let disk = Arc::new(MemDisk::new());
        let metrics = DiskMetrics::new();
        // 64 frames: four 16-frame shards, 32-page windows alone.
        let pool = Arc::new(BufferPool::new(disk, 64, metrics.clone()));
        assert_eq!(pool.readahead_window(), 32);
        let h = HeapFile::create(pool.clone()).unwrap();
        while h.pages().unwrap() < 64 {
            h.insert(&[7u8; 900]).unwrap();
        }
        let calls = |other_scans: usize| {
            let _others: Vec<_> = (0..other_scans).map(|_| pool.begin_scan()).collect();
            h.pool.discard_file(h.file_id());
            metrics.reset();
            h.scan_range_with(0, 64, |_, _| true).unwrap();
            let snap = metrics.snapshot();
            assert_eq!(snap.seq_pages, 64, "every page read exactly once");
            snap.seq_batches
        };
        assert_eq!(calls(0), 2, "two 32-page windows");
        assert_eq!(calls(1), 4, "two scans share the budget: 16-page windows");
        assert_eq!(calls(8), 0, "nine scans: under a page a shard, every page on demand");
    }

    #[test]
    fn range_scan_partitions_cover_full_scan() {
        let h = heap();
        for i in 0..300u32 {
            h.insert(format!("r{i}").as_bytes()).unwrap();
        }
        let full: Vec<_> = h.scan().unwrap();
        let pages = h.pages().unwrap();
        let mid = pages / 2;
        let mut halves = Vec::new();
        for (a, b) in [(0, mid), (mid, pages)] {
            h.scan_range_with(a, b, |oid, bytes| {
                halves.push((oid, bytes.to_vec()));
                true
            })
            .unwrap();
        }
        assert_eq!(halves, full, "range partitions concatenate to the scan");
    }

    /// A heap on a pool that counts accesses, with three pages of records.
    fn counted_heap() -> (HeapFile, DiskMetrics, Vec<Oid>) {
        let metrics = DiskMetrics::new();
        let pool = Arc::new(BufferPool::new(
            Arc::new(MemDisk::new()),
            64,
            metrics.clone(),
        ));
        let h = HeapFile::create(pool).unwrap();
        let mut oids = Vec::new();
        while h.pages().unwrap() < 4 {
            oids.push(h.insert(&vec![oids.len() as u8; 300]).unwrap());
        }
        oids.retain(|o| o.page.0 < 3);
        (h, metrics, oids)
    }

    /// The batched fetch of `oids` with the pool accesses it made.
    fn batch(h: &HeapFile, metrics: &DiskMetrics, oids: &[Oid]) -> (Vec<Option<Vec<u8>>>, u64) {
        let before = metrics.snapshot();
        let mut got = Vec::new();
        h.get_batch_with(oids, |oid, record| {
            assert_eq!(oid, oids[got.len()], "visited in the order given");
            got.push(record.map(<[u8]>::to_vec));
            true
        })
        .unwrap();
        let d = metrics.snapshot().delta(&before);
        (got, d.buffer_hits + d.buffer_misses)
    }

    /// What `get`, called one by one, says about the same OIDs.
    fn one_by_one(h: &HeapFile, oids: &[Oid]) -> Vec<Option<Vec<u8>>> {
        oids.iter()
            .map(|oid| match h.get(*oid) {
                Ok(record) => Some(record),
                Err(StorageError::DanglingOid(o)) => {
                    assert_eq!(o, *oid);
                    None
                }
                Err(e) => panic!("{oid}: {e}"),
            })
            .collect()
    }

    #[test]
    fn batched_fetch_reads_each_page_once() {
        let (h, metrics, oids) = counted_heap();
        assert!(oids.iter().filter(|o| o.page.0 == 0).count() > 5);
        // Many slots of one page: one access.
        let first_page: Vec<Oid> = oids.iter().copied().filter(|o| o.page.0 == 0).collect();
        let (got, accesses) = batch(&h, &metrics, &first_page);
        assert_eq!(got, one_by_one(&h, &first_page));
        assert_eq!(accesses, 1);
        // OIDs across pages, sorted: one access per distinct page.
        let (got, accesses) = batch(&h, &metrics, &oids);
        assert_eq!(got, one_by_one(&h, &oids));
        assert!(got.iter().all(Option::is_some));
        assert_eq!(accesses, 3);
        // Nothing to fetch: nothing touched.
        assert_eq!(batch(&h, &metrics, &[]), (Vec::new(), 0));
    }

    #[test]
    fn batched_fetch_answers_what_get_answers() {
        let (h, metrics, mut oids) = counted_heap();
        // A stale stamp (the slot reused), a deleted slot, another file's OID.
        let reused = oids[2];
        h.delete(reused).unwrap();
        let fresh = h.insert(&[9u8; 300]).unwrap();
        assert_eq!((fresh.page, fresh.slot), (reused.page, reused.slot));
        assert_ne!(fresh.unique, reused.unique);
        let deleted = oids[1];
        h.delete(deleted).unwrap();
        let elsewhere = Oid::new(FileId(h.file_id().0 + 7), PageId(0), oids[0].slot, 1);
        // A record that outgrew its page: reached through its stub.
        let forwarded = oids[4];
        h.update(forwarded, &vec![7u8; 3000]).unwrap();
        oids.extend([fresh, elsewhere]);
        oids.sort();
        let (got, accesses) = batch(&h, &metrics, &oids);
        assert_eq!(got, one_by_one(&h, &oids));
        let at = |oid: Oid| oids.iter().position(|o| *o == oid).unwrap();
        for gone in [deleted, reused, elsewhere] {
            assert_eq!(got[at(gone)], None, "{gone}");
        }
        assert_eq!(got[at(fresh)], Some(vec![9u8; 300]));
        assert_eq!(got[at(forwarded)], Some(vec![7u8; 3000]));
        // Three pages, the forwarded record's new home, and its page again
        // for the OIDs behind the stub.
        assert_eq!(accesses, 5);
        // An early stop is honoured, also on a forwarded record.
        let mut seen = 0;
        h.get_batch_with(&oids, |oid, _| {
            seen += 1;
            oid != forwarded
        })
        .unwrap();
        assert_eq!(seen, at(forwarded) + 1);
    }

    #[test]
    fn oversized_record_rejected() {
        let h = heap();
        assert!(matches!(
            h.insert(&vec![0u8; MAX_PAYLOAD + 1]),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn deleted_space_is_reused() {
        let h = heap();
        let oids: Vec<_> = (0..64)
            .map(|_| h.insert(&vec![3u8; 450]).unwrap())
            .collect();
        let pages_before = h.pages().unwrap();
        for oid in &oids {
            h.delete(*oid).unwrap();
        }
        for _ in 0..64 {
            h.insert(&vec![4u8; 450]).unwrap();
        }
        assert_eq!(
            h.pages().unwrap(),
            pages_before,
            "freed space reused, no growth"
        );
    }
}
