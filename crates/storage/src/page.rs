//! Fixed-size pages and the slotted-page record layout.
//!
//! Layout of a slotted page (all integers little-endian):
//!
//! ```text
//! +---------------------------+ 0
//! | slot_count: u16           |
//! | free_start: u16           |  end of the slot directory growth area
//! | free_end:   u16           |  start of the record heap (grows downward)
//! | flags:      u16           |
//! +---------------------------+ 8
//! | slot[0] { off:u16 len:u16 unique:u32 }   8 bytes each
//! | slot[1] ...               |
//! |        ... free space ... |
//! |          records (packed at the high end, grow downward)
//! +---------------------------+ PAGE_SIZE
//! ```
//!
//! * `len == LEN_FREE` marks a free (tombstoned) slot whose number can be
//!   reused; its `unique` stamp is bumped on reuse so stale OIDs fail.
//! * `len == LEN_FORWARD` marks a forwarding stub: the record bytes are a
//!   serialized [`crate::oid::Oid`] pointing at the record's new home.
//!
//! The last [`PAGE_TRAILER`] bytes of *every* page (slotted or raw) are
//! reserved for a checksum trailer `[magic: u32][crc: u32]` owned by the
//! disk boundary: the buffer pool stamps it on write-back and verifies it
//! on read. Record layouts never touch bytes past [`PAGE_USABLE`]. A page
//! without the magic (e.g. a freshly allocated all-zero page) is
//! *unstamped* and passes verification.

use crate::error::{Result, StorageError};
use crate::oid::SlotId;

/// Page size in bytes — the paper's Table 10 parameter `B`.
pub const PAGE_SIZE: usize = 4096;

/// Bytes reserved at the page tail for the checksum trailer
/// (`[magic: u32 LE][crc: u32 LE]`).
pub const PAGE_TRAILER: usize = 8;
/// Bytes of a page usable by record layouts; everything past this offset
/// belongs to the checksum trailer.
pub const PAGE_USABLE: usize = PAGE_SIZE - PAGE_TRAILER;
/// Trailer magic; its absence marks an unstamped page.
const TRAILER_MAGIC: u32 = 0x4D4F_4F44; // "MOOD"

const HEADER: usize = 8;
const SLOT_BYTES: usize = 8;
const LEN_FREE: u16 = u16::MAX;
const LEN_FORWARD: u16 = u16::MAX - 1;
/// Largest record payload storable in one page.
pub const MAX_RECORD: usize = PAGE_USABLE - HEADER - SLOT_BYTES;

/// A raw page buffer.
#[derive(Clone)]
pub struct Page {
    pub data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl Page {
    pub fn new() -> Self {
        Page {
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }

    fn u16_at(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.data[off], self.data[off + 1]])
    }

    fn set_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn u32_at(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap())
    }

    fn set_u32(&mut self, off: usize, v: u32) {
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Stamp the checksum trailer over the usable bytes. Called by the
    /// buffer pool (and WAL recovery) immediately before every disk
    /// write; in-memory readers never consult the trailer.
    pub fn stamp_checksum(&mut self) {
        let crc = crate::wal::checksum(&self.data[..PAGE_USABLE]);
        self.set_u32(PAGE_USABLE, TRAILER_MAGIC);
        self.set_u32(PAGE_USABLE + 4, crc);
    }

    /// Verify the checksum trailer: `Ok(())` for an unstamped page or a
    /// matching crc, `Err((expected, actual))` on a mismatch, where
    /// `expected` is the crc the trailer promised.
    pub fn verify_checksum(&self) -> std::result::Result<(), (u32, u32)> {
        if self.u32_at(PAGE_USABLE) != TRAILER_MAGIC {
            return Ok(());
        }
        let expected = self.u32_at(PAGE_USABLE + 4);
        let actual = crate::wal::checksum(&self.data[..PAGE_USABLE]);
        if expected == actual {
            Ok(())
        } else {
            Err((expected, actual))
        }
    }
}

/// What a slot currently holds, borrowed from the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotContent<'p> {
    /// A live record (payload bytes).
    Record(&'p [u8]),
    /// The record moved; follow the forwarding bytes (a serialized OID).
    Forward(&'p [u8]),
    /// The slot is free.
    Free,
}

/// View of a page interpreted as a slotted record page.
///
/// All methods take `&mut Page`/`&Page`; the buffer pool hands those out.
pub struct SlottedPage;

impl SlottedPage {
    /// Initialize an empty slotted page in `page`.
    pub fn init(page: &mut Page) {
        page.data.fill(0);
        page.set_u16(0, 0); // slot_count
        page.set_u16(2, HEADER as u16); // free_start
        page.set_u16(4, PAGE_USABLE as u16); // free_end
        page.set_u16(6, 0); // flags
    }

    pub fn slot_count(page: &Page) -> u16 {
        page.u16_at(0)
    }

    fn free_start(page: &Page) -> usize {
        page.u16_at(2) as usize
    }

    fn free_end(page: &Page) -> usize {
        page.u16_at(4) as usize
    }

    /// Contiguous free bytes available right now (without compaction).
    pub fn contiguous_free(page: &Page) -> usize {
        Self::free_end(page) - Self::free_start(page)
    }

    /// Free bytes available after compaction (i.e. total reclaimable space).
    pub fn total_free(page: &Page) -> usize {
        let mut used = HEADER + Self::slot_count(page) as usize * SLOT_BYTES;
        for i in 0..Self::slot_count(page) {
            let (_, len, _) = Self::slot_entry(page, i);
            if len != LEN_FREE {
                used += Self::stored_len(len);
            }
        }
        PAGE_USABLE - used
    }

    /// Space physically occupied by a slot's record. Every record is
    /// allocated at least [`Oid::ENCODED_LEN`](crate::oid::Oid::ENCODED_LEN)
    /// bytes so that it can always be replaced in place by a forwarding stub
    /// (`make_forward` relies on this invariant).
    fn stored_len(len: u16) -> usize {
        if len == LEN_FORWARD {
            crate::oid::Oid::ENCODED_LEN
        } else {
            (len as usize).max(crate::oid::Oid::ENCODED_LEN)
        }
    }

    fn slot_entry(page: &Page, i: u16) -> (u16, u16, u32) {
        let base = HEADER + i as usize * SLOT_BYTES;
        (
            page.u16_at(base),
            page.u16_at(base + 2),
            page.u32_at(base + 4),
        )
    }

    fn set_slot_entry(page: &mut Page, i: u16, off: u16, len: u16, unique: u32) {
        let base = HEADER + i as usize * SLOT_BYTES;
        page.set_u16(base, off);
        page.set_u16(base + 2, len);
        page.set_u32(base + 4, unique);
    }

    /// Would a record of `len` bytes fit (possibly after compaction,
    /// possibly reusing a free slot)?
    pub fn fits(page: &Page, len: usize) -> bool {
        if len > MAX_RECORD {
            return false;
        }
        let alloc = len.max(crate::oid::Oid::ENCODED_LEN);
        let reuse = Self::find_free_slot(page).is_some();
        let need = alloc + if reuse { 0 } else { SLOT_BYTES };
        Self::total_free(page) >= need
    }

    fn find_free_slot(page: &Page) -> Option<u16> {
        (0..Self::slot_count(page)).find(|&i| Self::slot_entry(page, i).1 == LEN_FREE)
    }

    /// Insert a record, returning its (slot, unique-stamp).
    pub fn insert(page: &mut Page, record: &[u8]) -> Result<(SlotId, u32)> {
        Self::insert_tagged(page, record, false)
    }

    /// Insert a forwarding stub (serialized OID) into a specific page.
    pub fn insert_forward(page: &mut Page, oid_bytes: &[u8]) -> Result<(SlotId, u32)> {
        debug_assert_eq!(oid_bytes.len(), crate::oid::Oid::ENCODED_LEN);
        Self::insert_tagged(page, oid_bytes, true)
    }

    fn insert_tagged(page: &mut Page, record: &[u8], forward: bool) -> Result<(SlotId, u32)> {
        if record.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: MAX_RECORD,
            });
        }
        // An all-zero page was allocated but never written (a crash between
        // the two): it holds nothing, and inserting into it as it is would
        // leave `free_start` short of the slot directory.
        if Self::free_end(page) == 0 {
            Self::init(page);
        }
        let alloc = record.len().max(crate::oid::Oid::ENCODED_LEN);
        let reuse = Self::find_free_slot(page);
        let need = alloc + if reuse.is_some() { 0 } else { SLOT_BYTES };
        if Self::total_free(page) < need {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: Self::total_free(page),
            });
        }
        if Self::contiguous_free(page) < need {
            Self::compact(page);
        }
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = Self::slot_count(page);
                page.set_u16(0, s + 1);
                page.set_u16(2, (Self::free_start(page) + SLOT_BYTES) as u16);
                // Newly appended slot directory entries start zeroed; mark free.
                Self::set_slot_entry(page, s, 0, LEN_FREE, 0);
                s
            }
        };
        let new_end = Self::free_end(page) - alloc;
        page.data[new_end..new_end + record.len()].copy_from_slice(record);
        page.set_u16(4, new_end as u16);
        let (_, _, old_unique) = Self::slot_entry(page, slot);
        let unique = old_unique.wrapping_add(1);
        let len_tag = if forward {
            LEN_FORWARD
        } else {
            record.len() as u16
        };
        // Forward stubs reuse the length tag; real length is the OID size.
        if forward {
            Self::set_slot_entry(page, slot, new_end as u16, LEN_FORWARD, unique);
        } else {
            Self::set_slot_entry(page, slot, new_end as u16, len_tag, unique);
        }
        Ok((SlotId(slot), unique))
    }

    /// Read the content of a slot, validating the unique stamp.
    pub fn get(page: &Page, slot: SlotId, unique: u32) -> Result<SlotContent<'_>> {
        let content = Self::get_any(page, slot)?;
        let (_, len, stamp) = Self::slot_entry(page, slot.0);
        if len != LEN_FREE && stamp != unique {
            return Err(StorageError::Corrupt(format!(
                "stale OID: slot {} stamp {} != {}",
                slot.0, unique, stamp
            )));
        }
        Ok(content)
    }

    /// Read a slot without checking the stamp (used by sequential scans).
    pub fn get_any(page: &Page, slot: SlotId) -> Result<SlotContent<'_>> {
        if slot.0 >= Self::slot_count(page) {
            return Err(StorageError::Corrupt(format!(
                "slot {} beyond directory",
                slot.0
            )));
        }
        let (off, len, _) = Self::slot_entry(page, slot.0);
        Ok(match len {
            LEN_FREE => SlotContent::Free,
            LEN_FORWARD => SlotContent::Forward(
                &page.data[off as usize..off as usize + crate::oid::Oid::ENCODED_LEN],
            ),
            n => SlotContent::Record(&page.data[off as usize..off as usize + n as usize]),
        })
    }

    /// Stamp of a slot (for scans that need to reconstruct OIDs).
    pub fn stamp(page: &Page, slot: SlotId) -> u32 {
        Self::slot_entry(page, slot.0).2
    }

    /// Delete a slot's record, leaving the slot free for reuse.
    pub fn delete(page: &mut Page, slot: SlotId) -> Result<()> {
        if slot.0 >= Self::slot_count(page) {
            return Err(StorageError::Corrupt(format!(
                "delete of slot {} beyond directory",
                slot.0
            )));
        }
        let (off, len, unique) = Self::slot_entry(page, slot.0);
        if len == LEN_FREE {
            return Ok(());
        }
        let _ = (off, len);
        Self::set_slot_entry(page, slot.0, 0, LEN_FREE, unique);
        Ok(())
    }

    /// Replace the record in `slot` if the new bytes fit on this page
    /// (after compaction); returns `false` when the caller must relocate.
    pub fn try_update(page: &mut Page, slot: SlotId, record: &[u8]) -> Result<bool> {
        if slot.0 >= Self::slot_count(page) {
            return Err(StorageError::Corrupt(format!(
                "update of slot {} beyond directory",
                slot.0
            )));
        }
        let (off, len, unique) = Self::slot_entry(page, slot.0);
        if len == LEN_FREE {
            return Err(StorageError::Corrupt("update of free slot".into()));
        }
        let old_len = Self::stored_len(len);
        if record.len() <= old_len {
            // Shrinks in place; keep the old offset, waste the tail until
            // the next compaction.
            page.data[off as usize..off as usize + record.len()].copy_from_slice(record);
            Self::set_slot_entry(page, slot.0, off, record.len() as u16, unique);
            return Ok(true);
        }
        // Check whether it fits after logically dropping the old copy.
        let alloc = record.len().max(crate::oid::Oid::ENCODED_LEN);
        if Self::total_free(page) + old_len < alloc {
            return Ok(false);
        }
        Self::set_slot_entry(page, slot.0, 0, LEN_FREE, unique);
        if Self::contiguous_free(page) < alloc {
            Self::compact(page);
        }
        let new_end = Self::free_end(page) - alloc;
        page.data[new_end..new_end + record.len()].copy_from_slice(record);
        page.set_u16(4, new_end as u16);
        Self::set_slot_entry(page, slot.0, new_end as u16, record.len() as u16, unique);
        Ok(true)
    }

    /// Turn a live record slot into a forwarding stub pointing at `oid_bytes`.
    pub fn make_forward(page: &mut Page, slot: SlotId, oid_bytes: &[u8]) -> Result<()> {
        debug_assert_eq!(oid_bytes.len(), crate::oid::Oid::ENCODED_LEN);
        let (_, len, unique) = Self::slot_entry(page, slot.0);
        if len == LEN_FREE {
            return Err(StorageError::Corrupt("forwarding a free slot".into()));
        }
        Self::set_slot_entry(page, slot.0, 0, LEN_FREE, unique);
        if Self::contiguous_free(page) < crate::oid::Oid::ENCODED_LEN {
            Self::compact(page);
        }
        let new_end = Self::free_end(page) - crate::oid::Oid::ENCODED_LEN;
        page.data[new_end..new_end + oid_bytes.len()].copy_from_slice(oid_bytes);
        page.set_u16(4, new_end as u16);
        Self::set_slot_entry(page, slot.0, new_end as u16, LEN_FORWARD, unique);
        Ok(())
    }

    /// Slide all live records to the high end of the page, squeezing out
    /// holes left by deletes and shrinking updates.
    pub fn compact(page: &mut Page) {
        let count = Self::slot_count(page);
        let mut live: Vec<(u16, Vec<u8>, u16, u32)> = Vec::new();
        for i in 0..count {
            let (off, len, unique) = Self::slot_entry(page, i);
            if len != LEN_FREE {
                let n = Self::stored_len(len);
                live.push((
                    i,
                    page.data[off as usize..off as usize + n].to_vec(),
                    len,
                    unique,
                ));
            }
        }
        let mut end = PAGE_USABLE;
        for (i, bytes, len, unique) in live {
            end -= bytes.len();
            page.data[end..end + bytes.len()].copy_from_slice(&bytes);
            Self::set_slot_entry(page, i, end as u16, len, unique);
        }
        page.set_u16(4, end as u16);
    }

    /// The live slots with their bytes borrowed from the page: `(slot,
    /// stamp, is_forward, bytes)` — a record's payload, or a forwarding
    /// stub's serialized OID.
    pub fn live_records(page: &Page) -> impl Iterator<Item = (SlotId, u32, bool, &[u8])> {
        (0..Self::slot_count(page)).filter_map(move |i| {
            let (off, len, unique) = Self::slot_entry(page, i);
            let n = match len {
                LEN_FREE => return None,
                LEN_FORWARD => crate::oid::Oid::ENCODED_LEN,
                n => n as usize,
            };
            let bytes = &page.data[off as usize..off as usize + n];
            Some((SlotId(i), unique, len == LEN_FORWARD, bytes))
        })
    }

    /// Copy what a reader of `src`'s slots needs — the header and slot
    /// directory, and the records from the lowest live one up — into `dst`,
    /// skipping the free gap between them. Both bounds come from the slot
    /// directory itself, the one thing [`SlottedPage::live_records`] reads.
    pub fn copy_used(src: &Page, dst: &mut Page) {
        let slots = Self::slot_count(src);
        let dir_end = (HEADER + slots as usize * SLOT_BYTES).min(PAGE_USABLE);
        let live = (0..slots).map(|i| Self::slot_entry(src, i));
        let lowest = live.filter(|(_, len, _)| *len != LEN_FREE).map(|(off, _, _)| off);
        let lowest = lowest.min().map_or(PAGE_USABLE, usize::from);
        let heap_start = lowest.clamp(dir_end, PAGE_USABLE);
        dst.data[..dir_end].copy_from_slice(&src.data[..dir_end]);
        dst.data[heap_start..PAGE_USABLE].copy_from_slice(&src.data[heap_start..PAGE_USABLE]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Page {
        let mut p = Page::new();
        SlottedPage::init(&mut p);
        p
    }

    #[test]
    fn insert_and_get_roundtrip() {
        let mut p = fresh();
        let (s, u) = SlottedPage::insert(&mut p, b"hello").unwrap();
        assert_eq!(
            SlottedPage::get(&p, s, u).unwrap(),
            SlotContent::Record(b"hello")
        );
    }

    #[test]
    fn multiple_records_coexist() {
        let mut p = fresh();
        let ids: Vec<_> = (0..10)
            .map(|i| {
                let rec = vec![i as u8; 16 + i];
                (SlottedPage::insert(&mut p, &rec).unwrap(), rec)
            })
            .collect();
        for ((s, u), rec) in ids {
            assert_eq!(
                SlottedPage::get(&p, s, u).unwrap(),
                SlotContent::Record(&rec)
            );
        }
    }

    #[test]
    fn delete_frees_slot_and_reuse_bumps_stamp() {
        let mut p = fresh();
        let (s, u) = SlottedPage::insert(&mut p, b"dead").unwrap();
        SlottedPage::delete(&mut p, s).unwrap();
        assert_eq!(SlottedPage::get_any(&p, s).unwrap(), SlotContent::Free);
        let (s2, u2) = SlottedPage::insert(&mut p, b"new!").unwrap();
        assert_eq!(s2, s, "free slot is reused");
        assert_ne!(u2, u, "stamp bumped so stale OIDs fail");
        assert!(SlottedPage::get(&p, s, u).is_err());
    }

    #[test]
    fn page_fills_and_rejects_overflow() {
        let mut p = fresh();
        let rec = vec![0xabu8; 500];
        let mut n = 0;
        while SlottedPage::fits(&p, rec.len()) {
            SlottedPage::insert(&mut p, &rec).unwrap();
            n += 1;
        }
        assert!(
            n >= 7,
            "a 4K page holds at least 7 500-byte records, got {n}"
        );
        assert!(SlottedPage::insert(&mut p, &rec).is_err());
    }

    #[test]
    fn record_too_large_rejected() {
        let mut p = fresh();
        let err = SlottedPage::insert(&mut p, &vec![0u8; PAGE_SIZE]).unwrap_err();
        assert!(matches!(err, StorageError::RecordTooLarge { .. }));
    }

    #[test]
    fn compaction_reclaims_holes() {
        let mut p = fresh();
        let mut slots = Vec::new();
        let rec = vec![7u8; 300];
        while SlottedPage::fits(&p, rec.len()) {
            slots.push(SlottedPage::insert(&mut p, &rec).unwrap());
        }
        // Delete every other record; a 300-byte insert must then succeed via
        // slot reuse + compaction.
        for (i, (s, _)) in slots.iter().enumerate() {
            if i % 2 == 0 {
                SlottedPage::delete(&mut p, *s).unwrap();
            }
        }
        assert!(SlottedPage::fits(&p, 300));
        let (s, u) = SlottedPage::insert(&mut p, &rec).unwrap();
        assert_eq!(
            SlottedPage::get(&p, s, u).unwrap(),
            SlotContent::Record(&rec)
        );
        // Survivors intact after the compaction that insert triggered.
        for (i, (s, u)) in slots.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(
                    SlottedPage::get(&p, *s, *u).unwrap(),
                    SlotContent::Record(&rec)
                );
            }
        }
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = fresh();
        let (s, u) = SlottedPage::insert(&mut p, b"short").unwrap();
        assert!(SlottedPage::try_update(&mut p, s, b"sh").unwrap());
        assert_eq!(
            SlottedPage::get(&p, s, u).unwrap(),
            SlotContent::Record(b"sh")
        );
        assert!(SlottedPage::try_update(&mut p, s, &[9u8; 200]).unwrap());
        assert_eq!(
            SlottedPage::get(&p, s, u).unwrap(),
            SlotContent::Record(&[9u8; 200])
        );
    }

    #[test]
    fn update_signals_relocation_when_page_full() {
        let mut p = fresh();
        let (s, _) = SlottedPage::insert(&mut p, b"victim").unwrap();
        while SlottedPage::fits(&p, 400) {
            SlottedPage::insert(&mut p, &vec![1u8; 400]).unwrap();
        }
        // Growing the victim beyond total free space must ask for relocation.
        let grown = vec![2u8; 3000];
        assert!(!SlottedPage::try_update(&mut p, s, &grown).unwrap());
    }

    #[test]
    fn forwarding_stub_roundtrip() {
        use crate::oid::{FileId, Oid, PageId};
        let mut p = fresh();
        let (s, u) = SlottedPage::insert(&mut p, b"moving").unwrap();
        let target = Oid::new(FileId(3), PageId(9), SlotId(1), 5);
        SlottedPage::make_forward(&mut p, s, &target.to_bytes()).unwrap();
        match SlottedPage::get(&p, s, u).unwrap() {
            SlotContent::Forward(bytes) => assert_eq!(Oid::from_bytes(bytes), Some(target)),
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn checksum_stamp_verify_roundtrip() {
        let mut p = fresh();
        SlottedPage::insert(&mut p, b"payload").unwrap();
        // Unstamped pages (fresh allocations) pass verification.
        assert!(Page::new().verify_checksum().is_ok());
        p.stamp_checksum();
        assert!(p.verify_checksum().is_ok());
        // Any usable-byte flip is caught...
        p.data[100] ^= 0x40;
        let (expected, actual) = p.verify_checksum().unwrap_err();
        assert_ne!(expected, actual);
        p.data[100] ^= 0x40;
        assert!(p.verify_checksum().is_ok());
        // ...and re-stamping after mutation heals the trailer.
        SlottedPage::insert(&mut p, b"more").unwrap();
        assert!(p.verify_checksum().is_err());
        p.stamp_checksum();
        assert!(p.verify_checksum().is_ok());
    }

    #[test]
    fn records_never_reach_the_trailer() {
        let mut p = fresh();
        let rec = vec![0xffu8; 200];
        while SlottedPage::fits(&p, rec.len()) {
            SlottedPage::insert(&mut p, &rec).unwrap();
        }
        SlottedPage::compact(&mut p);
        assert!(
            p.data[PAGE_USABLE..].iter().all(|&b| b == 0),
            "a full, compacted page leaves the trailer untouched"
        );
    }

    #[test]
    fn inserting_into_a_never_written_page_initializes_it() {
        let mut p = Page::new();
        let (slot, unique) = SlottedPage::insert(&mut p, b"first").unwrap();
        assert_eq!(SlottedPage::free_start(&p), HEADER + SLOT_BYTES);
        assert_eq!(
            SlottedPage::get(&p, slot, unique).unwrap(),
            SlotContent::Record(b"first")
        );
        let mut reference = fresh();
        SlottedPage::insert(&mut reference, b"first").unwrap();
        assert_eq!(p.data[..], reference.data[..]);
    }

    #[test]
    fn live_records_reports_forwards_and_borrows_payloads() {
        let mut p = fresh();
        let (s1, _) = SlottedPage::insert(&mut p, b"a").unwrap();
        let (s2, _) = SlottedPage::insert(&mut p, b"b").unwrap();
        let (s3, stamp3) = SlottedPage::insert(&mut p, b"a longer record").unwrap();
        SlottedPage::delete(&mut p, s1).unwrap();
        let target = crate::oid::Oid::NULL.to_bytes();
        SlottedPage::make_forward(&mut p, s2, &target).unwrap();
        // A reader works from a copy of the used ranges alone.
        let mut copy = fresh();
        SlottedPage::copy_used(&p, &mut copy);
        for page in [&p, &copy] {
            let live: Vec<_> = SlottedPage::live_records(page).collect();
            assert_eq!(live.len(), 2);
            assert_eq!((live[0].0, live[0].2, live[0].3), (s2, true, &target[..]));
            assert_eq!(live[1], (s3, stamp3, false, &b"a longer record"[..]));
        }
    }
}
