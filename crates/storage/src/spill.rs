//! Temp-file spill facility for the external merge sort.
//!
//! A [`SpillFile`] is a write-once, read-once run of length-prefixed
//! records in a spill directory: beside a file-backed database's pages,
//! the OS temp directory for an in-memory one
//! ([`StorageManager::spill_file`](crate::StorageManager::spill_file)).
//! A run a dead process left behind is [`sweep`]ed when its database
//! next opens. The external sort writes one spill
//! file per sorted run that exceeds its in-memory budget, then opens all
//! runs as [`SpillReader`]s for the k-way merge. Files are unlinked on
//! drop (reader or unconsumed writer alike), so an aborted query leaves
//! nothing behind.
//!
//! Spill I/O is charged to the shared [`DiskMetrics`] in page equivalents
//! (`ceil(bytes / PAGE_SIZE)` per run, writes on spill, sequential reads
//! on merge), which is what lets `EXPLAIN ANALYZE` show real page actuals
//! for ORDER BY/GROUP BY and the `seqcost_batched` model estimate them.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::{AccessKind, DiskMetrics};
use crate::page::PAGE_SIZE;

/// Process-unique suffix counter for spill file names.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Every run's file name is `mood-spill-<pid>-<seq>.run`.
const PREFIX: &str = "mood-spill-";
const SUFFIX: &str = ".run";

fn spill_path(dir: &Path) -> PathBuf {
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{PREFIX}{}-{seq}{SUFFIX}", std::process::id()))
}

/// Delete the runs left in `dir` by a process that died mid-statement (a
/// run unlinks itself when its statement ends).
pub fn sweep(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(PREFIX) && name.ends_with(SUFFIX) {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Pages needed to hold `bytes` bytes (at least 1 for a non-empty run).
pub fn pages_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE as u64)
}

/// Unlinks a spill file when dropped. Writer and reader both hold one
/// *after* their file handle, so the handle closes first.
struct Unlink(PathBuf);

impl Drop for Unlink {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A spilled run being written: length-prefixed records through a buffered
/// writer. Finish with [`SpillFile::into_reader`]; dropping unread deletes
/// the file.
pub struct SpillFile {
    writer: BufWriter<File>,
    _unlink: Unlink,
    bytes: u64,
    records: u64,
}

impl SpillFile {
    /// Create a fresh spill file in `dir`.
    pub fn create_in(dir: &Path) -> std::io::Result<SpillFile> {
        let path = spill_path(dir);
        let file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(&path)?;
        Ok(SpillFile {
            writer: BufWriter::new(file),
            _unlink: Unlink(path),
            bytes: 0,
            records: 0,
        })
    }

    /// Append one record (u32 length prefix + payload).
    pub fn write_record(&mut self, data: &[u8]) -> std::io::Result<()> {
        let len = u32::try_from(data.len())
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "record too big"))?;
        self.writer.write_all(&len.to_le_bytes())?;
        self.writer.write_all(data)?;
        self.bytes += 4 + data.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Bytes written so far (including length prefixes).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Flush, charge the run's pages as writes to `metrics`, and rewind
    /// the file for reading from the start. The one handle (and the
    /// unlink-on-drop duty) moves to the reader: nothing stays open behind.
    pub fn into_reader(self, metrics: Option<&DiskMetrics>) -> std::io::Result<SpillReader> {
        let SpillFile {
            writer,
            _unlink,
            bytes,
            records,
        } = self;
        let mut file = writer.into_inner().map_err(|e| e.into_error())?;
        if let Some(m) = metrics {
            for _ in 0..pages_for_bytes(bytes) {
                m.record_write();
            }
        }
        file.seek(SeekFrom::Start(0))?;
        Ok(SpillReader {
            reader: BufReader::new(file),
            _unlink,
            bytes,
            remaining: records,
        })
    }
}

/// A spilled run being merged back: sequential record reads; the file is
/// unlinked when the reader drops.
pub struct SpillReader {
    reader: BufReader<File>,
    _unlink: Unlink,
    bytes: u64,
    remaining: u64,
}

impl SpillReader {
    /// The next record, or `None` at end of run.
    pub fn next_record(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut len = [0u8; 4];
        self.reader.read_exact(&mut len)?;
        let mut buf = vec![0u8; u32::from_le_bytes(len) as usize];
        self.reader.read_exact(&mut buf)?;
        self.remaining -= 1;
        Ok(Some(buf))
    }

    /// Total bytes in the run (as written, including prefixes).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Charge the run's pages as one sequential readahead batch.
    pub fn charge_sequential_read(&self, metrics: &DiskMetrics) {
        let pages = pages_for_bytes(self.bytes);
        if pages > 0 {
            metrics.record_sequential_batch(pages);
        }
    }
}

/// Charge `bytes` of in-flight spill formation as random page touches —
/// used by run *formation* when records are staged through the buffer
/// budget (the write itself is charged by [`SpillFile::into_reader`]).
pub fn charge_random_pages(metrics: &DiskMetrics, pages: u64) {
    for _ in 0..pages {
        metrics.record_read(AccessKind::Random);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_records_in_order() {
        let mut f = SpillFile::create_in(&std::env::temp_dir()).unwrap();
        let recs: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        for r in &recs {
            f.write_record(r).unwrap();
        }
        assert_eq!(f.records(), 100);
        let mut r = f.into_reader(None).unwrap();
        for want in &recs {
            assert_eq!(r.next_record().unwrap().as_deref(), Some(want.as_slice()));
        }
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn files_are_deleted_on_drop() {
        let mut f = SpillFile::create_in(&std::env::temp_dir()).unwrap();
        f.write_record(b"x").unwrap();
        let path = f._unlink.0.clone();
        assert!(path.exists());
        drop(f);
        assert!(!path.exists(), "writer drop unlinks");

        let mut f = SpillFile::create_in(&std::env::temp_dir()).unwrap();
        f.write_record(b"y").unwrap();
        let r = f.into_reader(None).unwrap();
        let path = r._unlink.0.clone();
        assert!(path.exists());
        drop(r);
        assert!(!path.exists(), "reader drop unlinks");
    }

    #[test]
    fn io_is_charged_in_page_equivalents() {
        let m = DiskMetrics::new();
        let mut f = SpillFile::create_in(&std::env::temp_dir()).unwrap();
        // ~2.5 pages of payload → 3 page-equivalent writes.
        let rec = vec![7u8; PAGE_SIZE];
        for _ in 0..2 {
            f.write_record(&rec).unwrap();
        }
        f.write_record(&rec[..PAGE_SIZE / 2]).unwrap();
        let bytes = f.bytes();
        let r = f.into_reader(Some(&m)).unwrap();
        assert_eq!(m.snapshot().writes, pages_for_bytes(bytes));
        r.charge_sequential_read(&m);
        let snap = m.snapshot();
        assert_eq!(snap.seq_pages, pages_for_bytes(bytes));
        assert_eq!(snap.seq_batches, 1);
    }

    #[test]
    fn empty_run_reads_back_empty() {
        let f = SpillFile::create_in(&std::env::temp_dir()).unwrap();
        let m = DiskMetrics::new();
        let mut r = f.into_reader(Some(&m)).unwrap();
        assert!(r.next_record().unwrap().is_none());
        assert_eq!(m.snapshot().writes, 0);
    }
}
