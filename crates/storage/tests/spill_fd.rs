//! A spilled run holds exactly one file handle for its whole life and
//! gives it back: `SpillFile::into_reader` used to leak the write handle
//! (and its 8 KB buffer), so a session that spilled long enough ran into
//! `EMFILE`.
//!
//! One test in a binary of its own: the descriptor table is per process,
//! and a test running on a neighbouring thread would move the count.

#![cfg(target_os = "linux")]

use mood_storage::spill::SpillFile;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .count()
}

fn spill_files() -> usize {
    let mine = format!("mood-spill-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(&mine))
        .count()
}

#[test]
fn spill_cycles_leak_no_descriptor_and_no_file() {
    let before = open_fds();
    for i in 0..300u32 {
        let mut f = SpillFile::create_in(&std::env::temp_dir()).unwrap();
        f.write_record(&i.to_le_bytes()).unwrap();
        let mut r = f.into_reader(None).unwrap();
        assert_eq!(
            r.next_record().unwrap().as_deref(),
            Some(&i.to_le_bytes()[..])
        );
        assert_eq!(open_fds(), before + 1, "one handle per live run");
    }
    assert_eq!(open_fds(), before, "every run closed its handle");
    assert_eq!(spill_files(), 0, "every run unlinked its file");

    // A run that is never read back still cleans up after itself.
    let mut unread = SpillFile::create_in(&std::env::temp_dir()).unwrap();
    unread.write_record(b"abandoned").unwrap();
    assert_eq!(spill_files(), 1);
    drop(unread);
    assert_eq!(open_fds(), before);
    assert_eq!(spill_files(), 0);

    // A statement that fails mid-stream drops what it holds at that point:
    // partition files still being written, sorted runs already turned into
    // readers and partly consumed. All of it goes at once.
    let mut partitions: Vec<Option<SpillFile>> = Vec::new();
    partitions.resize_with(64, || None);
    for i in 0..200u32 {
        let slot = &mut partitions[(i * 7) as usize % 64];
        let file = match slot {
            Some(f) => f,
            None => slot.insert(SpillFile::create_in(&std::env::temp_dir()).unwrap()),
        };
        file.write_record(&i.to_le_bytes()).unwrap();
    }
    let mut runs = Vec::new();
    for part in partitions.iter_mut().take(8) {
        let mut run = part.take().unwrap().into_reader(None).unwrap();
        run.next_record().unwrap();
        runs.push(run);
    }
    assert_eq!((open_fds(), spill_files()), (before + 64, 64));
    drop((partitions, runs));
    assert_eq!((open_fds(), spill_files()), (before, 0));
}
