//! The streaming tail's memory is bounded by what each clause keeps, not by
//! the number of rows that flow through it — measured, with a counting
//! allocator, as the peak of live heap bytes while a statement runs. The
//! same allocator pins what every statement stands on: a buffer-pool hit
//! allocates nothing.
//!
//! The allocator counts per thread and the statements run at parallelism
//! 1, so tests running beside each other do not see one another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mood_core::{Answer, Mood, Value};

thread_local! {
    /// Heap bytes this thread holds, and the highest that has been since
    /// the last reset.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, counting live bytes per thread.
struct CountLive;

fn note(delta: isize) {
    // A thread may allocate while it is being torn down: then there is
    // nothing to count.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` only writes thread-local integers.
unsafe impl GlobalAlloc for CountLive {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountLive = CountLive;

/// Run `sql`; the peak of live bytes above where the statement started,
/// and how many of those bytes its answer still holds.
fn peak_and_answer(db: &Mood, sql: &str, rows: usize) -> (isize, isize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let answer = match db.execute(sql) {
        Ok(Answer::Rows(r)) => r,
        other => panic!("{sql}: {other:?}"),
    };
    assert_eq!(answer.len(), rows, "{sql}");
    (PEAK.with(Cell::get) - base, LIVE.with(Cell::get) - base)
}

fn readings(n: i32) -> Mood {
    let db = Mood::in_memory_with_pool(4096);
    db.execute("CREATE CLASS Reading TUPLE (id Integer, k Integer, tag String(16))")
        .unwrap();
    for i in 0..n {
        let fields = vec![
            ("id", Value::Integer(i)),
            ("k", Value::Integer((i * 7919) % 1000)),
            ("tag", Value::string(format!("tag{}", i % 8))),
        ];
        db.catalog()
            .new_object("Reading", Value::tuple(fields))
            .unwrap();
    }
    db.collect_stats().unwrap();
    db
}

/// The peak of an `ORDER BY` over the whole extent with a budget of
/// `budget` records: the larger of the plan's first execution (which also
/// prepares it and compiles its programs) and its next. DISTINCT after the
/// sort keeps the answer at 8 rows, so the peak is the sort's own.
fn sort_peak(db: &Mood, budget: usize) -> isize {
    db.set_sort_budget(budget);
    let sql = "SELECT DISTINCT r.tag FROM Reading r ORDER BY r.k, r.id";
    let first = peak_and_answer(db, sql, 8).0;
    first.max(peak_and_answer(db, sql, 8).0)
}

#[test]
fn a_spilling_sort_holds_its_budget_not_its_input() {
    let (small, large) = (readings(10_000), readings(40_000));
    let by_input = [sort_peak(&small, 1_000), sort_peak(&large, 1_000)];
    let by_budget = [by_input[0], sort_peak(&small, 8_000)];
    // Four times the input under one budget: the buffer is the same size;
    // what grows is the merge's 8 KB read buffer per extra run of 1 000 —
    // 8 bytes per added row, where holding the row (a sort record is > 100
    // bytes, a bound row several hundred) would add megabytes.
    let per_added_row = (by_input[1] - by_input[0]) / 30_000;
    assert!(
        by_input[1] < 1_000_000 && per_added_row < 16,
        "input 10 000 -> 40 000 at budget 1 000: {by_input:?} bytes"
    );
    // Eight times the budget over one input: the buffer grows with it.
    assert!(
        by_budget[1] > 2 * by_budget[0],
        "budget 1 000 -> 8 000 over 10 000 rows: {by_budget:?} bytes"
    );
}

#[test]
fn distinct_holds_a_few_batches_and_its_set() {
    let n = 50_000;
    let db = readings(n);
    let sql = "SELECT DISTINCT r.tag FROM Reading r";
    // Object batches as scanned, from the first execution on: no `Row` is
    // built.
    for execution in ["first", "second"] {
        let (peak, _) = peak_and_answer(&db, sql, 8);
        // A batch is 1 024 objects of one string field: ~150 KB with the
        // rows projected from it. All 50 000 held at once would be 7 MB.
        assert!(
            peak < 400_000,
            "{execution} execution peaked at {peak} bytes"
        );
    }
}

#[test]
fn a_resident_page_hit_allocates_nothing() {
    use mood_core::storage::{AccessKind, BufferPool, Disk, DiskMetrics, MemDisk};
    let disk = std::sync::Arc::new(MemDisk::new());
    let file = disk.create_file().unwrap();
    let pool = BufferPool::new(disk, 8, DiskMetrics::new());
    let (page, _) = pool.new_page(file, |p| p.data[0] = 7).unwrap();
    // A checkout moves the frame's page out and back: no placeholder page
    // is allocated in its place, for a read or a write.
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let read = pool.with_page(file, page, AccessKind::Random, |p| p.data[0]);
    pool.with_page_mut(file, page, AccessKind::Random, |p| p.data[1] = 8).unwrap();
    assert_eq!(read.unwrap(), 7);
    assert_eq!(PEAK.with(Cell::get) - base, 0, "a buffer hit allocated");
}
