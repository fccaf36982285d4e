//! The streaming tail's memory is bounded by what each clause keeps, not by
//! the number of rows that flow through it — measured, with a counting
//! allocator, as the peak of live heap bytes while a statement runs. The
//! same allocator pins what every statement stands on: a buffer-pool hit
//! allocates nothing, and neither does a scanned object once its batch's
//! slots have filled; a cached point SELECT allocates little beyond its
//! answer, and an index range one row per object.
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
    /// Allocations (and reallocations) this thread has made.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting live bytes and allocations per thread.
struct CountLive;

fn note_alloc(delta: isize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    note(delta);
}

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
        note_alloc(layout.size() as isize);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size as isize - layout.size() as isize);
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

/// `readings(n)` and a `Tally` of `tallies` objects, none with a negative
/// `k`.
fn readings_and_tallies(n: i32, tallies: i32) -> Mood {
    let db = readings(n);
    db.execute("CREATE CLASS Tally TUPLE (id Integer, k Integer)").unwrap();
    for i in 0..tallies {
        let fields = vec![("id", Value::Integer(i)), ("k", Value::Integer(i % 100))];
        db.catalog().new_object("Tally", Value::tuple(fields)).unwrap();
    }
    db.collect_stats().unwrap();
    db
}

#[test]
fn a_product_of_three_variables_holds_its_inputs_not_the_product() {
    // 200 x 200 readings meet no tally: the 40 000 pairs stream through
    // the last combination batch by batch, and doubling the tallies (which
    // match nothing) leaves the peak where it was. Holding the pairs at
    // once would be several megabytes.
    let sql = "SELECT r.id, s.id, t.id FROM Reading r, Reading s, Tally t \
               WHERE r.id < 200 AND s.id < 200 AND t.k < 0";
    let peaks = [4_000, 8_000].map(|tallies| {
        let db = readings_and_tallies(2_000, tallies);
        assert!(db.explain(sql).unwrap().contains("PRODUCT"));
        let first = peak_and_answer(&db, sql, 0).0;
        first.max(peak_and_answer(&db, sql, 0).0)
    });
    assert!(peaks[1] < 1_000_000, "peaked at {peaks:?} bytes");
    assert!(peaks[1] - peaks[0] < 16_384, "4 000 -> 8 000 tallies: {peaks:?} bytes");
}

/// Allocations of one execution of `sql`, which answers `rows` rows, after
/// a first one that prepared the plan and compiled its programs.
fn allocations_of(db: &Mood, sql: &str, rows: usize) -> usize {
    peak_and_answer(db, sql, rows);
    let before = ALLOCS.with(Cell::get);
    peak_and_answer(db, sql, rows);
    ALLOCS.with(Cell::get) - before
}

/// [`allocations_of`] a statement that answers nothing.
fn allocations(db: &Mood, sql: &str) -> usize {
    allocations_of(db, sql, 0)
}

#[test]
fn distinct_and_group_by_allocate_by_keys_not_by_objects() {
    // Eight tags over N and 2N objects: the keys are read where the
    // programs lend them, so only a first occurrence (a row, a group)
    // allocates. A projected row per object would add two allocations
    // per added object; a group key copied per object, one.
    let n = 8_000;
    for (sql, rows) in [
        ("SELECT DISTINCT r.tag FROM Reading r", 8),
        ("SELECT DISTINCT r.tag, r.k % 3 FROM Reading r WHERE r.tag <> 'tag9'", 24),
        ("SELECT r.tag, COUNT(*), MAX(r.k) FROM Reading r GROUP BY r.tag", 8),
        ("SELECT COUNT(*), AVG(r.k) FROM Reading r WHERE r.id >= 0", 1),
    ] {
        let counts = [n, 2 * n].map(|n| {
            let db = readings(n);
            db.set_batch_size(1_024);
            allocations_of(&db, sql, rows)
        });
        let added = counts[1].saturating_sub(counts[0]);
        assert!(
            added <= 32,
            "{sql}: {n} -> {} objects: {counts:?} allocations ({added} added)",
            2 * n
        );
    }
}

#[test]
fn a_scanned_object_allocates_nothing() {
    // Every object is decoded (the read set is {id, k}) and rejected: what
    // is left is the scan's own cost per object.
    let sql = "SELECT r.id FROM Reading r WHERE r.k < 0";
    let n = 8_000;
    let counts = [n, 2 * n].map(|n| {
        let db = readings(n);
        db.set_batch_size(1_024);
        allocations(&db, sql)
    });
    // A batch's slots are reused for the next batch's objects: twice the
    // extent costs the same. A fresh tuple per object (its vector and one
    // name per field read) would add 3 allocations per added object.
    let added = counts[1].saturating_sub(counts[0]);
    assert!(
        added < n as usize / 8,
        "{n} -> {} objects: {counts:?} allocations ({added} added)",
        2 * n
    );
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

/// Allocations of one execution of `sql`, which answers `rows` rows.
fn counted(db: &Mood, sql: &str, rows: usize) -> usize {
    let before = ALLOCS.with(Cell::get);
    match db.execute(sql) {
        Ok(Answer::Rows(r)) => assert_eq!(r.len(), rows, "{sql}"),
        other => panic!("{sql}: {other:?}"),
    }
    ALLOCS.with(Cell::get) - before
}

/// `readings(n)` with a unique index on `id`.
fn indexed_readings(n: i32) -> Mood {
    let db = readings(n);
    db.execute("CREATE UNIQUE INDEX ON Reading(id)").unwrap();
    db.collect_stats().unwrap();
    db
}

#[test]
fn a_cached_point_select_allocates_only_its_answer() {
    let db = indexed_readings(4_000);
    let point = |key: i32| format!("SELECT r.id, r.k FROM Reading r WHERE r.id = {key}");
    assert!(db.explain(&point(1_000)).unwrap().contains("INDSEL("));
    // Warm-up: the plan is prepared and cached, its programs compiled, and
    // the session's buffers have grown to the statement.
    for key in 1_000..1_010 {
        counted(&db, &point(key), 1);
    }
    // Every other key runs off the cached plan. Its answer is one row of
    // two integers under two labels: 5 allocations. A B-tree descent and
    // one heap fetch add no more than a few vectors; rebuilding the plan's
    // state per execution would cost some 40 in all.
    let counts: Vec<usize> = (1_010..1_060).map(|key| counted(&db, &point(key), 1)).collect();
    let most = counts.iter().copied().max().unwrap();
    assert!(most <= 16, "a cached point SELECT allocated {most}: {counts:?}");
}

/// `n` parts of about 200 bytes, indexed on `id`: enough pages that an
/// index range of a fraction of a percent beats the scan.
fn indexed_parts(n: i32) -> Mood {
    let db = Mood::in_memory_with_pool(4096);
    db.execute("CREATE CLASS Part TUPLE (id Integer, pad String)").unwrap();
    let pad = Value::string("p".repeat(200));
    for i in 0..n {
        let fields = vec![("id", Value::Integer(i)), ("pad", pad.clone())];
        db.catalog().new_object("Part", Value::tuple(fields)).unwrap();
    }
    db.execute("CREATE UNIQUE INDEX ON Part(id)").unwrap();
    db.collect_stats().unwrap();
    db
}

#[test]
fn an_index_range_allocates_one_row_per_added_object() {
    let db = indexed_parts(16_000);
    let (k, twice) = (40, 80);
    let range = |hi: i32| format!("SELECT p.id FROM Part p WHERE p.id < {hi}");
    assert!(db.explain(&range(twice)).unwrap().contains("INDSEL("));
    // Each text is its own plan (a range bound stays in the text): run
    // each once to prepare it, then count its next execution.
    let count = |hi: i32| {
        counted(&db, &range(hi), hi as usize);
        counted(&db, &range(hi), hi as usize)
    };
    let counts = [count(twice), count(k), count(twice)];
    // The objects decode into recycled slots: an added object costs its
    // output row, and the interval's OID vector may double once more. A
    // fresh tuple per object would add 3 allocations each.
    let added = counts[2].saturating_sub(counts[1]);
    let extra = (twice - k) as usize;
    assert!(
        added <= extra + 2,
        "{k} -> {twice} objects: {counts:?} allocations ({added} added)"
    );
}
