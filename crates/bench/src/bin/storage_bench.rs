//! `storage_bench` — storage hot-path throughput at parallelism 1/2/4/8,
//! written to `BENCH_storage.json`.
//!
//! ```sh
//! cargo run --release -p mood-bench --bin storage_bench            # full
//! cargo run --release -p mood-bench --bin storage_bench -- --smoke # CI
//! cargo run -p mood-bench --bin storage_bench -- --out path.json
//! ```
//!
//! Three workloads over one shared sharded buffer pool:
//!
//! * **scan** — chunk-parallel full heap scan (`scan_range_with`, so each
//!   worker gets readahead batches on its own page range). Its rows report
//!   the device read calls, and at parallelism 1 those must be one per
//!   readahead window, `⌈pages/window⌉`;
//! * **point-get** — random record fetches by OID;
//! * **join** — OID-chase: fetch a left record, decode the reference it
//!   stores, fetch the referenced right record (the forward-traversal join's
//!   access pattern).
//!
//! Plus **oid_chase**, the adaptive-clustering workload on its own pool
//! sized well below its dense target extent: the same set of chases runs
//! from an unclustered left heap (scrambled target order — every probe a
//! random page) and from a clustered one (left records rewritten in
//! target order, exactly the layout `CLUSTER` produces — probes walk the
//! target extent sequentially and stay on hot pages). Gated: clustered
//! must beat unclustered ≥2× at parallelism 8 on full runs.
//!
//! And **index_range**, one thread over a resident pool with no injected
//! latency — the CPU cost of the index access path itself: entries per
//! second through `BTree::range_scan` for a 48-entry and a 10 000-entry
//! interval, and objects per second fetching an interval's OIDs through
//! `HeapFile::get_batch_with` against `get` called one by one. Reported,
//! not gated.
//!
//! Page reads go through a latency-injecting in-memory disk (a seek delay
//! per positioning plus a transfer delay per page — the SEQCOST/RNDCOST
//! shape). That models the regime the paper's cost model assumes, where
//! page I/O dominates: threads scale by *overlapping I/O waits*, which the
//! old single-mutex pool made impossible because the lock was held across
//! every disk read. Results therefore measure pool concurrency, not CPU
//! count — meaningful even on a single-core runner.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mood_bench::LatencyDisk;
use mood_storage::exec::run_chunked;
use mood_storage::{BTree, BufferPool, DiskMetrics, FileId, HeapFile, MemDisk, Oid};

struct Sizes {
    pool_frames: usize,
    scan_records: u32,
    right_records: u32,
    point_gets: usize,
    chase_targets: u32,
    chase_pool_frames: usize,
    smoke: bool,
}

const PARALLELISMS: [usize; 4] = [1, 2, 4, 8];

/// One measurement: parallelism, elapsed seconds, records per second,
/// per-operation latency quantiles in microseconds (the operation is one
/// get, one chased pair, or — for `scan` — one readahead window of pages),
/// and the device read calls it made.
struct Row {
    par: usize,
    secs: f64,
    per_second: f64,
    p50_us: f64,
    p99_us: f64,
    read_calls: u64,
}

/// Nearest-rank percentile over raw per-op latencies (sorts in place).
fn percentile_us(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64 / 1e3
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_storage.json".to_string());
    let sizes = if smoke {
        Sizes {
            pool_frames: 64,
            scan_records: 96,
            right_records: 64,
            point_gets: 64,
            chase_targets: 512,
            chase_pool_frames: 16,
            smoke: true,
        }
    } else {
        Sizes {
            pool_frames: 1024,
            scan_records: 2048,
            right_records: 1536,
            point_gets: 1024,
            chase_targets: 8192,
            chase_pool_frames: 128,
            smoke: false,
        }
    };

    let disk = Arc::new(LatencyDisk::new(
        Duration::from_micros(if smoke { 120 } else { 300 }),
        Duration::from_micros(20),
        true,
    ));
    let metrics = DiskMetrics::new();
    let pool = Arc::new(BufferPool::new(
        disk.clone(),
        sizes.pool_frames,
        metrics.clone(),
    ));
    println!(
        "pool: {} frames, {} shards, readahead window {}",
        pool.capacity(),
        pool.shard_count(),
        pool.readahead_window()
    );

    // ------------------------------------------------------------------
    // Data: a fat scan heap (~1 record/page), a fat right heap, and a thin
    // left heap whose records each store one right-record OID.
    // ------------------------------------------------------------------
    let scan_heap = HeapFile::create(pool.clone()).unwrap();
    for i in 0..sizes.scan_records {
        scan_heap.insert(&fat_record(i)).unwrap();
    }
    let right_heap = HeapFile::create(pool.clone()).unwrap();
    let right_oids: Vec<Oid> = (0..sizes.right_records)
        .map(|i| right_heap.insert(&fat_record(i)).unwrap())
        .collect();
    let left_heap = HeapFile::create(pool.clone()).unwrap();
    let left_oids: Vec<Oid> = (0..sizes.right_records)
        .map(|i| {
            // Scramble so the chase is random access on the right side.
            let target = right_oids[(i as usize * 7919) % right_oids.len()];
            left_heap.insert(&target.to_bytes()).unwrap()
        })
        .collect();
    let point_oids: Vec<Oid> = (0..sizes.point_gets)
        .map(|i| right_oids[(i * 104_729) % right_oids.len()])
        .collect();

    let cold = |files: &[FileId]| {
        for f in files {
            pool.discard_file(*f);
        }
    };

    // ------------------------------------------------------------------
    // Workloads. Each runs cold at every parallelism so the figures are
    // comparable; throughput is records (or probes) per second.
    // ------------------------------------------------------------------
    let mut results: Vec<(&str, Vec<Row>)> = Vec::new();

    // scan: chunk-parallel over the page range. The timed operation is one
    // readahead window of pages: a worker's chunk split at window
    // boundaries issues exactly the prefetch batches the unsplit scan would.
    let scan_pages: Vec<u32> = (0..scan_heap.pages().unwrap()).collect();
    let window = pool.readahead_window().max(1) as usize;
    let mut scan_rows = Vec::new();
    for par in PARALLELISMS {
        cold(&[scan_heap.file_id()]);
        let (calls0, _) = disk.read_counts();
        let t0 = Instant::now();
        let per_window = run_chunked(par, &scan_pages, |_, chunk| {
            let mut out = Vec::with_capacity(chunk.len().div_ceil(window));
            for pages in chunk.chunks(window) {
                let op0 = Instant::now();
                let mut n = 0u64;
                scan_heap
                    .scan_range_with(pages[0], pages[pages.len() - 1] + 1, |_, _| {
                        n += 1;
                        true
                    })
                    .map_err(|e| e.to_string())?;
                out.push((n, op0.elapsed().as_nanos() as u64));
            }
            Ok::<_, String>(out)
        })
        .unwrap();
        let secs = t0.elapsed().as_secs_f64();
        let read_calls = disk.read_counts().0 - calls0;
        let rows: u64 = per_window.iter().map(|(n, _)| n).sum();
        assert_eq!(rows, sizes.scan_records as u64);
        if par == 1 {
            // One device call per readahead window, and nothing else.
            assert_eq!(read_calls, scan_pages.len().div_ceil(window) as u64);
        }
        let mut lat: Vec<u64> = per_window.iter().map(|(_, ns)| *ns).collect();
        scan_rows.push(Row {
            par,
            secs,
            per_second: rows as f64 / secs,
            p50_us: percentile_us(&mut lat, 0.50),
            p99_us: percentile_us(&mut lat, 0.99),
            read_calls,
        });
    }
    results.push(("scan", scan_rows));

    // point-get: random fetches by OID, timed per get.
    let mut get_rows = Vec::new();
    for par in PARALLELISMS {
        cold(&[right_heap.file_id()]);
        let (calls0, _) = disk.read_counts();
        let t0 = Instant::now();
        let mut lat: Vec<u64> = run_chunked(par, &point_oids, |_, chunk| {
            let mut lat = Vec::with_capacity(chunk.len());
            for oid in chunk {
                let op0 = Instant::now();
                right_heap.get(*oid).map_err(|e| e.to_string())?;
                lat.push(op0.elapsed().as_nanos() as u64);
            }
            Ok::<_, String>(lat)
        })
        .unwrap();
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(lat.len(), point_oids.len());
        get_rows.push(Row {
            par,
            secs,
            per_second: point_oids.len() as f64 / secs,
            p50_us: percentile_us(&mut lat, 0.50),
            p99_us: percentile_us(&mut lat, 0.99),
            read_calls: disk.read_counts().0 - calls0,
        });
    }
    results.push(("point_get", get_rows));

    // join: left fetch -> decode stored reference -> right fetch, timed
    // per pair.
    let mut join_rows = Vec::new();
    for par in PARALLELISMS {
        cold(&[left_heap.file_id(), right_heap.file_id()]);
        let (calls0, _) = disk.read_counts();
        let t0 = Instant::now();
        let mut lat: Vec<u64> = run_chunked(par, &left_oids, |_, chunk| {
            let mut lat = Vec::with_capacity(chunk.len());
            for oid in chunk {
                let op0 = Instant::now();
                let bytes = left_heap.get(*oid).map_err(|e| e.to_string())?;
                let target = Oid::from_bytes(&bytes).ok_or("bad ref")?;
                right_heap.get(target).map_err(|e| e.to_string())?;
                lat.push(op0.elapsed().as_nanos() as u64);
            }
            Ok::<_, String>(lat)
        })
        .unwrap();
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(lat.len(), left_oids.len());
        join_rows.push(Row {
            par,
            secs,
            per_second: left_oids.len() as f64 / secs,
            p50_us: percentile_us(&mut lat, 0.50),
            p99_us: percentile_us(&mut lat, 0.99),
            read_calls: disk.read_counts().0 - calls0,
        });
    }
    results.push(("join", join_rows));

    // ------------------------------------------------------------------
    // oid_chase: the clustering experiment. A dense target heap several
    // times larger than its (dedicated) pool, chased once per target
    // through a permutation — from a left heap laid out in scrambled
    // order (unclustered: every probe faults a random page) and from one
    // laid out in target order (clustered: probes walk the target extent
    // sequentially, so each target page faults once and stays hot).
    // ------------------------------------------------------------------
    let chase_disk = Arc::new(LatencyDisk::new(
        Duration::from_micros(if smoke { 120 } else { 300 }),
        Duration::from_micros(20),
        true,
    ));
    let chase_metrics = DiskMetrics::new();
    let chase_pool = Arc::new(BufferPool::new(
        chase_disk.clone(),
        sizes.chase_pool_frames,
        chase_metrics,
    ));
    let target_heap = HeapFile::create(chase_pool.clone()).unwrap();
    let target_oids: Vec<Oid> = (0..sizes.chase_targets)
        .map(|i| target_heap.insert(&mid_record(i)).unwrap())
        .collect();
    // One chase per target, in permuted (scrambled) order.
    let scrambled: Vec<Oid> = (0..target_oids.len())
        .map(|i| target_oids[(i * 7919) % target_oids.len()])
        .collect();
    let mut in_target_order = scrambled.clone();
    in_target_order.sort();
    let mut chase_variants: Vec<(&str, HeapFile, Vec<Oid>)> = Vec::new();
    for (name, targets) in [
        ("oid_chase_unclustered", &scrambled),
        ("oid_chase_clustered", &in_target_order),
    ] {
        let heap = HeapFile::create(chase_pool.clone()).unwrap();
        let lefts: Vec<Oid> = targets
            .iter()
            .map(|t| heap.insert(&t.to_bytes()).unwrap())
            .collect();
        chase_variants.push((name, heap, lefts));
    }
    for (name, heap, lefts) in &chase_variants {
        let name: &str = name;
        let mut rows = Vec::new();
        for par in PARALLELISMS {
            chase_pool.discard_file(heap.file_id());
            chase_pool.discard_file(target_heap.file_id());
            let (calls0, _) = chase_disk.read_counts();
            let t0 = Instant::now();
            let mut lat: Vec<u64> = run_chunked(par, lefts, |_, chunk| {
                let mut lat = Vec::with_capacity(chunk.len());
                for oid in chunk {
                    let op0 = Instant::now();
                    let bytes = heap.get(*oid).map_err(|e| e.to_string())?;
                    let target = Oid::from_bytes(&bytes).ok_or("bad ref")?;
                    target_heap.get(target).map_err(|e| e.to_string())?;
                    lat.push(op0.elapsed().as_nanos() as u64);
                }
                Ok::<_, String>(lat)
            })
            .unwrap();
            let secs = t0.elapsed().as_secs_f64();
            assert_eq!(lat.len(), lefts.len());
            rows.push(Row {
                par,
                secs,
                per_second: lefts.len() as f64 / secs,
                p50_us: percentile_us(&mut lat, 0.50),
                p99_us: percentile_us(&mut lat, 0.99),
                read_calls: chase_disk.read_counts().0 - calls0,
            });
        }
        results.push((name, rows));
    }

    let index_range = index_range_rows(smoke);

    // ------------------------------------------------------------------
    // Report.
    // ------------------------------------------------------------------
    let snap = metrics.snapshot();
    let accesses = snap.buffer_hits + snap.buffer_misses;
    let hit_ratio = if accesses == 0 {
        0.0
    } else {
        snap.buffer_hits as f64 / accesses as f64
    };
    let wait_ms = pool.wait_ns() as f64 / 1e6;

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"storage\",\n");
    json.push_str(&format!("  \"smoke\": {},\n", sizes.smoke));
    json.push_str(&format!("  \"pool_frames\": {},\n", pool.capacity()));
    json.push_str(&format!("  \"shards\": {},\n", pool.shard_count()));
    json.push_str(&format!(
        "  \"readahead_window\": {},\n",
        pool.readahead_window()
    ));
    json.push_str("  \"workloads\": {\n");
    let mut ok = true;
    for (wi, (name, rows)) in results.iter().enumerate() {
        json.push_str(&format!("    \"{name}\": {{\n"));
        for r in rows {
            json.push_str(&format!(
                "      \"p{}\": {{\"seconds\": {:.6}, \"per_second\": {:.1}, \
                 \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"read_calls\": {}}},\n",
                r.par, r.secs, r.per_second, r.p50_us, r.p99_us, r.read_calls
            ));
        }
        let speedup = rows[3].per_second / rows[0].per_second;
        json.push_str(&format!("      \"speedup_p8_over_p1\": {speedup:.2}\n"));
        json.push_str(if wi + 1 < results.len() {
            "    },\n"
        } else {
            "    }\n"
        });
        println!(
            "{name:>9}: p1 {:8.0}/s  p2 {:8.0}/s  p4 {:8.0}/s  p8 {:8.0}/s  speedup {speedup:.2}x  \
             p8 op p50 {:.0}us p99 {:.0}us  p1 read calls {}",
            rows[0].per_second,
            rows[1].per_second,
            rows[2].per_second,
            rows[3].per_second,
            rows[3].p50_us,
            rows[3].p99_us,
            rows[0].read_calls
        );
        if matches!(*name, "scan" | "join") && !sizes.smoke && speedup < 2.0 {
            ok = false;
        }
    }
    json.push_str("  },\n");
    json.push_str("  \"index_range\": {\n");
    for (i, (name, per_second)) in index_range.iter().enumerate() {
        let comma = if i + 1 < index_range.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {per_second:.0}{comma}\n"));
        println!("index_range {name}: {per_second:.0}");
    }
    json.push_str("  },\n");
    // The clustering gate: clustered over unclustered throughput at
    // parallelism 8. Full runs demand the real 2x; smoke runs (tiny
    // extents, shared runners) assert half of it.
    let chase_p8 = |n: &str| {
        results
            .iter()
            .find(|(w, _)| *w == n)
            .map(|(_, rows)| rows[3].per_second)
            .expect("chase workload present")
    };
    let chase_ratio = chase_p8("oid_chase_clustered") / chase_p8("oid_chase_unclustered");
    let chase_floor = if sizes.smoke { 1.0 } else { 2.0 };
    json.push_str(&format!(
        "  \"oid_chase_clustered_over_unclustered_p8\": {chase_ratio:.2},\n"
    ));
    json.push_str(&format!("  \"buffer_hit_ratio\": {hit_ratio:.4},\n"));
    json.push_str(&format!("  \"pool_wait_ms\": {wait_ms:.3}\n"));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).unwrap();
    println!(
        "oid_chase clustered/unclustered at p8: {chase_ratio:.2}x (floor {chase_floor}x)"
    );
    if chase_ratio < chase_floor {
        ok = false;
    }
    println!("hit ratio {hit_ratio:.4}, pool wait {wait_ms:.3} ms");
    println!("wrote {out_path}");
    if !ok {
        println!(
            "WARNING: a gate failed (scan/join p8 speedup >= 2x on full runs, \
             oid_chase clustered/unclustered >= {chase_floor}x)"
        );
        std::process::exit(1);
    }
}

/// The index access path warm and single-threaded: `(row, items per
/// second)`. Keys are in heap order (a clustered index), nine records a
/// page; each measurement repeats until it has run for a fifth of a second.
fn index_range_rows(smoke: bool) -> Vec<(String, f64)> {
    let (entries, long) = if smoke {
        (4_000u64, 1_000u64)
    } else {
        (40_000, 10_000)
    };
    let pool = Arc::new(BufferPool::new(
        Arc::new(MemDisk::new()),
        8192,
        DiskMetrics::new(),
    ));
    let heap = HeapFile::create(pool.clone()).unwrap();
    let tree = BTree::create(pool, true).unwrap();
    for i in 0..entries {
        let oid = heap.insert(&mid_record(i as u32)).unwrap();
        tree.insert(&i.to_be_bytes(), oid).unwrap();
    }
    // Items per second of `pass` (which returns how many it handled).
    let rate = |pass: &mut dyn FnMut(u64) -> u64| {
        let (t0, mut items, mut round) = (Instant::now(), 0u64, 0u64);
        while t0.elapsed() < Duration::from_millis(200) {
            items += pass(round);
            round += 1;
        }
        items as f64 / t0.elapsed().as_secs_f64()
    };
    let mut oids = Vec::new();
    let mut rows = Vec::new();
    for len in [48, long] {
        let per_second = rate(&mut |round| {
            let lo = (round * 7919) % (entries - len);
            oids.clear();
            tree.range_scan(
                Some(&lo.to_be_bytes()),
                true,
                Some(&(lo + len).to_be_bytes()),
                false,
                |_, oid| {
                    oids.push(oid);
                    true
                },
            )
            .unwrap();
            assert_eq!(oids.len() as u64, len);
            len
        });
        rows.push((format!("walk_{len}_entries_per_s"), per_second));
    }
    // `oids` now holds a long interval's, in key order; the fetch sorts.
    oids.sort();
    let mut bytes = 0usize;
    let batched = rate(&mut |_| {
        heap.get_batch_with(&oids, |_, record| {
            bytes += std::hint::black_box(record).map_or(0, <[u8]>::len);
            true
        })
        .unwrap();
        oids.len() as u64
    });
    let one_by_one = rate(&mut |_| {
        for oid in &oids {
            bytes += std::hint::black_box(heap.get(*oid).unwrap()).len();
        }
        oids.len() as u64
    });
    assert!(bytes > 0);
    rows.push(("fetch_batched_objects_per_s".to_string(), batched));
    rows.push(("fetch_one_by_one_objects_per_s".to_string(), one_by_one));
    rows
}

/// ~3 KB payload so each record fills most of a page (1 record/page-ish):
/// page counts, not record counts, drive the I/O numbers.
fn fat_record(i: u32) -> Vec<u8> {
    let mut v = vec![0u8; 3000];
    v[..4].copy_from_slice(&i.to_le_bytes());
    v
}

/// ~430 B payload, so several records share a page: the oid_chase
/// workload needs page sharing for clustered probe order to pay off.
fn mid_record(i: u32) -> Vec<u8> {
    let mut v = vec![0u8; 430];
    v[..4].copy_from_slice(&i.to_le_bytes());
    v
}
