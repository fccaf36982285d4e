//! Per-layer metrics measured from outside the engine: by timing calls
//! into each crate's public functions, one layer at a time.
//!
//! Counter deltas and the traced pass live in `run.rs`; this module holds
//! the list of per-layer metric names, the decomposed replay of each
//! statement shape (`lex → parse → lower → optimize → prepare →
//! run_prepared`) and the micro-probes of the layers below SQL.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mood_core::catalog::Catalog;
use mood_core::datamodel::{decode_value, encode_value};
use mood_core::funcman::{
    self, compile_program, CompileOpts, CompiledPredicate, EvalCtx, Registers,
};
use mood_core::optimizer::optimize;
use mood_core::sql::{binder, parse, token, Executor, Statement};
use mood_core::storage::{
    AccessHint, AccessKind, BTree, BufferPool, DiskMetrics, HeapFile, MemDisk, Oid, PageId,
};
use mood_core::{Mood, OptimizerConfig, Value};

use crate::gen::{Loaded, Rng};
use crate::run::{median, nproc};
use crate::workloads::{Kind, List, Spec};

/// Engine operator kind → its `op.<kind>.{ns,rows,pages}` metric names.
pub const OPERATORS: [(&str, [&str; 3]); 10] = [
    ("BIND", ["op.bind.ns", "op.bind.rows", "op.bind.pages"]),
    (
        "SELECT",
        ["op.select.ns", "op.select.rows", "op.select.pages"],
    ),
    (
        "INDSEL",
        ["op.indsel.ns", "op.indsel.rows", "op.indsel.pages"],
    ),
    (
        "JOIN(FORWARD_TRAVERSAL)",
        [
            "op.join_forward.ns",
            "op.join_forward.rows",
            "op.join_forward.pages",
        ],
    ),
    (
        "JOIN(BACKWARD_TRAVERSAL)",
        [
            "op.join_backward.ns",
            "op.join_backward.rows",
            "op.join_backward.pages",
        ],
    ),
    (
        "JOIN(BINARY_JOIN_INDEX)",
        [
            "op.join_index.ns",
            "op.join_index.rows",
            "op.join_index.pages",
        ],
    ),
    (
        "JOIN(HASH_PARTITION)",
        ["op.join_hash.ns", "op.join_hash.rows", "op.join_hash.pages"],
    ),
    (
        "PROJECT",
        ["op.project.ns", "op.project.rows", "op.project.pages"],
    ),
    ("SORT", ["op.sort.ns", "op.sort.rows", "op.sort.pages"]),
    ("UNION", ["op.union.ns", "op.union.rows", "op.union.pages"]),
];

/// Every per-layer metric `(name, unit)`, as listed in `BENCHMARK.json`.
/// A metric a workload has nothing to say about reads 0.
pub const NAMES: [(&str, &str); 104] = [
    // mood-sql front end
    ("sql.lex_ns", "ns"),
    ("sql.parse_ns", "ns"),
    ("sql.bind_ns", "ns"),
    ("sql.prepare_ns", "ns"),
    ("sql.compile_ns_per_stmt", "ns"),
    ("sql.plan_cache_hit_ratio", "ratio"),
    ("sql.plan_cache_evictions", "count"),
    ("sql.frontend_share", "ratio"),
    // mood-optimizer / mood-cost
    ("optimizer.optimize_ns", "ns"),
    ("cost.misestimation_p50", "ratio"),
    // mood-sql executor / mood-algebra
    ("exec.run_prepared_ns", "ns"),
    ("exec.pages_per_row", "count"),
    ("exec.batches", "count"),
    ("exec.spilled_runs", "count"),
    ("exec.agg_spilled_partitions", "count"),
    ("op.bind.ns", "ns"),
    ("op.bind.rows", "count"),
    ("op.bind.pages", "count"),
    ("op.select.ns", "ns"),
    ("op.select.rows", "count"),
    ("op.select.pages", "count"),
    ("op.indsel.ns", "ns"),
    ("op.indsel.rows", "count"),
    ("op.indsel.pages", "count"),
    ("op.join_forward.ns", "ns"),
    ("op.join_forward.rows", "count"),
    ("op.join_forward.pages", "count"),
    ("op.join_backward.ns", "ns"),
    ("op.join_backward.rows", "count"),
    ("op.join_backward.pages", "count"),
    ("op.join_index.ns", "ns"),
    ("op.join_index.rows", "count"),
    ("op.join_index.pages", "count"),
    ("op.join_hash.ns", "ns"),
    ("op.join_hash.rows", "count"),
    ("op.join_hash.pages", "count"),
    ("op.project.ns", "ns"),
    ("op.project.rows", "count"),
    ("op.project.pages", "count"),
    ("op.sort.ns", "ns"),
    ("op.sort.rows", "count"),
    ("op.sort.pages", "count"),
    ("op.union.ns", "ns"),
    ("op.union.rows", "count"),
    ("op.union.pages", "count"),
    // mood-funcman
    ("funcman.compile_ns", "ns"),
    ("funcman.eval_ns_per_row", "ns"),
    ("funcman.invoke_ns", "ns"),
    // mood-catalog / mood-datamodel
    ("catalog.get_object_ns", "ns"),
    ("catalog.new_object_ns", "ns"),
    ("catalog.update_object_ns", "ns"),
    ("catalog.extent_rows_per_s", "1/s"),
    ("catalog.collect_stats_s", "s"),
    ("datamodel.encode_ns", "ns"),
    ("datamodel.decode_ns", "ns"),
    // mood-storage buffer / heap / btree
    ("buffer.hit_ratio", "ratio"),
    ("buffer.evictions", "count"),
    ("buffer.wait_ns", "ns"),
    ("buffer.hit_ns", "ns"),
    ("buffer.miss_ns", "ns"),
    ("heap.get_ns", "ns"),
    ("heap.insert_ns", "ns"),
    ("heap.scan_rows_per_s", "1/s"),
    ("btree.lookup_ns", "ns"),
    ("btree.insert_ns", "ns"),
    ("btree.pages_per_lookup", "count"),
    // device (engine counters + ProbeDisk)
    ("disk.seq_pages", "count"),
    ("disk.rnd_pages", "count"),
    ("disk.idx_pages", "count"),
    ("disk.read_calls", "count"),
    ("disk.pages_read", "count"),
    ("disk.pages_per_read_call", "count"),
    ("disk.read_busy_ns", "ns"),
    ("disk.read_busy_share", "ratio"),
    ("disk.write_calls", "count"),
    ("disk.syncs", "count"),
    ("disk.sync_busy_ns", "ns"),
    // WAL / checkpoint / recovery (engine counters + ProbeLog)
    ("wal.appends_per_commit", "count"),
    ("wal.bytes_per_commit", "B"),
    ("wal.forces_per_commit", "count"),
    ("wal.append_busy_ns", "ns"),
    ("wal.force_busy_ns", "ns"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("checkpoint.count", "count"),
    ("checkpoint.busy_ns", "ns"),
    ("checkpoint.pages_written", "count"),
    ("checkpoint.max_stall_us", "us"),
    ("recovery.pages_replayed", "count"),
    // latency by statement class (untraced timed pass)
    ("class.stmt_p50_us", "us"),
    ("class.stmt_p95_us", "us"),
    ("class.lookup_p50_us", "us"),
    ("class.lookup_p99_us", "us"),
    ("class.scan_p50_ms", "ms"),
    ("class.scan_p95_ms", "ms"),
    ("class.insert_p50_us", "us"),
    ("class.insert_p99_us", "us"),
    ("class.update_p50_us", "us"),
    ("class.txn_p50_us", "us"),
    ("class.recovery_s", "s"),
    ("class.lost_writes", "count"),
    ("class.failed_frac", "ratio"),
    // harness
    ("trace.overhead_frac", "ratio"),
    ("trace.telescope_err", "ratio"),
    ("gen.oracle_check_s", "s"),
];

/// Median wall time of `f` over `reps` calls, in nanoseconds.
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Nanoseconds per item of one timed run of `f` over `n` items.
fn per_item_ns(n: usize, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// The decomposed replay: one representative text per distinct SELECT
/// shape in the timed list, pushed through the front end one public
/// function at a time. Each layer's figure is the mean over shapes,
/// weighted by how often the shape occurs in the list.
pub fn decomposed(
    db: &Mood,
    spec: &Spec,
    list: &List,
    layers: &mut HashMap<&'static str, f64>,
) -> Result<(), String> {
    // Shape = statement class + fixed-text index; first text seen stands
    // for the shape.
    let mut shapes: Vec<(String, &str, usize, bool)> = Vec::new(); // (key, sql, count, is fixed)
    for s in &list.timed {
        let key = match (&s.op, s.kind()) {
            (crate::workloads::Op::Fixed(i), _) => format!("fixed{i}"),
            (op, Kind::Lookup) => format!("{:?}", std::mem::discriminant(op)),
            _ => continue,
        };
        match shapes.iter_mut().find(|(k, ..)| *k == key) {
            Some(shape) => shape.2 += 1,
            None => shapes.push((key, &s.sql, 1, s.kind() == Kind::Scan)),
        }
    }
    let catalog: &Arc<Catalog> = db.catalog();
    let config = OptimizerConfig::default().with_parallelism(spec.parallelism.min(nproc()));
    let ex = Executor::new(catalog, db.funcman()).with_config(config.clone());
    let mut sums = [0.0f64; 6];
    let mut weight = 0.0;
    let mut misestimates = Vec::new();
    for (_, sql, count, is_fixed) in &shapes {
        let e = |e: mood_core::SqlError| format!("{sql}: {e}");
        let Statement::Select(select) = parse(sql).map_err(e)? else {
            continue;
        };
        let lowered = binder::lower(catalog, &select).map_err(e)?;
        let stats = catalog.stats();
        let Some(prepared) = ex.prepare(&select).map_err(e)? else {
            continue;
        };
        // A set-oriented text costs milliseconds per run; three runs
        // bound the probe's own time.
        let run_reps = if *is_fixed { 3 } else { 15 };
        let shape = [
            time_ns(15, || token::lex(sql)),
            time_ns(15, || parse(sql)),
            time_ns(15, || binder::lower(catalog, &select)),
            time_ns(15, || optimize(&lowered.spec, &stats, &config)),
            time_ns(15, || ex.prepare(&select)),
            time_ns(run_reps, || ex.run_prepared(&prepared)),
        ];
        for (sum, v) in sums.iter_mut().zip(shape) {
            *sum += v * *count as f64;
        }
        weight += *count as f64;
        if *is_fixed {
            // Estimated vs. measured page accesses of the whole plan.
            let report = ex.analyze(&select).map_err(e)?;
            let est: f64 = report
                .terms
                .iter()
                .flat_map(|t| &t.nodes)
                .map(|n| n.est.pages)
                .sum();
            let act = report.total.total_reads() as f64;
            let (est, act) = (est.max(1.0), act.max(1.0));
            misestimates.push((est / act).max(act / est));
        }
    }
    let names = [
        "sql.lex_ns",
        "sql.parse_ns",
        "sql.bind_ns",
        "optimizer.optimize_ns",
        "sql.prepare_ns",
        "exec.run_prepared_ns",
    ];
    for (name, sum) in names.iter().zip(sums) {
        layers.insert(name, if weight > 0.0 { sum / weight } else { 0.0 });
    }
    layers.insert("cost.misestimation_p50", median(&misestimates));
    Ok(())
}

/// Micro-probes of the layers below SQL. The catalog probes run against
/// the episode's own database; buffer, heap and B+-tree are probed on
/// scratch structures over a private `MemDisk`, so what they report is the
/// layer's own cost and the workload's pool is left alone.
pub fn probes(
    db: &Mood,
    loaded: &Loaded,
    seed: u64,
    layers: &mut HashMap<&'static str, f64>,
) -> Result<(), String> {
    let mut rng = Rng::new(seed ^ 0xA5A5);
    let oids = &loaded.vehicle_oids;
    // The write workload has deleted some of the loaded objects by now.
    let sample: Vec<Oid> = (0..500.min(oids.len()))
        .map(|_| oids[rng.below(oids.len())])
        .filter(|oid| db.get_object(*oid).is_ok())
        .collect();
    if sample.is_empty() {
        return Err("catalog probe: none of the sampled objects is readable".into());
    }

    // mood-catalog
    let mut values = Vec::with_capacity(sample.len());
    let get_ns = per_item_ns(sample.len(), || {
        for oid in &sample {
            if let Ok((_, v)) = db.get_object(*oid) {
                values.push((*oid, v));
            }
        }
    });
    layers.insert("catalog.get_object_ns", get_ns);
    let updates: Vec<(Oid, Value)> = values.iter().take(100).cloned().collect();
    let mut failed = false;
    let update_ns = per_item_ns(updates.len(), || {
        for (oid, v) in updates {
            // Rewrites the stored value with itself: the update path runs,
            // the data does not change.
            failed |= db.catalog().update_object(oid, v).is_err();
        }
    });
    if failed {
        return Err("catalog probe: update_object failed".into());
    }
    layers.insert("catalog.update_object_ns", update_ns);
    let mut rows = 0usize;
    let t0 = Instant::now();
    db.catalog()
        .extent_with("Vehicle", AccessHint::Sequential, &mut |_, v| {
            rows += 1;
            black_box(v);
            true
        })
        .map_err(|e| e.to_string())?;
    layers.insert(
        "catalog.extent_rows_per_s",
        rows as f64 / t0.elapsed().as_secs_f64(),
    );

    // mood-datamodel
    let (_, value) = &values[0];
    let bytes = encode_value(value);
    layers.insert(
        "datamodel.encode_ns",
        per_item_ns(2000, || {
            for _ in 0..2000 {
                black_box(encode_value(black_box(value)));
            }
        }),
    );
    layers.insert(
        "datamodel.decode_ns",
        per_item_ns(2000, || {
            for _ in 0..2000 {
                black_box(decode_value(black_box(&bytes)).is_ok());
            }
        }),
    );

    // mood-funcman: compile a two-conjunct predicate, run it over decoded
    // rows, and dispatch the native method.
    let expr =
        funcman::compile("self.weight < 1450 && self.color == 'red'").map_err(|e| e.to_string())?;
    let opts = CompileOpts::sql("v");
    layers.insert(
        "funcman.compile_ns",
        time_ns(50, || compile_program(&expr, &opts)),
    );
    let pred = CompiledPredicate::new(compile_program(&expr, &opts).map_err(|e| e.to_string())?);
    let mut regs = Registers::default();
    let mut hits = 0usize;
    let eval_ns = per_item_ns(values.len() * 20, || {
        for _ in 0..20 {
            for (_, v) in &values {
                let ctx = EvalCtx {
                    self_value: v,
                    args: &[],
                    resolver: None,
                    dispatcher: None,
                };
                hits += pred.matches(&mut regs, &ctx).unwrap_or(false) as usize;
            }
        }
    });
    black_box(hits);
    layers.insert("funcman.eval_ns_per_row", eval_ns);
    let mut invoke_failed = false;
    let invoke_ns = per_item_ns(sample.len(), || {
        for oid in &sample {
            invoke_failed |= db.invoke(*oid, "lbweight", &[]).is_err();
        }
    });
    if invoke_failed {
        return Err("funcman probe: invoking lbweight() failed".into());
    }
    layers.insert("funcman.invoke_ns", invoke_ns);

    storage_probes(layers)
}

/// mood-storage on scratch structures: an 8-frame pool over 64 pages (so a
/// cyclic walk always misses), a heap of 2 000 records and a B+-tree of
/// 5 000 keys.
fn storage_probes(layers: &mut HashMap<&'static str, f64>) -> Result<(), String> {
    let e = |e: mood_core::storage::StorageError| e.to_string();
    let metrics = DiskMetrics::new();
    let small = Arc::new(BufferPool::new(
        Arc::new(MemDisk::new()),
        8,
        metrics.clone(),
    ));
    let file = HeapFile::create(small.clone()).map_err(e)?;
    let record = [7u8; 3000];
    for _ in 0..64 {
        file.insert(&record).map_err(e)?;
    }
    let pages = file.pages().map_err(e)?;
    let touch = |page: u32| {
        small
            .with_page(file.file_id(), PageId(page), AccessKind::Random, |p| {
                p.data[0]
            })
            .map_err(e)
    };
    touch(0)?;
    let mut failed = false;
    layers.insert(
        "buffer.hit_ns",
        per_item_ns(5000, || {
            for _ in 0..5000 {
                failed |= touch(0).is_err();
            }
        }),
    );
    layers.insert(
        "buffer.miss_ns",
        per_item_ns(5 * pages as usize, || {
            for _ in 0..5 {
                for p in 0..pages {
                    failed |= touch(p).is_err();
                }
            }
        }),
    );

    let pool = Arc::new(BufferPool::new(
        Arc::new(MemDisk::new()),
        1024,
        metrics.clone(),
    ));
    let heap = HeapFile::create(pool.clone()).map_err(e)?;
    let record = [9u8; 200];
    let mut oids = Vec::with_capacity(2000);
    layers.insert(
        "heap.insert_ns",
        per_item_ns(2000, || {
            for _ in 0..2000 {
                match heap.insert(&record) {
                    Ok(oid) => oids.push(oid),
                    Err(_) => failed = true,
                }
            }
        }),
    );
    layers.insert(
        "heap.get_ns",
        per_item_ns(oids.len(), || {
            for oid in &oids {
                failed |= heap.get(*oid).is_err();
            }
        }),
    );
    let mut rows = 0usize;
    let t0 = Instant::now();
    heap.scan_with(|_, bytes| {
        rows += 1;
        black_box(bytes);
        true
    })
    .map_err(e)?;
    layers.insert(
        "heap.scan_rows_per_s",
        rows as f64 / t0.elapsed().as_secs_f64(),
    );

    let tree = BTree::create(pool, true).map_err(e)?;
    let key = |i: u32| (i.wrapping_mul(2_654_435_761)).to_be_bytes();
    layers.insert(
        "btree.insert_ns",
        per_item_ns(5000, || {
            for i in 0..5000u32 {
                failed |= tree.insert(&key(i), oids[i as usize % oids.len()]).is_err();
            }
        }),
    );
    let before = metrics.snapshot();
    layers.insert(
        "btree.lookup_ns",
        per_item_ns(5000, || {
            for i in 0..5000u32 {
                failed |= !matches!(tree.lookup(&key(i)), Ok(found) if found.len() == 1);
            }
        }),
    );
    // The engine's page counters are physical reads; buffer hits + misses
    // are the page accesses a descent makes.
    let d = metrics.snapshot().delta(&before);
    layers.insert(
        "btree.pages_per_lookup",
        (d.buffer_hits + d.buffer_misses) as f64 / 5000.0,
    );
    if failed {
        return Err("storage probe: an operation on the scratch structures failed".into());
    }
    Ok(())
}
