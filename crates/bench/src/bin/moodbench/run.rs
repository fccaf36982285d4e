//! The runner: episodes of set-up → untimed warm-up → timed pass → (crash
//! and recovery) → (traced pass and layer probes), repeated until the
//! timed passes add up to the requested seconds; every metric is the
//! median of its per-episode values.
//!
//! One client, closed loop: the next statement is sent when the previous
//! one has answered. Each statement is timed around `Mood::execute` only;
//! its answer is checked after the clock stops.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mood_core::storage::{
    EngineMetrics, FileDisk, FileLog, MemDisk, MemLog, StorageManager, PAGE_SIZE,
};
use mood_core::{Answer, Mood};

use crate::gen::Model;
use crate::layers;
use crate::probe::{DiskCounts, LogCounts, ProbeDisk, ProbeLog};
use crate::trace::{self, Collector, EngineSink, Span};
use crate::workloads::{self, Backend, Kind, List, Op, Spec, Stmt};

/// End-to-end metrics `(name, unit)`, as listed in `BENCHMARK.json`. Every
/// workload reports every one of them, and none can be zero.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("stmt_per_s", "1/s"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The cold workload's device: charged per read call and per page read.
const SEEK: Duration = Duration::from_micros(100);
const TRANSFER: Duration = Duration::from_micros(10);

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Write the traced pass's spans here as JSON lines.
    pub spans_out: Option<PathBuf>,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub episodes: usize,
    /// Pages the database occupied at the end of an episode, and the pool's
    /// frames: the working set relative to the engine's own cache.
    pub pages: u64,
    pub frames: usize,
    /// `(name, unit, value)`: the end-to-end set, or the per-layer set when
    /// tracing.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Where everything this process writes goes: a directory of its own under
/// the working directory (the benchmark may not write outside its
/// checkout), removed by whoever asked for it.
pub fn scratch_root() -> PathBuf {
    Path::new(".moodbench_tmp").join(std::process::id().to_string())
}

pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = scratch_root().join(format!(
        "{tag}-{}",
        SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    // Retried: a concurrent `remove_scratch` may take the parent away
    // between the two steps of `create_dir_all`.
    let made = (0..3).find_map(|_| std::fs::create_dir_all(&dir).ok());
    made.expect("create scratch directory");
    dir
}

/// Remove a directory made by [`scratch_dir`], and the directories above
/// it once they are empty.
pub fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir(scratch_root());
    let _ = std::fs::remove_dir(".moodbench_tmp");
}

/// One database instance with the probes under it.
pub struct Engine {
    pub db: Mood,
    pub disk: Option<Arc<ProbeDisk>>,
    pub log: Option<Arc<ProbeLog>>,
    pub spans: Arc<Collector>,
}

impl Engine {
    fn open(spec: &Spec, dir: &Path, spans: Arc<Collector>) -> Result<Engine, String> {
        let e = |e: mood_core::storage::StorageError| e.to_string();
        let (disk, log) = match spec.backend {
            Backend::Memory => {
                return Ok(Engine {
                    db: Mood::in_memory_with_pool(spec.frames),
                    disk: None,
                    log: None,
                    spans,
                })
            }
            Backend::ColdMem => (
                ProbeDisk::new(
                    Box::new(MemDisk::new()),
                    Some((SEEK, TRANSFER)),
                    false,
                    spans.clone(),
                ),
                ProbeLog::new(Box::new(MemLog::new()), None, spans.clone()),
            ),
            Backend::File => {
                let wal = dir.join("wal.log");
                (
                    ProbeDisk::new(
                        Box::new(FileDisk::open(dir.join("pages")).map_err(e)?),
                        None,
                        true,
                        spans.clone(),
                    ),
                    ProbeLog::new(
                        Box::new(FileLog::open(&wal).map_err(e)?),
                        Some(wal),
                        spans.clone(),
                    ),
                )
            }
        };
        let (disk, log) = (Arc::new(disk), Arc::new(log));
        let sm = StorageManager::with_parts(disk.clone(), Box::new(log.clone()), spec.frames)
            .map_err(e)?;
        let db = Mood::open_with_storage(Arc::new(sm), dir).map_err(|e| e.to_string())?;
        Ok(Engine {
            db,
            disk: Some(disk),
            log: Some(log),
            spans,
        })
    }

    fn disk_counts(&self) -> DiskCounts {
        self.disk.as_ref().map(|d| d.counts()).unwrap_or_default()
    }

    fn log_counts(&self) -> LogCounts {
        self.log.as_ref().map(|l| l.counts()).unwrap_or_default()
    }

    /// Bytes the database occupies: every page of every file, plus the log.
    fn stored_bytes(&self) -> Result<u64, String> {
        let sm = self.db.storage();
        let disk = sm.pool().disk();
        let mut pages = 0u64;
        for f in disk.files() {
            pages += disk.page_count(f).map_err(|e| e.to_string())? as u64;
        }
        Ok(pages * PAGE_SIZE as u64 + sm.wal().size().map_err(|e| e.to_string())? as u64)
    }
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
pub fn percentile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1] as f64
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// What executing a list produced.
#[derive(Default)]
pub struct Pass {
    /// `(class, latency ns)` per unit, in order.
    pub lats: Vec<(Kind, u64)>,
    pub failed: u64,
    /// Rows returned or affected.
    pub rows: u64,
    /// Commits issued (autocommit writes and explicit transactions).
    pub commits: u64,
    /// Logical bytes of the rows written.
    pub user_bytes_written: u64,
    pub check_ns: u64,
    /// Disk page writes that happened inside checkpoints.
    pub checkpoint_writes: u64,
}

impl Pass {
    pub fn total_ns(&self) -> u64 {
        self.lats.iter().map(|(_, ns)| ns).sum()
    }

    pub fn all(&self) -> Vec<u64> {
        self.lats.iter().map(|(_, ns)| *ns).collect()
    }

    pub fn of(&self, kind: Kind) -> Vec<u64> {
        self.lats
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, ns)| *ns)
            .collect()
    }
}

fn answer_rows(a: &mood_core::Result<Answer>) -> u64 {
    match a {
        Ok(Answer::Rows(r)) => r.rows.len() as u64,
        Ok(Answer::Done { affected }) => *affected as u64,
        Ok(Answer::Created(_)) => 1,
        _ => 0,
    }
}

/// Execute `stmts` in order against `engine`, timing each unit around
/// `Mood::execute` and checking it against `model` once its clock has
/// stopped. With `traced`, each unit is wrapped in a root span.
fn run_list(engine: &Engine, model: &mut Model, list: &List, stmts: &[Stmt], traced: bool) -> Pass {
    let db = &engine.db;
    let mut pass = Pass::default();
    let row_bytes = |model: &Model, id: i32| {
        model
            .vehicles
            .get(id as usize)
            .map_or(0, crate::gen::row_bytes) as u64
    };
    for (no, stmt) in stmts.iter().enumerate() {
        let span_start = engine.spans.now_ns();
        let mut ns = 0u64;
        let mut ok = true;
        let timed_exec = |sql: &str, ns: &mut u64| {
            let t0 = Instant::now();
            let a = db.execute(sql);
            *ns += t0.elapsed().as_nanos() as u64;
            a
        };
        // (statement, answer) pairs to check once the clock has stopped.
        let mut to_check: Vec<(&Stmt, mood_core::Result<Answer>)> = Vec::new();
        match &stmt.op {
            Op::Checkpoint => {
                let writes_before = engine.disk_counts().write_calls;
                let t0 = Instant::now();
                ok = db.checkpoint().is_ok();
                ns = t0.elapsed().as_nanos() as u64;
                pass.checkpoint_writes += engine.disk_counts().write_calls - writes_before;
            }
            Op::Txn(inner) => {
                ok &= timed_exec("BEGIN", &mut ns).is_ok();
                for s in inner {
                    let a = timed_exec(&s.sql, &mut ns);
                    to_check.push((s, a));
                }
                ok &= timed_exec("COMMIT", &mut ns).is_ok();
                pass.commits += 1;
            }
            _ => {
                let a = timed_exec(&stmt.sql, &mut ns);
                to_check.push((stmt, a));
                if matches!(stmt.kind(), Kind::Insert | Kind::Update) {
                    pass.commits += 1;
                }
            }
        }
        if traced {
            engine
                .spans
                .close_stmt(no as u64, span_start, engine.spans.now_ns());
        }
        let t_check = Instant::now();
        for (s, a) in &to_check {
            pass.rows += answer_rows(a);
            // Logical bytes of the row written: a deleted row is measured
            // before the model forgets it, the others once it holds them.
            if let Op::Delete(id) = s.op {
                pass.user_bytes_written += row_bytes(model, id);
            }
            ok &= workloads::check(model, &list.fixed, s, a);
            if let Op::Insert { id, .. } | Op::Update { id, .. } = s.op {
                pass.user_bytes_written += row_bytes(model, id);
            }
        }
        pass.check_ns += t_check.elapsed().as_nanos() as u64;
        pass.failed += !ok as u64;
        pass.lats.push((stmt.kind(), ns));
    }
    pass
}

/// One episode's numbers.
struct Episode {
    setup_s: f64,
    pass: Pass,
    space_amp: f64,
    stored_bytes: u64,
    /// Extra failures outside the timed pass (warm-up, recovery check).
    other_failed: u64,
    other_attempted: u64,
    layers: HashMap<&'static str, f64>,
    spans: Vec<Span>,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One episode in a scratch directory of its own. `probe` adds the traced
/// pass and the layer probes after the timed pass.
fn episode(spec: &Spec, opts: &Opts, probe: bool) -> Result<Episode, String> {
    let dir = scratch_dir(&format!("{}-s{}", spec.name, opts.seed));
    let out = episode_in(spec, opts, probe, &dir);
    remove_scratch(&dir);
    out
}

fn episode_in(spec: &Spec, opts: &Opts, probe: bool, dir: &Path) -> Result<Episode, String> {
    let err = |e: mood_core::MoodError| e.to_string();
    let mut layers: HashMap<&'static str, f64> = HashMap::new();

    // ---- set-up: generate, load, index, statistics, warm-up -------------
    let t_setup = Instant::now();
    let mut model = Model::generate(opts.seed, spec.scale);
    let spans = Collector::new();
    let engine = Engine::open(spec, dir, spans.clone())?;
    let loaded = model.load(&engine.db)?;
    if spec.backend != Backend::Memory {
        engine.db.checkpoint().map_err(err)?;
    }
    if spec.parallelism > 1 {
        engine.db.set_parallelism(spec.parallelism.min(nproc()));
    }
    let list = spec.list(&model, opts.seed);
    if let Some(disk) = &engine.disk {
        disk.arm();
    }
    let mut other_failed = 0u64;
    let mut other_attempted = 0u64;
    // Each fixed text three times, so lazy compilation (threshold 2) has
    // fired before anything is timed.
    for (i, f) in list.fixed.iter().enumerate() {
        for _ in 0..3 {
            let a = engine.db.execute(&f.sql);
            let probe = Stmt {
                sql: String::new(),
                op: Op::Fixed(i),
            };
            other_attempted += 1;
            other_failed += !workloads::check(&mut model, &list.fixed, &probe, &a) as u64;
        }
    }
    let warm = run_list(&engine, &mut model, &list, &list.warm, false);
    other_attempted += warm.lats.len() as u64;
    other_failed += warm.failed;
    let setup_s = t_setup.elapsed().as_secs_f64();
    layers.insert(
        "catalog.new_object_ns",
        loaded.load_s * 1e9 / loaded.objects as f64,
    );
    layers.insert("catalog.collect_stats_s", loaded.stats_s);

    // ---- the timed pass --------------------------------------------------
    let before = (
        engine.db.engine_metrics(),
        engine.disk_counts(),
        engine.log_counts(),
    );
    let pass = run_list(&engine, &mut model, &list, &list.timed, false);
    let after = (
        engine.db.engine_metrics(),
        engine.disk_counts(),
        engine.log_counts(),
    );
    counter_layers(&mut layers, &pass, &before, &after);
    class_layers(&mut layers, &pass);

    // ---- the traced pass and the layer probes ----------------------------
    let mut traced_spans = Vec::new();
    if probe {
        engine
            .db
            .tracer()
            .subscribe(Arc::new(EngineSink(spans.clone())));
        spans.set_enabled(true);
        let tail = run_list(&engine, &mut model, &list, &list.tail, true);
        spans.set_enabled(false);
        other_attempted += tail.lats.len() as u64;
        other_failed += tail.failed;
        traced_spans = spans.take();
        trace_layers(&mut layers, &pass, &tail, &traced_spans);
        layers::decomposed(&engine.db, spec, &list, &mut layers)?;
        layers::probes(&engine.db, &loaded, opts.seed, &mut layers)?;
    }

    // ---- crash, recovery, durability check -------------------------------
    let mut engine = engine;
    if spec.backend == Backend::File {
        for sql in workloads::doomed_txn(&model) {
            engine.db.execute(&sql).map_err(err)?;
        }
        let Engine { db, disk, log, .. } = engine;
        drop(db);
        // What was not synced or forced is gone.
        disk.expect("file backend")
            .crash()
            .map_err(|e| e.to_string())?;
        log.expect("file backend")
            .crash()
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        engine = Engine::open(spec, dir, spans.clone())?;
        let probe = Stmt {
            sql: "SELECT v.id, v.weight FROM Vehicle v WHERE v.id = 0".into(),
            op: Op::Point(0),
        };
        let first = engine.db.execute(&probe.sql);
        layers.insert("class.recovery_s", t0.elapsed().as_secs_f64());
        other_attempted += 2;
        other_failed += !workloads::check(&mut model, &list.fixed, &probe, &first) as u64;
        let lost = workloads::lost_writes(&model, &engine.db.execute(workloads::SURVIVORS_SQL));
        other_failed += (lost > 0) as u64;
        layers.insert("class.lost_writes", lost as f64);
        layers.insert(
            "recovery.pages_replayed",
            engine.db.engine_metrics().wal.recovered as f64,
        );
        engine.db.checkpoint().map_err(err)?;
    }
    let stored_bytes = engine.stored_bytes()?;
    let space_amp = stored_bytes as f64 / model.user_bytes() as f64;
    let failed = pass.failed + other_failed;
    let attempted = pass.lats.len() as u64 + other_attempted;
    layers.insert("class.failed_frac", failed as f64 / attempted as f64);
    layers.insert(
        "gen.oracle_check_s",
        (pass.check_ns + warm.check_ns) as f64 / 1e9,
    );
    Ok(Episode {
        setup_s,
        pass,
        space_amp,
        stored_bytes,
        other_failed,
        other_attempted,
        layers,
        spans: traced_spans,
    })
}

type Snapshot = (EngineMetrics, DiskCounts, LogCounts);

/// `num / den`, or 0 when the workload never exercised the denominator.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counter deltas over the timed pass: the engine's exported registry and
/// the probes under it.
fn counter_layers(
    layers: &mut HashMap<&'static str, f64>,
    pass: &Pass,
    before: &Snapshot,
    after: &Snapshot,
) {
    let (m0, m1) = (&before.0, &after.0);
    let d = m1.disk.delta(&m0.disk);
    let disk = after.1.since(&before.1);
    let log = after.2.since(&before.2);
    let pc = (&m0.plan_cache, &m1.plan_cache);
    let (hits, misses) = (pc.1.hits - pc.0.hits, pc.1.misses - pc.0.misses);
    layers.insert(
        "sql.plan_cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    layers.insert(
        "sql.plan_cache_evictions",
        (pc.1.evictions - pc.0.evictions) as f64,
    );
    layers.insert(
        "sql.compile_ns_per_stmt",
        ratio(
            (m1.compile_ns - m0.compile_ns) as f64,
            pass.lats.len() as f64,
        ),
    );
    // Logical page accesses (resident or not) per row returned or
    // affected: a keyed UPDATE that walks the whole extent shows here.
    let accesses = d.buffer_hits + d.buffer_misses;
    layers.insert(
        "exec.pages_per_row",
        ratio(accesses as f64, pass.rows as f64),
    );
    layers.insert("exec.batches", (m1.batch.count - m0.batch.count) as f64);
    layers.insert(
        "exec.spilled_runs",
        (m1.batch.spilled_runs - m0.batch.spilled_runs) as f64,
    );
    layers.insert(
        "exec.agg_spilled_partitions",
        (m1.agg_spilled_partitions - m0.agg_spilled_partitions) as f64,
    );
    for (kind, name) in layers::OPERATORS {
        let get = |m: &EngineMetrics| {
            m.operators
                .iter()
                .find(|(k, _)| k == kind)
                .map(|(_, t)| *t)
                .unwrap_or_default()
        };
        let (a, b) = (get(m0), get(m1));
        layers.insert(name[0], (b.nanos - a.nanos) as f64);
        layers.insert(name[1], (b.rows - a.rows) as f64);
        layers.insert(name[2], (b.pages - a.pages) as f64);
    }
    layers.insert(
        "buffer.hit_ratio",
        ratio(
            d.buffer_hits as f64,
            (d.buffer_hits + d.buffer_misses) as f64,
        ),
    );
    layers.insert("buffer.evictions", d.buffer_evictions as f64);
    layers.insert(
        "buffer.wait_ns",
        (m1.buffer_wait_ns - m0.buffer_wait_ns) as f64,
    );
    layers.insert("disk.seq_pages", d.seq_pages as f64);
    layers.insert("disk.rnd_pages", d.rnd_pages as f64);
    layers.insert("disk.idx_pages", d.idx_pages as f64);
    layers.insert("disk.read_calls", disk.read_calls as f64);
    layers.insert("disk.pages_read", disk.pages_read as f64);
    layers.insert(
        "disk.pages_per_read_call",
        ratio(disk.pages_read as f64, disk.read_calls as f64),
    );
    layers.insert("disk.read_busy_ns", disk.read_busy_ns as f64);
    layers.insert(
        "disk.read_busy_share",
        ratio(disk.read_busy_ns as f64, pass.total_ns() as f64),
    );
    layers.insert("disk.write_calls", disk.write_calls as f64);
    layers.insert("disk.syncs", disk.syncs as f64);
    layers.insert("disk.sync_busy_ns", disk.sync_busy_ns as f64);
    let commits = pass.commits as f64;
    layers.insert(
        "wal.appends_per_commit",
        ratio((m1.wal.appends - m0.wal.appends) as f64, commits),
    );
    layers.insert("wal.bytes_per_commit", ratio(log.bytes as f64, commits));
    layers.insert(
        "wal.forces_per_commit",
        ratio((m1.wal.forces - m0.wal.forces) as f64, commits),
    );
    layers.insert("wal.append_busy_ns", log.append_busy_ns as f64);
    layers.insert("wal.force_busy_ns", log.force_busy_ns as f64);
    layers.insert(
        "wal.bytes_per_user_byte",
        ratio(log.bytes as f64, pass.user_bytes_written as f64),
    );
    let checkpoints = pass.of(Kind::Checkpoint);
    layers.insert("checkpoint.count", checkpoints.len() as f64);
    layers.insert("checkpoint.busy_ns", checkpoints.iter().sum::<u64>() as f64);
    layers.insert("checkpoint.pages_written", pass.checkpoint_writes as f64);
    layers.insert(
        "checkpoint.max_stall_us",
        checkpoints.iter().max().map_or(0.0, |ns| *ns as f64 / 1e3),
    );
    // Filled in by the crash step of the file-backed workload.
    for name in [
        "recovery.pages_replayed",
        "class.recovery_s",
        "class.lost_writes",
    ] {
        layers.insert(name, 0.0);
    }
}

/// Latency by statement class, from the untraced timed pass.
fn class_layers(layers: &mut HashMap<&'static str, f64>, pass: &Pass) {
    let us = |kind, q| percentile(&pass.of(kind), q) / 1e3;
    layers.insert("class.stmt_p50_us", percentile(&pass.all(), 0.50) / 1e3);
    layers.insert("class.stmt_p95_us", percentile(&pass.all(), 0.95) / 1e3);
    layers.insert("class.lookup_p50_us", us(Kind::Lookup, 0.50));
    layers.insert("class.lookup_p99_us", us(Kind::Lookup, 0.99));
    layers.insert("class.scan_p50_ms", us(Kind::Scan, 0.50) / 1e3);
    layers.insert("class.scan_p95_ms", us(Kind::Scan, 0.95) / 1e3);
    layers.insert("class.insert_p50_us", us(Kind::Insert, 0.50));
    layers.insert("class.insert_p99_us", us(Kind::Insert, 0.99));
    layers.insert("class.update_p50_us", us(Kind::Update, 0.50));
    layers.insert("class.txn_p50_us", us(Kind::Txn, 0.50));
}

/// What the traced pass adds: where a statement's time went between the
/// front end and the executor, and what tracing itself cost.
fn trace_layers(
    layers: &mut HashMap<&'static str, f64>,
    timed: &Pass,
    tail: &Pass,
    spans: &[Span],
) {
    // Only statements that reach the executor have an `execute` span;
    // their root spans are the denominator.
    let has_execute: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "execute")
        .map(|s| s.stmt)
        .collect();
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent == 0 && has_execute.contains(&s.stmt))
        .map(Span::dur)
        .sum();
    let execute: u64 = spans
        .iter()
        .filter(|s| s.name == "execute")
        .map(Span::dur)
        .sum();
    layers.insert(
        "sql.frontend_share",
        ratio(roots.saturating_sub(execute) as f64, roots as f64),
    );
    layers.insert("trace.telescope_err", trace::telescope_error(spans));
    // Same statement mix, traced vs. untraced, compared class by class so
    // a tail that drew more of an expensive class does not read as overhead.
    let mut traced_ns = 0.0;
    let mut untraced_ns = 0.0;
    for kind in [
        Kind::Lookup,
        Kind::Scan,
        Kind::Insert,
        Kind::Update,
        Kind::Txn,
    ] {
        let (t, u) = (tail.of(kind), timed.of(kind));
        if t.is_empty() || u.is_empty() {
            continue;
        }
        traced_ns += t.iter().sum::<u64>() as f64;
        untraced_ns += u.iter().sum::<u64>() as f64 / u.len() as f64 * t.len() as f64;
    }
    layers.insert(
        "trace.overhead_frac",
        ratio(traced_ns - untraced_ns, untraced_ns),
    );
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Traced episodes per run: the traced pass and the layer probes cost
/// about as much again as the timed pass, so only the first few episodes
/// carry them; the rest fill `--seconds` with timed passes alone.
const PROBED_EPISODES: usize = 3;

/// Run `spec` until the timed passes add up to `opts.seconds` (at least
/// three episodes at full size, so `setup_s` is a median of several
/// set-ups), and reduce every metric to the median over episodes.
pub fn run(spec: &Spec, opts: &Opts) -> Result<Outcome, String> {
    let min_episodes = if opts.smoke { 1 } else { 3 };
    let mut episodes: Vec<Episode> = Vec::new();
    let mut measured = 0.0;
    while episodes.len() < min_episodes || measured < opts.seconds {
        let ep = episode(spec, opts, opts.trace && episodes.len() < PROBED_EPISODES)?;
        measured += ep.pass.total_ns() as f64 / 1e9;
        episodes.push(ep);
    }
    if let (Some(path), Some(ep)) = (&opts.spans_out, episodes.first()) {
        let lines: String = ep
            .spans
            .iter()
            .map(|s| format!("{}\n", s.to_json()))
            .collect();
        std::fs::write(path, lines).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // Per-layer metrics come from the probed episodes only: an episode with
    // a traced tail ends in another state (more writes, another distance
    // to the last checkpoint) than one without.
    let sample = match opts.trace {
        true => &episodes[..episodes.len().min(PROBED_EPISODES)],
        false => &episodes[..],
    };
    let over = |f: &dyn Fn(&Episode) -> f64| median(&sample.iter().map(f).collect::<Vec<_>>());
    let metrics = if opts.trace {
        layers::NAMES
            .iter()
            .map(|(name, unit)| {
                let value = over(&|ep| ep.layers.get(name).copied().unwrap_or(0.0));
                (*name, *unit, value)
            })
            .collect()
    } else {
        let values = [
            over(&|ep| ep.setup_s),
            over(&|ep| ep.pass.lats.len() as f64 / (ep.pass.total_ns() as f64 / 1e9)),
            over(&|ep| ep.space_amp),
            peak_rss_mb(),
        ];
        E2E.iter()
            .zip(values)
            .map(|((n, u), v)| (*n, *u, v))
            .collect()
    };
    Ok(Outcome {
        attempted: episodes
            .iter()
            .map(|ep| ep.pass.lats.len() as u64 + ep.other_attempted)
            .sum(),
        failed: episodes
            .iter()
            .map(|ep| ep.pass.failed + ep.other_failed)
            .sum(),
        episodes: episodes.len(),
        pages: episodes
            .last()
            .map_or(0, |ep| ep.stored_bytes / PAGE_SIZE as u64),
        frames: spec.frames,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn smoke(name: &str, seed: u64, trace: bool) -> Outcome {
        let spec = workloads::spec(name, true).expect("known workload");
        let opts = Opts {
            seed,
            seconds: 0.0,
            trace,
            smoke: true,
            spans_out: None,
        };
        run(&spec, &opts).unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    fn value(o: &Outcome, metric: &str) -> f64 {
        o.metrics
            .iter()
            .find(|(n, ..)| *n == metric)
            .unwrap_or_else(|| panic!("{metric} not reported"))
            .2
    }

    /// With one client and no parallel workers, every count the engine or
    /// the probes make is a function of the seed.
    #[test]
    fn counters_repeat_exactly_on_the_single_threaded_workloads() {
        for name in ["lookup_hot", "analytic_scan", "durable_write"] {
            let (a, b) = (smoke(name, 5, true), smoke(name, 5, true));
            for ((metric, unit, va), (_, _, vb)) in a.metrics.iter().zip(&b.metrics) {
                if *unit == "count" {
                    assert_eq!(
                        va, vb,
                        "{name}: {metric} differs between two runs of one seed"
                    );
                }
            }
            assert_eq!(a.attempted, b.attempted, "{name}");
            assert!(
                value(&a, "exec.pages_per_row") > 0.0,
                "{name}: counters are read"
            );
        }
    }

    #[test]
    fn no_statement_fails_and_no_write_is_lost() {
        // A traced episode runs everything an untraced one does, and more.
        let mut last = None;
        for name in WORKLOADS {
            let o = smoke(name, 11, true);
            assert_eq!(o.failed, 0, "{name}");
            assert!(o.attempted > 0);
            assert!(
                o.metrics.iter().all(|(_, _, v)| v.is_finite()),
                "{name}: a metric is not a number"
            );
            last = Some(o);
        }
        let o = last.expect("durable_write runs last");
        assert_eq!(value(&o, "class.lost_writes"), 0.0);
        assert!(
            value(&o, "recovery.pages_replayed") > 0.0,
            "the crash left work to redo"
        );
        assert!(
            value(&o, "wal.forces_per_commit") >= 1.0,
            "every commit is forced"
        );
        assert!(value(&o, "checkpoint.count") >= 1.0);
    }

    #[test]
    fn end_to_end_metrics_are_never_zero() {
        for name in WORKLOADS {
            let o = smoke(name, 2, false);
            assert_eq!(o.failed, 0, "{name}");
            for (metric, _, v) in &o.metrics {
                assert!(*v > 0.0, "{name}: {metric} = {v}");
            }
        }
    }

    #[test]
    fn traced_pass_telescopes_and_predicted_bypasses_hold() {
        assert!(value(&smoke("traverse_cold", 3, true), "disk.read_calls") > 0.0);
        // Read workloads never touch the log or checkpoint.
        for name in ["lookup_hot", "traverse_cold", "analytic_scan"] {
            let o = smoke(name, 3, true);
            for metric in [
                "wal.appends_per_commit",
                "wal.bytes_per_commit",
                "checkpoint.count",
                "disk.syncs",
            ] {
                assert_eq!(value(&o, metric), 0.0, "{name}: {metric}");
            }
            assert!(value(&o, "trace.telescope_err") < 0.01, "{name}");
        }
    }

    /// The names this binary prints are the names `BENCHMARK.json` lists.
    #[test]
    fn printed_names_match_benchmark_json() {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let path = manifest
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.exists())
            .expect("BENCHMARK.json above the manifest directory");
        let bench = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&E2E));
        assert_eq!(names("per_layer"), own(&layers::NAMES));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let well_formed = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for (name, _) in names("end_to_end").iter().chain(&names("per_layer")) {
            assert!(well_formed(name), "{name}");
        }
        assert!(workloads.iter().all(|w| well_formed(w)));
        assert!(names("per_layer").len() <= 128);
        assert!(names("end_to_end")
            .iter()
            .any(|(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn scratch_directories_are_removed() {
        // A seed no other test uses marks this run's episode directories.
        let seed = 424_242;
        let before = SCRATCH_SEQ.load(Ordering::Relaxed);
        smoke("durable_write", seed, false);
        assert!(
            SCRATCH_SEQ.load(Ordering::Relaxed) > before,
            "an episode directory was made"
        );
        let left: Vec<String> = std::fs::read_dir(scratch_root())
            .map(|d| {
                d.flatten()
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        let mine = format!("durable_write-s{seed}-");
        assert!(
            !left.iter().any(|n| n.starts_with(&mine)),
            "left behind: {left:?}"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
