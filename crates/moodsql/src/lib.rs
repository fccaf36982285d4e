//! # mood-sql — MOODSQL
//!
//! The SQL-like object-oriented query language of Section 3, executed
//! through the Section 7/8 optimizer: lexer ([`token`]), parser
//! ([`parser`]), binder ([`binder`], including the explicit-join → path
//! rewrite), plan executor ([`exec`]) and the Section 9.4 cursor mechanism
//! ([`cursor`]). [`Session`] is the statement-level entry point the kernel
//! facade (mood-core) wraps.

pub mod analyze;
pub mod ast;
pub mod binder;
pub(crate) mod compiled;
pub mod cursor;
pub mod error;
pub mod exec;
pub mod parser;
pub(crate) mod readset;
pub(crate) mod shape;
pub(crate) mod tail;
pub mod token;

pub use analyze::{
    misestimation, AnalyzeReport, NodeActual, NodeReport, StageActual, TermReport,
};
pub use ast::{
    CmpOp, CreateClass, Expr, FromItem, Lit, MethodDecl, PathRef, SelectStmt, ShowFormat,
    Statement,
};
pub use binder::{classify, lower, Lowered, StmtKind};
pub use cursor::Cursor;
pub use error::{Result, SqlError};
pub use exec::{BoundObj, Executor, PreparedQuery, QueryResult, Row};
pub use parser::{parse, parse_expr};

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mood_catalog::{Catalog, ClassBuilder, MethodSig};
use mood_datamodel::Value;
use mood_funcman::FunctionManager;
use mood_optimizer::OptimizerConfig;
use mood_storage::{Metric, MetricsRegistry};

use compiled::{PreparedExpr, RowView, Scratch};
use shape::Shape;

/// Plan cache shard count: keeps lock contention low when a session is
/// shared behind a facade mutex and queried from many threads in turn.
const PLAN_CACHE_SHARDS: usize = 8;
/// Default total cached plans across all shards (see
/// [`Session::set_plan_cache_capacity`]).
pub const PLAN_CACHE_CAPACITY: usize = 128;

/// A bounded, sharded LRU of prepared plans keyed by statement shape
/// ([`Shape::key`]): statements that differ only in layout or in the
/// literal operands of `=` share one entry.
///
/// Entries carry the catalog epoch they were built under ([`PreparedQuery::
/// epoch`]); a lookup under a different epoch removes the entry (counted as
/// an invalidation) and reports a miss, so no stale plan ever executes.
/// DML does not bump the epoch — plans reference schema, statistics and
/// indexes, never row contents — while DDL, index builds and statistics
/// refreshes all do.
struct PlanCache {
    shards: Vec<Mutex<CacheShard>>,
    per_shard: usize,
    capacity: usize,
}

#[derive(Default)]
struct CacheShard {
    map: HashMap<String, CacheEntry>,
    /// Monotonic use counter; entry with the smallest stamp is the LRU.
    tick: u64,
}

struct CacheEntry {
    prepared: Arc<PreparedQuery>,
    last_used: u64,
}

impl PlanCache {
    fn new(capacity: usize) -> PlanCache {
        let capacity = capacity.max(1);
        PlanCache {
            shards: (0..PLAN_CACHE_SHARDS)
                .map(|_| Mutex::new(CacheShard::default()))
                .collect(),
            per_shard: capacity.div_ceil(PLAN_CACHE_SHARDS),
            capacity,
        }
    }

    fn shard(&self, key: &str) -> &Mutex<CacheShard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// A valid entry under the current epoch, or `None`. A stale entry is
    /// removed here and counted as an invalidation (the caller then counts
    /// the re-prepare as a miss, so invalidations ⊆ misses).
    fn get(&self, key: &str, epoch: u64, registry: &MetricsRegistry) -> Option<Arc<PreparedQuery>> {
        let mut shard = self.shard(key).lock().expect("plan cache lock");
        shard.tick += 1;
        let tick = shard.tick;
        let stale = match shard.map.get_mut(key) {
            Some(entry) if entry.prepared.epoch == epoch => {
                entry.last_used = tick;
                registry.add(Metric::PlanCacheHits, 1);
                return Some(entry.prepared.clone());
            }
            Some(_) => true,
            None => false,
        };
        if stale {
            shard.map.remove(key);
            registry.add(Metric::PlanCacheInvalidations, 1);
        }
        None
    }

    fn insert(&self, key: String, pq: Arc<PreparedQuery>, registry: &MetricsRegistry) {
        let mut shard = self.shard(&key).lock().expect("plan cache lock");
        shard.tick += 1;
        let tick = shard.tick;
        if shard.map.len() >= self.per_shard && !shard.map.contains_key(&key) {
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                shard.map.remove(&victim);
                registry.add(Metric::PlanCacheEvictions, 1);
            }
        }
        shard.map.insert(
            key,
            CacheEntry {
                prepared: pq,
                last_used: tick,
            },
        );
    }

    fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("plan cache lock");
            shard.map.clear();
        }
    }
}

/// What a statement produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// SELECT results.
    Rows(QueryResult),
    /// EXPLAIN output (plan text in the paper's notation).
    Plan(String),
    /// A created object's reference.
    Created(Value),
    /// DDL/DML acknowledgements with an affected-count where meaningful.
    Done { affected: usize },
}

/// A MOODSQL session: parse + dispatch statements against a catalog and a
/// function manager.
pub struct Session {
    catalog: Arc<Catalog>,
    funcman: Arc<FunctionManager>,
    config: OptimizerConfig,
    tracer: mood_trace::Tracer,
    last_trace: Vec<String>,
    /// The open explicit transaction (`BEGIN` … `COMMIT`/`ROLLBACK`), if
    /// any. Bare DML statements outside one autocommit.
    txn: Option<mood_storage::TxnId>,
    /// Prepared plans keyed by statement shape (see [`PlanCache`]).
    plan_cache: PlanCache,
    plan_cache_enabled: bool,
    /// Did the last executed statement run off a cached plan? Set by the
    /// cache-hit paths, consumed by the per-statement stats recorder.
    last_stmt_cached: bool,
    /// Statements at or above this wall-clock elapsed are captured in the
    /// registry's slow-query log (with their EXPLAIN ANALYZE tree where the
    /// shape allows). `None` (the default) disables capture.
    slow_query_threshold: Option<Duration>,
}

impl Session {
    pub fn new(catalog: Arc<Catalog>, funcman: Arc<FunctionManager>) -> Session {
        catalog
            .storage()
            .registry()
            .set(Metric::PlanCacheCapacity, PLAN_CACHE_CAPACITY as u64);
        Session {
            catalog,
            funcman,
            config: OptimizerConfig::default(),
            tracer: mood_trace::Tracer::new(),
            last_trace: Vec::new(),
            txn: None,
            plan_cache: PlanCache::new(PLAN_CACHE_CAPACITY),
            plan_cache_enabled: true,
            last_stmt_cached: false,
            slow_query_threshold: None,
        }
    }

    /// Capture statements at or above `threshold` in the engine's
    /// slow-query log; `None` disables capture (the default).
    pub fn set_slow_query_threshold(&mut self, threshold: Option<Duration>) {
        self.slow_query_threshold = threshold;
    }

    /// The current slow-query capture threshold.
    pub fn slow_query_threshold(&self) -> Option<Duration> {
        self.slow_query_threshold
    }

    pub fn with_config(mut self, config: OptimizerConfig) -> Session {
        self.set_config(config);
        self
    }

    /// Replace the optimizer configuration in place — unlike rebuilding the
    /// session, this keeps an open transaction (and the last trace) intact.
    /// Cached plans were built under the old configuration, so the plan
    /// cache is cleared (quietly: a config change is not an epoch
    /// invalidation).
    pub fn set_config(&mut self, config: OptimizerConfig) {
        self.config = config;
        self.plan_cache.clear();
    }

    /// Set the worker count used by the chunk-parallel execution path.
    ///
    /// `1` (the default) runs every operator sequentially; values above 1
    /// split row batches across scoped worker threads. Results are
    /// byte-identical either way.
    pub fn set_parallelism(&mut self, parallelism: usize) {
        self.config = self.config.clone().with_parallelism(parallelism);
        self.plan_cache.clear();
    }

    /// Toggle the session plan cache. Disabling clears it, so re-enabling
    /// starts cold.
    pub fn set_plan_cache_enabled(&mut self, on: bool) {
        self.plan_cache_enabled = on;
        if !on {
            self.plan_cache.clear();
        }
    }

    /// Set the rows-per-operator-call batch size of the vectorized
    /// execution paths (clamped to ≥ 1).
    pub fn set_batch_size(&mut self, batch_size: usize) {
        self.config.execution = self.config.execution.with_batch_size(batch_size);
        self.plan_cache.clear();
    }

    /// Set the in-memory row budget above which ORDER BY sorts externally
    /// through spilled runs (clamped to ≥ 2).
    pub fn set_sort_budget(&mut self, sort_budget: usize) {
        self.config.execution = self.config.execution.with_sort_budget(sort_budget);
        self.plan_cache.clear();
    }

    /// Resize the plan cache. The cache is rebuilt empty (entries sized
    /// for the old shards would skew LRU accounting) and the registry's
    /// `plan_cache.capacity` gauge updated.
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        self.plan_cache = PlanCache::new(capacity);
        self.catalog
            .storage()
            .registry()
            .set(Metric::PlanCacheCapacity, self.plan_cache.capacity as u64);
    }

    /// The plan cache's total capacity across shards.
    pub fn plan_cache_capacity(&self) -> usize {
        self.plan_cache.capacity
    }

    /// Drop every cached plan (counters untouched).
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear();
    }

    /// The currently configured worker count.
    pub fn parallelism(&self) -> usize {
        self.config.execution.parallelism
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Execution-stage trace of the last SELECT (Figure 7.1/7.2 tests).
    pub fn last_trace(&self) -> &[String] {
        &self.last_trace
    }

    /// The session's query-lifecycle tracer. Attach subscribers (e.g.
    /// [`mood_trace::RingBuffer`]) to observe parse/bind/optimize/execute
    /// and per-operator spans.
    pub fn tracer(&self) -> &mood_trace::Tracer {
        &self.tracer
    }

    /// Parse and execute one statement. SELECT and EXPLAIN ANALYZE go
    /// through the session plan cache (keyed by the statement's shape, see
    /// `shape.rs`) unless it is disabled; everything else takes the ordinary
    /// statement path. The text is scanned once, here; the cache lookup,
    /// the parse on a miss and the stats below all work from that scan.
    ///
    /// Every successful non-introspection statement is folded into the
    /// engine's per-statement stats (`SHOW STATEMENTS`), aggregated by
    /// shape: wall-clock elapsed, result/affected rows, page accesses and
    /// whether a cached plan served it. Statements at or over the session's
    /// slow-query threshold are additionally captured in the registry's
    /// slow-query ring — with the text as written, values included — and
    /// their `EXPLAIN ANALYZE` tree.
    pub fn execute(&mut self, sql: &str) -> Result<Answer> {
        let shape = Shape::scan(sql)?;
        // Introspection must not perturb the stats it reports.
        if shape.is_show() {
            return self.execute_inner(sql, &shape);
        }
        let registry = self.catalog.storage().registry().clone();
        let before = registry.disk_metrics().snapshot();
        self.last_stmt_cached = false;
        let t0 = Instant::now();
        let result = self.execute_inner(sql, &shape);
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        if let Ok(answer) = &result {
            let after = registry.disk_metrics().snapshot();
            let pages = (after.seq_pages + after.rnd_pages + after.idx_pages + after.writes)
                .saturating_sub(
                    before.seq_pages + before.rnd_pages + before.idx_pages + before.writes,
                );
            let rows = match answer {
                Answer::Rows(r) => r.rows.len() as u64,
                Answer::Done { affected } => *affected as u64,
                Answer::Created(_) => 1,
                Answer::Plan(_) => 0,
            };
            registry.record_statement(&shape.key, elapsed_ns, rows, pages, self.last_stmt_cached);
            if let Some(threshold) = self.slow_query_threshold {
                if elapsed_ns >= threshold.as_nanos() as u64 {
                    let plan = self.capture_slow_plan(sql, answer);
                    registry.record_slow_query(
                        sql.trim().to_string(),
                        elapsed_ns,
                        rows,
                        pages,
                        plan,
                    );
                }
            }
        }
        result
    }

    /// The `EXPLAIN ANALYZE` tree for a slow statement. EXPLAIN-shaped
    /// answers already carry their plan; plain SELECTs are re-run under
    /// analyze (a deliberate observer cost, paid only past the threshold).
    /// DML shapes record their scalars only.
    fn capture_slow_plan(&mut self, sql: &str, answer: &Answer) -> Option<String> {
        if let Answer::Plan(p) = answer {
            return Some(p.clone());
        }
        if let Ok(Statement::Select(s)) = parse(sql) {
            let ex = Executor::new(&self.catalog, &self.funcman).with_config(self.config.clone());
            return ex.analyze(&s).ok().map(|r| r.render());
        }
        None
    }

    fn execute_inner(&mut self, sql: &str, shape: &Shape) -> Result<Answer> {
        if self.plan_cache_enabled && shape.is_select() {
            if let Some(answer) = self.run_cached(shape)? {
                return Ok(answer);
            }
        }
        let stmt = {
            let _span = self
                .tracer
                .span("parse", self.catalog.storage().metrics());
            parse(sql)?
        };
        self.execute_statement(&stmt)
    }

    /// Run a SELECT / EXPLAIN ANALYZE off the plan cached for its shape,
    /// with the statement's own literals bound as the parameters. A hit
    /// needs no AST: nothing is lexed, parsed, bound or optimized. On a
    /// miss the *shape text* is parsed, so the plan that gets prepared and
    /// inserted serves every statement of the shape.
    ///
    /// Counter discipline: hits + misses = lookups — every SELECT shape has
    /// a prepared form, so every one is cacheable; a stale entry adds an
    /// invalidation to its miss.
    ///
    /// `None` hands the statement back to the literal path: its shape text
    /// does not parse, and the text as written produces the error to show.
    fn run_cached(&mut self, shape: &Shape) -> Result<Option<Answer>> {
        let registry = self.catalog.storage().registry().clone();
        let ex = Executor::new(&self.catalog, &self.funcman)
            .with_config(self.config.clone())
            .with_tracer(self.tracer.clone())
            .with_params(&shape.params);
        let cached = self
            .plan_cache
            .get(&shape.key, self.catalog.epoch(), &registry);
        self.last_stmt_cached = cached.is_some();
        let answer = match cached {
            Some(pq) if shape.analyze => Answer::Plan(ex.analyze_prepared(&pq)?.render()),
            Some(pq) => Answer::Rows(ex.run_prepared(&pq)?),
            None => {
                let parsed = {
                    let _span = self
                        .tracer
                        .span("parse", self.catalog.storage().metrics());
                    parse(shape.text())
                };
                let Ok(Statement::Select(s)) = parsed else {
                    return Ok(None);
                };
                let pq = Arc::new(ex.prepare_query(&s)?);
                registry.add(Metric::PlanCacheMisses, 1);
                self.plan_cache
                    .insert(shape.key.clone(), pq.clone(), &registry);
                if shape.analyze {
                    // A cold EXPLAIN ANALYZE reports the fresh path —
                    // including the PLAN stage's page accounting — while
                    // the prepared plan stays cached for the next execution.
                    Answer::Plan(ex.analyze(&s)?.render())
                } else {
                    Answer::Rows(ex.run_prepared(&pq)?)
                }
            }
        };
        self.last_trace = ex.trace();
        Ok(Some(answer))
    }

    /// Execute a SELECT and wrap the result in a cursor.
    pub fn query(&mut self, sql: &str) -> Result<Cursor> {
        match self.execute(sql)? {
            Answer::Rows(r) => Ok(Cursor::new(r)),
            other => Err(SqlError::Exec(format!("not a query: {other:?}"))),
        }
    }

    /// Is an explicit transaction currently open on this session?
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Execute one statement under the transaction protocol:
    ///
    /// * `BEGIN`/`COMMIT`/`ROLLBACK` drive the storage manager's single
    ///   writer slot directly;
    /// * inside an explicit transaction, each DML statement runs under a
    ///   statement-level savepoint — a mid-statement error undoes just that
    ///   statement, the transaction survives;
    /// * outside one, DML and DDL autocommit (the statement is its own
    ///   transaction), and a failed DDL additionally reloads the catalog's
    ///   in-memory schema from the rolled-back pages;
    /// * DDL inside an explicit transaction is refused — it autocommits by
    ///   design, and page rollback alone cannot unwind the catalog's
    ///   in-memory maps mid-transaction;
    /// * pure reads bypass the machinery entirely.
    pub fn execute_statement(&mut self, stmt: &Statement) -> Result<Answer> {
        match stmt {
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(SqlError::Exec("transaction already in progress".into()));
                }
                self.txn = Some(self.catalog.storage().txn_begin());
                Ok(Answer::Done { affected: 0 })
            }
            Statement::Commit => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| SqlError::Exec("no transaction in progress".into()))?;
                self.catalog
                    .storage()
                    .txn_commit(txn)
                    .map_err(|e| SqlError::Exec(format!("commit failed (rolled back): {e}")))?;
                Ok(Answer::Done { affected: 0 })
            }
            Statement::Rollback => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| SqlError::Exec("no transaction in progress".into()))?;
                self.catalog
                    .storage()
                    .txn_rollback(txn)
                    .map_err(|e| SqlError::Exec(format!("rollback failed: {e}")))?;
                Ok(Answer::Done { affected: 0 })
            }
            _ => match binder::classify(stmt) {
                StmtKind::Query => self.run_statement(stmt),
                kind => {
                    let sm = self.catalog.storage().clone();
                    // A degraded engine (persistent WAL or write-back
                    // failure) refuses all writes until healed.
                    sm.health()
                        .check_writable()
                        .map_err(|e| SqlError::Exec(e.to_string()))?;
                    if self.txn.is_some() {
                        if kind == StmtKind::Ddl {
                            return Err(SqlError::Exec(
                                "DDL statements autocommit and are not allowed inside an \
                                 explicit transaction"
                                    .into(),
                            ));
                        }
                        let owner = self.txn.unwrap();
                        sm.stmt_begin();
                        match Self::lock_dml_class(&sm, owner, stmt)
                            .and_then(|()| self.run_statement(stmt))
                        {
                            Ok(a) => {
                                sm.stmt_end();
                                Ok(a)
                            }
                            Err(e) => {
                                let _ = sm.stmt_rollback();
                                Err(e)
                            }
                        }
                    } else {
                        let txn = sm.txn_begin();
                        match Self::lock_dml_class(&sm, txn, stmt)
                            .and_then(|()| self.run_statement(stmt))
                        {
                            Ok(a) => match sm.txn_commit(txn) {
                                Ok(()) => {
                                    // Files a reorganization replaced are
                                    // only dropped once the new layout is
                                    // durably committed — dropping earlier
                                    // would break old-or-new crash
                                    // atomicity (drops are not WAL-logged).
                                    if kind == StmtKind::Ddl {
                                        self.catalog.reap_pending_drops();
                                    }
                                    Ok(a)
                                }
                                Err(e) => {
                                    self.resync_catalog(kind);
                                    Err(SqlError::Exec(format!(
                                        "commit failed (statement rolled back): {e}"
                                    )))
                                }
                            },
                            Err(e) => {
                                let _ = sm.txn_rollback(txn);
                                self.resync_catalog(kind);
                                Err(e)
                            }
                        }
                    }
                }
            },
        }
    }

    /// Take a class-level exclusive lock before a DML statement touches
    /// pages. Lock owners are transaction ids, so locks persist across the
    /// statements of an explicit transaction and are released by the storage
    /// manager at commit/rollback. A deadlock detected here surfaces as an
    /// error on the victim's statement — inside an explicit transaction that
    /// rolls back just the statement (savepoint), and the transaction
    /// survives to retry or commit its earlier work.
    fn lock_dml_class(
        sm: &mood_storage::StorageManager,
        owner: mood_storage::OwnerId,
        stmt: &Statement,
    ) -> Result<()> {
        let class = match stmt {
            Statement::NewObject { class, .. }
            | Statement::Delete { class, .. }
            | Statement::Update { class, .. } => class,
            _ => return Ok(()),
        };
        sm.locks()
            .acquire(
                owner,
                &format!("class:{class}"),
                mood_storage::LockMode::Exclusive,
            )
            .map_err(|e| SqlError::Exec(e.to_string()))
    }

    /// After a rolled-back DDL autocommit, the pages are back to their old
    /// contents but the catalog's in-memory maps may have moved: rebuild
    /// them from storage.
    fn resync_catalog(&self, kind: StmtKind) {
        if kind == StmtKind::Ddl {
            let _ = self.catalog.reload_schema();
        }
    }

    /// Execute the statement body (no transaction bookkeeping — see
    /// [`Session::execute_statement`]).
    fn run_statement(&mut self, stmt: &Statement) -> Result<Answer> {
        match stmt {
            Statement::Begin | Statement::Commit | Statement::Rollback => Err(SqlError::Exec(
                "transaction statements cannot be nested".into(),
            )),
            Statement::Select(s) => {
                let ex = Executor::new(&self.catalog, &self.funcman)
                    .with_config(self.config.clone())
                    .with_tracer(self.tracer.clone());
                let rows = ex.run_select(s)?;
                self.last_trace = ex.trace();
                Ok(Answer::Rows(rows))
            }
            Statement::Explain(s) => {
                let ex =
                    Executor::new(&self.catalog, &self.funcman).with_config(self.config.clone());
                Ok(Answer::Plan(ex.explain(s)?))
            }
            Statement::ExplainAnalyze(s) => {
                let ex = Executor::new(&self.catalog, &self.funcman)
                    .with_config(self.config.clone())
                    .with_tracer(self.tracer.clone());
                let report = ex.analyze(s)?;
                self.last_trace = ex.trace();
                Ok(Answer::Plan(report.render()))
            }
            Statement::ShowMetrics(format) => {
                let snap = self.catalog.storage().registry().snapshot();
                match format {
                    ShowFormat::Table => Ok(Answer::Rows(QueryResult {
                        columns: vec!["metric".into(), "value".into()],
                        rows: snap
                            .rows()
                            .into_iter()
                            .map(|(k, v)| vec![Value::String(k), Value::String(v)])
                            .collect(),
                    })),
                    ShowFormat::Json => Ok(Answer::Plan(snap.to_json())),
                    ShowFormat::Prometheus => Ok(Answer::Plan(snap.to_prometheus())),
                }
            }
            Statement::ShowWaits => {
                let snap = self.catalog.storage().registry().snapshot();
                Ok(Answer::Rows(QueryResult {
                    columns: vec!["event".into(), "count".into(), "time_ns".into()],
                    rows: snap
                        .waits
                        .iter()
                        .map(|w| {
                            vec![
                                Value::String(w.event.to_string()),
                                Value::LongInteger(w.count as i64),
                                Value::LongInteger(w.total_ns as i64),
                            ]
                        })
                        .collect(),
                }))
            }
            Statement::ShowStatements => {
                let stats = self.catalog.storage().registry().statements();
                Ok(Answer::Rows(QueryResult {
                    columns: vec![
                        "statement".into(),
                        "calls".into(),
                        "total_ns".into(),
                        "min_ns".into(),
                        "max_ns".into(),
                        "p99_ns".into(),
                        "rows".into(),
                        "pages".into(),
                        "cache_hits".into(),
                    ],
                    rows: stats
                        .iter()
                        .map(|s| {
                            vec![
                                Value::String(s.sql.clone()),
                                Value::LongInteger(s.calls as i64),
                                Value::LongInteger(s.total_ns as i64),
                                Value::LongInteger(s.min_ns as i64),
                                Value::LongInteger(s.max_ns as i64),
                                Value::LongInteger(s.p99_ns as i64),
                                Value::LongInteger(s.rows as i64),
                                Value::LongInteger(s.pages as i64),
                                Value::LongInteger(s.cache_hits as i64),
                            ]
                        })
                        .collect(),
                }))
            }
            Statement::CreateClass(c) => {
                let mut builder = ClassBuilder::class(&c.name);
                for (attr, ty) in &c.attributes {
                    builder = builder.attribute(attr.clone(), ty.clone());
                }
                for sup in &c.inherits {
                    builder = builder.inherits(sup.clone());
                }
                for m in &c.methods {
                    builder = builder.method(MethodSig {
                        name: m.name.clone(),
                        return_type: m.returns.clone(),
                        params: m.params.clone(),
                    });
                }
                self.catalog.define_class(builder)?;
                Ok(Answer::Done { affected: 0 })
            }
            Statement::DropClass(name) => {
                self.catalog.drop_class(name)?;
                Ok(Answer::Done { affected: 0 })
            }
            Statement::Cluster { class, attr } => {
                let report = self.catalog.cluster_class(class, attr.as_deref())?;
                Ok(Answer::Done {
                    affected: report.moved as usize,
                })
            }
            Statement::NewObject { class, values } => {
                // Positional values map onto the effective attributes in
                // declaration order (the MoodView creation protocol).
                let attrs = self.catalog.effective_attributes(class)?;
                if values.len() > attrs.len() {
                    return Err(SqlError::Exec(format!(
                        "class {class} has {} attribute(s), {} value(s) given",
                        attrs.len(),
                        values.len()
                    )));
                }
                let fields: Vec<(String, Value)> = attrs
                    .iter()
                    .zip(
                        values
                            .iter()
                            .map(lit_to_value)
                            .chain(std::iter::repeat(Value::Null)),
                    )
                    .map(|(a, v)| (a.name.clone(), v))
                    .collect();
                let oid = self.catalog.new_object(class, Value::Tuple(fields))?;
                Ok(Answer::Created(Value::Ref(oid)))
            }
            Statement::CreateIndex {
                class,
                attribute,
                unique,
            } => {
                if attribute.contains('.') {
                    let path: Vec<String> = attribute.split('.').map(str::to_string).collect();
                    self.catalog.create_path_index(class, &path)?;
                } else {
                    self.catalog.create_index(class, attribute, *unique)?;
                }
                Ok(Answer::Done { affected: 0 })
            }
            Statement::DefineMethod {
                class,
                name,
                params,
                returns,
                body,
            } => {
                let sig = MethodSig {
                    name: name.clone(),
                    return_type: returns.clone(),
                    params: params.clone(),
                };
                self.funcman.define_source(class, sig, body)?;
                Ok(Answer::Done { affected: 0 })
            }
            Statement::DropMethod { class, name } => {
                self.funcman.delete_method(class, name)?;
                Ok(Answer::Done { affected: 0 })
            }
            Statement::Delete {
                class,
                var,
                where_clause,
            } => {
                let ex = Executor::new(&self.catalog, &self.funcman)
                    .with_config(self.config.clone())
                    .with_tracer(self.tracer.clone());
                let doomed = ex.target_rows(class, var, where_clause.as_ref())?;
                self.last_trace = ex.trace();
                for (oid, row) in &doomed {
                    self.catalog.delete_fetched(*oid, &row[var].value)?;
                }
                Ok(Answer::Done {
                    affected: doomed.len(),
                })
            }
            Statement::Update {
                class,
                var,
                assignments,
                where_clause,
            } => {
                // Validate target attributes up front.
                let attrs = self.catalog.effective_attributes(class)?;
                for (a, _) in assignments {
                    if !attrs.iter().any(|x| &x.name == a) {
                        return Err(SqlError::Bind(format!(
                            "class {class} has no attribute {a}"
                        )));
                    }
                }
                let ex = Executor::new(&self.catalog, &self.funcman)
                    .with_config(self.config.clone())
                    .with_tracer(self.tracer.clone());
                let rows = ex.target_rows(class, var, where_clause.as_ref())?;
                self.last_trace = ex.trace();
                // Every right-hand side reads the row as it was selected:
                // the target set is complete before the first write.
                let rhs = assignments.iter().map(|(_, e)| PreparedExpr::new(e.clone()));
                let rhs: Vec<PreparedExpr> = rhs.collect();
                let nparams = assignments.iter().map(|(_, e)| e.max_param()).max();
                let nparams = nparams.unwrap_or(0);
                if !rows.is_empty() {
                    ex.check_params(nparams)?;
                }
                let mut scratch = Scratch::new(&ex);
                for (oid, row) in &rows {
                    // The last row's write may be what this row's paths
                    // reach: dereferences read the objects as they are now.
                    scratch.next_batch();
                    let old = &row[var].value;
                    let mut new_value = Value::clone(old);
                    for ((a, _), e) in assignments.iter().zip(&rhs) {
                        new_value.set_field(a, scratch.eval(e, RowView::Row(row))?);
                    }
                    self.catalog.update_fetched(*oid, old, new_value)?;
                }
                Ok(Answer::Done {
                    affected: rows.len(),
                })
            }
        }
    }
}

fn lit_to_value(l: &Lit) -> Value {
    match l {
        Lit::Int(i) => {
            if let Ok(v) = i32::try_from(*i) {
                Value::Integer(v)
            } else {
                Value::LongInteger(*i)
            }
        }
        Lit::Float(x) => Value::Float(*x),
        Lit::Str(s) => Value::String(s.clone()),
        Lit::Bool(b) => Value::Boolean(*b),
        Lit::Null => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_storage::StorageManager;

    /// A session with the paper's Section 3.1 schema and a small database.
    fn session() -> Session {
        let sm = Arc::new(StorageManager::in_memory());
        let catalog = Arc::new(Catalog::create(sm).unwrap());
        let funcman = Arc::new(FunctionManager::new(catalog.clone()));
        let mut s = Session::new(catalog, funcman);
        for ddl in [
            "CREATE CLASS VehicleEngine TUPLE (size Integer, cylinders Integer)",
            "CREATE CLASS VehicleDriveTrain TUPLE (engine REFERENCE (VehicleEngine), \
             transmission String(32))",
            "CREATE CLASS Employee TUPLE (ssno Integer, name String(32), age Integer)",
            "CREATE CLASS Company TUPLE (name String(32), location String(32), \
             president REFERENCE (Employee))",
            "CREATE CLASS Vehicle TUPLE (id Integer, weight Integer, \
             drivetrain REFERENCE (VehicleDriveTrain), manufacturer REFERENCE (Company)) \
             METHODS: lbweight () Float,",
            "CREATE CLASS Automobile INHERITS FROM Vehicle",
            "CREATE CLASS JapaneseAuto INHERITS FROM Automobile",
        ] {
            s.execute(ddl).unwrap();
        }
        s
    }

    fn oid_of(a: &Answer) -> String {
        let Answer::Created(Value::Ref(oid)) = a else {
            panic!("not a ref: {a:?}")
        };
        oid.to_string()
    }

    /// Populate engines/drivetrains/companies/cars; returns #cars.
    fn populate(s: &mut Session) -> usize {
        // Engines: cylinders 2,4,6,8 cycling.
        let mut engines = Vec::new();
        for i in 0..8 {
            let a = s
                .execute(&format!(
                    "new VehicleEngine <{}, {}>",
                    1000 + i * 100,
                    2 + (i % 4) * 2
                ))
                .unwrap();
            let Answer::Created(v) = a else { panic!() };
            engines.push(v);
        }
        // Drivetrains referencing engines — built through the catalog
        // because `new` takes literals only.
        let catalog = s.catalog().clone();
        let mut trains = Vec::new();
        for (i, e) in engines.iter().enumerate() {
            let oid = catalog
                .new_object(
                    "VehicleDriveTrain",
                    Value::tuple(vec![
                        ("engine", e.clone()),
                        (
                            "transmission",
                            Value::string(if i % 2 == 0 { "AUTOMATIC" } else { "MANUAL" }),
                        ),
                    ]),
                )
                .unwrap();
            trains.push(Value::Ref(oid));
        }
        let bmw = catalog
            .new_object(
                "Company",
                Value::tuple(vec![
                    ("name", Value::string("BMW")),
                    ("location", Value::string("Munich")),
                ]),
            )
            .unwrap();
        let toyota = catalog
            .new_object(
                "Company",
                Value::tuple(vec![
                    ("name", Value::string("Toyota")),
                    ("location", Value::string("Aichi")),
                ]),
            )
            .unwrap();
        let mut n = 0;
        for i in 0..16 {
            let (class, company) = if i % 4 == 0 {
                ("JapaneseAuto", toyota)
            } else if i % 2 == 0 {
                ("Automobile", bmw)
            } else {
                ("Vehicle", bmw)
            };
            catalog
                .new_object(
                    class,
                    Value::tuple(vec![
                        ("id", Value::Integer(i)),
                        ("weight", Value::Integer(900 + i * 50)),
                        ("drivetrain", trains[i as usize % trains.len()].clone()),
                        ("manufacturer", Value::Ref(company)),
                    ]),
                )
                .unwrap();
            n += 1;
        }
        catalog.collect_stats().unwrap();
        n
    }

    #[test]
    fn ddl_new_and_simple_select() {
        let mut s = session();
        let a = s
            .execute("new Employee <1, 'Budak Arpinar', 1969>")
            .unwrap();
        assert!(oid_of(&a).contains(':'));
        let Answer::Rows(r) = s
            .execute("SELECT e.name FROM Employee e WHERE e.ssno = 1")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(r.rows, vec![vec![Value::string("Budak Arpinar")]]);
    }

    #[test]
    fn immediate_selection_and_projection() {
        let mut s = session();
        populate(&mut s);
        let Answer::Rows(r) = s
            .execute("SELECT v.id, v.weight FROM Vehicle v WHERE v.weight >= 1500 ORDER BY v.id")
            .unwrap()
        else {
            panic!()
        };
        // weights 900..1650 step 50; >= 1500 → ids 12..15, but only the
        // Vehicle extent itself (no EVERY): odd ids 13, 15.
        assert_eq!(r.columns, vec!["v.id", "v.weight"]);
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Integer(13), Value::Integer(1550)],
                vec![Value::Integer(15), Value::Integer(1650)],
            ]
        );
    }

    #[test]
    fn every_and_minus_semantics() {
        let mut s = session();
        populate(&mut s);
        let count = |s: &mut Session, q: &str| -> usize {
            let Answer::Rows(r) = s.execute(q).unwrap() else {
                panic!()
            };
            r.len()
        };
        assert_eq!(count(&mut s, "SELECT v FROM Vehicle v"), 8);
        assert_eq!(count(&mut s, "SELECT v FROM EVERY Vehicle v"), 16);
        assert_eq!(count(&mut s, "SELECT v FROM EVERY Automobile v"), 8);
        assert_eq!(
            count(&mut s, "SELECT v FROM EVERY Automobile - JapaneseAuto v"),
            4
        );
    }

    #[test]
    fn path_expression_query() {
        let mut s = session();
        populate(&mut s);
        let Answer::Rows(r) = s
            .execute(
                "SELECT v.id FROM EVERY Vehicle v \
                 WHERE v.drivetrain.engine.cylinders = 2 ORDER BY v.id",
            )
            .unwrap()
        else {
            panic!()
        };
        // Engines with 2 cylinders: engine indexes 0 and 4 → drivetrains
        // 0,4 → cars with i % 8 ∈ {0,4} → ids 0,4,8,12.
        let ids: Vec<i32> = r
            .rows
            .iter()
            .map(|row| match &row[0] {
                Value::Integer(i) => *i,
                other => panic!("{other}"),
            })
            .collect();
        assert_eq!(ids, vec![0, 4, 8, 12]);
    }

    #[test]
    fn paper_section_3_1_query_executes() {
        let mut s = session();
        populate(&mut s);
        let Answer::Rows(r) = s
            .execute(
                "SELECT c FROM EVERY Automobile - JapaneseAuto c, VehicleEngine v \
                 WHERE c.drivetrain.transmission = 'AUTOMATIC' AND \
                 c.drivetrain.engine = v AND v.cylinders > 4",
            )
            .unwrap()
        else {
            panic!()
        };
        // Automobiles minus JapaneseAuto: ids 2,6,10,14 → drivetrains
        // 2,6 (i%8). Automatic: drivetrain index even → 2,6? trains with
        // i%2==0 are AUTOMATIC → drivetrains 2 and 6 both even → yes.
        // Cylinders of engines 2,6: 2+(2%4)*2=6; 2+(6%4)*2=6 > 4 ✓ → all 4.
        assert_eq!(r.len(), 4);
        // Every result is a reference to an object.
        assert!(r.rows.iter().all(|row| matches!(row[0], Value::Ref(_))));
    }

    #[test]
    fn disjunction_unions_and_terms() {
        let mut s = session();
        populate(&mut s);
        let Answer::Rows(r) = s
            .execute(
                "SELECT v.id FROM Vehicle v WHERE v.weight = 950 OR v.weight = 1050 \
                 ORDER BY v.id",
            )
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn group_by_having_count() {
        let mut s = session();
        populate(&mut s);
        let Answer::Rows(r) = s
            .execute(
                "SELECT v.drivetrain.transmission, COUNT(*) FROM EVERY Vehicle v \
                 GROUP BY v.drivetrain.transmission HAVING COUNT(*) > 1 \
                 ORDER BY v.drivetrain.transmission",
            )
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][0], Value::string("AUTOMATIC"));
        assert_eq!(r.rows[0][1], Value::Integer(8));
        assert_eq!(r.rows[1][1], Value::Integer(8));
    }

    #[test]
    fn method_call_in_where_and_projection() {
        let mut s = session();
        populate(&mut s);
        s.execute("DEFINE METHOD Vehicle::lbweight() RETURNS Float AS 'weight * 2.2075'")
            .unwrap();
        let Answer::Rows(r) = s
            .execute(
                "SELECT v.id, v.lbweight() FROM Vehicle v WHERE v.lbweight() > 3500 \
                 ORDER BY v.id",
            )
            .unwrap()
        else {
            panic!()
        };
        // weight*2.2075 > 3500 → weight > 1585.5 → weights 1650 (id 15).
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Integer(15));
        let Value::Float(lb) = r.rows[0][1] else {
            panic!()
        };
        assert!((lb - 1650.0 * 2.2075).abs() < 1e-9);
    }

    #[test]
    fn explain_returns_plan_text() {
        let mut s = session();
        populate(&mut s);
        let Answer::Plan(p) = s
            .execute("EXPLAIN SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2")
            .unwrap()
        else {
            panic!()
        };
        assert!(p.contains("JOIN("), "{p}");
        assert!(p.contains("BIND(Vehicle, v)"), "{p}");
        assert!(p.contains("PathSelInfo"), "{p}");
    }

    #[test]
    fn execution_trace_follows_figure_7_1() {
        let mut s = session();
        populate(&mut s);
        s.execute(
            "SELECT v.drivetrain.transmission, COUNT(*) FROM EVERY Vehicle v \
             WHERE v.weight > 0 AND v.drivetrain.engine.cylinders > 0 \
             GROUP BY v.drivetrain.transmission HAVING COUNT(*) > 0 \
             ORDER BY v.drivetrain.transmission",
        )
        .unwrap();
        let trace = s.last_trace().to_vec();
        let pos = |name: &str| trace.iter().position(|t| t == name);
        let from = pos("FROM").expect("FROM");
        let select = pos("WHERE:SELECT").expect("WHERE:SELECT");
        let join = pos("WHERE:JOIN").expect("WHERE:JOIN");
        let group = pos("GROUP BY").expect("GROUP BY");
        let having = pos("HAVING").expect("HAVING");
        let project = pos("PROJECT").expect("PROJECT");
        let order = pos("ORDER BY").expect("ORDER BY");
        // Figure 7.1: FROM → WHERE → GROUP BY → HAVING → SELECT → ORDER BY,
        // and Figure 7.2 inside WHERE: SELECT before JOIN.
        assert!(from < select, "{trace:?}");
        assert!(select < join, "{trace:?}");
        assert!(join < group, "{trace:?}");
        assert!(group < having, "{trace:?}");
        assert!(having < project, "{trace:?}");
        assert!(project <= order, "{trace:?}");
    }

    #[test]
    fn union_runs_after_and_terms_figure_7_2() {
        let mut s = session();
        populate(&mut s);
        s.execute(
            "SELECT v.id FROM EVERY Vehicle v WHERE \
             v.drivetrain.engine.cylinders = 2 OR v.weight > 1500",
        )
        .unwrap();
        let trace = s.last_trace().to_vec();
        let union = trace.iter().position(|t| t == "WHERE:UNION").expect("union ran");
        let last_select = trace.iter().rposition(|t| t == "WHERE:SELECT").expect("selects ran");
        let last_join = trace.iter().rposition(|t| t == "WHERE:JOIN").expect("joins ran");
        // Figure 7.2: UNION is performed after evaluating the AND-terms.
        assert!(union > last_select, "{trace:?}");
        assert!(union > last_join, "{trace:?}");
    }

    #[test]
    fn delete_where() {
        let mut s = session();
        populate(&mut s);
        let Answer::Done { affected } = s
            .execute("DELETE FROM Vehicle v WHERE v.weight < 1000")
            .unwrap()
        else {
            panic!()
        };
        assert!(affected > 0);
        let Answer::Rows(r) = s.execute("SELECT v FROM Vehicle v").unwrap() else {
            panic!()
        };
        assert_eq!(r.len(), 8 - affected);
    }

    #[test]
    fn index_accelerated_query_same_answer() {
        let mut s = session();
        populate(&mut s);
        let q = "SELECT v.id FROM Vehicle v WHERE v.weight = 1250 ORDER BY v.id";
        let Answer::Rows(before) = s.execute(q).unwrap() else {
            panic!()
        };
        s.execute("CREATE INDEX ON Vehicle(weight)").unwrap();
        s.catalog().collect_stats().unwrap();
        let Answer::Rows(after) = s.execute(q).unwrap() else {
            panic!()
        };
        assert_eq!(before, after);
    }

    #[test]
    fn distinct_dedupes() {
        let mut s = session();
        populate(&mut s);
        let Answer::Rows(r) = s
            .execute("SELECT DISTINCT v.drivetrain.transmission FROM EVERY Vehicle v")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn between_works() {
        let mut s = session();
        populate(&mut s);
        let Answer::Rows(r) = s
            .execute("SELECT v.id FROM Vehicle v WHERE v.weight BETWEEN 1000 AND 1200")
            .unwrap()
        else {
            panic!()
        };
        // Vehicle extent: odd ids 1..15, weights 950+... ids 3 (1050),
        // 5 (1150): weight = 900 + id*50 ∈ [1000,1200] → ids 3,5.
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn errors_surface_cleanly() {
        let mut s = session();
        assert!(s.execute("SELECT v FROM Nothing v").is_err());
        assert!(s
            .execute("SELECT v FROM Vehicle v WHERE v.nope = 1")
            .is_err());
        assert!(s.execute("totally not sql").is_err());
        // Error in one statement doesn't poison the session.
        assert!(s.execute("SELECT v FROM Vehicle v").is_ok());
    }
}

#[cfg(test)]
mod update_tests {
    use super::*;
    use mood_storage::StorageManager;

    fn s() -> Session {
        let sm = Arc::new(StorageManager::in_memory());
        let catalog = Arc::new(Catalog::create(sm).unwrap());
        let funcman = Arc::new(FunctionManager::new(catalog.clone()));
        let mut s = Session::new(catalog, funcman);
        s.execute("CREATE CLASS Account TUPLE (id Integer, balance Integer, note String)")
            .unwrap();
        for i in 0..10 {
            s.execute(&format!("new Account <{i}, {}, 'x'>", i * 100))
                .unwrap();
        }
        s
    }

    #[test]
    fn update_with_where_and_expression() {
        let mut s = s();
        let Answer::Done { affected } = s
            .execute("UPDATE Account a SET balance = a.balance + 50 WHERE a.id < 3")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(affected, 3);
        let Answer::Rows(r) = s
            .execute("SELECT a.balance FROM Account a WHERE a.id = 2")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(r.rows, vec![vec![Value::Integer(250)]]);
        // Untouched rows keep their balance.
        let Answer::Rows(r) = s
            .execute("SELECT a.balance FROM Account a WHERE a.id = 5")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(r.rows, vec![vec![Value::Integer(500)]]);
    }

    #[test]
    fn update_multiple_assignments_and_strings() {
        let mut s = s();
        s.execute("UPDATE Account a SET balance = 0, note = 'frozen' WHERE a.id = 7")
            .unwrap();
        let Answer::Rows(r) = s
            .execute("SELECT a.balance, a.note FROM Account a WHERE a.id = 7")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(
            r.rows,
            vec![vec![Value::Integer(0), Value::string("frozen")]]
        );
    }

    #[test]
    fn update_without_where_touches_all() {
        let mut s = s();
        let Answer::Done { affected } = s.execute("UPDATE Account a SET note = 'bulk'").unwrap()
        else {
            panic!()
        };
        assert_eq!(affected, 10);
    }

    #[test]
    fn update_unknown_attribute_rejected() {
        let mut s = s();
        assert!(s.execute("UPDATE Account a SET bogus = 1").is_err());
    }

    #[test]
    fn begin_commit_keeps_effects() {
        let mut s = s();
        s.execute("BEGIN TRANSACTION").unwrap();
        assert!(s.in_transaction());
        s.execute("new Account <100, 5000, 'txn'>").unwrap();
        s.execute("UPDATE Account a SET balance = 1 WHERE a.id = 0")
            .unwrap();
        s.execute("COMMIT").unwrap();
        assert!(!s.in_transaction());
        let Answer::Rows(r) = s
            .execute("SELECT a.balance FROM Account a WHERE a.id = 100")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(r.rows, vec![vec![Value::Integer(5000)]]);
    }

    #[test]
    fn rollback_undoes_a_multi_statement_transaction() {
        let mut s = s();
        s.execute("BEGIN").unwrap();
        s.execute("new Account <100, 5000, 'doomed'>").unwrap();
        s.execute("UPDATE Account a SET balance = 0").unwrap();
        s.execute("DELETE FROM Account a WHERE a.id < 5").unwrap();
        s.execute("ROLLBACK").unwrap();
        // All three statements' effects are gone.
        let Answer::Rows(r) = s.execute("SELECT a FROM Account a").unwrap() else {
            panic!()
        };
        assert_eq!(r.len(), 10, "insert + delete undone");
        let Answer::Rows(r) = s
            .execute("SELECT a.balance FROM Account a WHERE a.id = 7")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(r.rows, vec![vec![Value::Integer(700)]], "update undone");
    }

    #[test]
    fn reads_inside_a_transaction_see_its_writes() {
        let mut s = s();
        s.execute("BEGIN").unwrap();
        s.execute("UPDATE Account a SET balance = 42 WHERE a.id = 3")
            .unwrap();
        let Answer::Rows(r) = s
            .execute("SELECT a.balance FROM Account a WHERE a.id = 3")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(r.rows, vec![vec![Value::Integer(42)]]);
        s.execute("ROLLBACK").unwrap();
        let Answer::Rows(r) = s
            .execute("SELECT a.balance FROM Account a WHERE a.id = 3")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(r.rows, vec![vec![Value::Integer(300)]]);
    }

    #[test]
    fn transaction_statement_misuse_is_rejected() {
        let mut s = s();
        assert!(s.execute("COMMIT").is_err(), "no transaction open");
        assert!(s.execute("ROLLBACK").is_err());
        s.execute("BEGIN").unwrap();
        assert!(s.execute("BEGIN").is_err(), "no nested transactions");
        // DDL autocommits; inside an explicit transaction it is refused.
        assert!(s
            .execute("CREATE CLASS Temp TUPLE (x Integer)")
            .is_err());
        assert!(s.execute("CREATE INDEX ON Account(balance)").is_err());
        s.execute("COMMIT").unwrap();
        // Outside the transaction the same DDL is fine.
        s.execute("CREATE CLASS Temp TUPLE (x Integer)").unwrap();
    }

    #[test]
    fn failed_statement_rolls_back_alone_inside_transaction() {
        let mut s = s();
        s.execute("BEGIN").unwrap();
        s.execute("UPDATE Account a SET note = 'kept' WHERE a.id = 0")
            .unwrap();
        // Division by zero fires on the row with balance 200 — after the
        // rows with balances 0 and 100 were already updated. The statement
        // savepoint must undo those partial effects.
        assert!(s
            .execute("UPDATE Account a SET balance = 1000 / (a.balance - 200)")
            .is_err());
        let Answer::Rows(r) = s
            .execute("SELECT a.balance FROM Account a WHERE a.id = 0 OR a.id = 1 ORDER BY a.id")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(
            r.rows,
            vec![vec![Value::Integer(0)], vec![Value::Integer(100)]],
            "partial statement effects undone"
        );
        // The transaction itself survives and can still commit statement 1.
        s.execute("COMMIT").unwrap();
        let Answer::Rows(r) = s
            .execute("SELECT a.note FROM Account a WHERE a.id = 0")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(r.rows, vec![vec![Value::string("kept")]]);
    }

    #[test]
    fn failed_autocommit_statement_leaves_no_trace() {
        let mut s = s();
        assert!(s
            .execute("UPDATE Account a SET balance = 1000 / (a.balance - 200)")
            .is_err());
        let Answer::Rows(r) = s
            .execute("SELECT a.balance FROM Account a WHERE a.id = 0 OR a.id = 1 ORDER BY a.id")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(
            r.rows,
            vec![vec![Value::Integer(0)], vec![Value::Integer(100)]],
            "autocommit rollback undid the partial update"
        );
    }

    #[test]
    fn update_maintains_indexes() {
        let mut s = s();
        s.execute("CREATE INDEX ON Account(balance)").unwrap();
        s.execute("UPDATE Account a SET balance = 9999 WHERE a.id = 4")
            .unwrap();
        s.catalog().collect_stats().unwrap();
        let Answer::Rows(r) = s
            .execute("SELECT a.id FROM Account a WHERE a.balance = 9999")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(r.rows, vec![vec![Value::Integer(4)]]);
        let Answer::Rows(r) = s
            .execute("SELECT a.id FROM Account a WHERE a.balance = 400")
            .unwrap()
        else {
            panic!()
        };
        assert!(r.rows.is_empty(), "old index entry removed");
    }
}
