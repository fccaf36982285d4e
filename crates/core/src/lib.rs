//! # mood-core — the METU Object-Oriented DBMS (MOOD) kernel
//!
//! The public face of the reproduction: a [`Mood`] database handle wiring
//! together the ESM-substrate storage manager, the catalog, the Function
//! Manager, the MOODSQL interpreter with its cost-based optimizer, and the
//! headless MoodView tools — the component diagram of the paper's
//! Figure 2.1.
//!
//! ```
//! use mood_core::Mood;
//!
//! let db = Mood::in_memory();
//! db.execute("CREATE CLASS Employee TUPLE (name String(32), age Integer)").unwrap();
//! db.execute("new Employee <'Budak Arpinar', 25>").unwrap();
//! let mut cursor = db.query("SELECT e.name FROM Employee e WHERE e.age > 20").unwrap();
//! assert_eq!(cursor.next().unwrap()[0].to_string(), "'Budak Arpinar'");
//! ```

use std::sync::Arc;

use parking_lot::Mutex;

pub use mood_algebra as algebra;
pub use mood_catalog as catalog;
pub use mood_cost as cost;
pub use mood_datamodel as datamodel;
pub use mood_funcman as funcman;
pub use mood_optimizer as optimizer;
pub use mood_sql as sql;
pub use mood_storage as storage;
pub use mood_trace as trace;
pub use mood_view as view;

pub use mood_catalog::{Catalog, CatalogRoot, ClassBuilder, DatabaseStats, MethodSig};
pub use mood_datamodel::{TypeDescriptor, Value};
pub use mood_funcman::{Exception, FunctionManager, NativeFn};
pub use mood_optimizer::OptimizerConfig;
pub use mood_sql::{Answer, Cursor, QueryResult, Session, ShowFormat, SqlError};
pub use mood_storage::{
    DiskMetrics, EngineMetrics, HistFamily, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    Oid, PhysicalParams, SlowQuery, StatementStat, StorageManager, WaitEvent, WaitSnapshot,
};
pub use mood_trace::{RingBuffer, SpanRecord, TextDump, Tracer};

/// Top-level error for kernel operations.
#[derive(Debug)]
pub enum MoodError {
    Sql(SqlError),
    Catalog(mood_catalog::CatalogError),
    Storage(mood_storage::StorageError),
    Exception(Exception),
    Io(String),
    /// `catalog.root` is not a root of any format: opening refuses to
    /// bootstrap a new catalog over the classes the real root names.
    CorruptRoot { path: std::path::PathBuf, len: usize },
    /// `catalog.root` names a database of another on-disk format (format 1
    /// stored every attribute's name in every object); this build reads
    /// only [`mood_catalog::FORMAT_VERSION`] and refuses to open it.
    UnsupportedFormat { path: std::path::PathBuf, found: u32, supported: u32 },
}

impl std::fmt::Display for MoodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MoodError::Sql(e) => write!(f, "{e}"),
            MoodError::Catalog(e) => write!(f, "{e}"),
            MoodError::Storage(e) => write!(f, "{e}"),
            MoodError::Exception(e) => write!(f, "{e}"),
            MoodError::Io(m) => write!(f, "I/O: {m}"),
            MoodError::CorruptRoot { path, len } => {
                write!(f, "{}: {len} bytes, a catalog root is {}", path.display(), CatalogRoot::LEN)
            }
            MoodError::UnsupportedFormat { path, found, supported } => write!(
                f,
                "{}: database format {found}, this build reads format {supported}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for MoodError {}

impl From<SqlError> for MoodError {
    fn from(e: SqlError) -> Self {
        MoodError::Sql(e)
    }
}
impl From<mood_catalog::CatalogError> for MoodError {
    fn from(e: mood_catalog::CatalogError) -> Self {
        MoodError::Catalog(e)
    }
}
impl From<mood_storage::StorageError> for MoodError {
    fn from(e: mood_storage::StorageError) -> Self {
        MoodError::Storage(e)
    }
}
impl From<Exception> for MoodError {
    fn from(e: Exception) -> Self {
        MoodError::Exception(e)
    }
}

pub type Result<T> = std::result::Result<T, MoodError>;

/// A MOOD database instance.
pub struct Mood {
    sm: Arc<StorageManager>,
    catalog: Arc<Catalog>,
    funcman: Arc<FunctionManager>,
    session: Mutex<Session>,
}

impl Mood {
    /// An in-memory database (tests, examples, benches).
    pub fn in_memory() -> Mood {
        Self::from_storage(Arc::new(StorageManager::in_memory()), None)
            .expect("in-memory bootstrap cannot fail")
    }

    /// In-memory with an explicit buffer-pool size in frames — small pools
    /// reproduce the paper's worst-case (no-buffer-hit) cost analyses.
    pub fn in_memory_with_pool(frames: usize) -> Mood {
        Self::from_storage(Arc::new(StorageManager::in_memory_with_pool(frames)), None)
            .expect("in-memory bootstrap cannot fail")
    }

    /// Open (or create) a database rooted at a directory. The storage
    /// manager replays the WAL before anything reads a page, so a database
    /// that crashed mid-flight comes back with exactly its committed state.
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<Mood> {
        let sm = Arc::new(StorageManager::on_disk(dir.as_ref(), 1024)?);
        Self::open_with_storage(sm, dir)
    }

    /// Bootstrap a database over a caller-assembled durable storage
    /// manager rooted at `dir` (see [`StorageManager::with_parts`]) — the
    /// crash-simulation harness uses this to interpose fault-injecting
    /// disk/log wrappers while the real bytes live underneath.
    ///
    /// Only a missing `catalog.root` means a new database: one that cannot
    /// be read is [`MoodError::Io`], one of another on-disk format
    /// [`MoodError::UnsupportedFormat`], one of no format
    /// [`MoodError::CorruptRoot`] — all before anything is written.
    pub fn open_with_storage(
        sm: Arc<StorageManager>,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<Mood> {
        let dir = dir.as_ref();
        let root_file = dir.join("catalog.root");
        let root = match std::fs::read(&root_file) {
            Ok(b) => match CatalogRoot::from_bytes(&b) {
                Ok(root) => Some(root),
                Err(mood_catalog::CatalogError::UnsupportedFormat { found, supported }) => {
                    return Err(MoodError::UnsupportedFormat { path: root_file, found, supported })
                }
                Err(_) => return Err(MoodError::CorruptRoot { path: root_file, len: b.len() }),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(MoodError::Io(format!("{}: {e}", root_file.display()))),
        };
        // Bootstrap is itself a transaction: creating the catalog heaps
        // either commits whole or leaves no trace for the next open.
        let txn = sm.txn_begin();
        let db = match Self::from_storage(sm.clone(), root) {
            Ok(db) => {
                sm.txn_commit(txn)?;
                db
            }
            Err(e) => {
                let _ = sm.txn_rollback(txn);
                return Err(e);
            }
        };
        if root.is_none() {
            let bytes = db.catalog.root().to_bytes();
            write_durably(&root_file, &bytes).map_err(|e| MoodError::Io(e.to_string()))?;
        }
        // Recovery replayed straight onto the disk image; flush + sync it
        // and restart the log so each open starts from a clean checkpoint.
        db.checkpoint()?;
        Ok(db)
    }

    fn from_storage(sm: Arc<StorageManager>, root: Option<CatalogRoot>) -> Result<Mood> {
        let catalog = Arc::new(match root {
            Some(r) => Catalog::open(sm.clone(), r)?,
            None => Catalog::create(sm.clone())?,
        });
        let funcman = Arc::new(FunctionManager::new(catalog.clone()));
        let session = Mutex::new(Session::new(catalog.clone(), funcman.clone()));
        Ok(Mood {
            sm,
            catalog,
            funcman,
            session,
        })
    }

    // ------------------------------------------------------------------
    // SQL interface (the "standard communication protocol" of §9.4)
    // ------------------------------------------------------------------

    /// Execute one MOODSQL statement.
    pub fn execute(&self, sql: &str) -> Result<Answer> {
        Ok(self.session.lock().execute(sql)?)
    }

    /// Execute a query, returning a cursor (Section 9.4's mechanism).
    pub fn query(&self, sql: &str) -> Result<Cursor> {
        Ok(self.session.lock().query(sql)?)
    }

    /// Optimize a query and return its access plan in the paper's notation.
    pub fn explain(&self, sql: &str) -> Result<String> {
        match self.execute(&format!("EXPLAIN {sql}"))? {
            Answer::Plan(p) => Ok(p),
            other => Err(MoodError::Sql(SqlError::Exec(format!(
                "not a plan: {other:?}"
            )))),
        }
    }

    /// Execute a query with per-operator instrumentation and return the
    /// estimate-vs-actual report (`EXPLAIN ANALYZE`).
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        match self.execute(&format!("EXPLAIN ANALYZE {sql}"))? {
            Answer::Plan(p) => Ok(p),
            other => Err(MoodError::Sql(SqlError::Exec(format!(
                "not a plan: {other:?}"
            )))),
        }
    }

    /// Stage trace of the last executed SELECT.
    pub fn last_trace(&self) -> Vec<String> {
        let session = self.session.lock();
        session.last_trace().iter().map(|stage| stage.to_string()).collect()
    }

    /// Use a specific optimizer configuration (physical disk parameters,
    /// execution settings). Applied in place so an open transaction survives.
    pub fn set_optimizer_config(&self, config: OptimizerConfig) {
        self.session.lock().set_config(config);
    }

    /// Set the worker count for the chunk-parallel execution path (1 =
    /// sequential, the default). Parallel runs produce byte-identical
    /// results and unchanged page-access totals. MOODSQL reads it only where
    /// a `SELECT` filters rows that are not a scan's (over a join, a
    /// temporary or a combination of FROM components): see
    /// [`Session::set_parallelism`](mood_sql::Session::set_parallelism).
    pub fn set_parallelism(&self, parallelism: usize) {
        self.session.lock().set_parallelism(parallelism);
    }

    /// Rows per operator batch on the vectorized execution path (clamped
    /// to ≥ 1). Clears the plan cache: cached plans embed batch shape.
    pub fn set_batch_size(&self, rows: usize) {
        self.session.lock().set_batch_size(rows);
    }

    /// In-memory row budget for ORDER BY; inputs larger than this spill
    /// to sorted runs on temp files and are k-way merged back.
    pub fn set_sort_budget(&self, rows: usize) {
        self.session.lock().set_sort_budget(rows);
    }

    /// Toggle the session plan cache (on by default). Disabling clears it.
    pub fn set_plan_cache_enabled(&self, on: bool) {
        self.session.lock().set_plan_cache_enabled(on);
    }

    /// Resize the plan cache (entries, clamped to ≥ 1), dropping every
    /// cached plan.
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        self.session.lock().set_plan_cache_capacity(capacity);
    }

    /// The plan cache's configured capacity in entries.
    pub fn plan_cache_capacity(&self) -> usize {
        self.session.lock().plan_cache_capacity()
    }

    /// Drop every cached plan (the cache counters are untouched).
    pub fn clear_plan_cache(&self) {
        self.session.lock().clear_plan_cache();
    }

    /// Capture statements at or over `threshold` in the engine's
    /// slow-query log, with their `EXPLAIN ANALYZE` tree where the
    /// statement shape allows. `None` (the default) disables capture.
    pub fn set_slow_query_threshold(&self, threshold: Option<std::time::Duration>) {
        self.session.lock().set_slow_query_threshold(threshold);
    }

    /// Per-statement aggregated stats, most total time first (the data
    /// behind `SHOW STATEMENTS`).
    pub fn statement_stats(&self) -> Vec<StatementStat> {
        self.sm.registry().statements()
    }

    /// The slow-query ring, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.sm.registry().slow_queries()
    }

    // ------------------------------------------------------------------
    // Direct component access
    // ------------------------------------------------------------------

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn funcman(&self) -> &Arc<FunctionManager> {
        &self.funcman
    }

    pub fn storage(&self) -> &Arc<StorageManager> {
        &self.sm
    }

    /// Disk-access metrics (the instrumentation the benches read).
    pub fn metrics(&self) -> &DiskMetrics {
        self.sm.metrics()
    }

    /// A point-in-time snapshot of the engine-wide metrics registry:
    /// buffer/disk counters, WAL appends and fsyncs, lock waits, and
    /// per-operator lifetime totals (also reachable as `SHOW METRICS`).
    pub fn engine_metrics(&self) -> EngineMetrics {
        self.sm.registry().snapshot()
    }

    /// The session tracer. Attach a subscriber (e.g. [`RingBuffer`]) to
    /// observe parse/bind/optimize/execute and per-operator spans.
    pub fn tracer(&self) -> Tracer {
        self.session.lock().tracer().clone()
    }

    /// Register a natively implemented method (the analogue of linking
    /// pre-compiled C++ object code).
    pub fn register_native_method(
        &self,
        class: &str,
        sig: MethodSig,
        body: NativeFn,
    ) -> Result<()> {
        Ok(self.funcman.register_native(class, sig, body)?)
    }

    /// Invoke a method on a stored object.
    pub fn invoke(&self, oid: Oid, method: &str, args: &[Value]) -> Result<Value> {
        Ok(self.funcman.invoke(oid, method, args)?)
    }

    /// Create an object directly (non-SQL path used by loaders).
    pub fn new_object(&self, class: &str, value: Value) -> Result<Oid> {
        Ok(self.catalog.new_object(class, value)?)
    }

    /// Fetch an object (dynamic class name + value).
    pub fn get_object(&self, oid: Oid) -> Result<(String, Value)> {
        Ok(self.catalog.get_object(oid)?)
    }

    /// Recompute the Table 8/9 statistics by scanning.
    pub fn collect_stats(&self) -> Result<DatabaseStats> {
        Ok(self.catalog.collect_stats()?)
    }

    /// Flush dirty pages and truncate the log.
    pub fn checkpoint(&self) -> Result<()> {
        Ok(self.sm.checkpoint()?)
    }

    // ------------------------------------------------------------------
    // MoodView passthroughs
    // ------------------------------------------------------------------

    /// ASCII class-hierarchy browser.
    pub fn render_hierarchy(&self) -> String {
        mood_view::render_hierarchy(&self.catalog)
    }

    /// Graphviz DOT of the class hierarchy.
    pub fn render_hierarchy_dot(&self) -> String {
        mood_view::render_hierarchy_dot(&self.catalog)
    }

    /// The Figure 9.2 class-presentation card.
    pub fn render_class(&self, class: &str) -> Result<String> {
        Ok(mood_view::render_class_card(&self.catalog, class)?)
    }

    /// Generic object presentation, following references to `depth`.
    pub fn render_object(&self, oid: Oid, depth: usize) -> String {
        mood_view::render_object(&self.catalog, oid, depth)
    }
}

/// Write a small control file so a crash leaves either no file or all of
/// it: write a temporary beside it, fsync that, rename it over `path`, then
/// fsync the containing directory (the entry itself).
fn write_durably(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::File::open(dir)?.sync_all()?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_pipeline() {
        let db = Mood::in_memory();
        db.execute("CREATE CLASS Employee TUPLE (name String(32), age Integer)")
            .unwrap();
        db.execute("new Employee <'Asuman Dogac', 50>").unwrap();
        db.execute("new Employee <'Cetin Ozkan', 30>").unwrap();
        let mut cur = db
            .query("SELECT e.name FROM Employee e WHERE e.age > 40")
            .unwrap();
        assert_eq!(cur.len(), 1);
        assert_eq!(cur.next().unwrap()[0], Value::string("Asuman Dogac"));
    }

    #[test]
    fn explain_and_trace() {
        let db = Mood::in_memory();
        db.execute("CREATE CLASS C TUPLE (x Integer)").unwrap();
        db.execute("new C <1>").unwrap();
        let plan = db.explain("SELECT c FROM C c WHERE c.x = 1").unwrap();
        assert!(plan.contains("BIND(C, c)"), "{plan}");
        db.execute("SELECT c FROM C c WHERE c.x = 1").unwrap();
        assert!(db.last_trace().contains(&"FROM".to_string()));
    }

    #[test]
    fn native_method_through_facade() {
        let db = Mood::in_memory();
        db.execute("CREATE CLASS Vehicle TUPLE (weight Integer)")
            .unwrap();
        db.register_native_method(
            "Vehicle",
            MethodSig::new("lbweight", TypeDescriptor::float(), vec![]),
            Arc::new(|recv, _args, _res| {
                let w = recv.field("weight").and_then(|v| v.as_f64()).unwrap_or(0.0);
                Ok(Value::Float(w * 2.2075))
            }),
        )
        .unwrap();
        let Answer::Created(Value::Ref(oid)) = db.execute("new Vehicle <1000>").unwrap() else {
            panic!()
        };
        assert_eq!(
            db.invoke(oid, "lbweight", &[]).unwrap(),
            Value::Float(2207.5)
        );
    }

    #[test]
    fn persistence_across_reopen() {
        let dir = std::env::temp_dir().join(format!("mood-core-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Mood::open(&dir).unwrap();
            db.execute("CREATE CLASS Employee TUPLE (name String, age Integer)")
                .unwrap();
            db.execute("new Employee <'Tansel Okay', 40>").unwrap();
            db.checkpoint().unwrap();
        }
        {
            let db = Mood::open(&dir).unwrap();
            let mut cur = db.query("SELECT e.name FROM Employee e").unwrap();
            assert_eq!(cur.len(), 1);
            assert_eq!(cur.next().unwrap()[0], Value::string("Tansel Okay"));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_short_catalog_root_refuses_to_open_and_is_left_as_found() {
        let dir = std::env::temp_dir().join(format!("mood-core-root-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Mood::open(&dir).unwrap();
            db.execute("CREATE CLASS Part TUPLE (id Integer)").unwrap();
            for i in 0..10 {
                db.execute(&format!("new Part <{i}>")).unwrap();
            }
        }
        let root_file = dir.join("catalog.root");
        let root = std::fs::read(&root_file).unwrap();
        assert_eq!(root.len(), CatalogRoot::LEN);
        std::fs::write(&root_file, &root[..5]).unwrap();
        let err = Mood::open(&dir).err().expect("a 5-byte root must not open");
        assert!(matches!(err, MoodError::CorruptRoot { len: 5, .. }), "{err}");
        assert!(err.to_string().contains("catalog.root"), "{err}");
        assert_eq!(std::fs::read(&root_file).unwrap(), &root[..5], "root left as found");
        std::fs::write(&root_file, &root).unwrap();
        let db = Mood::open(&dir).unwrap();
        assert_eq!(db.query("SELECT p.id FROM Part p").unwrap().len(), 10);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A database of the format that stored every attribute's name in every
    /// object — its root is the three file ids, 12 bytes — or of a format
    /// newer than this build is refused with the typed error, and its root
    /// is left as found.
    #[test]
    fn a_database_of_another_format_is_refused_and_left_as_found() {
        let dir = std::env::temp_dir().join(format!("mood-core-format-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        drop(Mood::open(&dir).unwrap());
        let root_file = dir.join("catalog.root");
        let root = std::fs::read(&root_file).unwrap();
        let mut newer = root.clone();
        newer[..4].copy_from_slice(&(mood_catalog::FORMAT_VERSION + 1).to_le_bytes());
        for (bytes, format) in [(&root[4..], 1), (&newer[..], mood_catalog::FORMAT_VERSION + 1)] {
            std::fs::write(&root_file, bytes).unwrap();
            let err = Mood::open(&dir).err().expect("another format must not open");
            let supported = mood_catalog::FORMAT_VERSION;
            assert!(
                matches!(err, MoodError::UnsupportedFormat { found, supported: s, .. }
                    if found == format && s == supported),
                "{err}"
            );
            assert_eq!(std::fs::read(&root_file).unwrap(), bytes, "root left as found");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn moodview_passthroughs() {
        let db = Mood::in_memory();
        db.execute("CREATE CLASS Vehicle TUPLE (id Integer)")
            .unwrap();
        db.execute("CREATE CLASS Automobile INHERITS FROM Vehicle")
            .unwrap();
        assert!(db.render_hierarchy().contains("Vehicle --> Automobile"));
        assert!(db.render_hierarchy_dot().contains("digraph"));
        assert!(db
            .render_class("Automobile")
            .unwrap()
            .contains("Superclasses: Vehicle"));
        let Answer::Created(Value::Ref(oid)) = db.execute("new Vehicle <7>").unwrap() else {
            panic!()
        };
        assert!(db.render_object(oid, 1).contains("id: 7"));
    }

    #[test]
    fn metrics_accumulate_through_queries() {
        let db = Mood::in_memory();
        db.execute("CREATE CLASS C TUPLE (x Integer)").unwrap();
        for i in 0..100 {
            db.execute(&format!("new C <{i}>")).unwrap();
        }
        let before = db.metrics().snapshot();
        db.execute("SELECT c FROM C c WHERE c.x > 50").unwrap();
        let delta = db.metrics().snapshot().delta(&before);
        assert!(
            delta.buffer_hits + delta.buffer_misses > 0,
            "scans touch pages"
        );
    }
}
