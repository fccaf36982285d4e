//! Plan execution.
//!
//! The executor follows the optimizer's access plan (so join methods and
//! path orders actually determine the I/O pattern — what the benches
//! measure against the §6 cost model), evaluates predicates with run-time
//! type checking through `OperandDataType`, and applies the clause order of
//! Figure 7.1 (FROM → WHERE → GROUP BY/HAVING → projection → ORDER BY) with
//! the operator order of Figure 7.2 inside WHERE (SELECT → JOIN → PROJECT →
//! UNION). An execution trace records the stages for the conformance tests.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mood_catalog::Catalog;
use mood_cost::JoinMethod;
use mood_datamodel::{decode_value, encode_value, Value};
use mood_funcman::{FunctionManager, OperandDataType, Registers};
use mood_optimizer::{estimate_plan_set, optimize, NodeEstimate, OptimizerConfig, Plan, PlanSet};
use mood_storage::exec::run_chunked;
use mood_storage::spill::SpillFile;
use mood_storage::{AccessHint, FileId, MetricsRegistry, Oid, PageId};
use mood_trace::Tracer;

use crate::analyze::{
    op_kind, record_operator_totals, render_estimates, staged, AnalyzeRec, AnalyzeReport, StageRec,
    TermReport,
};
use crate::ast::{AggFunc, Expr, Lit, PathRef, SelectStmt};
use crate::binder::{lower, Lowered};
use crate::compiled::{compile_proj, CachingResolver, PreparedPred, RowPred, RowProg};
use crate::error::{Result, SqlError};
use crate::parser::parse_expr;

/// One variable binding set: range variable → bound object.
pub type Row = BTreeMap<String, BoundObj>;

/// A bound object (stored or transient). The value is shared: join merges
/// and sort permutations clone whole rows, and an `Arc` bump there beats
/// deep-copying every tuple field (the batched pipeline's row currency).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundObj {
    pub oid: Option<Oid>,
    pub value: Arc<Value>,
}

/// A query result: column labels plus value rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Single-column convenience accessor.
    pub fn column(&self, idx: usize) -> Vec<&Value> {
        self.rows.iter().map(|r| &r[idx]).collect()
    }
}

/// A SELECT prepared once — bound, optimized, estimated, its predicates
/// parsed and (where possible) compiled to register programs — and
/// re-executable any number of times. The session's plan cache stores
/// these keyed by statement shape (`=`-operand literals lifted out as `$n`),
/// so one entry runs with whichever values the executor has bound; `epoch`
/// is the catalog epoch the plan was built under, so any DDL or statistics
/// refresh invalidates it.
pub struct PreparedQuery {
    stmt: SelectStmt,
    /// Parameters the statement reads (`$1..=$nparams`).
    nparams: u16,
    lowered: Lowered,
    terms: Vec<(PlanSet, Vec<NodeEstimate>)>,
    /// Catalog epoch at preparation; a mismatch means the plan is stale.
    pub epoch: u64,
    /// Plan predicate text → pre-parsed form with a lazy compiled slot.
    preds: HashMap<String, PreparedPred>,
    /// Compiled projection columns (ungrouped queries), index-aligned with
    /// the statement's projection list, filled when compilation runs;
    /// unfilled (or `None` per column) falls back to the interpreter.
    proj: OnceLock<Vec<Option<RowProg>>>,
    /// Compiled ORDER BY key expressions, index-aligned with the ORDER BY
    /// list; same fallback rules as `proj`.
    order_progs: OnceLock<Vec<Option<RowProg>>>,
    /// Range variable → class, for the lazy compilation pass.
    var_class: HashMap<String, String>,
    /// Compilation is enabled at all (`OptimizerConfig::compiled_predicates`).
    compile_enabled: bool,
    /// Executions before predicates compile (`OptimizerConfig::
    /// compile_threshold`); 0 compiles eagerly at prepare time.
    compile_threshold: u64,
    /// Times this plan has been executed (run or analyze).
    executions: AtomicU64,
    /// Has the lazy compilation pass run (or been skipped as eager)?
    compiled: AtomicBool,
    /// Wall time spent preparing (EXPLAIN ANALYZE's compile/execute split).
    pub compile_nanos: u64,
}

impl PreparedQuery {
    /// Lower every predicate (and, for ungrouped queries, every projection
    /// column) to register programs. Idempotent; a no-op when compilation
    /// is disabled. `params` supply type classes only (fixed per shape).
    fn compile_now(&self, catalog: &Catalog, params: &[Value]) {
        if self.compiled.swap(true, AtomicOrdering::Relaxed) {
            return;
        }
        if !self.compile_enabled {
            return;
        }
        for p in self.preds.values() {
            p.compile(catalog, &self.var_class, params);
        }
        let grouped = !self.stmt.group_by.is_empty()
            || self
                .stmt
                .projection
                .iter()
                .any(|e| matches!(e, Expr::Agg { .. }));
        let _ = self.proj.get_or_init(|| {
            if grouped {
                Vec::new()
            } else {
                self.stmt
                    .projection
                    .iter()
                    .map(|e| compile_proj(catalog, &self.var_class, e, params))
                    .collect()
            }
        });
        // Grouped ORDER BY sorts output columns, not bound rows, and never
        // consults these programs.
        let _ = self.order_progs.get_or_init(|| {
            if grouped {
                Vec::new()
            } else {
                self.stmt
                    .order_by
                    .iter()
                    .map(|(path, _)| {
                        compile_proj(catalog, &self.var_class, &Expr::Path(path.clone()), params)
                    })
                    .collect()
            }
        });
    }

    /// Count one execution; once the count crosses the lazy-compilation
    /// threshold, compile the plan's predicates (charging the work to
    /// `compile_ns` at that point, not at prepare time).
    fn note_execution(&self, catalog: &Catalog, registry: &MetricsRegistry, params: &[Value]) {
        let n = self.executions.fetch_add(1, AtomicOrdering::Relaxed) + 1;
        if !self.compile_enabled || self.compiled.load(AtomicOrdering::Relaxed) {
            return;
        }
        if n >= self.compile_threshold.max(1) {
            let start = Instant::now();
            self.compile_now(catalog, params);
            registry.record_compile_ns(start.elapsed().as_nanos() as u64);
        }
    }

    /// The compiled projection columns, if the compilation pass has run.
    fn proj_cols(&self) -> Option<&[Option<RowProg>]> {
        self.proj.get().map(|v| v.as_slice())
    }

    /// The compiled ORDER BY key programs, if the compilation pass has run.
    fn order_cols(&self) -> Option<&[Option<RowProg>]> {
        self.order_progs.get().map(|v| v.as_slice())
    }
}

/// Collect the predicate texts of every Select/IndSel node in a plan.
fn plan_predicates<'p>(plan: &'p Plan, out: &mut Vec<&'p str>) {
    match plan {
        Plan::Select { input, predicate } => {
            out.push(predicate);
            plan_predicates(input, out);
        }
        Plan::IndSel { predicate, .. } => out.push(predicate),
        Plan::Join { left, right, .. } => {
            plan_predicates(left, out);
            plan_predicates(right, out);
        }
        Plan::Union { inputs } => {
            for p in inputs {
                plan_predicates(p, out);
            }
        }
        Plan::Project { input, .. } | Plan::Sort { input, .. } | Plan::Partition { input, .. } => {
            plan_predicates(input, out)
        }
        Plan::Bind { .. } | Plan::Temp { .. } => {}
    }
}

/// The executor.
///
/// The trace lives behind a `Mutex` (not a `RefCell`) so `&Executor` is
/// `Sync` — parallel operator chunks evaluate predicates through a shared
/// executor reference on worker threads.
pub struct Executor<'a> {
    pub catalog: &'a Catalog,
    pub funcman: &'a FunctionManager,
    pub config: OptimizerConfig,
    /// The values `$1, $2, …` stand for in whatever this executor runs.
    params: &'a [Value],
    trace: std::sync::Mutex<Vec<String>>,
    tracer: Tracer,
}

impl<'a> Executor<'a> {
    pub fn new(catalog: &'a Catalog, funcman: &'a FunctionManager) -> Executor<'a> {
        Executor {
            catalog,
            funcman,
            config: OptimizerConfig::default(),
            params: &[],
            trace: std::sync::Mutex::new(Vec::new()),
            tracer: Tracer::new(),
        }
    }

    pub fn with_config(mut self, config: OptimizerConfig) -> Self {
        self.config = config;
        self
    }

    /// Bind the parameter vector: `$n` evaluates to `params[n - 1]`.
    pub fn with_params(mut self, params: &'a [Value]) -> Self {
        self.params = params;
        self
    }

    /// The value bound to `$n`.
    fn param(&self, n: u16) -> Result<&'a Value> {
        (n as usize)
            .checked_sub(1)
            .and_then(|i| self.params.get(i))
            .ok_or_else(|| unbound_param(n, self.params.len()))
    }

    /// Every parameter the statement reads must be bound before anything
    /// runs (an empty extent must not hide the error).
    fn check_params(&self, nparams: u16) -> Result<()> {
        if nparams as usize > self.params.len() {
            return Err(unbound_param(nparams, self.params.len()));
        }
        Ok(())
    }

    /// Share a tracer: lifecycle and per-operator spans go to its
    /// subscribers.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The stage trace of the last query (Figure 7.1/7.2 conformance).
    pub fn trace(&self) -> Vec<String> {
        self.trace.lock().expect("trace lock").clone()
    }

    fn mark(&self, stage: impl Into<String>) {
        self.trace.lock().expect("trace lock").push(stage.into());
    }

    /// Filter rows by a predicate, in parallel when the execution config
    /// asks for it. Chunks are concatenated in input order, so survivors
    /// appear exactly as the sequential loop would emit them; the error
    /// from the earliest failing row wins either way.
    ///
    /// With a compiled form the register program evaluates each row
    /// (scratch registers are reused per worker, not per row); semantics
    /// are identical to the interpreter by construction.
    fn filter_rows(
        &self,
        rows: Vec<Row>,
        expr: &Expr,
        compiled: Option<&crate::compiled::RowPred>,
    ) -> Result<Vec<Row>> {
        let par = self.config.execution.parallelism;
        if par <= 1 {
            let mut kept = Vec::new();
            if let Some(pred) = compiled {
                let mut regs = Registers::with_params(self.params);
                for row in rows {
                    if pred.matches(self.catalog, &row, &mut regs)? {
                        kept.push(row);
                    }
                }
            } else {
                for row in rows {
                    if self.eval_pred(expr, &row)? {
                        kept.push(row);
                    }
                }
            }
            return Ok(kept);
        }
        run_chunked(par, &rows, |_, chunk| {
            let mut kept = Vec::new();
            if let Some(pred) = compiled {
                let mut regs = Registers::with_params(self.params);
                for row in chunk {
                    if pred.matches(self.catalog, row, &mut regs)? {
                        kept.push(row.clone());
                    }
                }
            } else {
                for row in chunk {
                    if self.eval_pred(expr, row)? {
                        kept.push(row.clone());
                    }
                }
            }
            Ok::<_, SqlError>(kept)
        })
    }

    /// Optimize only: the plan text (the `EXPLAIN` statement), with the
    /// cost model's per-node estimates in a comment block.
    pub fn explain(&self, stmt: &SelectStmt) -> Result<String> {
        let lowered = lower(self.catalog, stmt)?;
        let stats = self.catalog.stats();
        let optimized = optimize(&lowered.spec, &stats, &self.config);
        let mut out = String::new();
        for term in &optimized.terms {
            if !term.imm_sel_info.is_empty() {
                out.push_str("-- ImmSelInfo (predicate, selectivity, indexed cost, sequential cost, access):\n");
                for row in &term.imm_sel_info {
                    out.push_str(&format!(
                        "--   {} | {:.3e} | {} | {:.3} | {}\n",
                        row.predicate,
                        row.selectivity,
                        row.indexed_cost
                            .map_or_else(|| "-".to_string(), |c| format!("{c:.3}")),
                        row.sequential_cost,
                        if row.indexed_access {
                            "Indexed"
                        } else {
                            "Sequential"
                        }
                    ));
                }
            }
            if !term.path_sel_info.is_empty() {
                out.push_str("-- PathSelInfo (predicate, selectivity, F, F/(1-s)):\n");
                for row in &term.path_sel_info {
                    out.push_str(&format!(
                        "--   {} | {:.3e} | {:.3} | {:.3}\n",
                        row.predicate, row.selectivity, row.forward_cost, row.rank
                    ));
                }
            }
            let est = estimate_plan_set(&term.plan, &stats, &self.config);
            out.push_str(&render_estimates(&term.plan, &est));
            out.push_str(&term.plan.to_string());
            out.push('\n');
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // SELECT execution
    // ------------------------------------------------------------------

    pub fn run_select(&self, stmt: &SelectStmt) -> Result<QueryResult> {
        let lowered = self.bind_fresh(stmt)?;
        let mut exec_span = self
            .tracer
            .span("execute", self.catalog.storage().metrics());
        let rows = self.bound_rows(stmt, &lowered)?;
        let result = self.finish_select(stmt, rows, None, None, None)?;
        exec_span.set_rows(result.len() as u64);
        Ok(result)
    }

    /// Start a statement: reset the stage trace and lower it inside a
    /// `bind` span.
    fn bind_fresh(&self, stmt: &SelectStmt) -> Result<Lowered> {
        self.check_params(stmt.max_param())?;
        self.trace.lock().expect("trace lock").clear();
        let _span = self.tracer.span("bind", self.catalog.storage().metrics());
        lower(self.catalog, stmt)
    }

    /// FROM + WHERE of a lowered statement: the variable bindings the later
    /// clauses (or a DML apply step) consume.
    fn bound_rows(&self, stmt: &SelectStmt, lowered: &Lowered) -> Result<Vec<Row>> {
        self.mark("FROM");
        if lowered.unabsorbed.is_empty() {
            self.run_optimized(stmt, lowered)
        } else {
            self.run_nested_loop(stmt, lowered)
        }
    }

    /// The stored objects `UPDATE/DELETE <class> <var> WHERE p` acts on, each
    /// with the row that binds it to `var`: the target query (see
    /// [`SelectStmt::dml_target`]) bound, optimized and executed exactly as a
    /// SELECT would be — index probe when §8.1 picks one, scan + filter
    /// otherwise — and fully materialized before the caller writes
    /// anything, so a statement never sees its own updates.
    pub fn target_rows(
        &self,
        class: &str,
        var: &str,
        where_clause: Option<&Expr>,
    ) -> Result<Vec<(Oid, Row)>> {
        let target = SelectStmt::dml_target(class, var, where_clause.cloned());
        let lowered = self.bind_fresh(&target)?;
        let mut exec_span = self
            .tracer
            .span("execute", self.catalog.storage().metrics());
        let rows = self.bound_rows(&target, &lowered)?;
        // The rows are join bindings: DNF terms that bind different
        // variables, or a path through a SET-valued reference, bind the same
        // target more than once. Each object is acted on once.
        let mut seen: HashSet<Oid> = HashSet::new();
        let mut targets = Vec::with_capacity(rows.len());
        for row in rows {
            let Some(oid) = row.get(var).and_then(|b| b.oid) else {
                return Err(SqlError::Exec(format!(
                    "DML target {var} is not a stored object"
                )));
            };
            if seen.insert(oid) {
                targets.push((oid, row));
            }
        }
        exec_span.set_rows(targets.len() as u64);
        Ok(targets)
    }

    /// Execute with full instrumentation: the `EXPLAIN ANALYZE` statement.
    ///
    /// Every plan node runs inside a recording window (rows, inclusive
    /// counter delta, wall time), every coordinator stage inside a stage
    /// window, so the report's exclusive deltas plus stage deltas sum
    /// exactly to the statement's total counter delta.
    pub fn analyze(&self, stmt: &SelectStmt) -> Result<AnalyzeReport> {
        self.check_params(stmt.max_param())?;
        self.trace.lock().expect("trace lock").clear();
        let metrics = self.catalog.storage().metrics().clone();
        let registry = self.catalog.storage().registry().clone();
        let stages = StageRec::new(metrics.clone());
        let start = Instant::now();
        let before = metrics.snapshot();
        // PLAN: bind + statistics + optimize + per-node estimates.
        let (lowered, planned) = stages.window(
            "PLAN",
            |_: &_| 0,
            || {
                let lowered = {
                    let _span = self.tracer.span("bind", &metrics);
                    lower(self.catalog, stmt)?
                };
                if self.catalog.stats().class(&lowered.root.class).is_none() {
                    self.catalog.collect_stats()?;
                }
                let stats = self.catalog.stats();
                let _span = self.tracer.span("optimize", &metrics);
                let optimized = optimize(&lowered.spec, &stats, &self.config);
                let planned: Vec<(PlanSet, _)> = optimized
                    .terms
                    .iter()
                    .map(|t| {
                        (
                            t.plan.clone(),
                            estimate_plan_set(&t.plan, &stats, &self.config),
                        )
                    })
                    .collect();
                Ok((lowered, planned))
            },
        )?;
        let mut exec_span = self.tracer.span("execute", &metrics);
        self.mark("FROM");
        let mut terms: Vec<TermReport> = Vec::new();
        let mut all_rows: Vec<Row> = Vec::new();
        if lowered.unabsorbed.is_empty() {
            for (plan, est) in planned {
                let rec = AnalyzeRec::new(metrics.clone());
                let rows = self.exec_term(&plan, &lowered, Some(&rec), None, false)?;
                all_rows.extend(rows);
                let actuals = rec.into_nodes();
                record_operator_totals(&registry, &plan, &actuals);
                terms.push(TermReport::build(plan, est, actuals));
            }
            if terms.len() > 1 {
                self.mark("WHERE:UNION");
                all_rows = stages.window(
                    "WHERE:UNION",
                    |r: &Vec<Row>| r.len() as u64,
                    || {
                        let mut rows = all_rows;
                        dedupe_bindings(&mut rows);
                        Ok(rows)
                    },
                )?;
            }
        } else {
            // Nested-loop fallback: no per-operator plan, but the FROM
            // stage window keeps the page accounting complete.
            all_rows = stages.window(
                "FROM",
                |r: &Vec<Row>| r.len() as u64,
                || self.run_nested_loop(stmt, &lowered),
            )?;
        }
        let result = self.finish_select(stmt, all_rows, Some(&stages), None, None)?;
        exec_span.set_rows(result.len() as u64);
        drop(exec_span);
        let stages = stages.into_stages();
        let compile_nanos = stages
            .iter()
            .find(|s| s.name == "PLAN")
            .map(|s| s.nanos)
            .unwrap_or(0);
        Ok(AnalyzeReport {
            total: metrics.snapshot().delta(&before),
            elapsed_nanos: start.elapsed().as_nanos() as u64,
            result,
            terms,
            stages,
            cached: false,
            epoch: self.catalog.epoch(),
            compile_nanos,
            params: self.params.to_vec(),
        })
    }

    /// Execute a prepared (cached) plan with full instrumentation. The
    /// PLAN stage is absent — bind/optimize already happened at prepare
    /// time — so the report states `cached` and a zero compile cost.
    pub fn analyze_prepared(&self, pq: &PreparedQuery) -> Result<AnalyzeReport> {
        self.check_params(pq.nparams)?;
        self.trace.lock().expect("trace lock").clear();
        let metrics = self.catalog.storage().metrics().clone();
        let registry = self.catalog.storage().registry().clone();
        let stages = StageRec::new(metrics.clone());
        let start = Instant::now();
        let before = metrics.snapshot();
        pq.note_execution(self.catalog, &registry, self.params);
        let mut exec_span = self.tracer.span("execute", &metrics);
        self.mark("FROM");
        let mut terms: Vec<TermReport> = Vec::new();
        let mut all_rows: Vec<Row> = Vec::new();
        for (plan, est) in &pq.terms {
            let rec = AnalyzeRec::new(metrics.clone());
            // `fused: false`: EXPLAIN ANALYZE reports per-node actuals, so
            // the Bind child must execute (and record) separately.
            let rows = self.exec_term(plan, &pq.lowered, Some(&rec), Some(&pq.preds), false)?;
            all_rows.extend(rows);
            let actuals = rec.into_nodes();
            record_operator_totals(&registry, plan, &actuals);
            terms.push(TermReport::build(plan.clone(), est.clone(), actuals));
        }
        if terms.len() > 1 {
            self.mark("WHERE:UNION");
            all_rows = stages.window(
                "WHERE:UNION",
                |r: &Vec<Row>| r.len() as u64,
                || {
                    let mut rows = all_rows;
                    dedupe_bindings(&mut rows);
                    Ok(rows)
                },
            )?;
        }
        let result =
            self.finish_select(&pq.stmt, all_rows, Some(&stages), pq.proj_cols(), pq.order_cols())?;
        exec_span.set_rows(result.len() as u64);
        drop(exec_span);
        Ok(AnalyzeReport {
            total: metrics.snapshot().delta(&before),
            elapsed_nanos: start.elapsed().as_nanos() as u64,
            result,
            terms,
            stages: stages.into_stages(),
            cached: true,
            epoch: pq.epoch,
            compile_nanos: 0,
            params: self.params.to_vec(),
        })
    }

    /// GROUP BY / HAVING / projection / ORDER BY / DISTINCT in the Figure
    /// 7.1 clause order, optionally inside stage recording windows.
    fn finish_select(
        &self,
        stmt: &SelectStmt,
        mut rows: Vec<Row>,
        stages: Option<&StageRec>,
        proj: Option<&[Option<RowProg>]>,
        order: Option<&[Option<RowProg>]>,
    ) -> Result<QueryResult> {
        let grouped = !stmt.group_by.is_empty()
            || stmt
                .projection
                .iter()
                .any(|e| matches!(e, Expr::Agg { .. }));
        let mut result = if grouped {
            self.mark("GROUP BY");
            let groups = staged(
                stages,
                "GROUP BY",
                |g: &Vec<Vec<Row>>| g.len() as u64,
                || self.group_rows(&rows, &stmt.group_by),
            )?;
            let groups = if let Some(h) = &stmt.having {
                self.mark("HAVING");
                staged(
                    stages,
                    "HAVING",
                    |g: &Vec<Vec<Row>>| g.len() as u64,
                    || {
                        let mut kept = Vec::new();
                        for g in groups {
                            if self.eval_group_pred(h, &g)? {
                                kept.push(g);
                            }
                        }
                        Ok(kept)
                    },
                )?
            } else {
                groups
            };
            self.mark("PROJECT");
            staged(
                stages,
                "PROJECT",
                |r: &QueryResult| r.len() as u64,
                || {
                    let columns = self.column_labels(stmt);
                    let mut out_rows = Vec::new();
                    for g in &groups {
                        let mut out = Vec::new();
                        for p in &stmt.projection {
                            out.push(self.eval_group_expr(p, g)?);
                        }
                        out_rows.push(out);
                    }
                    Ok(QueryResult {
                        columns,
                        rows: out_rows,
                    })
                },
            )?
        } else {
            // ORDER BY applies to the bound rows pre-projection.
            if !stmt.order_by.is_empty() {
                self.mark("ORDER BY");
                let n = rows.len() as u64;
                staged(stages, "ORDER BY", move |_: &()| n, || {
                    self.sort_rows(&mut rows, &stmt.order_by, order)
                })?;
            }
            self.mark("PROJECT");
            staged(
                stages,
                "PROJECT",
                |r: &QueryResult| r.len() as u64,
                || {
                    let columns = self.column_labels(stmt);
                    let mut regs = Registers::with_params(self.params);
                    let mut out_rows = Vec::new();
                    for row in &rows {
                        let mut out = Vec::new();
                        for (i, p) in stmt.projection.iter().enumerate() {
                            let compiled =
                                proj.and_then(|cols| cols.get(i)).and_then(|c| c.as_ref());
                            out.push(match compiled {
                                Some(c) => c.eval(self.catalog, row, &mut regs)?,
                                None => self.eval_expr(p, row)?,
                            });
                        }
                        out_rows.push(out);
                    }
                    Ok(QueryResult {
                        columns,
                        rows: out_rows,
                    })
                },
            )?
        };
        // Grouped ORDER BY sorts output rows by matching columns.
        if grouped && !stmt.order_by.is_empty() {
            self.mark("ORDER BY");
            let n = result.len() as u64;
            staged(stages, "ORDER BY", move |_: &()| n, || {
                let keys: Vec<usize> = stmt
                    .order_by
                    .iter()
                    .filter_map(|(p, _)| result.columns.iter().position(|c| *c == p.render()))
                    .collect();
                let dirs: Vec<bool> = stmt.order_by.iter().map(|(_, asc)| *asc).collect();
                result.rows.sort_by(|a, b| {
                    for (ki, &col) in keys.iter().enumerate() {
                        let ord = a[col].compare(&b[col]).unwrap_or(std::cmp::Ordering::Equal);
                        let ord = if dirs.get(ki).copied().unwrap_or(true) {
                            ord
                        } else {
                            ord.reverse()
                        };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                Ok(())
            })?;
        }
        if stmt.distinct {
            staged(stages, "DISTINCT", |n: &u64| *n, || {
                let mut seen = HashSet::new();
                result.rows.retain(|r| {
                    let key: Vec<u8> = r.iter().flat_map(encode_value).collect();
                    seen.insert(key)
                });
                Ok(result.rows.len() as u64)
            })?;
        }
        Ok(result)
    }

    /// Result column labels: the projection as written, so a parameter
    /// reads as the literal it stands for.
    fn column_labels(&self, stmt: &SelectStmt) -> Vec<String> {
        stmt.projection
            .iter()
            .map(|e| e.render_with(self.params))
            .collect()
    }

    fn run_optimized(&self, _stmt: &SelectStmt, lowered: &Lowered) -> Result<Vec<Row>> {
        // Ensure statistics exist for the root class; first use collects.
        if self.catalog.stats().class(&lowered.root.class).is_none() {
            self.catalog.collect_stats()?;
        }
        let metrics = self.catalog.storage().metrics().clone();
        let registry = self.catalog.storage().registry().clone();
        let optimized = {
            let _span = self.tracer.span("optimize", &metrics);
            optimize(&lowered.spec, &self.catalog.stats(), &self.config)
        };
        let mut all_rows: Vec<Row> = Vec::new();
        for term in &optimized.terms {
            // Ordinary SELECTs record per-node actuals too: the registry's
            // per-operator lifetime totals come from every execution.
            let rec = AnalyzeRec::new(metrics.clone());
            let rows = self.exec_term(&term.plan, lowered, Some(&rec), None, true)?;
            all_rows.extend(rows);
            record_operator_totals(&registry, &term.plan, &rec.into_nodes());
        }
        if optimized.terms.len() > 1 {
            self.mark("WHERE:UNION");
            dedupe_bindings(&mut all_rows);
        }
        Ok(all_rows)
    }

    // ------------------------------------------------------------------
    // Prepared execution (plan cache)
    // ------------------------------------------------------------------

    /// Bind, optimize, estimate, and pre-compile a SELECT once, producing
    /// a plan the session cache can re-execute without touching the parser
    /// or optimizer. Returns `None` for statements the optimizer's
    /// single-root model cannot absorb (the nested-loop fallback path) —
    /// those are executed uncached.
    ///
    /// Every Select/IndSel predicate in the plan is pre-parsed, and
    /// lowered to a register program when the compiling bridge covers it;
    /// ungrouped projection columns likewise. `epoch` is read after any
    /// first-use statistics collection (which bumps it), so a cached entry
    /// stays valid until the next DDL or statistics refresh.
    pub fn prepare(&self, stmt: &SelectStmt) -> Result<Option<PreparedQuery>> {
        let nparams = stmt.max_param();
        self.check_params(nparams)?;
        let metrics = self.catalog.storage().metrics().clone();
        let registry = self.catalog.storage().registry().clone();
        let start = Instant::now();
        let lowered = {
            let _span = self.tracer.span("bind", &metrics);
            lower(self.catalog, stmt)?
        };
        if !lowered.unabsorbed.is_empty() {
            return Ok(None);
        }
        if self.catalog.stats().class(&lowered.root.class).is_none() {
            self.catalog.collect_stats()?;
        }
        let stats = self.catalog.stats();
        let optimized = {
            let _span = self.tracer.span("optimize", &metrics);
            optimize(&lowered.spec, &stats, &self.config)
        };
        let epoch = self.catalog.epoch();
        let terms: Vec<(PlanSet, Vec<NodeEstimate>)> = optimized
            .terms
            .iter()
            .map(|t| {
                (
                    t.plan.clone(),
                    estimate_plan_set(&t.plan, &stats, &self.config),
                )
            })
            .collect();
        let var_class: HashMap<String, String> = stmt
            .from
            .iter()
            .map(|f| (f.var.clone(), f.class.clone()))
            .collect();
        let mut preds: HashMap<String, PreparedPred> = HashMap::new();
        for (set, _) in &terms {
            for plan in set.temps.iter().map(|(_, p)| p).chain([&set.root]) {
                let mut texts = Vec::new();
                plan_predicates(plan, &mut texts);
                for text in texts {
                    if preds.contains_key(text) {
                        continue;
                    }
                    let stripped = text.strip_prefix("__join__ ").unwrap_or(text);
                    preds.insert(text.to_string(), PreparedPred::new(parse_expr(stripped)?));
                }
            }
        }
        let mut pq = PreparedQuery {
            stmt: stmt.clone(),
            nparams,
            lowered,
            terms,
            epoch,
            preds,
            proj: OnceLock::new(),
            order_progs: OnceLock::new(),
            var_class,
            compile_enabled: self.config.compiled_predicates,
            compile_threshold: self.config.compile_threshold,
            executions: AtomicU64::new(0),
            compiled: AtomicBool::new(false),
            compile_nanos: 0,
        };
        // Threshold 0 keeps the eager discipline: compile during prepare,
        // inside this compile-time window. Any other threshold defers to
        // `note_execution`, so one-shot statements skip compilation.
        if pq.compile_threshold == 0 {
            pq.compile_now(self.catalog, self.params);
        }
        let compile_nanos = start.elapsed().as_nanos() as u64;
        registry.record_compile_ns(compile_nanos);
        pq.compile_nanos = compile_nanos;
        Ok(Some(pq))
    }

    /// Execute a prepared plan with this executor's parameters: no parse,
    /// no bind, no optimize. Trace marks and per-operator registry totals
    /// are identical to an uncached run of the same plan.
    pub fn run_prepared(&self, pq: &PreparedQuery) -> Result<QueryResult> {
        self.check_params(pq.nparams)?;
        self.trace.lock().expect("trace lock").clear();
        let metrics = self.catalog.storage().metrics().clone();
        let registry = self.catalog.storage().registry().clone();
        pq.note_execution(self.catalog, &registry, self.params);
        let mut exec_span = self.tracer.span("execute", &metrics);
        self.mark("FROM");
        let mut all_rows: Vec<Row> = Vec::new();
        for (plan, _) in &pq.terms {
            let rec = AnalyzeRec::new(metrics.clone());
            let rows = self.exec_term(plan, &pq.lowered, Some(&rec), Some(&pq.preds), true)?;
            all_rows.extend(rows);
            record_operator_totals(&registry, plan, &rec.into_nodes());
        }
        if pq.terms.len() > 1 {
            self.mark("WHERE:UNION");
            dedupe_bindings(&mut all_rows);
        }
        let result =
            self.finish_select(&pq.stmt, all_rows, None, pq.proj_cols(), pq.order_cols())?;
        exec_span.set_rows(result.len() as u64);
        Ok(result)
    }

    /// Execute one term's plan set: temps in creation order, then the root.
    /// Node ids follow the shared pre-order scheme over `[temps…, root]`.
    fn exec_term(
        &self,
        set: &PlanSet,
        lowered: &Lowered,
        rec: Option<&AnalyzeRec>,
        preds: Option<&HashMap<String, PreparedPred>>,
        fused: bool,
    ) -> Result<Vec<Row>> {
        let mut temps: HashMap<String, Vec<Row>> = HashMap::new();
        let mut offset = 0usize;
        for (name, plan) in &set.temps {
            let rows = self.exec_plan_at(plan, offset, lowered, &temps, rec, preds, fused)?;
            offset += plan.subtree_size();
            temps.insert(name.clone(), rows);
        }
        self.exec_plan_at(&set.root, offset, lowered, &temps, rec, preds, fused)
    }

    /// Fallback for queries the optimizer's single-root model cannot
    /// absorb: nested-loop product over the FROM extents plus a residual
    /// WHERE filter.
    fn run_nested_loop(&self, stmt: &SelectStmt, lowered: &Lowered) -> Result<Vec<Row>> {
        let mut rows: Vec<Row> = vec![Row::new()];
        for item in &stmt.from {
            let extent: Vec<(Oid, Arc<Value>)> = if item.every {
                self.catalog.extent_every(&item.class, &item.minus)?
            } else {
                self.catalog.extent(&item.class)?
            }
            .into_iter()
            .map(|(o, v)| (o, Arc::new(v)))
            .collect();
            let mut next = Vec::with_capacity(rows.len() * extent.len());
            for row in &rows {
                for (oid, value) in &extent {
                    let mut r = row.clone();
                    r.insert(
                        item.var.clone(),
                        BoundObj {
                            oid: Some(*oid),
                            value: value.clone(),
                        },
                    );
                    next.push(r);
                }
            }
            rows = next;
        }
        let _ = lowered;
        if let Some(w) = &stmt.where_clause {
            self.mark("WHERE:SELECT");
            rows = self.filter_rows(rows, w, None)?;
        }
        Ok(rows)
    }

    // ------------------------------------------------------------------
    // Plan interpretation
    // ------------------------------------------------------------------

    /// Execute the node at pre-order id `nid`, recording rows, the
    /// inclusive counter delta, and wall time when instrumented.
    ///
    /// Snapshots are taken on this (coordinating) thread: chunk-parallel
    /// operators join their workers before returning, so the window still
    /// covers every page they touch.
    #[allow(clippy::too_many_arguments)]
    fn exec_plan_at(
        &self,
        plan: &Plan,
        nid: usize,
        lowered: &Lowered,
        temps: &HashMap<String, Vec<Row>>,
        rec: Option<&AnalyzeRec>,
        preds: Option<&HashMap<String, PreparedPred>>,
        fused: bool,
    ) -> Result<Vec<Row>> {
        if rec.is_none() && !self.tracer.enabled() {
            return self.exec_plan_node(plan, nid, lowered, temps, rec, preds, fused);
        }
        let metrics = self.catalog.storage().metrics();
        let mut span = self.tracer.span(format!("op:{}", op_kind(plan)), metrics);
        let start = Instant::now();
        let before = rec.map(|r| r.metrics.snapshot());
        let rows = self.exec_plan_node(plan, nid, lowered, temps, rec, preds, fused)?;
        span.set_rows(rows.len() as u64);
        if let (Some(r), Some(before)) = (rec, before) {
            r.record(
                nid,
                rows.len() as u64,
                r.metrics.snapshot().delta(&before),
                start.elapsed().as_nanos() as u64,
            );
        }
        Ok(rows)
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_plan_node(
        &self,
        plan: &Plan,
        nid: usize,
        lowered: &Lowered,
        temps: &HashMap<String, Vec<Row>>,
        rec: Option<&AnalyzeRec>,
        preds: Option<&HashMap<String, PreparedPred>>,
        fused: bool,
    ) -> Result<Vec<Row>> {
        match plan {
            Plan::Bind { class, var } => {
                // Stream the extent scan straight into rows (no
                // intermediate (oid, value) vector).
                let mut rows = Vec::new();
                let mut push = |oid: Oid, value| {
                    let mut row = Row::new();
                    row.insert(
                        var.clone(),
                        BoundObj {
                            oid: Some(oid),
                            value: Arc::new(value),
                        },
                    );
                    rows.push(row);
                    true
                };
                if var == &lowered.root.var && lowered.root.every {
                    self.catalog.extent_every_with(
                        class,
                        &lowered.root.minus,
                        AccessHint::Sequential,
                        &mut push,
                    )?;
                } else {
                    self.catalog
                        .extent_with(class, AccessHint::Sequential, &mut push)?;
                }
                Ok(rows)
            }
            Plan::Temp { name } => temps
                .get(name)
                .cloned()
                .ok_or_else(|| SqlError::Exec(format!("unknown temporary {name}"))),
            Plan::IndSel {
                class,
                var,
                index_kind,
                predicate,
            } => {
                self.mark("WHERE:SELECT");
                let prepared = preds.and_then(|m| m.get(predicate.as_str()));
                let parsed;
                let expr = match prepared {
                    Some(p) => &p.expr,
                    None => {
                        parsed = parse_expr(predicate)?;
                        &parsed
                    }
                };
                let conjuncts = flatten_and(expr);
                let mut oid_set: Option<HashSet<Oid>> = None;
                for p in &conjuncts {
                    let oids = self.index_probe(class, p)?;
                    oid_set = Some(match oid_set {
                        None => oids.into_iter().collect(),
                        Some(prev) => oids.into_iter().filter(|o| prev.contains(o)).collect(),
                    });
                }
                // A path index covers the class and every subclass, which
                // may be more extents than the FROM item ranges over: only
                // members of the item's own range are answers. Attribute
                // indexes cover exactly the own extent and skip the check.
                let range = (index_kind == "PATH_INDEX").then(|| {
                    if var == &lowered.root.var && lowered.root.every {
                        self.catalog.every_classes(class, &lowered.root.minus)
                    } else {
                        vec![class.clone()]
                    }
                });
                let compiled = prepared.and_then(|p| p.compiled());
                let mut regs = Registers::with_params(self.params);
                let mut rows = Vec::new();
                for oid in oid_set.unwrap_or_default() {
                    if let Some(range) = &range {
                        if !self
                            .catalog
                            .class_of_oid(oid)
                            .is_some_and(|c| range.contains(&c))
                        {
                            continue;
                        }
                    }
                    let Ok((_, value)) = self.catalog.get_object(oid) else {
                        continue; // stale index entry (rebuild-on-demand)
                    };
                    let mut row = Row::new();
                    row.insert(
                        var.clone(),
                        BoundObj {
                            oid: Some(oid),
                            value: Arc::new(value),
                        },
                    );
                    // Re-verify: path indexes are rebuilt on demand, so an
                    // entry may be stale; evaluating the predicate on the
                    // fetched object guarantees correct answers regardless.
                    let keep = match compiled {
                        Some(c) => c.matches(self.catalog, &row, &mut regs)?,
                        None => self.eval_pred(expr, &row)?,
                    };
                    if keep {
                        rows.push(row);
                    }
                }
                rows.sort_by_key(|r| r.get(var).and_then(|b| b.oid));
                Ok(rows)
            }
            Plan::Select { input, predicate } => {
                // Fused batched scan: a Select directly over a Bind with a
                // compiled predicate streams the extent in batches and
                // builds Rows only for survivors. Gated off on analyze
                // paths, where the Bind node must record its own actuals.
                if fused {
                    if let (Plan::Bind { class, var }, Some(pred)) = (
                        &**input,
                        preds
                            .and_then(|m| m.get(predicate.as_str()))
                            .and_then(|p| p.compiled()),
                    ) {
                        if pred.var == *var {
                            return self.fused_scan_select(class, var, lowered, pred);
                        }
                    }
                }
                let rows = self.exec_plan_at(input, nid + 1, lowered, temps, rec, preds, fused)?;
                self.mark("WHERE:SELECT");
                match preds.and_then(|m| m.get(predicate.as_str())) {
                    Some(p) => self.filter_rows(rows, &p.expr, p.compiled()),
                    None => {
                        let text = predicate.strip_prefix("__join__ ").unwrap_or(predicate);
                        let expr = parse_expr(text)?;
                        self.filter_rows(rows, &expr, None)
                    }
                }
            }
            Plan::Join {
                left,
                right,
                method,
                condition,
            } => {
                let left_rows =
                    self.exec_plan_at(left, nid + 1, lowered, temps, rec, preds, fused)?;
                let right_nid = nid + 1 + left.subtree_size();
                let out = self.exec_join(
                    left_rows, right, right_nid, *method, condition, lowered, temps, rec, preds,
                    fused,
                )?;
                self.mark("WHERE:JOIN");
                Ok(out)
            }
            Plan::Union { inputs } => {
                let mut all = Vec::new();
                let mut kid = nid + 1;
                for p in inputs {
                    all.extend(self.exec_plan_at(p, kid, lowered, temps, rec, preds, fused)?);
                    kid += p.subtree_size();
                }
                self.mark("WHERE:UNION");
                Ok(all)
            }
            other => Err(SqlError::Exec(format!(
                "plan node {other:?} is handled at the statement level"
            ))),
        }
    }

    /// The fused scan+select: stream the heap scan into batches of
    /// `batch_size` objects and evaluate the compiled predicate per batch
    /// with one register file and one per-batch deref cache, so funcman
    /// dispatch, register setup and catalog dereferences amortize across
    /// the batch. Rows (the per-object `BTreeMap` bindings) are built only
    /// for survivors. Output is byte-identical to scan-then-filter: same
    /// objects, same extent order.
    fn fused_scan_select(
        &self,
        class: &str,
        var: &str,
        lowered: &Lowered,
        pred: &RowPred,
    ) -> Result<Vec<Row>> {
        self.mark("WHERE:SELECT");
        let batch = self.config.execution.batch_size.max(1);
        let registry = self.catalog.storage().registry().clone();
        let mut rows: Vec<Row> = Vec::new();
        let mut buf: Vec<(Oid, Value)> = Vec::with_capacity(batch);
        let mut regs = Registers::with_params(self.params);
        let mut first_err: Option<SqlError> = None;
        {
            let mut sink = |oid: Oid, value: Value| {
                buf.push((oid, value));
                if buf.len() >= batch {
                    registry.record_batch(buf.len() as u64);
                    if let Err(e) = self.eval_scan_batch(pred, var, &mut buf, &mut regs, &mut rows)
                    {
                        first_err = Some(e);
                        return false;
                    }
                }
                true
            };
            if var == lowered.root.var && lowered.root.every {
                self.catalog.extent_every_with(
                    class,
                    &lowered.root.minus,
                    AccessHint::Sequential,
                    &mut sink,
                )?;
            } else {
                self.catalog
                    .extent_with(class, AccessHint::Sequential, &mut sink)?;
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if !buf.is_empty() {
            registry.record_batch(buf.len() as u64);
            self.eval_scan_batch(pred, var, &mut buf, &mut regs, &mut rows)?;
        }
        Ok(rows)
    }

    /// Evaluate one scan batch: shared registers, fresh per-batch deref
    /// cache, Rows constructed for matches only.
    fn eval_scan_batch(
        &self,
        pred: &RowPred,
        var: &str,
        buf: &mut Vec<(Oid, Value)>,
        regs: &mut Registers,
        rows: &mut Vec<Row>,
    ) -> Result<()> {
        let resolver = CachingResolver::new(self.catalog);
        for (oid, value) in buf.drain(..) {
            if pred.matches_value(&resolver, &value, regs)? {
                let mut row = Row::new();
                row.insert(
                    var.to_string(),
                    BoundObj {
                        oid: Some(oid),
                        value: Arc::new(value),
                    },
                );
                rows.push(row);
            }
        }
        Ok(())
    }

    fn index_probe(&self, class: &str, p: &Expr) -> Result<Vec<Oid>> {
        let Expr::Compare { op, left, right } = p else {
            return Err(SqlError::Exec(format!(
                "INDSEL predicate not a comparison: {p:?}"
            )));
        };
        let (Expr::Path(path), key) = (&**left, &**right) else {
            return Err(SqlError::Exec("INDSEL predicate shape".into()));
        };
        let key = match key {
            Expr::Literal(lit) => lit_value(lit),
            Expr::Param(n) => self.param(*n)?.clone(),
            _ => return Err(SqlError::Exec("INDSEL predicate shape".into())),
        };
        if path.segments.is_empty() {
            return Err(SqlError::Exec(
                "INDSEL predicate must target an attribute".into(),
            ));
        }
        // Dotted join handles both plain attributes and whole-path indexes.
        let attr = &path.segments.join(".");
        Ok(match op {
            crate::ast::CmpOp::Eq => self.catalog.index_lookup(class, attr, &key)?,
            crate::ast::CmpOp::Lt => {
                self.catalog
                    .index_range(class, attr, None, Some((&key, false)))?
            }
            crate::ast::CmpOp::Le => {
                self.catalog
                    .index_range(class, attr, None, Some((&key, true)))?
            }
            crate::ast::CmpOp::Gt => {
                self.catalog
                    .index_range(class, attr, Some((&key, false)), None)?
            }
            crate::ast::CmpOp::Ge => {
                self.catalog
                    .index_range(class, attr, Some((&key, true)), None)?
            }
            crate::ast::CmpOp::Ne => {
                return Err(SqlError::Exec("<> cannot be index-served".into()))
            }
        })
    }

    /// Execute one implicit join following the plan's method.
    ///
    /// `right_nid` is the right child's pre-order id. When the right side
    /// stays unmaterialized (a Class fetched per probe), no actuals are
    /// recorded for it and its pages land in the join's exclusive delta;
    /// upfront materialization (backward traversal / BJI) gets its own
    /// recording window so the child still reports rows and pages.
    #[allow(clippy::too_many_arguments)]
    fn exec_join(
        &self,
        left_rows: Vec<Row>,
        right: &Plan,
        right_nid: usize,
        method: JoinMethod,
        condition: &str,
        lowered: &Lowered,
        temps: &HashMap<String, Vec<Row>>,
        rec: Option<&AnalyzeRec>,
        preds: Option<&HashMap<String, PreparedPred>>,
        fused: bool,
    ) -> Result<Vec<Row>> {
        // Condition shape: "x.attr = y.self".
        let (lhs, rhs) = condition
            .split_once(" = ")
            .ok_or_else(|| SqlError::Exec(format!("unsupported join condition: {condition}")))?;
        let (x_var, attr) = lhs
            .split_once('.')
            .ok_or_else(|| SqlError::Exec(format!("bad join lhs: {lhs}")))?;
        let y_var = rhs
            .strip_suffix(".self")
            .ok_or_else(|| SqlError::Exec(format!("bad join rhs: {rhs}")))?;

        // Describe the right side.
        let right_side = match right {
            Plan::Bind { class, .. } => RightSideImpl::Class {
                class: class.clone(),
                filter: None,
            },
            Plan::Select { input, predicate } => {
                if let Plan::Bind { class, .. } = &**input {
                    let filter = match preds.and_then(|m| m.get(predicate.as_str())) {
                        Some(p) => p.expr.clone(),
                        None => parse_expr(
                            predicate.strip_prefix("__join__ ").unwrap_or(predicate),
                        )?,
                    };
                    RightSideImpl::Class {
                        class: class.clone(),
                        filter: Some(filter),
                    }
                } else {
                    let rows =
                        self.exec_plan_at(right, right_nid, lowered, temps, rec, preds, fused)?;
                    RightSideImpl::Rows(key_rows_by(&rows, y_var))
                }
            }
            other => {
                let rows = self.exec_plan_at(other, right_nid, lowered, temps, rec, preds, fused)?;
                RightSideImpl::Rows(key_rows_by(&rows, y_var))
            }
        };

        // For backward traversal and the binary join index the right side
        // is materialized up front (the scan/probe source).
        let right_side = match (method, right_side) {
            (
                JoinMethod::BackwardTraversal | JoinMethod::BinaryJoinIndex,
                RightSideImpl::Class { class, filter },
            ) => {
                let start = Instant::now();
                let before = rec.map(|r| r.metrics.snapshot());
                let mut map: HashMap<Oid, Vec<Row>> = HashMap::new();
                let mut first_err: Option<SqlError> = None;
                self.catalog
                    .extent_with(&class, AccessHint::Sequential, &mut |oid, value| {
                        let mut row = Row::new();
                        row.insert(
                            y_var.to_string(),
                            BoundObj {
                                oid: Some(oid),
                                value: Arc::new(value),
                            },
                        );
                        if let Some(f) = &filter {
                            match self.eval_pred(f, &row) {
                                Ok(false) => return true,
                                Ok(true) => {}
                                Err(e) => {
                                    first_err = Some(e);
                                    return false;
                                }
                            }
                        }
                        map.entry(oid).or_default().push(row);
                        true
                    })?;
                if let Some(e) = first_err {
                    return Err(e);
                }
                if let (Some(r), Some(before)) = (rec, before) {
                    let rows: u64 = map.values().map(|v| v.len() as u64).sum();
                    r.record(
                        right_nid,
                        rows,
                        r.metrics.snapshot().delta(&before),
                        start.elapsed().as_nanos() as u64,
                    );
                }
                RightSideImpl::Rows(map)
            }
            (_, rs) => rs,
        };

        let mut out = Vec::new();
        match method {
            JoinMethod::BinaryJoinIndex => {
                let RightSideImpl::Rows(map) = &right_side else {
                    unreachable!()
                };
                // Left class from the first bound object.
                let left_class = left_rows
                    .iter()
                    .find_map(|r| r.get(x_var).and_then(|b| b.oid))
                    .map(|oid| self.catalog.get_object(oid).map(|(c, _)| c))
                    .transpose()?;
                let Some(left_class) = left_class else {
                    return Ok(out);
                };
                let mut left_by_oid: HashMap<Oid, Vec<&Row>> = HashMap::new();
                for r in &left_rows {
                    if let Some(oid) = r.get(x_var).and_then(|b| b.oid) {
                        left_by_oid.entry(oid).or_default().push(r);
                    }
                }
                let mut keys: Vec<&Oid> = map.keys().collect();
                keys.sort();
                for y_oid in keys {
                    for l_oid in
                        self.catalog
                            .index_lookup(&left_class, attr, &Value::Ref(*y_oid))?
                    {
                        if let Some(lrows) = left_by_oid.get(&l_oid) {
                            for l in lrows {
                                for r in &map[y_oid] {
                                    let mut merged = (*l).clone();
                                    merged.extend(r.clone());
                                    out.push(merged);
                                }
                            }
                        }
                    }
                }
                out.sort_by_key(|r| r.get(x_var).and_then(|b| b.oid));
            }
            JoinMethod::HashPartition => {
                // Partition: group left rows by referenced OID; fetch each
                // distinct target once.
                let mut partitions: BTreeMap<Oid, Vec<usize>> = BTreeMap::new();
                for (i, row) in left_rows.iter().enumerate() {
                    for oid in self.row_refs(row, x_var, attr)? {
                        partitions.entry(oid).or_default().push(i);
                    }
                }
                for (oid, members) in partitions {
                    let matches = right_side.resolve(self, oid, y_var)?;
                    for r in matches {
                        for &i in &members {
                            let mut merged = left_rows[i].clone();
                            merged.extend(r.clone());
                            out.push(merged);
                        }
                    }
                }
                out.sort_by_key(|r| r.get(x_var).and_then(|b| b.oid));
            }
            JoinMethod::ForwardTraversal | JoinMethod::BackwardTraversal => {
                // Feed the affinity tracker: each forward chase over an
                // unmaterialized right side is one (source class, attr,
                // target OID) observation in probe order — the actual I/O
                // pattern `CLUSTER` would improve. Resolved once per join
                // (a map lookup per row would be waste); `None` when the
                // tracker is off, so the disabled path costs one bool load.
                let affinity = self.catalog.storage().affinity().clone();
                let chase_src: Option<String> = if affinity.is_enabled()
                    && method == JoinMethod::ForwardTraversal
                    && matches!(right_side, RightSideImpl::Class { .. })
                {
                    left_rows
                        .iter()
                        .find_map(|r| r.get(x_var).and_then(|b| b.oid))
                        .and_then(|o| self.catalog.class_of_oid(o))
                } else {
                    None
                };
                // Batched probe side: process left rows in batches with a
                // per-batch resolution cache, so a reference shared by many
                // rows of a batch fetches (and filters) its target once.
                // Gated off on analyze paths, where per-probe page actuals
                // must stay faithful to the paper's cost model. Output is
                // identical either way: same pairs, same order.
                if fused && matches!(right_side, RightSideImpl::Class { .. }) {
                    let batch = self.config.execution.batch_size.max(1);
                    let registry = self.catalog.storage().registry().clone();
                    let pool = self.catalog.storage().pool().clone();
                    let mut pages: Vec<(FileId, PageId)> = Vec::new();
                    for chunk in left_rows.chunks(batch) {
                        // Pipelined probe prefetch: collect the chunk's
                        // target pages sorted, then, at each cache-miss
                        // probe, batch-read the consecutive run ahead of
                        // it (one readahead window at a time — see
                        // `BufferPool::prefetch_run`). After `CLUSTER`
                        // puts targets in probe order the chase becomes
                        // one batched read per window; on scattered heaps
                        // runs degenerate to single pages and nothing is
                        // issued.
                        if method == JoinMethod::ForwardTraversal {
                            pages.clear();
                            for row in chunk {
                                for oid in self.row_refs(row, x_var, attr)? {
                                    pages.push((oid.file, oid.page));
                                }
                            }
                            pages.sort_unstable();
                            pages.dedup();
                        }
                        // Exclusive end of the last prefetched run; probes
                        // inside it skip the re-issue.
                        let mut pf_end: Option<(FileId, u32)> = None;
                        let mut cache: HashMap<Oid, Vec<Row>> = HashMap::new();
                        for row in chunk {
                            for oid in self.row_refs(row, x_var, attr)? {
                                if let Some(src) = &chase_src {
                                    affinity.record_chase(src, attr, oid);
                                }
                                let targets = match cache.entry(oid) {
                                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                                    std::collections::hash_map::Entry::Vacant(e) => {
                                        if method == JoinMethod::ForwardTraversal
                                            && pf_end.is_none_or(|(f, end)| {
                                                f != oid.file || oid.page.0 >= end
                                            })
                                        {
                                            let n =
                                                pool.prefetch_run(&pages, (oid.file, oid.page));
                                            if n > 0 {
                                                pf_end = Some((oid.file, oid.page.0 + n));
                                            }
                                        }
                                        let m = right_side.resolve(self, oid, y_var)?;
                                        e.insert(m)
                                    }
                                };
                                for r in targets.iter() {
                                    let mut merged = row.clone();
                                    merged.extend(r.clone());
                                    out.push(merged);
                                }
                            }
                        }
                        registry.record_batch(chunk.len() as u64);
                    }
                } else {
                    for row in &left_rows {
                        for oid in self.row_refs(row, x_var, attr)? {
                            if let Some(src) = &chase_src {
                                affinity.record_chase(src, attr, oid);
                            }
                            let matches = right_side.resolve(self, oid, y_var)?;
                            for r in matches {
                                let mut merged = row.clone();
                                merged.extend(r);
                                out.push(merged);
                            }
                        }
                    }
                }
            }
        }
        return Ok(out);

        fn key_rows_by(rows: &[Row], var: &str) -> HashMap<Oid, Vec<Row>> {
            let mut map: HashMap<Oid, Vec<Row>> = HashMap::new();
            for r in rows {
                if let Some(oid) = r.get(var).and_then(|b| b.oid) {
                    map.entry(oid).or_default().push(r.clone());
                }
            }
            map
        }
    }

    /// The reference OIDs of `row[var].attr`.
    fn row_refs(&self, row: &Row, var: &str, attr: &str) -> Result<Vec<Oid>> {
        let Some(bound) = row.get(var) else {
            return Ok(Vec::new());
        };
        Ok(match bound.value.field(attr) {
            Some(Value::Ref(oid)) => vec![*oid],
            Some(Value::Set(items)) | Some(Value::List(items)) => {
                items.iter().filter_map(|i| i.as_oid()).collect()
            }
            _ => Vec::new(),
        })
    }

    // ------------------------------------------------------------------
    // Expression evaluation
    // ------------------------------------------------------------------

    /// Evaluate an expression against a row.
    pub fn eval_expr(&self, e: &Expr, row: &Row) -> Result<Value> {
        Ok(match e {
            Expr::Literal(l) => lit_value(l),
            Expr::Param(n) => self.param(*n)?.clone(),
            Expr::Path(p) => self.eval_path(p, row)?,
            Expr::MethodCall { base, method, args } => {
                let mut arg_vals = Vec::with_capacity(args.len());
                for a in args {
                    arg_vals.push(self.eval_expr(a, row)?);
                }
                // Resolve the receiver: the path must end at a stored
                // object (a Ref or the variable itself).
                let receiver_oid = if base.segments.is_empty() {
                    row.get(&base.var).and_then(|b| b.oid)
                } else {
                    self.eval_path(base, row)?.as_oid()
                };
                let Some(oid) = receiver_oid else {
                    return Err(SqlError::Exec(format!(
                        "method {method}() needs a stored receiver ({} unresolved)",
                        base.render()
                    )));
                };
                self.funcman.invoke(oid, method, &arg_vals)?
            }
            Expr::Agg { .. } => {
                return Err(SqlError::Exec("aggregate outside GROUP BY context".into()))
            }
            Expr::Compare { op, left, right } => {
                let l = self.eval_expr(left, row)?;
                let r = self.eval_expr(right, row)?;
                if l.is_null() || r.is_null() {
                    return Ok(Value::Null);
                }
                match l.compare(&r) {
                    Some(ord) => Value::Boolean(match op {
                        crate::ast::CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                        crate::ast::CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                        crate::ast::CmpOp::Lt => ord == std::cmp::Ordering::Less,
                        crate::ast::CmpOp::Le => ord != std::cmp::Ordering::Greater,
                        crate::ast::CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                        crate::ast::CmpOp::Ge => ord != std::cmp::Ordering::Less,
                    }),
                    None => return Err(SqlError::Exec(format!("cannot compare {l} with {r}"))),
                }
            }
            Expr::Between { expr, lo, hi } => {
                let v = self.eval_expr(expr, row)?;
                let lo = self.eval_expr(lo, row)?;
                let hi = self.eval_expr(hi, row)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                let ge = v.compare(&lo).map(|o| o != std::cmp::Ordering::Less);
                let le = v.compare(&hi).map(|o| o != std::cmp::Ordering::Greater);
                match (ge, le) {
                    (Some(a), Some(b)) => Value::Boolean(a && b),
                    _ => return Err(SqlError::Exec("BETWEEN on incomparable values".into())),
                }
            }
            Expr::And(parts) => {
                let mut saw_null = false;
                for p in parts {
                    match self.eval_expr(p, row)? {
                        Value::Boolean(false) => return Ok(Value::Boolean(false)),
                        Value::Boolean(true) => {}
                        Value::Null => saw_null = true,
                        other => {
                            return Err(SqlError::Exec(format!("AND over non-Boolean {other}")))
                        }
                    }
                }
                if saw_null {
                    Value::Null
                } else {
                    Value::Boolean(true)
                }
            }
            Expr::Or(parts) => {
                let mut saw_null = false;
                for p in parts {
                    match self.eval_expr(p, row)? {
                        Value::Boolean(true) => return Ok(Value::Boolean(true)),
                        Value::Boolean(false) => {}
                        Value::Null => saw_null = true,
                        other => {
                            return Err(SqlError::Exec(format!("OR over non-Boolean {other}")))
                        }
                    }
                }
                if saw_null {
                    Value::Null
                } else {
                    Value::Boolean(false)
                }
            }
            Expr::Not(inner) => match self.eval_expr(inner, row)? {
                Value::Boolean(b) => Value::Boolean(!b),
                Value::Null => Value::Null,
                other => return Err(SqlError::Exec(format!("NOT over non-Boolean {other}"))),
            },
            Expr::Arith { op, left, right } => {
                let l = OperandDataType::from_value(&self.eval_expr(left, row)?)?;
                let r = OperandDataType::from_value(&self.eval_expr(right, row)?)?;
                let out = match op {
                    '+' => l.add(&r)?,
                    '-' => l.sub(&r)?,
                    '*' => l.mul(&r)?,
                    '/' => l.div(&r)?,
                    '%' => l.rem(&r)?,
                    other => return Err(SqlError::Exec(format!("unknown operator {other}"))),
                };
                out.into_value()
            }
        })
    }

    /// Evaluate a path against a row, dereferencing through the catalog.
    fn eval_path(&self, p: &PathRef, row: &Row) -> Result<Value> {
        let Some(bound) = row.get(&p.var) else {
            return Err(SqlError::Exec(format!("unbound range variable {}", p.var)));
        };
        if p.segments.is_empty() {
            return Ok(match bound.oid {
                Some(oid) => Value::Ref(oid),
                None => (*bound.value).clone(),
            });
        }
        let mut cur = (*bound.value).clone();
        for seg in &p.segments {
            loop {
                match cur {
                    Value::Ref(oid) => {
                        let (_, v) = self.catalog.get_object(oid)?;
                        cur = v;
                    }
                    Value::Null => return Ok(Value::Null),
                    _ => break,
                }
            }
            cur = match cur.field(seg) {
                Some(v) => v.clone(),
                // Schema evolution: objects stored before an attribute was
                // added read it as NULL (the binder already validated that
                // the attribute exists in the schema).
                None => match &cur {
                    Value::Tuple(_) => Value::Null,
                    other => {
                        return Err(SqlError::Exec(format!(
                            "no attribute {seg} on {} (path {}, value {other})",
                            p.var,
                            p.render()
                        )))
                    }
                },
            };
        }
        Ok(cur)
    }

    /// Predicate evaluation: Null (unknown) filters out, per SQL.
    pub fn eval_pred(&self, e: &Expr, row: &Row) -> Result<bool> {
        Ok(matches!(self.eval_expr(e, row)?, Value::Boolean(true)))
    }

    // ------------------------------------------------------------------
    // Grouping and aggregates
    // ------------------------------------------------------------------

    /// Group rows by their encoded GROUP BY key. Groups are emitted in
    /// first-appearance order, rows within a group in input order; the
    /// hash lookup replaces a linear key scan without changing either.
    ///
    /// Past the buffer budget (`sort_budget`, shared with ORDER BY), the
    /// aggregation partitions to disk instead of holding every row.
    fn group_rows(&self, rows: &[Row], group_by: &[PathRef]) -> Result<Vec<Vec<Row>>> {
        if group_by.is_empty() {
            return Ok(vec![rows.to_vec()]);
        }
        let budget = self.config.execution.sort_budget.max(2);
        if rows.len() > budget {
            return self.group_rows_spilled(rows, group_by, budget);
        }
        let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut groups: Vec<Vec<Row>> = Vec::new();
        for row in rows {
            let mut key = Vec::new();
            for g in group_by {
                key.extend(encode_value(&self.eval_path(g, row)?));
                key.push(0xFE);
            }
            let next = groups.len();
            let gi = *index.entry(key).or_insert(next);
            if gi == next {
                groups.push(Vec::new());
            }
            groups[gi].push(row.clone());
        }
        Ok(groups)
    }

    /// Partitioned hash aggregation: rows are hash-partitioned by group
    /// key into spill files (charged to the disk metrics like sort runs,
    /// counted in `agg.spilled_partitions`), then each partition is
    /// grouped in memory — equal keys always land in one partition, so
    /// no group spans files. Records carry the row's original index;
    /// partition files preserve input order, so the first record of a
    /// group holds its globally-first index, and sorting the assembled
    /// groups by that index restores first-appearance order exactly.
    /// Output is byte-identical to the in-memory path.
    fn group_rows_spilled(
        &self,
        rows: &[Row],
        group_by: &[PathRef],
        budget: usize,
    ) -> Result<Vec<Vec<Row>>> {
        let sm = self.catalog.storage();
        let registry = sm.registry().clone();
        let metrics = sm.metrics().clone();
        let parts = rows
            .len()
            .div_ceil(budget)
            .next_power_of_two()
            .clamp(2, 64);
        let mut files: Vec<Option<SpillFile>> = Vec::new();
        files.resize_with(parts, || None);
        for (i, row) in rows.iter().enumerate() {
            let mut key = Vec::new();
            for g in group_by {
                key.extend(encode_value(&self.eval_path(g, row)?));
                key.push(0xFE);
            }
            let p = (fnv1a(&key) as usize) % parts;
            let f = match &mut files[p] {
                Some(f) => f,
                slot => slot.insert(SpillFile::create().map_err(spill_err)?),
            };
            f.write_record(&encode_group_record(&key, i, row))
                .map_err(spill_err)?;
        }
        let mut keyed_groups: Vec<(usize, Vec<Row>)> = Vec::new();
        for f in files.into_iter().flatten() {
            registry.record_agg_spilled_partition();
            let mut r = f.into_reader(Some(&metrics)).map_err(spill_err)?;
            r.charge_sequential_read(&metrics);
            let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
            let mut local: Vec<(usize, Vec<Row>)> = Vec::new();
            while let Some(rec) = r.next_record().map_err(spill_err)? {
                let (key, idx, row) = decode_group_record(&rec)?;
                let next = local.len();
                let gi = *index.entry(key).or_insert(next);
                if gi == next {
                    local.push((idx, Vec::new()));
                }
                local[gi].1.push(row);
            }
            keyed_groups.extend(local);
        }
        keyed_groups.sort_by_key(|(first, _)| *first);
        Ok(keyed_groups.into_iter().map(|(_, g)| g).collect())
    }

    fn eval_group_expr(&self, e: &Expr, group: &[Row]) -> Result<Value> {
        match e {
            Expr::Agg { func, arg } => self.eval_agg(*func, arg.as_deref(), group),
            other => {
                let Some(first) = group.first() else {
                    return Ok(Value::Null);
                };
                self.eval_expr(other, first)
            }
        }
    }

    fn eval_group_pred(&self, e: &Expr, group: &[Row]) -> Result<bool> {
        // HAVING predicates may mix aggregates and group keys: evaluate
        // comparisons with group-aware operands.
        match e {
            Expr::And(parts) => {
                for p in parts {
                    if !self.eval_group_pred(p, group)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Expr::Or(parts) => {
                for p in parts {
                    if self.eval_group_pred(p, group)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Expr::Not(inner) => Ok(!self.eval_group_pred(inner, group)?),
            Expr::Compare { op, left, right } => {
                let l = self.eval_group_expr(left, group)?;
                let r = self.eval_group_expr(right, group)?;
                if l.is_null() || r.is_null() {
                    return Ok(false);
                }
                let Some(ord) = l.compare(&r) else {
                    return Err(SqlError::Exec(format!("cannot compare {l} with {r}")));
                };
                Ok(match op {
                    crate::ast::CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                    crate::ast::CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                    crate::ast::CmpOp::Lt => ord == std::cmp::Ordering::Less,
                    crate::ast::CmpOp::Le => ord != std::cmp::Ordering::Greater,
                    crate::ast::CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                    crate::ast::CmpOp::Ge => ord != std::cmp::Ordering::Less,
                })
            }
            other => {
                let Some(first) = group.first() else {
                    return Ok(false);
                };
                self.eval_pred(other, first)
            }
        }
    }

    fn eval_agg(&self, func: AggFunc, arg: Option<&Expr>, group: &[Row]) -> Result<Value> {
        if func == AggFunc::Count && arg.is_none() {
            return Ok(Value::Integer(group.len() as i32));
        }
        let arg =
            arg.ok_or_else(|| SqlError::Exec(format!("{}() requires an argument", func.name())))?;
        let mut nums = Vec::new();
        let mut count = 0usize;
        for row in group {
            let v = self.eval_expr(arg, row)?;
            if v.is_null() {
                continue;
            }
            count += 1;
            if let Some(x) = v.as_f64() {
                nums.push(x);
            } else if func != AggFunc::Count {
                return Err(SqlError::Exec(format!(
                    "{}() over non-numeric value {v}",
                    func.name()
                )));
            }
        }
        Ok(match func {
            AggFunc::Count => Value::Integer(count as i32),
            AggFunc::Sum => Value::Float(nums.iter().sum()),
            AggFunc::Avg => {
                if nums.is_empty() {
                    Value::Null
                } else {
                    Value::Float(nums.iter().sum::<f64>() / nums.len() as f64)
                }
            }
            AggFunc::Min => nums
                .iter()
                .copied()
                .fold(None::<f64>, |acc, x| Some(acc.map_or(x, |a| a.min(x))))
                .map(Value::Float)
                .unwrap_or(Value::Null),
            AggFunc::Max => nums
                .iter()
                .copied()
                .fold(None::<f64>, |acc, x| Some(acc.map_or(x, |a| a.max(x))))
                .map(Value::Float)
                .unwrap_or(Value::Null),
        })
    }

    fn sort_rows(
        &self,
        rows: &mut [Row],
        order_by: &[(PathRef, bool)],
        order: Option<&[Option<RowProg>]>,
    ) -> Result<()> {
        // Precompute keys (evaluation may deref; do it once per row),
        // through the compiled key programs when the plan has them.
        let mut regs = Registers::with_params(self.params);
        let mut keyed: Vec<(usize, Vec<Value>)> = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let mut keys = Vec::with_capacity(order_by.len());
            for (k, (p, _)) in order_by.iter().enumerate() {
                let compiled = order.and_then(|cols| cols.get(k)).and_then(|c| c.as_ref());
                keys.push(match compiled {
                    Some(c) => c.eval(self.catalog, row, &mut regs)?,
                    None => self.eval_path(p, row)?,
                });
            }
            keyed.push((i, keys));
        }
        // Past the buffer budget, sort externally: runs of at most
        // `sort_budget` rows spilled to temp files and k-way merged.
        let budget = self.config.execution.sort_budget.max(2);
        if keyed.len() > budget {
            return self.sort_rows_spilled(rows, keyed, order_by, budget);
        }
        keyed.sort_by(|(_, a), (_, b)| {
            for (k, (_, asc)) in order_by.iter().enumerate() {
                let ord = a[k].compare(&b[k]).unwrap_or(std::cmp::Ordering::Equal);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        // Permute in place by moving rows out (indices are unique), not by
        // cloning the whole slice twice.
        let mut permuted: Vec<Row> = keyed
            .iter()
            .map(|(i, _)| std::mem::take(&mut rows[*i]))
            .collect();
        for (dst, src) in rows.iter_mut().zip(permuted.drain(..)) {
            *dst = src;
        }
        Ok(())
    }

    /// External merge sort for ORDER BY: sorted runs of at most `budget`
    /// rows are serialized through the storage layer's temp-file spill
    /// facility (charged to the disk metrics in page equivalents, counted
    /// in the `sort.*` registry counters), then k-way merged comparing
    /// decoded keys with the same comparator. The input's original index
    /// breaks ties, which makes the total order identical to the stable
    /// in-memory sort — output is byte-identical to the non-spilled path.
    fn sort_rows_spilled(
        &self,
        rows: &mut [Row],
        keyed: Vec<(usize, Vec<Value>)>,
        order_by: &[(PathRef, bool)],
        budget: usize,
    ) -> Result<()> {
        let sm = self.catalog.storage();
        let registry = sm.registry().clone();
        let metrics = sm.metrics().clone();
        let key_cmp = |a: &[Value], ia: usize, b: &[Value], ib: usize| {
            for (k, (_, asc)) in order_by.iter().enumerate() {
                let ord = a[k].compare(&b[k]).unwrap_or(std::cmp::Ordering::Equal);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            ia.cmp(&ib)
        };
        // Run formation: gulp `budget` rows, sort in memory, spill.
        let mut readers = Vec::new();
        let mut iter = keyed.into_iter();
        loop {
            let mut run: Vec<(usize, Vec<Value>)> = iter.by_ref().take(budget).collect();
            if run.is_empty() {
                break;
            }
            run.sort_unstable_by(|(ia, a), (ib, b)| key_cmp(a, *ia, b, *ib));
            let mut f = SpillFile::create().map_err(spill_err)?;
            for (i, keys) in &run {
                f.write_record(&encode_sort_record(keys, *i, &rows[*i]))
                    .map_err(spill_err)?;
            }
            registry.record_spilled_run(f.bytes());
            let r = f.into_reader(Some(&metrics)).map_err(spill_err)?;
            r.charge_sequential_read(&metrics);
            readers.push(r);
        }
        // K-way merge over decoded run heads (linear min-scan; the run
        // count is input/budget, small by construction).
        let mut heads: Vec<Option<(usize, Vec<Value>, Row)>> = Vec::with_capacity(readers.len());
        for r in &mut readers {
            heads.push(next_sort_record(r)?);
        }
        let mut out: Vec<Row> = Vec::with_capacity(rows.len());
        loop {
            let mut best: Option<usize> = None;
            for ri in 0..heads.len() {
                let Some((idx, keys, _)) = &heads[ri] else {
                    continue;
                };
                match best {
                    None => best = Some(ri),
                    Some(b) => {
                        let (bidx, bkeys, _) = heads[b].as_ref().expect("best head present");
                        if key_cmp(keys, *idx, bkeys, *bidx) == std::cmp::Ordering::Less {
                            best = Some(ri);
                        }
                    }
                }
            }
            let Some(b) = best else { break };
            let (_, _, row) = heads[b].take().expect("winning head present");
            out.push(row);
            heads[b] = next_sort_record(&mut readers[b])?;
        }
        if out.len() != rows.len() {
            return Err(SqlError::Exec(format!(
                "external sort row count mismatch: {} in, {} out",
                rows.len(),
                out.len()
            )));
        }
        for (dst, src) in rows.iter_mut().zip(out) {
            *dst = src;
        }
        Ok(())
    }
}

/// The two right-side shapes of `exec_join`.
enum RightSideImpl {
    /// Unmaterialized class with an optional residual filter.
    Class { class: String, filter: Option<Expr> },
    /// Materialized rows keyed by the right variable's OID.
    Rows(HashMap<Oid, Vec<Row>>),
}

impl RightSideImpl {
    fn resolve(&self, ex: &Executor<'_>, oid: Oid, y_var: &str) -> Result<Vec<Row>> {
        match self {
            RightSideImpl::Rows(map) => Ok(map.get(&oid).cloned().unwrap_or_default()),
            RightSideImpl::Class { class, filter } => {
                let Ok((obj_class, value)) = ex.catalog.get_object(oid) else {
                    return Ok(Vec::new()); // dangling reference: no pair
                };
                if !ex.catalog.is_subclass(&obj_class, class) {
                    return Ok(Vec::new());
                }
                let mut row = Row::new();
                row.insert(
                    y_var.to_string(),
                    BoundObj {
                        oid: Some(oid),
                        value: Arc::new(value),
                    },
                );
                if let Some(f) = filter {
                    if !ex.eval_pred(f, &row)? {
                        return Ok(Vec::new());
                    }
                }
                Ok(vec![row])
            }
        }
    }
}

fn spill_err(e: std::io::Error) -> SqlError {
    SqlError::Exec(format!("sort spill i/o: {e}"))
}

fn spill_corrupt() -> SqlError {
    SqlError::Exec("sort spill record corrupt".into())
}

/// Append a length-prefixed byte chunk (the spill records' framing).
fn put_chunk(out: &mut Vec<u8>, b: &[u8]) {
    out.extend((b.len() as u32).to_le_bytes());
    out.extend(b);
}

/// Read back one length-prefixed chunk, advancing `at`.
fn take_chunk<'a>(rec: &'a [u8], at: &mut usize) -> Result<&'a [u8]> {
    let len_end = at.checked_add(4).filter(|e| *e <= rec.len()).ok_or_else(spill_corrupt)?;
    let len =
        u32::from_le_bytes(rec[*at..len_end].try_into().expect("4-byte slice")) as usize;
    let end = len_end.checked_add(len).filter(|e| *e <= rec.len()).ok_or_else(spill_corrupt)?;
    *at = end;
    Ok(&rec[len_end..end])
}

/// One external-sort spill record: `[index u64][nkeys u32][key chunk…]
/// [nvars u32][(name chunk)(oid chunk, empty = None)(value chunk)…]`.
/// Every `Value` is framed with its own length so the codec stays
/// self-delimiting inside the record.
fn encode_sort_record(keys: &[Value], index: usize, row: &Row) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend((index as u64).to_le_bytes());
    out.extend((keys.len() as u32).to_le_bytes());
    for k in keys {
        put_chunk(&mut out, &encode_value(k));
    }
    out.extend((row.len() as u32).to_le_bytes());
    for (name, bound) in row {
        put_chunk(&mut out, name.as_bytes());
        match bound.oid {
            Some(oid) => put_chunk(&mut out, &encode_value(&Value::Ref(oid))),
            None => out.extend(0u32.to_le_bytes()),
        }
        put_chunk(&mut out, &encode_value(&bound.value));
    }
    out
}

fn decode_sort_record(rec: &[u8]) -> Result<(usize, Vec<Value>, Row)> {
    let mut at = 0usize;
    if rec.len() < 12 {
        return Err(spill_corrupt());
    }
    let index = u64::from_le_bytes(rec[..8].try_into().expect("8-byte slice")) as usize;
    at += 8;
    let nkeys =
        u32::from_le_bytes(rec[at..at + 4].try_into().expect("4-byte slice")) as usize;
    at += 4;
    let mut keys = Vec::with_capacity(nkeys);
    for _ in 0..nkeys {
        let chunk = take_chunk(rec, &mut at)?;
        keys.push(decode_value(chunk).map_err(|_| spill_corrupt())?);
    }
    let nvars_end = at.checked_add(4).filter(|e| *e <= rec.len()).ok_or_else(spill_corrupt)?;
    let nvars =
        u32::from_le_bytes(rec[at..nvars_end].try_into().expect("4-byte slice")) as usize;
    at = nvars_end;
    let mut row = Row::new();
    for _ in 0..nvars {
        let name = String::from_utf8(take_chunk(rec, &mut at)?.to_vec())
            .map_err(|_| spill_corrupt())?;
        let oid_chunk = take_chunk(rec, &mut at)?;
        let oid = if oid_chunk.is_empty() {
            None
        } else {
            match decode_value(oid_chunk).map_err(|_| spill_corrupt())? {
                Value::Ref(oid) => Some(oid),
                _ => return Err(spill_corrupt()),
            }
        };
        let value = decode_value(take_chunk(rec, &mut at)?).map_err(|_| spill_corrupt())?;
        row.insert(name, BoundObj { oid, value: Arc::new(value) });
    }
    Ok((index, keys, row))
}

/// FNV-1a over a group key: the partition hash. Any stable hash works
/// (equal keys must collide onto one partition); FNV keeps it dependency-
/// free and deterministic across runs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One aggregation spill record: `[key chunk][sort record with no keys]`
/// — the group key travels with the row so the read-back pass never
/// re-evaluates GROUP BY paths (which could deref through the catalog).
fn encode_group_record(key: &[u8], index: usize, row: &Row) -> Vec<u8> {
    let mut out = Vec::new();
    put_chunk(&mut out, key);
    out.extend(encode_sort_record(&[], index, row));
    out
}

fn decode_group_record(rec: &[u8]) -> Result<(Vec<u8>, usize, Row)> {
    let mut at = 0usize;
    let key = take_chunk(rec, &mut at)?.to_vec();
    let (index, _, row) = decode_sort_record(&rec[at..])?;
    Ok((key, index, row))
}

/// The next decoded record of a spill run, or `None` at end of run.
fn next_sort_record(
    r: &mut mood_storage::spill::SpillReader,
) -> Result<Option<(usize, Vec<Value>, Row)>> {
    match r.next_record().map_err(spill_err)? {
        Some(rec) => decode_sort_record(&rec).map(Some),
        None => Ok(None),
    }
}

/// Set semantics over variable bindings: dedupe by OID signature.
fn dedupe_bindings(rows: &mut Vec<Row>) {
    let mut seen = HashSet::new();
    rows.retain(|row| {
        let sig: Vec<(String, Option<Oid>)> = row.iter().map(|(k, v)| (k.clone(), v.oid)).collect();
        seen.insert(format!("{sig:?}"))
    });
}

fn unbound_param(n: u16, bound: usize) -> SqlError {
    SqlError::Bind(format!("unbound parameter ${n} ({bound} bound)"))
}

pub(crate) fn lit_value(l: &Lit) -> Value {
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

fn flatten_and(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::And(parts) => parts.iter().flat_map(flatten_and).collect(),
        other => vec![other],
    }
}
