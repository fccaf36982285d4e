//! Plan execution.
//!
//! The executor follows the optimizer's access plan (so join methods and
//! path orders actually determine the I/O pattern — what the benches
//! measure against the §6 cost model) and evaluates every expression as the
//! register program it is compiled to at first use (`compiled.rs`; run-time
//! type checked through `OperandDataType`). This module is FROM and WHERE:
//! every AND-term's plan runs with the operator order of Figure 7.2
//! (SELECT → JOIN → PROJECT → UNION), each plan node pushing its output
//! into a `Sink` — a row vector between operators, and at a term's root
//! the statement's `Tail` (`tail.rs`), which applies the later clauses
//! of Figure 7.1 (GROUP BY/HAVING → projection → ORDER BY) to the stream
//! batch by batch. A single-variable scan at the root hands the tail the
//! objects it decoded, and so does an index selection: one leaf-chain walk
//! per indexed attribute over the interval its bounds merge into, the
//! interval's OIDs sorted, then fetched a page at a time, re-verified and
//! pushed `batch_size` objects at a time. [`Row`]s are the currency of
//! joins. An execution trace records the stages for the conformance tests.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use mood_catalog::{Catalog, CatalogError};
use mood_cost::JoinMethod;
use mood_datamodel::{FieldSet, Value};
use mood_funcman::{Exception, ExceptionKind, FunctionManager, Receiver};
use mood_optimizer::{estimate_plan_set, optimize, OptimizerConfig, Plan, PlanSet};
use mood_storage::exec::run_chunked;
use mood_storage::{
    AccessHint, DiskMetrics, FileId, Metric, MetricsSnapshot, Oid, PageId, StorageError,
};
use mood_trace::Tracer;

use crate::analyze::{
    op_span, record_operator_totals, render_estimates, AnalyzeRec, AnalyzeReport, NodeTable,
    StageRec, TermReport,
};
use crate::ast::{CmpOp, Expr, Lit, PathRef, SelectStmt};
use crate::binder::{lower, Lowered};
use crate::compiled::{PreparedExpr, RowView, Scratch};
use crate::error::{Result, SqlError};
use crate::parser::parse_expr;
use crate::readset::ReadSets;
use crate::tail::{group_operands, operand_input, Sink, Tail};

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

/// A SELECT prepared once — bound, optimized, its predicates parsed, every
/// expression it evaluates ready to compile at first use — and
/// re-executable any number of times. It is the only thing the executor
/// runs: an uncached statement, `EXPLAIN ANALYZE` and a DML target are
/// prepared and executed in one call. The session's plan cache stores these
/// keyed by statement shape (`=`-operand literals lifted out as `$n`), so
/// one entry runs with whichever values the executor has bound; `epoch` is
/// the catalog epoch the plan was built under, so any DDL or statistics
/// refresh invalidates it.
pub struct PreparedQuery {
    pub(crate) stmt: SelectStmt,
    /// Parameters the statement reads (`$1..=$nparams`).
    nparams: u16,
    lowered: Lowered,
    /// One optimized plan per AND-term of the WHERE clause's DNF. Empty when
    /// the FROM list holds an extent the optimizer's single-root model
    /// cannot absorb (`lowered.unabsorbed`): FROM + WHERE then run as the
    /// nested-loop product with the WHERE clause as residual filter.
    pub(crate) terms: Vec<PlanSet>,
    /// Catalog epoch at preparation; a mismatch means the plan is stale.
    pub epoch: u64,
    /// Per term, its nodes' operator kinds and children: what folding an
    /// execution's actuals into the operator totals reads.
    nodes: Vec<NodeTable>,
    /// Plan predicate text → the predicate.
    preds: HashMap<String, PreparedExpr>,
    index_bounds: IndexBounds,
    /// The WHERE clause as written: what filters the nested-loop product
    /// of a statement without plans.
    residual: Option<PreparedExpr>,
    /// Range variable → the fields of its object the statement reads; every
    /// place the driver binds the variable decodes exactly these.
    reads: ReadSets,
    /// What the tail evaluates per binding. Ungrouped: the projection
    /// columns. Grouped: the per-row input of each group-level operand of
    /// SELECT/HAVING that has one ([`group_operands`], [`operand_input`]).
    pub(crate) cols: Vec<PreparedExpr>,
    /// The ORDER BY and GROUP BY keys.
    pub(crate) order_keys: Vec<PreparedExpr>,
    pub(crate) group_keys: Vec<PreparedExpr>,
    /// Wall time spent preparing (EXPLAIN ANALYZE's compile/execute split).
    pub compile_nanos: u64,
}

impl PreparedQuery {
    /// The prepared form of a plan predicate. `prepare` parses every
    /// predicate its plans carry, so a miss is a bug in the plan walk.
    fn pred(&self, text: &str) -> Result<&PreparedExpr> {
        self.preds
            .get(text)
            .ok_or_else(|| SqlError::Exec(format!("plan predicate {text} was not prepared")))
    }

    /// The bounds of an INDSEL predicate, by indexed attribute.
    fn bounds(&self, text: &str) -> Result<&[AttrBounds]> {
        let bounds = self.index_bounds.get(text).map(Vec::as_slice);
        bounds.ok_or_else(|| SqlError::Exec(format!("INDSEL predicate {text} was not prepared")))
    }
}

/// INDSEL predicate text → per indexed attribute, the bounds on it.
type IndexBounds = HashMap<String, Vec<AttrBounds>>;

/// Every bound an INDSEL predicate puts on one indexed attribute (a dotted
/// path for a path index), in the order written.
struct AttrBounds {
    attr: String,
    ops: Vec<(CmpOp, Operand)>,
}

/// The constant side of a bound.
enum Operand {
    Value(Value),
    Param(u16),
}

/// Group an INDSEL predicate's conjuncts `var.attr θ constant` by attribute.
fn attr_bounds(predicate: &Expr) -> Result<Vec<AttrBounds>> {
    let mut out: Vec<AttrBounds> = Vec::new();
    for p in flatten_and(predicate) {
        let Expr::Compare { op, left, right } = p else {
            return Err(SqlError::Exec(format!(
                "INDSEL predicate not a comparison: {p:?}"
            )));
        };
        let shape = || SqlError::Exec("INDSEL predicate shape".into());
        let Expr::Path(path) = &**left else {
            return Err(shape());
        };
        let operand = match &**right {
            Expr::Literal(lit) => Operand::Value(lit_value(lit)),
            Expr::Param(n) => Operand::Param(*n),
            _ => return Err(shape()),
        };
        if path.segments.is_empty() {
            return Err(SqlError::Exec(
                "INDSEL predicate must target an attribute".into(),
            ));
        }
        if *op == CmpOp::Ne {
            return Err(SqlError::Exec("<> cannot be index-served".into()));
        }
        // Dotted join handles both plain attributes and whole-path indexes.
        let attr = path.segments.join(".");
        match out.iter_mut().find(|b| b.attr == attr) {
            Some(b) => b.ops.push((*op, operand)),
            None => out.push(AttrBounds {
                attr,
                ops: vec![(*op, operand)],
            }),
        }
    }
    Ok(out)
}

/// The OIDs in both of two ascending lists.
fn intersect_sorted(a: &[Oid], b: &[Oid]) -> Vec<Oid> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while let (Some(x), Some(y)) = (a.get(i), b.get(j)) {
        match x.cmp(y) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                out.push(*x);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Does the statement aggregate (GROUP BY or an aggregate in the
/// projection)?
pub(crate) fn is_grouped(stmt: &SelectStmt) -> bool {
    !stmt.group_by.is_empty()
        || stmt
            .projection
            .iter()
            .any(|e| matches!(e, Expr::Agg { .. }))
}

/// Collect the predicate texts of every Select/IndSel node in a plan, each
/// with whether an IndSel carries it.
fn plan_predicates<'p>(plan: &'p Plan, out: &mut Vec<(&'p str, bool)>) {
    match plan {
        Plan::Select { input, predicate } => {
            out.push((predicate, false));
            plan_predicates(input, out);
        }
        Plan::IndSel { predicate, .. } => out.push((predicate, true)),
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

/// Parse every Select/IndSel predicate the plans carry — the only place
/// plan predicate text is parsed — and sort each IndSel's into the bounds
/// it puts on each indexed attribute.
fn parse_plan_predicates<'p>(
    plans: impl IntoIterator<Item = &'p PlanSet>,
) -> Result<(HashMap<String, PreparedExpr>, IndexBounds)> {
    let mut preds: HashMap<String, PreparedExpr> = HashMap::new();
    let mut index_bounds = IndexBounds::new();
    for set in plans {
        for plan in set.temps.iter().map(|(_, p)| p).chain([&set.root]) {
            let mut texts = Vec::new();
            plan_predicates(plan, &mut texts);
            for (text, indsel) in texts {
                if !preds.contains_key(text) {
                    let stripped = text.strip_prefix("__join__ ").unwrap_or(text);
                    preds.insert(text.to_string(), PreparedExpr::new(parse_expr(stripped)?));
                }
                if indsel && !index_bounds.contains_key(text) {
                    index_bounds.insert(text.to_string(), attr_bounds(&preds[text].expr)?);
                }
            }
        }
    }
    Ok((preds, index_bounds))
}

/// The parts `(x, attr, y)` of a plan join condition `x.attr = y.self`.
pub(crate) fn join_condition(condition: &str) -> Result<(&str, &str, &str)> {
    let (lhs, rhs) = condition
        .split_once(" = ")
        .ok_or_else(|| SqlError::Exec(format!("unsupported join condition: {condition}")))?;
    let (x_var, attr) = lhs
        .split_once('.')
        .ok_or_else(|| SqlError::Exec(format!("bad join lhs: {lhs}")))?;
    let y_var = rhs
        .strip_suffix(".self")
        .ok_or_else(|| SqlError::Exec(format!("bad join rhs: {rhs}")))?;
    Ok((x_var, attr, y_var))
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
    pub(crate) fn check_params(&self, nparams: u16) -> Result<()> {
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

    pub(crate) fn mark(&self, stage: &str) {
        self.trace.lock().expect("trace lock").push(stage.into());
    }

    /// The bound parameter values.
    pub(crate) fn params(&self) -> &'a [Value] {
        self.params
    }

    /// A method call out of a compiled expression. A bound object is
    /// dispatched on as it is — it lives in the extent of its dynamic class,
    /// which is where late binding starts, and the row holds it whole (the
    /// read set of a method receiver is `All`) — a reference through the
    /// Function Manager's fetch.
    pub(crate) fn dispatch(
        &self,
        on: Receiver<'_>,
        method: &str,
        args: &[Value],
    ) -> std::result::Result<Value, Exception> {
        match on {
            Receiver::Object { oid, value } => match self.catalog.class_of_oid(oid) {
                Some(class) => self.funcman.invoke_on(&class, value, method, args),
                None => self.funcman.invoke(oid, method, args),
            },
            Receiver::Ref(oid) => self.funcman.invoke(oid, method, args),
            Receiver::Myself => Err(Exception::new(
                ExceptionKind::MissingFunction,
                format!("method call {method}() without a receiver"),
            )),
        }
    }

    /// Filter rows by a predicate. Verdicts are computed over
    /// `parallelism` contiguous chunks (one chunk, on this thread, at 1) and
    /// applied in input order, so survivors appear exactly as a single loop
    /// would emit them and the error from the earliest failing row wins.
    /// Registers are per chunk, the dereference cache per `batch_size` rows.
    fn filter_rows(&self, mut rows: Vec<Row>, pred: &PreparedExpr) -> Result<Vec<Row>> {
        let verdicts = run_chunked(self.config.execution.parallelism, &rows, |_, chunk| {
            let mut scratch = Scratch::new(self);
            chunk
                .iter()
                .map(|row| {
                    scratch.next_row();
                    scratch.matches(pred, RowView::Row(row))
                })
                .collect::<Result<Vec<bool>>>()
        })?;
        let mut verdicts = verdicts.into_iter();
        rows.retain(|_| verdicts.next().expect("one verdict per row"));
        Ok(rows)
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
        let plans = || optimized.terms.iter().map(|t| &t.plan);
        let (preds, _) = parse_plan_predicates(plans())?;
        out.push_str(&ReadSets::collect(stmt, &lowered, plans(), &preds)?.to_string());
        Ok(out)
    }

    // ------------------------------------------------------------------
    // SELECT execution: prepare, then the one driver
    // ------------------------------------------------------------------

    /// Bind, optimize and pre-parse a SELECT once, producing the plan the
    /// driver executes and the session cache can re-execute without touching
    /// the parser or optimizer.
    ///
    /// Every Select/IndSel predicate in the plan is parsed here and each
    /// range variable's read set derived from what the driver will evaluate;
    /// the register program of a predicate or of a tail expression follows
    /// when it is first evaluated (and is charged to `compile.ns` then, not
    /// here). A FROM list the optimizer's single-root model cannot absorb
    /// gets no plans and runs as a nested-loop product; its WHERE clause is
    /// its one predicate.
    /// `epoch` is read after any first-use statistics collection (which
    /// bumps it), so a cached entry stays valid until the next DDL or
    /// statistics refresh.
    pub fn prepare_query(&self, stmt: &SelectStmt) -> Result<PreparedQuery> {
        let nparams = stmt.max_param();
        self.check_params(nparams)?;
        let metrics = self.catalog.storage().metrics();
        let start = Instant::now();
        let lowered = {
            let _span = self.tracer.span("bind", metrics);
            lower(self.catalog, stmt)?
        };
        let mut terms: Vec<PlanSet> = Vec::new();
        if lowered.unabsorbed.is_empty() {
            // Statistics for the root class must exist; first use collects.
            let mut stats = self.catalog.stats();
            if stats.class(&lowered.root.class).is_none() {
                stats = self.catalog.collect_stats()?;
            }
            let _span = self.tracer.span("optimize", metrics);
            let optimized = optimize(&lowered.spec, &stats, &self.config);
            terms = optimized.terms.into_iter().map(|t| t.plan).collect();
        }
        let (preds, index_bounds) = parse_plan_predicates(&terms)?;
        let reads = ReadSets::collect(stmt, &lowered, &terms, &preds)?;
        let prepared = |e: &Expr| PreparedExpr::new(e.clone());
        let cols = if is_grouped(stmt) {
            let inputs = group_operands(stmt).into_iter().filter_map(operand_input);
            inputs.map(prepared).collect()
        } else {
            stmt.projection.iter().map(prepared).collect()
        };
        let residual = match &stmt.where_clause {
            Some(w) if terms.is_empty() => Some(prepared(w)),
            _ => None,
        };
        let compile_nanos = start.elapsed().as_nanos() as u64;
        self.catalog
            .storage()
            .registry()
            .add(Metric::CompileNs, compile_nanos);
        Ok(PreparedQuery {
            stmt: stmt.clone(),
            nparams,
            lowered,
            nodes: terms.iter().map(NodeTable::of).collect(),
            terms,
            epoch: self.catalog.epoch(),
            preds,
            index_bounds,
            residual,
            reads,
            cols,
            order_keys: path_exprs(stmt.order_by.iter().map(|(p, _)| p)),
            group_keys: path_exprs(&stmt.group_by),
            compile_nanos,
        })
    }

    /// [`Executor::prepare_query`]. Always `Some` — every SELECT shape has a
    /// prepared form; the `Option` is the signature existing callers
    /// destructure.
    pub fn prepare(&self, stmt: &SelectStmt) -> Result<Option<PreparedQuery>> {
        self.prepare_query(stmt).map(Some)
    }

    /// Prepare and execute in one call (cache-off sessions, ad-hoc callers).
    pub fn run_select(&self, stmt: &SelectStmt) -> Result<QueryResult> {
        self.run_prepared(&self.prepare_query(stmt)?)
    }

    /// Execute a prepared plan with this executor's parameters: no parse,
    /// no bind, no optimize.
    pub fn run_prepared(&self, pq: &PreparedQuery) -> Result<QueryResult> {
        Ok(self.execute(pq, None)?.0)
    }

    /// Execute with full instrumentation: the `EXPLAIN ANALYZE` statement.
    ///
    /// Preparation runs inside the `PLAN` stage window, every plan node
    /// inside a recording window (rows, inclusive counter delta, wall time)
    /// and every coordinator stage inside a stage window, so the report's
    /// exclusive deltas plus stage deltas sum exactly to the statement's
    /// total counter delta.
    pub fn analyze(&self, stmt: &SelectStmt) -> Result<AnalyzeReport> {
        let stages = StageRec::new(self.catalog.storage().metrics().clone());
        let pq = stages.window("PLAN", |_: &_| 0, || self.prepare_query(stmt))?;
        self.report(&pq, stages, false)
    }

    /// Execute a prepared (cached) plan with full instrumentation. The
    /// PLAN stage is absent — bind/optimize already happened at prepare
    /// time — so the report states `cached` and a zero compile cost.
    pub fn analyze_prepared(&self, pq: &PreparedQuery) -> Result<AnalyzeReport> {
        let stages = StageRec::new(self.catalog.storage().metrics().clone());
        self.report(pq, stages, true)
    }

    /// Run the driver with recording on and assemble the report over the
    /// window `stages` has been open for.
    fn report(&self, pq: &PreparedQuery, stages: StageRec, cached: bool) -> Result<AnalyzeReport> {
        let (result, terms) = self.execute(pq, Some(&stages))?;
        let (stages, total, elapsed_nanos) = stages.close();
        let compile_nanos = stages
            .iter()
            .find(|s| s.name == "PLAN")
            .map_or(0, |s| s.nanos);
        Ok(AnalyzeReport {
            total,
            elapsed_nanos,
            result,
            terms,
            stages,
            cached,
            epoch: pq.epoch,
            compile_nanos,
            params: self.params.to_vec(),
        })
    }

    /// The stored objects `UPDATE/DELETE <class> <var> WHERE p` acts on, each
    /// with the row that binds it to `var`: the target query (see
    /// [`SelectStmt::dml_target`]) prepared and run through the driver's
    /// FROM + WHERE half exactly as a SELECT would be — index probe when
    /// §8.1 picks one, scan + filter otherwise — into a collecting sink, so
    /// the set is complete before the caller writes anything and a
    /// statement never sees its own updates.
    pub fn target_rows(
        &self,
        class: &str,
        var: &str,
        where_clause: Option<&Expr>,
    ) -> Result<Vec<(Oid, Row)>> {
        let target = SelectStmt::dml_target(class, var, where_clause.cloned());
        let pq = self.prepare_query(&target)?;
        self.start(&pq)?;
        let mut exec_span = self
            .tracer
            .span("execute", self.catalog.storage().metrics());
        let mut targets = Targets {
            var,
            seen: HashSet::new(),
            rows: Vec::new(),
        };
        self.feed(&pq, false, &mut targets)?;
        exec_span.set_rows(targets.rows.len() as u64);
        Ok(targets.rows)
    }

    /// Begin one execution of `pq`: every parameter it reads must be bound
    /// before anything runs (an empty extent must not hide the error), and
    /// the stage trace starts empty.
    fn start(&self, pq: &PreparedQuery) -> Result<()> {
        self.check_params(pq.nparams)?;
        self.trace.lock().expect("trace lock").clear();
        Ok(())
    }

    /// The SELECT driver — the one path every statement takes: FROM + WHERE
    /// ([`Executor::feed`]) push into the statement's [`Tail`], which
    /// applies the later clauses to the stream. `stages` turns recording on
    /// (`EXPLAIN ANALYZE`): the tail's stage rows land there and the plan
    /// nodes' actuals come back as per-term reports; without it the same
    /// code runs and the reports are empty.
    fn execute(
        &self,
        pq: &PreparedQuery,
        stages: Option<&StageRec>,
    ) -> Result<(QueryResult, Vec<TermReport>)> {
        self.start(pq)?;
        let mut exec_span = self
            .tracer
            .span("execute", self.catalog.storage().metrics());
        let mut tail = Tail::new(self, pq);
        let terms = self.feed(pq, stages.is_some(), &mut tail)?;
        let result = tail.finish(stages)?;
        exec_span.set_rows(result.len() as u64);
        Ok((result, terms))
    }

    /// FROM + WHERE of a prepared statement, pushed into `sink`: each
    /// AND-term's plan runs in turn and the sink sees their union (Figure
    /// 7.2; a FROM list without plans runs as the nested-loop product).
    /// Per-node actuals are always recorded — the registry's per-operator
    /// lifetime totals come from every execution — and, for a `report`,
    /// paired with the cost model's estimates (computed here, on demand).
    fn feed(
        &self,
        pq: &PreparedQuery,
        report: bool,
        sink: &mut dyn Sink,
    ) -> Result<Vec<TermReport>> {
        self.mark("FROM");
        if pq.terms.is_empty() {
            self.nested_loop(pq, sink)?;
            return Ok(Vec::new());
        }
        let storage = self.catalog.storage();
        let stats = report.then(|| self.catalog.stats());
        let mut reports: Vec<TermReport> = Vec::new();
        for (plan, nodes) in pq.terms.iter().zip(&pq.nodes) {
            let rec = AnalyzeRec::new(storage.metrics().clone());
            self.exec_term(plan, pq, &rec, sink)?;
            let actuals = rec.into_nodes();
            record_operator_totals(storage.registry(), nodes, &actuals);
            if let Some(stats) = &stats {
                let est = estimate_plan_set(plan, stats, &self.config);
                reports.push(TermReport::build(plan.clone(), est, actuals));
            }
        }
        if pq.terms.len() > 1 {
            self.mark("WHERE:UNION");
        }
        Ok(reports)
    }

    /// Execute one term's plan set: temps in creation order, then the root
    /// into `sink`. Node ids follow the shared pre-order scheme over
    /// `[temps…, root]`.
    fn exec_term(
        &self,
        set: &PlanSet,
        pq: &PreparedQuery,
        rec: &AnalyzeRec,
        sink: &mut dyn Sink,
    ) -> Result<()> {
        let mut temps: HashMap<String, Vec<Row>> = HashMap::new();
        let mut offset = 0usize;
        for (name, plan) in &set.temps {
            let rows = self.rows_of(plan, offset, pq, &temps, rec)?;
            offset += plan.subtree_size();
            temps.insert(name.clone(), rows);
        }
        self.exec_plan_at(&set.root, offset, pq, &temps, rec, sink)
    }

    /// FROM + WHERE for a FROM list the optimizer's single-root model cannot
    /// absorb: the nested-loop product over the FROM extents, formed and
    /// filtered by the WHERE clause `batch_size` rows at a time. There is no
    /// per-operator plan; the FROM stage window keeps the page accounting
    /// complete.
    fn nested_loop(&self, pq: &PreparedQuery, sink: &mut dyn Sink) -> Result<()> {
        let (stmt, filter) = (&pq.stmt, &pq.residual);
        let metrics = self.catalog.storage().metrics();
        let window = Window::open(metrics, sink);
        let extent = |item: &crate::ast::FromItem| -> Result<Vec<(Oid, Arc<Value>)>> {
            let extent = if item.every {
                self.catalog.extent_every(&item.class, &item.minus)?
            } else {
                self.catalog.extent(&item.class)?
            };
            Ok(extent.into_iter().map(|(o, v)| (o, Arc::new(v))).collect())
        };
        let bind = |row: &Row, item: &crate::ast::FromItem, oid: Oid, value: &Arc<Value>| {
            let mut r = row.clone();
            let value = value.clone();
            r.insert(item.var.clone(), BoundObj { oid: Some(oid), value });
            r
        };
        let Some((last, outer_items)) = stmt.from.split_last() else {
            return Ok(());
        };
        let mut outer: Vec<Row> = vec![Row::new()];
        for item in outer_items {
            let extent = extent(item)?;
            let pairs = outer.iter().flat_map(|row| extent.iter().map(move |e| (row, e)));
            outer = pairs.map(|(row, (oid, v))| bind(row, item, *oid, v)).collect();
        }
        if filter.is_some() {
            self.mark("WHERE:SELECT");
        }
        let batch = self.config.execution.batch_size.max(1);
        let mut produced = 0u64;
        let mut flush = |rows: Vec<Row>| -> Result<()> {
            let rows = match filter {
                Some(w) => self.filter_rows(rows, w)?,
                None => rows,
            };
            produced += rows.len() as u64;
            sink.push_rows(rows)
        };
        let inner = extent(last)?;
        let mut buf: Vec<Row> = Vec::new();
        for row in &outer {
            for (oid, value) in &inner {
                buf.push(bind(row, last, *oid, value));
                if buf.len() >= batch {
                    flush(std::mem::take(&mut buf))?;
                }
            }
        }
        flush(buf)?;
        let (delta, nanos) = window.close(metrics, sink);
        sink.record_from(produced, delta, nanos);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Plan interpretation
    // ------------------------------------------------------------------

    /// Execute the node at pre-order id `nid` into `sink`, recording its
    /// rows, inclusive counter delta and wall time — less what the sink
    /// accounted to stages of its own while the node fed it.
    ///
    /// Snapshots are taken on this (coordinating) thread: chunk-parallel
    /// operators join their workers before returning, so the window still
    /// covers every page they touch.
    fn exec_plan_at(
        &self,
        plan: &Plan,
        nid: usize,
        pq: &PreparedQuery,
        temps: &HashMap<String, Vec<Row>>,
        rec: &AnalyzeRec,
        sink: &mut dyn Sink,
    ) -> Result<()> {
        let mut span = self.tracer.span(op_span(plan), &rec.metrics);
        let window = Window::open(&rec.metrics, sink);
        let rows = self.exec_plan_node(plan, nid, pq, temps, rec, sink)?;
        span.set_rows(rows);
        let (delta, nanos) = window.close(&rec.metrics, sink);
        rec.record(nid, rows, delta, nanos);
        Ok(())
    }

    /// The rows of a node that feeds another operator.
    fn rows_of(
        &self,
        plan: &Plan,
        nid: usize,
        pq: &PreparedQuery,
        temps: &HashMap<String, Vec<Row>>,
        rec: &AnalyzeRec,
    ) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        self.exec_plan_at(plan, nid, pq, temps, rec, &mut rows)?;
        Ok(rows)
    }

    /// Stream the extent `BIND(class, var)` ranges over — with its
    /// subclasses when `var` is an `EVERY` root — into `visit`, each object
    /// decoded to `var`'s read set.
    fn scan_extent(
        &self,
        class: &str,
        var: &str,
        pq: &PreparedQuery,
        visit: &mut dyn FnMut(Oid, Value) -> bool,
    ) -> Result<()> {
        let (root, fields) = (&pq.lowered.root, pq.reads.of(var));
        if var == root.var && root.every {
            self.catalog.extent_every_fields_with(
                class,
                &root.minus,
                fields,
                AccessHint::Sequential,
                visit,
            )?;
        } else {
            self.catalog
                .extent_fields_with(class, fields, AccessHint::Sequential, visit)?;
        }
        Ok(())
    }

    /// The object behind a reference, decoded to `fields` (the read set of
    /// the variable it binds). `None` only for a dangling OID (a deleted
    /// target); every other storage failure — a corrupt page, an I/O error,
    /// a deadlock — is the statement's error, never a silently shorter
    /// result.
    fn fetch_live(&self, oid: Oid, fields: &FieldSet) -> Result<Option<(String, Value)>> {
        match self.catalog.get_object_fields(oid, fields) {
            Ok(found) => Ok(Some(found)),
            Err(CatalogError::Storage(StorageError::DanglingOid(_))) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Run one node into `sink`; the number of rows it produced.
    fn exec_plan_node(
        &self,
        plan: &Plan,
        nid: usize,
        pq: &PreparedQuery,
        temps: &HashMap<String, Vec<Row>>,
        rec: &AnalyzeRec,
        sink: &mut dyn Sink,
    ) -> Result<u64> {
        let rows = match plan {
            Plan::Bind { class, var } => return self.scan(class, var, pq, rec, None, sink),
            Plan::Temp { name } => temps
                .get(name)
                .cloned()
                .ok_or_else(|| SqlError::Exec(format!("unknown temporary {name}")))?,
            Plan::IndSel {
                class,
                var,
                index_kind,
                predicate,
            } => {
                let path_index = index_kind == "PATH_INDEX";
                return self.index_select(class, var, path_index, predicate, pq, sink);
            }
            Plan::Select { input, predicate } => {
                let pred = pq.pred(predicate)?;
                // Directly over a Bind nothing but the scanned object is
                // bound: scan and filter run as one batched pass.
                if let Plan::Bind { class, var } = &**input {
                    self.mark("WHERE:SELECT");
                    return self.scan(class, var, pq, rec, Some((pred, nid + 1)), sink);
                }
                let rows = self.rows_of(input, nid + 1, pq, temps, rec)?;
                self.mark("WHERE:SELECT");
                self.filter_rows(rows, pred)?
            }
            Plan::Join {
                left,
                right,
                method,
                condition,
            } => {
                let left_rows = self.rows_of(left, nid + 1, pq, temps, rec)?;
                let right_nid = nid + 1 + left.subtree_size();
                let out = self.exec_join(
                    left_rows, right, right_nid, *method, condition, pq, temps, rec,
                )?;
                self.mark("WHERE:JOIN");
                out
            }
            Plan::Union { inputs } => {
                let mut all = Vec::new();
                let mut kid = nid + 1;
                for p in inputs {
                    self.exec_plan_at(p, kid, pq, temps, rec, &mut all)?;
                    kid += p.subtree_size();
                }
                self.mark("WHERE:UNION");
                all
            }
            other => {
                return Err(SqlError::Exec(format!(
                    "plan node {other:?} is handled at the statement level"
                )))
            }
        };
        let n = rows.len() as u64;
        sink.push_rows(rows)?;
        Ok(n)
    }

    /// `BIND(class, var)` — alone, or with the predicate of the `SELECT`
    /// directly over it — streamed into `sink` in batches of
    /// `batch_size` objects; the number of objects let through. A predicate
    /// runs per batch with one register file and one per-batch deref cache,
    /// so funcman dispatch, register setup and catalog dereferences amortize
    /// across the batch, and nothing is built for an object it rejects.
    /// Output is byte-identical to scan-then-filter (same objects, same
    /// extent order) at every batch size; at 1 it *is* the row-at-a-time
    /// path.
    ///
    /// A `Bind` absorbed this way (node `filter.1`) still reports its own
    /// actuals: the objects the scan produced, and the pages and time of
    /// this pass less its predicate batches and the sink's stage windows —
    /// which leaves the enclosing `Select` exactly the work its predicate
    /// did.
    fn scan(
        &self,
        class: &str,
        var: &str,
        pq: &PreparedQuery,
        rec: &AnalyzeRec,
        filter: Option<(&PreparedExpr, usize)>,
        sink: &mut dyn Sink,
    ) -> Result<u64> {
        let batch = self.config.execution.batch_size.max(1);
        let registry = self.catalog.storage().registry();
        let window = Window::open(&rec.metrics, sink);
        let (mut scanned, mut kept) = (0u64, 0u64);
        let mut pred_delta = MetricsSnapshot::default();
        let mut pred_nanos = 0u64;
        let mut scratch = Scratch::new(self);
        // One batch: shared registers, fresh deref cache.
        let mut flush = |buf: &mut Vec<(Oid, Value)>| -> Result<()> {
            scanned += buf.len() as u64;
            if let Some((pred, _)) = filter {
                registry.add(Metric::BatchRows, buf.len() as u64);
                registry.add(Metric::BatchCount, 1);
                let (pred_start, pred_before) = (Instant::now(), rec.metrics.snapshot());
                retain_matching(&mut scratch, pred, var, buf)?;
                pred_delta = pred_delta.plus(&rec.metrics.snapshot().delta(&pred_before));
                pred_nanos += pred_start.elapsed().as_nanos() as u64;
            }
            kept += buf.len() as u64;
            sink.push_objects(var, buf)
        };
        let mut buf: Vec<(Oid, Value)> = Vec::with_capacity(batch);
        let mut first_err: Option<SqlError> = None;
        self.scan_extent(class, var, pq, &mut |oid, value| {
            buf.push((oid, value));
            if buf.len() >= batch {
                if let Err(e) = flush(&mut buf) {
                    first_err = Some(e);
                    return false;
                }
            }
            true
        })?;
        first_err.map_or(Ok(()), Err)?;
        if !buf.is_empty() {
            flush(&mut buf)?;
        }
        if let Some((_, bind_nid)) = filter {
            let (delta, nanos) = window.close(&rec.metrics, sink);
            let nanos = nanos.saturating_sub(pred_nanos);
            rec.record(bind_nid, scanned, delta.delta(&pred_delta), nanos);
        }
        Ok(kept)
    }

    /// `INDSEL(class, var, …, predicate)` streamed into `sink`; the number
    /// of objects let through, in ascending OID order.
    ///
    /// One leaf-chain walk per indexed attribute yields the interval's OIDs
    /// (several attributes intersect), which are sorted — 16 bytes each, the
    /// only thing held for the whole interval — so that the fetch visits
    /// each heap page once and the output order does not depend on the key
    /// order. They are then fetched, re-verified and pushed `batch_size` at
    /// a time: an entry may be stale because its object changed or is gone,
    /// and evaluating the predicate on the fetched object guarantees correct
    /// answers regardless.
    fn index_select(
        &self,
        class: &str,
        var: &str,
        path_index: bool,
        predicate: &str,
        pq: &PreparedQuery,
        sink: &mut dyn Sink,
    ) -> Result<u64> {
        self.mark("WHERE:SELECT");
        let prepared = pq.pred(predicate)?;
        let mut oids: Option<Vec<Oid>> = None;
        for bounds in pq.bounds(predicate)? {
            let hits = self.interval_oids(class, bounds)?;
            oids = Some(match oids {
                None => hits,
                Some(prev) => intersect_sorted(&prev, &hits),
            });
        }
        let mut oids = oids.unwrap_or_default();
        // A path index covers the class and every subclass, which may be
        // more extents than the FROM item ranges over: only members of the
        // item's own range are answers. Attribute indexes cover exactly the
        // own extent and skip the check.
        if path_index {
            let root = &pq.lowered.root;
            let range = if var == root.var && root.every {
                self.catalog.every_classes(class, &root.minus)
            } else {
                vec![class.to_string()]
            };
            let extent = |c: &String| self.catalog.class(c).ok()?.extent;
            let files: Vec<FileId> = range.iter().filter_map(extent).collect();
            oids.retain(|oid| files.contains(&oid.file));
        }
        let batch = self.config.execution.batch_size.max(1);
        let fields = pq.reads.of(var);
        let mut scratch = Scratch::new(self);
        let mut buf: Vec<(Oid, Value)> = Vec::with_capacity(batch.min(oids.len()));
        let mut kept = 0u64;
        for chunk in oids.chunks(batch) {
            // A stale entry (path indexes are rebuilt on demand) points at
            // nothing and is skipped; any other storage failure is the
            // statement's error.
            self.catalog
                .fetch_fields_with(chunk, fields, &mut |oid, value| buf.push((oid, value)))?;
            retain_matching(&mut scratch, prepared, var, &mut buf)?;
            kept += buf.len() as u64;
            sink.push_objects(var, &mut buf)?;
        }
        Ok(kept)
    }

    /// The OIDs, ascending, the index on `class.attr` files under the keys
    /// every bound of `bounds` admits: the bounds merge into one interval —
    /// the greatest lower and the least upper one, `=` being both, compared
    /// as encoded keys at run time so `$n` bounds work — walked once. An
    /// interval that holds nothing finds nothing.
    fn interval_oids(&self, class: &str, bounds: &AttrBounds) -> Result<Vec<Oid>> {
        let info = self.catalog.index(class, &bounds.attr);
        let info = info.ok_or_else(|| CatalogError::UnknownIndex {
            class: class.to_string(),
            attribute: bounds.attr.clone(),
        })?;
        let encode = |(_, operand): &(CmpOp, Operand)| {
            let value = match operand {
                Operand::Value(v) => v,
                Operand::Param(n) => self.param(*n)?,
            };
            Ok(Catalog::index_bound(&info, value)?)
        };
        let keys: Vec<Vec<u8>> = bounds.ops.iter().map(encode).collect::<Result<_>>()?;
        type Bound<'k> = Option<(&'k [u8], bool)>;
        // The tighter of two bounds on one side; on equal keys the exclusive.
        fn tighten<'k>(side: &mut Bound<'k>, new: (&'k [u8], bool), tighter: Ordering) {
            let replace = side.is_none_or(|old| match new.0.cmp(old.0) {
                Ordering::Equal => !new.1,
                other => other == tighter,
            });
            if replace {
                *side = Some(new);
            }
        }
        let (mut lo, mut hi): (Bound<'_>, Bound<'_>) = (None, None);
        for ((op, _), key) in bounds.ops.iter().zip(&keys) {
            let (lower, upper, inclusive) = match op {
                CmpOp::Eq => (true, true, true),
                CmpOp::Gt => (true, false, false),
                CmpOp::Ge => (true, false, true),
                CmpOp::Lt => (false, true, false),
                CmpOp::Le => (false, true, true),
                CmpOp::Ne => return Err(SqlError::Exec("<> cannot be index-served".into())),
            };
            if lower {
                tighten(&mut lo, (key, inclusive), Ordering::Greater);
            }
            if upper {
                tighten(&mut hi, (key, inclusive), Ordering::Less);
            }
        }
        let mut oids = Vec::new();
        self.catalog
            .index_interval_with(&info, lo, hi, &mut |oid| {
                oids.push(oid);
                true
            })?;
        // A path index files one object under every value its path reaches.
        oids.sort_unstable();
        oids.dedup();
        Ok(oids)
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
        pq: &PreparedQuery,
        temps: &HashMap<String, Vec<Row>>,
        rec: &AnalyzeRec,
    ) -> Result<Vec<Row>> {
        let (x_var, attr, y_var) = join_condition(condition)?;

        // Describe the right side: a class (optionally filtered) stays
        // unmaterialized and is fetched per probe; anything else runs as a
        // plan node of its own.
        let class_side = match right {
            Plan::Bind { class, .. } => Some((class, None)),
            Plan::Select { input, predicate } => match &**input {
                Plan::Bind { class, .. } => Some((class, Some(pq.pred(predicate)?))),
                _ => None,
            },
            _ => None,
        };
        let y_fields = pq.reads.of(y_var);
        let right_side = match class_side {
            Some((class, filter)) => RightSide::Class {
                class,
                filter,
                fields: y_fields,
            },
            None => {
                let rows = self.rows_of(right, right_nid, pq, temps, rec)?;
                RightSide::Rows(key_rows_by(&rows, y_var))
            }
        };

        // For backward traversal and the binary join index the right side
        // is materialized up front (the scan/probe source).
        let right_side = match (method, right_side) {
            (
                JoinMethod::BackwardTraversal | JoinMethod::BinaryJoinIndex,
                RightSide::Class { class, filter, .. },
            ) => {
                let start = Instant::now();
                let before = rec.metrics.snapshot();
                let mut map: HashMap<Oid, Vec<Row>> = HashMap::new();
                let mut first_err: Option<SqlError> = None;
                let mut scratch = Scratch::new(self);
                let mut bind = |oid, value| {
                    scratch.next_row();
                    match right_side_row(&mut scratch, filter, y_var, oid, value) {
                        Ok(Some(row)) => map.entry(oid).or_default().push(row),
                        Ok(None) => {}
                        Err(e) => {
                            first_err = Some(e);
                            return false;
                        }
                    }
                    true
                };
                self.catalog
                    .extent_fields_with(class, y_fields, AccessHint::Sequential, &mut bind)?;
                if let Some(e) = first_err {
                    return Err(e);
                }
                rec.record(
                    right_nid,
                    map.values().map(|v| v.len() as u64).sum(),
                    rec.metrics.snapshot().delta(&before),
                    start.elapsed().as_nanos() as u64,
                );
                RightSide::Rows(map)
            }
            (_, rs) => rs,
        };

        let mut out = Vec::new();
        let mut scratch = Scratch::new(self);
        match method {
            JoinMethod::BinaryJoinIndex => {
                let RightSide::Rows(map) = &right_side else {
                    unreachable!()
                };
                // Left class from the first bound object (its stored type;
                // nothing of the value is read).
                let left_class = left_rows
                    .iter()
                    .find_map(|r| r.get(x_var).and_then(|b| b.oid))
                    .map(|oid| {
                        let stored = self.catalog.get_object_fields(oid, &FieldSet::NONE);
                        stored.map(|(c, _)| c)
                    })
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
                    scratch.next_row();
                    let matches = right_side.resolve(&mut scratch, oid, y_var)?;
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
                // Pipelined probe prefetch applies to forward chases into
                // the heap; a materialized right side reads no pages here.
                let prefetch = method == JoinMethod::ForwardTraversal
                    && matches!(right_side, RightSide::Class { .. });
                // The probe side runs in batches of `batch_size` left rows
                // with a per-batch resolution cache, so a reference shared
                // by many rows of a batch fetches (and filters) its target
                // once; at batch size 1 every reference pays its own fetch,
                // the row-at-a-time pattern. Same pairs, same order, at
                // every batch size.
                let batch = self.config.execution.batch_size.max(1);
                let registry = self.catalog.storage().registry();
                let pool = self.catalog.storage().pool();
                let mut pages: Vec<(FileId, PageId)> = Vec::new();
                for chunk in left_rows.chunks(batch) {
                    scratch.next_batch();
                    // Collect the chunk's target pages sorted, then, at
                    // each cache-miss probe, batch-read the consecutive
                    // run ahead of it (one readahead window at a time —
                    // see `BufferPool::prefetch_run`). After `CLUSTER` puts
                    // targets in probe order the chase becomes one batched
                    // read per window; on scattered heaps runs degenerate
                    // to single pages and nothing is issued.
                    if prefetch {
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
                            let targets = match cache.entry(oid) {
                                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                                std::collections::hash_map::Entry::Vacant(e) => {
                                    if prefetch
                                        && pf_end.is_none_or(|(f, end)| {
                                            f != oid.file || oid.page.0 >= end
                                        })
                                    {
                                        let n = pool.prefetch_run(&pages, (oid.file, oid.page));
                                        if n > 0 {
                                            pf_end = Some((oid.file, oid.page.0 + n));
                                        }
                                    }
                                    e.insert(right_side.resolve(&mut scratch, oid, y_var)?)
                                }
                            };
                            for r in targets.iter() {
                                let mut merged = row.clone();
                                merged.extend(r.clone());
                                out.push(merged);
                            }
                        }
                    }
                    registry.add(Metric::BatchRows, chunk.len() as u64);
                    registry.add(Metric::BatchCount, 1);
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
}

/// A recording window over a plan node (or the nested-loop FROM stage)
/// that feeds a sink: the page delta and time since it opened, less what
/// the sink accounted to stages of its own meanwhile.
struct Window {
    start: Instant,
    before: MetricsSnapshot,
    spent: (MetricsSnapshot, u64),
}

impl Window {
    fn open(metrics: &DiskMetrics, sink: &dyn Sink) -> Window {
        Window {
            start: Instant::now(),
            before: metrics.snapshot(),
            spent: sink.spent(),
        }
    }

    fn close(&self, metrics: &DiskMetrics, sink: &dyn Sink) -> (MetricsSnapshot, u64) {
        let (delta, nanos) = sink.spent();
        let (delta, nanos) = (delta.delta(&self.spent.0), nanos - self.spent.1);
        (
            metrics.snapshot().delta(&self.before).delta(&delta),
            (self.start.elapsed().as_nanos() as u64).saturating_sub(nanos),
        )
    }
}

/// The collecting sink of a DML target query: the rows binding `var`, one
/// per stored object. Join bindings — DNF terms that bind different
/// variables, or a path through a SET-valued reference — bind the same
/// target more than once; each object is acted on once.
struct Targets<'v> {
    var: &'v str,
    seen: HashSet<Oid>,
    rows: Vec<(Oid, Row)>,
}

impl Sink for Targets<'_> {
    fn push_objects(&mut self, var: &str, items: &mut Vec<(Oid, Value)>) -> Result<()> {
        let rows = items.drain(..).map(|(oid, value)| bind_one(var, oid, value));
        self.push_rows(rows.collect())
    }

    fn push_rows(&mut self, rows: Vec<Row>) -> Result<()> {
        for row in rows {
            let Some(oid) = row.get(self.var).and_then(|b| b.oid) else {
                return Err(SqlError::Exec(format!(
                    "DML target {} is not a stored object",
                    self.var
                )));
            };
            if self.seen.insert(oid) {
                self.rows.push((oid, row));
            }
        }
        Ok(())
    }
}

/// The two right-side shapes of `exec_join`.
enum RightSide<'p> {
    /// Unmaterialized class with an optional residual filter; probes
    /// decode `fields`, the right variable's read set.
    Class {
        class: &'p str,
        filter: Option<&'p PreparedExpr>,
        fields: &'p FieldSet,
    },
    /// Materialized rows keyed by the right variable's OID.
    Rows(HashMap<Oid, Vec<Row>>),
}

impl RightSide<'_> {
    fn resolve(&self, scratch: &mut Scratch<'_, '_>, oid: Oid, y_var: &str) -> Result<Vec<Row>> {
        let ex = scratch.executor();
        match self {
            RightSide::Rows(map) => Ok(map.get(&oid).cloned().unwrap_or_default()),
            RightSide::Class {
                class,
                filter,
                fields,
            } => {
                // A dangling reference joins nothing: no pair.
                let Some((obj_class, value)) = ex.fetch_live(oid, fields)? else {
                    return Ok(Vec::new());
                };
                if !ex.catalog.is_subclass(&obj_class, class) {
                    return Ok(Vec::new());
                }
                let row = right_side_row(scratch, *filter, y_var, oid, value)?;
                Ok(row.into_iter().collect())
            }
        }
    }
}

/// One batch through a predicate: the objects of `buf`, bound to `var`, that
/// it rejects are dropped (shared registers, a fresh dereference cache); the
/// first evaluation error ends the batch.
fn retain_matching(
    scratch: &mut Scratch<'_, '_>,
    pred: &PreparedExpr,
    var: &str,
    buf: &mut Vec<(Oid, Value)>,
) -> Result<()> {
    scratch.next_batch();
    let mut failed = None;
    buf.retain(|(oid, value)| {
        if failed.is_some() {
            return false;
        }
        let view = RowView::Object {
            var,
            oid: *oid,
            value,
        };
        scratch.matches(pred, view).unwrap_or_else(|e| {
            failed = Some(e);
            false
        })
    });
    failed.map_or(Ok(()), Err)
}

/// The row binding a join's right-side object to `y_var`, if it passes the
/// right side's filter.
fn right_side_row(
    scratch: &mut Scratch<'_, '_>,
    filter: Option<&PreparedExpr>,
    y_var: &str,
    oid: Oid,
    value: Value,
) -> Result<Option<Row>> {
    if let Some(f) = filter {
        let value = &value;
        if !scratch.matches(f, RowView::Object { var: y_var, oid, value })? {
            return Ok(None);
        }
    }
    Ok(Some(bind_one(y_var, oid, value)))
}

/// The row binding one stored object to `var`.
pub(crate) fn bind_one(var: &str, oid: Oid, value: Value) -> Row {
    let mut row = Row::new();
    row.insert(
        var.to_string(),
        BoundObj {
            oid: Some(oid),
            value: Arc::new(value),
        },
    );
    row
}

/// ORDER BY / GROUP BY keys as the expressions they evaluate.
fn path_exprs<'p>(paths: impl IntoIterator<Item = &'p PathRef>) -> Vec<PreparedExpr> {
    let exprs = paths.into_iter().cloned().map(Expr::Path);
    exprs.map(PreparedExpr::new).collect()
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
