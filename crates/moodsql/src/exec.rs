//! Plan execution.
//!
//! The executor follows the optimizer's access plan (so join methods and
//! path orders actually determine the I/O pattern — what the benches
//! measure against the §6 cost model) and evaluates every expression as the
//! register program it is compiled to at first use (`compiled.rs`; run-time
//! type checked through `OperandDataType`). This module is FROM and WHERE:
//! every AND-term's plan runs with the operator order of Figure 7.2
//! (SELECT → JOIN → PROJECT → UNION), each plan node pushing its output
//! into a `Sink` — a join's input, a row vector, and at a term's root
//! the statement's `Tail` (`tail.rs`), which applies the later clauses
//! of Figure 7.1 (GROUP BY/HAVING → projection → ORDER BY) to the stream
//! batch by batch. A single-variable scan at the root hands the tail the
//! objects it decoded, and so does an index selection: one leaf-chain walk
//! per indexed attribute over the interval its bounds merge into, the
//! interval's OIDs sorted, then fetched a page at a time, re-verified and
//! pushed `batch_size` objects at a time. A join pushes the [`Row`]s it
//! joins downstream a probe batch at a time; a row holds one slot per range
//! variable. A FROM list of several components (`binder::Component`) is a
//! plan per component, combined left-deep in FROM order: each left row meets
//! the right side's rows of its hash key (all, for a product) in their
//! order, `batch_size` at a time. A trace records the stages for the tests.

use std::collections::{HashMap, HashSet};
use std::mem;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use mood_algebra::{
    compact, ind_sel, join_pairs, materializes_class, members_by_oid, scan_class, JoinRight,
    LeftObj, Slab,
};
use mood_catalog::{Catalog, DatabaseStats};
use mood_cost::Theta;
use mood_datamodel::{encode_value_into, Value};
use mood_funcman::{Exception, ExceptionKind, FunctionManager, Receiver};
use mood_optimizer::{
    estimate_plan_set, optimize, AttrPath, Const, Dnf, OptimizerConfig, Plan, PlanSet, Pred,
    TermPlan, MAX_DNF_TERMS,
};
use mood_storage::exec::run_chunked;
use mood_storage::{AccessHint, FileId, Metric, Oid};
use mood_trace::Tracer;

use crate::analyze::{
    op_span, record_operator_totals, render_estimates, AnalyzeReport, Ledger, NodeTable, Owner,
    TermReport,
};
use crate::ast::{CmpOp, Expr, Lit, PathRef, SelectStmt};
use crate::binder::{lower, Component, Lowered};
use crate::compiled::{PreparedExpr, RowView, Scratch};
use crate::error::{Result, SqlError};
use crate::readset::ReadSets;
use crate::tail::{group_operands, operand_input, Sink, Tail};

/// One variable binding set: per range variable, in its slot (its rank
/// among the statement's read sets), the object bound to it. Merging two
/// rows copies slots; no variable name is stored or compared.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row(Vec<Option<BoundObj>>);

impl Row {
    /// The row binding one stored object in `slot`.
    pub fn bound(slot: usize, oid: Oid, value: Arc<Value>) -> Row {
        let mut row = Row::default();
        row.set(slot, BoundObj { oid: Some(oid), value });
        row
    }

    /// The object bound in `slot`, if any.
    pub fn get(&self, slot: usize) -> Option<&BoundObj> {
        self.0.get(slot)?.as_ref()
    }

    pub fn set(&mut self, slot: usize, bound: BoundObj) {
        if self.0.len() <= slot {
            self.0.resize(slot + 1, None);
        }
        self.0[slot] = Some(bound);
    }

    /// This row with every slot `other` binds bound as there.
    fn merged(mut self, other: &Row) -> Row {
        for (slot, bound) in other.0.iter().enumerate() {
            if let Some(bound) = bound {
                self.set(slot, bound.clone());
            }
        }
        self
    }
}

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
}

/// A SELECT prepared once — bound, optimized, every expression it evaluates
/// built from its plan and ready to compile at first use — and
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
    /// One optimized plan per AND-term of the WHERE clause's DNF (or the
    /// one fused term), its components combined when it has several.
    pub(crate) terms: Vec<Term>,
    /// Catalog epoch at preparation; a mismatch means the plan is stale.
    pub epoch: u64,
    /// Range variable → the fields of its object the statement reads; every
    /// place the driver binds the variable decodes exactly these. A
    /// variable's rank here is its [`Row`] slot.
    pub(crate) reads: ReadSets,
    /// What the tail evaluates per binding. Ungrouped: the projection
    /// columns. Grouped: the per-row input of each group-level operand of
    /// SELECT/HAVING that has one ([`group_operands`], [`operand_input`]).
    pub(crate) cols: Vec<PreparedExpr>,
    /// The ORDER BY and GROUP BY keys.
    pub(crate) order_keys: Vec<PreparedExpr>,
    pub(crate) group_keys: Vec<PreparedExpr>,
    /// The result's column labels, rendered once when no parameter appears
    /// in the projection; otherwise every execution renders its own.
    pub(crate) labels: Option<Vec<String>>,
    /// Wall time spent preparing (EXPLAIN ANALYZE's compile/execute split).
    pub compile_nanos: u64,
}

/// One AND-term of a prepared statement: its plan, and per node — by the
/// shared pre-order id — what folding actuals into the operator totals
/// reads and what running the node reads besides the plan.
pub(crate) struct Term {
    pub(crate) plan: PlanSet,
    table: NodeTable,
    prep: Vec<NodePrep>,
}

/// What running one plan node reads besides the plan, resolved when the
/// statement is prepared and valid for its catalog epoch: DDL, `CLUSTER`,
/// index changes and statistics refreshes all move it.
enum NodePrep {
    None,
    /// A `SELECT`'s predicate.
    Select(PreparedExpr),
    /// An `INDSEL`'s predicate (each fetched object is re-verified), the
    /// bounds it puts on each indexed attribute, and the extent files its
    /// variable ranges over.
    IndSel(PreparedExpr, Vec<AttrBounds>, Vec<FileId>),
    /// A `BIND`'s classes — the extents a scan reads, or that a join's
    /// right side ranges over — and their files.
    Bind(Vec<String>, Vec<FileId>),
    /// A `VALUE_HASH` combination's key: its left side's, its right side's.
    Keys([PreparedExpr; 2]),
}

impl NodePrep {
    fn exprs(&self) -> &[PreparedExpr] {
        match self {
            NodePrep::Select(pred) | NodePrep::IndSel(pred, ..) => std::slice::from_ref(pred),
            NodePrep::Keys(keys) => keys,
            NodePrep::None | NodePrep::Bind(..) => &[],
        }
    }
}

/// Every bound an INDSEL predicate puts on one indexed attribute (a dotted
/// path for a path index), in the order written.
struct AttrBounds {
    attr: String,
    ops: Vec<(Theta, Const)>,
}

/// Group an INDSEL predicate's atoms `var.a1…am θ constant` by attribute.
fn attr_bounds(predicate: &Pred) -> Result<Vec<AttrBounds>> {
    let mut out: Vec<AttrBounds> = Vec::new();
    for p in predicate.conjuncts() {
        let Pred::Atom(atom) = p else {
            return Err(SqlError::Exec(format!("INDSEL predicate cannot be index-served: {p}")));
        };
        let attr = atom.lhs.path.join(".");
        let bound = (atom.theta, atom.constant.clone());
        match out.iter_mut().find(|b| b.attr == attr) {
            Some(b) => b.ops.push(bound),
            None => out.push(AttrBounds { attr, ops: vec![bound] }),
        }
    }
    Ok(out)
}

/// The expression a plan predicate evaluates: an atom the comparison it
/// stands for, an opaque conjunct its entry of the statement's conjunct
/// table under its NOTs, a conjunction or a disjunction of those.
fn pred_expr(pred: &Pred, conjuncts: &[Expr]) -> Result<Expr> {
    let all = |parts: &[Pred]| -> Result<Vec<Expr>> {
        parts.iter().map(|p| pred_expr(p, conjuncts)).collect()
    };
    Ok(match pred {
        Pred::Atom(atom) => Expr::Compare {
            op: CmpOp::of_theta(atom.theta),
            left: Box::new(path_expr(&atom.lhs)),
            right: Box::new(match &atom.constant {
                Const::Value(v) => Expr::Literal(value_lit(v)),
                Const::Param(n) => Expr::Param(*n),
            }),
        },
        Pred::Conjunct(c) => {
            let missing = || SqlError::Exec(format!("no conjunct {} in the statement", c.id));
            let e = conjuncts.get(c.id).cloned().ok_or_else(missing)?;
            (0..c.negations).fold(e, |e, _| Expr::Not(Box::new(e)))
        }
        Pred::And(parts) => Expr::And(all(parts)?),
        Pred::Or(parts) => Expr::Or(all(parts)?),
    })
}

fn path_expr(p: &AttrPath) -> Expr {
    Expr::Path(PathRef { var: p.var.clone(), segments: p.path.clone() })
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

/// The predicates and keys a statement's terms evaluate.
fn term_preds(terms: &[Term]) -> impl Iterator<Item = &Expr> {
    terms.iter().flat_map(|t| &t.prep).flat_map(NodePrep::exprs).map(|p| &p.expr)
}

/// A join's right side that the join reads as a class — probing or scanning
/// its extents itself, never running it as a plan: a `BIND`, or a `SELECT`
/// directly over one.
fn is_class_side(right: &Plan) -> bool {
    match right {
        Plan::Bind { .. } => true,
        Plan::Select { input, .. } => matches!(**input, Plan::Bind { .. }),
        _ => false,
    }
}

/// The executor.
///
/// The scaffold lives behind a `Mutex` (not a `RefCell`) so `&Executor` is
/// `Sync` — the row filter's chunks evaluate predicates through a shared
/// executor reference on worker threads.
pub struct Executor<'a> {
    pub catalog: &'a Catalog,
    pub funcman: &'a FunctionManager,
    pub config: OptimizerConfig,
    /// The values `$1, $2, …` stand for in whatever this executor runs.
    params: &'a [Value],
    scaffold: Mutex<Scaffold>,
    tracer: Tracer,
}

/// What an execution needs besides its answer and keeps past it: the stage
/// trace of the last query, and the slots an index selection decodes into.
/// A session lends its executors the one the last statement left, so a
/// cached statement allocates neither.
#[derive(Default)]
pub(crate) struct Scaffold {
    pub(crate) trace: Vec<&'static str>,
    slab: Slab,
}

/// The tracer of an executor that was given none: one, shared, that nothing
/// subscribes to, so building an executor allocates nothing.
fn untraced() -> Tracer {
    static UNTRACED: OnceLock<Tracer> = OnceLock::new();
    UNTRACED.get_or_init(Tracer::new).clone()
}

impl<'a> Executor<'a> {
    pub fn new(catalog: &'a Catalog, funcman: &'a FunctionManager) -> Executor<'a> {
        Executor {
            catalog,
            funcman,
            config: OptimizerConfig::default(),
            params: &[],
            scaffold: Mutex::default(),
            tracer: untraced(),
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

    /// Run on `scaffold` (a session's, from its last statement).
    pub(crate) fn with_scaffold(mut self, scaffold: Scaffold) -> Self {
        self.scaffold = Mutex::new(scaffold);
        self
    }

    /// The scaffold back, holding the stage trace of the last query (Figure
    /// 7.1/7.2 conformance).
    pub(crate) fn into_scaffold(self) -> Scaffold {
        self.scaffold.into_inner().expect("scaffold lock")
    }

    pub(crate) fn mark(&self, stage: &'static str) {
        self.scaffold.lock().expect("scaffold lock").trace.push(stage);
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

    /// Optimize only: the plan text (the `EXPLAIN` statement), with the
    /// cost model's per-node estimates in a comment block.
    pub fn explain(&self, stmt: &SelectStmt) -> Result<String> {
        let lowered = lower(self.catalog, stmt)?;
        let stats = self.catalog.stats();
        let every = self.every_scans(stmt);
        let (dnf, planned) = self.plan_terms(&lowered, &stats);
        let mut out = match dnf {
            Dnf::Terms => String::new(),
            Dnf::Fused { terms, selectivity } => format!(
                "-- DNF: {terms} scan-only AND-terms fused into one scan \
                 (selectivity 1 - prod(1 - s_i) = {selectivity:.3e})\n"
            ),
            Dnf::Unexpanded { terms } => format!(
                "-- DNF: not expanded ({terms} AND-terms > {MAX_DNF_TERMS}): one scan filtered \
                 by the WHERE clause as written\n"
            ),
        };
        for term in &planned {
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
            let est = estimate_plan_set(&term.plan, &stats, &self.config, &every);
            out.push_str(&render_estimates(&term.plan, &est));
            out.push_str(&term.plan.to_string());
            out.push('\n');
        }
        let terms = planned.into_iter().map(|t| self.term(t.plan, stmt, &lowered.conjuncts));
        let terms: Vec<Term> = terms.collect::<Result<_>>()?;
        let plans = terms.iter().map(|t| &t.plan);
        let reads = ReadSets::collect(stmt, plans, term_preds(&terms));
        out.push_str(&reads.to_string());
        Ok(out)
    }

    /// How the WHERE clause's DNF reached the plans, and each AND-term's:
    /// the optimizer's own for a FROM list of one component; for several,
    /// each component planned alone, then [`Executor::combine`]d.
    fn plan_terms(&self, lowered: &Lowered, stats: &DatabaseStats) -> (Dnf, Vec<TermPlan>) {
        if lowered.components.is_empty() {
            let optimized = optimize(&lowered.spec, stats, &self.config);
            return (optimized.dnf, optimized.terms);
        }
        let dnf = lowered.spec.unexpanded.map_or(Dnf::Terms, |terms| Dnf::Unexpanded { terms });
        (dnf, lowered.components.iter().map(|parts| self.combine(parts, stats)).collect())
    }

    /// One AND-term over several components: each planned by the optimizer
    /// (Algorithm 8.1, §8.1's index rule and all), then combined left-deep
    /// in FROM order — `JOIN(left, right, VALUE_HASH, x.a = y.b)` on the
    /// component's hash key, else `JOIN(left, right, PRODUCT, TRUE)` — and
    /// filtered by the conjuncts over several that the new one completes.
    /// Temporaries are renumbered in order; the dictionaries are merged.
    fn combine(&self, parts: &[Component], stats: &DatabaseStats) -> TermPlan {
        let mut plans = parts.iter().map(|part| {
            let mut terms = optimize(&part.spec, stats, &self.config).terms;
            (part, terms.pop().expect("one AND-term per component"))
        });
        let (_, mut acc) = plans.next().expect("a first component");
        for (part, mut next) in plans {
            let shift = acc.plan.temps.len();
            shift_temps(&mut next.plan.root, shift);
            for (_, mut plan) in next.plan.temps {
                shift_temps(&mut plan, shift);
                acc.plan.temps.push((format!("T{}", acc.plan.temps.len() + 1), plan));
            }
            let (left, right) = (Box::new(acc.plan.root), Box::new(next.plan.root));
            acc.plan.root = Plan::Combine { left, right, on: part.on.clone() };
            if !part.filter.is_empty() {
                acc.plan.root = Plan::select(acc.plan.root, Pred::and(part.filter.clone()));
            }
            acc.plan.estimated_cost += next.plan.estimated_cost;
            acc.imm_sel_info.append(&mut next.imm_sel_info);
            acc.path_sel_info.append(&mut next.path_sel_info);
            acc.other_sel_info.append(&mut next.other_sel_info);
        }
        acc
    }

    // ------------------------------------------------------------------
    // SELECT execution: prepare, then the one driver
    // ------------------------------------------------------------------

    /// Bind, optimize and prepare a SELECT once, producing the plan the
    /// driver executes and the session cache can re-execute without touching
    /// the parser or optimizer.
    ///
    /// Every Select/IndSel predicate in the plan becomes the expression it
    /// evaluates here, with each INDSEL's bounds, each hash key and the
    /// extent files each node reads, and each range
    /// variable's read set derived from what the driver will evaluate; the
    /// register program of a predicate or of a tail expression follows when
    /// it is first evaluated (and is charged to `compile.ns` then, not
    /// here). Statistics must exist for every FROM class: the first use
    /// collects them.
    /// `epoch` is read after any first-use statistics collection (which
    /// bumps it) and before any extent is resolved, so a cached entry stays
    /// valid until the next DDL or statistics refresh.
    pub fn prepare_query(&self, stmt: &SelectStmt) -> Result<PreparedQuery> {
        let nparams = stmt.max_param();
        self.check_params(nparams)?;
        let metrics = self.catalog.storage().metrics();
        let start = Instant::now();
        let lowered = {
            let _span = self.tracer.span("bind", metrics);
            lower(self.catalog, stmt)?
        };
        let mut stats = self.catalog.stats();
        if stmt.from.iter().any(|item| stats.class(&item.class).is_none()) {
            stats = self.catalog.collect_stats()?;
        }
        let planned = {
            let _span = self.tracer.span("optimize", metrics);
            self.plan_terms(&lowered, &stats).1
        };
        let epoch = self.catalog.epoch();
        let terms = planned.into_iter().map(|t| self.term(t.plan, stmt, &lowered.conjuncts));
        let terms: Vec<Term> = terms.collect::<Result<_>>()?;
        let plans = terms.iter().map(|t| &t.plan);
        let reads = ReadSets::collect(stmt, plans, term_preds(&terms));
        let prepared = |e: &Expr| PreparedExpr::new(e.clone());
        let cols = if is_grouped(stmt) {
            let inputs = group_operands(stmt).into_iter().filter_map(operand_input);
            inputs.map(prepared).collect()
        } else {
            stmt.projection.iter().map(prepared).collect()
        };
        let compile_nanos = start.elapsed().as_nanos() as u64;
        self.catalog
            .storage()
            .registry()
            .add(Metric::CompileNs, compile_nanos);
        let labels = stmt.projection.iter().all(|e| e.max_param() == 0);
        Ok(PreparedQuery {
            stmt: stmt.clone(),
            nparams,
            terms,
            epoch,
            reads,
            cols,
            order_keys: path_exprs(stmt.order_by.iter().map(|(p, _)| p)),
            group_keys: path_exprs(&stmt.group_by),
            labels: labels.then(|| stmt.projection.iter().map(Expr::render).collect()),
            compile_nanos,
        })
    }

    /// One AND-term's plan with its nodes resolved (see [`NodePrep`]); its
    /// opaque conjuncts are entries of `conjuncts`.
    fn term(&self, plan: PlanSet, stmt: &SelectStmt, conjuncts: &[Expr]) -> Result<Term> {
        let mut prep = Vec::new();
        for p in plan.temps.iter().map(|(_, p)| p).chain([&plan.root]) {
            self.prep_nodes(p, false, stmt, conjuncts, &mut prep)?;
        }
        Ok(Term { table: NodeTable::of(&plan), prep, plan })
    }

    /// Resolve `plan`'s nodes in pre-order into `out`. `probed`: `plan` is
    /// a join's class side ([`is_class_side`]). Its variable, and a FROM
    /// item's wherever it is scanned, ranges over [`Executor::range_of`] it;
    /// a path variable's scanned `BIND` reads its class's own extent.
    fn prep_nodes(
        &self,
        plan: &Plan,
        probed: bool,
        stmt: &SelectStmt,
        conjuncts: &[Expr],
        out: &mut Vec<NodePrep>,
    ) -> Result<()> {
        let prepared = |pred| Ok::<_, SqlError>(PreparedExpr::new(pred_expr(pred, conjuncts)?));
        out.push(match plan {
            Plan::Select { predicate, .. } => NodePrep::Select(prepared(predicate)?),
            Plan::IndSel { class, var, predicate, .. } => {
                let (pred, bounds) = (prepared(predicate)?, attr_bounds(predicate)?);
                // A path index covers the class and every subclass, which
                // may be more extents than the variable ranges over.
                let files = self.catalog.extent_files(&self.range_of(stmt, var, class));
                NodePrep::IndSel(pred, bounds, files)
            }
            Plan::Bind { class, var } => {
                let classes = if probed || stmt.from.iter().any(|item| item.var == *var) {
                    self.range_of(stmt, var, class)
                } else {
                    vec![class.clone()]
                };
                let files = self.catalog.extent_files(&classes);
                NodePrep::Bind(classes, files)
            }
            Plan::Combine { on: Some((x, y)), .. } => {
                NodePrep::Keys([x, y].map(|key| PreparedExpr::new(path_expr(key))))
            }
            _ => NodePrep::None,
        });
        for (i, child) in plan.children().into_iter().enumerate() {
            let probed = match plan {
                Plan::Join { .. } => i == 1 && is_class_side(child),
                Plan::Select { .. } => probed,
                _ => false,
            };
            self.prep_nodes(child, probed, stmt, conjuncts, out)?;
        }
        Ok(())
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
        let ledger = Ledger::new(self.catalog.storage().metrics());
        Ok(self.execute(pq, &ledger)?.0)
    }

    /// Execute with full instrumentation: the `EXPLAIN ANALYZE` statement.
    ///
    /// The statement's ledger opens first: preparation is the `PLAN`
    /// stage's, and every moment after it belongs to one plan node, one
    /// stage or the coordinator, so the report's exclusive figures and
    /// stage figures sum exactly to the statement's counter delta and, with
    /// the coordinator's share, to its wall time.
    pub fn analyze(&self, stmt: &SelectStmt) -> Result<AnalyzeReport> {
        let ledger = Ledger::open(self.catalog.storage().metrics());
        ledger.switch(Owner::Stage("PLAN"));
        let pq = self.prepare_query(stmt)?;
        ledger.switch(Owner::Coordinator);
        self.report(&pq, ledger, false)
    }

    /// Execute a prepared (cached) plan with full instrumentation. The
    /// PLAN stage is absent — bind/optimize already happened at prepare
    /// time — so the report states `cached` and a zero compile cost.
    pub fn analyze_prepared(&self, pq: &PreparedQuery) -> Result<AnalyzeReport> {
        self.report(pq, Ledger::open(self.catalog.storage().metrics()), true)
    }

    /// Run the driver on a reporting ledger and assemble the report.
    fn report(&self, pq: &PreparedQuery, ledger: Ledger<'_>, cached: bool) -> Result<AnalyzeReport> {
        let (result, terms) = self.execute(pq, &ledger)?;
        let (stages, coordinator_nanos, total, elapsed_nanos) = ledger.close();
        let compile_nanos = stages
            .iter()
            .find(|s| s.name == "PLAN")
            .map_or(0, |s| s.nanos);
        Ok(AnalyzeReport {
            total,
            elapsed_nanos,
            coordinator_nanos,
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
    /// with the value bound to `var`: the target query (see
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
    ) -> Result<Vec<(Oid, Arc<Value>)>> {
        let target = SelectStmt::dml_target(class, var, where_clause.cloned());
        let pq = self.prepare_query(&target)?;
        self.start(&pq)?;
        let mut exec_span = self
            .tracer
            .span("execute", self.catalog.storage().metrics());
        let mut bound = Bindings { slots: &pq.reads, rows: Vec::new() };
        self.feed(&pq, &Ledger::new(self.catalog.storage().metrics()), &mut bound)?;
        // Join bindings — DNF terms that bind different variables, or a path
        // through a SET-valued reference — bind the same target more than
        // once; each object is acted on once.
        let (slot, mut seen, mut targets) = (pq.reads.slot(var)?, HashSet::new(), Vec::new());
        for row in bound.rows {
            let Some(BoundObj { oid: Some(oid), value }) = row.get(slot) else {
                return Err(SqlError::Exec(format!("DML target {var} is not a stored object")));
            };
            if seen.insert(*oid) {
                targets.push((*oid, value.clone()));
            }
        }
        exec_span.set_rows(targets.len() as u64);
        Ok(targets)
    }

    /// Begin one execution of `pq`: every parameter it reads must be bound
    /// before anything runs (an empty extent must not hide the error), and
    /// the stage trace starts empty.
    fn start(&self, pq: &PreparedQuery) -> Result<()> {
        self.check_params(pq.nparams)?;
        self.scaffold.lock().expect("scaffold lock").trace.clear();
        Ok(())
    }

    /// The SELECT driver — the one path every statement takes: FROM + WHERE
    /// ([`Executor::feed`]) push into the statement's [`Tail`], which
    /// applies the later clauses to the stream, every moment charged to
    /// `ledger`. A reporting ledger (`EXPLAIN ANALYZE`) gets the plan
    /// nodes' actuals back as per-term reports; otherwise the same code
    /// runs and the reports are empty.
    fn execute(
        &self,
        pq: &PreparedQuery,
        ledger: &Ledger<'_>,
    ) -> Result<(QueryResult, Vec<TermReport>)> {
        self.start(pq)?;
        let mut exec_span = self
            .tracer
            .span("execute", self.catalog.storage().metrics());
        let mut tail = Tail::new(self, pq, ledger);
        let terms = self.feed(pq, ledger, &mut tail)?;
        let result = tail.finish()?;
        exec_span.set_rows(result.len() as u64);
        Ok((result, terms))
    }

    /// FROM + WHERE of a prepared statement, pushed into `sink`: each
    /// AND-term's plan runs in turn and the sink sees their union (Figure
    /// 7.2).
    /// Every term's node accounts are folded into the registry's
    /// per-operator lifetime totals and, on a reporting ledger, paired with
    /// the cost model's estimates (computed here, on demand).
    fn feed(
        &self,
        pq: &PreparedQuery,
        ledger: &Ledger<'_>,
        sink: &mut dyn Sink,
    ) -> Result<Vec<TermReport>> {
        self.mark("FROM");
        let registry = self.catalog.storage().registry();
        let stats = ledger.reports().then(|| (self.catalog.stats(), self.every_scans(&pq.stmt)));
        let mut reports: Vec<TermReport> = Vec::new();
        for term in &pq.terms {
            self.exec_term(term, pq, ledger, sink)?;
            ledger.settle_term(|accounts| {
                record_operator_totals(registry, &term.table, accounts);
                if let Some((stats, every)) = &stats {
                    let est = estimate_plan_set(&term.plan, stats, &self.config, every);
                    let plan = term.plan.clone();
                    reports.push(TermReport::build(plan, est, &term.table, accounts));
                }
            });
        }
        if pq.terms.len() > 1 {
            self.mark("WHERE:UNION");
        }
        Ok(reports)
    }

    /// Execute one term's plan set: temps in creation order, then the root
    /// into `sink`, each node charging `ledger` under its id in the shared
    /// pre-order scheme over `[temps…, root]`.
    fn exec_term(
        &self,
        term: &Term,
        pq: &PreparedQuery,
        ledger: &Ledger<'_>,
        sink: &mut dyn Sink,
    ) -> Result<()> {
        ledger.begin_term(term.prep.len());
        let mut run = TermRun { prep: &term.prep, temps: HashMap::new(), ledger };
        let mut offset = 0usize;
        for (name, plan) in &term.plan.temps {
            let rows = self.rows_of(plan, offset, pq, &run)?;
            offset += plan.subtree_size();
            run.temps.insert(name.clone(), rows);
        }
        self.exec_plan_at(&term.plan.root, offset, pq, &run, sink)
    }

    // ------------------------------------------------------------------
    // Plan interpretation
    // ------------------------------------------------------------------

    /// Execute the node at pre-order id `nid` into `sink`, the node owning
    /// every moment of it that no child and no stage of the sink owns, and
    /// count its rows.
    ///
    /// Owners switch on this (coordinating) thread only: chunk-parallel
    /// operators join their workers before returning, so the node owns
    /// every page they touch.
    fn exec_plan_at(
        &self,
        plan: &Plan,
        nid: usize,
        pq: &PreparedQuery,
        run: &TermRun<'_>,
        sink: &mut dyn Sink,
    ) -> Result<()> {
        let mut span = self.tracer.span(op_span(plan), self.catalog.storage().metrics());
        let feeder = run.ledger.switch(Owner::Node(nid));
        let rows = self.exec_plan_node(plan, nid, pq, run, sink)?;
        span.set_rows(rows);
        run.ledger.count(Owner::Node(nid), rows);
        run.ledger.switch(feeder);
        Ok(())
    }

    /// The rows of a node that feeds another operator.
    fn rows_of(
        &self,
        plan: &Plan,
        nid: usize,
        pq: &PreparedQuery,
        run: &TermRun<'_>,
    ) -> Result<Vec<Row>> {
        let mut rows = Bindings { slots: &pq.reads, rows: Vec::new() };
        self.exec_plan_at(plan, nid, pq, run, &mut rows)?;
        Ok(rows.rows)
    }

    /// Run one node into `sink`; the number of rows it produced.
    fn exec_plan_node(
        &self,
        plan: &Plan,
        nid: usize,
        pq: &PreparedQuery,
        run: &TermRun<'_>,
        sink: &mut dyn Sink,
    ) -> Result<u64> {
        match plan {
            Plan::Bind { var, .. } => self.scan(var, nid, None, pq, run, sink),
            Plan::Temp { name } => {
                let rows = run.temps.get(name).cloned();
                let rows = rows.ok_or_else(|| SqlError::Exec(format!("unknown temporary {name}")))?;
                let n = rows.len() as u64;
                sink.push_rows(rows).map(|()| n)
            }
            Plan::IndSel { class, var, .. } => self.index_select(class, var, nid, pq, run, sink),
            Plan::Select { input, .. } => {
                let pred = run.pred(nid)?;
                // Directly over a Bind nothing but the scanned object is
                // bound: scan and filter run as one batched pass.
                if let Plan::Bind { var, .. } = &**input {
                    self.mark("WHERE:SELECT");
                    return self.scan(var, nid + 1, Some(pred), pq, run, sink);
                }
                let (node, ledger) = (Owner::Node(nid), run.ledger);
                let reads = &pq.reads;
                let mut filter = Filter { ex: self, pred, reads, node, ledger, sink, kept: 0 };
                self.exec_plan_at(input, nid + 1, pq, run, &mut filter)?;
                self.mark("WHERE:SELECT");
                Ok(filter.kept)
            }
            Plan::Join { .. } | Plan::Combine { .. } => {
                let n = match plan {
                    Plan::Combine { left, right, .. } => {
                        self.exec_combine(left, right, nid, pq, run, sink)?
                    }
                    _ => self.exec_join(plan, nid, pq, run, sink)?,
                };
                self.mark("WHERE:JOIN");
                Ok(n)
            }
            // A term's plan holds no UNION: the driver unions the terms.
            other => Err(SqlError::Exec(format!("plan node {other:?} runs at statement level"))),
        }
    }

    /// `BIND` (node `bind`) of `var` — alone, or with the predicate of the
    /// `SELECT` directly over it — streamed into `sink` in batches of
    /// `batch_size` objects; the number of objects let through. A predicate
    /// runs per batch with one register file and one per-batch deref cache,
    /// so funcman dispatch, register setup and catalog dereferences amortize
    /// across the batch, and nothing is built for an object it rejects.
    /// Output is byte-identical to scan-then-filter (same objects, same
    /// extent order) at every batch size; at 1 it *is* the row-at-a-time
    /// path.
    ///
    /// A `Bind` absorbed this way still reports its own actuals: it counts
    /// the objects the scan produced and owns the pass, while the enclosing
    /// `Select` owns the predicate batches.
    fn scan(
        &self,
        var: &str,
        bind: usize,
        filter: Option<&PreparedExpr>,
        pq: &PreparedQuery,
        run: &TermRun<'_>,
        sink: &mut dyn Sink,
    ) -> Result<u64> {
        let batch = self.config.execution.batch_size.max(1);
        let registry = self.catalog.storage().registry();
        let (mut scanned, mut kept) = (0u64, 0u64);
        let (scan, ledger) = (Owner::Node(bind), run.ledger);
        if filter.is_some() {
            ledger.switch(scan);
        }
        let mut scratch = Scratch::new(self);
        // One batch: shared registers, fresh deref cache.
        let mut flush = |objects: &mut [(Oid, Value)]| -> Result<()> {
            scanned += objects.len() as u64;
            let mut n = objects.len();
            if let Some(pred) = filter {
                registry.add(Metric::BatchRows, n as u64);
                registry.add(Metric::BatchCount, 1);
                // The `SELECT` directly over the `BIND`: the id before it.
                ledger.switch(Owner::Node(bind - 1));
                n = keep_matching(&mut scratch, pred, var, objects)?;
                ledger.switch(scan);
            }
            kept += n as u64;
            sink.push_objects(var, &mut objects[..n])
        };
        // The batch's slots, kept across batches: a record decodes into
        // what the slot's previous object left behind.
        let mut slab = Slab::default();
        let mut first_err: Option<SqlError> = None;
        let ((classes, _), fields) = (run.range(bind)?, pq.reads.of(var));
        let mut reader = self.catalog.reader(fields);
        self.catalog.extent_records_with(classes, AccessHint::Sequential, &mut |oid, bytes| {
            let step = match slab.decode(&mut reader, oid, bytes) {
                Err(e) => Err(e.into()),
                Ok(()) if slab.len() == batch => {
                    let flushed = flush(slab.objects());
                    slab.consume(batch);
                    flushed
                }
                Ok(()) => Ok(()),
            };
            step.map_err(|e| first_err = Some(e)).is_ok()
        })?;
        first_err.map_or(Ok(()), Err)?;
        if !slab.is_empty() {
            flush(slab.objects())?;
        }
        if filter.is_some() {
            ledger.count(scan, scanned);
        }
        Ok(kept)
    }

    /// `INDSEL` (node `nid`) of `var` over `class` streamed into `sink` by
    /// `mood_algebra::ind_sel` in ascending OID order; the number of objects
    /// let through. An index entry may be stale, so each object is
    /// re-verified before it is pushed, `batch_size` at a time. The objects
    /// are decoded into the scaffold's slab.
    fn index_select(
        &self,
        class: &str,
        var: &str,
        nid: usize,
        pq: &PreparedQuery,
        run: &TermRun<'_>,
        sink: &mut dyn Sink,
    ) -> Result<u64> {
        self.mark("WHERE:SELECT");
        let Some(NodePrep::IndSel(pred, bounds, files)) = run.prep.get(nid) else {
            return Err(unprepared(nid));
        };
        let bounds = bounds.iter().map(|b| {
            let ops = b.ops.iter().map(|(theta, constant)| match constant {
                Const::Value(v) => Ok((*theta, v)),
                Const::Param(n) => Ok((*theta, self.param(*n)?)),
            });
            Ok((b.attr.as_str(), ops.collect::<Result<_>>()?))
        });
        let bounds: Vec<_> = bounds.collect::<Result<_>>()?;
        let (batch, mut scratch) = (self.config.execution.batch_size.max(1), Scratch::new(self));
        let mut kept = 0u64;
        let mut flush = |objects: &mut [(Oid, Value)]| -> Result<()> {
            let n = keep_matching(&mut scratch, pred, var, objects)?;
            kept += n as u64;
            sink.push_objects(var, &mut objects[..n])
        };
        // Full batches go as soon as a window completes one; the rest wait
        // in the slab, ahead of the next window's objects. A statement that
        // failed may have left objects live: they are slots now.
        let mut slab = mem::take(&mut self.scaffold.lock().expect("scaffold lock").slab);
        slab.consume(slab.len());
        let mut window = |slab: &mut Slab| -> Result<()> {
            while slab.len() >= batch {
                flush(&mut slab.objects()[..batch])?;
                slab.consume(batch);
            }
            Ok(())
        };
        let right = (files.as_slice(), pq.reads.of(var));
        let mut done = ind_sel(self.catalog, class, &bounds, right, &mut slab, &mut window);
        if done.is_ok() && !slab.is_empty() {
            done = flush(slab.objects());
        }
        self.scaffold.lock().expect("scaffold lock").slab = slab;
        done.map(|()| kept)
    }

    /// Execute one implicit join following the plan's method, pushing the
    /// joined rows into `sink`; the number of rows pushed. The join is
    /// `mood_algebra::join_pairs` over the objects the left input binds to
    /// the join's left variable — the left child runs first, into
    /// [`Bindings`], then the right side is readied — and each batch of
    /// pairs it hands back becomes left rows merged with the right members'
    /// slots, pushed on: per probe batch for the traversals, once for the
    /// hash partition and the index.
    ///
    /// A class right side (optionally filtered, by a program over this
    /// join's registers) ranges over [`Executor::range_of`] its variable.
    /// One the method probes stays unmaterialized: it has no actuals and
    /// the join owns its pages. One the method scans up front (backward
    /// traversal, the binary join index) owns that scan, as any other right
    /// plan owns its run, so the child still reports rows and pages.
    fn exec_join(
        &self,
        join: &Plan,
        nid: usize,
        pq: &PreparedQuery,
        run: &TermRun<'_>,
        sink: &mut dyn Sink,
    ) -> Result<u64> {
        let Plan::Join { left, right, method, condition } = join else {
            return Err(SqlError::Exec(format!("not a join: {join:?}")));
        };
        let (x_var, attr, y_var) = (&condition.var, &condition.attr, &condition.target);
        let method = *method;
        let (x_slot, y_slot) = (pq.reads.slot(x_var)?, pq.reads.slot(y_var)?);
        let input = self.rows_of(left, nid + 1, pq, run)?;
        let right_nid = nid + 1 + left.subtree_size();
        let class_side = match &**right {
            Plan::Bind { .. } => Some((run.range(right_nid)?, None)),
            Plan::Select { input, .. } => match &**input {
                Plan::Bind { .. } => Some((run.range(right_nid + 1)?, Some(run.pred(right_nid)?))),
                _ => None,
            },
            _ => None,
        };
        let filter = class_side.and_then(|(_, filter)| filter);
        let mut scratch = Scratch::new(self);
        let mut bind = |oid, value: Value| -> Result<Option<Row>> {
            scratch.next_row();
            if let Some(f) = filter {
                let view = RowView::Object { var: y_var, oid, value: &value };
                if !scratch.matches(f, view)? {
                    return Ok(None);
                }
            }
            Ok(Some(Row::bound(y_slot, oid, Arc::new(value))))
        };
        let fields = pq.reads.of(y_var);
        let right_side = match class_side {
            Some(((classes, files), _)) if !materializes_class(method) => {
                JoinRight::Class { classes, files, fields }
            }
            Some(((classes, _), _)) => {
                let join = run.ledger.switch(Owner::Node(right_nid));
                let members = scan_class(self.catalog, classes, fields, &mut bind)?;
                let rows = members.values().map(|v| v.len() as u64).sum();
                run.ledger.count(Owner::Node(right_nid), rows);
                run.ledger.switch(join);
                JoinRight::Members(members)
            }
            None => {
                let rows = self.rows_of(right, right_nid, pq, run)?;
                JoinRight::Members(members_by_oid(rows, |r| r.get(y_slot).and_then(|b| b.oid)))
            }
        };
        let bound = input.iter().map(|row| row.get(x_slot));
        let left_objs: Vec<LeftObj<'_>> =
            bound.map(|b| b.map_or((None, &Value::Null), |b| (b.oid, &*b.value))).collect();
        let mut pushed = 0u64;
        let mut emit = |pairs: &mut Vec<(usize, Row)>| -> Result<()> {
            let rows: Vec<Row> = pairs.drain(..).map(|(i, m)| input[i].clone().merged(&m)).collect();
            pushed += rows.len() as u64;
            sink.push_rows(rows)
        };
        let batch = self.config.execution.batch_size;
        let (right, bind) = (right_side, &mut bind);
        join_pairs(self.catalog, &left_objs, attr, right, method, batch, bind, &mut emit)?;
        Ok(pushed)
    }

    /// `JOIN` (node `nid`) of two components: the right side's rows
    /// collected and hashed by their key — one key for all under a product;
    /// a NULL key matches nothing, as `=` admits nothing — then the left
    /// side run into a [`Probe`] of them; the number of rows pushed.
    fn exec_combine(
        &self,
        left: &Plan,
        right: &Plan,
        nid: usize,
        pq: &PreparedQuery,
        run: &TermRun<'_>,
        sink: &mut dyn Sink,
    ) -> Result<u64> {
        let right_rows = self.rows_of(right, nid + 1 + left.subtree_size(), pq, run)?;
        let keys = match run.prep.get(nid) { Some(NodePrep::Keys(keys)) => Some(keys), _ => None };
        let mut scratch = Scratch::new(self);
        let mut table: HashMap<Vec<u8>, Vec<usize>> = HashMap::new();
        for (i, row) in right_rows.iter().enumerate() {
            scratch.next_row();
            let key = join_key(&mut scratch, keys.map(|[_, right]| right), row, &pq.reads)?;
            if let Some(key) = key {
                table.entry(key).or_default().push(i);
            }
        }
        let batch = self.config.execution.batch_size.max(1);
        let (node, ledger, reads) = (Owner::Node(nid), run.ledger, &pq.reads);
        let (key, out, pushed) = (keys.map(|[left, _]| left), Vec::new(), 0);
        let mut probe =
            Probe { key, table, right_rows, scratch, reads, node, ledger, sink, batch, out, pushed };
        self.exec_plan_at(left, nid + 1, pq, run, &mut probe)?;
        let rest = mem::take(&mut probe.out);
        probe.sink.push_rows(rest)?;
        Ok(probe.pushed)
    }

    /// Per `FROM EVERY` variable, the classes whose extents its scan reads:
    /// what the cost model sums a `BIND` of it over.
    fn every_scans(&self, stmt: &SelectStmt) -> Vec<(String, Vec<String>)> {
        let every = stmt.from.iter().filter(|item| item.every);
        every.map(|i| (i.var.clone(), self.catalog.every_classes(&i.class, &i.minus))).collect()
    }

    /// The classes whose objects a join's right variable `var`, bound over
    /// `class`, ranges over: a FROM item's range as written (the class's
    /// own extent, or `EVERY` it less the excluded subclasses), and for a
    /// path's target — a variable the optimizer made — whatever the
    /// reference reaches: the class and every subclass.
    fn range_of(&self, stmt: &SelectStmt, var: &str, class: &str) -> Vec<String> {
        match stmt.from.iter().find(|item| item.var == var) {
            Some(item) if !item.every => vec![class.to_string()],
            Some(item) => self.catalog.every_classes(class, &item.minus),
            None => self.catalog.every_classes(class, &[]),
        }
    }
}

/// One execution of a term: what prepare resolved for its nodes, the
/// temporaries built so far, and the ledger its nodes charge.
struct TermRun<'p> {
    prep: &'p [NodePrep],
    temps: HashMap<String, Vec<Row>>,
    ledger: &'p Ledger<'p>,
}

impl TermRun<'_> {
    /// The predicate of the `SELECT` at `nid`.
    fn pred(&self, nid: usize) -> Result<&PreparedExpr> {
        match self.prep.get(nid) {
            Some(NodePrep::Select(pred)) => Ok(pred),
            _ => Err(unprepared(nid)),
        }
    }

    /// The classes and extent files of the `BIND` at `nid`.
    fn range(&self, nid: usize) -> Result<(&[String], &[FileId])> {
        match self.prep.get(nid) {
            Some(NodePrep::Bind(classes, files)) => Ok((classes, files)),
            _ => Err(unprepared(nid)),
        }
    }
}

/// `prepare` resolves every node the driver reads, so a miss is a bug in the
/// plan walk.
fn unprepared(nid: usize) -> SqlError {
    SqlError::Exec(format!("plan node {nid} was not prepared"))
}

/// The rows a plan node pushed, in push order: a join's left input, or the
/// rows of a temporary or a materialized join side. An object a scan or an
/// index selection pushes is the row binding it alone.
struct Bindings<'s> {
    slots: &'s ReadSets,
    rows: Vec<Row>,
}

impl Sink for Bindings<'_> {
    fn push_objects(&mut self, var: &str, items: &mut [(Oid, Value)]) -> Result<()> {
        self.rows.extend(object_rows(self.slots.slot(var)?, items));
        Ok(())
    }

    fn push_rows(&mut self, mut rows: Vec<Row>) -> Result<()> {
        self.rows.append(&mut rows);
        Ok(())
    }
}

/// Scanned objects bound to `slot`, each taken out of its slot as the row
/// binding it alone.
fn object_rows(slot: usize, items: &mut [(Oid, Value)]) -> impl Iterator<Item = Row> + '_ {
    let taken = items.iter_mut().map(|(oid, v)| (*oid, mem::replace(v, Value::Null)));
    taken.map(move |(oid, v)| Row::bound(slot, oid, Arc::new(v)))
}

/// A `SELECT` over a plan that is no scan (node `node`): each batch its
/// input pushes is filtered, and what passes is pushed on. Verdicts are
/// computed over `parallelism` contiguous chunks (one chunk, on this
/// thread, at 1) and applied in input order, so survivors appear exactly
/// as a single loop would emit them and the error from the earliest failing
/// row wins. Registers are per chunk, the dereference cache per
/// `batch_size` rows.
struct Filter<'p, 'a> {
    ex: &'p Executor<'a>,
    pred: &'p PreparedExpr,
    reads: &'p ReadSets,
    node: Owner,
    ledger: &'p Ledger<'p>,
    sink: &'p mut dyn Sink,
    kept: u64,
}

impl Sink for Filter<'_, '_> {
    fn push_objects(&mut self, var: &str, items: &mut [(Oid, Value)]) -> Result<()> {
        let rows = object_rows(self.reads.slot(var)?, items).collect();
        self.push_rows(rows)
    }

    fn push_rows(&mut self, mut rows: Vec<Row>) -> Result<()> {
        let feeder = self.ledger.switch(self.node);
        let (ex, pred, reads) = (self.ex, self.pred, self.reads);
        let verdicts = run_chunked(ex.config.execution.parallelism, &rows, |_, chunk| {
            let mut scratch = Scratch::new(ex);
            let mut verdict = |row| {
                scratch.next_row();
                scratch.matches(pred, RowView::Row(row, reads))
            };
            chunk.iter().map(&mut verdict).collect::<Result<Vec<bool>>>()
        })?;
        let mut verdicts = verdicts.into_iter();
        rows.retain(|_| verdicts.next().expect("one verdict per row"));
        self.kept += rows.len() as u64;
        self.sink.push_rows(rows)?;
        self.ledger.switch(feeder);
        Ok(())
    }
}

/// `row`'s hash key: the same for every row without a key expression,
/// else the key's value encoded as `=` compares it (the binder admits only
/// kinds it compares exactly; integers of both widths alike), `None` for
/// NULL, which `=` admits with nothing.
fn join_key(
    scratch: &mut Scratch<'_, '_>,
    key: Option<&PreparedExpr>,
    row: &Row,
    reads: &ReadSets,
) -> Result<Option<Vec<u8>>> {
    let Some(key) = key else { return Ok(Some(Vec::new())) };
    let mut bytes = Vec::new();
    match scratch.eval(key, RowView::Row(row, reads))? {
        Value::Null => return Ok(None),
        Value::Integer(i) => encode_value_into(&mut bytes, &Value::LongInteger((*i).into())),
        v => encode_value_into(&mut bytes, v),
    }
    Ok(Some(bytes))
}

/// The left side of a combination (node `node`): each row it is pushed
/// meets the right side's rows of its key in their order, and every pair
/// goes on merged. Probing is the combination's work.
struct Probe<'p, 'e, 'a> {
    key: Option<&'p PreparedExpr>,
    table: HashMap<Vec<u8>, Vec<usize>>,
    right_rows: Vec<Row>,
    scratch: Scratch<'e, 'a>,
    reads: &'p ReadSets,
    node: Owner,
    ledger: &'p Ledger<'p>,
    sink: &'p mut dyn Sink,
    batch: usize,
    out: Vec<Row>,
    pushed: u64,
}

impl Sink for Probe<'_, '_, '_> {
    fn push_objects(&mut self, var: &str, items: &mut [(Oid, Value)]) -> Result<()> {
        let rows = object_rows(self.reads.slot(var)?, items).collect();
        self.push_rows(rows)
    }

    fn push_rows(&mut self, rows: Vec<Row>) -> Result<()> {
        let feeder = self.ledger.switch(self.node);
        self.scratch.next_batch();
        for row in &rows {
            let key = join_key(&mut self.scratch, self.key, row, self.reads)?;
            for &i in key.and_then(|k| self.table.get(&k)).map_or(&[][..], Vec::as_slice) {
                self.out.push(row.clone().merged(&self.right_rows[i]));
                self.pushed += 1;
                if self.out.len() == self.batch {
                    self.sink.push_rows(mem::take(&mut self.out))?;
                }
            }
        }
        self.ledger.switch(feeder);
        Ok(())
    }
}

/// Renumber the temporaries a plan reads: `Tn` becomes `T(n + by)`.
fn shift_temps(plan: &mut Plan, by: usize) {
    match plan {
        Plan::Temp { name } => *name = format!("T{}", name[1..].parse::<usize>().unwrap_or(0) + by),
        Plan::Join { left, right, .. } | Plan::Combine { left, right, .. } => {
            shift_temps(left, by);
            shift_temps(right, by);
        }
        Plan::Select { input, .. }
        | Plan::Project { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Partition { input, .. } => shift_temps(input, by),
        Plan::Union { inputs } => inputs.iter_mut().for_each(|p| shift_temps(p, by)),
        Plan::Bind { .. } | Plan::IndSel { .. } => {}
    }
}

/// One batch through a predicate: the objects of `items`, bound to `var`,
/// that it admits move to the front in order (shared registers, a fresh
/// dereference cache); how many. The first evaluation error ends the batch.
fn keep_matching(
    scratch: &mut Scratch<'_, '_>,
    pred: &PreparedExpr,
    var: &str,
    items: &mut [(Oid, Value)],
) -> Result<usize> {
    scratch.next_batch();
    compact(items, |(oid, value)| {
        scratch.matches(pred, RowView::Object { var, oid: *oid, value })
    })
}

/// ORDER BY / GROUP BY keys as the expressions they evaluate.
fn path_exprs<'p>(paths: impl IntoIterator<Item = &'p PathRef>) -> Vec<PreparedExpr> {
    let exprs = paths.into_iter().cloned().map(Expr::Path);
    exprs.map(PreparedExpr::new).collect()
}

fn unbound_param(n: u16, bound: usize) -> SqlError {
    SqlError::Bind(format!("unbound parameter ${n} ({bound} bound)"))
}

/// The literal a constant's value was made of ([`lit_value`] undone).
fn value_lit(v: &Value) -> Lit {
    match v {
        Value::Integer(i) => Lit::Int((*i).into()),
        Value::LongInteger(i) => Lit::Int(*i),
        Value::Float(x) => Lit::Float(*x),
        Value::String(s) => Lit::Str(s.clone()),
        Value::Boolean(b) => Lit::Bool(*b),
        _ => Lit::Null,
    }
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
