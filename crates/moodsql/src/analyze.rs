//! `EXPLAIN ANALYZE` — instrumented execution with estimate-vs-actual
//! accounting.
//!
//! The executor shares node identities with the optimizer's estimator:
//! plan nodes are numbered pre-order over `[temp1, temp2, …, root]` (see
//! `Plan::subtree_size`), so estimate `id` N and the measured actuals for
//! node N describe the same operator.
//!
//! Accounting is *exact* for page counters. Each node window records the
//! **inclusive** global [`DiskMetrics`] delta (the node plus its subtree);
//! a node's **exclusive** delta is its inclusive delta minus its direct
//! children's inclusive deltas. Children windows nest disjointly inside
//! their parent's window — parallel workers only run inside one node's
//! window at a time — so the subtraction telescopes: the sum of every
//! node's exclusive delta equals the tree roots' inclusive deltas, and
//! adding the coordinator stage windows (PLAN, GROUP BY, …) reproduces the
//! query's total counter delta component by component.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

use mood_optimizer::{NodeEstimate, Plan, PlanSet};
use mood_storage::{DiskMetrics, MetricsRegistry, MetricsSnapshot};

use crate::ast::Expr;
use crate::error::Result;
use crate::exec::QueryResult;

/// Measured actuals for one plan node.
#[derive(Debug, Default, Clone, Copy)]
pub struct NodeActual {
    /// Rows the node produced.
    pub rows: u64,
    /// Inclusive counter delta: the node *and* its subtree.
    pub inclusive: MetricsSnapshot,
    /// Wall-clock nanoseconds (inclusive).
    pub nanos: u64,
}

/// Per-node recording sink for one term's execution, one entry per node id
/// (`None` until the node records). Shared by reference down the plan walk;
/// windows are opened and recorded on the coordinating thread only.
pub(crate) struct AnalyzeRec {
    pub(crate) metrics: DiskMetrics,
    nodes: RefCell<Vec<Option<NodeActual>>>,
}

impl AnalyzeRec {
    pub(crate) fn new(metrics: DiskMetrics, nodes: usize) -> Self {
        AnalyzeRec {
            metrics,
            nodes: RefCell::new(vec![None; nodes]),
        }
    }

    pub(crate) fn record(&self, nid: usize, rows: u64, inclusive: MetricsSnapshot, nanos: u64) {
        let mut nodes = self.nodes.borrow_mut();
        let e = nodes[nid].get_or_insert_with(NodeActual::default);
        e.rows += rows;
        e.inclusive = e.inclusive.plus(&inclusive);
        e.nanos += nanos;
    }

    pub(crate) fn into_nodes(self) -> Vec<Option<NodeActual>> {
        self.nodes.into_inner()
    }
}

/// Measured actuals for one coordinator stage (PLAN, nested-loop FROM,
/// WHERE:UNION, GROUP BY, HAVING, PROJECT, ORDER BY, DISTINCT).
#[derive(Debug, Clone)]
pub struct StageActual {
    pub name: &'static str,
    pub rows: u64,
    pub delta: MetricsSnapshot,
    pub nanos: u64,
}

/// Stage recording sink: every statement-level phase outside the plan walk
/// is accounted to a stage so the page accounting stays complete — PLAN as
/// a window here, the clauses after WHERE by the statement's tail, which
/// accumulates its stage windows across batches and hands them over at the
/// end. Creating it opens the statement's own window — the total the stages
/// and plan nodes must sum to.
pub(crate) struct StageRec {
    metrics: DiskMetrics,
    opened: Instant,
    before: MetricsSnapshot,
    stages: Mutex<Vec<StageActual>>,
}

impl StageRec {
    pub(crate) fn new(metrics: DiskMetrics) -> Self {
        StageRec {
            opened: Instant::now(),
            before: metrics.snapshot(),
            metrics,
            stages: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn window<T>(
        &self,
        name: &'static str,
        rows_of: impl FnOnce(&T) -> u64,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let start = Instant::now();
        let before = self.metrics.snapshot();
        let out = f()?;
        self.stages.lock().expect("stage lock").push(StageActual {
            name,
            rows: rows_of(&out),
            delta: self.metrics.snapshot().delta(&before),
            nanos: start.elapsed().as_nanos() as u64,
        });
        Ok(out)
    }

    /// Append stage rows measured elsewhere (the tail's).
    pub(crate) fn extend(&self, stages: impl IntoIterator<Item = StageActual>) {
        self.stages.lock().expect("stage lock").extend(stages);
    }

    /// Close the statement window: the recorded stages, the counter delta
    /// and the wall time since creation.
    pub(crate) fn close(self) -> (Vec<StageActual>, MetricsSnapshot, u64) {
        (
            self.stages.into_inner().expect("stage lock"),
            self.metrics.snapshot().delta(&self.before),
            self.opened.elapsed().as_nanos() as u64,
        )
    }
}

/// One plan node with its estimate and (when the executor materialized the
/// node itself) its measured actuals.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Nesting depth inside the node's tree (for rendering).
    pub depth: usize,
    /// The cost model's prediction.
    pub est: NodeEstimate,
    /// Measured actuals; `None` when the operator never ran as a node of its
    /// own (unmaterialized right sides of forward/hash joins, fetched per
    /// probe — their pages land in the join's exclusive delta).
    pub actual: Option<NodeActual>,
    /// Exclusive counter delta: the node's own page work, children removed.
    pub exclusive: MetricsSnapshot,
}

/// One AND-term's plan with per-node reports (shared pre-order ids).
#[derive(Debug, Clone)]
pub struct TermReport {
    pub plan: PlanSet,
    pub nodes: Vec<NodeReport>,
}

impl TermReport {
    pub(crate) fn build(
        plan: PlanSet,
        est: Vec<NodeEstimate>,
        actuals: Vec<Option<NodeActual>>,
    ) -> TermReport {
        let ds = depths(&plan);
        let kids = children_ids(&plan);
        let nodes = est
            .into_iter()
            .map(|e| NodeReport {
                depth: ds[e.id],
                actual: actuals.get(e.id).copied().flatten(),
                exclusive: exclusive_of(e.id, &kids, &actuals),
                est: e,
            })
            .collect();
        TermReport { plan, nodes }
    }

    /// Actual rows produced by the term's root node.
    pub fn root_actual_rows(&self) -> Option<u64> {
        let offset: usize = self.plan.temps.iter().map(|(_, p)| p.subtree_size()).sum();
        self.nodes
            .get(offset)
            .and_then(|n| n.actual.as_ref())
            .map(|a| a.rows)
    }

    fn render_into(&self, out: &mut String) {
        let mut idx = 0usize;
        for (name, p) in &self.plan.temps {
            out.push_str(&format!("{name} :\n"));
            let n = p.subtree_size();
            for node in &self.nodes[idx..idx + n] {
                node.render_into(out, 1);
            }
            idx += n;
        }
        for node in &self.nodes[idx..] {
            node.render_into(out, 0);
        }
    }
}

impl NodeReport {
    fn render_into(&self, out: &mut String, base: usize) {
        let pad = "  ".repeat(base + self.depth);
        out.push_str(&format!("{pad}{}\n", self.est.label));
        out.push_str(&format!("{pad}  est: {}", est_summary(&self.est)));
        match &self.actual {
            Some(a) => out.push_str(&format!(
                " | act: rows={} pages={} time={:.3}ms | rows-off={:.1}x\n",
                a.rows,
                pages(&self.exclusive),
                a.nanos as f64 / 1e6,
                misestimation(self.est.rows, a.rows),
            )),
            None => out.push_str(" | act: (fused into parent)\n"),
        }
    }
}

/// The full `EXPLAIN ANALYZE` result: the query's rows plus the per-term
/// node reports, the coordinator stages, and the query-wide counter delta.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    pub result: QueryResult,
    pub terms: Vec<TermReport>,
    pub stages: Vec<StageActual>,
    /// Counter delta over the whole statement.
    pub total: MetricsSnapshot,
    pub elapsed_nanos: u64,
    /// The plan came from the session plan cache (no bind/optimize ran).
    pub cached: bool,
    /// Catalog epoch the plan was built under.
    pub epoch: u64,
    /// Time spent in PLAN (bind + statistics + optimize + estimates);
    /// zero for a cached execution.
    pub compile_nanos: u64,
    /// The values the plan's `$n` stood for in this execution (empty for a
    /// plan prepared from literal text).
    pub params: Vec<mood_datamodel::Value>,
}

impl AnalyzeReport {
    /// Σ per-node exclusive deltas + Σ stage deltas. Equals [`total`] for
    /// the page/buffer counters — the accounting invariant the tests pin.
    ///
    /// [`total`]: AnalyzeReport::total
    pub fn accounted(&self) -> MetricsSnapshot {
        let mut acc = MetricsSnapshot::default();
        for t in &self.terms {
            for n in &t.nodes {
                acc = acc.plus(&n.exclusive);
            }
        }
        for s in &self.stages {
            acc = acc.plus(&s.delta);
        }
        acc
    }

    /// Human-readable plan tree with estimate-vs-actual per node.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.params.is_empty() {
            let bound: Vec<String> = (1..=self.params.len() as u16)
                .map(|n| format!("${n}={}", Expr::Param(n).render_with(&self.params)))
                .collect();
            out.push_str(&format!("-- params: {}\n", bound.join(", ")));
        }
        for (i, term) in self.terms.iter().enumerate() {
            if self.terms.len() > 1 {
                out.push_str(&format!("-- term {} of {}:\n", i + 1, self.terms.len()));
            }
            term.render_into(&mut out);
        }
        if self.terms.is_empty() {
            out.push_str("-- nested-loop fallback (no per-operator plan)\n");
        }
        // Compile-vs-execute split. `-- plan: ` has its own prefix: `--   `
        // belongs to PathSelInfo/stage rows and `-- * ` to estimate rows,
        // and the conformance tests count lines by those prefixes.
        let execute_nanos = self.elapsed_nanos.saturating_sub(self.compile_nanos);
        if self.cached {
            out.push_str(&format!(
                "-- plan: cached (epoch {}), compile 0.000ms (plan reused), execute {:.3}ms\n",
                self.epoch,
                execute_nanos as f64 / 1e6
            ));
        } else {
            out.push_str(&format!(
                "-- plan: fresh (epoch {}), compile {:.3}ms, execute {:.3}ms\n",
                self.epoch,
                self.compile_nanos as f64 / 1e6,
                execute_nanos as f64 / 1e6
            ));
        }
        out.push_str("-- stages:\n");
        for s in &self.stages {
            out.push_str(&format!(
                "--   {}: rows={} pages={} time={:.3}ms\n",
                s.name,
                s.rows,
                pages(&s.delta),
                s.nanos as f64 / 1e6
            ));
        }
        out.push_str(&format!(
            "-- total: rows={} pages={} (seq={} rnd={} idx={} w={}) time={:.3}ms\n",
            self.result.len(),
            pages(&self.total),
            self.total.seq_pages,
            self.total.rnd_pages,
            self.total.idx_pages,
            self.total.writes,
            self.elapsed_nanos as f64 / 1e6
        ));
        out
    }
}

/// Total page work of a counter delta (reads of all kinds plus writes).
pub(crate) fn pages(s: &MetricsSnapshot) -> u64 {
    s.total_reads() + s.writes
}

/// Symmetric misestimation factor: `max(est/act, act/est)`, both floored
/// at one row so empty results stay finite. 1.0 = perfect estimate.
pub fn misestimation(est_rows: f64, actual_rows: u64) -> f64 {
    let e = est_rows.max(1.0);
    let a = (actual_rows as f64).max(1.0);
    (e / a).max(a / e)
}

/// A plan node's span name, `op:<KIND>`. Names are constants — a span
/// opened on the hot path must cost nothing while no subscriber listens.
pub(crate) fn op_span(plan: &Plan) -> &'static str {
    use mood_cost::JoinMethod;
    match plan {
        Plan::Bind { .. } => "op:BIND",
        Plan::Temp { .. } => "op:TEMP",
        Plan::Select { .. } => "op:SELECT",
        Plan::IndSel { .. } => "op:INDSEL",
        Plan::Join { method, .. } => match method {
            JoinMethod::ForwardTraversal => "op:JOIN(FORWARD_TRAVERSAL)",
            JoinMethod::BackwardTraversal => "op:JOIN(BACKWARD_TRAVERSAL)",
            JoinMethod::BinaryJoinIndex => "op:JOIN(BINARY_JOIN_INDEX)",
            JoinMethod::HashPartition => "op:JOIN(HASH_PARTITION)",
        },
        Plan::Project { .. } => "op:PROJECT",
        Plan::Sort { .. } => "op:SORT",
        Plan::Partition { .. } => "op:PARTITION",
        Plan::Union { .. } => "op:UNION",
    }
}

/// Short operator kind for the registry totals: the span name's `<KIND>`.
pub(crate) fn op_kind(plan: &Plan) -> &'static str {
    &op_span(plan)["op:".len()..]
}

/// The constants of a term's plan that folding its actuals into the
/// operator totals needs, per node in the shared pre-order id order:
/// operator kind and direct children. Built once, at prepare.
pub(crate) struct NodeTable {
    kinds: Vec<&'static str>,
    kids: Vec<Vec<usize>>,
}

impl NodeTable {
    pub(crate) fn of(set: &PlanSet) -> NodeTable {
        fn walk(p: &Plan, out: &mut Vec<&'static str>) {
            out.push(op_kind(p));
            for c in p.children() {
                walk(c, out);
            }
        }
        let mut kinds = Vec::new();
        for (_, p) in &set.temps {
            walk(p, &mut kinds);
        }
        walk(&set.root, &mut kinds);
        NodeTable {
            kinds,
            kids: children_ids(set),
        }
    }
}

/// Fold one term's measured nodes into the engine-wide operator totals.
pub(crate) fn record_operator_totals(
    registry: &MetricsRegistry,
    nodes: &NodeTable,
    actuals: &[Option<NodeActual>],
) {
    for (id, kind) in nodes.kinds.iter().enumerate() {
        if let Some(a) = actuals.get(id).and_then(Option::as_ref) {
            let ex = exclusive_of(id, &nodes.kids, actuals);
            registry.record_operator(kind, a.rows, pages(&ex), a.nanos);
        }
    }
}

/// Per-node depth within its tree, in the shared pre-order id order.
pub(crate) fn depths(set: &PlanSet) -> Vec<usize> {
    fn walk(p: &Plan, d: usize, out: &mut Vec<usize>) {
        out.push(d);
        for c in p.children() {
            walk(c, d + 1, out);
        }
    }
    let mut out = Vec::new();
    for (_, p) in &set.temps {
        walk(p, 0, &mut out);
    }
    walk(&set.root, 0, &mut out);
    out
}

/// Direct-children ids per node, in the shared pre-order id order.
pub(crate) fn children_ids(set: &PlanSet) -> Vec<Vec<usize>> {
    fn walk(p: &Plan, id: usize, out: &mut Vec<Vec<usize>>) {
        let mut kid = id + 1;
        let mut mine = Vec::new();
        for c in p.children() {
            mine.push(kid);
            walk(c, kid, out);
            kid += c.subtree_size();
        }
        out[id] = mine;
    }
    let total: usize = set
        .temps
        .iter()
        .map(|(_, p)| p.subtree_size())
        .sum::<usize>()
        + set.root.subtree_size();
    let mut out = vec![Vec::new(); total];
    let mut offset = 0usize;
    for (_, p) in &set.temps {
        walk(p, offset, &mut out);
        offset += p.subtree_size();
    }
    walk(&set.root, offset, &mut out);
    out
}

fn exclusive_of(id: usize, kids: &[Vec<usize>], actuals: &[Option<NodeActual>]) -> MetricsSnapshot {
    let Some(a) = actuals.get(id).and_then(Option::as_ref) else {
        return MetricsSnapshot::default();
    };
    let mut ex = a.inclusive;
    for &k in &kids[id] {
        if let Some(c) = actuals.get(k).and_then(Option::as_ref) {
            ex = ex.delta(&c.inclusive);
        }
    }
    ex
}

/// Estimate half of a node line, shared by `EXPLAIN` (est-only) and
/// `EXPLAIN ANALYZE`.
pub(crate) fn est_summary(e: &NodeEstimate) -> String {
    let mut s = format!("rows={:.0}", e.rows);
    if let Some(sel) = e.selectivity {
        s.push_str(&format!(" sel={sel:.3e}"));
    }
    s.push_str(&format!(" pages={:.1}", e.pages));
    // Clustering-aware chase estimates carry the measured factor so a
    // clustered run's lower page prediction is attributable at a glance.
    if let Some(cf) = e.clustering {
        s.push_str(&format!(" cf={cf:.2}"));
    }
    s
}

/// Per-node estimate block appended to `EXPLAIN` output (comment style, so
/// the paper-notation plan text stays byte-comparable).
pub(crate) fn render_estimates(set: &PlanSet, est: &[NodeEstimate]) -> String {
    let ds = depths(set);
    // `-- * ` rather than `--   `: the PathSelInfo dictionary owns the
    // latter prefix and conformance tests count its rows by it.
    let mut out = String::from("-- Node estimates (rows, selectivity, pages):\n");
    for e in est {
        out.push_str(&format!(
            "-- * {}{}: {}\n",
            "  ".repeat(ds[e.id]),
            e.label,
            est_summary(e)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_cost::JoinMethod;

    fn sample_set() -> PlanSet {
        // T1 : JOIN(BIND(A, a), SELECT(BIND(B, b), p), FT, cond); root uses T1.
        PlanSet {
            temps: vec![(
                "T1".to_string(),
                Plan::join(
                    Plan::bind("A", "a"),
                    Plan::select(Plan::bind("B", "b"), "b.x = 1"),
                    JoinMethod::ForwardTraversal,
                    "a.r = b.self",
                ),
            )],
            root: Plan::select(Plan::temp("T1"), "a.y = 2"),
            estimated_cost: 0.0,
        }
    }

    #[test]
    fn children_ids_follow_the_preorder_scheme() {
        let set = sample_set();
        let kids = children_ids(&set);
        // T1 tree: 0=JOIN, 1=BIND(A), 2=SELECT, 3=BIND(B); root: 4=SELECT, 5=T1.
        assert_eq!(kids[0], vec![1, 2]);
        assert_eq!(kids[2], vec![3]);
        assert_eq!(kids[4], vec![5]);
        assert!(kids[1].is_empty() && kids[3].is_empty() && kids[5].is_empty());
    }

    #[test]
    fn exclusive_subtracts_direct_children_only() {
        let set = sample_set();
        let kids = children_ids(&set);
        let mut actuals = vec![None; 6];
        let snap = |rnd: u64| MetricsSnapshot {
            rnd_pages: rnd,
            ..Default::default()
        };
        actuals[0] = Some(NodeActual {
            rows: 10,
            inclusive: snap(100),
            nanos: 0,
        });
        actuals[1] = Some(NodeActual {
            rows: 5,
            inclusive: snap(30),
            nanos: 0,
        });
        // Node 2 (SELECT over BIND(B)) was fused — no record; its pages stay
        // in the join's exclusive.
        let ex = exclusive_of(0, &kids, &actuals);
        assert_eq!(ex.rnd_pages, 70);
        assert_eq!(exclusive_of(2, &kids, &actuals), MetricsSnapshot::default());
    }

    #[test]
    fn misestimation_is_symmetric_and_floored() {
        assert!((misestimation(100.0, 10) - 10.0).abs() < 1e-12);
        assert!((misestimation(10.0, 100) - 10.0).abs() < 1e-12);
        assert!((misestimation(0.0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn op_kinds_name_join_methods() {
        let set = sample_set();
        assert_eq!(
            NodeTable::of(&set).kinds,
            vec!["JOIN(FORWARD_TRAVERSAL)", "BIND", "SELECT", "BIND", "SELECT", "TEMP"]
        );
    }
}
