//! `EXPLAIN ANALYZE` — instrumented execution with estimate-vs-actual
//! accounting.
//!
//! The executor shares node identities with the optimizer's estimator:
//! plan nodes are numbered pre-order over `[temp1, temp2, …, root]` (see
//! `Plan::subtree_size`), so estimate `id` N and the measured actuals for
//! node N describe the same operator.
//!
//! Accounting is *exact*, for pages and for time, because every moment of
//! an execution has one owner: a plan node, a clause stage (PLAN,
//! WHERE:UNION, GROUP BY, HAVING, PROJECT, ORDER BY, DISTINCT) or the
//! coordinator. The execution's `Ledger` keeps the last clock reading (an
//! `Instant` and a [`DiskMetrics`] snapshot) and the current owner;
//! switching owners charges the interval since that reading to the owner
//! going out. A node's *exclusive* pages and nanos are what it was charged;
//! its *inclusive* figures are the sums over its subtree. Owners switch on
//! the coordinating thread only — chunk-parallel workers run, and are
//! joined, inside whichever owner is current — so Σ node exclusives + Σ
//! stages + the coordinator's share reproduce the statement's counter delta
//! and wall time exactly.

use std::cell::RefCell;
use std::mem;
use std::time::Instant;

use mood_optimizer::{NodeEstimate, Plan, PlanSet};
use mood_storage::{DiskMetrics, MetricsRegistry, MetricsSnapshot};

use crate::ast::Expr;
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

/// Measured actuals for one coordinator stage (PLAN, WHERE:UNION, GROUP BY,
/// HAVING, PROJECT, ORDER BY, DISTINCT).
#[derive(Debug, Clone)]
pub struct StageActual {
    pub name: &'static str,
    pub rows: u64,
    pub delta: MetricsSnapshot,
    pub nanos: u64,
}

/// Who an interval of an execution belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Owner {
    Coordinator,
    /// A plan node, by the shared pre-order id within its term.
    Node(usize),
    /// A clause stage, by its report name.
    Stage(&'static str),
}

/// What one owner was charged: rows it produced, and the pages and wall
/// time of every interval it owned.
#[derive(Default, Clone, Copy)]
pub(crate) struct Account {
    rows: u64,
    delta: MetricsSnapshot,
    nanos: u64,
}

/// Every stage name there is, so a statement's stages always fit.
const STAGES: usize = 7;

type Reading = (Instant, MetricsSnapshot);

/// The one recorder of an execution (see the module docs). A reporting
/// ledger ([`Ledger::open`]) reads the clock when it is created and charges
/// every interval up to [`Ledger::close`]; a plain one ([`Ledger::new`])
/// takes its first reading at its first switch, so an execution that
/// reports nothing reads the clock only where the per-operator totals need
/// it.
pub(crate) struct Ledger<'m> {
    metrics: &'m DiskMetrics,
    books: RefCell<Books>,
}

struct Books {
    opened: Option<Reading>,
    last: Option<Reading>,
    owner: Owner,
    /// The current term's nodes by id ([`Ledger::begin_term`] sizes it);
    /// `None` for one never charged.
    nodes: Vec<Option<Account>>,
    /// Stages in report order: the order they were listed or first charged.
    stages: [Option<(&'static str, Account)>; STAGES],
    coordinator: Account,
}

impl Books {
    fn account(&mut self, owner: Owner) -> &mut Account {
        match owner {
            Owner::Coordinator => &mut self.coordinator,
            Owner::Node(id) => self.nodes[id].get_or_insert_with(Account::default),
            Owner::Stage(name) => {
                let at = self.stages.iter().position(|s| s.is_none_or(|(n, _)| n == name));
                let slot = &mut self.stages[at.expect("a slot for every stage name")];
                &mut slot.get_or_insert((name, Account::default())).1
            }
        }
    }

    /// Read the clock and charge the interval since the last reading to the
    /// current owner.
    fn read(&mut self, metrics: &DiskMetrics) {
        let now = (Instant::now(), metrics.snapshot());
        if let Some((at, before)) = self.last {
            let account = self.account(self.owner);
            account.delta = account.delta.plus(&now.1.delta(&before));
            account.nanos += (now.0 - at).as_nanos() as u64;
        }
        self.last = Some(now);
    }
}

impl<'m> Ledger<'m> {
    /// A ledger for an execution that reports nothing.
    pub(crate) fn new(metrics: &'m DiskMetrics) -> Ledger<'m> {
        let books = Books {
            opened: None,
            last: None,
            owner: Owner::Coordinator,
            nodes: Vec::new(),
            stages: Default::default(),
            coordinator: Account::default(),
        };
        Ledger { metrics, books: RefCell::new(books) }
    }

    /// A reporting ledger, its clock read now.
    pub(crate) fn open(metrics: &'m DiskMetrics) -> Ledger<'m> {
        let ledger = Ledger::new(metrics);
        let mut books = ledger.books.borrow_mut();
        books.read(metrics);
        books.opened = books.last;
        drop(books);
        ledger
    }

    /// Does this execution report (`EXPLAIN ANALYZE`)?
    pub(crate) fn reports(&self) -> bool {
        self.books.borrow().opened.is_some()
    }

    /// Who owns the moment now.
    pub(crate) fn owner(&self) -> Owner {
        self.books.borrow().owner
    }

    /// Make `to` the owner, charging the interval since the last reading to
    /// the owner going out; that owner, for the caller to switch back to.
    pub(crate) fn switch(&self, to: Owner) -> Owner {
        let mut books = self.books.borrow_mut();
        if books.owner != to {
            books.read(self.metrics);
        }
        mem::replace(&mut books.owner, to)
    }

    /// `rows` more produced by `owner`. Counting none lists a stage: it is
    /// reported, in the order listed, even if it is never charged.
    pub(crate) fn count(&self, owner: Owner, rows: u64) {
        self.books.borrow_mut().account(owner).rows += rows;
    }

    /// The stages listed or charged so far, in report order.
    pub(crate) fn stages(&self) -> impl Iterator<Item = StageActual> {
        let stages = self.books.borrow().stages;
        stages.into_iter().flatten().map(|(name, a)| StageActual {
            name,
            rows: a.rows,
            delta: a.delta,
            nanos: a.nanos,
        })
    }

    /// Start a term of `nodes` plan nodes, all uncharged (sized once, so a
    /// term's nodes cost one allocation at most).
    pub(crate) fn begin_term(&self, nodes: usize) {
        self.books.borrow_mut().nodes.resize(nodes, None);
    }

    /// Hand the finished term's node accounts to `f`, then clear them for
    /// the next term.
    pub(crate) fn settle_term<R>(&self, f: impl FnOnce(&[Option<Account>]) -> R) -> R {
        let mut books = self.books.borrow_mut();
        let settled = f(&books.nodes);
        books.nodes.clear();
        settled
    }

    /// Read the clock a last time, charging the coordinator: the stages,
    /// the coordinator's nanos, and the statement's counter delta and wall
    /// time since [`Ledger::open`].
    pub(crate) fn close(self) -> (Vec<StageActual>, u64, MetricsSnapshot, u64) {
        let mut books = self.books.borrow_mut();
        books.owner = Owner::Coordinator;
        books.read(self.metrics);
        let span = |((t0, s0), (t1, s1)): (Reading, Reading)| {
            (s1.delta(&s0), (t1 - t0).as_nanos() as u64)
        };
        let (total, elapsed) = books.opened.zip(books.last).map_or_else(Default::default, span);
        let coordinator = books.coordinator.nanos;
        drop(books);
        (self.stages().collect(), coordinator, total, elapsed)
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
    /// Exclusive counter delta: the pages of the intervals the node owned.
    pub exclusive: MetricsSnapshot,
    /// Exclusive wall time: the nanoseconds of those intervals.
    pub exclusive_nanos: u64,
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
        table: &NodeTable,
        accounts: &[Option<Account>],
    ) -> TermReport {
        let nodes = est
            .into_iter()
            .map(|e| {
                let own = accounts.get(e.id).copied().flatten().unwrap_or_default();
                NodeReport {
                    depth: table.depths[e.id],
                    actual: table.actual(e.id, accounts),
                    exclusive: own.delta,
                    exclusive_nanos: own.nanos,
                    est: e,
                }
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
    /// The coordinator's share of `elapsed_nanos`: what no node and no
    /// stage owned (starting the execution, between terms, the estimates).
    /// It reads no page.
    pub coordinator_nanos: u64,
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
    /// Σ per-node exclusive deltas + Σ stage deltas. Equals [`total`]
    /// component by component — the accounting invariant the tests pin (the
    /// coordinator reads no page).
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
        Plan::Combine { on: Some(_), .. } => "op:JOIN(VALUE_HASH)",
        Plan::Combine { on: None, .. } => "op:JOIN(PRODUCT)",
        Plan::Project { .. } => "op:PROJECT",
        Plan::Sort { .. } => "op:SORT",
        Plan::Partition { .. } => "op:PARTITION",
        Plan::Union { .. } => "op:UNION",
    }
}

/// The constants of a term's plan that folding its actuals into the
/// operator totals and rendering its nodes need, per node in the shared
/// pre-order id order: operator kind, direct children, depth in its tree.
/// Built once, at prepare.
pub(crate) struct NodeTable {
    kinds: Vec<&'static str>,
    kids: Vec<Vec<usize>>,
    depths: Vec<usize>,
}

impl NodeTable {
    /// The actuals of node `id` from the term's accounts: its rows, and its
    /// own pages and nanos plus its subtree's; `None` if it never ran.
    fn actual(&self, id: usize, accounts: &[Option<Account>]) -> Option<NodeActual> {
        let own = accounts.get(id).copied().flatten()?;
        let mut actual = NodeActual { rows: own.rows, inclusive: own.delta, nanos: own.nanos };
        for kid in self.kids[id].iter().filter_map(|&k| self.actual(k, accounts)) {
            actual.inclusive = actual.inclusive.plus(&kid.inclusive);
            actual.nanos += kid.nanos;
        }
        Some(actual)
    }

    pub(crate) fn of(set: &PlanSet) -> NodeTable {
        fn walk(p: &Plan, depth: usize, table: &mut NodeTable) {
            let id = table.kinds.len();
            // The registry's operator kind: the span name's `<KIND>`.
            table.kinds.push(&op_span(p)["op:".len()..]);
            table.kids.push(Vec::new());
            table.depths.push(depth);
            for c in p.children() {
                table.kids[id].push(table.kinds.len());
                walk(c, depth + 1, table);
            }
        }
        let mut table = NodeTable { kinds: Vec::new(), kids: Vec::new(), depths: Vec::new() };
        for p in set.temps.iter().map(|(_, p)| p).chain([&set.root]) {
            walk(p, 0, &mut table);
        }
        table
    }
}

/// Fold one term's node accounts into the engine-wide operator totals:
/// rows, exclusive pages, inclusive time.
pub(crate) fn record_operator_totals(
    registry: &MetricsRegistry,
    nodes: &NodeTable,
    accounts: &[Option<Account>],
) {
    for (id, kind) in nodes.kinds.iter().enumerate() {
        let own = accounts.get(id).copied().flatten();
        if let Some((own, a)) = own.zip(nodes.actual(id, accounts)) {
            registry.record_operator(kind, a.rows, pages(&own.delta), a.nanos);
        }
    }
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
    let ds = NodeTable::of(set).depths;
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
        use mood_datamodel::Value;
        use mood_optimizer::{Atom, Const, JoinOn, Pred};
        let eq = |var: &str, attr: &str, n: i32| {
            let c = Const::Value(Value::Integer(n));
            Pred::Atom(Atom::new(var, &[attr.to_string()], mood_cost::Theta::Eq, &c))
        };
        let on = JoinOn { var: "a".into(), attr: "r".into(), target: "b".into() };
        // T1 : JOIN(BIND(A, a), SELECT(BIND(B, b), p), FT, cond); root uses T1.
        PlanSet {
            temps: vec![(
                "T1".to_string(),
                Plan::join(
                    Plan::bind("A", "a"),
                    Plan::select(Plan::bind("B", "b"), eq("b", "x", 1)),
                    JoinMethod::ForwardTraversal,
                    on,
                ),
            )],
            root: Plan::select(Plan::temp("T1"), eq("a", "y", 2)),
            estimated_cost: 0.0,
        }
    }

    #[test]
    fn children_ids_follow_the_preorder_scheme() {
        let set = sample_set();
        let kids = NodeTable::of(&set).kids;
        // T1 tree: 0=JOIN, 1=BIND(A), 2=SELECT, 3=BIND(B); root: 4=SELECT, 5=T1.
        assert_eq!(kids[0], vec![1, 2]);
        assert_eq!(kids[2], vec![3]);
        assert_eq!(kids[4], vec![5]);
        assert!(kids[1].is_empty() && kids[3].is_empty() && kids[5].is_empty());
    }

    #[test]
    fn the_ledger_charges_every_interval_to_one_owner() {
        use mood_storage::AccessKind;
        let metrics = DiskMetrics::new();
        let reads = |n: usize| (0..n).for_each(|_| metrics.record_read(AccessKind::Random));
        let ledger = Ledger::open(&metrics);
        ledger.begin_term(6);
        reads(1);
        let outer = ledger.switch(Owner::Node(0));
        reads(30);
        let join = ledger.switch(Owner::Node(1));
        reads(5);
        ledger.switch(join);
        reads(40);
        ledger.switch(Owner::Stage("PROJECT"));
        reads(7);
        ledger.count(Owner::Stage("PROJECT"), 3);
        ledger.switch(Owner::Node(0));
        ledger.count(Owner::Node(0), 10);
        ledger.switch(outer);
        // Node 2 (SELECT over BIND(B)) never ran: no account, and nothing
        // of it in the join's inclusive figures.
        let table = NodeTable::of(&sample_set());
        let (own, join) = ledger.settle_term(|nodes| {
            (nodes.to_vec(), table.actual(0, nodes).expect("the join ran"))
        });
        let (node0, node1) = (own[0].expect("charged"), own[1].expect("charged"));
        assert_eq!((node0.delta.rnd_pages, node1.delta.rnd_pages), (70, 5));
        assert_eq!((join.rows, join.inclusive.rnd_pages), (10, 75));
        assert_eq!(join.nanos, node0.nanos + node1.nanos);
        assert!(own[2].is_none() && table.actual(2, &own).is_none());
        let (stages, coordinator, total, elapsed) = ledger.close();
        assert_eq!((stages[0].name, stages[0].rows, stages[0].delta.rnd_pages), ("PROJECT", 3, 7));
        assert_eq!(total.rnd_pages, 83, "the coordinator's first read is in the total");
        assert_eq!(node0.nanos + node1.nanos + stages[0].nanos + coordinator, elapsed);
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
