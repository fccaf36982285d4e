//! Per-node cardinality and page-cost estimates for an access plan.
//!
//! `EXPLAIN` and `EXPLAIN ANALYZE` annotate every plan node with the cost
//! model's predictions (estimated rows, selectivity, page accesses) so they
//! can be compared side by side with the executor's measured counts. The
//! walk order defines node identities shared with the instrumented
//! executor: nodes are numbered pre-order over `[temp1, temp2, …, root]`
//! (see [`Plan::subtree_size`]), so estimate `id` N and the executor's
//! actuals for node N describe the same operator.
//!
//! Page estimates report the physical page I/O the §5/§6 formulas model:
//! `BIND` nodes the extent's `nbpages`, join nodes `join_pages` (the page
//! counts inside the chosen method's cost formula — for a clustered chase,
//! the swept target pages rather than cost-normalized random-page
//! equivalents). Index selections still convert cost to random-page
//! equivalents via `PhysicalParams::random_page()`, since every index page
//! access is random.

use mood_catalog::DatabaseStats;
use mood_cost::{
    atomic_selectivity, bounds_selectivity, fref, indcost, join_cost, join_pages, o_overlap,
    rndcost, rngxcost,
    seqcost_batched, ClassInfo, JoinInputs, PathHop, PathPredicate, Theta,
};
use mood_storage::READAHEAD_WINDOW;

use crate::optimizer::{OptimizerConfig, StatsView, OTHER_SELECTIVITY};
use crate::plan::{Atom, AttrPath, JoinOn, Plan, PlanSet, Pred};

/// Fallback objects-per-page density when a subtree has no extent to
/// derive one from (matches the paper example's 20 000 rows / 2 000 pages).
const DEFAULT_ROWS_PER_PAGE: f64 = 10.0;

/// The cost model's prediction for one plan node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeEstimate {
    /// Pre-order id over `[temps…, root]` (see module docs).
    pub id: usize,
    /// Short operator label (`BIND(Vehicle, v)`,
    /// `HASH_PARTITION(v.company = c.self)`…).
    pub label: String,
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated selectivity of the node's predicate/condition, when it
    /// has one (SELECT, INDSEL, JOIN).
    pub selectivity: Option<f64>,
    /// Estimated page accesses charged to this node (random-page
    /// equivalents of the model cost; `nbpages` for extent scans).
    pub pages: f64,
    /// The raw model cost in seconds (0 for purely in-memory nodes).
    pub cost: f64,
    /// The clustering factor the chase-cost blend used, for JOIN nodes
    /// over a traversed edge with a measured factor; `None` elsewhere
    /// (and for the unclustered cf = 0 worst case, so pre-clustering
    /// EXPLAIN output is unchanged).
    pub clustering: Option<f64>,
}

/// Estimate every node of a [`PlanSet`] in the shared pre-order walk.
///
/// `every` names, for each range variable of a `FROM EVERY C - D…` item,
/// the classes whose extents its scan reads (`C` and its subclasses less
/// the `D`s and theirs); a `BIND` of such a variable scans their objects
/// and pages together, any other `BIND` its own class's extent.
pub fn estimate_plan_set(
    set: &PlanSet,
    stats: &DatabaseStats,
    cfg: &OptimizerConfig,
    every: &[(String, Vec<String>)],
) -> Vec<NodeEstimate> {
    let view = StatsView { stats };
    let mut est = Estimator {
        view,
        cfg,
        every,
        var_class: Vec::new(),
        temp_rows: Vec::new(),
        out: Vec::new(),
        next_id: 0,
    };
    for (_, plan) in &set.temps {
        est.collect_vars(plan);
    }
    est.collect_vars(&set.root);
    for (name, plan) in &set.temps {
        let rows = est.walk(plan);
        est.temp_rows.push((name.clone(), rows));
    }
    est.walk(&set.root);
    est.out
}

struct Estimator<'a> {
    view: StatsView<'a>,
    cfg: &'a OptimizerConfig,
    /// Range variable → the classes its `FROM EVERY` scan reads.
    every: &'a [(String, Vec<String>)],
    /// Range variable → class, from every BIND/INDSEL in the plan set.
    var_class: Vec<(String, String)>,
    /// Temp name → estimated output rows, filled as temps are walked.
    temp_rows: Vec<(String, f64)>,
    out: Vec<NodeEstimate>,
    next_id: usize,
}

impl Estimator<'_> {
    fn collect_vars(&mut self, plan: &Plan) {
        match plan {
            Plan::Bind { class, var } | Plan::IndSel { class, var, .. }
                if !self.var_class.iter().any(|(v, _)| v == var) =>
            {
                self.var_class.push((var.clone(), class.clone()));
            }
            _ => {}
        }
        for c in plan.children() {
            self.collect_vars(c);
        }
    }

    /// The objects and pages a `BIND` of `var` over `class` scans.
    fn scan_info(&self, class: &str, var: &str) -> ClassInfo {
        let Some((_, classes)) = self.every.iter().find(|(v, _)| v == var) else {
            return self.view.class_info(class);
        };
        let infos = classes.iter().map(|c| self.view.class_info(c));
        infos.fold(ClassInfo { cardinality: 0.0, nbpages: 0.0 }, |sum, c| ClassInfo {
            cardinality: sum.cardinality + c.cardinality,
            nbpages: sum.nbpages + c.nbpages,
        })
    }

    fn class_of(&self, var: &str) -> Option<&str> {
        self.var_class
            .iter()
            .find(|(v, _)| v == var)
            .map(|(_, c)| c.as_str())
    }

    /// Walk one subtree pre-order, pushing an estimate per node; returns
    /// the node's estimated output rows.
    fn walk(&mut self, plan: &Plan) -> f64 {
        let id = self.next_id;
        self.next_id += 1;
        // Reserve the slot so children append after their parent.
        self.out.push(NodeEstimate { id, ..NodeEstimate::default() });
        let mut clustering = None;
        let (label, rows, selectivity, cost, pages) = match plan {
            Plan::Bind { class, var } => {
                let info = self.scan_info(class, var);
                // Batched model: the scan positions once per readahead
                // window of pages (one device call each, the pool's
                // `READAHEAD_WINDOW`), so the cost amortizes seek+rotation
                // across each window. Pages stay `nbpages` — batching
                // changes when pages are fetched, not how many.
                let cost = seqcost_batched(&self.cfg.params, info.nbpages, READAHEAD_WINDOW);
                (format!("BIND({class}, {var})"), info.cardinality, None, cost, info.nbpages)
            }
            Plan::Temp { name } => {
                let rows = self.temp_rows.iter().find(|(n, _)| n == name).map(|(_, r)| *r);
                (name.clone(), rows.unwrap_or(0.0), None, 0.0, 0.0)
            }
            Plan::IndSel { class, var, index_kind, predicate } => {
                let info = self.view.class_info(class);
                let (sel, probe_cost) = self.indsel_estimate(class, predicate);
                let rows = info.cardinality * sel;
                let cost = probe_cost + rndcost(&self.cfg.params, rows);
                let pages = cost / self.cfg.params.random_page();
                (format!("INDSEL({class}, {var}, {index_kind})"), rows, Some(sel), cost, pages)
            }
            Plan::Select { input, predicate } => {
                let in_rows = self.walk(input);
                let sel = self.predicate_selectivity(predicate);
                (format!("SELECT({predicate})"), in_rows * sel, Some(sel), 0.0, 0.0)
            }
            Plan::Join { left, right, method, condition } => {
                let left_rows = self.walk(left);
                let right_rows = self.walk(right);
                let (rows, js, cost, jpages, cf) =
                    self.join_estimate(left, right, *method, condition, left_rows, right_rows);
                if cf > 0.0 {
                    clustering = Some(cf);
                }
                // Labelled by method, not `JOIN(…)`: estimate blocks are
                // appended to EXPLAIN output, whose conformance tests count
                // joins by the `JOIN(` token.
                (format!("{}({condition})", method.plan_name()), rows, js, cost, jpages)
            }
            Plan::Combine { left, right, on } => {
                let rows = self.walk(left) * self.walk(right);
                // Every left row meets every right row; an equi-join keeps
                // `1/max(dist)` of the pairs. Both sides are in memory.
                let sel = on.as_ref().map(|(x, y)| self.equi_selectivity(x, y));
                let label = match on {
                    Some((x, y)) => format!("VALUE_HASH({x} = {y})"),
                    None => "PRODUCT".to_string(),
                };
                (label, rows * sel.unwrap_or(1.0), sel, 0.0, 0.0)
            }
            Plan::Project { input, attributes } => {
                let rows = self.walk(input);
                (format!("PROJECT([{}])", attributes.join(", ")), rows, None, 0.0, 0.0)
            }
            Plan::Sort { input, attributes } | Plan::Partition { input, attributes, .. } => {
                let rows = self.walk(input);
                let (cost, pages) = self.spill_estimate(input, rows);
                let op = if matches!(plan, Plan::Sort { .. }) { "SORT" } else { "PARTITION" };
                (format!("{op}([{}])", attributes.join(", ")), rows, None, cost, pages)
            }
            Plan::Union { inputs } => {
                let rows = inputs.iter().map(|i| self.walk(i)).sum();
                ("UNION".to_string(), rows, None, 0.0, 0.0)
            }
        };
        self.out[id] = NodeEstimate { id, label, rows, selectivity, pages, cost, clustering };
        rows
    }

    /// Selectivity of a plan predicate: the product over a conjunction; a
    /// fused DNF's `(t1) OR (t2) OR …` is 1 − Π(1 − sᵢ) over its terms; an
    /// atom `var.a1…am θ const` is atomic (m = 1) or a path's; an opaque
    /// conjunct the optimizer's OtherSelInfo default.
    fn predicate_selectivity(&self, pred: &Pred) -> f64 {
        match pred {
            Pred::Atom(atom) => self.atom_selectivity(atom),
            Pred::Conjunct(_) => OTHER_SELECTIVITY,
            Pred::And(parts) => parts.iter().map(|p| self.predicate_selectivity(p)).product(),
            Pred::Or(terms) => {
                let rejected = terms.iter().map(|t| 1.0 - self.predicate_selectivity(t));
                1.0 - rejected.product::<f64>()
            }
        }
    }

    fn atom_selectivity(&self, atom: &Atom) -> f64 {
        let Some(root_class) = self.class_of(&atom.lhs.var) else {
            return OTHER_SELECTIVITY;
        };
        self.path_pred_selectivity(root_class, &atom.lhs.path, atom.theta, atom.constant.as_num())
    }

    /// Selectivity of `C.a1…am θ c` from class `C` — atomic when m = 1,
    /// the paper's path selectivity otherwise.
    fn path_pred_selectivity(
        &self,
        root_class: &str,
        path: &[String],
        theta: Theta,
        constant: Option<f64>,
    ) -> f64 {
        let mut hops: Vec<PathHop> = Vec::new();
        let mut hitprb_last = 1.0;
        let mut cur = root_class.to_string();
        for attr in &path[..path.len() - 1] {
            match self.view.hop(&cur, attr) {
                Some((hop, target, hitprb)) => {
                    hops.push(hop);
                    hitprb_last = hitprb;
                    cur = target;
                }
                None => return 0.5,
            }
        }
        let terminal = path.last().expect("non-empty path");
        let dom = self.view.domain(&cur, terminal);
        let term_sel = atomic_selectivity(theta, constant, &dom);
        mood_cost::path_selectivity(&PathPredicate {
            hops,
            terminal_cardinality: self.view.class_info(&cur).cardinality,
            terminal_selectivity: term_sel,
            hitprb_last,
        })
    }

    /// Selectivity of an equi-join `x.a = y.b` on atomic attributes:
    /// `1/max(dist(a), dist(b))`, the uniform-domain rule of §5.
    fn equi_selectivity(&self, x: &AttrPath, y: &AttrPath) -> f64 {
        let dist = |side: &AttrPath| {
            Some(self.view.domain(self.class_of(&side.var)?, &side.path.join(".")).dist)
        };
        1.0 / [x, y].into_iter().filter_map(dist).fold(1.0, f64::max)
    }

    /// Selectivity and probe cost (seconds) of an INDSEL node: its
    /// conjuncts are atoms on indexed attributes, or on an indexed path.
    fn indsel_estimate(&self, class: &str, predicate: &Pred) -> (f64, f64) {
        let mut sel = 1.0;
        let mut probe = 0.0;
        // The range bounds on one attribute are one interval: the row the
        // optimizer made of them, one selectivity and one leaf-chain walk.
        let bound = |a: &Atom| a.lhs.path.len() == 1 && !matches!(a.theta, Theta::Eq | Theta::Ne);
        let mut groups: Vec<Vec<&Atom>> = Vec::new();
        for conjunct in predicate.conjuncts() {
            let Pred::Atom(a) = conjunct else {
                sel *= self.predicate_selectivity(conjunct);
                continue;
            };
            let interval =
                |g: &&mut Vec<&Atom>| bound(a) && bound(g[0]) && g[0].lhs.path == a.lhs.path;
            match groups.iter_mut().find(interval) {
                Some(g) => g.push(a),
                None => groups.push(vec![a]),
            }
        }
        for group in &groups {
            let a = group[0];
            let path = &a.lhs.path;
            let s = if group.len() > 1 {
                let bounds: Vec<_> = group.iter().map(|q| (q.theta, q.constant.as_num())).collect();
                let dom = self.view.domain(class, &path[0]);
                bounds_selectivity(&bounds, &dom, self.view.class_info(class).cardinality)
            } else {
                self.path_pred_selectivity(class, path, a.theta, a.constant.as_num())
            };
            sel *= s;
            if let Some(ix) = self.view.index(class, &path.join(".")) {
                probe += match a.theta {
                    Theta::Eq => indcost(&self.cfg.params, &ix, 1.0),
                    _ => rngxcost(&self.cfg.params, &ix, s),
                };
            }
        }
        (sel, probe)
    }

    /// Objects-per-page density of the first scan under `plan`, used to
    /// translate estimated rows into spill pages for SORT/PARTITION.
    fn subtree_density(&self, plan: &Plan) -> Option<f64> {
        let info = match plan {
            Plan::Bind { class, var } => Some(self.scan_info(class, var)),
            Plan::IndSel { class, .. } => Some(self.view.class_info(class)),
            _ => None,
        };
        if let Some(info) = info {
            if info.nbpages > 0.0 {
                return Some(info.cardinality / info.nbpages);
            }
        }
        plan.children().iter().find_map(|c| self.subtree_density(c))
    }

    /// Spill cost/pages of a SORT or PARTITION over `rows` input rows.
    ///
    /// Below the executor's sort budget the restructure runs in memory and
    /// touches no pages. Above it, rows spill to sorted runs and are merged
    /// back: one sequential write pass plus one sequential read pass over
    /// the data, both costed with the batched sequential model (one seek
    /// per readahead window).
    fn spill_estimate(&self, input: &Plan, rows: f64) -> (f64, f64) {
        if rows <= self.cfg.execution.sort_budget as f64 {
            return (0.0, 0.0);
        }
        let density = self
            .subtree_density(input)
            .unwrap_or(DEFAULT_ROWS_PER_PAGE)
            .max(1.0);
        let data_pages = (rows / density).ceil();
        let pass = seqcost_batched(&self.cfg.params, data_pages, READAHEAD_WINDOW);
        (2.0 * pass, 2.0 * data_pages)
    }

    /// Output rows, join selectivity, model cost, and the clustering
    /// factor the cost blend used for a JOIN node.
    fn join_estimate(
        &self,
        left: &Plan,
        right: &Plan,
        method: mood_cost::JoinMethod,
        condition: &JoinOn,
        left_rows: f64,
        right_rows: f64,
    ) -> (f64, Option<f64>, f64, f64, f64) {
        let attr = &condition.attr;
        let from_class = self.class_of(&condition.var);
        let hop = from_class.and_then(|class| Some((class, self.view.hop(class, attr)?)));
        let Some((from_class, (hop, target, hitprb))) = hop else {
            return (left_rows * right_rows, None, 0.0, 0.0, 0.0);
        };
        let c = self.view.class_info(from_class);
        let d = self.view.class_info(&target);
        let d_frac = if d.cardinality > 0.0 {
            (right_rows / d.cardinality).clamp(0.0, 1.0)
        } else {
            1.0
        };
        // Fraction of left rows whose reference lands in the surviving
        // right set (the Algorithm 8.2 `js`), and output rows: each
        // surviving left row contributes its matching references.
        let js = o_overlap(
            hop.totref,
            fref(std::slice::from_ref(&hop), 1.0),
            right_rows * hitprb,
        );
        let rows = left_rows * (hop.fan * d_frac).max(js).min(hop.fan.max(1.0));
        let j = JoinInputs {
            k_c: left_rows,
            k_d: right_rows,
            c,
            d,
            fan: hop.fan,
            totref: hop.totref,
            index: self.view.index(from_class, attr),
            d_already_accessed: false,
            c_in_memory: !matches!(left, Plan::Bind { .. }),
            d_in_memory: matches!(right, Plan::Temp { .. }),
            clustering: self.view.stats.clustering(from_class, attr),
        };
        let cf = j.clustering;
        let cost = join_cost(&self.cfg.params, method, &j).unwrap_or(0.0);
        let pages = join_pages(method, &j).unwrap_or(0.0);
        (rows, Some(js), cost, pages, cf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{optimize, PredSpec, QuerySpec};
    use crate::plan::{Conjunct, Const};
    use mood_datamodel::Value;

    fn cfg() -> OptimizerConfig {
        OptimizerConfig::paper()
    }

    fn example_8_2() -> QuerySpec {
        let mut q = QuerySpec::new("v", "Vehicle");
        q.projection = vec!["v".to_string()];
        q.terms = vec![vec![PredSpec::Path {
            path: vec!["drivetrain".into(), "engine".into(), "cylinders".into()],
            theta: Theta::Eq,
            constant: Const::Value(Value::Integer(2)),
            terminal_var: None,
        }]];
        q
    }

    /// A `BIND` of a `FROM EVERY` variable scans every extent it names:
    /// its rows and pages are their sums, and a sort over it spills once
    /// the sum outgrows the sort budget, which the root class alone does
    /// not.
    #[test]
    fn a_bind_under_every_sums_its_extents_and_its_sort_spills() {
        let mut stats = mood_catalog::DatabaseStats::new();
        let classes = [("Vehicle", 8_000), ("Automobile", 30_000), ("JapaneseAuto", 30_000)];
        for (class, n) in classes {
            let c = mood_catalog::ClassStats { cardinality: n, nbpages: n / 40, size: 100 };
            stats.set_class(class, c);
        }
        let bind = Plan::Bind { class: "Vehicle".into(), var: "v".into() };
        let sort = Plan::Sort { input: Box::new(bind), attributes: vec!["v.weight".into()] };
        let set = PlanSet { temps: Vec::new(), root: sort, estimated_cost: 0.0 };
        let cfg = OptimizerConfig { execution: cfg().execution.with_sort_budget(65_536), ..cfg() };
        let every = [("v".to_string(), classes.map(|(c, _)| c.to_string()).to_vec())];
        // Pre-order: [0] the SORT, [1] its BIND.
        let own = estimate_plan_set(&set, &stats, &cfg, &[]);
        assert_eq!((own[1].rows, own[1].pages, own[0].pages), (8_000.0, 200.0, 0.0));
        let all = estimate_plan_set(&set, &stats, &cfg, &every);
        assert_eq!((all[1].rows, all[1].pages), (68_000.0, 1_700.0));
        assert!(all[1].cost > own[1].cost, "{all:?}");
        assert_eq!(all[0].pages, 2.0 * 1_700.0, "one run written and read back");
    }

    #[test]
    fn ids_are_preorder_and_cover_every_node() {
        let stats = mood_catalog::DatabaseStats::paper_example();
        let out = optimize(&example_8_2(), &stats, &cfg());
        let set = &out.terms[0].plan;
        let est = estimate_plan_set(set, &stats, &cfg(), &[]);
        let total: usize = set
            .temps
            .iter()
            .map(|(_, p)| p.subtree_size())
            .sum::<usize>()
            + set.root.subtree_size();
        assert_eq!(est.len(), total);
        for (i, e) in est.iter().enumerate() {
            assert_eq!(e.id, i, "pre-order ids are dense");
            assert!(!e.label.is_empty());
        }
    }

    #[test]
    fn bind_estimates_match_class_stats() {
        let stats = mood_catalog::DatabaseStats::paper_example();
        let out = optimize(&example_8_2(), &stats, &cfg());
        let est = estimate_plan_set(&out.terms[0].plan, &stats, &cfg(), &[]);
        let bind = est
            .iter()
            .find(|e| e.label == "BIND(Vehicle, v)")
            .expect("vehicle bind estimated");
        assert_eq!(bind.rows, 20_000.0);
        assert_eq!(bind.pages, 2_000.0);
        assert!(bind.cost > 0.0);
    }

    #[test]
    fn select_applies_terminal_selectivity() {
        let stats = mood_catalog::DatabaseStats::paper_example();
        let out = optimize(&example_8_2(), &stats, &cfg());
        let est = estimate_plan_set(&out.terms[0].plan, &stats, &cfg(), &[]);
        let sel = est
            .iter()
            .find(|e| e.label.starts_with("SELECT(e.cylinders"))
            .expect("engine select estimated");
        // 10000 engines × 1/16 = 625.
        assert!((sel.rows - 625.0).abs() < 1.0, "{}", sel.rows);
        assert!((sel.selectivity.unwrap() - 1.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn a_fused_select_estimates_one_minus_the_product_of_rejections() {
        let stats = mood_catalog::DatabaseStats::paper_example();
        let mut q = QuerySpec::new("e", "VehicleEngine");
        let cyl = |n: i32| PredSpec::Immediate {
            attribute: "cylinders".into(),
            theta: Theta::Eq,
            constant: Const::Value(Value::Integer(n)),
        };
        q.terms = vec![vec![cyl(2)], vec![cyl(8)], vec![cyl(12)]];
        let out = optimize(&q, &stats, &cfg());
        let est = estimate_plan_set(&out.terms[0].plan, &stats, &cfg(), &[]);
        let sel = est[0].selectivity.expect("the fused SELECT has one");
        // Three terms of 1/16 each.
        let want = 1.0 - (1.0 - 1.0 / 16.0_f64).powi(3);
        assert!((sel - want).abs() < 1e-12, "{sel} vs {want}");
        assert!((est[0].rows - 10_000.0 * want).abs() < 1e-6);
    }

    #[test]
    fn join_nodes_carry_cost_and_selectivity() {
        let stats = mood_catalog::DatabaseStats::paper_example();
        let out = optimize(&example_8_2(), &stats, &cfg());
        let est = estimate_plan_set(&out.terms[0].plan, &stats, &cfg(), &[]);
        let methods = [
            "FORWARD_TRAVERSAL(",
            "BACKWARD_TRAVERSAL(",
            "BINARY_JOIN_INDEX(",
            "HASH_PARTITION(",
        ];
        let joins: Vec<_> = est
            .iter()
            .filter(|e| methods.iter().any(|m| e.label.starts_with(m)))
            .collect();
        assert_eq!(joins.len(), 2);
        for j in joins {
            assert!(j.pages > 0.0, "{}: join pages estimated", j.label);
            assert!(j.selectivity.is_some());
            assert!(j.rows > 0.0 && j.rows <= 20_000.0, "{}", j.rows);
        }
    }

    /// An atom is priced by its attribute whatever its constant reads
    /// like, and an opaque conjunct at the OtherSelInfo default whatever
    /// its text reads like.
    #[test]
    fn atoms_are_priced_by_their_attribute_and_conjuncts_at_half() {
        let stats = mood_catalog::DatabaseStats::paper_example();
        let string = Const::Value(Value::string("4 AND e.size = 2"));
        let atom = Pred::Atom(Atom::new("e", &["cylinders".into()], Theta::Eq, &string));
        let text = "e.cylinders = 4 AND e.size = 2".to_string();
        let other = Pred::Conjunct(Conjunct { id: 0, negations: 0, text });
        let bind = Plan::Bind { class: "VehicleEngine".into(), var: "e".into() };
        let root = Plan::select(Plan::select(bind, other), atom);
        let set = PlanSet { temps: Vec::new(), root, estimated_cost: 0.0 };
        let est = estimate_plan_set(&set, &stats, &cfg(), &[]);
        let sel: Vec<f64> = est.iter().filter_map(|e| e.selectivity).collect();
        assert_eq!(sel, [1.0 / 16.0, 0.5], "{est:?}");
    }
}
