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
    seqcost_batched, IndexParams, JoinInputs, PathHop, PathPredicate, Theta,
};
use mood_storage::READAHEAD_WINDOW;

use crate::optimizer::{OptimizerConfig, StatsView};
use crate::plan::{Plan, PlanSet};

/// Fallback objects-per-page density when a subtree has no extent to
/// derive one from (matches the paper example's 20 000 rows / 2 000 pages).
const DEFAULT_ROWS_PER_PAGE: f64 = 10.0;

/// The cost model's prediction for one plan node.
#[derive(Debug, Clone, PartialEq)]
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
pub fn estimate_plan_set(
    set: &PlanSet,
    stats: &DatabaseStats,
    cfg: &OptimizerConfig,
) -> Vec<NodeEstimate> {
    let view = StatsView { stats };
    let mut est = Estimator {
        view,
        cfg,
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
        self.out.push(NodeEstimate {
            id,
            label: String::new(),
            rows: 0.0,
            selectivity: None,
            pages: 0.0,
            cost: 0.0,
            clustering: None,
        });
        let mut clustering = None;
        let (label, rows, selectivity, cost, pages) = match plan {
            Plan::Bind { class, var } => {
                let info = self.view.class_info(class);
                // Batched model: the scan positions once per readahead
                // window of pages (one device call each, the pool's
                // `READAHEAD_WINDOW`), so the cost amortizes seek+rotation
                // across each window. Pages stay `nbpages` — batching
                // changes when pages are fetched, not how many.
                (
                    format!("BIND({class}, {var})"),
                    info.cardinality,
                    None,
                    seqcost_batched(&self.cfg.params, info.nbpages, READAHEAD_WINDOW),
                    info.nbpages,
                )
            }
            Plan::Temp { name } => {
                let rows = self
                    .temp_rows
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, r)| *r)
                    .unwrap_or(0.0);
                (name.clone(), rows, None, 0.0, 0.0)
            }
            Plan::IndSel {
                class,
                var,
                index_kind,
                predicate,
            } => {
                let info = self.view.class_info(class);
                let (sel, probe_cost) = self.indsel_estimate(class, index_kind, predicate);
                let rows = info.cardinality * sel;
                let fetch = rndcost(&self.cfg.params, rows);
                let cost = probe_cost + fetch;
                (
                    format!("INDSEL({class}, {var}, {index_kind})"),
                    rows,
                    Some(sel),
                    cost,
                    cost / self.cfg.params.random_page(),
                )
            }
            Plan::Select { input, predicate } => {
                let in_rows = self.walk(input);
                let sel = self.predicate_selectivity(predicate);
                (
                    format!("SELECT({predicate})"),
                    in_rows * sel,
                    Some(sel),
                    0.0,
                    0.0,
                )
            }
            Plan::Join {
                left,
                right,
                method,
                condition,
            } => {
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
                (
                    format!("{}({condition})", method.plan_name()),
                    rows,
                    js,
                    cost,
                    jpages,
                )
            }
            Plan::Project { input, attributes } => {
                let rows = self.walk(input);
                (
                    format!("PROJECT([{}])", attributes.join(", ")),
                    rows,
                    None,
                    0.0,
                    0.0,
                )
            }
            Plan::Sort { input, attributes } => {
                let rows = self.walk(input);
                let (cost, pages) = self.spill_estimate(input, rows);
                (
                    format!("SORT([{}])", attributes.join(", ")),
                    rows,
                    None,
                    cost,
                    pages,
                )
            }
            Plan::Partition {
                input, attributes, ..
            } => {
                let rows = self.walk(input);
                let (cost, pages) = self.spill_estimate(input, rows);
                (
                    format!("PARTITION([{}])", attributes.join(", ")),
                    rows,
                    None,
                    cost,
                    pages,
                )
            }
            Plan::Union { inputs } => {
                let rows = inputs.iter().map(|i| self.walk(i)).sum();
                ("UNION".to_string(), rows, None, 0.0, 0.0)
            }
        };
        let slot = &mut self.out[id];
        slot.label = label;
        slot.rows = rows;
        slot.selectivity = selectivity;
        slot.cost = cost;
        slot.pages = pages;
        slot.clustering = clustering;
        rows
    }

    /// Selectivity of a rendered predicate: conjuncts joined by ` AND `,
    /// each `var.attr θ const` (atomic) or `var.a1…am θ const` (path).
    /// Unparseable conjuncts (method calls, OtherSelInfo text) fall back to
    /// the optimizer's default ½.
    fn predicate_selectivity(&self, predicate: &str) -> f64 {
        predicate
            .split(" AND ")
            .map(|c| self.conjunct_selectivity(c))
            .product()
    }

    fn conjunct_selectivity(&self, conjunct: &str) -> f64 {
        let Some(p) = parse_conjunct(conjunct) else {
            return 0.5;
        };
        let Some(root_class) = self.class_of(&p.var).map(str::to_string) else {
            return 0.5;
        };
        self.path_pred_selectivity(&root_class, &p.path, p.theta, p.constant)
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

    /// Selectivity and probe cost (seconds) of an INDSEL node.
    fn indsel_estimate(&self, class: &str, index_kind: &str, predicate: &str) -> (f64, f64) {
        let mut sel = 1.0;
        let mut probe = 0.0;
        // The range bounds on one attribute are one interval: the row the
        // optimizer made of them, one selectivity and one leaf-chain walk.
        let bound =
            |p: &ParsedConjunct| p.path.len() == 1 && !matches!(p.theta, Theta::Eq | Theta::Ne);
        let mut groups: Vec<Vec<ParsedConjunct>> = Vec::new();
        for conjunct in predicate.split(" AND ") {
            let Some(p) = parse_conjunct(conjunct) else {
                sel *= 0.5;
                continue;
            };
            let interval = |g: &&mut Vec<ParsedConjunct>| {
                bound(&p) && bound(&g[0]) && g[0].path == p.path
            };
            match groups.iter_mut().find(interval) {
                Some(g) => g.push(p),
                None => groups.push(vec![p]),
            }
        }
        for group in &groups {
            let p = &group[0];
            let s = if group.len() > 1 {
                let bounds: Vec<_> = group.iter().map(|q| (q.theta, q.constant)).collect();
                let dom = self.view.domain(class, &p.path[0]);
                bounds_selectivity(&bounds, &dom, self.view.class_info(class).cardinality)
            } else {
                self.path_pred_selectivity(class, &p.path, p.theta, p.constant)
            };
            sel *= s;
            let key = p.path.join(".");
            let ix = if index_kind == "PATH_INDEX" {
                self.view.stats.index(class, &key).map(IndexParams::from_stats)
            } else {
                self.view.index(class, &key)
            };
            if let Some(ix) = ix {
                probe += match p.theta {
                    Theta::Eq => indcost(&self.cfg.params, &ix, 1.0),
                    _ => rngxcost(&self.cfg.params, &ix, s),
                };
            }
        }
        (sel, probe)
    }

    /// Objects-per-page density of the first extent under `plan`, used to
    /// translate estimated rows into spill pages for SORT/PARTITION.
    fn subtree_density(&self, plan: &Plan) -> Option<f64> {
        if let Plan::Bind { class, .. } | Plan::IndSel { class, .. } = plan {
            let info = self.view.class_info(class);
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
        condition: &str,
        left_rows: f64,
        right_rows: f64,
    ) -> (f64, Option<f64>, f64, f64, f64) {
        // Condition shape: `x.attr = y.self`.
        let parsed = condition.split_once(" = ").and_then(|(lhs, _)| {
            let (var, attr) = lhs.split_once('.')?;
            let class = self.class_of(var)?;
            let (hop, target, hitprb) = self.view.hop(class, attr)?;
            Some((class.to_string(), attr.to_string(), hop, target, hitprb))
        });
        let Some((from_class, attr, hop, target, hitprb)) = parsed else {
            return (left_rows * right_rows, None, 0.0, 0.0, 0.0);
        };
        let c = self.view.class_info(&from_class);
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
            index: self.view.index(&from_class, &attr),
            d_already_accessed: false,
            c_in_memory: !matches!(left, Plan::Bind { .. }),
            d_in_memory: matches!(right, Plan::Temp { .. }),
            clustering: self.view.stats.clustering(&from_class, &attr),
        };
        let cf = j.clustering;
        let cost = join_cost(&self.cfg.params, method, &j).unwrap_or(0.0);
        let pages = join_pages(method, &j).unwrap_or(0.0);
        (rows, Some(js), cost, pages, cf)
    }
}

struct ParsedConjunct {
    var: String,
    path: Vec<String>,
    theta: Theta,
    constant: Option<f64>,
}

/// Parse one rendered conjunct `var.a1…am θ const`. Returns `None` for
/// anything else (method calls, BETWEEN, join residues).
fn parse_conjunct(conjunct: &str) -> Option<ParsedConjunct> {
    // Two-character operators first so `<=` does not parse as `<`.
    let (lhs, theta, rhs) = [" <= ", " >= ", " <> ", " = ", " < ", " > "]
        .iter()
        .find_map(|op| {
            let (l, r) = conjunct.split_once(op)?;
            Some((l.trim(), Theta::parse(op.trim())?, r.trim()))
        })?;
    let mut segs = lhs.split('.').map(str::to_string);
    let var = segs.next()?;
    let path: Vec<String> = segs.collect();
    if path.is_empty() || path.iter().any(|s| s.contains('(')) {
        return None;
    }
    let constant = if let Ok(n) = rhs.parse::<f64>() {
        Some(n)
    } else if rhs == "TRUE" {
        Some(1.0)
    } else if rhs == "FALSE" {
        Some(0.0)
    } else {
        None // strings: equality falls back to 1/dist inside atomic_selectivity
    };
    Some(ParsedConjunct {
        var,
        path,
        theta,
        constant,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{optimize, Const, PredSpec, QuerySpec};

    fn cfg() -> OptimizerConfig {
        OptimizerConfig::paper()
    }

    fn example_8_2() -> QuerySpec {
        let mut q = QuerySpec::new("v", "Vehicle");
        q.projection = vec!["v".to_string()];
        q.terms = vec![vec![PredSpec::Path {
            path: vec!["drivetrain".into(), "engine".into(), "cylinders".into()],
            theta: Theta::Eq,
            constant: Const::Num(2.0),
            terminal_var: None,
        }]];
        q
    }

    #[test]
    fn ids_are_preorder_and_cover_every_node() {
        let stats = mood_catalog::DatabaseStats::paper_example();
        let out = optimize(&example_8_2(), &stats, &cfg());
        let set = &out.terms[0].plan;
        let est = estimate_plan_set(set, &stats, &cfg());
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
        let est = estimate_plan_set(&out.terms[0].plan, &stats, &cfg());
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
        let est = estimate_plan_set(&out.terms[0].plan, &stats, &cfg());
        let sel = est
            .iter()
            .find(|e| e.label.starts_with("SELECT(e.cylinders"))
            .expect("engine select estimated");
        // 10000 engines × 1/16 = 625.
        assert!((sel.rows - 625.0).abs() < 1.0, "{}", sel.rows);
        assert!((sel.selectivity.unwrap() - 1.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn join_nodes_carry_cost_and_selectivity() {
        let stats = mood_catalog::DatabaseStats::paper_example();
        let out = optimize(&example_8_2(), &stats, &cfg());
        let est = estimate_plan_set(&out.terms[0].plan, &stats, &cfg());
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

    #[test]
    fn unparseable_conjuncts_fall_back_to_half() {
        assert!(parse_conjunct("v.lbweight() > 3000").is_none());
        assert!(parse_conjunct("plain text").is_none());
        let p = parse_conjunct("v.weight >= 1500").unwrap();
        assert_eq!(p.var, "v");
        assert_eq!(p.path, vec!["weight".to_string()]);
        assert_eq!(p.theta, Theta::Ge);
        assert_eq!(p.constant, Some(1500.0));
    }
}
