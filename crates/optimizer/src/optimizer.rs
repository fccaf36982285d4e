//! The MOOD query optimizer — Sections 7 and 8 end to end.
//!
//! Pipeline per AND-term (the DNF transform in [`crate::dnf`] produces the
//! terms; a final `UNION` combines them, Figure 7.1/7.2 order):
//!
//! 1. classify predicates into the ImmSelInfo / PathSelInfo / OtherSelInfo
//!    dictionaries (Tables 11–12) with selectivities and costs;
//! 2. decide index usage and residual predicate order for the immediate
//!    selections (§8.1, [`crate::atomic`]);
//! 3. order the path expressions by `F/(1−s)` (§8.2 / Algorithm 8.1,
//!    [`crate::path_order`]);
//! 4. order each path's implicit joins (§8.3 / Algorithm 8.2): greedy
//!    pairwise merging by `jc/(1−js)` for a cold chain; once a selective
//!    temporary heads the chain, traversal proceeds from it left-to-right
//!    with the per-join minimum-cost method (this is the behavior of the
//!    paper's Example 8.1, where P1 is evaluated by forward traversal from
//!    T1);
//! 5. emit the access plan in the paper's notation.

use mood_catalog::DatabaseStats;
use mood_cost::{
    atomic_selectivity, best_join_method, bounds_selectivity, o_overlap,
    path_forward_cost_clustered, path_selectivity, seqcost,
    ClassInfo, Domain, IndexParams, JoinInputs, JoinMethod, PathHop, PathPredicate, PhysicalParams,
    Theta,
};
use mood_storage::ExecutionConfig;
use mood_storage::PhysicalParams as Disk;

use crate::atomic::{plan_atomic_selections, AtomicPredicate};
use crate::path_order::{order_paths, PathCost};
use crate::plan::{Plan, PlanSet};

/// A constant in a predicate (for selectivity and plan rendering).
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    Num(f64),
    Str(String),
    Bool(bool),
    /// `$n` — a value bound at execution. It stands only where θ is `=` or
    /// `<>`, whose §8 selectivities (`1/dist`, `1 − 1/dist`) never read the
    /// constant, so the plan chosen for `$n` is the plan for every value.
    Param(u16),
}

impl Const {
    pub fn render(&self) -> String {
        match self {
            Const::Num(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    format!("{}", *x as i64)
                } else {
                    format!("{x}")
                }
            }
            Const::Str(s) => format!("'{}'", s.replace('\'', "''")),
            Const::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Const::Param(n) => format!("${n}"),
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Const::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// One predicate of an AND-term, rooted at the query's range variable.
#[derive(Debug, Clone, PartialEq)]
pub enum PredSpec {
    /// `v.A θ c` with `A` an atomic attribute of the root class.
    Immediate {
        attribute: String,
        theta: Theta,
        constant: Const,
    },
    /// `v.A1.A2…Am θ c` — a path expression (implicit joins).
    /// `terminal_var` preserves a user-written range variable for the
    /// terminal class (the binder's rewrite of explicit joins like
    /// `c.drivetrain.engine = v` keeps `v` addressable in projections).
    Path {
        path: Vec<String>,
        theta: Theta,
        constant: Const,
        terminal_var: Option<String>,
    },
    /// Anything else (method calls, complex predicates): evaluated last,
    /// selectivity unknown (the paper stores these in OtherSelInfo).
    Other { text: String },
}

impl crate::dnf::Negate for PredSpec {
    fn negate(&self) -> Self {
        fn flip(t: Theta) -> Theta {
            match t {
                Theta::Eq => Theta::Ne,
                Theta::Ne => Theta::Eq,
                Theta::Lt => Theta::Ge,
                Theta::Ge => Theta::Lt,
                Theta::Gt => Theta::Le,
                Theta::Le => Theta::Gt,
            }
        }
        match self {
            PredSpec::Immediate {
                attribute,
                theta,
                constant,
            } => PredSpec::Immediate {
                attribute: attribute.clone(),
                theta: flip(*theta),
                constant: constant.clone(),
            },
            PredSpec::Path {
                path,
                theta,
                constant,
                terminal_var,
            } => PredSpec::Path {
                path: path.clone(),
                theta: flip(*theta),
                constant: constant.clone(),
                terminal_var: terminal_var.clone(),
            },
            PredSpec::Other { text } => PredSpec::Other {
                text: format!("NOT ({text})"),
            },
        }
    }
}

/// The optimizer's query description (the SQL binder lowers its AST to
/// this; tests construct it directly).
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub root_var: String,
    pub root_class: String,
    /// `FROM EVERY C` (include subclasses).
    pub every: bool,
    /// The `-` operator's exclusions.
    pub minus: Vec<String>,
    /// DNF: OR of AND-terms.
    pub terms: Vec<Vec<PredSpec>>,
    pub projection: Vec<String>,
    pub order_by: Vec<String>,
    pub group_by: Vec<String>,
    pub having: Option<String>,
}

impl QuerySpec {
    pub fn new(root_var: &str, root_class: &str) -> QuerySpec {
        QuerySpec {
            root_var: root_var.to_string(),
            root_class: root_class.to_string(),
            every: false,
            minus: Vec::new(),
            terms: vec![Vec::new()],
            projection: Vec::new(),
            order_by: Vec::new(),
            group_by: Vec::new(),
            having: None,
        }
    }
}

/// A row of the ImmSelInfo dictionary (Table 11).
#[derive(Debug, Clone)]
pub struct ImmSelRow {
    pub range_var: String,
    pub predicate: String,
    pub selectivity: f64,
    pub indexed_cost: Option<f64>,
    pub sequential_cost: f64,
    /// "Access Type" column: `Indexed` or `Sequential`.
    pub indexed_access: bool,
}

/// A row of the PathSelInfo dictionary (Table 12 / Table 16).
#[derive(Debug, Clone)]
pub struct PathSelRow {
    pub range_var: String,
    pub predicate: String,
    pub selectivity: f64,
    pub forward_cost: f64,
    /// The `cost/(1−f_s)` ranking column of Table 16.
    pub rank: f64,
}

/// A row of the OtherSelInfo dictionary.
#[derive(Debug, Clone)]
pub struct OtherSelRow {
    pub range_var: String,
    pub predicate: String,
    /// "The main problem for this type is that it is not so easy to
    /// calculate the selectivity": a fixed default is used.
    pub selectivity: f64,
    pub sequential_cost: f64,
}

/// Optimization output for one AND-term.
#[derive(Debug, Clone)]
pub struct TermPlan {
    pub imm_sel_info: Vec<ImmSelRow>,
    pub path_sel_info: Vec<PathSelRow>,
    pub other_sel_info: Vec<OtherSelRow>,
    pub plan: PlanSet,
}

/// The complete optimization result.
#[derive(Debug, Clone)]
pub struct OptimizedQuery {
    pub terms: Vec<TermPlan>,
    /// The final plan (UNION of terms, then PROJECT/PARTITION/SORT per
    /// Figure 7.1/7.2).
    pub root: Plan,
    pub estimated_cost: f64,
}

/// Default selectivity for OtherSelInfo predicates.
const OTHER_SELECTIVITY: f64 = 0.5;

/// Optimizer configuration.
///
/// `execution` does not influence plan choice — parallel operators produce
/// identical results with identical page-access totals, so the §5/§6 cost
/// formulas apply unchanged. It rides along here because the executor reads
/// its operator settings from the same config the optimizer uses.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    pub params: PhysicalParams,
    pub execution: ExecutionConfig,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            params: Disk::salzberg_1988(),
            execution: ExecutionConfig::default(),
        }
    }
}

impl OptimizerConfig {
    pub fn paper() -> Self {
        OptimizerConfig {
            params: Disk::paper_calibrated(),
            execution: ExecutionConfig::default(),
        }
    }

    /// The same config with the given operator parallelism (clamped to at
    /// least 1); batch size and sort budget stay as they were.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.execution.parallelism = parallelism.max(1);
        self
    }
}

// ---------------------------------------------------------------------
// Statistics access helpers
// ---------------------------------------------------------------------

pub(crate) struct StatsView<'a> {
    pub(crate) stats: &'a DatabaseStats,
}

impl<'a> StatsView<'a> {
    pub(crate) fn class_info(&self, class: &str) -> ClassInfo {
        match self.stats.class(class) {
            Some(c) => ClassInfo {
                cardinality: c.cardinality as f64,
                nbpages: c.nbpages as f64,
            },
            // Unknown classes get a small default so optimization proceeds.
            None => ClassInfo {
                cardinality: 1_000.0,
                nbpages: 100.0,
            },
        }
    }

    /// The hop (fan/totref/totlinks), its target class, and hitprb for a
    /// reference attribute.
    pub(crate) fn hop(&self, class: &str, attr: &str) -> Option<(PathHop, String, f64)> {
        let r = self.stats.reference(class, attr)?;
        let totlinks = self.stats.totlinks(class, attr)?;
        let hitprb = self.stats.hitprb(class, attr).unwrap_or(1.0);
        Some((
            PathHop {
                fan: r.fan,
                totref: r.totref as f64,
                totlinks,
            },
            r.target.clone(),
            hitprb,
        ))
    }

    pub(crate) fn domain(&self, class: &str, attr: &str) -> Domain {
        match self.stats.attr(class, attr) {
            Some(a) => Domain {
                dist: a.dist as f64,
                max: a.max,
                min: a.min,
            },
            None => Domain {
                dist: 10.0,
                max: None,
                min: None,
            },
        }
    }

    pub(crate) fn index(&self, class: &str, attr: &str) -> Option<IndexParams> {
        self.stats.index(class, attr).map(IndexParams::from_stats)
    }
}

/// A short range-variable name for an intermediate hop, following the
/// paper's convention (`v.drivetrain` → `d`, `d.engine` → `e`,
/// `v.company` → `c`): the first letter of the *attribute* traversed.
pub fn short_var(attribute: &str, taken: &[String]) -> String {
    let base = attribute
        .chars()
        .next()
        .map(|ch| ch.to_lowercase().to_string())
        .unwrap_or_else(|| "x".to_string());
    if !taken.contains(&base) {
        return base;
    }
    let mut n = 2;
    loop {
        let cand = format!("{base}{n}");
        if !taken.contains(&cand) {
            return cand;
        }
        n += 1;
    }
}

// ---------------------------------------------------------------------
// Algorithm 8.2 machinery
// ---------------------------------------------------------------------

/// A node of the join chain (a class or a merged temporary).
#[derive(Debug, Clone)]
struct ChainNode {
    /// Head class: the referencing side seen by the left neighbor.
    head_class: String,
    head_var: String,
    /// Expected surviving head-class objects (selections/merges applied).
    selected: f64,
    plan: Plan,
    in_memory: bool,
    accessed: bool,
}

/// The edge between chain nodes i and i+1: attribute of node i's *tail*
/// class referencing node i+1's head class. For the single-path chains the
/// optimizer builds, every node's tail equals its rightmost original class;
/// we track the tail explicitly on the edge's left variable.
#[derive(Debug, Clone)]
struct ChainEdge {
    /// The referencing class (C_i) and its range variable.
    from_class: String,
    from_var: String,
    attribute: String,
    hop: PathHop,
    hitprb: f64,
}

struct ChainState<'a> {
    nodes: Vec<ChainNode>,
    edges: Vec<ChainEdge>, // edges[i] joins nodes[i] → nodes[i+1]
    view: &'a StatsView<'a>,
    cfg: &'a OptimizerConfig,
}

impl ChainState<'_> {
    /// `jc` and the chosen method for edge `i` (Algorithm 8.2's "minimum
    /// cost join technique among the four join algorithms").
    fn edge_cost(&self, i: usize) -> (JoinMethod, f64) {
        let left = &self.nodes[i];
        let right = &self.nodes[i + 1];
        let edge = &self.edges[i];
        let c = self.view.class_info(&edge.from_class);
        let d = self.view.class_info(&right.head_class);
        let j = JoinInputs {
            // Pairwise costs use full extents for stored nodes (selections
            // have not been *executed* at estimation time — they enter
            // through js); in-memory temporaries use their surviving count.
            k_c: if left.in_memory {
                left.selected
            } else {
                c.cardinality
            },
            k_d: if right.in_memory {
                right.selected
            } else {
                d.cardinality
            },
            c,
            d,
            fan: edge.hop.fan,
            totref: edge.hop.totref,
            index: self.view.index(&edge.from_class, &edge.attribute),
            d_already_accessed: right.accessed,
            c_in_memory: left.in_memory,
            d_in_memory: right.in_memory,
            clustering: self
                .view
                .stats
                .clustering(&edge.from_class, &edge.attribute),
        };
        best_join_method(&self.cfg.params, &j)
    }

    /// `js` for edge `i`: the fraction of the left node's head objects
    /// surviving the join, `o(totref, fref(hop, 1), selected_D · hitprb)`.
    fn edge_selectivity(&self, i: usize) -> f64 {
        let right = &self.nodes[i + 1];
        let edge = &self.edges[i];
        let x = mood_cost::fref(std::slice::from_ref(&edge.hop), 1.0);
        o_overlap(edge.hop.totref, x, right.selected * edge.hitprb)
    }

    fn rank(&self, i: usize) -> f64 {
        let (_, jc) = self.edge_cost(i);
        let js = self.edge_selectivity(i);
        if js >= 1.0 {
            f64::INFINITY
        } else {
            jc / (1.0 - js)
        }
    }

    /// Merge edge `i` into a single node, returning the join cost spent.
    fn merge(&mut self, i: usize) -> f64 {
        let (method, jc) = self.edge_cost(i);
        let js = self.edge_selectivity(i);
        let left = self.nodes[i].clone();
        let right = self.nodes[i + 1].clone();
        let edge = self.edges[i].clone();
        let condition = format!(
            "{}.{} = {}.self",
            edge.from_var, edge.attribute, right.head_var
        );
        let merged = ChainNode {
            head_class: left.head_class,
            head_var: left.head_var,
            selected: left.selected * js,
            plan: Plan::join(left.plan, right.plan, method, condition),
            in_memory: true,
            accessed: true,
        };
        self.nodes[i] = merged;
        self.nodes.remove(i + 1);
        self.edges.remove(i);
        jc
    }

    /// Algorithm 8.2: greedily merge the minimum-rank pair until one node
    /// remains. Returns the final node and the summed join cost.
    fn run_greedy(mut self) -> (ChainNode, f64) {
        let mut total = 0.0;
        while self.nodes.len() > 1 {
            let best = (0..self.edges.len())
                .min_by(|&a, &b| {
                    self.rank(a)
                        .partial_cmp(&self.rank(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("edges remain while nodes > 1");
            total += self.merge(best);
        }
        (self.nodes.pop().expect("one node remains"), total)
    }

    /// Left-to-right traversal from an in-memory head (the Example 8.1
    /// pattern for paths entered from a selective temporary).
    fn run_left_to_right(mut self) -> (ChainNode, f64) {
        let mut total = 0.0;
        while self.nodes.len() > 1 {
            total += self.merge(0);
        }
        (self.nodes.pop().expect("one node remains"), total)
    }
}

// ---------------------------------------------------------------------
// The optimizer proper
// ---------------------------------------------------------------------

/// Optimize a query against the statistics.
pub fn optimize(spec: &QuerySpec, stats: &DatabaseStats, cfg: &OptimizerConfig) -> OptimizedQuery {
    let view = StatsView { stats };
    let mut term_plans = Vec::new();
    let mut total_cost = 0.0;
    for term in &spec.terms {
        let tp = optimize_term(spec, term, &view, cfg);
        total_cost += tp.plan.estimated_cost;
        term_plans.push(tp);
    }
    // UNION of the AND-term subplans (Figure 7.2: UNION is outermost in
    // the WHERE processing), then GROUP BY/HAVING, projection, ORDER BY
    // (Figure 7.1 clause order).
    let mut root = if term_plans.len() == 1 {
        term_plans[0].plan.root.clone()
    } else {
        Plan::Union {
            inputs: term_plans.iter().map(|t| t.plan.root.clone()).collect(),
        }
    };
    if !spec.group_by.is_empty() {
        root = Plan::Partition {
            input: Box::new(root),
            attributes: spec.group_by.clone(),
            having: spec.having.clone(),
        };
    }
    if !spec.projection.is_empty() {
        root = Plan::Project {
            input: Box::new(root),
            attributes: spec.projection.clone(),
        };
    }
    if !spec.order_by.is_empty() {
        root = Plan::Sort {
            input: Box::new(root),
            attributes: spec.order_by.clone(),
        };
    }
    OptimizedQuery {
        terms: term_plans,
        root,
        estimated_cost: total_cost,
    }
}

fn render_path_pred(var: &str, path: &[String], theta: Theta, c: &Const) -> String {
    format!("{var}.{} {} {}", path.join("."), theta.symbol(), c.render())
}

fn optimize_term(
    spec: &QuerySpec,
    term: &[PredSpec],
    view: &StatsView<'_>,
    cfg: &OptimizerConfig,
) -> TermPlan {
    let root_class = &spec.root_class;
    let root_info = view.class_info(root_class);

    // ---- classify ----
    // ImmSelInfo rows in the making. The range bounds (`<`, `<=`, `>`, `>=`)
    // on one indexed attribute describe one interval — one leaf-chain walk,
    // so one `RNGXCOST(fract)` — and share a row; `bounds` holds what the
    // row's interval selectivity is computed from.
    struct ImmRow<'p> {
        attribute: &'p str,
        bounds: Vec<(Theta, Option<f64>)>,
        pred: AtomicPredicate,
    }
    let mut imm: Vec<ImmRow<'_>> = Vec::new();
    let mut paths: Vec<&PredSpec> = Vec::new();
    let mut others: Vec<&PredSpec> = Vec::new();
    for p in term {
        match p {
            PredSpec::Immediate {
                attribute,
                theta,
                constant,
            } => {
                let dom = view.domain(root_class, attribute);
                let text = format!(
                    "{}.{attribute} {} {}",
                    spec.root_var,
                    theta.symbol(),
                    constant.render()
                );
                // An attribute index covers its class's own extent only:
                // under `FROM EVERY` a probe would miss every subclass
                // instance, so it is not offered to §8.1.
                let index = if spec.every {
                    None
                } else {
                    view.index(root_class, attribute)
                };
                let bound = !matches!(theta, Theta::Eq | Theta::Ne) && index.is_some();
                let interval = imm
                    .iter_mut()
                    .find(|row| bound && !row.bounds.is_empty() && row.attribute == attribute);
                if let Some(row) = interval {
                    row.bounds.push((*theta, constant.as_num()));
                    row.pred.text = format!("{} AND {text}", row.pred.text);
                    row.pred.selectivity =
                        bounds_selectivity(&row.bounds, &dom, root_info.cardinality);
                    continue;
                }
                imm.push(ImmRow {
                    attribute,
                    bounds: if bound {
                        vec![(*theta, constant.as_num())]
                    } else {
                        Vec::new()
                    },
                    pred: AtomicPredicate {
                        text,
                        selectivity: atomic_selectivity(*theta, constant.as_num(), &dom),
                        theta: *theta,
                        index,
                    },
                });
            }
            PredSpec::Path { .. } => paths.push(p),
            PredSpec::Other { .. } => others.push(p),
        }
    }

    // ---- §8.1: immediate selections ----
    let atomic_preds: Vec<AtomicPredicate> = imm.into_iter().map(|row| row.pred).collect();
    let atomic_plan = plan_atomic_selections(
        &cfg.params,
        &atomic_preds,
        root_info.cardinality,
        root_info.nbpages,
    );
    let seq = seqcost(&cfg.params, root_info.nbpages);
    let imm_rows: Vec<ImmSelRow> = atomic_preds
        .iter()
        .enumerate()
        .map(|(i, a)| ImmSelRow {
            range_var: spec.root_var.clone(),
            predicate: a.text.clone(),
            selectivity: a.selectivity,
            indexed_cost: crate::atomic::indexed_access_cost(&cfg.params, a),
            sequential_cost: seq,
            indexed_access: atomic_plan.indexed.contains(&i),
        })
        .collect();

    let mut cost_so_far = 0.0;
    let imm_selectivity: f64 = atomic_preds.iter().map(|a| a.selectivity).product();
    // Base access plan for the root variable.
    let mut base = Plan::bind(root_class, &spec.root_var);
    let mut root_in_memory = false;
    if !atomic_preds.is_empty() {
        cost_so_far += atomic_plan.access_cost;
        root_in_memory = true;
        if !atomic_plan.indexed.is_empty() {
            let texts: Vec<String> = atomic_plan
                .indexed
                .iter()
                .map(|&i| atomic_preds[i].text.clone())
                .collect();
            base = Plan::IndSel {
                class: root_class.clone(),
                var: spec.root_var.clone(),
                index_kind: "BTREE".to_string(),
                predicate: texts.join(" AND "),
            };
        }
        if !atomic_plan.residual.is_empty() {
            let texts: Vec<String> = atomic_plan
                .residual
                .iter()
                .map(|&i| atomic_preds[i].text.clone())
                .collect();
            base = Plan::select(base, texts.join(" AND "));
        }
    }

    // ---- §4.1 + Algorithm 8.1: path expressions ----
    struct PathData<'p> {
        spec: &'p PredSpec,
        text: String,
        hops: Vec<(PathHop, String, f64, String)>, // hop, target class, hitprb, attr
        selectivity: f64,
        forward_cost: f64,
    }
    let mut path_data: Vec<PathData<'_>> = Vec::new();
    for p in &paths {
        let PredSpec::Path {
            path,
            theta,
            constant,
            ..
        } = p
        else {
            unreachable!()
        };
        let mut hops = Vec::new();
        let mut cur = root_class.clone();
        let mut classes = vec![view.class_info(&cur)];
        let mut hop_clustering = Vec::new();
        for attr in &path[..path.len() - 1] {
            match view.hop(&cur, attr) {
                Some((hop, target, hitprb)) => {
                    hops.push((hop, target.clone(), hitprb, attr.clone()));
                    classes.push(view.class_info(&target));
                    hop_clustering.push(view.stats.clustering(&cur, attr));
                    cur = target;
                }
                None => break,
            }
        }
        let terminal_attr = path.last().expect("non-empty path");
        let dom = view.domain(&cur, terminal_attr);
        let term_sel = atomic_selectivity(*theta, constant.as_num(), &dom);
        let pp = PathPredicate {
            hops: hops.iter().map(|(h, _, _, _)| *h).collect(),
            terminal_cardinality: view.class_info(&cur).cardinality,
            terminal_selectivity: term_sel,
            hitprb_last: hops.last().map(|(_, _, h, _)| *h).unwrap_or(1.0),
        };
        let selectivity = path_selectivity(&pp);
        let forward_cost = path_forward_cost_clustered(
            &cfg.params,
            &classes,
            &pp.hops,
            root_info.cardinality,
            &hop_clustering,
        );
        path_data.push(PathData {
            spec: p,
            text: render_path_pred(&spec.root_var, path, *theta, constant),
            hops,
            selectivity,
            forward_cost,
        });
    }
    let order = order_paths(
        &path_data
            .iter()
            .map(|d| PathCost {
                cost: d.forward_cost,
                selectivity: d.selectivity,
            })
            .collect::<Vec<_>>(),
    );
    let path_rows: Vec<PathSelRow> = order
        .iter()
        .map(|&i| {
            let d = &path_data[i];
            let pc = PathCost {
                cost: d.forward_cost,
                selectivity: d.selectivity,
            };
            PathSelRow {
                range_var: spec.root_var.clone(),
                predicate: d.text.clone(),
                selectivity: d.selectivity,
                forward_cost: d.forward_cost,
                rank: pc.rank(),
            }
        })
        .collect();

    // ---- Algorithm 8.2 per path, in 8.1 order ----
    let mut temps: Vec<(String, Plan)> = Vec::new();
    let mut current = ChainNode {
        head_class: root_class.clone(),
        head_var: spec.root_var.clone(),
        selected: root_info.cardinality * imm_selectivity,
        plan: base,
        in_memory: root_in_memory,
        accessed: root_in_memory,
    };
    let mut taken_vars = vec![spec.root_var.clone()];
    for (step, &pi) in order.iter().enumerate() {
        let d = &path_data[pi];
        let PredSpec::Path {
            path,
            theta,
            constant,
            terminal_var,
        } = d.spec
        else {
            unreachable!()
        };
        // A *path index* (access-support relation) covering the whole path
        // satisfies the predicate with one index probe — usable when the
        // chain still starts from the stored root extent (the index maps
        // terminal values to root OIDs).
        if !current.in_memory {
            if let Some(ix) = view.stats.index(root_class, &path.join(".")) {
                let ix = IndexParams::from_stats(ix);
                let indexed_cost = match theta {
                    Theta::Eq => mood_cost::indcost(&cfg.params, &ix, 1.0),
                    Theta::Ne => f64::INFINITY,
                    _ => mood_cost::rngxcost(&cfg.params, &ix, d.selectivity),
                };
                let fetch = mood_cost::rndcost(&cfg.params, root_info.cardinality * d.selectivity);
                if indexed_cost + fetch < d.forward_cost {
                    cost_so_far += indexed_cost + fetch;
                    current = ChainNode {
                        head_class: root_class.clone(),
                        head_var: current.head_var.clone(),
                        selected: current.selected * d.selectivity,
                        plan: Plan::IndSel {
                            class: root_class.clone(),
                            var: spec.root_var.clone(),
                            index_kind: "PATH_INDEX".to_string(),
                            predicate: d.text.clone(),
                        },
                        in_memory: true,
                        accessed: true,
                    };
                    if step + 1 < order.len() {
                        let name = format!("T{}", temps.len() + 1);
                        temps.push((name.clone(), current.plan.clone()));
                        current.plan = Plan::temp(&name);
                    }
                    continue;
                }
            }
        }
        // Build the chain: current node, then one node per hop target.
        let mut nodes = vec![current.clone()];
        let mut edges: Vec<ChainEdge> = Vec::new();
        let mut from_class = current.head_class.clone();
        let mut from_var = current.head_var.clone();
        for (i, (hop, target, hitprb, attr)) in d.hops.iter().enumerate() {
            let is_last_hop = i + 1 == d.hops.len();
            let var = match (is_last_hop, terminal_var) {
                (true, Some(v)) if !taken_vars.contains(v) => v.clone(),
                _ => short_var(attr, &taken_vars),
            };
            taken_vars.push(var.clone());
            let info = view.class_info(target);
            let is_last = i + 1 == d.hops.len();
            let (plan, selected) = if is_last {
                let dom = view.domain(target, path.last().expect("non-empty"));
                let sel = atomic_selectivity(*theta, constant.as_num(), &dom);
                (
                    Plan::select(
                        Plan::bind(target, &var),
                        format!(
                            "{var}.{} {} {}",
                            path.last().expect("non-empty"),
                            theta.symbol(),
                            constant.render()
                        ),
                    ),
                    info.cardinality * sel,
                )
            } else {
                (Plan::bind(target, &var), info.cardinality)
            };
            nodes.push(ChainNode {
                head_class: target.clone(),
                head_var: var.clone(),
                selected,
                plan,
                in_memory: false,
                accessed: false,
            });
            edges.push(ChainEdge {
                from_class: from_class.clone(),
                from_var: from_var.clone(),
                attribute: attr.clone(),
                hop: *hop,
                hitprb: *hitprb,
            });
            from_class = target.clone();
            from_var = var;
        }
        if edges.is_empty() {
            continue; // unresolvable path: handled as residual by executor
        }
        let head_in_memory = nodes[0].in_memory;
        let chain = ChainState {
            nodes,
            edges,
            view,
            cfg,
        };
        let (result, jc) = if head_in_memory {
            chain.run_left_to_right()
        } else {
            chain.run_greedy()
        };
        cost_so_far += jc;
        current = result;
        // Name the subplan T1, T2, … after each path except the last, as
        // the paper does.
        if step + 1 < order.len() {
            let name = format!("T{}", temps.len() + 1);
            temps.push((name.clone(), current.plan.clone()));
            current.plan = Plan::temp(&name);
        }
    }

    // ---- other selections last ----
    let mut other_rows = Vec::new();
    let mut plan = current.plan;
    for o in &others {
        let PredSpec::Other { text } = o else {
            unreachable!()
        };
        other_rows.push(OtherSelRow {
            range_var: spec.root_var.clone(),
            predicate: text.clone(),
            selectivity: OTHER_SELECTIVITY,
            sequential_cost: seq,
        });
        plan = Plan::select(plan, text.clone());
    }

    TermPlan {
        imm_sel_info: imm_rows,
        path_sel_info: path_rows,
        other_sel_info: other_rows,
        plan: PlanSet {
            temps,
            root: plan,
            estimated_cost: cost_so_far,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OptimizerConfig {
        OptimizerConfig::paper()
    }

    /// Example 8.1's query spec:
    /// Select v From Vehicle v
    /// where v.company.name = 'BMW' and v.drivetrain.engine.cylinders = 2
    fn example_8_1() -> QuerySpec {
        let mut q = QuerySpec::new("v", "Vehicle");
        q.projection = vec!["v".to_string()];
        q.terms = vec![vec![
            PredSpec::Path {
                path: vec!["company".into(), "name".into()],
                theta: Theta::Eq,
                constant: Const::Str("BMW".into()),
                terminal_var: None,
            },
            PredSpec::Path {
                path: vec!["drivetrain".into(), "engine".into(), "cylinders".into()],
                theta: Theta::Eq,
                constant: Const::Num(2.0),
                terminal_var: None,
            },
        ]];
        q
    }

    /// Example 8.2: Select v From Vehicle v
    /// Where v.drivetrain.engine.cylinders = 2
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

    /// `=` selectivity is `1/dist` whatever the constant, so Example 8.1
    /// with both constants replaced by parameters gets Example 8.1's plan,
    /// costs and dictionaries.
    #[test]
    fn parameters_plan_like_the_constants_they_stand_for() {
        let stats = DatabaseStats::paper_example();
        let literal = example_8_1();
        let mut shaped = literal.clone();
        for (n, pred) in shaped.terms[0].iter_mut().enumerate() {
            let PredSpec::Path { constant, .. } = pred else {
                unreachable!()
            };
            *constant = Const::Param(n as u16 + 1);
        }
        let a = optimize(&literal, &stats, &cfg());
        let b = optimize(&shaped, &stats, &cfg());
        assert_eq!(a.estimated_cost, b.estimated_cost);
        let bound = b.terms[0]
            .plan
            .to_string()
            .replace("$1", "'BMW'")
            .replace("$2", "2");
        assert_eq!(a.terms[0].plan.to_string(), bound);
        for (x, y) in a.terms[0]
            .path_sel_info
            .iter()
            .zip(&b.terms[0].path_sel_info)
        {
            assert_eq!((x.selectivity, x.rank), (y.selectivity, y.rank));
        }
    }

    #[test]
    fn table_16_path_sel_info_reproduced() {
        let stats = DatabaseStats::paper_example();
        let out = optimize(&example_8_1(), &stats, &cfg());
        let rows = &out.terms[0].path_sel_info;
        assert_eq!(rows.len(), 2);
        // Ordered P2 (company.name) first.
        assert!(rows[0].predicate.contains("company.name"), "{:?}", rows[0]);
        assert!(rows[1].predicate.contains("drivetrain.engine.cylinders"));
        // P1 row: selectivity 6.25e-2, forward cost ≈771.8 (within 1%),
        // rank ≈ 823.28.
        let p1 = &rows[1];
        assert!(
            (p1.selectivity - 6.25e-2).abs() < 2e-3,
            "{}",
            p1.selectivity
        );
        assert!(
            (p1.forward_cost - 771.825).abs() / 771.825 < 0.01,
            "{}",
            p1.forward_cost
        );
        assert!((p1.rank - 823.28).abs() / 823.28 < 0.01, "{}", p1.rank);
        // P2 row: formula selectivity 5.0e-6 (the paper prints 5.00e-5 —
        // its own formula omits hitprb there; see EXPERIMENTS.md), forward
        // cost exactly 520.825 under the calibrated disk.
        let p2 = &rows[0];
        assert!((p2.selectivity - 5.0e-6).abs() < 1e-7, "{}", p2.selectivity);
        assert!(
            (p2.forward_cost - 520.825).abs() < 1e-6,
            "{}",
            p2.forward_cost
        );
        assert!((p2.rank - 520.825).abs() < 0.01, "{}", p2.rank);
    }

    #[test]
    fn example_8_1_plan_shape_matches_paper() {
        let stats = DatabaseStats::paper_example();
        let out = optimize(&example_8_1(), &stats, &cfg());
        let plan = &out.terms[0].plan;
        // T1 : JOIN(BIND(Vehicle, v), SELECT(BIND(Company, c),
        //      c.name = 'BMW'), HASH_PARTITION, v.company = c.self)
        assert_eq!(plan.temps.len(), 1);
        let (name, t1) = &plan.temps[0];
        assert_eq!(name, "T1");
        let t1s = t1.to_string();
        assert!(t1s.contains("BIND(Vehicle, v)"), "{t1s}");
        assert!(
            t1s.contains("SELECT(BIND(Company, c), c.name = 'BMW')"),
            "{t1s}"
        );
        assert!(t1s.contains("HASH_PARTITION, v.company = c.self"), "{t1s}");
        // Final: JOIN(JOIN(T1, BIND(VehicleDriveTrain, d), FORWARD_TRAVERSAL,
        //   v.drivetrain = d.self), SELECT(BIND(VehicleEngine, e),
        //   e.cylinders = 2), FORWARD_TRAVERSAL, d.engine = e.self)
        let root = out.terms[0].plan.root.to_string();
        assert!(root.contains("T1"), "{root}");
        assert!(root.contains("BIND(VehicleDriveTrain, d)"), "{root}");
        assert!(
            root.contains("FORWARD_TRAVERSAL, v.drivetrain = d.self"),
            "{root}"
        );
        assert!(
            root.contains("SELECT(BIND(VehicleEngine, e), e.cylinders = 2)"),
            "{root}"
        );
        assert!(
            root.contains("FORWARD_TRAVERSAL, d.engine = e.self"),
            "{root}"
        );
        assert_eq!(
            out.terms[0].plan.root.join_methods(),
            vec![JoinMethod::ForwardTraversal, JoinMethod::ForwardTraversal]
        );
    }

    #[test]
    fn example_8_2_plan_shape_matches_paper() {
        let stats = DatabaseStats::paper_example();
        let out = optimize(&example_8_2(), &stats, &cfg());
        let plan = &out.terms[0].plan;
        assert!(plan.temps.is_empty(), "single path inlines its joins");
        let root = plan.root.to_string();
        // T1 = JOIN(BIND(VehicleDriveTrain, d), SELECT(BIND(VehicleEngine,
        // e), e.cylinders = 2), HASH_PARTITION, d.engine = e.self);
        // final = JOIN(BIND(Vehicle, v), T1, HASH_PARTITION,
        // v.drivetrain = d.self).
        assert!(root.contains("BIND(VehicleDriveTrain, d)"), "{root}");
        assert!(
            root.contains("SELECT(BIND(VehicleEngine, e), e.cylinders = 2)"),
            "{root}"
        );
        assert!(root.contains("HASH_PARTITION, d.engine = e.self"), "{root}");
        assert!(root.contains("BIND(Vehicle, v)"), "{root}");
        assert!(
            root.contains("HASH_PARTITION, v.drivetrain = d.self"),
            "{root}"
        );
        assert_eq!(
            plan.root.join_methods(),
            vec![JoinMethod::HashPartition, JoinMethod::HashPartition],
            "both joins hash-partition, as in the paper's final plan"
        );
        // The greedy merged (d, e) first: the (d ⋈ e) join is the *right*
        // child of the outer join.
        let crate::plan::Plan::Project { input, .. } = &out.root else {
            panic!()
        };
        let crate::plan::Plan::Join { left, right, .. } = &**input else {
            panic!()
        };
        assert!(matches!(&**left, crate::plan::Plan::Bind { class, .. } if class == "Vehicle"));
        assert!(matches!(&**right, crate::plan::Plan::Join { .. }));
    }

    #[test]
    fn immediate_selection_with_index_uses_indsel() {
        let mut stats = DatabaseStats::paper_example();
        // A near-unique attribute: 10 survivors out of 10000 — a few
        // random fetches clearly beat scanning 5000 pages.
        stats.set_attr(
            "VehicleEngine",
            "serial",
            mood_catalog::AttrStats {
                notnull: 1.0,
                dist: 1_000,
                max: Some(1_000.0),
                min: Some(1.0),
            },
        );
        stats.set_index(
            "VehicleEngine",
            "serial",
            mood_storage::BTreeStats {
                levels: 3,
                leaves: 500,
                keysize: 9,
                unique: false,
                entries: 10_000,
                order: 100,
            },
        );
        let mut q = QuerySpec::new("e", "VehicleEngine");
        q.terms = vec![vec![PredSpec::Immediate {
            attribute: "serial".into(),
            theta: Theta::Eq,
            constant: Const::Num(42.0),
        }]];
        let out = optimize(&q, &stats, &cfg());
        let row = &out.terms[0].imm_sel_info[0];
        assert!((row.selectivity - 1.0 / 1_000.0).abs() < 1e-9);
        assert!(row.indexed_cost.is_some());
        assert!(
            row.indexed_access,
            "selectivity 1e-3 over 5000 pages: index wins"
        );
        let root = out.terms[0].plan.root.to_string();
        assert!(root.contains("INDSEL(VehicleEngine, e"), "{root}");
        // And the unselective cylinders predicate on the same class would
        // NOT use an index even if one existed: the crossover the §8.1
        // inequality encodes (checked in the bench X2).
    }

    #[test]
    fn bounds_on_one_indexed_attribute_share_one_row_and_one_indsel() {
        let mut stats = DatabaseStats::paper_example();
        let serial = mood_catalog::AttrStats {
            notnull: 1.0,
            dist: 1_000,
            max: Some(1_000.0),
            min: Some(0.0),
        };
        stats.set_attr("VehicleEngine", "serial", serial);
        stats.set_index(
            "VehicleEngine",
            "serial",
            mood_storage::BTreeStats {
                levels: 3,
                leaves: 500,
                keysize: 9,
                unique: false,
                entries: 10_000,
                order: 100,
            },
        );
        let bound = |theta, c: f64| PredSpec::Immediate {
            attribute: "serial".into(),
            theta,
            constant: Const::Num(c),
        };
        let mut q = QuerySpec::new("e", "VehicleEngine");
        q.terms = vec![vec![
            bound(Theta::Ge, 100.0),
            PredSpec::Immediate {
                attribute: "cylinders".into(),
                theta: Theta::Eq,
                constant: Const::Num(4.0),
            },
            bound(Theta::Lt, 102.0),
        ]];
        let out = optimize(&q, &stats, &cfg());
        let rows = &out.terms[0].imm_sel_info;
        assert_eq!(rows.len(), 2, "the two bounds are one row: {rows:?}");
        assert_eq!(rows[0].predicate, "e.serial >= 100 AND e.serial < 102");
        // (1000 − 100)/1000 + 102/1000 − 1: each half alone keeps half the
        // extent or more and would scan.
        assert!((rows[0].selectivity - 0.002).abs() < 1e-9, "{rows:?}");
        assert!(rows[0].indexed_access && !rows[1].indexed_access);
        let root = out.terms[0].plan.root.to_string();
        let indsel = "INDSEL(VehicleEngine, e, BTREE, e.serial >= 100 AND e.serial < 102)";
        assert!(root.contains(indsel), "{root}");
        assert_eq!(root.matches("INDSEL(").count(), 1, "{root}");
        // The estimate prices the same interval, once.
        let est = crate::estimate_plan_set(&out.terms[0].plan, &stats, &cfg());
        let node = est.iter().find(|e| e.label.starts_with("INDSEL(")).unwrap();
        assert!((node.selectivity.unwrap() - 0.002).abs() < 1e-9, "{node:?}");
        // Under FROM EVERY no attribute index is offered: two rows, a scan.
        q.every = true;
        let out = optimize(&q, &stats, &cfg());
        assert_eq!(out.terms[0].imm_sel_info.len(), 3);
        assert!(!out.terms[0].plan.root.to_string().contains("INDSEL("));
    }

    #[test]
    fn unindexed_immediate_selection_scans() {
        let stats = DatabaseStats::paper_example();
        let mut q = QuerySpec::new("e", "VehicleEngine");
        q.terms = vec![vec![PredSpec::Immediate {
            attribute: "cylinders".into(),
            theta: Theta::Gt,
            constant: Const::Num(4.0),
        }]];
        let out = optimize(&q, &stats, &cfg());
        let row = &out.terms[0].imm_sel_info[0];
        assert!(row.indexed_cost.is_none());
        assert!(!row.indexed_access);
        let root = out.terms[0].plan.root.to_string();
        assert!(
            root.contains("SELECT(BIND(VehicleEngine, e), e.cylinders > 4)"),
            "{root}"
        );
    }

    #[test]
    fn multiple_terms_union() {
        let stats = DatabaseStats::paper_example();
        let mut q = QuerySpec::new("e", "VehicleEngine");
        q.terms = vec![
            vec![PredSpec::Immediate {
                attribute: "cylinders".into(),
                theta: Theta::Eq,
                constant: Const::Num(2.0),
            }],
            vec![PredSpec::Immediate {
                attribute: "cylinders".into(),
                theta: Theta::Eq,
                constant: Const::Num(8.0),
            }],
        ];
        let out = optimize(&q, &stats, &cfg());
        assert_eq!(out.terms.len(), 2);
        assert!(out.root.to_string().contains("UNION("));
    }

    #[test]
    fn other_predicates_applied_last() {
        let stats = DatabaseStats::paper_example();
        let mut q = QuerySpec::new("v", "Vehicle");
        q.terms = vec![vec![
            PredSpec::Other {
                text: "v.lbweight() > 3000".into(),
            },
            PredSpec::Path {
                path: vec!["company".into(), "name".into()],
                theta: Theta::Eq,
                constant: Const::Str("BMW".into()),
                terminal_var: None,
            },
        ]];
        let out = optimize(&q, &stats, &cfg());
        assert_eq!(out.terms[0].other_sel_info.len(), 1);
        let root = out.terms[0].plan.root.to_string();
        // The Other select wraps the join result (outermost of the term).
        assert!(root.trim_start().starts_with("SELECT("), "{root}");
        assert!(root.contains("v.lbweight() > 3000"), "{root}");
    }

    #[test]
    fn clause_order_follows_figure_7_1() {
        let stats = DatabaseStats::paper_example();
        let mut q = QuerySpec::new("e", "VehicleEngine");
        q.projection = vec!["e.size".into()];
        q.group_by = vec!["e.cylinders".into()];
        q.having = Some("count > 3".into());
        q.order_by = vec!["e.size".into()];
        q.terms = vec![vec![PredSpec::Immediate {
            attribute: "cylinders".into(),
            theta: Theta::Gt,
            constant: Const::Num(4.0),
        }]];
        let out = optimize(&q, &stats, &cfg());
        // SORT(PROJECT(PARTITION(SELECT(...)))) — FROM→WHERE→GROUP
        // BY/HAVING→projection→ORDER BY.
        let Plan::Sort { input, .. } = &out.root else {
            panic!("outermost is SORT")
        };
        let Plan::Project { input, .. } = &**input else {
            panic!("then PROJECT")
        };
        let Plan::Partition { having, .. } = &**input else {
            panic!("then PARTITION")
        };
        assert_eq!(having.as_deref(), Some("count > 3"));
    }

    #[test]
    fn short_var_follows_paper_convention() {
        assert_eq!(short_var("drivetrain", &[]), "d");
        assert_eq!(short_var("engine", &[]), "e");
        assert_eq!(short_var("company", &[]), "c");
        assert_eq!(short_var("company", &["c".into()]), "c2");
    }
}
