//! Binder: lower a parsed `SELECT` to the optimizer's [`QuerySpec`].
//!
//! The binder implements the predicate classification of Section 7:
//!
//! * `v.A θ c` with `A` atomic → *immediate selection*;
//! * `v.A1…Am θ c` through references → *path selection*;
//! * explicit joins `v.A1…An = w` (a path equated to another range
//!   variable, as in the Section 3.1 example query) are rewritten: `w`
//!   becomes the path's terminal variable and `w`'s own atomic predicates
//!   extend the path — turning the explicit join back into the implicit
//!   join the optimizer handles;
//! * everything else (method calls, arithmetic, cross-variable
//!   comparisons) → *other selection*, evaluated last.
//!
//! An other selection, or an explicit join's residual, is a [`Conjunct`]:
//! an index into [`Lowered::conjuncts`], the table of the statement's own
//! expressions that the executor evaluates it from.

use std::collections::HashMap;

use mood_catalog::Catalog;
use mood_datamodel::{BasicType, TypeDescriptor};
use mood_optimizer::{
    AttrPath, BoolExpr, Conjunct, Const, Negate, PredSpec, Pred, QuerySpec, MAX_DNF_TERMS,
};

use crate::ast::{CmpOp, Expr, FromItem, Lit, PathRef, SelectStmt, Statement};
use crate::error::{Result, SqlError};
use crate::exec::lit_value;

/// How a statement interacts with the transaction machinery — the
/// binder-level classification the session dispatches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtKind {
    /// `BEGIN` / `COMMIT` / `ROLLBACK` themselves.
    Txn,
    /// Schema-changing statements. These autocommit and are refused inside
    /// an explicit transaction: rolling back pages alone would leave the
    /// in-memory catalog disagreeing with them.
    Ddl,
    /// Object-mutating statements (`new`, `UPDATE`, `DELETE`) — the ones a
    /// transaction's atomicity is about.
    Dml,
    /// Pure reads (`SELECT`, `EXPLAIN`): no transaction machinery needed.
    Query,
}

/// Classify a parsed statement for transaction dispatch.
pub fn classify(stmt: &Statement) -> StmtKind {
    match stmt {
        Statement::Begin | Statement::Commit | Statement::Rollback => StmtKind::Txn,
        Statement::CreateClass(_)
        | Statement::DropClass(_)
        | Statement::CreateIndex { .. }
        | Statement::DefineMethod { .. }
        | Statement::DropMethod { .. }
        // CLUSTER rewrites physical storage and the catalog's extent map in
        // one unit: it rides the same autocommit + resync machinery as DDL
        // and is likewise refused inside explicit transactions.
        | Statement::Cluster { .. } => StmtKind::Ddl,
        Statement::NewObject { .. } | Statement::Delete { .. } | Statement::Update { .. } => {
            StmtKind::Dml
        }
        Statement::Select(_)
        | Statement::Explain(_)
        | Statement::ExplainAnalyze(_)
        | Statement::ShowMetrics(_)
        | Statement::ShowWaits
        | Statement::ShowStatements => StmtKind::Query,
    }
}

/// The lowering result.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The spec rooted at the first FROM item: the whole statement's when
    /// its paths absorb every other item.
    pub spec: QuerySpec,
    /// Range variables rewritten into paths: user var → the path prefix
    /// (from the root var) that reaches it.
    pub rewritten_vars: HashMap<String, Vec<String>>,
    /// A FROM list of several components, per AND-term of the WHERE
    /// clause: each component's part of it, in FROM order. Empty when the
    /// spec covers the FROM list.
    pub components: Vec<Vec<Component>>,
    /// The conjunct table: the expression each [`Conjunct`] of the spec and
    /// the components names, by its `id`.
    pub conjuncts: Vec<Expr>,
}

/// A component of one AND-term: a FROM item no earlier item's path
/// absorbs, with the items its own paths absorb. It is planned alone, and
/// every component after the first is combined with those before it.
#[derive(Debug, Clone)]
pub struct Component {
    /// The term's conjuncts over this component alone, rooted at its item.
    pub spec: QuerySpec,
    /// `x.a = y.b` over atomic attributes of the same kind, `x` in an
    /// earlier component and `y` in this one: the combination's hash key.
    pub on: Option<(AttrPath, AttrPath)>,
    /// The term's other conjuncts whose last component is this one: they
    /// filter the combination.
    pub filter: Vec<Pred>,
}

/// A negated conjunct of a FROM list of several components is `NOT` it as
/// written: De Morgan would change which connective meets a non-Boolean
/// operand, and so the error the statement raises.
impl Negate for Expr {
    fn negate(&self) -> Expr {
        Expr::Not(Box::new(self.clone()))
    }
}

/// Is this path's tail atomic / traversable, judged by the catalog?
fn classify_path(catalog: &Catalog, class: &str, segments: &[String]) -> PathShape {
    let mut cur = class.to_string();
    for (i, seg) in segments.iter().enumerate() {
        let Ok(attrs) = catalog.effective_attributes(&cur) else {
            return PathShape::Opaque;
        };
        let Some(attr) = attrs.iter().find(|a| a.name == *seg) else {
            return PathShape::Opaque;
        };
        let last = i + 1 == segments.len();
        match attr.ty.referenced_class() {
            Some(target) => {
                if last {
                    return PathShape::EndsAtReference;
                }
                cur = target.to_string();
            }
            None => {
                if last && attr.ty.is_atomic() {
                    return if segments.len() == 1 {
                        PathShape::Immediate
                    } else {
                        PathShape::PathToAtomic
                    };
                }
                return PathShape::Opaque;
            }
        }
    }
    PathShape::Opaque
}

#[derive(Debug, PartialEq, Eq)]
enum PathShape {
    /// Single atomic attribute of the root class.
    Immediate,
    /// Multi-hop path ending at an atomic attribute.
    PathToAtomic,
    /// Path ending at a reference attribute (joinable to a variable).
    EndsAtReference,
    /// Not resolvable through the catalog.
    Opaque,
}

/// The optimizer constant a comparison operand stands for, if it is one.
fn operand_const(e: &Expr) -> Option<Const> {
    Some(match e {
        Expr::Literal(Lit::Null) => return None,
        Expr::Literal(lit) => Const::Value(lit_value(lit)),
        Expr::Param(n) => Const::Param(*n),
        _ => return None,
    })
}

/// `e` as an opaque conjunct: appended to the conjunct `table`.
fn conjunct(table: &mut Vec<Expr>, e: &Expr) -> Conjunct {
    table.push(e.clone());
    Conjunct { id: table.len() - 1, negations: 0, text: e.render() }
}

/// Lower a SELECT into a [`QuerySpec`] rooted at its first FROM item, and
/// a FROM list its paths do not absorb into [`Component`]s.
pub fn lower(catalog: &Catalog, stmt: &SelectStmt) -> Result<Lowered> {
    let root = stmt.from.first();
    let root = root.ok_or_else(|| SqlError::Bind("SELECT requires at least one FROM item".into()))?;
    catalog.class(&root.class)?;

    // First pass over the (pre-DNF) expression: find rewritable explicit
    // joins `root-path = var`, collecting var → path prefix.
    let mut rewritten: HashMap<String, Vec<String>> = HashMap::new();
    if let Some(w) = &stmt.where_clause {
        let other = |var: &str| stmt.from[1..].iter().any(|f| f.var == var);
        collect_var_joins(catalog, w, root, &other, &mut rewritten);
    }

    // Validate variable and attribute references before lowering: every
    // clause's, so an unknown attribute is the same error wherever it is.
    let clauses = stmt.where_clause.iter().chain(&stmt.projection).chain(&stmt.having);
    for e in clauses {
        e.paths(&mut |p, receiver| validate_path(catalog, p, receiver, stmt))?;
    }
    for p in stmt.order_by.iter().map(|(p, _)| p).chain(&stmt.group_by) {
        validate_path(catalog, p, false, stmt)?;
    }

    // Build the Boolean tree of PredSpec leaves and expand it, unless its
    // DNF would be past the bound: then the clause as written is the one
    // term's one predicate, and every FROM item is a component of its own.
    let mut table = Vec::new();
    let tree = stmt.where_clause.as_ref().map(|w| {
        to_bool_expr(w, true, &mut |e| classify_leaf(catalog, e, root, &rewritten, &mut table))
    });
    let mut unexpanded = None;
    let terms: Vec<Vec<PredSpec>> = match (tree, &stmt.where_clause) {
        (Some(t), Some(w)) => match t.dnf_len() {
            n if n > MAX_DNF_TERMS => {
                unexpanded = Some(n);
                rewritten.clear();
                table.clear();
                vec![vec![PredSpec::Other(conjunct(&mut table, w))]]
            }
            _ => t.to_dnf(),
        },
        _ => vec![Vec::new()],
    };

    let mut spec = QuerySpec::new(&root.var, &root.class);
    spec.every = root.every;
    spec.minus = root.minus.clone();
    spec.terms = terms;
    spec.unexpanded = unexpanded;
    spec.projection = stmt.projection.iter().map(Expr::render).collect();
    spec.group_by = stmt.group_by.iter().map(PathRef::render).collect();
    spec.having = stmt.having.as_ref().map(Expr::render);
    spec.order_by = stmt.order_by.iter().map(|(p, _)| p.render()).collect();

    let components = match stmt.from[1..].iter().all(|f| rewritten.contains_key(&f.var)) {
        true => Vec::new(),
        false => split(catalog, stmt, &rewritten, unexpanded.is_some(), &mut table),
    };
    Ok(Lowered { spec, rewritten_vars: rewritten, components, conjuncts: table })
}

/// A FROM list of several components, per AND-term: each FROM item no
/// earlier item's path absorbs roots a component and absorbs what it can
/// of the items after it, as the first does. Each conjunct over one
/// component is classified against that component's root; the others are
/// the combination's, at the last component they read.
fn split(
    catalog: &Catalog,
    stmt: &SelectStmt,
    rewritten: &HashMap<String, Vec<String>>,
    unexpanded: bool,
    table: &mut Vec<Expr>,
) -> Vec<Vec<Component>> {
    let mut roots = vec![(&stmt.from[0], rewritten.clone())];
    for (i, item) in stmt.from.iter().enumerate().skip(1) {
        let taken = |var: &str| roots.iter().any(|(r, rw)| r.var == var || rw.contains_key(var));
        if taken(&item.var) {
            continue;
        }
        let mut rw = HashMap::new();
        if let (Some(w), false) = (&stmt.where_clause, unexpanded) {
            let later = |var: &str| stmt.from[i + 1..].iter().any(|f| f.var == var) && !taken(var);
            collect_var_joins(catalog, w, item, &later, &mut rw);
        }
        roots.push((item, rw));
    }
    let of = |var: &str| roots.iter().position(|(r, rw)| r.var == var || rw.contains_key(var));
    let terms = match &stmt.where_clause {
        Some(w) if unexpanded => vec![vec![w.clone()]],
        Some(w) => to_bool_expr(w, false, &mut |e| e.clone()).to_dnf(),
        None => vec![Vec::new()],
    };
    let term = |conjuncts: Vec<Expr>| {
        let mut parts: Vec<Component> = roots.iter().enumerate().map(|(c, (r, _))| {
            let mut spec = QuerySpec::new(&r.var, &r.class);
            spec.every = r.every;
            spec.minus = r.minus.clone();
            let other = stmt.from.iter().filter(|f| of(&f.var) != Some(c));
            spec.reserved = other.map(|f| f.var.clone()).collect();
            Component { spec, on: None, filter: Vec::new() }
        }).collect();
        for e in conjuncts {
            let mut read: Vec<usize> = Vec::new();
            let _ = e.paths(&mut |p, _| { read.extend(of(&p.var)); Ok::<_, ()>(()) });
            let (first, last) = (read.iter().min(), read.iter().max().copied().unwrap_or(0));
            if first.is_none_or(|&c| c == last) {
                let (r, rw) = &roots[last];
                parts[last].spec.terms[0].push(classify_leaf(catalog, &e, r, rw, table));
            } else if let (None, Some(on)) =
                (&parts[last].on, equi_key(catalog, stmt, &e, &of, last))
            {
                parts[last].on = Some(on);
            } else {
                parts[last].filter.push(Pred::Conjunct(conjunct(table, &e)));
            }
        }
        parts
    };
    terms.into_iter().map(term).collect()
}

/// `x.a = y.b`, written with `x` first, when `y` is in component `at`, `x`
/// in an earlier one, and `a` and `b` are atomic attributes whose values
/// `=` compares exactly — integers of either width, strings, characters or
/// Booleans — so a hash key decides what `=` would. A float never is: NaN
/// makes `=` raise.
fn equi_key(
    catalog: &Catalog,
    stmt: &SelectStmt,
    e: &Expr,
    of: &dyn Fn(&str) -> Option<usize>,
    at: usize,
) -> Option<(AttrPath, AttrPath)> {
    let Expr::Compare { op: CmpOp::Eq, left, right } = e else { return None };
    let (Expr::Path(l), Expr::Path(r)) = (&**left, &**right) else { return None };
    let kind = |p: &PathRef| {
        let [attr] = p.segments.as_slice() else { return None };
        let class = &stmt.from.iter().find(|f| f.var == p.var)?.class;
        match catalog.effective_attributes(class).ok()?.into_iter().find(|a| a.name == *attr)?.ty {
            TypeDescriptor::Basic(BasicType::Float) => None,
            TypeDescriptor::Basic(BasicType::LongInteger) => Some(BasicType::Integer),
            TypeDescriptor::Basic(b) => Some(b),
            _ => None,
        }
    };
    let (x, y) = match (of(&l.var)?, of(&r.var)?) {
        (cl, cr) if cl < at && cr == at => (l, r),
        (cl, cr) if cr < at && cl == at => (r, l),
        _ => return None,
    };
    let attr = |p: &PathRef| AttrPath { var: p.var.clone(), path: p.segments.clone() };
    (kind(x)? == kind(y)?).then(|| (attr(x), attr(y)))
}

/// Check that a path's range variable is in scope and, unless the path is
/// a method's receiver (which may be late-bound on a subclass), that its
/// first attribute exists on the variable's class (deeper segments are
/// checked at execution, where dynamic types are known).
fn validate_path(catalog: &Catalog, p: &PathRef, receiver: bool, stmt: &SelectStmt) -> Result<()> {
    let Some(item) = stmt.from.iter().find(|f| f.var == p.var) else {
        return Err(SqlError::Bind(format!("unknown range variable {}", p.var)));
    };
    if let (Some(first), false) = (p.segments.first(), receiver) {
        let attrs = catalog.effective_attributes(&item.class)?;
        if !attrs.iter().any(|a| &a.name == first) {
            return Err(SqlError::Bind(format!(
                "class {} has no attribute {first}",
                item.class
            )));
        }
    }
    Ok(())
}

/// Find `root-path = var` equalities, `var` one that `other` admits, that
/// every AND-term of the clause's DNF holds: under an OR, only a join all
/// its branches hold binds its variable in every term. (Only pure AND/OR
/// structure is searched, which MOODSQL's reference equality joins always
/// are.)
fn collect_var_joins(
    catalog: &Catalog,
    e: &Expr,
    root: &FromItem,
    other: &dyn Fn(&str) -> bool,
    out: &mut HashMap<String, Vec<String>>,
) {
    match e {
        Expr::And(parts) => {
            for p in parts {
                collect_var_joins(catalog, p, root, other, out);
            }
        }
        Expr::Or(parts) => {
            let mut branches = parts.iter().map(|p| {
                let mut joins = HashMap::new();
                collect_var_joins(catalog, p, root, other, &mut joins);
                joins
            });
            let first = branches.next().unwrap_or_default();
            let rest: Vec<_> = branches.collect();
            let everywhere = |(v, path): &(String, _)| rest.iter().all(|b| b.get(v) == Some(path));
            out.extend(first.into_iter().filter(everywhere));
        }
        Expr::Compare {
            op: CmpOp::Eq,
            left,
            right,
        } => {
            let (path, var) = match (&**left, &**right) {
                (Expr::Path(p), Expr::Path(v)) if v.segments.is_empty() => (p, v),
                (Expr::Path(v), Expr::Path(p)) if v.segments.is_empty() => (p, v),
                _ => return,
            };
            if path.var != root.var || !other(&var.var) {
                return;
            }
            if classify_path(catalog, &root.class, &path.segments) == PathShape::EndsAtReference {
                out.insert(var.var.clone(), path.segments.clone());
            }
        }
        _ => {}
    }
}

/// Convert the WHERE expression into a Boolean tree over `leaf`'s leaves;
/// a `NOT` is a connective of the tree when `not`, else a leaf.
fn to_bool_expr<L>(e: &Expr, not: bool, leaf: &mut impl FnMut(&Expr) -> L) -> BoolExpr<L> {
    let mut all = |parts: &[Expr]| parts.iter().map(|p| to_bool_expr(p, not, leaf)).collect();
    match e {
        Expr::And(parts) => BoolExpr::And(all(parts)),
        Expr::Or(parts) => BoolExpr::Or(all(parts)),
        Expr::Not(inner) if not => BoolExpr::Not(Box::new(to_bool_expr(inner, not, leaf))),
        Expr::Between { expr, lo, hi } => {
            // `x BETWEEN a AND b` ⇒ `x >= a AND x <= b`.
            let bound = |op, side: &Expr| Expr::Compare {
                op,
                left: expr.clone(),
                right: Box::new(side.clone()),
            };
            BoolExpr::And(vec![
                to_bool_expr(&bound(CmpOp::Ge, lo), not, leaf),
                to_bool_expr(&bound(CmpOp::Le, hi), not, leaf),
            ])
        }
        other => BoolExpr::Leaf(leaf(other)),
    }
}

fn classify_leaf(
    catalog: &Catalog,
    e: &Expr,
    root: &FromItem,
    rewritten: &HashMap<String, Vec<String>>,
    table: &mut Vec<Expr>,
) -> PredSpec {
    if let Expr::Compare { op, left, right } = e {
        // Normalize constant-on-the-left: `c θ path` ⇒ `path θ' c`.
        let (path_side, constant, op) = match (&**left, &**right) {
            (Expr::Path(p), c) => (Some(p), operand_const(c), *op),
            (c, Expr::Path(p)) => {
                let flipped = match op {
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                    other => *other,
                };
                (Some(p), operand_const(c), flipped)
            }
            _ => (None, None, *op),
        };
        if let (Some(p), Some(constant)) = (path_side, constant) {
            // Resolve the path to root-var coordinates.
            let (eff_var, mut segs) = if p.var == root.var {
                (root.var.clone(), p.segments.clone())
            } else if let Some(prefix) = rewritten.get(&p.var) {
                let mut s = prefix.clone();
                s.extend(p.segments.iter().cloned());
                (root.var.clone(), s)
            } else {
                (p.var.clone(), p.segments.clone())
            };
            if eff_var == root.var && !segs.is_empty() {
                match classify_path(catalog, &root.class, &segs) {
                    PathShape::Immediate => {
                        return PredSpec::Immediate {
                            attribute: segs.remove(0),
                            theta: op.to_theta(),
                            constant,
                        };
                    }
                    PathShape::PathToAtomic => {
                        // Preserve the user's variable name for the
                        // terminal class when the path came from an
                        // explicit join rewrite.
                        let terminal_var = rewritten
                            .iter()
                            .find(|(_, prefix)| {
                                segs.len() == prefix.len() + 1 && segs.starts_with(prefix)
                            })
                            .map(|(v, _)| v.clone());
                        return PredSpec::Path {
                            path: segs,
                            theta: op.to_theta(),
                            constant,
                            terminal_var,
                        };
                    }
                    _ => {}
                }
            }
        }
        // An explicit join `path = var` that was rewritten: absorbed into
        // the rewritten paths, it still holds as a predicate (as written);
        // the optimizer plans it as a join of its own when no path
        // predicate of the term binds `var`.
        let join = match (&**left, &**right) {
            (Expr::Path(p), Expr::Path(v)) | (Expr::Path(v), Expr::Path(p))
                if v.segments.is_empty() && p.var == root.var => Some((p, v)),
            _ => None,
        };
        if let Some((p, v)) = join {
            if rewritten.get(&v.var) == Some(&p.segments) && op == CmpOp::Eq {
                let (path, var) = (p.segments.clone(), v.var.clone());
                return PredSpec::Join { path, var, residual: conjunct(table, e) };
            }
        }
    }
    PredSpec::Other(conjunct(table, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use mood_catalog::ClassBuilder;
    use mood_datamodel::TypeDescriptor;
    use mood_storage::StorageManager;
    use std::sync::Arc;

    fn catalog() -> Arc<Catalog> {
        let sm = Arc::new(StorageManager::in_memory());
        let cat = Arc::new(Catalog::create(sm).unwrap());
        cat.define_class(
            ClassBuilder::class("VehicleEngine")
                .attribute("size", TypeDescriptor::integer())
                .attribute("cylinders", TypeDescriptor::integer()),
        )
        .unwrap();
        cat.define_class(
            ClassBuilder::class("VehicleDriveTrain")
                .attribute("engine", TypeDescriptor::reference("VehicleEngine"))
                .attribute("transmission", TypeDescriptor::string()),
        )
        .unwrap();
        cat.define_class(
            ClassBuilder::class("Company").attribute("name", TypeDescriptor::string()),
        )
        .unwrap();
        cat.define_class(
            ClassBuilder::class("Vehicle")
                .attribute("id", TypeDescriptor::integer())
                .attribute("weight", TypeDescriptor::integer())
                .attribute("drivetrain", TypeDescriptor::reference("VehicleDriveTrain"))
                .attribute("company", TypeDescriptor::reference("Company")),
        )
        .unwrap();
        cat.define_class(ClassBuilder::class("Automobile").inherits("Vehicle"))
            .unwrap();
        cat.define_class(ClassBuilder::class("JapaneseAuto").inherits("Automobile"))
            .unwrap();
        cat
    }

    fn lower_sql(cat: &Catalog, sql: &str) -> Lowered {
        let crate::ast::Statement::Select(s) = parse(sql).unwrap() else {
            panic!()
        };
        lower(cat, &s).unwrap()
    }

    #[test]
    fn immediate_and_path_classification() {
        let cat = catalog();
        let l = lower_sql(
            &cat,
            "SELECT v FROM Vehicle v WHERE v.weight > 1000 AND \
             v.drivetrain.engine.cylinders = 2",
        );
        let term = &l.spec.terms[0];
        assert_eq!(term.len(), 2);
        assert!(matches!(
            &term[0],
            PredSpec::Immediate { attribute, .. } if attribute == "weight"
        ));
        assert!(matches!(
            &term[1],
            PredSpec::Path { path, .. } if path == &vec!["drivetrain".to_string(), "engine".into(), "cylinders".into()]
        ));
    }

    #[test]
    fn section_3_1_query_rewrites_var_join() {
        let cat = catalog();
        let l = lower_sql(
            &cat,
            "SELECT c FROM EVERY Automobile - JapaneseAuto c, VehicleEngine v \
             WHERE c.drivetrain.transmission = 'AUTOMATIC' AND \
             c.drivetrain.engine = v AND v.cylinders > 4",
        );
        assert_eq!(l.spec.root_class, "Automobile");
        assert!(l.spec.every);
        assert_eq!(l.spec.minus, vec!["JapaneseAuto"]);
        // v was rewritten into the c.drivetrain.engine path.
        assert_eq!(
            l.rewritten_vars.get("v"),
            Some(&vec!["drivetrain".to_string(), "engine".to_string()])
        );
        assert!(l.components.is_empty());
        let term = &l.spec.terms[0];
        // transmission (path), the join marker (other), cylinders (path
        // with terminal_var preserved).
        let cyl = term
            .iter()
            .find_map(|p| match p {
                PredSpec::Path {
                    path, terminal_var, ..
                } if path.last().map(String::as_str) == Some("cylinders") => {
                    Some(terminal_var.clone())
                }
                _ => None,
            })
            .expect("cylinders became a path predicate");
        assert_eq!(cyl, Some("v".to_string()));
    }

    #[test]
    fn between_expands_to_two_predicates() {
        let cat = catalog();
        let l = lower_sql(
            &cat,
            "SELECT v FROM Vehicle v WHERE v.weight BETWEEN 500 AND 900",
        );
        let term = &l.spec.terms[0];
        assert_eq!(term.len(), 2);
        assert!(matches!(
            &term[0],
            PredSpec::Immediate {
                theta: mood_cost::Theta::Ge,
                ..
            }
        ));
        assert!(matches!(
            &term[1],
            PredSpec::Immediate {
                theta: mood_cost::Theta::Le,
                ..
            }
        ));
    }

    #[test]
    fn or_produces_multiple_terms() {
        let cat = catalog();
        let l = lower_sql(
            &cat,
            "SELECT v FROM Vehicle v WHERE v.weight = 1 OR v.weight = 2",
        );
        assert_eq!(l.spec.terms.len(), 2);
    }

    #[test]
    fn not_pushes_into_theta() {
        let cat = catalog();
        let l = lower_sql(&cat, "SELECT v FROM Vehicle v WHERE NOT v.weight = 5");
        assert!(matches!(
            &l.spec.terms[0][0],
            PredSpec::Immediate {
                theta: mood_cost::Theta::Ne,
                ..
            }
        ));
    }

    #[test]
    fn method_calls_become_other() {
        let cat = catalog();
        let l = lower_sql(&cat, "SELECT v FROM Vehicle v WHERE v.lbweight() > 2000");
        assert!(matches!(
            &l.spec.terms[0][0],
            PredSpec::Other(c) if c.text == "v.lbweight() > 2000"
        ));
    }

    #[test]
    fn constant_on_left_normalizes() {
        let cat = catalog();
        let l = lower_sql(&cat, "SELECT v FROM Vehicle v WHERE 1000 < v.weight");
        assert!(matches!(
            &l.spec.terms[0][0],
            PredSpec::Immediate {
                theta: mood_cost::Theta::Gt,
                ..
            }
        ));
    }

    #[test]
    fn parameters_classify_like_literals() {
        let cat = catalog();
        let l = lower_sql(
            &cat,
            "SELECT v FROM Vehicle v WHERE v.weight = $1 AND $2 = v.drivetrain.engine.cylinders",
        );
        let term = &l.spec.terms[0];
        assert!(matches!(
            &term[0],
            PredSpec::Immediate {
                constant: Const::Param(1),
                theta: mood_cost::Theta::Eq,
                ..
            }
        ));
        assert!(matches!(
            &term[1],
            PredSpec::Path {
                constant: Const::Param(2),
                theta: mood_cost::Theta::Eq,
                ..
            }
        ));
    }

    #[test]
    fn from_items_no_path_absorbs_become_components() {
        let cat = catalog();
        let l = lower_sql(
            &cat,
            "SELECT v FROM Vehicle v, Company c, VehicleDriveTrain d, VehicleEngine e \
             WHERE v.weight > 0 AND d.engine = e AND e.size = v.id AND c.name = 'BMW'",
        );
        let [term] = l.components.as_slice() else { panic!("one AND-term") };
        let roots: Vec<&str> = term.iter().map(|c| c.spec.root_var.as_str()).collect();
        // `e` is absorbed by `d`'s path, as the first item absorbs by its own.
        assert_eq!(roots, ["v", "c", "d"]);
        assert_eq!(term[0].spec.terms[0].len(), 1);
        let name = &term[1].spec.terms[0][0];
        assert!(matches!(name, PredSpec::Immediate { attribute, .. } if attribute == "name"));
        assert_eq!(term[1].spec.reserved, ["v", "d", "e"]);
        // `e.size = v.id` reads `d`'s component and `v`'s: the hash key.
        let on = term[2].on.as_ref().map(|(x, y)| format!("{x} = {y}"));
        assert_eq!(on.as_deref(), Some("v.id = e.size"));
        assert!(term.iter().all(|c| c.filter.is_empty()));
    }
}
