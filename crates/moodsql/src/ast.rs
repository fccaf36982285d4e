//! MOODSQL abstract syntax.

use mood_datamodel::{TypeDescriptor, Value};

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    /// `EXPLAIN SELECT …` — optimize only, return the plan text.
    Explain(SelectStmt),
    /// `EXPLAIN ANALYZE SELECT …` — execute with per-operator
    /// instrumentation, return the estimate-vs-actual report.
    ExplainAnalyze(SelectStmt),
    /// `SHOW METRICS [FORMAT 'json' | 'prom']` — dump the engine-wide
    /// metrics registry, as rows or as a machine-readable export.
    ShowMetrics(ShowFormat),
    /// `SHOW WAITS` — wait-event rows: where blocked wall-clock went.
    ShowWaits,
    /// `SHOW STATEMENTS` — per-statement aggregated stats (calls, latency
    /// quantiles, rows, pages, cache hits), keyed by statement shape.
    ShowStatements,
    CreateClass(CreateClass),
    DropClass(String),
    /// `new Employee <'Budak Arpinar', 'Computer Engineer', 1969>` —
    /// positional values in attribute order (the MoodView protocol of
    /// Section 9.4).
    NewObject {
        class: String,
        values: Vec<Lit>,
    },
    CreateIndex {
        class: String,
        attribute: String,
        unique: bool,
    },
    /// `DEFINE METHOD Class::name(p Type, …) RETURNS Type AS '…body…'`.
    DefineMethod {
        class: String,
        name: String,
        params: Vec<(String, TypeDescriptor)>,
        returns: TypeDescriptor,
        body: String,
    },
    DropMethod {
        class: String,
        name: String,
    },
    /// `DELETE FROM Class v [WHERE …]`.
    Delete {
        class: String,
        var: String,
        where_clause: Option<Expr>,
    },
    /// `UPDATE Class v SET a = expr, … [WHERE …]`.
    Update {
        class: String,
        var: String,
        assignments: Vec<(String, Expr)>,
        where_clause: Option<Expr>,
    },
    /// `CLUSTER Class [BY attr]` — rewrite the class's heap extent in
    /// referencing-traversal order of the given reference attribute
    /// (default: the one with the lowest measured clustering factor, else
    /// the first reference attribute), updating the OID map and every
    /// index atomically.
    Cluster {
        class: String,
        attr: Option<String>,
    },
    /// `BEGIN [TRANSACTION]` — open an explicit transaction; statements
    /// until COMMIT/ROLLBACK share one atomic unit.
    Begin,
    /// `COMMIT` — make the open transaction's effects durable.
    Commit,
    /// `ROLLBACK` — undo the open transaction's effects.
    Rollback,
}

/// Output shape for `SHOW METRICS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShowFormat {
    /// `(metric, value)` rows — the default tabular form.
    #[default]
    Table,
    /// One JSON object (`EngineMetrics::to_json`).
    Json,
    /// Prometheus text exposition format (`EngineMetrics::to_prometheus`).
    Prometheus,
}

/// `CREATE CLASS` definition (Section 3.1's DDL).
#[derive(Debug, Clone, PartialEq)]
pub struct CreateClass {
    pub name: String,
    pub attributes: Vec<(String, TypeDescriptor)>,
    pub methods: Vec<MethodDecl>,
    pub inherits: Vec<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl {
    pub name: String,
    pub params: Vec<(String, TypeDescriptor)>,
    pub returns: TypeDescriptor,
}

/// `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub distinct: bool,
    pub projection: Vec<Expr>,
    pub from: Vec<FromItem>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<PathRef>,
    pub having: Option<Expr>,
    pub order_by: Vec<(PathRef, bool)>, // (path, ascending)
}

impl SelectStmt {
    /// The highest parameter number the statement mentions (0 = none).
    pub fn max_param(&self) -> u16 {
        self.projection
            .iter()
            .chain(&self.where_clause)
            .chain(&self.having)
            .map(Expr::max_param)
            .max()
            .unwrap_or(0)
    }

    /// The target-selection query of `UPDATE/DELETE <class> <var> WHERE p`:
    /// `SELECT var FROM class var WHERE p`. DML finds its rows by running
    /// this through the ordinary SELECT pipeline.
    pub fn dml_target(class: &str, var: &str, where_clause: Option<Expr>) -> SelectStmt {
        SelectStmt {
            distinct: false,
            projection: vec![Expr::Path(PathRef {
                var: var.to_string(),
                segments: Vec::new(),
            })],
            from: vec![FromItem {
                class: class.to_string(),
                every: false,
                minus: Vec::new(),
                var: var.to_string(),
            }],
            where_clause,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
        }
    }
}

/// One FROM-clause item: `[EVERY] Class [- Sub - Sub2] var`.
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    pub class: String,
    pub every: bool,
    pub minus: Vec<String>,
    pub var: String,
}

/// `var.seg1.seg2…` — a path rooted at a range variable.
#[derive(Debug, Clone, PartialEq)]
pub struct PathRef {
    pub var: String,
    pub segments: Vec<String>,
}

impl PathRef {
    pub fn render(&self) -> String {
        if self.segments.is_empty() {
            self.var.clone()
        } else {
            format!("{}.{}", self.var, self.segments.join("."))
        }
    }
}

/// Aggregate functions (GROUP BY support).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn parse(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// Literals.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Null,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Does `left op right` hold, given how the operands compare?
    pub fn holds(self, ord: std::cmp::Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }

    pub fn of_theta(theta: mood_cost::Theta) -> CmpOp {
        match theta {
            mood_cost::Theta::Eq => CmpOp::Eq,
            mood_cost::Theta::Ne => CmpOp::Ne,
            mood_cost::Theta::Lt => CmpOp::Lt,
            mood_cost::Theta::Le => CmpOp::Le,
            mood_cost::Theta::Gt => CmpOp::Gt,
            mood_cost::Theta::Ge => CmpOp::Ge,
        }
    }

    pub fn to_theta(self) -> mood_cost::Theta {
        match self {
            CmpOp::Eq => mood_cost::Theta::Eq,
            CmpOp::Ne => mood_cost::Theta::Ne,
            CmpOp::Lt => mood_cost::Theta::Lt,
            CmpOp::Le => mood_cost::Theta::Le,
            CmpOp::Gt => mood_cost::Theta::Gt,
            CmpOp::Ge => mood_cost::Theta::Ge,
        }
    }
}

/// Expressions (projections, predicates, arguments).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Path(PathRef),
    /// `base.method(args…)` — `base` may be just a variable.
    MethodCall {
        base: PathRef,
        method: String,
        args: Vec<Expr>,
    },
    Agg {
        func: AggFunc,
        arg: Option<Box<Expr>>,
    },
    Literal(Lit),
    /// `$n` — the n-th (1-based) value of the parameter vector bound at
    /// execution. The session's shape scanner puts one wherever the
    /// statement text had a literal operand of `=`, so one plan serves
    /// every such value.
    Param(u16),
    Compare {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Between {
        expr: Box<Expr>,
        lo: Box<Expr>,
        hi: Box<Expr>,
    },
    And(Vec<Expr>),
    Or(Vec<Expr>),
    Not(Box<Expr>),
    Arith {
        op: char,
        left: Box<Expr>,
        right: Box<Expr>,
    },
}

impl Expr {
    /// Render back to (canonical) MOODSQL text — for display only: result
    /// column labels, and the text an opaque plan conjunct shows. Nothing
    /// parses it back. Parameters render as `$n`.
    pub fn render(&self) -> String {
        self.render_with(&[])
    }

    /// [`Expr::render`] with each parameter that `params` binds written as
    /// the literal it stands for — result column labels read the same
    /// whether or not the statement ran off a shape plan.
    pub fn render_with(&self, params: &[Value]) -> String {
        let r = |e: &Expr| e.render_with(params);
        match self {
            Expr::Path(p) => p.render(),
            Expr::MethodCall { base, method, args } => {
                let args: Vec<String> = args.iter().map(r).collect();
                format!("{}.{method}({})", base.render(), args.join(", "))
            }
            Expr::Agg { func, arg } => match arg {
                Some(a) => format!("{}({})", func.name(), r(a)),
                None => format!("{}(*)", func.name()),
            },
            Expr::Literal(Lit::Int(i)) => i.to_string(),
            // A float keeps a decimal point or an exponent: `2.0`, `1e20`.
            Expr::Literal(Lit::Float(x)) => format!("{x:?}"),
            Expr::Literal(Lit::Str(s)) => quote_str(s),
            Expr::Literal(Lit::Bool(b)) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Expr::Literal(Lit::Null) => "NULL".to_string(),
            Expr::Param(n) => match (*n as usize).checked_sub(1).and_then(|i| params.get(i)) {
                Some(Value::Integer(i)) => i.to_string(),
                Some(Value::LongInteger(i)) => i.to_string(),
                Some(Value::Float(x)) => format!("{x:?}"),
                Some(Value::String(s)) => quote_str(s),
                _ => format!("${n}"),
            },
            Expr::Compare { op, left, right } => {
                format!("{} {} {}", r(left), op.symbol(), r(right))
            }
            Expr::Between { expr, lo, hi } => {
                format!("{} BETWEEN {} AND {}", r(expr), r(lo), r(hi))
            }
            Expr::And(parts) => {
                let ps: Vec<String> = parts.iter().map(r).collect();
                ps.join(" AND ")
            }
            Expr::Or(parts) => {
                let ps: Vec<String> = parts.iter().map(r).collect();
                format!("({})", ps.join(" OR "))
            }
            Expr::Not(inner) => format!("NOT ({})", r(inner)),
            Expr::Arith { op, left, right } => {
                // Nested arithmetic keeps its grouping.
                let side = |e: &Expr| match e {
                    Expr::Arith { .. } => format!("({})", r(e)),
                    _ => r(e),
                };
                format!("{} {op} {}", side(left), side(right))
            }
        }
    }

    /// Hand `f` every path the expression reads, in order, each with
    /// whether it is a method's receiver; the first error ends the walk.
    pub fn paths<E>(
        &self,
        f: &mut impl FnMut(&PathRef, bool) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        match self {
            Expr::Path(p) => f(p, false),
            Expr::MethodCall { base, args, .. } => {
                f(base, true)?;
                args.iter().try_for_each(|a| a.paths(f))
            }
            Expr::Agg { arg, .. } => arg.iter().try_for_each(|a| a.paths(f)),
            Expr::Literal(_) | Expr::Param(_) => Ok(()),
            Expr::Compare { left, right, .. } | Expr::Arith { left, right, .. } => {
                left.paths(f)?;
                right.paths(f)
            }
            Expr::Between { expr, lo, hi } => [expr, lo, hi].iter().try_for_each(|e| e.paths(f)),
            Expr::And(parts) | Expr::Or(parts) => parts.iter().try_for_each(|p| p.paths(f)),
            Expr::Not(inner) => inner.paths(f),
        }
    }

    /// The highest parameter number the expression mentions (0 = none).
    pub fn max_param(&self) -> u16 {
        let of = |es: &[Expr]| es.iter().map(Expr::max_param).max().unwrap_or(0);
        match self {
            Expr::Param(n) => *n,
            Expr::Path(_) | Expr::Literal(_) | Expr::Agg { arg: None, .. } => 0,
            Expr::MethodCall { args, .. } => of(args),
            Expr::Agg { arg: Some(a), .. } => a.max_param(),
            Expr::Compare { left, right, .. } | Expr::Arith { left, right, .. } => {
                left.max_param().max(right.max_param())
            }
            Expr::Between { expr, lo, hi } => {
                expr.max_param().max(lo.max_param()).max(hi.max_param())
            }
            Expr::And(parts) | Expr::Or(parts) => of(parts),
            Expr::Not(inner) => inner.max_param(),
        }
    }
}

fn quote_str(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_render() {
        let p = PathRef {
            var: "v".into(),
            segments: vec!["drivetrain".into(), "engine".into()],
        };
        assert_eq!(p.render(), "v.drivetrain.engine");
        let bare = PathRef {
            var: "v".into(),
            segments: vec![],
        };
        assert_eq!(bare.render(), "v");
    }

    #[test]
    fn expr_render_roundtrips_shapes() {
        let e = Expr::Compare {
            op: CmpOp::Eq,
            left: Box::new(Expr::Path(PathRef {
                var: "c".into(),
                segments: vec!["name".into()],
            })),
            right: Box::new(Expr::Literal(Lit::Str("BMW".into()))),
        };
        assert_eq!(e.render(), "c.name = 'BMW'");
        let agg = Expr::Agg {
            func: AggFunc::Count,
            arg: None,
        };
        assert_eq!(agg.render(), "COUNT(*)");
    }

    #[test]
    fn agg_parse() {
        assert_eq!(AggFunc::parse("count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::parse("AVG"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::parse("median"), None);
    }
}
