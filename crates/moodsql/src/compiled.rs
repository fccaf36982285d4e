//! Bridge from MOODSQL AST expressions to the Function Manager's compiled
//! register programs.
//!
//! The paper compiles method bodies once at definition time (Section 2);
//! this module applies the same discipline to the query hot path. A WHERE
//! predicate or projection column that references exactly one range
//! variable is lowered into a [`Program`] (Sql mode, so semantics — Null
//! propagation, n-ary And/Or folds, schema-evolution Nulls, error texts —
//! are byte-identical to `Executor::eval_expr`). Anything the bridge cannot
//! express (method calls, aggregates, multi-variable predicates, bare
//! range variables) returns `None` and the executor falls back to the
//! interpreter, so compilation is a pure fast path, never a behavior
//! change.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;

use mood_catalog::Catalog;
use mood_datamodel::{BasicType, Resolver, TypeDescriptor, Value};
use mood_storage::Oid;
use mood_funcman::expr::{BinOp, UnOp};
use mood_funcman::{
    compile_program, CompileOpts, CompiledPredicate, EvalCtx, Exception, ExceptionKind, Expr as FExpr,
    Program, Registers, StaticKind,
};

use crate::ast::{CmpOp, Expr, Lit};
use crate::error::{Result, SqlError};
use crate::exec::Row;

/// Dereference through the catalog during compiled path traversal — the
/// same lookups `Executor::eval_path` performs via `catalog.get_object`.
pub(crate) struct CatalogResolver<'a> {
    pub catalog: &'a Catalog,
}

impl Resolver for CatalogResolver<'_> {
    fn resolve(&self, oid: Oid) -> Option<Value> {
        self.catalog.get_object(oid).ok().map(|(_, v)| v)
    }
}

/// A [`CatalogResolver`] with a per-batch memo: path predicates over a
/// batch of rows often dereference the same shared sub-objects, so each
/// distinct OID hits the catalog once per batch instead of once per row.
pub(crate) struct CachingResolver<'a> {
    catalog: &'a Catalog,
    cache: RefCell<HashMap<Oid, Option<Value>>>,
}

impl<'a> CachingResolver<'a> {
    pub fn new(catalog: &'a Catalog) -> CachingResolver<'a> {
        CachingResolver {
            catalog,
            cache: RefCell::new(HashMap::new()),
        }
    }
}

impl Resolver for CachingResolver<'_> {
    fn resolve(&self, oid: Oid) -> Option<Value> {
        self.cache
            .borrow_mut()
            .entry(oid)
            .or_insert_with(|| self.catalog.get_object(oid).ok().map(|(_, v)| v))
            .clone()
    }
}

/// Map a program exception back onto the interpreter's error surface:
/// `Query` carries `eval_expr`'s own message text verbatim (re-wrapped as
/// an execution error), everything else surfaces as a method exception —
/// exactly what `?` on a funcman call produces in the interpreted path.
pub(crate) fn sql_err(e: Exception) -> SqlError {
    if e.kind == ExceptionKind::Query {
        SqlError::Exec(e.message)
    } else {
        SqlError::Exception(e)
    }
}

/// What an expression is evaluated against: one scanned object bound to a
/// single range variable (a scan batch hands these out without building a
/// [`Row`]), or a full binding row. Compiled programs run on either; the
/// interpreter needs the `Row`.
#[derive(Clone, Copy)]
pub(crate) enum RowView<'r> {
    Object { var: &'r str, value: &'r Value },
    Row(&'r Row),
}

impl<'r> RowView<'r> {
    /// The value bound to `var`.
    fn bound(self, var: &str) -> Result<&'r Value> {
        match self {
            RowView::Object { var: v, value } if v == var => Some(value),
            RowView::Object { .. } => None,
            RowView::Row(row) => row.get(var).map(|b| &*b.value),
        }
        .ok_or_else(|| SqlError::Exec(format!("unbound range variable {var}")))
    }
}

fn eval_ctx<'c>(value: &'c Value, resolver: &'c dyn Resolver) -> EvalCtx<'c> {
    EvalCtx {
        self_value: value,
        args: &[],
        resolver: Some(resolver),
        dispatcher: None,
    }
}

/// A compiled predicate bound to the range variable it reads.
pub(crate) struct RowPred {
    pub var: String,
    pred: CompiledPredicate,
}

impl RowPred {
    /// Evaluate against a view; Null filters out, per SQL. The caller
    /// supplies the resolver so a batch can share one deref cache.
    pub fn matches(
        &self,
        resolver: &dyn Resolver,
        view: RowView<'_>,
        regs: &mut Registers<'_>,
    ) -> Result<bool> {
        let ctx = eval_ctx(view.bound(&self.var)?, resolver);
        self.pred.matches(regs, &ctx).map_err(sql_err)
    }
}

/// A compiled value expression (projection column, sort or group key,
/// aggregate argument) bound to its range variable.
pub(crate) struct RowProg {
    pub var: String,
    prog: Program,
}

impl RowProg {
    pub fn eval(
        &self,
        resolver: &dyn Resolver,
        view: RowView<'_>,
        regs: &mut Registers<'_>,
    ) -> Result<Value> {
        let ctx = eval_ctx(view.bound(&self.var)?, resolver);
        self.prog.run(regs, &ctx).map_err(sql_err)
    }
}

/// A plan predicate prepared once at plan time: parsed from the plan's
/// predicate text, plus a lazily-filled compiled form. The slot stays
/// empty until the plan's second execution (see
/// [`crate::exec::PreparedQuery`]), so one-shot ad-hoc statements never
/// pay compilation; once filled it is never recomputed.
pub(crate) struct PreparedPred {
    pub expr: Expr,
    slot: OnceLock<Option<RowPred>>,
}

impl PreparedPred {
    pub fn new(expr: Expr) -> PreparedPred {
        PreparedPred {
            expr,
            slot: OnceLock::new(),
        }
    }

    /// The compiled form, if compilation has run and the bridge covered
    /// the expression.
    pub fn compiled(&self) -> Option<&RowPred> {
        self.slot.get().and_then(|c| c.as_ref())
    }

    /// Compile into the slot (idempotent). `params` are the values bound
    /// for the execution that triggers compilation; only their type
    /// classes are read, and those are fixed per shape.
    pub fn compile(
        &self,
        catalog: &Catalog,
        var_class: &HashMap<String, String>,
        params: &[Value],
    ) {
        self.slot
            .get_or_init(|| compile_pred(catalog, var_class, &self.expr, params));
    }
}

/// Compile a WHERE expression into a [`RowPred`], or `None` if any part
/// falls outside the compilable subset.
pub(crate) fn compile_pred(
    catalog: &Catalog,
    var_class: &HashMap<String, String>,
    expr: &Expr,
    params: &[Value],
) -> Option<RowPred> {
    let (var, program) = compile_expr(catalog, var_class, expr, params)?;
    Some(RowPred {
        var,
        pred: CompiledPredicate::new(program),
    })
}

/// Compile a projection column into a [`RowProg`], or `None`.
pub(crate) fn compile_proj(
    catalog: &Catalog,
    var_class: &HashMap<String, String>,
    expr: &Expr,
    params: &[Value],
) -> Option<RowProg> {
    let (var, prog) = compile_expr(catalog, var_class, expr, params)?;
    Some(RowProg { var, prog })
}

fn compile_expr(
    catalog: &Catalog,
    var_class: &HashMap<String, String>,
    expr: &Expr,
    params: &[Value],
) -> Option<(String, Program)> {
    let var = find_var(expr)?.to_string();
    let class = var_class.get(&var)?.clone();
    let lowered = bridge(expr, &var, params)?;
    let attr_kind = |segs: &[String]| static_kind_for(catalog, &class, segs);
    let root_slot = |attr: &str| root_slot_for(catalog, &class, attr);
    let opts = CompileOpts::sql(&var)
        .with_attr_kind(&attr_kind)
        .with_root_slot(&root_slot);
    let program = compile_program(&lowered, &opts).ok()?;
    Some((var, program))
}

/// The first range variable an expression reads. The bridge then verifies
/// every other path reads the same one.
fn find_var(e: &Expr) -> Option<&str> {
    match e {
        Expr::Path(p) => Some(&p.var),
        Expr::Literal(_) | Expr::Param(_) | Expr::Agg { .. } | Expr::MethodCall { .. } => None,
        Expr::Compare { left, right, .. } | Expr::Arith { left, right, .. } => {
            find_var(left).or_else(|| find_var(right))
        }
        Expr::Between { expr, lo, hi } => find_var(expr)
            .or_else(|| find_var(lo))
            .or_else(|| find_var(hi)),
        Expr::And(parts) | Expr::Or(parts) => parts.iter().find_map(find_var),
        Expr::Not(inner) => find_var(inner),
    }
}

/// Lower an AST expression to a funcman [`FExpr`] rooted at `self`. `None`
/// marks the expression as uncompilable (interpreter fallback).
fn bridge(e: &Expr, var: &str, params: &[Value]) -> Option<FExpr> {
    let lower = |e: &Expr| bridge(e, var, params);
    match e {
        Expr::Path(p) => {
            // A bare range variable evaluates to the bound object's Ref,
            // which a program running against the tuple value cannot see.
            if p.var != var || p.segments.is_empty() {
                return None;
            }
            let mut segs = Vec::with_capacity(p.segments.len() + 1);
            segs.push("self".to_string());
            segs.extend(p.segments.iter().cloned());
            Some(FExpr::Path(segs))
        }
        Expr::Literal(l) => Some(match l {
            Lit::Int(i) => FExpr::int(*i),
            Lit::Float(x) => FExpr::Lit(Value::Float(*x)),
            Lit::Str(s) => FExpr::Lit(Value::String(s.clone())),
            Lit::Bool(b) => FExpr::Lit(Value::Boolean(*b)),
            Lit::Null => FExpr::Lit(Value::Null),
        }),
        // The program reads the value from the slice bound at execution;
        // the value bound now only supplies its (shape-fixed) type class.
        // An unbound parameter stays interpreted, where it is an error.
        Expr::Param(n) => {
            let i = n.checked_sub(1)?;
            let kind = StaticKind::of_value(params.get(i as usize)?);
            Some(FExpr::Param(i, kind))
        }
        Expr::Compare { op, left, right } => {
            let l = lower(left)?;
            let r = lower(right)?;
            let op = match op {
                CmpOp::Eq => BinOp::Eq,
                CmpOp::Ne => BinOp::Ne,
                CmpOp::Lt => BinOp::Lt,
                CmpOp::Le => BinOp::Le,
                CmpOp::Gt => BinOp::Gt,
                CmpOp::Ge => BinOp::Ge,
            };
            Some(FExpr::Binary(op, Box::new(l), Box::new(r)))
        }
        Expr::Between { expr, lo, hi } => Some(FExpr::Between(
            Box::new(lower(expr)?),
            Box::new(lower(lo)?),
            Box::new(lower(hi)?),
        )),
        // Left-deep chains of the same operator: the compiler re-flattens
        // them into the interpreter's n-ary fold, preserving evaluation
        // order and Null bookkeeping.
        Expr::And(parts) => nary(parts, var, params, BinOp::And),
        Expr::Or(parts) => nary(parts, var, params, BinOp::Or),
        Expr::Not(inner) => Some(FExpr::Unary(UnOp::Not, Box::new(lower(inner)?))),
        Expr::Arith { op, left, right } => {
            let l = lower(left)?;
            let r = lower(right)?;
            let op = match op {
                '+' => BinOp::Add,
                '-' => BinOp::Sub,
                '*' => BinOp::Mul,
                '/' => BinOp::Div,
                '%' => BinOp::Rem,
                _ => return None,
            };
            Some(FExpr::Binary(op, Box::new(l), Box::new(r)))
        }
        // Late-bound dispatch and grouped evaluation stay interpreted.
        Expr::MethodCall { .. } | Expr::Agg { .. } => None,
    }
}

fn nary(parts: &[Expr], var: &str, params: &[Value], op: BinOp) -> Option<FExpr> {
    let mut iter = parts.iter();
    let mut acc = bridge(iter.next()?, var, params)?;
    for p in iter {
        acc = FExpr::Binary(op, Box::new(acc), Box::new(bridge(p, var, params)?));
    }
    Some(acc)
}

/// Static type class of a path's tail, walked through the schema. Any
/// uncertainty (unknown class, reference-valued tail, collection) reports
/// `Unknown`, which never rejects a comparison at compile time.
fn static_kind_for(catalog: &Catalog, class: &str, segs: &[String]) -> StaticKind {
    let mut cur = class.to_string();
    for (i, seg) in segs.iter().enumerate() {
        let Ok(attrs) = catalog.effective_attributes(&cur) else {
            return StaticKind::Unknown;
        };
        let Some(attr) = attrs.iter().find(|a| a.name == *seg) else {
            return StaticKind::Unknown;
        };
        if i + 1 == segs.len() {
            return match &attr.ty {
                TypeDescriptor::Basic(b) => match b {
                    BasicType::Integer | BasicType::LongInteger | BasicType::Float => {
                        StaticKind::Num
                    }
                    BasicType::String | BasicType::Char => StaticKind::Str,
                    BasicType::Boolean => StaticKind::Bool,
                },
                _ => StaticKind::Unknown,
            };
        }
        match attr.ty.referenced_class() {
            Some(target) => cur = target.to_string(),
            None => return StaticKind::Unknown,
        }
    }
    StaticKind::Unknown
}

/// Slot offset of a root attribute in the class's effective attribute
/// order — the order `NewObject` stores tuple fields in. The program
/// verifies the name at the slot, so a mismatch only costs a scan.
fn root_slot_for(catalog: &Catalog, class: &str, attr: &str) -> Option<u16> {
    let attrs = catalog.effective_attributes(class).ok()?;
    let idx = attrs.iter().position(|a| a.name == attr)?;
    u16::try_from(idx).ok()
}
