//! MOODSQL expressions as the Function Manager's register programs — the
//! only way a statement evaluates one.
//!
//! The paper compiles method bodies once at definition time (Section 2);
//! the SQL layer holds its expressions to the same rule. Every expression
//! the driver evaluates per object — a plan predicate, a join's right-side
//! filter, a projection column, a sort or group key, an aggregate's
//! argument, the right-hand side of `UPDATE … SET` — is a
//! [`PreparedExpr`]: the AST, and the Sql-mode [`Program`] it is lowered to
//! the first time it is evaluated (a plan whose predicate never meets a row
//! never compiles it). The program is compiled over the range variables the
//! expression reads, one argument slot each: an attribute path starts from
//! the slot's value, the variable alone is the slot's reference, a method
//! on it dispatches on the bound object without fetching it again. A view
//! that does not bind a variable leaves its slot unbound, which is an error
//! for whatever reads it.
//!
//! There is no fallback: what the compiler cannot lower (an expression past
//! its `u16` limits) is the statement's error.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

use mood_catalog::{Catalog, CatalogError};
use mood_datamodel::{Resolver, Value};
use mood_funcman::expr::{BinOp, UnOp};
use mood_funcman::{
    compile_program, Arg, CompileOpts, EvalCtx, Exception, ExceptionKind, Expr as FExpr, Program,
    Receiver, Registers,
};
use mood_storage::{Metric, Oid, StorageError};

use crate::ast::{CmpOp, Expr, PathRef};
use crate::error::{Result, SqlError};
use crate::exec::{lit_value, Executor, Row};

/// Dereferences through the catalog for a batch of evaluations, each
/// distinct OID fetched once: path expressions over a batch often reach
/// the same shared sub-objects.
///
/// A reference to nothing resolves to `None` — the program then raises its
/// dangling-reference exception. Any other storage failure (an I/O error, a
/// checksum mismatch, a deadlock-victim abort) also resolves to `None`, but
/// is kept: it, not the program's exception, is the statement's error (the
/// rule of `Executor::fetch_live`).
struct CachingResolver<'a> {
    catalog: &'a Catalog,
    cache: RefCell<HashMap<Oid, Option<Value>>>,
    fault: RefCell<Option<CatalogError>>,
}

impl Resolver for CachingResolver<'_> {
    fn resolve(&self, oid: Oid) -> Option<Value> {
        let fetch = || match self.catalog.get_object(oid) {
            Ok((_, value)) => Some(value),
            Err(CatalogError::Storage(StorageError::DanglingOid(_))) => None,
            Err(e) => {
                self.fault.borrow_mut().get_or_insert(e);
                None
            }
        };
        self.cache
            .borrow_mut()
            .entry(oid)
            .or_insert_with(fetch)
            .clone()
    }
}

/// Map a program exception onto the statement's error surface: `Query`
/// carries MOODSQL's own message text (an execution error), everything else
/// surfaces as the method or operand exception it is.
fn sql_err(e: Exception) -> SqlError {
    if e.kind == ExceptionKind::Query {
        SqlError::Exec(e.message)
    } else {
        SqlError::Exception(e)
    }
}

/// What an expression is evaluated against: one scanned object bound to a
/// single range variable (a scan batch hands these out without building a
/// [`Row`]), or a full binding row.
#[derive(Clone, Copy)]
pub(crate) enum RowView<'r> {
    Object {
        var: &'r str,
        oid: Oid,
        value: &'r Value,
    },
    Row(&'r Row),
}

impl<'r> RowView<'r> {
    /// The argument slot of `var`.
    fn arg(self, var: &str) -> Arg<'r> {
        match self {
            RowView::Object { var: v, oid, value } if v == var => Arg::Object(oid, value),
            RowView::Object { .. } => Arg::Unbound,
            RowView::Row(row) => match row.get(var) {
                Some(bound) => match bound.oid {
                    Some(oid) => Arg::Object(oid, &bound.value),
                    None => Arg::Value(&bound.value),
                },
                None => Arg::Unbound,
            },
        }
    }
}

/// A compiled expression with the range variables its argument slots stand
/// for.
struct RowProg {
    vars: Vec<String>,
    prog: Program,
}

/// An expression the driver evaluates per object: parsed (or taken from the
/// statement) at prepare time, compiled the first time it is evaluated,
/// never again.
pub(crate) struct PreparedExpr {
    pub expr: Expr,
    slot: OnceLock<std::result::Result<RowProg, String>>,
}

impl PreparedExpr {
    pub fn new(expr: Expr) -> PreparedExpr {
        PreparedExpr {
            expr,
            slot: OnceLock::new(),
        }
    }

    /// The program, compiled now if this is its first use; the time goes to
    /// the registry's `compile.ns`.
    fn compiled(&self, catalog: &Catalog) -> Result<&RowProg> {
        let compile = || {
            let start = Instant::now();
            let prog = compile(&self.expr).map_err(|e| e.message);
            let registry = catalog.storage().registry();
            registry.add(Metric::CompileNs, start.elapsed().as_nanos() as u64);
            prog
        };
        match self.slot.get_or_init(compile) {
            Ok(prog) => Ok(prog),
            Err(message) => Err(SqlError::Exec(message.clone())),
        }
    }
}

/// What a run of evaluations shares: the executor (catalog, Function
/// Manager, bound parameters), one register file, one dereference cache.
pub(crate) struct Scratch<'e, 'a> {
    ex: &'e Executor<'a>,
    regs: Registers<'a>,
    resolver: CachingResolver<'e>,
    /// Rows since the cache was last cleared, for [`Scratch::next_row`].
    rows: usize,
}

impl<'e, 'a> Scratch<'e, 'a> {
    pub fn new(ex: &'e Executor<'a>) -> Scratch<'e, 'a> {
        Scratch {
            ex,
            regs: Registers::with_params(ex.params()),
            resolver: CachingResolver {
                catalog: ex.catalog,
                cache: RefCell::default(),
                fault: RefCell::default(),
            },
            rows: 0,
        }
    }

    pub fn executor(&self) -> &'e Executor<'a> {
        self.ex
    }

    /// A new batch begins: what the last one dereferenced is forgotten.
    pub fn next_batch(&mut self) {
        self.resolver.cache.get_mut().clear();
        self.rows = 0;
    }

    /// A row begins where the input is not cut into batches (a row list, a
    /// right-side build, an index's candidates): every `batch_size` of them
    /// is a batch, so the cache is bounded as it is under a scan.
    pub fn next_row(&mut self) {
        if self.rows >= self.ex.config.execution.batch_size.max(1) {
            self.next_batch();
        }
        self.rows += 1;
    }

    pub fn eval(&mut self, e: &PreparedExpr, view: RowView<'_>) -> Result<Value> {
        let RowProg { vars, prog } = e.compiled(self.ex.catalog)?;
        let (one, many);
        let args: &[Arg<'_>] = match vars.as_slice() {
            [] => &[],
            [var] => {
                one = [view.arg(var)];
                &one
            }
            vars => {
                many = vars.iter().map(|v| view.arg(v)).collect::<Vec<_>>();
                &many
            }
        };
        let ex = self.ex;
        let dispatch =
            |on: Receiver<'_>, method: &str, args: &[Value]| ex.dispatch(on, method, args);
        let ctx = EvalCtx {
            self_value: &Value::Null,
            args,
            resolver: Some(&self.resolver),
            dispatcher: Some(&dispatch),
        };
        prog.run(&mut self.regs, &ctx).map_err(|e| {
            // A storage failure under a dereference outranks what the
            // program made of the missing object.
            match self.resolver.fault.take() {
                Some(fault) => fault.into(),
                None => sql_err(e),
            }
        })
    }

    /// Predicate evaluation: Null (unknown) filters out, per SQL.
    pub fn matches(&mut self, e: &PreparedExpr, view: RowView<'_>) -> Result<bool> {
        Ok(matches!(self.eval(e, view)?, Value::Boolean(true)))
    }
}

fn compile(expr: &Expr) -> std::result::Result<RowProg, Exception> {
    let mut vars = Vec::new();
    let lowered = bridge(expr, &mut vars)?;
    let prog = compile_program(&lowered, &CompileOpts::sql_over(&vars))?;
    Ok(RowProg { vars, prog })
}

/// Lower an AST expression to a funcman [`FExpr`] whose paths are rooted at
/// range variables, collecting those (in order of first appearance) in
/// `vars`.
fn bridge(e: &Expr, vars: &mut Vec<String>) -> std::result::Result<FExpr, Exception> {
    fn path(p: &PathRef, vars: &mut Vec<String>) -> FExpr {
        if !vars.contains(&p.var) {
            vars.push(p.var.clone());
        }
        FExpr::Path(
            std::iter::once(&p.var)
                .chain(&p.segments)
                .cloned()
                .collect(),
        )
    }
    let binary = |op, l, r| FExpr::Binary(op, Box::new(l), Box::new(r));
    Ok(match e {
        Expr::Path(p) => path(p, vars),
        Expr::Literal(l) => FExpr::Lit(lit_value(l)),
        Expr::Param(n) => match n.checked_sub(1) {
            Some(i) => FExpr::Param(i),
            None => FExpr::Raise("unbound parameter $0".into()),
        },
        Expr::Compare { op, left, right } => {
            let op = match op {
                CmpOp::Eq => BinOp::Eq,
                CmpOp::Ne => BinOp::Ne,
                CmpOp::Lt => BinOp::Lt,
                CmpOp::Le => BinOp::Le,
                CmpOp::Gt => BinOp::Gt,
                CmpOp::Ge => BinOp::Ge,
            };
            binary(op, bridge(left, vars)?, bridge(right, vars)?)
        }
        Expr::Between { expr, lo, hi } => FExpr::Between(
            Box::new(bridge(expr, vars)?),
            Box::new(bridge(lo, vars)?),
            Box::new(bridge(hi, vars)?),
        ),
        Expr::And(parts) => nary(parts, vars, BinOp::And)?,
        Expr::Or(parts) => nary(parts, vars, BinOp::Or)?,
        Expr::Not(inner) => FExpr::Unary(UnOp::Not, Box::new(bridge(inner, vars)?)),
        Expr::Arith { op, left, right } => {
            let op = match op {
                '+' => BinOp::Add,
                '-' => BinOp::Sub,
                '*' => BinOp::Mul,
                '/' => BinOp::Div,
                '%' => BinOp::Rem,
                other => {
                    return Err(Exception::new(
                        ExceptionKind::Query,
                        format!("unknown operator {other}"),
                    ))
                }
            };
            binary(op, bridge(left, vars)?, bridge(right, vars)?)
        }
        Expr::MethodCall { base, method, args } => {
            let args = args.iter().map(|a| bridge(a, vars));
            let args = args.collect::<std::result::Result<_, _>>()?;
            FExpr::Call(Some(Box::new(path(base, vars))), method.clone(), args)
        }
        // Grouped statements evaluate an aggregate's argument per row and
        // the call itself per group; met anywhere else it fails the row
        // that reaches it.
        Expr::Agg { .. } => FExpr::Raise("aggregate outside GROUP BY context".into()),
    })
}

/// An n-ary connective as a balanced tree of binary ones (the compiler
/// flattens it back into one in-order fold, so the shape only bounds the
/// recursion depth).
fn nary(
    parts: &[Expr],
    vars: &mut Vec<String>,
    op: BinOp,
) -> std::result::Result<FExpr, Exception> {
    fn half(
        parts: &[Expr],
        vars: &mut Vec<String>,
        op: BinOp,
    ) -> std::result::Result<FExpr, Exception> {
        match parts {
            [only] => bridge(only, vars),
            _ => nary(parts, vars, op),
        }
    }
    // The connective's identity: alone it is the empty connective, beside
    // a single part it keeps that part's Boolean check.
    let identity = FExpr::Lit(Value::Boolean(op == BinOp::And));
    let (left, right) = match parts {
        [] => return Ok(identity),
        [only] => (bridge(only, vars)?, identity),
        _ => {
            let (left, right) = parts.split_at(parts.len() / 2);
            (half(left, vars, op)?, half(right, vars, op)?)
        }
    };
    Ok(FExpr::Binary(op, Box::new(left), Box::new(right)))
}
