//! Compiled predicate and projection evaluation: register programs.
//!
//! The paper's Function Manager compiles method bodies once at definition
//! time and re-executes the compiled form per call (Section 2). This module
//! is the reproduction-era analogue for the *query* hot path: an [`Expr`]
//! tree is lowered once into a flat register program — constants live in a
//! preallocated pool (no per-row `String` clones), attribute accesses carry
//! resolved slot offsets (verified against the field name, so schema
//! evolution stays correct), And/Or short-circuit through forward jumps,
//! and provably ill-typed comparisons are rejected at compile time so the
//! caller can fall back to the interpreter instead of failing per row.
//!
//! Two semantic modes cover the two evaluators in the system:
//!
//! * [`Mode::Sql`] mirrors MOODSQL's `Executor::eval_expr` exactly —
//!   comparisons through `Value::compare` with Null propagation, n-ary
//!   And/Or folds that error on non-Boolean parts, missing tuple fields
//!   reading as Null (schema evolution).
//! * [`Mode::Body`] mirrors the method-body interpreter in [`crate::expr`]
//!   — `OperandDataType` comparisons, binary And/Or truth tables, missing
//!   fields raising `UnknownIdentifier`.
//!
//! Programs are immutable and `Sync`; per-row scratch lives in a
//! caller-provided [`Registers`] so parallel scan chunks reuse one
//! allocation per worker, not one per row.

use std::cmp::Ordering;

use mood_datamodel::Value;

use crate::exception::{Exception, ExceptionKind};
use crate::expr::{BinOp, EvalCtx, Expr, UnOp};
use crate::operand::OperandDataType as Op;

/// Which evaluator's semantics the program reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// MOODSQL `eval_expr` semantics (`Value::compare`, n-ary And/Or,
    /// missing tuple field → Null).
    Sql,
    /// Method-body interpreter semantics (`OperandDataType`, binary
    /// And/Or, missing field → `UnknownIdentifier`).
    Body,
}

/// Static type classes for compile-time checking. Derived from literals and
/// (optionally) schema attribute types; `Unknown` never rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticKind {
    Num,
    Str,
    Bool,
    Unknown,
}

impl StaticKind {
    /// The class of a literal or bound parameter value.
    pub fn of_value(v: &Value) -> StaticKind {
        match v {
            Value::Integer(_) | Value::LongInteger(_) | Value::Float(_) => StaticKind::Num,
            Value::String(_) => StaticKind::Str,
            Value::Boolean(_) => StaticKind::Bool,
            _ => StaticKind::Unknown,
        }
    }
}

/// Schema type lookup for path expressions (segments, `self` already
/// stripped) — enables compile-time comparison checking.
pub type AttrKindFn<'a> = &'a dyn Fn(&[String]) -> StaticKind;

/// Resolved slot offset of a root attribute in the stored tuple.
pub type RootSlotFn<'a> = &'a dyn Fn(&str) -> Option<u16>;

/// Compilation options.
pub struct CompileOpts<'a> {
    pub mode: Mode,
    /// Parameter names in signature order (Body mode): paths rooted at a
    /// parameter bind to its slot at compile time.
    pub params: &'a [String],
    /// Schema type lookup — enables compile-time comparison checking.
    pub attr_kind: Option<AttrKindFn<'a>>,
    /// Slot offset lookup. Used as a verified hint: the evaluator checks
    /// the field name at the slot and falls back to a scan, so stale
    /// offsets cost nothing but time.
    pub root_slot: Option<RootSlotFn<'a>>,
    /// Range-variable label for Sql-mode error messages (`no attribute a
    /// on x (path x.a, ...)`).
    pub label: &'a str,
}

impl<'a> CompileOpts<'a> {
    pub fn sql(label: &'a str) -> CompileOpts<'a> {
        CompileOpts {
            mode: Mode::Sql,
            params: &[],
            attr_kind: None,
            root_slot: None,
            label,
        }
    }

    pub fn body(params: &'a [String]) -> CompileOpts<'a> {
        CompileOpts {
            mode: Mode::Body,
            params,
            attr_kind: None,
            root_slot: None,
            label: "self",
        }
    }

    pub fn with_attr_kind(mut self, f: AttrKindFn<'a>) -> Self {
        self.attr_kind = Some(f);
        self
    }

    pub fn with_root_slot(mut self, f: RootSlotFn<'a>) -> Self {
        self.root_slot = Some(f);
        self
    }
}

/// An operand source: a scratch register, the constant pool, or the
/// parameter slice bound on the [`Registers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    Reg(u16),
    Const(u16),
    Param(u16),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpKind {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpKind {
    fn apply(self, ord: Ordering) -> bool {
        match self {
            CmpKind::Eq => ord == Ordering::Equal,
            CmpKind::Ne => ord != Ordering::Equal,
            CmpKind::Lt => ord == Ordering::Less,
            CmpKind::Le => ord != Ordering::Greater,
            CmpKind::Gt => ord == Ordering::Greater,
            CmpKind::Ge => ord != Ordering::Less,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            CmpKind::Eq => "=",
            CmpKind::Ne => "<>",
            CmpKind::Lt => "<",
            CmpKind::Le => "<=",
            CmpKind::Gt => ">",
            CmpKind::Ge => ">=",
        }
    }
}

fn cmp_kind(op: BinOp) -> Option<CmpKind> {
    Some(match op {
        BinOp::Eq => CmpKind::Eq,
        BinOp::Ne => CmpKind::Ne,
        BinOp::Lt => CmpKind::Lt,
        BinOp::Le => CmpKind::Le,
        BinOp::Gt => CmpKind::Gt,
        BinOp::Ge => CmpKind::Ge,
        _ => return None,
    })
}

/// Where a path starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathRoot {
    /// The receiver / bound object.
    SelfVal,
    /// A named parameter, bound to its signature slot at compile time.
    Arg(u16),
}

/// One path segment: the attribute name plus an optional verified slot
/// offset into the stored tuple.
#[derive(Debug, Clone)]
struct Seg {
    name: String,
    slot: Option<u16>,
}

/// A pre-resolved attribute path.
#[derive(Debug, Clone)]
struct PathPlan {
    root: PathRoot,
    /// The path started with a bare identifier (Body mode: a missing root
    /// attribute is an *unknown identifier*, not a missing attribute).
    root_ident: bool,
    segs: Vec<Seg>,
    /// Original root token, for unknown-identifier messages.
    root_name: String,
    /// Range-variable label (Sql-mode error messages).
    label: String,
    /// Rendered path text (Sql-mode error messages).
    rendered: String,
}

#[derive(Debug, Clone)]
enum Inst {
    /// Navigate `paths[plan]` and store the result.
    Path { dst: u16, plan: u16 },
    /// Copy a value into a register.
    Set { dst: u16, src: Src },
    /// Raise unless the value is atomic (the interpreter's operand check,
    /// kept in evaluation order).
    Atomic { src: Src },
    /// `Value::compare` with Null propagation (MOODSQL comparison).
    CmpSql { dst: u16, kind: CmpKind, lhs: Src, rhs: Src },
    /// `OperandDataType` comparison (method-body semantics).
    CmpBody { dst: u16, kind: CmpKind, lhs: Src, rhs: Src },
    /// MOODSQL `BETWEEN`: all three operands evaluate first, Null
    /// propagates, incomparable raises.
    BetweenSql { dst: u16, v: Src, lo: Src, hi: Src },
    /// Method-body `BETWEEN` via `OperandDataType::compare_values`.
    BetweenBody { dst: u16, v: Src, lo: Src, hi: Src },
    /// Arithmetic through `OperandDataType` (both evaluators share it).
    Arith { dst: u16, op: char, lhs: Src, rhs: Src },
    /// Unary minus (`0 - x` like the interpreter).
    Neg { dst: u16, src: Src },
    NotSql { dst: u16, src: Src },
    NotBody { dst: u16, src: Src },
    /// One step of the Sql n-ary AND fold over accumulator `acc`:
    /// false → short-circuit to `end`, Null → acc becomes Null.
    AndStep { acc: u16, src: Src, end: u32 },
    OrStep { acc: u16, src: Src, end: u32 },
    /// Body-mode `acc = acc AND rhs` truth table (lhs already in `acc`).
    AndBody { acc: u16, rhs: Src },
    OrBody { acc: u16, rhs: Src },
    JumpIfFalse { src: Src, target: u32 },
    JumpIfTrue { src: Src, target: u32 },
    /// Method dispatch (Body mode only).
    Call { dst: u16, name: String, args: Vec<Src> },
}

/// Reusable per-row scratch. One per worker thread / scan chunk: the
/// register file is allocated once and overwritten per row. The bound
/// parameter slice is what [`Src::Param`] operands read — the values one
/// execution of a shared program supplies in place of pooled constants.
#[derive(Debug, Default)]
pub struct Registers<'p> {
    slots: Vec<Value>,
    params: &'p [Value],
}

impl<'p> Registers<'p> {
    /// Scratch for programs that read `params`.
    pub fn with_params(params: &'p [Value]) -> Registers<'p> {
        Registers {
            slots: Vec::new(),
            params,
        }
    }

    fn prepare(&mut self, n: u16) {
        if self.slots.len() < n as usize {
            self.slots.resize(n as usize, Value::Null);
        }
    }
}

/// A compiled expression: constant pool, resolved paths, instruction list.
#[derive(Debug, Clone)]
pub struct Program {
    mode: Mode,
    consts: Vec<Value>,
    paths: Vec<PathPlan>,
    insts: Vec<Inst>,
    nregs: u16,
    /// Parameters the program reads: `Src::Param(i)` has `i < nparams`.
    nparams: u16,
    ret: Src,
}

fn query_err(message: String) -> Exception {
    Exception::new(ExceptionKind::Query, message)
}

fn compile_err(message: impl Into<String>) -> Exception {
    Exception::new(ExceptionKind::CompileError, message.into())
}

impl Program {
    /// Number of scratch registers a [`Registers`] will hold.
    pub fn register_count(&self) -> u16 {
        self.nregs
    }

    /// Number of pooled constants.
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }

    fn value<'v>(&'v self, s: Src, regs: &'v Registers<'_>) -> &'v Value {
        match s {
            Src::Reg(i) => &regs.slots[i as usize],
            Src::Const(i) => &self.consts[i as usize],
            // In range: `run` checked `nparams` against the bound slice.
            Src::Param(i) => &regs.params[i as usize],
        }
    }

    /// Execute against a context, reusing `regs` as scratch.
    pub fn run(&self, regs: &mut Registers<'_>, ctx: &EvalCtx<'_>) -> Result<Value, Exception> {
        if regs.params.len() < self.nparams as usize {
            return Err(query_err(format!(
                "unbound parameter ${} ({} bound)",
                self.nparams,
                regs.params.len()
            )));
        }
        regs.prepare(self.nregs);
        let mut pc = 0usize;
        while pc < self.insts.len() {
            match &self.insts[pc] {
                Inst::Path { dst, plan } => {
                    let v = self.navigate(&self.paths[*plan as usize], ctx)?;
                    regs.slots[*dst as usize] = v;
                }
                Inst::Set { dst, src } => {
                    let v = self.value(*src, regs).clone();
                    regs.slots[*dst as usize] = v;
                }
                Inst::Atomic { src } => {
                    Op::ensure_atomic(self.value(*src, regs))?;
                }
                Inst::CmpSql { dst, kind, lhs, rhs } => {
                    let out = {
                        let l = self.value(*lhs, regs);
                        let r = self.value(*rhs, regs);
                        if l.is_null() || r.is_null() {
                            Value::Null
                        } else {
                            match l.compare(r) {
                                Some(ord) => Value::Boolean(kind.apply(ord)),
                                None => {
                                    return Err(query_err(format!("cannot compare {l} with {r}")))
                                }
                            }
                        }
                    };
                    regs.slots[*dst as usize] = out;
                }
                Inst::CmpBody { dst, kind, lhs, rhs } => {
                    let out =
                        Op::cmp_op_values(kind.symbol(), self.value(*lhs, regs), self.value(*rhs, regs))?;
                    regs.slots[*dst as usize] = out;
                }
                Inst::BetweenSql { dst, v, lo, hi } => {
                    let out = {
                        let v = self.value(*v, regs);
                        let lo = self.value(*lo, regs);
                        let hi = self.value(*hi, regs);
                        if v.is_null() || lo.is_null() || hi.is_null() {
                            Value::Null
                        } else {
                            let ge = v.compare(lo).map(|o| o != Ordering::Less);
                            let le = v.compare(hi).map(|o| o != Ordering::Greater);
                            match (ge, le) {
                                (Some(a), Some(b)) => Value::Boolean(a && b),
                                _ => {
                                    return Err(query_err("BETWEEN on incomparable values".into()))
                                }
                            }
                        }
                    };
                    regs.slots[*dst as usize] = out;
                }
                Inst::BetweenBody { dst, v, lo, hi } => {
                    let out = {
                        let v = self.value(*v, regs);
                        let lo = self.value(*lo, regs);
                        let hi = self.value(*hi, regs);
                        if v.is_null() || lo.is_null() || hi.is_null() {
                            Value::Null
                        } else {
                            let ge = Op::compare_values(v, lo)?.map(|o| o != Ordering::Less);
                            let le = Op::compare_values(v, hi)?.map(|o| o != Ordering::Greater);
                            match (ge, le) {
                                (Some(a), Some(b)) => Value::Boolean(a && b),
                                _ => {
                                    return Err(Exception::type_error(
                                        "BETWEEN on incomparable values",
                                    ))
                                }
                            }
                        }
                    };
                    regs.slots[*dst as usize] = out;
                }
                Inst::Arith { dst, op, lhs, rhs } => {
                    let out = {
                        let l = Op::from_value(self.value(*lhs, regs))?;
                        let r = Op::from_value(self.value(*rhs, regs))?;
                        match op {
                            '+' => l.add(&r)?,
                            '-' => l.sub(&r)?,
                            '*' => l.mul(&r)?,
                            '/' => l.div(&r)?,
                            '%' => l.rem(&r)?,
                            other => return Err(query_err(format!("unknown operator {other}"))),
                        }
                        .into_value()
                    };
                    regs.slots[*dst as usize] = out;
                }
                Inst::Neg { dst, src } => {
                    let out = Op::from_value(self.value(*src, regs))?.neg()?.into_value();
                    regs.slots[*dst as usize] = out;
                }
                Inst::NotSql { dst, src } => {
                    let out = match self.value(*src, regs) {
                        Value::Boolean(b) => Value::Boolean(!b),
                        Value::Null => Value::Null,
                        other => return Err(query_err(format!("NOT over non-Boolean {other}"))),
                    };
                    regs.slots[*dst as usize] = out;
                }
                Inst::NotBody { dst, src } => {
                    let out = Op::from_value(self.value(*src, regs))?.not()?.into_value();
                    regs.slots[*dst as usize] = out;
                }
                Inst::AndStep { acc, src, end } => {
                    // 0 = short-circuit false, 1 = keep, 2 = mark Null.
                    let act = match self.value(*src, regs) {
                        Value::Boolean(false) => 0u8,
                        Value::Boolean(true) => 1,
                        Value::Null => 2,
                        other => {
                            return Err(query_err(format!("AND over non-Boolean {other}")))
                        }
                    };
                    match act {
                        0 => {
                            regs.slots[*acc as usize] = Value::Boolean(false);
                            pc = *end as usize;
                            continue;
                        }
                        2 => regs.slots[*acc as usize] = Value::Null,
                        _ => {}
                    }
                }
                Inst::OrStep { acc, src, end } => {
                    let act = match self.value(*src, regs) {
                        Value::Boolean(true) => 0u8,
                        Value::Boolean(false) => 1,
                        Value::Null => 2,
                        other => return Err(query_err(format!("OR over non-Boolean {other}"))),
                    };
                    match act {
                        0 => {
                            regs.slots[*acc as usize] = Value::Boolean(true);
                            pc = *end as usize;
                            continue;
                        }
                        2 => regs.slots[*acc as usize] = Value::Null,
                        _ => {}
                    }
                }
                Inst::AndBody { acc, rhs } => {
                    let out = and_body(&regs.slots[*acc as usize], self.value(*rhs, regs))?;
                    regs.slots[*acc as usize] = out;
                }
                Inst::OrBody { acc, rhs } => {
                    let out = or_body(&regs.slots[*acc as usize], self.value(*rhs, regs))?;
                    regs.slots[*acc as usize] = out;
                }
                Inst::JumpIfFalse { src, target } => {
                    if matches!(self.value(*src, regs), Value::Boolean(false)) {
                        pc = *target as usize;
                        continue;
                    }
                }
                Inst::JumpIfTrue { src, target } => {
                    if matches!(self.value(*src, regs), Value::Boolean(true)) {
                        pc = *target as usize;
                        continue;
                    }
                }
                Inst::Call { dst, name, args } => {
                    let dispatcher = ctx.dispatcher.ok_or_else(|| {
                        Exception::new(
                            ExceptionKind::MissingFunction,
                            format!("method call {name}() outside a dispatching context"),
                        )
                    })?;
                    let vals: Vec<Value> =
                        args.iter().map(|a| self.value(*a, regs).clone()).collect();
                    let out = dispatcher(name, &vals)?;
                    regs.slots[*dst as usize] = out;
                }
            }
            pc += 1;
        }
        Ok(self.value(self.ret, regs).clone())
    }

    /// Walk a pre-resolved path. Values stay borrowed until a reference
    /// dereference or the terminal clone; owned tuples move their field out
    /// instead of cloning.
    fn navigate(&self, plan: &PathPlan, ctx: &EvalCtx<'_>) -> Result<Value, Exception> {
        enum Cur<'c> {
            B(&'c Value),
            O(Value),
        }
        impl Cur<'_> {
            fn as_ref(&self) -> &Value {
                match self {
                    Cur::B(v) => v,
                    Cur::O(v) => v,
                }
            }
        }
        let mut cur = match plan.root {
            PathRoot::SelfVal => Cur::B(ctx.self_value),
            PathRoot::Arg(i) => match ctx.args.get(i as usize) {
                Some((_, v)) => Cur::B(v),
                None => {
                    return Err(Exception::new(
                        ExceptionKind::UnknownIdentifier,
                        format!("unknown identifier {}", plan.root_name),
                    ))
                }
            },
        };
        for (i, seg) in plan.segs.iter().enumerate() {
            // Dereference as many times as needed to reach a tuple.
            loop {
                let oid = match cur.as_ref() {
                    Value::Ref(oid) => *oid,
                    Value::Null => return Ok(Value::Null),
                    _ => break,
                };
                let resolver = ctx.resolver.ok_or_else(|| {
                    Exception::type_error("path traverses a reference but no resolver given")
                })?;
                let v = resolver.resolve(oid).ok_or_else(|| {
                    Exception::new(ExceptionKind::System, format!("dangling reference {oid}"))
                })?;
                cur = Cur::O(v);
            }
            cur = match cur {
                Cur::B(v) => match v {
                    Value::Tuple(fields) => match field_index(fields, &seg.name, seg.slot) {
                        Some(idx) => Cur::B(&fields[idx].1),
                        None => return self.missing_field(plan, i, v),
                    },
                    other => return self.not_navigable(plan, i, other),
                },
                Cur::O(v) => match v {
                    Value::Tuple(mut fields) => {
                        match field_index(&fields, &seg.name, seg.slot) {
                            Some(idx) => Cur::O(fields.swap_remove(idx).1),
                            None => {
                                return self.missing_field(plan, i, &Value::Tuple(fields))
                            }
                        }
                    }
                    other => return self.not_navigable(plan, i, &other),
                },
            };
        }
        Ok(match cur {
            Cur::B(v) => v.clone(),
            Cur::O(v) => v,
        })
    }

    /// Tuple has no such field. Sql: reads as Null (schema evolution, like
    /// the MOODSQL interpreter). Body: unknown identifier.
    fn missing_field(
        &self,
        plan: &PathPlan,
        seg_i: usize,
        _value: &Value,
    ) -> Result<Value, Exception> {
        match self.mode {
            Mode::Sql => Ok(Value::Null),
            Mode::Body => Err(Exception::new(
                ExceptionKind::UnknownIdentifier,
                if seg_i == 0 && plan.root_ident {
                    format!("unknown identifier {}", plan.root_name)
                } else {
                    format!("no attribute {}", plan.segs[seg_i].name)
                },
            )),
        }
    }

    /// Field access on a non-tuple, non-reference value.
    fn not_navigable(&self, plan: &PathPlan, seg_i: usize, value: &Value) -> Result<Value, Exception> {
        let seg = &plan.segs[seg_i].name;
        match self.mode {
            Mode::Sql => Err(query_err(format!(
                "no attribute {seg} on {} (path {}, value {value})",
                plan.label, plan.rendered
            ))),
            Mode::Body => {
                if seg_i == 0 && plan.root_ident {
                    // The interpreter's root lookup is `self.field(name)`,
                    // which reports any miss as an unknown identifier.
                    Err(Exception::new(
                        ExceptionKind::UnknownIdentifier,
                        format!("unknown identifier {}", plan.root_name),
                    ))
                } else {
                    Err(Exception::type_error(format!(
                        "cannot navigate into {value} with .{seg}"
                    )))
                }
            }
        }
    }
}

fn field_index(fields: &[(String, Value)], name: &str, slot: Option<u16>) -> Option<usize> {
    if let Some(s) = slot {
        let s = s as usize;
        if fields.get(s).is_some_and(|(n, _)| n == name) {
            return Some(s);
        }
    }
    fields.iter().position(|(n, _)| n == name)
}

/// Body-mode AND truth table (the lhs-false short circuit already jumped).
fn and_body(l: &Value, r: &Value) -> Result<Value, Exception> {
    match (l, r) {
        (Value::Boolean(false), _) | (_, Value::Boolean(false)) => Ok(Value::Boolean(false)),
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::Boolean(a), Value::Boolean(b)) => Ok(Value::Boolean(*a && *b)),
        _ => Err(Exception::type_error("AND needs Boolean operands")),
    }
}

fn or_body(l: &Value, r: &Value) -> Result<Value, Exception> {
    match (l, r) {
        (Value::Boolean(true), _) | (_, Value::Boolean(true)) => Ok(Value::Boolean(true)),
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::Boolean(a), Value::Boolean(b)) => Ok(Value::Boolean(*a || *b)),
        _ => Err(Exception::type_error("OR needs Boolean operands")),
    }
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

struct Compiler<'o, 'a> {
    opts: &'o CompileOpts<'a>,
    consts: Vec<Value>,
    paths: Vec<PathPlan>,
    insts: Vec<Inst>,
    next: u16,
    nparams: u16,
}

impl Compiler<'_, '_> {
    fn alloc(&mut self) -> Result<u16, Exception> {
        if self.next == u16::MAX {
            return Err(compile_err("expression too large to compile"));
        }
        let r = self.next;
        self.next += 1;
        Ok(r)
    }

    fn konst(&mut self, v: &Value) -> u16 {
        if let Some(i) = self.consts.iter().position(|c| c == v) {
            return i as u16;
        }
        self.consts.push(v.clone());
        (self.consts.len() - 1) as u16
    }

    /// Static type class of a subexpression, for compile-time checks.
    fn kind_of(&self, e: &Expr) -> StaticKind {
        match e {
            Expr::Lit(v) => StaticKind::of_value(v),
            Expr::Path(p) => {
                let segs: Vec<String> = if p.first().is_some_and(|s| s == "self") {
                    p[1..].to_vec()
                } else {
                    p.clone()
                };
                self.opts
                    .attr_kind
                    .map(|f| f(&segs))
                    .unwrap_or(StaticKind::Unknown)
            }
            Expr::Unary(UnOp::Neg, _) => StaticKind::Num,
            Expr::Unary(UnOp::Not, _) => StaticKind::Bool,
            Expr::Binary(op, l, r) => {
                if cmp_kind(*op).is_some() || matches!(op, BinOp::And | BinOp::Or) {
                    StaticKind::Bool
                } else if *op == BinOp::Add {
                    match (self.kind_of(l), self.kind_of(r)) {
                        (StaticKind::Str, _) | (_, StaticKind::Str) => StaticKind::Str,
                        (StaticKind::Num, StaticKind::Num) => StaticKind::Num,
                        _ => StaticKind::Unknown,
                    }
                } else {
                    StaticKind::Num
                }
            }
            Expr::Between(..) => StaticKind::Bool,
            Expr::Call(..) => StaticKind::Unknown,
            Expr::Param(_, kind) => *kind,
        }
    }

    /// Reject comparisons that are provably ill-typed: both sides known and
    /// of different classes. The caller falls back to the interpreter, so
    /// the per-row error stays byte-identical.
    fn check_comparable(&self, l: &Expr, r: &Expr) -> Result<(), Exception> {
        let (lk, rk) = (self.kind_of(l), self.kind_of(r));
        if lk != StaticKind::Unknown && rk != StaticKind::Unknown && lk != rk {
            return Err(compile_err(format!(
                "comparison between {lk:?} and {rk:?} can never succeed"
            )));
        }
        Ok(())
    }

    fn check_boolean_part(&self, e: &Expr, ctx: &str) -> Result<(), Exception> {
        match self.kind_of(e) {
            StaticKind::Num | StaticKind::Str => Err(compile_err(format!(
                "{ctx} over a non-Boolean operand"
            ))),
            _ => Ok(()),
        }
    }

    fn flatten<'e>(op: BinOp, e: &'e Expr, out: &mut Vec<&'e Expr>) {
        if let Expr::Binary(o, l, r) = e {
            if *o == op {
                Self::flatten(op, l, out);
                Self::flatten(op, r, out);
                return;
            }
        }
        out.push(e);
    }

    fn emit(&mut self, e: &Expr) -> Result<Src, Exception> {
        match e {
            Expr::Lit(v) => Ok(Src::Const(self.konst(v))),
            Expr::Param(i, _) => {
                if *i == u16::MAX {
                    return Err(compile_err("too many parameters"));
                }
                self.nparams = self.nparams.max(*i + 1);
                Ok(Src::Param(*i))
            }
            Expr::Path(p) => {
                let plan = self.path_plan(p)?;
                let idx = self.paths.len();
                if idx > u16::MAX as usize {
                    return Err(compile_err("too many paths"));
                }
                self.paths.push(plan);
                let dst = self.alloc()?;
                self.insts.push(Inst::Path {
                    dst,
                    plan: idx as u16,
                });
                Ok(Src::Reg(dst))
            }
            Expr::Unary(UnOp::Neg, inner) => {
                let src = self.emit(inner)?;
                let dst = self.alloc()?;
                self.insts.push(Inst::Neg { dst, src });
                Ok(Src::Reg(dst))
            }
            Expr::Unary(UnOp::Not, inner) => {
                self.check_boolean_part(inner, "NOT")?;
                let src = self.emit(inner)?;
                let dst = self.alloc()?;
                self.insts.push(match self.opts.mode {
                    Mode::Sql => Inst::NotSql { dst, src },
                    Mode::Body => Inst::NotBody { dst, src },
                });
                Ok(Src::Reg(dst))
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), lhs, rhs) => match self.opts.mode {
                Mode::Sql => self.emit_sql_fold(*op, lhs, rhs),
                Mode::Body => self.emit_body_logic(*op, lhs, rhs),
            },
            Expr::Binary(op, lhs, rhs) => {
                if let Some(kind) = cmp_kind(*op) {
                    self.check_comparable(lhs, rhs)?;
                    match self.opts.mode {
                        Mode::Sql => {
                            let l = self.emit(lhs)?;
                            let r = self.emit(rhs)?;
                            let dst = self.alloc()?;
                            self.insts.push(Inst::CmpSql {
                                dst,
                                kind,
                                lhs: l,
                                rhs: r,
                            });
                            Ok(Src::Reg(dst))
                        }
                        Mode::Body => {
                            let l = self.emit(lhs)?;
                            self.insts.push(Inst::Atomic { src: l });
                            let r = self.emit(rhs)?;
                            self.insts.push(Inst::Atomic { src: r });
                            let dst = self.alloc()?;
                            self.insts.push(Inst::CmpBody {
                                dst,
                                kind,
                                lhs: l,
                                rhs: r,
                            });
                            Ok(Src::Reg(dst))
                        }
                    }
                } else {
                    let ch = match op {
                        BinOp::Add => '+',
                        BinOp::Sub => '-',
                        BinOp::Mul => '*',
                        BinOp::Div => '/',
                        BinOp::Rem => '%',
                        other => {
                            return Err(compile_err(format!("unsupported operator {other:?}")))
                        }
                    };
                    self.check_arith(ch, lhs, rhs)?;
                    let l = self.emit(lhs)?;
                    if self.opts.mode == Mode::Body {
                        // The interpreter materializes the left operand
                        // before evaluating the right: keep error order.
                        self.insts.push(Inst::Atomic { src: l });
                    }
                    let r = self.emit(rhs)?;
                    let dst = self.alloc()?;
                    self.insts.push(Inst::Arith {
                        dst,
                        op: ch,
                        lhs: l,
                        rhs: r,
                    });
                    Ok(Src::Reg(dst))
                }
            }
            Expr::Between(v, lo, hi) => {
                self.check_comparable(v, lo)?;
                self.check_comparable(v, hi)?;
                let vs = self.emit(v)?;
                let ls = self.emit(lo)?;
                let hs = self.emit(hi)?;
                let dst = self.alloc()?;
                self.insts.push(match self.opts.mode {
                    Mode::Sql => Inst::BetweenSql {
                        dst,
                        v: vs,
                        lo: ls,
                        hi: hs,
                    },
                    Mode::Body => Inst::BetweenBody {
                        dst,
                        v: vs,
                        lo: ls,
                        hi: hs,
                    },
                });
                Ok(Src::Reg(dst))
            }
            Expr::Call(name, args) => {
                if self.opts.mode == Mode::Sql {
                    return Err(compile_err("method calls are not compiled in SQL predicates"));
                }
                let mut srcs = Vec::with_capacity(args.len());
                for a in args {
                    srcs.push(self.emit(a)?);
                }
                let dst = self.alloc()?;
                self.insts.push(Inst::Call {
                    dst,
                    name: name.clone(),
                    args: srcs,
                });
                Ok(Src::Reg(dst))
            }
        }
    }

    fn check_arith(&self, op: char, lhs: &Expr, rhs: &Expr) -> Result<(), Exception> {
        let (lk, rk) = (self.kind_of(lhs), self.kind_of(rhs));
        let bad = |k: StaticKind| k == StaticKind::Bool || (op != '+' && k == StaticKind::Str);
        if bad(lk) || bad(rk) {
            return Err(compile_err(format!("operator {op} over a non-numeric operand")));
        }
        if op == '+'
            && lk != StaticKind::Unknown
            && rk != StaticKind::Unknown
            && (lk == StaticKind::Str) != (rk == StaticKind::Str)
        {
            return Err(compile_err("mixed string/numeric addition"));
        }
        Ok(())
    }

    /// Sql-mode n-ary And/Or: fold over the flattened part list with a
    /// sticky-Null accumulator and a short-circuit jump, exactly like the
    /// MOODSQL interpreter's loop.
    fn emit_sql_fold(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Src, Exception> {
        let mut parts = Vec::new();
        Self::flatten(op, lhs, &mut parts);
        Self::flatten(op, rhs, &mut parts);
        for p in &parts {
            self.check_boolean_part(p, if op == BinOp::And { "AND" } else { "OR" })?;
        }
        let init = self.konst(&Value::Boolean(op == BinOp::And));
        let acc = self.alloc()?;
        self.insts.push(Inst::Set {
            dst: acc,
            src: Src::Const(init),
        });
        let mut fixups = Vec::with_capacity(parts.len());
        for p in parts {
            let s = self.emit(p)?;
            fixups.push(self.insts.len());
            self.insts.push(if op == BinOp::And {
                Inst::AndStep { acc, src: s, end: 0 }
            } else {
                Inst::OrStep { acc, src: s, end: 0 }
            });
        }
        let end = self.insts.len() as u32;
        for f in fixups {
            match &mut self.insts[f] {
                Inst::AndStep { end: e, .. } | Inst::OrStep { end: e, .. } => *e = end,
                _ => unreachable!(),
            }
        }
        Ok(Src::Reg(acc))
    }

    /// Body-mode binary And/Or with the interpreter's short circuit and
    /// atomicity checks in evaluation order.
    fn emit_body_logic(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Src, Exception> {
        self.check_boolean_part(lhs, "logic")?;
        self.check_boolean_part(rhs, "logic")?;
        let l = self.emit(lhs)?;
        self.insts.push(Inst::Atomic { src: l });
        let acc = self.alloc()?;
        self.insts.push(Inst::Set { dst: acc, src: l });
        let jump_at = self.insts.len();
        self.insts.push(if op == BinOp::And {
            Inst::JumpIfFalse {
                src: Src::Reg(acc),
                target: 0,
            }
        } else {
            Inst::JumpIfTrue {
                src: Src::Reg(acc),
                target: 0,
            }
        });
        let r = self.emit(rhs)?;
        self.insts.push(Inst::Atomic { src: r });
        self.insts.push(if op == BinOp::And {
            Inst::AndBody { acc, rhs: r }
        } else {
            Inst::OrBody { acc, rhs: r }
        });
        let end = self.insts.len() as u32;
        match &mut self.insts[jump_at] {
            Inst::JumpIfFalse { target, .. } | Inst::JumpIfTrue { target, .. } => *target = end,
            _ => unreachable!(),
        }
        Ok(Src::Reg(acc))
    }

    fn path_plan(&self, p: &[String]) -> Result<PathPlan, Exception> {
        if p.is_empty() {
            return Err(compile_err("empty path"));
        }
        let root_name = p[0].clone();
        let (root, root_ident, segs): (PathRoot, bool, &[String]) = if p[0] == "self" {
            (PathRoot::SelfVal, false, &p[1..])
        } else if let Some(i) = self.opts.params.iter().position(|n| *n == p[0]) {
            if i > u16::MAX as usize {
                return Err(compile_err("too many parameters"));
            }
            (PathRoot::Arg(i as u16), false, &p[1..])
        } else {
            // A bare identifier: a root attribute of self.
            (PathRoot::SelfVal, true, p)
        };
        let segs: Vec<Seg> = segs
            .iter()
            .enumerate()
            .map(|(i, name)| Seg {
                name: name.clone(),
                slot: if i == 0 && root == PathRoot::SelfVal {
                    self.opts.root_slot.and_then(|f| f(name))
                } else {
                    None
                },
            })
            .collect();
        let rendered = match root {
            PathRoot::SelfVal if !root_ident => {
                let mut s = self.opts.label.to_string();
                for seg in &segs {
                    s.push('.');
                    s.push_str(&seg.name);
                }
                s
            }
            _ => p.join("."),
        };
        Ok(PathPlan {
            root,
            root_ident,
            segs,
            root_name,
            label: self.opts.label.to_string(),
            rendered,
        })
    }
}

/// Lower an expression tree into a register program, or fail with a
/// `CompileError` exception (unsupported construct, provable type error) so
/// the caller can fall back to interpretation.
pub fn compile_program(expr: &Expr, opts: &CompileOpts<'_>) -> Result<Program, Exception> {
    let mut c = Compiler {
        opts,
        consts: Vec::new(),
        paths: Vec::new(),
        insts: Vec::new(),
        next: 0,
        nparams: 0,
    };
    let ret = c.emit(expr)?;
    Ok(Program {
        mode: opts.mode,
        consts: c.consts,
        paths: c.paths,
        insts: c.insts,
        nregs: c.next,
        nparams: c.nparams,
        ret,
    })
}

/// A compiled row predicate: SQL semantics, Null filters out.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    pub program: Program,
}

impl CompiledPredicate {
    pub fn new(program: Program) -> CompiledPredicate {
        CompiledPredicate { program }
    }

    /// True exactly when the program yields `Boolean(true)` (Null and false
    /// both filter out, like `eval_pred`).
    pub fn matches(&self, regs: &mut Registers<'_>, ctx: &EvalCtx<'_>) -> Result<bool, Exception> {
        Ok(matches!(self.program.run(regs, ctx)?, Value::Boolean(true)))
    }
}

/// A compiled projection: one program per output column, with `None`
/// marking columns the caller evaluates through the interpreter.
#[derive(Debug, Clone, Default)]
pub struct CompiledProjection {
    pub columns: Vec<Option<Program>>,
}

impl CompiledProjection {
    pub fn column(&self, i: usize) -> Option<&Program> {
        self.columns.get(i).and_then(|c| c.as_ref())
    }

    /// True when at least one column compiled.
    pub fn any(&self) -> bool {
        self.columns.iter().any(|c| c.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{compile, eval};

    fn ctx<'c>(v: &'c Value, args: &'c [(String, Value)]) -> EvalCtx<'c> {
        EvalCtx {
            self_value: v,
            args,
            resolver: None,
            dispatcher: None,
        }
    }

    /// Compile in Body mode and check the program agrees with the
    /// interpreter on the same context.
    fn assert_agrees(src: &str, v: &Value, args: &[(String, Value)]) {
        let expr = compile(src).unwrap();
        let names: Vec<String> = args.iter().map(|(n, _)| n.clone()).collect();
        let opts = CompileOpts::body(&names);
        let prog = compile_program(&expr, &opts).unwrap();
        let c = ctx(v, args);
        let mut regs = Registers::default();
        let compiled = prog.run(&mut regs, &c);
        let interpreted = eval(&expr, &c);
        assert_eq!(compiled, interpreted, "divergence on {src}");
    }

    #[test]
    fn body_mode_agrees_with_interpreter() {
        let v = Value::tuple(vec![
            ("weight", Value::Integer(1000)),
            ("name", Value::string("BMW")),
            ("rating", Value::Float(4.5)),
            ("missing_t", Value::Null),
        ]);
        for src in [
            "weight * 2.2075",
            "weight > 500 && weight <= 1500 || false",
            "name == \"BMW\"",
            "name == 'Audi'",
            "!(weight == 1000)",
            "2 + 3 * 4 - 6 / 2",
            "weight % 7",
            "-weight + 1",
            "rating >= 4.5 && name != \"Audi\"",
            "missing_t == 1",
            "true && missing_t > 0",
        ] {
            assert_agrees(src, &v, &[]);
        }
    }

    #[test]
    fn body_mode_errors_match_interpreter() {
        let v = Value::tuple(vec![("weight", Value::Integer(10))]);
        for src in ["nonexistent + 1", "weight && true", "1 / 0"] {
            let expr = compile(src).unwrap();
            let opts = CompileOpts::body(&[]);
            match compile_program(&expr, &opts) {
                Ok(prog) => {
                    let c = ctx(&v, &[]);
                    let mut regs = Registers::default();
                    assert_eq!(prog.run(&mut regs, &c), eval(&expr, &c), "on {src}");
                }
                // A compile-time rejection is fine: the caller falls back
                // to the interpreter (which raises the same error per row).
                Err(e) => assert_eq!(e.kind, ExceptionKind::CompileError, "on {src}"),
            }
        }
    }

    #[test]
    fn parameters_bind_to_slots() {
        let v = Value::tuple(vec![
            ("weight", Value::Integer(10)),
            ("factor", Value::Integer(99)),
        ]);
        let args = vec![("factor".to_string(), Value::Integer(2))];
        assert_agrees("weight * factor", &v, &args);
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        let v = Value::Tuple(vec![]);
        assert_agrees("false && (1/0 == 1)", &v, &[]);
        assert_agrees("true || (1/0 == 1)", &v, &[]);
    }

    #[test]
    fn constants_are_pooled_once() {
        let expr = compile("name == \"a-fairly-long-string-constant\"").unwrap();
        let opts = CompileOpts::body(&[]);
        let prog = compile_program(&expr, &opts).unwrap();
        assert_eq!(prog.const_count(), 1);
        // Repeated literals dedupe.
        let expr = compile("name == \"x\" || name == \"x\"").unwrap();
        let prog = compile_program(&expr, &CompileOpts::body(&[])).unwrap();
        assert_eq!(prog.const_count(), 1);
    }

    #[test]
    fn provable_type_mismatch_is_a_compile_error() {
        let expr = compile("5 > 'abc'").unwrap();
        let e = compile_program(&expr, &CompileOpts::body(&[])).unwrap_err();
        assert_eq!(e.kind, ExceptionKind::CompileError);
        // With a schema hint, path-vs-literal mismatches are caught too.
        let expr = compile("name > 5").unwrap();
        let kind_fn = |segs: &[String]| {
            if segs == ["name"] {
                StaticKind::Str
            } else {
                StaticKind::Unknown
            }
        };
        let opts = CompileOpts::body(&[]).with_attr_kind(&kind_fn);
        let e = compile_program(&expr, &opts).unwrap_err();
        assert_eq!(e.kind, ExceptionKind::CompileError);
    }

    #[test]
    fn sql_mode_null_and_fold_semantics() {
        // Sql mode: missing tuple fields read as Null; AND over a Null part
        // is Null (filters out) unless a false part short-circuits.
        let expr = Expr::Binary(
            BinOp::And,
            Box::new(Expr::Binary(
                BinOp::Eq,
                Box::new(Expr::Path(vec!["self".into(), "gone".into()])),
                Box::new(Expr::int(1)),
            )),
            Box::new(Expr::Lit(Value::Boolean(true))),
        );
        let prog = compile_program(&expr, &CompileOpts::sql("x")).unwrap();
        let v = Value::tuple(vec![("present", Value::Integer(1))]);
        let c = ctx(&v, &[]);
        let mut regs = Registers::default();
        assert_eq!(prog.run(&mut regs, &c).unwrap(), Value::Null);
        let pred = CompiledPredicate::new(prog);
        assert!(!pred.matches(&mut regs, &c).unwrap());
    }

    #[test]
    fn sql_mode_and_error_matches_executor_text() {
        let expr = Expr::Binary(
            BinOp::And,
            Box::new(Expr::Path(vec!["self".into(), "n".into()])),
            Box::new(Expr::Lit(Value::Boolean(true))),
        );
        let prog = compile_program(&expr, &CompileOpts::sql("x")).unwrap();
        let v = Value::tuple(vec![("n", Value::Integer(3))]);
        let c = ctx(&v, &[]);
        let mut regs = Registers::default();
        let e = prog.run(&mut regs, &c).unwrap_err();
        assert_eq!(e.kind, ExceptionKind::Query);
        assert_eq!(e.message, "AND over non-Boolean 3");
    }

    #[test]
    fn sql_between_evaluates_all_operands() {
        // `5 BETWEEN 10 AND x.s` with a string bound: MOODSQL evaluates all
        // three operands before comparing, so this errors rather than
        // short-circuiting to false on 5 < 10.
        let expr = Expr::Between(
            Box::new(Expr::int(5)),
            Box::new(Expr::int(10)),
            Box::new(Expr::Path(vec!["self".into(), "s".into()])),
        );
        let prog = compile_program(&expr, &CompileOpts::sql("x")).unwrap();
        let v = Value::tuple(vec![("s", Value::string("zz"))]);
        let c = ctx(&v, &[]);
        let mut regs = Registers::default();
        let e = prog.run(&mut regs, &c).unwrap_err();
        assert_eq!(e.message, "BETWEEN on incomparable values");
        // In range when the bound is comparable.
        let expr = Expr::Between(
            Box::new(Expr::Path(vec!["self".into(), "n".into()])),
            Box::new(Expr::int(1)),
            Box::new(Expr::int(10)),
        );
        let prog = compile_program(&expr, &CompileOpts::sql("x")).unwrap();
        let v = Value::tuple(vec![("n", Value::Integer(5))]);
        let c = ctx(&v, &[]);
        assert_eq!(prog.run(&mut regs, &c).unwrap(), Value::Boolean(true));
    }

    #[test]
    fn slot_hints_resolve_and_survive_reordering() {
        let expr = compile("b == 2").unwrap();
        let slot_fn = |name: &str| if name == "b" { Some(1u16) } else { None };
        let opts = CompileOpts::body(&[]).with_root_slot(&slot_fn);
        let prog = compile_program(&expr, &opts).unwrap();
        let mut regs = Registers::default();
        // Hint correct: field at slot 1.
        let v = Value::tuple(vec![("a", Value::Integer(1)), ("b", Value::Integer(2))]);
        assert_eq!(
            prog.run(&mut regs, &ctx(&v, &[])).unwrap(),
            Value::Boolean(true)
        );
        // Hint stale (fields reordered): name check falls back to the scan.
        let v = Value::tuple(vec![("b", Value::Integer(2)), ("a", Value::Integer(1))]);
        assert_eq!(
            prog.run(&mut regs, &ctx(&v, &[])).unwrap(),
            Value::Boolean(true)
        );
    }

    #[test]
    fn path_traversal_through_refs() {
        use mood_storage::{FileId, Oid, PageId, SlotId};
        use std::collections::HashMap;
        let engine_oid = Oid::new(FileId(1), PageId(0), SlotId(0), 1);
        let mut store = HashMap::new();
        store.insert(
            engine_oid,
            Value::tuple(vec![("cylinders", Value::Integer(6))]),
        );
        let car = Value::tuple(vec![("engine", Value::Ref(engine_oid))]);
        let expr = compile("self.engine.cylinders * 2").unwrap();
        let prog = compile_program(&expr, &CompileOpts::body(&[])).unwrap();
        let c = EvalCtx {
            self_value: &car,
            args: &[],
            resolver: Some(&store),
            dispatcher: None,
        };
        let mut regs = Registers::default();
        assert_eq!(prog.run(&mut regs, &c).unwrap(), Value::Integer(12));
        assert_eq!(prog.run(&mut regs, &c), eval(&expr, &c));
    }

    #[test]
    fn calls_dispatch_in_body_mode_only() {
        let expr = compile("lbweight() + 1").unwrap();
        let e = compile_program(&expr, &CompileOpts::sql("x")).unwrap_err();
        assert_eq!(e.kind, ExceptionKind::CompileError);
        let prog = compile_program(&expr, &CompileOpts::body(&[])).unwrap();
        let v = Value::tuple(vec![("weight", Value::Integer(100))]);
        let dispatch = |name: &str, _args: &[Value]| -> Result<Value, Exception> {
            assert_eq!(name, "lbweight");
            Ok(Value::Integer(220))
        };
        let c = EvalCtx {
            self_value: &v,
            args: &[],
            resolver: None,
            dispatcher: Some(&dispatch),
        };
        let mut regs = Registers::default();
        assert_eq!(prog.run(&mut regs, &c).unwrap(), Value::Integer(221));
    }

    #[test]
    fn parameters_read_the_slice_bound_on_the_registers() {
        let shaped = Expr::Binary(
            BinOp::Eq,
            Box::new(Expr::Path(vec!["self".into(), "weight".into()])),
            Box::new(Expr::Param(0, StaticKind::Num)),
        );
        let prog = compile_program(&shaped, &CompileOpts::sql("v")).unwrap();
        assert_eq!(prog.const_count(), 0);
        let v = Value::tuple(vec![("weight", Value::Integer(600))]);
        // One program, any value: each execution binds its own.
        for (bound, expect) in [(600, true), (601, false)] {
            let params = [Value::Integer(bound)];
            let mut regs = Registers::with_params(&params);
            let out = prog.run(&mut regs, &ctx(&v, &[])).unwrap();
            assert_eq!(out, Value::Boolean(expect));
        }
        // Nothing bound is an exception, not an index panic.
        let err = prog
            .run(&mut Registers::default(), &ctx(&v, &[]))
            .unwrap_err();
        assert_eq!(err.kind, ExceptionKind::Query);
        // The declared class takes part in compile-time checking exactly
        // as a literal of that class would.
        let kind_fn = |_: &[String]| StaticKind::Num;
        let opts = CompileOpts::sql("v").with_attr_kind(&kind_fn);
        let ill_typed = Expr::Binary(
            BinOp::Eq,
            Box::new(Expr::Path(vec!["self".into(), "weight".into()])),
            Box::new(Expr::Param(0, StaticKind::Str)),
        );
        assert!(compile_program(&ill_typed, &opts).is_err());
    }

    #[test]
    fn register_scratch_is_reused_across_rows() {
        let expr = compile("weight > 500").unwrap();
        let prog = compile_program(&expr, &CompileOpts::body(&[])).unwrap();
        let mut regs = Registers::default();
        for w in [100, 600, 1000, 400] {
            let v = Value::tuple(vec![("weight", Value::Integer(w))]);
            let out = prog.run(&mut regs, &ctx(&v, &[])).unwrap();
            assert_eq!(out, Value::Boolean(w > 500));
        }
    }
}
