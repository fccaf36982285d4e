//! The one evaluator: register programs.
//!
//! The paper's Function Manager compiles method bodies once at definition
//! time and re-executes the compiled form per call (Section 2). Everything
//! the engine evaluates per object goes the same way: an [`Expr`] tree — a
//! method body, or an expression of a MOODSQL statement — is lowered once
//! into a flat register program and only the program ever runs. Constants
//! live in a preallocated pool (no per-row `String` clones), a path's root
//! is bound at compile time to `self` or to an argument slot (a method
//! parameter, a statement's range variable), each step remembers where the
//! last tuple had its attribute (checked against the name, so any other
//! shape only costs the search), And/Or short-circuit through
//! forward jumps, method calls go out through the context's dispatcher.
//! Nothing is checked statically: an ill-typed comparison raises when (and
//! only when) a row reaches it, so it is an empty answer over an empty
//! extent. What the compiler does refuse is an expression past its `u16`
//! register, constant, path or parameter limits — a `CompileError`.
//!
//! Two semantic modes, one per language:
//!
//! * [`Mode::Sql`] is MOODSQL — comparisons through `Value::compare` with
//!   Null propagation, n-ary And/Or folds that error on non-Boolean parts,
//!   missing tuple fields reading as Null (schema evolution), an unbound
//!   range variable an error for whatever reads it.
//! * [`Mode::Body`] is the method-body language of [`crate::expr`] —
//!   `OperandDataType` comparisons, binary And/Or truth tables, missing
//!   fields raising `UnknownIdentifier`.
//!
//! Programs are immutable and `Sync`; per-row scratch lives in a
//! caller-provided [`Registers`] so parallel scan chunks reuse one
//! allocation per worker, not one per row.

use std::cmp::Ordering;
use std::sync::atomic::{AtomicU16, Ordering::Relaxed};

use mood_datamodel::Value;

use crate::exception::{Exception, ExceptionKind};
use crate::expr::{Arg, BinOp, EvalCtx, Expr, Receiver, UnOp};
use crate::operand::OperandDataType as Op;

/// Which language's semantics the program has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// MOODSQL (`Value::compare`, n-ary And/Or, missing tuple field →
    /// Null).
    Sql,
    /// The method-body language (`OperandDataType`, binary And/Or, missing
    /// field → `UnknownIdentifier`).
    Body,
}

/// Compilation options.
pub struct CompileOpts<'a> {
    pub mode: Mode,
    /// The names of the argument slots, in slot order: a method's
    /// parameters in signature order (Body), the range variables an
    /// expression reads (Sql). A path rooted at one binds to its slot of
    /// [`EvalCtx::args`] at compile time; slots shadow `self` and its
    /// attributes.
    pub params: &'a [String],
    /// What `self` is called in Sql-mode error messages (`no attribute a on
    /// x (path x.a, ...)`).
    pub label: &'a str,
}

impl<'a> CompileOpts<'a> {
    /// MOODSQL semantics over `self` alone, known to messages as `label`.
    pub fn sql(label: &'a str) -> CompileOpts<'a> {
        CompileOpts {
            mode: Mode::Sql,
            params: &[],
            label,
        }
    }

    /// MOODSQL semantics over range variables, one argument slot each.
    pub fn sql_over(vars: &'a [String]) -> CompileOpts<'a> {
        CompileOpts {
            params: vars,
            ..CompileOpts::sql("self")
        }
    }

    pub fn body(params: &'a [String]) -> CompileOpts<'a> {
        CompileOpts {
            mode: Mode::Body,
            params,
            label: "self",
        }
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
    /// A named argument slot — a method parameter, a range variable —
    /// bound at compile time.
    Arg(u16),
}

/// One step of a path: the attribute's name, and the position the last
/// tuple had it at. That position is tried first, so over tuples of one
/// shape — a scan's, whole or pruned to the read set — a step is one name
/// comparison however wide the tuple; any other shape costs the search
/// by name and moves the guess.
#[derive(Debug)]
struct Seg {
    name: String,
    at: AtomicU16,
}

impl Seg {
    fn new(name: &str) -> Seg {
        Seg {
            name: name.to_string(),
            at: AtomicU16::new(0),
        }
    }

    fn find(&self, fields: &[(String, Value)]) -> Option<usize> {
        let at = self.at.load(Relaxed) as usize;
        if fields.get(at).is_some_and(|(n, _)| *n == self.name) {
            return Some(at);
        }
        let found = fields.iter().position(|(n, _)| *n == self.name)?;
        self.at.store(u16::try_from(found).unwrap_or(0), Relaxed);
        Some(found)
    }
}

impl Clone for Seg {
    fn clone(&self) -> Seg {
        Seg {
            name: self.name.clone(),
            at: AtomicU16::new(self.at.load(Relaxed)),
        }
    }
}

/// A pre-resolved attribute path.
#[derive(Debug, Clone)]
struct PathPlan {
    root: PathRoot,
    /// The path started with a bare identifier (Body mode: a missing root
    /// attribute is an *unknown identifier*, not a missing attribute).
    root_ident: bool,
    /// The attributes after the root.
    segs: Vec<Seg>,
    /// Original root token, for unknown-identifier messages.
    root_name: String,
    /// What the root is called in Sql-mode error messages: the range
    /// variable, or `self`'s label.
    label: String,
    /// Rendered path text (Sql-mode error messages).
    rendered: String,
}

/// What a [`Inst::Call`] dispatches on.
#[derive(Debug, Clone, Copy)]
enum CallOn {
    /// `self` (the body language).
    Myself,
    /// The object bound to an argument slot: it is at hand, with its OID.
    Slot(u16),
    /// The reference a path ended at.
    Ref(Src),
}

#[derive(Debug, Clone)]
enum Inst {
    /// Navigate `paths[plan]` and store the result.
    Path { dst: u16, plan: u16 },
    /// Copy a value into a register.
    Set { dst: u16, src: Src },
    /// Raise unless the value is atomic (the body language's operand
    /// check, kept in evaluation order).
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
    /// Arithmetic through `OperandDataType` (the same in both modes).
    Arith { dst: u16, op: char, lhs: Src, rhs: Src },
    /// Unary minus (`0 - x`).
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
    /// Method dispatch through the context's dispatcher. The payload is
    /// boxed so the instructions a predicate is made of stay 16 bytes.
    Call { dst: u16, call: Box<Call> },
    /// Fail with the message at `consts[message]`.
    Raise { message: u16 },
}

/// What an [`Inst::Call`] invokes. `base` is the receiver as written, for
/// the no-stored-receiver message.
#[derive(Debug, Clone)]
struct Call {
    on: CallOn,
    name: String,
    args: Vec<Src>,
    base: String,
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

    /// Registers held: the end of the highest window a program has run in.
    pub fn held(&self) -> usize {
        self.slots.len()
    }

    fn prepare(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Value::Null);
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

    fn value<'v>(&'v self, s: Src, slots: &'v [Value], params: &'v [Value]) -> &'v Value {
        match s {
            Src::Reg(i) => &slots[i as usize],
            Src::Const(i) => &self.consts[i as usize],
            // In range: `run` checked `nparams` against the bound slice.
            Src::Param(i) => &params[i as usize],
        }
    }

    /// Execute against a context, reusing `regs` as scratch. The result is
    /// lent: it lives in a register or the constant pool until the next
    /// run, and a caller that keeps it clones it. A path overwrites its
    /// register in place, reusing the string or vector the register held,
    /// so a program run over objects of one shape allocates nothing for
    /// the values it reads.
    pub fn run<'r>(
        &'r self,
        regs: &'r mut Registers<'_>,
        ctx: &EvalCtx<'_>,
    ) -> Result<&'r Value, Exception> {
        self.run_at(regs, 0, ctx)
    }

    /// [`Program::run`] in the registers `base..base + register_count()` of
    /// `regs`: programs given windows of their own in one register file
    /// each find there what they left, whatever ran in between.
    pub fn run_at<'r>(
        &'r self,
        regs: &'r mut Registers<'_>,
        base: usize,
        ctx: &EvalCtx<'_>,
    ) -> Result<&'r Value, Exception> {
        if regs.params.len() < self.nparams as usize {
            return Err(query_err(format!(
                "unbound parameter ${} ({} bound)",
                self.nparams,
                regs.params.len()
            )));
        }
        let end = base + self.nregs as usize;
        regs.prepare(end);
        let params = regs.params;
        let slots = &mut regs.slots[base..end];
        let mut pc = 0usize;
        while pc < self.insts.len() {
            match &self.insts[pc] {
                Inst::Path { dst, plan } => {
                    self.navigate(&self.paths[*plan as usize], ctx, &mut slots[*dst as usize])?;
                }
                Inst::Set { dst, src } => {
                    let to = *dst as usize;
                    match *src {
                        Src::Reg(i) => {
                            let v = slots[i as usize].clone();
                            slots[to] = v;
                        }
                        Src::Const(i) => slots[to].clone_from(&self.consts[i as usize]),
                        Src::Param(i) => slots[to].clone_from(&params[i as usize]),
                    }
                }
                Inst::Atomic { src } => {
                    Op::ensure_atomic(self.value(*src, slots, params))?;
                }
                Inst::CmpSql { dst, kind, lhs, rhs } => {
                    let out = {
                        let l = self.value(*lhs, slots, params);
                        let r = self.value(*rhs, slots, params);
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
                    slots[*dst as usize] = out;
                }
                Inst::CmpBody { dst, kind, lhs, rhs } => {
                    let out =
                        Op::cmp_op_values(kind.symbol(), self.value(*lhs, slots, params), self.value(*rhs, slots, params))?;
                    slots[*dst as usize] = out;
                }
                Inst::BetweenSql { dst, v, lo, hi } => {
                    let out = {
                        let v = self.value(*v, slots, params);
                        let lo = self.value(*lo, slots, params);
                        let hi = self.value(*hi, slots, params);
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
                    slots[*dst as usize] = out;
                }
                Inst::BetweenBody { dst, v, lo, hi } => {
                    let out = {
                        let v = self.value(*v, slots, params);
                        let lo = self.value(*lo, slots, params);
                        let hi = self.value(*hi, slots, params);
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
                    slots[*dst as usize] = out;
                }
                Inst::Arith { dst, op, lhs, rhs } => {
                    let out = {
                        let l = Op::from_value(self.value(*lhs, slots, params))?;
                        let r = Op::from_value(self.value(*rhs, slots, params))?;
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
                    slots[*dst as usize] = out;
                }
                Inst::Neg { dst, src } => {
                    let out = Op::from_value(self.value(*src, slots, params))?.neg()?.into_value();
                    slots[*dst as usize] = out;
                }
                Inst::NotSql { dst, src } => {
                    let out = match self.value(*src, slots, params) {
                        Value::Boolean(b) => Value::Boolean(!b),
                        Value::Null => Value::Null,
                        other => return Err(query_err(format!("NOT over non-Boolean {other}"))),
                    };
                    slots[*dst as usize] = out;
                }
                Inst::NotBody { dst, src } => {
                    let out = Op::from_value(self.value(*src, slots, params))?.not()?.into_value();
                    slots[*dst as usize] = out;
                }
                Inst::AndStep { acc, src, end } => {
                    // 0 = short-circuit false, 1 = keep, 2 = mark Null.
                    let act = match self.value(*src, slots, params) {
                        Value::Boolean(false) => 0u8,
                        Value::Boolean(true) => 1,
                        Value::Null => 2,
                        other => {
                            return Err(query_err(format!("AND over non-Boolean {other}")))
                        }
                    };
                    match act {
                        0 => {
                            slots[*acc as usize] = Value::Boolean(false);
                            pc = *end as usize;
                            continue;
                        }
                        2 => slots[*acc as usize] = Value::Null,
                        _ => {}
                    }
                }
                Inst::OrStep { acc, src, end } => {
                    let act = match self.value(*src, slots, params) {
                        Value::Boolean(true) => 0u8,
                        Value::Boolean(false) => 1,
                        Value::Null => 2,
                        other => return Err(query_err(format!("OR over non-Boolean {other}"))),
                    };
                    match act {
                        0 => {
                            slots[*acc as usize] = Value::Boolean(true);
                            pc = *end as usize;
                            continue;
                        }
                        2 => slots[*acc as usize] = Value::Null,
                        _ => {}
                    }
                }
                Inst::AndBody { acc, rhs } => {
                    let out = and_body(&slots[*acc as usize], self.value(*rhs, slots, params))?;
                    slots[*acc as usize] = out;
                }
                Inst::OrBody { acc, rhs } => {
                    let out = or_body(&slots[*acc as usize], self.value(*rhs, slots, params))?;
                    slots[*acc as usize] = out;
                }
                Inst::JumpIfFalse { src, target } => {
                    if matches!(self.value(*src, slots, params), Value::Boolean(false)) {
                        pc = *target as usize;
                        continue;
                    }
                }
                Inst::JumpIfTrue { src, target } => {
                    if matches!(self.value(*src, slots, params), Value::Boolean(true)) {
                        pc = *target as usize;
                        continue;
                    }
                }
                Inst::Call { dst, call } => {
                    let Call {
                        on,
                        name,
                        args,
                        base,
                    } = &**call;
                    let dispatcher = ctx.dispatcher.ok_or_else(|| {
                        Exception::new(
                            ExceptionKind::MissingFunction,
                            format!("method call {name}() outside a dispatching context"),
                        )
                    })?;
                    // The receiver must be a stored object: a bound one is
                    // dispatched on as it is, a reference by its OID.
                    let receiver = match on {
                        CallOn::Myself => Some(Receiver::Myself),
                        CallOn::Slot(i) => match ctx.args.get(*i as usize) {
                            Some(Arg::Object(oid, value)) => {
                                Some(Receiver::Object { oid: *oid, value })
                            }
                            _ => None,
                        },
                        CallOn::Ref(src) => self.value(*src, slots, params).as_oid().map(Receiver::Ref),
                    };
                    let receiver = receiver.ok_or_else(|| {
                        query_err(format!(
                            "method {name}() needs a stored receiver ({base} unresolved)"
                        ))
                    })?;
                    let vals: Vec<Value> =
                        args.iter().map(|a| self.value(*a, slots, params).clone()).collect();
                    let out = dispatcher(receiver, name, &vals)?;
                    slots[*dst as usize] = out;
                }
                Inst::Raise { message } => {
                    let Value::String(text) = &self.consts[*message as usize] else {
                        unreachable!("Raise indexes a string constant")
                    };
                    return Err(query_err(text.clone()));
                }
            }
            pc += 1;
        }
        Ok(self.value(self.ret, slots, params))
    }

    /// Walk a pre-resolved path into `out`. Values stay borrowed until a
    /// reference dereference or the terminal copy, which reuses what `out`
    /// holds; owned tuples move their field out instead of cloning.
    fn navigate(&self, plan: &PathPlan, ctx: &EvalCtx<'_>, out: &mut Value) -> Result<(), Exception> {
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
                Some(Arg::Value(v)) => Cur::B(v),
                // A stored object read whole is its reference.
                Some(Arg::Object(oid, _)) if plan.segs.is_empty() => {
                    *out = Value::Ref(*oid);
                    return Ok(());
                }
                Some(Arg::Object(_, v)) => Cur::B(v),
                Some(Arg::Unbound) | None => {
                    return Err(match self.mode {
                        Mode::Sql => {
                            query_err(format!("unbound range variable {}", plan.root_name))
                        }
                        Mode::Body => Exception::new(
                            ExceptionKind::UnknownIdentifier,
                            format!("unknown identifier {}", plan.root_name),
                        ),
                    })
                }
            },
        };
        for (i, seg) in plan.segs.iter().enumerate() {
            // Dereference as many times as needed to reach a tuple.
            loop {
                let oid = match cur.as_ref() {
                    Value::Ref(oid) => *oid,
                    Value::Null => {
                        *out = Value::Null;
                        return Ok(());
                    }
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
                    Value::Tuple(fields) => match seg.find(fields) {
                        Some(at) => Cur::B(&fields[at].1),
                        None => {
                            *out = self.missing_field(plan, i)?;
                            return Ok(());
                        }
                    },
                    other => return Err(self.not_navigable(plan, i, other)),
                },
                Cur::O(v) => match v {
                    Value::Tuple(mut fields) => match seg.find(&fields) {
                        Some(at) => Cur::O(fields.swap_remove(at).1),
                        None => {
                            *out = self.missing_field(plan, i)?;
                            return Ok(());
                        }
                    },
                    other => return Err(self.not_navigable(plan, i, &other)),
                },
            };
        }
        match cur {
            Cur::B(v) => out.clone_from(v),
            Cur::O(v) => *out = v,
        }
        Ok(())
    }

    /// Tuple has no such field. Sql: reads as Null (schema evolution: an
    /// object stored before the attribute was added). Body: unknown
    /// identifier.
    fn missing_field(&self, plan: &PathPlan, seg_i: usize) -> Result<Value, Exception> {
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
    fn not_navigable(&self, plan: &PathPlan, seg_i: usize, value: &Value) -> Exception {
        let seg = &plan.segs[seg_i].name;
        match self.mode {
            Mode::Sql => query_err(format!(
                "no attribute {seg} on {} (path {}, value {value})",
                plan.label, plan.rendered
            )),
            Mode::Body => {
                if seg_i == 0 && plan.root_ident {
                    // A bare identifier that is no attribute of `self` —
                    // whatever `self` is — is an unknown identifier.
                    Exception::new(
                        ExceptionKind::UnknownIdentifier,
                        format!("unknown identifier {}", plan.root_name),
                    )
                } else {
                    Exception::type_error(format!("cannot navigate into {value} with .{seg}"))
                }
            }
        }
    }
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

    fn konst(&mut self, v: &Value) -> Result<u16, Exception> {
        let at = match self.consts.iter().position(|c| c == v) {
            Some(at) => at,
            None => {
                self.consts.push(v.clone());
                self.consts.len() - 1
            }
        };
        u16::try_from(at).map_err(|_| compile_err("too many constants"))
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
            Expr::Lit(v) => Ok(Src::Const(self.konst(v)?)),
            Expr::Raise(message) => {
                let message = self.konst(&Value::String(message.clone()))?;
                self.insts.push(Inst::Raise { message });
                // Never read: the instruction does not fall through.
                Ok(Src::Reg(self.alloc()?))
            }
            Expr::Param(i) => {
                if *i == u16::MAX {
                    return Err(compile_err("too many parameters"));
                }
                self.nparams = self.nparams.max(*i + 1);
                Ok(Src::Param(*i))
            }
            Expr::Path(p) => {
                let plan = self.path_plan(p)?;
                let idx =
                    u16::try_from(self.paths.len()).map_err(|_| compile_err("too many paths"))?;
                self.paths.push(plan);
                let dst = self.alloc()?;
                self.insts.push(Inst::Path { dst, plan: idx });
                Ok(Src::Reg(dst))
            }
            Expr::Unary(UnOp::Neg, inner) => {
                let src = self.emit(inner)?;
                let dst = self.alloc()?;
                self.insts.push(Inst::Neg { dst, src });
                Ok(Src::Reg(dst))
            }
            Expr::Unary(UnOp::Not, inner) => {
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
                    let l = self.emit(lhs)?;
                    if self.opts.mode == Mode::Body {
                        // The body language checks the left operand before
                        // it evaluates the right: keep that error order.
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
            Expr::Call(receiver, name, args) => {
                // Arguments first, then the receiver: the order their
                // errors surface in.
                let mut srcs = Vec::with_capacity(args.len());
                for a in args {
                    srcs.push(self.emit(a)?);
                }
                let (on, base) = match receiver.as_deref() {
                    None => (CallOn::Myself, "self".to_string()),
                    Some(path @ Expr::Path(p)) => {
                        let slot = match p.as_slice() {
                            [var] => self.slot_of(var)?,
                            _ => None,
                        };
                        let on = match slot {
                            Some(i) => CallOn::Slot(i),
                            None => CallOn::Ref(self.emit(path)?),
                        };
                        (on, p.join("."))
                    }
                    Some(_) => return Err(compile_err("a method's receiver must be a path")),
                };
                let dst = self.alloc()?;
                let call = Box::new(Call {
                    on,
                    name: name.clone(),
                    args: srcs,
                    base,
                });
                self.insts.push(Inst::Call { dst, call });
                Ok(Src::Reg(dst))
            }
        }
    }

    /// Sql-mode n-ary And/Or: fold over the flattened part list, in order,
    /// with a sticky-Null accumulator and a short-circuit jump.
    fn emit_sql_fold(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Src, Exception> {
        let mut parts = Vec::new();
        Self::flatten(op, lhs, &mut parts);
        Self::flatten(op, rhs, &mut parts);
        let init = self.konst(&Value::Boolean(op == BinOp::And))?;
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

    /// Body-mode binary And/Or: short circuit on the left operand,
    /// atomicity checks in evaluation order.
    fn emit_body_logic(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Src, Exception> {
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

    /// The argument slot `name` is bound to, if it names one.
    fn slot_of(&self, name: &str) -> Result<Option<u16>, Exception> {
        match self.opts.params.iter().position(|n| n == name) {
            Some(i) => u16::try_from(i)
                .map(Some)
                .map_err(|_| compile_err("too many parameters")),
            None => Ok(None),
        }
    }

    fn path_plan(&self, p: &[String]) -> Result<PathPlan, Exception> {
        let Some(first) = p.first() else {
            return Err(compile_err("empty path"));
        };
        let (root, root_ident, segs, label) = if let Some(i) = self.slot_of(first)? {
            (PathRoot::Arg(i), false, &p[1..], first.as_str())
        } else if first == "self" {
            (PathRoot::SelfVal, false, &p[1..], self.opts.label)
        } else {
            // A bare identifier: a root attribute of self.
            (PathRoot::SelfVal, true, p, self.opts.label)
        };
        let rendered = if root_ident {
            p.join(".")
        } else {
            std::iter::once(label)
                .chain(segs.iter().map(String::as_str))
                .collect::<Vec<_>>()
                .join(".")
        };
        Ok(PathPlan {
            root,
            root_ident,
            segs: segs.iter().map(|name| Seg::new(name)).collect(),
            root_name: first.clone(),
            label: label.to_string(),
            rendered,
        })
    }
}

/// Lower an expression tree into a register program, or fail with a
/// `CompileError` exception: the expression is past one of the compiler's
/// `u16` limits.
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
    /// both filter out, per SQL).
    pub fn matches(&self, regs: &mut Registers<'_>, ctx: &EvalCtx<'_>) -> Result<bool, Exception> {
        Ok(matches!(self.program.run(regs, ctx)?, Value::Boolean(true)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::compile;
    use crate::expr::oracle::eval;

    fn ctx<'c>(v: &'c Value, args: &'c [Arg<'c>]) -> EvalCtx<'c> {
        EvalCtx {
            self_value: v,
            args,
            resolver: None,
            dispatcher: None,
        }
    }

    /// Compile in Body mode and check the program agrees with the
    /// reference evaluator on the same context.
    fn assert_agrees(src: &str, v: &Value, args: &[(&str, Value)]) {
        let expr = compile(src).unwrap();
        let names: Vec<String> = args.iter().map(|(n, _)| n.to_string()).collect();
        let prog = compile_program(&expr, &CompileOpts::body(&names)).unwrap();
        let slots: Vec<Arg<'_>> = args.iter().map(|(_, v)| Arg::Value(v)).collect();
        let c = ctx(v, &slots);
        let compiled = prog.run(&mut Registers::default(), &c).cloned();
        assert_eq!(compiled, eval(&expr, &names, &c), "divergence on {src}");
    }

    #[test]
    fn instructions_stay_small() {
        assert!(std::mem::size_of::<Inst>() <= 16);
    }

    #[test]
    fn body_mode_agrees_with_the_reference() {
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
    fn body_mode_errors_match_the_reference() {
        // Nothing is rejected statically: every one of these compiles and
        // raises what the reference raises, when it is run.
        let v = Value::tuple(vec![("weight", Value::Integer(10))]);
        for src in [
            "nonexistent + 1",
            "weight && true",
            "1 / 0",
            "5 > 'abc'",
            "!weight",
            "weight + 'kg'",
        ] {
            assert_agrees(src, &v, &[]);
            let expr = compile(src).unwrap();
            let prog = compile_program(&expr, &CompileOpts::body(&[])).unwrap();
            assert!(
                prog.run(&mut Registers::default(), &ctx(&v, &[])).cloned().is_err(),
                "on {src}"
            );
        }
    }

    #[test]
    fn parameters_bind_to_slots() {
        let v = Value::tuple(vec![
            ("weight", Value::Integer(10)),
            ("factor", Value::Integer(99)),
        ]);
        assert_agrees("weight * factor", &v, &[("factor", Value::Integer(2))]);
        // A declared parameter nothing was passed for.
        let expr = compile("weight * factor").unwrap();
        let names = ["factor".to_string()];
        let prog = compile_program(&expr, &CompileOpts::body(&names)).unwrap();
        let e = prog
            .run(&mut Registers::default(), &ctx(&v, &[]))
            .cloned()
            .unwrap_err();
        assert_eq!(e.kind, ExceptionKind::UnknownIdentifier);
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
    fn an_ill_typed_comparison_raises_only_when_a_row_reaches_it() {
        // `x.n > 'abc'` over an integer attribute can never succeed; it is
        // still a program, and what it raises is the per-row text.
        let expr = Expr::Binary(
            BinOp::Gt,
            Box::new(Expr::Path(vec!["self".into(), "n".into()])),
            Box::new(Expr::Lit(Value::string("abc"))),
        );
        let prog = compile_program(&expr, &CompileOpts::sql("x")).unwrap();
        let v = Value::tuple(vec![("n", Value::Integer(5))]);
        let e = prog
            .run(&mut Registers::default(), &ctx(&v, &[]))
            .cloned()
            .unwrap_err();
        assert_eq!(e.kind, ExceptionKind::Query);
        assert_eq!(e.message, "cannot compare 5 with 'abc'");
        // A NULL never reaches the comparison.
        let v = Value::tuple(vec![("n", Value::Null)]);
        let out = prog.run(&mut Registers::default(), &ctx(&v, &[])).cloned();
        assert_eq!(out.unwrap(), Value::Null);
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
        assert_eq!(prog.run(&mut regs, &c).cloned().unwrap(), Value::Null);
        let pred = CompiledPredicate::new(prog);
        assert!(!pred.matches(&mut regs, &c).unwrap());
    }

    #[test]
    fn sql_mode_and_error_text() {
        let expr = Expr::Binary(
            BinOp::And,
            Box::new(Expr::Path(vec!["self".into(), "n".into()])),
            Box::new(Expr::Lit(Value::Boolean(true))),
        );
        let prog = compile_program(&expr, &CompileOpts::sql("x")).unwrap();
        let v = Value::tuple(vec![("n", Value::Integer(3))]);
        let c = ctx(&v, &[]);
        let mut regs = Registers::default();
        let e = prog.run(&mut regs, &c).cloned().unwrap_err();
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
        let e = prog.run(&mut regs, &c).cloned().unwrap_err();
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
        assert_eq!(prog.run(&mut regs, &c).cloned().unwrap(), Value::Boolean(true));
    }

    #[test]
    fn fields_are_found_by_name_whatever_their_order() {
        let expr = compile("b == 2").unwrap();
        let prog = compile_program(&expr, &CompileOpts::body(&[])).unwrap();
        let mut regs = Registers::default();
        for fields in [
            vec![("a", Value::Integer(1)), ("b", Value::Integer(2))],
            vec![("b", Value::Integer(2)), ("a", Value::Integer(1))],
            vec![("b", Value::Integer(2))],
        ] {
            let v = Value::tuple(fields);
            let out = prog.run(&mut regs, &ctx(&v, &[])).cloned();
            assert_eq!(out.unwrap(), Value::Boolean(true));
        }
    }

    #[test]
    fn remembered_field_positions_survive_other_shapes() {
        let prog = compile_program(&compile("b == 2").unwrap(), &CompileOpts::body(&[])).unwrap();
        let mut regs = Registers::default();
        let shapes = [
            vec![("a", Value::Integer(1)), ("b", Value::Integer(2))],
            // Reordered, pruned, widened, and the first shape again: the
            // position the last tuple had `b` at is only ever a guess.
            vec![("b", Value::Integer(2)), ("a", Value::Integer(1))],
            vec![("b", Value::Integer(2))],
            vec![("a", Value::Integer(2)), ("c", Value::Integer(2)), ("b", Value::Integer(2))],
            vec![("a", Value::Integer(1)), ("b", Value::Integer(2))],
        ];
        for fields in shapes {
            let v = Value::tuple(fields);
            assert_eq!(prog.run(&mut regs, &ctx(&v, &[])).cloned(), Ok(Value::Boolean(true)), "on {v}");
        }
        let v = Value::tuple(vec![("a", Value::Integer(2)), ("c", Value::Integer(2))]);
        assert!(prog.run(&mut regs, &ctx(&v, &[])).cloned().is_err(), "b is nowhere in {v}");
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
        assert_eq!(prog.run(&mut regs, &c).cloned().unwrap(), Value::Integer(12));
        assert_eq!(prog.run(&mut regs, &c).cloned(), eval(&expr, &[], &c));
    }

    #[test]
    fn calls_dispatch_on_self_in_either_mode() {
        let expr = compile("lbweight() + 1").unwrap();
        let v = Value::tuple(vec![("weight", Value::Integer(100))]);
        let dispatch = |on: Receiver<'_>, name: &str, _args: &[Value]| {
            assert!(matches!(on, Receiver::Myself));
            assert_eq!(name, "lbweight");
            Ok(Value::Integer(220))
        };
        let c = EvalCtx {
            self_value: &v,
            args: &[],
            resolver: None,
            dispatcher: Some(&dispatch),
        };
        for opts in [CompileOpts::body(&[]), CompileOpts::sql("x")] {
            let prog = compile_program(&expr, &opts).unwrap();
            let out = prog.run(&mut Registers::default(), &c).cloned();
            assert_eq!(out.unwrap(), Value::Integer(221));
        }
    }

    /// `v.id < w.id`, `v`, `v.m(w.id)` and `w.boss.m()` over the range
    /// variables `[v, w]`.
    #[test]
    fn range_variables_are_argument_slots() {
        use mood_storage::{FileId, Oid, PageId, SlotId};
        let oid = |n| Oid::new(FileId(1), PageId(0), SlotId(n), 1);
        let vars = ["v".to_string(), "w".to_string()];
        let opts = CompileOpts::sql_over(&vars);
        let path = |segs: &[&str]| Expr::Path(segs.iter().map(|s| s.to_string()).collect());
        let run = |e: &Expr, args: &[Arg<'_>]| {
            let called = |on: Receiver<'_>, name: &str, args: &[Value]| {
                assert_eq!(name, "m");
                Ok(match on {
                    // The bound object is handed over with its value.
                    Receiver::Object { oid, value } => {
                        assert_eq!(value.field("id"), Some(&Value::Integer(1)));
                        Value::List(vec![Value::Ref(oid), args[0].clone()])
                    }
                    Receiver::Ref(oid) => Value::Ref(oid),
                    Receiver::Myself => unreachable!(),
                })
            };
            let c = EvalCtx {
                self_value: &Value::Null,
                args,
                resolver: None,
                dispatcher: Some(&called),
            };
            compile_program(e, &opts)
                .unwrap()
                .run(&mut Registers::default(), &c).cloned()
        };
        let (v, w) = (
            Value::tuple(vec![("id", Value::Integer(1))]),
            Value::tuple(vec![
                ("id", Value::Integer(2)),
                ("boss", Value::Ref(oid(9))),
            ]),
        );
        let both = [Arg::Object(oid(1), &v), Arg::Object(oid(2), &w)];
        let less = Expr::Binary(
            BinOp::Lt,
            Box::new(path(&["v", "id"])),
            Box::new(path(&["w", "id"])),
        );
        assert_eq!(run(&less, &both).unwrap(), Value::Boolean(true));
        // A stored object read whole is its reference; a transient one its
        // value; an unbound one an error — only for what reads it.
        assert_eq!(run(&path(&["v"]), &both).unwrap(), Value::Ref(oid(1)));
        let transient = [Arg::Value(&v), Arg::Unbound];
        assert_eq!(run(&path(&["v"]), &transient).unwrap(), v);
        let e = run(&less, &transient).unwrap_err();
        assert_eq!(
            (e.kind, e.message.as_str()),
            (ExceptionKind::Query, "unbound range variable w")
        );
        let skipped = Expr::Binary(
            BinOp::And,
            Box::new(Expr::Lit(Value::Boolean(false))),
            Box::new(less),
        );
        assert_eq!(run(&skipped, &transient).unwrap(), Value::Boolean(false));
        // Methods: on the variable (no fetch: the dispatcher gets the bound
        // value), with an argument, and on a reference at a path's end.
        let on_var = Expr::Call(
            Some(Box::new(path(&["v"]))),
            "m".into(),
            vec![path(&["w", "id"])],
        );
        assert_eq!(
            run(&on_var, &both).unwrap(),
            Value::List(vec![Value::Ref(oid(1)), Value::Integer(2)])
        );
        let on_ref = Expr::Call(Some(Box::new(path(&["w", "boss"]))), "m".into(), vec![]);
        assert_eq!(run(&on_ref, &both).unwrap(), Value::Ref(oid(9)));
        // No stored receiver: a transient binding, a non-reference value.
        let e = run(&on_var, &[Arg::Value(&v), both[1]]).unwrap_err();
        assert_eq!(
            e.message,
            "method m() needs a stored receiver (v unresolved)"
        );
        let on_int = Expr::Call(Some(Box::new(path(&["w", "id"]))), "m".into(), vec![]);
        let e = run(&on_int, &both).unwrap_err();
        assert_eq!(
            e.message,
            "method m() needs a stored receiver (w.id unresolved)"
        );
        // An attribute of a non-tuple names the variable it was read off.
        let e = run(&path(&["w", "id", "x"]), &both).unwrap_err();
        assert_eq!(e.message, "no attribute x on w (path w.id.x, value 2)");
    }

    #[test]
    fn raise_fails_only_when_reached() {
        let guarded = |guard: bool| {
            let e = Expr::Binary(
                BinOp::And,
                Box::new(Expr::Lit(Value::Boolean(guard))),
                Box::new(Expr::Raise("aggregate outside GROUP BY context".into())),
            );
            compile_program(&e, &CompileOpts::sql("x"))
                .unwrap()
                .run(&mut Registers::default(), &ctx(&Value::Null, &[])).cloned()
        };
        assert_eq!(guarded(false).unwrap(), Value::Boolean(false));
        let e = guarded(true).unwrap_err();
        assert_eq!(
            (e.kind, e.message.as_str()),
            (ExceptionKind::Query, "aggregate outside GROUP BY context")
        );
    }

    #[test]
    fn parameters_read_the_slice_bound_on_the_registers() {
        let shaped = Expr::Binary(
            BinOp::Eq,
            Box::new(Expr::Path(vec!["self".into(), "weight".into()])),
            Box::new(Expr::Param(0)),
        );
        let prog = compile_program(&shaped, &CompileOpts::sql("v")).unwrap();
        assert_eq!(prog.const_count(), 0);
        let v = Value::tuple(vec![("weight", Value::Integer(600))]);
        // One program, any value: each execution binds its own.
        for (bound, expect) in [(600, true), (601, false)] {
            let params = [Value::Integer(bound)];
            let mut regs = Registers::with_params(&params);
            let out = prog.run(&mut regs, &ctx(&v, &[])).cloned().unwrap();
            assert_eq!(out, Value::Boolean(expect));
        }
        // Nothing bound is an exception, not an index panic.
        let err = prog
            .run(&mut Registers::default(), &ctx(&v, &[]))
            .cloned()
            .unwrap_err();
        assert_eq!(err.kind, ExceptionKind::Query);
    }

    #[test]
    fn an_expression_past_the_register_limit_is_a_compile_error() {
        // 70 000 path arguments: one register each.
        let args = vec![Expr::Path(vec!["self".into(), "n".into()]); 70_000];
        let call = Expr::Call(None, "m".into(), args);
        for opts in [CompileOpts::body(&[]), CompileOpts::sql("x")] {
            let e = compile_program(&call, &opts).unwrap_err();
            assert_eq!(e.kind, ExceptionKind::CompileError);
        }
        // So is a parameter index the `u16` operand cannot address.
        let e = compile_program(&Expr::Param(u16::MAX), &CompileOpts::sql("x")).unwrap_err();
        assert_eq!(e.kind, ExceptionKind::CompileError);
    }

    #[test]
    fn a_path_result_is_lent_from_a_register_it_reuses() {
        let expr = Expr::Path(vec!["self".into(), "color".into()]);
        let prog = compile_program(&expr, &CompileOpts::sql("v")).unwrap();
        let weight = Expr::Path(vec!["self".into(), "weight".into()]);
        let other = compile_program(&weight, &CompileOpts::sql("v")).unwrap();
        let mut regs = Registers::default();
        let mut buffer = None;
        for color in ["yellow", "red", "blue", "white"] {
            let v = Value::tuple(vec![("color", Value::string(color)), ("weight", Value::Integer(9))]);
            let Value::String(out) = prog.run(&mut regs, &ctx(&v, &[])).unwrap() else {
                panic!("a string path yields a string");
            };
            assert_eq!(out, color);
            // The first, longest value sized the register's buffer; every
            // later one is copied into it.
            assert_eq!(*buffer.get_or_insert(out.as_ptr()), out.as_ptr(), "{color}");
            // Another program in a window of its own leaves it alone.
            let base = prog.register_count() as usize;
            let out = other.run_at(&mut regs, base, &ctx(&v, &[])).unwrap();
            assert_eq!(*out, Value::Integer(9));
            assert_eq!(regs.held(), base + other.register_count() as usize);
        }
    }

    #[test]
    fn register_scratch_is_reused_across_rows() {
        let expr = compile("weight > 500").unwrap();
        let prog = compile_program(&expr, &CompileOpts::body(&[])).unwrap();
        let mut regs = Registers::default();
        for w in [100, 600, 1000, 400] {
            let v = Value::tuple(vec![("weight", Value::Integer(w))]);
            let out = prog.run(&mut regs, &ctx(&v, &[])).cloned().unwrap();
            assert_eq!(out, Value::Boolean(w > 500));
        }
    }
}
