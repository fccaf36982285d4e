//! The method-body language: a C++-flavored expression syntax, and the
//! expression tree both compilers' front ends produce.
//!
//! MOOD method bodies are C++ source, pre-processed and compiled once when
//! the function is added (Section 2). Shipping a C++ compiler is out of
//! scope for the reproduction, so run-time-defined bodies are expressions in
//! a C++-expression-shaped language:
//!
//! ```text
//! int Vehicle::lbweight() { return weight * 2.2075; }
//!                                  ^^^^^^^^^^^^^^^^ this part
//! ```
//!
//! [`compile`] parses a body to an [`Expr`] and [`crate::compile`](mod@crate::compile) lowers
//! that to the register program the Function Manager runs — both when the
//! function is *added*, so errors surface then, not when it is called,
//! exactly like the paper's compile step. MOODSQL lowers its own expressions
//! to the same tree (the variants without surface syntax are its). Nothing
//! here evaluates an `Expr`: the tree walker at the end of this file is the
//! tests' reference for what a program must compute. Evaluation is run-time
//! type checked through [`crate::operand::OperandDataType`]. Identifier
//! resolution: parameters shadow attributes; `self.a`, bare `a` and dotted
//! paths `a.b.c` (dereferencing through the resolver) all work.

use mood_datamodel::{Resolver, Value};
use mood_storage::Oid;

use crate::exception::{Exception, ExceptionKind};

/// Parsed expression AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal, materialized as a [`Value`] once at compile time so the
    /// evaluator returns it by reference instead of re-allocating (string
    /// literals used to clone per evaluation, i.e. per row in a scan).
    Lit(Value),
    /// `a.b.c` — first segment may be `self`, a parameter or an attribute.
    Path(Vec<String>),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `v BETWEEN lo AND hi` — no surface syntax in the body language;
    /// constructed by embedders (MOODSQL lowers its `BETWEEN` here so the
    /// compiler can preserve its evaluate-all-operands semantics).
    Between(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `name(args...)` — a call to another method on `self`, or, with a
    /// receiver path (no surface syntax: MOODSQL lowers `v.m()` and
    /// `v.a.m()` here), on the stored object the path names or ends at.
    Call(Option<Box<Expr>>, String, Vec<Expr>),
    /// The value at this (0-based) index of the parameter slice bound on
    /// the [`crate::Registers`] a compiled program runs with. Like
    /// `Between`, no surface syntax: MOODSQL lowers its `$n` here.
    Param(u16),
    /// Fails with this message when (and only when) it is evaluated — what
    /// MOODSQL lowers an aggregate call outside a grouping context to.
    Raise(String),
}

impl Expr {
    /// Literal constructor for integers, with the same narrowing rule the
    /// evaluator historically applied: fits-in-i32 → `Integer`, else
    /// `LongInteger`.
    pub fn int(i: i64) -> Expr {
        match i32::try_from(i) {
            Ok(v) => Expr::Lit(Value::Integer(v)),
            Err(_) => Expr::Lit(Value::LongInteger(i)),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Int(i64),
    Float(f64),
    Str(String),
    Ident(String),
    Sym(&'static str),
}

fn lex(src: &str) -> Result<Vec<Tok>, Exception> {
    let mut toks = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    let err = |m: String| Exception::new(ExceptionKind::CompileError, m);
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_ascii_digit()
            || (c == '.' && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit()))
        {
            let start = i;
            let mut seen_dot = false;
            while i < chars.len() && (chars[i].is_ascii_digit() || (chars[i] == '.' && !seen_dot)) {
                // A dot is part of the number only if a digit follows
                // (otherwise it is a path separator after an index-like
                // identifier — cannot happen after digits, but be strict).
                if chars[i] == '.' {
                    if !chars.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                        break;
                    }
                    seen_dot = true;
                }
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            if seen_dot {
                toks.push(Tok::Float(
                    text.parse()
                        .map_err(|e| err(format!("bad float {text}: {e}")))?,
                ));
            } else {
                toks.push(Tok::Int(
                    text.parse()
                        .map_err(|e| err(format!("bad int {text}: {e}")))?,
                ));
            }
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            toks.push(Tok::Ident(chars[start..i].iter().collect()));
        } else if c == '"' || c == '\'' {
            let quote = c;
            i += 1;
            let start = i;
            while i < chars.len() && chars[i] != quote {
                i += 1;
            }
            if i == chars.len() {
                return Err(err("unterminated string literal".into()));
            }
            toks.push(Tok::Str(chars[start..i].iter().collect()));
            i += 1;
        } else {
            let two: String = chars[i..chars.len().min(i + 2)].iter().collect();
            let sym = match two.as_str() {
                "==" | "!=" | "<=" | ">=" | "&&" | "||" => {
                    i += 2;
                    match two.as_str() {
                        "==" => "==",
                        "!=" => "!=",
                        "<=" => "<=",
                        ">=" => ">=",
                        "&&" => "&&",
                        _ => "||",
                    }
                }
                _ => {
                    i += 1;
                    match c {
                        '+' => "+",
                        '-' => "-",
                        '*' => "*",
                        '/' => "/",
                        '%' => "%",
                        '(' => "(",
                        ')' => ")",
                        ',' => ",",
                        '.' => ".",
                        ';' => ";",
                        '<' => "<",
                        '>' => ">",
                        '=' => "=",
                        '!' => "!",
                        '{' => "{",
                        '}' => "}",
                        other => return Err(err(format!("unexpected character '{other}'"))),
                    }
                }
            };
            toks.push(Tok::Sym(sym));
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------------
// Parser (recursive descent, precedence climbing)
// ---------------------------------------------------------------------

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn err(&self, msg: impl Into<String>) -> Exception {
        Exception::new(ExceptionKind::CompileError, msg.into())
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(x)) if *x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), Exception> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{s}' at token {}", self.pos)))
        }
    }

    fn parse_or(&mut self) -> Result<Expr, Exception> {
        let mut lhs = self.parse_and()?;
        while self.eat_sym("||") {
            let rhs = self.parse_and()?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, Exception> {
        let mut lhs = self.parse_cmp()?;
        while self.eat_sym("&&") {
            let rhs = self.parse_cmp()?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, Exception> {
        let lhs = self.parse_addsub()?;
        let op = match self.peek() {
            Some(Tok::Sym("==")) | Some(Tok::Sym("=")) => BinOp::Eq,
            Some(Tok::Sym("!=")) => BinOp::Ne,
            Some(Tok::Sym("<")) => BinOp::Lt,
            Some(Tok::Sym("<=")) => BinOp::Le,
            Some(Tok::Sym(">")) => BinOp::Gt,
            Some(Tok::Sym(">=")) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.parse_addsub()?;
        Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)))
    }

    fn parse_addsub(&mut self) -> Result<Expr, Exception> {
        let mut lhs = self.parse_muldiv()?;
        loop {
            let op = if self.eat_sym("+") {
                BinOp::Add
            } else if self.eat_sym("-") {
                BinOp::Sub
            } else {
                return Ok(lhs);
            };
            let rhs = self.parse_muldiv()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn parse_muldiv(&mut self) -> Result<Expr, Exception> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = if self.eat_sym("*") {
                BinOp::Mul
            } else if self.eat_sym("/") {
                BinOp::Div
            } else if self.eat_sym("%") {
                BinOp::Rem
            } else {
                return Ok(lhs);
            };
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn parse_unary(&mut self) -> Result<Expr, Exception> {
        if self.eat_sym("-") {
            Ok(Expr::Unary(UnOp::Neg, Box::new(self.parse_unary()?)))
        } else if self.eat_sym("!") {
            Ok(Expr::Unary(UnOp::Not, Box::new(self.parse_unary()?)))
        } else {
            self.parse_primary()
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, Exception> {
        match self.peek().cloned() {
            Some(Tok::Int(i)) => {
                self.pos += 1;
                Ok(Expr::int(i))
            }
            Some(Tok::Float(f)) => {
                self.pos += 1;
                Ok(Expr::Lit(Value::Float(f)))
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Lit(Value::String(s)))
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                match name.as_str() {
                    "true" => return Ok(Expr::Lit(Value::Boolean(true))),
                    "false" => return Ok(Expr::Lit(Value::Boolean(false))),
                    _ => {}
                }
                if self.eat_sym("(") {
                    let mut args = Vec::new();
                    if !self.eat_sym(")") {
                        loop {
                            args.push(self.parse_or()?);
                            if self.eat_sym(")") {
                                break;
                            }
                            self.expect_sym(",")?;
                        }
                    }
                    return Ok(Expr::Call(None, name, args));
                }
                let mut path = vec![name];
                while self.eat_sym(".") {
                    match self.peek().cloned() {
                        Some(Tok::Ident(seg)) => {
                            self.pos += 1;
                            path.push(seg);
                        }
                        _ => return Err(self.err("expected identifier after '.'")),
                    }
                }
                Ok(Expr::Path(path))
            }
            Some(Tok::Sym("(")) => {
                self.pos += 1;
                let e = self.parse_or()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }
}

/// "Compile" a method body. Accepts either a bare expression or the
/// C++-style `{ return <expr>; }` / `return <expr>;` form.
pub fn compile(source: &str) -> Result<Expr, Exception> {
    let mut toks = lex(source)?;
    // Strip an optional surrounding { ... }.
    if toks.first() == Some(&Tok::Sym("{")) && toks.last() == Some(&Tok::Sym("}")) {
        toks.remove(0);
        toks.pop();
    }
    // Strip a leading `return` and a trailing `;`.
    if matches!(toks.first(), Some(Tok::Ident(k)) if k == "return") {
        toks.remove(0);
    }
    if toks.last() == Some(&Tok::Sym(";")) {
        toks.pop();
    }
    let mut p = Parser { toks, pos: 0 };
    let e = p.parse_or()?;
    if p.pos != p.toks.len() {
        return Err(p.err(format!("trailing tokens after expression (at {})", p.pos)));
    }
    Ok(e)
}

/// What a `Call` dispatches on.
#[derive(Debug, Clone, Copy)]
pub enum Receiver<'r> {
    /// The context's `self`: a method body calling a sibling method.
    Myself,
    /// A stored object at hand (a bound range variable): nothing to fetch.
    Object { oid: Oid, value: &'r Value },
    /// A reference reached at the end of a path: the callee fetches it.
    Ref(Oid),
}

/// Dispatcher for `Call` nodes: invoke `method` with `args` on the
/// receiver. The Function Manager supplies this for bodies (closing the
/// loop for methods that call other methods), the MOODSQL executor for
/// statements.
pub type Dispatcher<'a> = &'a dyn Fn(Receiver<'_>, &str, &[Value]) -> Result<Value, Exception>;

/// One argument slot of an evaluation: a method parameter (by signature
/// position) or a statement's range variable. Names are bound to slots when
/// the program is compiled, so a call passes values, not names.
#[derive(Debug, Clone, Copy)]
pub enum Arg<'a> {
    /// A plain value: a method argument, or a binding no stored object
    /// backs.
    Value(&'a Value),
    /// A stored object bound with its identity. Read as a whole it is its
    /// reference; a path into it starts from the value.
    Object(Oid, &'a Value),
    /// Nothing bound (a range variable the current row does not carry):
    /// an error for whatever reads the slot.
    Unbound,
}

/// Evaluation context for one invocation.
pub struct EvalCtx<'a> {
    /// The receiver object's value.
    pub self_value: &'a Value,
    /// Argument slots, in the order the program was compiled over.
    pub args: &'a [Arg<'a>],
    /// Dereferencing for path traversal (None: paths through Refs fail).
    pub resolver: Option<&'a dyn Resolver>,
    /// Method-call dispatcher (None: `Call` nodes fail).
    pub dispatcher: Option<Dispatcher<'a>>,
}

/// The reference evaluator: a tree walker over [`Expr`] with the method-body
/// semantics. Nothing in the engine calls it — bodies run as
/// [`crate::compile::Mode::Body`] programs — it is what the tests hold
/// those programs against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::operand::OperandDataType as Op;

    fn cmp_symbol(op: BinOp) -> Option<&'static str> {
        Some(match op {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            _ => return None,
        })
    }

    /// Parameters (by the names the caller knows them under) shadow `self`
    /// and attributes.
    fn lookup_root(ctx: &EvalCtx<'_>, params: &[String], name: &str) -> Option<Value> {
        if let Some(i) = params.iter().position(|n| n == name) {
            return match ctx.args.get(i)? {
                Arg::Value(v) => Some((*v).clone()),
                Arg::Object(oid, _) => Some(Value::Ref(*oid)),
                Arg::Unbound => None,
            };
        }
        if name == "self" {
            return Some(ctx.self_value.clone());
        }
        ctx.self_value.field(name).cloned()
    }

    fn step(ctx: &EvalCtx<'_>, base: &Value, seg: &str) -> Result<Value, Exception> {
        let mut cur = base.clone();
        // Dereference as many times as needed to reach a tuple.
        loop {
            match cur {
                Value::Ref(oid) => {
                    let resolver = ctx.resolver.ok_or_else(|| {
                        Exception::type_error("path traverses a reference but no resolver given")
                    })?;
                    cur = resolver.resolve(oid).ok_or_else(|| {
                        Exception::new(ExceptionKind::System, format!("dangling reference {oid}"))
                    })?;
                }
                Value::Tuple(_) => {
                    return cur.field(seg).cloned().ok_or_else(|| {
                        Exception::new(
                            ExceptionKind::UnknownIdentifier,
                            format!("no attribute {seg}"),
                        )
                    })
                }
                Value::Null => return Ok(Value::Null),
                other => {
                    return Err(Exception::type_error(format!(
                        "cannot navigate into {other} with .{seg}"
                    )))
                }
            }
        }
    }

    fn and_values(l: &Value, r: &Value) -> Result<Value, Exception> {
        match (l, r) {
            (Value::Boolean(false), _) | (_, Value::Boolean(false)) => Ok(Value::Boolean(false)),
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Boolean(a), Value::Boolean(b)) => Ok(Value::Boolean(*a && *b)),
            _ => Err(Exception::type_error("AND needs Boolean operands")),
        }
    }

    fn or_values(l: &Value, r: &Value) -> Result<Value, Exception> {
        match (l, r) {
            (Value::Boolean(true), _) | (_, Value::Boolean(true)) => Ok(Value::Boolean(true)),
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Boolean(a), Value::Boolean(b)) => Ok(Value::Boolean(*a || *b)),
            _ => Err(Exception::type_error("OR needs Boolean operands")),
        }
    }

    /// Evaluate a parsed body; `params` names the slots of `ctx.args`.
    pub fn eval(expr: &Expr, params: &[String], ctx: &EvalCtx<'_>) -> Result<Value, Exception> {
        let eval = |e: &Expr| eval(e, params, ctx);
        Ok(match expr {
            Expr::Lit(v) => v.clone(),
            Expr::Path(path) => {
                let mut cur = lookup_root(ctx, params, &path[0]).ok_or_else(|| {
                    Exception::new(
                        ExceptionKind::UnknownIdentifier,
                        format!("unknown identifier {}", path[0]),
                    )
                })?;
                for seg in &path[1..] {
                    cur = step(ctx, &cur, seg)?;
                }
                // A terminal Ref is fine (reference-valued result).
                cur
            }
            Expr::Unary(op, inner) => {
                let v = Op::from_value(&eval(inner)?)?;
                match op {
                    UnOp::Neg => v.neg()?.into_value(),
                    UnOp::Not => v.not()?.into_value(),
                }
            }
            // Short-circuit AND/OR before evaluating the right side.
            Expr::Binary(op @ (BinOp::And | BinOp::Or), lhs, rhs) => {
                let l = eval(lhs)?;
                Op::ensure_atomic(&l)?;
                if l == Value::Boolean(*op == BinOp::Or) {
                    return Ok(l);
                }
                let r = eval(rhs)?;
                Op::ensure_atomic(&r)?;
                if *op == BinOp::And {
                    and_values(&l, &r)?
                } else {
                    or_values(&l, &r)?
                }
            }
            Expr::Binary(op, lhs, rhs) => {
                if let Some(sym) = cmp_symbol(*op) {
                    let l = eval(lhs)?;
                    Op::ensure_atomic(&l)?;
                    let r = eval(rhs)?;
                    Op::ensure_atomic(&r)?;
                    return Op::cmp_op_values(sym, &l, &r);
                }
                let l = Op::from_value(&eval(lhs)?)?;
                let r = Op::from_value(&eval(rhs)?)?;
                match op {
                    BinOp::Add => l.add(&r)?,
                    BinOp::Sub => l.sub(&r)?,
                    BinOp::Mul => l.mul(&r)?,
                    BinOp::Div => l.div(&r)?,
                    BinOp::Rem => l.rem(&r)?,
                    other => unreachable!("comparison {other:?} handled above"),
                }
                .into_value()
            }
            Expr::Between(v, lo, hi) => {
                let (v, lo, hi) = (eval(v)?, eval(lo)?, eval(hi)?);
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                let ge = Op::compare_values(&v, &lo)?.map(|o| o != std::cmp::Ordering::Less);
                let le = Op::compare_values(&v, &hi)?.map(|o| o != std::cmp::Ordering::Greater);
                match (ge, le) {
                    (Some(a), Some(b)) => Value::Boolean(a && b),
                    _ => return Err(Exception::type_error("BETWEEN on incomparable values")),
                }
            }
            Expr::Param(i) => {
                return Err(Exception::new(
                    ExceptionKind::UnknownIdentifier,
                    format!(
                        "parameter ${} is bound only in compiled programs",
                        *i as u32 + 1
                    ),
                ))
            }
            Expr::Raise(message) => {
                return Err(Exception::new(ExceptionKind::Query, message.clone()))
            }
            Expr::Call(receiver, name, args) => {
                assert!(receiver.is_none(), "the body language calls on self");
                let dispatcher = ctx.dispatcher.ok_or_else(|| {
                    Exception::new(
                        ExceptionKind::MissingFunction,
                        format!("method call {name}() outside a dispatching context"),
                    )
                })?;
                let vals = args.iter().map(eval).collect::<Result<Vec<_>, _>>()?;
                dispatcher(Receiver::Myself, name, &vals)?
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::eval;
    use super::*;
    use crate::compile::{compile_program, CompileOpts, Registers};

    /// Compile `src` as a method body over `params`, run the program, and
    /// hold it against the reference evaluator.
    fn run_in(src: &str, params: &[(&str, Value)], ctx: &EvalCtx<'_>) -> Result<Value, Exception> {
        let body = compile(src).unwrap();
        let names: Vec<String> = params.iter().map(|(n, _)| n.to_string()).collect();
        let program = compile_program(&body, &CompileOpts::body(&names)).unwrap();
        let out = program.run(&mut Registers::default(), ctx);
        assert_eq!(
            out,
            eval(&body, &names, ctx),
            "program and reference differ on {src}"
        );
        out
    }

    fn run(src: &str, self_value: &Value, params: &[(&str, Value)]) -> Result<Value, Exception> {
        let args: Vec<Arg<'_>> = params.iter().map(|(_, v)| Arg::Value(v)).collect();
        let ctx = EvalCtx {
            self_value,
            args: &args,
            resolver: None,
            dispatcher: None,
        };
        run_in(src, params, &ctx)
    }

    #[test]
    fn lbweight_body_from_the_paper() {
        // int Vehicle::lbweight() { return weight*2.2075; }
        let vehicle = Value::tuple(vec![("weight", Value::Integer(1000))]);
        let out = run("{ return weight * 2.2075; }", &vehicle, &[]).unwrap();
        assert_eq!(out, Value::Float(2207.5));
    }

    #[test]
    fn bare_expression_and_return_forms() {
        for src in ["weight + 1", "return weight + 1;", "{ return weight + 1; }"] {
            let v = Value::tuple(vec![("weight", Value::Integer(9))]);
            assert_eq!(run(src, &v, &[]).unwrap(), Value::Integer(10));
        }
    }

    #[test]
    fn parameters_shadow_attributes() {
        let v = Value::tuple(vec![
            ("weight", Value::Integer(10)),
            ("factor", Value::Integer(99)),
        ]);
        let out = run("weight * factor", &v, &[("factor", Value::Integer(2))]);
        assert_eq!(out.unwrap(), Value::Integer(20));
    }

    #[test]
    fn precedence_matches_c() {
        let v = Value::Tuple(vec![]);
        assert_eq!(
            run("2 + 3 * 4 - 6 / 2", &v, &[]).unwrap(),
            Value::Integer(11)
        );
        assert_eq!(run("(2 + 3) * 4", &v, &[]).unwrap(), Value::Integer(20));
    }

    #[test]
    fn booleans_and_comparisons() {
        let v = Value::tuple(vec![("weight", Value::Integer(1000))]);
        let out = run("weight > 500 && weight <= 1500 || false", &v, &[]);
        assert_eq!(out.unwrap(), Value::Boolean(true));
        let out = run("!(weight == 1000)", &v, &[]);
        assert_eq!(out.unwrap(), Value::Boolean(false));
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        // RHS would divide by zero; short-circuit must skip it.
        let v = Value::Tuple(vec![]);
        let out = run("false && (1/0 == 1)", &v, &[]);
        assert_eq!(out.unwrap(), Value::Boolean(false));
        let out = run("true || (1/0 == 1)", &v, &[]);
        assert_eq!(out.unwrap(), Value::Boolean(true));
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
        let ctx = EvalCtx {
            self_value: &car,
            args: &[],
            resolver: Some(&store),
            dispatcher: None,
        };
        let out = run_in("self.engine.cylinders * 2", &[], &ctx);
        assert_eq!(out.unwrap(), Value::Integer(12));
    }

    #[test]
    fn null_path_yields_null() {
        let car = Value::tuple(vec![("engine", Value::Null)]);
        assert_eq!(run("engine.cylinders", &car, &[]).unwrap(), Value::Null);
    }

    #[test]
    fn unknown_identifier_is_an_exception() {
        let e = run("nonexistent + 1", &Value::Tuple(vec![]), &[]).unwrap_err();
        assert_eq!(e.kind, ExceptionKind::UnknownIdentifier);
    }

    #[test]
    fn compile_errors_surface_at_definition_time() {
        assert!(compile("1 +").is_err());
        assert!(compile("(1 + 2").is_err());
        assert!(compile("1 2").is_err());
        assert!(compile("\"unterminated").is_err());
        assert!(compile("@").is_err());
    }

    #[test]
    fn string_literals_and_equality() {
        let v = Value::tuple(vec![("name", Value::string("BMW"))]);
        let out = run("name == \"BMW\"", &v, &[]);
        assert_eq!(out.unwrap(), Value::Boolean(true));
        let out = run("name == 'Audi'", &v, &[]);
        assert_eq!(out.unwrap(), Value::Boolean(false));
    }

    #[test]
    fn method_calls_go_through_dispatcher() {
        let v = Value::tuple(vec![("weight", Value::Integer(100))]);
        let dispatch = |on: Receiver<'_>, name: &str, _args: &[Value]| {
            assert!(matches!(on, Receiver::Myself));
            assert_eq!(name, "lbweight");
            Ok(Value::Integer(220))
        };
        let ctx = EvalCtx {
            self_value: &v,
            args: &[],
            resolver: None,
            dispatcher: Some(&dispatch),
        };
        let out = run_in("lbweight() + 1", &[], &ctx);
        assert_eq!(out.unwrap(), Value::Integer(221));
        // Without a dispatcher it raises.
        let e = run("lbweight() + 1", &v, &[]).unwrap_err();
        assert_eq!(e.kind, ExceptionKind::MissingFunction);
    }

    #[test]
    fn big_int_literals_become_long() {
        let out = run("5000000000", &Value::Tuple(vec![]), &[]);
        assert_eq!(out.unwrap(), Value::LongInteger(5_000_000_000));
    }
}
