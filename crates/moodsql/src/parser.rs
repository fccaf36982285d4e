//! MOODSQL recursive-descent parser.

use mood_datamodel::{BasicType, TypeDescriptor};

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::token::{lex, Kw, Tok};

/// Parse one statement (a trailing `;` is allowed).
pub fn parse(src: &str) -> Result<Statement> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, levels: 0, folds: 0 };
    let stmt = p.statement()?;
    p.eat_sym(";");
    if p.pos != p.toks.len() {
        return Err(p.err(format!("trailing tokens after statement: {:?}", p.peek())));
    }
    Ok(stmt)
}

/// Parse a standalone expression (used by the executor to evaluate
/// predicate strings embedded in access plans).
pub fn parse_expr(src: &str) -> Result<Expr> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, levels: 0, folds: 0 };
    let e = p.expr()?;
    if p.pos != p.toks.len() {
        return Err(p.err(format!("trailing tokens after expression: {:?}", p.peek())));
    }
    Ok(e)
}

/// How deep an expression may nest: the parentheses, NOTs, unary minuses
/// and call arguments around the token being parsed, plus every `+ - * / %`
/// of the whole expression (a chain folds left, one level a term). Parsing,
/// binding, optimizing and compiling recurse over an expression; a debug
/// build overflows a 2 MB thread stack at about 110 levels.
pub const MAX_EXPR_DEPTH: usize = 64;

/// The parser of the next-tighter precedence level.
type Operand = fn(&mut Parser) -> Result<Expr>;

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Levels around the current token plus arithmetic folds of the current
    /// top-level expression: at most [`MAX_EXPR_DEPTH`] together.
    levels: usize,
    folds: usize,
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> SqlError {
        SqlError::Parse {
            position: self.pos,
            message: message.into(),
        }
    }

    /// Parse with `f` one nesting level down.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.levels += 1;
        let parsed = self.deeper(0).and_then(|()| f(self));
        self.levels -= 1;
        parsed
    }

    /// Count `folds` more arithmetic folds, then check the nesting.
    fn deeper(&mut self, folds: usize) -> Result<()> {
        self.folds += folds;
        if self.levels + self.folds > MAX_EXPR_DEPTH {
            return Err(self.err("expression nested too deeply"));
        }
        Ok(())
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        if self.peek() == Some(&Tok::Kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw:?}, found {:?}", self.peek())))
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(x)) if *x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{s}', found {:?}", self.peek())))
        }
    }

    /// Consume a contextual (non-reserved) word, case-insensitively.
    fn eat_ident_ci(&mut self, word: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(word)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            // Non-reserved words usable as identifiers in context.
            Some(Tok::Kw(Kw::Set)) => Ok("set".to_string()),
            Some(Tok::Kw(Kw::List)) => Ok("list".to_string()),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Some(Tok::Kw(Kw::Select)) => Ok(Statement::Select(self.select()?)),
            Some(Tok::Kw(Kw::Explain)) => {
                self.pos += 1;
                if self.eat_kw(Kw::Analyze) {
                    return Ok(Statement::ExplainAnalyze(self.select()?));
                }
                // EXPLAIN UPDATE/DELETE shows the plan that finds the
                // statement's target rows.
                Ok(Statement::Explain(match self.peek() {
                    Some(Tok::Kw(Kw::Update | Kw::Delete)) => match self.statement()? {
                        Statement::Update {
                            class,
                            var,
                            where_clause,
                            ..
                        }
                        | Statement::Delete {
                            class,
                            var,
                            where_clause,
                        } => SelectStmt::dml_target(&class, &var, where_clause),
                        other => unreachable!("UPDATE/DELETE parsed as {other:?}"),
                    },
                    _ => self.select()?,
                }))
            }
            Some(Tok::Kw(Kw::Show)) => {
                self.pos += 1;
                // WAITS / STATEMENTS / FORMAT are contextual words, not
                // reserved keywords — they stay usable as identifiers.
                if self.eat_ident_ci("waits") {
                    return Ok(Statement::ShowWaits);
                }
                if self.eat_ident_ci("statements") {
                    return Ok(Statement::ShowStatements);
                }
                self.expect_kw(Kw::Metrics)?;
                let format = if self.eat_ident_ci("format") {
                    match self.next() {
                        Some(Tok::Str(f)) if f.eq_ignore_ascii_case("json") => ShowFormat::Json,
                        Some(Tok::Str(f))
                            if f.eq_ignore_ascii_case("prom")
                                || f.eq_ignore_ascii_case("prometheus") =>
                        {
                            ShowFormat::Prometheus
                        }
                        Some(Tok::Str(f)) if f.eq_ignore_ascii_case("table") => ShowFormat::Table,
                        other => {
                            return Err(self.err(format!(
                                "expected format 'json', 'prom' or 'table', found {other:?}"
                            )))
                        }
                    }
                } else {
                    ShowFormat::Table
                };
                Ok(Statement::ShowMetrics(format))
            }
            Some(Tok::Kw(Kw::Create)) => self.create(),
            Some(Tok::Kw(Kw::Drop)) => self.drop(),
            Some(Tok::Kw(Kw::New)) => self.new_object(),
            Some(Tok::Kw(Kw::Define)) => self.define_method(),
            Some(Tok::Kw(Kw::Delete)) => self.delete(),
            Some(Tok::Kw(Kw::Update)) => self.update(),
            // CLUSTER is a contextual word, not a reserved keyword — class
            // and attribute names called "cluster" keep working.
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("cluster") => {
                self.pos += 1;
                let class = self.ident()?;
                let attr = if self.eat_kw(Kw::By) {
                    Some(self.ident()?)
                } else {
                    None
                };
                Ok(Statement::Cluster { class, attr })
            }
            Some(Tok::Kw(Kw::Begin)) => {
                self.pos += 1;
                self.eat_kw(Kw::Transaction); // optional noise word
                Ok(Statement::Begin)
            }
            Some(Tok::Kw(Kw::Commit)) => {
                self.pos += 1;
                self.eat_kw(Kw::Transaction);
                Ok(Statement::Commit)
            }
            Some(Tok::Kw(Kw::Rollback)) => {
                self.pos += 1;
                self.eat_kw(Kw::Transaction);
                Ok(Statement::Rollback)
            }
            other => Err(self.err(format!("expected a statement, found {other:?}"))),
        }
    }

    // ------------------------------------------------------------------
    // SELECT
    // ------------------------------------------------------------------

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw(Kw::Select)?;
        let distinct = self.eat_kw(Kw::Distinct);
        let mut projection = vec![self.expr()?];
        while self.eat_sym(",") {
            projection.push(self.expr()?);
        }
        self.expect_kw(Kw::From)?;
        let mut from = vec![self.from_item()?];
        while self.eat_sym(",") {
            from.push(self.from_item()?);
        }
        // Clause order per the grammar in Section 3.1: GROUP BY may precede
        // WHERE in the printed grammar; accept both orders.
        let mut group_by = Vec::new();
        let mut having = None;
        let mut where_clause = None;
        let mut order_by = Vec::new();
        loop {
            if self.eat_kw(Kw::Group) {
                self.expect_kw(Kw::By)?;
                group_by.push(self.path_ref()?);
                while self.eat_sym(",") {
                    group_by.push(self.path_ref()?);
                }
                if self.eat_kw(Kw::Having) {
                    having = Some(self.expr()?);
                }
            } else if self.eat_kw(Kw::Where) {
                where_clause = Some(self.expr()?);
            } else if self.eat_kw(Kw::Order) {
                self.expect_kw(Kw::By)?;
                loop {
                    let path = self.path_ref()?;
                    let asc = if self.eat_kw(Kw::Desc) {
                        false
                    } else {
                        self.eat_kw(Kw::Asc);
                        true
                    };
                    order_by.push((path, asc));
                    if !self.eat_sym(",") {
                        break;
                    }
                }
            } else {
                break;
            }
        }
        Ok(SelectStmt {
            distinct,
            projection,
            from,
            where_clause,
            group_by,
            having,
            order_by,
        })
    }

    #[allow(clippy::wrong_self_convention)] // parses a FROM-clause item
    fn from_item(&mut self) -> Result<FromItem> {
        let every = self.eat_kw(Kw::Every);
        let class = self.ident()?;
        let mut minus = Vec::new();
        while self.eat_sym("-") {
            minus.push(self.ident()?);
        }
        let var = self.ident()?;
        Ok(FromItem {
            class,
            every,
            minus,
            var,
        })
    }

    fn path_ref(&mut self) -> Result<PathRef> {
        let var = self.ident()?;
        let mut segments = Vec::new();
        while matches!(self.peek(), Some(Tok::Sym("."))) {
            // A trailing method call belongs to expr(), not path_ref.
            if matches!(self.peek2(), Some(Tok::Ident(_)))
                && matches!(self.toks.get(self.pos + 2), Some(Tok::Sym("(")))
            {
                break;
            }
            self.pos += 1;
            segments.push(self.ident()?);
        }
        Ok(PathRef { var, segments })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence: OR < AND < NOT < compare < add < mul < unary)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        if self.levels == 0 {
            self.folds = 0;
        }
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        self.connective(Kw::Or, Self::and_expr, Expr::Or)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        self.connective(Kw::And, Self::not_expr, Expr::And)
    }

    /// `next (kw next)*`, one n-ary node when there are several parts.
    fn connective(&mut self, kw: Kw, next: Operand, node: fn(Vec<Expr>) -> Expr) -> Result<Expr> {
        let mut parts = vec![next(self)?];
        while self.eat_kw(kw) {
            parts.push(next(self)?);
        }
        Ok(if parts.len() == 1 { parts.pop().expect("one") } else { node(parts) })
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw(Kw::Not) {
            Ok(Expr::Not(Box::new(self.nested(Self::not_expr)?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let left = self.add_expr()?;
        if self.eat_kw(Kw::Between) {
            let lo = self.add_expr()?;
            self.expect_kw(Kw::And)?;
            let hi = self.add_expr()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                lo: Box::new(lo),
                hi: Box::new(hi),
            });
        }
        let op = match self.peek() {
            Some(Tok::Sym("=")) => CmpOp::Eq,
            Some(Tok::Sym("<>")) => CmpOp::Ne,
            Some(Tok::Sym("<")) => CmpOp::Lt,
            Some(Tok::Sym("<=")) => CmpOp::Le,
            Some(Tok::Sym(">")) => CmpOp::Gt,
            Some(Tok::Sym(">=")) => CmpOp::Ge,
            _ => return Ok(left),
        };
        self.pos += 1;
        let right = self.add_expr()?;
        Ok(Expr::Compare {
            op,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    fn add_expr(&mut self) -> Result<Expr> {
        self.arith(&["+", "-"], Self::mul_expr)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        self.arith(&["*", "/", "%"], Self::unary_expr)
    }

    /// `next (op next)*` folded left: each fold nests the chain one level.
    fn arith(&mut self, ops: &[&str], next: Operand) -> Result<Expr> {
        let mut left = next(self)?;
        while let Some(op) = ops.iter().find(|op| self.eat_sym(op)) {
            self.deeper(1)?;
            let right = Box::new(next(self)?);
            let op = op.chars().next().expect("one-character operator");
            left = Expr::Arith { op, left: Box::new(left), right };
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat_sym("-") {
            let inner = self.nested(Self::unary_expr)?;
            return Ok(match inner {
                Expr::Literal(Lit::Int(i)) => Expr::Literal(Lit::Int(-i)),
                Expr::Literal(Lit::Float(x)) => Expr::Literal(Lit::Float(-x)),
                other => Expr::Arith {
                    op: '-',
                    left: Box::new(Expr::Literal(Lit::Int(0))),
                    right: Box::new(other),
                },
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        let literal = match self.peek() {
            Some(Tok::Int(i)) => Some(Expr::Literal(Lit::Int(*i))),
            Some(Tok::Float(x)) => Some(Expr::Literal(Lit::Float(*x))),
            Some(Tok::Str(s)) => Some(Expr::Literal(Lit::Str(s.clone()))),
            Some(Tok::Param(n)) => Some(Expr::Param(*n)),
            Some(Tok::Kw(Kw::True)) => Some(Expr::Literal(Lit::Bool(true))),
            Some(Tok::Kw(Kw::False)) => Some(Expr::Literal(Lit::Bool(false))),
            Some(Tok::Kw(Kw::Null)) => Some(Expr::Literal(Lit::Null)),
            _ => None,
        };
        if let Some(e) = literal {
            self.pos += 1;
            return Ok(e);
        }
        match self.peek().cloned() {
            Some(Tok::Sym("(")) => {
                self.pos += 1;
                let e = self.nested(Self::expr)?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(Tok::Sym("*")) => Err(self.err("'*' is only valid inside COUNT(*)")),
            Some(Tok::Ident(name)) => {
                // Aggregate call?
                if let Some(func) = AggFunc::parse(&name) {
                    if matches!(self.peek2(), Some(Tok::Sym("("))) {
                        self.pos += 2;
                        if self.eat_sym("*") {
                            self.expect_sym(")")?;
                            return Ok(Expr::Agg { func, arg: None });
                        }
                        let arg = self.nested(Self::expr)?;
                        self.expect_sym(")")?;
                        return Ok(Expr::Agg {
                            func,
                            arg: Some(Box::new(arg)),
                        });
                    }
                }
                let path = self.path_ref()?;
                // Method call: path '.' ident '(' args ')'.
                if matches!(self.peek(), Some(Tok::Sym(".")))
                    && matches!(self.peek2(), Some(Tok::Ident(_)))
                    && matches!(self.toks.get(self.pos + 2), Some(Tok::Sym("(")))
                {
                    self.pos += 1;
                    let method = self.ident()?;
                    self.expect_sym("(")?;
                    let mut args = Vec::new();
                    if !self.eat_sym(")") {
                        loop {
                            args.push(self.nested(Self::expr)?);
                            if self.eat_sym(")") {
                                break;
                            }
                            self.expect_sym(",")?;
                        }
                    }
                    return Ok(Expr::MethodCall {
                        base: path,
                        method,
                        args,
                    });
                }
                Ok(Expr::Path(path))
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw(Kw::Create)?;
        if self.eat_kw(Kw::Class) {
            return self.create_class();
        }
        // CREATE [UNIQUE] [BTREE] INDEX ON Class(attribute)
        let unique = self.eat_kw(Kw::Unique);
        self.eat_kw(Kw::Btree);
        self.expect_kw(Kw::Index)?;
        self.expect_kw(Kw::On)?;
        let class = self.ident()?;
        self.expect_sym("(")?;
        let mut attribute = self.ident()?;
        // A dotted attribute creates a *path index* over the whole chain.
        while self.eat_sym(".") {
            attribute.push('.');
            attribute.push_str(&self.ident()?);
        }
        self.expect_sym(")")?;
        Ok(Statement::CreateIndex {
            class,
            attribute,
            unique,
        })
    }

    fn create_class(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        let mut attributes = Vec::new();
        let mut methods = Vec::new();
        let mut inherits = Vec::new();
        loop {
            if self.eat_kw(Kw::Tuple) {
                self.expect_sym("(")?;
                if !self.eat_sym(")") {
                    loop {
                        let attr = self.ident()?;
                        let ty = self.type_name()?;
                        attributes.push((attr, ty));
                        if self.eat_sym(")") {
                            break;
                        }
                        self.expect_sym(",")?;
                        // Tolerate a trailing comma before ')', as in the
                        // paper's own listing.
                        if self.eat_sym(")") {
                            break;
                        }
                    }
                }
            } else if self.eat_kw(Kw::Methods) {
                self.eat_sym(":");
                // method: name ( params ) ReturnType [,]
                while let Some(Tok::Ident(_)) = self.peek() {
                    // Lookahead: ident '(' — otherwise it's not a method.
                    if !matches!(self.peek2(), Some(Tok::Sym("("))) {
                        break;
                    }
                    let mname = self.ident()?;
                    self.expect_sym("(")?;
                    let mut params = Vec::new();
                    if !self.eat_sym(")") {
                        loop {
                            let pname = self.ident()?;
                            let pty = self.type_name()?;
                            params.push((pname, pty));
                            if self.eat_sym(")") {
                                break;
                            }
                            self.expect_sym(",")?;
                        }
                    }
                    let returns = self.type_name()?;
                    methods.push(MethodDecl {
                        name: mname,
                        params,
                        returns,
                    });
                    if !self.eat_sym(",") {
                        break;
                    }
                }
            } else if self.eat_kw(Kw::Inherits) {
                self.expect_kw(Kw::From)?;
                inherits.push(self.ident()?);
                while self.eat_sym(",") {
                    inherits.push(self.ident()?);
                }
            } else {
                break;
            }
        }
        Ok(Statement::CreateClass(CreateClass {
            name,
            attributes,
            methods,
            inherits,
        }))
    }

    /// Type syntax: `Integer | Float | LongInteger | String[(n)] | Char |
    /// Boolean | REFERENCE (Class) | SET (type) | LIST (type) |
    /// TUPLE (a T, …)`.
    fn type_name(&mut self) -> Result<TypeDescriptor> {
        if self.eat_kw(Kw::Reference) {
            self.expect_sym("(")?;
            let class = self.ident()?;
            self.expect_sym(")")?;
            return Ok(TypeDescriptor::Reference(class));
        }
        if self.eat_kw(Kw::Set) {
            self.expect_sym("(")?;
            let inner = self.type_name()?;
            self.expect_sym(")")?;
            return Ok(TypeDescriptor::Set(Box::new(inner)));
        }
        if self.eat_kw(Kw::List) {
            self.expect_sym("(")?;
            let inner = self.type_name()?;
            self.expect_sym(")")?;
            return Ok(TypeDescriptor::List(Box::new(inner)));
        }
        if self.eat_kw(Kw::Tuple) {
            self.expect_sym("(")?;
            let mut fields = Vec::new();
            if !self.eat_sym(")") {
                loop {
                    let fname = self.ident()?;
                    let fty = self.type_name()?;
                    fields.push((fname, fty));
                    if self.eat_sym(")") {
                        break;
                    }
                    self.expect_sym(",")?;
                }
            }
            return Ok(TypeDescriptor::Tuple(fields));
        }
        let name = self.ident()?;
        let basic =
            BasicType::parse(&name).ok_or_else(|| self.err(format!("unknown type {name}")))?;
        // String(32)-style length bounds are parsed and ignored (our
        // strings are unbounded).
        if basic == BasicType::String && self.eat_sym("(") {
            match self.next() {
                Some(Tok::Int(_)) => {}
                other => return Err(self.err(format!("expected string length, got {other:?}"))),
            }
            self.expect_sym(")")?;
        }
        Ok(TypeDescriptor::Basic(basic))
    }

    fn drop(&mut self) -> Result<Statement> {
        self.expect_kw(Kw::Drop)?;
        if self.eat_kw(Kw::Class) {
            return Ok(Statement::DropClass(self.ident()?));
        }
        if self.eat_kw(Kw::Method) {
            let class = self.ident()?;
            self.expect_sym("::")?;
            let name = self.ident()?;
            return Ok(Statement::DropMethod { class, name });
        }
        Err(self.err("expected CLASS or METHOD after DROP"))
    }

    /// `new Employee <'Budak Arpinar', 'Computer Engineer', 1969>`
    fn new_object(&mut self) -> Result<Statement> {
        self.expect_kw(Kw::New)?;
        let class = self.ident()?;
        self.expect_sym("<")?;
        let mut values = Vec::new();
        if !self.eat_sym(">") {
            loop {
                let v = match self.next() {
                    Some(Tok::Int(i)) => Lit::Int(i),
                    Some(Tok::Float(x)) => Lit::Float(x),
                    Some(Tok::Str(s)) => Lit::Str(s),
                    Some(Tok::Kw(Kw::True)) => Lit::Bool(true),
                    Some(Tok::Kw(Kw::False)) => Lit::Bool(false),
                    Some(Tok::Kw(Kw::Null)) => Lit::Null,
                    Some(Tok::Sym("-")) => match self.next() {
                        Some(Tok::Int(i)) => Lit::Int(-i),
                        Some(Tok::Float(x)) => Lit::Float(-x),
                        other => {
                            return Err(
                                self.err(format!("expected number after '-', got {other:?}"))
                            )
                        }
                    },
                    other => return Err(self.err(format!("expected literal, got {other:?}"))),
                };
                values.push(v);
                if self.eat_sym(">") {
                    break;
                }
                self.expect_sym(",")?;
            }
        }
        Ok(Statement::NewObject { class, values })
    }

    /// `DEFINE METHOD Class::name(p Type, …) RETURNS Type AS 'body'`
    fn define_method(&mut self) -> Result<Statement> {
        self.expect_kw(Kw::Define)?;
        self.expect_kw(Kw::Method)?;
        let class = self.ident()?;
        self.expect_sym("::")?;
        let name = self.ident()?;
        self.expect_sym("(")?;
        let mut params = Vec::new();
        if !self.eat_sym(")") {
            loop {
                let pname = self.ident()?;
                let pty = self.type_name()?;
                params.push((pname, pty));
                if self.eat_sym(")") {
                    break;
                }
                self.expect_sym(",")?;
            }
        }
        self.expect_kw(Kw::Returns)?;
        let returns = self.type_name()?;
        self.expect_kw(Kw::As)?;
        let body = match self.next() {
            Some(Tok::Str(s)) => s,
            other => return Err(self.err(format!("expected method body string, got {other:?}"))),
        };
        Ok(Statement::DefineMethod {
            class,
            name,
            params,
            returns,
            body,
        })
    }

    /// `UPDATE Class v SET a = expr, … [WHERE …]`
    fn update(&mut self) -> Result<Statement> {
        self.expect_kw(Kw::Update)?;
        let class = self.ident()?;
        let var = self.ident()?;
        self.expect_kw(Kw::Set)?;
        let mut assignments = Vec::new();
        loop {
            let attr = self.ident()?;
            self.expect_sym("=")?;
            // Assignment right-hand sides are arithmetic expressions (no
            // comparisons), so parse at additive precedence.
            let value = self.add_expr()?;
            assignments.push((attr, value));
            if !self.eat_sym(",") {
                break;
            }
        }
        let where_clause = if self.eat_kw(Kw::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            class,
            var,
            assignments,
            where_clause,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw(Kw::Delete)?;
        self.expect_kw(Kw::From)?;
        let class = self.ident()?;
        let var = self.ident()?;
        let where_clause = if self.eat_kw(Kw::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            class,
            var,
            where_clause,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_query_section_3_1() {
        let stmt = parse(
            "SELECT c FROM EVERY Automobile - JapaneseAuto c, VehicleEngine v \
             WHERE c.drivetrain.transmission = 'AUTOMATIC' AND \
             c.drivetrain.engine = v AND v.cylinders > 4",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[0].class, "Automobile");
        assert!(s.from[0].every);
        assert_eq!(s.from[0].minus, vec!["JapaneseAuto"]);
        assert_eq!(s.from[0].var, "c");
        assert_eq!(s.from[1].class, "VehicleEngine");
        let Some(Expr::And(parts)) = s.where_clause else {
            panic!()
        };
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].render(), "c.drivetrain.transmission = 'AUTOMATIC'");
        assert_eq!(parts[1].render(), "c.drivetrain.engine = v");
        assert_eq!(parts[2].render(), "v.cylinders > 4");
    }

    #[test]
    fn example_8_1_query() {
        let stmt = parse(
            "Select v From Vehicle v \
             where v.company.name = 'BMW' and v.drivetrain.engine.cylinders = 2",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.projection[0].render(), "v");
        let Some(Expr::And(parts)) = s.where_clause else {
            panic!()
        };
        assert_eq!(parts[0].render(), "v.company.name = 'BMW'");
        assert_eq!(parts[1].render(), "v.drivetrain.engine.cylinders = 2");
    }

    #[test]
    fn create_class_vehicle_from_paper() {
        let stmt = parse(
            "CREATE CLASS Vehicle \
             TUPLE ( id Integer, weight Integer, \
                     drivetrain REFERENCE (VehicleDriveTrain), \
                     manufacturer REFERENCE (Company) ) \
             METHODS: lbweight () Integer, weight () Integer,",
        )
        .unwrap();
        let Statement::CreateClass(c) = stmt else {
            panic!()
        };
        assert_eq!(c.name, "Vehicle");
        assert_eq!(c.attributes.len(), 4);
        assert_eq!(c.attributes[0].0, "id");
        assert_eq!(
            c.attributes[2].1,
            TypeDescriptor::Reference("VehicleDriveTrain".into())
        );
        assert_eq!(c.methods.len(), 2);
        assert_eq!(c.methods[0].name, "lbweight");
        assert!(c.inherits.is_empty());
    }

    #[test]
    fn create_class_with_inheritance_and_string_bound() {
        let stmt = parse(
            "CREATE CLASS VehicleDriveTrain \
             TUPLE ( engine REFERENCE (VehicleEngine), transmission String(32) )",
        )
        .unwrap();
        let Statement::CreateClass(c) = stmt else {
            panic!()
        };
        assert_eq!(c.attributes[1].1, TypeDescriptor::string());
        let stmt = parse("CREATE CLASS JapaneseAuto INHERITS FROM Automobile").unwrap();
        let Statement::CreateClass(c) = stmt else {
            panic!()
        };
        assert_eq!(c.inherits, vec!["Automobile"]);
        assert!(c.attributes.is_empty());
    }

    #[test]
    fn nested_constructor_types() {
        let stmt = parse(
            "CREATE CLASS Fleet TUPLE ( cars SET (REFERENCE (Vehicle)), \
             log LIST (TUPLE (at Integer, note String)) )",
        )
        .unwrap();
        let Statement::CreateClass(c) = stmt else {
            panic!()
        };
        assert_eq!(
            c.attributes[0].1,
            TypeDescriptor::set_of(TypeDescriptor::reference("Vehicle"))
        );
        assert!(matches!(c.attributes[1].1, TypeDescriptor::List(_)));
    }

    #[test]
    fn new_object_from_paper() {
        let stmt = parse("new Employee <'Budak Arpinar', 'Computer Engineer', 1969>").unwrap();
        let Statement::NewObject { class, values } = stmt else {
            panic!()
        };
        assert_eq!(class, "Employee");
        assert_eq!(
            values,
            vec![
                Lit::Str("Budak Arpinar".into()),
                Lit::Str("Computer Engineer".into()),
                Lit::Int(1969)
            ]
        );
    }

    #[test]
    fn group_by_having_order_by() {
        let stmt = parse(
            "SELECT e.dept, COUNT(*) FROM Employee e WHERE e.age > 30 \
             GROUP BY e.dept HAVING COUNT(*) > 2 ORDER BY e.dept DESC",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 1);
        assert!(!s.order_by[0].1, "DESC");
        assert!(matches!(s.projection[1], Expr::Agg { .. }));
    }

    #[test]
    fn method_calls_and_between() {
        let stmt = parse(
            "SELECT v FROM Vehicle v WHERE v.lbweight() > 2000 \
             AND v.weight BETWEEN 500 AND 1500",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let Some(Expr::And(parts)) = s.where_clause else {
            panic!()
        };
        assert!(matches!(
            &parts[0],
            Expr::Compare { left, .. } if matches!(**left, Expr::MethodCall { .. })
        ));
        assert!(matches!(&parts[1], Expr::Between { .. }));
    }

    #[test]
    fn define_and_drop_method() {
        let stmt =
            parse("DEFINE METHOD Vehicle::lbweight() RETURNS Float AS 'return weight * 2.2075;'")
                .unwrap();
        let Statement::DefineMethod {
            class,
            name,
            params,
            returns,
            body,
        } = stmt
        else {
            panic!()
        };
        assert_eq!((class.as_str(), name.as_str()), ("Vehicle", "lbweight"));
        assert!(params.is_empty());
        assert_eq!(returns, TypeDescriptor::float());
        assert_eq!(body, "return weight * 2.2075;");
        assert!(matches!(
            parse("DROP METHOD Vehicle::lbweight").unwrap(),
            Statement::DropMethod { .. }
        ));
    }

    #[test]
    fn create_index_variants() {
        assert!(matches!(
            parse("CREATE INDEX ON Vehicle(weight)").unwrap(),
            Statement::CreateIndex { unique: false, .. }
        ));
        assert!(matches!(
            parse("CREATE UNIQUE BTREE INDEX ON Vehicle(id)").unwrap(),
            Statement::CreateIndex { unique: true, .. }
        ));
    }

    #[test]
    fn a_hash_index_is_a_parse_error() {
        for sql in ["CREATE HASH INDEX ON C(a)", "CREATE UNIQUE HASH INDEX ON C(a)"] {
            assert!(matches!(parse(sql), Err(SqlError::Parse { .. })), "{sql}");
        }
    }

    #[test]
    fn cluster_statement() {
        assert_eq!(
            parse("CLUSTER Vehicle").unwrap(),
            Statement::Cluster {
                class: "Vehicle".into(),
                attr: None
            }
        );
        assert_eq!(
            parse("cluster Vehicle by manufacturer;").unwrap(),
            Statement::Cluster {
                class: "Vehicle".into(),
                attr: Some("manufacturer".into())
            }
        );
        // Still usable as an identifier.
        assert!(parse("SELECT c FROM Cluster c").is_ok());
        assert!(parse("CLUSTER").is_err());
    }

    #[test]
    fn parameters_parse_as_operands() {
        let Statement::Select(s) =
            parse("SELECT v FROM Vehicle v WHERE v.id = $1 AND $2 = v.weight").unwrap()
        else {
            panic!()
        };
        let w = s.where_clause.unwrap();
        assert_eq!(w.render(), "v.id = $1 AND $2 = v.weight");
        assert_eq!(w.max_param(), 2);
        assert_eq!(parse_expr("v.id = $1").unwrap().max_param(), 1);
    }

    #[test]
    fn delete_statement() {
        let stmt = parse("DELETE FROM Vehicle v WHERE v.id = 9").unwrap();
        assert!(matches!(stmt, Statement::Delete { .. }));
    }

    #[test]
    fn explain_wraps_select() {
        assert!(matches!(
            parse("EXPLAIN SELECT v FROM Vehicle v").unwrap(),
            Statement::Explain(_)
        ));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT v FROM").is_err());
        assert!(parse("CREATE CLASS").is_err());
        assert!(parse("SELECT v FROM Vehicle v WHERE v.x = ").is_err());
        assert!(parse("SELECT v FROM Vehicle v extra junk").is_err());
    }
}
