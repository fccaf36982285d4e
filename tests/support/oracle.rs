//! The naive oracle the differential suites compare the engine against:
//! whole objects from `catalog.extent()`, the nested-loop product of the
//! FROM list filtered by WHERE as it is walked, a tree-walking interpreter
//! for every expression, every later clause holding its whole input.
//!
//! The interpreter ([`eval_expr`], [`eval_path`], [`eval_pred`]) is the one
//! the engine itself ran before every expression became a register program
//! compiled at first use: it walks the AST against a binding row, one
//! `catalog.get_object` per dereference, one `invoke` per method call. The
//! engine no longer contains it; what it computes is what a program must.

// Each suite that includes this file uses its own part of it.
#![allow(dead_code)]

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use mood_core::datamodel::encode_value_into;
use mood_core::funcman::OperandDataType;
use mood_core::sql::ast::AggFunc;
use mood_core::sql::{parse, BoundObj, Expr, Lit, PathRef, SelectStmt, SqlError, Statement};
use mood_core::storage::Oid;
use mood_core::{Catalog, FunctionManager, Mood, Value};

type Result<T> = std::result::Result<T, SqlError>;

/// The interpreter's binding row: range variable → bound object.
pub type Row = BTreeMap<String, BoundObj>;

/// What the interpreter evaluates against: the database and the values
/// `$1, $2, …` stand for.
#[derive(Clone, Copy)]
pub struct Env<'a> {
    pub catalog: &'a Catalog,
    pub funcman: &'a FunctionManager,
    pub params: &'a [Value],
}

impl<'a> Env<'a> {
    pub fn of(db: &'a Mood) -> Env<'a> {
        Env {
            catalog: db.catalog(),
            funcman: db.funcman(),
            params: &[],
        }
    }
}

fn lit_value(l: &Lit) -> Value {
    match l {
        Lit::Int(i) => match i32::try_from(*i) {
            Ok(v) => Value::Integer(v),
            Err(_) => Value::LongInteger(*i),
        },
        Lit::Float(x) => Value::Float(*x),
        Lit::Str(s) => Value::String(s.clone()),
        Lit::Bool(b) => Value::Boolean(*b),
        Lit::Null => Value::Null,
    }
}

/// Evaluate an expression against a row.
pub fn eval_expr(env: Env<'_>, e: &Expr, row: &Row) -> Result<Value> {
    let eval = |e: &Expr| eval_expr(env, e, row);
    Ok(match e {
        Expr::Literal(l) => lit_value(l),
        Expr::Param(n) => {
            let bound = (*n as usize).checked_sub(1).and_then(|i| env.params.get(i));
            let unbound = || format!("unbound parameter ${n} ({} bound)", env.params.len());
            bound.cloned().ok_or_else(|| SqlError::Bind(unbound()))?
        }
        Expr::Path(p) => eval_path(env, p, row)?,
        Expr::MethodCall { base, method, args } => {
            let arg_vals = args.iter().map(eval).collect::<Result<Vec<_>>>()?;
            // Resolve the receiver: the path must end at a stored object
            // (a Ref or the variable itself).
            let receiver_oid = if base.segments.is_empty() {
                row.get(&base.var).and_then(|b| b.oid)
            } else {
                eval_path(env, base, row)?.as_oid()
            };
            let Some(oid) = receiver_oid else {
                return Err(SqlError::Exec(format!(
                    "method {method}() needs a stored receiver ({} unresolved)",
                    base.render()
                )));
            };
            env.funcman.invoke(oid, method, &arg_vals)?
        }
        Expr::Agg { .. } => {
            return Err(SqlError::Exec("aggregate outside GROUP BY context".into()))
        }
        Expr::Compare { op, left, right } => {
            let (l, r) = (eval(left)?, eval(right)?);
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            match l.compare(&r) {
                Some(ord) => Value::Boolean(op.holds(ord)),
                None => return Err(SqlError::Exec(format!("cannot compare {l} with {r}"))),
            }
        }
        Expr::Between { expr, lo, hi } => {
            let (v, lo, hi) = (eval(expr)?, eval(lo)?, eval(hi)?);
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(Value::Null);
            }
            let ge = v.compare(&lo).map(|o| o != std::cmp::Ordering::Less);
            let le = v.compare(&hi).map(|o| o != std::cmp::Ordering::Greater);
            match (ge, le) {
                (Some(a), Some(b)) => Value::Boolean(a && b),
                _ => return Err(SqlError::Exec("BETWEEN on incomparable values".into())),
            }
        }
        Expr::And(parts) | Expr::Or(parts) => {
            // A part equal to `decides` settles the connective; NULL parts
            // make an undecided one NULL.
            let (decides, name) = match e {
                Expr::And(_) => (false, "AND"),
                _ => (true, "OR"),
            };
            let mut saw_null = false;
            for p in parts {
                match eval(p)? {
                    Value::Boolean(b) if b == decides => return Ok(Value::Boolean(decides)),
                    Value::Boolean(_) => {}
                    Value::Null => saw_null = true,
                    other => {
                        return Err(SqlError::Exec(format!("{name} over non-Boolean {other}")))
                    }
                }
            }
            if saw_null {
                Value::Null
            } else {
                Value::Boolean(!decides)
            }
        }
        Expr::Not(inner) => match eval(inner)? {
            Value::Boolean(b) => Value::Boolean(!b),
            Value::Null => Value::Null,
            other => return Err(SqlError::Exec(format!("NOT over non-Boolean {other}"))),
        },
        Expr::Arith { op, left, right } => {
            let l = OperandDataType::from_value(&eval(left)?)?;
            let r = OperandDataType::from_value(&eval(right)?)?;
            match op {
                '+' => l.add(&r)?,
                '-' => l.sub(&r)?,
                '*' => l.mul(&r)?,
                '/' => l.div(&r)?,
                '%' => l.rem(&r)?,
                other => return Err(SqlError::Exec(format!("unknown operator {other}"))),
            }
            .into_value()
        }
    })
}

/// Evaluate a path against a row, dereferencing through the catalog.
pub fn eval_path(env: Env<'_>, p: &PathRef, row: &Row) -> Result<Value> {
    let Some(bound) = row.get(&p.var) else {
        return Err(SqlError::Exec(format!("unbound range variable {}", p.var)));
    };
    if p.segments.is_empty() {
        return Ok(match bound.oid {
            Some(oid) => Value::Ref(oid),
            None => (*bound.value).clone(),
        });
    }
    let mut cur = (*bound.value).clone();
    for seg in &p.segments {
        loop {
            match cur {
                Value::Ref(oid) => cur = env.catalog.get_object(oid)?.1,
                Value::Null => return Ok(Value::Null),
                _ => break,
            }
        }
        cur = match cur.field(seg) {
            Some(v) => v.clone(),
            // Schema evolution: objects stored before an attribute was
            // added read it as NULL.
            None => match &cur {
                Value::Tuple(_) => Value::Null,
                other => {
                    return Err(SqlError::Exec(format!(
                        "no attribute {seg} on {} (path {}, value {other})",
                        p.var,
                        p.render()
                    )))
                }
            },
        };
    }
    Ok(cur)
}

/// Predicate evaluation: Null (unknown) filters out, per SQL.
pub fn eval_pred(env: Env<'_>, e: &Expr, row: &Row) -> Result<bool> {
    Ok(matches!(eval_expr(env, e, row)?, Value::Boolean(true)))
}

pub fn select_stmt(sql: &str) -> SelectStmt {
    match parse(sql).unwrap() {
        Statement::Select(s) => s,
        other => panic!("not a SELECT: {other:?}"),
    }
}

pub fn bound(oid: Oid, value: &Value) -> BoundObj {
    BoundObj {
        oid: Some(oid),
        value: Arc::new(value.clone()),
    }
}

fn is_agg(e: &Expr) -> bool {
    matches!(e, Expr::Agg { .. })
}

/// Group-aware evaluation: aggregates over the group, comparisons and
/// connectives of those, anything else on the group's first row.
fn eval_group(env: Env<'_>, e: &Expr, group: &[Row]) -> Result<Value> {
    let truth =
        |e: &Expr| -> Result<bool> { Ok(eval_group(env, e, group)? == Value::Boolean(true)) };
    Ok(match e {
        Expr::Agg { func, arg } => {
            let Some(arg) = arg else {
                return Ok(Value::Integer(group.len() as i32));
            };
            let mut nums: Vec<f64> = Vec::new();
            for r in group {
                let v = eval_expr(env, arg, r)?;
                match v.as_f64() {
                    _ if v.is_null() => {}
                    Some(x) => nums.push(x),
                    // COUNT counts whatever is not NULL.
                    None if *func == AggFunc::Count => nums.push(0.0),
                    None => {
                        let name = func.name();
                        let message = format!("{name}() over non-numeric value {v}");
                        return Err(SqlError::Exec(message));
                    }
                }
            }
            let fold = |f: fn(f64, f64) -> f64| nums.iter().copied().reduce(f).map(Value::Float);
            match func {
                AggFunc::Count => Value::Integer(nums.len() as i32),
                AggFunc::Sum => Value::Float(nums.iter().sum()),
                AggFunc::Avg if nums.is_empty() => Value::Null,
                AggFunc::Avg => Value::Float(nums.iter().sum::<f64>() / nums.len() as f64),
                AggFunc::Min => fold(f64::min).unwrap_or(Value::Null),
                AggFunc::Max => fold(f64::max).unwrap_or(Value::Null),
            }
        }
        Expr::Compare { op, left, right } => {
            let (l, r) = (
                eval_group(env, left, group)?,
                eval_group(env, right, group)?,
            );
            if l.is_null() || r.is_null() {
                return Ok(Value::Boolean(false));
            }
            let ord = l.compare(&r).expect("comparable HAVING operands");
            Value::Boolean(op.holds(ord))
        }
        Expr::And(parts) => {
            let mut all = true;
            for p in parts {
                all = all && truth(p)?;
            }
            Value::Boolean(all)
        }
        Expr::Or(parts) => {
            let mut any = false;
            for p in parts {
                any = any || truth(p)?;
            }
            Value::Boolean(any)
        }
        Expr::Not(inner) => Value::Boolean(!truth(inner)?),
        // Aggregates without GROUP BY form one group even over no input.
        other => match group.first() {
            Some(first) => eval_expr(env, other, first)?,
            None => Value::Null,
        },
    })
}

fn cmp_keys(a: &[Value], b: &[Value], asc: &[bool]) -> std::cmp::Ordering {
    for ((x, y), asc) in a.iter().zip(b).zip(asc) {
        // A NULL key sorts before anything else.
        let ord = x
            .compare(y)
            .unwrap_or_else(|| y.is_null().cmp(&x.is_null()));
        let ord = if *asc { ord } else { ord.reverse() };
        if ord.is_ne() {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// The combinations of a FROM list's objects, whole, that `keep` admits,
/// in nested-loop order (the last item varies fastest). The extents are
/// walked like an odometer and a combination is held only once `keep`
/// admits it, so the memory is the extents' and the answer's, never the
/// product's. The first error `keep` raises ends the walk.
pub fn product(
    catalog: &Catalog,
    stmt: &SelectStmt,
    mut keep: impl FnMut(&Row) -> Result<bool>,
) -> Result<Vec<Row>> {
    let extents: Vec<Vec<BoundObj>> = stmt
        .from
        .iter()
        .map(|item| {
            let extent = match item.every {
                true => catalog.extent_every(&item.class, &item.minus),
                false => catalog.extent(&item.class),
            };
            extent.unwrap().iter().map(|(oid, value)| bound(*oid, value)).collect()
        })
        .collect();
    let mut rows = Vec::new();
    if extents.iter().any(Vec::is_empty) {
        return Ok(rows);
    }
    let mut at = vec![0; extents.len()];
    loop {
        let objects = stmt.from.iter().zip(&extents).zip(&at);
        let row: Row = objects.map(|((f, ext), &i)| (f.var.clone(), ext[i].clone())).collect();
        if keep(&row)? {
            rows.push(row);
        }
        // The next combination: the last digit that has not run through its
        // extent moves on, every digit after it starts over.
        let Some(d) = (0..at.len()).rev().find(|&d| at[d] + 1 < extents[d].len()) else {
            return Ok(rows);
        };
        at[d] += 1;
        at[d + 1..].fill(0);
    }
}

/// Evaluate a SELECT the slow, obvious way.
pub fn oracle(db: &Mood, sql: &str) -> Vec<Vec<Value>> {
    try_oracle(db, sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// [`oracle`], for statements that may fail: the first error met walking
/// the clauses in Figure 7.1's order, each clause over its whole input.
pub fn try_oracle(db: &Mood, sql: &str) -> Result<Vec<Vec<Value>>> {
    let stmt = select_stmt(sql);
    let env = Env::of(db);
    let rows = product(env.catalog, &stmt, |row| match &stmt.where_clause {
        Some(w) => eval_pred(env, w, row),
        None => Ok(true),
    })?;
    let asc: Vec<bool> = stmt.order_by.iter().map(|(_, asc)| *asc).collect();
    let grouped = !stmt.group_by.is_empty() || stmt.projection.iter().any(is_agg);
    let mut out: Vec<Vec<Value>> = if grouped {
        let mut index: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
        let mut groups: Vec<Vec<Row>> = Vec::new();
        for row in rows {
            let mut key = Vec::new();
            for g in &stmt.group_by {
                encode_value_into(&mut key, &eval_path(env, g, &row)?);
            }
            let at = *index.entry(key).or_insert(groups.len());
            if at == groups.len() {
                groups.push(Vec::new());
            }
            groups[at].push(row);
        }
        if stmt.group_by.is_empty() && groups.is_empty() {
            groups.push(Vec::new());
        }
        let mut out = Vec::new();
        for g in &groups {
            let keep = match &stmt.having {
                Some(h) => eval_group(env, h, g)? == Value::Boolean(true),
                None => true,
            };
            if keep {
                let cell = |p| eval_group(env, p, g);
                out.push(stmt.projection.iter().map(cell).collect::<Result<_>>()?);
            }
        }
        // Grouped ORDER BY names output columns.
        let cols: Vec<usize> = stmt
            .order_by
            .iter()
            .map(|(p, _)| {
                let label = p.render();
                let at = stmt.projection.iter().position(|e| e.render() == label);
                at.expect("grouped ORDER BY key is projected")
            })
            .collect();
        let keys = |r: &Vec<Value>| cols.iter().map(|&c| r[c].clone()).collect::<Vec<_>>();
        out.sort_by(|a, b| cmp_keys(&keys(a), &keys(b), &asc));
        out
    } else {
        let mut keyed = Vec::new();
        for r in &rows {
            let key = |(p, _): &(PathRef, bool)| eval_path(env, p, r);
            let keys = stmt.order_by.iter().map(key).collect::<Result<Vec<_>>>()?;
            let cell = |p| eval_expr(env, p, r);
            let cells = stmt
                .projection
                .iter()
                .map(cell)
                .collect::<Result<Vec<_>>>()?;
            keyed.push((keys, cells));
        }
        keyed.sort_by(|(a, _), (b, _)| cmp_keys(a, b, &asc));
        keyed.into_iter().map(|(_, cells)| cells).collect()
    };
    if stmt.distinct {
        let mut seen = HashSet::new();
        out.retain(|r| seen.insert(row_bytes(r)));
    }
    Ok(out)
}

pub fn row_bytes(row: &[Value]) -> Vec<u8> {
    let mut key = Vec::new();
    for v in row {
        encode_value_into(&mut key, v);
    }
    key
}
