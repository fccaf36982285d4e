//! The naive oracle the differential suites (`read_set.rs`,
//! `stream_tail.rs`) compare the engine against: whole objects from
//! `catalog.extent()`, the nested-loop product of the FROM list, `eval_expr`
//! for every expression, every clause holding its whole input.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use mood_core::datamodel::encode_value_into;
use mood_core::sql::ast::AggFunc;
use mood_core::sql::{parse, BoundObj, Executor, Expr, Row, SelectStmt, Statement};
use mood_core::storage::Oid;
use mood_core::{Mood, Value};

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
fn eval_group(ex: &Executor<'_>, e: &Expr, group: &[Row]) -> Value {
    match e {
        Expr::Agg { func, arg } => {
            let Some(arg) = arg else {
                return Value::Integer(group.len() as i32);
            };
            let nums: Vec<f64> = group
                .iter()
                .map(|r| ex.eval_expr(arg, r).unwrap())
                .filter(|v| !v.is_null())
                .map(|v| v.as_f64().expect("numeric aggregate argument"))
                .collect();
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
            let (l, r) = (eval_group(ex, left, group), eval_group(ex, right, group));
            if l.is_null() || r.is_null() {
                return Value::Boolean(false);
            }
            let ord = l.compare(&r).expect("comparable HAVING operands");
            Value::Boolean(match op.symbol() {
                "=" => ord.is_eq(),
                "<>" => ord.is_ne(),
                "<" => ord.is_lt(),
                "<=" => ord.is_le(),
                ">" => ord.is_gt(),
                _ => ord.is_ge(),
            })
        }
        Expr::And(parts) => Value::Boolean(
            parts
                .iter()
                .all(|p| eval_group(ex, p, group) == Value::Boolean(true)),
        ),
        Expr::Or(parts) => Value::Boolean(
            parts
                .iter()
                .any(|p| eval_group(ex, p, group) == Value::Boolean(true)),
        ),
        Expr::Not(inner) => Value::Boolean(eval_group(ex, inner, group) != Value::Boolean(true)),
        // Aggregates without GROUP BY form one group even over no input.
        other => group
            .first()
            .map_or(Value::Null, |first| ex.eval_expr(other, first).unwrap()),
    }
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

/// Evaluate a SELECT the slow, obvious way.
pub fn oracle(db: &Mood, sql: &str) -> Vec<Vec<Value>> {
    let stmt = select_stmt(sql);
    let catalog = db.catalog();
    let ex = Executor::new(catalog, db.funcman());
    let mut rows = vec![Row::new()];
    for item in &stmt.from {
        let extent = if item.every {
            catalog.extent_every(&item.class, &item.minus)
        } else {
            catalog.extent(&item.class)
        }
        .unwrap();
        let mut next = Vec::new();
        for row in &rows {
            for (oid, value) in &extent {
                let mut r = row.clone();
                r.insert(item.var.clone(), bound(*oid, value));
                next.push(r);
            }
        }
        rows = next;
    }
    if let Some(w) = &stmt.where_clause {
        rows.retain(|r| ex.eval_pred(w, r).unwrap());
    }
    let asc: Vec<bool> = stmt.order_by.iter().map(|(_, asc)| *asc).collect();
    let grouped = !stmt.group_by.is_empty() || stmt.projection.iter().any(is_agg);
    let mut out: Vec<Vec<Value>> = if grouped {
        let mut index: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
        let mut groups: Vec<Vec<Row>> = Vec::new();
        for row in rows {
            let mut key = Vec::new();
            for g in &stmt.group_by {
                encode_value_into(
                    &mut key,
                    &ex.eval_expr(&Expr::Path(g.clone()), &row).unwrap(),
                );
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
        if let Some(h) = &stmt.having {
            groups.retain(|g| eval_group(&ex, h, g) == Value::Boolean(true));
        }
        let mut out: Vec<Vec<Value>> = groups
            .iter()
            .map(|g| {
                stmt.projection
                    .iter()
                    .map(|p| eval_group(&ex, p, g))
                    .collect()
            })
            .collect();
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
        let keys = |r: &Row| -> Vec<Value> {
            let key = |(p, _): &(_, bool)| ex.eval_expr(&Expr::Path(Clone::clone(p)), r).unwrap();
            stmt.order_by.iter().map(key).collect()
        };
        rows.sort_by(|a, b| cmp_keys(&keys(a), &keys(b), &asc));
        rows.iter()
            .map(|r| {
                let cell = |p| ex.eval_expr(p, r).unwrap();
                stmt.projection.iter().map(cell).collect()
            })
            .collect()
    };
    if stmt.distinct {
        let mut seen = HashSet::new();
        out.retain(|r| seen.insert(row_bytes(r)));
    }
    out
}

pub fn row_bytes(row: &[Value]) -> Vec<u8> {
    let mut key = Vec::new();
    for v in row {
        encode_value_into(&mut key, v);
    }
    key
}
