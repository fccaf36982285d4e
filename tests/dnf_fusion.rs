//! WHERE clauses as the optimizer plans them, against the per-term union
//! and the oracle.
//!
//! * **Fused DNF** — a DNF whose AND-terms all scan the root extent runs as
//!   one scan filtered by their disjunction. It must answer exactly the
//!   union of the terms run one by one (each its own statement, the
//!   engine's own per-term plans) and, row for row in extent order, what
//!   the oracle answers: with NULL attributes, NOT, a method term, `$n`
//!   shapes from the plan cache, at batch size 1/7/1024 on first and
//!   repeated execution. A term that raises follows the evaluator's
//!   short-circuit rule: it is not evaluated on an object an earlier term
//!   admitted, as in the oracle's walk of the clause as written.
//! * **Not fused** — a term served by an index, or one with a path, keeps
//!   the Figure 7.2 union; the answer is the oracle's.
//! * **Bounded DNF** — a clause past `MAX_DNF_TERMS` AND-terms is not
//!   expanded: one scan (or the product of its FROM variables' plans)
//!   filtered by the clause as written, in well under a second, with the
//!   oracle's rows.
//! * **Every clause bound** — an unknown attribute in ORDER BY, GROUP BY or
//!   HAVING is the binding error it is in SELECT and WHERE.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use mood_core::sql::SqlError;
use mood_core::{Answer, Mood, MoodError, OptimizerConfig, Value};

#[path = "support/oracle.rs"]
mod oracle;
use oracle::{oracle, try_oracle};

const COLORS: [&str; 4] = ["red", "green", "blue", "white"];

/// 120 parts: every fifth grade is NULL, `k` is 0 exactly for ids below 10,
/// every eleventh maker reference is NULL. `Twin` holds 2 400 parts made
/// the same way, under an index on `id`: extent pages enough for §8.1 to
/// prefer the index on a point term.
fn build() -> Mood {
    let db = Mood::in_memory_with_pool(1024);
    db.set_optimizer_config(OptimizerConfig::paper());
    for ddl in [
        "CREATE CLASS Maker TUPLE (name String(32))",
        "CREATE CLASS Part TUPLE (id Integer, weight Integer, grade Integer, k Integer, \
         color String(16), maker REFERENCE (Maker))",
        "CREATE CLASS Twin TUPLE (id Integer, weight Integer, grade Integer, k Integer, \
         color String(16), maker REFERENCE (Maker))",
        "DEFINE METHOD Part::heft() RETURNS Integer AS 'weight * 2'",
    ] {
        db.execute(ddl).unwrap();
    }
    let c = db.catalog();
    let makers: Vec<_> = (0..5)
        .map(|i| {
            let fields = vec![("name", Value::string(format!("maker{i}")))];
            c.new_object("Maker", Value::tuple(fields)).unwrap()
        })
        .collect();
    for (class, n) in [("Part", 120), ("Twin", 2400)] {
        for i in 0..n {
            let grade = if i % 5 == 2 { Value::Null } else { Value::Integer(i % 4) };
            let maker = match i % 11 {
                10 => Value::Null,
                _ => Value::Ref(makers[i as usize % 5]),
            };
            let fields = vec![
                ("id", Value::Integer(i)),
                ("weight", Value::Integer(700 + (i * 37) % 90)),
                ("grade", grade),
                ("k", Value::Integer(if i < 10 { 0 } else { i % 6 + 1 })),
                ("color", Value::string(COLORS[i as usize % 4])),
                ("maker", maker),
            ];
            c.new_object(class, Value::tuple(fields)).unwrap();
        }
    }
    db.execute("CREATE INDEX ON Twin(id)").unwrap();
    db.collect_stats().unwrap();
    db
}

fn run(db: &Mood, sql: &str) -> Vec<Vec<Value>> {
    match db.execute(sql) {
        Ok(Answer::Rows(r)) => r.rows,
        other => panic!("{sql}: {other:?}"),
    }
}

fn ids(rows: &[Vec<Value>]) -> BTreeSet<i32> {
    let id = |row: &Vec<Value>| match row[0] {
        Value::Integer(i) => i,
        ref other => panic!("id {other}"),
    };
    rows.iter().map(id).collect()
}

/// The answer of `SELECT p.id FROM Part p WHERE t` for each term `t` run
/// as its own statement, unioned.
fn per_term_union(db: &Mood, terms: &[&str]) -> BTreeSet<i32> {
    let each = terms.iter().map(|t| ids(&run(db, &format!("SELECT p.id FROM Part p WHERE {t}"))));
    each.flatten().collect()
}

/// Scan-only DNFs, each as its AND-terms.
const SCAN_ONLY: [&[&str]; 6] = [
    &["p.weight < 710 AND p.color = 'red'", "p.weight > 780 AND p.color = 'blue'", "p.id = 7"],
    // NULL grades: no term admits them, whatever the polarity.
    &["p.grade = 1", "p.grade <> 1 AND p.weight < 740"],
    &["NOT (p.grade = 2)", "p.grade = 2 AND p.color = 'white'"],
    &["p.grade >= 3", "p.grade < 1", "p.color = 'green'"],
    // A method term, evaluated last within its own term.
    &["p.heft() > 1560", "p.weight = 700"],
    // Terms that overlap: each object once.
    &["p.id < 40", "p.id < 60 AND p.grade = 0", "p.weight > 760"],
];

#[test]
fn scan_only_terms_answer_the_per_term_union_in_extent_order() {
    let db = build();
    for terms in SCAN_ONLY {
        let disjunction = terms.iter().map(|t| format!("({t})")).collect::<Vec<_>>();
        let sql = format!("SELECT p.id FROM Part p WHERE {}", disjunction.join(" OR "));
        let plan = db.explain(&sql).unwrap();
        let fused = format!("-- DNF: {} scan-only AND-terms fused into one scan", terms.len());
        assert!(plan.starts_with(&fused), "{sql}\n{plan}");
        // Every term's ImmSelInfo rows, under one plan.
        assert_eq!(plan.matches("SELECT(BIND(Part, p), (").count(), 1, "{plan}");
        let union = per_term_union(&db, terms);
        let want = oracle(&db, &sql);
        assert_eq!(ids(&want), union, "the oracle is the union: {sql}");
        for batch in [1, 7, 1024] {
            db.set_batch_size(batch);
            for pass in 0..2 {
                // One scan: the oracle's extent order, row for row.
                assert_eq!(run(&db, &sql), want, "{sql} (batch {batch}, pass {pass})");
            }
        }
        db.set_batch_size(1024);
    }
}

#[test]
fn a_term_that_raises_follows_the_short_circuit_rule() {
    let db = build();
    // `100 / p.k` divides by zero on ids below 10, which the first term
    // admits: the disjunction never evaluates the second term there.
    let admitted_first = "SELECT p.id FROM Part p WHERE p.id < 10 OR 100 / p.k > 30";
    assert!(db.explain(admitted_first).unwrap().starts_with("-- DNF: 2 scan-only"));
    let want = oracle(&db, admitted_first);
    assert_eq!(run(&db, admitted_first), want);
    assert_eq!(ids(&want), (0..10).chain((10..120).filter(|i| i % 6 + 1 < 4)).collect());
    // Run apart, the second term meets every object, and fails.
    let alone = db.execute("SELECT p.id FROM Part p WHERE 100 / p.k > 30");
    assert!(alone.is_err(), "{alone:?}");
    // Written the other way round, the raising term comes first on those
    // objects: the statement fails, as the oracle does.
    let raised_first = "SELECT p.id FROM Part p WHERE 100 / p.k > 30 OR p.id < 10";
    assert!(try_oracle(&db, raised_first).is_err());
    for pass in 0..2 {
        let got = db.execute(raised_first);
        assert!(got.is_err(), "pass {pass}: {got:?}");
    }
}

#[test]
fn parameter_shapes_run_fused_off_the_cache() {
    let db = build();
    db.set_plan_cache_enabled(true);
    let terms = |grade: i32, weight: i32| {
        [format!("p.grade = {grade} AND p.color = 'red'"), format!("p.weight = {weight}")]
    };
    let text = |grade: i32, weight: i32| {
        let [red, weighed] = terms(grade, weight);
        format!("SELECT p.id FROM Part p WHERE ({red}) OR {weighed}")
    };
    let first = db.explain_analyze(&text(1, 750)).unwrap();
    assert!(!first.contains("UNION"), "{first}");
    for (grade, weight) in [(2, 737), (0, 774), (3, 700)] {
        let sql = text(grade, weight);
        let report = db.explain_analyze(&sql).unwrap();
        assert!(report.contains("plan: cached"), "{report}");
        assert!(report.contains("p.weight = $"), "one plan for every key: {report}");
        let want = oracle(&db, &sql);
        assert_eq!(run(&db, &sql), want, "{sql}");
        let [red, weighed] = terms(grade, weight);
        assert_eq!(ids(&want), per_term_union(&db, &[&red, &weighed]));
    }
}

#[test]
fn an_indexed_or_a_path_term_keeps_the_union() {
    let db = build();
    for (sql, operator) in [
        ("SELECT t.id FROM Twin t WHERE t.id = 7 OR t.weight > 780", "INDSEL("),
        (
            "SELECT p.id FROM Part p WHERE p.maker.name = 'maker3' OR p.weight > 780",
            "JOIN(",
        ),
    ] {
        let plan = db.explain(sql).unwrap();
        assert!(!plan.contains("-- DNF:"), "{plan}");
        assert!(plan.contains(operator), "{plan}");
        // One plan per term.
        assert_eq!(plan.matches("-- Node estimates").count(), 2, "{plan}");
        let want = oracle(&db, sql);
        for pass in 0..2 {
            let got = run(&db, sql);
            // The union emits term by term: the same rows, not the order.
            assert_eq!(ids(&got), ids(&want), "{sql} (pass {pass})");
            assert_eq!(got.len(), want.len(), "{sql}: each object once");
        }
    }
}

/// `(p.grade = 0 OR p.weight = 700 + i) AND …` for `n` pairs: 2^n AND-terms.
fn pairs(n: usize) -> String {
    let pair = |i: usize| format!("(p.grade = {} OR p.weight = {})", i % 4, 700 + i);
    (0..n).map(pair).collect::<Vec<_>>().join(" AND ")
}

#[test]
fn a_dnf_past_the_bound_runs_as_one_filter() {
    let db = build();
    let sql = format!("SELECT p.id, p.weight FROM Part p WHERE {}", pairs(18));
    let plan = db.explain(&sql).unwrap();
    assert!(plan.starts_with("-- DNF: not expanded (262144 AND-terms > 64)"), "{plan}");
    let want = oracle(&db, &sql);
    for pass in 0..2 {
        let start = Instant::now();
        let got = run(&db, &sql);
        let took = start.elapsed();
        assert_eq!(got, want, "pass {pass}");
        assert!(took < Duration::from_secs(1), "pass {pass} took {took:?}");
    }
    // Under the bound the clause is still expanded: 2^6 = 64 terms.
    let expanded = format!("SELECT p.id FROM Part p WHERE {}", pairs(6));
    assert!(!db.explain(&expanded).unwrap().contains("not expanded"));
    assert_eq!(run(&db, &expanded), oracle(&db, &expanded));
    // An explicit join beside it: the product of the variables' plans,
    // filtered by the clause, in the nested loop's order.
    let joined = format!(
        "SELECT p.id, m.name FROM Part p, Maker m WHERE p.maker = m AND {}",
        pairs(18)
    );
    let plan = db.explain(&joined).unwrap();
    assert!(plan.contains("PRODUCT, TRUE)"), "{plan}");
    assert_eq!(run(&db, &joined), oracle(&db, &joined));
    // 65 terms over two variables, one past the bound.
    let disjuncts = (0..64).map(|i| format!("p.weight = {}", 700 + i));
    let over = disjuncts.chain(["m.name = 'maker3'".to_string()]).collect::<Vec<_>>();
    let wide = format!(
        "SELECT p.id, m.name FROM Part p, Maker m WHERE p.id < 40 AND ({})",
        over.join(" OR ")
    );
    let plan = db.explain(&wide).unwrap();
    assert!(plan.starts_with("-- DNF: not expanded (65 AND-terms > 64)"), "{plan}");
    let want = oracle(&db, &wide);
    assert!(want.len() > 40, "{}", want.len());
    for pass in 0..2 {
        assert_eq!(run(&db, &wide), want, "pass {pass}");
    }
}

#[test]
fn an_unknown_attribute_in_order_by_is_a_binding_error() {
    let db = build();
    assert_unknown_zzz(&db, "SELECT p.id FROM Part p ORDER BY p.zzz");
}

#[test]
fn an_unknown_attribute_in_group_by_is_a_binding_error() {
    let db = build();
    assert_unknown_zzz(&db, "SELECT COUNT(*) FROM Part p GROUP BY p.zzz");
}

#[test]
fn an_unknown_attribute_in_having_is_a_binding_error() {
    let db = build();
    let grouped = "SELECT p.color, COUNT(*) FROM Part p GROUP BY p.color";
    assert_unknown_zzz(&db, &format!("{grouped} HAVING MAX(p.zzz) > 1"));
    assert_unknown_zzz(&db, &format!("{grouped} HAVING p.zzz > 1"));
}

/// `sql` fails to bind exactly as the same attribute in SELECT and WHERE.
fn assert_unknown_zzz(db: &Mood, sql: &str) {
    let want = "class Part has no attribute zzz";
    for reference in ["SELECT p.zzz FROM Part p", "SELECT p.id FROM Part p WHERE p.zzz = 1"] {
        match db.execute(reference) {
            Err(MoodError::Sql(SqlError::Bind(m))) if m == want => {}
            other => panic!("{reference}: {other:?}"),
        }
    }
    for explain in [false, true] {
        let got = if explain { db.explain(sql).map(|_| ()) } else { db.execute(sql).map(|_| ()) };
        match got {
            Err(MoodError::Sql(SqlError::Bind(m))) if m == want => {}
            other => panic!("{sql} (explain {explain}): {other:?}"),
        }
    }
}
