//! The streaming SELECT tail against the naive oracle.
//!
//! * **Differential** — every clause the tail implements (projection,
//!   DISTINCT, GROUP BY/HAVING with accumulators, ORDER BY), fed by every
//!   kind of producer (object batches of a scan, the union of DNF terms,
//!   join rows, the combination of FROM components), must answer exactly what
//!   `support/oracle.rs` answers holding whole inputs: at batch size
//!   1/7/1024 × sort budget 2/16/65 536 (2 and 16 spill sort runs *and*
//!   group partitions) × parallelism 1/2/4/8, on a plan's first execution
//!   (which compiles each expression as it first evaluates it) and on
//!   later ones. Floats are compared by
//!   their bits: an accumulator adds in input order, like the oracle's
//!   fold.
//! * **Every expression shape** — what a program must compute is what the
//!   oracle's tree walker computes: methods on the variable, at a path's
//!   end, with arguments, inside arithmetic, calling each other, raising;
//!   bare variables; two-variable comparisons under a join and over FROM
//!   components; NULL in mid-path; an attribute newer than the record;
//!   ill-typed comparisons over an empty and a non-empty extent — rows or
//!   error, text included, on first and repeated execution.
//! * **Counts** — the aggregation budget counts groups, not rows (moodbench
//!   defect 5), and a spilled partition is written once and read once.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mood_core::sql::{SqlError, MAX_EXPR_DEPTH};
use mood_core::{Answer, MethodSig, Mood, MoodError, OptimizerConfig, TypeDescriptor, Value};

#[path = "support/oracle.rs"]
mod oracle;
use oracle::{oracle, row_bytes, try_oracle};

const COLORS: [&str; 4] = ["red", "green", "blue", "white"];
/// Sums of these depend on the order they are added in.
const PRICES: [f64; 7] = [1e16, 1.0, -1e16, 0.1, 0.2, 0.3, 2.5e-3];

/// 150 parts and 40 gadgets (a subclass): weights repeat (ties), every
/// seventh grade and every thirteenth maker reference is NULL. `Shelf` stays
/// empty. The methods: source-defined ones that read attributes, take
/// arguments, call each other and (`ratio`, on id 7) raise, and a native
/// one.
fn build() -> Mood {
    let db = Mood::in_memory_with_pool(4096);
    db.set_optimizer_config(OptimizerConfig::paper());
    for ddl in [
        "CREATE CLASS Maker TUPLE (name String(32), city String(32))",
        "CREATE CLASS Part TUPLE (id Integer, weight Integer, grade Integer, price Float, \
         color String(16), maker REFERENCE (Maker))",
        "CREATE CLASS Gadget INHERITS FROM Part",
        "CREATE CLASS Shelf TUPLE (id Integer, label String(8))",
        "CREATE CLASS Gauge TUPLE (id Integer, level Float, n Integer, big LongInteger)",
        "CREATE CLASS T TUPLE (id Integer, w Float, s String(16), b Boolean)",
        "DEFINE METHOD Part::heft() RETURNS Integer AS 'weight * 2'",
        "DEFINE METHOD Part::scaled(f Integer, d Integer) RETURNS Integer AS 'weight * f + d'",
        "DEFINE METHOD Part::twice() RETURNS Integer AS 'heft() + scaled(2, 0)'",
        "DEFINE METHOD Part::ratio() RETURNS Integer AS '1000 / (id - 7)'",
        "DEFINE METHOD Maker::tag() RETURNS String AS 'name'",
    ] {
        db.execute(ddl).unwrap();
    }
    db.register_native_method(
        "Part",
        MethodSig::new(
            "plus",
            TypeDescriptor::integer(),
            vec![("n", TypeDescriptor::integer())],
        ),
        Arc::new(|part, args, _| match (part.field("weight"), &args[0]) {
            (Some(Value::Integer(w)), Value::Integer(n)) => Ok(Value::Integer(w + n)),
            other => panic!("plus({other:?})"),
        }),
    )
    .unwrap();
    let c = db.catalog();
    let makers: Vec<_> = (0..9)
        .map(|i| {
            let fields = vec![
                ("name", Value::string(format!("maker{i}"))),
                ("city", Value::string(format!("city{}", i % 3))),
            ];
            c.new_object("Maker", Value::tuple(fields)).unwrap()
        })
        .collect();
    for (class, count, base) in [("Part", 150, 0), ("Gadget", 40, 1000)] {
        for i in 0..count {
            let grade = if i % 7 == 3 {
                Value::Null
            } else {
                Value::Integer(i % 5)
            };
            let maker = match i % 13 {
                12 => Value::Null,
                _ => Value::Ref(makers[(i as usize * 7) % 9]),
            };
            let fields = vec![
                ("id", Value::Integer(base + i)),
                ("weight", Value::Integer(700 + (i * 37) % 90)),
                ("grade", grade),
                ("price", Value::Float(PRICES[i as usize % 7])),
                ("color", Value::string(COLORS[i as usize % 4])),
                ("maker", maker),
            ];
            c.new_object(class, Value::tuple(fields)).unwrap();
        }
    }
    // Both zeros, a NULL, and integers in every width.
    let levels = [Some(0.0), Some(-0.0), Some(1.0), Some(2.0), Some(-0.0), Some(1.0), None];
    for (i, level) in levels.into_iter().enumerate() {
        let level = level.map_or(Value::Null, Value::Float);
        let n = (i as i32 % 3, i as i64 % 3 + (1 << 40) * (i as i64 % 2));
        let fields = vec![
            ("id", Value::Integer(i as i32)),
            ("level", level),
            ("n", Value::Integer(n.0)),
            ("big", Value::LongInteger(n.1)),
        ];
        c.new_object("Gauge", Value::tuple(fields)).unwrap();
    }
    // `T`: an attribute of each atomic kind, `<i, i.5, 'xi', i is even>`.
    for i in 0..8 {
        let fields = vec![
            ("id", Value::Integer(i)),
            ("w", Value::Float(i as f64 + 0.5)),
            ("s", Value::string(format!("x{i}"))),
            ("b", Value::Boolean(i % 2 == 0)),
        ];
        c.new_object("T", Value::tuple(fields)).unwrap();
    }
    db.collect_stats().unwrap();
    db
}

fn run(db: &Mood, sql: &str) -> Vec<Vec<Value>> {
    match db.execute(sql) {
        Ok(Answer::Rows(r)) => r.rows,
        other => panic!("{sql}: {other:?}"),
    }
}

/// How an answer is compared with the oracle's.
#[derive(Clone, Copy, PartialEq)]
enum Order {
    /// Row for row: the statement orders totally, or it is one scan, whose
    /// extent order both sides follow.
    Exact,
    /// As a multiset: several plans (or a join) feed an unordered tail.
    Any,
}

const CORPUS: &[(&str, Order)] = &[
    // ORDER BY: keys that are not projected, DESC, ties (the sort is
    // stable), NULL keys (first ascending, last descending).
    (
        "SELECT p.id FROM Part p ORDER BY p.weight DESC, p.id",
        Order::Exact,
    ),
    (
        "SELECT p.id, p.weight FROM Part p ORDER BY p.weight",
        Order::Exact,
    ),
    (
        "SELECT p.id, p.grade FROM EVERY Part p ORDER BY p.grade, p.id",
        Order::Exact,
    ),
    (
        "SELECT p.id FROM Part p ORDER BY p.grade DESC",
        Order::Exact,
    ),
    (
        "SELECT p.id, p.weight * 2 + 1 FROM Part p WHERE p.color = 'green' ORDER BY p.id DESC",
        Order::Exact,
    ),
    // A bare variable is the scanned object's reference.
    (
        "SELECT p FROM Part p WHERE p.weight > 780 ORDER BY p.id",
        Order::Exact,
    ),
    // DISTINCT alone, after a sort on keys it does not project (a
    // duplicate keeps its first position in sorted order), and on its key.
    ("SELECT DISTINCT p.color FROM EVERY Part p", Order::Exact),
    (
        "SELECT DISTINCT p.color, p.grade FROM Part p ORDER BY p.weight DESC, p.id",
        Order::Exact,
    ),
    (
        "SELECT DISTINCT p.weight FROM Part p ORDER BY p.weight",
        Order::Exact,
    ),
    // Accumulators: every function, float sums whose value depends on the
    // order of addition, groups in first-appearance order.
    (
        "SELECT p.color, COUNT(*), SUM(p.price), AVG(p.price), MIN(p.weight), MAX(p.id) \
         FROM Part p GROUP BY p.color",
        Order::Exact,
    ),
    (
        "SELECT SUM(p.price), AVG(p.price) FROM EVERY Part p",
        Order::Exact,
    ),
    (
        "SELECT p.color, SUM(p.price) FROM Part p WHERE p.weight > 720 GROUP BY p.color \
         ORDER BY p.color",
        Order::Exact,
    ),
    // HAVING mixing aggregates and group keys, with every connective; a
    // NULL group key; COUNT of a nullable argument.
    (
        "SELECT p.color, COUNT(*), AVG(p.weight) FROM Part p GROUP BY p.color \
         HAVING COUNT(*) > 10 AND p.color <> 'red' ORDER BY p.color DESC",
        Order::Exact,
    ),
    (
        "SELECT p.grade, COUNT(p.grade), AVG(p.weight) FROM EVERY Part p GROUP BY p.grade \
         HAVING NOT (AVG(p.weight) < 740) OR COUNT(*) = 27",
        Order::Exact,
    ),
    // More groups than the small budgets hold: partitions, then (with
    // ORDER BY) sort runs of the grouped rows.
    (
        "SELECT p.id, COUNT(*), MAX(p.weight) FROM Part p GROUP BY p.id",
        Order::Exact,
    ),
    (
        "SELECT p.id, SUM(p.price) FROM EVERY Part p GROUP BY p.id HAVING SUM(p.price) > 0 \
         ORDER BY p.id DESC",
        Order::Exact,
    ),
    // No input: one group without GROUP BY, none with.
    (
        "SELECT COUNT(*), COUNT(p.id), AVG(p.price), SUM(p.price), MIN(p.id) FROM Part p \
         WHERE p.id < 0",
        Order::Exact,
    ),
    (
        "SELECT p.color, COUNT(*) FROM Part p WHERE p.id < 0 GROUP BY p.color",
        Order::Exact,
    ),
    // DNF: each term its own plan, deduplicated in the stream.
    (
        "SELECT p.id FROM Part p WHERE (p.weight < 710 AND p.color = 'red') OR \
         (p.weight > 780 AND p.color = 'blue') OR p.id = 7 ORDER BY p.id",
        Order::Exact,
    ),
    (
        "SELECT p.color, COUNT(*), MAX(p.weight) FROM Part p WHERE p.weight < 720 OR \
         p.color = 'white' GROUP BY p.color ORDER BY p.color",
        Order::Exact,
    ),
    (
        "SELECT DISTINCT p.color, p.grade FROM Part p WHERE p.weight < 720 OR p.grade = 2",
        Order::Any,
    ),
    // A path term (whose join also binds the optimizer's path variable) or
    // an immediate term: a part that passes both is one answer.
    (
        "SELECT p.id FROM Part p WHERE p.maker.name = 'maker3' OR p.weight > 780 ORDER BY p.id",
        Order::Exact,
    ),
    // Joins feed rows.
    (
        "SELECT p.id, p.maker.city FROM Part p WHERE p.maker.name = 'maker3' ORDER BY p.id",
        Order::Exact,
    ),
    (
        "SELECT p.maker.city, COUNT(*), MIN(p.weight) FROM Part p WHERE p.maker.name <> 'maker0' \
         GROUP BY p.maker.city ORDER BY p.maker.city",
        Order::Exact,
    ),
    (
        "SELECT DISTINCT p.maker.city FROM EVERY Part p WHERE p.maker.name <> 'maker1'",
        Order::Any,
    ),
    // FROM lists no path links: one plan per component, combined in FROM
    // order — a product, or a hash join on `x.a = y.b` — and filtered by
    // the conjuncts over several. Without ORDER BY the rows come out in
    // the nested loop's order.
    (
        "SELECT p.id, m.name FROM Part p, Maker m WHERE p.weight > 785 AND m.city = 'city1' \
         ORDER BY p.id, m.name",
        Order::Exact,
    ),
    (
        "SELECT m.city, COUNT(*) FROM Part p, Maker m WHERE p.weight > 780 GROUP BY m.city \
         ORDER BY m.city",
        Order::Exact,
    ),
    // A hash key that is NULL on both sides matches nothing.
    (
        "SELECT p.id, g.id FROM Part p, Gadget g WHERE p.grade = g.grade AND p.id < 20",
        Order::Exact,
    ),
    // Integer against Float is no hash key: the product, filtered.
    (
        "SELECT p.id, g.id, g.price FROM Part p, Gadget g WHERE p.grade = g.price \
         AND p.id < 30 AND g.id < 1010",
        Order::Exact,
    ),
    // `EVERY X - Y` and `EVERY X` on a later item.
    (
        "SELECT m.name, p.id FROM Maker m, EVERY Part - Gadget p WHERE m.city = 'city1' \
         AND p.weight > 785",
        Order::Exact,
    ),
    (
        "SELECT m.name, p.id FROM Maker m, EVERY Part p WHERE m.city = 'city1' AND p.weight > 785",
        Order::Exact,
    ),
    // A DNF across the variables: each term's conjuncts go to their own
    // variable's plan.
    (
        "SELECT p.id, m.name FROM Part p, Maker m WHERE (p.weight > 785 AND m.city = 'city1') \
         OR (p.id = 3 AND m.name = 'maker2')",
        Order::Any,
    ),
    // An explicit join under an OR binds its variable only if every branch
    // holds it: here one does not, and `m` is a component of its own.
    (
        "SELECT p.id, m.name FROM Part p, Maker m WHERE p.maker = m OR p.id = 1",
        Order::Any,
    ),
    (
        "SELECT p.id, m.name FROM Part p, Maker m WHERE (p.maker = m AND m.city = 'city1') \
         OR (p.maker = m AND p.weight > 785)",
        Order::Any,
    ),
    // A later item absorbs another by its path; the first joins it by value.
    (
        "SELECT g.id, p.id, m.name FROM Gadget g, Part p, Maker m WHERE p.maker = m \
         AND g.weight = p.weight AND g.id < 1005",
        Order::Exact,
    ),
    // Float keys filter the product: `0.0` = `-0.0`, Integer = Float. An
    // Integer and a LongInteger key hash alike.
    (
        "SELECT a.id, b.id FROM Gauge a, Gauge b WHERE a.level = b.level",
        Order::Exact,
    ),
    (
        "SELECT a.id, b.id FROM Gauge a, Gauge b WHERE a.n = b.level",
        Order::Exact,
    ),
    (
        "SELECT a.id, b.id, c.id FROM Gauge a, Gauge b, Gauge c WHERE a.n = b.big \
         AND b.n = c.n AND c.level >= 0.0",
        Order::Exact,
    ),
    // A String hash key between an absorbed variable and a later item; a
    // float sum whose value depends on the row order.
    (
        "SELECT m.city, COUNT(*), SUM(p.price) FROM Part p, Maker m, Maker n WHERE p.maker = m \
         AND m.city = n.city AND n.name = 'maker1' GROUP BY m.city",
        Order::Exact,
    ),
    // Float literals, constants no Integer holds, and comparisons whose
    // operand is itself a comparison: each predicate runs as written.
    ("SELECT t.id FROM T t WHERE t.id / 2.0 = 2.5", Order::Exact),
    ("SELECT t.id FROM T t WHERE t.id / 2.0 = 2.5 OR t.id / 2.0 = 3.5", Order::Exact),
    ("SELECT t.id FROM T t WHERE (t.id > 5) = TRUE", Order::Exact),
    ("SELECT t.id FROM T t WHERE t.b = (t.id > 5)", Order::Exact),
    ("SELECT t.id FROM T t WHERE t.w < 100000000000000000000.0", Order::Exact),
    ("SELECT a.id, b.id FROM T a, T b WHERE a.id / 2.0 = b.w", Order::Exact),
    // A negated explicit join: the negation of the join as written, a
    // filter over the product — beside the join itself, and alone.
    (
        "SELECT p.id, m.name FROM Part p, Maker m WHERE p.maker = m AND NOT (p.maker = m)",
        Order::Exact,
    ),
    ("SELECT p.id, m.name FROM Part p, Maker m WHERE NOT (p.maker = m)", Order::Exact),
];

fn assert_same(want: &[Vec<Value>], got: &[Vec<Value>], order: Order, ctx: &str) {
    let bits = |rows: &[Vec<Value>]| {
        let mut rows: Vec<Vec<u8>> = rows.iter().map(|r| row_bytes(r)).collect();
        if order == Order::Any {
            rows.sort();
        }
        rows
    };
    assert!(
        bits(want) == bits(got),
        "{ctx}\n expected {} rows: {:?}\n got {} rows: {:?}",
        want.len(),
        &want[..want.len().min(6)],
        got.len(),
        &got[..got.len().min(6)]
    );
}

#[test]
fn the_tail_answers_what_the_oracle_answers_under_every_setting() {
    let db = build();
    let expected: Vec<_> = CORPUS.iter().map(|(sql, _)| oracle(&db, sql)).collect();
    // The corpus is not vacuous where it matters.
    let last = CORPUS.len() - 1;
    for (i, rows) in [(2, 190), (6, 4), (14, 150), (16, 1), (17, 0), (last - 1, 0), (last, 1112)] {
        assert_eq!(expected[i].len(), rows, "{}", CORPUS[i].0);
    }
    let t = CORPUS.iter().position(|(sql, _)| sql.contains("FROM T t")).expect("T's statements");
    for (i, rows) in [1, 2, 2, 4, 8, 4].into_iter().enumerate() {
        assert_eq!(expected[t + i].len(), rows, "{}", CORPUS[t + i].0);
    }
    let before = db.engine_metrics();
    for batch in [1, 7, 1024] {
        for budget in [2, 16, 65_536] {
            for parallelism in [1, 2, 4, 8] {
                // Each setter empties the plan cache: pass 0 prepares the
                // plan and compiles its programs, passes 1 and 2 run them.
                db.set_batch_size(batch);
                db.set_sort_budget(budget);
                db.set_parallelism(parallelism);
                for ((sql, order), want) in CORPUS.iter().zip(&expected) {
                    for pass in 0..3 {
                        let ctx = format!(
                            "{sql}\n (batch {batch}, budget {budget}, parallelism \
                             {parallelism}, pass {pass})"
                        );
                        assert_same(want, &run(&db, sql), *order, &ctx);
                    }
                }
            }
        }
    }
    let after = db.engine_metrics();
    assert!(
        after.batch.spilled_runs > before.batch.spilled_runs,
        "sorts spilled"
    );
    assert!(
        after.agg_spilled_partitions > before.agg_spilled_partitions,
        "aggregations spilled"
    );
}

/// The planned-DML statements whose targets `EXPLAIN` shows beside the
/// corpus's plans.
const DML: &[&str] = &[
    "UPDATE T t SET s = 'hit' WHERE t.id / 2.0 = 2.5",
    "DELETE FROM T t WHERE t.id / 2.0 = 2.5",
];

/// `EXPLAIN` of every corpus statement and of the DML witnesses is
/// byte-identical to the committed `explain.golden` (an error stands as
/// `error: <message>`): plans, dictionary rows, estimates and read sets move
/// only when a change means to move them.
///
/// To regenerate on purpose:
///
/// ```text
/// MOOD_WRITE_GOLDEN=1 cargo test -p mood-core --test stream_tail explain_matches_the_golden
/// ```
#[test]
fn explain_matches_the_golden() {
    let db = build();
    let statements = CORPUS.iter().map(|(sql, _)| *sql).chain(DML.iter().copied());
    let mut got = String::new();
    for sql in statements {
        let plan = db.explain(sql).unwrap_or_else(|e| format!("error: {e}\n"));
        got.push_str(&format!("== EXPLAIN {sql}\n{plan}\n"));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/explain.golden");
    if std::env::var_os("MOOD_WRITE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
    }
    let want = std::fs::read_to_string(path).expect("tests/explain.golden");
    if got != want {
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        let line = line.unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "EXPLAIN differs from explain.golden at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

/// A float literal displays as written, with a decimal point: a result
/// column's label, a plan's opaque conjunct and atom, a dictionary row and
/// a float parameter of a shape plan.
#[test]
fn a_float_literal_displays_as_written() {
    let db = build();
    match db.execute("SELECT t.id / 2.0 FROM T t WHERE t.id = 5") {
        Ok(Answer::Rows(r)) => {
            assert_eq!(r.columns, ["t.id / 2.0"]);
            assert_eq!(r.rows, [[Value::Float(2.5)]]);
        }
        other => panic!("{other:?}"),
    }
    let plan = db.explain("SELECT t.id FROM T t WHERE t.id / 2.0 = 2.5").unwrap();
    assert!(plan.lines().any(|l| l == "SELECT(BIND(T, t), t.id / 2.0 = 2.5)"), "{plan}");
    let plan = db.explain("SELECT t.id FROM T t WHERE t.w >= 3.0").unwrap();
    assert!(plan.contains("--   t.w >= 3.0 | "), "{plan}");
    assert!(plan.lines().any(|l| l == "SELECT(BIND(T, t), t.w >= 3.0)"), "{plan}");
    let sql = "SELECT t.id FROM T t WHERE t.w = 3.0";
    db.explain_analyze(sql).unwrap();
    let cached = db.explain_analyze(sql).unwrap();
    assert!(cached.contains("$1=3.0"), "{cached}");
}

/// The shapes the engine used to hand to its interpreter, and the errors a
/// row can raise: each must come out as the oracle's tree walker has it.
const SHAPES: &[(&str, Order)] = &[
    // A method on the variable (dispatched on the scanned object), in the
    // predicate and the projection; with arguments; inside arithmetic;
    // native; calling other methods.
    (
        "SELECT p.id, p.heft() FROM Part p WHERE p.heft() > 1500 ORDER BY p.id",
        Order::Exact,
    ),
    (
        "SELECT p.id, p.scaled(2, p.id) - p.weight * 2 FROM Part p WHERE p.scaled(3, 1) % 2 = 0",
        Order::Exact,
    ),
    (
        "SELECT p.id, p.plus(p.grade) FROM EVERY Part p WHERE p.plus(1) * 2 > p.heft() \
         AND p.grade > 0 ORDER BY p.id DESC",
        Order::Exact,
    ),
    (
        "SELECT p.color, MAX(p.twice()), SUM(p.heft()), COUNT(*) FROM Part p \
         WHERE p.twice() >= 3000 GROUP BY p.color HAVING MIN(p.plus(0)) > 0 ORDER BY p.color",
        Order::Exact,
    ),
    // A method at a path's end: the receiver is fetched by the call. A NULL
    // reference is no receiver.
    (
        "SELECT p.id, p.maker.tag() FROM Part p WHERE p.id % 13 <> 12 ORDER BY p.id",
        Order::Exact,
    ),
    (
        "SELECT p.id FROM Part p WHERE p.id % 13 <> 12 AND p.maker.name <> 'maker2' \
         AND p.maker.tag() <> 'maker4' ORDER BY p.id",
        Order::Exact,
    ),
    ("SELECT p.maker.tag() FROM Part p", Order::Exact),
    // A method that raises: on the row that reaches it, not before.
    ("SELECT p.id FROM Part p WHERE p.ratio() > 0", Order::Exact),
    (
        "SELECT p.id, p.ratio() FROM Part p WHERE p.id > 7 ORDER BY p.id",
        Order::Exact,
    ),
    // Bare variables: projected, compared with a reference, and a
    // two-variable comparison, over a join and over two components (`n` is
    // not absorbed: `m.city = n.city` is the hash key combining them).
    (
        "SELECT p, p.maker FROM EVERY Part p WHERE p.weight > 785 ORDER BY p.id",
        Order::Exact,
    ),
    (
        "SELECT p.id, m.name, m FROM Part p, Maker m WHERE p.maker = m AND m.name <> 'maker0' \
         AND p.color < m.city ORDER BY p.id",
        Order::Exact,
    ),
    (
        "SELECT g.id, m.name, n FROM Gadget g, Maker m, Maker n WHERE g.maker = m AND \
         n.name = 'maker1' AND m.city = n.city ORDER BY g.id",
        Order::Exact,
    ),
    // NULL in mid-path, in every clause that evaluates one.
    (
        "SELECT p.id, p.maker.city FROM Part p WHERE p.id > 140 ORDER BY p.maker.city, p.id",
        Order::Exact,
    ),
    (
        "SELECT p.maker.city, COUNT(p.maker.name), COUNT(*) FROM EVERY Part p \
         GROUP BY p.maker.city ORDER BY p.maker.city",
        Order::Exact,
    ),
    // An attribute newer than every record reads NULL.
    (
        "SELECT p.id, p.stock, p.stock + 1 FROM Part p WHERE p.id < 3 OR p.stock > 0",
        Order::Any,
    ),
    ("SELECT COUNT(p.stock), COUNT(*) FROM Part p", Order::Exact),
    // Ill-typed comparisons raise when a row reaches them: never over an
    // empty extent, not behind a part that already decided.
    ("SELECT p.id FROM Part p WHERE p.color > 5", Order::Exact),
    ("SELECT s.id FROM Shelf s WHERE s.label > 5", Order::Exact),
    (
        "SELECT p.id FROM Part p WHERE p.id < 0 AND p.color > 5",
        Order::Exact,
    ),
    (
        "SELECT p.id BETWEEN 3 AND p.color FROM Part p",
        Order::Exact,
    ),
    ("SELECT p.id, p.color + 1 FROM Part p", Order::Exact),
    ("SELECT p.id, p.id / (p.id - 100) FROM Part p", Order::Exact),
    (
        "SELECT p.id FROM Part p, Maker m WHERE m.name = 'maker1' AND NOT (p.color AND p.id > 3)",
        Order::Exact,
    ),
    // Methods on each of two components, pushed into its own plan; an
    // ill-typed comparison across them raises on the first pair it meets.
    (
        "SELECT p.id, m.tag() FROM Part p, Maker m WHERE p.heft() > 1560 AND m.tag() <> 'maker2'",
        Order::Exact,
    ),
    (
        "SELECT p.id FROM Part p, Maker m WHERE m.name = 'maker1' AND p.weight > m.name",
        Order::Exact,
    ),
];

#[test]
fn every_expression_shape_answers_what_the_oracle_answers() {
    let db = build();
    db.catalog()
        .add_attribute("Part", "stock", TypeDescriptor::integer())
        .unwrap();
    let expected: Vec<Result<_, String>> = SHAPES
        .iter()
        .map(|(sql, _)| try_oracle(&db, sql).map_err(|e| e.to_string()))
        .collect();
    // The corpus holds what it says it holds.
    let failing: Vec<usize> = (0..SHAPES.len())
        .filter(|&i| expected[i].is_err())
        .collect();
    assert_eq!(failing, [6, 7, 16, 19, 20, 21, 22, 24]);
    assert_eq!(
        expected[6].as_ref().unwrap_err(),
        "execution error: method tag() needs a stored receiver (p.maker unresolved)"
    );
    assert_eq!(
        expected[16].as_ref().unwrap_err(),
        "execution error: cannot compare 'red' with 5"
    );
    assert_eq!(
        expected[22].as_ref().unwrap_err(),
        "execution error: AND over non-Boolean 'red'"
    );
    for (i, rows) in [
        (0, 65),
        (4, 139),
        (5, 110),
        (8, 142),
        (10, 31),
        (11, 12),
        (17, 0),
    ] {
        assert_eq!(expected[i].as_ref().unwrap().len(), rows, "{}", SHAPES[i].0);
    }
    for batch in [1, 7, 1024] {
        for parallelism in [1, 2, 4, 8] {
            // Each setter empties the plan cache: pass 0 is a plan's first
            // execution.
            db.set_batch_size(batch);
            db.set_parallelism(parallelism);
            for ((sql, order), want) in SHAPES.iter().zip(&expected) {
                for pass in 0..3 {
                    let ctx =
                        format!("{sql}\n (batch {batch}, parallelism {parallelism}, pass {pass})");
                    let got = match db.execute(sql) {
                        Ok(Answer::Rows(r)) => Ok(r.rows),
                        Ok(other) => panic!("{ctx}: {other:?}"),
                        Err(e) => Err(e.to_string()),
                    };
                    match (want, &got) {
                        (Ok(want), Ok(got)) => assert_same(want, got, *order, &ctx),
                        (Err(want), Err(got)) => assert_eq!(want, got, "{ctx}"),
                        _ => panic!("{ctx}\n expected {want:?}\n got {got:?}"),
                    }
                }
            }
        }
    }
}

/// Statements over FROM lists no path links, on 2 000 objects a class (an
/// index on `B.id`): each variable's own predicates run before anything is
/// combined, so each answers in milliseconds. Run as the product of the
/// whole extents, one took over a second, and three classes minutes.
#[test]
fn a_from_list_of_several_components_answers_in_milliseconds() {
    let db = Mood::in_memory_with_pool(4096);
    for class in ["A", "B", "C"] {
        db.execute(&format!("CREATE CLASS {class} TUPLE (id Integer, x Integer, y Integer)"))
            .unwrap();
        for i in 0..2_000 {
            let fields = vec![
                ("id", Value::Integer(i)),
                ("x", Value::Integer(i % 100)),
                ("y", Value::Integer(i % 1000)),
            ];
            db.catalog().new_object(class, Value::tuple(fields)).unwrap();
        }
    }
    db.execute("CREATE INDEX ON B(id)").unwrap();
    db.collect_stats().unwrap();
    for (sql, rows) in [
        ("SELECT a.id FROM A a, B b WHERE a.id = b.id AND a.x = 3", 20),
        ("SELECT a.id FROM A a, B b WHERE a.x = 1 AND b.x = 1 AND a.id = 1", 20),
        ("SELECT a.id FROM A a, B b WHERE a.x = 1 AND b.x = 1", 400),
        (
            "SELECT a.id FROM A a, B b, C c WHERE a.id = b.id AND b.id = c.id AND a.x = 3 \
             AND c.y = 3",
            2,
        ),
    ] {
        // A whole extent is only ever the build side of a hash join.
        let plan = db.explain(sql).unwrap();
        let whole = plan.lines().any(|l| l.trim_start().starts_with("BIND("));
        assert!(plan.contains("JOIN(") && (!whole || plan.contains("VALUE_HASH")), "{plan}");
        for pass in 0..2 {
            let start = Instant::now();
            assert_eq!(run(&db, sql).len(), rows, "{sql}");
            let took = start.elapsed();
            assert!(took < Duration::from_millis(50), "{sql}: pass {pass} took {took:?}");
        }
    }
}

/// An expression past the compiler's `u16` limits is the statement's error —
/// typed, the same on every execution — never a panic and never a fallback.
#[test]
fn an_expression_too_large_to_compile_is_an_error() {
    let db = build();
    let args = vec!["p.id"; 66_000].join(", ");
    let sql = format!("SELECT p.id FROM Part p WHERE p.plus({args}) > 0");
    for _ in 0..2 {
        let err = db.execute(&sql).expect_err("66 000 registers").to_string();
        assert_eq!(err, "execution error: expression too large to compile");
    }
    // Nothing to evaluate it against, nothing to compile.
    let sql = format!(
        "SELECT s.id FROM Shelf s WHERE s.plus({}) > 0",
        args.replace('p', "s")
    );
    assert!(matches!(db.execute(&sql), Ok(Answer::Rows(r)) if r.rows.is_empty()));
}

/// An expression nested deeper than `MAX_EXPR_DEPTH` — a 10 000-term
/// chain, which folds left into 10 000 levels, 10 000 parentheses, or a
/// chain one term past the bound — is a parse error, never a stack
/// overflow. One at the bound answers what the oracle answers.
#[test]
fn an_expression_nested_too_deeply_is_an_error() {
    let db = build();
    let chain = vec!["1"; 10_000].join(" + ");
    let parens = format!("{}1{}", "(".repeat(10_000), ")".repeat(10_000));
    let one_past = vec!["1"; MAX_EXPR_DEPTH + 2].join(" + ");
    for deep in [chain, parens, one_past] {
        let sql = format!("SELECT p.id FROM Part p WHERE p.id = {deep}");
        for _ in 0..2 {
            match db.execute(&sql) {
                Err(MoodError::Sql(SqlError::Parse { message, .. })) => {
                    assert_eq!(message, "expression nested too deeply")
                }
                other => panic!("{}…: {other:?}", &sql[..60]),
            }
        }
    }
    let at_bound = [
        vec!["1"; MAX_EXPR_DEPTH + 1].join(" + "),
        format!("{}7{}", "(".repeat(MAX_EXPR_DEPTH), ")".repeat(MAX_EXPR_DEPTH)),
    ];
    for expr in at_bound {
        let sql = format!("SELECT p.id FROM Part p WHERE p.id < {expr}");
        let want = oracle(&db, &sql);
        assert!(!want.is_empty());
        match db.execute(&sql) {
            Ok(Answer::Rows(r)) => assert_same(&want, &r.rows, Order::Any, &sql),
            other => panic!("{sql}: {other:?}"),
        }
    }
}

/// A two-attribute class with `n` objects whose `g` takes `groups` values.
fn grouped_db(n: i32, groups: i32) -> Mood {
    let db = Mood::in_memory_with_pool(8192);
    db.execute("CREATE CLASS Reading TUPLE (g Integer, x Integer)")
        .unwrap();
    for i in 0..n {
        let fields = vec![("g", Value::Integer(i % groups)), ("x", Value::Integer(i))];
        db.catalog()
            .new_object("Reading", Value::tuple(fields))
            .unwrap();
    }
    db.collect_stats().unwrap();
    db
}

const GROUPED: &str = "SELECT r.g, COUNT(*), MAX(r.x) FROM Reading r GROUP BY r.g";

/// moodbench defect 5: the budget is a number of groups. 80 000 rows in 8
/// groups are far above the default budget as rows and nowhere near it as
/// groups — nothing spills, on the first execution or the next.
#[test]
fn eight_groups_of_eighty_thousand_rows_never_spill() {
    let db = grouped_db(80_000, 8);
    for _ in 0..2 {
        let rows = run(&db, GROUPED);
        assert_eq!(rows.len(), 8);
        assert_eq!(
            rows[3],
            [
                Value::Integer(3),
                Value::Integer(10_000),
                Value::Float(79_995.0)
            ]
        );
    }
    let m = db.engine_metrics();
    assert_eq!((m.agg_spilled_partitions, m.batch.spilled_runs), (0, 0));
}

/// 100 000 distinct groups against a budget of 1 024: the first 1 024 stay
/// in memory, the rest hash across the partition files, and every file is
/// written once and read back once — the GROUP BY stage's pages are one
/// write and one sequential read of each.
#[test]
fn a_hundred_thousand_groups_read_every_partition_once() {
    let n = 100_000;
    let db = grouped_db(n, n);
    db.set_sort_budget(1024);
    run(&db, GROUPED);
    let before = (db.engine_metrics(), db.metrics().snapshot());
    let rows = run(&db, GROUPED);
    let (after, pages) = (
        db.engine_metrics(),
        db.metrics().snapshot().delta(&before.1),
    );
    assert_eq!(rows.len(), n as usize);
    for (i, row) in rows.iter().enumerate() {
        // First-appearance order survives the partitioning.
        assert_eq!(
            row,
            &[
                Value::Integer(i as i32),
                Value::Integer(1),
                Value::Float(i as f64)
            ]
        );
    }
    let partitions = after.agg_spilled_partitions - before.0.agg_spilled_partitions;
    assert_eq!(partitions, 64, "98 976 groups fill every partition");
    assert!(pages.writes > 0);
    assert_eq!(pages.seq_batches, partitions, "one read pass per file");
    assert_eq!(
        pages.total_reads(),
        pages.writes,
        "each written page read once"
    );
}
