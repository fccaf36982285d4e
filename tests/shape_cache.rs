//! The shape-keyed plan cache: a statement's literal operands of `=` are
//! parameters of its plan, so one prepared plan serves every key.
//!
//! * Differential: for generated and pinned statements, answers with the
//!   cache on — first execution (miss: the programs compile over `$n`), a
//!   same-shape sibling with other `=` operands (hit: the same programs,
//!   other values bound), and both again — are byte-identical to the cache-off answers at parallelism 1/2/4.
//! * Plan equality: the plan a shape runs with is the plan the literal
//!   text gets, node for node, once `$n` is read as the bound value.
//! * What a shape is: only bare-`=` operands are lifted (range and BETWEEN
//!   bounds keep their own entries); `5`, `5.0` and `'5'` do not share one;
//!   layout and comments do not matter.
//! * Epoch invalidation still reaches shape entries; `$n` typed by a user
//!   or left unbound is an error.

use std::sync::OnceLock;

use proptest::prelude::*;

use mood_core::sql::{parse, Executor, Statement};
use mood_core::storage::Oid;
use mood_core::{Answer, Mood, OptimizerConfig, QueryResult, SqlError, Value};

const CITIES: [&str; 3] = ["Munich", "Aichi", "Detroit"];
/// Names exercising the scanner's quoting: an apostrophe, an `=` with a
/// number, a `$1`, a comment marker.
const NAMES: [&str; 5] = ["plain", "it's", "a = 5", "cost $1", "x -- y"];

/// The §3.1 hierarchy: `own` objects in `Vehicle`'s extent and `sub` in each
/// subclass's, ids overlapping, unique index on `Vehicle(id)`. From about
/// 2 000 objects the §8.1 inequality picks that index over a scan.
fn build(own: i32, sub: i32) -> Mood {
    let db = Mood::in_memory_with_pool(4096);
    db.set_optimizer_config(OptimizerConfig::paper());
    for ddl in [
        "CREATE CLASS Company TUPLE (name String(32), location String(32))",
        "CREATE CLASS VehicleEngine TUPLE (size Integer, cylinders Integer)",
        "CREATE CLASS VehicleDriveTrain TUPLE (engine REFERENCE (VehicleEngine), \
         transmission String(32))",
        "CREATE CLASS Vehicle TUPLE (id Integer, weight Integer, ratio Float, name String(16), \
         drivetrain REFERENCE (VehicleDriveTrain), manufacturer REFERENCE (Company)) \
         METHODS: lbweight () Float,",
        "CREATE CLASS Automobile INHERITS FROM Vehicle",
        "CREATE CLASS JapaneseAuto INHERITS FROM Automobile",
        "DEFINE METHOD Vehicle::lbweight() RETURNS Float AS 'weight * 2.5'",
    ] {
        db.execute(ddl).unwrap();
    }
    let catalog = db.catalog();
    let companies: Vec<Oid> = CITIES
        .iter()
        .enumerate()
        .map(|(i, city)| {
            catalog
                .new_object(
                    "Company",
                    Value::tuple(vec![
                        ("name", Value::string(format!("maker{i}"))),
                        ("location", Value::string(*city)),
                    ]),
                )
                .unwrap()
        })
        .collect();
    let trains: Vec<Oid> = (0..8i32)
        .map(|i| {
            let engine = catalog
                .new_object(
                    "VehicleEngine",
                    Value::tuple(vec![
                        ("size", Value::Integer(1000 + i * 100)),
                        ("cylinders", Value::Integer(2 + (i % 4) * 2)),
                    ]),
                )
                .unwrap();
            catalog
                .new_object(
                    "VehicleDriveTrain",
                    Value::tuple(vec![
                        ("engine", Value::Ref(engine)),
                        (
                            "transmission",
                            Value::string(if i % 2 == 0 { "AUTOMATIC" } else { "MANUAL" }),
                        ),
                    ]),
                )
                .unwrap()
        })
        .collect();
    for (class, n) in [("Vehicle", own), ("Automobile", sub), ("JapaneseAuto", sub)] {
        for i in 0..n {
            catalog
                .new_object(
                    class,
                    Value::tuple(vec![
                        ("id", Value::Integer(i - 2)),
                        ("weight", Value::Integer(700 + (i % 9) * 80)),
                        ("ratio", Value::Float(f64::from(i % 5) * 0.25 - 0.5)),
                        ("name", Value::string(NAMES[i as usize % NAMES.len()])),
                        ("drivetrain", Value::Ref(trains[i as usize % trains.len()])),
                        ("manufacturer", Value::Ref(companies[i as usize % 3])),
                    ]),
                )
                .unwrap();
        }
    }
    db.execute("CREATE UNIQUE INDEX ON Vehicle(id)").unwrap();
    db.collect_stats().unwrap();
    db
}

fn rows(db: &Mood, sql: &str) -> Result<QueryResult, String> {
    match db.execute(sql) {
        Ok(Answer::Rows(r)) => Ok(r),
        Ok(other) => panic!("not rows: {other:?}"),
        Err(e) => Err(e.to_string()),
    }
}

/// What the engine answers with the plan cache off: the statement parsed as
/// written and planned for its own literals. (Turning the cache off and on
/// empties it, so callers collect these before they start counting.)
fn literal_answer(db: &Mood, sql: &str) -> Result<QueryResult, String> {
    db.set_plan_cache_enabled(false);
    let answer = rows(db, sql);
    db.set_plan_cache_enabled(true);
    answer
}

/// The plan nodes of an `EXPLAIN ANALYZE` report, top-down: everything but
/// the `--` commentary and the per-node estimate/actual lines.
fn plan_nodes(report: &str) -> Vec<String> {
    report
        .lines()
        .filter(|l| !l.starts_with("--") && !l.trim_start().starts_with("est:"))
        .map(|l| l.trim_end().to_string())
        .collect()
}

/// The `-- params: $1=…, $2=…` header's values, in order.
fn bound_params(report: &str) -> Vec<String> {
    let Some(line) = report.lines().find_map(|l| l.strip_prefix("-- params: ")) else {
        return Vec::new();
    };
    let mut values = Vec::new();
    let mut rest = line;
    for n in 1.. {
        let Some(after) = rest.strip_prefix(&format!("${n}=")) else {
            break;
        };
        let end = after.find(&format!(", ${}=", n + 1)).unwrap_or(after.len());
        values.push(after[..end].to_string());
        rest = after[end..].trim_start_matches(", ");
    }
    values
}

/// `node` with every `$n` replaced by `params[n - 1]`, in one pass.
fn bind(node: &str, params: &[String]) -> String {
    let mut out = String::new();
    let mut rest = node;
    while let Some(at) = rest.find('$') {
        out.push_str(&rest[..at]);
        let digits = rest[at + 1..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .count();
        let n: usize = rest[at + 1..at + 1 + digits]
            .parse()
            .expect("`$n` in a plan node");
        out.push_str(&params[n - 1]);
        rest = &rest[at + 1 + digits..];
    }
    out + rest
}

fn explain_analyze(db: &Mood, sql: &str) -> String {
    db.explain_analyze(sql).unwrap()
}

// ----------------------------------------------------------------------
// Generated statements: pairs that differ only in `=` operands
// ----------------------------------------------------------------------

/// A predicate twice over: the two texts are one shape — they differ at
/// most in the literal operands of `=`, class for class — and `lifted`
/// says how many such operands each has.
#[derive(Debug, Clone)]
struct Pair {
    a: String,
    b: String,
    lifted: usize,
}

impl Pair {
    fn fixed(text: String) -> Pair {
        Pair {
            a: text.clone(),
            b: text,
            lifted: 0,
        }
    }

    /// `template` has one `{}` per operand.
    fn eq(template: &str, a: String, b: String) -> Pair {
        Pair {
            a: template.replacen("{}", &a, 1),
            b: template.replacen("{}", &b, 1),
            lifted: 1,
        }
    }

    fn combine(self, op: &str, other: Pair) -> Pair {
        Pair {
            a: format!("({}) {op} ({})", self.a, other.a),
            b: format!("({}) {op} ({})", self.b, other.b),
            lifted: self.lifted + other.lifted,
        }
    }
}

fn quoted(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

fn arb_pair() -> impl Strategy<Value = Pair> {
    let int = |lo: i32, hi: i32| (lo..hi, lo..hi).prop_map(|(a, b)| (a.to_string(), b.to_string()));
    let name =
        || (0..NAMES.len(), 0..NAMES.len()).prop_map(|(a, b)| (quoted(NAMES[a]), quoted(NAMES[b])));
    let leaf = prop_oneof![
        // `=` operands: immediate (indexed and not), negative, left-hand,
        // float, string, path, arithmetic neighbour, method call.
        int(-4, 40).prop_map(|(a, b)| Pair::eq("v.id = {}", a, b)),
        int(0, 40).prop_map(|(a, b)| Pair::eq("{} = v.id", a, b)),
        int(0, 9).prop_map(|(a, b)| {
            let w = |i: &str| (700 + i.parse::<i32>().unwrap() * 80).to_string();
            Pair::eq("v.weight = {}", w(&a), w(&b))
        }),
        int(-2, 3).prop_map(|(a, b)| {
            let r = |i: &str| format!("{:?}", f64::from(i.parse::<i32>().unwrap()) * 0.25);
            Pair::eq("v.ratio = {}", r(&a), r(&b))
        }),
        name().prop_map(|(a, b)| Pair::eq("v.name = {}", a, b)),
        name().prop_map(|(a, b)| Pair::eq("NOT v.name = {}", a, b)),
        int(1, 5).prop_map(|(a, b)| {
            let c = |i: &str| (i.parse::<i32>().unwrap() * 2).to_string();
            Pair::eq("v.drivetrain.engine.cylinders = {}", c(&a), c(&b))
        }),
        (0..3usize, 0..3usize).prop_map(|(a, b)| Pair::eq(
            "v.manufacturer.location = {}",
            quoted(CITIES[a]),
            quoted(CITIES[b])
        )),
        int(0, 9).prop_map(|(a, b)| {
            let w = |i: &str| (710 + i.parse::<i32>().unwrap() * 80).to_string();
            Pair::eq("v.weight + 10 = {}", w(&a), w(&b))
        }),
        int(0, 9).prop_map(|(a, b)| {
            let lb = |i: &str| {
                format!(
                    "{:?}",
                    f64::from(700 + i.parse::<i32>().unwrap() * 80) * 2.5
                )
            };
            Pair::eq("v.lbweight() = {}", lb(&a), lb(&b))
        }),
        // Not `=` operands: these literals are part of the shape.
        (700..1500i32).prop_map(|n| Pair::fixed(format!("v.weight > {n}"))),
        (-2..40i32).prop_map(|n| Pair::fixed(format!("v.id <= {n}"))),
        (-2..40i32).prop_map(|n| Pair::fixed(format!("v.id <> {n}"))),
        (700..1100i32, 1100..1500i32)
            .prop_map(|(a, b)| Pair::fixed(format!("v.weight BETWEEN {a} AND {b}"))),
        (1700..3700i32).prop_map(|n| Pair::fixed(format!("v.lbweight() > {n}"))),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x.combine("AND", y)),
            (inner.clone(), inner).prop_map(|(x, y)| x.combine("OR", y)),
        ]
    })
}

/// The statement forms the predicate is dropped into.
fn arb_form() -> impl Strategy<Value = (&'static str, &'static str, usize)> {
    prop_oneof![
        Just((
            "SELECT v.id, v.weight FROM Vehicle v WHERE ",
            " ORDER BY v.id",
            0
        )),
        Just((
            "SELECT v.id, v.name FROM EVERY Vehicle v WHERE ",
            " ORDER BY v.id",
            0
        )),
        Just((
            "SELECT v.id FROM EVERY Vehicle - JapaneseAuto v WHERE ",
            " ORDER BY v.id",
            0
        )),
        Just((
            "SELECT DISTINCT v.weight FROM EVERY Vehicle v WHERE ",
            "",
            0
        )),
        Just((
            "SELECT v.weight, COUNT(*) FROM EVERY Vehicle v WHERE ",
            " GROUP BY v.weight HAVING COUNT(*) = 3 ORDER BY v.weight",
            1
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn shape_plans_answer_like_literal_plans(pair in arb_pair(), form in arb_form()) {
        // One database for every case: statements only read it, and no
        // other test shares its session.
        static DB: OnceLock<Mood> = OnceLock::new();
        let db = DB.get_or_init(|| build(2000, 36));
        let (head, tail, form_lifted) = form;
        let sql_a = format!("{head}{}{tail}", pair.a);
        let sql_b = format!("{head}{}{tail}", pair.b);
        let lifted = pair.lifted + form_lifted;
        for par in [1usize, 2, 4] {
            db.set_parallelism(par); // clears the cache: each round starts cold
            let want_a = literal_answer(db, &sql_a);
            let want_b = literal_answer(db, &sql_b);
            let before = db.engine_metrics().plan_cache;
            // Miss (prepares the shape; its programs compile as they first
            // run, over `$n`), then the sibling off the same plan and the
            // same programs, then both again.
            prop_assert_eq!(&rows(db, &sql_a), &want_a, "miss, par {}: {}", par, sql_a);
            prop_assert_eq!(&rows(db, &sql_b), &want_b, "first hit, par {}: {}", par, sql_b);
            prop_assert_eq!(&rows(db, &sql_a), &want_a, "again, par {}: {}", par, sql_a);
            prop_assert_eq!(&rows(db, &sql_b), &want_b, "again, par {}: {}", par, sql_b);
            let after = db.engine_metrics().plan_cache;
            prop_assert_eq!(after.misses, before.misses + 1, "one shape: {} / {}", sql_a, sql_b);
            prop_assert_eq!(after.hits, before.hits + 3);
        }

        // The plan the shape runs with is the literal text's plan, and the
        // parameters are exactly the `=` operands.
        if literal_answer(db, &sql_b).is_ok() {
            db.set_plan_cache_enabled(false);
            let literal = explain_analyze(db, &sql_b);
            db.set_plan_cache_enabled(true);
            prop_assert!(bound_params(&literal).is_empty());
            rows(db, &sql_a).unwrap();
            let cached = explain_analyze(db, &sql_b);
            prop_assert!(cached.contains("plan: cached"), "{}", cached);
            let params = bound_params(&cached);
            prop_assert_eq!(params.len(), lifted, "{}\n{}", sql_b, cached);
            let bound: Vec<String> = plan_nodes(&cached)
                .iter()
                .map(|node| bind(node, &params))
                .collect();
            prop_assert_eq!(bound, plan_nodes(&literal), "{}", sql_b);
        }
    }
}

// ----------------------------------------------------------------------
// Pinned statements
// ----------------------------------------------------------------------

/// Run each statement cold-then-warm against its cache-off answer.
fn assert_differential(db: &Mood, statements: &[&str]) {
    let want: Vec<_> = statements
        .iter()
        .map(|sql| literal_answer(db, sql))
        .collect();
    for (sql, want) in statements.iter().zip(&want) {
        for round in 0..3 {
            assert_eq!(&rows(db, sql), want, "round {round}: {sql}");
        }
    }
}

#[test]
fn pinned_corpus_answers_identically() {
    let db = build(2000, 36);
    assert_differential(
        &db,
        &[
            // Operand classes and quoting.
            "SELECT v.id FROM Vehicle v WHERE v.id = 17",
            "SELECT v.id FROM Vehicle v WHERE v.id = -2",
            "SELECT v.id FROM Vehicle v WHERE v.id = 5000000000",
            "SELECT v.id FROM Vehicle v WHERE v.ratio = -0.25 ORDER BY v.id",
            "SELECT v.id FROM Vehicle v WHERE v.ratio = 0 ORDER BY v.id",
            "SELECT v.id FROM Vehicle v WHERE v.name = 'it''s' ORDER BY v.id",
            "SELECT v.id FROM Vehicle v WHERE v.name = \"it's\" ORDER BY v.id",
            "SELECT v.id FROM Vehicle v WHERE v.name = 'a = 5' ORDER BY v.id",
            "SELECT v.id FROM Vehicle v WHERE v.name = 'cost $1' ORDER BY v.id",
            "SELECT v.id FROM Vehicle v WHERE v.name = 'x -- y' ORDER BY v.id",
            "SELECT v.id FROM Vehicle v WHERE v.name > 'cost $1' AND v.id = 8",
            // Literal on the left, with and without a sign.
            "SELECT v.id FROM Vehicle v WHERE 17 = v.id",
            "SELECT v.id FROM Vehicle v WHERE -1 = v.id",
            "SELECT v.id FROM Vehicle v WHERE v.id - 1 = 6",
            "SELECT v.id FROM Vehicle v WHERE v.weight - 700 = v.id * 80 ORDER BY v.id",
            // DNF, negation, mixed with ranges.
            "SELECT v.id FROM Vehicle v WHERE v.id = 3 OR v.id = 30 OR v.weight = 780 \
             ORDER BY v.id",
            "SELECT v.id FROM Vehicle v WHERE NOT (v.id = 3 OR v.name = 'plain') ORDER BY v.id",
            "SELECT v.id FROM Vehicle v WHERE v.weight > 900 AND v.id = 12",
            "SELECT v.id FROM Vehicle v WHERE v.weight BETWEEN 780 AND 940 AND v.name = 'plain' \
             ORDER BY v.id",
            // Paths, EVERY, class minus.
            "SELECT v.id FROM Vehicle v WHERE v.id = 9 AND v.manufacturer.location = 'Munich'",
            "SELECT v.id FROM EVERY Vehicle v WHERE v.drivetrain.engine.cylinders = 4 \
             AND v.manufacturer.location = 'Aichi' ORDER BY v.id",
            "SELECT v.id FROM EVERY Vehicle - JapaneseAuto v WHERE v.id = 7 ORDER BY v.id",
            "SELECT v.id FROM EVERY Automobile - JapaneseAuto v \
             WHERE v.drivetrain.transmission = 'MANUAL' ORDER BY v.id",
            // Grouping, HAVING on an aggregate, DISTINCT, method calls.
            "SELECT v.weight, COUNT(*) FROM EVERY Automobile v GROUP BY v.weight \
             HAVING COUNT(*) = 8 ORDER BY v.weight",
            "SELECT v.name, COUNT(*) FROM Automobile v WHERE v.weight = 780 GROUP BY v.name \
             HAVING COUNT(*) = 1 ORDER BY v.name",
            "SELECT DISTINCT v.weight FROM EVERY Vehicle v WHERE v.name = 'plain'",
            "SELECT v.id FROM Vehicle v WHERE v.lbweight() = 1950.0 ORDER BY v.id",
            "SELECT v.id, v.lbweight() FROM Vehicle v WHERE v.lbweight() > 3000 AND v.id = 8",
            // A comparison in the projection: its label carries the value.
            "SELECT v.id, v.weight = 780 FROM Vehicle v WHERE v.id = 1",
            // Errors are the literal path's errors.
            "SELECT v.id FROM Vehicle v WHERE v.weight = 'heavy'",
            "SELECT v.id FROM Vehicle v WHERE v.nope = 1",
            "SELECT v.id FROM Vehicle v WHERE v.id = ",
            "SELECT v.id FROM Vehicle v WHERE v.id = 99999999999999999999",
            "SELECT v.id FROM Vehicle v WHERE v.name = 'open",
        ],
    );
}

#[test]
fn keys_share_a_plan_and_layout_does_not_matter() {
    let db = build(36, 0);
    let before = db.engine_metrics().plan_cache;
    let one = rows(&db, "SELECT v.id, v.weight FROM Vehicle v WHERE v.id = 17").unwrap();
    let other = rows(
        &db,
        "SELECT v.id,  v.weight -- the projection\n  FROM Vehicle v\n WHERE v.id =  18 ",
    )
    .unwrap();
    assert_eq!(
        one.rows,
        vec![vec![Value::Integer(17), Value::Integer(780)]]
    );
    assert_eq!(
        other.rows,
        vec![vec![Value::Integer(18), Value::Integer(860)]]
    );
    let after = db.engine_metrics().plan_cache;
    assert_eq!(
        (after.misses, after.hits),
        (before.misses + 1, before.hits + 1)
    );
}

#[test]
fn operand_classes_do_not_share_an_entry() {
    let db = build(36, 0);
    // Integer, float and string operands bind different `Value` variants;
    // integer width is a value, not a class.
    let statements = [
        "SELECT v.id FROM Vehicle v WHERE v.weight = 780 ORDER BY v.id",
        "SELECT v.id FROM Vehicle v WHERE v.weight = 780.0 ORDER BY v.id",
        "SELECT v.id FROM Vehicle v WHERE v.weight = '780' ORDER BY v.id",
        "SELECT v.id FROM Vehicle v WHERE v.weight = 5000000000 ORDER BY v.id",
    ];
    let want: Vec<_> = statements
        .iter()
        .map(|sql| literal_answer(&db, sql))
        .collect();
    assert!(want[2].is_err(), "Integer = String does not compare");
    let before = db.engine_metrics().plan_cache;
    for (sql, want) in statements.iter().zip(&want) {
        assert_eq!(&rows(&db, sql), want, "{sql}");
    }
    let after = db.engine_metrics().plan_cache;
    assert_eq!(
        after.misses,
        before.misses + 3,
        "three classes, three plans"
    );
    assert_eq!(
        after.hits,
        before.hits + 1,
        "the long integer ran off the integer plan"
    );
}

#[test]
fn range_and_between_bounds_are_not_lifted() {
    let db = build(36, 0);
    for (one, other) in [
        ("v.weight > 780", "v.weight > 860"),
        ("v.weight >= 780", "v.weight >= 860"),
        ("v.id < 5", "v.id < 6"),
        ("v.id <= 5", "v.id <= 6"),
        ("v.id <> 5", "v.id <> 6"),
        ("780 < v.weight", "860 < v.weight"),
        (
            "v.weight BETWEEN 780 AND 940",
            "v.weight BETWEEN 780 AND 1020",
        ),
    ] {
        let sql = |pred: &str| format!("SELECT v.id FROM Vehicle v WHERE {pred} ORDER BY v.id");
        let want = [
            literal_answer(&db, &sql(one)),
            literal_answer(&db, &sql(other)),
        ];
        let before = db.engine_metrics().plan_cache;
        assert_eq!(rows(&db, &sql(one)), want[0]);
        assert_eq!(rows(&db, &sql(other)), want[1]);
        let after = db.engine_metrics().plan_cache;
        assert_eq!(
            (after.misses, after.hits),
            (before.misses + 2, before.hits),
            "{one} / {other}: two bounds, two plans"
        );
        let report = explain_analyze(&db, &sql(other));
        assert!(
            report.contains("plan: cached") && bound_params(&report).is_empty(),
            "{report}"
        );
    }
}

#[test]
fn explain_analyze_shows_the_shape_and_what_was_bound() {
    let db = build(36, 0);
    let sql = "SELECT v.id FROM Vehicle v WHERE v.id = 17 AND v.name = 'it''s'";
    let fresh = explain_analyze(&db, sql);
    assert!(fresh.contains("plan: fresh"), "{fresh}");
    assert!(
        fresh.starts_with("-- params: $1=17, $2='it''s'\n"),
        "{fresh}"
    );
    assert!(fresh.contains("v.id = $1"), "{fresh}");
    let cached = explain_analyze(&db, &sql.replace("17", "18"));
    assert!(cached.contains("plan: cached"), "{cached}");
    assert!(
        cached.starts_with("-- params: $1=18, $2='it''s'\n"),
        "{cached}"
    );
    assert_eq!(bound_params(&cached), vec!["18", "'it''s'"]);
    // Off the cache the plan is the literal one and there is no header.
    db.set_plan_cache_enabled(false);
    let literal = explain_analyze(&db, sql);
    assert!(
        !literal.contains("-- params:") && literal.contains("v.id = 17"),
        "{literal}"
    );
}

// ----------------------------------------------------------------------
// Invalidation
// ----------------------------------------------------------------------

#[test]
fn index_ddl_and_stats_refresh_invalidate_shape_entries() {
    let db = build(2000, 0);
    db.catalog().drop_index("Vehicle", "id").unwrap();
    db.collect_stats().unwrap();
    let q = |id: i32| format!("SELECT v.weight FROM Vehicle v WHERE v.id = {id}");
    let check = |id: i32| {
        let weight = Value::Integer(700 + ((id + 2) % 9) * 80);
        assert_eq!(
            rows(&db, &q(id)).unwrap().rows,
            vec![vec![weight]],
            "id {id}"
        );
    };
    let indexed = |id: i32| explain_analyze(&db, &q(id)).contains("INDSEL(Vehicle, v, BTREE)");
    check(3);
    check(4);
    assert!(!indexed(5));

    // CREATE INDEX: the cached scan plan goes; the new one probes.
    let before = db.engine_metrics().plan_cache;
    db.execute("CREATE UNIQUE INDEX ON Vehicle(id)").unwrap();
    db.collect_stats().unwrap();
    check(6);
    let after = db.engine_metrics().plan_cache;
    assert_eq!(after.invalidations, before.invalidations + 1);
    assert_eq!(after.misses, before.misses + 1);
    check(7);
    assert_eq!(db.engine_metrics().plan_cache.hits, after.hits + 1);
    assert!(indexed(8));

    // collect_stats alone.
    let before = db.engine_metrics().plan_cache;
    db.collect_stats().unwrap();
    check(9);
    let after = db.engine_metrics().plan_cache;
    assert_eq!(after.invalidations, before.invalidations + 1);

    // DROP INDEX: a stale plan would probe an index that is gone. (The
    // statistics describe the index until they are refreshed.)
    db.catalog().drop_index("Vehicle", "id").unwrap();
    db.collect_stats().unwrap();
    check(10);
    assert_eq!(
        db.engine_metrics().plan_cache.invalidations,
        after.invalidations + 1
    );
    assert!(!indexed(11));
}

// ----------------------------------------------------------------------
// `$n` is not user syntax, and an unbound one is an error
// ----------------------------------------------------------------------

#[test]
fn typed_or_unbound_parameters_are_errors() {
    let db = build(12, 0);
    for on in [true, false] {
        db.set_plan_cache_enabled(on);
        for sql in [
            "SELECT v.id FROM Vehicle v WHERE v.id = $1",
            "SELECT v.id FROM Vehicle v WHERE v.id = 3 AND v.weight = $1",
            "UPDATE Vehicle v SET weight = $1 WHERE v.id = 3",
            "SELECT v.id FROM Vehicle v WHERE v.id = $",
        ] {
            assert!(
                matches!(
                    db.execute(sql),
                    Err(mood_core::MoodError::Sql(SqlError::Lex { .. }))
                ),
                "{sql} (cache {on})"
            );
        }
        // Inside a string it is text.
        assert!(db
            .execute("SELECT v.id FROM Vehicle v WHERE v.name = '$1'")
            .is_ok());
    }

    // Below the session, `$n` parses, and runs only with enough bound.
    let Statement::Select(stmt) =
        parse("SELECT v.id FROM Vehicle v WHERE v.id = $1 OR v.weight = $2").unwrap()
    else {
        panic!()
    };
    let unbound = Executor::new(db.catalog(), db.funcman());
    assert!(matches!(unbound.run_select(&stmt), Err(SqlError::Bind(_))));
    assert!(matches!(unbound.prepare(&stmt), Err(SqlError::Bind(_))));
    assert!(matches!(unbound.analyze(&stmt), Err(SqlError::Bind(_))));
    let one = [Value::Integer(3)];
    let short = Executor::new(db.catalog(), db.funcman()).with_params(&one);
    assert!(matches!(short.run_select(&stmt), Err(SqlError::Bind(_))));
    let two = [Value::Integer(3), Value::Integer(700)];
    let bound = Executor::new(db.catalog(), db.funcman()).with_params(&two);
    let prepared = bound.prepare(&stmt).unwrap().expect("cacheable");
    assert_eq!(bound.run_prepared(&prepared).unwrap().len(), 3);
    assert_eq!(bound.run_select(&stmt).unwrap().len(), 3);
    // A plan that reads parameters does not run without them.
    assert!(matches!(
        unbound.run_prepared(&prepared),
        Err(SqlError::Bind(_))
    ));
    assert!(matches!(
        short.run_prepared(&prepared),
        Err(SqlError::Bind(_))
    ));
    // `$0` names nothing.
    let Statement::Select(zero) = parse("SELECT v.id FROM Vehicle v WHERE v.id = $0").unwrap()
    else {
        panic!()
    };
    assert!(bound.run_select(&zero).is_err());
}
