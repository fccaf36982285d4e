//! Read-set-pruned decode: a statement's scans, fetches and spills carry
//! only the attributes it reads — and every answer stays what it was.
//!
//! * **Differential** — a corpus covering every way the driver binds an
//!   object (scan, batched scan+select, index fetch with re-verification,
//!   the four join methods — each with a filter on its right side —
//!   backward materialisation, FROM lists of several components, DML
//!   targets) and every
//!   shape of expression (methods, bare variables, several variables) runs
//!   against a naive oracle that walks *whole* objects
//!   from `catalog.extent()` through its tree-walking `eval_expr`; cached
//!   and uncached, at parallelism 1/2/4/8 and batch size 1/7/1024. A read set that misses an
//!   attribute would not fail loudly — a name absent from a tuple reads as
//!   NULL — so this suite is what checks completeness.
//! * **Exact sets** — `EXPLAIN`'s `-- Reads:` lines for each statement,
//!   and the widening rules (bare variable, DML target, method on the
//!   variable itself → `*`).
//! * **Schema evolution** — an attribute inside the read set but absent
//!   from an older stored record still reads NULL.
//! * **Damaged records** — a record that does not decode is the
//!   statement's error, not a silently shorter answer.
//! * **Counts, not clocks** — spilled bytes per row sit below the mean
//!   stored record, and a method on the scanned variable touches the heap
//!   once per object, not twice.
//!
//! The decoder's own properties (pruned == filtered full decode, nested
//! values skipped whole, truncations and byte flips never panic or
//! over-allocate) live with the codec in
//! `crates/datamodel/tests/prop_datamodel.rs`.

use std::collections::BTreeMap;

use mood_core::sql::parse_expr;
use mood_core::storage::Oid;
use mood_core::{Answer, DatabaseStats, Mood, OptimizerConfig, TypeDescriptor, Value};

const COLORS: [&str; 4] = ["red", "green", "blue", "white"];
const N: i32 = 120;
/// Enough objects for §8.1 to prefer an index probe to the scan.
const N_INDEXED: i32 = 400;

/// What steers the optimizer on top of the common population.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fixture {
    /// Collected statistics, no index: scans, forward and backward
    /// traversal.
    Plain,
    /// Attribute indexes on `Vehicle(id)`/`Vehicle(weight)` and a path
    /// index on `Vehicle(drivetrain.engine.size)`: both `INDSEL`s.
    Indexed,
    /// Indexes on the reference attributes: the binary join index.
    Bji,
    /// The paper's Table 13–15 statistics injected: hash partitioning.
    PaperStats,
}

/// The §3.1 hierarchy: `N` objects in `Vehicle`'s own extent (`N_INDEXED`
/// under `Indexed`) and a quarter as many in each subclass extent, a
/// 159-byte `pad` nobody reads, every eleventh drivetrain reference NULL.
/// The pad makes a record as long as it was when records stored their
/// attribute names, so the extent has the pages §8.1 weighs an index
/// against.
fn build(fixture: Fixture) -> Mood {
    let db = Mood::in_memory_with_pool(4096);
    db.set_optimizer_config(OptimizerConfig::paper());
    for ddl in [
        "CREATE CLASS Company TUPLE (name String(32), location String(32))",
        "CREATE CLASS VehicleEngine TUPLE (size Integer, cylinders Integer, pad String(64)) \
         METHODS: power () Integer,",
        "CREATE CLASS TurboEngine INHERITS FROM VehicleEngine",
        "CREATE CLASS VehicleDriveTrain TUPLE (engine REFERENCE (VehicleEngine), \
         transmission String(32))",
        "CREATE CLASS Vehicle TUPLE (id Integer, weight Integer, color String(16), \
         pad String(128), drivetrain REFERENCE (VehicleDriveTrain), \
         company REFERENCE (Company)) METHODS: lbweight () Float,",
        "CREATE CLASS Automobile INHERITS FROM Vehicle",
        "CREATE CLASS JapaneseAuto INHERITS FROM Automobile",
        "DEFINE METHOD Vehicle::lbweight() RETURNS Float AS 'weight * 2.2075'",
        "DEFINE METHOD Vehicle::scaled(f Integer) RETURNS Integer AS 'weight * f'",
        "DEFINE METHOD VehicleEngine::power() RETURNS Integer AS 'size * cylinders'",
    ] {
        db.execute(ddl).unwrap();
    }
    let c = db.catalog();
    let companies: Vec<Oid> = (0..5)
        .map(|i| {
            let name = Value::string(format!("maker{i}"));
            let location = Value::string(["Munich", "Aichi", "Detroit"][i % 3]);
            c.new_object(
                "Company",
                Value::tuple(vec![("name", name), ("location", location)]),
            )
            .unwrap()
        })
        .collect();
    let engines: Vec<Oid> = (0..64)
        .map(|i| {
            c.new_object(
                "VehicleEngine",
                Value::tuple(vec![
                    ("size", Value::Integer(1000 + i * 10)),
                    ("cylinders", Value::Integer(2 + (i % 4) * 2)),
                    ("pad", Value::string("e".repeat(40))),
                ]),
            )
            .unwrap()
        })
        .collect();
    // Every sixteenth drivetrain's engine is a subclass instance, which
    // every join method must reach as a `VehicleEngine`.
    let turbos: Vec<Oid> = (0..8)
        .map(|i| {
            c.new_object(
                "TurboEngine",
                Value::tuple(vec![
                    ("size", Value::Integer(2000 + i * 10)),
                    ("cylinders", Value::Integer(2 + (i % 4) * 2)),
                    ("pad", Value::string("t".repeat(40))),
                ]),
            )
            .unwrap()
        })
        .collect();
    let trains: Vec<Oid> = (0..128)
        .map(|i| {
            let gear = if i % 2 == 0 { "AUTOMATIC" } else { "MANUAL" };
            let engine = if i % 16 == 15 { turbos[i / 16] } else { engines[i % 64] };
            c.new_object(
                "VehicleDriveTrain",
                Value::tuple(vec![
                    ("engine", Value::Ref(engine)),
                    ("transmission", Value::string(gear)),
                ]),
            )
            .unwrap()
        })
        .collect();
    let n = if fixture == Fixture::Indexed {
        N_INDEXED
    } else {
        N
    };
    for (class, count, base) in [
        ("Vehicle", n, 0),
        ("Automobile", n / 4, 10_000),
        ("JapaneseAuto", n / 4, 20_000),
    ] {
        for i in 0..count {
            let train = if i % 11 == 10 {
                Value::Null
            } else {
                Value::Ref(trains[(i as usize * 7) % 128])
            };
            c.new_object(
                class,
                Value::tuple(vec![
                    ("id", Value::Integer(base + i)),
                    ("weight", Value::Integer(700 + (i * 37) % 900)),
                    ("color", Value::string(COLORS[(i % 4) as usize])),
                    ("pad", Value::string("p".repeat(159))),
                    ("drivetrain", train),
                    ("company", Value::Ref(companies[(i % 5) as usize])),
                ]),
            )
            .unwrap();
        }
    }
    match fixture {
        Fixture::Plain | Fixture::PaperStats => {}
        Fixture::Indexed => {
            c.create_index("Vehicle", "id", true).unwrap();
            c.create_index("Vehicle", "weight", false).unwrap();
            db.execute("CREATE INDEX ON Vehicle(drivetrain.engine.size)")
                .unwrap();
        }
        Fixture::Bji => {
            c.create_index("Vehicle", "drivetrain", false).unwrap();
            c.create_index("VehicleDriveTrain", "engine", false).unwrap();
        }
    }
    if fixture == Fixture::PaperStats {
        c.set_stats(DatabaseStats::paper_example());
    } else {
        db.collect_stats().unwrap();
    }
    db
}

// ----------------------------------------------------------------------
// The naive oracle (`support/oracle.rs`, shared with `stream_tail.rs`)
// ----------------------------------------------------------------------

#[path = "support/oracle.rs"]
mod oracle;
use oracle::{bound, eval_expr, eval_pred, oracle, row_bytes, select_stmt, Env, Row};

fn same_cell(a: &Value, b: &Value) -> bool {
    match (a, b) {
        // Aggregates may be summed in another order than the oracle's.
        (Value::Float(x), Value::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => a == b,
    }
}

/// Same answer: in order when the statement orders (every ORDER BY in the
/// corpus is total), as a multiset otherwise.
fn assert_same(expected: &[Vec<Value>], got: &[Vec<Value>], ordered: bool, ctx: &str) {
    let (mut expected, mut got) = (expected.to_vec(), got.to_vec());
    if !ordered {
        expected.sort_by_key(|r| row_bytes(r));
        got.sort_by_key(|r| row_bytes(r));
    }
    let same = expected.len() == got.len()
        && expected
            .iter()
            .zip(&got)
            .all(|(a, b)| a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_cell(x, y)));
    assert!(
        same,
        "{ctx}\n expected {} rows: {:?}\n got {} rows: {:?}",
        expected.len(),
        &expected[..expected.len().min(6)],
        got.len(),
        &got[..got.len().min(6)]
    );
}

fn run(db: &Mood, sql: &str) -> Vec<Vec<Value>> {
    match db.execute(sql) {
        Ok(Answer::Rows(r)) => r.rows,
        other => panic!("{sql}: {other:?}"),
    }
}

/// Every execution setting the driver's binding sites differ under.
/// Changing a setting empties the plan cache, so with the cache on the
/// three runs are: prepared (every expression compiles at its first
/// evaluation), cached, cached again.
fn check_everywhere(db: &Mood, corpus: &[&str]) {
    let expected: Vec<Vec<Vec<Value>>> = corpus.iter().map(|sql| oracle(db, sql)).collect();
    for cached in [false, true] {
        for parallelism in [1, 2, 4, 8] {
            for batch in [1, 7, 1024] {
                db.set_plan_cache_enabled(cached);
                db.set_parallelism(parallelism);
                db.set_batch_size(batch);
                for (sql, want) in corpus.iter().zip(&expected) {
                    let ordered = !select_stmt(sql).order_by.is_empty();
                    for pass in 0..if cached { 3 } else { 1 } {
                        let ctx = format!(
                            "{sql}\n (cached {cached}, pass {pass}, parallelism \
                             {parallelism}, batch {batch})"
                        );
                        assert_same(want, &run(db, sql), ordered, &ctx);
                    }
                }
            }
        }
    }
    db.set_plan_cache_enabled(true);
    db.set_parallelism(1);
    db.set_batch_size(1024);
}

/// The `-- Reads:` lines of a statement's `EXPLAIN`, e.g. `v {id, weight}`.
fn reads(db: &Mood, sql: &str) -> Vec<String> {
    let plan = db.explain(sql).unwrap();
    plan.lines()
        .filter_map(|l| l.strip_prefix("-- Reads: "))
        .map(str::to_string)
        .collect()
}

/// Statements over the `Plain` fixture with the exact read set of each.
const PLAIN: &[(&str, &[&str])] = &[
    // Immediate predicates, a two-sided range, ORDER BY.
    (
        "SELECT v.id, v.weight FROM Vehicle v WHERE v.weight >= 1000 AND v.weight < 1100 \
         ORDER BY v.weight, v.id",
        &["v {id, weight}"],
    ),
    (
        "SELECT v.id FROM Vehicle v WHERE v.weight BETWEEN 900 AND 1200 AND v.color <> 'red'",
        &["v {color, id, weight}"],
    ),
    // DNF: each term its own plan, a different attribute mix per term.
    (
        "SELECT v.id FROM Vehicle v WHERE (v.weight < 760 AND v.color = 'red') OR \
         (v.weight > 1500 AND v.color = 'blue') OR v.id = 7",
        &["v {color, id, weight}"],
    ),
    (
        "SELECT v.id FROM Vehicle v WHERE NOT (v.weight > 900) OR v.color = 'white'",
        &["v {color, id, weight}"],
    ),
    // Paths: two and three hops.
    (
        "SELECT v.id FROM Vehicle v WHERE v.drivetrain.transmission = 'MANUAL'",
        &["d {transmission}", "v {drivetrain, id}"],
    ),
    (
        "SELECT v.id, v.color FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2",
        &["d {engine}", "e {cylinders}", "v {color, drivetrain, id}"],
    ),
    (
        "SELECT v.id FROM Vehicle v WHERE v.weight < 900 AND v.drivetrain.engine.cylinders = 2",
        &["d {engine}", "e {cylinders}", "v {drivetrain, id, weight}"],
    ),
    // Two paths: the first becomes the temporary T1.
    (
        "SELECT v.id FROM Vehicle v WHERE v.company.name = 'maker1' AND \
         v.drivetrain.engine.cylinders = 2",
        &[
            "c {name}",
            "d {engine}",
            "e {cylinders}",
            "v {company, drivetrain, id}",
        ],
    ),
    // A path in the projection is chased through the resolver: only its
    // first attribute is read off the bound object.
    (
        "SELECT v.id, v.drivetrain.transmission FROM Vehicle v WHERE v.weight > 1400 \
         ORDER BY v.id",
        &["v {drivetrain, id, weight}"],
    ),
    // The hierarchy and the minus operator.
    (
        "SELECT v.id, v.weight FROM EVERY Vehicle - JapaneseAuto v WHERE v.weight > 1400",
        &["v {id, weight}"],
    ),
    (
        "SELECT DISTINCT v.color FROM EVERY Vehicle - JapaneseAuto v",
        &["v {color}"],
    ),
    // GROUP BY / HAVING / aggregates.
    (
        "SELECT v.color, COUNT(*), AVG(v.weight) FROM Vehicle v GROUP BY v.color \
         HAVING COUNT(*) > 1 ORDER BY v.color",
        &["v {color, weight}"],
    ),
    (
        "SELECT v.color, MAX(v.weight), MIN(v.id) FROM EVERY Vehicle v WHERE v.weight > 800 \
         GROUP BY v.color HAVING AVG(v.weight) > 900 ORDER BY v.color",
        &["v {color, id, weight}"],
    ),
    ("SELECT COUNT(*) FROM Vehicle v", &["v {}"]),
    // ORDER BY on an attribute that is not projected.
    (
        "SELECT v.id FROM EVERY Vehicle v ORDER BY v.weight DESC, v.id",
        &["v {id, weight}"],
    ),
    // `=` operands become `$n`: the two texts share one cached plan.
    (
        "SELECT v.id, v.weight FROM Vehicle v WHERE v.color = 'red' AND v.weight > 1200",
        &["v {color, id, weight}"],
    ),
    (
        "SELECT v.id, v.weight FROM Vehicle v WHERE v.color = 'blue' AND v.weight > 1200",
        &["v {color, id, weight}"],
    ),
    // Arithmetic.
    (
        "SELECT v.id, v.weight * 2 + 1 FROM Vehicle v WHERE v.id + 1 < 10",
        &["v {id, weight}"],
    ),
    // A range variable joined explicitly: `e` appears bare in the join.
    (
        "SELECT v.id, e.size FROM Vehicle v, VehicleEngine e WHERE v.drivetrain.engine = e \
         AND e.cylinders > 4",
        &["d {engine}", "e *", "v {drivetrain, id}"],
    ),
    // A FROM list no path links: each variable's plan reads its own.
    (
        "SELECT v.id, c.name FROM Vehicle v, Company c WHERE v.weight > 1500 AND \
         c.name = 'maker1'",
        &["c {name}", "v {id, weight}"],
    ),
    // `EVERY X - Y` on a later item; a later item absorbing another by its
    // path, and a reference comparison across the components.
    (
        "SELECT c.name, v.id FROM Company c, EVERY Vehicle - JapaneseAuto v WHERE \
         c.location = 'Aichi' AND v.weight > 1500",
        &["c {location, name}", "v {id, weight}"],
    ),
    (
        "SELECT c.name, v.id, e.size FROM Company c, Vehicle v, VehicleEngine e WHERE \
         v.drivetrain.engine = e AND c.name = 'maker1' AND v.company = c AND e.cylinders = 4",
        &["c *", "d {engine}", "e *", "v {company, drivetrain, id}"],
    ),
    // Widening: a method on the variable reads what its body likes.
    (
        "SELECT v.id FROM Vehicle v WHERE v.lbweight() > 3000.0",
        &["v *"],
    ),
    (
        "SELECT v.id, v.lbweight() FROM Vehicle v WHERE v.id < 5",
        &["v *"],
    ),
    // … but a receiver reached through a path is fetched by the call.
    (
        "SELECT v.id FROM Vehicle v WHERE v.id < 10 AND v.drivetrain.engine.power() > 6000",
        &["v {drivetrain, id}"],
    ),
    // Widening: the bare variable.
    ("SELECT v FROM Vehicle v WHERE v.weight < 800", &["v *"]),
    // Methods with arguments and inside arithmetic run on the scanned
    // object like any other.
    (
        "SELECT v.id, v.scaled(v.id) - v.lbweight() * 2 FROM Vehicle v WHERE v.scaled(2) > 2500 \
         ORDER BY v.id",
        &["v *"],
    ),
    // A comparison between two variables a join binds, both also read
    // bare: a program over two slots.
    (
        "SELECT v.id, v, e FROM Vehicle v, VehicleEngine e WHERE v.drivetrain.engine = e AND \
         e.cylinders > 4 AND v.weight > e.size + 200 ORDER BY v.id",
        &["d {engine}", "e *", "v *"],
    ),
    // The same shapes over two components: `k` is a component of its own,
    // `c.location = k.location` its hash key; `k` is read bare.
    (
        "SELECT v.id, c.name, k FROM Vehicle v, Company c, Company k WHERE v.company = c AND \
         k.name = 'maker1' AND c.location = k.location AND v.id < 30 ORDER BY v.id, c.name",
        &["c {location, name}", "k *", "v {company, id}"],
    ),
];

#[test]
fn plain_corpus_matches_the_oracle_and_reads_exactly_what_it_names() {
    let db = build(Fixture::Plain);
    for (sql, want) in PLAIN {
        assert_eq!(reads(&db, sql), *want, "{sql}");
    }
    // The join methods this fixture is here for.
    let plan = db.explain(PLAIN[5].0).unwrap();
    assert!(plan.contains("BACKWARD_TRAVERSAL"), "{plan}");
    let plan = db.explain(PLAIN[6].0).unwrap();
    assert!(plan.contains("FORWARD_TRAVERSAL"), "{plan}");
    let corpus: Vec<&str> = PLAIN.iter().map(|(sql, _)| *sql).collect();
    check_everywhere(&db, &corpus);
}

#[test]
fn dml_targets_read_the_whole_object() {
    let db = build(Fixture::Plain);
    for sql in [
        "UPDATE Vehicle v SET weight = 1 WHERE v.id = 17",
        "DELETE FROM Vehicle v WHERE v.weight < 760",
        "DELETE FROM Vehicle v",
    ] {
        assert_eq!(reads(&db, sql), ["v *"], "{sql}");
    }
}

/// The paths of the plain corpus again, under plans that join differently.
const PATHS: [&str; 4] = [
    "SELECT v.id FROM Vehicle v WHERE v.drivetrain.transmission = 'MANUAL'",
    "SELECT v.id, v.color FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2",
    "SELECT v.id, v.weight FROM Vehicle v WHERE v.company.name = 'maker1' AND \
     v.drivetrain.engine.cylinders = 2 ORDER BY v.weight, v.id",
    "SELECT v.id, e.size FROM Vehicle v, VehicleEngine e WHERE v.drivetrain.engine = e \
     AND e.cylinders > 4",
];

#[test]
fn binary_join_index_plans_match_the_oracle() {
    let db = build(Fixture::Bji);
    let plan = db.explain(PATHS[1]).unwrap();
    assert!(plan.contains("BINARY_JOIN_INDEX"), "{plan}");
    assert_eq!(
        reads(&db, PATHS[1]),
        ["d {engine}", "e {cylinders}", "v {color, drivetrain, id}"]
    );
    check_everywhere(&db, &PATHS);
}

#[test]
fn hash_partition_plans_match_the_oracle() {
    let db = build(Fixture::PaperStats);
    for sql in &PATHS[1..3] {
        let plan = db.explain(sql).unwrap();
        assert!(plan.contains("HASH_PARTITION"), "{plan}");
    }
    assert_eq!(
        reads(&db, PATHS[2]),
        [
            "c {name}",
            "d {engine}",
            "e {cylinders}",
            "v {company, drivetrain, id, weight}"
        ]
    );
    check_everywhere(&db, &PATHS);
}

#[test]
fn index_fetches_reverify_on_the_pruned_object() {
    let db = build(Fixture::Indexed);
    let by_id = "SELECT v.color FROM Vehicle v WHERE v.id = 17";
    let by_weight =
        "SELECT v.id, v.color FROM Vehicle v WHERE v.weight = 737 AND v.color = 'green'";
    let by_path = "SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.size = 1050";
    for (sql, kind, want) in [
        (by_id, "BTREE", "v {color, id}"),
        (by_weight, "BTREE", "v {color, id, weight}"),
        (by_path, "PATH_INDEX", "v {drivetrain, id}"),
    ] {
        let plan = db.explain(sql).unwrap();
        assert!(
            plan.contains(&format!("INDSEL(Vehicle, v, {kind}")),
            "{plan}"
        );
        assert_eq!(reads(&db, sql), [want], "{sql}");
    }
    let corpus = [
        by_id,
        "SELECT v.color FROM Vehicle v WHERE v.id = 23",
        by_weight,
        "SELECT v.id, v.color FROM Vehicle v WHERE v.weight = 774 AND v.color = 'green'",
        "SELECT v.id FROM Vehicle v WHERE v.weight >= 1500 ORDER BY v.id",
        by_path,
        "SELECT v.id, v.weight FROM EVERY Vehicle v WHERE v.drivetrain.engine.size = 1050 \
         ORDER BY v.id",
        // Two variables, the index on either side; three, a String hash
        // key with duplicates and a residual across them.
        "SELECT v.id, e.size FROM Vehicle v, VehicleEngine e WHERE v.id = 10 \
         AND v.weight = e.size",
        "SELECT e.size, v.id FROM VehicleEngine e, Vehicle v WHERE e.cylinders = 2 \
         AND v.weight = 1440 AND e.size = v.weight",
        "SELECT c.name, e.size, k.name FROM Company c, VehicleEngine e, Company k WHERE \
         c.location = k.location AND e.cylinders = 8 AND e.size < 1100 AND c.name <> k.name",
    ];
    for sql in &corpus[7..9] {
        assert!(db.explain(sql).unwrap().contains("INDSEL(Vehicle, v, BTREE"), "{sql}");
    }
    check_everywhere(&db, &corpus);

    // Make the path index stale (it is rebuilt on demand, not on update):
    // the engine stops matching, and only re-verification on the fetched —
    // pruned — object keeps its vehicles out.
    assert!(!run(&db, by_path).is_empty());
    let catalog = db.catalog();
    let (engine, mut value) = catalog
        .extent("VehicleEngine")
        .unwrap()
        .into_iter()
        .find(|(_, v)| v.field("size") == Some(&Value::Integer(1050)))
        .unwrap();
    value.set_field("size", Value::Integer(1051));
    catalog.update_object(engine, value).unwrap();
    assert!(db.explain(by_path).unwrap().contains("PATH_INDEX"));
    check_everywhere(&db, &corpus);
    assert!(run(&db, by_path).is_empty());
}

// ----------------------------------------------------------------------
// An index never changes an answer
// ----------------------------------------------------------------------

/// Twin classes holding the same objects in the same order: `Item` indexed
/// (B+-trees on an Integer with NULLs, negatives and duplicates, on a Float
/// holding both `0.0` and `-0.0`, and on a String, none in extent order)
/// and `ItemTwin` not. `pad` sets
/// how many objects share a page, so how soon §8.1 prefers an index.
fn build_twins(n: i32, pad: usize) -> Mood {
    let db = Mood::in_memory_with_pool(4096);
    db.set_optimizer_config(OptimizerConfig::paper());
    for class in ["Item", "ItemTwin"] {
        db.execute(&format!(
            "CREATE CLASS {class} TUPLE (id Integer, ratio Float, tag String(16), grp Integer, \
             pad String(2048))"
        ))
        .unwrap();
        for i in 0..n {
            let id = match i % 13 {
                5 => Value::Null,
                // Every thirteenth key a second time.
                6 => Value::Integer((i - 13) * 37 % n - 40),
                _ => Value::Integer(i * 37 % n - 40),
            };
            // -0.0 equals the 0.0 another object holds.
            let ratio = if i == 7 { -0.0 } else { (i * 11 % n) as f64 * 0.25 - 10.0 };
            let object = Value::tuple(vec![
                ("id", id),
                ("ratio", Value::Float(ratio)),
                ("tag", Value::string(format!("t{:04}", i * 7 % n))),
                ("grp", Value::Integer(i % 5)),
                ("pad", Value::string("p".repeat(pad))),
            ]);
            db.catalog().new_object(class, object).unwrap();
        }
    }
    for attr in ["id", "ratio", "tag"] {
        let c = db.catalog();
        c.create_index("Item", attr, false).unwrap();
    }
    db.collect_stats().unwrap();
    db
}

/// Every shape of bound an index can be asked to serve, and the tails that
/// consume what it finds. `{a}`/`{b}` are an interval of about a dozen ids
/// inside the domain.
fn range_corpus(n: i32) -> Vec<String> {
    let (a, b) = (n / 3 - 40, n / 3 - 28);
    let select = |what: &str, pred: &str| format!("SELECT {what} FROM Item k WHERE {pred}");
    let mut corpus: Vec<String> = [
        // One-sided, each way, inclusive and exclusive.
        format!("k.id < {}", -28),
        format!("k.id <= {}", -28),
        format!("k.id > {}", n - 52),
        format!("k.id >= {}", n - 52),
        // Two-sided: every inclusivity, BETWEEN, the constant on the left.
        format!("k.id >= {a} AND k.id < {b}"),
        format!("k.id > {a} AND k.id <= {b}"),
        format!("k.id BETWEEN {a} AND {b}"),
        format!("{a} <= k.id AND {b} > k.id"),
        // Empty, degenerate, redundant.
        format!("k.id >= {b} AND k.id < {a}"),
        format!("k.id > {a} AND k.id < {a}"),
        format!("k.id >= {a} AND k.id <= {a}"),
        format!(
            "k.id >= {a} AND k.id >= {} AND k.id < {b} AND k.id <= {}",
            a + 3,
            b + 5
        ),
        // A fractional bound on an Integer key; bounds outside the domain.
        format!("k.id > {}.5 AND k.id < {}.5", a, b),
        "k.id >= -100000 AND k.id < -30".to_string(),
        format!("k.id > {} AND k.id <= 100000", n - 50),
        "k.id > 100000".to_string(),
        // Negative keys; NULL keys match no bound.
        "k.id >= -40 AND k.id < -31".to_string(),
        // A range plus a residual conjunct; `<>` and NOT.
        format!("k.id >= {a} AND k.id < {b} AND k.grp = 2"),
        format!("k.id >= {a} AND k.id < {b} AND k.id <> {}", a + 4),
        format!("NOT (k.id < {a} OR k.id >= {b})"),
        // Ranges under OR: one INDSEL per DNF term.
        format!(
            "(k.id >= {a} AND k.id < {}) OR (k.id >= {} AND k.id < {b})",
            a + 4,
            b - 3
        ),
        format!("(k.id >= {a} AND k.id < {b}) OR k.ratio < -9.0"),
        // An `=` (lifted to `$n` in a cached plan) beside a range, on the
        // same key and on another indexed one.
        format!("k.id = {} AND k.id >= {a} AND k.id < {b}", a + 2),
        format!("k.id = {} AND k.id > {b}", a + 2),
        format!("k.ratio = 2.5 AND k.id >= -40 AND k.id < {n}"),
        // Two indexed attributes bounded at once: their OID lists intersect.
        format!(
            "k.id >= {a} AND k.id < {} AND k.ratio >= -10.0 AND k.ratio < 40.0",
            b + 20
        ),
        // Float and String keys.
        "k.ratio >= -2.5 AND k.ratio <= 1.75".to_string(),
        "k.ratio BETWEEN 3.1 AND 5.9".to_string(),
        "k.ratio > 7 AND k.ratio < 9".to_string(),
        // The two zeros are one key.
        "k.ratio = 0.0".to_string(),
        "k.ratio >= 0.0".to_string(),
        "k.ratio <= -0.0".to_string(),
        "k.tag >= 't0010' AND k.tag < 't0021'".to_string(),
        "k.tag < 't0007'".to_string(),
        "k.tag > 't0003' AND k.tag <= 't0003'".to_string(),
    ]
    .iter()
    .map(|pred| select("k.id, k.tag", pred))
    .collect();
    // Tails over an interval.
    let interval = format!("k.id >= {a} AND k.id < {}", b + 18);
    corpus.extend([
        select("k.tag, k.id", &format!("{interval} ORDER BY k.tag DESC")),
        select(
            "k.grp, COUNT(*), AVG(k.ratio)",
            &format!("{interval} GROUP BY k.grp"),
        ),
        select(
            "k.grp, MAX(k.id)",
            &format!("{interval} GROUP BY k.grp HAVING COUNT(*) > 2 ORDER BY k.grp"),
        ),
        select("DISTINCT k.grp", &interval),
        select("COUNT(*), MIN(k.ratio)", &interval),
        select("k", &format!("k.id >= {a} AND k.id <= {}", a + 2)),
    ]);
    corpus
}

/// The engine's answer to `sql`, in its order, is exactly `want`.
fn assert_exactly(want: &[Vec<Value>], got: &[Vec<Value>], ctx: &str) {
    let same = want.len() == got.len()
        && (want.iter().zip(got))
            .all(|(a, b)| a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_cell(x, y)));
    assert!(
        same,
        "{ctx}\n expected {} rows: {want:?}\n got {} rows: {got:?}",
        want.len(),
        got.len()
    );
}

fn twin(sql: &str) -> String {
    sql.replace("Item k", "ItemTwin k")
}

/// A bare `k` is a reference into its own extent: compare what it names.
fn deref_refs(db: &Mood, rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let deref = |v: Value| match v {
        Value::Ref(oid) => db.catalog().get_object(oid).unwrap().1,
        other => other,
    };
    rows.into_iter()
        .map(|r| r.into_iter().map(deref).collect())
        .collect()
}

#[test]
fn an_index_never_changes_an_answer() {
    // Sixty objects on a dozen pages: a scan beats fetching an interval's
    // dozen objects one by one. One object a page over 700: an index wins
    // below a few dozen objects.
    for (n, pad, indexed) in [(61, 600, false), (701, 2040, true)] {
        let db = build_twins(n, pad);
        let corpus = range_corpus(n);
        assert!(corpus.len() >= 30);
        for sql in &corpus {
            let plan = db.explain(sql).unwrap();
            let where_clause = sql.split(" WHERE ").nth(1).unwrap();
            let numeric = !where_clause.contains("k.tag");
            let two_sided = where_clause.contains(">") && where_clause.contains("<") && numeric;
            let terms = plan
                .lines()
                .filter(|l| l.starts_with("-- Node estimates"))
                .count();
            let indsels = plan.matches("INDSEL(Item, k, BTREE, ").count();
            if !indexed
                && where_clause == format!("k.id >= {} AND k.id < {}", n / 3 - 40, n / 3 - 28)
            {
                assert_eq!(indsels, 0, "{sql}\n{plan}");
            } else if indexed
                && two_sided
                && !where_clause.contains("100000")
                && !where_clause.contains("-9.0")
            {
                // Each term's bounds are one interval, one ImmSelInfo row,
                // one INDSEL — never a scan, never two probes.
                assert_eq!(indsels, terms, "{sql}\n{plan}");
                let mut bounds = plan.lines().filter(|l| {
                    l.starts_with("--   k.") && l.contains(['<', '>']) && !l.contains("<>")
                });
                assert!(
                    bounds.all(|row| row.ends_with("| Indexed")),
                    "{sql}\n{plan}"
                );
            }
            assert_eq!(
                db.explain(&twin(sql)).unwrap().matches("INDSEL(").count(),
                0
            );
        }
        let expected: Vec<_> = corpus
            .iter()
            .map(|sql| deref_refs(&db, oracle(&db, sql)))
            .collect();
        for (sql, want) in corpus.iter().zip(&expected) {
            let twin_want = deref_refs(&db, oracle(&db, &twin(sql)));
            assert_exactly(want, &twin_want, &format!("the twins differ: {sql}"));
        }
        for cached in [false, true] {
            for parallelism in [1, 2, 4, 8] {
                for batch in [1, 7, 1024] {
                    db.set_plan_cache_enabled(cached);
                    db.set_parallelism(parallelism);
                    db.set_batch_size(batch);
                    for (sql, want) in corpus.iter().zip(&expected) {
                        for pass in 0..if cached { 2 } else { 1 } {
                            let ctx = format!(
                                "{sql}\n (n {n}, cached {cached}, pass {pass}, parallelism \
                                 {parallelism}, batch {batch})"
                            );
                            let got = deref_refs(&db, run(&db, sql));
                            let unindexed = deref_refs(&db, run(&db, &twin(sql)));
                            let differ = format!("the twins differ: {ctx}");
                            // A union of index terms emits term by term; the
                            // twin's scan-only terms run as one scan, in
                            // extent order, as the oracle does.
                            if sql.contains(" OR ") {
                                assert_exactly(want, &unindexed, &ctx);
                                assert_same(&unindexed, &got, false, &differ);
                            } else {
                                assert_exactly(&unindexed, &got, &differ);
                                assert_exactly(want, &got, &ctx);
                            }
                        }
                    }
                }
            }
        }
        db.set_plan_cache_enabled(true);
        db.set_parallelism(1);
        db.set_batch_size(1024);

        // Keyed DML: the same statement on both twins leaves the same
        // extents, and touches what the predicate names.
        let (a, b) = (n / 3 - 40, n / 3 - 28);
        for (dml, pred) in [
            (
                "UPDATE {} k SET grp = 9",
                format!("k.id >= {a} AND k.id < {b}"),
            ),
            (
                "UPDATE {} k SET id = k.id + 1000",
                format!("k.id BETWEEN {} AND {}", a + 2, a + 5),
            ),
            (
                "DELETE FROM {} k",
                format!("k.id > {} AND k.id <= {b}", b - 4),
            ),
            (
                "DELETE FROM {} k",
                "k.ratio >= 0.0 AND k.ratio < 1.0 AND k.id < 100000".to_string(),
            ),
        ] {
            let count = format!("SELECT COUNT(*) FROM ItemTwin k WHERE {pred}");
            let Value::Integer(matching) = oracle(&db, &count)[0][0] else {
                panic!()
            };
            if dml.starts_with("DELETE") || dml.contains("grp") {
                let plan = db.explain(&format!("{} WHERE {pred}", dml.replace("{}", "Item")));
                assert_eq!(
                    plan.unwrap().contains("INDSEL(Item, k, BTREE, "),
                    indexed,
                    "{dml} {pred}"
                );
            }
            for class in ["Item", "ItemTwin"] {
                let sql = format!("{} WHERE {pred}", dml.replace("{}", class));
                match db.execute(&sql) {
                    Ok(Answer::Done { affected }) => assert_eq!(affected as i32, matching, "{sql}"),
                    other => panic!("{sql}: {other:?}"),
                }
            }
            let values = |class: &str| -> Vec<Value> {
                db.catalog()
                    .extent(class)
                    .unwrap()
                    .into_iter()
                    .map(|(_, v)| v)
                    .collect()
            };
            assert_eq!(values("Item"), values("ItemTwin"), "{dml} {pred}");
            // The indexes followed: ranges over the moved and removed keys.
            for sql in [
                format!(
                    "SELECT k.id, k.grp FROM Item k WHERE k.id >= {a} AND k.id < {}",
                    b + 4
                ),
                "SELECT k.id FROM Item k WHERE k.id >= 1000 AND k.id < 2000".to_string(),
                "SELECT k.id FROM Item k WHERE k.ratio >= -0.5 AND k.ratio <= 1.5".to_string(),
            ] {
                let want = oracle(&db, &sql);
                assert_exactly(&want, &run(&db, &sql), &sql);
                assert_exactly(&want, &run(&db, &twin(&sql)), &twin(&sql));
            }
        }
    }
}

// ----------------------------------------------------------------------
// UPDATE / DELETE against the oracle
// ----------------------------------------------------------------------

type Extent = BTreeMap<Oid, Value>;

fn extent(db: &Mood, class: &str) -> Extent {
    db.catalog().extent(class).unwrap().into_iter().collect()
}

/// What the own extent must look like after `UPDATE Vehicle v SET … WHERE
/// pred` (no assignments: `DELETE`): every attribute the statement does not
/// assign survives, which a pruned target image would lose.
fn expected_after(db: &Mood, assignments: &[(&str, &str)], pred: &str) -> Extent {
    let env = Env::of(db);
    let pred = parse_expr(pred).unwrap();
    let mut after = Extent::new();
    for (oid, value) in extent(db, "Vehicle") {
        let mut row = Row::new();
        row.insert("v".to_string(), bound(oid, &value));
        if !eval_pred(env, &pred, &row).unwrap() {
            after.insert(oid, value);
        } else if !assignments.is_empty() {
            let mut new = value.clone();
            for (attr, e) in assignments {
                new.set_field(attr, eval_expr(env, &parse_expr(e).unwrap(), &row).unwrap());
            }
            after.insert(oid, new);
        }
    }
    after
}

#[test]
fn dml_matches_the_oracle_and_keeps_whole_objects() {
    let updates: [(&[(&str, &str)], &str); 4] = [
        (&[("weight", "v.weight + 5")], "v.color = 'red'"),
        (&[("color", "'black'"), ("weight", "1")], "v.id = 17"),
        (&[("weight", "0")], "v.drivetrain.engine.cylinders = 2"),
        (&[], "v.weight < 760 OR v.id = 3"),
    ];
    for fixture in [Fixture::Plain, Fixture::Indexed] {
        for cached in [false, true] {
            let db = build(fixture);
            db.set_plan_cache_enabled(cached);
            for (assignments, pred) in updates {
                let want = expected_after(&db, assignments, pred);
                let sets: Vec<String> = assignments
                    .iter()
                    .map(|(a, e)| format!("{a} = {e}"))
                    .collect();
                let sql = if sets.is_empty() {
                    format!("DELETE FROM Vehicle v WHERE {pred}")
                } else {
                    format!("UPDATE Vehicle v SET {} WHERE {pred}", sets.join(", "))
                };
                db.execute(&sql).unwrap();
                assert_eq!(extent(&db, "Vehicle"), want, "{fixture:?}: {sql}");
            }
            // The indexes were maintained from whole images.
            check_everywhere(
                &db,
                &[
                    "SELECT v.id, v.color FROM Vehicle v WHERE v.weight = 1",
                    "SELECT v.id FROM Vehicle v WHERE v.weight < 800 ORDER BY v.id",
                    "SELECT v.weight FROM Vehicle v WHERE v.id = 17",
                ],
            );
        }
    }
}

// ----------------------------------------------------------------------
// Schema evolution: in the read set, absent from the record → NULL
// ----------------------------------------------------------------------

#[test]
fn an_attribute_newer_than_the_record_reads_null() {
    let db = build(Fixture::Plain);
    db.catalog()
        .add_attribute("Vehicle", "price", TypeDescriptor::integer())
        .unwrap();
    let priced = db
        .catalog()
        .new_object(
            "Vehicle",
            Value::tuple(vec![
                ("id", Value::Integer(999)),
                ("price", Value::Integer(3)),
            ]),
        )
        .unwrap();
    let projected = "SELECT v.id, v.price FROM Vehicle v WHERE v.id < 3 ORDER BY v.id";
    assert_eq!(reads(&db, projected), ["v {id, price}"]);
    let by_price = "SELECT v.id FROM Vehicle v WHERE v.price = 3";
    assert_eq!(reads(&db, by_price), ["v {id, price}"]);
    // Three passes: prepared and compiled, then cached twice.
    for _ in 0..3 {
        assert_eq!(
            run(&db, projected),
            (0..3)
                .map(|i| vec![Value::Integer(i), Value::Null])
                .collect::<Vec<_>>()
        );
        assert_eq!(run(&db, by_price), [[Value::Integer(999)]]);
        assert_eq!(
            run(&db, "SELECT COUNT(v.price), COUNT(*) FROM Vehicle v"),
            [[Value::Integer(1), Value::Integer(N + 1)]]
        );
    }
    let (_, stored) = db.catalog().get_object(priced).unwrap();
    assert_eq!(stored.field("price"), Some(&Value::Integer(3)));
}

/// A scan decodes each record into a batch slot an earlier object used.
/// Every third record is rewritten after `price` exists, with a price; the
/// others are from before it. In one batch a priced record fills a slot
/// before an older one does (at batch 1 every time, at 7 wherever their
/// positions meet), and the older one still reads NULL — its version has
/// no slot for `price`, and its slot keeps no value an earlier record left.
#[test]
fn a_recycled_slot_never_lends_an_old_record_a_newer_attribute() {
    let db = build(Fixture::Plain);
    let c = db.catalog();
    c.add_attribute("Vehicle", "price", TypeDescriptor::integer())
        .unwrap();
    for (i, (oid, mut value)) in c.extent("Vehicle").unwrap().into_iter().enumerate() {
        if let (0, Value::Tuple(fields)) = (i % 3, &mut value) {
            fields.push(("price".to_string(), Value::Integer(i as i32 % 5)));
            c.update_object(oid, value).unwrap();
        }
    }
    let stored = c.extent("Vehicle").unwrap();
    let priced: Vec<bool> =
        stored.iter().map(|(_, v)| v.field("price").is_some_and(|p| !p.is_null())).collect();
    assert!(
        priced.windows(2).any(|w| w[0] && !w[1]),
        "no priced record precedes an older one: {priced:?}"
    );
    let corpus = [
        "SELECT v.id, v.price FROM Vehicle v",
        "SELECT v.id, v.price FROM Vehicle v WHERE v.weight > 0",
        "SELECT v.id FROM Vehicle v WHERE v.price = 3",
        "SELECT v.id, v.price FROM Vehicle v WHERE v.price = 3 OR v.weight < 900",
        "SELECT COUNT(v.price), COUNT(*) FROM Vehicle v",
        "SELECT v.color, COUNT(v.price) FROM Vehicle v GROUP BY v.color",
        "SELECT DISTINCT v.price FROM Vehicle v",
        "SELECT v.id, v.price FROM EVERY Vehicle v ORDER BY v.id",
    ];
    check_everywhere(&db, &corpus);
}

// ----------------------------------------------------------------------
// A record that does not decode is an error, not a shorter answer
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Damage {
    /// The last field is `company`, a reference (tag byte + 14 OID bytes):
    /// its tag becomes one no value has.
    BadTag,
    /// Cut inside the 159-byte `pad` string: its length runs off the end.
    CutOff,
}

/// The stored records of `class`'s own extent, as the heap holds them.
fn stored_records(db: &Mood, class: &str) -> Vec<Vec<u8>> {
    let file = db.catalog().class(class).unwrap().extent.unwrap();
    let mut records = Vec::new();
    db.storage().open_heap(file).scan_with(|_, bytes| {
        records.push(bytes.to_vec());
        true
    })
    .unwrap();
    records
}

/// Append a copy of a `Vehicle` record, damaged, to the extent behind the
/// catalog's back.
fn plant(db: &Mood, damage: Damage) {
    let mut record = stored_records(db, "Vehicle").swap_remove(0);
    match damage {
        Damage::BadTag => {
            let at = record.len() - 15;
            record[at] = 200;
        }
        Damage::CutOff => record.truncate(record.len() - 60),
    }
    let file = db.catalog().class("Vehicle").unwrap().extent.unwrap();
    db.storage().open_heap(file).insert(&record).unwrap();
}

#[test]
fn an_undecodable_record_fails_the_statement() {
    for damage in [Damage::BadTag, Damage::CutOff] {
        let what = format!("{damage:?}");
        let db = build(Fixture::Plain);
        assert_eq!(run(&db, "SELECT v.id FROM Vehicle v").len(), N as usize);
        plant(&db, damage);
        // Whole and pruned, first and repeated execution: the damage sits
        // in fields none of these statements reads.
        for sql in [
            "SELECT v FROM Vehicle v",
            "SELECT v.id FROM Vehicle v",
            "SELECT v.id FROM Vehicle v WHERE v.weight > 0",
            "SELECT v.id FROM Vehicle v WHERE v.weight > 0",
        ] {
            let err = db.execute(sql).expect_err(&what).to_string();
            assert!(err.contains("object"), "{what}: {sql}: {err}");
        }
        assert!(db.catalog().extent("Vehicle").is_err(), "{what}: extent()");
        assert!(
            db.catalog().collect_stats().is_err(),
            "{what}: collect_stats"
        );
        // The other extents are as readable as before.
        assert_eq!(run(&db, "SELECT e.size FROM VehicleEngine e").len(), 64);
    }
}

// ----------------------------------------------------------------------
// Count gates
// ----------------------------------------------------------------------

#[test]
fn a_spilled_row_is_narrower_than_a_stored_one() {
    let db = build(Fixture::Plain);
    let classes = ["Vehicle", "Automobile", "JapaneseAuto"];
    let everyone: Vec<Vec<u8>> = classes.iter().flat_map(|c| stored_records(&db, c)).collect();
    let stored: usize = everyone.iter().map(Vec::len).sum();
    let rows = everyone.len() as u64;
    let sql = "SELECT v.id FROM EVERY Vehicle v ORDER BY v.weight, v.id";
    let in_memory = run(&db, sql);
    db.set_sort_budget(16);
    let before = db.engine_metrics().batch;
    assert_eq!(run(&db, sql), in_memory);
    let after = db.engine_metrics().batch;
    assert!(after.spilled_runs - before.spilled_runs >= rows / 16);
    let spilled = after.spill_bytes - before.spill_bytes;
    // A spilled record carries the sort keys, the OID and `{id, weight}`;
    // a stored one also carries the colour, the pad and two references.
    assert!(
        spilled / rows < stored as u64 / rows,
        "{} spilled bytes per row against {} stored",
        spilled / rows,
        stored as u64 / rows
    );
}

#[test]
fn a_method_on_the_scanned_variable_does_not_fetch_it_again() {
    let db = build(Fixture::Plain);
    let accesses = |sql: &str| {
        let before = db.metrics().snapshot();
        let rows = run(&db, sql);
        let d = db.metrics().snapshot().delta(&before);
        (rows, d.buffer_hits + d.buffer_misses)
    };
    // First executions: both one batched scan of the own extent.
    let (plain, scan) = accesses("SELECT v.id FROM Vehicle v WHERE v.weight * 2.2075 > 3000.0");
    let (method, with_call) = accesses("SELECT v.id FROM Vehicle v WHERE v.lbweight() > 3000.0");
    assert_eq!(method, plain);
    assert!(!method.is_empty() && method.len() < N as usize);
    assert_eq!(
        with_call, scan,
        "the method runs on the object the scan decoded: no second heap access per object"
    );
    assert!(scan < N as u64, "a scan touches pages, not objects");
}
