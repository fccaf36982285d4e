//! Planned DML: `UPDATE`/`DELETE` find their targets through the optimizer's
//! access path (index probe when §8.1 picks one, scan + filter otherwise).
//!
//! The differential suite compares every planned statement against a naive
//! oracle — walk the extent, interpret the predicate per row with
//! `support/oracle.rs`' tree walker. The count gates pin the access pattern (O(log n) pages for a
//! keyed statement, no index page dirtied by an update that changes no key),
//! and the atomicity tests pin the statement-level semantics.

use std::collections::{BTreeMap, BTreeSet};

use mood_core::sql::{parse_expr, Row};
use mood_core::storage::Oid;
use mood_core::{Answer, Mood, OptimizerConfig, Value};

const COLORS: [&str; 4] = ["red", "green", "blue", "white"];
const CITIES: [&str; 3] = ["Munich", "Aichi", "Detroit"];

/// Whether `Vehicle(id)` (unique) and `Vehicle(weight)` get B+-tree indexes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Indexes {
    None,
    BTree,
}

/// The §3.1 hierarchy with `n` objects in `Vehicle`'s own extent (ids
/// `0..n`) and `n / 4` in each subclass extent carrying the *same* ids, so
/// a statement that leaked into a subclass extent would show.
fn build(n: i32, indexes: Indexes) -> Mood {
    let db = Mood::in_memory_with_pool(4096);
    db.set_optimizer_config(OptimizerConfig::paper());
    for ddl in [
        "CREATE CLASS Company TUPLE (name String(32), location String(32))",
        "CREATE CLASS Vehicle TUPLE (id Integer, weight Integer, color String(16), \
         manufacturer REFERENCE (Company)) METHODS: lbweight () Float,",
        "CREATE CLASS Automobile INHERITS FROM Vehicle",
        "CREATE CLASS JapaneseAuto INHERITS FROM Automobile",
        "DEFINE METHOD Vehicle::lbweight() RETURNS Float AS 'weight * 2.2075'",
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
    for (class, count) in [
        ("Vehicle", n),
        ("Automobile", n / 4),
        ("JapaneseAuto", n / 4),
    ] {
        for i in 0..count {
            catalog
                .new_object(
                    class,
                    Value::tuple(vec![
                        ("id", Value::Integer(i)),
                        ("weight", Value::Integer(700 + (i * 37) % 900)),
                        ("color", Value::string(COLORS[(i % 4) as usize])),
                        ("manufacturer", Value::Ref(companies[(i % 3) as usize])),
                    ]),
                )
                .unwrap();
        }
    }
    if indexes == Indexes::BTree {
        catalog.create_index("Vehicle", "id", true).unwrap();
        catalog.create_index("Vehicle", "weight", false).unwrap();
    }
    db.collect_stats().unwrap();
    db
}

#[path = "support/oracle.rs"]
mod support;
use support::{bound, eval_expr, eval_pred, Env};

type Extent = BTreeMap<Oid, Value>;

fn extent(db: &Mood, class: &str) -> Extent {
    db.catalog().extent(class).unwrap().into_iter().collect()
}

/// The naive oracle: walk the own extent, interpret `pred` per row.
fn oracle(db: &Mood, pred: Option<&str>) -> BTreeSet<Oid> {
    let pred = pred.map(|p| parse_expr(p).unwrap());
    extent(db, "Vehicle")
        .into_iter()
        .filter(|(oid, value)| {
            let row = Row::from([("v".to_string(), bound(*oid, value))]);
            pred.as_ref()
                .is_none_or(|p| eval_pred(Env::of(db), p, &row).unwrap())
        })
        .map(|(oid, _)| oid)
        .collect()
}

fn all_oids(db: &Mood) -> BTreeSet<Oid> {
    extent(db, "Vehicle").into_keys().collect()
}

fn affected(answer: Answer) -> usize {
    match answer {
        Answer::Done { affected } => affected,
        other => panic!("not a DML acknowledgement: {other:?}"),
    }
}

fn int(v: &Value, field: &str) -> i32 {
    match v.field(field) {
        Some(Value::Integer(i)) => *i,
        other => panic!("{field} = {other:?}"),
    }
}

/// The indexes on `Vehicle` agree with the heap: a stride sample of the
/// extent plus up to ~256 evenly spaced members of `focus` (the rows a
/// statement touched) are found under their stored keys, and the B+-trees
/// hold exactly one entry per object.
fn assert_indexes_agree(db: &Mood, indexes: Indexes, focus: &BTreeSet<Oid>, ctx: &str) {
    if indexes == Indexes::None {
        return;
    }
    let cat = db.catalog();
    let heap = extent(db, "Vehicle");
    let focus: BTreeSet<Oid> = focus
        .iter()
        .step_by((focus.len() / 256).max(1))
        .copied()
        .collect();
    for attr in ["id", "weight"] {
        for (i, (oid, value)) in heap.iter().enumerate() {
            if i % 16 != 0 && !focus.contains(oid) {
                continue;
            }
            let key = value.field(attr).unwrap();
            assert!(
                cat.index_lookup("Vehicle", attr, key)
                    .unwrap()
                    .contains(oid),
                "{ctx}: {attr} index misses {oid} under its stored key {key}"
            );
        }
        let entries = cat.index_range("Vehicle", attr, None, None).unwrap();
        assert_eq!(entries.len(), heap.len(), "{ctx}: {attr} index entry count");
    }
}

/// A tiny deterministic generator for predicate constants.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: i32) -> i32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as i32
    }
}

/// Generated predicates, one family per shape the binder classifies
/// differently (`None` = no WHERE clause).
fn predicates(n: i32, rng: &mut Lcg) -> Vec<Option<String>> {
    let mut out = vec![None];
    for _ in 0..2 {
        let (k, k2) = (rng.below(n), rng.below(n));
        let w = 700 + rng.below(900);
        let color = COLORS[rng.below(4) as usize];
        let city = CITIES[rng.below(3) as usize];
        out.extend(
            [
                // indexed equality (and a key that matches nothing)
                format!("v.id = {k}"),
                format!("v.id = {}", n + k),
                // one-sided ranges, selective and not
                format!("v.id < {}", rng.below(40)),
                format!("v.id >= {}", n - rng.below(40)),
                format!("v.weight > {w}"),
                // two-sided range, negation
                format!("v.id BETWEEN {} AND {}", k.min(k2), k.min(k2) + 25),
                format!("NOT v.weight = {w}"),
                // un-indexed attribute
                format!("v.color = '{color}'"),
                // path expression
                format!("v.manufacturer.location = '{city}'"),
                // method call
                format!("v.lbweight() > {}.5", 1500 + rng.below(2000)),
                // arithmetic the render → re-parse round trip must keep grouped
                format!("(v.weight + {k}) * 2 > {}", 2 * w + 2 * k),
                // DNF with two terms
                format!("v.id = {k} OR v.weight > {}", w + 300),
                format!(
                    "(v.id < {} AND v.color = '{color}') OR v.id = {k2}",
                    60 + k % 50
                ),
                // DNF whose terms bind different variable sets (the second
                // joins through `manufacturer`) and overlap on low ids
                format!(
                    "v.id < {} OR v.manufacturer.location = '{city}'",
                    30 + k % 200
                ),
                // immediate + path + method in one term
                format!(
                    "v.id < {} AND v.manufacturer.location = '{city}' AND v.lbweight() > 1600.0",
                    n / 2
                ),
            ]
            .map(Some),
        );
    }
    out
}

const SHIFT: i32 = 1_000_000;

/// One differential round inside a transaction that is rolled back: the
/// planned UPDATE and DELETE must hit exactly the oracle's OID set, leave
/// heap and indexes agreeing, and ROLLBACK must restore both.
fn differential_round(db: &Mood, indexes: Indexes, pred: Option<&str>) {
    let ctx = format!("{indexes:?} / {pred:?}");
    let where_sql = pred.map_or(String::new(), |p| format!(" WHERE {p}"));
    let before = extent(db, "Vehicle");
    let subclasses = (extent(db, "Automobile"), extent(db, "JapaneseAuto"));
    let expected = oracle(db, pred);

    // UPDATE moves both indexed keys of every target.
    db.execute("BEGIN").unwrap();
    let n = affected(
        db.execute(&format!(
            "UPDATE Vehicle v SET id = v.id + {SHIFT}, weight = v.weight + 7{where_sql}"
        ))
        .unwrap(),
    );
    assert_eq!(n, expected.len(), "{ctx}: UPDATE affected count");
    let after = extent(db, "Vehicle");
    assert_eq!(after.len(), before.len(), "{ctx}");
    for (oid, old) in &before {
        let new = &after[oid];
        if expected.contains(oid) {
            assert_eq!(int(new, "id"), int(old, "id") + SHIFT, "{ctx}: {oid}");
            assert_eq!(int(new, "weight"), int(old, "weight") + 7, "{ctx}: {oid}");
            if indexes != Indexes::None {
                let old_key = old.field("id").unwrap();
                assert!(
                    db.catalog()
                        .index_lookup("Vehicle", "id", old_key)
                        .unwrap()
                        .is_empty(),
                    "{ctx}: old key {old_key} still indexed"
                );
            }
        } else {
            assert_eq!(new, old, "{ctx}: {oid} is not a target but changed");
        }
    }
    assert_indexes_agree(db, indexes, &expected, &format!("{ctx} after UPDATE"));
    db.execute("ROLLBACK").unwrap();
    assert_eq!(extent(db, "Vehicle"), before, "{ctx}: ROLLBACK of UPDATE");
    assert_indexes_agree(
        db,
        indexes,
        &expected,
        &format!("{ctx} after UPDATE rollback"),
    );

    // DELETE removes exactly the targets.
    db.execute("BEGIN").unwrap();
    let n = affected(
        db.execute(&format!("DELETE FROM Vehicle v{where_sql}"))
            .unwrap(),
    );
    assert_eq!(n, expected.len(), "{ctx}: DELETE affected count");
    let survivors: BTreeSet<Oid> = extent(db, "Vehicle").into_keys().collect();
    let want: BTreeSet<Oid> = before
        .keys()
        .filter(|o| !expected.contains(o))
        .copied()
        .collect();
    assert_eq!(survivors, want, "{ctx}: DELETE survivors");
    if indexes != Indexes::None {
        for oid in &expected {
            let key = before[oid].field("id").unwrap();
            assert!(
                db.catalog()
                    .index_lookup("Vehicle", "id", key)
                    .unwrap()
                    .is_empty(),
                "{ctx}: deleted key {key} still indexed"
            );
        }
    }
    assert_indexes_agree(db, indexes, &expected, &format!("{ctx} after DELETE"));
    db.execute("ROLLBACK").unwrap();
    assert_eq!(extent(db, "Vehicle"), before, "{ctx}: ROLLBACK of DELETE");
    assert_indexes_agree(
        db,
        indexes,
        &expected,
        &format!("{ctx} after DELETE rollback"),
    );

    // Own-extent semantics: subclass extents carry the same ids and must
    // never be touched by DML on the root class.
    assert_eq!(extent(db, "Automobile"), subclasses.0, "{ctx}");
    assert_eq!(extent(db, "JapaneseAuto"), subclasses.1, "{ctx}");
}

fn differential(indexes: Indexes) {
    const N: i32 = 1200;
    let db = build(N, indexes);
    if indexes == Indexes::BTree {
        // The suite is only worth its name if the index path is on it.
        let plan = db
            .explain("UPDATE Vehicle v SET weight = 1 WHERE v.id = 17")
            .unwrap();
        assert!(plan.contains("INDSEL(Vehicle, v"), "{plan}");
    }
    let mut rng = Lcg(0x5eed ^ indexes as u64);
    for pred in predicates(N, &mut rng) {
        differential_round(&db, indexes, pred.as_deref());
    }
}

#[test]
fn planned_dml_matches_oracle_with_btree_indexes() {
    differential(Indexes::BTree);
}

#[test]
fn planned_dml_matches_oracle_without_indexes() {
    differential(Indexes::None);
}

/// `UPDATE … SET` right-hand sides are programs like any other expression:
/// arithmetic over the old value, a method with an argument on the target,
/// a path out of it — every one evaluated against the row as selected,
/// exactly as the oracle's tree walker has it, whichever way the targets
/// were found.
#[test]
fn update_right_hand_sides_match_the_oracle() {
    let sets: [(&str, &str); 2] = [
        ("weight", "v.weight * 2 + v.bonus(3)"),
        ("color", "v.manufacturer.location"),
    ];
    let set_sql: Vec<String> = sets.iter().map(|(a, e)| format!("{a} = {e}")).collect();
    for indexes in [Indexes::None, Indexes::BTree] {
        let db = build(400, indexes);
        db.execute("DEFINE METHOD Vehicle::bonus(n Integer) RETURNS Integer AS 'id % 7 + n'")
            .unwrap();
        for pred in [
            "v.id = 17",
            "v.id < 40 OR v.color = 'red'",
            "v.lbweight() > 3000.0",
        ] {
            let ctx = format!("{indexes:?} / {pred}");
            let before = extent(&db, "Vehicle");
            let targets = oracle(&db, Some(pred));
            let mut want = before.clone();
            for oid in &targets {
                let row = Row::from([("v".to_string(), bound(*oid, &before[oid]))]);
                for (attr, e) in sets {
                    let value = eval_expr(Env::of(&db), &parse_expr(e).unwrap(), &row);
                    want.get_mut(oid).unwrap().set_field(attr, value.unwrap());
                }
            }
            // Twice: nothing about a first execution differs from the next.
            for _ in 0..2 {
                db.execute("BEGIN").unwrap();
                let sql = format!("UPDATE Vehicle v SET {} WHERE {pred}", set_sql.join(", "));
                assert_eq!(affected(db.execute(&sql).unwrap()), targets.len(), "{ctx}");
                assert_eq!(extent(&db, "Vehicle"), want, "{ctx}");
                db.execute("ROLLBACK").unwrap();
                assert_eq!(extent(&db, "Vehicle"), before, "{ctx}: ROLLBACK");
            }
        }
        // A right-hand side that raises on one target fails the statement
        // with that exception and changes nothing.
        let before = extent(&db, "Vehicle");
        let err = db
            .execute("UPDATE Vehicle v SET weight = 1000 / (v.bonus(0) - 3) WHERE v.id < 20")
            .expect_err("id 3 divides by zero");
        assert_eq!(err.to_string(), "DivisionByZero: division by zero");
        assert_eq!(extent(&db, "Vehicle"), before);
    }
}

/// A right-hand side whose path reaches another target of the same
/// statement: the row's own attributes are read as selected, what a path
/// dereferences is read as it is when the row's turn comes (targets are
/// written in OID order) — so a boss rewritten earlier in the statement is
/// seen rewritten, whether or not an earlier row already dereferenced it.
#[test]
fn update_path_reaching_an_earlier_target_reads_it_as_written() {
    // A chain and a fan: 1 → 2 → 3 → 0, 4 → 2, 5 → 1, 6 → 5; 0 has no boss.
    const BOSS: [usize; 7] = [0, 2, 3, 0, 2, 1, 5];
    let staff = || {
        let db = Mood::in_memory();
        db.execute("CREATE CLASS Emp TUPLE (id Integer, salary Integer, boss REFERENCE (Emp))")
            .unwrap();
        let catalog = db.catalog();
        let emp = |id: i32| {
            let fields = vec![
                ("id", Value::Integer(id)),
                ("salary", Value::Integer(10 * id)),
                ("boss", Value::Null),
            ];
            catalog.new_object("Emp", Value::tuple(fields)).unwrap()
        };
        let oids: Vec<Oid> = (0..BOSS.len() as i32).map(emp).collect();
        for (i, boss) in BOSS.iter().enumerate().skip(1) {
            let mut v = catalog.get_object(oids[i]).unwrap().1;
            v.set_field("boss", Value::Ref(oids[*boss]));
            catalog.update_object(oids[i], v).unwrap();
        }
        db
    };
    for (rhs, pred) in [
        ("e.boss.salary + 1", "e.id > 0"),
        ("e.boss.boss.salary + e.salary", "e.id > 0 AND e.id <> 3"),
    ] {
        // The statement replayed on a twin: one target at a time in OID
        // order, each right-hand side interpreted against the database as
        // the rows before it left it.
        let model = staff();
        let selected = extent(&model, "Emp");
        let (rhs_expr, pred_expr) = (parse_expr(rhs).unwrap(), parse_expr(pred).unwrap());
        let mut targets = 0;
        for (oid, old) in &selected {
            let row = Row::from([("e".to_string(), bound(*oid, old))]);
            if !eval_pred(Env::of(&model), &pred_expr, &row).unwrap() {
                continue;
            }
            targets += 1;
            let mut new = old.clone();
            new.set_field("salary", eval_expr(Env::of(&model), &rhs_expr, &row).unwrap());
            model.catalog().update_object(*oid, new).unwrap();
        }
        let want = extent(&model, "Emp");
        for batch in [1, 7, 1024] {
            let db = staff();
            db.set_batch_size(batch);
            assert_eq!(extent(&db, "Emp"), selected, "the twins start equal");
            let sql = format!("UPDATE Emp e SET salary = {rhs} WHERE {pred}");
            assert_eq!(affected(db.execute(&sql).unwrap()), targets, "{sql}");
            assert_eq!(extent(&db, "Emp"), want, "{sql} at batch {batch}");
        }
    }
}

#[test]
fn committed_dml_is_applied_and_indexed() {
    let db = build(2400, Indexes::BTree);
    let n = affected(
        db.execute("UPDATE Vehicle v SET weight = 5 WHERE v.id < 10")
            .unwrap(),
    );
    assert_eq!(n, 10);
    let n = affected(
        db.execute("DELETE FROM Vehicle v WHERE v.weight = 5")
            .unwrap(),
    );
    assert_eq!(
        n, 10,
        "the new weight key is indexed and selects the same rows"
    );
    assert_eq!(extent(&db, "Vehicle").len(), 2390);
    assert_indexes_agree(&db, Indexes::BTree, &all_oids(&db), "after autocommit DML");
}

#[test]
fn update_assigning_its_own_selection_key_touches_each_row_once() {
    let db = build(2400, Indexes::BTree);
    assert_eq!(
        affected(
            db.execute("UPDATE Vehicle v SET id = v.id + 100000 WHERE v.id < 50")
                .unwrap()
        ),
        50
    );
    // The classic Halloween shape: an index range scan whose updated rows
    // move *forward* inside the range being scanned. A streaming probe
    // would meet them again; the materialized target set cannot.
    let forward = "UPDATE Vehicle v SET id = v.id + 100000 WHERE v.id >= 102397";
    let plan = db.explain(forward).unwrap();
    assert!(plan.contains("INDSEL(Vehicle, v"), "{plan}");
    assert_eq!(
        affected(db.execute(forward).unwrap()),
        0,
        "nothing that high yet"
    );
    let forward = "UPDATE Vehicle v SET id = v.id + 100000 WHERE v.id >= 2397";
    let plan = db.explain(forward).unwrap();
    assert!(plan.contains("INDSEL(Vehicle, v"), "{plan}");
    assert_eq!(affected(db.execute(forward).unwrap()), 3 + 50);
    let ids: BTreeSet<i32> = extent(&db, "Vehicle")
        .values()
        .map(|v| int(v, "id"))
        .collect();
    let want: BTreeSet<i32> = (50..2397)
        .chain(102_397..102_400)
        .chain(200_000..200_050)
        .collect();
    assert_eq!(
        ids, want,
        "every selected row moved exactly once per statement"
    );
    assert_indexes_agree(
        &db,
        Indexes::BTree,
        &all_oids(&db),
        "after self-referencing UPDATEs",
    );
}

#[test]
fn multi_row_update_is_atomic_on_unique_violation() {
    let db = build(2400, Indexes::BTree);
    // Rows 0 and 1 move to 100000/100001 before row 2 collides with this.
    db.execute("new Vehicle <100002, 1, 'red'>").unwrap();
    let failing = "UPDATE Vehicle v SET id = v.id + 100000 WHERE v.id < 50";

    // Autocommit: the failed statement is its own (rolled-back) transaction.
    let before = extent(&db, "Vehicle");
    assert!(db.execute(failing).is_err());
    assert_eq!(
        extent(&db, "Vehicle"),
        before,
        "autocommit UPDATE left rows behind"
    );
    assert_indexes_agree(
        &db,
        Indexes::BTree,
        &all_oids(&db),
        "after failed autocommit UPDATE",
    );

    // In a transaction: the savepoint undoes just the failed statement.
    db.execute("BEGIN").unwrap();
    db.execute("UPDATE Vehicle v SET weight = 1 WHERE v.id = 7")
        .unwrap();
    let mid = extent(&db, "Vehicle");
    assert!(db.execute(failing).is_err());
    assert_eq!(extent(&db, "Vehicle"), mid, "savepoint left rows behind");
    db.execute("COMMIT").unwrap();
    assert_eq!(
        extent(&db, "Vehicle"),
        mid,
        "earlier statement survives the commit"
    );
    assert_ne!(mid, before);
    assert_indexes_agree(
        &db,
        Indexes::BTree,
        &all_oids(&db),
        "after failed in-transaction UPDATE",
    );
}

/// The target query's rows are join bindings, so one object can be bound
/// more than once: through a SET-valued reference (one binding per matching
/// member) or by two DNF terms that bind different variables. DML acts on —
/// and counts — each object once.
#[test]
fn target_bound_more_than_once_is_acted_on_once() {
    let db = build(48, Indexes::None);
    db.execute(
        "CREATE CLASS Fleet TUPLE (fid Integer, tag Integer, \
         cars SET (REFERENCE (Vehicle)), boss REFERENCE (Vehicle))",
    )
    .unwrap();
    let cat = db.catalog();
    let vehicles: Vec<Oid> = extent(&db, "Vehicle").into_keys().collect();
    // Fleet i holds vehicles i, i+4, i+8 — all of colour COLORS[i % 4] — so
    // fleets 0 and 4 bind three times under `f.cars.color = 'red'`.
    for i in 0..8usize {
        cat.new_object(
            "Fleet",
            Value::tuple(vec![
                ("fid", Value::Integer(i as i32)),
                ("tag", Value::Integer(i as i32)),
                (
                    "cars",
                    Value::Set(
                        [i, i + 4, i + 8]
                            .iter()
                            .map(|&j| Value::Ref(vehicles[j]))
                            .collect(),
                    ),
                ),
                ("boss", Value::Ref(vehicles[i])),
            ]),
        )
        .unwrap();
    }
    cat.create_index("Fleet", "tag", true).unwrap();
    db.collect_stats().unwrap();
    let tags = |db: &Mood| -> BTreeSet<i32> {
        extent(db, "Fleet")
            .values()
            .map(|v| int(v, "tag"))
            .collect()
    };

    // Set-valued path, assigning a unique-indexed key: a second apply from
    // the stale image would re-insert the new key and fail.
    let n = affected(
        db.execute("UPDATE Fleet f SET tag = f.tag + 100 WHERE f.cars.color = 'red'")
            .unwrap(),
    );
    assert_eq!(n, 2, "fleets 0 and 4, once each");
    assert_eq!(tags(&db), BTreeSet::from([100, 1, 2, 3, 104, 5, 6, 7]));
    for (old, new) in [(0, 100), (4, 104)] {
        let lookup = |k: i32| cat.index_lookup("Fleet", "tag", &Value::Integer(k)).unwrap();
        assert!(lookup(old).is_empty(), "old tag {old} still indexed");
        assert_eq!(lookup(new).len(), 1, "new tag {new} indexed once");
    }

    // Mixed-variable DNF: fleet 0 satisfies both terms.
    let overlapping = "f.fid < 2 OR f.boss.color = 'red'";
    let n = affected(
        db.execute(&format!(
            "UPDATE Fleet f SET tag = f.tag + 1000 WHERE {overlapping}"
        ))
        .unwrap(),
    );
    assert_eq!(n, 3, "fleets 0, 1 and 4");
    assert_eq!(tags(&db), BTreeSet::from([1100, 1001, 2, 3, 1104, 5, 6, 7]));
    let n = affected(
        db.execute(&format!("DELETE FROM Fleet f WHERE {overlapping}"))
            .unwrap(),
    );
    assert_eq!(n, 3);
    assert_eq!(tags(&db), BTreeSet::from([2, 3, 5, 6, 7]));
    assert_eq!(
        cat.index_range("Fleet", "tag", None, None).unwrap().len(),
        5,
        "one index entry per surviving fleet"
    );
}

/// DML shares the SELECT pipeline's first-use statistics collection: on a
/// database nobody has analysed, the first statement collects (one
/// catalog-epoch bump), later ones do not, and the rows are right either
/// way — statistics only choose the access path.
#[test]
fn first_dml_on_an_unanalysed_database_collects_stats_once() {
    let db = Mood::in_memory_with_pool(1024);
    db.execute("CREATE CLASS Vehicle TUPLE (id Integer, weight Integer)")
        .unwrap();
    let cat = db.catalog();
    for i in 0..6000 {
        cat.new_object(
            "Vehicle",
            Value::tuple(vec![
                ("id", Value::Integer(i)),
                ("weight", Value::Integer(700 + i % 90)),
            ]),
        )
        .unwrap();
    }
    db.execute("CREATE UNIQUE INDEX ON Vehicle(id)").unwrap();
    assert!(cat.stats().class("Vehicle").is_none());
    let epoch = cat.epoch();

    db.execute("BEGIN").unwrap();
    let update = "UPDATE Vehicle v SET weight = 1 WHERE v.id = 300";
    assert_eq!(affected(db.execute(update).unwrap()), 1);
    assert_eq!(
        cat.stats().class("Vehicle").map(|c| c.cardinality),
        Some(6000)
    );
    assert_eq!(cat.epoch(), epoch + 1, "collected once");
    assert_eq!(
        affected(
            db.execute("DELETE FROM Vehicle v WHERE v.id < 10")
                .unwrap()
        ),
        10
    );
    assert_eq!(cat.epoch(), epoch + 1, "not collected again");
    db.execute("ROLLBACK").unwrap();

    // The rollback undoes the rows, not the (approximate) statistics.
    assert_eq!(extent(&db, "Vehicle").len(), 6000);
    assert_eq!(cat.epoch(), epoch + 1);
    let plan = db.explain(update).unwrap();
    assert!(plan.contains("INDSEL(Vehicle, v"), "{plan}");
}

#[test]
fn stricter_binding_rejects_unknown_names_before_touching_rows() {
    let db = build(100, Indexes::None);
    let before = extent(&db, "Vehicle");
    assert!(db
        .execute("DELETE FROM Vehicle v WHERE v.nope = 1")
        .is_err());
    assert!(db.execute("UPDATE Vehicle v SET nope = 1").is_err());
    assert!(db
        .execute("UPDATE Vehicle v SET weight = 1 WHERE w.id = 1")
        .is_err());
    assert_eq!(extent(&db, "Vehicle"), before);
}

/// Logical page accesses (buffer hits + misses) of one statement.
fn accesses(db: &Mood, sql: &str) -> u64 {
    let before = db.metrics().snapshot();
    assert_eq!(affected(db.execute(sql).unwrap()), 1, "{sql}");
    let d = db.metrics().snapshot().delta(&before);
    d.buffer_hits + d.buffer_misses
}

#[test]
fn keyed_dml_page_accesses_grow_with_tree_height_not_extent_size() {
    let mut measured = Vec::new();
    for n in [2_000, 20_000] {
        let db = Mood::in_memory_with_pool(8192);
        db.execute("CREATE CLASS Vehicle TUPLE (id Integer, weight Integer, color String(16))")
            .unwrap();
        for i in 0..n {
            db.catalog()
                .new_object(
                    "Vehicle",
                    Value::tuple(vec![
                        ("id", Value::Integer(i)),
                        ("weight", Value::Integer(700 + i % 900)),
                        ("color", Value::string("red")),
                    ]),
                )
                .unwrap();
        }
        db.execute("CREATE UNIQUE INDEX ON Vehicle(id)").unwrap();
        let stats = db.collect_stats().unwrap();
        let levels = stats.index("Vehicle", "id").unwrap().levels as u64;
        let heap_pages = stats.class("Vehicle").unwrap().nbpages;
        let key = n / 2;
        let update = accesses(
            &db,
            &format!("UPDATE Vehicle v SET weight = 1 WHERE v.id = {key}"),
        );
        let delete = accesses(&db, &format!("DELETE FROM Vehicle v WHERE v.id = {key}"));
        measured.push((n, levels, heap_pages, update, delete));
    }
    let (_, l_small, _, u_small, d_small) = measured[0];
    let (_, l_big, pages_big, u_big, d_big) = measured[1];
    // An UPDATE descends the tree once (the probe); a DELETE twice (probe,
    // then entry removal). Ten times the objects may cost that many extra
    // levels and nothing else.
    assert!(
        u_big <= u_small + (l_big - l_small),
        "UPDATE accesses {u_small} -> {u_big} over levels {l_small} -> {l_big}"
    );
    assert!(
        d_big <= d_small + 2 * (l_big - l_small),
        "DELETE accesses {d_small} -> {d_big} over levels {l_small} -> {l_big}"
    );
    assert!(
        u_big < 16 && d_big < 24 && pages_big > 100,
        "{measured:?}: keyed DML must not walk the {pages_big}-page extent"
    );
}

#[test]
fn update_of_unindexed_attribute_dirties_only_the_heap() {
    let db = build(2400, Indexes::BTree);
    let cat = db.catalog();
    cat.drop_index("Vehicle", "weight").unwrap();
    db.collect_stats().unwrap();
    let heap_file = cat.class("Vehicle").unwrap().extent.unwrap();
    db.execute("BEGIN").unwrap();
    let n = affected(
        db.execute("UPDATE Vehicle v SET weight = 4242 WHERE v.id = 1234")
            .unwrap(),
    );
    assert_eq!(n, 1);
    let mut dirty = 0;
    db.storage()
        .pool()
        .txn_dirty_pages(|file, page, _, _| {
            dirty += 1;
            assert_eq!(
                file, heap_file,
                "an update that changes no indexed key dirtied {file:?}/{page:?}"
            );
        })
        .unwrap();
    assert!(dirty > 0);
    db.execute("ROLLBACK").unwrap();
}
