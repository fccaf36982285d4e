//! End-to-end integration on the paper's Vehicle schema (Section 3.1):
//! SQL in, correct objects out, with every query cross-checked against a
//! brute-force evaluation over the raw extents.

use mood_core::{Answer, Mood, OptimizerConfig, Value};

/// One generated vehicle: (id, weight, cylinders, transmission, company,
/// class).
type VehicleRow = (i32, i32, i32, String, String, String);

/// Build the paper's schema with a deterministic population.
fn build() -> (Mood, Vec<VehicleRow>) {
    let db = Mood::in_memory();
    db.set_optimizer_config(OptimizerConfig::paper());
    for ddl in [
        "CREATE CLASS VehicleEngine TUPLE (size Integer, cylinders Integer)",
        "CREATE CLASS VehicleDriveTrain TUPLE (engine REFERENCE (VehicleEngine), \
         transmission String(32))",
        "CREATE CLASS Company TUPLE (name String(32), location String(32))",
        "CREATE CLASS Vehicle TUPLE (id Integer, weight Integer, \
         drivetrain REFERENCE (VehicleDriveTrain), manufacturer REFERENCE (Company))",
        "CREATE CLASS Automobile INHERITS FROM Vehicle",
        "CREATE CLASS JapaneseAuto INHERITS FROM Automobile",
    ] {
        db.execute(ddl).unwrap();
    }
    let catalog = db.catalog();
    let companies = ["BMW", "Toyota", "Honda"];
    let mut company_oids = Vec::new();
    for c in companies {
        company_oids.push(
            catalog
                .new_object(
                    "Company",
                    Value::tuple(vec![
                        ("name", Value::string(c)),
                        ("location", Value::string("X")),
                    ]),
                )
                .unwrap(),
        );
    }
    let mut train_oids = Vec::new();
    let mut train_desc = Vec::new();
    for i in 0..12i32 {
        let cyl = 2 + (i % 4) * 2;
        let engine = catalog
            .new_object(
                "VehicleEngine",
                Value::tuple(vec![
                    ("size", Value::Integer(1000 + i * 100)),
                    ("cylinders", Value::Integer(cyl)),
                ]),
            )
            .unwrap();
        let trans = if i % 2 == 0 { "AUTOMATIC" } else { "MANUAL" };
        train_oids.push(
            catalog
                .new_object(
                    "VehicleDriveTrain",
                    Value::tuple(vec![
                        ("engine", Value::Ref(engine)),
                        ("transmission", Value::string(trans)),
                    ]),
                )
                .unwrap(),
        );
        train_desc.push((cyl, trans.to_string()));
    }
    let mut rows = Vec::new();
    for i in 0..60i32 {
        let class = match i % 3 {
            0 => "Vehicle",
            1 => "Automobile",
            _ => "JapaneseAuto",
        };
        let company_idx = if class == "JapaneseAuto" {
            1 + (i as usize % 2)
        } else {
            0
        };
        let ti = (i as usize * 5) % train_oids.len();
        let weight = 700 + (i % 15) * 80;
        catalog
            .new_object(
                class,
                Value::tuple(vec![
                    ("id", Value::Integer(i)),
                    ("weight", Value::Integer(weight)),
                    ("drivetrain", Value::Ref(train_oids[ti])),
                    ("manufacturer", Value::Ref(company_oids[company_idx])),
                ]),
            )
            .unwrap();
        rows.push((
            i,
            weight,
            train_desc[ti].0,
            train_desc[ti].1.clone(),
            companies[company_idx].to_string(),
            class.to_string(),
        ));
    }
    db.collect_stats().unwrap();
    (db, rows)
}

fn ids(answer: Answer) -> Vec<i32> {
    let Answer::Rows(r) = answer else {
        panic!("not rows")
    };
    let mut out: Vec<i32> = r
        .rows
        .iter()
        .map(|row| match &row[0] {
            Value::Integer(i) => *i,
            other => panic!("expected id, got {other}"),
        })
        .collect();
    out.sort();
    out
}

#[test]
fn immediate_selection_matches_bruteforce() {
    let (db, rows) = build();
    let got = ids(db
        .execute("SELECT v.id FROM EVERY Vehicle v WHERE v.weight > 1200")
        .unwrap());
    let mut want: Vec<i32> = rows.iter().filter(|r| r.1 > 1200).map(|r| r.0).collect();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn single_hop_path_matches_bruteforce() {
    let (db, rows) = build();
    let got = ids(db
        .execute("SELECT v.id FROM EVERY Vehicle v WHERE v.drivetrain.transmission = 'MANUAL'")
        .unwrap());
    let mut want: Vec<i32> = rows
        .iter()
        .filter(|r| r.3 == "MANUAL")
        .map(|r| r.0)
        .collect();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn two_hop_path_matches_bruteforce() {
    let (db, rows) = build();
    let got = ids(db
        .execute("SELECT v.id FROM EVERY Vehicle v WHERE v.drivetrain.engine.cylinders = 4")
        .unwrap());
    let mut want: Vec<i32> = rows.iter().filter(|r| r.2 == 4).map(|r| r.0).collect();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn example_8_1_shape_query_matches_bruteforce() {
    let (db, rows) = build();
    let got = ids(db
        .execute(
            "SELECT v.id FROM EVERY Vehicle v WHERE v.manufacturer.name = 'BMW' \
             AND v.drivetrain.engine.cylinders = 2",
        )
        .unwrap());
    let mut want: Vec<i32> = rows
        .iter()
        .filter(|r| r.4 == "BMW" && r.2 == 2)
        .map(|r| r.0)
        .collect();
    want.sort();
    assert_eq!(got, want);
    assert!(!got.is_empty(), "the workload must exercise the query");
}

#[test]
fn section_3_1_query_matches_bruteforce() {
    let (db, rows) = build();
    let got = ids(db
        .execute(
            "SELECT c.id FROM EVERY Automobile - JapaneseAuto c, VehicleEngine v \
             WHERE c.drivetrain.transmission = 'AUTOMATIC' AND \
             c.drivetrain.engine = v AND v.cylinders > 4",
        )
        .unwrap());
    let mut want: Vec<i32> = rows
        .iter()
        .filter(|r| r.5 == "Automobile" && r.3 == "AUTOMATIC" && r.2 > 4)
        .map(|r| r.0)
        .collect();
    want.sort();
    assert_eq!(got, want);
    assert!(!got.is_empty());
}

#[test]
fn every_vs_plain_extent() {
    let (db, rows) = build();
    let plain = ids(db.execute("SELECT v.id FROM Vehicle v").unwrap());
    let every = ids(db.execute("SELECT v.id FROM EVERY Vehicle v").unwrap());
    assert_eq!(
        plain.len(),
        rows.iter().filter(|r| r.5 == "Vehicle").count()
    );
    assert_eq!(every.len(), rows.len());
    let minus = ids(db
        .execute("SELECT v.id FROM EVERY Vehicle - JapaneseAuto v")
        .unwrap());
    assert_eq!(
        minus.len(),
        rows.iter().filter(|r| r.5 != "JapaneseAuto").count()
    );
}

#[test]
fn disjunction_and_negation_match_bruteforce() {
    let (db, rows) = build();
    let got = ids(db
        .execute(
            "SELECT v.id FROM EVERY Vehicle v WHERE \
             (v.weight < 800 OR v.weight > 1700) AND NOT v.drivetrain.engine.cylinders = 2",
        )
        .unwrap());
    let mut want: Vec<i32> = rows
        .iter()
        .filter(|r| (r.1 < 800 || r.1 > 1700) && r.2 != 2)
        .map(|r| r.0)
        .collect();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn plans_use_optimizer_join_methods() {
    let (db, _) = build();
    let plan = db
        .explain(
            "SELECT v FROM Vehicle v WHERE v.manufacturer.name = 'BMW' \
             AND v.drivetrain.engine.cylinders = 2",
        )
        .unwrap();
    // Two path expressions → the less selective one deferred behind a
    // temporary, each implicit join carrying one of the four §6 methods.
    // (At this 60-object scale the cost model correctly prefers scans —
    // the paper-scale plan shapes are pinned down in
    // tests/integration_paper_examples.rs with the Table 13–15 statistics.)
    assert!(plan.contains("T1 :"), "{plan}");
    assert!(plan.contains("PathSelInfo"), "{plan}");
    let joins = plan.matches("JOIN(").count();
    assert_eq!(joins, 3, "{plan}");
    for line in plan.lines().filter(|l| {
        l.contains("_TRAVERSAL") || l.contains("HASH_PARTITION") || l.contains("JOIN_INDEX")
    }) {
        assert!(line.contains(".self"), "join condition rendered: {line}");
    }
}

#[test]
fn index_changes_plan_not_answer() {
    let (db, _) = build();
    let q = "SELECT v.id FROM Vehicle v WHERE v.weight = 1020";
    let before = ids(db.execute(q).unwrap());
    db.execute("CREATE INDEX ON Vehicle(weight)").unwrap();
    db.collect_stats().unwrap();
    let after = ids(db.execute(q).unwrap());
    assert_eq!(before, after);
}

#[test]
fn aggregates_over_paths() {
    let (db, rows) = build();
    let Answer::Rows(r) = db
        .execute(
            "SELECT v.drivetrain.transmission, COUNT(*), AVG(v.weight) \
             FROM EVERY Vehicle v GROUP BY v.drivetrain.transmission \
             ORDER BY v.drivetrain.transmission",
        )
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(r.len(), 2);
    let auto_count = rows.iter().filter(|x| x.3 == "AUTOMATIC").count() as i32;
    assert_eq!(r.rows[0][0], Value::string("AUTOMATIC"));
    assert_eq!(r.rows[0][1], Value::Integer(auto_count));
    let auto_avg: f64 = rows
        .iter()
        .filter(|x| x.3 == "AUTOMATIC")
        .map(|x| x.1 as f64)
        .sum::<f64>()
        / auto_count as f64;
    let Value::Float(got_avg) = r.rows[0][2] else {
        panic!()
    };
    assert!((got_avg - auto_avg).abs() < 1e-9);
}

#[test]
fn order_by_descending_weight() {
    let (db, _) = build();
    let Answer::Rows(r) = db
        .execute("SELECT v.weight FROM EVERY Vehicle v ORDER BY v.weight DESC")
        .unwrap()
    else {
        panic!()
    };
    let weights: Vec<i32> = r
        .rows
        .iter()
        .map(|row| match &row[0] {
            Value::Integer(i) => *i,
            _ => panic!(),
        })
        .collect();
    let mut sorted = weights.clone();
    sorted.sort_by(|a, b| b.cmp(a));
    assert_eq!(weights, sorted);
}

#[test]
fn all_join_methods_give_same_answer() {
    // Force each join method through the algebra layer directly and check
    // agreement with the SQL answer.
    use mood_core::algebra::{bind_class, join, ExecutionConfig, JoinMethod, JoinRhs};
    let (db, rows) = build();
    let catalog = db.catalog();
    let sql_count = ids(db
        .execute("SELECT v.id FROM EVERY Vehicle v WHERE v.drivetrain.transmission = 'MANUAL'")
        .unwrap())
    .len();
    let left = bind_class(catalog, "Vehicle", true, &[]).unwrap();
    for method in [
        JoinMethod::ForwardTraversal,
        JoinMethod::BackwardTraversal,
        JoinMethod::HashPartition,
    ] {
        let pairs = join(
            catalog,
            &left,
            "drivetrain",
            JoinRhs::Class("VehicleDriveTrain"),
            method,
            ExecutionConfig::default(),
        )
        .unwrap();
        let manual = pairs
            .iter()
            .filter(|(_, d)| d.value.field("transmission") == Some(&Value::string("MANUAL")))
            .count();
        assert_eq!(manual, sql_count, "{method:?}");
    }
    let _ = rows;
}

#[test]
fn dynamic_schema_evolution_is_visible_to_queries() {
    let (db, _) = build();
    db.catalog()
        .add_attribute("Vehicle", "color", mood_core::TypeDescriptor::string())
        .unwrap();
    // Old objects read color as NULL → no rows match a color predicate.
    let got = ids(db
        .execute("SELECT v.id FROM EVERY Vehicle v WHERE v.color = 'red'")
        .unwrap());
    assert!(got.is_empty());
    // A new object with the attribute set is found.
    db.catalog()
        .new_object(
            "Vehicle",
            Value::tuple(vec![
                ("id", Value::Integer(999)),
                ("color", Value::string("red")),
            ]),
        )
        .unwrap();
    let got = ids(db
        .execute("SELECT v.id FROM EVERY Vehicle v WHERE v.color = 'red'")
        .unwrap());
    assert_eq!(got, vec![999]);
}

// ---------------------------------------------------------------------
// Path indexes (extension: the paper lists "path indices" among its access
// methods; built here as access-support relations, rebuild-on-demand)
// ---------------------------------------------------------------------

#[test]
fn path_index_answers_match_traversal() {
    let (db, rows) = build();
    let q = "SELECT v.id FROM EVERY Vehicle v WHERE v.drivetrain.engine.cylinders = 4";
    let before = ids(db.execute(q).unwrap());
    db.execute("CREATE INDEX ON Vehicle(drivetrain.engine.cylinders)")
        .unwrap();
    db.collect_stats().unwrap();
    // The optimizer now sees the path index; the plan may use it.
    let plan = db.explain(q).unwrap();
    assert!(
        plan.contains("PATH_INDEX") || plan.contains("JOIN("),
        "{plan}"
    );
    let after = ids(db.execute(q).unwrap());
    assert_eq!(before, after, "same answers with and without the index");
    let want: Vec<i32> = {
        let mut w: Vec<i32> = rows.iter().filter(|r| r.2 == 4).map(|r| r.0).collect();
        w.sort();
        w
    };
    assert_eq!(after, want);
}

#[test]
fn path_index_is_safe_when_stale_and_refreshes_on_rebuild() {
    let (db, _) = build();
    db.execute("CREATE INDEX ON Vehicle(drivetrain.engine.cylinders)")
        .unwrap();
    db.collect_stats().unwrap();
    let q = "SELECT v.id FROM EVERY Vehicle v WHERE v.drivetrain.engine.cylinders = 4";
    let before = ids(db.execute(q).unwrap());
    // A new vehicle pointing at a 4-cylinder drivetrain: the path index is
    // stale (rebuild-on-demand), so the indexed plan may miss it — but
    // answers must never contain *wrong* rows (re-verification), and after
    // a rebuild the new row must appear.
    let catalog = db.catalog();
    let trains = catalog.extent("VehicleDriveTrain").unwrap();
    // Find a drivetrain whose engine has 4 cylinders.
    let four_cyl = trains
        .iter()
        .find(|(_, v)| {
            let Some(Value::Ref(e)) = v.field("engine") else {
                return false;
            };
            let (_, ev) = catalog.get_object(*e).unwrap();
            ev.field("cylinders") == Some(&Value::Integer(4))
        })
        .map(|(oid, _)| *oid)
        .expect("a 4-cylinder drivetrain exists");
    catalog
        .new_object(
            "Vehicle",
            Value::tuple(vec![
                ("id", Value::Integer(777)),
                ("drivetrain", Value::Ref(four_cyl)),
            ]),
        )
        .unwrap();
    let stale = ids(db.execute(q).unwrap());
    for id in &stale {
        assert!(before.contains(id) || *id == 777, "no wrong rows ever");
    }
    let path: Vec<String> = ["drivetrain", "engine", "cylinders"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    catalog.rebuild_path_index("Vehicle", &path).unwrap();
    let fresh = ids(db.execute(q).unwrap());
    assert!(
        fresh.contains(&777),
        "rebuild picks up the new vehicle: {fresh:?}"
    );
}

#[test]
fn path_index_rejects_bad_paths() {
    let (db, _) = build();
    // Terminal must be atomic.
    assert!(db
        .execute("CREATE INDEX ON Vehicle(drivetrain.engine)")
        .is_err());
    // Hops must exist.
    assert!(db
        .execute("CREATE INDEX ON Vehicle(nope.engine.cylinders)")
        .is_err());
    // There is no hash index: `HASH` does not parse.
    assert!(db
        .execute("CREATE HASH INDEX ON Vehicle(drivetrain.engine.cylinders)")
        .is_err());
}

// ---------------------------------------------------------------------
// Index coverage vs. the FROM item's range: an attribute index covers its
// class's own extent, a path index the class and every subclass. Either
// way the answer must be the FROM item's extent, filtered.
// ---------------------------------------------------------------------

/// 2 000 objects in each of Vehicle / Automobile / JapaneseAuto carrying
/// the same ids, so every key has one instance per class — enough objects
/// that §8.1 picks the index whenever it is offered one.
fn build_hierarchy_with_shared_ids() -> Mood {
    let db = Mood::in_memory_with_pool(4096);
    db.set_optimizer_config(OptimizerConfig::paper());
    for ddl in [
        "CREATE CLASS Company TUPLE (name String(32), location String(32))",
        "CREATE CLASS Vehicle TUPLE (id Integer, weight Integer, \
         manufacturer REFERENCE (Company))",
        "CREATE CLASS Automobile INHERITS FROM Vehicle",
        "CREATE CLASS JapaneseAuto INHERITS FROM Automobile",
    ] {
        db.execute(ddl).unwrap();
    }
    let catalog = db.catalog();
    let companies: Vec<_> = (0..200)
        .map(|i| {
            catalog
                .new_object(
                    "Company",
                    Value::tuple(vec![
                        ("name", Value::string(format!("maker{i}"))),
                        ("location", Value::string(format!("city{i}"))),
                    ]),
                )
                .unwrap()
        })
        .collect();
    for class in ["Vehicle", "Automobile", "JapaneseAuto"] {
        for i in 0..2000i32 {
            catalog
                .new_object(
                    class,
                    Value::tuple(vec![
                        ("id", Value::Integer(i)),
                        ("weight", Value::Integer(700 + i % 900)),
                        ("manufacturer", Value::Ref(companies[i as usize % 200])),
                    ]),
                )
                .unwrap();
        }
    }
    db
}

fn count(db: &Mood, sql: &str) -> usize {
    match db.execute(sql).unwrap() {
        Answer::Rows(r) => r.len(),
        other => panic!("not rows: {other:?}"),
    }
}

#[test]
fn every_with_indexed_root_predicate_sees_subclass_instances() {
    let db = build_hierarchy_with_shared_ids();
    db.execute("CREATE INDEX ON Vehicle(id)").unwrap();
    db.collect_stats().unwrap();
    let catalog = db.catalog();
    // The own-extent query is offered the index and takes it …
    let own = db
        .explain("SELECT v FROM Vehicle v WHERE v.id = 1234")
        .unwrap();
    assert!(own.contains("INDSEL(Vehicle, v"), "{own}");
    // … the EVERY query is not: the index knows nothing of subclasses.
    let every = db
        .explain("SELECT v FROM EVERY Vehicle v WHERE v.id = 1234")
        .unwrap();
    assert!(!every.contains("INDSEL("), "{every}");
    for key in [0, 7, 1234, 1999, 2000] {
        let key_v = Value::Integer(key);
        let want = |minus: &[String]| {
            catalog
                .extent_every("Vehicle", minus)
                .unwrap()
                .iter()
                .filter(|(_, v)| v.field("id") == Some(&key_v))
                .count()
        };
        assert_eq!(
            count(
                &db,
                &format!("SELECT v FROM EVERY Vehicle v WHERE v.id = {key}")
            ),
            want(&[]),
            "EVERY Vehicle, id = {key}"
        );
        assert_eq!(
            count(
                &db,
                &format!("SELECT v FROM EVERY Vehicle - JapaneseAuto v WHERE v.id = {key}")
            ),
            want(&["JapaneseAuto".to_string()]),
            "EVERY Vehicle - JapaneseAuto, id = {key}"
        );
        assert_eq!(
            count(&db, &format!("SELECT v FROM Vehicle v WHERE v.id = {key}")),
            usize::from(key < 2000),
            "own extent, id = {key}"
        );
    }
    assert_eq!(
        count(&db, "SELECT v FROM EVERY Vehicle v WHERE v.id = 1234"),
        3
    );
}

#[test]
fn path_index_probe_respects_the_from_items_range() {
    let db = build_hierarchy_with_shared_ids();
    let q = |from: &str| format!("SELECT v FROM {from} v WHERE v.manufacturer.location = 'city42'");
    let froms = [
        ("Vehicle", 10),
        ("EVERY Vehicle", 30),
        ("EVERY Vehicle - JapaneseAuto", 20),
        ("EVERY Automobile", 20),
    ];
    for (from, want) in froms {
        assert_eq!(count(&db, &q(from)), want, "{from}, traversal plan");
    }
    db.execute("CREATE INDEX ON Vehicle(manufacturer.location)")
        .unwrap();
    db.collect_stats().unwrap();
    let plan = db.explain(&q("Vehicle")).unwrap();
    assert!(plan.contains("PATH_INDEX"), "{plan}");
    for (from, want) in froms {
        assert_eq!(count(&db, &q(from)), want, "{from}, path index available");
    }
}
