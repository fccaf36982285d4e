#![cfg(test)]
//! Unit tests of `cluster.rs`: a crate-root module, so the suite names
//! them `cluster_tests::…`.

use super::*;

/// Companies, vehicles referencing them in shuffled order, a garage
/// referencing vehicles.
fn clustered_fixture() -> (Catalog, Vec<Oid>, Vec<Oid>) {
    let sm = Arc::new(StorageManager::in_memory());
    let cat = Catalog::create(sm).unwrap();
    cat.define_class(
        ClassBuilder::class("Company")
            .attribute("name", TypeDescriptor::string()),
    )
    .unwrap();
    cat.define_class(
        ClassBuilder::class("Vehicle")
            .attribute("id", TypeDescriptor::integer())
            .attribute("manufacturer", TypeDescriptor::reference("Company")),
    )
    .unwrap();
    cat.define_class(
        ClassBuilder::class("Garage")
            .attribute("spot", TypeDescriptor::integer())
            .attribute("parked", TypeDescriptor::reference("Vehicle")),
    )
    .unwrap();
    let mut companies = Vec::new();
    for i in 0..40 {
        // Pad the payload so the Company extent spans several pages —
        // otherwise every chase lands on one page and locality is
        // trivially 1 regardless of layout.
        let name = format!("co{i:02}{}", "x".repeat(300));
        companies.push(
            cat.new_object("Company", Value::tuple(vec![("name", Value::string(name))]))
                .unwrap(),
        );
    }
    // Shuffled referencing order: vehicle i references company
    // (i * 17) % 40 — maximally disordered chases.
    let mut vehicles = Vec::new();
    for i in 0..40i32 {
        let target = companies[(i as usize * 17) % 40];
        vehicles.push(
            cat.new_object(
                "Vehicle",
                Value::tuple(vec![
                    ("id", Value::Integer(i)),
                    ("manufacturer", Value::Ref(target)),
                ]),
            )
            .unwrap(),
        );
    }
    for (i, v) in vehicles.iter().enumerate() {
        cat.new_object(
            "Garage",
            Value::tuple(vec![
                ("spot", Value::Integer(i as i32)),
                ("parked", Value::Ref(*v)),
            ]),
        )
        .unwrap();
    }
    (cat, companies, vehicles)
}

#[test]
fn cluster_reorders_extent_and_remaps_everything() {
    let (cat, companies, vehicles) = clustered_fixture();
    cat.create_index("Vehicle", "id", false).unwrap();
    // A reference-keyed index (a BJI): its keys name moved OIDs too.
    cat.create_index("Vehicle", "manufacturer", false).unwrap();
    cat.name_object("flagship", vehicles[7]);

    let before: Vec<(i32, String)> = cat
        .extent("Vehicle")
        .unwrap()
        .iter()
        .map(|(_, v)| {
            let id = match v.field("id").unwrap() {
                Value::Integer(i) => *i,
                _ => panic!(),
            };
            let mfr = v.field("manufacturer").unwrap().as_oid().unwrap();
            let (_, c) = cat.get_object(mfr).unwrap();
            (id, c.field("name").unwrap().to_string())
        })
        .collect();

    let report = cat.cluster_class("Vehicle", Some("manufacturer")).unwrap();
    assert_eq!(report.attr, "manufacturer");
    assert_eq!(report.moved, 40);
    assert!(
        report.factor > 0.9,
        "sorted chases should be near-perfectly local, got {}",
        report.factor
    );

    // Same objects, now ordered by manufacturer name (companies were
    // created in name order, so OID order == name order).
    let after: Vec<(i32, String)> = cat
        .extent("Vehicle")
        .unwrap()
        .iter()
        .map(|(_, v)| {
            let id = match v.field("id").unwrap() {
                Value::Integer(i) => *i,
                _ => panic!(),
            };
            let mfr = v.field("manufacturer").unwrap().as_oid().unwrap();
            let (_, c) = cat.get_object(mfr).unwrap();
            (id, c.field("name").unwrap().to_string())
        })
        .collect();
    let mut sorted = before.clone();
    sorted.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
    assert_eq!(after, sorted, "extent is in referencing-traversal order");

    // Old OIDs are dead; the garage's rewritten refs resolve.
    assert!(cat.get_object(vehicles[0]).is_err());
    for (_, g) in cat.extent("Garage").unwrap() {
        let parked = g.field("parked").unwrap().as_oid().unwrap();
        let (class, _) = cat.get_object(parked).unwrap();
        assert_eq!(class, "Vehicle");
    }

    // Indexes were rebuilt onto the new OIDs.
    let hits = cat
        .index_lookup("Vehicle", "id", &Value::Integer(7))
        .unwrap();
    assert_eq!(hits.len(), 1);
    let (_, v) = cat.get_object(hits[0]).unwrap();
    assert_eq!(v.field("id"), Some(&Value::Integer(7)));
    let hits = cat.index_lookup("Vehicle", "manufacturer", &Value::Ref(companies[0]));
    let (_, v) = cat.get_object(hits.unwrap()[0]).unwrap();
    assert_eq!(v.field("id"), Some(&Value::Integer(0)));

    // Named object follows its target.
    let flagship = cat.named_object("flagship").unwrap();
    let (_, v) = cat.get_object(flagship).unwrap();
    assert_eq!(v.field("id"), Some(&Value::Integer(7)));

    // Old files are only queued, not dropped, until reap.
    assert!(cat.pending_drop_count() > 0);
    cat.reap_pending_drops();
    assert_eq!(cat.pending_drop_count(), 0);

    // Catalog stats carry the factor; the metrics gauge is published.
    assert!(cat.stats().clustering("Vehicle", "manufacturer") > 0.9);
    let snap = cat.storage().registry().snapshot();
    assert_eq!(snap.cluster.passes, 1);
    assert_eq!(snap.cluster.moved_objects, 40);
    assert!(snap
        .cluster_factors
        .iter()
        .any(|(k, f)| k == "Vehicle.manufacturer" && *f > 0.9));
}

/// A record that does not decode fails `CLUSTER` like any other scan —
/// whether it sits in the extent being moved or in one that refers to
/// it — and nothing has been written by then.
#[test]
fn cluster_fails_on_an_undecodable_record_before_writing_anything() {
    for damaged_class in ["Vehicle", "Garage"] {
        let (cat, _companies, vehicles) = clustered_fixture();
        cat.create_index("Vehicle", "id", false).unwrap();
        let file = |class: &str| cat.class(class).unwrap().extent.unwrap();
        let mut record = cat.type_id(damaged_class).unwrap().to_le_bytes().to_vec();
        record.extend([200, 1, 2, 3]); // schema version 456: the class has no such version
        let bad = cat.storage().open_heap(file(damaged_class)).insert(&record).unwrap();
        let old_file = file("Vehicle");
        let index_file = cat.index("Vehicle", "id").unwrap().file;
        let epoch = cat.epoch();

        let err = cat.cluster_class("Vehicle", Some("manufacturer")).unwrap_err();
        assert!(
            matches!(&err, CatalogError::Corrupt(m) if m.contains(&bad.to_string())),
            "{damaged_class}: {err}"
        );
        // Same extent file, same index file, nothing queued for
        // dropping, no plan invalidated; every sound object is where
        // it was and the garage still points at it.
        assert_eq!(file("Vehicle"), old_file, "{damaged_class}");
        assert_eq!(cat.index("Vehicle", "id").unwrap().file, index_file);
        assert_eq!((cat.pending_drop_count(), cat.epoch()), (0, epoch));
        for (i, oid) in vehicles.iter().enumerate() {
            let (_, v) = cat.get_object(*oid).unwrap();
            assert_eq!(v.field("id"), Some(&Value::Integer(i as i32)));
            let hits = cat.index_lookup("Vehicle", "id", &Value::Integer(i as i32));
            assert_eq!(hits.unwrap(), vec![*oid]);
        }
        let heap = cat.storage().open_heap(file("Garage"));
        let (mut parked, mut reader) = (Vec::new(), cat.reader(&FieldSet::All));
        heap.scan_with(|oid, bytes| {
            if oid != bad {
                let (_, g) = reader.decode(oid, bytes).unwrap();
                parked.push(g.field("parked").unwrap().as_oid().unwrap());
            }
            true
        })
        .unwrap();
        assert_eq!(parked, vehicles, "{damaged_class}: references untouched");
    }
}

#[test]
fn cluster_defaults_to_first_reference_attribute() {
    let (cat, _, _) = clustered_fixture();
    let report = cat.cluster_class("Vehicle", None).unwrap();
    assert_eq!(report.attr, "manufacturer");
    assert!(cat.cluster_class("Company", None).is_err(), "no ref attr");
    assert!(cat
        .cluster_class("Vehicle", Some("id"))
        .is_err(), "BY must name a reference");
    assert!(cat.cluster_class("Nope", None).is_err());
}

/// The fixture's companies referenced twice: `origin` follows the Company
/// extent, `carrier` (declared second) is scattered.
fn two_edge_fixture() -> Catalog {
    let (cat, companies, _) = clustered_fixture();
    cat.define_class(
        ClassBuilder::class("Shipment")
            .attribute("origin", TypeDescriptor::reference("Company"))
            .attribute("carrier", TypeDescriptor::reference("Company")),
    )
    .unwrap();
    for i in 0..40 {
        let origin = Value::Ref(companies[i]);
        let carrier = Value::Ref(companies[i * 17 % 40]);
        let fields = vec![("origin", origin), ("carrier", carrier)];
        cat.new_object("Shipment", Value::tuple(fields)).unwrap();
    }
    cat
}

#[test]
fn cluster_without_by_picks_the_most_disordered_measured_edge() {
    let cat = two_edge_fixture();
    let stats = cat.collect_stats().unwrap();
    assert!(stats.clustering("Shipment", "origin") > 0.9);
    assert!(stats.clustering("Shipment", "carrier") < 0.5);
    let report = cat.cluster_class("Shipment", None).unwrap();
    assert_eq!(report.attr, "carrier");
    assert!(cat.stats().clustering("Shipment", "carrier") > 0.9);
    // Ordering by carrier scattered origin; once measured, it is next.
    let stats = cat.collect_stats().unwrap();
    assert!(stats.clustering("Shipment", "origin") < 0.5);
    assert_eq!(cat.cluster_class("Shipment", None).unwrap().attr, "origin");
}

#[test]
fn collect_stats_measures_clustering_factor() {
    let (cat, _, _) = clustered_fixture();
    let stats = cat.collect_stats().unwrap();
    let shuffled = stats.clustering("Vehicle", "manufacturer");
    assert!(
        shuffled < 0.5,
        "shuffled refs should read disordered, got {shuffled}"
    );
    // Garage was filled in vehicle order: perfectly local already.
    assert!(stats.clustering("Garage", "parked") > 0.9);
    cat.cluster_class("Vehicle", Some("manufacturer")).unwrap();
    let stats = cat.collect_stats().unwrap();
    assert!(
        stats.clustering("Vehicle", "manufacturer") > 0.9,
        "clustered extent should measure local"
    );
}

#[test]
fn cluster_survives_empty_and_self_referencing_extents() {
    let sm = Arc::new(StorageManager::in_memory());
    let cat = Catalog::create(sm).unwrap();
    cat.define_class(
        ClassBuilder::class("Emp")
            .attribute("id", TypeDescriptor::integer())
            .attribute("boss", TypeDescriptor::reference("Emp")),
    )
    .unwrap();
    // Empty extent: trivial pass.
    let report = cat.cluster_class("Emp", Some("boss")).unwrap();
    assert_eq!(report.moved, 0);
    // Self-referencing chain: e0 <- e1 <- e2 ... each boss is the
    // previously created employee.
    let mut prev: Option<Oid> = None;
    let mut all = Vec::new();
    for i in 0..10i32 {
        let boss = prev.map(Value::Ref).unwrap_or(Value::Null);
        let o = cat
            .new_object(
                "Emp",
                Value::tuple(vec![("id", Value::Integer(i)), ("boss", boss)]),
            )
            .unwrap();
        prev = Some(o);
        all.push(o);
    }
    let report = cat.cluster_class("Emp", Some("boss")).unwrap();
    assert_eq!(report.moved, 10);
    // Every boss reference still resolves to the right employee.
    for (_, v) in cat.extent("Emp").unwrap() {
        if let Some(Value::Ref(b)) = v.field("boss") {
            let (_, boss) = cat.get_object(*b).unwrap();
            let my_id = match v.field("id").unwrap() {
                Value::Integer(i) => *i,
                _ => panic!(),
            };
            assert_eq!(boss.field("id"), Some(&Value::Integer(my_id - 1)));
        }
    }
}
