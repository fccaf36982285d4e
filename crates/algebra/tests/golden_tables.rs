//! Golden tests pinning the MOOD Algebra return-type rules of Tables 1–7
//! (Section 4 of the paper). Every cell of every table is asserted both
//! against the pure rule functions in `collection.rs` and — where the
//! operator is implemented over real collections — against the operator's
//! observed behavior. A change to any table cell fails here first.

use std::sync::Arc;

use mood_algebra::{
    as_extent_return, as_set_list_elements, difference, dup_elim, dupelim_return, intersection,
    join, join_return, select, select_return, setop_return, union, unnest, unnest_accepts,
    AlgebraError, Collection, ExecutionConfig, JoinMethod, JoinRhs, Kind, Obj,
};
use mood_catalog::{Catalog, ClassBuilder};
use mood_datamodel::{TypeDescriptor, Value};
use mood_storage::{Oid, StorageManager};

const ALL_KINDS: [Kind; 4] = [Kind::Extent, Kind::Set, Kind::List, Kind::NamedObject];

fn fixture() -> (Arc<Catalog>, Vec<Oid>, Vec<Oid>) {
    let sm = Arc::new(StorageManager::in_memory());
    let cat = Arc::new(Catalog::create(sm).unwrap());
    cat.define_class(ClassBuilder::class("D").attribute("id", TypeDescriptor::integer()))
        .unwrap();
    cat.define_class(
        ClassBuilder::class("C")
            .attribute("id", TypeDescriptor::integer())
            .attribute("d", TypeDescriptor::reference("D")),
    )
    .unwrap();
    cat.create_index("C", "d", false).unwrap();
    let d_oids: Vec<Oid> = (0..3)
        .map(|i| {
            cat.new_object("D", Value::tuple(vec![("id", Value::Integer(i))]))
                .unwrap()
        })
        .collect();
    let c_oids: Vec<Oid> = (0..6)
        .map(|i| {
            cat.new_object(
                "C",
                Value::tuple(vec![
                    ("id", Value::Integer(i)),
                    ("d", Value::Ref(d_oids[i as usize % 3])),
                ]),
            )
            .unwrap()
        })
        .collect();
    (cat, c_oids, d_oids)
}

fn extent_of(cat: &Catalog, oids: &[Oid]) -> Collection {
    Collection::Extent(
        oids.iter()
            .map(|&oid| {
                let (_, v) = cat.get_object(oid).unwrap();
                Obj::stored(oid, v)
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------
// Table 1 — Select returns its argument's kind.
// ---------------------------------------------------------------------

#[test]
fn table_1_select_return_rule() {
    for kind in ALL_KINDS {
        assert_eq!(select_return(kind), kind, "Table 1 row {kind}");
    }
}

#[test]
fn table_1_select_behavior_matches_rule() {
    let (cat, c_oids, _) = fixture();
    let inputs = [
        extent_of(&cat, &c_oids),
        Collection::set_from(c_oids.clone()),
        Collection::List(c_oids.clone()),
    ];
    for arg in &inputs {
        let out = select(&cat, arg, &|_| Ok(true)).unwrap();
        assert_eq!(
            out.kind(),
            arg.kind(),
            "Select({}) must return its argument kind",
            arg.kind().unwrap()
        );
    }
}

// ---------------------------------------------------------------------
// Table 2 — Join: the "widest" argument wins (Extent > Set > List >
// NamedObject). The full 4×4 grid, cell by cell.
// ---------------------------------------------------------------------

#[test]
fn table_2_join_return_grid() {
    use Kind::*;
    let grid: [(Kind, Kind, Kind); 16] = [
        (Extent, Extent, Extent),
        (Extent, Set, Extent),
        (Extent, List, Extent),
        (Extent, NamedObject, Extent),
        (Set, Extent, Extent),
        (Set, Set, Set),
        (Set, List, Set),
        (Set, NamedObject, Set),
        (List, Extent, Extent),
        (List, Set, Set),
        (List, List, List),
        (List, NamedObject, List),
        (NamedObject, Extent, Extent),
        (NamedObject, Set, Set),
        (NamedObject, List, List),
        (NamedObject, NamedObject, NamedObject),
    ];
    for (a, b, want) in grid {
        assert_eq!(join_return(a, b), want, "Table 2 cell ({a}, {b})");
    }
}

#[test]
fn table_2_join_pairs_one_per_reference() {
    let exec = ExecutionConfig::default();
    let (cat, c_oids, _) = fixture();
    let left = extent_of(&cat, &c_oids);
    for method in JoinMethod::ALL {
        let pairs = join(&cat, &left, "d", JoinRhs::Class("D"), method, exec).unwrap();
        assert_eq!(pairs.len(), c_oids.len(), "{method:?}: one pair per C");
    }
}

// ---------------------------------------------------------------------
// Table 3 — DupElim: Set not applicable; List → ordered distinct OIDs;
// Extent → distinct by deep equality.
// ---------------------------------------------------------------------

#[test]
fn table_3_dupelim_rule() {
    assert_eq!(dupelim_return(Kind::Set), None, "Table 3: Set n/a");
    assert_eq!(dupelim_return(Kind::NamedObject), None);
    assert_eq!(
        dupelim_return(Kind::List),
        Some("list of ordered distinct object identifiers")
    );
    assert_eq!(
        dupelim_return(Kind::Extent),
        Some("Extent of the distinct object according to the deep equality check")
    );
}

#[test]
fn table_3_dupelim_behavior_matches_rule() {
    let (cat, c_oids, _) = fixture();
    // Set and named object: not applicable.
    assert!(dup_elim(&cat, &Collection::set_from(c_oids.clone())).is_err());
    let (_, value) = cat.get_object(c_oids[0]).unwrap();
    let named = Collection::NamedObject(Obj::stored(c_oids[0], value));
    assert!(matches!(
        dup_elim(&cat, &named),
        Err(AlgebraError::NotApplicable { .. })
    ));
    // List: ordered distinct OIDs.
    let dupes = vec![c_oids[2], c_oids[0], c_oids[2], c_oids[1], c_oids[0]];
    let out = dup_elim(&cat, &Collection::List(dupes)).unwrap();
    let mut want = vec![c_oids[0], c_oids[1], c_oids[2]];
    want.sort();
    assert_eq!(out, Collection::List(want));
    // Extent: deep equality collapses distinct objects with equal state.
    let twice = [&c_oids[..], &c_oids[..]].concat();
    let out = dup_elim(&cat, &extent_of(&cat, &twice)).unwrap();
    assert_eq!(out.kind(), Some(Kind::Extent));
    assert_eq!(out.len(), c_oids.len(), "duplicate OIDs collapse");
}

// ---------------------------------------------------------------------
// Table 4 — set operators take sets/lists; list op list stays a list.
// ---------------------------------------------------------------------

#[test]
fn table_4_setop_return_grid() {
    use Kind::*;
    for (a, b, want) in [
        (Set, Set, Some(Set)),
        (Set, List, Some(Set)),
        (List, Set, Some(Set)),
        (List, List, Some(List)),
    ] {
        assert_eq!(setop_return(a, b), want, "Table 4 cell ({a}, {b})");
    }
    // Extents and named objects are not set-operator arguments.
    for k in ALL_KINDS {
        assert_eq!(setop_return(Extent, k), None);
        assert_eq!(setop_return(k, NamedObject), None);
    }
}

#[test]
fn table_4_setop_behavior_matches_rule() {
    let (_cat, c_oids, _) = fixture();
    let s = Collection::set_from(c_oids[..4].to_vec());
    let l = Collection::List(c_oids[2..].to_vec());
    for op in [union, intersection, difference] {
        assert_eq!(op(&s, &s).unwrap().kind(), Some(Kind::Set), "Set op Set");
        assert_eq!(op(&s, &l).unwrap().kind(), Some(Kind::Set), "Set op List");
        assert_eq!(op(&l, &s).unwrap().kind(), Some(Kind::Set), "List op Set");
    }
    // List ∪ List is concatenation (array semantics), staying a list.
    let u = union(&l, &l).unwrap();
    assert_eq!(u.kind(), Some(Kind::List));
    assert_eq!(u.len(), 2 * l.len(), "list union concatenates");
}

// ---------------------------------------------------------------------
// Tables 5 and 6 — asSet/asList element descriptions and asExtent.
// ---------------------------------------------------------------------

#[test]
fn table_5_as_set_list_elements() {
    assert_eq!(
        as_set_list_elements(Kind::Extent),
        "Object identifiers of the objects in the extent arg"
    );
    assert_eq!(
        as_set_list_elements(Kind::Set),
        "Object identifiers of the set arg"
    );
    assert_eq!(
        as_set_list_elements(Kind::List),
        "Object identifiers of the list arg"
    );
    assert_eq!(
        as_set_list_elements(Kind::NamedObject),
        "Object identifiers of the named object"
    );
}

#[test]
fn table_6_as_extent_return() {
    let want = "extent of dereferenced objects of the elements of the collection";
    assert_eq!(as_extent_return(Kind::Set), Some(want));
    assert_eq!(as_extent_return(Kind::List), Some(want));
    assert_eq!(as_extent_return(Kind::Extent), None, "already an extent");
    assert_eq!(as_extent_return(Kind::NamedObject), None);
}

// ---------------------------------------------------------------------
// Table 7 — Unnest accepts every collection kind and returns an Extent.
// ---------------------------------------------------------------------

#[test]
fn table_7_unnest_rule_and_behavior() {
    for kind in ALL_KINDS {
        assert!(unnest_accepts(kind), "Table 7 row {kind}");
    }
    let (cat, _, _) = fixture();
    let nested = Collection::Extent(vec![Obj::transient(Value::tuple(vec![
        ("head", Value::Integer(1)),
        (
            "tail",
            Value::Set(vec![Value::Integer(10), Value::Integer(20)]),
        ),
    ]))]);
    let flat = unnest(&cat, &nested, "tail").unwrap();
    assert_eq!(flat.kind(), Some(Kind::Extent), "Unnest returns an Extent");
    assert_eq!(flat.len(), 2);
}
