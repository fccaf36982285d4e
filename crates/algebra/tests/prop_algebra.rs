//! Property tests for the algebra's laws: set operators form a Boolean
//! algebra over OID sets, Sort orders without losing elements, DupElim is
//! idempotent and a spilled sort equals an in-memory one, Nest inverts
//! Unnest, and the four join methods agree with each other and with a model
//! on randomized databases at every probe batch size.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use mood_algebra::{
    difference, dup_elim, intersection, join, join_pairs, members_by_oid, nest, sort, union,
    unnest, Collection, ExecutionConfig, JoinMethod, JoinRhs, JoinRight, LeftObj, Obj,
};
use mood_catalog::{Catalog, ClassBuilder};
use mood_datamodel::{FieldSet, TypeDescriptor, Value};
use mood_storage::{Oid, StorageManager};

fn catalog_with_items(n: usize) -> (Arc<Catalog>, Vec<Oid>) {
    let sm = Arc::new(StorageManager::in_memory());
    let cat = Arc::new(Catalog::create(sm).unwrap());
    cat.define_class(
        ClassBuilder::class("Item")
            .attribute("k", TypeDescriptor::integer())
            .attribute("grp", TypeDescriptor::integer()),
    )
    .unwrap();
    let oids = (0..n)
        .map(|i| {
            cat.new_object(
                "Item",
                Value::tuple(vec![
                    ("k", Value::Integer(i as i32)),
                    ("grp", Value::Integer((i % 3) as i32)),
                ]),
            )
            .unwrap()
        })
        .collect();
    (cat, oids)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn set_operators_match_hashset_semantics(
        xs in proptest::collection::vec(0usize..20, 0..15),
        ys in proptest::collection::vec(0usize..20, 0..15),
    ) {
        let (_cat, oids) = catalog_with_items(20);
        let a = Collection::set_from(xs.iter().map(|&i| oids[i]).collect());
        let b = Collection::set_from(ys.iter().map(|&i| oids[i]).collect());
        let sa: HashSet<Oid> = a.oids().into_iter().collect();
        let sb: HashSet<Oid> = b.oids().into_iter().collect();

        let u: HashSet<Oid> = union(&a, &b).unwrap().oids().into_iter().collect();
        prop_assert_eq!(&u, &sa.union(&sb).copied().collect::<HashSet<_>>());

        let i: HashSet<Oid> = intersection(&a, &b).unwrap().oids().into_iter().collect();
        prop_assert_eq!(&i, &sa.intersection(&sb).copied().collect::<HashSet<_>>());

        let d: HashSet<Oid> = difference(&a, &b).unwrap().oids().into_iter().collect();
        prop_assert_eq!(&d, &sa.difference(&sb).copied().collect::<HashSet<_>>());

        // De Morgan-ish sanity: |A∪B| = |A| + |B| − |A∩B|.
        prop_assert_eq!(u.len(), sa.len() + sb.len() - i.len());
    }

    #[test]
    fn sort_is_a_permutation_in_key_order(perm in proptest::collection::vec(0usize..30, 1..30)) {
        let (cat, oids) = catalog_with_items(30);
        let extent = Collection::Extent(
            perm.iter()
                .map(|&i| {
                    let (_, v) = cat.get_object(oids[i]).unwrap();
                    Obj::stored(oids[i], v)
                })
                .collect(),
        );
        let mut want: Vec<i32> = perm.iter().map(|&i| i as i32).collect();
        want.sort();
        // In memory, and spilled in runs of two merged back.
        let exec = ExecutionConfig::default();
        for exec in [exec, exec.with_sort_budget(2)] {
            let sorted = sort(&cat, &extent, &["k"], exec).unwrap();
            let Collection::Extent(objs) = &sorted else { panic!() };
            prop_assert_eq!(objs.len(), perm.len(), "no elements lost");
            let keys: Vec<i32> = objs
                .iter()
                .map(|o| match o.value.field("k") {
                    Some(Value::Integer(i)) => *i,
                    _ => unreachable!(),
                })
                .collect();
            prop_assert_eq!(&keys, &want, "{:?}", exec);
        }
    }

    #[test]
    fn dup_elim_is_idempotent_on_lists(items in proptest::collection::vec(0usize..10, 0..25)) {
        let (cat, oids) = catalog_with_items(10);
        let list = Collection::List(items.iter().map(|&i| oids[i]).collect());
        let once = dup_elim(&cat, &list).unwrap();
        let twice = dup_elim(&cat, &once).unwrap();
        prop_assert_eq!(&once, &twice);
        // Distinct count matches the model.
        let distinct: HashSet<usize> = items.into_iter().collect();
        prop_assert_eq!(once.len(), distinct.len());
    }

    #[test]
    fn unnest_then_nest_roundtrips(groups in proptest::collection::vec(
        (0i32..100, proptest::collection::hash_set(0u8..200, 1..6)),
        1..6,
    )) {
        // Build tuples <head, tail: Set> with unique heads and non-empty,
        // disjoint-ish tails.
        let (cat, _) = catalog_with_items(1);
        let mut heads = HashSet::new();
        let flat_input: Vec<Obj> = groups
            .iter()
            .filter(|(h, _)| heads.insert(*h))
            .map(|(h, tail)| {
                Obj::transient(Value::tuple(vec![
                    ("head", Value::Integer(*h)),
                    (
                        "tail",
                        Value::Set(tail.iter().map(|&t| Value::Integer(t as i32)).collect()),
                    ),
                ]))
            })
            .collect();
        let n_groups = flat_input.len();
        let total: usize = flat_input
            .iter()
            .map(|o| match o.value.field("tail") {
                Some(Value::Set(s)) => s.len(),
                _ => 0,
            })
            .sum();
        let nested_in = Collection::Extent(flat_input);
        let flat = unnest(&cat, &nested_in, "tail").unwrap();
        prop_assert_eq!(flat.len(), total, "one row per tail element");
        let back = nest(&cat, &flat, "tail").unwrap();
        prop_assert_eq!(back.len(), n_groups, "nest regroups by head");
        // Each regrouped tail matches the original as a set.
        let Collection::Extent(back_objs) = &back else { panic!() };
        let Collection::Extent(orig_objs) = &nested_in else { panic!() };
        for orig in orig_objs {
            let head = orig.value.field("head").unwrap();
            let orig_tail = orig.value.field("tail").unwrap();
            let found = back_objs
                .iter()
                .find(|o| o.value.field("head").unwrap().equals(head))
                .expect("head survives");
            prop_assert!(found.value.field("tail").unwrap().equals(orig_tail));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn join_methods_agree_on_random_databases(
        n_d in 1usize..12,
        refs in proptest::collection::vec(0usize..12, 1..40),
    ) {
        let sm = Arc::new(StorageManager::in_memory());
        let cat = Arc::new(Catalog::create(sm).unwrap());
        cat.define_class(
            ClassBuilder::class("D").attribute("id", TypeDescriptor::integer()),
        )
        .unwrap();
        cat.define_class(
            ClassBuilder::class("C")
                .attribute("id", TypeDescriptor::integer())
                .attribute("d", TypeDescriptor::reference("D")),
        )
        .unwrap();
        cat.create_index("C", "d", false).unwrap();
        let d_oids: Vec<Oid> = (0..n_d)
            .map(|i| {
                cat.new_object("D", Value::tuple(vec![("id", Value::Integer(i as i32))]))
                    .unwrap()
            })
            .collect();
        for (i, &r) in refs.iter().enumerate() {
            cat.new_object(
                "C",
                Value::tuple(vec![
                    ("id", Value::Integer(i as i32)),
                    ("d", Value::Ref(d_oids[r % n_d])),
                ]),
            )
            .unwrap();
        }
        let left = mood_algebra::bind_class(&cat, "C", false, &[]).unwrap();
        let mut outcomes: Vec<Vec<(Oid, Oid)>> = Vec::new();
        for method in JoinMethod::ALL {
            let mut pairs: Vec<(Oid, Oid)> =
                join(&cat, &left, "d", JoinRhs::Class("D"), method, ExecutionConfig::default())
                    .unwrap()
                    .into_iter()
                    .map(|(l, r)| (l.oid.unwrap(), r.oid.unwrap()))
                    .collect();
            pairs.sort();
            outcomes.push(pairs);
        }
        for w in outcomes.windows(2) {
            prop_assert_eq!(&w[0], &w[1], "join methods disagree");
        }
        prop_assert_eq!(outcomes[0].len(), refs.len(), "every C joins exactly once");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn sort_in_runs_of_two_equals_one_run(perm in proptest::collection::vec(0usize..30, 0..60)) {
        let (cat, oids) = catalog_with_items(30);
        // Duplicates in `perm` exercise the stability tiebreak: `grp` has
        // only three distinct values, so equal-key runs are long.
        let extent = Collection::Extent(
            perm.iter()
                .map(|&i| {
                    let (_, v) = cat.get_object(oids[i]).unwrap();
                    Obj::stored(oids[i], v)
                })
                .collect(),
        );
        for keys in [&["k"][..], &["grp"][..], &["grp", "k"][..]] {
            let exec = ExecutionConfig::default();
            let one = sort(&cat, &extent, keys, exec).unwrap();
            let spilled = sort(&cat, &extent, keys, exec.with_sort_budget(2)).unwrap();
            prop_assert_eq!(&spilled, &one, "sort {:?} in runs of two", keys);
        }
    }
}

// ----------------------------------------------------------------------
// The one join implementation against a model: every method × right side
// (class, filtered class, materialized members) × probe batch size ×
// Reference/Set/List attribute, with a dangling and a foreign-class target
// among the references.
// ----------------------------------------------------------------------

/// Which D objects a right side admits, by their position in creation order.
#[derive(Debug, Clone, Copy)]
enum Side {
    Class,
    /// Even positions only, through the caller's filter.
    Filtered,
    /// Positions not divisible by 3, materialized up front.
    Members,
}

/// The references a stored value holds in `attr`, flattened.
fn stored_targets(value: &Value, attr: &str) -> Vec<Oid> {
    match value.field(attr) {
        Some(Value::Ref(oid)) => vec![*oid],
        Some(Value::Set(items) | Value::List(items)) => {
            items.iter().filter_map(Value::as_oid).collect()
        }
        _ => Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn join_methods_match_the_model_at_every_batch_size(
        n_d in 1usize..10,
        items in proptest::collection::vec(proptest::collection::vec(0usize..12, 0..4), 1..30),
    ) {
        let sm = Arc::new(StorageManager::in_memory());
        let cat = Arc::new(Catalog::create(sm).unwrap());
        for class in ["D", "E"] {
            let id = ClassBuilder::class(class).attribute("id", TypeDescriptor::integer());
            cat.define_class(id).unwrap();
        }
        // A subclass: a `D` right side admits its objects too.
        cat.define_class(ClassBuilder::class("DSub").inherits("D")).unwrap();
        let d_ref = || TypeDescriptor::reference("D");
        cat.define_class(
            ClassBuilder::class("C")
                .attribute("id", TypeDescriptor::integer())
                .attribute("d", d_ref())
                .attribute("ds", TypeDescriptor::set_of(d_ref()))
                .attribute("dl", TypeDescriptor::list_of(d_ref())),
        )
        .unwrap();
        cat.create_index("C", "d", false).unwrap();
        let new = |class: &str, i: usize| {
            cat.new_object(class, Value::tuple(vec![("id", Value::Integer(i as i32))]))
                .unwrap()
        };
        // Every third D target is a `DSub`.
        let d_oids: Vec<Oid> =
            (0..n_d).map(|i| new(if i % 3 == 2 { "DSub" } else { "D" }, i)).collect();
        let d_classes = cat.every_classes("D", &[]);
        let d_files = cat.extent_files(&d_classes);
        let dangling = new("D", n_d);
        cat.delete_object(dangling).unwrap();
        let foreign = new("E", 0);
        // Reference 10 is the deleted D, 11 the E; the rest wrap onto D.
        let target = |r: usize| match r {
            10 => dangling,
            11 => foreign,
            r => d_oids[r % n_d],
        };
        for (i, refs) in items.iter().enumerate() {
            let list: Vec<Value> = refs.iter().map(|&r| Value::Ref(target(r))).collect();
            let mut set: Vec<Value> = Vec::new();
            for v in &list {
                if !set.contains(v) {
                    set.push(v.clone());
                }
            }
            let d = list.first().cloned().unwrap_or(Value::Null);
            let fields = vec![
                ("id", Value::Integer(i as i32)),
                ("d", d),
                ("ds", Value::Set(set)),
                ("dl", Value::List(list)),
            ];
            cat.new_object("C", Value::tuple(fields)).unwrap();
        }
        let Collection::Extent(objs) = mood_algebra::bind_class(&cat, "C", false, &[]).unwrap()
        else {
            panic!("a class binds an extent")
        };
        let left: Vec<LeftObj<'_>> = objs.iter().map(|o| (o.oid, &o.value)).collect();
        let position = |oid: Oid| d_oids.iter().position(|&d| d == oid);
        let all = FieldSet::All;
        let metrics = cat.storage().metrics();
        for attr in ["d", "ds", "dl"] {
            for side in [Side::Class, Side::Filtered, Side::Members] {
                let admits = |oid: Oid| match (side, position(oid)) {
                    (_, None) => false,
                    (Side::Class, Some(_)) => true,
                    (Side::Filtered, Some(p)) => p % 2 == 0,
                    (Side::Members, Some(p)) => p % 3 != 0,
                };
                // The model: left order and reference order for the
                // traversals; by left OID, then target OID, for the others.
                let mut in_left_order: Vec<(Oid, Oid)> = Vec::new();
                let mut by_oid: Vec<(Oid, Oid)> = Vec::new();
                for o in &objs {
                    let l = o.oid.unwrap();
                    let mut targets = stored_targets(&o.value, attr);
                    targets.retain(|&t| admits(t));
                    in_left_order.extend(targets.iter().map(|&t| (l, t)));
                    targets.sort();
                    by_oid.extend(targets.into_iter().map(|t| (l, t)));
                }
                by_oid.sort_by_key(|&(l, _)| l);
                let mut hash_pages = Vec::new();
                for method in JoinMethod::ALL {
                    // A binary join index exists on the Reference attribute
                    // only: the catalog indexes no collection attribute.
                    if method == JoinMethod::BinaryJoinIndex && attr != "d" {
                        continue;
                    }
                    let want = match method {
                        JoinMethod::ForwardTraversal | JoinMethod::BackwardTraversal => {
                            &in_left_order
                        }
                        JoinMethod::BinaryJoinIndex | JoinMethod::HashPartition => &by_oid,
                    };
                    for batch in [1usize, 7, 1024] {
                        let right = match side {
                            Side::Members => {
                                let members = d_oids.iter().copied().filter(|&d| admits(d));
                                JoinRight::Members(members_by_oid(members, |&d| Some(d)))
                            }
                            _ => JoinRight::Class {
                                classes: &d_classes,
                                files: &d_files,
                                fields: &all,
                            },
                        };
                        // The filtered side decides on a fresh catalog fetch:
                        // a bind run while a page is pinned would re-enter
                        // the pool.
                        let mut bind = |oid: Oid, _: Value| -> mood_algebra::Result<Option<Oid>> {
                            if let Side::Filtered = side {
                                let (_, value) = cat.get_object(oid)?;
                                let even = matches!(value.field("id"), Some(Value::Integer(i)) if i % 2 == 0);
                                return Ok(even.then_some(oid));
                            }
                            Ok(admits(oid).then_some(oid))
                        };
                        let mut got: Vec<(Oid, Oid)> = Vec::new();
                        let mut emit = |pairs: &mut Vec<(usize, Oid)>| -> mood_algebra::Result<()> {
                            got.extend(pairs.drain(..).map(|(i, r)| (objs[i].oid.unwrap(), r)));
                            Ok(())
                        };
                        let before = metrics.snapshot();
                        join_pairs(&cat, &left, attr, right, method, batch, &mut bind, &mut emit)
                            .unwrap();
                        let delta = metrics.snapshot().delta(&before);
                        prop_assert_eq!(
                            &got, want, "{:?} over {} ({:?}, batch {})", method, attr, side, batch
                        );
                        if method == JoinMethod::HashPartition {
                            hash_pages.push(delta.buffer_hits + delta.buffer_misses);
                        }
                    }
                }
                prop_assert!(
                    hash_pages.windows(2).all(|w| w[0] == w[1]),
                    "hash partition pages over {} ({:?}): {:?}", attr, side, hash_pages
                );
            }
        }
    }
}
