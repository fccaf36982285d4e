//! Property tests for the algebra's laws: set operators form a Boolean
//! algebra over OID sets, Sort orders without losing elements, DupElim is
//! idempotent, Nest inverts Unnest, and the four join methods agree on
//! randomized databases.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use mood_algebra::{
    difference, dup_elim, intersection, join, nest, project, select, sort, union, unnest,
    Collection, ExecutionConfig, JoinMethod, JoinRhs, Obj,
};
use mood_catalog::{Catalog, ClassBuilder};
use mood_datamodel::{TypeDescriptor, Value};
use mood_storage::{Oid, StorageManager};

/// Parallelism 1: every chunked step is the plain loop on this thread.
fn seq() -> ExecutionConfig {
    ExecutionConfig::with_parallelism(1)
}

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

        let u: HashSet<Oid> = union(&a, &b, seq()).unwrap().oids().into_iter().collect();
        prop_assert_eq!(&u, &sa.union(&sb).copied().collect::<HashSet<_>>());

        let i: HashSet<Oid> = intersection(&a, &b, seq()).unwrap().oids().into_iter().collect();
        prop_assert_eq!(&i, &sa.intersection(&sb).copied().collect::<HashSet<_>>());

        let d: HashSet<Oid> = difference(&a, &b, seq()).unwrap().oids().into_iter().collect();
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
        let sorted = sort(&cat, &extent, &["k"], seq()).unwrap();
        let Collection::Extent(objs) = &sorted else { panic!() };
        prop_assert_eq!(objs.len(), perm.len(), "no elements lost");
        let keys: Vec<i32> = objs
            .iter()
            .map(|o| match o.value.field("k") {
                Some(Value::Integer(i)) => *i,
                _ => unreachable!(),
            })
            .collect();
        let mut want: Vec<i32> = perm.iter().map(|&i| i as i32).collect();
        want.sort();
        prop_assert_eq!(keys, want);
    }

    #[test]
    fn dup_elim_is_idempotent_on_lists(items in proptest::collection::vec(0usize..10, 0..25)) {
        let (cat, oids) = catalog_with_items(10);
        let list = Collection::List(items.iter().map(|&i| oids[i]).collect());
        let once = dup_elim(&cat, &list, seq()).unwrap();
        let twice = dup_elim(&cat, &once, seq()).unwrap();
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
                join(&cat, &left, "d", JoinRhs::Class("D"), method, seq())
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

// ----------------------------------------------------------------------
// Parallelism is not observable: at every parallelism in {2, 4, 8} an
// operator must return a result identical (including element order) to
// what it returns at parallelism 1, where each chunked step runs as one
// loop on the calling thread.
// ----------------------------------------------------------------------

const PAR_LEVELS: [usize; 3] = [2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn select_is_parallelism_invariant(
        perm in proptest::collection::vec(0usize..30, 0..40),
        modulus in 2i32..5,
    ) {
        let (cat, oids) = catalog_with_items(30);
        let extent = Collection::Extent(
            perm.iter()
                .map(|&i| {
                    let (_, v) = cat.get_object(oids[i]).unwrap();
                    Obj::stored(oids[i], v)
                })
                .collect(),
        );
        let list = Collection::List(perm.iter().map(|&i| oids[i]).collect());
        let pred = |o: &Obj| -> mood_algebra::Result<bool> {
            Ok(matches!(o.value.field("k"), Some(Value::Integer(k)) if k % modulus == 0))
        };
        for arg in [&extent, &list] {
            let one = select(&cat, arg, &pred, seq()).unwrap();
            for p in PAR_LEVELS {
                let par = select(&cat, arg, &pred, ExecutionConfig::with_parallelism(p)).unwrap();
                prop_assert_eq!(&par, &one, "select parallelism={}", p);
            }
        }
    }

    #[test]
    fn project_is_parallelism_invariant(perm in proptest::collection::vec(0usize..30, 0..40)) {
        let (cat, oids) = catalog_with_items(30);
        let extent = Collection::Extent(
            perm.iter()
                .map(|&i| {
                    let (_, v) = cat.get_object(oids[i]).unwrap();
                    Obj::stored(oids[i], v)
                })
                .collect(),
        );
        let one = project(&cat, &extent, &["grp"], seq()).unwrap();
        for p in PAR_LEVELS {
            let par =
                project(&cat, &extent, &["grp"], ExecutionConfig::with_parallelism(p)).unwrap();
            prop_assert_eq!(&par, &one, "project parallelism={}", p);
        }
    }

    #[test]
    fn sort_is_parallelism_invariant(perm in proptest::collection::vec(0usize..30, 0..60)) {
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
            let one = sort(&cat, &extent, keys, seq()).unwrap();
            for p in PAR_LEVELS {
                let par =
                    sort(&cat, &extent, keys, ExecutionConfig::with_parallelism(p)).unwrap();
                prop_assert_eq!(&par, &one, "sort {:?} parallelism={}", keys, p);
            }
        }
    }

    #[test]
    fn dup_elim_is_parallelism_invariant(items in proptest::collection::vec(0usize..10, 0..40)) {
        let (cat, oids) = catalog_with_items(10);
        let list = Collection::List(items.iter().map(|&i| oids[i]).collect());
        let extent = Collection::Extent(
            items
                .iter()
                .map(|&i| {
                    let (_, v) = cat.get_object(oids[i]).unwrap();
                    Obj::stored(oids[i], v)
                })
                .collect(),
        );
        for arg in [&list, &extent] {
            let one = dup_elim(&cat, arg, seq()).unwrap();
            for p in PAR_LEVELS {
                let par = dup_elim(&cat, arg, ExecutionConfig::with_parallelism(p)).unwrap();
                prop_assert_eq!(&par, &one, "dup_elim parallelism={}", p);
            }
        }
    }

    #[test]
    fn set_ops_are_parallelism_invariant(
        xs in proptest::collection::vec(0usize..20, 0..25),
        ys in proptest::collection::vec(0usize..20, 0..25),
    ) {
        let (_cat, oids) = catalog_with_items(20);
        let a = Collection::set_from(xs.iter().map(|&i| oids[i]).collect());
        let b = Collection::set_from(ys.iter().map(|&i| oids[i]).collect());
        let la = Collection::List(xs.iter().map(|&i| oids[i]).collect());
        let lb = Collection::List(ys.iter().map(|&i| oids[i]).collect());
        for (x, y) in [(&a, &b), (&la, &lb)] {
            let one_u = union(x, y, seq()).unwrap();
            let one_i = intersection(x, y, seq()).unwrap();
            let one_d = difference(x, y, seq()).unwrap();
            for p in PAR_LEVELS {
                let exec = ExecutionConfig::with_parallelism(p);
                prop_assert_eq!(&union(x, y, exec).unwrap(), &one_u, "union p={}", p);
                prop_assert_eq!(
                    &intersection(x, y, exec).unwrap(),
                    &one_i,
                    "intersection p={}",
                    p
                );
                prop_assert_eq!(&difference(x, y, exec).unwrap(), &one_d, "difference p={}", p);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn join_is_parallelism_invariant_for_every_method(
        n_d in 1usize..10,
        refs in proptest::collection::vec(0usize..10, 1..30),
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
        let d_set = Collection::set_from(d_oids.clone());
        for method in JoinMethod::ALL {
            for rhs in [JoinRhs::Class("D"), JoinRhs::Collection(&d_set)] {
                let one = join(&cat, &left, "d", rhs, method, seq()).unwrap();
                for p in PAR_LEVELS {
                    let par = join(
                        &cat,
                        &left,
                        "d",
                        rhs,
                        method,
                        ExecutionConfig::with_parallelism(p),
                    )
                    .unwrap();
                    prop_assert_eq!(
                        &par,
                        &one,
                        "join {:?} rhs={:?} parallelism={}",
                        method,
                        match rhs { JoinRhs::Class(_) => "class", _ => "collection" },
                        p
                    );
                }
            }
        }
    }
}
