//! `DupElim`, `Union`, `Intersection`, `Difference` — with the return-type
//! rules of Tables 3 and 4.

use std::collections::HashSet;

use mood_catalog::Catalog;
use mood_datamodel::deep_eq;
use mood_storage::Oid;

use crate::collection::{Collection, Obj};
use crate::error::{AlgebraError, Result};

/// `DupElim(arg)` — Table 3:
/// * Set, named object → not applicable (neither has duplicates);
/// * List → list of ordered distinct object identifiers;
/// * Extent → extent of distinct objects *by deep equality*, each kept at
///   its first occurrence.
pub fn dup_elim(catalog: &Catalog, arg: &Collection) -> Result<Collection> {
    match arg {
        Collection::Set(_) | Collection::NamedObject(_) => Err(AlgebraError::NotApplicable {
            operator: "DupElim",
            detail: "sets and named objects have no duplicates (Table 3: not applicable)".into(),
        }),
        Collection::List(oids) => {
            let mut sorted = oids.clone();
            sorted.sort();
            sorted.dedup();
            Ok(Collection::List(sorted))
        }
        Collection::Extent(objs) => Ok(Collection::Extent(first_occurrences(catalog, objs))),
        Collection::Empty => Ok(Collection::Empty),
    }
}

/// The objects of `objs` that are not deep-equal to an earlier one, in
/// input order.
fn first_occurrences(catalog: &Catalog, objs: &[Obj]) -> Vec<Obj> {
    // Deep equality is expensive; prune with a cheap shallow pass
    // (identical OIDs) before the pairwise deep check.
    let mut kept: Vec<Obj> = Vec::new();
    let mut seen_oids: HashSet<Oid> = HashSet::new();
    'outer: for o in objs {
        if let Some(oid) = o.oid {
            if !seen_oids.insert(oid) {
                continue; // literally the same object
            }
        }
        for k in &kept {
            if deep_eq(&o.value, &k.value, catalog) {
                continue 'outer;
            }
        }
        kept.push(o.clone());
    }
    kept
}

fn oids_of(arg: &Collection, operator: &'static str) -> Result<Vec<Oid>> {
    match arg {
        Collection::Set(v) | Collection::List(v) => Ok(v.clone()),
        other => Err(AlgebraError::NotApplicable {
            operator,
            detail: format!(
                "arguments must be sets or lists (Table 4), got {:?}",
                other.kind()
            ),
        }),
    }
}

fn both_lists(a: &Collection, b: &Collection) -> bool {
    matches!((a, b), (Collection::List(_), Collection::List(_)))
}

/// `Union(arg1, arg2)` — Table 4. Two lists concatenate ("union
/// corresponds to array concatenation"); any set operand makes the result a
/// set.
pub fn union(a: &Collection, b: &Collection) -> Result<Collection> {
    let (xa, xb) = (oids_of(a, "Union")?, oids_of(b, "Union")?);
    if both_lists(a, b) {
        let mut out = xa;
        out.extend(xb);
        Ok(Collection::List(out))
    } else {
        let mut out = xa;
        out.extend(xb);
        Ok(Collection::set_from(out))
    }
}

/// `Intersection(arg1, arg2)` — Table 4. The right operand's membership
/// set is built once and the left operand filtered through it, in order.
pub fn intersection(a: &Collection, b: &Collection) -> Result<Collection> {
    let common = filter_by_membership(a, b, "Intersection", true)?;
    if both_lists(a, b) {
        // List ∩ List keeps the left list's order, deduplicated.
        let mut seen = HashSet::new();
        Ok(Collection::List(
            common.into_iter().filter(|o| seen.insert(*o)).collect(),
        ))
    } else {
        Ok(Collection::set_from(common))
    }
}

/// `Difference(arg1, arg2)` — Table 4: objects in `arg1` but not `arg2`
/// ([`intersection`]'s strategy with the membership test negated).
pub fn difference(a: &Collection, b: &Collection) -> Result<Collection> {
    let rest = filter_by_membership(a, b, "Difference", false)?;
    if both_lists(a, b) {
        Ok(Collection::List(rest))
    } else {
        Ok(Collection::set_from(rest))
    }
}

/// The identifiers of `a`, in order, whose membership in `b` equals `keep`.
fn filter_by_membership(
    a: &Collection,
    b: &Collection,
    operator: &'static str,
    keep: bool,
) -> Result<Vec<Oid>> {
    let (mut xa, xb) = (oids_of(a, operator)?, oids_of(b, operator)?);
    let set_b: HashSet<Oid> = xb.into_iter().collect();
    xa.retain(|o| set_b.contains(o) == keep);
    Ok(xa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_catalog::ClassBuilder;
    use mood_datamodel::{TypeDescriptor, Value};
    use mood_storage::StorageManager;
    use std::sync::Arc;

    fn catalog() -> Arc<Catalog> {
        let sm = Arc::new(StorageManager::in_memory());
        let cat = Arc::new(Catalog::create(sm).unwrap());
        cat.define_class(
            ClassBuilder::class("Point")
                .attribute("x", TypeDescriptor::integer())
                .attribute("y", TypeDescriptor::integer()),
        )
        .unwrap();
        cat
    }

    fn pt(cat: &Catalog, x: i32, y: i32) -> Oid {
        cat.new_object(
            "Point",
            Value::tuple(vec![("x", Value::Integer(x)), ("y", Value::Integer(y))]),
        )
        .unwrap()
    }

    #[test]
    fn dupelim_rejects_sets() {
        let cat = catalog();
        let err = dup_elim(&cat, &Collection::Set(vec![])).unwrap_err();
        assert!(matches!(err, AlgebraError::NotApplicable { .. }));
    }

    #[test]
    fn dupelim_on_list_sorts_and_dedups() {
        let cat = catalog();
        let (a, b) = (pt(&cat, 1, 1), pt(&cat, 2, 2));
        let list = Collection::List(vec![b, a, b, a, b]);
        let out = dup_elim(&cat, &list).unwrap();
        assert_eq!(out, Collection::List(vec![a, b]), "ordered distinct oids");
    }

    #[test]
    fn dupelim_on_extent_uses_deep_equality() {
        let cat = catalog();
        // Two distinct objects with equal values, one different.
        let a = pt(&cat, 1, 1);
        let b = pt(&cat, 1, 1);
        let c = pt(&cat, 9, 9);
        let extent = Collection::Extent(vec![
            crate::ops::deref(&cat, a).unwrap(),
            crate::ops::deref(&cat, b).unwrap(),
            crate::ops::deref(&cat, c).unwrap(),
        ]);
        let out = dup_elim(&cat, &extent).unwrap();
        assert_eq!(out.len(), 2, "deep-equal objects collapse");
    }

    #[test]
    fn union_set_semantics() {
        let cat = catalog();
        let (a, b, c) = (pt(&cat, 1, 0), pt(&cat, 2, 0), pt(&cat, 3, 0));
        let s = Collection::set_from(vec![a, b]);
        let l = Collection::List(vec![b, c]);
        let out = union(&s, &l).unwrap();
        assert_eq!(out, Collection::set_from(vec![a, b, c]));
    }

    #[test]
    fn union_of_lists_concatenates() {
        let cat = catalog();
        let (a, b) = (pt(&cat, 1, 0), pt(&cat, 2, 0));
        let l1 = Collection::List(vec![a, b]);
        let l2 = Collection::List(vec![b, a]);
        let out = union(&l1, &l2).unwrap();
        assert_eq!(
            out,
            Collection::List(vec![a, b, b, a]),
            "array concatenation"
        );
    }

    #[test]
    fn intersection_and_difference() {
        let cat = catalog();
        let (a, b, c) = (pt(&cat, 1, 0), pt(&cat, 2, 0), pt(&cat, 3, 0));
        let s1 = Collection::set_from(vec![a, b]);
        let s2 = Collection::set_from(vec![b, c]);
        assert_eq!(
            intersection(&s1, &s2).unwrap(),
            Collection::set_from(vec![b])
        );
        assert_eq!(difference(&s1, &s2).unwrap(), Collection::set_from(vec![a]));
        assert_eq!(difference(&s2, &s1).unwrap(), Collection::set_from(vec![c]));
    }

    #[test]
    fn list_list_ops_stay_lists() {
        let cat = catalog();
        let (a, b, c) = (pt(&cat, 1, 0), pt(&cat, 2, 0), pt(&cat, 3, 0));
        let l1 = Collection::List(vec![c, a, b]);
        let l2 = Collection::List(vec![b, c]);
        assert_eq!(
            intersection(&l1, &l2).unwrap(),
            Collection::List(vec![c, b])
        );
        assert_eq!(difference(&l1, &l2).unwrap(), Collection::List(vec![a]));
    }

    #[test]
    fn extent_operands_rejected() {
        let e = Collection::Extent(vec![]);
        let s = Collection::Set(vec![]);
        assert!(union(&e, &s).is_err());
        assert!(intersection(&s, &e).is_err());
        assert!(difference(&e, &e).is_err());
    }
}
