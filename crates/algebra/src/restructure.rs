//! Restructuring and conversion operators: `Project`, `Partition`, `Sort`,
//! `asSet`, `asList`, `asExtent`, `Unnest`, `Nest`, `Flatten`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mood_catalog::Catalog;
use mood_datamodel::{encode_key, Value};
use mood_storage::exec::{run_chunked, ExecutionConfig};
use mood_storage::Oid;

use crate::collection::{Collection, Obj};
use crate::error::{AlgebraError, Result};
use crate::join::materialize;

/// `Project(aTupleCollection, attribute_list)` — relational-style projection
/// over an extent / set / list of tuple-type objects (set/list elements are
/// dereferenced, per the paper). The result is an *extent of tuple values*
/// (transient objects; MOOD could later make them a dynamic class).
///
/// Elements are independent: they are projected in `exec.parallelism`
/// contiguous chunks concatenated in input order, and the first non-tuple
/// element (in input order) wins as the reported error.
pub fn project(
    catalog: &Catalog,
    arg: &Collection,
    attributes: &[&str],
    exec: ExecutionConfig,
) -> Result<Collection> {
    let objs = materialize(catalog, arg, exec)?;
    let out = run_chunked(exec.parallelism, &objs, |_, chunk| {
        chunk.iter().map(|o| project_one(o, attributes)).collect()
    })?;
    Ok(Collection::Extent(out))
}

/// Project a single tuple object (the per-element body of [`project`]).
fn project_one(o: &Obj, attributes: &[&str]) -> Result<Obj> {
    let Value::Tuple(fields) = &o.value else {
        return Err(AlgebraError::NotApplicable {
            operator: "Project",
            detail: format!("element {} is not a tuple", o.value),
        });
    };
    let mut projected = Vec::with_capacity(attributes.len());
    for a in attributes {
        let v = fields
            .iter()
            .find(|(n, _)| n == a)
            .map(|(_, v)| v.clone())
            .unwrap_or(Value::Null);
        projected.push((a.to_string(), v));
    }
    Ok(Obj::transient(Value::Tuple(projected)))
}

/// `Partition(aTupleCollection, attribute_list)` — groups of objects with
/// equal values on `attribute_list`; the return value is the set of groups.
/// Groups are returned in first-appearance order of their key.
pub fn partition(
    catalog: &Catalog,
    arg: &Collection,
    attributes: &[&str],
) -> Result<Vec<Collection>> {
    let objs = materialize(catalog, arg, ExecutionConfig::default())?;
    let mut keys: Vec<Vec<u8>> = Vec::new();
    let mut groups: Vec<Vec<Obj>> = Vec::new();
    for o in objs {
        let key = group_key(&o.value, attributes)?;
        match keys.iter().position(|k| *k == key) {
            Some(i) => groups[i].push(o),
            None => {
                keys.push(key);
                groups.push(vec![o]);
            }
        }
    }
    Ok(groups.into_iter().map(Collection::Extent).collect())
}

fn group_key(v: &Value, attributes: &[&str]) -> Result<Vec<u8>> {
    let mut key = Vec::new();
    for a in attributes {
        let field = v.field(a).unwrap_or(&Value::Null);
        let enc = encode_key(field).map_err(|_| AlgebraError::NotApplicable {
            operator: "Partition/Sort",
            detail: format!("attribute {a} is not atomic"),
        })?;
        key.extend_from_slice(&enc);
        key.push(0xFF); // field separator
    }
    Ok(key)
}

/// A sort key: the encoded attribute key plus the element's input position.
/// The index makes every key distinct, so the order is total — equal
/// attribute keys keep their input order however the runs were formed.
type SortKey = (Vec<u8>, usize);

/// Elements per heap-built run.
const RUN: usize = 1024;

/// `Sort(aTupleCollection, sort_method, attribute_list)` — "the only
/// supported sort_method for the time being is heap sort with merging",
/// and that is exactly what this is: runs of at most `RUN` (1 024) elements are
/// built through a binary heap, then k-way merged. No duplicate
/// elimination. Sets/lists sort their identifiers by the dereferenced
/// objects' keys; extents sort the objects.
///
/// Run formation (key extraction + heap) is spread over `exec.parallelism`
/// contiguous chunks of the input; the merge is shared. Keys are distinct,
/// so where the run boundaries fall cannot change the output.
pub fn sort(
    catalog: &Catalog,
    arg: &Collection,
    attributes: &[&str],
    exec: ExecutionConfig,
) -> Result<Collection> {
    let objs = materialize(catalog, arg, exec)?;
    let positions: Vec<usize> = (0..objs.len()).collect();
    let runs: Vec<Vec<SortKey>> = run_chunked(exec.parallelism, &positions, |_, chunk| {
        let mut runs = Vec::with_capacity(chunk.len().div_ceil(RUN));
        for slice in chunk.chunks(RUN) {
            let mut heap = BinaryHeap::with_capacity(slice.len());
            for &i in slice {
                heap.push(Reverse((group_key(&objs[i].value, attributes)?, i)));
            }
            let mut run = Vec::with_capacity(heap.len());
            while let Some(Reverse(key)) = heap.pop() {
                run.push(key);
            }
            runs.push(run);
        }
        Ok::<_, AlgebraError>(runs)
    })?;
    let mut slots: Vec<Option<Obj>> = objs.into_iter().map(Some).collect();
    let sorted = merge_runs(runs)
        .into_iter()
        .map(|i| slots[i].take().expect("each position is emitted once"));
    Ok(match arg {
        Collection::Set(_) | Collection::List(_) => {
            Collection::List(sorted.filter_map(|o| o.oid).collect())
        }
        _ => Collection::Extent(sorted.collect()),
    })
}

/// K-way merge of sorted runs through a heap of run heads; yields the input
/// positions in sorted order.
fn merge_runs(runs: Vec<Vec<SortKey>>) -> Vec<usize> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut cursors: Vec<std::vec::IntoIter<SortKey>> =
        runs.into_iter().map(|r| r.into_iter()).collect();
    let mut heads: BinaryHeap<Reverse<(SortKey, usize)>> = BinaryHeap::new();
    for (run, c) in cursors.iter_mut().enumerate() {
        if let Some(key) = c.next() {
            heads.push(Reverse((key, run)));
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse(((_, position), run))) = heads.pop() {
        out.push(position);
        if let Some(key) = cursors[run].next() {
            heads.push(Reverse((key, run)));
        }
    }
    out
}

/// `asSet(arg)` — Table 5: the object identifiers of the argument.
pub fn as_set(arg: &Collection) -> Collection {
    Collection::set_from(arg.oids())
}

/// `asList(arg)` — Table 5.
pub fn as_list(arg: &Collection) -> Collection {
    Collection::List(arg.oids())
}

/// `asExtent(arg)` — Table 6: dereference a set or list into an extent.
pub fn as_extent(catalog: &Catalog, arg: &Collection) -> Result<Collection> {
    match arg {
        Collection::Set(_) | Collection::List(_) => Ok(Collection::Extent(materialize(
            catalog,
            arg,
            ExecutionConfig::default(),
        )?)),
        other => Err(AlgebraError::NotApplicable {
            operator: "asExtent",
            detail: format!(
                "argument must be a set or list (Table 6), got {:?}",
                other.kind()
            ),
        }),
    }
}

/// `Unnest(aTupleCollection)` — the 1NF unnest. For each object whose tuple
/// contains a (single) set/list-valued field, emit one tuple per element:
/// `{<o1,{o2,o3}>, <o4,{o5}>}` ⇒ `{<o1,o2>, <o1,o3>, <o4,o5>}`.
/// All argument kinds of Table 7 are accepted; the result is an extent.
pub fn unnest(catalog: &Catalog, arg: &Collection, attribute: &str) -> Result<Collection> {
    let objs = match arg {
        Collection::NamedObject(o) => vec![o.clone()],
        other => materialize(catalog, other, ExecutionConfig::default())?,
    };
    let mut out = Vec::new();
    for o in objs {
        let Value::Tuple(fields) = &o.value else {
            return Err(AlgebraError::NotApplicable {
                operator: "Unnest",
                detail: "argument elements must be tuples".into(),
            });
        };
        let Some((_, nested)) = fields.iter().find(|(n, _)| n == attribute) else {
            return Err(AlgebraError::NotApplicable {
                operator: "Unnest",
                detail: format!("no attribute {attribute}"),
            });
        };
        let elems: Vec<Value> = match nested {
            Value::Set(items) | Value::List(items) => items.clone(),
            Value::Null => Vec::new(),
            other => vec![other.clone()],
        };
        for e in elems {
            let mut new_fields: Vec<(String, Value)> = fields
                .iter()
                .map(|(n, v)| {
                    if n == attribute {
                        (n.clone(), e.clone())
                    } else {
                        (n.clone(), v.clone())
                    }
                })
                .collect();
            // Keep field order stable.
            let _ = &mut new_fields;
            out.push(Obj::transient(Value::Tuple(new_fields)));
        }
    }
    Ok(Collection::Extent(out))
}

/// `Nest(aTupleCollection)` — the inverse of `Unnest`: group on all fields
/// but `attribute` and collect that field's values into a set.
pub fn nest(catalog: &Catalog, arg: &Collection, attribute: &str) -> Result<Collection> {
    let objs = materialize(catalog, arg, ExecutionConfig::default())?;
    let mut keys: Vec<Value> = Vec::new();
    let mut groups: Vec<Vec<Value>> = Vec::new();
    let mut shapes: Vec<Vec<(String, Value)>> = Vec::new();
    for o in objs {
        let Value::Tuple(fields) = &o.value else {
            return Err(AlgebraError::NotApplicable {
                operator: "Nest",
                detail: "argument elements must be tuples".into(),
            });
        };
        let rest: Vec<(String, Value)> = fields
            .iter()
            .filter(|(n, _)| n != attribute)
            .cloned()
            .collect();
        let key = Value::Tuple(rest.clone());
        let nested = fields
            .iter()
            .find(|(n, _)| n == attribute)
            .map(|(_, v)| v.clone())
            .unwrap_or(Value::Null);
        match keys.iter().position(|k| k.equals(&key)) {
            Some(i) => groups[i].push(nested),
            None => {
                keys.push(key);
                groups.push(vec![nested]);
                shapes.push(fields.clone());
            }
        }
    }
    let mut out = Vec::new();
    for (shape, group) in shapes.into_iter().zip(groups) {
        let fields: Vec<(String, Value)> = shape
            .into_iter()
            .map(|(n, v)| {
                if n == attribute {
                    (n, Value::Set(group.clone()))
                } else {
                    (n, v)
                }
            })
            .collect();
        out.push(Obj::transient(Value::Tuple(fields)));
    }
    Ok(Collection::Extent(out))
}

/// `Flatten(arg)` — flattens nested collections of identifiers into one
/// *set* of object identifiers: `Flatten({{o1,o2},{o3}}) = {o1,o2,o3}`.
pub fn flatten(values: &Value) -> Result<Collection> {
    let mut out: Vec<Oid> = Vec::new();
    fn walk(v: &Value, out: &mut Vec<Oid>) {
        match v {
            Value::Ref(oid) => out.push(*oid),
            Value::Set(items) | Value::List(items) => {
                for i in items {
                    walk(i, out);
                }
            }
            _ => {}
        }
    }
    match values {
        Value::Set(_) | Value::List(_) => {
            walk(values, &mut out);
            Ok(Collection::set_from(out))
        }
        other => Err(AlgebraError::NotApplicable {
            operator: "Flatten",
            detail: format!("argument must be a set or list, got {other}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_catalog::ClassBuilder;
    use mood_datamodel::TypeDescriptor;
    use mood_storage::{FileId, PageId, SlotId, StorageManager};
    use std::sync::Arc;

    fn catalog() -> Arc<Catalog> {
        let sm = Arc::new(StorageManager::in_memory());
        let cat = Arc::new(Catalog::create(sm).unwrap());
        cat.define_class(
            ClassBuilder::class("Employee")
                .attribute("name", TypeDescriptor::string())
                .attribute("age", TypeDescriptor::integer())
                .attribute("dept", TypeDescriptor::string()),
        )
        .unwrap();
        cat
    }

    fn emp(cat: &Catalog, name: &str, age: i32, dept: &str) -> Oid {
        cat.new_object(
            "Employee",
            Value::tuple(vec![
                ("name", Value::string(name)),
                ("age", Value::Integer(age)),
                ("dept", Value::string(dept)),
            ]),
        )
        .unwrap()
    }

    #[test]
    fn project_keeps_listed_attributes() {
        let cat = catalog();
        emp(&cat, "ali", 30, "db");
        emp(&cat, "veli", 40, "os");
        let extent = crate::ops::bind_class(&cat, "Employee", false, &[]).unwrap();
        let out = project(&cat, &extent, &["name", "age"], ExecutionConfig::default()).unwrap();
        let Collection::Extent(objs) = &out else {
            panic!()
        };
        assert_eq!(objs.len(), 2);
        for o in objs {
            let Value::Tuple(fields) = &o.value else {
                panic!()
            };
            assert_eq!(fields.len(), 2);
            assert!(o.oid.is_none(), "projected tuples are transient values");
        }
    }

    #[test]
    fn project_over_set_derefs() {
        let cat = catalog();
        let a = emp(&cat, "ali", 30, "db");
        let out = project(
            &cat,
            &Collection::set_from(vec![a]),
            &["dept"],
            ExecutionConfig::default(),
        )
        .unwrap();
        let Collection::Extent(objs) = &out else {
            panic!()
        };
        assert_eq!(objs[0].value.field("dept"), Some(&Value::string("db")));
    }

    #[test]
    fn partition_groups_by_attribute() {
        let cat = catalog();
        emp(&cat, "a", 1, "db");
        emp(&cat, "b", 2, "db");
        emp(&cat, "c", 3, "os");
        let extent = crate::ops::bind_class(&cat, "Employee", false, &[]).unwrap();
        let groups = partition(&cat, &extent, &["dept"]).unwrap();
        assert_eq!(groups.len(), 2);
        let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
        assert_eq!(sizes, vec![2, 1]);
    }

    #[test]
    fn sort_orders_by_key_without_dedup() {
        let cat = catalog();
        emp(&cat, "c", 3, "x");
        emp(&cat, "a", 1, "x");
        emp(&cat, "b", 2, "x");
        emp(&cat, "a", 1, "x"); // duplicate key — must survive
        let extent = crate::ops::bind_class(&cat, "Employee", false, &[]).unwrap();
        let out = sort(&cat, &extent, &["name"], ExecutionConfig::default()).unwrap();
        let Collection::Extent(objs) = &out else {
            panic!()
        };
        let names: Vec<_> = objs
            .iter()
            .map(|o| o.value.field("name").unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["'a'", "'a'", "'b'", "'c'"]);
    }

    #[test]
    fn sort_set_returns_sorted_identifier_list() {
        let cat = catalog();
        let c = emp(&cat, "c", 3, "x");
        let a = emp(&cat, "a", 1, "x");
        let set = Collection::set_from(vec![c, a]);
        let out = sort(&cat, &set, &["name"], ExecutionConfig::default()).unwrap();
        assert_eq!(out, Collection::List(vec![a, c]));
    }

    #[test]
    fn heapsort_merging_handles_many_runs() {
        let cat = catalog();
        // > RUN elements to force multiple runs in phase 1.
        for i in (0..3000).rev() {
            emp(&cat, &format!("e{i:05}"), i, "x");
        }
        let extent = crate::ops::bind_class(&cat, "Employee", false, &[]).unwrap();
        let out = sort(&cat, &extent, &["name"], ExecutionConfig::default()).unwrap();
        let Collection::Extent(objs) = &out else {
            panic!()
        };
        assert_eq!(objs.len(), 3000);
        let mut prev = String::new();
        for o in objs {
            let Value::String(s) = o.value.field("name").unwrap() else {
                panic!()
            };
            assert!(*s >= prev, "sorted order violated at {s}");
            prev = s.clone();
        }
    }

    #[test]
    fn conversions_follow_tables_5_and_6() {
        let cat = catalog();
        let a = emp(&cat, "a", 1, "x");
        let b = emp(&cat, "b", 2, "x");
        let extent = crate::ops::bind_class(&cat, "Employee", false, &[]).unwrap();
        // asSet(extent) → identifiers.
        assert_eq!(as_set(&extent), Collection::set_from(vec![a, b]));
        // asList(set) → identifiers as list.
        let l = as_list(&Collection::set_from(vec![b, a]));
        assert_eq!(l.len(), 2);
        // asExtent(list) → dereferenced objects.
        let e = as_extent(&cat, &Collection::List(vec![a])).unwrap();
        let Collection::Extent(objs) = &e else {
            panic!()
        };
        assert_eq!(objs[0].value.field("name"), Some(&Value::string("a")));
        // asExtent on an extent is not applicable (Table 6 lists Set/List).
        assert!(as_extent(&cat, &extent).is_err());
    }

    fn oid(n: u32) -> Oid {
        Oid::new(FileId(7), PageId(n), SlotId(0), 1)
    }

    #[test]
    fn unnest_matches_paper_example() {
        // e = {<o1,{o2,o3}>, <o4,{o5}>} ⇒ {<o1,o2>, <o1,o3>, <o4,o5>}
        let cat = catalog();
        let e = Collection::Extent(vec![
            Obj::transient(Value::tuple(vec![
                ("head", Value::Ref(oid(1))),
                (
                    "tail",
                    Value::Set(vec![Value::Ref(oid(2)), Value::Ref(oid(3))]),
                ),
            ])),
            Obj::transient(Value::tuple(vec![
                ("head", Value::Ref(oid(4))),
                ("tail", Value::Set(vec![Value::Ref(oid(5))])),
            ])),
        ]);
        let out = unnest(&cat, &e, "tail").unwrap();
        let Collection::Extent(objs) = &out else {
            panic!()
        };
        assert_eq!(objs.len(), 3);
        assert_eq!(objs[0].value.field("tail"), Some(&Value::Ref(oid(2))));
        assert_eq!(objs[1].value.field("tail"), Some(&Value::Ref(oid(3))));
        assert_eq!(objs[2].value.field("head"), Some(&Value::Ref(oid(4))));
    }

    #[test]
    fn nest_inverts_unnest() {
        let cat = catalog();
        let flat = Collection::Extent(vec![
            Obj::transient(Value::tuple(vec![
                ("head", Value::Ref(oid(1))),
                ("tail", Value::Ref(oid(2))),
            ])),
            Obj::transient(Value::tuple(vec![
                ("head", Value::Ref(oid(1))),
                ("tail", Value::Ref(oid(3))),
            ])),
            Obj::transient(Value::tuple(vec![
                ("head", Value::Ref(oid(4))),
                ("tail", Value::Ref(oid(5))),
            ])),
        ]);
        let nested = nest(&cat, &flat, "tail").unwrap();
        let Collection::Extent(objs) = &nested else {
            panic!()
        };
        assert_eq!(objs.len(), 2);
        assert_eq!(
            objs[0].value.field("tail"),
            Some(&Value::Set(vec![Value::Ref(oid(2)), Value::Ref(oid(3))]))
        );
        // Round-trip: unnest(nest(x)) == x.
        let back = unnest(&cat, &nested, "tail").unwrap();
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn flatten_matches_paper_example() {
        // Flatten({{oid1, oid2}, {oid3}}) = {oid1, oid2, oid3}
        let v = Value::Set(vec![
            Value::Set(vec![Value::Ref(oid(1)), Value::Ref(oid(2))]),
            Value::Set(vec![Value::Ref(oid(3))]),
        ]);
        let out = flatten(&v).unwrap();
        assert_eq!(out, Collection::set_from(vec![oid(1), oid(2), oid(3)]));
        assert!(flatten(&Value::Integer(3)).is_err());
    }

    #[test]
    fn flatten_always_returns_a_set() {
        let v = Value::List(vec![
            Value::List(vec![Value::Ref(oid(2)), Value::Ref(oid(2))]),
            Value::Ref(oid(1)),
        ]);
        // Duplicates collapse; result is a Set regardless of input nesting.
        assert_eq!(
            flatten(&v).unwrap(),
            Collection::set_from(vec![oid(1), oid(2)])
        );
    }
}
