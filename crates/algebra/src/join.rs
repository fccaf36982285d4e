//! The `Join` operator and its four execution methods (Section 3.2 / §6):
//! forward traversal, backward traversal, indexed join (binary join index),
//! and pointer-based hash-partition join.
//!
//! All four compute the same *implicit join* `C.A = D.self` — pairs of
//! (C-object, D-object) where C's reference attribute `A` points at the
//! D-object — but with different access patterns, which the storage-layer
//! metrics expose and the benches compare against the §6 cost formulas.

use std::collections::{HashMap, HashSet};

use mood_catalog::{Catalog, CatalogError};
use mood_datamodel::Value;
use mood_storage::exec::{run_chunked, ExecutionConfig};
use mood_storage::{AccessHint, Oid, StorageError};

use crate::collection::{join_return, Collection, Kind, Obj};
use crate::error::{AlgebraError, Result};
use crate::ops::deref;

pub use mood_cost::JoinMethod;

/// The right-hand side of an implicit join: either a whole class (the
/// executor fetches referenced objects directly by pointer — the common
/// `BIND(Class, d)` plan leaf) or a materialized collection (a prior
/// operator's output; membership is enforced).
#[derive(Debug, Clone, Copy)]
pub enum JoinRhs<'a> {
    Class(&'a str),
    Collection(&'a Collection),
}

/// The reference OIDs of `l.attr`: a Reference, or a Set/List of references
/// (the traversable constructors); none when the attribute is absent or
/// holds anything else.
fn refs_of(l: &Obj, attr: &str) -> Vec<Oid> {
    match l.value.field(attr) {
        Some(Value::Ref(oid)) => vec![*oid],
        Some(Value::Set(items) | Value::List(items)) => {
            items.iter().filter_map(|i| i.as_oid()).collect()
        }
        _ => Vec::new(),
    }
}

/// Materialize the objects of any collection. Set/list members are
/// dereferenced in `exec.parallelism` contiguous chunks concatenated in
/// input order — each identifier fetched exactly once at any parallelism.
pub fn materialize(catalog: &Catalog, c: &Collection, exec: ExecutionConfig) -> Result<Vec<Obj>> {
    match c {
        Collection::Extent(objs) => Ok(objs.clone()),
        Collection::Set(oids) | Collection::List(oids) => {
            run_chunked(exec.parallelism, oids, |_, chunk| {
                chunk.iter().map(|&oid| deref(catalog, oid)).collect()
            })
        }
        Collection::NamedObject(o) => Ok(vec![o.clone()]),
        Collection::Empty => Ok(Vec::new()),
    }
}

#[derive(Clone)]
struct Rhs {
    /// Membership filter (None: any object of the right class qualifies).
    allowed: Option<HashSet<Oid>>,
    /// Pre-materialized right objects (avoids refetching what a previous
    /// operator already produced).
    cache: HashMap<Oid, Obj>,
    /// Right class for the unmaterialized case.
    class: Option<String>,
}

impl Rhs {
    fn build(rhs: &JoinRhs<'_>) -> Rhs {
        match rhs {
            JoinRhs::Class(c) => Rhs {
                allowed: None,
                cache: HashMap::new(),
                class: Some(c.to_string()),
            },
            JoinRhs::Collection(col) => {
                let mut allowed = HashSet::new();
                let mut cache = HashMap::new();
                if let Collection::Extent(objs) = col {
                    for o in objs {
                        if let Some(oid) = o.oid {
                            allowed.insert(oid);
                            cache.insert(oid, o.clone());
                        }
                    }
                } else {
                    allowed.extend(col.oids());
                }
                Rhs {
                    allowed: Some(allowed),
                    cache,
                    class: None,
                }
            }
        }
    }

    /// The whole right class read by one sequential extent scan — the
    /// D-side access pattern of backward traversal (§6.2).
    fn scan_class(catalog: &Catalog, class: &str) -> Result<Rhs> {
        let mut allowed = HashSet::new();
        let mut cache = HashMap::new();
        catalog.extent_with(class, AccessHint::Sequential, &mut |oid, value| {
            allowed.insert(oid);
            cache.insert(oid, Obj::stored(oid, value));
            true
        })?;
        Ok(Rhs {
            allowed: Some(allowed),
            cache,
            class: None,
        })
    }

    /// Resolve one referenced OID to a right-side object if it qualifies.
    fn fetch(&mut self, catalog: &Catalog, oid: Oid) -> Result<Option<Obj>> {
        if let Some(allowed) = &self.allowed {
            if !allowed.contains(&oid) {
                return Ok(None);
            }
        }
        if let Some(obj) = self.cache.get(&oid) {
            return Ok(Some(obj.clone()));
        }
        match catalog.get_object(oid) {
            Ok((class, value)) => {
                if let Some(want) = &self.class {
                    if !catalog.is_subclass(&class, want) {
                        return Ok(None);
                    }
                }
                let obj = Obj::stored(oid, value);
                self.cache.insert(oid, obj.clone());
                Ok(Some(obj))
            }
            // A dangling reference produces no pair (deleted targets simply
            // do not join). Every other storage failure — a corrupt page,
            // an I/O error, a deadlock — is the join's error: swallowing it
            // would silently shorten the result.
            Err(CatalogError::Storage(StorageError::DanglingOid(_))) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// Execute `Join(left, rhs, method, left.attr = rhs.self)`, returning the
/// joined pairs in left-collection order.
///
/// Every method spreads its per-element work over `exec.parallelism`
/// contiguous chunks concatenated in chunk order, so the pairs, their
/// order and the *total* page accesses are the same at every parallelism
/// (accesses are redistributed across workers, never multiplied); at 1
/// each chunked step is the plain loop on the caller's thread.
pub fn join(
    catalog: &Catalog,
    left: &Collection,
    attr: &str,
    rhs: JoinRhs<'_>,
    method: JoinMethod,
    exec: ExecutionConfig,
) -> Result<Vec<(Obj, Obj)>> {
    let left_objs = materialize(catalog, left, exec)?;
    match method {
        JoinMethod::ForwardTraversal => forward(catalog, &left_objs, attr, rhs, exec),
        JoinMethod::BackwardTraversal => backward(catalog, &left_objs, attr, rhs, exec),
        JoinMethod::BinaryJoinIndex => indexed(catalog, &left_objs, attr, rhs, exec),
        JoinMethod::HashPartition => hash_partition(catalog, &left_objs, attr, rhs, exec),
    }
}

/// Forward traversal: for each left object, chase `attr`'s reference(s) and
/// fetch the target (one random access per reference; §6.1's pattern).
///
/// * Class rhs: the pointer fetch is paid per *reference* — the target
///   cache is cleared between left objects so shared targets are refetched,
///   matching the paper's worst-case ftc (no page hits for D; the buffer
///   pool still absorbs repeats when it is large — exactly the effect §6.1
///   calls out). Left chunks are therefore independent.
/// * Collection rhs: each distinct qualifying target is fetched once, in
///   first-encounter order, by one warm-up pass on the caller's thread;
///   pairs are then emitted from the read-only cache in chunks.
fn forward(
    catalog: &Catalog,
    left_objs: &[Obj],
    attr: &str,
    rhs: JoinRhs<'_>,
    exec: ExecutionConfig,
) -> Result<Vec<(Obj, Obj)>> {
    let template = Rhs::build(&rhs);
    if template.allowed.is_some() {
        return emit_warmed_pairs(catalog, left_objs, attr, template, exec);
    }
    run_chunked(exec.parallelism, left_objs, |_, chunk| {
        let mut rhs = template.clone();
        let mut out = Vec::new();
        for l in chunk {
            rhs.cache.clear();
            for oid in refs_of(l, attr) {
                if let Some(r) = rhs.fetch(catalog, oid)? {
                    out.push((l.clone(), r));
                }
            }
        }
        Ok(out)
    })
}

/// Fetch every qualifying target the left objects reference, in
/// first-encounter order on the caller's thread (the page accesses happen
/// here, in the order a single loop would issue them), then emit the pairs
/// from the warmed cache in chunks — pure CPU work.
fn emit_warmed_pairs(
    catalog: &Catalog,
    left_objs: &[Obj],
    attr: &str,
    mut rhs: Rhs,
    exec: ExecutionConfig,
) -> Result<Vec<(Obj, Obj)>> {
    for l in left_objs {
        for oid in refs_of(l, attr) {
            if !rhs.cache.contains_key(&oid) {
                rhs.fetch(catalog, oid)?;
            }
        }
    }
    run_chunked(exec.parallelism, left_objs, |_, chunk| {
        let mut out = Vec::new();
        for l in chunk {
            for oid in refs_of(l, attr) {
                if rhs.allowed.as_ref().is_some_and(|a| !a.contains(&oid)) {
                    continue;
                }
                // A qualifying target the warm-up could not cache is a
                // dangling reference: no pair.
                if let Some(r) = rhs.cache.get(&oid) {
                    out.push((l.clone(), r.clone()));
                }
            }
        }
        Ok(out)
    })
}

/// Backward traversal (§6.2: the D-objects are known and C must be found):
/// the right class is read by one sequential extent scan up front — that
/// scan *is* the method's access pattern, so it stays on the caller's
/// thread — and the join itself is reference-membership testing against
/// the materialized map.
fn backward(
    catalog: &Catalog,
    left_objs: &[Obj],
    attr: &str,
    rhs: JoinRhs<'_>,
    exec: ExecutionConfig,
) -> Result<Vec<(Obj, Obj)>> {
    let rhs = match rhs {
        JoinRhs::Class(class) => Rhs::scan_class(catalog, class)?,
        other => Rhs::build(&other),
    };
    emit_warmed_pairs(catalog, left_objs, attr, rhs, exec)
}

/// Indexed join through the *binary join index* on (left-class, attr): for
/// each qualifying right object, probe the index for the left OIDs that
/// reference it (§6.3's pattern). Requires the index to exist and the left
/// collection to be a class extent (the index covers the stored extent).
/// Probes are read-only and each right object is probed exactly once, so
/// they run in chunks over the right objects.
fn indexed(
    catalog: &Catalog,
    left_objs: &[Obj],
    attr: &str,
    rhs: JoinRhs<'_>,
    exec: ExecutionConfig,
) -> Result<Vec<(Obj, Obj)>> {
    // Identify the left class from the extent's stored objects.
    let Some(first_oid) = left_objs.iter().find_map(|o| o.oid) else {
        return Ok(Vec::new());
    };
    let (left_class, _) = catalog.get_object(first_oid)?;
    let left_by_oid: HashMap<Oid, &Obj> = left_objs
        .iter()
        .filter_map(|o| o.oid.map(|id| (id, o)))
        .collect();

    let right_objs: Vec<Obj> = match rhs {
        JoinRhs::Collection(c) => materialize(catalog, c, exec)?,
        JoinRhs::Class(c) => {
            let mut objs = Vec::new();
            catalog.extent_with(c, AccessHint::Sequential, &mut |oid, v| {
                objs.push(Obj::stored(oid, v));
                true
            })?;
            objs
        }
    };
    if catalog.index(&left_class, attr).is_none() {
        return Err(AlgebraError::NotApplicable {
            operator: "Join(BINARY_JOIN_INDEX)",
            detail: format!("no binary join index on {left_class}.{attr}"),
        });
    }
    let mut out = run_chunked(exec.parallelism, &right_objs, |_, chunk| {
        let mut pairs = Vec::new();
        for r in chunk {
            let Some(r_oid) = r.oid else { continue };
            for l_oid in catalog.index_lookup(&left_class, attr, &Value::Ref(r_oid))? {
                if let Some(l) = left_by_oid.get(&l_oid) {
                    pairs.push(((*l).clone(), r.clone()));
                }
            }
        }
        Ok::<_, AlgebraError>(pairs)
    })?;
    // Index probes return right-major order; normalize to left order for
    // comparability across methods.
    out.sort_by_key(|(l, _)| l.oid);
    Ok(out)
}

/// Pointer-based hash-partition join (§6.4): partition the left objects on
/// the pointer field, then chase each *distinct* pointer once and emit all
/// pairs for that target. Only applicable when `attr` is a plain Reference
/// (the paper's stated restriction). The sorted distinct keys are probed in
/// chunks: workers hold disjoint key sets, so each target is still fetched
/// exactly once.
fn hash_partition(
    catalog: &Catalog,
    left_objs: &[Obj],
    attr: &str,
    rhs: JoinRhs<'_>,
    exec: ExecutionConfig,
) -> Result<Vec<(Obj, Obj)>> {
    let template = Rhs::build(&rhs);
    let mut partitions: HashMap<Oid, Vec<usize>> = HashMap::new();
    for (i, l) in left_objs.iter().enumerate() {
        match l.value.field(attr) {
            Some(Value::Ref(oid)) => partitions.entry(*oid).or_default().push(i),
            Some(Value::Set(_) | Value::List(_)) => {
                return Err(AlgebraError::NotApplicable {
                    operator: "Join(HASH_PARTITION)",
                    detail: format!(
                        "{attr} is a collection of references; hash-partition join \
                         applies only when the constructor of the attribute is Reference"
                    ),
                })
            }
            _ => {}
        }
    }
    let mut keys: Vec<Oid> = partitions.keys().copied().collect();
    keys.sort();
    let mut out = run_chunked(exec.parallelism, &keys, |_, chunk| {
        let mut rhs = template.clone();
        let mut pairs = Vec::new();
        for &oid in chunk {
            if let Some(r) = rhs.fetch(catalog, oid)? {
                for &i in &partitions[&oid] {
                    pairs.push((left_objs[i].clone(), r.clone()));
                }
            }
        }
        Ok::<_, AlgebraError>(pairs)
    })?;
    out.sort_by_key(|(l, _)| l.oid);
    Ok(out)
}

/// Wrap joined pairs as a collection with the Table 2 return kind.
/// Extent results are transient ⟨left, right⟩ tuples; set/list results keep
/// the left side's identifiers; a named-object pair keeps the left object.
pub fn pairs_to_collection(pairs: Vec<(Obj, Obj)>, k1: Kind, k2: Kind) -> Collection {
    match join_return(k1, k2) {
        Kind::Extent => Collection::Extent(
            pairs
                .into_iter()
                .map(|(l, r)| {
                    Obj::transient(Value::Tuple(vec![
                        ("left".to_string(), l.oid.map(Value::Ref).unwrap_or(l.value)),
                        (
                            "right".to_string(),
                            r.oid.map(Value::Ref).unwrap_or(r.value),
                        ),
                    ]))
                })
                .collect(),
        ),
        Kind::Set => Collection::set_from(pairs.iter().filter_map(|(l, _)| l.oid).collect()),
        Kind::List => Collection::List(pairs.iter().filter_map(|(l, _)| l.oid).collect()),
        Kind::NamedObject => match pairs.into_iter().next() {
            Some((l, _)) => Collection::NamedObject(l),
            None => Collection::Empty,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::bind_class;
    use mood_catalog::ClassBuilder;
    use mood_datamodel::TypeDescriptor;
    use mood_storage::StorageManager;
    use std::sync::Arc;

    /// Build the paper's Vehicle→DriveTrain→Engine shape at small scale.
    fn setup() -> (Arc<Catalog>, Vec<Oid>, Vec<Oid>) {
        let sm = Arc::new(StorageManager::in_memory());
        let cat = Arc::new(Catalog::create(sm).unwrap());
        cat.define_class(
            ClassBuilder::class("VehicleDriveTrain")
                .attribute("transmission", TypeDescriptor::string()),
        )
        .unwrap();
        cat.define_class(
            ClassBuilder::class("Vehicle")
                .attribute("id", TypeDescriptor::integer())
                .attribute("drivetrain", TypeDescriptor::reference("VehicleDriveTrain")),
        )
        .unwrap();
        let mut trains = Vec::new();
        for i in 0..5 {
            trains.push(
                cat.new_object(
                    "VehicleDriveTrain",
                    Value::tuple(vec![(
                        "transmission",
                        Value::string(if i % 2 == 0 { "AUTOMATIC" } else { "MANUAL" }),
                    )]),
                )
                .unwrap(),
            );
        }
        let mut cars = Vec::new();
        for i in 0..20 {
            cars.push(
                cat.new_object(
                    "Vehicle",
                    Value::tuple(vec![
                        ("id", Value::Integer(i as i32)),
                        ("drivetrain", Value::Ref(trains[i % 5])),
                    ]),
                )
                .unwrap(),
            );
        }
        (cat, cars, trains)
    }

    fn pair_ids(pairs: &[(Obj, Obj)]) -> Vec<(Oid, Oid)> {
        let mut v: Vec<_> = pairs
            .iter()
            .map(|(l, r)| (l.oid.unwrap(), r.oid.unwrap()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn all_methods_agree_on_class_rhs() {
        let (cat, _, _) = setup();
        cat.create_index("Vehicle", "drivetrain", false).unwrap();
        let left = bind_class(&cat, "Vehicle", false, &[]).unwrap();
        let expected = {
            let pairs = join(
                &cat,
                &left,
                "drivetrain",
                JoinRhs::Class("VehicleDriveTrain"),
                JoinMethod::ForwardTraversal,
                ExecutionConfig::default(),
            )
            .unwrap();
            assert_eq!(pairs.len(), 20, "every car joins its drivetrain");
            pair_ids(&pairs)
        };
        for method in [
            JoinMethod::BackwardTraversal,
            JoinMethod::BinaryJoinIndex,
            JoinMethod::HashPartition,
        ] {
            let pairs = join(
                &cat,
                &left,
                "drivetrain",
                JoinRhs::Class("VehicleDriveTrain"),
                method,
                ExecutionConfig::default(),
            )
            .unwrap();
            assert_eq!(pair_ids(&pairs), expected, "{method:?} disagrees");
        }
    }

    #[test]
    fn membership_filter_on_collection_rhs() {
        let (cat, _, trains) = setup();
        let left = bind_class(&cat, "Vehicle", false, &[]).unwrap();
        // Only the first drivetrain qualifies.
        let rhs = Collection::set_from(vec![trains[0]]);
        let pairs = join(
            &cat,
            &left,
            "drivetrain",
            JoinRhs::Collection(&rhs),
            JoinMethod::ForwardTraversal,
            ExecutionConfig::default(),
        )
        .unwrap();
        assert_eq!(pairs.len(), 4, "cars 0,5,10,15");
        assert!(pairs.iter().all(|(_, r)| r.oid == Some(trains[0])));
    }

    #[test]
    fn hash_partition_fetches_each_target_once() {
        let (cat, _, _) = setup();
        let left = bind_class(&cat, "Vehicle", false, &[]).unwrap();
        let metrics = cat.storage().metrics();
        let before = metrics.snapshot();
        let pairs = join(
            &cat,
            &left,
            "drivetrain",
            JoinRhs::Class("VehicleDriveTrain"),
            JoinMethod::HashPartition,
            ExecutionConfig::default(),
        )
        .unwrap();
        assert_eq!(pairs.len(), 20);
        let delta = metrics.snapshot().delta(&before);
        // 5 distinct targets, all on one page → very few physical reads
        // (buffer hits don't count); the point is it did not fetch 20 times.
        assert!(delta.buffer_hits + delta.buffer_misses <= 8, "{delta:?}");
    }

    #[test]
    fn indexed_join_requires_index() {
        let (cat, _, _) = setup();
        let left = bind_class(&cat, "Vehicle", false, &[]).unwrap();
        let err = join(
            &cat,
            &left,
            "drivetrain",
            JoinRhs::Class("VehicleDriveTrain"),
            JoinMethod::BinaryJoinIndex,
            ExecutionConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, AlgebraError::NotApplicable { .. }));
    }

    #[test]
    fn dangling_references_produce_no_pairs() {
        let (cat, cars, trains) = setup();
        cat.delete_object(trains[0]).unwrap();
        let left = bind_class(&cat, "Vehicle", false, &[]).unwrap();
        let pairs = join(
            &cat,
            &left,
            "drivetrain",
            JoinRhs::Class("VehicleDriveTrain"),
            JoinMethod::ForwardTraversal,
            ExecutionConfig::default(),
        )
        .unwrap();
        assert_eq!(pairs.len(), 16, "4 cars lost their drivetrain");
        let _ = cars;
    }

    #[test]
    fn null_references_skip() {
        let (cat, _, _) = setup();
        let lonely = cat
            .new_object("Vehicle", Value::tuple(vec![("id", Value::Integer(99))]))
            .unwrap();
        let left = Collection::set_from(vec![lonely]);
        let pairs = join(
            &cat,
            &left,
            "drivetrain",
            JoinRhs::Class("VehicleDriveTrain"),
            JoinMethod::ForwardTraversal,
            ExecutionConfig::default(),
        )
        .unwrap();
        assert!(pairs.is_empty());
    }

    #[test]
    fn set_valued_references_join_forward_but_not_hash() {
        let (cat, _, _) = setup();
        cat.define_class(ClassBuilder::class("Fleet").attribute(
            "vehicles",
            TypeDescriptor::set_of(TypeDescriptor::reference("Vehicle")),
        ))
        .unwrap();
        let cars = cat.extent("Vehicle").unwrap();
        let fleet = cat
            .new_object(
                "Fleet",
                Value::tuple(vec![(
                    "vehicles",
                    Value::Set(vec![Value::Ref(cars[0].0), Value::Ref(cars[1].0)]),
                )]),
            )
            .unwrap();
        let left = Collection::set_from(vec![fleet]);
        let pairs = join(
            &cat,
            &left,
            "vehicles",
            JoinRhs::Class("Vehicle"),
            JoinMethod::ForwardTraversal,
            ExecutionConfig::default(),
        )
        .unwrap();
        assert_eq!(pairs.len(), 2);
        // The paper: hash-partition "can only be applied when constructor
        // of attribute A is Reference".
        let err = join(
            &cat,
            &left,
            "vehicles",
            JoinRhs::Class("Vehicle"),
            JoinMethod::HashPartition,
            ExecutionConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, AlgebraError::NotApplicable { .. }));
    }

    #[test]
    fn pairs_to_collection_follows_table2() {
        let (cat, _, _) = setup();
        let left = bind_class(&cat, "Vehicle", false, &[]).unwrap();
        let pairs = join(
            &cat,
            &left,
            "drivetrain",
            JoinRhs::Class("VehicleDriveTrain"),
            JoinMethod::ForwardTraversal,
            ExecutionConfig::default(),
        )
        .unwrap();
        let as_extent = pairs_to_collection(pairs.clone(), Kind::Extent, Kind::Extent);
        assert_eq!(as_extent.kind(), Some(Kind::Extent));
        assert_eq!(as_extent.len(), 20);
        let as_set = pairs_to_collection(pairs.clone(), Kind::Set, Kind::List);
        assert_eq!(as_set.kind(), Some(Kind::Set));
        assert_eq!(as_set.len(), 20, "20 distinct left oids");
        let as_named = pairs_to_collection(pairs, Kind::NamedObject, Kind::NamedObject);
        assert_eq!(as_named.kind(), Some(Kind::NamedObject));
    }
}
