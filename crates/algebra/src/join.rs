//! The `Join` operator and its four execution methods (Section 3.2 / §6):
//! forward traversal, backward traversal, indexed join (binary join index),
//! and pointer-based hash-partition join.
//!
//! All four compute the same *implicit join* `C.A = D.self` — pairs of
//! (C-object, D-object) where C's reference attribute `A` points at the
//! D-object — but with different access patterns, which the storage-layer
//! metrics expose and the benches compare against the §6 cost formulas.
//!
//! [`join_pairs`] is the one implementation of each method. It sees the left
//! side as the objects its items bind to the join's left variable and hands
//! its caller `(left index, right member)` pairs a probe batch at a time;
//! MOODSQL's executor pushes rows made of them downstream and [`join`]
//! collects object pairs. A join runs on the caller's thread: its target
//! fetch is per batch, and splitting a batch across workers would fetch a
//! shared target once per worker.

use std::collections::HashMap;
use std::mem;

use mood_catalog::{Catalog, CatalogError};
use mood_datamodel::{FieldSet, Value};
use mood_storage::exec::ExecutionConfig;
use mood_storage::{AccessHint, FileId, Metric, Oid, PageId, StorageError};

use crate::collection::{join_return, Collection, Kind, Obj};
use crate::error::Result;
use crate::ops::deref;
use crate::slab::Slab;

pub use mood_cost::JoinMethod;

/// The right-hand side of [`join`]: either a whole class (referenced objects
/// are fetched directly by pointer — the common `BIND(Class, d)` plan leaf)
/// or a materialized collection (a prior operator's output; membership is
/// enforced).
#[derive(Debug, Clone, Copy)]
pub enum JoinRhs<'a> {
    Class(&'a str),
    Collection(&'a Collection),
}

/// The object a left item binds to the join's left variable: its OID (none
/// for a transient object) and its value. An item that binds nothing there
/// is `(None, &Value::Null)` and joins nothing.
pub type LeftObj<'v> = (Option<Oid>, &'v Value);

/// What a stored right object becomes: the caller's member, or `None` when
/// the right side's filter rejects it.
pub type Bind<'b, R, E> = dyn FnMut(Oid, Value) -> std::result::Result<Option<R>, E> + 'b;

/// Where [`join_pairs`] hands its `(left index, right member)` pairs; the
/// callee drains the vector, which is reused for the next batch.
pub type Emit<'e, R, E> = dyn FnMut(&mut Vec<(usize, R)>) -> std::result::Result<(), E> + 'e;

/// The right-hand side of an implicit join as [`join_pairs`] reads it.
pub enum JoinRight<'a, R> {
    /// A class left unmaterialized: its members are the objects stored in
    /// the extents of `classes` — a class and its subclasses
    /// ([`Catalog::every_classes`]), or the range a FROM item names — whose
    /// extent files are `files`. A probe fetches the referenced members
    /// decoded to `fields` (the right variable's read set) and keeps those
    /// the caller's `bind` admits.
    Class { classes: &'a [String], files: &'a [FileId], fields: &'a FieldSet },
    /// Materialized members keyed by OID (an OID may carry several); a
    /// reference to anything else joins nothing.
    Members(HashMap<Oid, Vec<R>>),
}

/// The reference OIDs of `value.attr`, without allocating: a Reference, or
/// a Set/List of references (the traversable constructors, flattened); none
/// when the attribute is absent or holds anything else.
fn refs_of<'v>(value: &'v Value, attr: &str) -> impl Iterator<Item = Oid> + 'v {
    let items: &[Value] = match value.field(attr) {
        Some(r @ Value::Ref(_)) => std::slice::from_ref(r),
        Some(Value::Set(items) | Value::List(items)) => items,
        _ => &[],
    };
    items.iter().filter_map(Value::as_oid)
}

/// Materialize the objects of any collection: set/list members are
/// dereferenced in order, each identifier fetched once.
pub fn materialize(catalog: &Catalog, c: &Collection) -> Result<Vec<Obj>> {
    match c {
        Collection::Extent(objs) => Ok(objs.clone()),
        Collection::Set(oids) | Collection::List(oids) => {
            oids.iter().map(|&oid| deref(catalog, oid)).collect()
        }
        Collection::NamedObject(o) => Ok(vec![o.clone()]),
        Collection::Empty => Ok(Vec::new()),
    }
}

/// Whether `method` reads a class right side by one extent scan before it
/// probes: backward traversal (the D-side scan of §6.2) and the binary join
/// index (which probes once per right object).
pub fn materializes_class(method: JoinMethod) -> bool {
    matches!(
        method,
        JoinMethod::BackwardTraversal | JoinMethod::BinaryJoinIndex
    )
}

/// A class right side read by one sequential scan of each extent of
/// `classes`, in order, each object decoded to `fields` and kept as the
/// member `bind` makes of it.
pub fn scan_class<R, E: From<CatalogError>>(
    catalog: &Catalog,
    classes: &[String],
    fields: &FieldSet,
    bind: &mut Bind<'_, R, E>,
) -> std::result::Result<HashMap<Oid, Vec<R>>, E> {
    let mut members: HashMap<Oid, Vec<R>> = HashMap::new();
    let mut failed = None;
    let mut visit = |oid, value| failed.is_none() && match bind(oid, value) {
        Ok(member) => {
            members.entry(oid).or_default().extend(member);
            true
        }
        Err(e) => {
            failed = Some(e);
            false
        }
    };
    catalog.extent_fields_with(classes, fields, AccessHint::Sequential, &mut visit)?;
    failed.map_or(Ok(members), Err)
}

/// Materialized right members keyed by the OID `oid_of` reads off each; a
/// member without one joins nothing.
pub fn members_by_oid<R>(
    items: impl IntoIterator<Item = R>,
    oid_of: impl Fn(&R) -> Option<Oid>,
) -> HashMap<Oid, Vec<R>> {
    let mut members: HashMap<Oid, Vec<R>> = HashMap::new();
    for item in items {
        if let Some(oid) = oid_of(&item) {
            members.entry(oid).or_default().push(item);
        }
    }
    members
}

/// Execute `Join(left, right, method, left.attr = right.self)`, handing the
/// pairs `(index into left, right member)` to `emit`: in left order for the
/// traversals, one probe batch at a time, and in left-OID order (a stable
/// sort) for the hash partition and the index, all at once.
///
/// Forward and backward traversal probe in batches of `batch_size` left
/// items and count them in `batch.rows` / `batch.count`. A class right side
/// is scanned up front where [`materializes_class`] says so, and fetched a
/// batch at a time otherwise.
#[allow(clippy::too_many_arguments)]
pub fn join_pairs<R: Clone, E: From<CatalogError>>(
    catalog: &Catalog,
    left: &[LeftObj<'_>],
    attr: &str,
    right: JoinRight<'_, R>,
    method: JoinMethod,
    batch_size: usize,
    bind: &mut Bind<'_, R, E>,
    emit: &mut Emit<'_, R, E>,
) -> std::result::Result<(), E> {
    let right = match right {
        JoinRight::Class { classes, fields, .. } if materializes_class(method) => {
            JoinRight::Members(scan_class(catalog, classes, fields, bind)?)
        }
        right => right,
    };
    match (method, &right) {
        (JoinMethod::BinaryJoinIndex, JoinRight::Members(members)) => {
            emit(&mut indexed(catalog, left, attr, members)?)
        }
        (JoinMethod::HashPartition, _) => {
            emit(&mut hash_partition(catalog, left, attr, &right, bind)?)
        }
        _ => probe(catalog, left, attr, &right, batch_size, bind, emit),
    }
}

/// Where the ordered fetch ([`crate::ind_sel`], the joins) hands each
/// readahead window's objects: the slab they were decoded into, behind
/// whatever the callee left live in it. The callee consumes what it is done
/// with ([`Slab::consume`]); what it leaves stays ahead of the next window's
/// objects.
pub type Window<'w, E> = dyn FnMut(&mut Slab) -> std::result::Result<(), E> + 'w;

/// The one ordered fetch — forward and backward traversal, the hash
/// partition and [`crate::ind_sel`]: the objects among `oids` stored in
/// `files`, each once, decoded to `fields` into `slab`, read in (page, slot)
/// order one readahead window at a time (`prefetch_run`, then one
/// `fetch_records_with`, one pool access per page) and handed to `window`
/// once the window's pages are released, so a caller that dereferences
/// never runs under a pin. An OID that points at nothing is skipped; any
/// other storage failure is the fetch's error, never a shorter result.
pub(crate) fn fetch_targets<E: From<CatalogError>>(
    catalog: &Catalog,
    (files, fields): (&[FileId], &FieldSet),
    oids: &mut Vec<Oid>,
    slab: &mut Slab,
    window: &mut Window<'_, E>,
) -> std::result::Result<(), E> {
    oids.retain(|oid| files.contains(&oid.file));
    oids.sort_unstable();
    oids.dedup();
    // Targets on one page need no page list: a one-page run prefetches
    // nothing.
    let mut pages: Vec<(FileId, PageId)> = Vec::new();
    if oids.first().map(|o| (o.file, o.page)) != oids.last().map(|o| (o.file, o.page)) {
        pages.extend(oids.iter().map(|o| (o.file, o.page)));
        pages.dedup();
    }
    let (pool, mut reader) = (catalog.storage().pool(), catalog.reader(fields));
    let mut rest = oids.as_slice();
    while let Some(first) = rest.first() {
        let (file, page) = (first.file, first.page);
        let run = pool.prefetch_run(&pages, (file, page)).max(1);
        let n = rest.partition_point(|o| o.file == file && o.page.0 < page.0 + run);
        let mut failed = None;
        catalog.fetch_records_with(&rest[..n], &mut |oid, bytes| {
            failed = slab.decode(&mut reader, oid, bytes).err();
            failed.is_none()
        })?;
        failed.map_or(Ok(()), Err)?;
        window(slab)?;
        rest = &rest[n..];
    }
    Ok(())
}

/// The members of `right` that `oid` joins, the class side's from the
/// targets [`fetch_targets`] found for this batch.
fn targets_of<'r, R>(right: &'r JoinRight<'_, R>, fetched: &'r [(Oid, R)], oid: Oid) -> &'r [R] {
    match right {
        JoinRight::Members(members) => members.get(&oid).map_or(&[], Vec::as_slice),
        JoinRight::Class { .. } => match fetched.binary_search_by_key(&oid, |(o, _)| *o) {
            Ok(k) => std::slice::from_ref(&fetched[k].1),
            Err(_) => &[],
        },
    }
}

/// The members `bind` makes of one fetched window, appended to `out`; each
/// object is bound whole, out of its slot.
fn bind_window<R, E>(
    bind: &mut Bind<'_, R, E>,
    slab: &mut Slab,
    out: &mut Vec<(Oid, R)>,
) -> std::result::Result<(), E> {
    for (oid, value) in slab.objects() {
        out.extend(bind(*oid, mem::replace(value, Value::Null))?.map(|r| (*oid, r)));
    }
    slab.consume(slab.len());
    Ok(())
}

/// Forward and backward traversal (§6.1, §6.2): the left items in batches of
/// `batch_size`, each reference chased into the right side.
///
/// A class right side is read per batch: the batch's distinct targets are
/// fetched once each, in page order ([`fetch_targets`]); at batch size 1
/// every reference pays its own fetch, the paper's pattern.
fn probe<R: Clone, E: From<CatalogError>>(
    catalog: &Catalog,
    left: &[LeftObj<'_>],
    attr: &str,
    right: &JoinRight<'_, R>,
    batch_size: usize,
    bind: &mut Bind<'_, R, E>,
    emit: &mut Emit<'_, R, E>,
) -> std::result::Result<(), E> {
    let batch_size = batch_size.max(1);
    let registry = catalog.storage().registry();
    let mut out = Vec::new();
    let (mut oids, mut fetched, mut slab) = (Vec::new(), Vec::new(), Slab::default());
    for (b, chunk) in left.chunks(batch_size).enumerate() {
        if let JoinRight::Class { files, fields, .. } = right {
            oids.clear();
            oids.extend(chunk.iter().flat_map(|(_, value)| refs_of(value, attr)));
            fetched.clear();
            let window = &mut |w: &mut _| bind_window(bind, w, &mut fetched);
            fetch_targets(catalog, (files, fields), &mut oids, &mut slab, window)?;
        }
        for (i, (_, value)) in chunk.iter().enumerate() {
            let at = b * batch_size + i;
            for oid in refs_of(value, attr) {
                out.extend(targets_of(right, &fetched, oid).iter().map(|r| (at, r.clone())));
            }
        }
        registry.add(Metric::BatchRows, chunk.len() as u64);
        registry.add(Metric::BatchCount, 1);
        emit(&mut out)?;
    }
    Ok(())
}

/// Pointer-based hash-partition join (§6.4): the left items partitioned on
/// the references they hold — `(target, left index)` pairs sorted by target
/// — then each *distinct* target chased once, in OID order, and paired with
/// its whole partition. Set- and list-valued references are flattened: each
/// member reference is a partition key (DESIGN.md §4c; the paper restricts
/// the method to a plain Reference).
fn hash_partition<R: Clone, E: From<CatalogError>>(
    catalog: &Catalog,
    left: &[LeftObj<'_>],
    attr: &str,
    right: &JoinRight<'_, R>,
    bind: &mut Bind<'_, R, E>,
) -> std::result::Result<Vec<(usize, R)>, E> {
    let mut partitions: Vec<(Oid, usize)> = Vec::new();
    for (i, (_, value)) in left.iter().enumerate() {
        partitions.extend(refs_of(value, attr).map(|oid| (oid, i)));
    }
    partitions.sort_unstable();
    let mut fetched = Vec::new();
    if let JoinRight::Class { files, fields, .. } = right {
        let mut oids: Vec<Oid> = partitions.iter().map(|&(oid, _)| oid).collect();
        let window = &mut |w: &mut _| bind_window(bind, w, &mut fetched);
        fetch_targets(catalog, (files, fields), &mut oids, &mut Slab::default(), window)?;
    }
    let mut out = Vec::new();
    for (oid, group) in partitions.chunk_by(|a, b| a.0 == b.0).map(|g| (g[0].0, g)) {
        for r in targets_of(right, &fetched, oid) {
            out.extend(group.iter().map(|&(_, i)| (i, r.clone())));
        }
    }
    out.sort_by_key(|&(i, _)| left[i].0);
    Ok(out)
}

/// Indexed join through the *binary join index* on (left class, `attr`)
/// (§6.3): each right member's OID, ascending, probed once for the left
/// objects that reference it. The left class is the class whose extent
/// holds the first left object, and the index covers that class's own
/// extent; a missing index is the catalog's `UnknownIndex` error at the
/// first probe.
fn indexed<R: Clone, E: From<CatalogError>>(
    catalog: &Catalog,
    left: &[LeftObj<'_>],
    attr: &str,
    members: &HashMap<Oid, Vec<R>>,
) -> std::result::Result<Vec<(usize, R)>, E> {
    let Some(first) = left.iter().find_map(|(oid, _)| *oid) else {
        return Ok(Vec::new());
    };
    let dangling = || CatalogError::Storage(StorageError::DanglingOid(first));
    let left_class = catalog.class_of_oid(first).ok_or_else(dangling)?;
    let mut by_oid: HashMap<Oid, Vec<usize>> = HashMap::new();
    for (i, (oid, _)) in left.iter().enumerate() {
        if let Some(oid) = oid {
            by_oid.entry(*oid).or_default().push(i);
        }
    }
    let mut keys: Vec<&Oid> = members.keys().collect();
    keys.sort();
    let mut out = Vec::new();
    for key in keys {
        for l_oid in catalog.index_lookup(&left_class, attr, &Value::Ref(*key))? {
            for &i in by_oid.get(&l_oid).into_iter().flatten() {
                out.extend(members[key].iter().map(|r| (i, r.clone())));
            }
        }
    }
    out.sort_by_key(|&(i, _)| left[i].0);
    Ok(out)
}

/// `Join(left, rhs, method, left.attr = rhs.self)` over collections: the
/// joined object pairs, ordered as [`join_pairs`] orders them. A class rhs
/// is decoded whole; a collection rhs is materialized first. The
/// [`ExecutionConfig`] supplies the probe batch size.
pub fn join(
    catalog: &Catalog,
    left: &Collection,
    attr: &str,
    rhs: JoinRhs<'_>,
    method: JoinMethod,
    exec: ExecutionConfig,
) -> Result<Vec<(Obj, Obj)>> {
    let left_objs = materialize(catalog, left)?;
    let all = FieldSet::All;
    let (classes, files);
    let right = match rhs {
        JoinRhs::Class(class) => {
            classes = catalog.every_classes(class, &[]);
            files = catalog.extent_files(&classes);
            JoinRight::Class {
                classes: &classes,
                files: &files,
                fields: &all,
            }
        }
        JoinRhs::Collection(c) => {
            JoinRight::Members(members_by_oid(materialize(catalog, c)?, |o| o.oid))
        }
    };
    let probes: Vec<LeftObj<'_>> = left_objs.iter().map(|o| (o.oid, &o.value)).collect();
    let mut bind = |oid, value| -> Result<_> { Ok(Some(Obj::stored(oid, value))) };
    let mut pairs = Vec::new();
    let mut emit = |batch: &mut Vec<(usize, Obj)>| -> Result<()> {
        pairs.extend(batch.drain(..).map(|(i, r)| (left_objs[i].clone(), r)));
        Ok(())
    };
    let batch = exec.batch_size;
    join_pairs(catalog, &probes, attr, right, method, batch, &mut bind, &mut emit)?;
    Ok(pairs)
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
    use crate::error::AlgebraError;
    use crate::ops::bind_class;
    use mood_catalog::ClassBuilder;
    use mood_datamodel::TypeDescriptor;
    use mood_storage::StorageManager;
    use std::collections::HashSet;
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

    /// 24 targets padded to three a heap page, each referenced twice by a
    /// left side materialized up front (in an order that alternates pages),
    /// so the join is all the pool sees: the page count the targets span.
    fn targets_on_pages() -> (Arc<Catalog>, Collection, u64) {
        let sm = Arc::new(StorageManager::in_memory());
        let cat = Arc::new(Catalog::create(sm).unwrap());
        let pad = TypeDescriptor::string();
        cat.define_class(ClassBuilder::class("T").attribute("pad", pad))
            .unwrap();
        let t_ref = TypeDescriptor::reference("T");
        cat.define_class(ClassBuilder::class("L").attribute("t", t_ref))
            .unwrap();
        let pad = Value::string("x".repeat(1000));
        let targets: Vec<Oid> = (0..24)
            .map(|_| {
                let value = Value::tuple(vec![("pad", pad.clone())]);
                cat.new_object("T", value).unwrap()
            })
            .collect();
        let left = targets.iter().rev().chain(&targets).map(|&t| {
            let value = Value::tuple(vec![("t", Value::Ref(t))]);
            Obj::stored(cat.new_object("L", value.clone()).unwrap(), value)
        });
        let left = Collection::Extent(left.collect());
        let pages: HashSet<_> = targets.iter().map(|o| (o.file, o.page)).collect();
        (cat, left, pages.len() as u64)
    }

    /// Pool accesses (hits + misses) of one `left.t = T.self` join.
    fn pool_accesses(cat: &Catalog, left: &Collection, method: JoinMethod) -> u64 {
        let metrics = cat.storage().metrics();
        let before = metrics.snapshot();
        let pairs = join(cat, left, "t", JoinRhs::Class("T"), method, ExecutionConfig::default());
        assert_eq!(pairs.unwrap().len(), 48, "{method:?}");
        let delta = metrics.snapshot().delta(&before);
        delta.buffer_hits + delta.buffer_misses
    }

    #[test]
    fn a_forward_probe_batch_accesses_each_target_page_once() {
        let (cat, left, pages) = targets_on_pages();
        assert!(pages > 1 && pages < 24, "{pages} pages");
        // 48 references to 24 targets on `pages` pages: one access a page.
        assert_eq!(pool_accesses(&cat, &left, JoinMethod::ForwardTraversal), pages);
    }

    #[test]
    fn a_hash_partition_accesses_each_target_page_once() {
        let (cat, left, pages) = targets_on_pages();
        assert_eq!(pool_accesses(&cat, &left, JoinMethod::HashPartition), pages);
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
        assert!(
            matches!(err, AlgebraError::Catalog(CatalogError::UnknownIndex { .. })),
            "{err}"
        );
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
    fn set_valued_references_join_one_pair_per_member() {
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
        // Hash partition flattens the set as the traversals do (the paper
        // restricts it to a plain Reference; the optimizer may pick it for
        // a set-valued edge).
        for method in [
            JoinMethod::ForwardTraversal,
            JoinMethod::BackwardTraversal,
            JoinMethod::HashPartition,
        ] {
            let pairs = join(
                &cat,
                &left,
                "vehicles",
                JoinRhs::Class("Vehicle"),
                method,
                ExecutionConfig::default(),
            )
            .unwrap();
            let ids: Vec<_> = pairs.iter().map(|(l, r)| (l.oid, r.oid)).collect();
            let want = vec![(Some(fleet), Some(cars[0].0)), (Some(fleet), Some(cars[1].0))];
            assert_eq!(ids, want, "{method:?}");
        }
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
