//! General and collection operators (Section 3.2): `ObjId`, `TypeId`,
//! `Deref`, `isA`, `Bind`, `Select`, `IndSel`.

use std::cmp::Ordering;

use mood_catalog::{Catalog, CatalogError, TypeId};
use mood_cost::Theta;
use mood_datamodel::{FieldSet, Value};
use mood_storage::{AccessHint, FileId, Oid};

use crate::collection::{Collection, Obj};
use crate::error::{AlgebraError, Result};
use crate::join::{fetch_targets, Window};
use crate::slab::Slab;

/// A predicate over one object.
pub type Predicate<'a> = &'a dyn Fn(&Obj) -> Result<bool>;

/// `ObjId(o)` — the object identifier of `o`.
pub fn obj_id(o: &Obj) -> Option<Oid> {
    o.oid
}

/// `TypeId(o)` — the type identifier of `o` ("every object in MOOD has a
/// type associated with it"). Stored objects resolve through the catalog;
/// transient tuples have no registered type.
pub fn type_id(catalog: &Catalog, o: &Obj) -> Result<Option<TypeId>> {
    match o.oid {
        Some(oid) => {
            let (class, _) = catalog.get_object(oid)?;
            Ok(Some(catalog.type_id(&class)?))
        }
        None => Ok(None),
    }
}

/// `Deref(oid)` — the object with identifier `oid`.
pub fn deref(catalog: &Catalog, oid: Oid) -> Result<Obj> {
    let (_, value) = catalog.get_object(oid)?;
    Ok(Obj::stored(oid, value))
}

/// `isA(path)` — the class name of the last attribute of a path expression
/// starting with a class name, e.g. `isA("Vehicle.drivetrain.engine") =
/// "VehicleEngine"`.
pub fn is_a(catalog: &Catalog, path: &str) -> Result<String> {
    let mut segments = path.split('.');
    let mut class = segments
        .next()
        .ok_or_else(|| AlgebraError::NotApplicable {
            operator: "isA",
            detail: "empty path".into(),
        })?
        .to_string();
    catalog.class(&class)?; // the head must be a class name
    for attr in segments {
        let attrs = catalog.effective_attributes(&class)?;
        let a = attrs.iter().find(|a| a.name == attr).ok_or_else(|| {
            AlgebraError::Catalog(mood_catalog::CatalogError::UnknownAttribute {
                class: class.clone(),
                attribute: attr.to_string(),
            })
        })?;
        match a.ty.referenced_class() {
            Some(target) => class = target.to_string(),
            None => {
                return Err(AlgebraError::NotApplicable {
                    operator: "isA",
                    detail: format!("{class}.{attr} is not a reference attribute"),
                })
            }
        }
    }
    Ok(class)
}

/// `Bind(arg, aName)` — the naming operator: gives `aName` to an object
/// (named objects) or, for the common query-plan usage `BIND(Class, var)`,
/// materializes the class extent under a range variable (the plan printer
/// in the optimizer crate renders that form).
pub fn bind(catalog: &Catalog, arg: &Collection, name: &str) -> Result<Collection> {
    if let Collection::NamedObject(obj) = arg {
        if let Some(oid) = obj.oid {
            catalog.name_object(name, oid);
        }
    }
    Ok(arg.clone())
}

/// Materialize a class extent as a collection — the evaluation of
/// `BIND(Class, v)` in the paper's access plans. `every` includes subclass
/// extents; `minus` excludes classes (the `-` FROM-clause operator).
pub fn bind_class(
    catalog: &Catalog,
    class: &str,
    every: bool,
    minus: &[String],
) -> Result<Collection> {
    // Stream the extent straight into the collection (no intermediate
    // (oid, value) vector); the heap scan underneath runs with the
    // Sequential hint, so it gets readahead and scan-resistant frames.
    let mut objs = Vec::new();
    let mut push = |oid: Oid, v: Value| {
        objs.push(Obj::stored(oid, v));
        true
    };
    let classes = match every {
        true => catalog.every_classes(class, minus),
        false => vec![class.to_string()],
    };
    catalog.extent_fields_with(&classes, &FieldSet::All, AccessHint::Sequential, &mut push)?;
    Ok(Collection::Extent(objs))
}

/// `Select(arg, P)` — keep the elements satisfying `P` (Table 1 return
/// types). Set/list elements are dereferenced to evaluate the predicate.
/// One [`compact`] pass on the caller's thread: `P` runs once per element,
/// in input order, and its first error ends the pass.
pub fn select(catalog: &Catalog, arg: &Collection, p: Predicate<'_>) -> Result<Collection> {
    Ok(match arg {
        Collection::Extent(objs) => {
            let mut kept: Vec<&Obj> = objs.iter().collect();
            let n = compact(&mut kept, |o| p(o))?;
            Collection::Extent(kept[..n].iter().map(|&o| o.clone()).collect())
        }
        Collection::Set(oids) | Collection::List(oids) => {
            let mut kept = oids.clone();
            let n = compact(&mut kept, |&oid| p(&deref(catalog, oid)?))?;
            kept.truncate(n);
            if matches!(arg, Collection::Set(_)) {
                Collection::set_from(kept)
            } else {
                Collection::List(kept)
            }
        }
        Collection::NamedObject(obj) => {
            if p(obj)? {
                Collection::NamedObject(obj.clone())
            } else {
                Collection::Empty
            }
        }
        Collection::Empty => Collection::Empty,
    })
}

/// The loop behind every Select: move the items `keep` admits to the front
/// of `items`, in order, and return how many there are; the rejected ones
/// stay behind them, for the caller to reuse. `keep` runs once per item, in
/// order, and its first error ends the pass.
// Inline: MOODSQL's filtered scan runs it on every batch from another
// crate, and a codegen-unit split on that path once cost ~20 % (`compiled.rs`).
#[inline]
pub fn compact<T, E>(
    items: &mut [T],
    mut keep: impl FnMut(&T) -> std::result::Result<bool, E>,
) -> std::result::Result<usize, E> {
    let mut kept = 0;
    for i in 0..items.len() {
        if keep(&items[i])? {
            items.swap(kept, i);
            kept += 1;
        }
    }
    Ok(kept)
}

/// An indexed attribute (a dotted path for a path index) and its bounds.
pub type AttrBounds<'a> = (&'a str, Vec<(Theta, &'a Value)>);

/// `IndSel(arg, BTREE, P)` on a class: the objects stored in `files` that
/// the conjunction of `bounds` selects, decoded to `fields` into `slab` and
/// handed to `window` in ascending OID order by the joins' ordered fetch,
/// one readahead window at a time. Each attribute's bounds merge into one
/// interval (the greatest lower and least upper bound, `=` being both),
/// walked once; several attributes intersect. A stale index entry is
/// skipped when its object is gone and fetched when it changed, so a
/// caller that needs exact answers re-verifies the bounds.
pub fn ind_sel<E: From<CatalogError> + From<AlgebraError>>(
    catalog: &Catalog,
    class: &str,
    bounds: &[AttrBounds<'_>],
    right: (&[FileId], &FieldSet),
    slab: &mut Slab,
    window: &mut Window<'_, E>,
) -> std::result::Result<(), E> {
    let mut oids: Option<Vec<Oid>> = None;
    for (attr, ops) in bounds {
        let hits = interval_oids(catalog, class, attr, ops)?;
        match &mut oids {
            None => oids = Some(hits),
            Some(prev) => prev.retain(|oid| hits.binary_search(oid).is_ok()),
        }
    }
    fetch_targets(catalog, right, &mut oids.unwrap_or_default(), slab, window)
}

/// The OIDs, ascending and each once, the index on `class.attr` files
/// under the keys (compared encoded) every bound of `ops` admits.
fn interval_oids(
    catalog: &Catalog,
    class: &str,
    attr: &str,
    ops: &[(Theta, &Value)],
) -> Result<Vec<Oid>> {
    if ops.iter().any(|&(theta, _)| theta == Theta::Ne) {
        let detail = "<> cannot use an index".into();
        return Err(AlgebraError::NotApplicable { operator: "IndSel", detail });
    }
    let unknown = || CatalogError::UnknownIndex { class: class.into(), attribute: attr.into() };
    let info = catalog.index(class, attr).ok_or_else(unknown)?;
    let keys = ops.iter().map(|(_, v)| Catalog::index_bound(&info, v));
    let keys: Vec<Vec<u8>> = keys.collect::<std::result::Result<_, _>>()?;
    type Bound<'k> = Option<(&'k [u8], bool)>;
    // The tighter of two bounds on one side; on equal keys the exclusive.
    fn tighten<'k>(side: &mut Bound<'k>, new: (&'k [u8], bool), tighter: Ordering) {
        let replace = side.is_none_or(|old| match new.0.cmp(old.0) {
            Ordering::Equal => !new.1,
            other => other == tighter,
        });
        if replace {
            *side = Some(new);
        }
    }
    let (mut lo, mut hi): (Bound<'_>, Bound<'_>) = (None, None);
    for (&(theta, _), key) in ops.iter().zip(&keys) {
        let inclusive = matches!(theta, Theta::Eq | Theta::Ge | Theta::Le);
        if matches!(theta, Theta::Eq | Theta::Gt | Theta::Ge) {
            tighten(&mut lo, (key, inclusive), Ordering::Greater);
        }
        if matches!(theta, Theta::Eq | Theta::Lt | Theta::Le) {
            tighten(&mut hi, (key, inclusive), Ordering::Less);
        }
    }
    let mut oids = Vec::new();
    catalog.index_interval_with(&info, lo, hi, &mut |oid| {
        oids.push(oid);
        true
    })?;
    // A path index files one object under every value its path reaches.
    oids.sort_unstable();
    oids.dedup();
    Ok(oids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Kind;
    use mood_catalog::ClassBuilder;
    use mood_datamodel::TypeDescriptor;
    use mood_storage::StorageManager;
    use std::cell::{Cell, RefCell};
    use std::sync::Arc;

    fn setup() -> (Arc<Catalog>, Vec<Oid>) {
        let sm = Arc::new(StorageManager::in_memory());
        let cat = Arc::new(Catalog::create(sm).unwrap());
        cat.define_class(
            ClassBuilder::class("VehicleEngine")
                .attribute("size", TypeDescriptor::integer())
                .attribute("cylinders", TypeDescriptor::integer()),
        )
        .unwrap();
        cat.define_class(
            ClassBuilder::class("Vehicle")
                .attribute("id", TypeDescriptor::integer())
                .attribute("engine", TypeDescriptor::reference("VehicleEngine")),
        )
        .unwrap();
        let mut oids = Vec::new();
        for i in 0..10 {
            oids.push(
                cat.new_object(
                    "VehicleEngine",
                    Value::tuple(vec![
                        ("size", Value::Integer(1000 + i * 100)),
                        ("cylinders", Value::Integer(2 + (i % 4) * 2)),
                    ]),
                )
                .unwrap(),
            );
        }
        (cat, oids)
    }

    #[test]
    fn deref_and_obj_id_roundtrip() {
        let (cat, oids) = setup();
        let o = deref(&cat, oids[3]).unwrap();
        assert_eq!(obj_id(&o), Some(oids[3]));
        assert_eq!(o.value.field("size"), Some(&Value::Integer(1300)));
    }

    #[test]
    fn type_id_of_stored_and_transient() {
        let (cat, oids) = setup();
        let o = deref(&cat, oids[0]).unwrap();
        let tid = type_id(&cat, &o).unwrap().unwrap();
        assert_eq!(cat.type_name(tid).unwrap(), "VehicleEngine");
        assert_eq!(
            type_id(&cat, &Obj::transient(Value::Integer(1))).unwrap(),
            None
        );
    }

    #[test]
    fn is_a_walks_reference_path() {
        let (cat, _) = setup();
        assert_eq!(is_a(&cat, "Vehicle").unwrap(), "Vehicle");
        assert_eq!(is_a(&cat, "Vehicle.engine").unwrap(), "VehicleEngine");
        assert!(
            is_a(&cat, "Vehicle.engine.cylinders").is_err(),
            "atomic tail"
        );
        assert!(is_a(&cat, "Nope").is_err());
    }

    #[test]
    fn select_on_extent_filters() {
        let (cat, _) = setup();
        let extent = bind_class(&cat, "VehicleEngine", false, &[]).unwrap();
        let big = select(&cat, &extent, &|o: &Obj| {
            Ok(o.value
                .field("size")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
                >= 1500.0)
        })
        .unwrap();
        assert_eq!(big.kind(), Some(Kind::Extent));
        assert_eq!(big.len(), 5);
    }

    #[test]
    fn select_calls_its_predicate_once_per_element_in_order() {
        let (cat, oids) = setup();
        let extent = bind_class(&cat, "VehicleEngine", false, &[]).unwrap();
        let list = Collection::List([&oids[5..], &oids[..7]].concat());
        for arg in [&extent, &list] {
            let input = arg.oids();
            let seen = RefCell::new(Vec::new());
            let p = |o: &Obj| {
                seen.borrow_mut().push(o.oid.unwrap());
                Ok(seen.borrow().len() % 2 == 0)
            };
            let out = select(&cat, arg, &p).unwrap();
            assert_eq!(*seen.borrow(), input, "{:?}", arg.kind());
            let odd = input.iter().skip(1).step_by(2).copied().collect::<Vec<_>>();
            assert_eq!(out.oids(), odd, "{:?}", arg.kind());
            // A predicate that fails at element k: that error, after k + 1 calls.
            for k in [0, 3, input.len() - 1] {
                let calls = Cell::new(0);
                let p = |_: &Obj| {
                    calls.set(calls.get() + 1);
                    if calls.get() == k + 1 {
                        let detail = format!("element {k}");
                        return Err(AlgebraError::NotApplicable { operator: "Select", detail });
                    }
                    Ok(true)
                };
                let err = select(&cat, arg, &p).unwrap_err();
                assert!(err.to_string().contains(&format!("element {k}")), "{err}");
                assert_eq!(calls.get(), k + 1, "{:?} k={k}", arg.kind());
            }
        }
    }

    #[test]
    fn select_on_set_derefs_and_keeps_kind() {
        let (cat, oids) = setup();
        let set = Collection::set_from(oids.clone());
        let even = select(&cat, &set, &|o: &Obj| {
            Ok(matches!(o.value.field("cylinders"), Some(Value::Integer(c)) if *c == 4))
        })
        .unwrap();
        assert_eq!(even.kind(), Some(Kind::Set));
        assert!(!even.is_empty());
    }

    #[test]
    fn select_on_named_object() {
        let (cat, oids) = setup();
        let named = Collection::NamedObject(deref(&cat, oids[0]).unwrap());
        let kept = select(&cat, &named, &|_| Ok(true)).unwrap();
        assert_eq!(kept.kind(), Some(Kind::NamedObject));
        let dropped = select(&cat, &named, &|_| Ok(false)).unwrap();
        assert_eq!(dropped, Collection::Empty);
    }

    #[test]
    fn bind_names_objects() {
        let (cat, oids) = setup();
        let named = Collection::NamedObject(deref(&cat, oids[2]).unwrap());
        bind(&cat, &named, "flagship").unwrap();
        assert_eq!(cat.named_object("flagship"), Some(oids[2]));
    }

    /// The OIDs `ind_sel` hands over for `bounds` on VehicleEngine, each
    /// window's in order, and the number of windows.
    fn ind_sel_oids(cat: &Catalog, bounds: &[AttrBounds<'_>]) -> Result<(Vec<Oid>, usize)> {
        let files = cat.extent_files(&["VehicleEngine".to_string()]);
        let (mut oids, mut windows) = (Vec::new(), 0);
        let mut window = |slab: &mut Slab| {
            oids.extend(slab.objects().iter().map(|(oid, _)| *oid));
            slab.consume(slab.len());
            windows += 1;
            Ok(())
        };
        let right = (files.as_slice(), &FieldSet::All);
        let slab = &mut Slab::default();
        ind_sel::<AlgebraError>(cat, "VehicleEngine", bounds, right, slab, &mut window)?;
        Ok((oids, windows))
    }

    #[test]
    fn ind_sel_equality_and_range() {
        let (cat, _) = setup();
        cat.create_index("VehicleEngine", "cylinders", false).unwrap();
        let cylinders = |o: Oid| match deref(&cat, o).unwrap().value.field("cylinders") {
            Some(Value::Integer(c)) => *c,
            other => panic!("{other:?}"),
        };
        let four = Value::Integer(4);
        let (eq, _) = ind_sel_oids(&cat, &[("cylinders", vec![(Theta::Eq, &four)])]).unwrap();
        assert!(eq.len() >= 2);
        assert!(eq.windows(2).all(|w| w[0] < w[1]), "ascending OIDs, each once");
        assert!(eq.iter().all(|&o| cylinders(o) == 4));
        let (gt, _) = ind_sel_oids(&cat, &[("cylinders", vec![(Theta::Gt, &four)])]).unwrap();
        assert!(!gt.is_empty() && gt.iter().all(|&o| cylinders(o) > 4));
        // Two bounds on one attribute merge into one interval: (2, 8] ∩ [4, 6).
        let (two, six, eight) = (Value::Integer(2), Value::Integer(6), Value::Integer(8));
        let ops =
            vec![(Theta::Gt, &two), (Theta::Le, &eight), (Theta::Ge, &four), (Theta::Lt, &six)];
        let (range, _) = ind_sel_oids(&cat, &[("cylinders", ops)]).unwrap();
        assert_eq!(range, eq);
        // Two attributes intersect.
        cat.create_index("VehicleEngine", "size", false).unwrap();
        let big = Value::Integer(1500);
        let bounds = [("cylinders", vec![(Theta::Eq, &four)]), ("size", vec![(Theta::Ge, &big)])];
        let (both, _) = ind_sel_oids(&cat, &bounds).unwrap();
        assert!(!both.is_empty() && both.len() < eq.len(), "{both:?} of {eq:?}");
        assert!(both.iter().all(|o| eq.contains(o)));
        // <> cannot use an index.
        assert!(ind_sel_oids(&cat, &[("cylinders", vec![(Theta::Ne, &four)])]).is_err());
    }

    /// 300 objects padded to three a heap page — 100 contiguous pages —
    /// indexed on `id`; the interval `30 <= id < 270` spans 80 of them. A
    /// 64-frame pool reads 32-page windows, so the interval takes three.
    fn padded_extent() -> (Arc<Catalog>, u64) {
        let sm = Arc::new(StorageManager::in_memory_with_pool(64));
        let cat = Arc::new(Catalog::create(sm).unwrap());
        cat.define_class(
            ClassBuilder::class("VehicleEngine")
                .attribute("id", TypeDescriptor::integer())
                .attribute("pad", TypeDescriptor::string()),
        )
        .unwrap();
        cat.create_index("VehicleEngine", "id", true).unwrap();
        let pad = Value::string("x".repeat(1000));
        let mut pages = std::collections::HashSet::new();
        for i in 0..300 {
            let value = Value::tuple(vec![("id", Value::Integer(i)), ("pad", pad.clone())]);
            let oid = cat.new_object("VehicleEngine", value).unwrap();
            if (30..270).contains(&i) {
                pages.insert(oid.page);
            }
        }
        (cat, pages.len() as u64)
    }

    #[test]
    fn an_ind_sel_interval_reads_each_heap_page_once_a_window_a_call() {
        let (cat, pages) = padded_extent();
        assert_eq!(pages, 80, "three objects a page");
        let (lo, hi) = (Value::Integer(30), Value::Integer(270));
        let bounds = [("id", vec![(Theta::Ge, &lo), (Theta::Lt, &hi)])];
        let metrics = cat.storage().metrics();
        let pool = cat.storage().pool();
        let k = pool.readahead_window() as u64;
        assert!(k >= 2 && pages > 2 * k, "window {k}");
        // The leaf walk alone, its pages resident from here on.
        let info = cat.index("VehicleEngine", "id").unwrap();
        let (lo_key, hi_key) = (Catalog::index_bound(&info, &lo), Catalog::index_bound(&info, &hi));
        let (lo_key, hi_key) = (lo_key.unwrap(), hi_key.unwrap());
        let before = metrics.snapshot();
        let walk = &mut |_| true;
        cat.index_interval_with(&info, Some((&lo_key, true)), Some((&hi_key, false)), walk)
            .unwrap();
        let leaf_walk = metrics.snapshot().delta(&before);
        let leaf_walk = leaf_walk.buffer_hits + leaf_walk.buffer_misses;
        // Cold heap: one device call per readahead window, every page read.
        pool.flush_all().unwrap();
        pool.discard_file(cat.extent_files(&["VehicleEngine".to_string()])[0]);
        let before = metrics.snapshot();
        let (oids, windows) = ind_sel_oids(&cat, &bounds).unwrap();
        let cold = metrics.snapshot().delta(&before);
        assert_eq!(oids.len(), 240);
        assert_eq!(windows as u64, pages.div_ceil(k), "{cold:?}");
        assert_eq!((cold.seq_batches, cold.seq_pages), (pages.div_ceil(k), pages), "{cold:?}");
        assert_eq!(cold.rnd_pages, 0, "{cold:?}");
        // Warm: the leaf walk's accesses and one access per heap page.
        let before = metrics.snapshot();
        ind_sel_oids(&cat, &bounds).unwrap();
        let warm = metrics.snapshot().delta(&before);
        assert_eq!(warm.buffer_hits + warm.buffer_misses, leaf_walk + pages, "{warm:?}");
    }

    #[test]
    fn bind_class_every_includes_subclasses() {
        let (cat, _) = setup();
        cat.define_class(ClassBuilder::class("ElectricEngine").inherits("VehicleEngine"))
            .unwrap();
        cat.new_object(
            "ElectricEngine",
            Value::tuple(vec![("size", Value::Integer(1))]),
        )
        .unwrap();
        assert_eq!(
            bind_class(&cat, "VehicleEngine", false, &[]).unwrap().len(),
            10
        );
        assert_eq!(
            bind_class(&cat, "VehicleEngine", true, &[]).unwrap().len(),
            11
        );
        let minus =
            bind_class(&cat, "VehicleEngine", true, &["ElectricEngine".to_string()]).unwrap();
        assert_eq!(minus.len(), 10);
    }
}
