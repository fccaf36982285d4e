//! General and collection operators (Section 3.2): `ObjId`, `TypeId`,
//! `Deref`, `isA`, `Bind`, `Select`, `IndSel`.

use mood_catalog::{Catalog, TypeId};
use mood_datamodel::Value;
use mood_storage::exec::{run_chunked, ExecutionConfig};
use mood_storage::{AccessHint, Oid};

use crate::collection::{Collection, Obj};
use crate::error::{AlgebraError, Result};

/// A predicate over one object. `Sync`, because [`select`] evaluates it
/// from every worker the [`ExecutionConfig`] asks for.
pub type Predicate<'a> = &'a (dyn Fn(&Obj) -> Result<bool> + Sync);

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
    if every {
        catalog.extent_every_with(class, minus, AccessHint::Sequential, &mut push)?;
    } else {
        catalog.extent_with(class, AccessHint::Sequential, &mut push)?;
    }
    Ok(Collection::Extent(objs))
}

/// `Select(arg, P)` — keep the elements satisfying `P` (Table 1 return
/// types). Set/list elements are dereferenced to evaluate the predicate.
///
/// The input is split into `exec.parallelism` contiguous chunks filtered on
/// worker threads and concatenated in chunk order, so survivors appear in
/// input order at every parallelism; at 1 the single chunk runs inline on
/// the caller's thread, which is the sequential loop.
pub fn select(
    catalog: &Catalog,
    arg: &Collection,
    p: Predicate<'_>,
    exec: ExecutionConfig,
) -> Result<Collection> {
    Ok(match arg {
        Collection::Extent(objs) => {
            let out = run_chunked(exec.parallelism, objs, |_, chunk| {
                let mut keep = Vec::new();
                for o in chunk {
                    if p(o)? {
                        keep.push(o.clone());
                    }
                }
                Ok::<_, AlgebraError>(keep)
            })?;
            Collection::Extent(out)
        }
        Collection::Set(oids) | Collection::List(oids) => {
            let out = run_chunked(exec.parallelism, oids, |_, chunk| {
                let mut keep = Vec::new();
                for &oid in chunk {
                    let o = deref(catalog, oid)?;
                    if p(&o)? {
                        keep.push(oid);
                    }
                }
                Ok::<_, AlgebraError>(keep)
            })?;
            if matches!(arg, Collection::Set(_)) {
                Collection::set_from(out)
            } else {
                Collection::List(out)
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

/// Index type selector for `IndSel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexType {
    BTree,
    Hash,
}

/// `IndSel(arg, index_type, P)` — index-assisted selection on an extent:
/// returns a *set of object identifiers* (the paper's stated return type).
/// `P` here is the simple predicate ⟨attribute, θ, constant⟩ an index can
/// serve: equality for both index types, ranges for B+-trees.
pub fn ind_sel(
    catalog: &Catalog,
    class: &str,
    _index_type: IndexType,
    attribute: &str,
    theta: mood_cost::Theta,
    constant: &Value,
) -> Result<Collection> {
    use mood_cost::Theta;
    // One interval per θ; `=` is `[c, c]`.
    let (at, below) = (Some((constant, true)), Some((constant, false)));
    let (lo, hi) = match theta {
        Theta::Eq => (at, at),
        Theta::Lt => (None, below),
        Theta::Le => (None, at),
        Theta::Gt => (below, None),
        Theta::Ge => (at, None),
        Theta::Ne => {
            return Err(AlgebraError::NotApplicable {
                operator: "IndSel",
                detail: "<> cannot use an index".into(),
            })
        }
    };
    let oids = catalog.index_range(class, attribute, lo, hi)?;
    Ok(Collection::set_from(oids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Kind;
    use mood_catalog::ClassBuilder;
    use mood_datamodel::TypeDescriptor;
    use mood_storage::StorageManager;
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
        let big = select(
            &cat,
            &extent,
            &|o: &Obj| {
                Ok(o.value
                    .field("size")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0)
                    >= 1500.0)
            },
            ExecutionConfig::default(),
        )
        .unwrap();
        assert_eq!(big.kind(), Some(Kind::Extent));
        assert_eq!(big.len(), 5);
    }

    #[test]
    fn select_on_set_derefs_and_keeps_kind() {
        let (cat, oids) = setup();
        let set = Collection::set_from(oids.clone());
        let even = select(
            &cat,
            &set,
            &|o: &Obj| Ok(matches!(o.value.field("cylinders"), Some(Value::Integer(c)) if *c == 4)),
            ExecutionConfig::default(),
        )
        .unwrap();
        assert_eq!(even.kind(), Some(Kind::Set));
        assert!(!even.is_empty());
    }

    #[test]
    fn select_on_named_object() {
        let (cat, oids) = setup();
        let named = Collection::NamedObject(deref(&cat, oids[0]).unwrap());
        let kept = select(&cat, &named, &|_| Ok(true), ExecutionConfig::default()).unwrap();
        assert_eq!(kept.kind(), Some(Kind::NamedObject));
        let dropped = select(&cat, &named, &|_| Ok(false), ExecutionConfig::default()).unwrap();
        assert_eq!(dropped, Collection::Empty);
    }

    #[test]
    fn bind_names_objects() {
        let (cat, oids) = setup();
        let named = Collection::NamedObject(deref(&cat, oids[2]).unwrap());
        bind(&cat, &named, "flagship").unwrap();
        assert_eq!(cat.named_object("flagship"), Some(oids[2]));
    }

    #[test]
    fn ind_sel_equality_and_range() {
        let (cat, _) = setup();
        cat.create_index("VehicleEngine", "cylinders", false).unwrap();
        let eq = ind_sel(
            &cat,
            "VehicleEngine",
            IndexType::BTree,
            "cylinders",
            mood_cost::Theta::Eq,
            &Value::Integer(4),
        )
        .unwrap();
        assert_eq!(eq.kind(), Some(Kind::Set));
        assert!(eq.len() >= 2);
        let gt = ind_sel(
            &cat,
            "VehicleEngine",
            IndexType::BTree,
            "cylinders",
            mood_cost::Theta::Gt,
            &Value::Integer(4),
        )
        .unwrap();
        for oid in gt.oids() {
            let o = deref(&cat, oid).unwrap();
            assert!(matches!(o.value.field("cylinders"), Some(Value::Integer(c)) if *c > 4));
        }
        // <> cannot use an index.
        assert!(ind_sel(
            &cat,
            "VehicleEngine",
            IndexType::BTree,
            "cylinders",
            mood_cost::Theta::Ne,
            &Value::Integer(4),
        )
        .is_err());
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
