//! Schema browser and generic object presentation — the headless MoodView.
//!
//! Everything MoodView showed in widgets is rendered as text here: the
//! class designer card (Figure 9.2), the hierarchy browser (Figure 9.1c,
//! via [`crate::dag`]), and the generic object presentation (Figure 9.3) —
//! "MOOD objects constitute graphs connecting atoms and constructors.
//! MoodView has a generic display algorithm for displaying these object
//! graphs and walking through the referenced objects."

use mood_catalog::{Catalog, ClassKind};
use mood_datamodel::Value;
use mood_storage::Oid;

use crate::dag::{place, render_ascii, render_dot, Layout};

/// Compute the hierarchy layout for all classes in the catalog.
pub fn hierarchy_layout(catalog: &Catalog) -> Layout {
    let nodes = catalog.class_names();
    let mut edges = Vec::new();
    for name in &nodes {
        if let Ok(def) = catalog.class(name) {
            for sup in &def.superclasses {
                edges.push((sup.clone(), name.clone()));
            }
        }
    }
    place(&nodes, &edges)
}

/// The class-hierarchy browser, as ASCII.
pub fn render_hierarchy(catalog: &Catalog) -> String {
    render_ascii(&hierarchy_layout(catalog))
}

/// The class hierarchy as Graphviz DOT.
pub fn render_hierarchy_dot(catalog: &Catalog) -> String {
    render_dot(&hierarchy_layout(catalog), "MOOD schema")
}

/// The class-presentation card of Figure 9.2(b): name, type id, kind,
/// superclasses, subclasses, attributes (own + inherited), methods.
pub fn render_class_card(
    catalog: &Catalog,
    class: &str,
) -> Result<String, mood_catalog::CatalogError> {
    let def = catalog.class(class)?;
    let mut out = String::new();
    out.push_str("Class Presentation\n==================\n");
    out.push_str(&format!("Type Name : {}\n", def.name));
    out.push_str(&format!("Type Id   : {}\n", def.type_id));
    out.push_str(&format!(
        "Class Type: {}\n",
        match def.kind {
            ClassKind::Class => "User Class",
            ClassKind::Type => "User Type",
        }
    ));
    out.push_str(&format!(
        "Superclasses: {}\n",
        join_or_dash(&def.superclasses)
    ));
    out.push_str(&format!(
        "Subclasses  : {}\n",
        join_or_dash(&catalog.subclasses(class))
    ));
    out.push_str("Attributes:\n");
    let own: Vec<String> = def.attributes.iter().map(|a| a.name.clone()).collect();
    for attr in catalog.effective_attributes(class)? {
        let marker = if own.contains(&attr.name) { " " } else { "^" }; // ^ inherited
        out.push_str(&format!("  {marker} {:<16} {}\n", attr.name, attr.ty));
    }
    out.push_str("Methods:\n");
    let mut listed = std::collections::HashSet::new();
    for m in &def.methods {
        listed.insert(m.name.clone());
        out.push_str(&format!("    {m}\n"));
    }
    for sup in catalog.superclasses(class) {
        if let Ok(sdef) = catalog.class(&sup) {
            for m in &sdef.methods {
                if listed.insert(m.name.clone()) {
                    out.push_str(&format!("  ^ {m}   (from {sup})\n"));
                }
            }
        }
    }
    Ok(out)
}

fn join_or_dash(items: &[String]) -> String {
    if items.is_empty() {
        "-".to_string()
    } else {
        items.join(", ")
    }
}

/// Generic object presentation (Figure 9.3): walk the object graph from
/// `oid`, rendering name/type/value triplets, following references up to
/// `depth` with cycle detection.
pub fn render_object(catalog: &Catalog, oid: Oid, depth: usize) -> String {
    let mut out = String::new();
    let mut visiting = Vec::new();
    walk(catalog, oid, depth, 0, &mut out, &mut visiting);
    return out;

    fn walk(
        catalog: &Catalog,
        oid: Oid,
        depth: usize,
        indent: usize,
        out: &mut String,
        visiting: &mut Vec<Oid>,
    ) {
        let pad = "  ".repeat(indent);
        if visiting.contains(&oid) {
            out.push_str(&format!("{pad}@{oid} (cycle)\n"));
            return;
        }
        let Ok((class, value)) = catalog.get_object(oid) else {
            out.push_str(&format!("{pad}@{oid} (dangling)\n"));
            return;
        };
        out.push_str(&format!("{pad}{class} @{oid}\n"));
        visiting.push(oid);
        render_value(catalog, &value, depth, indent + 1, out, visiting);
        visiting.pop();
    }

    fn render_value(
        catalog: &Catalog,
        value: &Value,
        depth: usize,
        indent: usize,
        out: &mut String,
        visiting: &mut Vec<Oid>,
    ) {
        let pad = "  ".repeat(indent);
        match value {
            Value::Tuple(fields) => {
                for (name, v) in fields {
                    match v {
                        Value::Ref(target) => {
                            if depth > 0 {
                                out.push_str(&format!("{pad}{name}:\n"));
                                walk(catalog, *target, depth - 1, indent + 1, out, visiting);
                            } else {
                                out.push_str(&format!("{pad}{name}: @{target}\n"));
                            }
                        }
                        Value::Set(_) | Value::List(_) | Value::Tuple(_) => {
                            out.push_str(&format!("{pad}{name}:\n"));
                            render_value(catalog, v, depth, indent + 1, out, visiting);
                        }
                        atom => out.push_str(&format!("{pad}{name}: {atom}\n")),
                    }
                }
            }
            Value::Set(items) | Value::List(items) => {
                for (i, v) in items.iter().enumerate() {
                    match v {
                        Value::Ref(target) if depth > 0 => {
                            out.push_str(&format!("{pad}[{i}]:\n"));
                            walk(catalog, *target, depth - 1, indent + 1, out, visiting);
                        }
                        other => out.push_str(&format!("{pad}[{i}]: {other}\n")),
                    }
                }
            }
            atom => out.push_str(&format!("{pad}{atom}\n")),
        }
    }
}

/// The kernel's cursor buffer protocol (Section 9.4): "a pointer to a
/// buffer area each element of which specifies a name, a type and a value
/// of the object's attributes". MoodView synthesizes widgets from these.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeTriplet {
    pub name: String,
    pub type_name: String,
    pub value: Value,
}

/// Produce the name/type/value triplets for one object.
pub fn object_triplets(
    catalog: &Catalog,
    oid: Oid,
) -> Result<Vec<AttributeTriplet>, mood_catalog::CatalogError> {
    let (class, value) = catalog.get_object(oid)?;
    let attrs = catalog.effective_attributes(&class)?;
    let mut out = Vec::new();
    if let Value::Tuple(fields) = &value {
        for (name, v) in fields {
            let type_name = attrs
                .iter()
                .find(|a| &a.name == name)
                .map(|a| a.ty.to_string())
                .unwrap_or_else(|| "?".to_string());
            out.push(AttributeTriplet {
                name: name.clone(),
                type_name,
                value: v.clone(),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_catalog::ClassBuilder;
    use mood_datamodel::TypeDescriptor;
    use mood_storage::StorageManager;
    use std::sync::Arc;

    fn catalog() -> Arc<Catalog> {
        let sm = Arc::new(StorageManager::in_memory());
        let cat = Arc::new(Catalog::create(sm).unwrap());
        cat.define_class(
            ClassBuilder::class("VehicleEngine").attribute("cylinders", TypeDescriptor::integer()),
        )
        .unwrap();
        cat.define_class(
            ClassBuilder::class("Vehicle")
                .attribute("id", TypeDescriptor::integer())
                .attribute("engine", TypeDescriptor::reference("VehicleEngine"))
                .method(mood_catalog::MethodSig::new(
                    "lbweight",
                    TypeDescriptor::float(),
                    vec![],
                )),
        )
        .unwrap();
        cat.define_class(ClassBuilder::class("Automobile").inherits("Vehicle"))
            .unwrap();
        cat
    }

    #[test]
    fn hierarchy_renders_layers() {
        let cat = catalog();
        let s = render_hierarchy(&cat);
        assert!(s.contains("[Vehicle]"));
        assert!(s.contains("Vehicle --> Automobile"));
        let dot = render_hierarchy_dot(&cat);
        assert!(dot.contains("\"Vehicle\" -> \"Automobile\";"));
    }

    #[test]
    fn class_card_shows_inherited_members() {
        let cat = catalog();
        let card = render_class_card(&cat, "Automobile").unwrap();
        assert!(card.contains("Type Name : Automobile"), "{card}");
        assert!(card.contains("Superclasses: Vehicle"), "{card}");
        assert!(card.contains("^ id"), "inherited attribute marked: {card}");
        assert!(card.contains("lbweight"), "{card}");
        assert!(card.contains("(from Vehicle)"), "{card}");
    }

    #[test]
    fn object_graph_rendering_follows_refs_and_stops_at_depth() {
        let cat = catalog();
        let engine = cat
            .new_object(
                "VehicleEngine",
                Value::tuple(vec![("cylinders", Value::Integer(6))]),
            )
            .unwrap();
        let car = cat
            .new_object(
                "Vehicle",
                Value::tuple(vec![
                    ("id", Value::Integer(1)),
                    ("engine", Value::Ref(engine)),
                ]),
            )
            .unwrap();
        let deep = render_object(&cat, car, 2);
        assert!(deep.contains("Vehicle @"), "{deep}");
        assert!(deep.contains("cylinders: 6"), "{deep}");
        let shallow = render_object(&cat, car, 0);
        assert!(!shallow.contains("cylinders"), "{shallow}");
        assert!(shallow.contains("engine: @"), "{shallow}");
    }

    #[test]
    fn cycles_are_detected() {
        let cat = catalog();
        let sm = cat.storage().clone();
        let _ = sm;
        // Build a self-referential pair via set_stats-free raw updates.
        cat.define_class(
            ClassBuilder::class("Node").attribute("next", TypeDescriptor::reference("Node")),
        )
        .unwrap();
        let a = cat.new_object("Node", Value::tuple(vec![])).unwrap();
        let b = cat
            .new_object("Node", Value::tuple(vec![("next", Value::Ref(a))]))
            .unwrap();
        cat.update_object(a, Value::tuple(vec![("next", Value::Ref(b))]))
            .unwrap();
        let s = render_object(&cat, a, 10);
        assert!(s.contains("(cycle)"), "{s}");
    }

    #[test]
    fn triplets_expose_name_type_value() {
        let cat = catalog();
        let car = cat
            .new_object("Vehicle", Value::tuple(vec![("id", Value::Integer(9))]))
            .unwrap();
        let t = object_triplets(&cat, car).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].name, "id");
        assert_eq!(t[0].type_name, "Integer");
        assert_eq!(t[0].value, Value::Integer(9));
        assert_eq!(t[1].name, "engine");
        assert!(t[1].type_name.contains("REFERENCE"));
    }
}

/// The method-presentation card of Figure 9.2(a): name, return type,
/// parameters, applicable classes, and the body source when the method was
/// defined from source (the method editor reads it back from the Function
/// Manager).
pub fn render_method_card(
    catalog: &Catalog,
    funcman: &mood_funcman::FunctionManager,
    class: &str,
    method: &str,
) -> Result<String, mood_catalog::CatalogError> {
    let (defining, sig) = catalog.resolve_method(class, method)?;
    let mut out = String::new();
    out.push_str("Method Presentation\n===================\n");
    out.push_str(&format!("Name        : {}\n", sig.name));
    out.push_str(&format!("Return Type : {}\n", sig.return_type));
    out.push_str("Parameters  :\n");
    if sig.params.is_empty() {
        out.push_str("  (none)\n");
    }
    for (n, t) in &sig.params {
        out.push_str(&format!("  {t} {n}\n"));
    }
    let mut applicable = vec![defining.clone()];
    applicable.extend(catalog.subclasses(&defining));
    out.push_str(&format!("Applicable Classes: {}\n", applicable.join(", ")));
    match funcman.method_source(&defining, method) {
        Some(src) => out.push_str(&format!("Body        : {src}\n")),
        None => out.push_str("Body        : (native / compiled)\n"),
    }
    Ok(out)
}

/// Update one attribute of an object through the browser — "Dynamic type
/// checking is performed by MoodView to ensure the correctness of updates"
/// (Section 9.3). The catalog's normalization rejects ill-typed values.
pub fn update_attribute(
    catalog: &Catalog,
    oid: Oid,
    attribute: &str,
    new_value: Value,
) -> Result<(), mood_catalog::CatalogError> {
    let (_, mut value) = catalog.get_object(oid)?;
    value.set_field(attribute, new_value);
    catalog.update_object(oid, value)
}

#[cfg(test)]
mod browser_edit_tests {
    use super::*;
    use mood_catalog::{ClassBuilder, MethodSig};
    use mood_datamodel::TypeDescriptor;
    use mood_funcman::FunctionManager;
    use mood_storage::StorageManager;
    use std::sync::Arc;

    fn setup() -> (Arc<Catalog>, FunctionManager) {
        let sm = Arc::new(StorageManager::in_memory());
        let cat = Arc::new(Catalog::create(sm).unwrap());
        cat.define_class(
            ClassBuilder::class("Vehicle")
                .attribute("weight", TypeDescriptor::integer())
                .method(MethodSig::new("lbweight", TypeDescriptor::float(), vec![])),
        )
        .unwrap();
        cat.define_class(ClassBuilder::class("Automobile").inherits("Vehicle"))
            .unwrap();
        let fm = FunctionManager::new(cat.clone());
        fm.define_source(
            "Vehicle",
            MethodSig::new("lbweight", TypeDescriptor::float(), vec![]),
            "weight * 2.2075",
        )
        .unwrap();
        (cat, fm)
    }

    #[test]
    fn method_card_shows_signature_body_and_applicability() {
        let (cat, fm) = setup();
        // Resolved from the subclass, defined on the superclass.
        let card = render_method_card(&cat, &fm, "Automobile", "lbweight").unwrap();
        assert!(card.contains("Name        : lbweight"), "{card}");
        assert!(card.contains("Return Type : Float"), "{card}");
        assert!(
            card.contains("Applicable Classes: Vehicle, Automobile"),
            "{card}"
        );
        assert!(card.contains("weight * 2.2075"), "{card}");
        assert!(render_method_card(&cat, &fm, "Vehicle", "nope").is_err());
    }

    #[test]
    fn browser_update_typechecks() {
        let (cat, _) = setup();
        let oid = cat
            .new_object(
                "Vehicle",
                Value::tuple(vec![("weight", Value::Integer(100))]),
            )
            .unwrap();
        update_attribute(&cat, oid, "weight", Value::Integer(250)).unwrap();
        let (_, v) = cat.get_object(oid).unwrap();
        assert_eq!(v.field("weight"), Some(&Value::Integer(250)));
        // Ill-typed update rejected (the §9.3 dynamic type check).
        assert!(update_attribute(&cat, oid, "weight", Value::string("heavy")).is_err());
        // Unknown attribute rejected.
        assert!(update_attribute(&cat, oid, "bogus", Value::Integer(1)).is_err());
    }
}
