//! Schema definitions: classes, attributes, method signatures.
//!
//! "The catalog contains the definition of classes, types, and member
//! functions in a structure similar to a compiler symbol table." (Section 2)
//! The three record kinds mirror the paper's `MoodsType`, `MoodsAttribute`
//! and `MoodsFunction` classes.

use std::fmt;

use mood_datamodel::TypeDescriptor;
use mood_storage::FileId;

/// Numeric type identifier — the paper's `typeId(char*)` / `typeName(int)`
/// pair works over these.
pub type TypeId = u32;

/// An attribute's identity in stored records: assigned when the attribute
/// is declared and never reused, so a rename keeps it and a drop retires
/// it.
pub type AttrId = u32;

/// A class's schema version: the index of its slot list in
/// [`ClassDef::versions`].
pub type Version = u16;

/// Whether a definition is a *class* (has an extent, identity semantics,
/// participates in the hierarchy) or a *type* (copy semantics, no extent) —
/// the distinction Section 2 draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassKind {
    Class,
    Type,
}

/// One attribute — a `MoodsAttribute` record.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeDef {
    pub name: String,
    pub ty: TypeDescriptor,
    /// The slot identity; the catalog assigns it when the attribute is
    /// defined (0 until then).
    pub id: AttrId,
}

impl AttributeDef {
    pub fn new(name: impl Into<String>, ty: TypeDescriptor) -> Self {
        AttributeDef {
            name: name.into(),
            ty,
            id: 0,
        }
    }
}

/// A member-function signature — a `MoodsFunction` record. The body is not
/// here: it lives with the Function Manager (the paper keeps only "name,
/// return type, and names and types of their parameters" in the catalog).
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSig {
    pub name: String,
    pub return_type: TypeDescriptor,
    pub params: Vec<(String, TypeDescriptor)>,
}

impl MethodSig {
    pub fn new(
        name: impl Into<String>,
        return_type: TypeDescriptor,
        params: Vec<(&str, TypeDescriptor)>,
    ) -> Self {
        MethodSig {
            name: name.into(),
            return_type,
            params: params
                .into_iter()
                .map(|(n, t)| (n.to_string(), t))
                .collect(),
        }
    }

    /// The signature string used to locate the function in the catalog:
    /// class name + method name + parameter types (Section 2's "signature
    /// of the function is created by using class name ... and its parameter
    /// list").
    pub fn signature_for(&self, class: &str) -> String {
        let params: Vec<String> = self.params.iter().map(|(_, t)| t.to_string()).collect();
        format!("{class}::{}({})", self.name, params.join(", "))
    }
}

impl fmt::Display for MethodSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(n, t)| format!("{n} {t}"))
            .collect();
        write!(
            f,
            "{} ({}) {}",
            self.name,
            params.join(", "),
            self.return_type
        )
    }
}

/// A class or type definition — a `MoodsType` record.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    pub name: String,
    pub type_id: TypeId,
    pub kind: ClassKind,
    /// Own (non-inherited) attributes, in declaration order.
    pub attributes: Vec<AttributeDef>,
    /// Direct superclasses (multiple inheritance), in declaration order.
    pub superclasses: Vec<String>,
    /// Own method signatures.
    pub methods: Vec<MethodSig>,
    /// The default extent's heap file (classes only).
    pub extent: Option<FileId>,
    /// The slot list — effective attribute ids in slot order — of every
    /// schema version, oldest first; the last is the current one, the
    /// order of [`effective_attributes`](crate::hierarchy::effective_attributes).
    /// Adding, dropping or renaming an attribute of the class or of a
    /// superclass appends one.
    pub versions: Vec<Vec<AttrId>>,
}

impl ClassDef {
    /// The current schema version: what a record written now carries.
    pub fn version(&self) -> Version {
        self.versions.len().saturating_sub(1) as Version
    }

    /// The tuple type formed by this class's *own* attributes.
    pub fn own_tuple_type(&self) -> TypeDescriptor {
        TypeDescriptor::Tuple(
            self.attributes
                .iter()
                .map(|a| (a.name.clone(), a.ty.clone()))
                .collect(),
        )
    }

    pub fn attribute(&self, name: &str) -> Option<&AttributeDef> {
        self.attributes.iter().find(|a| a.name == name)
    }

    pub fn method(&self, name: &str) -> Option<&MethodSig> {
        self.methods.iter().find(|m| m.name == name)
    }
}

/// Builder for [`ClassDef`] used by DDL execution and tests.
#[derive(Debug, Clone)]
pub struct ClassBuilder {
    name: String,
    kind: ClassKind,
    attributes: Vec<AttributeDef>,
    superclasses: Vec<String>,
    methods: Vec<MethodSig>,
}

impl ClassBuilder {
    pub fn class(name: impl Into<String>) -> Self {
        ClassBuilder {
            name: name.into(),
            kind: ClassKind::Class,
            attributes: Vec::new(),
            superclasses: Vec::new(),
            methods: Vec::new(),
        }
    }

    pub fn value_type(name: impl Into<String>) -> Self {
        let mut b = Self::class(name);
        b.kind = ClassKind::Type;
        b
    }

    pub fn attribute(mut self, name: impl Into<String>, ty: TypeDescriptor) -> Self {
        self.attributes.push(AttributeDef::new(name, ty));
        self
    }

    pub fn inherits(mut self, superclass: impl Into<String>) -> Self {
        self.superclasses.push(superclass.into());
        self
    }

    pub fn method(mut self, sig: MethodSig) -> Self {
        self.methods.push(sig);
        self
    }

    pub(crate) fn build(self, type_id: TypeId, extent: Option<FileId>) -> ClassDef {
        ClassDef {
            name: self.name,
            type_id,
            kind: self.kind,
            attributes: self.attributes,
            superclasses: self.superclasses,
            methods: self.methods,
            extent,
            versions: Vec::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn kind(&self) -> ClassKind {
        self.kind
    }

    pub fn superclass_names(&self) -> &[String] {
        &self.superclasses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_parts() {
        let def = ClassBuilder::class("Vehicle")
            .attribute("id", TypeDescriptor::integer())
            .attribute("weight", TypeDescriptor::integer())
            .inherits("Thing")
            .method(MethodSig::new(
                "lbweight",
                TypeDescriptor::integer(),
                vec![],
            ))
            .build(7, Some(FileId(3)));
        assert_eq!(def.name, "Vehicle");
        assert_eq!(def.type_id, 7);
        assert_eq!(def.attributes.len(), 2);
        assert_eq!(def.superclasses, vec!["Thing"]);
        assert_eq!(def.methods.len(), 1);
        assert_eq!(def.extent, Some(FileId(3)));
        assert_eq!(def.kind, ClassKind::Class);
    }

    #[test]
    fn value_type_has_no_extent_by_convention() {
        let def = ClassBuilder::value_type("Money")
            .attribute("amount", TypeDescriptor::float())
            .build(9, None);
        assert_eq!(def.kind, ClassKind::Type);
        assert_eq!(def.extent, None);
    }

    #[test]
    fn signature_string_matches_paper_style() {
        let sig = MethodSig::new(
            "CalculatePrice",
            TypeDescriptor::integer(),
            vec![
                ("Price", TypeDescriptor::integer()),
                ("Rate", TypeDescriptor::float()),
            ],
        );
        assert_eq!(
            sig.signature_for("Car"),
            "Car::CalculatePrice(Integer, Float)"
        );
    }

    #[test]
    fn own_tuple_type_reflects_attributes() {
        let def = ClassBuilder::class("Employee")
            .attribute("ssno", TypeDescriptor::integer())
            .attribute("name", TypeDescriptor::string())
            .build(1, None);
        assert_eq!(
            def.own_tuple_type(),
            TypeDescriptor::tuple(vec![
                ("ssno", TypeDescriptor::integer()),
                ("name", TypeDescriptor::string()),
            ])
        );
    }

    #[test]
    fn attribute_and_method_lookup() {
        let def = ClassBuilder::class("C")
            .attribute("a", TypeDescriptor::integer())
            .method(MethodSig::new("m", TypeDescriptor::boolean(), vec![]))
            .build(1, None);
        assert!(def.attribute("a").is_some());
        assert!(def.attribute("b").is_none());
        assert!(def.method("m").is_some());
        assert!(def.method("x").is_none());
    }
}
