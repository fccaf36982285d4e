//! What stored objects are read by: each class's slot list per schema
//! version with the current name of every attribute id ([`Layouts`]), and
//! the reader that resolves a field set to slot positions once per (type,
//! version) it meets ([`ObjectReader`]).

use std::collections::HashMap;
use std::sync::Arc;

use mood_datamodel::{decode_record_into, encode_record, record_head, FieldSet, SlotMap, Value};
use mood_storage::Oid;

use crate::error::{CatalogError, Result};
use crate::hierarchy::{self, ClassMap};
use crate::schema::{AttrId, TypeId, Version};

/// One class's layouts.
#[derive(Debug)]
pub(crate) struct ClassLayout {
    /// The current effective attributes in slot order: id and name.
    current: Vec<(AttrId, String)>,
    /// Every version's slot list, oldest first; the last is current.
    versions: Vec<Vec<AttrId>>,
    /// Every version's plan for the whole object, so a point fetch of a
    /// whole object (`get_object`, a dereference) plans nothing.
    whole: Vec<SlotMap>,
}

/// Every class's layouts by type id: a snapshot that each schema change
/// replaces whole, so a reader holds one schema for its whole scan.
#[derive(Debug, Default)]
pub(crate) struct Layouts(HashMap<TypeId, Arc<ClassLayout>>);

impl Layouts {
    /// The layouts of every class in `classes`.
    pub(crate) fn of(classes: &ClassMap) -> Layouts {
        let layout = |name: &str, versions: &[Vec<AttrId>]| {
            let attrs = hierarchy::effective_attributes(classes, name).unwrap_or_default();
            let current: Vec<(AttrId, String)> =
                attrs.into_iter().map(|a| (a.id, a.name)).collect();
            let whole = versions.iter().map(|slots| {
                let mut map = SlotMap::default();
                let tags = current.iter().enumerate().map(|(tag, (id, _))| (*id, tag as u32));
                map.plan(slots, tags);
                map
            });
            let whole = whole.collect();
            Arc::new(ClassLayout { current, versions: versions.to_vec(), whole })
        };
        Layouts(classes.values().map(|d| (d.type_id, layout(&d.name, &d.versions))).collect())
    }

    /// The record of `value` — a tuple of type `type_id`'s current
    /// attributes, in order, as [`Catalog::normalize`](crate::Catalog::normalize)
    /// leaves it — under the type's current version.
    pub(crate) fn encode(&self, type_id: TypeId, value: &Value) -> Result<Vec<u8>> {
        let class = self.0.get(&type_id).filter(|c| !c.versions.is_empty());
        let class = class.ok_or_else(|| CatalogError::UnknownClass(format!("#{type_id}")))?;
        let current = class.current.iter().map(|(_, n)| n);
        let fields = match value {
            Value::Tuple(fields) if fields.iter().map(|(n, _)| n).eq(current) => fields,
            _ => {
                return Err(CatalogError::TypeMismatch {
                    class: format!("#{type_id}"),
                    detail: format!("{value} is not a tuple of the current attributes"),
                })
            }
        };
        let version = (class.versions.len() - 1) as Version;
        let mut bytes = Vec::new();
        encode_record(&mut bytes, type_id, version, fields.iter().map(|(_, v)| v));
        Ok(bytes)
    }
}

/// Reads stored objects into named tuples of the fields a statement wants,
/// under the schema of the moment it was made
/// ([`Catalog::reader`](crate::Catalog::reader)). The first record of each
/// (type, version) plans its slot positions ([`SlotMap`]; the whole object's
/// plan is made with the layouts); the records after it, while the pair
/// stays the same, are read by those positions alone.
/// A record of an older version reads NULL for the attributes added since
/// and steps over those dropped since; each attribute is named by its
/// current name.
pub struct ObjectReader<'f> {
    layouts: Arc<Layouts>,
    fields: &'f FieldSet,
    /// The (type, version) `map` is planned for, and that type's layout.
    at: Option<(TypeId, Version, Arc<ClassLayout>)>,
    map: SlotMap,
}

impl<'f> ObjectReader<'f> {
    pub(crate) fn new(layouts: Arc<Layouts>, fields: &'f FieldSet) -> ObjectReader<'f> {
        ObjectReader { layouts, fields, at: None, map: SlotMap::default() }
    }

    /// Decode the stored record `bytes` of `oid` into `out`, reusing what
    /// `out` holds ([`mood_datamodel::decode_record_into`]); the record's
    /// stored type id. Bytes that do not decode — or name a type or
    /// version the schema does not have — are an error naming the object.
    pub fn decode_into(&mut self, oid: Oid, bytes: &[u8], out: &mut Value) -> Result<TypeId> {
        let unreadable = |why: &dyn std::fmt::Display| {
            CatalogError::Corrupt(format!("object {oid}: {why}"))
        };
        let (type_id, version) = record_head(bytes).map_err(|e| unreadable(&e))?;
        if !matches!(&self.at, Some((t, v, _)) if (*t, *v) == (type_id, version)) {
            self.plan(type_id, version).map_err(|why| unreadable(&why))?;
        }
        let (_, version, class) = self.at.as_ref().expect("planned above");
        let map = match self.fields {
            FieldSet::All => &class.whole[*version as usize],
            FieldSet::Only(_) => &self.map,
        };
        let name = |tag: u32| class.current[tag as usize].1.as_str();
        decode_record_into(bytes, map, name, out).map_err(|e| unreadable(&e))?;
        Ok(type_id)
    }

    /// [`decode_into`](Self::decode_into) a fresh value.
    pub fn decode(&mut self, oid: Oid, bytes: &[u8]) -> Result<(TypeId, Value)> {
        let mut value = Value::Null;
        let type_id = self.decode_into(oid, bytes, &mut value)?;
        Ok((type_id, value))
    }

    /// Plan the slot positions of `type_id`'s records of `version`.
    fn plan(&mut self, type_id: TypeId, version: Version) -> std::result::Result<(), String> {
        let class = self.layouts.0.get(&type_id);
        let class = class.ok_or_else(|| format!("no class has type id {type_id}"))?;
        let slots = class.versions.get(version as usize);
        let slots = slots.ok_or_else(|| format!("type {type_id} has no schema version {version}"))?;
        if let FieldSet::Only(_) = self.fields {
            let fields = self.fields;
            let wanted = class.current.iter().enumerate();
            let wanted = wanted.filter(move |(_, (_, name))| fields.contains(name));
            self.map.plan(slots, wanted.map(|(tag, (id, _))| (*id, tag as u32)));
        }
        self.at = Some((type_id, version, class.clone()));
        Ok(())
    }
}
