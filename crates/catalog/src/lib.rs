//! # mood-catalog — catalog management for MOOD
//!
//! Section 2 of the paper: the catalog holds class, type and member-function
//! definitions "in a structure similar to a compiler symbol table",
//! persisted on ESM via the `MoodsType` / `MoodsAttribute` / `MoodsFunction`
//! record classes (Figure 2.2). On top of the persisted symbol table this
//! crate provides:
//!
//! * the class hierarchy (multiple inheritance DAG) with effective-attribute
//!   computation and late-binding method resolution ([`hierarchy`]);
//! * class extents: object CRUD with type checking and OID stability
//!   ([`Catalog::new_object`] etc.);
//! * secondary B+-tree indexes with automatic maintenance;
//! * the statistics of Table 8/9, collectable by scan or injectable for the
//!   paper's worked examples ([`stats`]).

mod cluster;
pub mod error;
pub mod hierarchy;
pub mod persist;
pub mod schema;
pub mod stats;

pub use cluster::ClusterReport;
pub use error::{CatalogError, Result};
pub use persist::{CatalogRoot, CatalogStore};
pub use schema::{AttributeDef, ClassBuilder, ClassDef, ClassKind, MethodSig, TypeId};
pub use stats::{AttrStats, ClassStats, DatabaseStats, RefStats};

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use mood_datamodel::{
    decode_fields, encode_key, encode_value, encode_value_into, FieldSet, Resolver, TypeDescriptor,
    Value,
};
use mood_storage::{AccessHint, FileId, Oid, StorageManager};

use cluster::chase_locality;

/// A registered secondary index on (class, attribute): a B+-tree.
#[derive(Debug, Clone)]
pub struct IndexInfo {
    pub class: String,
    pub attribute: String,
    pub unique: bool,
    pub file: FileId,
}

struct Inner {
    classes: hierarchy::ClassMap,
    by_id: HashMap<TypeId, String>,
    extent_class: HashMap<FileId, String>,
    next_type_id: TypeId,
    store: CatalogStore,
    indexes: HashMap<(String, String), IndexInfo>,
    stats: DatabaseStats,
    named: HashMap<String, Oid>,
    /// Files replaced by an in-flight reorganization (old extents, old
    /// index files). They must survive until the surrounding transaction
    /// commits — recovery after a crash, or a rollback, still needs their
    /// bytes — so the physical drop is deferred to
    /// [`Catalog::reap_pending_drops`] and cancelled by
    /// [`Catalog::reload_schema`].
    pending_drops: Vec<FileId>,
}

/// The MOOD catalog: symbol table + extents + indexes + statistics.
pub struct Catalog {
    sm: Arc<StorageManager>,
    inner: RwLock<Inner>,
    /// Schema/statistics epoch: bumped by every DDL, index change, stats
    /// refresh and schema reload. Cached query plans are tagged with the
    /// epoch they were compiled under and discarded when it moves — object
    /// inserts/updates/deletes do *not* bump it (plans re-scan extents and
    /// re-probe indexes at execution time, so they stay correct across DML).
    epoch: AtomicU64,
}

impl Catalog {
    /// Create a fresh catalog on `sm`.
    pub fn create(sm: Arc<StorageManager>) -> Result<Catalog> {
        let store = CatalogStore::create(&sm)?;
        Ok(Catalog {
            sm,
            inner: RwLock::new(Inner {
                classes: hierarchy::ClassMap::new(),
                by_id: HashMap::new(),
                extent_class: HashMap::new(),
                next_type_id: 1,
                store,
                indexes: HashMap::new(),
                stats: DatabaseStats::new(),
                named: HashMap::new(),
                pending_drops: Vec::new(),
            }),
            epoch: AtomicU64::new(0),
        })
    }

    /// Reopen a catalog persisted at `root`.
    pub fn open(sm: Arc<StorageManager>, root: CatalogRoot) -> Result<Catalog> {
        let mut store = CatalogStore::open(&sm, root);
        let defs = store.load_all()?;
        let mut classes = hierarchy::ClassMap::new();
        let mut by_id = HashMap::new();
        let mut extent_class = HashMap::new();
        let mut next = 1;
        for def in defs {
            next = next.max(def.type_id + 1);
            by_id.insert(def.type_id, def.name.clone());
            if let Some(f) = def.extent {
                extent_class.insert(f, def.name.clone());
            }
            classes.insert(def.name.clone(), def);
        }
        Ok(Catalog {
            sm,
            inner: RwLock::new(Inner {
                classes,
                by_id,
                extent_class,
                next_type_id: next,
                store,
                indexes: HashMap::new(),
                stats: DatabaseStats::new(),
                named: HashMap::new(),
                pending_drops: Vec::new(),
            }),
            epoch: AtomicU64::new(0),
        })
    }

    pub fn storage(&self) -> &Arc<StorageManager> {
        &self.sm
    }

    /// The current schema/statistics epoch (see the field docs).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advance the epoch, invalidating plans compiled under earlier ones.
    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// The bootstrap root for [`Catalog::open`].
    pub fn root(&self) -> CatalogRoot {
        self.inner.read().store.root()
    }

    /// Rebuild the in-memory schema maps from the persisted catalog pages.
    ///
    /// Called after a rolled-back DDL autocommit: the pages are back to
    /// their pre-statement contents, but the maps may have partially moved.
    /// The index registry is pruned of classes that no longer exist;
    /// statistics and the naming map survive (both are advisory).
    /// `next_type_id` stays monotonic so an id consumed by the failed DDL
    /// is never reissued.
    pub fn reload_schema(&self) -> Result<()> {
        let mut inner = self.inner.write();
        let defs = inner.store.load_all()?;
        let mut classes = hierarchy::ClassMap::new();
        let mut by_id = HashMap::new();
        let mut extent_class = HashMap::new();
        let mut next = inner.next_type_id;
        for def in defs {
            next = next.max(def.type_id + 1);
            by_id.insert(def.type_id, def.name.clone());
            if let Some(f) = def.extent {
                extent_class.insert(f, def.name.clone());
            }
            classes.insert(def.name.clone(), def);
        }
        inner.indexes.retain(|(class, _), _| classes.contains_key(class));
        // A rolled-back reorganization restored the old extents: the files
        // queued for dropping are live again.
        inner.pending_drops.clear();
        inner.classes = classes;
        inner.by_id = by_id;
        inner.extent_class = extent_class;
        inner.next_type_id = next;
        drop(inner);
        self.bump_epoch();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Schema definition and evolution
    // ------------------------------------------------------------------

    /// Define a new class or type (the DDL `CREATE CLASS`).
    pub fn define_class(&self, builder: ClassBuilder) -> Result<ClassDef> {
        let mut inner = self.inner.write();
        let name = builder.name().to_string();
        if inner.classes.contains_key(&name) {
            return Err(CatalogError::DuplicateClass(name));
        }
        for sup in builder.superclass_names() {
            if !inner.classes.contains_key(sup) {
                return Err(CatalogError::UnknownClass(sup.clone()));
            }
        }
        hierarchy::check_acyclic(&inner.classes, &name, builder.superclass_names())?;
        let extent = match builder.kind() {
            ClassKind::Class => Some(self.sm.create_heap()?.file_id()),
            ClassKind::Type => None,
        };
        let type_id = inner.next_type_id;
        inner.next_type_id += 1;
        let def = builder.build(type_id, extent);
        // Validate the effective attribute set (inheritance conflicts).
        inner.classes.insert(name.clone(), def.clone());
        if let Err(e) = hierarchy::effective_attributes(&inner.classes, &name) {
            inner.classes.remove(&name);
            return Err(e);
        }
        inner.by_id.insert(type_id, name.clone());
        if let Some(f) = extent {
            inner.extent_class.insert(f, name.clone());
        }
        inner.store.save_class(&def)?;
        drop(inner);
        self.bump_epoch();
        Ok(def)
    }

    /// Drop a class. Refuses while subclasses exist.
    pub fn drop_class(&self, name: &str) -> Result<()> {
        let mut inner = self.inner.write();
        if !inner.classes.contains_key(name) {
            return Err(CatalogError::UnknownClass(name.to_string()));
        }
        if !hierarchy::all_subclasses(&inner.classes, name).is_empty() {
            return Err(CatalogError::InheritanceCycle(format!(
                "cannot drop {name}: subclasses exist"
            )));
        }
        let def = inner.classes.remove(name).expect("checked above");
        inner.by_id.remove(&def.type_id);
        if let Some(f) = def.extent {
            inner.extent_class.remove(&f);
            self.sm.pool().discard_file(f);
            let _ = self.sm.pool().disk().drop_file(f);
        }
        inner.indexes.retain(|(c, _), info| {
            if c == name {
                self.sm.forget_index(info.file);
                let _ = self.sm.pool().disk().drop_file(info.file);
                false
            } else {
                true
            }
        });
        inner.store.delete_class(name)?;
        drop(inner);
        self.bump_epoch();
        Ok(())
    }

    fn mutate_class(&self, name: &str, f: impl FnOnce(&mut ClassDef) -> Result<()>) -> Result<()> {
        let mut inner = self.inner.write();
        let mut def = inner
            .classes
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::UnknownClass(name.to_string()))?;
        f(&mut def)?;
        inner.classes.insert(name.to_string(), def.clone());
        // Re-validate inheritance for the whole affected subtree.
        let mut to_check: Vec<String> = vec![name.to_string()];
        to_check.extend(
            hierarchy::all_subclasses(&inner.classes, name)
                .iter()
                .map(|d| d.name.clone()),
        );
        for c in &to_check {
            if let Err(e) = hierarchy::effective_attributes(&inner.classes, c) {
                // Roll back.
                let orig = inner.store.load_all()?;
                inner.classes = orig.into_iter().map(|d| (d.name.clone(), d)).collect();
                return Err(e);
            }
        }
        inner.store.save_class(&def)?;
        drop(inner);
        self.bump_epoch();
        Ok(())
    }

    /// Add an attribute to a class (schema evolution). Existing objects
    /// read the new attribute as `Null`.
    pub fn add_attribute(&self, class: &str, name: &str, ty: TypeDescriptor) -> Result<()> {
        let exists = {
            let inner = self.inner.read();
            hierarchy::effective_attributes(&inner.classes, class)?
                .iter()
                .any(|a| a.name == name)
        };
        if exists {
            return Err(CatalogError::DuplicateAttribute {
                class: class.to_string(),
                attribute: name.to_string(),
            });
        }
        self.mutate_class(class, |def| {
            def.attributes.push(AttributeDef::new(name, ty));
            Ok(())
        })
    }

    /// Drop an own attribute.
    pub fn drop_attribute(&self, class: &str, name: &str) -> Result<()> {
        self.mutate_class(class, |def| {
            let before = def.attributes.len();
            def.attributes.retain(|a| a.name != name);
            if def.attributes.len() == before {
                return Err(CatalogError::UnknownAttribute {
                    class: class.to_string(),
                    attribute: name.to_string(),
                });
            }
            Ok(())
        })
    }

    /// Rename an own attribute.
    pub fn rename_attribute(&self, class: &str, old: &str, new: &str) -> Result<()> {
        self.mutate_class(class, |def| {
            let attr = def
                .attributes
                .iter_mut()
                .find(|a| a.name == old)
                .ok_or_else(|| CatalogError::UnknownAttribute {
                    class: class.to_string(),
                    attribute: old.to_string(),
                })?;
            attr.name = new.to_string();
            Ok(())
        })
    }

    /// Register a method signature (the body goes to the Function Manager).
    pub fn add_method(&self, class: &str, sig: MethodSig) -> Result<()> {
        self.mutate_class(class, |def| {
            def.methods.retain(|m| m.name != sig.name);
            def.methods.push(sig);
            Ok(())
        })
    }

    /// Remove a method signature.
    pub fn drop_method(&self, class: &str, method: &str) -> Result<()> {
        self.mutate_class(class, |def| {
            let before = def.methods.len();
            def.methods.retain(|m| m.name != method);
            if def.methods.len() == before {
                return Err(CatalogError::UnknownMethod {
                    class: class.to_string(),
                    signature: method.to_string(),
                });
            }
            Ok(())
        })
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// Class definition by name.
    pub fn class(&self, name: &str) -> Result<ClassDef> {
        self.inner
            .read()
            .classes
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::UnknownClass(name.to_string()))
    }

    /// The paper's `typeId(char *typeName)`.
    pub fn type_id(&self, name: &str) -> Result<TypeId> {
        Ok(self.class(name)?.type_id)
    }

    /// The paper's `typeName(int typeId)`.
    pub fn type_name(&self, id: TypeId) -> Result<String> {
        self.inner
            .read()
            .by_id
            .get(&id)
            .cloned()
            .ok_or_else(|| CatalogError::UnknownClass(format!("#{id}")))
    }

    /// All class names, sorted.
    pub fn class_names(&self) -> Vec<String> {
        let mut v: Vec<_> = self.inner.read().classes.keys().cloned().collect();
        v.sort();
        v
    }

    /// Effective (inherited + own) attributes.
    pub fn effective_attributes(&self, class: &str) -> Result<Vec<AttributeDef>> {
        hierarchy::effective_attributes(&self.inner.read().classes, class)
    }

    /// The effective tuple type of a class's instances.
    pub fn effective_type(&self, class: &str) -> Result<TypeDescriptor> {
        Ok(TypeDescriptor::Tuple(
            self.effective_attributes(class)?
                .into_iter()
                .map(|a| (a.name, a.ty))
                .collect(),
        ))
    }

    /// Transitive subclass names (excluding `class` itself), sorted.
    pub fn subclasses(&self, class: &str) -> Vec<String> {
        hierarchy::all_subclasses(&self.inner.read().classes, class)
            .iter()
            .map(|d| d.name.clone())
            .collect()
    }

    /// Direct + transitive superclass names, nearest first.
    pub fn superclasses(&self, class: &str) -> Vec<String> {
        hierarchy::all_superclasses(&self.inner.read().classes, class)
            .iter()
            .map(|d| d.name.clone())
            .collect()
    }

    pub fn is_subclass(&self, sub: &str, sup: &str) -> bool {
        hierarchy::is_subclass_of(&self.inner.read().classes, sub, sup)
    }

    /// Late-binding method resolution: (defining class, signature).
    pub fn resolve_method(&self, class: &str, method: &str) -> Result<(String, MethodSig)> {
        hierarchy::resolve_method(&self.inner.read().classes, class, method)
            .map(|(c, s)| (c.to_string(), s.clone()))
            .ok_or_else(|| CatalogError::UnknownMethod {
                class: class.to_string(),
                signature: method.to_string(),
            })
    }

    // ------------------------------------------------------------------
    // Objects and extents
    // ------------------------------------------------------------------

    fn extent_file(&self, class: &str) -> Result<FileId> {
        let def = self.class(class)?;
        def.extent
            .ok_or_else(|| CatalogError::NoExtent(class.to_string()))
    }

    /// Normalize and type-check a value against the class's effective type:
    /// fields reordered to declaration order, missing fields filled with
    /// `Null`, unknown fields rejected.
    pub fn normalize(&self, class: &str, value: Value) -> Result<Value> {
        let attrs = self.effective_attributes(class)?;
        let Value::Tuple(mut given) = value else {
            return Err(CatalogError::TypeMismatch {
                class: class.to_string(),
                detail: "objects must be tuples".into(),
            });
        };
        for (name, _) in &given {
            if !attrs.iter().any(|a| &a.name == name) {
                return Err(CatalogError::TypeMismatch {
                    class: class.to_string(),
                    detail: format!("unknown attribute {name}"),
                });
            }
        }
        let mut fields = Vec::with_capacity(attrs.len());
        for attr in &attrs {
            let v = match given.iter().position(|(n, _)| n == &attr.name) {
                Some(i) => given.swap_remove(i).1,
                None => Value::Null,
            };
            if !v.matches(&attr.ty) {
                return Err(CatalogError::TypeMismatch {
                    class: class.to_string(),
                    detail: format!("attribute {} expects {}, got {v}", attr.name, attr.ty),
                });
            }
            fields.push((attr.name.clone(), v));
        }
        Ok(Value::Tuple(fields))
    }

    fn encode_object(type_id: TypeId, value: &Value) -> Vec<u8> {
        let mut bytes = type_id.to_le_bytes().to_vec();
        encode_value_into(&mut bytes, value);
        bytes
    }

    /// Decode the stored record of `oid`, materializing the fields `fields`
    /// names. Bytes that do not decode are an error naming the object.
    fn decode_object(oid: Oid, bytes: &[u8], fields: &FieldSet) -> Result<(TypeId, Value)> {
        let unreadable = |why: &dyn std::fmt::Display| {
            CatalogError::Corrupt(format!("object {oid}: {why}"))
        };
        let Some((type_id, value)) = bytes.split_first_chunk::<4>() else {
            return Err(unreadable(&"record too short"));
        };
        let value = decode_fields(value, fields).map_err(|e| unreadable(&e))?;
        Ok((u32::from_le_bytes(*type_id), value))
    }

    /// Create an object in `class`'s extent: the MOODSQL
    /// `new Class <values...>` operation.
    pub fn new_object(&self, class: &str, value: Value) -> Result<Oid> {
        let value = self.normalize(class, value)?;
        let file = self.extent_file(class)?;
        let type_id = self.type_id(class)?;
        let heap = self.sm.open_heap(file);
        let oid = heap.insert(&Self::encode_object(type_id, &value))?;
        self.index_insert(class, &value, oid)?;
        Ok(oid)
    }

    /// The (static) class owning an OID's extent file — a map lookup, no
    /// heap access. Subclass instances report the extent's class, not
    /// their dynamic type.
    pub fn class_of_oid(&self, oid: Oid) -> Option<String> {
        self.inner.read().extent_class.get(&oid.file).cloned()
    }

    /// Fetch an object by OID — the algebra's `Deref`. Returns the class
    /// name (from the stored type id, so subclass instances report their
    /// *dynamic* type — late binding needs this) and the value.
    pub fn get_object(&self, oid: Oid) -> Result<(String, Value)> {
        self.get_object_fields(oid, &FieldSet::All)
    }

    /// [`get_object`](Self::get_object) decoding only the fields the caller
    /// reads: the same heap access, a smaller value.
    pub fn get_object_fields(&self, oid: Oid, fields: &FieldSet) -> Result<(String, Value)> {
        let class = self
            .inner
            .read()
            .extent_class
            .get(&oid.file)
            .cloned()
            .ok_or(CatalogError::Storage(
                mood_storage::StorageError::DanglingOid(oid),
            ))?;
        let heap = self.sm.open_heap(oid.file);
        let (type_id, value) = Self::decode_object(oid, &heap.get(oid)?, fields)?;
        // Prefer the stored (dynamic) type name when it resolves.
        let name = self.type_name(type_id).unwrap_or(class);
        Ok((name, value))
    }

    /// Fetch the objects behind `oids`, each decoded to `fields`, in the
    /// order given. The extent's heap is opened once per run of OIDs of one
    /// file and each of its pages accessed once per run of OIDs on it — sort
    /// the OIDs first ([`mood_storage::HeapFile::get_batch_with`]) — and the
    /// value is decoded from the page's bytes. An OID that names nothing (a
    /// deleted object, a reused slot, no extent) is skipped, as index entries
    /// may be stale; bytes that do not decode, or a storage failure, are the
    /// call's error.
    pub fn fetch_fields_with(
        &self,
        oids: &[Oid],
        fields: &FieldSet,
        visit: &mut dyn FnMut(Oid, Value),
    ) -> Result<()> {
        let mut rest = oids;
        while let Some(first) = rest.first() {
            let run = rest.iter().take_while(|o| o.file == first.file).count();
            let (same_file, tail) = rest.split_at(run);
            rest = tail;
            if !self.inner.read().extent_class.contains_key(&first.file) {
                continue;
            }
            let mut unreadable = None;
            self.sm
                .open_heap(first.file)
                .get_batch_with(same_file, |oid, record| {
                    match record.map(|bytes| Self::decode_object(oid, bytes, fields)) {
                        Some(Ok((_, value))) => visit(oid, value),
                        Some(Err(e)) => unreadable = Some(e),
                        None => {}
                    }
                    unreadable.is_none()
                })?;
            unreadable.map_or(Ok(()), Err)?;
        }
        Ok(())
    }

    /// Update an object in place (OID stable), maintaining indexes.
    pub fn update_object(&self, oid: Oid, value: Value) -> Result<()> {
        let (_, old) = self.get_object(oid)?;
        self.update_fetched(oid, &old, value)
    }

    /// [`update_object`](Self::update_object) for a caller that already
    /// holds the stored image (`old`): no re-fetch, and only indexes whose
    /// key actually changes are touched, so an update that leaves every
    /// indexed attribute alone dirties the heap page and nothing else.
    pub fn update_fetched(&self, oid: Oid, old: &Value, value: Value) -> Result<()> {
        let class = self.extent_class_of(oid)?;
        let value = self.normalize(&class, value)?;
        let type_id = self.type_id(&class)?;
        let heap = self.sm.open_heap(oid.file);
        heap.update(oid, &Self::encode_object(type_id, &value))?;
        for info in self.class_indexes(&class) {
            let (old_key, new_key) = (
                Self::index_key(&info, old)?,
                Self::index_key(&info, &value)?,
            );
            if old_key == new_key {
                continue;
            }
            if let Some(k) = old_key {
                self.index_delete_key(&info, &k, oid)?;
            }
            if let Some(k) = new_key {
                self.index_insert_key(&info, &k, oid)?;
            }
        }
        Ok(())
    }

    /// Delete an object, maintaining indexes.
    pub fn delete_object(&self, oid: Oid) -> Result<()> {
        let (_, old) = self.get_object(oid)?;
        self.delete_fetched(oid, &old)
    }

    /// [`delete_object`](Self::delete_object) for a caller that already
    /// holds the stored image.
    pub fn delete_fetched(&self, oid: Oid, old: &Value) -> Result<()> {
        let class = self.extent_class_of(oid)?;
        for info in self.class_indexes(&class) {
            if let Some(k) = Self::index_key(&info, old)? {
                self.index_delete_key(&info, &k, oid)?;
            }
        }
        let heap = self.sm.open_heap(oid.file);
        heap.delete(oid)?;
        Ok(())
    }

    /// The class whose extent holds `oid`. Objects are stored in the extent
    /// of their dynamic type, so this is also the class whose indexes cover
    /// the object.
    fn extent_class_of(&self, oid: Oid) -> Result<String> {
        self.class_of_oid(oid).ok_or(CatalogError::Storage(
            mood_storage::StorageError::DanglingOid(oid),
        ))
    }

    /// Scan one class's own extent (no subclasses).
    pub fn extent(&self, class: &str) -> Result<Vec<(Oid, Value)>> {
        let mut out = Vec::new();
        self.extent_with(class, AccessHint::Sequential, &mut |oid, v| {
            out.push((oid, v));
            true
        })?;
        Ok(out)
    }

    /// Stream one class's own extent without materializing it — the visitor
    /// returns `false` to stop early. `hint` selects the buffer-pool access
    /// pattern: `Sequential` gets readahead and scan-resistant (cold) frame
    /// placement; `Random` loads pages into the hot set, which suits small
    /// extents consulted point-wise after the scan.
    pub fn extent_with(
        &self,
        class: &str,
        hint: AccessHint,
        visit: &mut dyn FnMut(Oid, Value) -> bool,
    ) -> Result<()> {
        self.extent_fields_with(class, &FieldSet::All, hint, visit)
    }

    /// [`extent_with`](Self::extent_with) decoding only the fields the
    /// caller reads. A record that does not decode ends the scan with an
    /// error: skipping it would silently shorten every answer over the
    /// extent.
    pub fn extent_fields_with(
        &self,
        class: &str,
        fields: &FieldSet,
        hint: AccessHint,
        visit: &mut dyn FnMut(Oid, Value) -> bool,
    ) -> Result<()> {
        let file = self.extent_file(class)?;
        let heap = self.sm.open_heap(file);
        let mut unreadable = None;
        heap.scan_hint_with(hint, |oid, bytes| {
            match Self::decode_object(oid, bytes, fields) {
                Ok((_, v)) => visit(oid, v),
                Err(e) => {
                    unreadable = Some(e);
                    false
                }
            }
        })?;
        unreadable.map_or(Ok(()), Err)
    }

    /// Scan an extent including subclass extents (`FROM EVERY C`), with an
    /// optional exclusion set (`FROM EVERY C - Sub`, the paper's minus
    /// operator).
    pub fn extent_every(&self, class: &str, minus: &[String]) -> Result<Vec<(Oid, Value)>> {
        let mut out = Vec::new();
        self.extent_every_with(class, minus, AccessHint::Sequential, &mut |oid, v| {
            out.push((oid, v));
            true
        })?;
        Ok(out)
    }

    /// The classes whose extents `FROM EVERY class - minus…` ranges over:
    /// `class` and its subclasses, less each excluded class and *its*
    /// subclasses, in scan order.
    pub fn every_classes(&self, class: &str, minus: &[String]) -> Vec<String> {
        let mut excluded: HashSet<String> = HashSet::new();
        for m in minus {
            excluded.insert(m.clone());
            excluded.extend(self.subclasses(m));
        }
        let mut targets = vec![class.to_string()];
        targets.extend(self.subclasses(class));
        targets.retain(|t| !excluded.contains(t));
        targets
    }

    /// Streaming form of [`extent_every`](Self::extent_every): visits the
    /// class's own extent, then each (non-excluded) subclass extent, in
    /// order, without materializing a combined vector.
    pub fn extent_every_with(
        &self,
        class: &str,
        minus: &[String],
        hint: AccessHint,
        visit: &mut dyn FnMut(Oid, Value) -> bool,
    ) -> Result<()> {
        self.extent_every_fields_with(class, minus, &FieldSet::All, hint, visit)
    }

    /// [`extent_every_with`](Self::extent_every_with) decoding only the
    /// fields the caller reads.
    pub fn extent_every_fields_with(
        &self,
        class: &str,
        minus: &[String],
        fields: &FieldSet,
        hint: AccessHint,
        visit: &mut dyn FnMut(Oid, Value) -> bool,
    ) -> Result<()> {
        let mut stopped = false;
        for t in self.every_classes(class, minus) {
            if stopped {
                break;
            }
            self.extent_fields_with(&t, fields, hint, &mut |oid, v| {
                let more = visit(oid, v);
                stopped = !more;
                more
            })?;
        }
        Ok(())
    }

    /// Count of a class's own extent.
    pub fn extent_count(&self, class: &str) -> Result<u64> {
        let file = self.extent_file(class)?;
        Ok(self.sm.open_heap(file).count()?)
    }

    // ------------------------------------------------------------------
    // Named objects
    // ------------------------------------------------------------------

    /// Give `name` to an object — the algebra's `Bind` naming operation.
    pub fn name_object(&self, name: &str, oid: Oid) {
        self.inner.write().named.insert(name.to_string(), oid);
    }

    /// Resolve a named object.
    pub fn named_object(&self, name: &str) -> Option<Oid> {
        self.inner.read().named.get(name).copied()
    }

    // ------------------------------------------------------------------
    // Indexes
    // ------------------------------------------------------------------

    /// Create a secondary index on an atomic attribute (or on a Reference
    /// attribute, which yields the paper's *binary join index*), and build
    /// it from the current extent.
    pub fn create_index(&self, class: &str, attribute: &str, unique: bool) -> Result<IndexInfo> {
        let attrs = self.effective_attributes(class)?;
        let attr = attrs.iter().find(|a| a.name == attribute).ok_or_else(|| {
            CatalogError::UnknownAttribute {
                class: class.to_string(),
                attribute: attribute.to_string(),
            }
        })?;
        if !attr.ty.is_atomic() && !matches!(attr.ty, TypeDescriptor::Reference(_)) {
            return Err(CatalogError::NotAtomic {
                class: class.to_string(),
                attribute: attribute.to_string(),
            });
        }
        {
            let inner = self.inner.read();
            if inner
                .indexes
                .contains_key(&(class.to_string(), attribute.to_string()))
            {
                return Err(CatalogError::DuplicateIndex {
                    class: class.to_string(),
                    attribute: attribute.to_string(),
                });
            }
        }
        let info = IndexInfo {
            class: class.to_string(),
            attribute: attribute.to_string(),
            unique,
            file: self.sm.create_btree(unique)?.file_id(),
        };
        self.inner
            .write()
            .indexes
            .insert((class.to_string(), attribute.to_string()), info.clone());
        // Build from the existing extent (and subclass extents share the
        // attribute, but each class's index covers its own extent only —
        // matching the per-extent indexing ESM provided). Streamed: the
        // build never holds more than one object in memory.
        let mut first_err: Option<CatalogError> = None;
        self.extent_with(class, AccessHint::Sequential, &mut |oid, value| {
            match self.index_insert_one(&info, &value, oid) {
                Ok(()) => true,
                Err(e) => {
                    first_err = Some(e);
                    false
                }
            }
        })?;
        if let Some(e) = first_err {
            return Err(e);
        }
        self.bump_epoch();
        Ok(info)
    }

    /// Drop an index. The statistics forget it in the same call: a plan
    /// built before the next `collect_stats` must not probe a file that is
    /// gone.
    pub fn drop_index(&self, class: &str, attribute: &str) -> Result<()> {
        let info = {
            let mut inner = self.inner.write();
            let info = inner
                .indexes
                .remove(&(class.to_string(), attribute.to_string()))
                .ok_or_else(|| CatalogError::UnknownIndex {
                    class: class.to_string(),
                    attribute: attribute.to_string(),
                })?;
            inner.stats.remove_index(class, attribute);
            info
        };
        self.sm.forget_index(info.file);
        self.sm.pool().discard_file(info.file);
        let _ = self.sm.pool().disk().drop_file(info.file);
        self.bump_epoch();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Path indexes (the "path indices" of Section 3.2's IndSel/Join lists,
    // in the access-support-relation style of the paper's [Kem 90])
    // ------------------------------------------------------------------

    /// Create a *path index* on `class` over a reference path ending at an
    /// atomic attribute (e.g. `Vehicle` over `drivetrain.engine.cylinders`):
    /// a B+-tree mapping the terminal value to the *root* OIDs reaching it.
    ///
    /// Unlike attribute indexes, path indexes are not maintained
    /// incrementally (an update anywhere along the path would need reverse
    /// pointers); they are built here and refreshed with
    /// [`Catalog::rebuild_path_index`] — the maintenance model the access-
    /// support-relation literature calls "rematerialization".
    pub fn create_path_index(&self, class: &str, path: &[String]) -> Result<IndexInfo> {
        if path.len() < 2 {
            return Err(CatalogError::NotAtomic {
                class: class.to_string(),
                attribute: path.join("."),
            });
        }
        // Validate the path: hops must be references, the tail atomic.
        let mut cur = class.to_string();
        for (i, seg) in path.iter().enumerate() {
            let attrs = self.effective_attributes(&cur)?;
            let attr = attrs.iter().find(|a| a.name == *seg).ok_or_else(|| {
                CatalogError::UnknownAttribute {
                    class: cur.clone(),
                    attribute: seg.clone(),
                }
            })?;
            if i + 1 == path.len() {
                if !attr.ty.is_atomic() {
                    return Err(CatalogError::NotAtomic {
                        class: class.to_string(),
                        attribute: path.join("."),
                    });
                }
            } else {
                match attr.ty.referenced_class() {
                    Some(t) => cur = t.to_string(),
                    None => {
                        return Err(CatalogError::NotAtomic {
                            class: cur,
                            attribute: seg.clone(),
                        })
                    }
                }
            }
        }
        let dotted = path.join(".");
        {
            let inner = self.inner.read();
            if inner
                .indexes
                .contains_key(&(class.to_string(), dotted.clone()))
            {
                return Err(CatalogError::DuplicateIndex {
                    class: class.to_string(),
                    attribute: dotted,
                });
            }
        }
        let tree = self.sm.create_btree(false)?;
        let info = IndexInfo {
            class: class.to_string(),
            attribute: dotted.clone(),
            unique: false,
            file: tree.file_id(),
        };
        self.inner
            .write()
            .indexes
            .insert((class.to_string(), dotted), info.clone());
        self.rebuild_path_index(class, path)?;
        self.bump_epoch();
        Ok(info)
    }

    /// Rebuild a path index from the current extents: clear and re-traverse
    /// every root object forward along the path.
    pub fn rebuild_path_index(&self, class: &str, path: &[String]) -> Result<()> {
        let dotted = path.join(".");
        let info = self
            .index(class, &dotted)
            .ok_or_else(|| CatalogError::UnknownIndex {
                class: class.to_string(),
                attribute: dotted.clone(),
            })?;
        // Recreate the tree file (cheapest "clear").
        let fresh = self.sm.create_btree(false)?;
        let new_file = fresh.file_id();
        {
            let mut inner = self.inner.write();
            if let Some(i) = inner.indexes.get_mut(&(class.to_string(), dotted.clone())) {
                let old = i.file;
                i.file = new_file;
                self.sm.forget_index(old);
                self.sm.pool().discard_file(old);
                let _ = self.sm.pool().disk().drop_file(old);
            }
        }
        let tree = self.sm.open_btree(new_file);
        // `every`: subclass instances share inherited paths. Streamed, one
        // root object at a time.
        let mut first_err: Option<CatalogError> = None;
        self.extent_every_with(class, &[], AccessHint::Sequential, &mut |root_oid, value| {
            let res = (|| -> Result<()> {
                for terminal in self.traverse_path(&value, path)? {
                    if terminal.is_null() {
                        continue;
                    }
                    let key = encode_key(&terminal).map_err(|_| CatalogError::NotAtomic {
                        class: class.to_string(),
                        attribute: dotted.clone(),
                    })?;
                    tree.insert(&key, root_oid)?;
                }
                Ok(())
            })();
            match res {
                Ok(()) => true,
                Err(e) => {
                    first_err = Some(e);
                    false
                }
            }
        })?;
        if let Some(e) = first_err {
            return Err(e);
        }
        let _ = info;
        Ok(())
    }

    /// Forward-traverse `path` from `value`, fanning out through set/list
    /// reference attributes; returns the terminal values reached.
    fn traverse_path(&self, value: &Value, path: &[String]) -> Result<Vec<Value>> {
        let mut frontier = vec![value.clone()];
        for (i, seg) in path.iter().enumerate() {
            let mut next = Vec::new();
            for v in frontier {
                let Some(field) = v.field(seg) else { continue };
                if i + 1 == path.len() {
                    next.push(field.clone());
                    continue;
                }
                let oids: Vec<Oid> = match field {
                    Value::Ref(o) => vec![*o],
                    Value::Set(items) | Value::List(items) => {
                        items.iter().filter_map(|x| x.as_oid()).collect()
                    }
                    _ => Vec::new(),
                };
                for oid in oids {
                    if let Ok((_, target)) = self.get_object(oid) {
                        next.push(target);
                    }
                }
            }
            frontier = next;
        }
        Ok(frontier)
    }

    /// Registered index on (class, attribute), if any.
    pub fn index(&self, class: &str, attribute: &str) -> Option<IndexInfo> {
        self.inner
            .read()
            .indexes
            .get(&(class.to_string(), attribute.to_string()))
            .cloned()
    }

    /// All registered indexes.
    pub fn indexes(&self) -> Vec<IndexInfo> {
        self.inner.read().indexes.values().cloned().collect()
    }

    /// The indexes declared on `class` (each covers that class's own extent).
    fn class_indexes(&self, class: &str) -> Vec<IndexInfo> {
        let inner = self.inner.read();
        inner
            .indexes
            .values()
            .filter(|i| i.class == class)
            .cloned()
            .collect()
    }

    /// The key `value` files under in `info`, or `None` when it is not
    /// indexed there: nulls are not indexed, and path indexes (dotted
    /// attribute) are rebuilt, not maintained per object.
    fn index_key(info: &IndexInfo, value: &Value) -> Result<Option<Vec<u8>>> {
        match value.field(&info.attribute) {
            Some(field) if !field.is_null() => {
                encode_key(field)
                    .map(Some)
                    .map_err(|_| CatalogError::NotAtomic {
                        class: info.class.clone(),
                        attribute: info.attribute.clone(),
                    })
            }
            _ => Ok(None),
        }
    }

    fn index_insert(&self, class: &str, value: &Value, oid: Oid) -> Result<()> {
        for info in self.class_indexes(class) {
            self.index_insert_one(&info, value, oid)?;
        }
        Ok(())
    }

    fn index_insert_one(&self, info: &IndexInfo, value: &Value, oid: Oid) -> Result<()> {
        match Self::index_key(info, value)? {
            Some(key) => self.index_insert_key(info, &key, oid),
            None => Ok(()),
        }
    }

    fn index_insert_key(&self, info: &IndexInfo, key: &[u8], oid: Oid) -> Result<()> {
        Ok(self.sm.open_btree(info.file).insert(key, oid)?)
    }

    fn index_delete_key(&self, info: &IndexInfo, key: &[u8], oid: Oid) -> Result<()> {
        self.sm.open_btree(info.file).delete(key, oid)?;
        Ok(())
    }

    /// Equality probe through an index: the interval `[key, key]`.
    pub fn index_lookup(&self, class: &str, attribute: &str, key: &Value) -> Result<Vec<Oid>> {
        self.index_range(class, attribute, Some((key, true)), Some((key, true)))
    }

    /// The OIDs an index files under the keys between `lo` and `hi` (each
    /// `(value, inclusive)`; `None` = unbounded), keys ascending.
    pub fn index_range(
        &self,
        class: &str,
        attribute: &str,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> Result<Vec<Oid>> {
        let info = self
            .index(class, attribute)
            .ok_or_else(|| CatalogError::UnknownIndex {
                class: class.to_string(),
                attribute: attribute.to_string(),
            })?;
        let enc = |bound: Option<(&Value, bool)>| match bound {
            Some((v, inclusive)) => Self::index_bound(&info, v).map(|k| Some((k, inclusive))),
            None => Ok(None),
        };
        let (lo, hi) = (enc(lo)?, enc(hi)?);
        let mut out = Vec::new();
        fn bound(b: &Option<(Vec<u8>, bool)>) -> Option<(&[u8], bool)> {
            b.as_ref().map(|(k, inclusive)| (k.as_slice(), *inclusive))
        }
        self.index_interval_with(&info, bound(&lo), bound(&hi), &mut |oid| {
            out.push(oid);
            true
        })?;
        Ok(out)
    }

    /// The key bytes `value` stands for as a bound on `info`'s keys.
    pub fn index_bound(info: &IndexInfo, value: &Value) -> Result<Vec<u8>> {
        encode_key(value).map_err(|_| CatalogError::NotAtomic {
            class: info.class.clone(),
            attribute: info.attribute.clone(),
        })
    }

    /// The one index walk: visit the OID of every entry of `info` whose
    /// encoded key lies between `lo` and `hi` (each `(key bytes, inclusive)`;
    /// `None` = unbounded), keys ascending, until `visit` returns
    /// `false`. `=` is the interval `[k, k]`. The visitor runs on the
    /// pinned leaf and must not touch the buffer pool
    /// ([`mood_storage::BTree::range_scan`]).
    pub fn index_interval_with(
        &self,
        info: &IndexInfo,
        lo: Option<(&[u8], bool)>,
        hi: Option<(&[u8], bool)>,
        visit: &mut dyn FnMut(Oid) -> bool,
    ) -> Result<()> {
        self.sm.open_btree(info.file).range_scan(
            lo.map(|(k, _)| k),
            lo.is_none_or(|(_, inclusive)| inclusive),
            hi.map(|(k, _)| k),
            hi.is_none_or(|(_, inclusive)| inclusive),
            |_, oid| visit(oid),
        )?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// A snapshot of the current statistics.
    pub fn stats(&self) -> DatabaseStats {
        self.inner.read().stats.clone()
    }

    /// Replace the statistics wholesale (used to inject the paper's
    /// Tables 13–15).
    pub fn set_stats(&self, stats: DatabaseStats) {
        self.inner.write().stats = stats;
        self.bump_epoch();
    }

    /// Recompute statistics for every class by scanning extents: the
    /// Table 8 parameters plus Table 9 for every index.
    pub fn collect_stats(&self) -> Result<DatabaseStats> {
        let classes = self.class_names();
        let mut stats = DatabaseStats::new();
        for class in &classes {
            let def = self.class(class)?;
            let Some(file) = def.extent else { continue };
            let heap = self.sm.open_heap(file);
            let objects = self.extent(class)?;
            let cardinality = objects.len() as u64;
            let total_bytes: u64 = objects
                .iter()
                .map(|(_, v)| encode_value(v).len() as u64 + 4)
                .sum();
            stats.set_class(
                class,
                ClassStats {
                    cardinality,
                    nbpages: heap.pages()? as u64,
                    size: total_bytes.checked_div(cardinality).unwrap_or(0),
                },
            );
            for attr in self.effective_attributes(class)? {
                match &attr.ty {
                    TypeDescriptor::Basic(_) => {
                        let mut distinct: HashSet<Vec<u8>> = HashSet::new();
                        let mut notnull = 0u64;
                        let mut min = f64::INFINITY;
                        let mut max = f64::NEG_INFINITY;
                        let mut numeric = false;
                        for (_, v) in &objects {
                            let Some(f) = v.field(&attr.name) else {
                                continue;
                            };
                            if f.is_null() {
                                continue;
                            }
                            notnull += 1;
                            if let Ok(k) = encode_key(f) {
                                distinct.insert(k);
                            }
                            if let Some(x) = f.as_f64() {
                                numeric = true;
                                min = min.min(x);
                                max = max.max(x);
                            }
                        }
                        stats.set_attr(
                            class,
                            &attr.name,
                            AttrStats {
                                notnull: if cardinality == 0 {
                                    0.0
                                } else {
                                    notnull as f64 / cardinality as f64
                                },
                                dist: distinct.len() as u64,
                                max: numeric.then_some(max),
                                min: numeric.then_some(min),
                            },
                        );
                    }
                    ty => {
                        let Some(target) = ty.referenced_class() else {
                            continue;
                        };
                        let mut links = 0u64;
                        let mut referenced: HashSet<Oid> = HashSet::new();
                        let mut chased: Vec<Oid> = Vec::new();
                        for (_, v) in &objects {
                            let Some(f) = v.field(&attr.name) else {
                                continue;
                            };
                            let oids: Vec<Oid> = match f {
                                Value::Ref(o) => vec![*o],
                                Value::Set(items) | Value::List(items) => {
                                    items.iter().filter_map(|i| i.as_oid()).collect()
                                }
                                _ => Vec::new(),
                            };
                            links += oids.len() as u64;
                            chased.extend(oids.iter().copied());
                            referenced.extend(oids);
                        }
                        // Clustering factor: `objects` is in extent order,
                        // so this measures the locality an actual forward
                        // chase would see.
                        if links > 1 {
                            stats.set_clustering(
                                class,
                                &attr.name,
                                chase_locality(chased.into_iter()),
                            );
                        }
                        stats.set_ref(
                            class,
                            &attr.name,
                            RefStats {
                                target: target.to_string(),
                                fan: if cardinality == 0 {
                                    0.0
                                } else {
                                    links as f64 / cardinality as f64
                                },
                                totref: referenced.len() as u64,
                            },
                        );
                    }
                }
            }
        }
        // Table 9: B+-tree index statistics.
        for info in self.indexes() {
            let s = self.sm.open_btree(info.file).stats()?;
            stats.set_index(&info.class, &info.attribute, s);
        }
        // Publish the measured clustering factors as metrics gauges.
        for (c, a, f) in stats.clustering_edges() {
            self.sm.registry().set_cluster_factor(&format!("{c}.{a}"), f);
        }
        self.inner.write().stats = stats.clone();
        self.bump_epoch();
        Ok(stats)
    }
}

/// Deep-equality resolution through the catalog's extents.
impl Resolver for Catalog {
    fn resolve(&self, oid: Oid) -> Option<Value> {
        self.get_object(oid).ok().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vehicle_catalog() -> Catalog {
        let sm = Arc::new(StorageManager::in_memory());
        let cat = Catalog::create(sm).unwrap();
        cat.define_class(
            ClassBuilder::class("Company")
                .attribute("name", TypeDescriptor::string())
                .attribute("location", TypeDescriptor::string()),
        )
        .unwrap();
        cat.define_class(
            ClassBuilder::class("Vehicle")
                .attribute("id", TypeDescriptor::integer())
                .attribute("weight", TypeDescriptor::integer())
                .attribute("manufacturer", TypeDescriptor::reference("Company"))
                .method(MethodSig::new(
                    "lbweight",
                    TypeDescriptor::integer(),
                    vec![],
                )),
        )
        .unwrap();
        cat.define_class(ClassBuilder::class("Automobile").inherits("Vehicle"))
            .unwrap();
        cat.define_class(ClassBuilder::class("JapaneseAuto").inherits("Automobile"))
            .unwrap();
        cat
    }

    #[test]
    fn type_id_name_roundtrip() {
        let cat = vehicle_catalog();
        let id = cat.type_id("Vehicle").unwrap();
        assert_eq!(cat.type_name(id).unwrap(), "Vehicle");
        assert!(cat.type_id("Nope").is_err());
    }

    #[test]
    fn object_crud_with_normalization() {
        let cat = vehicle_catalog();
        let oid = cat
            .new_object(
                "Vehicle",
                // Fields out of order and one missing (manufacturer → Null).
                Value::tuple(vec![
                    ("weight", Value::Integer(1500)),
                    ("id", Value::Integer(1)),
                ]),
            )
            .unwrap();
        let (class, v) = cat.get_object(oid).unwrap();
        assert_eq!(class, "Vehicle");
        assert_eq!(v.field("id"), Some(&Value::Integer(1)));
        assert_eq!(v.field("manufacturer"), Some(&Value::Null));

        cat.update_object(
            oid,
            Value::tuple(vec![
                ("id", Value::Integer(1)),
                ("weight", Value::Integer(1600)),
            ]),
        )
        .unwrap();
        let (_, v) = cat.get_object(oid).unwrap();
        assert_eq!(v.field("weight"), Some(&Value::Integer(1600)));

        cat.delete_object(oid).unwrap();
        assert!(cat.get_object(oid).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let cat = vehicle_catalog();
        let err = cat
            .new_object("Vehicle", Value::tuple(vec![("id", Value::string("one"))]))
            .unwrap_err();
        assert!(matches!(err, CatalogError::TypeMismatch { .. }));
        let err = cat
            .new_object("Vehicle", Value::tuple(vec![("bogus", Value::Integer(1))]))
            .unwrap_err();
        assert!(matches!(err, CatalogError::TypeMismatch { .. }));
    }

    #[test]
    fn subclass_instances_report_dynamic_type() {
        let cat = vehicle_catalog();
        let oid = cat
            .new_object(
                "JapaneseAuto",
                Value::tuple(vec![("id", Value::Integer(7))]),
            )
            .unwrap();
        let (class, _) = cat.get_object(oid).unwrap();
        assert_eq!(class, "JapaneseAuto");
    }

    #[test]
    fn extent_every_and_minus() {
        let cat = vehicle_catalog();
        cat.new_object("Vehicle", Value::tuple(vec![("id", Value::Integer(1))]))
            .unwrap();
        cat.new_object("Automobile", Value::tuple(vec![("id", Value::Integer(2))]))
            .unwrap();
        cat.new_object(
            "JapaneseAuto",
            Value::tuple(vec![("id", Value::Integer(3))]),
        )
        .unwrap();

        assert_eq!(cat.extent("Vehicle").unwrap().len(), 1);
        assert_eq!(cat.extent_every("Vehicle", &[]).unwrap().len(), 3);
        // The paper's query: EVERY Automobile - JapaneseAuto.
        let minus = cat
            .extent_every("Automobile", &["JapaneseAuto".to_string()])
            .unwrap();
        assert_eq!(minus.len(), 1);
        assert_eq!(minus[0].1.field("id"), Some(&Value::Integer(2)));
    }

    #[test]
    fn btree_index_lookup_and_maintenance() {
        let cat = vehicle_catalog();
        cat.create_index("Vehicle", "weight", false).unwrap();
        let oids: Vec<_> = (0..50)
            .map(|i| {
                cat.new_object(
                    "Vehicle",
                    Value::tuple(vec![
                        ("id", Value::Integer(i)),
                        ("weight", Value::Integer(1000 + (i % 5) * 100)),
                    ]),
                )
                .unwrap()
            })
            .collect();
        let hits = cat
            .index_lookup("Vehicle", "weight", &Value::Integer(1200))
            .unwrap();
        assert_eq!(hits.len(), 10);
        // Range probe 1000..=1100.
        let range = cat
            .index_range(
                "Vehicle",
                "weight",
                Some((&Value::Integer(1000), true)),
                Some((&Value::Integer(1100), true)),
            )
            .unwrap();
        assert_eq!(range.len(), 20);
        // Update moves the entry.
        cat.update_object(
            oids[0],
            Value::tuple(vec![
                ("id", Value::Integer(0)),
                ("weight", Value::Integer(9999)),
            ]),
        )
        .unwrap();
        assert_eq!(
            cat.index_lookup("Vehicle", "weight", &Value::Integer(9999))
                .unwrap(),
            vec![oids[0]]
        );
        // Delete removes it.
        cat.delete_object(oids[0]).unwrap();
        assert!(cat
            .index_lookup("Vehicle", "weight", &Value::Integer(9999))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn batched_fetch_decodes_the_read_set_and_skips_what_is_gone() {
        let cat = vehicle_catalog();
        let vehicle = |class: &str, id: i32| {
            let fields = vec![
                ("id", Value::Integer(id)),
                ("weight", Value::Integer(id * 10)),
            ];
            cat.new_object(class, Value::tuple(fields)).unwrap()
        };
        let mut oids: Vec<Oid> = (0..40).map(|i| vehicle("Vehicle", i)).collect();
        oids.extend((40..50).map(|i| vehicle("Automobile", i)));
        cat.delete_object(oids[7]).unwrap();
        let nowhere = Oid::new(FileId(9_999), oids[0].page, oids[0].slot, 1);
        let mut asked = oids.clone();
        asked.push(nowhere);
        asked.sort();
        let only_id = FieldSet::Only(vec!["id".to_string()]);
        let mut got = Vec::new();
        cat.fetch_fields_with(&asked, &only_id, &mut |oid, v| got.push((oid, v)))
            .unwrap();
        // In the order asked, across both extents, less the deleted object
        // and the OID of no extent; only `id` decoded.
        let live: Vec<Oid> = asked
            .iter()
            .copied()
            .filter(|o| *o != oids[7] && *o != nowhere)
            .collect();
        assert_eq!(got.iter().map(|(o, _)| *o).collect::<Vec<_>>(), live);
        for (oid, value) in &got {
            let (_, whole) = cat.get_object(*oid).unwrap();
            assert_eq!(value.field("id"), whole.field("id"));
            assert_eq!(value.field("weight"), None);
            assert_eq!(cat.get_object_fields(*oid, &only_id).unwrap().1, *value);
        }
    }

    #[test]
    fn index_built_from_existing_extent() {
        let cat = vehicle_catalog();
        for i in 0..20 {
            cat.new_object("Vehicle", Value::tuple(vec![("id", Value::Integer(i))]))
                .unwrap();
        }
        cat.create_index("Vehicle", "id", true).unwrap();
        assert_eq!(
            cat.index_lookup("Vehicle", "id", &Value::Integer(7))
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn binary_join_index_on_reference() {
        let cat = vehicle_catalog();
        let bmw = cat
            .new_object(
                "Company",
                Value::tuple(vec![("name", Value::string("BMW"))]),
            )
            .unwrap();
        cat.create_index("Vehicle", "manufacturer", false).unwrap();
        let car = cat
            .new_object(
                "Vehicle",
                Value::tuple(vec![
                    ("id", Value::Integer(1)),
                    ("manufacturer", Value::Ref(bmw)),
                ]),
            )
            .unwrap();
        assert_eq!(
            cat.index_lookup("Vehicle", "manufacturer", &Value::Ref(bmw))
                .unwrap(),
            vec![car]
        );
    }

    #[test]
    fn schema_evolution_add_drop_rename() {
        let cat = vehicle_catalog();
        let oid = cat
            .new_object("Vehicle", Value::tuple(vec![("id", Value::Integer(1))]))
            .unwrap();
        cat.add_attribute("Vehicle", "color", TypeDescriptor::string())
            .unwrap();
        // Existing object reads the new attribute as Null.
        let (_, v) = cat.get_object(oid).unwrap();
        assert_eq!(
            v.field("color"),
            None,
            "stored value predates the attribute"
        );
        let norm = cat.normalize("Vehicle", v).unwrap();
        assert_eq!(norm.field("color"), Some(&Value::Null));
        // Subclasses see it too.
        assert!(cat
            .effective_attributes("JapaneseAuto")
            .unwrap()
            .iter()
            .any(|a| a.name == "color"));
        cat.rename_attribute("Vehicle", "color", "paint").unwrap();
        assert!(cat.class("Vehicle").unwrap().attribute("paint").is_some());
        cat.drop_attribute("Vehicle", "paint").unwrap();
        assert!(cat.class("Vehicle").unwrap().attribute("paint").is_none());
        // Duplicate-vs-inherited is rejected.
        assert!(matches!(
            cat.add_attribute("Automobile", "id", TypeDescriptor::integer()),
            Err(CatalogError::DuplicateAttribute { .. })
        ));
    }

    #[test]
    fn drop_class_guards_subclasses() {
        let cat = vehicle_catalog();
        assert!(cat.drop_class("Vehicle").is_err(), "has subclasses");
        cat.drop_class("JapaneseAuto").unwrap();
        cat.drop_class("Automobile").unwrap();
        cat.drop_class("Vehicle").unwrap();
        assert!(cat.class("Vehicle").is_err());
    }

    #[test]
    fn persistence_roundtrip_via_root() {
        let sm = Arc::new(StorageManager::in_memory());
        let root;
        {
            let cat = Catalog::create(sm.clone()).unwrap();
            cat.define_class(
                ClassBuilder::class("Employee")
                    .attribute("ssno", TypeDescriptor::integer())
                    .attribute("name", TypeDescriptor::string()),
            )
            .unwrap();
            root = cat.root();
        }
        let cat = Catalog::open(sm, root).unwrap();
        let def = cat.class("Employee").unwrap();
        assert_eq!(def.attributes.len(), 2);
        // New definitions get fresh, non-colliding type ids.
        let d2 = cat.define_class(ClassBuilder::class("Dept")).unwrap();
        assert!(d2.type_id > def.type_id);
    }

    #[test]
    fn value_types_have_no_extent() {
        let cat = vehicle_catalog();
        // A *type* (copy semantics, Section 2): no extent, no instances in
        // any extent scan, but usable as an attribute type.
        cat.define_class(
            ClassBuilder::value_type("Money").attribute("amount", TypeDescriptor::float()),
        )
        .unwrap();
        let err = cat
            .new_object("Money", Value::tuple(vec![("amount", Value::Float(1.0))]))
            .unwrap_err();
        assert!(matches!(err, CatalogError::NoExtent(_)));
        assert!(cat.extent("Money").is_err());
        // It still has a type id and participates in typeName lookups.
        let id = cat.type_id("Money").unwrap();
        assert_eq!(cat.type_name(id).unwrap(), "Money");
    }

    #[test]
    fn named_objects() {
        let cat = vehicle_catalog();
        let oid = cat
            .new_object(
                "Company",
                Value::tuple(vec![("name", Value::string("METU"))]),
            )
            .unwrap();
        cat.name_object("home", oid);
        assert_eq!(cat.named_object("home"), Some(oid));
        assert_eq!(cat.named_object("away"), None);
    }

    #[test]
    fn collect_stats_measures_extents() {
        let cat = vehicle_catalog();
        let bmw = cat
            .new_object(
                "Company",
                Value::tuple(vec![("name", Value::string("BMW"))]),
            )
            .unwrap();
        let toyota = cat
            .new_object(
                "Company",
                Value::tuple(vec![("name", Value::string("Toyota"))]),
            )
            .unwrap();
        for i in 0..10 {
            let m = if i % 2 == 0 { bmw } else { toyota };
            cat.new_object(
                "Vehicle",
                Value::tuple(vec![
                    ("id", Value::Integer(i)),
                    ("weight", Value::Integer(1000 + i * 10)),
                    ("manufacturer", Value::Ref(m)),
                ]),
            )
            .unwrap();
        }
        cat.create_index("Vehicle", "weight", false).unwrap();
        let stats = cat.collect_stats().unwrap();
        let v = stats.class("Vehicle").unwrap();
        assert_eq!(v.cardinality, 10);
        assert!(v.nbpages >= 1);
        assert!(v.size > 0);
        let w = stats.attr("Vehicle", "weight").unwrap();
        assert_eq!(w.dist, 10);
        assert_eq!(w.min, Some(1000.0));
        assert_eq!(w.max, Some(1090.0));
        assert_eq!(w.notnull, 1.0);
        let r = stats.reference("Vehicle", "manufacturer").unwrap();
        assert_eq!(r.target, "Company");
        assert_eq!(r.fan, 1.0);
        assert_eq!(r.totref, 2);
        assert_eq!(stats.totlinks("Vehicle", "manufacturer"), Some(10.0));
        assert_eq!(stats.hitprb("Vehicle", "manufacturer"), Some(1.0));
        assert!(stats.index("Vehicle", "weight").is_some());
    }

    #[test]
    fn deep_equality_through_catalog() {
        let cat = vehicle_catalog();
        let a = cat
            .new_object("Company", Value::tuple(vec![("name", Value::string("X"))]))
            .unwrap();
        let b = cat
            .new_object("Company", Value::tuple(vec![("name", Value::string("X"))]))
            .unwrap();
        assert!(mood_datamodel::deep_eq(
            &Value::Ref(a),
            &Value::Ref(b),
            &cat
        ));
    }
}

mod cluster_tests;
