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
//!   ([`Catalog::new_object`] etc.), each object stored as a positional
//!   record of its class's schema version and read back by
//!   [`ObjectReader`];
//! * secondary B+-tree indexes with automatic maintenance;
//! * the statistics of Table 8/9, collectable by scan or injectable for the
//!   paper's worked examples ([`stats`]).
//!
//! One rule governs files. The catalog's pages ([`persist`]) are the only
//! record of which file serves what — extents and index registrations
//! alike — and every DDL rewrites them inside its own transaction, so a
//! rolled-back DDL is undone by the page rollback and one loader
//! ([`Catalog::reload_schema`]). A file a DDL stops using (a dropped
//! class's extent and indexes, a dropped index, a rebuilt index's or a
//! reorganized extent's old file) is retired: queued, and dropped only by
//! [`Catalog::reap_pending_drops`] after the transaction commits.

mod cluster;
pub mod error;
pub mod hierarchy;
mod layout;
pub mod persist;
pub mod schema;
pub mod stats;

pub use cluster::ClusterReport;
pub use error::{CatalogError, Result};
pub use layout::ObjectReader;
pub use persist::{CatalogRoot, CatalogStore, FORMAT_VERSION};
pub use schema::{
    AttrId, AttributeDef, ClassBuilder, ClassDef, ClassKind, MethodSig, TypeId, Version,
};
pub use stats::{AttrStats, ClassStats, DatabaseStats, RefStats};

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use mood_datamodel::{encode_key, FieldSet, Resolver, TypeDescriptor, Value};
use mood_storage::{AccessHint, FileId, Oid, StorageManager};

use cluster::chase_locality;
use layout::Layouts;

/// A registered secondary index on (class, attribute): a B+-tree. A
/// dotted attribute is a path index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexInfo {
    pub class: String,
    pub attribute: String,
    pub unique: bool,
    pub file: FileId,
}

/// An index registry key `(class, attribute)`, so a lookup can borrow both
/// names instead of building the owned pair. `(&str, &str)` hashes and
/// compares as the `(String, String)` it stands for.
trait IndexKey {
    fn names(&self) -> (&str, &str);
}

impl IndexKey for (String, String) {
    fn names(&self) -> (&str, &str) {
        (&self.0, &self.1)
    }
}

impl IndexKey for (&str, &str) {
    fn names(&self) -> (&str, &str) {
        *self
    }
}

impl<'k> Borrow<dyn IndexKey + 'k> for (String, String) {
    fn borrow(&self) -> &(dyn IndexKey + 'k) {
        self
    }
}

impl Hash for dyn IndexKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.names().hash(state);
    }
}

impl PartialEq for dyn IndexKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.names() == other.names()
    }
}

impl Eq for dyn IndexKey + '_ {}

/// A class's effective attributes as `(id, name)`, in slot order.
type AttributeList = Vec<(AttrId, String)>;

struct Inner {
    classes: hierarchy::ClassMap,
    by_id: HashMap<TypeId, String>,
    extent_class: HashMap<FileId, String>,
    next_type_id: TypeId,
    /// Like type ids, attribute ids never move back: one a dropped
    /// attribute or a rolled-back DDL took is never reissued.
    next_attr_id: AttrId,
    /// What stored objects are read and written by, rebuilt from
    /// `classes` by every schema change ([`Inner::relayout`]).
    layouts: Arc<Layouts>,
    store: CatalogStore,
    /// Shared, so a lookup hands out the registration without copying it.
    indexes: HashMap<(String, String), Arc<IndexInfo>>,
    stats: DatabaseStats,
    named: HashMap<String, Oid>,
    /// Files a DDL retired (extents, index files). They must survive until
    /// the transaction that retired them commits — a rollback, or recovery
    /// after a crash, still needs their bytes — so the physical drop waits
    /// for [`Catalog::reap_pending_drops`]; a reload cancels the drop of
    /// every file the pages reference again.
    pending_drops: Vec<FileId>,
}

impl Inner {
    /// The one loader: rebuild the classes, type ids, extent map and index
    /// registry from the catalog's pages. `next_type_id` never moves back,
    /// so an id a rolled-back DDL consumed is never reissued; statistics
    /// and named objects are advisory and stay.
    fn load(&mut self) -> Result<()> {
        let (defs, indexes) = self.store.load_all()?;
        self.classes.clear();
        self.by_id.clear();
        self.extent_class.clear();
        for def in defs {
            self.next_type_id = self.next_type_id.max(def.type_id + 1);
            let slots = def.versions.iter().flatten().copied();
            let ids = def.attributes.iter().map(|a| a.id).chain(slots);
            self.next_attr_id = self.next_attr_id.max(ids.max().map_or(0, |id| id + 1));
            self.by_id.insert(def.type_id, def.name.clone());
            if let Some(f) = def.extent {
                self.extent_class.insert(f, def.name.clone());
            }
            self.classes.insert(def.name.clone(), def);
        }
        let key = |i: &IndexInfo| (i.class.clone(), i.attribute.clone());
        self.indexes = indexes.into_iter().map(|i| (key(&i), Arc::new(i))).collect();
        let (extents, indexes) = (&self.extent_class, &self.indexes);
        self.pending_drops
            .retain(|f| !extents.contains_key(f) && !indexes.values().any(|i| i.file == *f));
        self.relayout();
        Ok(())
    }

    /// Rebuild the layouts from the classes: after anything that changes
    /// which classes exist or what attributes they have.
    fn relayout(&mut self) {
        self.layouts = Arc::new(Layouts::of(&self.classes));
    }

    /// Give `class` and each subclass whose effective attributes — ids or
    /// names — differ from `before` (each class's `(id, name)` list) a new
    /// schema version; the classes that got one. An inheritance conflict
    /// anywhere changes nothing.
    fn bump_versions(
        &mut self,
        before: &[(String, AttributeList)],
    ) -> Result<Vec<String>> {
        let mut bumps = Vec::new();
        for (class, was) in before {
            let now = hierarchy::effective_attributes(&self.classes, class)?;
            if now.iter().map(|a| (a.id, &a.name)).eq(was.iter().map(|(id, n)| (*id, n))) {
                continue;
            }
            if self.classes[class].versions.len() > usize::from(Version::MAX) {
                return Err(CatalogError::TooManyVersions(class.clone()));
            }
            bumps.push((class.clone(), now.iter().map(|a| a.id).collect::<Vec<_>>()));
        }
        // Nothing changes until every class has validated.
        for (class, slots) in &bumps {
            self.classes.get_mut(class).expect("listed from the map").versions.push(slots.clone());
        }
        Ok(bumps.into_iter().map(|(class, _)| class).collect())
    }

    /// `class` and its subclasses, each with its effective attributes as
    /// `(id, name)`: what [`bump_versions`](Self::bump_versions) compares.
    fn attribute_lists(&self, class: &str) -> Result<Vec<(String, AttributeList)>> {
        let mut classes = vec![class.to_string()];
        let subclasses = hierarchy::all_subclasses(&self.classes, class);
        classes.extend(subclasses.iter().map(|d| d.name.clone()));
        classes
            .into_iter()
            .map(|c| {
                let attrs = hierarchy::effective_attributes(&self.classes, &c)?;
                Ok((c, attrs.into_iter().map(|a| (a.id, a.name)).collect()))
            })
            .collect()
    }

    /// Retire every index whose attribute path no longer resolves against
    /// the schema — a segment names no attribute of its hop's class — inside
    /// the same DDL: unregister it, forget its statistics and queue its file
    /// for dropping. Returns the classes whose index records changed.
    fn retire_stale_indexes(&mut self) -> Vec<String> {
        let mut stale: Vec<(String, String)> =
            self.indexes.keys().filter(|(c, p)| !self.resolves(c, p)).cloned().collect();
        stale.sort();
        for key in &stale {
            let info = self.indexes.remove(key).expect("listed above");
            self.stats.remove_index(&key.0, &key.1);
            self.pending_drops.push(info.file);
        }
        let mut changed: Vec<String> = stale.into_iter().map(|(c, _)| c).collect();
        changed.dedup();
        changed
    }

    /// Whether every segment of the dotted `path` from `root` names an
    /// attribute of its hop's class.
    fn resolves(&self, root: &str, path: &str) -> bool {
        let mut hop = root.to_string();
        let mut segments = path.split('.').peekable();
        while let Some(segment) = segments.next() {
            let Ok(attrs) = hierarchy::effective_attributes(&self.classes, &hop) else {
                return false;
            };
            let Some(attr) = attrs.iter().find(|a| a.name == segment) else {
                return false;
            };
            if segments.peek().is_some() {
                match attr.ty.referenced_class() {
                    Some(next) => hop = next.to_string(),
                    None => return false,
                }
            }
        }
        true
    }

    /// Re-key every index that reads `class`'s attribute renamed `old` →
    /// `new` — on `class`, on a subclass, or on a path through it — to the
    /// new name, with its statistics; run after the rename, the paths are
    /// resolved against the renamed schema. Returns the classes whose
    /// index records changed.
    fn rename_in_indexes(&mut self, class: &str, old: &str, new: &str) -> Vec<String> {
        let mut renamed: Vec<((String, String), String)> = Vec::new();
        for (root, path) in self.indexes.keys() {
            let (mut hop, mut segments) = (root.clone(), Vec::new());
            for segment in path.split('.') {
                let inherited =
                    segment == old && hierarchy::is_subclass_of(&self.classes, &hop, class);
                let segment = if inherited { new } else { segment };
                segments.push(segment);
                let Ok(attrs) = hierarchy::effective_attributes(&self.classes, &hop) else { break };
                let next = attrs.iter().find(|a| a.name == segment);
                match next.and_then(|a| a.ty.referenced_class()) {
                    Some(target) => hop = target.to_string(),
                    None => break,
                }
            }
            let renamed_path = segments.join(".");
            if segments.len() == path.split('.').count() && renamed_path != *path {
                renamed.push(((root.clone(), path.clone()), renamed_path));
            }
        }
        let mut changed = Vec::new();
        for (key, path) in renamed {
            let info = self.indexes.remove(&key).expect("listed above");
            if let Some(stats) = self.stats.index(&key.0, &key.1).cloned() {
                self.stats.remove_index(&key.0, &key.1);
                self.stats.set_index(&key.0, &path, stats);
            }
            let info = IndexInfo { attribute: path.clone(), ..IndexInfo::clone(&info) };
            self.indexes.insert((key.0.clone(), path), Arc::new(info));
            changed.push(key.0);
        }
        changed.sort();
        changed.dedup();
        changed
    }

    /// Persist `class`'s records — its definition and the indexes declared
    /// on it — inside the caller's transaction.
    fn save(&mut self, class: &str) -> Result<()> {
        let def = self
            .classes
            .get(class)
            .ok_or_else(|| CatalogError::UnknownClass(class.to_string()))?;
        let mut indexes: Vec<&IndexInfo> =
            self.indexes.values().filter(|i| i.class == class).map(|i| &**i).collect();
        indexes.sort_by(|a, b| a.attribute.cmp(&b.attribute));
        self.store.save_class(def, &indexes)
    }
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
        Ok(Self::over(sm, store))
    }

    /// Reopen a catalog persisted at `root`.
    pub fn open(sm: Arc<StorageManager>, root: CatalogRoot) -> Result<Catalog> {
        let store = CatalogStore::open(&sm, root);
        let catalog = Self::over(sm, store);
        catalog.inner.write().load()?;
        Ok(catalog)
    }

    /// An empty catalog over `store`'s files.
    fn over(sm: Arc<StorageManager>, store: CatalogStore) -> Catalog {
        Catalog {
            sm,
            inner: RwLock::new(Inner {
                classes: hierarchy::ClassMap::new(),
                by_id: HashMap::new(),
                extent_class: HashMap::new(),
                next_type_id: 1,
                next_attr_id: 1,
                layouts: Arc::default(),
                store,
                indexes: HashMap::new(),
                stats: DatabaseStats::new(),
                named: HashMap::new(),
                pending_drops: Vec::new(),
            }),
            epoch: AtomicU64::new(0),
        }
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

    /// Rebuild the in-memory schema — classes, type ids, extent map, index
    /// registry — from the persisted catalog pages.
    ///
    /// Called after a rolled-back DDL autocommit: the pages are back to
    /// their pre-statement contents, but the maps may have moved. A file
    /// the DDL retired is referenced by the pages again and no longer
    /// queued for dropping; one it created is referenced by nothing.
    pub fn reload_schema(&self) -> Result<()> {
        self.inner.write().load()?;
        self.bump_epoch();
        Ok(())
    }

    /// Physically drop the files retired by committed DDL. Call after the
    /// transaction commits: a file is never dropped on rollback, since
    /// after an ambiguous commit recovery may still replay it.
    ///
    /// The WAL may still carry committed page images for the files about
    /// to disappear, and recovery cannot replay onto a dropped file id —
    /// so the log is checkpointed (flushed and truncated) first. If the
    /// checkpoint fails the files stay queued for a later reap: an
    /// unreclaimed file is a leak, an unrecoverable log is corruption.
    pub fn reap_pending_drops(&self) {
        let files: Vec<FileId> = std::mem::take(&mut self.inner.write().pending_drops);
        if files.is_empty() {
            return;
        }
        if self.sm.checkpoint().is_err() {
            self.inner.write().pending_drops.extend(files);
            return;
        }
        for f in files {
            self.sm.forget_index(f);
            self.sm.pool().discard_file(f);
            let _ = self.sm.pool().disk().drop_file(f);
        }
    }

    /// Files currently queued for post-commit dropping (tests/telemetry).
    pub fn pending_drop_count(&self) -> usize {
        self.inner.read().pending_drops.len()
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
        let mut def = builder.build(type_id, extent);
        for attr in &mut def.attributes {
            attr.id = inner.next_attr_id;
            inner.next_attr_id += 1;
        }
        // Validate the effective attribute set (inheritance conflicts); it
        // is version 0's slot list.
        inner.classes.insert(name.clone(), def.clone());
        match hierarchy::effective_attributes(&inner.classes, &name) {
            Ok(attrs) => def.versions = vec![attrs.iter().map(|a| a.id).collect()],
            Err(e) => {
                inner.classes.remove(&name);
                return Err(e);
            }
        }
        inner.classes.insert(name.clone(), def.clone());
        inner.by_id.insert(type_id, name.clone());
        if let Some(f) = extent {
            inner.extent_class.insert(f, name.clone());
        }
        inner.relayout();
        inner.save(&name)?;
        drop(inner);
        self.bump_epoch();
        Ok(def)
    }

    /// Drop a class. Refuses while subclasses exist. Its extent and index
    /// files are retired, dropped after commit.
    pub fn drop_class(&self, name: &str) -> Result<()> {
        let mut guard = self.inner.write();
        let inner = &mut *guard;
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
            inner.pending_drops.push(f);
        }
        let retired = &mut inner.pending_drops;
        inner.indexes.retain(|(c, _), info| {
            let keep = c != name;
            if !keep {
                retired.push(info.file);
            }
            keep
        });
        inner.store.delete_class(name)?;
        inner.relayout();
        drop(guard);
        self.bump_epoch();
        Ok(())
    }

    /// Change `name`'s definition by `f`, then let `indexes` follow the
    /// change (it returns the classes whose index records it changed). The
    /// class and each subclass whose effective attributes moved get a new
    /// schema version; an index on an attribute `f` removed is retired in
    /// the same DDL ([`Inner::retire_stale_indexes`]).
    fn mutate_class(
        &self,
        name: &str,
        f: impl FnOnce(&mut ClassDef) -> Result<()>,
        indexes: impl FnOnce(&mut Inner) -> Vec<String>,
    ) -> Result<()> {
        let mut inner = self.inner.write();
        let mut def = inner
            .classes
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::UnknownClass(name.to_string()))?;
        let before = inner.attribute_lists(name)?;
        f(&mut def)?;
        let orig = inner.classes.insert(name.to_string(), def).expect("cloned above");
        // Re-validate inheritance for the whole affected subtree, and
        // version every class whose attributes moved.
        let bumped = match inner.bump_versions(&before) {
            Ok(bumped) => bumped,
            Err(e) => {
                inner.classes.insert(name.to_string(), orig);
                return Err(e);
            }
        };
        let mut changed = indexes(&mut inner);
        changed.extend(inner.retire_stale_indexes());
        changed.extend(bumped);
        changed.push(name.to_string());
        changed.sort();
        changed.dedup();
        inner.relayout();
        for class in &changed {
            inner.save(class)?;
        }
        drop(inner);
        self.bump_epoch();
        Ok(())
    }

    /// Add an attribute to a class (schema evolution): a new attribute id,
    /// so existing objects — and any stored under an earlier attribute of
    /// the same name — read it as `Null`.
    pub fn add_attribute(&self, class: &str, name: &str, ty: TypeDescriptor) -> Result<()> {
        self.check_new_attribute(class, name)?;
        let id = {
            let mut inner = self.inner.write();
            inner.next_attr_id += 1;
            inner.next_attr_id - 1
        };
        self.mutate_class(
            class,
            |def| {
                def.attributes.push(AttributeDef { id, ..AttributeDef::new(name, ty) });
                Ok(())
            },
            |_| Vec::new(),
        )
    }

    /// Refuse a name `class` or one of its subclasses already has an
    /// attribute by.
    fn check_new_attribute(&self, class: &str, name: &str) -> Result<()> {
        let inner = self.inner.read();
        let mut classes = vec![class.to_string()];
        let subclasses = hierarchy::all_subclasses(&inner.classes, class);
        classes.extend(subclasses.iter().map(|d| d.name.clone()));
        for c in classes {
            if hierarchy::effective_attributes(&inner.classes, &c)?.iter().any(|a| a.name == name) {
                return Err(CatalogError::DuplicateAttribute {
                    class: c,
                    attribute: name.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Drop an own attribute. Its id is retired: stored objects keep the
    /// bytes, but nothing reads them again. Every index on it — on the
    /// class, on a subclass, or a path through it — is retired in the same
    /// DDL.
    pub fn drop_attribute(&self, class: &str, name: &str) -> Result<()> {
        self.mutate_class(
            class,
            |def| {
                let before = def.attributes.len();
                def.attributes.retain(|a| a.name != name);
                if def.attributes.len() == before {
                    return Err(CatalogError::UnknownAttribute {
                        class: class.to_string(),
                        attribute: name.to_string(),
                    });
                }
                Ok(())
            },
            |_| Vec::new(),
        )
    }

    /// Rename an own attribute. Only the name changes — the id, and so
    /// every stored value, stays — and every index that reads the
    /// attribute, on the class, on a subclass or on a path through it,
    /// follows under the new name.
    pub fn rename_attribute(&self, class: &str, old: &str, new: &str) -> Result<()> {
        self.check_new_attribute(class, new)?;
        self.mutate_class(
            class,
            |def| {
                let attr = def.attributes.iter_mut().find(|a| a.name == old).ok_or_else(|| {
                    CatalogError::UnknownAttribute {
                        class: class.to_string(),
                        attribute: old.to_string(),
                    }
                })?;
                attr.name = new.to_string();
                Ok(())
            },
            |inner| inner.rename_in_indexes(class, old, new),
        )
    }

    /// Register a method signature (the body goes to the Function Manager).
    pub fn add_method(&self, class: &str, sig: MethodSig) -> Result<()> {
        let f = |def: &mut ClassDef| {
            def.methods.retain(|m| m.name != sig.name);
            def.methods.push(sig);
            Ok(())
        };
        self.mutate_class(class, f, |_| Vec::new())
    }

    /// Remove a method signature.
    pub fn drop_method(&self, class: &str, method: &str) -> Result<()> {
        let f = |def: &mut ClassDef| {
            let before = def.methods.len();
            def.methods.retain(|m| m.name != method);
            if def.methods.len() == before {
                return Err(CatalogError::UnknownMethod {
                    class: class.to_string(),
                    signature: method.to_string(),
                });
            }
            Ok(())
        };
        self.mutate_class(class, f, |_| Vec::new())
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

    /// The paper's `typeId(char *typeName)`, without copying the
    /// definition.
    pub fn type_id(&self, name: &str) -> Result<TypeId> {
        let inner = self.inner.read();
        let def = inner.classes.get(name);
        def.map(|d| d.type_id).ok_or_else(|| CatalogError::UnknownClass(name.to_string()))
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

    /// The stored record of `value`, normalized for the class of type
    /// `type_id`, under that class's current schema version.
    fn encode_object(&self, type_id: TypeId, value: &Value) -> Result<Vec<u8>> {
        self.inner.read().layouts.encode(type_id, value)
    }

    /// A reader of stored objects that materializes the attributes
    /// `fields` names, under the schema as it is now
    /// ([`ObjectReader::decode_into`]): one per scan or fetch, so each
    /// (type, version) it meets is resolved to slot positions once.
    pub fn reader<'f>(&self, fields: &'f FieldSet) -> ObjectReader<'f> {
        ObjectReader::new(self.inner.read().layouts.clone(), fields)
    }

    /// Create an object in `class`'s extent: the MOODSQL
    /// `new Class <values...>` operation.
    pub fn new_object(&self, class: &str, value: Value) -> Result<Oid> {
        let value = self.normalize(class, value)?;
        let file = self.extent_file(class)?;
        let record = self.encode_object(self.type_id(class)?, &value)?;
        let oid = self.sm.open_heap(file).insert(&record)?;
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
        let (class, layouts) = {
            let inner = self.inner.read();
            let class = inner.extent_class.get(&oid.file).cloned();
            (class, inner.layouts.clone())
        };
        let dangling = CatalogError::Storage(mood_storage::StorageError::DanglingOid(oid));
        let class = class.ok_or(dangling)?;
        let heap = self.sm.open_heap(oid.file);
        let mut reader = ObjectReader::new(layouts, &FieldSet::All);
        let (type_id, value) = reader.decode(oid, &heap.get(oid)?)?;
        // Prefer the stored (dynamic) type name when it resolves.
        let name = self.type_name(type_id).unwrap_or(class);
        Ok((name, value))
    }

    /// The stored records behind `oids`, in the order given, as `(oid,
    /// bytes)` borrowed from the page (a [`reader`](Self::reader) decodes
    /// one). The extent's heap is opened once per run of OIDs of one
    /// file and each of its pages accessed once per run of OIDs on it — sort
    /// the OIDs first ([`mood_storage::HeapFile::get_batch_with`]). An OID
    /// that names nothing (a deleted object, a reused slot, no extent) is
    /// skipped, as index entries may be stale; a storage failure is the
    /// call's error. The visitor runs on the pinned page and returns `false`
    /// to stop the whole fetch.
    pub fn fetch_records_with(
        &self,
        oids: &[Oid],
        visit: &mut dyn FnMut(Oid, &[u8]) -> bool,
    ) -> Result<()> {
        let (mut rest, mut more) = (oids, true);
        while let Some(first) = rest.first().filter(|_| more) {
            let run = rest.iter().take_while(|o| o.file == first.file).count();
            let (same_file, tail) = rest.split_at(run);
            rest = tail;
            if !self.inner.read().extent_class.contains_key(&first.file) {
                continue;
            }
            self.sm
                .open_heap(first.file)
                .get_batch_with(same_file, |oid, record| {
                    more = record.is_none_or(|bytes| visit(oid, bytes));
                    more
                })?;
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
        let record = self.encode_object(self.type_id(&class)?, &value)?;
        self.sm.open_heap(oid.file).update(oid, &record)?;
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
        self.extent_fields_with(&[class.to_string()], &FieldSet::All, hint, visit)
    }

    /// [`extent_records_with`](Self::extent_records_with) over `classes`,
    /// each record decoded afresh to the fields the caller reads. A record
    /// that does not decode ends the scan with an error: skipping it would
    /// silently shorten every answer over the extent.
    pub fn extent_fields_with(
        &self,
        classes: &[String],
        fields: &FieldSet,
        hint: AccessHint,
        visit: &mut dyn FnMut(Oid, Value) -> bool,
    ) -> Result<()> {
        let (mut unreadable, mut reader) = (None, self.reader(fields));
        self.extent_records_with(classes, hint, &mut |oid, bytes| {
            match reader.decode(oid, bytes) {
                Ok((_, v)) => visit(oid, v),
                Err(e) => {
                    unreadable = Some(e);
                    false
                }
            }
        })?;
        unreadable.map_or(Ok(()), Err)
    }

    /// The one heap walk behind every extent scan: the stored records of
    /// each class's own extent in `classes`, in order, as `(oid, bytes)`
    /// borrowed from the page (a [`reader`](Self::reader) decodes one). The
    /// visitor returns `false` to stop the whole walk. A class
    /// without an extent is an error.
    pub fn extent_records_with(
        &self,
        classes: &[String],
        hint: AccessHint,
        visit: &mut dyn FnMut(Oid, &[u8]) -> bool,
    ) -> Result<()> {
        let mut more = true;
        for class in classes {
            if !more {
                break;
            }
            let heap = self.sm.open_heap(self.extent_file(class)?);
            heap.scan_hint_with(hint, |oid, bytes| {
                more = visit(oid, bytes);
                more
            })?;
        }
        Ok(())
    }

    /// Scan an extent including subclass extents (`FROM EVERY C`), with an
    /// optional exclusion set (`FROM EVERY C - Sub`, the paper's minus
    /// operator).
    pub fn extent_every(&self, class: &str, minus: &[String]) -> Result<Vec<(Oid, Value)>> {
        let mut out = Vec::new();
        let classes = self.every_classes(class, minus);
        self.extent_fields_with(&classes, &FieldSet::All, AccessHint::Sequential, &mut |oid, v| {
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

    /// The extent files of [`every_classes`](Self::every_classes). An
    /// object lives in the extent of its dynamic class, so "the OID's file
    /// is one of these" is membership of `FROM EVERY class - minus…`.
    pub fn every_files(&self, class: &str, minus: &[String]) -> Vec<FileId> {
        self.extent_files(&self.every_classes(class, minus))
    }

    /// The extent files of `classes`, under one catalog lock and without
    /// copying a class definition; a class without an extent has none.
    pub fn extent_files(&self, classes: &[String]) -> Vec<FileId> {
        let inner = self.inner.read();
        classes.iter().filter_map(|c| inner.classes.get(c)?.extent).collect()
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
        self.check_unindexed(class, attribute)?;
        self.build_index(class, attribute, unique)
    }

    /// Refuse a second index on (class, attribute).
    fn check_unindexed(&self, class: &str, attribute: &str) -> Result<()> {
        match self.index(class, attribute) {
            Some(_) => Err(CatalogError::DuplicateIndex {
                class: class.to_string(),
                attribute: attribute.to_string(),
            }),
            None => Ok(()),
        }
    }

    /// Drop an index; its file is retired, dropped after commit. The
    /// statistics forget it in the same call: a plan built before the next
    /// `collect_stats` must not probe a file that is gone.
    pub fn drop_index(&self, class: &str, attribute: &str) -> Result<()> {
        let mut inner = self.inner.write();
        let info = inner
            .indexes
            .remove(&(class, attribute) as &dyn IndexKey)
            .ok_or_else(|| CatalogError::UnknownIndex {
                class: class.to_string(),
                attribute: attribute.to_string(),
            })?;
        inner.stats.remove_index(class, attribute);
        inner.pending_drops.push(info.file);
        inner.save(class)?;
        drop(inner);
        self.bump_epoch();
        Ok(())
    }

    /// The one index builder: fill a fresh B+-tree from the extents, then
    /// register it — persisted in the class's catalog record — in place of
    /// any earlier file for (class, attribute), which is retired. An
    /// attribute indexes its class's own extent (the per-extent indexing
    /// ESM provided); a dotted path indexes the class and its subclasses,
    /// whose instances share the inherited path, under each root OID.
    /// Streamed: one object in memory at a time, decoded to the path's
    /// first attribute. A build that fails registers nothing.
    fn build_index(&self, class: &str, attribute: &str, unique: bool) -> Result<IndexInfo> {
        let tree = self.sm.create_btree(unique)?;
        let info = IndexInfo {
            class: class.to_string(),
            attribute: attribute.to_string(),
            unique,
            file: tree.file_id(),
        };
        let path: Vec<String> = attribute.split('.').map(str::to_string).collect();
        let classes = match path.len() {
            1 => vec![class.to_string()],
            _ => self.every_classes(class, &[]),
        };
        let (fields, mut value) = (FieldSet::Only(vec![path[0].clone()]), Value::Null);
        let (mut failed, mut reader) = (None, self.reader(&fields));
        self.extent_records_with(&classes, AccessHint::Sequential, &mut |oid, bytes| {
            let indexed = reader.decode_into(oid, bytes, &mut value).and_then(|_| {
                let terminals = self.traverse_path(&value, &path);
                for terminal in terminals.iter().filter(|t| !t.is_null()) {
                    tree.insert(&Self::index_bound(&info, terminal)?, oid)?;
                }
                Ok(())
            });
            failed = indexed.err();
            failed.is_none()
        })?;
        failed.map_or(Ok(()), Err)?;
        let mut inner = self.inner.write();
        let key = (info.class.clone(), info.attribute.clone());
        if let Some(old) = inner.indexes.insert(key, Arc::new(info.clone())) {
            inner.pending_drops.push(old.file);
        }
        inner.save(class)?;
        drop(inner);
        self.bump_epoch();
        Ok(info)
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
        self.check_unindexed(class, &dotted)?;
        self.build_index(class, &dotted, false)
    }

    /// Rebuild a path index from the current extents into a fresh file,
    /// re-traversing every root object forward along the path.
    pub fn rebuild_path_index(&self, class: &str, path: &[String]) -> Result<()> {
        let dotted = path.join(".");
        let info = self
            .index(class, &dotted)
            .ok_or_else(|| CatalogError::UnknownIndex {
                class: class.to_string(),
                attribute: dotted.clone(),
            })?;
        self.build_index(class, &dotted, info.unique).map(drop)
    }

    /// The values `path` reaches from `value`: each hop dereferences a
    /// reference, fanning out through set/list reference attributes.
    fn traverse_path(&self, value: &Value, path: &[String]) -> Vec<Value> {
        let mut frontier: Vec<Value> = value.field(&path[0]).cloned().into_iter().collect();
        for seg in &path[1..] {
            let mut next = Vec::new();
            for v in &frontier {
                let refs = match v {
                    Value::Set(items) | Value::List(items) => items.as_slice(),
                    v => std::slice::from_ref(v),
                };
                for oid in refs.iter().filter_map(Value::as_oid) {
                    if let Ok((_, target)) = self.get_object(oid) {
                        next.extend(target.field(seg).cloned());
                    }
                }
            }
            frontier = next;
        }
        frontier
    }

    /// Registered index on (class, attribute), if any: the registration
    /// itself, shared, found without building a key.
    pub fn index(&self, class: &str, attribute: &str) -> Option<Arc<IndexInfo>> {
        let inner = self.inner.read();
        inner.indexes.get(&(class, attribute) as &dyn IndexKey).cloned()
    }

    /// All registered indexes.
    pub fn indexes(&self) -> Vec<IndexInfo> {
        self.inner.read().indexes.values().map(|i| IndexInfo::clone(i)).collect()
    }

    /// The indexes declared on `class` (each covers that class's own extent).
    fn class_indexes(&self, class: &str) -> Vec<Arc<IndexInfo>> {
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
        let field = value.field(&info.attribute).filter(|f| !f.is_null());
        field.map(|f| Self::index_bound(info, f)).transpose()
    }

    fn index_insert(&self, class: &str, value: &Value, oid: Oid) -> Result<()> {
        for info in self.class_indexes(class) {
            if let Some(key) = Self::index_key(&info, value)? {
                self.index_insert_key(&info, &key, oid)?;
            }
        }
        Ok(())
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
            let attrs = self.effective_attributes(class)?;
            // One pass over the extent, each object decoded into the slot the
            // last one left and fed to every attribute's accumulator: the
            // statistics hold what they count, never the extent.
            let mut accs: Vec<AttrAcc> = attrs.iter().map(|a| AttrAcc::new(&a.ty)).collect();
            let (mut cardinality, mut total_bytes) = (0u64, 0u64);
            let (mut value, mut reader) = (Value::Null, self.reader(&FieldSet::All));
            let mut unreadable = None;
            let extent = std::slice::from_ref(class);
            self.extent_records_with(extent, AccessHint::Sequential, &mut |oid, bytes| {
                if let Err(e) = reader.decode_into(oid, bytes, &mut value) {
                    unreadable = Some(e);
                    return false;
                }
                cardinality += 1;
                total_bytes += bytes.len() as u64;
                for (attr, acc) in attrs.iter().zip(&mut accs) {
                    acc.add(value.field(&attr.name));
                }
                true
            })?;
            unreadable.map_or(Ok(()), Err)?;
            stats.set_class(
                class,
                ClassStats {
                    cardinality,
                    nbpages: heap.pages()? as u64,
                    size: total_bytes.checked_div(cardinality).unwrap_or(0),
                },
            );
            for (attr, acc) in attrs.iter().zip(accs) {
                acc.finish(&mut stats, class, &attr.name, cardinality);
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
/// One attribute's Table 8 statistics, accumulated object by object over
/// its class's extent ([`Catalog::collect_stats`]).
enum AttrAcc {
    /// An atomic attribute: distinct keys, non-null count, numeric range.
    Basic { distinct: HashSet<Vec<u8>>, notnull: u64, min: f64, max: f64, numeric: bool },
    /// A reference (or a set/list of them): links, distinct targets, and
    /// the targets in extent order for the clustering factor.
    Ref { target: String, links: u64, referenced: HashSet<Oid>, chased: Vec<Oid> },
    /// Anything else has no statistics.
    None,
}

impl AttrAcc {
    fn new(ty: &TypeDescriptor) -> AttrAcc {
        match ty {
            TypeDescriptor::Basic(_) => AttrAcc::Basic {
                distinct: HashSet::new(),
                notnull: 0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                numeric: false,
            },
            ty => match ty.referenced_class() {
                Some(target) => AttrAcc::Ref {
                    target: target.to_string(),
                    links: 0,
                    referenced: HashSet::new(),
                    chased: Vec::new(),
                },
                None => AttrAcc::None,
            },
        }
    }

    /// One object's value of the attribute (`None`: the object has no
    /// such field).
    fn add(&mut self, field: Option<&Value>) {
        let Some(f) = field else { return };
        match self {
            AttrAcc::Basic { distinct, notnull, min, max, numeric } => {
                if f.is_null() {
                    return;
                }
                *notnull += 1;
                if let Ok(k) = encode_key(f) {
                    distinct.insert(k);
                }
                if let Some(x) = f.as_f64() {
                    *numeric = true;
                    *min = min.min(x);
                    *max = max.max(x);
                }
            }
            AttrAcc::Ref { links, referenced, chased, .. } => {
                let items: &[Value] = match f {
                    Value::Ref(_) => std::slice::from_ref(f),
                    Value::Set(items) | Value::List(items) => items,
                    _ => &[],
                };
                for oid in items.iter().filter_map(Value::as_oid) {
                    *links += 1;
                    chased.push(oid);
                    referenced.insert(oid);
                }
            }
            AttrAcc::None => {}
        }
    }

    /// Record the attribute's statistics for `class` of `cardinality`
    /// objects.
    fn finish(self, stats: &mut DatabaseStats, class: &str, attr: &str, cardinality: u64) {
        let per_object = |n: u64| match cardinality {
            0 => 0.0,
            c => n as f64 / c as f64,
        };
        match self {
            AttrAcc::Basic { distinct, notnull, min, max, numeric } => stats.set_attr(
                class,
                attr,
                AttrStats {
                    notnull: per_object(notnull),
                    dist: distinct.len() as u64,
                    max: numeric.then_some(max),
                    min: numeric.then_some(min),
                },
            ),
            AttrAcc::Ref { target, links, referenced, chased } => {
                // Clustering factor: `chased` is in extent order, so this
                // measures the locality an actual forward chase would see.
                if links > 1 {
                    stats.set_clustering(class, attr, chase_locality(chased.into_iter()));
                }
                let totref = referenced.len() as u64;
                stats.set_ref(class, attr, RefStats { target, fan: per_object(links), totref });
            }
            AttrAcc::None => {}
        }
    }
}

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
        let (mut got, mut reader) = (Vec::new(), cat.reader(&only_id));
        cat.fetch_records_with(&asked, &mut |oid, bytes| {
            got.push((oid, reader.decode(oid, bytes).unwrap().1));
            true
        })
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
        // Existing object reads the new attribute as Null: its record
        // predates the attribute.
        let (_, v) = cat.get_object(oid).unwrap();
        assert_eq!(v.field("color"), Some(&Value::Null));
        assert_eq!(cat.normalize("Vehicle", v.clone()).unwrap(), v);
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
