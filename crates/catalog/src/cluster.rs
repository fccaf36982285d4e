//! Adaptive clustering (Darmont-style heap reorganization): `CLUSTER`
//! rewrites a class's extent in the order a forward chase over one of its
//! reference attributes visits the targets, remaps every reference and
//! index onto the moved OIDs, and defers dropping the replaced files to
//! after commit.

use std::collections::HashMap;

use mood_datamodel::{encode_key, FieldSet, Value};
use mood_storage::{AccessHint, FileId, Metric, Oid};

use crate::{Catalog, CatalogError, IndexInfo, Result, TypeId};

impl Catalog {
    /// Rewrite `class`'s own extent in referencing-traversal order: objects
    /// are sorted by the target OID of the reference attribute `by`, so a
    /// forward join that chases that reference visits the target extent in
    /// page order — sequential reads instead of random chases. Without
    /// `by`, the edge is the class's reference attribute with the lowest
    /// clustering factor `cf` in the statistics (`collect_stats` measures
    /// every edge, each pass refreshes its own; ties go to declaration
    /// order), or the first reference attribute when none was measured.
    ///
    /// The reorganization allocates a fresh heap file, copies every object
    /// in clustered order, rewrites all references to the moved objects
    /// (every extent, including self-references), rebuilds every index
    /// whose keys or payloads name the moved OIDs (attribute indexes on
    /// the class, reference-keyed BJIs, path indexes), renames named
    /// objects, and swaps the class's extent pointer — all through the
    /// buffer pool, so the surrounding transaction's WAL protocol makes
    /// the whole pass atomic. Replaced files are queued on the pending-
    /// drop list and only physically dropped by
    /// [`Catalog::reap_pending_drops`] after commit; a crash or rollback
    /// before then leaves the old layout fully intact.
    pub fn cluster_class(&self, class: &str, by: Option<&str>) -> Result<ClusterReport> {
        let old_file = self.extent_file(class)?;
        let attrs = self.effective_attributes(class)?;
        let attr = match by {
            Some(a) => {
                let def = attrs.iter().find(|x| x.name == a).ok_or_else(|| {
                    CatalogError::UnknownAttribute {
                        class: class.to_string(),
                        attribute: a.to_string(),
                    }
                })?;
                if def.ty.referenced_class().is_none() {
                    return Err(CatalogError::TypeMismatch {
                        class: class.to_string(),
                        detail: format!("CLUSTER BY {a}: not a reference attribute"),
                    });
                }
                a.to_string()
            }
            None => {
                let inner = self.inner.read();
                let refs = attrs.iter().filter(|x| x.ty.referenced_class().is_some());
                let most_disordered = refs
                    .clone()
                    .filter_map(|x| Some((inner.stats.measured_clustering(class, &x.name)?, x)))
                    .min_by(|a, b| a.0.total_cmp(&b.0))
                    .map(|(_, x)| x);
                most_disordered
                    .or_else(|| refs.clone().next())
                    .map(|x| x.name.clone())
                    .ok_or_else(|| CatalogError::TypeMismatch {
                        class: class.to_string(),
                        detail: "CLUSTER: class has no reference attribute".into(),
                    })?
            }
        };

        // 1. Snapshot the extent in storage order, decoded: a record that
        // does not decode fails the pass here, like any other scan, before
        // anything is written.
        let heap = self.sm.open_heap(old_file);
        let mut records: Vec<(Oid, Vec<u8>)> = Vec::new();
        heap.scan_hint_with(AccessHint::Sequential, |oid, bytes| {
            records.push((oid, bytes.to_vec()));
            true
        })?;
        let decoded: Vec<(TypeId, Value)> = records
            .iter()
            .map(|(oid, bytes)| Self::decode_object(*oid, bytes, &FieldSet::All))
            .collect::<Result<_>>()?;

        // 2. Order by chased target OID — physical OIDs order by
        // (file, page, slot), so ascending targets are ascending target
        // pages. Nulls go last; ties keep the old storage order.
        let chase_target = |v: &Value| -> Option<Oid> {
            match v.field(&attr)? {
                Value::Ref(o) if !o.is_null() => Some(*o),
                Value::Set(items) | Value::List(items) => {
                    items.iter().filter_map(|i| i.as_oid()).min()
                }
                _ => None,
            }
        };
        let targets: Vec<Option<Oid>> = decoded.iter().map(|(_, v)| chase_target(v)).collect();
        let mut order: Vec<usize> = (0..records.len()).collect();
        order.sort_by_key(|&i| (targets[i].is_none(), targets[i], records[i].0));

        // 3. Find every stored reference to an object about to move, in
        // every other extent — again failing on a record that does not
        // decode, not leaving its references pointing at the old file.
        let mut referrers: Vec<(FileId, Oid, TypeId, Value)> = Vec::new();
        for cname in self.class_names() {
            let Ok(file) = self.extent_file(&cname) else {
                continue;
            };
            if file == old_file {
                continue;
            }
            let mut unreadable = None;
            let h = self.sm.open_heap(file);
            h.scan_hint_with(AccessHint::Sequential, |oid, bytes| {
                match Self::decode_object(oid, bytes, &FieldSet::All) {
                    Ok((tid, v)) if refers_into(&v, old_file) => {
                        referrers.push((file, oid, tid, v))
                    }
                    Ok(_) => {}
                    Err(e) => unreadable = Some(e),
                }
                unreadable.is_none()
            })?;
            unreadable.map_or(Ok(()), Err)?;
        }

        // 4. Copy into a fresh heap in clustered order, building the
        // old-OID → new-OID map.
        let new_heap = self.sm.create_heap()?;
        let new_file = new_heap.file_id();
        let mut map: HashMap<Oid, Oid> = HashMap::with_capacity(records.len());
        for &i in &order {
            let (old_oid, bytes) = &records[i];
            map.insert(*old_oid, new_heap.insert(bytes)?);
        }
        let moved = map.len() as u64;

        // Rewrite the references: the copies' own (self-references still
        // name old OIDs), then the other extents'. Oid encoding is
        // fixed-size, so every rewrite is an in-place update and no OID
        // shifts under us mid-pass.
        let own = records.iter().zip(decoded);
        let own = own.map(|((old_oid, _), (tid, v))| (new_file, map[old_oid], tid, v));
        for (file, oid, tid, v) in own.chain(referrers) {
            if let Some(nv) = remap_refs(&v, old_file, &map) {
                let bytes = Self::encode_object(tid, &nv);
                self.sm.open_heap(file).update(oid, &bytes)?;
            }
        }

        // 5. Swap the extent pointer (persisted), fix the reverse map and
        // named objects, queue the old file for post-commit dropping.
        {
            let mut inner = self.inner.write();
            let mut def = inner
                .classes
                .get(class)
                .cloned()
                .ok_or_else(|| CatalogError::UnknownClass(class.to_string()))?;
            def.extent = Some(new_file);
            inner.classes.insert(class.to_string(), def.clone());
            inner.extent_class.remove(&old_file);
            inner.extent_class.insert(new_file, class.to_string());
            inner.store.save_class(&def)?;
            for oid in inner.named.values_mut() {
                if let Some(n) = map.get(oid) {
                    *oid = *n;
                }
            }
            inner.pending_drops.push(old_file);
        }

        // 6. Rebuild every index whose keys or payloads name moved OIDs:
        // all indexes on the class itself (payloads), reference-keyed
        // indexes (BJIs — their keys encode OIDs of any class), and path
        // indexes (payloads are root OIDs, keys traverse references).
        for info in self.indexes() {
            let is_path = info.attribute.contains('.');
            let ref_keyed = !is_path
                && self
                    .effective_attributes(&info.class)
                    .ok()
                    .and_then(|a| {
                        a.iter()
                            .find(|x| x.name == info.attribute)
                            .map(|x| !x.ty.is_atomic())
                    })
                    .unwrap_or(false);
            if info.class != class && !is_path && !ref_keyed {
                continue;
            }
            if is_path {
                let segs: Vec<String> =
                    info.attribute.split('.').map(String::from).collect();
                self.rebuild_path_index_deferred(&info.class, &segs)?;
            } else {
                self.rebuild_attr_index(&info)?;
            }
        }

        // 7. Refresh the edge's clustering factor from the new layout and
        // publish it (catalog stats + metrics gauge).
        let factor = chase_locality(order.iter().filter_map(|&i| targets[i]));
        {
            let mut inner = self.inner.write();
            inner.stats.set_clustering(class, &attr, factor);
        }
        let registry = self.sm.registry();
        registry.set_cluster_factor(&format!("{class}.{attr}"), factor);
        registry.add(Metric::ClusterPasses, 1);
        registry.add(Metric::ClusterMovedObjects, moved);
        self.bump_epoch();
        Ok(ClusterReport {
            attr,
            moved,
            factor,
        })
    }

    /// Rebuild an attribute index into a fresh file, deferring the old
    /// file's physical drop to [`Catalog::reap_pending_drops`].
    fn rebuild_attr_index(&self, info: &IndexInfo) -> Result<()> {
        let new_file = self.sm.create_btree(info.unique)?.file_id();
        {
            let mut inner = self.inner.write();
            let old = inner
                .indexes
                .get_mut(&(info.class.clone(), info.attribute.clone()))
                .map(|i| std::mem::replace(&mut i.file, new_file));
            if let Some(old) = old {
                inner.pending_drops.push(old);
            }
        }
        let mut rebuilt = info.clone();
        rebuilt.file = new_file;
        let mut first_err: Option<CatalogError> = None;
        self.extent_with(&info.class, AccessHint::Sequential, &mut |oid, value| {
            match self.index_insert_one(&rebuilt, &value, oid) {
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
        Ok(())
    }

    /// [`Catalog::rebuild_path_index`] variant that defers the old file's
    /// drop (used inside the clustering transaction, where an eager drop
    /// would not survive a rollback).
    fn rebuild_path_index_deferred(&self, class: &str, path: &[String]) -> Result<()> {
        let dotted = path.join(".");
        let info = self
            .index(class, &dotted)
            .ok_or_else(|| CatalogError::UnknownIndex {
                class: class.to_string(),
                attribute: dotted.clone(),
            })?;
        self.rebuild_attr_index(&IndexInfo {
            attribute: dotted.clone(),
            ..info
        })
        .and_then(|()| {
            // rebuild_attr_index indexed nothing (a dotted attribute never
            // matches a tuple field); traverse the path into the new file.
            let fresh = self
                .index(class, &dotted)
                .ok_or_else(|| CatalogError::UnknownIndex {
                    class: class.to_string(),
                    attribute: dotted.clone(),
                })?;
            let tree = self.sm.open_btree(fresh.file);
            let mut first_err: Option<CatalogError> = None;
            self.extent_every_with(class, &[], AccessHint::Sequential, &mut |root, value| {
                let res = (|| -> Result<()> {
                    for terminal in self.traverse_path(&value, path)? {
                        if terminal.is_null() {
                            continue;
                        }
                        let key =
                            encode_key(&terminal).map_err(|_| CatalogError::NotAtomic {
                                class: class.to_string(),
                                attribute: dotted.clone(),
                            })?;
                        tree.insert(&key, root)?;
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
            match first_err {
                Some(e) => Err(e),
                None => Ok(()),
            }
        })
    }

    /// Physically drop the files replaced by a committed reorganization.
    /// Call after the surrounding transaction commits; a no-op otherwise.
    ///
    /// The WAL may still carry committed page images for the files about
    /// to disappear, and recovery cannot replay onto a dropped file id —
    /// so the log is checkpointed (flushed and truncated) first. If the
    /// checkpoint fails the files stay queued for a later reap: an
    /// unreclaimed extent is a leak, an unrecoverable log is corruption.
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
}

/// Report of one [`Catalog::cluster_class`] pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// The reference attribute the extent was ordered by.
    pub attr: String,
    /// Objects rewritten into the new extent.
    pub moved: u64,
    /// Clustering factor of the reorganized edge, measured on the new
    /// layout: the fraction of consecutive chases landing on the same or
    /// the next target page.
    pub factor: f64,
}

/// Fraction of consecutive chase targets on the same or the next page —
/// the clustering factor `cf` the cost model discounts chase terms by.
pub(crate) fn chase_locality(targets: impl Iterator<Item = Oid>) -> f64 {
    let mut prev: Option<(u32, u32)> = None;
    let mut chases = 0u64;
    let mut local = 0u64;
    for t in targets {
        let page = (t.file.0, t.page.0);
        if let Some((pf, pp)) = prev {
            chases += 1;
            if pf == page.0 && (page.1 == pp || page.1 == pp + 1) {
                local += 1;
            }
        }
        prev = Some(page);
    }
    if chases == 0 {
        0.0
    } else {
        local as f64 / chases as f64
    }
}

/// Does `value` hold a `Ref` into `file`?
fn refers_into(value: &Value, file: FileId) -> bool {
    match value {
        Value::Ref(o) => o.file == file,
        Value::Tuple(fields) => fields.iter().any(|(_, v)| refers_into(v, file)),
        Value::Set(items) | Value::List(items) => items.iter().any(|v| refers_into(v, file)),
        _ => false,
    }
}

/// Rewrite every `Ref` into `old_file` through `map`; `None` when the
/// value holds no moved reference (so callers skip the heap update).
fn remap_refs(value: &Value, old_file: FileId, map: &HashMap<Oid, Oid>) -> Option<Value> {
    match value {
        Value::Ref(o) if o.file == old_file => map.get(o).map(|n| Value::Ref(*n)),
        Value::Tuple(fields) => {
            let mut changed = false;
            let out: Vec<(String, Value)> = fields
                .iter()
                .map(|(n, v)| match remap_refs(v, old_file, map) {
                    Some(nv) => {
                        changed = true;
                        (n.clone(), nv)
                    }
                    None => (n.clone(), v.clone()),
                })
                .collect();
            changed.then_some(Value::Tuple(out))
        }
        Value::Set(items) | Value::List(items) => {
            let mut changed = false;
            let out: Vec<Value> = items
                .iter()
                .map(|v| match remap_refs(v, old_file, map) {
                    Some(nv) => {
                        changed = true;
                        nv
                    }
                    None => v.clone(),
                })
                .collect();
            if !changed {
                return None;
            }
            Some(match value {
                Value::Set(_) => Value::Set(out),
                _ => Value::List(out),
            })
        }
        _ => None,
    }
}
