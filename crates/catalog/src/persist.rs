//! Catalog persistence — the Figure 2.2 layout.
//!
//! Three ESM files hold the catalog: one of `MoodsType` records (one per
//! class/type), one of `MoodsAttribute` records (one per attribute), one of
//! `MoodsFunction` records (one per method signature). Attribute and
//! function records carry their class's name, mirroring the OID cross-links
//! in the paper's figure. A `MoodsType` record ends with the indexes
//! declared on its class, each `(attribute, unique, file)`; a record
//! without them (written before indexes were persisted) has none.
//!
//! These pages are the only record of which file serves what: every DDL
//! rewrites its class's records inside its own transaction, and the catalog
//! is rebuilt by scanning the three files — on open, and after a DDL rolls
//! back ([`Catalog::reload_schema`](crate::Catalog::reload_schema)).

use std::collections::HashMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use mood_datamodel::{decode_type, encode_type, TypeDescriptor};
use mood_storage::{AccessHint, FileId, HeapFile, Oid, StorageManager};

use crate::error::{CatalogError, Result};
use crate::schema::{AttributeDef, ClassDef, ClassKind, MethodSig};
use crate::IndexInfo;

const NO_FILE: u32 = u32::MAX;

/// Stream a metadata heap record-by-record, stopping at (and surfacing)
/// the first decode error instead of materializing the whole file.
fn stream_heap(
    heap: &HeapFile,
    mut visit: impl FnMut(Oid, &[u8]) -> Result<()>,
) -> Result<()> {
    let mut first_err: Option<CatalogError> = None;
    heap.scan_hint_with(AccessHint::Random, |oid, bytes| match visit(oid, bytes) {
        Ok(()) => true,
        Err(e) => {
            first_err = Some(e);
            false
        }
    })
    .map_err(CatalogError::Storage)?;
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String> {
    if buf.remaining() < 4 {
        return Err(CatalogError::Corrupt("truncated string length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(CatalogError::Corrupt("truncated string body".into()));
    }
    String::from_utf8(buf.split_to(len).to_vec())
        .map_err(|_| CatalogError::Corrupt("non-UTF8 catalog string".into()))
}

fn put_type(buf: &mut BytesMut, t: &TypeDescriptor) {
    let enc = encode_type(t);
    buf.put_u32_le(enc.len() as u32);
    buf.put_slice(&enc);
}

fn get_type(buf: &mut Bytes) -> Result<TypeDescriptor> {
    if buf.remaining() < 4 {
        return Err(CatalogError::Corrupt("truncated type length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(CatalogError::Corrupt("truncated type body".into()));
    }
    Ok(decode_type(&buf.split_to(len))?)
}

/// Encode a `MoodsType` record: everything but attributes/methods, then
/// the class's indexes.
fn encode_moods_type(def: &ClassDef, indexes: &[&IndexInfo]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    put_str(&mut buf, &def.name);
    buf.put_u32_le(def.type_id);
    buf.put_u8(match def.kind {
        ClassKind::Class => 0,
        ClassKind::Type => 1,
    });
    buf.put_u32_le(def.superclasses.len() as u32);
    for s in &def.superclasses {
        put_str(&mut buf, s);
    }
    buf.put_u32_le(def.extent.map(|f| f.0).unwrap_or(NO_FILE));
    buf.put_u32_le(indexes.len() as u32);
    for index in indexes {
        put_str(&mut buf, &index.attribute);
        buf.put_u8(index.unique as u8);
        buf.put_u32_le(index.file.0);
    }
    buf.to_vec()
}

fn decode_moods_type(bytes: &[u8]) -> Result<(ClassDef, Vec<IndexInfo>)> {
    let mut buf = Bytes::copy_from_slice(bytes);
    let name = get_str(&mut buf)?;
    if buf.remaining() < 9 {
        return Err(CatalogError::Corrupt("truncated MoodsType".into()));
    }
    let type_id = buf.get_u32_le();
    let kind = match buf.get_u8() {
        0 => ClassKind::Class,
        1 => ClassKind::Type,
        k => return Err(CatalogError::Corrupt(format!("bad class kind {k}"))),
    };
    let nsup = buf.get_u32_le() as usize;
    let mut superclasses = Vec::with_capacity(nsup.min(64));
    for _ in 0..nsup {
        superclasses.push(get_str(&mut buf)?);
    }
    if buf.remaining() < 4 {
        return Err(CatalogError::Corrupt("truncated extent id".into()));
    }
    let raw = buf.get_u32_le();
    let extent = if raw == NO_FILE {
        None
    } else {
        Some(FileId(raw))
    };
    // A record written before indexes were persisted ends at the extent.
    let nindexes = match buf.remaining() {
        0 => 0,
        1..=3 => return Err(CatalogError::Corrupt("truncated index count".into())),
        _ => buf.get_u32_le() as usize,
    };
    let mut indexes = Vec::with_capacity(nindexes.min(64));
    for _ in 0..nindexes {
        let attribute = get_str(&mut buf)?;
        if buf.remaining() < 5 {
            return Err(CatalogError::Corrupt("truncated index entry".into()));
        }
        let unique = buf.get_u8() != 0;
        let file = FileId(buf.get_u32_le());
        indexes.push(IndexInfo { class: name.clone(), attribute, unique, file });
    }
    let def = ClassDef {
        name,
        type_id,
        kind,
        attributes: Vec::new(),
        superclasses,
        methods: Vec::new(),
        extent,
    };
    Ok((def, indexes))
}

/// Encode a `MoodsAttribute` record. `position` preserves declaration order.
fn encode_moods_attribute(class: &str, position: u32, attr: &AttributeDef) -> Vec<u8> {
    let mut buf = BytesMut::new();
    put_str(&mut buf, class);
    buf.put_u32_le(position);
    put_str(&mut buf, &attr.name);
    put_type(&mut buf, &attr.ty);
    buf.to_vec()
}

fn decode_moods_attribute(bytes: &[u8]) -> Result<(String, u32, AttributeDef)> {
    let mut buf = Bytes::copy_from_slice(bytes);
    let class = get_str(&mut buf)?;
    if buf.remaining() < 4 {
        return Err(CatalogError::Corrupt("truncated attribute position".into()));
    }
    let pos = buf.get_u32_le();
    let name = get_str(&mut buf)?;
    let ty = get_type(&mut buf)?;
    Ok((class, pos, AttributeDef { name, ty }))
}

/// Encode a `MoodsFunction` record.
fn encode_moods_function(class: &str, position: u32, sig: &MethodSig) -> Vec<u8> {
    let mut buf = BytesMut::new();
    put_str(&mut buf, class);
    buf.put_u32_le(position);
    put_str(&mut buf, &sig.name);
    put_type(&mut buf, &sig.return_type);
    buf.put_u32_le(sig.params.len() as u32);
    for (n, t) in &sig.params {
        put_str(&mut buf, n);
        put_type(&mut buf, t);
    }
    buf.to_vec()
}

fn decode_moods_function(bytes: &[u8]) -> Result<(String, u32, MethodSig)> {
    let mut buf = Bytes::copy_from_slice(bytes);
    let class = get_str(&mut buf)?;
    if buf.remaining() < 4 {
        return Err(CatalogError::Corrupt("truncated function position".into()));
    }
    let pos = buf.get_u32_le();
    let name = get_str(&mut buf)?;
    let return_type = get_type(&mut buf)?;
    if buf.remaining() < 4 {
        return Err(CatalogError::Corrupt("truncated parameter count".into()));
    }
    let nparams = buf.get_u32_le() as usize;
    let mut params = Vec::with_capacity(nparams.min(64));
    for _ in 0..nparams {
        let pname = get_str(&mut buf)?;
        let pty = get_type(&mut buf)?;
        params.push((pname, pty));
    }
    Ok((
        class,
        pos,
        MethodSig {
            name,
            return_type,
            params,
        },
    ))
}

/// OIDs of a class's persisted records, kept so updates can delete them.
#[derive(Debug, Default, Clone)]
struct SavedClass {
    type_rec: Option<Oid>,
    attr_recs: Vec<Oid>,
    func_recs: Vec<Oid>,
}

/// The three catalog files plus bookkeeping.
pub struct CatalogStore {
    types: HeapFile,
    attrs: HeapFile,
    funcs: HeapFile,
    saved: HashMap<String, SavedClass>,
}

/// File ids of the catalog files — the kernel's bootstrap root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogRoot {
    pub types: FileId,
    pub attrs: FileId,
    pub funcs: FileId,
}

impl CatalogRoot {
    /// The root as stored: the three file ids, little-endian.
    pub fn to_bytes(&self) -> [u8; 12] {
        let mut out = [0; 12];
        for (i, f) in [self.types, self.attrs, self.funcs].iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&f.0.to_le_bytes());
        }
        out
    }

    /// The root [`to_bytes`](Self::to_bytes) wrote, or `None` when `bytes`
    /// are not 12 long.
    pub fn from_bytes(bytes: &[u8]) -> Option<CatalogRoot> {
        let b: &[u8; 12] = bytes.try_into().ok()?;
        let file = |i: usize| FileId(u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]));
        Some(CatalogRoot { types: file(0), attrs: file(4), funcs: file(8) })
    }
}

impl CatalogStore {
    /// Create the three catalog files.
    pub fn create(sm: &StorageManager) -> Result<CatalogStore> {
        Ok(CatalogStore {
            types: sm.create_heap()?,
            attrs: sm.create_heap()?,
            funcs: sm.create_heap()?,
            saved: HashMap::new(),
        })
    }

    /// Reopen existing catalog files.
    pub fn open(sm: &StorageManager, root: CatalogRoot) -> CatalogStore {
        CatalogStore {
            types: sm.open_heap(root.types),
            attrs: sm.open_heap(root.attrs),
            funcs: sm.open_heap(root.funcs),
            saved: HashMap::new(),
        }
    }

    pub fn root(&self) -> CatalogRoot {
        CatalogRoot {
            types: self.types.file_id(),
            attrs: self.attrs.file_id(),
            funcs: self.funcs.file_id(),
        }
    }

    /// Persist (or re-persist) one class definition and the indexes
    /// declared on it.
    pub fn save_class(&mut self, def: &ClassDef, indexes: &[&IndexInfo]) -> Result<()> {
        self.delete_class(&def.name)?;
        let mut saved = SavedClass {
            type_rec: Some(self.types.insert(&encode_moods_type(def, indexes))?),
            ..SavedClass::default()
        };
        for (i, attr) in def.attributes.iter().enumerate() {
            saved.attr_recs.push(
                self.attrs
                    .insert(&encode_moods_attribute(&def.name, i as u32, attr))?,
            );
        }
        for (i, sig) in def.methods.iter().enumerate() {
            saved.func_recs.push(
                self.funcs
                    .insert(&encode_moods_function(&def.name, i as u32, sig))?,
            );
        }
        self.saved.insert(def.name.clone(), saved);
        Ok(())
    }

    /// Remove a class's persisted records (no-op if absent).
    pub fn delete_class(&mut self, name: &str) -> Result<()> {
        if let Some(saved) = self.saved.remove(name) {
            if let Some(oid) = saved.type_rec {
                self.types.delete(oid)?;
            }
            for oid in saved.attr_recs {
                self.attrs.delete(oid)?;
            }
            for oid in saved.func_recs {
                self.funcs.delete(oid)?;
            }
        }
        Ok(())
    }

    /// Scan the catalog files and rebuild all class definitions and the
    /// index registrations.
    ///
    /// The scans stream (no intermediate record vectors) with a `Random`
    /// hint: catalog pages load into the buffer pool's hot set, since the
    /// symbol table keeps consulting them point-wise after bootstrap.
    pub fn load_all(&mut self) -> Result<(Vec<ClassDef>, Vec<IndexInfo>)> {
        self.saved.clear();
        let mut defs: HashMap<String, ClassDef> = HashMap::new();
        let mut indexes = Vec::new();
        let saved = &mut self.saved;
        stream_heap(&self.types, |oid, bytes| {
            let (def, declared) = decode_moods_type(bytes)?;
            saved.entry(def.name.clone()).or_default().type_rec = Some(oid);
            defs.insert(def.name.clone(), def);
            indexes.extend(declared);
            Ok(())
        })?;
        let mut attrs: HashMap<String, Vec<(u32, AttributeDef, Oid)>> = HashMap::new();
        stream_heap(&self.attrs, |oid, bytes| {
            let (class, pos, attr) = decode_moods_attribute(bytes)?;
            attrs.entry(class).or_default().push((pos, attr, oid));
            Ok(())
        })?;
        let mut funcs: HashMap<String, Vec<(u32, MethodSig, Oid)>> = HashMap::new();
        stream_heap(&self.funcs, |oid, bytes| {
            let (class, pos, sig) = decode_moods_function(bytes)?;
            funcs.entry(class).or_default().push((pos, sig, oid));
            Ok(())
        })?;
        for (class, mut list) in attrs {
            list.sort_by_key(|(pos, _, _)| *pos);
            if let Some(def) = defs.get_mut(&class) {
                for (_, attr, oid) in list {
                    def.attributes.push(attr);
                    self.saved
                        .entry(class.clone())
                        .or_default()
                        .attr_recs
                        .push(oid);
                }
            }
        }
        for (class, mut list) in funcs {
            list.sort_by_key(|(pos, _, _)| *pos);
            if let Some(def) = defs.get_mut(&class) {
                for (_, sig, oid) in list {
                    def.methods.push(sig);
                    self.saved
                        .entry(class.clone())
                        .or_default()
                        .func_recs
                        .push(oid);
                }
            }
        }
        Ok((defs.into_values().collect(), indexes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ClassBuilder;

    fn vehicle_def() -> ClassDef {
        ClassBuilder::class("Vehicle")
            .attribute("id", TypeDescriptor::integer())
            .attribute("drivetrain", TypeDescriptor::reference("VehicleDriveTrain"))
            .inherits("Thing")
            .method(MethodSig::new(
                "lbweight",
                TypeDescriptor::integer(),
                vec![],
            ))
            .method(MethodSig::new(
                "repaint",
                TypeDescriptor::boolean(),
                vec![("color", TypeDescriptor::string())],
            ))
            .build(7, Some(FileId(42)))
    }

    fn id_index() -> IndexInfo {
        IndexInfo { class: "Vehicle".into(), attribute: "id".into(), unique: true, file: FileId(43) }
    }

    #[test]
    fn record_codecs_roundtrip() {
        let def = vehicle_def();
        let index = id_index();
        let encoded = encode_moods_type(&def, &[&index]);
        let (t, indexes) = decode_moods_type(&encoded).unwrap();
        assert_eq!(t.name, "Vehicle");
        assert_eq!(t.type_id, 7);
        assert_eq!(t.superclasses, vec!["Thing"]);
        assert_eq!(t.extent, Some(FileId(42)));
        assert_eq!(indexes, vec![index]);
        // A record that ends at the extent (no index fields) has no
        // indexes; one cut inside them is corrupt.
        let bare = encode_moods_type(&def, &[]);
        let (old, none) = decode_moods_type(&bare[..bare.len() - 4]).unwrap();
        assert_eq!((old.name.as_str(), none.len()), ("Vehicle", 0));
        assert!(decode_moods_type(&encoded[..encoded.len() - 2]).is_err());

        let (class, pos, attr) =
            decode_moods_attribute(&encode_moods_attribute("Vehicle", 1, &def.attributes[1]))
                .unwrap();
        assert_eq!((class.as_str(), pos), ("Vehicle", 1));
        assert_eq!(attr, def.attributes[1]);

        let (class, pos, sig) =
            decode_moods_function(&encode_moods_function("Vehicle", 0, &def.methods[1])).unwrap();
        assert_eq!((class.as_str(), pos), ("Vehicle", 0));
        assert_eq!(sig, def.methods[1]);
    }

    #[test]
    fn save_load_roundtrip() {
        let sm = StorageManager::in_memory();
        let mut store = CatalogStore::create(&sm).unwrap();
        let def = vehicle_def();
        store.save_class(&def, &[&id_index()]).unwrap();
        let (loaded, indexes) = store.load_all().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0], def);
        assert_eq!(indexes, vec![id_index()]);
    }

    #[test]
    fn resave_replaces_records() {
        let sm = StorageManager::in_memory();
        let mut store = CatalogStore::create(&sm).unwrap();
        let mut def = vehicle_def();
        store.save_class(&def, &[&id_index()]).unwrap();
        def.attributes
            .push(AttributeDef::new("color", TypeDescriptor::string()));
        store.save_class(&def, &[]).unwrap();
        let (loaded, indexes) = store.load_all().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].attributes.len(), 3);
        assert!(indexes.is_empty());
    }

    #[test]
    fn reopen_from_root_rebuilds() {
        let sm = StorageManager::in_memory();
        let root;
        {
            let mut store = CatalogStore::create(&sm).unwrap();
            store.save_class(&vehicle_def(), &[]).unwrap();
            root = store.root();
        }
        let mut again = CatalogStore::open(&sm, root);
        let (loaded, _) = again.load_all().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].name, "Vehicle");
        assert_eq!(loaded[0].methods.len(), 2);
        // Loaded bookkeeping supports deletion.
        again.delete_class("Vehicle").unwrap();
        assert!(again.load_all().unwrap().0.is_empty());
    }

    #[test]
    fn declaration_order_survives_persistence() {
        let sm = StorageManager::in_memory();
        let mut store = CatalogStore::create(&sm).unwrap();
        let mut builder = ClassBuilder::class("Wide");
        for i in 0..40 {
            builder = builder.attribute(format!("a{i:02}"), TypeDescriptor::integer());
        }
        store.save_class(&builder.build(1, None), &[]).unwrap();
        let (loaded, _) = store.load_all().unwrap();
        let names: Vec<_> = loaded[0]
            .attributes
            .iter()
            .map(|a| a.name.clone())
            .collect();
        let expect: Vec<_> = (0..40).map(|i| format!("a{i:02}")).collect();
        assert_eq!(names, expect);
    }
}
