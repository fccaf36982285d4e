//! Catalog persistence — the Figure 2.2 layout.
//!
//! Three ESM files hold the catalog: one of `MoodsType` records (one per
//! class/type), one of `MoodsAttribute` records (one per attribute), one of
//! `MoodsFunction` records (one per method signature). Attribute and
//! function records carry their class's name, mirroring the OID cross-links
//! in the paper's figure. A `MoodsAttribute` record carries the
//! attribute's id, the identity stored objects know it by; the same file
//! holds one row per schema version of each class, its slot list
//! (attribute ids) — what an object stored under that version is read by
//! ([`mood_datamodel::record`]). A `MoodsType` record carries the indexes
//! declared on its class, each `(attribute, unique, file)`.
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
use crate::schema::{AttrId, AttributeDef, ClassDef, ClassKind, MethodSig};
use crate::IndexInfo;

const NO_FILE: u32 = u32::MAX;

/// The on-disk format [`CatalogRoot`] records: 2 stores objects as
/// positional records of a schema version. Format 1 (a 12-byte root, no
/// version) stored each attribute's name in every object and is refused.
pub const FORMAT_VERSION: u32 = 2;

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

/// A `u32` the record must still hold.
fn get_u32(buf: &mut Bytes, what: &str) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(CatalogError::Corrupt(format!("truncated {what}")));
    }
    Ok(buf.get_u32_le())
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
    let nindexes = get_u32(&mut buf, "index count")? as usize;
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
        versions: Vec::new(),
    };
    Ok((def, indexes))
}

/// A row of the `MoodsAttribute` file: one of a class's attributes at its
/// declaration position, or the slot list of one of its schema versions.
/// A row each, so a class's versions are not bounded by what one record
/// holds.
#[derive(Debug, PartialEq)]
enum AttributeRow {
    Attribute(u32, AttributeDef),
    Version(u32, Vec<AttrId>),
}

const ROW_ATTRIBUTE: u8 = 0;
const ROW_VERSION: u8 = 1;

/// Encode a `MoodsAttribute` record. `position` preserves declaration order.
fn encode_moods_attribute(class: &str, position: u32, attr: &AttributeDef) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u8(ROW_ATTRIBUTE);
    put_str(&mut buf, class);
    buf.put_u32_le(position);
    buf.put_u32_le(attr.id);
    put_str(&mut buf, &attr.name);
    put_type(&mut buf, &attr.ty);
    buf.to_vec()
}

/// Encode the slot list of `class`'s schema `version`.
fn encode_moods_version(class: &str, version: u32, slots: &[AttrId]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u8(ROW_VERSION);
    put_str(&mut buf, class);
    buf.put_u32_le(version);
    buf.put_u32_le(slots.len() as u32);
    for id in slots {
        buf.put_u32_le(*id);
    }
    buf.to_vec()
}

fn decode_moods_attribute(bytes: &[u8]) -> Result<(String, AttributeRow)> {
    let mut buf = Bytes::copy_from_slice(bytes);
    if buf.remaining() == 0 {
        return Err(CatalogError::Corrupt("empty MoodsAttribute row".into()));
    }
    let kind = buf.get_u8();
    let class = get_str(&mut buf)?;
    let row = match kind {
        ROW_ATTRIBUTE => {
            let pos = get_u32(&mut buf, "attribute position")?;
            let id = get_u32(&mut buf, "attribute id")?;
            let name = get_str(&mut buf)?;
            let ty = get_type(&mut buf)?;
            AttributeRow::Attribute(pos, AttributeDef { name, ty, id })
        }
        ROW_VERSION => {
            let version = get_u32(&mut buf, "schema version")?;
            let nslots = get_u32(&mut buf, "slot count")? as usize;
            let mut slots = Vec::with_capacity(nslots.min(buf.remaining() / 4));
            for _ in 0..nslots {
                slots.push(get_u32(&mut buf, "slot list")?);
            }
            AttributeRow::Version(version, slots)
        }
        k => return Err(CatalogError::Corrupt(format!("bad MoodsAttribute row kind {k}"))),
    };
    Ok((class, row))
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
    /// The stored root's length: the format version, then the three file
    /// ids, little-endian.
    pub const LEN: usize = 16;

    /// The root as stored, under [`FORMAT_VERSION`].
    pub fn to_bytes(&self) -> [u8; Self::LEN] {
        let mut out = [0; Self::LEN];
        out[..4].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        for (i, f) in [self.types, self.attrs, self.funcs].iter().enumerate() {
            out[4 * i + 4..4 * i + 8].copy_from_slice(&f.0.to_le_bytes());
        }
        out
    }

    /// The root [`to_bytes`](Self::to_bytes) wrote. A root of another
    /// format — a 12-byte one is format 1 — is
    /// [`CatalogError::UnsupportedFormat`]; bytes of any other length are
    /// [`CatalogError::Corrupt`].
    pub fn from_bytes(bytes: &[u8]) -> Result<CatalogRoot> {
        let unsupported =
            |found| CatalogError::UnsupportedFormat { found, supported: FORMAT_VERSION };
        let word = |i: usize| {
            u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]])
        };
        match bytes.len() {
            12 => Err(unsupported(1)),
            Self::LEN if word(0) != FORMAT_VERSION => Err(unsupported(word(0))),
            Self::LEN => Ok(CatalogRoot {
                types: FileId(word(4)),
                attrs: FileId(word(8)),
                funcs: FileId(word(12)),
            }),
            len => Err(CatalogError::Corrupt(format!("a catalog root of {len} bytes"))),
        }
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
        for (v, slots) in def.versions.iter().enumerate() {
            let row = encode_moods_version(&def.name, v as u32, slots);
            saved.attr_recs.push(self.attrs.insert(&row)?);
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
        let mut versions: HashMap<String, Vec<(u32, Vec<AttrId>, Oid)>> = HashMap::new();
        stream_heap(&self.attrs, |oid, bytes| {
            match decode_moods_attribute(bytes)? {
                (class, AttributeRow::Attribute(pos, attr)) => {
                    attrs.entry(class).or_default().push((pos, attr, oid))
                }
                (class, AttributeRow::Version(v, slots)) => {
                    versions.entry(class).or_default().push((v, slots, oid))
                }
            }
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
        for (class, mut list) in versions {
            list.sort_by_key(|(v, _, _)| *v);
            if let Some(def) = defs.get_mut(&class) {
                for (_, slots, oid) in list {
                    def.versions.push(slots);
                    self.saved.entry(class.clone()).or_default().attr_recs.push(oid);
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
        let mut def = ClassBuilder::class("Vehicle")
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
            .build(7, Some(FileId(42)));
        def.attributes[0].id = 4;
        def.attributes[1].id = 9;
        def.versions = vec![vec![4], vec![4, 5], vec![4, 9]];
        def
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
        // A record cut anywhere is corrupt, not shorter.
        for cut in 0..encoded.len() {
            assert!(decode_moods_type(&encoded[..cut]).is_err(), "cut at {cut}");
        }

        let (class, row) =
            decode_moods_attribute(&encode_moods_attribute("Vehicle", 1, &def.attributes[1]))
                .unwrap();
        assert_eq!(class, "Vehicle");
        assert_eq!(row, AttributeRow::Attribute(1, def.attributes[1].clone()));
        // A version's slot list — the retired id 5 included — is a row of
        // its own.
        let (class, row) =
            decode_moods_attribute(&encode_moods_version("Vehicle", 1, &def.versions[1])).unwrap();
        assert_eq!((class.as_str(), row), ("Vehicle", AttributeRow::Version(1, vec![4, 5])));

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
