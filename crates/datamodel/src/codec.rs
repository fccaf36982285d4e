//! Binary (de)serialization of values and type descriptors.
//!
//! A value is stored self-describing: a tag per node, a tuple's field
//! names beside its values. That is the form of a stored object's
//! attribute values (nested tuples included), of sort and aggregation
//! spill records and of catalog type descriptors. A stored object itself
//! is not: its top level is a positional record ([`crate::record`]) that
//! names no attribute, and the catalog supplies the names from the
//! record's schema version. So MoodView's Section 9.4 cursor reconstructs
//! name/type/value triplets through the catalog, not from the bytes alone.

use bytes::{BufMut, BytesMut};
use mood_storage::Oid;

use crate::types::{BasicType, TypeDescriptor};
use crate::value::Value;

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes mid-value.
    Truncated,
    /// Unknown tag byte.
    BadTag(u8),
    /// Invalid UTF-8 in a string.
    BadUtf8,
    /// A char payload that is not a Unicode scalar value.
    BadChar(u32),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "value bytes truncated"),
            CodecError::BadTag(t) => write!(f, "unknown value tag {t}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in stored string"),
            CodecError::BadChar(c) => write!(f, "invalid char scalar {c}"),
        }
    }
}

impl std::error::Error for CodecError {}

const T_INTEGER: u8 = 1;
const T_FLOAT: u8 = 2;
const T_LONG: u8 = 3;
const T_STRING: u8 = 4;
const T_CHAR: u8 = 5;
const T_BOOL: u8 = 6;
const T_TUPLE: u8 = 7;
const T_SET: u8 = 8;
const T_LIST: u8 = 9;
const T_REF: u8 = 10;
const T_NULL: u8 = 11;

const D_BASIC: u8 = 20;
const D_TUPLE: u8 = 21;
const D_SET: u8 = 22;
const D_LIST: u8 = 23;
const D_REFERENCE: u8 = 24;

/// Which attributes of a stored object a reader materializes. A statement
/// that reads `v.id` and `v.weight` decodes those two and steps over the
/// rest of the record by their encoded length; the catalog resolves the
/// set to slot positions once per schema version
/// ([`crate::record::SlotMap`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum FieldSet {
    /// Every field: the whole object.
    #[default]
    All,
    /// The named fields only, kept sorted (the rendering is deterministic).
    Only(Vec<String>),
}

impl FieldSet {
    /// No field at all: the reader still walks (and so validates) the
    /// record but materializes an empty tuple.
    pub const NONE: FieldSet = FieldSet::Only(Vec::new());

    /// Add one field; `All` already holds it.
    pub fn insert(&mut self, name: &str) {
        if let FieldSet::Only(names) = self {
            if let Err(at) = names.binary_search_by(|n| n.as_str().cmp(name)) {
                names.insert(at, name.to_string());
            }
        }
    }

    /// Whether the set holds `name`.
    pub fn contains(&self, name: &str) -> bool {
        match self {
            FieldSet::All => true,
            FieldSet::Only(names) => names.iter().any(|n| n == name),
        }
    }
}

impl std::fmt::Display for FieldSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldSet::All => write!(f, "*"),
            FieldSet::Only(names) => write!(f, "{{{}}}", names.join(", ")),
        }
    }
}

/// Serialize a value to bytes.
pub fn encode_value(v: &Value) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_value_into(&mut buf, v);
    buf
}

/// Append a value's encoding to `buf` — the form for callers that build a
/// larger record or key out of several values.
pub fn encode_value_into(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Integer(i) => {
            buf.put_u8(T_INTEGER);
            buf.put_i32_le(*i);
        }
        Value::Float(x) => {
            buf.put_u8(T_FLOAT);
            buf.put_f64_le(*x);
        }
        Value::LongInteger(i) => {
            buf.put_u8(T_LONG);
            buf.put_i64_le(*i);
        }
        Value::String(s) => {
            buf.put_u8(T_STRING);
            write_str(buf, s);
        }
        Value::Char(c) => {
            buf.put_u8(T_CHAR);
            buf.put_u32_le(*c as u32);
        }
        Value::Boolean(b) => {
            buf.put_u8(T_BOOL);
            buf.put_u8(*b as u8);
        }
        Value::Tuple(fields) => {
            buf.put_u8(T_TUPLE);
            buf.put_u32_le(fields.len() as u32);
            for (n, fv) in fields {
                write_str(buf, n);
                encode_value_into(buf, fv);
            }
        }
        Value::Set(items) => {
            buf.put_u8(T_SET);
            buf.put_u32_le(items.len() as u32);
            for it in items {
                encode_value_into(buf, it);
            }
        }
        Value::List(items) => {
            buf.put_u8(T_LIST);
            buf.put_u32_le(items.len() as u32);
            for it in items {
                encode_value_into(buf, it);
            }
        }
        Value::Ref(oid) => {
            buf.put_u8(T_REF);
            buf.put_slice(&oid.to_bytes());
        }
        Value::Null => buf.put_u8(T_NULL),
    }
}

fn write_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Deserialize a value from bytes (must consume them exactly to round-trip;
/// trailing bytes are tolerated for embedded use).
pub fn decode_value(bytes: &[u8]) -> Result<Value, CodecError> {
    let mut value = Value::Null;
    read_value(&mut Reader { rest: bytes }, &mut value)?;
    Ok(value)
}

/// A read cursor over borrowed bytes. Every length read from the input is
/// checked against what is left before anything is sliced or allocated.
pub(crate) struct Reader<'a> {
    pub(crate) rest: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.rest.len() {
            return Err(CodecError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// An element count, and the capacity to reserve for it: never more
    /// elements than the remaining bytes could encode at `min_encoded`
    /// bytes each, so a garbage count cannot size an allocation.
    fn count(&mut self, min_encoded: usize) -> Result<(usize, usize), CodecError> {
        let n = self.u32()? as usize;
        Ok((n, n.min(self.rest.len() / min_encoded)))
    }

    /// A length-prefixed string's bytes, unvalidated.
    fn str_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> Result<String, CodecError> {
        Ok(utf8(self.str_bytes()?)?.to_owned())
    }
}

fn utf8(raw: &[u8]) -> Result<&str, CodecError> {
    std::str::from_utf8(raw).map_err(|_| CodecError::BadUtf8)
}

/// Smallest encodings: a tuple field is a length-prefixed name plus a tag;
/// a collection item is at least a tag.
const MIN_FIELD: usize = 5;
const MIN_ITEM: usize = 1;

/// Decode one value into `out`, reusing what it already holds: a tuple's
/// field vector (each name rewritten where it differs, cut to the fields
/// decoded so none of the previous value's survives), a string's buffer, a
/// set's or list's item vector, recursively. The result equals a fresh decode whatever
/// `out` held; on error `out` holds an unspecified value.
pub(crate) fn read_value(r: &mut Reader<'_>, out: &mut Value) -> Result<(), CodecError> {
    let tag = r.u8()?;
    *out = match tag {
        T_INTEGER => Value::Integer(i32::from_le_bytes(r.array()?)),
        T_FLOAT => Value::Float(f64::from_le_bytes(r.array()?)),
        T_LONG => Value::LongInteger(i64::from_le_bytes(r.array()?)),
        T_STRING => {
            let s = utf8(r.str_bytes()?)?;
            match out {
                Value::String(buf) => {
                    buf.clear();
                    buf.push_str(s);
                    return Ok(());
                }
                _ => Value::String(s.to_owned()),
            }
        }
        T_CHAR => {
            let c = r.u32()?;
            Value::Char(char::from_u32(c).ok_or(CodecError::BadChar(c))?)
        }
        T_BOOL => Value::Boolean(r.u8()? != 0),
        T_TUPLE => {
            let (n, fit) = r.count(MIN_FIELD)?;
            let mut kept = match std::mem::replace(out, Value::Null) {
                Value::Tuple(kept) => kept,
                _ => Vec::with_capacity(fit),
            };
            for i in 0..n {
                let name = utf8(r.str_bytes()?)?;
                if i == kept.len() {
                    kept.push((name.to_owned(), Value::Null));
                } else if kept[i].0 != name {
                    let held = &mut kept[i].0;
                    held.clear();
                    held.push_str(name);
                }
                read_value(r, &mut kept[i].1)?;
            }
            kept.truncate(n);
            Value::Tuple(kept)
        }
        T_SET | T_LIST => {
            let (n, fit) = r.count(MIN_ITEM)?;
            let mut items = match std::mem::replace(out, Value::Null) {
                Value::Set(items) | Value::List(items) => items,
                _ => Vec::with_capacity(fit),
            };
            for i in 0..n {
                if i == items.len() {
                    items.push(Value::Null);
                }
                read_value(r, &mut items[i])?;
            }
            items.truncate(n);
            if tag == T_SET {
                Value::Set(items)
            } else {
                Value::List(items)
            }
        }
        T_REF => {
            Value::Ref(Oid::from_bytes(r.take(Oid::ENCODED_LEN)?).ok_or(CodecError::Truncated)?)
        }
        T_NULL => Value::Null,
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(())
}

/// Step over one encoded value without building it; every tag and length
/// is still checked.
pub(crate) fn skip_value(r: &mut Reader<'_>) -> Result<(), CodecError> {
    let tag = r.u8()?;
    match tag {
        T_INTEGER | T_CHAR => r.take(4).map(drop),
        T_FLOAT | T_LONG => r.take(8).map(drop),
        T_BOOL => r.take(1).map(drop),
        T_STRING => r.str_bytes().map(drop),
        T_TUPLE => {
            for _ in 0..r.u32()? {
                r.str_bytes()?;
                skip_value(r)?;
            }
            Ok(())
        }
        T_SET | T_LIST => {
            for _ in 0..r.u32()? {
                skip_value(r)?;
            }
            Ok(())
        }
        T_REF => r.take(Oid::ENCODED_LEN).map(drop),
        T_NULL => Ok(()),
        t => Err(CodecError::BadTag(t)),
    }
}

/// Serialize a type descriptor.
pub fn encode_type(t: &TypeDescriptor) -> Vec<u8> {
    let mut buf = BytesMut::new();
    write_type(&mut buf, t);
    buf.to_vec()
}

fn write_type(buf: &mut BytesMut, t: &TypeDescriptor) {
    match t {
        TypeDescriptor::Basic(b) => {
            buf.put_u8(D_BASIC);
            buf.put_u8(*b as u8);
        }
        TypeDescriptor::Tuple(fields) => {
            buf.put_u8(D_TUPLE);
            buf.put_u32_le(fields.len() as u32);
            for (n, ft) in fields {
                write_str(buf, n);
                write_type(buf, ft);
            }
        }
        TypeDescriptor::Set(inner) => {
            buf.put_u8(D_SET);
            write_type(buf, inner);
        }
        TypeDescriptor::List(inner) => {
            buf.put_u8(D_LIST);
            write_type(buf, inner);
        }
        TypeDescriptor::Reference(c) => {
            buf.put_u8(D_REFERENCE);
            write_str(buf, c);
        }
    }
}

/// Deserialize a type descriptor.
pub fn decode_type(bytes: &[u8]) -> Result<TypeDescriptor, CodecError> {
    read_type(&mut Reader { rest: bytes })
}

fn read_type(r: &mut Reader<'_>) -> Result<TypeDescriptor, CodecError> {
    let tag = r.u8()?;
    Ok(match tag {
        D_BASIC => {
            let basic = match r.u8()? {
                0 => BasicType::Integer,
                1 => BasicType::Float,
                2 => BasicType::LongInteger,
                3 => BasicType::String,
                4 => BasicType::Char,
                5 => BasicType::Boolean,
                other => return Err(CodecError::BadTag(other)),
            };
            TypeDescriptor::Basic(basic)
        }
        D_TUPLE => {
            let (n, fit) = r.count(MIN_FIELD)?;
            let mut fields = Vec::with_capacity(fit);
            for _ in 0..n {
                let name = r.string()?;
                fields.push((name, read_type(r)?));
            }
            TypeDescriptor::Tuple(fields)
        }
        D_SET => TypeDescriptor::Set(Box::new(read_type(r)?)),
        D_LIST => TypeDescriptor::List(Box::new(read_type(r)?)),
        D_REFERENCE => TypeDescriptor::Reference(r.string()?),
        t => return Err(CodecError::BadTag(t)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_storage::{FileId, PageId, SlotId};

    fn oid(n: u32) -> Oid {
        Oid::new(FileId(2), PageId(n), SlotId(3), 7)
    }

    fn roundtrip(v: &Value) {
        let bytes = encode_value(v);
        let back = decode_value(&bytes).unwrap();
        assert_eq!(&back, v, "roundtrip of {v}");
    }

    #[test]
    fn atomic_values_roundtrip() {
        roundtrip(&Value::Integer(-42));
        roundtrip(&Value::Float(0.577_215_664));
        roundtrip(&Value::LongInteger(i64::MIN));
        roundtrip(&Value::String("Ankara Türkiye".into()));
        roundtrip(&Value::Char('ç'));
        roundtrip(&Value::Boolean(true));
        roundtrip(&Value::Null);
        roundtrip(&Value::Ref(oid(5)));
    }

    #[test]
    fn nested_value_roundtrip() {
        let v = Value::tuple(vec![
            ("id", Value::Integer(1)),
            (
                "engines",
                Value::Set(vec![Value::Ref(oid(1)), Value::Ref(oid(2))]),
            ),
            (
                "history",
                Value::List(vec![Value::tuple(vec![("year", Value::Integer(1994))])]),
            ),
            ("note", Value::Null),
        ]);
        roundtrip(&v);
    }

    #[test]
    fn empty_collections_roundtrip() {
        roundtrip(&Value::Set(vec![]));
        roundtrip(&Value::List(vec![]));
        roundtrip(&Value::Tuple(vec![]));
    }

    #[test]
    fn truncated_bytes_error() {
        let bytes = encode_value(&Value::String("hello".into()));
        assert_eq!(decode_value(&bytes[..3]), Err(CodecError::Truncated));
        assert_eq!(decode_value(&[]), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_tag_error() {
        assert_eq!(decode_value(&[200]), Err(CodecError::BadTag(200)));
    }

    #[test]
    fn type_descriptors_roundtrip() {
        let t = TypeDescriptor::tuple(vec![
            ("name", TypeDescriptor::string()),
            (
                "engines",
                TypeDescriptor::set_of(TypeDescriptor::reference("VehicleEngine")),
            ),
            ("scores", TypeDescriptor::list_of(TypeDescriptor::float())),
            ("flag", TypeDescriptor::boolean()),
        ]);
        let bytes = encode_type(&t);
        assert_eq!(decode_type(&bytes).unwrap(), t);
    }

    #[test]
    fn all_basic_types_roundtrip() {
        for b in BasicType::ALL {
            let t = TypeDescriptor::Basic(b);
            assert_eq!(decode_type(&encode_type(&t)).unwrap(), t);
        }
    }

    #[test]
    fn float_nan_payload_survives() {
        let bytes = encode_value(&Value::Float(f64::NAN));
        match decode_value(&bytes).unwrap() {
            Value::Float(x) => assert!(x.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }
}
