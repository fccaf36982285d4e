//! Stored objects as positional records.
//!
//! A stored object is `type_id u32 | version u16 | null bitmap | values`:
//! the type id of its class, the schema version of that class it was
//! written under, one bit per slot of that version's slot list (set: the
//! slot holds NULL and takes no bytes), then each other slot's value in
//! slot order, tagged, in the value codec ([`crate::codec`]). No attribute
//! name is stored: the catalog keeps every version's slot list (attribute
//! ids) and the current name of each id. A tuple *value* nested in a slot
//! keeps the named encoding.
//!
//! A reader resolves the fields it wants to slot positions once per
//! (type, version) — a [`SlotMap`] — and then reads record after record by
//! position: no name is compared and nothing is looked up per record.

use crate::codec::{encode_value_into, read_value, skip_value, CodecError, Reader};
use crate::value::Value;

/// Bytes before a record's null bitmap: the type id and the version.
const RECORD_HEAD: usize = 6;

/// The fill of a stored slot no output field takes.
const SKIP: u32 = u32::MAX;

/// Append the record of `values` — the slots of schema `version` of type
/// `type_id`, in slot order — to `buf`.
pub fn encode_record<'v>(
    buf: &mut Vec<u8>,
    type_id: u32,
    version: u16,
    values: impl ExactSizeIterator<Item = &'v Value>,
) {
    buf.extend_from_slice(&type_id.to_le_bytes());
    buf.extend_from_slice(&version.to_le_bytes());
    let bitmap = buf.len();
    buf.resize(bitmap + values.len().div_ceil(8), 0);
    for (slot, v) in values.enumerate() {
        match v {
            Value::Null => buf[bitmap + slot / 8] |= 1 << (slot % 8),
            v => encode_value_into(buf, v),
        }
    }
}

/// The type id and schema version a record was written under.
pub fn record_head(bytes: &[u8]) -> Result<(u32, u16), CodecError> {
    match bytes.first_chunk::<RECORD_HEAD>() {
        Some(&[a, b, c, d, e, f]) => {
            Ok((u32::from_le_bytes([a, b, c, d]), u16::from_le_bytes([e, f])))
        }
        None => Err(CodecError::Truncated),
    }
}

/// How the records of one slot list read into a tuple: the output field
/// each stored slot fills (or that it is stepped over), the output fields
/// no slot fills (they read NULL), and a caller's tag per output field
/// that names it. Planned once per (type, version) a reader meets; the
/// buffer is kept from plan to plan.
#[derive(Debug, Clone, Default)]
pub struct SlotMap {
    /// The fill of each stored slot, then the output fields no slot
    /// fills, then the tag of each output field.
    plan: Vec<u32>,
    slots: usize,
    absent: usize,
}

impl SlotMap {
    /// Plan records whose slots hold the attribute ids `stored`, read into
    /// one output field per `(id, tag)` of `wanted`, in that order. A wanted
    /// id no slot holds reads NULL (an attribute newer than the record); a
    /// slot whose id is not wanted is stepped over (an attribute the reader
    /// skips, or one dropped since the record was written).
    pub fn plan(&mut self, stored: &[u32], wanted: impl Iterator<Item = (u32, u32)> + Clone) {
        self.plan.clear();
        for id in stored {
            let fill = wanted.clone().position(|(w, _)| w == *id);
            self.plan.push(fill.map_or(SKIP, |k| k as u32));
        }
        self.slots = stored.len();
        for (k, (id, _)) in wanted.clone().enumerate() {
            if !stored.contains(&id) {
                self.plan.push(k as u32);
            }
        }
        self.absent = self.plan.len() - self.slots;
        self.plan.extend(wanted.map(|(_, tag)| tag));
    }
}

/// Decode record `bytes` into `out` as `map` plans it: a tuple of one
/// field per wanted id, each named `name(tag)`. Every slot is
/// walked — a skipped one by its encoded length, every tag and length
/// checked — so a damaged record is an error whatever the reader wants.
///
/// What `out` already holds is reused, not rebuilt: its field vector (cut
/// to the width, so no field of the previous value survives), each name's
/// buffer, and each value as [`crate::codec`] reuses it. A scan that decodes
/// record after record into the same slots allocates nothing once every
/// slot has held a record of the extent's shape. The result equals a fresh
/// decode whatever `out` held; on error `out` holds an unspecified value.
pub fn decode_record_into<'n>(
    bytes: &[u8],
    map: &SlotMap,
    name: impl Fn(u32) -> &'n str,
    out: &mut Value,
) -> Result<(), CodecError> {
    let mut r = Reader { rest: bytes.get(RECORD_HEAD..).ok_or(CodecError::Truncated)? };
    let bitmap = r.take(map.slots.div_ceil(8))?;
    let (fills, rest) = map.plan.split_at(map.slots);
    let (absent, tags) = rest.split_at(map.absent);
    let mut kept = match std::mem::replace(out, Value::Null) {
        Value::Tuple(kept) => kept,
        _ => Vec::with_capacity(tags.len()),
    };
    kept.truncate(tags.len());
    for (k, &tag) in tags.iter().enumerate() {
        let n = name(tag);
        match kept.get_mut(k) {
            Some((held, _)) => {
                held.clear();
                held.push_str(n);
            }
            None => kept.push((n.to_owned(), Value::Null)),
        }
    }
    for &k in absent {
        kept[k as usize].1 = Value::Null;
    }
    for (slot, &fill) in fills.iter().enumerate() {
        let null = bitmap[slot / 8] >> (slot % 8) & 1 == 1;
        match (fill, null) {
            (SKIP, true) => {}
            (SKIP, false) => skip_value(&mut r)?,
            (k, true) => kept[k as usize].1 = Value::Null,
            (k, false) => read_value(&mut r, &mut kept[k as usize].1)?,
        }
    }
    *out = Value::Tuple(kept);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 4] = ["id", "name", "price", "color"];

    fn decode(bytes: &[u8], map: &SlotMap) -> Result<Value, CodecError> {
        let mut out = Value::Null;
        decode_record_into(bytes, map, |tag| NAMES[tag as usize], &mut out)?;
        Ok(out)
    }

    #[test]
    fn a_record_names_nothing_and_marks_its_nulls() {
        let values = [Value::Integer(7), Value::Null, Value::string("ab")];
        let mut bytes = Vec::new();
        encode_record(&mut bytes, 3, 2, values.iter());
        // Head, a one-byte bitmap (slot 1 null), then two tagged values.
        assert_eq!(bytes.len(), RECORD_HEAD + 1 + 5 + 7);
        assert_eq!(bytes[RECORD_HEAD], 0b010);
        assert_eq!(record_head(&bytes), Ok((3, 2)));
        let mut map = SlotMap::default();
        map.plan(&[10, 11, 12], [(10, 0), (11, 1), (12, 2)].into_iter());
        assert_eq!(
            decode(&bytes, &map),
            Ok(Value::tuple(vec![
                ("id", Value::Integer(7)),
                ("name", Value::Null),
                ("price", Value::string("ab")),
            ]))
        );
    }

    #[test]
    fn an_older_version_skips_retired_slots_and_reads_newer_ids_as_null() {
        // Written with slots {10, 11, 12}; 11 was dropped since, 13 added,
        // and the reader wants 13 and 12 in that order.
        let values = [Value::Integer(1), Value::Integer(2), Value::Integer(3)];
        let mut bytes = Vec::new();
        encode_record(&mut bytes, 1, 0, values.iter());
        let mut map = SlotMap::default();
        map.plan(&[10, 11, 12], [(13, 3), (12, 2)].into_iter());
        assert_eq!(
            decode(&bytes, &map),
            Ok(Value::tuple(vec![("color", Value::Null), ("price", Value::Integer(3))]))
        );
        // A cut record is an error, even inside a slot nobody reads.
        map.plan(&[10, 11, 12], std::iter::empty());
        assert_eq!(decode(&bytes, &map), Ok(Value::Tuple(vec![])));
        assert_eq!(decode(&bytes[..bytes.len() - 1], &map), Err(CodecError::Truncated));
        assert_eq!(record_head(&bytes[..5]), Err(CodecError::Truncated));
    }
}
