//! Property tests: value codec round-trip for arbitrary value trees, the
//! positional record reader against the named tuple it stands for (fields
//! picked, fields newer than the record, decoding into a slot that holds
//! an earlier value against a fresh decode), damaged input, and order
//! preservation of the index-key encoding.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use mood_datamodel::{
    decode_record_into, decode_value, encode_key, encode_record, encode_value, CodecError,
    SlotMap, Value,
};
use mood_storage::{FileId, Oid, PageId, SlotId};

thread_local! {
    /// Largest single allocation this thread has requested since the last
    /// reset (each test runs on its own thread).
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting the largest request per thread.
struct NoteLargest;

fn note(size: usize) {
    // The slot has no destructor, but a thread may allocate while it is
    // being torn down: then there is nothing to note.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` only writes a thread-local integer.
unsafe impl GlobalAlloc for NoteLargest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: NoteLargest = NoteLargest;

/// Decode damaged bytes by `reading`: any outcome but a panic is fine, and
/// no allocation may be sized by a length field alone — at most one element
/// slot per input byte, however large a count the bytes claim.
fn decode_damaged(bytes: &[u8], reading: &Reading) {
    LARGEST.with(|l| l.set(0));
    let _ = reading.fresh(bytes);
    let largest = LARGEST.with(Cell::get);
    let bound = bytes.len().max(1) * std::mem::size_of::<(String, Value)>();
    assert!(
        largest <= bound,
        "a {}-byte input caused a {largest}-byte allocation under {reading:?}",
        bytes.len()
    );
}

fn arb_oid() -> impl Strategy<Value = Oid> {
    (any::<u16>(), any::<u16>(), any::<u8>(), any::<u8>()).prop_map(|(f, p, s, u)| {
        Oid::new(
            FileId(f as u32),
            PageId(p as u32),
            SlotId(s as u16),
            u as u32,
        )
    })
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<i32>().prop_map(Value::Integer),
        any::<i64>().prop_map(Value::LongInteger),
        // Finite floats only: NaN breaks PartialEq-based round-trip checks
        // (the codec itself preserves NaN — covered by a unit test).
        (-1e300f64..1e300).prop_map(Value::Float),
        "\\PC{0,12}".prop_map(Value::String),
        any::<char>().prop_map(Value::Char),
        any::<bool>().prop_map(Value::Boolean),
        arb_oid().prop_map(Value::Ref),
        Just(Value::Null),
    ];
    leaf.prop_recursive(3, 24, 5, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::Set),
            proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::List),
            proptest::collection::vec(("[a-z]{1,6}", inner), 0..4)
                .prop_map(|fields| { Value::Tuple(fields.into_iter().collect()) }),
        ]
    })
}

/// A stored object: a tuple whose fields hold arbitrary value trees
/// (names may repeat; the record stores none of them). Slot `i` holds
/// attribute id `i`.
fn arb_object() -> impl Strategy<Value = Vec<(String, Value)>> {
    proptest::collection::vec(("[a-e]{1,2}", arb_value()), 0..7)
}

/// The record of `fields`: type 1, version 0.
fn record(fields: &[(String, Value)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_record(&mut bytes, 1, 0, fields.iter().map(|(_, v)| v));
    bytes
}

/// An attribute id no record holds: one added after the record was
/// written.
const NEWER: u32 = 100;

/// A reader's view of one object: the fields it wants as `(id, name)`, in
/// the order it wants them, and the values the object holds by id.
#[derive(Debug)]
struct Reading {
    wanted: Vec<(u32, String)>,
    map: SlotMap,
}

impl Reading {
    /// Read the object `fields`' slots that `mask` picks, newest first
    /// when `reversed`, then an attribute newer than the record when
    /// `newer`.
    fn new(fields: &[(String, Value)], mask: u8, reversed: bool, newer: bool) -> Reading {
        let mut wanted: Vec<(u32, String)> = fields
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> (i % 8) & 1 == 1)
            .map(|(i, (name, _))| (i as u32, name.clone()))
            .collect();
        if reversed {
            wanted.reverse();
        }
        if newer {
            wanted.push((NEWER, "newer".into()));
        }
        let mut map = SlotMap::default();
        let stored: Vec<u32> = (0..fields.len() as u32).collect();
        map.plan(&stored, wanted.iter().enumerate().map(|(tag, (id, _))| (*id, tag as u32)));
        Reading { wanted, map }
    }

    /// Every field, in slot order.
    fn all(fields: &[(String, Value)]) -> Reading {
        Reading::new(fields, u8::MAX, false, false)
    }

    /// No field at all: the record is still walked.
    fn none(fields: &[(String, Value)]) -> Reading {
        Reading::new(fields, 0, false, false)
    }

    fn decode_into(&self, bytes: &[u8], out: &mut Value) -> Result<(), CodecError> {
        decode_record_into(bytes, &self.map, |tag| &self.wanted[tag as usize].1, out)
    }

    fn fresh(&self, bytes: &[u8]) -> Result<Value, CodecError> {
        let mut out = Value::Null;
        self.decode_into(bytes, &mut out).map(|()| out)
    }

    /// The oracle: the named tuple of the wanted fields, NULL for an id the
    /// object does not hold.
    fn expected(&self, fields: &[(String, Value)]) -> Value {
        let value = |id: u32| fields.get(id as usize).map_or(Value::Null, |(_, v)| v.clone());
        Value::Tuple(self.wanted.iter().map(|(id, name)| (name.clone(), value(*id))).collect())
    }
}

/// What a scan's slot may hold before the next record lands in it: any
/// value, or an object of the same names — wider, narrower, in another
/// order, of other field types, with longer or shorter strings.
fn arb_slot() -> impl Strategy<Value = Value> {
    prop_oneof![arb_value(), arb_object().prop_map(Value::Tuple)]
}

/// `bytes` decoded by `reading` into a slot holding `held` gives what a
/// fresh decode gives: the same value, or the same error.
fn same_as_fresh(bytes: &[u8], reading: &Reading, held: &Value) {
    let mut slot = held.clone();
    let into = reading.decode_into(bytes, &mut slot).map(|()| slot);
    assert_eq!(into, reading.fresh(bytes), "by {reading:?} into {held:?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Decoding into a slot is a fresh decode, whatever the slot held:
    /// no field, string byte or item of the earlier value survives, under
    /// the whole object, no field, and every subset of its fields.
    #[test]
    fn decode_into_a_used_slot_is_a_fresh_decode(
        fields in arb_object(),
        held in arb_slot(),
    ) {
        let bytes = record(&fields);
        for mask in 0..=u8::MAX {
            let reading = Reading::new(&fields, mask, mask % 2 == 1, mask % 3 == 0);
            same_as_fresh(&bytes, &reading, &held);
        }
        same_as_fresh(&bytes, &Reading::all(&fields), &held);
        same_as_fresh(&bytes, &Reading::none(&fields), &held);
        // A slot that held the previous record of a scan.
        let mut slot = held;
        for reading in [
            Reading::all(&fields),
            Reading::none(&fields),
            Reading::new(&fields, 0b1010_0101, true, true),
        ] {
            reading.decode_into(&bytes, &mut slot).unwrap();
            prop_assert_eq!(&slot, &reading.fresh(&bytes).unwrap());
        }
    }

    /// A record of any one value decodes into any slot as it decodes
    /// afresh.
    #[test]
    fn decode_into_a_used_slot_holds_for_any_value(v in arb_value(), held in arb_slot()) {
        let fields = [("v".to_string(), v)];
        let bytes = record(&fields);
        same_as_fresh(&bytes, &Reading::all(&fields), &held);
        same_as_fresh(&bytes, &Reading::none(&fields), &held);
        same_as_fresh(&bytes, &Reading::new(&fields, 1, false, true), &held);
    }

    /// A truncated or damaged record is the same error into a used slot as
    /// afresh (and a damaged one that still decodes, the same value).
    #[test]
    fn damaged_bytes_into_a_used_slot_match_a_fresh_decode(
        fields in arb_object(),
        held in arb_slot(),
        mask in any::<u8>(),
        flips in proptest::collection::vec((any::<u16>(), 1u16..256), 1..6),
    ) {
        let bytes = record(&fields);
        let pruned = Reading::new(&fields, mask, true, true);
        let readings = [Reading::all(&fields), Reading::none(&fields), pruned];
        for cut in 0..bytes.len() {
            for reading in &readings {
                same_as_fresh(&bytes[..cut], reading, &held);
            }
        }
        let mut flipped = bytes.clone();
        for (at, bits) in flips {
            flipped[at as usize % bytes.len()] ^= bits as u8;
            for reading in &readings {
                same_as_fresh(&flipped, reading, &held);
            }
        }
    }

    #[test]
    fn codec_roundtrips_arbitrary_values(v in arb_value()) {
        let bytes = encode_value(&v);
        let back = decode_value(&bytes).unwrap();
        prop_assert_eq!(&back, &v);
        // A value stored in a record slot comes back as the same value.
        let fields = [("v".to_string(), v)];
        let whole = Reading::all(&fields).fresh(&record(&fields)).unwrap();
        prop_assert_eq!(whole, Value::Tuple(fields.to_vec()));
    }

    /// A positional decode is the named tuple it stands for: the fields
    /// the reader wants, in the reader's order, NULL for an attribute
    /// newer than the record; whatever a skipped slot nests (tuples, sets,
    /// lists, refs) is stepped over whole, so the slots after it still
    /// line up.
    #[test]
    fn pruned_decode_is_the_filtered_tuple(
        fields in arb_object(),
        mask in any::<u8>(),
        reversed in any::<bool>(),
        newer in any::<bool>(),
    ) {
        let bytes = record(&fields);
        let reading = Reading::new(&fields, mask, reversed, newer);
        prop_assert_eq!(reading.fresh(&bytes).unwrap(), reading.expected(&fields));
        prop_assert_eq!(Reading::all(&fields).fresh(&bytes).unwrap(), Value::Tuple(fields.clone()));
        prop_assert_eq!(Reading::none(&fields).fresh(&bytes).unwrap(), Value::Tuple(vec![]));
    }

    /// Every prefix truncation and a handful of byte flips, decoded whole
    /// and pruned: an error or a value, never a panic or an allocation
    /// sized by a garbage count.
    #[test]
    fn damaged_bytes_end_in_an_error_or_a_value(
        fields in arb_object(),
        mask in any::<u8>(),
        flips in proptest::collection::vec((any::<u16>(), 1u16..256), 1..6),
    ) {
        let bytes = record(&fields);
        let pruned = Reading::new(&fields, mask, false, true);
        let readings = [Reading::all(&fields), Reading::none(&fields), pruned];
        for cut in 0..bytes.len() {
            for reading in &readings {
                decode_damaged(&bytes[..cut], reading);
                // A record cut short is never mistaken for a whole one.
                prop_assert!(reading.fresh(&bytes[..cut]).is_err());
            }
        }
        let mut flipped = bytes.clone();
        for (at, bits) in flips {
            flipped[at as usize % bytes.len()] ^= bits as u8;
            for reading in &readings {
                decode_damaged(&flipped, reading);
            }
        }
    }

    #[test]
    fn key_encoding_preserves_integer_order(a in any::<i32>(), b in any::<i32>()) {
        let ka = encode_key(&Value::Integer(a)).unwrap();
        let kb = encode_key(&Value::Integer(b)).unwrap();
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
    }

    #[test]
    fn key_encoding_preserves_float_order(a in -1e300f64..1e300, b in -1e300f64..1e300) {
        let ka = encode_key(&Value::Float(a)).unwrap();
        let kb = encode_key(&Value::Float(b)).unwrap();
        if a != b {
            prop_assert_eq!(ka.cmp(&kb), a.partial_cmp(&b).unwrap());
        }
    }

    #[test]
    fn key_encoding_preserves_mixed_numeric_order(a in any::<i32>(), b in -1e9f64..1e9) {
        let ka = encode_key(&Value::Integer(a)).unwrap();
        let kb = encode_key(&Value::Float(b)).unwrap();
        let cmp = (a as f64).partial_cmp(&b).unwrap();
        if (a as f64) != b {
            prop_assert_eq!(ka.cmp(&kb), cmp);
        }
    }

    #[test]
    fn key_encoding_preserves_string_order(a in "\\PC{0,16}", b in "\\PC{0,16}") {
        let ka = encode_key(&Value::String(a.clone())).unwrap();
        let kb = encode_key(&Value::String(b.clone())).unwrap();
        prop_assert_eq!(ka.cmp(&kb), a.as_bytes().cmp(b.as_bytes()));
    }

    #[test]
    fn equals_is_reflexive_and_symmetric(a in arb_value(), b in arb_value()) {
        prop_assert!(a.equals(&a));
        prop_assert_eq!(a.equals(&b), b.equals(&a));
    }
}
