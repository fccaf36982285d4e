//! Property tests: value codec round-trip for arbitrary value trees, the
//! field-set reader against the full decode, decoding into a slot that
//! holds an earlier value against a fresh decode, damaged input, and order
//! preservation of the index-key encoding.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use mood_datamodel::{
    decode_fields, decode_fields_into, decode_value, encode_key, encode_value, FieldSet, Value,
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

/// Decode damaged bytes under `fields`: any outcome but a panic is fine, and
/// no allocation may be sized by a length field alone — at most one element
/// slot per input byte, however large a count the bytes claim.
fn decode_damaged(bytes: &[u8], fields: &FieldSet) {
    LARGEST.with(|l| l.set(0));
    let _ = decode_fields(bytes, fields);
    let largest = LARGEST.with(Cell::get);
    let bound = bytes.len().max(1) * std::mem::size_of::<(String, Value)>();
    assert!(
        largest <= bound,
        "a {}-byte input caused a {largest}-byte allocation under {fields}",
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
/// (names may repeat; the reader must not care).
fn arb_object() -> impl Strategy<Value = Vec<(String, Value)>> {
    proptest::collection::vec(("[a-e]{1,2}", arb_value()), 0..7)
}

/// The field set naming the fields `mask` picks, plus one no object has.
fn subset(fields: &[(String, Value)], mask: u8) -> FieldSet {
    let mut set = FieldSet::NONE;
    set.insert("absent");
    for (i, (name, _)) in fields.iter().enumerate() {
        if mask >> (i % 8) & 1 == 1 {
            set.insert(name);
        }
    }
    set
}

/// What a scan's slot may hold before the next record lands in it: any
/// value, or an object of the same names — wider, narrower, in another
/// order, of other field types, with longer or shorter strings.
fn arb_slot() -> impl Strategy<Value = Value> {
    prop_oneof![arb_value(), arb_object().prop_map(Value::Tuple)]
}

/// `bytes` decoded under `fields` into a slot holding `held` gives what a
/// fresh decode gives: the same value, or the same error.
fn same_as_fresh(bytes: &[u8], fields: &FieldSet, held: &Value) {
    let mut slot = held.clone();
    let into = decode_fields_into(bytes, fields, &mut slot).map(|()| slot);
    assert_eq!(into, decode_fields(bytes, fields), "under {fields} into {held:?}");
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
        let bytes = encode_value(&Value::Tuple(fields.clone()));
        for mask in 0..=u8::MAX {
            same_as_fresh(&bytes, &subset(&fields, mask), &held);
        }
        same_as_fresh(&bytes, &FieldSet::All, &held);
        same_as_fresh(&bytes, &FieldSet::NONE, &held);
        // A slot that held the previous record of a scan.
        let mut slot = held;
        for set in [FieldSet::All, FieldSet::NONE, subset(&fields, 0b1010_0101)] {
            decode_fields_into(&bytes, &set, &mut slot).unwrap();
            prop_assert_eq!(&slot, &decode_fields(&bytes, &set).unwrap());
        }
    }

    /// A non-tuple value decodes into any slot as it decodes afresh.
    #[test]
    fn decode_into_a_used_slot_holds_for_any_value(v in arb_value(), held in arb_slot()) {
        let bytes = encode_value(&v);
        same_as_fresh(&bytes, &FieldSet::All, &held);
        same_as_fresh(&bytes, &FieldSet::NONE, &held);
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
        let bytes = encode_value(&Value::Tuple(fields.clone()));
        let sets = [FieldSet::All, FieldSet::NONE, subset(&fields, mask)];
        for cut in 0..bytes.len() {
            for set in &sets {
                same_as_fresh(&bytes[..cut], set, &held);
            }
        }
        let mut flipped = bytes.clone();
        for (at, bits) in flips {
            flipped[at as usize % bytes.len()] ^= bits as u8;
            for set in &sets {
                same_as_fresh(&flipped, set, &held);
            }
        }
    }

    #[test]
    fn codec_roundtrips_arbitrary_values(v in arb_value()) {
        let bytes = encode_value(&v);
        let back = decode_value(&bytes).unwrap();
        prop_assert_eq!(&back, &v);
        // The whole-object field set is that same decode; a set of names
        // prunes tuples only, so any other value comes back whole.
        prop_assert_eq!(decode_fields(&bytes, &FieldSet::All).unwrap(), back);
        if !matches!(v, Value::Tuple(_)) {
            prop_assert_eq!(decode_fields(&bytes, &FieldSet::NONE).unwrap(), v);
        }
    }

    /// Pruned decode == the full tuple filtered to the set, in stored
    /// order; whatever a skipped field nests (tuples, sets, lists, refs) is
    /// stepped over whole, so the fields after it still line up.
    #[test]
    fn pruned_decode_is_the_filtered_tuple(fields in arb_object(), mask in any::<u8>()) {
        let bytes = encode_value(&Value::Tuple(fields.clone()));
        let set = subset(&fields, mask);
        let FieldSet::Only(names) = &set else { unreachable!() };
        let kept: Vec<(String, Value)> =
            fields.into_iter().filter(|(n, _)| names.contains(n)).collect();
        prop_assert_eq!(decode_fields(&bytes, &set).unwrap(), Value::Tuple(kept));
        prop_assert_eq!(decode_fields(&bytes, &FieldSet::NONE).unwrap(), Value::Tuple(vec![]));
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
        let bytes = encode_value(&Value::Tuple(fields.clone()));
        let sets = [FieldSet::All, FieldSet::NONE, subset(&fields, mask)];
        for cut in 0..bytes.len() {
            for set in &sets {
                decode_damaged(&bytes[..cut], set);
                // A tuple cut short is never mistaken for a whole one.
                prop_assert!(decode_fields(&bytes[..cut], set).is_err());
            }
        }
        let mut flipped = bytes.clone();
        for (at, bits) in flips {
            flipped[at as usize % bytes.len()] ^= bits as u8;
            for set in &sets {
                decode_damaged(&flipped, set);
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
