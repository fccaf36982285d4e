//! # mood-datamodel — the MOOD data model
//!
//! Section 2 / 3.1 of the paper: six basic types (Integer, Float,
//! LongInteger, String, Char, Boolean) closed under four constructors
//! (Tuple, Set, List, Reference), with run-time type information carried to
//! execution (the catalog's `MoodsType` records store these descriptors).
//!
//! * [`types`] — [`TypeDescriptor`] / [`BasicType`];
//! * [`value`] — runtime [`Value`]s with coercing comparison;
//! * [`codec`] — the binary representation of values (self-describing)
//!   and type descriptors;
//! * [`record`] — stored objects: positional records of one schema
//!   version, read by slot;
//! * [`keys`] — order-preserving index-key encoding;
//! * [`deep`] — deep equality with dereferencing (Table 3's `DupElim`).

pub mod codec;
pub mod deep;
pub mod keys;
pub mod record;
pub mod types;
pub mod value;

pub use codec::{
    decode_type, decode_value, encode_type, encode_value, encode_value_into, CodecError, FieldSet,
};
pub use deep::{deep_eq, Resolver};
pub use keys::{encode_key, NotAtomic};
pub use record::{decode_record_into, encode_record, record_head, SlotMap};
pub use types::{BasicType, TypeDescriptor};
pub use value::Value;
