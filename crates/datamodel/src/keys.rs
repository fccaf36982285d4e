//! Order-preserving key encoding for B+-tree indexes.
//!
//! The index layer compares keys as raw bytes; these encoders guarantee
//! `encode(a) < encode(b) ⇔ a < b` under [`crate::value::Value::compare`]
//! for each atomic type, and numerics of different widths encode into a
//! common form so mixed Integer/LongInteger/Float keys still order
//! correctly.

use crate::value::Value;

/// Key-encoding failures: only atomic values can be index keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotAtomic;

impl std::fmt::Display for NotAtomic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "only atomic values can be encoded as index keys")
    }
}

impl std::error::Error for NotAtomic {}

/// Encode an `f64` preserving IEEE total order (-inf < ... < +inf; NaN
/// sorts above +inf). `-0.0` is encoded as `0.0`: the two compare equal, so
/// an index must find either under either.
fn encode_f64(x: f64) -> [u8; 8] {
    let bits = if x == 0.0 { 0.0f64 } else { x }.to_bits();
    let flipped = if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    };
    flipped.to_be_bytes()
}

/// Encode an atomic value as an order-preserving byte key.
///
/// Layout: 1 type-class byte, then the payload. Type classes order
/// NULL < numeric < string < char < boolean < ref, so mixed-type keys in a
/// diagnostic index remain totally ordered. All numerics share the numeric
/// class via the `f64` total-order encoding (the paper's run-time coercion
/// means a predicate `x > 3` applies equally to Integer and Float
/// attributes). Precision note: LongIntegers beyond 2^53 collapse to their
/// nearest double — acceptable for index keys because the heap record holds
/// the exact value and equality is re-checked on fetch.
pub fn encode_key(v: &Value) -> Result<Vec<u8>, NotAtomic> {
    let mut out = Vec::with_capacity(10);
    match v {
        Value::Null => out.push(0),
        Value::Integer(i) => {
            out.push(1);
            out.extend_from_slice(&encode_f64(*i as f64));
        }
        Value::LongInteger(i) => {
            out.push(1);
            out.extend_from_slice(&encode_f64(*i as f64));
        }
        Value::Float(x) => {
            out.push(1);
            out.extend_from_slice(&encode_f64(*x));
        }
        Value::String(s) => {
            out.push(2);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Char(c) => {
            out.push(3);
            out.extend_from_slice(&(*c as u32).to_be_bytes());
        }
        Value::Boolean(b) => {
            out.push(4);
            out.push(*b as u8);
        }
        Value::Ref(oid) => {
            // OIDs are valid keys for binary join indexes (§6.3): encode
            // components big-endian so byte order equals Ord on Oid.
            out.push(5);
            out.extend_from_slice(&oid.file.0.to_be_bytes());
            out.extend_from_slice(&oid.page.0.to_be_bytes());
            out.extend_from_slice(&oid.slot.0.to_be_bytes());
            out.extend_from_slice(&oid.unique.to_be_bytes());
        }
        Value::Tuple(_) | Value::Set(_) | Value::List(_) => return Err(NotAtomic),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_storage::{FileId, Oid, PageId, SlotId};
    use std::cmp::Ordering;

    fn key(v: &Value) -> Vec<u8> {
        encode_key(v).unwrap()
    }

    #[test]
    fn integer_order_preserved() {
        let vals = [-1000, -1, 0, 1, 5, 1000, i32::MAX, i32::MIN];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    key(&Value::Integer(a)).cmp(&key(&Value::Integer(b))),
                    a.cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn float_order_preserved_including_negatives() {
        let vals = [-1e300, -1.5, -0.0, 0.0, 1e-10, 2.5, 1e300];
        for &a in &vals {
            for &b in &vals {
                let expect = a.partial_cmp(&b).unwrap();
                let got = key(&Value::Float(a)).cmp(&key(&Value::Float(b)));
                assert_eq!(got, expect, "{a} vs {b}");
            }
        }
        // The two zeros are one key, so an equality probe finds both.
        assert_eq!(key(&Value::Float(-0.0)), key(&Value::Float(0.0)));
        assert_eq!(key(&Value::Float(-0.0)), key(&Value::Integer(0)));
    }

    #[test]
    fn mixed_numerics_share_order() {
        assert_eq!(
            key(&Value::Integer(2)).cmp(&key(&Value::Float(2.5))),
            Ordering::Less
        );
        assert_eq!(
            key(&Value::LongInteger(3)).cmp(&key(&Value::Float(3.0))),
            Ordering::Equal
        );
    }

    #[test]
    fn string_order_preserved() {
        assert!(key(&Value::string("BMW")) < key(&Value::string("Toyota")));
        assert!(key(&Value::string("a")) < key(&Value::string("ab")));
    }

    #[test]
    fn null_sorts_lowest() {
        assert!(key(&Value::Null) < key(&Value::Integer(i32::MIN)));
        assert!(key(&Value::Null) < key(&Value::string("")));
    }

    #[test]
    fn oid_keys_match_oid_ordering() {
        let a = Oid::new(FileId(1), PageId(2), SlotId(3), 1);
        let b = Oid::new(FileId(1), PageId(10), SlotId(0), 1);
        assert_eq!(key(&Value::Ref(a)).cmp(&key(&Value::Ref(b))), a.cmp(&b));
    }

    #[test]
    fn collections_are_rejected() {
        assert_eq!(encode_key(&Value::Set(vec![])), Err(NotAtomic));
        assert_eq!(encode_key(&Value::List(vec![])), Err(NotAtomic));
        assert_eq!(encode_key(&Value::Tuple(vec![])), Err(NotAtomic));
    }
}
