//! Runtime values of the MOOD data model.

use std::cmp::Ordering;
use std::fmt;

use mood_storage::Oid;

use crate::types::{BasicType, TypeDescriptor};

/// A value: an instance of a basic type or of a constructor application.
///
/// `Ref` holds a physical OID; equality on `Ref` is identity (same object).
/// Deep (value) equality, which dereferences, lives in [`crate::deep`].
#[derive(Debug, PartialEq)]
pub enum Value {
    Integer(i32),
    Float(f64),
    LongInteger(i64),
    String(String),
    Char(char),
    Boolean(bool),
    /// Named fields in declaration order.
    Tuple(Vec<(String, Value)>),
    /// Unordered collection; stored order is insertion order, semantics are
    /// set semantics (operators deduplicate).
    Set(Vec<Value>),
    /// Ordered collection.
    List(Vec<Value>),
    /// Reference to another object.
    Ref(Oid),
    /// Null (the cost model's `notnull(A,C)` is about exactly these).
    Null,
}

impl Clone for Value {
    fn clone(&self) -> Value {
        match self {
            Value::Integer(i) => Value::Integer(*i),
            Value::Float(x) => Value::Float(*x),
            Value::LongInteger(i) => Value::LongInteger(*i),
            Value::String(s) => Value::String(s.clone()),
            Value::Char(c) => Value::Char(*c),
            Value::Boolean(b) => Value::Boolean(*b),
            Value::Tuple(fields) => Value::Tuple(fields.clone()),
            Value::Set(items) => Value::Set(items.clone()),
            Value::List(items) => Value::List(items.clone()),
            Value::Ref(oid) => Value::Ref(*oid),
            Value::Null => Value::Null,
        }
    }

    /// Copy `source` into what `self` already holds: a string's buffer and
    /// a collection's item vector are reused (items recursively), so a
    /// register or slot overwritten value after value of one shape
    /// allocates nothing once it has held the longest.
    fn clone_from(&mut self, source: &Value) {
        match (self, source) {
            (Value::String(to), Value::String(from)) => to.clone_from(from),
            (Value::Set(to), Value::Set(from)) | (Value::List(to), Value::List(from)) => {
                to.clone_from(from)
            }
            (Value::Tuple(to), Value::Tuple(from)) => {
                to.truncate(from.len());
                let held = to.len();
                for ((name, value), (from_name, from_value)) in to.iter_mut().zip(from) {
                    name.clone_from(from_name);
                    value.clone_from(from_value);
                }
                to.extend_from_slice(&from[held..]);
            }
            (to, from) => *to = from.clone(),
        }
    }
}

impl Value {
    pub fn tuple(fields: Vec<(&str, Value)>) -> Value {
        Value::Tuple(
            fields
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
        )
    }

    pub fn string(s: impl Into<String>) -> Value {
        Value::String(s.into())
    }

    /// The basic type of an atomic value.
    pub fn basic_type(&self) -> Option<BasicType> {
        Some(match self {
            Value::Integer(_) => BasicType::Integer,
            Value::Float(_) => BasicType::Float,
            Value::LongInteger(_) => BasicType::LongInteger,
            Value::String(_) => BasicType::String,
            Value::Char(_) => BasicType::Char,
            Value::Boolean(_) => BasicType::Boolean,
            _ => return None,
        })
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Tuple field access.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Tuple(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Replace (or add) a tuple field, returning whether it existed.
    pub fn set_field(&mut self, name: &str, value: Value) -> bool {
        if let Value::Tuple(fields) = self {
            for (n, v) in fields.iter_mut() {
                if n == name {
                    *v = value;
                    return true;
                }
            }
            fields.push((name.to_string(), value));
        }
        false
    }

    /// Numeric view for coercing comparisons/arithmetic.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::LongInteger(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_oid(&self) -> Option<Oid> {
        match self {
            Value::Ref(oid) => Some(*oid),
            _ => None,
        }
    }

    /// Does this value conform to `ty`? Reference class names are checked
    /// by the catalog layer (which knows the hierarchy); here any `Ref`
    /// matches any `Reference`, and `Null` matches everything.
    pub fn matches(&self, ty: &TypeDescriptor) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (v, TypeDescriptor::Basic(b)) => v.basic_type() == Some(*b),
            (Value::Tuple(fields), TypeDescriptor::Tuple(ftypes)) => {
                fields.len() == ftypes.len()
                    && fields
                        .iter()
                        .zip(ftypes)
                        .all(|((fname, fval), (tname, tty))| fname == tname && fval.matches(tty))
            }
            (Value::Set(items), TypeDescriptor::Set(inner)) => {
                items.iter().all(|v| v.matches(inner))
            }
            (Value::List(items), TypeDescriptor::List(inner)) => {
                items.iter().all(|v| v.matches(inner))
            }
            (Value::Ref(_), TypeDescriptor::Reference(_)) => true,
            _ => false,
        }
    }

    /// Three-way comparison with numeric coercion (Integer, LongInteger and
    /// Float compare by value, as the paper's run-time type conversion
    /// implies). Non-comparable kinds return `None`.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::String(a), Value::String(b)) => Some(a.cmp(b)),
            (Value::Char(a), Value::Char(b)) => Some(a.cmp(b)),
            (Value::Boolean(a), Value::Boolean(b)) => Some(a.cmp(b)),
            (Value::Ref(a), Value::Ref(b)) => Some(a.cmp(b)),
            (Value::Integer(a), Value::Integer(b)) => Some(a.cmp(b)),
            (Value::LongInteger(a), Value::LongInteger(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Shallow equality following [`Value::compare`]'s coercion (so
    /// `Integer(2) == Float(2.0)` for predicate purposes).
    pub fn equals(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Tuple(a), Value::Tuple(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((an, av), (bn, bv))| an == bn && av.equals(bv))
            }
            (Value::Set(a), Value::Set(b)) => {
                // Set equality: mutual containment under `equals`.
                a.len() == b.len()
                    && a.iter().all(|x| b.iter().any(|y| x.equals(y)))
                    && b.iter().all(|x| a.iter().any(|y| x.equals(y)))
            }
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.equals(y))
            }
            (Value::Null, Value::Null) => true,
            (a, b) => a.compare(b) == Some(Ordering::Equal),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Integer(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::LongInteger(i) => write!(f, "{i}L"),
            Value::String(s) => write!(f, "'{s}'"),
            Value::Char(c) => write!(f, "'{c}'"),
            Value::Boolean(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Tuple(fields) => {
                write!(f, "<")?;
                for (i, (n, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                write!(f, ">")
            }
            Value::Set(items) => {
                write!(f, "{{")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Ref(oid) => write!(f, "@{oid}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_storage::{FileId, PageId, SlotId};

    fn oid(n: u32) -> Oid {
        Oid::new(FileId(1), PageId(n), SlotId(0), 1)
    }

    #[test]
    fn clone_from_reuses_what_it_overwrites() {
        let values = [
            Value::string("a longer string than the next"),
            Value::string("short"),
            Value::tuple(vec![("a", Value::Integer(1)), ("b", Value::string("x"))]),
            Value::tuple(vec![("a", Value::string("yy"))]),
            Value::List(vec![Value::string("p"), Value::Null]),
            Value::Set(vec![Value::Ref(oid(3))]),
            Value::Float(-0.0),
            Value::Null,
        ];
        for to in &values {
            for from in &values {
                let mut held = to.clone();
                held.clone_from(from);
                assert_eq!(held, *from, "{to} <- {from}");
            }
        }
        // A string overwritten by a shorter one keeps its buffer.
        let mut held = values[0].clone();
        let Value::String(buf) = &held else { unreachable!() };
        let at = buf.as_ptr();
        held.clone_from(&values[1]);
        let Value::String(buf) = &held else { unreachable!() };
        assert_eq!(buf.as_ptr(), at);
    }

    #[test]
    fn numeric_coercion_in_compare() {
        assert_eq!(
            Value::Integer(2).compare(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::LongInteger(3).compare(&Value::Integer(4)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(2.5).compare(&Value::Integer(2)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn non_comparable_kinds() {
        assert_eq!(Value::string("a").compare(&Value::Integer(1)), None);
        assert_eq!(Value::Boolean(true).compare(&Value::string("true")), None);
    }

    #[test]
    fn equals_coerces_numerics() {
        assert!(Value::Integer(7).equals(&Value::Float(7.0)));
        assert!(!Value::Integer(7).equals(&Value::Float(7.5)));
    }

    #[test]
    fn set_equality_is_order_insensitive() {
        let a = Value::Set(vec![Value::Integer(1), Value::Integer(2)]);
        let b = Value::Set(vec![Value::Integer(2), Value::Integer(1)]);
        assert!(a.equals(&b));
        let c = Value::Set(vec![Value::Integer(1)]);
        assert!(!a.equals(&c));
    }

    #[test]
    fn list_equality_is_order_sensitive() {
        let a = Value::List(vec![Value::Integer(1), Value::Integer(2)]);
        let b = Value::List(vec![Value::Integer(2), Value::Integer(1)]);
        assert!(!a.equals(&b));
    }

    #[test]
    fn tuple_field_access_and_update() {
        let mut v = Value::tuple(vec![
            ("id", Value::Integer(1)),
            ("name", Value::string("BMW")),
        ]);
        assert_eq!(v.field("name"), Some(&Value::string("BMW")));
        assert!(v.set_field("name", Value::string("Audi")));
        assert_eq!(v.field("name"), Some(&Value::string("Audi")));
        assert_eq!(v.field("nope"), None);
    }

    #[test]
    fn matches_type_descriptors() {
        let ty = TypeDescriptor::tuple(vec![
            ("id", TypeDescriptor::integer()),
            ("manufacturer", TypeDescriptor::reference("Company")),
            ("tags", TypeDescriptor::set_of(TypeDescriptor::string())),
        ]);
        let v = Value::tuple(vec![
            ("id", Value::Integer(9)),
            ("manufacturer", Value::Ref(oid(3))),
            ("tags", Value::Set(vec![Value::string("fast")])),
        ]);
        assert!(v.matches(&ty));
        let bad = Value::tuple(vec![
            ("id", Value::string("nine")),
            ("manufacturer", Value::Ref(oid(3))),
            ("tags", Value::Set(vec![])),
        ]);
        assert!(!bad.matches(&ty));
        // Null matches anything (nullable attributes).
        assert!(Value::Null.matches(&ty));
    }

    #[test]
    fn display_is_readable() {
        let v = Value::tuple(vec![
            ("id", Value::Integer(1)),
            ("ok", Value::Boolean(true)),
        ]);
        assert_eq!(v.to_string(), "<id: 1, ok: TRUE>");
        assert_eq!(Value::Set(vec![Value::Integer(1)]).to_string(), "{1}");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn refs_compare_by_oid() {
        assert!(Value::Ref(oid(1)).equals(&Value::Ref(oid(1))));
        assert!(!Value::Ref(oid(1)).equals(&Value::Ref(oid(2))));
    }
}
