//! Schema evolution against named tuples. A stored object names none of
//! its attributes: it is a positional record of its class's schema version
//! at the time it was written, and the catalog knows each attribute by an
//! id that a rename keeps and a drop retires. Here that is checked against
//! the model it replaces — every object a tuple of named fields, evolved in
//! place:
//!
//! * one witness per schema-evolution defect of the named format (a
//!   dropped and re-added attribute brought its old values back; a rename
//!   hid every stored value), and a class that keeps hundreds of versions;
//! * a property: random adds, drops and renames, interleaved with inserts,
//!   updates, `CLUSTER` and a reopen, applied both to the catalog and to
//!   named tuples; after every step each object — read by a scan, through
//!   an index, by `get_object` and decoded to a field set — equals its
//!   tuple.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use mood_catalog::{Catalog, ClassBuilder};
use mood_datamodel::{FieldSet, TypeDescriptor, Value};
use mood_storage::{AccessHint, Oid, StorageManager};

fn int(i: i32) -> Value {
    Value::Integer(i)
}

/// A catalog with `Part (id Integer, k Integer)` holding `id = 0..n`,
/// `k = 10·id`.
fn parts(n: i32) -> (Catalog, Vec<Oid>) {
    let cat = Catalog::create(Arc::new(StorageManager::in_memory())).unwrap();
    let class = ClassBuilder::class("Part")
        .attribute("id", TypeDescriptor::integer())
        .attribute("k", TypeDescriptor::integer());
    cat.define_class(class).unwrap();
    let oids = (0..n)
        .map(|i| cat.new_object("Part", Value::tuple(vec![("id", int(i)), ("k", int(10 * i))])))
        .collect::<Result<_, _>>()
        .unwrap();
    (cat, oids)
}

/// A dropped attribute added back under the same name is a new attribute:
/// every object stored before reads it as NULL, not as the dropped values.
#[test]
fn a_dropped_and_re_added_attribute_reads_null() {
    let (cat, oids) = parts(5);
    cat.drop_attribute("Part", "k").unwrap();
    cat.add_attribute("Part", "k", TypeDescriptor::integer()).unwrap();
    for (i, oid) in oids.iter().enumerate() {
        let (_, value) = cat.get_object(*oid).unwrap();
        assert_eq!(value, Value::tuple(vec![("id", int(i as i32)), ("k", Value::Null)]));
    }
    assert!(cat.extent("Part").unwrap().iter().all(|(_, v)| v.field("k") == Some(&Value::Null)));
}

/// A rename changes the name, not the attribute: every stored value reads
/// under the new name, by scan and by `get_object`, and an index built on
/// it finds them.
#[test]
fn a_renamed_attribute_keeps_its_values() {
    let (cat, oids) = parts(5);
    cat.rename_attribute("Part", "k", "j").unwrap();
    for (i, oid) in oids.iter().enumerate() {
        let (_, value) = cat.get_object(*oid).unwrap();
        assert_eq!(value, Value::tuple(vec![("id", int(i as i32)), ("j", int(10 * i as i32))]));
    }
    cat.create_index("Part", "j", true).unwrap();
    assert_eq!(cat.index_lookup("Part", "j", &int(30)).unwrap(), vec![oids[3]]);
}

/// Each schema version's slot list is a catalog row of its own, so a wide
/// class can evolve far past what one record could list, and reads its
/// objects after a reopen.
#[test]
fn a_wide_class_keeps_hundreds_of_versions_across_a_reopen() {
    let sm = Arc::new(StorageManager::in_memory());
    let cat = Catalog::create(sm.clone()).unwrap();
    let mut wide = ClassBuilder::class("Wide");
    for i in 0..30 {
        wide = wide.attribute(format!("a{i:02}"), TypeDescriptor::integer());
    }
    cat.define_class(wide).unwrap();
    let fields: Vec<(String, Value)> = (0..30).map(|i| (format!("a{i:02}"), int(i))).collect();
    let oid = cat.new_object("Wide", Value::Tuple(fields)).unwrap();
    for step in 0..200 {
        let (from, to) = if step % 2 == 0 { ("a00", "z") } else { ("z", "a00") };
        cat.rename_attribute("Wide", from, to).unwrap();
    }
    let cat = Catalog::open(sm, cat.root()).unwrap();
    assert_eq!(cat.class("Wide").unwrap().versions.len(), 201);
    let (_, value) = cat.get_object(oid).unwrap();
    assert_eq!(value.field("a00"), Some(&int(0)));
    assert_eq!(value.field("a29"), Some(&int(29)));
}

/// Names an evolved attribute may take.
const NAMES: [&str; 6] = ["a", "b", "c", "d", "key", "k2"];

/// The two classes that evolve together: `Obj` and its subclass `Sub`.
const CLASSES: [&str; 2] = ["Obj", "Sub"];

/// A named tuple's fields.
type Fields = Vec<(String, Value)>;

/// The catalog and the named tuples it must agree with.
struct World {
    sm: Arc<StorageManager>,
    cat: Catalog,
    /// `Obj`'s (and so `Sub`'s) attribute names, in declaration order.
    attrs: Vec<String>,
    /// The current name of the unique key attribute (indexed on both
    /// classes, never updated).
    key: String,
    /// Every live object by key: its class, OID and named tuple.
    objects: BTreeMap<i32, (&'static str, Oid, Fields)>,
    targets: Vec<Oid>,
}

impl World {
    fn new() -> World {
        let sm = Arc::new(StorageManager::in_memory());
        let cat = Catalog::create(sm.clone()).unwrap();
        cat.define_class(ClassBuilder::class("Target").attribute("t", TypeDescriptor::integer()))
            .unwrap();
        let obj = ClassBuilder::class("Obj")
            .attribute("key", TypeDescriptor::integer())
            .attribute("r", TypeDescriptor::reference("Target"))
            .attribute("a", TypeDescriptor::integer());
        cat.define_class(obj).unwrap();
        cat.define_class(ClassBuilder::class("Sub").inherits("Obj")).unwrap();
        let targets = (0..4)
            .map(|t| cat.new_object("Target", Value::tuple(vec![("t", int(t))])).unwrap())
            .collect();
        for class in CLASSES {
            cat.create_index(class, "key", true).unwrap();
        }
        let attrs = ["key", "r", "a"].map(String::from).to_vec();
        World { sm, cat, attrs, key: "key".into(), objects: BTreeMap::new(), targets }
    }

    fn has(&self, name: &str) -> bool {
        self.attrs.iter().any(|a| a == name)
    }

    /// One step, decoded from `(op, x, y, v)`; a step the schema does not
    /// allow (adding a name in use, dropping the key) is skipped.
    fn step(&mut self, (op, x, y, v): (u8, u8, u8, i32)) {
        let pick = |n: usize| x as usize % n.max(1);
        match op % 8 {
            // Add: a new id, NULL in every stored object.
            0 => {
                let name = NAMES[pick(4)];
                if !self.has(name) {
                    self.cat.add_attribute("Obj", name, TypeDescriptor::integer()).unwrap();
                    self.attrs.push(name.to_string());
                    for (_, _, fields) in self.objects.values_mut() {
                        fields.push((name.to_string(), Value::Null));
                    }
                }
            }
            // Drop an evolved attribute: its values are gone for good.
            1 => {
                let name = NAMES[pick(4)];
                if self.has(name) && name != self.key {
                    self.cat.drop_attribute("Obj", name).unwrap();
                    self.attrs.retain(|a| a != name);
                    for (_, _, fields) in self.objects.values_mut() {
                        fields.retain(|(n, _)| n != name);
                    }
                }
            }
            // Rename any attribute but the reference CLUSTER orders by —
            // the key and its indexes included.
            2 => {
                let from = self.attrs[pick(self.attrs.len())].clone();
                let to = NAMES[y as usize % 6];
                if from != "r" && !self.has(to) {
                    self.cat.rename_attribute("Obj", &from, to).unwrap();
                    for name in self.attrs.iter_mut().filter(|a| **a == from) {
                        *name = to.to_string();
                    }
                    for (_, _, fields) in self.objects.values_mut() {
                        for (name, _) in fields.iter_mut().filter(|(n, _)| *n == from) {
                            *name = to.to_string();
                        }
                    }
                    if self.key == from {
                        self.key = to.to_string();
                    }
                }
            }
            // Insert, every attribute given (NULL for a zero draw).
            3 | 4 => {
                let class = CLASSES[pick(2)];
                let key = self.objects.keys().last().map_or(0, |k| k + 1);
                let value = |name: &str, i: usize| match name {
                    n if n == self.key => int(key),
                    "r" => Value::Ref(self.targets[(y as usize + i) % self.targets.len()]),
                    _ if (v + i as i32) % 3 == 0 => Value::Null,
                    _ => int(v * 7 + i as i32),
                };
                let fields: Vec<(String, Value)> =
                    self.attrs.iter().enumerate().map(|(i, n)| (n.clone(), value(n, i))).collect();
                let oid = self.cat.new_object(class, Value::Tuple(fields.clone())).unwrap();
                self.objects.insert(key, (class, oid, fields));
            }
            // Update one attribute other than the key of one object.
            5 => {
                let Some(key) = self.objects.keys().nth(pick(self.objects.len())).copied() else {
                    return;
                };
                let (_, oid, fields) = self.objects.get_mut(&key).unwrap();
                let at = y as usize % fields.len();
                let (name, value) = &mut fields[at];
                if *name == self.key {
                    return;
                }
                *value = match name.as_str() {
                    "r" => Value::Ref(self.targets[v.unsigned_abs() as usize % self.targets.len()]),
                    _ if v == 0 => Value::Null,
                    _ => int(v),
                };
                self.cat.update_object(*oid, Value::Tuple(fields.clone())).unwrap();
            }
            // CLUSTER moves every object of the class: follow it by key.
            6 => {
                let class = CLASSES[pick(2)];
                self.cat.cluster_class(class, Some("r")).unwrap();
                self.cat.reap_pending_drops();
                for (oid, value) in self.cat.extent(class).unwrap() {
                    let Some(Value::Integer(key)) = value.field(&self.key) else {
                        panic!("{value} has no key {}", self.key);
                    };
                    self.objects.get_mut(key).unwrap().1 = oid;
                }
            }
            // Reopen the catalog from its pages.
            _ => self.cat = Catalog::open(self.sm.clone(), self.cat.root()).unwrap(),
        }
    }

    /// Every object, read every way, is its named tuple.
    fn check(&self, after: &str) {
        let names: Vec<&String> = self.attrs.iter().collect();
        let effective: Vec<String> =
            self.cat.effective_attributes("Sub").unwrap().into_iter().map(|a| a.name).collect();
        assert_eq!(effective.iter().collect::<Vec<_>>(), names, "after {after}");
        // A field set of the key and the last attribute, in either order.
        let last = self.attrs.last().unwrap().clone();
        let pruned = FieldSet::Only(vec![self.key.clone(), last.clone()]);
        for class in CLASSES {
            let expected: Vec<_> = self.objects.values().filter(|(c, _, _)| *c == class).collect();
            let scanned = self.cat.extent(class).unwrap();
            assert_eq!(scanned.len(), expected.len(), "{class} after {after}");
            let mut by_oid: BTreeMap<Oid, Value> = scanned.into_iter().collect();
            let mut reader = self.cat.reader(&pruned);
            let classes = [class.to_string()];
            self.cat
                .extent_records_with(&classes, AccessHint::Sequential, &mut |oid, bytes| {
                    let (_, value) = reader.decode(oid, bytes).unwrap();
                    let (_, _, fields) = expected.iter().find(|(_, o, _)| *o == oid).unwrap();
                    let kept = fields.iter().filter(|(n, _)| *n == self.key || *n == last);
                    let want = Value::Tuple(kept.cloned().collect());
                    assert_eq!(value, want, "{class} after {after}");
                    true
                })
                .unwrap();
            for (_, oid, fields) in expected {
                let want = Value::Tuple(fields.clone());
                assert_eq!(by_oid.remove(oid).as_ref(), Some(&want), "{class} scan after {after}");
                assert_eq!(self.cat.get_object(*oid).unwrap().1, want, "{class} get after {after}");
                let key = want.field(&self.key).unwrap();
                let hits = self.cat.index_lookup(class, &self.key, key).unwrap();
                assert_eq!(hits, vec![*oid], "{class}({}) after {after}", self.key);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random evolutions of `Obj` (and so of `Sub`) agree with the named
    /// tuples after every step.
    #[test]
    fn evolved_objects_equal_their_named_tuples(
        steps in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), -4i32..9),
            1..40,
        ),
    ) {
        let mut world = World::new();
        for (i, step) in steps.into_iter().enumerate() {
            world.step(step);
            world.check(&format!("step {i} {step:?}"));
        }
    }
}
