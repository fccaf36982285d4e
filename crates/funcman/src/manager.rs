//! The Function Manager.
//!
//! Section 2: "a Function Manager responsible for adding, updating, deleting
//! and invoking the member functions of the classes". In MOOD, method
//! bodies were C++ source, pre-processed and compiled into a per-class
//! *shared object* which `dld` loaded on first call; the catalog carried the
//! signatures for late binding. The reproduction keeps every architectural
//! property:
//!
//! * bodies are compiled when added (native Rust closures play the role
//!   of pre-compiled C++ object code; run-time-defined bodies are parsed by
//!   [`crate::expr::compile`] and lowered to a register program by
//!   [`crate::compile`](mod@crate::compile)) and only the compiled form ever runs — the server
//!   never restarts;
//! * each class has a shared-object unit; redefining a function takes an
//!   exclusive lock on it ("the shared library of the class will be
//!   unavailable only during the time it takes to write the new function");
//! * a function is *loaded* on first invocation and stays in memory until
//!   the scope ends ([`FunctionManager::end_scope`]);
//! * invocation resolves the signature through the catalog (class name +
//!   parameter list), honoring inheritance — true late binding;
//! * any crash inside a body surfaces as an [`Exception`], as if the
//!   function were interpreted.

use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use mood_catalog::{Catalog, MethodSig};
use mood_datamodel::{Resolver, Value};
use mood_storage::Oid;

use crate::compile::{compile_program, CompileOpts, Program, Registers};
use crate::exception::{catch, Exception, ExceptionKind};
use crate::expr::{compile, Arg, EvalCtx, Receiver};

/// A native method body — the stand-in for compiled C++ object code.
pub type NativeFn =
    Arc<dyn Fn(&Value, &[Value], &dyn Resolver) -> Result<Value, Exception> + Send + Sync>;

/// A compiled method body.
pub enum MethodBody {
    /// Pre-compiled (registered from Rust).
    Native(NativeFn),
    /// Compiled at definition time from source: the text as given
    /// (MoodView's method editor reads it back) and the program an
    /// invocation runs, its parameter names bound to argument slots.
    Source { source: String, program: Program },
}

/// The per-class shared object: compiled functions plus the set currently
/// loaded in memory. A body is shared, not copied, by the calls running it.
#[derive(Default)]
struct SharedObject {
    functions: HashMap<String, Arc<MethodBody>>,
    loaded: HashSet<String>,
}

/// Counters exposed for the Function Manager bench (X5).
#[derive(Debug, Default)]
pub struct FuncManStats {
    pub compilations: AtomicU64,
    pub loads: AtomicU64,
    pub invocations: AtomicU64,
}

/// The Function Manager.
pub struct FunctionManager {
    catalog: Arc<Catalog>,
    objects: RwLock<HashMap<String, Arc<RwLock<SharedObject>>>>,
    stats: FuncManStats,
}

impl FunctionManager {
    pub fn new(catalog: Arc<Catalog>) -> Self {
        FunctionManager {
            catalog,
            objects: RwLock::new(HashMap::new()),
            stats: FuncManStats::default(),
        }
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn stats(&self) -> &FuncManStats {
        &self.stats
    }

    fn shared_object(&self, class: &str) -> Arc<RwLock<SharedObject>> {
        if let Some(so) = self.objects.read().get(class) {
            return so.clone();
        }
        self.objects
            .write()
            .entry(class.to_string())
            .or_insert_with(|| Arc::new(RwLock::new(SharedObject::default())))
            .clone()
    }

    /// Register a pre-compiled (native) method. Also records the signature
    /// in the catalog so the SQL layer can bind it.
    pub fn register_native(
        &self,
        class: &str,
        sig: MethodSig,
        body: NativeFn,
    ) -> Result<(), Exception> {
        self.install(class, sig, MethodBody::Native(body))
    }

    /// Define (or redefine) a method from source at run time — the paper's
    /// headline capability. The body is parsed and lowered to its program
    /// here: compile errors surface now, not at call time.
    pub fn define_source(
        &self,
        class: &str,
        sig: MethodSig,
        source: &str,
    ) -> Result<(), Exception> {
        let params: Vec<String> = sig.params.iter().map(|(n, _)| n.clone()).collect();
        let program = compile_program(&compile(source)?, &CompileOpts::body(&params))?;
        self.stats.compilations.fetch_add(1, Ordering::Relaxed);
        self.install(
            class,
            sig,
            MethodBody::Source {
                source: source.to_string(),
                program,
            },
        )
    }

    fn install(&self, class: &str, sig: MethodSig, body: MethodBody) -> Result<(), Exception> {
        self.catalog
            .class(class)
            .map_err(|e| Exception::new(ExceptionKind::System, e.to_string()))?;
        let so = self.shared_object(class);
        // Exclusive lock: the class's shared object is unavailable only
        // while the new function is written.
        let mut guard = so.write();
        guard.loaded.remove(&sig.name); // a redefinition must reload
        guard.functions.insert(sig.name.clone(), Arc::new(body));
        drop(guard);
        self.catalog
            .add_method(class, sig)
            .map_err(|e| Exception::new(ExceptionKind::System, e.to_string()))?;
        Ok(())
    }

    /// Delete a method.
    pub fn delete_method(&self, class: &str, method: &str) -> Result<(), Exception> {
        let so = self.shared_object(class);
        let mut guard = so.write();
        if guard.functions.remove(method).is_none() {
            return Err(Exception::new(
                ExceptionKind::MissingFunction,
                format!("{class}::{method} not in shared object"),
            ));
        }
        guard.loaded.remove(method);
        drop(guard);
        self.catalog
            .drop_method(class, method)
            .map_err(|e| Exception::new(ExceptionKind::System, e.to_string()))?;
        Ok(())
    }

    /// The source text of a source-defined method (MoodView's method
    /// editor reads this back).
    pub fn method_source(&self, class: &str, method: &str) -> Option<String> {
        let so = self.shared_object(class);
        let guard = so.read();
        match &**guard.functions.get(method)? {
            MethodBody::Source { source, .. } => Some(source.clone()),
            MethodBody::Native(_) => None,
        }
    }

    /// `method`'s body out of a class's shared object, loading it on first
    /// use since the scope began (the dld load). Calls of a loaded method
    /// share the read lock — they are blocked only while a redefinition
    /// holds the object — and only the first takes the write lock.
    fn load(&self, so: &RwLock<SharedObject>, method: &str) -> Option<Arc<MethodBody>> {
        {
            let guard = so.read();
            if guard.loaded.contains(method) {
                return guard.functions.get(method).cloned();
            }
        }
        let mut guard = so.write();
        let body = guard.functions.get(method).cloned()?;
        if guard.loaded.insert(method.to_string()) {
            self.stats.loads.fetch_add(1, Ordering::Relaxed);
        }
        Some(body)
    }

    /// Invoke `method` on the object `oid` with `args`.
    ///
    /// Resolution order (late binding): the receiver's *dynamic* class is
    /// read from the store, the catalog resolves the signature up the
    /// hierarchy, the defining class's shared object supplies the body
    /// (loading it on first use).
    pub fn invoke(&self, oid: Oid, method: &str, args: &[Value]) -> Result<Value, Exception> {
        let (class, receiver) = self
            .catalog
            .get_object(oid)
            .map_err(|e| Exception::new(ExceptionKind::System, e.to_string()))?;
        self.invoke_on(&class, &receiver, method, args)
    }

    /// Invoke on an explicit receiver value of a known class (used for
    /// values not stored in any extent and for nested method calls).
    pub fn invoke_on(
        &self,
        class: &str,
        receiver: &Value,
        method: &str,
        args: &[Value],
    ) -> Result<Value, Exception> {
        self.stats.invocations.fetch_add(1, Ordering::Relaxed);
        let (defining, sig) = self
            .catalog
            .resolve_method(class, method)
            .map_err(|e| Exception::new(ExceptionKind::MissingFunction, e.to_string()))?;
        if args.len() != sig.params.len() {
            return Err(Exception::new(
                ExceptionKind::BadArguments,
                format!(
                    "{} expects {} argument(s), got {}",
                    sig.signature_for(&defining),
                    sig.params.len(),
                    args.len()
                ),
            ));
        }
        for ((pname, pty), arg) in sig.params.iter().zip(args) {
            if !arg.matches(pty) {
                return Err(Exception::new(
                    ExceptionKind::BadArguments,
                    format!("parameter {pname} expects {pty}, got {arg}"),
                ));
            }
        }
        let Some(body) = self.load(&self.shared_object(&defining), method) else {
            return Err(Exception::new(
                ExceptionKind::MissingFunction,
                format!(
                    "signature {} found in catalog but {defining}'s shared object has no body",
                    sig.signature_for(&defining)
                ),
            ));
        };
        match &*body {
            MethodBody::Native(f) => {
                let cat: &Catalog = &self.catalog;
                catch(AssertUnwindSafe(|| f(receiver, args, cat)))
            }
            MethodBody::Source { program, .. } => {
                // A body calls its siblings on its own receiver.
                let dispatcher =
                    |_: Receiver<'_>, m: &str, a: &[Value]| self.invoke_on(class, receiver, m, a);
                let slots: Vec<Arg<'_>> = args.iter().map(Arg::Value).collect();
                let ctx = EvalCtx {
                    self_value: receiver,
                    args: &slots,
                    resolver: Some(self.catalog.as_ref() as &dyn Resolver),
                    dispatcher: Some(&dispatcher),
                };
                let run = || program.run(&mut Registers::default(), &ctx);
                let result = catch(AssertUnwindSafe(run))?;
                if !result.matches(&sig.return_type) {
                    return Err(Exception::type_error(format!(
                        "{} returned {result}, expected {}",
                        sig.signature_for(&defining),
                        sig.return_type
                    )));
                }
                Ok(result)
            }
        }
    }

    /// End the current scope: unload every loaded function ("Function is
    /// kept in memory until the scope changes in the program").
    pub fn end_scope(&self) {
        for so in self.objects.read().values() {
            so.write().loaded.clear();
        }
    }

    /// Number of functions currently loaded (diagnostics).
    pub fn loaded_count(&self) -> usize {
        self.objects
            .read()
            .values()
            .map(|so| so.read().loaded.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_catalog::ClassBuilder;
    use mood_datamodel::TypeDescriptor;
    use mood_storage::StorageManager;

    fn setup() -> (Arc<Catalog>, FunctionManager) {
        let sm = Arc::new(StorageManager::in_memory());
        let cat = Arc::new(Catalog::create(sm).unwrap());
        cat.define_class(
            ClassBuilder::class("Vehicle")
                .attribute("id", TypeDescriptor::integer())
                .attribute("weight", TypeDescriptor::integer()),
        )
        .unwrap();
        cat.define_class(ClassBuilder::class("Automobile").inherits("Vehicle"))
            .unwrap();
        let fm = FunctionManager::new(cat.clone());
        (cat, fm)
    }

    fn lbweight_sig() -> MethodSig {
        MethodSig::new("lbweight", TypeDescriptor::float(), vec![])
    }

    #[test]
    fn source_defined_method_roundtrip() {
        let (cat, fm) = setup();
        fm.define_source("Vehicle", lbweight_sig(), "{ return weight * 2.2075; }")
            .unwrap();
        let oid = cat
            .new_object(
                "Vehicle",
                Value::tuple(vec![
                    ("id", Value::Integer(1)),
                    ("weight", Value::Integer(1000)),
                ]),
            )
            .unwrap();
        assert_eq!(
            fm.invoke(oid, "lbweight", &[]).unwrap(),
            Value::Float(2207.5)
        );
        // Signature landed in the catalog.
        assert!(cat.class("Vehicle").unwrap().method("lbweight").is_some());
        assert_eq!(
            fm.method_source("Vehicle", "lbweight").unwrap(),
            "{ return weight * 2.2075; }"
        );
    }

    #[test]
    fn native_method_roundtrip() {
        let (cat, fm) = setup();
        fm.register_native(
            "Vehicle",
            MethodSig::new("double_weight", TypeDescriptor::integer(), vec![]),
            Arc::new(|recv, _args, _res| {
                let w = recv.field("weight").and_then(|v| v.as_f64()).unwrap_or(0.0);
                Ok(Value::Integer((w * 2.0) as i32))
            }),
        )
        .unwrap();
        let oid = cat
            .new_object(
                "Vehicle",
                Value::tuple(vec![
                    ("id", Value::Integer(1)),
                    ("weight", Value::Integer(700)),
                ]),
            )
            .unwrap();
        assert_eq!(
            fm.invoke(oid, "double_weight", &[]).unwrap(),
            Value::Integer(1400)
        );
        assert!(
            fm.method_source("Vehicle", "double_weight").is_none(),
            "native has no source"
        );
    }

    #[test]
    fn late_binding_resolves_through_inheritance() {
        let (cat, fm) = setup();
        fm.define_source("Vehicle", lbweight_sig(), "weight * 2.2075")
            .unwrap();
        let car = cat
            .new_object(
                "Automobile",
                Value::tuple(vec![
                    ("id", Value::Integer(2)),
                    ("weight", Value::Integer(100)),
                ]),
            )
            .unwrap();
        // Automobile has no own body: Vehicle's is found late-bound.
        assert_eq!(
            fm.invoke(car, "lbweight", &[]).unwrap(),
            Value::Float(220.75)
        );
        // An Automobile override shadows it without a server restart.
        fm.define_source("Automobile", lbweight_sig(), "weight * 3.0")
            .unwrap();
        assert_eq!(
            fm.invoke(car, "lbweight", &[]).unwrap(),
            Value::Float(300.0)
        );
    }

    #[test]
    fn parameters_are_typechecked() {
        let (cat, fm) = setup();
        fm.define_source(
            "Vehicle",
            MethodSig::new(
                "scaled",
                TypeDescriptor::integer(),
                vec![("factor", TypeDescriptor::integer())],
            ),
            "weight * factor",
        )
        .unwrap();
        let oid = cat
            .new_object(
                "Vehicle",
                Value::tuple(vec![("weight", Value::Integer(10))]),
            )
            .unwrap();
        assert_eq!(
            fm.invoke(oid, "scaled", &[Value::Integer(3)]).unwrap(),
            Value::Integer(30)
        );
        let e = fm.invoke(oid, "scaled", &[]).unwrap_err();
        assert_eq!(e.kind, ExceptionKind::BadArguments);
        let e = fm.invoke(oid, "scaled", &[Value::string("x")]).unwrap_err();
        assert_eq!(e.kind, ExceptionKind::BadArguments);
    }

    #[test]
    fn return_type_checked_for_source_defined_bodies() {
        let (cat, fm) = setup();
        fm.define_source(
            "Vehicle",
            MethodSig::new("bad", TypeDescriptor::boolean(), vec![]),
            "weight + 1", // returns Integer, not Boolean
        )
        .unwrap();
        let oid = cat
            .new_object("Vehicle", Value::tuple(vec![("weight", Value::Integer(1))]))
            .unwrap();
        let e = fm.invoke(oid, "bad", &[]).unwrap_err();
        assert_eq!(e.kind, ExceptionKind::TypeError);
    }

    #[test]
    fn compile_error_at_definition_time_not_call_time() {
        let (cat, fm) = setup();
        let e = fm
            .define_source("Vehicle", lbweight_sig(), "weight *")
            .unwrap_err();
        assert_eq!(e.kind, ExceptionKind::CompileError);
        // The program is built at definition too: a body past the
        // compiler's register limit is refused here, and never installed.
        let huge = format!("m({})", vec!["weight"; 70_000].join(", "));
        let e = fm
            .define_source("Vehicle", lbweight_sig(), &huge)
            .unwrap_err();
        assert_eq!(e.kind, ExceptionKind::CompileError);
        assert!(cat.class("Vehicle").unwrap().method("lbweight").is_none());
    }

    #[test]
    fn parallel_invocations_of_a_loaded_method_record_one_load() {
        let (cat, fm) = setup();
        fm.register_native(
            "Vehicle",
            MethodSig::new("weight_of", TypeDescriptor::integer(), vec![]),
            Arc::new(|recv, _args, _res| Ok(recv.field("weight").cloned().unwrap_or(Value::Null))),
        )
        .unwrap();
        let oid = cat
            .new_object("Vehicle", Value::tuple(vec![("weight", Value::Integer(7))]))
            .unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        assert_eq!(fm.invoke(oid, "weight_of", &[]).unwrap(), Value::Integer(7));
                    }
                });
            }
        });
        assert_eq!(fm.stats().loads.load(Ordering::Relaxed), 1);
        assert_eq!(fm.stats().invocations.load(Ordering::Relaxed), 40_000);
    }

    #[test]
    fn native_panic_becomes_signal_exception() {
        let (cat, fm) = setup();
        fm.register_native(
            "Vehicle",
            MethodSig::new("crash", TypeDescriptor::integer(), vec![]),
            Arc::new(|_, _, _| panic!("simulated SIGSEGV")),
        )
        .unwrap();
        let oid = cat.new_object("Vehicle", Value::tuple(vec![])).unwrap();
        let e = fm.invoke(oid, "crash", &[]).unwrap_err();
        assert_eq!(e.kind, ExceptionKind::Signal);
        // The server survives: we can keep invoking other methods.
        fm.define_source("Vehicle", lbweight_sig(), "0.0").unwrap();
        assert!(fm.invoke(oid, "lbweight", &[]).is_ok());
    }

    #[test]
    fn load_once_until_scope_end() {
        let (cat, fm) = setup();
        fm.define_source("Vehicle", lbweight_sig(), "weight * 1.0")
            .unwrap();
        let oid = cat
            .new_object("Vehicle", Value::tuple(vec![("weight", Value::Integer(1))]))
            .unwrap();
        assert_eq!(fm.stats().loads.load(Ordering::Relaxed), 0);
        fm.invoke(oid, "lbweight", &[]).unwrap();
        fm.invoke(oid, "lbweight", &[]).unwrap();
        fm.invoke(oid, "lbweight", &[]).unwrap();
        assert_eq!(fm.stats().loads.load(Ordering::Relaxed), 1, "loaded once");
        assert_eq!(fm.loaded_count(), 1);
        fm.end_scope();
        assert_eq!(fm.loaded_count(), 0);
        fm.invoke(oid, "lbweight", &[]).unwrap();
        assert_eq!(
            fm.stats().loads.load(Ordering::Relaxed),
            2,
            "reloaded after scope end"
        );
    }

    #[test]
    fn redefinition_reloads_and_serves_new_body() {
        let (cat, fm) = setup();
        fm.define_source("Vehicle", lbweight_sig(), "weight * 1.0")
            .unwrap();
        let oid = cat
            .new_object(
                "Vehicle",
                Value::tuple(vec![("weight", Value::Integer(10))]),
            )
            .unwrap();
        assert_eq!(fm.invoke(oid, "lbweight", &[]).unwrap(), Value::Float(10.0));
        fm.define_source("Vehicle", lbweight_sig(), "weight * 2.0")
            .unwrap();
        assert_eq!(fm.invoke(oid, "lbweight", &[]).unwrap(), Value::Float(20.0));
    }

    #[test]
    fn nested_method_calls_dispatch() {
        let (cat, fm) = setup();
        fm.define_source("Vehicle", lbweight_sig(), "weight * 2.2075")
            .unwrap();
        fm.define_source(
            "Vehicle",
            MethodSig::new("lbweight_plus", TypeDescriptor::float(), vec![]),
            "lbweight() + 1.0",
        )
        .unwrap();
        let oid = cat
            .new_object(
                "Vehicle",
                Value::tuple(vec![("weight", Value::Integer(1000))]),
            )
            .unwrap();
        assert_eq!(
            fm.invoke(oid, "lbweight_plus", &[]).unwrap(),
            Value::Float(2208.5)
        );
    }

    #[test]
    fn delete_method_removes_body_and_signature() {
        let (cat, fm) = setup();
        fm.define_source("Vehicle", lbweight_sig(), "0.0").unwrap();
        fm.delete_method("Vehicle", "lbweight").unwrap();
        assert!(cat.class("Vehicle").unwrap().method("lbweight").is_none());
        let oid = cat.new_object("Vehicle", Value::tuple(vec![])).unwrap();
        let e = fm.invoke(oid, "lbweight", &[]).unwrap_err();
        assert_eq!(e.kind, ExceptionKind::MissingFunction);
        // Deleting twice errors.
        assert!(fm.delete_method("Vehicle", "lbweight").is_err());
    }

    #[test]
    fn unknown_class_rejected_at_install() {
        let (_, fm) = setup();
        let e = fm.define_source("Nope", lbweight_sig(), "1").unwrap_err();
        assert_eq!(e.kind, ExceptionKind::System);
    }
}
