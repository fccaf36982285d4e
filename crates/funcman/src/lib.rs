//! # mood-funcman — the MOOD Function Manager
//!
//! Reproduces Section 2's division of labor between "an object-oriented SQL
//! interpreter and a C++ compiler": method bodies are compiled once when
//! added (never interpreted per call), loaded lazily per scope, locked
//! during redefinition, and their failures — including crashes — surface
//! through the kernel's `Exception` class. The same compiler serves the
//! SQL layer: every expression a statement evaluates per object is one of
//! this crate's register programs, so the engine has one evaluator.
//!
//! * [`operand`] — `OperandDataType`: run-time typed arithmetic/Boolean
//!   evaluation with type checking and coercion;
//! * [`exception`] — the `Exception` class and panic capture;
//! * [`expr`] — the method-body expression language (its parser, and the
//!   expression tree MOODSQL lowers to as well);
//! * [`compile`](mod@compile) — the tree lowered to a register program, and the
//!   program's execution: the only thing that evaluates an expression;
//! * [`manager`] — signatures, shared objects, dynamic linking, invocation
//!   with late binding.

pub mod compile;
pub mod exception;
pub mod expr;
pub mod manager;
pub mod operand;

pub use compile::{compile_program, CompileOpts, CompiledPredicate, Mode, Program, Registers};
pub use exception::{catch, Exception, ExceptionKind};
pub use expr::{compile, Arg, EvalCtx, Expr, Receiver};
pub use manager::{FunctionManager, MethodBody, NativeFn};
pub use operand::{NumKind, OperandDataType};
