//! The kernel's `Exception` class.
//!
//! "All system errors, including signals that terminate processes are
//! handled by our Exception class. Thus although the functions are
//! compiled, their error messages are handled as if they are interpreted."
//! (Section 2.) The Rust analogue of a compiled method's crash is a panic;
//! [`catch`] converts panics into `Exception` values so a misbehaving method
//! body never takes the server down.

use std::fmt;

/// An exception raised during method execution or expression evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Exception {
    /// Machine-readable kind.
    pub kind: ExceptionKind,
    /// Human-readable message.
    pub message: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExceptionKind {
    /// Type error detected at run time (the interpreter's checks).
    TypeError,
    /// Division or modulo by zero.
    DivisionByZero,
    /// Arithmetic overflow in checked integer operations.
    Overflow,
    /// Unknown identifier (attribute or parameter) in a method body.
    UnknownIdentifier,
    /// Method-body compile (parse) error.
    CompileError,
    /// The method is not present in the class's shared object.
    MissingFunction,
    /// Wrong number or type of arguments at the call site.
    BadArguments,
    /// A compiled (native) function crashed — a "signal" in the paper's
    /// terms — and was converted to an exception.
    Signal,
    /// Errors bubbled up from the catalog/storage layers.
    System,
    /// Raised by Sql-mode compiled programs: the message is MOODSQL's own
    /// error text, which the SQL layer re-wraps as an execution error.
    Query,
}

impl Exception {
    pub fn new(kind: ExceptionKind, message: impl Into<String>) -> Self {
        Exception {
            kind,
            message: message.into(),
        }
    }

    pub fn type_error(message: impl Into<String>) -> Self {
        Self::new(ExceptionKind::TypeError, message)
    }

    pub fn division_by_zero() -> Self {
        Self::new(ExceptionKind::DivisionByZero, "division by zero")
    }
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)
    }
}

impl std::error::Error for Exception {}

/// Run `f`, converting any panic into [`ExceptionKind::Signal`]. This is
/// the "signals that terminate processes" handler: a native method that
/// would crash the server instead reports an exception.
pub fn catch<T>(
    f: impl FnOnce() -> Result<T, Exception> + std::panic::UnwindSafe,
) -> Result<T, Exception> {
    match std::panic::catch_unwind(f) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            Err(Exception::new(ExceptionKind::Signal, msg))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_passes_through_ok() {
        assert_eq!(catch(|| Ok(42)), Ok(42));
    }

    #[test]
    fn catch_passes_through_exceptions() {
        let e = Exception::division_by_zero();
        assert_eq!(catch::<i32>(|| Err(e.clone())), Err(e));
    }

    #[test]
    fn catch_converts_panics_to_signal() {
        let r: Result<(), _> = catch(|| panic!("segfault in user method"));
        let err = r.unwrap_err();
        assert_eq!(err.kind, ExceptionKind::Signal);
        assert!(err.message.contains("segfault"));
    }

    #[test]
    fn display_includes_kind_and_message() {
        let e = Exception::type_error("cannot add String and Boolean");
        let s = e.to_string();
        assert!(s.contains("TypeError"));
        assert!(s.contains("cannot add"));
    }
}
