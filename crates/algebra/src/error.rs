//! Algebra error type.

use std::fmt;

/// Errors raised by algebra operators.
#[derive(Debug)]
pub enum AlgebraError {
    /// The operator is not applicable to the argument kind (per Tables 1–7).
    NotApplicable {
        operator: &'static str,
        detail: String,
    },
    /// Predicate/method evaluation failed.
    Exception(mood_funcman::Exception),
    /// Catalog or storage failure.
    Catalog(mood_catalog::CatalogError),
    /// A sort's spill file could not be written or read back.
    Spill(String),
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::NotApplicable { operator, detail } => {
                write!(f, "{operator} not applicable: {detail}")
            }
            AlgebraError::Exception(e) => write!(f, "exception during evaluation: {e}"),
            AlgebraError::Catalog(e) => write!(f, "{e}"),
            AlgebraError::Spill(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for AlgebraError {}

impl From<mood_catalog::CatalogError> for AlgebraError {
    fn from(e: mood_catalog::CatalogError) -> Self {
        AlgebraError::Catalog(e)
    }
}

impl From<mood_funcman::Exception> for AlgebraError {
    fn from(e: mood_funcman::Exception) -> Self {
        AlgebraError::Exception(e)
    }
}

pub type Result<T> = std::result::Result<T, AlgebraError>;
