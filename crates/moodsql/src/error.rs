//! MOODSQL error type.

use std::fmt;

/// Errors across the SQL pipeline: lexing, parsing, binding, execution.
#[derive(Debug)]
pub enum SqlError {
    /// Lexical error at a byte offset.
    Lex { position: usize, message: String },
    /// Parse error.
    Parse { position: usize, message: String },
    /// Name-resolution / typing error.
    Bind(String),
    /// Run-time execution error.
    Exec(String),
    /// Catalog/schema failure.
    Catalog(mood_catalog::CatalogError),
    /// Method invocation failure.
    Exception(mood_funcman::Exception),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex { position, message } => {
                write!(f, "lexical error at {position}: {message}")
            }
            SqlError::Parse { position, message } => {
                write!(f, "parse error at token {position}: {message}")
            }
            SqlError::Bind(m) => write!(f, "binding error: {m}"),
            SqlError::Exec(m) => write!(f, "execution error: {m}"),
            SqlError::Catalog(e) => write!(f, "{e}"),
            SqlError::Exception(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<mood_catalog::CatalogError> for SqlError {
    fn from(e: mood_catalog::CatalogError) -> Self {
        SqlError::Catalog(e)
    }
}

impl From<mood_algebra::AlgebraError> for SqlError {
    fn from(e: mood_algebra::AlgebraError) -> Self {
        use mood_algebra::AlgebraError;
        match e {
            AlgebraError::Catalog(e) => SqlError::Catalog(e),
            AlgebraError::Exception(e) => SqlError::Exception(e),
            other => SqlError::Exec(other.to_string()),
        }
    }
}

impl From<mood_funcman::Exception> for SqlError {
    fn from(e: mood_funcman::Exception) -> Self {
        SqlError::Exception(e)
    }
}

pub type Result<T> = std::result::Result<T, SqlError>;
