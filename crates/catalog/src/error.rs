//! Catalog error type.

use std::fmt;

/// Errors raised by catalog and extent operations.
#[derive(Debug)]
pub enum CatalogError {
    /// The named class/type does not exist.
    UnknownClass(String),
    /// A class/type with this name already exists.
    DuplicateClass(String),
    /// The named attribute does not exist on the class.
    UnknownAttribute { class: String, attribute: String },
    /// An attribute with this name already exists (own or inherited).
    DuplicateAttribute { class: String, attribute: String },
    /// Two superclasses contribute conflicting definitions.
    InheritanceConflict { class: String, attribute: String },
    /// The inheritance graph would contain a cycle.
    InheritanceCycle(String),
    /// A value does not conform to the class's type.
    TypeMismatch { class: String, detail: String },
    /// The class is a value type (no extent) but an extent operation was
    /// attempted.
    NoExtent(String),
    /// Method signature not found.
    UnknownMethod { class: String, signature: String },
    /// A non-atomic attribute was used where an atomic one is required
    /// (e.g. as an index key).
    NotAtomic { class: String, attribute: String },
    /// An index on this (class, attribute) already exists.
    DuplicateIndex { class: String, attribute: String },
    /// No index on this (class, attribute).
    UnknownIndex { class: String, attribute: String },
    /// The database was written in an on-disk format this build does not
    /// read (`found`; this build reads `supported`).
    UnsupportedFormat { found: u32, supported: u32 },
    /// A class has as many schema versions as a record can name.
    TooManyVersions(String),
    /// Underlying storage failure.
    Storage(mood_storage::StorageError),
    /// Stored catalog bytes were unreadable.
    Corrupt(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::UnknownClass(c) => write!(f, "unknown class {c}"),
            CatalogError::DuplicateClass(c) => write!(f, "class {c} already exists"),
            CatalogError::UnknownAttribute { class, attribute } => {
                write!(f, "class {class} has no attribute {attribute}")
            }
            CatalogError::DuplicateAttribute { class, attribute } => {
                write!(f, "class {class} already has attribute {attribute}")
            }
            CatalogError::InheritanceConflict { class, attribute } => {
                write!(
                    f,
                    "class {class} inherits conflicting definitions of {attribute}"
                )
            }
            CatalogError::InheritanceCycle(c) => {
                write!(f, "inheritance cycle through {c}")
            }
            CatalogError::TypeMismatch { class, detail } => {
                write!(f, "value does not conform to class {class}: {detail}")
            }
            CatalogError::NoExtent(c) => write!(f, "type {c} has no extent"),
            CatalogError::UnknownMethod { class, signature } => {
                write!(f, "class {class} has no method {signature}")
            }
            CatalogError::NotAtomic { class, attribute } => {
                write!(f, "attribute {class}.{attribute} is not atomic")
            }
            CatalogError::DuplicateIndex { class, attribute } => {
                write!(f, "index on {class}.{attribute} already exists")
            }
            CatalogError::UnknownIndex { class, attribute } => {
                write!(f, "no index on {class}.{attribute}")
            }
            CatalogError::UnsupportedFormat { found, supported } => write!(
                f,
                "database format {found} is not supported (this build reads format {supported})"
            ),
            CatalogError::TooManyVersions(c) => {
                write!(f, "class {c} has run out of schema versions")
            }
            CatalogError::Storage(e) => write!(f, "storage error: {e}"),
            CatalogError::Corrupt(msg) => write!(f, "catalog corruption: {msg}"),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatalogError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mood_storage::StorageError> for CatalogError {
    fn from(e: mood_storage::StorageError) -> Self {
        CatalogError::Storage(e)
    }
}

impl From<mood_datamodel::CodecError> for CatalogError {
    fn from(e: mood_datamodel::CodecError) -> Self {
        CatalogError::Corrupt(e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, CatalogError>;
