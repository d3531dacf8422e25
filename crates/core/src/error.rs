//! Database-level errors.

use mmdb_exec::ExecError;
use mmdb_lock::LockError;
use mmdb_storage::StorageError;

/// Errors surfaced by the [`crate::Database`] facade.
#[derive(Debug)]
pub enum DbError {
    /// Storage-layer failure.
    Storage(StorageError),
    /// Query-operator failure.
    Exec(ExecError),
    /// Lock-manager failure (deadlock → the transaction was aborted).
    Lock(LockError),
    /// Disk-copy I/O failure.
    Io(std::io::Error),
    /// No table with that name.
    NoSuchTable(String),
    /// No index with that name.
    NoSuchIndex(String),
    /// A table/index with that name already exists.
    Duplicate(String),
    /// §2.1 rule: "all access to a relation is through an index", so a
    /// relation must have at least one index before DML touches it.
    MissingIndex(String),
    /// The catalog blob on the disk copy is malformed.
    Catalog(String),
    /// A partition image read back at restart failed validation (torn or
    /// truncated write). Restart refuses to redo from it — redoing a
    /// corrupt image would silently resurrect garbage.
    CorruptPartition {
        /// Table whose image is damaged.
        table: String,
        /// Partition number within the table.
        partition: u32,
        /// What the image decoder rejected.
        source: StorageError,
    },
    /// An unordered index was asked to serve a range predicate.
    RangeNeedsOrderedIndex,
    /// A fluent query referenced an unbound table or attribute.
    BadQuery(String),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Storage(e) => write!(f, "storage: {e}"),
            DbError::Exec(e) => write!(f, "exec: {e}"),
            DbError::Lock(e) => write!(f, "lock: {e}"),
            DbError::Io(e) => write!(f, "io: {e}"),
            DbError::NoSuchTable(n) => write!(f, "no such table: {n}"),
            DbError::NoSuchIndex(n) => write!(f, "no such index: {n}"),
            DbError::Duplicate(n) => write!(f, "name already in use: {n}"),
            DbError::MissingIndex(n) => write!(
                f,
                "table {n} has no index; every relation needs at least one (§2.1)"
            ),
            DbError::Catalog(m) => write!(f, "catalog: {m}"),
            DbError::CorruptPartition {
                table,
                partition,
                source,
            } => write!(
                f,
                "restart: partition image {table}.p{partition} is corrupt ({source}) — refusing to redo it"
            ),
            DbError::RangeNeedsOrderedIndex => {
                write!(f, "range predicates require an order-preserving index")
            }
            DbError::BadQuery(m) => write!(f, "bad query: {m}"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Storage(e) => Some(e),
            DbError::Exec(e) => Some(e),
            DbError::Lock(e) => Some(e),
            DbError::Io(e) => Some(e),
            DbError::CorruptPartition { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<StorageError> for DbError {
    fn from(e: StorageError) -> Self {
        DbError::Storage(e)
    }
}

impl From<ExecError> for DbError {
    fn from(e: ExecError) -> Self {
        DbError::Exec(e)
    }
}

impl From<LockError> for DbError {
    fn from(e: LockError) -> Self {
        DbError::Lock(e)
    }
}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        // A restart worker's panic crosses the recovery crate's
        // `io::Result` API as an `io::Error` wrapping its `ExecError`.
        match e.downcast::<ExecError>() {
            Ok(exec) => DbError::Exec(exec),
            Err(io) => DbError::Io(io),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(DbError::NoSuchTable("t".into()).to_string().contains('t'));
        assert!(DbError::MissingIndex("t".into())
            .to_string()
            .contains("§2.1"));
        assert!(DbError::from(StorageError::HeapExhausted)
            .to_string()
            .contains("storage"));
        assert!(DbError::RangeNeedsOrderedIndex
            .to_string()
            .contains("range"));
    }
}
