//! Execution-layer errors.

use mmdb_storage::StorageError;

/// Errors raised by query operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A storage access failed (dangling tuple id, bad attribute, …).
    Storage(StorageError),
    /// The operator was driven with inputs of the wrong shape (e.g. a
    /// precomputed join over a non-pointer attribute).
    BadPlan(String),
    /// A [`crate::run_tasks`] work unit panicked; `task` is the lowest
    /// panicked task index, the same at every dop.
    TaskPanicked {
        /// Index of the panicked task.
        task: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::BadPlan(m) => write!(f, "bad plan: {m}"),
            ExecError::TaskPanicked { task } => write!(f, "worker task {task} panicked"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Storage(e) => Some(e),
            ExecError::BadPlan(_) | ExecError::TaskPanicked { .. } => None,
        }
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = ExecError::from(StorageError::NoSuchPartition(3));
        assert!(e.to_string().contains("storage"));
        assert!(e.source().is_some());
        let b = ExecError::BadPlan("x".into());
        assert!(b.to_string().contains("bad plan"));
        assert!(b.source().is_none());
    }
}
