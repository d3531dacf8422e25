//! Transactions: buffered writes, applied at commit.
//!
//! §2.4's redo-only discipline implies deferred updates (as in IMS
//! FASTPATH, which the paper cites): a transaction's writes are staged in
//! the transaction itself and touch the database only at commit, so an
//! abort needs no undo anywhere — not in memory, not in the log.

use mmdb_lock::TxnId;
use mmdb_storage::{OwnedValue, TupleId};

/// One buffered write.
#[derive(Debug, Clone)]
pub(crate) enum WriteOp {
    /// Insert a row into a table.
    Insert {
        /// Target table id.
        table: usize,
        /// Row values (already schema-checked).
        values: Vec<OwnedValue>,
    },
    /// Overwrite one attribute of a tuple.
    Update {
        /// Target table id.
        table: usize,
        /// Target tuple.
        tid: TupleId,
        /// Attribute position.
        attr: usize,
        /// New value.
        value: OwnedValue,
    },
    /// Delete a tuple.
    Delete {
        /// Target table id.
        table: usize,
        /// Target tuple.
        tid: TupleId,
    },
}

/// An open transaction: an id registered with the lock manager plus the
/// buffered write set.
#[derive(Debug)]
pub struct Transaction {
    pub(crate) id: TxnId,
    pub(crate) writes: Vec<WriteOp>,
}

impl Transaction {
    pub(crate) fn new(id: TxnId) -> Self {
        Transaction {
            id,
            writes: Vec::new(),
        }
    }

    /// The lock-manager transaction id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id.0
    }

    /// True when the transaction has no buffered writes (read-only so far).
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }
}
