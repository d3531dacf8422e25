//! MM-DBMS storage architecture (§2 of Lehman & Carey, SIGMOD 1986).
//!
//! The design decisions this crate implements, straight from the paper:
//!
//! * **Partitioned relations** (§2.1): every relation is broken into
//!   partitions — the unit of recovery, "larger than a typical disk page,
//!   probably on the order of one or two disk tracks". Tuples are grouped
//!   in partitions for space management and recovery, *not* for
//!   clustering.
//! * **Stable tuple addresses**: "tuples must not change locations once
//!   they have been entered into the database" — indices and other tuples
//!   refer to tuples by pointer ([`TupleId`]). Variable-length fields live
//!   in the partition's heap so tuple growth never moves a tuple; in the
//!   rare case a tuple must relocate (heap overflow), "a forwarding
//!   address will be left in its old position" (footnote 1).
//! * **Foreign keys as tuple pointers**: a foreign-key attribute stores a
//!   [`TupleId`] (or a list of them) instead of the key value, enabling
//!   precomputed joins.
//! * **Temporary lists** (§2.3): query results are lists of tuple-pointer
//!   rows plus a [`ResultDescriptor`] naming the projected fields — "no
//!   width reduction is ever done".
//!
//! Access to base relations is *only* via indices or explicit `TupleId`s;
//! the relation offers a raw tuple-id scan solely so that the primary
//! index (every relation must have at least one) can be built and so
//! tests can verify contents.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod adapter;
pub mod error;
pub mod partition;
pub mod relation;
pub mod schema;
pub mod templist;
pub mod value;

pub use adapter::{
    for_each_exact_tag, order_tag_exact, value_hash, value_order_tag, AttrAdapter, KeyValue,
    TempListAdapter,
};
pub use error::StorageError;
pub use partition::{Partition, PartitionConfig, SlotState};
pub use relation::{PartitionView, Relation};
pub use schema::{AttrType, Attribute, Schema};
pub use templist::{OutputField, ResultDescriptor, TempList};
pub use value::{OwnedValue, TupleId, Value};
