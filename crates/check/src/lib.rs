//! Deep invariant verification for the MM-DBMS (the `mmdb-check` layer).
//!
//! The paper's structures live or die by invariants the type system cannot
//! see: T-Tree min/max occupancy and balance (§3.2.1), B-Tree ordering
//! with data in interior nodes, hash directory/split-pointer arithmetic,
//! the redo-only log discipline (§2.4), and partition-lock compatibility.
//! This crate turns each of those into an executable check that names the
//! structure, the node (or bucket, or LSN) and the violated invariant —
//! precise enough to act on, cheap enough to run after every operation in
//! the property suites.
//!
//! * [`report`] — [`Violation`]/[`Report`]: structured diagnostics.
//! * [`index_checks`] — deep validators for all eight index structures,
//!   unified under the [`DeepCheck`] trait.
//! * [`storage_checks`] — relation/partition reconciliation, temp-list
//!   result-descriptor validity, pointer-field liveness.
//! * [`log_checks`] — LSN monotonicity and the redo-only constraint.
//! * [`lock_checks`] — lock-table compatibility-matrix and queue
//!   discipline over [`mmdb_lock::LockManager::snapshot`].
//! * [`plan_checks`] — query-plan invariants: logical resolution,
//!   physical feasibility under index availability, and
//!   logical/physical semantic equivalence.
//! * [`merge_checks`] — worker-pool merge determinism.
//! * [`explore`] — a deterministic-seed interleaving explorer (a small
//!   shuttle-style scheduler) for concurrency invariants.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod explore;
pub mod index_checks;
pub mod lock_checks;
pub mod log_checks;
pub mod merge_checks;
pub mod plan_checks;
pub mod report;
pub mod storage_checks;

pub use explore::{Explorer, Failure, Scenario, Schedule, Step};
pub use index_checks::DeepCheck;
pub use report::{Report, Violation};
