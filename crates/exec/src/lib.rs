//! Query processing operators for the MM-DBMS (§3–§4 of Lehman & Carey,
//! SIGMOD 1986).
//!
//! * **Selection** ([`select`]): the three §4 access paths — hash lookup,
//!   tree lookup (point and range), and sequential scan through an
//!   unrelated index.
//! * **Join** ([`join`]): all the methods of §3.3.2 — Nested Loops, Hash
//!   Join (builds a Chained Bucket table on the inner), Tree Join (uses an
//!   existing T-Tree), Sort Merge (builds and sorts array indexes), Tree
//!   Merge (merges two existing T-Trees), and the §2.1 precomputed
//!   pointer join.
//! * **Projection** ([`project`]): duplicate elimination by Hashing
//!   \[DKO84\] (table size |R|/2) and by Sort Scan \[BBD83\].
//! * **Restart's worker pool** ([`parallel`]): the index-ordered
//!   fan-out that restart borrows for image fetch, decode and index
//!   rebuilds ([`parallel::ExecConfig`]). Every query operator is
//!   single-threaded, as in the paper.
//! * **Two-phase query compilation** ([`plan`]): typed logical plans, a
//!   cost-based planner over the §4 preference ordering and the §3.3.4
//!   comparison-count formulas ([`plan::cost`]; pushdown, join
//!   reordering, method choice), and an instrumented operator engine
//!   with per-operator estimates-vs-actuals profiles.
//!
//! Every operator consumes and produces §2.3 temporary lists — tuple
//! pointers only; attribute values are extracted exactly when compared and
//! never copied into results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod join;
pub mod parallel;
pub mod plan;
pub mod project;
pub mod select;

pub use error::ExecError;
pub use join::{
    hash_join, nested_loops_join, precomputed_join, sort_merge_join, theta_nested_loops_join,
    tree_ineq_join, tree_join, tree_merge_join, IneqOp, JoinOutput, JoinSide, ThetaOp,
};
pub use parallel::{merge_indexed, run_tasks, ExecConfig};
pub use plan::cost::{choose_select_path, IndexAvailability, JoinMethod, SelectPath};
pub use plan::{
    ExecContext, LogicalPlan, PlanError, PlanProfile, PlannedQuery, Planner, PlannerOptions,
};
pub use project::{project_hash, project_hash_sized, project_sort, ProjectOutput};
pub use select::{select_hash_index, select_scan, select_scan_all, select_tree_index, Predicate};
