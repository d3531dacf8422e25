//! Join kernels: one uniform callable per §3.3 join method.
//!
//! The physical [`JoinOp`](crate::plan::physical::JoinOp) is generic over
//! this trait, so a single operator drives all six methods. Kernels are
//! constructed by the catalog layer (which owns the relations and can
//! locate concrete `TTree` indices) and capture their borrows up front;
//! `run` takes only the runtime inputs.

use crate::error::ExecError;
use crate::join::{
    hash_join, nested_loops_join, precomputed_join, sort_merge_join, tree_join, tree_merge_join,
    JoinOutput, JoinSide,
};
use crate::plan::cost::JoinMethod;
use mmdb_index::TTree;
use mmdb_storage::{AttrAdapter, Relation, TupleId};

/// A bound equijoin ready to run.
///
/// `outer_tids` is the deduplicated outer tuple list. `inner_tids` is the
/// materialised inner list for methods that consume one (index- and
/// pointer-based methods ignore it).
pub trait JoinKernel {
    /// Which §3.3 method this kernel executes.
    fn method(&self) -> JoinMethod;

    /// Execute, producing the `(outer, inner)` tuple-pointer pairs.
    ///
    /// # Errors
    /// [`ExecError`] on storage faults or plan/type mismatches (e.g. a
    /// precomputed join over a non-pointer attribute).
    fn run(
        &self,
        outer_tids: &[TupleId],
        inner_tids: Option<&[TupleId]>,
    ) -> Result<JoinOutput, ExecError>;
}

/// §2.1 precomputed join: follow stored tuple pointers.
pub struct PrecomputedKernel<'a> {
    /// Outer relation.
    pub outer_rel: &'a Relation,
    /// Pointer attribute index.
    pub outer_attr: usize,
}

impl JoinKernel for PrecomputedKernel<'_> {
    fn method(&self) -> JoinMethod {
        JoinMethod::Precomputed
    }

    fn run(
        &self,
        outer_tids: &[TupleId],
        _inner_tids: Option<&[TupleId]>,
    ) -> Result<JoinOutput, ExecError> {
        precomputed_join(JoinSide::new(self.outer_rel, self.outer_attr, outer_tids))
    }
}

/// §3.3.2 tree merge: walk both T-Trees in order. Only valid when both
/// inputs are full relations, so the tid arguments are ignored.
pub struct TreeMergeKernel<'a> {
    /// Outer relation.
    pub outer_rel: &'a Relation,
    /// Outer join attribute index.
    pub outer_attr: usize,
    /// T-Tree on the outer join attribute.
    pub outer_index: &'a TTree<AttrAdapter>,
    /// Inner relation.
    pub inner_rel: &'a Relation,
    /// Inner join attribute index.
    pub inner_attr: usize,
    /// T-Tree on the inner join attribute.
    pub inner_index: &'a TTree<AttrAdapter>,
}

impl JoinKernel for TreeMergeKernel<'_> {
    fn method(&self) -> JoinMethod {
        JoinMethod::TreeMerge
    }

    fn run(
        &self,
        _outer_tids: &[TupleId],
        _inner_tids: Option<&[TupleId]>,
    ) -> Result<JoinOutput, ExecError> {
        tree_merge_join(
            self.outer_rel,
            self.outer_attr,
            self.outer_index,
            self.inner_rel,
            self.inner_attr,
            self.inner_index,
        )
    }
}

/// §3.3.2 tree join: probe the inner T-Tree per outer tuple.
pub struct TreeJoinKernel<'a> {
    /// Outer relation.
    pub outer_rel: &'a Relation,
    /// Outer join attribute index.
    pub outer_attr: usize,
    /// Inner relation (the context the inner T-Tree compares through).
    pub inner_rel: &'a Relation,
    /// T-Tree on the inner join attribute (covers the full relation).
    pub inner_index: &'a TTree<AttrAdapter>,
}

impl JoinKernel for TreeJoinKernel<'_> {
    fn method(&self) -> JoinMethod {
        JoinMethod::TreeJoin
    }

    fn run(
        &self,
        outer_tids: &[TupleId],
        _inner_tids: Option<&[TupleId]>,
    ) -> Result<JoinOutput, ExecError> {
        tree_join(
            JoinSide::new(self.outer_rel, self.outer_attr, outer_tids),
            self.inner_rel,
            self.inner_index,
        )
    }
}

/// Both sides of a tid-consuming kernel (hash, sort-merge, nested loops).
pub struct SidesKernel<'a> {
    /// Outer relation.
    pub outer_rel: &'a Relation,
    /// Outer join attribute index.
    pub outer_attr: usize,
    /// Inner relation.
    pub inner_rel: &'a Relation,
    /// Inner join attribute index.
    pub inner_attr: usize,
    /// Which tid-consuming method to run.
    pub method: JoinMethod,
}

impl JoinKernel for SidesKernel<'_> {
    fn method(&self) -> JoinMethod {
        self.method
    }

    fn run(
        &self,
        outer_tids: &[TupleId],
        inner_tids: Option<&[TupleId]>,
    ) -> Result<JoinOutput, ExecError> {
        let itids = inner_tids.ok_or_else(|| {
            ExecError::BadPlan(format!("{:?} planned without an inner access", self.method))
        })?;
        let outer = JoinSide::new(self.outer_rel, self.outer_attr, outer_tids);
        let inner = JoinSide::new(self.inner_rel, self.inner_attr, itids);
        match self.method {
            JoinMethod::HashJoin => hash_join(outer, inner),
            JoinMethod::SortMerge => sort_merge_join(outer, inner),
            JoinMethod::NestedLoops => nested_loops_join(outer, inner),
            other => Err(ExecError::BadPlan(format!(
                "SidesKernel cannot run {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::fixtures::{expected_pairs, normalize, rel_with_values};

    #[test]
    fn sides_kernel_runs_all_tid_methods_identically() {
        let (orel, otids) = rel_with_values("outer", &[1, 2, 2, 5, 9]);
        let (irel, itids) = rel_with_values("inner", &[2, 2, 3, 5, 5, 7]);
        let want = expected_pairs(&[1, 2, 2, 5, 9], &[2, 2, 3, 5, 5, 7]);
        for method in [
            JoinMethod::HashJoin,
            JoinMethod::SortMerge,
            JoinMethod::NestedLoops,
        ] {
            let k = SidesKernel {
                outer_rel: &orel,
                outer_attr: 1,
                inner_rel: &irel,
                inner_attr: 1,
                method,
            };
            assert_eq!(k.method(), method);
            let a = k.run(&otids, Some(&itids)).unwrap();
            assert_eq!(normalize(&a.pairs, &orel, &irel), want, "{method:?}");
            // A tid-consuming method without its inner list is a plan bug.
            assert!(k.run(&otids, None).is_err());
        }
        // Asking a SidesKernel for an index method is a plan bug.
        let k = SidesKernel {
            outer_rel: &orel,
            outer_attr: 1,
            inner_rel: &irel,
            inner_attr: 1,
            method: JoinMethod::TreeMerge,
        };
        assert!(k.run(&otids, Some(&itids)).is_err());
    }
}
