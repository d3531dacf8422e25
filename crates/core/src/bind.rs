//! The binding seam: everything that turns a planner decision (a
//! [`SelectPath`], a [`JoinMethod`], a [`PlanNode`]) into this database's
//! concrete relations, indexes and kernels — plus the catalog facts the
//! planner reads back.

use crate::db::{AnyIndex, Database, IndexKind, TableId};
use crate::error::DbError;
use mmdb_exec::plan::{
    AttrInfo, BoxedOperator, DistinctOp, FullScanOp, HashLookupOp, JoinKernel, JoinOp, PlanCatalog,
    PlanNode, PlanNodeKind, PostFilterOp, PrecomputedKernel, ProjectOp, SeqFilterOp, SidesKernel,
    TreeJoinKernel, TreeLookupOp, TreeMergeKernel,
};
use mmdb_exec::{IndexAvailability, JoinMethod, Predicate, SelectPath};
use mmdb_index::{ModifiedLinearHash, TTree};
use mmdb_recovery::StableStore;
use mmdb_storage::{AttrAdapter, AttrType, KeyValue, Relation, ResultDescriptor};

/// A selection access path bound to the index that serves it.
pub(crate) enum BoundSelect<'i, 'k> {
    /// Probe this hash index with the equality key.
    Hash(&'i ModifiedLinearHash<AttrAdapter>, &'k KeyValue),
    /// Point or range lookup in this T-Tree.
    Tree(&'i TTree<AttrAdapter>),
    /// No usable index: scan the relation.
    Scan,
}

impl<S: StableStore> Database<S> {
    /// Availability of indexes on `(table, attr)`.
    pub(crate) fn availability(&self, table: TableId, attr: usize) -> IndexAvailability {
        let has = |kind| {
            self.table(table)
                .indexes
                .iter()
                .any(|i| i.attr == attr && i.kind == kind)
        };
        IndexAvailability {
            ttree: has(IndexKind::TTree),
            hash: has(IndexKind::Hash),
        }
    }

    fn find_ttree(&self, table: TableId, attr: usize) -> Option<&TTree<AttrAdapter>> {
        self.table(table)
            .indexes
            .iter()
            .find_map(|i| match &i.index {
                AnyIndex::TTree(t) if i.attr == attr => Some(t),
                _ => None,
            })
    }

    fn find_hash(&self, table: TableId, attr: usize) -> Option<&ModifiedLinearHash<AttrAdapter>> {
        self.table(table)
            .indexes
            .iter()
            .find_map(|i| match &i.index {
                AnyIndex::Hash(h) if i.attr == attr => Some(h),
                _ => None,
            })
    }

    /// Resolve a planned access path to the index it names — the one
    /// `SelectPath` → index mapping, shared by [`Database::select`] and the
    /// `Select` arm of [`Database::bind_plan`].
    pub(crate) fn bind_select<'i, 'k>(
        &'i self,
        table: TableId,
        attr: usize,
        path: SelectPath,
        pred: &'k Predicate,
    ) -> Result<BoundSelect<'i, 'k>, DbError> {
        match path {
            SelectPath::HashLookup => {
                let idx = self
                    .find_hash(table, attr)
                    .ok_or_else(|| DbError::Catalog("planned hash index disappeared".into()))?;
                let Predicate::Eq(key) = pred else {
                    return Err(DbError::BadQuery(
                        "hash lookup planned for a range predicate".into(),
                    ));
                };
                Ok(BoundSelect::Hash(idx, key))
            }
            SelectPath::TreeLookup => {
                let idx = self
                    .find_ttree(table, attr)
                    .ok_or_else(|| DbError::Catalog("planned tree index disappeared".into()))?;
                Ok(BoundSelect::Tree(idx))
            }
            SelectPath::SequentialScan => Ok(BoundSelect::Scan),
        }
    }

    /// Bind one §3.3 join method to concrete relations and indices as a
    /// uniform [`JoinKernel`].
    #[allow(clippy::too_many_arguments)]
    fn make_join_kernel<'b>(
        &'b self,
        method: JoinMethod,
        orel: &'b Relation,
        o_attr: usize,
        ot: TableId,
        irel: &'b Relation,
        i_attr: usize,
        it: TableId,
        outer_name: &str,
        inner_name: &str,
    ) -> Result<Box<dyn JoinKernel + 'b>, DbError> {
        Ok(match method {
            JoinMethod::Precomputed => Box::new(PrecomputedKernel {
                outer_rel: orel,
                outer_attr: o_attr,
            }),
            JoinMethod::TreeMerge => {
                let oidx = self
                    .find_ttree(ot, o_attr)
                    .ok_or_else(|| DbError::NoSuchIndex(format!("{outer_name}.{o_attr}")))?;
                let iidx = self
                    .find_ttree(it, i_attr)
                    .ok_or_else(|| DbError::NoSuchIndex(format!("{inner_name}.{i_attr}")))?;
                Box::new(TreeMergeKernel {
                    outer_rel: orel,
                    outer_attr: o_attr,
                    outer_index: oidx,
                    inner_rel: irel,
                    inner_attr: i_attr,
                    inner_index: iidx,
                })
            }
            JoinMethod::TreeJoin => {
                let iidx = self
                    .find_ttree(it, i_attr)
                    .ok_or_else(|| DbError::NoSuchIndex(format!("{inner_name}.{i_attr}")))?;
                Box::new(TreeJoinKernel {
                    outer_rel: orel,
                    outer_attr: o_attr,
                    inner_rel: irel,
                    inner_index: iidx,
                })
            }
            JoinMethod::HashJoin | JoinMethod::SortMerge | JoinMethod::NestedLoops => {
                Box::new(SidesKernel {
                    outer_rel: orel,
                    outer_attr: o_attr,
                    inner_rel: irel,
                    inner_attr: i_attr,
                    method,
                })
            }
        })
    }

    /// Bind a planned operator tree to this database's relations and
    /// indices. `tables` is the plan's binding order, `rels` the borrowed
    /// relation per position, `desc` the projection descriptor (consumed
    /// by duplicate elimination).
    pub(crate) fn bind_plan<'b>(
        &'b self,
        node: &PlanNode,
        tables: &[String],
        rels: &[&'b Relation],
        desc: &ResultDescriptor,
    ) -> Result<BoxedOperator<'b>, DbError> {
        let position = |table: &str| -> Result<usize, DbError> {
            tables
                .iter()
                .position(|t| t == table)
                .ok_or_else(|| DbError::BadQuery(format!("table {table} is not bound")))
        };
        let op: BoxedOperator<'b> = match &node.kind {
            PlanNodeKind::Scan { table } => {
                let rel = rels[position(table)?];
                Box::new(FullScanOp { id: node.id, rel })
            }
            PlanNodeKind::Select {
                table,
                attr,
                pred,
                path,
            } => {
                let rel = rels[position(table)?];
                let t = self.table_id(table)?;
                let attr_idx = rel.schema().index_of(attr)?;
                match self.bind_select(t, attr_idx, *path, pred)? {
                    BoundSelect::Hash(index, key) => Box::new(HashLookupOp {
                        id: node.id,
                        index,
                        rel,
                        key: key.clone(),
                    }),
                    BoundSelect::Tree(index) => Box::new(TreeLookupOp {
                        id: node.id,
                        index,
                        rel,
                        pred: pred.clone(),
                    }),
                    BoundSelect::Scan => Box::new(SeqFilterOp {
                        id: node.id,
                        rel,
                        attr: attr_idx,
                        pred: pred.clone(),
                    }),
                }
            }
            PlanNodeKind::PostFilter {
                table,
                attr,
                pred,
                src_col,
            } => {
                let child = self.bind_plan(&node.children[0], tables, rels, desc)?;
                let rel = rels[position(table)?];
                let attr_idx = rel.schema().index_of(attr)?;
                Box::new(PostFilterOp {
                    id: node.id,
                    child,
                    rel,
                    attr: attr_idx,
                    pred: pred.clone(),
                    src_col: *src_col,
                    est_rows: node.est_rows.round() as usize,
                })
            }
            PlanNodeKind::Join {
                method,
                source_table,
                outer_attr,
                inner_table,
                inner_attr,
                src_col,
                ..
            } => {
                let child = self.bind_plan(&node.children[0], tables, rels, desc)?;
                let inner = match node.children.get(1) {
                    Some(n) => Some(self.bind_plan(n, tables, rels, desc)?),
                    None => None,
                };
                let orel = rels[position(source_table)?];
                let irel = rels[position(inner_table)?];
                let ot = self.table_id(source_table)?;
                let it = self.table_id(inner_table)?;
                let o_attr = orel.schema().index_of(outer_attr)?;
                let i_attr = irel.schema().index_of(inner_attr)?;
                let kernel = self.make_join_kernel(
                    *method,
                    orel,
                    o_attr,
                    ot,
                    irel,
                    i_attr,
                    it,
                    source_table,
                    inner_table,
                )?;
                Box::new(JoinOp {
                    id: node.id,
                    child,
                    inner,
                    src_col: *src_col,
                    kernel,
                    est_rows: node.est_rows.round() as usize,
                })
            }
            PlanNodeKind::Project { .. } => {
                let child = self.bind_plan(&node.children[0], tables, rels, desc)?;
                Box::new(ProjectOp { id: node.id, child })
            }
            PlanNodeKind::Distinct => {
                let child = self.bind_plan(&node.children[0], tables, rels, desc)?;
                Box::new(DistinctOp {
                    id: node.id,
                    child,
                    desc: desc.clone(),
                    sources: rels.to_vec(),
                })
            }
        };
        Ok(op)
    }
}

impl<S: StableStore> PlanCatalog for Database<S> {
    fn cardinality(&self, table: &str) -> Option<usize> {
        Some(self.relation(table).ok()?.len())
    }

    fn resolve_attr(&self, table: &str, attr: &str) -> Option<AttrInfo> {
        let t = self.table_id(table).ok()?;
        let rel = &self.table(t).rel;
        let idx = rel.schema().index_of(attr).ok()?;
        let ty = rel.schema().attr(idx).ok()?.ty;
        let fk = ty == AttrType::Ptr || ty == AttrType::PtrList;
        Some(AttrInfo {
            index: idx,
            pointer: fk,
            avail: self.availability(t, idx),
        })
    }
}
