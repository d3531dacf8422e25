//! Temporary lists and result descriptors (§2.3).
//!
//! *"The MM-DBMS uses a temporary list structure for storing intermediate
//! result relations. A temporary list is a list of tuple pointers plus an
//! associated result descriptor. The pointers point to the source
//! relation(s) from which the temporary relation was formed, and the
//! result descriptor identifies the fields that are contained in the
//! relation that the temporary list represents. The descriptor takes the
//! place of projection — no width reduction is ever done."*
//!
//! A row of a [`TempList`] is a fixed-arity group of [`TupleId`]s, one per
//! source relation (a selection result has arity 1; a two-way join result
//! has arity 2 — exactly the `(124, 243)` pairs of the paper's Figure 1).
//! Unlike base relations, a temporary list *can* be traversed directly.

use crate::error::StorageError;
use crate::relation::Relation;
use crate::value::{TupleId, Value};

/// One projected output field: which source relation of the temp list and
/// which attribute of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputField {
    /// Index into the temp list's source relations.
    pub source: usize,
    /// Attribute index within that source relation.
    pub attr: usize,
    /// Output column name (e.g. `"Emp Name"` in Figure 1).
    pub name: String,
}

impl OutputField {
    /// Construct an output field.
    #[must_use]
    pub fn new(source: usize, attr: usize, name: &str) -> Self {
        OutputField {
            source,
            attr,
            name: name.to_string(),
        }
    }
}

/// The fields a temporary list logically contains (§2.3, Figure 1's
/// "Result Descriptor": Emp Name / Emp Age / Dept Name).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResultDescriptor {
    fields: Vec<OutputField>,
}

impl ResultDescriptor {
    /// Build a descriptor from fields.
    #[must_use]
    pub fn new(fields: Vec<OutputField>) -> Self {
        ResultDescriptor { fields }
    }

    /// The projected fields, in output order.
    #[must_use]
    pub fn fields(&self) -> &[OutputField] {
        &self.fields
    }

    /// Number of output columns.
    #[must_use]
    pub fn width(&self) -> usize {
        self.fields.len()
    }

    /// Output column names.
    #[must_use]
    pub fn column_names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

/// A temporary list: flat storage of fixed-arity tuple-pointer rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TempList {
    arity: usize,
    rows: Vec<TupleId>,
}

impl TempList {
    /// Create an empty list of the given row arity (number of source
    /// relations).
    #[must_use]
    pub fn new(arity: usize) -> Self {
        TempList {
            arity: arity.max(1),
            rows: Vec::new(),
        }
    }

    /// Create pre-sized.
    #[must_use]
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        TempList {
            arity: arity.max(1),
            rows: Vec::with_capacity(rows * arity.max(1)),
        }
    }

    /// Build an arity-1 list from a set of tuple ids (a selection result).
    #[must_use]
    pub fn from_tids(tids: Vec<TupleId>) -> Self {
        TempList {
            arity: 1,
            rows: tids,
        }
    }

    /// Row arity.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len() / self.arity
    }

    /// True when there are no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row (must match the arity).
    pub fn push(&mut self, row: &[TupleId]) -> Result<(), StorageError> {
        if row.len() != self.arity {
            return Err(StorageError::ArityMismatch {
                expected: self.arity,
                found: row.len(),
            });
        }
        self.rows.extend_from_slice(row);
        Ok(())
    }

    /// Append a pair (the common join-result case).
    pub fn push_pair(&mut self, a: TupleId, b: TupleId) -> Result<(), StorageError> {
        self.push(&[a, b])
    }

    /// Move every row of `other` onto the end of `self` (bulk `Vec`
    /// extend — no per-row arity checks or pushes).
    pub fn append(&mut self, other: TempList) -> Result<(), StorageError> {
        if other.arity != self.arity {
            return Err(StorageError::ArityMismatch {
                expected: self.arity,
                found: other.arity,
            });
        }
        let mut rows = other.rows;
        self.rows.append(&mut rows);
        Ok(())
    }

    /// Row `i` as a slice of tuple ids.
    #[must_use]
    pub fn row(&self, i: usize) -> &[TupleId] {
        &self.rows[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterate over rows.
    pub fn iter(&self) -> impl Iterator<Item = &[TupleId]> + '_ {
        self.rows.chunks_exact(self.arity)
    }

    /// The tuple ids of one column (source position) across all rows.
    #[must_use]
    pub fn column(&self, source: usize) -> Vec<TupleId> {
        self.iter().map(|r| r[source]).collect()
    }

    /// Materialize row `i` through `descriptor` against the source
    /// relations into a caller-owned buffer (cleared first); the values
    /// borrow from the relations ("tuples are never copied, only pointed
    /// to", §4). Duplicate elimination materializes once per row *plus*
    /// once per hash-chain visit; reusing one buffer across those calls
    /// removes the per-visit heap allocation.
    pub fn materialize_row_into<'a>(
        &self,
        i: usize,
        descriptor: &ResultDescriptor,
        sources: &[&'a Relation],
        out: &mut Vec<Value<'a>>,
    ) -> Result<(), StorageError> {
        out.clear();
        let row = self.row(i);
        for f in descriptor.fields() {
            out.push(sources[f.source].field(row[f.source], f.attr)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionConfig;
    use crate::schema::{AttrType, Schema};
    use crate::value::OwnedValue;

    fn setup() -> (Relation, Relation, Vec<TupleId>, Vec<TupleId>) {
        // The paper's Figure 1 relations.
        let mut emp = Relation::new(
            "employee",
            Schema::of(&[
                ("name", AttrType::Str),
                ("id", AttrType::Int),
                ("age", AttrType::Int),
                ("dept", AttrType::Ptr),
            ]),
            PartitionConfig::default(),
        );
        let mut dept = Relation::new(
            "department",
            Schema::of(&[("name", AttrType::Str), ("id", AttrType::Int)]),
            PartitionConfig::default(),
        );
        let toy = dept
            .insert(&[OwnedValue::Str("Toy".into()), OwnedValue::Int(459)])
            .unwrap();
        let shoe = dept
            .insert(&[OwnedValue::Str("Shoe".into()), OwnedValue::Int(409)])
            .unwrap();
        let dave = emp
            .insert(&[
                OwnedValue::Str("Dave".into()),
                OwnedValue::Int(23),
                OwnedValue::Int(24),
                OwnedValue::Ptr(Some(toy)),
            ])
            .unwrap();
        let cindy = emp
            .insert(&[
                OwnedValue::Str("Cindy".into()),
                OwnedValue::Int(22),
                OwnedValue::Int(22),
                OwnedValue::Ptr(Some(shoe)),
            ])
            .unwrap();
        (emp, dept, vec![dave, cindy], vec![toy, shoe])
    }

    #[test]
    fn arity_enforced() {
        let mut l = TempList::new(2);
        assert!(l.push(&[TupleId::new(0, 0)]).is_err());
        l.push_pair(TupleId::new(0, 0), TupleId::new(0, 1)).unwrap();
        assert_eq!(l.len(), 1);
        assert_eq!(l.arity(), 2);
    }

    #[test]
    fn rows_and_columns() {
        let mut l = TempList::new(2);
        for i in 0..5u32 {
            l.push_pair(TupleId::new(0, i), TupleId::new(1, i * 10))
                .unwrap();
        }
        assert_eq!(l.len(), 5);
        assert_eq!(l.row(2), &[TupleId::new(0, 2), TupleId::new(1, 20)]);
        assert_eq!(
            l.column(1),
            (0..5u32)
                .map(|i| TupleId::new(1, i * 10))
                .collect::<Vec<_>>()
        );
        assert_eq!(l.iter().count(), 5);
    }

    #[test]
    fn from_tids_selection_result() {
        let tids = vec![TupleId::new(0, 3), TupleId::new(0, 7)];
        let l = TempList::from_tids(tids.clone());
        assert_eq!(l.arity(), 1);
        assert_eq!(l.column(0), tids);
    }

    #[test]
    fn figure_1_materialization() {
        let (emp, dept, emps, depts) = setup();
        // Join result: (employee, department) pairs + descriptor
        // [Emp Name, Emp Age, Dept Name].
        let mut result = TempList::new(2);
        result.push_pair(emps[0], depts[0]).unwrap();
        result.push_pair(emps[1], depts[1]).unwrap();
        let desc = ResultDescriptor::new(vec![
            OutputField::new(0, 0, "Emp Name"),
            OutputField::new(0, 2, "Emp Age"),
            OutputField::new(1, 0, "Dept Name"),
        ]);
        assert_eq!(
            desc.column_names(),
            vec!["Emp Name", "Emp Age", "Dept Name"]
        );
        let mut row = Vec::new();
        result
            .materialize_row_into(0, &desc, &[&emp, &dept], &mut row)
            .unwrap();
        assert_eq!(
            row,
            vec![Value::Str("Dave"), Value::Int(24), Value::Str("Toy")]
        );
        result
            .materialize_row_into(1, &desc, &[&emp, &dept], &mut row)
            .unwrap();
        assert_eq!(
            row,
            vec![Value::Str("Cindy"), Value::Int(22), Value::Str("Shoe")]
        );
    }

    #[test]
    fn append_moves_rows_in_order() {
        let mut a = TempList::new(2);
        a.push_pair(TupleId::new(0, 0), TupleId::new(1, 0)).unwrap();
        let mut b = TempList::new(2);
        b.push_pair(TupleId::new(0, 1), TupleId::new(1, 1)).unwrap();
        b.push_pair(TupleId::new(0, 2), TupleId::new(1, 2)).unwrap();
        a.append(b).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.row(0), &[TupleId::new(0, 0), TupleId::new(1, 0)]);
        assert_eq!(a.row(2), &[TupleId::new(0, 2), TupleId::new(1, 2)]);
    }

    #[test]
    fn append_rejects_arity_mismatch() {
        let mut a = TempList::new(2);
        let b = TempList::from_tids(vec![TupleId::new(0, 0)]);
        assert!(a.append(b).is_err());
    }
}
