//! Common index interfaces.
//!
//! Two families, matching the paper's split between *order-preserving*
//! structures (arrays, AVL, B-Tree, T-Tree — usable for range queries and
//! merge joins) and *hash-based* structures (exact-match only).
//!
//! Both traits are object-safe so the experiment harness can drive all
//! eight structures through `Box<dyn …>`.

use crate::adapter::Adapter;
use crate::stats::Snapshot;
use std::ops::Bound;

/// Errors reported by index operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// `insert_unique` found the key already present.
    DuplicateKey,
    /// The structure cannot perform updates (static / read-only indexes,
    /// e.g. a Chained Bucket Hash table built for a fixed population in
    /// its original static role).
    ReadOnly,
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::DuplicateKey => write!(f, "duplicate key"),
            IndexError::ReadOnly => write!(f, "index is read-only"),
        }
    }
}

impl std::error::Error for IndexError {}

/// An order-preserving index over entries compared through adapter `A`.
///
/// Every operation that compares entries takes the adapter's context
/// `cx` (see [`Adapter::Ctx`]); the structure itself stores none.
pub trait OrderedIndex<A: Adapter> {
    /// Insert an entry; duplicates (by key) are permitted.
    fn insert(&mut self, cx: A::Ctx<'_>, entry: A::Entry);

    /// Insert, failing with [`IndexError::DuplicateKey`] if an entry with
    /// an equal key is already present (the paper's experiments configured
    /// every index as a unique index).
    fn insert_unique(&mut self, cx: A::Ctx<'_>, entry: A::Entry) -> Result<(), IndexError>;

    /// Remove and return one entry whose key equals `key`.
    fn delete(&mut self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry>;

    /// Remove the specific entry `entry` (entry identity, not just key
    /// equality — needed when duplicates index distinct tuples).
    fn delete_entry(&mut self, cx: A::Ctx<'_>, entry: &A::Entry) -> bool;

    /// Find one entry whose key equals `key`.
    fn search(&self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry>;

    /// Append *every* entry whose key equals `key` to `out`, in index order.
    fn search_all(&self, cx: A::Ctx<'_>, key: &A::Key, out: &mut Vec<A::Entry>);

    /// Append every entry within the bounds to `out`, in ascending key
    /// order (§3.3.5: non-equijoins "can make use of ordering of the
    /// data").
    fn range(
        &self,
        cx: A::Ctx<'_>,
        lo: Bound<&A::Key>,
        hi: Bound<&A::Key>,
        out: &mut Vec<A::Entry>,
    );

    /// Visit every entry in ascending key order.
    fn scan(&self, visit: &mut dyn FnMut(&A::Entry));

    /// Number of entries.
    fn len(&self) -> usize;

    /// True when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of memory the structure currently occupies (§3.2.2 storage
    /// cost measurements).
    fn storage_bytes(&self) -> usize;

    /// Current operation counters.
    fn stats(&self) -> Snapshot;

    /// Zero the operation counters.
    fn reset_stats(&mut self);

    /// Check every structural invariant; returns a description of the
    /// first violation. Used heavily by tests, never by operations.
    fn validate(&self, cx: A::Ctx<'_>) -> Result<(), String>;
}

/// A hash-based (unordered, exact-match) index.
pub trait UnorderedIndex<A: Adapter> {
    /// Insert an entry; duplicates (by key) are permitted.
    fn insert(&mut self, cx: A::Ctx<'_>, entry: A::Entry);

    /// Insert, failing if an entry with an equal key is already present.
    fn insert_unique(&mut self, cx: A::Ctx<'_>, entry: A::Entry) -> Result<(), IndexError>;

    /// Remove and return one entry whose key equals `key`.
    fn delete(&mut self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry>;

    /// Remove the specific entry `entry`.
    fn delete_entry(&mut self, cx: A::Ctx<'_>, entry: &A::Entry) -> bool;

    /// Find one entry whose key equals `key`.
    fn search(&self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry>;

    /// Append every entry whose key equals `key` to `out`.
    fn search_all(&self, cx: A::Ctx<'_>, key: &A::Key, out: &mut Vec<A::Entry>);

    /// Visit every entry in arbitrary order.
    fn scan(&self, visit: &mut dyn FnMut(&A::Entry));

    /// Number of entries.
    fn len(&self) -> usize;

    /// True when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of memory the structure currently occupies.
    fn storage_bytes(&self) -> usize;

    /// Current operation counters.
    fn stats(&self) -> Snapshot;

    /// Zero the operation counters.
    fn reset_stats(&mut self);

    /// Check every structural invariant.
    fn validate(&self, cx: A::Ctx<'_>) -> Result<(), String>;
}

/// Convert user-facing bounds on `&Key` into an inclusive test helper.
///
/// Returns `true` when `probe_ordering` (the ordering of an entry's key
/// *relative to the bound key*) satisfies the bound.
pub(crate) fn bound_ok_lo(ord: std::cmp::Ordering, bound: &Bound<impl Sized>) -> bool {
    match bound {
        Bound::Unbounded => true,
        Bound::Included(_) => ord != std::cmp::Ordering::Less,
        Bound::Excluded(_) => ord == std::cmp::Ordering::Greater,
    }
}

/// Counterpart of [`bound_ok_lo`] for upper bounds.
pub(crate) fn bound_ok_hi(ord: std::cmp::Ordering, bound: &Bound<impl Sized>) -> bool {
    match bound {
        Bound::Unbounded => true,
        Bound::Included(_) => ord != std::cmp::Ordering::Greater,
        Bound::Excluded(_) => ord == std::cmp::Ordering::Less,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn error_display() {
        assert_eq!(IndexError::DuplicateKey.to_string(), "duplicate key");
        assert_eq!(IndexError::ReadOnly.to_string(), "index is read-only");
    }

    #[test]
    fn lo_bound_semantics() {
        let inc: Bound<u64> = Bound::Included(5);
        let exc: Bound<u64> = Bound::Excluded(5);
        let unb: Bound<u64> = Bound::Unbounded;
        // ord = entry.cmp(bound_key)
        assert!(bound_ok_lo(Ordering::Equal, &inc));
        assert!(!bound_ok_lo(Ordering::Equal, &exc));
        assert!(bound_ok_lo(Ordering::Greater, &exc));
        assert!(!bound_ok_lo(Ordering::Less, &inc));
        assert!(bound_ok_lo(Ordering::Less, &unb));
    }

    #[test]
    fn hi_bound_semantics() {
        let inc: Bound<u64> = Bound::Included(5);
        let exc: Bound<u64> = Bound::Excluded(5);
        let unb: Bound<u64> = Bound::Unbounded;
        assert!(bound_ok_hi(Ordering::Equal, &inc));
        assert!(!bound_ok_hi(Ordering::Equal, &exc));
        assert!(bound_ok_hi(Ordering::Less, &exc));
        assert!(!bound_ok_hi(Ordering::Greater, &inc));
        assert!(bound_ok_hi(Ordering::Greater, &unb));
    }
}
