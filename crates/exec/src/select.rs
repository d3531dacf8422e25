//! Selection access paths (§3.2, §4).
//!
//! *"There are three possible access paths for selection (hash lookup,
//! tree lookup, or sequential scan through an unrelated index) … a hash
//! lookup (exact match only) is always faster than a tree lookup which is
//! always faster than a sequential scan."*
//!
//! All three produce an arity-1 [`TempList`] of tuple pointers — never
//! copies of tuples (§2.3).

use crate::error::ExecError;
use mmdb_index::traits::{OrderedIndex, UnorderedIndex};
use mmdb_storage::{
    for_each_exact_tag, order_tag_exact, AttrAdapter, AttrType, KeyValue, Relation, TempList,
    TupleId,
};
use std::ops::Bound;

/// A single-attribute selection predicate.
#[derive(Debug, Clone)]
pub enum Predicate {
    /// Exact match.
    Eq(KeyValue),
    /// Range with arbitrary bounds (order-preserving indices only).
    Range {
        /// Lower bound.
        lo: Bound<KeyValue>,
        /// Upper bound.
        hi: Bound<KeyValue>,
    },
}

impl Predicate {
    /// `attr BETWEEN lo AND hi` (inclusive).
    #[must_use]
    pub fn between(lo: KeyValue, hi: KeyValue) -> Self {
        Predicate::Range {
            lo: Bound::Included(lo),
            hi: Bound::Included(hi),
        }
    }

    /// `attr > k`.
    #[must_use]
    pub fn greater(k: KeyValue) -> Self {
        Predicate::Range {
            lo: Bound::Excluded(k),
            hi: Bound::Unbounded,
        }
    }

    /// `attr < k`.
    #[must_use]
    pub fn less(k: KeyValue) -> Self {
        Predicate::Range {
            lo: Bound::Unbounded,
            hi: Bound::Excluded(k),
        }
    }

    /// Does a directly-extracted value satisfy this predicate?
    /// (Used by the sequential-scan path.)
    #[must_use]
    pub fn matches(&self, v: &mmdb_storage::Value<'_>) -> bool {
        use std::cmp::Ordering;
        match self {
            Predicate::Eq(k) => k.cmp_value(v) == Ordering::Equal,
            Predicate::Range { lo, hi } => {
                let lo_ok = match lo {
                    Bound::Unbounded => true,
                    Bound::Included(k) => k.cmp_value(v) != Ordering::Less,
                    Bound::Excluded(k) => k.cmp_value(v) == Ordering::Greater,
                };
                let hi_ok = match hi {
                    Bound::Unbounded => true,
                    Bound::Included(k) => k.cmp_value(v) != Ordering::Greater,
                    Bound::Excluded(k) => k.cmp_value(v) == Ordering::Less,
                };
                lo_ok && hi_ok
            }
        }
    }
}

impl std::fmt::Display for Predicate {
    /// Stable rendering used by plan explains: `= 60`, `> 60`, `>= 60`,
    /// `< 60`, `<= 60`, `in [10, 40]`, or the general `> lo, <= hi`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn key(f: &mut std::fmt::Formatter<'_>, k: &KeyValue) -> std::fmt::Result {
            match k {
                KeyValue::Int(i) => write!(f, "{i}"),
                KeyValue::Str(s) => write!(f, "{s:?}"),
                KeyValue::Ptr(t) => write!(f, "ptr({t:?})"),
            }
        }
        match self {
            Predicate::Eq(k) => {
                write!(f, "= ")?;
                key(f, k)
            }
            Predicate::Range {
                lo: Bound::Included(a),
                hi: Bound::Included(b),
            } => {
                write!(f, "in [")?;
                key(f, a)?;
                write!(f, ", ")?;
                key(f, b)?;
                write!(f, "]")
            }
            Predicate::Range { lo, hi } => {
                let mut first = true;
                match lo {
                    Bound::Unbounded => {}
                    Bound::Included(k) => {
                        write!(f, ">= ")?;
                        key(f, k)?;
                        first = false;
                    }
                    Bound::Excluded(k) => {
                        write!(f, "> ")?;
                        key(f, k)?;
                        first = false;
                    }
                }
                match hi {
                    Bound::Unbounded => {
                        if first {
                            write!(f, "unbounded")?;
                        }
                    }
                    Bound::Included(k) => {
                        if !first {
                            write!(f, ", ")?;
                        }
                        write!(f, "<= ")?;
                        key(f, k)?;
                    }
                    Bound::Excluded(k) => {
                        if !first {
                            write!(f, ", ")?;
                        }
                        write!(f, "< ")?;
                        key(f, k)?;
                    }
                }
                Ok(())
            }
        }
    }
}

fn as_ref_bound(b: &Bound<KeyValue>) -> Bound<&KeyValue> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(k) => Bound::Included(k),
        Bound::Excluded(k) => Bound::Excluded(k),
    }
}

/// Sequential scan: walk `tids` (obtained by scanning any index on the
/// relation — §2.1 requires all access to go through one) and test the
/// predicate against the extracted attribute value.
pub fn select_scan(
    rel: &Relation,
    attr: usize,
    tids: &[TupleId],
    pred: &Predicate,
) -> Result<TempList, ExecError> {
    select_scan_iter(rel, attr, tids.iter().copied(), pred)
}

/// [`select_scan`] over any tuple-id iterator: one resolve, one decoded
/// [`Value`](mmdb_storage::Value) and one predicate test per tuple.
fn select_scan_iter(
    rel: &Relation,
    attr: usize,
    tids: impl IntoIterator<Item = TupleId>,
    pred: &Predicate,
) -> Result<TempList, ExecError> {
    let mut out = Vec::with_capacity(1024);
    for tid in tids {
        let v = rel.field(tid, attr)?;
        if pred.matches(&v) {
            out.push(tid);
        }
    }
    Ok(TempList::from_tids(out))
}

/// Sequential-scan selection over every live tuple of `rel`, a block at a
/// time: an `Int` or `Ptr` predicate becomes inclusive bounds on the
/// attribute's exact order tags once, then each partition's slot array is
/// walked by [`for_each_exact_tag`] and each cell's tag tested, without
/// resolving a tuple id or building a [`Value`]
/// (`Str`/`PtrList` attributes, and keys of another type than the
/// attribute's, take [`select_scan_iter`]). The output is
/// [`select_scan_iter`]'s over `rel.iter_tids()`: physical tuple ids in
/// partition order, then slot order.
///
/// [`Value`]: mmdb_storage::Value
pub fn select_scan_all(
    rel: &Relation,
    attr: usize,
    pred: &Predicate,
) -> Result<TempList, ExecError> {
    let ty = rel.schema().attr(attr)?.ty;
    let Some((lo, hi)) = native_bounds(ty, pred) else {
        return select_scan_iter(rel, attr, rel.iter_tids(), pred);
    };
    let mut out = Vec::with_capacity(1024);
    for_each_exact_tag(rel, attr, |tid, v| {
        if lo <= v && v <= hi {
            out.push(tid);
        }
    });
    Ok(TempList::from_tids(out))
}

/// The inclusive interval of exact order tags (those of
/// [`for_each_exact_tag`]) an `Int`/`Ptr` attribute's predicate accepts,
/// or `None` when the attribute or a key has another type. An empty
/// interval comes back with `lo > hi`.
fn native_bounds(ty: AttrType, pred: &Predicate) -> Option<(u64, u64)> {
    if !order_tag_exact(ty) {
        return None;
    }
    // Widened so that stepping past an excluded key cannot overflow.
    let key = |k: &KeyValue| k.tag_exact_for(ty).then(|| i128::from(k.order_tag()));
    let bound = |b: &Bound<KeyValue>, open: u64, step: i128| match b {
        Bound::Unbounded => Some(i128::from(open)),
        Bound::Included(k) => key(k),
        Bound::Excluded(k) => Some(key(k)? + step),
    };
    let (lo, hi) = match pred {
        Predicate::Eq(k) => (key(k)?, key(k)?),
        Predicate::Range { lo, hi } => (bound(lo, 0, 1)?, bound(hi, u64::MAX, -1)?),
    };
    Some(match (u64::try_from(lo), u64::try_from(hi)) {
        (Ok(lo), Ok(hi)) => (lo, hi),
        // Past either end of the domain: nothing matches.
        _ => (1, 0),
    })
}

/// Exact-match selection through a hash index over a relation attribute
/// (the fastest path; hash indices cannot serve range predicates). `rel`
/// is the relation the index covers, borrowed for the whole probe.
pub fn select_hash_index<U>(index: &U, rel: &Relation, key: &KeyValue) -> TempList
where
    U: UnorderedIndex<AttrAdapter> + ?Sized,
{
    let mut out = Vec::new();
    index.search_all(rel, key, &mut out);
    TempList::from_tids(out)
}

/// Exact-match or range selection through an order-preserving index over
/// a relation attribute (`rel`, as for [`select_hash_index`]).
pub fn select_tree_index<O>(index: &O, rel: &Relation, pred: &Predicate) -> TempList
where
    O: OrderedIndex<AttrAdapter> + ?Sized,
{
    let mut out = Vec::new();
    match pred {
        Predicate::Eq(k) => index.search_all(rel, k, &mut out),
        Predicate::Range { lo, hi } => {
            index.range(rel, as_ref_bound(lo), as_ref_bound(hi), &mut out);
        }
    }
    TempList::from_tids(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_index::{ChainedBucketHash, TTree, TTreeConfig};
    use mmdb_storage::{AttrAdapter, AttrType, OwnedValue, PartitionConfig, Schema, Value};

    fn ages_relation() -> (Relation, Vec<TupleId>) {
        let mut r = Relation::new(
            "emp",
            Schema::of(&[("name", AttrType::Str), ("age", AttrType::Int)]),
            PartitionConfig::default(),
        );
        let data = [
            ("Dave", 24),
            ("Suzan", 27),
            ("Yaman", 54),
            ("Jane", 47),
            ("Cindy", 22),
            ("Old1", 66),
            ("Old2", 70),
            ("Twin", 47),
        ];
        let tids = data
            .iter()
            .map(|(n, a)| {
                r.insert(&[OwnedValue::Str((*n).into()), OwnedValue::Int(*a)])
                    .unwrap()
            })
            .collect();
        (r, tids)
    }

    #[test]
    fn hash_selection_exact_match() {
        let (r, tids) = ages_relation();
        let mut idx = ChainedBucketHash::with_capacity(AttrAdapter::new(1), 16);
        for t in &tids {
            idx.insert(&r, *t);
        }
        let hits = select_hash_index(&idx, &r, &KeyValue::Int(47));
        assert_eq!(hits.len(), 2, "Jane and Twin");
        let none = select_hash_index(&idx, &r, &KeyValue::Int(99));
        assert!(none.is_empty());
    }

    #[test]
    fn tree_selection_point_and_range() {
        let (r, tids) = ages_relation();
        let mut idx = TTree::new(AttrAdapter::new(1), TTreeConfig::with_node_size(4));
        for t in &tids {
            idx.insert(&r, *t);
        }
        let hits = select_tree_index(&idx, &r, &Predicate::Eq(KeyValue::Int(54)));
        assert_eq!(hits.len(), 1);
        // Query 1 of the paper: employees over age 65.
        let over65 = select_tree_index(&idx, &r, &Predicate::greater(KeyValue::Int(65)));
        assert_eq!(over65.len(), 2);
        let mut names: Vec<String> = over65
            .column(0)
            .iter()
            .map(|t| match r.field(*t, 0).unwrap() {
                Value::Str(s) => s.to_string(),
                _ => unreachable!(),
            })
            .collect();
        names.sort();
        assert_eq!(names, vec!["Old1", "Old2"]);
        // Between.
        let mid = select_tree_index(
            &idx,
            &r,
            &Predicate::between(KeyValue::Int(24), KeyValue::Int(47)),
        );
        assert_eq!(mid.len(), 4, "24, 27, 47, 47");
    }

    #[test]
    fn scan_selection_matches_tree() {
        let (r, tids) = ages_relation();
        let pred = Predicate::between(KeyValue::Int(25), KeyValue::Int(60));
        let scanned = select_scan(&r, 1, &tids, &pred).unwrap();
        let mut idx = TTree::new(AttrAdapter::new(1), TTreeConfig::with_node_size(4));
        for t in &tids {
            idx.insert(&r, *t);
        }
        let treed = select_tree_index(&idx, &r, &pred);
        let mut a = scanned.column(0);
        let mut b = treed.column(0);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn string_predicates() {
        let (r, tids) = ages_relation();
        let pred = Predicate::Eq(KeyValue::from("Cindy"));
        let hits = select_scan(&r, 0, &tids, &pred).unwrap();
        assert_eq!(hits.len(), 1);
        let pred = Predicate::less(KeyValue::from("E"));
        let hits = select_scan(&r, 0, &tids, &pred).unwrap();
        assert_eq!(hits.len(), 2, "Cindy and Dave");
    }

    #[test]
    fn predicate_display_is_stable() {
        assert_eq!(Predicate::Eq(KeyValue::Int(60)).to_string(), "= 60");
        assert_eq!(
            Predicate::Eq(KeyValue::from("Toy")).to_string(),
            "= \"Toy\""
        );
        assert_eq!(Predicate::greater(KeyValue::Int(65)).to_string(), "> 65");
        assert_eq!(Predicate::less(KeyValue::Int(30)).to_string(), "< 30");
        assert_eq!(
            Predicate::between(KeyValue::Int(10), KeyValue::Int(40)).to_string(),
            "in [10, 40]"
        );
        assert_eq!(
            Predicate::Range {
                lo: Bound::Included(KeyValue::Int(1)),
                hi: Bound::Excluded(KeyValue::Int(9)),
            }
            .to_string(),
            ">= 1, < 9"
        );
        assert_eq!(
            Predicate::Range {
                lo: Bound::Unbounded,
                hi: Bound::Unbounded,
            }
            .to_string(),
            "unbounded"
        );
    }

    #[test]
    fn predicate_matches_edge_bounds() {
        let v = Value::Int(10);
        assert!(Predicate::between(KeyValue::Int(10), KeyValue::Int(20)).matches(&v));
        assert!(!Predicate::greater(KeyValue::Int(10)).matches(&v));
        assert!(Predicate::greater(KeyValue::Int(9)).matches(&v));
        assert!(!Predicate::less(KeyValue::Int(10)).matches(&v));
        assert!(Predicate::Eq(KeyValue::Int(10)).matches(&v));
    }
}
