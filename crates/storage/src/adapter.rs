//! Index adapters over relations: the §2.2 "main memory index" style.
//!
//! *"a single tuple pointer provides the index with access to both the
//! attribute value of a tuple and the tuple itself"* — an index entry is a
//! [`TupleId`]; comparisons dereference it through the relation to reach
//! the indexed attribute. [`AttrAdapter`] is that dereference.

use crate::relation::Relation;
use crate::schema::AttrType;
use crate::value::{TupleId, Value};
use mmdb_index::adapter::{mix64, Adapter, HashAdapter};
use std::cmp::Ordering;

/// An owned probe key for index searches over relation attributes.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyValue {
    /// Integer key.
    Int(i64),
    /// String key.
    Str(String),
    /// Tuple-pointer key (for pointer-comparison joins, §2.1 Query 2).
    Ptr(TupleId),
}

impl KeyValue {
    /// Total order consistent with [`AttrAdapter`]'s entry comparisons.
    #[must_use]
    pub fn cmp_value(&self, v: &Value<'_>) -> Ordering {
        match (v, self) {
            (Value::Int(a), KeyValue::Int(b)) => a.cmp(b),
            (Value::Str(a), KeyValue::Str(b)) => (*a).cmp(b.as_str()),
            (Value::Ptr(a), KeyValue::Ptr(b)) => a.unwrap_or_else(TupleId::null).cmp(b),
            // Heterogeneous comparisons order by type tag; they only occur
            // on user error (probing an int index with a string).
            _ => rank_value(v).cmp(&rank_key(self)),
        }
    }

    /// Hash consistent with [`AttrAdapter`]'s entry hashing.
    #[must_use]
    pub fn hash(&self) -> u64 {
        match self {
            KeyValue::Int(i) => mix64(*i as u64),
            KeyValue::Str(s) => hash_str(s),
            KeyValue::Ptr(t) => hash_tid(*t),
        }
    }

    /// Order tag consistent with [`value_order_tag`] (a schema keeps each
    /// attribute homogeneous, so the per-variant embeddings never mix
    /// within one index).
    #[must_use]
    pub fn order_tag(&self) -> u64 {
        match self {
            KeyValue::Int(i) => int_order_tag(*i),
            KeyValue::Str(s) => str_order_tag(s),
            KeyValue::Ptr(t) => tid_order_tag(*t),
        }
    }

    /// Whether this key's [`KeyValue::order_tag`] is exact against an
    /// attribute of type `ty`: the attribute's tags are exact
    /// ([`order_tag_exact`]) and the key has the attribute's type, so
    /// comparing tags is comparing values.
    #[must_use]
    pub fn tag_exact_for(&self, ty: AttrType) -> bool {
        order_tag_exact(ty) && rank_type(ty) == rank_key(self)
    }
}

impl From<i64> for KeyValue {
    fn from(i: i64) -> Self {
        KeyValue::Int(i)
    }
}

impl From<&str> for KeyValue {
    fn from(s: &str) -> Self {
        KeyValue::Str(s.to_string())
    }
}

impl From<TupleId> for KeyValue {
    fn from(t: TupleId) -> Self {
        KeyValue::Ptr(t)
    }
}

fn rank_value(v: &Value<'_>) -> u8 {
    match v {
        Value::Int(_) => 0,
        Value::Str(_) => 1,
        Value::Ptr(_) => 2,
        Value::PtrList(_) => 3,
    }
}

fn rank_type(ty: AttrType) -> u8 {
    match ty {
        AttrType::Int => 0,
        AttrType::Str => 1,
        AttrType::Ptr => 2,
        AttrType::PtrList => 3,
    }
}

fn rank_key(k: &KeyValue) -> u8 {
    match k {
        KeyValue::Int(_) => 0,
        KeyValue::Str(_) => 1,
        KeyValue::Ptr(_) => 2,
    }
}

/// FNV-1a over string bytes.
fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    mix64(h)
}

fn hash_tid(t: TupleId) -> u64 {
    mix64((u64::from(t.partition) << 32) | u64::from(t.slot))
}

/// Order-preserving embedding of an `i64` into `u64` (flip the sign bit).
fn int_order_tag(i: i64) -> u64 {
    (i as u64) ^ (1 << 63)
}

/// First eight bytes of a string, big-endian, zero-padded: numeric order
/// on the tag is lexicographic order on the (padded) prefix, so unequal
/// tags order exactly like the strings and shared-prefix ties come back
/// equal (undecided).
fn str_order_tag(s: &str) -> u64 {
    let mut buf = [0u8; 8];
    let b = s.as_bytes();
    let n = b.len().min(8);
    buf[..n].copy_from_slice(&b[..n]);
    u64::from_be_bytes(buf)
}

/// Order-preserving embedding of a tuple id (partition-major, matching
/// its derived `Ord`).
fn tid_order_tag(t: TupleId) -> u64 {
    (u64::from(t.partition) << 32) | u64::from(t.slot)
}

/// Whether an attribute of type `ty` has exact order tags: an `Int` or
/// `Ptr` tag is the value itself, so equal tags are equal keys and a tie
/// never needs the tuple. A `Str` tag holds only an 8-byte prefix and a
/// `PtrList` tag nothing.
#[must_use]
pub fn order_tag_exact(ty: AttrType) -> bool {
    matches!(ty, AttrType::Int | AttrType::Ptr)
}

/// Visit `(tid, order tag)` of attribute `attr` for every live tuple of
/// `rel`, in ascending tid order, decoding each tag straight from the raw
/// partition cell (the slot layout of [`crate::partition`]; no tuple id
/// is resolved and no [`Value`] is built). The tag equals
/// [`value_order_tag`] of the field, NULL pointers included. Only exact
/// tags ([`order_tag_exact`]) decode from the cell alone: for any other
/// attribute, or one past the arity, nothing is visited and `false` comes
/// back.
pub fn for_each_exact_tag(
    rel: &Relation,
    attr: usize,
    mut visit: impl FnMut(TupleId, u64),
) -> bool {
    let ty = match rel.schema().attr(attr) {
        Ok(a) if order_tag_exact(a.ty) => a.ty,
        _ => return false,
    };
    for view in rel.partition_views() {
        let p = view.index();
        if ty == AttrType::Int {
            view.for_each_cell(attr, |slot, c| {
                visit(TupleId::new(p, slot), int_order_tag(i64::from_le_bytes(c)));
            });
        } else {
            view.for_each_cell(attr, |slot, c| {
                let target = TupleId::new(
                    u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                    u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
                );
                visit(TupleId::new(p, slot), tid_order_tag(target));
            });
        }
    }
    true
}

/// [`mmdb_index::adapter::Adapter::entry_tag`] for a field value: a
/// monotone summary comparable without re-dereferencing the tuple. A
/// pointer list has no single key; it tags as 0 (always undecided).
#[must_use]
pub fn value_order_tag(v: &Value<'_>) -> u64 {
    match v {
        Value::Int(i) => int_order_tag(*i),
        Value::Str(s) => str_order_tag(s),
        Value::Ptr(p) => tid_order_tag(p.unwrap_or_else(TupleId::null)),
        Value::PtrList(_) => 0,
    }
}

/// [`Adapter::key_tag`] of `key` against `rel`'s attribute `attr`. A key
/// of the attribute's type tags as [`KeyValue::order_tag`]. A key of
/// another type compares by type rank with every entry, all below it or
/// all above it, so it tags as the top or the bottom of the tag order:
/// the tag then still orders like the comparison does.
fn key_order_tag(rel: &Relation, attr: usize, key: &KeyValue) -> u64 {
    let rank = rel.schema().attr(attr).map_or(3, |a| rank_type(a.ty));
    match rank.cmp(&rank_key(key)) {
        Ordering::Equal => key.order_tag(),
        Ordering::Less => u64::MAX,
        Ordering::Greater => 0,
    }
}

/// Hash a field value, consistently with [`KeyValue::hash`]. Public so
/// query operators (hash join build, hash-based duplicate elimination) can
/// hash extracted attribute values directly.
#[must_use]
pub fn value_hash(v: &Value<'_>) -> u64 {
    match v {
        Value::Int(i) => mix64(*i as u64),
        Value::Str(s) => hash_str(s),
        Value::Ptr(p) => hash_tid(p.unwrap_or_else(TupleId::null)),
        Value::PtrList(l) => {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for t in l {
                h ^= hash_tid(*t);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            mix64(h)
        }
    }
}

/// Adapter that dereferences [`TupleId`] entries to one attribute. It
/// stores only the attribute position: the relation is each operation's
/// context ([`Adapter::Ctx`]), so an index borrows the relation its
/// caller already borrows instead of reaching for it per comparison.
#[derive(Debug, Clone, Copy)]
pub struct AttrAdapter {
    attr: usize,
}

impl AttrAdapter {
    /// Index attribute `attr`.
    #[must_use]
    pub fn new(attr: usize) -> Self {
        AttrAdapter { attr }
    }

    /// Extract the indexed attribute of a tuple.
    #[must_use]
    pub fn value_of<'r>(&self, rel: &'r Relation, tid: TupleId) -> Value<'r> {
        // The Adapter trait's comparators are infallible by design (§2.2:
        // an index entry *is* a tuple pointer, so dereferencing cannot
        // fail in a consistent database). A dead entry here means the
        // index and relation have drifted apart -- exactly the invariant
        // `mmdb-check`'s reachability pass verifies -- so panicking with
        // the violated invariant is the only sound response.
        match rel.field(tid, self.attr) {
            Ok(v) => v,
            Err(e) => panic!("index entry {tid:?} must reference a live tuple: {e}"),
        }
    }
}

impl Adapter for AttrAdapter {
    type Entry = TupleId;
    type Key = KeyValue;
    type Ctx<'c> = &'c Relation;

    fn cmp_entries(&self, rel: &Relation, a: &TupleId, b: &TupleId) -> Ordering {
        self.value_of(rel, *a).total_cmp(&self.value_of(rel, *b))
    }

    fn cmp_entry_key(&self, rel: &Relation, e: &TupleId, key: &KeyValue) -> Ordering {
        key.cmp_value(&self.value_of(rel, *e))
    }

    fn entry_tag(&self, rel: &Relation, e: &TupleId) -> u64 {
        value_order_tag(&self.value_of(rel, *e))
    }

    fn key_tag(&self, rel: &Relation, key: &KeyValue) -> u64 {
        key_order_tag(rel, self.attr, key)
    }

    /// See [`KeyValue::tag_exact_for`].
    fn key_tag_exact(&self, rel: &Relation, key: &KeyValue) -> bool {
        rel.schema()
            .attr(self.attr)
            .is_ok_and(|a| key.tag_exact_for(a.ty))
    }
}

impl HashAdapter for AttrAdapter {
    fn hash_entry(&self, rel: &Relation, e: &TupleId) -> u64 {
        value_hash(&self.value_of(rel, *e))
    }

    fn hash_key(&self, key: &KeyValue) -> u64 {
        key.hash()
    }
}

/// Adapter that indexes the rows of a **temporary list** (§2.3: *"it is
/// also possible to have an index on a temporary list"*). Entries are row
/// numbers into the list; the key is one field of one source relation,
/// reached through the row's tuple pointer.
#[derive(Clone, Copy)]
pub struct TempListAdapter<'a> {
    list: &'a crate::templist::TempList,
    rel: &'a Relation,
    /// Which source column of the list holds the tuple pointer.
    source: usize,
    /// Which attribute of that source relation is the key.
    attr: usize,
}

impl<'a> TempListAdapter<'a> {
    /// Index `list` on `rel`'s attribute `attr`, reached through source
    /// column `source` of each row.
    #[must_use]
    pub fn new(
        list: &'a crate::templist::TempList,
        rel: &'a Relation,
        source: usize,
        attr: usize,
    ) -> Self {
        TempListAdapter {
            list,
            rel,
            source,
            attr,
        }
    }

    /// Extract the key value of row `row`.
    #[must_use]
    pub fn value_of(&self, row: u32) -> Value<'a> {
        let tid = self.list.row(row as usize)[self.source];
        // Infallible for the same reason as `AttrAdapter::value_of`: a
        // temp-list row that no longer dereferences is index/relation
        // drift, which the verification layer reports as a violation.
        match self.rel.field(tid, self.attr) {
            Ok(v) => v,
            Err(e) => panic!("temp-list row {tid:?} must reference a live tuple: {e}"),
        }
    }
}

impl Adapter for TempListAdapter<'_> {
    type Entry = u32;
    type Key = KeyValue;
    type Ctx<'c> = ();

    fn cmp_entries(&self, (): (), a: &u32, b: &u32) -> Ordering {
        self.value_of(*a).total_cmp(&self.value_of(*b))
    }

    fn cmp_entry_key(&self, (): (), e: &u32, key: &KeyValue) -> Ordering {
        key.cmp_value(&self.value_of(*e))
    }

    fn entry_tag(&self, (): (), e: &u32) -> u64 {
        value_order_tag(&self.value_of(*e))
    }

    fn key_tag(&self, (): (), key: &KeyValue) -> u64 {
        key_order_tag(self.rel, self.attr, key)
    }
}

impl HashAdapter for TempListAdapter<'_> {
    fn hash_entry(&self, (): (), e: &u32) -> u64 {
        value_hash(&self.value_of(*e))
    }

    fn hash_key(&self, key: &KeyValue) -> u64 {
        key.hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionConfig;
    use crate::schema::{AttrType, Schema};
    use crate::value::OwnedValue;
    use mmdb_index::traits::OrderedIndex;
    use mmdb_index::{TTree, TTreeConfig};

    fn people() -> (Relation, Vec<TupleId>) {
        let mut r = Relation::new(
            "people",
            Schema::of(&[("name", AttrType::Str), ("age", AttrType::Int)]),
            PartitionConfig::default(),
        );
        let names = ["Dave", "Suzan", "Yaman", "Jane", "Cindy"];
        let ages = [24i64, 27, 54, 47, 22];
        let tids = names
            .iter()
            .zip(ages)
            .map(|(n, a)| {
                r.insert(&[OwnedValue::Str((*n).into()), OwnedValue::Int(a)])
                    .unwrap()
            })
            .collect();
        (r, tids)
    }

    #[test]
    fn cmp_entries_orders_by_attribute() {
        let (r, tids) = people();
        let by_age = AttrAdapter::new(1);
        // Dave(24) < Suzan(27)
        assert_eq!(by_age.cmp_entries(&r, &tids[0], &tids[1]), Ordering::Less);
        let by_name = AttrAdapter::new(0);
        // "Cindy" < "Dave"
        assert_eq!(by_name.cmp_entries(&r, &tids[4], &tids[0]), Ordering::Less);
    }

    #[test]
    fn key_comparisons() {
        let (r, tids) = people();
        let by_age = AttrAdapter::new(1);
        assert_eq!(
            by_age.cmp_entry_key(&r, &tids[0], &KeyValue::Int(24)),
            Ordering::Equal
        );
        assert_eq!(
            by_age.cmp_entry_key(&r, &tids[0], &KeyValue::Int(30)),
            Ordering::Less
        );
        let by_name = AttrAdapter::new(0);
        assert_eq!(
            by_name.cmp_entry_key(&r, &tids[1], &KeyValue::from("Suzan")),
            Ordering::Equal
        );
    }

    #[test]
    fn hash_agreement_entry_vs_key() {
        let (r, tids) = people();
        let by_name = AttrAdapter::new(0);
        assert_eq!(
            by_name.hash_entry(&r, &tids[2]),
            by_name.hash_key(&KeyValue::from("Yaman"))
        );
        let by_age = AttrAdapter::new(1);
        assert_eq!(
            by_age.hash_entry(&r, &tids[3]),
            by_age.hash_key(&KeyValue::Int(47))
        );
    }

    #[test]
    fn ttree_over_relation_attribute() {
        // End-to-end §2.2: a T-Tree whose entries are tuple pointers.
        let (mut r, tids) = people();
        let adapter = AttrAdapter::new(1);
        let mut idx = TTree::new(adapter, TTreeConfig::with_node_size(4));
        for t in &tids {
            idx.insert(&r, *t);
        }
        idx.validate(&r).unwrap();
        let hit = idx.search(&r, &KeyValue::Int(54)).unwrap();
        assert_eq!(r.field_by_name(hit, "name").unwrap(), Value::Str("Yaman"));
        // Ordered scan returns people in age order.
        let mut ages = Vec::new();
        idx.scan(&mut |t| {
            ages.push(r.field_by_name(*t, "age").unwrap().as_int().unwrap());
        });
        assert_eq!(ages, vec![22, 24, 27, 47, 54]);
        // The index holds no borrow between operations, so the relation
        // can be mutated in between.
        let zed = r
            .insert(&[OwnedValue::Str("Zed".into()), OwnedValue::Int(99)])
            .unwrap();
        idx.insert(&r, zed);
        idx.validate(&r).unwrap();
        assert_eq!(idx.search(&r, &KeyValue::Int(99)), Some(zed));
    }

    #[test]
    fn templist_adapter_indexes_rows() {
        use crate::templist::TempList;
        let (r, tids) = people();
        // An arity-1 temp list of everyone, indexed on age.
        let list = TempList::from_tids(tids);
        let ad = TempListAdapter::new(&list, &r, 0, 1);
        let mut idx = TTree::new(ad, TTreeConfig::with_node_size(3));
        for row in 0..list.len() as u32 {
            idx.insert((), row);
        }
        idx.validate(()).unwrap();
        // Search by age through the temp-list index.
        let row = idx.search((), &KeyValue::Int(47)).unwrap();
        assert_eq!(
            r.field(list.row(row as usize)[0], 0).unwrap(),
            Value::Str("Jane")
        );
        // Ordered scan respects age order.
        let mut ages = Vec::new();
        idx.scan(&mut |row| {
            ages.push(
                r.field(list.row(*row as usize)[0], 1)
                    .unwrap()
                    .as_int()
                    .unwrap(),
            );
        });
        assert_eq!(ages, vec![22, 24, 27, 47, 54]);
    }

    #[test]
    fn order_tags_are_monotone_with_comparisons() {
        // Unequal tags must order exactly like the values; equal tags
        // are allowed only for genuinely tied prefixes.
        let ints = [i64::MIN, -7, -1, 0, 1, 42, i64::MAX];
        for w in ints.windows(2) {
            assert!(
                KeyValue::Int(w[0]).order_tag() < KeyValue::Int(w[1]).order_tag(),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        let strs = ["", "a", "ab", "abcdefgh", "abcdefghZZZ", "b"];
        for (i, a) in strs.iter().enumerate() {
            for b in &strs[i + 1..] {
                assert!(
                    KeyValue::from(*a).order_tag() <= KeyValue::from(*b).order_tag(),
                    "{a:?} vs {b:?}"
                );
            }
        }
        // Shared 8-byte prefix: the tag ties (undecided), never inverts.
        assert_eq!(
            KeyValue::from("abcdefghAAA").order_tag(),
            KeyValue::from("abcdefghZZZ").order_tag()
        );
        assert!(
            KeyValue::Ptr(TupleId::new(0, 9)).order_tag()
                < KeyValue::Ptr(TupleId::new(1, 0)).order_tag()
        );
    }

    #[test]
    fn tagged_descent_matches_untagged() {
        // Differential: a T-Tree probed through the tag-caching adapter
        // must behave identically to one whose adapter keeps the default
        // (always-undecided) tags.
        struct Untagged(AttrAdapter);
        impl Adapter for Untagged {
            type Entry = TupleId;
            type Key = KeyValue;
            type Ctx<'c> = &'c Relation;
            fn cmp_entries(&self, rel: &Relation, a: &TupleId, b: &TupleId) -> Ordering {
                self.0.cmp_entries(rel, a, b)
            }
            fn cmp_entry_key(&self, rel: &Relation, e: &TupleId, key: &KeyValue) -> Ordering {
                self.0.cmp_entry_key(rel, e, key)
            }
            // entry_tag/key_tag deliberately left at the default 0.
        }

        let mut r = Relation::new(
            "t",
            Schema::of(&[("name", AttrType::Str), ("v", AttrType::Int)]),
            PartitionConfig::default(),
        );
        let tids: Vec<TupleId> = (0..500i64)
            .map(|i| {
                r.insert(&[
                    OwnedValue::Str(format!("name-{:03}", (i * 131) % 500)),
                    OwnedValue::Int((i * 37) % 200),
                ])
                .unwrap()
            })
            .collect();
        for attr in [0, 1] {
            let mut tagged = TTree::new(AttrAdapter::new(attr), TTreeConfig::with_node_size(6));
            let mut plain = TTree::new(
                Untagged(AttrAdapter::new(attr)),
                TTreeConfig::with_node_size(6),
            );
            for t in &tids {
                tagged.insert(&r, *t);
                plain.insert(&r, *t);
            }
            tagged.validate(&r).unwrap();
            plain.validate(&r).unwrap();
            for i in 0..200i64 {
                let key = if attr == 1 {
                    KeyValue::Int(i)
                } else {
                    KeyValue::Str(format!("name-{:03}", i))
                };
                let mut a = Vec::new();
                let mut b = Vec::new();
                tagged.search_all(&r, &key, &mut a);
                plain.search_all(&r, &key, &mut b);
                assert_eq!(a, b, "{attr} key {key:?}");
            }
            for t in tids.iter().step_by(3) {
                assert!(tagged.delete_entry(&r, t));
                assert!(plain.delete_entry(&r, t));
            }
            tagged.validate(&r).unwrap();
            plain.validate(&r).unwrap();
            assert_eq!(
                tagged.iter().collect::<Vec<_>>(),
                plain.iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn key_value_conversions() {
        assert_eq!(KeyValue::from(5i64), KeyValue::Int(5));
        assert_eq!(KeyValue::from("x"), KeyValue::Str("x".into()));
        let t = TupleId::new(1, 2);
        assert_eq!(KeyValue::from(t), KeyValue::Ptr(t));
    }
}
