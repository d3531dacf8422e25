//! Entry/key adapters: how an index reaches "the key" of an entry.
//!
//! §2.2 of the paper: *"it is not necessary for a main memory index to
//! store actual attribute values. Instead, pointers to tuples can be stored
//! in their place, and these pointers can be used to extract the attribute
//! values when needed."*
//!
//! Index structures in this crate therefore never constrain their entry
//! type with `Ord`/`Hash`. They store opaque `Copy` entries and delegate
//! all key semantics to an [`Adapter`]. The adapter is split in two: the
//! structure keeps the static part (for a relation adapter, which
//! attribute), and every operation is handed the [`Adapter::Ctx`] it
//! dereferences entries through. In the MM-DBMS that context is the
//! relation the caller already borrows, so a descent takes no lock of
//! its own; in tests and micro-benchmarks [`NaturalAdapter`] compares
//! integers directly and its context is `()`.

use std::cmp::Ordering;
use std::marker::PhantomData;

/// Key semantics for an index entry type.
///
/// `Entry` is what the index physically stores (a tuple pointer in the
/// MM-DBMS). `Key` is the probe type used by searches — typically the
/// attribute value itself.
pub trait Adapter {
    /// The stored entry type (tuple pointer / integer).
    type Entry: Copy + PartialEq;
    /// The probe key type used for searches and range bounds.
    type Key: ?Sized;
    /// What an entry is dereferenced through for one operation: a borrow
    /// of tuple storage for tuple-pointer adapters, `()` for adapters that
    /// hold everything they need.
    type Ctx<'c>: Copy;

    /// Total order over two stored entries (dereference both, compare keys).
    fn cmp_entries(&self, cx: Self::Ctx<'_>, a: &Self::Entry, b: &Self::Entry) -> Ordering;

    /// Compare a stored entry's key against a probe key.
    fn cmp_entry_key(&self, cx: Self::Ctx<'_>, e: &Self::Entry, key: &Self::Key) -> Ordering;

    /// A monotone 64-bit summary of an entry's key: whenever
    /// `cmp_entries(a, b)` is `Less`, `entry_tag(a) <= entry_tag(b)`, and
    /// equal keys always produce equal tags. Unequal tags therefore
    /// decide an order *without* dereferencing the entry — the T-Tree
    /// caches the tags of each node's bounding keys so descent skips the
    /// tuple-pointer dereference on most nodes (§2.2's pointer-chase is
    /// the dominant search cost for stored-attribute adapters). Equal
    /// tags decide nothing and fall back to the full comparison, so the
    /// conservative default of `0` is always correct.
    #[inline]
    fn entry_tag(&self, _cx: Self::Ctx<'_>, _e: &Self::Entry) -> u64 {
        0
    }

    /// The probe-key counterpart of [`Adapter::entry_tag`]: must agree
    /// with it under [`Adapter::cmp_entry_key`] (same monotonicity, and
    /// a key equal to an entry's key gets the entry's tag).
    #[inline]
    fn key_tag(&self, _cx: Self::Ctx<'_>, _key: &Self::Key) -> u64 {
        0
    }

    /// Whether [`Adapter::key_tag`] is exact for `key`: an entry whose tag
    /// equals the key's compares `Equal` to it, so an equal tag decides
    /// too. Range scans use it to pass a node up to an inclusive bound
    /// without dereferencing its entries. The conservative default is
    /// `false`.
    #[inline]
    fn key_tag_exact(&self, _cx: Self::Ctx<'_>, _key: &Self::Key) -> bool {
        false
    }
}

/// Additional semantics required by hash-based indices.
pub trait HashAdapter: Adapter {
    /// Hash a stored entry's key.
    fn hash_entry(&self, cx: Self::Ctx<'_>, e: &Self::Entry) -> u64;

    /// Hash a probe key (must agree with [`HashAdapter::hash_entry`]).
    fn hash_key(&self, key: &Self::Key) -> u64;
}

/// Adapter for entries that *are* their own keys (integers in tests and in
/// the index micro-benchmarks, where the paper likewise indexed 4-byte
/// values through pointers of equal size).
#[derive(Debug, Default, Clone, Copy)]
pub struct NaturalAdapter<T>(PhantomData<T>);

impl<T> NaturalAdapter<T> {
    /// Create a natural adapter.
    #[must_use]
    pub fn new() -> Self {
        NaturalAdapter(PhantomData)
    }
}

impl<T: Copy + Ord> Adapter for NaturalAdapter<T> {
    type Entry = T;
    type Key = T;
    type Ctx<'c> = ();

    #[inline]
    fn cmp_entries(&self, (): (), a: &T, b: &T) -> Ordering {
        a.cmp(b)
    }

    #[inline]
    fn cmp_entry_key(&self, (): (), e: &T, key: &T) -> Ordering {
        e.cmp(key)
    }
}

/// Fibonacci (multiplicative) hashing of a 64-bit value — the fixed-cost
/// hash function the hash-based structures share. Cheap, statistically
/// well-spread, and deliberately *not* perfectly uniform over small tables
/// (the paper notes Chained Bucket Hashing left part of its table unused
/// because "the hash function was not perfectly uniform").
#[inline]
#[must_use]
pub fn mix64(x: u64) -> u64 {
    // splitmix64 finalizer.
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

macro_rules! natural_hash_adapter {
    ($($t:ty),*) => {$(
        impl HashAdapter for NaturalAdapter<$t> {
            #[inline]
            fn hash_entry(&self, (): (), e: &$t) -> u64 {
                mix64(*e as u64)
            }
            #[inline]
            fn hash_key(&self, key: &$t) -> u64 {
                mix64(*key as u64)
            }
        }
    )*};
}

natural_hash_adapter!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn natural_adapter_orders_like_ord() {
        let a = NaturalAdapter::<u64>::new();
        assert_eq!(a.cmp_entries((), &1, &2), Ordering::Less);
        assert_eq!(a.cmp_entries((), &2, &2), Ordering::Equal);
        assert_eq!(a.cmp_entry_key((), &3, &2), Ordering::Greater);
    }

    #[test]
    fn natural_adapter_hash_is_consistent() {
        let a = NaturalAdapter::<u64>::new();
        for k in [0u64, 1, 42, u64::MAX] {
            assert_eq!(a.hash_entry((), &k), a.hash_key(&k));
        }
    }

    #[test]
    fn mix64_spreads_consecutive_keys() {
        // Consecutive integers should land in different low-bit buckets
        // most of the time.
        let mut same_bucket = 0;
        for k in 0..1024u64 {
            if mix64(k) & 0xFF == mix64(k + 1) & 0xFF {
                same_bucket += 1;
            }
        }
        assert!(same_bucket < 30, "too many collisions: {same_bucket}");
    }

    #[test]
    fn mix64_is_deterministic() {
        assert_eq!(mix64(12345), mix64(12345));
        assert_ne!(mix64(12345), mix64(12346));
    }
}
