//! Hash Join (§3.3.2).
//!
//! *"The Hash Join builds a Chained Bucket Hash index on the join column
//! of the inner relation, and then it uses this index to find matching
//! tuples during the join."* The paper always charges the build cost —
//! "we always include the cost of building a hash table, because we feel
//! that a hash table index is less likely to exist than a T Tree index."
//!
//! Cost model (§3.3.4 Test 1): ≈ |R1| + |R1|·k probes with k a fixed
//! lookup cost — "much smaller than log₂(|R2|) but larger than 2".
//!
//! The probe loop is **batched**: a batch of outer keys is materialized
//! (tuple dereference + hash) before any bucket is walked, then the
//! batch probes the table in a tight loop. The table stores each entry's
//! 64-bit hash next to its chain link, so a chain walk compares integers
//! and dereferences an inner tuple only when the full hashes already
//! agree — bucket lines stay hot across the batch and almost every
//! non-match is decided without touching tuple memory.

use super::{JoinOutput, JoinSide};
use crate::error::ExecError;
use mmdb_index::stats::Counters;
use mmdb_storage::{value_hash, KeyValue, TempList, TupleId, Value};
use std::cmp::Ordering;

/// Convert an extracted join value into a probe key. Returns `None` for
/// values that cannot match anything (NULL pointers, pointer lists).
pub(crate) fn probe_key(v: &Value<'_>) -> Option<KeyValue> {
    match v {
        Value::Int(i) => Some(KeyValue::Int(*i)),
        Value::Str(s) => Some(KeyValue::Str((*s).to_string())),
        Value::Ptr(Some(t)) => Some(KeyValue::Ptr(*t)),
        Value::Ptr(None) | Value::PtrList(_) => None,
    }
}

/// True when the value can match something (same filter as [`probe_key`],
/// without building an owned key).
fn probe_eligible(v: &Value<'_>) -> bool {
    !matches!(v, Value::Ptr(None) | Value::PtrList(_))
}

/// Outer tuples hashed per probe batch before the tight probe loop.
const PROBE_BATCH: usize = 1024;

/// Chain terminator in [`BatchProbeTable`]'s link arrays.
const NIL: u32 = u32::MAX;

/// Read-only chained-bucket probe table over the inner join side.
/// Replicates the chained-bucket *observable* semantics of
/// [`mmdb_index::ChainedBucketHash`]: prepend-on-insert chains walked
/// head-first, so per-key matches come back in reverse insertion order.
struct BatchProbeTable<'a> {
    inner: JoinSide<'a>,
    heads: Vec<u32>,
    next: Vec<u32>,
    /// Full 64-bit hash of each entry's join value: chain walks filter on
    /// this before dereferencing the inner tuple.
    hashes: Vec<u64>,
    mask: u64,
    /// Counters accumulated while building (one hash call per entry).
    build_stats: mmdb_index::stats::Snapshot,
}

impl<'a> BatchProbeTable<'a> {
    /// Build on the inner side, inserting `inner.tids` in order exactly
    /// like the serial chained-bucket build loop.
    // mmdb-lint: allow(panic-path) — `next`/`hashes` are sized to inner.len() and indexed by the enumerate index `node < inner.len()`; `heads` has table_size entries and every bucket index is masked with `table_size - 1`
    fn build(inner: JoinSide<'a>) -> Result<Self, ExecError> {
        let table_size = inner.len().max(8).next_power_of_two();
        let mask = (table_size - 1) as u64;
        let mut heads = vec![NIL; table_size];
        let mut next = vec![NIL; inner.len()];
        let mut hashes = vec![0u64; inner.len()];
        let counters = Counters::default();
        for (node, &it) in inner.tids.iter().enumerate() {
            let v = inner.value(it)?;
            counters.hash_calls(1);
            let h = value_hash(&v);
            hashes[node] = h;
            let bucket = (h & mask) as usize;
            next[node] = heads[bucket];
            heads[bucket] = node as u32;
        }
        Ok(BatchProbeTable {
            inner,
            heads,
            next,
            hashes,
            mask,
            build_stats: counters.snapshot(),
        })
    }

    /// Probe with the whole outer side, appending `(outer, inner)` pairs
    /// to `out` in outer order with per-key matches in reverse insertion
    /// order. Outer tuples are dereferenced and hashed a
    /// [`PROBE_BATCH`]-sized batch at a time; the subsequent probe loop
    /// touches only the batch, the bucket arrays, and (on full-hash
    /// agreement) the candidate inner tuple.
    // mmdb-lint: allow(panic-path) — bucket indices are masked; `node` values come from heads/next, which hold only NIL or indices < inner.len()
    fn probe(
        &self,
        outer: JoinSide<'_>,
        out: &mut TempList,
        counters: &Counters,
    ) -> Result<(), ExecError> {
        let mut batch: Vec<(TupleId, u64, Value<'_>)> = Vec::with_capacity(PROBE_BATCH);
        for chunk in outer.tids.chunks(PROBE_BATCH) {
            batch.clear();
            for &ot in chunk {
                let ov = outer.value(ot)?;
                if probe_eligible(&ov) {
                    counters.hash_calls(1);
                    batch.push((ot, value_hash(&ov), ov));
                }
            }
            for (ot, h, ov) in &batch {
                let mut node = self.heads[(h & self.mask) as usize];
                while node != NIL {
                    counters.node_visits(1);
                    counters.comparisons(1);
                    if self.hashes[node as usize] == *h {
                        let it = self.inner.tids[node as usize];
                        let iv = self.inner.value(it)?;
                        if ov.total_cmp(&iv) == Ordering::Equal {
                            out.push_pair(*ot, it)?;
                        }
                    }
                    node = self.next[node as usize];
                }
            }
        }
        Ok(())
    }
}

/// Join by building a chained-bucket hash table on the inner side and
/// probing it with batches of outer keys. The returned stats
/// include the build.
pub fn hash_join(outer: JoinSide<'_>, inner: JoinSide<'_>) -> Result<JoinOutput, ExecError> {
    let table = BatchProbeTable::build(inner)?;
    let counters = Counters::default();
    let mut out = TempList::new(2);
    table.probe(outer, &mut out, &counters)?;
    Ok(JoinOutput {
        pairs: out,
        stats: table.build_stats.plus(&counters.snapshot()),
    })
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::*;

    #[test]
    fn matches_reference() {
        let ov = random_values(400, 60, 5);
        let iv = random_values(300, 60, 6);
        let (orel, otids) = rel_with_values("o", &ov);
        let (irel, itids) = rel_with_values("i", &iv);
        let out = hash_join(
            JoinSide::new(&orel, 1, &otids),
            JoinSide::new(&irel, 1, &itids),
        )
        .unwrap();
        assert_eq!(
            normalize(&out.pairs, &orel, &irel),
            expected_pairs(&ov, &iv)
        );
    }

    #[test]
    fn empty_sides() {
        let (rel, tids) = rel_with_values("r", &[1, 2, 3]);
        let empty: Vec<mmdb_storage::TupleId> = vec![];
        assert!(hash_join(
            JoinSide::new(&rel, 1, &empty),
            JoinSide::new(&rel, 1, &tids)
        )
        .unwrap()
        .is_empty());
        assert!(hash_join(
            JoinSide::new(&rel, 1, &tids),
            JoinSide::new(&rel, 1, &empty)
        )
        .unwrap()
        .is_empty());
    }

    #[cfg(feature = "stats")]
    #[test]
    fn probe_cost_independent_of_inner_size() {
        // The paper: "A hash table has a fixed cost, independent of the
        // index size, to look up a value."
        let per_probe = |inner_n: usize| -> f64 {
            let ov = random_values(200, 1 << 30, 7); // mostly no matches
            let iv: Vec<i64> = (0..inner_n as i64).collect();
            let (orel, otids) = rel_with_values("o", &ov);
            let (irel, itids) = rel_with_values("i", &iv);
            let out = hash_join(
                JoinSide::new(&orel, 1, &otids),
                JoinSide::new(&irel, 1, &itids),
            )
            .unwrap();
            // Subtract the build's hash calls (one per inner tuple).
            (out.stats.hash_calls - inner_n as u64) as f64 / 200.0
        };
        let small = per_probe(1_000);
        let large = per_probe(30_000);
        assert!(
            (small - large).abs() < 0.5,
            "probe cost should be flat: {small} vs {large}"
        );
    }

    #[test]
    fn string_join_keys() {
        use mmdb_storage::{AttrType, OwnedValue, PartitionConfig, Relation, Schema};
        let schema = Schema::of(&[("name", AttrType::Str)]);
        let mut r1 = Relation::new("r1", schema.clone(), PartitionConfig::default());
        let mut r2 = Relation::new("r2", schema, PartitionConfig::default());
        let t1: Vec<_> = ["a", "b", "c"]
            .iter()
            .map(|s| r1.insert(&[OwnedValue::Str((*s).into())]).unwrap())
            .collect();
        let t2: Vec<_> = ["b", "c", "d", "b"]
            .iter()
            .map(|s| r2.insert(&[OwnedValue::Str((*s).into())]).unwrap())
            .collect();
        let out = hash_join(JoinSide::new(&r1, 0, &t1), JoinSide::new(&r2, 0, &t2)).unwrap();
        // b matches twice, c once.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn null_pointer_keys_never_match() {
        use mmdb_storage::{AttrType, OwnedValue, PartitionConfig, Relation, Schema, TupleId};
        let schema = Schema::of(&[("p", AttrType::Ptr)]);
        let mut r1 = Relation::new("r1", schema.clone(), PartitionConfig::default());
        let mut r2 = Relation::new("r2", schema, PartitionConfig::default());
        let a = r1.insert(&[OwnedValue::Ptr(None)]).unwrap();
        let b = r1
            .insert(&[OwnedValue::Ptr(Some(TupleId::new(5, 5)))])
            .unwrap();
        let t1 = vec![a, b];
        let t2 = vec![
            r2.insert(&[OwnedValue::Ptr(None)]).unwrap(),
            r2.insert(&[OwnedValue::Ptr(Some(TupleId::new(5, 5)))])
                .unwrap(),
        ];
        let out = hash_join(JoinSide::new(&r1, 0, &t1), JoinSide::new(&r2, 0, &t2)).unwrap();
        // Only the non-null pointer pair joins; NULL never matches NULL.
        assert_eq!(out.len(), 1);
    }
}
