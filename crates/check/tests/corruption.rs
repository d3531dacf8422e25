//! Negative tests: corrupt each structure through its feature-gated raw
//! mutation hooks and demand the checker rejects it with a precise
//! diagnostic — structure, node/bucket id, and the violated invariant.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmdb_check::log_checks::check_log_buffer;
use mmdb_check::DeepCheck;
use mmdb_index::adapter::NaturalAdapter;
use mmdb_index::traits::{OrderedIndex, UnorderedIndex};
use mmdb_index::{ChainedBucketHash, TTree, TTreeConfig};
use mmdb_recovery::{PartitionKey, StableLogBuffer};

fn ttree(n: u64) -> TTree<NaturalAdapter<u64>> {
    let mut t = TTree::new(NaturalAdapter::new(), TTreeConfig::with_node_size(4));
    for k in 0..n {
        t.insert((), k);
    }
    t
}

#[test]
fn ttree_overfilled_node_is_rejected() {
    let mut t = ttree(40);
    let root = t.raw_root().unwrap();
    let max = t.config().max_count;
    // Append in-order duplicates of the node maximum: sortedness stays
    // intact, so only the occupancy invariant is violated.
    let items = t.raw_items_mut(root);
    let top = items[items.len() - 1];
    while items.len() <= max {
        items.push(top);
    }
    let msg = t.deep_check(()).into_result().unwrap_err();
    assert!(msg.contains("[ttree]"), "{msg}");
    assert!(msg.contains("node-occupancy-max"), "{msg}");
    assert!(msg.contains(&format!("node {root}")), "{msg}");
    assert!(msg.contains(&format!("max_count {max}")), "{msg}");
}

#[test]
fn ttree_underfilled_internal_node_is_rejected() {
    let mut t = ttree(100);
    // Pick an internal node (both children) whose GLB donor has spares.
    let internal = t
        .raw_nodes()
        .into_iter()
        .find(|v| v.left.is_some() && v.right.is_some())
        .expect("a 100-key tree with node size 4 has internal nodes");
    let id = internal.id;
    let min = t.config().min_count();
    t.raw_items_mut(id).truncate(min - 1);
    let msg = t.deep_check(()).into_result().unwrap_err();
    assert!(msg.contains("[ttree]"), "{msg}");
    assert!(msg.contains("node-occupancy-min"), "{msg}");
    assert!(msg.contains(&format!("node {id}")), "{msg}");
}

/// Bulk construction must not be a loophole around the occupancy
/// invariant: a correct `build_from_sorted` passes the deep check, and
/// a build deliberately under-filling its nodes (fill below
/// `min_count`) is flagged on the same `node-occupancy-min` finding
/// incremental corruption is.
#[test]
fn ttree_underfilled_bulk_build_is_rejected() {
    let config = TTreeConfig::with_node_size(8);
    // NaturalAdapter's entry tags are the default 0, so pre-tagged
    // pairs carry 0 (bulk build requires tags agree with the adapter).
    let tagged: Vec<(u64, u64)> = (0..200u64).map(|k| (0, k)).collect();
    let good = TTree::build_from_sorted(NaturalAdapter::new(), (), config, tagged.clone());
    good.validate(()).unwrap();
    good.deep_check(()).assert_ok();
    // Fill 2 per node: internal nodes sit far below min_count while
    // their GLB donor leaves have entries to spare.
    let min = config.min_count();
    assert!(2 < min, "fill must undercut min_count {min}");
    let bad = TTree::raw_build_with_fill(NaturalAdapter::new(), (), config, tagged, 2);
    let msg = bad.deep_check(()).into_result().unwrap_err();
    assert!(msg.contains("[ttree]"), "{msg}");
    assert!(msg.contains("node-occupancy-min"), "{msg}");
    assert!(msg.contains(&format!("min_count {min}")), "{msg}");
}

#[test]
fn ttree_swapped_keys_are_rejected() {
    let mut t = ttree(40);
    let victim = t
        .raw_nodes()
        .into_iter()
        .find(|v| v.entries.len() >= 2)
        .expect("node-size-4 tree has multi-entry nodes");
    let id = victim.id;
    t.raw_items_mut(id).swap(0, 1);
    let msg = t.deep_check(()).into_result().unwrap_err();
    assert!(msg.contains("[ttree]"), "{msg}");
    assert!(msg.contains("key-order"), "{msg}");
    assert!(msg.contains(&format!("node {id}")), "{msg}");
}

#[test]
fn chained_hash_swapped_bucket_heads_are_rejected() {
    let mut h: ChainedBucketHash<NaturalAdapter<u64>> =
        ChainedBucketHash::with_capacity(NaturalAdapter::new(), 16);
    for k in 0..64u64 {
        UnorderedIndex::insert(&mut h, (), k);
    }
    // Two non-empty buckets whose chains now live under the wrong head.
    let full: Vec<usize> = h
        .raw_buckets()
        .into_iter()
        .filter(|b| !b.entries.is_empty())
        .map(|b| b.bucket)
        .collect();
    let (a, b) = (full[0], full[1]);
    h.raw_swap_heads(a, b);
    let msg = h.deep_check(()).into_result().unwrap_err();
    assert!(msg.contains("[chained-hash]"), "{msg}");
    assert!(msg.contains("bucket-addressing"), "{msg}");
    assert!(
        msg.contains(&format!("bucket {a}")) && msg.contains(&format!("bucket {b}")),
        "{msg}"
    );
}

#[test]
fn log_lsn_regression_is_rejected() {
    let mut buf = StableLogBuffer::new();
    for txn in 0..4u64 {
        buf.log(txn, PartitionKey::new(1, txn as u32), vec![0xAB; 16]);
        buf.commit(txn);
    }
    check_log_buffer(&buf).assert_ok();
    // Rewind one committed record's LSN: monotonicity breaks at a known
    // position and the duplicate shows up too.
    let lsn0 = buf.committed_records()[0].lsn;
    buf.committed_records_mut()[2].lsn = lsn0;
    let msg = check_log_buffer(&buf).into_result().unwrap_err();
    assert!(msg.contains("[log]"), "{msg}");
    assert!(msg.contains("lsn-monotone"), "{msg}");
    assert!(msg.contains("lsn-duplicate"), "{msg}");
    assert!(msg.contains(&format!("lsn {lsn0}")), "{msg}");
}
