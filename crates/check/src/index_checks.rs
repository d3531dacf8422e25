//! Deep structural validators for all eight index structures (§3.2).
//!
//! Unlike each structure's own `validate()` (which the structure could get
//! wrong in exactly the way its operations do), these checkers re-derive
//! every invariant *externally* from raw arena/directory snapshots
//! ([`mmdb_index::raw`]) and report precise diagnostics: structure, node
//! id, violated invariant, observed vs. expected.
//!
//! | structure | invariants |
//! |-----------|------------|
//! | T-Tree | key order (in-node + global), balance ≤ 1, stored heights, parent links, max occupancy, internal min occupancy with boundary exemption |
//! | AVL | BST order, balance ≤ 1, stored heights, parent links |
//! | B-Tree | N/N+1 child arity, interior-data ordering, uniform leaf depth, min/max occupancy |
//! | Array | dense sortedness, gap accounting (capacity ≥ len, no holes) |
//! | Chained hash | chain acyclicity, home-bucket addressing, count reconcile |
//! | Extendible hash | directory size = 2^g, slot/pattern coverage, local ≤ global depth, entry patterns |
//! | Linear hash | table size = base + split, split-pointer addressing, count reconcile |
//! | Modified linear | directory size = base + split, chain acyclicity, split-pointer addressing |

use crate::report::Report;
use mmdb_index::adapter::{Adapter, HashAdapter};
use mmdb_index::raw::{BTreeNodeView, TreeNodeView};
use mmdb_index::traits::{OrderedIndex, UnorderedIndex};
use mmdb_index::{
    ArrayIndex, AvlTree, BTree, ChainedBucketHash, ExtendibleHash, LinearHash, ModifiedLinearHash,
    TTree,
};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Uniform entry point: every index structure can be deep-checked,
/// comparing its entries through the adapter context `cx` (see
/// [`Adapter::Ctx`]).
pub trait DeepCheck<A: Adapter> {
    /// Re-derive every structural invariant; returns a clean report or the
    /// full list of violations.
    fn deep_check(&self, cx: A::Ctx<'_>) -> Report;
}

/// First adjacent out-of-order pair in `entries`, if any.
fn first_unsorted<A: Adapter>(adapter: &A, cx: A::Ctx<'_>, entries: &[A::Entry]) -> Option<usize> {
    entries
        .windows(2)
        .position(|w| adapter.cmp_entries(cx, &w[0], &w[1]) == Ordering::Greater)
}

/// Index tree views by node id, reporting duplicate ids (a share or cycle
/// in the child pointers).
fn tree_map<E: Clone>(
    structure: &str,
    views: &[TreeNodeView<E>],
    report: &mut Report,
) -> HashMap<u32, TreeNodeView<E>> {
    let mut map = HashMap::new();
    for v in views {
        if map.insert(v.id, v.clone()).is_some() {
            report.fail(
                structure,
                format!("node {}", v.id),
                "tree-shape",
                "node reachable through two parents (shared child or cycle)".to_string(),
            );
        }
    }
    map
}

/// Shared binary-tree walk: parent links, heights, balance, in-order key
/// order across nodes. Returns nodes in in-order sequence.
fn check_binary_tree<A: Adapter>(
    structure: &str,
    adapter: &A,
    cx: A::Ctx<'_>,
    root: Option<u32>,
    map: &HashMap<u32, TreeNodeView<A::Entry>>,
    report: &mut Report,
) -> Vec<u32> {
    let Some(root) = root else {
        return Vec::new();
    };
    // Parent links.
    for (id, v) in map {
        for (side, child) in [("left", v.left), ("right", v.right)] {
            if let Some(c) = child {
                match map.get(&c) {
                    None => report.fail(
                        structure,
                        format!("node {id}"),
                        "tree-shape",
                        format!("{side} child {c} is not a live node"),
                    ),
                    Some(cv) if cv.parent != Some(*id) => report.fail(
                        structure,
                        format!("node {c}"),
                        "parent-link",
                        format!("parent is {:?}, expected Some({id})", cv.parent),
                    ),
                    _ => {}
                }
            }
        }
    }
    if let Some(rv) = map.get(&root) {
        if rv.parent.is_some() {
            report.fail(
                structure,
                format!("node {root}"),
                "parent-link",
                format!("root has parent {:?}", rv.parent),
            );
        }
    }
    // Heights and balance, bottom-up (iterative post-order to survive
    // corrupted shapes without recursion limits).
    let mut computed: HashMap<u32, i32> = HashMap::new();
    let mut stack = vec![(root, false)];
    let mut guard = 0usize;
    while let Some((id, expanded)) = stack.pop() {
        guard += 1;
        if guard > 4 * (map.len() + 1) {
            break; // cycle; already reported as tree-shape
        }
        let Some(v) = map.get(&id) else { continue };
        if !expanded {
            stack.push((id, true));
            if let Some(l) = v.left {
                stack.push((l, false));
            }
            if let Some(r) = v.right {
                stack.push((r, false));
            }
            continue;
        }
        // Height convention matches the trees: nil = 0, leaf = 1.
        let hl = v.left.and_then(|l| computed.get(&l).copied()).unwrap_or(0);
        let hr = v.right.and_then(|r| computed.get(&r).copied()).unwrap_or(0);
        let h = 1 + hl.max(hr);
        computed.insert(id, h);
        if v.height != h {
            report.fail(
                structure,
                format!("node {id}"),
                "stored-height",
                format!("stored {} computed {h}", v.height),
            );
        }
        if (hl - hr).abs() > 1 {
            report.fail(
                structure,
                format!("node {id}"),
                "balance",
                format!("left height {hl}, right height {hr}"),
            );
        }
    }
    // In-order traversal; check global key order across node boundaries.
    let mut order: Vec<u32> = Vec::new();
    let mut stack: Vec<(u32, bool)> = vec![(root, false)];
    while let Some((id, expanded)) = stack.pop() {
        if order.len() > map.len() {
            break;
        }
        let Some(v) = map.get(&id) else { continue };
        if expanded {
            order.push(id);
            continue;
        }
        if let Some(r) = v.right {
            stack.push((r, false));
        }
        stack.push((id, true));
        if let Some(l) = v.left {
            stack.push((l, false));
        }
    }
    let mut prev: Option<(u32, A::Entry)> = None;
    for id in &order {
        let v = &map[id];
        if let Some(i) = first_unsorted(adapter, cx, &v.entries) {
            report.fail(
                structure,
                format!("node {id}"),
                "key-order",
                format!("entries {i} and {} out of order within node", i + 1),
            );
        }
        if let (Some((pid, pmax)), Some(first)) = (&prev, v.entries.first()) {
            if adapter.cmp_entries(cx, pmax, first) == Ordering::Greater {
                report.fail(
                    structure,
                    format!("node {id}"),
                    "key-order",
                    format!("node minimum sorts below the maximum of predecessor node {pid}"),
                );
            }
        }
        if let Some(last) = v.entries.last() {
            prev = Some((*id, *last));
        }
    }
    order
}

impl<A: Adapter> DeepCheck<A> for TTree<A> {
    fn deep_check(&self, cx: A::Ctx<'_>) -> Report {
        let mut report = Report::new();
        let s = "ttree";
        let views = self.raw_nodes();
        let map = tree_map(s, &views, &mut report);
        let order = check_binary_tree(
            s,
            self.raw_adapter(),
            cx,
            self.raw_root(),
            &map,
            &mut report,
        );
        let cfg = self.config();
        let mut total = 0usize;
        for id in &order {
            let v = &map[id];
            total += v.entries.len();
            if v.entries.is_empty() {
                report.fail(
                    s,
                    format!("node {id}"),
                    "node-occupancy-min",
                    "node is empty (every T-Tree node holds at least one element)".to_string(),
                );
                continue;
            }
            if v.entries.len() > cfg.max_count {
                report.fail(
                    s,
                    format!("node {id}"),
                    "node-occupancy-max",
                    format!("{} entries, max_count {}", v.entries.len(), cfg.max_count),
                );
            }
            let internal = v.left.is_some() && v.right.is_some();
            if internal && v.entries.len() < cfg.min_count() {
                // Boundary exemption: refills draw from the greatest lower
                // bound leaf and never empty it, so an internal node may
                // legitimately sit under min_count while its GLB donor has
                // no spare element to give.
                let donor_spare = glb_leaf(&map, v.left).is_some_and(|g| map[&g].entries.len() > 1);
                if donor_spare {
                    report.fail(
                        s,
                        format!("node {id}"),
                        "node-occupancy-min",
                        format!(
                            "internal node holds {} entries, min_count {} (GLB donor has spares)",
                            v.entries.len(),
                            cfg.min_count()
                        ),
                    );
                }
            }
        }
        if total != OrderedIndex::len(self) {
            report.fail(
                s,
                "tree".to_string(),
                "count-reconcile",
                format!("len() = {} but nodes hold {total}", OrderedIndex::len(self)),
            );
        }
        report
    }
}

/// The greatest-lower-bound leaf of a subtree: rightmost node under `left`.
fn glb_leaf<E>(map: &HashMap<u32, TreeNodeView<E>>, left: Option<u32>) -> Option<u32> {
    let mut cur = left?;
    let mut steps = 0usize;
    while let Some(v) = map.get(&cur) {
        match v.right {
            Some(r) if steps <= map.len() => {
                cur = r;
                steps += 1;
            }
            _ => break,
        }
    }
    Some(cur)
}

impl<A: Adapter> DeepCheck<A> for AvlTree<A> {
    fn deep_check(&self, cx: A::Ctx<'_>) -> Report {
        let mut report = Report::new();
        let s = "avl";
        let views = self.raw_nodes();
        let map = tree_map(s, &views, &mut report);
        let order = check_binary_tree(
            s,
            self.raw_adapter(),
            cx,
            self.raw_root(),
            &map,
            &mut report,
        );
        if order.len() != OrderedIndex::len(self) {
            report.fail(
                s,
                "tree".to_string(),
                "count-reconcile",
                format!(
                    "len() = {} but {} nodes are reachable",
                    OrderedIndex::len(self),
                    order.len()
                ),
            );
        }
        report
    }
}

impl<A: Adapter> DeepCheck<A> for BTree<A> {
    fn deep_check(&self, cx: A::Ctx<'_>) -> Report {
        let mut report = Report::new();
        let s = "btree";
        let views = self.raw_nodes();
        let mut map: HashMap<u32, &BTreeNodeView<A::Entry>> = HashMap::new();
        for v in &views {
            if map.insert(v.id, v).is_some() {
                report.fail(
                    s,
                    format!("node {}", v.id),
                    "tree-shape",
                    "node reachable through two parents".to_string(),
                );
            }
        }
        let Some(root) = self.raw_root() else {
            if OrderedIndex::len(self) != 0 {
                report.fail(
                    s,
                    "tree".to_string(),
                    "count-reconcile",
                    format!(
                        "len() = {} but the tree has no root",
                        OrderedIndex::len(self)
                    ),
                );
            }
            return report;
        };
        let adapter = self.raw_adapter();
        // Depth-first walk carrying depth; record leaf depths; check arity
        // and occupancy per node; flatten an in-order entry sequence.
        let mut leaf_depths: Vec<usize> = Vec::new();
        let mut in_order: Vec<A::Entry> = Vec::new();
        let mut total = 0usize;
        // Explicit stack of (id, depth, next child position, emitted count).
        let mut stack: Vec<(u32, usize, usize)> = vec![(root, 0, 0)];
        let mut guard = 0usize;
        while let Some((id, depth, pos)) = stack.pop() {
            guard += 1;
            if guard > 4 * (views.len() + 2) * (self.raw_max_items() + 2) {
                break;
            }
            let Some(v) = map.get(&id) else {
                report.fail(
                    s,
                    format!("node {id}"),
                    "tree-shape",
                    "child pointer to a non-live node".to_string(),
                );
                continue;
            };
            if pos == 0 {
                // First visit: structural checks.
                total += v.entries.len();
                if !v.children.is_empty() && v.children.len() != v.entries.len() + 1 {
                    report.fail(
                        s,
                        format!("node {id}"),
                        "child-arity",
                        format!(
                            "{} entries but {} children (want N+1 = {})",
                            v.entries.len(),
                            v.children.len(),
                            v.entries.len() + 1
                        ),
                    );
                }
                if v.entries.len() > self.raw_max_items() {
                    report.fail(
                        s,
                        format!("node {id}"),
                        "node-occupancy-max",
                        format!("{} entries, max {}", v.entries.len(), self.raw_max_items()),
                    );
                }
                if id != root && v.entries.len() < self.raw_min_items() {
                    report.fail(
                        s,
                        format!("node {id}"),
                        "node-occupancy-min",
                        format!("{} entries, min {}", v.entries.len(), self.raw_min_items()),
                    );
                }
                if id == root && v.entries.is_empty() {
                    report.fail(
                        s,
                        format!("node {id}"),
                        "node-occupancy-min",
                        "root is empty".to_string(),
                    );
                }
                if v.children.is_empty() {
                    leaf_depths.push(depth);
                    in_order.extend(v.entries.iter().copied());
                    continue;
                }
            }
            if pos < v.children.len() {
                if pos > 0 {
                    // Interior data: entry pos-1 sits between children.
                    if let Some(e) = v.entries.get(pos - 1) {
                        in_order.push(*e);
                    }
                }
                stack.push((id, depth, pos + 1));
                stack.push((v.children[pos], depth + 1, 0));
            }
        }
        if let Some(i) = first_unsorted(adapter, cx, &in_order) {
            report.fail(
                s,
                "tree".to_string(),
                "key-order",
                format!(
                    "in-order positions {i} and {} out of order (interior-data ordering)",
                    i + 1
                ),
            );
        }
        if let (Some(min), Some(max)) = (
            leaf_depths.iter().min().copied(),
            leaf_depths.iter().max().copied(),
        ) {
            if min != max {
                report.fail(
                    s,
                    "tree".to_string(),
                    "leaf-depth",
                    format!("leaves at depths {min} and {max} (must be uniform)"),
                );
            }
        }
        if total != OrderedIndex::len(self) {
            report.fail(
                s,
                "tree".to_string(),
                "count-reconcile",
                format!("len() = {} but nodes hold {total}", OrderedIndex::len(self)),
            );
        }
        report
    }
}

impl<A: Adapter> DeepCheck<A> for ArrayIndex<A> {
    fn deep_check(&self, cx: A::Ctx<'_>) -> Report {
        let mut report = Report::new();
        let s = "array";
        let data = self.as_slice();
        if let Some(i) = first_unsorted(self.raw_adapter(), cx, data) {
            report.fail(
                s,
                format!("position {i}"),
                "key-order",
                format!("entries {i} and {} out of order", i + 1),
            );
        }
        if data.len() != OrderedIndex::len(self) {
            report.fail(
                s,
                "array".to_string(),
                "count-reconcile",
                format!(
                    "len() = {} but the array holds {}",
                    OrderedIndex::len(self),
                    data.len()
                ),
            );
        }
        if self.raw_capacity() < data.len() {
            report.fail(
                s,
                "array".to_string(),
                "gap-accounting",
                format!(
                    "capacity {} below length {}",
                    self.raw_capacity(),
                    data.len()
                ),
            );
        }
        report
    }
}

impl<A: HashAdapter> DeepCheck<A> for ChainedBucketHash<A> {
    fn deep_check(&self, cx: A::Ctx<'_>) -> Report {
        let mut report = Report::new();
        let s = "chained-hash";
        let buckets = self.raw_buckets();
        if !buckets.len().is_power_of_two() {
            report.fail(
                s,
                "table".to_string(),
                "table-size",
                format!("{} buckets (must be a power of two)", buckets.len()),
            );
        }
        let mut total = 0usize;
        for b in &buckets {
            if b.truncated {
                report.fail(
                    s,
                    format!("bucket {}", b.bucket),
                    "chain-cycle",
                    "overflow chain does not terminate".to_string(),
                );
            }
            total += b.entries.len();
            for (i, e) in b.entries.iter().enumerate() {
                let home = self.raw_home_bucket(cx, e);
                if home != b.bucket {
                    report.fail(
                        s,
                        format!("bucket {}", b.bucket),
                        "bucket-addressing",
                        format!("chain position {i}: entry hashes to bucket {home}"),
                    );
                }
            }
        }
        if total != UnorderedIndex::len(self) {
            report.fail(
                s,
                "table".to_string(),
                "count-reconcile",
                format!(
                    "len() = {} but chains hold {total}",
                    UnorderedIndex::len(self)
                ),
            );
        }
        report
    }
}

impl<A: HashAdapter> DeepCheck<A> for ExtendibleHash<A> {
    fn deep_check(&self, cx: A::Ctx<'_>) -> Report {
        let mut report = Report::new();
        let s = "extendible-hash";
        let directory = self.raw_directory();
        let buckets = self.raw_buckets();
        let g = self.global_depth();
        if directory.len() != 1usize << g {
            report.fail(
                s,
                "directory".to_string(),
                "directory-size",
                format!("{} slots, expected 2^{g}", directory.len()),
            );
        }
        let mut total = 0usize;
        let mut slots_covered = 0usize;
        for b in &buckets {
            total += b.entries.len();
            if b.local_depth > g {
                report.fail(
                    s,
                    format!("bucket {}", b.id),
                    "local-depth",
                    format!("local depth {} exceeds global depth {g}", b.local_depth),
                );
                continue;
            }
            let mask = (1u64 << b.local_depth) - 1;
            if b.pattern & !mask != 0 {
                report.fail(
                    s,
                    format!("bucket {}", b.id),
                    "pattern-bits",
                    format!(
                        "pattern {:#x} has bits above local depth {}",
                        b.pattern, b.local_depth
                    ),
                );
            }
            // Every directory slot congruent to the pattern must point here.
            let stride = 1usize << b.local_depth;
            let mut slot = (b.pattern & mask) as usize;
            while slot < directory.len() {
                if directory[slot] != b.id {
                    report.fail(
                        s,
                        format!("slot {slot}"),
                        "directory-pointer",
                        format!("points to bucket {}, expected {}", directory[slot], b.id),
                    );
                }
                slots_covered += 1;
                slot += stride;
            }
            for (i, e) in b.entries.iter().enumerate() {
                if self.raw_hash_of(cx, e) & mask != b.pattern {
                    report.fail(
                        s,
                        format!("bucket {}", b.id),
                        "bucket-addressing",
                        format!("entry {i} does not match the bucket pattern"),
                    );
                }
            }
        }
        if slots_covered != directory.len() {
            report.fail(
                s,
                "directory".to_string(),
                "directory-pointer",
                format!(
                    "bucket patterns cover {slots_covered} slots, directory has {}",
                    directory.len()
                ),
            );
        }
        if total != UnorderedIndex::len(self) {
            report.fail(
                s,
                "table".to_string(),
                "count-reconcile",
                format!(
                    "len() = {} but buckets hold {total}",
                    UnorderedIndex::len(self)
                ),
            );
        }
        report
    }
}

impl<A: HashAdapter> DeepCheck<A> for LinearHash<A> {
    fn deep_check(&self, cx: A::Ctx<'_>) -> Report {
        let mut report = Report::new();
        let s = "linear-hash";
        let buckets = self.raw_buckets();
        let base = self.raw_base();
        let split = self.raw_split();
        if split >= base {
            report.fail(
                s,
                "table".to_string(),
                "split-pointer",
                format!("split pointer {split} not below base {base}"),
            );
        }
        if buckets.len() != base + split {
            report.fail(
                s,
                "table".to_string(),
                "split-pointer",
                format!(
                    "{} buckets, expected base {base} + split {split}",
                    buckets.len()
                ),
            );
        }
        let mut total = 0usize;
        for b in &buckets {
            total += b.entries.len();
            for (i, e) in b.entries.iter().enumerate() {
                let addr = self.raw_address_of(cx, e);
                if addr != b.bucket {
                    report.fail(
                        s,
                        format!("bucket {}", b.bucket),
                        "bucket-addressing",
                        format!("page position {i}: entry addresses to bucket {addr}"),
                    );
                }
            }
        }
        if total != UnorderedIndex::len(self) {
            report.fail(
                s,
                "table".to_string(),
                "count-reconcile",
                format!(
                    "len() = {} but buckets hold {total}",
                    UnorderedIndex::len(self)
                ),
            );
        }
        report
    }
}

impl<A: HashAdapter> DeepCheck<A> for ModifiedLinearHash<A> {
    fn deep_check(&self, cx: A::Ctx<'_>) -> Report {
        let mut report = Report::new();
        let s = "modlinear-hash";
        let chains = self.raw_chains();
        let base = self.raw_base();
        let split = self.raw_split();
        if split >= base {
            report.fail(
                s,
                "directory".to_string(),
                "split-pointer",
                format!("split pointer {split} not below base {base}"),
            );
        }
        if chains.len() != base + split {
            report.fail(
                s,
                "directory".to_string(),
                "split-pointer",
                format!(
                    "{} chains, expected base {base} + split {split}",
                    chains.len()
                ),
            );
        }
        let mut total = 0usize;
        for c in &chains {
            if c.truncated {
                report.fail(
                    s,
                    format!("bucket {}", c.bucket),
                    "chain-cycle",
                    "overflow chain does not terminate".to_string(),
                );
            }
            total += c.entries.len();
            for (i, e) in c.entries.iter().enumerate() {
                let addr = self.raw_address_of(cx, e);
                if addr != c.bucket {
                    report.fail(
                        s,
                        format!("bucket {}", c.bucket),
                        "bucket-addressing",
                        format!("chain position {i}: entry addresses to bucket {addr}"),
                    );
                }
            }
        }
        if total != UnorderedIndex::len(self) {
            report.fail(
                s,
                "directory".to_string(),
                "count-reconcile",
                format!(
                    "len() = {} but chains hold {total}",
                    UnorderedIndex::len(self)
                ),
            );
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_index::adapter::NaturalAdapter;
    use mmdb_index::TTreeConfig;

    fn nat() -> NaturalAdapter<u64> {
        NaturalAdapter::new()
    }

    #[test]
    fn clean_structures_pass() {
        let mut t = TTree::new(nat(), TTreeConfig::with_node_size(4));
        let mut avl = AvlTree::new(nat());
        let mut bt = BTree::new(nat(), 4);
        let mut arr = ArrayIndex::new(nat());
        let mut ch = ChainedBucketHash::with_capacity(nat(), 16);
        let mut ext = ExtendibleHash::new(nat(), 2);
        let mut lin = LinearHash::new(nat(), 2);
        let mut ml = ModifiedLinearHash::new(nat(), 2);
        for k in 0..200u64 {
            let k = (k * 7919) % 1000;
            t.insert((), k);
            OrderedIndex::insert(&mut avl, (), k);
            OrderedIndex::insert(&mut bt, (), k);
            OrderedIndex::insert(&mut arr, (), k);
            UnorderedIndex::insert(&mut ch, (), k);
            UnorderedIndex::insert(&mut ext, (), k);
            UnorderedIndex::insert(&mut lin, (), k);
            UnorderedIndex::insert(&mut ml, (), k);
        }
        for k in (0..150u64).map(|k| (k * 7919) % 1000) {
            let _ = t.delete((), &k);
            let _ = OrderedIndex::delete(&mut avl, (), &k);
            let _ = OrderedIndex::delete(&mut bt, (), &k);
            let _ = OrderedIndex::delete(&mut arr, (), &k);
            let _ = UnorderedIndex::delete(&mut ch, (), &k);
            let _ = UnorderedIndex::delete(&mut ext, (), &k);
            let _ = UnorderedIndex::delete(&mut lin, (), &k);
            let _ = UnorderedIndex::delete(&mut ml, (), &k);
        }
        t.deep_check(()).assert_ok();
        avl.deep_check(()).assert_ok();
        bt.deep_check(()).assert_ok();
        arr.deep_check(()).assert_ok();
        ch.deep_check(()).assert_ok();
        ext.deep_check(()).assert_ok();
        lin.deep_check(()).assert_ok();
        ml.deep_check(()).assert_ok();
    }
}
