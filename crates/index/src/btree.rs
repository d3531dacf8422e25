//! The original B-Tree \[Com79\] (§3.2, footnote 3).
//!
//! *"We refer to the original B Tree, not the commonly used B+ Tree. Tests
//! reported in \[LeC85\] showed that the B+ Tree uses more storage than the
//! B Tree and does not perform any better in main memory."*
//!
//! So: data items live in **every** node, an interior node holds N items
//! and N+1 child pointers, and all leaves are at the same depth. Search
//! does a binary search in each node on the path (the reason the paper
//! measures it slowest of the four order-preserving structures: "it
//! requires several binary searches, one for each node in the search
//! path"), while updates are fast because data movement is usually confined
//! to one node.

use crate::adapter::Adapter;
use crate::stats::{Counters, Snapshot};
use crate::traits::{bound_ok_hi, bound_ok_lo, IndexError, OrderedIndex};
use std::cmp::Ordering;
use std::ops::Bound;

const NIL: u32 = u32::MAX;

struct Node<E> {
    items: Vec<E>,
    /// Child pointers; empty for a leaf, `items.len() + 1` long otherwise.
    children: Vec<u32>,
}

impl<E> Node<E> {
    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// An original (data-in-interior-nodes) B-Tree.
pub struct BTree<A: Adapter> {
    adapter: A,
    nodes: Vec<Node<A::Entry>>,
    free: Vec<u32>,
    root: u32,
    len: usize,
    max_items: usize,
    min_items: usize,
    stats: Counters,
}

impl<A: Adapter> BTree<A> {
    /// Create an empty B-Tree whose nodes hold at most `node_size` items
    /// (`node_size ≥ 2`; interior/leaf minimum occupancy is
    /// `node_size / 2`).
    pub fn new(adapter: A, node_size: usize) -> Self {
        let max_items = node_size.max(2);
        BTree {
            adapter,
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            len: 0,
            max_items,
            min_items: (max_items / 2).max(1),
            stats: Counters::default(),
        }
    }

    /// Maximum items per node.
    #[must_use]
    pub fn node_size(&self) -> usize {
        self.max_items
    }

    fn node(&self, id: u32) -> &Node<A::Entry> {
        &self.nodes[id as usize]
    }

    fn node_mut(&mut self, id: u32) -> &mut Node<A::Entry> {
        &mut self.nodes[id as usize]
    }

    fn alloc(&mut self, items: Vec<A::Entry>, children: Vec<u32>) -> u32 {
        let n = Node { items, children };
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = n;
            id
        } else {
            self.nodes.push(n);
            (self.nodes.len() - 1) as u32
        }
    }

    /// First position in `node`'s items whose entry key is ≥ `key`.
    fn lower_bound_in(&self, cx: A::Ctx<'_>, id: u32, key: &A::Key) -> usize {
        let items = &self.node(id).items;
        let mut lo = 0usize;
        let mut hi = items.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.stats.comparisons(1);
            if self.adapter.cmp_entry_key(cx, &items[mid], key) == Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// First position in `node`'s items comparing > `entry` (by key).
    fn upper_bound_entry_in(&self, cx: A::Ctx<'_>, id: u32, entry: &A::Entry) -> usize {
        let items = &self.node(id).items;
        let mut lo = 0usize;
        let mut hi = items.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.stats.comparisons(1);
            if self.adapter.cmp_entries(cx, &items[mid], entry) == Ordering::Greater {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// First position in `node`'s items comparing ≥ `entry` (by key).
    fn lower_bound_entry_in(&self, cx: A::Ctx<'_>, id: u32, entry: &A::Entry) -> usize {
        let items = &self.node(id).items;
        let mut lo = 0usize;
        let mut hi = items.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.stats.comparisons(1);
            if self.adapter.cmp_entries(cx, &items[mid], entry) == Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Split `id` (which has overflowed) into two, returning the promoted
    /// median and the id of the new right sibling.
    fn split(&mut self, id: u32) -> (A::Entry, u32) {
        self.stats.restructures(1);
        let mid = self.node(id).items.len() / 2;
        let n = self.node_mut(id);
        let right_items: Vec<A::Entry> = n.items.split_off(mid + 1);
        let median = crate::pop_invariant(&mut n.items, "overflowed node has a median");
        let right_children = if n.is_leaf() {
            Vec::new()
        } else {
            n.children.split_off(mid + 1)
        };
        self.stats.data_moves(right_items.len() as u64 + 1);
        let right = self.alloc(right_items, right_children);
        (median, right)
    }

    fn insert_rec(&mut self, cx: A::Ctx<'_>, id: u32, entry: A::Entry) -> Option<(A::Entry, u32)> {
        self.stats.node_visits(1);
        let pos = self.upper_bound_entry_in(cx, id, &entry);
        if self.node(id).is_leaf() {
            let n = self.node_mut(id);
            n.items.insert(pos, entry);
            self.stats.data_moves(1);
        } else {
            let child = self.node(id).children[pos];
            if let Some((median, right)) = self.insert_rec(cx, child, entry) {
                let n = self.node_mut(id);
                n.items.insert(pos, median);
                n.children.insert(pos + 1, right);
                self.stats.data_moves(1);
            }
        }
        if self.node(id).items.len() > self.max_items {
            Some(self.split(id))
        } else {
            None
        }
    }

    fn insert_inner(&mut self, cx: A::Ctx<'_>, entry: A::Entry) {
        if self.root == NIL {
            self.root = self.alloc(vec![entry], Vec::new());
        } else if let Some((median, right)) = self.insert_rec(cx, self.root, entry) {
            let old_root = self.root;
            self.root = self.alloc(vec![median], vec![old_root, right]);
            self.stats.restructures(1);
        }
        self.len += 1;
    }

    /// Remove and return the maximum entry of the subtree at `id`,
    /// repairing child underflow on the way out.
    fn take_max(&mut self, id: u32) -> A::Entry {
        self.stats.node_visits(1);
        if self.node(id).is_leaf() {
            self.stats.data_moves(1);
            crate::pop_invariant(&mut self.node_mut(id).items, "take_max leaf is non-empty")
        } else {
            let ci = self.node(id).children.len() - 1;
            let child = self.node(id).children[ci];
            let e = self.take_max(child);
            self.fix_child(id, ci);
            e
        }
    }

    /// Remove the item at `(id, pos)`; if `id` is interior, the item is
    /// replaced by its in-order predecessor pulled up from the left
    /// subtree.
    fn remove_at(&mut self, id: u32, pos: usize) -> A::Entry {
        if self.node(id).is_leaf() {
            self.stats
                .data_moves((self.node(id).items.len() - pos) as u64);
            self.node_mut(id).items.remove(pos)
        } else {
            let child = self.node(id).children[pos];
            let pred = self.take_max(child);
            let e = std::mem::replace(&mut self.node_mut(id).items[pos], pred);
            self.stats.data_moves(1);
            self.fix_child(id, pos);
            e
        }
    }

    /// Repair an underflowing child `parent.children[ci]` by borrowing from
    /// a sibling through the parent, or merging with a sibling.
    fn fix_child(&mut self, parent: u32, ci: usize) {
        let child = self.node(parent).children[ci];
        if self.node(child).items.len() >= self.min_items {
            return;
        }
        // Try borrowing from the left sibling.
        if ci > 0 {
            let left = self.node(parent).children[ci - 1];
            if self.node(left).items.len() > self.min_items {
                self.stats.data_moves(3);
                let sep = self.node(parent).items[ci - 1];
                let borrowed = crate::pop_invariant(
                    &mut self.node_mut(left).items,
                    "left sibling has spare item",
                );
                self.node_mut(parent).items[ci - 1] = borrowed;
                self.node_mut(child).items.insert(0, sep);
                if !self.node(left).is_leaf() {
                    let moved = crate::pop_invariant(
                        &mut self.node_mut(left).children,
                        "non-leaf left sibling has a child",
                    );
                    self.node_mut(child).children.insert(0, moved);
                }
                return;
            }
        }
        // Try borrowing from the right sibling.
        if ci + 1 < self.node(parent).children.len() {
            let right = self.node(parent).children[ci + 1];
            if self.node(right).items.len() > self.min_items {
                self.stats.data_moves(3);
                let sep = self.node(parent).items[ci];
                let borrowed = self.node_mut(right).items.remove(0);
                self.node_mut(parent).items[ci] = borrowed;
                self.node_mut(child).items.push(sep);
                if !self.node(right).is_leaf() {
                    let moved = self.node_mut(right).children.remove(0);
                    self.node_mut(child).children.push(moved);
                }
                return;
            }
        }
        // Merge with a sibling (left-preferred).
        self.stats.restructures(1);
        let (li, ri) = if ci > 0 { (ci - 1, ci) } else { (ci, ci + 1) };
        let left = self.node(parent).children[li];
        let right = self.node(parent).children[ri];
        let sep = self.node_mut(parent).items.remove(li);
        self.node_mut(parent).children.remove(ri);
        let mut right_node_items = std::mem::take(&mut self.node_mut(right).items);
        let mut right_node_children = std::mem::take(&mut self.node_mut(right).children);
        let ln = self.node_mut(left);
        ln.items.push(sep);
        self.stats.data_moves(1 + right_node_items.len() as u64);
        self.node_mut(left).items.append(&mut right_node_items);
        self.node_mut(left)
            .children
            .append(&mut right_node_children);
        self.free.push(right);
    }

    /// Shrink the root if it has emptied out.
    fn shrink_root(&mut self) {
        if self.root != NIL && self.node(self.root).items.is_empty() {
            let old = self.root;
            if self.node(old).is_leaf() {
                self.root = NIL;
            } else {
                self.root = self.node(old).children[0];
            }
            self.free.push(old);
        }
    }

    /// Delete the specific `entry` (searching the full equal-key range)
    /// from the subtree at `id`.
    fn delete_entry_rec(&mut self, cx: A::Ctx<'_>, id: u32, entry: &A::Entry) -> bool {
        self.stats.node_visits(1);
        let lo = self.lower_bound_entry_in(cx, id, entry);
        let hi = self.upper_bound_entry_in(cx, id, entry);
        for pos in lo..hi {
            self.stats.comparisons(1);
            if self.node(id).items[pos] == *entry {
                self.remove_at(id, pos);
                return true;
            }
        }
        if self.node(id).is_leaf() {
            return false;
        }
        // Equal keys may hide in any child subtree bounded by the range.
        for ci in lo..=hi {
            let child = self.node(id).children[ci];
            if self.delete_entry_rec(cx, child, entry) {
                self.fix_child(id, ci);
                return true;
            }
        }
        false
    }

    /// Delete any one entry with key `key` from the subtree at `id`.
    fn delete_key_rec(&mut self, cx: A::Ctx<'_>, id: u32, key: &A::Key) -> Option<A::Entry> {
        self.stats.node_visits(1);
        let pos = self.lower_bound_in(cx, id, key);
        let in_node = pos < self.node(id).items.len() && {
            self.stats.comparisons(1);
            self.adapter
                .cmp_entry_key(cx, &self.node(id).items[pos], key)
                == Ordering::Equal
        };
        if in_node {
            return Some(self.remove_at(id, pos));
        }
        if self.node(id).is_leaf() {
            return None;
        }
        let child = self.node(id).children[pos];
        let got = self.delete_key_rec(cx, child, key);
        if got.is_some() {
            self.fix_child(id, pos);
        }
        got
    }

    fn visit_rec(&self, id: u32, visit: &mut dyn FnMut(&A::Entry) -> bool) -> bool {
        let n = self.node(id);
        for (i, item) in n.items.iter().enumerate() {
            if !n.is_leaf() && !self.visit_rec(n.children[i], visit) {
                return false;
            }
            if !visit(item) {
                return false;
            }
        }
        if !n.is_leaf() {
            return self.visit_rec(n.children[n.children.len() - 1], visit);
        }
        true
    }

    /// In-order traversal pruned by the lower bound: skips subtrees that
    /// cannot contain entries ≥ the bound.
    fn visit_bounded(
        &self,
        cx: A::Ctx<'_>,
        id: u32,
        lo: &Bound<&A::Key>,
        visit: &mut dyn FnMut(&A::Entry) -> bool,
    ) -> bool {
        let n = self.node(id);
        // First item position that can satisfy the lower bound.
        let start = match lo {
            Bound::Unbounded => 0,
            Bound::Included(k) => {
                let mut l = 0usize;
                let mut h = n.items.len();
                while l < h {
                    let m = l + (h - l) / 2;
                    self.stats.comparisons(1);
                    if self.adapter.cmp_entry_key(cx, &n.items[m], k) == Ordering::Less {
                        l = m + 1;
                    } else {
                        h = m;
                    }
                }
                l
            }
            Bound::Excluded(k) => {
                let mut l = 0usize;
                let mut h = n.items.len();
                while l < h {
                    let m = l + (h - l) / 2;
                    self.stats.comparisons(1);
                    if self.adapter.cmp_entry_key(cx, &n.items[m], k) == Ordering::Greater {
                        h = m;
                    } else {
                        l = m + 1;
                    }
                }
                l
            }
        };
        for i in start..n.items.len() {
            if !n.is_leaf() && !self.visit_bounded(cx, n.children[i], lo, visit) {
                return false;
            }
            // Items before `start` are below the bound; from `start` on we
            // must still filter the first one in non-leaf descent order.
            let ord = match lo {
                Bound::Unbounded => Ordering::Greater,
                Bound::Included(k) | Bound::Excluded(k) => {
                    self.stats.comparisons(1);
                    self.adapter.cmp_entry_key(cx, &n.items[i], k)
                }
            };
            if bound_ok_lo(ord, lo) && !visit(&n.items[i]) {
                return false;
            }
        }
        if !n.is_leaf() {
            return self.visit_bounded(cx, n.children[n.children.len() - 1], lo, visit);
        }
        true
    }

    fn depth_of(&self, mut id: u32) -> usize {
        let mut d = 0;
        loop {
            let n = self.node(id);
            if n.is_leaf() {
                return d;
            }
            id = n.children[0];
            d += 1;
        }
    }

    fn validate_rec(
        &self,
        cx: A::Ctx<'_>,
        id: u32,
        depth: usize,
        leaf_depth: usize,
        count: &mut usize,
        last: &mut Option<A::Entry>,
    ) -> Result<(), String> {
        let n = self.node(id);
        if n.items.is_empty() {
            return Err(format!("node {id}: empty"));
        }
        if n.items.len() > self.max_items {
            return Err(format!("node {id}: overfull ({})", n.items.len()));
        }
        if id != self.root && n.items.len() < self.min_items {
            return Err(format!(
                "node {id}: underfull ({} < {})",
                n.items.len(),
                self.min_items
            ));
        }
        if !n.is_leaf() && n.children.len() != n.items.len() + 1 {
            return Err(format!("node {id}: children/items mismatch"));
        }
        if n.is_leaf() && depth != leaf_depth {
            return Err(format!("node {id}: leaf at depth {depth} != {leaf_depth}"));
        }
        for (i, item) in n.items.iter().enumerate() {
            if !n.is_leaf() {
                self.validate_rec(cx, n.children[i], depth + 1, leaf_depth, count, last)?;
            }
            if let Some(prev) = *last {
                if self.adapter.cmp_entries(cx, &prev, item) == Ordering::Greater {
                    return Err(format!("node {id}: order violated at item {i}"));
                }
            }
            *last = Some(*item);
            *count += 1;
        }
        if !n.is_leaf() {
            self.validate_rec(
                cx,
                n.children[n.children.len() - 1],
                depth + 1,
                leaf_depth,
                count,
                last,
            )?;
        }
        Ok(())
    }
}

impl<A: Adapter> OrderedIndex<A> for BTree<A> {
    fn insert(&mut self, cx: A::Ctx<'_>, entry: A::Entry) {
        self.insert_inner(cx, entry);
    }

    fn insert_unique(&mut self, cx: A::Ctx<'_>, entry: A::Entry) -> Result<(), IndexError> {
        // A single descent can prove uniqueness: any equal item would be
        // found on the search path.
        let mut id = self.root;
        while id != NIL {
            self.stats.node_visits(1);
            let pos = self.lower_bound_entry_in(cx, id, &entry);
            if pos < self.node(id).items.len() {
                self.stats.comparisons(1);
                if self
                    .adapter
                    .cmp_entries(cx, &self.node(id).items[pos], &entry)
                    == Ordering::Equal
                {
                    return Err(IndexError::DuplicateKey);
                }
            }
            if self.node(id).is_leaf() {
                break;
            }
            id = self.node(id).children[pos];
        }
        self.insert_inner(cx, entry);
        Ok(())
    }

    fn delete(&mut self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry> {
        if self.root == NIL {
            return None;
        }
        let got = self.delete_key_rec(cx, self.root, key);
        if got.is_some() {
            self.len -= 1;
            self.shrink_root();
        }
        got
    }

    fn delete_entry(&mut self, cx: A::Ctx<'_>, entry: &A::Entry) -> bool {
        if self.root == NIL {
            return false;
        }
        let ok = self.delete_entry_rec(cx, self.root, entry);
        if ok {
            self.len -= 1;
            self.shrink_root();
        }
        ok
    }

    fn search(&self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry> {
        let mut id = self.root;
        while id != NIL {
            self.stats.node_visits(1);
            let pos = self.lower_bound_in(cx, id, key);
            if pos < self.node(id).items.len() {
                self.stats.comparisons(1);
                if self
                    .adapter
                    .cmp_entry_key(cx, &self.node(id).items[pos], key)
                    == Ordering::Equal
                {
                    return Some(self.node(id).items[pos]);
                }
            }
            if self.node(id).is_leaf() {
                return None;
            }
            id = self.node(id).children[pos];
        }
        None
    }

    fn search_all(&self, cx: A::Ctx<'_>, key: &A::Key, out: &mut Vec<A::Entry>) {
        if self.root == NIL {
            return;
        }
        let lo = Bound::Included(key);
        self.visit_bounded(cx, self.root, &lo, &mut |e| {
            self.stats.comparisons(1);
            if self.adapter.cmp_entry_key(cx, e, key) == Ordering::Equal {
                out.push(*e);
                true
            } else {
                false
            }
        });
    }

    fn range(
        &self,
        cx: A::Ctx<'_>,
        lo: Bound<&A::Key>,
        hi: Bound<&A::Key>,
        out: &mut Vec<A::Entry>,
    ) {
        if self.root == NIL {
            return;
        }
        self.visit_bounded(cx, self.root, &lo, &mut |e| {
            let ord = match hi {
                Bound::Unbounded => Ordering::Less,
                Bound::Included(k) | Bound::Excluded(k) => {
                    self.stats.comparisons(1);
                    self.adapter.cmp_entry_key(cx, e, k)
                }
            };
            if bound_ok_hi(ord, &hi) {
                out.push(*e);
                true
            } else {
                false
            }
        });
    }

    fn scan(&self, visit: &mut dyn FnMut(&A::Entry)) {
        if self.root == NIL {
            return;
        }
        self.visit_rec(self.root, &mut |e| {
            visit(e);
            true
        });
    }

    fn len(&self) -> usize {
        self.len
    }

    fn storage_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>()
            + self.nodes.len() * std::mem::size_of::<Node<A::Entry>>()
            + self.free.len() * std::mem::size_of::<u32>();
        for n in &self.nodes {
            total += n.items.capacity() * std::mem::size_of::<A::Entry>()
                + n.children.capacity() * std::mem::size_of::<u32>();
        }
        total
    }

    fn stats(&self) -> Snapshot {
        self.stats.snapshot()
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn validate(&self, cx: A::Ctx<'_>) -> Result<(), String> {
        if self.root == NIL {
            if self.len != 0 {
                return Err(format!("empty tree but len = {}", self.len));
            }
            return Ok(());
        }
        let leaf_depth = self.depth_of(self.root);
        let mut count = 0usize;
        let mut last = None;
        self.validate_rec(cx, self.root, 0, leaf_depth, &mut count, &mut last)?;
        if count != self.len {
            return Err(format!("len {} but traversal found {count}", self.len));
        }
        Ok(())
    }
}

/// Raw structural access for the `mmdb-check` verification layer.
#[cfg(feature = "check")]
impl<A: Adapter> BTree<A> {
    /// Arena id of the root node, if the tree is non-empty.
    #[must_use]
    pub fn raw_root(&self) -> Option<u32> {
        (self.root != NIL).then_some(self.root)
    }

    /// Owned views of every node reachable from the root.
    #[must_use]
    pub fn raw_nodes(&self) -> Vec<crate::raw::BTreeNodeView<A::Entry>> {
        let mut out = Vec::new();
        let mut stack = match self.raw_root() {
            Some(r) => vec![r],
            None => Vec::new(),
        };
        while let Some(id) = stack.pop() {
            let n = self.node(id);
            out.push(crate::raw::BTreeNodeView {
                id,
                entries: n.items.clone(),
                children: n.children.clone(),
            });
            stack.extend(n.children.iter().copied());
            if out.len() > self.nodes.len() {
                break;
            }
        }
        out
    }

    /// Minimum entries per non-root node.
    #[must_use]
    pub fn raw_min_items(&self) -> usize {
        self.min_items
    }

    /// Maximum entries per node.
    #[must_use]
    pub fn raw_max_items(&self) -> usize {
        self.max_items
    }

    /// The adapter, for key comparisons during checking.
    #[must_use]
    pub fn raw_adapter(&self) -> &A {
        &self.adapter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::NaturalAdapter;
    use crate::testkit::{self, DupAdapter};

    fn nat(node_size: usize) -> BTree<NaturalAdapter<u64>> {
        BTree::new(NaturalAdapter::new(), node_size)
    }

    #[test]
    fn empty_tree() {
        let mut t = nat(8);
        assert!(t.is_empty());
        assert_eq!(t.search((), &1), None);
        assert_eq!(t.delete((), &1), None);
        t.validate(()).unwrap();
    }

    #[test]
    fn sequential_inserts_split_correctly() {
        for node_size in [2, 3, 4, 7, 16, 64] {
            let mut t = nat(node_size);
            for k in 0..2000u64 {
                t.insert((), k);
            }
            t.validate(())
                .unwrap_or_else(|e| panic!("ns {node_size}: {e}"));
            for k in 0..2000u64 {
                assert_eq!(t.search((), &k), Some(k));
            }
        }
    }

    #[test]
    fn random_inserts_and_deletes() {
        for node_size in [2, 4, 10, 30] {
            let mut t = nat(node_size);
            let entries = testkit::shuffled_unique_entries(1500, 77);
            for e in &entries {
                t.insert((), e >> 16);
            }
            t.validate(()).unwrap();
            for e in entries.iter().take(750) {
                assert_eq!(t.delete((), &(e >> 16)), Some(e >> 16), "ns {node_size}");
            }
            t.validate(())
                .unwrap_or_else(|e| panic!("ns {node_size}: {e}"));
            assert_eq!(t.len(), 750);
        }
    }

    #[test]
    fn delete_to_empty_and_reuse() {
        let mut t = nat(4);
        for k in 0..300u64 {
            t.insert((), k);
        }
        for k in (0..300u64).rev() {
            assert_eq!(t.delete((), &k), Some(k));
            if k % 37 == 0 {
                t.validate(()).unwrap();
            }
        }
        assert!(t.is_empty());
        assert_eq!(t.root, NIL);
        for k in 0..50u64 {
            t.insert((), k);
        }
        t.validate(()).unwrap();
    }

    #[test]
    fn scan_ordered_and_complete() {
        let mut t = nat(9);
        let entries = testkit::shuffled_unique_entries(777, 5);
        for e in &entries {
            t.insert((), *e);
        }
        let mut out = Vec::new();
        t.scan(&mut |e| out.push(*e));
        let mut expect = entries.clone();
        expect.sort_unstable();
        assert_eq!(out, expect);
    }

    #[test]
    fn range_queries() {
        let mut t = nat(5);
        for k in (0..200u64).step_by(2) {
            t.insert((), k);
        }
        let mut out = Vec::new();
        t.range((), Bound::Included(&50), Bound::Excluded(&60), &mut out);
        assert_eq!(out, vec![50, 52, 54, 56, 58]);
        out.clear();
        t.range((), Bound::Excluded(&51), Bound::Included(&55), &mut out);
        assert_eq!(out, vec![52, 54]);
    }

    #[test]
    fn duplicates_across_nodes() {
        let mut t = BTree::new(DupAdapter, 4);
        // 50 entries sharing one key forces duplicates to span many nodes.
        for low in 0..50u64 {
            t.insert((), (9 << 16) | low);
        }
        t.insert((), 1 << 16);
        t.insert((), 20 << 16);
        t.validate(()).unwrap();
        let mut out = Vec::new();
        t.search_all((), &9, &mut out);
        assert_eq!(out.len(), 50);
        // Delete specific entries buried in the duplicate run.
        for low in [0u64, 25, 49, 13] {
            assert!(t.delete_entry((), &((9 << 16) | low)), "low {low}");
            t.validate(()).unwrap();
        }
        out.clear();
        t.search_all((), &9, &mut out);
        assert_eq!(out.len(), 46);
    }

    #[test]
    fn insert_unique_detects_duplicates_everywhere() {
        let mut t = nat(3);
        for k in 0..100u64 {
            t.insert_unique((), k).unwrap();
        }
        for k in 0..100u64 {
            assert_eq!(
                t.insert_unique((), k),
                Err(IndexError::DuplicateKey),
                "key {k}"
            );
        }
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn differential_vs_model() {
        for node_size in [2, 6, 20] {
            let mut t = BTree::new(DupAdapter, node_size);
            testkit::ordered_differential(&mut t, 0xB7EE + node_size as u64, 5000, 250);
        }
    }

    #[cfg(feature = "stats")]
    #[test]
    fn search_does_one_binary_search_per_level() {
        let mut t = nat(20);
        for e in testkit::shuffled_unique_entries(30_000, 9) {
            t.insert((), e >> 16);
        }
        t.reset_stats();
        let searches = 300u64;
        for k in (0..30_000u64).step_by(100) {
            assert!(t.search((), &k).is_some());
        }
        let s = t.stats();
        // Depth of a B-tree with 30k items, ~10-20/node: 3-4 levels.
        let visits_per_search = s.node_visits as f64 / searches as f64;
        assert!(visits_per_search <= 5.0, "visits {visits_per_search}");
        // Total comparisons ≈ levels × log2(node_size) — clearly more than
        // a single binary search of 30k (≈15) would not hold for B-trees;
        // the paper calls this "several binary searches".
        let cmp_per_search = s.comparisons as f64 / searches as f64;
        assert!(
            cmp_per_search > 10.0 && cmp_per_search < 40.0,
            "cmp {cmp_per_search}"
        );
    }

    #[test]
    fn storage_factor_reasonable_for_medium_nodes() {
        let mut t = BTree::new(DupAdapter, 30);
        let n = 10_000usize;
        for e in testkit::shuffled_unique_entries(n, 2) {
            t.insert((), e);
        }
        let payload = n * std::mem::size_of::<u64>();
        let factor = t.storage_bytes() as f64 / payload as f64;
        // Paper: ~1.5 for medium-to-large nodes.
        assert!(factor < 2.6, "B-tree storage factor {factor}");
    }
}
