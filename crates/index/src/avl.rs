//! AVL Tree \[AHU74\] (§3.2).
//!
//! *"The AVL Tree was designed as an internal memory data structure. It
//! uses a binary tree search, which is fast since the binary search is
//! intrinsic to the tree structure (i.e., no arithmetic calculations are
//! needed) … The AVL Tree has one major disadvantage — its poor storage
//! utilization. Each tree node holds only one data item, so there are two
//! pointers and some control information for every data item."*
//!
//! The paper measured its storage factor at 3× the array baseline. This
//! implementation is arena-based (nodes in a `Vec`, `u32` ids, free list)
//! with parent pointers for ordered scans — the same layout used by the
//! [`crate::ttree::TTree`], making the two directly comparable.

use crate::adapter::Adapter;
use crate::stats::{Counters, Snapshot};
use crate::traits::{bound_ok_hi, IndexError, OrderedIndex};
use std::cmp::Ordering;
use std::ops::Bound;

const NIL: u32 = u32::MAX;

struct Node<E> {
    entry: E,
    left: u32,
    right: u32,
    parent: u32,
    height: i32,
}

/// A classic AVL tree holding one entry per node.
pub struct AvlTree<A: Adapter> {
    adapter: A,
    nodes: Vec<Node<A::Entry>>,
    free: Vec<u32>,
    root: u32,
    len: usize,
    stats: Counters,
}

impl<A: Adapter> AvlTree<A> {
    /// Create an empty AVL tree.
    pub fn new(adapter: A) -> Self {
        AvlTree {
            adapter,
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            len: 0,
            stats: Counters::default(),
        }
    }

    fn node(&self, id: u32) -> &Node<A::Entry> {
        &self.nodes[id as usize]
    }

    fn node_mut(&mut self, id: u32) -> &mut Node<A::Entry> {
        &mut self.nodes[id as usize]
    }

    fn alloc(&mut self, entry: A::Entry, parent: u32) -> u32 {
        let n = Node {
            entry,
            left: NIL,
            right: NIL,
            parent,
            height: 1,
        };
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = n;
            id
        } else {
            self.nodes.push(n);
            (self.nodes.len() - 1) as u32
        }
    }

    fn height(&self, id: u32) -> i32 {
        if id == NIL {
            0
        } else {
            self.node(id).height
        }
    }

    fn update_height(&mut self, id: u32) {
        let h = 1 + self
            .height(self.node(id).left)
            .max(self.height(self.node(id).right));
        self.node_mut(id).height = h;
    }

    fn balance(&self, id: u32) -> i32 {
        self.height(self.node(id).left) - self.height(self.node(id).right)
    }

    /// Replace `old` with `new` in `parent`'s child slot (or the root).
    fn replace_child(&mut self, parent: u32, old: u32, new: u32) {
        if parent == NIL {
            self.root = new;
        } else if self.node(parent).left == old {
            self.node_mut(parent).left = new;
        } else {
            debug_assert_eq!(self.node(parent).right, old);
            self.node_mut(parent).right = new;
        }
        if new != NIL {
            self.node_mut(new).parent = parent;
        }
    }

    /// Left rotation around `x`; returns the new subtree root.
    fn rotate_left(&mut self, x: u32) -> u32 {
        self.stats.rotations(1);
        let y = self.node(x).right;
        let parent = self.node(x).parent;
        let t = self.node(y).left;
        self.node_mut(x).right = t;
        if t != NIL {
            self.node_mut(t).parent = x;
        }
        self.node_mut(y).left = x;
        self.node_mut(x).parent = y;
        self.replace_child(parent, x, y);
        self.update_height(x);
        self.update_height(y);
        y
    }

    /// Right rotation around `x`; returns the new subtree root.
    fn rotate_right(&mut self, x: u32) -> u32 {
        self.stats.rotations(1);
        let y = self.node(x).left;
        let parent = self.node(x).parent;
        let t = self.node(y).right;
        self.node_mut(x).left = t;
        if t != NIL {
            self.node_mut(t).parent = x;
        }
        self.node_mut(y).right = x;
        self.node_mut(x).parent = y;
        self.replace_child(parent, x, y);
        self.update_height(x);
        self.update_height(y);
        y
    }

    /// Rebalance at `id` if needed; returns the (possibly new) subtree root.
    fn rebalance_node(&mut self, id: u32) -> u32 {
        self.update_height(id);
        let bf = self.balance(id);
        if bf > 1 {
            if self.balance(self.node(id).left) < 0 {
                let l = self.node(id).left;
                self.rotate_left(l);
            }
            self.rotate_right(id)
        } else if bf < -1 {
            if self.balance(self.node(id).right) > 0 {
                let r = self.node(id).right;
                self.rotate_right(r);
            }
            self.rotate_left(id)
        } else {
            id
        }
    }

    /// Walk from `start` to the root, restoring heights and balance.
    fn rebalance_upward(&mut self, mut cur: u32) {
        while cur != NIL {
            let sub_root = self.rebalance_node(cur);
            cur = self.node(sub_root).parent;
        }
    }

    /// Leftmost node of the subtree rooted at `id`.
    fn min_node(&self, mut id: u32) -> u32 {
        while self.node(id).left != NIL {
            self.stats.node_visits(1);
            id = self.node(id).left;
        }
        id
    }

    /// In-order successor of `id`.
    fn successor(&self, id: u32) -> u32 {
        if self.node(id).right != NIL {
            return self.min_node(self.node(id).right);
        }
        let mut cur = id;
        let mut p = self.node(id).parent;
        while p != NIL && self.node(p).right == cur {
            cur = p;
            p = self.node(p).parent;
        }
        p
    }

    /// First node (in order) whose key is ≥ `key`, or NIL.
    fn lower_bound(&self, cx: A::Ctx<'_>, key: &A::Key) -> u32 {
        let mut cur = self.root;
        let mut candidate = NIL;
        while cur != NIL {
            self.stats.node_visits(1);
            self.stats.comparisons(1);
            if self.adapter.cmp_entry_key(cx, &self.node(cur).entry, key) == Ordering::Less {
                cur = self.node(cur).right;
            } else {
                candidate = cur;
                cur = self.node(cur).left;
            }
        }
        candidate
    }

    /// First node (in order) whose *entry* compares ≥ `entry`, or NIL.
    fn lower_bound_entry(&self, cx: A::Ctx<'_>, entry: &A::Entry) -> u32 {
        let mut cur = self.root;
        let mut candidate = NIL;
        while cur != NIL {
            self.stats.node_visits(1);
            self.stats.comparisons(1);
            if self.adapter.cmp_entries(cx, &self.node(cur).entry, entry) == Ordering::Less {
                cur = self.node(cur).right;
            } else {
                candidate = cur;
                cur = self.node(cur).left;
            }
        }
        candidate
    }

    fn insert_inner(&mut self, cx: A::Ctx<'_>, entry: A::Entry) {
        if self.root == NIL {
            self.root = self.alloc(entry, NIL);
            self.len = 1;
            return;
        }
        let mut cur = self.root;
        loop {
            self.stats.node_visits(1);
            self.stats.comparisons(1);
            let go_left =
                self.adapter.cmp_entries(cx, &entry, &self.node(cur).entry) == Ordering::Less;
            let next = if go_left {
                self.node(cur).left
            } else {
                self.node(cur).right
            };
            if next == NIL {
                let id = self.alloc(entry, cur);
                if go_left {
                    self.node_mut(cur).left = id;
                } else {
                    self.node_mut(cur).right = id;
                }
                self.len += 1;
                self.rebalance_upward(cur);
                return;
            }
            cur = next;
        }
    }

    /// Physically remove node `id` (standard BST removal + rebalance).
    fn remove_node(&mut self, id: u32) {
        let (l, r) = (self.node(id).left, self.node(id).right);
        let victim = if l != NIL && r != NIL {
            // Two children: move successor's entry here, remove successor.
            let s = self.successor(id);
            self.node_mut(id).entry = self.node(s).entry;
            self.stats.data_moves(1);
            s
        } else {
            id
        };
        // `victim` has at most one child.
        let child = if self.node(victim).left != NIL {
            self.node(victim).left
        } else {
            self.node(victim).right
        };
        let parent = self.node(victim).parent;
        self.replace_child(parent, victim, child);
        self.free.push(victim);
        self.len -= 1;
        if parent != NIL {
            self.rebalance_upward(parent);
        } else if child != NIL {
            self.rebalance_upward(child);
        }
    }

    fn visit_from(&self, start: u32, visit: &mut dyn FnMut(&A::Entry) -> bool) {
        let mut cur = start;
        while cur != NIL {
            if !visit(&self.node(cur).entry) {
                return;
            }
            cur = self.successor(cur);
        }
    }
}

impl<A: Adapter> OrderedIndex<A> for AvlTree<A> {
    fn insert(&mut self, cx: A::Ctx<'_>, entry: A::Entry) {
        self.insert_inner(cx, entry);
    }

    fn insert_unique(&mut self, cx: A::Ctx<'_>, entry: A::Entry) -> Result<(), IndexError> {
        let mut cur = self.root;
        while cur != NIL {
            self.stats.node_visits(1);
            self.stats.comparisons(1);
            match self.adapter.cmp_entries(cx, &entry, &self.node(cur).entry) {
                Ordering::Less => cur = self.node(cur).left,
                Ordering::Greater => cur = self.node(cur).right,
                Ordering::Equal => return Err(IndexError::DuplicateKey),
            }
        }
        self.insert_inner(cx, entry);
        Ok(())
    }

    fn delete(&mut self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry> {
        let id = self.lower_bound(cx, key);
        if id == NIL {
            return None;
        }
        self.stats.comparisons(1);
        if self.adapter.cmp_entry_key(cx, &self.node(id).entry, key) != Ordering::Equal {
            return None;
        }
        let entry = self.node(id).entry;
        self.remove_node(id);
        Some(entry)
    }

    fn delete_entry(&mut self, cx: A::Ctx<'_>, entry: &A::Entry) -> bool {
        let mut cur = self.lower_bound_entry(cx, entry);
        while cur != NIL {
            self.stats.comparisons(1);
            if self.adapter.cmp_entries(cx, &self.node(cur).entry, entry) != Ordering::Equal {
                return false;
            }
            if self.node(cur).entry == *entry {
                self.remove_node(cur);
                return true;
            }
            cur = self.successor(cur);
        }
        false
    }

    fn search(&self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry> {
        let mut cur = self.root;
        while cur != NIL {
            self.stats.node_visits(1);
            self.stats.comparisons(1);
            match self.adapter.cmp_entry_key(cx, &self.node(cur).entry, key) {
                Ordering::Less => cur = self.node(cur).right,
                Ordering::Greater => cur = self.node(cur).left,
                Ordering::Equal => return Some(self.node(cur).entry),
            }
        }
        None
    }

    fn search_all(&self, cx: A::Ctx<'_>, key: &A::Key, out: &mut Vec<A::Entry>) {
        let start = self.lower_bound(cx, key);
        self.visit_from(start, &mut |e| {
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
        let start = match lo {
            Bound::Unbounded => {
                if self.root == NIL {
                    NIL
                } else {
                    self.min_node(self.root)
                }
            }
            Bound::Included(k) => self.lower_bound(cx, k),
            Bound::Excluded(k) => {
                let mut id = self.lower_bound(cx, k);
                while id != NIL {
                    self.stats.comparisons(1);
                    if self.adapter.cmp_entry_key(cx, &self.node(id).entry, k) == Ordering::Greater
                    {
                        break;
                    }
                    id = self.successor(id);
                }
                id
            }
        };
        self.visit_from(start, &mut |e| {
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
        self.visit_from(self.min_node(self.root), &mut |e| {
            visit(e);
            true
        });
    }

    fn len(&self) -> usize {
        self.len
    }

    fn storage_bytes(&self) -> usize {
        // Live-node accounting: the paper's C implementation allocated
        // per node, so arena over-capacity (a Rust Vec artifact) is not
        // charged.
        std::mem::size_of::<Self>()
            + self.nodes.len() * std::mem::size_of::<Node<A::Entry>>()
            + self.free.len() * std::mem::size_of::<u32>()
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
        if self.node(self.root).parent != NIL {
            return Err("root has a parent".into());
        }
        let mut count = 0usize;
        let mut last: Option<A::Entry> = None;
        let mut stack = vec![(self.root, false)];
        // Structural check: heights, balance, parent links, BST order.
        while let Some((id, expanded)) = stack.pop() {
            if !expanded {
                let n = self.node(id);
                let hl = self.height(n.left);
                let hr = self.height(n.right);
                if n.height != 1 + hl.max(hr) {
                    return Err(format!("node {id}: bad height"));
                }
                if (hl - hr).abs() > 1 {
                    return Err(format!("node {id}: unbalanced ({hl} vs {hr})"));
                }
                for c in [n.left, n.right] {
                    if c != NIL && self.node(c).parent != id {
                        return Err(format!("node {c}: bad parent link"));
                    }
                }
                if n.right != NIL {
                    stack.push((n.right, false));
                }
                stack.push((id, true));
                if n.left != NIL {
                    stack.push((n.left, false));
                }
            } else {
                let e = self.node(id).entry;
                if let Some(prev) = last {
                    if self.adapter.cmp_entries(cx, &prev, &e) == Ordering::Greater {
                        return Err(format!("node {id}: BST order violated"));
                    }
                }
                last = Some(e);
                count += 1;
            }
        }
        if count != self.len {
            return Err(format!("len {} but traversal found {count}", self.len));
        }
        Ok(())
    }
}

/// Raw structural access for the `mmdb-check` verification layer.
#[cfg(feature = "check")]
impl<A: Adapter> AvlTree<A> {
    /// Arena id of the root node, if the tree is non-empty.
    #[must_use]
    pub fn raw_root(&self) -> Option<u32> {
        (self.root != NIL).then_some(self.root)
    }

    /// Owned views of every node reachable from the root (one entry each).
    #[must_use]
    pub fn raw_nodes(&self) -> Vec<crate::raw::TreeNodeView<A::Entry>> {
        let mut out = Vec::new();
        let mut stack = match self.raw_root() {
            Some(r) => vec![r],
            None => Vec::new(),
        };
        while let Some(id) = stack.pop() {
            let n = &self.nodes[id as usize];
            out.push(crate::raw::TreeNodeView {
                id,
                entries: vec![n.entry],
                left: (n.left != NIL).then_some(n.left),
                right: (n.right != NIL).then_some(n.right),
                parent: (n.parent != NIL).then_some(n.parent),
                height: n.height,
            });
            if n.left != NIL {
                stack.push(n.left);
            }
            if n.right != NIL {
                stack.push(n.right);
            }
            if out.len() > self.nodes.len() {
                break;
            }
        }
        out
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

    fn nat() -> AvlTree<NaturalAdapter<u64>> {
        AvlTree::new(NaturalAdapter::new())
    }

    #[test]
    fn empty_tree() {
        let mut t = nat();
        assert_eq!(t.len(), 0);
        assert_eq!(t.search((), &1), None);
        assert_eq!(t.delete((), &1), None);
        assert!(!t.delete_entry((), &1));
        t.validate(()).unwrap();
    }

    #[test]
    fn sequential_insert_stays_balanced() {
        let mut t = nat();
        for k in 0..1000u64 {
            t.insert((), k);
        }
        t.validate(()).unwrap();
        assert_eq!(t.len(), 1000);
        // Height of an AVL with 1000 nodes is at most 1.44 log2(1001) ≈ 14.
        assert!(
            t.node(t.root).height <= 15,
            "height {}",
            t.node(t.root).height
        );
        for k in 0..1000u64 {
            assert_eq!(t.search((), &k), Some(k), "key {k}");
        }
    }

    #[test]
    fn reverse_insert_stays_balanced() {
        let mut t = nat();
        for k in (0..1000u64).rev() {
            t.insert((), k);
        }
        t.validate(()).unwrap();
        assert!(t.node(t.root).height <= 15);
    }

    #[test]
    fn delete_every_other() {
        let mut t = nat();
        for k in 0..500u64 {
            t.insert((), k);
        }
        for k in (0..500u64).step_by(2) {
            assert_eq!(t.delete((), &k), Some(k));
        }
        t.validate(()).unwrap();
        assert_eq!(t.len(), 250);
        for k in 0..500u64 {
            assert_eq!(t.search((), &k).is_some(), k % 2 == 1);
        }
    }

    #[test]
    fn delete_until_empty_then_reuse() {
        let mut t = nat();
        for k in 0..100u64 {
            t.insert((), k);
        }
        for k in 0..100u64 {
            assert_eq!(t.delete((), &k), Some(k));
        }
        assert!(t.is_empty());
        t.validate(()).unwrap();
        // Arena slots must be reused.
        for k in 0..100u64 {
            t.insert((), k);
        }
        assert!(t.nodes.len() <= 100);
        t.validate(()).unwrap();
    }

    #[test]
    fn scan_is_ordered() {
        let mut t = nat();
        for e in testkit::shuffled_unique_entries(512, 11) {
            t.insert((), e);
        }
        let mut out = Vec::new();
        t.scan(&mut |e| out.push(*e));
        let mut expect = out.clone();
        expect.sort_unstable();
        assert_eq!(out, expect);
        assert_eq!(out.len(), 512);
    }

    #[test]
    fn range_queries() {
        let mut t = nat();
        for k in 0..100u64 {
            t.insert((), k * 2);
        }
        let mut out = Vec::new();
        t.range((), Bound::Included(&10), Bound::Included(&20), &mut out);
        assert_eq!(out, vec![10, 12, 14, 16, 18, 20]);
        out.clear();
        t.range((), Bound::Excluded(&10), Bound::Excluded(&20), &mut out);
        assert_eq!(out, vec![12, 14, 16, 18]);
        out.clear();
        // Bounds between stored keys.
        t.range((), Bound::Included(&11), Bound::Included(&15), &mut out);
        assert_eq!(out, vec![12, 14]);
    }

    #[test]
    fn duplicates_and_delete_entry() {
        let mut t = AvlTree::new(DupAdapter);
        for low in 0..10u64 {
            t.insert((), (7 << 16) | low);
        }
        t.insert((), 3 << 16);
        let mut out = Vec::new();
        t.search_all((), &7, &mut out);
        assert_eq!(out.len(), 10);
        assert!(t.delete_entry((), &((7 << 16) | 4)));
        assert!(!t.delete_entry((), &((7 << 16) | 4)));
        out.clear();
        t.search_all((), &7, &mut out);
        assert_eq!(out.len(), 9);
        t.validate(()).unwrap();
    }

    #[test]
    fn insert_unique_vs_duplicates() {
        let mut t = nat();
        t.insert_unique((), 5).unwrap();
        assert_eq!(t.insert_unique((), 5), Err(IndexError::DuplicateKey));
        t.insert((), 5); // plain insert allows it
        assert_eq!(t.len(), 2);
        t.validate(()).unwrap();
    }

    #[test]
    fn differential_vs_model() {
        let mut t = AvlTree::new(DupAdapter);
        testkit::ordered_differential(&mut t, 0xA71, 6000, 300);
    }

    #[cfg(feature = "stats")]
    #[test]
    fn search_cost_is_logarithmic() {
        let mut t = nat();
        for e in testkit::shuffled_unique_entries(30_000, 5) {
            t.insert((), e >> 16); // unique keys 0..30000
        }
        t.reset_stats();
        for k in (0..30_000u64).step_by(100) {
            t.search((), &k);
        }
        let per_search = t.stats().comparisons as f64 / 300.0;
        // log2(30000) ≈ 14.9; AVL worst case 1.44×.
        assert!(per_search < 25.0, "per-search comparisons {per_search}");
        assert!(
            per_search > 8.0,
            "suspiciously few comparisons {per_search}"
        );
    }

    #[cfg(feature = "stats")]
    #[test]
    fn storage_factor_is_about_three() {
        // Paper §3.2.2: "the AVL Tree storage factor was 3 because of the
        // two node pointers it needs for each data item".
        let mut t = AvlTree::new(DupAdapter);
        let n = 10_000usize;
        for e in testkit::shuffled_unique_entries(n, 5) {
            t.insert((), e);
        }
        let payload = n * std::mem::size_of::<u64>();
        let factor = t.storage_bytes() as f64 / payload as f64;
        assert!((2.0..=4.5).contains(&factor), "AVL storage factor {factor}");
    }
}
