//! The T-Tree (§3.2.1) — the paper's new index structure.
//!
//! *"The T Tree is a binary tree with many elements per node … Since the
//! T Tree is a binary tree, it retains the intrinsic binary search nature
//! of the AVL Tree, and, because a T node contains many elements, the
//! T Tree has the good update and storage characteristics of the B Tree."*
//!
//! Terminology from the paper:
//! * **internal node** — two subtrees; occupancy kept within
//!   `[min_count, max_count]` (best effort — see below).
//! * **half-leaf** — exactly one child.
//! * **leaf** — no children; occupancy ranges from zero (transiently) to
//!   `max_count`.
//! * node *N* **bounds** value *x* iff `min(N) ≤ x ≤ max(N)`.
//! * the **greatest lower bound** (GLB) of an internal node is the largest
//!   value in its left subtree, held by the rightmost node there.
//!
//! Algorithms implemented exactly as described in §3.2.1:
//! * **Search** — binary-tree descent comparing against node min/max, then
//!   a binary search of the bounding node.
//! * **Insert** — into the bounding node; on overflow the *minimum* element
//!   is spilled to the GLB leaf (footnote 5: moving the minimum requires
//!   less data movement than the maximum); if no bounding node exists the
//!   value goes to the node where the search ended, growing a new leaf and
//!   rebalancing (AVL rotations) if that node is full.
//! * **Delete** — from the bounding node; internal-node underflow borrows
//!   the GLB from a leaf; an emptied leaf is unlinked and the tree
//!   rebalanced; leaves are otherwise allowed to underflow.
//! * **Rotations** — AVL-style; after an LR/RL double rotation promotes a
//!   sparsely filled node to subtree root, elements are transferred from
//!   its GLB node so internal occupancy returns to `min_count` (the
//!   "special rotation" of \[LeC85\]).
//!
//! The min/max slack ("the minimum and maximum counts will usually differ
//! by just a small amount, on the order of one or two items") is
//! configurable via [`TTreeConfig::slack`] and ablated in the benchmarks.

use crate::adapter::Adapter;
use crate::stats::{Counters, Snapshot};
use crate::traits::{bound_ok_hi, IndexError, OrderedIndex};
use std::cmp::Ordering;
use std::ops::Bound;

const NIL: u32 = u32::MAX;

/// Configuration for a [`TTree`].
#[derive(Debug, Clone, Copy)]
pub struct TTreeConfig {
    /// Maximum elements per node (the paper's *maximum count*; the "Node
    /// Size" axis of Graphs 1 and 2).
    pub max_count: usize,
    /// `max_count - min_count` for internal nodes. The paper found one or
    /// two items of slack "enough to significantly reduce the need for
    /// tree rotations".
    pub slack: usize,
}

impl Default for TTreeConfig {
    fn default() -> Self {
        // A mid-sized node: the paper's Graph 2 shows flat good behaviour
        // for T-Tree node sizes in the tens.
        TTreeConfig {
            max_count: 30,
            slack: 2,
        }
    }
}

impl TTreeConfig {
    /// Config with a given node size and the default slack of 2.
    #[must_use]
    pub fn with_node_size(max_count: usize) -> Self {
        TTreeConfig {
            max_count: max_count.max(1),
            slack: 2,
        }
    }

    /// Minimum elements for an internal node (`max_count - slack`, at
    /// least 1) — the paper's *minimum count*.
    #[must_use]
    pub fn min_count(&self) -> usize {
        self.max_count.saturating_sub(self.slack).max(1)
    }
}

struct Node<E> {
    /// Sorted elements; `items[0]` is the node minimum, the last element
    /// the node maximum.
    items: Vec<E>,
    /// Descent key cache: [`Adapter::entry_tag`] of `items[0]` and of the
    /// last item. Unequal tags decide the bounding test during descent
    /// without dereferencing the entry; equal tags (always, for adapters
    /// keeping the default tag of 0) fall back to the full comparison.
    min_tag: u64,
    max_tag: u64,
    left: u32,
    right: u32,
    parent: u32,
    height: i32,
}

/// Where a bounding-node search ended.
enum Probe {
    /// `id` bounds the value.
    Bounds(u32),
    /// Fell off node `id` heading left (`true`) or right (`false`).
    Off(u32, bool),
    /// Empty tree.
    Empty,
}

/// The T-Tree index.
pub struct TTree<A: Adapter> {
    adapter: A,
    config: TTreeConfig,
    nodes: Vec<Node<A::Entry>>,
    free: Vec<u32>,
    root: u32,
    len: usize,
    stats: Counters,
}

impl<A: Adapter> TTree<A> {
    /// Create an empty T-Tree.
    pub fn new(adapter: A, config: TTreeConfig) -> Self {
        TTree {
            adapter,
            config,
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            len: 0,
            stats: Counters::default(),
        }
    }

    /// Create with the default configuration.
    pub fn with_default_config(adapter: A) -> Self {
        TTree::new(adapter, TTreeConfig::default())
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> TTreeConfig {
        self.config
    }

    fn node(&self, id: u32) -> &Node<A::Entry> {
        &self.nodes[id as usize]
    }

    fn node_mut(&mut self, id: u32) -> &mut Node<A::Entry> {
        &mut self.nodes[id as usize]
    }

    fn alloc(&mut self, cx: A::Ctx<'_>, first: A::Entry, parent: u32) -> u32 {
        let mut items = Vec::with_capacity(self.config.max_count);
        let tag = self.adapter.entry_tag(cx, &first);
        items.push(first);
        let n = Node {
            items,
            min_tag: tag,
            max_tag: tag,
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

    /// Recompute node `id`'s cached bounding-key tags from its items.
    /// Called after every item mutation; an emptied node gets `(0, 0)`
    /// (it is either about to be unlinked or refilled).
    fn refresh_tags(&mut self, cx: A::Ctx<'_>, id: u32) {
        let (min_tag, max_tag) = {
            let items = &self.node(id).items;
            match (items.first(), items.last()) {
                (Some(a), Some(b)) => {
                    (self.adapter.entry_tag(cx, a), self.adapter.entry_tag(cx, b))
                }
                _ => (0, 0),
            }
        };
        let n = self.node_mut(id);
        n.min_tag = min_tag;
        n.max_tag = max_tag;
    }

    fn height(&self, id: u32) -> i32 {
        if id == NIL {
            0
        } else {
            self.node(id).height
        }
    }

    fn is_internal(&self, id: u32) -> bool {
        let n = self.node(id);
        n.left != NIL && n.right != NIL
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

    /// \[LeC85\]'s special-rotation fix-up: a double rotation can promote a
    /// nearly empty node (often a freshly grown one-element leaf) to
    /// subtree root, where it now *bounds* a wide key range with few
    /// elements. Refill it from its greatest-lower-bound node so internal
    /// occupancy returns to `min_count`.
    fn refill_internal(&mut self, cx: A::Ctx<'_>, id: u32) {
        if !self.is_internal(id) {
            return;
        }
        let need = self
            .config
            .min_count()
            .saturating_sub(self.node(id).items.len());
        if need == 0 {
            return;
        }
        let g = self.rightmost(self.node(id).left);
        // Never empty the donor here; structural removal during rotation
        // fix-up would cascade.
        let avail = self.node(g).items.len().saturating_sub(1);
        let take = need.min(avail);
        if take == 0 {
            return;
        }
        let gl = self.node(g).items.len();
        let moved: Vec<A::Entry> = self.node_mut(g).items.drain(gl - take..).collect();
        self.stats.data_moves(take as u64);
        let n = self.node_mut(id);
        for (i, e) in moved.into_iter().enumerate() {
            n.items.insert(i, e);
        }
        self.refresh_tags(cx, g);
        self.refresh_tags(cx, id);
    }

    fn rebalance_node(&mut self, cx: A::Ctx<'_>, id: u32) -> u32 {
        self.update_height(id);
        let bf = self.balance(id);
        if bf > 1 {
            let new_root = if self.balance(self.node(id).left) < 0 {
                let l = self.node(id).left;
                self.rotate_left(l);
                self.rotate_right(id)
            } else {
                self.rotate_right(id)
            };
            self.refill_internal(cx, new_root);
            new_root
        } else if bf < -1 {
            let new_root = if self.balance(self.node(id).right) > 0 {
                let r = self.node(id).right;
                self.rotate_right(r);
                self.rotate_left(id)
            } else {
                self.rotate_left(id)
            };
            self.refill_internal(cx, new_root);
            new_root
        } else {
            id
        }
    }

    fn rebalance_upward(&mut self, cx: A::Ctx<'_>, mut cur: u32) {
        while cur != NIL {
            let sub_root = self.rebalance_node(cx, cur);
            cur = self.node(sub_root).parent;
        }
    }

    fn leftmost(&self, mut id: u32) -> u32 {
        while self.node(id).left != NIL {
            id = self.node(id).left;
        }
        id
    }

    fn rightmost(&self, mut id: u32) -> u32 {
        while self.node(id).right != NIL {
            id = self.node(id).right;
        }
        id
    }

    fn successor_node(&self, id: u32) -> u32 {
        if self.node(id).right != NIL {
            return self.leftmost(self.node(id).right);
        }
        let mut cur = id;
        let mut p = self.node(id).parent;
        while p != NIL && self.node(p).right == cur {
            cur = p;
            p = self.node(p).parent;
        }
        p
    }

    /// Decide an ordering from two key tags alone: unequal tags are
    /// conclusive (monotonicity), equal tags decide nothing.
    #[inline]
    fn tag_cmp(probe: u64, bound: u64) -> Option<Ordering> {
        match probe.cmp(&bound) {
            Ordering::Equal => None,
            o => Some(o),
        }
    }

    /// The paper's descent: compare against node min and max, then binary
    /// search the bounding node. The min/max comparisons consult the
    /// node's cached key tags first and dereference the bounding entry
    /// only when the tags tie; either way each decision is counted as one
    /// comparison, so the §3.3.4 cost model and the comparison-count
    /// experiments are unaffected by the cache.
    fn probe_entry(&self, cx: A::Ctx<'_>, entry: &A::Entry) -> Probe {
        if self.root == NIL {
            return Probe::Empty;
        }
        let tag = self.adapter.entry_tag(cx, entry);
        let mut cur = self.root;
        loop {
            self.stats.node_visits(1);
            let n = self.node(cur);
            self.stats.comparisons(1);
            let below = match Self::tag_cmp(tag, n.min_tag) {
                Some(o) => o == Ordering::Less,
                None => self.adapter.cmp_entries(cx, entry, &n.items[0]) == Ordering::Less,
            };
            if below {
                if n.left == NIL {
                    return Probe::Off(cur, true);
                }
                cur = n.left;
                continue;
            }
            self.stats.comparisons(1);
            let above = match Self::tag_cmp(tag, n.max_tag) {
                Some(o) => o == Ordering::Greater,
                None => {
                    self.adapter
                        .cmp_entries(cx, entry, &n.items[n.items.len() - 1])
                        == Ordering::Greater
                }
            };
            if above {
                if n.right == NIL {
                    return Probe::Off(cur, false);
                }
                cur = n.right;
                continue;
            }
            return Probe::Bounds(cur);
        }
    }

    /// Binary search within node `id` for the first position whose item
    /// compares ≥ using `cmp`; `cmp(item)` returns the ordering of `item`
    /// relative to the probe.
    fn node_lower_bound_by(&self, id: u32, mut cmp: impl FnMut(&A::Entry) -> Ordering) -> usize {
        let items = &self.node(id).items;
        let mut lo = 0usize;
        let mut hi = items.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.stats.comparisons(1);
            if cmp(&items[mid]) == Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Tree-order position of the first entry with key ≥ `key`:
    /// `(node, index)` or `None`.
    fn lower_bound_key(&self, cx: A::Ctx<'_>, key: &A::Key) -> Option<(u32, usize)> {
        self.lower_bound_by(|e| self.adapter.cmp_entry_key(cx, e, key))
    }

    fn lower_bound_by(&self, cmp: impl Fn(&A::Entry) -> Ordering + Copy) -> Option<(u32, usize)> {
        let mut cur = self.root;
        let mut best = None;
        while cur != NIL {
            self.stats.node_visits(1);
            let pos = self.node_lower_bound_by(cur, cmp);
            let n = self.node(cur);
            if pos == 0 {
                best = Some((cur, 0));
                cur = n.left;
            } else if pos == n.items.len() {
                cur = n.right;
            } else {
                return Some((cur, pos));
            }
        }
        best
    }

    /// Advance a `(node, index)` cursor one entry in tree order.
    fn advance(&self, node: u32, idx: usize) -> Option<(u32, usize)> {
        if idx + 1 < self.node(node).items.len() {
            return Some((node, idx + 1));
        }
        let s = self.successor_node(node);
        if s == NIL {
            None
        } else {
            Some((s, 0))
        }
    }

    /// Insert `entry` into node `id` keeping the node sorted.
    fn node_insert_sorted(&mut self, cx: A::Ctx<'_>, id: u32, entry: A::Entry) {
        let pos = {
            let items = &self.node(id).items;
            let mut lo = 0usize;
            let mut hi = items.len();
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                self.stats.comparisons(1);
                if self.adapter.cmp_entries(cx, &items[mid], &entry) == Ordering::Greater {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        };
        let moves = (self.node(id).items.len() - pos) as u64 + 1;
        self.stats.data_moves(moves);
        self.node_mut(id).items.insert(pos, entry);
        self.refresh_tags(cx, id);
    }

    /// Grow a new one-element leaf under `parent` on the given side.
    fn grow_leaf(&mut self, cx: A::Ctx<'_>, parent: u32, left_side: bool, entry: A::Entry) {
        self.stats.restructures(1);
        let id = self.alloc(cx, entry, parent);
        if left_side {
            debug_assert_eq!(self.node(parent).left, NIL);
            self.node_mut(parent).left = id;
        } else {
            debug_assert_eq!(self.node(parent).right, NIL);
            self.node_mut(parent).right = id;
        }
        self.rebalance_upward(cx, parent);
    }

    /// Spill the minimum of full node `id` to its GLB position (§3.2.1
    /// insert-overflow rule), then insert `entry` into `id`.
    fn insert_with_spill(&mut self, cx: A::Ctx<'_>, id: u32, entry: A::Entry) {
        let min_elem = self.node_mut(id).items.remove(0);
        self.stats.data_moves(self.node(id).items.len() as u64 + 1);
        self.node_insert_sorted(cx, id, entry);
        let left = self.node(id).left;
        if left == NIL {
            // The spilled minimum becomes the first GLB: a new left leaf.
            self.grow_leaf(cx, id, true, min_elem);
            return;
        }
        let g = self.rightmost(left);
        if self.node(g).items.len() < self.config.max_count {
            self.node_mut(g).items.push(min_elem);
            self.refresh_tags(cx, g);
            self.stats.data_moves(1);
        } else {
            // GLB node full: grow a new leaf as its right child (it is the
            // rightmost of the left subtree, so that slot is free).
            self.grow_leaf(cx, g, false, min_elem);
        }
    }

    fn insert_inner(&mut self, cx: A::Ctx<'_>, entry: A::Entry) {
        match self.probe_entry(cx, &entry) {
            Probe::Empty => {
                self.root = self.alloc(cx, entry, NIL);
            }
            Probe::Bounds(id) => {
                if self.node(id).items.len() < self.config.max_count {
                    self.node_insert_sorted(cx, id, entry);
                } else {
                    self.insert_with_spill(cx, id, entry);
                }
            }
            Probe::Off(id, left_side) => {
                if self.node(id).items.len() < self.config.max_count {
                    // The value extends this node's range (new min or max).
                    if left_side {
                        let moves = self.node(id).items.len() as u64 + 1;
                        self.stats.data_moves(moves);
                        self.node_mut(id).items.insert(0, entry);
                    } else {
                        self.stats.data_moves(1);
                        self.node_mut(id).items.push(entry);
                    }
                    self.refresh_tags(cx, id);
                } else {
                    self.grow_leaf(cx, id, left_side, entry);
                }
            }
        }
        self.len += 1;
    }

    /// Unlink node `id`, which must have at most one child, then rebalance.
    fn remove_structural(&mut self, cx: A::Ctx<'_>, id: u32) {
        self.stats.restructures(1);
        let n = self.node(id);
        debug_assert!(
            n.left == NIL || n.right == NIL,
            "structural removal needs ≤1 child"
        );
        let child = if n.left != NIL { n.left } else { n.right };
        let parent = n.parent;
        self.replace_child(parent, id, child);
        self.free.push(id);
        if parent != NIL {
            self.rebalance_upward(cx, parent);
        } else if child != NIL {
            self.rebalance_upward(cx, child);
        }
    }

    /// Remove the item at `(id, pos)` and restore §3.2.1's delete
    /// invariants.
    fn remove_at(&mut self, cx: A::Ctx<'_>, id: u32, pos: usize) -> A::Entry {
        let e = self.node_mut(id).items.remove(pos);
        self.stats
            .data_moves((self.node(id).items.len() - pos) as u64);
        self.refresh_tags(cx, id);
        self.len -= 1;

        if self.is_internal(id) {
            if self.node(id).items.len() < self.config.min_count() {
                // Borrow the greatest lower bound from a leaf.
                let g = self.rightmost(self.node(id).left);
                let borrowed =
                    crate::pop_invariant(&mut self.node_mut(g).items, "GLB node is non-empty");
                self.stats.data_moves(2);
                self.node_mut(id).items.insert(0, borrowed);
                self.refresh_tags(cx, g);
                self.refresh_tags(cx, id);
                if self.node(g).items.is_empty() {
                    self.remove_structural(cx, g);
                }
            }
        } else if self.node(id).items.is_empty() {
            // An emptied leaf is deleted; an emptied half-leaf is spliced
            // out (its single child takes its place). A leaf that merely
            // underflows is left alone ("the node … is allowed to
            // underflow").
            self.remove_structural(cx, id);
        }
        e
    }

    /// A rewindable ordered cursor starting at the smallest entry — the
    /// scan interface merge joins need (\[BlE77\] re-scans each group of
    /// equal inner keys once per matching outer tuple; rewinding a T-Tree
    /// cursor re-walks the node chain, which is exactly the pointer-chase
    /// cost §3.3.4 Test 4 measures against the array's contiguous scan).
    pub fn cursor(&self) -> TTreeCursor<'_, A> {
        let pos = if self.root == NIL {
            None
        } else {
            Some((self.leftmost(self.root), 0))
        };
        TTreeCursor { tree: self, pos }
    }

    /// Ordered iterator over all entries.
    pub fn iter(&self) -> TTreeIter<'_, A> {
        let pos = if self.root == NIL {
            None
        } else {
            Some((self.leftmost(self.root), 0))
        };
        TTreeIter { tree: self, pos }
    }

    /// Iterator over all entries with key ≥ the probe, in order — the scan
    /// entry point used by the Tree Merge join and by §3.3.5's ordered
    /// (`<`, `≤`, `>`, `≥`) join support.
    pub fn iter_from(&self, cx: A::Ctx<'_>, key: &A::Key) -> TTreeIter<'_, A> {
        TTreeIter {
            tree: self,
            pos: self.lower_bound_key(cx, key),
        }
    }

    /// Average occupancy of internal nodes (diagnostic; the paper's design
    /// keeps this near `max_count`).
    #[must_use]
    pub fn internal_fill(&self) -> f64 {
        let mut total = 0usize;
        let mut count = 0usize;
        for (i, n) in self.nodes.iter().enumerate() {
            let id = i as u32;
            if self.free.contains(&id) {
                continue;
            }
            if self.is_live(id) && self.is_internal(id) {
                total += n.items.len();
                count += 1;
            }
        }
        if count == 0 {
            1.0
        } else {
            total as f64 / (count * self.config.max_count) as f64
        }
    }

    fn is_live(&self, id: u32) -> bool {
        // A node is live if it is reachable from the root; cheap check via
        // parent chain terminating at root.
        let mut cur = id;
        let mut hops = 0;
        while cur != NIL {
            if cur == self.root {
                return true;
            }
            cur = self.node(cur).parent;
            hops += 1;
            if hops > self.nodes.len() {
                return false;
            }
        }
        false
    }

    fn validate_rec(
        &self,
        cx: A::Ctx<'_>,
        id: u32,
        count: &mut usize,
        last: &mut Option<A::Entry>,
    ) -> Result<i32, String> {
        if id == NIL {
            return Ok(0);
        }
        let n = self.node(id);
        if n.items.is_empty() {
            return Err(format!("node {id}: empty"));
        }
        if n.items.len() > self.config.max_count {
            return Err(format!("node {id}: overfull"));
        }
        for w in n.items.windows(2) {
            if self.adapter.cmp_entries(cx, &w[0], &w[1]) == Ordering::Greater {
                return Err(format!("node {id}: items out of order"));
            }
        }
        // The descent key cache must re-derive from the bounding items.
        let want_min = self.adapter.entry_tag(cx, &n.items[0]);
        let want_max = self.adapter.entry_tag(cx, &n.items[n.items.len() - 1]);
        if n.min_tag != want_min || n.max_tag != want_max {
            return Err(format!(
                "node {id}: stale key tags ({:#x},{:#x}) != ({want_min:#x},{want_max:#x})",
                n.min_tag, n.max_tag
            ));
        }
        for c in [n.left, n.right] {
            if c != NIL && self.node(c).parent != id {
                return Err(format!("node {c}: bad parent link"));
            }
        }
        let hl = self.validate_rec(cx, n.left, count, last)?;
        for item in &n.items {
            if let Some(prev) = *last {
                if self.adapter.cmp_entries(cx, &prev, item) == Ordering::Greater {
                    return Err(format!("node {id}: global order violated"));
                }
            }
            *last = Some(*item);
            *count += 1;
        }
        let before_right = *last;
        let hr = self.validate_rec(cx, n.right, count, last)?;
        let _ = before_right;
        if (hl - hr).abs() > 1 {
            return Err(format!("node {id}: unbalanced ({hl} vs {hr})"));
        }
        let h = 1 + hl.max(hr);
        if n.height != h {
            return Err(format!("node {id}: height {} != {h}", n.height));
        }
        Ok(h)
    }
}

/// Bulk construction (restart's index-rebuild path; DESIGN.md §16).
impl<A: Adapter> TTree<A> {
    /// Build a T-Tree in one bottom-up pass from entries already sorted by
    /// [`Adapter::cmp_entries`], each paired with its
    /// [`Adapter::entry_tag`].
    ///
    /// Nodes are filled to `config.min_count()` — so every internal node
    /// meets the occupancy invariant at birth and inserts still find slack
    /// up to `max_count` before spilling — and arranged as a
    /// count-balanced tree ([`crate::bulk::balanced_shape`]); no
    /// rebalancing or GLB traffic occurs. Entries with equal keys keep
    /// their input order in the scan sequence (incremental insertion makes
    /// no such promise — GLB spills scramble equal keys).
    ///
    /// The caller is responsible for sortedness and tag correctness
    /// (checked in debug builds); [`crate::sort::radix_sort_by_tag`] over
    /// exact tags, or the run-sort kernel over `entry_tag`s plus a
    /// tie-break on the full comparison, produces exactly this input.
    #[must_use]
    pub fn build_from_sorted(
        adapter: A,
        cx: A::Ctx<'_>,
        config: TTreeConfig,
        tagged: Vec<(u64, A::Entry)>,
    ) -> Self {
        let fill = config.min_count();
        Self::build_with_fill(adapter, cx, config, tagged, fill)
    }

    fn build_with_fill(
        adapter: A,
        cx: A::Ctx<'_>,
        config: TTreeConfig,
        tagged: Vec<(u64, A::Entry)>,
        fill: usize,
    ) -> Self {
        debug_assert!(
            tagged
                .windows(2)
                .all(|w| adapter.cmp_entries(cx, &w[0].1, &w[1].1) != Ordering::Greater),
            "bulk build input not sorted"
        );
        debug_assert!(
            tagged.iter().all(|(t, e)| *t == adapter.entry_tag(cx, e)),
            "bulk build tag mismatch"
        );
        let n = tagged.len();
        let mut tree = TTree::new(adapter, config);
        if n == 0 {
            return tree;
        }
        let fill = fill.clamp(1, config.max_count);
        let shape = crate::bulk::balanced_shape(n, fill);
        let to_id = |link: Option<usize>| link.map_or(NIL, |i| i as u32);
        tree.nodes.reserve(shape.len());
        for s in &shape {
            let slice = &tagged[s.start..s.end];
            let mut items = Vec::with_capacity(config.max_count);
            items.extend(slice.iter().map(|(_, e)| *e));
            tree.stats.data_moves(items.len() as u64);
            tree.nodes.push(Node {
                items,
                min_tag: slice.first().map_or(0, |(t, _)| *t),
                max_tag: slice.last().map_or(0, |(t, _)| *t),
                left: to_id(s.left),
                right: to_id(s.right),
                parent: to_id(s.parent),
                height: s.height,
            });
        }
        // `balanced_shape` pushes each subtree root before its children,
        // so the overall root is arena id 0.
        tree.root = 0;
        tree.len = n;
        tree
    }

    /// Test hook (negative occupancy tests): bulk-build with an arbitrary
    /// per-node fill, bypassing the `min_count` choice above so the
    /// checker's occupancy validator can be shown to catch under-filled
    /// internal nodes.
    #[cfg(feature = "check")]
    #[must_use]
    pub fn raw_build_with_fill(
        adapter: A,
        cx: A::Ctx<'_>,
        config: TTreeConfig,
        tagged: Vec<(u64, A::Entry)>,
        fill: usize,
    ) -> Self {
        Self::build_with_fill(adapter, cx, config, tagged, fill)
    }
}

/// An opaque saved cursor position (see [`TTreeCursor::mark`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TTreeMark(Option<(u32, usize)>);

/// A rewindable ordered cursor over a [`TTree`].
///
/// Positions are only valid while the tree is not mutated (the borrow
/// enforces this).
pub struct TTreeCursor<'a, A: Adapter> {
    tree: &'a TTree<A>,
    pos: Option<(u32, usize)>,
}

impl<A: Adapter> TTreeCursor<'_, A> {
    /// The entry under the cursor, if any.
    #[must_use]
    pub fn peek(&self) -> Option<A::Entry> {
        self.pos.map(|(node, idx)| self.tree.node(node).items[idx])
    }

    /// Move to the next entry in key order.
    pub fn advance(&mut self) {
        if let Some((node, idx)) = self.pos {
            self.tree
                .stats
                .node_visits(u64::from(idx + 1 >= self.tree.node(node).items.len()));
            self.pos = self.tree.advance(node, idx);
        }
    }

    /// Save the current position.
    #[must_use]
    pub fn mark(&self) -> TTreeMark {
        TTreeMark(self.pos)
    }

    /// Restore a saved position.
    pub fn rewind(&mut self, mark: TTreeMark) {
        self.pos = mark.0;
    }
}

/// Ordered iterator over a [`TTree`].
pub struct TTreeIter<'a, A: Adapter> {
    tree: &'a TTree<A>,
    pos: Option<(u32, usize)>,
}

impl<'a, A: Adapter> Iterator for TTreeIter<'a, A> {
    type Item = A::Entry;

    fn next(&mut self) -> Option<A::Entry> {
        let (node, idx) = self.pos?;
        let e = self.tree.node(node).items[idx];
        self.pos = self.tree.advance(node, idx);
        Some(e)
    }
}

impl<A: Adapter> OrderedIndex<A> for TTree<A> {
    fn insert(&mut self, cx: A::Ctx<'_>, entry: A::Entry) {
        self.insert_inner(cx, entry);
    }

    fn insert_unique(&mut self, cx: A::Ctx<'_>, entry: A::Entry) -> Result<(), IndexError> {
        if let Probe::Bounds(id) = self.probe_entry(cx, &entry) {
            let pos = self.node_lower_bound_by(id, |e| self.adapter.cmp_entries(cx, e, &entry));
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
        }
        self.insert_inner(cx, entry);
        Ok(())
    }

    fn delete(&mut self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry> {
        let (node, pos) = self.lower_bound_key(cx, key)?;
        self.stats.comparisons(1);
        if self
            .adapter
            .cmp_entry_key(cx, &self.node(node).items[pos], key)
            != Ordering::Equal
        {
            return None;
        }
        Some(self.remove_at(cx, node, pos))
    }

    fn delete_entry(&mut self, cx: A::Ctx<'_>, entry: &A::Entry) -> bool {
        let mut cur = self.lower_bound_by(|e| self.adapter.cmp_entries(cx, e, entry));
        while let Some((node, pos)) = cur {
            let e = self.node(node).items[pos];
            self.stats.comparisons(1);
            if self.adapter.cmp_entries(cx, &e, entry) != Ordering::Equal {
                return false;
            }
            if e == *entry {
                self.remove_at(cx, node, pos);
                return true;
            }
            cur = self.advance(node, pos);
        }
        false
    }

    fn search(&self, cx: A::Ctx<'_>, key: &A::Key) -> Option<A::Entry> {
        // The paper's search: descend on min/max (via the cached key
        // tags when they decide), binary search the bounding node.
        let tag = self.adapter.key_tag(cx, key);
        let mut cur = self.root;
        while cur != NIL {
            self.stats.node_visits(1);
            let n = self.node(cur);
            self.stats.comparisons(1);
            let min_above = match Self::tag_cmp(n.min_tag, tag) {
                Some(o) => o == Ordering::Greater,
                None => self.adapter.cmp_entry_key(cx, &n.items[0], key) == Ordering::Greater,
            };
            if min_above {
                cur = n.left;
                continue;
            }
            self.stats.comparisons(1);
            let max_below = match Self::tag_cmp(n.max_tag, tag) {
                Some(o) => o == Ordering::Less,
                None => {
                    self.adapter
                        .cmp_entry_key(cx, &n.items[n.items.len() - 1], key)
                        == Ordering::Less
                }
            };
            if max_below {
                cur = n.right;
                continue;
            }
            let pos = self.node_lower_bound_by(cur, |e| self.adapter.cmp_entry_key(cx, e, key));
            if pos < n.items.len() {
                self.stats.comparisons(1);
                if self.adapter.cmp_entry_key(cx, &n.items[pos], key) == Ordering::Equal {
                    return Some(n.items[pos]);
                }
            }
            return None;
        }
        None
    }

    fn search_all(&self, cx: A::Ctx<'_>, key: &A::Key, out: &mut Vec<A::Entry>) {
        // §3.3.4 Test 6 describes exactly this: "the search stops at any
        // tuple with that value, and the tree is then scanned … (since the
        // list of tuples for a given value is logically contiguous in the
        // tree)".
        let mut cur = self.lower_bound_key(cx, key);
        while let Some((node, pos)) = cur {
            let e = self.node(node).items[pos];
            self.stats.comparisons(1);
            if self.adapter.cmp_entry_key(cx, &e, key) != Ordering::Equal {
                return;
            }
            out.push(e);
            cur = self.advance(node, pos);
        }
    }

    fn range(
        &self,
        cx: A::Ctx<'_>,
        lo: Bound<&A::Key>,
        hi: Bound<&A::Key>,
        out: &mut Vec<A::Entry>,
    ) {
        let mut cur = match lo {
            Bound::Unbounded => {
                if self.root == NIL {
                    None
                } else {
                    Some((self.leftmost(self.root), 0))
                }
            }
            Bound::Included(k) => self.lower_bound_key(cx, k),
            Bound::Excluded(k) => {
                let mut c = self.lower_bound_key(cx, k);
                while let Some((node, pos)) = c {
                    self.stats.comparisons(1);
                    if self
                        .adapter
                        .cmp_entry_key(cx, &self.node(node).items[pos], k)
                        == Ordering::Greater
                    {
                        break;
                    }
                    c = self.advance(node, pos);
                }
                c
            }
        };
        // A node whose cached maximum tag settles the upper bound — below
        // the bound's tag, or equal to an exact tag of an inclusive bound —
        // is emitted whole without dereferencing an entry. Each entry still
        // counts the one comparison the entry-at-a-time test would make.
        let hi_tag = match hi {
            Bound::Unbounded => None,
            Bound::Included(k) => Some((
                self.adapter.key_tag(cx, k),
                self.adapter.key_tag_exact(cx, k),
            )),
            Bound::Excluded(k) => Some((self.adapter.key_tag(cx, k), false)),
        };
        while let Some((node, pos)) = cur {
            let n = self.node(node);
            let settled =
                hi_tag.is_none_or(|(tag, exact)| n.max_tag < tag || (exact && n.max_tag == tag));
            if settled {
                let rest = &n.items[pos..];
                if hi_tag.is_some() {
                    self.stats.comparisons(rest.len() as u64);
                }
                out.extend_from_slice(rest);
                cur = self.advance(node, n.items.len() - 1);
                continue;
            }
            let e = n.items[pos];
            let ord = match hi {
                Bound::Unbounded => Ordering::Less,
                Bound::Included(k) | Bound::Excluded(k) => {
                    self.stats.comparisons(1);
                    self.adapter.cmp_entry_key(cx, &e, k)
                }
            };
            if !bound_ok_hi(ord, &hi) {
                return;
            }
            out.push(e);
            cur = self.advance(node, pos);
        }
    }

    fn scan(&self, visit: &mut dyn FnMut(&A::Entry)) {
        for e in self.iter() {
            visit(&e);
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn storage_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>()
            + self.nodes.len() * std::mem::size_of::<Node<A::Entry>>()
            + self.free.len() * std::mem::size_of::<u32>();
        for n in &self.nodes {
            total += n.items.capacity() * std::mem::size_of::<A::Entry>();
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
        if self.node(self.root).parent != NIL {
            return Err("root has a parent".into());
        }
        let mut count = 0usize;
        let mut last = None;
        self.validate_rec(cx, self.root, &mut count, &mut last)?;
        if count != self.len {
            return Err(format!("len {} but traversal found {count}", self.len));
        }
        Ok(())
    }
}

/// Raw structural access for the `mmdb-check` verification layer.
#[cfg(feature = "check")]
impl<A: Adapter> TTree<A> {
    /// Arena id of the root node, if the tree is non-empty.
    #[must_use]
    pub fn raw_root(&self) -> Option<u32> {
        (self.root != NIL).then_some(self.root)
    }

    /// Owned views of every node reachable from the root.
    #[must_use]
    pub fn raw_nodes(&self) -> Vec<crate::raw::TreeNodeView<A::Entry>> {
        let mut out = Vec::new();
        let mut stack = match self.raw_root() {
            Some(r) => vec![r],
            None => Vec::new(),
        };
        while let Some(id) = stack.pop() {
            let n = self.node(id);
            out.push(crate::raw::TreeNodeView {
                id,
                entries: n.items.clone(),
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
                break; // cycle in child pointers; the checker reports it
            }
        }
        out
    }

    /// The adapter, for key comparisons during checking.
    #[must_use]
    pub fn raw_adapter(&self) -> &A {
        &self.adapter
    }

    /// Corruption hook (negative tests only): mutable access to the item
    /// vector of node `id`.
    pub fn raw_items_mut(&mut self, id: u32) -> &mut Vec<A::Entry> {
        &mut self.node_mut(id).items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::NaturalAdapter;
    use crate::testkit::{self, DupAdapter};

    fn nat(node_size: usize) -> TTree<NaturalAdapter<u64>> {
        TTree::new(
            NaturalAdapter::new(),
            TTreeConfig::with_node_size(node_size),
        )
    }

    #[test]
    fn empty_tree() {
        let mut t = nat(8);
        assert!(t.is_empty());
        assert_eq!(t.search((), &3), None);
        assert_eq!(t.delete((), &3), None);
        assert_eq!(t.iter().count(), 0);
        t.validate(()).unwrap();
    }

    #[test]
    fn single_node_fills_before_growing() {
        let mut t = nat(10);
        for k in 0..10u64 {
            t.insert((), k);
        }
        assert_eq!(t.nodes.len(), 1, "should still be a single node");
        t.insert((), 10);
        assert!(t.nodes.len() > 1, "overflow must grow the tree");
        t.validate(()).unwrap();
    }

    #[test]
    fn sequential_insert_balanced() {
        for ns in [1, 2, 4, 16, 60] {
            let mut t = nat(ns);
            for k in 0..3000u64 {
                t.insert((), k);
            }
            t.validate(()).unwrap_or_else(|e| panic!("ns {ns}: {e}"));
            for k in (0..3000u64).step_by(17) {
                assert_eq!(t.search((), &k), Some(k));
            }
            assert_eq!(t.search((), &3000), None);
        }
    }

    #[test]
    fn reverse_and_alternating_inserts() {
        let mut t = nat(6);
        for k in (0..1000u64).rev() {
            t.insert((), k);
        }
        t.validate(()).unwrap();
        let mut t2 = nat(6);
        for i in 0..1000u64 {
            let k = if i % 2 == 0 { i } else { 2000 - i };
            t2.insert((), k);
        }
        t2.validate(()).unwrap();
    }

    #[test]
    fn bounding_node_insert_spills_minimum() {
        let mut t = nat(4);
        // Fill: [10, 20, 30, 40]; then split pressure via bounded inserts.
        for k in [10u64, 20, 30, 40] {
            t.insert((), k);
        }
        t.insert((), 25); // bounds: spills 10 to a new left leaf
        t.validate(()).unwrap();
        let all: Vec<u64> = t.iter().collect();
        assert_eq!(all, vec![10, 20, 25, 30, 40]);
        // The minimum must have moved to a left leaf.
        let root = t.root;
        let left = t.node(root).left;
        assert_ne!(left, NIL);
        assert_eq!(t.node(left).items, vec![10]);
    }

    #[test]
    fn delete_underflow_borrows_glb() {
        let mut t = nat(4);
        for k in 0..40u64 {
            t.insert((), k);
        }
        t.validate(()).unwrap();
        // Delete from internal nodes until structure must reshape.
        for k in 0..30u64 {
            assert_eq!(t.delete((), &k), Some(k), "k={k}");
            t.validate(())
                .unwrap_or_else(|e| panic!("after delete {k}: {e}"));
        }
        assert_eq!(t.len(), 10);
        let remaining: Vec<u64> = t.iter().collect();
        assert_eq!(remaining, (30..40).collect::<Vec<u64>>());
    }

    #[test]
    fn delete_to_empty_and_reuse_arena() {
        let mut t = nat(3);
        for round in 0..3 {
            for k in 0..200u64 {
                t.insert((), k);
            }
            for k in 0..200u64 {
                assert_eq!(t.delete((), &k), Some(k), "round {round} k {k}");
            }
            assert!(t.is_empty());
            t.validate(()).unwrap();
        }
        assert!(t.nodes.len() < 200, "arena should be reused");
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut t = nat(12);
        let entries = testkit::shuffled_unique_entries(2048, 21);
        for e in &entries {
            t.insert((), *e);
        }
        let got: Vec<u64> = t.iter().collect();
        let mut expect = entries.clone();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn iter_from_starts_at_lower_bound() {
        let mut t = nat(5);
        for k in (0..100u64).step_by(10) {
            t.insert((), k);
        }
        let got: Vec<u64> = t.iter_from((), &35).collect();
        assert_eq!(got, vec![40, 50, 60, 70, 80, 90]);
        let got: Vec<u64> = t.iter_from((), &40).collect();
        assert_eq!(got[0], 40);
    }

    #[test]
    fn duplicates_contiguous_scan() {
        let mut t = TTree::new(DupAdapter, TTreeConfig::with_node_size(4));
        for low in 0..30u64 {
            t.insert((), (5 << 16) | low);
        }
        for k in [1u64, 9] {
            t.insert((), k << 16);
        }
        t.validate(()).unwrap();
        let mut out = Vec::new();
        t.search_all((), &5, &mut out);
        assert_eq!(out.len(), 30, "all duplicates found via contiguous scan");
        // delete_entry must find a specific duplicate anywhere in the run.
        assert!(t.delete_entry((), &((5 << 16) | 17)));
        assert!(!t.delete_entry((), &((5 << 16) | 17)));
        out.clear();
        t.search_all((), &5, &mut out);
        assert_eq!(out.len(), 29);
        t.validate(()).unwrap();
    }

    #[test]
    fn range_queries() {
        let mut t = nat(7);
        for k in 0..500u64 {
            t.insert((), k);
        }
        let mut out = Vec::new();
        t.range((), Bound::Included(&100), Bound::Excluded(&110), &mut out);
        assert_eq!(out, (100..110).collect::<Vec<u64>>());
        out.clear();
        t.range((), Bound::Excluded(&100), Bound::Included(&103), &mut out);
        assert_eq!(out, vec![101, 102, 103]);
        out.clear();
        t.range((), Bound::Unbounded, Bound::Excluded(&5), &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        out.clear();
        t.range((), Bound::Included(&495), Bound::Unbounded, &mut out);
        assert_eq!(out, vec![495, 496, 497, 498, 499]);
    }

    #[test]
    fn insert_unique_rejects() {
        let mut t = nat(8);
        for k in 0..100u64 {
            t.insert_unique((), k).unwrap();
        }
        for k in 0..100u64 {
            assert_eq!(t.insert_unique((), k), Err(IndexError::DuplicateKey));
        }
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn differential_vs_model_various_node_sizes() {
        for ns in [1usize, 2, 5, 16] {
            let mut t = TTree::new(DupAdapter, TTreeConfig::with_node_size(ns));
            testkit::ordered_differential(&mut t, 0x77EE + ns as u64, 5000, 250);
        }
    }

    #[test]
    fn differential_with_zero_slack() {
        let mut t = TTree::new(
            DupAdapter,
            TTreeConfig {
                max_count: 8,
                slack: 0,
            },
        );
        testkit::ordered_differential(&mut t, 0x5ACC, 4000, 200);
    }

    #[cfg(feature = "stats")]
    #[test]
    fn search_cost_between_avl_and_btree() {
        // Graph 1's qualitative claim: T-Tree search ≈ AVL search + one
        // final binary search.
        let n = 30_000usize;
        let entries: Vec<u64> = testkit::shuffled_unique_entries(n, 4)
            .iter()
            .map(|e| e >> 16)
            .collect();
        let mut t = nat(30);
        for e in &entries {
            t.insert((), *e);
        }
        t.reset_stats();
        for k in (0..n as u64).step_by(100) {
            assert!(t.search((), &k).is_some());
        }
        let per = t.stats().comparisons as f64 / 300.0;
        // Depth ≈ log2(30000/30) ≈ 10, ×2 compares + ~log2(30)≈5 final.
        assert!(per < 40.0, "per-search comparisons {per}");
    }

    #[cfg(feature = "stats")]
    #[test]
    fn slack_reduces_rotations() {
        // DESIGN.md ablation #1, paper §3.2.1: "this little bit of extra
        // room reduces … data passed down to leaves" and rotation count.
        let run = |slack: usize| -> u64 {
            let mut t = TTree::new(
                NaturalAdapter::<u64>::new(),
                TTreeConfig {
                    max_count: 10,
                    slack,
                },
            );
            let mut rng = testkit::TestRng::new(99);
            for _ in 0..4000 {
                t.insert((), rng.below(10_000));
            }
            // Mixed phase.
            for _ in 0..8000 {
                let k = rng.below(10_000);
                if rng.below(2) == 0 {
                    t.insert((), k);
                } else {
                    t.delete((), &k);
                }
            }
            t.stats().rotations
        };
        let r0 = run(0);
        let r2 = run(2);
        assert!(
            r2 <= r0,
            "slack-2 should not rotate more than slack-0 ({r2} vs {r0})"
        );
    }

    #[test]
    fn internal_nodes_stay_well_filled() {
        let mut t = nat(20);
        let mut rng = testkit::TestRng::new(123);
        for _ in 0..20_000 {
            t.insert((), rng.below(1 << 40));
        }
        for _ in 0..10_000 {
            let k = rng.below(1 << 40);
            let _ = t.delete((), &k);
            t.insert((), rng.below(1 << 40));
        }
        t.validate(()).unwrap();
        let fill = t.internal_fill();
        assert!(fill > 0.7, "internal fill should stay high, got {fill}");
    }

    #[test]
    fn storage_factor_close_to_b_tree() {
        // Paper: "Linear Hashing, B Trees, Extendible Hashing and T Trees
        // all had nearly equal storage factors of 1.5 for medium to large
        // size nodes."
        let mut t = TTree::new(DupAdapter, TTreeConfig::with_node_size(30));
        let n = 10_000usize;
        for e in testkit::shuffled_unique_entries(n, 8) {
            t.insert((), e);
        }
        let payload = n * std::mem::size_of::<u64>();
        let factor = t.storage_bytes() as f64 / payload as f64;
        assert!(factor < 2.5, "T-Tree storage factor {factor}");
    }
}

#[cfg(test)]
mod cursor_tests {
    use super::*;
    use crate::adapter::NaturalAdapter;
    use crate::testkit;

    #[test]
    fn cursor_walks_and_rewinds() {
        let mut t = TTree::new(NaturalAdapter::<u64>::new(), TTreeConfig::with_node_size(3));
        for k in 0..50u64 {
            t.insert((), k);
        }
        let mut c = t.cursor();
        for k in 0..10u64 {
            assert_eq!(c.peek(), Some(k));
            c.advance();
        }
        let mark = c.mark();
        for k in 10..20u64 {
            assert_eq!(c.peek(), Some(k));
            c.advance();
        }
        c.rewind(mark);
        assert_eq!(c.peek(), Some(10));
        // Walk off the end.
        let mut c = t.cursor();
        for _ in 0..50 {
            c.advance();
        }
        assert_eq!(c.peek(), None);
        c.advance(); // no panic past the end
        assert_eq!(c.peek(), None);
    }

    #[test]
    fn cursor_on_empty_tree() {
        let t: TTree<NaturalAdapter<u64>> = TTree::with_default_config(NaturalAdapter::new());
        let mut c = t.cursor();
        assert_eq!(c.peek(), None);
        c.advance();
        assert_eq!(c.peek(), None);
        let m = c.mark();
        c.rewind(m);
        assert_eq!(c.peek(), None);
    }

    /// [`DupAdapter`] with real key tags (the key itself — trivially
    /// monotone), so bulk builds exercise the tag cache.
    #[derive(Debug, Default, Clone, Copy)]
    struct TagDupAdapter;

    impl Adapter for TagDupAdapter {
        type Entry = u64;
        type Key = u64;
        type Ctx<'c> = ();

        fn cmp_entries(&self, (): (), a: &u64, b: &u64) -> std::cmp::Ordering {
            testkit::dup_key(*a).cmp(&testkit::dup_key(*b))
        }

        fn cmp_entry_key(&self, (): (), e: &u64, key: &u64) -> std::cmp::Ordering {
            testkit::dup_key(*e).cmp(key)
        }

        fn entry_tag(&self, (): (), e: &u64) -> u64 {
            testkit::dup_key(*e)
        }

        fn key_tag(&self, (): (), key: &u64) -> u64 {
            *key
        }
    }

    fn bulk_vs_incremental(entries: &[u64], node_size: usize) {
        let tagged: Vec<(u64, u64)> = entries
            .iter()
            .map(|&e| (TagDupAdapter.entry_tag((), &e), e))
            .collect();
        let bulk = TTree::build_from_sorted(
            TagDupAdapter,
            (),
            TTreeConfig::with_node_size(node_size),
            tagged,
        );
        bulk.validate(())
            .unwrap_or_else(|e| panic!("node_size {node_size}: {e}"));
        assert_eq!(bulk.len(), entries.len());
        let mut incr = TTree::new(TagDupAdapter, TTreeConfig::with_node_size(node_size));
        for &e in entries {
            incr.insert((), e);
        }
        // Bulk scan preserves the sorted input exactly (including the
        // order of equal keys, which incremental GLB spills scramble);
        // contents match incremental insertion as a multiset.
        let b: Vec<u64> = bulk.iter().collect();
        assert_eq!(b, entries, "node_size {node_size}: input order");
        let mut bs = b;
        bs.sort_unstable();
        let mut is: Vec<u64> = incr.iter().collect();
        is.sort_unstable();
        assert_eq!(bs, is, "node_size {node_size}: contents");
    }

    #[test]
    fn bulk_build_matches_incremental_insert() {
        for node_size in [1, 2, 3, 5, 30] {
            for n in [0usize, 1, 2, 27, 28, 29, 300] {
                let entries: Vec<u64> = (0..n as u64).map(|k| k << 16).collect();
                bulk_vs_incremental(&entries, node_size);
            }
        }
    }

    #[test]
    fn bulk_build_duplicate_heavy_keeps_input_order() {
        // 10 distinct keys × 40 copies, suffixes distinguishing copies;
        // sorted by key with ascending suffix within each key.
        let entries: Vec<u64> = (0..10u64)
            .flat_map(|k| (0..40u64).map(move |s| (k << 16) | s))
            .collect();
        bulk_vs_incremental(&entries, 7);
        bulk_vs_incremental(&entries, 30);
    }

    #[test]
    fn bulk_build_then_mutate() {
        let entries: Vec<u64> = (0..500u64).map(|k| k << 16).collect();
        let tagged: Vec<(u64, u64)> = entries
            .iter()
            .map(|&e| (TagDupAdapter.entry_tag((), &e), e))
            .collect();
        let mut t =
            TTree::build_from_sorted(TagDupAdapter, (), TTreeConfig::with_node_size(8), tagged);
        // A bulk-built tree must keep working as a live index: interleave
        // inserts and deletes, then validate.
        for k in 0..500u64 {
            if k % 3 == 0 {
                assert!(t.delete((), &k).is_some(), "delete {k}");
            }
        }
        for k in 500..700u64 {
            t.insert((), k << 16);
        }
        t.validate(()).expect("after mutation");
        let got: Vec<u64> = t.iter().map(testkit::dup_key).collect();
        let want: Vec<u64> = (0..500u64).filter(|k| k % 3 != 0).chain(500..700).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn bulk_build_internal_occupancy_at_min_count() {
        let config = TTreeConfig::with_node_size(30);
        let entries: Vec<u64> = (0..10_000u64).map(|k| k << 16).collect();
        let tagged: Vec<(u64, u64)> = entries
            .iter()
            .map(|&e| (TagDupAdapter.entry_tag((), &e), e))
            .collect();
        let t = TTree::build_from_sorted(TagDupAdapter, (), config, tagged);
        t.validate(()).expect("valid");
        // Every chunk is min_count except possibly the last, so internal
        // fill is min_count / max_count exactly.
        let want = config.min_count() as f64 / config.max_count as f64;
        assert!(
            (t.internal_fill() - want).abs() < 1e-9,
            "{}",
            t.internal_fill()
        );
    }
}
