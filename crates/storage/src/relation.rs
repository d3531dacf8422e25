//! Relations: collections of partitions with stable tuple addressing.

use crate::error::StorageError;
use crate::partition::{Partition, PartitionConfig, SlotState};
use crate::schema::Schema;
use crate::value::{OwnedValue, TupleId, Value};

/// Maximum forwarding hops tolerated when resolving a tuple id. Relocation
/// is rare (heap overflow only) and never re-forwards a forwarded slot, so
/// anything deep indicates corruption.
const MAX_FORWARD_HOPS: usize = 8;

/// A base relation (§2.1): partitions of immovable tuples.
///
/// Relations do not support direct traversal in the MM-DBMS — "all access
/// to a relation is through an index". [`Relation::tids`] exists so the
/// required primary index can be built and tests can inspect contents.
pub struct Relation {
    name: String,
    schema: Schema,
    partitions: Vec<Partition>,
    config: PartitionConfig,
    len: usize,
    /// Partitions touched since the last commit (log write-ahead hook;
    /// consumed wholesale by [`Relation::clear_dirty`]).
    dirty: Vec<bool>,
    /// Partitions touched since they were last checkpointed (checkpoint
    /// hook; cleared one partition at a time as a fuzzy checkpoint makes
    /// progress).
    ckpt_dirty: Vec<bool>,
}

impl Relation {
    /// Create an empty relation.
    #[must_use]
    pub fn new(name: &str, schema: Schema, config: PartitionConfig) -> Self {
        Relation {
            name: name.to_string(),
            schema,
            partitions: Vec::new(),
            config,
            len: 0,
            dirty: Vec::new(),
            ckpt_dirty: Vec::new(),
        }
    }

    /// Create with the default partition configuration.
    #[must_use]
    pub fn with_default_config(name: &str, schema: Schema) -> Self {
        Relation::new(name, schema, PartitionConfig::default())
    }

    /// Relation name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The partition configuration.
    #[must_use]
    pub fn config(&self) -> PartitionConfig {
        self.config
    }

    /// Number of live tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no tuples are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of partitions allocated.
    #[must_use]
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    fn partition(&self, p: u32) -> Result<&Partition, StorageError> {
        self.partitions
            .get(p as usize)
            .ok_or(StorageError::NoSuchPartition(p))
    }

    fn mark_dirty(&mut self, p: u32) {
        self.dirty[p as usize] = true;
        self.ckpt_dirty[p as usize] = true;
    }

    /// Find (or create) a partition that can host `values`.
    fn placement_for(&mut self, values: &[OwnedValue]) -> u32 {
        let heap_need = Partition::heap_needed(values);
        // Last partition first — the common fast path.
        for (i, p) in self.partitions.iter().enumerate().rev() {
            if p.has_slot() && p.heap_remaining() >= heap_need {
                return i as u32;
            }
            // Only check a couple of recent partitions before growing; a
            // full scan would make inserts O(partitions).
            if self.partitions.len() - i >= 2 {
                break;
            }
        }
        self.partitions
            .push(Partition::new(self.schema.arity(), self.config));
        self.dirty.push(true);
        self.ckpt_dirty.push(true);
        (self.partitions.len() - 1) as u32
    }

    /// Predict the partitions `rows` would land in if inserted in order,
    /// without mutating the relation. Returned ids may reach past
    /// `partition_count()` when rows would force new partitions. Mirrors
    /// [`Relation::insert`]'s placement policy, but interleaved writes can
    /// shift placements — callers needing an exact answer must re-validate
    /// once they hold the relevant locks.
    #[must_use]
    pub fn predict_inserts(&self, rows: &[Vec<OwnedValue>]) -> Vec<u32> {
        let (new_slots, new_heap) = Partition::fresh_headroom(self.schema.arity(), self.config);
        let mut sim: Vec<(usize, usize)> = self
            .partitions
            .iter()
            .map(|p| (p.insert_headroom(), p.heap_remaining()))
            .collect();
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let need = Partition::heap_needed(row);
            let mut placed = None;
            for i in (0..sim.len()).rev() {
                let (slots, heap) = sim[i];
                if slots > 0 && heap >= need {
                    placed = Some(i);
                    break;
                }
                if sim.len() - i >= 2 {
                    break;
                }
            }
            let i = placed.unwrap_or_else(|| {
                sim.push((new_slots, new_heap));
                sim.len() - 1
            });
            sim[i].0 = sim[i].0.saturating_sub(1);
            sim[i].1 = sim[i].1.saturating_sub(need);
            out.push(i as u32);
        }
        out
    }

    /// Compact partition `p`'s heap if `bytes` more fit only that way
    /// (placement counts garbage as free heap); true if it compacted.
    fn make_room(&mut self, p: u32, bytes: usize) -> bool {
        let compact = self.partitions[p as usize].needs_compaction(bytes);
        if compact {
            self.partitions[p as usize].compact(&self.schema);
            self.mark_dirty(p);
        }
        compact
    }

    /// Insert a row; returns its permanent [`TupleId`].
    pub fn insert(&mut self, values: &[OwnedValue]) -> Result<TupleId, StorageError> {
        self.schema.check_row(values)?;
        let p = self.placement_for(values);
        self.make_room(p, Partition::heap_needed(values));
        let slot = self.partitions[p as usize].insert(values)?;
        self.mark_dirty(p);
        self.len += 1;
        Ok(TupleId::new(p, slot))
    }

    /// Follow forwarding addresses to the current physical location.
    pub fn resolve(&self, tid: TupleId) -> Result<TupleId, StorageError> {
        let mut cur = tid;
        for _ in 0..MAX_FORWARD_HOPS {
            let part = self.partition(cur.partition)?;
            match part.slot_state(cur.slot) {
                Ok(SlotState::Forwarded) => {
                    cur = part.forwarding_of(cur.slot)?;
                }
                Ok(SlotState::Occupied) => return Ok(cur),
                Ok(SlotState::Empty) => return Err(StorageError::SlotEmpty(cur)),
                Err(_) => return Err(StorageError::NoSuchSlot(cur)),
            }
        }
        Err(StorageError::ForwardingCycle(tid))
    }

    /// Read one attribute. Follows forwarding.
    pub fn field(&self, tid: TupleId, attr: usize) -> Result<Value<'_>, StorageError> {
        let t = self.resolve(tid)?;
        self.partition(t.partition)?
            .read(t.slot, attr, &self.schema)
    }

    /// Read one attribute by name.
    pub fn field_by_name(&self, tid: TupleId, name: &str) -> Result<Value<'_>, StorageError> {
        let idx = self.schema.index_of(name)?;
        self.field(tid, idx)
    }

    /// Read the whole row (owned).
    pub fn row(&self, tid: TupleId) -> Result<Vec<OwnedValue>, StorageError> {
        let t = self.resolve(tid)?;
        self.partition(t.partition)?.read_row(t.slot, &self.schema)
    }

    /// Update one attribute in place. If a variable-length value no longer
    /// fits the partition's heap, the tuple is relocated to another
    /// partition and a forwarding address is left behind (footnote 1); the
    /// original `TupleId` remains valid either way.
    pub fn update_field(
        &mut self,
        tid: TupleId,
        attr: usize,
        value: &OwnedValue,
    ) -> Result<(), StorageError> {
        let t = self.resolve(tid)?;
        let mut res =
            self.partitions[t.partition as usize].update(t.slot, attr, value, &self.schema);
        if res == Err(StorageError::HeapExhausted)
            && self.make_room(
                t.partition,
                Partition::heap_needed(std::slice::from_ref(value)),
            )
        {
            res = self.partitions[t.partition as usize].update(t.slot, attr, value, &self.schema);
        }
        match res {
            Ok(()) => {
                self.mark_dirty(t.partition);
                Ok(())
            }
            Err(StorageError::HeapExhausted) => {
                // Relocate: read current row, apply the update, move it.
                let mut row =
                    self.partitions[t.partition as usize].read_row(t.slot, &self.schema)?;
                row[attr] = value.clone();
                let p = self.placement_for(&row);
                if p == t.partition {
                    return Err(StorageError::HeapExhausted);
                }
                self.make_room(p, Partition::heap_needed(&row));
                let new_slot = self.partitions[p as usize].insert(&row)?;
                let new_tid = TupleId::new(p, new_slot);
                self.partitions[t.partition as usize].forward(t.slot, new_tid, &self.schema)?;
                self.mark_dirty(t.partition);
                self.mark_dirty(p);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Delete the tuple. Forwarding chains are collapsed: every slot on
    /// the chain is freed.
    pub fn delete(&mut self, tid: TupleId) -> Result<(), StorageError> {
        // Free the forwarding chain.
        let mut cur = tid;
        for _ in 0..MAX_FORWARD_HOPS {
            let part = self
                .partitions
                .get_mut(cur.partition as usize)
                .ok_or(StorageError::NoSuchPartition(cur.partition))?;
            match part.slot_state(cur.slot)? {
                SlotState::Forwarded => {
                    let next = part.forwarding_of(cur.slot)?;
                    // Freeing a forwarded slot: mark empty directly.
                    part_free_forwarded(part, cur.slot);
                    self.mark_dirty(cur.partition);
                    cur = next;
                }
                SlotState::Occupied => {
                    part.delete(cur.slot, &self.schema)?;
                    self.mark_dirty(cur.partition);
                    self.len -= 1;
                    return Ok(());
                }
                SlotState::Empty => return Err(StorageError::SlotEmpty(cur)),
            }
        }
        Err(StorageError::ForwardingCycle(tid))
    }

    /// All live tuple ids (for building the mandatory primary index and
    /// for tests). Resolved ids only — no forwarded slots.
    #[must_use]
    pub fn tids(&self) -> Vec<TupleId> {
        let mut out = Vec::with_capacity(self.len);
        for (pi, p) in self.partitions.iter().enumerate() {
            for slot in p.occupied_slots() {
                out.push(TupleId::new(pi as u32, slot));
            }
        }
        out
    }

    /// All live tuple ids, lazily, in the same order as [`Relation::tids`]
    /// (partition order, then slot order) but without the `O(|R|)`
    /// temporary `Vec`. Scan paths that walk the ids exactly once should
    /// prefer this.
    pub fn iter_tids(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.partition_views().flat_map(|v| v.tids())
    }

    /// Views of every partition, in partition order.
    pub fn partition_views(&self) -> impl Iterator<Item = PartitionView<'_>> {
        self.partitions
            .iter()
            .enumerate()
            .map(|(pi, part)| PartitionView {
                part,
                index: pi as u32,
            })
    }

    /// Byte image of one partition (for the recovery subsystem).
    pub fn partition_image(&self, p: u32) -> Result<Vec<u8>, StorageError> {
        Ok(self.partition(p)?.to_bytes())
    }

    /// Replace a partition from a byte image (recovery restart path).
    /// Fails with [`StorageError::CorruptImage`] on a malformed image,
    /// leaving the relation untouched.
    pub fn load_partition_image(&mut self, p: u32, image: &[u8]) -> Result<(), StorageError> {
        let part = Partition::try_from_bytes(image)?;
        self.install_partition(p, part);
        Ok(())
    }

    /// Install an already-decoded partition at position `p` (the parallel
    /// restart path decodes images on pool workers, then installs them
    /// serially in plan order). Gaps up to `p` are filled with empty
    /// partitions; an existing partition is replaced. Installed
    /// partitions start clean: the image already is the disk copy. The
    /// image does not carry the partition's heap-garbage count, so it is
    /// recounted here against the schema.
    pub fn install_partition(&mut self, p: u32, mut part: Partition) {
        part.recount_garbage(&self.schema);
        if p as usize >= self.partitions.len() {
            while self.partitions.len() < p as usize {
                self.partitions
                    .push(Partition::new(self.schema.arity(), self.config));
                self.dirty.push(false);
                self.ckpt_dirty.push(false);
            }
            self.partitions.push(part);
            self.dirty.push(false);
            self.ckpt_dirty.push(false);
        } else {
            self.partitions[p as usize] = part;
            self.dirty[p as usize] = false;
            self.ckpt_dirty[p as usize] = false;
        }
        self.len = self.partitions.iter().map(Partition::live).sum();
    }

    /// Partitions dirtied since the last [`Relation::clear_dirty`] call.
    #[must_use]
    pub fn dirty_partitions(&self) -> Vec<u32> {
        self.dirty
            .iter()
            .enumerate()
            .filter(|(_, d)| **d)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Reset the per-commit dirty tracking (after the commit path has
    /// logged every dirtied partition's after-image).
    pub fn clear_dirty(&mut self) {
        for d in &mut self.dirty {
            *d = false;
        }
    }

    /// Partitions modified since they were last checkpointed — the work
    /// list a [checkpoint](crate::Relation::clear_checkpoint_dirty) walks.
    #[must_use]
    pub fn checkpoint_dirty_partitions(&self) -> Vec<u32> {
        self.ckpt_dirty
            .iter()
            .enumerate()
            .filter(|(_, d)| **d)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Mark one partition checkpointed. Cleared per partition (not
    /// wholesale) so a fuzzy checkpoint interleaved with live updates
    /// never marks a partition clean that was re-dirtied after its image
    /// was captured.
    pub fn clear_checkpoint_dirty(&mut self, p: u32) {
        if let Some(d) = self.ckpt_dirty.get_mut(p as usize) {
            *d = false;
        }
    }
}

/// Read-only handle on one partition of a [`Relation`].
///
/// The handle is `Copy` and borrows the relation immutably; the
/// partition data is owned (`Vec<u8>` slots + heap), making `&Partition`
/// — and therefore this view — `Send + Sync`.
#[derive(Clone, Copy)]
pub struct PartitionView<'a> {
    part: &'a Partition,
    index: u32,
}

impl std::fmt::Debug for PartitionView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionView")
            .field("index", &self.index)
            .field("live", &self.part.live())
            .finish()
    }
}

impl<'a> PartitionView<'a> {
    /// Which partition this view covers.
    #[must_use]
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Number of live tuples in the partition.
    #[must_use]
    pub fn live(&self) -> usize {
        self.part.live()
    }

    /// Live tuple ids in slot order (the order [`Relation::tids`] emits
    /// them within this partition). Takes the view by value (it is
    /// `Copy`), so the iterator borrows only the relation, not the view.
    pub fn tids(self) -> impl Iterator<Item = TupleId> + 'a {
        let index = self.index;
        self.part
            .occupied_slots()
            .map(move |slot| TupleId::new(index, slot))
    }

    /// Visit attribute `attr`'s raw 8-byte cell of every live tuple, in
    /// the order of [`PartitionView::tids`], as `(slot, cell)` — the
    /// block-at-a-time selection path. The encoding is the slot layout
    /// of [`crate::partition`]; nothing is decoded or resolved.
    pub fn for_each_cell(self, attr: usize, visit: impl FnMut(u32, [u8; 8])) {
        self.part.for_each_cell(attr, visit);
    }
}

/// Free a forwarded slot. (Partition has no public API for this single
/// case; forwarded slots are only ever freed when the logical tuple dies.)
fn part_free_forwarded(part: &mut Partition, slot: u32) {
    part.free_forwarded(slot);
}

impl Partition {
    /// Free a forwarded slot (the logical tuple was deleted).
    pub(crate) fn free_forwarded(&mut self, slot: u32) {
        debug_assert_eq!(self.slot_state(slot).ok(), Some(SlotState::Forwarded));
        self.mark_empty(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    fn emp_schema() -> Schema {
        Schema::of(&[
            ("name", AttrType::Str),
            ("id", AttrType::Int),
            ("age", AttrType::Int),
        ])
    }

    fn emp_row(name: &str, id: i64, age: i64) -> Vec<OwnedValue> {
        vec![
            OwnedValue::Str(name.into()),
            OwnedValue::Int(id),
            OwnedValue::Int(age),
        ]
    }

    #[test]
    fn insert_read_roundtrip() {
        let mut r = Relation::with_default_config("emp", emp_schema());
        let t = r.insert(&emp_row("Dave", 23, 24)).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.field(t, 0).unwrap(), Value::Str("Dave"));
        assert_eq!(r.field_by_name(t, "age").unwrap(), Value::Int(24));
        assert!(r.field_by_name(t, "nope").is_err());
    }

    #[test]
    fn schema_enforced_on_insert() {
        let mut r = Relation::with_default_config("emp", emp_schema());
        assert!(matches!(
            r.insert(&[OwnedValue::Int(1)]),
            Err(StorageError::ArityMismatch { .. })
        ));
        assert!(matches!(
            r.insert(&[OwnedValue::Int(1), OwnedValue::Int(2), OwnedValue::Int(3)]),
            Err(StorageError::TypeMismatch { attr: 0, .. })
        ));
    }

    #[test]
    fn spans_multiple_partitions() {
        let mut r = Relation::new("emp", emp_schema(), PartitionConfig::tiny());
        let mut tids = Vec::new();
        for i in 0..500 {
            tids.push(r.insert(&emp_row(&format!("e{i}"), i, i % 70)).unwrap());
        }
        assert!(
            r.partition_count() > 1,
            "should overflow one tiny partition"
        );
        assert_eq!(r.len(), 500);
        for (i, t) in tids.iter().enumerate() {
            assert_eq!(r.field(*t, 1).unwrap(), Value::Int(i as i64));
        }
        assert_eq!(r.tids().len(), 500);
    }

    #[test]
    fn delete_and_reuse() {
        let mut r = Relation::with_default_config("emp", emp_schema());
        let a = r.insert(&emp_row("A", 1, 10)).unwrap();
        let b = r.insert(&emp_row("B", 2, 20)).unwrap();
        r.delete(a).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.field(a, 0).is_err());
        assert_eq!(r.field(b, 0).unwrap(), Value::Str("B"));
        assert!(matches!(r.delete(a), Err(StorageError::SlotEmpty(_))));
        let c = r.insert(&emp_row("C", 3, 30)).unwrap();
        assert_eq!(c, a, "slot reuse keeps partitions compact");
    }

    #[test]
    fn update_fixed_field() {
        let mut r = Relation::with_default_config("emp", emp_schema());
        let t = r.insert(&emp_row("A", 1, 10)).unwrap();
        r.update_field(t, 2, &OwnedValue::Int(11)).unwrap();
        assert_eq!(r.field(t, 2).unwrap(), Value::Int(11));
    }

    #[test]
    fn heap_overflow_relocates_with_forwarding() {
        let mut r = Relation::new("emp", emp_schema(), PartitionConfig::tiny());
        let t = r.insert(&emp_row("x", 1, 10)).unwrap();
        // Tiny partitions have 256 bytes of heap; grow the name until the
        // tuple must relocate.
        let mut moved = false;
        for grow in 1..=8 {
            let s = "y".repeat(grow * 60);
            r.update_field(t, 0, &OwnedValue::Str(s.clone())).unwrap();
            assert_eq!(r.field(t, 0).unwrap(), Value::Str(s.as_str()));
            let resolved = r.resolve(t).unwrap();
            if resolved != t {
                moved = true;
                break;
            }
        }
        assert!(moved, "tuple should have relocated via forwarding");
        // Original id still reads, and deleting via it frees the chain.
        assert_eq!(r.field(t, 1).unwrap(), Value::Int(1));
        r.delete(t).unwrap();
        assert!(r.field(t, 1).is_err());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn dirty_tracking() {
        let mut r = Relation::new("emp", emp_schema(), PartitionConfig::tiny());
        assert!(r.dirty_partitions().is_empty());
        let t = r.insert(&emp_row("A", 1, 10)).unwrap();
        assert_eq!(r.dirty_partitions(), vec![0]);
        r.clear_dirty();
        assert!(r.dirty_partitions().is_empty());
        // The per-commit reset leaves the checkpoint's work list alone.
        assert_eq!(r.checkpoint_dirty_partitions(), vec![0]);
        r.update_field(t, 2, &OwnedValue::Int(5)).unwrap();
        assert_eq!(r.dirty_partitions(), vec![0]);

        // A relocating update dirties both the partition left holding the
        // forwarding address and the one the tuple moved to.
        let mut moved = None;
        for grow in 1..=8 {
            r.clear_dirty();
            r.update_field(t, 0, &OwnedValue::Str("y".repeat(grow * 60)))
                .unwrap();
            let now = r.resolve(t).unwrap();
            if now != t {
                moved = Some(now);
                break;
            }
            assert_eq!(r.dirty_partitions(), vec![t.partition]);
        }
        let moved = moved.expect("tuple should have relocated via forwarding");
        let both = vec![t.partition, moved.partition];
        assert_eq!(r.dirty_partitions(), both);
        assert_eq!(r.checkpoint_dirty_partitions(), both);

        // Deleting through the forwarding chain dirties every partition
        // on it; a plain delete dirties the tuple's own partition.
        r.clear_dirty();
        for p in &both {
            r.clear_checkpoint_dirty(*p);
        }
        assert!(r.checkpoint_dirty_partitions().is_empty());
        r.delete(t).unwrap();
        assert_eq!(r.dirty_partitions(), both);
        assert_eq!(r.checkpoint_dirty_partitions(), both);
        let u = r.insert(&emp_row("B", 2, 20)).unwrap();
        r.clear_dirty();
        r.delete(u).unwrap();
        assert_eq!(r.dirty_partitions(), vec![u.partition]);

        // An installed restart image is the disk copy: clean on both lists.
        let img = r.partition_image(0).unwrap();
        r.load_partition_image(0, &img).unwrap();
        assert!(!r.dirty_partitions().contains(&0));
        assert!(!r.checkpoint_dirty_partitions().contains(&0));
    }

    #[test]
    fn iter_tids_matches_tids_under_churn() {
        let mut r = Relation::new("emp", emp_schema(), PartitionConfig::tiny());
        let mut tids = Vec::new();
        for i in 0..400 {
            tids.push(r.insert(&emp_row(&format!("e{i}"), i, i % 70)).unwrap());
        }
        // Punch holes so slot order != insertion order everywhere.
        for t in tids.iter().step_by(3) {
            r.delete(*t).unwrap();
        }
        assert!(r.partition_count() > 1, "churn test needs many partitions");
        assert_eq!(r.iter_tids().collect::<Vec<_>>(), r.tids());
    }

    #[test]
    fn partition_views_cover_all_tids_in_order() {
        let mut r = Relation::new("emp", emp_schema(), PartitionConfig::tiny());
        for i in 0..300 {
            r.insert(&emp_row(&format!("e{i}"), i, i)).unwrap();
        }
        let mut from_views = Vec::new();
        let mut live_total = 0;
        for (pi, v) in r.partition_views().enumerate() {
            assert_eq!(v.index(), pi as u32);
            live_total += v.live();
            from_views.extend(v.tids());
        }
        assert_eq!(live_total, r.len());
        assert_eq!(from_views, r.tids());
    }

    #[test]
    fn string_churn_reuses_heap_garbage() {
        // Without compaction every overwritten or deleted name stays in
        // its partition's heap until it fills, and inserts spill into new
        // partitions while old ones still have free slots.
        let mut r = Relation::new("emp", emp_schema(), PartitionConfig::tiny());
        let mut live: Vec<(TupleId, String)> = Vec::new();
        for i in 0..40 {
            let name = format!("name-{i:04}");
            live.push((r.insert(&emp_row(&name, i, 1)).unwrap(), name));
        }
        let settled = r.partition_count();
        for round in 0..400i64 {
            let k = (round * 7) as usize % live.len();
            let name = format!("renamed-{round:05}");
            r.update_field(live[k].0, 0, &OwnedValue::Str(name.clone()))
                .unwrap();
            live[k].1 = name;
            let k = (round * 13) as usize % live.len();
            r.delete(live[k].0).unwrap();
            let name = format!("new-{round:05}");
            live[k] = (r.insert(&emp_row(&name, round, 2)).unwrap(), name);
        }
        assert!(
            r.partition_count() <= settled + 2,
            "{} partitions for {} tuples (started with {settled})",
            r.partition_count(),
            live.len()
        );
        for (t, name) in &live {
            assert_eq!(r.field(*t, 0).unwrap(), Value::Str(name.as_str()));
        }
        // Images of compacted partitions round-trip.
        let mut back = Relation::new("emp", emp_schema(), PartitionConfig::tiny());
        for p in 0..r.partition_count() as u32 {
            back.load_partition_image(p, &r.partition_image(p).unwrap())
                .unwrap();
        }
        for (t, name) in &live {
            assert_eq!(back.field(*t, 0).unwrap(), Value::Str(name.as_str()));
            assert_eq!(back.row(*t).unwrap(), r.row(*t).unwrap());
        }
    }

    #[test]
    fn partition_image_roundtrip_via_relation() {
        let mut r = Relation::with_default_config("emp", emp_schema());
        let t = r.insert(&emp_row("Dave", 23, 24)).unwrap();
        let img = r.partition_image(0).unwrap();
        // Wreck the tuple, then restore the image.
        r.update_field(t, 1, &OwnedValue::Int(-1)).unwrap();
        r.load_partition_image(0, &img).unwrap();
        assert_eq!(r.field(t, 1).unwrap(), Value::Int(23));
        assert_eq!(r.len(), 1);
    }
}
