//! Partitions: the unit of recovery (§2.1).
//!
//! A partition is a fixed-budget region "on the order of one or two disk
//! tracks" holding tuple slots plus a heap for variable-length fields.
//! The byte layout matters here — the recovery subsystem checkpoints and
//! reloads whole partitions as byte images, and the lock manager locks at
//! partition granularity (§2.4).
//!
//! ## Slot layout
//!
//! Every tuple occupies `8 × arity` bytes, one 8-byte cell per attribute:
//!
//! | type    | encoding                                               |
//! |---------|--------------------------------------------------------|
//! | int     | `i64` little-endian                                    |
//! | str     | `u32` heap offset, `u32` length                        |
//! | ptr     | `u32` partition, `u32` slot (`MAX,MAX` = NULL)         |
//! | ptrlist | `u32` heap offset, `u32` element count (8 bytes each)  |
//!
//! A tuple never moves when a variable-length field grows: the new bytes
//! are appended to the heap and the cell is repointed. The old bytes, and
//! the heap bytes of a deleted or relocated tuple, become garbage: the
//! partition counts them, [`Partition::heap_remaining`] counts them as
//! free, and `Partition::compact` reclaims them in place when an append
//! would otherwise not fit. Compaction slides live values down and
//! repoints their cells; slots never move, so every [`TupleId`] stays
//! valid. If even the compacted heap is too small, the *relation*
//! relocates the tuple to another partition and a forwarding address is
//! left behind (footnote 1).
//!
//! A partition reserves its whole budget — the slot array and the heap —
//! when it is created or decoded, so filling it never reallocates.

use crate::error::StorageError;
use crate::schema::{AttrType, Schema};
use crate::value::{OwnedValue, TupleId, Value};

/// Construction parameters for partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionConfig {
    /// Total byte budget per partition ("one or two disk tracks"; a 1986
    /// track held ~25–50 KB).
    pub partition_bytes: usize,
    /// Fraction of the budget reserved for the variable-length heap,
    /// in percent.
    pub heap_percent: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            partition_bytes: 64 * 1024,
            heap_percent: 25,
        }
    }
}

impl PartitionConfig {
    /// A tiny configuration for tests that want to force partition
    /// overflow and tuple relocation quickly.
    #[must_use]
    pub fn tiny() -> Self {
        PartitionConfig {
            partition_bytes: 1024,
            heap_percent: 25,
        }
    }
}

/// State of one tuple slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Never used or freed.
    Empty,
    /// Holds a live tuple.
    Occupied,
    /// Tuple was relocated; the slot body holds the forwarding `TupleId`.
    Forwarded,
}

/// A partition: tuple slots + variable-length heap.
pub struct Partition {
    slot_size: usize,
    capacity: usize,
    heap_budget: usize,
    slots: Vec<u8>,
    states: Vec<SlotState>,
    heap: Vec<u8>,
    free_slots: Vec<u32>,
    live: usize,
    /// Heap bytes no live cell points at (overwritten values, deleted and
    /// relocated tuples); reclaimed by `Partition::compact`.
    garbage: usize,
}

/// Size of the stack buffer a compaction pass gathers live heap values
/// in; a pass moves at least half of it.
const COMPACT_BATCH: usize = 512;

/// One heap-resident value found by a compaction pass.
#[derive(Clone, Copy, Default)]
struct HeapRef {
    offset: u32,
    bytes: u32,
    /// Byte position of the value's cell in the slot array.
    cell: usize,
}

impl Partition {
    /// `(slot_size, capacity, heap_budget)` of a partition for tuples of
    /// `arity` attributes under `config`.
    fn geometry(arity: usize, config: PartitionConfig) -> (usize, usize, usize) {
        let slot_size = 8 * arity.max(1);
        let heap_budget = config.partition_bytes * config.heap_percent / 100;
        let slot_budget = config.partition_bytes - heap_budget;
        (slot_size, (slot_budget / slot_size).max(1), heap_budget)
    }

    /// `(insert_headroom, heap_remaining)` of a new, empty partition —
    /// without allocating one.
    #[must_use]
    pub(crate) fn fresh_headroom(arity: usize, config: PartitionConfig) -> (usize, usize) {
        let (_, capacity, heap_budget) = Partition::geometry(arity, config);
        (capacity, heap_budget)
    }

    /// Create a partition for tuples of `arity` attributes under `config`,
    /// with its slot array and heap reserved at their budgets.
    #[must_use]
    pub fn new(arity: usize, config: PartitionConfig) -> Self {
        let (slot_size, capacity, heap_budget) = Partition::geometry(arity, config);
        Partition {
            slot_size,
            capacity,
            heap_budget,
            slots: Vec::with_capacity(capacity * slot_size),
            states: Vec::with_capacity(capacity),
            heap: Vec::with_capacity(heap_budget),
            free_slots: Vec::new(),
            live: 0,
            garbage: 0,
        }
    }

    /// Maximum number of tuple slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live tuples.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// True if a new tuple can be placed here (slot available).
    #[must_use]
    pub fn has_slot(&self) -> bool {
        !self.free_slots.is_empty() || self.states.len() < self.capacity
    }

    /// Bytes of heap a new value can still get: the unused tail plus the
    /// garbage a compaction would reclaim.
    #[must_use]
    pub fn heap_remaining(&self) -> usize {
        self.heap_budget
            .saturating_sub(self.heap.len() - self.garbage)
    }

    /// True when `bytes` more heap fit only after a `Partition::compact`.
    #[must_use]
    pub(crate) fn needs_compaction(&self, bytes: usize) -> bool {
        self.heap.len() + bytes > self.heap_budget && bytes <= self.heap_remaining()
    }

    /// Number of additional tuples this partition can hold slot-wise
    /// (free-list slots plus never-used capacity; heap budget ignored).
    #[must_use]
    pub fn insert_headroom(&self) -> usize {
        self.free_slots.len() + self.capacity.saturating_sub(self.states.len())
    }

    /// State of slot `slot`.
    pub fn slot_state(&self, slot: u32) -> Result<SlotState, StorageError> {
        self.states
            .get(slot as usize)
            .copied()
            .ok_or(StorageError::NoSuchSlot(TupleId::new(u32::MAX, slot)))
    }

    fn cell(&self, slot: u32, attr: usize) -> &[u8] {
        let base = slot as usize * self.slot_size + attr * 8;
        &self.slots[base..base + 8]
    }

    fn cell_mut(&mut self, slot: u32, attr: usize) -> &mut [u8] {
        let base = slot as usize * self.slot_size + attr * 8;
        &mut self.slots[base..base + 8]
    }

    fn write_cell(&mut self, slot: u32, attr: usize, a: u32, b: u32) {
        let c = self.cell_mut(slot, attr);
        c[..4].copy_from_slice(&a.to_le_bytes());
        c[4..].copy_from_slice(&b.to_le_bytes());
    }

    fn read_cell_pair(&self, slot: u32, attr: usize) -> (u32, u32) {
        let c = self.cell(slot, attr);
        (le_u32(&c[..4]), le_u32(&c[4..]))
    }

    /// Append `bytes` to the heap; returns the offset, or `HeapExhausted`.
    fn heap_alloc(&mut self, bytes: &[u8]) -> Result<u32, StorageError> {
        if self.heap.len() + bytes.len() > self.heap_budget {
            return Err(StorageError::HeapExhausted);
        }
        let off = self.heap.len() as u32;
        self.heap.extend_from_slice(bytes);
        Ok(off)
    }

    /// Heap bytes a row of values would need.
    #[must_use]
    pub fn heap_needed(values: &[OwnedValue]) -> usize {
        values
            .iter()
            .map(|v| match v {
                OwnedValue::Str(s) => s.len(),
                OwnedValue::PtrList(l) => l.len() * 8,
                _ => 0,
            })
            .sum()
    }

    fn write_value(
        &mut self,
        slot: u32,
        attr: usize,
        value: &OwnedValue,
    ) -> Result<(), StorageError> {
        match value {
            OwnedValue::Int(i) => {
                self.cell_mut(slot, attr).copy_from_slice(&i.to_le_bytes());
            }
            OwnedValue::Str(s) => {
                let off = self.heap_alloc(s.as_bytes())?;
                self.write_cell(slot, attr, off, s.len() as u32);
            }
            OwnedValue::Ptr(p) => {
                let t = p.unwrap_or_else(TupleId::null);
                self.write_cell(slot, attr, t.partition, t.slot);
            }
            OwnedValue::PtrList(l) => {
                let mut bytes = Vec::with_capacity(l.len() * 8);
                for t in l {
                    bytes.extend_from_slice(&t.partition.to_le_bytes());
                    bytes.extend_from_slice(&t.slot.to_le_bytes());
                }
                let off = self.heap_alloc(&bytes)?;
                self.write_cell(slot, attr, off, l.len() as u32);
            }
        }
        Ok(())
    }

    /// Insert a (schema-checked) row; returns the slot. The caller must
    /// ensure `has_slot()` and sufficient heap (`heap_needed ≤
    /// heap_remaining`); on heap exhaustion mid-write the slot is rolled
    /// back and `HeapExhausted` returned.
    pub fn insert(&mut self, values: &[OwnedValue]) -> Result<u32, StorageError> {
        let slot = if let Some(s) = self.free_slots.pop() {
            s
        } else {
            if self.states.len() >= self.capacity {
                return Err(StorageError::HeapExhausted);
            }
            self.states.push(SlotState::Empty);
            self.slots.resize(self.states.len() * self.slot_size, 0);
            (self.states.len() - 1) as u32
        };
        let heap_before = self.heap.len();
        for (i, v) in values.iter().enumerate() {
            if let Err(e) = self.write_value(slot, i, v) {
                // Values written before the failure were appended last:
                // cutting the heap back reclaims them.
                self.heap.truncate(heap_before);
                self.free_slots.push(slot);
                return Err(e);
            }
        }
        self.states[slot as usize] = SlotState::Occupied;
        self.live += 1;
        Ok(slot)
    }

    /// Read attribute `attr` of the tuple in `slot` according to `schema`.
    pub fn read(&self, slot: u32, attr: usize, schema: &Schema) -> Result<Value<'_>, StorageError> {
        match self.slot_state(slot)? {
            SlotState::Occupied => {}
            _ => return Err(StorageError::SlotEmpty(TupleId::new(u32::MAX, slot))),
        }
        let ty = schema.attr(attr)?.ty;
        Ok(match ty {
            AttrType::Int => {
                let c = self.cell(slot, attr);
                Value::Int(le_i64(c))
            }
            AttrType::Str => {
                let (off, len) = self.read_cell_pair(slot, attr);
                let bytes = &self.heap[off as usize..off as usize + len as usize];
                Value::Str(
                    std::str::from_utf8(bytes).map_err(|_| {
                        StorageError::CorruptImage("heap string is not valid UTF-8")
                    })?,
                )
            }
            AttrType::Ptr => {
                let (p, s) = self.read_cell_pair(slot, attr);
                let t = TupleId::new(p, s);
                Value::Ptr(if t.is_null() { None } else { Some(t) })
            }
            AttrType::PtrList => {
                let (off, count) = self.read_cell_pair(slot, attr);
                let mut list = Vec::with_capacity(count as usize);
                for i in 0..count as usize {
                    let base = off as usize + i * 8;
                    let p = le_u32(&self.heap[base..base + 4]);
                    let s = le_u32(&self.heap[base + 4..base + 8]);
                    list.push(TupleId::new(p, s));
                }
                Value::PtrList(list)
            }
        })
    }

    /// Overwrite attribute `attr` in `slot`. Fixed-size values update in
    /// place; variable-length values append to the heap and repoint.
    pub fn update(
        &mut self,
        slot: u32,
        attr: usize,
        value: &OwnedValue,
        schema: &Schema,
    ) -> Result<(), StorageError> {
        match self.slot_state(slot)? {
            SlotState::Occupied => {}
            _ => return Err(StorageError::SlotEmpty(TupleId::new(u32::MAX, slot))),
        }
        let a = schema.attr(attr)?;
        if !a.ty.admits(value) {
            return Err(StorageError::TypeMismatch {
                attr,
                expected: a.ty.name(),
                found: value.type_name(),
            });
        }
        let old = self.cell_heap_bytes(slot, attr, a.ty);
        self.write_value(slot, attr, value)?;
        self.garbage += old;
        Ok(())
    }

    /// Heap bytes the cell `(slot, attr)` of type `ty` points at.
    fn cell_heap_bytes(&self, slot: u32, attr: usize, ty: AttrType) -> usize {
        match ty {
            AttrType::Str => self.read_cell_pair(slot, attr).1 as usize,
            AttrType::PtrList => self.read_cell_pair(slot, attr).1 as usize * 8,
            AttrType::Int | AttrType::Ptr => 0,
        }
    }

    /// Heap bytes the tuple in `slot` points at.
    fn slot_heap_bytes(&self, slot: u32, schema: &Schema) -> usize {
        schema
            .attrs()
            .iter()
            .enumerate()
            .map(|(i, a)| self.cell_heap_bytes(slot, i, a.ty))
            .sum()
    }

    /// Read all attributes of the tuple in `slot` (owned copies).
    pub fn read_row(&self, slot: u32, schema: &Schema) -> Result<Vec<OwnedValue>, StorageError> {
        (0..schema.arity())
            .map(|i| self.read(slot, i, schema).map(|v| v.to_owned_value()))
            .collect()
    }

    /// Free the slot (tuple deleted); its heap bytes become garbage.
    pub fn delete(&mut self, slot: u32, schema: &Schema) -> Result<(), StorageError> {
        match self.slot_state(slot)? {
            SlotState::Occupied => {}
            _ => return Err(StorageError::SlotEmpty(TupleId::new(u32::MAX, slot))),
        }
        self.garbage += self.slot_heap_bytes(slot, schema);
        self.states[slot as usize] = SlotState::Empty;
        self.free_slots.push(slot);
        self.live -= 1;
        Ok(())
    }

    /// Mark the slot as relocated to `to` (footnote 1's forwarding
    /// address). The slot body's first cell stores the forwarding id; the
    /// tuple's heap bytes (copied to `to`) become garbage.
    pub fn forward(&mut self, slot: u32, to: TupleId, schema: &Schema) -> Result<(), StorageError> {
        match self.slot_state(slot)? {
            SlotState::Occupied => {}
            _ => return Err(StorageError::SlotEmpty(TupleId::new(u32::MAX, slot))),
        }
        self.garbage += self.slot_heap_bytes(slot, schema);
        self.write_cell(slot, 0, to.partition, to.slot);
        self.states[slot as usize] = SlotState::Forwarded;
        self.live -= 1;
        Ok(())
    }

    /// Read the forwarding address from a forwarded slot.
    pub fn forwarding_of(&self, slot: u32) -> Result<TupleId, StorageError> {
        match self.slot_state(slot)? {
            SlotState::Forwarded => {}
            _ => return Err(StorageError::SlotEmpty(TupleId::new(u32::MAX, slot))),
        }
        let (p, s) = self.read_cell_pair(slot, 0);
        Ok(TupleId::new(p, s))
    }

    /// Mark a slot empty without state checks (crate-internal: used when
    /// freeing the slots of a forwarding chain).
    pub(crate) fn mark_empty(&mut self, slot: u32) {
        if self.states[slot as usize] == SlotState::Occupied {
            self.live -= 1;
        }
        self.states[slot as usize] = SlotState::Empty;
        self.free_slots.push(slot);
    }

    /// Slots currently occupied (live tuples only).
    pub fn occupied_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == SlotState::Occupied)
            .map(|(i, _)| i as u32)
    }

    /// Visit attribute `attr`'s 8-byte cell of every occupied slot, in
    /// slot order, without decoding it (see the module's slot layout).
    /// Visits nothing when `attr` is past the arity.
    pub(crate) fn for_each_cell(&self, attr: usize, mut visit: impl FnMut(u32, [u8; 8])) {
        let at = attr * 8;
        if at + 8 > self.slot_size {
            return;
        }
        let cells = self.slots.chunks_exact(self.slot_size);
        for (slot, (state, body)) in self.states.iter().zip(cells).enumerate() {
            if *state == SlotState::Occupied {
                let c = &body[at..at + 8];
                visit(
                    slot as u32,
                    [c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]],
                );
            }
        }
    }

    /// Reclaim the heap's garbage in place: slide every live value down,
    /// in offset order, to the front of the heap and repoint its cell.
    /// Slots never move and nothing is allocated: each pass over the slot
    /// array gathers the lowest-offset values not yet moved into a buffer
    /// on the stack, then moves them.
    pub(crate) fn compact(&mut self, schema: &Schema) {
        let mut write = 0usize;
        // Every value at an offset below `cursor` has been moved already.
        let mut cursor = 0u32;
        loop {
            let mut batch = [HeapRef::default(); COMPACT_BATCH];
            let mut n = 0usize;
            // Values at or past `limit` wait for a later pass.
            let mut limit = u32::MAX;
            for slot in 0..self.states.len() {
                if self.states[slot] != SlotState::Occupied {
                    continue;
                }
                for (attr, a) in schema.attrs().iter().enumerate() {
                    let width = match a.ty {
                        AttrType::Str => 1,
                        AttrType::PtrList => 8,
                        AttrType::Int | AttrType::Ptr => continue,
                    };
                    let (offset, count) = self.read_cell_pair(slot as u32, attr);
                    let bytes = count * width;
                    let cell = slot * self.slot_size + attr * 8;
                    if bytes == 0 {
                        // An empty value owns no heap bytes; point it at
                        // the front so it stays in bounds.
                        self.slots[cell..cell + 4].copy_from_slice(&0u32.to_le_bytes());
                        continue;
                    }
                    if offset < cursor || offset >= limit {
                        continue;
                    }
                    batch[n] = HeapRef {
                        offset,
                        bytes,
                        cell,
                    };
                    n += 1;
                    if n == COMPACT_BATCH {
                        // Keep the lower half; the rest waits.
                        batch.sort_unstable_by_key(|r| r.offset);
                        n = COMPACT_BATCH / 2;
                        limit = batch[n].offset;
                    }
                }
            }
            batch[..n].sort_unstable_by_key(|r| r.offset);
            for r in &batch[..n] {
                let from = r.offset as usize;
                self.heap.copy_within(from..from + r.bytes as usize, write);
                self.slots[r.cell..r.cell + 4].copy_from_slice(&(write as u32).to_le_bytes());
                write += r.bytes as usize;
                cursor = r.offset + r.bytes;
            }
            if limit == u32::MAX {
                break;
            }
        }
        self.heap.truncate(write);
        self.garbage = 0;
    }

    /// Recount the garbage from the live cells (after decoding an image,
    /// which does not carry the count).
    pub(crate) fn recount_garbage(&mut self, schema: &Schema) {
        let mut live = 0;
        for (attr, a) in schema.attrs().iter().enumerate() {
            if matches!(a.ty, AttrType::Str | AttrType::PtrList) {
                live += self
                    .occupied_slots()
                    .map(|slot| self.cell_heap_bytes(slot, attr, a.ty))
                    .sum::<usize>();
            }
        }
        self.garbage = self.heap.len().saturating_sub(live);
    }

    /// Serialize the partition to a byte image (recovery checkpointing).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.slot_size as u64).to_le_bytes());
        out.extend_from_slice(&(self.capacity as u64).to_le_bytes());
        out.extend_from_slice(&(self.heap_budget as u64).to_le_bytes());
        out.extend_from_slice(&(self.states.len() as u64).to_le_bytes());
        for s in &self.states {
            out.push(match s {
                SlotState::Empty => 0,
                SlotState::Occupied => 1,
                SlotState::Forwarded => 2,
            });
        }
        out.extend_from_slice(&(self.slots.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.slots);
        out.extend_from_slice(&(self.heap.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.heap);
        out
    }

    /// Reconstruct a partition from [`Partition::to_bytes`] output,
    /// rejecting truncated or malformed images with a typed error.
    pub fn try_from_bytes(bytes: &[u8]) -> Result<Self, StorageError> {
        let mut pos = 0usize;
        let read_u64 = |pos: &mut usize| -> Result<usize, StorageError> {
            let b = bytes
                .get(*pos..*pos + 8)
                .ok_or(StorageError::CorruptImage("truncated length field"))?;
            *pos += 8;
            Ok(le_u64(b) as usize)
        };
        let slot_size = read_u64(&mut pos)?;
        let capacity = read_u64(&mut pos)?;
        let heap_budget = read_u64(&mut pos)?;
        let n_states = read_u64(&mut pos)?;
        let state_bytes = bytes
            .get(pos..pos + n_states)
            .ok_or(StorageError::CorruptImage("truncated slot-state table"))?;
        let mut states = Vec::with_capacity(n_states);
        let mut free_slots = Vec::new();
        let mut live = 0usize;
        for (i, b) in state_bytes.iter().enumerate() {
            states.push(match b {
                1 => {
                    live += 1;
                    SlotState::Occupied
                }
                2 => SlotState::Forwarded,
                _ => {
                    free_slots.push(i as u32);
                    SlotState::Empty
                }
            });
        }
        pos += n_states;
        let n_slots = read_u64(&mut pos)?;
        let slot_bytes = bytes
            .get(pos..pos + n_slots)
            .ok_or(StorageError::CorruptImage("truncated slot payload"))?;
        pos += n_slots;
        let n_heap = read_u64(&mut pos)?;
        let heap_bytes = bytes
            .get(pos..pos + n_heap)
            .ok_or(StorageError::CorruptImage("truncated heap payload"))?;
        // The budgets come from the image itself: check them against what
        // it holds before reserving them.
        let slot_budget = capacity.checked_mul(slot_size);
        if slot_size == 0
            || slot_size % 8 != 0
            || n_states > capacity
            || Some(n_slots) != n_states.checked_mul(slot_size)
            || n_heap > heap_budget
            || capacity > u32::MAX as usize
            || heap_budget > u32::MAX as usize
            || slot_budget.is_none_or(|b| b > u32::MAX as usize)
        {
            return Err(StorageError::CorruptImage(
                "inconsistent partition geometry",
            ));
        }
        let too_large = |_| StorageError::CorruptImage("partition budget too large");
        states
            .try_reserve_exact(capacity - n_states)
            .map_err(too_large)?;
        let reserved = |payload: &[u8], budget: usize| -> Result<Vec<u8>, StorageError> {
            let mut v = Vec::new();
            v.try_reserve_exact(budget).map_err(too_large)?;
            v.extend_from_slice(payload);
            Ok(v)
        };
        Ok(Partition {
            slot_size,
            capacity,
            heap_budget,
            slots: reserved(slot_bytes, capacity * slot_size)?,
            states,
            heap: reserved(heap_bytes, heap_budget)?,
            free_slots,
            live,
            garbage: 0,
        })
    }
}

/// Decode a little-endian `u32` from a 4-byte slice (the fixed cell
/// layout guarantees the width, so no fallible `try_into` is needed).
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Decode a little-endian `i64` from an 8-byte cell.
fn le_i64(b: &[u8]) -> i64 {
    i64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Decode a little-endian `u64` from an 8-byte slice.
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Schema};

    fn schema() -> Schema {
        Schema::of(&[
            ("name", AttrType::Str),
            ("id", AttrType::Int),
            ("dept", AttrType::Ptr),
            ("kids", AttrType::PtrList),
        ])
    }

    fn row(name: &str, id: i64) -> Vec<OwnedValue> {
        vec![
            OwnedValue::Str(name.into()),
            OwnedValue::Int(id),
            OwnedValue::Ptr(Some(TupleId::new(7, 9))),
            OwnedValue::PtrList(vec![TupleId::new(1, 2), TupleId::new(3, 4)]),
        ]
    }

    #[test]
    fn insert_and_read_every_type() {
        let s = schema();
        let mut p = Partition::new(s.arity(), PartitionConfig::default());
        let slot = p.insert(&row("Dave", 23)).unwrap();
        assert_eq!(p.read(slot, 0, &s).unwrap(), Value::Str("Dave"));
        assert_eq!(p.read(slot, 1, &s).unwrap(), Value::Int(23));
        assert_eq!(
            p.read(slot, 2, &s).unwrap(),
            Value::Ptr(Some(TupleId::new(7, 9)))
        );
        assert_eq!(
            p.read(slot, 3, &s).unwrap(),
            Value::PtrList(vec![TupleId::new(1, 2), TupleId::new(3, 4)])
        );
    }

    #[test]
    fn null_pointer_roundtrip() {
        let s = Schema::of(&[("p", AttrType::Ptr)]);
        let mut p = Partition::new(1, PartitionConfig::default());
        let slot = p.insert(&[OwnedValue::Ptr(None)]).unwrap();
        assert_eq!(p.read(slot, 0, &s).unwrap(), Value::Ptr(None));
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let s = schema();
        let mut p = Partition::new(s.arity(), PartitionConfig::default());
        let a = p.insert(&row("A", 1)).unwrap();
        let _b = p.insert(&row("B", 2)).unwrap();
        assert_eq!(p.live(), 2);
        p.delete(a, &s).unwrap();
        assert_eq!(p.live(), 1);
        assert!(matches!(p.read(a, 0, &s), Err(StorageError::SlotEmpty(_))));
        let c = p.insert(&row("C", 3)).unwrap();
        assert_eq!(c, a, "freed slot must be reused");
    }

    #[test]
    fn update_in_place_and_varlen_regrow() {
        let s = schema();
        let mut p = Partition::new(s.arity(), PartitionConfig::default());
        let slot = p.insert(&row("Al", 1)).unwrap();
        p.update(slot, 1, &OwnedValue::Int(99), &s).unwrap();
        assert_eq!(p.read(slot, 1, &s).unwrap(), Value::Int(99));
        // Growing a string must not move the tuple (same slot).
        p.update(slot, 0, &OwnedValue::Str("Alexander-the-Great".into()), &s)
            .unwrap();
        assert_eq!(
            p.read(slot, 0, &s).unwrap(),
            Value::Str("Alexander-the-Great")
        );
    }

    #[test]
    fn update_type_mismatch_rejected() {
        let s = schema();
        let mut p = Partition::new(s.arity(), PartitionConfig::default());
        let slot = p.insert(&row("A", 1)).unwrap();
        assert!(matches!(
            p.update(slot, 1, &OwnedValue::Str("no".into()), &s),
            Err(StorageError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn heap_exhaustion_reported_and_rolled_back() {
        let _schema = Schema::of(&[("s", AttrType::Str)]);
        let mut p = Partition::new(1, PartitionConfig::tiny());
        let big = "x".repeat(10_000);
        let err = p.insert(&[OwnedValue::Str(big)]).unwrap_err();
        assert_eq!(err, StorageError::HeapExhausted);
        assert_eq!(p.live(), 0);
        // Partition still usable.
        p.insert(&[OwnedValue::Str("ok".into())]).unwrap();
    }

    #[test]
    fn forwarding_address() {
        let s = schema();
        let mut p = Partition::new(s.arity(), PartitionConfig::default());
        let slot = p.insert(&row("A", 1)).unwrap();
        let target = TupleId::new(5, 42);
        p.forward(slot, target, &s).unwrap();
        assert_eq!(p.slot_state(slot).unwrap(), SlotState::Forwarded);
        assert_eq!(p.forwarding_of(slot).unwrap(), target);
        assert!(
            p.read(slot, 0, &s).is_err(),
            "forwarded slot is not readable"
        );
    }

    #[test]
    fn capacity_enforced() {
        let s = Schema::of(&[("i", AttrType::Int)]);
        let mut p = Partition::new(1, PartitionConfig::tiny());
        let cap = p.capacity();
        for i in 0..cap {
            p.insert(&[OwnedValue::Int(i as i64)]).unwrap();
        }
        assert!(!p.has_slot());
        assert!(p.insert(&[OwnedValue::Int(-1)]).is_err());
        let _ = s;
    }

    #[test]
    fn byte_image_roundtrip() {
        let s = schema();
        let mut p = Partition::new(s.arity(), PartitionConfig::default());
        let a = p.insert(&row("Dave", 23)).unwrap();
        let b = p.insert(&row("Suzan", 12)).unwrap();
        let c = p.insert(&row("Yaman", 44)).unwrap();
        p.delete(a, &s).unwrap();
        p.forward(b, TupleId::new(9, 9), &s).unwrap();
        let img = p.to_bytes();
        let q = Partition::try_from_bytes(&img).unwrap();
        assert_eq!(q.live(), p.live());
        assert_eq!(q.capacity(), p.capacity());
        assert_eq!(q.slot_state(a).unwrap(), SlotState::Empty);
        assert_eq!(q.slot_state(b).unwrap(), SlotState::Forwarded);
        assert_eq!(q.forwarding_of(b).unwrap(), TupleId::new(9, 9));
        assert_eq!(q.read(c, 0, &s).unwrap(), Value::Str("Yaman"));
        assert_eq!(q.read(c, 1, &s).unwrap(), Value::Int(44));
        // Freed slots survive the roundtrip.
        let mut q = q;
        let d = q.insert(&row("New", 1)).unwrap();
        assert_eq!(d, a);
    }

    fn garbage_matches_recount(p: &Partition, s: &Schema) {
        let mut q = Partition::try_from_bytes(&p.to_bytes()).unwrap();
        q.recount_garbage(s);
        assert_eq!(p.garbage, q.garbage, "incremental vs recounted garbage");
    }

    #[test]
    fn overwrites_deletes_and_forwards_count_garbage() {
        let s = schema();
        let mut p = Partition::new(s.arity(), PartitionConfig::default());
        let a = p.insert(&row("Dave", 1)).unwrap();
        let b = p.insert(&row("Suzan", 2)).unwrap();
        let c = p.insert(&row("Yaman", 3)).unwrap();
        assert_eq!(p.garbage, 0);
        p.update(a, 0, &OwnedValue::Str("David".into()), &s)
            .unwrap();
        assert_eq!(p.garbage, 4, "the old name");
        p.update(a, 1, &OwnedValue::Int(9), &s).unwrap();
        assert_eq!(p.garbage, 4, "fixed-width updates leave no garbage");
        p.delete(b, &s).unwrap();
        assert_eq!(p.garbage, 4 + 5 + 16, "name and two list entries");
        p.forward(c, TupleId::new(3, 3), &s).unwrap();
        assert_eq!(p.garbage, 4 + 5 + 16 + 5 + 16);
        garbage_matches_recount(&p, &s);
        let used = p.heap.len();
        assert_eq!(p.heap_remaining(), p.heap_budget - (used - p.garbage));
    }

    #[test]
    fn failed_insert_gives_back_its_heap_bytes() {
        let s = Schema::of(&[("a", AttrType::Str), ("b", AttrType::Str)]);
        let mut p = Partition::new(2, PartitionConfig::tiny());
        let big = "y".repeat(p.heap_budget);
        let err = p
            .insert(&[OwnedValue::Str("x".into()), OwnedValue::Str(big)])
            .unwrap_err();
        assert_eq!(err, StorageError::HeapExhausted);
        assert!(p.heap.is_empty());
        garbage_matches_recount(&p, &s);
    }

    #[test]
    fn compaction_keeps_slots_and_values() {
        let s = schema();
        let mut p = Partition::new(s.arity(), PartitionConfig::default());
        let mut slots = Vec::new();
        for i in 0..600 {
            slots.push(p.insert(&row(&format!("n{i}"), i)).unwrap());
        }
        // Free every third tuple, overwrite every fifth name (twice, so
        // some garbage sits between live values), add an empty name.
        for (i, slot) in slots.iter().enumerate() {
            if i % 3 == 0 {
                p.delete(*slot, &s).unwrap();
            } else if i % 5 == 0 {
                p.update(*slot, 0, &OwnedValue::Str(String::new()), &s)
                    .unwrap();
                p.update(*slot, 0, &OwnedValue::Str(format!("m{i}")), &s)
                    .unwrap();
            } else if i % 7 == 0 {
                p.update(*slot, 0, &OwnedValue::Str(String::new()), &s)
                    .unwrap();
            }
        }
        let before: Vec<_> = p
            .occupied_slots()
            .map(|slot| p.read_row(slot, &s).unwrap())
            .collect();
        let live = p.heap.len() - p.garbage;
        p.compact(&s);
        assert_eq!(p.heap.len(), live);
        assert_eq!(p.garbage, 0);
        let after: Vec<_> = p
            .occupied_slots()
            .map(|slot| p.read_row(slot, &s).unwrap())
            .collect();
        assert_eq!(before, after);
        garbage_matches_recount(&p, &s);
        // The compacted image decodes to the same rows.
        let q = Partition::try_from_bytes(&p.to_bytes()).unwrap();
        for slot in p.occupied_slots() {
            assert_eq!(q.read_row(slot, &s).unwrap(), p.read_row(slot, &s).unwrap());
        }
    }

    #[test]
    fn partitions_reserve_their_budget() {
        let p = Partition::new(5, PartitionConfig::default());
        assert_eq!(p.slots.capacity(), p.capacity() * 40);
        assert_eq!(p.heap.capacity(), p.heap_budget);
        let q = Partition::try_from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(q.slots.capacity(), p.slots.capacity());
        assert_eq!(q.heap.capacity(), p.heap.capacity());
    }

    #[test]
    fn inconsistent_geometry_is_a_corrupt_image() {
        let s = schema();
        let mut p = Partition::new(s.arity(), PartitionConfig::default());
        p.insert(&row("A", 1)).unwrap();
        let img = p.to_bytes();
        // Capacity field (bytes 8..16) below the slots in use, then far
        // past anything addressable.
        for cap in [0u64, u64::MAX / 2] {
            let mut bad = img.clone();
            bad[8..16].copy_from_slice(&cap.to_le_bytes());
            assert!(matches!(
                Partition::try_from_bytes(&bad),
                Err(StorageError::CorruptImage(_))
            ));
        }
    }

    #[test]
    fn occupied_slots_iterates_live_only() {
        let s = schema();
        let mut p = Partition::new(s.arity(), PartitionConfig::default());
        let a = p.insert(&row("A", 1)).unwrap();
        let b = p.insert(&row("B", 2)).unwrap();
        let c = p.insert(&row("C", 3)).unwrap();
        p.delete(b, &s).unwrap();
        let live: Vec<u32> = p.occupied_slots().collect();
        assert_eq!(live, vec![a, c]);
    }
}
