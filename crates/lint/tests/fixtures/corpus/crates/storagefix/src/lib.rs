//! Dirty-mark fixtures: clean, violating, transitively violating,
//! waived, and policy-allowlisted mutators.

pub struct Relation {
    dirty: bool,
}

pub struct Partition;

impl Relation {
    fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    fn write_slot(&mut self, _slot: usize) {}

    /// Clean: reaches the sink and the dirty mark.
    pub fn insert_ok(&mut self) {
        self.write_slot(0);
        self.mark_dirty();
    }

    /// SEEDED VIOLATION (dirty-mark): writes without marking.
    pub fn insert_bad(&mut self) {
        self.write_slot(1);
    }

    /// SEEDED VIOLATION (dirty-mark): reaches the sink only through
    /// `touch`, which is itself also flagged.
    pub fn update_bad(&mut self) {
        self.touch();
    }

    /// SEEDED VIOLATION (dirty-mark): helper on the path of
    /// `update_bad`; a mutating entry in its own right.
    fn touch(&mut self) {
        self.write_slot(2);
    }

    // mmdb-lint: allow(dirty-mark) — compaction marks once in the caller after the whole batch moves
    pub fn compact_step(&mut self) {
        self.write_slot(3);
    }
}

/// Allowlisted in fixture.policy (`allow = free_fixup -- …`).
pub fn free_fixup(part: &mut Partition) {
    write_raw(part);
}

/// The raw partition write; an entry with no calls, so never flagged.
pub fn write_raw(_part: &mut Partition) {}
