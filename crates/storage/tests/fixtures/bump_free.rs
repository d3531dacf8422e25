//! Fixture for the dirty-mark regression test: a Relation method that
//! reaches a tuple-storage write without ever marking its partition
//! dirty. Never compiled — linted under a virtual src path.

pub struct Relation;

impl Relation {
    fn forward(&mut self, _slot: u32) {}

    /// Unmarked mutation: reaches `forward` but never `mark_dirty`.
    /// The linter must flag this function.
    pub fn relocate(&mut self, slot: u32) {
        self.forward(slot);
    }
}
