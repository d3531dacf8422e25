//! Graph 2 — query mixes of interspersed searches, inserts and deletes
//! (§3.2.2).
//!
//! The paper ran three mixes (80/10/10, 60/20/20, 40/30/30 percent
//! searches/inserts/deletes) over structures preloaded with 30,000
//! elements, and published the 60/20/20 graph as representative. We
//! regenerate all three; the array's two-orders-of-magnitude update
//! penalty is capped only by your patience.

use crate::figure::{fmt_secs, Figure, Scale};
use crate::graph1::node_sizes;
use crate::indexes::{shuffled_keys, IndexKindB};

/// One query mix (percent searches / inserts / deletes).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Percent searches.
    pub searches: u32,
    /// Percent inserts.
    pub inserts: u32,
    /// Percent deletes.
    pub deletes: u32,
}

/// The paper's three mixes.
#[must_use]
pub fn mixes() -> Vec<Mix> {
    vec![
        Mix {
            searches: 80,
            inserts: 10,
            deletes: 10,
        },
        Mix {
            searches: 60,
            inserts: 20,
            deletes: 20,
        },
        Mix {
            searches: 40,
            inserts: 30,
            deletes: 30,
        },
    ]
}

/// Run one mix for every structure and node size. Columns like Graph 1.
#[must_use]
pub fn run(scale: Scale, mix: Mix) -> Figure {
    let n = scale.apply(30_000, 500);
    let ops = n; // the paper intersperses |R| operations
    let kinds = IndexKindB::all();
    let mut cols = vec!["node_size".to_string()];
    cols.extend(kinds.iter().map(|k| k.name().to_string()));
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut fig = Figure::new(
        &format!("graph2_{}_{}_{}", mix.searches, mix.inserts, mix.deletes),
        &format!(
            "Query Mix {}% search / {}% insert / {}% delete ({n} elements)",
            mix.searches, mix.inserts, mix.deletes
        ),
        &col_refs,
    );
    let preload = shuffled_keys(n, 0xC);
    // Deterministic op tape shared by all structures: (roll, key).
    let op_tape: Vec<(u32, u64)> = {
        let rolls = shuffled_keys(ops, 0xD);
        let keys = shuffled_keys(ops, 0xE);
        rolls
            .iter()
            .zip(&keys)
            .map(|(r, k)| ((r % 100) as u32, *k))
            .collect()
    };
    for ns in node_sizes() {
        let mut row = vec![ns.to_string()];
        for kind in &kinds {
            // Best of 2 passes, each over a freshly preloaded index (the
            // mix mutates the structure, so reps can't share one).
            let mut best = f64::MAX;
            for _ in 0..2 {
                let mut idx = kind.build(ns, n);
                for k in &preload {
                    idx.insert(*k);
                }
                let mut next_fresh = n as u64;
                let (_, secs) = crate::time(|| {
                    for (roll, key) in &op_tape {
                        if *roll < mix.searches {
                            idx.search(*key);
                        } else if *roll < mix.searches + mix.inserts {
                            idx.insert(next_fresh);
                            next_fresh += 1;
                        } else {
                            idx.delete(*key);
                        }
                    }
                });
                best = best.min(secs);
            }
            row.push(fmt_secs(best));
        }
        fig.push_row(row);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_all_mixes() {
        for mix in mixes() {
            let fig = run(Scale(0.02), mix);
            assert_eq!(fig.rows.len(), node_sizes().len());
        }
    }

    /// Graph 2's most dramatic result: the array is orders of magnitude
    /// worse than the T-Tree under updates. On a 1986 VAX the effect shows
    /// directly in wall-clock; a modern memmove runs at ~50 GB/s, so at
    /// these populations the *time* gap compresses to a few × while the
    /// *data-movement* gap (which the paper used to validate its
    /// implementations, §3.1) remains two-plus orders of magnitude. Assert
    /// both at their hardware-appropriate strengths.
    #[cfg(not(debug_assertions))]
    #[test]
    fn array_updates_are_catastrophic() {
        let fig = run(Scale(0.5), mixes()[1]); // 60/20/20, 15000 elements
        let row = 3; // any node size; array is flat
        let array = fig.cell_f64(row, fig.col("Array"));
        let ttree = fig.cell_f64(row, fig.col("T Tree"));
        assert!(
            array > ttree * 2.0,
            "array {array} should clearly exceed T-Tree {ttree}"
        );
    }

    /// The §3.1 counter-based form of the same claim: per mixed-op data
    /// movement is ~|R|/2 entries for the array vs ~node-size for the
    /// T-Tree — two-plus orders of magnitude at 15,000 elements.
    #[cfg(feature = "stats")]
    #[test]
    fn array_data_movement_is_two_orders_worse() {
        use mmdb_index::adapter::NaturalAdapter;
        use mmdb_index::traits::OrderedIndex;
        use mmdb_index::{ArrayIndex, TTree, TTreeConfig};
        let n = 15_000usize;
        let keys = shuffled_keys(n, 0xAB);
        let ops = shuffled_keys(n, 0xCD);
        let moves_of = |mut ins: Box<dyn FnMut(u64)>,
                        mut del: Box<dyn FnMut(u64)>,
                        snap: Box<dyn Fn() -> u64>|
         -> u64 {
            for k in &keys {
                ins(*k);
            }
            let before = snap();
            let mut fresh = n as u64;
            for (i, k) in ops.iter().enumerate().take(4000) {
                if i % 2 == 0 {
                    del(*k);
                } else {
                    ins(fresh);
                    fresh += 1;
                }
            }
            snap() - before
        };
        let mut arr = ArrayIndex::new(NaturalAdapter::<u64>::new());
        let arr_cell = std::cell::RefCell::new(&mut arr);
        let arr_moves = {
            let a = &arr_cell;
            moves_of(
                Box::new(move |k| a.borrow_mut().insert((), k)),
                Box::new(move |k| {
                    a.borrow_mut().delete((), &k);
                }),
                Box::new(move || a.borrow().stats().data_moves),
            )
        };
        let mut tt = TTree::new(
            NaturalAdapter::<u64>::new(),
            TTreeConfig::with_node_size(30),
        );
        let tt_cell = std::cell::RefCell::new(&mut tt);
        let tt_moves = {
            let t = &tt_cell;
            moves_of(
                Box::new(move |k| t.borrow_mut().insert((), k)),
                Box::new(move |k| {
                    t.borrow_mut().delete((), &k);
                }),
                Box::new(move || t.borrow().stats().data_moves),
            )
        };
        assert!(
            arr_moves > tt_moves * 100,
            "array moved {arr_moves} entries vs T-Tree {tt_moves} — expected ≥100×"
        );
    }

    /// Timing-shape assertion — meaningful only with optimized code.
    #[cfg(not(debug_assertions))]
    #[test]
    fn ttree_competitive_with_avl_and_btree() {
        let fig = run(Scale(0.1), mixes()[1]);
        // Mid node size (paper shows T-Tree best among order-preserving).
        let row = 4;
        let ttree = fig.cell_f64(row, fig.col("T Tree"));
        let avl = fig.cell_f64(row, fig.col("AVL Tree"));
        let btree = fig.cell_f64(row, fig.col("B Tree"));
        assert!(
            ttree < avl * 1.5 && ttree < btree * 1.5,
            "T-Tree {ttree} vs AVL {avl} vs B-Tree {btree}"
        );
    }
}
