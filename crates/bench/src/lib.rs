//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§3).
//!
//! Each `graph*` module regenerates one figure as a [`Figure`] (a table of
//! series the paper plots); the `figures` binary prints them and writes
//! CSVs. All experiments accept a [`Scale`] so smoke tests can run the
//! same code at 1/20 size while `figures` runs the paper's cardinalities
//! (30,000-element indexes, 20,000–30,000-tuple relations).
//!
//! Experiment ↔ paper map (see DESIGN.md §4 for the full index):
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`graph1`] | Graph 1 — index search vs node size |
//! | [`graph2`] | Graph 2 — query mixes (80/10/10, 60/20/20, 40/30/30) |
//! | [`storage_costs`] | §3.2.2 storage factors + Table 1 ratings |
//! | [`graph3`] | Graph 3 — duplicate-distribution curves |
//! | [`joins`] | Graphs 4–9 — the six join tests |
//! | [`graph10`] | Graph 10 — nested loops join |
//! | [`projection`] | Graphs 11–12 — duplicate elimination |
//! | [`precomputed`] | §3.3.5 — precomputed join vs the rest |
//! | [`aspects`] | §3.2.2's unpublished aspects: create / scan / range / delete |
//! | [`locking`] | §2.4's lock-granularity cost claim |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aspects;
pub mod figure;
pub mod graph1;
pub mod graph10;
pub mod graph2;
pub mod graph3;
pub mod indexes;
pub mod joins;
pub mod locking;
pub mod precomputed;
pub mod projection;
pub mod storage_costs;

pub use figure::{Figure, Scale};

/// Wall-clock one closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = std::time::Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Wall-clock a closure `reps` times and keep the best (minimum) time —
/// the standard defence against scheduler noise for sub-second cells.
pub fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::MAX;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let (r, s) = time(&mut f);
        if s < best {
            best = s;
        }
        out = Some(r);
    }
    (out.expect("at least one rep"), best)
}
