//! Worker-pool merge determinism.
//!
//! The worker pool's only merge rule is
//! [`mmdb_exec::merge_indexed`]: workers tag results with their task
//! index and the pool reorders by tag, so restart's output is independent
//! of completion order. This check feeds a tagged result set through the
//! merge under several adversarial completion orders (identity,
//! reversed, rotated, seeded shuffles) and demands identical output.

use crate::explore::SplitMix64;
use crate::report::Report;
use mmdb_exec::merge_indexed;
use std::fmt::Debug;

/// Verify `merge_indexed` produces the same output for every completion
/// order of `tagged`. The tags need not be dense or start at zero; only
/// the relative order matters.
#[must_use]
pub fn check_merge_determinism<T>(tagged: &[(usize, T)]) -> Report
where
    T: Clone + PartialEq + Debug,
{
    let mut report = Report::new();
    let s = "parallel-pool";
    let reference = merge_indexed(tagged.to_vec());
    let mut orders: Vec<(String, Vec<(usize, T)>)> = Vec::new();
    let mut reversed = tagged.to_vec();
    reversed.reverse();
    orders.push(("reversed".to_string(), reversed));
    if !tagged.is_empty() {
        let mut rotated = tagged.to_vec();
        rotated.rotate_left(tagged.len() / 2);
        orders.push(("rotated".to_string(), rotated));
    }
    for seed in 0..4u64 {
        let mut rng = SplitMix64::new(0x9e37_79b9 ^ seed);
        let mut shuffled = tagged.to_vec();
        // Fisher-Yates with the deterministic stream.
        for i in (1..shuffled.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        orders.push((format!("shuffle-{seed}"), shuffled));
    }
    for (name, order) in orders {
        let merged = merge_indexed(order);
        if merged != reference {
            report.fail(
                s,
                format!("completion order {name}"),
                "merge-determinism",
                format!(
                    "merged output diverges from identity order ({} items)",
                    tagged.len()
                ),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_order_insensitive() {
        let tagged: Vec<(usize, u64)> = (0..37).map(|i| (i, (i as u64) * 3)).collect();
        check_merge_determinism(&tagged).assert_ok();
        check_merge_determinism::<u64>(&[]).assert_ok();
    }

    #[test]
    fn a_completion_sensitive_merge_would_be_caught() {
        // Sanity-check the checker itself: if the pool concatenated in
        // completion order (no reorder), different orders differ.
        let tagged: Vec<(usize, u64)> = vec![(0, 1), (1, 2), (2, 3)];
        let identity: Vec<u64> = tagged.iter().map(|(_, v)| *v).collect();
        let mut rev = tagged.clone();
        rev.reverse();
        let concat: Vec<u64> = rev.iter().map(|(_, v)| *v).collect();
        assert_ne!(identity, concat);
        assert_eq!(merge_indexed(rev), identity);
    }
}
