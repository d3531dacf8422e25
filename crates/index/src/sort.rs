//! The paper's sort kernel (§3.3.2, footnote 6) plus the cache-conscious
//! run-formation variant used by the overhauled execution kernels.
//!
//! *"The sort was done using quicksort with an insertion sort for subarrays
//! of ten elements or less. We ran a test to determine the optimal subarray
//! size for switching from quicksort to insertion sort; the optimal
//! subarray size was 10."*
//!
//! Used by the Sort Merge join (sorting freshly built array indexes) and by
//! the Sort Scan duplicate-elimination method. Instrumented with the same
//! comparison / data-movement counters as the index structures so the
//! experiment harness can validate operation counts.
//!
//! [`run_sort`] layers the DPG design on top: quicksort cache-resident
//! runs, then merge them with a d-ary heap small enough to live in L1.
//! Large sorts stop streaming the whole array through cache per quicksort
//! level; every element is touched once per phase instead.
//!
//! [`radix_sort_by_tag`] sorts `(tag, entry)` pairs whose tags are exact
//! without a comparator at all: a stable radix pass over the tag bytes
//! that vary (the bulk index rebuild's kernel for integer keys).

use crate::stats::Counters;
use std::cmp::Ordering;

/// Subarray size at or below which quicksort hands off to insertion sort —
/// the paper's empirically tuned value.
pub const INSERTION_CUTOFF: usize = 10;

/// Fan-out of the run-merge heap in [`run_sort`]. A 4-ary heap halves the
/// tree height of a binary heap while each node's children still share one
/// cache line of run ids — the "d-ary heap in cache" choice from DPG.
pub const MERGE_FANOUT: usize = 4;

/// Sort `data` in place with `cmp`, using the paper's hybrid
/// quicksort/insertion-sort with the default cutoff of
/// [`INSERTION_CUTOFF`].
pub fn quicksort<T: Copy>(
    data: &mut [T],
    stats: &Counters,
    mut cmp: impl FnMut(&T, &T) -> Ordering,
) {
    quicksort_with_cutoff(data, INSERTION_CUTOFF, stats, &mut cmp);
}

/// Sort with an explicit insertion-sort cutoff (exposed for the ablation
/// benchmark that re-runs the paper's footnote-6 tuning experiment).
pub fn quicksort_with_cutoff<T: Copy>(
    data: &mut [T],
    cutoff: usize,
    stats: &Counters,
    cmp: &mut impl FnMut(&T, &T) -> Ordering,
) {
    if data.len() > 1 {
        qsort_rec(data, cutoff, stats, cmp);
        insertion_sort(data, stats, cmp);
    }
}

/// Cache-conscious sort: quicksort `data` in runs of at most `run_len`
/// elements (pick `run_len` so one run fits L2), then merge the sorted
/// runs with a [`MERGE_FANOUT`]-ary heap of run heads.
///
/// Equal elements (where `cmp` returns `Equal`) come back in ascending
/// run order (the quicksort within a run is unstable but deterministic),
/// so for a fixed `run_len` the output is a pure function of the input.
/// Comparison and data-move counts accumulate into `stats` exactly like
/// [`quicksort`].
// mmdb-lint: allow(panic-path) — heap entries are run ids < runs, `pos`/`ends` hold one cursor per run, and every cursor satisfies r*run_len <= pos[r] <= ends[r] <= n (a run id is popped exactly when its cursor reaches ends[r]); heap child indices are checked against heap.len() before use
pub fn run_sort<T: Copy>(
    data: &mut Vec<T>,
    run_len: usize,
    stats: &Counters,
    cmp: &mut impl FnMut(&T, &T) -> Ordering,
) {
    let n = data.len();
    let run_len = run_len.max(2);
    if n <= run_len {
        quicksort_with_cutoff(data, INSERTION_CUTOFF, stats, cmp);
        return;
    }
    for run in data.chunks_mut(run_len) {
        quicksort_with_cutoff(run, INSERTION_CUTOFF, stats, cmp);
    }
    let runs = n.div_ceil(run_len);
    // Per-run cursor into `data`; run r spans r*run_len .. ends[r].
    let mut pos: Vec<usize> = (0..runs).map(|r| r * run_len).collect();
    let ends: Vec<usize> = (0..runs).map(|r| ((r + 1) * run_len).min(n)).collect();
    // d-ary min-heap of run ids, keyed by each run's head element with the
    // run id as tie-break (equal keys drain in run order). The heap holds
    // only `runs` small integers — cache-resident however big `data` is.
    fn run_less<T: Copy>(
        data: &[T],
        pos: &[usize],
        stats: &Counters,
        cmp: &mut impl FnMut(&T, &T) -> Ordering,
        a: u32,
        b: u32,
    ) -> bool {
        stats.comparisons(1);
        match cmp(&data[pos[a as usize]], &data[pos[b as usize]]) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a < b,
        }
    }
    fn sift_down<T: Copy>(
        heap: &mut [u32],
        data: &[T],
        pos: &[usize],
        stats: &Counters,
        cmp: &mut impl FnMut(&T, &T) -> Ordering,
    ) {
        let mut i = 0;
        loop {
            let first_child = i * MERGE_FANOUT + 1;
            if first_child >= heap.len() {
                break;
            }
            let mut best = first_child;
            for c in first_child + 1..(first_child + MERGE_FANOUT).min(heap.len()) {
                if run_less(data, pos, stats, cmp, heap[c], heap[best]) {
                    best = c;
                }
            }
            if run_less(data, pos, stats, cmp, heap[best], heap[i]) {
                heap.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
    }
    let mut heap: Vec<u32> = Vec::with_capacity(runs);
    for r in 0..runs as u32 {
        heap.push(r);
        // Sift up: walk ancestors while the new run's head is smaller.
        let mut i = heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / MERGE_FANOUT;
            if run_less(data, &pos, stats, cmp, heap[i], heap[parent]) {
                heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }
    let mut out: Vec<T> = Vec::with_capacity(n);
    while !heap.is_empty() {
        let r = heap[0] as usize;
        out.push(data[pos[r]]);
        stats.data_moves(1);
        pos[r] += 1;
        if pos[r] == ends[r] {
            let last = heap.len() - 1;
            heap.swap(0, last);
            heap.pop();
        }
        sift_down(&mut heap, data, &pos, stats, cmp);
    }
    *data = out;
}

/// Stable LSD radix sort of `(tag, entry)` pairs by tag alone — the sort
/// for *exact* tags (equal tags are equal keys), which never needs the
/// entry to decide an order.
///
/// Returns at once when the tags already ascend. Otherwise one counting
/// pass histograms all eight tag bytes, then one stable scatter runs per
/// byte that varies, least significant first; a byte every tag shares
/// is skipped. Equal tags keep their input order, so pairs extracted in
/// ascending entry order come out sorted by `(tag, entry)`.
// mmdb-lint: allow(panic-path) — `counts` is [[usize; 256]; 8] indexed by a byte position b < 8 (the enumerate of its own 8 rows) and a masked byte value <= 0xff; `dst` has len n, and offsets[d] starts at the count of tags below byte value d and rises once per tag with value d, so it stays below the prefix count through d, which is at most n
pub fn radix_sort_by_tag<E: Copy>(data: &mut Vec<(u64, E)>) {
    if data.is_sorted_by_key(|&(tag, _)| tag) {
        return;
    }
    let n = data.len();
    let mut counts = [[0usize; 256]; 8];
    for &(tag, _) in data.iter() {
        for (b, count) in counts.iter_mut().enumerate() {
            count[((tag >> (8 * b)) & 0xff) as usize] += 1;
        }
    }
    let mut src = std::mem::take(data);
    let mut dst = src.clone();
    for (b, count) in counts.iter().enumerate() {
        if count.contains(&n) {
            continue;
        }
        let mut offsets = [0usize; 256];
        let mut below = 0usize;
        for (offset, c) in offsets.iter_mut().zip(count) {
            *offset = below;
            below += c;
        }
        let shift = 8 * b;
        for &(tag, e) in &src {
            let d = ((tag >> shift) & 0xff) as usize;
            dst[offsets[d]] = (tag, e);
            offsets[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    *data = src;
}

/// Plain insertion sort; fast on nearly-sorted and tiny inputs. The paper
/// notes it also benefits from heavy duplication ("with many equal values,
/// the subarray in quicksort is often already sorted by the time it is
/// passed to the insertion sort").
// mmdb-lint: allow(panic-path) — i ranges over 1..len and j only moves down from i while j > 0, so data[i], data[j], and data[j - 1] stay within 0..len
pub fn insertion_sort<T: Copy>(
    data: &mut [T],
    stats: &Counters,
    cmp: &mut impl FnMut(&T, &T) -> Ordering,
) {
    for i in 1..data.len() {
        let v = data[i];
        let mut j = i;
        while j > 0 {
            stats.comparisons(1);
            if cmp(&data[j - 1], &v) == Ordering::Greater {
                data[j] = data[j - 1];
                stats.data_moves(1);
                j -= 1;
            } else {
                break;
            }
        }
        if j != i {
            data[j] = v;
            stats.data_moves(1);
        }
    }
}

// mmdb-lint: allow(panic-path) — the loop guard hi - lo > cutoff.max(2) keeps lo < hi <= len, and partition returns a position inside the lo..hi slice it was given
fn qsort_rec<T: Copy>(
    data: &mut [T],
    cutoff: usize,
    stats: &Counters,
    cmp: &mut impl FnMut(&T, &T) -> Ordering,
) {
    let mut lo = 0usize;
    let mut hi = data.len();
    // Iterate on the larger side, recurse on the smaller: O(log n) stack.
    // Partitioning needs at least 3 elements (median-of-three), so slices
    // at or below max(cutoff, 2) are left to the final insertion sort.
    while hi - lo > cutoff.max(2) {
        let p = partition(&mut data[lo..hi], stats, cmp) + lo;
        if p - lo < hi - p - 1 {
            qsort_rec_range(data, lo, p, cutoff, stats, cmp);
            lo = p + 1;
        } else {
            qsort_rec_range(data, p + 1, hi, cutoff, stats, cmp);
            hi = p;
        }
    }
}

// mmdb-lint: allow(panic-path) — callers pass lo/hi derived from a partition point inside data, so data[lo..hi] is in bounds
fn qsort_rec_range<T: Copy>(
    data: &mut [T],
    lo: usize,
    hi: usize,
    cutoff: usize,
    stats: &Counters,
    cmp: &mut impl FnMut(&T, &T) -> Ordering,
) {
    if hi - lo > cutoff.max(2) {
        qsort_rec(&mut data[lo..hi], cutoff, stats, cmp);
    }
}

/// Hoare-style partition with median-of-three pivot selection; returns the
/// final pivot position.
// mmdb-lint: allow(panic-path) — only called on slices of length > cutoff.max(2) >= 3, so indices 0, mid = n/2, n - 1, and n - 2 all exist, and the Hoare cursors are bounds-checked before every dereference
fn partition<T: Copy>(
    data: &mut [T],
    stats: &Counters,
    cmp: &mut impl FnMut(&T, &T) -> Ordering,
) -> usize {
    let n = data.len();
    let mid = n / 2;
    // Median-of-three: order data[0], data[mid], data[n-1].
    stats.comparisons(3);
    if cmp(&data[mid], &data[0]) == Ordering::Less {
        data.swap(mid, 0);
        stats.data_moves(2);
    }
    if cmp(&data[n - 1], &data[0]) == Ordering::Less {
        data.swap(n - 1, 0);
        stats.data_moves(2);
    }
    if cmp(&data[n - 1], &data[mid]) == Ordering::Less {
        data.swap(n - 1, mid);
        stats.data_moves(2);
    }
    // Use the median (now at mid) as pivot; park it at n-2.
    data.swap(mid, n - 2);
    stats.data_moves(2);
    let pivot = data[n - 2];
    let mut i = 0usize;
    let mut j = n - 2;
    loop {
        loop {
            i += 1;
            stats.comparisons(1);
            if i >= n - 2 || cmp(&data[i], &pivot) != Ordering::Less {
                break;
            }
        }
        loop {
            j -= 1;
            stats.comparisons(1);
            if j == 0 || cmp(&pivot, &data[j]) != Ordering::Less {
                break;
            }
        }
        if i >= j {
            break;
        }
        data.swap(i, j);
        stats.data_moves(2);
    }
    data.swap(i, n - 2);
    stats.data_moves(2);
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Counters;

    fn check_sorts(mut v: Vec<u64>) {
        let stats = Counters::default();
        let mut expect = v.clone();
        expect.sort_unstable();
        quicksort(&mut v, &stats, |a, b| a.cmp(b));
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_empty_and_singleton() {
        check_sorts(vec![]);
        check_sorts(vec![7]);
    }

    #[test]
    fn sorts_small_arrays() {
        check_sorts(vec![3, 1, 2]);
        check_sorts(vec![2, 1]);
        check_sorts((0..10).rev().collect());
    }

    #[test]
    fn sorts_already_sorted() {
        check_sorts((0..1000).collect());
    }

    #[test]
    fn sorts_reverse_sorted() {
        check_sorts((0..1000).rev().collect());
    }

    #[test]
    fn sorts_random() {
        // Deterministic pseudo-random input.
        let mut x = 0x1234_5678_u64;
        let v: Vec<u64> = (0..5000)
            .map(|_| {
                x = crate::adapter::mix64(x);
                x % 10_000
            })
            .collect();
        check_sorts(v);
    }

    #[test]
    fn sorts_all_duplicates() {
        check_sorts(vec![5; 2000]);
    }

    #[test]
    fn sorts_few_distinct_values() {
        let mut x = 9u64;
        let v: Vec<u64> = (0..3000)
            .map(|_| {
                x = crate::adapter::mix64(x);
                x % 3
            })
            .collect();
        check_sorts(v);
    }

    #[test]
    fn cutoff_zero_and_large_both_sort() {
        for cutoff in [0, 1, 2, 50, 10_000] {
            let mut x = 42u64;
            let mut v: Vec<u64> = (0..2500)
                .map(|_| {
                    x = crate::adapter::mix64(x);
                    x % 500
                })
                .collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            let stats = Counters::default();
            quicksort_with_cutoff(&mut v, cutoff, &stats, &mut |a, b| a.cmp(b));
            assert_eq!(v, expect, "cutoff {cutoff}");
        }
    }

    #[cfg(feature = "stats")]
    #[test]
    fn counts_comparisons_roughly_n_log_n() {
        let n = 4096u64;
        let mut x = 7u64;
        let mut v: Vec<u64> = (0..n)
            .map(|_| {
                x = crate::adapter::mix64(x);
                x
            })
            .collect();
        let stats = Counters::default();
        quicksort(&mut v, &stats, |a, b| a.cmp(b));
        let c = stats.snapshot().comparisons as f64;
        let nlogn = (n as f64) * (n as f64).log2();
        assert!(c > nlogn * 0.5, "too few comparisons: {c} vs {nlogn}");
        assert!(c < nlogn * 6.0, "too many comparisons: {c} vs {nlogn}");
    }

    #[test]
    fn insertion_sort_standalone() {
        let stats = Counters::default();
        let mut v = vec![5u64, 4, 3, 2, 1, 10, 9, 8];
        insertion_sort(&mut v, &stats, &mut |a, b| a.cmp(b));
        assert_eq!(v, vec![1, 2, 3, 4, 5, 8, 9, 10]);
    }

    fn check_run_sorts(v: Vec<u64>, run_len: usize) {
        let stats = Counters::default();
        let mut expect = v.clone();
        expect.sort_unstable();
        let mut got = v;
        run_sort(&mut got, run_len, &stats, &mut |a, b| a.cmp(b));
        assert_eq!(got, expect, "run_len {run_len}");
    }

    #[test]
    fn run_sort_edge_cases() {
        for run_len in [0, 1, 2, 3, 7, 100] {
            check_run_sorts(vec![], run_len);
            check_run_sorts(vec![9], run_len);
            check_run_sorts(vec![2, 1], run_len);
            check_run_sorts((0..37).rev().collect(), run_len);
        }
    }

    #[test]
    fn run_sort_matches_quicksort_on_random() {
        let mut x = 0xdead_beef_u64;
        let v: Vec<u64> = (0..5000)
            .map(|_| {
                x = crate::adapter::mix64(x);
                x % 700
            })
            .collect();
        // run_len spanning: many tiny runs, runs around boundaries, one run.
        for run_len in [2, 3, 64, 999, 1000, 1001, 4999, 5000, 5001, 100_000] {
            check_run_sorts(v.clone(), run_len);
        }
    }

    #[test]
    fn run_sort_all_duplicates_and_few_distinct() {
        check_run_sorts(vec![5; 2000], 100);
        let mut x = 11u64;
        let v: Vec<u64> = (0..3000)
            .map(|_| {
                x = crate::adapter::mix64(x);
                x % 3
            })
            .collect();
        check_run_sorts(v, 128);
    }

    #[test]
    fn run_sort_equal_keys_drain_in_run_order() {
        // Pairs (key, origin); comparator only looks at key. With every key
        // equal, the merge must drain run 0 completely, then run 1, … —
        // the output is exactly the per-run quicksorted chunks concatenated.
        let n = 257usize;
        let run_len = 16usize;
        let v: Vec<(u64, u64)> = (0..n as u64).map(|i| (42, i)).collect();
        let mut expect = v.clone();
        for chunk in expect.chunks_mut(run_len) {
            let s = Counters::default();
            quicksort_with_cutoff(
                chunk,
                INSERTION_CUTOFF,
                &s,
                &mut |a: &(u64, u64), b: &(u64, u64)| a.0.cmp(&b.0),
            );
        }
        let mut got = v;
        let stats = Counters::default();
        run_sort(&mut got, run_len, &stats, &mut |a, b| a.0.cmp(&b.0));
        assert_eq!(got, expect);
    }

    /// Radix-sort `tags` paired with their input positions and compare
    /// against the stable `slice::sort_by_key`: equal tags must keep their
    /// input order. Then again with every tag's low byte rotated to the
    /// top, so the same input also drives the most significant pass.
    fn check_radix(tags: &[u64]) {
        for rotate in [0, 8] {
            let mut got: Vec<(u64, usize)> = tags
                .iter()
                .map(|t| t.rotate_right(rotate))
                .zip(0..)
                .collect();
            let mut expect = got.clone();
            expect.sort_by_key(|&(tag, _)| tag);
            radix_sort_by_tag(&mut got);
            assert_eq!(got, expect, "rotated right by {rotate}");
        }
    }

    fn mixed(n: usize, seed: u64, modulus: u64) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = crate::adapter::mix64(x);
                x % modulus
            })
            .collect()
    }

    #[test]
    fn radix_empty_one_and_all_equal() {
        check_radix(&[]);
        check_radix(&[7]);
        check_radix(&[42; 300]);
        // All equal but the last, which is smallest: the equal run must
        // not turn round while the last tag moves to the front.
        let mut tags = vec![42; 300];
        tags.push(41);
        check_radix(&tags);
    }

    #[test]
    fn radix_ascending_and_descending() {
        let up: Vec<u64> = (0..1000).map(|i| i * 0x0101_0101).collect();
        check_radix(&up);
        let down: Vec<u64> = up.iter().rev().copied().collect();
        check_radix(&down);
        // Descending in runs of equal tags: every run must come back in
        // input order.
        let runs: Vec<u64> = (0..600).map(|i| 1_000 - i / 7).collect();
        check_radix(&runs);
    }

    #[test]
    fn radix_extreme_tags() {
        check_radix(&[u64::MAX, 0, u64::MAX, 1, 0, u64::MAX - 1, 0]);
        // The `Int` sign-bit flip puts negatives below 1 << 63.
        let flipped: Vec<u64> = [5i64, -1, i64::MIN, 0, i64::MAX, -1, 5]
            .iter()
            .map(|&i| (i as u64) ^ (1 << 63))
            .collect();
        check_radix(&flipped);
    }

    #[test]
    fn radix_one_varying_high_byte() {
        // Only byte 7 varies: the pass over it must not be skipped, and
        // the seven shared bytes must not reorder anything.
        let tags: Vec<u64> = mixed(500, 5, 4)
            .into_iter()
            .map(|h| (h << 56) | 0x00ab_cdef_0123_4567)
            .collect();
        check_radix(&tags);
        // One varying low byte under one varying high byte.
        let tags: Vec<u64> = mixed(500, 6, 16)
            .into_iter()
            .map(|h| ((h & 3) << 56) | (h >> 2))
            .collect();
        check_radix(&tags);
    }

    #[test]
    fn radix_seeded_random_with_duplicates() {
        for (seed, modulus) in [(1u64, 60u64), (2, 1 << 20), (3, u64::MAX), (4, 3)] {
            check_radix(&mixed(5_000, seed, modulus));
        }
    }

    #[cfg(feature = "stats")]
    #[test]
    fn run_sort_counts_comparisons() {
        let n = 4096u64;
        let mut x = 3u64;
        let mut v: Vec<u64> = (0..n)
            .map(|_| {
                x = crate::adapter::mix64(x);
                x
            })
            .collect();
        let stats = Counters::default();
        run_sort(&mut v, 256, &stats, &mut |a, b| a.cmp(b));
        let c = stats.snapshot().comparisons as f64;
        let nlogn = (n as f64) * (n as f64).log2();
        assert!(c > nlogn * 0.5, "too few comparisons: {c} vs {nlogn}");
        assert!(c < nlogn * 6.0, "too many comparisons: {c} vs {nlogn}");
    }
}
