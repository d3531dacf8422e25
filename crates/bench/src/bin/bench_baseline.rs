//! Quick-mode kernel baseline: times the true kernels — index probe,
//! insert/delete and ordered scan, T-Tree descent over a stored
//! attribute, the join kernels and the dedup kernels — at fixed small
//! cardinalities and seeds, and emits machine-readable
//! `BENCH_baseline.json` (op → ns/iter) so future changes have a perf
//! baseline to diff against. End-to-end operations, restart's index
//! rebuild among them, are timed by `benchmark/`; the paper's figures and
//! the design ablations by the `figures` binary.
//!
//! ```text
//! bench_baseline [--out FILE]
//! bench_baseline --compare BASELINE [--fresh FILE]
//! ```
//!
//! The second form diffs a fresh run (or an already-generated `--fresh`
//! file) against a committed baseline, printing per-key ratios, and exits
//! non-zero if any *tracked* kernel (`join_4k/`, `dedup_4k/` — the keys
//! large enough to be meaningful at quick-mode iteration counts)
//! regressed by more than 25% beyond the run-wide host-speed factor (see
//! [`REGRESS_LIMIT`]); a failing pass re-measures up to [`MAX_ATTEMPTS`]
//! times, keeping per-key minima. `verify.sh` wires this up as the
//! `bench-regress` gate.
//!
//! Keys are emitted in sorted (`BTreeMap`) order with fixed workload
//! sizes and seeds, so two generated files align line-by-line and only
//! the measured ns values move. Each cell is best-of-`MMDB_BENCH_REPS`
//! (default 3) over a fixed iteration count — the same minimum-time
//! defence the figure harness uses against scheduler noise. The emitted
//! file also records the host: CPU count and a measured per-iter noise
//! floor (spread of three repeats of a fixed sort workload), so a future
//! reader can judge whether a numeric diff is signal or scheduler jitter.

// The report itself goes to stdout.
#![allow(clippy::print_stdout)]

use mmdb_bench::indexes::{shuffled_keys, IndexKindB};
use mmdb_bench::time_best;
use mmdb_exec::{
    hash_join, project_hash, project_sort, sort_merge_join, tree_join, tree_merge_join, JoinSide,
};
use mmdb_index::adapter::Adapter;
use mmdb_index::traits::OrderedIndex;
use mmdb_index::{TTree, TTreeConfig};
use mmdb_storage::{
    AttrAdapter, AttrType, KeyValue, OutputField, OwnedValue, PartitionConfig, Relation,
    ResultDescriptor, Schema, TempList, TupleId,
};
use mmdb_workload::relations::build_matching_relation;
use mmdb_workload::{build_join_relation, build_single_column, JoinRelation, RelationSpec};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Index cardinality: a third of the paper's 30,000-element indexes.
const INDEX_N: usize = 10_000;
/// Node size for the B-Tree, T-Tree and extendible/linear hash cells.
/// Modified Linear Hash reads it as its target average chain length, so
/// each probe walks a chain of up to 30 single-entry nodes (EXPERIMENTS.md,
/// Graph 1).
const NODE_SIZE: usize = 30;
/// Join / dedup cardinality.
const JOIN_N: usize = 4_000;
/// Iterations per macro cell (join/dedup). These cells gate the
/// `bench-regress` comparison, so they run enough iterations that the
/// best-of-reps minimum sits well above scheduler jitter.
const MACRO_ITERS: usize = 10;

fn reps() -> usize {
    std::env::var("MMDB_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Measure `f` as best-of-reps over `iters` calls; record rounded ns/iter.
fn measure(out: &mut BTreeMap<String, u64>, key: &str, iters: usize, mut f: impl FnMut()) {
    let ((), secs) = time_best(reps(), || {
        for _ in 0..iters {
            f();
        }
    });
    let ns = (secs * 1e9 / iters as f64).round().max(0.0);
    out.insert(key.to_string(), ns as u64);
}

fn index_suite(out: &mut BTreeMap<String, u64>) {
    let keys = shuffled_keys(INDEX_N, 1);
    let probes = shuffled_keys(INDEX_N, 2);
    for kind in IndexKindB::all() {
        let mut idx = kind.build(NODE_SIZE, INDEX_N);
        for k in &keys {
            idx.insert(*k);
        }
        let mut i = 0usize;
        measure(
            out,
            &format!("index_search/{}", kind.name()),
            INDEX_N,
            || {
                let k = probes[i % INDEX_N];
                i += 1;
                black_box(idx.search(black_box(k)));
            },
        );
    }
    let keys = shuffled_keys(INDEX_N, 3);
    for kind in IndexKindB::all() {
        // The array's O(n) shifts would dominate the run at full N.
        let n = if kind == IndexKindB::Array {
            INDEX_N / 10
        } else {
            INDEX_N
        };
        let mut idx = kind.build(NODE_SIZE, n);
        for k in keys.iter().take(n) {
            idx.insert(*k);
        }
        let mut next = n as u64;
        measure(
            out,
            &format!("index_insert_delete/{}", kind.name()),
            n,
            || {
                idx.insert(black_box(next));
                black_box(idx.delete(black_box(next)));
                next += 1;
            },
        );
    }
    let keys = shuffled_keys(INDEX_N, 4);
    for kind in IndexKindB::ordered() {
        let mut idx = kind.build(NODE_SIZE, INDEX_N);
        for k in &keys {
            idx.insert(*k);
        }
        measure(out, &format!("ordered_scan/{}", kind.name()), 10, || {
            black_box(idx.range_count(0, INDEX_N as u64));
        });
    }
}

/// T-Tree descent over a *stored-attribute* adapter (tuple-pointer
/// entries dereferenced per comparison — the §2.2 configuration), tagged
/// vs untagged: the node-local key-tag cache should cut most of the
/// pointer chases out of descent. `index_search/T Tree` above uses the
/// natural adapter (entries are their own keys), where tags buy nothing.
fn ttree_attr_suite(out: &mut BTreeMap<String, u64>) {
    /// [`AttrAdapter`] with the tag hooks forced back to the
    /// always-undecided default — the pre-cache behaviour.
    struct Untagged<'a>(AttrAdapter<'a>);
    impl Adapter for Untagged<'_> {
        type Entry = TupleId;
        type Key = KeyValue;
        fn cmp_entries(&self, a: &TupleId, b: &TupleId) -> Ordering {
            self.0.cmp_entries(a, b)
        }
        fn cmp_entry_key(&self, e: &TupleId, key: &KeyValue) -> Ordering {
            self.0.cmp_entry_key(e, key)
        }
    }

    let keys = shuffled_keys(INDEX_N, 5);
    let probes = shuffled_keys(INDEX_N, 6);
    let mut rel = Relation::new(
        "r",
        Schema::of(&[
            ("v", AttrType::Int),
            // Distinct first-8-bytes: the tag decides most comparisons.
            ("s", AttrType::Str),
            // Shared 8-byte prefix ("key-0000…"): every tag ties, so each
            // comparison falls back to the full dereference — the
            // documented worst case, measured here as pure tag overhead.
            ("p", AttrType::Str),
        ]),
        PartitionConfig::default(),
    );
    let tids: Vec<TupleId> = keys
        .iter()
        .map(|k| {
            rel.insert(&[
                OwnedValue::Int(*k as i64),
                OwnedValue::Str(format!("{k:08}")),
                OwnedValue::Str(format!("key-{k:08}")),
            ])
            .expect("insert")
        })
        .collect();
    for (attr, label) in [(0usize, "int"), (1, "str"), (2, "str_shared_prefix")] {
        let mut tagged = TTree::new(
            AttrAdapter::new(&rel, attr),
            TTreeConfig::with_node_size(NODE_SIZE),
        );
        let mut plain = TTree::new(
            Untagged(AttrAdapter::new(&rel, attr)),
            TTreeConfig::with_node_size(NODE_SIZE),
        );
        for t in &tids {
            tagged.insert(*t);
            plain.insert(*t);
        }
        let probe = |k: u64| -> KeyValue {
            match attr {
                0 => KeyValue::Int(k as i64),
                1 => KeyValue::from(format!("{k:08}").as_str()),
                _ => KeyValue::from(format!("key-{k:08}").as_str()),
            }
        };
        let mut i = 0usize;
        measure(
            out,
            &format!("ttree_attr_search/{label}/tagged"),
            INDEX_N,
            || {
                let k = probe(probes[i % INDEX_N]);
                i += 1;
                black_box(tagged.search(black_box(&k)));
            },
        );
        let mut i = 0usize;
        measure(
            out,
            &format!("ttree_attr_search/{label}/untagged"),
            INDEX_N,
            || {
                let k = probe(probes[i % INDEX_N]);
                i += 1;
                black_box(plain.search(black_box(&k)));
            },
        );
    }
}

fn join_suite(out: &mut BTreeMap<String, u64>) {
    let outer = build_join_relation("r1", &RelationSpec::unique(JOIN_N, 1));
    let inner = build_matching_relation("r2", &RelationSpec::unique(JOIN_N, 2), &outer, 100.0);
    let o = JoinSide::new(&outer.relation, JoinRelation::JCOL, &outer.tids);
    let i = JoinSide::new(&inner.relation, JoinRelation::JCOL, &inner.tids);
    let mut oidx = TTree::new(
        AttrAdapter::new(&outer.relation, JoinRelation::JCOL),
        TTreeConfig::with_node_size(NODE_SIZE),
    );
    for t in &outer.tids {
        oidx.insert(*t);
    }
    let mut iidx = TTree::new(
        AttrAdapter::new(&inner.relation, JoinRelation::JCOL),
        TTreeConfig::with_node_size(NODE_SIZE),
    );
    for t in &inner.tids {
        iidx.insert(*t);
    }
    measure(out, "join_4k/hash_join", MACRO_ITERS, || {
        black_box(hash_join(o, i).expect("join").len());
    });
    measure(out, "join_4k/tree_join", MACRO_ITERS, || {
        black_box(tree_join(o, &iidx).expect("join").len());
    });
    measure(out, "join_4k/sort_merge", MACRO_ITERS, || {
        black_box(sort_merge_join(o, i).expect("join").len());
    });
    measure(out, "join_4k/tree_merge", MACRO_ITERS, || {
        black_box(
            tree_merge_join(
                &outer.relation,
                JoinRelation::JCOL,
                &oidx,
                &inner.relation,
                JoinRelation::JCOL,
                &iidx,
            )
            .expect("join")
            .len(),
        );
    });
}

fn dedup_suite(out: &mut BTreeMap<String, u64>) {
    for dup in [0.0f64, 50.0, 95.0] {
        let (rel, tids) = build_single_column(
            "p",
            &RelationSpec {
                cardinality: JOIN_N,
                duplicate_pct: dup,
                sigma: 0.8,
                seed: 1,
            },
        );
        let list = TempList::from_tids(tids);
        let desc = ResultDescriptor::new(vec![OutputField::new(0, 0, "val")]);
        measure(
            out,
            &format!("dedup_4k/hash/{dup:.0}pct"),
            MACRO_ITERS,
            || {
                black_box(
                    project_hash(&list, &desc, &[&rel])
                        .expect("dedup")
                        .rows
                        .len(),
                );
            },
        );
        measure(
            out,
            &format!("dedup_4k/sort_scan/{dup:.0}pct"),
            MACRO_ITERS,
            || {
                black_box(
                    project_sort(&list, &desc, &[&rel])
                        .expect("dedup")
                        .rows
                        .len(),
                );
            },
        );
    }
}

/// Host CPUs visible to the process (what `ExecConfig::default` clamps to).
fn host_cpus() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Per-iter timing spread (max − min ns) of three repeats of a fixed
/// calibration workload: sorting a seeded 4k shuffle. This is the
/// machine's quick-mode noise floor at measurement time — a ratio diff
/// smaller than `noise_floor_ns / cell_ns` is jitter, not regression.
fn noise_floor_ns() -> u64 {
    let keys = shuffled_keys(4096, 7);
    let iters = 200usize;
    let mut lo = f64::MAX;
    let mut hi = 0.0f64;
    for _ in 0..3 {
        let ((), secs) = mmdb_bench::time(|| {
            for _ in 0..iters {
                let mut v = keys.clone();
                v.sort_unstable();
                black_box(&v);
            }
        });
        let ns = secs * 1e9 / iters as f64;
        lo = lo.min(ns);
        hi = hi.max(ns);
    }
    (hi - lo).round().max(0.0) as u64
}

fn write_json(path: &str, entries: &BTreeMap<String, u64>) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 2,\n");
    s.push_str("  \"mode\": \"quick\",\n");
    s.push_str("  \"unit\": \"ns_per_iter\",\n");
    s.push_str(&format!("  \"host_cpus\": {},\n", host_cpus()));
    s.push_str(&format!("  \"noise_floor_ns\": {},\n", noise_floor_ns()));
    s.push_str("  \"entries\": {\n");
    let last = entries.len().saturating_sub(1);
    for (n, (k, v)) in entries.iter().enumerate() {
        // Keys are ASCII workload names (letters, digits, '/', '(', ')',
        // spaces, '%') — nothing needing JSON escaping.
        s.push_str(&format!(
            "    \"{k}\": {v}{}\n",
            if n == last { "" } else { "," }
        ));
    }
    s.push_str("  }\n}\n");
    std::fs::write(path, s)
}

/// Key prefixes gated by `--compare`. Only the join/dedup cells are
/// large enough (hundreds of µs) to clear quick-mode jitter; the per-op
/// index cells swing too much at these iteration counts to gate.
const TRACKED_PREFIXES: [&str; 2] = ["join_4k/", "dedup_4k/"];
/// A tracked kernel more than this factor slower than baseline fails —
/// after dividing out the run-wide host-speed factor (the median ratio
/// over every key the two files share, untracked cells included). The
/// fleet of untouched kernels moves together when the host itself runs
/// slower (frequency scaling, CPU-quota throttling, a noisy neighbour);
/// a real code regression moves one kernel against that tide. Gating
/// the normalised ratio keeps the gate invariant to uniform host speed
/// while still catching the kernel that stands out.
const REGRESS_LIMIT: f64 = 1.25;
/// Compare-mode measurement attempts. A failed comparison re-measures
/// in-process and keeps the per-key *minimum* (extra samples can only
/// lower a minimum-time estimate), so transient noise gets this many
/// chances to find a quiet window while a genuine regression keeps
/// failing every attempt.
const MAX_ATTEMPTS: usize = 3;

/// Parse the `"entries"` block of a baseline file: lines of
/// `"key": <int>` after the `"entries"` opener (the exact shape
/// [`write_json`] emits — no general JSON machinery needed).
fn parse_entries(text: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let mut in_entries = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with("\"entries\"") {
            in_entries = true;
            continue;
        }
        if !in_entries {
            continue;
        }
        if let Some((k, v)) = line.split_once(':') {
            if let Ok(n) = v.trim().trim_end_matches(',').parse::<u64>() {
                out.insert(k.trim().trim_matches('"').to_string(), n);
            }
        }
    }
    out
}

fn tracked(key: &str) -> bool {
    TRACKED_PREFIXES.iter().any(|p| key.starts_with(p))
}

fn run_all_suites() -> BTreeMap<String, u64> {
    let mut entries = BTreeMap::new();
    index_suite(&mut entries);
    ttree_attr_suite(&mut entries);
    join_suite(&mut entries);
    dedup_suite(&mut entries);
    entries
}

/// Run-wide host-speed factor: the median fresh/baseline ratio over
/// every key both maps share. With ~40 cells, one genuinely regressed
/// kernel barely moves the median, while a uniformly slower host moves
/// the whole distribution — exactly the signal to divide out.
fn host_speed_factor(base: &BTreeMap<String, u64>, fresh: &BTreeMap<String, u64>) -> f64 {
    let mut ratios: Vec<f64> = base
        .iter()
        .filter_map(|(k, b)| fresh.get(k).map(|f| *f as f64 / (*b).max(1) as f64))
        .collect();
    if ratios.is_empty() {
        return 1.0;
    }
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Tracked keys whose normalised ratio exceeds `limit`, plus tracked
/// keys missing from the fresh run entirely.
fn regressions(
    base: &BTreeMap<String, u64>,
    fresh: &BTreeMap<String, u64>,
    limit: f64,
) -> Vec<String> {
    base.iter()
        .filter(|(k, _)| tracked(k))
        .filter(|(k, b)| match fresh.get(*k) {
            None => true,
            Some(f) => *f as f64 / (**b).max(1) as f64 > limit,
        })
        .map(|(k, _)| k.clone())
        .collect()
}

/// Diff `fresh` against `baseline_path`, print per-key ratios, and
/// return the process exit code: non-zero iff a tracked kernel regressed
/// past [`REGRESS_LIMIT`] × the host-speed factor (or went missing from
/// the fresh run). A failing comparison re-measures up to
/// [`MAX_ATTEMPTS`] times, min-merging each re-run into `fresh`.
fn compare(baseline_path: &str, mut fresh: BTreeMap<String, u64>) -> i32 {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            return 2;
        }
    };
    let base = parse_entries(&text);
    if base.is_empty() {
        eprintln!("no entries parsed from {baseline_path}");
        return 2;
    }
    let mut limit = REGRESS_LIMIT;
    for attempt in 1..=MAX_ATTEMPTS {
        let factor = host_speed_factor(&base, &fresh).max(1.0);
        limit = REGRESS_LIMIT * factor;
        let regressed = regressions(&base, &fresh, limit);
        if regressed.is_empty() || attempt == MAX_ATTEMPTS {
            break;
        }
        println!(
            "attempt {attempt}: {} tracked kernel(s) over {limit:.2}x \
             ({REGRESS_LIMIT}x regress limit x {factor:.2}x host-speed factor): {} \
             -- re-measuring and keeping per-key minima",
            regressed.len(),
            regressed.join(", ")
        );
        for (k, v) in run_all_suites() {
            fresh.entry(k).and_modify(|e| *e = (*e).min(v)).or_insert(v);
        }
    }
    let factor = host_speed_factor(&base, &fresh).max(1.0);
    let regressed = regressions(&base, &fresh, limit);
    println!(
        "comparing against {baseline_path} ({REGRESS_LIMIT}x regress limit x \
         {factor:.2}x host-speed factor = {limit:.2}x effective, tracked keys)"
    );
    println!(
        "{:<44} {:>10} {:>10} {:>7}",
        "key", "baseline", "fresh", "ratio"
    );
    for (key, b) in &base {
        let Some(f) = fresh.get(key) else {
            if tracked(key) {
                println!("{key:<44} {b:>10} {:>10} {:>7}  MISSING", "-", "-");
            }
            continue;
        };
        let ratio = *f as f64 / (*b).max(1) as f64;
        let flag = if !tracked(key) {
            "  (untracked)"
        } else if ratio > limit {
            "  REGRESS"
        } else {
            ""
        };
        println!("{key:<44} {b:>10} {f:>10} {ratio:>6.2}x{flag}");
    }
    for key in fresh.keys().filter(|k| !base.contains_key(*k)) {
        println!("{key:<44} {:>10} {:>10}   (new)", "-", fresh[key]);
    }
    if regressed.is_empty() {
        println!("OK: no tracked kernel regressed more than {limit:.2}x");
        0
    } else {
        println!(
            "FAIL: {} tracked kernel(s) regressed more than {limit:.2}x: {}",
            regressed.len(),
            regressed.join(", ")
        );
        1
    }
}

fn usage() -> ! {
    eprintln!("usage: bench_baseline [--out FILE] | --compare BASELINE [--fresh FILE]");
    std::process::exit(2);
}

fn main() {
    let mut out_path = String::from("BENCH_baseline.json");
    let mut baseline: Option<String> = None;
    let mut fresh_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().unwrap_or_else(|| usage()),
            "--compare" => baseline = Some(args.next().unwrap_or_else(|| usage())),
            "--fresh" => fresh_path = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if let Some(baseline) = baseline {
        // Compare mode: diff an existing --fresh file, or measure now.
        let fresh = match fresh_path {
            Some(p) => match std::fs::read_to_string(&p) {
                Ok(t) => parse_entries(&t),
                Err(e) => {
                    eprintln!("cannot read fresh file {p}: {e}");
                    std::process::exit(2);
                }
            },
            None => run_all_suites(),
        };
        std::process::exit(compare(&baseline, fresh));
    }
    let entries = run_all_suites();
    write_json(&out_path, &entries).expect("write baseline");
    println!("wrote {} ({} entries)", out_path, entries.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A baseline shaped like the real one: untracked per-op cells around
    /// a handful of tracked join/dedup cells.
    fn baseline() -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        for (n, kind) in ["AVL Tree", "B Tree", "T Tree", "Array", "Linear Hash"]
            .iter()
            .enumerate()
        {
            m.insert(format!("index_search/{kind}"), 100 + 10 * n as u64);
            m.insert(format!("index_insert_delete/{kind}"), 50 + 10 * n as u64);
        }
        for (n, kernel) in ["hash_join", "tree_join", "sort_merge", "tree_merge"]
            .iter()
            .enumerate()
        {
            m.insert(format!("join_4k/{kernel}"), 300_000 + 100_000 * n as u64);
        }
        m.insert("dedup_4k/hash/0pct".into(), 200_000);
        m.insert("dedup_4k/sort_scan/0pct".into(), 370_000);
        m
    }

    /// The verdict `compare` reaches on one attempt.
    fn verdict(base: &BTreeMap<String, u64>, fresh: &BTreeMap<String, u64>) -> Vec<String> {
        let factor = host_speed_factor(base, fresh).max(1.0);
        regressions(base, fresh, REGRESS_LIMIT * factor)
    }

    #[test]
    fn one_slower_tracked_kernel_is_reported() {
        let base = baseline();
        let mut fresh = base.clone();
        *fresh.get_mut("join_4k/tree_join").unwrap() *= 2;
        assert_eq!(host_speed_factor(&base, &fresh), 1.0);
        assert_eq!(verdict(&base, &fresh), vec!["join_4k/tree_join"]);
    }

    #[test]
    fn uniformly_slower_host_is_not_a_regression() {
        let base = baseline();
        let fresh: BTreeMap<String, u64> = base.iter().map(|(k, v)| (k.clone(), v * 2)).collect();
        assert_eq!(host_speed_factor(&base, &fresh), 2.0);
        assert!(verdict(&base, &fresh).is_empty());
        // Without the host-speed factor every tracked cell would fail.
        assert_eq!(regressions(&base, &fresh, REGRESS_LIMIT).len(), 6);
    }

    #[test]
    fn missing_tracked_kernel_is_reported() {
        let base = baseline();
        let mut fresh = base.clone();
        fresh.remove("dedup_4k/hash/0pct");
        fresh.remove("index_search/B Tree");
        assert_eq!(verdict(&base, &fresh), vec!["dedup_4k/hash/0pct"]);
    }

    #[test]
    fn written_baseline_parses_back() {
        let base = baseline();
        let path = std::env::temp_dir().join(format!("mmdb-bench-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        write_json(path, &base).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(parse_entries(&text), base);
        assert!(text.contains(&format!("\"host_cpus\": {}", host_cpus())));
    }
}
