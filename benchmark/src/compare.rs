//! `--compare A.json B.json`: judge two `out/results-<seed>.json` files
//! (A is the base) by the bounds `BENCHMARK.json` fixes.
//!
//! One row per workload × end-to-end metric with both medians, the ratio
//! B ÷ A and the verdict: `ok`, `REGRESSION` (B worse than A by more than
//! the bound), or `unresolved` (a side's own run-to-run spread exceeds the
//! bound, so the pair cannot be told apart). Fails on a regression, on
//! more failed ops in B than in A, and on an exact-count metric that
//! differs between repeats of one file (same code, same seed: it must
//! repeat bit for bit on the one-client workloads).

use crate::dataset::Res;
use crate::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Per-layer metrics that are counts, not times: equal seeds must give
/// equal values on the one-client workloads.
const EXACT: [&str; 10] = [
    "lock.requests_per_txn",
    "recovery.disk_writes_per_commit",
    "recovery.disk_bytes_per_commit",
    "recovery.disk_bytes_per_user_byte",
    "recovery.records_pulled_per_commit",
    "recovery.images_flushed_per_commit",
    "recovery.disk_reads_per_restart",
    "recovery.checkpoint_images_written",
    "exec.rows_in_per_row_out",
    "exec.comparisons_per_row_out",
];
const MANY_CLIENTS: &str = "mixed_clients";

/// One results file: per `(workload, traced)` the metric values of every
/// repeat, and the failed ops summed.
struct Side {
    seed: f64,
    runs: BTreeMap<(String, bool), Vec<BTreeMap<String, f64>>>,
    failed: f64,
}

fn load(path: &str) -> Res<Side> {
    let doc = Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)?;
    let mut side = Side {
        seed: doc
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or("results file has no seed")?,
        runs: BTreeMap::new(),
        failed: 0.0,
    };
    for run in doc.get("runs").map(Json::as_arr).unwrap_or_default() {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        let traced = run.get("trace").and_then(Json::as_f64) == Some(1.0);
        let result = run.get("result").ok_or("run without result")?;
        side.failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let mut values = BTreeMap::new();
        for (name, m) in result
            .get("metrics")
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
        {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values.insert(name.clone(), v);
            }
        }
        side.runs
            .entry((workload.to_string(), traced))
            .or_default()
            .push(values);
    }
    Ok(side)
}

fn values(side: &Side, workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    side.runs
        .get(&(workload.to_string(), traced))
        .map(|reps| reps.iter().filter_map(|r| r.get(metric).copied()).collect())
        .unwrap_or_default()
}

/// Quartile `i` of 4 by the rule of Python's `statistics.quantiles`
/// (exclusive method), which the acceptance driver uses.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let j = (i * (n + 1) / 4).clamp(1, n - 1);
    let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

/// `(median, spread as a share of the median)`: the inter-quartile range
/// from four repeats on, the full range for two or three, none for one.
fn summarise(mut v: Vec<f64>) -> Option<(f64, Option<f64>)> {
    if v.is_empty() {
        return None;
    }
    let median = crate::stats::median_f64(&mut v);
    let width = match v.len() {
        1 => return Some((median, None)),
        2 | 3 => v[v.len() - 1] - v[0],
        _ => quartile(&v, 3) - quartile(&v, 1),
    };
    Some((
        median,
        Some(if median == 0.0 {
            0.0
        } else {
            width / median.abs()
        }),
    ))
}

pub fn main(files: &[String]) -> Res<ExitCode> {
    let [a_path, b_path] = files else {
        return Err("--compare takes two results files: the base, then the candidate".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec =
        Json::parse(&std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?)?;
    let mut bad = 0u32;

    println!(
        "{:<14} {:<36} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict   (base = {a_path}, seed {}; new = {b_path}, seed {})",
        "workload", "metric", "base", "new", "new/base", "spread_a", "spread_b", "bound", a.seed, b.seed
    );
    let pct = |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0));
    for w in spec.get("workloads").map(Json::as_arr).unwrap_or_default() {
        let workload = w.get("name").and_then(Json::as_str).unwrap_or_default();
        for m in spec.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
            let metric = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower_is_better = m.get("better").and_then(Json::as_str) != Some("higher");
            let (Some((base, spread_a)), Some((new, spread_b))) = (
                summarise(values(&a, workload, false, metric)),
                summarise(values(&b, workload, false, metric)),
            ) else {
                println!("{workload:<14} {metric:<36} missing from one side");
                bad += 1;
                continue;
            };
            let worse_by = if lower_is_better {
                new / base - 1.0
            } else {
                1.0 - new / base
            };
            let verdict = if [spread_a, spread_b].iter().flatten().any(|s| *s > bound) {
                "unresolved"
            } else if worse_by > bound {
                bad += 1;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{workload:<14} {metric:<36} {base:>14.4} {new:>14.4} {:>8.3} {:>8} {:>8} {:>5.0}%  {verdict}",
                new / base,
                pct(spread_a),
                pct(spread_b),
                bound * 100.0
            );
        }
        if workload == MANY_CLIENTS {
            continue;
        }
        for metric in EXACT {
            for (side, path) in [(&a, a_path), (&b, b_path)] {
                let v = values(side, workload, true, metric);
                if v.windows(2).any(|p| p[0] != p[1]) {
                    println!("{workload:<14} {metric:<36} does not repeat within {path}: {v:?}");
                    bad += 1;
                }
            }
            let (va, vb) = (
                values(&a, workload, true, metric),
                values(&b, workload, true, metric),
            );
            // A count of 0 on both sides is a layer the workload never
            // enters: nothing to show.
            if let (Some(x), Some(y)) = (va.first(), vb.first()) {
                if *x == 0.0 && *y == 0.0 {
                    continue;
                }
                let verdict = if a.seed != b.seed {
                    "seeds differ"
                } else if x == y {
                    "same"
                } else {
                    "CHANGED"
                };
                println!("{workload:<14} {metric:<36} {x:>14.4} {y:>14.4} {:>8.3}  exact count: {verdict}", y / x);
            }
        }
    }
    if b.failed > a.failed {
        println!("failed ops rose from {} to {}", a.failed, b.failed);
        bad += 1;
    }
    println!(
        "{}",
        if bad == 0 {
            "compare: ok"
        } else {
            "compare: FAILED"
        }
    );
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_exclusive_rule() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile(&v, 1), 2.75);
        assert_eq!(quartile(&v, 3), 8.25);
        let (median, spread) = summarise(v).unwrap();
        assert_eq!(median, 5.5);
        assert_eq!(spread, Some(1.0));
        assert_eq!(summarise(vec![4.0]), Some((4.0, None)));
        assert_eq!(summarise(vec![4.0, 5.0]).unwrap().1, Some(1.0 / 4.5));
    }
}
