//! Order statistics, the process's peak memory, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The value at quantile `q` (0..=1) of an ascending slice, by the
/// nearest-rank rule; 0 for an empty slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

pub fn median_ns(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    quantile_sorted(samples, 0.5)
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Metric name → `(value, unit)`, in name order so output repeats exactly.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The one JSON object the driver reads from the last line of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Non-finite values have no JSON spelling; a metric that could
        // not be computed reads 0.
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}
