//! Outside-in spans: one per call the benchmark makes into a layer.
//!
//! Spans stay in memory and are written out when the run ends. A span's
//! parent is the tightest span of the same op that contains it; its self
//! time is its duration minus its children's. Nothing is recorded (and no
//! clock is read for it) when tracing is off.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Name of the span that covers a whole op; its self time is what the
/// trace could not attribute to a layer.
pub const ROOT: &str = "op";

#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One client's span buffer. Clients share `epoch` so that their
/// timestamps line up in the written trace.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch; always reads the clock (op latency is
    /// measured with tracing off too).
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A timestamp for a span boundary: the clock when tracing, else 0.
    pub fn mark(&self) -> u64 {
        if self.on {
            self.now()
        } else {
            0
        }
    }

    pub fn span(&mut self, op: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                op,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Children whose durations a layer reported but whose position it did
    /// not (operator self times, restart phases): laid end to end from
    /// `start_ns`. Returns where the last one ends.
    pub fn lay(&mut self, op: u64, mut start_ns: u64, parts: &[(&'static str, u64)]) -> u64 {
        for (name, dur) in parts {
            self.span(op, name, start_ns, start_ns + dur);
            start_ns += dur;
        }
        start_ns
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time by span name, summed over a run.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// name → (spans, Σ self ns, Σ duration ns)
    pub by_name: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Parent of each span as an index into the analysed slice.
    parents: Vec<Option<usize>>,
}

impl SelfTimes {
    /// `spans` holds each op's spans next to each other (a client records
    /// one op at a time).
    pub fn analyse(spans: &[Span]) -> SelfTimes {
        let mut out = SelfTimes {
            by_name: BTreeMap::new(),
            parents: vec![None; spans.len()],
        };
        let mut child_ns = vec![0u64; spans.len()];
        let mut lo = 0;
        while lo < spans.len() {
            let mut hi = lo;
            while hi < spans.len() && spans[hi].op == spans[lo].op {
                hi += 1;
            }
            // Outermost first: by start, then longest first.
            let mut order: Vec<usize> = (lo..hi).collect();
            order.sort_by_key(|&i| (spans[i].start_ns, std::cmp::Reverse(spans[i].end_ns)));
            let mut open: Vec<usize> = Vec::new();
            for i in order {
                while open
                    .last()
                    .is_some_and(|&p| spans[p].end_ns < spans[i].end_ns)
                {
                    open.pop();
                }
                if let Some(&p) = open.last() {
                    out.parents[i] = Some(p);
                    child_ns[p] += spans[i].end_ns - spans[i].start_ns;
                }
                open.push(i);
            }
            lo = hi;
        }
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur.saturating_sub(child_ns[i]);
            e.2 += dur;
        }
        out
    }

    /// Mean duration of the spans called `name`, in ns; 0 when none ran.
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.by_name.get(name) {
            Some((n, _, dur)) if *n > 0 => *dur as f64 / *n as f64,
            _ => 0.0,
        }
    }

    /// Σ self time attributed below the op spans ÷ Σ op time.
    pub fn coverage_share(&self) -> f64 {
        let Some((_, root_self, root_total)) = self.by_name.get(ROOT) else {
            return 0.0;
        };
        if *root_total == 0 {
            return 0.0;
        }
        1.0 - *root_self as f64 / *root_total as f64
    }

    /// Share of op time by layer (the part of a span name before the
    /// first dot), largest first; `op` is the unattributed remainder.
    pub fn layer_shares(&self) -> Vec<(String, f64)> {
        let total: u64 = self.by_name.values().map(|v| v.1).sum();
        let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
        for (name, (_, self_ns, _)) in &self.by_name {
            let layer = name.split('.').next().unwrap_or(name);
            *by_layer.entry(layer).or_default() += self_ns;
        }
        let mut v: Vec<(String, f64)> = by_layer
            .into_iter()
            .map(|(l, ns)| (l.to_string(), ns as f64 / total.max(1) as f64))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// One JSON object per line: `op`, `span`, `parent` (0 = none), `name`,
    /// `start_ns`, `end_ns`.
    pub fn write_jsonl(&self, spans: &[Span], path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"op\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                i + 1,
                self.parents[i].map_or(0, |p| p + 1),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // Recorded in end order, as the workloads do: children before the
        // call that contains them, the root last.
        let spans = vec![
            span(1, "engine.begin", 0, 10),
            span(1, "engine.read_call", 10, 90),
            span(1, "lock.acquire_shared", 10, 60),
            span(1, "index.select", 60, 80),
            span(1, ROOT, 0, 100),
            span(2, ROOT, 100, 150),
        ];
        let t = SelfTimes::analyse(&spans);
        assert_eq!(
            t.parents,
            vec![Some(4), Some(4), Some(1), Some(1), None, None]
        );
        assert_eq!(t.by_name["engine.read_call"], (1, 10, 80));
        assert_eq!(t.by_name[ROOT], (2, 60, 150));
        assert_eq!(t.mean_ns("lock.acquire_shared"), 50.0);
        assert!((t.coverage_share() - 0.6).abs() < 1e-12);
        assert_eq!(t.layer_shares()[0].0, "op");
        assert_eq!(t.layer_shares()[1], ("lock".to_string(), 50.0 / 150.0));
    }

    #[test]
    fn nothing_is_recorded_when_off() {
        let mut tr = Tracer::new(false, Instant::now());
        assert_eq!(tr.mark(), 0);
        tr.span(1, ROOT, 0, 1);
        tr.lay(1, 0, &[("exec.plan", 5)]);
        assert!(tr.into_spans().is_empty());
    }
}
