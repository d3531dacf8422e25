//! The five closed-loop workloads. Each client sends its next transaction
//! only after the previous one returned, as an embedding application's
//! callers do. Names are permanent: later issues cite them.

mod reads;
mod restart;
mod writes;

pub use reads::RANGE_ROWS;

use crate::dataset::{Bench, Engine, Res, Rng};
use crate::stats::quantile_sorted;
use crate::trace::{Span, Tracer, ROOT};
use std::time::{Duration, Instant};

/// A workload's name and how its run is sized and summarised.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Equal stretches the timed phase is cut into; every time metric is
    /// the median stretch.
    pub stretches: usize,
    /// Which quantile `latency_tail_us` is: the highest that leaves at
    /// least ten samples beyond it in every stretch at this workload's op
    /// rate on the reference host.
    pub tail: f64,
    /// Nominal ops per second and client on the reference host, rounded
    /// down; it only sizes the op-count-bounded phases of a traced run.
    pub nominal_rate: f64,
}

const fn spec(name: &'static str, stretches: usize, tail: f64, nominal_rate: f64) -> Spec {
    Spec {
        name,
        stretches,
        tail,
        nominal_rate,
    }
}

pub const SPECS: [Spec; 5] = [
    spec("point_read", 15, 0.99, 15_000.0),
    spec("report_read", 5, 0.90, 90.0),
    spec("write_commit", 15, 0.99, 13_000.0),
    spec("mixed_clients", 15, 0.99, 2_500.0),
    spec("restart", 3, 0.80, 9.0),
];

pub fn names() -> Vec<&'static str> {
    SPECS.iter().map(|s| s.name).collect()
}

/// Deliberate oracle corruption, for `--self-test` only: proof that a
/// wrong result or a lost write makes the run fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// The model expects a value the database was never given.
    Expectation,
    /// A write is recorded as acknowledged but never committed.
    LostWrite,
}

/// Counters the engine exposes through public return values, as totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounters {
    pub lock_requests: u64,
    pub group_commits: u64,
    pub group_batches: u64,
    pub records_pulled: u64,
    pub images_flushed: u64,
}

impl EngineCounters {
    pub fn read(engine: &Engine) -> Self {
        let g = engine.group_commit_stats();
        let (records_pulled, images_flushed) = engine.with_db(|db| db.log_device_counters());
        EngineCounters {
            lock_requests: engine.lock_request_count(),
            group_commits: g.commits,
            group_batches: g.batches,
            records_pulled,
            images_flushed,
        }
    }

    pub fn add_since(&mut self, now: &EngineCounters, then: &EngineCounters) {
        self.lock_requests += now.lock_requests - then.lock_requests;
        self.group_commits += now.group_commits - then.group_commits;
        self.group_batches += now.group_batches - then.group_batches;
        self.records_pulled += now.records_pulled - then.records_pulled;
        self.images_flushed += now.images_flushed - then.images_flushed;
    }
}

/// What `report_read` learns from `OpProfile`s (traced phases only).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecTotals {
    pub queries: u64,
    pub plan_ns: u64,
    pub scan_ns: u64,
    pub join_ns: u64,
    pub project_ns: u64,
    pub materialise_ns: u64,
    pub rows_in: u64,
    pub rows_out: u64,
    pub comparisons: u64,
    pub rows_materialised: u64,
}

/// What `restart` learns from `RecoveryReport`s and `CheckpointReport`s.
#[derive(Debug, Clone, Copy, Default)]
pub struct RestartTotals {
    pub restarts: u64,
    pub catalog_ns: u64,
    pub working_set_ns: u64,
    pub background_ns: u64,
    pub index_rebuild_ns: u64,
    pub index_entries: u64,
    pub index_task_ns: u64,
    pub disk_reads: u64,
    pub checkpoint_ns: u64,
    pub checkpoint_images: u64,
}

/// How long a phase runs: until `time` is up, or until `ops` ops were
/// started if that comes first. Traced runs bound phases by op count, so
/// that equal seeds execute equal op sequences and the counts they report
/// repeat exactly; `time` is then only the cap for a slow host.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub time: Duration,
    pub ops: Option<u64>,
}

/// One client's share of one measured phase: its inputs, its clock, and
/// everything it counted.
#[derive(Debug)]
pub struct Phase {
    pub rng: Rng,
    pub tr: Tracer,
    pub fault: Fault,
    deadline_ns: u64,
    max_ops: u64,
    next_op: u64,
    /// Per completed op: when it ended (ns since the phase's epoch) and
    /// how long it took (ns).
    pub latencies: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator to read.
    pub problems: Vec<String>,
    pub txns: u64,
    pub retries: u64,
    pub write_commits: u64,
    /// Bytes of attribute values the client wrote.
    pub user_bytes: u64,
    pub engine: EngineCounters,
    pub exec: ExecTotals,
    pub restart: RestartTotals,
}

impl Phase {
    pub fn new(rng: Rng, trace: bool, epoch: Instant, budget: Budget, fault: Fault) -> Self {
        let tr = Tracer::new(trace, epoch);
        let deadline_ns = tr.now() + budget.time.as_nanos() as u64;
        Phase {
            rng,
            tr,
            fault,
            deadline_ns,
            max_ops: budget.ops.unwrap_or(u64::MAX),
            next_op: 0,
            latencies: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            txns: 0,
            retries: 0,
            write_commits: 0,
            user_bytes: 0,
            engine: EngineCounters::default(),
            exec: ExecTotals::default(),
            restart: RestartTotals::default(),
        }
    }

    /// True until the budget is spent. At least one op always runs.
    pub fn running(&self) -> bool {
        self.attempted == 0 || (self.attempted < self.max_ops && self.tr.now() < self.deadline_ns)
    }

    /// Start an op: returns its id.
    pub fn begin_op(&mut self) -> u64 {
        self.attempted += 1;
        self.next_op += 1;
        self.next_op
    }

    /// The op ran from `start_ns` to `end_ns`.
    pub fn end_op(&mut self, op: u64, start_ns: u64, end_ns: u64) {
        self.latencies.push((end_ns, end_ns - start_ns));
        self.tr.span(op, ROOT, start_ns, end_ns);
    }

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(what());
        }
    }
}

/// A finished phase, all clients merged.
#[derive(Debug)]
pub struct Outcome {
    pub wall: Duration,
    pub phase: Phase,
    pub spans: Vec<Span>,
}

/// Throughput and latency of one time slice of a phase.
#[derive(Debug, Clone, Copy)]
pub struct SliceStats {
    pub throughput_ops_s: f64,
    pub p50_us: f64,
    pub tail_us: f64,
}

impl Outcome {
    pub fn throughput_ops_s(&self) -> f64 {
        self.phase.latencies.len() as f64 / self.wall.as_secs_f64()
    }

    /// Cut the phase into `slices` equal stretches of time, each op in the
    /// stretch it ended in, and give each stretch's throughput, median
    /// latency and latency at quantile `tail`. The run reports the median
    /// stretch: a burst of interference from the host then spoils a few
    /// stretches, not the run.
    pub fn slices(&self, slices: usize, tail: f64) -> Vec<SliceStats> {
        let slice_ns = (self.wall.as_nanos() as u64 / slices as u64).max(1);
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); slices];
        for (end_ns, ns) in &self.phase.latencies {
            buckets[((end_ns / slice_ns) as usize).min(slices - 1)].push(*ns);
        }
        buckets
            .iter_mut()
            .map(|b| {
                b.sort_unstable();
                SliceStats {
                    throughput_ops_s: b.len() as f64 / (slice_ns as f64 / 1e9),
                    p50_us: quantile_sorted(b, 0.5) as f64 / 1e3,
                    tail_us: quantile_sorted(b, tail) as f64 / 1e3,
                }
            })
            .collect()
    }
}

fn merge(mut phases: Vec<Phase>, wall: Duration) -> Outcome {
    let mut all = phases.remove(0);
    let mut spans = std::mem::replace(&mut all.tr, Tracer::new(false, Instant::now())).into_spans();
    for (i, p) in phases.into_iter().enumerate() {
        all.latencies.extend(&p.latencies);
        all.attempted += p.attempted;
        all.failed += p.failed;
        all.problems.extend(p.problems);
        all.txns += p.txns;
        all.retries += p.retries;
        all.write_commits += p.write_commits;
        all.user_bytes += p.user_bytes;
        // Op ids are per client; keep them apart in the merged trace.
        let base = (i as u64 + 1) << 40;
        spans.extend(p.tr.into_spans().into_iter().map(|mut s| {
            s.op += base;
            s
        }));
    }
    Outcome {
        wall,
        phase: all,
        spans,
    }
}

/// `min(nproc, 4)`: clients never outnumber processors.
pub fn mixed_client_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Run `workload` on `bench` for `budget` (per client). `clients` matters
/// to `mixed_clients` only; every other workload has one client.
pub fn run(
    workload: &str,
    bench: Bench,
    rng: &Rng,
    budget: Budget,
    trace: bool,
    fault: Fault,
    clients: usize,
) -> Res<(Bench, Outcome)> {
    let epoch = Instant::now();
    let phase = |i: u64| Phase::new(rng.fork(i), trace, epoch, budget, fault);
    let before = EngineCounters::read(&bench.engine);
    let start = Instant::now();
    let (bench, mut phases) = match workload {
        "point_read" => reads::point_read(bench, phase(0))?,
        "report_read" => reads::report_read(bench, phase(0))?,
        "write_commit" => writes::write_commit(bench, phase(0))?,
        "mixed_clients" => writes::mixed_clients(bench, (0..clients as u64).map(phase).collect())?,
        "restart" => restart::restart(bench, phase(0))?,
        other => return Err(format!("unknown workload {other:?}; one of {:?}", names()).into()),
    };
    let wall = start.elapsed();
    // `restart` replaces the engine every cycle and counts as it goes.
    if workload != "restart" {
        let after = EngineCounters::read(&bench.engine);
        phases[0].engine.add_since(&after, &before);
    }
    Ok((bench, merge(phases, wall)))
}
