//! `mmdb-e2e`: the repo's end-to-end benchmark (see `../README.md`).
//!
//! ```text
//! mmdb-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rows <n>]
//! mmdb-e2e --self-test
//! mmdb-e2e --compare <base.json> <new.json>
//! ```
//!
//! One run = one workload in one process: build the dataset (several
//! times, for a steady `setup_s`), warm up, measure for `--seconds`, check
//! the whole database against the model, print the metrics, and end with
//! the one-line JSON result. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` spends the time on a traced run plus the layer ladders and
//! probes, and prints the per-layer metrics.

mod compare;
mod dataset;
mod json;
mod layers;
mod stats;
mod store;
mod trace;
mod workloads;

use dataset::{Bench, Res, Rng};
use stats::{median_f64, peak_rss_mb, result_line, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::SelfTimes;
use workloads::{Budget, Fault, Outcome, SliceStats};

/// Dataset builds per run; `setup_s` is their median.
const SETUPS: usize = 9;
const DEFAULT_ROWS: usize = 200_000;
/// Share of `--seconds` spent warming up before anything is measured.
const WARM_UP: f64 = 0.05;
/// A traced run measures three phases (an untraced reference, the traced
/// one, and for `mixed_clients` one client alone), each of a fixed op count:
/// about what a fifth of `--seconds` holds at the workload's nominal rate, so
/// that equal seeds repeat the same ops and the counts come out equal. The
/// clock only caps a phase, at this share of `--seconds`.
const TRACED_PHASE: f64 = 0.2;
const TRACED_PHASE_CAP: f64 = 0.6;

/// Every per-layer metric, so that each traced run reports all of them:
/// one a workload never exercises reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("engine.begin_ns", "ns"),
    ("engine.read_call_us", "us"),
    ("engine.write_buffer_ns", "ns"),
    ("engine.commit_us", "us"),
    ("engine.session_overhead_us", "us"),
    ("engine.commit_residual_us", "us"),
    ("engine.group_batch_mean", "count"),
    ("engine.scaling_ratio", "ratio"),
    ("engine.retries_per_op", "ratio"),
    ("lock.requests_per_txn", "count"),
    ("lock.acquire_shared_us", "us"),
    ("lock.table_s_lock_us", "us"),
    ("lock.x_lock_us", "us"),
    ("index.select_eq_ns", "ns"),
    ("index.select_range_ns_per_row", "ns"),
    ("index.maintain_us", "us"),
    ("index.rebuild_ms", "ms"),
    ("index.rebuild_ns_per_entry", "ns"),
    ("exec.plan_us", "us"),
    ("exec.scan_self_us", "us"),
    ("exec.join_self_us", "us"),
    ("exec.project_self_us", "us"),
    ("exec.rows_in_per_row_out", "ratio"),
    ("exec.comparisons_per_row_out", "ratio"),
    ("exec.dop", "count"),
    ("storage.fetch_ns", "ns"),
    ("storage.materialise_ns_per_row", "ns"),
    ("storage.partition_image_us", "us"),
    ("storage.partition_decode_us", "us"),
    ("recovery.log_append_us", "us"),
    ("recovery.device_cycle_us", "us"),
    ("recovery.disk_writes_per_commit", "count"),
    ("recovery.disk_bytes_per_commit", "bytes"),
    ("recovery.disk_bytes_per_user_byte", "ratio"),
    ("recovery.disk_write_us_per_commit", "us"),
    ("recovery.records_pulled_per_commit", "count"),
    ("recovery.images_flushed_per_commit", "count"),
    ("recovery.disk_reads_per_restart", "count"),
    ("recovery.catalog_us", "us"),
    ("recovery.working_set_ms", "ms"),
    ("recovery.background_ms", "ms"),
    ("recovery.checkpoint_ms", "ms"),
    ("recovery.checkpoint_images_written", "count"),
    ("trace.coverage_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rows: usize,
}

fn usage() -> String {
    format!(
        "usage: mmdb-e2e --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--rows <n>]\n       \
         mmdb-e2e --self-test\n       \
         mmdb-e2e --compare <base.json> <new.json>",
        workloads::names().join("|")
    )
}

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rows: DEFAULT_ROWS,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse()?,
            "--seconds" => args.seconds = value()?.parse()?,
            "--trace" => args.trace = value()?.parse::<u8>()? != 0,
            "--rows" => args.rows = value()?.parse()?,
            other => return Err(format!("unknown argument {other:?}\n{}", usage()).into()),
        }
    }
    if !workloads::names().contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}\n{}",
            workloads::names(),
            usage()
        )
        .into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) || args.rows < 1000 {
        return Err("--seconds must be in (0, 600] and --rows at least 1000".into());
    }
    Ok(args)
}

/// The result of one run, before printing.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Facts that qualify the metrics: sample counts, the tail percentile,
    /// client count, the leading layers.
    notes: Vec<String>,
}

fn secs(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds)
}

fn run_workload(args: &Args, fault: Fault) -> Res<RunResult> {
    let w = args.workload.as_str();
    let spec = workloads::SPECS
        .iter()
        .find(|s| s.name == w)
        .ok_or_else(|| format!("unknown workload {w:?}"))?;
    let clients = if w == "mixed_clients" {
        workloads::mixed_client_count()
    } else {
        1
    };
    let mut notes = vec![format!(
        "workload {w}  seed {}  rows {}  clients {clients}  nproc {}  closed loop",
        args.seed,
        args.rows,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )];

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bench: Option<Bench> = None;
    for _ in 0..SETUPS {
        // The previous build goes first: two datasets at once would double
        // the peak memory the run reports.
        drop(bench.take());
        let t = Instant::now();
        bench = Some(dataset::setup(args.seed, args.rows)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.ok_or("no dataset was built")?;
    // The ops draw from a stream of their own, apart from the dataset's.
    let rng = Rng::new(args.seed ^ 0x0B5E_55ED_0B5E_55ED);
    // Untraced runs are bounded by the clock, traced runs by op count.
    let budget = |share: f64| {
        if args.trace {
            Budget {
                time: secs(args.seconds * TRACED_PHASE_CAP),
                ops: Some((spec.nominal_rate * args.seconds * share).ceil() as u64),
            }
        } else {
            Budget {
                time: secs(args.seconds * share),
                ops: None,
            }
        }
    };
    let go = |bench: Bench, stream: u64, share: f64, trace: bool, clients: usize| {
        workloads::run(
            w,
            bench,
            &rng.fork(stream),
            budget(share),
            trace,
            fault,
            clients,
        )
    };

    let (warm_up, measured, traced, alone);
    (bench, warm_up) = go(bench, 0, WARM_UP, false, clients)?;
    let mut metrics = Metrics::new();
    if args.trace {
        (bench, measured) = go(bench, 1, TRACED_PHASE, false, clients)?;
        bench.store.time_writes(true);
        let disk_before = bench.store.snapshot();
        let t;
        (bench, t) = go(bench, 2, TRACED_PHASE, true, clients)?;
        let disk = bench.store.snapshot().since(&disk_before);
        bench.store.time_writes(false);
        traced = Some((t, disk));
        if clients > 1 {
            let a;
            (bench, a) = go(bench, 3, TRACED_PHASE, false, 1)?;
            alone = Some(a);
        } else {
            alone = None;
        }
    } else {
        (bench, measured) = go(bench, 1, 1.0, false, clients)?;
        (traced, alone) = (None, None);
    }
    let rss = peak_rss_mb();

    let phases = [
        Some(&warm_up),
        Some(&measured),
        traced.as_ref().map(|t| &t.0),
        alone.as_ref(),
    ];
    let ran = || phases.iter().flatten().map(|o| &o.phase);
    // The whole database against the whole model: one more op.
    let attempted = ran().map(|p| p.attempted).sum::<u64>() + 1;
    let mut failed: u64 = ran().map(|p| p.failed).sum();
    let mut problems: Vec<String> = ran().flat_map(|p| p.problems.iter().cloned()).collect();
    let mismatches = dataset::verify_all(&bench.engine, &bench.model)?;
    if !mismatches.is_empty() {
        failed += 1;
        problems.extend(mismatches);
    }
    for p in problems.iter().take(10) {
        eprintln!("FAILED: {p}");
    }

    if let Some((traced, disk)) = &traced {
        let times = SelfTimes::analyse(&traced.spans);
        layer_metrics(
            &mut metrics,
            &times,
            traced,
            disk,
            &measured,
            alone.as_ref(),
        );
        layers::battery(&bench, &mut rng.fork(4), &mut metrics)?;
        let path = PathBuf::from(format!(
            concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-{}-{}.jsonl"),
            w, args.seed
        ));
        times.write_jsonl(&traced.spans, &path)?;
        let shares: Vec<String> = times
            .layer_shares()
            .iter()
            .map(|(l, s)| format!("{l} {:.1}%", s * 100.0))
            .collect();
        notes.push(format!(
            "traced {} ops ({} spans -> {}); self time by layer: {}",
            traced.phase.latencies.len(),
            traced.spans.len(),
            path.display(),
            shares.join(", ")
        ));
    } else {
        let (slices, q) = (spec.stretches, spec.tail);
        let per_slice = measured.slices(slices, q);
        let median_of = |f: fn(&SliceStats) -> f64| {
            median_f64(&mut per_slice.iter().map(f).collect::<Vec<_>>())
        };
        metrics.insert("setup_s", (median_f64(&mut setup_s), "s"));
        metrics.insert(
            "throughput_ops_s",
            (median_of(|s| s.throughput_ops_s), "1/s"),
        );
        metrics.insert("latency_p50_us", (median_of(|s| s.p50_us), "us"));
        metrics.insert("latency_tail_us", (median_of(|s| s.tail_us), "us"));
        metrics.insert("peak_rss_mb", (rss, "MiB"));
        metrics.insert(
            "image_bytes_per_user_byte",
            (
                dataset::image_bytes_per_user_byte(&bench.engine, &bench.model)?,
                "ratio",
            ),
        );
        notes.push(format!(
            "latency_p50_us by stretch: {}",
            per_slice
                .iter()
                .map(|s| format!("{:.1}", s.p50_us))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        let samples = measured.phase.latencies.len();
        notes.push(format!(
            "samples {samples} in {slices} stretches of {:.3} s; each metric is the median stretch  \
             tail_percentile p{}  samples beyond it per stretch {:.0}  setups {SETUPS}",
            measured.wall.as_secs_f64() / slices as f64,
            q * 100.0,
            (1.0 - q) * samples as f64 / slices as f64
        ));
    }
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Per-layer metrics that come from the traced phase itself: span means,
/// the counters public calls return, and the counting store.
fn layer_metrics(
    m: &mut Metrics,
    times: &SelfTimes,
    traced: &Outcome,
    disk: &store::StoreSnapshot,
    untraced: &Outcome,
    alone: Option<&Outcome>,
) {
    for (name, unit) in PER_LAYER {
        m.insert(name, (0.0, unit));
    }
    let ph = &traced.phase;
    let per = |total: u64, n: u64| if n == 0 { 0.0 } else { total as f64 / n as f64 };
    let ops = ph.latencies.len() as u64;
    let mut set = |name: &'static str, v: f64| {
        if let Some(e) = m.get_mut(name) {
            e.0 = v;
        }
    };
    set("engine.begin_ns", times.mean_ns("engine.begin"));
    set(
        "engine.read_call_us",
        times.mean_ns("engine.read_call") / 1e3,
    );
    set(
        "engine.write_buffer_ns",
        times.mean_ns("engine.write_buffer"),
    );
    set("engine.commit_us", times.mean_ns("engine.commit") / 1e3);
    set(
        "engine.group_batch_mean",
        per(ph.engine.group_commits, ph.engine.group_batches),
    );
    set("engine.retries_per_op", per(ph.retries, ops));
    if let Some(alone) = alone {
        set(
            "engine.scaling_ratio",
            untraced.throughput_ops_s() / alone.throughput_ops_s(),
        );
    }
    set(
        "lock.requests_per_txn",
        per(ph.engine.lock_requests, ph.txns),
    );
    set(
        "lock.acquire_shared_us",
        times.mean_ns("lock.acquire_shared") / 1e3,
    );

    let e = &ph.exec;
    set("exec.plan_us", per(e.plan_ns, ops) / 1e3);
    set("exec.scan_self_us", per(e.scan_ns, ops) / 1e3);
    set("exec.join_self_us", per(e.join_ns, ops) / 1e3);
    set("exec.project_self_us", per(e.project_ns, ops) / 1e3);
    set("exec.rows_in_per_row_out", per(e.rows_in, e.rows_out));
    set(
        "exec.comparisons_per_row_out",
        per(e.comparisons, e.rows_out),
    );
    set("exec.dop", mmdb_exec::ExecConfig::default().dop as f64);
    set(
        "storage.materialise_ns_per_row",
        per(e.materialise_ns, e.rows_materialised),
    );

    let commits = ph.write_commits;
    set("recovery.disk_writes_per_commit", per(disk.writes, commits));
    set(
        "recovery.disk_bytes_per_commit",
        per(disk.write_bytes, commits),
    );
    set(
        "recovery.disk_bytes_per_user_byte",
        per(disk.write_bytes, ph.user_bytes),
    );
    set(
        "recovery.disk_write_us_per_commit",
        per(disk.write_ns, commits) / 1e3,
    );
    set(
        "recovery.records_pulled_per_commit",
        per(ph.engine.records_pulled, commits),
    );
    set(
        "recovery.images_flushed_per_commit",
        per(ph.engine.images_flushed, commits),
    );

    let r = &ph.restart;
    set(
        "recovery.disk_reads_per_restart",
        per(r.disk_reads, r.restarts),
    );
    set("recovery.catalog_us", per(r.catalog_ns, r.restarts) / 1e3);
    set(
        "recovery.working_set_ms",
        per(r.working_set_ns, r.restarts) / 1e6,
    );
    set(
        "recovery.background_ms",
        per(r.background_ns, r.restarts) / 1e6,
    );
    set(
        "recovery.checkpoint_ms",
        per(r.checkpoint_ns, r.restarts) / 1e6,
    );
    set(
        "recovery.checkpoint_images_written",
        per(r.checkpoint_images, r.restarts),
    );
    set(
        "index.rebuild_ms",
        per(r.index_rebuild_ns, r.restarts) / 1e6,
    );
    set(
        "index.rebuild_ns_per_entry",
        per(r.index_task_ns, r.index_entries),
    );

    set("trace.coverage_share", times.coverage_share());
    set(
        "trace.overhead_share",
        1.0 - traced.throughput_ops_s() / untraced.throughput_ops_s(),
    );
}

fn print_run(r: &RunResult) {
    for n in &r.notes {
        println!("# {n}");
    }
    for (name, (value, unit)) in &r.metrics {
        println!("{name} {unit} {value}");
    }
    println!(
        "{}",
        result_line(r.failed == 0, r.attempted, r.failed, &r.metrics)
    );
}

/// Prove the gate can fail: a clean small run passes, a run whose model
/// expects a value the database never held fails, and a run in which an
/// acknowledged write never reached the database fails.
fn self_test() -> Res<bool> {
    let mut all_as_designed = true;
    for (workload, fault, must_fail) in [
        ("point_read", Fault::None, false),
        ("point_read", Fault::Expectation, true),
        ("restart", Fault::None, false),
        ("restart", Fault::LostWrite, true),
    ] {
        let args = Args {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.5,
            trace: false,
            rows: 4000,
        };
        let r = run_workload(&args, fault)?;
        let as_designed = (r.failed > 0) == must_fail;
        println!(
            "self-test {workload} {fault:?}: {} of {} ops failed, {}",
            r.failed,
            r.attempted,
            if as_designed {
                "as designed"
            } else {
                "NOT as designed"
            }
        );
        all_as_designed &= as_designed;
    }
    Ok(all_as_designed)
}

fn real_main() -> Res<ExitCode> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--self-test") => Ok(if self_test()? {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }),
        Some("--compare") => compare::main(&argv[1..]),
        _ => {
            let args = parse_args(&argv)?;
            print_run(&run_workload(&args, Fault::None)?);
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("mmdb-e2e: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    /// `BENCHMARK.json` and the binary must name the same metrics, with the
    /// same units, and the same workloads.
    #[test]
    fn benchmark_json_names_what_the_binary_prints() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let spec = Json::parse(&text).unwrap();
        let pairs = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    )
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("per_layer"), own(&PER_LAYER));
        assert_eq!(
            pairs("end_to_end"),
            own(&[
                ("setup_s", "s"),
                ("throughput_ops_s", "1/s"),
                ("latency_p50_us", "us"),
                ("latency_tail_us", "us"),
                ("peak_rss_mb", "MiB"),
                ("image_bytes_per_user_byte", "ratio"),
            ])
        );
        let workloads: Vec<String> = pairs("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, workloads::names());
    }
}
