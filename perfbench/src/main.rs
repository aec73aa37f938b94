//! `perfbench`: the repository benchmark. One command runs one seeded
//! workload through the public API, checks the outputs, and prints every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`) as the last line of standard output.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve|scale_churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads, metrics and bounds are described in `BENCHMARK.json` and
//! `perfbench/README.md`. Traced runs also write their spans to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`.

mod churn;
mod common;
mod serve;

use common::Report;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("place_p50_ms", "ms"),
    ("place_p90_ms", "ms"),
    ("place_ok_frac", "ratio"),
    ("round_p50_ms", "ms"),
    ("containers_per_s", "1/s"),
    ("lra_placed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1` (0
/// where the layer does not run on that workload).
const PER_LAYER: &[(&str, &str)] = &[
    ("server.ack_p50_us", "us"),
    ("server.ack_p90_us", "us"),
    ("server.codec_us", "us"),
    ("server.batch_size_mean", "count"),
    ("server.shed_frac", "ratio"),
    ("server.queries_per_place", "count"),
    ("server.queue_to_placed_p50_ms", "ms"),
    ("core.propose_ms", "ms"),
    ("core.commit_ms", "ms"),
    ("core.solve_sum_ms", "ms"),
    ("core.shard_solve_max_ms", "ms"),
    ("core.propose_overhead_ms", "ms"),
    ("core.conflict_frac", "ratio"),
    ("core.heuristic_fallback_total", "count"),
    ("heuristics.nc_place_ms", "ms"),
    ("constraints.checks_per_container", "count"),
    ("constraints.check_ns", "ns"),
    ("constraints.violation_frac", "ratio"),
    ("ilp.solve_p50_ms", "ms"),
    ("ilp.solve_max_ms", "ms"),
    ("ilp.solve_sum_ms", "ms"),
    ("ilp.solve_share", "ratio"),
    ("ilp.time_limit_overruns", "count"),
    ("solver.pivots_per_solve", "count"),
    ("solver.bnb_nodes_per_solve", "count"),
    ("solver.warm_start_hits_per_solve", "count"),
    ("solver.deadline_hits_total", "count"),
    ("solver.node_limit_hits_total", "count"),
    ("cluster.snapshot_ms", "ms"),
    ("cluster.index_update_ops_per_container", "count"),
    ("journal.bytes_per_container", "B"),
    ("journal.appends_per_round", "count"),
    ("journal.checkpoint_ms", "ms"),
    ("journal.restore_ms", "ms"),
    ("journal.failover_ms", "ms"),
    ("recovery.node_lost_us", "us"),
    ("recovery.rounds_to_replace", "count"),
    ("recovery.recovery_ms", "ms"),
    ("lifecycle.rounds_to_steady", "count"),
    ("lifecycle.budget_denials", "count"),
    ("bench.gen_late_p50_ms", "ms"),
    ("bench.gen_late_max_ms", "ms"),
    ("bench.poll_interval_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.host_probe_ms", "ms"),
    ("bench.accounting_gap_max_frac", "ratio"),
    ("bench.rounds", "count"),
];

/// Wall-clock limit of one run. A call into the scheduler that does not
/// return (the ILP placement is not bounded by `IlpConfig::time_limit`,
/// and a slow round lets arrivals pile into an ever larger batch) fails
/// the run here instead of hanging it.
const RUN_LIMIT: std::time::Duration = std::time::Duration::from_secs(170);

fn watchdog(names: &'static [(&'static str, &'static str)]) {
    std::thread::spawn(move || {
        std::thread::sleep(RUN_LIMIT);
        let mut report = Report {
            failed: 1,
            ..Report::default()
        };
        report.failures.push(format!(
            "run exceeded {}s: a scheduler call stalled (or --seconds is too long)",
            RUN_LIMIT.as_secs()
        ));
        println!("# FAILED CHECK: {}", report.failures[0]);
        println!("{}", report.result_json(names));
        std::process::exit(1);
    });
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    watchdog(names);
    let mut report = Report::default();
    match args.workload.as_str() {
        "serve" => serve::run(args.seed, args.seconds, args.trace, &mut report),
        "scale_churn" => churn::run(args.seed, args.seconds, args.trace, &mut report),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (serve, scale_churn)");
            std::process::exit(2);
        }
    }
    println!(
        "# provenance {}",
        common::provenance(&args.workload, args.seed, args.seconds, args.trace)
    );
    for f in &report.failures {
        println!("# FAILED CHECK: {f}");
    }
    for (name, unit) in names {
        let v = report.metrics.get(*name).map_or(0.0, |m| m.0);
        println!("# {name:<40} {v:>14.4} {unit}");
    }
    println!("{}", report.result_json(names));
    if !report.correct() {
        std::process::exit(1);
    }
}
