//! Regenerates the paper's **Table 2**: breakdown of execution paths for
//! the WF-0 configuration on the 50%-enqueues benchmark, including
//! oversubscribed thread counts (the paper's 144/288-thread columns).
//!
//! ```text
//! cargo run -p wfq-bench --release --bin table2 -- [--ops N] [--patience P] \
//!     [--backend wf|scq] [--segment-ceiling S] [--batch K] \
//!     [--metrics-out metrics.prom] [--trace out.trace.json]
//! ```
//!
//! `--metrics-out` writes the highest-thread-count run's statistics in the
//! Prometheus text exposition format; `--trace` drains the flight recorders
//! into a Chrome trace file (build with `--features trace` for events).
//! `--batch K` swaps the workload for batched pairs of width `K` so the
//! breakdown (and the stats' `batch` line) shows how many elements the
//! one-FAA batch fast path absorbed versus straggler fallbacks.
//! `--backend scq` runs the same sweep on the bounded-ring backend through
//! the `QueueBackend` trait (its `stats()` fill the same taxonomy;
//! `--patience` only applies to the default `wf` backend).

use wfq_baselines::{BenchQueue, Scq};
use wfq_bench::Args;
use wfq_harness::breakdown::{render_table2, run_breakdown, run_breakdown_on, Breakdown};
use wfq_harness::topology;
use wfq_harness::{BenchConfig, Workload};

fn main() {
    let args = Args::parse();
    let hw = topology::num_cpus();
    let patience = args.num("patience", 0) as u32;
    let backend = args.get("backend").unwrap_or("wf").to_string();
    let workload = match args.get("batch").and_then(|s| s.parse::<u32>().ok()) {
        Some(k) => Workload::BatchPairs(k.max(1)),
        None => Workload::FiftyEnqueues,
    };
    // The paper uses 36 / 72 / 144 / 288 on a 72-hardware-thread machine:
    // half, full, 2× and 4× oversubscription. Reproduce those ratios.
    let mut counts: Vec<usize> = vec![(hw / 2).max(1), hw, hw * 2, hw * 4];
    counts.dedup();

    let mut rows = Vec::new();
    for &threads in &counts {
        let cfg = BenchConfig {
            threads,
            total_ops: args.num("ops", 400_000),
            workload,
            pin: !args.flag("no-pin"),
            segment_ceiling: args.get("segment-ceiling").and_then(|s| s.parse().ok()),
            ..BenchConfig::default()
        };
        let row: Breakdown = match backend.as_str() {
            "wf" => {
                eprintln!("table2: running WF-{patience} with {threads} threads ...");
                run_breakdown(patience, &cfg)
            }
            "scq" => {
                eprintln!("table2: running {} with {threads} threads ...", Scq::NAME);
                run_breakdown_on::<Scq>(&cfg)
            }
            other => panic!("unknown --backend {other:?} (expected wf or scq)"),
        };
        rows.push(row);
    }

    let title = match backend.as_str() {
        "wf" => format!("WF-{patience}"),
        _ => Scq::NAME.to_string(),
    };
    println!(
        "Table 2: breakdown of execution paths of {title} \
         ({} benchmark, {hw} hardware thread{}; counts beyond {hw} are oversubscribed)\n",
        workload.name(),
        if hw == 1 { "" } else { "s" },
    );
    println!("{}", render_table2(&rows));
    // The full per-run path breakdown, in QueueStats' own Table-2 layout
    // (shared with examples/telemetry.rs — no ad-hoc stat printing here).
    for r in &rows {
        eprintln!("-- {} threads --\n{}\n", r.threads, r.stats);
    }

    if let Some(path) = args.get("metrics-out") {
        let last = rows.last().expect("at least one run");
        wfq_harness::write_metrics(std::path::Path::new(path), &last.stats, None)
            .expect("write metrics");
        eprintln!(
            "metrics for the {}-thread run written to {path}",
            last.threads
        );
    }
    if let Some(path) = args.get("trace") {
        let events = wfq_harness::dump_chrome_trace(std::path::Path::new(path))
            .expect("write chrome trace");
        eprintln!(
            "chrome trace written to {path} ({events} events{})",
            if wfq_obs::ENABLED {
                ""
            } else {
                "; rebuild with --features trace to record events"
            }
        );
    }
}
