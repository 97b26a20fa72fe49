//! Regenerates the paper's **Figure 2**: throughput of WF-10, WF-0, F&A,
//! CCQUEUE, MSQUEUE, LCRQ (plus a MUTEX reference) as a function of thread
//! count, for both workloads.
//!
//! ```text
//! cargo run -p wfq-bench --release --bin figure2 -- \
//!     [--workload pairs|fifty|both] [--threads 1,2,4,8] [--ops N] \
//!     [--handicap-ns N] [--commit SHA] \
//!     [--full] [--quick] [--csv out.csv] [--json out.json]
//! ```
//!
//! `--full` uses the paper's exact parameters (10^7 ops, 20 iterations,
//! 10 invocations); the default is scaled down to finish in minutes on a
//! small host. `--quick` shrinks further for smoke tests.
//!
//! `--json` writes the machine-readable result document (the committed
//! `results/BENCH_pairwise.json` snapshot format); `--commit SHA` stamps
//! the snapshot with the commit it measured (what `wfq-regress` expects of
//! baselines); with `--workload both` the workload name is appended before
//! the extension. `--handicap-ns N` injects a synthetic, *non-excluded*
//! per-operation slowdown — only useful for demonstrating that the
//! regression gate trips (see `.github/workflows/ci.yml`, job `regress`).

use std::fmt::Write as _;

use wfq_baselines::{CcQueue, FaaBench, KpQueue, Lcrq, MsQueue, MutexQueue, Scq, Wf0};
use wfq_bench::{default_ops, default_thread_sweep, Args};
use wfq_harness::{
    render_csv, render_markdown, report::render_json_with_commit, run_series, BenchConfig, Series,
    Workload,
};
use wfqueue::RawQueue;

/// `path` with `.{label}` inserted before the extension (`a/b.json`,
/// `pairs` → `a/b.pairs.json`); used when one invocation emits one JSON
/// file per workload.
fn suffixed(path: &str, label: &str) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}.{label}.{ext}"),
        None => format!("{path}.{label}"),
    }
}

fn sweep(args: &Args) -> Vec<usize> {
    match args.get("threads") {
        Some(list) => list
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect(),
        None => default_thread_sweep(),
    }
}

fn config(args: &Args, workload: Workload) -> BenchConfig {
    let full = args.flag("full");
    let quick = args.flag("quick");
    let mut cfg = if full {
        BenchConfig::paper(workload)
    } else if quick {
        BenchConfig::quick(workload)
    } else {
        BenchConfig {
            workload,
            total_ops: default_ops(false),
            max_iterations: 10,
            invocations: 5,
            ..BenchConfig::default()
        }
    };
    cfg.total_ops = args.num("ops", cfg.total_ops);
    cfg.invocations = args.num("invocations", cfg.invocations as u64) as usize;
    cfg.pin = !args.flag("no-pin");
    cfg.handicap_ns = args.num("handicap-ns", 0);
    if cfg.handicap_ns > 0 {
        eprintln!(
            "  handicap = {} ns/op (synthetic slowdown, NOT work-excluded)",
            cfg.handicap_ns
        );
    }
    cfg
}

fn run_workload(args: &Args, workload: Workload, threads: &[usize]) -> Vec<Series> {
    let cfg = config(args, workload);
    eprintln!(
        "figure2: workload = {}, threads = {threads:?}, ops/iter = {}, invocations = {}",
        workload.name(),
        cfg.total_ops,
        cfg.invocations
    );
    let mut all = Vec::new();
    macro_rules! series {
        ($q:ty) => {{
            eprintln!("  measuring {} ...", <$q as wfq_baselines::BenchQueue>::NAME);
            all.push(run_series::<$q>(threads, &cfg));
        }};
    }
    series!(RawQueue); // WF-10
    series!(Wf0);
    series!(FaaBench);
    series!(CcQueue);
    series!(MsQueue);
    series!(Lcrq);
    series!(KpQueue);
    series!(MutexQueue);
    // The bounded ring: SCQ's indirect ring, far below capacity on these
    // workloads.
    series!(Scq);
    all
}

fn main() {
    let args = Args::parse();
    let threads = sweep(&args);
    let which = args.get("workload").unwrap_or("both").to_string();

    let mut md = String::new();
    let mut csv = String::new();
    let mut json_out: Vec<(&str, Vec<Series>)> = Vec::new();
    if which == "pairs" || which == "both" {
        let series = run_workload(&args, Workload::Pairs, &threads);
        md.push_str(&render_markdown(
            &series,
            "Figure 2 (top): enqueue-dequeue pairs",
        ));
        md.push('\n');
        let _ = write!(csv, "# workload=pairs\n{}", render_csv(&series));
        json_out.push(("pairwise", series));
    }
    if which == "fifty" || which == "both" {
        let series = run_workload(&args, Workload::FiftyEnqueues, &threads);
        md.push_str(&render_markdown(&series, "Figure 2 (bottom): 50%-enqueues"));
        md.push('\n');
        let _ = write!(csv, "# workload=fifty\n{}", render_csv(&series));
        json_out.push(("fifty_enqueues", series));
    }

    println!("{md}");
    if let Some(path) = args.get("csv") {
        std::fs::write(path, csv).expect("write csv");
        eprintln!("csv written to {path}");
    }
    if let Some(path) = args.get("json") {
        let commit = args.get("commit");
        for (label, series) in &json_out {
            let path = if json_out.len() > 1 {
                suffixed(path, label)
            } else {
                path.to_string()
            };
            std::fs::write(&path, render_json_with_commit("figure2", label, commit, series))
                .expect("write json");
            eprintln!("json written to {path}");
        }
    }
}
