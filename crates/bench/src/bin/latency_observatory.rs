//! The **open-loop tail-latency observatory**: coordinated-omission-free
//! latency measurement across backends and offered arrival rates.
//!
//! ```text
//! cargo run -p wfq-bench --release --features op-sample --bin latency_observatory -- \
//!     [--backends wf,wf0,faa,scq] [--rates 250,1000,4000] [--ramp] \
//!     [--schedule fixed|poisson|bursty] [--threads T] [--ops N] \
//!     [--invocations I] [--seed S] [--overload] [--handicap-ns N] \
//!     [--json out.json] [--commit SHA] [--metrics-out out.prom] \
//!     [--quick] [--no-pin]
//! ```
//!
//! Unlike the closed-loop `latency` binary (which issues the next operation
//! only after the previous one returns, silently absorbing stalls — the
//! *coordinated omission* bias), every generator thread here pre-computes
//! its intended-start schedule from the offered rate and charges each
//! operation from its **intended** start, so a stall that delays 100
//! pending arrivals is billed 100 times. Quantiles carry Student-t 95% CIs
//! across invocations, and backends built with `--features op-sample`
//! additionally report per-path attribution (fast / slow / helped).
//!
//! `--rates` takes offered rates in **kops/s**; `--ramp` instead doubles
//! the rate from the first `--rates` entry (default 250) until the backend
//! saturates (generator lag exceeds 10% of the intended span) or 8 steps
//! pass — the throughput–latency frontier. `--overload` switches to the
//! 2:1 enqueue-biased `try_enqueue` mix so bounded backends report drops
//! and unbounded ones report queue growth. `--json` writes the committed
//! `results/BENCH_latency.json` schema; `--metrics-out` writes the
//! `wfq_op_latency_ns` Prometheus summary; `--handicap-ns` spins inside
//! the measured window (the regression-gate trip wire, as in `figure2`).

use wfq_baselines::{CcQueue, FaaBench, KpQueue, Lcrq, MsQueue, MutexQueue, Scq, Wf0};
use wfq_bench::Args;
use wfq_harness::histogram::{fmt_ns, Histogram};
use wfq_harness::{
    measure_open_loop, render_latency_json, render_latency_prometheus, topology, ArrivalSchedule,
    LatencyPoint, LatencySeries, OpenLoopConfig, OpenLoopMeasurement,
};
use wfqueue::RawQueue;

fn base_config(args: &Args) -> OpenLoopConfig {
    let quick = args.flag("quick");
    let mut cfg = OpenLoopConfig {
        threads: args.num("threads", 1) as usize,
        total_ops: args.num("ops", if quick { 4_000 } else { 40_000 }),
        invocations: args.num("invocations", if quick { 2 } else { 5 }) as usize,
        seed: args.num("seed", 0xC0FFEE),
        ..OpenLoopConfig::default()
    };
    cfg.schedule = args
        .get("schedule")
        .map(|s| ArrivalSchedule::parse(s).unwrap_or_else(|| die(&format!("bad --schedule {s}"))))
        .unwrap_or(ArrivalSchedule::FixedRate);
    cfg.pin = !args.flag("no-pin");
    cfg.segment_ceiling = args.get("segment-ceiling").and_then(|s| s.parse().ok());
    cfg.handicap_ns = args.num("handicap-ns", 0);
    cfg.overload = args.flag("overload");
    if cfg.handicap_ns > 0 {
        eprintln!(
            "  handicap = {} ns/op (synthetic slowdown inside the measured latency)",
            cfg.handicap_ns
        );
    }
    cfg
}

fn die(msg: &str) -> ! {
    eprintln!("latency_observatory: {msg}");
    std::process::exit(2);
}

fn rates_kops(args: &Args) -> Vec<f64> {
    match args.get("rates") {
        Some(list) => list
            .split(',')
            .filter_map(|s| s.trim().parse::<f64>().ok())
            .filter(|r| *r > 0.0)
            .collect(),
        None => vec![250.0, 1000.0, 4000.0],
    }
}

fn to_point(m: &OpenLoopMeasurement) -> LatencyPoint {
    let (share_fast, share_slow, share_helped) = m.attribution.shares();
    LatencyPoint {
        rate_kops: m.offered_rate / 1e3,
        achieved_kops: m.achieved_rate / 1e3,
        saturated: m.saturated,
        drops: m.drops,
        max_lag_ns: m.max_lag_ns,
        backlog: m.backlog,
        p50_ns: m.p50.mean_ns,
        p50_ci: m.p50.ci_half_ns,
        p90_ns: m.p90.mean_ns,
        p90_ci: m.p90.ci_half_ns,
        p99_ns: m.p99.mean_ns,
        p99_ci: m.p99.ci_half_ns,
        p999_ns: m.p999.mean_ns,
        p999_ci: m.p999.ci_half_ns,
        max_ns: m.max.mean_ns,
        max_ci: m.max.ci_half_ns,
        share_fast,
        share_slow,
        share_helped,
        sampled: m.attribution.sampled(),
    }
}

fn print_point(name: &str, m: &OpenLoopMeasurement) {
    let sat = if m.saturated { "  SATURATED" } else { "" };
    eprintln!(
        "    {:>8.0} kops/s offered, {:>8.0} achieved: p50 {} p99 {} p99.9 {} max {}{}",
        m.offered_rate / 1e3,
        m.achieved_rate / 1e3,
        fmt_ns(m.p50.mean_ns as u64),
        fmt_ns(m.p99.mean_ns as u64),
        fmt_ns(m.p999.mean_ns as u64),
        fmt_ns(m.max.mean_ns as u64),
        sat,
    );
    if m.attribution.sampled() > 0 {
        let (f, s, h) = m.attribution.shares();
        eprintln!(
            "             paths: fast {:.1}% slow {:.1}% helped {:.2}% ({} sampled)",
            f * 100.0,
            s * 100.0,
            h * 100.0,
            m.attribution.sampled()
        );
    }
    if m.drops > 0 || m.backlog != 0 {
        eprintln!(
            "             overload: {} drops, backlog {:+}",
            m.drops, m.backlog
        );
    }
    let _ = name;
}

/// Measures one backend over the rate list (or the saturation ramp),
/// returning its frontier line and merged histogram.
fn run_backend<Q: wfq_baselines::BenchQueue>(
    args: &Args,
    cfg: &OpenLoopConfig,
    rates: &[f64],
) -> (LatencySeries, Histogram) {
    eprintln!("  measuring {} ...", Q::NAME);
    let mut points = Vec::new();
    let mut merged = Histogram::new();
    if args.flag("ramp") {
        // Frontier sweep: double the offered rate until saturation.
        let mut rate = rates.first().copied().unwrap_or(250.0) * 1e3;
        for _ in 0..8 {
            let mut c = cfg.clone();
            c.rate_ops_per_sec = rate;
            let m = measure_open_loop::<Q>(&c);
            print_point(Q::NAME, &m);
            merged.merge(&m.merged);
            let saturated = m.saturated;
            points.push(to_point(&m));
            if saturated {
                break;
            }
            rate *= 2.0;
        }
    } else {
        for &kops in rates {
            let mut c = cfg.clone();
            c.rate_ops_per_sec = kops * 1e3;
            let m = measure_open_loop::<Q>(&c);
            print_point(Q::NAME, &m);
            merged.merge(&m.merged);
            points.push(to_point(&m));
        }
    }
    (
        LatencySeries {
            name: Q::NAME.to_string(),
            points,
        },
        merged,
    )
}

fn main() {
    let args = Args::parse();
    let cfg = base_config(&args);
    let rates = rates_kops(&args);
    if rates.is_empty() {
        die("--rates needs at least one positive kops value");
    }
    let backends: Vec<String> = args
        .get("backends")
        .unwrap_or("wf,wf0,faa,scq")
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let hw = topology::num_cpus();
    eprintln!(
        "latency_observatory: schedule = {}, threads = {} ({} hardware thread{}), \
         ops/invocation = {}, invocations = {}, {} ",
        cfg.schedule.name(),
        cfg.threads,
        hw,
        if hw == 1 { "" } else { "s" },
        cfg.total_ops,
        cfg.invocations,
        if args.flag("ramp") {
            format!("ramp from {} kops/s", rates[0])
        } else {
            format!("rates = {rates:?} kops/s")
        },
    );
    if cfg.threads > hw {
        eprintln!(
            "  warning: oversubscribed — {} generator threads on {hw} hardware \
             thread{}; latencies include scheduler delay",
            cfg.threads,
            if hw == 1 { "" } else { "s" }
        );
    }
    if !wfqueue::SAMPLING_ENABLED {
        eprintln!(
            "  note: built without --features op-sample; attribution shares will be 0/0/0"
        );
    }

    let mut series: Vec<LatencySeries> = Vec::new();
    let mut histograms: Vec<(String, Histogram)> = Vec::new();
    macro_rules! backend {
        ($name:expr, $q:ty) => {{
            let (s, h) = run_backend::<$q>(&args, &cfg, &rates);
            histograms.push((s.name.clone(), h));
            series.push(s);
            $name
        }};
    }
    for b in &backends {
        let _: &str = match b.as_str() {
            "wf" => backend!("wf", RawQueue),
            "wf0" => backend!("wf0", Wf0),
            "faa" => backend!("faa", FaaBench),
            "ccqueue" => backend!("ccqueue", CcQueue),
            "msqueue" => backend!("msqueue", MsQueue),
            "lcrq" => backend!("lcrq", Lcrq),
            "kpqueue" => backend!("kpqueue", KpQueue),
            "mutex" => backend!("mutex", MutexQueue),
            "scq" => backend!("scq", Scq),
            other => die(&format!(
                "unknown backend {other:?} (wf, wf0, faa, ccqueue, msqueue, lcrq, kpqueue, mutex, scq)"
            )),
        };
    }

    // Human-readable frontier table on stdout.
    println!(
        "| queue | rate (kops/s) | achieved | p50 | p99 | p99.9 | max | fast/slow/helped | state |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for s in &series {
        for p in &s.points {
            let state = if p.saturated {
                "saturated".to_string()
            } else if p.drops > 0 {
                format!("{} drops", p.drops)
            } else {
                "open".to_string()
            };
            println!(
                "| {} | {:.0} | {:.0} | {} | {} | {} | {} | {:.2}/{:.2}/{:.2} | {} |",
                s.name,
                p.rate_kops,
                p.achieved_kops,
                fmt_ns(p.p50_ns as u64),
                fmt_ns(p.p99_ns as u64),
                fmt_ns(p.p999_ns as u64),
                fmt_ns(p.max_ns as u64),
                p.share_fast,
                p.share_slow,
                p.share_helped,
                state,
            );
        }
    }

    if let Some(path) = args.get("json") {
        let doc = render_latency_json(
            cfg.schedule.name(),
            cfg.threads,
            args.get("commit"),
            &series,
        );
        std::fs::write(path, doc).expect("write json");
        eprintln!("json written to {path}");
    }
    if let Some(path) = args.get("metrics-out") {
        let pairs: Vec<(&str, &Histogram)> = histograms
            .iter()
            .map(|(n, h)| (n.as_str(), h))
            .collect();
        std::fs::write(path, render_latency_prometheus(&pairs)).expect("write metrics");
        eprintln!("prometheus summary written to {path}");
    }
}
