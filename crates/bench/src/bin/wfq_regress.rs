//! `wfq-regress` — the statistical performance-regression gate.
//!
//! Compares two benchmark snapshot JSONs (the normalized documents that
//! `figure2 --json` and `latency_observatory --json` write, committed
//! under `results/`) point by point, using the harness's
//! Student-t 95% CI machinery (Georges et al. §5.1). Each document's
//! `benchmark` field names its kind, and the kind fixes what is gated:
//!
//! - `figure2`: mean Mops/s per `queue @threads`, higher is better,
//!   default threshold 5%;
//! - `latency_observatory`: p99 ns per `queue @rate`, lower is better,
//!   default threshold 10%.
//!
//! A point regresses when the candidate is worse by more than
//! `--threshold` percent **and** the two confidence intervals do not
//! overlap — wide CIs (noisy hosts, quick runs) cannot trip the gate, and
//! significant-but-tiny wobbles cannot either. A latency point that
//! saturates in the candidate but not in the baseline regresses
//! unconditionally. A baseline and a candidate of different kinds are a
//! usage error.
//!
//! ```text
//! # gate: exit 0 on pass, 1 on regression, 2 on usage/parse error
//! wfq-regress --baseline results/BENCH_pairwise.json \
//!             --candidate /tmp/head.json [--threshold PCT]
//!
//! # record: append a normalized one-line snapshot to the perf trajectory
//! wfq-regress --record /tmp/head.json [--out results/trajectory.jsonl] \
//!             [--commit SHA]
//! ```
//!
//! `--record` normalizes the snapshot (stable key order, fixed-precision
//! numbers, one line) and appends it to `results/trajectory.jsonl`, so the
//! repository accumulates a `git diff`-able perf history; `--commit`
//! overrides/sets the snapshot's commit field at record time. See
//! EXPERIMENTS.md ("Regression gate") for how to bless an intentional
//! perf change.

use std::process::ExitCode;

use wfq_bench::Args;
use wfq_harness::regress::{compare, parse_snapshot, shared_metric, Polarity, Snapshot};

fn die(msg: &str) -> ExitCode {
    eprintln!("wfq-regress: {msg}");
    eprintln!(
        "usage: wfq-regress --baseline BASE.json --candidate CAND.json [--threshold PCT]\n\
                wfq-regress --record SNAP.json [--out results/trajectory.jsonl] [--commit SHA]"
    );
    ExitCode::from(2)
}

/// Parses `--threshold`, defaulting only when the flag is *absent* — a
/// present-but-garbled value is a usage error (exit 2), never a silent
/// fall-back to the default that would gate at the wrong sensitivity.
fn threshold_or(args: &Args, default: f64) -> Result<f64, String> {
    match args.get("threshold") {
        None => Ok(default),
        Some(t) => match t.parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
            _ => Err(format!(
                "--threshold must be a non-negative percentage, got {t:?}"
            )),
        },
    }
}

fn load(path: &str) -> Result<Snapshot, String> {
    let doc =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_snapshot(&doc).map_err(|e| format!("{path}: {e}"))
}

fn append_line(out: &str, line: &str) -> Result<(), String> {
    let mut body = std::fs::read_to_string(out).unwrap_or_default();
    if !body.is_empty() && !body.ends_with('\n') {
        body.push('\n');
    }
    body.push_str(line);
    body.push('\n');
    std::fs::write(out, body).map_err(|e| format!("cannot write {out}: {e}"))
}

fn record(args: &Args, path: &str) -> Result<ExitCode, String> {
    let mut snap = load(path)?;
    if let Some(c) = args.get("commit") {
        snap.commit = Some(c.to_string());
    }
    let out = args.get("out").unwrap_or("results/trajectory.jsonl");
    append_line(out, &snap.trajectory_line())?;
    eprintln!(
        "wfq-regress: recorded {} / {} ({} points) to {out}",
        snap.kind.metric().benchmark,
        snap.config(),
        snap.rows().len()
    );
    Ok(ExitCode::SUCCESS)
}

fn gate(args: &Args) -> Result<ExitCode, String> {
    let (Some(base_path), Some(cand_path)) = (args.get("baseline"), args.get("candidate"))
    else {
        return Err("need --baseline and --candidate (or --record)".into());
    };
    let (base, cand) = (load(base_path)?, load(cand_path)?);
    let metric = shared_metric(&base, &cand)?;
    let threshold = threshold_or(args, metric.default_threshold)?;
    if base.config() != cand.config() {
        eprintln!(
            "wfq-regress: warning: comparing different configurations ({} vs {})",
            base.config(),
            cand.config()
        );
    }

    let cmp = compare(&base.rows(), &cand.rows(), metric.polarity, threshold);
    println!(
        "wfq-regress: {} / {} {} — baseline {} vs candidate {} (threshold {threshold}%)",
        metric.benchmark,
        base.config(),
        metric.name,
        base.commit.as_deref().unwrap_or("?"),
        cand.commit.as_deref().unwrap_or("?"),
    );
    print!("{}", cmp.render());
    if cmp.deltas.is_empty() {
        return Err("no overlapping points between the snapshots — nothing was gated".into());
    }
    let regressions = cmp.regressions();
    if regressions.is_empty() {
        println!(
            "PASS: no significant {} regression past {threshold}% across {} points",
            metric.name,
            cmp.deltas.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        let worse = match metric.polarity {
            Polarity::HigherIsBetter => "drop",
            Polarity::LowerIsBetter => "growth",
        };
        let saturation = if regressions.iter().any(|d| d.saturation_onset) {
            " or saturation onset"
        } else {
            ""
        };
        println!(
            "FAIL: {} of {} points regressed (significant {} {worse} > {threshold}%{saturation})",
            regressions.len(),
            cmp.deltas.len(),
            metric.name,
        );
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args = Args::parse();
    let run = match args.get("record") {
        Some(path) => record(&args, path),
        None => gate(&args),
    };
    run.unwrap_or_else(|e| die(&e))
}
