//! Statistical benchmark-snapshot comparison — the engine of `wfq-regress`.
//!
//! Snapshots are the committed `results/BENCH_*.json` documents, and each
//! document's own `benchmark` field names its [`Kind`]:
//!
//! | `benchmark`           | row key                | row value ± CI        | better |
//! |-----------------------|------------------------|-----------------------|--------|
//! | `figure2`             | `queue @threads`       | `mean_mops ± ci_half` | higher |
//! | `latency_observatory` | `queue @rate`          | `p99_ns ± p99_ci`     | lower  |
//!
//! [`parse_snapshot`] reads every kind, [`Snapshot::rows`] flattens one
//! into keyed [`Row`]s, and one [`compare`] gates two row sets. Each
//! `ci_half` is the Student-t 95% half-width over benchmark invocations
//! (Georges et al. §5.1). A row **regresses** when all three hold —
//!
//! 1. the candidate is worse in the kind's [`Polarity`],
//! 2. by more than the threshold (relative change, percent), and
//! 3. the two 95% CIs do not overlap (`|Δ| > ci_b + ci_c`),
//!
//! so a noisy run with wide CIs cannot fail the gate, and a statistically
//! significant but sub-threshold wobble cannot either. A latency row whose
//! candidate saturates where the baseline did not regresses
//! unconditionally: its p99 under overload no longer measures the offered
//! schedule, but the lost headroom is itself the regression. Improvements
//! are reported but never fail, and keys present in only one snapshot are
//! reported as unmatched.

use crate::json::{self, escape, Value};
use crate::report::{LatencyPoint, LatencySeries, Series, SeriesPoint};

/// A parsed benchmark snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Commit the snapshot measured (absent in pre-normalized snapshots).
    pub commit: Option<String>,
    /// Workload label (`pairwise`, `batch_pairs`, `open_loop_pairs`, …).
    pub workload: String,
    /// The kind-specific body, chosen by the document's `benchmark` field.
    pub kind: Kind,
}

/// The snapshot kinds, one per benchmark binary that writes a snapshot.
#[derive(Debug, Clone)]
pub enum Kind {
    /// `figure2`: one throughput line per queue over a thread sweep.
    Throughput(Vec<Series>),
    /// `latency_observatory`: one p99 frontier per queue over offered rates.
    Latency {
        /// Arrival-schedule shape (`fixed`, `poisson`, `bursty`).
        schedule: String,
        /// Generator thread count.
        threads: usize,
        /// One frontier per queue.
        series: Vec<LatencySeries>,
    },
}

/// Which direction of change is worse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// Throughput: a drop is a regression.
    HigherIsBetter,
    /// Latency: growth is a regression.
    LowerIsBetter,
}

/// The fixed parameters of one kind's gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The `benchmark` field that names the kind.
    pub benchmark: &'static str,
    /// What a row's value measures, for labels.
    pub name: &'static str,
    /// Which direction of change is worse.
    pub polarity: Polarity,
    /// Threshold (percent) when the gate is given none.
    pub default_threshold: f64,
}

impl Kind {
    /// The kind's gate parameters. Quantiles are noisier than throughput
    /// means, so their default threshold is 10% rather than 5%.
    pub fn metric(&self) -> Metric {
        let (benchmark, name, polarity, default_threshold) = match self {
            Kind::Throughput(_) => ("figure2", "throughput", Polarity::HigherIsBetter, 5.0),
            Kind::Latency { .. } => ("latency_observatory", "p99", Polarity::LowerIsBetter, 10.0),
        };
        Metric {
            benchmark,
            name,
            polarity,
            default_threshold,
        }
    }
}

/// One gated point of a snapshot.
#[derive(Debug, Clone)]
pub struct Row {
    /// Match key across snapshots (`WF-10 @2`, `WF-10 @250k`).
    pub key: String,
    /// The gated value.
    pub value: f64,
    /// Its 95% CI half-width.
    pub ci_half: f64,
    /// The open loop could not keep the offered rate (latency rows only).
    pub saturated: bool,
}

impl Snapshot {
    /// The configuration two snapshots must share for their numbers to be
    /// commensurable: the workload for throughput, the schedule and
    /// generator threads for latency.
    pub fn config(&self) -> String {
        match &self.kind {
            Kind::Throughput(_) => self.workload.clone(),
            Kind::Latency {
                schedule, threads, ..
            } => format!("{schedule}/{threads} threads"),
        }
    }

    /// Flattens the snapshot into its gated rows, in document order.
    pub fn rows(&self) -> Vec<Row> {
        let row = |key: String, value: f64, ci_half: f64| Row {
            key,
            value,
            ci_half,
            saturated: false,
        };
        let mut rows = Vec::new();
        match &self.kind {
            Kind::Throughput(series) => {
                for s in series {
                    for p in &s.points {
                        rows.push(row(
                            format!("{} @{}", s.name, p.threads),
                            p.mean_mops,
                            p.ci_half,
                        ));
                    }
                }
            }
            Kind::Latency { series, .. } => {
                for s in series {
                    for p in &s.points {
                        rows.push(Row {
                            saturated: p.saturated,
                            ..row(format!("{} @{}k", s.name, p.rate_kops), p.p99_ns, p.p99_ci)
                        });
                    }
                }
            }
        }
        rows
    }

    /// Renders the snapshot as one normalized JSON line for the append-only
    /// `results/trajectory.jsonl`: the shared header, the kind's own header
    /// fields, and each point compacted to the fields its kind tracks, so
    /// each `--record` appends one `git diff`-able line.
    pub fn trajectory_line(&self) -> String {
        let mut out = String::from("{");
        if let Some(c) = &self.commit {
            out.push_str(&format!("\"commit\": \"{}\", ", escape(c)));
        }
        out.push_str(&format!(
            "\"benchmark\": \"{}\", \"workload\": \"{}\", ",
            self.kind.metric().benchmark,
            escape(&self.workload)
        ));
        let series: Vec<(&str, Vec<String>)> = match &self.kind {
            Kind::Throughput(series) => series
                .iter()
                .map(|s| {
                    (
                        s.name.as_str(),
                        s.points.iter().map(throughput_point_json).collect(),
                    )
                })
                .collect(),
            Kind::Latency {
                schedule,
                threads,
                series,
            } => {
                out.push_str(&format!(
                    "\"schedule\": \"{}\", \"threads\": {threads}, ",
                    escape(schedule)
                ));
                series
                    .iter()
                    .map(|s| {
                        (
                            s.name.as_str(),
                            s.points.iter().map(latency_point_json).collect(),
                        )
                    })
                    .collect()
            }
        };
        out.push_str("\"series\": [");
        for (i, (queue, points)) in series.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"queue\": \"{}\", \"points\": [{}]}}",
                escape(queue),
                points.join(", ")
            ));
        }
        out.push(']');
        out.push('}');
        out
    }
}

fn throughput_point_json(p: &SeriesPoint) -> String {
    format!(
        "{{\"threads\": {}, \"mean_mops\": {:.6}, \"ci_half\": {:.6}}}",
        p.threads, p.mean_mops, p.ci_half
    )
}

/// Latency points keep the trajectory quantiles (p50/p99/p99.9).
fn latency_point_json(p: &LatencyPoint) -> String {
    format!(
        "{{\"rate_kops\": {:.3}, \"p50_ns\": {:.1}, \"p99_ns\": {:.1}, \"p99_ci\": {:.1}, \"p999_ns\": {:.1}, \"saturated\": {}}}",
        p.rate_kops, p.p50_ns, p.p99_ns, p.p99_ci, p.p999_ns, p.saturated
    )
}

// ----------------------------------------------------------------------
// Parsing
// ----------------------------------------------------------------------

/// Parses any snapshot document, choosing the kind by its `benchmark`
/// field; an unknown `benchmark` is an error.
///
/// Rejects (rather than silently accepting) documents that a gate could
/// never meaningfully compare: an empty `series` array, a series with an
/// empty `points` array, and non-finite numbers. A truncated or
/// mis-generated snapshot must fail loudly at parse time: a comparison
/// over zero points would otherwise print `PASS` and mean nothing.
pub fn parse_snapshot(doc: &str) -> Result<Snapshot, String> {
    let v = json::parse(doc)?;
    let kind = match str_field(&v, "benchmark")?.as_str() {
        "figure2" => Kind::Throughput(series(&v, throughput_point, |name, points| Series { name, points })?),
        "latency_observatory" => Kind::Latency {
            schedule: str_field(&v, "schedule")?,
            threads: num_field(&v, "threads")? as usize,
            series: series(&v, latency_point, |name, points| LatencySeries { name, points })?,
        },
        other => {
            return Err(format!(
                "unknown snapshot benchmark {other:?} (expected figure2 or latency_observatory)"
            ))
        }
    };
    Ok(Snapshot {
        commit: v.get("commit").and_then(Value::as_str).map(str::to_string),
        workload: str_field(&v, "workload")?,
        kind,
    })
}

fn str_field(v: &Value, k: &str) -> Result<String, String> {
    v.get(k)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("snapshot missing string field {k:?}"))
}

fn num_field(v: &Value, k: &str) -> Result<f64, String> {
    match v.get(k).and_then(Value::as_num) {
        None => Err(format!("snapshot missing number field {k:?}")),
        Some(n) if !n.is_finite() => Err(format!("snapshot field {k:?} is not a finite number")),
        Some(n) => Ok(n),
    }
}

fn bool_field(v: &Value, k: &str) -> Result<bool, String> {
    match v.get(k) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("snapshot missing bool field {k:?}")),
    }
}

fn arr_field<'a>(v: &'a Value, k: &str) -> Result<&'a [Value], String> {
    v.get(k)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("snapshot missing array field {k:?}"))
}

/// Reads the `series` array every kind shares, refusing an empty `series`
/// or `points` array.
fn series<P, S>(
    v: &Value,
    point: fn(&Value) -> Result<P, String>,
    make: fn(String, Vec<P>) -> S,
) -> Result<Vec<S>, String> {
    let series = arr_field(v, "series")?;
    if series.is_empty() {
        return Err("snapshot has no series — refusing a snapshot the gate cannot compare".into());
    }
    series
        .iter()
        .map(|s| {
            let name = str_field(s, "queue")?;
            let points = arr_field(s, "points")?;
            if points.is_empty() {
                return Err(format!(
                    "series {name:?} has no points — refusing a snapshot the gate cannot compare"
                ));
            }
            Ok(make(
                name,
                points.iter().map(point).collect::<Result<_, _>>()?,
            ))
        })
        .collect()
}

fn throughput_point(p: &Value) -> Result<SeriesPoint, String> {
    Ok(SeriesPoint {
        threads: num_field(p, "threads")? as usize,
        mean_mops: num_field(p, "mean_mops")?,
        ci_half: num_field(p, "ci_half")?,
    })
}

fn latency_point(p: &Value) -> Result<LatencyPoint, String> {
    let num = |k| num_field(p, k);
    Ok(LatencyPoint {
        rate_kops: num("rate_kops")?,
        achieved_kops: num("achieved_kops")?,
        saturated: bool_field(p, "saturated")?,
        drops: num("drops")? as u64,
        max_lag_ns: num("max_lag_ns")? as u64,
        backlog: num("backlog")? as i64,
        p50_ns: num("p50_ns")?,
        p50_ci: num("p50_ci")?,
        p90_ns: num("p90_ns")?,
        p90_ci: num("p90_ci")?,
        p99_ns: num("p99_ns")?,
        p99_ci: num("p99_ci")?,
        p999_ns: num("p999_ns")?,
        p999_ci: num("p999_ci")?,
        max_ns: num("max_ns")?,
        max_ci: num("max_ci")?,
        share_fast: num("share_fast")?,
        share_slow: num("share_slow")?,
        share_helped: num("share_helped")?,
        sampled: num("sampled")? as u64,
    })
}

// ----------------------------------------------------------------------
// Comparison
// ----------------------------------------------------------------------

/// One matched row of a comparison.
#[derive(Debug, Clone)]
pub struct Delta {
    /// The row key.
    pub key: String,
    /// Baseline `(value, ci_half)`.
    pub base: (f64, f64),
    /// Candidate `(value, ci_half)`.
    pub cand: (f64, f64),
    /// Relative change of the value, percent.
    pub pct_change: f64,
    /// Whether the 95% CIs do not overlap.
    pub significant: bool,
    /// The candidate saturates where the baseline did not.
    pub saturation_onset: bool,
    /// Fails the gate.
    pub regressed: bool,
    /// Significant improvement past the threshold: reported, never fails.
    pub improved: bool,
}

/// The result of comparing a candidate snapshot's rows against a baseline's.
#[derive(Debug)]
pub struct Comparison {
    /// Every matched row.
    pub deltas: Vec<Delta>,
    /// Keys present in only one snapshot.
    pub unmatched: Vec<String>,
}

impl Comparison {
    /// The deltas that fail the gate.
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }

    /// Human-readable comparison table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let w = self
            .deltas
            .iter()
            .map(|d| d.key.chars().count())
            .max()
            .unwrap_or(0)
            .max(5);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<w$} {:^25} {:^25} {:>8}  verdict",
            "point", "baseline", "candidate", "delta"
        );
        for d in &self.deltas {
            let verdict = if d.saturation_onset {
                "REGRESSION (saturates)"
            } else if d.regressed {
                "REGRESSION"
            } else if d.improved {
                "improved"
            } else if d.significant {
                "within threshold"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{:<w$} {:>12.3} ±{:<11.3} {:>12.3} ±{:<11.3} {:>+7.1}%  {verdict}",
                d.key, d.base.0, d.base.1, d.cand.0, d.cand.1, d.pct_change
            );
        }
        for u in &self.unmatched {
            let _ = writeln!(out, "unmatched: {u}");
        }
        out
    }
}

/// Compares candidate rows against baseline rows on their keys.
/// `threshold_pct` is the minimum relative change (percent) a significant
/// change in the worse direction must exceed to regress.
pub fn compare(base: &[Row], cand: &[Row], polarity: Polarity, threshold_pct: f64) -> Comparison {
    // The sign a worsening change has.
    let worse = match polarity {
        Polarity::HigherIsBetter => -1.0,
        Polarity::LowerIsBetter => 1.0,
    };
    let mut deltas = Vec::new();
    for b in base {
        let Some(c) = cand.iter().find(|c| c.key == b.key) else {
            continue;
        };
        let diff = c.value - b.value;
        let pct_change = if b.value == 0.0 {
            0.0
        } else {
            100.0 * diff / b.value
        };
        let significant = diff.abs() > b.ci_half + c.ci_half;
        let saturation_onset = c.saturated && !b.saturated;
        deltas.push(Delta {
            key: b.key.clone(),
            base: (b.value, b.ci_half),
            cand: (c.value, c.ci_half),
            pct_change,
            significant,
            saturation_onset,
            regressed: saturation_onset || (significant && worse * pct_change > threshold_pct),
            improved: significant && -worse * pct_change > threshold_pct,
        });
    }
    let only = |rows: &[Row], other: &[Row], side: &str| -> Vec<String> {
        rows.iter()
            .filter(|r| !other.iter().any(|o| o.key == r.key))
            .map(|r| format!("{} ({side} only)", r.key))
            .collect()
    };
    let mut unmatched = only(base, cand, "baseline");
    unmatched.extend(only(cand, base, "candidate"));
    Comparison { deltas, unmatched }
}

/// The metric both snapshots are gated on. Snapshots of different kinds
/// share no row and measure different things, so they are an error that
/// names both kinds.
pub fn shared_metric(base: &Snapshot, cand: &Snapshot) -> Result<Metric, String> {
    let (b, c) = (base.kind.metric(), cand.kind.metric());
    if b == c {
        Ok(b)
    } else {
        Err(format!(
            "cannot compare a {} baseline with a {} candidate",
            b.benchmark, c.benchmark
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{render_json, render_json_with_commit, render_latency_json};

    /// Gates two snapshots the way `wfq-regress` does.
    fn gate(base: &Snapshot, cand: &Snapshot, threshold: f64) -> Comparison {
        let metric = shared_metric(base, cand).unwrap();
        compare(&base.rows(), &cand.rows(), metric.polarity, threshold)
    }

    fn snap(scale: f64, ci: f64) -> Snapshot {
        Snapshot {
            commit: Some("deadbee".into()),
            workload: "pairwise".into(),
            kind: Kind::Throughput(vec![Series {
                name: "WF-10".into(),
                points: vec![
                    SeriesPoint {
                        threads: 1,
                        mean_mops: 10.0 * scale,
                        ci_half: ci,
                    },
                    SeriesPoint {
                        threads: 2,
                        mean_mops: 8.0 * scale,
                        ci_half: ci,
                    },
                ],
            }]),
        }
    }

    fn throughput(s: &Snapshot) -> &[Series] {
        match &s.kind {
            Kind::Throughput(series) => series,
            k => panic!("not a throughput snapshot: {k:?}"),
        }
    }

    #[test]
    fn self_comparison_of_identical_runs_passes() {
        let a = snap(1.0, 0.2);
        let cmp = gate(&a, &a, 5.0);
        assert!(cmp.regressions().is_empty());
        assert!(cmp.deltas.iter().all(|d| !d.significant));
        assert!(cmp.unmatched.is_empty());
    }

    #[test]
    fn a_twenty_percent_slowdown_with_tight_cis_regresses() {
        // The acceptance criterion: a synthetic ≥20% slowdown must fail.
        let base = snap(1.0, 0.1);
        let cand = snap(0.8, 0.1);
        let cmp = gate(&base, &cand, 5.0);
        assert_eq!(cmp.regressions().len(), 2, "{}", cmp.render());
        assert!(cmp.render().contains("REGRESSION"));
    }

    #[test]
    fn wide_cis_mask_even_large_deltas() {
        // CIs overlap (10−8=2 < 1.5+1.5): not statistically significant,
        // so the gate must not fire on noise.
        let base = snap(1.0, 1.5);
        let cand = snap(0.8, 1.5);
        let cmp = gate(&base, &cand, 5.0);
        assert!(cmp.regressions().is_empty(), "{}", cmp.render());
    }

    #[test]
    fn a_significant_but_sub_threshold_drop_passes() {
        let base = snap(1.0, 0.01);
        let cand = snap(0.97, 0.01); // −3%, tight CIs
        let cmp = gate(&base, &cand, 5.0);
        assert!(cmp.regressions().is_empty());
        assert!(cmp.deltas.iter().all(|d| d.significant));
        assert!(cmp.render().contains("within threshold"));
    }

    #[test]
    fn improvements_are_reported_but_never_fail() {
        let base = snap(1.0, 0.05);
        let cand = snap(1.5, 0.05);
        let cmp = gate(&base, &cand, 5.0);
        assert!(cmp.regressions().is_empty());
        assert!(cmp.deltas.iter().all(|d| d.improved));
        assert!(cmp.render().contains("improved"));
    }

    #[test]
    fn snapshots_roundtrip_through_render_and_parse() {
        let s = snap(1.0, 0.2);
        let doc =
            render_json_with_commit("figure2", &s.workload, s.commit.as_deref(), throughput(&s));
        let back = parse_snapshot(&doc).unwrap();
        assert_eq!(back.commit.as_deref(), Some("deadbee"));
        assert_eq!(back.kind.metric().benchmark, "figure2");
        assert_eq!(back.workload, "pairwise");
        assert_eq!(throughput(&back), throughput(&s));
    }

    #[test]
    fn legacy_snapshots_without_commit_still_parse() {
        let doc = render_json("figure2", "pairwise", throughput(&snap(1.0, 0.2)));
        let back = parse_snapshot(&doc).unwrap();
        assert_eq!(back.commit, None);
        assert_eq!(throughput(&back).len(), 1);
    }

    #[test]
    fn missing_points_surface_as_unmatched_not_panics() {
        let base = snap(1.0, 0.2);
        let mut cand = snap(1.0, 0.2);
        let Kind::Throughput(series) = &mut cand.kind else {
            unreachable!()
        };
        series[0].points.pop();
        series.push(Series {
            name: "EXTRA".into(),
            points: vec![SeriesPoint {
                threads: 1,
                mean_mops: 1.0,
                ci_half: 0.1,
            }],
        });
        let cmp = gate(&base, &cand, 5.0);
        assert_eq!(cmp.deltas.len(), 1);
        assert_eq!(
            cmp.unmatched,
            ["WF-10 @2 (baseline only)", "EXTRA @1 (candidate only)"],
            "unmatched keys are reported in both directions"
        );
    }

    #[test]
    fn trajectory_line_is_one_line_of_valid_json() {
        let line = snap(1.0, 0.2).trajectory_line();
        assert_eq!(line.lines().count(), 1);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("commit").unwrap().as_str(), Some("deadbee"));
        let series = v.get("series").unwrap().as_arr().unwrap();
        assert_eq!(series[0].get("queue").unwrap().as_str(), Some("WF-10"));
    }

    #[test]
    fn malformed_snapshots_return_errors() {
        assert!(parse_snapshot("not json").is_err());
        assert!(parse_snapshot("{\"benchmark\": \"figure2\"}").is_err());
        assert!(
            parse_snapshot("{\"benchmark\": \"figure2\", \"workload\": \"y\", \"series\": 3}")
                .is_err()
        );
    }

    #[test]
    fn truncated_point_missing_ci_half_is_a_parse_error() {
        let doc = "{\"benchmark\": \"figure2\", \"workload\": \"pairwise\", \"series\": [\
                   {\"queue\": \"WF-10\", \"points\": [\
                   {\"threads\": 1, \"mean_mops\": 10.0}]}]}";
        let err = parse_snapshot(doc).unwrap_err();
        assert!(
            err.contains("ci_half"),
            "message must name the field: {err}"
        );
    }

    #[test]
    fn empty_series_and_empty_points_are_parse_errors_not_vacuous_passes() {
        // Zero series: the gate would compare nothing and print PASS.
        let doc = "{\"benchmark\": \"figure2\", \"workload\": \"y\", \"series\": []}";
        let err = parse_snapshot(doc).unwrap_err();
        assert!(err.contains("no series"), "{err}");
        // A series with zero points: same vacuity, one level down.
        let doc = "{\"benchmark\": \"figure2\", \"workload\": \"y\", \"series\": [\
                   {\"queue\": \"WF-10\", \"points\": []}]}";
        let err = parse_snapshot(doc).unwrap_err();
        assert!(err.contains("no points") && err.contains("WF-10"), "{err}");
    }

    #[test]
    fn non_finite_numbers_are_parse_errors() {
        // `1e999` overflows f64 to +inf, which `str::parse` accepts — a
        // CI comparison against infinity would never be significant.
        let doc = "{\"benchmark\": \"figure2\", \"workload\": \"y\", \"series\": [\
                   {\"queue\": \"WF-10\", \"points\": [\
                   {\"threads\": 1, \"mean_mops\": 1e999, \"ci_half\": 0.1}]}]}";
        let err = parse_snapshot(doc).unwrap_err();
        assert!(err.contains("finite"), "{err}");
    }

    // ------------------------------------------------------------------
    // Latency rows
    // ------------------------------------------------------------------

    fn lat_point(rate: f64, p99: f64, ci: f64, saturated: bool) -> LatencyPoint {
        LatencyPoint {
            rate_kops: rate,
            achieved_kops: rate,
            saturated,
            drops: 0,
            max_lag_ns: 0,
            backlog: 0,
            p50_ns: p99 * 0.3,
            p50_ci: ci,
            p90_ns: p99 * 0.6,
            p90_ci: ci,
            p99_ns: p99,
            p99_ci: ci,
            p999_ns: p99 * 2.0,
            p999_ci: ci,
            max_ns: p99 * 5.0,
            max_ci: ci,
            share_fast: 1.0,
            share_slow: 0.0,
            share_helped: 0.0,
            sampled: 10_000,
        }
    }

    fn lat_snap(scale: f64, ci: f64) -> Snapshot {
        Snapshot {
            commit: Some("deadbee".into()),
            workload: "open_loop_pairs".into(),
            kind: Kind::Latency {
                schedule: "fixed".into(),
                threads: 2,
                series: vec![LatencySeries {
                    name: "WF-10".into(),
                    points: vec![
                        lat_point(250.0, 800.0 * scale, ci, false),
                        lat_point(1000.0, 1200.0 * scale, ci, false),
                    ],
                }],
            },
        }
    }

    fn lat_points(s: &mut Snapshot) -> &mut Vec<LatencyPoint> {
        match &mut s.kind {
            Kind::Latency { series, .. } => &mut series[0].points,
            k => panic!("not a latency snapshot: {k:?}"),
        }
    }

    #[test]
    fn latency_self_comparison_passes() {
        let a = lat_snap(1.0, 10.0);
        let cmp = gate(&a, &a, 10.0);
        assert!(cmp.regressions().is_empty(), "{}", cmp.render());
        assert!(cmp.unmatched.is_empty());
    }

    #[test]
    fn a_significant_p99_inflation_regresses() {
        // Lower-is-better polarity: +50% p99 with tight CIs must fail.
        let base = lat_snap(1.0, 10.0);
        let cand = lat_snap(1.5, 10.0);
        let cmp = gate(&base, &cand, 10.0);
        assert_eq!(cmp.regressions().len(), 2, "{}", cmp.render());
        assert!(cmp.render().contains("REGRESSION"));
    }

    #[test]
    fn a_p99_drop_is_an_improvement_not_a_regression() {
        let base = lat_snap(1.0, 10.0);
        let cand = lat_snap(0.5, 10.0);
        let cmp = gate(&base, &cand, 10.0);
        assert!(cmp.regressions().is_empty());
        assert!(cmp.deltas.iter().all(|d| d.improved));
        assert!(cmp.render().contains("improved"));
    }

    #[test]
    fn overlapping_cis_mask_latency_deltas() {
        // |Δ| = 160 ns at the low point < 500+500: not significant.
        let base = lat_snap(1.0, 500.0);
        let cand = lat_snap(1.2, 500.0);
        let cmp = gate(&base, &cand, 10.0);
        assert!(cmp.regressions().is_empty(), "{}", cmp.render());
    }

    #[test]
    fn sub_threshold_latency_inflation_passes() {
        let base = lat_snap(1.0, 0.5);
        let cand = lat_snap(1.05, 0.5); // +5% < 10% threshold, tight CIs
        let cmp = gate(&base, &cand, 10.0);
        assert!(cmp.regressions().is_empty());
        assert!(cmp.deltas.iter().all(|d| d.significant));
    }

    #[test]
    fn saturation_onset_regresses_even_with_equal_p99() {
        let base = lat_snap(1.0, 10.0);
        let mut cand = lat_snap(1.0, 10.0);
        lat_points(&mut cand)[1].saturated = true;
        let cmp = gate(&base, &cand, 10.0);
        assert_eq!(cmp.regressions().len(), 1);
        assert!(cmp.render().contains("saturates"), "{}", cmp.render());
        // The reverse direction (candidate de-saturates) never fails.
        let cmp = gate(&cand, &base, 10.0);
        assert!(cmp.regressions().is_empty());
    }

    #[test]
    fn latency_snapshots_roundtrip_through_render_and_parse() {
        let mut s = lat_snap(1.0, 10.0);
        let Kind::Latency {
            schedule,
            threads,
            series,
        } = &s.kind
        else {
            unreachable!()
        };
        let doc = render_latency_json(schedule, *threads, s.commit.as_deref(), series);
        let mut back = parse_snapshot(&doc).unwrap();
        assert_eq!(back.commit.as_deref(), Some("deadbee"));
        assert_eq!(back.kind.metric().benchmark, "latency_observatory");
        assert_eq!(back.config(), "fixed/2 threads");
        assert_eq!(lat_points(&mut back), lat_points(&mut s));
    }

    #[test]
    fn latency_trajectory_line_is_one_line_of_valid_json() {
        let line = lat_snap(1.0, 10.0).trajectory_line();
        assert_eq!(line.lines().count(), 1);
        let v = json::parse(&line).unwrap();
        assert_eq!(
            v.get("benchmark").unwrap().as_str(),
            Some("latency_observatory")
        );
        let series = v.get("series").unwrap().as_arr().unwrap();
        let pts = series[0].get("points").unwrap().as_arr().unwrap();
        assert_eq!(pts[0].get("p99_ns").unwrap().as_num(), Some(800.0));
    }

    #[test]
    fn malformed_latency_snapshots_return_errors() {
        assert!(parse_snapshot("not json").is_err());
        // A throughput document relabeled as latency is not a latency
        // snapshot (missing schedule/threads and the per-point fields).
        let tp = render_json(
            "latency_observatory",
            "pairwise",
            throughput(&snap(1.0, 0.2)),
        );
        assert!(parse_snapshot(&tp).is_err());
    }

    #[test]
    fn empty_latency_series_and_points_are_parse_errors() {
        let doc = "{\"benchmark\": \"latency_observatory\", \"workload\": \"w\", \
                   \"schedule\": \"fixed\", \"threads\": 2, \"series\": []}";
        assert!(parse_snapshot(doc).unwrap_err().contains("no series"));
        let doc = "{\"benchmark\": \"latency_observatory\", \"workload\": \"w\", \
                   \"schedule\": \"fixed\", \"threads\": 2, \"series\": [\
                   {\"queue\": \"WF-10\", \"points\": []}]}";
        assert!(parse_snapshot(doc).unwrap_err().contains("no points"));
    }

    #[test]
    fn latency_rate_mismatches_surface_as_unmatched() {
        let base = lat_snap(1.0, 10.0);
        let mut cand = lat_snap(1.0, 10.0);
        lat_points(&mut cand)[1].rate_kops = 4000.0;
        let cmp = gate(&base, &cand, 10.0);
        assert_eq!(cmp.deltas.len(), 1);
        assert_eq!(
            cmp.unmatched,
            [
                "WF-10 @1000k (baseline only)",
                "WF-10 @4000k (candidate only)"
            ]
        );
    }

    // ------------------------------------------------------------------
    // Golden: the committed snapshots re-record and re-gate as committed
    // ------------------------------------------------------------------

    const TRAJECTORY: &str = include_str!("../../../results/trajectory.jsonl");
    const PAIRWISE: &str = include_str!("../../../results/BENCH_pairwise.json");
    const BATCH: &str = include_str!("../../../results/BENCH_batch.json");
    const LATENCY: &str = include_str!("../../../results/BENCH_latency.json");

    fn assert_committed_line(line: &str, commit: &str) {
        assert!(
            line.starts_with(&format!("{{\"commit\": \"{commit}\", ")),
            "{line}"
        );
        assert!(
            TRAJECTORY.lines().any(|l| l == line),
            "re-recorded line is not byte-identical to results/trajectory.jsonl:\n{line}"
        );
    }

    #[test]
    fn golden_snapshots_re_record_their_committed_trajectory_lines() {
        for (doc, commit) in [
            (PAIRWISE, "6a3df09"),
            (BATCH, "d020c1c"),
            (LATENCY, "a7593b1"),
        ] {
            assert_committed_line(&parse_snapshot(doc).unwrap().trajectory_line(), commit);
        }
    }

    #[test]
    fn golden_snapshots_pass_against_themselves() {
        for (doc, points) in [(PAIRWISE, 30), (BATCH, 24), (LATENCY, 15)] {
            let s = parse_snapshot(doc).unwrap();
            let cmp = gate(&s, &s, s.kind.metric().default_threshold);
            assert_eq!((cmp.deltas.len(), cmp.regressions().len()), (points, 0));
            assert!(cmp.unmatched.is_empty());
        }
    }

    #[test]
    fn golden_batch_against_pairwise_regresses_with_the_rings_unmatched() {
        let (batch, pairwise) = (
            parse_snapshot(BATCH).unwrap(),
            parse_snapshot(PAIRWISE).unwrap(),
        );
        let cmp = gate(&batch, &pairwise, 5.0);
        assert_eq!(
            (cmp.deltas.len(), cmp.regressions().len()),
            (24, 21),
            "{}",
            cmp.render()
        );
        // The bounded-ring series exist only in the pairwise snapshot:
        // every one of their points is unmatched, and nothing else is.
        let in_batch: Vec<&str> = throughput(&batch).iter().map(|s| s.name.as_str()).collect();
        let ring_rows: Vec<String> = throughput(&pairwise)
            .iter()
            .filter(|s| !in_batch.contains(&s.name.as_str()))
            .flat_map(|s| {
                s.points
                    .iter()
                    .map(move |p| format!("{} @{} (candidate only)", s.name, p.threads))
            })
            .collect();
        assert!(
            ring_rows.iter().any(|u| u.starts_with("SCQ")),
            "{ring_rows:?}"
        );
        assert_eq!(cmp.unmatched, ring_rows);
    }

    // ------------------------------------------------------------------
    // Kind detection
    // ------------------------------------------------------------------

    #[test]
    fn regress_reads_the_kind_from_the_benchmark_field() {
        for (doc, benchmark, polarity, threshold) in [
            (PAIRWISE, "figure2", Polarity::HigherIsBetter, 5.0),
            (
                LATENCY,
                "latency_observatory",
                Polarity::LowerIsBetter,
                10.0,
            ),
        ] {
            let metric = parse_snapshot(doc).unwrap().kind.metric();
            assert_eq!(
                (metric.benchmark, metric.polarity, metric.default_threshold),
                (benchmark, polarity, threshold)
            );
        }
    }

    #[test]
    fn regress_refuses_the_retired_cycles_documents() {
        // The trajectory keeps the retired cycle-ledger lines (the only ones
        // with a `perf` field) as history; their kind is gone, so each must
        // be refused as an unknown benchmark rather than misread.
        let retired: Vec<&str> = TRAJECTORY
            .lines()
            .filter(|l| l.contains("\"perf\": "))
            .collect();
        assert_eq!(retired.len(), 5);
        for line in retired {
            let err = parse_snapshot(line).unwrap_err();
            assert!(err.starts_with("unknown snapshot benchmark"), "{err}");
        }
    }

    #[test]
    fn regress_refuses_to_compare_mixed_kinds() {
        let pairwise = parse_snapshot(PAIRWISE).unwrap();
        let latency = parse_snapshot(LATENCY).unwrap();
        for (base, cand) in [(&pairwise, &latency), (&latency, &pairwise)] {
            let err = shared_metric(base, cand).unwrap_err();
            assert!(
                err.contains("figure2") && err.contains("latency_observatory"),
                "{err}"
            );
        }
    }

    #[test]
    fn regress_rejects_an_unknown_benchmark() {
        let doc = PAIRWISE.replace("\"figure2\"", "\"figure9\"");
        let err = parse_snapshot(&doc).unwrap_err();
        assert!(err.contains("figure9"), "{err}");
    }
}
