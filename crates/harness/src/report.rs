//! Result series and renderers (markdown tables for EXPERIMENTS.md, CSV
//! for plotting).

/// One (thread count → throughput) point of a Figure 2 line.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Concurrency level.
    pub threads: usize,
    /// Mean throughput, Mops/s.
    pub mean_mops: f64,
    /// 95% CI half-width.
    pub ci_half: f64,
}

/// One queue's line in a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Queue display name.
    pub name: String,
    /// Sweep points, ascending thread counts.
    pub points: Vec<SeriesPoint>,
}

/// Renders a set of series as a markdown table: one row per thread count,
/// one column per queue, `mean ± ci`.
pub fn render_markdown(series: &[Series], caption: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("**{caption}** (Mops/s, mean ± 95% CI)\n\n"));
    if series.is_empty() {
        return out;
    }
    let threads: Vec<usize> = series[0].points.iter().map(|p| p.threads).collect();
    out.push_str("| threads |");
    for s in series {
        out.push_str(&format!(" {} |", s.name));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in series {
        out.push_str("---|");
    }
    out.push('\n');
    for (i, t) in threads.iter().enumerate() {
        out.push_str(&format!("| {t} |"));
        for s in series {
            match s.points.get(i) {
                Some(p) => out.push_str(&format!(" {:.2} ± {:.2} |", p.mean_mops, p.ci_half)),
                None => out.push_str(" — |"),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders series as a machine-readable JSON document (the format of the
/// committed `results/BENCH_*.json` snapshots):
///
/// ```json
/// {"benchmark": "...", "workload": "...", "series": [
///   {"queue": "WF-10", "points": [
///     {"threads": 1, "mean_mops": 10.5, "ci_half": 0.2}]}]}
/// ```
///
/// Hand-rolled (no serde in the build environment); the numbers are plain
/// `{:.6}` decimals, so the output is also stable for diffing snapshots.
pub fn render_json(benchmark: &str, workload: &str, series: &[Series]) -> String {
    render_json_with_commit(benchmark, workload, None, series)
}

/// [`render_json`] plus the optional `"commit"` field of the normalized
/// snapshot schema (see EXPERIMENTS.md): snapshots committed to `results/`
/// name the commit they measured, so `wfq-regress` comparisons and the
/// recorded trajectory stay attributable.
pub fn render_json_with_commit(
    benchmark: &str,
    workload: &str,
    commit: Option<&str>,
    series: &[Series],
) -> String {
    let mut out = String::new();
    out.push('{');
    out.push('\n');
    if let Some(c) = commit {
        out.push_str(&format!(
            "  \"commit\": \"{}\",\n",
            c.replace('\\', "\\\\").replace('"', "\\\"")
        ));
    }
    out.push_str(&format!(
        "  \"benchmark\": \"{benchmark}\",\n  \"workload\": \"{workload}\",\n  \"series\": [\n"
    ));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"queue\": \"{}\", \"points\": [\n",
            s.name.replace('\\', "\\\\").replace('"', "\\\"")
        ));
        for (pi, p) in s.points.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"threads\": {}, \"mean_mops\": {:.6}, \"ci_half\": {:.6}}}{}\n",
                p.threads,
                p.mean_mops,
                p.ci_half,
                if pi + 1 == s.points.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if si + 1 == series.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ----------------------------------------------------------------------
// Latency-observatory snapshot schema (BENCH_latency.json)
// ----------------------------------------------------------------------

/// One (offered rate → tail latency) point of a latency-observatory
/// frontier line. Quantiles are means over invocations with Student-t 95%
/// half-widths (`*_ci`), all in nanoseconds; `share_*` are the attribution
/// fractions of `sampled` operations (zero when the backend's handles
/// count no paths).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyPoint {
    /// Offered arrival rate, kops/s.
    pub rate_kops: f64,
    /// Achieved completion rate, kops/s.
    pub achieved_kops: f64,
    /// Majority of invocations ended with generator lag > 10% of span.
    pub saturated: bool,
    /// Rejected enqueues (overload mode; 0 otherwise).
    pub drops: u64,
    /// Worst generator lag in any invocation, ns.
    pub max_lag_ns: u64,
    /// Mean end-of-run queue growth (enqueues − dequeues).
    pub backlog: i64,
    /// p50 mean, ns.
    pub p50_ns: f64,
    /// p50 95% CI half-width.
    pub p50_ci: f64,
    /// p90 mean, ns.
    pub p90_ns: f64,
    /// p90 95% CI half-width.
    pub p90_ci: f64,
    /// p99 mean, ns (the regression-gate quantile).
    pub p99_ns: f64,
    /// p99 95% CI half-width.
    pub p99_ci: f64,
    /// p99.9 mean, ns.
    pub p999_ns: f64,
    /// p99.9 95% CI half-width.
    pub p999_ci: f64,
    /// Max mean, ns.
    pub max_ns: f64,
    /// Max 95% CI half-width.
    pub max_ci: f64,
    /// Fraction of sampled ops that completed on the fast path.
    pub share_fast: f64,
    /// Fraction that entered the slow path and finished it themselves.
    pub share_slow: f64,
    /// Fraction completed by a helper.
    pub share_helped: f64,
    /// Operations that moved a path counter of their handle (0 for backends
    /// that count none).
    pub sampled: u64,
}

/// One queue's latency frontier (ascending offered rates).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySeries {
    /// Queue display name.
    pub name: String,
    /// Frontier points, ascending `rate_kops`.
    pub points: Vec<LatencyPoint>,
}

/// Renders latency-observatory results as the committed
/// `results/BENCH_latency.json` schema (see docs/OBSERVABILITY.md):
/// top-level `commit`/`benchmark`/`workload` mirror the throughput
/// snapshots so tooling can key on the same fields, plus `schedule` and
/// `threads` which are per-document here (one sweep = one shape × one
/// thread count).
pub fn render_latency_json(
    schedule: &str,
    threads: usize,
    commit: Option<&str>,
    series: &[LatencySeries],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    if let Some(c) = commit {
        out.push_str(&format!(
            "  \"commit\": \"{}\",\n",
            c.replace('\\', "\\\\").replace('"', "\\\"")
        ));
    }
    out.push_str(&format!(
        "  \"benchmark\": \"latency_observatory\",\n  \"workload\": \"open_loop_pairs\",\n  \"schedule\": \"{schedule}\",\n  \"threads\": {threads},\n  \"series\": [\n"
    ));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"queue\": \"{}\", \"points\": [\n",
            s.name.replace('\\', "\\\\").replace('"', "\\\"")
        ));
        for (pi, p) in s.points.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"rate_kops\": {:.3}, \"achieved_kops\": {:.3}, \"saturated\": {}, \"drops\": {}, \"max_lag_ns\": {}, \"backlog\": {}, \
                 \"p50_ns\": {:.1}, \"p50_ci\": {:.1}, \"p90_ns\": {:.1}, \"p90_ci\": {:.1}, \"p99_ns\": {:.1}, \"p99_ci\": {:.1}, \
                 \"p999_ns\": {:.1}, \"p999_ci\": {:.1}, \"max_ns\": {:.1}, \"max_ci\": {:.1}, \
                 \"share_fast\": {:.6}, \"share_slow\": {:.6}, \"share_helped\": {:.6}, \"sampled\": {}}}{}\n",
                p.rate_kops,
                p.achieved_kops,
                p.saturated,
                p.drops,
                p.max_lag_ns,
                p.backlog,
                p.p50_ns,
                p.p50_ci,
                p.p90_ns,
                p.p90_ci,
                p.p99_ns,
                p.p99_ci,
                p.p999_ns,
                p.p999_ci,
                p.max_ns,
                p.max_ci,
                p.share_fast,
                p.share_slow,
                p.share_helped,
                p.sampled,
                if pi + 1 == s.points.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if si + 1 == series.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders series as CSV: `queue,threads,mean_mops,ci_half`.
pub fn render_csv(series: &[Series]) -> String {
    let mut out = String::from("queue,threads,mean_mops,ci_half\n");
    for s in series {
        for p in &s.points {
            out.push_str(&format!(
                "{},{},{:.6},{:.6}\n",
                s.name, p.threads, p.mean_mops, p.ci_half
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Series> {
        vec![
            Series {
                name: "WF-10".into(),
                points: vec![
                    SeriesPoint { threads: 1, mean_mops: 10.0, ci_half: 0.5 },
                    SeriesPoint { threads: 2, mean_mops: 12.0, ci_half: 0.7 },
                ],
            },
            Series {
                name: "MSQUEUE".into(),
                points: vec![
                    SeriesPoint { threads: 1, mean_mops: 9.0, ci_half: 0.1 },
                    SeriesPoint { threads: 2, mean_mops: 5.0, ci_half: 0.2 },
                ],
            },
        ]
    }

    #[test]
    fn markdown_has_header_and_rows() {
        let md = render_markdown(&sample(), "pairs");
        assert!(md.contains("| threads | WF-10 | MSQUEUE |"));
        assert!(md.contains("| 1 | 10.00 ± 0.50 | 9.00 ± 0.10 |"));
        assert!(md.contains("| 2 | 12.00 ± 0.70 | 5.00 ± 0.20 |"));
    }

    #[test]
    fn csv_has_one_line_per_point() {
        let csv = render_csv(&sample());
        assert_eq!(csv.lines().count(), 1 + 4);
        assert!(csv.starts_with("queue,threads,"));
        assert!(csv.contains("WF-10,2,12.000000,0.700000"));
    }

    #[test]
    fn empty_series_render_gracefully() {
        assert!(render_markdown(&[], "x").contains("**x**"));
        assert_eq!(render_csv(&[]).lines().count(), 1);
    }

    #[test]
    fn json_roundtrips_through_the_parser() {
        let doc = render_json("figure2", "pairwise", &sample());
        let v = crate::json::parse(&doc).expect("render_json must emit valid JSON");
        assert_eq!(v.get("benchmark").unwrap().as_str(), Some("figure2"));
        assert_eq!(v.get("workload").unwrap().as_str(), Some("pairwise"));
        let series = v.get("series").unwrap().as_arr().unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].get("queue").unwrap().as_str(), Some("WF-10"));
        let pts = series[0].get("points").unwrap().as_arr().unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[1].get("threads").unwrap().as_num(), Some(2.0));
        assert_eq!(pts[1].get("mean_mops").unwrap().as_num(), Some(12.0));
    }

    #[test]
    fn json_with_commit_carries_the_field_and_still_parses() {
        let doc = render_json_with_commit("figure2", "pairwise", Some("abc1234"), &sample());
        let v = crate::json::parse(&doc).unwrap();
        assert_eq!(v.get("commit").unwrap().as_str(), Some("abc1234"));
        assert_eq!(v.get("benchmark").unwrap().as_str(), Some("figure2"));
        // Without a commit the field is absent, keeping old snapshots and
        // new ones in one schema.
        let v = crate::json::parse(&render_json("figure2", "pairwise", &sample())).unwrap();
        assert!(v.get("commit").is_none());
    }

    #[test]
    fn json_of_empty_series_is_valid() {
        let doc = render_json("figure2", "pairwise", &[]);
        let v = crate::json::parse(&doc).unwrap();
        assert_eq!(v.get("series").unwrap().as_arr().unwrap().len(), 0);
    }

    fn latency_sample() -> Vec<LatencySeries> {
        let point = |rate: f64, p99: f64| LatencyPoint {
            rate_kops: rate,
            achieved_kops: rate * 0.99,
            saturated: false,
            drops: 0,
            max_lag_ns: 1_200,
            backlog: -1,
            p50_ns: p99 * 0.2,
            p50_ci: 4.0,
            p90_ns: p99 * 0.5,
            p90_ci: 6.0,
            p99_ns: p99,
            p99_ci: 10.0,
            p999_ns: p99 * 2.0,
            p999_ci: 25.0,
            max_ns: p99 * 8.0,
            max_ci: 100.0,
            share_fast: 0.96,
            share_slow: 0.03,
            share_helped: 0.01,
            sampled: 40_000,
        };
        vec![
            LatencySeries {
                name: "WF-10".into(),
                points: vec![point(250.0, 800.0), point(1000.0, 1100.0)],
            },
            LatencySeries {
                name: "FAA".into(),
                points: vec![point(250.0, 700.0), point(1000.0, 900.0)],
            },
        ]
    }

    #[test]
    fn latency_json_roundtrips_through_the_parser() {
        let doc = render_latency_json("fixed", 2, Some("abc1234"), &latency_sample());
        let v = crate::json::parse(&doc).expect("render_latency_json must emit valid JSON");
        assert_eq!(v.get("benchmark").unwrap().as_str(), Some("latency_observatory"));
        assert_eq!(v.get("workload").unwrap().as_str(), Some("open_loop_pairs"));
        assert_eq!(v.get("schedule").unwrap().as_str(), Some("fixed"));
        assert_eq!(v.get("threads").unwrap().as_num(), Some(2.0));
        let series = v.get("series").unwrap().as_arr().unwrap();
        assert_eq!(series.len(), 2);
        let pts = series[0].get("points").unwrap().as_arr().unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].get("rate_kops").unwrap().as_num(), Some(250.0));
        assert_eq!(pts[0].get("p99_ns").unwrap().as_num(), Some(800.0));
        assert_eq!(pts[0].get("saturated").unwrap(), &crate::json::Value::Bool(false));
        assert_eq!(pts[0].get("backlog").unwrap().as_num(), Some(-1.0));
        assert_eq!(pts[0].get("share_fast").unwrap().as_num(), Some(0.96));
    }

    #[test]
    fn ragged_series_render_dashes() {
        let mut s = sample();
        s[1].points.pop();
        let md = render_markdown(&s, "ragged");
        assert!(md.contains("| 2 | 12.00 ± 0.70 | — |"));
    }
}
