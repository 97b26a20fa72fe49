//! Metrics exposition in the Prometheus text format.
//!
//! [`render_prometheus`] writes the monotone [`QueueStats`] counters as
//! `wfq_*_total` counters plus the instantaneous [`Gauges`] (live segments,
//! hazard lag, helping-record occupancy). The output follows the
//! Prometheus text format 0.0.4 (`# HELP` / `# TYPE` headers, one sample
//! per line), so it can be scraped from a file or served as-is.

use std::io;
use std::path::Path;

use wfqueue::{Gauges, QueueStats};

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
    ));
}

fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
    ));
}

/// Help text for one [`QueueStats`] counter field (the exposition derives
/// its metric list from [`QueueStats::for_each_counter`], so this lookup —
/// not the list — is the only thing to extend for a new counter, and a
/// forgotten entry degrades to a generic line instead of a missing metric).
fn counter_help(field: &str) -> &'static str {
    match field {
        "enq_fast" => "Enqueues completed on the fast path",
        "enq_slow" => "Enqueues that fell back to the slow path",
        "deq_fast" => "Dequeues completed on the fast path",
        "deq_slow" => "Dequeues that fell back to the slow path",
        "deq_empty" => "Dequeues that returned EMPTY",
        "help_enq" => "Calls helping a peer's enqueue request",
        "help_deq" => "Calls helping a peer's dequeue request",
        "cleanups" => "Reclamation passes executed",
        "segs_alloc" => "Segments allocated and published",
        "segs_freed" => "Segments reclaimed",
        "enq_slow_helped" => "Slow-path enqueues finished by a helper",
        "help_enq_commit" => "help_enq calls that committed a peer's value",
        "help_enq_seal" => "Cells sealed unusable by help_enq",
        "deq_slow_empty" => "Slow-path dequeues that returned EMPTY",
        "help_deq_announce" => "Candidate cells announced by help_deq",
        "help_deq_complete" => "Dequeue requests completed by help_deq",
        "reclaim_conceded" => "Reclamation boundary concessions",
        "reclaim_backward_clamp" => "Backward-pass hazard clamps",
        "reclaim_noop" => "Reclamation passes that found nothing",
        "enq_rejected" => "Enqueues a fixed-capacity ring rejected as full",
        _ => "Queue protocol counter",
    }
}

/// Renders queue statistics (and, when given, gauges) in the Prometheus
/// text exposition format.
pub fn render_prometheus(stats: &QueueStats, gauges: Option<&Gauges>) -> String {
    let mut out = String::new();
    let s = stats;
    // Counters come from the canonical enumeration in the core crate:
    // parity with `QueueStats` is by construction, not by keeping two
    // hand-written lists in sync.
    s.for_each_counter(|field, value| {
        counter(
            &mut out,
            &format!("wfq_{field}_total"),
            counter_help(field),
            value,
        );
    });
    if let Some(g) = gauges {
        gauge(&mut out, "wfq_head_index", "Head index H (dequeue FAA counter)", g.head_index as f64);
        gauge(&mut out, "wfq_tail_index", "Tail index T (enqueue FAA counter)", g.tail_index as f64);
        gauge(&mut out, "wfq_oldest_segment_id", "Oldest live segment id I (-1: cleaner active)", g.oldest_segment_id as f64);
        gauge(&mut out, "wfq_live_segments", "Segments currently in the list", g.live_segments as f64);
        gauge(
            &mut out,
            "wfq_hazard_lag_segments",
            "Segments pinned behind the dequeue frontier by the laggiest hazard",
            g.hazard_lag_segments as f64,
        );
        if let Some(mh) = g.min_hazard {
            gauge(
                &mut out,
                "wfq_min_hazard",
                "Oldest published hazard segment id (absent: no hazard live)",
                mh as f64,
            );
        }
        gauge(&mut out, "wfq_active_handles", "Handles currently owned", g.active_handles as f64);
        gauge(
            &mut out,
            "wfq_help_ring_occupancy",
            "Pending helping records as a fraction of request slots",
            g.help_ring_occupancy(),
        );
        gauge(&mut out, "wfq_pending_enq_reqs", "Enqueue helping records pending", g.pending_enq_reqs as f64);
        gauge(&mut out, "wfq_pending_deq_reqs", "Dequeue helping records pending", g.pending_deq_reqs as f64);
    }
    out
}

/// Renders per-backend operation-latency histograms as a Prometheus
/// *summary* metric (`wfq_op_latency_ns`): one `quantile`-labeled sample
/// per exported quantile (0.5, 0.99, 0.999) per backend, plus the
/// conventional `_sum`/`_count` companions. The `queue` label carries the
/// backend display name, so one scrape compares tails across backends.
pub fn render_latency_prometheus(series: &[(&str, &crate::histogram::Histogram)]) -> String {
    let mut out = String::from(
        "# HELP wfq_op_latency_ns Open-loop operation latency (intended start to completion), nanoseconds\n# TYPE wfq_op_latency_ns summary\n",
    );
    for (queue, h) in series {
        for (label, q) in [("0.5", 0.50), ("0.99", 0.99), ("0.999", 0.999)] {
            out.push_str(&format!(
                "wfq_op_latency_ns{{queue=\"{queue}\",quantile=\"{label}\"}} {}\n",
                h.quantile(q)
            ));
        }
        out.push_str(&format!(
            "wfq_op_latency_ns_sum{{queue=\"{queue}\"}} {}\n",
            h.sum()
        ));
        out.push_str(&format!(
            "wfq_op_latency_ns_count{{queue=\"{queue}\"}} {}\n",
            h.count()
        ));
    }
    out
}

/// Writes [`render_prometheus`] output to a file.
pub fn write_metrics(
    path: &Path,
    stats: &QueueStats,
    gauges: Option<&Gauges>,
) -> io::Result<()> {
    std::fs::write(path, render_prometheus(stats, gauges))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_output_has_counters_and_headers() {
        let s = QueueStats {
            enq_fast: 5,
            deq_empty: 2,
            ..Default::default()
        };
        let out = render_prometheus(&s, None);
        assert!(out.contains("# TYPE wfq_enq_fast_total counter"));
        assert!(out.contains("wfq_enq_fast_total 5\n"));
        assert!(out.contains("wfq_deq_empty_total 2\n"));
        assert!(!out.contains("wfq_live_segments"), "no gauges requested");
        // Every sample line is `name value` (format sanity).
        for line in out.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "bad sample line: {line}");
        }
    }

    #[test]
    fn prometheus_output_includes_gauges_when_given() {
        let g = Gauges {
            live_segments: 3,
            hazard_lag_segments: 1,
            total_handles: 2,
            pending_enq_reqs: 1,
            ..Default::default()
        };
        let out = render_prometheus(&QueueStats::default(), Some(&g));
        assert!(out.contains("wfq_live_segments 3\n"));
        assert!(out.contains("wfq_hazard_lag_segments 1\n"));
        assert!(out.contains("wfq_help_ring_occupancy 0.25\n"));
        assert!(out.contains("# TYPE wfq_live_segments gauge"));

        // A real queue's stats and gauges: every line is a comment or a
        // `name value` sample, and the metrics behind Table 2 are present.
        let q = wfqueue::RawQueue::<16>::new();
        let mut h = q.register();
        for v in 1..=100u64 {
            h.enqueue(v);
        }
        for _ in 0..40 {
            let _ = h.dequeue();
        }
        drop(h);
        let out = render_prometheus(&q.stats(), Some(&q.gauges()));
        for line in out.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed exposition line: {line:?}"
            );
        }
        for metric in [
            "wfq_enq_fast_total",
            "wfq_deq_fast_total",
            "wfq_head_index",
            "wfq_live_segments",
            "wfq_help_ring_occupancy",
        ] {
            assert!(
                out.lines().any(|l| l.starts_with(&format!("{metric} "))),
                "metric {metric} missing from exposition:\n{out}"
            );
        }
    }

    #[test]
    fn ring_rejections_render_as_a_counter() {
        let s = QueueStats {
            enq_rejected: 3,
            ..Default::default()
        };
        let out = render_prometheus(&s, Some(&Gauges::default()));
        assert!(out.contains("wfq_enq_rejected_total 3\n"), "{out}");
    }

    #[test]
    fn every_counter_appears_in_both_display_and_exposition() {
        // Satellite guard for stats/exposition drift: fill every counter
        // with a unique sentinel and require each to surface in both the
        // Prometheus exposition and `Display for QueueStats`.
        let mut s = QueueStats::default();
        let mut fields: Vec<&'static str> = Vec::new();
        s.for_each_counter(|name, _| fields.push(name));
        // Unique 4-digit sentinels, assigned in enumeration order via a
        // second pass over a by-name setter (fields are pub).
        let set = |s: &mut QueueStats, name: &str, v: u64| match name {
            "enq_fast" => s.enq_fast = v,
            "enq_slow" => s.enq_slow = v,
            "deq_fast" => s.deq_fast = v,
            "deq_slow" => s.deq_slow = v,
            "deq_empty" => s.deq_empty = v,
            "help_enq" => s.help_enq = v,
            "help_deq" => s.help_deq = v,
            "cleanups" => s.cleanups = v,
            "segs_alloc" => s.segs_alloc = v,
            "segs_freed" => s.segs_freed = v,
            "enq_slow_helped" => s.enq_slow_helped = v,
            "help_enq_commit" => s.help_enq_commit = v,
            "help_enq_seal" => s.help_enq_seal = v,
            "deq_slow_empty" => s.deq_slow_empty = v,
            "help_deq_announce" => s.help_deq_announce = v,
            "help_deq_complete" => s.help_deq_complete = v,
            "reclaim_conceded" => s.reclaim_conceded = v,
            "reclaim_backward_clamp" => s.reclaim_backward_clamp = v,
            "reclaim_noop" => s.reclaim_noop = v,
            "enq_rejected" => s.enq_rejected = v,
            other => panic!("for_each_counter emitted unknown field {other}"),
        };
        for (i, name) in fields.iter().enumerate() {
            set(&mut s, name, 5001 + i as u64);
        }

        let exposition = render_prometheus(&s, None);
        let display = s.to_string();
        s.for_each_counter(|name, value| {
            let line = format!("wfq_{name}_total {value}\n");
            assert!(
                exposition.contains(&line),
                "counter {name} missing from exposition: wanted {line:?}"
            );
            assert!(
                display.contains(&value.to_string()),
                "counter {name}={value} missing from Display:\n{display}"
            );
        });
    }

    #[test]
    fn previously_missing_counters_are_now_exposed() {
        // The PR-2 exposition hand-list silently lacked these two; the
        // for_each_counter refactor closes the gap permanently.
        let s = QueueStats {
            enq_slow_helped: 7,
            deq_slow_empty: 9,
            ..Default::default()
        };
        let out = render_prometheus(&s, None);
        assert!(out.contains("wfq_enq_slow_helped_total 7\n"), "{out}");
        assert!(out.contains("wfq_deq_slow_empty_total 9\n"), "{out}");
    }

    #[test]
    fn latency_summary_exposes_quantiles_per_backend() {
        use crate::histogram::Histogram;
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 1..=1000u64 {
            a.record(i);
            b.record(i * 100);
        }
        let out = render_latency_prometheus(&[("WF-10", &a), ("FAA", &b)]);
        assert!(out.contains("# TYPE wfq_op_latency_ns summary"));
        for q in ["0.5", "0.99", "0.999"] {
            assert!(
                out.contains(&format!("wfq_op_latency_ns{{queue=\"WF-10\",quantile=\"{q}\"}} ")),
                "{out}"
            );
            assert!(
                out.contains(&format!("wfq_op_latency_ns{{queue=\"FAA\",quantile=\"{q}\"}} ")),
                "{out}"
            );
        }
        assert!(out.contains("wfq_op_latency_ns_count{queue=\"WF-10\"} 1000\n"));
        assert!(out.contains(&format!(
            "wfq_op_latency_ns_sum{{queue=\"WF-10\"}} {}\n",
            (1..=1000u64).sum::<u64>()
        )));
        // Summary quantile samples carry no TYPE line of their own and the
        // label set renders one sample per line.
        for line in out.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "bad sample line: {line}");
        }
    }
}
