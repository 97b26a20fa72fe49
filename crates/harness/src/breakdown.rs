//! Execution-path breakdown for the paper's Table 2.
//!
//! Table 2 runs the 50%-enqueues benchmark on the WF-0 configuration
//! (patience 0, maximizing slow-path pressure) at thread counts up to 4×
//! the hardware threads (oversubscription) and reports the percentage of
//! operations completed on each path. This module drives the wait-free
//! queue directly (the path counters live in `wfqueue::QueueStats`).

use std::sync::Barrier;

use wfq_baselines::{BenchQueue, QueueHandle};
use wfq_sync::delay::SpinDelay;
use wfq_sync::XorShift64;
use wfqueue::{Config, QueueStats, RawQueue};

use crate::topology;
use crate::workload::{BenchConfig, Workload};

/// One Table 2 column: thread count plus the three path percentages.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Concurrency level.
    pub threads: usize,
    /// % of enqueues completed on the slow path.
    pub pct_slow_enq: f64,
    /// % of dequeues completed on the slow path.
    pub pct_slow_deq: f64,
    /// % of dequeues that returned EMPTY.
    pub pct_empty_deq: f64,
    /// Raw aggregated stats (for deeper inspection).
    pub stats: QueueStats,
}

/// Runs the 50%-enqueues workload — or its batched extension, where each
/// coin flip moves a whole `enqueue_batch`/`dequeue_batch` of width k —
/// on a fresh wait-free queue with the given patience and returns the
/// path breakdown.
pub fn run_breakdown(patience: u32, cfg: &BenchConfig) -> Breakdown {
    let mut config = Config::default().with_patience(patience);
    if let Some(c) = cfg.segment_ceiling {
        config = config.with_segment_ceiling(c);
    }
    let q = RawQueue::<1024>::with_config(config);
    drive(&q, cfg)
}

/// Runs the same Table 2 workload on any [`BenchQueue`] backend and
/// reports the path breakdown from its `stats()` counters. The WF queue's
/// patience knob has no trait-level equivalent — for a custom patience use
/// [`run_breakdown`]; backends with their own knobs run at their defaults
/// here.
pub fn run_breakdown_on<Q: BenchQueue>(cfg: &BenchConfig) -> Breakdown {
    let q = Q::with_ceiling(cfg.segment_ceiling);
    drive(&q, cfg)
}

fn drive<Q: BenchQueue>(q: &Q, cfg: &BenchConfig) -> Breakdown {
    let batch = match cfg.workload {
        Workload::FiftyEnqueues => None,
        Workload::BatchPairs(k) => Some(k.max(1)),
        _ => panic!("Table 2 is defined on the 50%-enqueues benchmark"),
    };
    let delay = SpinDelay::calibrate();
    let threads = cfg.threads.max(1);
    let per_thread = (cfg.total_ops / threads as u64).max(1);
    let barrier = Barrier::new(threads);

    std::thread::scope(|s| {
        for t in 0..threads {
            let q = &q;
            let barrier = &barrier;
            let delay = &delay;
            let cfg = &cfg;
            s.spawn(move || {
                if cfg.pin {
                    topology::pin_to_cpu(t);
                }
                let mut h = q.register();
                let mut rng = XorShift64::for_stream(cfg.seed, t as u64);
                let tag = ((t as u64 + 1) << 40) | 1;
                let mut counter = 0;
                let (dlo, dhi) = cfg.delay_ns;
                barrier.wait();
                match batch {
                    None => {
                        for _ in 0..per_thread {
                            if rng.coin() {
                                counter += 1;
                                h.enqueue(tag + counter);
                            } else {
                                let _ = h.dequeue();
                            }
                            if dhi > 0 {
                                delay.wait_ns(rng.next_in(dlo, dhi));
                            }
                        }
                    }
                    Some(k) => {
                        let mut vals = vec![0u64; k as usize];
                        let mut out = Vec::with_capacity(k as usize);
                        for _ in 0..per_thread / u64::from(k) {
                            if rng.coin() {
                                for slot in vals.iter_mut() {
                                    counter += 1;
                                    *slot = tag + counter;
                                }
                                h.enqueue_batch(&vals);
                            } else {
                                out.clear();
                                let _ = h.dequeue_batch(&mut out, k as usize);
                            }
                            if dhi > 0 {
                                delay.wait_ns(rng.next_in(dlo, dhi));
                            }
                        }
                    }
                }
            });
        }
    });

    let stats = q.stats();
    Breakdown {
        threads,
        pct_slow_enq: stats.pct_slow_enq(),
        pct_slow_deq: stats.pct_slow_deq(),
        pct_empty_deq: stats.pct_empty_deq(),
        stats,
    }
}

/// Renders Table 2 as markdown, one column per thread count.
pub fn render_table2(rows: &[Breakdown]) -> String {
    let mut out = String::from("| # of threads |");
    for r in rows {
        out.push_str(&format!(" {} |", r.threads));
    }
    out.push_str("\n|---|");
    for _ in rows {
        out.push_str("---|");
    }
    out.push_str("\n| % of slow-path enqueues |");
    for r in rows {
        out.push_str(&format!(" {:.3} |", r.pct_slow_enq));
    }
    out.push_str("\n| % of slow-path dequeues |");
    for r in rows {
        out.push_str(&format!(" {:.3} |", r.pct_slow_deq));
    }
    out.push_str("\n| % of empty dequeues |");
    for r in rows {
        out.push_str(&format!(" {:.3} |", r.pct_empty_deq));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(threads: usize) -> BenchConfig {
        BenchConfig {
            threads,
            total_ops: 40_000,
            workload: Workload::FiftyEnqueues,
            delay_ns: (0, 0),
            pin: false,
            ..Default::default()
        }
    }

    #[test]
    fn breakdown_counts_all_operations() {
        let b = run_breakdown(0, &tiny(2));
        assert_eq!(b.stats.enqueues() + b.stats.dequeues(), 40_000);
        assert!(b.pct_slow_enq >= 0.0 && b.pct_slow_enq <= 100.0);
    }

    #[test]
    fn single_thread_has_no_slow_paths() {
        let b = run_breakdown(10, &tiny(1));
        assert_eq!(b.pct_slow_enq, 0.0);
        assert_eq!(b.pct_slow_deq, 0.0);
    }

    #[test]
    fn batched_breakdown_runs_the_batch_paths() {
        let mut cfg = tiny(2);
        cfg.workload = Workload::BatchPairs(4);
        let b = run_breakdown(0, &cfg);
        assert!(
            b.stats.enq_batches > 0 && b.stats.deq_batches > 0,
            "batched Table 2 never took the batch paths: {:?}",
            b.stats
        );
        assert!(b.pct_empty_deq >= 0.0 && b.pct_empty_deq <= 100.0);
    }

    #[test]
    fn generic_breakdown_counts_ring_backends() {
        // The ring backends count empty probes in `deq_empty`, disjoint
        // from the completed-dequeue counters (the workload stays far
        // below capacity, so no enqueue rejections here).
        let b = run_breakdown_on::<wfq_baselines::Scq>(&tiny(2));
        assert_eq!(
            b.stats.enqueues() + b.stats.dequeues() + b.stats.deq_empty,
            40_000,
            "SCQ breakdown lost operations: {:?}",
            b.stats
        );
        assert_eq!(b.pct_slow_enq, 0.0, "SCQ has no slow path");
    }

    #[test]
    #[should_panic(expected = "50%-enqueues")]
    fn rejects_wrong_workload() {
        let mut cfg = tiny(1);
        cfg.workload = Workload::Pairs;
        run_breakdown(0, &cfg);
    }

    #[test]
    fn table_renders_all_rows() {
        let b = run_breakdown(0, &tiny(2));
        let md = render_table2(&[b]);
        assert!(md.contains("% of slow-path enqueues"));
        assert!(md.contains("% of slow-path dequeues"));
        assert!(md.contains("% of empty dequeues"));
    }
}
