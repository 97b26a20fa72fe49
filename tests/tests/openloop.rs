//! Acceptance tests for the open-loop latency observatory: attribution
//! soundness (every sampled operation is exactly one of fast / slow /
//! helped) on the wait-free backends, and no attribution where no path
//! counter moves (a baseline's operations).

use wfq_baselines::{BenchQueue, MutexQueue, Wf0};
use wfq_harness::{measure_open_loop, ArrivalSchedule, OpClass, OpenLoopConfig};
use wfqueue::RawQueue;

fn observatory_cfg(threads: usize, total_ops: u64) -> OpenLoopConfig {
    OpenLoopConfig {
        threads,
        // Far below even this host's capacity, so the run finishes quickly
        // and unsaturated; the soundness invariant is rate-independent.
        rate_ops_per_sec: 2e6,
        total_ops,
        schedule: ArrivalSchedule::FixedRate,
        invocations: 1,
        pin: false,
        ..OpenLoopConfig::default()
    }
}

#[test]
fn every_operation_leaves_a_sample() {
    let q = std::sync::Arc::new(<RawQueue as BenchQueue>::new());
    sample_each_op(RawQueue::register(&q));
    // The same handle code holds the queue through an Arc.
    sample_each_op(wfqueue::OwnedHandle::new(std::sync::Arc::clone(&q)));
}

fn sample_each_op<Q: wfqueue::QueueRef<1024>>(mut h: wfqueue::RawHandle<Q>) {
    let before = h.stats();
    h.enqueue(7);
    let enqueued = h.stats();
    assert_eq!(OpClass::of(&before, &enqueued), Some(OpClass::Fast));
    assert_eq!(h.dequeue(), Some(7));
    let dequeued = h.stats();
    assert_eq!(OpClass::of(&enqueued, &dequeued), Some(OpClass::Fast));
    assert_eq!(h.dequeue(), None);
    assert_eq!(
        OpClass::of(&dequeued, &h.stats()),
        Some(OpClass::Fast),
        "an EMPTY dequeue is a fast-path operation"
    );
}

/// Under 16 threads, `fast + slow + helped` must account for **every**
/// sampled operation — no op is double-counted, none vanishes — and on the
/// WF backend every executed operation is sampled.
#[test]
fn attribution_sums_are_sound_at_16_threads() {
    let m = measure_open_loop::<RawQueue>(&observatory_cfg(16, 16_000));
    assert_eq!(m.merged.count(), 16_000);
    assert!(
        m.attribution.counts_are_sound(),
        "fast+slow+helped must equal sampled: {}",
        m.attribution.render()
    );
    assert_eq!(
        m.attribution.sampled(),
        m.merged.count(),
        "WF backend: every op carries a path sample"
    );
    let (f, s, h) = m.attribution.shares();
    assert!(
        (f + s + h - 1.0).abs() < 1e-9,
        "shares must partition the sampled ops: {f} + {s} + {h}"
    );
}

/// Same invariant on WF-0 (patience 0), which falls back to the slow
/// path on the first failed FAA — the classes beyond `fast` get
/// exercised under contention without breaking the partition.
#[test]
fn attribution_sums_are_sound_on_the_slow_path_heavy_backend() {
    let m = measure_open_loop::<Wf0>(&observatory_cfg(16, 16_000));
    assert!(
        m.attribution.counts_are_sound(),
        "{}",
        m.attribution.render()
    );
    assert_eq!(m.attribution.sampled(), m.merged.count());
}

/// A backend whose handles count nothing leaves every operation
/// unsampled: latency is recorded, attribution stays empty.
#[test]
fn baseline_operations_stay_unsampled() {
    let m = measure_open_loop::<MutexQueue>(&observatory_cfg(2, 2_000));
    assert_eq!(m.merged.count(), 2_000, "latency is recorded regardless");
    assert_eq!(m.attribution.sampled(), 0);
    assert!(m.attribution.counts_are_sound());
}
