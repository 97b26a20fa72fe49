//! Acceptance tests for the open-loop latency observatory: attribution
//! soundness (every sampled operation is exactly one of fast / slow /
//! helped) and the zero-overhead contract of the `op-sample` hooks.
//!
//! The attribution tests need the queue built with path sampling:
//!
//! ```text
//! cargo test -p wfq-integration --features op-sample --test openloop
//! ```
//!
//! Without the feature this file still runs the default-build half: the
//! hooks must be compile-time inert (`SAMPLING_ENABLED == false`, every
//! `last_op_sample()` a constant `None`, attribution permanently empty).

use wfq_baselines::BenchQueue;
use wfq_harness::{measure_open_loop, ArrivalSchedule, OpenLoopConfig};
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

#[cfg(not(feature = "op-sample"))]
mod default_build {
    use super::*;

    #[test]
    fn sampling_is_compiled_out() {
        assert!(!wfqueue::SAMPLING_ENABLED);
        let q = <RawQueue as BenchQueue>::new();
        let mut h = RawQueue::register(&q);
        h.enqueue(7);
        assert_eq!(h.dequeue(), Some(7));
        assert_eq!(h.last_op_sample(), None, "default build: hooks are inert");
    }

    #[test]
    fn open_loop_attribution_stays_empty_without_the_feature() {
        let m = measure_open_loop::<RawQueue>(&observatory_cfg(2, 2_000));
        assert_eq!(m.merged.count(), 2_000, "latency is recorded regardless");
        assert_eq!(m.attribution.sampled(), 0, "no samples without op-sample");
        assert!(m.attribution.counts_are_sound());
    }
}

#[cfg(feature = "op-sample")]
mod sampled_build {
    use super::*;
    use wfq_baselines::Wf0;

    #[test]
    fn every_operation_leaves_a_sample() {
        assert!(wfqueue::SAMPLING_ENABLED);
        let q = std::sync::Arc::new(<RawQueue as BenchQueue>::new());
        sample_each_op(RawQueue::register(&q));
        // The same handle code holds the queue through an Arc.
        sample_each_op(wfqueue::OwnedHandle::new(std::sync::Arc::clone(&q)));
    }

    fn sample_each_op<Q: wfqueue::QueueRef<1024>>(mut h: wfqueue::RawHandle<Q>) {
        assert_eq!(h.last_op_sample(), None, "no sample before the first op");
        h.enqueue(7);
        let s = h.last_op_sample().expect("enqueue must leave a sample");
        assert_eq!(s.side, wfqueue::OpSide::Enq);
        assert_eq!(h.dequeue(), Some(7));
        let s = h.last_op_sample().expect("dequeue must leave a sample");
        assert_eq!(s.side, wfqueue::OpSide::Deq);
    }

    /// The issue's acceptance criterion: under 16 threads, `fast + slow +
    /// helped` must account for **every** sampled operation — no op is
    /// double-counted, none vanishes — and on the WF backend every executed
    /// operation is sampled.
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
}
