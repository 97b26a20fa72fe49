//! The multi-backend queue interface.
//!
//! [`QueueBackend`] is the production API every queue in this repository —
//! the paper's wait-free queue and all of its rivals — is operated
//! through. It grew out of the benchmark harness's `BenchQueue` trait
//! (which `wfq-baselines` still re-exports under that name): the harness
//! needed a uniform way to drive very different queues, and once bounded
//! mode, batching and telemetry existed on the wait-free queue the uniform
//! surface became the natural *primary* API rather than a bench shim.
//!
//! The trait ships defaults for everything beyond `enqueue`/`dequeue`, so
//! a minimal backend is four items (`Handle`, `NAME`, `new`, `register`)
//! and richer backends override exactly the capabilities they have:
//!
//! | Capability | Default | Overridden by |
//! |---|---|---|
//! | `try_enqueue` (backpressure) | always accepts | WF bounded mode, SCQ ring |
//! | batch ops | element loop | WF one-FAA batches |
//! | `stats()` | all-zero | WF, SCQ |
//! | `gauges()` | `None` | WF |
//! | `reclaim_hint()` | no-op | WF (hazard-bounded reclamation) |
//!
//! Handles are `&mut self` because every implementation keeps per-thread
//! state (peer cursors, hazard mirrors, stat counters) that must not be
//! shared; the queue itself is the `Sync` object.

use crate::{Full, Gauges, OpSample, QueueStats};

/// A per-thread handle through which a queue backend is operated.
pub trait BackendHandle: Send {
    /// Enqueues `v` (must avoid the implementation's reserved patterns:
    /// use `1 ..= u64::MAX - 2`). On a bounded backend at capacity this
    /// may block until space frees; use [`Self::try_enqueue`] for
    /// backpressure instead.
    fn enqueue(&mut self, v: u64);

    /// Dequeues the oldest value, or `None` if the queue appeared empty.
    fn dequeue(&mut self) -> Option<u64>;

    /// Fallible enqueue: `Err(Full)` hands the value back to the caller
    /// when the backend is at capacity (a bounded ring's fixed capacity,
    /// or the wait-free queue's segment ceiling). The default accepts
    /// unconditionally — correct for every unbounded backend.
    fn try_enqueue(&mut self, v: u64) -> Result<(), Full> {
        self.enqueue(v);
        Ok(())
    }

    /// Enqueues every value in `vs` in order. The default is an element
    /// loop; queues with a native batch fast path (one FAA per batch)
    /// override it, so the harness's `--batch` workload compares each
    /// queue's best effort at the same shape.
    fn enqueue_batch(&mut self, vs: &[u64]) {
        for &v in vs {
            self.enqueue(v);
        }
    }

    /// Fallible batch enqueue: all-or-nothing on backends with native
    /// admission (the wait-free queue prices the whole batch up front);
    /// the default loops `try_enqueue` and reports `Full` at the first
    /// rejection, having enqueued the prefix — callers that need strict
    /// all-or-nothing must use a backend that overrides this.
    fn try_enqueue_batch(&mut self, vs: &[u64]) -> Result<(), Full> {
        for &v in vs {
            self.try_enqueue(v)?;
        }
        Ok(())
    }

    /// Dequeues up to `max` values into `out`, returning how many were
    /// appended. The default loops `dequeue` and stops at the first
    /// `None`; native implementations claim the whole run with one FAA.
    fn dequeue_batch(&mut self, out: &mut Vec<u64>, max: usize) -> usize {
        let mut got = 0;
        while got < max {
            match self.dequeue() {
                Some(v) => {
                    out.push(v);
                    got += 1;
                }
                None => break,
            }
        }
        got
    }

    /// Execution-path sample of this handle's most recent single-value
    /// operation, for latency attribution (`wfq_harness::attribution`).
    /// The default reports `None` — correct for every backend without
    /// per-op path instrumentation; the wait-free queue overrides it when
    /// built with the `op-sample` feature.
    fn last_op_sample(&self) -> Option<OpSample> {
        None
    }
}

/// Uniform interface every queue backend implements.
///
/// Implemented by the wait-free queue ([`RawQueue`](crate::RawQueue)),
/// every baseline in `wfq-baselines`, and the SCQ bounded ring; the
/// benchmark harness, the differential shadow tests and the examples all
/// drive queues exclusively through this trait.
pub trait QueueBackend: Send + Sync + Sized {
    /// The per-thread handle type.
    type Handle<'q>: BackendHandle
    where
        Self: 'q;

    /// Display name used in reports (matches the paper's legend).
    const NAME: &'static str;

    /// Whether [`with_ceiling`](Self::with_ceiling) actually bounds memory
    /// for this implementation.
    const HONORS_CEILING: bool = false;

    /// Whether the backend has a *fixed* capacity (a bounded ring) rather
    /// than growing on demand. Fixed-capacity backends reject via
    /// [`BackendHandle::try_enqueue`] when full and their plain `enqueue`
    /// may block until space frees.
    const FIXED_CAPACITY: bool = false;

    /// Creates an empty queue.
    fn new() -> Self;

    /// Creates an empty queue bounded to at most `ceiling` live segments,
    /// where the implementation supports it (the wait-free queue's
    /// bounded-memory mode). Backends without a segment ceiling ignore it
    /// — the harness prints which queues honored it.
    fn with_ceiling(ceiling: Option<u64>) -> Self {
        let _ = ceiling;
        Self::new()
    }

    /// Registers the calling thread.
    fn register(&self) -> Self::Handle<'_>;

    /// Aggregate execution-path statistics (the paper's Table 2 taxonomy).
    /// Backends that do not instrument themselves report all-zero; the
    /// SCQ ring maps its protocol events onto the shared taxonomy
    /// (fast/EMPTY/rejected) so `table2 --backend` renders every backend
    /// through one layout.
    fn stats(&self) -> QueueStats {
        QueueStats::default()
    }

    /// Live operational gauges, where the backend exposes them (`None`
    /// otherwise). Only the wait-free queue currently has the full gauge
    /// set (segments, hazards, help-ring occupancy).
    fn gauges(&self) -> Option<Gauges> {
        None
    }

    /// Reclamation hook: invites the backend to run a garbage/recycling
    /// pass now (the wait-free queue's hazard-bounded segment
    /// reclamation). Purely advisory — a no-op on backends that reclaim
    /// inline (rings reuse slots in place) or not at all. Returns whether
    /// the backend has a reclamation concept wired to this hook.
    fn reclaim_hint(&self) -> bool {
        false
    }
}

mod wf_impl {
    use super::{BackendHandle, QueueBackend};
    use crate::{Config, Full, Gauges, Handle, OpSample, QueueStats, RawQueue};

    impl<const N: usize> BackendHandle for Handle<'_, N> {
        #[inline]
        fn enqueue(&mut self, v: u64) {
            Handle::enqueue(self, v);
        }
        #[inline]
        fn last_op_sample(&self) -> Option<OpSample> {
            Handle::last_op_sample(self)
        }
        #[inline]
        fn dequeue(&mut self) -> Option<u64> {
            Handle::dequeue(self)
        }
        #[inline]
        fn try_enqueue(&mut self, v: u64) -> Result<(), Full> {
            Handle::try_enqueue(self, v)
        }
        #[inline]
        fn enqueue_batch(&mut self, vs: &[u64]) {
            Handle::enqueue_batch(self, vs);
        }
        #[inline]
        fn try_enqueue_batch(&mut self, vs: &[u64]) -> Result<(), Full> {
            Handle::try_enqueue_batch(self, vs)
        }
        #[inline]
        fn dequeue_batch(&mut self, out: &mut Vec<u64>, max: usize) -> usize {
            Handle::dequeue_batch(self, out, max)
        }
    }

    impl<const N: usize> QueueBackend for RawQueue<N> {
        type Handle<'q> = Handle<'q, N>;
        const NAME: &'static str = "WF-10";
        const HONORS_CEILING: bool = true;
        fn new() -> Self {
            RawQueue::with_config(Config::wf10())
        }
        fn with_ceiling(ceiling: Option<u64>) -> Self {
            let mut config = Config::wf10();
            if let Some(c) = ceiling {
                config = config.with_segment_ceiling(c);
            }
            RawQueue::with_config(config)
        }
        fn register(&self) -> Self::Handle<'_> {
            RawQueue::register(self)
        }
        fn stats(&self) -> QueueStats {
            RawQueue::stats(self)
        }
        fn gauges(&self) -> Option<Gauges> {
            Some(RawQueue::gauges(self))
        }
        fn reclaim_hint(&self) -> bool {
            // Reclamation is driven by the queue's own boundary-crossing
            // elections (and, in bounded mode, enqueuer-forced passes);
            // the hook reports the capability without forcing a pass.
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RawQueue;

    /// A minimal backend: only the four required items, everything else
    /// from trait defaults. Pins the compile contract the refactor
    /// promises ("every existing baseline keeps compiling").
    struct Minimal(std::sync::Mutex<std::collections::VecDeque<u64>>);
    struct MinimalHandle<'q>(&'q Minimal);

    impl BackendHandle for MinimalHandle<'_> {
        fn enqueue(&mut self, v: u64) {
            self.0 .0.lock().unwrap().push_back(v);
        }
        fn dequeue(&mut self) -> Option<u64> {
            self.0 .0.lock().unwrap().pop_front()
        }
    }

    impl QueueBackend for Minimal {
        type Handle<'q> = MinimalHandle<'q>;
        const NAME: &'static str = "MINIMAL";
        fn new() -> Self {
            Minimal(std::sync::Mutex::new(std::collections::VecDeque::new()))
        }
        fn register(&self) -> Self::Handle<'_> {
            MinimalHandle(self)
        }
    }

    #[test]
    fn defaults_give_a_full_api_from_enqueue_and_dequeue() {
        let q = Minimal::new();
        let mut h = q.register();
        h.try_enqueue(1).unwrap();
        h.enqueue_batch(&[2, 3]);
        h.try_enqueue_batch(&[4, 5]).unwrap();
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 8), 5);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(q.stats(), QueueStats::default());
        assert!(q.gauges().is_none());
        assert!(!q.reclaim_hint());
        assert!(!Minimal::HONORS_CEILING);
        assert!(!Minimal::FIXED_CAPACITY);
    }

    #[test]
    fn wf_backend_exposes_stats_and_gauges_through_the_trait() {
        let q = <RawQueue as QueueBackend>::new();
        let mut h = q.register();
        BackendHandle::enqueue(&mut h, 7);
        assert_eq!(BackendHandle::dequeue(&mut h), Some(7));
        drop(h);
        let s = QueueBackend::stats(&q);
        assert_eq!(s.enq_fast + s.enq_slow, 1);
        let g = QueueBackend::gauges(&q).expect("WF exposes gauges");
        assert_eq!(g.tail_index, 1);
        assert!(q.reclaim_hint());
    }

    #[test]
    fn wf_with_ceiling_bounds_through_the_trait() {
        let q = <RawQueue<16> as QueueBackend>::with_ceiling(Some(2));
        let mut h = q.register();
        let mut rejected = false;
        for v in 1..=16 * 4_u64 {
            if h.try_enqueue(v).is_err() {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "segment ceiling ignored through the trait");
    }
}
