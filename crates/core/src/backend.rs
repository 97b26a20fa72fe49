//! The multi-backend queue interface.
//!
//! [`QueueBackend`] is the production API every queue in this repository —
//! the paper's wait-free queue and all of its rivals — is operated
//! through. It grew out of the benchmark harness's `BenchQueue` trait
//! (which `wfq-baselines` still re-exports under that name): the harness
//! needed a uniform way to drive very different queues, and once
//! telemetry existed on the wait-free queue the uniform surface became
//! the natural *primary* API rather than a bench shim.
//!
//! The trait ships defaults for everything beyond `enqueue`/`dequeue`, so
//! a minimal backend is four items (`Handle`, `NAME`, `new`, `register`)
//! and richer backends override exactly the capabilities they have:
//!
//! | Capability | Default | Overridden by |
//! |---|---|---|
//! | `try_enqueue` (backpressure) | always accepts | SCQ ring |
//! | `stats()` | all-zero | WF, SCQ |
//! | handle `stats()` | all-zero | WF |
//! | `gauges()` | `None` | WF |
//!
//! Handles are `&mut self` because every implementation keeps per-thread
//! state (peer cursors, hazard mirrors, stat counters) that must not be
//! shared; the queue itself is the `Sync` object.

use crate::{Full, Gauges, QueueStats};

/// A per-thread handle through which a queue backend is operated.
pub trait BackendHandle: Send {
    /// Enqueues `v` (must avoid the implementation's reserved patterns:
    /// use `1 ..= u64::MAX - 2`). On a bounded backend at capacity this
    /// may block until space frees; use [`Self::try_enqueue`] for
    /// backpressure instead.
    fn enqueue(&mut self, v: u64);

    /// Dequeues the oldest value, or `None` if the queue appeared empty.
    fn dequeue(&mut self) -> Option<u64>;

    /// Fallible enqueue: `Err(Full)` when a fixed-capacity backend (a
    /// bounded ring) is at capacity; the caller keeps the value. The
    /// default accepts unconditionally — correct for every unbounded
    /// backend, the wait-free queue included.
    fn try_enqueue(&mut self, v: u64) -> Result<(), Full> {
        self.enqueue(v);
        Ok(())
    }

    /// This handle's own execution-path counters, in the taxonomy of
    /// [`QueueBackend::stats`]. The latency attribution
    /// (`wfq_harness::attribution`) classifies each operation by the
    /// counters it moved. The default reports all-zero, so a backend that
    /// counts nothing per handle leaves every operation unclassified.
    fn stats(&self) -> QueueStats {
        QueueStats::default()
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

    /// Whether the backend has a *fixed* capacity (a bounded ring) rather
    /// than growing on demand. Fixed-capacity backends reject via
    /// [`BackendHandle::try_enqueue`] when full and their plain `enqueue`
    /// may block until space frees.
    const FIXED_CAPACITY: bool = false;

    /// Creates an empty queue.
    fn new() -> Self;

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
}

mod wf_impl {
    use super::{BackendHandle, QueueBackend};
    use crate::{Config, Gauges, Handle, QueueStats, RawQueue};

    impl<const N: usize> BackendHandle for Handle<'_, N> {
        #[inline]
        fn enqueue(&mut self, v: u64) {
            Handle::enqueue(self, v);
        }
        #[inline]
        fn dequeue(&mut self) -> Option<u64> {
            Handle::dequeue(self)
        }
        fn stats(&self) -> QueueStats {
            Handle::stats(self)
        }
    }

    impl<const N: usize> QueueBackend for RawQueue<N> {
        type Handle<'q> = Handle<'q, N>;
        const NAME: &'static str = "WF-10";
        fn new() -> Self {
            RawQueue::with_config(Config::wf10())
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
        h.enqueue(2);
        assert_eq!(h.dequeue(), Some(1));
        assert_eq!(h.dequeue(), Some(2));
        assert_eq!(h.dequeue(), None);
        assert_eq!(BackendHandle::stats(&h), QueueStats::default());
        assert_eq!(q.stats(), QueueStats::default());
        assert!(q.gauges().is_none());
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
    }
}
