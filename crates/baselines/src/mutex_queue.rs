//! Lock-based reference queue: `Mutex<VecDeque<u64>>`.
//!
//! Not in the paper's Figure 2 (the paper compares against non-blocking and
//! combining designs), but indispensable as a sanity reference: it bounds
//! what "just use a lock" buys, and its latency tail under oversubscription
//! motivates the non-blocking designs — a descheduled lock holder stalls
//! everyone, which the `telemetry` example demonstrates.

use std::collections::VecDeque;

use std::sync::Mutex;

use crate::{BenchQueue, QueueHandle};

/// A mutex-protected ring-buffer queue.
pub struct MutexQueue {
    inner: Mutex<VecDeque<u64>>,
}

/// Per-thread handle for [`MutexQueue`] (stateless; the lock is global).
pub struct MutexHandle<'q> {
    q: &'q MutexQueue,
}

impl MutexQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(VecDeque::with_capacity(1024)),
        }
    }

    /// Registers the calling thread.
    pub fn register(&self) -> MutexHandle<'_> {
        MutexHandle { q: self }
    }

    /// Exact current length (takes the lock).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Whether the queue is currently empty (takes the lock).
    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().is_empty()
    }
}

impl Default for MutexQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl MutexHandle<'_> {
    /// Enqueues `v`.
    pub fn enqueue(&mut self, v: u64) {
        self.q.inner.lock().unwrap().push_back(v);
    }

    /// Dequeues the oldest value.
    pub fn dequeue(&mut self) -> Option<u64> {
        self.q.inner.lock().unwrap().pop_front()
    }
}

impl QueueHandle for MutexHandle<'_> {
    fn enqueue(&mut self, v: u64) {
        MutexHandle::enqueue(self, v);
    }
    fn dequeue(&mut self) -> Option<u64> {
        MutexHandle::dequeue(self)
    }
}

impl BenchQueue for MutexQueue {
    type Handle<'q> = MutexHandle<'q>;
    const NAME: &'static str = "MUTEX";
    fn new() -> Self {
        MutexQueue::new()
    }
    fn register(&self) -> Self::Handle<'_> {
        MutexQueue::register(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn fifo_single_thread() {
        conformance::fifo_single_thread::<MutexQueue>();
    }

    #[test]
    fn interleaved() {
        conformance::interleaved_single_thread::<MutexQueue>();
    }

    #[test]
    fn mpmc_conservation() {
        conformance::mpmc_conservation::<MutexQueue>(2, 2, 3_000);
    }

    #[test]
    fn len_is_exact() {
        let q = MutexQueue::new();
        let mut h = q.register();
        assert!(q.is_empty());
        h.enqueue(1);
        h.enqueue(2);
        assert_eq!(q.len(), 2);
        h.dequeue();
        assert_eq!(q.len(), 1);
    }
}
