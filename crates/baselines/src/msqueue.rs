//! The Michael–Scott lock-free queue (PODC 1996), with hazard pointers.
//!
//! The classic CAS-based non-blocking queue and the paper's example of the
//! *CAS retry problem*: under contention most head/tail CASes fail and the
//! work behind them is discarded, so throughput collapses as threads are
//! added (paper §2, Figure 2 where MS-Queue is the bottom line everywhere).
//!
//! Reclamation follows Michael's own hazard-pointer recipe (two hazards:
//! one for the node being inspected, one for its successor), matching the
//! paper's retrofit. CAS retry loops use bounded exponential backoff so the
//! baseline is a competently tuned one, not a straw man.

use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use wfq_reclaim::{Domain, HazardThread};
use wfq_sync::{inject, Backoff, CachePadded};

use crate::{BenchQueue, QueueHandle};

struct Node {
    val: u64,
    next: AtomicPtr<Node>,
}

impl Node {
    fn alloc(val: u64) -> *mut Node {
        Box::into_raw(Box::new(Node {
            val,
            next: AtomicPtr::new(core::ptr::null_mut()),
        }))
    }
}

unsafe fn node_deleter(p: *mut u8) {
    // SAFETY: deleter is only invoked on nodes produced by Node::alloc.
    unsafe { drop(Box::from_raw(p as *mut Node)) };
}

/// Michael & Scott's two-pointer lock-free queue.
///
/// ```
/// use wfq_baselines::{BenchQueue, QueueHandle, MsQueue};
/// let q = MsQueue::new();
/// let mut h = q.register();
/// h.enqueue(1);
/// assert_eq!(h.dequeue(), Some(1));
/// assert_eq!(h.dequeue(), None);
/// ```
pub struct MsQueue {
    head: CachePadded<AtomicPtr<Node>>,
    tail: CachePadded<AtomicPtr<Node>>,
    domain: Domain,
    /// Approximate outstanding-node counter (observability only).
    len_hint: AtomicU64,
}

// SAFETY: nodes are owned by the queue; all access is via atomics with
// hazard-pointer protection.
unsafe impl Send for MsQueue {}
unsafe impl Sync for MsQueue {}

/// Per-thread handle for [`MsQueue`].
pub struct MsHandle<'q> {
    q: &'q MsQueue,
    hazard: HazardThread<'q>,
}

impl MsQueue {
    /// Creates an empty queue (one dummy node).
    pub fn new() -> Self {
        let dummy = Node::alloc(0);
        Self {
            head: CachePadded::new(AtomicPtr::new(dummy)),
            tail: CachePadded::new(AtomicPtr::new(dummy)),
            domain: Domain::new(),
            len_hint: AtomicU64::new(0),
        }
    }

    /// Registers the calling thread.
    pub fn register(&self) -> MsHandle<'_> {
        MsHandle {
            q: self,
            hazard: self.domain.register(),
        }
    }

    /// Approximate number of enqueued-but-not-dequeued values.
    pub fn len_hint(&self) -> u64 {
        self.len_hint.load(Ordering::Relaxed)
    }
}

impl Default for MsQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for MsQueue {
    fn drop(&mut self) {
        // Exclusive access: free the remaining chain including the dummy.
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access; nodes were Box-allocated.
            let next = unsafe { (*cur).next.load(Ordering::Relaxed) };
            unsafe { drop(Box::from_raw(cur)) };
            cur = next;
        }
    }
}

impl MsHandle<'_> {
    /// Enqueues `v` (MS-Queue pseudocode E1–E12).
    pub fn enqueue(&mut self, v: u64) {
        let node = Node::alloc(v);
        let backoff = Backoff::new();
        loop {
            // Protect the tail we are about to inspect.
            let tail = self.hazard.protect(0, &self.q.tail);
            inject!("msq::enq::tail_protected");
            // SAFETY: `tail` is hazard-protected.
            let next = unsafe { (*tail).next.load(Ordering::Acquire) };
            if tail != self.q.tail.load(Ordering::Acquire) {
                continue; // stale snapshot
            }
            if next.is_null() {
                // SAFETY: as above.
                if unsafe {
                    (*tail)
                        .next
                        .compare_exchange(
                            core::ptr::null_mut(),
                            node,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                } {
                    // Swing tail; failure is fine (someone else did it).
                    let _ = self.q.tail.compare_exchange(
                        tail,
                        node,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                    break;
                }
                backoff.spin(); // CAS retry problem, softened
            } else {
                // Help lagging tail forward.
                let _ =
                    self.q
                        .tail
                        .compare_exchange(tail, next, Ordering::SeqCst, Ordering::SeqCst);
            }
        }
        self.hazard.clear(0);
        self.q.len_hint.fetch_add(1, Ordering::Relaxed);
    }

    /// Dequeues the oldest value (MS-Queue pseudocode D1–D20).
    pub fn dequeue(&mut self) -> Option<u64> {
        let backoff = Backoff::new();
        let result = loop {
            let head = self.hazard.protect(0, &self.q.head);
            let tail = self.q.tail.load(Ordering::Acquire);
            // SAFETY: `head` is hazard-protected.
            let next = unsafe { (*head).next.load(Ordering::Acquire) };
            // Protect `next` before dereferencing it.
            self.hazard.set(1, next);
            inject!("msq::deq::next_protected");
            if head != self.q.head.load(Ordering::Acquire) {
                continue; // head moved; next may be junk
            }
            if next.is_null() {
                break None; // empty
            }
            if head == tail {
                // Tail is lagging: help it, then retry.
                let _ =
                    self.q
                        .tail
                        .compare_exchange(tail, next, Ordering::SeqCst, Ordering::SeqCst);
                continue;
            }
            // SAFETY: `next` is hazard-protected and validated reachable.
            let val = unsafe { (*next).val };
            inject!("msq::deq::pre_unlink");
            if self
                .q
                .head
                .compare_exchange(head, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                // SAFETY: `head` was unlinked by our CAS; nobody can reach
                // it again; hazard scan defers the actual free.
                unsafe { self.hazard.retire(head as *mut u8, node_deleter) };
                break Some(val);
            }
            backoff.spin();
        };
        self.hazard.clear(0);
        self.hazard.clear(1);
        if result.is_some() {
            self.q.len_hint.fetch_sub(1, Ordering::Relaxed);
        }
        result
    }
}

impl QueueHandle for MsHandle<'_> {
    fn enqueue(&mut self, v: u64) {
        MsHandle::enqueue(self, v);
    }
    fn dequeue(&mut self) -> Option<u64> {
        MsHandle::dequeue(self)
    }
}

impl BenchQueue for MsQueue {
    type Handle<'q> = MsHandle<'q>;
    const NAME: &'static str = "MSQUEUE";
    fn new() -> Self {
        MsQueue::new()
    }
    fn register(&self) -> Self::Handle<'_> {
        MsQueue::register(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn fifo_single_thread() {
        conformance::fifo_single_thread::<MsQueue>();
    }

    #[test]
    fn interleaved() {
        conformance::interleaved_single_thread::<MsQueue>();
    }

    #[test]
    fn mpmc_conservation() {
        conformance::mpmc_conservation::<MsQueue>(2, 2, 3_000);
    }

    #[test]
    fn len_hint_tracks_net_traffic() {
        let q = MsQueue::new();
        let mut h = q.register();
        for v in 1..=10 {
            h.enqueue(v);
        }
        assert_eq!(q.len_hint(), 10);
        for _ in 0..4 {
            h.dequeue();
        }
        assert_eq!(q.len_hint(), 6);
    }

    #[test]
    fn drop_with_leftovers_does_not_leak_or_crash() {
        let q = MsQueue::new();
        let mut h = q.register();
        for v in 1..=100 {
            h.enqueue(v);
        }
        drop(h);
        drop(q); // frees the remaining 100 nodes + dummy
    }

    #[test]
    fn nodes_are_reclaimed_during_operation() {
        // Run enough traffic that hazard scans must fire; the real check is
        // that this doesn't crash under ASAN-like conditions and values
        // stay intact.
        let q = MsQueue::new();
        let mut h = q.register();
        for round in 0..200u64 {
            for v in 1..=64 {
                h.enqueue(round * 64 + v);
            }
            for v in 1..=64 {
                assert_eq!(h.dequeue(), Some(round * 64 + v));
            }
        }
    }
}
