//! MS-Queue over epoch-based reclamation — the control arm for the
//! paper's §3.6 reclamation-overhead claims.
//!
//! Identical algorithm to [`crate::msqueue`], but nodes are protected by
//! pinning an epoch for the whole operation instead of publishing per-node
//! hazard pointers. Per operation that trades two hazard
//! publish-fence-revalidate cycles for one pin fence — the `reclaim`
//! criterion group measures the difference, alongside the wait-free
//! queue's scheme (which needs no extra fence at all on its fast path).

use core::sync::atomic::{AtomicPtr, Ordering};

use wfq_reclaim::ebr::{EbrDomain, EbrThread};
use wfq_sync::{Backoff, CachePadded};

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
    // SAFETY: only invoked on Node::alloc pointers.
    unsafe { drop(Box::from_raw(p as *mut Node)) };
}

/// Michael–Scott queue with epoch-based reclamation.
pub struct MsQueueEbr {
    head: CachePadded<AtomicPtr<Node>>,
    tail: CachePadded<AtomicPtr<Node>>,
    domain: EbrDomain,
}

// SAFETY: as for MsQueue; EBR defers frees past all pinned readers.
unsafe impl Send for MsQueueEbr {}
unsafe impl Sync for MsQueueEbr {}

/// Per-thread handle for [`MsQueueEbr`].
pub struct MsEbrHandle<'q> {
    q: &'q MsQueueEbr,
    epoch: EbrThread<'q>,
}

impl MsQueueEbr {
    /// Creates an empty queue (one dummy node).
    pub fn new() -> Self {
        let dummy = Node::alloc(0);
        Self {
            head: CachePadded::new(AtomicPtr::new(dummy)),
            tail: CachePadded::new(AtomicPtr::new(dummy)),
            domain: EbrDomain::new(),
        }
    }

    /// Registers the calling thread.
    pub fn register(&self) -> MsEbrHandle<'_> {
        MsEbrHandle {
            q: self,
            epoch: self.domain.register(),
        }
    }
}

impl Default for MsQueueEbr {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for MsQueueEbr {
    fn drop(&mut self) {
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access at drop.
            let next = unsafe { (*cur).next.load(Ordering::Relaxed) };
            unsafe { drop(Box::from_raw(cur)) };
            cur = next;
        }
    }
}

impl MsEbrHandle<'_> {
    /// Enqueues `v`.
    pub fn enqueue(&mut self, v: u64) {
        let node = Node::alloc(v);
        let guard = self.epoch.pin();
        let backoff = Backoff::new();
        loop {
            let tail = self.q.tail.load(Ordering::Acquire);
            // SAFETY: pinned — tail cannot be freed under us.
            let next = unsafe { (*tail).next.load(Ordering::Acquire) };
            if tail != self.q.tail.load(Ordering::Acquire) {
                continue;
            }
            if next.is_null() {
                // SAFETY: pinned.
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
                    let _ = self.q.tail.compare_exchange(
                        tail,
                        node,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                    break;
                }
                backoff.spin();
            } else {
                let _ =
                    self.q
                        .tail
                        .compare_exchange(tail, next, Ordering::SeqCst, Ordering::SeqCst);
            }
        }
        drop(guard);
    }

    /// Dequeues the oldest value.
    pub fn dequeue(&mut self) -> Option<u64> {
        let guard = self.epoch.pin();
        let backoff = Backoff::new();
        let unlinked = loop {
            let head = self.q.head.load(Ordering::Acquire);
            let tail = self.q.tail.load(Ordering::Acquire);
            // SAFETY: pinned.
            let next = unsafe { (*head).next.load(Ordering::Acquire) };
            if head != self.q.head.load(Ordering::Acquire) {
                continue;
            }
            if next.is_null() {
                break None;
            }
            if head == tail {
                let _ =
                    self.q
                        .tail
                        .compare_exchange(tail, next, Ordering::SeqCst, Ordering::SeqCst);
                continue;
            }
            // SAFETY: pinned; next is reachable.
            let val = unsafe { (*next).val };
            if self
                .q
                .head
                .compare_exchange(head, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break Some((head, val));
            }
            backoff.spin();
        };
        drop(guard);
        unlinked.map(|(head, val)| {
            // SAFETY: unlinked by our CAS; EBR defers the free past every
            // reader pinned at retirement time.
            unsafe { self.epoch.retire(head as *mut u8, node_deleter) };
            val
        })
    }
}

impl QueueHandle for MsEbrHandle<'_> {
    fn enqueue(&mut self, v: u64) {
        MsEbrHandle::enqueue(self, v);
    }
    fn dequeue(&mut self) -> Option<u64> {
        MsEbrHandle::dequeue(self)
    }
}

impl BenchQueue for MsQueueEbr {
    type Handle<'q> = MsEbrHandle<'q>;
    const NAME: &'static str = "MSQUEUE-EBR";
    fn new() -> Self {
        MsQueueEbr::new()
    }
    fn register(&self) -> Self::Handle<'_> {
        MsQueueEbr::register(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn fifo_single_thread() {
        conformance::fifo_single_thread::<MsQueueEbr>();
    }

    #[test]
    fn interleaved() {
        conformance::interleaved_single_thread::<MsQueueEbr>();
    }

    #[test]
    fn mpmc_conservation() {
        conformance::mpmc_conservation::<MsQueueEbr>(2, 2, 3_000);
    }

    #[test]
    fn nodes_reclaim_during_run() {
        let q = MsQueueEbr::new();
        let mut h = q.register();
        for round in 0..200u64 {
            for v in 1..=64 {
                h.enqueue(round * 64 + v);
            }
            for v in 1..=64 {
                assert_eq!(h.dequeue(), Some(round * 64 + v));
            }
        }
        // Garbage is bounded by the collect threshold plus one grace
        // period's worth, far below the 12800 nodes retired.
        assert!(h.epoch.retired_len() < 1_000);
    }

    #[test]
    fn drop_with_leftovers() {
        let q = MsQueueEbr::new();
        let mut h = q.register();
        for v in 1..=500 {
            h.enqueue(v);
        }
        drop(h);
        drop(q);
    }
}
