//! The Kogan–Petrank wait-free queue (PPoPP 2011) — the *previous*
//! state-of-the-art wait-free queue the paper positions itself against.
//!
//! §2: *"The first practical implementation of a wait-free queue was
//! proposed by Kogan and Petrank. Their queue is based on MS-Queue. To
//! achieve wait-freedom, it employs a priority-based helping scheme in
//! which faster threads help slower threads complete their pending
//! operations. In most cases, this queue does not perform as well as the
//! MS-Queue due to the overhead of its helping mechanism."*
//!
//! Every operation takes a *phase* number; each thread publishes an
//! operation descriptor in a shared state array, then helps every thread
//! with an equal-or-smaller phase before completing — that global helping
//! is what makes it wait-free, and also what makes it slow (one descriptor
//! allocation per operation, O(n) descriptor scans, CAS retry storms on
//! head/tail inherited from MS-Queue).
//!
//! ## Memory management
//!
//! The original is a Java algorithm that leans on garbage collection;
//! descriptors and dequeued nodes are reachable from the shared state
//! array in ways hazard pointers do not cleanly cover. Like the prior
//! work the paper criticizes for "assuming that a 3rd party garbage
//! collector would handle the matter", this baseline *defers* reclamation:
//! every allocation is logged and freed when the queue drops (an
//! arena-with-queue-lifetime). Memory therefore grows during a run —
//! which is itself a faithful reproduction of the baseline's practical
//! limitation, and is called out in EXPERIMENTS.md where it appears.

use core::sync::atomic::{AtomicI64, AtomicPtr, Ordering};

use std::sync::Mutex;
use wfq_sync::CachePadded;

use crate::{BenchQueue, QueueHandle};

/// Maximum number of registered threads (the state array is fixed-size,
/// as in the original algorithm).
pub const MAX_THREADS: usize = 64;

const NO_TID: i64 = -1;

struct Node {
    value: u64,
    enq_tid: i64,
    deq_tid: AtomicI64,
    next: AtomicPtr<Node>,
}

impl Node {
    fn alloc(value: u64, enq_tid: i64) -> *mut Node {
        Box::into_raw(Box::new(Node {
            value,
            enq_tid,
            deq_tid: AtomicI64::new(NO_TID),
            next: AtomicPtr::new(core::ptr::null_mut()),
        }))
    }
}

/// Immutable operation descriptor; a new one is published per transition
/// (the original's `OpDesc`).
struct OpDesc {
    phase: u64,
    pending: bool,
    enqueue: bool,
    node: *mut Node,
}

impl OpDesc {
    fn alloc(phase: u64, pending: bool, enqueue: bool, node: *mut Node) -> *mut OpDesc {
        Box::into_raw(Box::new(OpDesc {
            phase,
            pending,
            enqueue,
            node,
        }))
    }
}

/// The Kogan–Petrank wait-free queue.
pub struct KpQueue {
    head: CachePadded<AtomicPtr<Node>>,
    tail: CachePadded<AtomicPtr<Node>>,
    /// Per-thread operation descriptors (the `state` array).
    state: Box<[AtomicPtr<OpDesc>]>,
    /// Registration bitmap-ish: next free tid and recycled tids.
    tids: Mutex<TidPool>,
    /// Deferred-reclamation logs (descriptors and nodes), freed on drop.
    garbage: Mutex<Garbage>,
}

struct TidPool {
    next: usize,
    free: Vec<usize>,
}

#[derive(Default)]
struct Garbage {
    nodes: Vec<*mut Node>,
    descs: Vec<*mut OpDesc>,
}

// SAFETY: all shared mutation is via atomics; deferred frees happen with
// exclusive access at drop.
unsafe impl Send for KpQueue {}
unsafe impl Sync for KpQueue {}

/// Per-thread handle for [`KpQueue`].
pub struct KpHandle<'q> {
    q: &'q KpQueue,
    tid: usize,
    /// Allocation log, merged into the queue's garbage on drop.
    nodes: Vec<*mut Node>,
    descs: Vec<*mut OpDesc>,
}

// SAFETY: handle-local logs are exclusively owned.
unsafe impl Send for KpHandle<'_> {}

impl KpQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let sentinel = Node::alloc(0, NO_TID);
        let state: Box<[AtomicPtr<OpDesc>]> = (0..MAX_THREADS)
            .map(|_| {
                // Initial descriptor: phase 0, not pending.
                AtomicPtr::new(OpDesc::alloc(0, false, true, core::ptr::null_mut()))
            })
            .collect();
        let mut garbage = Garbage::default();
        garbage.nodes.push(sentinel);
        for s in state.iter() {
            garbage.descs.push(s.load(Ordering::Relaxed));
        }
        Self {
            head: CachePadded::new(AtomicPtr::new(sentinel)),
            tail: CachePadded::new(AtomicPtr::new(sentinel)),
            state,
            tids: Mutex::new(TidPool {
                next: 0,
                free: Vec::new(),
            }),
            garbage: Mutex::new(garbage),
        }
    }

    /// Registers the calling thread. Panics if more than [`MAX_THREADS`]
    /// handles are live simultaneously.
    pub fn register(&self) -> KpHandle<'_> {
        let mut pool = self.tids.lock().unwrap();
        let tid = pool.free.pop().unwrap_or_else(|| {
            let t = pool.next;
            assert!(t < MAX_THREADS, "KpQueue supports at most {MAX_THREADS} threads");
            pool.next += 1;
            t
        });
        KpHandle {
            q: self,
            tid,
            nodes: Vec::new(),
            descs: Vec::new(),
        }
    }

    #[inline]
    fn desc(&self, tid: usize) -> &OpDesc {
        // SAFETY: descriptors are never freed while the queue lives.
        unsafe { &*self.state[tid].load(Ordering::SeqCst) }
    }

    /// Phase assignment: one greater than any announced phase.
    fn max_phase(&self) -> u64 {
        let mut max = 0;
        for s in self.state.iter() {
            // SAFETY: as above.
            let d = unsafe { &*s.load(Ordering::SeqCst) };
            max = max.max(d.phase);
        }
        max
    }

    fn is_still_pending(&self, tid: usize, phase: u64) -> bool {
        let d = self.desc(tid);
        d.pending && d.phase <= phase
    }

    /// Helps every thread whose announced phase is ≤ `phase` (the global
    /// helping loop that buys wait-freedom).
    fn help(&self, h: &mut KpHandle<'_>, phase: u64) {
        for tid in 0..self.state.len() {
            let d = self.desc(tid);
            if d.pending && d.phase <= phase {
                if d.enqueue {
                    self.help_enq(h, tid, phase);
                } else {
                    self.help_deq(h, tid, phase);
                }
            }
        }
    }

    fn help_enq(&self, _h: &mut KpHandle<'_>, tid: usize, phase: u64) {
        while self.is_still_pending(tid, phase) {
            let last = self.tail.load(Ordering::SeqCst);
            // SAFETY: nodes are never freed while the queue lives.
            let next = unsafe { (*last).next.load(Ordering::SeqCst) };
            if last != self.tail.load(Ordering::SeqCst) {
                continue;
            }
            if next.is_null() {
                if self.is_still_pending(tid, phase) {
                    let node = self.desc(tid).node;
                    // SAFETY: as above.
                    if unsafe {
                        (*last)
                            .next
                            .compare_exchange(
                                core::ptr::null_mut(),
                                node,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            )
                            .is_ok()
                    } {
                        self.help_finish_enq(_h);
                        return;
                    }
                }
            } else {
                self.help_finish_enq(_h);
            }
        }
    }

    fn help_finish_enq(&self, h: &mut KpHandle<'_>) {
        let last = self.tail.load(Ordering::SeqCst);
        // SAFETY: nodes live for the queue's lifetime.
        let next = unsafe { (*last).next.load(Ordering::SeqCst) };
        if next.is_null() {
            return;
        }
        // SAFETY: as above.
        let enq_tid = unsafe { (*next).enq_tid };
        if enq_tid != NO_TID {
            let tid = enq_tid as usize;
            let cur_ptr = self.state[tid].load(Ordering::SeqCst);
            // SAFETY: descriptors live for the queue's lifetime.
            let cur = unsafe { &*cur_ptr };
            if last == self.tail.load(Ordering::SeqCst) && cur.node == next {
                let newd = OpDesc::alloc(cur.phase, false, true, next);
                h.descs.push(newd);
                let _ = self.state[tid].compare_exchange(
                    cur_ptr,
                    newd,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                let _ =
                    self.tail
                        .compare_exchange(last, next, Ordering::SeqCst, Ordering::SeqCst);
            }
        } else {
            // Sentinel-enqueued node (not produced by this algorithm's
            // enqueue): just swing the tail.
            let _ = self
                .tail
                .compare_exchange(last, next, Ordering::SeqCst, Ordering::SeqCst);
        }
    }

    fn help_deq(&self, h: &mut KpHandle<'_>, tid: usize, phase: u64) {
        while self.is_still_pending(tid, phase) {
            let first = self.head.load(Ordering::SeqCst);
            let last = self.tail.load(Ordering::SeqCst);
            // SAFETY: nodes live for the queue's lifetime.
            let next = unsafe { (*first).next.load(Ordering::SeqCst) };
            if first != self.head.load(Ordering::SeqCst) {
                continue;
            }
            if first == last {
                if next.is_null() {
                    // Queue empty: complete with a null node (EMPTY).
                    let cur_ptr = self.state[tid].load(Ordering::SeqCst);
                    // SAFETY: as above.
                    let cur = unsafe { &*cur_ptr };
                    if last == self.tail.load(Ordering::SeqCst)
                        && self.is_still_pending(tid, phase)
                    {
                        let newd = OpDesc::alloc(cur.phase, false, false, core::ptr::null_mut());
                        h.descs.push(newd);
                        let _ = self.state[tid].compare_exchange(
                            cur_ptr,
                            newd,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                    }
                } else {
                    // Tail lagging: help the enqueue along first.
                    self.help_finish_enq(h);
                }
            } else {
                let cur_ptr = self.state[tid].load(Ordering::SeqCst);
                // SAFETY: as above.
                let cur = unsafe { &*cur_ptr };
                if !self.is_still_pending(tid, phase) {
                    break;
                }
                if first == self.head.load(Ordering::SeqCst) && cur.node != first {
                    // Record the candidate head in the descriptor first.
                    let newd = OpDesc::alloc(cur.phase, true, false, first);
                    h.descs.push(newd);
                    if self
                        .state[tid]
                        .compare_exchange(cur_ptr, newd, Ordering::SeqCst, Ordering::SeqCst)
                        .is_err()
                    {
                        continue;
                    }
                }
                // SAFETY: as above.
                let _ = unsafe {
                    (*first).deq_tid.compare_exchange(
                        NO_TID,
                        tid as i64,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                };
                self.help_finish_deq(h);
            }
        }
    }

    fn help_finish_deq(&self, h: &mut KpHandle<'_>) {
        let first = self.head.load(Ordering::SeqCst);
        // SAFETY: nodes live for the queue's lifetime.
        let next = unsafe { (*first).next.load(Ordering::SeqCst) };
        let tid = unsafe { (*first).deq_tid.load(Ordering::SeqCst) };
        if tid != NO_TID {
            let tid = tid as usize;
            let cur_ptr = self.state[tid].load(Ordering::SeqCst);
            // SAFETY: descriptors live for the queue's lifetime.
            let cur = unsafe { &*cur_ptr };
            if first == self.head.load(Ordering::SeqCst) && !next.is_null() {
                let newd = OpDesc::alloc(cur.phase, false, false, cur.node);
                h.descs.push(newd);
                let _ = self.state[tid].compare_exchange(
                    cur_ptr,
                    newd,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                let _ =
                    self.head
                        .compare_exchange(first, next, Ordering::SeqCst, Ordering::SeqCst);
            }
        }
    }
}

impl Default for KpQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for KpQueue {
    fn drop(&mut self) {
        let g = self.garbage.get_mut().unwrap();
        for &d in &g.descs {
            // SAFETY: exclusive access at drop; every descriptor was logged
            // exactly once.
            unsafe { drop(Box::from_raw(d)) };
        }
        for &n in &g.nodes {
            // SAFETY: as above; nodes are logged exactly once (list links
            // are not followed, so no double free).
            unsafe { drop(Box::from_raw(n)) };
        }
    }
}

impl KpHandle<'_> {
    /// Enqueues `v` (wait-free via phase-ordered helping).
    pub fn enqueue(&mut self, v: u64) {
        let q = self.q;
        let phase = q.max_phase() + 1;
        let node = Node::alloc(v, self.tid as i64);
        self.nodes.push(node);
        let desc = OpDesc::alloc(phase, true, true, node);
        self.descs.push(desc);
        q.state[self.tid].store(desc, Ordering::SeqCst);
        q.help(
            // Reborrow dance: help mutates only the allocation logs.
            unsafe { &mut *(self as *mut Self) },
            phase,
        );
        q.help_finish_enq(unsafe { &mut *(self as *mut Self) });
    }

    /// Dequeues the oldest value (wait-free), or `None` if empty.
    pub fn dequeue(&mut self) -> Option<u64> {
        let q = self.q;
        let phase = q.max_phase() + 1;
        let desc = OpDesc::alloc(phase, true, false, core::ptr::null_mut());
        self.descs.push(desc);
        q.state[self.tid].store(desc, Ordering::SeqCst);
        q.help(unsafe { &mut *(self as *mut Self) }, phase);
        q.help_finish_deq(unsafe { &mut *(self as *mut Self) });
        let node = q.desc(self.tid).node;
        if node.is_null() {
            return None; // EMPTY
        }
        // The descriptor records the *old* head; the dequeued value lives
        // in its successor (which becomes the new sentinel).
        // SAFETY: nodes live for the queue's lifetime.
        let next = unsafe { (*node).next.load(Ordering::SeqCst) };
        debug_assert!(!next.is_null());
        Some(unsafe { (*next).value })
    }
}

impl Drop for KpHandle<'_> {
    fn drop(&mut self) {
        let mut g = self.q.garbage.lock().unwrap();
        g.nodes.append(&mut self.nodes);
        g.descs.append(&mut self.descs);
        self.q.tids.lock().unwrap().free.push(self.tid);
    }
}

impl QueueHandle for KpHandle<'_> {
    fn enqueue(&mut self, v: u64) {
        KpHandle::enqueue(self, v);
    }
    fn dequeue(&mut self) -> Option<u64> {
        KpHandle::dequeue(self)
    }
}

impl BenchQueue for KpQueue {
    type Handle<'q> = KpHandle<'q>;
    const NAME: &'static str = "KPQUEUE";
    fn new() -> Self {
        KpQueue::new()
    }
    fn register(&self) -> Self::Handle<'_> {
        KpQueue::register(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn fifo_single_thread() {
        conformance::fifo_single_thread::<KpQueue>();
    }

    #[test]
    fn interleaved() {
        conformance::interleaved_single_thread::<KpQueue>();
    }

    #[test]
    fn mpmc_conservation() {
        conformance::mpmc_conservation::<KpQueue>(2, 2, 1_500);
    }

    #[test]
    fn tid_recycling() {
        let q = KpQueue::new();
        let t0 = {
            let h = q.register();
            h.tid
        };
        let h2 = q.register();
        assert_eq!(h2.tid, t0, "dropped tid must be recycled");
    }

    #[test]
    fn drop_frees_all_logged_allocations() {
        // Mostly a sanitizer target: heavy traffic then drop.
        let q = KpQueue::new();
        {
            let mut h = q.register();
            for v in 1..=2_000 {
                h.enqueue(v);
            }
            for _ in 0..1_000 {
                h.dequeue();
            }
        }
        drop(q);
    }

    #[test]
    fn empty_dequeue_is_none() {
        let q = KpQueue::new();
        let mut h = q.register();
        assert_eq!(h.dequeue(), None);
        h.enqueue(3);
        assert_eq!(h.dequeue(), Some(3));
        assert_eq!(h.dequeue(), None);
    }
}
