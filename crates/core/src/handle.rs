//! Per-thread handles and the handle ring (paper Listing 2, `struct Handle`).
//!
//! Every thread operating on the queue owns a *handle node* carrying:
//!
//! - `head` / `tail`: segment pointers used to find cells without touching
//!   shared queue state (contention avoidance, §3.3). A reclamation pass may
//!   CAS a lagging thread's pointers forward so an idle thread cannot pin
//!   garbage ("Update head and tail pointers", §3.6).
//! - one [`EnqReq`] and one [`DeqReq`], reused across the thread's slow-path
//!   operations;
//! - `enq_peer` / `deq_peer`: the round-robin position in the helping scheme
//!   (Invariants 3 and 13);
//! - `hzd_id`: the published hazard, expressed as a **segment id** rather
//!   than a pointer. The authors' released C code does the same
//!   (`hzd_node_id`): a cleaner must never dereference another thread's
//!   hazard, because the hazard may be stale; comparing ids is always safe.
//!   `head_seg_id` / `tail_seg_id` are the owner-maintained mirrors the
//!   hazard is published *from* — they may lag the true pointers (a cleaner
//!   may have advanced them), which only makes the published hazard more
//!   conservative.
//!
//! All nodes ever registered are linked into a **ring** via `next`, which
//! helpers traverse round-robin. Nodes are never unlinked: a dropped
//! [`crate::Handle`] parks its node in a free pool for reuse by a future
//! registration (its requests are idle, so helpers skip it), and all nodes
//! are freed when the queue itself drops. This preserves the property the
//! helping scheme relies on: a peer pointer, once read, is valid forever.

use core::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicU64, Ordering};

use crate::request::{DeqReq, EnqReq};
use crate::segment::Segment;
use crate::stats::HandleStats;

/// Published hazard value meaning "no operation in flight".
pub(crate) const NO_HAZARD: i64 = -1;

/// A node in the handle ring. Shared: fields are atomics even where only
/// the owner writes, so cleaners and helpers can read them race-free.
pub(crate) struct HandleNode<const N: usize> {
    /// Segment pointer used for enqueues (paper `Handle.tail`).
    pub tail: AtomicPtr<Segment<N>>,
    /// Segment pointer used for dequeues (paper `Handle.head`).
    pub head: AtomicPtr<Segment<N>>,
    /// Next handle in the ring.
    pub next: AtomicPtr<HandleNode<N>>,
    /// Hazard: id of the oldest segment this thread may dereference, or
    /// [`NO_HAZARD`] when idle (paper `Handle.hzdp`, id form).
    pub hzd_id: AtomicI64,
    /// Owner mirror of `(*tail).id`, maintained at operation epilogue.
    pub tail_seg_id: AtomicU64,
    /// Owner mirror of `(*head).id`.
    pub head_seg_id: AtomicU64,
    /// This thread's enqueue help request.
    pub enq_req: EnqReq,
    /// This thread's dequeue help request.
    pub deq_req: DeqReq,
    /// Enqueue peer (owner-local; paper `Handle.enq.peer`).
    pub enq_peer: AtomicPtr<HandleNode<N>>,
    /// Pending peer-request id being helped (owner-local, 0 = none; paper
    /// `Handle.enq.id`).
    pub enq_help_id: AtomicU64,
    /// Dequeue peer (owner-local; paper `Handle.deq.peer`).
    pub deq_peer: AtomicPtr<HandleNode<N>>,
    /// Whether a live [`crate::Handle`] currently owns this node.
    pub active: AtomicBool,
    /// A spare, never-published segment kept for the next list extension
    /// (the authors' C code keeps `th->spare` for the same reason: the
    /// loser of a `find_cell` publication race recycles its segment
    /// instead of freeing it, and the winner's next extension skips the
    /// allocator entirely). Owner-local.
    pub spare: AtomicPtr<Segment<N>>,
    /// Path counters (Table 2).
    pub stats: HandleStats,
    /// Execution-path sample of the owner's most recent single-value
    /// operation (feature `op-sample`; see `crate::sample`). A plain
    /// `Cell` is sound here even though nodes are shared: only the owning
    /// thread ever touches this field, and nothing else is derived from it.
    #[cfg(feature = "op-sample")]
    pub last_sample: core::cell::Cell<Option<crate::sample::OpSample>>,
}

impl<const N: usize> HandleNode<N> {
    /// Creates a detached node whose pointers all target `seg` and whose
    /// ring/peer pointers point at itself (patched during registration).
    /// `slot` is the node's ordinal, stored on the enqueue request as its
    /// durable request-record slot.
    pub fn boxed(seg: *mut Segment<N>, seg_id: u64, slot: u64) -> *mut HandleNode<N> {
        let node = Box::into_raw(Box::new(HandleNode {
            tail: AtomicPtr::new(seg),
            head: AtomicPtr::new(seg),
            next: AtomicPtr::new(core::ptr::null_mut()),
            hzd_id: AtomicI64::new(NO_HAZARD),
            tail_seg_id: AtomicU64::new(seg_id),
            head_seg_id: AtomicU64::new(seg_id),
            enq_req: EnqReq::new(),
            deq_req: DeqReq::new(),
            enq_peer: AtomicPtr::new(core::ptr::null_mut()),
            enq_help_id: AtomicU64::new(0),
            deq_peer: AtomicPtr::new(core::ptr::null_mut()),
            active: AtomicBool::new(true),
            spare: AtomicPtr::new(core::ptr::null_mut()),
            stats: HandleStats::default(),
            #[cfg(feature = "op-sample")]
            last_sample: core::cell::Cell::new(None),
        }));
        // Self-loops until spliced into the ring.
        // SAFETY: `node` was just allocated and is exclusively owned.
        unsafe {
            (*node).enq_req.slot.store(slot, Ordering::Relaxed);
            (*node).next.store(node, Ordering::Relaxed);
            (*node).enq_peer.store(node, Ordering::Relaxed);
            (*node).deq_peer.store(node, Ordering::Relaxed);
        }
        node
    }

    /// The ring successor. Never null after registration.
    #[inline]
    pub fn next_node(&self) -> *mut HandleNode<N> {
        self.next.load(Ordering::Acquire)
    }

    /// Publishes this thread's hazard with a SeqCst store and no fence.
    ///
    /// The owner stores its hazard and then reads its segment pointer; a
    /// cleaner CASes that pointer and then reads the hazard. That is the
    /// store-buffer pattern, and with all four accesses SeqCst the C11
    /// total order forbids both reads missing the other side's write — so
    /// the pointer reads that follow a publish (`find_cell`'s first load,
    /// `enq_slow`'s and the batch dequeue's local copies) are SeqCst loads,
    /// which x86 lowers to plain `mov`s. DESIGN.md §3 has the argument.
    #[inline]
    pub fn publish_hazard(&self, seg_id: i64) {
        self.hzd_id.store(seg_id, Ordering::SeqCst);
    }

    /// Clears the hazard at operation epilogue.
    #[inline]
    pub fn clear_hazard(&self) {
        self.hzd_id.store(NO_HAZARD, Ordering::Release);
    }
}

/// Registry of all nodes ever created for a queue: the ring anchor, the
/// free pool for handle recycling, and the master list used on queue drop.
pub(crate) struct Registry<const N: usize> {
    /// Every node ever allocated (owned; freed on queue drop).
    pub all: Vec<*mut HandleNode<N>>,
    /// Inactive nodes available for reuse.
    pub free: Vec<*mut HandleNode<N>>,
}

impl<const N: usize> Registry<N> {
    pub fn new() -> Self {
        Self {
            all: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Splices `node` into the ring after the anchor (the first node).
    ///
    /// Caller must hold the registry lock *and* the reclamation token (see
    /// `RawQueue::register`), which together exclude concurrent splices and
    /// concurrent cleanup traversals.
    pub fn splice(&mut self, node: *mut HandleNode<N>) {
        if let Some(&anchor) = self.all.first() {
            // SAFETY: anchor and node are live (owned by `all` / just made);
            // order matters: node.next must be set before node is published
            // via anchor.next so ring readers always see a closed ring.
            unsafe {
                let succ = (*anchor).next.load(Ordering::Acquire);
                (*node).next.store(succ, Ordering::Relaxed);
                (*node).enq_peer.store(succ, Ordering::Relaxed);
                (*node).deq_peer.store(succ, Ordering::Relaxed);
                (*anchor).next.store(node, Ordering::Release);
            }
        }
        self.all.push(node);
    }
}

// SAFETY: the raw node pointers are owned by the queue and only mutated
// under the registry lock + reclamation token discipline.
unsafe impl<const N: usize> Send for Registry<N> {}

#[cfg(test)]
mod tests {
    use super::*;

    type Node = HandleNode<64>;

    fn free_nodes(reg: Registry<64>) {
        for &n in &reg.all {
            // SAFETY: test-owned nodes, no other references remain.
            unsafe { drop(Box::from_raw(n)) };
        }
    }

    #[test]
    fn fresh_node_self_loops() {
        let seg = Segment::<64>::alloc(0);
        let n = Node::boxed(seg, 0, 0);
        unsafe {
            assert_eq!((*n).next_node(), n);
            assert_eq!((*n).enq_peer.load(Ordering::Relaxed), n);
            assert_eq!((*n).hzd_id.load(Ordering::Relaxed), NO_HAZARD);
            drop(Box::from_raw(n));
            Segment::<64>::dealloc(seg);
        }
    }

    #[test]
    fn splice_builds_a_closed_ring() {
        let seg = Segment::<64>::alloc(0);
        let mut reg = Registry::<64>::new();
        let nodes: Vec<_> = (0..4).map(|_| Node::boxed(seg, 0, 0)).collect();
        for &n in &nodes {
            reg.splice(n);
        }
        // Walk the ring from each node: must visit all 4 and return.
        for &start in &nodes {
            let mut seen = 0;
            let mut cur = start;
            loop {
                seen += 1;
                // SAFETY: nodes are live.
                cur = unsafe { (*cur).next_node() };
                if cur == start {
                    break;
                }
                assert!(seen <= 4, "ring is not closed");
            }
            assert_eq!(seen, 4);
        }
        free_nodes(reg);
        unsafe { Segment::<64>::dealloc(seg) };
    }

    #[test]
    fn hazard_publish_and_clear() {
        let seg = Segment::<64>::alloc(0);
        let n = Node::boxed(seg, 0, 0);
        unsafe {
            (*n).publish_hazard(5);
            assert_eq!((*n).hzd_id.load(Ordering::SeqCst), 5);
            (*n).clear_hazard();
            assert_eq!((*n).hzd_id.load(Ordering::SeqCst), NO_HAZARD);
            drop(Box::from_raw(n));
            Segment::<64>::dealloc(seg);
        }
    }

    #[test]
    fn peers_initialized_to_ring_successor() {
        let seg = Segment::<64>::alloc(0);
        let mut reg = Registry::<64>::new();
        let a = Node::boxed(seg, 0, 0);
        let b = Node::boxed(seg, 0, 0);
        reg.splice(a);
        reg.splice(b);
        unsafe {
            // b was spliced after anchor a, so b's successor is a.
            assert_eq!((*b).next_node(), a);
            assert_eq!((*b).enq_peer.load(Ordering::Relaxed), a);
            assert_eq!((*b).deq_peer.load(Ordering::Relaxed), a);
        }
        free_nodes(reg);
        unsafe { Segment::<64>::dealloc(seg) };
    }
}
