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
//!
//! Each node also has a fixed ordinal, its **slot**, and the queue's
//! [`NodeTable`] maps slots back to nodes. Cells name a slow-path request
//! by its node's slot (see [`crate::cell`]), so a helper that finds a name
//! in a cell looks the node up there. The table owns the nodes.

use core::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicU32, AtomicU64, Ordering};

use crate::cell::req_name;
use crate::request::{DeqReq, EnqReq};
use crate::segment::Segment;
use crate::stats::HandleStats;

/// Published hazard value meaning "no operation in flight".
pub(crate) const NO_HAZARD: i64 = -1;

/// A node in the handle ring. Shared: fields are atomics even where only
/// the owner writes, so cleaners and helpers can read them race-free.
pub(crate) struct HandleNode<const N: usize> {
    /// This node's ordinal in the queue's [`NodeTable`], fixed for the
    /// node's life (a recycled node keeps it). Cells name this node's
    /// requests by it, and it is the request-record slot in the durable
    /// image.
    pub slot: u32,
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
    /// The ring nodes a reclamation pass visits, kept between passes so a
    /// pass does not allocate once the list has grown to the ring's size.
    /// Owner-local: only the node's owner runs a pass with its node, so a
    /// plain `Cell` is sound here for the same reason as `last_sample`.
    pub reclaim_scratch: core::cell::Cell<Vec<*mut HandleNode<N>>>,
    /// Whether the owner's next one-shot dequeue must pass the emptiness
    /// guard (`H ≤ T`, DESIGN.md §9) before it may probe: set by a dequeue
    /// that returned EMPTY (or a batch whose probe cell witnessed it),
    /// cleared by a guard check that passes. A fresh or recycled node
    /// starts set, so a handle probes unguarded only right after it
    /// received a value. Owner-local, a plain `Cell` for the same reason
    /// as `reclaim_scratch`.
    pub empty_guard: core::cell::Cell<bool>,
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
    /// `slot` is the node's ordinal.
    pub fn boxed(seg: *mut Segment<N>, seg_id: u64, slot: u32) -> *mut HandleNode<N> {
        let node = Box::into_raw(Box::new(HandleNode {
            slot,
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
            reclaim_scratch: core::cell::Cell::new(Vec::new()),
            empty_guard: core::cell::Cell::new(true),
            #[cfg(feature = "op-sample")]
            last_sample: core::cell::Cell::new(None),
        }));
        // Self-loops until spliced into the ring.
        // SAFETY: `node` was just allocated and is exclusively owned.
        unsafe {
            (*node).next.store(node, Ordering::Relaxed);
            (*node).enq_peer.store(node, Ordering::Relaxed);
            (*node).deq_peer.store(node, Ordering::Relaxed);
        }
        node
    }

    /// The name cells store for this node's requests.
    #[inline]
    pub fn req_name(&self) -> u32 {
        req_name(self.slot)
    }

    /// The ring successor. Never null after registration.
    #[inline]
    pub fn next_node(&self) -> *mut HandleNode<N> {
        self.next.load(Ordering::Acquire)
    }

    /// Publishes this thread's hazard, ordered by the caller's next FAA.
    ///
    /// The owner stores its hazard and then reads its segment pointer; a
    /// cleaner CASes that pointer and then reads the hazard. That is the
    /// store-buffer pattern: the hazard store must be visible before the
    /// pointer read. **Contract:** the caller's next access to shared
    /// protocol state is the operation's SeqCst `fetch_add` on `T` or `H`,
    /// and every segment-pointer read of the operation comes after it.
    ///
    /// On x86_64 that FAA is a `lock xadd`, a full barrier that drains the
    /// store buffer before any later load, so the store is a plain `mov`
    /// (`Relaxed`) and the compiler fence keeps the compiler from moving it
    /// past the FAA — the authors' C code publishes `hzd_node_id` the same
    /// way, and crossbeam-epoch's x86 `pin()` makes the same substitution.
    /// Two locked instructions remain per fast-path operation: the FAA and
    /// one cell CAS.
    ///
    /// The C11 model does not give this: a `Relaxed` store is outside the
    /// total order `S`, so no SeqCst access orders it. Off x86_64, and
    /// under Miri (which checks that model), the store stays SeqCst and
    /// pairs with the SeqCst pointer loads (`find_cell`'s first load,
    /// `enq_slow`'s and the batch dequeue's local copies). DESIGN.md §3
    /// has the argument.
    #[inline]
    pub fn publish_hazard_before_faa(&self, seg_id: i64) {
        if cfg!(all(target_arch = "x86_64", not(miri))) {
            self.hzd_id.store(seg_id, Ordering::Relaxed);
            core::sync::atomic::compiler_fence(Ordering::SeqCst);
        } else {
            self.hzd_id.store(seg_id, Ordering::SeqCst);
        }
    }

    /// Clears the hazard at operation epilogue.
    #[inline]
    pub fn clear_hazard(&self) {
        self.hzd_id.store(NO_HAZARD, Ordering::Release);
    }
}

impl<const N: usize> Drop for HandleNode<N> {
    fn drop(&mut self) {
        let spare = *self.spare.get_mut();
        if !spare.is_null() {
            // SAFETY: the spare is owner-local and was never published.
            unsafe { Segment::dealloc(spare) };
        }
    }
}

/// Chunks in the [`NodeTable`] directory: chunk `c` holds `2 << c` slots,
/// so 31 chunks hold `2^32 − 2` slots, every name a `u32` cell word can
/// carry besides ⊥ and ⊤.
const CHUNKS: usize = 31;

/// Where `slot` lives: `(chunk, offset)`. Chunk `c` covers the names
/// `[2^(c+1), 2^(c+2))`, so the chunk is the name's bit length less two.
#[inline]
fn locate(slot: u32) -> (usize, usize) {
    let name = u64::from(slot) + 2;
    let c = name.ilog2() - 1;
    (c as usize, (name - (2 << c)) as usize)
}

/// The queue's handle nodes by slot: a wait-free slot → node map that
/// owns every node ever registered (paper §3.3's handle list).
///
/// A fixed directory of [`CHUNKS`] chunk pointers; chunk `c` is an array of
/// `2 << c` node pointers, allocated when the first slot in it is taken.
/// Slots are handed out densely from 0 and never reused: a dropped
/// handle's node stays in the table, in its slot, and a later
/// registration may adopt it. A lookup is two acquire loads (chunk, then
/// node) and never blocks.
///
/// **Ordering.** [`Self::register`] stores the node pointer (release)
/// before it splices the node into the ring (release), and a node's slot
/// can reach a cell only through that node: its owner reserves a cell with
/// its own name, and a helper reserves one for a peer it reached along the
/// ring. Either way the cell write happens after the table store, and a
/// reader that loads the name from the cell (SeqCst) therefore finds the
/// chunk and node pointers already published.
pub(crate) struct NodeTable<const N: usize> {
    chunks: [AtomicPtr<AtomicPtr<HandleNode<N>>>; CHUNKS],
    /// Slots handed out so far; entries below it are non-null.
    len: AtomicU32,
}

impl<const N: usize> NodeTable<N> {
    pub const fn new() -> Self {
        Self {
            chunks: [const { AtomicPtr::new(core::ptr::null_mut()) }; CHUNKS],
            len: AtomicU32::new(0),
        }
    }

    /// Number of nodes ever registered.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len.load(Ordering::Acquire)
    }

    /// The node in `slot`.
    ///
    /// # Safety
    ///
    /// `slot` is taken and its registration happens before this call: the
    /// caller read it from a node or from a cell (see the type's ordering
    /// note), or it is below a value [`Self::len`] returned.
    #[inline]
    pub unsafe fn get(&self, slot: u32) -> &HandleNode<N> {
        let (c, off) = locate(slot);
        let chunk = self.chunks[c].load(Ordering::Acquire);
        debug_assert!(!chunk.is_null(), "slot {slot} was never registered");
        // SAFETY: per the contract the chunk was published, and it holds
        // `2 << c > off` entries for as long as the table lives.
        let node = unsafe { (*chunk.add(off)).load(Ordering::Acquire) };
        debug_assert!(!node.is_null(), "slot {slot} was never registered");
        // SAFETY: per the contract the entry was published; nodes live
        // until the table drops.
        unsafe { &*node }
    }

    /// Every registered node, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &HandleNode<N>> + '_ {
        // SAFETY: every slot below `len` is taken, and the acquire load of
        // `len` orders its entry's store before the lookup.
        (0..self.len()).map(|slot| unsafe { self.get(slot) })
    }

    /// Makes a node for the next slot, with its pointers on `seg`, enters
    /// it in the table and splices it into the ring after the anchor (the
    /// node in slot 0).
    ///
    /// # Safety
    ///
    /// The caller holds the registry lock and the reclamation token (see
    /// `RawQueue::acquire_node`), which together exclude concurrent
    /// registrations and concurrent cleanup traversals; `seg` is live.
    pub unsafe fn register(&self, seg: *mut Segment<N>, seg_id: u64) -> *mut HandleNode<N> {
        // Relaxed: only the registry-lock holder stores `len`.
        let slot = self.len.load(Ordering::Relaxed);
        assert!(
            slot < u32::MAX - 1,
            "a queue holds at most 2^32 - 2 handle nodes"
        );
        let node = HandleNode::boxed(seg, seg_id, slot);
        let (c, off) = locate(slot);
        if off == 0 {
            let chunk: Box<[AtomicPtr<HandleNode<N>>]> = (0..2usize << c)
                .map(|_| AtomicPtr::new(core::ptr::null_mut()))
                .collect();
            self.chunks[c].store(Box::into_raw(chunk).cast(), Ordering::Release);
        }
        let chunk = self.chunks[c].load(Ordering::Relaxed);
        // SAFETY: chunk `c` exists (made above or for an earlier slot) and
        // holds `2 << c > off` entries; only the lock holder writes them.
        unsafe { (*chunk.add(off)).store(node, Ordering::Release) };
        self.len.store(slot + 1, Ordering::Release);
        if slot > 0 {
            // SAFETY: slot 0 was registered by an earlier call.
            let anchor = unsafe { self.get(0) };
            // SAFETY: `node` was just made and is ours until published.
            // Order matters: node.next is set before node is published
            // via anchor.next, so ring readers always see a closed ring.
            unsafe {
                let succ = anchor.next.load(Ordering::Acquire);
                (*node).next.store(succ, Ordering::Relaxed);
                (*node).enq_peer.store(succ, Ordering::Relaxed);
                (*node).deq_peer.store(succ, Ordering::Relaxed);
            }
            anchor.next.store(node, Ordering::Release);
        }
        node
    }
}

impl<const N: usize> Drop for NodeTable<N> {
    fn drop(&mut self) {
        let len = *self.len.get_mut();
        for (c, chunk) in self.chunks.iter_mut().enumerate() {
            let chunk = *chunk.get_mut();
            if chunk.is_null() {
                break;
            }
            let size = 2usize << c;
            // SAFETY: exclusive access; the chunk was made in `register` as
            // a boxed slice of `size` entries.
            let chunk = unsafe { Box::from_raw(core::ptr::slice_from_raw_parts_mut(chunk, size)) };
            let first = size - 2; // the slot at offset 0
            for (off, entry) in chunk.iter().enumerate() {
                if first + off >= len as usize {
                    break;
                }
                // SAFETY: every node was Box-allocated in `register` and
                // no handle or helper can reach it any more.
                unsafe { drop(Box::from_raw(entry.load(Ordering::Relaxed))) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Node = HandleNode<64>;

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
        let table = NodeTable::<64>::new();
        // SAFETY: single-threaded test; `seg` outlives the table's use.
        let nodes: Vec<_> = (0..4).map(|_| unsafe { table.register(seg, 0) }).collect();
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
        drop(table);
        unsafe { Segment::<64>::dealloc(seg) };
    }

    #[test]
    fn hazard_publish_and_clear() {
        let seg = Segment::<64>::alloc(0);
        let n = Node::boxed(seg, 0, 0);
        unsafe {
            (*n).publish_hazard_before_faa(5);
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
        let table = NodeTable::<64>::new();
        // SAFETY: as in `splice_builds_a_closed_ring`.
        let (a, b) = unsafe { (table.register(seg, 0), table.register(seg, 0)) };
        unsafe {
            // b was spliced after anchor a, so b's successor is a.
            assert_eq!((*b).next_node(), a);
            assert_eq!((*b).enq_peer.load(Ordering::Relaxed), a);
            assert_eq!((*b).deq_peer.load(Ordering::Relaxed), a);
        }
        drop(table);
        unsafe { Segment::<64>::dealloc(seg) };
    }

    #[test]
    fn chunks_tile_the_slot_space() {
        // Chunk c holds 2 << c slots and starts where chunk c − 1 ends.
        let mut next = 0u64;
        for c in 0..CHUNKS {
            let first = u32::try_from(next).unwrap();
            assert_eq!(locate(first), (c, 0), "first slot of chunk {c}");
            next += 2 << c;
            let last = u32::try_from(next - 1).unwrap();
            assert_eq!(locate(last), (c, (2 << c) - 1), "last slot of chunk {c}");
        }
        assert_eq!(next, (1u64 << 32) - 2, "every name but ⊥ and ⊤ has a slot");
        assert_eq!(u64::from(req_name(u32::MAX - 2)), u64::from(u32::MAX));
    }

    /// The slot table across chunk boundaries, on one thread: 70 handles
    /// fill chunks 0–5 (2, 4, 8, 16, 32 and 64 slots); dropped handles'
    /// nodes come back to later registrations in their old slots, and a
    /// lookup by slot finds the node that carries it.
    #[test]
    fn slot_table_spans_chunks_and_keeps_recycled_slots() {
        const HANDLES: u32 = 70;
        let q: crate::RawQueue<64> = crate::RawQueue::new();
        let mut handles: Vec<_> = (0..HANDLES).map(|_| Some(q.register())).collect();
        let node_of = |h: &crate::Handle<'_, 64>| crate::raw::test_node(h);
        assert_eq!(q.nodes.len(), HANDLES);
        assert_eq!(locate(HANDLES - 1).0, 5, "70 slots reach chunk 5");
        for (slot, h) in handles.iter().enumerate() {
            let node = node_of(h.as_ref().unwrap());
            // SAFETY: the node lives as long as the queue.
            assert_eq!(unsafe { (*node).slot }, slot as u32);
            // SAFETY: the slot is below `len`.
            assert!(core::ptr::eq(unsafe { q.nodes.get(slot as u32) }, node));
        }
        // Drop the handles at both ends of every chunk, and then some.
        let dropped: Vec<u32> = vec![0, 1, 2, 5, 6, 13, 14, 29, 30, 61, 62, 69];
        for &slot in &dropped {
            handles[slot as usize] = None;
        }
        let mut recycled: Vec<u32> = dropped
            .iter()
            .map(|_| {
                let h = q.register();
                // SAFETY: as above.
                let slot = unsafe { (*node_of(&h)).slot };
                // SAFETY: the slot was read from a node.
                assert!(core::ptr::eq(unsafe { q.nodes.get(slot) }, node_of(&h)));
                handles[slot as usize] = Some(h);
                slot
            })
            .collect();
        recycled.sort_unstable();
        assert_eq!(recycled, dropped, "recycled nodes must keep their slots");
        assert_eq!(q.nodes.len(), HANDLES, "recycling takes no new slot");
        // One more registration takes a fresh slot, still in chunk 5.
        let extra = q.register();
        // SAFETY: as above.
        assert_eq!(unsafe { (*node_of(&extra)).slot }, HANDLES);
        assert_eq!(q.nodes.iter().count(), HANDLES as usize + 1);
        for (slot, n) in q.nodes.iter().enumerate() {
            assert_eq!(n.slot, slot as u32);
        }
    }
}
