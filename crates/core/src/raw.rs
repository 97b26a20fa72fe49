//! The wait-free queue over raw 64-bit values (paper Listings 1–4).
//!
//! This module is a line-by-line transcription of the paper's pseudocode;
//! comments cite the listing line numbers. The shared state is exactly the
//! paper's triple `(Q, H, T)` plus the reclamation word `I` (Listing 5);
//! everything else lives in per-thread [`HandleNode`]s.
//!
//! Memory-ordering note: every cross-thread protocol step (FAA, CAS, the
//! Dijkstra-protocol read pairs, the `T`/`H` emptiness reads) uses `SeqCst`,
//! which on x86_64 lowers to exactly the `lock`-prefixed instructions and
//! plain loads the paper's C implementation uses; pointer publication uses
//! acquire/release. There is no fence: on x86_64 the hazard is a plain
//! store that the operation's own FAA (`lock xadd`) orders before the
//! segment-pointer reads, as in the authors' C code; elsewhere it is a
//! SeqCst store, and the SeqCst pointer reads pair with the cleaner's
//! SeqCst CAS and hazard re-read (see [`crate::handle`] and DESIGN.md §3).
//! A fast-path operation thus issues two locked instructions on x86: the
//! FAA and one cell CAS (the enqueue's deposit or the dequeue's claim).

use core::sync::atomic::{AtomicI64, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wfq_sync::{inject, CachePadded};

use crate::cell::{
    is_valid_value, name_slot, Cell, DEQ_BOTTOM, ENQ_BOTTOM, ENQ_TOP, VAL_BOTTOM, VAL_TOP,
};
use crate::config::Config;
use crate::full::Full;
use crate::handle::{HandleNode, NodeTable, NO_HAZARD};
#[cfg(feature = "durable")]
use crate::persist::PersistSink;
use crate::persist::persist;
use crate::pool::SegmentPool;
use crate::sample::{op_sample, OpPath, OpSample};
use crate::segment::{find_cell, SegSource, Segment};
use crate::stats::{Gauges, HandleStats, QueueStats};
use crate::DEFAULT_SEGMENT_SIZE;

// Zero-overhead guard (the mirror of `wfq_obs::_ZERO_OVERHEAD_PROOF`):
// with `op-sample` off the sampling hook must expand to a constant
// expression — no store, no argument evaluation — so the instrumented
// operation epilogues carry no trace of the sampler. The runtime twin is
// the `op_sample_overhead` group of the `primitives` bench.
#[cfg(not(feature = "op-sample"))]
const _OP_SAMPLE_ZERO_OVERHEAD_PROOF: () =
    op_sample!(no_node, OpSide::Enq, OpPath::Fast, 0u64);

// Same guard for durable mode: with `durable` off the persist hooks at the
// three commit frontiers (DESIGN.md §12) must expand to a constant
// expression — no field access, no branch, no argument evaluation. The
// runtime twin is the `persist_overhead` group of the `primitives` bench.
#[cfg(not(feature = "durable"))]
const _PERSIST_ZERO_OVERHEAD_PROOF: () = persist!(no_queue, deposit(0u64, 0u64));

/// Result of `help_enq` (paper Listing 3, lines 90–127): the cell either
/// yields a value, is permanently unusable (⊤), or witnesses emptiness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HelpEnq {
    /// The cell holds (or received) this enqueued value.
    Value(u64),
    /// No enqueue will ever fill this cell.
    Top,
    /// The queue was observed empty at this cell (`T <= i`).
    Empty,
}

/// Result of one fast-path dequeue attempt. Every variant carries the cell
/// index visited, which the caller needs for the slow-path request id (on
/// failure) and the hazard-mirror update (always).
enum FastDeq {
    Value(u64, u64),
    Empty(u64),
    Fail(u64),
}

/// The paper's wait-free FIFO queue over raw `u64` values.
///
/// `N` is the segment size (cells per segment); the paper evaluates with
/// `N = 2^10`, the default. Values must satisfy `v != 0 && v != u64::MAX`
/// (the reserved ⊥/⊤ patterns); [`crate::WfQueue`] provides a typed wrapper
/// free of this restriction.
///
/// All operations go through a registered [`Handle`]:
///
/// ```
/// use wfqueue::RawQueue;
/// let q: RawQueue = RawQueue::new();
/// let mut h = q.register();
/// h.enqueue(7);
/// assert_eq!(h.dequeue(), Some(7));
/// assert_eq!(h.dequeue(), None); // EMPTY
/// ```
pub struct RawQueue<const N: usize = DEFAULT_SEGMENT_SIZE> {
    /// `Q`: the oldest live segment (Listing 2 line 21, Listing 5).
    pub(crate) q: CachePadded<AtomicPtr<Segment<N>>>,
    /// `T`: tail index; enqueues FAA this.
    pub(crate) tail_index: CachePadded<AtomicU64>,
    /// `H`: head index; dequeues FAA this.
    pub(crate) head_index: CachePadded<AtomicU64>,
    /// `I`: id of the oldest segment, or −1 while a cleaner (or a
    /// registration) holds the reclamation token (Listing 5 line 206).
    pub(crate) oldest_id: CachePadded<AtomicI64>,
    /// Every handle node ever registered, by slot; owns the nodes. Cells
    /// name slow-path requests by slot, and `help_enq` resolves them here.
    pub(crate) nodes: NodeTable<N>,
    /// The registry lock over the free pool of nodes whose handles were
    /// dropped; it also serialises appends to `nodes`.
    pub(crate) free_nodes: Mutex<Vec<*mut HandleNode<N>>>,
    /// Number of *live* handles (registered minus dropped). This — not
    /// `nodes.len()` — feeds the automatic MAX_GARBAGE threshold: under
    /// register/drop churn the ever-registered count inflates forever and
    /// would make reclamation permanently lazier.
    pub(crate) active_count: AtomicU64,
    /// Segment recycling pool and allocation gate (inert when unbounded).
    pub(crate) pool: SegmentPool<N>,
    pub(crate) config: Config,
    /// Durable mode: the persist sink mirroring the three commit
    /// frontiers, `None` for a volatile queue (DESIGN.md §12).
    #[cfg(feature = "durable")]
    pub(crate) persist: Option<std::sync::Arc<dyn PersistSink>>,
}

// SAFETY: the queue owns its segments and handle nodes; all shared access
// is via atomics following the paper's protocol. Values are plain u64s.
unsafe impl<const N: usize> Send for RawQueue<N> {}
unsafe impl<const N: usize> Sync for RawQueue<N> {}

pub(crate) mod sealed {
    pub trait Sealed {}

    /// Unnameable and unbuildable outside the crate, so only the crate
    /// can call [`QueueRef::raw`](super::QueueRef::raw).
    pub struct Token(pub(crate) ());
}

/// How a handle holds its queue: borrowed (`&'q`) or shared (`Arc`), of
/// either a [`RawQueue`] or a [`WfQueue`](crate::WfQueue). The trait is
/// sealed; each of its four implementors keeps the queue, and with it the
/// handle's ring node, alive for as long as the handle lives.
///
/// A typed handle trusts every value its raw queue delivers to be a box
/// it made, so code outside the crate cannot reach the `RawQueue` inside a
/// `WfQueue`, neither on a holder nor through the bound:
///
/// ```compile_fail
/// use wfqueue::{QueueRef, WfQueue};
/// let q: WfQueue<String> = WfQueue::new();
/// (&q).raw().register().enqueue(8);
/// ```
///
/// ```compile_fail
/// fn reach<Q: wfqueue::QueueRef<1024>>(q: &Q) -> &wfqueue::RawQueue {
///     q.raw()
/// }
/// ```
pub trait QueueRef<const N: usize>: sealed::Sealed {
    /// The raw queue the handle operates on.
    #[doc(hidden)]
    fn raw(&self, _: sealed::Token) -> &RawQueue<N>;
}

impl<const N: usize> sealed::Sealed for &RawQueue<N> {}
impl<const N: usize> QueueRef<N> for &RawQueue<N> {
    #[inline]
    fn raw(&self, _: sealed::Token) -> &RawQueue<N> {
        self
    }
}

impl<const N: usize> sealed::Sealed for Arc<RawQueue<N>> {}
impl<const N: usize> QueueRef<N> for Arc<RawQueue<N>> {
    #[inline]
    fn raw(&self, _: sealed::Token) -> &RawQueue<N> {
        self
    }
}

/// A registered per-thread handle, generic over how it holds its queue.
///
/// Use it through its aliases: [`Handle`] borrows a [`RawQueue`] (from
/// [`RawQueue::register`]) and [`OwnedHandle`] shares one through an
/// `Arc`; the typed handles ([`crate::TypedHandle`]) wrap one that holds a
/// [`WfQueue`](crate::WfQueue).
///
/// A handle must be used by one thread at a time (the type is `Send` but
/// not `Sync`, and its methods take `&mut self`, which enforces exactly
/// that). Dropping a handle parks its slot for reuse by later
/// registrations.
pub struct RawHandle<Q: QueueRef<N>, const N: usize = DEFAULT_SEGMENT_SIZE> {
    pub(crate) queue: Q,
    node: *mut HandleNode<N>,
}

/// A per-thread handle borrowing a [`RawQueue`].
pub type Handle<'q, const N: usize = DEFAULT_SEGMENT_SIZE> = RawHandle<&'q RawQueue<N>, N>;

/// A per-thread handle owning an `Arc` of its [`RawQueue`]: it can be
/// moved into a `std::thread::spawn` closure, and the queue lives exactly
/// as long as its last user.
pub type OwnedHandle<const N: usize = DEFAULT_SEGMENT_SIZE> = RawHandle<Arc<RawQueue<N>>, N>;

// SAFETY: a handle is an exclusive capability on its node; moving it across
// threads is fine when its queue holder may move, and concurrent use is
// prevented by &mut receivers.
unsafe impl<Q: QueueRef<N> + Send, const N: usize> Send for RawHandle<Q, N> {}

impl<const N: usize> Default for RawQueue<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> RawQueue<N> {
    /// Creates an empty queue with the default (WF-10) configuration.
    pub fn new() -> Self {
        Self::with_config(Config::default())
    }

    /// Creates an empty queue with an explicit configuration.
    pub fn with_config(config: Config) -> Self {
        assert!(N.is_power_of_two(), "segment size must be a power of two");
        let seg = Segment::<N>::alloc(0);
        Self {
            q: CachePadded::new(AtomicPtr::new(seg)),
            tail_index: CachePadded::new(AtomicU64::new(0)),
            head_index: CachePadded::new(AtomicU64::new(0)),
            oldest_id: CachePadded::new(AtomicI64::new(0)),
            nodes: NodeTable::new(),
            free_nodes: Mutex::new(Vec::new()),
            active_count: AtomicU64::new(0),
            pool: SegmentPool::new(config.segment_ceiling),
            config,
            #[cfg(feature = "durable")]
            persist: None,
        }
    }

    /// Creates an empty durable-mode queue mirroring every commit frontier
    /// into `sink`. Values and protocol are unchanged; only the persist
    /// hooks fire (DESIGN.md §12).
    #[cfg(feature = "durable")]
    pub fn with_persist(config: Config, sink: std::sync::Arc<dyn PersistSink>) -> Self {
        let mut q = Self::with_config(config);
        q.persist = Some(sink);
        q
    }

    /// Per-operation view of where list extensions draw segments from.
    #[inline]
    pub(crate) fn src<'a>(&'a self, h: &'a HandleNode<N>) -> SegSource<'a, N> {
        SegSource {
            spare: &h.spare,
            alloc_count: &h.stats.segs_alloc,
            pool: &self.pool,
        }
    }

    /// This queue's configuration.
    pub fn config(&self) -> Config {
        self.config
    }

    /// Registers the calling context, returning a handle.
    ///
    /// Registration is the one non-wait-free operation in the crate (it
    /// takes a lock and may wait for an in-flight reclamation pass); do it
    /// once per thread, outside any latency-critical section. Handles are
    /// recycled, so repeated register/drop cycles do not grow the ring.
    pub fn register(&self) -> Handle<'_, N> {
        RawHandle::attach(self)
    }

    /// Acquires a ring node for a new handle (pool reuse or fresh splice).
    pub(crate) fn acquire_node(&self) -> *mut HandleNode<N> {
        let mut free = self.free_nodes.lock().expect("a registration panicked");
        if let Some(node) = free.pop() {
            // SAFETY: pooled nodes stay valid for the queue's lifetime.
            unsafe {
                (*node).active.store(true, Ordering::Relaxed);
                // A recycled node must not leak the previous owner's
                // execution-path sample to the new handle.
                #[cfg(feature = "op-sample")]
                (*node).last_sample.set(None);
            }
            self.active_count.fetch_add(1, Ordering::Relaxed);
            return node;
        }
        // Fresh node: its initial segment assignment and ring splice must
        // not race a reclamation pass (which cannot see the node yet), so
        // hold the reclamation token across both.
        let token = self.acquire_reclaim_token();
        let seg = self.q.load(Ordering::Acquire);
        // SAFETY: holding the token, no segment can be freed; `free` is
        // the registry lock.
        let node = unsafe { self.nodes.register(seg, (*seg).id()) };
        self.active_count.fetch_add(1, Ordering::Relaxed);
        self.release_reclaim_token(token);
        node
    }

    /// Returns a handle's ring node to the pool.
    pub(crate) fn release_node(&self, node: *mut HandleNode<N>) {
        let mut free = self.free_nodes.lock().expect("a registration panicked");
        // SAFETY: node is live; after deactivation helpers skip its idle
        // requests and a future registration may adopt it.
        unsafe { (*node).active.store(false, Ordering::Relaxed) };
        self.active_count.fetch_sub(1, Ordering::Relaxed);
        free.push(node);
    }

    /// Spins until it wins the reclamation token (`I: i ≥ 0 → −1`),
    /// returning the id it displaced.
    fn acquire_reclaim_token(&self) -> i64 {
        loop {
            let i = self.oldest_id.load(Ordering::Acquire);
            if i >= 0
                && self
                    .oldest_id
                    .compare_exchange(i, -1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                return i;
            }
            std::thread::yield_now();
        }
    }

    fn release_reclaim_token(&self, token: i64) {
        self.oldest_id.store(token, Ordering::Release);
    }

    /// Emptiness check: true if no unconsumed value was present at the
    /// instants the queue was read. Exact while the queue is externally
    /// quiescent (e.g. single-threaded teardown); advisory under
    /// concurrency. Wait-free.
    ///
    /// `H ≥ T` proves emptiness, but `H < T` does not prove a value: a
    /// slow-path enqueue's reservation loop may `FAA(T)` for a cell after
    /// a helper has already committed its request at an earlier one,
    /// leaving that cell empty inside `[H, T)`. So when `H < T` the check
    /// tries the reclamation token with one CAS and, holding it, walks
    /// `[H, T)` for a cell with an unclaimed value. If a cleaner holds the
    /// token the queue is not quiescent, and `H < T` answers "non-empty".
    pub fn is_empty(&self) -> bool {
        let head = self.head_index.load(Ordering::SeqCst);
        let tail = self.tail_index.load(Ordering::SeqCst);
        if head >= tail {
            return true;
        }
        let token = self.oldest_id.load(Ordering::Acquire);
        if token < 0
            || self
                .oldest_id
                .compare_exchange(token, -1, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
        {
            return false;
        }
        // SAFETY: holding the token, no segment can be freed.
        let empty = unsafe { !self.holds_value(head, tail) };
        self.release_reclaim_token(token);
        empty
    }

    /// Whether a cell of `[from, to)` holds a value no dequeuer claimed.
    /// Cells in segments the list has not grown yet hold nothing.
    ///
    /// # Safety
    ///
    /// The caller holds the reclamation token.
    unsafe fn holds_value(&self, from: u64, to: u64) -> bool {
        let mut s = self.q.load(Ordering::Acquire);
        // SAFETY (all derefs): the token keeps `Q` and its successors live.
        let mut i = from.max(unsafe { (*s).id() } * N as u64);
        while i < to {
            while unsafe { (*s).id() } < i / N as u64 {
                s = unsafe { (*s).next.load(Ordering::Acquire) };
                if s.is_null() {
                    return false;
                }
            }
            let c = unsafe { &(*s).cells[(i % N as u64) as usize] };
            if is_valid_value(c.load_val()) && c.load_deq() == DEQ_BOTTOM {
                return true;
            }
            i += 1;
        }
        false
    }

    /// Snapshot of `(H, T)` for diagnostics.
    pub fn indices(&self) -> (u64, u64) {
        (
            self.head_index.load(Ordering::SeqCst),
            self.tail_index.load(Ordering::SeqCst),
        )
    }

    /// Snapshot of `I`, the oldest live segment's id — or `-1` while a
    /// cleaner (or a registration) holds the reclamation token (Listing 5
    /// line 206). Diagnostics only: the value may be stale by the time the
    /// caller looks at it, but it is monotone while the token is free, so
    /// tests can assert reclamation never ran past a pinned hazard.
    pub fn oldest_segment_id(&self) -> i64 {
        self.oldest_id.load(Ordering::SeqCst)
    }

    /// Approximate number of enqueued-but-unconsumed values.
    ///
    /// `T − H` counts *attempts*, not successes — failed fast-path
    /// operations and emptiness probes inflate both counters — so this is
    /// an upper-bound-ish hint suitable for monitoring and backpressure
    /// heuristics, not an exact size (no linearizable size exists for a
    /// concurrent queue without locking it).
    pub fn len_hint(&self) -> u64 {
        let (h, t) = self.indices();
        t.saturating_sub(h)
    }

    /// Aggregated execution-path statistics across every handle ever
    /// registered (the data behind the paper's Table 2).
    pub fn stats(&self) -> QueueStats {
        let mut s = QueueStats::default();
        for n in self.nodes.iter() {
            s.absorb(&n.stats);
        }
        s
    }

    /// Instantaneous gauge snapshot: indices, the reclamation frontier, the
    /// laggiest published hazard, and helping-record occupancy. Each field
    /// is an independent atomic read — the snapshot is not a consistent cut
    /// across them, which is fine for the monitoring it feeds.
    pub fn gauges(&self) -> Gauges {
        let (head_index, tail_index) = self.indices();
        let oldest_segment_id = self.oldest_id.load(Ordering::SeqCst);
        let mut g = Gauges {
            head_index,
            tail_index,
            oldest_segment_id,
            total_handles: u64::from(self.nodes.len()),
            ..Gauges::default()
        };
        let (mut alloc, mut freed) = (0u64, 0u64);
        for n in self.nodes.iter() {
            if n.active.load(Ordering::Relaxed) {
                g.active_handles += 1;
            }
            let hzd = n.hzd_id.load(Ordering::SeqCst);
            if hzd != NO_HAZARD {
                let hzd = hzd as u64;
                g.min_hazard = Some(g.min_hazard.map_or(hzd, |m| m.min(hzd)));
            }
            if n.enq_req.state().pending {
                g.pending_enq_reqs += 1;
            }
            if n.deq_req.state().pending {
                g.pending_deq_reqs += 1;
            }
            alloc += n.stats.segs_alloc.load(Ordering::Relaxed);
            freed += n.stats.segs_freed.load(Ordering::Relaxed);
        }
        // +1: the initial segment is never counted as allocated.
        g.live_segments = (alloc + 1).saturating_sub(freed);
        if let Some(min) = g.min_hazard {
            g.hazard_lag_segments = (head_index / N as u64).saturating_sub(min);
        }
        g.pooled_segments = self.pool.pooled();
        g.segment_ceiling = self.pool.ceiling();
        g.ceiling_headroom = self
            .pool
            .ceiling()
            .map(|c| c.saturating_sub(self.pool.total()));
        g
    }

    // ------------------------------------------------------------------
    // Enqueue (Listing 3)
    // ------------------------------------------------------------------

    /// The enqueue front: the first fast-path attempt (lines 65–69) as
    /// straight-line code, one FAA and one deposit CAS. While the index
    /// lies in the segment the tail mirror names, the cell comes straight
    /// from `h.tail` with no segment-header read (DESIGN.md §3, "The typed
    /// fast path"). Every other outcome continues in
    /// [`Self::enqueue_rest`] from the index already taken.
    #[inline]
    pub(crate) fn enqueue_internal(&self, h: &HandleNode<N>, v: u64) {
        if !is_valid_value(v) {
            reserved_value(v);
        }
        let mirror = h.tail_seg_id.load(Ordering::Relaxed);
        h.publish_hazard_before_faa(mirror as i64);
        inject!("enq::hazard_published");
        let i = self.enq_index();
        if i / N as u64 != mirror {
            return self.enqueue_rest(h, v, i, false);
        }
        // SAFETY: mirror ≤ id(h.tail) ≤ i/N, so h.tail is segment i/N,
        // protected by the hazard published above.
        let s = h.tail.load(Ordering::SeqCst);
        debug_assert_eq!(
            unsafe { (*s).id() },
            mirror,
            "tail mirror names another segment"
        );
        let c = unsafe { &(*s).cells[(i % N as u64) as usize] };
        if !self.enq_deposit(c, v, i) {
            return self.enqueue_rest(h, v, i, true);
        }
        HandleStats::bump(&h.stats.enq_fast);
        wfq_obs::record!(wfq_obs::EventKind::EnqFast, i);
        op_sample!(h, crate::sample::OpSide::Enq, OpPath::Fast, i);
        // Epilogue: the mirror already names segment i/N.
        h.clear_hazard();
    }

    /// Everything the enqueue front leaves out (lines 57–64 and 70–89),
    /// continuing from the front's index `i`: the attempt at `i` through
    /// `find_cell` unless the front already made it (`tried`), the
    /// remaining PATIENCE attempts, the slow path and the epilogue.
    #[cold]
    #[inline(never)]
    fn enqueue_rest(&self, h: &HandleNode<N>, v: u64, i: u64, tried: bool) {
        let mut cell_id = i;
        // SAFETY: as in `enq_fast`.
        let mut done =
            !tried && self.enq_deposit(unsafe { &*find_cell(&h.tail, i, &self.src(h)) }, v, i);
        // Lines 57–59: the front's attempt was the first of PATIENCE + 1.
        for _ in 0..self.config.patience {
            if done {
                break;
            }
            done = self.enq_fast(h, v, &mut cell_id);
        }
        let last_index = if done {
            HandleStats::bump(&h.stats.enq_fast);
            wfq_obs::record!(wfq_obs::EventKind::EnqFast, cell_id);
            op_sample!(h, crate::sample::OpSide::Enq, OpPath::Fast, cell_id);
            cell_id
        } else {
            let claimed = self.enq_slow(h, v, cell_id);
            HandleStats::bump(&h.stats.enq_slow);
            claimed
        };

        // Epilogue (Listing 5 lines 208–211): refresh the hazard mirror and
        // go idle. The mirror is computed from the cell *index*, never by
        // dereferencing the segment pointer: after help-related hazard
        // overwrites a deref here would not be protected, and the mirror
        // only needs to be ≤ the true segment id (it is exactly equal:
        // h.tail ends the operation at segment last_index / N).
        h.tail_seg_id.store(last_index / N as u64, Ordering::Relaxed);
        h.clear_hazard();
    }

    /// The fallible enqueue behind [`Handle::try_enqueue`]: an admission
    /// gate in front of the unmodified paper algorithm.
    ///
    /// The gate runs *before* any index FAA, so a rejected call leaves no
    /// trace in the protocol — that is what makes the rejection wait-free
    /// and the ceiling enforceable: only admitted operations can allocate.
    /// When headroom is gone the caller first elects itself cleaner
    /// (enqueuers never do on the plain path — today only dequeuers call
    /// `cleanup`), because the missing headroom is often recoverable
    /// garbage that dequeuers simply haven't tripped the threshold on.
    pub(crate) fn try_enqueue_internal(&self, h: &HandleNode<N>, v: u64) -> Result<(), Full> {
        if self.config.segment_ceiling.is_some() && !self.pool.has_headroom() {
            self.forced_cleanup(h);
            if !self.pool.has_headroom() {
                HandleStats::bump(&h.stats.enq_rejected);
                wfq_obs::record!(
                    wfq_obs::EventKind::EnqRejected,
                    self.config.segment_ceiling.unwrap_or(0)
                );
                return Err(Full(()));
            }
        }
        self.enqueue_internal(h, v);
        Ok(())
    }

    /// Lines 65–69: one FAA, one CAS. `cell_id` receives the attempted
    /// index whether or not the deposit succeeds (the caller needs it for
    /// the slow-path request id on failure and the mirror update on
    /// success).
    fn enq_fast(&self, h: &HandleNode<N>, v: u64, cell_id: &mut u64) -> bool {
        let i = self.enq_index();
        *cell_id = i;
        // SAFETY: h.tail is ≥ the hazard this thread published and ≤ i/N
        // (it only ever advances through cells this thread obtained by FAA).
        let c = unsafe { &*find_cell(&h.tail, i, &self.src(h)) };
        self.enq_deposit(c, v, i)
    }

    /// Line 66: the fast path's FAA on the tail index.
    #[inline]
    fn enq_index(&self) -> u64 {
        let i = self.tail_index.fetch_add(1, Ordering::SeqCst);
        inject!("enq_fast::post_faa");
        persist!(self, advance_tail(i + 1));
        i
    }

    /// Line 68: the fast-path deposit of `v` into cell `i`.
    #[inline]
    #[cfg_attr(not(feature = "durable"), allow(unused_variables))]
    fn enq_deposit(&self, c: &Cell, v: u64, i: u64) -> bool {
        if c.try_deposit(v) {
            // Crash window: the value is volatile-visible but durably
            // absent until the persist below lands — a crash here is
            // recovered as "enqueue never happened" (provably rejected).
            inject!("enq_fast::deposit_unpersisted");
            persist!(self, deposit(i, v));
            true
        } else {
            false
        }
    }

    /// Lines 70–89: publish a request, keep trying cells, commit wherever
    /// the request ends up claimed.
    #[cold]
    fn enq_slow(&self, h: &HandleNode<N>, v: u64, cell_id: u64) -> u64 {
        let r = &h.enq_req;
        r.publish(v, cell_id); // line 72
        persist!(self, enq_publish(u64::from(h.slot), v));
        inject!("enq_slow::request_published");
        // Op id for the whole episode: the publish id (our failed FAA cell).
        wfq_obs::record!(wfq_obs::EventKind::EnqSlowEnter, cell_id, cell_id);

        // Line 75: traverse with a local tail pointer because the commit
        // below may need to revisit an *earlier* cell. SeqCst: a read of a
        // pointer a cleaner may CAS, after the hazard publication.
        let tmp_tail = AtomicPtr::new(h.tail.load(Ordering::SeqCst));
        let mut path = OpPath::Slow;
        loop {
            // Line 78.
            let i = self.tail_index.fetch_add(1, Ordering::SeqCst);
            // SAFETY: tmp_tail starts at h.tail (hazard-protected) and only
            // advances toward cells obtained by FAA.
            let c = unsafe { &*find_cell(&tmp_tail, i, &self.src(h)) };
            // Lines 80–84, Dijkstra's protocol: reserve first, then check
            // that no dequeuer poisoned the cell before the reservation.
            if c.try_reserve_enq(h.req_name()) && c.load_val() == VAL_BOTTOM {
                inject!("enq_slow::cell_reserved");
                let _ = r.try_claim(cell_id, i);
                // Invariant: request claimed (even if our claim CAS lost).
                break;
            }
            // Line 85.
            if !r.state().pending {
                path = OpPath::Helped;
                break;
            }
        }
        if matches!(path, OpPath::Helped) {
            // A helper finished the request before any reservation of
            // ours stuck — the helping scheme's raison d'être.
            HandleStats::bump(&h.stats.enq_slow_helped);
        }

        // Lines 87–88: request is claimed for some cell; find it and commit.
        let id = r.state().index;
        // Crash window: the claim is volatile but not yet durable. A crash
        // at the point below leaves only the PUBLISHED record — recovery
        // rejects the value. Once the claim persist lands, a crash before
        // the commit is the "claimed-but-uncommitted" state recovery must
        // re-complete (the deterministic negative-control scenario).
        inject!("enq_slow::claim_unpersisted");
        persist!(self, enq_claim(u64::from(h.slot), v, id));
        inject!("enq_slow::pre_commit");
        // SAFETY: id ≥ cell_id ≥ (*h.tail).id * N, all hazard-protected.
        let c = unsafe { &*find_cell(&h.tail, id, &self.src(h)) };
        self.enq_commit(c, v, id);
        wfq_obs::record!(wfq_obs::EventKind::EnqSlowExit, id, cell_id);
        op_sample!(h, crate::sample::OpSide::Enq, path, cell_id);
        id
    }

    /// Lines 62–64: make the enqueue visible no later than `T > cid`.
    pub(crate) fn enq_commit(&self, c: &Cell, v: u64, cid: u64) {
        advance_index(&self.tail_index, cid + 1);
        persist!(self, advance_tail(cid + 1));
        c.val.store(v, Ordering::SeqCst);
        persist!(self, deposit(cid, v));
    }

    // ------------------------------------------------------------------
    // help_enq (Listing 3 lines 90–127) — called by dequeuers on every
    // cell they try to take a value from.
    // ------------------------------------------------------------------

    /// Line 91, poison-or-read, inlined: a filled cell — every dequeue
    /// from a non-empty queue — costs one load and no call. A ⊤ cell
    /// continues in [`Self::help_enq_top`].
    #[inline]
    pub(crate) fn help_enq(&self, h: &HandleNode<N>, c: &Cell, i: u64) -> HelpEnq {
        match c.mark_or_value() {
            Some(v) => HelpEnq::Value(v),
            None => self.help_enq_top(h, c, i),
        }
    }

    /// Lines 92–127: `c.val` is ⊤; route a pending slow-path enqueue into
    /// the cell, or seal it.
    #[cold]
    fn help_enq_top(&self, h: &HandleNode<N>, c: &Cell, i: u64) -> HelpEnq {
        if c.load_enq() == ENQ_BOTTOM {
            // Lines 94–100: settle on a peer whose request we may help.
            // Runs at most two iterations (the first pass zeroes enq_help_id).
            let (mut peer, mut state);
            loop {
                peer = h.enq_peer.load(Ordering::Relaxed);
                // SAFETY: ring nodes live for the queue's lifetime.
                state = unsafe { (*peer).enq_req.state() };
                let help_id = h.enq_help_id.load(Ordering::Relaxed);
                if help_id == 0 || help_id == state.index {
                    break; // still (or newly) helping this peer's request
                }
                // Peer's prior request completed: move to the next peer.
                h.enq_help_id.store(0, Ordering::Relaxed);
                // SAFETY: as above.
                h.enq_peer
                    .store(unsafe { (*peer).next_node() }, Ordering::Relaxed);
            }
            // Lines 101–108.
            // SAFETY: as above.
            let r = unsafe { (*peer).req_name() };
            inject!("help_enq::pre_reserve");
            if state.pending && state.index <= i && !c.try_reserve_enq(r) {
                // Reservation failed: remember the request so we keep
                // helping this peer next time (Invariant 2).
                h.enq_help_id.store(state.index, Ordering::Relaxed);
            } else {
                if state.pending && state.index <= i {
                    HandleStats::bump(&h.stats.help_enq);
                }
                // Peer doesn't need help, can't use this cell, or we just
                // helped: advance round-robin (Invariant 3).
                // SAFETY: as above.
                h.enq_peer
                    .store(unsafe { (*peer).next_node() }, Ordering::Relaxed);
            }
            // Lines 109–111: seal the cell if no request landed.
            if c.load_enq() == ENQ_BOTTOM {
                inject!("help_enq::top_race");
                if c.try_seal_enq() {
                    HandleStats::bump(&h.stats.help_enq_seal);
                    wfq_obs::record!(wfq_obs::EventKind::CellSeal, i);
                }
            }
        }
        // Invariant: c.enq is a request or ⊤e.
        let e = c.load_enq();
        if e == ENQ_TOP {
            // Lines 114–116.
            return if self.tail_index.load(Ordering::SeqCst) <= i {
                HelpEnq::Empty
            } else {
                HelpEnq::Top
            };
        }
        // Lines 117–126: the cell names a request; complete it if we can.
        // Staleness is handled by the id checks below (paper §3.4 "Write
        // the proper value in a cell").
        // SAFETY: the name was read from a cell, so the slot's registration
        // happens before this load (see `NodeTable`'s ordering note).
        let owner = unsafe { self.nodes.get(name_slot(e)) };
        let r = &owner.enq_req;
        let (s, v) = r.read_consistent();
        if s.index > i {
            // Line 119–122: request unsuitable for this cell.
            if c.load_val() == VAL_TOP && self.tail_index.load(Ordering::SeqCst) <= i {
                return HelpEnq::Empty;
            }
        } else {
            // The window of the stale-claim erratum (DESIGN.md §3): the
            // request may be claimed for this very cell between the read
            // above and the claim below.
            inject!("help_enq::pre_claim");
            let claim = r.try_claim(s.index, i);
            // Lines 123–126: we claimed it for this cell, or someone else
            // claimed it for this cell and hasn't committed yet. The paper's
            // CAS refreshes `s` on failure, so "someone else" is judged by
            // the state the losing CAS observed, never by the stale `s`.
            //
            // Nor by the stale `v` (erratum 5, DESIGN.md §3): the claim we
            // lost may be for a *later* request of the same owner, whose
            // id the owner published after our read, so `v` may be a value
            // already committed elsewhere. Re-read it, then check the cell:
            // the owner publishes again only after committing the claimed
            // request here, so while the cell is still ⊤ the value re-read
            // is the claimed request's.
            let commit = match claim {
                Ok(()) => Some(v),
                Err(seen) if !seen.pending && seen.index == i => {
                    let v = r.value();
                    (c.load_val() == VAL_TOP).then_some(v)
                }
                Err(_) => None,
            };
            if let Some(v) = commit {
                inject!("help_enq::pre_complete");
                // The helper mirrors the claim it is about to commit: if it
                // crashes inside enq_commit, the durable claim record lets
                // recovery re-complete on the helper's behalf. Idempotent
                // with the requester's own claim persist (same record).
                persist!(self, enq_claim(u64::from(owner.slot), v, i));
                self.enq_commit(c, v, i);
                HandleStats::bump(&h.stats.help_enq_commit);
                // Op id: the publish id our claim CAS consumed. When the
                // claim already landed elsewhere the id is gone from the
                // request state, so the hop is recorded without an episode.
                wfq_obs::record!(
                    wfq_obs::EventKind::HelpEnqCommit,
                    i,
                    if claim.is_ok() { s.index } else { 0 }
                );
            }
        }
        // Line 127.
        match c.load_val() {
            VAL_TOP => HelpEnq::Top,
            v => HelpEnq::Value(v),
        }
    }

    // ------------------------------------------------------------------
    // Dequeue (Listing 4)
    // ------------------------------------------------------------------

    /// The dequeue front: the emptiness fast-out, then the first fast-path
    /// attempt (lines 140–148) as straight-line code, one FAA, one value
    /// load and one claim CAS, and the peer-help bail-out. As on the
    /// enqueue side, a cell in the segment the head mirror names comes
    /// straight from `h.head`, and a dequeue that ends there skips
    /// `cleanup` (DESIGN.md §3, "The typed fast path"). Every other outcome
    /// continues in [`Self::dequeue_rest`] from the index already taken.
    #[inline]
    pub(crate) fn dequeue_internal(&self, h: &HandleNode<N>) -> Option<u64> {
        // Emptiness fast-out (the bounded-RSS guard of DESIGN.md §9). A
        // probe's FAA burns a cell, and every segment between the tail
        // frontier and H must stay live for enqueuers to traverse — so a
        // consumer spinning on an empty queue would otherwise push H (and
        // the chain, and RSS) ahead of T without bound, straight through
        // any segment ceiling. Once H has passed T the queue is
        // linearizably empty (every cell below T is already assigned to
        // some dequeuer), so later probes return EMPTY without consuming
        // anything. H == T still probes — one burned cell per drained
        // queue — which preserves the ⊤-seal semantics deterministic
        // tests rely on and bounds dequeue-side growth at one in-flight
        // cell per consumer.
        //
        // The check touches no segment, so it runs before the hazard is
        // published. A fast-out leaves the head mirror as it was, and a
        // thread whose every dequeue fast-outs would otherwise keep
        // republishing that stale mirror as its hazard, pinning
        // reclamation at it for as long as it polls.
        let (h_idx, t_idx) = (
            self.head_index.load(Ordering::SeqCst),
            self.tail_index.load(Ordering::SeqCst),
        );
        if h_idx > t_idx {
            HandleStats::bump(&h.stats.deq_fast);
            HandleStats::bump(&h.stats.deq_empty);
            wfq_obs::record!(wfq_obs::EventKind::DeqEmpty, h_idx);
            op_sample!(h, crate::sample::OpSide::Deq, OpPath::Fast, h_idx);
            return None;
        }
        let mirror = h.head_seg_id.load(Ordering::Relaxed);
        h.publish_hazard_before_faa(mirror as i64);
        inject!("deq::hazard_published");
        let i = self.deq_index();
        if i / N as u64 != mirror {
            return self.dequeue_rest(h, i, false);
        }
        // SAFETY: mirror ≤ id(h.head) ≤ i/N, so h.head is segment i/N,
        // protected by the hazard published above.
        let s = h.head.load(Ordering::SeqCst);
        debug_assert_eq!(
            unsafe { (*s).id() },
            mirror,
            "head mirror names another segment"
        );
        let c = unsafe { &(*s).cells[(i % N as u64) as usize] };
        // Line 91 for a filled cell: one load. ⊥ and ⊤ take help_enq's path.
        let v = c.load_val();
        if !is_valid_value(v) {
            return self.dequeue_rest(h, i, false);
        }
        if !self.deq_claim(c, v, i) {
            return self.dequeue_rest(h, i, true);
        }
        HandleStats::bump(&h.stats.deq_fast);
        wfq_obs::record!(wfq_obs::EventKind::DeqFast, i);
        op_sample!(h, crate::sample::OpSide::Deq, OpPath::Fast, i);
        self.help_deq_peer(h);
        // Epilogue: the mirror already names segment i/N, and `cleanup`
        // would see the same head id as the last dequeue that ran it.
        h.clear_hazard();
        Some(v)
    }

    /// Everything the dequeue front leaves out (lines 129–138), continuing
    /// from the front's index `i`: the attempt at `i` through `find_cell`
    /// unless the front's claim already lost there (`tried`), the
    /// remaining PATIENCE attempts, the slow path, the epilogue and
    /// `cleanup`.
    #[cold]
    #[inline(never)]
    fn dequeue_rest(&self, h: &HandleNode<N>, i: u64, tried: bool) -> Option<u64> {
        let mut outcome = if tried {
            FastDeq::Fail(i)
        } else {
            self.deq_fast_at(h, i)
        };
        // Lines 129–133: the front's attempt was the first of PATIENCE + 1.
        for _ in 0..self.config.patience {
            if !matches!(outcome, FastDeq::Fail(_)) {
                break;
            }
            outcome = self.deq_fast(h);
        }
        let (result, last_index) = match outcome {
            FastDeq::Value(v, i) => {
                HandleStats::bump(&h.stats.deq_fast);
                wfq_obs::record!(wfq_obs::EventKind::DeqFast, i);
                op_sample!(h, crate::sample::OpSide::Deq, OpPath::Fast, i);
                (Some(v), i)
            }
            FastDeq::Empty(i) => {
                HandleStats::bump(&h.stats.deq_fast);
                op_sample!(h, crate::sample::OpSide::Deq, OpPath::Fast, i);
                (None, i)
            }
            FastDeq::Fail(cell_id) => {
                let (r, i) = self.deq_slow(h, cell_id);
                HandleStats::bump(&h.stats.deq_slow);
                (r, i)
            }
        };
        if result.is_some() {
            self.help_deq_peer(h);
        } else {
            HandleStats::bump(&h.stats.deq_empty);
            wfq_obs::record!(wfq_obs::EventKind::DeqEmpty, last_index);
        }

        // Epilogue (Listing 5 lines 212–217). h.head finished this
        // operation at segment last_index / N.
        h.head_seg_id.store(last_index / N as u64, Ordering::Relaxed);
        h.clear_hazard();
        self.cleanup(h);
        result
    }

    /// Lines 135–138: a successful dequeue helps its dequeue peer.
    /// NOTE: help_deq may overwrite this thread's hazard with the
    /// helpee's; after this call the operation must not dereference
    /// segments (which is why the mirror is computed from the cell index
    /// rather than through h.head).
    #[inline]
    fn help_deq_peer(&self, h: &HandleNode<N>) {
        let peer = h.deq_peer.load(Ordering::Relaxed);
        // SAFETY: ring nodes live for the queue's lifetime.
        let peer_ref = unsafe { &*peer };
        if !core::ptr::eq(peer_ref, h) {
            HandleStats::bump(&h.stats.help_deq);
        }
        self.help_deq(h, peer_ref);
        h.deq_peer.store(peer_ref.next_node(), Ordering::Relaxed);
    }

    /// Lines 140–148.
    fn deq_fast(&self, h: &HandleNode<N>) -> FastDeq {
        let i = self.deq_index();
        self.deq_fast_at(h, i)
    }

    /// Line 141: the fast path's FAA on the head index.
    #[inline]
    fn deq_index(&self) -> u64 {
        let i = self.head_index.fetch_add(1, Ordering::SeqCst);
        inject!("deq_fast::post_faa");
        persist!(self, advance_head(i + 1));
        i
    }

    /// Lines 142–148: the attempt at cell `i`, reached through `find_cell`.
    fn deq_fast_at(&self, h: &HandleNode<N>, i: u64) -> FastDeq {
        // SAFETY: h.head hazard-protected, ≤ i/N.
        let c = unsafe { &*find_cell(&h.head, i, &self.src(h)) };
        match self.help_enq(h, c, i) {
            HelpEnq::Empty => FastDeq::Empty(i),
            HelpEnq::Value(v) if self.deq_claim(c, v, i) => FastDeq::Value(v, i),
            _ => FastDeq::Fail(i),
        }
    }

    /// Line 146: the fast-path claim of value `v` in cell `i`.
    #[inline]
    #[cfg_attr(not(feature = "durable"), allow(unused_variables))]
    fn deq_claim(&self, c: &Cell, v: u64, i: u64) -> bool {
        if !c.try_claim_deq_fast() {
            return false;
        }
        // Crash window: the claim is volatile-only until the persist
        // below — a crash here leaves the cell durably DEPOSITED and
        // recovery redelivers the value (the crashed dequeue never durably
        // happened).
        inject!("deq_fast::consume_unpersisted");
        persist!(self, consume(i, v));
        true
    }

    /// Lines 149–157.
    #[cold]
    fn deq_slow(&self, h: &HandleNode<N>, cid: u64) -> (Option<u64>, u64) {
        let r = &h.deq_req;
        r.publish(cid); // line 151
        inject!("deq_slow::request_published");
        // Op id for the whole episode: the publish id (our failed FAA cell).
        wfq_obs::record!(wfq_obs::EventKind::DeqSlowEnter, cid, cid);
        self.help_deq(h, h); // line 152
        // Lines 153–156: the request's announced cell holds the result.
        let i = r.state().index;
        // SAFETY: i ≥ cid ≥ (*h.head).id * N; hazard-protected.
        let c = unsafe { &*find_cell(&h.head, i, &self.src(h)) };
        let v = c.load_val();
        advance_index(&self.head_index, i + 1);
        persist!(self, advance_head(i + 1));
        #[cfg(feature = "durable")]
        if v != VAL_TOP {
            persist!(self, consume(i, v));
        }
        wfq_obs::record!(wfq_obs::EventKind::DeqSlowExit, i, cid);
        // Slow dequeues always report `Slow`: the requester helps itself
        // through `help_deq` and cannot locally tell whether a peer
        // finished the request first (see `crate::sample::OpPath` — the
        // span join upgrades multi-hop episodes to Helped offline).
        op_sample!(h, crate::sample::OpSide::Deq, OpPath::Slow, cid);
        if v == VAL_TOP {
            HandleStats::bump(&h.stats.deq_slow_empty);
            (None, i)
        } else {
            (Some(v), i)
        }
    }

    // ------------------------------------------------------------------
    // Batch operations — one FAA per k operations (DESIGN.md §10)
    // ------------------------------------------------------------------

    /// Enqueues every value in `vs`, claiming `vs.len()` consecutive cells
    /// with a **single FAA** on `T` and depositing into them in order with
    /// the same per-cell CAS as the one-shot fast path.
    ///
    /// A deposit can fail only if a dequeuer poisoned the pre-claimed cell
    /// (⊥ → ⊤) first. The first such *straggler* element becomes an
    /// ordinary help-ring request ([`Self::enq_slow`]), and every element
    /// after it re-enters [`Self::enqueue_internal`] with fresh FAAs; the
    /// remaining pre-claimed cells are **abandoned** — dequeuers seal them
    /// ⊤, exactly like cells burned by failed one-shot fast paths. The
    /// abandonment is what preserves within-batch FIFO: `enq_slow` may
    /// claim a cell *past* the batch window, so depositing into the
    /// remaining pre-claimed (earlier) cells afterwards would order a later
    /// element before an earlier one. Because every completed element
    /// advances `T` past its cell (the fast path's FAA, `enq_commit`'s
    /// CAS-max), each fallback element lands strictly after its
    /// predecessor, so final cell indices are monotone in element order.
    /// Wait-freedom is preserved: the fallback is at most one slow path
    /// plus `k − 1` ordinary enqueues, each individually wait-free.
    pub(crate) fn enqueue_batch_internal(&self, h: &HandleNode<N>, vs: &[u64]) {
        if let Some(&v) = vs.iter().find(|&&v| !is_valid_value(v)) {
            reserved_value(v);
        }
        let k = vs.len() as u64;
        if k == 0 {
            return;
        }
        if k == 1 {
            return self.enqueue_internal(h, vs[0]);
        }
        h.publish_hazard_before_faa(h.tail_seg_id.load(Ordering::Relaxed) as i64);
        inject!("enq::hazard_published");
        HandleStats::bump(&h.stats.enq_batches);
        HandleStats::add(&h.stats.enq_batched_vals, k);
        wfq_obs::record!(wfq_obs::EventKind::EnqBatch, k);

        let base = self.tail_index.fetch_add(k, Ordering::SeqCst);
        inject!("enq_batch::post_faa");
        persist!(self, advance_tail(base + k));
        let mut last_index = base + k - 1;
        let mut straggler: Option<usize> = None;
        for (j, &v) in vs.iter().enumerate() {
            let i = base + j as u64;
            // SAFETY: h.tail is ≥ the hazard this thread published and
            // ≤ i/N (it only advances through cells claimed by this FAA;
            // consecutive indices hit find_cell's same-segment fast path).
            let c = unsafe { &*find_cell(&h.tail, i, &self.src(h)) };
            if c.try_deposit(v) {
                persist!(self, deposit(i, v));
                continue;
            }
            // A dequeuer poisoned cell i before the deposit: element j
            // becomes an ordinary wait-free help-ring request.
            inject!("enq_batch::straggler");
            HandleStats::bump(&h.stats.enq_batch_stragglers);
            last_index = self.enq_slow(h, v, i);
            HandleStats::bump(&h.stats.enq_slow);
            straggler = Some(j);
            break;
        }
        let Some(j) = straggler else {
            // Whole batch deposited fast: k fast-path completions.
            HandleStats::add(&h.stats.enq_fast, k);
            h.tail_seg_id.store(last_index / N as u64, Ordering::Relaxed);
            h.clear_hazard();
            return;
        };
        // Elements 0..j deposited fast; j committed via the slow path.
        HandleStats::add(&h.stats.enq_fast, j as u64);
        let abandoned = k - 1 - j as u64;
        if abandoned > 0 {
            inject!("enq_batch::abandon");
            HandleStats::add(&h.stats.enq_batch_abandoned, abandoned);
        }
        h.tail_seg_id.store(last_index / N as u64, Ordering::Relaxed);
        h.clear_hazard();
        for &v in &vs[j + 1..] {
            self.enqueue_internal(h, v);
        }
    }

    /// The fallible batch enqueue behind [`Handle::try_enqueue_batch`]:
    /// the admission gate of [`Self::try_enqueue_internal`], made
    /// batch-aware. The gate runs *before* the claiming FAA and demands
    /// headroom for the whole batch (⌈k/N⌉ segments), so a rejected call
    /// leaves no trace in the protocol and the slice is handed back
    /// untouched — no partial publication.
    pub(crate) fn try_enqueue_batch_internal(
        &self,
        h: &HandleNode<N>,
        vs: &[u64],
    ) -> Result<(), Full> {
        if vs.is_empty() {
            return Ok(());
        }
        if self.config.segment_ceiling.is_some() {
            let need = Config::batch_segments(vs.len() as u64, N as u64);
            if !self.pool.has_headroom_for(need) {
                self.forced_cleanup(h);
                if !self.pool.has_headroom_for(need) {
                    HandleStats::bump(&h.stats.enq_rejected);
                    wfq_obs::record!(
                        wfq_obs::EventKind::EnqRejected,
                        self.config.segment_ceiling.unwrap_or(0)
                    );
                    return Err(Full(()));
                }
            }
        }
        self.enqueue_batch_internal(h, vs);
        Ok(())
    }

    /// Dequeues up to `k` values into `out`, claiming the whole cell run
    /// with a **single FAA** on `H`. Returns the number of values appended.
    ///
    /// The claim width is trimmed *before* the FAA to what an `(H, T)`
    /// snapshot says is available, so a batch against a short queue returns
    /// the partial count without burning unavailable cells: `H > T` returns
    /// 0 with no FAA at all (the queue is linearizably empty — the one-shot
    /// fast-out of DESIGN.md §9), and `H == T` claims a single probe cell,
    /// preserving the one-shot probe's ⊤-seal semantics and bounding
    /// empty-side growth at one cell per call. Each claimed cell is then
    /// resolved strictly in order with the per-cell protocol of
    /// [`Self::deq_fast`]; a cell whose value claim is lost (or that a
    /// peer's candidate scan poisoned ahead of the claim) falls back to an
    /// ordinary help-ring request ([`Self::deq_slow`]), which consumes some
    /// strictly *later* cell (candidates start past the failed index and
    /// already-claimed cells are skipped), so the appended values stay in
    /// increasing cell order and the batch linearizes as `claim`
    /// consecutive one-shot dequeues. Every claimed cell is visited —
    /// skipping one could strand a deposited value forever. A claimed cell
    /// that an earlier straggler's request already consumed is not turned
    /// into a second request; its dequeue reruns on the one-shot path after
    /// the batch.
    pub(crate) fn dequeue_batch_internal(
        &self,
        h: &HandleNode<N>,
        out: &mut Vec<u64>,
        k: usize,
    ) -> usize {
        if k == 0 {
            return 0;
        }
        // The emptiness fast-out runs before the hazard publication, as in
        // the one-shot dequeue.
        let h_idx = self.head_index.load(Ordering::SeqCst);
        let t_idx = self.tail_index.load(Ordering::SeqCst);
        if h_idx > t_idx {
            HandleStats::bump(&h.stats.deq_batches);
            HandleStats::bump(&h.stats.deq_fast);
            HandleStats::bump(&h.stats.deq_empty);
            wfq_obs::record!(wfq_obs::EventKind::DeqEmpty, h_idx);
            return 0;
        }
        h.publish_hazard_before_faa(h.head_seg_id.load(Ordering::Relaxed) as i64);
        inject!("deq::hazard_published");
        let claim = (k as u64).min(t_idx.saturating_sub(h_idx).max(1));
        if claim < k as u64 {
            inject!("deq_batch::partial_probe");
            HandleStats::bump(&h.stats.deq_batch_partial);
        }
        HandleStats::bump(&h.stats.deq_batches);
        wfq_obs::record!(wfq_obs::EventKind::DeqBatch, claim);

        let base = self.head_index.fetch_add(claim, Ordering::SeqCst);
        inject!("deq_batch::post_faa");
        persist!(self, advance_head(base + claim));
        // Traverse the claimed cells with a *local* segment pointer, like
        // enq_slow's tmp_tail: a straggler's deq_slow advances h.head to
        // its announced cell, which can lie past claimed cells this loop
        // still has to visit, and find_cell must never walk backward.
        // SeqCst for the same reason as enq_slow's tmp_tail.
        let bh = AtomicPtr::new(h.head.load(Ordering::SeqCst));
        let own_req = h.req_name();
        let mut got = 0u64;
        let mut owed = 0u64;
        let mut last_index = base;
        for j in 0..claim {
            let i = base + j;
            last_index = last_index.max(i);
            // SAFETY: bh starts at h.head (hazard-protected, segment
            // ≤ base/N) and only advances through cells claimed by our FAA.
            let c = unsafe { &*find_cell(&bh, i, &self.src(h)) };
            match self.help_enq(h, c, i) {
                HelpEnq::Empty => {
                    // Only the H == T probe cell can witness emptiness:
                    // every other claimed index is below the T snapshot,
                    // which `T` can never drop back under.
                    HandleStats::bump(&h.stats.deq_fast);
                    HandleStats::bump(&h.stats.deq_empty);
                    wfq_obs::record!(wfq_obs::EventKind::DeqEmpty, i);
                }
                HelpEnq::Value(v) if c.try_claim_deq_fast() => {
                    persist!(self, consume(i, v));
                    HandleStats::bump(&h.stats.deq_fast);
                    wfq_obs::record!(wfq_obs::EventKind::DeqFast, i);
                    out.push(v);
                    got += 1;
                }
                HelpEnq::Value(_) if c.load_deq() == own_req => {
                    // An earlier straggler's request in this batch already
                    // consumed this cell and returned its value. A request
                    // with id i would publish the state word (1, i) that the
                    // earlier request announced for this cell, and a stale
                    // helper of that request would then complete the new one
                    // here — delivering the value a second time. This cell's
                    // dequeue runs after the batch instead, on a fresh cell.
                    owed += 1;
                }
                _ => {
                    // Straggler: the cell is ⊤, or its value was claimed by
                    // a peer's slow-path request.
                    inject!("deq_batch::straggler");
                    HandleStats::bump(&h.stats.deq_batch_stragglers);
                    // deq_slow's request protocol (self-help and peers alike)
                    // walks forward from h.head, so h.head must be ≤ i/N when
                    // the request publishes — the one-shot path gets that from
                    // its pre-FAA find_cell, but an earlier straggler in this
                    // batch left h.head at its announced cell, possibly past
                    // i. Rewind to the batch traversal pointer (exactly
                    // segment i/N, still covered by our entry hazard); the
                    // SeqCst publish inside deq_slow orders the store before
                    // any helper can observe the request.
                    h.head.store(bh.load(Ordering::Relaxed), Ordering::Release);
                    let (r, si) = self.deq_slow(h, i);
                    HandleStats::bump(&h.stats.deq_slow);
                    last_index = last_index.max(si);
                    match r {
                        Some(v) => {
                            out.push(v);
                            got += 1;
                        }
                        None => {
                            HandleStats::bump(&h.stats.deq_empty);
                            wfq_obs::record!(wfq_obs::EventKind::DeqEmpty, si);
                        }
                    }
                }
            }
        }
        HandleStats::add(&h.stats.deq_batched_vals, got);
        // Re-align h.head with the batch's frontier so it matches the
        // head_seg_id mirror stored below — the next operation publishes
        // that mirror as its hazard and then dereferences h.head, so the
        // two must agree. h.head's segment is ≤ last_index/N here (entry
        // position or a straggler's announced cell, both ≤ the max), and
        // our own hazard still protects the walk.
        // SAFETY: as above.
        unsafe { find_cell(&h.head, last_index, &self.src(h)) };

        // One amortized peer help per batch with ≥ 1 success — the batch
        // analogue of Listing 4 lines 135–138. NOTE: help_deq may leave
        // this thread's hazard pointing at the helpee's segment; nothing
        // below dereferences a segment.
        if got > 0 {
            self.help_deq_peer(h);
        }

        h.head_seg_id.store(last_index / N as u64, Ordering::Relaxed);
        h.clear_hazard();
        self.cleanup(h);
        // Dequeues whose cells an earlier straggler's request consumed run
        // as one-shot dequeues. Their FAAs land past every claimed cell and
        // every cell the batch's requests took (deq_slow advances H past its
        // cell), so the appended values stay in cell order and their
        // request ids stay unique.
        for _ in 0..owed {
            let Some(v) = self.dequeue_internal(h) else {
                break;
            };
            out.push(v);
            got += 1;
        }
        got as usize
    }

    // ------------------------------------------------------------------
    // help_deq (Listing 4 lines 158–205 + Listing 5 line 220)
    // ------------------------------------------------------------------

    /// Lines 158–162, the bail-out every successful dequeue pays for its
    /// peer: inlined, so a peer with no pending request costs two loads
    /// and no call. The work on a pending request is [`Self::help_deq_pending`].
    #[inline]
    pub(crate) fn help_deq(&self, h: &HandleNode<N>, helpee: &HandleNode<N>) {
        let r = &helpee.deq_req;
        // Line 160: state before id (writers publish id before state).
        let s = r.state();
        let id = r.id();
        if !s.pending || s.index < id {
            return; // line 162
        }
        self.help_deq_pending(h, helpee, id);
    }

    /// Lines 163–205: helps `helpee`'s request `id`, which the bail-out saw
    /// pending.
    #[cold]
    fn help_deq_pending(&self, h: &HandleNode<N>, helpee: &HandleNode<N>, id: u64) {
        let r = &helpee.deq_req;
        // Past the cheap bail-out: this call will actually work on the
        // request, so open a helper span tagged with the helpee's op id.
        // When `deq_slow` self-helps this nests inside its own slow span.
        wfq_obs::record!(wfq_obs::EventKind::HelpDeqEnter, id, id);
        // Line 164: local pointer for announced cells. SeqCst: a cleaner may
        // CAS helpee.head, and this read pairs with that CAS like an
        // owner's pointer read after its hazard publication.
        let ha = AtomicPtr::new(helpee.head.load(Ordering::SeqCst));
        // Listing 5 line 220: adopt the helpee's published hazard — an id,
        // never a pointer, so nothing is dereferenced here. If the helpee
        // already finished (hazard cleared), the state re-read below bails
        // out before any segment is touched. The SeqCst store is ordered
        // before that SeqCst re-read without a fence.
        let adopted = helpee.hzd_id.load(Ordering::SeqCst);
        h.hzd_id.store(adopted, Ordering::SeqCst);
        // The hazard "backward jump": this thread's published hazard may
        // now be *older* than where a concurrent cleaner's forward pass
        // already scanned — exactly what the reverse pass must catch.
        inject!("help_deq::hazard_adopted");
        wfq_obs::record!(wfq_obs::EventKind::HazardAdopt, adopted as u64, id);
        let mut s = r.state(); // line 165: must re-read after hazard adoption

        let mut prior = id; // line 166
        let mut i = id;
        let mut cand = 0u64;
        let r_name = helpee.req_name();
        loop {
            // Lines 172–180: find a candidate cell with a fresh local
            // segment pointer hc (announced cells may be *behind* hc's
            // progress, which is why ha must not advance here).
            let hc = AtomicPtr::new(ha.load(Ordering::Relaxed));
            // Deviation from the pseudocode (matching the released C code):
            // also stop when the request is no longer pending, rather than
            // scanning on until a candidate turns up.
            while cand == 0 && s.pending && s.index == prior {
                i += 1;
                inject!("help_deq::candidate_scan");
                // SAFETY: hc starts at a hazard-protected segment ≤ i/N.
                let c = unsafe { &*find_cell(&hc, i, &self.src(h)) };
                match self.help_enq(h, c, i) {
                    HelpEnq::Empty => cand = i, // line 177
                    HelpEnq::Value(_) if c.load_deq() == DEQ_BOTTOM => cand = i,
                    _ => s = r.state(), // line 179
                }
            }
            if cand != 0 {
                // Lines 181–185: try to announce our candidate. The
                // candidate is consumed by the attempt whether or not the
                // CAS wins — the paper's pseudocode keeps it when
                // `s.idx < i` (line 204), which livelocks once the kept
                // candidate is itself the announced-and-stolen cell; the
                // authors' released C code resets it here (`new = 0`), and
                // so do we (erratum documented in DESIGN.md).
                inject!("help_deq::pre_announce");
                if r.cas_state((true, prior), (true, cand)) {
                    HandleStats::bump(&h.stats.help_deq_announce);
                    wfq_obs::record!(wfq_obs::EventKind::HelpDeqAnnounce, cand, id);
                }
                s = r.state();
                cand = 0;
            }
            // Line 188: request complete or superseded.
            if !s.pending || r.id() != id {
                wfq_obs::record!(wfq_obs::EventKind::HelpDeqExit, s.index, id);
                return;
            }
            // Line 190: locate the announced candidate.
            // SAFETY: announced indices increase monotonically from id
            // (Invariant 7), so ha.id ≤ s.index/N; hazard-protected.
            let c = unsafe { &*find_cell(&ha, s.index, &self.src(h)) };
            // Lines 191–199: the candidate satisfies the request if it
            // witnesses EMPTY (val = ⊤) or its value is claimed for r.
            if c.load_val() == VAL_TOP || c.try_claim_deq_slow(r_name) || c.load_deq() == r_name {
                inject!("help_deq::pre_complete");
                // The helper (or self-helper) just consumed the announced
                // cell for the request; mirror the consume before the
                // completing CAS so a crash in between still records the
                // delivery. Extra load is durable-only.
                #[cfg(feature = "durable")]
                {
                    let cv = c.load_val();
                    if cv != VAL_TOP {
                        persist!(self, consume(s.index, cv));
                    }
                }
                if r.cas_state((true, s.index), (false, s.index)) {
                    // line 196
                    HandleStats::bump(&h.stats.help_deq_complete);
                    wfq_obs::record!(wfq_obs::EventKind::HelpDeqComplete, s.index, id);
                }
                wfq_obs::record!(wfq_obs::EventKind::HelpDeqExit, s.index, id);
                return;
            }
            // Lines 200–204: prepare the next round.
            prior = s.index;
            if s.index >= i {
                cand = 0;
                i = s.index;
            }
        }
    }
}

/// The panic for an enqueue of a reserved pattern, out of line so that the
/// enqueue front carries only a call to it.
#[cold]
#[inline(never)]
fn reserved_value(v: u64) -> ! {
    panic!("RawQueue values must not be 0 or u64::MAX (reserved ⊥/⊤); got {v:#x}")
}

/// The paper's `advance_end_for_linearizability` (lines 53–55): CAS-max.
fn advance_index(e: &AtomicU64, cid: u64) {
    let mut cur = e.load(Ordering::SeqCst);
    while cur < cid {
        inject!("advance_index::pre_cas");
        match e.compare_exchange_weak(cur, cid, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => break,
            Err(seen) => cur = seen,
        }
    }
}

impl<const N: usize> Drop for RawQueue<N> {
    fn drop(&mut self) {
        // The nodes, and their spare segments, go with `self.nodes`.
        debug_assert!(
            self.nodes.iter().all(|n| !n.active.load(Ordering::Relaxed)),
            "RawQueue dropped while handles are still live"
        );
        // SAFETY: exclusive access; free the whole remaining segment chain.
        let mut s = self.q.load(Ordering::Relaxed);
        while !s.is_null() {
            let next = unsafe { (*s).next.load(Ordering::Relaxed) };
            unsafe { Segment::dealloc(s) };
            s = next;
        }
    }
}

impl<Q: QueueRef<N>, const N: usize> RawHandle<Q, N> {
    /// Registers a new handle on the queue `queue` holds (see
    /// [`RawQueue::register`]).
    pub(crate) fn attach(queue: Q) -> Self {
        let node = queue.raw(sealed::Token(())).acquire_node();
        Self { queue, node }
    }

    #[inline]
    fn raw(&self) -> &RawQueue<N> {
        self.queue.raw(sealed::Token(()))
    }

    #[inline]
    fn node(&self) -> &HandleNode<N> {
        // SAFETY: the node outlives the handle: it is freed only when the
        // queue drops, and `Q` keeps the queue alive while this handle
        // exists.
        unsafe { &*self.node }
    }

    /// Enqueues `v`. Wait-free. Panics if `v` is a reserved pattern
    /// (`0` or `u64::MAX`).
    ///
    /// In bounded mode this keeps the paper's always-succeeds semantics:
    /// it bypasses the admission gate and may push the queue past its
    /// segment ceiling (by the bounded overshoot described in
    /// [`Config::with_segment_ceiling`]). Use [`Handle::try_enqueue`] to
    /// respect the ceiling.
    #[inline]
    pub fn enqueue(&mut self, v: u64) {
        self.raw().enqueue_internal(self.node(), v);
    }

    /// Enqueues `v`, failing fast with [`Full`] if the queue is at its
    /// segment ceiling and a same-call forced reclamation pass cannot
    /// recover headroom. Wait-free (the rejection path does constant work
    /// plus one bounded ring scan). Panics on the reserved patterns.
    ///
    /// Without a ceiling ([`Config::segment_ceiling`] unset) this never
    /// returns `Err` and compiles to the same fast path as
    /// [`Handle::enqueue`] plus one branch.
    #[inline]
    pub fn try_enqueue(&mut self, v: u64) -> Result<(), Full> {
        self.raw().try_enqueue_internal(self.node(), v)
    }

    /// Dequeues the oldest value, or returns `None` if the queue was
    /// observed empty (the paper's EMPTY). Wait-free.
    #[inline]
    pub fn dequeue(&mut self) -> Option<u64> {
        self.raw().dequeue_internal(self.node())
    }

    /// Enqueues every value in `vs`, claiming `vs.len()` consecutive cells
    /// with a **single FAA** (DESIGN.md §10) — one atomic, one hazard
    /// publish, and one stats/help epilogue amortized over the whole batch.
    /// Equivalent to `vs.len()` back-to-back [`Handle::enqueue`] calls by
    /// this thread: within-batch FIFO order is preserved even when cells
    /// lose their deposit race and fall back to the help ring. Wait-free;
    /// panics if any value is a reserved pattern.
    ///
    /// Like [`Handle::enqueue`] this bypasses the bounded-mode admission
    /// gate; use [`Handle::try_enqueue_batch`] to respect the ceiling.
    #[inline]
    pub fn enqueue_batch(&mut self, vs: &[u64]) {
        self.raw().enqueue_batch_internal(self.node(), vs);
    }

    /// Enqueues every value in `vs`, or rejects the **whole batch** with
    /// [`Full`] when the segment ceiling leaves less than `⌈vs.len()/N⌉`
    /// segments of headroom and a forced reclamation pass cannot recover
    /// it. The gate runs before the claiming FAA, so on `Err` not one
    /// element entered the queue — the slice is handed back untouched, with
    /// no partial publication. Wait-free.
    #[inline]
    pub fn try_enqueue_batch(&mut self, vs: &[u64]) -> Result<(), Full> {
        self.raw().try_enqueue_batch_internal(self.node(), vs)
    }

    /// Dequeues up to `k` values into `out` with a **single FAA**,
    /// returning how many were appended. A short return means the `(H, T)`
    /// snapshot had fewer than `k` values available — it is the batch
    /// analogue of [`Handle::dequeue`] returning `None`, not a failure;
    /// unavailable cells are never claimed or burned. Wait-free.
    #[inline]
    pub fn dequeue_batch(&mut self, out: &mut Vec<u64>, k: usize) -> usize {
        self.raw().dequeue_batch_internal(self.node(), out, k)
    }

    /// The execution-path sample of this handle's most recent
    /// single-value operation (an [`OpSample`]): which protocol path it
    /// took (fast / slow / helped) and the op id the PR-5 span taxonomy
    /// keys on. `None` before the first operation, after batch operations
    /// (which do not update the sample), and always in builds without the
    /// `op-sample` feature — where this compiles to a constant.
    #[inline]
    pub fn last_op_sample(&self) -> Option<OpSample> {
        #[cfg(feature = "op-sample")]
        {
            return self.node().last_sample.get();
        }
        #[cfg(not(feature = "op-sample"))]
        {
            None
        }
    }

}

impl<'q, const N: usize> Handle<'q, N> {
    /// The queue this handle is registered with.
    pub fn queue(&self) -> &'q RawQueue<N> {
        self.queue
    }
}

impl<const N: usize> OwnedHandle<N> {
    /// Registers a new owned handle on `queue`.
    pub fn new(queue: Arc<RawQueue<N>>) -> Self {
        Self::attach(queue)
    }

    /// The queue this handle is registered with.
    pub fn queue(&self) -> &Arc<RawQueue<N>> {
        &self.queue
    }
}

impl<Q: QueueRef<N>, const N: usize> Drop for RawHandle<Q, N> {
    fn drop(&mut self) {
        self.raw().release_node(self.node);
    }
}

/// Test-only access to a handle's ring node (used by sibling-module tests).
#[cfg(test)]
pub(crate) fn test_node<const N: usize>(h: &Handle<'_, N>) -> *mut HandleNode<N> {
    h.node
}

impl<const N: usize> core::fmt::Debug for RawQueue<N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let (h, t) = self.indices();
        f.debug_struct("RawQueue")
            .field("segment_size", &N)
            .field("head_index", &h)
            .field("tail_index", &t)
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_on_a_single_thread() {
        let q: RawQueue<64> = RawQueue::new();
        let mut h = q.register();
        for v in 1..=100 {
            h.enqueue(v);
        }
        for v in 1..=100 {
            assert_eq!(h.dequeue(), Some(v));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn empty_queue_returns_none_repeatedly() {
        let q: RawQueue<64> = RawQueue::new();
        let mut h = q.register();
        for _ in 0..10 {
            assert_eq!(h.dequeue(), None);
        }
        // Emptiness probes consume cells but must not corrupt later ops.
        h.enqueue(5);
        assert_eq!(h.dequeue(), Some(5));
    }

    #[test]
    fn interleaved_enq_deq_single_thread() {
        let q: RawQueue<64> = RawQueue::new();
        let mut h = q.register();
        h.enqueue(1);
        h.enqueue(2);
        assert_eq!(h.dequeue(), Some(1));
        h.enqueue(3);
        assert_eq!(h.dequeue(), Some(2));
        assert_eq!(h.dequeue(), Some(3));
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn crosses_segment_boundaries() {
        let q: RawQueue<8> = RawQueue::new();
        let mut h = q.register();
        for v in 1..=1000u64 {
            h.enqueue(v);
        }
        for v in 1..=1000u64 {
            assert_eq!(h.dequeue(), Some(v));
        }
        assert_eq!(h.dequeue(), None);
    }

    /// A cleaner pushes an idle handle's `tail` and `head` past its
    /// mirrors. The mirrors then name an earlier segment than every index
    /// the handle takes, so its next operations leave the front for the
    /// remainders, which walk from the pushed pointers and refresh the
    /// mirrors; every value still comes out once and in order.
    #[test]
    fn handle_pushed_past_its_mirror_delivers_in_order() {
        let q: RawQueue<8> = RawQueue::with_config(Config::default().with_max_garbage(1));
        let mut a = q.register();
        let mut b = q.register();
        // SAFETY: nodes live as long as the queue; the pointer reads below
        // only run while no operation is in flight, so no segment they
        // name can be freed under them.
        let na = unsafe { &*test_node(&a) };
        let seg_id = |p: &AtomicPtr<Segment<8>>| unsafe { (*p.load(Ordering::SeqCst)).id() };
        let pushed = || {
            seg_id(&na.tail) > na.tail_seg_id.load(Ordering::Relaxed)
                && seg_id(&na.head) > na.head_seg_id.load(Ordering::Relaxed)
        };
        let mut v = 0;
        while !pushed() {
            v += 1;
            assert!(v < 1_000, "no cleanup pushed the idle handle");
            b.enqueue(v);
            assert_eq!(b.dequeue(), Some(v));
        }
        assert_eq!(na.tail_seg_id.load(Ordering::Relaxed), 0);
        assert_eq!(na.head_seg_id.load(Ordering::Relaxed), 0);
        assert!(q.stats().cleanups > 0);

        for v in 1..=40 {
            a.enqueue(v);
        }
        assert_eq!(na.tail_seg_id.load(Ordering::Relaxed), seg_id(&na.tail));
        for v in 1..=40 {
            assert_eq!(a.dequeue(), Some(v));
        }
        assert_eq!(na.head_seg_id.load(Ordering::Relaxed), seg_id(&na.head));
        assert_eq!(a.dequeue(), None);
        assert_eq!(b.dequeue(), None);
    }

    /// The dequeue front skips `cleanup` while its head stays in the
    /// mirror's segment, where `cleanup` would see the same head id as on
    /// its last call. On one thread that changes no reclamation: a run of
    /// bursts, drains and empty probes elects as many cleaners and frees
    /// as many segments as the queue that ran `cleanup` after every
    /// dequeue (the figures below were measured on that queue).
    #[test]
    fn skipping_cleanup_in_the_mirror_segment_keeps_reclamation() {
        let q: RawQueue<8> = RawQueue::with_config(Config::default().with_max_garbage(2));
        let mut h = q.register();
        let (mut next, mut expect) = (1u64, 1u64);
        for round in 0..400u64 {
            for _ in 0..round % 11 {
                h.enqueue(next);
                next += 1;
            }
            for _ in 0..round % 13 {
                if let Some(v) = h.dequeue() {
                    assert_eq!(v, expect);
                    expect += 1;
                }
            }
        }
        while let Some(v) = h.dequeue() {
            assert_eq!(v, expect);
            expect += 1;
        }
        assert_eq!(expect, next, "a value was lost");
        let s = q.stats();
        assert_eq!((s.cleanups, s.segs_freed), (127, 254), "{s:?}");
    }

    #[test]
    fn wf0_forces_the_slow_path_under_contention() {
        // With patience 0 and concurrent dequeuers poisoning cells, some
        // enqueues must complete via enq_slow — and remain correct.
        let q: RawQueue<16> = RawQueue::with_config(Config::wf0());
        let total = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..2 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register();
                    for v in 0..2000u64 {
                        h.enqueue(t * 10_000 + v + 1);
                    }
                });
            }
            for _ in 0..2 {
                let q = &q;
                let total = &total;
                s.spawn(move || {
                    let mut h = q.register();
                    let mut got = 0;
                    while got < 2000 {
                        if h.dequeue().is_some() {
                            got += 1;
                        }
                    }
                    total.fetch_add(got, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4000);
    }

    /// WF-0 conservation with slow-path requests named from several
    /// chunks of the slot table: four idle handles take slots 0–3 (chunks
    /// 0 and 1), so the six workers sit in slots 4–9 (chunks 1 and 2), and
    /// every value must come out exactly once.
    #[test]
    fn wf0_conserves_values_with_requests_named_across_chunks() {
        const PER: u64 = 3_000;
        const PRODUCERS: u64 = 3;
        let q: RawQueue<16> = RawQueue::with_config(Config::wf0());
        let idle: Vec<_> = (0..4).map(|_| q.register()).collect();
        let producers: Vec<_> = (0..PRODUCERS).map(|_| q.register()).collect();
        let consumers: Vec<_> = (0..PRODUCERS).map(|_| q.register()).collect();
        assert_eq!(q.nodes.len(), 10);
        let mut got: Vec<u64> = std::thread::scope(|s| {
            for (t, mut h) in (0u64..).zip(producers) {
                s.spawn(move || {
                    for v in 0..PER {
                        h.enqueue(t * PER + v + 1);
                    }
                });
            }
            let takers: Vec<_> = consumers
                .into_iter()
                .map(|mut h| {
                    s.spawn(move || {
                        let mut out = Vec::with_capacity(PER as usize);
                        while (out.len() as u64) < PER {
                            out.extend(h.dequeue());
                        }
                        out
                    })
                })
                .collect();
            takers.into_iter().flat_map(|t| t.join().unwrap()).collect()
        });
        got.sort_unstable();
        let want: Vec<u64> = (1..=PRODUCERS * PER).collect();
        assert!(got == want, "a value was lost or delivered twice");
        drop(idle);
        assert!(q.is_empty());
    }

    #[test]
    fn values_are_conserved_across_threads() {
        let q: RawQueue<256> = RawQueue::new();
        const PER: u64 = 5_000;
        const PRODUCERS: u64 = 4;
        let sum = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register();
                    for v in 0..PER {
                        h.enqueue(t * PER + v + 1);
                    }
                });
            }
            for _ in 0..4 {
                let q = &q;
                let sum = &sum;
                s.spawn(move || {
                    let mut h = q.register();
                    let mut local = 0u64;
                    let mut got = 0u64;
                    while got < PER {
                        if let Some(v) = h.dequeue() {
                            local += v;
                            got += 1;
                        }
                    }
                    sum.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        let expect: u64 = (1..=PRODUCERS * PER).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expect);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_value_zero_panics() {
        let q: RawQueue<64> = RawQueue::new();
        let mut h = q.register();
        h.enqueue(0);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_value_max_panics() {
        let q: RawQueue<64> = RawQueue::new();
        let mut h = q.register();
        h.enqueue(u64::MAX);
    }

    #[test]
    fn handles_recycle_through_the_pool() {
        let q: RawQueue<64> = RawQueue::new();
        let n1;
        {
            let h = q.register();
            n1 = h.node;
        }
        let h2 = q.register();
        assert_eq!(h2.node, n1, "dropped handle's node must be reused");
        assert_eq!(q.nodes.len(), 1);
    }

    #[test]
    fn stats_count_fast_paths_when_uncontended() {
        let q: RawQueue<64> = RawQueue::new();
        let mut h = q.register();
        for v in 1..=50 {
            h.enqueue(v);
        }
        for _ in 0..50 {
            h.dequeue();
        }
        let s = q.stats();
        assert_eq!(s.enqueues(), 50);
        assert_eq!(s.dequeues(), 50);
        assert_eq!(s.enq_slow, 0, "no contention, no slow path");
        assert_eq!(s.deq_slow, 0);
        assert_eq!(s.deq_empty, 0);
    }

    #[test]
    fn stats_count_empty_dequeues() {
        let q: RawQueue<64> = RawQueue::new();
        let mut h = q.register();
        h.dequeue();
        h.dequeue();
        assert_eq!(q.stats().deq_empty, 2);
    }

    #[test]
    fn advance_index_is_a_cas_max() {
        let a = AtomicU64::new(5);
        advance_index(&a, 3);
        assert_eq!(a.load(Ordering::Relaxed), 5);
        advance_index(&a, 9);
        assert_eq!(a.load(Ordering::Relaxed), 9);
        advance_index(&a, 9);
        assert_eq!(a.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn gauges_reflect_idle_and_active_state() {
        let q: RawQueue<64> = RawQueue::new();
        let mut h = q.register();
        for v in 1..=100 {
            h.enqueue(v);
        }
        let g = q.gauges();
        assert_eq!(g.tail_index, 100);
        assert_eq!(g.head_index, 0);
        assert_eq!(g.active_handles, 1);
        assert_eq!(g.total_handles, 1);
        assert_eq!(g.min_hazard, None, "idle handle: no hazard published");
        assert_eq!(g.hazard_lag_segments, 0);
        assert_eq!(g.pending_enq_reqs, 0);
        assert_eq!(g.pending_deq_reqs, 0);
        assert_eq!(g.oldest_segment_id, 0);
        // 100 values over 64-cell segments: at least two segments live.
        assert!(g.live_segments >= 2, "{g:?}");
        drop(h);
        assert_eq!(q.gauges().active_handles, 0);
    }

    #[test]
    fn debug_formatting_mentions_indices() {
        let q: RawQueue<64> = RawQueue::new();
        let s = format!("{q:?}");
        assert!(s.contains("head_index"));
        assert!(s.contains("tail_index"));
    }

    #[test]
    fn batch_roundtrip_preserves_fifo() {
        let q: RawQueue<64> = RawQueue::new();
        let mut h = q.register();
        let vals: Vec<u64> = (1..=100).collect();
        h.enqueue_batch(&vals);
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 100), 100);
        assert_eq!(out, vals);
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn batch_crosses_segment_boundaries() {
        let q: RawQueue<8> = RawQueue::new();
        let mut h = q.register();
        let vals: Vec<u64> = (1..=1000).collect();
        for chunk in vals.chunks(37) {
            h.enqueue_batch(chunk);
        }
        let mut out = Vec::new();
        while h.dequeue_batch(&mut out, 29) > 0 {}
        assert_eq!(out, vals);
    }

    #[test]
    fn batch_dequeue_trims_to_available_without_burning() {
        let q: RawQueue<64> = RawQueue::new();
        let mut h = q.register();
        h.enqueue_batch(&[1, 2, 3]);
        let mut out = Vec::new();
        // Asking for 10 with 3 available claims exactly 3 cells: the next
        // enqueue/dequeue pair must still meet (no cells burned past T).
        assert_eq!(h.dequeue_batch(&mut out, 10), 3);
        assert_eq!(out, [1, 2, 3]);
        assert_eq!(q.indices(), (3, 3), "partial probe must not overclaim");
        let s = q.stats();
        assert_eq!(s.deq_batch_partial, 1);
        assert_eq!(s.deq_batched_vals, 3);
    }

    #[test]
    fn batch_dequeue_on_empty_queue_returns_zero() {
        let q: RawQueue<64> = RawQueue::new();
        let mut h = q.register();
        let mut out = Vec::new();
        // First call probes H == T (burns one cell, like single dequeue);
        // once H > T later calls are FAA-free fast-outs.
        assert_eq!(h.dequeue_batch(&mut out, 8), 0);
        assert_eq!(h.dequeue_batch(&mut out, 8), 0);
        assert!(out.is_empty());
        h.enqueue(5);
        assert_eq!(h.dequeue_batch(&mut out, 8), 1);
        assert_eq!(out, [5]);
    }

    #[test]
    fn batch_mixed_with_singles_stays_fifo() {
        let q: RawQueue<16> = RawQueue::new();
        let mut h = q.register();
        h.enqueue(1);
        h.enqueue_batch(&[2, 3, 4]);
        h.enqueue(5);
        h.enqueue_batch(&[6, 7]);
        let mut out = Vec::new();
        assert_eq!(h.dequeue(), Some(1));
        assert_eq!(h.dequeue_batch(&mut out, 4), 4);
        assert_eq!(out, [2, 3, 4, 5]);
        assert_eq!(h.dequeue(), Some(6));
        assert_eq!(h.dequeue(), Some(7));
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn batch_edge_widths_zero_and_one() {
        let q: RawQueue<64> = RawQueue::new();
        let mut h = q.register();
        h.enqueue_batch(&[]);
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 0), 0);
        assert_eq!(q.indices(), (0, 0), "width 0: no FAA at all");
        // Width 1 delegates to the one-shot path: no batch counters.
        h.enqueue_batch(&[9]);
        assert_eq!(h.dequeue(), Some(9));
        let s = q.stats();
        assert_eq!(s.enq_batches, 0);
        assert_eq!(s.enq_fast, 1);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn batch_rejects_reserved_values_before_any_claim() {
        let q: RawQueue<64> = RawQueue::new();
        let mut h = q.register();
        h.enqueue_batch(&[1, 2, 0]);
    }

    #[test]
    fn batch_stats_count_every_element() {
        let q: RawQueue<64> = RawQueue::new();
        let mut h = q.register();
        h.enqueue_batch(&[1, 2, 3, 4]);
        h.enqueue(5);
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 5), 5);
        let s = q.stats();
        assert_eq!(s.enqueues(), 5, "batched elements count as enqueues");
        assert_eq!(s.dequeues(), 5);
        assert_eq!(s.enq_batches, 1);
        assert_eq!(s.enq_batched_vals, 4);
        assert_eq!(s.deq_batches, 1);
        assert_eq!(s.deq_batched_vals, 5);
        assert!((s.avg_enq_batch_width() - 4.0).abs() < 1e-9);
        assert_eq!(s.enq_batch_stragglers, 0);
        assert_eq!(s.enq_batch_abandoned, 0);
    }

    #[test]
    fn concurrent_batches_conserve_values() {
        let q: RawQueue<32> = RawQueue::new();
        const PER: u64 = 4_000;
        const PRODUCERS: u64 = 3;
        let sum = std::sync::atomic::AtomicU64::new(0);
        let taken = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register();
                    let vals: Vec<u64> = (0..PER).map(|v| t * PER + v + 1).collect();
                    for chunk in vals.chunks(8) {
                        h.enqueue_batch(chunk);
                    }
                });
            }
            // Consumers exit on a *shared* taken-count: a batch can deliver
            // past a per-consumer quota, which would strand a sibling.
            let taken = &taken;
            for _ in 0..3 {
                let q = &q;
                let sum = &sum;
                s.spawn(move || {
                    let mut h = q.register();
                    let mut local = 0u64;
                    let mut out = Vec::new();
                    while taken.load(Ordering::Relaxed) < PRODUCERS * PER {
                        out.clear();
                        let n = h.dequeue_batch(&mut out, 8) as u64;
                        if n > 0 {
                            local += out.iter().sum::<u64>();
                            taken.fetch_add(n, Ordering::Relaxed);
                        }
                    }
                    sum.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(taken.load(Ordering::Relaxed), PRODUCERS * PER);
        let expect: u64 = (1..=PRODUCERS * PER).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn wf0_concurrent_batches_survive_the_slow_path() {
        // Patience 0 + contending batch dequeuers force straggler cells
        // through the help ring; values must still be conserved in order.
        let q: RawQueue<16> = RawQueue::with_config(Config::wf0());
        let taken = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register();
                    let vals: Vec<u64> = (0..2000).map(|v| t * 10_000 + v + 1).collect();
                    for chunk in vals.chunks(5) {
                        h.enqueue_batch(chunk);
                    }
                });
            }
            // Shared exit condition — a batch can overshoot a per-consumer
            // quota and strand the sibling below its own.
            let taken = &taken;
            for _ in 0..2 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register();
                    let mut prev_per_producer = [0u64; 2];
                    let mut out = Vec::new();
                    while taken.load(Ordering::Relaxed) < 4000 {
                        out.clear();
                        let n = h.dequeue_batch(&mut out, 7) as u64;
                        if n > 0 {
                            taken.fetch_add(n, Ordering::Relaxed);
                        }
                        for &v in &out {
                            // Per-producer order must survive the help ring.
                            let p = (v / 10_000) as usize;
                            assert!(v > prev_per_producer[p], "FIFO violated: {v}");
                            prev_per_producer[p] = v;
                        }
                    }
                });
            }
        });
        assert_eq!(taken.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn owned_raw_handle_moves_into_spawned_threads() {
        let q: Arc<RawQueue<64>> = Arc::new(RawQueue::new());
        let mut producer = OwnedHandle::new(Arc::clone(&q));
        let mut consumer = OwnedHandle::new(Arc::clone(&q));
        let p = std::thread::spawn(move || {
            for v in 1..=1000 {
                producer.enqueue(v);
            }
        });
        let c = std::thread::spawn(move || {
            let mut got = 0u64;
            let mut sum = 0u64;
            while got < 1000 {
                if let Some(v) = consumer.dequeue() {
                    sum += v;
                    got += 1;
                }
            }
            sum
        });
        p.join().unwrap();
        assert_eq!(c.join().unwrap(), (1..=1000u64).sum::<u64>());
    }

    #[test]
    fn owned_handles_batch_across_spawned_threads() {
        let q: Arc<RawQueue<64>> = Arc::new(RawQueue::new());
        let mut producer = OwnedHandle::new(Arc::clone(&q));
        let mut consumer = OwnedHandle::new(Arc::clone(&q));
        let p = std::thread::spawn(move || {
            let vals: Vec<u64> = (1..=1000).collect();
            for chunk in vals.chunks(16) {
                producer.enqueue_batch(chunk);
            }
        });
        let c = std::thread::spawn(move || {
            let mut sum = 0u64;
            let mut got = 0usize;
            let mut out = Vec::new();
            while got < 1000 {
                out.clear();
                got += consumer.dequeue_batch(&mut out, 16);
                sum += out.iter().sum::<u64>();
            }
            sum
        });
        p.join().unwrap();
        assert_eq!(c.join().unwrap(), (1..=1000u64).sum::<u64>());
    }

    #[test]
    fn queue_outlives_via_arc_even_after_local_drop() {
        let mut h = {
            let q: Arc<RawQueue<64>> = Arc::new(RawQueue::new());
            OwnedHandle::new(q) // the only Arc moves in
        };
        h.enqueue(5);
        assert_eq!(h.dequeue(), Some(5));
    }

    #[test]
    fn owned_handles_recycle_nodes() {
        let q: Arc<RawQueue<64>> = Arc::new(RawQueue::new());
        let n1 = {
            let h = OwnedHandle::new(Arc::clone(&q));
            h.node
        };
        let h2 = OwnedHandle::new(Arc::clone(&q));
        assert_eq!(h2.node, n1);
    }
}
