//! SCQ — the Scalable Circular Queue of Nikolaev (DISC 2019,
//! arXiv 1908.04511), §4.
//!
//! A bounded lock-free FIFO built from *two* index rings over one data
//! array of `n` slots: `aq` holds the indices of slots currently carrying
//! values, `fq` holds the free indices (initially `0..n`). Enqueue moves
//! an index from `fq` to `aq` (writing the value in between); dequeue
//! moves it back. Indirection is what lets the ring use plain 64-bit CAS
//! instead of LCRQ's CAS2: an entry packs `(cycle, isSafe, index)` into
//! one word because the index is small.
//!
//! Each ring has `2n` entries — twice the capacity — which is SCQ's
//! central trick ("⌈n/2⌉-spaced indices"): with at most `n` live indices
//! in a `2n` ring, an enqueuer's FAA-claimed slot is empty often enough
//! that livelock cannot occur. The other SCQ ingredients, all per the
//! paper:
//!
//! - **cycle tags**: a ring of `2n` entries indexed by unbounded
//!   head/tail tickets; entry cycle = `ticket / 2n`. An entry is
//!   consumable only by the dequeuer whose ticket matches its cycle.
//! - **`⊥` and unsafe bits**: empty entries hold `⊥`; a dequeuer that
//!   overtakes a stuck old-cycle value clears the entry's *safe* bit so
//!   its enqueuer learns the value may no longer be harvested for that
//!   cycle (it re-checks `head` before reusing the slot).
//! - **threshold counter**: reset to `3n - 1` after every successful
//!   enqueue, decremented by every dequeue ticket that finds nothing;
//!   once it drops below zero the queue was observably empty and
//!   dequeuers stop burning tickets. This bounds the head/tail gap and is
//!   what makes the empty-probe path cheap (one load).
//! - **`catchup`**: repairs `head > tail` overshoot left by empty probes
//!   (the analogue of CRQ's `fixState`).
//!
//! Progress: lock-free (an operation retries only because another
//! operation succeeded). The [`Scq`] wrapper's blocking `enqueue` spins on
//! a full ring — use `try_enqueue` for backpressure. SCQ is the
//! repository's bounded-memory baseline: the wait-free queue has no
//! segment ceiling, as in the paper, and a bound done properly is a ring
//! (DESIGN.md §9). Values are restricted to `1 ..= u64::MAX - 2` like
//! every queue in this crate.

use core::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use wfq_sync::{inject, CachePadded};
use wfqueue::{BackendHandle, Full, QueueBackend, QueueStats};

/// Default ring order: capacity `2^15` slots (each index ring has `2^16`
/// entries). Large enough that every repo workload stays below capacity.
pub const DEFAULT_ORDER: u32 = 15;

/// Largest supported order: each ring then has `2^25` entries (256 MiB).
pub const MAX_ORDER: u32 = 24;

/// Entry layout: `cycle << 33 | safe << 32 | idx`.
const IDX_MASK: u64 = u32::MAX as u64;
const SAFE_BIT: u64 = 1 << 32;
const CYCLE_SHIFT: u32 = 33;

/// `⊥`: the empty index. All ones, so a consuming `fetch_or(IDX_MASK)`
/// turns any entry into an empty one in a single atomic OR.
const BOT: u64 = IDX_MASK;

#[inline]
const fn pack(cycle: u64, safe: bool, idx: u64) -> u64 {
    (cycle << CYCLE_SHIFT) | if safe { SAFE_BIT } else { 0 } | idx
}

#[inline]
const fn ecycle(e: u64) -> u64 {
    e >> CYCLE_SHIFT
}

#[inline]
const fn eidx(e: u64) -> u64 {
    e & IDX_MASK
}

#[inline]
const fn esafe(e: u64) -> bool {
    e & SAFE_BIT != 0
}

/// One SCQ index ring of `2^(order+1)` entries holding up to `2^order`
/// live indices. [`Scq`] composes two of them (`aq`/`fq`).
pub struct ScqRing {
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
    /// SCQ's emptiness certificate; `< 0` means "observably empty".
    threshold: CachePadded<AtomicI64>,
    entries: Box<[AtomicU64]>,
    /// log2 of the entry count (= order + 1).
    ring_order: u32,
}

impl ScqRing {
    /// Creates a ring of capacity `2^order`, pre-filled with the indices
    /// `0..prefill` (pass 0 for an empty ring). Pre-filling is done
    /// arithmetically — the resulting state is exactly what `prefill`
    /// sequential enqueues into a fresh ring would produce.
    pub fn new(order: u32, prefill: u64) -> Self {
        assert!(order >= 1 && order <= MAX_ORDER, "scq order out of range");
        let ring_order = order + 1;
        let size = 1u64 << ring_order;
        assert!(prefill <= (1 << order), "prefill exceeds capacity");
        let ring = Self {
            head: CachePadded::new(AtomicU64::new(size)),
            tail: CachePadded::new(AtomicU64::new(size + prefill)),
            threshold: CachePadded::new(AtomicI64::new(if prefill == 0 {
                -1
            } else {
                3 * (1 << order) - 1
            })),
            entries: (0..size)
                .map(|_| AtomicU64::new(pack(0, true, BOT)))
                .collect(),
            ring_order,
        };
        for i in 0..prefill {
            let t = size + i; // cycle 1, like a real enqueue ticket
            ring.entries[ring.remap(t)].store(pack(ring.cycle(t), true, i), Ordering::Relaxed);
        }
        ring
    }

    /// Ring capacity (`n`): the most live indices it can hold.
    #[inline]
    pub fn capacity(&self) -> u64 {
        1 << (self.ring_order - 1)
    }

    /// Entry count (`2n`).
    #[inline]
    fn size(&self) -> u64 {
        1 << self.ring_order
    }

    #[inline]
    fn cycle(&self, ticket: u64) -> u64 {
        ticket >> self.ring_order
    }

    /// Maps a ticket to an entry, spreading consecutive tickets across
    /// cache lines (the paper's `cache_remap`; identity on tiny rings).
    #[inline]
    fn remap(&self, ticket: u64) -> usize {
        let j = ticket & (self.size() - 1);
        if self.ring_order >= 6 {
            let lines = self.size() >> 3; // 8 u64 entries per cache line
            (((j & (lines - 1)) << 3) | (j >> (self.ring_order - 3))) as usize
        } else {
            j as usize
        }
    }

    #[inline]
    fn threshold_init(&self) -> i64 {
        3 * self.capacity() as i64 - 1
    }

    #[inline]
    fn entry(&self, ticket: u64) -> &AtomicU64 {
        &self.entries[self.remap(ticket)]
    }

    /// Resets the emptiness certificate after a successful insert.
    #[inline]
    fn reset_threshold(&self) {
        inject!("scq::enq::threshold_reset");
        let init = self.threshold_init();
        if self.threshold.load(Ordering::SeqCst) != init {
            self.threshold.store(init, Ordering::SeqCst);
        }
    }

    /// Inserts `index` (must be `< capacity`). Never fails: the caller
    /// keeps at most `capacity` indices live, so some entry is always
    /// eventually claimable (the paper's livelock-freedom argument).
    pub fn enqueue(&self, index: u64) {
        debug_assert!(index < self.capacity());
        loop {
            let t = self.tail.fetch_add(1, Ordering::SeqCst);
            let tcycle = self.cycle(t);
            let entry = self.entry(t);
            let mut e = entry.load(Ordering::SeqCst);
            loop {
                // Claimable iff: from an older cycle, holding no value, and
                // either safe or provably not awaited by a lagging dequeuer.
                if ecycle(e) < tcycle
                    && eidx(e) == BOT
                    && (esafe(e) || self.head.load(Ordering::SeqCst) <= t)
                {
                    inject!("scq::enq::pre_cas");
                    match entry.compare_exchange(
                        e,
                        pack(tcycle, true, index),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    ) {
                        Ok(_) => {
                            self.reset_threshold();
                            return;
                        }
                        Err(seen) => {
                            e = seen;
                            continue;
                        }
                    }
                }
                break; // entry not claimable for this ticket: take a new one
            }
        }
    }

    /// Removes the oldest index, or `None` if the ring was observably
    /// empty during the call.
    pub fn dequeue(&self) -> Option<u64> {
        if self.threshold.load(Ordering::SeqCst) < 0 {
            return None; // certified empty: don't burn a ticket
        }
        loop {
            let h = self.head.fetch_add(1, Ordering::SeqCst);
            let hcycle = self.cycle(h);
            let entry = self.entry(h);
            let mut e = entry.load(Ordering::SeqCst);
            loop {
                if ecycle(e) == hcycle && eidx(e) != BOT {
                    // Our cycle's value. Only ticket h may consume it and
                    // in-cycle transitions preserve the idx bits, so the
                    // loaded index stays valid; fetch_or turns the entry
                    // into ⊥ whatever its concurrent safe-bit fate.
                    inject!("scq::deq::pre_consume");
                    entry.fetch_or(IDX_MASK, Ordering::SeqCst);
                    return Some(eidx(e));
                }
                if ecycle(e) < hcycle {
                    inject!("scq::deq::slot_advance");
                    let new = if eidx(e) == BOT {
                        // Nothing to wait for: advance the entry to our
                        // cycle (⊥) so a late enqueuer of ticket h cannot
                        // deposit a value we already passed.
                        pack(hcycle, esafe(e), BOT)
                    } else {
                        // A value from an earlier cycle is stuck here: mark
                        // it unsafe so its cycle cannot be harvested twice.
                        e & !SAFE_BIT
                    };
                    match entry.compare_exchange(e, new, Ordering::SeqCst, Ordering::SeqCst) {
                        Ok(_) => {}
                        Err(seen) => {
                            e = seen;
                            continue;
                        }
                    }
                }
                break; // ticket h yields nothing
            }
            let t = self.tail.load(Ordering::SeqCst);
            if t <= h + 1 {
                // The ring has caught up: it *was* empty at the FAA.
                inject!("scq::deq::catchup");
                self.catchup(t, h + 1);
                self.threshold.fetch_sub(1, Ordering::SeqCst);
                return None;
            }
            inject!("scq::deq::threshold_decrement");
            if self.threshold.fetch_sub(1, Ordering::SeqCst) <= 0 {
                return None;
            }
        }
    }

    /// Repairs `head > tail` overshoot left by empty probes (the paper's
    /// `catchup`, mirroring CRQ's `fixState`).
    fn catchup(&self, mut tail: u64, mut head: u64) {
        while self
            .tail
            .compare_exchange(tail, head, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            head = self.head.load(Ordering::SeqCst);
            tail = self.tail.load(Ordering::SeqCst);
            if tail >= head {
                break;
            }
        }
    }
}

/// Aggregated operation counters, flushed from handles on drop (hot paths
/// count in plain locals so the shared cache line is touched once per
/// handle lifetime, not once per op — same policy as the WF queue).
#[derive(Default)]
struct RingCounters {
    enq: AtomicU64,
    deq: AtomicU64,
    empty: AtomicU64,
    rejected: AtomicU64,
}

/// The full SCQ queue: two index rings around a data array.
pub struct Scq {
    /// Indices of slots currently holding values.
    aq: ScqRing,
    /// Free slot indices; starts holding `0..n`.
    fq: ScqRing,
    data: Box<[AtomicU64]>,
    counters: RingCounters,
}

impl Scq {
    /// Creates an SCQ with `2^order` slots of capacity.
    pub fn with_order(order: u32) -> Self {
        let n = 1u64 << order;
        Scq {
            aq: ScqRing::new(order, 0),
            fq: ScqRing::new(order, n),
            data: (0..n).map(|_| AtomicU64::new(0)).collect(),
            counters: RingCounters::default(),
        }
    }

    /// Slot capacity.
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    fn push(&self, v: u64) -> Result<(), Full> {
        // Move a free slot index to the allocated ring, with the value in
        // the slot in between. fq empty <=> all n slots live <=> full.
        let Some(i) = self.fq.dequeue() else {
            return Err(Full);
        };
        self.data[i as usize].store(v, Ordering::SeqCst);
        self.aq.enqueue(i);
        Ok(())
    }

    fn pop(&self) -> Option<u64> {
        let i = self.aq.dequeue()?;
        let v = self.data[i as usize].load(Ordering::SeqCst);
        self.fq.enqueue(i);
        Some(v)
    }
}

/// Per-thread handle for [`Scq`].
pub struct ScqHandle<'q> {
    q: &'q Scq,
    enq: u64,
    deq: u64,
    empty: u64,
    rejected: u64,
}

impl Drop for ScqHandle<'_> {
    fn drop(&mut self) {
        let c = &self.q.counters;
        c.enq.fetch_add(self.enq, Ordering::Relaxed);
        c.deq.fetch_add(self.deq, Ordering::Relaxed);
        c.empty.fetch_add(self.empty, Ordering::Relaxed);
        c.rejected.fetch_add(self.rejected, Ordering::Relaxed);
    }
}

impl BackendHandle for ScqHandle<'_> {
    fn enqueue(&mut self, v: u64) {
        // Blocking flavor of a fixed-capacity queue: spin until space.
        while self.try_enqueue(v).is_err() {
            core::hint::spin_loop();
        }
    }

    fn try_enqueue(&mut self, v: u64) -> Result<(), Full> {
        match self.q.push(v) {
            Ok(()) => {
                self.enq += 1;
                Ok(())
            }
            Err(full) => {
                self.rejected += 1;
                Err(full)
            }
        }
    }

    fn dequeue(&mut self) -> Option<u64> {
        match self.q.pop() {
            Some(v) => {
                self.deq += 1;
                Some(v)
            }
            None => {
                self.empty += 1;
                None
            }
        }
    }
}

impl QueueBackend for Scq {
    type Handle<'q> = ScqHandle<'q>;
    const NAME: &'static str = "SCQ";
    const FIXED_CAPACITY: bool = true;

    fn new() -> Self {
        Scq::with_order(DEFAULT_ORDER)
    }

    fn register(&self) -> Self::Handle<'_> {
        ScqHandle {
            q: self,
            enq: 0,
            deq: 0,
            empty: 0,
            rejected: 0,
        }
    }

    fn stats(&self) -> QueueStats {
        // Ring ops have one (FAA, CAS) shape — everything maps to the
        // taxonomy's fast path, plus EMPTY probes and full rejections.
        let c = &self.counters;
        QueueStats {
            enq_fast: c.enq.load(Ordering::Relaxed),
            deq_fast: c.deq.load(Ordering::Relaxed),
            deq_empty: c.empty.load(Ordering::Relaxed),
            enq_rejected: c.rejected.load(Ordering::Relaxed),
            ..QueueStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn ring_prefill_matches_sequential_enqueues() {
        let by_fill = ScqRing::new(4, 16);
        let by_hand = ScqRing::new(4, 0);
        for i in 0..16 {
            by_hand.enqueue(i);
        }
        for want in 0..16 {
            assert_eq!(by_fill.dequeue(), Some(want));
            assert_eq!(by_hand.dequeue(), Some(want));
        }
        assert_eq!(by_fill.dequeue(), None);
        assert_eq!(by_hand.dequeue(), None);
    }

    #[test]
    fn ring_wraps_cycles() {
        let r = ScqRing::new(3, 0); // capacity 8, 16 entries
        for round in 0..100u64 {
            for i in 0..8 {
                r.enqueue(i);
            }
            for i in 0..8 {
                assert_eq!(r.dequeue(), Some(i), "round {round}");
            }
            assert_eq!(r.dequeue(), None, "round {round}");
        }
    }

    #[test]
    fn threshold_makes_empty_probes_cheap() {
        let r = ScqRing::new(3, 0);
        assert_eq!(r.dequeue(), None);
        let head_after_first = r.head.load(Ordering::SeqCst);
        // Once certified empty, further probes must not burn tickets.
        for _ in 0..100 {
            assert_eq!(r.dequeue(), None);
        }
        assert_eq!(r.head.load(Ordering::SeqCst), head_after_first);
        // ...and an enqueue resurrects the ring.
        r.enqueue(5);
        assert_eq!(r.dequeue(), Some(5));
    }

    #[test]
    fn fifo_single_thread() {
        conformance::fifo_single_thread::<Scq>();
    }

    #[test]
    fn interleaved_single_thread() {
        conformance::interleaved_single_thread::<Scq>();
    }

    #[test]
    fn mpmc_conservation() {
        conformance::mpmc_conservation::<Scq>(3, 3, 2_000);
    }

    #[test]
    fn full_ring_rejects_and_recovers() {
        let q = Scq::with_order(3); // capacity 8
        let mut h = q.register();
        for v in 1..=8 {
            assert_eq!(h.try_enqueue(v), Ok(()));
        }
        assert_eq!(h.try_enqueue(9), Err(Full));
        assert_eq!(h.dequeue(), Some(1));
        assert_eq!(h.try_enqueue(9), Ok(()));
        for want in 2..=9 {
            assert_eq!(h.dequeue(), Some(want));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn stats_count_all_outcomes() {
        let q = Scq::with_order(3);
        let mut h = q.register();
        for v in 1..=8 {
            h.enqueue(v);
        }
        let _ = h.try_enqueue(99); // rejected
        while h.dequeue().is_some() {}
        drop(h); // flush
        let s = QueueBackend::stats(&q);
        assert_eq!(s.enq_fast, 8);
        assert_eq!(s.deq_fast, 8);
        assert_eq!(s.enq_rejected, 1);
        assert!(s.deq_empty >= 1);
    }
}
