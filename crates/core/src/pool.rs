//! Bounded-memory segment pool — the robustness layer over Listing 5.
//!
//! The paper's queue returns reclaimed segments to the allocator and grows
//! the chain without bound whenever a stalled thread pins the reclamation
//! boundary; `Segment::alloc` aborts on OOM. Bounded mode
//! ([`Config::with_segment_ceiling`](crate::Config::with_segment_ceiling))
//! interposes this pool between the chain and the allocator:
//!
//! - reclaimed segments are **scrubbed** back to their all-⊥ state and
//!   pushed onto a lock-free Treiber free list instead of being freed;
//! - a list extension draws from the pool first, and a **fresh** allocation
//!   is admitted only while `total` (every segment this queue currently
//!   owns: chain + pool + per-handle spares) is below the ceiling;
//! - an extension that finds the pool empty at the ceiling spins with
//!   [`wfq_sync::Backoff`] — a concurrent cleaner may recycle segments at
//!   any moment — and once the backoff saturates it *overshoots* the
//!   ceiling rather than blocking an in-flight operation forever.
//!
//! The overshoot is why the ceiling is **advisory, not exact**: an
//! operation that has already FAA'd an index must be able to reach its
//! cell, or wait-freedom (and with it the helping protocol) collapses.
//! Aksenov, Brown, Fedorov & Kokorin ("Memory Bounds of Concurrent Bounded
//! Queues") show that exact bounds require dequeuers to block enqueuers —
//! precisely what this queue's FAA-based design refuses to do. The
//! [`try_enqueue`](crate::Handle::try_enqueue) admission gate keeps the
//! overshoot bounded by the number of threads mid-operation: new work is
//! rejected with `Full` *before* it FAAs, so only already-admitted
//! operations can exceed the ceiling, each by at most one segment.
//!
//! ## ABA and the tagged head
//!
//! The Treiber head is a `(pointer, version)` pair updated with one
//! 128-bit CAS ([`wfq_sync::dwcas::AtomicU128`]); every successful pop or
//! push bumps the version, so a head recycled through pop→publish→retire→
//! push cannot be confused with its earlier incarnation. The 128-bit load
//! reads the halves separately and may *tear*; that is sound here for the
//! same reason it is in LCRQ: a torn pair never matches memory at CAS time,
//! and the only dereference before revalidation (`(*head).next`) touches
//! memory that stays mapped for the queue's whole life — pooled segments
//! are deallocated only when the pool itself drops, and popped segments are
//! republished into the chain, never freed while the queue lives.

use core::ptr;
use core::sync::atomic::{AtomicU64, Ordering};

use wfq_sync::dwcas::AtomicU128;
use wfq_sync::{inject, Backoff};

use crate::segment::Segment;

/// Lock-free free list of scrubbed segments plus the allocation gate for
/// bounded mode. With `ceiling == None` the pool is inert: `acquire`
/// forwards to [`Segment::alloc`] (abort-on-OOM, exactly the paper's
/// behavior) and `retire_list` frees, so the unbounded path is unchanged.
pub(crate) struct SegmentPool<const N: usize> {
    /// Treiber head: `(segment pointer, version)`.
    head: AtomicU128,
    /// Segments currently parked in the free list.
    pooled: AtomicU64,
    /// Segments this queue currently owns: chain + pool + spares. Only
    /// maintained in bounded mode (the unbounded path never reads it).
    total: AtomicU64,
    ceiling: Option<u64>,
}

// SAFETY: all shared state is behind atomics; segments handed out are
// exclusively owned by the receiver until published.
unsafe impl<const N: usize> Send for SegmentPool<N> {}
unsafe impl<const N: usize> Sync for SegmentPool<N> {}

impl<const N: usize> SegmentPool<N> {
    /// Creates a pool. `total` starts at 1 for the queue's initial segment.
    pub fn new(ceiling: Option<u64>) -> Self {
        Self {
            head: AtomicU128::new(0, 0),
            pooled: AtomicU64::new(0),
            total: AtomicU64::new(1),
            ceiling,
        }
    }

    /// The configured ceiling, if bounded.
    pub fn ceiling(&self) -> Option<u64> {
        self.ceiling
    }

    /// Segments currently parked in the free list.
    pub fn pooled(&self) -> u64 {
        self.pooled.load(Ordering::Relaxed)
    }

    /// Segments this queue currently owns (bounded mode only; the counter
    /// is not maintained on the unbounded path).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Whether a list extension could proceed right now without waiting:
    /// either a recycled segment is parked in the pool, or a fresh
    /// allocation is still under the ceiling. Always true when unbounded.
    /// Advisory — the answer can change before the caller acts on it.
    pub fn has_headroom(&self) -> bool {
        match self.ceiling {
            None => true,
            Some(c) => {
                self.pooled.load(Ordering::Relaxed) > 0
                    || self.total.load(Ordering::Relaxed) < c
            }
        }
    }

    /// Produces a segment stamped `id` for a list extension. Never returns
    /// null; in bounded mode it may wait (bounded backoff) for a cleaner to
    /// recycle, then overshoots the ceiling (see module docs).
    pub fn acquire(&self, id: u64) -> *mut Segment<N> {
        let Some(ceiling) = self.ceiling else {
            // Unbounded: the paper's behavior, aborting on OOM.
            return Segment::alloc(id);
        };
        let backoff = Backoff::new();
        loop {
            if let Some(seg) = self.try_pop() {
                // SAFETY: pushed segments were scrubbed to the all-⊥,
                // null-next state and we now own `seg` exclusively.
                unsafe { Segment::restamp(seg, id) };
                return seg;
            }
            if self.try_reserve_total(ceiling) {
                let seg = Segment::try_alloc(id);
                if !seg.is_null() {
                    return seg;
                }
                // Allocator refused: put the reservation back and retry —
                // memory (or a recycled segment) may appear.
                self.total.fetch_sub(1, Ordering::Relaxed);
            }
            if backoff.is_completed() {
                // Saturated with no headroom: an in-flight operation must
                // still complete (the FAA already happened), so overshoot
                // the ceiling rather than block. try_enqueue's admission
                // gate keeps this path rare and per-thread bounded.
                self.total.fetch_add(1, Ordering::Relaxed);
                let alloc_backoff = Backoff::new();
                loop {
                    let seg = Segment::try_alloc(id);
                    if !seg.is_null() {
                        return seg;
                    }
                    alloc_backoff.snooze();
                }
            }
            inject!("pool::stall");
            backoff.snooze();
        }
    }

    /// Retires the reclaimed chain `[from, to)`: recycled into the pool in
    /// bounded mode, freed otherwise. Returns `(retired, recycled)`.
    ///
    /// # Safety
    /// The chain must be intact and unreachable by any other thread (the
    /// caller holds the reclamation token and has moved `Q` past it).
    pub unsafe fn retire_list(
        &self,
        from: *mut Segment<N>,
        to: *mut Segment<N>,
    ) -> (u64, u64) {
        if self.ceiling.is_none() {
            // SAFETY: contract forwarded.
            return (unsafe { Segment::free_list(from, to) }, 0);
        }
        let mut cur = from;
        let mut n = 0;
        while cur != to {
            debug_assert!(!cur.is_null(), "retire_list ran off the chain");
            // The link must be read before push repurposes `next` as the
            // free-list pointer.
            // SAFETY: `cur` is in the retired chain, unreachable by others.
            let next = unsafe { (*cur).next.load(Ordering::Relaxed) };
            // SAFETY: as above — exclusive ownership of `cur`.
            unsafe { self.push(cur) };
            cur = next;
            n += 1;
        }
        (n, n)
    }

    /// Scrubs `seg` and pushes it onto the free list.
    ///
    /// # Safety
    /// `seg` must be exclusively owned by the caller and unreachable
    /// through the chain.
    pub unsafe fn push(&self, seg: *mut Segment<N>) {
        // SAFETY: exclusive ownership per the contract.
        unsafe { Segment::scrub(seg) };
        loop {
            let (head_bits, ver) = self.head.load();
            // SAFETY: we still own `seg` exclusively until the CAS wins.
            unsafe {
                (*seg)
                    .next
                    .store(head_bits as *mut Segment<N>, Ordering::Relaxed)
            };
            inject!("pool::push");
            if self
                .head
                .compare_exchange((head_bits, ver), (seg as u64, ver.wrapping_add(1)))
                .is_ok()
            {
                self.pooled.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Pops a scrubbed segment, if any. Lock-free.
    fn try_pop(&self) -> Option<*mut Segment<N>> {
        loop {
            let (head_bits, ver) = self.head.load();
            let head = head_bits as *mut Segment<N>;
            if head.is_null() {
                return None;
            }
            // SAFETY: even if (head, ver) tore, `head` was recently the
            // list head and its memory stays mapped for the queue's life
            // (module docs); a stale read is rejected by the CAS below.
            let next = unsafe { (*head).next.load(Ordering::Acquire) };
            inject!("pool::pop");
            if self
                .head
                .compare_exchange((head_bits, ver), (next as u64, ver.wrapping_add(1)))
                .is_ok()
            {
                self.pooled.fetch_sub(1, Ordering::Relaxed);
                // SAFETY: the pop made `head` exclusively ours.
                unsafe { (*head).next.store(ptr::null_mut(), Ordering::Relaxed) };
                return Some(head);
            }
        }
    }

    /// CAS-reserves one unit of `total` while it is below the ceiling.
    fn try_reserve_total(&self, ceiling: u64) -> bool {
        let mut cur = self.total.load(Ordering::Relaxed);
        while cur < ceiling {
            match self.total.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
        false
    }
}

impl<const N: usize> Drop for SegmentPool<N> {
    fn drop(&mut self) {
        // &mut self: no concurrent access; drain and free the list.
        let (head_bits, _) = self.head.load();
        let mut cur = head_bits as *mut Segment<N>;
        while !cur.is_null() {
            // SAFETY: pooled segments are owned by the pool alone.
            let next = unsafe { (*cur).next.load(Ordering::Relaxed) };
            // SAFETY: as above.
            unsafe { Segment::dealloc(cur) };
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::VAL_BOTTOM;

    type Pool = SegmentPool<64>;

    #[test]
    fn unbounded_pool_forwards_to_the_allocator() {
        let p = Pool::new(None);
        assert!(p.has_headroom());
        let s = p.acquire(3);
        unsafe {
            assert_eq!((*s).id(), 3);
            Segment::dealloc(s);
        }
        // retire_list frees instead of pooling.
        let a = Segment::<64>::alloc(0);
        let b = Segment::<64>::alloc(1);
        unsafe { (*a).next.store(b, Ordering::Relaxed) };
        let (retired, recycled) = unsafe { p.retire_list(a, b) };
        assert_eq!((retired, recycled), (1, 0));
        assert_eq!(p.pooled(), 0);
        unsafe { Segment::dealloc(b) };
    }

    #[test]
    fn bounded_pop_restamps_and_returns_clean_segments() {
        let p = Pool::new(Some(8));
        let s = Segment::<64>::alloc(5);
        // Dirty a cell, then retire through the pool.
        unsafe { (*s).cells[0].val.store(42, Ordering::Relaxed) };
        unsafe { p.push(s) };
        assert_eq!(p.pooled(), 1);
        let back = p.acquire(9);
        assert_eq!(back, s, "pool must recycle, not allocate");
        assert_eq!(p.pooled(), 0);
        unsafe {
            assert_eq!((*back).id(), 9);
            assert!((*back).next.load(Ordering::Relaxed).is_null());
            for c in &(*back).cells {
                assert_eq!(c.load_val(), VAL_BOTTOM, "scrub must reset cells");
            }
            Segment::dealloc(back);
        }
    }

    #[test]
    fn bounded_fresh_allocation_stops_at_the_ceiling() {
        let p = Pool::new(Some(3)); // initial segment counts: 2 more allowed
        let a = p.acquire(1);
        let b = p.acquire(2);
        assert_eq!(p.total(), 3);
        assert!(!p.has_headroom());
        assert!(!p.try_reserve_total(3));
        unsafe {
            Segment::dealloc(a);
            Segment::dealloc(b);
        }
    }

    #[test]
    fn headroom_reappears_when_segments_are_recycled() {
        let p = Pool::new(Some(2));
        let a = p.acquire(1);
        assert!(!p.has_headroom());
        unsafe { p.push(a) };
        assert!(p.has_headroom());
        assert_eq!(p.total(), 2, "recycling must not change total");
        // The pooled segment satisfies the next acquire without allocating.
        let back = p.acquire(7);
        assert_eq!(back, a);
        unsafe { Segment::dealloc(back) };
    }

    #[test]
    fn headroom_counts_pool_plus_ceiling_room() {
        let p = Pool::new(Some(2)); // initial segment counts: 1 allocatable
        assert!(p.has_headroom());
        let a = p.acquire(1);
        assert!(!p.has_headroom());
        // A pooled segment is headroom without changing total.
        unsafe { p.push(a) };
        assert!(p.has_headroom());
        assert_eq!(p.total(), 2);
        assert!(Pool::new(None).has_headroom(), "unbounded: always");
        let back = p.acquire(2);
        unsafe { Segment::dealloc(back) };
    }

    #[test]
    fn lifo_order_and_version_bumps() {
        let p = Pool::new(Some(16));
        let a = p.acquire(1);
        let b = p.acquire(2);
        unsafe {
            p.push(a);
            p.push(b);
        }
        assert_eq!(p.pooled(), 2);
        assert_eq!(p.acquire(10), b, "Treiber stack: LIFO");
        assert_eq!(p.acquire(11), a);
        unsafe {
            Segment::dealloc(a);
            Segment::dealloc(b);
        }
    }

    #[test]
    fn drop_frees_whatever_is_parked() {
        // Run under ASan/Miri-style leak checking in CI: dropping a pool
        // with parked segments must not leak.
        let p = Pool::new(Some(8));
        let segs: Vec<_> = (1..=4).map(|id| p.acquire(id)).collect();
        for s in segs {
            unsafe { p.push(s) };
        }
        assert_eq!(p.pooled(), 4);
        drop(p);
    }

    #[test]
    fn concurrent_push_pop_conserves_segments() {
        let p = Pool::new(Some(64));
        let segs: Vec<_> = (1..=16).map(|i| p.acquire(i)).collect();
        for &s in &segs {
            unsafe { p.push(s) };
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let p = &p;
                scope.spawn(move || {
                    for round in 0..200u64 {
                        if let Some(s) = p.try_pop() {
                            // SAFETY: popped: exclusively ours.
                            unsafe { Segment::restamp(s, 100 + round) };
                            unsafe { p.push(s) };
                        }
                    }
                });
            }
        });
        assert_eq!(p.pooled(), 16, "every segment must return to the pool");
        let mut drained = 0;
        while p.try_pop().is_some() {
            drained += 1;
        }
        assert_eq!(drained, 16);
        for &s in &segs {
            unsafe { Segment::dealloc(s) };
        }
    }
}
