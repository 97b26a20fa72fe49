//! CRQ — the Concurrent Ring Queue of Morrison & Afek (PPoPP 2013).
//!
//! A bounded ring of `R` cells indexed by unbounded head/tail counters.
//! Enqueue and dequeue each claim an index with one FAA, then settle the
//! cell with a double-width CAS over its `(val, safe|idx)` pair. A cell's
//! 63-bit `idx` remembers which "round" (`index / R`) it is valid for; the
//! `safe` bit records whether a slow dequeuer may have abandoned the round,
//! in which case an enqueuer must re-check `head` before using the cell.
//!
//! A CRQ can become *closed* (tail's top bit): when the ring is full or an
//! enqueuer is starving, enqueues stop permanently and the LCRQ layer links
//! a fresh CRQ behind it. This file is the ring only; see [`crate::lcrq`]
//! for the list-of-CRQs queue the paper benchmarks.

use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use wfq_sync::dwcas::AtomicU128;
use wfq_sync::CachePadded;

/// Default ring order: the paper uses 2^12 cells per CRQ for LCRQ.
pub const DEFAULT_RING_ORDER: u32 = 12;

/// Sentinel for "no value" in a cell.
const EMPTY_VAL: u64 = 0;
/// Closed bit on the tail counter.
const CLOSED_BIT: u64 = 1 << 63;
/// Safe bit within a cell's `safe|idx` word.
const SAFE_BIT: u64 = 1 << 63;
const IDX_MASK: u64 = SAFE_BIT - 1;

/// Enqueue attempt outcomes at the ring level.
#[derive(Debug, PartialEq, Eq)]
pub enum CrqPush {
    /// Value stored.
    Ok,
    /// The ring is closed; the caller must move to (or create) a successor.
    Closed,
}

#[inline]
const fn pack_idx(safe: bool, idx: u64) -> u64 {
    (idx & IDX_MASK) | if safe { SAFE_BIT } else { 0 }
}

#[inline]
const fn idx_of(word: u64) -> u64 {
    word & IDX_MASK
}

#[inline]
const fn is_safe(word: u64) -> bool {
    word & SAFE_BIT != 0
}

/// One ring queue. Cells store `(safe|idx, val)` in a 16-byte CAS2 unit.
pub struct Crq {
    head: CachePadded<AtomicU64>,
    /// Tail counter; bit 63 = closed.
    tail: CachePadded<AtomicU64>,
    /// Next CRQ in the LCRQ list.
    pub(crate) next: AtomicPtr<Crq>,
    ring: Box<[AtomicU128]>,
    order: u32,
}

impl Crq {
    /// Creates an empty ring of `2^order` cells.
    pub fn new(order: u32) -> Self {
        let size = 1usize << order;
        let ring: Box<[AtomicU128]> = (0..size as u64)
            // lo = safe|idx (initially safe, idx = cell number), hi = val.
            .map(|i| AtomicU128::new(pack_idx(true, i), EMPTY_VAL))
            .collect();
        Self {
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
            next: AtomicPtr::new(core::ptr::null_mut()),
            ring,
            order,
        }
    }

    /// Ring capacity.
    #[inline]
    pub fn capacity(&self) -> u64 {
        1 << self.order
    }

    #[inline]
    fn cell(&self, index: u64) -> &AtomicU128 {
        &self.ring[(index & (self.capacity() - 1)) as usize]
    }

    /// Whether enqueues are permanently rejected.
    pub fn is_closed(&self) -> bool {
        self.tail.load(Ordering::SeqCst) & CLOSED_BIT != 0
    }

    /// Closes the ring (idempotent).
    pub fn close(&self) {
        self.tail.fetch_or(CLOSED_BIT, Ordering::SeqCst);
    }

    /// Current head index (for drain checks).
    pub fn head_index(&self) -> u64 {
        self.head.load(Ordering::SeqCst)
    }

    /// Current tail index with the closed bit stripped.
    pub fn tail_index(&self) -> u64 {
        self.tail.load(Ordering::SeqCst) & !CLOSED_BIT
    }

    /// Enqueues `v` (must be non-zero and below `u64::MAX`).
    pub fn enqueue(&self, v: u64) -> CrqPush {
        debug_assert!(v != EMPTY_VAL && v != u64::MAX);
        let mut attempts = 0u32;
        loop {
            let t_raw = self.tail.fetch_add(1, Ordering::SeqCst);
            if t_raw & CLOSED_BIT != 0 {
                return CrqPush::Closed;
            }
            let t = t_raw & !CLOSED_BIT;
            let cell = self.cell(t);
            let (cidx, cval) = cell.load();
            let idx = idx_of(cidx);
            let safe = is_safe(cidx);
            // The cell is usable for round t if it is empty, its idx hasn't
            // been advanced past t by a dequeuer, and either it is safe or
            // the head proves no dequeuer is waiting at t.
            if cval == EMPTY_VAL
                && idx <= t
                && (safe || self.head.load(Ordering::SeqCst) <= t)
                && cell
                    .compare_exchange((cidx, cval), (pack_idx(true, t), v))
                    .is_ok()
            {
                return CrqPush::Ok;
            }
            // Failed this index: close if the ring is full or we starve.
            let h = self.head.load(Ordering::SeqCst);
            attempts += 1;
            if t.wrapping_sub(h) >= self.capacity() || attempts >= 16 {
                self.close();
                return CrqPush::Closed;
            }
        }
    }

    /// Dequeues the oldest value, or `None` if the ring was observed empty
    /// (which for a closed ring is permanent).
    pub fn dequeue(&self) -> Option<u64> {
        loop {
            let h = self.head.fetch_add(1, Ordering::SeqCst);
            let cell = self.cell(h);
            loop {
                let (cidx, cval) = cell.load();
                let idx = idx_of(cidx);
                let safe = is_safe(cidx);
                if idx > h {
                    break; // cell already belongs to a later round
                }
                if cval != EMPTY_VAL {
                    if idx == h {
                        // The value for our round: take it, bumping the
                        // cell to the next round.
                        if cell
                            .compare_exchange((cidx, cval), (pack_idx(safe, h + self.capacity()), EMPTY_VAL))
                            .is_ok()
                        {
                            return Some(cval);
                        }
                    } else {
                        // A value from an earlier round is stuck here: mark
                        // the cell unsafe so its enqueuer round can't be
                        // harvested twice, then give up on this index.
                        if cell
                            .compare_exchange((cidx, cval), (pack_idx(false, idx), cval))
                            .is_ok()
                        {
                            break;
                        }
                    }
                } else {
                    // Empty: advance the cell's round so a late enqueuer of
                    // round h cannot deposit a value we already passed.
                    if cell
                        .compare_exchange((cidx, cval), (pack_idx(safe, h + self.capacity()), EMPTY_VAL))
                        .is_ok()
                    {
                        break;
                    }
                }
            }
            // This index yielded nothing; if the ring has caught up, it is
            // empty — repair head/tail and report.
            let t = self.tail_index();
            if t <= h + 1 {
                self.fix_state();
                return None;
            }
        }
    }

    /// Repairs `head > tail` inversions left by failed dequeues racing
    /// enqueues (Morrison & Afek's `fixState`).
    fn fix_state(&self) {
        loop {
            let t_raw = self.tail.load(Ordering::SeqCst);
            let h = self.head.load(Ordering::SeqCst);
            if self.tail.load(Ordering::SeqCst) != t_raw {
                continue;
            }
            let t = t_raw & !CLOSED_BIT;
            if h <= t {
                return; // nothing to fix
            }
            let fixed = (t_raw & CLOSED_BIT) | h;
            if self
                .tail
                .compare_exchange(t_raw, fixed, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let q = Crq::new(8);
        for v in 1..=100 {
            assert_eq!(q.enqueue(v), CrqPush::Ok);
        }
        for v in 1..=100 {
            assert_eq!(q.dequeue(), Some(v));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn wraps_rounds_repeatedly() {
        let q = Crq::new(4); // 16 cells
        for round in 0..50u64 {
            for v in 1..=10 {
                assert_eq!(q.enqueue(round * 10 + v), CrqPush::Ok);
            }
            for v in 1..=10 {
                assert_eq!(q.dequeue(), Some(round * 10 + v));
            }
        }
    }

    #[test]
    fn fills_and_closes() {
        let q = Crq::new(3); // 8 cells
        let mut pushed = 0;
        for v in 1..=100 {
            match q.enqueue(v) {
                CrqPush::Ok => pushed += 1,
                CrqPush::Closed => break,
            }
        }
        assert!(pushed >= 8, "ring should at least fill before closing");
        assert!(q.is_closed());
        // Everything pushed is still dequeueable in order.
        for v in 1..=pushed {
            assert_eq!(q.dequeue(), Some(v));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn closed_ring_rejects_enqueues() {
        let q = Crq::new(4);
        q.close();
        assert_eq!(q.enqueue(1), CrqPush::Closed);
        assert!(q.is_closed());
    }

    #[test]
    fn fix_state_repairs_overshoot() {
        let q = Crq::new(4);
        // Dequeue on empty overshoots head past tail...
        assert_eq!(q.dequeue(), None);
        assert_eq!(q.dequeue(), None);
        // ...but fix_state keeps the ring usable.
        assert_eq!(q.enqueue(7), CrqPush::Ok);
        assert_eq!(q.dequeue(), Some(7));
    }

    #[test]
    fn concurrent_ring_traffic_conserves_values() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let q = Crq::new(10);
        let sum = AtomicU64::new(0);
        let got = AtomicU64::new(0);
        let pushed = AtomicU64::new(0);
        let producing = AtomicU64::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let q = &q;
                let (pushed, producing) = (&pushed, &producing);
                s.spawn(move || {
                    for v in 0..400 {
                        if q.enqueue(t * 400 + v + 1) == CrqPush::Ok {
                            pushed.fetch_add(t * 400 + v + 1, Ordering::Relaxed);
                        }
                        // Ring may close under pathological interleavings;
                        // the LCRQ layer handles that. Here we just stop.
                        if q.is_closed() {
                            break;
                        }
                    }
                    producing.fetch_sub(1, Ordering::Release);
                });
            }
            for _ in 0..2 {
                let q = &q;
                let sum = &sum;
                let got = &got;
                let producing = &producing;
                s.spawn(move || {
                    // Idle polls count only once both producers are done: a
                    // descheduled producer must not end the drain early.
                    let mut idle = 0;
                    while idle < 10_000 {
                        match q.dequeue() {
                            Some(v) => {
                                sum.fetch_add(v, Ordering::Relaxed);
                                got.fetch_add(1, Ordering::Relaxed);
                                idle = 0;
                            }
                            None if producing.load(Ordering::Acquire) == 0 => idle += 1,
                            None => {}
                        }
                    }
                });
            }
        });
        // Every successfully enqueued value must come out exactly once.
        assert_eq!(sum.load(Ordering::Relaxed), pushed.load(Ordering::Relaxed));
    }
}
