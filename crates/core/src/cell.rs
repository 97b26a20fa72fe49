//! Queue cells and their reserved sentinel values (paper Listing 2, §3.3).
//!
//! A cell is the triple `(val, enq, deq)`:
//!
//! - `val` holds ⊥ (never written), ⊤ (marked unusable by a dequeuer), or an
//!   enqueued value;
//! - `enq` holds ⊥e (unreserved), ⊤e (no enqueue will ever fill this cell),
//!   or the name of the [`EnqReq`](crate::request::EnqReq) that reserved it;
//! - `deq` holds ⊥d (value unclaimed), ⊤d (claimed by a fast-path dequeue),
//!   or the name of the [`DeqReq`](crate::request::DeqReq) that claimed it.
//!
//! A request is named by the ordinal of the handle node that embeds it (its
//! *slot*), as the 32-bit word `slot + 2`; `0` and `1` stay ⊥ and ⊤. Each
//! node embeds one request per side, so a name says which node's request a
//! cell refers to; the enqueue side resolves it through the queue's slot
//! table ([`crate::handle::NodeTable`]), the dequeue side only compares
//! names. A cell is therefore 16 bytes, four to a cache line.
//!
//! Every cell starts as `(⊥, ⊥e, ⊥d)`. We choose the encodings so that the
//! all-zero bit pattern *is* that initial state, letting segments come out
//! of `alloc_zeroed` ready to use.

use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// ⊥ — the "never written" value sentinel.
pub(crate) const VAL_BOTTOM: u64 = 0;
/// ⊤ — the "unusable, no enqueue may deposit here" value sentinel.
pub(crate) const VAL_TOP: u64 = u64::MAX;

/// ⊥e — no enqueue request has reserved this cell.
pub(crate) const ENQ_BOTTOM: u32 = 0;
/// ⊤e — helpers agreed no enqueue request will ever fill this cell.
pub(crate) const ENQ_TOP: u32 = 1;

/// ⊥d — the value in this cell is unclaimed by dequeuers.
pub(crate) const DEQ_BOTTOM: u32 = 0;
/// ⊤d — the value was claimed by a fast-path dequeue.
pub(crate) const DEQ_TOP: u32 = 1;

/// The name a cell stores for the requests of the node in `slot`.
#[inline]
pub(crate) const fn req_name(slot: u32) -> u32 {
    slot + 2
}

/// The slot of the node whose request `name` (neither ⊥ nor ⊤) names.
#[inline]
pub(crate) const fn name_slot(name: u32) -> u32 {
    name - 2
}

/// Checks that a user value avoids the reserved patterns.
#[inline]
pub(crate) const fn is_valid_value(v: u64) -> bool {
    v != VAL_BOTTOM && v != VAL_TOP
}

/// One cell of the emulated infinite array.
///
/// Aligned to its size, so a cell never straddles a cache line and a
/// 64-byte line holds exactly four cells.
#[derive(Debug)]
#[repr(C, align(16))]
pub(crate) struct Cell {
    pub val: AtomicU64,
    pub enq: AtomicU32,
    pub deq: AtomicU32,
}

// The layout the memory figures in DESIGN.md assume: 16 bytes, and an
// alignment that divides 64, so no cell spans two cache lines.
const _: () = {
    assert!(core::mem::size_of::<Cell>() == 16);
    assert!(core::mem::align_of::<Cell>() == core::mem::size_of::<Cell>());
    assert!(64 % core::mem::size_of::<Cell>() == 0);
};

impl Cell {
    /// Fast-path enqueue deposit: `(val: ⊥ → v)` (paper line 68).
    #[inline]
    pub fn try_deposit(&self, v: u64) -> bool {
        self.val
            .compare_exchange(VAL_BOTTOM, v, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// The help_enq opening move (paper line 91): `(val: ⊥ → ⊤)`. Returns
    /// the value if the cell already held a real one.
    ///
    /// The cell is read first and CASed only while it is still ⊥, as the
    /// authors' C code does. A failed CAS is a SeqCst read, so the plain
    /// SeqCst load means the same thing, and a filled cell — the common
    /// case of every dequeue from a non-empty queue — costs a `mov` instead
    /// of a locked CAS that is bound to fail.
    #[inline]
    pub fn mark_or_value(&self) -> Option<u64> {
        let cur = match self.val.load(Ordering::SeqCst) {
            VAL_BOTTOM => match self.val.compare_exchange(
                VAL_BOTTOM,
                VAL_TOP,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return None,
                Err(cur) => cur,
            },
            cur => cur,
        };
        (cur != VAL_TOP).then_some(cur)
    }

    #[inline]
    pub fn load_val(&self) -> u64 {
        self.val.load(Ordering::SeqCst)
    }

    #[inline]
    pub fn load_enq(&self) -> u32 {
        self.enq.load(Ordering::SeqCst)
    }

    /// `(enq: ⊥e → r)` — reserve this cell for the request named `r`
    /// (Dijkstra protocol, paper lines 80 and 103).
    #[inline]
    pub fn try_reserve_enq(&self, r: u32) -> bool {
        self.enq
            .compare_exchange(ENQ_BOTTOM, r, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// `(enq: ⊥e → ⊤e)` — seal the cell against future enqueue helpers
    /// (paper line 111). True if this call performed the seal.
    #[inline]
    pub fn try_seal_enq(&self) -> bool {
        self.enq
            .compare_exchange(ENQ_BOTTOM, ENQ_TOP, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    #[inline]
    pub fn load_deq(&self) -> u32 {
        self.deq.load(Ordering::SeqCst)
    }

    /// `(deq: ⊥d → ⊤d)` — fast-path dequeue claims the value (paper line 146).
    #[inline]
    pub fn try_claim_deq_fast(&self) -> bool {
        self.deq
            .compare_exchange(DEQ_BOTTOM, DEQ_TOP, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// `(deq: ⊥d → r)` — claim the value for the slow-path request named
    /// `r` (paper line 194).
    #[inline]
    pub fn try_claim_deq_slow(&self, r: u32) -> bool {
        self.deq
            .compare_exchange(DEQ_BOTTOM, r, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Cell {
        // SAFETY-free equivalent of the zeroed allocation used for segments.
        Cell {
            val: AtomicU64::new(VAL_BOTTOM),
            enq: AtomicU32::new(ENQ_BOTTOM),
            deq: AtomicU32::new(DEQ_BOTTOM),
        }
    }

    #[test]
    fn zeroed_bit_pattern_is_the_initial_state() {
        // alloc_zeroed gives all-zero cells; check the sentinels agree.
        assert_eq!(VAL_BOTTOM, 0);
        assert_eq!(ENQ_BOTTOM, 0);
        assert_eq!(DEQ_BOTTOM, 0);
    }

    #[test]
    fn deposit_succeeds_once() {
        let c = fresh();
        assert!(c.try_deposit(42));
        assert!(!c.try_deposit(43));
        assert_eq!(c.load_val(), 42);
    }

    #[test]
    fn mark_or_value_on_fresh_cell_marks_top() {
        let c = fresh();
        assert_eq!(c.mark_or_value(), None);
        assert_eq!(c.load_val(), VAL_TOP);
        // A subsequent enqueue deposit must now fail (unusable cell).
        assert!(!c.try_deposit(1));
    }

    #[test]
    fn mark_or_value_returns_existing_value() {
        let c = fresh();
        assert!(c.try_deposit(7));
        assert_eq!(c.mark_or_value(), Some(7));
        assert_eq!(c.load_val(), 7, "value must be preserved");
    }

    #[test]
    fn mark_or_value_on_top_cell_is_none() {
        let c = fresh();
        assert_eq!(c.mark_or_value(), None);
        assert_eq!(c.mark_or_value(), None, "already ⊤: not a value");
    }

    #[test]
    fn enq_reservation_and_sealing_are_exclusive() {
        let c = fresh();
        assert!(c.try_reserve_enq(req_name(0)));
        c.try_seal_enq(); // must be a no-op now
        assert_eq!(c.load_enq(), req_name(0));

        let c2 = fresh();
        c2.try_seal_enq();
        assert!(!c2.try_reserve_enq(req_name(1)));
        assert_eq!(c2.load_enq(), ENQ_TOP);
    }

    #[test]
    fn deq_claims_are_exclusive() {
        let c = fresh();
        assert!(c.try_claim_deq_fast());
        assert!(!c.try_claim_deq_fast());
        assert!(!c.try_claim_deq_slow(req_name(0)));

        let c2 = fresh();
        assert!(c2.try_claim_deq_slow(req_name(7)));
        assert!(!c2.try_claim_deq_fast());
        assert_eq!(c2.load_deq(), req_name(7));
    }

    #[test]
    fn names_avoid_the_sentinels_and_round_trip() {
        assert_eq!(req_name(0), 2);
        assert!(req_name(0) > ENQ_TOP && req_name(0) > DEQ_TOP);
        for slot in [0, 1, 63, u32::MAX - 2] {
            assert_eq!(name_slot(req_name(slot)), slot);
        }
    }

    #[test]
    fn valid_value_range_excludes_sentinels() {
        assert!(!is_valid_value(VAL_BOTTOM));
        assert!(!is_valid_value(VAL_TOP));
        assert!(is_valid_value(1));
        assert!(is_valid_value(u64::MAX - 1));
    }
}
