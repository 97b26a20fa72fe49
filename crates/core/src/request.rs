//! Enqueue and dequeue help requests (paper Listing 2, lines 10–15).
//!
//! Each per-thread handle embeds exactly one [`EnqReq`] and one [`DeqReq`].
//! A thread reuses its request object for every slow-path operation; the
//! 63-bit id embedded in the state word distinguishes successive requests
//! from the same thread (paper §3.3). Requests are **two independent 64-bit
//! words**, not a single atomic unit — §3.4 "Write the proper value in a
//! cell" explains the reverse-order read discipline that keeps helpers from
//! pairing a stale value with a fresh state, and [`EnqReq::read_consistent`]
//! encodes it.

use core::sync::atomic::{AtomicU64, Ordering};

use crate::pack::{self, ReqState};

/// An enqueue help request: logically `(val, pending: 1, id: 63)`.
#[derive(Debug)]
#[repr(C)]
pub(crate) struct EnqReq {
    /// The value to enqueue (written *before* the state publishes it).
    pub val: AtomicU64,
    /// Packed `(pending, id)`; `id` is the cell index the requester obtained
    /// from its last failed fast-path FAA.
    pub state: AtomicU64,
}

impl EnqReq {
    pub(crate) const fn new() -> Self {
        Self {
            val: AtomicU64::new(0),
            state: AtomicU64::new(0),
        }
    }

    /// Publishes a new request: value first, then state with release, so any
    /// helper that observes `pending = 1` also observes the value (paper
    /// line 72; the write order the reverse-order read relies on).
    ///
    /// The value store is itself a release: a helper that reads this value
    /// also sees everything the owner did before publishing, in particular
    /// the commit of its previous request (see [`Self::value`]). On x86_64
    /// it is a plain `mov` either way.
    pub(crate) fn publish(&self, val: u64, id: u64) {
        self.val.store(val, Ordering::Release);
        self.state.store(pack::pack(true, id), Ordering::SeqCst);
    }

    /// Re-reads the value alone, for a helper whose claim CAS lost to a
    /// claim for its own cell (DESIGN.md §3, erratum 5). The value may
    /// belong to a request published after that claim; the acquire pairs
    /// with [`Self::publish`]'s release, so the helper then sees the
    /// owner's commit of the claimed request in the cell and does not use
    /// the value.
    pub(crate) fn value(&self) -> u64 {
        self.val.load(Ordering::Acquire)
    }

    /// Reads `(state, val)` in the reverse of the write order (paper line
    /// 118): the value returned is the one for state `s.id` *or a later
    /// request*, which the claiming CAS then disambiguates.
    pub(crate) fn read_consistent(&self) -> (ReqState, u64) {
        let s = pack::unpack(self.state.load(Ordering::SeqCst));
        let v = self.val.load(Ordering::SeqCst);
        (s, v)
    }

    /// The paper's `try_to_claim_req` (lines 60–61): transitions the state
    /// from `(pending = 1, id)` to `(pending = 0, cell_id)`, claiming the
    /// request for cell `cell_id`. At most one claimer can win. A losing
    /// claim returns the state its CAS observed — the paper's CAS refreshes
    /// the caller's copy of the state on failure, and `help_enq` must judge
    /// the loss against that fresh state, not the one it read before.
    pub(crate) fn try_claim(&self, id: u64, cell_id: u64) -> Result<(), ReqState> {
        self.state
            .compare_exchange(
                pack::pack(true, id),
                pack::pack(false, cell_id),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .map(|_| ())
            .map_err(pack::unpack)
    }

    pub(crate) fn state(&self) -> ReqState {
        pack::unpack(self.state.load(Ordering::SeqCst))
    }
}

/// A dequeue help request: logically `(id, pending: 1, idx: 63)`.
#[derive(Debug)]
#[repr(C)]
pub(crate) struct DeqReq {
    /// The cell index the requester last visited on the fast path; doubles
    /// as the identity of this request instance.
    pub id: AtomicU64,
    /// Packed `(pending, idx)` where `idx` is the most recently announced
    /// candidate cell.
    pub state: AtomicU64,
}

impl DeqReq {
    pub(crate) const fn new() -> Self {
        Self {
            id: AtomicU64::new(0),
            state: AtomicU64::new(0),
        }
    }

    /// Publishes a new request with `id = idx = cid` (paper line 151). The
    /// id is written first; helpers read state before id, so a helper that
    /// sees the fresh pending state also sees the fresh id.
    pub(crate) fn publish(&self, cid: u64) {
        self.id.store(cid, Ordering::Relaxed);
        self.state.store(pack::pack(true, cid), Ordering::SeqCst);
    }

    #[inline]
    pub(crate) fn state(&self) -> ReqState {
        pack::unpack(self.state.load(Ordering::SeqCst))
    }

    #[inline]
    pub(crate) fn id(&self) -> u64 {
        self.id.load(Ordering::SeqCst)
    }

    /// CAS on the packed state; used both to announce candidates
    /// `(1, prior) → (1, cand)` and to close requests `(1, idx) → (0, idx)`.
    pub(crate) fn cas_state(&self, from: (bool, u64), to: (bool, u64)) -> bool {
        self.state
            .compare_exchange(
                pack::pack(from.0, from.1),
                pack::pack(to.0, to.1),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enq_publish_then_claim() {
        let r = EnqReq::new();
        r.publish(99, 7);
        let (s, v) = r.read_consistent();
        assert!(s.pending);
        assert_eq!(s.index, 7);
        assert_eq!(v, 99);

        assert_eq!(r.try_claim(7, 12), Ok(()), "first claim wins");
        assert_eq!(
            r.try_claim(7, 13),
            Err(ReqState { pending: false, index: 12 }),
            "second claim loses and sees the winner's claim"
        );
        let s = r.state();
        assert!(!s.pending);
        assert_eq!(s.index, 12, "state now names the claimed cell");
    }

    #[test]
    fn enq_claim_requires_matching_id() {
        let r = EnqReq::new();
        r.publish(1, 5);
        assert!(r.try_claim(4, 9).is_err(), "stale id must not claim");
        assert!(r.state().pending);
    }

    #[test]
    fn deq_publish_announce_close() {
        let r = DeqReq::new();
        r.publish(3);
        assert_eq!(r.id(), 3);
        assert!(r.state().pending);
        assert_eq!(r.state().index, 3);

        // Announce candidate 8 (from prior 3).
        assert!(r.cas_state((true, 3), (true, 8)));
        // Competing announcement from the same prior fails.
        assert!(!r.cas_state((true, 3), (true, 9)));
        // Close.
        assert!(r.cas_state((true, 8), (false, 8)));
        assert!(!r.state().pending);
    }

    #[test]
    fn fresh_requests_are_idle() {
        assert!(!EnqReq::new().state().pending);
        assert!(!DeqReq::new().state().pending);
    }
}
