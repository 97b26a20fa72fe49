//! Packed request-state words.
//!
//! The paper represents the mutable half of an enqueue request as the pair
//! `(pending: 1 bit, id: 63 bits)` and of a dequeue request as
//! `(pending: 1 bit, idx: 63 bits)`, each packed into one 64-bit word so a
//! single CAS can claim or close a request atomically (Listing 2, lines
//! 10–15). This module owns the bit layout.

/// Bit carrying the `pending` flag (the paper's 1-bit field).
const PENDING_BIT: u64 = 1 << 63;
/// Mask of the 63-bit `id`/`idx` payload.
const INDEX_MASK: u64 = PENDING_BIT - 1;

/// A decoded request state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReqState {
    /// Whether the request still needs help.
    pub pending: bool,
    /// The request id (enqueue) or candidate cell index (dequeue).
    pub index: u64,
}

/// Packs `(pending, index)` into one word. `index` must fit in 63 bits —
/// guaranteed in practice since indices come from a counter that would need
/// centuries of FAAs to overflow.
#[inline]
pub(crate) const fn pack(pending: bool, index: u64) -> u64 {
    debug_assert!(index <= INDEX_MASK);
    (index & INDEX_MASK) | if pending { PENDING_BIT } else { 0 }
}

/// Decodes a packed state word.
#[inline]
pub(crate) const fn unpack(word: u64) -> ReqState {
    ReqState {
        pending: word & PENDING_BIT != 0,
        index: word & INDEX_MASK,
    }
}

/// Convenience accessor: the `pending` bit of a packed word.
#[inline]
#[allow(dead_code)]
pub(crate) const fn is_pending(word: u64) -> bool {
    word & PENDING_BIT != 0
}

/// Whether `word` is pending with an index of at least `index`, in one
/// compare: the pending bit is the top bit, so a pending word is at least
/// `pack(true, index)` exactly when its own index is, and an idle word is
/// below every pending one.
#[inline]
pub(crate) const fn pending_from(word: u64, index: u64) -> bool {
    word >= pack(true, index)
}

/// Convenience accessor: the 63-bit index of a packed word.
#[inline]
#[allow(dead_code)]
pub(crate) const fn index_of(word: u64) -> u64 {
    word & INDEX_MASK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for &(p, i) in &[
            (false, 0),
            (true, 0),
            (false, 1),
            (true, 42),
            (true, INDEX_MASK),
            (false, INDEX_MASK),
        ] {
            let w = pack(p, i);
            assert_eq!(unpack(w), ReqState { pending: p, index: i });
            assert_eq!(is_pending(w), p);
            assert_eq!(index_of(w), i);
        }
    }

    #[test]
    fn pending_from_is_pending_and_index_at_least() {
        let ids = [0, 1, 2, 41, 42, 43, INDEX_MASK - 1, INDEX_MASK];
        for &p in &[false, true] {
            for &i in &ids {
                for &id in &ids {
                    assert_eq!(pending_from(pack(p, i), id), p && i >= id, "{p} {i} {id}");
                }
            }
        }
    }

    #[test]
    fn pending_bit_is_the_top_bit() {
        assert_eq!(pack(true, 0), 1 << 63);
        assert_eq!(pack(false, 5), 5);
    }

    #[test]
    fn initial_states_match_the_paper() {
        // An enqueue request is initially (⊥, 0, 0): state word = 0.
        // A dequeue request is initially (0, 0, 0): state word = 0.
        let init = unpack(0);
        assert!(!init.pending);
        assert_eq!(init.index, 0);
    }

    #[test]
    fn distinct_states_produce_distinct_words() {
        // try_to_claim_req relies on (1, id) != (0, i) for any id, i.
        assert_ne!(pack(true, 7), pack(false, 7));
        assert_ne!(pack(true, 7), pack(true, 8));
    }
}
