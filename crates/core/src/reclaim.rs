//! Segment reclamation (paper Listing 5, §3.6).
//!
//! The only garbage the queue produces is segments that both indices have
//! moved past. Reclamation is a hybrid of epoch- and hazard-based schemes:
//!
//! 1. `I` (here `oldest_id`) holds the id of the oldest live segment; a
//!    dequeuer that sees enough garbage elects itself *cleaner* by CASing
//!    `I` to −1, which also excludes concurrent cleaners (mutual exclusion
//!    instead of cross-cleaner synchronization).
//! 2. The cleaner walks the handle ring **forward**, clamping its
//!    reclamation boundary below every published hazard and *pushing* each
//!    thread's lagging head/tail pointers up to the boundary so idle
//!    threads cannot pin garbage (Dijkstra's protocol between cleaner and
//!    owner: CAS, then re-verify the hazard).
//! 3. A **backward** pass re-checks every hazard in reverse order, catching
//!    the one legal "backward jump": a dequeue helper adopting its helpee's
//!    older hazard (Listing 5 line 220) while the forward pass was already
//!    past it.
//! 4. Whatever the boundary settled on is final: segments `[I, boundary)`
//!    are unlinked by moving `Q`, `I` is restored to the boundary id, and
//!    the chain is freed.
//!
//! Deviation note (documented in DESIGN.md): the paper's pseudocode returns
//! from the nothing-to-reclaim case restoring `q->Q` but leaving `I = −1`,
//! which would disable reclamation forever; like the authors' released C
//! code we restore `I` on that path.
//!
//! Hazards are **segment ids**, not pointers, exactly as in the authors' C
//! code (`hzd_node_id`): a cleaner never dereferences another thread's
//! hazard slot, so a stale hazard can only make reclamation more
//! conservative, never unsound.

use core::sync::atomic::{AtomicPtr, Ordering};

use wfq_sync::inject;

use crate::handle::{HandleNode, NO_HAZARD};
use crate::raw::RawQueue;
use crate::segment::Segment;
use crate::stats::HandleStats;

impl<const N: usize> RawQueue<N> {
    /// Attempts a reclamation pass (paper `cleanup`, lines 222–238).
    /// Called at the end of every dequeue; the hot path is the two loads
    /// and a compare below — everything else is outlined as cold.
    #[inline]
    pub(crate) fn cleanup(&self, h: &HandleNode<N>) {
        // Lines 223–225.
        let oid = self.oldest_id.load(Ordering::Acquire);
        if oid < 0 {
            return; // a cleaner is already at work
        }
        // The handle's head-segment mirror, maintained by index arithmetic
        // at each dequeue epilogue. Never dereference h.head here: cleanup
        // runs after the hazard is cleared, so no segment access is
        // protected. The mirror is ≤ the true id, which only makes the
        // threshold and boundary conservative.
        let my_head_id = h.head_seg_id.load(Ordering::Relaxed);
        // Threshold from the *live* handle count, not the ever-registered
        // total: under register/drop churn the latter only grows, inflating
        // the threshold until reclamation effectively never runs.
        let threshold = self
            .config
            .garbage_threshold(self.active_count.load(Ordering::Relaxed));
        if my_head_id.saturating_sub(oid as u64) < threshold {
            return;
        }
        self.cleanup_cold(h, oid, my_head_id);
    }

    /// The election, ring scan, and reclamation (cold: runs once per
    /// MAX_GARBAGE segments at most).
    #[cold]
    fn cleanup_cold(&self, h: &HandleNode<N>, oid: i64, my_head_id: u64) {
        // Defensive clamp (not in the paper's pseudocode): the boundary —
        // and with it the pointer-push targets below — must never pass the
        // *enqueue* frontier `T / N`. Empty-probing dequeues can drive `H`
        // (and thus head segment ids) far past `T`; pushing an idle
        // enqueuer's tail pointer beyond `T / N` would break find_cell's
        // starting invariant (`segment id ≤ target id`) for its next
        // operation and free segments that future `FAA(T)` indices still
        // address. `T` is monotone, so a one-shot read is conservative.
        let tail_frontier = self.tail_index.load(Ordering::SeqCst) / N as u64;
        if my_head_id.min(tail_frontier) <= oid as u64 {
            return; // nothing reclaimable below both frontiers
        }

        // Line 226: election.
        if self
            .oldest_id
            .compare_exchange(oid, -1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        let oid = oid as u64;
        inject!("reclaim::elected");
        HandleStats::bump(&h.stats.cleanups);

        // Line 227: `start` is the current front (id == oid); nothing can
        // be freed while we hold the token, so the chain from `start` on is
        // stable and safe to traverse.
        let start = self.q.load(Ordering::Acquire);
        debug_assert_eq!(unsafe { (*start).id() }, oid);

        // The candidate boundary: everything before it is reclaimable.
        let mut boundary = my_head_id.min(tail_frontier);

        // Lines 228–233: forward pass over the ring — *including* the
        // cleaner's own node. The paper's pseudocode starts at `h->next`
        // and stops at `h`, skipping the cleaner; but the cleaner is a
        // dequeuer whose own *tail* pointer may lag at the very front of
        // the queue, and skipping it frees the segment its own tail still
        // references (erratum #3 in DESIGN.md — the authors' released C
        // code iterates with a do-while that visits `th` first).
        let mut visited = h.reclaim_scratch.take();
        visited.clear();
        let self_ptr = h as *const HandleNode<N> as *mut HandleNode<N>;
        let mut p = self_ptr;
        loop {
            inject!("reclaim::forward_scan");
            // SAFETY: ring nodes live for the queue's lifetime.
            let pn = unsafe { &*p };
            verify(&mut boundary, pn.hzd_id.load(Ordering::SeqCst)); // line 229
            self.update_pointer(&pn.head, &mut boundary, pn, start, oid, &h.stats); // line 230
            if boundary <= oid {
                break;
            }
            self.update_pointer(&pn.tail, &mut boundary, pn, start, oid, &h.stats); // line 231
            if boundary <= oid {
                break;
            }
            visited.push(p);
            p = pn.next_node();
            if p == self_ptr {
                break;
            }
        }

        // Line 235: backward pass catches hazard "backward jumps" that
        // happened behind the forward pass.
        for &p in visited.iter().rev() {
            if boundary <= oid {
                break;
            }
            inject!("reclaim::reverse_scan");
            let before = boundary;
            // SAFETY: as above.
            verify(&mut boundary, unsafe { (*p).hzd_id.load(Ordering::SeqCst) });
            if boundary < before {
                // The reverse pass caught a backward-jumped hazard the
                // forward pass missed — the window this pass exists for.
                HandleStats::bump(&h.stats.reclaim_backward_clamp);
            }
        }
        h.reclaim_scratch.set(visited);

        // Line 236 (fixed per the released C code): nothing reclaimable —
        // put the token back unchanged.
        if boundary <= oid {
            HandleStats::bump(&h.stats.reclaim_noop);
            self.oldest_id.store(oid as i64, Ordering::Release);
            return;
        }

        // Lines 237–238: publish the new front, release the token at the
        // new id, free the prefix.
        inject!("reclaim::pre_free");
        let new_front = resolve(start, boundary);
        self.q.store(new_front, Ordering::Release);
        self.oldest_id.store(boundary as i64, Ordering::Release);
        // SAFETY: every hazard and every head/tail pointer is ≥ boundary;
        // the prefix [start, new_front) is unreachable.
        let freed = unsafe { Segment::free_list(start, new_front) };
        // Advisory durable-mode note: every cell below the boundary is
        // volatile-unreachable, so the store may compact their records at
        // the next generation turn (DESIGN.md §12).
        crate::persist::persist!(self, retire_below(boundary * N as u64));
        HandleStats::add(&h.stats.segs_freed, freed);
    }

    /// The paper's `update` (lines 239–247): push a lagging head/tail
    /// pointer of thread `p` forward to the boundary, or concede the
    /// boundary down to wherever that thread actually is.
    fn update_pointer(
        &self,
        from: &AtomicPtr<Segment<N>>,
        boundary: &mut u64,
        p: &HandleNode<N>,
        start: *mut Segment<N>,
        oid: u64,
        cleaner: &crate::stats::HandleStats,
    ) {
        let n = from.load(Ordering::Acquire);
        // SAFETY: thread pointers always reference live (≥ oid) segments.
        let n_id = unsafe { (*n).id() };
        if n_id < *boundary {
            let to = resolve(start, *boundary);
            inject!("reclaim::pre_update_cas");
            if let Err(cur) = from.compare_exchange(n, to, Ordering::SeqCst, Ordering::SeqCst) {
                // Line 242–245: the owner moved it concurrently; if the new
                // position is still behind the boundary, the boundary must
                // come down to it.
                // SAFETY: as above.
                let cur_id = unsafe { (*cur).id() };
                if cur_id < *boundary {
                    *boundary = cur_id;
                    HandleStats::bump(&cleaner.reclaim_conceded);
                }
            }
            // Line 246: Dijkstra protocol — after the CAS, re-verify the
            // owner's hazard; it may have been published concurrently. The
            // SeqCst CAS and load pair with the owner's SeqCst hazard store
            // and pointer load, so no fence is needed (DESIGN.md §3).
            verify(boundary, p.hzd_id.load(Ordering::SeqCst));
        }
        let _ = oid;
    }
}

/// The paper's `verify` (lines 248–249), in id form: clamp the boundary to
/// a published hazard.
fn verify(boundary: &mut u64, hzd: i64) {
    if hzd != NO_HAZARD && (hzd as u64) < *boundary {
        *boundary = hzd as u64;
    }
}

/// Finds the live segment with the given id by walking forward from
/// `start`. Callers guarantee `start.id <= id` and that the chain is stable
/// (they hold the reclamation token).
fn resolve<const N: usize>(start: *mut Segment<N>, id: u64) -> *mut Segment<N> {
    let mut s = start;
    // SAFETY: the chain [start, id] is live and intact under the token.
    unsafe {
        while (*s).id() < id {
            let next = (*s).next.load(Ordering::Acquire);
            debug_assert!(!next.is_null(), "resolve ran past the chain end");
            s = next;
        }
        debug_assert_eq!((*s).id(), id);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::raw::RawQueue;

    #[test]
    fn verify_clamps_only_downward() {
        let mut b = 10;
        verify(&mut b, 12);
        assert_eq!(b, 10);
        verify(&mut b, 7);
        assert_eq!(b, 7);
        verify(&mut b, NO_HAZARD);
        assert_eq!(b, 7);
        verify(&mut b, 0);
        assert_eq!(b, 0);
    }

    #[test]
    fn single_thread_traffic_reclaims_segments() {
        // Small segments + tiny threshold: a drain must free the prefix.
        let q: RawQueue<8> = RawQueue::with_config(Config::default().with_max_garbage(2));
        let mut h = q.register();
        for round in 0..50u64 {
            for v in 0..64 {
                h.enqueue(round * 64 + v + 1);
            }
            for _ in 0..64 {
                assert!(h.dequeue().is_some());
            }
        }
        let s = q.stats();
        assert!(
            s.segs_freed > 0,
            "expected reclamation to run; stats: {s:?}"
        );
        assert!(s.cleanups > 0);
        // The live window must stay small: everything but a bounded tail
        // of segments was freed.
        assert!(
            s.live_segments() < 20,
            "segments leaked: {} live",
            s.live_segments()
        );
    }

    #[test]
    fn front_id_tracks_oldest_id_after_reclaim() {
        let q: RawQueue<8> = RawQueue::with_config(Config::default().with_max_garbage(1));
        let mut h = q.register();
        for v in 1..=400u64 {
            h.enqueue(v);
        }
        for _ in 0..400 {
            h.dequeue();
        }
        let i = q.oldest_id.load(Ordering::Acquire);
        assert!(i > 0, "oldest id should have advanced, got {i}");
        let front = q.q.load(Ordering::Acquire);
        assert_eq!(unsafe { (*front).id() }, i as u64);
    }

    #[test]
    fn no_reclaim_below_threshold() {
        let q: RawQueue<8> = RawQueue::with_config(Config::default().with_max_garbage(1_000_000));
        let mut h = q.register();
        for v in 1..=200u64 {
            h.enqueue(v);
        }
        for _ in 0..200 {
            h.dequeue();
        }
        assert_eq!(q.stats().segs_freed, 0);
    }

    #[test]
    fn idle_peer_does_not_block_reclamation_forever() {
        // A registered-but-idle handle lags at segment 0; the cleaner must
        // push its pointers forward rather than abort every pass.
        let q: RawQueue<8> = RawQueue::with_config(Config::default().with_max_garbage(2));
        let _idle = q.register();
        let mut h = q.register();
        for v in 1..=800u64 {
            h.enqueue(v);
        }
        for _ in 0..800 {
            h.dequeue();
        }
        assert!(
            q.stats().segs_freed > 0,
            "idle handle must not pin all garbage"
        );
    }

    #[test]
    fn churned_handles_do_not_inflate_the_auto_threshold() {
        // Regression: the auto MAX_GARBAGE threshold used the
        // ever-registered handle count, so 64 dead registrations made it
        // 2 × 65 = 130 segments and this workload (50 segments of garbage)
        // would never reclaim. With the live count it is 2 × 1 = 2.
        let q: RawQueue<8> = RawQueue::new();
        let parked: Vec<_> = (0..64).map(|_| q.register()).collect();
        drop(parked);
        assert_eq!(q.nodes.len(), 64);
        assert_eq!(q.active_count.load(Ordering::Relaxed), 0);
        let mut h = q.register();
        for v in 1..=400u64 {
            h.enqueue(v);
        }
        for _ in 0..400 {
            h.dequeue();
        }
        assert!(
            q.stats().segs_freed > 0,
            "dead registrations must not raise the reclamation threshold"
        );
    }

    #[test]
    fn one_handle_holds_the_authors_two_dead_segments() {
        // The automatic threshold is the authors' MAX_GARBAGE(n) = 2n. One
        // handle doing pairs over a standing backlog shorter than a
        // segment cleans at the first dequeue in segment oid + 2, so the
        // chain peaks at the two dead segments plus the one holding both
        // H and T.
        const BACKLOG: u64 = 3;
        let q: RawQueue<8> = RawQueue::new();
        let mut h = q.register();
        for v in 1..=BACKLOG {
            h.enqueue(v);
        }
        let mut peak = 0;
        for v in BACKLOG + 1..=BACKLOG + 1_000 {
            h.enqueue(v);
            peak = peak.max(q.gauges().live_segments);
            assert_eq!(h.dequeue(), Some(v - BACKLOG));
            peak = peak.max(q.gauges().live_segments);
        }
        assert!(q.indices().1 / 8 >= 100, "the run must cross 100 segments");
        let max_garbage = 2; // 2 × one live handle
        assert_eq!(peak, max_garbage + 1, "{:?}", q.stats());
    }

    #[test]
    fn concurrent_traffic_with_reclamation_stays_bounded() {
        let q: RawQueue<8> = RawQueue::with_config(Config::default().with_max_garbage(2));
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register();
                    for v in 0..5_000u64 {
                        h.enqueue(t * 100_000 + v + 1);
                    }
                });
            }
            for _ in 0..2 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register();
                    let mut got = 0;
                    while got < 5_000 {
                        if h.dequeue().is_some() {
                            got += 1;
                        }
                    }
                });
            }
        });
        let s = q.stats();
        assert!(s.segs_freed > 0, "reclamation never ran: {s:?}");
        assert!(
            s.live_segments() < 10_000 / 8,
            "live segments not bounded: {s:?}"
        );
    }
}
