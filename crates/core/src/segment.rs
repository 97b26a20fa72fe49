//! Segments: the linked-list emulation of the paper's infinite array
//! (Listing 2, `struct Segment` and `find_cell`).
//!
//! Cell `Q[i]` lives in `segment[i / N].cells[i mod N]`. Segments are
//! append-only: a traversal that runs off the end allocates a successor and
//! publishes it with a CAS on the last segment's `next` pointer; the loser
//! of a publication race frees its speculative segment (paper lines 33–52).
//! Segments are only ever removed from the *front* of the list, by the
//! reclamation protocol in [`crate::reclaim`].

use core::alloc::Layout;
use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error};

use crate::cell::Cell;
use crate::pool::SegmentPool;

/// One array segment of `N` cells.
///
/// `id` is written once, before the segment is published (via a release CAS
/// on the predecessor's `next` or at queue construction), and read-only
/// thereafter — so it needs no atomicity, but we keep it atomic-typed to
/// make the cross-thread reads unambiguously defined.
#[repr(C)]
pub(crate) struct Segment<const N: usize> {
    id: AtomicU64,
    pub next: AtomicPtr<Segment<N>>,
    pub cells: [Cell; N],
}

impl<const N: usize> Segment<N> {
    /// Allocates a zeroed segment with the given id.
    ///
    /// The all-zero bit pattern is exactly `(⊥, ⊥e, ⊥d)` for every cell and
    /// a null `next`, so no per-cell initialization loop is needed — an
    /// observable win at N = 1024 where the loop would touch 24 KiB.
    pub fn alloc(id: u64) -> *mut Segment<N> {
        let ptr = Self::try_alloc(id);
        if ptr.is_null() {
            handle_alloc_error(Layout::new::<Segment<N>>());
        }
        ptr
    }

    /// Fallible variant of [`Segment::alloc`]: returns null instead of
    /// aborting when the allocator refuses. Bounded mode retries through
    /// [`crate::pool::SegmentPool::acquire`]'s backoff loop rather than
    /// taking the process down.
    pub fn try_alloc(id: u64) -> *mut Segment<N> {
        let layout = Layout::new::<Segment<N>>();
        // SAFETY: layout is non-zero-sized; the zero pattern is a valid
        // Segment (atomics of 0 / null, id 0) which we then fix up.
        let ptr = unsafe { alloc_zeroed(layout) } as *mut Segment<N>;
        if !ptr.is_null() {
            // SAFETY: freshly allocated, exclusively owned until published.
            unsafe { (*ptr).id.store(id, Ordering::Relaxed) };
        }
        ptr
    }

    /// Frees a segment previously produced by [`Segment::alloc`].
    ///
    /// # Safety
    /// `ptr` must be a live segment no thread can reach any more (either
    /// never published, or retired by the reclamation protocol).
    pub unsafe fn dealloc(ptr: *mut Segment<N>) {
        // SAFETY: contract forwarded to the caller; Cells and atomics have
        // no Drop, so freeing the raw memory is sufficient.
        unsafe { dealloc(ptr as *mut u8, Layout::new::<Segment<N>>()) };
    }

    #[inline]
    pub fn id(&self) -> u64 {
        self.id.load(Ordering::Relaxed)
    }

    /// Re-stamps an unpublished segment with a new id (spare reuse).
    ///
    /// # Safety
    /// `ptr` must be exclusively owned and never have been published; its
    /// cells must still be in their initial all-⊥ state.
    pub unsafe fn restamp(ptr: *mut Segment<N>, id: u64) {
        // SAFETY: exclusive ownership per the contract.
        unsafe {
            (*ptr).id.store(id, Ordering::Relaxed);
            debug_assert!((*ptr).next.load(Ordering::Relaxed).is_null());
        }
    }

    /// Resets a retired segment to the state a fresh `alloc_zeroed` would
    /// produce — every cell back to `(⊥, ⊥e, ⊥d)`, `next` null — so it
    /// satisfies [`Segment::restamp`]'s never-published contract and can be
    /// recycled through the bounded-mode pool.
    ///
    /// # Safety
    /// `ptr` must be exclusively owned and unreachable by any other thread
    /// (retired by the reclamation protocol, or never published).
    pub unsafe fn scrub(ptr: *mut Segment<N>) {
        // SAFETY: exclusive ownership per the contract; Cell is repr(C)
        // atomics whose all-zero pattern is the valid initial state.
        unsafe {
            core::ptr::write_bytes(&raw mut (*ptr).cells, 0, 1);
            (*ptr).next.store(core::ptr::null_mut(), Ordering::Relaxed);
        }
    }

    /// Frees the half-open chain `[from, to)` following `next` pointers
    /// (paper's `free_list`, line 238). Returns how many segments were
    /// freed.
    ///
    /// # Safety
    /// The chain from `from` to `to` must be intact and unreachable by any
    /// other thread.
    pub unsafe fn free_list(from: *mut Segment<N>, to: *mut Segment<N>) -> u64 {
        let mut cur = from;
        let mut freed = 0;
        while cur != to {
            debug_assert!(!cur.is_null(), "free_list ran off the chain");
            // SAFETY: `cur` is in the retired chain, unreachable by others.
            let next = unsafe { (*cur).next.load(Ordering::Relaxed) };
            // SAFETY: as above.
            unsafe { Segment::dealloc(cur) };
            cur = next;
            freed += 1;
        }
        freed
    }
}

/// Where `find_cell` gets segments for list extensions: the owner-local
/// spare slot, then the queue's [`SegmentPool`] (which is the allocator
/// itself in unbounded mode, and the recycling pool + ceiling gate in
/// bounded mode). Built per call by `RawQueue::src`.
pub(crate) struct SegSource<'a, const N: usize> {
    /// Owner-local slot holding one pre-allocated, never-published segment:
    /// extensions draw from it before the pool, and the loser of a
    /// publication race parks its segment here instead of freeing it (the
    /// authors' C `th->spare` optimization).
    pub spare: &'a AtomicPtr<Segment<N>>,
    /// Bumped once per segment allocated *and published* through this
    /// source (the owner's `segs_alloc` counter).
    pub alloc_count: &'a AtomicU64,
    /// The queue's segment pool / allocation gate.
    pub pool: &'a SegmentPool<N>,
}

/// Locates cell `cell_id`, starting the traversal at the segment `*sp`
/// points to, extending the list as needed (paper `find_cell`, lines 33–52).
///
/// On return `sp` has been advanced to the segment containing the cell (the
/// documented side effect of line 51). Extension segments come from `src`
/// (spare slot first, then the pool — see [`SegSource`]).
///
/// # Safety
/// `*sp` must point to a live segment with `id <= cell_id / N` that is
/// protected from reclamation for the duration of the call (by the caller's
/// hazard publication, per the protocol in [`crate::reclaim`]). The caller
/// must order that publication before this call: by the operation's FAA
/// after `HandleNode::publish_hazard_before_faa` (on x86_64 the `lock
/// xadd` drains the store buffer), or by a SeqCst hazard store, as
/// `help_deq`'s adoption does. `src.spare` must be owner-local (no
/// concurrent access).
pub(crate) unsafe fn find_cell<const N: usize>(
    sp: &AtomicPtr<Segment<N>>,
    cell_id: u64,
    src: &SegSource<'_, N>,
) -> *mut Cell {
    // SeqCst, not Acquire: this is the read that follows the caller's
    // hazard publication, and it must not miss a cleaner's CAS of the same
    // pointer (the store-buffer pairing in DESIGN.md §3). On x86_64 the
    // FAA before this call already orders the hazard store; a SeqCst load
    // is a plain `mov` there and is needed for the pairing elsewhere.
    let mut s = sp.load(Ordering::SeqCst);
    debug_assert!(!s.is_null());
    let target = cell_id / N as u64;
    // SAFETY: `s` is live per the function contract.
    let mut id = unsafe { (*s).id() };
    // This invariant held through every stress run after the reclamation
    // errata fixes (see crate::reclaim); its violation means a segment was
    // freed under a live pointer, so keep it armed in debug builds.
    debug_assert!(
        id <= target && id < 1 << 40,
        "find_cell invariant violated: at segment {id}, want {target}"
    );
    while id < target {
        // SAFETY: `s` live; successors are reachable only forward and are
        // protected by the same hazard that protects `s`.
        let mut next = unsafe { (*s).next.load(Ordering::Acquire) };
        if next.is_null() {
            // The list needs another segment: take the spare or draw
            // from the pool (= the allocator in unbounded mode; in
            // bounded mode this may wait for a recycled segment, see
            // crate::pool).
            let tmp = {
                let cached = src.spare.load(Ordering::Relaxed);
                if cached.is_null() {
                    src.pool.acquire(id + 1)
                } else {
                    src.spare.store(core::ptr::null_mut(), Ordering::Relaxed);
                    // SAFETY: the spare is owner-local and never
                    // published; we own it exclusively and may restamp
                    // its id.
                    unsafe { Segment::restamp(cached, id + 1) };
                    cached
                }
            };
            // SAFETY: `s` live; release on success publishes tmp's
            // contents.
            next = match unsafe {
                (*s).next.compare_exchange(
                    core::ptr::null_mut(),
                    tmp,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
            } {
                Ok(_) => {
                    crate::stats::HandleStats::bump(src.alloc_count);
                    wfq_obs::record!(wfq_obs::EventKind::SegAlloc, id + 1);
                    tmp
                }
                Err(winner) => {
                    // Another thread extended the list first; park ours
                    // in the spare slot for next time (it was never
                    // published).
                    src.spare.store(tmp, Ordering::Relaxed);
                    winner
                }
            };
        }
        s = next;
        // SAFETY: `s` live (just published or already reachable).
        id = unsafe { (*s).id() };
    }
    sp.store(s, Ordering::Release);
    // SAFETY: `s` is the target segment; in-bounds index.
    unsafe { &raw mut (*s).cells[(cell_id % N as u64) as usize] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::ptr;

    type Seg = Segment<64>;

    /// Frees an entire chain starting at `head` (test helper).
    unsafe fn free_chain(head: *mut Seg) {
        let mut cur = head;
        while !cur.is_null() {
            let next = unsafe { (*cur).next.load(Ordering::Relaxed) };
            unsafe { Seg::dealloc(cur) };
            cur = next;
        }
    }

    #[test]
    fn alloc_initializes_id_and_empty_cells() {
        let s = Seg::alloc(7);
        unsafe {
            assert_eq!((*s).id(), 7);
            assert!((*s).next.load(Ordering::Relaxed).is_null());
            for c in &(*s).cells {
                assert_eq!(c.load_val(), crate::cell::VAL_BOTTOM);
                assert!(c.load_enq().is_null());
                assert!(c.load_deq().is_null());
            }
            Seg::dealloc(s);
        }
    }

    /// Owned backing for a [`SegSource`] (unbounded pool, fresh counters).
    struct TestSource {
        spare: AtomicPtr<Seg>,
        alloc: AtomicU64,
        pool: SegmentPool<64>,
    }

    impl TestSource {
        fn new() -> Self {
            Self {
                spare: AtomicPtr::new(core::ptr::null_mut()),
                alloc: AtomicU64::new(0),
                pool: SegmentPool::new(None),
            }
        }

        fn src(&self) -> SegSource<'_, 64> {
            SegSource {
                spare: &self.spare,
                alloc_count: &self.alloc,
                pool: &self.pool,
            }
        }
    }

    #[test]
    fn find_cell_within_first_segment() {
        let s = Seg::alloc(0);
        let sp = AtomicPtr::new(s);
        let ts = TestSource::new();
        unsafe {
            let c = find_cell(&sp, 5, &ts.src());
            assert_eq!(c, &raw mut (*s).cells[5]);
            assert_eq!(sp.load(Ordering::Relaxed), s, "pointer unmoved");
            assert_eq!(ts.alloc.load(Ordering::Relaxed), 0);
            free_chain(s);
        }
    }

    #[test]
    fn find_cell_extends_the_list() {
        let s = Seg::alloc(0);
        let sp = AtomicPtr::new(s);
        let ts = TestSource::new();
        unsafe {
            // Cell 64*3 + 2 lives in segment 3: three extensions needed.
            let c = find_cell(&sp, 64 * 3 + 2, &ts.src());
            let s3 = sp.load(Ordering::Relaxed);
            assert_eq!((*s3).id(), 3);
            assert_eq!(c, &raw mut (*s3).cells[2]);
            assert_eq!(ts.alloc.load(Ordering::Relaxed), 3);
            free_chain(s);
        }
    }

    #[test]
    fn find_cell_updates_the_segment_pointer_side_effect() {
        let s = Seg::alloc(0);
        let sp = AtomicPtr::new(s);
        let ts = TestSource::new();
        unsafe {
            find_cell(&sp, 64 * 2, &ts.src());
            assert_eq!((*sp.load(Ordering::Relaxed)).id(), 2);
            // A later find_cell for a further cell resumes from segment 2.
            find_cell(&sp, 64 * 2 + 63, &ts.src());
            assert_eq!((*sp.load(Ordering::Relaxed)).id(), 2);
            assert_eq!(ts.alloc.load(Ordering::Relaxed), 2, "no extra allocs");
            free_chain(s);
        }
    }

    #[test]
    fn find_cell_draws_from_a_bounded_pool() {
        // With a ceiling and a recycled segment parked in the pool, an
        // extension must reuse it rather than allocate.
        let s = Seg::alloc(0);
        let sp = AtomicPtr::new(s);
        let spare = AtomicPtr::new(core::ptr::null_mut());
        let alloc = AtomicU64::new(0);
        let pool = SegmentPool::<64>::new(Some(4));
        let recycled = pool.acquire(99);
        unsafe { pool.push(recycled) };
        let src = SegSource {
            spare: &spare,
            alloc_count: &alloc,
            pool: &pool,
        };
        unsafe {
            find_cell(&sp, 64, &src);
            let s1 = sp.load(Ordering::Relaxed);
            assert_eq!(s1, recycled, "extension must pop the pooled segment");
            assert_eq!((*s1).id(), 1, "restamped to the chain position");
            free_chain(s);
        }
    }

    #[test]
    fn concurrent_extension_publishes_exactly_one_chain() {
        use std::sync::atomic::AtomicU64;
        let s = Seg::alloc(0);
        let alloc = AtomicU64::new(0);
        let pool = SegmentPool::<64>::new(None);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let sp = AtomicPtr::new(s);
                let alloc = &alloc;
                let pool = &pool;
                scope.spawn(move || unsafe {
                    let spare = AtomicPtr::new(core::ptr::null_mut());
                    let src = SegSource {
                        spare: &spare,
                        alloc_count: alloc,
                        pool,
                    };
                    for i in 0..32 {
                        find_cell(&sp, i * 64, &src);
                    }
                    // Free any parked race-loser segment.
                    let parked = spare.load(Ordering::Relaxed);
                    if !parked.is_null() {
                        Seg::dealloc(parked);
                    }
                });
            }
        });
        unsafe {
            // Chain must be exactly segments 0..=31 with strictly
            // incrementing ids and 31 total publications.
            let mut cur = s;
            let mut expect = 0;
            while !cur.is_null() {
                assert_eq!((*cur).id(), expect);
                expect += 1;
                cur = (*cur).next.load(Ordering::Relaxed);
            }
            assert_eq!(expect, 32);
            assert_eq!(alloc.load(Ordering::Relaxed), 31);
            free_chain(s);
        }
    }

    #[test]
    fn free_list_frees_the_half_open_range() {
        let s0 = Seg::alloc(0);
        let sp = AtomicPtr::new(s0);
        let ts = TestSource::new();
        unsafe {
            find_cell(&sp, 64 * 4, &ts.src()); // build segments 0..=4
            let s4 = sp.load(Ordering::Relaxed);
            let freed = Seg::free_list(s0, s4);
            assert_eq!(freed, 4);
            // s4 survives and still terminates the chain.
            assert_eq!((*s4).id(), 4);
            free_chain(s4);
        }
    }

    #[test]
    fn free_list_with_equal_endpoints_is_a_noop() {
        let s = Seg::alloc(0);
        unsafe {
            assert_eq!(Seg::free_list(s, s), 0);
            free_chain(s);
        }
    }

    #[test]
    fn try_alloc_initializes_like_alloc() {
        let s = Seg::try_alloc(11);
        assert!(!s.is_null(), "small allocation must succeed");
        unsafe {
            assert_eq!((*s).id(), 11);
            assert!((*s).next.load(Ordering::Relaxed).is_null());
            Seg::dealloc(s);
        }
    }

    #[test]
    fn scrub_resets_a_dirty_segment_for_restamp() {
        let s = Seg::alloc(3);
        let tail = Seg::alloc(4);
        unsafe {
            // Dirty it the way real traffic would: values, seals, a link.
            (*s).cells[7].val.store(9, Ordering::Relaxed);
            (*s).cells[0].try_seal_enq();
            (*s).cells[1].try_claim_deq_fast();
            (*s).next.store(tail, Ordering::Relaxed);
            Seg::scrub(s);
            assert!((*s).next.load(Ordering::Relaxed).is_null());
            for c in &(*s).cells {
                assert_eq!(c.load_val(), crate::cell::VAL_BOTTOM);
                assert!(c.load_enq().is_null());
                assert!(c.load_deq().is_null());
            }
            // Now indistinguishable from fresh: restamp must be legal.
            Seg::restamp(s, 10);
            assert_eq!((*s).id(), 10);
            Seg::dealloc(s);
            Seg::dealloc(tail);
        }
    }

    #[test]
    fn segment_layout_is_id_next_cells() {
        // The reclamation protocol reasons about segments by id; make sure
        // the id is where a zeroed allocation puts it (offset 0).
        assert_eq!(core::mem::offset_of!(Seg, id), 0);
        assert!(core::mem::size_of::<Seg>() >= 64 * core::mem::size_of::<Cell>());
        let _ = ptr::null::<Seg>();
    }
}
