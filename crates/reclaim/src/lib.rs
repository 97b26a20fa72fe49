//! Hazard-pointer memory reclamation (Michael, TPDS 2004).
//!
//! The paper's evaluation insists that *"memory reclamation is an integral
//! responsibility of the queue algorithms"* and retrofits the hazard-pointer
//! scheme onto MS-Queue and LCRQ, which originally leaked (§5.1). This crate
//! is that retrofit substrate: a small, self-contained hazard-pointer
//! domain used by the baselines in `wfq-baselines`.
//!
//! Design:
//!
//! - A [`Domain`] owns a lock-free list of hazard-slot records, each with
//!   `K` pointer slots. Threads acquire a record ([`HazardThread`]) and
//!   recycle it on drop.
//! - [`HazardThread::protect`] publishes a pointer and re-validates it
//!   against the source location (the standard store–fence–reload loop).
//! - [`HazardThread::retire`] buffers a node with its deleter; once the
//!   buffer reaches the scan threshold, a scan collects all published
//!   hazards into a sorted vector and frees every retired node not present.
//! - A thread that drops with retired nodes still protected hands them to
//!   the domain; the next scan by any thread adopts them, and the domain
//!   frees whatever is left when it drops.
//!
//! This scheme is lock-free, not wait-free — fitting, since it backs the
//! *lock-free* baselines the paper compares against. A classic epoch-based
//! alternative lives in [`ebr`], so the fence-count comparison the paper
//! makes in §3.6 can be measured in-repo.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod ebr;

use core::sync::atomic::{fence, AtomicBool, AtomicPtr, Ordering};
use std::sync::atomic::AtomicUsize;
use std::sync::{Mutex, MutexGuard};

/// Number of hazard slots per thread record; two suffice for MS-Queue and
/// LCRQ (head + next traversal).
pub const SLOTS_PER_THREAD: usize = 2;

/// Retired-node deleter: reconstructs and frees the erased allocation.
pub type Deleter = unsafe fn(*mut u8);

struct Retired {
    ptr: *mut u8,
    deleter: Deleter,
}

/// One thread's hazard record, linked into the domain's global list.
struct Record {
    slots: [AtomicPtr<u8>; SLOTS_PER_THREAD],
    active: AtomicBool,
    next: AtomicPtr<Record>,
}

impl Record {
    fn new() -> Self {
        Self {
            slots: Default::default(),
            active: AtomicBool::new(true),
            next: AtomicPtr::new(core::ptr::null_mut()),
        }
    }
}

/// A hazard-pointer domain. Typically one static or queue-owned domain per
/// data structure.
///
/// ```
/// use wfq_reclaim::Domain;
/// let domain = Domain::new();
/// let thread = domain.register();
/// // ... protect/retire through `thread` ...
/// # drop(thread);
/// ```
pub struct Domain {
    records: AtomicPtr<Record>,
    /// Number of records ever created (drives the scan threshold).
    record_count: AtomicUsize,
    /// Retired nodes that a dropped thread could not free because a hazard
    /// still named them.
    orphans: Mutex<Vec<Retired>>,
}

// SAFETY: all record access is via atomics; retired nodes are owned by
// exactly one HazardThread until freed.
unsafe impl Send for Domain {}
unsafe impl Sync for Domain {}

impl Default for Domain {
    fn default() -> Self {
        Self::new()
    }
}

impl Domain {
    /// Creates an empty domain.
    pub const fn new() -> Self {
        Self {
            records: AtomicPtr::new(core::ptr::null_mut()),
            record_count: AtomicUsize::new(0),
            orphans: Mutex::new(Vec::new()),
        }
    }

    fn orphans(&self) -> MutexGuard<'_, Vec<Retired>> {
        self.orphans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires a hazard record for the calling thread, reusing an inactive
    /// record if one exists (lock-free).
    pub fn register(&self) -> HazardThread<'_> {
        // Try to adopt an inactive record.
        let mut cur = self.records.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: records are never freed while the domain lives.
            let rec = unsafe { &*cur };
            if !rec.active.load(Ordering::Relaxed)
                && rec
                    .active
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                return HazardThread {
                    domain: self,
                    record: cur,
                    retired: Vec::new(),
                };
            }
            cur = rec.next.load(Ordering::Acquire);
        }
        // None available: push a fresh record at the head.
        let rec = Box::into_raw(Box::new(Record::new()));
        let mut head = self.records.load(Ordering::Acquire);
        loop {
            // SAFETY: rec is exclusively owned until published.
            unsafe { (*rec).next.store(head, Ordering::Relaxed) };
            match self
                .records
                .compare_exchange(head, rec, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        self.record_count.fetch_add(1, Ordering::Relaxed);
        HazardThread {
            domain: self,
            record: rec,
            retired: Vec::new(),
        }
    }

    /// Scan threshold: retire buffers flush when they reach
    /// `2 × slots-in-domain`, the classical H·(1+ε) amortization.
    fn scan_threshold(&self) -> usize {
        (2 * SLOTS_PER_THREAD * self.record_count.load(Ordering::Relaxed)).max(16)
    }

    /// Collects every currently published hazard, sorted.
    fn collect_hazards(&self) -> Vec<*mut u8> {
        let mut hazards = Vec::new();
        let mut cur = self.records.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: records live while the domain lives.
            let rec = unsafe { &*cur };
            for slot in &rec.slots {
                let p = slot.load(Ordering::Acquire);
                if !p.is_null() {
                    hazards.push(p);
                }
            }
            cur = rec.next.load(Ordering::Acquire);
        }
        hazards.sort_unstable();
        hazards
    }
}

impl Drop for Domain {
    fn drop(&mut self) {
        // Every HazardThread is gone (the 'd borrow sequences their drops
        // before us), so no hazard protects the orphans any more.
        for r in self.orphans().drain(..) {
            // SAFETY: retired (unreachable) and unprotected.
            unsafe { (r.deleter)(r.ptr) };
        }
        // Free the record list.
        let mut cur = *self.records.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access; records were Box-allocated.
            let next = unsafe { *(*cur).next.as_ptr() };
            unsafe { drop(Box::from_raw(cur)) };
            cur = next;
        }
    }
}

/// A thread's capability to protect and retire pointers in a [`Domain`].
pub struct HazardThread<'d> {
    domain: &'d Domain,
    record: *mut Record,
    retired: Vec<Retired>,
}

// SAFETY: the record is exclusively owned by this HazardThread; retired
// nodes are owned until freed.
unsafe impl Send for HazardThread<'_> {}

impl HazardThread<'_> {
    #[inline]
    fn slots(&self) -> &[AtomicPtr<u8>; SLOTS_PER_THREAD] {
        // SAFETY: record lives while the domain lives; we own it.
        unsafe { &(*self.record).slots }
    }

    /// Publishes `ptr` in hazard slot `slot` and re-validates that `src`
    /// still holds it, looping until the publication is stable. Returns the
    /// protected pointer (which may have changed from the initial read).
    #[inline]
    pub fn protect<T>(&self, slot: usize, src: &AtomicPtr<T>) -> *mut T {
        let slots = self.slots();
        let mut ptr = src.load(Ordering::Acquire);
        loop {
            slots[slot].store(ptr as *mut u8, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            let cur = src.load(Ordering::Acquire);
            if cur == ptr {
                return ptr;
            }
            ptr = cur;
        }
    }

    /// Publishes a raw pointer without validation (caller revalidates).
    #[inline]
    pub fn set<T>(&self, slot: usize, ptr: *mut T) {
        self.slots()[slot].store(ptr as *mut u8, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Clears hazard slot `slot`.
    #[inline]
    pub fn clear(&self, slot: usize) {
        self.slots()[slot].store(core::ptr::null_mut(), Ordering::Release);
    }

    /// Retires `ptr`: it will be freed with `deleter` once no published
    /// hazard references it.
    ///
    /// # Safety
    /// `ptr` must be unlinked (unreachable for new readers), not retired
    /// elsewhere, and valid for `deleter`.
    pub unsafe fn retire(&mut self, ptr: *mut u8, deleter: Deleter) {
        self.retired.push(Retired { ptr, deleter });
        if self.retired.len() >= self.domain.scan_threshold() {
            self.scan();
        }
    }

    /// Number of nodes currently buffered for reclamation (observability
    /// for tests and benchmarks).
    pub fn retired_len(&self) -> usize {
        self.retired.len()
    }

    /// Frees every buffered node that no published hazard protects,
    /// including nodes that dropped threads handed to the domain.
    pub fn scan(&mut self) {
        self.retired.append(&mut self.domain.orphans());
        let hazards = self.domain.collect_hazards();
        let mut kept = Vec::with_capacity(self.retired.len());
        for r in self.retired.drain(..) {
            if hazards.binary_search(&r.ptr).is_ok() {
                kept.push(r);
            } else {
                // SAFETY: the node was retired (unreachable) and no hazard
                // references it, so this thread is the unique owner.
                unsafe { (r.deleter)(r.ptr) };
            }
        }
        self.retired = kept;
    }
}

impl Drop for HazardThread<'_> {
    fn drop(&mut self) {
        for slot in 0..SLOTS_PER_THREAD {
            self.clear(slot);
        }
        self.scan();
        // What another thread still protects must not be freed here: that
        // thread may be about to dereference it. The domain keeps it for a
        // later scan, or frees it when it drops.
        self.domain.orphans().append(&mut self.retired);
        // SAFETY: record stays in the domain list for reuse.
        unsafe { (*self.record).active.store(false, Ordering::Release) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// One drop counter per counting test: the default runner runs tests
    /// in parallel, so a shared counter would mix their counts.
    static DROPS: [AtomicUsize; 4] = [
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    ];

    unsafe fn count_deleter<const K: usize>(p: *mut u8) {
        DROPS[K].fetch_add(1, Ordering::Relaxed);
        unsafe { drop(Box::from_raw(p as *mut u64)) };
    }

    fn drops<const K: usize>() -> usize {
        DROPS[K].load(Ordering::Relaxed)
    }

    fn boxed(v: u64) -> *mut u8 {
        Box::into_raw(Box::new(v)) as *mut u8
    }

    #[test]
    fn retire_without_hazard_frees_on_scan() {
        let d = Domain::new();
        let mut t = d.register();
        for i in 0..10 {
            unsafe { t.retire(boxed(i), count_deleter::<0>) };
        }
        t.scan();
        assert_eq!(drops::<0>(), 10);
        assert_eq!(t.retired_len(), 0);
    }

    #[test]
    fn hazard_blocks_reclamation_until_cleared() {
        let d = Domain::new();
        let t_protect = d.register();
        let mut t_retire = d.register();

        let node = boxed(42);
        let src = AtomicPtr::new(node as *mut u64);
        let got = t_protect.protect(0, &src);
        assert_eq!(got, node as *mut u64);

        unsafe { t_retire.retire(node, count_deleter::<1>) };
        t_retire.scan();
        assert_eq!(drops::<1>(), 0, "protected: must survive");
        assert_eq!(t_retire.retired_len(), 1);

        t_protect.clear(0);
        t_retire.scan();
        assert_eq!(drops::<1>(), 1);
    }

    #[test]
    fn dropping_a_thread_keeps_protected_nodes_alive() {
        let d = Domain::new();
        let reader = d.register();
        let node = boxed(7);
        let src = AtomicPtr::new(node as *mut u64);
        assert_eq!(reader.protect(0, &src), node as *mut u64);
        {
            let mut writer = d.register();
            unsafe { writer.retire(node, count_deleter::<3>) };
        } // the retiring thread drops while the node is still protected
        assert_eq!(drops::<3>(), 0, "a protected node was freed");
        // SAFETY: still protected, hence still allocated.
        assert_eq!(unsafe { *(node as *mut u64) }, 7);
        reader.clear(0);
        let mut other = d.register();
        other.scan();
        assert_eq!(drops::<3>(), 1, "no scan adopted the orphaned node");
    }

    #[test]
    fn protect_revalidates_against_moving_source() {
        let d = Domain::new();
        let t = d.register();
        let a = boxed(1) as *mut u64;
        let src = AtomicPtr::new(a);
        let p = t.protect(1, &src);
        assert_eq!(p, a);
        unsafe { drop(Box::from_raw(a)) };
    }

    #[test]
    fn records_recycle_after_drop() {
        let d = Domain::new();
        let r1 = {
            let t = d.register();
            t.record as usize
        };
        let t2 = d.register();
        assert_eq!(t2.record as usize, r1, "inactive record must be adopted");
        assert_eq!(d.record_count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn threshold_scales_with_records() {
        let d = Domain::new();
        let _a = d.register();
        let _b = d.register();
        assert!(d.scan_threshold() >= 2 * SLOTS_PER_THREAD * 2);
    }

    #[test]
    fn concurrent_protect_retire_stress() {
        let d = Arc::new(Domain::new());
        let shared = Arc::new(AtomicPtr::new(boxed(0) as *mut u64));
        let iters = 2_000u64;
        std::thread::scope(|s| {
            // Writer: swaps the shared pointer and retires the old one.
            {
                let d = Arc::clone(&d);
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    let mut t = d.register();
                    for i in 1..=iters {
                        let fresh = boxed(i) as *mut u64;
                        let old = shared.swap(fresh, Ordering::AcqRel);
                        unsafe { t.retire(old as *mut u8, count_deleter::<2>) };
                    }
                });
            }
            // Readers: protect and read; value must always be sane.
            for _ in 0..2 {
                let d = Arc::clone(&d);
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    let t = d.register();
                    for _ in 0..iters {
                        let p = t.protect(0, &shared);
                        // SAFETY: protected by slot 0.
                        let v = unsafe { *p };
                        assert!(v <= iters);
                        t.clear(0);
                    }
                });
            }
        });
        // Everything except the final node is eventually freed.
        let final_ptr = shared.load(Ordering::Acquire);
        unsafe { drop(Box::from_raw(final_ptr)) };
        assert_eq!(drops::<2>(), iters as usize);
    }
}
