//! Counting global allocator.
//!
//! Tracks live bytes, allocator calls and bytes requested. Counters live in
//! per-thread slots so the two benchmark threads never write a shared line
//! on the hot path: a worker [`claim`]s a slot and then updates it with
//! plain loads and stores; every other thread shares slot 0 and pays a
//! locked add. Totals are sums over the slots.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The allocator; install with `#[global_allocator]`.
pub struct Counting;

const SLOTS: usize = 4;

#[repr(align(128))]
struct Slot {
    live: AtomicI64,
    calls: AtomicU64,
    bytes: AtomicU64,
    owned: AtomicBool,
}

static SLOT: [Slot; SLOTS] = [const {
    Slot {
        live: AtomicI64::new(0),
        calls: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
        owned: AtomicBool::new(false),
    }
}; SLOTS];

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates and stays valid during thread teardown.
    static MINE: Cell<usize> = const { Cell::new(0) };
}

#[inline]
fn count(live: i64, calls: u64, bytes: u64) {
    let i = MINE.try_with(Cell::get).unwrap_or(0);
    let s = &SLOT[i];
    if i == 0 {
        s.live.fetch_add(live, Ordering::Relaxed);
        s.calls.fetch_add(calls, Ordering::Relaxed);
        s.bytes.fetch_add(bytes, Ordering::Relaxed);
    } else {
        // The claiming thread is the slot's only writer (see `claim`), so a
        // load + store cannot lose an update.
        let add_i = |a: &AtomicI64, n| a.store(a.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        let add_u = |a: &AtomicU64, n| a.store(a.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        add_i(&s.live, live);
        add_u(&s.calls, calls);
        add_u(&s.bytes, bytes);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds counter updates, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as i64, 1, layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as i64, 1, layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as i64), 1, 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as i64 - layout.size() as i64, 1, new_size as u64);
        }
        p
    }
}

/// Counter readings. `calls` counts alloc, realloc and free calls; `bytes`
/// counts bytes requested by alloc and realloc.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub live: i64,
    pub calls: u64,
    pub bytes: u64,
}

fn read(s: &Slot) -> Totals {
    Totals {
        live: s.live.load(Ordering::Relaxed),
        calls: s.calls.load(Ordering::Relaxed),
        bytes: s.bytes.load(Ordering::Relaxed),
    }
}

/// Sums over every slot: the whole process.
pub fn totals() -> Totals {
    SLOT.iter()
        .map(read)
        .fold(Totals::default(), |a, b| Totals {
            live: a.live + b.live,
            calls: a.calls + b.calls,
            bytes: a.bytes + b.bytes,
        })
}

#[cfg(test)]
/// The calling thread's slot (exact only while the thread holds a claim).
pub fn mine() -> Totals {
    read(&SLOT[MINE.with(Cell::get)])
}

/// An exclusive slot for the calling thread; released on drop.
pub struct Claim(usize);

/// Gives the calling thread an exclusive slot, if one is free.
pub fn claim() -> Option<Claim> {
    (1..SLOTS).find_map(|i| {
        SLOT[i]
            .owned
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| {
                MINE.with(|m| m.set(i));
                Claim(i)
            })
    })
}

impl Drop for Claim {
    fn drop(&mut self) {
        MINE.with(|m| m.set(0));
        // Release pairs with the next claimer's Acquire, so it continues
        // from this thread's last stores.
        SLOT[self.0].owned.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_sequence_exactly() {
        let _slot = claim().expect("a free slot");
        let t0 = mine();
        let b = std::hint::black_box(Box::new([7u8; 100]));
        let mut v: Vec<u64> = std::hint::black_box(Vec::with_capacity(10));
        v.reserve_exact(30);
        std::hint::black_box(&mut v);
        let t1 = mine();
        assert_eq!(t1.calls - t0.calls, 3, "alloc, alloc, realloc");
        assert_eq!(t1.bytes - t0.bytes, 100 + 80 + 240);
        assert_eq!(t1.live - t0.live, 100 + 240);
        drop(b);
        drop(v);
        let t2 = mine();
        assert_eq!(t2.calls - t1.calls, 2, "two frees");
        assert_eq!(t2.bytes, t1.bytes, "frees request no bytes");
        assert_eq!(t2.live, t0.live);
    }
}
