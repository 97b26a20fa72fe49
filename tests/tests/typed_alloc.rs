//! Allocator traffic of the typed handles.
//!
//! A [`TypedHandle`](wfqueue::TypedHandle) keeps the box its last dequeue
//! emptied and fills it on its next enqueue, so a handle that both
//! enqueues and dequeues makes no allocator call per pair. This binary
//! installs a counting global allocator to check that, and that the kept
//! box is freed with its handle. It also checks that the queue's own
//! reclamation passes stop allocating once they are warm.
//!
//! The counters are per thread, so the tests stay exact while the test
//! runner allocates on its own threads; each check therefore allocates and
//! frees on the thread that measures it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use wfqueue::{Config, OwnedLocalHandle, WfQueue};

/// Counts this thread's allocator calls and live bytes.
struct Counting;

/// A per-thread tally; `const`-initialised and without a destructor, so
/// reading it never allocates and stays valid during thread teardown.
#[derive(Clone, Copy)]
struct Tally {
    /// Allocations of any layout.
    allocs: u64,
    /// Allocations of a payload box's layout.
    payload_allocs: u64,
    /// Bytes allocated minus bytes freed.
    live: i64,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { allocs: 0, payload_allocs: 0, live: 0 })
    };
}

/// The value type under test: 40 bytes, a layout no other allocation in
/// these loops has (segments span tens of KiB, and a reclamation pass's
/// scratch list is a vector of pointers).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Payload([u64; 5]);

fn note(layout: Layout, sign: i64) {
    let _ = TALLY.try_with(|t| {
        let mut v = t.get();
        v.live += sign * layout.size() as i64;
        if sign > 0 {
            v.allocs += 1;
        }
        if sign > 0 && layout == Layout::new::<Payload>() {
            v.payload_allocs += 1;
        }
        t.set(v);
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// the bookkeeping touches only a const thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout, 1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout, 1);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(layout, -1);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(layout, -1);
        // SAFETY: the caller guarantees `new_size` is valid for the layout's
        // alignment.
        let grown = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
        note(grown, 1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn tally() -> Tally {
    TALLY.with(Cell::get)
}

fn payload(i: u64) -> Payload {
    Payload([i, !i, i ^ 0x5a5a, i.rotate_left(7), 1])
}

#[test]
fn pairs_on_one_handle_allocate_at_most_one_box() {
    const PAIRS: u64 = 10_000;
    let q: WfQueue<Payload> = WfQueue::new();
    let mut h = q.handle();
    let before = tally();
    for i in 0..PAIRS {
        h.enqueue(payload(i));
        assert_eq!(h.dequeue(), Some(payload(i)));
    }
    let payload_allocs = tally().payload_allocs - before.payload_allocs;
    assert!(
        payload_allocs <= 1,
        "{PAIRS} pairs made {payload_allocs} payload allocations; the spare box should be reused"
    );
}

#[test]
fn warm_reclamation_passes_make_no_allocation() {
    const PAIRS: u64 = 10_000;
    // 64-cell segments and a pass at every segment boundary make a few
    // hundred passes. A warm pair loop allocates the segments it grows
    // the chain by and nothing else: no box (the spare is reused) and
    // nothing in a reclamation pass.
    let q: WfQueue<Payload, 64> = WfQueue::with_config(Config::default().with_max_garbage(1));
    let mut h = q.handle();
    let mut run = |from: u64| {
        for i in from..from + PAIRS {
            h.enqueue(payload(i));
            assert_eq!(h.dequeue(), Some(payload(i)));
        }
    };
    run(0);
    let (cleanups, segs) = (q.stats().cleanups, q.stats().segs_alloc);
    let before = tally();
    run(PAIRS);
    let allocs = tally().allocs - before.allocs;
    let cleanups = q.stats().cleanups - cleanups;
    let segs = q.stats().segs_alloc - segs;
    assert!(cleanups >= 100, "only {cleanups} reclamation passes ran");
    assert_eq!(
        allocs, segs,
        "{PAIRS} warm pairs over {cleanups} reclamation passes made {allocs} allocations \
         for {segs} segments"
    );
}

#[test]
fn dropping_the_handle_and_queue_frees_the_spare() {
    let baseline = tally().live;
    {
        let q: WfQueue<Payload> = WfQueue::new();
        let mut h = q.handle();
        for i in 0..100 {
            h.enqueue(payload(i));
        }
        for i in 0..50 {
            assert_eq!(h.dequeue(), Some(payload(i)));
        }
        // The handle now holds a spare, and the queue 50 boxed values.
        assert!(tally().live > baseline);
    }
    assert_eq!(
        tally().live,
        baseline,
        "live bytes must return to the pre-construction baseline"
    );
}

#[test]
fn split_producer_and_consumer_deliver_every_value() {
    const N: u64 = 20_000;
    let q: Arc<WfQueue<Payload>> = Arc::new(WfQueue::new());
    let mut producer = OwnedLocalHandle::new(Arc::clone(&q));
    let mut consumer = OwnedLocalHandle::new(Arc::clone(&q));
    let p = std::thread::spawn(move || {
        for i in 0..N {
            producer.enqueue(payload(i));
        }
    });
    let c = std::thread::spawn(move || {
        let before = tally().payload_allocs;
        let mut next = 0;
        while next < N {
            if let Some(v) = consumer.dequeue() {
                // One producer: its values arrive in order, each once.
                assert_eq!(v, payload(next));
                next += 1;
            }
        }
        assert_eq!(consumer.dequeue(), None);
        let allocs = tally().payload_allocs - before;
        assert_eq!(allocs, 0, "a consumer-only handle allocates no box");
    });
    p.join().unwrap();
    c.join().unwrap();
    assert!(q.is_empty());
}
