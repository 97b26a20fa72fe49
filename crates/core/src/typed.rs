//! Typed, owning wrapper over the raw queue.
//!
//! The paper's queue transfers `void*` payloads; [`WfQueue<T>`] recovers a
//! safe Rust API by boxing each value and shipping the pointer through the
//! raw queue (a box pointer is never `0` or `u64::MAX`, the two reserved
//! patterns). Leftover values are drained and dropped when the queue drops.
//!
//! [`TypedHandle`] is the one place values are boxed and unboxed. A handle
//! keeps at most one freed box (`size_of::<T>()` bytes) from its last
//! dequeue and fills it on its next enqueue, so a handle that both
//! enqueues and dequeues makes no allocator call per pair; the box is
//! freed when the handle drops. It wraps the raw handle and, like it,
//! borrows the queue ([`LocalHandle`], from [`WfQueue::handle`]) or shares
//! it through an `Arc` ([`OwnedLocalHandle`], which can move into a
//! detached worker):
//!
//! ```
//! use std::sync::Arc;
//! use wfqueue::WfQueue;
//!
//! let q = Arc::new(WfQueue::new());
//! let mut producer = wfqueue::OwnedLocalHandle::new(Arc::clone(&q));
//! let worker = std::thread::spawn(move || {
//!     producer.enqueue(7u32);
//! });
//! worker.join().unwrap();
//! let mut h = q.handle();
//! assert_eq!(h.dequeue(), Some(7));
//! ```

use core::marker::PhantomData;
use core::mem::MaybeUninit;
use std::sync::Arc;

use crate::config::Config;
use crate::raw::{sealed, QueueRef, RawHandle, RawQueue};
use crate::stats::{Gauges, QueueStats};
use crate::DEFAULT_SEGMENT_SIZE;

/// A wait-free MPMC FIFO queue of `T`.
///
/// Operations go through per-thread [`LocalHandle`]s obtained with
/// [`WfQueue::handle`]:
///
/// ```
/// use wfqueue::WfQueue;
/// let q: WfQueue<String> = WfQueue::new();
/// let mut h = q.handle();
/// h.enqueue("hello".to_string());
/// assert_eq!(h.dequeue().as_deref(), Some("hello"));
/// assert_eq!(h.dequeue(), None);
/// ```
pub struct WfQueue<T, const N: usize = DEFAULT_SEGMENT_SIZE> {
    raw: RawQueue<N>,
    _values: PhantomData<T>,
}

// SAFETY: values cross threads through the queue, hence `T: Send`; the
// queue adds no shared mutable access to any individual `T`.
unsafe impl<T: Send, const N: usize> Send for WfQueue<T, N> {}
unsafe impl<T: Send, const N: usize> Sync for WfQueue<T, N> {}

impl<T, const N: usize> sealed::Sealed for &WfQueue<T, N> {}
impl<T, const N: usize> QueueRef<N> for &WfQueue<T, N> {
    #[inline]
    fn raw(&self, _: sealed::Token) -> &RawQueue<N> {
        &self.raw
    }
}

impl<T, const N: usize> sealed::Sealed for Arc<WfQueue<T, N>> {}
impl<T, const N: usize> QueueRef<N> for Arc<WfQueue<T, N>> {
    #[inline]
    fn raw(&self, _: sealed::Token) -> &RawQueue<N> {
        &self.raw
    }
}

/// A registered per-thread handle to a [`WfQueue`], used through
/// [`LocalHandle`] or [`OwnedLocalHandle`]. It boxes every value it
/// enqueues and unboxes every value it dequeues, keeping at most one freed
/// box for its next enqueue until it drops. It is only built over a
/// holder of a `WfQueue<T, N>`, whose raw queue no code outside this crate
/// reaches ([`QueueRef`]), so every value that raw queue delivers is a box.
pub struct TypedHandle<T, Q: QueueRef<N>, const N: usize = DEFAULT_SEGMENT_SIZE> {
    raw: RawHandle<Q, N>,
    /// One emptied box kept from the last [`decode`](Self::decode), which
    /// the next [`encode`](Self::encode) fills instead of allocating. It
    /// never holds a live `T`, so dropping it frees memory and drops nothing.
    spare: Option<Box<MaybeUninit<T>>>,
}

/// A per-thread handle borrowing a [`WfQueue`] (from [`WfQueue::handle`]).
pub type LocalHandle<'q, T, const N: usize = DEFAULT_SEGMENT_SIZE> =
    TypedHandle<T, &'q WfQueue<T, N>, N>;

/// A per-thread handle owning an `Arc` of its [`WfQueue`], so it can be
/// moved into a `std::thread::spawn` closure.
pub type OwnedLocalHandle<T, const N: usize = DEFAULT_SEGMENT_SIZE> =
    TypedHandle<T, Arc<WfQueue<T, N>>, N>;

impl<T: Send> WfQueue<T> {
    /// Creates an empty queue with the default configuration (the paper's
    /// WF-10: segment size 2^10, patience 10).
    pub fn new() -> Self {
        Self::with_config(Config::default())
    }
}

impl<T: Send> Default for WfQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send, const N: usize> WfQueue<T, N> {
    /// Creates an empty queue with an explicit configuration.
    pub fn with_config(config: Config) -> Self {
        Self {
            raw: RawQueue::with_config(config),
            _values: PhantomData,
        }
    }

    /// Registers the calling context. One handle per thread; see
    /// [`RawQueue::register`] for the (non-wait-free) registration caveat.
    pub fn handle(&self) -> LocalHandle<'_, T, N> {
        TypedHandle::attach(self)
    }

    /// Emptiness check: exact while the queue is externally quiescent,
    /// advisory under concurrency. Wait-free; see [`RawQueue::is_empty`].
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Aggregated execution-path statistics (paper Table 2).
    pub fn stats(&self) -> QueueStats {
        self.raw.stats()
    }

    /// Instantaneous gauge snapshot (see [`RawQueue::gauges`]).
    pub fn gauges(&self) -> Gauges {
        self.raw.gauges()
    }

    /// This queue's configuration.
    pub fn config(&self) -> Config {
        self.raw.config()
    }

    /// Approximate number of enqueued-but-unconsumed values (see
    /// [`RawQueue::len_hint`] for the precise meaning).
    pub fn len_hint(&self) -> u64 {
        self.raw.len_hint()
    }

    /// Drains every value currently in the queue (exclusive access, so
    /// the drain is exact and terminates).
    pub fn drain(&mut self) -> Vec<T> {
        let mut h = self.handle();
        core::iter::from_fn(|| h.dequeue()).collect()
    }
}

impl<T: Send, const N: usize> OwnedLocalHandle<T, N> {
    /// Registers a new owned handle on `queue`.
    pub fn new(queue: Arc<WfQueue<T, N>>) -> Self {
        Self::attach(queue)
    }

    /// The queue this handle operates on.
    pub fn queue(&self) -> &Arc<WfQueue<T, N>> {
        &self.raw.queue
    }
}

impl<T, Q: QueueRef<N>, const N: usize> TypedHandle<T, Q, N> {
    /// Registers a new handle on `queue`, which must hold a `WfQueue<T, N>`.
    fn attach(queue: Q) -> Self {
        Self {
            raw: RawHandle::attach(queue),
            spare: None,
        }
    }

    /// Boxes `value` into the bits the raw queue carries, reusing the
    /// spare box if there is one. A box pointer is non-null and, being a
    /// valid address, never `u64::MAX`, so it avoids both reserved patterns
    /// (a zero-sized `T`'s dangling pointer is its alignment, also neither).
    #[inline]
    fn encode(&mut self, value: T) -> u64 {
        let slot = match self.spare.take() {
            Some(b) => Box::into_raw(b),
            None => Box::into_raw(Box::new(MaybeUninit::<T>::uninit())),
        };
        // SAFETY: `slot` is a live, uniquely owned box of `T`'s layout whose
        // contents are uninitialised, so writing does not drop a value.
        unsafe { (*slot).write(value) };
        slot as u64
    }

    /// Takes back the value behind bits from [`encode`](Self::encode) and
    /// keeps the emptied box as the spare, or frees it if a spare is held.
    ///
    /// # Safety
    ///
    /// `bits` came from `encode` and no one else owns it: either the raw
    /// queue delivered it (it delivers each value exactly once, by
    /// linearizability) or the raw queue rejected it before publishing it.
    #[inline]
    unsafe fn decode(&mut self, bits: u64) -> T {
        // SAFETY: per this function's contract, `bits` is a live, uniquely
        // owned box holding an initialised `T`; `MaybeUninit<T>` has `T`'s
        // layout, so the box may be rebuilt as one.
        let b = unsafe { Box::from_raw(bits as *mut MaybeUninit<T>) };
        // SAFETY: initialised by `encode`; the box is then treated as empty.
        let value = unsafe { b.assume_init_read() };
        if self.spare.is_none() {
            self.spare = Some(b);
        }
        value
    }

    /// Enqueues `value` at the tail. Wait-free (at most one allocation for
    /// the box, none when the handle holds a spare from an earlier dequeue,
    /// then the paper's bounded-step algorithm).
    #[inline]
    pub fn enqueue(&mut self, value: T) {
        let bits = self.encode(value);
        self.raw.enqueue(bits);
    }

    /// Dequeues the value at the head, or `None` if the queue was observed
    /// empty. Wait-free.
    #[inline]
    pub fn dequeue(&mut self) -> Option<T> {
        // SAFETY: the raw queue delivered these bits to this handle only.
        self.raw.dequeue().map(|bits| unsafe { self.decode(bits) })
    }

}

impl<T, const N: usize> Drop for WfQueue<T, N> {
    fn drop(&mut self) {
        // Drop leftover values. &mut self: no concurrent access, so
        // dequeue-until-EMPTY terminates and misses nothing. The handle
        // drops before RawQueue::drop frees segments and handle nodes.
        let mut h: LocalHandle<T, N> = TypedHandle::attach(&*self);
        while h.dequeue().is_some() {}
    }
}

impl<T: Send, const N: usize> core::fmt::Debug for WfQueue<T, N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("WfQueue")
            .field("raw", &self.raw)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Runs `$body` twice, each time on a fresh queue from `$make`: with
    /// `$h` a borrowing `$q.handle()`, then with `$h` an
    /// `OwnedLocalHandle` sharing `$q` through an `Arc`. `$kind` names the
    /// run; the handle, then the queue, drop at the end of each run.
    macro_rules! over_both_handles {
        ($make:expr, |$kind:ident, $q:ident, $h:ident| $body:block) => {{
            {
                let $kind = "borrowed";
                let $q = $make;
                let mut $h = $q.handle();
                $body
            }
            {
                let $kind = "owned";
                let $q = Arc::new($make);
                let mut $h = OwnedLocalHandle::new(Arc::clone(&$q));
                $body
            }
        }};
    }

    #[test]
    fn typed_fifo_roundtrip() {
        over_both_handles!(WfQueue::<u32>::new(), |kind, q, h| {
            for i in 0..100 {
                h.enqueue(i);
            }
            for i in 0..100 {
                assert_eq!(h.dequeue(), Some(i), "{kind}");
            }
            assert_eq!(h.dequeue(), None, "{kind}");
        });
    }

    #[test]
    fn owns_heap_values() {
        let q: WfQueue<Vec<String>> = WfQueue::new();
        let mut h = q.handle();
        h.enqueue(vec!["a".into(), "b".into()]);
        assert_eq!(h.dequeue(), Some(vec!["a".to_string(), "b".to_string()]));
    }

    #[test]
    fn zero_and_max_like_values_are_fine_when_typed() {
        // The raw sentinels must not leak into the typed API.
        let q: WfQueue<u64> = WfQueue::new();
        let mut h = q.handle();
        h.enqueue(0);
        h.enqueue(u64::MAX);
        assert_eq!(h.dequeue(), Some(0));
        assert_eq!(h.dequeue(), Some(u64::MAX));
    }

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn leftover_values_drop_with_the_queue() {
        over_both_handles!(WfQueue::<DropCounter>::new(), |kind, q, h| {
            let drops = Arc::new(AtomicUsize::new(0));
            for _ in 0..10 {
                h.enqueue(DropCounter(Arc::clone(&drops)));
            }
            let taken = h.dequeue();
            assert!(taken.is_some());
            drop(taken);
            assert_eq!(drops.load(Ordering::Relaxed), 1, "{kind}");
            drop(h);
            drop(q);
            assert_eq!(drops.load(Ordering::Relaxed), 10, "{kind}: queue drop must drain");
        });
    }

    #[test]
    fn dequeued_values_drop_exactly_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let q: WfQueue<DropCounter> = WfQueue::new();
        std::thread::scope(|s| {
            let producers = 2;
            let per = 500;
            for _ in 0..producers {
                let q = &q;
                let drops = &drops;
                s.spawn(move || {
                    let mut h = q.handle();
                    for _ in 0..per {
                        h.enqueue(DropCounter(Arc::clone(drops)));
                    }
                });
            }
            let consumed = AtomicUsize::new(0);
            let consumed = &consumed;
            std::thread::scope(|s2| {
                for _ in 0..2 {
                    let q = &q;
                    s2.spawn(move || {
                        let mut h = q.handle();
                        while consumed.load(Ordering::Relaxed) < producers * per {
                            if h.dequeue().is_some() {
                                consumed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
        });
        assert_eq!(drops.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn spare_box_reuse_drops_each_value_once() {
        over_both_handles!(WfQueue::<DropCounter>::new(), |kind, q, h| {
            let drops = Arc::new(AtomicUsize::new(0));
            let d = || DropCounter(Arc::clone(&drops));
            h.enqueue(d());
            drop(h.dequeue());
            assert!(h.spare.is_some(), "{kind}: the dequeue keeps its box");
            h.enqueue(d());
            assert!(h.spare.is_none(), "{kind}: the enqueue fills the spare");
            drop(h.dequeue());
            h.enqueue(d());
            drop(h.dequeue());
            assert!(h.spare.is_some(), "{kind}");
            assert_eq!(drops.load(Ordering::Relaxed), 3, "{kind}");
            h.enqueue(d());
            drop(h);
            drop(q);
            assert_eq!(
                drops.load(Ordering::Relaxed),
                4,
                "{kind}: queue drop drains the rest"
            );
        });
    }

    /// Round-trips `vals` through a reused box: zero-sized and
    /// byte-aligned payloads have dangling or odd box pointers, which must
    /// still avoid both reserved patterns.
    fn reuse_roundtrip<T: Send + Clone + PartialEq + core::fmt::Debug>(vals: [T; 3]) {
        over_both_handles!(WfQueue::<T>::new(), |kind, q, h| {
            for _ in 0..2 {
                for v in &vals {
                    let bits = h.encode(v.clone());
                    assert!(bits != 0 && bits != u64::MAX, "{kind}: {bits:#x}");
                    // SAFETY: `bits` came from `encode` and was never queued.
                    assert_eq!(unsafe { h.decode(bits) }, *v, "{kind}");
                    assert!(h.spare.is_some(), "{kind}");
                }
                for v in &vals {
                    h.enqueue(v.clone());
                    assert_eq!(h.dequeue().as_ref(), Some(v), "{kind}");
                }
            }
            assert!(q.is_empty(), "{kind}");
        });
    }

    #[test]
    fn small_and_zero_sized_values_roundtrip_through_the_spare() {
        reuse_roundtrip([(), (), ()]);
        reuse_roundtrip([0u8, 1, u8::MAX]);
        reuse_roundtrip([[0u8; 3], [1, 2, 3], [u8::MAX; 3]]);
    }

    #[test]
    fn dropping_a_handle_with_a_spare_drops_no_value() {
        over_both_handles!(WfQueue::<DropCounter>::new(), |kind, q, h| {
            let drops = Arc::new(AtomicUsize::new(0));
            h.enqueue(DropCounter(Arc::clone(&drops)));
            drop(h.dequeue());
            assert!(h.spare.is_some(), "{kind}");
            assert_eq!(drops.load(Ordering::Relaxed), 1, "{kind}");
            drop(h);
            drop(q);
            assert_eq!(
                drops.load(Ordering::Relaxed),
                1,
                "{kind}: the spare holds no value"
            );
        });
    }

    #[test]
    fn owned_typed_handle_roundtrip() {
        let q: Arc<WfQueue<String>> = Arc::new(WfQueue::new());
        let mut h = OwnedLocalHandle::new(Arc::clone(&q));
        h.enqueue("x".to_string());
        assert_eq!(h.dequeue().as_deref(), Some("x"));
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn mpmc_string_traffic() {
        let q: WfQueue<String> = WfQueue::new();
        let mut got: Vec<String> = std::thread::scope(|s| {
            for t in 0..3 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.handle();
                    for i in 0..300 {
                        h.enqueue(format!("{t}-{i}"));
                    }
                });
            }
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    let q = &q;
                    s.spawn(move || {
                        let mut h = q.handle();
                        let mut got = Vec::with_capacity(300);
                        while got.len() < 300 {
                            if let Some(v) = h.dequeue() {
                                got.push(v);
                            }
                        }
                        got
                    })
                })
                .collect();
            consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect()
        });
        // Exactly once, not just 900 in total: a duplicate plus a loss
        // would keep the count.
        let mut want: Vec<String> = (0..3)
            .flat_map(|t| (0..300).map(move |i| format!("{t}-{i}")))
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        let dups: Vec<&String> = got
            .windows(2)
            .filter(|w| w[0] == w[1])
            .map(|w| &w[0])
            .collect();
        assert!(
            got == want,
            "values not delivered exactly once; duplicated: {dups:?}"
        );
        assert!(q.is_empty());
    }
}
