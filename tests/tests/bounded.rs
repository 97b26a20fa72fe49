//! The fixed-capacity contract of the ring backend (DESIGN.md §9).
//!
//! The wait-free queue has no segment ceiling, as in the paper: its
//! `try_enqueue` is the trait's always-accepting default. Bounded memory
//! is the SCQ ring's job, and a full ring must answer `try_enqueue` with
//! the typed `Full`, reject without losing or corrupting any accepted
//! value, and recover completely once the backlog drains.

mod ring_parity {
    use wfq_baselines::{BenchQueue, QueueHandle, Scq};
    use wfqueue::Full;

    const ORDER: u32 = 3; // ring capacity 2^3 = 8

    fn full_ring_parity<Q: BenchQueue>(q: Q, capacity: u64) {
        let mut h = q.register();
        for v in 1..=capacity {
            h.try_enqueue(v).expect("rejected below capacity");
        }
        // Full: typed rejection, repeatable, and the ring is untouched.
        assert_eq!(h.try_enqueue(capacity + 1), Err(Full));
        assert_eq!(h.try_enqueue(capacity + 2), Err(Full));

        // Nothing lost, nothing invented, FIFO intact.
        for v in 1..=capacity {
            assert_eq!(h.dequeue(), Some(v), "{} corrupted under Full", Q::NAME);
        }
        assert_eq!(h.dequeue(), None, "{} leaked a rejected value", Q::NAME);

        // Full recovery: the whole capacity is available again.
        for v in 1..=capacity {
            h.try_enqueue(v + 50).expect("capacity not recovered");
        }
        assert_eq!(h.try_enqueue(999), Err(Full));
        for v in 1..=capacity {
            assert_eq!(h.dequeue(), Some(v + 50));
        }
        drop(h); // handle-local counters flush on drop
        assert!(q.stats().enq_rejected >= 3, "{:?}", q.stats());
    }

    #[test]
    fn scq_full_ring_matches_bounded_contract() {
        assert!(<Scq as BenchQueue>::FIXED_CAPACITY);
        let q = Scq::with_order(ORDER);
        full_ring_parity(q, 1 << ORDER);
    }

    #[test]
    fn unbounded_backends_advertise_no_fixed_capacity() {
        assert!(!<wfqueue::RawQueue as BenchQueue>::FIXED_CAPACITY);
        assert!(!<wfq_baselines::Wf0 as BenchQueue>::FIXED_CAPACITY);
        assert!(!<wfq_baselines::MsQueue as BenchQueue>::FIXED_CAPACITY);
    }
}
