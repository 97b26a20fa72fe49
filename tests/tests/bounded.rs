//! Bounded-memory mode: the segment ceiling, `try_enqueue` backpressure,
//! and stall-tolerant degradation (DESIGN.md §9, docs/ROBUSTNESS.md).
//!
//! The contract under test:
//!
//! - an **unbounded** queue's `try_enqueue` never fails and prices like
//!   `enqueue` (the price half is the `try_enqueue_overhead` bench);
//! - a **bounded** queue accepts at least `(S − 1) × N` values before its
//!   first rejection, keeps live segments at the ceiling, and recovers
//!   fully once the backlog drains;
//! - when headroom is merely *recyclable garbage*, the same-call forced
//!   reclamation pass recovers it and the caller never sees [`Full`];
//! - when a **stalled thread's hazard** pins the garbage, the queue
//!   degrades to rejecting enqueues at bounded memory instead of growing
//!   without bound — and un-degrades when the thread resumes (the
//!   fault-injection soak at the bottom).

use wfqueue::{Config, Full, RawQueue, WfQueue};

const SEG: usize = 16;

#[test]
fn unbounded_try_enqueue_never_fails() {
    let q: RawQueue<SEG> = RawQueue::new();
    let mut h = q.register();
    for v in 1..=(SEG as u64 * 20) {
        h.try_enqueue(v).expect("unbounded queue rejected an enqueue");
    }
    for v in 1..=(SEG as u64 * 20) {
        assert_eq!(h.dequeue(), Some(v));
    }
    assert_eq!(q.stats().enq_rejected, 0);
}

#[test]
fn bounded_fill_rejects_then_recovers_after_drain() {
    const CEILING: u64 = 4;
    let q: RawQueue<SEG> =
        RawQueue::with_config(Config::default().with_segment_ceiling(CEILING));
    let mut h = q.register();

    // Fill: the configured floor is (S − 1) × N accepted values; the first
    // rejection must come before the attempt cap (the gate is conservative
    // by at most one segment).
    let mut accepted = 0u64;
    let cap = CEILING * SEG as u64 * 2;
    let mut saw_full = false;
    for v in 1..=cap {
        match h.try_enqueue(v) {
            Ok(()) => accepted += 1,
            Err(Full(())) => {
                saw_full = true;
                break;
            }
        }
    }
    assert!(saw_full, "bounded queue never rejected within {cap} attempts");
    assert!(
        accepted >= (CEILING - 1) * SEG as u64,
        "rejected too early: only {accepted} values accepted"
    );
    let g = q.gauges();
    assert_eq!(g.segment_ceiling, Some(CEILING));
    assert!(
        g.live_segments <= CEILING,
        "ceiling breached while rejecting: {g:?}"
    );
    assert!(q.stats().enq_rejected > 0);

    // Drain and the queue must un-degrade: the next try_enqueue recovers
    // headroom via the forced pass over the now-consumed prefix.
    for _ in 0..accepted {
        assert!(h.dequeue().is_some(), "accepted value lost");
    }
    assert_eq!(h.dequeue(), None);
    h.try_enqueue(77).expect("queue did not recover after drain");
    assert_eq!(h.dequeue(), Some(77));
}

#[test]
fn forced_cleanup_recycles_instead_of_rejecting() {
    // Shallow pairs traffic through a tight ceiling, with the dequeuer-side
    // threshold too high to ever trip: every segment-boundary crossing must
    // be funded by the *enqueuer's* same-call forced pass recycling the
    // consumed prefix — the caller never sees Full.
    const CEILING: u64 = 4;
    let q: RawQueue<SEG> = RawQueue::with_config(
        Config::default()
            .with_max_garbage(1_000_000)
            .with_segment_ceiling(CEILING),
    );
    let mut h = q.register();
    for v in 1..=(SEG as u64 * 40) {
        h.try_enqueue(v)
            .expect("recyclable garbage must never surface as Full");
        assert_eq!(h.dequeue(), Some(v));
    }
    let s = q.stats();
    assert_eq!(s.enq_rejected, 0);
    assert!(s.forced_cleanups > 0, "forced pass never ran: {s:?}");
    assert!(s.segs_recycled > 0, "nothing recycled: {s:?}");
    let g = q.gauges();
    assert!(g.live_segments <= CEILING, "{g:?}");
}

#[test]
fn spinning_empty_probes_do_not_grow_the_chain() {
    // The dequeue-side half of the memory bound: emptiness probes burn at
    // most ONE cell past the tail (the H > T fast-out), so a consumer
    // spinning on an empty queue cannot push the head frontier — and the
    // segment chain, and RSS — through the ceiling. Without the guard,
    // 10_000 probes here would burn 10_000 cells (625 segments).
    const CEILING: u64 = 2;
    let q: RawQueue<SEG> =
        RawQueue::with_config(Config::default().with_segment_ceiling(CEILING));
    let mut h = q.register();
    for _ in 0..10_000 {
        assert_eq!(h.dequeue(), None);
    }
    let g = q.gauges();
    assert!(
        g.live_segments <= CEILING,
        "empty probes grew the chain: {g:?}"
    );
    // And the fast-out is not sticky: traffic flows normally afterwards.
    for v in 1..=(SEG as u64 * 4) {
        h.try_enqueue(v).expect("probe storm wedged the queue");
        assert_eq!(h.dequeue(), Some(v));
    }
}

/// One thread drives two handles: handle B's probes push H past T, a
/// trickled value reaches handle A, and A's next probe lands past T
/// unguarded (only a handle whose last dequeue returned EMPTY consults the
/// H > T guard). Each handle still holds at most one probed cell past T,
/// so H − T stays within the two handles. A two-cell lead can carry H into
/// a segment T has not reached, with T's segment unreclaimable; the gate
/// must then move T up to H rather than report `Full` on a drained queue.
fn fed_consumer_probes(ceiling: u64) {
    let q: RawQueue<SEG> =
        RawQueue::with_config(Config::default().with_segment_ceiling(ceiling));
    let (mut a, mut b) = (q.register(), q.register());
    let (mut next, mut expect, mut widest) = (1u64, 1u64, 0u64);
    for probe in 0..10_000u64 {
        if probe % 10 == 0 {
            // Both admission gates, the one-shot and the batch one.
            let admitted = if probe % 20 == 0 {
                a.try_enqueue(next)
            } else {
                a.try_enqueue_batch(&[next])
            };
            admitted.unwrap_or_else(|_| {
                panic!("ceiling {ceiling}: probes wedged the queue at probe {probe}")
            });
            next += 1;
        }
        let h = if probe % 2 == 0 { &mut a } else { &mut b };
        if let Some(v) = h.dequeue() {
            assert_eq!(v, expect);
            expect += 1;
        }
        let (head, tail) = q.indices();
        assert!(head <= tail + 2, "probe {probe}: H = {head}, T = {tail}");
        widest = widest.max(head.saturating_sub(tail));
        let g = q.gauges();
        assert!(g.live_segments <= ceiling, "probe {probe}: {g:?}");
    }
    assert_eq!(expect, next, "a value was lost");
    assert_eq!(widest, 2, "no unguarded probe landed past T");
}

#[test]
fn a_fed_consumer_probing_past_the_tail_burns_one_cell() {
    fed_consumer_probes(2);
    fed_consumer_probes(3);
}

#[test]
fn more_fed_consumers_than_a_segment_holds_do_not_wedge_the_gate() {
    // SEG + 4 handles each receive a value and then probe once, unguarded:
    // the head leads the tail by one cell per handle, more than a segment
    // holds, so the lead can span three segments while T's own segment
    // stays unreclaimable. Every `try_enqueue` must still be admitted and
    // the chain must stay within the ceiling, wherever in its segment the
    // tail starts (`offset` values pass through first).
    const CEILING: u64 = 3;
    const HANDLES: usize = SEG + 4;
    for offset in 0..SEG as u64 {
        let q: RawQueue<SEG> = RawQueue::with_config(
            Config::default()
                .with_segment_ceiling(CEILING)
                .with_max_garbage(1),
        );
        let mut hs: Vec<_> = (0..HANDLES).map(|_| q.register()).collect();
        let mut next = 1u64;
        for _ in 0..offset {
            hs[0].enqueue(next);
            assert_eq!(hs[0].dequeue(), Some(next));
            next += 1;
        }
        for round in 0..20 {
            for h in hs.iter_mut() {
                h.try_enqueue(next).unwrap_or_else(|_| {
                    panic!("offset {offset}, round {round}: the lead wedged the queue")
                });
                assert_eq!(h.dequeue(), Some(next));
                next += 1;
            }
            for h in hs.iter_mut() {
                assert_eq!(h.dequeue(), None);
                let (head, tail) = q.indices();
                assert!(head <= tail + HANDLES as u64, "H = {head}, T = {tail}");
            }
            let g = q.gauges();
            assert!(g.live_segments <= CEILING, "offset {offset}, round {round}: {g:?}");
        }
        assert_eq!(q.stats().enq_rejected, 0);
    }
}

#[test]
fn bounded_batch_rejection_is_all_or_nothing() {
    // The batch admission gate runs *before* the claiming FAA and demands
    // headroom for the whole batch, so a rejected `try_enqueue_batch` must
    // leave no trace: no element published, no protocol state disturbed,
    // the slice handed back untouched.
    const CEILING: u64 = 3;
    let q: RawQueue<SEG> =
        RawQueue::with_config(Config::default().with_segment_ceiling(CEILING));
    let mut h = q.register();

    // Fill to the first single-op rejection.
    let mut accepted = Vec::new();
    for v in 1..=CEILING * SEG as u64 * 2 {
        match h.try_enqueue(v) {
            Ok(()) => accepted.push(v),
            Err(Full(())) => break,
        }
    }
    assert!(
        (accepted.len() as u64) < CEILING * SEG as u64 * 2,
        "bounded queue never rejected"
    );
    let before = q.stats();

    // The batch must bounce whole — not strand a prefix.
    let batch: Vec<u64> = (1_000..1_000 + SEG as u64).collect();
    assert_eq!(h.try_enqueue_batch(&batch), Err(Full(())));
    let after = q.stats();
    assert_eq!(
        after.enq_batches, before.enq_batches,
        "rejected batch entered the batch protocol: {after:?}"
    );
    assert!(after.enq_rejected > before.enq_rejected);

    // No partial publication: draining yields exactly the accepted prefix.
    for &v in &accepted {
        assert_eq!(h.dequeue(), Some(v));
    }
    assert_eq!(h.dequeue(), None, "rejected batch leaked an element");

    // Headroom restored by the drain: the identical batch now goes through
    // and comes back FIFO-intact.
    h.try_enqueue_batch(&batch)
        .expect("batch still rejected after drain");
    let mut out = Vec::new();
    assert_eq!(h.dequeue_batch(&mut out, SEG), SEG);
    assert_eq!(out, batch);
}

#[test]
fn batch_admission_gate_is_width_aware() {
    // A fresh ceiling-2 queue has exactly one segment of headroom: a
    // single-op `try_enqueue` clears the gate, but a batch spanning two
    // segments (⌈k/N⌉ = 2) must be rejected up front — the gate prices the
    // whole claim run, not just its first cell.
    let q: RawQueue<SEG> =
        RawQueue::with_config(Config::default().with_segment_ceiling(2));
    let mut h = q.register();
    let wide: Vec<u64> = (1..=2 * SEG as u64).collect();
    assert_eq!(h.try_enqueue_batch(&wide), Err(Full(())));
    h.try_enqueue(7).expect("single op must still fit");
    assert_eq!(h.dequeue(), Some(7));
    assert_eq!(h.dequeue(), None, "rejected wide batch left residue");
}

#[test]
fn typed_full_hands_the_value_back() {
    // Ceiling 1 is the degenerate bound: no headroom was ever available,
    // so the very first try_enqueue is rejected — and must return the
    // boxed value intact, not leak or drop it.
    let q: WfQueue<String, SEG> =
        WfQueue::with_config(Config::default().with_segment_ceiling(1));
    let mut h = q.handle();
    let err = h.try_enqueue("hello".to_string()).unwrap_err();
    assert_eq!(err.into_inner(), "hello");

    // Unbounded typed queues never reject.
    let q: WfQueue<String, SEG> = WfQueue::with_config(Config::default());
    let mut h = q.handle();
    h.try_enqueue("world".to_string()).unwrap();
    assert_eq!(h.dequeue().as_deref(), Some("world"));
}

#[test]
fn owned_handles_expose_the_fallible_api() {
    use std::sync::Arc;
    use wfqueue::{OwnedHandle, OwnedLocalHandle};

    let q: Arc<RawQueue<SEG>> = Arc::new(RawQueue::with_config(
        Config::default().with_segment_ceiling(1),
    ));
    let mut h = OwnedHandle::new(Arc::clone(&q));
    assert_eq!(h.try_enqueue(5), Err(Full(())));

    let tq: Arc<WfQueue<u32, SEG>> = Arc::new(WfQueue::with_config(
        Config::default().with_segment_ceiling(1),
    ));
    let mut th = OwnedLocalHandle::new(Arc::clone(&tq));
    assert_eq!(th.try_enqueue(9u32).unwrap_err().into_inner(), 9);

    // And both succeed on unbounded queues.
    let q: Arc<RawQueue<SEG>> = Arc::new(RawQueue::new());
    let mut h = OwnedHandle::new(Arc::clone(&q));
    h.try_enqueue(5).unwrap();
    assert_eq!(h.dequeue(), Some(5));
}

#[test]
fn plain_enqueue_keeps_paper_semantics_past_the_ceiling() {
    // The paper's enqueue never fails: on a bounded queue it may overshoot
    // the ceiling (by the documented bounded amount) rather than reject.
    const CEILING: u64 = 2;
    let q: RawQueue<SEG> =
        RawQueue::with_config(Config::default().with_segment_ceiling(CEILING));
    let mut h = q.register();
    let total = SEG as u64 * 4; // twice the ceiling's capacity
    for v in 1..=total {
        h.enqueue(v); // must not block forever or panic
    }
    for v in 1..=total {
        assert_eq!(h.dequeue(), Some(v), "overshoot lost a value");
    }
}

#[test]
fn bounded_gauges_flow_through_the_metrics_exposition() {
    let q: RawQueue<SEG> =
        RawQueue::with_config(Config::default().with_segment_ceiling(8));
    let mut h = q.register();
    for v in 1..=(SEG as u64 * 2) {
        h.try_enqueue(v).unwrap();
    }
    let out = wfq_harness::render_prometheus(&q.stats(), Some(&q.gauges()));
    assert!(out.contains("wfq_segment_ceiling 8\n"), "{out}");
    assert!(out.contains("wfq_ceiling_headroom"), "{out}");
    assert!(out.contains("wfq_enq_rejected_total 0\n"), "{out}");
}

// ---------------------------------------------------------------------
// Bounded-mode parity for the fixed-capacity ring backend: a full SCQ
// ring must answer `try_enqueue` with the same typed `Full` the
// segment-ceiling queue uses, reject without losing or corrupting any
// accepted value, and recover completely once the backlog drains.
// ---------------------------------------------------------------------

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
        assert_eq!(h.try_enqueue(capacity + 1), Err(Full(())));
        assert_eq!(h.try_enqueue(capacity + 2), Err(Full(())));

        // The default batch fallback stops at the first Full with the
        // accepted prefix enqueued (documented prefix-on-Full contract) —
        // on an already-full ring that prefix is empty.
        let batch: Vec<u64> = (100..100 + capacity).collect();
        assert_eq!(h.try_enqueue_batch(&batch), Err(Full(())));

        // Nothing lost, nothing invented, FIFO intact.
        for v in 1..=capacity {
            assert_eq!(h.dequeue(), Some(v), "{} corrupted under Full", Q::NAME);
        }
        assert_eq!(h.dequeue(), None, "{} leaked a rejected value", Q::NAME);

        // Full recovery: the whole capacity is available again.
        for v in 1..=capacity {
            h.try_enqueue(v + 50).expect("capacity not recovered");
        }
        assert_eq!(h.try_enqueue(999), Err(Full(())));
        for v in 1..=capacity {
            assert_eq!(h.dequeue(), Some(v + 50));
        }
        drop(h); // handle-local counters flush on drop
        assert!(q.stats().enq_rejected >= 4, "{:?}", q.stats());
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

/// The acceptance soak (ISSUE 3): with ceiling S and one thread
/// fault-injected to park *while holding a hazard on segment 0*, the
/// queue must degrade — live segments never exceed S, `try_enqueue`
/// returns `Full` — and must fully recover once the thread resumes.
#[cfg(feature = "fault-injection")]
mod stall_soak {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    use wfq_sync::fault::{self, FaultPlan};
    use wfqueue::{Config, RawQueue};

    use super::SEG;

    #[derive(Default)]
    struct Event(Mutex<bool>, Condvar);

    impl Event {
        fn set(&self) {
            *self.0.lock().unwrap() = true;
            self.1.notify_all();
        }
        fn wait(&self) {
            let mut g = self.0.lock().unwrap();
            while !*g {
                g = self.1.wait(g).unwrap();
            }
        }
    }

    #[test]
    fn stalled_hazard_degrades_to_bounded_rejection_and_recovers() {
        const CEILING: u64 = 8;
        let q = RawQueue::<SEG>::with_config(
            Config::default()
                .with_max_garbage(1)
                .with_segment_ceiling(CEILING),
        );
        let parked = Arc::new(Event::default());
        let release = Arc::new(Event::default());
        let accepted = Arc::new(AtomicU64::new(0));

        std::thread::scope(|s| {
            // The victim: parks between publishing its hazard (segment 0)
            // and using it — the exact window a crashed/descheduled thread
            // occupies from the reclaimer's point of view.
            {
                let q = &q;
                let (parked, release) = (Arc::clone(&parked), Arc::clone(&release));
                s.spawn(move || {
                    let mut h = q.register();
                    let p = Arc::clone(&parked);
                    let r = Arc::clone(&release);
                    fault::with_plan(
                        FaultPlan::new().hook_at(
                            "deq::hazard_published",
                            0,
                            Arc::new(move |_| {
                                p.set();
                                r.wait();
                            }),
                        ),
                        || {
                            let _ = h.dequeue();
                        },
                    );
                });
            }

            // The producer: once the victim is parked, push until the
            // ceiling bites. The parked hazard pins every reclamation
            // boundary at 0, so no forced pass can recover headroom and
            // Full is the only lawful outcome.
            {
                let q = &q;
                let parked = Arc::clone(&parked);
                let release = Arc::clone(&release);
                let accepted = Arc::clone(&accepted);
                s.spawn(move || {
                    parked.wait();
                    let mut h = q.register();
                    let cap = CEILING * SEG as u64 * 2;
                    let mut v = 0u64;
                    let mut breach = None;
                    let saw_full = loop {
                        if v >= cap {
                            break false;
                        }
                        v += 1;
                        match h.try_enqueue(v) {
                            Ok(()) => {
                                accepted.fetch_add(1, Ordering::Relaxed);
                                // Degradation invariant, sampled on every
                                // accepted enqueue: never above the ceiling.
                                let g = q.gauges();
                                if g.live_segments > CEILING {
                                    breach.get_or_insert(g);
                                }
                            }
                            Err(_) => break true,
                        }
                    };

                    // Steady-state degradation: rejections repeat, memory
                    // stays put, and the gauges name the culprit.
                    let rejected = (0..32)
                        .filter(|_| q.register().try_enqueue(12345).is_err())
                        .count();
                    let g = q.gauges();
                    let st = q.stats();
                    // Release before asserting, so a failure fails the
                    // test instead of leaving the victim parked forever.
                    release.set();
                    assert!(breach.is_none(), "ceiling breached mid-fill: {breach:?}");
                    assert!(saw_full, "parked hazard never produced Full");
                    assert_eq!(rejected, 32, "a rejection did not repeat");
                    assert!(g.live_segments <= CEILING, "{g:?}");
                    assert_eq!(
                        g.min_hazard,
                        Some(0),
                        "watchdog gauge must expose the pinning hazard: {g:?}"
                    );
                    assert_eq!(g.ceiling_headroom, Some(0), "{g:?}");
                    assert!(st.enq_rejected >= 32, "{st:?}");
                    assert!(st.forced_cleanups > 0, "{st:?}");
                    assert_eq!(st.segs_recycled, 0, "freed past a live hazard: {st:?}");
                });
            }
        });

        // The victim resumed and completed its dequeue. Recovery: drain
        // the backlog, then a full ceiling's worth of capacity minus one
        // segment must be acceptable again ((S − 2) × N: the tail restarts
        // mid-segment and the admission gate is conservative by one
        // segment). The degradation left no permanent damage.
        let n = accepted.load(Ordering::Relaxed);
        assert!(n >= (CEILING - 1) * SEG as u64, "accepted only {n}");
        let mut h = q.register();
        let mut drained = 0;
        while h.dequeue().is_some() {
            drained += 1;
        }
        assert_eq!(drained, n - 1, "victim consumed one value on resume");
        for v in 1..=(CEILING - 2) * SEG as u64 {
            h.try_enqueue(v)
                .expect("queue did not recover its capacity floor after resume");
        }
        let st = q.stats();
        assert!(
            st.segs_recycled > 0,
            "recovery must recycle the previously pinned prefix: {st:?}"
        );
    }
}

