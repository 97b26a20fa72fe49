//! Cross-crate reclamation behaviour: the wait-free queue's custom scheme
//! (paper §3.6) and the hazard-pointer domain behind the baselines.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use wfqueue::{Config, RawQueue};

/// Sustained traffic must keep the live-segment count bounded: allocation
/// without reclamation would retain one segment per N operations.
#[test]
fn live_segments_stay_bounded_under_sustained_traffic() {
    let q: RawQueue<16> = RawQueue::with_config(Config::default().with_max_garbage(4));
    let rounds = 300u64;
    let per_round = 16 * 8; // 8 segments worth per round
    let mut h = q.register();
    for r in 0..rounds {
        for v in 0..per_round {
            h.enqueue(r * per_round + v + 1);
        }
        for _ in 0..per_round {
            assert!(h.dequeue().is_some());
        }
    }
    let s = q.stats();
    assert!(s.segs_alloc > 1000, "traffic should churn many segments: {s:?}");
    assert!(
        s.live_segments() < 100,
        "reclamation failed to keep up: {s:?}"
    );
}

/// Concurrent producers/consumers with aggressive reclamation thresholds:
/// correctness must survive constant cleaning.
#[test]
fn aggressive_reclamation_is_transparent_to_values() {
    let q: RawQueue<8> = RawQueue::with_config(Config::default().with_max_garbage(1));
    let sum = AtomicU64::new(0);
    let count = AtomicU64::new(0);
    const TOTAL: u64 = 30_000;
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let q = &q;
            s.spawn(move || {
                let mut h = q.register();
                for v in 0..TOTAL / 3 {
                    h.enqueue(t * (TOTAL / 3) + v + 1);
                }
            });
        }
        for _ in 0..3 {
            let q = &q;
            let sum = &sum;
            let count = &count;
            s.spawn(move || {
                let mut h = q.register();
                loop {
                    if count.load(Ordering::Relaxed) >= TOTAL {
                        break;
                    }
                    if let Some(v) = h.dequeue() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(sum.load(Ordering::Relaxed), (1..=TOTAL).sum::<u64>());
    assert!(q.stats().segs_freed > 0, "cleaning never ran: {:?}", q.stats());
}

/// A long-idle handle must not pin memory forever: the cleaner pushes idle
/// threads' segment pointers forward (paper §3.6 "Update head and tail
/// pointers").
#[test]
fn idle_handles_are_pushed_forward() {
    let q: RawQueue<8> = RawQueue::with_config(Config::default().with_max_garbage(2));
    // The idle handle registers and does one op, then sits.
    let mut idle = q.register();
    idle.enqueue(999_999);
    assert_eq!(idle.dequeue(), Some(999_999));

    let mut h = q.register();
    for v in 1..=4_000u64 {
        h.enqueue(v);
        let _ = h.dequeue();
    }
    let s = q.stats();
    assert!(
        s.segs_freed > 100,
        "idle handle should not have pinned reclamation: {s:?}"
    );
    // The idle handle must still work.
    idle.enqueue(42);
    assert_eq!(idle.dequeue(), Some(42));
}

/// Handle churn: registering and dropping handles from short-lived threads
/// must recycle ring nodes instead of growing the ring.
#[test]
fn handle_churn_reuses_ring_slots() {
    let q: RawQueue<64> = RawQueue::new();
    for round in 0..50 {
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register();
                    for v in 0..50 {
                        h.enqueue(round * 1000 + t * 100 + v + 1);
                        let _ = h.dequeue();
                    }
                });
            }
        });
    }
    // 50 rounds × 4 threads but at most 4 concurrent: the ring holds ≤ a
    // few nodes (pool reuse), not 200.
    let stats = q.stats();
    assert_eq!(stats.enqueues(), 50 * 4 * 50);
}

/// Reclamation with a dequeue helper mid-flight: the backward-jump pass
/// (paper: "Visit threads in reverse order") must keep helpers safe. This
/// test drives slow-path dequeues (patience 0) against an aggressive
/// cleaner and checks nothing explodes and values survive.
#[test]
fn reclamation_and_slow_path_dequeues_coexist() {
    let q: RawQueue<8> = RawQueue::with_config(Config::wf0().with_max_garbage(1));
    let stop = AtomicBool::new(false);
    let consumed = AtomicU64::new(0);
    std::thread::scope(|s| {
        // One producer keeps values flowing.
        {
            let q = &q;
            let stop = &stop;
            s.spawn(move || {
                let mut h = q.register();
                let mut v = 1;
                while !stop.load(Ordering::Relaxed) {
                    h.enqueue(v);
                    v += 1;
                }
            });
        }
        // Two consumers race on mostly-contended dequeues.
        for _ in 0..2 {
            let q = &q;
            let consumed = &consumed;
            s.spawn(move || {
                let mut h = q.register();
                let mut got = 0u64;
                while got < 15_000 {
                    if h.dequeue().is_some() {
                        got += 1;
                    }
                }
                consumed.fetch_add(got, Ordering::Relaxed);
            });
        }
        // Stop the producer once consumers are done.
        {
            let consumed = &consumed;
            let stop = &stop;
            s.spawn(move || {
                while consumed.load(Ordering::Relaxed) < 30_000 {
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });
    let s = q.stats();
    // Whether deq_slow fires is scheduling-dependent (a fast-path dequeue
    // only fails when its claim CAS loses a race); on a single-CPU host
    // whole runs can complete fast-path-only. The stress suite asserts
    // slow-path coverage under guaranteed oversubscription instead; here
    // the requirement is that reclamation ran concurrently and nothing
    // broke.
    assert!(s.segs_freed > 0, "cleaner should run: {s:?}");
    assert_eq!(
        s.dequeues() - s.deq_empty,
        30_000,
        "successful dequeues must equal the consumers' count: {s:?}"
    );
}

/// The paper §3.6 "Thread failure": a thread suspended *inside* an
/// operation pins reclamation (unbounded leakage is the documented
/// limitation), but must never block other threads' progress — and
/// reclamation must resume once the thread wakes.
#[test]
fn suspended_thread_pins_memory_but_not_progress() {
    use std::sync::atomic::AtomicBool;
    let q: RawQueue<8> = RawQueue::with_config(Config::default().with_max_garbage(2));
    let parked = AtomicBool::new(false);
    let release = AtomicBool::new(false);

    std::thread::scope(|s| {
        // The "suspended" thread: starts a dequeue-like epoch by doing an
        // operation, then parks while still registered (its hazard clears
        // at op end, but its head/tail pointers stay pinned at the front
        // until the cleaner pushes them — this exercises the push path
        // with a live-but-idle peer).
        {
            let q = &q;
            let parked = &parked;
            let release = &release;
            s.spawn(move || {
                let mut h = q.register();
                h.enqueue(1);
                assert_eq!(h.dequeue(), Some(1));
                parked.store(true, Ordering::Release);
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                // Wake up and verify the queue still works for us.
                h.enqueue(2);
                assert_eq!(h.dequeue(), Some(2));
            });
        }
        // The busy thread: must make unhindered progress and reclaim.
        {
            let q = &q;
            let parked = &parked;
            let release = &release;
            s.spawn(move || {
                while !parked.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                let mut h = q.register();
                for v in 1..=4_000u64 {
                    h.enqueue(v);
                    assert_eq!(h.dequeue(), Some(v));
                }
                let st = q.stats();
                assert!(
                    st.segs_freed > 0,
                    "an idle (not in-operation) peer must not pin reclamation: {st:?}"
                );
                release.store(true, Ordering::Release);
            });
        }
    });
}

// ---------------------------------------------------------------------
// The emptiness guard keeps the head frontier next to the tail: a
// probe's FAA burns a cell, and without the H > T fast-out a consumer
// spinning on an empty queue would push H, the chain and RSS ahead of T
// without bound. Each handle holds at most one probed cell past T, so
// H ≤ T + live handles, and the chain stays within the reclamation
// threshold of `MAX_GARBAGE = 2n` dead segments plus the segments the
// head's lead spans.
// ---------------------------------------------------------------------

const SEG: usize = 16;

/// Live segments a queue with `handles` live handles may hold: the
/// `2n` dead segments the threshold lets accumulate (or `max_garbage`),
/// the segment holding T, and the segments the head's lead of at most
/// one cell per handle reaches past it.
fn chain_bound(max_garbage: Option<u64>, handles: u64) -> u64 {
    max_garbage.unwrap_or(2 * handles) + 1 + handles.div_ceil(SEG as u64)
}

/// The default configuration, with a fixed reclamation threshold if given.
fn config(max_garbage: Option<u64>) -> Config {
    max_garbage.map_or(Config::default(), |m| Config::default().with_max_garbage(m))
}

#[test]
fn spinning_empty_probes_do_not_grow_the_chain() {
    // Without the guard, 10_000 probes here would burn 10_000 cells (625
    // segments).
    let q: RawQueue<SEG> = RawQueue::new();
    let mut h = q.register();
    let mut peak = 0;
    for _ in 0..10_000 {
        assert_eq!(h.dequeue(), None);
        let (head, tail) = q.indices();
        assert!(head <= tail + 1, "H = {head}, T = {tail}");
        peak = peak.max(q.gauges().live_segments);
    }
    // And the fast-out is not sticky: traffic flows normally afterwards.
    for v in 1..=(SEG as u64 * 4) {
        h.enqueue(v);
        assert_eq!(h.dequeue(), Some(v));
        peak = peak.max(q.gauges().live_segments);
    }
    assert!(
        peak <= chain_bound(None, 1),
        "peak {peak}: {:?}",
        q.gauges()
    );
}

/// One thread drives two handles: handle B's probes push H past T, a
/// trickled value reaches handle A, and A's next probe lands past T
/// unguarded (only a handle whose last dequeue returned EMPTY consults the
/// H > T guard). Each handle still holds at most one probed cell past T,
/// so H − T stays within the two handles, and no value is lost.
fn fed_consumer_probes(max_garbage: Option<u64>) {
    let q: RawQueue<SEG> = RawQueue::with_config(config(max_garbage));
    let (mut a, mut b) = (q.register(), q.register());
    let (mut next, mut expect, mut widest, mut peak) = (1u64, 1u64, 0u64, 0u64);
    for probe in 0..10_000u64 {
        if probe % 10 == 0 {
            a.enqueue(next);
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
        peak = peak.max(q.gauges().live_segments);
    }
    assert_eq!(expect, next, "a value was lost");
    assert_eq!(widest, 2, "no unguarded probe landed past T");
    assert!(
        peak <= chain_bound(max_garbage, 2),
        "peak {peak}: {:?}",
        q.gauges()
    );
}

#[test]
fn a_fed_consumer_probing_past_the_tail_burns_one_cell() {
    fed_consumer_probes(None);
    fed_consumer_probes(Some(1));
}

/// `handles` handles each receive a value and then probe once, unguarded:
/// the head leads the tail by one cell per handle, which can span several
/// segments. Wherever in its segment the tail starts (`offset` values pass
/// through first), H stays within T + `handles`, every value arrives, and
/// the chain stays within [`chain_bound`].
fn fed_consumers_past_a_segment(max_garbage: Option<u64>, handles: usize) {
    for offset in 0..SEG as u64 {
        let q: RawQueue<SEG> = RawQueue::with_config(config(max_garbage));
        let mut hs: Vec<_> = (0..handles).map(|_| q.register()).collect();
        let mut next = 1u64;
        for _ in 0..offset {
            hs[0].enqueue(next);
            assert_eq!(hs[0].dequeue(), Some(next));
            next += 1;
        }
        for round in 0..20 {
            for h in hs.iter_mut() {
                h.enqueue(next);
                assert_eq!(h.dequeue(), Some(next), "offset {offset}, round {round}");
                next += 1;
            }
            for h in hs.iter_mut() {
                assert_eq!(h.dequeue(), None);
                let (head, tail) = q.indices();
                assert!(head <= tail + handles as u64, "H = {head}, T = {tail}");
            }
            let g = q.gauges();
            assert!(
                g.live_segments <= chain_bound(max_garbage, handles as u64),
                "offset {offset}, round {round}: {g:?}"
            );
        }
    }
}

#[test]
fn more_fed_consumers_than_a_segment_holds_stay_within_the_garbage_bound() {
    fed_consumers_past_a_segment(Some(1), SEG + 4);
    for handles in [SEG + 4, 36] {
        fed_consumers_past_a_segment(None, handles);
    }
}
