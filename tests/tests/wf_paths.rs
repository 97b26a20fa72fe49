//! Targeted exercises of the wait-free machinery: forced slow paths,
//! patience sweeps, helping, and typed-queue semantics under contention.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use wfqueue::{Config, RawQueue, WfQueue};

/// With patience 0 and heavy contention, both slow paths must actually
/// execute *and* produce correct results (the core of the paper's
/// wait-freedom claim: the slow path is not just a fallback, it works).
#[test]
fn slow_paths_execute_and_stay_correct() {
    // Slow-path traffic needs a lost race, which a single-CPU scheduler
    // may or may not produce in one round — retry until observed (bounded)
    // while asserting correctness every round.
    let mut saw_slow_path = false;
    for _round in 0..20 {
        let q: RawQueue<16> = RawQueue::with_config(Config::wf0());
        let sum = AtomicU64::new(0);
        let got = AtomicU64::new(0);
        const TOTAL: u64 = 40_000;
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register();
                    for v in 0..TOTAL / 2 {
                        h.enqueue(t * (TOTAL / 2) + v + 1);
                    }
                });
            }
            for _ in 0..2 {
                let q = &q;
                let sum = &sum;
                let got = &got;
                s.spawn(move || {
                    let mut h = q.register();
                    loop {
                        if got.load(Ordering::Relaxed) >= TOTAL {
                            break;
                        }
                        if let Some(v) = h.dequeue() {
                            sum.fetch_add(v, Ordering::Relaxed);
                            got.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), (1..=TOTAL).sum::<u64>());
        let st = q.stats();
        if st.enq_slow + st.deq_slow > 0 {
            saw_slow_path = true;
            break;
        }
    }
    assert!(
        saw_slow_path,
        "patience 0 never hit a slow path in 20 contended rounds"
    );
}

/// Patience sweep: behaviour must be identical for every patience value;
/// only the path mix may differ.
#[test]
fn every_patience_yields_identical_semantics() {
    for patience in [0u32, 1, 2, 5, 10, 100] {
        let q: RawQueue<64> =
            RawQueue::with_config(Config::default().with_patience(patience));
        let mut h = q.register();
        for v in 1..=2_000u64 {
            h.enqueue(v);
        }
        for v in 1..=2_000u64 {
            assert_eq!(h.dequeue(), Some(v), "patience {patience}");
        }
        assert_eq!(h.dequeue(), None);
    }
}

/// The helping ring: a thread that *only* dequeues must end up helping
/// peers' enqueue requests when they are starved (paper Invariants 2–3).
/// We can't deterministically starve an enqueuer, but we can verify the
/// help counters move under a WF-0 mixed load.
#[test]
fn helping_happens_under_wf0_contention() {
    let q: RawQueue<16> = RawQueue::with_config(Config::wf0());
    let got = AtomicU64::new(0);
    const TOTAL: u64 = 60_000;
    // All three handles register before any traffic starts. Otherwise a
    // thread that runs to completion before the next one registers hands
    // its node back to the pool, the next thread recycles it, and a lone
    // live node is its own dequeue peer, so no peer helping is counted.
    let start = Barrier::new(3);
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let q = &q;
            let got = &got;
            let start = &start;
            s.spawn(move || {
                let mut h = q.register();
                start.wait();
                let mut rng = wfq_sync::XorShift64::for_stream(11, t);
                let tag = (t + 1) << 40;
                let mut c = 0;
                for _ in 0..TOTAL / 3 {
                    if rng.coin() {
                        c += 1;
                        h.enqueue(tag + c);
                    } else if h.dequeue().is_some() {
                        got.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let st = q.stats();
    // help_deq counts peer-helping dequeues: every successful dequeue
    // helps its current peer (paper line 136), so any substantial number
    // of successful dequeues implies help calls.
    if got.load(Ordering::Relaxed) > 100 {
        assert!(st.help_deq > 0, "peer helping never ran: {st:?}");
    }
}

/// Typed queue under contention with drop-sensitive payloads. Consumers
/// give up after the producers finish and a bounded run of EMPTY polls, so
/// a lost value fails the count below instead of hanging the test.
#[test]
fn typed_queue_contended_boxes_survive() {
    let q: WfQueue<Box<[u8; 64]>> = WfQueue::with_config(Config::wf0());
    let consumed = AtomicU64::new(0);
    let producing = AtomicU64::new(2);
    const TOTAL: u64 = 6_000;
    const IDLE_POLLS: u32 = 10_000;
    std::thread::scope(|s| {
        for _ in 0..2 {
            let q = &q;
            let producing = &producing;
            s.spawn(move || {
                let mut h = q.handle();
                for i in 0..TOTAL / 2 {
                    h.enqueue(Box::new([i as u8; 64]));
                }
                producing.fetch_sub(1, Ordering::Release);
            });
        }
        for _ in 0..2 {
            let q = &q;
            let (consumed, producing) = (&consumed, &producing);
            s.spawn(move || {
                let mut h = q.handle();
                let mut idle = 0;
                while consumed.load(Ordering::Relaxed) < TOTAL && idle < IDLE_POLLS {
                    if let Some(b) = h.dequeue() {
                        // Every byte in the box must agree (no torn boxes).
                        let first = b[0];
                        assert!(b.iter().all(|&x| x == first));
                        consumed.fetch_add(1, Ordering::Relaxed);
                        idle = 0;
                    } else if producing.load(Ordering::Acquire) == 0 {
                        idle += 1;
                    }
                }
            });
        }
    });
    assert_eq!(
        consumed.load(Ordering::Relaxed),
        TOTAL,
        "values were lost: the queue ran dry before every box came back"
    );
    assert!(q.is_empty());
}

/// Handles may migrate across threads (Send) as long as use is exclusive.
#[test]
fn handle_migrates_between_threads() {
    let q: RawQueue<64> = RawQueue::new();
    let mut h = q.register();
    h.enqueue(1);
    let mut h = std::thread::scope(|s| {
        s.spawn(move || {
            h.enqueue(2);
            h
        })
        .join()
        .unwrap()
    });
    assert_eq!(h.dequeue(), Some(1));
    assert_eq!(h.dequeue(), Some(2));
}

/// Many registrations from many short-lived threads while traffic flows.
#[test]
fn registration_churn_during_traffic() {
    let q: RawQueue<32> = RawQueue::new();
    let stop = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Steady traffic.
        {
            let q = &q;
            let stop = &stop;
            s.spawn(move || {
                let mut h = q.register();
                let mut v = 1;
                while stop.load(Ordering::Relaxed) == 0 {
                    h.enqueue(v);
                    let _ = h.dequeue();
                    v += 1;
                }
            });
        }
        // Churning registrants.
        {
            let q = &q;
            let stop = &stop;
            s.spawn(move || {
                for round in 0..200u64 {
                    let mut h = q.register();
                    h.enqueue(1_000_000 + round);
                    let _ = h.dequeue();
                    drop(h);
                }
                stop.store(1, Ordering::Relaxed);
            });
        }
    });
}
