//! Large-scale MPMC stress: value conservation, per-producer FIFO order,
//! and emptiness sanity for every queue, at thread counts that
//! oversubscribe this host (the regime of the paper's Table 2).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use wfq_baselines::{BenchQueue, CcQueue, KpQueue, Lcrq, MsQueue, MutexQueue, QueueHandle, Wf0};
use wfqueue::RawQueue;

const PRODUCERS: usize = 3;
const CONSUMERS: usize = 3;
const PER_PRODUCER: u64 = 20_000;

/// Tag layout: producer id in the top bits, 1-based sequence below.
fn tag(p: usize) -> u64 {
    ((p as u64 + 1) << 40) | 1
}

fn stress<Q: BenchQueue>() {
    let q = Q::new();
    let total = (PRODUCERS as u64) * PER_PRODUCER;
    let consumed = AtomicU64::new(0);
    // Each consumer logs (value) in its own arrival order.
    let logs: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let q = &q;
            s.spawn(move || {
                let mut h = q.register();
                for i in 0..PER_PRODUCER {
                    h.enqueue(tag(p) + i);
                }
            });
        }
        for _ in 0..CONSUMERS {
            let q = &q;
            let consumed = &consumed;
            let logs = &logs;
            s.spawn(move || {
                let mut h = q.register();
                let mut mine = Vec::new();
                loop {
                    if consumed.load(Ordering::Relaxed) >= total {
                        break;
                    }
                    if let Some(v) = h.dequeue() {
                        mine.push(v);
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                logs.lock().unwrap().push(mine);
            });
        }
    });

    let logs = logs.into_inner().unwrap();
    let all: Vec<u64> = logs.iter().flatten().copied().collect();

    // Conservation: every value exactly once.
    assert_eq!(all.len() as u64, total, "{}: op count", Q::NAME);
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for &v in &all {
        *counts.entry(v).or_default() += 1;
    }
    assert_eq!(counts.len() as u64, total, "{}: duplicates", Q::NAME);
    for p in 0..PRODUCERS {
        for i in 0..PER_PRODUCER {
            assert!(
                counts.contains_key(&(tag(p) + i)),
                "{}: lost value p{p}#{i}",
                Q::NAME
            );
        }
    }

    // Per-producer FIFO within each consumer's stream: a single consumer
    // must observe any one producer's values in increasing sequence order
    // (each dequeue of that producer's later value happens after the
    // dequeue of its earlier value completed on the same thread).
    for (ci, log) in logs.iter().enumerate() {
        let mut last: HashMap<u64, u64> = HashMap::new();
        for &v in log {
            let producer = v >> 40;
            let seq = v & ((1 << 40) - 1);
            if let Some(&prev) = last.get(&producer) {
                assert!(
                    seq > prev,
                    "{}: consumer {ci} saw producer {producer} out of order ({prev} then {seq})",
                    Q::NAME
                );
            }
            last.insert(producer, seq);
        }
    }
}

#[test]
fn stress_wf10() {
    stress::<RawQueue>();
}

#[test]
fn stress_wf0() {
    stress::<Wf0>();
}

#[test]
fn stress_msqueue() {
    stress::<MsQueue>();
}

#[test]
fn stress_lcrq() {
    stress::<Lcrq>();
}

#[test]
fn stress_ccqueue() {
    stress::<CcQueue>();
}

#[test]
fn stress_mutex() {
    stress::<MutexQueue>();
}

#[test]
fn stress_kpqueue() {
    stress::<KpQueue>();
}

/// Handle-lifecycle churn under traffic: one thread registers and drops
/// handles (doing a few operations through each) while steady producers
/// and consumers run. Guards the `active_count` accounting that the
/// reclamation threshold depends on — a count that drifts under churn
/// either disables reclamation (threshold inflates) or corrupts the node
/// free list.
#[test]
fn handle_churn_under_traffic_conserves_values_and_count() {
    let q = wfqueue::RawQueue::<64>::with_config(wfqueue::Config::default().with_max_garbage(2));
    let per = 10_000u64;
    let producers = 2u64;
    let total = producers * per;
    let sum = AtomicU64::new(0);
    let got = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..producers {
            let q = &q;
            let done = &done;
            s.spawn(move || {
                let mut h = q.register();
                // Traffic starts after the churner's first cycle, so the
                // churn overlaps it however fast the queue drains.
                while done.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
                for i in 0..per {
                    h.enqueue(t * per + i + 1);
                }
            });
        }
        for _ in 0..2 {
            let q = &q;
            let (sum, got) = (&sum, &got);
            s.spawn(move || {
                let mut h = q.register();
                while got.load(Ordering::Relaxed) < total {
                    if let Some(v) = h.dequeue() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        got.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // The churner: short-lived handles that only dequeue-probe, so the
        // conservation ledger stays defined by the two steady producers.
        {
            let q = &q;
            let (sum, got, done) = (&sum, &got, &done);
            s.spawn(move || {
                while got.load(Ordering::Relaxed) < total {
                    let mut h = q.register();
                    for _ in 0..16 {
                        if let Some(v) = h.dequeue() {
                            sum.fetch_add(v, Ordering::Relaxed);
                            got.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    drop(h);
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(sum.load(Ordering::Relaxed), (1..=total).sum::<u64>());
    assert!(done.load(Ordering::Relaxed) > 0, "churner never cycled");
    let g = q.gauges();
    assert_eq!(
        g.active_handles, 0,
        "active-handle count drifted under churn: {g:?}"
    );
    // Reclamation must still have run despite the churn (the threshold is
    // computed from *live* handles, so dead registrations cannot stall it).
    let st = q.stats();
    assert!(st.segs_freed > 0, "churn stalled reclamation: {st:?}");
}

/// The paper's Table 2 regime: more threads than hardware threads. The
/// wait-free queue must stay correct when every thread is constantly
/// preempted mid-operation.
#[test]
fn oversubscribed_wf0_conserves_values() {
    let q = wfqueue::RawQueue::<64>::with_config(wfqueue::Config::wf0());
    let threads = 8; // far beyond this host's hardware threads
    let per = 4_000u64;
    let sum = AtomicU64::new(0);
    let got = AtomicU64::new(0);
    let total = threads as u64 / 2 * per;
    std::thread::scope(|s| {
        for t in 0..threads / 2 {
            let q = &q;
            s.spawn(move || {
                let mut h = q.register();
                for i in 0..per {
                    h.enqueue((t as u64) * per + i + 1);
                }
            });
        }
        for _ in 0..threads / 2 {
            let q = &q;
            let sum = &sum;
            let got = &got;
            s.spawn(move || {
                let mut h = q.register();
                loop {
                    if got.load(Ordering::Relaxed) >= total {
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
    assert_eq!(sum.load(Ordering::Relaxed), (1..=total).sum::<u64>());
    // Slow-path traffic is scheduling-dependent (a fast path fails only
    // when it loses a race); report coverage rather than asserting it —
    // wf_paths.rs asserts slow-path coverage with a retry loop.
    let st = q.stats();
    eprintln!("oversubscribed WF-0 slow-path coverage: {st:?}");
}

/// WF-0 conservation with two producers and two consumers: the shape that
/// exposed the `help_enq` stale-claim erratum (DESIGN.md §3), where a
/// dequeuer that lost its claim to a claim for its own cell walked away
/// and the value landed in a cell no dequeuer visits again. Consumers stop
/// after the producers finish and a bounded run of EMPTY polls, and a final
/// bounded drain follows, so a lost value fails the test instead of
/// hanging it. Several rounds on fresh queues give the race more chances.
#[test]
fn wf0_two_producers_two_consumers_conserve_values() {
    const ROUNDS: u64 = 4;
    const PER: u64 = 25_000;
    const IDLE_POLLS: u32 = 10_000;
    let total = 2 * PER;
    for round in 0..ROUNDS {
        let q = wfqueue::RawQueue::<64>::with_config(wfqueue::Config::wf0());
        let producing = AtomicU64::new(2);
        let consumed = AtomicU64::new(0);
        let logs: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for p in 0..2 {
                let (q, producing) = (&q, &producing);
                s.spawn(move || {
                    let mut h = q.register();
                    for i in 0..PER {
                        h.enqueue(tag(p) + i);
                    }
                    producing.fetch_sub(1, Ordering::Release);
                });
            }
            for _ in 0..2 {
                let (q, producing, consumed, logs) = (&q, &producing, &consumed, &logs);
                s.spawn(move || {
                    let mut h = q.register();
                    let mut mine = Vec::new();
                    let mut idle = 0;
                    while consumed.load(Ordering::Relaxed) < total && idle < IDLE_POLLS {
                        if let Some(v) = h.dequeue() {
                            mine.push(v);
                            consumed.fetch_add(1, Ordering::Relaxed);
                            idle = 0;
                        } else if producing.load(Ordering::Acquire) == 0 {
                            idle += 1;
                        }
                    }
                    logs.lock().unwrap().extend(mine);
                });
            }
        });
        let mut all = logs.into_inner().unwrap();
        let mut h = q.register();
        for _ in 0..IDLE_POLLS {
            if let Some(v) = h.dequeue() {
                all.push(v);
            }
        }
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(before, all.len(), "round {round}: duplicated values");
        let lost: Vec<u64> = (0..2)
            .flat_map(|p| (0..PER).map(move |i| tag(p) + i))
            .filter(|v| all.binary_search(v).is_err())
            .collect();
        assert!(
            lost.is_empty(),
            "round {round}: {} of {total} values lost, first {:#x?}",
            lost.len(),
            &lost[..lost.len().min(4)]
        );
        assert_eq!(all.len() as u64, total, "round {round}: invented values");
    }
}
