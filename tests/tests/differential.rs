//! Differential shadow testing: every backend against a `VecDeque` oracle.
//!
//! The backends differ wildly inside — FAA segments, helping records,
//! indirect rings — but through [`QueueBackend`] they all claim to be the
//! same object: a FIFO queue of `u64`s. These tests hold them to it:
//!
//! - a **sequential tape** (deterministic op sequence from a seed) must
//!   produce *bit-identical* dequeue traces on every backend and on the
//!   oracle — sequential FIFO leaves no legal variation;
//! - a **full-ring edge tape** drives the bounded ring through repeated
//!   fill → reject → drain → empty-probe → refill cycles, checking
//!   `try_enqueue` backpressure and the SCQ threshold reset (a ring
//!   certified empty must come back to life on the next enqueue) against
//!   a capacity-bounded oracle;
//! - a **concurrent tape** runs the same producer/consumer workload on
//!   each backend, certifies every recorded history with the
//!   linearizability checker, and asserts the delivered multiset —
//!   consumed values plus a closing drain — is identical across backends
//!   (and equal to what was enqueued: nothing lost, duplicated, or
//!   invented);
//! - with `--features fault-injection`, the sequential differential runs
//!   again under seeded fault plans: injected scheduling perturbation must
//!   never change single-threaded semantics.

use std::collections::VecDeque;

use wfq_baselines::{
    BenchQueue, CcQueue, KpQueue, Lcrq, MsQueue, MutexQueue, QueueHandle, Scq, Wf0,
};
use wfq_checker::{check_linearizable, check_necessary, CheckResult, OpKind, Recorder};
use wfqueue::RawQueue;

/// One step of a deterministic op tape.
#[derive(Clone, Copy, Debug)]
enum Op {
    Enq(u64),
    Deq,
}

/// Generates a seeded tape of `len` operations whose resident count never
/// exceeds `max_resident` (so fixed-capacity rings never reject on it) and
/// regularly dips to zero (so empty probes and the rings' certified-empty
/// paths are exercised). Values are unique and nonzero.
fn tape(seed: u64, len: usize, max_resident: usize) -> Vec<Op> {
    let mut rng = wfq_sync::XorShift64::for_stream(seed, 0);
    let mut ops = Vec::with_capacity(len);
    let mut resident = 0usize;
    let mut next = 1u64;
    for _ in 0..len {
        let enq = resident == 0 || (rng.coin() && resident < max_resident);
        if enq {
            ops.push(Op::Enq(next));
            next += 1;
            resident += 1;
        } else {
            ops.push(Op::Deq);
            resident -= 1; // never underflows: Deq only when resident > 0
        }
    }
    // Close with empty probes past exhaustion: `None` answers must agree.
    for _ in 0..4 {
        ops.push(Op::Deq);
    }
    ops
}

/// Replays `ops` single-threadedly on `q`, returning the dequeue trace.
fn replay<Q: BenchQueue>(q: &Q, ops: &[Op]) -> Vec<Option<u64>> {
    let mut h = q.register();
    let mut out = Vec::new();
    for op in ops {
        match *op {
            Op::Enq(v) => h.enqueue(v),
            Op::Deq => out.push(h.dequeue()),
        }
    }
    out
}

/// The oracle: the same tape on a `VecDeque`.
fn oracle(ops: &[Op]) -> Vec<Option<u64>> {
    let mut q = VecDeque::new();
    let mut out = Vec::new();
    for op in ops {
        match *op {
            Op::Enq(v) => q.push_back(v),
            Op::Deq => out.push(q.pop_front()),
        }
    }
    out
}

/// Sequential differential across every backend in the repository. The
/// resident bound (16) stays within the smallest ring driven here
/// (order 5 → capacity 32), so the same tape is legal everywhere.
#[test]
fn sequential_tape_matches_oracle_on_every_backend() {
    fn shadow<Q: BenchQueue>(q: Q, ops: &[Op], expect: &[Option<u64>], seed: u64) {
        assert_eq!(
            replay(&q, ops),
            expect,
            "{}: sequential trace diverged from the oracle (seed {seed})",
            Q::NAME
        );
    }
    for seed in 0..8 {
        let ops = tape(seed, 400, 16);
        let expect = oracle(&ops);
        shadow(RawQueue::<64>::new(), &ops, &expect, seed);
        shadow(Wf0::new(), &ops, &expect, seed);
        shadow(MsQueue::new(), &ops, &expect, seed);
        shadow(Lcrq::new(), &ops, &expect, seed);
        shadow(CcQueue::new(), &ops, &expect, seed);
        shadow(KpQueue::new(), &ops, &expect, seed);
        shadow(MutexQueue::new(), &ops, &expect, seed);
        shadow(Scq::with_order(5), &ops, &expect, seed);
    }
}

// ---------------------------------------------------------------------
// Full-ring edge tape: backpressure + threshold reset.
// ---------------------------------------------------------------------

/// Drives a fixed-capacity ring through `cycles` fill/drain rounds and
/// returns the full observable trace: each try_enqueue's acceptance and
/// each dequeue's answer, in op order.
fn ring_edge_trace<Q: BenchQueue>(q: &Q, capacity: usize, cycles: usize) -> Vec<i64> {
    assert!(Q::FIXED_CAPACITY, "{} is not a bounded ring", Q::NAME);
    let mut h = q.register();
    let mut trace = Vec::new();
    let mut v = 1u64;
    for _ in 0..cycles {
        // Overfill: `capacity` accepts then 3 rejections.
        for _ in 0..capacity + 3 {
            trace.push(h.try_enqueue(v).is_ok() as i64);
            v += 1;
        }
        // Drain to empty, then 3 certified-empty probes.
        for _ in 0..capacity + 3 {
            trace.push(h.dequeue().map_or(-1, |x| x as i64));
        }
    }
    trace
}

/// The same protocol on a capacity-bounded `VecDeque`.
fn ring_edge_oracle(capacity: usize, cycles: usize) -> Vec<i64> {
    let mut q = VecDeque::new();
    let mut trace = Vec::new();
    let mut v = 1u64;
    for _ in 0..cycles {
        for _ in 0..capacity + 3 {
            if q.len() < capacity {
                q.push_back(v);
                trace.push(1);
            } else {
                trace.push(0);
            }
            v += 1;
        }
        for _ in 0..capacity + 3 {
            trace.push(q.pop_front().map_or(-1, |x| x as i64));
        }
    }
    trace
}

/// Three full cycles: the second and third refills only work if the ring
/// recovers from its certified-empty state (SCQ's threshold reset) and
/// from a fully-rejected tail (no ghost occupancy after `Full`).
#[test]
fn full_ring_edge_tape_matches_bounded_oracle() {
    let expect = ring_edge_oracle(8, 3);
    let scq = Scq::with_order(3); // capacity 8
    assert_eq!(
        ring_edge_trace(&scq, 8, 3),
        expect,
        "SCQ diverged from the bounded oracle"
    );
}

// ---------------------------------------------------------------------
// Concurrent differential: certify each backend, compare deliveries.
// ---------------------------------------------------------------------

/// Runs `producers`×`per` values against draining consumers on `q`,
/// certifies the recorded history, and returns the sorted multiset of
/// every value that came out (concurrent deliveries plus a closing
/// drain). Panics (with the seed) if the checker convicts the backend.
fn concurrent_delivery<Q: BenchQueue>(q: &Q, seed: u64, producers: u64, per: u64) -> Vec<u64> {
    use std::sync::atomic::{AtomicU64, Ordering};
    let rec = Recorder::new();
    let target = producers * per;
    let delivered = AtomicU64::new(0);
    let consumers = 2u64;
    let mut out: Vec<u64> = Vec::new();
    std::thread::scope(|s| {
        for t in 0..producers {
            let q = &q;
            let mut tr = rec.thread();
            s.spawn(move || {
                let mut h = q.register();
                let mut rng = wfq_sync::XorShift64::for_stream(seed, t);
                for k in 0..per {
                    let v = t * per + k + 1;
                    let inv = tr.invoke();
                    h.enqueue(v);
                    tr.record(OpKind::Enqueue(v), inv);
                    if rng.coin() {
                        std::thread::yield_now();
                    }
                }
            });
        }
        let collected: Vec<_> = (0..consumers)
            .map(|_| {
                let q = &q;
                let delivered = &delivered;
                let mut tr = rec.thread();
                s.spawn(move || {
                    let mut h = q.register();
                    let mut got = Vec::new();
                    // Bound recorded empty probes; dropping a None from a
                    // history only removes a constraint.
                    let mut none_budget = 32u64;
                    while delivered.load(Ordering::Relaxed) < target {
                        let inv = tr.invoke();
                        match h.dequeue() {
                            Some(v) => {
                                tr.record(OpKind::Dequeue(Some(v)), inv);
                                got.push(v);
                                delivered.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                if none_budget > 0 {
                                    none_budget -= 1;
                                    tr.record(OpKind::Dequeue(None), inv);
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        for j in collected {
            out.extend(j.join().expect("consumer panicked"));
        }
    });
    // Closing drain: anything still resident must come out here (and for
    // this workload the consumers drain everything, so it must be empty —
    // but the differential only asserts the multiset, not residency).
    let mut h = q.register();
    while let Some(v) = h.dequeue() {
        out.push(v);
    }
    let hist = rec.finish();
    assert_eq!(
        check_necessary(&hist),
        Ok(()),
        "{}: necessary conditions failed (seed {seed})",
        Q::NAME
    );
    if let CheckResult::NotLinearizable = check_linearizable(&hist, 4_000_000) {
        panic!("{}: concurrent history not linearizable (seed {seed})", Q::NAME);
    }
    out.sort_unstable();
    out
}

/// The shadow contract under concurrency: whatever interleaving each
/// backend chooses, the *multiset* of delivered values is fully
/// determined — and therefore identical across WF, SCQ and the oracle's
/// expectation.
#[test]
fn concurrent_deliveries_are_identical_across_backends() {
    for seed in 0..4 {
        let (producers, per) = (2, 16);
        let expect: Vec<u64> = (1..=producers * per).collect();
        let wf = concurrent_delivery(&RawQueue::<64>::new(), seed, producers, per);
        assert_eq!(wf, expect, "WF lost or invented values (seed {seed})");
        let scq = concurrent_delivery(&Scq::with_order(5), seed, producers, per);
        assert_eq!(scq, expect, "SCQ lost or invented values (seed {seed})");
        // The cross-backend assert is then exact equality of deliveries.
        assert!(
            wf == scq,
            "backends disagree on the delivered multiset (seed {seed})"
        );
    }
}

// ---------------------------------------------------------------------
// Fault-layer variant: perturbation must not change sequential meaning.
// ---------------------------------------------------------------------

/// The sequential differential again, under seeded fault plans: the
/// injection layer may delay and reorder *scheduling*, never values. A
/// divergence here means an injection point has a side effect.
#[cfg(feature = "fault-injection")]
#[test]
fn sequential_tape_matches_oracle_under_fault_plans() {
    use wfq_sync::fault::{self, FaultPlan};
    for seed in 0..6 {
        let ops = tape(seed, 200, 12);
        let expect = oracle(&ops);
        fault::with_plan(FaultPlan::fuzz(seed, 80), || {
            let q = Scq::with_order(5);
            assert_eq!(
                replay(&q, &ops),
                expect,
                "SCQ semantics changed under fault plan (seed {seed})"
            );
        });
        fault::with_plan(FaultPlan::fuzz(seed.wrapping_add(202), 80), || {
            let q = RawQueue::<16>::new();
            assert_eq!(
                replay(&q, &ops),
                expect,
                "WF semantics changed under fault plan (seed {seed})"
            );
        });
    }
}
