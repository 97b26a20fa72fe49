//! The checker against the bounded-ring backend (DESIGN.md §11): a clean
//! SCQ execution — including histories that wrap the ring's cycle several
//! times — must certify, and a ring with a *skipped-cycle* dequeue bug
//! (the dequeuer consumes a slot one position ahead of head, as if the
//! entry's cycle tag were never compared) must be convicted by the
//! Wing–Gong search. The negative control proves the certification of the
//! real ring is not vacuous.

use std::sync::Mutex;

use wfq_baselines::scq::ScqRing;
use wfq_baselines::{BenchQueue, QueueHandle, Scq};
use wfq_checker::{check_linearizable, check_necessary, History, OpKind, Recorder};

/// Records `threads` workers doing `ops_per_thread` coin-flip operations
/// each on a fresh `Q` (same shape as the repo-wide certification suite).
fn record<Q: BenchQueue>(threads: usize, ops_per_thread: usize, seed: u64) -> History {
    let q = Q::new();
    let rec = Recorder::new();
    std::thread::scope(|s| {
        for t in 0..threads {
            let q = &q;
            let mut tr = rec.thread();
            s.spawn(move || {
                let mut h = q.register();
                let mut rng = wfq_sync::XorShift64::for_stream(seed, t as u64);
                let tag = ((t as u64 + 1) << 32) | 1;
                let mut counter = 0;
                for _ in 0..ops_per_thread {
                    if rng.coin() {
                        counter += 1;
                        let i = tr.invoke();
                        h.enqueue(tag + counter);
                        tr.record(OpKind::Enqueue(tag + counter), i);
                    } else {
                        let i = tr.invoke();
                        let r = h.dequeue();
                        tr.record(OpKind::Dequeue(r), i);
                    }
                }
            });
        }
    });
    rec.finish()
}

#[test]
fn clean_scq_histories_certify() {
    for seed in 0..6 {
        let h = record::<Scq>(3, 14, seed);
        assert_eq!(check_necessary(&h), Ok(()), "SCQ seed {seed}");
        assert!(
            check_linearizable(&h, 2_000_000).is_ok(),
            "SCQ seed {seed}: {h:?}"
        );
    }
}

#[test]
fn scq_ring_history_across_cycle_wraps_certifies() {
    // The raw index ring, driven far enough that every entry's cycle tag
    // wraps several times; the recorded (sequential, hence unambiguous)
    // history must still be FIFO. Catches cycle-comparison bugs that only
    // manifest after wraparound.
    let r = ScqRing::new(3, 0); // capacity 8, 16 entries
    let rec = Recorder::new();
    let mut tr = rec.thread();
    // 8 rounds × 12 ops stays inside the exhaustive checker's practical
    // window (~100 ops) while still lapping the 16-entry ring three times.
    let mut next = 0u64;
    for _round in 0..8 {
        for _ in 0..6 {
            let i = tr.invoke();
            r.enqueue(next % 8); // ring indices are 0..capacity
            tr.record(OpKind::Enqueue(1 + (next % 8)), i);
            next += 1;
        }
        for _ in 0..6 {
            let i = tr.invoke();
            let got = r.dequeue().map(|x| 1 + x);
            tr.record(OpKind::Dequeue(got), i);
        }
    }
    drop(tr);
    let h = rec.finish();
    // Ring indices repeat, so value-uniqueness-based necessary checks do
    // not apply — but the complete search must accept the history once
    // values are disambiguated per occurrence. Disambiguate: tag each
    // enqueue/dequeue pair by occurrence count of its index.
    let h = disambiguate(h);
    assert_eq!(check_necessary(&h), Ok(()), "{h:?}");
    let res = check_linearizable(&h, 4_000_000);
    assert!(res.is_ok(), "wrap history rejected: {res:?}");
}

/// Rewrites repeated values `v` into unique `(occurrence << 8) | v` codes,
/// matching enqueue and dequeue occurrences in FIFO order per value — the
/// checker requires unique values, the ring recycles its 8 indices.
fn disambiguate(h: History) -> History {
    use std::collections::HashMap;
    let mut ops = h.ops;
    ops.sort_by_key(|o| o.invoke);
    let mut enq_seen: HashMap<u64, u64> = HashMap::new();
    let mut deq_seen: HashMap<u64, u64> = HashMap::new();
    for o in ops.iter_mut() {
        match o.kind {
            OpKind::Enqueue(v) => {
                let n = enq_seen.entry(v).or_insert(0);
                o.kind = OpKind::Enqueue((*n << 8) | v);
                *n += 1;
            }
            OpKind::Dequeue(Some(v)) => {
                let n = deq_seen.entry(v).or_insert(0);
                o.kind = OpKind::Dequeue(Some((*n << 8) | v));
                *n += 1;
            }
            OpKind::Dequeue(None) => {}
        }
    }
    History::from_ops(ops)
}

// ---------------------------------------------------------------------
// Negative control: the skipped-cycle ring.
// ---------------------------------------------------------------------

/// A queue modelling an SCQ ring whose dequeuer fails to compare the
/// entry's cycle tag: when at least two values are resident it consumes
/// the slot *after* head first (the next cycle's entry), delivering values
/// one position out of order — exactly the observable effect of a
/// skipped-cycle consume. Deterministic: every third dequeue skips.
struct SkippedCycleRing {
    inner: Mutex<(Vec<u64>, u64)>, // (resident values, dequeue count)
}

struct SkippedHandle<'q>(&'q SkippedCycleRing);

impl QueueHandle for SkippedHandle<'_> {
    fn enqueue(&mut self, v: u64) {
        self.0.inner.lock().unwrap().0.push(v);
    }
    fn dequeue(&mut self) -> Option<u64> {
        let mut g = self.0.inner.lock().unwrap();
        let (ref mut vals, ref mut count) = *g;
        if vals.is_empty() {
            return None;
        }
        *count += 1;
        if *count % 3 == 0 && vals.len() >= 2 {
            Some(vals.remove(1)) // the bug: consumes one slot ahead of head
        } else {
            Some(vals.remove(0))
        }
    }
}

impl BenchQueue for SkippedCycleRing {
    type Handle<'q> = SkippedHandle<'q>;
    const NAME: &'static str = "SKIPPED-CYCLE";
    fn new() -> Self {
        SkippedCycleRing {
            inner: Mutex::new((Vec::new(), 0)),
        }
    }
    fn register(&self) -> Self::Handle<'_> {
        SkippedHandle(self)
    }
}

#[test]
fn wing_gong_convicts_a_skipped_cycle_ring_sequentially() {
    // Single thread, deterministic: enqueue 1,2,3,4 then drain. The third
    // dequeue skips, so the drain reads 1,2,4,3 — a sequential history
    // with exactly one candidate linearization, which is not FIFO. Both
    // checkers must reject; no luck involved.
    let q = SkippedCycleRing::new();
    let rec = Recorder::new();
    let mut tr = rec.thread();
    let mut h = q.register();
    for v in 1..=4u64 {
        let i = tr.invoke();
        h.enqueue(v);
        tr.record(OpKind::Enqueue(v), i);
    }
    let mut drained = Vec::new();
    for _ in 0..4 {
        let i = tr.invoke();
        let r = h.dequeue();
        drained.push(r);
        tr.record(OpKind::Dequeue(r), i);
    }
    assert_eq!(
        drained,
        vec![Some(1), Some(2), Some(4), Some(3)],
        "the negative control's bug did not fire as designed"
    );
    drop(tr);
    let hist = rec.finish();
    assert!(
        check_necessary(&hist).is_err(),
        "necessary conditions missed a sequential FIFO violation: {hist:?}"
    );
    assert!(
        !check_linearizable(&hist, 2_000_000).is_ok(),
        "Wing–Gong accepted a non-FIFO sequential history: {hist:?}"
    );
}

#[test]
fn wing_gong_convicts_a_skipped_cycle_ring_concurrently() {
    // Concurrent flavour: overlap can excuse some reorderings, but across
    // seeds the skip must surface as a certified violation at least once.
    let mut caught = false;
    for seed in 0..20 {
        let h = record::<SkippedCycleRing>(3, 14, seed);
        if check_necessary(&h).is_err() || !check_linearizable(&h, 2_000_000).is_ok() {
            caught = true;
            break;
        }
    }
    assert!(caught, "skipped-cycle ring evaded 20 rounds of checking");
}
