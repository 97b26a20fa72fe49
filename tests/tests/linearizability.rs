//! Linearizability certification of every queue in the repository, using
//! the sound-and-complete checker on many small recorded histories — plus
//! a deliberately broken queue as a negative control proving the checker
//! has teeth.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use wfq_baselines::{
    BenchQueue, CcQueue, KpQueue, Lcrq, MsQueue, MutexQueue, QueueHandle, Scq, Wf0,
};
use wfq_checker::{check_linearizable, check_necessary, History, OpKind, Recorder};
use wfqueue::RawQueue;

/// Records a small concurrent run: `threads` workers, `ops_per_thread`
/// mixed operations each, values unique per thread.
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
                        let v = tag + counter;
                        let i = tr.invoke();
                        h.enqueue(v);
                        tr.record(OpKind::Enqueue(v), i);
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

fn certify<Q: BenchQueue>() {
    // Many short rounds beat one long round: each round's full state space
    // is searchable, and rounds vary the interleaving via the seed.
    for seed in 0..12 {
        let h = record::<Q>(3, 14, seed);
        assert_eq!(
            check_necessary(&h),
            Ok(()),
            "{}: necessary conditions failed (seed {seed})",
            Q::NAME
        );
        let res = check_linearizable(&h, 2_000_000);
        assert!(
            res.is_ok(),
            "{}: not linearizable (seed {seed}): {res:?}\nhistory: {h:?}",
            Q::NAME
        );
    }
}

#[test]
fn wf10_is_linearizable() {
    certify::<RawQueue>();
}

#[test]
fn wf0_is_linearizable() {
    certify::<Wf0>();
}

#[test]
fn msqueue_is_linearizable() {
    certify::<MsQueue>();
}

#[test]
fn lcrq_is_linearizable() {
    certify::<Lcrq>();
}

#[test]
fn ccqueue_is_linearizable() {
    certify::<CcQueue>();
}

#[test]
fn kpqueue_is_linearizable() {
    certify::<KpQueue>();
}

#[test]
fn mutex_queue_is_linearizable() {
    certify::<MutexQueue>();
}

#[test]
fn scq_is_linearizable() {
    certify::<Scq>();
}

// ---------------------------------------------------------------------
// Negative control: a queue with a real linearizability bug (dequeue
// takes the *newest* element under contention 25% of the time) must be
// caught by the checker.
// ---------------------------------------------------------------------

struct BrokenQueue {
    inner: Mutex<Vec<u64>>,
    flips: AtomicU64,
}

struct BrokenHandle<'q>(&'q BrokenQueue);

impl QueueHandle for BrokenHandle<'_> {
    fn enqueue(&mut self, v: u64) {
        self.0.inner.lock().unwrap().push(v);
    }
    fn dequeue(&mut self) -> Option<u64> {
        let mut g = self.0.inner.lock().unwrap();
        if g.is_empty() {
            return None;
        }
        let n = self.0.flips.fetch_add(1, Ordering::Relaxed);
        if n % 4 == 3 {
            g.pop() // LIFO behaviour: the bug
        } else {
            Some(g.remove(0))
        }
    }
}

impl BenchQueue for BrokenQueue {
    type Handle<'q> = BrokenHandle<'q>;
    const NAME: &'static str = "BROKEN";
    fn new() -> Self {
        BrokenQueue {
            inner: Mutex::new(Vec::new()),
            flips: AtomicU64::new(0),
        }
    }
    fn register(&self) -> Self::Handle<'_> {
        BrokenHandle(self)
    }
}

#[test]
fn checker_catches_a_broken_queue() {
    let mut caught = false;
    for seed in 0..20 {
        let h = record::<BrokenQueue>(3, 14, seed);
        let necessary_bad = check_necessary(&h).is_err();
        let search_bad = !check_linearizable(&h, 2_000_000).is_ok();
        if necessary_bad || search_bad {
            caught = true;
            break;
        }
    }
    assert!(caught, "a 25%-LIFO queue evaded 20 rounds of checking");
}

#[test]
fn checkers_agree_on_recorded_histories() {
    // Whenever the necessary-condition checker flags a history, the
    // exhaustive checker must reject it too (soundness cross-check).
    for seed in 0..10 {
        let h = record::<BrokenQueue>(2, 10, 100 + seed);
        if check_necessary(&h).is_err() {
            assert!(
                !check_linearizable(&h, 2_000_000).is_ok(),
                "necessary-condition false positive on seed {seed}: {h:?}"
            );
        }
    }
}
