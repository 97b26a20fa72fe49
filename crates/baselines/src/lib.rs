//! Baseline concurrent queues from the paper's evaluation (§2, §5).
//!
//! The paper compares its wait-free queue against the strongest
//! representatives of each design school, all implemented here from their
//! original papers:
//!
//! | Module | Algorithm | Progress | Hot-spot primitive |
//! |---|---|---|---|
//! | [`msqueue`] | Michael & Scott 1996 (hazard pointers) | lock-free | CAS (retry loops) |
//! | [`msqueue_ebr`] | Michael & Scott 1996 (epoch reclamation) | lock-free | CAS (retry loops) |
//! | [`kpqueue`] | Kogan & Petrank 2011 | wait-free | CAS + phase-ordered helping |
//! | [`lcrq`] | Morrison & Afek 2013 (CRQ ring + list) | lock-free | FAA + CAS2 |
//! | [`ccqueue`] | Fatourou & Kallimanis 2012 (CC-Synch) | blocking | SWAP + combining |
//! | [`faa`] | FAA-only microbenchmark | wait-free* | FAA |
//! | [`mutex_queue`] | `Mutex<VecDeque>` reference | blocking | lock |
//! | [`scq`] | Nikolaev 2019 (SCQ indirect ring) | lock-free | FAA + CAS |
//!
//! (*the FAA microbenchmark is not a queue — it upper-bounds every
//! FAA-based queue's throughput; §5 "simulates enqueue and dequeue
//! operations with FAA primitives on two shared variables".)
//!
//! MS-Queue and LCRQ are retrofitted with hazard-pointer reclamation
//! exactly as the paper does ("To LCRQ and MS-Queue, we added
//! implementations of the hazard pointer scheme to reclaim memory").
//!
//! All queues implement [`BenchQueue`], the uniform harness interface, and
//! carry the same value restriction as the raw wait-free queue: values in
//! `1 ..= u64::MAX - 2` (sentinel patterns reserved).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod ccqueue;
pub mod crq;
pub mod faa;
pub mod kpqueue;
pub mod lcrq;
pub mod msqueue;
pub mod msqueue_ebr;
pub mod mutex_queue;
pub mod scq;

pub use ccqueue::CcQueue;
pub use faa::FaaBench;
pub use kpqueue::KpQueue;
pub use lcrq::Lcrq;
pub use msqueue::MsQueue;
pub use msqueue_ebr::MsQueueEbr;
pub use mutex_queue::MutexQueue;
pub use scq::Scq;

// The uniform queue interface graduated to `wfqueue` as the production
// `QueueBackend` API (so the wait-free queue's own impl can live next to
// the queue, and non-bench consumers don't pull this crate in). The
// historical `BenchQueue`/`QueueHandle` names stay as aliases: every
// existing impl and import keeps working.
pub use wfqueue::{BackendHandle, QueueBackend};
pub use wfqueue::{BackendHandle as QueueHandle, QueueBackend as BenchQueue};

mod wf_impl {
    use super::BenchQueue;
    use wfqueue::{Config, Gauges, Handle, QueueStats, RawQueue};

    /// Newtype selecting the paper's WF-0 configuration (patience 0).
    pub struct Wf0(pub RawQueue);

    impl BenchQueue for Wf0 {
        type Handle<'q> = Handle<'q>;
        const NAME: &'static str = "WF-0";
        const HONORS_CEILING: bool = true;
        fn new() -> Self {
            Wf0(RawQueue::with_config(Config::wf0()))
        }
        fn with_ceiling(ceiling: Option<u64>) -> Self {
            let mut config = Config::wf0();
            if let Some(c) = ceiling {
                config = config.with_segment_ceiling(c);
            }
            Wf0(RawQueue::with_config(config))
        }
        fn register(&self) -> Self::Handle<'_> {
            self.0.register()
        }
        fn stats(&self) -> QueueStats {
            self.0.stats()
        }
        fn gauges(&self) -> Option<Gauges> {
            Some(self.0.gauges())
        }
        fn reclaim_hint(&self) -> bool {
            true
        }
    }
}

pub use wf_impl::Wf0;

#[cfg(test)]
mod wf_conformance {
    use super::*;

    #[test]
    fn wf10_batch_roundtrip_native() {
        conformance::batch_roundtrip::<wfqueue::RawQueue>();
    }

    #[test]
    fn wf0_batch_roundtrip_native() {
        conformance::batch_roundtrip::<Wf0>();
    }
}

/// Named fault-injection points compiled into the baselines (see
/// [`wfqueue::FAULT_POINTS`] for the naming convention). These cover the
/// hazard-pointer unlink/retire windows of the reference queues so the
/// schedule fuzzer can stress the baselines with the same machinery.
pub const FAULT_POINTS: &[&str] = &[
    "lcrq::enq::tail_protected",
    "lcrq::enq::ring_closed",
    "lcrq::deq::pre_unlink",
    "msq::enq::tail_protected",
    "msq::deq::next_protected",
    "msq::deq::pre_unlink",
    "scq::enq::pre_cas",
    "scq::enq::threshold_reset",
    "scq::deq::pre_consume",
    "scq::deq::slot_advance",
    "scq::deq::threshold_decrement",
    "scq::deq::catchup",
];

/// Shared conformance tests: every [`BenchQueue`] must pass these.
#[cfg(test)]
pub(crate) mod conformance {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    pub fn fifo_single_thread<Q: BenchQueue>() {
        let q = Q::new();
        let mut h = q.register();
        for v in 1..=500 {
            h.enqueue(v);
        }
        for v in 1..=500 {
            assert_eq!(h.dequeue(), Some(v), "{} broke FIFO", Q::NAME);
        }
        assert_eq!(h.dequeue(), None, "{} not empty at end", Q::NAME);
    }

    pub fn interleaved_single_thread<Q: BenchQueue>() {
        let q = Q::new();
        let mut h = q.register();
        assert_eq!(h.dequeue(), None);
        h.enqueue(1);
        h.enqueue(2);
        assert_eq!(h.dequeue(), Some(1));
        h.enqueue(3);
        assert_eq!(h.dequeue(), Some(2));
        assert_eq!(h.dequeue(), Some(3));
        assert_eq!(h.dequeue(), None);
    }

    pub fn batch_roundtrip<Q: BenchQueue>() {
        // Exercises the batch entry points every handle exposes (native
        // one-FAA batches on the wait-free queue, the loop fallback
        // elsewhere): FIFO across mixed widths, and a trimmed final batch.
        let q = Q::new();
        let mut h = q.register();
        let vals: Vec<u64> = (1..=100).collect();
        for chunk in vals.chunks(7) {
            h.enqueue_batch(chunk);
        }
        let mut out = Vec::new();
        let mut got = 0;
        while got < 100 {
            let n = h.dequeue_batch(&mut out, 9);
            assert!(n > 0, "{} went empty early at {got}", Q::NAME);
            got += n;
        }
        assert_eq!(out, vals, "{} broke batch FIFO", Q::NAME);
        assert_eq!(h.dequeue_batch(&mut out, 4), 0, "{} not empty", Q::NAME);
    }

    pub fn mpmc_conservation<Q: BenchQueue>(producers: u64, consumers: u64, per: u64) {
        let q = Q::new();
        let sum = AtomicU64::new(0);
        let count = AtomicU64::new(0);
        let total = producers * per;
        std::thread::scope(|s| {
            for t in 0..producers {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register();
                    for v in 0..per {
                        h.enqueue(t * per + v + 1);
                    }
                });
            }
            for _ in 0..consumers {
                let q = &q;
                let sum = &sum;
                let count = &count;
                s.spawn(move || {
                    let mut h = q.register();
                    loop {
                        if count.load(Ordering::Relaxed) >= total {
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
        assert_eq!(count.load(Ordering::Relaxed), total, "{} lost values", Q::NAME);
        let expect: u64 = (1..=total).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expect, "{} corrupted values", Q::NAME);
    }
}
