//! Latency attribution: decomposing measured op latencies by the protocol
//! path each op actually took.
//!
//! The paper's wait-freedom claim predicts a specific *shape* for the
//! latency distribution: the one-FAA fast path dominates the body, and the
//! tail is populated by help-ring episodes whose length the helping scheme
//! bounds. Throughput numbers cannot test that prediction; a single merged
//! latency histogram cannot either, because it does not say *why* a sample
//! is slow.
//!
//! The path comes from the handle's own Table 2 counters
//! ([`wfqueue::BackendHandle::stats`], counted in every build). The
//! open-loop engine reads them after each operation, outside the timed
//! window, and [`OpClass::of`] names the operation by the counters that
//! moved since the previous read ([`OpClass`]):
//!
//! - **Helped** — `enq_slow_helped` moved: a slow enqueue whose request a
//!   peer finished before any reservation of the requester's stuck.
//! - **Slow** — else `enq_slow` or `deq_slow` moved: a help-ring episode.
//!   Slow dequeues always land here, because `deq_slow` helps itself and
//!   cannot tell whether a peer finished its request first.
//! - **Fast** — else `enq_fast` or `deq_fast` moved: the one-FAA path (for
//!   dequeues this includes EMPTY results and the emptiness guard's
//!   `H > T` fast-out).
//! - Nothing moved — the operation is **unsampled**: every operation of
//!   a backend that counts nothing per handle.
//!
//! **Soundness invariant**: every sampled op lands in exactly one class,
//! so `fast + slow + helped == sampled` always — asserted by the 16-thread
//! acceptance tests in `tests/tests/openloop.rs` and checked cheaply by
//! [`Attribution::counts_are_sound`].

use crate::histogram::{fmt_ns, Histogram};
use wfqueue::QueueStats;

/// Attribution class of one sampled operation (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// One-FAA fast path.
    Fast,
    /// Help-ring episode: any slow dequeue, and a slow enqueue whose own
    /// reservation stuck.
    Slow,
    /// Slow enqueue whose request a peer finished first.
    Helped,
}

impl OpClass {
    /// Classifies the one operation a handle ran between two snapshots of
    /// its counters, `None` if it moved no path counter.
    pub fn of(before: &QueueStats, after: &QueueStats) -> Option<OpClass> {
        if after.enq_slow_helped != before.enq_slow_helped {
            Some(OpClass::Helped)
        } else if after.enq_slow != before.enq_slow || after.deq_slow != before.deq_slow {
            Some(OpClass::Slow)
        } else if after.enq_fast != before.enq_fast || after.deq_fast != before.deq_fast {
            Some(OpClass::Fast)
        } else {
            None
        }
    }

    /// Lower-case display name (JSON share keys use these).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Fast => "fast",
            OpClass::Slow => "slow",
            OpClass::Helped => "helped",
        }
    }
}

/// Per-class latency decomposition of a sampled-op population.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Latencies of fast-path ops.
    pub fast: Histogram,
    /// Latencies of requester-finished slow-path ops.
    pub slow: Histogram,
    /// Latencies of helper-assisted ops.
    pub helped: Histogram,
    /// Ops recorded, whatever their class.
    sampled: u64,
}

impl Attribution {
    /// An empty attribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sampled op: its class and its measured latency.
    pub fn record(&mut self, class: OpClass, ns: u64) {
        match class {
            OpClass::Fast => self.fast.record(ns),
            OpClass::Slow => self.slow.record(ns),
            OpClass::Helped => self.helped.record(ns),
        }
        self.sampled += 1;
    }

    /// Total sampled ops across all classes.
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// `(fast, slow, helped)` shares of the sampled population, each in
    /// `[0, 1]` and summing to 1 (all zero when nothing was sampled).
    pub fn shares(&self) -> (f64, f64, f64) {
        let total = self.sampled();
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = total as f64;
        (
            self.fast.count() as f64 / t,
            self.slow.count() as f64 / t,
            self.helped.count() as f64 / t,
        )
    }

    /// The soundness invariant: the per-class counts partition the
    /// sampled population. `true` means every sampled op is in exactly one
    /// class.
    pub fn counts_are_sound(&self) -> bool {
        self.fast.count() + self.slow.count() + self.helped.count() == self.sampled
    }

    /// Merges another attribution into this one.
    pub fn merge(&mut self, other: &Attribution) {
        self.fast.merge(&other.fast);
        self.slow.merge(&other.slow);
        self.helped.merge(&other.helped);
        self.sampled += other.sampled;
    }

    /// Human-readable share/latency table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let (f, s, h) = self.shares();
        let _ = writeln!(
            out,
            "attribution over {} sampled ops (fast {:.2}% / slow {:.2}% / helped {:.2}%)",
            self.sampled(),
            f * 100.0,
            s * 100.0,
            h * 100.0
        );
        for (name, hist) in [("fast", &self.fast), ("slow", &self.slow), ("helped", &self.helped)] {
            if hist.count() > 0 {
                let _ = writeln!(
                    out,
                    "  {name:<6} n={:<9} p50 {}  p99 {}  max {}",
                    hist.count(),
                    fmt_ns(hist.quantile(0.50)),
                    fmt_ns(hist.quantile(0.99)),
                    fmt_ns(hist.max())
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_path_counter_names_its_class() {
        let before = QueueStats {
            enq_fast: 3,
            enq_slow: 2,
            deq_fast: 5,
            deq_slow: 1,
            enq_slow_helped: 1,
            ..QueueStats::default()
        };
        let moved = |f: fn(&mut QueueStats)| {
            let mut after = before;
            f(&mut after);
            OpClass::of(&before, &after)
        };
        assert_eq!(moved(|s| s.enq_fast += 1), Some(OpClass::Fast));
        assert_eq!(moved(|s| s.deq_fast += 1), Some(OpClass::Fast));
        // An EMPTY dequeue completes on the fast path.
        assert_eq!(
            moved(|s| {
                s.deq_fast += 1;
                s.deq_empty += 1
            }),
            Some(OpClass::Fast)
        );
        assert_eq!(moved(|s| s.enq_slow += 1), Some(OpClass::Slow));
        assert_eq!(moved(|s| s.deq_slow += 1), Some(OpClass::Slow));
        // A peer-finished slow enqueue moves both slow counters.
        assert_eq!(
            moved(|s| {
                s.enq_slow += 1;
                s.enq_slow_helped += 1
            }),
            Some(OpClass::Helped)
        );
        // A rejected `try_enqueue` moves no path counter.
        assert_eq!(moved(|s| s.enq_rejected += 1), None);
        assert_eq!(moved(|_| ()), None);
    }

    #[test]
    fn every_sample_lands_in_exactly_one_class() {
        let mut a = Attribution::new();
        a.record(OpClass::Fast, 50);
        a.record(OpClass::Fast, 60);
        a.record(OpClass::Slow, 900);
        a.record(OpClass::Slow, 1_000);
        a.record(OpClass::Helped, 1_100);
        assert_eq!(a.sampled(), 5);
        assert_eq!(a.fast.count(), 2);
        assert_eq!(a.slow.count(), 2);
        assert_eq!(a.helped.count(), 1);
        assert!(a.counts_are_sound());
        let (f, s, h) = a.shares();
        assert!((f + s + h - 1.0).abs() < 1e-12, "shares must sum to 1");
    }

    #[test]
    fn empty_attribution_has_zero_shares() {
        let a = Attribution::new();
        assert_eq!(a.sampled(), 0);
        assert_eq!(a.shares(), (0.0, 0.0, 0.0));
        assert!(a.counts_are_sound());
    }

    #[test]
    fn merge_preserves_totals_and_soundness() {
        let mut a = Attribution::new();
        let mut b = Attribution::new();
        a.record(OpClass::Fast, 10);
        a.record(OpClass::Slow, 500);
        b.record(OpClass::Slow, 700);
        b.record(OpClass::Helped, 800);
        a.merge(&b);
        assert_eq!(a.sampled(), 4);
        assert_eq!(a.slow.count(), 2);
        assert!(a.counts_are_sound());
    }

    #[test]
    fn render_mentions_all_classes() {
        let mut a = Attribution::new();
        a.record(OpClass::Fast, 100);
        a.record(OpClass::Helped, 900);
        let r = a.render();
        assert!(r.contains("fast"), "{r}");
        assert!(r.contains("helped"), "{r}");
        assert_eq!(OpClass::Fast.name(), "fast");
    }
}
