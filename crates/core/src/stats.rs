//! Execution-path statistics.
//!
//! The paper's Table 2 breaks operations down by the path that completed
//! them (fast vs. slow, and dequeues that returned EMPTY). Each handle
//! maintains relaxed per-owner counters; [`QueueStats`] is the aggregate
//! snapshot over every handle ever registered. The counters are plain
//! relaxed increments on memory the owning thread already has exclusive
//! cache access to, so they do not perturb the contention behaviour being
//! measured.

use core::fmt;
use core::sync::atomic::{AtomicU64, Ordering};

/// Per-handle relaxed counters (owner-written, snapshot-read).
#[derive(Debug, Default)]
pub(crate) struct HandleStats {
    pub enq_fast: AtomicU64,
    pub enq_slow: AtomicU64,
    pub deq_fast: AtomicU64,
    pub deq_slow: AtomicU64,
    pub deq_empty: AtomicU64,
    pub help_enq: AtomicU64,
    pub help_deq: AtomicU64,
    pub cleanups: AtomicU64,
    pub segs_alloc: AtomicU64,
    pub segs_freed: AtomicU64,
    // Protocol-branch coverage (rare windows; see QueueStats field docs).
    pub enq_slow_helped: AtomicU64,
    pub help_enq_commit: AtomicU64,
    pub help_enq_seal: AtomicU64,
    pub deq_slow_empty: AtomicU64,
    pub help_deq_announce: AtomicU64,
    pub help_deq_complete: AtomicU64,
    pub reclaim_conceded: AtomicU64,
    pub reclaim_backward_clamp: AtomicU64,
    pub reclaim_noop: AtomicU64,
}

impl HandleStats {
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        Self::add(counter, 1);
    }

    /// Owner-only relaxed increment: a plain load + store pair instead of a
    /// `lock`-prefixed RMW. Sound because every `HandleStats` counter has
    /// exactly one writer — the thread that owns the handle (helpers and
    /// the elected cleaner bump their *own* handle's counters, never a
    /// peer's), and handle ownership transfers only through registration,
    /// which synchronizes. Snapshot readers race only with the relaxed
    /// store, which is fine for monotone counters. On x86 this turns the
    /// fast path's stats update from a serializing `lock inc` (~20 cycles)
    /// into two ordinary cache-hit accesses.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        let cur = counter.load(Ordering::Relaxed);
        counter.store(cur.wrapping_add(n), Ordering::Relaxed);
    }
}

/// Aggregated queue statistics — the data behind the paper's Table 2.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Enqueues completed on the fast path.
    pub enq_fast: u64,
    /// Enqueues that fell back to the wait-free slow path.
    pub enq_slow: u64,
    /// Dequeues completed on the fast path (value or EMPTY on first tries,
    /// counting the emptiness guard's fast-outs, which take no FAA).
    pub deq_fast: u64,
    /// Dequeues that fell back to the wait-free slow path.
    pub deq_slow: u64,
    /// Dequeues that returned EMPTY: a probe that witnessed it, or a
    /// fast-out of the emptiness guard, which a handle consults after its
    /// own EMPTY and which finds `H > T` (DESIGN.md §9).
    pub deq_empty: u64,
    /// Calls that helped a peer's enqueue request toward completion.
    pub help_enq: u64,
    /// Calls that helped a peer's dequeue request toward completion.
    pub help_deq: u64,
    /// Reclamation passes executed (elected cleaner only).
    pub cleanups: u64,
    /// Segments allocated and successfully published.
    pub segs_alloc: u64,
    /// Segments reclaimed by cleanup.
    pub segs_freed: u64,
    /// Slow-path enqueues completed *by a helper* (the request left the
    /// pending state without this thread's own claim landing) — the
    /// Kogan–Petrank helping scheme actually finishing someone's work.
    pub enq_slow_helped: u64,
    /// `help_enq` calls that committed a peer's value into a cell
    /// (Listing 3 lines 123–126, the lost-reservation completion race).
    pub help_enq_commit: u64,
    /// Cells sealed with ⊤e because no enqueue request could use them
    /// (Listing 3 lines 109–111).
    pub help_enq_seal: u64,
    /// Slow-path dequeues that returned EMPTY (the announced cell
    /// witnessed `T ≤ i` — Listing 4's rarest exit).
    pub deq_slow_empty: u64,
    /// Candidate cells announced into a dequeue request by `help_deq`
    /// (Listing 4 lines 181–185 CAS won).
    pub help_deq_announce: u64,
    /// Dequeue requests completed by `help_deq`'s final state transition
    /// (Listing 4 line 196 CAS won).
    pub help_deq_complete: u64,
    /// Reclamation boundary concessions: `update` lost its pointer CAS to
    /// the owner and lowered the boundary (Listing 5 lines 242–245).
    pub reclaim_conceded: u64,
    /// Backward-pass hazard clamps: the reverse re-verification scan
    /// caught a hazard "backward jump" behind the forward pass and
    /// lowered the boundary (Listing 5 line 235 — the subtlest window in
    /// the reclaimer).
    pub reclaim_backward_clamp: u64,
    /// Elected cleanups that found nothing reclaimable after scanning and
    /// restored `I` unchanged (the paper's erratum path, line 236).
    pub reclaim_noop: u64,
    /// `try_enqueue` calls a fixed-capacity backend (the SCQ ring)
    /// rejected with [`Full`](crate::Full). Always 0 for the wait-free
    /// queue, whose enqueue always succeeds.
    pub enq_rejected: u64,
}

impl QueueStats {
    pub(crate) fn absorb(&mut self, h: &HandleStats) {
        self.enq_fast += h.enq_fast.load(Ordering::Relaxed);
        self.enq_slow += h.enq_slow.load(Ordering::Relaxed);
        self.deq_fast += h.deq_fast.load(Ordering::Relaxed);
        self.deq_slow += h.deq_slow.load(Ordering::Relaxed);
        self.deq_empty += h.deq_empty.load(Ordering::Relaxed);
        self.help_enq += h.help_enq.load(Ordering::Relaxed);
        self.help_deq += h.help_deq.load(Ordering::Relaxed);
        self.cleanups += h.cleanups.load(Ordering::Relaxed);
        self.segs_alloc += h.segs_alloc.load(Ordering::Relaxed);
        self.segs_freed += h.segs_freed.load(Ordering::Relaxed);
        self.enq_slow_helped += h.enq_slow_helped.load(Ordering::Relaxed);
        self.help_enq_commit += h.help_enq_commit.load(Ordering::Relaxed);
        self.help_enq_seal += h.help_enq_seal.load(Ordering::Relaxed);
        self.deq_slow_empty += h.deq_slow_empty.load(Ordering::Relaxed);
        self.help_deq_announce += h.help_deq_announce.load(Ordering::Relaxed);
        self.help_deq_complete += h.help_deq_complete.load(Ordering::Relaxed);
        self.reclaim_conceded += h.reclaim_conceded.load(Ordering::Relaxed);
        self.reclaim_backward_clamp += h.reclaim_backward_clamp.load(Ordering::Relaxed);
        self.reclaim_noop += h.reclaim_noop.load(Ordering::Relaxed);
    }

    /// Visits every counter as a `(field_name, value)` pair, in declaration
    /// order. The single canonical enumeration: the Prometheus exposition
    /// in `wfq-harness` derives its metric list from this, so a counter
    /// added here (and to `absorb`) can never be missing
    /// from the exposition again.
    pub fn for_each_counter(&self, mut f: impl FnMut(&'static str, u64)) {
        f("enq_fast", self.enq_fast);
        f("enq_slow", self.enq_slow);
        f("deq_fast", self.deq_fast);
        f("deq_slow", self.deq_slow);
        f("deq_empty", self.deq_empty);
        f("help_enq", self.help_enq);
        f("help_deq", self.help_deq);
        f("cleanups", self.cleanups);
        f("segs_alloc", self.segs_alloc);
        f("segs_freed", self.segs_freed);
        f("enq_slow_helped", self.enq_slow_helped);
        f("help_enq_commit", self.help_enq_commit);
        f("help_enq_seal", self.help_enq_seal);
        f("deq_slow_empty", self.deq_slow_empty);
        f("help_deq_announce", self.help_deq_announce);
        f("help_deq_complete", self.help_deq_complete);
        f("reclaim_conceded", self.reclaim_conceded);
        f("reclaim_backward_clamp", self.reclaim_backward_clamp);
        f("reclaim_noop", self.reclaim_noop);
        f("enq_rejected", self.enq_rejected);
    }

    /// Total completed enqueues.
    pub fn enqueues(&self) -> u64 {
        self.enq_fast + self.enq_slow
    }

    /// Total completed dequeues (including EMPTY returns).
    pub fn dequeues(&self) -> u64 {
        self.deq_fast + self.deq_slow
    }

    /// Percentage of enqueues that used the slow path (Table 2, row 1).
    pub fn pct_slow_enq(&self) -> f64 {
        pct(self.enq_slow, self.enqueues())
    }

    /// Percentage of dequeues that used the slow path (Table 2, row 2).
    pub fn pct_slow_deq(&self) -> f64 {
        pct(self.deq_slow, self.dequeues())
    }

    /// Percentage of dequeues that returned EMPTY (Table 2, row 3).
    pub fn pct_empty_deq(&self) -> f64 {
        pct(self.deq_empty, self.dequeues())
    }

    /// Segments currently un-reclaimed (allocated minus freed; the initial
    /// segment is not counted as allocated).
    pub fn live_segments(&self) -> i64 {
        self.segs_alloc as i64 - self.segs_freed as i64
    }
}

/// Renders the stats in the paper's Table 2 layout: one aligned row per
/// operation kind with the fast/slow split and the percentages the paper
/// reports, followed by the helping and reclamation breakdowns.
impl fmt::Display for QueueStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<10} {:>12} {:>12} {:>12} {:>8}",
            "op", "total", "fast", "slow", "% slow"
        )?;
        writeln!(
            f,
            "{:<10} {:>12} {:>12} {:>12} {:>7.3}%",
            "enqueue",
            self.enqueues(),
            self.enq_fast,
            self.enq_slow,
            self.pct_slow_enq()
        )?;
        writeln!(
            f,
            "{:<10} {:>12} {:>12} {:>12} {:>7.3}%",
            "dequeue",
            self.dequeues(),
            self.deq_fast,
            self.deq_slow,
            self.pct_slow_deq()
        )?;
        writeln!(
            f,
            "{:<10} {:>12} (empty: {:.3}% of dequeues; {} via slow path)",
            "empty", self.deq_empty, self.pct_empty_deq(), self.deq_slow_empty
        )?;
        writeln!(
            f,
            "{:<10} enq {} (commit {}, seal {}, peer-finished {})",
            "helping",
            self.help_enq,
            self.help_enq_commit,
            self.help_enq_seal,
            self.enq_slow_helped
        )?;
        writeln!(
            f,
            "{:<10} deq {} (announce {}, complete {})",
            "", self.help_deq, self.help_deq_announce, self.help_deq_complete
        )?;
        writeln!(
            f,
            "{:<10} cleanups {} (noop {}, conceded {}, backward-clamp {})",
            "reclaim",
            self.cleanups,
            self.reclaim_noop,
            self.reclaim_conceded,
            self.reclaim_backward_clamp
        )?;
        write!(
            f,
            "{:<10} alloc {} freed {} (live {})",
            "segments", self.segs_alloc, self.segs_freed, self.live_segments()
        )?;
        // A rejection line only for a backend that rejected, so the
        // wait-free queue keeps the exact Table-2 layout.
        if self.enq_rejected > 0 {
            write!(f, "\n{:<10} {}", "rejected", self.enq_rejected)?;
        }
        Ok(())
    }
}

/// Instantaneous queue gauges — point-in-time readings, as opposed to the
/// monotone counters in [`QueueStats`]. Snapshot via
/// [`RawQueue::gauges`](crate::RawQueue::gauges); exposed by the harness as
/// Prometheus gauge metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Gauges {
    /// Head index `H` (dequeue FAA counter).
    pub head_index: u64,
    /// Tail index `T` (enqueue FAA counter).
    pub tail_index: u64,
    /// Oldest live segment id `I`, or −1 while a cleaner holds the token.
    pub oldest_segment_id: i64,
    /// Segments currently in the list (computed from the counters; includes
    /// the initial segment).
    pub live_segments: u64,
    /// Smallest published hazard id across all handles, if any operation is
    /// in flight.
    pub min_hazard: Option<u64>,
    /// How many segments the laggiest published hazard pins behind the
    /// dequeue frontier: `H/N − min_hazard` (0 when idle). A persistently
    /// large value means reclamation is being held back.
    pub hazard_lag_segments: u64,
    /// Handles currently owned by live [`Handle`](crate::Handle)s.
    pub active_handles: u64,
    /// Registered handle ring slots (active or parked).
    pub total_handles: u64,
    /// Enqueue helping records currently pending (slow-path enqueues in
    /// flight — the occupancy of the helping-request "ring slots").
    pub pending_enq_reqs: u64,
    /// Dequeue helping records currently pending.
    pub pending_deq_reqs: u64,
}

impl Gauges {
    /// Helping-record occupancy as a fraction of registered handles
    /// (each handle owns one enqueue and one dequeue request slot).
    pub fn help_ring_occupancy(&self) -> f64 {
        if self.total_handles == 0 {
            0.0
        } else {
            (self.pending_enq_reqs + self.pending_deq_reqs) as f64
                / (2 * self.total_handles) as f64
        }
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let h = HandleStats::default();
        h.enq_fast.store(10, Ordering::Relaxed);
        h.enq_slow.store(2, Ordering::Relaxed);
        h.deq_fast.store(8, Ordering::Relaxed);
        h.deq_slow.store(4, Ordering::Relaxed);
        h.deq_empty.store(1, Ordering::Relaxed);
        let mut s = QueueStats::default();
        s.absorb(&h);
        s.absorb(&h);
        assert_eq!(s.enqueues(), 24);
        assert_eq!(s.dequeues(), 24);
        assert_eq!(s.deq_empty, 2);
    }

    #[test]
    fn percentages_match_table2_semantics() {
        let s = QueueStats {
            enq_fast: 98,
            enq_slow: 2,
            deq_fast: 75,
            deq_slow: 25,
            deq_empty: 10,
            ..Default::default()
        };
        assert!((s.pct_slow_enq() - 2.0).abs() < 1e-9);
        assert!((s.pct_slow_deq() - 25.0).abs() < 1e-9);
        assert!((s.pct_empty_deq() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_report_zero_percentages() {
        let s = QueueStats::default();
        assert_eq!(s.pct_slow_enq(), 0.0);
        assert_eq!(s.pct_slow_deq(), 0.0);
        assert_eq!(s.pct_empty_deq(), 0.0);
        assert_eq!(s.live_segments(), 0);
    }

    #[test]
    fn display_renders_the_table2_layout() {
        let s = QueueStats {
            enq_fast: 98,
            enq_slow: 2,
            deq_fast: 75,
            deq_slow: 25,
            deq_empty: 10,
            help_enq: 3,
            cleanups: 1,
            segs_alloc: 5,
            segs_freed: 4,
            ..Default::default()
        };
        let out = s.to_string();
        assert!(out.contains("enqueue"), "{out}");
        assert!(out.contains("2.000%"), "pct_slow_enq missing: {out}");
        assert!(out.contains("25.000%"), "pct_slow_deq missing: {out}");
        assert!(out.contains("cleanups 1"), "{out}");
        assert!(out.contains("alloc 5 freed 4 (live 1)"), "{out}");
        // Aligned columns: header and the two op rows are the same width.
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("total") && lines[0].contains("% slow"));
        assert_eq!(lines[0].len(), lines[1].len(), "{out}");
        assert_eq!(lines[1].len(), lines[2].len(), "{out}");
    }

    #[test]
    fn display_adds_a_rejected_line_only_when_rejecting() {
        let mut s = QueueStats {
            enq_fast: 10,
            ..Default::default()
        };
        assert!(
            !s.to_string().contains("rejected"),
            "the wait-free queue keeps the exact Table-2 layout"
        );
        s.enq_rejected = 3;
        let out = s.to_string();
        assert!(out.ends_with("\nrejected   3"), "{out}");
    }

    #[test]
    fn for_each_counter_visits_every_field_exactly_once() {
        // Exhaustive struct literal, deliberately without `..Default`: a
        // new counter field fails this test at *compile* time until it is
        // added both here and to `for_each_counter`.
        let s = QueueStats {
            enq_fast: 101,
            enq_slow: 102,
            deq_fast: 103,
            deq_slow: 104,
            deq_empty: 105,
            help_enq: 106,
            help_deq: 107,
            cleanups: 108,
            segs_alloc: 109,
            segs_freed: 110,
            enq_slow_helped: 111,
            help_enq_commit: 112,
            help_enq_seal: 113,
            deq_slow_empty: 114,
            help_deq_announce: 115,
            help_deq_complete: 116,
            reclaim_conceded: 117,
            reclaim_backward_clamp: 118,
            reclaim_noop: 119,
            enq_rejected: 120,
        };
        let mut names = std::collections::BTreeSet::new();
        let mut values = Vec::new();
        s.for_each_counter(|name, v| {
            assert!(names.insert(name), "counter {name} visited twice");
            values.push(v);
        });
        assert_eq!(names.len(), 20);
        values.sort_unstable();
        assert_eq!(values, (101..=120).collect::<Vec<u64>>());
    }

    #[test]
    fn gauges_occupancy_is_a_fraction_of_request_slots() {
        let g = Gauges {
            total_handles: 4,
            pending_enq_reqs: 1,
            pending_deq_reqs: 1,
            ..Default::default()
        };
        assert!((g.help_ring_occupancy() - 0.25).abs() < 1e-9);
        assert_eq!(Gauges::default().help_ring_occupancy(), 0.0);
    }
}
