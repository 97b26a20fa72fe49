//! wCQ — the wait-free circular queue of Nikolaev & Ravindran
//! (PPoPP 2022, arXiv 2201.02179), §3: SCQ plus per-thread *helping
//! records* so stalled ring operations are completed by their peers.
//!
//! Structure is exactly [`crate::scq`]: two index rings (`aq`
//! allocated / `fq` free) around a data array. What changes is the `aq`
//! protocol. Each handle owns one **help record** — a 128-bit control
//! word `(state, position)` updated by double-width CAS plus a value
//! cell. An operation that exhausts its *patience* on the fast path
//! publishes its record and from then on is driven to completion
//! cooperatively:
//!
//! - **slow enqueue**: the owner claims a ring ticket with FAA and CAS-es
//!   it into the record; any peer that sees the record can then install
//!   the entry (tagged `SLOW_ENQ | tid | index` so it is attributable),
//!   finalize the record, and reset the threshold. Identical installs are
//!   idempotent — two helpers racing write the same bit pattern, so the
//!   loser's CAS simply fails onto the winner's result.
//! - **slow dequeue**: peers *consume-mark* the ticket's entry
//!   (`SLOW_DEQ | tid | index`, keeping the index visible) and finalize
//!   the record; only the owner then clears the marked entry and returns
//!   the index to `fq`, so the result cannot be lost or double-freed.
//! - **takeover**: a dequeuer meeting a `SLOW_ENQ`-tagged entry finalizes
//!   the (possibly parked) enqueuer's record before consuming, so the
//!   enqueuer cannot later re-claim a new ticket and duplicate the value.
//!
//! Correctness of helping leans on two invariants, both inherited from
//! the SCQ entry discipline and checked in the proofs sketched inline:
//! entry words are **ABA-free** (a given 64-bit entry value is never
//! revisited: cycles are monotone and within a cycle the index field only
//! moves `⊥ → value → ⊥`), and a record's round may only be **advanced
//! after its ticket's slot is permanently dead** (cycle moved past, or
//! killed at-cycle). Together they make a lagging helper's CAS fail
//! rather than resurrect an abandoned ticket.
//!
//! **Deviation from the paper, documented honestly:** in full wCQ even
//! the ticket-claiming FAA is helped (via `Head`/`Tail` version counters
//! and per-slot sequence numbers), making every step of every operation
//! completable by peers. Here the FAA stays with the owner — a thread
//! parked *between* publishing and claiming strands only its own
//! operation (exactly like a parked fast-path claimant), while the
//! already-claimed ticket is always completable by helpers. Ring-level
//! progress is lock-free with helped completion; per-operation
//! wait-freedom holds once the position is claimed. The slow dequeuer
//! whose ticket lands on a stuck *older-cycle* value also waits for that
//! value's consumer before it can safely declare the ticket dead (full
//! wCQ sidesteps this with per-slot seqnums). DESIGN.md §11 carries the
//! full argument.

use core::sync::atomic::{AtomicU64, Ordering};

use wfq_sync::dwcas::AtomicU128;
use wfq_sync::{inject, CachePadded};
use wfqueue::{BackendHandle, Full, QueueBackend, QueueStats};

use crate::scq::{ecycle, eidx, esafe, is_empty_idx, pack, ScqRing, BOT, IDX_MASK, KILLED, SAFE_BIT};

/// Default capacity order (same geometry as [`crate::scq::DEFAULT_ORDER`]).
pub const DEFAULT_ORDER: u32 = 15;
/// Fast-path attempts before an operation goes through its help record.
pub const DEFAULT_PATIENCE: u32 = 16;
/// Maximum registered handles (the help-record array is fixed).
pub const MAX_HANDLES: usize = 64;
/// Orders above 23 would collide the data index with the marker bits.
pub const MAX_ORDER: u32 = 23;

/// Bound on the work a *helper* invests in someone else's record per
/// visit (owners loop until completion).
const HELP_STEPS: u32 = 128;

// Index-field sublayout (32 bits, see scq.rs for the outer layout):
// bit 31 = SLOW_ENQ, bit 30 = SLOW_DEQ, bits 24..30 = tid, 0..24 = index.
const SLOW_ENQ: u64 = 1 << 31;
const SLOW_DEQ: u64 = 1 << 30;
const TID_SHIFT: u32 = 24;
const TID_MASK: u64 = 0x3F << TID_SHIFT;
const DATA_MASK: u64 = (1 << TID_SHIFT) - 1;

// Record state word: kind in bits 0..2, DONE bit 2, EMPTY bit 3,
// monotone round/op sequence from bit 4 (bumped on publish and on every
// round advance, so a (state, position) pair never recurs).
const K_IDLE: u64 = 0;
const K_ENQ: u64 = 1;
const K_DEQ: u64 = 2;
const ST_DONE: u64 = 1 << 2;
const ST_EMPTY: u64 = 1 << 3;
const SEQ_ONE: u64 = 1 << 4;

/// `position` value while the owner has not yet claimed a ticket.
const UNSET: u64 = u64::MAX;

#[inline]
const fn st_kind(st: u64) -> u64 {
    st & 3
}

#[inline]
const fn st_done(st: u64) -> bool {
    st & ST_DONE != 0
}

/// An untorn read of a 128-bit pair: two consecutive equal tearing loads
/// bracket a moment where both halves held these values (valid because
/// control words never revisit a value — seq strictly grows).
#[inline]
fn snapshot(c: &AtomicU128) -> (u64, u64) {
    loop {
        let a = c.load();
        if c.load() == a {
            return a;
        }
        core::hint::spin_loop();
    }
}

/// One per-handle helping record.
struct HelpRecord {
    /// `(state, position)`; all transitions are full-pair CAS.
    ctrl: AtomicU128,
    /// For slow enqueues: the data index to install. Written by the owner
    /// strictly before publishing, so any helper that proves the record
    /// round current (via a successful entry CAS) read the right value.
    value: AtomicU64,
}

/// Outcome of a bounded fast-path dequeue.
enum FastDeq {
    /// Data index consumed.
    Got(u64),
    /// Certified empty.
    Empty,
    /// Patience exhausted; go through the record.
    GiveUp,
}

/// Per-handle operation counters (flushed on handle drop).
#[derive(Default)]
struct Local {
    enq_fast: u64,
    enq_slow: u64,
    deq_fast: u64,
    deq_slow: u64,
    deq_empty: u64,
    rejected: u64,
    help_enq: u64,
    help_deq: u64,
    takeovers: u64,
}

#[derive(Default)]
struct Counters {
    enq_fast: AtomicU64,
    enq_slow: AtomicU64,
    deq_fast: AtomicU64,
    deq_slow: AtomicU64,
    deq_empty: AtomicU64,
    rejected: AtomicU64,
    help_enq: AtomicU64,
    help_deq: AtomicU64,
    takeovers: AtomicU64,
}

/// The wCQ queue.
pub struct Wcq {
    /// Allocated-index ring, driven by the helped protocol below (its
    /// `ScqRing::enqueue`/`dequeue` methods are *not* used).
    aq: ScqRing,
    /// Free-index ring, standard SCQ protocol (lock-free; see module docs).
    fq: ScqRing,
    data: Box<[AtomicU64]>,
    records: Box<[CachePadded<HelpRecord>]>,
    /// Bit `t` set ⇔ tid `t` is a live handle.
    tids: AtomicU64,
    patience: u32,
    counters: Counters,
}

impl Wcq {
    /// Creates a wCQ with `2^order` slots and the given fast-path
    /// patience (0 forces every operation through its help record —
    /// used by the deterministic slow-path tests).
    pub fn with_params(order: u32, patience: u32) -> Self {
        assert!(order <= MAX_ORDER, "wcq order exceeds data-index field");
        let n = 1u64 << order;
        Wcq {
            aq: ScqRing::new(order, 0),
            fq: ScqRing::new(order, n),
            data: (0..n).map(|_| AtomicU64::new(0)).collect(),
            records: (0..MAX_HANDLES)
                .map(|_| {
                    CachePadded::new(HelpRecord {
                        ctrl: AtomicU128::new(K_IDLE, UNSET),
                        value: AtomicU64::new(0),
                    })
                })
                .collect(),
            tids: AtomicU64::new(0),
            patience,
            counters: Counters::default(),
        }
    }

    /// Creates a wCQ with the given patience at the default capacity.
    pub fn with_patience(patience: u32) -> Self {
        Self::with_params(DEFAULT_ORDER, patience)
    }

    /// Slot capacity.
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    // ------------------------------------------------------------------
    // Fast paths: SCQ with bounded patience and marker awareness.
    // ------------------------------------------------------------------

    /// Bounded SCQ-style enqueue of data index `i` into `aq`.
    fn enq_fast(&self, i: u64) -> bool {
        for _ in 0..self.patience {
            let t = self.aq.tail.fetch_add(1, Ordering::SeqCst);
            let tc = self.aq.cycle(t);
            let entry = self.aq.entry(t);
            let mut e = entry.load(Ordering::SeqCst);
            loop {
                if ecycle(e) < tc
                    && is_empty_idx(eidx(e))
                    && (esafe(e) || self.aq.head.load(Ordering::SeqCst) <= t)
                {
                    match entry.compare_exchange(
                        e,
                        pack(tc, true, i),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    ) {
                        Ok(_) => {
                            self.aq.reset_threshold();
                            return true;
                        }
                        Err(seen) => {
                            e = seen;
                            continue;
                        }
                    }
                }
                break;
            }
        }
        false
    }

    /// Bounded SCQ-style dequeue from `aq`.
    fn deq_fast(&self, local: &mut Local) -> FastDeq {
        if self.aq.threshold.load(Ordering::SeqCst) < 0 {
            return FastDeq::Empty;
        }
        for _ in 0..self.patience {
            let h = self.aq.head.fetch_add(1, Ordering::SeqCst);
            let hc = self.aq.cycle(h);
            let entry = self.aq.entry(h);
            let mut e = entry.load(Ordering::SeqCst);
            loop {
                if ecycle(e) == hc && !is_empty_idx(eidx(e)) {
                    // Ticket h's value. SLOW_DEQ at our own cycle is
                    // impossible (only ticket h's record marks it, and
                    // ticket h is ours, fast).
                    debug_assert_eq!(eidx(e) & SLOW_DEQ, 0);
                    if eidx(e) & SLOW_ENQ != 0 {
                        // A parked slow enqueuer's entry: finalize its
                        // record before consuming (else it could re-claim
                        // a ticket and duplicate the value).
                        self.resolve_slow_enq(e, h, local);
                    }
                    // Only ticket h consumes, and in-cycle transitions
                    // preserve the idx bits, so the loaded index is valid.
                    entry.fetch_or(IDX_MASK, Ordering::SeqCst);
                    return FastDeq::Got(eidx(e) & DATA_MASK);
                }
                if ecycle(e) < hc {
                    let new = if is_empty_idx(eidx(e)) {
                        pack(hc, esafe(e), KILLED)
                    } else {
                        e & !SAFE_BIT // value overtaken: mark unsafe
                    };
                    match entry.compare_exchange(e, new, Ordering::SeqCst, Ordering::SeqCst) {
                        Ok(_) => {}
                        Err(seen) => {
                            e = seen;
                            continue;
                        }
                    }
                }
                break;
            }
            let t = self.aq.tail.load(Ordering::SeqCst);
            if t <= h + 1 {
                self.aq.catchup(t, h + 1);
                self.aq.threshold.fetch_sub(1, Ordering::SeqCst);
                return FastDeq::Empty;
            }
            if self.aq.threshold.fetch_sub(1, Ordering::SeqCst) <= 0 {
                return FastDeq::Empty;
            }
        }
        FastDeq::GiveUp
    }

    /// Finalizes a peer's pending slow-enqueue record whose entry at
    /// `ticket` we are about to consume.
    fn resolve_slow_enq(&self, e: u64, ticket: u64, local: &mut Local) {
        let tid = ((eidx(e) & TID_MASK) >> TID_SHIFT) as usize;
        let rec = &self.records[tid];
        let (st, pos) = snapshot(&rec.ctrl);
        if st_kind(st) == K_ENQ && !st_done(st) && pos == ticket {
            inject!("wcq::help::takeover");
            if rec.ctrl.compare_exchange((st, pos), (st | ST_DONE, pos)).is_ok() {
                local.takeovers += 1;
            }
        }
        // Any other state: the record already moved on, which (by the
        // round-advance-needs-permanent-death rule) proves this install
        // was finalized before — consuming is safe.
    }

    // ------------------------------------------------------------------
    // Slow paths: record publication + cooperative completion.
    // ------------------------------------------------------------------

    /// Publishes `(kind, UNSET)` on our record, bumping the sequence.
    fn publish(&self, tid: usize, kind: u64) {
        let rec = &self.records[tid];
        loop {
            let (st, pos) = snapshot(&rec.ctrl);
            debug_assert!(st_kind(st) == K_IDLE || st_done(st), "republishing a live record");
            let seq = st >> 4;
            let new_st = kind | ((seq + 1) << 4);
            if rec.ctrl.compare_exchange((st, pos), (new_st, UNSET)).is_ok() {
                return;
            }
            // Only stale helper finalize-CASes can contend here, and they
            // fail, not us — but retry harmlessly if the snapshot tore.
        }
    }

    /// Slow enqueue of data index `i`: publish, then drive to completion.
    fn enq_slow(&self, tid: usize, i: u64) {
        self.records[tid].value.store(i, Ordering::SeqCst);
        self.publish(tid, K_ENQ);
        inject!("wcq::enq_slow::published");
        loop {
            self.help_enq(tid, true, u32::MAX);
            let (st, _) = snapshot(&self.records[tid].ctrl);
            if st_done(st) {
                return;
            }
            core::hint::spin_loop();
        }
    }

    /// Drives `tid`'s pending slow enqueue. `owner` may claim tickets;
    /// helpers only complete already-claimed ones and give up after
    /// `max_steps`.
    fn help_enq(&self, tid: usize, owner: bool, max_steps: u32) {
        let rec = &self.records[tid];
        let mut steps = 0;
        loop {
            steps += 1;
            if steps > max_steps {
                return;
            }
            let (st, pos) = snapshot(&rec.ctrl);
            if st_kind(st) != K_ENQ || st_done(st) {
                return;
            }
            if pos == UNSET {
                if !owner {
                    return; // ticket claiming is owner-only (module docs)
                }
                let t = self.aq.tail.fetch_add(1, Ordering::SeqCst);
                let _ = rec.ctrl.compare_exchange((st, UNSET), (st, t));
                continue;
            }
            let ticket = pos;
            let tc = self.aq.cycle(ticket);
            let entry = self.aq.entry(ticket);
            let val = rec.value.load(Ordering::SeqCst);
            let pattern = SLOW_ENQ | ((tid as u64) << TID_SHIFT) | val;
            let e = entry.load(Ordering::SeqCst);

            if ecycle(e) == tc {
                if eidx(e) == pattern || eidx(e) == BOT {
                    // Installed (and possibly already consumed — a (tc, ⊥)
                    // entry at our exclusive ticket can only be our
                    // consumed install): finalize. The threshold reset is
                    // unconditional: whoever finalized, the install did
                    // land, and dequeuers gating on `threshold < 0` must
                    // learn the ring is non-empty again.
                    inject!("wcq::enq_slow::finalize");
                    let _ = rec.ctrl.compare_exchange((st, pos), (st | ST_DONE, pos));
                    self.aq.reset_threshold();
                    return;
                }
                if eidx(e) == KILLED {
                    // A dequeuer declared our ticket dead before we
                    // installed: permanent — advance the round.
                    let _ = rec
                        .ctrl
                        .compare_exchange((st, pos), (st + SEQ_ONE, UNSET));
                    continue;
                }
                // A foreign value at our exclusive ticket is impossible;
                // dropping the enqueue here would lose it silently. The
                // message decodes the entry and snapshots the ring so one
                // failing run says which cycle and index it found.
                panic!(
                    "foreign entry at exclusive enq ticket: ticket={ticket} \
                     tc={tc} e={e:#018x} (cycle={} safe={} idx={:#x}, ours={pattern:#x}) \
                     tid={tid} ring head={} tail={} threshold={}",
                    ecycle(e),
                    esafe(e),
                    eidx(e),
                    self.aq.head.load(Ordering::SeqCst),
                    self.aq.tail.load(Ordering::SeqCst),
                    self.aq.threshold.load(Ordering::SeqCst),
                );
            }
            if ecycle(e) > tc {
                // Slot recycled past our cycle without an install (had we
                // installed, the record would have been finalized before
                // the slot could move on — see takeover): permanent death.
                let _ = rec
                    .ctrl
                    .compare_exchange((st, pos), (st + SEQ_ONE, UNSET));
                continue;
            }
            // ecycle(e) < tc: the slot is from an older cycle.
            if is_empty_idx(eidx(e)) {
                if esafe(e) || self.aq.head.load(Ordering::SeqCst) <= ticket {
                    // Claimable: install our tagged entry.
                    inject!("wcq::enq_slow::install");
                    if entry
                        .compare_exchange(e, pack(tc, true, pattern), Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        inject!("wcq::enq_slow::finalize");
                        let _ = rec.ctrl.compare_exchange((st, pos), (st | ST_DONE, pos));
                        self.aq.reset_threshold();
                        return;
                    }
                    continue; // entry moved; re-evaluate
                }
                // Empty but unsafe with a lagging head: unusable forever
                // for this ticket. Kill it (it holds no value) so death
                // is permanent, then advance.
                let _ = entry.compare_exchange(
                    e,
                    pack(tc, esafe(e), KILLED),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                continue;
            }
            // A stuck older-cycle *value*: killing it would drop a live
            // element and advancing without permanence could duplicate
            // ours, so wait for its consumer (owner spins, helper bails).
            if !owner {
                return;
            }
            core::hint::spin_loop();
        }
    }

    /// Slow dequeue: publish, drive to completion, harvest. Returns the
    /// consumed data index, or `None` if certified empty.
    fn deq_slow(&self, tid: usize, local: &mut Local) -> Option<u64> {
        if self.aq.threshold.load(Ordering::SeqCst) < 0 {
            return None;
        }
        self.publish(tid, K_DEQ);
        inject!("wcq::deq_slow::published");
        let rec = &self.records[tid];
        loop {
            self.help_deq(tid, true, u32::MAX, local);
            let (st, pos) = snapshot(&rec.ctrl);
            if st_done(st) {
                if st & ST_EMPTY != 0 {
                    return None;
                }
                return Some(self.harvest(tid, pos));
            }
            core::hint::spin_loop();
        }
    }

    /// Owner-only: clears our `SLOW_DEQ`-marked entry at `ticket` and
    /// returns the data index it carried. Helpers never clear, so the
    /// result cannot be lost; concurrent unsafe-marking only toggles the
    /// safe bit, which the retry absorbs.
    fn harvest(&self, tid: usize, ticket: u64) -> u64 {
        let entry = self.aq.entry(ticket);
        loop {
            let e = entry.load(Ordering::SeqCst);
            debug_assert_ne!(eidx(e) & SLOW_DEQ, 0, "harvest of an unmarked entry");
            debug_assert_eq!((eidx(e) & TID_MASK) >> TID_SHIFT, tid as u64);
            let i = eidx(e) & DATA_MASK;
            if entry
                .compare_exchange(
                    e,
                    pack(ecycle(e), esafe(e), BOT),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                return i;
            }
        }
    }

    /// Drives `tid`'s pending slow dequeue (same owner/helper contract as
    /// [`Self::help_enq`]).
    fn help_deq(&self, tid: usize, owner: bool, max_steps: u32, local: &mut Local) {
        let rec = &self.records[tid];
        let mut steps = 0;
        loop {
            steps += 1;
            if steps > max_steps {
                return;
            }
            let (st, pos) = snapshot(&rec.ctrl);
            if st_kind(st) != K_DEQ || st_done(st) {
                return;
            }
            if pos == UNSET {
                if !owner {
                    return;
                }
                let h = self.aq.head.fetch_add(1, Ordering::SeqCst);
                let _ = rec.ctrl.compare_exchange((st, UNSET), (st, h));
                continue;
            }
            let ticket = pos;
            let hc = self.aq.cycle(ticket);
            let entry = self.aq.entry(ticket);
            let e = entry.load(Ordering::SeqCst);

            if ecycle(e) == hc && !is_empty_idx(eidx(e)) {
                if eidx(e) & SLOW_DEQ != 0 {
                    // Already consume-marked (necessarily by our record —
                    // only ticket holders mark): finalize.
                    debug_assert_eq!((eidx(e) & TID_MASK) >> TID_SHIFT, tid as u64);
                    inject!("wcq::deq_slow::finalize");
                    let _ = rec.ctrl.compare_exchange((st, pos), (st | ST_DONE, pos));
                    return;
                }
                if eidx(e) & SLOW_ENQ != 0 {
                    self.resolve_slow_enq(e, ticket, local);
                }
                // Consume-mark: commit this value to our record while
                // keeping the index visible for the owner's harvest.
                let marked = SLOW_DEQ | ((tid as u64) << TID_SHIFT) | (eidx(e) & DATA_MASK);
                inject!("wcq::deq_slow::consume_mark");
                if entry
                    .compare_exchange(e, pack(hc, esafe(e), marked), Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    inject!("wcq::deq_slow::finalize");
                    let _ = rec.ctrl.compare_exchange((st, pos), (st | ST_DONE, pos));
                    return;
                }
                continue;
            }

            let dead = ecycle(e) > hc || (ecycle(e) == hc && eidx(e) == KILLED);
            if !dead {
                if ecycle(e) == hc && eidx(e) == BOT {
                    // Our exclusive ticket shows consumed: only the
                    // owner's harvest does that, so the record is already
                    // done and this snapshot is stale.
                    return;
                }
                // Older cycle: make the ticket's fate permanent before any
                // record transition (the lagging-helper consume-mark must
                // be impossible once we move on).
                if is_empty_idx(eidx(e)) {
                    let _ = entry.compare_exchange(
                        e,
                        pack(hc, esafe(e), KILLED),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                    continue; // re-evaluate (a value may have won the race)
                }
                // Stuck older-cycle value: mark unsafe, then wait for its
                // consumer — we may neither kill (drops a value) nor
                // advance (not yet permanent).
                let _ = entry.compare_exchange(e, e & !SAFE_BIT, Ordering::SeqCst, Ordering::SeqCst);
                if !owner {
                    return;
                }
                core::hint::spin_loop();
                continue;
            }

            // Ticket permanently dead: empty-check, then advance. All
            // threshold decrements are gated by winning the ctrl CAS so a
            // helper crowd can't over-decrement into a false EMPTY.
            let t = self.aq.tail.load(Ordering::SeqCst);
            if t <= ticket + 1 {
                self.aq.catchup(t, ticket + 1);
                inject!("wcq::deq_slow::finalize");
                if rec
                    .ctrl
                    .compare_exchange((st, pos), (st | ST_DONE | ST_EMPTY, pos))
                    .is_ok()
                {
                    self.aq.threshold.fetch_sub(1, Ordering::SeqCst);
                }
                return;
            }
            if self.aq.threshold.load(Ordering::SeqCst) < 0 {
                inject!("wcq::deq_slow::finalize");
                let _ = rec
                    .ctrl
                    .compare_exchange((st, pos), (st | ST_DONE | ST_EMPTY, pos));
                return;
            }
            if rec
                .ctrl
                .compare_exchange((st, pos), (st + SEQ_ONE, UNSET))
                .is_ok()
            {
                self.aq.threshold.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Round-robin peer helping: at most one record per call, bounded
    /// work. This is what turns a parked peer's published operation into
    /// everyone's business.
    fn maybe_help(&self, own_tid: usize, cursor: &mut usize, local: &mut Local) {
        *cursor = (*cursor + 1) % MAX_HANDLES;
        let peer = *cursor;
        if peer == own_tid {
            return;
        }
        let (st, _) = snapshot(&self.records[peer].ctrl);
        if st_done(st) {
            return;
        }
        match st_kind(st) {
            K_ENQ => {
                local.help_enq += 1;
                self.help_enq(peer, false, HELP_STEPS);
            }
            K_DEQ => {
                local.help_deq += 1;
                self.help_deq(peer, false, HELP_STEPS, local);
            }
            _ => {}
        }
    }

    fn push(&self, tid: usize, cursor: &mut usize, v: u64, local: &mut Local) -> Result<(), Full> {
        self.maybe_help(tid, cursor, local);
        let Some(i) = self.fq.dequeue() else {
            local.rejected += 1;
            return Err(Full(()));
        };
        self.data[i as usize].store(v, Ordering::SeqCst);
        if self.enq_fast(i) {
            local.enq_fast += 1;
        } else {
            self.enq_slow(tid, i);
            local.enq_slow += 1;
        }
        Ok(())
    }

    fn pop(&self, tid: usize, cursor: &mut usize, local: &mut Local) -> Option<u64> {
        self.maybe_help(tid, cursor, local);
        let (i, slow) = match self.deq_fast(local) {
            FastDeq::Got(i) => (i, false),
            FastDeq::Empty => {
                local.deq_empty += 1;
                return None;
            }
            FastDeq::GiveUp => match self.deq_slow(tid, local) {
                Some(i) => (i, true),
                None => {
                    local.deq_empty += 1;
                    return None;
                }
            },
        };
        if slow {
            local.deq_slow += 1;
        } else {
            local.deq_fast += 1;
        }
        let v = self.data[i as usize].load(Ordering::SeqCst);
        self.fq.enqueue(i);
        Some(v)
    }
}

/// Per-thread handle for [`Wcq`].
pub struct WcqHandle<'q> {
    q: &'q Wcq,
    tid: usize,
    cursor: usize,
    local: Local,
}

impl Drop for WcqHandle<'_> {
    fn drop(&mut self) {
        let c = &self.q.counters;
        let l = &self.local;
        c.enq_fast.fetch_add(l.enq_fast, Ordering::Relaxed);
        c.enq_slow.fetch_add(l.enq_slow, Ordering::Relaxed);
        c.deq_fast.fetch_add(l.deq_fast, Ordering::Relaxed);
        c.deq_slow.fetch_add(l.deq_slow, Ordering::Relaxed);
        c.deq_empty.fetch_add(l.deq_empty, Ordering::Relaxed);
        c.rejected.fetch_add(l.rejected, Ordering::Relaxed);
        c.help_enq.fetch_add(l.help_enq, Ordering::Relaxed);
        c.help_deq.fetch_add(l.help_deq, Ordering::Relaxed);
        c.takeovers.fetch_add(l.takeovers, Ordering::Relaxed);
        self.q.tids.fetch_and(!(1 << self.tid), Ordering::SeqCst);
    }
}

impl BackendHandle for WcqHandle<'_> {
    fn enqueue(&mut self, v: u64) {
        while self.try_enqueue(v).is_err() {
            core::hint::spin_loop();
        }
    }

    fn try_enqueue(&mut self, v: u64) -> Result<(), Full> {
        let mut cursor = self.cursor;
        let r = self.q.push(self.tid, &mut cursor, v, &mut self.local);
        self.cursor = cursor;
        r
    }

    fn dequeue(&mut self) -> Option<u64> {
        let mut cursor = self.cursor;
        let r = self.q.pop(self.tid, &mut cursor, &mut self.local);
        self.cursor = cursor;
        r
    }
}

impl QueueBackend for Wcq {
    type Handle<'q> = WcqHandle<'q>;
    const NAME: &'static str = "wCQ";
    const FIXED_CAPACITY: bool = true;

    fn new() -> Self {
        Wcq::with_params(DEFAULT_ORDER, DEFAULT_PATIENCE)
    }

    fn register(&self) -> Self::Handle<'_> {
        // Claim a free record slot.
        loop {
            let cur = self.tids.load(Ordering::SeqCst);
            let free = (!cur).trailing_zeros() as usize;
            assert!(free < MAX_HANDLES, "wCQ supports at most 64 live handles");
            if self
                .tids
                .compare_exchange(cur, cur | (1 << free), Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return WcqHandle {
                    q: self,
                    tid: free,
                    cursor: free,
                    local: Local::default(),
                };
            }
        }
    }

    fn stats(&self) -> QueueStats {
        let c = &self.counters;
        QueueStats {
            enq_fast: c.enq_fast.load(Ordering::Relaxed),
            enq_slow: c.enq_slow.load(Ordering::Relaxed),
            deq_fast: c.deq_fast.load(Ordering::Relaxed),
            deq_slow: c.deq_slow.load(Ordering::Relaxed),
            deq_empty: c.deq_empty.load(Ordering::Relaxed),
            enq_rejected: c.rejected.load(Ordering::Relaxed),
            help_enq: c.help_enq.load(Ordering::Relaxed),
            help_deq: c.help_deq.load(Ordering::Relaxed),
            enq_slow_helped: c.takeovers.load(Ordering::Relaxed),
            ..QueueStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    /// Patience-0 wCQ: every operation takes the record path.
    struct Wcq0(Wcq);
    struct Wcq0Handle<'q>(WcqHandle<'q>);
    impl BackendHandle for Wcq0Handle<'_> {
        fn enqueue(&mut self, v: u64) {
            self.0.enqueue(v);
        }
        fn dequeue(&mut self) -> Option<u64> {
            self.0.dequeue()
        }
        fn try_enqueue(&mut self, v: u64) -> Result<(), Full> {
            self.0.try_enqueue(v)
        }
    }
    impl QueueBackend for Wcq0 {
        type Handle<'q> = Wcq0Handle<'q>;
        const NAME: &'static str = "wCQ-0";
        const FIXED_CAPACITY: bool = true;
        fn new() -> Self {
            Wcq0(Wcq::with_params(10, 0))
        }
        fn register(&self) -> Self::Handle<'_> {
            Wcq0Handle(self.0.register())
        }
    }

    #[test]
    fn fifo_single_thread() {
        conformance::fifo_single_thread::<Wcq>();
    }

    #[test]
    fn interleaved_single_thread() {
        conformance::interleaved_single_thread::<Wcq>();
    }

    #[test]
    fn batch_roundtrip_via_defaults() {
        conformance::batch_roundtrip::<Wcq>();
    }

    #[test]
    fn mpmc_conservation() {
        conformance::mpmc_conservation::<Wcq>(3, 3, 2_000);
    }

    #[test]
    fn slow_paths_fifo_single_thread() {
        conformance::fifo_single_thread::<Wcq0>();
        conformance::interleaved_single_thread::<Wcq0>();
    }

    #[test]
    fn slow_paths_mpmc_conservation() {
        conformance::mpmc_conservation::<Wcq0>(3, 3, 1_000);
    }

    #[test]
    fn slow_paths_are_counted() {
        let q = Wcq::with_params(6, 0);
        let mut h = q.register();
        for v in 1..=20 {
            h.enqueue(v);
        }
        for want in 1..=20 {
            assert_eq!(h.dequeue(), Some(want));
        }
        assert_eq!(h.dequeue(), None);
        drop(h);
        let s = QueueBackend::stats(&q);
        assert_eq!(s.enq_slow, 20, "patience 0 must route all enqueues slow");
        assert_eq!(s.deq_slow, 20, "patience 0 must route all dequeues slow");
        assert_eq!(s.enq_fast + s.deq_fast, 0);
        assert!(s.deq_empty >= 1);
    }

    #[test]
    fn full_ring_rejects_and_recovers() {
        let q = Wcq::with_params(3, 0); // capacity 8, all-slow
        let mut h = q.register();
        for v in 1..=8 {
            assert_eq!(h.try_enqueue(v), Ok(()));
        }
        assert_eq!(h.try_enqueue(9), Err(Full(())));
        assert_eq!(h.dequeue(), Some(1));
        assert_eq!(h.try_enqueue(9), Ok(()));
        for want in 2..=9 {
            assert_eq!(h.dequeue(), Some(want));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn ring_cycles_wrap_under_slow_paths() {
        let q = Wcq::with_params(3, 0);
        let mut h = q.register();
        for round in 0..200u64 {
            for v in 1..=8 {
                h.enqueue(round * 8 + v);
            }
            for v in 1..=8 {
                assert_eq!(h.dequeue(), Some(round * 8 + v), "round {round}");
            }
        }
    }

    #[test]
    fn tids_are_reused_after_drop() {
        let q = Wcq::new();
        for _ in 0..1_000 {
            let h = q.register();
            assert!(h.tid < MAX_HANDLES);
            drop(h);
        }
        let handles: Vec<_> = (0..MAX_HANDLES).map(|_| q.register()).collect();
        let mut tids: Vec<_> = handles.iter().map(|h| h.tid).collect();
        tids.sort_unstable();
        assert_eq!(tids, (0..MAX_HANDLES).collect::<Vec<_>>());
    }

    #[test]
    fn mixed_patience_threads_interoperate() {
        // Fast-path threads and all-slow threads on one queue: the
        // helping protocol must keep them linearizable together.
        use std::sync::atomic::{AtomicU64, Ordering};
        let q = Wcq::with_params(8, 4);
        let sum = AtomicU64::new(0);
        let count = AtomicU64::new(0);
        let total = 4 * 2_000u64;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register();
                    for v in 0..2_000 {
                        h.enqueue(t * 2_000 + v + 1);
                    }
                });
            }
            for _ in 0..4 {
                let q = &q;
                let sum = &sum;
                let count = &count;
                s.spawn(move || {
                    let mut h = q.register();
                    while count.load(Ordering::Relaxed) < total {
                        if let Some(v) = h.dequeue() {
                            sum.fetch_add(v, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), total);
        assert_eq!(sum.load(Ordering::Relaxed), (1..=total).sum::<u64>());
    }
}
