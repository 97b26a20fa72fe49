//! Durable-mode persist hooks (DESIGN.md §12).
//!
//! A crash-recoverable queue must mirror every *commit frontier* of the
//! volatile protocol into persistent storage before the operation's effect
//! can be considered durable. For this queue there are exactly three such
//! frontiers (§12 argues why they suffice):
//!
//! 1. **Cell deposit** — the CAS/store that makes a value visible in a
//!    cell (`enq_fast`'s `try_deposit`, `enq_commit`'s `val` store) and
//!    its dequeue-side dual, the claim that consumes it
//!    (`try_claim_deq_fast`, `help_deq`'s completing claim).
//! 2. **Index advance** — the FAA/CAS-max on `T` and `H`. Persisted as
//!    high-water marks; recovery uses the tail mark to tell a torn
//!    (crash-abandoned) cell from one that was never claimed.
//! 3. **Help commit** — the request-record transitions of the slow path:
//!    publish (`EnqReq::publish`) and claim (`EnqReq::try_claim`). A
//!    persisted *claim* whose cell never received its deposit is exactly
//!    the "claimed-but-uncommitted" state recovery must re-complete.
//!
//! The hooks follow the `inject!` discipline: in a build without the
//! `durable` feature [`persist!`] expands to a constant expression —
//! provably zero-overhead (see the `const` guard in `raw.rs`) — and the
//! queue carries no sink field at all. With the feature on, each
//! hook is one `Option` branch plus a virtual call into the configured
//! [`PersistSink`].

/// Receiver of durable-mode persist events, one method per commit
/// frontier. Implementations must be cheap, idempotent, and safe under
/// concurrent callers: helpers and requesters may persist the *same*
/// transition (same cell, same value) at overlapping times, and a cell's
/// durable state must only move forward (the provided stores use
/// `fetch_max` state machines for exactly this reason).
///
/// Provided implementations: [`crate::HeapFileStore`] (an mmap'd
/// heap-file image — DRAM-backed persistent-memory emulation) and
/// [`crate::MemStore`] (the same record layout in anonymous memory, for
/// tests).
#[cfg(feature = "durable")]
pub trait PersistSink: Send + Sync {
    /// A value became visible in a cell (enqueue-side frontier 1).
    fn deposit(&self, cell: u64, value: u64);
    /// A cell's value was claimed by a dequeuer (dequeue-side frontier 1).
    /// Carries the value so a consume persisted before its racing deposit
    /// persist still records what was taken (the record is the detectable
    /// return value of a dequeue whose caller crashed before using it).
    fn consume(&self, cell: u64, value: u64);
    /// The tail index advanced to at least `to` (frontier 2).
    fn advance_tail(&self, to: u64);
    /// The head index advanced to at least `to` (frontier 2).
    fn advance_head(&self, to: u64);
    /// A slow-path enqueue published its request (frontier 3).
    fn enq_publish(&self, slot: u64, value: u64);
    /// A slow-path enqueue request was claimed for `cell` (frontier 3).
    /// Carries the value: a helper may persist the claim before the
    /// requester's own publish persist lands.
    fn enq_claim(&self, slot: u64, value: u64, cell: u64);
    /// Every cell below `cell` was reclaimed volatile-side; the store may
    /// compact their records at the next generation turn. Advisory.
    fn retire_below(&self, cell: u64);
    /// Flush buffered writes to the backing medium (`msync` for the
    /// heap-file store). The stores write through atomics, so this is a
    /// durability *fence*, not a visibility one.
    fn flush(&self);
}

/// Mirrors a protocol step into the queue's persist sink.
///
/// `persist!(self, method(args...))` — `self` must be the `RawQueue`,
/// whose `persist` field holds an `Option<Arc<dyn PersistSink>>`.
#[cfg(feature = "durable")]
macro_rules! persist {
    ($q:expr, $m:ident ( $($a:expr),* $(,)? )) => {
        if let Some(__sink) = $q.persist.as_deref() {
            __sink.$m($($a),*);
        }
    };
}

/// Mirrors a protocol step into the queue's persist sink.
///
/// This build has `durable` off: the expansion is a constant expression
/// (nothing is evaluated, nothing is called — see the `const` proof in
/// `raw.rs`).
#[cfg(not(feature = "durable"))]
macro_rules! persist {
    ($q:expr, $m:ident ( $($a:expr),* $(,)? )) => {
        ()
    };
}

pub(crate) use persist;
