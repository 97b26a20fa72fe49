//! # wfqueue — a wait-free FIFO queue as fast as fetch-and-add
//!
//! A faithful Rust implementation of the wait-free MPMC FIFO queue of
//! **Chaoran Yang and John Mellor-Crummey, "A Wait-free Queue as Fast as
//! Fetch-and-Add", PPoPP 2016**.
//!
//! ## The algorithm in one paragraph
//!
//! The queue is conceptually an *infinite array* `Q` with unbounded head and
//! tail indices `H` and `T` (paper Listing 1). An enqueue claims a cell with
//! one `fetch_add` on `T` and deposits its value with one CAS; a dequeue
//! claims a cell with one `fetch_add` on `H` and either takes the value found
//! there or marks the cell unusable. Because FAA always succeeds, there is no
//! CAS-retry storm on the hot indices — the property that lets LCRQ beat
//! MS-Queue, but here extended with *wait-freedom*: when a thread's fast-path
//! "patience" runs out it publishes a request in a ring of per-thread
//! handles, and every contending dequeuer doubles as a helper until the
//! request completes (Kogan–Petrank fast-path-slow-path, specialized to FAA).
//! The infinite array is emulated by a linked list of fixed-size segments
//! reclaimed by a custom epoch/hazard scheme (paper Listing 5) that adds no
//! fence to the x86 fast path.
//!
//! ## Two API levels
//!
//! - [`WfQueue<T>`] — a typed, owning queue for arbitrary `T: Send`. Values
//!   are boxed; the queue drains and drops leftovers on `Drop`. A handle
//!   keeps at most one freed box (`size_of::<T>()` bytes) until its next
//!   enqueue or its drop, so enqueue-dequeue pairs on one handle reuse one
//!   box instead of calling the allocator.
//! - [`RawQueue`] — the paper's algorithm verbatim over 64-bit machine words
//!   (values must avoid the two reserved patterns `0` and `u64::MAX`). This
//!   is what the benchmarks drive, mirroring the authors' C benchmark which
//!   enqueues small integers cast to `void*`.
//!
//! Both are operated through per-thread **handles**: the paper keeps
//! head/tail segment pointers, help requests and peer pointers in
//! thread-local state to keep the shared queue free of contention beyond
//! the two FAA'd indices. There is one handle implementation,
//! [`RawHandle`], generic over how it holds its queue ([`QueueRef`]), and
//! one typed wrapper over it, [`TypedHandle`], which boxes and unboxes the
//! values. Four aliases name them:
//!
//! | | borrows the queue | owns an `Arc` of it |
//! |---|---|---|
//! | [`RawQueue`] | [`Handle`] ([`RawQueue::register`]) | [`OwnedHandle`] |
//! | [`WfQueue<T>`] | [`LocalHandle`] ([`WfQueue::handle`]) | [`OwnedLocalHandle`] |
//!
//! The owning kinds can move into a detached `std::thread::spawn` worker.
//!
//! ```
//! use wfqueue::WfQueue;
//!
//! let q = WfQueue::new();
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         let mut h = q.handle();
//!         for i in 0..100 { h.enqueue(i); }
//!     });
//!     s.spawn(|| {
//!         let mut h = q.handle();
//!         let mut got = 0;
//!         while got < 100 {
//!             if h.dequeue().is_some() { got += 1; }
//!         }
//!     });
//! });
//! assert!(q.is_empty());
//! ```
//!
//! ## Progress guarantee
//!
//! Every `enqueue` and `dequeue` completes in a bounded number of steps
//! regardless of scheduling (paper Theorem 4.6), given the x86-class atomic
//! primitives (`fetch_add`, `compare_exchange`) that Rust lowers to single
//! instructions on x86_64 (on targets that emulate FAA with LL/SC retry
//! loops the bound degrades exactly as the paper describes for Power7).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod backend;
mod cell;
mod config;
#[cfg(feature = "durable")]
mod durable;
mod full;
mod handle;
#[cfg(test)]
mod idempotence;
mod pack;
mod persist;
mod raw;
mod reclaim;
mod request;
mod segment;
mod stats;
mod typed;

pub use backend::{BackendHandle, QueueBackend};
pub use config::Config;
#[cfg(feature = "durable")]
pub use durable::{
    recover_image, CellState, ClaimRecord, DurableScan, MemStore, RecoverError,
    RecoveryOptions, RecoveryReport, StoreImage,
};
#[cfg(all(feature = "durable", unix))]
pub use durable::HeapFileStore;
pub use full::Full;
#[cfg(feature = "durable")]
pub use persist::PersistSink;
pub use raw::{Handle, OwnedHandle, QueueRef, RawHandle, RawQueue};
pub use stats::{Gauges, QueueStats};
pub use typed::{LocalHandle, OwnedLocalHandle, TypedHandle, WfQueue};

/// Default number of cells per segment (the paper's N = 2^10).
pub const DEFAULT_SEGMENT_SIZE: usize = 1024;

/// Default fast-path patience (the paper's WF-10 configuration).
pub const DEFAULT_PATIENCE: u32 = 10;

/// Every named fault-injection point compiled into this crate
/// (`wfq_sync::inject!` sites). The schedule fuzzer asserts its sweep
/// drives each of these at least once. The list is exactly the
/// `inject!("...")` calls in `raw.rs` and `reclaim.rs`:
/// `fault_points_match_the_inject_sites` in `tests/tests/fault_schedules.rs`
/// fails when they drift apart.
///
/// Points are named `<protocol>::<window>` after the race window they sit
/// in, not the function they appear in (see DESIGN.md).
pub const FAULT_POINTS: &[&str] = &[
    // raw.rs — enqueue (Listings 2–3).
    "enq::hazard_published",
    "enq_fast::post_faa",
    "enq_slow::request_published",
    "enq_slow::cell_reserved",
    "enq_slow::pre_commit",
    "help_enq::pre_reserve",
    "help_enq::top_race",
    "help_enq::pre_claim",
    "help_enq::pre_complete",
    // raw.rs — dequeue (Listing 4).
    "deq::hazard_published",
    "deq_fast::post_faa",
    "deq_slow::request_published",
    "help_deq::hazard_adopted",
    "help_deq::candidate_scan",
    "help_deq::pre_announce",
    "help_deq::pre_complete",
    "advance_index::pre_cas",
    // reclaim.rs — segment reclamation (Listing 5).
    "reclaim::elected",
    "reclaim::forward_scan",
    "reclaim::pre_update_cas",
    "reclaim::reverse_scan",
    "reclaim::pre_free",
    // raw.rs — durable-mode crash windows (DESIGN.md §12): the instant a
    // protocol effect is volatile-visible but its persist has not landed.
    // The points exist in every build (they are plain inject! sites); only
    // the crash matrix arms them with FaultAction::Crash.
    "enq_fast::deposit_unpersisted",
    "enq_slow::claim_unpersisted",
    "deq_fast::consume_unpersisted",
];
