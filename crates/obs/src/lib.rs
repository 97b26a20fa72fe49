//! # wfq-obs — flight recorder, metrics plumbing, starvation watchdog
//!
//! Observability for the wait-free queue's *protocols*, not just its
//! throughput. The paper's evaluation (§5, Table 2) is built on counting
//! what the protocol did — fast vs. slow path, helping, cleanup — and
//! `wfqueue::QueueStats` reproduces those aggregates; this crate answers
//! the question an aggregate cannot: **what happened, in what order, on
//! which thread** when a fuzz seed fails or a benchmark regresses.
//!
//! Three pieces:
//!
//! - **Flight recorder** ([`record!`], [`drain`]): each thread running
//!   instrumented protocol code owns a fixed-size SPSC event ring written
//!   with relaxed stores and raw TSC-or-`Instant` timestamps. Rings
//!   overwrite oldest-first, so after a failure each thread holds the last
//!   few thousand protocol steps it took. [`chrome_trace_json`] serializes
//!   a drain into Chrome trace-event JSON loadable in `chrome://tracing`
//!   or [Perfetto](https://ui.perfetto.dev).
//! - **Progress epochs + starvation watchdog** ([`Watchdog`]): span
//!   enter/exit events maintain three per-recorder words (slow-path entry
//!   time, slow-path kind, completed-op epoch); a sampling thread reports
//!   any thread stuck inside one slow-path op beyond a threshold.
//! - **The `trace` feature gate**: without it, [`record!`] expands to
//!   literally nothing — provably: the expansion is a valid constant
//!   expression, which no atomic store, TSC read, or thread-local access
//!   is (the same const-proof trick as `wfq_sync::fault`, whose runtime
//!   twin lives in the `primitives` bench). The drain/serialize/watchdog
//!   API surface compiles in both modes (a drain is simply empty), so
//!   tools can be feature-agnostic.
//!
//! Prometheus-style metrics exposition lives in `wfq-harness::obs` (it
//! needs `QueueStats` from the core crate, which this crate deliberately
//! does not depend on — the recorder must be linkable *from* the core).

#![warn(missing_docs)]

pub mod chrome;
pub mod clock;
mod event;
mod recorder;
mod ring;
pub mod watchdog;

pub use chrome::chrome_trace_json;
pub use event::{Event, EventKind, HandleTrace, ALL_KINDS};
pub use recorder::{
    drain, mark_ns, recorder_count, register_current_thread, resident_events, RecorderShared,
    DEFAULT_RING_CAPACITY, RING_CAPACITY_ENV,
};
pub use watchdog::{StallReport, Watchdog, WatchdogConfig};

/// Whether this build has the flight-recorder runtime compiled in.
pub const ENABLED: bool = cfg!(feature = "trace");

/// Records a typed protocol event on the calling thread's flight recorder.
///
/// Expands to `()` in the default build — the arguments are not even
/// evaluated; with the `trace` feature it timestamps the event and pushes
/// it into the thread's ring (creating and registering the recorder on
/// first use).
///
/// The optional third argument is the causal operation id (the slow-path
/// request's publish id); the two-argument form records op 0 (no episode).
///
/// ```
/// use wfq_obs::{record, EventKind};
/// record!(EventKind::EnqFast, 42u64);
/// record!(EventKind::EnqSlowEnter, 42u64, 42u64);
/// ```
#[macro_export]
#[cfg(not(feature = "trace"))]
macro_rules! record {
    ($kind:expr, $arg:expr) => {
        ()
    };
    ($kind:expr, $arg:expr, $op:expr) => {
        ()
    };
}

/// Records a typed protocol event on the calling thread's flight recorder.
///
/// This build has `trace` enabled: every expansion takes a raw timestamp
/// and appends to the calling thread's event ring. The optional third
/// argument is the causal operation id (0 when omitted).
#[macro_export]
#[cfg(feature = "trace")]
macro_rules! record {
    ($kind:expr, $arg:expr) => {
        $crate::rt_record($kind, $arg as u64, 0u64)
    };
    ($kind:expr, $arg:expr, $op:expr) => {
        $crate::rt_record($kind, $arg as u64, $op as u64)
    };
}

/// Runtime behind [`record!`] in `trace` builds. Not part of the stable
/// API; call the macro instead.
#[cfg(feature = "trace")]
#[doc(hidden)]
pub use recorder::record as rt_record;

// Zero-overhead guard, statically checked (the mirror of
// `wfq_sync::fault::_ZERO_OVERHEAD_PROOF`): with the feature off, the
// macro's expansion must be a constant expression. Thread-local access,
// TSC reads, and atomic stores are not permitted in constants, so this
// item compiling proves the default build's instrumented fast paths carry
// no trace of the recorder. The runtime twin is the `inject_overhead`
// group of the `primitives` bench.
#[cfg(not(feature = "trace"))]
const _ZERO_OVERHEAD_PROOF: () = {
    record!(EventKind::EnqFast, 0u64);
    record!(EventKind::EnqSlowEnter, 0u64, 0u64);
};

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_reflects_the_feature() {
        assert_eq!(super::ENABLED, cfg!(feature = "trace"));
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn default_build_macro_is_a_unit_expression() {
        // "Unused" precisely because the macro discards its tokens.
        #[allow(unused_imports)]
        use super::EventKind;
        // Usable as a plain expression…
        let unit: () = record!(EventKind::DeqFast, 1u64);
        // …and in const position — and it must not evaluate its arguments
        // (the diverging expression below would run otherwise).
        let _: () = record!(EventKind::DeqFast, {
            #[allow(unreachable_code)]
            {
                if true {
                    panic!("record! must not evaluate args in default builds")
                }
                0u64
            }
        });
        const IN_CONST: () = record!(EventKind::EnqFast, 0u64);
        assert_eq!(unit, IN_CONST);
        // The three-argument (op-carrying) form is equally inert.
        let _: () = record!(EventKind::DeqSlowEnter, 1u64, {
            #[allow(unreachable_code)]
            {
                if true {
                    panic!("record! must not evaluate the op in default builds")
                }
                0u64
            }
        });
        const OP_IN_CONST: () = record!(EventKind::DeqSlowEnter, 0u64, 0u64);
        assert_eq!(unit, OP_IN_CONST);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn macro_records_into_the_thread_recorder() {
        use super::*;
        std::thread::spawn(|| {
            let before = recorder_count();
            record!(EventKind::CleanerElected, 0xC0FFEE_u64);
            record!(EventKind::SegFree, 3u64, 11u64);
            assert!(recorder_count() > before);
            // Tests share the process-global registry; find our trace by
            // the marker argument rather than by position.
            let traces = drain();
            let mine = traces
                .iter()
                .find(|t| {
                    t.events
                        .iter()
                        .any(|e| e.kind == EventKind::CleanerElected && e.arg == 0xC0FFEE)
                })
                .expect("registered by first record!");
            let seg_free = mine
                .events
                .iter()
                .find(|e| e.kind == EventKind::SegFree)
                .expect("second record! landed");
            assert_eq!((seg_free.arg, seg_free.op), (3, 11));
        })
        .join()
        .unwrap();
    }
}
