//! Per-operation execution-path sampling for the latency observatory.
//!
//! The paper's wait-freedom argument is a *latency* argument: the helping
//! scheme bounds how long any operation can run, so tails should stay
//! bounded even when individual threads stall. To test that claim the
//! open-loop harness needs to know, per sampled operation, **which path
//! the protocol actually took** — the common one-FAA fast path, the
//! help-ring slow path, or a slow path whose request was finished by a
//! *helper* before the requester's own reservation stuck. Table 2's
//! aggregate counters can't provide this: they count paths per run, not
//! per op, so they cannot be joined with that op's measured latency.
//!
//! This module adds the minimal per-op channel: each [`crate::Handle`]
//! remembers an [`OpSample`] describing its most recent single-value
//! operation, written by the owner thread at operation epilogue (one plain
//! store into owner-local memory — no atomics, no sharing). The harness
//! reads it back through [`crate::Handle::last_op_sample`] immediately
//! after timing the operation and buckets the latency by [`OpPath`].
//!
//! Everything is gated behind the `op-sample` feature through the
//! [`op_sample!`] macro, which follows the repo's zero-overhead idiom
//! (`wfq_sync::fault::inject!`, `wfq_obs::record!`): with the feature off
//! the macro discards its tokens and expands to `()`, proven const in
//! `raw.rs` (`_OP_SAMPLE_ZERO_OVERHEAD_PROOF`) and priced by the
//! `op_sample_overhead` group of the `primitives` bench.

/// Which side of the queue a sampled operation ran on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpSide {
    /// An enqueue.
    Enq,
    /// A dequeue (including EMPTY results).
    Deq,
}

/// The execution path a sampled operation took through the protocol.
///
/// The taxonomy matches the paper's Table 2 and the PR-5 span
/// reconstruction: `Fast` is the one-FAA path (for dequeues this includes
/// the emptiness guard's `H > T` fast-out, which a handle consults after
/// its own EMPTY), `Slow` is a help-ring episode the
/// requester finished itself, and `Helped` is a slow enqueue whose request
/// a peer completed first (the `enq_slow_helped` branch — the only point
/// where the requester itself can observe cross-thread help). Slow
/// *dequeues* always report `Slow` here because `deq_slow` cannot locally
/// distinguish self-help from peer help; the span join in
/// `wfq_harness::attribution` upgrades those to `Helped` when the op's
/// reconstructed help chain is multi-hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpPath {
    /// One-FAA fast path (or the dequeue emptiness guard's fast-out).
    Fast,
    /// Help-ring slow path, finished by the requester.
    Slow,
    /// Help-ring slow path, finished by a helper.
    Helped,
}

/// What [`crate::Handle::last_op_sample`] reports about the handle's most
/// recent single-value operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSample {
    /// Operation side.
    pub side: OpSide,
    /// Execution path taken.
    pub path: OpPath,
    /// The op id the PR-5 span taxonomy keys on: for slow-path episodes
    /// the request's publish id (the requester's first failed FAA index,
    /// unique per side), for fast-path operations the cell index the op
    /// completed at. Joining with `wfq_harness::spans` is only meaningful
    /// for `Slow`/`Helped` samples.
    pub op: u64,
}

/// Whether this build compiled the sampling hooks in.
pub const SAMPLING_ENABLED: bool = cfg!(feature = "op-sample");

/// Records an [`OpSample`] on a handle node at operation epilogue.
///
/// `op_sample!(node, side, path, op)` — with feature `op-sample` this is
/// one plain store into the owner-local `last_sample` cell; without it the
/// tokens are discarded and the expansion is the unit constant (args are
/// **not** evaluated, same contract as `wfq_obs::record!`).
#[cfg(feature = "op-sample")]
macro_rules! op_sample {
    ($node:expr, $side:expr, $path:expr, $op:expr) => {
        $node.last_sample.set(Some($crate::sample::OpSample {
            side: $side,
            path: $path,
            op: $op,
        }))
    };
}

/// Records an [`OpSample`] on a handle node at operation epilogue.
///
/// This build has `op-sample` off: the macro discards its tokens.
#[cfg(not(feature = "op-sample"))]
macro_rules! op_sample {
    ($node:expr, $side:expr, $path:expr, $op:expr) => {
        ()
    };
}

pub(crate) use op_sample;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_enabled_reflects_the_feature() {
        assert_eq!(SAMPLING_ENABLED, cfg!(feature = "op-sample"));
    }

    #[cfg(not(feature = "op-sample"))]
    #[test]
    fn default_build_macro_is_a_unit_expression() {
        // Usable as a plain expression, and must not evaluate its args
        // (the diverging expression below would run otherwise). `NoNode`
        // has no `last_sample` field and is never constructed: the macro
        // must discard its node argument unexpanded.
        #[allow(dead_code)]
        struct NoNode;
        let _: () = op_sample!(NoNode, OpSide::Enq, OpPath::Fast, {
            #[allow(unreachable_code)]
            {
                if true {
                    panic!("op_sample! must not evaluate args in default builds")
                }
                0u64
            }
        });
    }
}
