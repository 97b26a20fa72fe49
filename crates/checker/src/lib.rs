//! History recording and FIFO linearizability checking.
//!
//! The paper's §4 proves the queue linearizable by constructing an explicit
//! linearization procedure. This crate provides the *testing* counterpart:
//! record real concurrent executions and check them against the sequential
//! FIFO specification.
//!
//! Two checkers with complementary cost/completeness trade-offs:
//!
//! - [`linearize::check`] — a Wing–Gong-style exhaustive search with
//!   memoization (Lowe's optimization). Sound **and** complete: it accepts
//!   a history iff a valid linearization exists. Exponential worst case;
//!   use on small histories (≤ ~100 operations).
//! - [`invariants::check_necessary`] — linear/near-linear *necessary*
//!   conditions (value conservation, uniqueness, real-time FIFO order,
//!   EMPTY witnesses). Any violation proves non-linearizability; passing
//!   does not prove linearizability. Use on large stress histories.
//!
//! Values must be unique per history (the harness tags them), which is what
//! makes the queue specification efficiently checkable.
//!
//! A third, orthogonal checker — [`recovery::certify_recovery`] — certifies
//! *detectable recovery* of the durable queue mode: after a crash, the
//! durable image (not the dead volatile history) is the authoritative
//! record, and every pre-crash enqueue must be delivered exactly once or
//! provably rejected.

#![warn(missing_docs)]

pub mod history;
pub mod invariants;
pub mod linearize;
pub mod recovery;

pub use history::{History, OpKind, Operation, Recorder, ThreadRecorder};
pub use invariants::{check_necessary, Violation};
pub use linearize::{check as check_linearizable, CheckResult};
pub use recovery::{
    certify_recovery, DurableFate, RecoveryCertificate, RecoveryHistory, RecoveryViolation,
};
