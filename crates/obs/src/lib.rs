//! # wfq-obs — the benchmark's TSC clock
//!
//! [`clock::raw_now`] takes a raw timestamp (`rdtsc` on x86_64, an
//! `Instant` delta elsewhere) cheap enough to bracket one queue operation,
//! and [`clock::raw_to_ns`] converts readings to nanoseconds, calibrated
//! against the monotonic OS clock. Perfbench's span recorder reads it.
//!
//! Queue metrics live elsewhere: `wfqueue::QueueStats` carries the paper's
//! Table 2 path counters, and `wfq-harness::obs` renders them in the
//! Prometheus text format.

#![warn(missing_docs)]

pub mod clock;
