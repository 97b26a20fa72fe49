//! Statistically rigorous benchmark harness reproducing the paper's
//! evaluation methodology (§5.1).
//!
//! The paper follows Georges et al. (OOPSLA 2007):
//!
//! 1. **Iterations**: within one invocation, run the benchmark up to 20
//!    times; detect *steady state* when the coefficient of variation of the
//!    most recent 5 iterations drops below 0.02 (else take the 5-iteration
//!    window with the lowest COV); report the mean of that window.
//! 2. **Invocations**: repeat for 10 invocations (here: fresh queue + fresh
//!    threads per invocation; the paper used fresh processes — see
//!    DESIGN.md substitutions) and report the mean with a 95% confidence
//!    interval from Student's t distribution (n − 1 degrees of freedom).
//! 3. **Workloads**: *enqueue–dequeue pairs* and *50% enqueues*, with a
//!    random 50–100 ns spin "work" between operations whose time is
//!    excluded from the reported throughput, and threads pinned compactly
//!    to hardware threads.
//!
//! The entry points are [`run_series`] (one queue, a sweep of thread
//! counts → a Figure 2 line) and [`breakdown::run_breakdown`] (Table 2).

#![warn(missing_docs)]

pub mod attribution;
pub mod breakdown;
pub mod histogram;
pub mod json;
pub mod measure;
pub mod obs;
pub mod regress;
pub mod report;
pub mod stats;
pub mod topology;
pub mod workload;

pub use attribution::{Attribution, OpClass};
pub use measure::{measure_open_loop, measure_queue, Measurement, OpenLoopMeasurement};
pub use obs::{render_latency_prometheus, render_prometheus, write_metrics};
pub use report::{
    render_csv, render_json, render_latency_json, render_markdown, LatencyPoint, LatencySeries,
    Series, SeriesPoint,
};
pub use workload::{ArrivalSchedule, BenchConfig, OpenLoopConfig, Workload};

use wfq_baselines::BenchQueue;

/// Runs a full thread sweep for one queue type: each entry of `threads` is
/// measured with the paper's full invocation/iteration protocol.
pub fn run_series<Q: BenchQueue>(threads: &[usize], cfg: &BenchConfig) -> Series {
    let mut points = Vec::new();
    for &t in threads {
        let mut cfg_t = cfg.clone();
        cfg_t.threads = t;
        let m = measure_queue::<Q>(&cfg_t);
        points.push(SeriesPoint {
            threads: t,
            mean_mops: m.mean,
            ci_half: m.ci_half,
        });
    }
    Series {
        name: Q::NAME.to_string(),
        points,
    }
}
