//! The paper's two benchmark workloads (§5.1) and one timed iteration.
//!
//! - **enqueue–dequeue pairs**: each thread alternates enqueue and dequeue;
//!   the benchmark performs `total_ops / 2` pairs split evenly over threads.
//! - **50% enqueues**: each thread flips a uniform coin per operation.
//!
//! Between operations every thread performs a random 50–100 ns spin "work"
//! to break up long runs (one thread monopolizing the queue from its own
//! L1); the spin time is excluded from the reported throughput exactly as
//! in the paper.
//!
//! Beyond the paper's closed-loop workloads, this module also hosts the
//! **open-loop engine** ([`ArrivalSchedule`], [`OpenLoopConfig`],
//! [`run_open_loop_iteration`]): deterministic arrival schedules whose
//! intended-start timestamps are generated *ahead of execution*, so the
//! recorded latency of every op is `completion − intended_start` —
//! coordinated-omission-free by construction (a stalled generator cannot
//! silently absorb queueing delay into the load it offers; the delay shows
//! up in the next samples instead, exactly as it would for real clients).

use std::sync::Barrier;
use std::time::{Duration, Instant};

use wfq_baselines::{BenchQueue, QueueHandle};
use wfq_sync::delay::SpinDelay;
use wfq_sync::XorShift64;

use crate::attribution::{Attribution, OpClass};
use crate::histogram::Histogram;
use crate::topology;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Enqueue–dequeue pairs.
    Pairs,
    /// Enqueue or dequeue with equal odds per operation.
    FiftyEnqueues,
}

impl Workload {
    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pairs => "enqueue-dequeue pairs",
            Workload::FiftyEnqueues => "50%-enqueues",
        }
    }
}

/// Full benchmark configuration (defaults reproduce the paper, with
/// `total_ops` left to the caller to scale to the host).
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Concurrency level.
    pub threads: usize,
    /// Operations per iteration, split evenly over threads (paper: 10^7).
    pub total_ops: u64,
    /// Workload shape.
    pub workload: Workload,
    /// Inclusive bounds of the inter-operation "work" in nanoseconds
    /// (paper: 50–100; set to (0, 0) to disable).
    pub delay_ns: (u64, u64),
    /// Maximum iterations per invocation (paper: 20).
    pub max_iterations: usize,
    /// Steady-state window length (paper: 5).
    pub window: usize,
    /// Steady-state COV threshold (paper: 0.02).
    pub cov_threshold: f64,
    /// Number of invocations (paper: 10).
    pub invocations: usize,
    /// Pin threads compactly to hardware threads.
    pub pin: bool,
    /// Base PRNG seed (per-thread streams are derived from it).
    pub seed: u64,
    /// Synthetic per-operation slowdown in nanoseconds, spun *inside* the
    /// measured window — unlike `delay_ns` it is **not** work-excluded, so
    /// it lands in the reported throughput. Exists so `wfq-regress` can be
    /// integration-tested against a guaranteed regression (CI injects a few
    /// hundred ns here and asserts the gate trips).
    pub handicap_ns: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            total_ops: 1_000_000,
            workload: Workload::Pairs,
            delay_ns: (50, 100),
            max_iterations: 20,
            window: 5,
            cov_threshold: 0.02,
            invocations: 10,
            pin: true,
            seed: 0xC0FFEE,
            handicap_ns: 0,
        }
    }
}

impl BenchConfig {
    /// The paper's exact parameters (10^7 ops — slow on small hosts).
    pub fn paper(workload: Workload) -> Self {
        Self {
            total_ops: 10_000_000,
            workload,
            ..Self::default()
        }
    }

    /// A configuration scaled for quick runs (CI, laptops).
    pub fn quick(workload: Workload) -> Self {
        Self {
            total_ops: 200_000,
            workload,
            max_iterations: 8,
            invocations: 3,
            ..Self::default()
        }
    }
}

/// Runs one timed iteration of the workload against `q`; returns
/// throughput in Mops/s with the injected work time excluded. The time
/// excluded is each spin's measured duration, not the delay it was asked
/// for: a spin that overshoots (preempted) or undershoots (miscalibrated)
/// its request then neither charges nor credits the queue.
///
/// Values enqueued are `thread_tag | counter` and therefore unique, so the
/// same workload drivers double as checker workloads.
pub fn run_iteration<Q: BenchQueue>(q: &Q, cfg: &BenchConfig, delay: &SpinDelay, round: u64) -> f64 {
    let threads = cfg.threads.max(1);
    let per_thread = (cfg.total_ops / threads as u64).max(2);
    let barrier = Barrier::new(threads);
    // Per-thread effective (work-excluded) nanoseconds.
    let mut effective_ns = vec![0u64; threads];

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let q = &q;
                let barrier = &barrier;
                let cfg = &cfg;
                s.spawn(move || {
                    if cfg.pin {
                        topology::pin_to_cpu(t);
                    }
                    let mut h = q.register();
                    let mut rng =
                        XorShift64::for_stream(cfg.seed ^ round.wrapping_mul(0x9E37), t as u64);
                    // Unique-value tag: thread in the top bits, 1-based
                    // counter below. Stays clear of 0 and u64::MAX.
                    let tag = ((t as u64 + 1) << 40) | 1;
                    let mut counter = 0u64;
                    let (dlo, dhi) = cfg.delay_ns;
                    let handicap = cfg.handicap_ns;
                    let mut delay_ns_total = 0u64;
                    let spin = |rng: &mut XorShift64, total: &mut u64| {
                        if handicap > 0 {
                            // Deliberately not timed: the handicap must
                            // survive work exclusion.
                            delay.wait_ns(handicap);
                        }
                        if dhi > 0 {
                            let ns = rng.next_in(dlo, dhi);
                            let t = Instant::now();
                            delay.wait_ns(ns);
                            *total += t.elapsed().as_nanos() as u64;
                        }
                    };

                    barrier.wait();
                    let start = Instant::now();
                    match cfg.workload {
                        Workload::Pairs => {
                            let pairs = per_thread / 2;
                            for _ in 0..pairs {
                                counter += 1;
                                h.enqueue(tag + counter);
                                spin(&mut rng, &mut delay_ns_total);
                                let _ = h.dequeue();
                                spin(&mut rng, &mut delay_ns_total);
                            }
                        }
                        Workload::FiftyEnqueues => {
                            for _ in 0..per_thread {
                                if rng.coin() {
                                    counter += 1;
                                    h.enqueue(tag + counter);
                                } else {
                                    let _ = h.dequeue();
                                }
                                spin(&mut rng, &mut delay_ns_total);
                            }
                        }
                    }
                    let elapsed = start.elapsed().as_nanos() as u64;
                    elapsed.saturating_sub(delay_ns_total).max(1)
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            effective_ns[t] = h.join().expect("benchmark thread panicked");
        }
    });

    // Throughput over the slowest thread's effective time — every thread
    // performed per_thread ops (rounded down to pairs for Pairs).
    let ops_done: u64 = match cfg.workload {
        Workload::Pairs => (per_thread / 2) * 2 * threads as u64,
        Workload::FiftyEnqueues => per_thread * threads as u64,
    };
    let max_ns = *effective_ns.iter().max().unwrap() as f64;
    ops_done as f64 / max_ns * 1e3 // ops/ns → Mops/s
}

// ----------------------------------------------------------------------
// Open-loop engine (latency observatory)
// ----------------------------------------------------------------------

/// Deterministic arrival-schedule shapes for the open-loop engine. All
/// three generate the full timestamp vector ahead of execution from the
/// seeded PRNG, so a run is reproducible and coordinated-omission-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalSchedule {
    /// Evenly spaced arrivals at exactly the offered rate.
    FixedRate,
    /// Poisson process: exponential inter-arrival gaps (`−ln(U)·mean`),
    /// the classic open-system client model.
    Poisson,
    /// On/off bursts: [`BURST_PHASE_NS`] of arrivals at **twice** the
    /// offered rate, then an equal silent phase — same average rate as
    /// `FixedRate`, but the queue must absorb 2× transients.
    Bursty,
}

/// Length of one on (and one off) phase of [`ArrivalSchedule::Bursty`].
pub const BURST_PHASE_NS: u64 = 1_000_000;

impl ArrivalSchedule {
    /// Display/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalSchedule::FixedRate => "fixed",
            ArrivalSchedule::Poisson => "poisson",
            ArrivalSchedule::Bursty => "bursty",
        }
    }

    /// Parses a CLI name (`fixed`, `poisson`, `bursty`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fixed" => Some(ArrivalSchedule::FixedRate),
            "poisson" => Some(ArrivalSchedule::Poisson),
            "bursty" => Some(ArrivalSchedule::Bursty),
            _ => None,
        }
    }
}

/// Generates `n` intended-start offsets (nanoseconds from the iteration
/// epoch, nondecreasing) for one generator thread offering
/// `rate_ops_per_sec`. Generated entirely before the run starts: the
/// schedule is what an *independent* open-system client population would
/// offer, unperturbed by how the queue responds.
pub fn gen_arrivals(
    schedule: ArrivalSchedule,
    rate_ops_per_sec: f64,
    n: usize,
    seed: u64,
) -> Vec<u64> {
    assert!(rate_ops_per_sec > 0.0, "offered rate must be positive");
    let mean_gap = 1e9 / rate_ops_per_sec; // ns between arrivals
    let mut out = Vec::with_capacity(n);
    match schedule {
        ArrivalSchedule::FixedRate => {
            for i in 0..n {
                out.push((i as f64 * mean_gap) as u64);
            }
        }
        ArrivalSchedule::Poisson => {
            let mut rng = XorShift64::for_stream(seed, 0x0A12);
            let mut t = 0.0f64;
            for _ in 0..n {
                // U in (0, 1]: 53 mantissa bits, never exactly zero.
                let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
                t += -u.ln() * mean_gap;
                out.push(t as u64);
            }
        }
        ArrivalSchedule::Bursty => {
            // Arrivals at 2× rate during on-phases only: walk "on time" at
            // half the mean gap and fold it into the on/off wall clock.
            let gap2 = mean_gap / 2.0;
            for i in 0..n {
                let on_time = (i as f64 * gap2) as u64;
                let phase = on_time / BURST_PHASE_NS;
                out.push(phase * 2 * BURST_PHASE_NS + on_time % BURST_PHASE_NS);
            }
        }
    }
    out
}

/// Configuration of one open-loop measurement (one backend, one offered
/// rate).
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Generator threads; the offered rate is split evenly across them.
    pub threads: usize,
    /// Aggregate offered arrival rate, operations per second.
    pub rate_ops_per_sec: f64,
    /// Total operations per iteration, split evenly over threads.
    pub total_ops: u64,
    /// Arrival schedule shape.
    pub schedule: ArrivalSchedule,
    /// Invocations (fresh queue each; quantiles get a Student-t CI).
    pub invocations: usize,
    /// Pin generator threads compactly to hardware threads.
    pub pin: bool,
    /// Base PRNG seed (per-thread streams derive from it).
    pub seed: u64,
    /// Synthetic per-op slowdown spun *inside* the measured latency (the
    /// regression-gate trip wire; mirrors [`BenchConfig::handicap_ns`]).
    pub handicap_ns: u64,
    /// Overload mode: a 2:1 enqueue-biased mix driven through
    /// `try_enqueue`, so a fixed-capacity backend (SCQ) reports **drops**
    /// and unbounded ones report **queue growth** (`backlog`) instead of
    /// the balanced alternating mix.
    pub overload: bool,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            threads: 2,
            rate_ops_per_sec: 100_000.0,
            total_ops: 40_000,
            schedule: ArrivalSchedule::FixedRate,
            invocations: 5,
            pin: true,
            seed: 0xC0FFEE,
            handicap_ns: 0,
            overload: false,
        }
    }
}

/// Result of one open-loop iteration.
#[derive(Debug, Clone)]
pub struct OpenLoopIteration {
    /// Coordinated-omission-free op latencies (`completion − intended`).
    pub latency: Histogram,
    /// Per-path latency decomposition (empty unless the backend's handle
    /// counts its operations' paths, as the wait-free queue's does).
    pub attribution: Attribution,
    /// Completed ops per second over the iteration wall time.
    pub achieved_rate: f64,
    /// Largest generator lag behind the schedule (actual − intended start).
    pub max_lag_ns: u64,
    /// Generator lag at the final arrival — the saturation signal: a
    /// stable system ends near zero, a saturated one ends with lag
    /// comparable to the whole intended span.
    pub end_lag_ns: u64,
    /// Intended makespan of the schedule (last arrival offset).
    pub intended_span_ns: u64,
    /// Rejected `try_enqueue`s (overload mode on a fixed-capacity backend).
    pub drops: u64,
    /// Enqueues delivered minus dequeues delivered: end-of-run queue
    /// length, the open-system queue-growth signal.
    pub backlog: i64,
}

impl OpenLoopIteration {
    /// Whether the generator could not keep up with its own schedule:
    /// final lag above 10% of the intended makespan.
    pub fn saturated(&self) -> bool {
        self.end_lag_ns as f64 > self.intended_span_ns as f64 * 0.10
    }
}

/// Waits until `intended` ns after `start`, sleeping for coarse waits and
/// spinning the final stretch; returns the actual offset when the wait
/// ended. Never waits when already past due (the lag is *measured*, not
/// absorbed — that is the whole point of the open loop).
#[inline]
fn wait_until(start: Instant, intended: u64) -> u64 {
    let mut now = start.elapsed().as_nanos() as u64;
    while now < intended {
        let remaining = intended - now;
        if remaining > 500_000 {
            // Leave a spin margin: sleep wakeups overshoot by tens of µs.
            std::thread::sleep(Duration::from_nanos(remaining - 200_000));
        } else {
            std::hint::spin_loop();
        }
        now = start.elapsed().as_nanos() as u64;
    }
    now
}

/// Runs one open-loop iteration against `q`: every generator thread
/// pre-computes its arrival schedule, then executes one op per arrival at
/// (or as soon as possible after) its intended start, alternating
/// enqueue/dequeue (or the 2:1 overload mix). Latency is recorded against
/// the *intended* start; the path each op took, read from the handle's
/// counters after the op's latency is taken, is recorded into the
/// attribution.
pub fn run_open_loop_iteration<Q: BenchQueue>(
    q: &Q,
    cfg: &OpenLoopConfig,
    delay: &SpinDelay,
    round: u64,
) -> OpenLoopIteration {
    let threads = cfg.threads.max(1);
    let per_thread = (cfg.total_ops / threads as u64).max(2) as usize;
    let per_thread_rate = cfg.rate_ops_per_sec / threads as f64;
    let barrier = Barrier::new(threads);

    struct ThreadOut {
        latency: Histogram,
        attribution: Attribution,
        enq_done: u64,
        deq_done: u64,
        drops: u64,
        max_lag_ns: u64,
        end_lag_ns: u64,
        intended_span_ns: u64,
        wall_ns: u64,
    }

    let mut outs: Vec<Option<ThreadOut>> = (0..threads).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let q = &q;
                let barrier = &barrier;
                let cfg = &cfg;
                s.spawn(move || {
                    if cfg.pin {
                        topology::pin_to_cpu(t);
                    }
                    // The schedule is fully materialized *before* the run.
                    let arrivals = gen_arrivals(
                        cfg.schedule,
                        per_thread_rate,
                        per_thread,
                        cfg.seed ^ round.wrapping_mul(0x9E37) ^ ((t as u64) << 32),
                    );
                    let mut h = q.register();
                    let mut counted = h.stats();
                    let tag = ((t as u64 + 1) << 40) | 1;
                    let mut counter = 0u64;
                    let mut o = ThreadOut {
                        latency: Histogram::new(),
                        attribution: Attribution::new(),
                        enq_done: 0,
                        deq_done: 0,
                        drops: 0,
                        max_lag_ns: 0,
                        end_lag_ns: 0,
                        intended_span_ns: *arrivals.last().unwrap_or(&0),
                        wall_ns: 0,
                    };

                    barrier.wait();
                    let start = Instant::now();
                    for (i, &intended) in arrivals.iter().enumerate() {
                        let actual = wait_until(start, intended);
                        let lag = actual.saturating_sub(intended);
                        // Overload mode: 2 enqueues per dequeue, fallible.
                        let is_enq = if cfg.overload { i % 3 != 2 } else { i % 2 == 0 };
                        if is_enq {
                            counter += 1;
                            if cfg.overload {
                                match h.try_enqueue(tag + counter) {
                                    Ok(()) => o.enq_done += 1,
                                    Err(_) => o.drops += 1,
                                }
                            } else {
                                h.enqueue(tag + counter);
                                o.enq_done += 1;
                            }
                        } else if h.dequeue().is_some() {
                            o.deq_done += 1;
                        }
                        if cfg.handicap_ns > 0 {
                            // Inside the measured latency, like the op.
                            delay.wait_ns(cfg.handicap_ns);
                        }
                        let done = start.elapsed().as_nanos() as u64;
                        let ns = done.saturating_sub(intended).max(1);
                        o.latency.record(ns);
                        let now = h.stats();
                        if let Some(class) = OpClass::of(&counted, &now) {
                            o.attribution.record(class, ns);
                        }
                        counted = now;
                        o.max_lag_ns = o.max_lag_ns.max(lag);
                        o.end_lag_ns = lag;
                    }
                    o.wall_ns = start.elapsed().as_nanos() as u64;
                    o
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            outs[t] = Some(h.join().expect("open-loop thread panicked"));
        }
    });

    let mut latency = Histogram::new();
    let mut attribution = Attribution::new();
    let (mut enq, mut deq, mut drops) = (0u64, 0u64, 0u64);
    let (mut max_lag, mut end_lag, mut span, mut wall) = (0u64, 0u64, 0u64, 0u64);
    for o in outs.into_iter().flatten() {
        latency.merge(&o.latency);
        attribution.merge(&o.attribution);
        enq += o.enq_done;
        deq += o.deq_done;
        drops += o.drops;
        max_lag = max_lag.max(o.max_lag_ns);
        end_lag = end_lag.max(o.end_lag_ns);
        span = span.max(o.intended_span_ns);
        wall = wall.max(o.wall_ns);
    }
    let ops = latency.count();
    OpenLoopIteration {
        latency,
        attribution,
        achieved_rate: ops as f64 / (wall.max(1) as f64 / 1e9),
        max_lag_ns: max_lag,
        end_lag_ns: end_lag,
        intended_span_ns: span.max(1),
        drops,
        backlog: enq as i64 - deq as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfq_baselines::MutexQueue;
    use wfqueue::RawQueue;

    fn tiny(workload: Workload, threads: usize) -> BenchConfig {
        BenchConfig {
            threads,
            total_ops: 20_000,
            workload,
            delay_ns: (0, 0),
            pin: false,
            ..Default::default()
        }
    }

    #[test]
    fn pairs_iteration_reports_positive_throughput() {
        let q = <RawQueue as BenchQueue>::new();
        let delay = SpinDelay::calibrate();
        let mops = run_iteration(&q, &tiny(Workload::Pairs, 1), &delay, 0);
        assert!(mops > 0.0);
    }

    #[test]
    fn fifty_iteration_runs_multithreaded() {
        let q = <MutexQueue as BenchQueue>::new();
        let delay = SpinDelay::calibrate();
        let mops = run_iteration(&q, &tiny(Workload::FiftyEnqueues, 3), &delay, 1);
        assert!(mops > 0.0);
    }

    #[test]
    fn delay_exclusion_keeps_throughput_sane() {
        // With a large injected delay, excluded throughput should still be
        // within an order of magnitude of the no-delay run (not collapsed).
        // Each side is the median of three iterations: a scheduler
        // preemption that lands between two spins, outside every timed
        // spin, is charged to the queue, and one such preemption (a few
        // ms) outweighs the whole 3-ms run's queue time.
        let delay = SpinDelay::calibrate();
        let median = |cfg: &BenchConfig| {
            let mut runs: Vec<f64> = (0..3)
                .map(|r| run_iteration(&<MutexQueue as BenchQueue>::new(), cfg, &delay, r))
                .collect();
            runs.sort_by(f64::total_cmp);
            runs[1]
        };
        let no_delay = median(&tiny(Workload::Pairs, 1));
        let mut cfg = tiny(Workload::Pairs, 1);
        cfg.total_ops = 4_000;
        cfg.delay_ns = (500, 1000);
        let with_delay = median(&cfg);
        assert!(
            with_delay > no_delay / 20.0,
            "delay exclusion broken: {with_delay} vs {no_delay}"
        );
    }

    #[test]
    fn an_undershooting_spin_cannot_inflate_throughput() {
        // A rate far below the spin loop's real speed turns every 500–1000
        // ns request into a single iteration. Subtracting the requested
        // delay would then erase the run; subtracting the measured spin
        // leaves the queue's own time, so the result stays near the
        // no-delay run's (the best of three, against preemption).
        let undershoot = SpinDelay::with_rate_fp(1);
        let no_delay = (0..3)
            .map(|r| {
                let q = <MutexQueue as BenchQueue>::new();
                run_iteration(&q, &tiny(Workload::Pairs, 1), &undershoot, r)
            })
            .fold(0.0, f64::max);
        let mut cfg = tiny(Workload::Pairs, 1);
        cfg.delay_ns = (500, 1000);
        let q = <MutexQueue as BenchQueue>::new();
        let with_delay = run_iteration(&q, &cfg, &undershoot, 3);
        assert!(
            with_delay < 2.0 * no_delay,
            "an undershooting spin inflated throughput: {with_delay} vs {no_delay}"
        );
    }

    #[test]
    fn workload_names() {
        assert_eq!(Workload::Pairs.name(), "enqueue-dequeue pairs");
        assert_eq!(Workload::FiftyEnqueues.name(), "50%-enqueues");
    }

    #[test]
    fn handicap_is_not_work_excluded() {
        // A large per-op handicap must show up in the reported throughput
        // (this is what lets CI manufacture a certain regression), whereas
        // the same magnitude of `delay_ns` would be excluded.
        let delay = SpinDelay::calibrate();
        let q = <MutexQueue as BenchQueue>::new();
        let mut cfg = tiny(Workload::Pairs, 1);
        cfg.total_ops = 4_000;
        let clean = run_iteration(&q, &cfg, &delay, 4);
        cfg.handicap_ns = 5_000;
        let q2 = <MutexQueue as BenchQueue>::new();
        let handicapped = run_iteration(&q2, &cfg, &delay, 4);
        assert!(
            handicapped < clean / 2.0,
            "handicap must slow measured throughput: {handicapped} vs {clean}"
        );
    }

    #[test]
    fn config_presets() {
        assert_eq!(BenchConfig::paper(Workload::Pairs).total_ops, 10_000_000);
        assert!(BenchConfig::quick(Workload::Pairs).total_ops < 1_000_000);
    }

    // ------------------------------------------------------------------
    // Open-loop engine
    // ------------------------------------------------------------------

    #[test]
    fn schedules_are_nondecreasing_and_deterministic() {
        for sched in [
            ArrivalSchedule::FixedRate,
            ArrivalSchedule::Poisson,
            ArrivalSchedule::Bursty,
        ] {
            let a = gen_arrivals(sched, 1e6, 500, 42);
            let b = gen_arrivals(sched, 1e6, 500, 42);
            assert_eq!(a, b, "{} must be seed-deterministic", sched.name());
            assert!(
                a.windows(2).all(|w| w[0] <= w[1]),
                "{} arrivals must be nondecreasing",
                sched.name()
            );
            assert_eq!(a.len(), 500);
        }
        // Different seeds change the Poisson draw but not the fixed grid.
        assert_ne!(
            gen_arrivals(ArrivalSchedule::Poisson, 1e6, 100, 1),
            gen_arrivals(ArrivalSchedule::Poisson, 1e6, 100, 2)
        );
        assert_eq!(
            gen_arrivals(ArrivalSchedule::FixedRate, 1e6, 100, 1),
            gen_arrivals(ArrivalSchedule::FixedRate, 1e6, 100, 2)
        );
    }

    #[test]
    fn schedules_hit_the_offered_rate_on_average() {
        // n arrivals at rate r must span ~n/r seconds for every shape.
        // (n is large enough that Bursty completes several on/off cycles —
        // its average-rate property only holds across whole cycles.)
        let n = 40_000usize;
        let rate = 2e6; // 2 Mops/s → 500 ns mean gap → span ~20 ms
        for sched in [
            ArrivalSchedule::FixedRate,
            ArrivalSchedule::Poisson,
            ArrivalSchedule::Bursty,
        ] {
            let a = gen_arrivals(sched, rate, n, 7);
            let span = *a.last().unwrap() as f64;
            let expect = n as f64 / rate * 1e9;
            assert!(
                span > expect * 0.8 && span < expect * 1.3,
                "{}: span {span} vs expected {expect}",
                sched.name()
            );
        }
    }

    #[test]
    fn bursty_schedule_has_silent_phases() {
        let a = gen_arrivals(ArrivalSchedule::Bursty, 1e6, 5_000, 0);
        // No arrival may land in an off phase [PHASE, 2·PHASE) of its cycle.
        assert!(a.iter().all(|&t| (t % (2 * BURST_PHASE_NS)) < BURST_PHASE_NS));
        // And the on-phase arrival spacing is twice the offered rate.
        let on_gaps: Vec<u64> = a
            .windows(2)
            .filter(|w| w[1] - w[0] < BURST_PHASE_NS)
            .map(|w| w[1] - w[0])
            .collect();
        let mean_gap = on_gaps.iter().sum::<u64>() as f64 / on_gaps.len() as f64;
        assert!((mean_gap - 500.0).abs() < 5.0, "on-phase gap {mean_gap}");
    }

    #[test]
    fn schedule_names_roundtrip() {
        for sched in [
            ArrivalSchedule::FixedRate,
            ArrivalSchedule::Poisson,
            ArrivalSchedule::Bursty,
        ] {
            assert_eq!(ArrivalSchedule::parse(sched.name()), Some(sched));
        }
        assert_eq!(ArrivalSchedule::parse("nope"), None);
    }

    fn open_cfg(threads: usize) -> OpenLoopConfig {
        OpenLoopConfig {
            threads,
            rate_ops_per_sec: 2e6, // far under closed-loop capacity
            total_ops: 4_000,
            invocations: 1,
            pin: false,
            ..Default::default()
        }
    }

    #[test]
    fn open_loop_iteration_records_one_latency_per_arrival() {
        let q = <RawQueue as BenchQueue>::new();
        let delay = SpinDelay::calibrate();
        let cfg = open_cfg(2);
        let it = run_open_loop_iteration(&q, &cfg, &delay, 0);
        let expect = (cfg.total_ops / 2).max(2) * 2;
        assert_eq!(it.latency.count(), expect, "one sample per arrival");
        assert!(it.achieved_rate > 0.0);
        assert!(it.intended_span_ns > 0);
        assert_eq!(it.drops, 0, "balanced mode never drops");
        assert!(it.attribution.counts_are_sound());
    }

    #[test]
    fn open_loop_overload_mode_grows_backlog() {
        // 2:1 enqueue bias on an unbounded queue: no drops, positive
        // backlog of about a third of the ops.
        let q = <MutexQueue as BenchQueue>::new();
        let delay = SpinDelay::calibrate();
        let mut cfg = open_cfg(1);
        cfg.overload = true;
        let it = run_open_loop_iteration(&q, &cfg, &delay, 1);
        assert_eq!(it.drops, 0);
        assert!(
            it.backlog > it.latency.count() as i64 / 5,
            "overload must grow the queue: backlog {}",
            it.backlog
        );
    }

    #[test]
    fn open_loop_handicap_inflates_measured_latency() {
        let delay = SpinDelay::calibrate();
        let mut cfg = open_cfg(1);
        cfg.total_ops = 2_000;
        let q = <MutexQueue as BenchQueue>::new();
        let clean = run_open_loop_iteration(&q, &cfg, &delay, 2);
        cfg.handicap_ns = 20_000;
        // Slow the offered rate so the handicap cannot saturate the run.
        cfg.rate_ops_per_sec = 20_000.0;
        let q2 = <MutexQueue as BenchQueue>::new();
        let slow = run_open_loop_iteration(&q2, &cfg, &delay, 2);
        assert!(
            slow.latency.quantile(0.5) > clean.latency.quantile(0.5) + 5_000,
            "handicap must land in measured latency: {} vs {}",
            slow.latency.quantile(0.5),
            clean.latency.quantile(0.5)
        );
    }

    #[test]
    fn open_loop_saturation_is_detected_at_impossible_rates() {
        // 1 ns between arrivals with a 5 µs handicap per op: the generator
        // cannot keep up; the final lag must dominate the intended span.
        let q = <MutexQueue as BenchQueue>::new();
        let delay = SpinDelay::calibrate();
        let mut cfg = open_cfg(1);
        cfg.total_ops = 2_000;
        cfg.rate_ops_per_sec = 1e9;
        cfg.handicap_ns = 5_000;
        let it = run_open_loop_iteration(&q, &cfg, &delay, 3);
        assert!(it.saturated(), "end lag {} span {}", it.end_lag_ns, it.intended_span_ns);
        assert!(it.max_lag_ns >= it.end_lag_ns);
    }
}
