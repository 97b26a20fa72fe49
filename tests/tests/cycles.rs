//! Cycle-ledger integration: the perf-counter layer's graceful
//! degradation contract (every build) and the phase ledger's coverage of
//! real queue operations (`--features cycles`).
//!
//! The degradation tests are the acceptance criterion for containers and
//! CI runners without a vPMU or with `perf_event_paranoid` locked down:
//! the whole suite must run — and these tests must pass — with
//! `WFQ_PERF_DENY=1` exported, and nothing may panic when
//! `perf_event_open` is denied.

use std::sync::Mutex;

use wfq_obs::{CounterGroup, CounterKind, PerfStatus, ALL_COUNTERS, PERF_DENY_ENV};

/// Serializes the tests that mutate the deny environment variable —
/// `CounterGroup::open` reads it, and tests in this binary run on
/// parallel threads of one process.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn spin(n: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..n {
        acc = std::hint::black_box(acc.wrapping_add(i));
    }
    acc
}

#[test]
fn denied_perf_degrades_to_tsc_only_without_panicking() {
    let _guard = ENV_LOCK.lock().unwrap();
    // SAFETY: guarded by ENV_LOCK against the other env-reading test.
    unsafe { std::env::set_var(PERF_DENY_ENV, "1") };
    let group = CounterGroup::open();
    let result = (|| {
        match group.status() {
            PerfStatus::TscOnly { reason } => assert_eq!(reason, PERF_DENY_ENV),
            PerfStatus::Hardware { .. } => panic!("deny env must force TSC-only mode"),
        }
        assert_eq!(group.status().mode(), "tsc-only");

        let s0 = group.snapshot();
        spin(100_000);
        let s1 = group.snapshot();
        let d = s1.delta_since(&s0);
        // Estimated-vs-measured reporting: cycles exist (TSC-derived) but
        // are flagged as estimates; every other counter is unavailable
        // and reads 0.
        assert!(d.count(CounterKind::Cycles) > 0, "TSC estimate must advance");
        assert!(!d.is_measured(CounterKind::Cycles));
        assert!(d.is_available(CounterKind::Cycles));
        for kind in ALL_COUNTERS {
            if kind != CounterKind::Cycles {
                assert!(!d.is_available(kind), "{} must be unavailable", kind.name());
                assert_eq!(d.count(kind), 0);
            }
        }
    })();
    unsafe { std::env::remove_var(PERF_DENY_ENV) };
    std::hint::black_box(result);
}

#[test]
fn perf_open_never_fails_whatever_the_environment_grants() {
    let _guard = ENV_LOCK.lock().unwrap();
    // No deny override: take whatever this kernel/container offers. The
    // contract is the same either way — open succeeds, snapshots advance,
    // flags are coherent.
    let externally_denied = std::env::var_os(PERF_DENY_ENV).is_some();
    let group = CounterGroup::open();
    match group.status() {
        PerfStatus::Hardware { .. } => {
            assert!(!externally_denied, "deny env must never yield hardware mode")
        }
        PerfStatus::TscOnly { reason } => {
            assert!(!reason.is_empty(), "degradation must carry its cause")
        }
    }
    let s0 = group.snapshot();
    spin(100_000);
    let d = group.snapshot().delta_since(&s0);
    assert!(d.count(CounterKind::Cycles) > 0);
    for kind in ALL_COUNTERS {
        // A counter that was never measured is either a TSC estimate
        // (cycles) or an unavailable zero — never a phantom reading.
        if !d.is_measured(kind) && kind != CounterKind::Cycles {
            assert_eq!(d.count(kind), 0, "{} reported without measurement", kind.name());
        }
    }
}

#[cfg(feature = "cycles")]
mod ledger_coverage {
    use std::sync::Arc;

    use wfq_baselines::BenchQueue;
    use wfq_obs::{clock, ledger_totals, LedgerTotals, Phase, ALL_PHASES, CYCLES_ENABLED};
    use wfqueue::{OwnedHandle, RawQueue};

    const PAIRS: u64 = 5_000;

    /// How the pair loop's handle holds the queue.
    #[derive(Clone, Copy, Debug)]
    enum HandleKind {
        /// `q.register()`, borrowing the queue.
        Registered,
        /// `OwnedHandle::new(Arc)`, sharing it.
        Owned,
    }

    /// Runs a pair loop through a handle of `kind` on a fresh thread
    /// (fresh thread-local ledger) and returns (ledger delta, wall ticks
    /// of the loop). `ledger_totals` sums every thread's ledger, so the
    /// loops run one at a time: under the default parallel runner two
    /// tests' loops would count each other's spans.
    fn run_pairs(kind: HandleKind) -> (LedgerTotals, u64) {
        static ONE_LOOP_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = ONE_LOOP_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        std::thread::spawn(move || {
            let q = Arc::new(<RawQueue as BenchQueue>::new());
            match kind {
                HandleKind::Registered => {
                    let mut h = q.register();
                    time_pairs(|v| {
                        h.enqueue(v);
                        h.dequeue()
                    })
                }
                HandleKind::Owned => {
                    let mut h = OwnedHandle::new(Arc::clone(&q));
                    time_pairs(|v| {
                        h.enqueue(v);
                        h.dequeue()
                    })
                }
            }
        })
        .join()
        .unwrap()
    }

    fn time_pairs(mut pair: impl FnMut(u64) -> Option<u64>) -> (LedgerTotals, u64) {
        let before = ledger_totals();
        let t0 = clock::raw_now();
        for i in 1..=PAIRS {
            std::hint::black_box(pair(i));
        }
        let wall = clock::raw_now().saturating_sub(t0);
        (ledger_totals().delta_since(&before), wall)
    }

    #[test]
    fn real_queue_ops_populate_every_hot_path_phase() {
        assert!(CYCLES_ENABLED);
        for kind in [HandleKind::Registered, HandleKind::Owned] {
            let (d, _) = run_pairs(kind);
            // The Glue envelope brackets each op exactly once, whichever
            // way the handle holds the queue.
            assert_eq!(d.entries_of(Phase::Glue), 2 * PAIRS, "{kind:?}");
            // Single-threaded pairs take the fast path: one FAA span per
            // enqueue, one emptiness-probe + one FAA span per dequeue...
            // at minimum, every op claims an index.
            assert!(d.entries_of(Phase::Faa) >= 2 * PAIRS, "{kind:?}");
            for p in [Phase::FindCell, Phase::CellCas, Phase::Stats, Phase::Hazard] {
                assert!(d.entries_of(p) > 0, "{kind:?}: {} never entered", p.name());
                assert!(d.ticks_of(p) > 0, "{kind:?}: {} recorded no time", p.name());
            }
            // The uncontended loop never needs the slow path.
            assert_eq!(d.entries_of(Phase::SlowPath), 0, "{kind:?}");
            assert_eq!(d.overflows, 0, "{kind:?}: nesting must fit MAX_NEST_DEPTH");
        }
    }

    #[test]
    fn phase_self_times_sum_within_the_measured_wall_window() {
        let (d, wall) = run_pairs(HandleKind::Registered);
        let sum: u64 = ALL_PHASES.iter().map(|p| d.ticks_of(*p)).sum();
        assert_eq!(sum, d.total_ticks());
        // Self-time accounting cannot invent time: the per-phase sum is
        // bounded by the wall window of the loop (hook edges land between
        // spans, so strictly less in practice).
        assert!(
            sum <= wall,
            "phase sum {sum} exceeds the wall window {wall}"
        );
        // ... and the ledger must cover the bulk of it: the Glue envelope
        // brackets every op end to end, so only loop control and hook
        // edges live outside. A generous floor still catches a detached
        // ledger (e.g. phases recording into the void).
        assert!(
            sum * 10 >= wall * 3,
            "ledger covers {sum} of {wall} wall ticks — less than 30%"
        );
    }
}

#[cfg(not(feature = "cycles"))]
mod hooks_off {
    use wfq_baselines::BenchQueue;
    use wfq_obs::{ledger_totals, CYCLES_ENABLED};
    use wfqueue::RawQueue;

    #[test]
    fn default_build_records_nothing() {
        assert!(!CYCLES_ENABLED);
        let q = <RawQueue as BenchQueue>::new();
        let mut h = q.register();
        for i in 1..=100 {
            h.enqueue(i);
            std::hint::black_box(h.dequeue());
        }
        let t = ledger_totals();
        assert_eq!(t.total_entries(), 0);
        assert_eq!(t.total_ticks(), 0);
    }
}
